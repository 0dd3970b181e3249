"""Run one workload in a fresh process and print its raw measurements.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --mode setup|run

``--mode setup`` imports the library, builds the workload's inputs and
reports the set-up time. ``--mode run`` then runs rounds of the workload's
fixed batch for at most ``--seconds`` (but at least one round). With ``--trace 1`` the first
third of that time runs untraced, the rest traced (set-up included), so the
difference of the two round times is the tracing overhead. The last line of
standard output is one JSON object; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, Failed

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
MAX_MESSAGES = 10


def import_program():
    """Import hypaction from this checkout's src/, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import hypaction

    if Path(hypaction.__file__).resolve().parent != src / "hypaction":
        raise ImportError(f"hypaction was imported from {hypaction.__file__}, not {src}")
    return hypaction


def track_engines(H) -> list:
    """Record every ChainEngine created, so a round can read its caches."""
    created: list = []
    original = H.ChainEngine.__init__

    def __init__(self, *args, **kwargs):
        original(self, *args, **kwargs)
        created.append(self)

    H.ChainEngine.__init__ = __init__
    return created


def install_splits(names, marks: list) -> None:
    """Append (wall, cpu) to ``marks`` each time a named library function returns.

    A timed call, and the set-up, are cut at these points into segments, so
    that long work (a whole ``report`` command, a decay fit) is timed in
    pieces of milliseconds. Each function is patched wherever it is looked
    up; a name the library does not have is skipped, and the work is then
    timed in fewer segments.
    """
    for qual in names:
        layer, *path = qual.split(".")
        owner = importlib.import_module(f"hypaction.{layer}")
        for attr in path[:-1]:
            owner = getattr(owner, attr, None)
        fn = getattr(owner, path[-1], None)
        if fn is None:
            print(f"split point {qual} not found; not splitting there", file=sys.stderr)
            continue

        @functools.wraps(fn)
        def wrapper(*args, _fn=fn, **kwargs):
            try:
                return _fn(*args, **kwargs)
            finally:
                marks.append((time.perf_counter(), time.process_time()))

        if isinstance(owner, type):
            setattr(owner, path[-1], wrapper)
            continue
        for modname, mod in list(sys.modules.items()):
            if mod is not None and (modname == "hypaction" or modname.startswith("hypaction.")):
                for name, obj in list(vars(mod).items()):
                    if obj is fn:
                        setattr(mod, name, wrapper)


class Calls:
    """Times each public call of a round; a call that raises becomes Failed.

    Besides each call's wall and CPU time, it keeps the call's segments:
    the times between the call's start, the split points it passed
    (see ``install_splits``) and its end.
    """

    def __init__(self, log: list, marks: list):
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.segments: list[list[float]] = []
        self.cpu_segments: list[list[float]] = []
        self._log = log
        self._marks = marks

    def __call__(self, fn, *args, **kwargs):
        marks = self._marks
        marks.clear()
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # the benchmark keeps running and counts the failure
            if len(self._log) < MAX_MESSAGES:
                self._log.append(traceback.format_exc())
            out = Failed(exc)
        t1 = time.perf_counter()
        c1 = time.process_time()
        self.cpu.append(c1 - c0)
        self.wall.append(t1 - t0)
        walls = [t0, *(m[0] for m in marks), t1]
        cpus = [c0, *(m[1] for m in marks), c1]
        self.segments.append([b - a for a, b in zip(walls, walls[1:])])
        self.cpu_segments.append([b - a for a, b in zip(cpus, cpus[1:])])
        return out


def run_rounds(wl, st, until: float, engines: list, log: list, marks: list,
               tracer=None) -> list[dict]:
    """Repeat the workload's batch, at least once, while another round as long
    as the last one still ends before the deadline."""
    rounds: list[dict] = []
    while not rounds or time.perf_counter() + rounds[-1]["wall"] <= until:
        engines.clear()
        if tracer is not None:
            tracer.reset_round()
        calls = Calls(log, marks)
        outputs = wl.round(st, calls)
        layer_counts, layer_seconds = tracer.snapshot() if tracer is not None else (None, None)
        checked = wl.check(st, outputs, engines)
        rounds.append({
            "wall": sum(calls.wall), "calls": calls.wall, "cpu_calls": calls.cpu,
            "segments": calls.segments, "cpu_segments": calls.cpu_segments,
            "shape": [len(seg) for seg in calls.segments],
            "attempted": checked.attempted, "failed": checked.failed,
            "messages": checked.messages[:MAX_MESSAGES], "counts": checked.counts,
            "layer_counts": layer_counts, "layer_seconds": layer_seconds,
        })
        if not checked.attempted:
            break  # an empty batch measures nothing; the run fails on it
    return rounds


def mismatches(rounds: list[dict], key: str, what: str) -> list[str]:
    first = rounds[0][key]
    return [f"{what} of round {i} differ from round 0: {r[key]} vs {first}"
            for i, r in enumerate(rounds) if r[key] != first][:MAX_MESSAGES]


def summary(rounds: list[dict]) -> dict:
    return {
        "rounds": len(rounds),
        "wall": [r["wall"] for r in rounds],
        "calls": [r["calls"] for r in rounds],
        "cpu_calls": [r["cpu_calls"] for r in rounds],
        "segments": [r["segments"] for r in rounds],
        "cpu_segments": [r["cpu_segments"] for r in rounds],
        "attempted": sum(r["attempted"] for r in rounds),
    }


def per_layer(traced: list[dict], untraced: list[dict], setup: tuple, tracer: Tracer) -> dict:
    counts = dict(traced[0]["layer_counts"])
    counts.update({k: v for k, v in traced[0]["counts"].items() if isinstance(v, int)})
    hits, misses = counts["flowers.cache_hits"], counts["flowers.cache_misses"]
    counts["flowers.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    returned = counts["flowers.returned_chains"]
    counts["flowers.spread_ratio"] = counts["flowers.spread_chains"] / returned if returned else 0.0
    # times come from one traced round, the median by wall time, so the
    # layers' self times add up to that round's wall time
    middle = sorted(traced, key=lambda r: r["wall"])[len(traced) // 2]
    seconds = dict(middle["layer_seconds"])
    traced_wall = middle["wall"]
    untraced_wall = statistics.median(r["wall"] for r in untraced)
    setup_counts, setup_seconds, setup_s = setup
    out = {**counts, **seconds}
    out.update({
        "trace.round_wall_s": traced_wall,
        "trace.untraced_round_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": len(tracer.spans) + tracer.dropped,
        "setup.traced_s": setup_s,
        "setup.cayley.ball_vertices": setup_counts["cayley.ball_vertices"],
    })
    out.update({f"setup.{k}": v for k, v in setup_seconds.items() if k.endswith(".self_s")})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    marks: list[tuple[float, float]] = []
    t0 = time.perf_counter()
    H = import_program()
    install_splits(wl.split_after, marks)
    st = wl.setup(args.seed)
    t1 = time.perf_counter()
    bounds = [t0, *(m[0] for m in marks), t1]
    setup = {"setup_s": t1 - t0, "setup_segments": [b - a for a, b in zip(bounds, bounds[1:])]}
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0

    engines = track_engines(H)
    log: list[str] = []
    start = time.perf_counter()
    end = start + args.seconds
    result: dict = dict(setup)
    if not args.trace:
        untraced = run_rounds(wl, st, end, engines, log, marks)
        traced: list[dict] = []
    else:
        untraced = run_rounds(wl, st, start + args.seconds / 3, engines, log, marks)
        tracer = Tracer(wl.item_fn)
        tracer.install()
        try:
            t = time.perf_counter()
            st = wl.setup(args.seed)
            setup = (*tracer.snapshot(), time.perf_counter() - t)
            traced = run_rounds(wl, st, end, engines, log, marks, tracer)
        finally:
            tracer.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_file, start)
        result["spans_file"] = str(spans_file.relative_to(ROOT))
        result["per_layer"] = per_layer(traced, untraced, setup, tracer)
    rounds = untraced + traced
    totals: dict[str, int] = {}
    for r in rounds:
        for k, v in r["counts"].items():
            if isinstance(v, int):
                totals[k] = totals.get(k, 0) + v
    problems = mismatches(rounds, "counts", "cache and output counts")
    problems += mismatches(rounds, "shape", "segments per call")
    if traced:
        problems += mismatches(traced, "layer_counts", "traced per-layer counts")
    problems += wl.run_checks(st, totals)
    result.update({
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "messages": [m for r in rounds for m in r["messages"]][:MAX_MESSAGES] + log,
        "problems": problems,
        "untraced": summary(untraced),
        "traced": summary(traced) if traced else None,
        "counts": rounds[0]["counts"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
