"""Benchmark of hypaction: one seeded workload, measured end to end or traced.

    python3 perfbench/run.py --workload tree-report --seed 1 --seconds 10 --trace 0

Workloads and metrics are listed, with their reasons, in BENCHMARK.json at
the root of the checkout. Each workload runs in its own worker process
(perfbench/worker.py) on the sources in src/, single-threaded. With
``--trace 0``, RUN_PROCESSES workers in turn run rounds of the workload's
fixed batch, each for its share of ``--seconds``; before each of them the
set-up alone is repeated in fresh processes. Then the end-to-end metrics
are printed. Each timed call is cut into segments (a long call at split
points the workload names), and a pass over the batch is timed as the sum
of its segments' best-of-rounds times (see ``slot_times``): the host's
speed swings for tens of seconds at a time, and the fastest repetition of
the same work is the figure least moved by that. ``setup_s`` is made the
same way from the set-ups (see ``best_setup``).
With ``--trace 1`` the per-layer metrics are printed instead, with the
tracing overhead, and the spans are written under .perfbench_out/.

Every output is checked. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the exit code
is 0 only when every check passed. A run that attempted nothing, or that
cannot find the program's sources, prints no result and exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
# the untraced timed phase is split over this many fresh worker processes:
# a process sometimes runs slower than the others for its whole life, and
# the best-of-rounds estimate then needs rounds from another process
RUN_PROCESSES = 4
# before each timed worker (which sets up too), set-up alone is timed in
# fresh processes: at least one, and more (up to SETUP_SLICE_MAX) while they
# took less than SETUP_SLICE_S together, so that set-ups are sampled across
# the whole run
SETUP_SLICE_S, SETUP_SLICE_MAX = 0.75, 8
DEADLINE_S = 170.0


def calibrate() -> float:
    """Median time of a fixed pure-Python loop, reported as machine-speed context."""
    times = []
    for _ in range(5):
        t = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker process to completion and parse its last output line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left to start a worker")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def slot_times(rounds: list[list[list[float]]]) -> list[list[float]]:
    """Per call of the batch, the best-of-rounds time of each of its segments.

    ``rounds[r][c][s]`` is segment s of call c in round r. Every round runs
    the same batch, so a segment is the same work in every round; its
    fastest repetition is the estimate least disturbed by other load on
    the machine, which comes in phases of a few seconds.
    """
    return [[min(seg) for seg in zip(*calls)] for calls in zip(*rounds)]


def merge(runs: list[dict]) -> dict:
    """One result from the untraced worker processes of a run.

    Every worker ran the same batch from the same seed, so their counts and
    the segments per call must match; a mismatch is a failed check.
    """
    first = runs[0]
    problems = [p for r in runs for p in r["problems"]]
    shape = [len(call) for call in first["untraced"]["segments"][0]]
    for i, r in enumerate(runs[1:], 1):
        if r["counts"] != first["counts"]:
            problems.append(f"counts of worker {i} differ from worker 0: "
                            f"{r['counts']} vs {first['counts']}")
        if [len(call) for call in r["untraced"]["segments"][0]] != shape:
            problems.append(f"segments per call of worker {i} differ from worker 0")
    untraced = {key: [x for r in runs for x in r["untraced"][key]]
                for key in ("wall", "calls", "cpu_calls", "segments", "cpu_segments")}
    untraced["rounds"] = sum(r["untraced"]["rounds"] for r in runs)
    untraced["attempted"] = sum(r["untraced"]["attempted"] for r in runs)
    return {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "messages": [m for r in runs for m in r["messages"]],
        "problems": problems,
        "untraced": untraced,
        "traced": None,
        "counts": first["counts"],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
    }


def best_setup(setups: list[dict]) -> float:
    """Set-up time as the sum over its segments of their fastest repetition
    across the fresh processes that set up, as for the timed phase."""
    return sum(min(seg) for seg in zip(*(s["setup_segments"] for s in setups)))


def end_to_end(res: dict, setups: list[dict]) -> dict:
    """Metrics of the untraced timed phase, per pass over the workload's batch.

    Each round is one pass over the same batch. Wall and CPU time of a pass
    are the sums over its segments of their best-of-rounds times, and a
    call's latency is the sum over its own segments.
    """
    u = res["untraced"]
    wall = slot_times(u["segments"])
    call_wall = [sum(call) for call in wall]
    pass_wall = sum(call_wall)
    return {
        "setup_s": best_setup(setups),
        "wall_s": pass_wall,
        "cpu_s": sum(map(sum, slot_times(u["cpu_segments"]))),
        "call_p50_ms": 1000 * statistics.median(call_wall),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def report_lines(name: str, args, res: dict, values: dict, units: dict, setups) -> list[str]:
    u = res["untraced"]
    traced = res["traced"]["rounds"] if res["traced"] else 0
    lines = [f"{name} seed={args.seed} trace={args.trace}: {u['rounds']} untraced and "
             f"{traced} traced rounds, {res['attempted']} items, {res['failed']} failed "
             f"(failed_fraction {res['failed'] / max(res['attempted'], 1):.6g})"]
    for key, value in values.items():
        lines.append(f"  {key:36s} {value:14.6g} {units[key]}")
    if not args.trace:
        whole = [s["setup_s"] for s in setups]
        lines.append(f"  whole set-up per process: median {statistics.median(whole):.4f} s of "
                     f"{', '.join(f'{s:.4f}' for s in whole)}")
        lines.append(f"  items_per_s {u['attempted'] / u['rounds'] / values['wall_s']:.6g} 1/s "
                     "(items per pass over wall_s)")
        walls = u["wall"]
        lines.append(f"  wall per pass, not best-of-rounds: mean {statistics.mean(walls):.4f} s, "
                     f"fastest {min(walls):.4f} s, slowest {max(walls):.4f} s")
        calls = [c for round_calls in u["calls"] for c in round_calls]
        if len(calls) >= 100:
            p90 = statistics.quantiles(calls, n=10)[8]
            lines.append(f"  call_p90_ms {1000 * p90:.6g} ms over all rounds (n={len(calls)})")
        else:
            lines.append(f"  call_p90_ms not reported: {len(calls)} calls, fewer than 100")
    else:
        wall = values["trace.round_wall_s"]
        lines.append(f"  self time per traced round of {wall:.4f} s "
                     f"(tracing overhead {values['trace.overhead_s']:+.4f} s per round):")
        rest = wall
        for layer in LAYERS:
            s = values[f"{layer}.self_s"]
            rest -= s
            lines.append(f"    {layer:10s} {s:10.4f} s  {100 * s / wall:5.1f}%")
        lines.append(f"    {'other':10s} {rest:10.4f} s  {100 * rest / wall:5.1f}%"
                     "  (benchmark loop and unwrapped code)")
    return lines


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description="hypaction benchmark")
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed nonnegative")
    if not (ROOT / "src" / "hypaction" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'hypaction'}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    calibration_before = calibrate()
    try:
        setups: list[dict] = []
        if args.trace:
            res = spawn([*common, "--mode", "run"], deadline)
        else:
            share = ["--seconds", str(args.seconds / RUN_PROCESSES)]
            runs = []
            for _ in range(RUN_PROCESSES):
                started = time.monotonic()
                for _ in range(SETUP_SLICE_MAX):
                    setups.append(spawn([*common, "--mode", "setup"], deadline))
                    if time.monotonic() - started >= SETUP_SLICE_S:
                        break
                runs.append(spawn([*common, *share, "--mode", "run"], deadline))
            setups += runs
            res = merge(runs)
            if len({len(s["setup_segments"]) for s in setups}) > 1:
                res["problems"].append("set-up segments differ between processes")
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    calibration_after = calibrate()

    for msg in res["messages"] + res["problems"]:
        print(f"check failed: {msg}", file=sys.stderr)
    if res["attempted"] == 0:
        print("error: the run attempted no items", file=sys.stderr)
        return 1

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    computed = res["per_layer"] if args.trace else end_to_end(res, setups)
    missing = sorted(set(units) - set(computed))
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    values = {name: computed[name] for name in units}
    correct = res["failed"] == 0 and not res["problems"]

    context = {
        "machine": platform.platform(),
        "processor": platform.machine(),
        "cpus": os.cpu_count(),
        "python": sys.version.replace("\n", " "),
        "calibration_s": [calibration_before, calibration_after],
    }
    for line in report_lines(args.workload, args, res, values, units, setups):
        print(line)
    print("context " + json.dumps(context))
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"context": context, "setup_s_samples": [s["setup_s"] for s in setups],
                    "setup_segments": [s["setup_segments"] for s in setups], "metrics": values,
                    "counts": res["counts"], "spans_file": res.get("spans_file"),
                    "untraced": res["untraced"], "traced": res["traced"]}, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
