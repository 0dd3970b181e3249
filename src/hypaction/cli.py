"""Command-line interface.

Subcommands build balls, certify fineness, dump chains, select the exponent,
evaluate cocycle norms, run the verification suites, and export properness
tables. All randomness flows from the configured seed and outputs are
serialized with sorted keys, so identical configurations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import analysis
from .cayley import build_ball, certify_delta
from .chains import chain_to_entries, norm_p, normalized
from .cocycle import Cocycle, properness_floors
from .errors import HypactionError
from .flowers import ChainEngine
from .groups import GroupSpec, spec_from_descriptor
from .suite import run_suite

# bytes per vertex of a ball B(e, R) with a windowed norm over it, less 8
# bytes per letter: the ball's words and the walk from e that fills eta hold
# up to R letters each, the walk from g up to R + |g|. At |g| = 1
# tracemalloc's peak, less 24 R, is at most 405 on free:2 (delta 2), free:3
# and zm:2,3 at every radius the budget admits; up to |g| = 80 the charge
# exceeds the peak of a fresh interpreter on every such ball of 4,000
# vertices and more. Smaller ones hold up to 0.28 MB more, whatever their
# size: a fixed amount, taken off the budget before it is divided
_BYTES_PER_VERTEX = 408
_BYTES_PER_LETTER = 8
_FIXED_BYTES = 1 << 19
# the types each config field takes, bool not an integer; p is checked on its own
_FIELD_TYPES = {"group": (str,), "radius": (int,), "delta": (int, type(None)), "seed": (int,),
                "samples": (int,), "memory_budget_mb": (int,), "output": (str, type(None))}


@dataclass
class RunConfig:
    group: str = "free:2"
    radius: int = 6
    delta: int | None = None
    p: str | float = "auto"  # a float after load
    seed: int = 0
    samples: int = 400
    memory_budget_mb: int = 512
    output: str | None = None

    @classmethod
    def load(cls, path: str | None, overrides: dict) -> "RunConfig":
        data: dict = {}
        if path:
            data = json.loads(Path(path).read_text())
            if not isinstance(data, dict):
                raise ValueError(f"a config file holds a JSON object, not {data!r}")
            unknown = set(data) - {f.name for f in fields(cls)}
            if unknown:
                raise ValueError(f"unknown config fields: {sorted(unknown)}")
        data.update({k: v for k, v in overrides.items() if v is not None})
        for key, kinds in _FIELD_TYPES.items():
            if key in data and type(data[key]) not in kinds:
                noun = "an integer" if int in kinds else "a string"
                raise ValueError(f"config field {key!r} must be {noun}, not {data[key]!r}")
        cfg = cls(**data)
        if cfg.radius < 0 or cfg.samples < 0 or cfg.seed < 0 or cfg.memory_budget_mb <= 0:
            raise ValueError("radius, samples and seed must be nonnegative; budget positive")
        if cfg.delta is not None and cfg.delta < 1:
            raise ValueError("delta must be a positive integer")
        if cfg.p != "auto":
            # rejected here, before any command fits or evaluates anything
            try:
                p = float(cfg.p)
            except (TypeError, ValueError):
                p = math.nan
            if not 2 <= p < math.inf:
                raise ValueError(f"p must be 'auto' or a finite number >= 2, not {cfg.p!r}")
            cfg.p = p
        return cfg

    def make_spec(self) -> GroupSpec:
        return spec_from_descriptor(self.group, delta=self.delta)

    def max_vertices(self, g_length: int = 1) -> int:
        """The most vertices the budget admits for a ball with a windowed norm
        over it, at g_length letters of the longest g."""
        per_vertex = _BYTES_PER_VERTEX + _BYTES_PER_LETTER * (3 * self.radius + g_length)
        return max(1000, (self.memory_budget_mb * (1 << 20) - _FIXED_BYTES) // per_vertex)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out: str | None) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def _norm_setup(cfg: RunConfig, engine: ChainEngine, g_length: int = 1):
    """(p, fit, upsilon, window) for every cocycle norm of one command.

    B(e, radius) is the ball the decay is fitted on and, off exact trees, the
    window, charged for the walk from a g of g_length letters; exact trees
    are evaluated with no window, and at a given p fit nothing."""
    spec = engine.spec
    if spec.exact_tree and cfg.p != "auto":
        return cfg.p, None, None, None
    ball = build_ball(spec, cfg.radius, cfg.max_vertices(1 if spec.exact_tree else g_length))
    p, fit, ups, *_ = analysis.fit_p(engine, ball, cfg.samples, cfg.seed, cfg.p)
    return p, fit, ups, None if spec.exact_tree else ball


def _cocycle_payload(cfg: RunConfig, coc: Cocycle, g, fit, ups, window) -> dict:
    spec = coc.spec
    # without a window the norm is the exact tree evaluation, audited
    res = coc.norm(g, window_ball=window, fit=fit, upsilon=ups,
                   audit_samples=min(cfg.samples, 50), seed=cfg.seed)
    count = coc.properness_count(g)
    floor_20delta, floor_paper = properness_floors(res.d_g_e, spec.delta)
    return {
        "g": spec.label_word(g),
        "d_g_e": res.d_g_e,
        "p": res.p,
        "lower": res.lower,
        "tail_bound": res.tail_bound,
        "exact": res.exact,
        "properness_count": count,
        "bound_20delta_ok": res.lower >= floor_20delta,
        "paper_bound_ok": res.lower >= floor_paper,
    }


# ------------------------------------------------------------------ commands


def cmd_ball(cfg: RunConfig) -> int:
    spec = cfg.make_spec()
    ball = build_ball(spec, cfg.radius, cfg.max_vertices())
    _emit_json(
        {
            "group": spec.name,
            "delta": spec.delta,
            "radius": cfg.radius,
            "vertices": len(ball),
            "layer_sizes": ball.layer_sizes(),
            "upsilon": analysis.estimate_upsilon(ball),
        },
        cfg.output,
    )
    return 0


def cmd_certify_delta(cfg: RunConfig, exhaustive_radius: int) -> int:
    spec = cfg.make_spec()
    ball = build_ball(spec, cfg.radius, cfg.max_vertices())
    report = certify_delta(ball, cfg.samples, cfg.seed, exhaustive_radius)
    _emit_json(report.to_json(), cfg.output)
    # exit 3, as verify does, when no triple was evaluated
    return 0 if report.passed else 1 if report.evaluated else 3


def cmd_chain(cfg: RunConfig, a_text: str, b_text: str, which: str) -> int:
    spec = cfg.make_spec()
    engine = ChainEngine(spec)
    a, b = spec.parse(a_text), spec.parse(b_text)
    f = engine.f_chain(a, b)
    payload = {
        "a": spec.label_word(a),
        "b": spec.label_word(b),
        "kind": which,
        "entries": chain_to_entries(spec, f),
    }
    if which == "h":
        p = cfg.p if cfg.p != "auto" else _norm_setup(cfg, engine)[0]
        payload["p"] = p
        payload["norm"] = norm_p(f, p)
        payload["coefficients"] = [
            [spec.label_word(w), c] for w, c in sorted(normalized(f, p).items())
        ]
    _emit_json(payload, cfg.output)
    return 0


def cmd_select_p(cfg: RunConfig) -> int:
    spec = cfg.make_spec()
    ball = build_ball(spec, cfg.radius, cfg.max_vertices())
    sel = analysis.fit_p(ChainEngine(spec), ball, cfg.samples, cfg.seed).selection
    _emit_json(sel.to_json(), cfg.output)
    return 0


def cmd_cocycle(cfg: RunConfig, g_text: str) -> int:
    spec = cfg.make_spec()
    engine = ChainEngine(spec)
    g = spec.parse(g_text)
    p, fit, ups, window = _norm_setup(cfg, engine, len(g))
    payload = _cocycle_payload(cfg, Cocycle(engine, p), g, fit, ups, window)
    _emit_json(payload, cfg.output)
    return 0 if payload["paper_bound_ok"] else 1


def cmd_verify(cfg: RunConfig, exhaustive_radius: int) -> int:
    spec = cfg.make_spec()
    report = run_suite(
        spec,
        radius=cfg.radius,
        samples=cfg.samples,
        seed=cfg.seed,
        p=cfg.p,
        exhaustive_radius=exhaustive_radius,
        max_vertices=cfg.max_vertices(),
    )
    _emit_json(report, cfg.output)
    failed = any(not (c["passed"] or c["inconclusive"]) for c in report["checks"])
    return 0 if report["passed"] else 1 if failed else 3


def cmd_report(cfg: RunConfig, g_texts: list[str]) -> int:
    spec = cfg.make_spec()
    engine = ChainEngine(spec)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([
        "g_word", "d_g_e", "p", "lower", "tail_bound",
        "properness_count", "bound_20delta_ok", "bound_100delta_ok",
    ])
    ok = True
    # one cocycle for every row: off trees the rows share its eta over the window
    gs = [spec.parse(text) for text in g_texts]
    p, fit, ups, window = _norm_setup(cfg, engine, max(map(len, gs)))
    coc = Cocycle(engine, p)
    for g in gs:
        row = _cocycle_payload(cfg, coc, g, fit, ups, window)
        ok = ok and row["paper_bound_ok"]
        writer.writerow([
            row["g"], row["d_g_e"], row["p"], row["lower"], row["tail_bound"],
            row["properness_count"], row["bound_20delta_ok"], row["paper_bound_ok"],
        ])
    _emit(buf.getvalue(), cfg.output)
    return 0 if ok else 1


def _expand_powers(expr: str) -> list[str]:
    """'a:1:30' (or 'a:30') expands to a^1 .. a^30."""
    parts = expr.split(":")
    if len(parts) == 2:
        base, lo, hi = parts[0], 1, int(parts[1])
    elif len(parts) == 3:
        base, lo, hi = parts[0], int(parts[1]), int(parts[2])
    else:
        raise ValueError(f"cannot parse power range {expr!r}")
    return [f"{base}^{k}" for k in range(lo, hi + 1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hypaction",
        description="Chain calculus and proper-action diagnostics on Cayley graphs",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with RunConfig fields")
    common.add_argument("--group", help="free:N | zm:M1,M2,... | ball:PATH")
    common.add_argument("--radius", type=int)
    common.add_argument("--delta", type=int)
    common.add_argument("--p", help="a float or 'auto'")
    common.add_argument("--seed", type=int)
    common.add_argument("--samples", type=int)
    common.add_argument("--memory-budget-mb", type=int, dest="memory_budget_mb")
    common.add_argument("--out", dest="output")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ball", parents=[common], help="ball summary and growth constant")
    cert = sub.add_parser("certify-delta", parents=[common], help="fineness certificate")
    cert.add_argument("--exhaustive-radius", type=int, default=2)
    chain = sub.add_parser("chain", parents=[common], help="dump f or h for a pair")
    chain.add_argument("a")
    chain.add_argument("b")
    chain.add_argument("--which", choices=("f", "h"), default="f")
    sub.add_parser("select-p", parents=[common], help="fit decay and choose the exponent")
    coc = sub.add_parser("cocycle", parents=[common], help="windowed cocycle norm at g")
    coc.add_argument("--g", required=True, help="the group element, as a word")
    ver = sub.add_parser("verify", parents=[common], help="run the invariant suites")
    ver.add_argument("--exhaustive-radius", type=int, default=2)
    rep = sub.add_parser("report", parents=[common], help="CSV properness table")
    rep.add_argument("--g-words", help="comma-separated words")
    rep.add_argument("--powers", help="BASE:KMAX or BASE:KMIN:KMAX power range")

    args = parser.parse_args(argv)
    overrides = {
        k: getattr(args, k, None)
        for k in ("group", "radius", "delta", "p", "seed", "samples",
                  "memory_budget_mb", "output")
    }
    try:
        cfg = RunConfig.load(args.config, overrides)
        if args.command == "ball":
            return cmd_ball(cfg)
        if args.command == "certify-delta":
            return cmd_certify_delta(cfg, args.exhaustive_radius)
        if args.command == "chain":
            return cmd_chain(cfg, args.a, args.b, args.which)
        if args.command == "select-p":
            return cmd_select_p(cfg)
        if args.command == "cocycle":
            return cmd_cocycle(cfg, args.g)
        if args.command == "verify":
            return cmd_verify(cfg, args.exhaustive_radius)
        # the subparsers admit no other command than report
        words: list[str] = []
        if args.powers:
            words.extend(_expand_powers(args.powers))
        if args.g_words:
            words.extend(w.strip() for w in args.g_words.split(",") if w.strip())
        if not words:
            parser.error("report needs --g-words or --powers")
        return cmd_report(cfg, words)
    except HypactionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
