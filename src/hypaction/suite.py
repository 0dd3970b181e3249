"""Deterministic verification suites behind the `verify` command.

Each check re-derives one family of invariants at a configurable scale and
reports pass/fail with a small detail payload; the first witness of any
violation is serialized, and a sampled check that could evaluate none of
its cases is inconclusive rather than passed. All randomness flows from
the single seed, so a fixed configuration reproduces byte-identical reports.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from . import analysis, chains
from .cayley import build_ball, certify_delta, distance, q_path, q_point
from .cocycle import Cocycle, properness_floors
from .errors import (ExactnessError, FitError, InvariantViolation, OutOfWindowError,
                     PSelectionError, UnderdeterminedFitError)
from .flowers import ChainEngine
from .groups import GroupSpec


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    inconclusive: bool = False

    def to_json(self) -> dict:
        return asdict(self)


def _sampled_check(name: str, cases, witness_of, details: dict | None = None,
                   case_fields=lambda *case: {}) -> CheckResult:
    """Evaluate ``witness_of(*case)`` over the cases up to the first witness.

    A case the window cannot support raises and is skipped, counted by its
    error type. A case whose audit raises InvariantViolation is evaluated,
    and its witness is ``case_fields(*case)`` with the message under
    "error". The check passes when some case was evaluated and none gave a
    witness; with no case evaluated it is inconclusive, not passed.
    """
    details = {} if details is None else details
    evaluated, skipped, witness = 0, Counter(), None
    for case in cases:
        try:
            witness = witness_of(*case)
        except (ExactnessError, OutOfWindowError) as exc:
            skipped[type(exc).__name__] += 1
            continue
        except InvariantViolation as exc:
            witness = {**case_fields(*case), "error": str(exc)}
        evaluated += 1
        if witness is not None:
            break
    details.update(evaluated=evaluated, skipped=dict(skipped), witness=witness)
    return CheckResult(name, witness is None and evaluated > 0, details,
                       inconclusive=evaluated == 0)


def _sample(rng: random.Random, pool, n: int):
    return [pool[rng.randrange(len(pool))] for _ in range(n)]


def run_suite(
    spec: GroupSpec,
    radius: int = 6,
    samples: int = 300,
    seed: int = 0,
    p: float | str = "auto",
    exhaustive_radius: int | None = 2,
    max_vertices: int | None = None,
) -> dict:
    """Run every invariant suite on one group and return a JSON-safe report."""
    checks: list[CheckResult] = []
    ball = build_ball(spec, radius, max_vertices=max_vertices)
    engine = ChainEngine(spec)
    words = ball.words

    # 1. word lengths agree with the breadth-first layers, then sampled
    # inverses (cases (g,)) and associativity (cases (x, y, z))
    rng = random.Random(seed * 13 + 1)
    dist = (r for r, size in enumerate(ball.layer_sizes()) for _ in range(size))
    bfs_fail = next((w for w, d in zip(words, dist) if len(w) != d), None)
    if bfs_fail is None:
        inverses = [(g,) for g in _sample(rng, words, samples)]
        triples = list(zip(*(_sample(rng, words, samples) for _ in range(3))))

        def law_witness(*case):
            mul = spec.multiply
            if len(case) == 1:
                holds = mul(case[0], spec.invert(case[0])) == ()
            else:
                x, y, z = case
                holds = mul(mul(x, y), z) == mul(x, mul(y, z))
            return None if holds else " ".join(spec.label_word(w) for w in case)

        checks.append(_sampled_check("group-laws", inverses + triples, law_witness,
                                     {"vertices": len(ball)}))
    else:
        checks.append(CheckResult("group-laws", False, {
            "vertices": len(ball), "witness": spec.label_word(bfs_fail)}))

    # 2. fineness certificate
    report = certify_delta(ball, samples, seed * 13 + 2, exhaustive_radius)
    checks.append(CheckResult("delta-certificate", report.passed, report.to_json(),
                              inconclusive=report.evaluated == 0))

    # 3. bicombing: geodesy and equivariance
    rng = random.Random(seed * 13 + 3)

    def bicombing_witness(a, b, g):
        path = q_path(spec, a, b)
        # q_path lists d(a, b) + 1 points by construction; geodesy is in the steps
        if path[0] != a or path[-1] != b or any(
                distance(spec, x, y) != 1 for x, y in zip(path, path[1:])):
            return {"kind": "geodesy", "a": spec.label_word(a), "b": spec.label_word(b)}
        moved = tuple(spec.multiply(g, w) for w in path)
        if q_path(spec, spec.multiply(g, a), spec.multiply(g, b)) != moved:
            return {"kind": "equivariance", "g": spec.label_word(g)}
        return None

    triples = (_sample(rng, words, 3) for _ in range(samples))
    checks.append(_sampled_check("bicombing", triples, bicombing_witness))

    # 4. chains: convex combination, base case, support containment
    rng = random.Random(seed * 13 + 4)
    ten = engine.ten_delta

    def chain_witness(b, a):
        f = engine.f_chain(b, a)
        d = distance(spec, a, b)
        if chains.coefficient_sum(f) != 1 or any(c <= 0 for c in f.values()):
            return {"kind": "convexity", "b": spec.label_word(b), "a": spec.label_word(a)}
        if d <= ten and f != {a: Fraction(1)}:
            return {"kind": "base-case", "b": spec.label_word(b), "a": spec.label_word(a)}
        if d > ten:
            center = q_point(spec, b, a, ten)
            bad = [w for w in f
                   if distance(spec, b, w) != ten or distance(spec, center, w) > spec.delta]
            if bad:
                return {"kind": "support", "witness": spec.label_word(bad[0])}
        return None

    pairs = list(zip(_sample(rng, words, samples), _sample(rng, words, samples)))
    checks.append(_sampled_check("chain-convexity-support", pairs, chain_witness,
                                 {"pairs": len(pairs)}))

    # 5. chain equivariance against the literal recursion
    rng = random.Random(seed * 13 + 5)
    n_eq = max(10, samples // 10)

    def equivariance_witness(g, b, a):
        lhs = engine.f_chain_literal(spec.multiply(g, b), spec.multiply(g, a))
        if lhs != chains.translate(spec, g, engine.f_chain_literal(b, a)):
            return {"g": spec.label_word(g), "b": spec.label_word(b), "a": spec.label_word(a)}
        return None

    triples = (_sample(rng, words, 3) for _ in range(n_eq))
    checks.append(_sampled_check("chain-equivariance", triples, equivariance_witness,
                                 {"triples": n_eq}))

    # 6. unit normalization of h
    rng = random.Random(seed * 13 + 6)
    p_probe = 2.0 if p == "auto" else float(p)

    def normalization_witness(b, a):
        h = chains.normalized(engine.f_chain(b, a), p_probe)
        if abs(chains.norm_p(h, p_probe) - 1.0) > 1e-9:
            return {"b": spec.label_word(b), "a": spec.label_word(a)}
        return None

    pairs = (_sample(rng, words, 2) for _ in range(max(10, samples // 10)))
    checks.append(_sampled_check("h-normalization", pairs, normalization_witness))

    # 7. decay fits and exponent selection by the rule every command uses,
    # lambda as the same fitter's fit at p = 1. A fit that returns dominates
    # its samples with a base below 1, and a selected p has rho^p * upsilon
    # below 1/4, so what is left to fail is that each fit equals the envelope
    # refitted from its full sample list. Inconclusive with no samples or no
    # fit determined
    selection, fit_passed, fit_details = None, False, {"evaluated": 0}
    if samples > 0:
        try:
            _, p_fit, ups, selection, rho_of_p, fits = analysis.fit_p(engine, ball, samples, seed)
            rho_of_p(1.0)
            f_fit = fits[1.0]
            fit_passed = all(analysis.fit_envelope(fit.samples) == fit for fit in (f_fit, p_fit))
            fit_details = {
                "lambda": f_fit.base,
                "refit_equal": fit_passed,
                "upsilon": ups,
                "chosen_p": selection.p,
                "rho": selection.rho_used,
                "margin": selection.margin,
            }
        except UnderdeterminedFitError as exc:
            fit_details = {"evaluated": exc.n_samples, "error": str(exc)}
        except (FitError, PSelectionError) as exc:
            fit_details = {"error": str(exc)}
    checks.append(CheckResult("decay-and-p-selection", fit_passed, fit_details,
                              inconclusive="evaluated" in fit_details))

    # 8. cocycle identity over a small window, at the probe if no p was selected
    p_run = selection.p if (p == "auto" and selection is not None) else p_probe
    coc = Cocycle(engine, p_run)
    rng = random.Random(seed * 13 + 8)
    window = build_ball(spec, min(4, radius))
    id_details = {"window": len(window), "audited": 0}

    def identity_fields(g, k):
        return {"g": spec.label_word(g), "k": spec.label_word(k)}

    def identity_witness(g, k):
        rep = coc.verify_identity(g, k, window, audit_fraction=0.05, seed=seed * 13 + 8)
        id_details["audited"] += rep.audited
        if not rep.residual_zero:
            return {**identity_fields(g, k), "gamma": spec.label_word(rep.witnesses[0])}
        return None

    pairs = (_sample(rng, words, 2) for _ in range(5))
    checks.append(_sampled_check("cocycle-identity", pairs, identity_witness, id_details,
                                 case_fields=identity_fields))

    # 9. disjoint supports and properness counts on deep elements
    rng = random.Random(seed * 13 + 9)

    def properness_witness(length):
        g = _random_deep_word(spec, rng, length)
        count = coc.properness_count(g)
        floor_20delta, floor_paper = properness_floors(len(g), spec.delta)
        if 2 * count < floor_20delta or count < floor_paper:
            return {"g": spec.label_word(g), "count": count}
        if spec.exact_tree:
            res = coc.norm(g, audit_samples=10, seed=seed * 13 + 9)
            if res.lower < floor_20delta:
                return {"g": spec.label_word(g), "lower": res.lower}
        return None

    lengths = ((rng.randint(2 * ten, 2 * ten + 6),) for _ in range(10))
    checks.append(_sampled_check("properness", lengths, properness_witness,
                                 case_fields=lambda length: {"length": length}))

    return {
        "group": spec.name,
        "radius": radius,
        "delta": spec.delta,
        "p": None if p == "auto" and selection is None else p_run,
        "seed": seed,
        "samples": samples,
        "passed": all(c.passed for c in checks),
        "inconclusive": [c.name for c in checks if c.inconclusive],
        "checks": [c.to_json() for c in checks],
    }


def _random_deep_word(spec: GroupSpec, rng: random.Random, length: int):
    """A random normal form of the requested length; OutOfWindowError if the
    spec cannot reach it (explicit balls with a small radius).

    Walks distance-increasing edges, since local reducedness does not imply
    geodesy on arbitrary graphs; the endpoint's word is canonical.
    """
    if spec.max_word_length < length:
        raise OutOfWindowError(f"no word of length {length} within the window")
    cur: tuple = ()
    for _ in range(length):
        ups = [nb for _, nb in spec.neighbors(cur) if len(nb) == len(cur) + 1]
        if not ups:
            raise OutOfWindowError(f"the walk to length {length} met a dead end")
        cur = ups[rng.randrange(len(ups))]
    return cur
