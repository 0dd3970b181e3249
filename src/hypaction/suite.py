"""Deterministic verification suites behind the `verify` command.

Each check re-derives one family of invariants at a configurable scale and
reports pass/fail with a small detail payload; the first witness of any
violation is serialized. All randomness flows from the single seed, so a
fixed configuration reproduces byte-identical reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import analysis, chains
from .cayley import build_ball, certify_delta, distance
from .cocycle import Cocycle
from .errors import ExactnessError, FitError, OutOfWindowError, PSelectionError
from .flowers import ChainEngine
from .groups import GroupSpec


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


def _sample(rng: random.Random, pool, n: int):
    return [pool[rng.randrange(len(pool))] for _ in range(n)]


def run_suite(
    spec: GroupSpec,
    radius: int = 6,
    samples: int = 300,
    seed: int = 0,
    p: float | str = "auto",
    exhaustive_radius: int = 2,
    max_vertices: int | None = None,
) -> dict:
    """Run every invariant suite on one group and return a JSON-safe report."""
    checks: list[CheckResult] = []
    ball = build_ball(spec, radius, max_vertices=max_vertices)
    engine = ChainEngine(spec)
    words = ball.words

    # 1. word lengths agree with breadth-first distances, basic group laws
    rng = random.Random(seed * 13 + 1)
    law_fail = None
    law_skipped = 0
    for w, d in zip(words, ball.dist):
        if len(w) != d:
            law_fail = spec.label_word(w)
            break
    if law_fail is None:
        for g in _sample(rng, words, samples):
            if spec.multiply(g, spec.invert(g)) != ():
                law_fail = spec.label_word(g)
                break
        for x, y, z in zip(*(_sample(rng, words, samples) for _ in range(3))):
            try:
                if spec.multiply(spec.multiply(x, y), z) != spec.multiply(x, spec.multiply(y, z)):
                    law_fail = " ".join(spec.label_word(w) for w in (x, y, z))
                    break
            except OutOfWindowError:
                law_skipped += 1
    checks.append(
        CheckResult(
            "group-laws",
            law_fail is None,
            {"vertices": len(ball), "witness": law_fail, "skipped": law_skipped},
        )
    )

    # 2. fineness certificate
    report = certify_delta(ball, spec.delta, samples, seed * 13 + 2,
                           exhaustive_radius=min(exhaustive_radius, radius))
    checks.append(CheckResult("delta-certificate", report.passed, report.to_json()))

    # 3. bicombing: geodesy and equivariance
    rng = random.Random(seed * 13 + 3)
    q = engine.q
    bic_fail = None
    for _ in range(samples):
        a, b, g = (words[rng.randrange(len(words))] for _ in range(3))
        try:
            path = q.q_path(a, b)
            if path[0] != a or path[-1] != b or len(path) != distance(spec, a, b) + 1:
                bic_fail = {"kind": "geodesy", "a": spec.label_word(a), "b": spec.label_word(b)}
                break
            moved = tuple(spec.multiply(g, w) for w in path)
            if q.q_path(spec.multiply(g, a), spec.multiply(g, b)) != moved:
                bic_fail = {"kind": "equivariance", "g": spec.label_word(g)}
                break
        except OutOfWindowError:
            continue
    checks.append(CheckResult("bicombing", bic_fail is None, {"witness": bic_fail}))

    # 4. chains: convex combination, base case, support containment
    rng = random.Random(seed * 13 + 4)
    ten = engine.ten_delta
    chain_fail = None
    chain_skipped = 0
    pairs = list(zip(_sample(rng, words, samples), _sample(rng, words, samples)))
    for b, a in pairs:
        try:
            f = engine.f_chain(b, a, store=False)
        except (ExactnessError, OutOfWindowError):
            chain_skipped += 1
            continue
        d = distance(spec, a, b)
        if chains.coefficient_sum(f) != 1 or any(c <= 0 for c in f.values()):
            chain_fail = {"kind": "convexity", "b": spec.label_word(b), "a": spec.label_word(a)}
            break
        if d <= ten and f != {a: Fraction(1)}:
            chain_fail = {"kind": "base-case", "b": spec.label_word(b), "a": spec.label_word(a)}
            break
        if d > ten:
            center = q.q_point(b, a, ten)
            bad = [w for w in f
                   if distance(spec, b, w) != ten or distance(spec, center, w) > spec.delta]
            if bad:
                chain_fail = {"kind": "support", "witness": spec.label_word(bad[0])}
                break
    checks.append(CheckResult("chain-convexity-support", chain_fail is None,
                              {"pairs": len(pairs), "skipped": chain_skipped,
                               "witness": chain_fail}))

    # 5. chain equivariance against the literal recursion
    rng = random.Random(seed * 13 + 5)
    eq_fail = None
    n_eq = max(10, samples // 10)
    for _ in range(n_eq):
        g, b, a = (words[rng.randrange(len(words))] for _ in range(3))
        try:
            lhs = engine.f_chain_literal(spec.multiply(g, b), spec.multiply(g, a))
            rhs = chains.translate(spec, g, engine.f_chain_literal(b, a))
        except (ExactnessError, OutOfWindowError):
            continue
        if lhs != rhs:
            eq_fail = {"g": spec.label_word(g), "b": spec.label_word(b), "a": spec.label_word(a)}
            break
    checks.append(CheckResult("chain-equivariance", eq_fail is None,
                              {"triples": n_eq, "witness": eq_fail}))

    # 6. unit normalization of h
    rng = random.Random(seed * 13 + 6)
    p_probe = 2.0 if p == "auto" else float(p)
    h_fail = None
    for _ in range(max(10, samples // 10)):
        b, a = (words[rng.randrange(len(words))] for _ in range(2))
        try:
            h = engine.h_chain(b, a, p_probe)
        except (ExactnessError, OutOfWindowError):
            continue
        if abs(chains.norm_p(h.coefficients(), p_probe) - 1.0) > 1e-9:
            h_fail = {"b": spec.label_word(b), "a": spec.label_word(a)}
            break
    checks.append(CheckResult("h-normalization", h_fail is None, {"witness": h_fail}))

    # 7. decay fits and exponent selection
    selection = None
    fit_details: dict = {}
    fit_passed = True
    if samples > 0:
        try:
            f_fit = analysis.fit_f_decay(engine, ball, samples, seed * 13 + 7)
            ups = analysis.estimate_upsilon(ball)
            rho_of_p, fits = analysis.rho_fitter(engine, ball, samples, seed * 13 + 7)
            selection = analysis.select_p(ups, rho_of_p)
            fit_details = {
                "lambda": f_fit.base,
                "lambda_envelope_ok": f_fit.envelope_ok(),
                "upsilon": ups,
                "chosen_p": selection.p,
                "rho": selection.rho_used,
                "margin": selection.margin,
            }
            fit_passed = (
                f_fit.base < 1.0
                and f_fit.envelope_ok()
                and selection.rho_used ** selection.p * ups < 0.5
            )
        except (ExactnessError, OutOfWindowError) as exc:
            # the window cannot support the sampled chains; not a violation
            fit_details = {"skipped": str(exc)}
        except (FitError, PSelectionError) as exc:
            fit_passed = False
            fit_details = {"error": str(exc)}
        checks.append(CheckResult("decay-and-p-selection", fit_passed, fit_details))

    # 8. cocycle identity over a small window
    p_run = selection.p if (p == "auto" and selection is not None) else p_probe
    if p_run < 2.0:
        p_run = 2.0
    coc = Cocycle(engine, p_run)
    rng = random.Random(seed * 13 + 8)
    window = build_ball(spec, min(4, radius))
    id_fail = None
    audited = 0
    for _ in range(5):
        g, k = (words[rng.randrange(len(words))] for _ in range(2))
        try:
            rep = coc.verify_identity(g, k, window, audit_fraction=0.05,
                                      seed=seed * 13 + 8)
        except (ExactnessError, OutOfWindowError):
            continue
        audited += rep.audited
        if not rep.residual_zero:
            id_fail = {
                "g": spec.label_word(g),
                "k": spec.label_word(k),
                "gamma": spec.label_word(rep.witnesses[0]),
            }
            break
    checks.append(CheckResult("cocycle-identity", id_fail is None,
                              {"window": len(window), "audited": audited, "witness": id_fail}))

    # 9. disjoint supports and properness counts on deep elements
    rng = random.Random(seed * 13 + 9)
    ten = engine.ten_delta
    prop_fail = None
    tested = 0
    for _ in range(10):
        target = rng.randint(2 * ten, 2 * ten + 6)
        g = _random_deep_word(spec, rng, target)
        if g is None:
            continue
        try:
            count = coc.properness_count(g)
        except (ExactnessError, OutOfWindowError):
            continue
        tested += 1
        d = len(g)
        if count < d - 2 * ten - 1 or count < d - 100 * spec.delta:
            prop_fail = {"g": spec.label_word(g), "count": count}
            break
        if spec.is_tree and spec.delta == 1:
            res = coc.norm(g, audit_samples=10, seed=seed * 13 + 9)
            if res.lower < 2 * (d - 2 * ten - 1):
                prop_fail = {"g": spec.label_word(g), "lower": res.lower}
                break
    checks.append(CheckResult("properness", prop_fail is None,
                              {"tested": tested, "witness": prop_fail}))

    passed = all(c.passed for c in checks)
    return {
        "group": spec.name,
        "radius": radius,
        "delta": spec.delta,
        "p": p_run,
        "seed": seed,
        "samples": samples,
        "passed": passed,
        "checks": [c.to_json() for c in checks],
    }


def _random_deep_word(spec: GroupSpec, rng: random.Random, length: int):
    """A random normal form of the requested length, or None if the spec
    cannot reach it (explicit balls with a small radius).

    Walks distance-increasing edges, since local reducedness does not imply
    geodesy on arbitrary graphs; the endpoint's word is canonical.
    """
    if spec.max_word_length < length:
        return None
    cur: tuple = ()
    for _ in range(length):
        ups = [nb for _, nb in spec.neighbors(cur) if len(nb) == len(cur) + 1]
        if not ups:
            return None
        cur = ups[rng.randrange(len(ups))]
    return cur
