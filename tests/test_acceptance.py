"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Exact statements are checked with rational arithmetic (zero
tolerance); quantitative ones pin the stated thresholds.
"""

import random
import time
from fractions import Fraction

import pytest

import hypaction as H
from hypaction.chains import as_chain
from hypaction.cli import main as cli_main
from hypaction.suite import _random_deep_word


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


# ------------------------------------------------------------------ sweeps


def _pair_sweep(spec, engine, ball):
    """Every ordered pair (b, a) of ball vertices: convexity, base case,
    support containment, all exact."""
    ten = engine.ten_delta
    mul, inv_word = spec._mul, spec._inv_word
    fe = engine._f_point_basepoint
    one = Fraction(1)
    stats = {"pairs": 0, "convex_bad": 0, "base_bad": 0, "support_bad": 0, "deep_pairs": 0}
    words = ball.words
    delta = spec.delta
    for b in words:
        ib = inv_word(b)
        for a in words:
            x = mul(ib, a)
            base = as_chain(fe(x))
            f = {mul(b, w): c for w, c in base.items()}
            stats["pairs"] += 1
            if sum(f.values()) != one or any(c <= 0 for c in f.values()):
                stats["convex_bad"] += 1
            d = len(x)
            if d <= ten:
                if f != {a: one}:
                    stats["base_bad"] += 1
            else:
                stats["deep_pairs"] += 1
                # q[b, a] at distance ten: b times the prefix of x = b^-1 a
                center = mul(b, x[:ten])
                ic = inv_word(center)
                for w in f:
                    if len(mul(ib, w)) != ten or len(mul(ic, w)) > delta:
                        stats["support_bad"] += 1
                        break
    return stats


@pytest.fixture(scope="module")
def sweep_f2(f2, f2_engine, f2_ball6):
    return _pair_sweep(f2, f2_engine, f2_ball6)


@pytest.fixture(scope="module")
def sweep_z23(z23, z23_engine, z23_ball6):
    return _pair_sweep(z23, z23_engine, z23_ball6)


@pytest.fixture(scope="module")
def f2_selection(f2_engine, f2_ball6):
    rho_of_p, fits = H.rho_fitter(f2_engine, f2_ball6, 1500, seed=101)
    sel = H.select_p(5.0, rho_of_p)
    return sel, fits[sel.p]


# ------------------------------------------------------------------ criteria


def test_criterion_1_convex_combination_exactness(sweep_f2, sweep_z23):
    ok = sweep_f2["convex_bad"] == 0 and sweep_z23["convex_bad"] == 0
    _verdict(
        "criterion 1: convex-combination exactness",
        ok,
        f"{sweep_f2['pairs']} free pairs, {sweep_z23['pairs']} product pairs, zero tolerance",
    )


def test_criterion_2_support_containment(sweep_f2, sweep_z23):
    ok = (
        sweep_f2["support_bad"] == 0
        and sweep_z23["support_bad"] == 0
        and sweep_f2["base_bad"] == 0
        and sweep_z23["base_bad"] == 0
    )
    _verdict(
        "criterion 2: support containment and base case",
        ok,
        f"{sweep_f2['deep_pairs'] + sweep_z23['deep_pairs']} pairs beyond ten-delta",
    )


def test_criterion_3_equivariance(f2, f2_engine, f2_ball6, z23, z23_engine, z23_ball6):
    bad = 0
    checked = 0
    for spec, engine, ball in ((f2, f2_engine, f2_ball6), (z23, z23_engine, z23_ball6)):
        rng = random.Random(31)
        words = ball.words
        small = [w for w, d in zip(words, ball.dist) if d <= 2]
        inner = [w for w, d in zip(words, ball.dist) if d <= 5]
        pairs = [(inner[rng.randrange(len(inner))], inner[rng.randrange(len(inner))])
                 for _ in range(25)]
        for g in small:
            for b, a in pairs:
                lhs = engine.f_chain_literal(spec.multiply(g, b), spec.multiply(g, a))
                if lhs != H.translate(spec, g, engine.f_chain_literal(b, a)):
                    bad += 1
                checked += 1
    rng = random.Random(32)
    words = f2_ball6.words
    for _ in range(1000):
        g, b, a = (words[rng.randrange(len(words))] for _ in range(3))
        lhs = f2_engine.f_chain_literal(f2.multiply(g, b), f2.multiply(g, a))
        if lhs != H.translate(f2, g, f2_engine.f_chain_literal(b, a)):
            bad += 1
        checked += 1
    _verdict("criterion 3: equivariance of the chain", bad == 0,
             f"{checked} literal-recursion triples, exact equality")


def test_criterion_4_tree_closed_form(f2, f2_engine):
    rng = random.Random(41)
    bad = 0
    checked = 0
    for _ in range(120):
        d = rng.randint(10, 30)
        a = _random_deep_word(f2, rng, rng.randint(0, 6))
        tail = []
        n = len(f2.generators)
        for _ in range(d):
            options = [x for x in range(n)
                       if len(f2._mul(a + tuple(tail), (x,))) == len(a) + len(tail) + 1]
            tail.append(rng.choice(options))
        b = f2.multiply(a, tuple(tail))
        assert H.distance(f2, a, b) == d
        closed = {H.q_point(f2, a, b, 10): Fraction(1)}
        if f2_engine.f_chain(a, b) != closed:
            bad += 1
        if f2_engine.f_chain_literal(a, b) != closed:
            bad += 1
        checked += 1
    _verdict("criterion 4: tree closed form vs literal recursion", bad == 0,
             f"{checked} geodesic pairs with 10 <= d <= 30")


@pytest.mark.slow
def test_criterion_5_cocycle_identity(f2, f2_engine, f2_ball6, f2_ball10):
    rng = random.Random(51)
    coc = H.Cocycle(f2_engine, 4.0)
    words = f2_ball6.words
    start = time.time()
    bad = 0
    audited = 0
    for _ in range(200):
        g = words[rng.randrange(len(words))]
        k = words[rng.randrange(len(words))]
        rep = coc.verify_identity(g, k, f2_ball10, audit_fraction=0.00004,
                                  seed=rng.randrange(1 << 30))
        audited += rep.audited
        if not rep.residual_zero:
            bad += 1
    elapsed = time.time() - start
    _verdict(
        "criterion 5: cocycle identity, zero residual",
        bad == 0 and elapsed < 300,
        f"200 pairs x {len(f2_ball10)} window vertices, {audited} literal audits, "
        f"{elapsed:.0f}s",
    )


def test_criterion_6_disjoint_supports(f2, f2_engine, z23, z23_engine):
    coc = H.Cocycle(f2_engine, 4.0)
    bad = 0
    checked = 0
    deep = [f2.parse(f"a^{k}") for k in range(20, 26)]
    deep += [f2.parse("ab" * k) for k in range(10, 13)]
    deep += [f2.parse("aB" * k) for k in range(10, 13)]
    rng = random.Random(61)
    deep += [_random_deep_word(f2, rng, rng.randint(20, 25)) for _ in range(40)]
    ten = f2_engine.ten_delta
    for g in deep:
        for gamma in H.q_path(f2, g, ()):
            if len(gamma) >= ten and len(f2._mul(f2._inv_word(gamma), g)) >= ten:
                if not coc.disjoint_support_check(g, gamma):
                    bad += 1
                checked += 1
    zcoc = H.Cocycle(z23_engine, 4.0)
    rng = random.Random(62)
    done = 0
    while done < 1000:
        g = _random_deep_word(z23, rng, rng.randint(20, 24))
        path = H.q_path(z23, g, ())
        admissible = [v for v in path
                      if len(v) >= ten and len(z23._mul(z23._inv_word(v), g)) >= ten]
        gamma = admissible[rng.randrange(len(admissible))]
        if not zcoc.disjoint_support_check(g, gamma):
            bad += 1
        done += 1
        checked += 1
    _verdict("criterion 6: disjoint supports along geodesics", bad == 0,
             f"{checked} admissible (g, gamma) pairs")


def test_criterion_7_properness_inequality(f2, f2_engine, f2_selection):
    sel, _ = f2_selection
    coc = H.Cocycle(f2_engine, sel.p)
    rng = random.Random(71)
    gs = [f2.parse(f"a^{k}") for k in range(1, 31)]
    gs += [_random_deep_word(f2, rng, rng.randint(20, 30)) for _ in range(50)]
    # the window is counted in closed form; the rate counts the sampled
    # window vertices that the audits evaluate through the generic path
    generic = coc.diff_norm_pow
    audited = 0

    def counted(g, gamma):
        nonlocal audited
        audited += 1
        return generic(g, gamma)

    coc.diff_norm_pow = counted
    bad = 0
    start = time.time()
    for g in gs:
        res = coc.norm(g, audit_samples=10, seed=rng.randrange(1 << 30))
        d = res.d_g_e
        lower = int(res.lower)
        if lower != res.lower or lower < 2 * (d - 21) or lower < d - 100:
            bad += 1
    elapsed = time.time() - start
    rate = audited / max(elapsed, 1e-9)
    _verdict(
        "criterion 7: properness inequality (exact integers)",
        bad == 0 and elapsed < 600 and rate >= 1e4,
        f"{len(gs)} elements, {audited} audited window evaluations, {rate:,.0f}/s",
    )


def test_criterion_8_decay_fits(z23, z23_engine):
    ball12 = H.build_ball(z23, 12)
    f_fit = H.fit_f_decay(z23_engine, ball12, 10_000, seed=81)
    ups = H.estimate_upsilon(ball12)
    rho_of_p, fits = H.rho_fitter(z23_engine, ball12, 10_000, seed=82)
    sel = H.select_p(ups, rho_of_p)
    rho_ok = all(fit.base < 1.0 and fit.envelope_ok() for fit in fits.values())
    ok = (
        f_fit.base < 1.0
        and f_fit.envelope_ok()
        and rho_ok
        and sel.rho_used ** sel.p * ups < 0.5
    )
    _verdict(
        "criterion 8: decay fits and exponent selection",
        ok,
        f"lambda={f_fit.base:.3f}, upsilon={ups:.3f}, p={sel.p}, "
        f"rho^p*upsilon={sel.rho_used ** sel.p * ups:.4f}",
    )


def test_criterion_9_tail_bound_soundness(f2, f2_engine, f2_ball10, f2_selection):
    sel, fit = f2_selection
    coc = H.Cocycle(f2_engine, sel.p)
    rng = random.Random(91)
    bad = 0
    for _ in range(20):
        g = _random_deep_word(f2, rng, rng.randint(1, 6))
        wres = coc.norm(g, mode="window", window_ball=f2_ball10, fit=fit, upsilon=5.0)
        exact = coc.norm(g, mode="exact").lower
        if not (wres.lower <= exact + 1e-9 and exact <= wres.lower + wres.tail_bound):
            bad += 1
    _verdict("criterion 9: tail bound brackets the exact norm", bad == 0,
             f"20 elements, window radius {f2_ball10.radius}, p={sel.p}")


def test_criterion_10_determinism(tmp_path):
    args = ["verify", "--group", "free:2", "--radius", "5",
            "--samples", "200", "--seed", "17"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = cli_main(args + ["--out", str(out1)])
    code2 = cli_main(args + ["--out", str(out2)])
    ok = code1 == 0 and code2 == 0 and out1.read_bytes() == out2.read_bytes()
    _verdict("criterion 10: byte-identical verify reports", ok,
             f"{len(out1.read_bytes())} bytes")
