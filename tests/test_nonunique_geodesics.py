"""The integers with generators {+-1, +-2}, loaded as an explicit ball.

This Cayley graph has genuinely non-unique geodesics (1+2 and 2+1 both
reach 3), so unlike the built-in families its flowers project to distinct
points and the averaged chains spread mass: f(e, 40) is (1/2, 1/2) on
{19, 20}. It is the main exercise of the rational-averaging machinery,
the non-singleton difference norms, and the identity check at every
support point of a spread chain.
"""

import random
from fractions import Fraction

import pytest

import hypaction as H
from hypaction import analysis, chains
from hypaction.analysis import decay_triples, fit_envelope
from hypaction.errors import ExactnessError, OutOfWindowError
from hypaction.suite import _sample, run_suite

from decay_reference import translated_sample, translated_triples
from line2 import endpoint, line2_ball_json


@pytest.fixture(scope="module")
def line2():
    return H.ball_from_json(line2_ball_json(22), delta=1)


@pytest.fixture(scope="module")
def line2_engine(line2):
    return H.ChainEngine(line2)


@pytest.fixture(scope="module")
def by_endpoint(line2):
    return {endpoint(w): w for w in H.build_ball(line2, 21).words}


def test_metric_is_ceil_half(line2, by_endpoint):
    for n, w in by_endpoint.items():
        assert len(w) == (abs(n) + 1) // 2


def test_delta_one_certifies(line2):
    ball = H.build_ball(line2, 8)
    report = H.certify_delta(ball, 800, seed=3, exhaustive_radius=4)
    assert report.passed
    assert report.max_deviation == 1  # genuinely not 0-fine


def test_flower_spreads(line2, line2_engine, by_endpoint):
    fl = line2_engine.flower((), by_endpoint[40])
    assert sorted(endpoint(m) for m in fl) == [39, 40]


def test_f_spreads_mass(line2, line2_engine, by_endpoint):
    half = Fraction(1, 2)
    f = line2_engine.f_chain((), by_endpoint[40])
    assert {endpoint(w): c for w, c in f.items()} == {19: half, 20: half}
    assert chains.coefficient_sum(f) == 1
    f39 = line2_engine.f_chain((), by_endpoint[39])
    assert {endpoint(w): c for w, c in f39.items()} == {19: half, 20: half}
    fneg = line2_engine.f_chain((), by_endpoint[-40])
    assert {endpoint(w): c for w, c in fneg.items()} == {-19: half, -20: half}


def test_literal_matches_engine(line2, line2_engine, by_endpoint):
    for n in (40, 39, -40, 31, 20, 7):
        w = by_endpoint[n]
        assert line2_engine.f_chain_literal((), w) == line2_engine.f_chain((), w)


def test_convexity_and_support(line2, line2_engine, by_endpoint):
    rng = random.Random(5)
    q = line2_engine.q
    ten = line2_engine.ten_delta
    pairs = 0
    for _ in range(200):
        nb = rng.randint(-10, 10)
        na = rng.randint(-10, 10)
        b, a = by_endpoint[nb], by_endpoint[na]
        try:
            f = line2_engine.f_chain(b, a)
        except ExactnessError:
            continue
        pairs += 1
        assert chains.coefficient_sum(f) == 1
        assert all(c > 0 for c in f.values())
        d = H.distance(line2, a, b)
        if d <= ten:
            assert f == {a: Fraction(1)}
        else:
            center = q.q_point(b, a, ten)
            for w in f:
                assert H.distance(line2, b, w) == ten
                assert H.distance(line2, center, w) <= 1
    assert pairs > 100


def test_equivariance_literal(line2, line2_engine, by_endpoint):
    rng = random.Random(6)
    for _ in range(60):
        g = by_endpoint[rng.randint(-3, 3)]
        b = by_endpoint[rng.randint(-6, 6)]
        a = by_endpoint[rng.randint(-6, 6)]
        lhs = line2_engine.f_chain_literal(line2.multiply(g, b), line2.multiply(g, a))
        rhs = H.translate(line2, g, line2_engine.f_chain_literal(b, a))
        assert lhs == rhs


def test_h_normalization_multi_entry(line2, line2_engine, by_endpoint):
    for p in (2.0, 3.0, 4.5):
        f = line2_engine.f_chain((), by_endpoint[40])
        assert len(f) == 2
        assert abs(H.norm_p(chains.normalized(f, p), p) - 1.0) < 1e-12
        # two equal halves: norm is (2 (1/2)^p)^(1/p)
        assert H.norm_p(f, p) == pytest.approx((2 * 0.5 ** p) ** (1 / p))


def test_cocycle_identity_grouped(line2, line2_engine, by_endpoint):
    coc = H.Cocycle(line2_engine, 3.0)
    window = H.build_ball(line2, 2)
    rng = random.Random(7)
    for _ in range(10):
        g = by_endpoint[rng.randint(-4, 4)]
        k = by_endpoint[rng.randint(-4, 4)]
        rep = coc.verify_identity(g, k, window, audit_fraction=0.3, seed=9)
        assert rep.residual_zero
        assert rep.audited > 0


def test_disjoint_supports_and_properness(line2, line2_engine, by_endpoint):
    coc = H.Cocycle(line2_engine, 3.0)
    g = by_endpoint[40]
    gamma = by_endpoint[20]
    assert coc.disjoint_support_check(g, gamma)
    assert coc.properness_count(g) == 1  # the single admissible midpoint at d = 20


def test_b_at_spread_difference(line2, line2_engine, by_endpoint):
    coc = H.Cocycle(line2_engine, 3.0)
    g = by_endpoint[4]
    gamma = by_endpoint[-18]
    val = coc.diff_norm_pow(g, gamma)
    dense = coc.b_at(g, gamma)
    assert val == pytest.approx(sum(abs(c) ** 3.0 for c in dense.values()))


def test_transient_sweep_memoizes_spread_averaging_nodes():
    # an identity sweep keeps only the averaging nodes whose flower spreads
    # mass, which every key above them shares
    spec = H.ball_from_json(line2_ball_json(60), delta=1)
    engine = H.ChainEngine(spec)
    coc = H.Cocycle(engine, 3.0)
    by_end = {endpoint(w): w for w in H.build_ball(spec, 40).words}
    window = H.build_ball(spec, 30)
    for ng, nk in ((17, -9), (-23, 14)):
        assert coc.verify_identity(by_end[ng], by_end[nk], window).residual_zero
    memo = engine.cache.memo
    assert memo
    ten = engine.ten_delta
    for key, chain in memo.items():
        assert len(key) % ten == 0
        assert len(chain) >= 2
        assert chain == engine.f_chain_literal((), key)


def test_memo_holds_the_spread_nodes_of_a_request():
    # the requested key is memoized like any other node: exactly the
    # averaging nodes whose chain spreads, whoever asks
    spec = H.ball_from_json(line2_ball_json(60), delta=1)
    engine = H.ChainEngine(spec)
    w80 = {endpoint(w): w for w in H.build_ball(spec, 40).words}[80]
    assert len(engine.f_chain((), w80)) == 2
    memo = engine.cache.memo
    assert {endpoint(key) for key in memo} == {39, 40, 59, 60, 80}
    for key, chain in memo.items():
        assert chain == engine.f_chain_literal((), key)


def test_windowed_norm_and_fits(line2, line2_engine):
    ball8 = H.build_ball(line2, 8)
    ups = H.estimate_upsilon(ball8)
    assert ups == 5.0  # 4r + 1 vertices within radius r, maximal at r = 1
    rho_of_p, fits = H.rho_fitter(line2_engine, ball8, 400, seed=11)
    sel = H.select_p(ups, rho_of_p)
    assert sel.rho_used ** sel.p * ups < 0.5
    coc = H.Cocycle(line2_engine, sel.p)
    g = H.build_ball(line2, 2).words[3]
    res = coc.norm(g, mode="window", window_ball=ball8, fit=fits[sel.p], upsilon=ups)
    assert res.lower > 0
    assert res.tail_bound > 0
    assert not res.exact


def test_diff_pow_normalizes_each_spread_chain_once():
    # a cocycle keeps h = f / ||f||_p of each spread chain it meets; its
    # difference powers over the windows equal the uncached ones bit for bit
    spec = H.ball_from_json(line2_ball_json(120), delta=1)
    fit_ball = H.build_ball(spec, 8)
    ups = H.estimate_upsilon(fit_ball)
    rho_of_p, _ = H.rho_fitter(H.ChainEngine(spec), fit_ball, 400, seed=11)
    selected = H.select_p(ups, rho_of_p).p
    assert selected != 2.0
    window = H.build_ball(spec, 30)
    by_end = {endpoint(w): w for w in H.build_ball(spec, 14).words}
    for p in (2.0, selected):
        engine = H.ChainEngine(spec)
        coc = H.Cocycle(engine, p)
        fpoint = engine._f_point_basepoint
        for n in (1, 13, -24, 26):
            for u1, u2 in zip(window.walk(by_end[n]), window.walk(())):
                f1, f2 = fpoint(u1), fpoint(u2)
                expected = chains.normalized_diff_pow(
                    chains.as_chain(f1), chains.as_chain(f2), p)
                assert coc._diff_pow(f1, f2) == expected
        assert 0 < len(coc._units) <= len(engine.cache.memo)


def test_rho_fitter_matches_dense_norms():
    # spread chains: the fitted samples agree with ||h(b,a) - h(b,a')||_p
    # computed from the dense h coefficients, up to rounding
    spec = H.ball_from_json(line2_ball_json(60), delta=1)
    engine = H.ChainEngine(spec)
    ball = H.build_ball(spec, 20)
    rho_of_p, fits = H.rho_fitter(engine, ball, 200, seed=12)
    for p in (3.0, 4.5):
        rho_of_p(p)
        samples = []
        for b, a, a2 in decay_triples(ball, 200, 12):
            try:
                h1 = chains.normalized(engine.f_chain(b, a), p)
                h2 = chains.normalized(engine.f_chain(b, a2), p)
            except ExactnessError:
                continue  # beyond the radius-60 ball; the fit skips these too
            norm = sum(abs(h1.get(w, 0.0) - h2.get(w, 0.0)) ** p for w in set(h1) | set(h2))
            samples.append((float(H.gromov_product(spec, b, a, a2)), norm ** (1 / p)))
        assert [x for x, _ in fits[p].samples] == [x for x, _ in samples]
        assert [v for _, v in fits[p].samples] == pytest.approx(
            [v for _, v in samples], rel=1e-12, abs=1e-15)
        assert any(0 < v < 2 ** (1 / p) - 1e-9 for _, v in samples)  # spread differences


def test_rho_fitter_equals_fits_from_exact_chains():
    # the fitter evaluates each triple once, at the identity, converts each
    # chain to floats once and fits each grid p on its distinct samples;
    # fitting the translated Fraction chains at each p, and refitting each
    # fit's own sample list, give equal fits on every grid p up to p*
    line2 = H.ball_from_json(line2_ball_json(60), delta=1)
    for spec, radius in [(line2, 20), (H.spec_from_descriptor("free:2"), 6),
                         (H.spec_from_descriptor("free:2", delta=2), 6),
                         (H.spec_from_descriptor("zm:2,3"), 8)]:
        engine = H.ChainEngine(spec)
        ball = H.build_ball(spec, radius)
        rho_of_p, fits = H.rho_fitter(engine, ball, 200, seed=12)
        sel = H.select_p(H.estimate_upsilon(ball), rho_of_p)
        triples = translated_triples(engine, ball, 200, 12)
        if spec is line2:  # spread chains with 1/2 weights
            assert any(len(f) > 1 for t in triples for f in t[1:])
        assert sorted(fits) == [c["p"] for c in sel.candidates]
        for p, fit in fits.items():
            samples = [(x, chains.normalized_diff_pow(f1, f2, p) ** (1.0 / p))
                       for x, f1, f2 in triples]
            assert fit == fit_envelope(samples) == fit_envelope(fit.samples)


def test_fits_skip_triples_outside_the_ball():
    # sampled to radius 8 in a radius-10 ball, a perturbation or a Gromov
    # product can leave the ball; those triples are dropped one by one
    # instead of aborting the fit
    spec = H.ball_from_json(line2_ball_json(10), delta=1)
    ball = H.build_ball(spec, 8)
    engine = H.ChainEngine(spec)
    triples = decay_triples(ball, 300, 1)
    assert len(triples) < 300  # a perturbation left the ball
    rho_of_p, fits = H.rho_fitter(engine, ball, 300, seed=1)
    sel = H.select_p(H.estimate_upsilon(ball), rho_of_p)
    used = fits[sel.p].n_samples
    assert 0 < used < len(triples)
    f_fit = H.fit_f_decay(engine, ball, 300, seed=1)
    assert f_fit.n_samples == used
    assert f_fit.base < 1.0 and f_fit.envelope_ok()


def test_identity_evaluation_keeps_the_triples_that_f_chain_keeps(monkeypatch):
    # each triple is fitted alone: the fitter's evaluation at the identity
    # keeps it exactly where f_chain and gromov_product, evaluated at b,
    # support it, and then gives the same product and the translated chains
    spec = H.ball_from_json(line2_ball_json(10), delta=1)
    ball = H.build_ball(spec, 8)
    engine = H.ChainEngine(spec)
    triples, kept = decay_triples(ball, 300, 1), 0
    for b, a, a2 in triples:
        monkeypatch.setattr(analysis, "decay_triples", lambda *args: [(b, a, a2)])
        got = analysis._supported_triples(engine, ball, 1, 0)
        want = translated_sample(engine, b, a, a2)
        assert len(got) == (want is not None)
        if got:
            ((x, f1, f2),) = got
            assert (x, chains.translate(spec, b, chains.as_chain(f1)),
                    chains.translate(spec, b, chains.as_chain(f2))) == want
            kept += 1
    assert 0 < kept < len(triples)


@pytest.fixture(scope="module")
def small_ball_report():
    spec = H.ball_from_json(line2_ball_json(10), delta=1)
    return run_suite(spec, radius=8, samples=300)


def test_suite_reports_skips_on_a_small_ball(small_ball_report):
    spec = H.ball_from_json(line2_ball_json(10), delta=1)
    report = small_ball_report
    checks = {c["name"]: c for c in report["checks"]}
    # the decay fit runs on the triples the ball supports instead of being skipped
    decay = checks["decay-and-p-selection"]
    assert decay["passed"] and "skipped" not in decay["details"]
    assert decay["details"]["chosen_p"] >= 2.0
    assert report["p"] == decay["details"]["chosen_p"]
    # chain pairs the ball cannot support are counted, not hidden
    details = checks["chain-convexity-support"]["details"]
    assert details["pairs"] == 300
    assert details["evaluated"] > 0 and sum(details["skipped"].values()) > 0
    assert not checks["chain-convexity-support"]["inconclusive"]
    ball = H.build_ball(spec, 8)
    rng = random.Random(0 * 13 + 4)
    pairs = list(zip(_sample(rng, ball.words, 300), _sample(rng, ball.words, 300)))
    engine = H.ChainEngine(spec)
    evaluated, skipped = 0, {}
    for b, a in pairs:
        try:
            engine.f_chain(b, a)
        except (ExactnessError, OutOfWindowError) as exc:
            skipped[type(exc).__name__] = skipped.get(type(exc).__name__, 0) + 1
            continue
        evaluated += 1
    assert (details["evaluated"], details["skipped"]) == (evaluated, skipped)
    assert evaluated + sum(skipped.values()) == 300


def test_suite_group_laws_count_skips_by_type(small_ball_report):
    # products of two radius-8 words can leave the radius-10 ball; those
    # associativity cases are skipped by type, the rest evaluated
    laws = {c["name"]: c for c in small_ball_report["checks"]}["group-laws"]
    details = laws["details"]
    assert laws["passed"] and details["witness"] is None
    assert details["evaluated"] > 300 and details["skipped"]["OutOfWindowError"] > 0
    assert details["evaluated"] + details["skipped"]["OutOfWindowError"] == 2 * 300


def test_suite_chain_check_inconclusive_when_every_pair_is_skipped():
    # on a radius-4 ball both sampled pairs reach past the ball: the chain
    # check evaluated nothing, so it must not report a pass
    spec = H.ball_from_json(line2_ball_json(4), delta=1)
    report = run_suite(spec, radius=4, samples=2, seed=1, exhaustive_radius=0)
    check = {c["name"]: c for c in report["checks"]}["chain-convexity-support"]
    assert check["details"]["pairs"] == 2
    assert check["details"]["evaluated"] == 0
    assert sum(check["details"]["skipped"].values()) == 2
    assert check["inconclusive"] and not check["passed"]
    assert "chain-convexity-support" in report["inconclusive"]
    assert report["passed"] is False


def test_suite_runs_on_a_ball_smaller_than_delta():
    # B(e, delta) does not fit in the ball, but no flower is ever needed:
    # the engine is built and every chain check is skipped, not crashed
    spec = H.ball_from_json(line2_ball_json(1), delta=2)
    with pytest.raises(ExactnessError):
        H.ChainEngine(spec).f_chain((), spec.parse("p"))
    report = run_suite(spec, radius=1, samples=20, seed=1, exhaustive_radius=0)
    check = {c["name"]: c for c in report["checks"]}["chain-convexity-support"]
    assert check["inconclusive"] and check["details"]["evaluated"] == 0


def test_suite_properness_inconclusive_on_a_small_ball(small_ball_report):
    # every deep word is longer than the radius-10 ball allows: nothing is
    # evaluated, so the check neither passes nor fails
    checks = {c["name"]: c for c in small_ball_report["checks"]}
    prop = checks["properness"]
    assert prop["inconclusive"] and not prop["passed"]
    assert prop["details"]["evaluated"] == 0
    assert prop["details"]["skipped"] == {"OutOfWindowError": 10}
    # nor does any identity pair leave its audits the margin they need,
    # whichever vertices the audit draws would pick
    assert small_ball_report["inconclusive"] == ["cocycle-identity", "properness"]
    assert small_ball_report["passed"] is False
    identity = checks["cocycle-identity"]
    assert identity["inconclusive"] and not identity["passed"]
    assert identity["details"]["evaluated"] == identity["details"]["audited"] == 0
    assert identity["details"]["skipped"] == {"ExactnessError": 5}


def test_windowed_norm_margin_refusal(line2, line2_engine, by_endpoint):
    coc = H.Cocycle(line2_engine, 3.0)
    ball12 = H.build_ball(line2, 12)

    class AnyFit:
        base = 0.3
        constant = 2.0

    with pytest.raises(ExactnessError):
        coc.norm(by_endpoint[40], mode="window", window_ball=ball12,
                 fit=AnyFit(), upsilon=5.0)


def test_exact_mode_unavailable(line2, line2_engine, by_endpoint):
    coc = H.Cocycle(line2_engine, 3.0)
    with pytest.raises(ExactnessError):
        coc.norm(by_endpoint[6], mode="exact")


def test_cli_verify_on_line2(tmp_path):
    import json

    from hypaction.cli import main

    path = tmp_path / "line2.json"
    path.write_text(json.dumps(line2_ball_json(22)))
    out = tmp_path / "report.json"
    code = main(["verify", "--group", f"ball:{path}", "--radius", "4",
                 "--samples", "150", "--seed", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True


@pytest.mark.parametrize("radius", [3, 4])
def test_cli_verify_on_a_ball_too_small_for_the_exhaustive_sweep(tmp_path, radius):
    # the default exhaustive fineness sweep (radius 2) multiplies out words
    # of length 6; a ball of radius 3 or 4 is swept at radius 1 instead
    import json

    from hypaction.cli import main

    path = tmp_path / "line2.json"
    path.write_text(json.dumps(line2_ball_json(radius)))
    out = tmp_path / "report.json"
    code = main(["verify", "--group", f"ball:{path}", "--radius", str(radius),
                 "--out", str(out)])
    report = json.loads(out.read_text())
    cert = {c["name"]: c for c in report["checks"]}["delta-certificate"]
    assert cert["passed"] and cert["details"]["exhaustive_radius"] == 1
    assert code == (0 if report["passed"] else 3)
