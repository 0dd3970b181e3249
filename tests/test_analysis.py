"""Growth constants, decay envelopes, exponent selection, tail bounds."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hypaction as H
from hypaction.analysis import decay_triples, fit_envelope, fit_p
from hypaction.chains import norm_1, normalized, sub
from hypaction.errors import FitError, OutOfWindowError, PSelectionError, UnderdeterminedFitError

from decay_reference import translated_triples
from line2 import line2_ball_json


# ---------------------------------------------------------------- upsilon


def test_upsilon_free_rank2(f2_ball6):
    assert H.estimate_upsilon(f2_ball6) == 5.0


def test_upsilon_rank1():
    ball = H.build_ball(H.FreeGroupSpec(1), 5)
    assert H.estimate_upsilon(ball) == 3.0


def test_upsilon_reingested_ball(f2):
    spec = H.ball_from_json(H.ball_to_json(f2, 4))
    assert H.estimate_upsilon(H.build_ball(spec, 4)) == 5.0


def test_upsilon_dominates_all_layers(z23_ball8):
    ups = H.estimate_upsilon(z23_ball8)
    total = 0
    for r, size in enumerate(z23_ball8.layer_sizes()):
        total += size
        if r >= 1:
            assert total <= ups ** r + 1e-9


@pytest.mark.parametrize("family, unit_ball", [
    ("free:2", 5), ("zm:2,3", 4), ("zm:2,2,2", 4), ("line2", 5),
])
@pytest.mark.parametrize("radius", [0, 1, 8])
def test_upsilon_is_the_unit_ball_size(family, unit_ball, radius):
    # B(e, r + s) lies in B(e, r) B(e, s), so #B(e, 1) bounds every radius
    if family == "line2":
        spec = H.ball_from_json(line2_ball_json(10), delta=1)
    else:
        spec = H.spec_from_descriptor(family)
    ups = H.estimate_upsilon(H.build_ball(spec, radius))
    assert ups == unit_ball
    sizes = H.build_ball(spec, 8).layer_sizes()
    assert all(sum(sizes[: r + 1]) <= ups ** r for r in range(1, 9))


def test_upsilon_undetermined_by_a_ball_file_of_radius_zero():
    spec = H.ball_from_json(line2_ball_json(0), delta=1)
    with pytest.raises(OutOfWindowError):
        H.estimate_upsilon(H.build_ball(spec, 0))


# ---------------------------------------------------------------- envelope fits


def test_envelope_flat_then_cutoff():
    # plateau of height 2 up to x = 9, zero beyond: the tree-like shape
    samples = [(float(x), 2.0 if x <= 9 else 0.0) for x in range(15)]
    fit = fit_envelope(samples)
    assert fit.base < 1.0
    assert fit.constant <= 32.0 * 2.0 * 1.01
    assert fit.envelope_ok()


def test_envelope_zero_samples():
    fit = fit_envelope([(0.0, 0.0), (3.0, 0.0)])
    assert fit.constant == 0.0
    assert fit.n_positive == 0
    assert fit.envelope_ok()


def test_envelope_underdetermined():
    # one Gromov product, or none: the error names how many samples there were
    for samples in ([(2.0, 1.0), (2.0, 0.5)], []):
        with pytest.raises(UnderdeterminedFitError) as info:
            fit_envelope(samples)
        assert info.value.n_samples == len(samples)
        assert f"{len(samples)} supported triples" in str(info.value)


def test_envelope_genuine_decay():
    rng = random.Random(5)
    samples = [(x / 2.0, 0.8 ** (x / 2.0) * rng.uniform(0.2, 1.0)) for x in range(40)]
    fit = fit_envelope(samples)
    assert fit.base < 1.0
    assert fit.envelope_ok()
    assert all(v <= fit.constant * fit.base ** x for x, v in samples)


def test_envelope_rejects_a_negative_gromov_product():
    # a Gromov product is never negative; the floor (v / cap)^(1/x) of the
    # base is defined for x > 0 only, and x = 0 never binds
    with pytest.raises(FitError):
        fit_envelope([(-1.0, 1.0), (0.0, 1.0), (3.0, 0.5)])


def _fit_key(fit):
    return fit.constant, fit.base, fit.n_samples, fit.n_positive


def scan_fit(samples):
    """(constant, base, n_samples, n_positive) of the envelope, by trying
    every grid base in order over every positive sample, in the given order;
    a reference for the closed form in fit_envelope."""
    positive = [(x, v) for x, v in samples if v > 0]
    if not positive:
        return 0.0, 0.5, len(samples), 0

    def dominating(lam):
        try:
            return max(v * lam ** (-x) for x, v in positive)
        except OverflowError:  # beyond every float, and so beyond the cap
            return math.inf

    cap = 32.0 * max(v for _, v in positive)
    grid = [i / 200.0 for i in range(1, 200)]
    base = next((lam for lam in grid if dominating(lam) <= cap), grid[-1])
    return dominating(base) * (1.0 + 1e-9), base, len(samples), len(positive)


@st.composite
def decay_samples(draw):
    """Half-integer products in [0, 60] with values r^x * u >= 0, zeros
    included; r spreads the answer over the grid."""
    r = draw(st.floats(0.01, 1.0))
    scale = draw(st.floats(1e-3, 1e3))
    xs = draw(st.lists(st.integers(0, 120), min_size=2, max_size=30))
    us = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 1.0),
                       min_size=len(xs), max_size=len(xs)))
    return [(k / 2, scale * r ** (k / 2) * u) for k, u in zip(xs, us)]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(decay_samples())
@example([(0.0, 2.0), (5.0, 0.0), (9.5, 0.0)])  # the first grid base, 0.005
@example([(0.0, 1.0), (200.0, 1.0)])  # 0.005^-200 is beyond every float
@example([(0.0, 1.0), (2000.0, 1.0)])  # no grid base passes: the last, 0.995
@example([(0.0, 0.0), (1.0, 0.0)])  # no positive value
@example([(0.0, 2.0), (2.5, 2.0), (3.0, 0.0)])  # step at X = 2.5: (1/32)^(1/X) = 0.25
@example([(0.0, 2.0), (5.0, 2.0), (5.5, 0.0)])  # step at X = 5: (1/32)^(1/X) = 0.5
def test_envelope_closed_form_equals_the_scan(samples):
    if len({x for x, _ in samples}) < 2:
        with pytest.raises(FitError):
            fit_envelope(samples)
        return
    assert _fit_key(fit_envelope(samples)) == scan_fit(samples)


@pytest.mark.parametrize("spec_name", ["f2", "z23"])
def test_envelope_ignores_order_and_repeats(spec_name, request):
    engine = request.getfixturevalue(f"{spec_name}_engine")
    ball = H.build_ball(engine.spec, 6)
    rho_of_p, fits = H.rho_fitter(engine, ball, 300, seed=8)
    rho_of_p(4.0)
    samples = fits[4.0].samples
    assert len(set(samples)) < len(samples)  # the sampled values repeat
    copy = samples * 2
    random.Random(9).shuffle(copy)
    once, twice = fit_envelope(samples), fit_envelope(copy)
    assert _fit_key(twice) == (once.constant, once.base, 2 * once.n_samples, 2 * once.n_positive)
    assert _fit_key(twice) == scan_fit(copy)


def test_fit_f_decay_free(f2_engine, f2_ball6):
    fit = H.fit_f_decay(f2_engine, f2_ball6, 1500, seed=41)
    assert fit.base < 1.0
    assert fit.envelope_ok()
    # norms vanish once the geodesics agree for ten steps
    assert all(v == 0.0 for x, v in fit.samples if x >= 10 + 1)


def test_fit_f_decay_product(z23_engine, z23_ball8):
    fit = H.fit_f_decay(z23_engine, z23_ball8, 1500, seed=42)
    assert fit.base < 1.0
    assert fit.envelope_ok()
    assert fit.n_positive > 0


def exact_l1_fit(engine, ball, sample_count, seed):
    """The envelope of ||f(b,a) - f(b,a')||_1 summed exactly in Fractions over
    the translated chains and then converted to float: a reference for lambda
    as the fit at p = 1."""
    return fit_envelope([(x, float(norm_1(sub(f1, f2))))
                         for x, f1, f2 in translated_triples(engine, ball, sample_count, seed)])


@pytest.mark.parametrize("family, radius", [("free:2", 6), ("zm:2,3", 8), ("line2", 20)])
def test_lambda_is_the_rho_fit_at_p_1(family, radius):
    if family == "line2":
        spec = H.ball_from_json(line2_ball_json(60), delta=1)
    else:
        spec = H.spec_from_descriptor(family)
    engine, ball = H.ChainEngine(spec), H.build_ball(spec, radius)
    fit = H.fit_f_decay(engine, ball, 1500, seed=46)
    assert fit == exact_l1_fit(engine, ball, 1500, seed=46)
    assert fit.n_positive > 0
    if family == "line2":  # chains spread, so some difference lies strictly inside (0, 2)
        assert any(0 < v < 2 for _, v in fit.samples)


def test_fit_h_decay_trivial_bound(z23_engine, z23_ball8):
    rho_of_p, fits = H.rho_fitter(z23_engine, z23_ball8, 800, seed=43)
    for p in (2.0, 4.0):
        rho_of_p(p)
        fit = fits[p]
        assert fit.base < 1.0
        assert fit.envelope_ok()
        # two unit vectors differ by at most 2 in any lp norm
        assert all(v <= 2.0 + 1e-9 for _, v in fit.samples)


def _dense_h_diff_norm(engine, b, a, a2, p):
    """||h(b,a) - h(b,a')||_p from the dense coefficients of both h chains."""
    h1 = normalized(engine.f_chain(b, a), p)
    h2 = normalized(engine.f_chain(b, a2), p)
    support = set(h1) | set(h2)
    return sum(abs(h1.get(w, 0.0) - h2.get(w, 0.0)) ** p for w in support) ** (1 / p)


def test_rho_fitter_consistent(z23_engine, z23_ball8):
    rho_of_p, fits = H.rho_fitter(z23_engine, z23_ball8, 600, seed=44)
    r1 = rho_of_p(4.0)
    assert rho_of_p(4.0) == r1
    # the same triples' norms, computed densely from both h chains, give the same fit
    samples = [
        (float(H.gromov_product(z23_engine.spec, b, a, a2)),
         _dense_h_diff_norm(z23_engine, b, a, a2, 4.0))
        for b, a, a2 in decay_triples(z23_ball8, 600, 44)
    ]
    direct = fit_envelope(samples)
    assert fits[4.0].samples == direct.samples
    assert fits[4.0].base == direct.base
    assert fits[4.0].constant == direct.constant


# ---------------------------------------------------------------- p selection


def test_select_p_grid_example():
    sel = H.select_p(5.0, lambda p: 0.5)
    assert sel.p == 4.4
    assert sel.rho_used == 0.5
    assert 0.5 ** sel.p * 5.0 < 0.25
    assert sel.margin == pytest.approx(0.5 - 0.5 ** 4.4 * 5.0)


def test_select_p_degenerate_rho():
    sel = H.select_p(3.0, lambda p: 0.0)
    assert sel.p == 2.0
    assert sel.margin == 0.5


def test_select_p_failure():
    with pytest.raises(PSelectionError):
        H.select_p(5.0, lambda p: 0.999)


def test_select_p_always_summable(z23_engine, z23_ball8):
    ups = H.estimate_upsilon(z23_ball8)
    rho_of_p, _ = H.rho_fitter(z23_engine, z23_ball8, 600, seed=45)
    sel = H.select_p(ups, rho_of_p)
    assert sel.p >= 2.0
    assert sel.rho_used ** sel.p * ups < 0.5
    payload = sel.to_json()
    assert payload["chosen_p"] == sel.p
    assert payload["candidates"][-1]["p"] == sel.p


def test_fit_p_selects_from_at_least_200_triples(z23, z23_ball6):
    ups = H.estimate_upsilon(z23_ball6)
    rho_of_p, fits = H.rho_fitter(H.ChainEngine(z23), z23_ball6, 200, seed=3)
    sel = H.select_p(ups, rho_of_p)
    # 50 samples asked, 200 triples drawn: the fit is the one made from 200
    p, fit, upsilon, selection, *_ = fit_p(H.ChainEngine(z23), z23_ball6, 50, 3)
    assert (p, upsilon, selection.to_json()) == (sel.p, ups, sel.to_json())
    assert fit.n_samples == 200 and fit.samples == fits[sel.p].samples
    # at a given p nothing is selected and the fit is made at that p
    p, fit, upsilon, selection, *_ = fit_p(H.ChainEngine(z23), z23_ball6, 300, 3, p=4.0)
    rho_of_p, fits = H.rho_fitter(H.ChainEngine(z23), z23_ball6, 300, seed=3)
    rho_of_p(4.0)
    assert (p, upsilon, selection) == (4.0, ups, None)
    assert (fit.base, fit.constant, fit.samples) == (fits[4.0].base, fits[4.0].constant,
                                                     fits[4.0].samples)


# the point-mass families fitted on B(e, 5) from 200 triples, with the
# largest Gromov product X of a nonzero difference, rho and p as measured
STEP_FITS = {
    "free:2": ("free:2", 1, 0, (9.0, 0.685, 8.0)),
    "free:3": ("free:3", 1, 0, (9.0, 0.685, 8.9)),
    "free:2-delta2": ("free:2", 2, 0, (10.0, 0.71, 8.8)),
    "zm:2,3-seed0": ("zm:2,3", 1, 0, (9.5, 0.695, 7.7)),
    "zm:2,3-seed7": ("zm:2,3", 1, 7, (9.0, 0.685, 7.4)),
    "zm:3,4": ("zm:3,4", 1, 0, (9.5, 0.695, 8.8)),
}


@pytest.mark.parametrize("name", sorted(STEP_FITS))
def test_step_data_select_p_in_closed_form(name):
    # point-mass chains differ by 0 or 2^(1/p), so the floor (v / cap)^(1/x)
    # is (1/32)^(1/x), largest at X: rho is the first grid value at or above
    # (1/32)^(1/X) at every p, and p the first grid p with rho^p upsilon < 1/4
    descriptor, delta, seed, pinned = STEP_FITS[name]
    spec = H.spec_from_descriptor(descriptor, delta=delta)
    ball = H.build_ball(spec, 5)
    ups = H.estimate_upsilon(ball)
    rho_of_p, fits = H.rho_fitter(H.ChainEngine(spec), ball, 200, seed)
    sel = H.select_p(ups, rho_of_p)
    for c in sel.candidates:
        fit = fits[c["p"]]
        assert {v for _, v in fit.samples} == {0.0, 2 ** (1 / c["p"])}
        X = max(x for x, v in fit.samples if v > 0)
        rho = next(i / 200 for i in range(1, 200) if i / 200 >= (1 / 32) ** (1 / X))
        assert c["rho"] == rho
    p = next(k / 10 for k in range(20, 641) if rho ** (k / 10) * ups < 0.25)
    assert (X, rho, p) == (X, sel.rho_used, sel.p) == pinned


# ---------------------------------------------------------------- tail bounds


def test_tail_bound_zero_constant():
    assert H.tail_bound(0.0, 0.5, 4.0, 5.0, 3, 10) == 0.0
    assert H.tail_bound(1.0, 0.0, 4.0, 5.0, 3, 10) == 0.0


def test_tail_bound_monotone():
    prev = math.inf
    for R in range(-1, 12):
        t = H.tail_bound(2.0, 0.5, 4.4, 5.0, R, 6)
        assert t < prev
        prev = t
    # monotone in p once the window reaches past d (C * rho^(R+1-d) < 1)
    prev = math.inf
    for p in (4.4, 5.0, 6.0, 8.0):
        t = H.tail_bound(2.0, 0.5, p, 5.0, 10, 3)
        assert t < prev
        prev = t


def test_tail_bound_closed_sum():
    C, rho, p, ups, d = 1.5, 0.5, 4.4, 5.0, 7
    q = rho ** p * ups
    full = H.tail_bound(C, rho, p, ups, -1, d)
    assert full <= 2.0 * C ** p * rho ** (-p * d) + 1e-9
    brute = sum(C ** p * rho ** (p * (n - d)) * ups ** n for n in range(0, 400))
    assert brute <= full + 1e-9
    assert full - brute < 1e-9 * full + 1e-12
    # the tail beyond R equals the full sum minus the first R+1 layers
    for R in (0, 3, 9):
        head = sum(C ** p * rho ** (p * (n - d)) * ups ** n for n in range(R + 1))
        assert H.tail_bound(C, rho, p, ups, R, d) == pytest.approx(full - head)


def test_tail_bound_past_float_overflow():
    # the fit of `cocycle --group zm:2,3 --radius 4 --samples 200`: rho^(-p d)
    # overflows at d = 250 and raised OverflowError at d = 260, although the
    # bound itself is a float at R = 30
    C, rho, p, ups = 34.914470036921486, 0.65, 6.5, 4.0
    q = rho ** p * ups
    for d in (250, 260):
        got = H.tail_bound(C, rho, p, ups, 30, d)
        assert math.isfinite(got)
        log_bound = (p * math.log(C) - p * d * math.log(rho) + 31 * math.log(q)
                     - math.log(1.0 - q))
        assert math.log(got) == pytest.approx(log_bound, rel=1e-12)
        assert H.tail_bound(C, rho, p, ups, 4, d) == math.inf
    # where the product is finite it is returned as it stands
    d = 100
    assert H.tail_bound(C, rho, p, ups, 30, d) == (C ** p) * rho ** (-p * d) * q ** 31 / (1.0 - q)


def test_tail_bound_domain():
    with pytest.raises(ValueError):
        H.tail_bound(1.0, 0.9, 2.0, 5.0, 3, 4)  # 0.81 * 5 is far above 1/2
    with pytest.raises(ValueError):
        H.tail_bound(1.0, 1.2, 2.0, 5.0, 3, 4)
    with pytest.raises(ValueError):
        H.tail_bound(-1.0, 0.5, 2.0, 5.0, 3, 4)
