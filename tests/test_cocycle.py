"""The displacement cocycle: pointwise values, windows, properness."""

import random
from collections import Counter
from fractions import Fraction

import pytest

import hypaction as H
from hypaction import cocycle
from hypaction.chains import as_chain
from hypaction.cocycle import _MAX_WITNESSES
from hypaction.errors import (
    ExactnessError,
    InvariantViolation,
    OutOfWindowError,
    PSelectionError,
    SpecMismatchError,
)
from hypaction.suite import _random_deep_word

from line2 import endpoint, line2_ball_json


@pytest.fixture(scope="module")
def f2_cocycle(f2_engine):
    return H.Cocycle(f2_engine, 4.0)


@pytest.fixture(scope="module")
def z23_cocycle(z23_engine):
    return H.Cocycle(z23_engine, 4.0)


# ---------------------------------------------------------------- eta and b


def test_eta_examples(f2, f2_cocycle):
    assert f2_cocycle.eta_at(()) == {(): 1.0}
    assert f2_cocycle.eta_at(f2.parse("a^15")) == {f2.parse("a^5"): 1.0}


def test_eta_unit_norm(z23, z23_cocycle, z23_ball6):
    rng = random.Random(21)
    words = z23_ball6.words
    for _ in range(50):
        gamma = words[rng.randrange(len(words))]
        assert abs(H.norm_p(z23_cocycle.eta_at(gamma), 4.0) - 1.0) < 1e-12


def test_b_at_identity_is_zero(f2, f2_cocycle, f2_ball3):
    for gamma in f2_ball3.words[:20]:
        assert f2_cocycle.b_at((), gamma) == {}


def test_b_at_shared_prefix_vanishes(f2, f2_cocycle):
    gamma = f2.parse("a^15")
    g = f2.parse("b")
    # both geodesics leave gamma through the same 10 steps toward e
    assert f2_cocycle.b_at(g, gamma) == {}
    assert f2_cocycle.diff_norm_pow(g, gamma) == 0.0


def test_b_at_near_identity(f2, f2_cocycle):
    g = f2.parse("a^3")
    val = f2_cocycle.b_at(g, ())
    assert val == {g: 1.0, (): -1.0}
    assert f2_cocycle.diff_norm_pow(g, ()) == pytest.approx(2.0)


def test_diff_norm_pow_validates_its_words(f2, f2_engine):
    # g = "aA" is no normal form (it is the identity, and b(e) = 0); on the
    # line2 ball "pP" is no vertex word, and 23 letters lie beyond radius 22
    line2 = H.ball_from_json(line2_ball_json(22))
    for coc in (H.Cocycle(f2_engine, 4.0), H.Cocycle(H.ChainEngine(line2), 4.0)):
        for g, gamma in (((0, 1), ()), ((), (0, 1))):
            with pytest.raises(SpecMismatchError):
                coc.diff_norm_pow(g, gamma)
    coc = H.Cocycle(H.ChainEngine(line2), 4.0)
    with pytest.raises(OutOfWindowError):
        coc.diff_norm_pow((0,) * 23, ())


def test_diff_norm_matches_dense(z23, z23_cocycle, z23_ball6):
    rng = random.Random(22)
    words = z23_ball6.words
    for _ in range(60):
        g = words[rng.randrange(len(words))]
        gamma = words[rng.randrange(len(words))]
        dense = z23_cocycle.b_at(g, gamma)
        direct = z23_cocycle.diff_norm_pow(g, gamma)
        assert direct == pytest.approx(sum(abs(c) ** 4.0 for c in dense.values()))


# ---------------------------------------------------------------- exact window


def test_exact_norm_identity_element(f2_cocycle):
    res = f2_cocycle.norm(())
    assert res.lower == 0.0 and res.exact and res.tail_bound == 0.0


@pytest.mark.parametrize("group", ["zm:2,3", "line2"])
def test_window_norm_identity_element_is_exact(group):
    # b(e) = 0 in window mode too: tail 0 and exact, over the whole window,
    # after the checks every window makes
    if group == "line2":
        spec = H.ball_from_json(line2_ball_json(30), delta=1)
    else:
        spec = H.spec_from_descriptor(group)
    coc = H.Cocycle(H.ChainEngine(spec), 4.0)
    ball = H.build_ball(spec, 6)
    res = coc.norm((), mode="window", window_ball=ball, fit=_Fit, upsilon=5.0)
    assert (res.lower, res.tail_bound, res.exact) == (0.0, 0.0, True)
    assert (res.window_size, res.nonzero_count) == (len(ball), 0)
    with pytest.raises(PSelectionError):
        coc.norm((), mode="window", window_ball=ball, fit=_Fit, upsilon=20.0)
    if group == "line2":
        # the window evaluations would reach distance 30 + delta
        with pytest.raises(ExactnessError):
            coc.norm((), mode="window", window_ball=H.build_ball(spec, 30), fit=_Fit,
                     upsilon=5.0)


def test_exact_norm_closed_form_counts(f2, f2_cocycle):
    # per axis vertex: an endpoint subtree holds (3^10 - 1)/2 vertices of
    # depth <= 9, an interior one 3^9; every such vertex contributes 2
    end = (3 ** 10 - 1) // 2
    mid = 3 ** 9
    for k in (1, 2, 5, 30):
        res = f2_cocycle.norm(f2.parse(f"a^{k}"), audit_samples=25, seed=k)
        assert res.exact
        assert res.nonzero_count == 2 * end + (k - 1) * mid
        assert res.lower == 2.0 * res.nonzero_count
        assert res.tail_bound == 0.0


def test_exact_norm_monotone_in_k(f2, f2_cocycle):
    lowers = [f2_cocycle.norm(f2.parse(f"a^{k}")).lower for k in range(1, 31)]
    assert all(x < y for x, y in zip(lowers, lowers[1:]))


def test_exact_norm_general_words(f2, f2_cocycle):
    res = f2_cocycle.norm(f2.parse("abAB"), audit_samples=40, seed=7)
    assert res.exact and res.lower >= 2 * (res.d_g_e + 1)


def test_exact_norm_rank_one(f2_cocycle):
    # the rank-1 free group has empty interior subtrees
    z = H.FreeGroupSpec(1)
    coc = H.Cocycle(H.ChainEngine(z), 2.0)
    res = coc.norm(z.parse("a^12"), audit_samples=20, seed=1)
    assert res.exact
    assert res.nonzero_count == 2 * 10 + (12 - 1)  # two rays of depth <= 9 plus the axis


def test_exact_norm_infinite_dihedral():
    # all factor orders 2: a tree family whose Cayley graph is a line
    dd = H.FreeProductSpec((2, 2))
    assert dd.exact_tree
    coc = H.Cocycle(H.ChainEngine(dd), 2.0)
    res = coc.norm(dd.parse("st st st st st st"), audit_samples=15, seed=2)
    assert res.exact and res.d_g_e == 12
    assert res.nonzero_count == (12 + 1) + 2 * 9


def _dfs_window_counts(spec, g, ten):
    """(window size, nonzero count) of the exact tree window, by walking it.

    Every vertex within depth ten of an axis vertex of e -> g is visited
    once; those of depth at most ten - 1 are the nonzero ones.
    """
    n_gens = len(spec.generators)
    inv = spec._inv
    succ = [tuple(x for x in range(n_gens) if x != inv[y]) for y in range(n_gens)]
    k = len(g)
    window = nonzero = 0
    for i in range(k + 1):
        window += 1
        nonzero += 1  # the axis vertex itself, depth 0
        stack = [
            (x, 1) for x in range(n_gens)
            if not (i > 0 and x == inv[g[i - 1]]) and not (i < k and x == g[i])
        ]
        while stack:
            x, depth = stack.pop()
            window += 1
            if depth < ten:
                nonzero += 1
                stack.extend((nx, depth + 1) for nx in succ[x])
    return window, nonzero


def _reduced_word(spec, length, rng=None):
    """A word of the given length that is geodesic letter by letter: the
    first extending letter each time without ``rng`` (a^k on free groups),
    a random one with it."""
    word = ()
    for _ in range(length):
        options = [x for x in range(len(spec.generators))
                   if len(spec._mul(word, (x,))) == len(word) + 1]
        word = spec._mul(word, (options[0] if rng is None else rng.choice(options),))
    return word


@pytest.mark.parametrize("family", ["free:1", "free:2", "zm:2,2", "zm:2,2,2"])
def test_exact_norm_counts_match_the_walk(family):
    spec = H.spec_from_descriptor(family)
    coc = H.Cocycle(H.ChainEngine(spec), 2.0)
    rng = random.Random(family)
    words = [_reduced_word(spec, k) for k in (1, 2, 5)]
    words += [_reduced_word(spec, rng.randint(1, 8), rng) for _ in range(20)]
    for g in words:
        window, nonzero = _dfs_window_counts(spec, g, coc.engine.ten_delta)
        res = coc.norm(g)
        assert res.exact and res.d_g_e == len(g)
        assert (res.window_size, res.nonzero_count) == (window, nonzero)
        assert res.lower == 2.0 * nonzero


def test_exact_norm_counts_free_rank_three():
    # rank r: an endpoint axis vertex has 2r - 1 branches, an interior one
    # 2r - 2, and a branch holds sum_{j < depth} (2r - 1)^j vertices up to depth
    r = 3
    spec = H.FreeGroupSpec(r)
    coc = H.Cocycle(H.ChainEngine(spec), 2.0)

    def branch(depth):
        return sum((2 * r - 1) ** j for j in range(depth))

    rng = random.Random(3)
    words = [_reduced_word(spec, k) for k in (1, 2, 5)]
    words += [_reduced_word(spec, rng.randint(1, 8), rng) for _ in range(20)]
    for g in words:
        k = len(g)
        branches = 2 * (2 * r - 1) + (k - 1) * (2 * r - 2)
        res = coc.norm(g, audit_samples=5, seed=k)
        assert res.window_size == (k + 1) + branches * branch(10)
        assert res.nonzero_count == (k + 1) + branches * branch(9)
        assert res.lower == 2.0 * res.nonzero_count


def test_exact_mode_requires_tree(z23_cocycle, z23):
    with pytest.raises(ExactnessError):
        z23_cocycle.norm(z23.parse("st"), mode="exact")


def test_norm_refuses_an_unknown_mode_or_an_incomplete_window(f2, f2_cocycle, f2_ball6):
    g = f2.parse("a")
    for kwargs in ({"mode": "exactly"}, {"mode": "window"}, {"window_ball": f2_ball6},
                   {"mode": "window", "window_ball": f2_ball6, "upsilon": 5.0}):
        with pytest.raises(ValueError, match="a window needs its ball"):
            f2_cocycle.norm(g, **kwargs)


# (family, g, seed, the vertices the exact-window audit evaluates, in order),
# recorded by wrapping diff_norm_pow: its walk leaves the axis at a random
# vertex and never backtracks
_AUDITED = [
    ("free:1", "a^12", 1, ["aa", "aaaaaaaaaaaaa", "a", "aaaaaaaaaaaaaaaaaaa", "aaaaaa",
                           "aaaaaaaaaaaa"]),
    ("free:2", "abAB", 3, ["aabbABBaBa", "abAAABA", "abABAbbaaBaB", "abA", "Ba", "ab"]),
    ("free:2", "a^3", 11, ["aaabABBaaBA", "aB", "aabb", "bABBBBaBa", "e", "ABa"]),
    ("zm:2,2,2", "s t u s", 5, ["stususus", "tu", "stutst", "uts", "stuts", "stusustststst"]),
    ("zm:2,2,2", "s t u s t u", 8, ["sustst", "suts", "stututsusu", "s", "stustsuts",
                                    "stuststut"]),
]


@pytest.mark.parametrize("family, g_text, seed, audited", _AUDITED)
def test_exact_window_audit_draws_pinned_vertices(family, g_text, seed, audited, monkeypatch):
    spec = H.spec_from_descriptor(family)
    coc = H.Cocycle(H.ChainEngine(spec), 2.0)
    seen = []
    diff = coc._diff_norm_pow
    monkeypatch.setattr(coc, "_diff_norm_pow",
                        lambda g, gamma: seen.append(gamma) or diff(g, gamma))
    coc.norm(spec.parse(g_text), audit_samples=len(audited), seed=seed)
    assert [spec.label_word(x) for x in seen] == audited


# ---------------------------------------------------------------- windowed


@pytest.fixture(scope="module")
def f2_selection(f2_engine, f2_ball6):
    rho_of_p, fits = H.rho_fitter(f2_engine, f2_ball6, 1200, seed=31)
    sel = H.select_p(5.0, rho_of_p)
    return sel, fits[sel.p]


def test_windowed_equals_exact_when_window_covers(f2, f2_engine, f2_ball10, f2_selection):
    sel, fit = f2_selection
    coc = H.Cocycle(f2_engine, sel.p)
    for gw in ("a", "b", "B"):
        g = f2.parse(gw)
        wres = coc.norm(g, mode="window", window_ball=f2_ball10, fit=fit, upsilon=5.0)
        eres = coc.norm(g, mode="exact")
        # supports live within distance d + 9 of e; for d = 1 the window covers
        assert wres.lower == pytest.approx(eres.lower)
        assert wres.lower + wres.tail_bound >= eres.lower


def test_windowed_bracket_and_monotonicity(f2, f2_engine, f2_selection):
    sel, fit = f2_selection
    coc = H.Cocycle(f2_engine, sel.p)
    g = f2.parse("a^3")
    exact = coc.norm(g, mode="exact").lower
    prev_lower = -1.0
    prev_total = float("inf")
    for radius in (6, 8, 10):
        ball = H.build_ball(f2_engine.spec, radius)
        res = coc.norm(g, mode="window", window_ball=ball, fit=fit, upsilon=5.0)
        assert res.lower <= exact <= res.lower + res.tail_bound
        assert res.lower >= prev_lower
        assert res.lower + res.tail_bound <= prev_total
        prev_lower, prev_total = res.lower, res.lower + res.tail_bound


def test_windowed_values_dropped_zeros(z23, z23_engine, z23_ball8):
    ups = H.estimate_upsilon(z23_ball8)
    rho_of_p, fits = H.rho_fitter(z23_engine, z23_ball8, 800, seed=32)
    sel = H.select_p(ups, rho_of_p)
    coc = H.Cocycle(z23_engine, sel.p)
    g = z23.parse("st")
    res = coc.norm(g, mode="window", window_ball=z23_ball8, fit=fits[sel.p], upsilon=ups)
    values = [coc.diff_norm_pow(g, w) for w in z23_ball8.words]
    assert res.nonzero_count == sum(v != 0.0 for v in values) > 0
    assert res.lower == pytest.approx(sum(values))


def test_windowed_refuses_bad_summability(f2, f2_engine, f2_ball6):
    coc = H.Cocycle(f2_engine, 2.0)

    class Flat:
        base = 0.99
        constant = 2.0

    with pytest.raises(PSelectionError):
        coc.norm(f2.parse("a"), mode="window", window_ball=f2_ball6, fit=Flat(), upsilon=5.0)


# ---------------------------------------------------------------- eta per window


class _Fit:
    # a decay fit whose tail the windowed norm accepts at p = 4, upsilon = 5
    base = 0.5
    constant = 1.0


def _window_case(name):
    """(spec, window ball, words g with g = e first) for the eta tests."""
    if name == "line2":
        # spread chains: the window's words reach the averaging depths 20 and 30
        spec = H.ball_from_json(line2_ball_json(45), delta=1)
        ball = H.build_ball(spec, 30)
    elif name == "zm:2,3":
        spec = H.FreeProductSpec((2, 3))
        ball = H.build_ball(spec, 6)
    else:
        spec = H.FreeGroupSpec(2, delta=2)
        ball = H.build_ball(spec, 4)
    rng = random.Random(name)
    return spec, ball, [()] + [_random_deep_word(spec, rng, n) for n in (1, 2, 5, 9, 12)]


def _window_norm(coc, g, ball):
    return coc.norm(g, mode="window", window_ball=ball, fit=_Fit, upsilon=5.0)


_WINDOW_CASES = ["line2", "zm:2,3", "free:2-delta2"]


def _count_descents(engine) -> Counter:
    """Count the engine's evaluations of f(e, x) per x from now on; calls the
    descent makes to itself are not counted."""
    fpoint = engine._f_point_basepoint
    calls = Counter()
    depth = 0

    def counting(x):
        nonlocal depth
        if not depth:
            calls[x] += 1
        depth += 1
        try:
            return fpoint(x)
        finally:
            depth -= 1

    engine._f_point_basepoint = counting
    return calls


@pytest.mark.parametrize("name", _WINDOW_CASES)
def test_windowed_norms_on_one_cocycle_sum_the_differences(name):
    spec, ball, words = _window_case(name)
    coc = H.Cocycle(H.ChainEngine(spec), 4.0)
    for g in words + words[::-1]:
        res = _window_norm(coc, g, ball)
        values = [coc.diff_norm_pow(g, w) for w in ball.words]
        assert res.lower == sum(values)
        assert res.nonzero_count == sum(v != 0.0 for v in values)
        assert (res.lower > 0) == bool(g)
    if name == "line2":
        assert any(isinstance(f, dict) for f in coc._eta[1])


@pytest.mark.parametrize("name", ["line2", "zm:2,3"])
def test_switching_window_balls_gives_each_its_own_values(name):
    spec, ball, words = _window_case(name)
    smaller = H.build_ball(spec, ball.radius - 2)
    coc = H.Cocycle(H.ChainEngine(spec), 4.0)
    for window in (ball, smaller, ball, smaller):
        for g in words[1:]:
            res = _window_norm(coc, g, window)
            fresh = _window_norm(H.Cocycle(H.ChainEngine(spec), 4.0), g, window)
            assert res == fresh and res.window_size == len(window)
        assert coc._eta[0] is window


@pytest.mark.parametrize("name", _WINDOW_CASES)
def test_windowed_norms_evaluate_eta_once_per_window(name):
    # k norms over W evaluate f(e, .) (k + 1) |W| times, not 2 k |W|; on an
    # explicit ball, once at each distinct vertex that eta and the walks from
    # g reach, fewer still. Calls the descent makes to itself are not counted
    spec, ball, words = _window_case(name)
    engine = H.ChainEngine(spec)
    coc = H.Cocycle(engine, 4.0)
    calls = _count_descents(engine)
    nontrivial = words[1:]
    for g in nontrivial:
        _window_norm(coc, g, ball)
    per_window = (len(nontrivial) + 1) * len(ball)
    if spec.vertex_count:
        # words[0] = e: the walk from e is eta's
        reached = {u for g in words for u in ball.walk(g)}
        assert set(calls) == reached and max(calls.values()) == 1
        assert sum(calls.values()) < per_window
    else:
        assert sum(calls.values()) == per_window
    before = sum(calls.values())
    _window_norm(coc, (), ball)  # b(e) = 0 evaluates nothing
    _window_norm(coc, nontrivial[0], ball)
    again = 0 if spec.vertex_count else len(ball)
    assert sum(calls.values()) == before + again


def test_one_cocycle_evaluates_each_spread_pair_once():
    # norms of every g in B(e, 12) over the widest window the radius-30 line2
    # ball admits and a smaller one, in turn, from one cocycle and from a
    # fresh one per g, agree bit for bit; the shared pair values are keyed by
    # the values of f, so their number is bounded by the memo M, whatever the
    # window, and f is evaluated at most once per vertex of the ball file
    from hypaction.chains import as_chain, normalized_diff_pow

    data = line2_ball_json(30)
    spec = H.ball_from_json(data, delta=1)
    windows = (H.build_ball(spec, 17), H.build_ball(spec, 15))  # |g| + 17 + delta <= 30
    coc = H.Cocycle(H.ChainEngine(spec), 4.0)
    calls = _count_descents(coc.engine)
    fpoint = H.ChainEngine(spec)._f_point_basepoint
    for g in H.build_ball(spec, 12).words:
        for window in windows:
            shared = _window_norm(coc, g, window).lower
            fresh = _window_norm(H.Cocycle(H.ChainEngine(spec), 4.0), g, window).lower
            assert float.hex(shared) == float.hex(fresh)
            # and every term evaluated anew, in the window's order
            terms = [normalized_diff_pow(as_chain(fpoint(u1)), as_chain(fpoint(u2)), 4.0)
                     for u1, u2 in zip(window.walk(g), window.walk(()))]
            assert float.hex(shared) == float.hex(sum(terms))
            # one slot per vertex of the ball file, whatever g and the window
            assert len(coc._f_at) == len(data["vertices"])
    # and each slot filled by one evaluation
    assert calls and max(calls.values()) == 1
    assert len(calls) == sum(f is not None for f in coc._f_at)
    memo = coc.engine.cache.memo
    m, sphere = len(memo), H.build_ball(spec, 10).layer_sizes()[-1]
    assert m and coc._pairs
    assert len(coc._pairs) <= 2 * m * (m + sphere)
    # each key holds a memo chain's id on at least one side; a point side
    # is a word of B(e, 10 delta)
    spread = {id(c) for c in memo.values()}
    for key in coc._pairs:
        assert any(side in spread for side in key)
        assert all(side in spread if isinstance(side, int) else len(side) <= 10 for side in key)
    # no chain of zm:2,3 spreads
    spec, ball, words = _window_case("zm:2,3")
    coc = H.Cocycle(H.ChainEngine(spec), 4.0)
    for g in words:
        _window_norm(coc, g, ball)
    assert coc._pairs == {}


# ---------------------------------------------------------------- properness


def test_disjoint_support_examples(f2, f2_cocycle):
    g = f2.parse("a^25")
    gamma = f2.parse("a^12")
    assert f2_cocycle.disjoint_support_check(g, gamma)
    with pytest.raises(ValueError):
        f2_cocycle.disjoint_support_check(g, f2.parse("a^5"))  # too close to e
    with pytest.raises(ValueError):
        f2_cocycle.disjoint_support_check(g, f2.parse("b^12"))  # off the geodesic


def test_disjoint_support_exhaustive_powers(f2, f2_cocycle):
    for k in range(20, 26):
        g = f2.parse(f"a^{k}")
        for j in range(10, k - 9):
            assert f2_cocycle.disjoint_support_check(g, f2.parse(f"a^{j}"))


def test_disjoint_support_product_sampled(z23, z23_cocycle):
    rng = random.Random(24)
    ten = z23_cocycle.engine.ten_delta
    checked = 0
    for _ in range(60):
        letters = []
        for i in range(rng.randint(20, 24)):
            opts = [x for x in range(3)
                    if not letters or z23._factor[x] != z23._factor[letters[-1]]]
            letters.append(rng.choice(opts))
        g = tuple(letters)
        z23.validate_word(g)
        path = H.q_path(z23, g, ())
        admissible = [v for v in path if len(v) >= ten and len(g) - len(v) >= ten]
        gamma = admissible[rng.randrange(len(admissible))]
        assert z23_cocycle.disjoint_support_check(g, gamma)
        checked += 1
    assert checked == 60


def test_properness_count(f2, f2_cocycle):
    assert f2_cocycle.properness_count(f2.parse("a^20")) == 1
    assert f2_cocycle.properness_count(f2.parse("a^30")) == 11
    for k in (21, 25, 30):
        g = f2.parse(f"a^{k}")
        count = f2_cocycle.properness_count(g)
        assert count >= k - 20 - 1
        assert count >= k - 100  # the loose bound is implied


@pytest.mark.parametrize("descriptor", ["free:2", "zm:2,3"])
def test_properness_count_is_the_sum_of_the_checks(descriptor, monkeypatch):
    spec = H.spec_from_descriptor(descriptor)
    coc = H.Cocycle(H.ChainEngine(spec), 4.0)
    ten = coc.engine.ten_delta
    g = _random_deep_word(spec, random.Random(60), 60)
    path = H.q_path(spec, g, ())
    expected = sum(coc.disjoint_support_check(g, gamma) for gamma in path[ten:len(path) - ten])
    calls = []
    q_path = cocycle.q_path
    monkeypatch.setattr(cocycle, "q_path",
                        lambda spec, a, b: calls.append((a, b)) or q_path(spec, a, b))
    assert coc.properness_count(g) == expected == 60 - 2 * ten + 1
    assert calls == [(g, ())]


# ---------------------------------------------------------------- the identity


def test_identity_trivial_k(f2, f2_cocycle, f2_ball3):
    g = f2.parse("ab")
    rep = f2_cocycle.verify_identity(g, (), f2_ball3, audit_fraction=0.05, seed=1)
    assert rep.residual_zero and rep.vertices == len(f2_ball3.words)


def test_identity_inverse_pair(f2, f2_cocycle, f2_ball3):
    k = f2.parse("aB")
    rep = f2_cocycle.verify_identity(f2.invert(k), k, f2_ball3, audit_fraction=0.05, seed=2)
    assert rep.residual_zero


def test_identity_random_pairs(f2, f2_cocycle, f2_ball6):
    rng = random.Random(25)
    words = [w for w in f2_ball6.words if len(w) <= 4]
    window = H.build_ball(f2_cocycle.spec, 5)
    for _ in range(12):
        g = words[rng.randrange(len(words))]
        k = words[rng.randrange(len(words))]
        rep = f2_cocycle.verify_identity(g, k, window, audit_fraction=0.01, seed=3)
        assert rep.residual_zero, (g, k, rep.witnesses)


def test_identity_product_family(z23, z23_cocycle, z23_ball6):
    rng = random.Random(26)
    words = z23_ball6.words
    window = H.build_ball(z23, 5)
    for _ in range(8):
        g = words[rng.randrange(len(words))]
        k = words[rng.randrange(len(words))]
        rep = z23_cocycle.verify_identity(g, k, window, audit_fraction=0.02, seed=4)
        assert rep.residual_zero


def _planted_fault(family, side):
    """(spec, engine, g, k, window, gamma0, w0): a window vertex gamma0 and a
    point w0 of supp f(e, gamma0^-1 gk) (side "gk"), or of supp f(e,
    gamma0^-1 g) outside supp f(e, gamma0^-1 gk) (side "g"). On line2 the
    chain that holds w0 spreads."""
    if family == "free:2":
        spec = H.FreeGroupSpec(2)
        g, k = spec.parse("ab"), spec.parse("aab")
    else:
        spec = H.ball_from_json(line2_ball_json(45), delta=1)
        by_end = {endpoint(w): w for w in H.build_ball(spec, 20).words}
        # gk = 40: f(e, gk) spreads; g = 40, gk = 20: f(e, g) spreads, with
        # one point that f(e, gk) lacks
        g, k = (by_end[26], by_end[14]) if side == "gk" else (by_end[40], by_end[-20])
    engine = H.ChainEngine(spec)
    window = H.build_ball(spec, 2)
    mul, inv_word = spec._mul, spec._inv_word
    fpoint = engine._f_point_basepoint
    gk = mul(g, k)
    for gamma0 in window.words[1:]:
        s1 = sorted(as_chain(fpoint(mul(inv_word(gamma0), gk))))
        s2 = sorted(as_chain(fpoint(mul(inv_word(gamma0), g))))
        points = s1 if side == "gk" else [w for w in s2 if w not in s1]
        if points and (family == "free:2" or len(s1 if side == "gk" else s2) > 1):
            return spec, engine, g, k, window, gamma0, points[0]
    raise AssertionError(f"no vertex of the window fits the {side} side")


def _broken_at(spec, gamma0, w0):
    """The spec's product with one wrong value, at gamma0 * w0."""
    mul = spec._mul
    bad = () if mul(gamma0, w0) else (0,)
    return lambda u, v: bad if (u, v) == (gamma0, w0) else mul(u, v)


@pytest.mark.parametrize("family", ["free:2", "line2"])
def test_identity_reports_a_non_associative_product(monkeypatch, family):
    # break the group law at one product gamma0 * w0, where w0 is a support
    # point of h_e(gamma0^-1 gk), or one of h_e(gamma0^-1 g) that
    # h_e(gamma0^-1 gk) lacks: then (g m) w0 != g (m w0) at gamma0 only
    for side in ("gk", "g"):
        spec, engine, g, k, window, gamma0, w0 = _planted_fault(family, side)
        assert H.Cocycle(engine, 3.0).verify_identity(g, k, window).residual_zero
        with monkeypatch.context() as patched:
            patched.setattr(spec, "_mul", _broken_at(spec, gamma0, w0))
            rep = H.Cocycle(engine, 3.0).verify_identity(g, k, window)
        assert not rep.residual_zero and rep.witnesses == [gamma0], side


def _identity_every_occurrence(coc, g, k, window, audit_fraction=0.0, seed=0):
    """The identity sweep as it ran before it checked each distinct point
    once: every occurrence of a support point in the two chains, the same
    audit draws. The reference for ``verify_identity``."""
    spec = coc.spec
    mul = spec._mul
    gk = mul(g, k)
    rng = random.Random(seed)
    witnesses = []
    audited = 0
    items = zip(window.words, window.walk(gk), window.walk(g),
                window.walk(spec._inv_word(g), right=True))
    fpoint = coc.engine._f_point_basepoint
    for gamma, u1, u2, m in items:
        c1, c2 = as_chain(fpoint(u1)), as_chain(fpoint(u2))
        for w in (*c1, *c2):
            if mul(gamma, w) != mul(g, mul(m, w)):
                if len(witnesses) < _MAX_WITNESSES:
                    witnesses.append(gamma)
                break
        if audit_fraction and rng.random() < audit_fraction:
            audited += 1
            coc._audit_identity(k, gk, gamma, m, c1, c2)
    return H.IdentityReport(vertices=len(window), residual_zero=not witnesses,
                            witnesses=witnesses, audited=audited)


def _outcome(sweep, *args, **kwargs):
    """A sweep's report, or the type and message of what it raised."""
    try:
        return sweep(*args, **kwargs)
    except InvariantViolation as exc:
        return type(exc), str(exc)


def _oracle_case(name):
    """(spec, window, (g, k) pairs) for the reference comparison; on line2
    the pairs reach the averaging depths, so chains of both sides spread."""
    rng = random.Random(name)
    if name == "line2":
        spec = H.ball_from_json(line2_ball_json(60), delta=1)
        by_end = {endpoint(w): w for w in H.build_ball(spec, 20).words}
        pairs = [(by_end[26], by_end[14]), (by_end[40], by_end[-20]), (by_end[-33], by_end[-7])]
        return spec, H.build_ball(spec, 4), pairs
    spec = H.FreeGroupSpec(2) if name == "free:2" else H.FreeProductSpec((2, 3))
    words = H.build_ball(spec, 4).words
    pairs = [(words[rng.randrange(len(words))], words[rng.randrange(len(words))])
             for _ in range(6)]
    return spec, H.build_ball(spec, 3), pairs


@pytest.mark.parametrize("name", ["free:2", "zm:2,3", "line2"])
def test_identity_sweep_matches_the_every_occurrence_reference(name):
    spec, window, pairs = _oracle_case(name)
    engine = H.ChainEngine(spec)
    coc = H.Cocycle(engine, 3.0)
    fpoint = engine._f_point_basepoint
    spread = 0
    for g, k in pairs:
        for fraction, seed in ((0.0, 0), (0.3, 5)):
            want = _identity_every_occurrence(coc, g, k, window, fraction, seed)
            got = coc.verify_identity(g, k, window, audit_fraction=fraction, seed=seed)
            assert got == want and got.residual_zero
            assert (got.audited > 0) == bool(fraction)
        gk = spec._mul(g, k)
        spread += sum(isinstance(fpoint(u), dict)
                      for u in (*window.walk(gk), *window.walk(g)))
    assert (spread > 0) == (name == "line2")


@pytest.mark.parametrize("family", ["free:2", "line2"])
def test_identity_sweep_matches_the_reference_under_planted_faults(monkeypatch, family):
    for side in ("gk", "g"):
        spec, engine, g, k, window, gamma0, w0 = _planted_fault(family, side)
        with monkeypatch.context() as patched:
            patched.setattr(spec, "_mul", _broken_at(spec, gamma0, w0))
            for fraction, seed in ((0.0, 0), (0.5, 2), (1.0, 0)):
                coc = H.Cocycle(engine, 3.0)
                want = _outcome(_identity_every_occurrence, coc, g, k, window, fraction, seed)
                got = _outcome(coc.verify_identity, g, k, window,
                               audit_fraction=fraction, seed=seed)
                assert got == want, (side, fraction)


def test_audited_sweeps_check_their_margin_before_they_sweep():
    # g = -33, gk = -40 over B(e, 4): the audits reach 17 + 8 + 20 + 1 = 46,
    # one past the ball, whichever vertices are drawn; a sweep without
    # audits reaches less and passes
    spec = H.ball_from_json(line2_ball_json(45), delta=1)
    by_end = {endpoint(w): w for w in H.build_ball(spec, 20).words}
    g, k = by_end[-33], by_end[-7]
    window = H.build_ball(spec, 4)
    coc = H.Cocycle(H.ChainEngine(spec), 3.0)
    for seed in range(20):
        with pytest.raises(ExactnessError, match="reaches distance 46 "):
            coc.verify_identity(g, k, window, audit_fraction=0.1, seed=seed)
    assert coc.verify_identity(g, k, window).residual_zero


def test_a_window_of_another_group_is_refused():
    # line2 given a free:2 ball, free:2 given a zm:2,2,2 ball
    line2 = H.ball_from_json(line2_ball_json(30), delta=1)
    for spec, other in ((line2, H.FreeGroupSpec(2)),
                        (H.FreeGroupSpec(2), H.FreeProductSpec((2, 2, 2)))):
        coc = H.Cocycle(H.ChainEngine(spec), 4.0)
        window = H.build_ball(other, 3)
        g = (0,)
        with pytest.raises(SpecMismatchError, match="not of the cocycle's group"):
            coc.verify_identity(g, g, window)
        with pytest.raises(SpecMismatchError, match="not of the cocycle's group"):
            _window_norm(coc, g, window)


def test_a_window_of_the_same_group_is_accepted(f2, f2_ball3):
    # the cocycle's own spec, an equal one built separately, another delta
    g, k = f2.parse("ab"), f2.parse("aab")
    coc = H.Cocycle(H.ChainEngine(f2), 4.0)

    def both(coc, window):
        return (coc.verify_identity(g, k, window, audit_fraction=0.2, seed=1),
                _window_norm(coc, g, window))

    want = both(coc, f2_ball3)
    assert want[0].residual_zero and want[0].audited
    for spec in (H.FreeGroupSpec(2), H.FreeGroupSpec(2, delta=2)):
        assert both(coc, H.build_ball(spec, 3)) == want
    # a delta = 2 cocycle over the delta = 1 window
    rep, res = both(H.Cocycle(H.ChainEngine(H.FreeGroupSpec(2, delta=2)), 4.0), f2_ball3)
    assert rep.residual_zero and rep.vertices == res.window_size == len(f2_ball3)


def _break_f(engine, monkeypatch):
    """Make f(e, x) wrong wherever it is a point mass of 10 letters: it loses
    its last letter. The group law is untouched."""
    fpoint = engine._f_point_basepoint

    def broken(x):
        w = fpoint(x)
        return w[:-1] if not isinstance(w, dict) and len(w) == 10 else w

    monkeypatch.setattr(engine, "_f_point_basepoint", broken)


def test_only_the_literal_audits_catch_a_wrong_f(monkeypatch):
    spec = H.FreeGroupSpec(2)
    engine = H.ChainEngine(spec)
    _break_f(engine, monkeypatch)
    coc = H.Cocycle(engine, 4.0)
    g, k = spec.parse("abab"), spec.parse("aab")
    window = H.build_ball(spec, 3)
    # the sweep tests the group law, which still holds
    assert coc.verify_identity(g, k, window, audit_fraction=0).residual_zero
    with pytest.raises(InvariantViolation):
        coc.verify_identity(g, k, window, audit_fraction=1.0)


def test_the_tail_term_audit_catches_a_wrong_f_toward_e(monkeypatch):
    # the literal f(a, e) is the point mass at a for every a != e, and the
    # literal chains toward g k are untouched: only the audit of f(m, e),
    # the tail term of (pi(g) b(k))(gamma), sees the fault
    spec = H.FreeGroupSpec(2)
    engine = H.ChainEngine(spec)
    g, k = spec.parse("abab"), spec.parse("aab")
    window = H.build_ball(spec, 3)
    assert H.Cocycle(engine, 4.0).verify_identity(g, k, window, audit_fraction=1.0).audited
    literal = engine.f_chain_literal
    monkeypatch.setattr(engine, "f_chain_literal",
                        lambda a, b: {a: Fraction(1)} if a and not b else literal(a, b))
    with pytest.raises(InvariantViolation, match=r"\(tail term\)$"):
        H.Cocycle(engine, 4.0).verify_identity(g, k, window, audit_fraction=1.0)


def test_the_exact_window_audit_catches_a_wrong_f(monkeypatch):
    spec = H.FreeGroupSpec(2)
    engine = H.ChainEngine(spec)
    _break_f(engine, monkeypatch)
    with pytest.raises(InvariantViolation):
        H.Cocycle(engine, 4.0).norm(spec.parse("abAB"), audit_samples=40, seed=3)


# ---------------------------------------------------------------- the linear action


def test_pi_is_isometric(f2, f2_engine, f2_ball6):
    rng = random.Random(27)
    p = 4.0
    words = f2_ball6.words
    for _ in range(10):
        xi = {}
        for _ in range(5):
            gamma = words[rng.randrange(len(words))]
            xi[gamma] = f2_engine.f_chain(words[rng.randrange(len(words))], gamma)
        g = words[rng.randrange(len(words))]
        # (pi(g) xi)(g gamma) = g . xi(gamma)
        moved = {f2.multiply(g, gamma): H.translate(f2, g, ch) for gamma, ch in xi.items()}
        assert len(moved) == len(xi)
        before = sum(H.norm_p(c, p) ** p for c in xi.values())
        after = sum(H.norm_p(c, p) ** p for c in moved.values())
        assert after == pytest.approx(before)


def test_pi_composition(f2, f2_engine):
    def pi(g, xi):
        return {f2.multiply(g, gamma): H.translate(f2, g, ch) for gamma, ch in xi.items()}

    xi = {f2.parse("a"): {f2.parse("b"): Fraction(1)}}
    g, k = f2.parse("ab"), f2.parse("B")
    assert pi(g, pi(k, xi)) == pi(f2.multiply(g, k), xi)
