"""The displacement cocycle: pointwise values, windows, properness."""

import random
from fractions import Fraction

import pytest

import hypaction as H
from hypaction.errors import ExactnessError, PSelectionError
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
    assert f2_cocycle.eta_at(()).coefficients() == {(): 1.0}
    eta15 = f2_cocycle.eta_at(f2.parse("a^15"))
    assert eta15.coefficients() == {f2.parse("a^5"): 1.0}


def test_eta_unit_norm(z23, z23_cocycle, z23_ball6):
    rng = random.Random(21)
    words = z23_ball6.words
    for _ in range(50):
        gamma = words[rng.randrange(len(words))]
        h = z23_cocycle.eta_at(gamma)
        assert abs(H.norm_p(h.coefficients(), 4.0) - 1.0) < 1e-12


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
    q = z23_cocycle.engine.q
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
        path = q.q_path(g, ())
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
    q = coc.engine.q
    ten = coc.engine.ten_delta
    g = _random_deep_word(spec, random.Random(60), 60)
    path = q.q_path(g, ())
    expected = sum(coc.disjoint_support_check(g, gamma) for gamma in path[ten:len(path) - ten])
    calls = []
    q_path = q.q_path
    monkeypatch.setattr(q, "q_path", lambda a, b: calls.append((a, b)) or q_path(a, b))
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
    words = [w for w, d in zip(f2_ball6.words, f2_ball6.dist) if d <= 4]
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


def test_identity_plain_iterable_window(f2, f2_cocycle):
    window = [(), f2.parse("a"), f2.parse("Ab")]
    rep = f2_cocycle.verify_identity(f2.parse("a"), f2.parse("b"), window)
    assert rep.vertices == 3 and rep.residual_zero


def test_identity_ball_walk_matches_plain_iteration(f2, f2_cocycle):
    # the incremental BFS-tree walk must agree with per-vertex computation
    ball = H.build_ball(f2, 4)
    rng = random.Random(28)
    words = ball.words
    for _ in range(5):
        g = words[rng.randrange(len(words))]
        k = words[rng.randrange(len(words))]
        fast = f2_cocycle.verify_identity(g, k, ball)
        plain = f2_cocycle.verify_identity(g, k, list(ball.words))
        assert fast.vertices == plain.vertices
        assert fast.residual_zero == plain.residual_zero
        assert fast.witnesses == plain.witnesses


@pytest.mark.parametrize("family", ["free:2", "line2"])
def test_identity_reports_a_non_associative_product(monkeypatch, family):
    # break the group law at one product gamma0 * w0, where w0 is a support
    # point of h_e(gamma0^-1 gk): then (g m) w0 != g (m w0) at gamma0 only
    if family == "free:2":
        spec = H.FreeGroupSpec(2)
        g, k = spec.parse("ab"), spec.parse("aab")
    else:
        spec = H.ball_from_json(line2_ball_json(30), delta=1)
        by_end = {endpoint(w): w for w in H.build_ball(spec, 14).words}
        g, k = by_end[26], by_end[14]  # gk = 40: f(e, gk) spreads
    engine = H.ChainEngine(spec)
    window = H.build_ball(spec, 2)
    mul, inv_word = spec._mul, spec._inv_word
    fpoint = engine._f_point_basepoint
    gk = mul(g, k)
    gammas = window.words[1:]
    if family == "line2":
        # exercise the spread path
        gammas = [x for x in gammas if isinstance(fpoint(mul(inv_word(x), gk)), dict)]
    gamma0 = gammas[0]
    w1 = fpoint(mul(inv_word(gamma0), gk))
    w0 = min(w1) if isinstance(w1, dict) else w1
    bad = () if mul(gamma0, w0) else (0,)

    def broken(u, v):
        return bad if (u, v) == (gamma0, w0) else mul(u, v)

    assert H.Cocycle(engine, 3.0).verify_identity(g, k, window).residual_zero
    monkeypatch.setattr(spec, "_mul", broken)
    rep = H.Cocycle(engine, 3.0).verify_identity(g, k, window)
    assert not rep.residual_zero and rep.witnesses == [gamma0]


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
