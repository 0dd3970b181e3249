"""Flowers, projections, and the recursive averaged chains."""

import gc
import math
import random
from fractions import Fraction

import pytest

import hypaction as H
from hypaction import chains
from hypaction.errors import ExactnessError
from hypaction.suite import _random_deep_word

from line2 import line2_ball_json


# ---------------------------------------------------------------- flowers


def test_flower_degenerate(f2_engine, f2):
    v = f2.parse("bA")
    fl = f2_engine.flower(v, v)
    assert fl == (v,)


def test_flower_tree_singleton(f2_engine, f2):
    assert f2_engine.flower((), f2.parse("a^5")) == (f2.parse("a^5"),)
    assert f2_engine.flower((), f2.parse("abab")) == (f2.parse("abab"),)


def test_flower_brute_force_product(z23, z23_engine):
    # direct enumeration oracle: members of S(v, d(v,w)) within delta of w
    big = H.build_ball(z23, 7)
    for w in H.build_ball(z23, 6).words:
        expected = sorted(
            y for y in big.words
            if H.distance(z23, (), y) == len(w) and H.distance(z23, w, y) <= z23.delta
        )
        assert list(z23_engine.flower((), w)) == expected
        assert w in z23_engine.flower((), w)


@pytest.mark.parametrize("descriptor", ["free:2", "zm:2,2,2"])
def test_flower_brute_force_exact_tree(descriptor):
    # the oracle is not told that tree flowers are {x}: a move of length 1
    # changes |x| by 1 on a tree, so its moves find no other member, and
    # neither does direct enumeration
    spec = H.spec_from_descriptor(descriptor)
    assert spec.exact_tree
    engine = H.ChainEngine(spec)
    big = H.build_ball(spec, 5)
    for w in H.build_ball(spec, 4).words:
        expected = [y for y in big.words if len(y) == len(w) and H.distance(spec, w, y) <= 1]
        assert list(engine.flower((), w)) == expected == [w]


def test_flower_off_basepoint(z23, z23_engine):
    rng = random.Random(1)
    small = H.build_ball(z23, 3).words
    big = H.build_ball(z23, 7)
    for _ in range(60):
        v = small[rng.randrange(len(small))]
        w = small[rng.randrange(len(small))]
        d = H.distance(z23, v, w)
        expected = sorted(
            y for y in big.words
            if H.distance(z23, v, y) == d and H.distance(z23, w, y) <= z23.delta
        )
        assert list(z23_engine.flower(v, w)) == expected


# ---------------------------------------------------------------- projections


def test_project_arithmetic(f2, f2_engine):
    a = f2.parse("a")
    assert f2_engine.project(a, a) == a
    assert f2_engine.project((), f2.parse("a^25")) == f2.parse("a^20")
    assert f2_engine.project((), f2.parse("a^30")) == f2.parse("a^20")
    assert f2_engine.project((), f2.parse("a^7")) == ()
    base = f2.parse("bb")
    target = f2.multiply(base, f2.parse("a^12"))
    assert f2_engine.project(base, target) == f2.multiply(base, f2.parse("a^10"))


# ---------------------------------------------------------------- the chain f


def test_f_base_case_exhaustive(f2, f2_engine, f2_ball3):
    for a in f2_ball3.words:
        for b in f2_ball3.words:
            assert f2_engine.f_chain(a, b) == {b: Fraction(1)}


def test_f_tree_closed_form(f2, f2_engine):
    rng = random.Random(12)
    q = f2_engine.q
    for _ in range(60):
        d = rng.randint(10, 30)
        letters = []
        for i in range(d):
            options = [x for x in range(4) if not letters or x != f2._inv[letters[-1]]]
            letters.append(rng.choice(options))
        b = tuple(letters)
        a_shift = rng.randrange(len(letters))
        a, bb = b[:a_shift], b  # a is a prefix, so d(a, bb) = d - a_shift
        if len(bb) - len(a) < 10:
            continue
        expected = {q.q_point(a, bb, 10): Fraction(1)}
        assert f2_engine.f_chain(a, bb) == expected
        assert f2_engine.f_chain_literal(a, bb) == expected


def test_f_literal_matches_engine_product(z23, z23_engine, z23_ball6):
    rng = random.Random(13)
    words = z23_ball6.words
    for _ in range(40):
        a = words[rng.randrange(len(words))]
        b = words[rng.randrange(len(words))]
        assert z23_engine.f_chain_literal(a, b) == z23_engine.f_chain(a, b)


def test_f_convexity_and_support(z23, z23_engine):
    ten = z23_engine.ten_delta
    rng = random.Random(14)
    q = z23_engine.q
    ball = H.build_ball(z23, 6)
    words = ball.words
    for _ in range(150):
        b = words[rng.randrange(len(words))]
        a = words[rng.randrange(len(words))]
        f = z23_engine.f_chain(b, a)
        assert H.coefficient_sum(f) == 1
        assert all(c > 0 for c in f.values())
        d = H.distance(z23, a, b)
        if d <= ten:
            assert f == {a: Fraction(1)}
        else:
            center = q.q_point(b, a, ten)
            for w in f:
                assert H.distance(z23, b, w) == ten
                assert H.distance(z23, center, w) <= z23.delta


def test_f_deep_convexity(z23, z23_engine):
    # distance 20 and 21 words exercise the flower-averaged branch
    w20 = z23.parse("t s t^2 s t s t^2 s t s t^2 s t s t^2 s t s t^2 s")
    assert len(w20) == 20
    f = z23_engine.f_chain((), w20)
    assert H.coefficient_sum(f) == 1
    assert all(0 < c <= 1 for c in f.values())
    w21 = z23.multiply(w20, z23.parse("t"))
    f21 = z23_engine.f_chain((), w21)
    assert H.coefficient_sum(f21) == 1


def test_f_equivariance(f2, f2_engine, f2_ball6):
    rng = random.Random(15)
    small = [w for w, d in zip(f2_ball6.words, f2_ball6.dist) if d <= 2]
    pairs = [
        (f2_ball6.words[rng.randrange(len(f2_ball6.words))],
         f2_ball6.words[rng.randrange(len(f2_ball6.words))])
        for _ in range(10)
    ]
    for g in small:
        for b, a in pairs:
            lhs = f2_engine.f_chain_literal(f2.multiply(g, b), f2.multiply(g, a))
            assert lhs == H.translate(f2, g, f2_engine.f_chain_literal(b, a))


def test_transient_sweep_keeps_no_point_masses(f2, z23):
    # free:2 flowers have one member, and zm:2,3 flowers project to one
    # point, so nothing spreads and an identity sweep through averaging
    # nodes at d = 20 and 30 leaves the memo empty; free:2 only retracts,
    # zm:2,3 evaluates its two-member flowers
    for spec, g, k, evaluated in ((f2, "a^17 b^15", "B^2 a", False),
                                  (z23, "s t " * 16, "t^2 s", True)):
        engine = H.ChainEngine(spec)
        g, k = spec.parse(g), spec.parse(k)
        assert len(g) == 32
        rep = H.Cocycle(engine, 3.0).verify_identity(g, k, H.build_ball(spec, 3))
        assert rep.residual_zero
        assert (engine.cache.misses > 0) == evaluated
        assert engine.cache.memo == {}


def test_memo_holds_no_point_masses(f2, z23):
    # every chain of the built-in families is a point mass, so no caller
    # leaves anything in the memo: not cached f_chain, not the cocycle's
    # pointwise value, not the properness count, not an identity sweep
    for spec in (f2, z23):
        engine = H.ChainEngine(spec)
        coc = H.Cocycle(engine, 3.0)
        rng = random.Random(19)
        deep = [_random_deep_word(spec, rng, rng.randint(20, 32)) for _ in range(20)]
        for g in deep:
            assert engine.f_chain((), g) == engine.f_chain_literal((), g)
            coc.b_at(g, g[:3])
        for g in deep[:3]:
            assert coc.properness_count(g) > 0
        assert coc.verify_identity(deep[0], deep[1][:4], H.build_ball(spec, 3)).residual_zero
        assert engine.cache.memo == {}


@pytest.mark.parametrize("family", ["free:2", "free:3", "zm:2,2,2"])
def test_exact_tree_descent_is_one_slice(family):
    # every flower of an exact tree is {x}, so f(e, x) is the point mass at
    # x[:10 delta] and the descent builds no flower and stores nothing
    spec = H.spec_from_descriptor(family)
    engine = H.ChainEngine(spec)
    rng = random.Random(family)
    for length in range(61):
        x = _random_deep_word(spec, rng, length)
        got = engine._f_point_basepoint(x)
        assert got == x[:10]
        assert chains.as_chain(got) == engine.f_chain_literal((), x)
    assert engine.cache.memo == {} and engine.cache.misses == 0


# ---------------------------------------------------------------- delta = 2


def test_delta_two_flowers_and_recursion(f2):
    # a valid coarser fineness constant: the step becomes 20 and flowers
    # collect siblings within distance 2
    spec = H.FreeGroupSpec(2, delta=2)
    engine = H.ChainEngine(spec)
    assert engine.ten_delta == 20
    x = spec.parse("a^5 b a^34")
    assert len(x) == 40
    fl = engine.flower((), x)
    assert len(fl) == 3  # x and its two siblings
    assert all(H.distance(spec, (), y) == 40 for y in fl)
    assert all(H.distance(spec, x, y) <= 2 for y in fl)

    f = engine.f_chain((), x)
    assert H.coefficient_sum(f) == 1
    assert all(c > 0 for c in f.values())
    # siblings share their prefix, so the average collapses to one point
    assert f == {x[:20]: Fraction(1)}
    assert engine.f_chain_literal((), x) == f

    # base case extends to distance 20
    y = spec.parse("a^18")
    assert engine.f_chain((), y) == {y: Fraction(1)}
    assert engine.project((), spec.parse("a^30")) == spec.parse("a^20")

    h = chains.normalized(f, 2.0)
    assert abs(H.norm_p(h, 2.0) - 1.0) < 1e-12


def test_delta_two_no_exact_mode(f2):
    spec = H.FreeGroupSpec(2, delta=2)
    coc = H.Cocycle(H.ChainEngine(spec), 2.0)
    with pytest.raises(ExactnessError):
        coc.norm(spec.parse("a^5"), mode="exact")


# ---------------------------------------------------------------- h chains


def test_h_normalization(z23, z23_engine, z23_ball6):
    rng = random.Random(18)
    words = z23_ball6.words
    for p in (2.0, 3.5, 4.0):
        for _ in range(40):
            b = words[rng.randrange(len(words))]
            a = words[rng.randrange(len(words))]
            h = chains.normalized(z23_engine.f_chain(b, a), p)
            assert abs(H.norm_p(h, p) - 1.0) < 1e-12


def test_h_base_case(f2, f2_engine):
    h = chains.normalized(f2_engine.f_chain(f2.parse("a^5"), ()), 2.0)
    assert h == {(): 1.0}
    h2 = chains.normalized(f2_engine.f_chain(f2.parse("b"), f2.parse("a")), 4.0)
    assert h2 == {f2.parse("a"): 1.0}


def test_h_requires_p_at_least_2(f2_engine):
    # the engine does not depend on p; the cocycle, which fixes p, refuses
    # an exponent outside [2, inf)
    for p in (1.5, math.inf):
        with pytest.raises(ValueError):
            H.Cocycle(f2_engine, p)


def test_shared_retractions_are_evaluated_once(z23):
    # with delta = 1 every averaging node of (s t)^k has two flower members
    # with one retraction; evaluating it once per member made the descent
    # exponential, 8,191 misses at |x| = 140 (checked first, as it fails fast)
    for k, misses in ((70, 13), (130, 25)):
        engine = H.ChainEngine(z23)
        x = z23.parse("s t") * k
        assert engine.f_chain((), x) == {x[:10]: Fraction(1)}
        assert engine.cache.misses == misses
    for k in (20, 45, 70):
        x = z23.parse("s t") * k
        assert engine.f_chain((), x) == engine.f_chain_literal((), x)


def test_literal_recursion_leaves_no_garbage_cycles():
    # a self-referencing recursive closure made each literal call leave a
    # reference cycle for the collector; f(e, q^40) on line2 spreads mass
    spec = H.ball_from_json(line2_ball_json(45), delta=1)
    engine = H.ChainEngine(spec)
    x = spec.parse("q^40")
    engine.f_chain_literal((), spec.parse("q^20"))  # builds the flower moves once
    gc.collect()
    gc.disable()
    try:
        f = engine.f_chain_literal((), x)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(f) == 2 and f == engine.f_chain((), x)


# ---------------------------------------------------------------- margins


def test_explicit_margin_refusal(f2):
    spec = H.ball_from_json(H.ball_to_json(f2, 6))
    engine = H.ChainEngine(spec)
    f = engine.f_chain((), spec.parse("a^5"))
    assert f == {spec.parse("a^5"): Fraction(1)}
    with pytest.raises(ExactnessError):
        engine.f_chain((), spec.parse("a^6"))  # needs radius 6 + delta
    with pytest.raises(ExactnessError):
        engine.flower((), spec.parse("a^6"))
