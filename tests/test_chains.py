"""Exact chain arithmetic and the lp norms."""

import random
from fractions import Fraction

import pytest

import hypaction as H
from hypaction import chains


def test_add_cancel(f2):
    a, b = f2.parse("a"), f2.parse("b")
    x = chains.add({a: Fraction(1), b: Fraction(2)}, {a: Fraction(-1)})
    assert x == {b: Fraction(2)}
    assert chains.add(x, {b: Fraction(-2)}) == {}
    assert chains.sub(x, x) == {}


def test_coefficient_sum(f2):
    a, b = f2.parse("a"), f2.parse("b")
    x = chains.add({a: Fraction(1, 2)}, {b: Fraction(1, 2)})
    assert H.coefficient_sum(x) == 1
    assert H.norm_1(x) == 1


def test_norms(f2):
    a, b = f2.parse("a"), f2.parse("b")
    assert H.norm_1({a: Fraction(1)}) == 1
    assert H.norm_p({a: Fraction(1)}, 7.3) == 1.0
    diff = chains.sub({a: Fraction(1)}, {b: Fraction(1)})
    for p in (1.0, 2.0, 4.5):
        assert H.norm_p(diff, p) == pytest.approx(2 ** (1 / p))
    with pytest.raises(ValueError):
        H.norm_p(diff, 0.5)


def test_norm_p_le_norm_1_and_monotone(f2, f2_ball3):
    rng = random.Random(8)
    words = f2_ball3.words
    for _ in range(50):
        x = {}
        for _ in range(rng.randint(1, 6)):
            w = words[rng.randrange(len(words))]
            x[w] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        x = {w: c for w, c in x.items() if c}
        if not x:
            continue
        n1 = float(H.norm_1(x))
        prev = n1
        for p in (1.5, 2.0, 3.0, 6.0):
            np_ = H.norm_p(x, p)
            assert np_ <= n1 + 1e-12
            assert np_ <= prev + 1e-12
            prev = np_


def test_translate(f2, f2_ball3):
    a = f2.parse("a")
    g = f2.parse("bA")
    assert H.translate(f2, (), {a: Fraction(2)}) == {a: Fraction(2)}
    assert H.translate(f2, g, {a: Fraction(1)}) == {f2.multiply(g, a): Fraction(1)}
    rng = random.Random(9)
    words = f2_ball3.words
    for _ in range(40):
        x = {words[rng.randrange(len(words))]: Fraction(rng.randint(1, 5), 3) for _ in range(4)}
        g = words[rng.randrange(len(words))]
        y = H.translate(f2, g, x)
        assert H.norm_1(y) == H.norm_1(x)
        assert H.norm_p(y, 2.7) == pytest.approx(H.norm_p(x, 2.7))
        assert set(y) == {f2.multiply(g, w) for w in x}

