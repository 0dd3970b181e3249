"""Geodesy, determinism and equivariance of the canonical paths."""

import itertools
import random

import pytest

import hypaction as H


def test_path_examples(f2, z23):
    q = H.Bicombing(f2)
    a = f2.parse("a")
    assert q.q_path(a, a) == (a,)
    assert q.q_path((), f2.parse("ab")) == ((), a, f2.parse("ab"))
    assert q.q_point((), f2.parse("a^5"), 3) == f2.parse("a^3")
    assert q.q_point(a, f2.parse("ab"), 0) == a
    qz = H.Bicombing(z23)
    st = z23.parse("st")
    assert qz.q_path((), st) == ((), z23.parse("s"), st)


def test_q_point_range(f2):
    q = H.Bicombing(f2)
    with pytest.raises(ValueError):
        q.q_point((), f2.parse("ab"), 3)
    with pytest.raises(ValueError):
        q.q_point((), f2.parse("ab"), -1)


def test_geodesy(z23, z23_ball6):
    q = H.Bicombing(z23)
    rng = random.Random(2)
    words = z23_ball6.words
    for _ in range(100):
        a = words[rng.randrange(len(words))]
        b = words[rng.randrange(len(words))]
        path = q.q_path(a, b)
        assert path[0] == a and path[-1] == b
        assert len(path) == H.distance(z23, a, b) + 1
        for i in range(len(path)):
            for j in range(i, len(path)):
                assert H.distance(z23, path[i], path[j]) == j - i


def test_determinism(f2):
    q = H.Bicombing(f2)
    a, b = f2.parse("abA"), f2.parse("Bab")
    assert q.q_path(a, b) == q.q_path(a, b)
    assert q.q_path(a, b) == H.Bicombing(f2).q_path(a, b)


def test_equivariance_exhaustive_small(f2, f2_ball3):
    q = H.Bicombing(f2)
    words = f2_ball3.words
    mul = f2.multiply
    for g, a, b in itertools.product(words, repeat=3):
        translated = tuple(mul(g, w) for w in q.q_path(a, b))
        assert q.q_path(mul(g, a), mul(g, b)) == translated


def test_equivariance_random(z23, z23_ball6):
    q = H.Bicombing(z23)
    rng = random.Random(3)
    words = z23_ball6.words
    for _ in range(200):
        g, a, b = (words[rng.randrange(len(words))] for _ in range(3))
        translated = tuple(z23.multiply(g, w) for w in q.q_path(a, b))
        assert q.q_path(z23.multiply(g, a), z23.multiply(g, b)) == translated


def test_point_equivariance_random(f2, f2_ball6):
    q = H.Bicombing(f2)
    rng = random.Random(5)
    words = f2_ball6.words
    for _ in range(200):
        g, a, b = (words[rng.randrange(len(words))] for _ in range(3))
        d = H.distance(f2, a, b)
        t = rng.randint(0, d)
        lhs = q.q_point(f2.multiply(g, a), f2.multiply(g, b), t)
        assert lhs == f2.multiply(g, q.q_point(a, b, t))


def test_greedy_matches_prefix_shortcut(f2, z23, f2_ball6, z23_ball6):
    for spec, ball in ((f2, f2_ball6), (z23, z23_ball6)):
        q = H.Bicombing(spec)
        for x in ball.words:
            assert q.greedy_path_from_identity(x) == q.path_from_identity(x)
