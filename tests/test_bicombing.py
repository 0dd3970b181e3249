"""Geodesy, determinism and equivariance of the canonical paths."""

import itertools
import random

import pytest

import hypaction as H
from hypaction.errors import OutOfWindowError

from line2 import endpoint, line2_ball_json


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


@pytest.mark.parametrize("descriptor", ["free:2", "zm:2,3", "line2"])
def test_q_point_is_the_point_of_q_path(descriptor):
    if descriptor == "line2":
        spec = H.ball_from_json(line2_ball_json(30))
    else:
        spec = H.spec_from_descriptor(descriptor)
    q = H.Bicombing(spec)
    words = H.build_ball(spec, 5).words
    rng = random.Random(7)
    for _ in range(60):
        a, b = rng.choice(words), rng.choice(words)
        path = q.q_path(a, b)
        assert [q.q_point(a, b, t) for t in range(len(path))] == list(path)
        for t in (-1, len(path)):
            with pytest.raises(ValueError, match=f"t={t} is outside 0..{len(path) - 1}"):
                q.q_point(a, b, t)


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


def greedy_path_from_identity(spec, x):
    """The geodesic e -> x by greedy descent, the oracle for the prefix path:
    each step takes the least generator, in declaration order, that brings
    the rest of the way one shorter. Its probes g^-1 x may leave an explicit
    ball, where it raises OutOfWindowError."""
    mul = spec._mul
    path = [()]
    cur, remaining = (), x
    while remaining:
        n = len(remaining)
        for gi, inv in enumerate(spec._inv):
            nxt = mul((inv,), remaining)
            if len(nxt) == n - 1:
                cur = mul(cur, (gi,))
                path.append(cur)
                remaining = nxt
                break
        else:
            raise AssertionError("no generator decreases the distance")
    return tuple(path)


@pytest.fixture(scope="module", params=[22, 60])
def line2_ball(request):
    return H.ball_from_json(line2_ball_json(request.param))


def test_greedy_matches_prefix_shortcut(f2, z23, f2_ball6, z23_ball6):
    for spec, ball in ((f2, f2_ball6), (z23, z23_ball6)):
        q = H.Bicombing(spec)
        for x in ball.words:
            assert greedy_path_from_identity(spec, x) == q.path_from_identity(x)


def test_greedy_matches_prefix_on_line2_balls(line2_ball):
    # the normal form of a ball file is its shortlex-least geodesic word, so
    # greedy descent spells it wherever its probes stay inside the ball; they
    # leave it only at the two ends, +-2R
    q = H.Bicombing(line2_ball)
    words = H.build_ball(line2_ball, line2_ball.max_word_length).words
    matched, outside = 0, []
    for x in words:
        try:
            greedy = greedy_path_from_identity(line2_ball, x)
        except OutOfWindowError:
            outside.append(x)
            continue
        assert greedy == q.path_from_identity(x)
        matched += 1
    radius = line2_ball.max_word_length
    assert matched == len(words) - 2 == 4 * radius - 1
    assert sorted(endpoint(x) for x in outside) == [-2 * radius, 2 * radius]


def test_prefix_path_at_the_ball_boundary(line2_ball):
    # where the greedy walk leaves the ball, the bicombing and the retraction
    # still read the prefix of the normal form
    radius = line2_ball.max_word_length
    engine = H.ChainEngine(line2_ball)
    q = engine.q
    t = ((radius - 1) // 10) * 10
    for n in (-2 * radius, 2 * radius):
        x = next(w for w in H.build_ball(line2_ball, radius).words if endpoint(w) == n)
        assert len(x) == radius
        assert engine.project((), x) == x[:t]
        assert [q.q_point((), x, s) for s in range(radius + 1)] == list(q.q_path((), x))
        assert q.q_path((), x) == tuple(x[:s] for s in range(radius + 1))
