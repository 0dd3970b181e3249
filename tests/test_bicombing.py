"""Geodesy, determinism and equivariance of the canonical paths."""

import itertools
import random

import pytest

import hypaction as H
from hypaction.errors import OutOfWindowError
from hypaction.suite import _random_deep_word, run_suite

from line2 import endpoint, line2_ball_json


def test_path_examples(f2, z23):
    a = f2.parse("a")
    assert H.q_path(f2, a, a) == (a,)
    assert H.q_path(f2, (), f2.parse("ab")) == ((), a, f2.parse("ab"))
    assert H.q_point(f2, (), f2.parse("a^5"), 3) == f2.parse("a^3")
    assert H.q_point(f2, a, f2.parse("ab"), 0) == a
    st = z23.parse("st")
    assert H.q_path(z23, (), st) == ((), z23.parse("s"), st)


def test_q_point_range(f2):
    with pytest.raises(ValueError):
        H.q_point(f2, (), f2.parse("ab"), 3)
    with pytest.raises(ValueError):
        H.q_point(f2, (), f2.parse("ab"), -1)


@pytest.mark.parametrize("descriptor", ["free:2", "zm:2,3", "line2"])
def test_q_point_is_the_point_of_q_path(descriptor):
    if descriptor == "line2":
        spec = H.ball_from_json(line2_ball_json(30))
    else:
        spec = H.spec_from_descriptor(descriptor)
    words = H.build_ball(spec, 5).words
    rng = random.Random(7)
    for _ in range(60):
        a, b = rng.choice(words), rng.choice(words)
        path = H.q_path(spec, a, b)
        assert [H.q_point(spec, a, b, t) for t in range(len(path))] == list(path)
        for t in (-1, len(path)):
            with pytest.raises(ValueError, match=f"t={t} is outside 0..{len(path) - 1}"):
                H.q_point(spec, a, b, t)


def test_geodesy(z23, z23_ball6):
    rng = random.Random(2)
    words = z23_ball6.words
    for _ in range(100):
        a = words[rng.randrange(len(words))]
        b = words[rng.randrange(len(words))]
        path = H.q_path(z23, a, b)
        assert path[0] == a and path[-1] == b
        assert len(path) == H.distance(z23, a, b) + 1
        for i in range(len(path)):
            for j in range(i, len(path)):
                assert H.distance(z23, path[i], path[j]) == j - i


def test_determinism(f2):
    a, b = f2.parse("abA"), f2.parse("Bab")
    assert H.q_path(f2, a, b) == H.q_path(f2, a, b)
    assert H.q_path(f2, a, b) == H.q_path(H.FreeGroupSpec(2), a, b)


def test_equivariance_exhaustive_small(f2, f2_ball3):
    words = f2_ball3.words
    mul = f2.multiply
    for g, a, b in itertools.product(words, repeat=3):
        translated = tuple(mul(g, w) for w in H.q_path(f2, a, b))
        assert H.q_path(f2, mul(g, a), mul(g, b)) == translated


def test_equivariance_random(z23, z23_ball6):
    rng = random.Random(3)
    words = z23_ball6.words
    for _ in range(200):
        g, a, b = (words[rng.randrange(len(words))] for _ in range(3))
        translated = tuple(z23.multiply(g, w) for w in H.q_path(z23, a, b))
        assert H.q_path(z23, z23.multiply(g, a), z23.multiply(g, b)) == translated


def test_point_equivariance_random(f2, f2_ball6):
    rng = random.Random(5)
    words = f2_ball6.words
    for _ in range(200):
        g, a, b = (words[rng.randrange(len(words))] for _ in range(3))
        d = H.distance(f2, a, b)
        t = rng.randint(0, d)
        lhs = H.q_point(f2, f2.multiply(g, a), f2.multiply(g, b), t)
        assert lhs == f2.multiply(g, H.q_point(f2, a, b, t))


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
        for x in ball.words:
            assert greedy_path_from_identity(spec, x) == H.q_path(spec, (), x)


def test_greedy_matches_prefix_on_line2_balls(line2_ball):
    # the normal form of a ball file is its shortlex-least geodesic word, so
    # greedy descent spells it wherever its probes stay inside the ball; they
    # leave it only at the two ends, +-2R
    words = H.build_ball(line2_ball, line2_ball.max_word_length).words
    matched, outside = 0, []
    for x in words:
        try:
            greedy = greedy_path_from_identity(line2_ball, x)
        except OutOfWindowError:
            outside.append(x)
            continue
        assert greedy == H.q_path(line2_ball, (), x)
        matched += 1
    radius = line2_ball.max_word_length
    assert matched == len(words) - 2 == 4 * radius - 1
    assert sorted(endpoint(x) for x in outside) == [-2 * radius, 2 * radius]


def test_prefix_path_at_the_ball_boundary(line2_ball):
    # where the greedy walk leaves the ball, the bicombing and the retraction
    # still read the prefix of the normal form
    radius = line2_ball.max_word_length
    engine = H.ChainEngine(line2_ball)
    t = ((radius - 1) // 10) * 10
    for n in (-2 * radius, 2 * radius):
        x = next(w for w in H.build_ball(line2_ball, radius).words if endpoint(w) == n)
        assert len(x) == radius
        assert engine.project((), x) == x[:t]
        path = H.q_path(line2_ball, (), x)
        assert [H.q_point(line2_ball, (), x, s) for s in range(radius + 1)] == list(path)
        assert path == tuple(x[:s] for s in range(radius + 1))


@pytest.mark.parametrize("group", ["free:2", "line2"])
def test_the_library_never_reads_the_engine_stub(group, monkeypatch):
    # ChainEngine.q is a stub that only the benchmark reads: with a bare
    # object in its place on every engine, the callers of the bicombing
    # return what they return on untouched engines
    if group == "line2":
        spec = H.ball_from_json(line2_ball_json(30), delta=1)
    else:
        spec = H.spec_from_descriptor(group)
    g = _random_deep_word(spec, random.Random(group), 24)
    gamma = H.q_point(spec, g, (), 12)

    def results():
        coc = H.Cocycle(H.ChainEngine(spec), 4.0)
        cert = H.certify_delta(H.build_ball(spec, 4), 100, 1, 1)
        return (cert.to_json(), coc.properness_count(g), coc.disjoint_support_check(g, gamma),
                run_suite(spec, radius=4, samples=40, seed=1))

    untouched = results()
    init = H.ChainEngine.__init__

    def bare_q(self, spec):
        init(self, spec)
        self.q = object()

    monkeypatch.setattr(H.ChainEngine, "__init__", bare_q)
    assert results() == untouched
    assert untouched[1] > 0 and untouched[2]
