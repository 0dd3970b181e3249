"""Balls, the word metric, Gromov products and fineness certification."""

import itertools
import random

import pytest

import hypaction as H
from hypaction.errors import OutOfWindowError, ResourceBudgetError
from hypaction.suite import run_suite

from line2 import line2_ball_json


def test_ball_counts(f2, z23):
    assert len(H.build_ball(f2, 2)) == 17
    assert len(H.build_ball(f2, 0)) == 1
    ball1 = H.build_ball(z23, 1)
    assert sorted(z23.label_word(w) for w in ball1.words) == ["e", "s", "t", "t^2"]


def test_ball_budget(f2):
    with pytest.raises(ResourceBudgetError):
        H.build_ball(f2, 8, max_vertices=100)


def test_explicit_ball_radius_limit(f2):
    spec = H.ball_from_json(H.ball_to_json(f2, 3))
    with pytest.raises(OutOfWindowError):
        H.build_ball(spec, 4)


def test_distance_examples(f2, z23, f2_ball3):
    a = f2.parse("a")
    assert H.distance(f2, a, a) == 0
    assert H.distance(f2, f2.parse("ab"), f2.parse("aB")) == 2
    assert H.distance(z23, z23.parse("st"), z23.parse("s")) == 1
    assert f2_ball3.distance(f2.parse("ab"), f2.parse("aB")) == 2


def test_distance_left_invariant_and_triangle(f2, f2_ball3):
    words = f2_ball3.words
    dist, mul = H.distance, f2.multiply
    for g, a, b in itertools.product(words, repeat=3):
        dab = dist(f2, a, b)
        assert dist(f2, mul(g, a), mul(g, b)) == dab
        assert dab <= dist(f2, a, g) + dist(f2, g, b)


def test_gromov_product_examples(f2):
    e = ()
    assert H.gromov_product(f2, e, f2.parse("a"), f2.parse("a")) == 1
    assert H.gromov_product(f2, e, f2.parse("a"), f2.parse("b")) == 0
    assert H.gromov_product(f2, e, f2.parse("ab"), f2.parse("a")) == 1


def test_gromov_product_bounds(z23, z23_ball6):
    rng = random.Random(0)
    words = z23_ball6.words
    for _ in range(400):
        a, b, c = (words[rng.randrange(len(words))] for _ in range(3))
        p = H.gromov_product(z23, a, b, c)
        assert p == H.gromov_product(z23, a, c, b)
        assert 0 <= p <= min(H.distance(z23, a, b), H.distance(z23, a, c))
        assert p.denominator in (1, 2)
    b = words[5]
    assert H.gromov_product(z23, words[1], b, b) == H.distance(z23, words[1], b)


def test_certify_delta_free(f2, f2_ball6):
    report = H.certify_delta(f2_ball6, 1, 500, seed=9, exhaustive_radius=2)
    assert report.max_deviation == 0
    assert report.passed
    assert report.skipped == 0
    payload = report.to_json()
    assert set(payload) >= {"delta", "samples", "skipped", "max_deviation", "witness", "pass"}


def test_certify_delta_degenerate(f2, f2_ball6):
    # (e, e, e) is the only triple and compares no pair of points
    report = H.certify_delta(f2_ball6, 1, 0, seed=0, exhaustive_radius=0)
    assert report.evaluated == 0 and report.max_deviation == 0
    assert not report.passed


def test_certify_delta_counts_evaluated_triples(f2, f2_ball6):
    # the sweep over B(e, 1)^3 plus every sample, drawn as certify_delta
    # draws them; a triple counts only when (b|c)_a >= 1
    small = [w for w, d in zip(f2_ball6.words, f2_ball6.dist) if d <= 1]
    pool = f2_ball6.words
    rng = random.Random(1)
    sampled = [tuple(pool[rng.randrange(len(pool))] for _ in range(3)) for _ in range(7)]
    triples = list(itertools.product(small, repeat=3)) + sampled
    positive = sum(H.gromov_product(f2, *t) >= 1 for t in triples)
    assert 0 < positive < len(triples)
    report = H.certify_delta(f2_ball6, 1, 7, seed=1, exhaustive_radius=1)
    assert (report.evaluated, report.skipped) == (positive, 0)
    assert report.to_json()["evaluated"] == positive


def test_certify_delta_that_evaluated_nothing_does_not_pass(f2_ball6):
    report = H.certify_delta(f2_ball6, 1, 0, seed=0, exhaustive_radius=None)
    assert report.evaluated == 0 and report.max_deviation == 0
    assert not report.passed and report.to_json()["pass"] is False
    suite = run_suite(H.FreeGroupSpec(2), radius=2, samples=0, exhaustive_radius=None)
    cert = {c["name"]: c for c in suite["checks"]}["delta-certificate"]
    assert cert["inconclusive"] and not cert["passed"]
    assert "delta-certificate" in suite["inconclusive"]


def test_certify_delta_rejects_a_negative_exhaustive_radius(f2_ball6):
    with pytest.raises(ValueError):
        H.certify_delta(f2_ball6, 1, 0, seed=0, exhaustive_radius=-1)


def test_certify_delta_product(z23, z23_ball8):
    report = H.certify_delta(z23_ball8, 1, 1000, seed=13, exhaustive_radius=4)
    assert report.max_deviation <= 1
    assert report.passed


def _grid_ball_json(radius):
    """Z^2 with generators +-x, +-y as an explicit ball (the l1 ball)."""
    steps = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    verts = [(i, j) for i in range(-radius, radius + 1) for j in range(-radius, radius + 1)
             if abs(i) + abs(j) <= radius]
    inside = set(verts)
    edges = [[f"{i},{j}", gi, f"{i + di},{j + dj}"]
             for i, j in verts for gi, (di, dj) in enumerate(steps) if (i + di, j + dj) in inside]
    return {
        "generators": [{"label": "x", "inverse": 1}, {"label": "X", "inverse": 0},
                       {"label": "y", "inverse": 3}, {"label": "Y", "inverse": 2}],
        "basepoint": "0,0",
        "radius": radius,
        "vertices": [f"{i},{j}" for i, j in verts],
        "edges": edges,
    }


@pytest.mark.parametrize("r", [1, 2])
def test_exhaustive_sweep_reaches_three_times_its_radius(r):
    # on Z^2 the fat triangles make the sweep over B(e, r)^3 walk to length
    # exactly 3r: a ball of radius 3r supports it, one of radius 3r - 1 is
    # swept at r - 1 instead of failing
    for radius, swept in ((3 * r, r), (3 * r - 1, r - 1)):
        spec = H.ball_from_json(_grid_ball_json(radius))
        walk = spec._walk
        deepest = [0]

        def tracked(vid, letters):
            for x in letters:
                vid = walk(vid, (x,))
                deepest[0] = max(deepest[0], len(spec._vertex_word[vid]))
            return vid

        spec._walk = tracked
        report = H.certify_delta(H.build_ball(spec, r), 1, 0, seed=0, exhaustive_radius=r)
        assert report.exhaustive_radius == swept
        assert deepest[0] == 3 * swept


def test_parent_letters(f2_ball6, z23_ball6):
    # the search tree edge that first reached a vertex spells its last letter
    line2 = H.build_ball(H.ball_from_json(line2_ball_json(30)), 30)
    for ball in (f2_ball6, z23_ball6, line2):
        assert ball.parent_letters[0] == (-1, -1)
        assert len(ball.parent_letters) == len(ball.words) == len(ball.index)
        for h in range(1, len(ball.words)):
            par, letter = ball.parent_letters[h]
            w = ball.words[h]
            assert ball.words[par] == w[:-1]
            assert letter == w[-1]
            assert ball.index[w] == h and ball.dist[par] == ball.dist[h] - 1


def test_adjacency_symmetric(z23, z23_ball6):
    # every Cayley edge inside the ball is matched by its reverse edge
    inv = z23._inv
    for w in z23_ball6.words:
        for gi, nb in z23.neighbors(w):
            if nb in z23_ball6:
                assert (inv[gi], w) in set(z23.neighbors(nb))


@pytest.mark.parametrize("right", [False, True])
def test_walk_matches_products(f2, z23, f2_ball6, z23_ball6, right):
    for spec, ball in ((f2, f2_ball6), (z23, z23_ball6)):
        for start in (ball.words[0], ball.words[7], ball.words[-1]):
            expected = [spec.multiply(start, w) if right
                        else spec.multiply(spec.invert(w), start) for w in ball.words]
            assert ball.walk(start, right=right) == expected
