"""Property tests: group laws, bicombing equivariance, and the chain f.

The families are the free group of rank 2, the free products Z/2 * Z/3,
Z/2 * Z/2 * Z/2 and Z/3 * Z/4 (whose syllables merge to powers other than
the inverse), and the integers with generators {+-1, +-2} loaded as
an explicit ball, whose radius leaves every product and chain of these
tests inside it. Words are grown from e one distance-increasing edge at a
time, so their lengths spread up to MAX_LENGTH and chains reach the
flowers at distance 20 and 30. Examples are drawn deterministically and
no example database is kept, so a run is reproducible and writes nothing
into the checkout.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypaction as H

from line2 import line2_ball_json

# On the line2 ball of radius 80 the deepest request, f(gb, ga) with words
# of length at most 16, reaches |gb| + d(gb, ga) + delta <= 32 + 32 + 1
MAX_LENGTH = 16

PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)


@pytest.fixture(scope="module", params=["free:2", "zm:2,3", "zm:2,2,2", "zm:3,4", "line2"])
def engine(request):
    if request.param == "line2":
        return H.ChainEngine(H.ball_from_json(line2_ball_json(80), delta=1))
    return H.ChainEngine(H.spec_from_descriptor(request.param))


def draw_words(data, spec, n):
    """n random elements of length at most MAX_LENGTH."""
    out = []
    for _ in range(n):
        w = ()
        for _ in range(data.draw(st.integers(0, MAX_LENGTH))):
            w = data.draw(st.sampled_from(
                [nb for _, nb in spec.neighbors(w) if len(nb) == len(w) + 1]))
        out.append(w)
    return out


@PROPERTY
@given(data=st.data())
def test_group_laws(engine, data):
    spec = engine.spec
    x, y, z = draw_words(data, spec, 3)
    assert spec.multiply(spec.multiply(x, y), z) == spec.multiply(x, spec.multiply(y, z))
    assert spec.multiply(x, ()) == x == spec.multiply((), x)
    assert spec.multiply(x, spec.invert(x)) == () == spec.multiply(spec.invert(x), x)
    assert spec.word_length(spec.invert(x)) == spec.word_length(x)
    assert spec.word_length(spec.multiply(x, y)) <= len(x) + len(y)


@PROPERTY
@given(data=st.data())
def test_bicombing_geodesic_and_equivariant(engine, data):
    spec, q = engine.spec, engine.q
    g, a, b = draw_words(data, spec, 3)
    path = q.q_path(a, b)
    assert path[0] == a and path[-1] == b
    assert len(path) == H.distance(spec, a, b) + 1
    assert all(H.distance(spec, u, v) == 1 for u, v in zip(path, path[1:]))
    moved = tuple(spec.multiply(g, w) for w in path)
    assert q.q_path(spec.multiply(g, a), spec.multiply(g, b)) == moved


@PROPERTY
@given(data=st.data())
def test_f_convexity_and_support(engine, data):
    spec = engine.spec
    ten = engine.ten_delta
    b, a = draw_words(data, spec, 2)
    f = engine.f_chain(b, a)
    assert sum(f.values()) == 1 and all(c > 0 for c in f.values())
    if H.distance(spec, b, a) <= ten:
        assert f == {a: Fraction(1)}
    else:
        center = engine.q.q_point(b, a, ten)
        for w in f:
            assert H.distance(spec, b, w) == ten
            assert H.distance(spec, center, w) <= spec.delta


@PROPERTY
@given(data=st.data())
def test_f_literal_equivariance(engine, data):
    spec = engine.spec
    g, b, a = draw_words(data, spec, 3)
    literal = engine.f_chain_literal(b, a)
    assert engine.f_chain(b, a) == literal
    moved = engine.f_chain_literal(spec.multiply(g, b), spec.multiply(g, a))
    assert moved == H.translate(spec, g, literal)
