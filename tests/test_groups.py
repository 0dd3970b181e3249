"""Normal forms, the group law, and the Cayley-ball file format.

The free-product family is checked against an independent matrix oracle:
Z/2 * Z/3 is the projective special linear group over the integers, so the
word metric can be recomputed by breadth-first search over 2x2 matrices.
"""

import itertools
import json

import pytest

import hypaction as H
from hypaction.errors import (
    BallFileBasepointError,
    BallFileError,
    BallFileRadiusError,
    BallFileSymmetryError,
    OutOfWindowError,
    SpecMismatchError,
)

from line2 import line2_ball_json


# ---------------------------------------------------------------- basics


def test_identity_laws(f2):
    e = f2.identity()
    a = f2.parse("a")
    assert e == ()
    assert f2.multiply(e, a) == a
    assert f2.multiply(a, e) == a
    assert f2.invert(e) == e


def test_free_reduction(f2):
    assert f2.label_word(f2.multiply(f2.parse("ab"), f2.parse("BA"))) == "e"
    assert f2.label_word(f2.multiply(f2.parse("a"), f2.parse("a"))) == "aa"
    assert f2.label_word(f2.invert(f2.parse("ab"))) == "BA"
    assert f2.word_length(f2.parse("abA")) == 3
    assert f2.word_length(()) == 0


def test_cyclic_syllables(z23):
    t = z23.parse("t")
    assert z23.label_word(z23.multiply(t, t)) == "t^2"
    assert len(z23.multiply(t, t)) == 1
    assert z23.invert(t) == z23.parse("t^2")
    assert z23.word_length(z23.parse("t^2")) == 1
    s = z23.parse("s")
    assert z23.multiply(s, s) == ()
    assert z23.multiply(z23.parse("t^2"), t) == ()


def test_parse_forms(f2, z23):
    assert f2.parse("a^3") == f2.parse("aaa")
    assert f2.parse("a^-2") == f2.parse("AA")
    assert f2.parse("a^0") == ()
    assert f2.parse("e") == ()
    assert f2.parse("ab BA") == ()
    assert z23.parse("s t^2 s") == z23.parse("st^2s")
    # an exponent follows the longest label: on Z/5 * Z/2, s^3 is a label of
    # its own and s^2^3 is (s^2)^3 = s; on Z/2 * Z/3, s^2 is no label
    z52 = H.FreeProductSpec((5, 2))
    assert z52.parse("s^3") == (2,)
    assert z52.parse("s^2^3") == z52.parse("s")
    assert z52.parse("s^2^-1") == z52.parse("s^3")
    assert z23.parse("t^2^2") == z23.parse("t")
    assert f2.parse("b a^0 B") == ()
    for spec, text in ((f2, "xyz?"), (f2, "a^"), (f2, "a^-"), (f2, "a^ 2"), (f2, "^2"),
                       (z23, "s^2^3")):
        with pytest.raises(SpecMismatchError):
            spec.parse(text)


def test_parse_power_is_the_k_fold_product(f2, z23):
    line2 = H.ball_from_json(line2_ball_json(22))
    cases = ((f2, "a"), (f2, "B"), (z23, "s"), (z23, "t"), (z23, "t^2"), (line2, "p"),
             (line2, "Q"))
    for spec, label in cases:
        letter = spec.parse(label)
        for k in range(-7, 8):
            step = letter if k >= 0 else spec.invert(letter)
            expected = ()
            for _ in range(abs(k)):
                expected = spec.multiply(expected, step)
            assert spec.parse(f"{label}^{k}") == expected, (spec, label, k)


def test_parse_long_power(f2):
    # square-and-multiply: a long power costs O(log k) products
    assert f2.parse("a^100000") == (0,) * 100000
    assert f2.parse("a^-100000") == (1,) * 100000


def test_label_round_trip(f2, z23, f2_ball3):
    for w in f2_ball3.words:
        assert f2.parse(f2.label_word(w)) == w
    for w in H.build_ball(z23, 4).words:
        assert z23.parse(z23.label_word(w)) == w


def test_identity_is_spelled_one_where_a_generator_is_e():
    f4, f5 = H.FreeGroupSpec(4), H.FreeGroupSpec(5)
    assert f4.label_word(()) == "e" and f4.parse("e") == ()
    # from rank 5 on, e is the generator with index 8
    assert f5.label_word(()) == "1"
    assert f5.parse("e") == (8,) and f5.label_word((8,)) == "e"
    assert f5.parse("1") == () == f5.parse("")
    assert f5.parse("e^-2 E") == (9, 9, 9)
    for w in H.build_ball(f5, 2).words:
        assert f5.parse(f5.label_word(w)) == w


def test_ball_file_with_a_generator_labelled_e():
    data = H.ball_to_json(H.FreeProductSpec((2, 3)), 3)
    data["generators"][0]["label"] = "e"  # s, an involution
    spec = H.ball_from_json(data)
    assert spec.label_word(()) == "1"
    assert spec.parse("e") == (0,)
    assert spec.parse("ee") == () == spec.parse("1")
    for w in H.build_ball(spec, 3).words:
        assert spec.parse(spec.label_word(w)) == w
    data["generators"][0]["label"] = "1"
    with pytest.raises(ValueError, match="reserved for the identity"):
        H.ball_from_json(data)


@pytest.mark.parametrize("descriptor", ["free:2", "zm:2,3", "zm:3,4", "ball"])
def test_offset_is_the_validated_inverse_product(descriptor):
    if descriptor == "ball":
        spec = H.ball_from_json(H.ball_to_json(H.FreeProductSpec((2, 3)), 6))
        words = H.build_ball(spec, 3).words
    else:
        spec = H.spec_from_descriptor(descriptor)
        words = H.build_ball(spec, 3).words
    for a, b in itertools.product(words[:40], words):
        assert spec.offset(a, b) == spec.multiply(spec.invert(a), b)
    # a word that is not a normal form is refused in either place
    bad = {"free:2": (0, 1), "zm:2,3": (1, 2), "zm:3,4": (0, 1), "ball": (0, 9)}[descriptor]
    for a, b in ((bad, ()), ((), bad), (words[5], bad)):
        with pytest.raises(SpecMismatchError):
            spec.offset(a, b)


def test_group_laws_exhaustive_radius_3(f2, f2_ball3):
    words = f2_ball3.words
    for g in words:
        gi = f2.invert(g)
        assert f2.multiply(g, gi) == ()
        assert f2.invert(gi) == g
    mul = f2.multiply
    for x, y, z in itertools.product(words, repeat=3):
        assert mul(mul(x, y), z) == mul(x, mul(y, z))


def test_group_laws_product(z23):
    words = H.build_ball(z23, 3).words
    for x, y, z in itertools.product(words, repeat=3):
        assert z23.multiply(z23.multiply(x, y), z) == z23.multiply(x, z23.multiply(y, z))
    for g in words:
        assert z23.multiply(g, z23.invert(g)) == ()


def _syllable(spec, x):
    """(base letter, exponent) of a generator, read off its label."""
    base, _, exp = spec.generators[x].label.partition("^")
    if isinstance(spec, H.FreeGroupSpec):
        return base.lower(), 1 if base.islower() else -1
    return base, int(exp or 1)


def _reduce_letter_by_letter(spec, letters):
    """The normal form of a letter sequence, pushed one letter at a time on
    a stack: a letter cancels or merges with the top when their bases agree
    (exponents add, modulo the factor order on free products)."""
    generator_of = {_syllable(spec, x): x for x in range(len(spec.generators))}
    orders = dict(zip("stuvwxyz", getattr(spec, "orders", ())))
    out = []
    for x in letters:
        base, exp = _syllable(spec, x)
        if out and _syllable(spec, out[-1])[0] == base:
            total = _syllable(spec, out[-1])[1] + exp
            if base in orders:
                total %= orders[base]
            if total == 0:
                out.pop()
                continue
            if base in orders:
                out[-1] = generator_of[base, total]
                continue
        out.append(x)
    return tuple(out)


@pytest.mark.parametrize("descriptor", ["free:2", "zm:2,3", "zm:3,4"])
def test_mul_matches_letter_by_letter_reduction(descriptor):
    # zm:3,4 merges syllables to powers other than the inverse, and chains
    # of zero merges (u = x y, v = y^-1 x^-1) cancel through several pairs
    spec = H.spec_from_descriptor(descriptor)
    words = H.build_ball(spec, 4).words
    for u in words:
        for v in words:
            assert spec._mul(u, v) == _reduce_letter_by_letter(spec, u + v), (u, v)


def test_word_length_is_bfs_distance(f2, f2_ball6, z23, z23_ball6):
    for ball in (f2_ball6, z23_ball6):
        for w, d in zip(ball.words, ball.dist):
            assert len(w) == d


def test_normal_forms_distinct(f2_ball6):
    assert len(set(f2_ball6.words)) == len(f2_ball6.words)


def test_spec_mismatch(f2, z23):
    with pytest.raises(SpecMismatchError):
        f2.validate_word((99,))
    with pytest.raises(SpecMismatchError):
        f2.validate_word((0, 1))  # a followed by its inverse is not reduced
    with pytest.raises(SpecMismatchError):
        z23.validate_word((1, 2))  # two syllables of the t factor
    with pytest.raises(SpecMismatchError):
        f2.multiply(z23.parse("st"), ())  # st is (0, 1): not reduced in free:2


def test_generator_involution(f2, z23):
    for spec in (f2, z23):
        for g in spec.generators:
            assert spec.generators[g.inverse].inverse == g.index


# ---------------------------------------------------------------- matrix oracle


def _pnorm(m):
    for x in m:
        if x:
            return m if x > 0 else tuple(-y for y in m)
    raise AssertionError("zero matrix")


def _pmul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return _pnorm((a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h))


def _psl2_generators(z23):
    s = _pnorm((0, -1, 1, 0))
    t = _pnorm((0, -1, 1, -1))
    mats = {"s": s, "t": t, "t^2": _pmul(t, t)}
    return [mats[g.label] for g in z23.generators]


def test_product_against_matrix_oracle(z23, z23_ball6):
    gens = _psl2_generators(z23)
    ident = _pnorm((1, 0, 0, 1))
    dist = {ident: 0}
    frontier = [ident]
    for r in range(1, 7):
        nxt = []
        for m in frontier:
            for g in gens:
                mg = _pmul(m, g)
                if mg not in dist:
                    dist[mg] = r
                    nxt.append(mg)
        frontier = nxt
    seen = {}
    for w in z23_ball6.words:
        m = ident
        for x in w:
            m = _pmul(m, gens[x])
        assert dist[m] == len(w)
        assert m not in seen, "two normal forms map to one matrix"
        seen[m] = w
    assert len(seen) == len(z23_ball6.words) == len(dist)


def test_product_multiplication_matches_matrices(z23, z23_ball6):
    gens = _psl2_generators(z23)
    ident = _pnorm((1, 0, 0, 1))

    def rep(w):
        m = ident
        for x in w:
            m = _pmul(m, gens[x])
        return m

    words = z23_ball6.words
    import random

    rng = random.Random(4)
    for _ in range(300):
        u = words[rng.randrange(len(words))]
        v = words[rng.randrange(len(words))]
        assert rep(z23.multiply(u, v)) == _pmul(rep(u), rep(v))


# ---------------------------------------------------------------- growth series


def test_sphere_counts_free(f2_ball6):
    sizes = f2_ball6.layer_sizes()
    assert sizes[0] == 1
    for n in range(1, 7):
        assert sizes[n] == 4 * 3 ** (n - 1)


def test_sphere_counts_product(z23, z23_ball8):
    # words ending in each factor: c_r[i] = (m_i - 1) * sum of the others
    orders = z23.orders
    k = len(orders)
    c = [m - 1 for m in orders]
    expected = [1]
    for _ in range(8):
        expected.append(sum(c))
        c = [(orders[i] - 1) * (sum(c) - c[i]) for i in range(k)]
    assert z23_ball8.layer_sizes() == expected


# ---------------------------------------------------------------- ball files


def test_ball_file_round_trip_free(f2, tmp_path):
    data = H.ball_to_json(f2, 3)
    path = tmp_path / "f2r3.json"
    path.write_text(json.dumps(data))
    spec = H.load_ball_file(path, delta=1)
    ball = H.build_ball(spec, 3)
    assert len(ball) == 2 * 3 ** 3 - 1 == 53
    assert ball.layer_sizes() == [1, 4, 12, 36]
    ab = spec.parse("ab")
    assert spec.word_length(ab) == 2
    assert H.distance(spec, spec.parse("a"), ab) == 1


def test_ball_file_round_trip_product(z23, tmp_path):
    path = tmp_path / "z23r4.json"
    path.write_text(json.dumps(H.ball_to_json(z23, 4)))
    spec = H.load_ball_file(path, delta=1)
    native = H.build_ball(z23, 4)
    assert H.build_ball(spec, 4).layer_sizes() == native.layer_sizes()
    t = spec.parse("t")
    assert spec.invert(t) == spec.parse("t^2")
    assert spec.word_length(spec.multiply(t, t)) == 1


def test_ball_file_adjacency_rows_match_native(z23):
    spec = H.ball_from_json(H.ball_to_json(z23, 5), delta=1)
    words = H.build_ball(z23, 5).words
    for u in words:
        assert list(spec.neighbors(u)) == [
            (gi, nb) for gi, nb in z23.neighbors(u) if len(nb) <= 5
        ]
        for v in words:
            if len(u) + len(v) <= 5:
                assert spec._mul(u, v) == z23._mul(u, v)


def test_ball_file_out_of_window(f2):
    spec = H.ball_from_json(H.ball_to_json(f2, 2), delta=1)
    deep = spec.parse("ab")
    with pytest.raises(OutOfWindowError):
        spec.multiply(deep, deep)
    with pytest.raises(OutOfWindowError):
        spec.validate_word((0, 2, 0))  # a valid letter string absent from the ball


def test_ball_file_errors(f2):
    good = H.ball_to_json(f2, 2)

    missing = dict(good)
    del missing["vertices"]
    with pytest.raises(BallFileError):
        H.ball_from_json(missing)

    asym = json.loads(json.dumps(good))
    asym["edges"] = [e for e in asym["edges"] if not (e[0] == "e" and e[1] == 0)]
    with pytest.raises(BallFileSymmetryError):
        H.ball_from_json(asym)

    nobase = dict(good)
    nobase["basepoint"] = "nowhere"
    with pytest.raises(BallFileBasepointError):
        H.ball_from_json(nobase)

    badradius = dict(good)
    badradius["radius"] = 5
    with pytest.raises(BallFileRadiusError):
        H.ball_from_json(badradius)


def test_descriptor_parsing(tmp_path):
    assert H.spec_from_descriptor("free:2").name == "free:2"
    assert H.spec_from_descriptor("zm:2,3").orders == (2, 3)
    with pytest.raises(ValueError):
        H.spec_from_descriptor("dihedral:7")
    # delta defaults to 1 and is otherwise passed on, 0 included
    assert H.spec_from_descriptor("free:2").delta == 1
    assert H.spec_from_descriptor("zm:2,3", delta=None).delta == 1
    assert H.spec_from_descriptor("free:2", delta=2).delta == 2
    ball = tmp_path / "f2r2.json"
    ball.write_text(json.dumps(H.ball_to_json(H.FreeGroupSpec(2), 2)))
    for descriptor in ("free:2", "zm:2,3", f"ball:{ball}"):
        with pytest.raises(ValueError, match="delta"):
            H.spec_from_descriptor(descriptor, delta=0)


@pytest.mark.parametrize("spec, exact", [
    (H.FreeGroupSpec(2), True),
    (H.FreeGroupSpec(2, delta=2), False),
    (H.FreeProductSpec((2, 2, 2)), True),
    (H.FreeProductSpec((2, 2, 2), delta=2), False),
    (H.FreeProductSpec((2, 3)), False),
    (H.ball_from_json(H.ball_to_json(H.FreeGroupSpec(2), 3)), False),
], ids=["free:2", "free:2-delta2", "zm:2,2,2", "zm:2,2,2-delta2", "zm:2,3", "ball"])
def test_exact_tree_flag(spec, exact):
    # a tree Cayley graph with delta = 1; a ball file is never assumed a tree
    assert spec.exact_tree is exact
