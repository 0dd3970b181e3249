"""Normal forms, the group law, and the Cayley-ball file format.

The free-product family is checked against an independent matrix oracle:
Z/2 * Z/3 is the projective special linear group over the integers, so the
word metric can be recomputed by breadth-first search over 2x2 matrices.
``_law_oracle`` extends it to free groups and line2, so that products and
inverses are checked on every family by arithmetic that shares nothing with
the spec's own product.
"""

import functools
import itertools
import json
import operator
import random

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

from line2 import STEPS, line2_ball_json


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
        dist = [r for r, size in enumerate(ball.layer_sizes()) for _ in range(size)]
        assert [len(w) for w in ball.words] == dist


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


def _law_oracle(spec):
    """(image of a word, product of images, identity image): a faithful
    image of the group read off a word's letters alone, sharing nothing with
    ``_mul``.

    free:2 goes to Sanov's matrices a -> [[1,2],[0,1]], b -> [[1,0],[2,1]],
    which generate a free subgroup of SL(2, Z) without -I, so up to sign too;
    free:n goes into free:2 by x_i -> b^i a b^-i, a free basis of a subgroup.
    zm:2,3 is PSL(2, Z) (``_psl2_generators``), and line2 is Z by endpoints.
    """
    if isinstance(spec, H.FreeGroupSpec):
        ident = _pnorm((1, 0, 0, 1))
        a, a_inv, b, b_inv = ((1, 2, 0, 1), (1, -2, 0, 1), (1, 0, 2, 1), (1, 0, -2, 1))
        gens = []
        for i in range(spec.rank):
            conj = functools.reduce(_pmul, [b] * i, ident)
            conj_inv = functools.reduce(_pmul, [b_inv] * i, ident)
            gens += [_pmul(_pmul(conj, x), conj_inv) for x in (a, a_inv)]
        mul = _pmul
    elif isinstance(spec, H.FreeProductSpec):
        ident, gens, mul = _pnorm((1, 0, 0, 1)), _psl2_generators(spec), _pmul
    else:
        ident, gens, mul = 0, STEPS, operator.add
    return (lambda w: functools.reduce(mul, (gens[x] for x in w), ident)), mul, ident


# family -> (spec, the ball whose normal forms are compared, its size)
_ORACLE_BALLS = {
    "free:2": (H.FreeGroupSpec(2), 9, 39_365),
    "free:3": (H.FreeGroupSpec(3), 5, 4_687),
    "zm:2,3": (H.FreeProductSpec((2, 3)), 20, 7_162),
    "line2": (H.ball_from_json(line2_ball_json(30)), 30, 121),
}


@pytest.fixture(scope="module", params=sorted(_ORACLE_BALLS))
def oracle_ball(request):
    spec, radius, size = _ORACLE_BALLS[request.param]
    ball = H.build_ball(spec, radius)
    assert len(ball) == size
    image, mul, ident = _law_oracle(spec)
    images = {(): ident}
    for w in ball.words[1:]:  # breadth-first, and normal forms are prefix-closed
        images[w] = mul(images[w[:-1]], image(w[-1:]))
    return spec, ball, images


def test_law_oracle_separates_the_normal_forms_of_a_ball(oracle_ball):
    spec, ball, images = oracle_ball
    assert len(set(images.values())) == len(ball)


def test_mul_and_inverse_agree_with_the_law_oracle(oracle_ball):
    spec, ball, images = oracle_ball
    image, mul, ident = _law_oracle(spec)
    # on a ball file a product stays represented within the ball's radius
    words = [w for w in ball.words if 2 * len(w) <= spec.max_word_length]
    rng = random.Random(21)
    for _ in range(20_000):
        u, v = words[rng.randrange(len(words))], words[rng.randrange(len(words))]
        uv, u_inv = spec._mul(u, v), spec._inv_word(u)
        spec.validate_word(uv)
        spec.validate_word(u_inv)
        assert image(uv) == mul(images[u], images[v]), (u, v)
        assert mul(image(u_inv), images[u]) == ident, u


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


@pytest.mark.parametrize("descriptor, radius", [("free:2", 3), ("zm:2,3", 5)])
def test_ball_file_products_match_the_right_walk(descriptor, radius):
    # the oracle walks the file's edges letter by letter, from u along v; the
    # spec may walk either factor where no walk leaves the ball, and must
    # fail exactly where this walk leaves it. Both groups are non-abelian, so
    # a table of right products standing in for left ones fails here
    data = H.ball_to_json(H.spec_from_descriptor(descriptor), radius)
    spec = H.ball_from_json(data, delta=1)
    edges = {(src, gi): dst for src, gi, dst in data["edges"]}
    words = H.build_ball(spec, radius).words
    label = spec.label_word
    assert sorted(map(label, words)) == sorted(data["vertices"])

    def walk(start, letters):
        for x in letters:
            start = edges.get((start, x))
            if start is None:
                return None
        return start

    outside = 0
    for u in words:
        inverse_letters = [spec._inv[x] for x in reversed(u)]
        assert label(spec._inv_word(u)) == walk(data["basepoint"], inverse_letters)
        for v in words:
            expected = walk(label(u), v)
            if expected is None:
                outside += 1
                with pytest.raises(OutOfWindowError):
                    spec._mul(u, v)
            else:
                assert label(spec._mul(u, v)) == expected
    assert outside


def test_ball_file_out_of_window(f2):
    spec = H.ball_from_json(H.ball_to_json(f2, 2), delta=1)
    deep = spec.parse("ab")
    with pytest.raises(OutOfWindowError):
        spec.multiply(deep, deep)
    with pytest.raises(OutOfWindowError):
        spec.validate_word((0, 2, 0))  # a valid letter string absent from the ball


def test_ball_file_short_words_off_the_ball_are_not_normal_forms():
    # a letter string no longer than the radius is a normal form exactly when
    # it is a vertex word; a longer one may be one beyond the ball
    spec = H.ball_from_json(line2_ball_json(30), delta=1)
    p, big_p, q = (spec.parse(x)[0] for x in ("p", "P", "q"))
    with pytest.raises(SpecMismatchError):
        spec.validate_word((p, big_p))
    with pytest.raises(SpecMismatchError):
        spec.validate_word((q, p))  # p q is the normal form of 3
    with pytest.raises(OutOfWindowError):
        spec.validate_word((q,) * 31)


def _integers_ball_json(gens, radius):
    """Z as a ball file, from (label, step, inverse index) per generator."""
    verts = range(-radius, radius + 1)
    return {
        "generators": [{"label": label, "inverse": inv} for label, _, inv in gens],
        "basepoint": "0",
        "radius": radius,
        "vertices": [str(n) for n in verts],
        "edges": [[str(n), gi, str(n + step)] for n in verts
                  for gi, (_, step, _) in enumerate(gens) if abs(n + step) <= radius],
    }


@pytest.mark.parametrize("gens, message", [
    ([("p", 1, 1), ("P", -1, 0), ("r", 1, 3), ("R", -1, 2)], "'r' is 'p'"),
    ([("p", 1, 1), ("P", -1, 0), ("i", 0, 2)], "'i' is the identity"),
])
def test_ball_file_generators_are_distinct_and_not_the_identity(gens, message):
    # both files are consistent Cayley graphs of Z, but a duplicate or an
    # identity generator is no vertex word of its own
    with pytest.raises(BallFileError, match=message):
        H.ball_from_json(_integers_ball_json(gens, 3))
    H.ball_from_json(_integers_ball_json(gens[:2], 3))


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


def _line2_edited(edit):
    """The radius-3 line2 ball file after ``edit(data)``."""
    data = line2_ball_json(3)
    edit(data)
    return data


def _drop_edges(*dropped):
    def edit(data):
        data["edges"] = [e for e in data["edges"] if tuple(e) not in dropped]
    return edit


# each fault -> the exact error type and message of the loader
BALL_FILE_FAULTS = {
    "malformed-edge": (lambda data: data["edges"].append(["0", 0]), BallFileError,
                       "malformed ball file: not enough values to unpack (expected 3, got 2)"),
    "duplicate-vertex": (lambda data: data["vertices"].append("0"), BallFileError,
                         "duplicate vertex ids"),
    "unknown-vertex": (lambda data: data["edges"].append(["0", 0, "99"]), BallFileError,
                       "edge (0, 0, 99) references unknown data"),
    "unknown-generator": (lambda data: data["edges"].append(["0", 4, "1"]), BallFileError,
                          "edge (0, 4, 1) references unknown data"),
    "conflicting-edges": (lambda data: data["edges"].append(["0", 0, "2"]), BallFileError,
                          "conflicting edges at (0, generator 0)"),
    "unreachable-vertex": (lambda data: data["vertices"].append("island"),
                           BallFileRadiusError,
                           "some vertices are unreachable from the basepoint"),
    # no generator row to count the vertices by
    "no-generators": (lambda data: data.update(generators=[], edges=[]), BallFileRadiusError,
                      "some vertices are unreachable from the basepoint"),
    # 1 is still reached through 2, so only the edges at 0 are missing
    "missing-interior-edge": (_drop_edges(("0", 0, "1"), ("1", 1, "0")), BallFileError,
                              "interior vertex at distance 0 is missing a generator edge"),
    # two edges without reverses: the first vertex holding one is reported,
    # though the other fault is on a lower generator
    "first-asymmetric-edge": (_drop_edges(("-5", 2, "-3"), ("5", 1, "4")),
                              BallFileSymmetryError, "edge (-3, 3, -5) has no reverse"),
}


@pytest.mark.parametrize("fault", sorted(BALL_FILE_FAULTS))
def test_ball_file_faults_raise_their_exact_errors(fault):
    edit, error, message = BALL_FILE_FAULTS[fault]
    H.ball_from_json(line2_ball_json(3))
    with pytest.raises(BallFileError) as info:
        H.ball_from_json(_line2_edited(edit))
    assert (type(info.value), str(info.value)) == (error, message)


def test_unreadable_ball_files_raise_ball_file_errors(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(BallFileError) as info:
        H.load_ball_file(missing)
    assert type(info.value) is BallFileError
    assert isinstance(info.value.__cause__, FileNotFoundError)
    assert str(info.value) == f"cannot read ball file {missing}: {info.value.__cause__}"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(BallFileError) as info:
        H.load_ball_file(bad)
    assert type(info.value) is BallFileError
    assert str(info.value) == (f"cannot read ball file {bad}: Expecting property name "
                               "enclosed in double quotes: line 1 column 2 (char 1)")


def test_ball_file_inverse_past_the_last_generator():
    data = H.ball_to_json(H.FreeGroupSpec(1), 2)
    data["generators"][0]["inverse"] = 5
    with pytest.raises(BallFileError, match="not an involution"):
        H.ball_from_json(data)


@pytest.mark.parametrize("field, value", [("inverse", 1.9), ("radius", 1.5),
                                          ("edge", 0.7), ("inverse", True)])
def test_ball_file_integer_fields_must_be_integers(field, value):
    # int() would read each as a valid index or radius of this free:1 ball
    data = H.ball_to_json(H.FreeGroupSpec(1), 1)
    H.ball_from_json(data)
    if field == "inverse":
        data["generators"][0]["inverse"] = value
    elif field == "radius":
        data["radius"] = value
    else:
        edge = next(e for e in data["edges"] if e[1] == 0)
        edge[1] = value
    with pytest.raises(BallFileError, match="must be an integer"):
        H.ball_from_json(data)


@pytest.mark.parametrize("label", ["", "a b", " a"])
def test_ball_file_labels_are_nonempty_without_whitespace(label):
    # an empty label would match at every position of parse's input, and
    # parse splits its input on whitespace
    data = H.ball_to_json(H.FreeGroupSpec(2), 2)
    data["generators"][0]["label"] = label
    with pytest.raises(ValueError, match="nonempty and hold no whitespace"):
        H.ball_from_json(data)


@pytest.mark.parametrize("label", [None, 5, ["a"], True])
def test_ball_file_labels_must_be_strings(label):
    # str() would read null as the label "None" and 5 as "5"
    data = H.ball_to_json(H.FreeGroupSpec(1), 1)
    data["generators"][0]["label"] = label
    with pytest.raises(BallFileError, match="label must be a string"):
        H.ball_from_json(data)


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
