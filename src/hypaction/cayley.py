"""Finite Cayley balls, the word metric, Gromov products and fineness checks."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .bicombing import Bicombing
from .errors import OutOfWindowError, ResourceBudgetError
from .groups import GroupSpec, Word


class CayleyBall:
    """The ball B(e, R): vertices in breadth-first order with dense handles.

    Immutable after construction; queries are pure. ``words[h]`` is the
    normal form of vertex handle h, ``index`` maps it back to h and
    ``dist[h]`` is its distance from the identity. ``parent_letters[h]`` is
    the edge of the search tree that first reached h, (parent handle,
    generator); normal forms are prefix-closed, so ``words[h]`` is the
    parent's word followed by that generator. Entry 0 is (-1, -1).
    """

    def __init__(self, spec: GroupSpec, radius: int, words, index, dist, parent_letters,
                 layer_bounds):
        self.spec = spec
        self.radius = radius
        self.words: list[Word] = words
        self.index: dict[Word, int] = index
        self.dist: list[int] = dist
        self.parent_letters: list[tuple[int, int]] = parent_letters
        self._layer_bounds = layer_bounds

    def __len__(self):
        return len(self.words)

    def __contains__(self, w: Word):
        return w in self.index

    def layer_sizes(self) -> list[int]:
        return [self._layer_bounds[r + 1] - self._layer_bounds[r] for r in range(self.radius + 1)]

    def walk(self, start: Word, right: bool = False) -> list[Word]:
        """``gamma^-1 start`` for every vertex gamma, or ``start gamma`` when
        ``right``, indexed by handle.

        Built along the BFS tree by ``GroupSpec._walk_tree``, one letter step
        per vertex, so a sweep over the ball needs no inversions or full
        products. On an explicit ball each step is one table lookup on
        vertex handles, a left step included, and the handles are mapped to
        words once at the end.
        """
        return self.spec._walk_tree(self.parent_letters, start, right)


def build_ball(spec: GroupSpec, radius: int, max_vertices: int | None = None) -> CayleyBall:
    """Materialize B(e, radius) by breadth-first search over the group law."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if radius > spec.max_word_length:
        raise OutOfWindowError(
            f"requested radius {radius} exceeds the longest word of the spec, "
            f"{spec.max_word_length}"
        )
    words: list[Word] = [()]
    dist = [0]
    index: dict[Word, int] = {(): 0}
    parents = [(-1, -1)]
    layer_bounds = [0, 1]
    for r in range(1, radius + 1):
        for h in range(layer_bounds[-2], layer_bounds[-1]):
            for gi, nb in spec.neighbors(words[h]):
                if nb not in index:
                    index[nb] = len(words)
                    words.append(nb)
                    dist.append(r)
                    parents.append((h, gi))
                    if max_vertices is not None and len(words) > max_vertices:
                        raise ResourceBudgetError(
                            f"ball exceeds the budget of {max_vertices} vertices at radius {r}"
                        )
        layer_bounds.append(len(words))
    return CayleyBall(spec, radius, words, index, dist, parents, layer_bounds)


def ball_to_json(spec: GroupSpec, radius: int) -> dict:
    """Serialize the radius-R ball of a spec to the Cayley-ball file format."""
    ball = build_ball(spec, radius)
    ids = {w: spec.label_word(w) for w in ball.words}
    edges = [[ids[w], gi, ids[nb]]
             for w in ball.words for gi, nb in spec.neighbors(w) if nb in ids]
    return {
        "generators": [{"label": g.label, "inverse": g.inverse} for g in spec.generators],
        "basepoint": ids[()],
        "radius": radius,
        "vertices": [ids[w] for w in ball.words],
        "edges": edges,
    }


def distance(spec: GroupSpec, a: Word, b: Word) -> int:
    """Word metric d(a, b), computed left-invariantly as |a^-1 b|."""
    return len(spec.offset(a, b))


def gromov_product(spec: GroupSpec, a: Word, b: Word, c: Word) -> Fraction:
    """(b|c)_a = [d(a,b) + d(a,c) - d(b,c)] / 2, exact as a half-integer."""
    return Fraction(distance(spec, a, b) + distance(spec, a, c) - distance(spec, b, c), 2)


@dataclass
class CertReport:
    """Result of a fineness certification run. It passes only when some
    triple was evaluated; with none evaluated it is inconclusive."""

    delta: int
    samples: int
    evaluated: int
    skipped: int
    max_deviation: int
    witness: list[str] = field(default_factory=list)
    passed: bool = False
    exhaustive_radius: int | None = None
    note: str = (
        "internal points are taken on the bicombing geodesics only, for the "
        "sampled triples and for every triple of the exhaustive sweep over "
        "B(e, r)^3; no other geodesic is checked"
    )

    def to_json(self) -> dict:
        return {
            "delta": self.delta,
            "samples": self.samples,
            "evaluated": self.evaluated,
            "skipped": self.skipped,
            "max_deviation": self.max_deviation,
            "witness": self.witness,
            "pass": self.passed,
            "exhaustive_radius": self.exhaustive_radius,
            "note": self.note,
        }


def certify_delta(
    ball: CayleyBall,
    samples: int,
    seed: int,
    exhaustive_radius: int | None = None,
) -> CertReport:
    """Check the fine-triangle condition on sampled (and small exhaustive) triples.

    For a triple (a, b, c) the points v = q[a,b](t) and w = q[a,c](t) with
    t = 0 .. floor((b|c)_a) must satisfy d(v, w) <= ball.spec.delta. A triple counts
    as evaluated only when (b|c)_a >= 1, so that some pair of points is
    compared. The report carries the maximal observed deviation and a
    maximizing witness triple.

    The exhaustive sweep over B(e, r)^3 multiplies out words of length up
    to 3r: d(v, w) walks from v^-1 along the word of w, which stays within
    (|b| + |c| + d(a,b) + d(a,c)) / 2 <= 3r of the identity, and every
    other product of the sweep stays within 2r + 1 (3r is attained on Z^2).
    So r is clamped to the ball and to a third of the longest word of the
    spec, and the report gives the radius swept. A negative r is an error.
    """
    spec = ball.spec
    mul, inv_word = spec._mul, spec._inv_word
    q = Bicombing(spec)
    rng = random.Random(seed)
    max_dev = 0
    witness: list[str] = []
    evaluated = skipped = 0
    if exhaustive_radius is not None:
        if exhaustive_radius < 0:
            raise ValueError("the exhaustive radius must be nonnegative")
        # max_word_length is infinite on the built-in families
        exhaustive_radius = int(min(exhaustive_radius, ball.radius, spec.max_word_length / 3))

    def check(a: Word, b: Word, c: Word) -> None:
        nonlocal max_dev, witness, evaluated
        top = int(gromov_product(spec, a, b, c))
        if top:
            pab = q.q_path(a, b)
            pac = q.q_path(a, c)
            for t in range(1, top + 1):
                # bicombing points are normal forms; no validation needed
                dev = len(mul(inv_word(pab[t]), pac[t]))
                if dev > max_dev:
                    max_dev = dev
                    witness = [spec.label_word(x) for x in (a, b, c)]
            evaluated += 1

    if exhaustive_radius is not None:
        small = [w for w, d in zip(ball.words, ball.dist) if d <= exhaustive_radius]
        for a in small:
            for b in small:
                for c in small:
                    check(a, b, c)

    pool = ball.words
    for _ in range(samples):
        a, b, c = (pool[rng.randrange(len(pool))] for _ in range(3))
        try:
            check(a, b, c)
        except OutOfWindowError:
            skipped += 1

    return CertReport(
        delta=spec.delta,
        samples=samples,
        evaluated=evaluated,
        skipped=skipped,
        max_deviation=max_dev,
        witness=witness,
        passed=evaluated > 0 and max_dev <= spec.delta,
        exhaustive_radius=exhaustive_radius,
    )
