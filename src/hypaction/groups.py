"""Group elements as canonical normal-form words over a symmetric generating set.

A vertex of the Cayley graph is represented by the normal form of the group
element it stands for: a tuple of generator indices (``Word``). The empty
tuple is the identity. A :class:`GroupSpec` owns the generating set and
provides multiplication, inversion, geodesic word length, parsing and
printing. Each family has one product routine, ``_mul``, for one-letter and
long words alike, and every two-point quantity is computed at the identity
from the one validated word ``offset(a, b)`` = a^-1 b. Three families are
supported:

* free groups of finite rank,
* free products of finite cyclic groups, generated by all nontrivial powers
  of each cyclic generator (so every syllable is a single letter and the
  syllable count is the word metric),
* explicit finite Cayley balls loaded from a JSON file, for groups whose
  word problem is not solved here. Their vertices are integer handles;
  per-generator tables of right products (the file's edges) and of left
  products, and a table of inverses, make an inverse one lookup, a product
  a walk of its shorter factor and each step of a walk along a ball's
  search tree one lookup.

Specs and words are immutable; every operation is pure and safe to share
across threads.
"""

from __future__ import annotations

import json
import math
import re
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    BallFileBasepointError,
    BallFileError,
    BallFileRadiusError,
    BallFileSymmetryError,
    OutOfWindowError,
    SpecMismatchError,
)

Word = tuple[int, ...]

_EXPONENT_RE = re.compile(r"\^(-?\d+)")


@dataclass(frozen=True)
class Generator:
    """One element of the symmetric generating set."""

    index: int
    label: str
    inverse: int


class GroupSpec:
    """Base class for the group families. Instances are immutable.

    Invariant of every family: the normal form of an element is its
    shortlex-least geodesic word, with letters ordered as the generators are
    declared. Free groups and free products have a unique geodesic word per
    element; an explicit ball's breadth-first search reaches each vertex
    first by its shortlex-least word. So the prefixes of a normal form are
    normal forms, and they spell the bicombing's geodesic from e.
    """

    # set on families whose Cayley graph is a tree and delta = 1: every flower
    # is {x}, every chain is a point mass and the cocycle norm is counted in
    # closed form
    exact_tree = False
    # the longest normal form the spec can represent; finite only on
    # explicit balls, where words end at the boundary of the loaded ball
    max_word_length: float = math.inf
    # the number of vertex handles on a family that numbers its elements
    # (explicit balls), which provides ``_walk_handles``, ``_vertex_word``
    # and ``_word_vertex``; 0 where words are the only handles
    vertex_count = 0

    def __init__(self, generators: tuple[Generator, ...], delta: int, name: str):
        if delta < 1:
            raise ValueError("the fineness constant delta must be a positive integer")
        self.generators = tuple(generators)
        self.delta = int(delta)
        self.name = name
        self._inv = tuple(g.inverse for g in self.generators)
        n = len(self.generators)
        for g in self.generators:
            if not (0 <= g.inverse < n) or self.generators[g.inverse].inverse != g.index:
                raise ValueError(f"generator inverses are not an involution at {g.label!r}")
        self._by_label = {g.label: g.index for g in self.generators}
        if len(self._by_label) != n:
            raise ValueError("generator labels must be distinct")
        if any(label.split() != [label] for label in self._by_label):
            raise ValueError("generator labels must be nonempty and hold no whitespace")
        if "1" in self._by_label:
            raise ValueError("the label '1' is reserved for the identity")
        self._labels_desc = sorted(self._by_label, key=len, reverse=True)
        # the identity is spelled 'e' unless a generator has that label
        self.identity_label = "1" if "e" in self._by_label else "e"

    # -- group law ---------------------------------------------------------

    def identity(self) -> Word:
        return ()

    def multiply(self, u: Word, v: Word) -> Word:
        """Normal form of the product u*v."""
        self.validate_word(u)
        self.validate_word(v)
        return self._mul(u, v)

    def invert(self, u: Word) -> Word:
        self.validate_word(u)
        return self._inv_word(u)

    def offset(self, a: Word, b: Word) -> Word:
        """Normal form of a^-1 b, after validating a and b. Left-invariance
        gives every two-point quantity from it: f(a, b) = a . f(e, a^-1 b)."""
        self.validate_word(a)
        self.validate_word(b)
        return self._mul(self._inv_word(a), b)

    def word_length(self, u: Word) -> int:
        """Geodesic distance from the identity (the word metric)."""
        self.validate_word(u)
        return len(u)

    def _mul(self, u: Word, v: Word) -> Word:
        """The product of two normal forms, unvalidated: the one product
        routine of the family, short words included."""
        raise NotImplementedError

    def _inv_word(self, u: Word) -> Word:
        inv = self._inv
        return tuple(inv[x] for x in reversed(u))

    def validate_word(self, u: Word) -> None:
        """Raise SpecMismatchError unless u is a normal form of this spec."""
        raise NotImplementedError

    def _walk_tree(self, parent_letters, start: Word, right: bool = False) -> list[Word]:
        """``start`` carried along a search tree: entry h is ``w^-1 start``,
        or ``start w`` when ``right``, for the word w the tree spells to h.
        ``parent_letters[h]`` is (parent, generator); entry 0 is the root.
        One letter product per vertex."""
        mul = self._mul
        letters = [(x,) for x in range(len(self.generators))]
        inverses = [letters[x] for x in self._inv]
        out = [start] * len(parent_letters)
        for h, (par, letter) in enumerate(parent_letters):
            if h:
                out[h] = mul(out[par], letters[letter]) if right else mul(inverses[letter], out[par])
        return out

    # -- enumeration helpers ------------------------------------------------

    def neighbors(self, u: Word):
        """Yield (generator index, neighbor word) for every Cayley edge at u."""
        mul = self._mul
        for i in range(len(self.generators)):
            yield i, mul(u, (i,))

    # -- text --------------------------------------------------------------

    def parse(self, text: str) -> Word:
        """Parse a word like 'abA', 's t^2 s' or 'a^-3' into a normal form.

        Each token is the longest generator label at its position, then an
        optional exponent '^k'. The empty text, '1' and the identity label
        are the identity.
        """
        text = text.strip()
        if text in ("", "1", self.identity_label):
            return ()
        mul = self._mul
        out: Word = ()
        for chunk in text.split():
            pos = 0
            while pos < len(chunk):
                label = next((x for x in self._labels_desc if chunk.startswith(x, pos)), None)
                if label is None:
                    raise SpecMismatchError(f"cannot parse {chunk!r} at position {pos}")
                pos += len(label)
                token: Word = (self._by_label[label],)
                m = _EXPONENT_RE.match(chunk, pos)
                if m:
                    pos = m.end()
                    exp = int(m.group(1))
                    base = token if exp >= 0 else (self._inv[token[0]],)
                    # square-and-multiply: O(log k) products, not k
                    token, k = (), abs(exp)
                    while k:
                        if k & 1:
                            token = mul(token, base)
                        k >>= 1
                        if k:
                            base = mul(base, base)
                out = mul(out, token)
        return out

    def label_word(self, u: Word) -> str:
        if not u:
            return self.identity_label
        labels = [self.generators[x].label for x in u]
        if all(len(g.label) == 1 for g in self.generators):
            return "".join(labels)
        return " ".join(labels)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class FreeGroupSpec(GroupSpec):
    """Free group of finite rank; generators a, A, b, B, ... (uppercase = inverse)."""

    def __init__(self, rank: int, delta: int = 1):
        if not 1 <= rank <= 26:
            raise ValueError("free rank must be between 1 and 26")
        gens = []
        for i in range(rank):
            low, up = chr(ord("a") + i), chr(ord("A") + i)
            gens.append(Generator(2 * i, low, 2 * i + 1))
            gens.append(Generator(2 * i + 1, up, 2 * i))
        super().__init__(tuple(gens), delta, f"free:{rank}")
        self.rank = rank
        self.exact_tree = self.delta == 1

    def _mul(self, u: Word, v: Word) -> Word:
        if not u:
            return v
        if not v:
            return u
        inv = self._inv
        if u[-1] != inv[v[0]]:
            return u + v
        # u[-1] cancels v[0]; walk on while u[i] cancels v[j]
        i, j, n = len(u) - 2, 1, len(v)
        while i >= 0 and j < n and u[i] == inv[v[j]]:
            i -= 1
            j += 1
        return u[:i + 1] + v[j:]

    def validate_word(self, u: Word) -> None:
        n = len(self.generators)
        inv = self._inv
        prev = -1
        for x in u:
            if not isinstance(x, int) or not 0 <= x < n:
                raise SpecMismatchError(f"letter {x!r} is not a generator of {self.name}")
            if prev >= 0 and x == inv[prev]:
                raise SpecMismatchError("word is not freely reduced")
            prev = x


class FreeProductSpec(GroupSpec):
    """Free product of finite cyclic groups Z/m1 * ... * Z/mk.

    Each factor contributes every nontrivial power of its cyclic generator as
    a generator, so each syllable of the normal form is one letter and the
    number of syllables equals the word metric.
    """

    def __init__(self, orders: tuple[int, ...], delta: int = 1):
        if not orders or any(m < 2 for m in orders):
            raise ValueError("factor orders must all be at least 2")
        if len(orders) < 2:
            raise ValueError("a free product needs at least two factors")
        if len(orders) > 8:
            raise ValueError("at most 8 cyclic factors are supported")
        letters = "stuvwxyz"
        # s_f^p is generator first[f] + p - 1
        gens: list[Generator] = []
        first: list[int] = []
        factor_of: list[int] = []
        power_of: list[int] = []
        for f, m in enumerate(orders):
            first.append(len(gens))
            for p in range(1, m):
                label = letters[f] if p == 1 else f"{letters[f]}^{p}"
                gens.append(Generator(len(gens), label, first[f] + (m - p) - 1))
                factor_of.append(f)
                power_of.append(p)
        name = "zm:" + ",".join(str(m) for m in orders)
        super().__init__(tuple(gens), delta, name)
        self.orders = tuple(int(m) for m in orders)
        self._first = tuple(first)
        self._factor = tuple(factor_of)
        self._power = tuple(power_of)
        # only involutions keep the Cayley graph a tree
        self.exact_tree = self.delta == 1 and all(m == 2 for m in self.orders)

    def _mul(self, u: Word, v: Word) -> Word:
        if not u:
            return v
        if not v:
            return u
        factor = self._factor
        if factor[u[-1]] != factor[v[0]]:
            return u + v
        # merge the junction syllables u[i], v[j]: a nonzero power ends the
        # merge, a zero power cancels both and the next pair may merge again
        power, orders = self._power, self.orders
        i, j = len(u) - 1, 0
        while True:
            f = factor[v[j]]
            p = (power[u[i]] + power[v[j]]) % orders[f]
            if p:
                return u[:i] + (self._first[f] + p - 1,) + v[j + 1:]
            i -= 1
            j += 1
            if i < 0 or j == len(v) or factor[u[i]] != factor[v[j]]:
                return u[:i + 1] + v[j:]

    def validate_word(self, u: Word) -> None:
        n = len(self.generators)
        factor = self._factor
        prev_f = -1
        for x in u:
            if not isinstance(x, int) or not 0 <= x < n:
                raise SpecMismatchError(f"letter {x!r} is not a generator of {self.name}")
            if factor[x] == prev_f:
                raise SpecMismatchError("adjacent syllables share a factor")
            prev_f = factor[x]


class ExplicitBallSpec(GroupSpec):
    """A finite Cayley ball given by vertices and generator-labeled edges.

    Elements are the canonical words found by breadth-first search from the
    basepoint (expanding generators in declaration order, so the word is the
    lexicographically least geodesic spelling). Two tables hold the graph,
    one row of N vertex handles per generator s: ``right[s][vid]``, the
    vertex of word(vid) . s, from the file's edges, and ``left[s][vid]``,
    the vertex of s . word(vid), filled by the search from each vertex's
    parent; None where that step leaves the ball. With ``inverse[vid]``,
    the vertex of word(vid)^-1, they hold 2 |S| N + N integers.

    Products and inverses take vertex words only, found by their handles:
    generators are distinct and none is the identity, so each one-letter
    word is a vertex word. The product u v walks v's letters rightward from
    u through ``right``. When |u| + |v| <= R no walk can leave the ball,
    and the shorter factor is walked: u's letters, reversed, leftward from
    v through ``left`` when u is the shorter. Every other product takes the
    right walk, so ``OutOfWindowError`` is raised exactly where the right
    walk leaves the ball. The inverse is one lookup. A walk along a ball's
    search tree (``_walk_handles``) is one loop over the rows of either
    table, one lookup per vertex, and raises where the product walk would;
    ``_walk_tree``, behind ``CayleyBall.walk``, is that walk mapped to
    words. A windowed cocycle norm takes the handles themselves and reads
    f(e, .) from one slot per vertex.
    """

    def __init__(self, generators, delta, right, n_vertices, basepoint_idx, radius, name="ball"):
        super().__init__(generators, delta, name)
        self.max_word_length = int(radius)
        self._right: list[list[int | None]] = right
        inv = self._inv
        words: list[Word | None] = [None] * n_vertices
        left: list[list[int | None]] = [[None] * n_vertices for _ in generators]
        inverse: list[int | None] = [None] * n_vertices
        words[basepoint_idx] = ()
        inverse[basepoint_idx] = basepoint_idx
        for s, row in enumerate(right):
            left[s][basepoint_idx] = row[basepoint_idx]
        queue = deque([basepoint_idx])
        while queue:
            vid = queue.popleft()
            w = words[vid]
            for gi, step in enumerate(right):
                nb = step[vid]
                if nb is not None and words[nb] is None:
                    words[nb] = w + (gi,)
                    for row in left:
                        at = row[vid]
                        row[nb] = None if at is None else step[at]
                    iv = inverse[vid]
                    inverse[nb] = None if iv is None else left[inv[gi]][iv]
                    queue.append(nb)
        if None in words:
            raise BallFileRadiusError("some vertices are unreachable from the basepoint")
        reach = max(map(len, words))
        if reach != self.max_word_length:
            raise BallFileRadiusError(
                f"declared radius {radius} but breadth-first search reaches {reach}"
            )
        for vid, w in enumerate(words):
            if len(w) < reach and any(row[vid] is None for row in right):
                raise BallFileError(
                    f"interior vertex at distance {len(w)} is missing a generator edge"
                )
        # each generator's edge from e reaches the vertex spelled by it alone
        for gi, row in enumerate(right):
            nb = row[basepoint_idx]
            if nb is not None and words[nb] != (gi,):
                same = repr(generators[words[nb][0]].label) if words[nb] else "the identity"
                raise BallFileError(f"generator {generators[gi].label!r} is {same}; "
                                    "generators must be distinct and not the identity")
        self._left = left
        self._inverse = inverse
        self.vertex_count = n_vertices
        self._vertex_word: list[Word] = words  # type: ignore[assignment]
        self._word_vertex: dict[Word, int] = {w: i for i, w in enumerate(words)}  # type: ignore[arg-type]

    def validate_word(self, u: Word) -> None:
        """A letter string no longer than the radius that is no vertex word is
        not a normal form; a longer one may be, beyond the ball."""
        if u in self._word_vertex:
            return
        n = len(self.generators)
        if len(u) > self.max_word_length and all(isinstance(x, int) and 0 <= x < n for x in u):
            raise OutOfWindowError(f"word of length {len(u)} is not represented in the ball")
        raise SpecMismatchError(f"word {u!r} is not a normal form of {self.name}")

    def _walk(self, vid: int, letters: Word) -> int:
        right = self._right
        for x in letters:
            vid = right[x][vid]
            if vid is None:
                raise OutOfWindowError("product walks outside the explicit ball")
        return vid

    def _mul(self, u: Word, v: Word) -> Word:
        if len(u) < len(v) and len(u) + len(v) <= self.max_word_length:
            wid = self._word_vertex[v]
            left = self._left
            for x in reversed(u):
                wid = left[x][wid]
            return self._vertex_word[wid]
        return self._vertex_word[self._walk(self._word_vertex[u], v)]

    def _inv_word(self, u: Word) -> Word:
        return self._vertex_word[self._inverse[self._word_vertex[u]]]

    def _walk_handles(self, parent_letters, start: Word, right: bool = False) -> list[int]:
        """The tree walk on vertex handles: a right step by s is
        ``right[s][vid]`` and a left step by s^-1 is ``left[inv[s]][vid]``.
        Each entry is the right walk's end, so the walk raises
        ``OutOfWindowError`` exactly where the product walk leaves the ball."""
        rows = self._right if right else [self._left[x] for x in self._inv]
        n = len(parent_letters)
        vids = [self._word_vertex[start]] * n
        for h in range(1, n):
            par, letter = parent_letters[h]
            vid = rows[letter][vids[par]]
            if vid is None:
                raise OutOfWindowError("the walk leaves the explicit ball")
            vids[h] = vid
        return vids

    def _walk_tree(self, parent_letters, start: Word, right: bool = False) -> list[Word]:
        word = self._vertex_word
        return [word[vid] for vid in self._walk_handles(parent_letters, start, right)]

    def neighbors(self, u: Word):
        vid = self._word_vertex[u]
        for gi, row in enumerate(self._right):
            nb = row[vid]
            if nb is not None:
                yield gi, self._vertex_word[nb]


# -- Cayley-ball files -------------------------------------------------------


def load_ball_file(path, delta: int = 1) -> ExplicitBallSpec:
    """Load an explicit Cayley ball from its JSON file.

    The format is an object with fields ``generators`` (list of
    ``{"label": str, "inverse": int}``), ``basepoint`` (vertex id),
    ``radius`` (int), ``vertices`` (list of opaque string ids) and ``edges``
    (list of ``[src-id, generator-index, dst-id]``). Every edge must have its
    reverse present under the inverse generator.
    """
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BallFileError(f"cannot read ball file {path}: {exc}") from exc
    return ball_from_json(data, delta=delta, name=f"ball:{path}")


def _integer(value, what: str) -> int:
    """An integer field of a ball file; int() would truncate 1.9 and read
    true as 1."""
    if type(value) is not int:
        raise BallFileError(f"{what} must be an integer, not {value!r}")
    return value


def _label(value) -> str:
    """A generator label of a ball file; str() would read null as "None"."""
    if type(value) is not str:
        raise BallFileError(f"a generator label must be a string, not {value!r}")
    return value


def ball_from_json(data, delta: int = 1, name: str = "ball") -> ExplicitBallSpec:
    for key in ("generators", "basepoint", "radius", "vertices", "edges"):
        if not isinstance(data, dict) or key not in data:
            raise BallFileError(f"missing field {key!r}")
    try:
        gens = tuple(
            Generator(i, _label(g["label"]), _integer(g["inverse"], "a generator inverse"))
            for i, g in enumerate(data["generators"])
        )
        vertex_ids = [str(v) for v in data["vertices"]]
        radius = _integer(data["radius"], "the radius")
        raw_edges = [(str(s), _integer(g, "an edge's generator index"), str(d))
                     for s, g, d in data["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise BallFileError(f"malformed ball file: {exc}") from exc
    if len(set(vertex_ids)) != len(vertex_ids):
        raise BallFileError("duplicate vertex ids")
    vid_of = {v: i for i, v in enumerate(vertex_ids)}
    basepoint = str(data["basepoint"])
    if basepoint not in vid_of:
        raise BallFileBasepointError(f"basepoint {basepoint!r} is not a vertex")
    inv = [g.inverse for g in gens]
    if any(not 0 <= j < len(gens) or inv[j] != i for i, j in enumerate(inv)):
        raise BallFileError("generator inverse table is not an involution")
    n_vertices = len(vertex_ids)
    right: list[list[int | None]] = [[None] * n_vertices for _ in gens]
    for src, gi, dst in raw_edges:
        if src not in vid_of or dst not in vid_of or not 0 <= gi < len(gens):
            raise BallFileError(f"edge ({src}, {gi}, {dst}) references unknown data")
        row, at = right[gi], vid_of[src]
        if row[at] not in (None, vid_of[dst]):
            raise BallFileError(f"conflicting edges at ({src}, generator {gi})")
        row[at] = vid_of[dst]
    # vertex by vertex, so the first vertex with a fault is the one reported
    for src in range(n_vertices):
        for gi, row in enumerate(right):
            dst = row[src]
            if dst is not None and right[inv[gi]][dst] != src:
                raise BallFileSymmetryError(
                    f"edge ({vertex_ids[src]}, {gi}, {vertex_ids[dst]}) has no reverse"
                )
    return ExplicitBallSpec(gens, delta, right, n_vertices, vid_of[basepoint], radius, name)


# -- descriptors -------------------------------------------------------------


def spec_from_descriptor(descriptor: str, delta: int | None = None) -> GroupSpec:
    """Build a GroupSpec from a short descriptor string.

    ``free:N`` is the free group of rank N, ``zm:M1,M2,...`` the free product
    of cyclic groups of those orders, ``ball:PATH`` an explicit ball file.
    """
    kind, _, rest = descriptor.partition(":")
    delta = 1 if delta is None else delta
    if kind == "free":
        return FreeGroupSpec(int(rest), delta=delta)
    if kind == "zm":
        return FreeProductSpec(tuple(int(x) for x in rest.split(",")), delta=delta)
    if kind == "ball":
        return load_ball_file(rest, delta=delta)
    raise ValueError(f"unknown group descriptor {descriptor!r}")
