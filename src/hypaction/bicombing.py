"""Equivariant geodesic bicombing on the Cayley graph.

The path q[a, b] is defined as a * canonical(a^-1 b), where canonical(e -> x)
greedily follows, at each step, the least generator (in declaration order)
that strictly decreases the distance to x. Equivariance q[ga, gb] = g q[a, b]
holds by construction; determinism makes repeated calls identical.
"""

from __future__ import annotations

from .errors import InvariantViolation
from .groups import GroupSpec, Word

GeodesicPath = tuple[Word, ...]


class Bicombing:
    """Deterministic geodesic path chooser with a left-invariant cache.

    Cached paths are pure functions of their key, so concurrent duplicate
    computation is harmless; observable behavior is as if each key were
    computed exactly once.
    """

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self._paths: dict[Word, GeodesicPath] = {}
        # where geodesics are unique the canonical path is forced to be the
        # prefix sequence of the normal form; the greedy construction stays
        # the definition and the shortcut is cross-checked in tests
        self._prefix_ok = spec.unique_geodesics

    def greedy_path_from_identity(self, x: Word) -> GeodesicPath:
        """The canonical geodesic e -> x by greedy descent (uncached)."""
        spec = self.spec
        mul = spec._mul
        # (g, g^-1) as one-letter words, in declaration order
        steps = [((gi,), (inv,)) for gi, inv in enumerate(spec._inv)]
        path = [()]
        cur: Word = ()
        remaining = x
        while remaining:
            n = len(remaining)
            for letter, back in steps:
                nxt = mul(back, remaining)
                if len(nxt) == n - 1:
                    cur = mul(cur, letter)
                    path.append(cur)
                    remaining = nxt
                    break
            else:
                raise InvariantViolation(
                    "no generator decreases the distance; the spec is not a Cayley graph"
                )
        return tuple(path)

    def path_from_identity(self, x: Word) -> GeodesicPath:
        """The canonical geodesic e -> x as a vertex sequence."""
        if self._prefix_ok:
            return tuple(x[:i] for i in range(len(x) + 1))
        cached = self._paths.get(x)
        if cached is not None:
            return cached
        out = self.greedy_path_from_identity(x)
        self._paths[x] = out
        return out

    def q_path(self, a: Word, b: Word) -> GeodesicPath:
        """Geodesic vertex sequence from a to b; q_path(a, a) is (a,)."""
        spec = self.spec
        spec.validate_word(a)
        spec.validate_word(b)
        base = self.path_from_identity(spec._mul(spec._inv_word(a), b))
        if not a:
            return base
        mul = spec._mul
        return tuple(mul(a, w) for w in base)

    def q_point(self, a: Word, b: Word, t: int) -> Word:
        """The vertex of q[a, b] at distance t from a."""
        spec = self.spec
        spec.validate_word(a)
        spec.validate_word(b)
        base = self.path_from_identity(spec._mul(spec._inv_word(a), b))
        if not 0 <= t < len(base):
            raise ValueError(f"t={t} is outside 0..{len(base) - 1}")
        return spec._mul(a, base[t]) if a else base[t]

    def point_from_identity(self, x: Word, t: int) -> Word:
        if not 0 <= t <= len(x):
            raise ValueError(f"t={t} is outside 0..{len(x)}")
        if self._prefix_ok:
            return x[:t]
        return self.path_from_identity(x)[t]
