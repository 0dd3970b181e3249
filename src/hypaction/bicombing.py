"""Equivariant geodesic bicombing on the Cayley graph.

The path q[a, b] is a * canonical(a^-1 b), where canonical(e -> x) is the
sequence of prefixes x[:0], x[:1], ..., x of the normal form x. Every
family's normal form is the shortlex-least geodesic word (see
:class:`~hypaction.groups.GroupSpec`), whose prefixes are normal forms at
distances 0, 1, ..., |x| from e, so the path is geodesic and is the one that
greedy descent along the least generator would follow. Equivariance
q[ga, gb] = g q[a, b] holds by construction, and nothing is cached.
"""

from __future__ import annotations

from .groups import GroupSpec, Word

GeodesicPath = tuple[Word, ...]


class Bicombing:
    """Deterministic geodesic paths: the prefixes of the normal form."""

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        # always empty, since paths are slices and nothing is cached; it stays
        # because perfbench/workloads.py reads its size on every engine
        self._paths: dict[Word, GeodesicPath] = {}

    def path_from_identity(self, x: Word) -> GeodesicPath:
        """The canonical geodesic e -> x as a vertex sequence."""
        return tuple(x[:i] for i in range(len(x) + 1))

    def q_path(self, a: Word, b: Word) -> GeodesicPath:
        """Geodesic vertex sequence from a to b; q_path(a, a) is (a,)."""
        base = self.path_from_identity(self.spec.offset(a, b))
        if not a:
            return base
        mul = self.spec._mul
        return tuple(mul(a, w) for w in base)

    def q_point(self, a: Word, b: Word, t: int) -> Word:
        """The vertex of q[a, b] at distance t from a."""
        point = self.point_from_identity(self.spec.offset(a, b), t)
        return self.spec._mul(a, point) if a else point

    def point_from_identity(self, x: Word, t: int) -> Word:
        """The vertex of the canonical geodesic e -> x at distance t: x[:t]."""
        if not 0 <= t <= len(x):
            raise ValueError(f"t={t} is outside 0..{len(x)}")
        return x[:t]
