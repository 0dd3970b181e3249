"""The averaged-chain construction on flowers.

For vertices v, w the flower Fl(v, w) = S(v, d(v,w)) /\\ B(w, delta) is the
set over which mass is spread. The chain f(a, b) is defined by recursion on
d(a, b): it is the point mass at b when d(a,b) <= 10*delta; otherwise it
retracts b to the projection point pr_a(b) (the bicombing point at the
largest multiple t of 10*delta strictly below d(a,b), which is
a . x[:t] for the normal form x of a^-1 b), averaging over the
flower first whenever d(a,b) is itself such a multiple. The result is an
exact rational convex combination supported on S(a, 10*delta).

All recursion runs at the identity: equivariance gives
f(a, b) = a . f(e, a^-1 b) and Fl(v, w) = v . Fl(e, v^-1 w), so one routine
lists flower members, and the literal oracle translates what it lists and
retracts through ``project``. It lists Fl(e, x) as x first, then every
x u of length |x| for u in B(e, delta) \\ {e}, in the breadth-first order
of u; averaged chains are built in that order. The memo holds exactly the
averaging nodes whose chain has at least two support points, whoever asks
for them: every key above such a node shares it. Point masses are never
stored, so on the built-in families, where every chain is a point mass,
the memo stays empty. Nothing here depends on p: the cocycle's unit chain
h = f / ||f||_p is ``chains.normalized`` of f.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .bicombing import Bicombing
from .cayley import build_ball
from .chains import Chain, as_chain, translate
from .errors import ExactnessError
from .groups import GroupSpec, Word


@dataclass
class ChainCache:
    """Memo of the spread averaging nodes f(e, x), keyed by x.

    ``hits`` counts memo reads that returned a chain, ``misses`` the
    averaging steps that were evaluated. Entries are pure functions of their
    key, so the cache may be shared across evaluations.
    """

    memo: dict[Word, Chain] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0


class ChainEngine:
    """Builds flowers, projections and the averaged chains for one spec."""

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.q = Bicombing(spec)
        self.ten_delta = 10 * spec.delta
        self.cache = ChainCache()

    # -- flowers and projections --------------------------------------------

    @cached_property
    def _small_ball_moves(self) -> list[Word]:
        """B(e, delta) \\ {e} in breadth-first order, built on first use: a
        flower needs a margin of delta, so on an explicit ball of smaller
        radius it is never built."""
        return build_ball(self.spec, self.spec.delta).words[1:]

    def flower(self, v: Word, w: Word) -> tuple[Word, ...]:
        """Fl(v, w) = S(v, d(v, w)) /\\ B(w, delta) = v . Fl(e, v^-1 w), sorted; never empty."""
        spec = self.spec
        x = spec.offset(v, w)
        self._require_margin(w, spec.delta)
        return tuple(sorted(spec._mul(v, y) for y in self._flower_members_from_identity(x)))

    def _flower_members_from_identity(self, x: Word) -> list[Word]:
        """Fl(e, x): x, then the words x u with u in B(e, delta) \\ {e} and
        |x u| = |x|, in the breadth-first order of u."""
        d = len(x)
        mul = self.spec._mul
        members = [x]
        for u in self._small_ball_moves:
            y = mul(x, u)
            if len(y) == d:
                members.append(y)
        return members

    def project(self, a: Word, b: Word) -> Word:
        """pr_a(b): the bicombing point at the largest multiple of 10*delta
        strictly below d(a, b); pr_a(a) = a."""
        x = self.spec.offset(a, b)
        if not x:
            return a
        p = x[:((len(x) - 1) // self.ten_delta) * self.ten_delta]
        return self.spec._mul(a, p) if a else p

    # -- the recursive chain -------------------------------------------------

    def f_chain(self, a: Word, b: Word) -> Chain:
        """The convex-combination chain f(a, b), exact rational coefficients."""
        return translate(self.spec, a, as_chain(self.f_at_offset(a, self.spec.offset(a, b))))

    def f_at_offset(self, a: Word, x: Word) -> Word | Chain:
        """f(a, b) before its translation by a: f(e, x) for the offset
        x = a^-1 b, a word for a point mass. Raises ExactnessError where
        ``f_chain(a, b)`` would, because its reach from a exceeds the spec."""
        self._require_margin(a, len(x) + self.spec.delta)
        return self._f_point_basepoint(x)

    def _f_point_basepoint(self, x: Word) -> Word | Chain:
        """f(e, x) as its support point when it is a point mass, otherwise
        as the spread chain; sweeps call this and build no point-mass dicts.

        Follows the recursion while it only retracts: steps that are not
        multiples of 10*delta, and flowers of one member. A flower of two or
        more members is averaged, unless the memo already holds its node. On
        exact trees every flower is {x}, so the descent ends at x[:10*delta].
        """
        ten = self.ten_delta
        if self.spec.exact_tree:
            return x[:ten]
        memo = self.cache.memo
        while True:
            d = len(x)
            if d <= ten:
                return x
            t = ((d - 1) // ten) * ten
            if not d % ten:
                # an empty memo (every chain a point mass) spares hashing x
                got = memo.get(x) if memo else None
                if got is not None:
                    self.cache.hits += 1
                    return got
                members = self._flower_members_from_identity(x)
                if len(members) > 1:
                    return self._average(x, members, t)
            x = x[:t]

    def _average(self, x: Word, members: list[Word], t: int) -> Word | Chain:
        """The mean of f(e, pr(y)) over the flower members y of x; memoized
        when it spreads, since every key above x shares it. Each distinct
        retraction is evaluated once and weighted by its members: point
        masses are not memoized, so one evaluation per member is exponential
        in |x| where members share their retraction."""
        self.cache.misses += 1
        acc: dict[Word, Fraction] = {}
        for r, n in Counter(y[:t] for y in members).items():
            for w, c in as_chain(self._f_point_basepoint(r)).items():
                acc[w] = acc.get(w, 0) + n * c
        if len(acc) == 1:
            return next(iter(acc))
        share = Fraction(1, len(members))
        out = {w: share * c for w, c in acc.items()}
        self.cache.memo[x] = out
        return out

    def f_chain_literal(self, a: Word, b: Word) -> Chain:
        """The same recursion run verbatim at base a, without the identity
        shortcut or the shared cache. Slow; used for cross-validation."""
        spec = self.spec
        self._require_margin(a, len(spec.offset(a, b)) + spec.delta)
        return self._literal(a, b, {})

    def _literal(self, a: Word, bb: Word, memo: dict[Word, Chain]) -> Chain:
        """f(a, bb) with the memo of one ``f_chain_literal`` call; a method, as
        a recursive closure would leave a reference cycle behind each call."""
        got = memo.get(bb)
        if got is not None:
            return got
        d = len(self.spec._mul(self.spec._inv_word(a), bb))
        if d <= self.ten_delta:
            out: Chain = {bb: Fraction(1)}
        elif d % self.ten_delta:
            out = self._literal(a, self.project(a, bb), memo)
        else:
            # every flower member lies at distance d from a, so it
            # retracts to the same depth as bb
            members = self.flower(a, bb)
            share = Fraction(1, len(members))
            acc: dict[Word, Fraction] = {}
            for y in members:
                for w, c in self._literal(a, self.project(a, y), memo).items():
                    acc[w] = acc.get(w, 0) + c
            out = {w: share * c for w, c in acc.items()}
        memo[bb] = out
        return out

    # -- helpers ---------------------------------------------------------------

    def _require_margin(self, base: Word, reach: int) -> None:
        spec = self.spec
        if len(base) + reach > spec.max_word_length:
            raise ExactnessError(
                f"computation reaches distance {len(base) + reach} but the spec only "
                f"represents words up to length {spec.max_word_length}"
            )
