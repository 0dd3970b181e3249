"""The averaged-chain construction on flowers.

For vertices v, w the flower Fl(v, w) = S(v, d(v,w)) /\\ B(w, delta) is the
set over which mass is spread. The chain f(a, b) is defined by recursion on
d(a, b): it is the point mass at b when d(a,b) <= 10*delta; otherwise it
retracts b to the projection point pr_a(b) (the bicombing point at the
largest multiple of 10*delta strictly below d(a,b)), averaging over the
flower first whenever d(a,b) is itself such a multiple. The result is an
exact rational convex combination supported on S(a, 10*delta).

All recursion is memoized at the identity: equivariance gives
f(a, b) = a . f(e, a^-1 b), so the cache key is a^-1 b. Averaging nodes
whose flower spreads mass (at least two members, and an averaged chain with
at least two support points) are always memoized, also in transient
evaluations: every key above them shares them, and they are few.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .bicombing import Bicombing
from .chains import Chain, lp_pow_sum
from .errors import ExactnessError, InvariantViolation
from .groups import GroupSpec, Word


@dataclass
class ChainCache:
    """Memo for identity-based chains, with hit statistics and an audit hook.

    Entries are pure functions of their key, so the cache may be shared
    across concurrent evaluations; duplicate computation is idempotent.
    """

    memo: dict[Word, Chain] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def audit(self, engine: "ChainEngine", fraction: float, seed: int) -> int:
        """Recompute a random sample of cached chains from scratch.

        Returns the number of audited entries; raises InvariantViolation on
        any mismatch between the cache and a fresh literal recomputation.
        """
        keys = sorted(self.memo)
        rng = random.Random(seed)
        n = max(1, int(len(keys) * fraction)) if keys else 0
        for x in rng.sample(keys, min(n, len(keys))):
            fresh = engine.f_chain_literal((), x)
            if fresh != self.memo[x]:
                raise InvariantViolation(f"cache entry for {x!r} differs from recomputation")
        return min(n, len(keys))


@dataclass(frozen=True)
class NormalizedChain:
    """A chain together with its lp normalizer: h = f / ||f||_p.

    ``norm_pow`` is the exact rational sum of |c|^p when p is an integer,
    otherwise a float; ``norm`` is the float p-th root. Keeping f exact and
    the normalizer alongside lets difference norms be computed without
    rounding the combinatorial data.
    """

    f: Chain
    p: float
    norm_pow: Fraction | float
    norm: float

    @property
    def support(self) -> frozenset[Word]:
        return frozenset(self.f)

    def coefficients(self) -> dict[Word, float]:
        return {w: float(c) / self.norm for w, c in self.f.items()}

    def norm_key(self) -> tuple:
        """The sorted multiset of coefficients; equal keys mean equal normalizers."""
        return tuple(sorted(self.f.values()))


class ChainEngine:
    """Builds flowers, projections and the averaged chains for one spec."""

    def __init__(self, spec: GroupSpec, bicombing: Bicombing | None = None):
        self.spec = spec
        self.q = bicombing if bicombing is not None else Bicombing(spec)
        self.ten_delta = 10 * spec.delta
        self.cache = ChainCache()
        self._small_ball = spec.small_ball_words(spec.delta)
        # for delta = 1 the small ball is the identity plus one letter per
        # generator, so flower members come from single-letter products
        self._sb_letters = list(range(len(spec.generators))) if spec.delta == 1 else None

    # -- flowers and projections --------------------------------------------

    def flower(self, v: Word, w: Word) -> tuple[Word, ...]:
        """Fl(v, w) = S(v, d(v, w)) /\\ B(w, delta) as a sorted tuple; never empty."""
        spec = self.spec
        spec.validate_word(v)
        spec.validate_word(w)
        self._require_margin(w, spec.delta)
        mul = spec._mul
        rw = mul(spec._inv_word(v), w)
        d = len(rw)
        return tuple(sorted(mul(w, u) for u in self._small_ball if len(mul(rw, u)) == d))

    def _flower_members_from_identity(self, x: Word) -> list[Word]:
        d = len(x)
        if self._sb_letters is not None:
            right = self.spec._mul_letter_right
            members = [x]
            for li in self._sb_letters:
                y = right(x, li)
                if len(y) == d:
                    members.append(y)
            return members
        mul = self.spec._mul
        return sorted(y for u in self._small_ball if len(y := mul(x, u)) == d)

    def project(self, a: Word, b: Word) -> Word:
        """pr_a(b): the bicombing point at the largest multiple of 10*delta
        strictly below d(a, b); pr_a(a) = a."""
        spec = self.spec
        spec.validate_word(a)
        spec.validate_word(b)
        x = spec._mul(spec._inv_word(a), b)
        if not x:
            return a
        t = ((len(x) - 1) // self.ten_delta) * self.ten_delta
        p = self.q.point_from_identity(x, t)
        return spec._mul(a, p) if a else p

    # -- the recursive chain -------------------------------------------------

    def f_chain(self, a: Word, b: Word, store: bool = True) -> Chain:
        """The convex-combination chain f(a, b), exact rational coefficients.

        ``store=False`` keeps the requested key and every point-mass result
        out of the cache (reads still hit it); use it for large sweeps over
        throwaway keys. Spread averaging nodes below the key are memoized
        whatever ``store`` says, since the keys of a sweep share them.
        """
        spec = self.spec
        spec.validate_word(a)
        spec.validate_word(b)
        x = spec._mul(spec._inv_word(a), b)
        self._require_margin(a, len(x) + spec.delta)
        base = self._f_basepoint(x, store)
        if not a:
            return dict(base)
        mul = spec._mul
        return {mul(a, w): c for w, c in base.items()}

    def _f_basepoint(self, x: Word, store: bool = True, requested: bool = True) -> Chain:
        memo = self.cache.memo
        got = memo.get(x)
        if got is not None:
            self.cache.hits += 1
            return got
        self.cache.misses += 1
        keep = store
        ten = self.ten_delta
        d = len(x)
        if d <= ten:
            out: Chain = {x: Fraction(1)}
        else:
            t = ((d - 1) // ten) * ten
            if d % ten:
                p = self.q.point_from_identity(x, t)
                assert len(p) == t
                out = self._f_basepoint(p, store, False)
            else:
                members = self._flower_members_from_identity(x)
                if len(members) == 1:
                    # averaging over one member is that member's projection
                    out = self._f_basepoint(self.q.point_from_identity(members[0], t), store, False)
                else:
                    share = Fraction(1, len(members))
                    acc: dict[Word, Fraction] = {}
                    for y in members:
                        py = self.q.point_from_identity(y, t)
                        assert len(py) == t
                        for w, c in self._f_basepoint(py, store, False).items():
                            acc[w] = acc.get(w, 0) + c
                    out = {w: share * c for w, c in acc.items()}
                    # a node that spreads mass is shared by every key above
                    # it, so it is kept even in a transient evaluation
                    keep = keep or (len(out) > 1 and not requested)
        if keep:
            memo[x] = out
        return out

    def _f_point_basepoint(self, x: Word) -> Word | None:
        """Support of f(e, x) when it is a point mass, else None.

        Iterative fast path for the hot loops: follows the recursion while
        it stays degenerate (single-member flowers), falling back to the
        full evaluation only when a flower genuinely spreads mass.
        """
        ten = self.ten_delta
        point = self.q.point_from_identity
        members_of = self._flower_members_from_identity
        while True:
            d = len(x)
            if d <= ten:
                return x
            t = ((d - 1) // ten) * ten
            if d % ten:
                x = point(x, t)
                continue
            if len(members_of(x)) == 1:
                x = point(x, t)
                continue
            chain = self._f_basepoint(x, False)
            return next(iter(chain)) if len(chain) == 1 else None

    def f_chain_literal(self, a: Word, b: Word) -> Chain:
        """The same recursion run verbatim at base a, without the identity
        shortcut or the shared cache. Slow; used for cross-validation."""
        spec = self.spec
        spec.validate_word(a)
        spec.validate_word(b)
        dab = len(spec._mul(spec._inv_word(a), b))
        self._require_margin(a, dab + spec.delta)
        ten = self.ten_delta
        memo: dict[Word, Chain] = {}

        def rec(bb: Word) -> Chain:
            got = memo.get(bb)
            if got is not None:
                return got
            d = len(spec._mul(spec._inv_word(a), bb))
            if d <= ten:
                out: Chain = {bb: Fraction(1)}
            else:
                t = ((d - 1) // ten) * ten
                if d % ten:
                    out = rec(self.q.q_point(a, bb, t))
                else:
                    members = self.flower(a, bb)
                    share = Fraction(1, len(members))
                    acc: dict[Word, Fraction] = {}
                    for y in members:
                        for w, c in rec(self.q.q_point(a, y, t)).items():
                            acc[w] = acc.get(w, 0) + c
                    out = {w: share * c for w, c in acc.items()}
            memo[bb] = out
            return out

        return rec(b)

    # -- normalization --------------------------------------------------------

    def h_chain(self, b: Word, a: Word, p: float) -> NormalizedChain:
        """h(b, a) = f(b, a) / ||f(b, a)||_p, kept as f plus its normalizer."""
        if p < 2:
            raise ValueError("the normalized chains are defined for p >= 2")
        f = self.f_chain(b, a)
        return normalize(f, p)

    # -- helpers ---------------------------------------------------------------

    def _require_margin(self, base: Word, reach: int) -> None:
        spec = self.spec
        if len(base) + reach > spec.max_word_length:
            raise ExactnessError(
                f"computation reaches distance {len(base) + reach} but the spec only "
                f"represents words up to length {spec.max_word_length}"
            )


def normalize(f: Chain, p: float) -> NormalizedChain:
    if not f:
        raise ValueError("cannot normalize the zero chain")
    if float(p).is_integer():
        pow_sum: Fraction | float = lp_pow_sum(f, int(p))
        norm = float(pow_sum) ** (1.0 / p)
    else:
        pow_sum = sum(abs(float(c)) ** p for c in f.values())
        norm = pow_sum ** (1.0 / p)
    return NormalizedChain(f=f, p=float(p), norm_pow=pow_sum, norm=norm)
