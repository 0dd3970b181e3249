"""The displacement cocycle of the affine action and its properness data.

The base vector assigns to every vertex gamma the unit chain h(gamma, e),
h = f / ||f||_p; the linear action is (pi(g) xi)(gamma) = g(xi(g^-1 gamma));
the cocycle is b(g)(gamma) = h(gamma, g) - h(gamma, e). Its p-norm grows at
least linearly in d(g, e), which makes the affine action proper. This module
evaluates b(g) on finite windows with certified tail bounds, exactly on tree
families, and checks the algebraic identities behind the construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .analysis import tail_bound
from .cayley import CayleyBall
from .chains import Chain, as_chain, diff_pow, normalized, sub, translate
from .errors import ExactnessError, InvariantViolation, PSelectionError
from .flowers import ChainEngine
from .groups import Word

# an identity check stops recording failing vertices after this many
_MAX_WITNESSES = 5


def properness_floors(d: int, delta: int) -> tuple[int, int]:
    """Lower bounds on ||pi(g) eta - eta||_p^p at d = d(g, e): twice the least
    properness count, 2 (d - 20 delta - 1), and the paper's d - 100 delta."""
    return 2 * (d - 20 * delta - 1), d - 100 * delta


@dataclass
class CocycleResult:
    """Windowed evaluation of ||pi(g) eta - eta||_p^p.

    ``lower`` is the sum over the window (an exact integer in tree-exact
    mode); ``tail_bound`` certifies the mass that may live outside the
    window (zero when ``exact``).
    """

    g: Word
    d_g_e: int
    p: float
    lower: float
    tail_bound: float
    exact: bool
    window_size: int
    nonzero_count: int


@dataclass
class IdentityReport:
    """Pointwise residual check of b(gk) = pi(g) b(k) + b(g) over a window."""

    vertices: int
    residual_zero: bool
    witnesses: list[Word]
    audited: int


class Cocycle:
    """Evaluator for the cocycle of one engine at a fixed exponent p >= 2:
    the engine does not depend on p, and every h is ``chains.normalized``."""

    def __init__(self, engine: ChainEngine, p: float):
        if not 2 <= p < math.inf:
            raise ValueError(f"the cocycle is evaluated at finite p >= 2, not {p}")
        self.engine = engine
        self.spec = engine.spec
        self.p = float(p)
        # id of a spread chain of the engine's memo -> (the chain, h = f / ||f||_p);
        # holding the chain keeps its id from being reused
        self._units: dict[int, tuple[Chain, dict[Word, float]]] = {}

    # -- pointwise values -----------------------------------------------------

    def eta_at(self, gamma: Word) -> dict[Word, float]:
        """The base vector at gamma: h(gamma, e) = f(gamma, e) / ||f(gamma, e)||_p."""
        return normalized(self.engine.f_chain(gamma, ()), self.p)

    def b_at(self, g: Word, gamma: Word) -> dict[Word, float]:
        """The chain b(g)(gamma) = h(gamma, g) - h(gamma, e), dense view."""
        return sub(normalized(self.engine.f_chain(gamma, g), self.p), self.eta_at(gamma))

    def diff_norm_pow(self, g: Word, gamma: Word) -> float:
        """||b(g)(gamma)||_p^p via left-invariance (no translations built)."""
        spec = self.spec
        ig = spec._inv_word(gamma)
        return self._diff_pow(spec._mul(ig, g), ig)

    def _diff_pow(self, u: Word, v: Word) -> float:
        """||h_e(u) - h_e(v)||_p^p on identity-based chains; the memo grows
        by the spread averaging nodes only, so millions of keys can be swept.
        Equal to ``normalized_diff_pow`` on the two chains, bit for bit."""
        if u == v:
            return 0.0
        fpoint = self.engine._f_point_basepoint
        f1, f2 = fpoint(u), fpoint(v)
        if isinstance(f1, dict) or isinstance(f2, dict):
            return diff_pow(self._unit(f1), self._unit(f2), self.p)
        # point masses of unit coefficient
        return 0.0 if f1 == f2 else 2.0

    def _unit(self, f: Word | Chain) -> dict[Word, float]:
        """h = f / ||f||_p as floats. A spread chain is a memo entry of the
        engine and p is fixed, so each is normalized once; a unit point mass
        is its own normalization."""
        if not isinstance(f, dict):
            return {f: 1.0}
        got = self._units.get(id(f))
        if got is None:
            got = self._units[id(f)] = (f, normalized(f, self.p))
        return got[1]

    # -- windowed norm ----------------------------------------------------------

    def norm(
        self,
        g: Word,
        mode: str = "auto",
        window_ball: CayleyBall | None = None,
        fit=None,
        upsilon: float | None = None,
        audit_samples: int = 0,
        seed: int = 0,
    ) -> CocycleResult:
        """Evaluate ||pi(g) eta - eta||_p^p over a window.

        In exact mode (``spec.exact_tree``: tree families with delta = 1,
        the default when available) the window is the 10*delta-neighborhood
        of the geodesic from e to g, which provably contains the support,
        and the value is an exact even integer. Otherwise the window is the
        supplied ball B(e, R) and the discarded mass is bounded by the
        geometric tail computed from the fitted decay (``fit``) and growth
        (``upsilon``).
        """
        self.spec.validate_word(g)
        if mode == "auto":
            mode = "exact" if self.spec.exact_tree and window_ball is None else "window"
        if mode == "exact":
            if not self.spec.exact_tree:
                raise ExactnessError("exact mode needs a tree family with delta = 1")
            return self._exact_tree_norm(g, audit_samples=audit_samples, seed=seed)
        if mode != "window":
            raise ValueError(f"unknown mode {mode!r}")
        if window_ball is None:
            raise ValueError("windowed mode needs a materialized ball")
        if fit is None or upsilon is None:
            raise ValueError("windowed mode needs a decay fit and a growth constant")
        return self._windowed_norm(g, window_ball, fit, upsilon)

    def _windowed_norm(self, g, ball, fit, upsilon) -> CocycleResult:
        p = self.p
        if fit.base ** p * upsilon >= 0.5:
            raise PSelectionError(
                f"rho^p * upsilon = {fit.base ** p * upsilon:.4f} is not below 1/2; "
                "pick a larger p before evaluating windows"
            )
        # the window evaluations reach distance radius + d(e, g) + delta
        self.engine._require_margin(g, ball.radius + self.spec.delta)
        diff = self._diff_pow
        lower = 0.0
        nonzero = 0
        # ||b(g)(gamma)||_p^p = ||h_e(gamma^-1 g) - h_e(gamma^-1)||_p^p by left-invariance
        for u1, u2 in zip(ball.walk(g), ball.walk(())):
            val = diff(u1, u2)
            if val:
                nonzero += 1
                lower += val
        tail = tail_bound(fit.constant, fit.base, p, upsilon, ball.radius, len(g))
        return CocycleResult(
            g=g,
            d_g_e=len(g),
            p=p,
            lower=lower,
            tail_bound=tail,
            exact=False,
            window_size=len(ball),
            nonzero_count=nonzero,
        )

    def _exact_tree_norm(self, g, audit_samples=0, seed=0) -> CocycleResult:
        """Count the geodesic-neighborhood window of a tree family in closed form.

        Every vertex gamma in the window hangs off a unique axis vertex of
        the geodesic e -> g at some depth t <= 10*delta; the two chains
        h(gamma, g) and h(gamma, e) are unit point masses whose supports
        differ exactly when t <= 10*delta - 1, each such gamma contributing
        2 to the p-th power sum. With n generators, the k + 1 axis vertices
        of a reduced g of length k leave B = (k + 1) n - 2k first letters
        (each axis edge uses one letter at both ends), and off the axis every
        vertex has n - 1 children, so depth t >= 1 holds B (n - 1)^(t - 1)
        vertices. Sampled window vertices are audited against the generic
        evaluation.
        """
        if not g:
            return CocycleResult(
                g=g, d_g_e=0, p=self.p, lower=0.0, tail_bound=0.0,
                exact=True, window_size=1, nonzero_count=0,
            )
        n_gens = len(self.spec.generators)
        ten = self.engine.ten_delta
        k = len(g)
        window = nonzero = k + 1  # the axis vertices, depth 0
        layer = (k + 1) * n_gens - 2 * k
        for depth in range(1, ten + 1):
            window += layer
            if depth < ten:
                nonzero += layer
            layer *= n_gens - 1
        if audit_samples:
            self._audit_exact(g, audit_samples, seed)
        return CocycleResult(
            g=g,
            d_g_e=k,
            p=self.p,
            lower=float(2 * nonzero),
            tail_bound=0.0,
            exact=True,
            window_size=window,
            nonzero_count=nonzero,
        )

    def _audit_exact(self, g: Word, samples: int, seed: int) -> None:
        """Recompute random window vertices through the generic chain path."""
        spec = self.spec
        ten = self.engine.ten_delta
        n_gens = len(spec.generators)
        inv = spec._inv
        rng = random.Random(seed)
        k = len(g)
        for _ in range(samples):
            i = rng.randrange(k + 1)
            banned = set()
            if i > 0:
                banned.add(inv[g[i - 1]])
            if i < k:
                banned.add(g[i])
            depth = rng.randrange(ten + 1)
            suffix: list[int] = []
            for step in range(depth):
                if step == 0:
                    options = [x for x in range(n_gens) if x not in banned]
                else:
                    last_inv = inv[suffix[-1]]
                    options = [x for x in range(n_gens) if x != last_inv]
                if not options:
                    break
                suffix.append(rng.choice(options))
            gamma = spec._mul(g[:i], tuple(suffix))
            expected = 2.0 if len(suffix) <= ten - 1 else 0.0
            got = self.diff_norm_pow(g, gamma)
            if abs(got - expected) > 1e-9:
                raise InvariantViolation(
                    f"exact-window audit failed at {spec.label_word(gamma)}: "
                    f"closed form {expected}, generic evaluation {got}"
                )

    # -- properness ---------------------------------------------------------------

    def disjoint_support_check(self, g: Word, gamma: Word) -> bool:
        """Whether supp h(gamma, g) and supp h(gamma, e) are disjoint.

        Defined for gamma on the oriented geodesic q[g, e] with both
        d(gamma, e) and d(gamma, g) at least 10*delta; under that
        precondition a False return is a bug witness, not a valid outcome.
        """
        ten = self.engine.ten_delta
        if gamma not in self.engine.q.q_path(g, ()):
            raise ValueError("gamma must lie on the geodesic q[g, e]")
        if len(gamma) < ten or len(self.spec.offset(gamma, g)) < ten:
            raise ValueError("gamma must be at least 10*delta from both endpoints")
        return self._disjoint_supports(g, gamma)

    def _disjoint_supports(self, g: Word, gamma: Word) -> bool:
        f1 = self.engine.f_chain(gamma, g)
        f2 = self.engine.f_chain(gamma, ())
        return not (f1.keys() & f2.keys())

    def properness_count(self, g: Word) -> int:
        """Number of admissible geodesic vertices with disjoint supports.

        Each one contributes a summand >= 1 to ||pi(g) eta - eta||_p^p, so
        the count is a properness certificate for g. The admissible
        vertices are those at positions 10*delta .. d(g, e) - 10*delta of
        the geodesic q[g, e].
        """
        ten = self.engine.ten_delta
        # q[g, e] is geodesic, so its vertex at position i is i from g and
        # d(g, e) - i from e: the slice below is exactly the admissible range
        path = self.engine.q.q_path(g, ())
        return sum(self._disjoint_supports(g, gamma) for gamma in path[ten:len(path) - ten])

    # -- the cocycle identity ----------------------------------------------------

    def verify_identity(
        self,
        g: Word,
        k: Word,
        window: CayleyBall,
        audit_fraction: float = 0.0,
        seed: int = 0,
    ) -> IdentityReport:
        """Check b(gk) = pi(g) b(k) + b(g) pointwise over the window.

        With m = g^-1 gamma, left-invariance writes the head of b(gk)(gamma)
        and the head of (pi(g) b(k))(gamma) as one chain h_e(gamma^-1 gk)
        translated by gamma and by g after m, and b(g)(gamma) and the tail of
        (pi(g) b(k))(gamma) likewise from h_e(gamma^-1 g); the two eta terms
        cancel symbolically. The sweep checks that the two translations
        agree, gamma w == g (m w), at every support point w, so each term
        cancels its partner. This tests the group law and the walks; the
        literal audits, which re-derive the translated chains from scratch
        at a fraction of the vertices, are the independent check of the
        equivariance of f.

        The translates gamma^-1 gk, gamma^-1 g and g^-1 gamma of every
        vertex of the window come from three ``CayleyBall.walk`` passes
        along its BFS tree.
        """
        spec = self.spec
        spec.validate_word(g)
        spec.validate_word(k)
        mul = spec._mul
        gk = mul(g, k)
        rng = random.Random(seed)
        witnesses: list[Word] = []
        audited = 0
        # gamma^-1 gk keys f(gamma, gk) and f(g^-1 gamma, k); gamma^-1 g
        # keys f(gamma, g) and f(g^-1 gamma, e)
        items = zip(window.words, window.walk(gk), window.walk(g),
                    window.walk(spec._inv_word(g), right=True))
        fpoint = self.engine._f_point_basepoint
        for gamma, u1, u2, m in items:
            w1, w2 = fpoint(u1), fpoint(u2)
            # two point masses are looped over as words: building unit dicts
            # for them slows the tree sweeps
            spread = isinstance(w1, dict) or isinstance(w2, dict)
            for w in (*as_chain(w1), *as_chain(w2)) if spread else (w1, w2):
                if mul(gamma, w) != mul(g, mul(m, w)):
                    if len(witnesses) < _MAX_WITNESSES:
                        witnesses.append(gamma)
                    break
            if audit_fraction and rng.random() < audit_fraction:
                audited += 1
                self._audit_identity(g, k, gk, gamma, m, as_chain(w1), as_chain(w2))
        return IdentityReport(
            vertices=len(window),
            residual_zero=not witnesses,
            witnesses=witnesses,
            audited=audited,
        )

    def _audit_identity(self, g, k, gk, gamma, m, c1, c2) -> None:
        """Re-derive both sides of one pointwise identity with the literal
        recursion and compare against the cached translated chains."""
        spec = self.spec
        eng = self.engine
        mul = spec._mul
        t1 = {mul(g, mul(m, w)): c for w, c in c1.items()}
        f_gk = {mul(gamma, w): c for w, c in c1.items()}
        lit_k = translate(spec, g, eng.f_chain_literal(m, k))
        lit_gk = eng.f_chain_literal(gamma, gk)
        if lit_k != t1 or lit_gk != f_gk:
            raise InvariantViolation(
                f"literal recursion disagrees at {spec.label_word(gamma)}"
            )
        t2 = {mul(g, mul(m, w)): c for w, c in c2.items()}
        lit_e = translate(spec, g, eng.f_chain_literal(m, ()))
        if lit_e != t2:
            raise InvariantViolation(
                f"literal recursion disagrees at {spec.label_word(gamma)} (tail term)"
            )
