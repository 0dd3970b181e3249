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
from .cayley import CayleyBall, q_path
from .chains import Chain, as_chain, diff_pow, normalized, sub, translate
from .errors import ExactnessError, InvariantViolation, PSelectionError, SpecMismatchError
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
    """Residual check of b(gk) = pi(g) b(k) + b(g) over a window, at each
    distinct support point of the two chains of every vertex."""

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
        # (f1, f2) -> ||h_e(u) - h_e(v)||_p^p for pairs with a spread side, each
        # side its word or its chain's id: as many entries as pairs of
        # distinct values of f, whatever the window
        self._pairs: dict[tuple[Word | int, Word | int], float] = {}
        # the window ball last evaluated and, per vertex gamma in handle order,
        # f(e, gamma^-1): the eta half of every windowed norm over it
        self._eta: tuple[CayleyBall, list[Word | Chain]] | None = None
        # with vertex handles, f(e, w) per vertex w, filled when a walk first
        # reaches w
        self._f_at: list[Word | Chain | None] = [None] * self.spec.vertex_count

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
        fpoint = self.engine._f_point_basepoint
        return self._diff_pow(fpoint(spec._mul(ig, g)), fpoint(ig))

    def _diff_pow(self, f1: Word | Chain, f2: Word | Chain) -> float:
        """||h_e(u) - h_e(v)||_p^p from f1 = f(e, u) and f2 = f(e, v) as
        ``ChainEngine._f_point_basepoint`` returns them: a word for a unit
        point mass, otherwise the spread chain. Equal to
        ``normalized_diff_pow`` on the two chains, bit for bit. A pair with
        a spread side is evaluated once per cocycle, keyed by the word of a
        point mass and the id of a spread chain, which ``_units`` holds."""
        spread1 = isinstance(f1, dict)
        spread2 = isinstance(f2, dict)
        if spread1 or spread2:
            key = (id(f1) if spread1 else f1, id(f2) if spread2 else f2)
            got = self._pairs.get(key)
            if got is None:
                got = self._pairs[key] = diff_pow(self._unit(f1), self._unit(f2), self.p)
            return got
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
        (``upsilon``), except at g = e, where b(e) = 0 is exact in both modes.
        """
        self.spec.validate_word(g)
        if mode == "auto":
            mode = "exact" if self.spec.exact_tree and window_ball is None else "window"
        if mode == "exact":
            if not self.spec.exact_tree:
                raise ExactnessError("exact mode needs a tree family with delta = 1")
            return self._exact_tree_norm(g, audit_samples=audit_samples, seed=seed)
        if mode != "window" or window_ball is None or fit is None or upsilon is None:
            raise ValueError(
                f"mode {mode!r}: the modes are 'auto', 'exact' and 'window', and a "
                "window needs its ball, a decay fit and a growth constant"
            )
        return self._windowed_norm(g, window_ball, fit, upsilon)

    def _windowed_norm(self, g, ball, fit, upsilon) -> CocycleResult:
        """Sum ||b(g)(gamma)||_p^p over the window ball, reading f(e, .) at
        gamma^-1 g and gamma^-1 through ``_f_walk``, the eta half once per
        ball."""
        p = self.p
        if fit.base ** p * upsilon >= 0.5:
            raise PSelectionError(
                f"rho^p * upsilon = {fit.base ** p * upsilon:.4f} is not below 1/2; "
                "pick a larger p before evaluating windows"
            )
        self._require_window_of(ball)
        # the window evaluations reach distance radius + d(e, g) + delta
        self.engine._require_margin(g, ball.radius + self.spec.delta)
        lower = 0.0
        nonzero = 0
        tail = 0.0  # b(e) = 0, outside the window too
        if g:
            # ||b(g)(gamma)||_p^p = ||h_e(gamma^-1 g) - h_e(gamma^-1)||_p^p by
            # left-invariance
            diff = self._diff_pow
            for f1, f2 in zip(self._f_walk(ball, g), self._eta_over(ball)):
                val = diff(f1, f2)
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
            exact=not g,
            window_size=len(ball),
            nonzero_count=nonzero,
        )

    def _require_window_of(self, ball: CayleyBall) -> None:
        """Raise SpecMismatchError unless the window is a ball of the
        cocycle's group: its spec, or one of the same name and generators
        (another delta of the same group)."""
        theirs, ours = ball.spec, self.spec
        if theirs is not ours and (theirs.name != ours.name
                                   or theirs.generators != ours.generators):
            raise SpecMismatchError(
                f"the window is a ball of {theirs.name}, not of the cocycle's group {ours.name}"
            )

    def _eta_over(self, ball: CayleyBall) -> list[Word | Chain]:
        """f(e, gamma^-1) for every vertex gamma of the window, in handle
        order: one walk per window ball, kept until another ball is asked for."""
        if self._eta is None or self._eta[0] is not ball:
            self._eta = (ball, self._f_walk(ball, ()))
        return self._eta[1]

    def _f_walk(self, ball: CayleyBall, start: Word) -> list[Word | Chain]:
        """f(e, gamma^-1 start) for every vertex gamma of the window, in
        handle order. With vertex handles, each vertex's descent runs once
        per cocycle, whatever the window, and a point mass is held as the
        spec's own vertex word (it is a prefix of one)."""
        fpoint = self.engine._f_point_basepoint
        spec = self.spec
        if not spec.vertex_count:
            return [fpoint(u) for u in ball.walk(start)]
        at = self._f_at
        words = spec._vertex_word
        vids = spec._walk_handles(ball.parent_letters, start)
        for vid in vids:
            if at[vid] is None:
                f = fpoint(words[vid])
                at[vid] = f if isinstance(f, dict) else words[spec._word_vertex[f]]
        return [at[vid] for vid in vids]

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
        letters = range(len(spec.generators))
        inv = spec._inv
        rng = random.Random(seed)
        k = len(g)
        for _ in range(samples):
            i = rng.randrange(k + 1)
            # the first step leaves the axis at g[:i] (-1 past its ends), each
            # later one does not backtrack
            banned = (inv[g[i - 1]] if i else -1, g[i] if i < k else -1)
            depth = rng.randrange(ten + 1)
            suffix: list[int] = []
            for _ in range(depth):
                options = [x for x in letters if x not in banned]
                if not options:
                    break
                suffix.append(rng.choice(options))
                banned = (inv[suffix[-1]],)
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

        Defined for gamma in ``_admissible(g)``; under that precondition a
        False return is a bug witness, not a valid outcome.
        """
        if gamma not in self._admissible(g):
            raise ValueError(
                "gamma must lie on the geodesic q[g, e], at least 10*delta from both endpoints"
            )
        return self._disjoint_supports(g, gamma)

    def _disjoint_supports(self, g: Word, gamma: Word) -> bool:
        # at the identity, as translation by gamma is a bijection; f_at_offset
        # keeps f_chain's margin rule, so the same errors raise
        spec = self.spec
        ig = spec._inv_word(gamma)
        f1 = self.engine.f_at_offset(gamma, spec._mul(ig, g))
        f2 = self.engine.f_at_offset(gamma, ig)
        return not (as_chain(f1).keys() & as_chain(f2).keys())

    def _admissible(self, g: Word) -> tuple[Word, ...]:
        """The vertices of the geodesic q[g, e] at least 10*delta from both
        endpoints: its vertex at position i is i from g and d(g, e) - i from
        e, so they are the positions 10*delta .. d(g, e) - 10*delta."""
        ten = self.engine.ten_delta
        path = q_path(self.spec, g, ())
        return path[ten:len(path) - ten]

    def properness_count(self, g: Word) -> int:
        """Number of admissible geodesic vertices with disjoint supports.

        Each one contributes a summand >= 1 to ||pi(g) eta - eta||_p^p, so
        the count is a properness certificate for g.
        """
        return sum(self._disjoint_supports(g, gamma) for gamma in self._admissible(g))

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
        agree, gamma w == g (m w), at each distinct support point w of the
        two chains, so each term cancels its partner. This tests the group
        law and the walks; the literal audits, which re-derive f(m, k),
        f(gamma, gk) and f(m, e) from scratch at a fraction of the vertices
        and compare each with its identity chain translated by its own base,
        are the independent check of the equivariance of f.

        The translates gamma^-1 gk, gamma^-1 g and g^-1 gamma of every
        vertex of the window come from three ``CayleyBall.walk`` passes
        along its BFS tree. A window of another group raises
        SpecMismatchError. With audits, a window whose audits could reach
        past the spec's longest word raises ExactnessError before the sweep,
        whichever vertices the draws pick.
        """
        spec = self.spec
        self._require_window_of(window)
        spec.validate_word(g)
        spec.validate_word(k)
        mul = spec._mul
        gk = mul(g, k)
        if audit_fraction:
            # the audits f(m, k), f(gamma, gk) and f(m, e), with |m| <= |g| + R,
            # reach at most |g| + 2R + max(|gk|, |g|) + delta
            self.engine._require_margin(
                g, 2 * window.radius + max(len(gk), len(g)) + spec.delta)
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
            # each distinct point once; a point mass is its word, with no
            # unit dict built for it
            spread1, spread2 = isinstance(w1, dict), isinstance(w2, dict)
            if spread1 or spread2:
                points = (w1.keys() if spread1 else {w1}) | (w2.keys() if spread2 else {w2})
            else:
                points = (w1,) if w1 == w2 else (w1, w2)
            for w in points:
                if mul(gamma, w) != mul(g, mul(m, w)):
                    if len(witnesses) < _MAX_WITNESSES:
                        witnesses.append(gamma)
                    break
            if audit_fraction and rng.random() < audit_fraction:
                audited += 1
                self._audit_identity(k, gk, gamma, m, as_chain(w1), as_chain(w2))
        return IdentityReport(
            vertices=len(window),
            residual_zero=not witnesses,
            witnesses=witnesses,
            audited=audited,
        )

    def _audit_identity(self, k, gk, gamma, m, c1, c2) -> None:
        """Re-derive f(m, k), f(gamma, gk) and f(m, e) with the literal
        recursion and compare each with its identity chain, c1 = f(e,
        gamma^-1 gk) or c2 = f(e, gamma^-1 g), translated by its own base."""
        spec = self.spec
        lit = self.engine.f_chain_literal
        if lit(m, k) != translate(spec, m, c1) or lit(gamma, gk) != translate(spec, gamma, c1):
            raise InvariantViolation(f"literal recursion disagrees at {spec.label_word(gamma)}")
        if lit(m, ()) != translate(spec, m, c2):
            raise InvariantViolation(
                f"literal recursion disagrees at {spec.label_word(gamma)} (tail term)"
            )
