"""Growth and decay estimation: the constants behind the summability argument.

The growth constant upsilon = #B(e, 1) bounds #B(e, r) by upsilon^r. The
difference norms of the averaged chains decay exponentially in the Gromov
product; the decay base and constant are fitted as an upper envelope over
samples, and an exponent p with (base^p * upsilon) < 1/2 is selected so
that the geometric tail of the cocycle norm converges with an explicit bound.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from contextlib import suppress
from dataclasses import dataclass, field

from .cayley import CayleyBall, build_ball, gromov_product
from .chains import norm_1, normalized_diff_pow, sub
from .errors import ExactnessError, FitError, OutOfWindowError, PSelectionError
from .flowers import ChainEngine

_LAMBDA_GRID = [i / 200.0 for i in range(1, 200)]
# an envelope constant may exceed the largest sample by at most this factor
_CAP_FACTOR = 32.0
# candidate exponents p = 2.0, 2.1, ..., 64.0
_P_GRID = [round(2.0 + i * 0.1, 10) for i in range(621)]
# rho^p * upsilon must fall below this, a safety margin under the 1/2 the
# summability argument needs, because the decay base is only an estimate
_P_TARGET = 0.25
# a decay fit for a command draws at least this many triples
MIN_FIT_SAMPLES = 200


def estimate_upsilon(ball: CayleyBall) -> float:
    """#B(e, 1): exactly the least u with #B(e, r) <= u^r for every r >= 1.

    A geodesic word of length r + s splits into words of lengths r and s,
    so B(e, r + s) lies in B(e, r) B(e, s) and #B(e, r) <= #B(e, 1)^r. The
    graph is homogeneous, so e is representative; ``ball`` gives the spec.
    An explicit ball of radius 0 does not determine it: OutOfWindowError.
    """
    return float(len(build_ball(ball.spec, 1)))


@dataclass
class DecayFit:
    """Upper envelope value <= constant * base^x over all fitted samples."""

    constant: float
    base: float
    n_samples: int
    n_positive: int
    samples: list[tuple[float, float]] = field(default_factory=list)

    def envelope_ok(self) -> bool:
        return all(v <= self.constant * self.base ** x for x, v in self.samples)


def fit_envelope(samples) -> DecayFit:
    """Fit the decay envelope over (gromov product, norm value) samples.

    The base is the smallest grid value whose minimal dominating constant
    stays within ``_CAP_FACTOR`` times the largest observed value; this keeps
    the constant bounded while reporting the fastest decay the data
    supports. Data that is flat up to a cutoff and zero beyond it (the tree
    case) then yields a base strictly below 1 with a moderate constant.
    The constant is taken over the distinct positive samples, so order and
    repeats do not change the fit; ``n_samples`` and ``n_positive`` count all.

    The base is found by bisection over the grid, in eight evaluations of
    the constant. A Gromov product is never negative, and for x >= 0 the term
    v * lam^(-x) does not increase with lam, so neither does the constant
    c(lam): the cap test fails and then holds along the grid, and the first
    grid value that passes is the one a scan in order would return.
    Products are half-integers and adjacent grid values differ by at least
    0.5%, so for x >= 1/2 adjacent constants differ by about 0.25% or more,
    far above rounding error. A negative product breaks this: FitError. A
    constant beyond every float fails the cap. If no grid value passes, the
    loosest one is used; the envelope stays valid.
    """
    pts = [(float(x), float(v)) for x, v in samples]
    if not all(x >= 0 for x, _ in pts):
        raise FitError("a Gromov product is never negative; the decay fit needs x >= 0")
    if len({x for x, _ in pts}) < 2:
        raise FitError("decay fit is underdetermined: all Gromov products are equal")
    positive = [(x, v) for x, v in pts if v > 0]
    if not positive:
        return DecayFit(
            constant=0.0, base=0.5, n_samples=len(pts), n_positive=0, samples=pts,
        )
    distinct = sorted(set(positive))  # repeats cannot change a maximum
    cap = _CAP_FACTOR * max(v for _, v in distinct)

    def dominating(lam: float) -> float:
        return max(v * lam ** (-x) for x, v in distinct)

    def within_cap(lam: float) -> bool:
        try:
            return dominating(lam) <= cap
        except OverflowError:  # the constant exceeds every float, and so the cap
            return False

    i = bisect_left(_LAMBDA_GRID, True, key=within_cap)
    base = _LAMBDA_GRID[min(i, len(_LAMBDA_GRID) - 1)]
    constant = dominating(base) * (1.0 + 1e-9)
    if base >= 1.0:
        raise FitError("no decay base below 1 dominates the samples")
    fit = DecayFit(
        constant=constant, base=base, n_samples=len(pts), n_positive=len(positive),
        samples=pts,
    )
    if not fit.envelope_ok():
        raise FitError("envelope fit failed to dominate its own samples")
    return fit


def decay_triples(ball: CayleyBall, sample_count: int, seed: int):
    """Sample triples (b, a, a') stratified so Gromov products span the range.

    One third fully random, one third with a' a short perturbation of a
    (large products), one third with a' = a (zero norms, any product). A
    perturbation that leaves an explicit ball drops its triple; the random
    draws do not depend on which triples are dropped.
    """
    rng = random.Random(seed)
    spec = ball.spec
    pool = ball.words
    n_gens = len(spec.generators)
    out = []
    for j in range(sample_count):
        b = pool[rng.randrange(len(pool))]
        a = pool[rng.randrange(len(pool))]
        kind = j % 3
        if kind == 0:
            a2 = pool[rng.randrange(len(pool))]
        elif kind == 1:
            steps = [rng.randrange(n_gens) for _ in range(rng.randrange(1, 4))]
            try:
                a2 = a
                for x in steps:
                    a2 = spec._mul(a2, (x,))
            except OutOfWindowError:
                continue
        else:
            a2 = a
        out.append((b, a, a2))
    return out


def _supported_triples(engine: ChainEngine, ball: CayleyBall, sample_count: int, seed: int):
    """(Gromov product (a|a')_b, f(b, a), f(b, a')) for each sampled triple.

    Triples that an explicit ball cannot support are skipped one by one;
    their values are undefined rather than zero.
    """
    spec = engine.spec
    out = []
    for b, a, a2 in decay_triples(ball, sample_count, seed):
        try:
            f1 = engine.f_chain(b, a)
            # a third of the triples repeat a, and point masses are not memoized
            f2 = f1 if a2 == a else engine.f_chain(b, a2)
            out.append((float(gromov_product(spec, b, a, a2)), f1, f2))
        except (ExactnessError, OutOfWindowError):
            continue
    return out


def fit_f_decay(engine: ChainEngine, ball: CayleyBall, sample_count: int, seed: int) -> DecayFit:
    """Envelope for ||f(b,a) - f(b,a')||_1 against (a|a')_b."""
    samples = [
        (x, float(norm_1(sub(f1, f2))))
        for x, f1, f2 in _supported_triples(engine, ball, sample_count, seed)
    ]
    return fit_envelope(samples)


def rho_fitter(engine: ChainEngine, ball: CayleyBall, sample_count: int, seed: int):
    """A per-p decay fitter reusing one sampled triple set.

    Returns (rho_of_p, fits): the callable fits the envelope of
    ||h(b,a) - h(b,a')||_p against (a|a')_b at each requested p (the decay
    base may depend on p) and records the DecayFit.

    Triples whose chains give ``normalized_diff_pow`` the same float
    operands in the same order share one evaluation per p; on a tree the
    chains are unit point masses and all triples reduce to two such pairs.
    """
    pairs: dict[tuple, int] = {}  # operand signature -> index into ``chains``
    chains: list[tuple[dict, dict]] = []
    keyed: list[tuple[float, int]] = []
    for x, f1, f2 in _supported_triples(engine, ball, sample_count, seed):
        # normalized_diff_pow reads coefficients through float(): convert once, not per p
        g1 = {w: float(c) for w, c in f1.items()}
        g2 = {w: float(c) for w, c in f2.items()}
        sig = (tuple(g1.values()), tuple(g2.values()), tuple(g2.get(w) for w in g1),
               tuple(c for w, c in g2.items() if w not in g1))
        i = pairs.setdefault(sig, len(chains))
        if i == len(chains):
            chains.append((g1, g2))
        keyed.append((x, i))
    fits: dict[float, DecayFit] = {}

    def rho_of_p(p: float) -> float:
        if p in fits:
            return fits[p].base
        vals = [normalized_diff_pow(g1, g2, p) ** (1.0 / p) for g1, g2 in chains]
        samples = [(x, vals[i]) for x, i in keyed]
        fit = fit_envelope(samples)
        fits[p] = fit
        return fit.base

    return rho_of_p, fits


@dataclass
class PSelection:
    """A chosen exponent p with its summability margin."""

    upsilon: float
    p: float
    rho_used: float
    margin: float  # 1/2 - rho^p * upsilon, positive by construction
    candidates: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "upsilon": self.upsilon,
            "candidates": self.candidates,
            "chosen_p": self.p,
            "margin": self.margin,
        }


def select_p(upsilon: float, rho_of_p) -> PSelection:
    """Smallest grid exponent p >= 2 with rho(p)^p * upsilon below 1/4."""
    if upsilon <= 0:
        raise ValueError("upsilon must be positive")
    candidates: list[dict] = []
    for p in _P_GRID:
        rho = float(rho_of_p(p))
        q = rho ** p * upsilon
        candidates.append({"p": p, "rho": rho, "rho_p_upsilon": q})
        if rho < 1.0 and q < _P_TARGET:
            sel = PSelection(
                upsilon=upsilon, p=p, rho_used=rho, margin=0.5 - q, candidates=candidates
            )
            assert sel.rho_used ** sel.p * sel.upsilon < 0.5
            return sel
    raise PSelectionError(
        f"no exponent p in [{_P_GRID[0]}, {_P_GRID[-1]}] reaches rho^p * upsilon < {_P_TARGET}; "
        f"last candidates: {candidates[-3:]}"
    )


def fit_p(engine: ChainEngine, ball: CayleyBall, samples: int, seed: int,
          p: float | str = "auto") -> tuple[float, DecayFit, float, PSelection | None]:
    """The rule for p on every command: (p, the decay fit at p, upsilon, the
    selection or None at a given p), fitted on ``ball`` from max(samples,
    MIN_FIT_SAMPLES) triples drawn with ``seed``. Calls ``rho_fitter`` and
    ``select_p`` through the module globals, where tools may wrap them."""
    ups = estimate_upsilon(ball)
    rho_of_p, fits = rho_fitter(engine, ball, max(samples, MIN_FIT_SAMPLES), seed)
    if p == "auto":
        sel = select_p(ups, rho_of_p)
        return sel.p, fits[sel.p], ups, sel
    rho_of_p(p)
    return p, fits[p], ups, None


def tail_bound(C: float, rho: float, p: float, upsilon: float, R: int, d: int) -> float:
    """Bound on the cocycle norm mass outside the window of radius R.

    Sums the geometric layer bounds C^p * rho^(p(n - d)) * upsilon^n over
    n > R; requires rho^p * upsilon < 1/2 so the series converges. R = -1
    gives the full-sum bound, at most 2 * C^p * rho^(-p d). Where a factor
    overflows, the bound is taken through its logarithm: inf only beyond
    every float.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError("the decay base must lie in [0, 1)")
    if C < 0 or p < 1 or upsilon <= 0 or d < 0 or R < -1:
        raise ValueError("invalid tail-bound arguments")
    if C == 0.0 or rho == 0.0:
        return 0.0
    q = rho ** p * upsilon
    if q >= 0.5:
        raise ValueError(f"rho^p * upsilon = {q:.4f} is not below 1/2")
    with suppress(OverflowError):
        bound = (C ** p) * rho ** (-p * d) * q ** (R + 1) / (1.0 - q)
        if math.isfinite(bound):
            return bound
    with suppress(OverflowError):  # ln q = p ln rho + ln upsilon, finite where q underflows
        return math.exp(p * math.log(C) - p * d * math.log(rho) - math.log(1.0 - q)
                        + (R + 1) * (p * math.log(rho) + math.log(upsilon)))
    return math.inf
