"""Growth and decay estimation: the constants behind the summability argument.

The growth constant upsilon = #B(e, 1) bounds #B(e, r) by upsilon^r. The
difference norms of the averaged chains decay exponentially in the Gromov
product; the decay base and constant are fitted as an upper envelope over
samples, and an exponent p with (base^p * upsilon) < 1/4 is selected, a
margin under the 1/2 at which the geometric tail of the cocycle norm
converges with an explicit bound.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .cayley import CayleyBall
from .chains import normalized_diff_pow
from .errors import (ExactnessError, FitError, OutOfWindowError, PSelectionError,
                     UnderdeterminedFitError)
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
    Generators are distinct elements other than the identity on every
    family (ball files are checked on load), so #B(e, 1) = 1 + |S|. An
    explicit ball of radius 0 does not determine it: OutOfWindowError.
    """
    if ball.spec.max_word_length < 1:
        raise OutOfWindowError("requested radius 1 exceeds the longest word of the spec, 0")
    return float(1 + len(ball.spec.generators))


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
    stays within cap, ``_CAP_FACTOR`` times the largest value: the fastest
    decay the data supports with a bounded constant. Flat data with a cutoff
    (the tree case) yields a base below 1 and a moderate constant. The cap
    test max v * lam^(-x) <= cap holds exactly when lam >= (v / cap)^(1/x)
    for every positive sample with x > 0; one with x = 0 never binds, since
    v <= cap. So the base is the first grid value at or above the largest
    such floor (0 if there is none), or the loosest grid value if none
    reaches it; the envelope stays valid. A Gromov product is never
    negative: FitError. Order and repeats do not change the fit;
    ``n_samples`` and ``n_positive`` count all samples. On the samples of
    ``rho_fitter`` at p = 1 this is lambda, the decay of the f chains.

    Every quantity of the fit is a maximum or an all-test over the samples,
    so it is computed on the distinct (x, v) points: ``rho_fitter`` hands
    those to the same core at each p, without building them from the list.
    """
    pts = [(float(x), float(v)) for x, v in samples]
    return _fit_points(set(pts), len(pts), sum(v > 0 for _, v in pts), pts)


def _fit_points(points, n_samples: int, n_positive: int, samples) -> DecayFit:
    """The envelope over the distinct (x, v) ``points`` of ``samples``, which
    hold ``n_samples`` samples, ``n_positive`` of them with v > 0."""
    if not all(x >= 0 for x, _ in points):
        raise FitError("a Gromov product is never negative; the decay fit needs x >= 0")
    if len({x for x, _ in points}) < 2:
        raise UnderdeterminedFitError(n_samples)
    positive = [(x, v) for x, v in points if v > 0]
    if not positive:
        return DecayFit(
            constant=0.0, base=0.5, n_samples=n_samples, n_positive=0, samples=samples,
        )
    cap = _CAP_FACTOR * max(v for _, v in positive)
    floor = max(((v / cap) ** (1.0 / x) for x, v in positive if x > 0), default=0.0)
    base = _LAMBDA_GRID[min(bisect_left(_LAMBDA_GRID, floor), len(_LAMBDA_GRID) - 1)]
    constant = max(v * base ** (-x) for x, v in positive) * (1.0 + 1e-9)
    if not all(v <= constant * base ** x for x, v in points):
        raise FitError("envelope fit failed to dominate its own samples")
    return DecayFit(
        constant=constant, base=base, n_samples=n_samples, n_positive=n_positive,
        samples=samples,
    )


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
    """(Gromov product (a|a')_b, f(e, u), f(e, u')) for each sampled triple,
    with u = b^-1 a and u' = b^-1 a'.

    b is sampled, so a fit on B(e, R) sees offsets u in B(e, 2R); each triple
    is then evaluated at the identity by left-invariance: (a|a')_b is
    (|u| + |u'| - d(a, a'))/2, and f(b, a) = b . f(e, u) is a translate, whose
    normalized differences are those of f(e, u). Each chain is given as
    ``ChainEngine.f_at_offset`` gives it, a word for a point mass. Triples
    that an explicit ball cannot support are skipped one by one, by the
    margin test of ``f_at_offset``, which ``f_chain`` also runs, and the
    products of ``gromov_product``; their values are undefined rather than
    zero.
    """
    spec = engine.spec
    mul, inv = spec._mul, spec._inv_word
    chain_at = engine.f_at_offset
    out = []
    for b, a, a2 in decay_triples(ball, sample_count, seed):
        try:
            b_inv = inv(b)
            u = mul(b_inv, a)
            f1 = chain_at(b, u)
            if a2 == a:  # a third of the triples; a^-1 a = e
                out.append((float(len(u)), f1, f1))
                continue
            u2 = mul(b_inv, a2)
            f2 = chain_at(b, u2)
            out.append(((len(u) + len(u2) - len(mul(inv(a), a2))) / 2, f1, f2))
        except (ExactnessError, OutOfWindowError):
            continue
    return out


def fit_f_decay(engine: ChainEngine, ball: CayleyBall, sample_count: int, seed: int) -> DecayFit:
    """lambda, the envelope of ||f(b,a) - f(b,a')||_1 against (a|a')_b: f is a
    convex combination, so h = f at p = 1, and this is ``rho_fitter`` at p = 1."""
    rho_of_p, fits = rho_fitter(engine, ball, sample_count, seed)
    rho_of_p(1.0)
    return fits[1.0]


def _float_chain(f) -> dict:
    """A chain, or the word of a point mass, with float coefficients."""
    return {w: float(c) for w, c in f.items()} if isinstance(f, dict) else {f: 1.0}


def rho_fitter(engine: ChainEngine, ball: CayleyBall, sample_count: int, seed: int):
    """A per-p decay fitter reusing one sampled triple set.

    Returns (rho_of_p, fits): the callable fits the envelope of
    ||h(b,a) - h(b,a')||_p against (a|a')_b at each requested p (the decay
    base may depend on p) and records the DecayFit. At p = 1, h = f and the
    fit is lambda (``fit_f_decay``). The triples are drawn with b sampled
    and evaluated once, at the identity (``_supported_triples``).

    Triples whose chains give ``normalized_diff_pow`` the same float
    operands in the same order share one chain pair; on a tree the chains
    are unit point masses and all triples reduce to two such pairs. A
    sample is keyed by (x, pair), and neither depends on p: a grid p costs
    one evaluation per pair and a fit over the distinct keys, which equals
    ``fit_envelope`` over the full sample list that the DecayFit records.
    """
    pairs: dict[tuple, int] = {}  # operand signature -> index into ``chains``
    chains: list[tuple[dict, dict]] = []
    keyed: list[tuple[float, int]] = []
    for x, f1, f2 in _supported_triples(engine, ball, sample_count, seed):
        # normalized_diff_pow reads coefficients through float(): convert once, not per p
        g1, g2 = _float_chain(f1), _float_chain(f2)
        sig = (tuple(g1.values()), tuple(g2.values()), tuple(g2.get(w) for w in g1),
               tuple(c for w, c in g2.items() if w not in g1))
        i = pairs.setdefault(sig, len(chains))
        if i == len(chains):
            chains.append((g1, g2))
        keyed.append((x, i))
    slot: dict[tuple[float, int], int] = {}  # distinct key -> its first position
    order = [slot.setdefault(k, len(slot)) for k in keyed]
    per_pair = [0] * len(chains)  # samples with each chain pair
    for _, i in keyed:
        per_pair[i] += 1
    fits: dict[float, DecayFit] = {}

    def rho_of_p(p: float) -> float:
        if p in fits:
            return fits[p].base
        vals = [normalized_diff_pow(g1, g2, p) ** (1.0 / p) for g1, g2 in chains]
        points = [(x, vals[i]) for x, i in slot]
        fit = _fit_points(set(points), len(order), sum(n for n, v in zip(per_pair, vals) if v > 0),
                          [points[j] for j in order])
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
            return PSelection(
                upsilon=upsilon, p=p, rho_used=rho, margin=0.5 - q, candidates=candidates
            )
    raise PSelectionError(
        f"no exponent p in [{_P_GRID[0]}, {_P_GRID[-1]}] reaches rho^p * upsilon < {_P_TARGET}; "
        f"last candidates: {candidates[-3:]}"
    )


class PFit(NamedTuple):
    """What ``fit_p`` decides: p, the decay fit at p, upsilon, the selection
    (None at a given p), and the fitter it used, whose ``fits`` hold every
    p it was asked for; ``rho_of_p`` fits further p on the same triples."""

    p: float
    fit: DecayFit
    upsilon: float
    selection: PSelection | None
    rho_of_p: Callable[[float], float]
    fits: dict[float, DecayFit]


def fit_p(engine: ChainEngine, ball: CayleyBall, samples: int, seed: int,
          p: float | str = "auto") -> PFit:
    """The rule for p on every command, fitted on ``ball`` from max(samples,
    MIN_FIT_SAMPLES) triples drawn with ``seed``: selected at p = "auto",
    otherwise fitted at the given p. Calls ``rho_fitter`` and ``select_p``
    through the module globals, where tools may wrap them. The first fit is
    made before upsilon, so a fit that nothing determines raises
    UnderdeterminedFitError even where upsilon is undetermined too (a ball
    file of radius 0)."""
    rho_of_p, fits = rho_fitter(engine, ball, max(samples, MIN_FIT_SAMPLES), seed)
    rho_of_p(_P_GRID[0] if p == "auto" else p)
    ups = estimate_upsilon(ball)
    if p == "auto":
        sel = select_p(ups, rho_of_p)
        return PFit(sel.p, fits[sel.p], ups, sel, rho_of_p, fits)
    return PFit(p, fits[p], ups, None, rho_of_p, fits)


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
