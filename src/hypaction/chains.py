"""Sparse finitely supported 0-chains with exact rational coefficients.

A chain is a plain dict mapping normal-form words to nonzero Fractions.
Arithmetic is exact; zero coefficients are never stored. The lp norm and
the distance between normalized chains are floating point, with
coefficients converted at the last step; use norm_1 when exactness matters.
"""

from __future__ import annotations

from fractions import Fraction

from .groups import GroupSpec, Word

Chain = dict[Word, Fraction]


def add(x: Chain, y: Chain) -> Chain:
    out = dict(x)
    for w, c in y.items():
        s = out.get(w, 0) + c
        if s:
            out[w] = s
        else:
            out.pop(w, None)
    return out


def sub(x: Chain, y: Chain) -> Chain:
    out = dict(x)
    for w, c in y.items():
        s = out.get(w, 0) - c
        if s:
            out[w] = s
        else:
            out.pop(w, None)
    return out


def as_chain(x: Word | Chain) -> Chain:
    """A word as its unit point mass; a chain as itself."""
    return x if isinstance(x, dict) else {x: Fraction(1)}


def coefficient_sum(x: Chain) -> Fraction:
    return sum(x.values(), Fraction(0))


def norm_1(x: Chain) -> Fraction:
    return sum((abs(c) for c in x.values()), Fraction(0))


def norm_p(x: Chain, p: float) -> float:
    if p < 1:
        raise ValueError("lp norms need p >= 1")
    if not x:
        return 0.0
    return sum(abs(float(c)) ** p for c in x.values()) ** (1.0 / p)


def normalized(x: Chain, p: float) -> dict[Word, float]:
    """x / ||x||_p for a nonzero chain, in floating point."""
    n = norm_p(x, p)
    return {w: float(c) / n for w, c in x.items()}


def diff_pow(x: dict[Word, float], y: dict[Word, float], p: float) -> float:
    """||x - y||_p^p for floating-point chains, summed over x, then over the
    support of y outside x."""
    s = 0.0
    for w, u in x.items():
        v = y.get(w)
        s += abs(u) ** p if v is None else abs(u - v) ** p
    for w, v in y.items():
        if w not in x:
            s += abs(v) ** p
    return s


def normalized_diff_pow(x: Chain, y: Chain, p: float) -> float:
    """||x/||x||_p - y/||y||_p||_p^p for nonzero chains, in floating point.

    The distance between the normalized chains h = f / ||f||_p; it is
    translation invariant, so identity-based chains give the value of
    every translate.
    """
    return diff_pow(normalized(x, p), normalized(y, p), p)


def translate(spec: GroupSpec, g: Word, x: Chain) -> Chain:
    """Left translation g . sum(c_w w) = sum(c_w (g w)); a support permutation."""
    spec.validate_word(g)
    if not g:
        return dict(x)
    mul = spec._mul
    return {mul(g, w): c for w, c in x.items()}


def chain_to_entries(spec: GroupSpec, x: Chain) -> list[list]:
    """JSON-friendly sorted entries [[word, numerator, denominator], ...]."""
    return [
        [spec.label_word(w), c.numerator, c.denominator]
        for w, c in sorted(x.items())
    ]
