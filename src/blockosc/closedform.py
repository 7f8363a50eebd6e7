"""Hand-derived piecewise values for block combinations in the worked space.

These formulas are written out branch by branch, with the branch guards kept
in their original cross-multiplied shape, precisely so they share nothing
with the generic sup-family evaluator.  Tests play the two against each
other.  All inputs are nonnegative rationals; callers take absolute values
first.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InvalidArgumentError

_F = Fraction


def _check_nonneg(coeffs: Sequence[Fraction]) -> list[Fraction]:
    out = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
    if any(c.numerator < 0 for c in out):
        raise InvalidArgumentError("closed forms take nonnegative coefficients")
    return out


def flat_norm_sorted(coeffs: Sequence[Fraction]) -> Fraction:
    """Space norm of a vector whose absolute entries arrive sorted descending.

    One of three quantities wins: the head entry, 3/4 of the top-2 sum, or
    9/16 of the top-8 sum.
    """
    a = _check_nonneg(coeffs)
    if not a:
        return _F(0)
    if any(x < y for x, y in zip(a, a[1:])):
        raise InvalidArgumentError("entries must be sorted descending")
    head = a[0]
    pair = _F(3, 4) * sum(a[:2], _F(0))
    eight = _F(9, 16) * sum(a[:8], _F(0))
    if head >= pair and head >= eight:
        return head
    if pair >= head and pair >= eight:
        return pair
    return eight


def two_pair_block_value(a1: Fraction, a2: Fraction) -> Fraction:
    """Combination of two normalized pair blocks at coefficients (a1, a2)."""
    a1, a2 = _check_nonneg([a1, a2])
    m = max(a1, a2)
    if _F(3, 2) * m >= _F(9, 8) * (a1 + a2):
        return m
    return _F(3, 4) * (a1 + a2)


def pair_pair_eight_block_value(a1: Fraction, a2: Fraction, a3: Fraction) -> Fraction:
    """Combination of two pair blocks and one 8-block.

    Nine branches over the relative order of a1, a2 and a3/3, each guarded
    the way the derivation leaves them.
    """
    a1, a2, a3 = _check_nonneg([a1, a2, a3])
    third = _F(1, 3) * a3
    mixed = a1 + a2 + _F(2, 3) * a3

    if a1 >= a2 >= third:
        if _F(3, 2) * a1 >= _F(9, 8) * mixed:
            return a1
        return _F(3, 4) * mixed
    if a1 >= third >= a2:
        if _F(3, 2) * a1 >= _F(9, 8) * (a1 + a3):
            return a1
        return _F(3, 4) * (a1 + a3)
    if a2 >= a1 >= third:
        if _F(3, 2) * a2 >= _F(9, 8) * mixed:
            return a2
        return _F(3, 4) * mixed
    if a2 >= third >= a1:
        if _F(3, 2) * a2 >= _F(9, 8) * (a2 + a3):
            return a2
        return _F(3, 4) * (a2 + a3)
    # a3/3 dominates both pair coefficients.
    return a3


def tail_reduced_block_value(coeffs: Sequence[Fraction]) -> Fraction:
    """Combination of (pair, pair, 8-set, ..., 8-set) blocks, k >= 3.

    Only the largest tail coefficient can reach the top-8 window, so the
    value collapses to the three-block formula.
    """
    a = _check_nonneg(coeffs)
    if len(a) < 3:
        raise InvalidArgumentError("need at least three coefficients")
    return pair_pair_eight_block_value(a[0], a[1], max(a[2:]))


def eights_block_value(coeffs: Sequence[Fraction]) -> Fraction:
    """Combination of normalized 8-blocks: plainly the largest coefficient."""
    a = _check_nonneg(coeffs)
    if not a:
        raise InvalidArgumentError("need at least one coefficient")
    return max(a)


def model_value_228(coeffs: Sequence[Fraction]) -> Fraction:
    """Limit norm along the (pair, pair, eights...) block sequence."""
    a = _check_nonneg(coeffs)
    if not a:
        raise InvalidArgumentError("need at least one coefficient")
    if len(a) == 1:
        return a[0]
    if len(a) == 2:
        return two_pair_block_value(a[0], a[1])
    return tail_reduced_block_value(a)


def model_value_8(coeffs: Sequence[Fraction]) -> Fraction:
    """Limit norm along the all-eights block sequence."""
    return eights_block_value(coeffs)
