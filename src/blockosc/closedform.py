"""Hand-derived piecewise values for block combinations in the worked space.

These formulas are written out branch by branch, precisely so they share
nothing with the generic sup-family evaluator.  Tests play the two against
each other.  Each public function brings its coefficients once to integer
numerators over their least common denominator ``d``.  It then evaluates
every guard with both sides multiplied through by a positive integer
(``3/2·a1 >= 9/8·(a1 + a2 + 2/3·a3)`` becomes ``4·a1 >= 3·a1 + 3·a2 + 2·a3``),
and builds one ``Fraction`` for its result; the private cores return theirs
as an unreduced ``(numerator, denominator)`` pair.  All inputs are nonnegative
rationals; callers take absolute values first.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import InvalidArgumentError


def _numerators(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of the coefficients over their least common denominator."""
    r = [(c if isinstance(c, Fraction) else Fraction(c)).as_integer_ratio() for c in coeffs]
    d = lcm(*[q for _, q in r])
    n = [p * (d // q) for p, q in r]
    if n and min(n) < 0:
        raise InvalidArgumentError("closed forms take nonnegative coefficients")
    return n, d


def flat_norm_sorted(coeffs: Sequence[Fraction]) -> Fraction:
    """Space norm of a vector whose absolute entries arrive sorted descending.

    One of three quantities wins: the head entry, 3/4 of the top-2 sum, or
    9/16 of the top-8 sum.  Here each is scaled by 16·d.
    """
    n, d = _numerators(coeffs)
    if not n:
        return Fraction(0)
    if any(x < y for x, y in zip(n, n[1:])):
        raise InvalidArgumentError("entries must be sorted descending")
    head, pair, eight = 16 * n[0], 12 * sum(n[:2]), 9 * sum(n[:8])
    if head >= pair and head >= eight:
        return Fraction(n[0], d)
    if pair >= head and pair >= eight:
        return Fraction(pair, 16 * d)
    return Fraction(eight, 16 * d)


def _two_pair(n: Sequence[int], d: int) -> tuple[int, int]:
    m, s = max(n[0], n[1]), n[0] + n[1]
    return (m, d) if 4 * m >= 3 * s else (3 * s, 4 * d)


def two_pair_block_value(a1: Fraction, a2: Fraction) -> Fraction:
    """Combination of two normalized pair blocks at coefficients (a1, a2)."""
    return Fraction(*_two_pair(*_numerators([a1, a2])))


def _pair_pair_eight(n: Sequence[int], d: int) -> tuple[int, int]:
    # Orders compare 3·d times a1, a2 and a3/3; mixed is 3·d·(a1 + a2 + 2/3·a3).
    n1, n2, n3 = n[0], n[1], max(n[2:])
    mixed = 3 * n1 + 3 * n2 + 2 * n3
    if 3 * n1 >= 3 * n2 >= n3:
        return (n1, d) if 4 * n1 >= mixed else (mixed, 4 * d)
    if 3 * n1 >= n3 >= 3 * n2:
        return (n1, d) if 4 * n1 >= 3 * (n1 + n3) else (3 * (n1 + n3), 4 * d)
    if 3 * n2 >= 3 * n1 >= n3:
        return (n2, d) if 4 * n2 >= mixed else (mixed, 4 * d)
    if 3 * n2 >= n3 >= 3 * n1:
        return (n2, d) if 4 * n2 >= 3 * (n2 + n3) else (3 * (n2 + n3), 4 * d)
    # a3/3 dominates both pair coefficients.
    return n3, d


def pair_pair_eight_block_value(a1: Fraction, a2: Fraction, a3: Fraction) -> Fraction:
    """Combination of two pair blocks and one 8-block.

    Nine branches over the relative order of a1, a2 and a3/3.
    """
    return Fraction(*_pair_pair_eight(*_numerators([a1, a2, a3])))


def _model_228(n: Sequence[int], d: int) -> tuple[int, int]:
    if len(n) == 1:
        return n[0], d
    # past k = 3 only the largest tail coefficient reaches the top-8 window
    return _two_pair(n, d) if len(n) == 2 else _pair_pair_eight(n, d)


def model_value_228(coeffs: Sequence[Fraction]) -> Fraction:
    """Limit norm along the (pair, pair, eights...) block sequence."""
    n, d = _numerators(coeffs)
    if not n:
        raise InvalidArgumentError("need at least one coefficient")
    return Fraction(*_model_228(n, d))


def model_value_8(coeffs: Sequence[Fraction]) -> Fraction:
    """Limit norm along the all-eights block sequence: plainly the largest coefficient."""
    n, d = _numerators(coeffs)
    if not n:
        raise InvalidArgumentError("need at least one coefficient")
    return Fraction(max(n), d)
