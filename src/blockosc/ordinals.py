"""Ordinals below omega^omega in Cantor normal form, plus an overflow marker.

Every rank this package ever reports is either a finite sum
``w^e1*c1 + ... + w^ek*ck`` with strictly decreasing exponents, or the single
marker "at least omega^omega" for families whose elements have unbounded
cardinality.  Nothing above the marker is ever distinguished.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidArgumentError


@dataclass(frozen=True)
class OrdinalCNF:
    """Cantor normal form: tuple of (exponent, coefficient) pairs.

    ``terms`` is empty for zero and for the overflow marker; the two are told
    apart by ``unbounded``.
    """

    terms: tuple[tuple[int, int], ...] = ()
    unbounded: bool = False

    def __post_init__(self):
        if self.unbounded:
            if self.terms:
                raise InvalidArgumentError("the overflow marker carries no terms")
            return
        prev = None
        for e, c in self.terms:
            if e < 0 or c < 1:
                raise InvalidArgumentError(f"bad CNF term ({e},{c})")
            if prev is not None and e >= prev:
                raise InvalidArgumentError("CNF exponents must strictly decrease")
            prev = e

    @staticmethod
    def omega_power(k: int) -> "OrdinalCNF":
        if k < 0:
            raise InvalidArgumentError("exponent must be >= 0")
        return OrdinalCNF(((k, 1),))

    @staticmethod
    def finite(n: int) -> "OrdinalCNF":
        if n < 0:
            raise InvalidArgumentError("finite ordinal must be >= 0")
        return OrdinalCNF(((0, n),)) if n else OrdinalCNF()

    def __str__(self) -> str:
        if self.unbounded:
            return ">=w^w"
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append(str(c))
            else:
                base = "w" if e == 1 else f"w^{e}"
                parts.append(base if c == 1 else f"{base}*{c}")
        return "+".join(parts)


AT_LEAST_OMEGA_OMEGA = OrdinalCNF(unbounded=True)


def ordinal_compare(a: OrdinalCNF, b: OrdinalCNF) -> int:
    """Three-way comparison; the overflow marker dominates every finite form."""
    if a.unbounded or b.unbounded:
        if a.unbounded and b.unbounded:
            return 0
        return 1 if a.unbounded else -1
    # CNF order is lexicographic on the (exponent, coefficient) term list.
    for (e1, c1), (e2, c2) in zip(a.terms, b.terms):
        if e1 != e2:
            return -1 if e1 < e2 else 1
        if c1 != c2:
            return -1 if c1 < c2 else 1
    if len(a.terms) == len(b.terms):
        return 0
    return -1 if len(a.terms) < len(b.terms) else 1
