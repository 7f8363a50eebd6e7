"""Ordinals below omega^omega in Cantor normal form, plus an overflow marker.

Every rank this package ever reports is either a finite sum
``w^e1*c1 + ... + w^ek*ck`` with strictly decreasing exponents, or the single
marker "at least omega^omega" for families whose elements have unbounded
cardinality.  Nothing above the marker is ever distinguished.
"""

from __future__ import annotations

from .errors import InvalidArgumentError
from .frozen import frozen


@frozen
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

    def __str__(self) -> str:
        if self.unbounded:
            return "≥w^w"
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
