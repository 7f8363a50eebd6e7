"""Finite subsets of the positive integers, plus infinite-set descriptors.

Naturals start at 1 throughout.  A :class:`FiniteSet` is stored as a strictly
increasing tuple; the lexicographic order used everywhere is the one induced
by symmetric differences: ``s`` precedes ``t`` when ``min(s ^ t)`` lies in
``s``.  Infinite sets never materialize; they are closed descriptors
(:class:`SetGenerator`) supporting decidable membership, iteration, indexed
access and tail restriction.

``FiniteSet._trusted`` and ``Block._trusted`` wrap a tuple unchecked.  Only
library code calls them, on a tuple it sliced, joined or combined out of valid
sets, or drew in order from a :class:`SetGenerator`: strictly increasing
positive ``int``s (for a block, nonempty sets each wholly below the next).
Input from outside goes through the public constructors, which check it.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import count, islice
from typing import Iterable, Iterator

from .errors import InvalidArgumentError
from .frozen import frozen


@frozen
class FiniteSet:
    """Immutable finite set of positive integers."""

    __slots__ = ("elements",)
    elements: tuple[int, ...]

    def __init__(self, elements: Iterable[int] = ()):
        try:
            elems = tuple(elements)
        except TypeError:
            raise InvalidArgumentError(f"elements must be iterable, got {elements!r}") from None
        for x in elems:
            if not isinstance(x, int) or isinstance(x, bool) or x < 1:
                raise InvalidArgumentError(f"elements must be integers >= 1, got {x!r}")
        elems = tuple(sorted(elems))
        for a, b in zip(elems, elems[1:]):
            if a == b:
                raise InvalidArgumentError(f"duplicate element {a}")
        object.__setattr__(self, "elements", elems)

    @classmethod
    def _trusted(cls, elems: tuple[int, ...]) -> "FiniteSet":
        """The set of ``elems``, unchecked, its slot set directly; see the module docstring."""
        s = object.__new__(cls)
        _set_elements(s, elems)
        return s

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self.elements

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteSet) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return "{" + ",".join(str(x) for x in self.elements) + "}"

    @property
    def min(self) -> int:
        if not self.elements:
            raise InvalidArgumentError("empty set has no minimum")
        return self.elements[0]

    @property
    def max(self) -> int:
        if not self.elements:
            raise InvalidArgumentError("empty set has no maximum")
        return self.elements[-1]

    def is_empty(self) -> bool:
        return not self.elements

    def suffix_after(self, n: int) -> "FiniteSet":
        """Elements strictly above ``n``."""
        return FiniteSet._trusted(self.elements[bisect_right(self.elements, n):])


_set_elements = FiniteSet.elements.__set__


# ---------------------------------------------------------------------------
# Infinite-set descriptors


class SetGenerator:
    """Closed descriptor of an infinite subset of the naturals."""

    def __iter__(self) -> Iterator[int]:
        raise NotImplementedError

    def contains(self, x: int) -> bool:
        raise NotImplementedError

    def after(self, n: int) -> "SetGenerator":
        """The descriptor of this set with everything <= n dropped."""
        raise NotImplementedError

    def first(self, k: int) -> tuple[int, ...]:
        return tuple(islice(iter(self), k))

    def nth(self, i: int) -> int:
        """The ``i``-th element, counting from 1."""
        raise NotImplementedError


@frozen
class CofiniteAfter(SetGenerator):
    """All naturals strictly above ``n``; ``CofiniteAfter(0)`` is the whole line."""

    n: int

    def __post_init__(self):
        if type(self.n) is not int or self.n < 0:
            raise InvalidArgumentError("cofinite-after bound must be an integer >= 0")

    def __iter__(self) -> Iterator[int]:
        return count(self.n + 1)

    def contains(self, x: int) -> bool:
        return x > self.n

    def nth(self, i: int) -> int:
        return self.n + i

    def after(self, n: int) -> SetGenerator:
        return CofiniteAfter(max(self.n, n))


@frozen
class Arithmetic(SetGenerator):
    """start, start+step, start+2*step, ..."""

    start: int
    step: int

    def __post_init__(self):
        if not (type(self.start) is type(self.step) is int and self.start >= 1 and self.step >= 1):
            raise InvalidArgumentError("arithmetic progression needs integers start, step >= 1")

    def __iter__(self) -> Iterator[int]:
        return count(self.start, self.step)

    def contains(self, x: int) -> bool:
        return x >= self.start and (x - self.start) % self.step == 0

    def nth(self, i: int) -> int:
        return self.start + (i - 1) * self.step

    def after(self, n: int) -> SetGenerator:
        if n < self.start:
            return self
        skipped = (n - self.start) // self.step + 1
        return Arithmetic(self.start + skipped * self.step, self.step)


@frozen
class PrefixThen(SetGenerator):
    """A finite explicit prefix followed by an infinite tail descriptor."""

    prefix: FiniteSet
    tail: SetGenerator

    def __post_init__(self):
        if self.prefix.is_empty():
            raise InvalidArgumentError("prefix must be nonempty; use the tail directly")
        if next(iter(self.tail)) <= self.prefix.max:
            raise InvalidArgumentError("prefix elements must all precede the tail")

    def __iter__(self) -> Iterator[int]:
        yield from self.prefix
        yield from self.tail

    def contains(self, x: int) -> bool:
        return x in self.prefix or self.tail.contains(x)

    def nth(self, i: int) -> int:
        k = len(self.prefix)
        return self.prefix.elements[i - 1] if i <= k else self.tail.nth(i - k)

    def after(self, n: int) -> SetGenerator:
        surviving = self.prefix.suffix_after(n)
        if surviving.is_empty():
            return self.tail.after(n)
        return PrefixThen(surviving, self.tail)  # tail already lies above the prefix


def naturals() -> SetGenerator:
    return CofiniteAfter(0)


def evens() -> SetGenerator:
    return Arithmetic(2, 2)


def odds() -> SetGenerator:
    return Arithmetic(1, 2)


_PROBE_SAMPLES = 32


def probe_equal(g1: SetGenerator, g2: SetGenerator) -> bool:
    """Equality of descriptors up to a finite probe of their enumerations."""
    return g1.first(_PROBE_SAMPLES) == g2.first(_PROBE_SAMPLES)


def probe_subset(g1: SetGenerator, g2: SetGenerator) -> bool:
    """Whether the first ``_PROBE_SAMPLES`` elements of ``g1`` all belong to ``g2``."""
    return all(g2.contains(x) for x in g1.first(_PROBE_SAMPLES))

