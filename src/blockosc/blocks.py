"""Blocks: tuples of barrier members stacked strictly one above another.

A block over the family (B1, ..., Bk) is (s1, ..., sk) with si from Bi and
max(si) < min(s(i+1)).  Concatenating the parts is a bijection onto the
concatenation-sum barrier; the inverse peels fronts greedily, which is exact
because no barrier contains two comparable initial segments of the same set.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional

from .barriers import BarrierDescriptor, _peel_fronts, _stack
from .errors import InvalidArgumentError, NotInSumError
from .frozen import frozen
from .sets import FiniteSet, probe_equal


@frozen
class Block:
    """Immutable stacked tuple of finite sets.  ``_trusted`` skips the checks: only library
    code calls it, on nonempty valid sets it peeled or stacked, each wholly below the next."""

    __slots__ = ("parts",)
    parts: tuple[FiniteSet, ...]

    def __init__(self, parts: Iterable[FiniteSet]):
        ps = tuple(parts)
        if not ps:
            raise InvalidArgumentError("a block needs at least one part")
        for p in ps:
            if not isinstance(p, FiniteSet) or p.is_empty():
                raise InvalidArgumentError("block parts must be nonempty finite sets")
        for a, b in zip(ps, ps[1:]):
            if a.max >= b.min:
                raise InvalidArgumentError(f"parts out of order: {a} !< {b}")
        object.__setattr__(self, "parts", ps)

    @classmethod
    def _trusted(cls, parts: tuple[FiniteSet, ...]) -> "Block":
        b = object.__new__(cls)
        object.__setattr__(b, "parts", parts)
        return b

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Block) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return "(" + ", ".join(repr(p) for p in self.parts) + ")"

    def union(self) -> FiniteSet:
        return FiniteSet._trusted(sum((p.elements for p in self.parts), ()))

    @property
    def min(self) -> int:
        return self.parts[0].min

    @property
    def max(self) -> int:
        return self.parts[-1].max


@frozen
class BlockFamily:
    """The barrier tuple blocks are drawn from."""

    parts: tuple[BarrierDescriptor, ...]

    def __post_init__(self):
        if not self.parts:
            raise InvalidArgumentError("a block family needs at least one barrier")
        if not all(isinstance(p, BarrierDescriptor) for p in self.parts):
            raise InvalidArgumentError("family parts must be barrier descriptors")
        g0 = self.parts[0].ground()
        if not all(probe_equal(g0, p.ground()) for p in self.parts[1:]):
            raise InvalidArgumentError("family parts must share a ground set")

    def __len__(self) -> int:
        return len(self.parts)


def enumerate_blocks(
    fam: BlockFamily, n: int, within: Optional[FiniteSet] = None
) -> tuple[Block, ...]:
    """All blocks with elements <= n (and inside ``within`` if given), by
    first-part maximum, then in the lexicographic order of the unions."""
    if n < 0:
        raise InvalidArgumentError("bound must be >= 0")
    return _enumerate_blocks_cached(fam, n, within)


@lru_cache(maxsize=512)
def _enumerate_blocks_cached(
    fam: BlockFamily, n: int, within: Optional[FiniteSet]
) -> tuple[Block, ...]:
    pool = tuple(x for x in (range(1, n + 1) if within is None else within) if x <= n)
    # _stack emits the unions in lexicographic order, which a stable sort by first max keeps
    return tuple(map(Block._trusted, sorted(_stack(fam.parts, pool), key=lambda t: t[0].max)))


def from_concat(fam: BlockFamily, s: FiniteSet) -> Block:
    """Invert :meth:`Block.union` by peeling the front of each part in turn.

    Raises :class:`NotInSumError` with the recovered prefix and the leftover
    when the set is not a concatenation over the family.
    """
    consumed = tuple(map(FiniteSet._trusted, _peel_fronts(fam.parts, iter(s.elements), len(s))))
    rest = s.suffix_after(consumed[-1].max) if consumed else s
    if len(consumed) < len(fam.parts):
        part = len(consumed) + 1
        if rest.is_empty():
            raise NotInSumError(consumed, rest, f"{s} ran out before part {part}")
        raise NotInSumError(consumed, rest, f"no initial segment of {rest} in part {part}")
    if not rest.is_empty():
        raise NotInSumError(consumed, rest, f"leftover {rest} after final part")
    return Block._trusted(consumed)


def block_compare(x: Block, y: Block) -> str:
    """Directed-order comparison: less / greater / equal / incomparable.

    Blocks with the same underlying union are identified; otherwise the
    order holds only when one block ends before the other begins.
    """
    if len(x) != len(y):
        raise InvalidArgumentError("blocks must have the same length to compare")
    if x.union() == y.union():
        return "equal"
    if x.parts[0].max < y.parts[0].min:
        return "less"
    if y.parts[0].max < x.parts[0].min:
        return "greater"
    return "incomparable"
