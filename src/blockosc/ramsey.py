"""Finite-scale Ramsey searches: monochromatic sets, metric stabilization,
and schedule-driven diagonalization.

The underlying theorems are infinitary, so every search here can legitimately
come up empty at desk scale.  A miss is returned as a value carrying the best
partial result; exceptions are reserved for malformed inputs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence, Union

from .barriers import BarrierDescriptor, _enumerate_cached
from .blocks import Block, BlockFamily, enumerate_blocks
from .errors import InternalCheckError, InvalidArgumentError
from .frozen import frozen
from .normspace import Rational, _ceil_times, _over_lcm
from .oscillation import _REJECT, ToleranceSchedule, _search, _spread, _spread_step
from .sets import FiniteSet

ColorValue = object  # compared with == only, so a JSON array or object will do
if TYPE_CHECKING:  # typing caches a union at run time, which would pin these classes
    _Domain = Union[BarrierDescriptor, BlockFamily]
    ValuesLike = Union[Mapping[Block, Rational], Callable[[Block], Rational]]


def _support(obj: Union[FiniteSet, Block]) -> FiniteSet:
    return obj.union() if isinstance(obj, Block) else obj


class Coloring:
    """Total color assignment on barrier members or blocks."""

    def __init__(self, fn: Callable[[object], ColorValue]):
        self._fn = fn

    @classmethod
    def from_table(cls, table: Mapping[object, ColorValue]) -> "Coloring":
        frozen = dict(table)

        def look(obj: object) -> ColorValue:
            try:
                return frozen[obj]
            except KeyError:
                raise InvalidArgumentError(f"coloring table has no entry for {obj!r}")

        return cls(look)

    def of(self, obj: object) -> ColorValue:
        return self._fn(obj)


def builtin_coloring(name: str) -> Coloring:
    """Named rules usable from the command line.

    ``parity-of-sum``, ``parity-of-min``, ``size-parity``, ``contains:N``,
    and ``constant:C``.  Rules act on the support set of the colored object.
    """
    if name == "parity-of-sum":
        return Coloring(lambda o: "even" if sum(_support(o)) % 2 == 0 else "odd")
    if name == "parity-of-min":
        return Coloring(lambda o: "even" if _support(o).min % 2 == 0 else "odd")
    if name == "size-parity":
        return Coloring(lambda o: "even" if len(_support(o)) % 2 == 0 else "odd")
    if name.startswith("contains:"):
        try:
            pivot = int(name.split(":", 1)[1])
        except ValueError:
            raise InvalidArgumentError(f"contains:N needs an integer N, got {name!r}")
        return Coloring(lambda o: "yes" if pivot in _support(o) else "no")
    if name.startswith("constant:"):
        value = name.split(":", 1)[1]
        return Coloring(lambda o: value)
    raise InvalidArgumentError(f"unknown builtin coloring {name!r}")


@frozen
class MonochromeWitness:
    subset: FiniteSet
    color: ColorValue
    domain_size: int  # colored objects living inside the subset


@frozen
class RamseyResult:
    found: bool
    witness: Optional[MonochromeWitness]
    best: Optional[MonochromeWitness]
    target: int
    strategy: str


def find_monochromatic(
    source: _Domain,
    coloring: Coloring,
    universe: FiniteSet,
    target: int,
    strategy: str = "exhaustive",
) -> RamseyResult:
    """Search the universe for a subset all of whose objects share a color.

    Exhaustive returns the lexicographically least among the largest
    monochromatic subsets.  If none reaches the target, the best such subset
    below target is reported with found=False.  Greedy keeps any element that
    does not break monochromaticity while scanning left to right.
    """
    if not 1 <= target <= len(universe):
        raise InvalidArgumentError("target must be between 1 and the universe size")
    if strategy not in ("exhaustive", "greedy"):
        raise InvalidArgumentError(f"unknown strategy {strategy!r}")
    if isinstance(source, BlockFamily):
        objs: Sequence[object] = enumerate_blocks(source, universe.max, within=universe)
    else:
        objs = _enumerate_cached(source, universe.elements)
    colors = [coloring.of(obj) for obj in objs]

    def step(seen: Optional[tuple], group: Sequence[tuple[ColorValue, int]],
             wider: int) -> object:
        """Extends the 1-tuple of the color of the objects inside, if any."""
        for color, s in group:
            if s | wider == wider:
                if not seen:
                    seen = (color,)
                elif color != seen[0]:
                    return _REJECT
        return seen

    hit = _search(universe.elements, [_support(o) for o in objs], colors)(
        step, greedy=strategy == "greedy")
    if hit is None:
        return RamseyResult(False, None, None, target, strategy)
    subset, rows = hit
    # Re-check from scratch.  As in the step, only later colors are compared
    # with the first, so NaN colors one object.
    inside = [colors[r] for r in rows]
    if not all(c == inside[0] for c in inside[1:]):
        raise InternalCheckError(f"witness {subset} is not monochromatic")
    wit = MonochromeWitness(subset, inside[0] if inside else None, len(inside))
    found = len(subset) >= target
    return RamseyResult(found, wit if found else None, wit, target, strategy)


def _value_column(values: ValuesLike, blocks: Sequence[Block]) -> tuple[list[list[int]], int]:
    """The block values as a one-column table of integers over one denominator
    D, one row per block, and D."""
    col = []
    for b in blocks:
        try:
            raw = values(b) if callable(values) else values[b]
        except KeyError:
            raise InvalidArgumentError(f"values not total: missing {b!r}")
        col.append(Fraction(raw))
    nums, den = _over_lcm(col)
    return [[n] for n in nums], den


@frozen
class MetricWitness:
    subset: FiniteSet
    max_gap: Fraction
    domain_size: int


@frozen
class MetricResult:
    found: bool
    witness: Optional[MetricWitness]
    best: Optional[MetricWitness]
    epsilon: Fraction
    target: int


def _stabilized(table: list[list[int]], den: int, unions: Sequence[FiniteSet],
                pool: FiniteSet, eps: Fraction) -> Optional[MetricWitness]:
    """The least of the largest subsets of ``pool`` whose blocks' values
    spread less than eps, with their spread and number of blocks."""
    hit = _search(pool.elements, unions, table)(_spread_step(_ceil_times(eps, den)))
    if hit is None:
        return None
    subset, rows = hit
    return MetricWitness(subset, Fraction(_spread(table, rows), den), len(rows))


def metric_stabilize(
    fam: BlockFamily,
    values: ValuesLike,
    epsilon: Rational,
    universe: FiniteSet,
    target: int,
) -> MetricResult:
    """Find a subset on which the block values pairwise differ by < epsilon.

    Same scan order as find_monochromatic; strict inequality throughout.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise InvalidArgumentError("epsilon must be positive")
    if not 1 <= target <= len(universe):
        raise InvalidArgumentError("target must be between 1 and the universe size")
    blocks = enumerate_blocks(fam, universe.max, within=universe)
    table, den = _value_column(values, blocks)
    wit = _stabilized(table, den, [b.union() for b in blocks], universe, epsilon)
    found = wit is not None and len(wit.subset) >= target
    return MetricResult(found, wit if found else None, wit, epsilon, target)


@frozen
class DiagonalStage:
    index: int
    epsilon: Fraction
    pool: FiniteSet
    subset: FiniteSet
    min_element: int
    max_gap: Fraction


@frozen
class DiagonalReport:
    selected: FiniteSet  # the emitted m_i, strictly increasing
    stages: tuple[DiagonalStage, ...]
    completed: bool


def diagonal_stabilize(
    fam: BlockFamily,
    values: ValuesLike,
    schedule: ToleranceSchedule,
    universe: FiniteSet,
) -> DiagonalReport:
    """Nested chain of stabilized subsets, one tolerance stage per element.

    Stage i picks the largest (then lexicographically least) subset of the
    current pool whose internal value spread is under schedule.at(i), emits
    its minimum m_i, and recurses on the part of the subset above m_i.
    Singletons are vacuously stable, so every stage is satisfiable and the
    chain always consumes the pool.
    """
    if universe.is_empty():
        raise InvalidArgumentError("universe must be nonempty")
    blocks = enumerate_blocks(fam, universe.max, within=universe)
    table, den = _value_column(values, blocks)
    unions = [b.union() for b in blocks]

    stages: list[DiagonalStage] = []
    picked: list[int] = []
    pool = universe
    index = 1
    while not pool.is_empty():
        eps = schedule.at(index)
        wit = _stabilized(table, den, unions, pool, eps)
        if wit is None:  # singletons are always stable
            raise InternalCheckError(f"no stable subset of {pool} at stage {index}")
        m = wit.subset.min
        stages.append(DiagonalStage(index, eps, pool, wit.subset, m, wit.max_gap))
        picked.append(m)
        pool = wit.subset.suffix_after(m)
        index += 1
    return DiagonalReport(FiniteSet(picked), tuple(stages), True)
