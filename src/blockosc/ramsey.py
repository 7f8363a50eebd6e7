"""Finite-scale Ramsey searches: monochromatic sets, metric stabilization,
and schedule-driven diagonalization.

The underlying theorems are infinitary, so every search here can legitimately
come up empty at desk scale.  A miss is returned as a value carrying the best
partial result; exceptions are reserved for malformed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Hashable, Mapping, Optional, Sequence, Union

from .barriers import BarrierDescriptor, enumerate_up_to
from .blocks import Block, BlockFamily, enumerate_blocks
from .errors import InternalCheckError, InvalidArgumentError
from .oscillation import ToleranceSchedule
from .sets import FiniteSet

ColorValue = Hashable
Rational = Union[Fraction, int]
_Domain = Union[BarrierDescriptor, BlockFamily]


def _support(obj: Union[FiniteSet, Block]) -> FiniteSet:
    return obj.union() if isinstance(obj, Block) else obj


class Coloring:
    """Total color assignment on barrier members or blocks."""

    def __init__(self, fn: Callable[[object], ColorValue], name: str = "rule"):
        self._fn = fn
        self.name = name

    @classmethod
    def from_rule(cls, fn: Callable[[object], ColorValue], name: str = "rule") -> "Coloring":
        return cls(fn, name)

    @classmethod
    def from_table(cls, table: Mapping[object, ColorValue]) -> "Coloring":
        frozen = dict(table)

        def look(obj: object) -> ColorValue:
            try:
                return frozen[obj]
            except KeyError:
                raise InvalidArgumentError(f"coloring table has no entry for {obj!r}")

        return cls(look, name="table")

    def of(self, obj: object) -> ColorValue:
        return self._fn(obj)

    def check_total(self, domain: Sequence[object]) -> None:
        for obj in domain:
            self.of(obj)


def builtin_coloring(name: str) -> Coloring:
    """Named rules usable from the command line.

    ``parity-of-sum``, ``parity-of-min``, ``size-parity``, ``contains:N``,
    and ``constant:C``.  Rules act on the support set of the colored object.
    """
    if name == "parity-of-sum":
        return Coloring(
            lambda o: "even" if sum(_support(o)) % 2 == 0 else "odd", name
        )
    if name == "parity-of-min":
        return Coloring(
            lambda o: "even" if _support(o).min % 2 == 0 else "odd", name
        )
    if name == "size-parity":
        return Coloring(
            lambda o: "even" if len(_support(o)) % 2 == 0 else "odd", name
        )
    if name.startswith("contains:"):
        pivot = int(name.split(":", 1)[1])
        return Coloring(
            lambda o: "yes" if pivot in _support(o) else "no", name
        )
    if name.startswith("constant:"):
        value = name.split(":", 1)[1]
        return Coloring(lambda o: value, name)
    raise InvalidArgumentError(f"unknown builtin coloring {name!r}")


@dataclass(frozen=True)
class MonochromeWitness:
    subset: FiniteSet
    color: ColorValue
    domain_size: int  # colored objects living inside the subset


@dataclass(frozen=True)
class RamseyResult:
    found: bool
    witness: Optional[MonochromeWitness]
    best: Optional[MonochromeWitness]
    target: int
    strategy: str


def _domain_objects(
    source: _Domain, universe: FiniteSet
) -> list[tuple[object, frozenset]]:
    """Colored objects inside the universe with their supports."""
    if universe.is_empty():
        raise InvalidArgumentError("universe must be nonempty")
    if isinstance(source, BlockFamily):
        blocks = enumerate_blocks(source, universe.max, within=universe)
        return [(b, frozenset(b.union().elements)) for b in blocks]
    uset = frozenset(universe.elements)
    out = []
    for m in enumerate_up_to(source, universe.max):
        sup = frozenset(m.elements)
        if sup <= uset:
            out.append((m, sup))
    return out


def _mono_color(
    objs: Sequence[tuple[object, frozenset]],
    colors: Sequence[ColorValue],
    m: frozenset,
) -> tuple[bool, Optional[ColorValue], int]:
    """Whether all objects inside m share a color; vacuous counts with None."""
    color: Optional[ColorValue] = None
    count = 0
    for (obj, sup), c in zip(objs, colors):
        if sup <= m:
            count += 1
            if color is None:
                color = c
            elif c != color:
                return False, None, count
    return True, color, count


def find_monochromatic(
    source: _Domain,
    coloring: Coloring,
    universe: FiniteSet,
    target: int,
    strategy: str = "exhaustive",
) -> RamseyResult:
    """Search the universe for a subset all of whose objects share a color.

    Exhaustive scans subset sizes from the whole universe downward, each size
    in lexicographic order; the result is the lexicographically least among
    the largest monochromatic subsets.  If none reaches the target, the best
    such subset below target is reported with found=False.  Greedy keeps any
    element that does not break monochromaticity while scanning left to right.
    """
    if not 1 <= target <= len(universe):
        raise InvalidArgumentError("target must be between 1 and the universe size")
    if strategy not in ("exhaustive", "greedy"):
        raise InvalidArgumentError(f"unknown strategy {strategy!r}")
    objs = _domain_objects(source, universe)
    colors = [coloring.of(obj) for obj, _ in objs]

    def verified(m_set: frozenset, elems: Sequence[int]) -> MonochromeWitness:
        ok, color, count = _mono_color(objs, colors, m_set)
        if not ok:
            raise InternalCheckError(f"witness {FiniteSet(elems)} is not monochromatic")
        return MonochromeWitness(FiniteSet(elems), color, count)

    if strategy == "greedy":
        chosen: list[int] = []
        for x in universe:
            ok, _, _ = _mono_color(objs, colors, frozenset(chosen + [x]))
            if ok:
                chosen.append(x)
        wit = verified(frozenset(chosen), chosen)
        if len(chosen) >= target:
            return RamseyResult(True, wit, wit, target, strategy)
        return RamseyResult(False, None, wit, target, strategy)

    elems = universe.elements
    for size in range(len(elems), 0, -1):
        for pick in combinations(elems, size):
            m = frozenset(pick)
            ok, _, _ = _mono_color(objs, colors, m)
            if ok:
                wit = verified(m, pick)
                if size >= target:
                    return RamseyResult(True, wit, wit, target, strategy)
                return RamseyResult(False, None, wit, target, strategy)
    return RamseyResult(False, None, None, target, strategy)


ValuesLike = Union[Mapping[Block, Rational], Callable[[Block], Rational]]


def _value_map(values: ValuesLike, blocks: Sequence[Block]) -> dict[Block, Fraction]:
    out: dict[Block, Fraction] = {}
    for b in blocks:
        try:
            raw = values(b) if callable(values) else values[b]
        except KeyError:
            raise InvalidArgumentError(f"values not total: missing {b!r}")
        out[b] = Fraction(raw)
    return out


@dataclass(frozen=True)
class MetricWitness:
    subset: FiniteSet
    max_gap: Fraction
    domain_size: int


@dataclass(frozen=True)
class MetricResult:
    found: bool
    witness: Optional[MetricWitness]
    best: Optional[MetricWitness]
    epsilon: Fraction
    target: int


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
    vmap = _value_map(values, blocks)
    objs = [(b, frozenset(b.union().elements)) for b in blocks]

    def spread(m: frozenset) -> tuple[Fraction, int]:
        lo: Optional[Fraction] = None
        hi: Optional[Fraction] = None
        count = 0
        for b, sup in objs:
            if sup <= m:
                count += 1
                v = vmap[b]
                lo = v if lo is None or v < lo else lo
                hi = v if hi is None or v > hi else hi
        if count == 0:
            return Fraction(0), 0
        return hi - lo, count

    elems = universe.elements
    for size in range(len(elems), 0, -1):
        for pick in combinations(elems, size):
            gap, count = spread(frozenset(pick))
            if gap < epsilon:
                wit = MetricWitness(FiniteSet(pick), gap, count)
                if size >= target:
                    return MetricResult(True, wit, wit, epsilon, target)
                return MetricResult(False, None, wit, epsilon, target)
    return MetricResult(False, None, None, epsilon, target)


@dataclass(frozen=True)
class DiagonalStage:
    index: int
    epsilon: Fraction
    pool: FiniteSet
    subset: FiniteSet
    min_element: int
    max_gap: Fraction


@dataclass(frozen=True)
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
    vmap = _value_map(values, blocks)
    objs = [(b, frozenset(b.union().elements)) for b in blocks]

    def spread(m: frozenset) -> Fraction:
        vals = [vmap[b] for b, sup in objs if sup <= m]
        if len(vals) < 2:
            return Fraction(0)
        return max(vals) - min(vals)

    stages: list[DiagonalStage] = []
    picked: list[int] = []
    pool = universe
    index = 1
    while not pool.is_empty():
        eps = schedule.at(index)
        elems = pool.elements
        found: Optional[tuple[int, ...]] = None
        for size in range(len(elems), 0, -1):
            for pick in combinations(elems, size):
                if spread(frozenset(pick)) < eps:
                    found = pick
                    break
            if found is not None:
                break
        if found is None:  # singletons are always stable
            raise InternalCheckError(f"no stable subset of {pool} at stage {index}")
        subset = FiniteSet(found)
        m = subset.min
        stages.append(
            DiagonalStage(index, eps, pool, subset, m, spread(frozenset(found)))
        )
        picked.append(m)
        pool = FiniteSet(x for x in found if x > m)
        index += 1
    return DiagonalReport(FiniteSet(picked), tuple(stages), True)
