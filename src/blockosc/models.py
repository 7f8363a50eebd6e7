"""Limit norms along barrier sequences, and the worked two-model comparison.

A barrier sequence (finite prefix, then one barrier repeated forever) induces
a norm on coefficient tuples: place the coefficients on far-apart blocks and
evaluate.  For the sup-family norms in scope the value is exactly constant
once the blocks are disjoint, so the limit is computed, not estimated.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import cycle, islice
from typing import Iterator, Optional, Sequence

from .barriers import FRONT_FUEL_DEFAULT, BarrierDescriptor, Cube, _peel_fronts
from .blocks import Block, BlockFamily
from .closedform import _model_228
from .errors import InternalCheckError, InvalidArgumentError, NoFrontFoundError, NotStabilizedError
from .frozen import frozen
from .normspace import (NormSpec, Rational, _as_fractions, _grid, _over_lcm, _value_table,
                        section6_spec)
from .sets import FiniteSet


@frozen
class BarrierSequenceDescriptor:
    """Finite prefix of barriers followed by one barrier repeated forever."""

    prefix: tuple[BarrierDescriptor, ...]
    tail: BarrierDescriptor

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        for p in self.prefix:
            if not isinstance(p, BarrierDescriptor):
                raise InvalidArgumentError("prefix entries must be barrier descriptors")
        if not isinstance(self.tail, BarrierDescriptor):
            raise InvalidArgumentError("tail must be a barrier descriptor")
        # Shared-ground validation happens in BlockFamily.
        BlockFamily((*self.prefix, self.tail))

    def barrier_at(self, i: int) -> BarrierDescriptor:
        if i < 0:
            raise InvalidArgumentError("index must be >= 0")
        return self.prefix[i] if i < len(self.prefix) else self.tail


def eights_sequence() -> BarrierSequenceDescriptor:
    return BarrierSequenceDescriptor((), Cube(8))


def two_two_eights_sequence() -> BarrierSequenceDescriptor:
    return BarrierSequenceDescriptor((Cube(2), Cube(2)), Cube(8))


@lru_cache(maxsize=1024)
def _probe_blocks(seq: BarrierSequenceDescriptor, k: int, tail_offset: int,
                  probe_count: int) -> tuple[Block, ...]:
    """``probe_count`` blocks of the first ``k`` barriers, peeled in turn as
    fronts along one walk of the ground set from ``tail_offset``."""
    walk = islice(cycle(map(seq.barrier_at, range(k))), k * probe_count)
    start = tail_offset - 1
    pieces = _peel_fronts(walk, iter(seq.barrier_at(0).ground().after(start)), FRONT_FUEL_DEFAULT)
    if len(pieces) < k * probe_count:
        b = seq.barrier_at(len(pieces) % k)
        last = pieces[-1][-1] if pieces else start
        raise NoFrontFoundError(FRONT_FUEL_DEFAULT,
                                f"generator {b.ground().after(last)!r} against {type(b).__name__}")
    fronts = tuple(map(FiniteSet._trusted, pieces))
    return tuple(Block._trusted(fronts[i:i + k]) for i in range(0, len(fronts), k))


def default_tail_offset(seq: BarrierSequenceDescriptor, k: int) -> int:
    """Span of a block started at the front of the ground set, plus 8."""
    return _probe_blocks(seq, k, 1, 1)[0].max + 8


@frozen
class ModelValue:
    value: Fraction
    stabilized: bool
    probes: tuple[tuple[Block, Fraction], ...]
    tail_offset: int


def model_eval(
    spec: NormSpec,
    seq: BarrierSequenceDescriptor,
    coeffs: Sequence[Rational],
    tail_offset: Optional[int] = None,
    probe_count: int = 3,
    tolerance: Rational = 0,
) -> ModelValue:
    """Evaluate the limit norm at coeffs by probing far-apart blocks.

    Probes are pairwise disjoint with increasing minima, the first one
    starting at tail_offset.  All probes agreeing within tolerance (exactly,
    by default) marks the value stabilized; otherwise the mean is reported
    and the caller decides what to trust.
    """
    k = len(coeffs)
    if k < 1:
        raise InvalidArgumentError("need at least one coefficient")
    if probe_count < 1:
        raise InvalidArgumentError("probe_count must be >= 1")
    tolerance = Fraction(tolerance)
    if tolerance < 0:
        raise InvalidArgumentError("tolerance must be >= 0")
    if tail_offset is None:
        tail_offset = default_tail_offset(seq, k)
    elif tail_offset < 1:
        raise InvalidArgumentError("tail_offset must be >= 1")
    blocks = _probe_blocks(seq, k, tail_offset, probe_count)
    nums, q = _over_lcm([c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs])
    rows, den = _value_table(spec, blocks, [nums], q)
    vals = [Fraction(row[0], den) for row in rows]
    stabilized = vals.count(vals[0]) == len(vals) or max(vals) - min(vals) <= tolerance
    value = vals[0] if stabilized else sum(vals) / len(vals)
    return ModelValue(value, stabilized, tuple(zip(blocks, vals)), tail_offset)


def _stable_values(spec, seq, tuples, q, show=None) -> tuple[Iterator[int], int]:
    """Numerators of the model value at each tuple of numerators over q (all of
    one length) on the default probes, in order, and their denominator.  The
    value table is built at the call; NotStabilizedError comes at the first tuple
    whose probes disagree, naming it as ``show`` gives it (by default, in Fractions)."""
    if not tuples:
        return iter(()), 1
    k = len(tuples[0])
    blocks = _probe_blocks(seq, k, default_tail_offset(seq, k), 3)
    rows, den = _value_table(spec, blocks, tuples, q)

    def checked():
        for coeffs, nums in zip(tuples, zip(*rows)):
            if nums.count(nums[0]) != len(nums):
                raise NotStabilizedError(
                    f"model value at {show(coeffs) if show else _as_fractions(coeffs, q)} "
                    "did not stabilize: " + ", ".join(str(Fraction(v, den)) for v in nums)
                )
            yield nums[0]

    return checked(), den


def _stable_value(spec, seq, coeffs: tuple[int, ...]) -> Fraction:
    vals, den = _stable_values(spec, seq, [coeffs], 1, show=tuple)
    return Fraction(next(vals), den)


@frozen
class ConsistencyViolation:
    k: int
    coeffs: tuple[Fraction, ...]
    padded_value: Fraction
    base_value: Fraction


@frozen
class ConsistencyReport:
    checked: int
    violations: tuple[ConsistencyViolation, ...]

    @property
    def holds(self) -> bool:
        return not self.violations


def consistency_check(
    spec: NormSpec, seq: BarrierSequenceDescriptor, k_max: int, grid_q: int = 4
) -> ConsistencyReport:
    """Appending a zero coefficient never changes the model value."""
    if k_max < 2:
        raise InvalidArgumentError("k_max must be >= 2")
    checked = 0
    bad = []
    for k in range(1, k_max):
        grid = _grid(k, grid_q, 0)
        bases, d = _stable_values(spec, seq, grid, grid_q)
        padded, d0 = _stable_values(spec, seq, [a + (0,) for a in grid], grid_q)
        for a, b, p in zip(grid, bases, padded):
            checked += 1
            if p * d != b * d0:
                bad.append(ConsistencyViolation(k, _as_fractions(a, grid_q),
                                                Fraction(p, d0), Fraction(b, d)))
    return ConsistencyReport(checked, tuple(bad))


@frozen
class SpreadingWitness:
    placement: FiniteSet
    coeffs: tuple[Fraction, ...]
    identity_value: Fraction
    placed_value: Fraction


@frozen
class SpreadingReport:
    holds: bool
    witness: Optional[SpreadingWitness]
    checked: int


def spreading_check(
    spec: NormSpec,
    seq: BarrierSequenceDescriptor,
    k: int,
    placements: Sequence[FiniteSet],
    grid_q: int = 4,
) -> SpreadingReport:
    """Compare coefficients at slots 1..k against relocated slots.

    The recorded witness is the worst violation over the whole scan (largest
    discrepancy, earliest placement and tuple on ties), so the headline
    counterexample does not depend on grid ordering.
    """
    if k < 1:
        raise InvalidArgumentError("k must be >= 1")
    if len(placements) < 1:
        raise InvalidArgumentError("placement count must be >= 1")
    grid = _grid(k, grid_q, 0)
    vals, d = _stable_values(spec, seq, grid, grid_q)
    identity = list(vals)
    checked = 0
    worst: Optional[SpreadingWitness] = None
    worst_size, worst_den = 0, 1
    for s in placements:
        if len(s) != k:
            raise InvalidArgumentError(f"placement {s} is not a {k}-set")
        default_tail_offset(seq, s.max)  # cached; a runaway placement runs out of fuel here
        padded = [[0] * s.max for _ in grid]
        for p, a in zip(padded, grid):
            for pos, c in zip(s.elements, a):
                p[pos - 1] = c
        # an unplaced slot shows as the int 0, a placed one as a Fraction
        vals, dp = _stable_values(spec, seq, padded, grid_q, show=lambda p: [
            Fraction(c, grid_q) if pos in s else 0 for pos, c in enumerate(p, 1)])
        for a, i, v in zip(grid, identity, vals):
            checked += 1
            size = abs(i * dp - v * d)  # over d * dp
            if size * worst_den > worst_size * d * dp:
                worst_size, worst_den = size, d * dp
                worst = SpreadingWitness(s, _as_fractions(a, grid_q), Fraction(i, d),
                                         Fraction(v, dp))
    return SpreadingReport(worst is None, worst, checked)


def equivalence_constants(
    spec: NormSpec,
    seq1: BarrierSequenceDescriptor,
    seq2: BarrierSequenceDescriptor,
    k_max: int,
    grid_q: int = 4,
) -> tuple[Fraction, Fraction]:
    """Empirical (min, max) of value(seq2)/value(seq1) over nonzero grid tuples."""
    if k_max < 1:
        raise InvalidArgumentError("k_max must be >= 1")
    lo = hi = None  # ratios as (numerator, positive denominator), compared cross-multiplied
    for k in range(1, k_max + 1):
        grid = [a for a in _grid(k, grid_q, 0) if any(a)]
        vals1, d1 = _stable_values(spec, seq1, grid, grid_q)
        vals2, d2 = _stable_values(spec, seq2, grid, grid_q)
        for a, v1, v2 in zip(grid, vals1, vals2):
            r = (v2 * d1, v1 * d2)
            lo = r if lo is None or r[0] * lo[1] < lo[0] * r[1] else lo
            hi = r if hi is None or r[0] * hi[1] > hi[0] * r[1] else hi
    if lo is None:
        raise InternalCheckError("no nonzero grid tuple was compared")
    return Fraction(*lo), Fraction(*hi)


@frozen
class Section6Check:
    name: str
    passed: bool
    detail: str


@frozen
class Section6Report:
    checks: tuple[Section6Check, ...]
    all_passed: bool
    grid_q: int
    k_max: int


def verify_section6(
    spec: Optional[NormSpec] = None,
    k_max: int = 4,
    grid_q: int = 4,
) -> Section6Report:
    """Aggregate check of the worked two-model example.

    Runs, exactly: the eights-model closed form, the pair-pair-eights closed
    form, the two named values 3/2 and 1, the sandwich with constants (1, 2),
    and the spreading pass/fail pair.
    """
    if spec is None:
        spec = section6_spec()
    seq8 = eights_sequence()
    seq228 = two_two_eights_sequence()
    checks: list[Section6Check] = []

    def add(name: str, passed: bool, detail: str) -> None:
        checks.append(Section6Check(name, passed, detail))

    for name, seq, core, what in (
        ("eights-model-closed-form", seq8, lambda n, d: (max(n), d), "max of coefficients"),
        ("two-two-eights-closed-form", seq228, _model_228, "piecewise formula"),
    ):
        first = ""
        for k in range(1, k_max + 1):
            grid = _grid(k, grid_q, 0)
            vals, den = _stable_values(spec, seq, grid, grid_q)
            for a, p in zip(grid, vals):
                got, d = core(a, grid_q)
                if got * den != p * d and not first:
                    first = (f"a={_as_fractions(a, grid_q)}: "
                             f"{Fraction(p, den)} != {Fraction(got, d)}")
        add(name, not first, first or f"{what} on all grid tuples, k <= {k_max}")

    v11 = _stable_value(spec, seq228, (1, 1))
    v0011 = _stable_value(spec, seq228, (0, 0, 1, 1))
    add("named-values", v11 == Fraction(3, 2) and v0011 == Fraction(1),
        f"value(1,1)={v11}, value(0,0,1,1)={v0011}")

    try:
        lo, hi = equivalence_constants(spec, seq8, seq228, min(k_max, 3), grid_q)
        ratio2 = _stable_value(spec, seq228, (1, 1, 1)) / _stable_value(spec, seq8, (1, 1, 1))
        sandwich_ok = Fraction(1) <= lo and hi <= Fraction(2) and ratio2 == 2
        add("sandwich-equivalence", sandwich_ok,
            f"ratio range [{lo}, {hi}], ratio at (1,1,1) = {ratio2}")
    except NotStabilizedError as exc:
        add("sandwich-equivalence", False, str(exc))

    placement = FiniteSet((3, 4))
    rep8 = spreading_check(spec, seq8, 2, [placement], grid_q=2)
    rep228 = spreading_check(spec, seq228, 2, [placement], grid_q=2)
    dichotomy = rep8.holds and not rep228.holds
    if rep228.witness is not None:
        w = rep228.witness
        coeffs = "(" + ", ".join(str(c) for c in w.coeffs) + ")"
        detail = (f"eights model spreads; relocated model breaks at "
                  f"positions {w.placement} with a={coeffs}: "
                  f"{w.identity_value} vs {w.placed_value}")
    else:
        detail = "relocated model unexpectedly spread"
    add("spreading-dichotomy", dichotomy, detail)

    return Section6Report(tuple(checks), all(c.passed for c in checks), grid_q, k_max)
