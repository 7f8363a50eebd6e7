"""Oscillation of block-combination values and stabilized subsequences.

A block family and a norm spec induce, for each block S = (s1, ..., sk), the
function a -> ||a1*X(s1) + ... + ak*X(sk)|| on coefficient tuples, where each
X(si) is the normalized indicator of si.  The oscillation gap over a finite
universe is the largest disagreement between two such functions on a rational
grid; stabilization searches look for subsets of the universe where the gap
drops under a tolerance.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from operator import sub
from typing import Callable, Optional, Sequence, Union

from .blocks import Block, BlockFamily, enumerate_blocks
from .errors import InsufficientBlocksError, InternalCheckError, InvalidArgumentError
from .frozen import frozen
from .normspace import NormSpec, Rational, _ceil_times, _value_table, nonneg_grid
from .sets import FiniteSet, SetGenerator


@frozen
class ToleranceSchedule:
    """Strictly decreasing positive tolerances, evaluable at any stage."""

    ratio: Fraction = Fraction(1, 2)
    scale: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "ratio", Fraction(self.ratio))
        object.__setattr__(self, "scale", Fraction(self.scale))
        if not (0 < self.ratio < 1):
            raise InvalidArgumentError("ratio must lie strictly between 0 and 1")
        if self.scale <= 0:
            raise InvalidArgumentError("scale must be positive")

    def at(self, i: int) -> Fraction:
        if i < 1:
            raise InvalidArgumentError("stages are numbered from 1")
        return self.scale * self.ratio**i


def psi_eval(spec: NormSpec, block: Block, coeffs: Sequence[Rational]) -> Fraction:
    """Value of the block combination at the given coefficients."""
    if len(coeffs) != len(block):
        raise InvalidArgumentError(
            f"expected {len(block)} coefficients, got {len(coeffs)}"
        )
    cs = tuple(c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs)
    (row,), den = _value_table(spec, [block], [cs])
    return Fraction(row[0], den)


def _envelope(cells: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """Per-column max and min of integer rows; no columns without rows."""
    cols = list(zip(*cells))
    return list(map(max, cols)), list(map(min, cols))


def _spread(table: Sequence[Sequence[int]], rows: Sequence[int]) -> int:
    """Max over columns of (row max - row min) of an integer table.  Fewer
    than two rows disagree nowhere."""
    return max(map(sub, *_envelope([table[r] for r in rows])), default=0)


_REJECT = object()
Step = Callable[[object, Sequence[tuple[object, int]], int], object]


def _search(elems: Sequence[int], supports: Sequence[FiniteSet],
            values: Sequence[object]) -> Callable[..., Optional[tuple[FiniteSet, list[int]]]]:
    """``search(step, floor=1, greedy=False)``: the lexicographically least of
    the largest subsets of ``elems`` that ``step`` accepts, with the indices, in
    order, of the supports inside it; None when no set of at least ``floor``
    elements is accepted.  The supports are encoded once, as int bitmasks over
    the positions of ``elems``.  Acceptance must be closed under subsets.

    One loop runs both strategies, on an explicit stack of (mask, state, size,
    next position) entries.  The exhaustive scan adds each position before
    skipping it, so the first set of a size it reaches is the least of that
    size; a branch ends once its size plus the positions left cannot beat the
    best size (Carraghan & Pardalos, Oper. Res. Lett. 9(6), 1990).  ``greedy``
    pushes no skips, so it follows the first descent alone.
    ``step(state, group, wider)`` is asked about an accepted set with one
    position j added above its own, ``group`` holding the (``values[r]``,
    mask) pairs of the supports whose top position is j.  From the accepted
    set's state (None when empty) it returns the state of ``wider``, or
    ``_REJECT``.
    """
    bit = {x: 1 << i for i, x in enumerate(elems)}
    masks = [(r, sum(map(bit.__getitem__, sup.elements))) for r, sup in enumerate(supports)
             if all(map(bit.__contains__, sup.elements))]
    n, groups = len(elems), [[] for _ in elems]
    for r, s in masks:
        groups[s.bit_length() - 1].append((values[r], s))

    def search(step: Step, floor: int = 1,
               greedy: bool = False) -> Optional[tuple[FiniteSet, list[int]]]:
        best, best_size = 0, floor - 1
        stack = [(0, None, 0, 0)]
        while stack:
            mask, state, size, j = stack.pop()
            if size > best_size:
                best, best_size = mask, size
            # The cut; as size <= best_size here, it also stops the scan at j = n.
            while size + (n - 1 - j) >= best_size:
                wider = mask | 1 << j
                nxt = step(state, groups[j], wider)
                j += 1
                if nxt is not _REJECT:
                    if not greedy:
                        stack.append((mask, state, size, j))
                    stack.append((wider, nxt, size + 1, j))
                    break
        if best_size < floor:
            return None
        return (FiniteSet(x for i, x in enumerate(elems) if best >> i & 1),
                [r for r, s in masks if s | best == best])

    return search


def _spread_step(bound: int) -> Step:
    """A step accepting the sets whose rows spread less than ``bound``; its
    state is the per-column (hi, lo) lists of the rows inside, if any."""

    def step(state: Optional[tuple], group: Sequence[tuple[object, int]],
             wider: int) -> object:
        rows = [row for row, s in group if s | wider == wider]
        if not rows:
            return state
        hi, lo = _envelope(rows + list(state or ()))
        return _REJECT if max(map(sub, hi, lo)) >= bound else (hi, lo)

    return step


@frozen
class OscillationReport:
    gap: Fraction
    witness_pair: Optional[tuple[Block, Block]]
    witness_coeffs: Optional[tuple[Fraction, ...]]
    universe: FiniteSet
    grid_q: int
    block_count: int

    @property
    def vacuous(self) -> bool:
        return self.block_count < 2


def _gap_report(
    spec: NormSpec,
    blocks: Sequence[Block],
    tuples: Sequence[tuple[Fraction, ...]],
    table: list[list[int]],
    den: int,
    rows: Sequence[int],
    universe: FiniteSet,
    grid_q: int,
) -> OscillationReport:
    """The widest pair among the given rows of the table, re-derived: at the
    first widest column, the first rows reaching its max and its min."""
    cells = [table[r] for r in rows]
    hi, lo = _envelope(cells)
    gaps = list(map(sub, hi, lo))
    gap = max(gaps, default=0)
    if gap == 0:
        return OscillationReport(Fraction(0), None, None, universe, grid_q, len(rows))
    j = gaps.index(gap)
    s = next(blocks[r] for r, row in zip(rows, cells) if row[j] == hi[j])
    t = next(blocks[r] for r, row in zip(rows, cells) if row[j] == lo[j])
    a, gap = tuples[j], Fraction(gap, den)
    # Re-derive from scratch before reporting.
    if abs(psi_eval(spec, s, a) - psi_eval(spec, t, a)) != gap:
        raise InternalCheckError(f"witness pair {s}, {t} at {a} does not re-derive gap {gap}")
    return OscillationReport(gap, (s, t), a, universe, grid_q, len(rows))


def oscillation_gap(
    spec: NormSpec, fam: BlockFamily, universe: FiniteSet, grid_q: int = 8
) -> OscillationReport:
    """Largest pairwise disagreement among block values inside the universe."""
    if universe.is_empty():
        raise InvalidArgumentError("universe must be nonempty")
    blocks = enumerate_blocks(fam, universe.max, within=universe)
    if len(blocks) < 2:
        raise InsufficientBlocksError(
            f"only {len(blocks)} block(s) fit inside {universe}"
        )
    tuples = nonneg_grid(len(fam), grid_q)
    table, den = _value_table(spec, blocks, tuples)
    return _gap_report(spec, blocks, tuples, table, den, range(len(blocks)), universe, grid_q)


@frozen
class StableSubsequenceResult:
    found: bool
    subset: Optional[FiniteSet]
    report: Optional[OscillationReport]
    best_subset: Optional[FiniteSet]
    best_gap: Optional[Fraction]
    epsilon: Fraction
    target: int
    strategy: str


def find_stable_subsequence(
    spec: NormSpec,
    fam: BlockFamily,
    epsilon: Rational,
    universe: FiniteSet,
    target: int,
    strategy: str = "exhaustive",
    grid_q: int = 8,
) -> StableSubsequenceResult:
    """Search for a subset whose internal block oscillation stays under epsilon.

    Exhaustive strategy returns the lexicographically least among the
    largest stable subsets, if they reach the target.  Its miss carries the
    least gap over subsets of at least target elements, and the
    lexicographically least of the largest subsets with that gap.  Greedy
    grows a subset left to right, keeping any element that does not break
    stability.  A miss is a value carrying the best subset seen, never an
    exception.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise InvalidArgumentError("epsilon must be positive")
    if not 1 <= target <= len(universe):
        raise InvalidArgumentError("target must be between 1 and the universe size")
    if strategy not in ("exhaustive", "greedy"):
        raise InvalidArgumentError(f"unknown strategy {strategy!r}")

    blocks = enumerate_blocks(fam, universe.max, within=universe)
    tuples = nonneg_grid(len(fam), grid_q)
    table, den = _value_table(spec, blocks, tuples)
    bound = _ceil_times(epsilon, den)
    search = _search(universe.elements, [b.union() for b in blocks], table)
    greedy = strategy == "greedy"
    hit = search(_spread_step(bound), 1 if greedy else target, greedy)
    if hit is not None and len(hit[0]) >= target:
        subset, rows = hit
        rep = _gap_report(spec, blocks, tuples, table, den, rows, subset, grid_q)
        if not rep.gap < epsilon:
            raise InternalCheckError(f"stable subset {subset} has gap {rep.gap} >= {epsilon}")
        return StableSubsequenceResult(True, subset, rep, subset, rep.gap,
                                       epsilon, target, strategy)
    if greedy:
        best, rows = hit
        best_gap = _spread(table, rows)
        if best_gap >= bound:
            raise InternalCheckError(f"greedy subset {best} is not stable under {epsilon}")
    else:
        # Descend on the one scan: each pass finds the least of the largest sets
        # of at least target elements spreading less than the best gap so far.
        # The last set found spreads least, and its scan passed every set that does.
        best, best_gap = universe, _spread(table, range(len(blocks)))
        while (hit := search(_spread_step(best_gap), target)) is not None:
            best, rows = hit
            best_gap = _spread(table, rows)
    return StableSubsequenceResult(False, None, None, best,
                                   Fraction(best_gap, den), epsilon, target, strategy)


@frozen
class StageResult:
    index: int
    epsilon: Fraction
    threshold: Optional[int]  # least n with the tail past n stable, if any
    passed: bool
    witness_pair: Optional[tuple[Block, Block]]
    witness_coeffs: Optional[tuple[Fraction, ...]]
    witness_gap: Optional[Fraction]


@frozen
class AsymptoticReport:
    stages: tuple[StageResult, ...]
    all_passed: bool
    horizon: int


def asymptotic_stability_check(
    spec: NormSpec,
    fam: BlockFamily,
    schedule: ToleranceSchedule,
    horizon: int,
    universe: Union[FiniteSet, SetGenerator, None] = None,
    max_stages: int = 12,
    grid_q: int = 8,
) -> AsymptoticReport:
    """Stage-by-stage tail stabilization within a finite horizon.

    Stage i succeeds at the least threshold n such that every pair of blocks
    living strictly above n disagrees by less than the stage tolerance.  When
    the block supply runs out first, the stage fails and records the worst
    pair at the last assessable threshold.
    """
    if horizon < 1:
        raise InvalidArgumentError("horizon must be >= 1")
    if max_stages < 1:
        raise InvalidArgumentError("max_stages must be >= 1")
    if isinstance(universe, SetGenerator):
        uni = FiniteSet(x for x in range(1, horizon + 1) if universe.contains(x))
    elif universe is None:
        uni = FiniteSet(range(1, horizon + 1))
    else:
        uni = universe
    blocks = enumerate_blocks(fam, horizon, within=uni)
    if len(blocks) < 2:
        raise InsufficientBlocksError("horizon hosts fewer than two blocks")
    tuples = nonneg_grid(len(fam), grid_q)
    table, den = _value_table(spec, blocks, tuples)
    mins, groups = [b.min for b in blocks], {}  # groups: each block minimum's distinct rows
    for m, row in zip(mins, table):  # _value_table shares one row among equal part runs
        groups.setdefault(m, {})[id(row)] = row
    lows, env, spreads = sorted(groups), (), []
    for m in reversed(lows):  # one envelope per group, folded from the largest minimum down
        env = _envelope([*groups[m].values(), *env])
        spreads.insert(0, max(map(sub, *env)))  # the rows whose minimum is m or more
    # The tail past n shrinks as n grows, so its spread never grows; the
    # stage bounds never grow either.  So no stage passes below the previous
    # stage's threshold, and one pointer walks n forward across all stages,
    # up to the last threshold whose tail holds two blocks.
    last = sorted(mins)[-2] - 1
    n, failed, stages = 0, None, []
    for i in range(1, max_stages + 1):
        eps = schedule.at(i)
        bound = _ceil_times(eps, den)
        while (spread := spreads[bisect_right(lows, n)]) >= bound and n < last:
            n += 1
        if spread < bound:
            stages.append(StageResult(i, eps, n, True, None, None, None))
            continue
        if failed is None:  # every failing stage reads the last tail
            tail = [r for r, m in enumerate(mins) if m > last]
            failed = _gap_report(spec, blocks, tuples, table, den, tail, uni, grid_q)
        stages.append(StageResult(i, eps, None, False, failed.witness_pair,
                                  failed.witness_coeffs, failed.gap))
    return AsymptoticReport(tuple(stages), all(s.passed for s in stages), horizon)
