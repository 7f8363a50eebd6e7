"""Oscillation of block-combination values and stabilized subsequences.

A block family and a norm spec induce, for each block S = (s1, ..., sk), the
function a -> ||a1*X(s1) + ... + ak*X(sk)|| on coefficient tuples, where each
X(si) is the normalized indicator of si.  The oscillation gap over a finite
universe is the largest disagreement between two such functions on a rational
grid; stabilization searches look for subsets of the universe where the gap
drops under a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Callable, Optional, Sequence, Union

from .blocks import Block, BlockFamily, enumerate_blocks
from .errors import InsufficientBlocksError, InternalCheckError, InvalidArgumentError
from .normspace import (
    NormSpec,
    _kernel_plan,
    _part_runs,
    _sup_numerator,
    nonneg_grid,
)
from .sets import FiniteSet, SetGenerator

Rational = Union[Fraction, int]


@dataclass(frozen=True)
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


def _value_table(
    spec: NormSpec, blocks: Sequence[Block], tuples: Sequence[tuple[Rational, ...]]
) -> tuple[list[list[int]], int]:
    """psi of each block at each tuple, as integer rows over one denominator D.

    Part P puts |c| / u(P) on each index, u(P) = U(P)/W being its indicator's
    norm.  Over Q, the coefficients' lcm, and A, the lcm of the U(P), entries
    are numerators over L = Q*A, so cells are over D = L*W.  A row is computed
    once per tuple of part runs: per size profile under an invariant spec.
    """
    plan = _kernel_plan(spec, "psi")
    q = math.lcm(*(c.denominator for a in tuples for c in a))
    cols = [[abs(c.numerator) * (q // c.denominator) for c in a] for a in tuples]
    firsts: dict = {}
    keys = [tuple(_part_runs(plan, p, firsts) for p in b.parts) for b in blocks]
    units = {runs: _sup_numerator(plan, [(1, cnt, i) for cnt, i in runs])
             for runs in {runs for key in keys for runs in key}}
    a_lcm = math.lcm(*units.values())
    rows: dict = {}
    for key in keys:
        if key not in rows:
            scale = [(plan[0] * (a_lcm // units[runs]), runs) for runs in key]
            rows[key] = [_sup_numerator(plan, sorted(
                [(c * f, cnt, i) for c, (f, runs) in zip(col, scale) if c for cnt, i in runs],
                reverse=True)) for col in cols]
    return [rows[key] for key in keys], q * a_lcm * plan[0]


def _ceil_times(eps: Fraction, den: int) -> int:
    """The ceiling of eps * den: an integer g over den is below eps iff g is below it."""
    return -(-eps.numerator * den // eps.denominator)


def _spread(table: Sequence[Sequence[int]], rows: Sequence[int]) -> int:
    """Max over columns of (row max - row min) of an integer table.  Fewer
    than two rows disagree nowhere."""
    if len(rows) < 2:
        return 0
    cells = [table[r] for r in rows]
    return max(map(sub, map(max, *cells), map(min, *cells)))


def _inside_masks(elems: Sequence[int], supports: Sequence[FiniteSet]) -> list[tuple[int, int]]:
    """(index, bitmask over the positions of ``elems``) of each support inside ``elems``."""
    bit = {x: 1 << i for i, x in enumerate(elems)}
    return [(r, sum(map(bit.__getitem__, sup.elements))) for r, sup in enumerate(supports)
            if all(map(bit.__contains__, sup.elements))]


def _rows_inside(masks: Sequence[tuple[int, int]], m: int) -> list[int]:
    return [r for r, s in masks if s | m == m]


def _members(elems: Sequence[int], m: int) -> FiniteSet:
    return FiniteSet(x for i, x in enumerate(elems) if m >> i & 1)


_REJECT = object()
Step = Callable[[object, int, int], object]


def _largest_hereditary(n: int, step: Step, floor: int = 1) -> Optional[int]:
    """The lexicographically least of the largest accepted sets of positions 0..n-1.

    Sets are int bitmasks, and acceptance must be closed under subsets.  Only
    sets of at least ``floor`` positions count; None when none is accepted.
    The search is depth first over the positions, adding each position before
    skipping it, so the first set of a size it reaches is the lexicographically
    least of that size.  A branch ends once its size plus the positions left
    cannot beat the best size so far (Carraghan & Pardalos, Oper. Res. Lett.
    9(6), 1990).  ``step(state, wider, j)`` is only asked about an accepted
    set with one position j added above all of its own: given the state of
    the accepted set (None for the empty set), it returns the state of
    ``wider``, or ``_REJECT``.
    """
    best: Optional[int] = None
    best_size = floor - 1

    def grow(mask: int, state: object, size: int, low: int) -> None:
        nonlocal best, best_size
        if size > best_size:
            best, best_size = mask, size
        for j in range(low, n):
            if size + (n - 1 - j) < best_size:
                return  # j and every position after it still make no larger set
            wider = mask | 1 << j
            nxt = step(state, wider, j)
            if nxt is not _REJECT:
                grow(wider, nxt, size + 1, j + 1)

    grow(0, None, 0, 0)
    return best


def _greedy(n: int, step: Step) -> int:
    """Positions 0..n-1 in turn, each kept when ``step`` accepts it."""
    mask, state = 0, None
    for j in range(n):
        nxt = step(state, mask | 1 << j, j)
        if nxt is not _REJECT:
            mask, state = mask | 1 << j, nxt
    return mask


def _by_top(masks: Sequence[tuple[int, int]], n: int) -> list[list[tuple[int, int]]]:
    """The (index, mask) pairs grouped by the top position of their mask: the
    only ones that can come inside a set when that position joins it."""
    groups: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for r, s in masks:
        groups[s.bit_length() - 1].append((r, s))
    return groups


def _spread_step(table: Sequence[Sequence[int]], masks: Sequence[tuple[int, int]],
                 n: int, bound: int) -> Step:
    """A step accepting the sets whose rows spread less than ``bound``; its
    state is the per-column (hi, lo) lists of the rows inside, if any."""
    by_top = _by_top(masks, n)

    def step(state: Optional[tuple], wider: int, j: int) -> object:
        rows = [table[r] for r, s in by_top[j] if s | wider == wider]
        if not rows:
            return state
        rows += state or rows[:1]
        hi, lo = list(map(max, *rows)), list(map(min, *rows))
        return _REJECT if max(map(sub, hi, lo)) >= bound else (hi, lo)

    return step


@dataclass(frozen=True)
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
    universe: FiniteSet,
    grid_q: int,
) -> OscillationReport:
    if len(blocks) < 2:
        return OscillationReport(Fraction(0), None, None, universe, grid_q, len(blocks))
    gap = 0
    wit = None
    for j, a in enumerate(tuples):
        hi_r = lo_r = 0
        for r in range(1, len(blocks)):
            v = table[r][j]
            if v > table[hi_r][j]:
                hi_r = r
            elif v < table[lo_r][j]:
                lo_r = r
        d = table[hi_r][j] - table[lo_r][j]
        if d > gap:
            gap = d
            wit = (blocks[hi_r], blocks[lo_r], a)
    if wit is None:
        return OscillationReport(Fraction(0), None, None, universe, grid_q, len(blocks))
    s, t, a = wit
    gap = Fraction(gap, den)
    # Re-derive from scratch before reporting.
    if abs(psi_eval(spec, s, a) - psi_eval(spec, t, a)) != gap:
        raise InternalCheckError(f"witness pair {s}, {t} at {a} does not re-derive gap {gap}")
    return OscillationReport(gap, (s, t), a, universe, grid_q, len(blocks))


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
    return _gap_report(spec, blocks, tuples, table, den, universe, grid_q)


@dataclass(frozen=True)
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
    elems, n = universe.elements, len(universe)
    masks = _inside_masks(elems, [b.union() for b in blocks])

    def gap(m: int) -> int:
        return _spread(table, _rows_inside(masks, m))

    def finish(m: int) -> StableSubsequenceResult:
        subset, rows = _members(elems, m), _rows_inside(masks, m)
        rep = _gap_report(spec, [blocks[r] for r in rows], tuples,
                          [table[r] for r in rows], den, subset, grid_q)
        if not rep.gap < epsilon:
            raise InternalCheckError(f"stable subset {subset} has gap {rep.gap} >= {epsilon}")
        return StableSubsequenceResult(True, subset, rep, subset, rep.gap,
                                       epsilon, target, strategy)

    if strategy == "greedy":
        chosen = _greedy(n, _spread_step(table, masks, n, bound))
        if chosen.bit_count() >= target:
            return finish(chosen)
        subset, g = _members(elems, chosen), gap(chosen)
        if g >= bound:
            raise InternalCheckError(f"greedy subset {subset} is not stable under {epsilon}")
        return StableSubsequenceResult(False, None, None, subset,
                                       Fraction(g, den), epsilon, target, strategy)

    hit = _largest_hereditary(n, _spread_step(table, masks, n, bound), target)
    if hit is not None:
        return finish(hit)
    # Descend on the one scan: each pass finds the least of the largest sets of
    # at least target elements spreading less than the best gap so far.  The
    # last set found spreads least, and its scan passed every set that does.
    best = (1 << n) - 1
    best_gap = gap(best)
    while (m := _largest_hereditary(n, _spread_step(table, masks, n, best_gap), target)):
        best, best_gap = m, gap(m)
    return StableSubsequenceResult(False, None, None, _members(elems, best),
                                   Fraction(best_gap, den), epsilon, target, strategy)


@dataclass(frozen=True)
class StageResult:
    index: int
    epsilon: Fraction
    threshold: Optional[int]  # least n with the tail past n stable, if any
    passed: bool
    witness_pair: Optional[tuple[Block, Block]]
    witness_coeffs: Optional[tuple[Fraction, ...]]
    witness_gap: Optional[Fraction]


@dataclass(frozen=True)
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
    mins = [b.min for b in blocks]

    def tail(n: int) -> list[int]:
        return [r for r, mn in enumerate(mins) if mn > n]

    # The tail past n shrinks as n grows, so its spread never grows; the
    # stage bounds never grow either.  So no stage passes below the previous
    # stage's threshold, and one pointer walks n forward across all stages,
    # up to the last threshold whose tail holds two blocks.
    last = sorted(mins)[-2] - 1
    n, spread, failed = 0, _spread(table, tail(0)), None
    stages = []
    for i in range(1, max_stages + 1):
        eps = schedule.at(i)
        bound = _ceil_times(eps, den)
        while spread >= bound and n < last:
            n += 1
            spread = _spread(table, tail(n))
        if spread < bound:
            stages.append(StageResult(i, eps, n, True, None, None, None))
            continue
        if failed is None:  # every failing stage reads the last tail
            rows = tail(last)
            failed = _gap_report(spec, [blocks[r] for r in rows], tuples,
                                 [table[r] for r in rows], den, uni, grid_q)
        stages.append(StageResult(i, eps, None, False, failed.witness_pair,
                                  failed.witness_coeffs, failed.gap))
    return AsymptoticReport(tuple(stages), all(s.passed for s in stages), horizon)
