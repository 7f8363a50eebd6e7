"""Exact finitely-supported vectors and sup-family norms.

Floats never appear.  The central norm shape is a supremum family: the
largest absolute entry is always a candidate, and each extra term
contributes ``weight * (sum of the m largest absolute entries)``, optionally
restricted by an index filter.  The worked two-weight space ((m+1)/2m on
m-sets and (n+1)/2n on n-sets, with (m, n) = (2, 8) as the concrete
instance) is expressed this way, and so are the sup norm (no terms) and l1
(one term of unbounded size).  One integer kernel, :func:`_sup_numerator`,
evaluates them all: entries arrive as integer numerators over one
denominator L, the weights are scaled to one denominator W, and the value
is one numerator over L*W; a ``Fraction`` is built only where a value
leaves the library.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cached_property
from itertools import product, repeat
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence, Union

from .errors import InvalidArgumentError
from .frozen import frozen
from .sets import FiniteSet

if TYPE_CHECKING:
    from .blocks import Block

Rational = Union[Fraction, int]


class Vector:
    """Finitely supported rational vector over positive integer indices."""

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[int, Rational] = ()):
        clean: dict[int, Fraction] = {}
        for i, c in dict(entries).items():
            if not isinstance(i, int) or i < 1:
                raise InvalidArgumentError(f"index must be a positive integer, got {i!r}")
            f = c if isinstance(c, Fraction) else Fraction(c)
            if f != 0:
                clean[i] = f
        object.__setattr__(self, "entries", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    def __reduce__(self):
        return Vector, (self.entries,)

    @staticmethod
    def from_coeffs(coeffs: Sequence[Rational], start: int = 1) -> "Vector":
        return Vector({start + i: Fraction(c) for i, c in enumerate(coeffs)})

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(frozenset(self.entries.items()))

    def __add__(self, other: "Vector") -> "Vector":
        out = dict(self.entries)
        for i, c in other.entries.items():
            out[i] = out.get(i, Fraction(0)) + c
        return Vector(out)

    def scale(self, f: Rational) -> "Vector":
        f = Fraction(f)
        return Vector({i: c * f for i, c in self.entries.items()})

    def __repr__(self) -> str:
        inner = ", ".join(f"{i}: {c}" for i, c in sorted(self.entries.items()))
        return f"Vector({{{inner}}})"


# ---------------------------------------------------------------------------
# Norm specifications

# Index filters attached to sup-family terms.  "subset" mode keeps only
# entries whose index satisfies the predicate; "touch" mode requires the
# index set to meet the predicate at least once, the rest being free (an
# unused qualifying index contributes zero, so sums may effectively shrink).
def _is_even(i: int) -> bool:
    return i % 2 == 0


def _is_odd(i: int) -> bool:
    return i % 2 == 1


_FILTERS: dict[str, tuple[str, Callable[[int], bool]]] = {
    "even-indices": ("subset", _is_even),
    "odd-indices": ("subset", _is_odd),
    "touches-even": ("touch", _is_even),
}


@frozen
class SupTerm:
    weight: Fraction
    size: int
    filter: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "weight", Fraction(self.weight))
        if self.weight <= 0:
            raise InvalidArgumentError("term weight must be positive")
        if self.size < 1:
            raise InvalidArgumentError("term cardinality must be >= 1")
        if self.filter is not None and self.filter not in _FILTERS:
            raise InvalidArgumentError(f"unknown index filter {self.filter!r}")


class NormSpec:
    """Marker base for norm specifications."""


@frozen
class SupFamily(NormSpec):
    """Max of the implicit singleton term and each weighted top-m sum."""

    terms: tuple[SupTerm, ...]

    @cached_property
    def _plan(self) -> "Plan":
        nums, w = _over_lcm([t.weight for t in self.terms])
        terms = tuple((n, t.size, t.filter and _FILTERS[t.filter]) for n, t in zip(nums, self.terms))
        return w, terms, tuple(f[1] for _, _, f in terms if f)


@frozen
class LpNorm(NormSpec):
    """Integer-exponent p-sum norm; exact only for p = 1 or lucky roots."""

    p: int

    def __post_init__(self):
        if self.p < 1:
            raise InvalidArgumentError("p must be >= 1")


def mn_norm_spec(m: int, n: int) -> SupFamily:
    """Two-weight family: (m+1)/2m on m-sets together with (n+1)/2n on n-sets."""
    if not 1 < m < n:
        raise InvalidArgumentError("need 1 < m < n")
    return SupFamily((
        SupTerm(Fraction(m + 1, 2 * m), m),
        SupTerm(Fraction(n + 1, 2 * n), n),
    ))


def section6_spec() -> SupFamily:
    """The concrete worked instance: weight 3/4 on pairs, 9/16 on 8-sets."""
    return mn_norm_spec(2, 8)


def even_pair_fixture() -> SupFamily:
    """Standard fixture with nonzero oscillation across index parity.

    Pairs of even indices are boosted by 3/4; pairs merely touching an even
    index by 5/8.  Unit vectors keep norm one, but blocks on two evens
    evaluate to 3/2, blocks mixing parities to 5/4 and blocks on two odds
    to 1 at coefficients (1, 1), so relocation invariance fails and every
    mixed-parity index set oscillates by at least 1/4.
    """
    return SupFamily((
        SupTerm(Fraction(3, 4), 2, "even-indices"),
        SupTerm(Fraction(5, 8), 2, "touches-even"),
    ))


# ---------------------------------------------------------------------------
# Evaluation


def norm_eval(spec: NormSpec, v: Vector) -> Fraction:
    """Exact norm of ``v`` under ``spec``; an inexact p-th root raises."""
    value, exact = norm_eval_detailed(spec, v)
    if not exact:
        raise InvalidArgumentError(f"the l{spec.p} norm of {v} is an inexact root; "
                                   "norm_eval_detailed gives it flagged as approximate")
    return value


def norm_eval_detailed(spec: NormSpec, v: Vector) -> tuple[Fraction, bool]:
    """(value, exact); the flag is False only for inexact p-th roots."""
    if isinstance(spec, LpNorm) and spec.p > 1:
        return _lp_eval(spec, v)
    plan = _kernel_plan(spec, "norm evaluation")
    nums, den = _over_lcm(list(v.entries.values()))
    items = sorted(zip(map(abs, nums), repeat(1), v.entries), reverse=True)
    return Fraction(_sup_numerator(plan, items), den * plan[0]), True


# The kernel's view of a spec: (W, terms, predicates), each term being
# (weight * W, size, the filter's (mode, predicate) or None), and the
# predicates those of the filtered terms.
Plan = tuple[int, tuple[tuple[int, int, Optional[tuple[str, Callable]]], ...], tuple]


def _kernel_plan(spec: NormSpec, use: str) -> Plan:
    """The plan of a rational spec (cached on a sup family); an lp spec with
    p > 1 is rejected for ``use``.  l1 is one term longer than any support."""
    if isinstance(spec, SupFamily):
        return spec._plan
    if isinstance(spec, LpNorm):
        if spec.p > 1:
            raise InvalidArgumentError(f"{use} under the l{spec.p} norm may be an inexact root; "
                                       "only p = 1 is supported")
        return 1, ((1, sys.maxsize, None),), ()
    raise InvalidArgumentError(f"unknown norm spec {spec!r}")


def _over_lcm(values: Sequence[Rational]) -> tuple[list[int], int]:
    """Numerators of ints and Fractions over their least common denominator."""
    den = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def _top(items: Sequence[tuple[int, int, Optional[int]]], m: int) -> int:
    """Sum of the m largest entries of the runs."""
    acc = 0
    for num, cnt, _ in items:
        if cnt >= m:
            return acc + num * m
        acc += num * cnt
        m -= cnt
    return acc


def _sup_numerator(plan: Plan, items: Sequence[tuple[int, int, Optional[int]]]) -> int:
    """The norm, as a numerator over L*W, of entries given as numerators over L.

    ``items`` are (numerator, count, index) runs, largest numerator first; a
    run stands for ``count`` entries whose filter classes are its index's.
    """
    if not items:
        return 0
    best = items[0][0] * plan[0]  # the implicit singleton term
    for w, m, filt in plan[1]:
        if filt is None:
            t = _top(items, m)
        elif filt[0] == "subset":
            t = _top([it for it in items if filt[1](it[2])], m)
        else:
            # touch mode: the largest qualifying entry and the m-1 largest
            # others.  With none in the support, a qualifying index outside
            # it pads the m-1 largest entries with a zero.
            t, seen = _top(items, m - 1), 0
            for num, cnt, i in items:
                if filt[1](i):
                    t = _top(items, m) if seen < m else num + t
                    break
                seen += cnt
        if w * t > best:
            best = w * t
    return best


def _part_runs(plan: Plan, part: FiniteSet, firsts: dict) -> tuple[tuple[int, Optional[int]], ...]:
    """A part's indices as (count, index) runs, one per class the plan's
    filters tell apart, each carrying its class's first index in ``firsts``
    (None when no term is filtered): equal classes give equal runs."""
    if not plan[2]:
        return ((len(part.elements), None),)
    counts: dict[int, int] = {}
    for i in part.elements:
        first = firsts.setdefault(tuple(pred(i) for pred in plan[2]), i)
        counts[first] = counts.get(first, 0) + 1
    return tuple(sorted((cnt, i) for i, cnt in counts.items()))


def _value_table(
    spec: NormSpec, blocks: Sequence[Block], nums: Sequence[Sequence[int]], q: int
) -> tuple[list[list[int]], int]:
    """psi of each block at each tuple of numerators over q, as integer rows over one D.

    Part P puts |c| / u(P) on each index, u(P) = U(P)/W being its indicator's
    norm.  Over A, the lcm of the U(P), entries are numerators over L = q*A,
    so cells are over D = L*W.  A row is computed once per tuple of part runs:
    per size profile under an invariant spec.  Blocks with equal part runs
    share that one row list, so callers may group rows by ``id``.
    """
    plan = _kernel_plan(spec, "psi")
    firsts: dict = {}
    if plan[2]:  # filtered: runs once per distinct part, first met in block order
        memo = {p: _part_runs(plan, p, firsts) for p in dict.fromkeys(p for b in blocks for p in b)}
        keys = [tuple(map(memo.__getitem__, b.parts)) for b in blocks]
    else:
        keys = [tuple(_part_runs(plan, p, firsts) for p in b.parts) for b in blocks]
    units = {runs: _sup_numerator(plan, [(1, cnt, i) for cnt, i in runs])
             for runs in {runs for key in keys for runs in key}}
    a_lcm = math.lcm(*units.values())
    rows: dict = {}
    for key in keys:
        if key not in rows:
            scale = [(plan[0] * (a_lcm // units[runs]), runs) for runs in key]
            rows[key] = [_sup_numerator(plan, sorted(
                [(abs(c) * f, cnt, i) for c, (f, runs) in zip(a, scale) if c for cnt, i in runs],
                reverse=True)) for a in nums]
    return [rows[key] for key in keys], q * a_lcm * plan[0]


def _ceil_times(eps: Fraction, den: int) -> int:
    """The ceiling of eps * den: an integer g over den is below eps iff g is below it."""
    return -(-eps.numerator * den // eps.denominator)


def _nth_root_int(n: int, p: int) -> tuple[int, bool]:
    """Floor p-th root of a nonnegative integer, and whether it is exact."""
    if n in (0, 1) or p == 1:
        return n, True
    if p == 2:
        r = math.isqrt(n)
    else:
        # Integer Newton iteration from a power of two above the root; it
        # decreases strictly until it reaches the floor root.
        r = 1 << -(-n.bit_length() // p)
        while True:
            t = ((p - 1) * r + n // r ** (p - 1)) // p
            if t >= r:
                break
            r = t
    return r, r**p == n


_LP_BITS = 48  # an inexact root is reported to within 2**-48


def _lp_eval(spec: LpNorm, v: Vector) -> tuple[Fraction, bool]:
    p = spec.p
    s = sum((abs(c) ** p for c in v.entries.values()), Fraction(0))
    if s == 0:
        return Fraction(0), True
    rn, okn = _nth_root_int(s.numerator, p)
    rd, okd = _nth_root_int(s.denominator, p)
    if okn and okd:
        return Fraction(rn, rd), True
    # The lower end of [0, s + 1] bisected to a width of at most 2**-48: the
    # largest multiple j*h of h = (s + 1) / 2**n with (j*h)**p <= s, for the
    # least n with h <= 2**-48.  With s + 1 = a / b, j is the floor p-th root
    # of floor(s * 2**(n*p) / (s + 1)**p).
    a, b = s.numerator + s.denominator, s.denominator
    n = a.bit_length() - b.bit_length()  # a > b, and 2**n < a / b below this
    while b << n < a:
        n += 1
    n += _LP_BITS
    j = _nth_root_int((s.numerator * b ** (p - 1) << n * p) // a**p, p)[0]
    return Fraction(j * a, b << n), False


# ---------------------------------------------------------------------------
# Evaluator adapters


Evaluator = Callable[[tuple[Fraction, ...]], Fraction]


def spec_evaluator(spec: NormSpec, k: int) -> Evaluator:
    """Restrict a norm spec to coefficient tuples on coordinates 1..k.

    The values are compared exactly, so an lp spec with p > 1 is rejected.
    """
    _kernel_plan(spec, "coefficient evaluation")

    def rho(a: tuple[Fraction, ...]) -> Fraction:
        if len(a) != k:
            raise InvalidArgumentError(f"expected {k} coefficients, got {len(a)}")
        return norm_eval(spec, Vector.from_coeffs(a))

    return rho


def _grid(k: int, q: int, lo: int) -> list[tuple[int, ...]]:
    if q < 1:
        raise InvalidArgumentError(f"grid size q must be >= 1, got {q}")
    return list(product(range(lo, q + 1), repeat=k))


def _as_fractions(nums: Sequence[int], q: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(x, q) for x in nums)


def signed_grid(k: int, q: int) -> list[tuple[Fraction, ...]]:
    """All tuples with coordinates j/q for -q <= j <= q."""
    return [_as_fractions(a, q) for a in _grid(k, q, -q)]


def nonneg_grid(k: int, q: int) -> list[tuple[Fraction, ...]]:
    """All tuples with coordinates j/q for 0 <= j <= q."""
    return [_as_fractions(a, q) for a in _grid(k, q, 0)]


def dk_distance(rho1: Evaluator, rho2: Evaluator, k: int, grid_q: int = 8) -> Fraction:
    """Grid lower bound for the sup distance over [-1, 1]^k.

    The grid {j/q} already contains every sign pattern of 0 and 1, so no
    extra corner set is needed.
    """
    return max(Fraction(0), *(abs(rho1(a) - rho2(a)) for a in signed_grid(k, grid_q)))


# ---------------------------------------------------------------------------
# Seminorm samples and axiom checks


@frozen
class AxiomCheck:
    nonnegative: bool
    normalized: bool
    homogeneous: bool
    triangle: bool
    positive: bool
    witnesses: tuple[tuple[str, tuple], ...]

    @property
    def all_pass(self) -> bool:
        return (self.nonnegative and self.normalized and self.homogeneous
                and self.triangle and self.positive)


# The homogeneity check's scalars: halves of integers, none above 2 in size.
_SCALARS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(-3, 2))


def check_seminorm_axioms(rho: Evaluator, k: int, grid_q: int = 4) -> AxiomCheck:
    """Grid checks of the norm axioms; failures carry the first witness.

    Each axiom is read over ``signed_grid(k, grid_q)`` in its order, and the
    first witness is a grid point (nonnegative, positive), a unit vector
    (normalized), ``(lam, a)`` with lam in ``_SCALARS`` (homogeneous) or a
    pair ``(a, b)`` (triangle).  ``rho`` is called once at each point a check
    may read: the box {j/q : |j| <= 2q}^k, which holds the grid, the unit
    vectors, every sum a + b and every multiple by 0, 1, -1 or 2, and lam*a
    for lam = 1/2 or -3/2.  All calls come first, so ``rho`` must be pure,
    returning a Fraction or an int; it may be called at points a check that
    stops at its first failure never reads.
    """
    if k < 1:
        raise InvalidArgumentError("k must be >= 1")
    if grid_q < 1:
        raise InvalidArgumentError(f"grid size q must be >= 1, got {grid_q}")
    # A point of numerators c_i over 2q, |c_i| <= r = 4q, has the key
    # sum c_i * b**(k-1-i): keys are one-to-one, and add and scale as points do.
    r, b = 4 * grid_q, 8 * grid_q + 1
    axis = {c: Fraction(c, 2 * grid_q) for c in range(-r, r + 1)}

    def lattice(cs) -> dict[int, tuple[Fraction, ...]]:
        out = {0: ()}
        for _ in range(k):
            out = {x * b + c: p + (axis[c],) for x, p in out.items() for c in cs}
        return out

    lams = [(lam, int(2 * lam)) for lam in _SCALARS]
    pts = lattice(range(-r, r + 1, 2))
    for _, l2 in lams:
        pts.update(lattice([l2 * j for j in range(-grid_q, grid_q + 1)]))
    vals = {x: rho(p) for x, p in pts.items()}
    nums, den = _over_lcm(list(vals.values()))
    num = dict(zip(vals, nums))
    cells = [(x, num[x]) for x in lattice(range(-2 * grid_q, 2 * grid_q + 1, 2))]
    first = [(axiom, next(found, None)) for axiom, found in (
        ("nonnegative", (pts[x] for x, v in cells if v < 0)),
        ("normalized", (pts[e] for e in (2 * grid_q * b**i for i in reversed(range(k)))
                        if num[e] != den)),
        ("homogeneous", ((lam, pts[x]) for x, v in cells for lam, l2 in lams
                         if 2 * num[l2 * (x // 2)] != abs(l2) * v)),
        ("triangle", ((pts[x], pts[y]) for x, v in cells for y, w in cells
                      if num[x + y] > v + w)),
        ("positive", (pts[x] for x, v in cells if x and not v)),
    )]
    return AxiomCheck(*(w is None for _, w in first),
                      tuple((axiom, w) for axiom, w in first if w is not None))


# ---------------------------------------------------------------------------
# The collapsing-norm demonstration


def shrinking_pair_norm(n: int) -> Evaluator:
    """On pairs: max of |a1 - a2| and |a2|/n.  A genuine norm for each n."""
    if n < 1:
        raise InvalidArgumentError("n must be >= 1")

    def rho(a: tuple[Fraction, ...]) -> Fraction:
        if len(a) != 2:
            raise InvalidArgumentError("this evaluator lives on pairs")
        return max(abs(a[0] - a[1]), abs(a[1]) / n)

    return rho


def difference_seminorm(a: tuple[Fraction, ...]) -> Fraction:
    """Pointwise limit of the shrinking pair norms; vanishes on the diagonal."""
    if len(a) != 2:
        raise InvalidArgumentError("this evaluator lives on pairs")
    return abs(a[0] - a[1])


@frozen
class DegenerateLimitReport:
    distances: tuple[tuple[int, Fraction], ...]  # (n, d2(norm_n, limit))
    value_at_ones: tuple[tuple[int, Fraction], ...]  # (n, norm_n(1, 1))
    limit_at_ones: Fraction
    limit_at_e1: Fraction
    limit_axioms: AxiomCheck

    @property
    def collapses_exactly_at_positivity(self) -> bool:
        c = self.limit_axioms
        return (c.nonnegative and c.normalized and c.homogeneous and c.triangle
                and not c.positive)


def degenerate_limit_demo(n_max: int = 64, grid_q: int = 8) -> DegenerateLimitReport:
    """Tabulate how a sequence of norms drains into a seminorm.

    Each member keeps full norm axioms, the grid distance to the limit is
    exactly 1/n (attained at (1, 1)), yet the limit vanishes on the diagonal.
    ``grid_q`` sets the distance grid; the limit's axioms are read at q = 4.
    """
    if n_max < 1:
        raise InvalidArgumentError("n_max must be >= 1")
    ones = (Fraction(1), Fraction(1))
    limit = {a: difference_seminorm(a) for a in signed_grid(2, grid_q)}  # holds ones and e1
    dist = []
    at_ones = []
    for n in range(1, n_max + 1):
        rho = shrinking_pair_norm(n)
        dist.append((n, dk_distance(rho, limit.__getitem__, 2, grid_q)))
        at_ones.append((n, rho(ones)))
    return DegenerateLimitReport(
        distances=tuple(dist),
        value_at_ones=tuple(at_ones),
        limit_at_ones=limit[ones],
        limit_at_e1=limit[Fraction(1), Fraction(0)],
        limit_axioms=check_seminorm_axioms(difference_seminorm, 2, grid_q=4),
    )
