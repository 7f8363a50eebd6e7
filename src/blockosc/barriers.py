"""Barrier descriptors and their operations.

A barrier is a family of finite nonempty sets such that no member contains
another and every infinite subset of the ground set starts with a member.
Families are never materialized globally; a descriptor algebra (fixed-size
cubes, the minimum-equals-cardinality family, restriction, quotient by a
stem, concatenation sums, and position relabeling) supports decidable
membership, initial-segment search along a generator, bounded enumeration,
axiom spot-checks, and rank classification.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from itertools import chain, combinations, islice, takewhile, tee
from math import comb, inf
from typing import Iterable, Iterator, Optional, Union

from .errors import InvalidArgumentError, NoFrontFoundError
from .frozen import frozen
from .sets import FiniteSet, PrefixThen, SetGenerator, naturals, probe_equal, probe_subset

FRONT_FUEL_DEFAULT = 10**6


class BarrierDescriptor:
    """Base class; concrete variants are frozen records below."""

    def ground(self) -> SetGenerator:
        raise NotImplementedError


@frozen
class Cube(BarrierDescriptor):
    """All subsets of the ground set of a fixed size ``k``."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InvalidArgumentError("cube size must be >= 1")

    def ground(self) -> SetGenerator:
        return naturals()


@frozen
class Schreier(BarrierDescriptor):
    """Sets whose cardinality equals their minimum."""

    def ground(self) -> SetGenerator:
        return naturals()


@frozen
class Restrict(BarrierDescriptor):
    """Members of ``base`` that live inside the infinite set ``to``."""

    base: BarrierDescriptor
    to: SetGenerator

    def __post_init__(self):
        if not probe_subset(self.to, self.base.ground()):
            raise InvalidArgumentError("restriction target must sit inside the base ground set")

    def ground(self) -> SetGenerator:
        return self.to


@frozen
class Quotient(BarrierDescriptor):
    """Continuations of the stem ``s``: sets ``t`` above ``s`` with ``s + t`` in the base.

    Some member of the base must extend the stem, or the family is empty.
    For a barrier base that holds exactly when the stem lies in the ground
    set and no initial segment of it is a member: the stem followed by the
    rest of the ground set then has a front, longer than the stem.
    """

    base: BarrierDescriptor
    s: FiniteSet

    def __post_init__(self):
        if self.s.is_empty():
            raise InvalidArgumentError("quotient stem must be nonempty")
        if not all(map(self.base.ground().contains, self.s)):
            raise InvalidArgumentError(f"stem {self.s} leaves the base ground set")
        head = _front(self.base, iter(self.s.elements), len(self.s))
        if head == self.s.elements:
            raise InvalidArgumentError(f"stem {self.s} already belongs to the base family")
        if head is not None:
            raise InvalidArgumentError(
                f"no member extends stem {self.s}: it starts with {FiniteSet._trusted(head)}")

    def ground(self) -> SetGenerator:
        return self.base.ground().after(self.s.max)


@frozen
class Sum(BarrierDescriptor):
    """Concatenations s1 + ... + sk with each si drawn from the i-th part."""

    parts: tuple[BarrierDescriptor, ...]

    def __post_init__(self):
        if not self.parts:
            raise InvalidArgumentError("sum needs at least one part")
        g0 = self.parts[0].ground()
        if not all(probe_equal(g0, p.ground()) for p in self.parts[1:]):
            raise InvalidArgumentError("sum parts must share a ground set")

    def ground(self) -> SetGenerator:
        return self.parts[0].ground()


@frozen
class Associated(BarrierDescriptor):
    """The base family relabeled through positions of its ground set.

    A set of positions belongs here exactly when the corresponding elements
    of the base ground set form a member of the base family.
    """

    base: BarrierDescriptor

    def ground(self) -> SetGenerator:
        return naturals()


# ---------------------------------------------------------------------------
# Membership and fronts: one walk of the descriptor


def contains(b: BarrierDescriptor, s: FiniteSet) -> bool:
    """Whether ``s`` is a member; no member is an initial segment of another,
    so exactly when ``s`` is its own front."""
    return _front(b, iter(s.elements), len(s)) == s.elements


def _front(b: BarrierDescriptor, elems: Iterator[int], limit: int) -> Optional[tuple[int, ...]]:
    """The elements of the shortest initial segment of the strictly increasing
    ``elems`` in ``b``, unique by incomparability; None if none has at most
    ``limit`` elements.  A front found draws exactly its own elements from ``elems``.
    ``Cube(k)`` takes k elements and ``Schreier`` as many as the first names;
    the other descriptors walk their bases, a restriction up to the first
    element outside its ``to``, a quotient along its stem first, and an
    associated family along the ground elements at the drawn positions.
    """
    if isinstance(b, (Cube, Schreier)):
        first = next(elems, None)
        size = b.k if isinstance(b, Cube) else first
        if first is None or size > limit:
            return None
        drawn = (first, *islice(elems, size - 1))
        return drawn if len(drawn) == size else None
    if isinstance(b, Restrict):
        return _front(b.base, takewhile(b.to.contains, elems), limit)
    if isinstance(b, Quotient):
        stem = b.s.elements
        first = next(elems, None)
        if first is None or first <= stem[-1]:
            return None
        # __post_init__ makes every front of the base along the stem longer than it
        head = _front(b.base, chain(stem, (first,), elems), limit + len(stem))
        return None if head is None else head[len(stem):]
    if isinstance(b, Sum):
        pieces = _peel_fronts(b.parts, elems, limit)
        return sum(pieces, ()) if len(pieces) == len(b.parts) else None
    if isinstance(b, Associated):
        positions, feed = tee(elems)
        head = _front(b.base, map(b.base.ground().nth, feed), limit)
        return None if head is None else tuple(islice(positions, len(head)))
    raise InvalidArgumentError(f"unknown descriptor {b!r}")


def _peel_fronts(parts: Iterable[BarrierDescriptor], elems: Iterator[int],
                 limit: int) -> tuple[tuple[int, ...], ...]:
    """The elements of each part's front along ``elems`` in turn, each within
    what the pieces before it left of ``limit``; stops at the first part with none."""
    pieces = []
    for p in parts:
        piece = _front(p, elems, limit)
        if piece is None:
            break
        pieces.append(piece)
        limit -= len(piece)
    return tuple(pieces)


# ---------------------------------------------------------------------------
# Front along an infinite generator


def front(b: BarrierDescriptor, m: SetGenerator, fuel: int = FRONT_FUEL_DEFAULT) -> FiniteSet:
    """The unique initial segment of ``m`` that lands in ``b``.

    ``fuel`` bounds how many elements are drawn from the generator; running
    out signals a descriptor/generator mismatch rather than a long front.
    The scan is :func:`_front`'s; its size rule needs ``m`` strictly
    increasing, as every :class:`SetGenerator` is.
    """
    if fuel < 1:
        raise InvalidArgumentError("fuel must be positive")
    s = _front(b, iter(m), fuel)
    if s is None:
        raise NoFrontFoundError(fuel, f"generator {m!r} against {type(b).__name__}")
    return FiniteSet(s)


# ---------------------------------------------------------------------------
# Bounded enumeration


def enumerate_up_to(b: BarrierDescriptor, n: int) -> tuple[FiniteSet, ...]:
    """All members with maximum element <= n, in lexicographic order."""
    if n < 0:
        raise InvalidArgumentError("bound must be >= 0")
    return _enumerate_cached(b, tuple(range(1, n + 1)))


@lru_cache(maxsize=512)
def _enumerate_cached(b: BarrierDescriptor, pool: tuple[int, ...]) -> tuple[FiniteSet, ...]:
    """All members inside ``pool``, an increasing tuple, in lexicographic
    order; only they are built, each branch emitting them in order."""
    if isinstance(b, Cube):
        out = list(map(FiniteSet._trusted, combinations(pool, b.k)))
    elif isinstance(b, Schreier):
        out = [FiniteSet._trusted((m,) + rest) for i, m in enumerate(pool)
               for rest in combinations(pool[i + 1:], m - 1)]
    elif isinstance(b, Restrict):
        out = _enumerate_cached(b.base, tuple(x for x in pool if b.to.contains(x)))
    elif isinstance(b, Quotient):
        stem = b.s.elements
        base = _enumerate_cached(b.base, stem + tuple(x for x in pool if x > stem[-1]))
        out = [FiniteSet._trusted(u.elements[len(stem):])
               for u in base if u.elements[: len(stem)] == stem]
    elif isinstance(b, Sum):
        out = [FiniteSet._trusted(sum((p.elements for p in t), ())) for t in _stack(b.parts, pool)]
    elif isinstance(b, Associated):
        index = dict(zip(map(b.base.ground().nth, pool), pool))
        out = [FiniteSet._trusted(tuple(map(index.__getitem__, s.elements)))
               for s in _enumerate_cached(b.base, tuple(index))]
    else:
        raise InvalidArgumentError(f"unknown descriptor {b!r}")
    return tuple(out)


def _stack(parts: tuple[BarrierDescriptor, ...],
           pool: tuple[int, ...]) -> list[tuple[FiniteSet, ...]]:
    """Every (s1, ..., sk) with si a member of the i-th part inside ``pool``
    and max(si) < min(s(i+1)).

    The tuples come in the order of their s1, then s2, and so on, which is the lexicographic
    order of their concatenations, as no barrier member is an initial segment of another.
    """
    members = [_enumerate_cached(p, pool) for p in parts]
    # memoized on (part index, lower bound): heads sharing a max share tails
    memo: dict[tuple[int, int], list[tuple[FiniteSet, ...]]] = {}

    def go(i: int, bound: int) -> list[tuple[FiniteSet, ...]]:
        key = (i, bound)
        if key not in memo:
            heads = [s for s in members[i] if s.min > bound]
            if i == len(parts) - 1:
                memo[key] = [(h,) for h in heads]
            else:
                memo[key] = [(h,) + t for h in heads for t in go(i + 1, h.max)]
        return memo[key]

    return go(0, 0)


# ---------------------------------------------------------------------------
# Axiom checks


def sperner_violations(family: Iterable[FiniteSet]) -> list[tuple[FiniteSet, FiniteSet]]:
    """Pairs (s, t) with s a proper subset of t; empty for genuine barriers."""
    ordered = sorted(set(family), key=len)
    longer = {len(s): i for i, s in enumerate(ordered, 1)}  # first strictly longer member
    as_sets = [(m, frozenset(m.elements)) for m in ordered] if len(longer) > 1 else []
    return [(s, t) for s, fs in as_sets for t, ft in as_sets[longer[len(s)]:] if fs < ft]


@frozen
class AxiomReport:
    sperner_ok: bool
    violations: tuple[tuple[FiniteSet, FiniteSet], ...]
    cover_ok: bool
    cover_probes: tuple[tuple[str, Optional[FiniteSet]], ...]


def check_axioms(
    b: BarrierDescriptor,
    n: int,
    seed: int = 0,
    fuel: int = 10_000,
) -> AxiomReport:
    """Spot-check the barrier axioms at desk scale.

    Incomparability is exhaustive over the enumeration up to ``n``.  The
    covering axiom is sampled: fronts are searched along the ground set and
    seven seeded random progressions, each within ``fuel``.
    """
    bad = sperner_violations(enumerate_up_to(b, n))

    rng = random.Random(seed)
    gens: list[SetGenerator] = [b.ground()]
    for _ in range(7):
        start = rng.randrange(1, 8)
        step = rng.randrange(1, 5)
        gens.append(b.ground().after(start) if step == 1 else _thin(b.ground(), start, step))
    outcomes = []
    for g in gens:
        try:
            f = front(b, g, fuel)
        except NoFrontFoundError:
            f = None
        outcomes.append((repr(g), f))
    return AxiomReport(
        sperner_ok=not bad,
        violations=tuple(bad),
        cover_ok=all(f is not None for _, f in outcomes),
        cover_probes=tuple(outcomes),
    )


def _thin(g: SetGenerator, start: int, step: int) -> SetGenerator:
    """A sparse infinite subset of ``g``: its elements at positions ``start``,
    ``start + step``, ... (41 of them), then the tail of ``g`` far beyond them."""
    picked = [g.nth(start + step * j) for j in range(41)]
    return PrefixThen(FiniteSet(picked), g.after(picked[-1] + step))


# ---------------------------------------------------------------------------
# Rank


@frozen
class RankResult:
    """The lex rank w^exponent; an exponent of None means at least w^w."""

    exponent: Optional[int]
    confirmed: bool
    method: str  # "structural" or "empirical"
    probe_bound: Optional[int] = None

    def __str__(self) -> str:
        e = self.exponent
        return "≥w^w" if e is None else "w" if e == 1 else f"w^{e}"


def _structural_degree(b: BarrierDescriptor) -> Union[int, float, None]:
    """Exact lex-rank exponent when derivable from the descriptor shape.

    Returns an int d (rank is w^d), inf for families with members of
    unbounded size, or None when no structural rule applies.
    """
    if isinstance(b, Cube):
        return b.k
    if isinstance(b, Schreier):
        return inf
    if isinstance(b, (Restrict, Associated)):
        # Relabeling the ground set is an order isomorphism for lex rank.
        return _structural_degree(b.base)
    if isinstance(b, Sum):
        degs = [_structural_degree(p) for p in b.parts]
        return inf if inf in degs else None if None in degs else sum(degs)
    if isinstance(b, Quotient):
        # A member is a front along the stem less the stem, so its size is the
        # front's less the stem's; as in _front, the stem's first element is
        # read through each associated layer.  __post_init__ makes it >= 1.
        base, first = b.base, b.s.min
        while isinstance(base, (Restrict, Associated)):
            if isinstance(base, Associated):
                first = base.base.ground().nth(first)
            base = base.base
        if isinstance(base, (Cube, Schreier)):
            return (base.k if isinstance(base, Cube) else first) - len(b.s)
        return None
    return None


def rank(b: BarrierDescriptor, probe_bound: Optional[int] = None) -> RankResult:
    """Lex-order rank: structural rules first, empirical classifier otherwise."""
    if probe_bound is not None and probe_bound < 1:
        raise InvalidArgumentError("probe_bound must be >= 1")
    deg = _structural_degree(b)
    if deg is not None:
        return RankResult(None if deg == inf else deg, True, "structural")
    return empirical_rank(b, 12 if probe_bound is None else probe_bound)


def empirical_rank(b: BarrierDescriptor, n: int) -> RankResult:
    """Classify the rank from the enumeration up to ``n``.

    A family whose members all have size k and which swallows every k-set
    beyond some threshold has rank exactly w^k; witnessing both facts inside
    a finite window can only ever be evidence, so the result is flagged
    unconfirmed.  Anything else at this probe is reported as at least
    w^w, likewise unconfirmed.
    """
    base = b
    if not probe_equal(base.ground(), naturals()):
        base = Associated(b)  # classify the position-relabeled copy; same rank
    fam = enumerate_up_to(base, n)
    if not fam:
        return RankResult(None, False, "empirical", n)
    k = max(len(s) for s in fam)
    count_k = Counter(s.min for s in fam if len(s) == k)
    for m in range(0, n - k + 1):
        expected = comb(n - m, k)
        actual = sum(c for mn, c in count_k.items() if mn > m)
        if actual == expected:
            return RankResult(k, False, "empirical", n)
    return RankResult(None, False, "empirical", n)
