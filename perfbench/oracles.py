"""Reference computations written apart from blockosc.

Norms are computed in integers after clearing denominators, the technique
of acceptance criterion 01, from the definition of a sup-family norm: the
largest of the biggest entry and, for each term, its weight times the best
sum of entries over the index sets the term admits.  ``brute_norm`` tries
every index set of the support; ``multiset_norm`` handles wide vectors of
index-invariant specs with a knapsack over part sizes instead of the
library's sort.  Two-colouring maxima use bitmasks over the universe, the
technique of acceptance criterion 08.

Nothing here imports blockosc: specs arrive as plain ``(weight, size,
filter)`` term tuples, blocks as tuples of int tuples, and coloured or
valued objects as (support, colour or value) pairs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Callable, Iterable, Optional, Sequence

Term = tuple[Fraction, int, Optional[str]]

# Filter name -> (mode, predicate on the index), as documented by the
# library: "subset" keeps only qualifying indices, "touch" requires the
# index set to meet a qualifying index (padding with an unused one is free).
FILTERS = {
    "even-indices": ("subset", lambda i: i % 2 == 0),
    "odd-indices": ("subset", lambda i: i % 2 == 1),
    "touches-even": ("touch", lambda i: i % 2 == 0),
}

BRUTE_SUPPORT_MAX = 12


def _common_scale(values: Iterable[Fraction]) -> int:
    d = 1
    for v in values:
        d = lcm(d, Fraction(v).denominator)
    return d


def _best_over(cands: Iterable[Fraction]) -> Fraction:
    best = Fraction(0)
    for c in cands:
        if c > best:
            best = c
    return best


def brute_norm(terms: Sequence[Term], vec: dict[int, Fraction]) -> Fraction:
    """Norm by exhausting index sets of the support, in integer sums."""
    support = sorted(i for i, c in vec.items() if c != 0)
    if not support:
        return Fraction(0)
    if len(support) > BRUTE_SUPPORT_MAX:
        raise ValueError("support too wide for the exhaustive oracle")
    scale = _common_scale(vec[i] for i in support)
    a = {i: abs(int(Fraction(vec[i]) * scale)) for i in support}
    cands = [Fraction(max(a.values()), scale)]
    for weight, m, flt in terms:
        if flt is None:
            pool, need_touch = support, None
        elif FILTERS[flt][0] == "subset":
            pool, need_touch = [i for i in support if FILTERS[flt][1](i)], None
        else:
            pool, need_touch = support, FILTERS[flt][1]
        best = 0
        for size in range(0, min(m, len(pool)) + 1):
            for combo in combinations(pool, size):
                if (need_touch is not None and size == m
                        and not any(need_touch(i) for i in combo)):
                    continue
                s = sum(a[i] for i in combo)
                if s > best:
                    best = s
        cands.append(Fraction(weight) * Fraction(best, scale))
    return _best_over(cands)


def multiset_norm(terms: Sequence[Term],
                  parts: Sequence[tuple[Fraction, int]]) -> Fraction:
    """Norm of ``count`` equal entries per part, for filter-free specs.

    The best m-entry sum is a bounded knapsack over the parts, solved
    exactly in integers.
    """
    if any(flt is not None for _, _, flt in terms):
        raise ValueError("the multiset oracle needs a filter-free spec")
    live = [(abs(Fraction(v)), c) for v, c in parts if v != 0 and c > 0]
    if not live:
        return Fraction(0)
    scale = _common_scale(v for v, _ in live)
    ints = [(int(v * scale), c) for v, c in live]
    cands = [Fraction(max(v for v, _ in ints), scale)]
    for weight, m, _ in terms:
        # best[t] = largest sum of exactly t entries seen so far (-1: none)
        best = [0] + [-1] * m
        for v, c in ints:
            nxt = best[:]
            for t in range(1, m + 1):
                for take in range(1, min(c, t) + 1):
                    prev = best[t - take]
                    if prev >= 0 and prev + take * v > nxt[t]:
                        nxt[t] = prev + take * v
            best = nxt
        top = max(best)
        cands.append(Fraction(weight) * Fraction(top, scale))
    return _best_over(cands)


def indicator_norm(terms: Sequence[Term], part: Sequence[int]) -> Fraction:
    if all(flt is None for _, _, flt in terms):
        return multiset_norm(terms, [(Fraction(1), len(part))])
    return brute_norm(terms, {i: Fraction(1) for i in part})


def psi(terms: Sequence[Term], block: Sequence[Sequence[int]],
        coeffs: Sequence[Fraction]) -> Fraction:
    """Norm of sum c_i * 1_{s_i} / ||1_{s_i}|| over the block's parts."""
    if len(block) != len(coeffs):
        raise ValueError("one coefficient per part")
    dens = [indicator_norm(terms, part) for part in block]
    if any(d == 0 for d in dens):
        raise ValueError("degenerate part")
    if all(flt is None for _, _, flt in terms):
        return multiset_norm(terms, [(Fraction(c) / d, len(part))
                                     for c, d, part in zip(coeffs, dens, block)])
    vec = {}
    for c, d, part in zip(coeffs, dens, block):
        for i in part:
            vec[i] = Fraction(c) / d
    return brute_norm(terms, vec)


def model_value(terms: Sequence[Term], sizes: Sequence[int],
                coeffs: Sequence[Fraction]) -> Fraction:
    """Limit value of a filter-free spec along far-apart blocks of these sizes."""
    dens = [indicator_norm(terms, range(1, s + 1)) for s in sizes]
    return multiset_norm(terms, [(Fraction(c) / d, s)
                                 for c, d, s in zip(coeffs, dens, sizes)])


def largest_subset(universe: Sequence[int], supports: Sequence[Sequence[int]],
                   ok: Callable[[list[int]], bool]) -> tuple[int, tuple[int, ...]]:
    """(size, lexicographically least subset) of the largest nonempty subsets
    of the universe for which ``ok`` accepts the indices of the objects
    (given by their supports) lying inside.

    Subsets and supports are bitmasks over the universe's positions.
    """
    pos = {x: i for i, x in enumerate(universe)}
    masks = [sum(1 << pos[x] for x in sup) for sup in supports]
    n = len(universe)
    best_size, best = -1, ()
    for mask in range(1, 1 << n):
        size = bin(mask).count("1")
        if size < best_size:
            continue
        if not ok([i for i, m in enumerate(masks) if m & mask == m]):
            continue
        elems = tuple(universe[i] for i in range(n) if mask >> i & 1)
        if size > best_size or elems < best:
            best_size, best = size, elems
    return best_size, best


def largest_monochromatic(universe: Sequence[int],
                          objects: Sequence[tuple[Sequence[int], object]]
                          ) -> tuple[int, tuple[int, ...]]:
    """Largest subset on which every object inside carries one colour."""
    colors = [c for _, c in objects]
    return largest_subset(universe, [s for s, _ in objects],
                          lambda inside: len({colors[i] for i in inside}) <= 1)


def spread_inside(objects: Sequence[tuple[Sequence[int], Fraction]],
                  subset: Sequence[int]) -> Fraction:
    """Largest minus least value of the objects inside the subset."""
    s = set(subset)
    vals = [v for sup, v in objects if all(x in s for x in sup)]
    return max(vals) - min(vals) if len(vals) >= 2 else Fraction(0)


def largest_stable(universe: Sequence[int],
                   objects: Sequence[tuple[Sequence[int], Fraction]],
                   eps: Fraction) -> tuple[int, tuple[int, ...]]:
    """Largest subset on which the values of the objects inside spread by
    less than eps."""
    vals = [v for _, v in objects]
    return largest_subset(
        universe, [s for s, _ in objects],
        lambda inside: len(inside) < 2 or max(vals[i] for i in inside)
        - min(vals[i] for i in inside) < eps)
