"""The lattice axiom checker against the Fraction loop it replaced, kept in
this file as the reference.

``check_seminorm_axioms`` evaluates ``rho`` once per lattice point up front
and compares integers; the reference calls ``rho`` inside each loop and
compares ``Fraction`` sums.  The whole ``AxiomCheck`` must agree, witnesses
included, for sup-family norms and for hand-written non-norms whose first
witnesses are known in closed form.
"""

from fractions import Fraction as F
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernel import SPECS

from blockosc.errors import InvalidArgumentError
from blockosc.normspace import (
    _SCALARS,
    AxiomCheck,
    check_seminorm_axioms,
    difference_seminorm,
    even_pair_fixture,
    section6_spec,
    signed_grid,
    spec_evaluator,
)

# ---------------------------------------------------------------------------
# Fraction reference


def ref_check(rho, k, grid_q=4):
    pts = signed_grid(k, grid_q)
    zero = (F(0),) * k
    wit = []

    nonneg = True
    for a in pts:
        if rho(a) < 0:
            nonneg = False
            wit.append(("nonnegative", a))
            break

    normalized = True
    for i in range(k):
        e = tuple(F(1) if j == i else F(0) for j in range(k))
        if rho(e) != 1:
            normalized = False
            wit.append(("normalized", e))
            break

    homogeneous = True
    for a in pts:
        base = rho(a)
        for lam in _SCALARS:
            scaled = tuple(lam * x for x in a)
            if rho(scaled) != abs(lam) * base:
                homogeneous = False
                wit.append(("homogeneous", (lam, a)))
                break
        if not homogeneous:
            break

    triangle = True
    for a in pts:
        ra = rho(a)
        for b in pts:
            s = tuple(x + y for x, y in zip(a, b))
            if rho(s) > ra + rho(b):
                triangle = False
                wit.append(("triangle", (a, b)))
                break
        if not triangle:
            break

    positive = True
    for a in pts:
        if a != zero and rho(a) == 0:
            positive = False
            wit.append(("positive", a))
            break

    return AxiomCheck(nonneg, normalized, homogeneous, triangle, positive, tuple(wit))


# ---------------------------------------------------------------------------
# Hand-written non-norms on k coordinates, each with its first witnesses


def sup(a):
    return max(abs(x) for x in a)


def twice_sup(a):
    """Homogeneous and subadditive, but e_1 has value 2."""
    return 2 * sup(a)


def capped_sup(a):
    """min(1, sup): subadditive and normalized, but rho(2a) = rho(a) on the
    unit sphere."""
    return min(F(1), sup(a))


def axis_sup(a):
    """sup on the coordinate axes, half of it elsewhere: homogeneous, but
    (-1,...,-1) + (-1, 1,...,1) = (-2, 0,...,0) has value 2 > 1/2 + 1/2."""
    return sup(a) if sum(1 for x in a if x) <= 1 else sup(a) / 2


def skewed_sup(q):
    """sup, doubled at points off the 1/q lattice that have a positive entry.
    Only lam = 1/2 and -3/2 reach such points, from a grid point with an odd
    numerator, and the sign of its entries decides which lam fails first."""
    def rho(a):
        off = any((x * q).denominator != 1 for x in a)
        return 2 * sup(a) if off and max(a) > 0 else sup(a)
    return rho


def diagonal_negative(a):
    """-sup on the diagonal line, sup elsewhere.  A negative value at a grid
    point also breaks the triangle inequality, since homogeneity gives
    rho(0) = 0 and rho(-a) = rho(a), and 0 <= rho(a) + rho(-a) is a sampled
    triangle; so this one fails two axioms."""
    return -sup(a) if len(set(a)) == 1 else sup(a)


def known(name, k, q):
    """The expected (failed axiom, first witness) pairs at size (k, q)."""
    ones = (F(-1),) * k
    return {
        "twice_sup": (("normalized", (F(1),) + (F(0),) * (k - 1)),),
        "capped_sup": (("homogeneous", (F(2), ones)),),
        "skewed_sup": (("homogeneous", (F(-3, 2), ones if q % 2 else ones[1:] + (F(1 - q, q),))),),
        "axis_sup": (("triangle", (ones, (F(-1),) + (F(1),) * (k - 1))),),
        "diagonal_negative": (("nonnegative", ones),
                              ("triangle", (ones, ones[1:] + (F(1 - q, q),)))),
    }[name]


# name: (evaluator at grid size q, least k)
NON_NORMS = {"twice_sup": (lambda q: twice_sup, 1), "capped_sup": (lambda q: capped_sup, 1),
             "skewed_sup": (skewed_sup, 1), "axis_sup": (lambda q: axis_sup, 2),
             "diagonal_negative": (lambda q: diagonal_negative, 2)}
AXIOMS = ("nonnegative", "normalized", "homogeneous", "triangle", "positive")
SIZES = [(k, q) for k in (1, 2, 3) for q in (1, 2, 3)]
# The reference reads (2q+1)^(2k) triangle pairs: 117,649 at the largest
# size, seconds per evaluator, so only one test runs it there.
REF_SIZES = [s for s in SIZES if s != (3, 3)]


# On one coordinate axis_sup is the sup norm and diagonal_negative fails
# normalization too, so those two start at k = 2.
@pytest.mark.parametrize("name,k,q", [(name, k, q) for name, (_, k_min) in NON_NORMS.items()
                                      for k, q in SIZES if k >= k_min])
def test_non_norm_fails_at_its_known_witness(name, k, q):
    rho = NON_NORMS[name][0](q)
    wit = known(name, k, q)
    got = check_seminorm_axioms(rho, k, q)
    assert got == AxiomCheck(*(ax not in dict(wit) for ax in AXIOMS), wit)
    if (k, q) in REF_SIZES:
        assert got == ref_check(cache(rho), k, q)


@settings(max_examples=40, deadline=None)
@given(spec=SPECS, size=st.sampled_from(REF_SIZES))
def test_matches_reference_on_sup_families(spec, size):
    k, q = size
    rho = cache(spec_evaluator(spec, k))
    assert check_seminorm_axioms(rho, k, q) == ref_check(rho, k, q)


@pytest.mark.parametrize("k,q", REF_SIZES)
def test_matches_reference_on_seminorms(k, q):
    first = cache(lambda a: abs(a[0]))  # vanishes wherever a[0] = 0
    assert check_seminorm_axioms(first, k, q) == ref_check(first, k, q)
    if k == 2:
        assert (check_seminorm_axioms(difference_seminorm, k, q)
                == ref_check(difference_seminorm, k, q))


def test_matches_reference_at_the_largest_size():
    rho = cache(spec_evaluator(section6_spec(), 3))
    got = check_seminorm_axioms(rho, 3, 3)
    assert got.all_pass and got == ref_check(rho, 3, 3)


@pytest.mark.parametrize("bad", [0, -1])
def test_grid_size_below_one_is_rejected(bad):
    with pytest.raises(InvalidArgumentError, match=f"grid size q must be >= 1, got {bad}"):
        check_seminorm_axioms(difference_seminorm, 2, bad)


# ---------------------------------------------------------------------------
# Cost: one call per distinct point, and only at points the checks read


def read_points(k, q):
    """Every point a full run of the reference reads."""
    grid = signed_grid(k, q)
    units = {tuple(F(int(i == j)) for j in range(k)) for i in range(k)}
    scaled = {tuple(lam * x for x in a) for a in grid for lam in _SCALARS}
    sums = {tuple(x + y for x, y in zip(a, b)) for a, b in product(grid, repeat=2)}
    return set(grid) | units | scaled | sums


@pytest.mark.parametrize("rho,k,q", [
    (difference_seminorm, 2, 4),
    (spec_evaluator(section6_spec(), 2), 2, 3),
    (spec_evaluator(section6_spec(), 3), 3, 2),
    (spec_evaluator(even_pair_fixture(), 3), 3, 2),
], ids=["difference-2-4", "section6-2-3", "section6-3-2", "even-pair-3-2"])
def test_each_point_is_evaluated_once(rho, k, q):
    calls = []

    def counted(a):
        calls.append(a)
        return rho(a)

    check_seminorm_axioms(counted, k, q)
    assert len(calls) == len(set(calls))
    assert set(calls) <= read_points(k, q)
