import dataclasses
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockosc.errors import InvalidArgumentError
from blockosc.normspace import (
    LpNorm,
    SupFamily,
    SupTerm,
    Vector,
    _kernel_plan,
    _nth_root_int,
    _part_runs,
    check_seminorm_axioms,
    degenerate_limit_demo,
    difference_seminorm,
    dk_distance,
    even_pair_fixture,
    mn_norm_spec,
    norm_eval,
    norm_eval_detailed,
    section6_spec,
    shrinking_pair_norm,
    spec_evaluator,
)
from blockosc.sets import FiniteSet


def ind(*xs):
    return Vector({i: 1 for i in xs})


class TestVector:
    def test_rejects_bad_indices(self):
        with pytest.raises(InvalidArgumentError):
            Vector({0: 1})
        with pytest.raises(InvalidArgumentError):
            Vector({-2: 1})

    def test_drops_zero_entries(self):
        assert sorted(Vector({1: 0, 2: F(1, 2)}).entries) == [2]

    def test_add_and_scale(self):
        v = Vector({1: 1}) + Vector({1: 1}) + Vector({2: F(1, 3)})
        assert v.entries == {1: F(2), 2: F(1, 3)}
        assert v.scale(F(3)).entries == {1: F(6), 2: F(1)}

    def test_equal_vectors_hash_equal(self):
        a = Vector({1: F(1, 2), 3: 2, 5: 0})
        b = Vector({3: F(2), 1: F(2, 4)})
        assert a == b and hash(a) == hash(b)
        assert {a, b, Vector({1: F(1, 2)})} == {a, Vector({1: F(1, 2)})}
        assert a != Vector({1: F(1, 2)}) and a != a.entries

    def test_from_coeffs_start(self):
        v = Vector.from_coeffs((F(1), F(0), F(2)), start=4)
        assert v.entries == {4: F(1), 6: F(2)}


class TestSpecConstruction:
    def test_term_validation(self):
        with pytest.raises(InvalidArgumentError):
            SupTerm(F(0), 2)
        with pytest.raises(InvalidArgumentError):
            SupTerm(F(1, 2), 0)
        with pytest.raises(InvalidArgumentError):
            SupTerm(F(1, 2), 2, "no-such-filter")

    def test_mn_requires_sane_sizes(self):
        with pytest.raises(InvalidArgumentError):
            mn_norm_spec(1, 8)
        with pytest.raises(InvalidArgumentError):
            mn_norm_spec(8, 2)
        with pytest.raises(InvalidArgumentError):
            mn_norm_spec(3, 3)

    def test_section6_weights(self):
        spec = section6_spec()
        assert [(t.weight, t.size) for t in spec.terms] == \
            [(F(3, 4), 2), (F(9, 16), 8)]

    def test_fixture_is_not_index_invariant(self):
        # the fixture's filters split a part into runs of evens and odds
        runs = _part_runs(_kernel_plan(even_pair_fixture(), "test"), FiniteSet((1, 2, 3, 5)), {})
        assert runs == ((1, 2), (3, 1))


class TestEvaluation:
    def test_long_indicator(self):
        spec = section6_spec()
        assert norm_eval(spec, ind(*range(1, 11))) == F(9, 2)
        assert norm_eval(spec, ind(*range(1, 9))) == F(9, 2)

    def test_pair_indicator(self):
        assert norm_eval(section6_spec(), ind(1, 2)) == F(3, 2)

    def test_unit_vector(self):
        assert norm_eval(section6_spec(), Vector({5: 1})) == F(1)

    def test_zero_vector(self):
        assert norm_eval(section6_spec(), Vector()) == F(0)

    def test_singleton_term_dominates_tiny_tail(self):
        # one big entry plus dust: the implicit sup term wins
        v = Vector({1: F(1), 2: F(1, 100), 3: F(1, 100)})
        assert norm_eval(section6_spec(), v) == F(1)

    def test_sup_norm(self):
        assert norm_eval(SupFamily(()), Vector({1: F(-3, 2), 9: F(1)})) == F(3, 2)

    def test_l1_exact(self):
        val, exact = norm_eval_detailed(LpNorm(1), Vector({1: F(1, 3), 2: F(-1, 6)}))
        assert (val, exact) == (F(1, 2), True)

    def test_l2_perfect_square(self):
        val, exact = norm_eval_detailed(LpNorm(2), Vector({1: 3, 2: -4}))
        assert (val, exact) == (F(5), True)

    def test_l2_irrational_is_flagged(self):
        val, exact = norm_eval_detailed(LpNorm(2), ind(1, 2))
        assert not exact
        assert abs(val * val - 2) < F(1, 2**40)

    def test_norm_eval_refuses_an_inexact_root(self):
        assert norm_eval(LpNorm(2), Vector({1: 3, 2: 4})) == F(5)
        with pytest.raises(InvalidArgumentError, match="norm_eval_detailed"):
            norm_eval(LpNorm(2), ind(1, 2))

    def test_filters_subset_and_touch(self):
        spec = even_pair_fixture()
        assert norm_eval(spec, ind(2, 4)) == F(3, 2)
        assert norm_eval(spec, ind(1, 2)) == F(5, 4)
        assert norm_eval(spec, ind(1, 3)) == F(1)
        assert norm_eval(spec, Vector({2: 1})) == F(1)

    def test_relocation_dependence_of_fixture(self):
        # the same coefficient pattern lands differently by index parity
        spec = even_pair_fixture()
        vals = {norm_eval(spec, ind(i, i + 1)) for i in (1, 2, 3, 4)}
        assert vals == {F(5, 4)}
        assert norm_eval(spec, ind(2, 4)) != norm_eval(spec, ind(1, 3))


class TestBlockVector:
    """The indicator of a block scaled to norm one, as psi_eval builds it."""

    def test_pair_block(self):
        assert norm_eval(section6_spec(), Vector({1: F(2, 3), 2: F(2, 3)})) == F(1)

    def test_eight_block(self):
        assert norm_eval(section6_spec(), Vector({i: F(2, 9) for i in range(1, 9)})) == F(1)

    def test_sup_norm_block(self):
        assert norm_eval(SupFamily(()), ind(3, 7)) == F(1)


class TestDistance:
    def test_identical_evaluators(self):
        rho = spec_evaluator(section6_spec(), 2)
        assert dk_distance(rho, rho, 2) == F(0)

    def test_l1_vs_sup(self):
        l1 = spec_evaluator(LpNorm(1), 2)
        sup = spec_evaluator(SupFamily(()), 2)
        assert dk_distance(l1, sup, 2, grid_q=4) == F(1)

    def test_shrinking_norm_distance(self):
        for n in (1, 2, 5, 16):
            rho = shrinking_pair_norm(n)
            assert dk_distance(rho, difference_seminorm, 2) == F(1, n)


class TestAxioms:
    def test_section6_is_a_norm(self):
        rep = check_seminorm_axioms(spec_evaluator(section6_spec(), 3), 3,
                                    grid_q=2)
        assert rep.all_pass and rep.witnesses == ()

    def test_fixture_is_a_norm(self):
        rep = check_seminorm_axioms(spec_evaluator(even_pair_fixture(), 3), 3,
                                    grid_q=2)
        assert rep.all_pass

    def test_limit_fails_only_positivity(self):
        from blockosc.normspace import difference_seminorm
        rep = check_seminorm_axioms(difference_seminorm, 2)
        assert rep.nonnegative and rep.normalized and rep.homogeneous and rep.triangle
        assert not rep.positive and not rep.all_pass
        assert rep.witnesses[0][0] == "positive"

    def test_degenerate_limit_demo(self):
        rep = degenerate_limit_demo(n_max=64)
        assert rep.distances[0] == (1, F(1))
        assert all(d == F(1, n) for n, d in rep.distances)
        assert rep.value_at_ones[63] == (64, F(1, 64))
        assert rep.limit_at_ones == F(0)
        assert rep.limit_at_e1 == F(1)
        assert rep.collapses_exactly_at_positivity
        a_norm = check_seminorm_axioms(shrinking_pair_norm(2), 2)
        assert not dataclasses.replace(rep, limit_axioms=a_norm).collapses_exactly_at_positivity
        assert degenerate_limit_demo(n_max=1).distances == ((1, F(1)),)

    def test_degenerate_limit_demo_evaluates_each_grid_point_once(self, monkeypatch):
        import blockosc.normspace as ns
        real, real_check = ns.difference_seminorm, ns.check_seminorm_axioms
        calls = Counter()

        def counted(a):
            calls[a] += 1
            return real(a)

        monkeypatch.setattr(ns, "difference_seminorm", counted)
        # the axiom check reads its own q = 4 lattice: count the distances only
        monkeypatch.setattr(ns, "check_seminorm_axioms",
                            lambda rho, k, grid_q: real_check(real, k, grid_q=grid_q))
        rep = ns.degenerate_limit_demo(n_max=64, grid_q=8)
        assert calls == Counter(ns.signed_grid(2, 8))
        assert all(d == F(1, n) for n, d in rep.distances)


@st.composite
def small_vectors(draw):
    n = draw(st.integers(1, 6))
    idx = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n, unique=True))
    cs = draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=8),
                       min_size=n, max_size=n))
    return Vector(dict(zip(idx, cs)))


@settings(max_examples=150)
@given(small_vectors(), small_vectors())
def test_triangle_inequality(u, v):
    spec = section6_spec()
    assert norm_eval(spec, u + v) <= norm_eval(spec, u) + norm_eval(spec, v)


@settings(max_examples=150)
@given(small_vectors(), st.fractions(min_value=-4, max_value=4, max_denominator=6))
def test_homogeneity(v, lam):
    spec = section6_spec()
    assert norm_eval(spec, v.scale(lam)) == abs(lam) * norm_eval(spec, v)


@settings(max_examples=100)
@given(small_vectors())
def test_filtered_specs_still_obey_triangle(v):
    spec = even_pair_fixture()
    w = Vector({i + 1: c for i, c in v.entries.items()})
    assert norm_eval(spec, v + w) <= norm_eval(spec, v) + norm_eval(spec, w)


def _ref_root(n, p):
    """Floor p-th root of n >= 0 by bisection over the integers."""
    lo, hi = 0, n + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**p <= n else (lo, mid)
    return lo


def ref_lp_eval(spec, v):
    """``_lp_eval`` as it was: an exact root when there is one, else the
    bisection of [0, s + 1] down to width 2**-48, keeping the lower end's
    p-th power <= s."""
    p = spec.p
    s = sum((abs(c) ** p for c in v.entries.values()), F(0))
    rn, rd = _ref_root(s.numerator, p), _ref_root(s.denominator, p)
    if F(rn, rd) ** p == s:
        return F(rn, rd), True
    lo, hi = F(0), s + 1
    while hi - lo > F(1, 2**48):
        mid = (lo + hi) / 2
        if mid**p <= s:
            lo = mid
        else:
            hi = mid
    return lo, False


def test_integer_root_from_zero():
    for p in (1, 2, 3, 7):
        for n in range(130):
            r = _ref_root(n, p)
            assert _nth_root_int(n, p) == (r, r**p == n)


@settings(max_examples=150)
@given(small_vectors(), st.integers(1, 12))
@example(Vector({1: 1, 2: 1, 3: 1}), 2)  # s + 1 = 4 is a power of two
def test_lp_root_matches_the_bisection(v, p):
    assert norm_eval_detailed(LpNorm(p), v) == ref_lp_eval(LpNorm(p), v)


def test_an_inexact_root_at_p_1000():
    val, exact = norm_eval_detailed(LpNorm(1000), Vector({1: 2, 2: 3}))
    assert not exact and val**1000 <= 2**1000 + 3**1000 < (val + F(1, 2**48))**1000


class TestIndexInvarianceAndGrids:
    def test_index_invariant_specs(self):
        # without index filters the kernel plan sees a part as one run
        part = FiniteSet((1, 2, 3, 5))
        for spec in (SupFamily(()), section6_spec(), mn_norm_spec(2, 3), LpNorm(1)):
            assert _part_runs(_kernel_plan(spec, "test"), part, {}) == ((4, None),)

    @pytest.mark.parametrize("q", [0, -1])
    def test_grids_reject_sizes_below_one(self, q):
        from blockosc.normspace import nonneg_grid, signed_grid
        for grid in (signed_grid, nonneg_grid):
            with pytest.raises(InvalidArgumentError, match="grid size"):
                grid(2, q)

    def test_smallest_grids(self):
        from blockosc.normspace import nonneg_grid, signed_grid
        assert nonneg_grid(1, 1) == [(F(0),), (F(1),)]
        assert signed_grid(1, 1) == [(F(-1),), (F(0),), (F(1),)]


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: spec_evaluator(even_pair_fixture(), 2)((F(1),)),
                 "expected 2 coefficients, got 1", id="evaluator-length"),
    pytest.param(lambda: shrinking_pair_norm(0), "n must be >= 1", id="shrinking-n"),
    pytest.param(lambda: shrinking_pair_norm(1)((F(1),)), "this evaluator lives on pairs",
                 id="shrinking-pair"),
    pytest.param(lambda: difference_seminorm((F(1), F(2), F(3))),
                 "this evaluator lives on pairs", id="difference-pair"),
])
def test_input_checks(call, message):
    with pytest.raises(InvalidArgumentError) as exc:
        call()
    assert exc.type is InvalidArgumentError and str(exc.value) == message
