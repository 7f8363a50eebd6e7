"""Fast paths checked against the plain definitions they replace.

``front`` and ``contains`` rest on ``_front``, one walk of the descriptor:
Cube and Schreier fronts come by a size rule, and every other descriptor walks
its base along the same iterator, a sum peeling its parts off it in turn.
``contains`` asks whether a set is its own front, and ``from_concat`` peels a
sum's parts along the finite set.  The reference tests every prefix for
membership by the recursive definition and peels sums with that scan.
``model_eval`` peels its probes' parts in turn along one walk of the ground
set and reads them off one value table; the reference builds each part with
the reference front along a fresh walk and evaluates psi on each probe.  The
model checks evaluate each grid of one tuple length with one value table; the
reference walks the grid one ``model_eval`` at a time.  ``verify_section6``
feeds the closed forms' integer cores the grid's numerators; the reference
calls the public closed forms on the grid's ``Fraction`` tuples.

Sets and blocks the library derives from valid ones skip the checks of the
public constructors; each must be what those constructors rebuild from it.
Associated fronts read the ground set by index; the reference walks it.
"""

from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blockosc.barriers import (
    Associated,
    Cube,
    Quotient,
    Restrict,
    Schreier,
    Sum,
    _front,
    contains,
    enumerate_up_to,
    front,
)
from blockosc.blocks import Block, BlockFamily, enumerate_blocks, from_concat
from blockosc.closedform import model_value_8, model_value_228
from blockosc.errors import (
    InvalidArgumentError,
    NoFrontFoundError,
    NotInSumError,
    NotStabilizedError,
)
from blockosc.models import (
    BarrierSequenceDescriptor,
    ConsistencyReport,
    ConsistencyViolation,
    Section6Check,
    SpreadingReport,
    SpreadingWitness,
    _probe_blocks,
    consistency_check,
    default_tail_offset,
    eights_sequence,
    equivalence_constants,
    model_eval,
    spreading_check,
    two_two_eights_sequence,
    verify_section6,
)
from blockosc.normspace import (
    SupFamily,
    even_pair_fixture,
    mn_norm_spec,
    nonneg_grid,
    section6_spec,
)
from blockosc.oscillation import psi_eval
from blockosc.sets import (
    Arithmetic,
    CofiniteAfter,
    FiniteSet,
    PrefixThen,
    evens,
    naturals,
    odds,
    probe_equal,
)


# ---------------------------------------------------------------------------
# Reference membership and fronts: every prefix tested, nothing skipped


def ref_relabel(base, positions: FiniteSet) -> FiniteSet:
    """The elements of the base ground set at the given positions, found by
    walking the ground set once, in order."""
    ground, out, at = iter(base.ground()), [], 0
    for i in positions:
        out.append(next(islice(ground, i - at - 1, None)))
        at = i
    return FiniteSet(out)


def ref_contains(b, s: FiniteSet) -> bool:
    if s.is_empty():
        return False
    if isinstance(b, Sum):
        pieces, rest = ref_peel(b.parts, s)
        return len(pieces) == len(b.parts) and rest.is_empty()
    if isinstance(b, Restrict):
        return all(b.to.contains(x) for x in s) and ref_contains(b.base, s)
    if isinstance(b, Quotient):
        return b.s.max < s.min and ref_contains(b.base, FiniteSet(b.s.elements + s.elements))
    if isinstance(b, Associated):
        return ref_contains(b.base, ref_relabel(b.base, s))
    if isinstance(b, Cube):
        return len(s) == b.k
    assert isinstance(b, Schreier)
    return len(s) == s.min


def ref_front_along_finite(b, s: FiniteSet):
    for n in range(1, len(s) + 1):
        if ref_contains(b, FiniteSet(s.elements[:n])):
            return FiniteSet(s.elements[:n])
    return None


def ref_peel(parts, s: FiniteSet):
    """The front of each part peeled off s in turn, and what is left."""
    pieces, rest = [], s
    for part in parts:
        piece = ref_front_along_finite(part, rest)
        if piece is None:
            break
        pieces.append(piece)
        rest = rest.suffix_after(piece.max)
    return tuple(pieces), rest


def ref_front(b, m, fuel):
    drawn = []
    it = iter(m)
    for _ in range(fuel):
        drawn.append(next(it))
        if ref_contains(b, FiniteSet(drawn)):
            return FiniteSet(drawn)
    raise NoFrontFoundError(fuel)


def outcome(f, *args):
    """The set found, or the fuel of the NoFrontFoundError raised."""
    try:
        return ("front", f(*args))
    except NoFrontFoundError as exc:
        return ("no-front", exc.fuel)


# ---------------------------------------------------------------------------
# Strategies: descriptors over the naturals, and generators with their tails


def generators():
    base = st.one_of(
        st.just(naturals()),
        st.just(evens()),
        st.just(odds()),
        st.builds(Arithmetic, st.integers(1, 12), st.integers(1, 5)),
    )
    prefixed = st.builds(
        lambda g, xs: PrefixThen(FiniteSet(xs), g.after(max(xs))),
        base,
        st.sets(st.integers(1, 15), min_size=1, max_size=5),
    )
    gen = st.one_of(base, prefixed)
    return st.one_of(gen, st.builds(lambda g, n: g.after(n), gen, st.integers(0, 20)))


def _leaf():
    return st.one_of(st.builds(Cube, st.integers(1, 5)), st.just(Schreier()))


def _or_base(make, base, *args):
    """``make(base, *args)``, or ``base`` when it rejects that combination."""
    try:
        return make(base, *args)
    except InvalidArgumentError:
        return base


def _quotient(base, positions):
    """The quotient of ``base`` by the ground elements at ``positions``; a
    stem that is or extends a member is rejected, and the base kept."""
    ground = base.ground().first(max(positions))
    return _or_base(Quotient, base, FiniteSet(ground[i - 1] for i in positions))


def _sum(parts):
    """The sum of the parts that share the first part's ground set."""
    return Sum(tuple(p for p in parts if probe_equal(p.ground(), parts[0].ground())))


def _nested(children):
    targets = st.sampled_from([evens(), odds(), Arithmetic(3, 3), Arithmetic(4, 4),
                               CofiniteAfter(2)])
    return st.one_of(
        st.builds(lambda b, to: _or_base(Restrict, b, to), children, targets),
        st.builds(_quotient, children, st.sets(st.integers(1, 6), min_size=1, max_size=3)),
        st.builds(_sum, st.lists(children, min_size=1, max_size=3)),
        st.builds(Associated, children),
    )


def descriptors():
    """Leaves nested in restrictions, quotients, sums and associations, at
    most four leaves to a descriptor: ``Restrict(Sum)``, ``Associated(Quotient)``,
    sums of quotients and so on."""
    return st.one_of(st.recursive(_leaf(), _nested, max_leaves=4), shared_ground_sums())


def _grows(leaf, stem: FiniteSet) -> bool:
    """Whether some member of the leaf strictly extends the stem."""
    return len(stem) < (leaf.k if isinstance(leaf, Cube) else stem.min)


@st.composite
def shared_ground_sums(draw):
    """Sums over one ground set G whose parts have no size rule, so that
    peeling them walks a base: leaves and associated leaves
    restricted to G, quotients whose stem ends just below G = (m, oo), and
    associated restrictions when G is the naturals."""
    m = draw(st.integers(0, 4))
    g = draw(st.sampled_from([CofiniteAfter(m), evens(), odds()]))
    parts = [st.builds(Restrict, _leaf(), st.just(g)),
             st.builds(lambda b: Restrict(Associated(b), g), _leaf())]
    if g == naturals():
        parts.append(st.builds(lambda b, h: Associated(Restrict(b, h)), _leaf(),
                               st.sampled_from([evens(), odds()])))
    elif isinstance(g, CofiniteAfter):
        stems = st.sets(st.integers(1, m), max_size=2).map(lambda xs: FiniteSet(xs | {m}))
        parts.append(st.builds(lambda b, stem: Quotient(b, stem) if _grows(b, stem)
                               else Restrict(b, g), _leaf(), stems))
    return Sum(tuple(draw(st.lists(st.one_of(parts), min_size=1, max_size=3))))


# ---------------------------------------------------------------------------
# Fronts


@settings(max_examples=300, deadline=None)
@given(b=descriptors(), g=generators(), fuel=st.integers(1, 40))
def test_front_matches_prefix_scan(b, g, fuel):
    assert outcome(front, b, g, fuel) == outcome(ref_front, b, g, fuel)


def assert_peel_matches(b, s):
    """``from_concat`` gives the reference's pieces, or fails where it does."""
    pieces, rest = ref_peel(b.parts, s)
    try:
        assert from_concat(BlockFamily(b.parts), s) == Block(pieces)
        assert len(pieces) == len(b.parts) and rest.is_empty()
    except NotInSumError as exc:
        assert (exc.consumed, exc.leftover) == (pieces, rest)


@settings(max_examples=300, deadline=None)
@given(b=descriptors(), g=generators(), n=st.integers(0, 30))
def test_front_along_finite_matches_prefix_scan(b, g, n):
    s = FiniteSet(g.first(n))
    ref = ref_front_along_finite(b, s)
    assert _front(b, iter(s.elements), len(s)) == (None if ref is None else ref.elements)
    assert contains(b, s) == ref_contains(b, s)
    if isinstance(b, Sum):
        assert_peel_matches(b, s)


@settings(max_examples=300, deadline=None)
@given(b=shared_ground_sums(), start=st.integers(0, 8), edit=st.integers(-2, 2),
       n=st.integers(0, 30))
def test_sum_peel_matches_prefix_scan(b, start, edit, n):
    g, near = b.ground().after(start), ()
    for part in b.parts:  # a member of the sum, then a neighbour of it
        near += ref_front(part, g.after(near[-1] if near else 0), 10**4).elements
    near = near[:edit] if edit < 0 else near + g.after(near[-1]).first(edit)
    for s in (FiniteSet(near), FiniteSet(g.first(n))):
        assert contains(b, s) == ref_contains(b, s)
        assert_peel_matches(b, s)


@pytest.mark.parametrize("b, g, fuel", [
    (Cube(5), naturals(), 4),  # size rule longer than the fuel
    (Cube(5), naturals(), 5),
    (Schreier(), naturals().after(9), 9),  # front of 10 elements
    (Schreier(), naturals().after(9), 10),
    (Schreier(), PrefixThen(FiniteSet((30,)), naturals().after(30)), 29),
    (Restrict(Cube(2), evens()), odds(), 50),  # never lands
    (Quotient(Cube(3), FiniteSet((2,))), naturals(), 7),  # starts below the stem
])
def test_fuel_edges_match_prefix_scan(b, g, fuel):
    assert outcome(front, b, g, fuel) == outcome(ref_front, b, g, fuel)


def test_restricted_miss_stops_at_the_first_element_outside():
    # the first odd leaves the evens, so no initial segment can land; the
    # search must say so after that one draw, not scan the whole fuel
    drawn = []

    def counted():
        for x in odds():
            drawn.append(x)
            yield x

    with pytest.raises(NoFrontFoundError) as exc:
        front(Restrict(Cube(2), evens()), counted(), 10**6)
    assert exc.value.fuel == 10**6
    assert len(drawn) <= 1


# ---------------------------------------------------------------------------
# model_eval against per-probe psi on reference probes


def ref_block(seq, k, above, fuel=10**6):
    parts = []
    last = above
    for i in range(k):
        b = seq.barrier_at(i)
        s = ref_front(b, b.ground().after(last), fuel)
        parts.append(s)
        last = s.max
    return Block(parts)


def ref_model(spec, seq, coeffs, tail_offset=None, probe_count=3, tolerance=0):
    k = len(coeffs)
    if tail_offset is None:
        tail_offset = ref_block(seq, k, 0).max + 8
    blocks = []
    last = tail_offset - 1
    for _ in range(probe_count):
        blk = ref_block(seq, k, last)
        blocks.append(blk)
        last = blk.max
    vals = [psi_eval(spec, b, coeffs) for b in blocks]
    stabilized = max(vals) - min(vals) <= tolerance
    value = vals[0] if stabilized else sum(vals) / len(vals)
    return value, stabilized, tuple(zip(blocks, vals)), tail_offset


def as_tuple(mv):
    return mv.value, mv.stabilized, mv.probes, mv.tail_offset


SCHREIER_TAIL = BarrierSequenceDescriptor((Cube(1),), Schreier())
SEQUENCES = [eights_sequence(), two_two_eights_sequence(), SCHREIER_TAIL,
             BarrierSequenceDescriptor((Cube(3),), Cube(2))]


def test_schreier_tail_probes_differ_in_part_sizes():
    # from offset 1 the Schreier parts have 2, 5 and 11 elements, sizes the
    # 8-set term tells apart, so the probe values differ as well as the profiles
    mv = model_eval(section6_spec(), SCHREIER_TAIL, (1, 1), tail_offset=1)
    assert [tuple(len(p) for p in b) for b, _ in mv.probes] == [(1, 2), (1, 5), (1, 11)]
    assert len({v for _, v in mv.probes}) == 3
    assert not mv.stabilized


@pytest.mark.parametrize("spec", [section6_spec(), mn_norm_spec(3, 5), SupFamily(()),
                                  even_pair_fixture()],
                         ids=["section6", "mn-3-5", "sup", "even-pair"])
@pytest.mark.parametrize("seq", SEQUENCES, ids=["eights", "228", "schreier", "3-then-2"])
def test_model_eval_matches_per_probe_psi(spec, seq):
    for coeffs in [(1,), (1, 1), (F(1, 2), 1), (0, 0, 1), (1, F(3, 4), F(1, 4))]:
        if seq is SCHREIER_TAIL and len(coeffs) > 2:
            continue  # Schreier parts double in size each step
        for probes in (1, 3):
            got = model_eval(spec, seq, coeffs, probe_count=probes)
            assert as_tuple(got) == ref_model(spec, seq, coeffs, probe_count=probes)
    for offset in (1, 40):
        got = model_eval(spec, seq, (1, F(1, 2)), tail_offset=offset, probe_count=3,
                         tolerance=F(1, 8))
        assert as_tuple(got) == ref_model(spec, seq, (1, F(1, 2)), tail_offset=offset,
                                          probe_count=3, tolerance=F(1, 8))


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 5), dn=st.integers(1, 6),
       coeffs=st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=6),
                       min_size=1, max_size=3),
       seq_i=st.integers(0, 1), probes=st.integers(1, 4))
def test_model_eval_matches_per_probe_psi_seeded(m, dn, coeffs, seq_i, probes):
    spec = mn_norm_spec(m, m + dn)
    seq = SEQUENCES[seq_i]
    got = model_eval(spec, seq, coeffs, probe_count=probes)
    assert as_tuple(got) == ref_model(spec, seq, coeffs, probe_count=probes)


def probes_fit(seq, k, tail_offset, probe_count, fuel=30):
    """Whether the reference finds every part of the default block and of the
    probes within ``fuel`` draws; Schreier parts grow with where they start."""
    try:
        first = ref_block(seq, k, 0, fuel)
        last = (first.max + 8 if tail_offset is None else tail_offset) - 1
        for _ in range(probe_count):
            last = ref_block(seq, k, last, fuel).max
    except NoFrontFoundError:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(d=descriptors(), prefix=st.integers(0, 2), k=st.integers(1, 3),
       tail_offset=st.none() | st.integers(1, 30), probes=st.integers(1, 4),
       spec=st.sampled_from([section6_spec(), SupFamily(()), even_pair_fixture()]),
       data=st.data())
def test_model_eval_matches_per_probe_psi_drawn(d, prefix, k, tail_offset, probes, spec, data):
    # every prefix shares d's ground, so the probes walk one ground set
    seq = BarrierSequenceDescriptor(((), (d,), (Restrict(Cube(1), d.ground()),))[prefix], d)
    assume(probes_fit(seq, k, tail_offset, probes))
    coeffs = data.draw(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=4),
                                min_size=k, max_size=k))
    assert default_tail_offset(seq, k) == ref_block(seq, k, 0).max + 8
    got = model_eval(spec, seq, coeffs, tail_offset=tail_offset, probe_count=probes)
    assert as_tuple(got) == ref_model(spec, seq, coeffs, tail_offset=tail_offset,
                                      probe_count=probes)


# ---------------------------------------------------------------------------
# The batched model checks against per-tuple model_eval


def ref_stable_value(spec, seq, coeffs):
    mv = model_eval(spec, seq, coeffs)
    if not mv.stabilized:
        raise NotStabilizedError(f"model value at {coeffs} did not stabilize: "
                                 + ", ".join(str(v) for _, v in mv.probes))
    return mv.value


def ref_consistency(spec, seq, k_max, grid_q):
    checked, bad = 0, []
    for k in range(1, k_max):
        for a in nonneg_grid(k, grid_q):
            base = ref_stable_value(spec, seq, a)
            padded = ref_stable_value(spec, seq, a + (F(0),))
            checked += 1
            if padded != base:
                bad.append(ConsistencyViolation(k, a, padded, base))
    return ConsistencyReport(checked, tuple(bad))


def ref_spreading(spec, seq, k, placements, grid_q):
    grid = nonneg_grid(k, grid_q)
    identity = {a: ref_stable_value(spec, seq, a) for a in grid}
    checked, worst, worst_size = 0, None, F(0)
    for s in placements:
        for a in grid:
            padded = [0] * s.max
            for pos, c in zip(s.elements, a):
                padded[pos - 1] = c
            val = ref_stable_value(spec, seq, padded)
            checked += 1
            if abs(identity[a] - val) > worst_size:
                worst_size = abs(identity[a] - val)
                worst = SpreadingWitness(s, a, identity[a], val)
    return SpreadingReport(worst is None, worst, checked)


def ref_equivalence(spec, seq1, seq2, k_max, grid_q):
    ratios = []
    for k in range(1, k_max + 1):
        for a in nonneg_grid(k, grid_q):
            if any(a):
                v1 = ref_stable_value(spec, seq1, a)
                v2 = ref_stable_value(spec, seq2, a)
                if v1 == 0:
                    raise NotStabilizedError(f"first model vanishes at nonzero tuple {a}")
                ratios.append(v2 / v1)
    return min(ratios), max(ratios)


def report_or_error(check, *args):
    try:
        return check(*args)
    except NotStabilizedError as exc:
        return "NotStabilizedError", str(exc)


# Under the even-pair fixture, a one-element prefix then pairs never
# stabilizes at (1/4, 1/4); a one-element prefix then triples first fails
# at a padded tuple, (1/2, 1/2, 0) in the consistency check.
UNSTABLE = BarrierSequenceDescriptor((Cube(1),), Cube(2))
UNSTABLE_PADDED = BarrierSequenceDescriptor((Cube(1),), Cube(3))
PLACEMENTS = [FiniteSet((3, 4)), FiniteSet((1, 5)), FiniteSet((2, 3)), FiniteSet((2, 9))]
CHECKED = [(section6_spec(), eights_sequence()), (section6_spec(), two_two_eights_sequence()),
           (even_pair_fixture(), eights_sequence()),
           (even_pair_fixture(), two_two_eights_sequence()), (even_pair_fixture(), UNSTABLE),
           (even_pair_fixture(), UNSTABLE_PADDED)]


@pytest.mark.parametrize("spec,seq", CHECKED,
                         ids=["section6-eights", "section6-228", "even-pair-eights",
                              "even-pair-228", "even-pair-unstable", "even-pair-unstable-padded"])
@pytest.mark.parametrize("grid_q", [2, 4])
def test_batched_checks_match_per_tuple_model_eval(spec, seq, grid_q):
    for k_max in (2, 3):
        assert (report_or_error(consistency_check, spec, seq, k_max, grid_q)
                == report_or_error(ref_consistency, spec, seq, k_max, grid_q))
    for k in (1, 2):
        placements = [p for p in PLACEMENTS if len(p) == k] or [FiniteSet((4,)), FiniteSet((2,))]
        assert (report_or_error(spreading_check, spec, seq, k, placements, grid_q)
                == report_or_error(ref_spreading, spec, seq, k, placements, grid_q))
    for seq1, seq2 in ((eights_sequence(), seq), (seq, eights_sequence())):
        assert (report_or_error(equivalence_constants, spec, seq1, seq2, 2, grid_q)
                == report_or_error(ref_equivalence, spec, seq1, seq2, 2, grid_q))


def test_spreading_error_names_a_placed_zero_as_a_fraction():
    # The first padded tuple whose probes disagree has a zero at a placed slot:
    # the message shows it as Fraction(0, 1), and an unplaced slot as 0.
    spec, seq = even_pair_fixture(), BarrierSequenceDescriptor((Cube(2),), Cube(1))
    placements = [FiniteSet((1, 2, 4))]
    got = report_or_error(spreading_check, spec, seq, 3, placements, 1)
    assert got == report_or_error(ref_spreading, spec, seq, 3, placements, 1)
    assert got == ("NotStabilizedError", "model value at [Fraction(0, 1), Fraction(1, 1), 0, "
                   "Fraction(1, 1)] did not stabilize: 1, 3/2, 1")


def ref_verify_closed_forms(spec, k_max, grid_q):
    checks = []
    for name, seq, formula, what in (
        ("eights-model-closed-form", eights_sequence(), model_value_8, "max of coefficients"),
        ("two-two-eights-closed-form", two_two_eights_sequence(), model_value_228,
         "piecewise formula"),
    ):
        first = ""
        for k in range(1, k_max + 1):
            for a in nonneg_grid(k, grid_q):
                got, want = ref_stable_value(spec, seq, a), formula(a)
                if got != want and not first:
                    first = f"a={a}: {got} != {want}"
        checks.append(Section6Check(name, not first,
                                    first or f"{what} on all grid tuples, k <= {k_max}"))
    return tuple(checks)


def closed_form_checks(spec, k_max, grid_q):
    return verify_section6(spec, k_max, grid_q).checks[:2]


# Under mn(3, 9) a 9-set term straddles two 8-blocks, so the eights closed form fails too.
@pytest.mark.parametrize("spec", [section6_spec(), even_pair_fixture(), mn_norm_spec(3, 9)],
                         ids=["section6", "even-pair", "mn-3-9"])
@pytest.mark.parametrize("k_max, grid_q", [(1, 1), (2, 3), (3, 2), (3, 3)])
def test_closed_form_checks_match_fraction_loop(spec, k_max, grid_q):
    assert (report_or_error(closed_form_checks, spec, k_max, grid_q)
            == report_or_error(ref_verify_closed_forms, spec, k_max, grid_q))


@settings(max_examples=30, deadline=None)
@given(m=st.integers(2, 5), dn=st.integers(1, 6), k_max=st.integers(1, 3),
       grid_q=st.integers(1, 3))
def test_closed_form_checks_match_fraction_loop_drawn(m, dn, k_max, grid_q):
    spec = mn_norm_spec(m, m + dn)
    assert (report_or_error(closed_form_checks, spec, k_max, grid_q)
            == report_or_error(ref_verify_closed_forms, spec, k_max, grid_q))


# ---------------------------------------------------------------------------
# Indexed access to generators, and Associated fronts far out


@settings(max_examples=200, deadline=None)
@given(g=generators(), i=st.integers(1, 60))
def test_nth_is_the_ith_element_of_the_walk(g, i):
    assert g.nth(i) == g.first(i)[-1]


FAR_GROUNDS = [naturals(), evens(), PrefixThen(FiniteSet((2, 3)), Arithmetic(7, 3))]


@pytest.mark.parametrize("ground", FAR_GROUNDS, ids=["naturals", "evens", "prefix-then"])
@pytest.mark.parametrize("at", [10**3, 10**5, 10**7])
def test_associated_far_out_matches_prefix_scan(ground, at):
    b = Associated(Restrict(Cube(2), ground))
    g = CofiniteAfter(at)
    assert outcome(front, b, g, 3) == outcome(ref_front, b, g, 3)
    for s in (FiniteSet((at, at + 1)), FiniteSet((at,)), FiniteSet((1, at, at + 5))):
        assert contains(b, s) == ref_contains(b, s)


@pytest.mark.parametrize("ground", FAR_GROUNDS, ids=["naturals", "evens", "prefix-then"])
def test_associated_fronts_read_the_ground_by_index(ground, monkeypatch):
    # walking a ground set to position 10**7 would raise here
    b, far = Associated(Restrict(Cube(2), ground)), (10**7, 10**7 + 1, 10**7 + 2)
    sums = Sum((b, Associated(Cube(1))))
    for cls in (CofiniteAfter, Arithmetic, PrefixThen):
        monkeypatch.setattr(cls, "__iter__", lambda self: pytest.fail("walked the ground"))
    assert _front(b, iter(far), 3) == far[:2]
    assert contains(b, FiniteSet(far[:2])) and not contains(b, FiniteSet(far))
    assert _front(sums, iter(far), 3) == far


# ---------------------------------------------------------------------------
# Trusted construction: what the library derives is what the checks rebuild


def check_rebuilt(x):
    """Fail unless ``x`` equals, hashes and prints as its rebuild through the
    validated constructor, from a tuple of strictly increasing positive ints
    (for a block, a tuple of such sets, stacked).  It fails by raising, not by
    assert, so it checks under ``python -O`` as well."""
    if isinstance(x, Block):
        for p in x.parts:
            check_rebuilt(p)
        raw, rebuilt = x.parts, Block(list(x.parts))
        ok = raw == rebuilt.parts
    else:
        raw, rebuilt = x.elements, FiniteSet(list(x.elements))
        ok = raw == rebuilt.elements and all(type(e) is int for e in raw)
    if not (ok and type(raw) is tuple and x == rebuilt and hash(x) == hash(rebuilt)
            and repr(x) == repr(rebuilt)):
        pytest.fail(f"{x!r} is not its validated rebuild {rebuilt!r}")


@settings(max_examples=200, deadline=None)
@given(b=descriptors(), g=generators(), n=st.integers(0, 10), cut=st.integers(0, 12))
def test_derived_sets_match_validated_rebuild(b, g, n, cut):
    for m in enumerate_up_to(b, n):
        check_rebuilt(m)
    try:
        check_rebuilt(front(b, g, 40))
    except NoFrontFoundError:
        pass
    s = FiniteSet(g.first(n))
    check_rebuilt(s.suffix_after(cut))
    if isinstance(b, Sum):
        fam = BlockFamily(b.parts)
        for blk in enumerate_blocks(fam, n):
            check_rebuilt(blk)
            check_rebuilt(blk.union())
            check_rebuilt(from_concat(fam, blk.union()))
        try:
            check_rebuilt(from_concat(fam, s))
        except NotInSumError as exc:
            for piece in exc.consumed:
                check_rebuilt(piece)
            check_rebuilt(exc.leftover)


@settings(max_examples=80, deadline=None)
@given(d=descriptors(), k=st.integers(1, 3), tail_offset=st.integers(1, 30),
       probes=st.integers(1, 4))
def test_probe_blocks_match_validated_rebuild(d, k, tail_offset, probes):
    seq = BarrierSequenceDescriptor((), d)
    assume(probes_fit(seq, k, tail_offset, probes))
    for blk in _probe_blocks(seq, k, tail_offset, probes):
        check_rebuilt(blk)


def test_contains_builds_no_set(monkeypatch):
    s, built = FiniteSet((1, 2, 3)), []
    init, trusted = FiniteSet.__init__, FiniteSet._trusted

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    def counted_trusted(elems):
        built.append(elems)
        return trusted(elems)

    monkeypatch.setattr(FiniteSet, "__init__", counted_init)
    monkeypatch.setattr(FiniteSet, "_trusted", counted_trusted)
    assert contains(Cube(3), s) and not contains(Cube(2), s)
    assert built == []
