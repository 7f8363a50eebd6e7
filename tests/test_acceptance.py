"""Acceptance gate: eleven numbered desk-scale checks, one test each.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion.  Every expected value is exact; timed criteria assert their wall
clock budget.  Checks 2's literal universe ({1..40}, all blocks) is beyond
desk scale for the 8-set shapes, so it runs window-exhaustive scans where the
block counts allow and seeded random placements drawn from the full window
everywhere else; the closed forms take coefficients only, so every placement
comparison also re-verifies that block values depend on part sizes alone.
"""

import itertools
import random
import time
from fractions import Fraction as F

from blockosc.barriers import (
    Associated,
    Cube,
    Quotient,
    Restrict,
    Schreier,
    Sum,
    empirical_rank,
    enumerate_up_to,
    rank,
    sperner_violations,
)
from blockosc.blocks import Block, BlockFamily, enumerate_blocks, from_concat
from blockosc.closedform import (
    model_value_8,
    model_value_228,
    pair_pair_eight_block_value,
    two_pair_block_value,
)
from blockosc.models import (
    eights_sequence,
    equivalence_constants,
    model_eval,
    spreading_check,
    two_two_eights_sequence,
)
from blockosc.normspace import (
    SupFamily,
    SupTerm,
    Vector,
    degenerate_limit_demo,
    even_pair_fixture,
    nonneg_grid,
    norm_eval,
    section6_spec,
)
from blockosc.oscillation import find_stable_subsequence, oscillation_gap, psi_eval
from blockosc.ramsey import Coloring, find_monochromatic
from blockosc.sets import Arithmetic, FiniteSet

SPEC = section6_spec()


def _random_vector(rng: random.Random, max_support: int = 12) -> Vector:
    size = rng.randint(1, max_support)
    support = rng.sample(range(1, 31), size)
    return Vector({i: F(rng.randint(-36, 36), rng.randint(1, 12))
                   for i in support})


def _stacked(*sizes: int, start: int = 1, gap: int = 0) -> Block:
    parts, lo = [], start
    for sz in sizes:
        parts.append(FiniteSet(range(lo, lo + sz)))
        lo += sz + gap
    return Block(tuple(parts))


def _random_block(rng: random.Random, sizes: tuple[int, ...], bound: int) -> Block:
    need = sum(sizes)
    picks = sorted(rng.sample(range(1, bound + 1), need))
    parts, at = [], 0
    for sz in sizes:
        parts.append(FiniteSet(picks[at:at + sz]))
        at += sz
    return Block(tuple(parts))


def test_01_norm_matches_bruteforce_sup_oracle():
    # independent oracle: exhaust singleton/2-subset/8-subset index choices
    # in integer arithmetic after clearing denominators
    rng = random.Random(601)
    vectors = [_random_vector(rng) for _ in range(200)]
    start = time.monotonic()
    for v in vectors:
        denom = 1
        for c in v.entries.values():
            denom = denom * c.denominator // __import__("math").gcd(
                denom, c.denominator)
        scaled = {i: abs(int(c * denom)) for i, c in v.entries.items()}
        support = sorted(scaled)
        best = F(max(scaled.values(), default=0), denom)
        for m, w in ((2, F(3, 4)), (8, F(9, 16))):
            take = min(m, len(support))
            top = max((sum(scaled[i] for i in combo)
                       for combo in itertools.combinations(support, take)),
                      default=0)
            best = max(best, w * F(top, denom))
        assert norm_eval(SPEC, v) == best
    assert time.monotonic() - start < 1.0


def test_02_closed_form_block_norms_match_direct_evaluation():
    start = time.monotonic()
    rng = random.Random(602)

    fam22 = BlockFamily((Cube(2), Cube(2)))
    grid2 = nonneg_grid(2, 4)
    for b in enumerate_blocks(fam22, 20):
        for a in grid2:
            assert psi_eval(SPEC, b, a) == two_pair_block_value(*a)
    for _ in range(200):
        b = _random_block(rng, (2, 2), 40)
        for a in grid2:
            assert psi_eval(SPEC, b, a) == two_pair_block_value(*a)

    grid1 = nonneg_grid(1, 4)
    for b in enumerate_blocks(BlockFamily((Cube(8),)), 14):
        for a in grid1:
            assert psi_eval(SPEC, b, a) == model_value_8(a)
    for b in enumerate_blocks(BlockFamily((Cube(8), Cube(8))), 17):
        for a in grid2:
            assert psi_eval(SPEC, b, a) == model_value_8(a)
    for _ in range(200):
        b = _random_block(rng, (8,) * rng.randint(1, 3), 40)
        for a in nonneg_grid(len(b.parts), 2):
            assert psi_eval(SPEC, b, a) == model_value_8(a)

    for k, samples in ((3, 70), (4, 70), (5, 60)):
        sizes = (2, 2) + (8,) * (k - 2)
        grid = nonneg_grid(k, 4)
        for n in range(samples):
            b = (_stacked(*sizes) if n == 0
                 else _random_block(rng, sizes, 40))
            for a in grid:
                got = psi_eval(SPEC, b, a)
                assert got == model_value_228(a)
                if k == 3:
                    assert got == pair_pair_eight_block_value(*a)
    assert time.monotonic() - start < 60.0


def test_03_named_model_values_and_flat_tail_model():
    seq228 = two_two_eights_sequence()
    assert model_eval(SPEC, seq228, (F(1), F(1))).value == F(3, 2)
    assert model_eval(SPEC, seq228, (F(0), F(0), F(1), F(1))).value == F(1)
    seq8 = eights_sequence()
    for k in range(1, 7):
        for a in nonneg_grid(k, 4):
            mv = model_eval(SPEC, seq8, a)
            assert mv.stabilized
            assert mv.value == max(a)


def test_04_sandwich_bounds_with_sharp_ratio():
    seq8, seq228 = eights_sequence(), two_two_eights_sequence()
    lo, hi = equivalence_constants(SPEC, seq8, seq228, 6, 4)
    assert lo == F(1) and hi == F(2)
    ones = (F(1), F(1), F(1))
    v8 = model_eval(SPEC, seq8, ones).value
    v228 = model_eval(SPEC, seq228, ones).value
    assert v228 == 2 * v8 == F(2)


def test_05_spreading_dichotomy():
    seq8 = eights_sequence()
    for k in range(1, 5):
        placements = [FiniteSet(c)
                      for c in itertools.combinations(range(1, 11), k)]
        rep = spreading_check(SPEC, seq8, k, placements)
        assert rep.holds and rep.witness is None
        assert rep.checked == len(placements) * len(nonneg_grid(k, 4))

    placements = [FiniteSet(c) for c in itertools.combinations(range(1, 11), 2)]
    rep = spreading_check(SPEC, two_two_eights_sequence(), 2, placements)
    assert not rep.holds
    assert rep.witness.placement == FiniteSet((3, 4))
    assert rep.witness.identity_value == F(3, 2)
    assert rep.witness.placed_value == F(1)


def test_06_rank_classifier():
    for k in range(1, 7):
        structural = rank(Cube(k))
        assert structural.exponent == k
        assert structural.confirmed and structural.method == "structural"
        probed = empirical_rank(Cube(k), 2 * k + 4)
        assert probed.exponent == k
        assert probed.method == "empirical"
    assert rank(Schreier()).exponent is None
    s = rank(Sum((Cube(2), Cube(3))))
    assert s.exponent == 5 and s.confirmed


def test_07_concat_bijection_round_trip():
    fams = (
        BlockFamily((Cube(1), Cube(1), Cube(1))),
        BlockFamily((Cube(2), Cube(3))),
        BlockFamily((Cube(2), Cube(8))),
        BlockFamily((Schreier(), Cube(1))),
    )
    for fam in fams:
        blocks = enumerate_blocks(fam, 20)
        assert blocks
        images = set()
        for b in blocks:
            s = b.union()
            assert from_concat(fam, s) == b
            images.add(s)
        assert len(images) == len(blocks)


def test_08_two_coloring_completeness():
    universe = FiniteSet(range(1, 7))
    pairs = [FiniteSet(p) for p in itertools.combinations(range(1, 7), 2)]
    bit = {p: i for i, p in enumerate(pairs)}
    triangles = [[bit[FiniteSet(c)] for c in itertools.combinations(tri, 2)]
                 for tri in itertools.combinations(range(1, 7), 3)]
    start = time.monotonic()
    for mask in range(1 << 15):
        table = {p: ("red" if mask >> i & 1 else "blue")
                 for i, p in enumerate(pairs)}
        res = find_monochromatic(Cube(2), Coloring.from_table(table),
                                 universe, 3)
        oracle_hit = any(
            all(mask >> b & 1 for b in tri) or all(not (mask >> b & 1)
                                                   for b in tri)
            for tri in triangles)
        assert res.found and oracle_hit
        w = res.witness
        assert len(w.subset) >= 3
        colors = {table[FiniteSet(p)]
                  for p in itertools.combinations(w.subset.elements, 2)}
        assert colors == {w.color}
    assert time.monotonic() - start < 60.0


def test_09_stable_subsequence_with_oracle():
    spec = even_pair_fixture()
    fam = BlockFamily((Cube(1), Cube(1)))
    universe = FiniteSet(range(1, 11))
    eps = F(1, 4)

    res = find_stable_subsequence(spec, fam, eps, universe, 5)
    assert res.found and res.subset == FiniteSet((1, 3, 5, 7, 9))

    # oracle: same published policy (largest size first, lexicographic,
    # nonnegative grid at q=8 plus sign corners), rebuilt from scratch
    corners = [tuple(F(x) for x in p) for p in itertools.product((-1, 0, 1),
                                                                 repeat=2)]
    tuples = corners + [t for t in nonneg_grid(2, 8) if t not in set(corners)]

    def stable(elems):
        blocks = [Block((FiniteSet((i,)), FiniteSet((j,))))
                  for i, j in itertools.combinations(elems, 2)]
        for s, t in itertools.combinations(blocks, 2):
            for a in tuples:
                if abs(psi_eval(spec, s, a) - psi_eval(spec, t, a)) >= eps:
                    return False
        return True

    found = None
    for size in range(10, 4, -1):
        for elems in itertools.combinations(range(1, 11), size):
            if stable(elems):
                found = FiniteSet(elems)
                break
        if found:
            break
    assert found == res.subset == FiniteSet((1, 3, 5, 7, 9))


def test_10_norm_sequence_collapse_demo():
    rep = degenerate_limit_demo(64, 8)
    assert len(rep.value_at_ones) == 64
    for n, value in rep.value_at_ones:
        assert value == F(1, n)
    assert rep.limit_at_ones == F(0)
    assert rep.limit_at_e1 == F(1)
    chk = rep.limit_axioms
    assert not chk.positive
    assert (chk.nonnegative and chk.normalized and chk.homogeneous
            and chk.triangle)
    assert rep.collapses_exactly_at_positivity


def test_11_property_suites():
    # five suites, >= 500 seeded cases each

    # 1. norm axioms on random vectors
    rng = random.Random(1101)
    specs = (SPEC, even_pair_fixture(),
             SupFamily((SupTerm(F(2, 3), 3), SupTerm(F(5, 9), 5))))
    for _ in range(500):
        spec = rng.choice(specs)
        u, v = _random_vector(rng, 6), _random_vector(rng, 6)
        c = F(rng.randint(-8, 8), rng.randint(1, 8))
        assert norm_eval(spec, u) >= 0
        assert (norm_eval(spec, u) == 0) == (u == Vector())
        scaled = Vector({i: c * x for i, x in u.entries.items()})
        added = Vector({i: u.entries.get(i, 0) + v.entries.get(i, 0)
                        for i in {*u.entries, *v.entries}})
        assert norm_eval(spec, scaled) == abs(c) * norm_eval(spec, u)
        assert norm_eval(spec, added) <= norm_eval(spec, u) + norm_eval(spec, v)

    # 2. unconditional / permutation / spreading invariance
    rng = random.Random(1102)
    for _ in range(500):
        u = _random_vector(rng, 6)
        base = norm_eval(SPEC, u)
        support = sorted(u.entries)
        values = [u.entries[i] for i in support]
        flipped = {i: c * rng.choice((-1, 1)) for i, c in u.entries.items()}
        assert norm_eval(SPEC, Vector(flipped)) == base
        shuffled = values[:]
        rng.shuffle(shuffled)
        assert norm_eval(SPEC, Vector(dict(zip(support, shuffled)))) == base
        relocated = sorted(rng.sample(range(1, 61), len(support)))
        assert norm_eval(SPEC, Vector(dict(zip(relocated, values)))) == base

    # 3. Sperner checks over a randomized descriptor zoo
    rng = random.Random(1103)
    for _ in range(500):
        roll = rng.randrange(6)
        if roll == 0:
            b = Cube(rng.randint(1, 4))
        elif roll == 1:
            b = Schreier()
        elif roll == 2:
            b = Restrict(Cube(rng.randint(1, 3)),
                         Arithmetic(rng.randint(1, 3), rng.randint(1, 3)))
        elif roll == 3:
            k = rng.randint(2, 4)
            stem = FiniteSet(sorted(rng.sample(range(1, 5),
                                               rng.randint(1, k - 1))))
            b = Quotient(Cube(k), stem)
        elif roll == 4:
            b = Sum((Cube(rng.randint(1, 3)), Cube(rng.randint(1, 3))))
        else:
            b = Associated(Restrict(Cube(rng.randint(1, 3)),
                                    Arithmetic(rng.randint(2, 4),
                                               rng.randint(2, 3))))
        assert sperner_violations(enumerate_up_to(b, 10)) == []

    # 4. oscillation reports re-verify their own witnesses
    rng = random.Random(1104)
    gap_specs = (SPEC, even_pair_fixture())
    fams = (BlockFamily((Cube(1), Cube(1))), BlockFamily((Cube(1),)),
            BlockFamily((Cube(2),)))
    for _ in range(500):
        spec = rng.choice(gap_specs)
        fam = rng.choice(fams)
        universe = FiniteSet(sorted(rng.sample(range(1, 13),
                                               rng.randint(4, 5))))
        rep = oscillation_gap(spec, fam, universe, grid_q=2)
        if rep.witness_pair is None:
            assert rep.gap == 0
        else:
            s, t = rep.witness_pair
            a = rep.witness_coeffs
            assert abs(psi_eval(spec, s, a) - psi_eval(spec, t, a)) == rep.gap

    # 5. appending a zero coefficient never moves a model value
    rng = random.Random(1105)
    sequences = (eights_sequence(), two_two_eights_sequence())
    for _ in range(500):
        seq = rng.choice(sequences)
        k = rng.randint(1, 5)
        a = tuple(F(rng.randint(0, 8), 8) for _ in range(k))
        extended = model_eval(SPEC, seq, a + (F(0),))
        base = model_eval(SPEC, seq, a)
        assert extended.value == base.value
