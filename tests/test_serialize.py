from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockosc.barriers import Associated, Cube, Quotient, RankResult, Restrict, Schreier, Sum
from blockosc.blocks import Block, BlockFamily
from blockosc.errors import SchemaError
from blockosc.models import two_two_eights_sequence
from blockosc.normspace import (
    LpNorm,
    SupFamily,
    SupTerm,
    Vector,
    even_pair_fixture,
    section6_spec,
)
from blockosc.oscillation import ToleranceSchedule
from blockosc.serialize import (
    dumps,
    parse_barrier,
    parse_block,
    parse_coeffs,
    parse_coloring,
    parse_family,
    parse_finite_set,
    parse_generator,
    parse_rational,
    parse_schedule,
    parse_sequence,
    parse_spec,
    parse_values_table,
    parse_vector,
    to_json,
)
from blockosc.sets import Arithmetic, CofiniteAfter, FiniteSet, PrefixThen


class TestRationals:
    def test_round_trip(self):
        for x in (F(0), F(3, 4), F(-9, 16), F(5)):
            assert parse_rational(to_json(x)) == x

    def test_ints_accepted(self):
        assert parse_rational(7) == F(7)

    def test_rejects_floats_bools_garbage(self):
        with pytest.raises(SchemaError):
            parse_rational(0.5)
        with pytest.raises(SchemaError):
            parse_rational(True)
        with pytest.raises(SchemaError):
            parse_rational("three quarters")
        with pytest.raises(SchemaError):
            parse_rational("1/0")


class TestSetsAndBlocks:
    def test_finite_set_round_trip(self):
        s = FiniteSet((2, 5, 9))
        assert parse_finite_set(to_json(s)) == s

    def test_finite_set_errors_carry_paths(self):
        with pytest.raises(SchemaError) as exc:
            parse_finite_set([1, "x"], "$.u")
        assert "$.u[1]" in str(exc.value)
        with pytest.raises(SchemaError):
            parse_finite_set([0])
        with pytest.raises(SchemaError):
            parse_finite_set({"not": "a list"})

    def test_block_round_trip(self):
        b = Block((FiniteSet((1, 2)), FiniteSet((4,))))
        assert to_json(b) == [[1, 2], [4]]
        assert parse_block(to_json(b)) == b

    def test_block_order_violation(self):
        with pytest.raises(SchemaError):
            parse_block([[3, 4], [1]])
        with pytest.raises(SchemaError):
            parse_block([])


class TestOrdinals:
    def test_str_form(self):
        assert str(RankResult(3, True, "structural")) == "w^3"
        assert str(RankResult(1, False, "empirical", 12)) == "w"
        assert str(RankResult(None, True, "structural")) == "≥w^w"


EVENS_FROM_2 = {"kind": "arithmetic", "start": 2, "step": 2}
EVENS_CUBE = {"type": "restrict", "base": {"type": "cube", "k": 1}, "to": EVENS_FROM_2}


class TestGeneratorsAndBarriers:
    # each generator with the literal JSON that describes it
    GENS = (
        (CofiniteAfter(0), {"kind": "cofinite-after", "n": 0}),
        (CofiniteAfter(4), {"kind": "cofinite-after", "n": 4}),
        (Arithmetic(2, 2), EVENS_FROM_2),
        (PrefixThen(FiniteSet((1, 5)), Arithmetic(10, 3)),
         {"kind": "prefix-then", "prefix": [1, 5],
          "tail": {"kind": "arithmetic", "start": 10, "step": 3}}),
    )

    @pytest.mark.parametrize("g, data", GENS, ids=[repr(g) for g, _ in GENS])
    def test_generator_round_trip(self, g, data):
        assert parse_generator(data) == g

    def test_naturals_alias(self):
        assert parse_generator({"kind": "naturals"}) == CofiniteAfter(0)

    def test_unknown_kind(self):
        with pytest.raises(SchemaError) as exc:
            parse_generator({"kind": "fibonacci"}, "$.to")
        assert "$.to.kind" in str(exc.value)

    def test_invalid_generator_payloads(self):
        with pytest.raises(SchemaError):
            parse_generator([2, 4])
        with pytest.raises(SchemaError) as exc:
            parse_generator({"kind": "cofinite-after"}, "$.to")
        assert "$.to.n" in str(exc.value)
        with pytest.raises(SchemaError):
            parse_generator({"kind": "arithmetic", "start": 2, "step": 0})

    BARRIERS = (
        (Cube(3), {"type": "cube", "k": 3}),
        (Schreier(), {"type": "schreier"}),
        (Restrict(Cube(2), Arithmetic(2, 2)),
         {"type": "restrict", "base": {"type": "cube", "k": 2}, "to": EVENS_FROM_2}),
        (Quotient(Cube(3), FiniteSet((2,))),
         {"type": "quotient", "base": {"type": "cube", "k": 3}, "s": [2]}),
        (Sum((Cube(1), Cube(2))),
         {"type": "sum", "parts": [{"type": "cube", "k": 1}, {"type": "cube", "k": 2}]}),
        (Associated(Restrict(Cube(2), Arithmetic(2, 2))),
         {"type": "associated", "base": {"type": "restrict",
                                         "base": {"type": "cube", "k": 2},
                                         "to": EVENS_FROM_2}}),
    )

    @pytest.mark.parametrize("b, data", BARRIERS,
                             ids=[type(b).__name__ for b, _ in BARRIERS])
    def test_barrier_round_trip(self, b, data):
        assert parse_barrier(data) == b

    def test_invalid_barrier_payloads(self):
        with pytest.raises(SchemaError) as exc:
            parse_barrier({"type": "tree"})
        assert "$.type" in str(exc.value)
        with pytest.raises(SchemaError):
            parse_barrier("cube")
        with pytest.raises(SchemaError):
            parse_barrier({"type": "cube", "k": "two"})
        with pytest.raises(SchemaError):
            parse_barrier({"type": "cube", "k": 0})
        for parts in ([], 5, "ab", {"x": 1}):  # empty, or not an array at all
            with pytest.raises(SchemaError, match=r"^\$\.parts: expected a nonempty array$"):
                parse_barrier({"type": "sum", "parts": parts})
        with pytest.raises(SchemaError) as exc:
            parse_barrier({"type": "quotient",
                           "base": {"type": "cube", "k": 1},
                           "s": [3]})
        assert "belongs to the base" in str(exc.value)

    def test_nesting_is_bounded(self):
        # 100 levels below the top pass; one level more is refused where it starts
        barrier, generator = {"type": "cube", "k": 2}, {"kind": "cofinite-after", "n": 100}
        for i in range(100):
            barrier = {"type": "associated", "base": barrier}
            generator = {"kind": "prefix-then", "prefix": [100 - i], "tail": generator}
        assert parse_barrier(barrier) is not None
        assert parse_generator(generator) is not None
        for data, parse, key in ((barrier, parse_barrier, "base"),
                                 (generator, parse_generator, "tail")):
            with pytest.raises(SchemaError) as exc:
                parse(data, "$.x")
            assert exc.value.path == "$.x" + f".{key}" * 100

    def test_family_and_sequence_round_trip(self):
        fam = BlockFamily((Cube(2), Cube(8)))
        assert parse_family([{"type": "cube", "k": 2}, {"type": "cube", "k": 8}]) == fam
        seq = two_two_eights_sequence()
        assert parse_sequence({"prefix": [{"type": "cube", "k": 2}] * 2,
                               "tail": {"type": "cube", "k": 8}}) == seq
        assert parse_sequence({"tail": {"type": "cube", "k": 8}}).prefix == ()

    def test_invalid_family_payloads(self):
        with pytest.raises(SchemaError):
            parse_family([])
        with pytest.raises(SchemaError) as exc:
            parse_family([{"type": "cube", "k": 2}, {"type": "cube"}])
        assert "$[1].k" in str(exc.value)
        with pytest.raises(SchemaError) as exc:
            parse_family([{"type": "cube", "k": 1}, EVENS_CUBE])
        assert "ground set" in str(exc.value)

    def test_sequence_needs_tail(self):
        with pytest.raises(SchemaError) as exc:
            parse_sequence({"prefix": []})
        assert "$.tail" in str(exc.value)
        with pytest.raises(SchemaError) as exc:
            parse_sequence({"prefix": {"type": "cube", "k": 2},
                            "tail": {"type": "cube", "k": 8}})
        assert "$.prefix" in str(exc.value)
        with pytest.raises(SchemaError):
            parse_sequence([{"type": "cube", "k": 8}])
        with pytest.raises(SchemaError) as exc:
            parse_sequence({"prefix": [{"type": "cube", "k": 1}], "tail": EVENS_CUBE})
        assert "ground set" in str(exc.value)


class TestSpecsAndVectors:
    def test_named_specs(self):
        assert parse_spec({"type": "section6"}) == section6_spec()
        assert parse_spec({"type": "mn", "m": 2, "n": 8}) == section6_spec()
        assert parse_spec({"type": "even-pair"}) == even_pair_fixture()
        assert parse_spec({"type": "sup"}) == SupFamily(())
        assert parse_spec({"type": "lp", "p": 1}) == LpNorm(1)

    def test_supfamily_round_trip(self):
        spec = SupFamily((SupTerm(F(3, 4), 2), SupTerm(F(5, 8), 2, "touches-even")))
        data = {"type": "supfamily",
                "terms": [{"w": "3/4", "m": 2},
                          {"w": "5/8", "m": 2, "filter": "touches-even"}]}
        assert parse_spec(data) == spec

    def test_spec_errors(self):
        with pytest.raises(SchemaError):
            parse_spec({"type": "banach"})
        with pytest.raises(SchemaError):
            parse_spec({"type": "supfamily", "terms": []})
        with pytest.raises(SchemaError):
            parse_spec({"type": "supfamily",
                        "terms": [{"w": "1/2", "m": 2, "filter": "bogus"}]})
        with pytest.raises(SchemaError) as exc:
            parse_spec({"type": "supfamily", "terms": [{"w": "1/2", "m": 2, "filter": 3}]})
        assert "$.terms[0].filter" in str(exc.value)
        with pytest.raises(SchemaError):
            parse_spec(["sup"])

    def test_vector_three_forms(self):
        v = Vector({1: F(1), 2: F(1, 2)})
        assert parse_vector({"1": "1", "2": "1/2"}) == v
        assert parse_vector([[1, "1"], [2, "1/2"]]) == v
        assert parse_vector(["1", "1/2"]) == v

    def test_vector_errors(self):
        with pytest.raises(SchemaError):
            parse_vector({"one": "1"})
        with pytest.raises(SchemaError):
            parse_vector("nope")
        with pytest.raises(SchemaError):
            parse_vector([[0, "1"]])
        with pytest.raises(SchemaError):
            parse_vector({"0": "1"})
        # int() reads all of these but ""; an index is ASCII digits only
        for key in ("1_0", " 2 ", "+3", "-1", "\u0663", ""):
            with pytest.raises(SchemaError) as exc:
                parse_vector({key: "1"})
            assert exc.value.path == f"$.{key}"
        assert parse_vector({"01": "1"}) == Vector({1: F(1)})

    def test_coeffs(self):
        assert parse_coeffs(["1", "1/2", 0]) == (F(1), F(1, 2), F(0))
        with pytest.raises(SchemaError):
            parse_coeffs([])


class TestColoringsValuesSchedules:
    def test_builtin_by_name(self):
        c = parse_coloring("parity-of-sum")
        assert c.of(FiniteSet((1, 3))) == "even"

    def test_rule_object(self):
        c = parse_coloring({"kind": "rule", "name": "contains:3"})
        assert c.of(FiniteSet((3, 5))) == "yes"

    def test_table_flat_and_nested(self):
        c = parse_coloring([
            {"object": [1, 2], "color": "a"},
            {"object": [[1], [2]], "color": "b"},
        ])
        assert c.of(FiniteSet((1, 2))) == "a"
        assert c.of(Block((FiniteSet((1,)), FiniteSet((2,))))) == "b"
        c = parse_coloring({"kind": "table", "entries": [{"object": [1, 2], "color": "a"}]})
        assert c.of(FiniteSet((1, 2))) == "a"

    def test_coloring_errors(self):
        with pytest.raises(SchemaError):
            parse_coloring("unheard-of")
        with pytest.raises(SchemaError):
            parse_coloring({"kind": "mystery"})
        with pytest.raises(SchemaError):
            parse_coloring([{"object": [1, 2]}])
        for name in (None, "unheard-of"):
            with pytest.raises(SchemaError) as exc:
                parse_coloring({"kind": "rule", "name": name}, "$.c")
            assert "$.c.name" in str(exc.value)

    def test_values_table(self):
        vals = parse_values_table([
            {"block": [[1], [2]], "value": "3/2"},
            {"block": [[1], [3]], "value": 1},
        ])
        assert vals[Block((FiniteSet((1,)), FiniteSet((2,))))] == F(3, 2)
        with pytest.raises(SchemaError):
            parse_values_table([{"block": [[1]]}])
        with pytest.raises(SchemaError):
            parse_values_table({"block": [[1]], "value": 1})

    def test_schedule_round_trip(self):
        s = ToleranceSchedule(F(1, 3), F(2))
        assert parse_schedule({"kind": "geometric", "ratio": "1/3", "scale": "2"}) == s
        assert parse_schedule({}) == ToleranceSchedule()
        with pytest.raises(SchemaError):
            parse_schedule({"ratio": "2"})
        with pytest.raises(SchemaError) as exc:
            parse_schedule({"kind": "harmonic"})
        assert "$.kind" in str(exc.value)


class TestDumps:
    def test_canonical_form(self):
        out = dumps({"b": 1, "a": [1, 2]})
        assert out == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'

    def test_unicode_not_escaped(self):
        assert "≥w^w" in dumps({"rank": "≥w^w"})


@settings(max_examples=100)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=8, unique=True))
def test_finite_set_json_is_stable(xs):
    s = FiniteSet(xs)
    assert parse_finite_set(to_json(s)) == s
    assert to_json(s) == sorted(xs)


@settings(max_examples=100)
@given(st.dictionaries(st.integers(1, 30),
                       st.fractions(min_value=-3, max_value=3, max_denominator=9),
                       max_size=6))
def test_vector_json_round_trip(entries):
    v = Vector(entries)
    assert parse_vector([[i, str(c)] for i, c in sorted(entries.items())]) == v
    assert parse_vector({str(i): str(c) for i, c in entries.items()}) == v


class TestToJson:
    def test_leaves(self):
        assert to_json(F(-3, 4)) == "-3/4"
        assert to_json(F(2)) == "2"
        assert to_json(FiniteSet((5, 2))) == [2, 5]
        assert to_json(Block((FiniteSet((1, 2)), FiniteSet((4,))))) == [[1, 2], [4]]
        assert to_json((F(1, 2), [FiniteSet((1,))])) == ["1/2", [[1]]]
        for colour in (3, True, "even", None, {"rgb": [1, 2]}):
            assert to_json(colour) == colour

    def test_dataclass_fields_and_properties(self):
        from blockosc.models import ConsistencyReport, ConsistencyViolation
        rep = ConsistencyReport(3, (ConsistencyViolation(2, (F(1), F(0)), F(3, 2), F(1)),))
        assert to_json(rep) == {
            "checked": 3,
            "holds": False,
            "violations": [{"k": 2, "coeffs": ["1", "0"],
                            "padded_value": "3/2", "base_value": "1"}],
        }

    def test_nested_report(self):
        from blockosc.oscillation import OscillationReport
        pair = (Block((FiniteSet((1,)),)), Block((FiniteSet((2,)),)))
        rep = OscillationReport(F(1, 2), pair, (F(1),), FiniteSet((1, 2)), 4, 2)
        assert to_json(rep) == {
            "gap": "1/2", "witness_pair": [[[1]], [[2]]], "witness_coeffs": ["1"],
            "universe": [1, 2], "grid_q": 4, "block_count": 2, "vacuous": False,
        }

    def test_axiom_witnesses_are_rational_arrays(self):
        from blockosc.normspace import AxiomCheck
        chk = AxiomCheck(True, True, False, True, True,
                         (("homogeneous", (F(1, 2), (F(1), F(0)))),))
        out = to_json(chk)
        assert out["all_pass"] is False
        assert out["witnesses"] == [["homogeneous", ["1/2", ["1", "0"]]]]
