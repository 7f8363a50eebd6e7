import argparse
import json
import pathlib
import subprocess
import sys
import time

import pytest

from blockosc.cli import build_parser, main

CUBE1 = '{"type":"cube","k":1}'
CUBE2 = '{"type":"cube","k":2}'
CUBE8 = '{"type":"cube","k":8}'
PAIR_FAM = f"[{CUBE2},{CUBE2}]"
FIXTURE_FAM = f"[{CUBE1},{CUBE1}]"
SEQ_228 = f'{{"prefix":[{CUBE2},{CUBE2}],"tail":{CUBE8}}}'
SECTION6 = '{"type":"section6"}'
FIXTURE = '{"type":"even-pair"}'
# No structural rule fits a quotient of a sum, so its rank is probed.
EMPIRICAL = f'{{"type":"quotient","base":{{"type":"sum","parts":[{CUBE1},{CUBE2}]}},"s":[1]}}'


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


class TestEnvelope:
    def test_schema_and_command(self, capsys):
        code, payload = run_json(capsys, "barrier", "rank",
                                 "--descriptor", '{"type":"cube","k":3}')
        assert code == 0
        assert payload["schema_version"] == 1
        assert payload["command"] == "barrier rank"
        assert payload["report"] == {"rank": "w^3", "confirmed": True,
                                     "method": "structural",
                                     "probe_bound": None}

    def test_deterministic_bytes(self, capsys):
        argv = ("oscillation", "gap", "--spec", FIXTURE,
                "--family", FIXTURE_FAM,
                "--universe", "[1,2,3,4,5,6,7,8]")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second
        assert first.endswith("\n")

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "barrier", "rank",
                           "--descriptor", '{"type":"cube","k":3}',
                           "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "key,value"
        assert "report.rank,w^3" in lines
        assert "command,barrier rank" in lines

    def test_out_file_and_env_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BLOCKOSC_OUT_DIR", str(tmp_path))
        code, out, _ = run(capsys, "barrier", "rank",
                           "--descriptor", '{"type":"schreier"}',
                           "--out", "rank.json")
        assert code == 0
        assert out == ""
        payload = json.loads((tmp_path / "rank.json").read_text())
        assert payload["report"]["rank"] == "≥w^w"

    def test_absolute_out_ignores_env_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BLOCKOSC_OUT_DIR", str(tmp_path / "unused"))
        target = tmp_path / "direct.json"
        run(capsys, "barrier", "rank", "--descriptor", '{"type":"cube","k":1}',
            "--out", str(target))
        assert json.loads(target.read_text())["report"]["rank"] == "w"

    def test_at_file_input(self, capsys, tmp_path):
        desc = tmp_path / "barrier.json"
        desc.write_text('{"type":"cube","k":2}')
        code, payload = run_json(capsys, "barrier", "members",
                                 "--descriptor", f"@{desc}", "--bound", "4")
        assert code == 0
        assert payload["report"]["count"] == 6


CUBE3 = '{"type":"cube","k":3}'
SCHREIER = '{"type":"schreier"}'
EVENS = '{"kind":"arithmetic","start":2,"step":2}'


@pytest.mark.parametrize("desc, report", [
    # a Schreier part makes the sum unbounded
    (f'{{"type":"sum","parts":[{CUBE1},{SCHREIER}]}}', ("≥w^w", True, "structural", None)),
    (CUBE1, ("w", True, "structural", None)),
    (f'{{"type":"quotient","base":{CUBE3},"s":[1]}}', ("w^2", True, "structural", None)),
    (f'{{"type":"quotient","base":{{"type":"restrict","base":{CUBE3},"to":{EVENS}}},"s":[2]}}',
     ("w^2", True, "structural", None)),
    (f'{{"type":"quotient","base":{SCHREIER},"s":[5]}}', ("w^4", True, "structural", None)),
    # the stem's 2 is the even 4, so every member of the base that starts with it has 4 elements
    (f'{{"type":"quotient","base":{{"type":"associated","base":{{"type":"restrict",'
     f'"base":{SCHREIER},"to":{EVENS}}}}},"s":[2]}}', ("w^3", True, "structural", None)),
    # the associated quotient of a sum has no structural rule, so the whole sum is probed
    (f'{{"type":"sum","parts":[{CUBE1},{{"type":"associated","base":{EMPIRICAL}}}]}}',
     ("w^3", False, "empirical", 12)),
], ids=["sum-unbounded", "cube1", "quotient-cube", "quotient-restricted", "quotient-schreier",
        "quotient-associated-schreier", "sum-empirical"])
def test_rank_report(capsys, desc, report):
    code, payload = run_json(capsys, "barrier", "rank", "--descriptor", desc)
    assert code == 0
    assert payload["report"] == dict(zip(("rank", "confirmed", "method", "probe_bound"), report))


class TestErrors:
    def test_unknown_type_exits_2(self, capsys):
        code, out, err = run(capsys, "barrier", "rank",
                             "--descriptor", '{"type":"dodecahedron"}')
        assert code == 2
        assert out == ""
        detail = json.loads(err)
        assert detail["error"] == "SchemaError"
        assert detail["path"] == "$.type"

    def test_malformed_json_exits_2(self, capsys):
        code, _, err = run(capsys, "barrier", "rank", "--descriptor", "{oops")
        assert code == 2
        assert "invalid JSON" in json.loads(err)["message"]

    def test_nested_schema_error_keeps_its_path(self, capsys):
        desc = '{"type":"restrict","base":{"type":"foo"},"to":{"kind":"naturals"}}'
        code, _, err = run(capsys, "barrier", "members", "--bound", "5",
                           "--descriptor", desc)
        assert code == 2
        detail = json.loads(err)
        assert detail["path"] == "$.base.type"
        assert detail["message"] == "$.base.type: unknown barrier type 'foo'"
        for desc, path in (
                ('{"type":"sum","parts":[{"type":"cube","k":1},{"type":"cube","k":0}]}',
                 "$.parts[1]"),
                ('{"type":"quotient","base":{"type":"cube","k":3},"s":[0]}', "$.s")):
            code, _, err = run(capsys, "barrier", "rank", "--descriptor", desc)
            assert (code, json.loads(err)["path"]) == (2, path)

    def test_non_finite_constants_exit_2(self, capsys):
        for coloring in ('[{"object":[1],"color":NaN}]', '[{"object":[1],"color":-Infinity}]'):
            code, out, err = run(capsys, "ramsey", "find-mono", "--barrier", CUBE1,
                                 "--coloring", coloring, "--universe", "[1]",
                                 "--target", "1")
            assert (code, out) == (2, "")
            assert "is not a JSON number" in json.loads(err)["message"]

    def test_repeated_coloring_entry_exits_2(self, capsys):
        coloring = ('[{"object":[1],"color":"red"},{"object":[1],"color":"blue"},'
                    '{"object":[2],"color":"blue"}]')
        code, out, err = run(capsys, "ramsey", "find-mono", "--barrier", CUBE1,
                             "--coloring", coloring, "--universe", "[1,2]", "--target", "2")
        assert (code, out) == (2, "")
        assert json.loads(err)["path"] == "$[1].object"

    def test_repeated_values_entry_exits_2(self, capsys):
        values = ('[{"block":[[1]],"value":"0"},{"block":[[2]],"value":"0"},'
                  '{"block":[[1]],"value":"9"}]')
        code, out, err = run(capsys, "ramsey", "metric", "--family", f"[{CUBE1}]",
                             "--values", values, "--epsilon", "1/2",
                             "--universe", "[1,2]", "--target", "2")
        assert (code, out) == (2, "")
        assert json.loads(err)["path"] == "$[2].block"

    @pytest.mark.parametrize("vector, path", [('[[1,"5"],[1,"1/2"]]', "$[1][0]"),
                                              ('{"1":"5","01":"1/2"}', "$.01")])
    def test_repeated_vector_index_exits_2(self, capsys, vector, path):
        code, out, err = run(capsys, "norm", "eval", "--spec", '{"type":"sup"}',
                             "--vector", vector)
        assert (code, out) == (2, "")
        assert json.loads(err)["path"] == path

    def test_overlong_integer_exits_2(self, capsys):
        code, _, err = run(capsys, "barrier", "rank", "--descriptor", "1" * 5000)
        assert code == 2
        assert json.loads(err)["error"] == "SchemaError"

    def test_quotient_stem_nothing_extends_exits_2(self, capsys):
        desc = '{"type":"quotient","base":{"type":"schreier"},"s":[1,4]}'
        code, _, err = run(capsys, "barrier", "front", "--descriptor", desc,
                           "--set", '{"kind":"arithmetic","start":5,"step":1}',
                           "--fuel", "2000")
        assert code == 2
        assert "no member extends" in json.loads(err)["message"]

    def test_missing_at_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "barrier", "rank",
                           "--descriptor", f"@{tmp_path}/absent.json")
        assert code == 2
        assert "cannot read" in json.loads(err)["message"]

    @pytest.mark.parametrize("target", ["missing/rank.json", "."])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, monkeypatch, target):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "barrier", "rank", "--descriptor", CUBE1,
                             "--out", target)
        assert (code, out) == (2, "")
        detail = json.loads(err)
        assert detail["error"] == "InvalidArgumentError"
        assert detail["message"].startswith("cannot write --out file: ")

    def test_non_utf8_at_file_exits_2(self, capsys, tmp_path):
        desc = tmp_path / "barrier.json"
        desc.write_bytes(b'{"type":"cube","k":1,"note":"\xff"}')
        code, out, err = run(capsys, "barrier", "rank", "--descriptor", f"@{desc}")
        assert (code, out) == (2, "")
        assert "cannot read --descriptor file" in json.loads(err)["message"]

    @pytest.mark.parametrize("coloring, path", [
        ('"constant:\\ud800"', "$"),
        ('[{"object":[1],"color":{"\\ud800":1}}]', "$[0].color"),
        ('{"kind":"rule","name":"constant:\\udfff"}', "$.name"),
    ])
    def test_lone_surrogate_colour_exits_2(self, capsys, coloring, path):
        code, out, err = run(capsys, "ramsey", "find-mono", "--barrier", CUBE1,
                             "--coloring", coloring, "--universe", "[1]", "--target", "1")
        assert (code, out) == (2, "")
        assert json.loads(err)["path"] == path

    @pytest.mark.parametrize("argv", [
        ("barrier", "rank", "--descriptor", "[" * 5000 + "]" * 5000),
        ("ramsey", "find-mono", "--barrier", "", "--coloring", '"parity-of-sum"',
         "--universe", "[1]", "--target", "1"),
    ], ids=["nested-past-the-recursion-limit", "empty-barrier"])
    def test_unreadable_json_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "invalid JSON" in json.loads(err)["message"]

    def test_a_descriptor_nested_600_deep_exits_2(self, capsys):
        desc = '{"type":"cube","k":2}'
        for _ in range(600):
            desc = f'{{"type":"associated","base":{desc}}}'
        code, out, err = run(capsys, "barrier", "members", "--bound", "4",
                             "--descriptor", desc)
        assert (code, out) == (2, "")
        detail = json.loads(err)
        assert (detail["error"], detail["path"]) == ("SchemaError", "$" + ".base" * 101)

    def test_mono_requires_one_source(self, capsys):
        code, _, err = run(capsys, "ramsey", "find-mono",
                           "--coloring", '"parity-of-sum"',
                           "--universe", "[1,2,3]", "--target", "2")
        assert code == 2
        assert json.loads(err)["error"] == "InvalidArgumentError"


def _surface(parser, prefix=""):
    """Each subcommand's flags: required, default, choices and int type."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    table = {}
    for action in subs:
        for name, sub in action.choices.items():
            table.update(_surface(sub, f"{prefix} {name}".strip()))
    if not subs:
        table[prefix] = {
            a.option_strings[-1]: {"required": a.required, "default": a.default,
                                   "choices": list(a.choices) if a.choices else None,
                                   "int": a.type is int}
            for a in parser._actions if not isinstance(a, argparse._HelpAction)}
    return table


class TestSurface:
    def test_flags_match_the_pinned_table(self):
        pinned = pathlib.Path(__file__).parent / "data" / "cli_surface.json"
        assert _surface(build_parser()) == json.loads(pinned.read_text(encoding="utf-8"))

    def test_first_decoded_fault_is_named(self, capsys):
        code, out, err = run(capsys, "oscillation", "psi", "--spec", '{"type":"bogus"}',
                             "--family", '{"bad":1}', "--block", "[[1,2]]",
                             "--coeffs", '["1"]')
        assert (code, out, json.loads(err)["path"]) == (2, "", "$.type")

    @pytest.mark.parametrize("sources", [
        ("--barrier", '{"type":"z"}', "--family", "[1]", "--coloring", '"parity-of-sum"'),
        ("--coloring", '"bogus"'),
    ], ids=["both", "neither"])
    def test_mono_checks_its_source_before_decoding(self, capsys, sources):
        code, out, err = run(capsys, "ramsey", "find-mono", *sources,
                             "--universe", "[1,2,3]", "--target", "2")
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "InvalidArgumentError",
            "message": "exactly one of --barrier or --family is required"}


class TestBarrier:
    def test_members(self, capsys):
        _, payload = run_json(capsys, "barrier", "members",
                              "--descriptor", '{"type":"schreier"}',
                              "--bound", "3")
        assert payload["report"]["members"] == [[1], [2, 3]]

    def test_front(self, capsys):
        _, payload = run_json(capsys, "barrier", "front",
                              "--descriptor", CUBE2,
                              "--set", '{"kind":"arithmetic","start":2,"step":2}')
        assert payload["report"]["front"] == [2, 4]

    def test_axioms_pass(self, capsys):
        code, payload = run_json(capsys, "barrier", "axioms",
                                 "--descriptor", '{"type":"schreier"}',
                                 "--bound", "8")
        assert code == 0
        rep = payload["report"]
        assert rep["sperner_ok"] and rep["cover_ok"]
        assert rep["violations"] == []
        assert all(probe is not None for _, probe in rep["cover_probes"])

    def test_empirical_rank(self, capsys):
        # quotients of sums have no structural rule; rank probes the enumeration
        desc = json.dumps({
            "type": "quotient",
            "base": {"type": "sum", "parts": [{"type": "cube", "k": 1},
                                              {"type": "cube", "k": 1}]},
            "s": [1],
        })
        _, payload = run_json(capsys, "barrier", "rank",
                              "--descriptor", desc, "--probe-bound", "9")
        assert payload["report"] == {"rank": "w", "confirmed": False,
                                     "method": "empirical", "probe_bound": 9}


class TestBlocks:
    def test_enumerate(self, capsys):
        _, payload = run_json(capsys, "blocks", "enumerate",
                              "--family", PAIR_FAM, "--bound", "4")
        assert payload["report"] == {"blocks": [[[1, 2], [3, 4]]], "count": 1}

    def test_compare(self, capsys):
        _, payload = run_json(capsys, "blocks", "compare",
                              "--left", "[[1],[3]]", "--right", "[[2],[4]]")
        assert payload["report"] == {"relation": "less"}

    def test_join_then_split_round_trip(self, capsys):
        _, joined = run_json(capsys, "blocks", "join", "--family", PAIR_FAM,
                             "--block", "[[1,2],[5,9]]")
        assert joined["report"]["set"] == [1, 2, 5, 9]
        code, payload = run_json(capsys, "blocks", "split",
                                 "--family", PAIR_FAM, "--set", "[1,2,5,9]")
        assert code == 0
        assert payload["report"]["block"] == [[1, 2], [5, 9]]

    def test_split_miss_exits_1(self, capsys):
        code, payload = run_json(capsys, "blocks", "split",
                                 "--family", PAIR_FAM, "--set", "[1,2,3]")
        assert code == 1
        rep = payload["report"]
        assert rep["error"] == "not-in-sum"
        assert rep["consumed"] == [[1, 2]]
        assert rep["leftover"] == [3]


class TestRamsey:
    def test_find_mono_hit(self, capsys):
        code, payload = run_json(
            capsys, "ramsey", "find-mono", "--barrier", CUBE2,
            "--coloring", '"parity-of-sum"',
            "--universe", "[1,2,3,4,5,6,7,8]", "--target", "4")
        assert code == 0
        assert payload["report"]["witness"] == {
            "subset": [1, 3, 5, 7], "color": "even", "domain_size": 6}

    @pytest.mark.parametrize("color", [[1, "a"], {"hue": "red"}], ids=["array", "object"])
    def test_find_mono_with_unhashable_colors(self, capsys, color):
        # 1, 2 and 3 share the colour; 4 has another
        table = json.dumps([{"object": [x], "color": color if x < 4 else "other"}
                            for x in range(1, 5)])
        for target, want in ((3, 0), (4, 1)):
            code, payload = run_json(
                capsys, "ramsey", "find-mono", "--barrier", CUBE1, "--coloring", table,
                "--universe", "[1,2,3,4]", "--target", str(target))
            assert code == want
            assert payload["report"]["best"] == {"subset": [1, 2, 3], "color": color,
                                                 "domain_size": 3}

    def test_find_mono_keeps_a_deep_exhaustive_set(self, capsys):
        # 1,500 levels of the exhaustive scan: past the default recursion limit
        code, payload = run_json(
            capsys, "ramsey", "find-mono", "--barrier", CUBE1, "--coloring", '"constant:a"',
            "--universe", json.dumps(list(range(1, 1501))), "--target", "1500")
        assert code == 0
        assert payload["report"]["witness"]["subset"] == list(range(1, 1501))

    def test_find_mono_miss(self, capsys):
        code, payload = run_json(
            capsys, "ramsey", "find-mono", "--barrier", CUBE2,
            "--coloring", '"parity-of-sum"',
            "--universe", "[1,2,3,4]", "--target", "4")
        assert code == 1
        rep = payload["report"]
        assert rep["found"] is False and rep["witness"] is None
        assert rep["best"]["subset"] == [1, 2]

    def test_metric(self, capsys):
        values = json.dumps([
            {"block": [[i]], "value": "1" if i % 2 else "2"}
            for i in range(1, 7)
        ])
        code, payload = run_json(
            capsys, "ramsey", "metric", "--family", '[{"type":"cube","k":1}]',
            "--values", values, "--epsilon", "1/2",
            "--universe", "[1,2,3,4,5,6]", "--target", "3")
        assert code == 0
        assert payload["report"]["witness"]["subset"] == [1, 3, 5]
        assert payload["report"]["witness"]["max_gap"] == "0"

    def test_diagonal(self, capsys):
        values = json.dumps([{"block": [[i]], "value": "1"}
                             for i in range(1, 7)])
        code, payload = run_json(
            capsys, "ramsey", "diagonal", "--family", '[{"type":"cube","k":1}]',
            "--values", values, "--universe", "[1,2,3,4,5,6]")
        assert code == 0
        assert payload["report"]["selected"] == [1, 2, 3, 4, 5, 6]
        assert payload["report"]["completed"] is True


class TestNorm:
    def test_eval_exact(self, capsys):
        vec = json.dumps({str(i): "1" for i in range(1, 9)})
        code, payload = run_json(capsys, "norm", "eval",
                                 "--spec", SECTION6, "--vector", vec)
        assert code == 0
        assert payload["report"] == {"value": "9/2", "exact": True}

    def test_eval_inexact_root(self, capsys):
        code, payload = run_json(capsys, "norm", "eval",
                                 "--spec", '{"type":"lp","p":2}',
                                 "--vector", '{"1":"1","2":"1"}')
        assert code == 0
        assert payload["report"]["exact"] is False

    def test_axioms(self, capsys):
        code, payload = run_json(capsys, "norm", "axioms",
                                 "--spec", SECTION6, "--k", "2",
                                 "--grid-q", "2")
        assert code == 0
        assert payload["report"]["all_pass"] is True
        assert payload["report"]["witnesses"] == []

    def test_limit_demo(self, capsys):
        code, payload = run_json(capsys, "norm", "limit-demo",
                                 "--n-max", "8", "--grid-q", "4")
        assert code == 0
        rep = payload["report"]
        assert rep["limit_at_ones"] == "0"
        assert rep["limit_at_e1"] == "1"
        assert rep["collapses_exactly_at_positivity"] is True
        assert ["8", "1/8"] == [str(x) for x in rep["value_at_ones"][-1]]


class TestOscillation:
    def test_psi(self, capsys):
        code, payload = run_json(
            capsys, "oscillation", "psi", "--spec", SECTION6,
            "--family", PAIR_FAM, "--block", "[[1,2],[3,4]]",
            "--coeffs", '["1","1"]')
        assert code == 0
        assert payload["report"] == {"value": "3/2"}

    def test_gap(self, capsys):
        code, payload = run_json(
            capsys, "oscillation", "gap", "--spec", FIXTURE,
            "--family", FIXTURE_FAM,
            "--universe", "[1,2,3,4,5,6,7,8]")
        assert code == 0
        rep = payload["report"]
        assert rep["gap"] == "1/2"
        assert rep["witness_coeffs"] == ["1", "1"]
        assert rep["block_count"] == 28

    def test_stabilize_hit(self, capsys):
        code, payload = run_json(
            capsys, "oscillation", "stabilize", "--spec", FIXTURE,
            "--family", FIXTURE_FAM, "--epsilon", "1/4",
            "--universe", "[1,2,3,4,5,6,7,8,9,10]", "--target", "5")
        assert code == 0
        rep = payload["report"]
        assert rep["subset"] == [1, 3, 5, 7, 9]
        assert rep["report"]["gap"] == "0"
        assert rep["report"]["vacuous"] is False

    def test_stabilize_miss(self, capsys):
        code, payload = run_json(
            capsys, "oscillation", "stabilize", "--spec", FIXTURE,
            "--family", FIXTURE_FAM, "--epsilon", "1/4",
            "--universe", "[1,2,3,4]", "--target", "4")
        assert code == 1
        rep = payload["report"]
        assert rep["found"] is False and rep["subset"] is None
        assert rep["best_subset"] == [1, 2, 3, 4]
        assert rep["best_gap"] == "1/2"

    def test_asymptotic(self, capsys):
        code, payload = run_json(
            capsys, "oscillation", "asymptotic", "--spec", FIXTURE,
            "--family", FIXTURE_FAM, "--horizon", "12",
            "--stages", "2")
        assert code == 1
        stage1, stage2 = payload["report"]["stages"]
        assert stage1 == {"index": 1, "epsilon": "1/2", "threshold": 9,
                          "passed": True, "witness_pair": None,
                          "witness_coeffs": None, "witness_gap": None}
        assert stage2["passed"] is False
        assert stage2["witness_gap"] == "1/4"


# The tail's ground runs through the evens up to 64 and then the odds, where
# the inner restriction to the evens has no front: the probes starting at 100
# miss at once, those at 60 after one block of {60} and {62}.
NO_FRONT_SEQ = json.dumps({"prefix": [], "tail": {
    "type": "restrict",
    "base": {"type": "restrict", "base": {"type": "cube", "k": 1},
             "to": {"kind": "arithmetic", "start": 2, "step": 2}},
    "to": {"kind": "prefix-then", "prefix": list(range(2, 65, 2)),
           "tail": {"kind": "arithmetic", "start": 65, "step": 2}}}})


class TestModel:
    def test_eval(self, capsys):
        code, payload = run_json(
            capsys, "model", "eval", "--spec", SECTION6,
            "--sequence", SEQ_228, "--coeffs", '["1","1"]')
        assert code == 0
        rep = payload["report"]
        assert rep["value"] == "3/2" and rep["stabilized"] is True
        # two coefficients: probes sit past span (2+2) + 8
        assert rep["tail_offset"] == 12 and len(rep["probes"]) == 3

    def test_eval_not_stabilized_exits_1(self, capsys):
        mixed_seq = f'{{"prefix":[{CUBE1}],"tail":{CUBE2}}}'
        code, payload = run_json(
            capsys, "model", "eval", "--spec", FIXTURE,
            "--sequence", mixed_seq, "--coeffs", '["1","1"]')
        assert code == 1
        assert payload["report"]["stabilized"] is False

    @pytest.mark.parametrize("offset, start", [("100", 101), ("60", 65)])
    def test_eval_without_front_exits_2(self, capsys, offset, start):
        code, out, err = run(capsys, "model", "eval", "--spec", SECTION6,
                             "--sequence", NO_FRONT_SEQ,
                             "--coeffs", '["1","1"]', "--tail-offset", offset)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "NoFrontFoundError",
            "message": "no initial segment found within fuel=1000000 (generator "
                       f"Arithmetic(start={start}, step=2) against Restrict)"}

    def test_eval_with_runaway_probe_count_exits_2(self, capsys):
        # The probes' parts are peeled lazily, so the 10^6 elements of fuel run
        # out at 10^11 probes just as at 10^6, and no 10^11-entry walk is built.
        errors = []
        for probes in ("1000000", "100000000000"):
            code, out, err = run(capsys, "model", "eval", "--spec", SECTION6,
                                 "--sequence", f'{{"prefix":[],"tail":{CUBE8}}}',
                                 "--coeffs", "[1]", "--probes", probes)
            assert code == 2
            assert out == ""
            errors.append(json.loads(err))
        assert errors[0] == errors[1]
        assert errors[0]["error"] == "NoFrontFoundError"

    def test_spreading_with_runaway_placement_exits_2(self, capsys):
        # The probes for a placement's maximum are peeled before any tuple is
        # padded to it, so the fuel stops a 10^11 slot before a list is built.
        started = time.perf_counter()
        code, out, err = run(capsys, "model", "spreading", "--spec", SECTION6,
                             "--sequence", f'{{"prefix":[],"tail":{CUBE8}}}', "--k", "1",
                             "--grid-q", "1", "--placements", "[[100000000000]]")
        assert time.perf_counter() - started < 2
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "NoFrontFoundError"

    def test_consistency(self, capsys):
        code, payload = run_json(
            capsys, "model", "consistency", "--spec", SECTION6,
            "--sequence", SEQ_228, "--k-max", "3", "--grid-q", "2")
        assert code == 0
        assert payload["report"]["holds"] is True
        assert payload["report"]["violations"] == []

    def test_spreading_violation_exits_1(self, capsys):
        code, payload = run_json(
            capsys, "model", "spreading", "--spec", SECTION6,
            "--sequence", SEQ_228, "--k", "2",
            "--placements", "[[3,4]]", "--grid-q", "2")
        assert code == 1
        witness = payload["report"]["witness"]
        assert witness["placement"] == [3, 4]
        assert witness["identity_value"] == "3/2"
        assert witness["placed_value"] == "1"

    def test_equivalence(self, capsys):
        seq8 = f'{{"prefix":[],"tail":{CUBE8}}}'
        code, payload = run_json(
            capsys, "model", "equivalence", "--spec", SECTION6,
            "--seq1", seq8, "--seq2", SEQ_228,
            "--k-max", "3", "--grid-q", "2")
        assert code == 0
        assert payload["report"] == {"lo": "1", "hi": "2"}


class TestVerifySection6:
    NAMES = ["eights-model-closed-form", "two-two-eights-closed-form",
             "named-values", "sandwich-equivalence", "spreading-dichotomy"]

    def test_default_spec_passes(self, capsys):
        code, payload = run_json(capsys, "verify-section6")
        assert code == 0
        rep = payload["report"]
        assert rep["all_passed"] is True
        assert [c["name"] for c in rep["checks"]] == self.NAMES
        assert all(c["passed"] for c in rep["checks"])
        assert rep["grid_q"] == 4 and rep["k_max"] == 4

    def test_perturbed_spec_fails(self, capsys):
        spec = json.dumps({"type": "supfamily",
                           "terms": [{"w": "1/2", "m": 2},
                                     {"w": "9/16", "m": 8}]})
        code, payload = run_json(capsys, "verify-section6", "--spec", spec,
                                 "--k-max", "3", "--grid-q", "2")
        assert code == 1
        by_name = {c["name"]: c["passed"] for c in payload["report"]["checks"]}
        assert by_name["eights-model-closed-form"] is True
        assert by_name["two-two-eights-closed-form"] is False
        assert by_name["named-values"] is False

    def test_matches_golden_file(self, capsys, tmp_path):
        import pathlib
        golden = pathlib.Path(__file__).parent / "data" / "section6_golden.json"
        _, out, _ = run(capsys, "verify-section6")
        assert out == golden.read_text(encoding="utf-8")


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "blockosc.cli", "barrier", "rank",
         "--descriptor", '{"type":"sum","parts":[{"type":"cube","k":2},'
                         '{"type":"cube","k":3}]}'],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["report"]["rank"] == "w^5"


@pytest.mark.parametrize("argv", [
    ("norm", "eval", "--spec", '{"type":"lp","p":0}', "--vector", '["1"]'),
    ("oscillation", "psi", "--spec", SECTION6, "--family", PAIR_FAM,
     "--block", "[[1,2],[3,4]]", "--coeffs", '["1"]'),
    ("oscillation", "psi", "--spec", SECTION6, "--family", PAIR_FAM,
     "--block", "[[1],[2]]", "--coeffs", '["1","1"]'),
    ("model", "eval", "--spec", SECTION6, "--sequence", SEQ_228,
     "--coeffs", '["1","1"]', "--probes", "0"),
])
def test_library_validation_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


class TestInputContract:
    def test_psi_rejects_inexact_lp(self, capsys):
        code, out, err = run(capsys, "oscillation", "psi",
                             "--spec", '{"type":"lp","p":2}',
                             "--family", f"[{CUBE2}]", "--block", "[[1,2]]",
                             "--coeffs", '["1"]')
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "InvalidArgumentError"
        assert json.loads(err)["message"] == (
            "psi under the l2 norm may be an inexact root; only p = 1 is supported")

    def test_psi_keeps_exact_l1(self, capsys):
        code, payload = run_json(capsys, "oscillation", "psi",
                                 "--spec", '{"type":"lp","p":1}',
                                 "--family", f"[{CUBE2}]", "--block", "[[1,2]]",
                                 "--coeffs", '["1"]')
        assert code == 0
        assert payload["report"] == {"value": "1"}

    def test_l2_of_a_400_digit_entry(self, capsys):
        big = "7" * 400
        code, payload = run_json(capsys, "norm", "eval",
                                 "--spec", '{"type":"lp","p":2}',
                                 "--vector", json.dumps({"1": "-" + big}))
        assert code == 0
        assert payload["report"] == {"value": big, "exact": True}

    def test_join_checks_family(self, capsys):
        code, out, err = run(capsys, "blocks", "join",
                             "--family", '[{"type":"cube","k":9}]',
                             "--block", "[[1,2]]")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "InvalidArgumentError"

    def test_join_names_the_failing_part(self, capsys):
        code, _, err = run(capsys, "blocks", "join", "--family", PAIR_FAM,
                           "--block", "[[1,2],[3]]")
        assert code == 2
        assert json.loads(err) == {"error": "InvalidArgumentError",
                                   "message": "block part 2 ({3}) is not a member of its family"}

    def test_join_checks_part_count(self, capsys):
        code, _, err = run(capsys, "blocks", "join", "--family", PAIR_FAM,
                           "--block", "[[1,2]]")
        assert code == 2
        assert "parts" in json.loads(err)["message"]

    def test_norm_axioms_rejects_inexact_lp(self, capsys):
        code, out, err = run(capsys, "norm", "axioms",
                             "--spec", '{"type":"lp","p":2}',
                             "--k", "2", "--grid-q", "1")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "InvalidArgumentError"
        assert json.loads(err)["message"] == (
            "coefficient evaluation under the l2 norm may be an inexact root; "
            "only p = 1 is supported")

    def test_norm_axioms_keeps_exact_l1(self, capsys):
        code, payload = run_json(capsys, "norm", "axioms",
                                 "--spec", '{"type":"lp","p":1}',
                                 "--k", "2", "--grid-q", "1")
        assert code == 0
        assert payload["report"]["all_pass"] is True

    @pytest.mark.parametrize("q", ["0", "-1"])
    @pytest.mark.parametrize("argv", [
        ("norm", "axioms", "--spec", SECTION6, "--k", "2"),
        ("norm", "limit-demo", "--n-max", "3"),
        ("oscillation", "gap", "--spec", FIXTURE, "--family", FIXTURE_FAM,
         "--universe", "[1,2,3,4]"),
        ("oscillation", "stabilize", "--spec", FIXTURE, "--family", FIXTURE_FAM,
         "--epsilon", "1/4", "--universe", "[1,2,3,4]", "--target", "2"),
        ("oscillation", "asymptotic", "--spec", FIXTURE, "--family", FIXTURE_FAM,
         "--horizon", "6", "--stages", "1"),
        ("model", "consistency", "--spec", SECTION6, "--sequence", SEQ_228,
         "--k-max", "2"),
        ("model", "spreading", "--spec", SECTION6, "--sequence", SEQ_228,
         "--k", "1", "--placements", "[[3]]"),
        ("model", "equivalence", "--spec", SECTION6, "--seq1", SEQ_228,
         "--seq2", SEQ_228, "--k-max", "1"),
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_grid_size_below_one_exits_2(self, capsys, argv, q):
        code, out, err = run(capsys, *argv, "--grid-q", q)
        assert code == 2
        assert out == ""
        detail = json.loads(err)
        assert detail["error"] == "InvalidArgumentError"
        assert "grid size" in detail["message"]

    @pytest.mark.parametrize("argv", [
        ("model", "consistency", "--spec", SECTION6, "--sequence", SEQ_228, "--k-max", "1"),
        ("model", "consistency", "--spec", SECTION6, "--sequence", SEQ_228, "--k-max", "1",
         "--grid-q", "0"),
        ("norm", "axioms", "--spec", SECTION6, "--k", "0"),
        ("norm", "axioms", "--spec", SECTION6, "--k", "-1"),
        ("oscillation", "asymptotic", "--spec", FIXTURE, "--family", FIXTURE_FAM,
         "--horizon", "6", "--stages", "0"),
        ("model", "eval", "--spec", SECTION6, "--sequence", SEQ_228, "--coeffs", '["1"]',
         "--tail-offset", "0"),
        ("model", "eval", "--spec", SECTION6, "--sequence", SEQ_228, "--coeffs", '["1"]',
         "--tail-offset", "-5"),
        ("norm", "limit-demo", "--n-max", "0"),
        ("norm", "limit-demo", "--n-max", "-4"),
        ("model", "spreading", "--spec", SECTION6, "--sequence", SEQ_228, "--k", "2",
         "--placements", "[]"),
        ("barrier", "rank", "--descriptor", EMPIRICAL, "--probe-bound", "0"),
        ("barrier", "rank", "--descriptor", CUBE2, "--probe-bound", "-1"),
        ("blocks", "enumerate", "--family", FIXTURE_FAM, "--bound", "-1"),
    ], ids=lambda argv: " ".join(argv[:2] + argv[-2:]))
    def test_vacuous_size_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        detail = json.loads(err)
        assert detail["error"] == "InvalidArgumentError"
        assert "must be >=" in detail["message"]

    def test_equivalence_keeps_k_max_1(self, capsys):
        code, payload = run_json(capsys, "model", "equivalence", "--spec", SECTION6,
                                 "--seq1", SEQ_228, "--seq2", SEQ_228, "--k-max", "1")
        assert code == 0
        assert payload["report"] == {"lo": "1", "hi": "1"}

    def test_contains_rule_needs_an_integer(self, capsys):
        code, out, err = run(capsys, "ramsey", "find-mono", "--barrier", CUBE2,
                             "--coloring", '"contains:x"',
                             "--universe", "[1,2,3]", "--target", "2")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "SchemaError"


# A one-element prefix, then pairs: under the even-pair fixture the model
# value at (1/4, 1/4) keeps changing with the probe, so it never stabilizes.
UNSTABLE_SEQ = f'{{"prefix":[{CUBE1}],"tail":{CUBE2}}}'


class TestNotStabilized:
    def test_model_eval_exits_1(self, capsys):
        code, payload = run_json(capsys, "model", "eval", "--spec", FIXTURE,
                                 "--sequence", UNSTABLE_SEQ,
                                 "--coeffs", '["1/4","1/4"]')
        assert code == 1
        assert payload["report"]["stabilized"] is False

    @pytest.mark.parametrize("argv", [
        ("equivalence", "--seq1", UNSTABLE_SEQ, "--seq2", UNSTABLE_SEQ,
         "--k-max", "2"),
        ("consistency", "--sequence", UNSTABLE_SEQ, "--k-max", "3"),
    ])
    def test_needing_a_stable_value_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "model", argv[0], "--spec", FIXTURE, *argv[1:])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "NotStabilizedError"
