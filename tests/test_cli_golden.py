"""Byte-for-byte reports of every subcommand, pinned in a golden file.

Each case runs one command line through ``cli.main`` and compares its exit
code and standard output with ``tests/data/cli_golden.json``.  Every one of
the 23 subcommands has a JSON case; the nested reports have a CSV case too.

After a deliberate change to a report, rewrite the file with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import io
import json
import pathlib

import pytest

from blockosc.cli import main

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.json"

CUBE1 = '{"type":"cube","k":1}'
CUBE2 = '{"type":"cube","k":2}'
CUBE8 = '{"type":"cube","k":8}'
PAIR_FAM = f"[{CUBE2},{CUBE2}]"
FIXTURE_FAM = f"[{CUBE1},{CUBE1}]"
SEQ_8 = f'{{"prefix":[],"tail":{CUBE8}}}'
SEQ_228 = f'{{"prefix":[{CUBE2},{CUBE2}],"tail":{CUBE8}}}'
SECTION6 = '{"type":"section6"}'
FIXTURE = '{"type":"even-pair"}'
VALUES = json.dumps([{"block": [[i]], "value": "1" if i % 3 else "5/2"}
                     for i in range(1, 8)])

CASES = {
    "barrier members": ("barrier", "members", "--descriptor",
                        '{"type":"schreier"}', "--bound", "5"),
    "barrier front": ("barrier", "front", "--descriptor", CUBE2,
                      "--set", '{"kind":"arithmetic","start":3,"step":2}'),
    "barrier axioms": ("barrier", "axioms", "--descriptor", CUBE2,
                       "--bound", "6"),
    "barrier axioms failing": ("barrier", "axioms", "--descriptor",
                               '{"type":"schreier"}', "--bound", "5",
                               "--fuel", "3"),
    "barrier rank": ("barrier", "rank", "--descriptor",
                     f'{{"type":"sum","parts":[{CUBE2},{CUBE1}]}}'),
    "blocks enumerate": ("blocks", "enumerate", "--family", PAIR_FAM,
                         "--bound", "6"),
    "blocks compare": ("blocks", "compare", "--left", "[[1],[3]]",
                       "--right", "[[2],[4]]"),
    "blocks join": ("blocks", "join", "--family", PAIR_FAM,
                    "--block", "[[1,2],[5,9]]"),
    "blocks split": ("blocks", "split", "--family", PAIR_FAM,
                     "--set", "[1,2,5,9]"),
    "blocks split miss": ("blocks", "split", "--family", PAIR_FAM,
                          "--set", "[1,2,3]"),
    "ramsey find-mono": ("ramsey", "find-mono", "--barrier", CUBE2,
                         "--coloring", '"parity-of-sum"',
                         "--universe", "[1,2,3,4,5,6,7,8]", "--target", "4"),
    "ramsey find-mono miss": ("ramsey", "find-mono", "--family", FIXTURE_FAM,
                              "--coloring", '"contains:3"',
                              "--universe", "[1,2,3,4,5]", "--target", "5"),
    "ramsey metric": ("ramsey", "metric", "--family", f"[{CUBE1}]",
                      "--values", VALUES, "--epsilon", "1/2",
                      "--universe", "[1,2,3,4,5,6,7]", "--target", "3"),
    "ramsey diagonal": ("ramsey", "diagonal", "--family", f"[{CUBE1}]",
                        "--values", VALUES,
                        "--universe", "[1,2,3,4,5,6,7]"),
    "norm eval": ("norm", "eval", "--spec", SECTION6,
                  "--vector", '{"1":"1","2":"-1/2","5":"3"}'),
    "norm axioms": ("norm", "axioms", "--spec", SECTION6, "--k", "2",
                    "--grid-q", "2"),
    "norm limit-demo": ("norm", "limit-demo", "--n-max", "5",
                        "--grid-q", "2"),
    "oscillation psi": ("oscillation", "psi", "--spec", SECTION6,
                        "--family", PAIR_FAM, "--block", "[[1,2],[3,4]]",
                        "--coeffs", '["1","1/2"]'),
    "oscillation gap": ("oscillation", "gap", "--spec", FIXTURE,
                        "--family", FIXTURE_FAM,
                        "--universe", "[1,2,3,4,5,6]", "--grid-q", "2"),
    "oscillation stabilize": ("oscillation", "stabilize", "--spec", FIXTURE,
                              "--family", FIXTURE_FAM, "--epsilon", "1/4",
                              "--universe", "[1,2,3,4,5,6,7]",
                              "--target", "3", "--grid-q", "2"),
    "oscillation stabilize miss": ("oscillation", "stabilize",
                                   "--spec", FIXTURE, "--family", FIXTURE_FAM,
                                   "--epsilon", "1/4",
                                   "--universe", "[1,2,3,4]",
                                   "--target", "4", "--grid-q", "2"),
    "oscillation asymptotic": ("oscillation", "asymptotic", "--spec", FIXTURE,
                               "--family", FIXTURE_FAM, "--horizon", "10",
                               "--stages", "2", "--grid-q", "2"),
    "model eval": ("model", "eval", "--spec", SECTION6, "--sequence", SEQ_228,
                   "--coeffs", '["1","1"]'),
    "model consistency": ("model", "consistency", "--spec", SECTION6,
                          "--sequence", SEQ_228, "--k-max", "2",
                          "--grid-q", "2"),
    "model spreading": ("model", "spreading", "--spec", SECTION6,
                        "--sequence", SEQ_228, "--k", "2",
                        "--placements", "[[3,4],[2,5]]", "--grid-q", "2"),
    "model equivalence": ("model", "equivalence", "--spec", SECTION6,
                          "--seq1", SEQ_8, "--seq2", SEQ_228,
                          "--k-max", "2", "--grid-q", "2"),
    "verify-section6": ("verify-section6", "--k-max", "2", "--grid-q", "2"),
    "verify-section6 failing": ("verify-section6", "--spec", FIXTURE),
}

# Reports with nested objects or arrays of objects, whose CSV rows carry
# dotted and indexed keys.
CSV_CASES = ("ramsey find-mono", "ramsey diagonal", "norm limit-demo",
             "oscillation stabilize", "oscillation stabilize miss",
             "oscillation asymptotic", "model eval", "model spreading",
             "verify-section6")


def _all_cases() -> dict[str, tuple[str, ...]]:
    cases = {f"{name} json": argv for name, argv in CASES.items()}
    cases.update({f"{name} csv": CASES[name] + ("--format", "csv")
                  for name in CSV_CASES})
    return cases


def _run(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue()}


def test_every_subcommand_has_a_case():
    covered = {" ".join(argv[:2]) if argv[0] != "verify-section6"
               else argv[0] for argv in CASES.values()}
    assert len(covered) == 23


def test_golden_file_lists_every_case():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == \
        sorted(_all_cases())


@pytest.mark.parametrize("case", sorted(_all_cases()))
def test_report_bytes(case):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[case]
    assert _run(_all_cases()[case]) == want


if __name__ == "__main__":
    data = {case: _run(argv) for case, argv in sorted(_all_cases().items())}
    GOLDEN.write_text(json.dumps(data, indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
