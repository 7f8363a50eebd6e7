"""Arbitrary JSON through every JSON flag of every declared subcommand.

Each example puts arbitrary JSON text, lone surrogates and very long
integers among it, into one JSON flag of one subcommand, keeps every other
flag valid and small, and runs ``cli.main``.  The exit code is 0, 1 or 2
and nothing but argparse's ``SystemExit`` escapes; exit 2 writes a JSON
error to standard error and nothing to standard output, and exits 0 and 1
write a JSON report.  Standard output encodes strictly as UTF-8 and
standard error with ``backslashreplace``, as a process's streams do.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockosc import cli


CUBE1 = '{"type":"cube","k":1}'
SUP = '{"type":"sup"}'
SEQ = f'{{"prefix":[],"tail":{CUBE1}}}'
VALUES = '[{"block":[[1]],"value":"1"},{"block":[[2]],"value":"1"}]'

# One small, valid command line per subcommand, flag name to value.
VALID = {
    "barrier members": {"descriptor": CUBE1, "bound": "3"},
    "barrier front": {"descriptor": CUBE1, "set": '{"kind":"naturals"}', "fuel": "50"},
    "barrier axioms": {"descriptor": CUBE1, "bound": "4", "fuel": "50"},
    "barrier rank": {"descriptor": CUBE1, "probe-bound": "6"},
    "blocks enumerate": {"family": f"[{CUBE1}]", "bound": "4"},
    "blocks compare": {"left": "[[1]]", "right": "[[2]]"},
    "blocks join": {"family": f"[{CUBE1}]", "block": "[[1]]"},
    "blocks split": {"family": f"[{CUBE1}]", "set": "[1]"},
    "ramsey find-mono": {"barrier": CUBE1, "coloring": '"parity-of-sum"',
                         "universe": "[1,2,3]", "target": "2"},
    "ramsey metric": {"universe": "[1,2]", "family": f"[{CUBE1}]", "values": VALUES,
                      "epsilon": "1/2", "target": "2"},
    "ramsey diagonal": {"universe": "[1,2]", "family": f"[{CUBE1}]", "values": VALUES},
    "norm eval": {"spec": SUP, "vector": '["1"]'},
    "norm axioms": {"spec": SUP, "k": "2", "grid-q": "2"},
    "norm limit-demo": {"n-max": "4", "grid-q": "2"},
    "oscillation psi": {"spec": SUP, "family": f"[{CUBE1}]", "block": "[[1]]",
                        "coeffs": '["1"]'},
    "oscillation gap": {"spec": SUP, "family": f"[{CUBE1}]", "universe": "[1,2,3]",
                        "grid-q": "2"},
    "oscillation stabilize": {"spec": SUP, "family": f"[{CUBE1}]", "universe": "[1,2,3]",
                              "epsilon": "1/2", "target": "2", "grid-q": "2"},
    "oscillation asymptotic": {"spec": SUP, "family": f"[{CUBE1}]", "horizon": "4",
                               "stages": "2", "grid-q": "2"},
    "model eval": {"spec": SUP, "sequence": SEQ, "coeffs": '["1"]', "probes": "2"},
    "model consistency": {"spec": SUP, "sequence": SEQ, "k-max": "2", "grid-q": "2"},
    "model spreading": {"spec": SUP, "sequence": SEQ, "k": "1", "placements": "[[2]]",
                        "grid-q": "2"},
    "model equivalence": {"spec": SUP, "seq1": SEQ, "seq2": SEQ, "k-max": "1",
                          "grid-q": "2"},
    "verify-section6": {"k-max": "2", "grid-q": "2"},
}


def _reads_json(spec) -> bool:
    kind = spec[0] if isinstance(spec, tuple) else spec
    return kind not in (int, Fraction) and not isinstance(kind, tuple)


# (subcommand, flag) for every flag whose value is JSON text
JSON_FLAGS = [(cmd.name, flag.replace("_", "-")) for cmd in cli._COMMANDS
              for flag, spec in cmd.flags.items() if _reads_json(spec)]


def _argv(name: str, flags: dict) -> list[str]:
    return [*name.split(), *(f"--{flag}={value}" for flag, value in flags.items())]


def _run(argv: list[str]) -> tuple[int, str, str]:
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    out.flush()
    err.flush()
    return code, out.buffer.getvalue().decode(), err.buffer.getvalue().decode()


# The schema's keys and names, so that examples get past the first check.
WORDS = ["type", "kind", "k", "m", "n", "p", "w", "s", "base", "to", "parts", "prefix",
         "tail", "terms", "filter", "object", "color", "name", "entries", "block", "value",
         "start", "step", "ratio", "scale", "cube", "schreier", "restrict", "quotient",
         "sum", "associated", "naturals", "cofinite-after", "arithmetic", "prefix-then",
         "sup", "lp", "mn", "section6", "even-pair", "supfamily", "rule", "table", "geometric",
         "parity-of-sum", "constant:", "contains:", "1/2", "01"]
TEXT = (st.sampled_from(WORDS)
        | st.text(st.characters() | st.characters(categories=["Cs"]), max_size=6)
        | st.tuples(st.sampled_from(WORDS), st.characters(categories=["Cs"])).map("".join))
SCALARS = (st.none() | st.booleans() | st.integers(-2, 12) | st.integers()
           | st.integers(-10**4000, 10**4000) | st.floats(allow_nan=False) | TEXT)
VALUES_JSON = st.recursive(
    SCALARS, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(TEXT, kids, max_size=4),
    max_leaves=10)
# Past the decoder's limits: 5,000 digits, and nesting beyond the recursion limit.
RAW = VALUES_JSON.map(json.dumps) | st.sampled_from(["9" * 5000, "[" * 5000 + "]" * 5000])


def test_every_subcommand_has_a_valid_command_line():
    assert set(VALID) == {cmd.name for cmd in cli._COMMANDS}
    for name, flags in VALID.items():
        code, out, _ = _run(_argv(name, flags))
        assert code in (0, 1), name
        assert json.loads(out)["command"] == name


@pytest.mark.parametrize("name, flag", JSON_FLAGS, ids=[" ".join(c) for c in JSON_FLAGS])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(raw=RAW)
def test_any_json_keeps_the_exit_contract(name, flag, raw):
    flags = {**VALID[name], flag: raw}
    if name == "ramsey find-mono" and flag == "family":
        del flags["barrier"]  # exactly one source
    code, out, err = _run(_argv(name, flags))
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert "error" in json.loads(err)
    else:
        assert json.loads(out)["command"] == name
