"""Mutation sweep: flip one comparison or one ``± 1`` at a time, run the tests.

    python tools/mutants.py src/blockosc/closedform.py tests/test_closedform.py \
        [more test files ...]

Each mutant changes exactly one thing in the module:

- one comparison operator is flipped (``<``/``<=``, ``>``/``>=``, ``==``/``!=``,
  ``is``/``is not``); each operator of a chained comparison is its own mutant;
- or one ``x + 1`` / ``x - 1`` becomes ``x + 0`` / ``x - 0``;
- or one boolean operation swaps ``and`` and ``or`` (all its operands at once);
- or one use of the name ``min`` becomes ``max``, or ``max`` becomes ``min``,
  whether it is called or passed along, as in ``map(max, cols)``.

The script copies ``src/`` and ``tests/`` to a temporary directory, writes each
mutant there (as ``ast.unparse`` of the mutated tree, so comments and layout
are dropped), and runs the named test files against it with ``pytest -x``.
A mutant survives when every test passes; one that runs longer than
``TIMEOUT`` seconds counts as killed.  Before the mutants it runs the
unmutated, unparsed module as a control, which must pass.  The repository
itself is never written to.  The exit status is 0 when no mutant survives.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 600.0  # seconds per test run

FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
         ast.And: ast.Or, ast.Or: ast.And}
NAMES = {"min": "max", "max": "min"}
# The operand of a site that is no comparison operator's index.
PLUS_ONE, BOOL_OP, NAME = -1, -2, -3


def sites(tree: ast.AST) -> list[tuple[int, int, int, str]]:
    """Every mutation site as (line, node index in ast.walk order, operand, mutant).

    The operand is the index of the flipped operator of a comparison, or
    ``PLUS_ONE``, ``BOOL_OP`` or ``NAME``; the mutant is the mutated
    expression as source.
    """
    out = []
    for i, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            ops = [j for j, op in enumerate(node.ops) if type(op) in FLIPS]
        elif (isinstance(node, ast.BinOp) and type(node.op) in (ast.Add, ast.Sub)
              and isinstance(node.right, ast.Constant) and type(node.right.value) is int
              and node.right.value == 1):
            ops = [PLUS_ONE]
        elif isinstance(node, ast.BoolOp):
            ops = [BOOL_OP]
        elif isinstance(node, ast.Name) and node.id in NAMES and isinstance(node.ctx, ast.Load):
            ops = [NAME]
        else:
            continue
        for j in ops:
            shown = ast.unparse(_flip(copy.deepcopy(node), j))
            out.append((node.lineno, i, j, f"{node.id} -> {shown}" if j == NAME else shown))
    return sorted(out)


def _flip(node: ast.AST, operand: int) -> ast.AST:
    if operand >= 0:
        node.ops[operand] = FLIPS[type(node.ops[operand])]()
    elif operand == PLUS_ONE:
        node.right = ast.copy_location(ast.Constant(0), node.right)
    elif operand == BOOL_OP:
        node.op = FLIPS[type(node.op)]()
    else:
        node.id = NAMES[node.id]
    return node


def mutate(source: str, index: int, operand: int) -> str:
    tree = ast.parse(source)
    _flip(list(ast.walk(tree))[index], operand)
    return ast.unparse(tree)


def run_tests(work: Path, tests: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "killed (timeout)"
    return "SURVIVED" if done.returncode == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("module", help="module to mutate, relative to the repository root")
    ap.add_argument("tests", nargs="+", help="test files to run against each mutant")
    args = ap.parse_args(argv)

    source = (ROOT / args.module).read_text(encoding="utf-8")
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        return sweep(Path(tmp).resolve(), args.module, source, args.tests)


def sweep(work: Path, module: str, source: str, tests: list[str]) -> int:
    junk = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, work / part, ignore=junk)
    target = work / module

    name = ".".join(Path(module).with_suffix("").parts[1:])
    env = dict(os.environ, PYTHONPATH=str(work / "src"))
    where = subprocess.run([sys.executable, "-c", f"import {name}; print({name}.__file__)"],
                           cwd=work, env=env, capture_output=True, text=True).stdout.strip()
    if Path(where) != target:
        print(f"{name} imports from {where or 'nowhere'}, not from the temporary copy")
        return 2
    target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
    if run_tests(work, tests) != "SURVIVED":
        print("control run failed: the unmutated module does not pass these tests")
        return 2

    found = sites(ast.parse(source))
    survived = 0
    for line, index, operand, shown in found:
        target.write_text(mutate(source, index, operand), encoding="utf-8")
        verdict = run_tests(work, tests)
        survived += verdict == "SURVIVED"
        print(f"{module}:{line}: {shown}  {verdict}", flush=True)
    print(f"{survived} of {len(found)} mutants survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
