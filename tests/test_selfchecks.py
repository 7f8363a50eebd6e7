"""Self-checks are explicit raises, so ``python -O`` keeps them."""

import ast
import os
import pathlib
import subprocess
import sys
import types

import pytest

import blockosc
from blockosc import models
from blockosc.errors import InternalCheckError
from blockosc.models import equivalence_constants, eights_sequence
from blockosc.normspace import section6_spec

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_no_assert_statements_in_the_package():
    found = []
    for path in sorted((SRC / "blockosc").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_verify_section6_under_optimize_matches_golden():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "blockosc.cli", "verify-section6"],
        capture_output=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    golden = (ROOT / "tests" / "data" / "section6_golden.json").read_bytes()
    assert proc.stdout == golden


RELOAD = """
import gc, importlib, pkgutil, sys, weakref

def load_every_module():
    for info in pkgutil.iter_modules(importlib.import_module("blockosc").__path__):
        importlib.import_module("blockosc." + info.name)

load_every_module()
stale = weakref.ref(sys.modules["blockosc.blocks"].Block)
for name in [n for n in sys.modules if n == "blockosc" or n.startswith("blockosc.")]:
    del sys.modules[name]
gc.collect()
load_every_module()
gc.collect()
print(stale() is None)
"""


def test_a_reimport_frees_the_previous_copy():
    # a module-level typing.Union of library classes stays in typing's cache
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", RELOAD], capture_output=True,
                          env=env, timeout=120, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


def test_the_package_binds_only_its_modules():
    # each public name has one import path: the module that defines it
    public = {n: v for n, v in vars(blockosc).items() if not n.startswith("_")}
    assert public and all(isinstance(v, types.ModuleType) and v.__name__ == f"blockosc.{n}"
                          for n, v in public.items()), sorted(public)


def test_internal_check_error_is_raised_not_asserted(monkeypatch):
    # a grid of zero tuples only leaves equivalence_constants nothing to compare
    monkeypatch.setattr(models, "_grid", lambda k, q, lo: [(0,) * k])
    with pytest.raises(InternalCheckError):
        equivalence_constants(section6_spec(), eights_sequence(), eights_sequence(), 2)
