"""The library's frozen records are built on their first instance, without ``dataclasses``.

Each one must then behave exactly as the plain ``dataclass(frozen=True)`` it
replaces: same fields, repr, JSON form, equality, hash and guard, also after a
pickle, and whichever thread makes its first instance.
"""

import copy
import dataclasses
import importlib
import os
import pathlib
import pickle
import subprocess
import sys
import threading
import types
from fractions import Fraction as F

import pytest

from blockosc.barriers import Cube, Quotient, Restrict, Schreier
from blockosc.blocks import Block
from blockosc.frozen import FrozenInstanceError, frozen
from blockosc.normspace import AxiomCheck, SupFamily, SupTerm, Vector, mn_norm_spec
from blockosc.oscillation import OscillationReport
from blockosc.serialize import to_json
from blockosc.sets import Arithmetic, CofiniteAfter, FiniteSet, PrefixThen

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("barriers", "blocks", "models", "normspace", "oscillation", "ramsey", "sets")
# decorated too, but with their own constructor, equality, hash and repr: see the last tests
VALUE_TYPES = ("FiniteSet", "Block", "Vector")


def fs(*xs):
    return FiniteSet(xs)


BLOCK = Block((fs(1), fs(2, 3)))
WITNESS_PAIR = (Block((fs(1),)), Block((fs(2),)))

# constructor arguments of one instance of every class, by class name, or a
# function of the class's module giving them
ARGS = {
    "Cube": (2,),
    "Schreier": (),
    "Restrict": (Cube(2), Arithmetic(2, 2)),
    "Quotient": lambda module: (module.Cube(3), fs(2)),  # its check dispatches on the class
    "Sum": ((Cube(1), Cube(2)),),
    "Associated": (Restrict(Cube(2), Arithmetic(2, 2)),),
    "AxiomReport": (False, ((fs(1), fs(1, 2)),), True, (("naturals", fs(1, 2)), ("evens", None))),
    "RankResult": (2, True, "structural", 12),
    "BlockFamily": ((Cube(1), Schreier()),),
    "BarrierSequenceDescriptor": ([Cube(1)], Cube(2)),
    "ModelValue": (F(3, 4), True, ((BLOCK, F(3, 4)),), 2),
    "ConsistencyViolation": (2, (F(1), F(0)), F(1), F(1, 2)),
    "ConsistencyReport": (7, ()),
    "SpreadingWitness": (fs(2, 5), (F(1), F(1, 2)), F(1), F(3, 2)),
    "SpreadingReport": (False, None, 9),
    "Section6Check": ("models differ", True, "a=(1, 1)"),
    "Section6Report": ((), True, 4, 4),
    "SupTerm": (F(3, 4), 2, "even-indices"),
    "SupFamily": ((SupTerm(F(3, 4), 2), SupTerm(F(2, 3), 3, "touches-even")),),
    "LpNorm": (2,),
    "AxiomCheck": (True, True, True, False, True, (("triangle", ((1, 2), (3,))),)),
    "DegenerateLimitReport": (((1, F(1, 2)),), ((1, F(3, 2)),), F(1), F(1, 2),
                              AxiomCheck(True, True, True, True, False, ())),
    "ToleranceSchedule": (F(1, 3), 2),
    "OscillationReport": (F(1, 8), WITNESS_PAIR, (F(1), F(1, 2)), fs(1, 2, 3), 4, 2),
    "StableSubsequenceResult": (True, fs(1, 3), None, fs(1, 3), F(0), F(1, 4), 2, "exhaustive"),
    "StageResult": (0, F(1, 2), 3, True, None, None, None),
    "AsymptoticReport": ((), False, 12),
    "MonochromeWitness": (fs(1, 2), [1, "red"], 3),
    "RamseyResult": (False, None, None, 4, "greedy"),
    "MetricWitness": (fs(2, 4), F(1, 16), 5),
    "MetricResult": (True, None, None, F(1, 8), 3),
    "DiagonalStage": (1, F(1, 2), fs(1, 2, 3), fs(2, 3), 2, F(0)),
    "DiagonalReport": (fs(2, 5), (), True),
    "CofiniteAfter": (4,),
    "Arithmetic": (3, 5),
    "PrefixThen": (fs(1, 2), CofiniteAfter(4)),
}


def plain_copy(name: str) -> types.ModuleType:
    """The module re-run from its source, with ``dataclass(frozen=True)`` in place of ``frozen``."""
    path = SRC / "blockosc" / f"{name}.py"
    text = path.read_text(encoding="utf-8")
    text = text.replace("from .frozen import frozen", "from dataclasses import dataclass")
    text = text.replace("@frozen\n", "@dataclass(frozen=True)\n")
    module = types.ModuleType(f"blockosc.{name}")
    module.__package__ = "blockosc"
    exec(compile(text, str(path), "exec"), module.__dict__)
    return module


def class_pairs():
    """(library module, plain copy, class name) for every record decorated with ``frozen``."""
    for name in MODULES:
        lazy, plain = importlib.import_module(f"blockosc.{name}"), plain_copy(name)
        for attr, cls in vars(plain).items():
            if (isinstance(cls, type) and cls.__module__ == plain.__name__
                    and dataclasses.is_dataclass(cls) and attr not in VALUE_TYPES):
                yield lazy, plain, attr


PAIRS = list(class_pairs())


def plain_json(value):
    """``to_json`` as it reads a record, read off a plain dataclass: its fields, then each
    property its class defines."""
    if isinstance(value, (tuple, list)):
        return [plain_json(x) for x in value]
    if not dataclasses.is_dataclass(value):
        return to_json(value)
    names = [f.name for f in dataclasses.fields(value)]
    names += [n for n, a in vars(type(value)).items() if isinstance(a, property)]
    return {n: plain_json(getattr(value, n)) for n in names}


def test_every_decorated_class_has_sample_arguments():
    assert len(PAIRS) == 36
    assert sorted(name for _, _, name in PAIRS) == sorted(ARGS)


@pytest.mark.parametrize("lazy_module, plain_module, name", PAIRS, ids=[n for _, _, n in PAIRS])
def test_each_class_behaves_as_a_plain_frozen_dataclass(lazy_module, plain_module, name):
    lazy, plain, args = getattr(lazy_module, name), getattr(plain_module, name), ARGS[name]
    lazy_args, plain_args = ((args(lazy_module), args(plain_module)) if callable(args)
                             else (args, args))
    a, b = lazy(*lazy_args), plain(*plain_args)
    assert lazy._fields == tuple(f.name for f in dataclasses.fields(b)) == lazy.__match_args__
    assert repr(a) == repr(b)
    assert to_json(a) == plain_json(b)
    assert a == lazy(*lazy_args) and b == plain(*plain_args)
    assert a != b and b != a  # a dataclass equals only instances of its own class
    try:
        want = hash(b)
    except TypeError:  # a list field, as in a JSON colour
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == want == hash(lazy(*lazy_args))
    name = lazy._fields[0] if lazy._fields else "x"
    for op in (lambda obj: setattr(obj, name, None), lambda obj: delattr(obj, name)):
        with pytest.raises(FrozenInstanceError) as mine:
            op(a)
        with pytest.raises(dataclasses.FrozenInstanceError) as theirs:
            op(b)
        assert str(mine.value) == str(theirs.value)
    cached = {"__slotnames__"}  # copyreg caches it on a class once any test pickles an instance
    mine = {"_fields", "__reduce__"}
    theirs = {"__dataclass_fields__", "__dataclass_params__", "__replace__"}  # 3.13 adds the last
    assert set(vars(lazy)) - mine - cached == set(vars(plain)) - theirs - cached
    assert "__setstate__" not in vars(lazy)


@pytest.mark.parametrize("module, name", [(m, n) for m, _, n in PAIRS],
                         ids=[n for _, _, n in PAIRS])
def test_each_record_pickles_and_copies_through_its_constructor(module, name):
    cls, args = getattr(module, name), ARGS[name]
    obj = cls(*(args(module) if callable(args) else args))
    assert obj.__reduce__() == (cls, tuple(getattr(obj, n) for n in cls._fields))
    twins = (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj))
    for twin in twins:
        assert type(twin) is cls and twin == obj and repr(twin) == repr(obj)
    try:
        want = hash(obj)
    except TypeError:  # a list field, as in a JSON colour
        return
    assert [hash(twin) for twin in twins] == [want] * 3


def run_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                          timeout=120, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_cli_imports_neither_dataclasses_nor_inspect():
    code = "import sys, blockosc.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert run_python(code).strip() == "[]"


LOAD = """
import pickle
from blockosc.barriers import Cube, Restrict, Schreier
from blockosc.frozen import _first_init
from blockosc.normspace import SupFamily, mn_norm_spec
from blockosc.sets import Arithmetic
loaded = pickle.loads(bytes.fromhex(PAYLOAD))
print(all(type(x).__init__ is not _first_init for x in loaded), "_plan" in vars(loaded[0]))
fresh = (mn_norm_spec(2, 3), Restrict(Cube(2), Arithmetic(2, 2)), Schreier(), SupFamily(()))
print(loaded == fresh, [hash(x) for x in loaded] == [hash(x) for x in fresh])
print(loaded[0]._plan == fresh[0]._plan, [repr(x) for x in loaded])
"""


def test_objects_pickled_here_load_equal_in_a_fresh_interpreter():
    # a load calls each class on its field values, so the call builds the
    # class; the cached plan is not among the fields, and is computed again
    spec = mn_norm_spec(2, 3)
    spec._plan  # cached in the instance's __dict__, which a pickle does not send
    objs = (spec, Restrict(Cube(2), Arithmetic(2, 2)), Schreier(), SupFamily(()))
    out = run_python(LOAD.replace("PAYLOAD", repr(pickle.dumps(objs).hex())))
    assert out.splitlines() == ["True False", "True True", f"True {[repr(x) for x in objs]}"]


VALUES = ((fs(1), "elements"), (BLOCK, "parts"), (Vector({1: 1}), "entries"))


def test_immutable_values_and_records_holding_them_copy_and_pickle():
    # FiniteSet, Block and Vector refuse attribute writes, so each rebuilds
    # through its checked constructor, as the records do
    objs = (fs(1, 3), BLOCK, Vector({1: F(1, 2), 3: -2}), Quotient(Cube(3), fs(2)),
            PrefixThen(fs(1, 2), CofiniteAfter(4)), OscillationReport(*ARGS["OscillationReport"]))
    for obj in objs:
        for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert type(twin) is type(obj) and twin == obj and hash(twin) == hash(obj)
            assert repr(twin) == repr(obj)
    for obj, field in VALUES:
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{field}'$"):
            setattr(obj, field, None)


@pytest.mark.parametrize("obj, field", VALUES, ids=VALUE_TYPES)
def test_value_types_refuse_deletion(obj, field):
    with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{field}'$"):
        delattr(obj, field)
    assert type(obj)(getattr(obj, field)) == obj and hash(obj) == hash(copy.copy(obj))


def test_a_derived_record_takes_its_base_fields_then_its_own():
    def pair(decorate):
        @decorate
        class Base:
            a: int

        @decorate
        class Derived(Base):
            b: str = "x"

            def __post_init__(self):
                if not self.b:
                    raise ValueError("empty b")

        return Base, Derived

    base, derived = pair(frozen)
    plain_base, plain_derived = pair(dataclasses.dataclass(frozen=True))
    d, want = derived(1), plain_derived(1)
    assert repr(d) == repr(want) == f"{derived.__qualname__}(a=1, b='x')"
    assert repr(base(2)) == repr(plain_base(2))
    assert derived._fields == ("a", "b") == tuple(f.name for f in dataclasses.fields(want))
    assert d == derived(1, "x") == copy.deepcopy(d) and d != base(1) and hash(d) == hash(want)
    with pytest.raises(ValueError, match="empty b"):
        derived(1, "")


def test_threads_racing_to_a_fresh_class_all_make_their_instances():
    def make(cls, i, start, failures):
        try:
            start.wait(timeout=30)
            obj = cls(i, [i])
            assert obj == cls(i, (i,))
            assert repr(obj) == f"{cls.__qualname__}(a={i}, b=({i},), c=None)"
        except Exception as exc:  # noqa: BLE001 - every failure is reported below
            failures.append(f"{type(exc).__name__}: {exc}")

    interval, failures, stuck = sys.getswitchinterval(), [], 0
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(300):
            @frozen
            class Rec:
                a: int
                b: tuple = ()
                c: object = None

                def __post_init__(self):
                    object.__setattr__(self, "b", tuple(self.b))

            start = threading.Barrier(8)
            threads = [threading.Thread(target=make, args=(Rec, i, start, failures))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            stuck += sum(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert stuck == 0 and failures == []
