"""Command line front end.

Every subcommand reads JSON (inline or @path), runs one library operation,
and writes its result, encoded by ``serialize.to_json``, as a deterministic
report: JSON with sorted keys or a flat CSV of dotted key/value rows.  Exit
codes: 0 success, 1 legitimate negative outcome (no witness, not stabilized,
failed checks), 2 invalid input.

Each subcommand is declared once, by ``_command`` on its handler.  The
keyword options, in order, are its flags and the order they are decoded in.
A flag is read by a serialize parser (inline or @path JSON), ``int``, a
tuple of choices, ``Fraction`` (``parse_rational`` on the raw text at
``$.name``), or ``str``: raw JSON text that the handler decodes itself.
``(kind, default)`` makes a flag optional.  The handler takes the decoded
values and returns ``(exit_code, report)``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Optional

from . import models, normspace, oscillation, ramsey, serialize
from .barriers import FRONT_FUEL_DEFAULT, check_axioms, contains, enumerate_up_to, front, rank
from .blocks import block_compare, enumerate_blocks, from_concat
from .errors import (InsufficientBlocksError, InvalidArgumentError, NoFrontFoundError,
                     NotInSumError, NotStabilizedError, SchemaError)
from .serialize import (SCHEMA_VERSION, dumps, parse_barrier, parse_block, parse_coeffs,
                        parse_coloring, parse_family, parse_finite_set, parse_generator,
                        parse_placements, parse_rational, parse_schedule, parse_sequence,
                        parse_spec, parse_values_table, parse_vector, to_json)

OUT_DIR_ENV = "BLOCKOSC_OUT_DIR"


def _refuse_constant(name: str) -> Any:
    raise ValueError(f"{name} is not a JSON number")


# Python's json module reads NaN and Infinity, which are not JSON.
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def _load_json(raw: str, flag: str) -> Any:
    """Inline JSON, or @path to a JSON file."""
    if raw.startswith("@"):
        try:
            with open(raw[1:], "r", encoding="utf-8") as fh:
                raw = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise SchemaError("$", f"cannot read {flag} file: {exc}")
    try:
        return _DECODER.decode(raw)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise SchemaError("$", f"invalid JSON for {flag}: {exc}")


def _flatten(prefix: str, value: Any, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], rows)
    elif isinstance(value, list):
        if all(not isinstance(x, (dict, list)) for x in value):
            rows.append((prefix, " ".join(str(x) for x in value)))
        else:
            for i, x in enumerate(value):
                _flatten(f"{prefix}[{i}]", x, rows)
    elif value is None:
        rows.append((prefix, ""))
    else:
        rows.append((prefix, str(value)))


def _emit(report: dict, command: str, args) -> None:
    payload = {"schema_version": SCHEMA_VERSION, "command": command,
               "report": report}
    if args.format == "csv":
        rows: list[tuple[str, str]] = []
        _flatten("", payload, rows)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("key", "value"))
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = dumps(payload)
    if args.out:
        path = args.out
        base = os.environ.get(OUT_DIR_ENV)
        if base and not os.path.isabs(path):
            path = os.path.join(base, path)
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidArgumentError(f"cannot write --out file: {exc}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands; each handler returns (exit_code, report)


class _Command(NamedTuple):
    name: str
    help: str
    flags: dict  # flag name -> kind, or (kind, default)
    handler: Callable[..., tuple[int, dict]]


_COMMANDS: list[_Command] = []
_STRATEGY = (("exhaustive", "greedy"), "exhaustive")
_GEOMETRIC = (parse_schedule, '{"kind":"geometric"}')


def _command(name: str, help: str, **flags):
    """Declare the subcommand ``name`` on its handler (see the module docstring)."""
    def declare(handler):
        _COMMANDS.append(_Command(name, help, flags, handler))
        return handler
    return declare


def _check_block_in_family(blk, fam) -> None:
    """Raise unless each part of the block is a member of its barrier."""
    if len(blk.parts) != len(fam.parts):
        raise InvalidArgumentError(
            f"block has {len(blk.parts)} parts, family expects {len(fam.parts)}")
    for i, (part, part_fam) in enumerate(zip(blk.parts, fam.parts)):
        if not contains(part_fam, part):
            raise InvalidArgumentError(f"block part {i + 1} ({part}) is not a member of its family")


@_command("barrier members", "enumerate members up to a bound",
          descriptor=parse_barrier, bound=int)
def _barrier_members(descriptor, bound):
    members = enumerate_up_to(descriptor, bound)
    return 0, {"members": to_json(members), "count": len(members)}


@_command("barrier front", "initial segment landing in the family "
                           "(--set: an infinite set generator JSON)",
          descriptor=parse_barrier, set=parse_generator, fuel=(int, FRONT_FUEL_DEFAULT))
def _barrier_front(descriptor, set, fuel):
    return 0, {"front": to_json(front(descriptor, set, fuel))}


@_command("barrier axioms", "Sperner and cover checks", descriptor=parse_barrier,
          bound=(int, 12), seed=(int, 0), fuel=(int, 10_000))
def _barrier_axioms(descriptor, bound, seed, fuel):
    rep = check_axioms(descriptor, bound, seed=seed, fuel=fuel)
    return (0 if rep.sperner_ok and rep.cover_ok else 1), to_json(rep)


@_command("barrier rank", "lexicographic rank", descriptor=parse_barrier,
          probe_bound=(int, None))
def _barrier_rank(descriptor, probe_bound):
    res = rank(descriptor, probe_bound=probe_bound)
    return 0, {"rank": str(res), "confirmed": res.confirmed,
               "method": res.method, "probe_bound": res.probe_bound}


@_command("blocks enumerate", "all blocks up to a bound", family=parse_family,
          bound=int, within=(parse_finite_set, None))
def _blocks_enumerate(family, bound, within):
    blocks = enumerate_blocks(family, bound, within=within)
    return 0, {"blocks": to_json(blocks), "count": len(blocks)}


@_command("blocks compare", "directed block order", left=parse_block, right=parse_block)
def _blocks_compare(left, right):
    return 0, {"relation": block_compare(left, right)}


@_command("blocks join", "block to concatenation set", family=parse_family,
          block=parse_block)
def _blocks_join(family, block):
    _check_block_in_family(block, family)
    return 0, {"set": to_json(block.union())}


@_command("blocks split", "concatenation set back to a block", family=parse_family,
          set=parse_finite_set)
def _blocks_split(family, set):
    try:
        blk = from_concat(family, set)
    except NotInSumError as exc:
        return 1, {"error": "not-in-sum", "consumed": to_json(exc.consumed),
                   "leftover": to_json(exc.leftover), "message": str(exc)}
    return 0, {"block": to_json(blk)}


@_command("ramsey find-mono", "monochromatic subset search", barrier=(str, None),
          family=(str, None), coloring=str, universe=parse_finite_set, target=int,
          strategy=_STRATEGY)
def _ramsey_find_mono(barrier, family, coloring, universe, target, strategy):
    # The source is checked before --barrier, --family or --coloring is read.
    if (barrier is None) == (family is None):
        raise InvalidArgumentError("exactly one of --barrier or --family is required")
    source = (parse_barrier(_load_json(barrier, "--barrier")) if family is None
              else parse_family(_load_json(family, "--family")))
    coloring = parse_coloring(_load_json(coloring, "--coloring"))
    res = ramsey.find_monochromatic(source, coloring, universe, target, strategy)
    return (0 if res.found else 1), to_json(res)


@_command("ramsey metric", "stabilize a rational block coloring",
          universe=parse_finite_set, family=parse_family, values=parse_values_table,
          epsilon=Fraction, target=int)
def _ramsey_metric(universe, family, values, epsilon, target):
    res = ramsey.metric_stabilize(family, values, epsilon, universe, target)
    return (0 if res.found else 1), to_json(res)


@_command("ramsey diagonal", "schedule-driven diagonalization",
          universe=parse_finite_set, family=parse_family, values=parse_values_table,
          schedule=_GEOMETRIC)
def _ramsey_diagonal(universe, family, values, schedule):
    return 0, to_json(ramsey.diagonal_stabilize(family, values, schedule, universe))


@_command("norm eval", "evaluate a spec on a vector", spec=parse_spec,
          vector=parse_vector)
def _norm_eval(spec, vector):
    value, exact = normspace.norm_eval_detailed(spec, vector)
    return 0, {"value": to_json(value), "exact": exact}


@_command("norm axioms", "norm axioms on a grid sample", spec=parse_spec, k=int,
          grid_q=(int, 4))
def _norm_axioms(spec, k, grid_q):
    chk = normspace.check_seminorm_axioms(normspace.spec_evaluator(spec, k), k, grid_q)
    return (0 if chk.all_pass else 1), to_json(chk)


@_command("norm limit-demo", "norm sequence collapsing to a seminorm",
          n_max=(int, 64), grid_q=(int, 8))
def _norm_limit_demo(n_max, grid_q):
    return 0, to_json(normspace.degenerate_limit_demo(n_max, grid_q))


@_command("oscillation psi", "norm of a coefficient block combination",
          spec=parse_spec, family=parse_family, block=parse_block, coeffs=parse_coeffs)
def _oscillation_psi(spec, family, block, coeffs):
    _check_block_in_family(block, family)
    return 0, {"value": to_json(oscillation.psi_eval(spec, block, coeffs))}


@_command("oscillation gap", "largest pairwise disagreement", spec=parse_spec,
          family=parse_family, universe=parse_finite_set, grid_q=(int, 8))
def _oscillation_gap(spec, family, universe, grid_q):
    return 0, to_json(oscillation.oscillation_gap(spec, family, universe, grid_q))


@_command("oscillation stabilize", "search for a stable subset", spec=parse_spec,
          family=parse_family, universe=parse_finite_set, epsilon=Fraction,
          target=int, strategy=_STRATEGY, grid_q=(int, 8))
def _oscillation_stabilize(spec, family, universe, epsilon, target, strategy, grid_q):
    res = oscillation.find_stable_subsequence(spec, family, epsilon, universe, target,
                                              strategy, grid_q)
    return (0 if res.found else 1), to_json(res)


@_command("oscillation asymptotic", "tail stabilization per stage (--universe: an "
                                    "optional generator JSON restricting the ground set)",
          spec=parse_spec, family=parse_family, horizon=int, schedule=_GEOMETRIC,
          universe=(parse_generator, None), stages=(int, 12), grid_q=(int, 8))
def _oscillation_asymptotic(spec, family, horizon, schedule, universe, stages, grid_q):
    rep = oscillation.asymptotic_stability_check(
        spec, family, schedule, horizon, universe=universe, max_stages=stages,
        grid_q=grid_q)
    return (0 if rep.all_passed else 1), to_json(rep)


@_command("model eval", "evaluate the limit norm at coefficients", spec=parse_spec,
          sequence=parse_sequence, coeffs=parse_coeffs, tail_offset=(int, None),
          probes=(int, 3), tolerance=(Fraction, "0"))
def _model_eval(spec, sequence, coeffs, tail_offset, probes, tolerance):
    mv = models.model_eval(spec, sequence, coeffs, tail_offset=tail_offset,
                           probe_count=probes, tolerance=tolerance)
    probes = [{"block": to_json(b), "value": to_json(v)} for b, v in mv.probes]
    return (0 if mv.stabilized else 1), {**to_json(mv), "probes": probes}


@_command("model consistency", "appended zeros change nothing", spec=parse_spec,
          sequence=parse_sequence, k_max=int, grid_q=(int, 4))
def _model_consistency(spec, sequence, k_max, grid_q):
    rep = models.consistency_check(spec, sequence, k_max, grid_q)
    return (0 if rep.holds else 1), to_json(rep)


@_command("model spreading", "relocation invariance check", spec=parse_spec,
          sequence=parse_sequence, k=int, placements=parse_placements, grid_q=(int, 4))
def _model_spreading(spec, sequence, k, placements, grid_q):
    rep = models.spreading_check(spec, sequence, k, placements, grid_q)
    return (0 if rep.holds else 1), to_json(rep)


@_command("model equivalence", "empirical equivalence constants", spec=parse_spec,
          seq1=parse_sequence, seq2=parse_sequence, k_max=int, grid_q=(int, 4))
def _model_equivalence(spec, seq1, seq2, k_max, grid_q):
    lo, hi = models.equivalence_constants(spec, seq1, seq2, k_max, grid_q)
    return 0, {"lo": to_json(lo), "hi": to_json(hi)}


@_command("verify-section6", "aggregate check of the worked two-model example",
          spec=(parse_spec, None), k_max=(int, 4), grid_q=(int, 4))
def _verify_section6(spec, k_max, grid_q):
    rep = models.verify_section6(spec, k_max=k_max, grid_q=grid_q)
    return (0 if rep.all_passed else 1), to_json(rep)


# ---------------------------------------------------------------------------
# Parser and dispatch

_GROUPS = {"barrier": "barrier families", "blocks": "blocks of barrier tuples",
           "ramsey": "finite Ramsey searches", "norm": "norm spec evaluation",
           "oscillation": "block oscillation measurements",
           "model": "limit norms along barrier sequences"}


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of the declared subcommands, built on first use and
    shared by later calls."""
    top = argparse.ArgumentParser(
        prog="blockosc",
        description="Barrier combinatorics, block norms, and limit models "
                    "with exact rational arithmetic.",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)
    groups: dict[str, Any] = {}
    for cmd in _COMMANDS:
        group, _, action = cmd.name.partition(" ")
        if action and group not in groups:
            groups[group] = sub.add_parser(group, help=_GROUPS[group]).add_subparsers(
                dest="action", required=True)
        p = (groups[group] if action else sub).add_parser(action or group, help=cmd.help,
                                                          description=cmd.help)
        for flag, spec in cmd.flags.items():
            kind, *default = spec if isinstance(spec, tuple) else (spec,)
            p.add_argument("--" + flag.replace("_", "-"), required=not default,
                           default=default[0] if default else None,
                           **({"type": int} if kind is int else
                              {"choices": kind} if isinstance(kind, tuple) else {}))
        p.add_argument("--out", help="output file (relative paths join "
                                     f"${OUT_DIR_ENV} when set)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.set_defaults(command=cmd)
    return top


# SchemaError is an InvalidArgumentError
_INPUT_ERRORS = (InvalidArgumentError, NoFrontFoundError, InsufficientBlocksError,
                 NotStabilizedError)


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    cmd = args.command
    try:
        values = {}
        for name, spec in cmd.flags.items():
            kind = spec[0] if isinstance(spec, tuple) else spec
            raw = values[name] = getattr(args, name)
            if raw is None or kind in (int, str) or isinstance(kind, tuple):
                continue  # absent, or passed on as argparse read it
            if kind is Fraction:
                values[name] = parse_rational(raw, f"$.{name}")
            else:  # by name: perfbench's tracer wraps parsers by rebinding them
                parse = getattr(serialize, kind.__name__)
                values[name] = parse(_load_json(raw, "--" + name.replace("_", "-")))
        code, report = cmd.handler(**values)
        _emit(report, cmd.name, args)
    except _INPUT_ERRORS as exc:
        detail = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, SchemaError):
            detail["path"] = exc.path
        sys.stderr.write(dumps(detail))
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
