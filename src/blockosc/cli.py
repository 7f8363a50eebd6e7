"""Command line front end.

Every subcommand reads JSON (inline or @path), runs one library operation,
and writes its result, encoded by ``serialize.to_json``, as a deterministic
report: JSON with sorted keys or a flat CSV of dotted key/value rows.  Exit
codes: 0 success, 1 legitimate negative outcome (no witness, not stabilized,
failed checks), 2 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from typing import Any, Optional

from . import models, normspace, oscillation, ramsey
from .barriers import FRONT_FUEL_DEFAULT, check_axioms, contains, enumerate_up_to, front, rank
from .blocks import block_compare, enumerate_blocks, from_concat, to_concat
from .errors import (
    InsufficientBlocksError,
    InvalidArgumentError,
    NoFrontFoundError,
    NotInSumError,
    NotStabilizedError,
    SchemaError,
)
from .serialize import (
    SCHEMA_VERSION,
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
        except OSError as exc:
            raise SchemaError("$", f"cannot read {flag} file: {exc}")
    try:
        return _DECODER.decode(raw)
    except ValueError as exc:  # JSONDecodeError is one
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
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommand handlers; each returns (exit_code, report)


def _check_block_in_family(blk, fam) -> None:
    """Raise unless each part of the block is a member of its barrier."""
    if len(blk.parts) != len(fam.parts):
        raise InvalidArgumentError(
            f"block has {len(blk.parts)} parts, family expects "
            f"{len(fam.parts)}"
        )
    for i, (part, part_fam) in enumerate(zip(blk.parts, fam.parts)):
        if not contains(part_fam, part):
            raise InvalidArgumentError(
                f"block part {i + 1} ({part}) is not a member of its "
                f"family"
            )


def _cmd_barrier(args) -> tuple[int, dict]:
    b = parse_barrier(_load_json(args.descriptor, "--descriptor"))
    if args.action == "members":
        members = enumerate_up_to(b, args.bound)
        return 0, {"members": to_json(members), "count": len(members)}
    if args.action == "front":
        g = parse_generator(_load_json(args.set, "--set"))
        return 0, {"front": to_json(front(b, g, args.fuel))}
    if args.action == "axioms":
        rep = check_axioms(b, args.bound, seed=args.seed, fuel=args.fuel)
        return (0 if rep.sperner_ok and rep.cover_ok else 1), to_json(rep)
    res = rank(b, probe_bound=args.probe_bound)
    return 0, {"rank": str(res.ordinal), "confirmed": res.confirmed,
               "method": res.method, "probe_bound": res.probe_bound}


def _cmd_blocks(args) -> tuple[int, dict]:
    if args.action == "compare":
        x = parse_block(_load_json(args.left, "--left"))
        y = parse_block(_load_json(args.right, "--right"))
        return 0, {"relation": block_compare(x, y)}
    fam = parse_family(_load_json(args.family, "--family"))
    if args.action == "enumerate":
        within = (parse_finite_set(_load_json(args.within, "--within"))
                  if args.within else None)
        blocks = enumerate_blocks(fam, args.bound, within=within)
        return 0, {"blocks": to_json(blocks), "count": len(blocks)}
    if args.action == "join":
        blk = parse_block(_load_json(args.block, "--block"))
        _check_block_in_family(blk, fam)
        return 0, {"set": to_json(to_concat(blk))}
    s = parse_finite_set(_load_json(args.set, "--set"))
    try:
        blk = from_concat(fam, s)
    except NotInSumError as exc:
        return 1, {"error": "not-in-sum", "consumed": to_json(exc.consumed),
                   "leftover": to_json(exc.leftover), "message": str(exc)}
    return 0, {"block": to_json(blk)}


def _cmd_ramsey(args) -> tuple[int, dict]:
    universe = parse_finite_set(_load_json(args.universe, "--universe"))
    if args.action == "find-mono":
        if (args.barrier is None) == (args.family is None):
            raise InvalidArgumentError(
                "exactly one of --barrier or --family is required"
            )
        source = (parse_barrier(_load_json(args.barrier, "--barrier"))
                  if args.barrier else
                  parse_family(_load_json(args.family, "--family")))
        coloring = parse_coloring(_load_json(args.coloring, "--coloring"))
        res = ramsey.find_monochromatic(source, coloring, universe,
                                        args.target, args.strategy)
        return (0 if res.found else 1), to_json(res)
    fam = parse_family(_load_json(args.family, "--family"))
    values = parse_values_table(_load_json(args.values, "--values"))
    if args.action == "metric":
        eps = parse_rational(args.epsilon, "$.epsilon")
        res = ramsey.metric_stabilize(fam, values, eps, universe, args.target)
        return (0 if res.found else 1), to_json(res)
    schedule = parse_schedule(_load_json(args.schedule, "--schedule"))
    return 0, to_json(ramsey.diagonal_stabilize(fam, values, schedule, universe))


def _cmd_norm(args) -> tuple[int, dict]:
    if args.action == "limit-demo":
        return 0, to_json(normspace.degenerate_limit_demo(args.n_max, args.grid_q))
    spec = parse_spec(_load_json(args.spec, "--spec"))
    if args.action == "eval":
        v = parse_vector(_load_json(args.vector, "--vector"))
        value, exact = normspace.norm_eval_detailed(spec, v)
        return 0, {"value": to_json(value), "exact": exact}
    chk = normspace.check_seminorm_axioms(
        normspace.spec_evaluator(spec, args.k), args.k, args.grid_q
    )
    return (0 if chk.all_pass else 1), to_json(chk)


def _cmd_oscillation(args) -> tuple[int, dict]:
    spec = parse_spec(_load_json(args.spec, "--spec"))
    fam = parse_family(_load_json(args.family, "--family"))
    if args.action == "psi":
        blk = parse_block(_load_json(args.block, "--block"))
        coeffs = parse_coeffs(_load_json(args.coeffs, "--coeffs"))
        _check_block_in_family(blk, fam)
        return 0, {"value": to_json(oscillation.psi_eval(spec, blk, coeffs))}
    if args.action == "gap":
        universe = parse_finite_set(_load_json(args.universe, "--universe"))
        return 0, to_json(oscillation.oscillation_gap(spec, fam, universe,
                                                      args.grid_q))
    if args.action == "stabilize":
        universe = parse_finite_set(_load_json(args.universe, "--universe"))
        eps = parse_rational(args.epsilon, "$.epsilon")
        res = oscillation.find_stable_subsequence(
            spec, fam, eps, universe, args.target, args.strategy, args.grid_q
        )
        return (0 if res.found else 1), to_json(res)
    schedule = parse_schedule(_load_json(args.schedule, "--schedule"))
    universe = (parse_generator(_load_json(args.universe, "--universe"))
                if args.universe else None)
    rep = oscillation.asymptotic_stability_check(
        spec, fam, schedule, args.horizon, universe=universe,
        max_stages=args.stages, grid_q=args.grid_q,
    )
    return (0 if rep.all_passed else 1), to_json(rep)


def _cmd_model(args) -> tuple[int, dict]:
    spec = parse_spec(_load_json(args.spec, "--spec"))
    if args.action == "equivalence":
        seq1 = parse_sequence(_load_json(args.seq1, "--seq1"))
        seq2 = parse_sequence(_load_json(args.seq2, "--seq2"))
        lo, hi = models.equivalence_constants(spec, seq1, seq2,
                                              args.k_max, args.grid_q)
        return 0, {"lo": to_json(lo), "hi": to_json(hi)}
    seq = parse_sequence(_load_json(args.sequence, "--sequence"))
    if args.action == "eval":
        coeffs = parse_coeffs(_load_json(args.coeffs, "--coeffs"))
        tol = parse_rational(args.tolerance, "$.tolerance")
        mv = models.model_eval(spec, seq, coeffs, tail_offset=args.tail_offset,
                               probe_count=args.probes, tolerance=tol)
        probes = [{"block": to_json(b), "value": to_json(v)} for b, v in mv.probes]
        return (0 if mv.stabilized else 1), {**to_json(mv), "probes": probes}
    if args.action == "consistency":
        rep = models.consistency_check(spec, seq, args.k_max, args.grid_q)
        return (0 if rep.holds else 1), to_json(rep)
    raw = _load_json(args.placements, "--placements")
    if not isinstance(raw, list):
        raise SchemaError("$", "--placements expects an array of integer arrays")
    placements = [parse_finite_set(p, f"$[{i}]") for i, p in enumerate(raw)]
    rep = models.spreading_check(spec, seq, args.k, placements, args.grid_q)
    return (0 if rep.holds else 1), to_json(rep)


def _cmd_verify_section6(args) -> tuple[int, dict]:
    spec = parse_spec(_load_json(args.spec, "--spec")) if args.spec else None
    rep = models.verify_section6(spec, k_max=args.k_max, grid_q=args.grid_q)
    return (0 if rep.all_passed else 1), to_json(rep)


# ---------------------------------------------------------------------------
# Parser assembly


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output file (relative paths join "
                                 f"${OUT_DIR_ENV} when set)")
    p.add_argument("--format", choices=("json", "csv"), default="json")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on first use and shared by later calls."""
    top = argparse.ArgumentParser(
        prog="blockosc",
        description="Barrier combinatorics, block norms, and limit models "
                    "with exact rational arithmetic.",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    barrier = sub.add_parser("barrier", help="barrier families")
    bsub = barrier.add_subparsers(dest="action", required=True)
    p = bsub.add_parser("members", help="enumerate members up to a bound")
    p.add_argument("--descriptor", required=True)
    p.add_argument("--bound", type=int, required=True)
    _add_common(p)
    p = bsub.add_parser("front", help="initial segment landing in the family")
    p.add_argument("--descriptor", required=True)
    p.add_argument("--set", required=True, help="infinite set generator JSON")
    p.add_argument("--fuel", type=int, default=FRONT_FUEL_DEFAULT)
    _add_common(p)
    p = bsub.add_parser("axioms", help="Sperner and cover checks")
    p.add_argument("--descriptor", required=True)
    p.add_argument("--bound", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fuel", type=int, default=10_000)
    _add_common(p)
    p = bsub.add_parser("rank", help="lexicographic rank")
    p.add_argument("--descriptor", required=True)
    p.add_argument("--probe-bound", type=int, default=None)
    _add_common(p)

    blocks = sub.add_parser("blocks", help="blocks of barrier tuples")
    blsub = blocks.add_subparsers(dest="action", required=True)
    p = blsub.add_parser("enumerate", help="all blocks up to a bound")
    p.add_argument("--family", required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--within", default=None)
    _add_common(p)
    p = blsub.add_parser("compare", help="directed block order")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    _add_common(p)
    p = blsub.add_parser("join", help="block to concatenation set")
    p.add_argument("--family", required=True)
    p.add_argument("--block", required=True)
    _add_common(p)
    p = blsub.add_parser("split", help="concatenation set back to a block")
    p.add_argument("--family", required=True)
    p.add_argument("--set", required=True)
    _add_common(p)

    rams = sub.add_parser("ramsey", help="finite Ramsey searches")
    rsub = rams.add_subparsers(dest="action", required=True)
    p = rsub.add_parser("find-mono", help="monochromatic subset search")
    p.add_argument("--barrier", default=None)
    p.add_argument("--family", default=None)
    p.add_argument("--coloring", required=True)
    p.add_argument("--universe", required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--strategy", choices=("exhaustive", "greedy"),
                   default="exhaustive")
    _add_common(p)
    p = rsub.add_parser("metric", help="stabilize a rational block coloring")
    p.add_argument("--family", required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--universe", required=True)
    p.add_argument("--target", type=int, required=True)
    _add_common(p)
    p = rsub.add_parser("diagonal", help="schedule-driven diagonalization")
    p.add_argument("--family", required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--schedule", default='{"kind":"geometric"}')
    p.add_argument("--universe", required=True)
    _add_common(p)

    norm = sub.add_parser("norm", help="norm spec evaluation")
    nsub = norm.add_subparsers(dest="action", required=True)
    p = nsub.add_parser("eval", help="evaluate a spec on a vector")
    p.add_argument("--spec", required=True)
    p.add_argument("--vector", required=True)
    _add_common(p)
    p = nsub.add_parser("axioms", help="norm axioms on a grid sample")
    p.add_argument("--spec", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--grid-q", type=int, default=4)
    _add_common(p)
    p = nsub.add_parser("limit-demo",
                        help="norm sequence collapsing to a seminorm")
    p.add_argument("--n-max", type=int, default=64)
    p.add_argument("--grid-q", type=int, default=8)
    _add_common(p)

    osc = sub.add_parser("oscillation", help="block oscillation measurements")
    osub = osc.add_subparsers(dest="action", required=True)
    p = osub.add_parser("psi", help="norm of a coefficient block combination")
    p.add_argument("--spec", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--block", required=True)
    p.add_argument("--coeffs", required=True)
    _add_common(p)
    p = osub.add_parser("gap", help="largest pairwise disagreement")
    p.add_argument("--spec", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--universe", required=True)
    p.add_argument("--grid-q", type=int, default=8)
    _add_common(p)
    p = osub.add_parser("stabilize", help="search for a stable subset")
    p.add_argument("--spec", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--universe", required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--strategy", choices=("exhaustive", "greedy"),
                   default="exhaustive")
    p.add_argument("--grid-q", type=int, default=8)
    _add_common(p)
    p = osub.add_parser("asymptotic", help="tail stabilization per stage")
    p.add_argument("--spec", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--schedule", default='{"kind":"geometric"}')
    p.add_argument("--universe", default=None,
                   help="optional generator JSON restricting the ground set")
    p.add_argument("--stages", type=int, default=12)
    p.add_argument("--grid-q", type=int, default=8)
    _add_common(p)

    model = sub.add_parser("model", help="limit norms along barrier sequences")
    msub = model.add_subparsers(dest="action", required=True)
    p = msub.add_parser("eval", help="evaluate the limit norm at coefficients")
    p.add_argument("--spec", required=True)
    p.add_argument("--sequence", required=True)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--tail-offset", type=int, default=None)
    p.add_argument("--probes", type=int, default=3)
    p.add_argument("--tolerance", default="0")
    _add_common(p)
    p = msub.add_parser("consistency", help="appended zeros change nothing")
    p.add_argument("--spec", required=True)
    p.add_argument("--sequence", required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--grid-q", type=int, default=4)
    _add_common(p)
    p = msub.add_parser("spreading", help="relocation invariance check")
    p.add_argument("--spec", required=True)
    p.add_argument("--sequence", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--placements", required=True)
    p.add_argument("--grid-q", type=int, default=4)
    _add_common(p)
    p = msub.add_parser("equivalence", help="empirical equivalence constants")
    p.add_argument("--spec", required=True)
    p.add_argument("--seq1", required=True)
    p.add_argument("--seq2", required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--grid-q", type=int, default=4)
    _add_common(p)

    p = sub.add_parser("verify-section6",
                       help="aggregate check of the worked two-model example")
    p.add_argument("--spec", default=None)
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("--grid-q", type=int, default=4)
    _add_common(p)

    return top


_HANDLERS = {
    "barrier": _cmd_barrier,
    "blocks": _cmd_blocks,
    "ramsey": _cmd_ramsey,
    "norm": _cmd_norm,
    "oscillation": _cmd_oscillation,
    "model": _cmd_model,
    "verify-section6": _cmd_verify_section6,
}

_INPUT_ERRORS = (
    InvalidArgumentError,  # SchemaError among them
    NoFrontFoundError,
    InsufficientBlocksError,
    NotStabilizedError,
)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.subcommand
    if getattr(args, "action", None):
        command = f"{command} {args.action}"
    try:
        code, report = _HANDLERS[args.subcommand](args)
    except _INPUT_ERRORS as exc:
        detail = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, SchemaError):
            detail["path"] = exc.path
        sys.stderr.write(dumps(detail))
        return 2
    _emit(report, command, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
