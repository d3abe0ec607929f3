"""Command line front end.

Subcommands::

    unidisc pair U1.json U2.json      one-pair criterion, probe on success
    unidisc check SET --strategy ...  strategy deciders on a set file/builtin
    unidisc seesaw [TASK] ...         elimination seesaw on a builtin task
    unidisc repro TARGET              one-command reproduction bundles

Set arguments accept a JSON file path or a builtin name:
``phasepair:a,b,c,d`` (four angles), ``qutrit-quartet``, ``pauli-hadamard``.

Exit codes: 0 distinguishable/pass, 1 failed reproduction check, 2 usage or
input error, 3 certified indistinguishable, 4 undecided.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import jsonio, repro
from .eigdist import build_pair_probe, pair_distinguishable
from .families import (
    PhasePairParams,
    pauli_hadamard_set,
    phase_pair_set,
    qutrit_quartet_set,
)
from .protocols import SetAnalysis, check_gda, check_gdr, check_lda, check_ldr
from .qcore import DEFAULT_TOL, Tolerances
from .seesaw import (
    quartet_alice_first_task,
    quartet_alice_first_warm_start,
    quartet_bob_first_task,
    run_seesaw,
)
from .separable import gda_separable_analysis

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CERTIFIED = 3
EXIT_NOT_FOUND = 4

_STATUS_EXIT = {
    "distinguishable": EXIT_OK,
    "indistinguishable_certified": EXIT_CERTIFIED,
    "not_found": EXIT_NOT_FOUND,
}
# ``--start either`` reports the start whose status sorts first: a witness
# beats an open search, which beats a certificate; ties go to A
_EITHER_ORDER = {"distinguishable": 0, "not_found": 1, "indistinguishable_certified": 2}


class _CliError(Exception):
    pass


def _tolerances(args) -> Tolerances:
    try:
        return Tolerances(comparison=args.tol)
    except ValueError:
        raise _CliError(f"--tol must be finite and positive, got {args.tol}") from None


def _check_starts(args) -> None:
    """Reject a negative ``--seed`` or fewer than one ``--restarts``."""
    if args.seed < 0:
        raise _CliError(f"--seed must be non-negative, got {args.seed}")
    if args.restarts < 1:
        raise _CliError("--restarts must be at least 1")


def _emit(args, report: dict, human_lines) -> None:
    text = jsonio.dumps(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.json:
        sys.stdout.write(text)
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------
# input loading


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _CliError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise _CliError(f"{path}: invalid JSON at line {exc.lineno}, "
                        f"column {exc.colno}: {exc.msg}") from exc


def _load_matrix(path: str) -> np.ndarray:
    data = _load_json(path)
    if isinstance(data, dict):
        if "matrix" not in data:
            raise _CliError(f"{path}: matrix: missing")
        data = data["matrix"]
    try:
        mat = jsonio.matrix_from_json(data, "matrix")
    except jsonio.FormatError as exc:
        raise _CliError(f"{path}: {exc}") from exc
    if mat.shape[0] != mat.shape[1]:
        raise _CliError(f"{path}: matrix: expected square, got {mat.shape}")
    return mat


def _builtin_set(name: str):
    if name == "qutrit-quartet":
        return qutrit_quartet_set()
    if name == "pauli-hadamard":
        return pauli_hadamard_set()
    if name.startswith("phasepair:"):
        parts = name.split(":", 1)[1].split(",")
        if len(parts) != 4:
            raise _CliError(
                "phasepair builtin needs four comma-separated angles, "
                f"got {name!r}")
        try:
            return phase_pair_set(PhasePairParams(*[float(p) for p in parts]))
        except ValueError as exc:
            raise _CliError(f"phasepair angles: {exc}") from exc
    return None


def _load_set(source: str):
    builtin = _builtin_set(source)
    if builtin is not None:
        return builtin
    data = _load_json(source)
    try:
        return jsonio.set_from_json(data, "set")
    except jsonio.FormatError as exc:
        raise _CliError(f"{source}: {exc}") from exc


# ---------------------------------------------------------------------------
# pair


def _cmd_pair(args) -> int:
    tol = _tolerances(args)
    u1 = _load_matrix(args.u1)
    u2 = _load_matrix(args.u2)
    try:
        res = pair_distinguishable(u1, u2, tol)
    except ValueError as exc:
        raise _CliError(f"matrix: {exc}") from exc
    report = {
        "phases": [float(p) for p in res.phases],
        "min_norm": float(res.min_norm),
        "status": "distinguishable" if res.distinguishable
        else "indistinguishable",
        "probe": None,
        "measurement": None,
    }
    lines = [
        "eigenphases of the relative unitary: "
        + ", ".join(f"{p:.6f}" for p in res.phases),
        f"hull distance: {res.min_norm:.6e}",
        f"verdict: {report['status']}",
    ]
    if res.distinguishable:
        pp = build_pair_probe(u1, u2, res, tol)
        report["probe"] = jsonio.vector_to_json(pp.probe.amplitudes)
        report["measurement"] = [jsonio.matrix_to_json(el)
                                 for el in pp.measurement]
        lines.append("probe: "
                     + ", ".join(f"{z.real:+.4f}{z.imag:+.4f}i"
                                 for z in pp.probe.amplitudes))
    _emit(args, report, lines)
    return EXIT_OK if res.distinguishable else EXIT_CERTIFIED


# ---------------------------------------------------------------------------
# check


def _run_strategy(table: SetAnalysis, strategy: str, start: str):
    if strategy == "gdr":
        return check_gdr(table), {}
    if strategy == "gda":
        return check_gda(table), {}
    if strategy == "gda-sep":
        verdict, reports = gda_separable_analysis(table)
        if reports is None:
            return verdict, {}
        return verdict, {"start_reports": {
            party: {
                "responder_pairs": [list(p) for p in rep.responder_pairs],
                "necessary_sets": [list(s) for s in rep.necessary_sets],
                "eliminable": [
                    {
                        "member_indices": list(c.member_indices),
                        "probes": [jsonio.vector_to_json(p)
                                   for p in c.probes],
                        "any_probe": c.any_probe,
                    }
                    for c in rep.eliminable
                ],
                "verdict": rep.verdict,
                "note": rep.note,
            }
            for party, rep in reports.items()
        }}
    if strategy in ("ldr", "lda"):
        fn = check_ldr if strategy == "ldr" else check_lda
        if start in ("a", "b"):
            return fn(table, start.upper()), {}
        va, vb = (fn(table, p) for p in "AB")
        chosen = min((va, vb), key=lambda v: _EITHER_ORDER[v.status])
        return chosen, {"per_start": {"A": jsonio.verdict_to_json(va),
                                      "B": jsonio.verdict_to_json(vb)}}


def _cmd_check(args) -> int:
    tol = _tolerances(args)
    if args.strategy in ("gdr", "gda", "gda-sep") and args.start != "either":
        raise _CliError(
            f"--start has no effect for strategy {args.strategy}; "
            "omit it or use 'either'")
    uset = _load_set(args.set)
    verdict, extra = _run_strategy(SetAnalysis(uset, tol), args.strategy, args.start)
    report = {"set_size": uset.size,
              "party_dims": list(uset.party_dims),
              "verdict": jsonio.verdict_to_json(verdict)}
    report.update(extra)
    lines = [
        f"strategy {args.strategy}, start {verdict.starting_party}: "
        f"{verdict.status}",
    ]
    if verdict.note:
        lines.append(f"note: {verdict.note}")
    _emit(args, report, lines)
    return _STATUS_EXIT[verdict.status]


# ---------------------------------------------------------------------------
# seesaw


def _cmd_seesaw(args) -> int:
    _check_starts(args)
    if args.task == "quartet-bob-first":
        task = quartet_bob_first_task()
        warm = ()
    elif args.task == "quartet-alice-first":
        task = quartet_alice_first_task()
        warm = (quartet_alice_first_warm_start(),)
    else:
        raise _CliError(
            f"unknown task {args.task!r}; builtins: quartet-bob-first, "
            "quartet-alice-first")
    result = run_seesaw(task, restarts=args.restarts, seed=args.seed,
                        warm_starts=warm)
    report = jsonio.seesaw_to_json(result, args.restarts)
    report["task"] = args.task
    report["descriptions"] = list(task.descriptions)
    lines = [
        f"task {args.task}: s_max = {result.s_max:.12f} "
        f"over {result.restarts_used} starts",
    ]
    _emit(args, report, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# repro


def _cmd_repro(args) -> int:
    tol = _tolerances(args)
    _check_starts(args)
    result = repro.BUNDLES[args.target](args.seed, args.restarts, tol)
    report = {
        "target": args.target,
        "seed": args.seed,
        "checks": [{"name": n, "ok": bool(ok), "detail": str(d)}
                   for n, ok, d in result.checks],
        "passed": result.passed,
    }
    lines = [f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})"
             for name, ok, detail in result.checks]
    failed = [name for name, ok, _ in result.checks if not ok]
    lines.append("result: " + ("all checks passed" if not failed
                               else "failed: " + ", ".join(failed)))
    _emit(args, report, lines)
    return EXIT_OK if result.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unidisc",
        description="Decide perfect discrimination of product unitaries "
                    "under restricted strategies.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="print the JSON report instead of text")
        p.add_argument("--out", default=None,
                       help="also write the JSON report to this path")

    p_pair = sub.add_parser("pair", help="pair criterion for two unitaries")
    p_pair.add_argument("u1")
    p_pair.add_argument("u2")
    common(p_pair)
    p_pair.set_defaults(fn=_cmd_pair)

    p_check = sub.add_parser("check", help="run a strategy decider on a set")
    p_check.add_argument("set")
    p_check.add_argument("--strategy", required=True,
                         choices=["gdr", "gda", "ldr", "lda", "gda-sep"])
    p_check.add_argument("--start", default="either",
                         choices=["a", "b", "either"])
    common(p_check)
    p_check.set_defaults(fn=_cmd_check)

    p_seesaw = sub.add_parser("seesaw", help="elimination seesaw")
    p_seesaw.add_argument("task", nargs="?", default="quartet-bob-first")
    common(p_seesaw)
    p_seesaw.set_defaults(fn=_cmd_seesaw)

    p_repro = sub.add_parser("repro", help="reproduction bundles")
    p_repro.add_argument("target", choices=sorted(repro.BUNDLES))
    common(p_repro)
    p_repro.set_defaults(fn=_cmd_repro)
    # only the commands that decide take a tolerance, and only those that
    # draw random starts take a seed and restarts
    for p in (p_pair, p_check, p_repro):
        p.add_argument("--tol", type=float, default=DEFAULT_TOL.comparison,
                       help="the deciders' comparison tolerance "
                            f"(default {DEFAULT_TOL.comparison:g})")
    for p, seed_default in ((p_seesaw, 1), (p_repro, 0)):
        p.add_argument("--seed", type=int, default=seed_default)
        p.add_argument("--restarts", type=int, default=50)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (_CliError, jsonio.FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
