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
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .eigdist import build_pair_probe, pair_distinguishable
from .families import (
    PhasePairParams,
    pauli_hadamard_set,
    pauli_hadamard_tree,
    phase_pair_set,
    qutrit_quartet_set,
    random_qubit_set,
)
from .probefeas import verify_certificate
from .protocols import (
    check_gda,
    check_gdr,
    check_lda,
    check_ldr,
    gdr_problem,
    hierarchy_audit,
    verify_tree,
)
from .qcore import DEFAULT_TOL, Tolerances, as_matrix
from .seesaw import (
    QUARTET_BOB_FIRST_SMAX_BOUND,
    quartet_alice_first_task,
    quartet_alice_first_warm_start,
    quartet_bob_first_task,
    run_seesaw,
)
from .separable import check_gda_separable, separable_start_analysis

__all__ = ["RunConfig", "main"]

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


@dataclass(frozen=True)
class RunConfig:
    """Resolved run options shared by the subcommands."""

    tol: Tolerances
    seed: int
    restarts: int
    output: str  # "human" | "json"
    out_path: str | None


class _CliError(Exception):
    pass


def _config(args) -> RunConfig:
    tol = DEFAULT_TOL
    if getattr(args, "tol", None) is not None:
        if args.tol <= 0:
            raise _CliError(f"--tol must be positive, got {args.tol}")
        tol = Tolerances(validation=args.tol, comparison=args.tol,
                         orthogonality=args.tol)
    restarts = getattr(args, "restarts", 50)
    if restarts < 1:
        raise _CliError("--restarts must be at least 1")
    return RunConfig(
        tol=tol,
        seed=getattr(args, "seed", 0),
        restarts=restarts,
        output="json" if getattr(args, "json", False) else "human",
        out_path=getattr(args, "out", None),
    )


def _emit(cfg: RunConfig, report: dict, human_lines) -> None:
    text = jsonio.dumps(report)
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    if cfg.output == "json":
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
            angles = [float(p) for p in parts]
        except ValueError as exc:
            raise _CliError(f"phasepair angles: {exc}") from exc
        try:
            return phase_pair_set(PhasePairParams(*angles))
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
    cfg = _config(args)
    u1 = _load_matrix(args.u1)
    u2 = _load_matrix(args.u2)
    if u1.shape != u2.shape:
        raise _CliError(
            f"matrix: dimension mismatch {u1.shape} vs {u2.shape}")
    try:
        res = pair_distinguishable(u1, u2, cfg.tol)
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
        pp = build_pair_probe(u1, u2, res, cfg.tol)
        report["probe"] = jsonio.vector_to_json(pp.probe.amplitudes)
        report["measurement"] = [jsonio.matrix_to_json(el)
                                 for el in pp.measurement]
        lines.append("probe: "
                     + ", ".join(f"{z.real:+.4f}{z.imag:+.4f}i"
                                 for z in pp.probe.amplitudes))
    _emit(cfg, report, lines)
    return EXIT_OK if res.distinguishable else EXIT_CERTIFIED


# ---------------------------------------------------------------------------
# check


def _run_strategy(uset, strategy: str, start: str, tol: Tolerances):
    if strategy == "gdr":
        return check_gdr(uset, tol), {}
    if strategy == "gda":
        return check_gda(uset, tol), {}
    if strategy == "gda-sep":
        verdict = check_gda_separable(uset, tol)
        extra = {}
        if uset.party_dims == (2, 2) and uset.size >= 3:
            reports = {}
            for party in ("A", "B"):
                rep = separable_start_analysis(uset, party, tol)
                reports[party] = {
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
            extra["start_reports"] = reports
        return verdict, extra
    if strategy in ("ldr", "lda"):
        fn = check_ldr if strategy == "ldr" else check_lda
        if start in ("a", "b"):
            return fn(uset, start.upper(), tol), {}
        va = fn(uset, "A", tol)
        vb = fn(uset, "B", tol)
        for v in (va, vb):
            if v.status == "distinguishable":
                chosen = v
                break
        else:
            if (va.status == vb.status ==
                    "indistinguishable_certified"):
                chosen = va
            else:
                chosen = va if va.status == "not_found" else vb
        return chosen, {"per_start": {"A": jsonio.verdict_to_json(va),
                                      "B": jsonio.verdict_to_json(vb)}}
    raise _CliError(f"unknown strategy {strategy!r}")


def _cmd_check(args) -> int:
    cfg = _config(args)
    if args.strategy in ("gdr", "gda", "gda-sep") and args.start != "either":
        raise _CliError(
            f"--start has no effect for strategy {args.strategy}; "
            "omit it or use 'either'")
    uset = _load_set(args.set)
    verdict, extra = _run_strategy(uset, args.strategy, args.start, cfg.tol)
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
    _emit(cfg, report, lines)
    return _STATUS_EXIT[verdict.status]


# ---------------------------------------------------------------------------
# seesaw


def _cmd_seesaw(args) -> int:
    cfg = _config(args)
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
    result = run_seesaw(task, restarts=cfg.restarts, seed=cfg.seed,
                        warm_starts=warm)
    report = jsonio.seesaw_to_json(result, cfg.restarts)
    report["task"] = args.task
    report["descriptions"] = list(task.descriptions)
    lines = [
        f"task {args.task}: s_max = {result.s_max:.12f} "
        f"over {result.restarts_used} starts",
    ]
    _emit(cfg, report, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# repro bundles


def _grid_angles(n: int):
    # interior grid over the angle simplex: alpha, beta, gamma free in
    # (0, pi/2), delta = pi - alpha - beta - gamma must land inside too
    vals = [(k + 1) * (math.pi / 2.0) / (n + 1) for k in range(n)]
    for a in vals:
        for b in vals:
            for g in vals:
                d = math.pi - a - b - g
                if 1e-9 < d < math.pi / 2.0 - 1e-9:
                    yield a, b, g, d


def _repro_pair_gap(seed: int, restarts: int, tol: Tolerances):
    checks = []
    worst_overlap = 0.0
    worst_local = math.inf
    bad = 0
    count = 0
    for a, b, g, d in _grid_angles(10):
        uset = phase_pair_set(PhasePairParams(a, b, g, d))
        verdict = check_gdr(uset, tol)
        ok = verdict.status == "distinguishable"
        if ok and verdict.witness is not None:
            w = verdict.witness
            evolved = [np.kron(as_matrix(el), np.eye(w.ancilla_dim))
                       @ w.probe.amplitudes
                       for el in uset.global_unitaries()]
            overlap = abs(np.vdot(evolved[0], evolved[1]))
            worst_overlap = max(worst_overlap, overlap)
            ok = ok and overlap < 1e-10
        for party in ("A", "B"):
            geom = pair_distinguishable(uset.factor(0, party),
                                        uset.factor(1, party), tol)
            worst_local = min(worst_local, geom.min_norm)
            ok = ok and geom.min_norm > tol.comparison
        bad += 0 if ok else 1
        count += 1
    checks.append(("grid composite-probe distinguishable, local pairs not",
                   bad == 0,
                   f"{count} points, worst witness overlap {worst_overlap:.2e}, "
                   f"smallest local hull distance {worst_local:.4f}"))
    return checks


def _repro_adaptive_gap(seed: int, restarts: int, tol: Tolerances):
    uset = qutrit_quartet_set()
    checks = []
    v_lda = check_lda(uset, "A", tol)
    ok_tree = False
    detail = "no witness"
    if v_lda.status == "distinguishable" and v_lda.witness is not None:
        res = verify_tree(uset, v_lda.witness, tol)
        ok_tree = bool(np.all(np.abs(res.success - 1.0) < 1e-9))
        detail = f"min success {res.success.min():.12f}"
    checks.append(("adaptive local protocol exists and verifies",
                   v_lda.status == "distinguishable" and ok_tree, detail))
    v_gdr = check_gdr(uset, tol)
    cert_ok = False
    if (v_gdr.status == "indistinguishable_certified"
            and v_gdr.feasibility is not None
            and v_gdr.feasibility.certificate is not None):
        min_eig = verify_certificate(gdr_problem(uset),
                                     v_gdr.feasibility.certificate, tol)
        cert_ok = min_eig >= 1.0 - tol.comparison
    checks.append(("fixed composite probe certified impossible",
                   cert_ok,
                   f"status {v_gdr.status}"))
    v_ldr = check_ldr(uset, "A", tol)
    checks.append(("fixed local probes certified impossible",
                   v_ldr.status == "indistinguishable_certified",
                   f"status {v_ldr.status}"))
    return checks


def _repro_start_asymmetry(seed: int, restarts: int, tol: Tolerances):
    uset = qutrit_quartet_set()
    checks = []
    v_a = check_lda(uset, "A", tol)
    checks.append(("first party starting succeeds",
                   v_a.status == "distinguishable", v_a.status))
    v_b = check_lda(uset, "B", tol)
    checks.append(("second party starting finds no protocol",
                   v_b.status != "distinguishable", v_b.status))
    res = run_seesaw(quartet_bob_first_task(), restarts=restarts, seed=seed)
    checks.append(("second-party elimination seesaw stays below 1 - 1e-3",
                   res.s_max < 1.0 - 1e-3, f"s_max {res.s_max:.9f}"))
    checks.append(("seesaw within frozen regression bound",
                   res.s_max <= QUARTET_BOB_FIRST_SMAX_BOUND,
                   f"bound {QUARTET_BOB_FIRST_SMAX_BOUND:.9f}"))
    warm = run_seesaw(quartet_alice_first_task(), restarts=1, seed=seed,
                      warm_starts=(quartet_alice_first_warm_start(),))
    checks.append(("first-party elimination reaches 1 exactly",
                   abs(warm.s_max - 1.0) < 1e-9, f"s_max {warm.s_max:.12f}"))
    return checks


def _repro_separable_probes(seed: int, restarts: int, tol: Tolerances):
    uset = pauli_hadamard_set()
    checks = []
    v = check_gda_separable(uset, tol)
    checks.append(("single-system probes certified impossible",
                   v.status == "indistinguishable_certified", v.status))
    for party in ("A", "B"):
        rep = separable_start_analysis(uset, party, tol)
        checks.append((f"sequential start {party} certified impossible",
                       rep.verdict == "infeasible_certified", rep.note))
    v_ldr = check_ldr(uset, "A", tol)
    ok = False
    detail = v_ldr.status
    if v_ldr.status == "distinguishable" and v_ldr.witness is not None:
        res = verify_tree(uset, v_ldr.witness, tol)
        ok = bool(np.all(np.abs(res.success - 1.0) < 1e-9))
        detail = f"min success {res.success.min():.12f}"
    checks.append(("fixed-probe search, start A, finds a protocol", ok, detail))
    # the Bob-first protocol eliminates across factor groups, which the
    # search schema does not cover; the bundled tree carries that side
    for start in ("A", "B"):
        tree = pauli_hadamard_tree(start)
        res = verify_tree(uset, tree, tol)
        checks.append((f"bundled fixed-probe tree, start {start}, verifies",
                       bool(np.all(np.abs(res.success - 1.0) < 1e-9)),
                       f"min success {res.success.min():.12f}"))
    return checks


def _repro_hierarchy(seed: int, restarts: int, tol: Tolerances):
    checks = []
    families = [
        ("phase pair", phase_pair_set(
            PhasePairParams(0.3, 0.5, 0.9, math.pi - 1.7))),
        ("qutrit quartet", qutrit_quartet_set()),
        ("pauli hadamard", pauli_hadamard_set()),
    ]
    rows_seen = 0
    contradiction = None
    try:
        for _, uset in families:
            rows_seen += len(hierarchy_audit(uset, tol))
        rng = np.random.default_rng(seed)
        for _ in range(100):
            rows_seen += len(hierarchy_audit(random_qubit_set(rng), tol))
    except RuntimeError as exc:
        contradiction = str(exc)
    checks.append(("strategy orderings hold on families and random sets",
                   contradiction is None,
                   contradiction or f"{rows_seen} audited rows, "
                   "0 certified contradictions"))
    rng = np.random.default_rng(seed)
    mismatch = 0
    for _ in range(100):
        uset = random_qubit_set(rng)
        for start in ("A", "B"):
            if (check_lda(uset, start, tol).status
                    != check_ldr(uset, start, tol).status):
                mismatch += 1
    checks.append(("adaptive and fixed local verdicts coincide on qubits",
                   mismatch == 0, f"{mismatch} mismatches"))
    return checks


_REPRO = {
    "pair-gap": _repro_pair_gap,
    "adaptive-gap": _repro_adaptive_gap,
    "start-asymmetry": _repro_start_asymmetry,
    "separable-probes": _repro_separable_probes,
    "hierarchy": _repro_hierarchy,
}


def _cmd_repro(args) -> int:
    cfg = _config(args)
    try:
        fn = _REPRO[args.target]
    except KeyError:
        raise _CliError(
            f"unknown target {args.target!r}; choose from "
            + ", ".join(sorted(_REPRO))) from None
    checks = fn(cfg.seed, cfg.restarts, cfg.tol)
    report = {
        "target": args.target,
        "seed": cfg.seed,
        "checks": [{"name": n, "ok": bool(ok), "detail": str(d)}
                   for n, ok, d in checks],
        "passed": all(ok for _, ok, _ in checks),
    }
    lines = [f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})"
             for name, ok, detail in checks]
    failed = [name for name, ok, _ in checks if not ok]
    lines.append("result: " + ("all checks passed" if not failed
                               else "failed: " + ", ".join(failed)))
    _emit(cfg, report, lines)
    return EXIT_OK if not failed else EXIT_FAIL


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unidisc",
        description="Decide perfect discrimination of product unitaries "
                    "under restricted strategies.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=None,
                       help="override all tolerances with one value")
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
    p_repro.add_argument("target")
    common(p_repro)
    p_repro.set_defaults(fn=_cmd_repro)
    # only the commands that draw random starts take a seed and restarts
    for p, seed_default in ((p_seesaw, 1), (p_repro, 0)):
        p.add_argument("--seed", type=int, default=seed_default)
        p.add_argument("--restarts", type=int, default=50)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except jsonio.FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
