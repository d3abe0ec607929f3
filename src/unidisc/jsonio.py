"""JSON encoding of sets, trees, witnesses, verdicts, and results.

Complex scalars serialize as two-element arrays ``[re, im]``; matrices as
row-major nested arrays of those pairs; vectors as flat arrays of pairs.
Every decoder validates shape and numeric content and raises
:class:`FormatError` naming the offending field, which the command line
maps to a usage-error exit.  :func:`dumps` writes every report in one
canonical text: the standard library's compact form with sorted keys, one
line per report.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from .probefeas import InfeasibilityCertificate, ProbeFeasibility
from .protocols import (
    OutcomeBranch,
    ProbeWitness,
    ProductUnitarySet,
    ProtocolTree,
    StageTwo,
    StrategyVerdict,
)
from .qcore import StateVector

__all__ = [
    "FormatError",
    "dumps",
    "complex_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "vector_to_json",
    "vector_from_json",
    "set_to_json",
    "set_from_json",
    "tree_to_json",
    "tree_from_json",
    "probe_witness_to_json",
    "probe_witness_from_json",
    "witness_to_json",
    "witness_from_json",
    "feasibility_to_json",
    "certificate_from_json",
    "verdict_to_json",
    "seesaw_to_json",
]


class FormatError(ValueError):
    """Malformed serialized content; the message names the offending field."""


def dumps(obj) -> str:
    """Canonical serialization: ``json.dumps(obj, sort_keys=True,
    separators=(",", ":"), allow_nan=False)`` plus a newline, so one line.

    Identical structures produce byte-identical text.  It raises
    ``ValueError`` on NaN, infinity or a circular reference and
    ``TypeError`` on objects JSON cannot represent.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# scalars, vectors, matrices

# number types as JSON decodes them
_NUMBER_TYPES = frozenset((float, int))


def _is_number(x) -> bool:
    # JSON true/false decode as bool, a subclass of int; they are not numbers
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _real(x, field: str) -> float:
    """``x`` as a float, when it is a JSON number in float range and finite."""
    if not _is_number(x):
        raise FormatError(f"{field}: expected a number")
    try:
        x = float(x)
    except OverflowError:  # an integer past the float range
        raise FormatError(f"{field}: number out of float range") from None
    # json reads NaN, Infinity and 1e999 (as inf)
    if not math.isfinite(x):
        raise FormatError(f"{field}: number is not finite")
    return x


def complex_from_json(v, field: str) -> complex:
    if not isinstance(v, (list, tuple)) or len(v) != 2 or not all(map(_is_number, v)):
        raise FormatError(f"{field}: expected a [re, im] number pair, got {v!r}")
    return complex(_real(v[0], field), _real(v[1], field))


def _complex_array(data: list, depth: int) -> np.ndarray | None:
    """``data`` as one complex array when it is ``depth`` levels of equally
    long non-empty lists above entries that are each a list of two finite
    JSON numbers in float range, else None (the per-entry path then decodes
    or names the bad entry).  The numbers are read as one float64 array and
    viewed as complex, so signed zeros survive."""
    shape = []
    items = [data]
    for _ in range(depth):
        if set(map(type, items)) != {list}:
            return None
        n = len(items[0])
        if not n or set(map(len, items)) != {n}:
            return None
        shape.append(n)
        items = list(chain.from_iterable(items))
    if set(map(type, items)) != {list} or set(map(len, items)) != {2}:
        return None
    leaves = list(chain.from_iterable(items))
    if not _NUMBER_TYPES.issuperset(map(type, leaves)):
        return None
    try:
        a = np.array(leaves, dtype=float)
    except OverflowError:
        return None
    return a.view(complex).reshape(shape) if np.isfinite(a).all() else None


def _pairs(a: np.ndarray) -> list:
    """A complex array as nested lists of ``[re, im]`` floats."""
    return np.ascontiguousarray(a).view(float).reshape(*a.shape, 2).tolist()


def matrix_to_json(m) -> list:
    return _pairs(np.asarray(m, dtype=complex))


def matrix_from_json(data, field: str) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise FormatError(f"{field}: expected a non-empty list of rows")
    m = _complex_array(data, 2)
    if m is not None:
        return m
    width = len(data[0]) if isinstance(data[0], list) else 0
    rows = []
    for r, row in enumerate(data):
        if not isinstance(row, list) or not row:
            raise FormatError(f"{field}[{r}]: expected a non-empty row")
        if len(row) != width:
            raise FormatError(
                f"{field}[{r}]: ragged row of length {len(row)}, expected {width}"
            )
        rows.append([complex_from_json(z, f"{field}[{r}][{c}]")
                     for c, z in enumerate(row)])
    return np.array(rows, dtype=complex)


def vector_to_json(v) -> list:
    return _pairs(np.asarray(v, dtype=complex).reshape(-1))


def vector_from_json(data, field: str) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise FormatError(f"{field}: expected a non-empty list of entries")
    v = _complex_array(data, 1)
    if v is None:
        v = np.array([complex_from_json(z, f"{field}[{k}]") for k, z in enumerate(data)],
                     dtype=complex)
    return v


def _is_index(x) -> bool:
    # JSON true/false decode as bool, a subclass of int; they are not indices
    return isinstance(x, int) and not isinstance(x, bool)


def _expect_key(data: dict, key: str, field: str):
    if not isinstance(data, dict):
        raise FormatError(f"{field}: expected an object")
    if key not in data:
        raise FormatError(f"{field}.{key}: missing")
    return data[key]


# ---------------------------------------------------------------------------
# product unitary sets


def set_to_json(uset: ProductUnitarySet) -> dict:
    return {
        "party_dims": list(uset.party_dims),
        "items": [
            {
                "label": uset.labels[i],
                "A": matrix_to_json(uset.factor(i, "A")),
                "B": matrix_to_json(uset.factor(i, "B")),
            }
            for i in range(uset.size)
        ],
    }


def set_from_json(data, field: str = "set") -> ProductUnitarySet:
    dims = _expect_key(data, "party_dims", field)
    if (
        not isinstance(dims, list)
        or len(dims) != 2
        or not all(_is_index(d) and d >= 1 for d in dims)
    ):
        raise FormatError(f"{field}.party_dims: expected two positive integers")
    items_data = _expect_key(data, "items", field)
    if not isinstance(items_data, list) or not items_data:
        raise FormatError(f"{field}.items: expected a non-empty list")
    items = []
    for k, it in enumerate(items_data):
        label = _expect_key(it, "label", f"{field}.items[{k}]")
        if not isinstance(label, str):
            raise FormatError(f"{field}.items[{k}].label: expected a string")
        a = matrix_from_json(_expect_key(it, "A", f"{field}.items[{k}]"),
                             f"{field}.items[{k}].A")
        b = matrix_from_json(_expect_key(it, "B", f"{field}.items[{k}]"),
                             f"{field}.items[{k}].B")
        items.append((label, a, b))
    try:
        return ProductUnitarySet((dims[0], dims[1]), items)
    except ValueError as exc:
        raise FormatError(f"{field}: {exc}") from exc


# ---------------------------------------------------------------------------
# trees and witnesses


def _probe_block_to_json(block) -> dict:
    """The probe, ancilla size and POVM of a tree, stage 2 or probe witness,
    plus the guesses of the latter two."""
    out = {
        "probe": vector_to_json(block.probe.amplitudes),
        "ancilla_dim": block.ancilla_dim,
        "povm": [matrix_to_json(el) for el in block.povm],
    }
    if not isinstance(block, ProtocolTree):
        out["guesses"] = list(block.guesses)
    return out


def _probe_block_from_json(data, field: str, guesses: bool = True) -> dict:
    """Validated ``probe``, ``ancilla_dim``, ``povm`` and (when ``guesses``)
    ``guesses``, one index or null per POVM element, as keyword arguments
    for the dataclass that holds them."""
    probe = vector_from_json(_expect_key(data, "probe", field), f"{field}.probe")
    anc = _expect_key(data, "ancilla_dim", field)
    if not _is_index(anc) or anc < 1:
        raise FormatError(f"{field}.ancilla_dim: expected a positive integer")
    povm_data = _expect_key(data, "povm", field)
    if not isinstance(povm_data, list) or not povm_data:
        raise FormatError(f"{field}.povm: expected a non-empty list")
    # elements of one shape decode as one stack; the per-matrix path names a fault
    stack = _complex_array(povm_data, 3)
    povm = tuple(stack) if stack is not None else tuple(
        matrix_from_json(el, f"{field}.povm[{k}]") for k, el in enumerate(povm_data))
    try:
        probe = StateVector(probe)
    except ValueError as exc:  # the zero vector
        raise FormatError(f"{field}.probe: {exc}") from None
    block = {"probe": probe, "ancilla_dim": anc, "povm": povm}
    if guesses:
        values = _expect_key(data, "guesses", field)
        if not isinstance(values, list) or len(values) != len(povm):
            raise FormatError(f"{field}.guesses: expected {len(povm)} entries")
        for k, g in enumerate(values):
            if g is not None and not _is_index(g):
                raise FormatError(f"{field}.guesses[{k}]: expected an index or null")
        block["guesses"] = tuple(values)
    return block


def _stage2_to_json(st: StageTwo) -> dict:
    return {"party": st.party, **_probe_block_to_json(st)}


def _stage2_from_json(data, field: str) -> StageTwo:
    party = _expect_key(data, "party", field)
    if party not in ("A", "B"):
        raise FormatError(f"{field}.party: expected 'A' or 'B', got {party!r}")
    # older files carry "correction": null; a non-null correction describes
    # a protocol this format does not model, and ignoring it would verify
    # a different one
    if data.get("correction") is not None:
        raise FormatError(f"{field}.correction: corrections are not supported, expected null")
    return StageTwo(party=party, **_probe_block_from_json(data, field))


def tree_to_json(tree: ProtocolTree) -> dict:
    return {
        "start": tree.start,
        **_probe_block_to_json(tree),
        "branches": [
            {
                "retained": list(br.retained),
                "guess": br.guess,
                "stage2": None if br.stage2 is None else _stage2_to_json(br.stage2),
            }
            for br in tree.branches
        ],
        "note": tree.note,
    }


def tree_from_json(data, field: str = "tree") -> ProtocolTree:
    start = _expect_key(data, "start", field)
    if start not in ("A", "B"):
        raise FormatError(f"{field}.start: expected 'A' or 'B', got {start!r}")
    block = _probe_block_from_json(data, field, guesses=False)
    n_out = len(block["povm"])
    branches_data = _expect_key(data, "branches", field)
    if not isinstance(branches_data, list) or len(branches_data) != n_out:
        raise FormatError(f"{field}.branches: expected {n_out} entries")
    branches = []
    for k, br in enumerate(branches_data):
        retained = _expect_key(br, "retained", f"{field}.branches[{k}]")
        if not isinstance(retained, list) or not all(map(_is_index, retained)):
            raise FormatError(
                f"{field}.branches[{k}].retained: expected a list of indices")
        guess = br.get("guess")
        if guess is not None and not _is_index(guess):
            raise FormatError(
                f"{field}.branches[{k}].guess: expected an index or null")
        st_data = br.get("stage2")
        stage2 = None if st_data is None else _stage2_from_json(
            st_data, f"{field}.branches[{k}].stage2")
        branches.append(OutcomeBranch(retained=tuple(retained), guess=guess,
                                      stage2=stage2))
    note = data.get("note", "")
    if not isinstance(note, str):
        raise FormatError(f"{field}.note: expected a string")
    return ProtocolTree(start=start, branches=tuple(branches), note=note, **block)


def probe_witness_to_json(w: ProbeWitness) -> dict:
    return _probe_block_to_json(w)


def probe_witness_from_json(data, field: str = "witness") -> ProbeWitness:
    return ProbeWitness(**_probe_block_from_json(data, field))


def witness_to_json(witness) -> dict | None:
    """Tagged encoding for either witness shape."""
    if witness is None:
        return None
    if isinstance(witness, ProtocolTree):
        return {"kind": "tree", "tree": tree_to_json(witness)}
    if isinstance(witness, ProbeWitness):
        return {"kind": "probe", "probe_witness": probe_witness_to_json(witness)}
    raise TypeError(f"cannot serialize witness of type {type(witness).__name__}")


def witness_from_json(data, field: str = "witness"):
    if data is None:
        return None
    kind = _expect_key(data, "kind", field)
    if kind == "tree":
        return tree_from_json(_expect_key(data, "tree", field), f"{field}.tree")
    if kind == "probe":
        return probe_witness_from_json(
            _expect_key(data, "probe_witness", field), f"{field}.probe_witness")
    raise FormatError(f"{field}.kind: expected 'tree' or 'probe', got {kind!r}")


# ---------------------------------------------------------------------------
# feasibility, certificates, verdicts


def feasibility_to_json(feas: ProbeFeasibility | None) -> dict | None:
    if feas is None:
        return None
    out = {
        "status": feas.status,
        "residual": feas.residual,
        "note": feas.note,
        "witness": None,
        "certificate": None,
    }
    if feas.witness is not None:
        out["witness"] = matrix_to_json(feas.witness.matrix)
    if feas.certificate is not None:
        cert = feas.certificate
        out["certificate"] = {
            "op_indices": list(cert.op_indices),
            # real (cRe, cIm) pairs flattened, two entries per operator
            "coeffs": [float(c) for c in cert.coeffs],
            "min_eig": float(cert.min_eig),
        }
    return out


def certificate_from_json(data, field: str = "certificate") -> InfeasibilityCertificate:
    idx = _expect_key(data, "op_indices", field)
    if not isinstance(idx, list) or not all(map(_is_index, idx)):
        raise FormatError(f"{field}.op_indices: expected a list of indices")
    coeffs_data = _expect_key(data, "coeffs", field)
    if (
        not isinstance(coeffs_data, list)
        or len(coeffs_data) != 2 * len(idx)
        or not all(map(_is_number, coeffs_data))
    ):
        raise FormatError(
            f"{field}.coeffs: expected {2 * len(idx)} real coefficients")
    coeffs = np.array([_real(c, f"{field}.coeffs[{k}]") for k, c in enumerate(coeffs_data)],
                      dtype=float)
    min_eig = _real(_expect_key(data, "min_eig", field), f"{field}.min_eig")
    return InfeasibilityCertificate(op_indices=tuple(idx), coeffs=coeffs,
                                    min_eig=min_eig)


def verdict_to_json(verdict: StrategyVerdict) -> dict:
    return {
        "strategy": verdict.strategy,
        "starting_party": verdict.starting_party,
        "status": verdict.status,
        "note": verdict.note,
        "witness": witness_to_json(verdict.witness),
        "feasibility": feasibility_to_json(verdict.feasibility),
    }


def seesaw_to_json(result, restarts: int) -> dict:
    return {
        "s_max": float(result.s_max),
        "restarts": int(restarts),
        "per_restart": [
            {"value": float(v), "sweeps": int(s), "nonconverged": int(k)}
            for (v, s), k in zip(result.per_restart, result.nonconverged)
        ],
        "povm": [matrix_to_json(el) for el in result.povm],
        "rho": matrix_to_json(result.rho.matrix),
    }
