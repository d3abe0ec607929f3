"""JSON encoding of sets, trees, witnesses, verdicts, and results.

Complex scalars serialize as two-element arrays ``[re, im]``; matrices as
row-major nested arrays of those pairs; vectors as flat arrays of pairs.
Every decoder validates shape and numeric content and raises
:class:`FormatError` naming the offending field, which the command line
maps to a usage-error exit.
"""

from __future__ import annotations

import functools
import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii

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
    """Canonical serialization: sorted keys, two-space indent, newline end.

    Identical structures produce byte-identical text, the same as
    ``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\\n"``,
    with the same ``ValueError`` on NaN, infinity or a circular reference
    and ``TypeError`` on objects JSON cannot represent.  The standard library writes indented
    output in pure Python, one value at a time; here each rectangular nested
    list of numbers (matrices, POVM elements, vectors) is rendered in one
    pass of its C compact encoder, and the number strings fill an
    indentation template cached per shape and depth.
    """
    out = []
    _encode(obj, 0, out, set())
    out.append("\n")
    return "".join(out)


_INDENT = "  "
# scalar types the compact encoder renders as the indented one does, and
# whose text never holds a comma
_LEAF_TYPES = frozenset((float, int, bool, type(None)))
# number types as JSON decodes them
_NUMBER_TYPES = frozenset((float, int))
_compact = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


def _scalar_text(o) -> str | None:
    """JSON text of a string or scalar, or None for anything else."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o or o in (math.inf, -math.inf):
            raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
        return float.__repr__(o)
    return None


def _encode(o, level: int, out: list, open_ids: set) -> None:
    """Append the text of ``o`` at nesting depth ``level`` to ``out``;
    ``open_ids`` holds the ids of the containers being encoded."""
    text = _scalar_text(o)
    if text is not None:
        out.append(text)
        return
    pad = "\n" + _INDENT * (level + 1)
    if isinstance(o, (list, tuple)):
        block = _number_block(o, level) if o else "[]"
        if block is not None:
            out.append(block)
            return
        _enter(o, open_ids)
        sep = "[" + pad
        for item in o:
            out.append(sep)
            sep = "," + pad
            _encode(item, level + 1, out, open_ids)
        out.append("\n" + _INDENT * level + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        _enter(o, open_ids)
        sep = "{" + pad
        for key, item in sorted(o.items()):
            if not isinstance(key, str):
                text = _scalar_text(key)
                if text is None:
                    raise TypeError(f"keys must be str, int, float, bool or None, "
                                    f"not {key.__class__.__name__}")
                key = text
            out.append(sep + encode_basestring_ascii(key) + ": ")
            sep = "," + pad
            _encode(item, level + 1, out, open_ids)
        out.append("\n" + _INDENT * level + "}")
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
    open_ids.remove(id(o))


def _enter(container, open_ids: set) -> None:
    if id(container) in open_ids:
        raise ValueError("Circular reference detected")
    open_ids.add(id(container))


def _number_block(o, level: int) -> str | None:
    """Text of a rectangular nested list of numbers at depth ``level``, or
    None when ``o`` is anything else."""
    shape = []
    leaves = [o]
    while type(leaves[0]) is list and leaves[0]:
        n = len(leaves[0])
        if set(map(type, leaves)) != {list} or set(map(len, leaves)) != {n}:
            return None
        shape.append(n)
        leaves = list(chain.from_iterable(leaves))
    if not shape or not _LEAF_TYPES.issuperset(map(type, leaves)):
        return None
    try:
        numbers = _compact(leaves)[1:-1].split(",")
    except ValueError:  # NaN or infinity: the per-value path names it
        return None
    return _block_template(tuple(shape), level) % tuple(numbers)


@functools.lru_cache(maxsize=256)
def _block_template(shape: tuple, level: int) -> str:
    """Indented layout of a nested list of ``shape`` at depth ``level``,
    with a ``%s`` slot per number."""
    if not shape:
        return "%s"
    pad = "\n" + _INDENT * (level + 1)
    inner = _block_template(shape[1:], level + 1)
    return "[" + pad + ("," + pad).join([inner] * shape[0]) + "\n" + _INDENT * level + "]"


# ---------------------------------------------------------------------------
# scalars, vectors, matrices


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


def _complex_array(entries: list) -> np.ndarray | None:
    """The entries as one complex array when each is a list of two finite
    JSON numbers in float range, else None (the per-entry path then decodes
    or names the bad entry).  The numbers are read as one float64 array and
    viewed as complex, so signed zeros survive."""
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
        return None
    leaves = list(chain.from_iterable(entries))
    if not _NUMBER_TYPES.issuperset(map(type, leaves)):
        return None
    try:
        a = np.array(leaves, dtype=float)
    except OverflowError:
        return None
    return a.view(complex) if np.isfinite(a).all() else None


def matrix_to_json(m) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack((m.real, m.imag), -1).tolist()


def matrix_from_json(data, field: str) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise FormatError(f"{field}: expected a non-empty list of rows")
    width = len(data[0]) if isinstance(data[0], list) else 0
    if width and all(type(row) is list and len(row) == width for row in data):
        m = _complex_array(list(chain.from_iterable(data)))
        if m is not None:
            return m.reshape(len(data), width)
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
    v = np.asarray(v, dtype=complex).reshape(-1)
    return np.stack((v.real, v.imag), -1).tolist()


def vector_from_json(data, field: str) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise FormatError(f"{field}: expected a non-empty list of entries")
    v = _complex_array(data)
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
    povm = tuple(matrix_from_json(el, f"{field}.povm[{k}]")
                 for k, el in enumerate(povm_data))
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
