"""The library names and notes the benchmark's tracer relies on.

``perfbench/tracing.py`` wraps the functions it lists by name and sorts
every ``common_probe_feasible`` result into a route by its note.  A renamed
function or a new note makes a traced benchmark run fail while the plain
run passes, so both contracts are checked here, on the tracer's own tables.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import unidisc
from unidisc.probefeas import OrthogonalityProblem, common_probe_feasible

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(tracing):
    missing = [f"{mod}.{fn}" for mod, fn in tracing.SPANNED + tracing.COUNTED
               if not callable(getattr(getattr(unidisc, mod, None), fn, None))]
    assert missing == []


X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
# the four product unitaries of a two-qubit set whose GDR problem only the
# projections decide
_STALL = [np.kron(a, b) for a, b in ((np.eye(2), Z @ H @ Z), (np.eye(2), H),
                                     (H @ Z, X), (Z @ H @ Z, np.eye(2)))]
# one instance per route: commuting; non-commuting with an operator whose
# eigenvalue hull misses the origin; traceless and non-commuting; a qutrit
# pair that each admit a probe alone, but not the maximally mixed one; and
# six relative unitaries of that set, which projections certify
_ROUTE_CASES = [
    pytest.param("trivial", 2, (), id="trivial"),
    pytest.param("lp", 2, (Z,), id="lp"),
    pytest.param("single_op_cert", 2, (np.diag([1.0, np.exp(0.1j)]), X), id="single_op_cert"),
    pytest.param("mixed", 2, (X, Z), id="mixed"),
    pytest.param("projections", 3, (np.diag([1.0, -1.0, 1j]), np.roll(np.eye(3), 1, axis=0)),
                 id="projections"),
    pytest.param("projections", 4, tuple(_STALL[i].conj().T @ _STALL[j]
                                         for i in range(4) for j in range(i + 1, 4)),
                 id="projections_certified"),
]


@pytest.mark.parametrize("route, dim, ops", _ROUTE_CASES)
def test_probe_route_classifies_every_route(tracing, route, dim, ops):
    result = common_probe_feasible(OrthogonalityProblem(dim=dim, operators=ops))
    assert tracing.probe_route(result) == route


def test_route_cases_cover_every_route(tracing):
    assert {c.values[0] for c in _ROUTE_CASES} == set(tracing.ROUTES)
