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
# one instance per route: commuting; non-commuting with an operator whose
# eigenvalue hull misses the origin; traceless and non-commuting; and a
# qutrit pair that each admit a probe alone, but not the maximally mixed one
_ROUTE_CASES = [
    ("trivial", 2, ()),
    ("lp", 2, (Z,)),
    ("single_op_cert", 2, (np.diag([1.0, np.exp(0.1j)]), X)),
    ("mixed", 2, (X, Z)),
    ("projections", 3, (np.diag([1.0, -1.0, 1j]), np.roll(np.eye(3), 1, axis=0))),
]


@pytest.mark.parametrize("route, dim, ops", _ROUTE_CASES, ids=[c[0] for c in _ROUTE_CASES])
def test_probe_route_classifies_every_route(tracing, route, dim, ops):
    result = common_probe_feasible(OrthogonalityProblem(dim=dim, operators=ops))
    assert tracing.probe_route(result) == route


def test_route_cases_cover_every_route(tracing):
    assert sorted(c[0] for c in _ROUTE_CASES) == sorted(tracing.ROUTES)
