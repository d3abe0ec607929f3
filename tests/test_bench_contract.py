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
from unidisc.probefeas import OrthogonalityProblem, common_probe_feasible, verify_certificate

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


def test_route_certificates_carry_the_recomputed_bound():
    # each certifying route computes a certificate's bound once and carries
    # it; verify_certificate must recompute exactly that bound
    certified = []
    for case in _ROUTE_CASES:
        _, dim, ops = case.values
        problem = OrthogonalityProblem(dim=dim, operators=ops)
        cert = common_probe_feasible(problem).certificate
        if cert is not None:
            assert cert.min_eig == verify_certificate(problem, cert), case.id
            certified.append(case.id)
    assert certified == ["single_op_cert", "projections_certified"]


def test_audit_spans_the_public_deciders(tracing):
    # the audit's rows are the public deciders' verdicts, so each shows as a
    # span of its own, and check_gda asks check_gdr for the GDR verdict
    from unidisc.families import pauli_hadamard_set, qutrit_quartet_set

    tracer = tracing.Tracer()
    tracer.install(unidisc)
    try:
        unidisc.protocols.hierarchy_audit(pauli_hadamard_set())
        audit = len(tracer.spans)
        unidisc.protocols.check_gda(qutrit_quartet_set())
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans[:audit]}
    deciders = {"protocols.check_ldr", "protocols.check_lda", "protocols.check_gdr",
                "protocols.check_gda", "separable.check_gda_separable",
                "separable.separable_start_analysis"}
    assert deciders - names == set()
    gda = [k for k, span in enumerate(tracer.spans) if span[0] == "protocols.check_gda"][-1]
    parents = [span[3] for span in tracer.spans[audit:] if span[0] == "protocols.check_gdr"]
    assert parents and set(parents) == {gda}


def _decomposed_in(spans, first, kernel, deciders):
    """Whether a ``kernel`` span from index ``first`` on sits in a
    ``common_probe_feasible`` span whose parent is one of ``deciders``."""
    def parent(span):
        return spans[span[3]] if span[3] >= 0 else ("", 0, 0, -1, 0)

    return any(span[0] == kernel
               and parent(span)[0].startswith("probefeas.common_probe_feasible.")
               and parent(parent(span))[0] in deciders for span in spans[first:])


def test_problems_decompose_through_the_spanned_kernels(tracing):
    # a table poses its problems unchecked, but each operator's spectrum
    # still comes from the public eig_unitary and min_convex_norm, so the
    # benchmark's per-layer view counts them: the GDR problem's operator
    # under check_gdr, and the one-party problems' under the local deciders
    from unidisc.families import PhasePairParams, phase_pair_set, random_qubit_set

    phase_pair = phase_pair_set(PhasePairParams(0.3, 0.5, 0.9, np.pi - 1.7))
    pool_set = random_qubit_set(np.random.default_rng(0))
    tracer = tracing.Tracer()
    tracer.install(unidisc)
    try:
        unidisc.protocols.check_gdr(phase_pair)
        audit = len(tracer.spans)
        unidisc.protocols.hierarchy_audit(pool_set)
    finally:
        tracer.uninstall()
    local = {"protocols.check_ldr", "protocols.check_lda"}
    for kernel in ("qcore.eig_unitary", "eigdist.min_convex_norm"):
        assert _decomposed_in(tracer.spans[:audit], 0, kernel, {"protocols.check_gdr"}), kernel
        assert _decomposed_in(tracer.spans, audit, kernel, local), kernel
