"""Shared fixtures."""

import math

import numpy as np
import pytest

from unidisc import qcore
from unidisc.families import CLOCK3, FLIP3, H, I2, X, Z, ket, uniform_superposition
from unidisc.protocols import OutcomeBranch, ProtocolTree, StageTwo
from unidisc.qcore import StateVector


@pytest.fixture(autouse=True)
def empty_store():
    """Start each test with an empty store of sub-problem entries
    (``qcore._store``), so that no test reads what another solved,
    or what a patched solver answered there."""
    qcore._store.clear()


@pytest.fixture
def quartet_tree() -> ProtocolTree:
    """Explicit adaptive protocol distinguishing the qutrit quartet.

    The first party probes with the balanced superposition and measures in a
    basis containing that state and its clock-rotated image, which reveals
    whether their factor was trivial.  The second party then settles the
    remaining binary alternative with an outcome-dependent probe.
    """
    phi = uniform_superposition(3)
    phi_rot = CLOCK3 @ phi
    p0 = np.outer(phi, phi.conj())
    p1 = np.outer(phi_rot, phi_rot.conj())
    rest = np.eye(3, dtype=complex) - p0 - p1

    # Outcome 0: first factor trivial, second party separates 1 vs clock.
    stage_a = StageTwo(
        party="B",
        probe=StateVector(phi),
        ancilla_dim=1,
        povm=(p0, p1, rest),
        guesses=(0, 1, None),
    )
    # Outcome 1: first factor was the clock, second party separates 1 vs flip
    # using a probe supported on the levels the flip acts on with opposite
    # signs under the two alternatives.
    chi = (ket(0, 3) + ket(2, 3)) / math.sqrt(2.0)
    chi_flip = FLIP3 @ chi
    q0 = np.outer(chi, chi.conj())
    q1 = np.outer(chi_flip, chi_flip.conj())
    stage_b = StageTwo(
        party="B",
        probe=StateVector(chi),
        ancilla_dim=1,
        povm=(q0, q1, np.eye(3, dtype=complex) - q0 - q1),
        guesses=(2, 3, None),
    )
    return ProtocolTree(
        start="A",
        probe=StateVector(phi),
        ancilla_dim=1,
        povm=(p0, p1, rest),
        branches=(
            OutcomeBranch(retained=(0, 1), stage2=stage_a),
            OutcomeBranch(retained=(2, 3), stage2=stage_b),
            OutcomeBranch(retained=(), guess=None),
        ),
        note="adaptive two-step protocol for the qutrit quartet",
    )


@pytest.fixture(params=["scaled", "non-normal"])
def near_unitary_items(request):
    """Items (label, A, B) over the factors X, Z, H and I, each moved 4.9e-9
    off unitary, within the 1e-8 a set accepts: scaled by 1 + 4.9e-9, or
    plus a nilpotent (non-normal) term of that size.  Their relatives and
    products are off by up to four times as much."""
    if request.param == "scaled":
        factors = [m * (1 + 4.9e-9) for m in (X, Z, H, I2)]
    else:
        factors = [m + np.array([[0, 4.9e-9], [0, 0]]) for m in (X, Z, H, I2)]
    return tuple((f"{a}{b}", factors[a], factors[b])
                 for a, b in ((0, 1), (1, 2), (2, 3), (3, 0), (0, 0)))
