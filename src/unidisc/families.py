"""Concrete unitary families, gate constants, and hand-built protocol trees.

Three families recur throughout the test suite and the command line tool:

* two-element sets of two-qubit diagonal phase products whose four phase
  angles sum to pi (``phase_pair_set``),
* a four-element qutrit-pair family built from the order-3 clock gate and a
  two-level sign flip (``qutrit_quartet_set``),
* a five-element two-qubit family mixing Pauli and Hadamard-type factors
  (``pauli_hadamard_set``).

For the latter two, explicit adaptive two-way protocols are constructed here
as :class:`~unidisc.protocols.ProtocolTree` objects so that their success
probabilities can be checked numerically rather than argued.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .protocols import OutcomeBranch, ProductUnitarySet, ProtocolTree, StageTwo
from .qcore import StateVector, UnitaryOperator, haar_unitary

__all__ = [
    "I2",
    "X",
    "Z",
    "H",
    "HX",
    "I3",
    "CLOCK3",
    "FLIP3",
    "PHI_PLUS",
    "PHI_MINUS",
    "PSI_PLUS",
    "PSI_MINUS",
    "H_PSI_PLUS",
    "H_PSI_MINUS",
    "ket",
    "uniform_superposition",
    "maximally_entangled",
    "choi_state",
    "diag_phase",
    "PhasePairParams",
    "phase_pair_set",
    "qutrit_quartet_set",
    "pauli_hadamard_set",
    "qutrit_quartet_tree",
    "pauli_hadamard_tree",
    "random_pair",
    "random_qubit_set",
    "SNAP_GATES",
]


# ---------------------------------------------------------------------------
# gates and states


I2 = np.eye(2, dtype=complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
# Hadamard with swapped columns: maps |0> -> |->, |1> -> |+>.
HX = H @ X

I3 = np.eye(3, dtype=complex)
CLOCK3 = np.diag(np.exp(2j * np.pi * np.arange(3) / 3.0))
FLIP3 = np.diag([1.0, 1.0, -1.0]).astype(complex)


def ket(index: int, dim: int) -> np.ndarray:
    """Computational basis column vector ``|index>`` in ``dim`` dimensions."""
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def uniform_superposition(dim: int) -> np.ndarray:
    """The balanced superposition of all computational basis states."""
    return np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)


def maximally_entangled(dim: int) -> np.ndarray:
    """``sum_i |ii> / sqrt(dim)`` on a ``dim * dim`` composite."""
    v = np.zeros(dim * dim, dtype=complex)
    for i in range(dim):
        v[i * dim + i] = 1.0 / math.sqrt(dim)
    return v


def choi_state(u: np.ndarray) -> np.ndarray:
    """Image of the maximally entangled state under ``u`` on the first half."""
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    return np.kron(u, np.eye(d, dtype=complex)) @ maximally_entangled(d)


# Two-qubit Bell-type states written in the fixed convention used by every
# protocol below: system qubit first, ancilla qubit second.
PHI_PLUS = choi_state(I2)
PHI_MINUS = choi_state(Z)
PSI_PLUS = choi_state(X)
PSI_MINUS = choi_state(X @ Z)
# Hadamard-rotated pair: (|+0> + |-1>)/sqrt2 and (|-0> + |+1>)/sqrt2.
H_PSI_PLUS = choi_state(H)
H_PSI_MINUS = choi_state(HX)


def diag_phase(angles) -> np.ndarray:
    """Diagonal unitary ``diag(exp(i * a) for a in angles)``."""
    return np.diag(np.exp(1j * np.asarray(angles, dtype=float)))


# ---------------------------------------------------------------------------
# family 1: diagonal phase pairs


@dataclass(frozen=True)
class PhasePairParams:
    """Angles of the two-element diagonal-product family.

    Each angle must lie strictly inside ``(0, pi/2)`` and the four must sum
    to ``pi``; both conditions are enforced at construction.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self) -> None:
        angles = (self.alpha, self.beta, self.gamma, self.delta)
        names = ("alpha", "beta", "gamma", "delta")
        for name, a in zip(names, angles):
            if not (0.0 < a < math.pi / 2.0):
                raise ValueError(
                    f"{name} = {a!r} is outside the open interval (0, pi/2)"
                )
        total = sum(angles)
        if abs(total - math.pi) > 1e-12:
            raise ValueError(f"angles sum to {total!r}, expected pi")


def phase_pair_set(params: PhasePairParams) -> ProductUnitarySet:
    """Two two-qubit diagonal products separated only by local phases.

    The first element applies phases ``-alpha`` and ``-beta`` to the two
    ``|1>`` levels, the second applies ``+gamma`` and ``+delta``.  The
    relative unitary then carries phases ``{0, beta+delta, alpha+gamma,
    pi}``; the antipodal pair puts the origin inside the convex hull, so the
    two products are globally distinguishable, while each local factor pair
    spans a phase gap strictly below ``pi`` and is not.
    """
    a1 = diag_phase([0.0, -params.alpha])
    r1 = diag_phase([0.0, -params.beta])
    a2 = diag_phase([0.0, params.gamma])
    r2 = diag_phase([0.0, params.delta])
    return ProductUnitarySet(
        (2, 2),
        [("U1", a1, r1), ("U2", a2, r2)],
    )


# ---------------------------------------------------------------------------
# family 2: qutrit quartet


def qutrit_quartet_set() -> ProductUnitarySet:
    """Four products of qutrit phase gates on a qutrit pair.

    The elements are ``1 x 1``, ``1 x C``, ``C x 1`` and ``C x F`` where
    ``C`` is the order-3 clock gate and ``F`` flips the sign of the last
    level.  All factors commute, yet the family separates the adaptive
    strategies from the non-adaptive ones.
    """
    return ProductUnitarySet(
        (3, 3),
        [
            ("V1", I3, I3),
            ("V2", I3, CLOCK3),
            ("V3", CLOCK3, I3),
            ("V4", CLOCK3, FLIP3),
        ],
    )


def qutrit_quartet_tree() -> ProtocolTree:
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


# ---------------------------------------------------------------------------
# family 3: Pauli/Hadamard quintet


def pauli_hadamard_set() -> ProductUnitarySet:
    """Five two-qubit products with Pauli first factors and Hadamard-type
    second factors.

    The second factors of the third and fourth elements are the Hadamard
    gate and its column-swapped variant, which differ by a right Pauli-X
    factor.
    """
    return ProductUnitarySet(
        (2, 2),
        [
            ("W1", I2, I2),
            ("W2", Z, X),
            ("W3", X, H),
            ("W4", X, HX),
            ("W5", X @ Z, H),
        ],
    )


def _proj(vec: np.ndarray) -> np.ndarray:
    return np.outer(vec, vec.conj())


def pauli_hadamard_tree(start: str = "A") -> ProtocolTree:
    """Adaptive protocol for the Pauli/Hadamard quintet, from either side.

    Both parties probe with a maximally entangled pair and measure in bases
    of maximally entangled states; the evolved probes are the images of the
    maximally entangled state under the local factors, so each stage is a
    discrimination among such states.  Either party may measure first; the
    second stage then resolves whatever ambiguity the first outcome leaves.
    """
    if start == "A":
        # The first party's factors 1, Z, X, X, XZ map the probe onto the
        # four Bell-type states, with the two middle elements colliding.
        stage = StageTwo(
            party="B",
            probe=StateVector(PHI_PLUS),
            ancilla_dim=2,
            povm=(
                _proj(H_PSI_PLUS),
                _proj(H_PSI_MINUS),
                np.eye(4, dtype=complex)
                - _proj(H_PSI_PLUS)
                - _proj(H_PSI_MINUS),
            ),
            guesses=(2, 3, None),
        )
        return ProtocolTree(
            start="A",
            probe=StateVector(PHI_PLUS),
            ancilla_dim=2,
            povm=(
                _proj(PHI_PLUS),
                _proj(PHI_MINUS),
                _proj(PSI_PLUS),
                _proj(PSI_MINUS),
            ),
            branches=(
                OutcomeBranch(retained=(0,), guess=0),
                OutcomeBranch(retained=(1,), guess=1),
                OutcomeBranch(retained=(2, 3), stage2=stage),
                OutcomeBranch(retained=(4,), guess=4),
            ),
            note="first-party-first protocol for the Pauli/Hadamard quintet",
        )
    if start == "B":
        # The second party's factors 1, X, H, HX, H map the probe onto four
        # distinct maximally entangled states; measuring in the orthonormal
        # basis of Hadamard-rotated Bell states splits them into branches the
        # first party can always finish.
        basis = tuple(choi_state(g) for g in (H, H @ X, H @ Z, H @ X @ Z))
        stage_h = StageTwo(
            party="A",
            probe=StateVector(PHI_PLUS),
            ancilla_dim=2,
            povm=(
                _proj(PHI_MINUS),
                _proj(PSI_PLUS),
                _proj(PSI_MINUS),
                _proj(PHI_PLUS),
            ),
            guesses=(1, 2, 4, None),
        )
        stage_hx = StageTwo(
            party="A",
            probe=StateVector(PHI_PLUS),
            ancilla_dim=2,
            povm=(
                _proj(PHI_PLUS),
                _proj(PSI_PLUS),
                np.eye(4, dtype=complex) - _proj(PHI_PLUS) - _proj(PSI_PLUS),
            ),
            guesses=(0, 3, None),
        )
        stage_hxz = StageTwo(
            party="A",
            probe=StateVector(PHI_PLUS),
            ancilla_dim=2,
            povm=(
                _proj(PHI_MINUS),
                _proj(PSI_MINUS),
                np.eye(4, dtype=complex) - _proj(PHI_MINUS) - _proj(PSI_MINUS),
            ),
            guesses=(1, 4, None),
        )
        return ProtocolTree(
            start="B",
            probe=StateVector(PHI_PLUS),
            ancilla_dim=2,
            povm=tuple(_proj(b) for b in basis),
            branches=(
                OutcomeBranch(retained=(1, 2, 4), stage2=stage_h),
                OutcomeBranch(retained=(0, 3), stage2=stage_hx),
                OutcomeBranch(retained=(0,), guess=0),
                OutcomeBranch(retained=(1, 4), stage2=stage_hxz),
            ),
            note="second-party-first protocol for the Pauli/Hadamard quintet",
        )
    raise ValueError(f"start must be 'A' or 'B', got {start!r}")


# ---------------------------------------------------------------------------
# random instances


#: Gate alphabet used to discretize Haar-random qubit factors.  Contains the
#: identity, the Paulis and their product, and four Hadamard-type gates, so
#: snapped factors produce both traceless and non-traceless relatives.
SNAP_GATES: tuple[np.ndarray, ...] = (
    I2,
    X,
    Z,
    X @ Z,
    H,
    H @ X,
    X @ H,
    # ZH duplicates HX and HZ duplicates XH; conjugation gives a fourth
    # distinct Hadamard-type gate
    X @ H @ X,
)


def random_pair(rng: np.random.Generator, dim: int) -> tuple[UnitaryOperator, UnitaryOperator]:
    """Two independent Haar-random unitaries of the given dimension."""
    return haar_unitary(dim, rng), haar_unitary(dim, rng)


def random_qubit_set(rng: np.random.Generator) -> ProductUnitarySet:
    """Random product-unitary set on a pair of qubits.

    Sizes are drawn from ``{2, 3, 4}`` and each factor is a Haar sample
    snapped to the nearest member of :data:`SNAP_GATES` (largest
    ``|Tr(G^dag U)|``), which keeps the sets exactly decidable while still
    exercising every code path.
    """
    m = int(rng.integers(2, 5))

    def snap() -> np.ndarray:
        u = haar_unitary(2, rng).matrix
        scores = [abs(np.trace(g.conj().T @ u)) for g in SNAP_GATES]
        return SNAP_GATES[int(np.argmax(scores))]

    items = [(f"U{i + 1}", snap(), snap()) for i in range(m)]
    return ProductUnitarySet((2, 2), items)
