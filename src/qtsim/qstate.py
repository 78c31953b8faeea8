"""Dense state-vector simulator for up to 16 qubits.

Qubit ordering convention (used everywhere in this package): qubit 0 is the
most significant bit of the basis index.  For an n-qubit register, basis
index i assigns qubit q the bit (i >> (n - 1 - q)) & 1, so e.g. |10> on two
qubits is index 2.  Every operation finds qubit q through one view,
``_qubit_view``: the amplitudes reshaped to (2**q, 2, 2**(n-q-1)), whose
axis 1 is qubit q's bit.

States are values: every operation returns a new ``StateVector``, whose
amplitudes are a fresh array: it never mutates its input nor shares memory
with it.  Normalization is asserted on construction (gates must preserve
it); renormalization only ever happens at measurement collapse.
Global phase is not tracked as meaningful; ``fidelity`` is the only notion
of state equality.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

NORM_TOL = 1e-9
MAX_QUBITS = 16


class CapacityError(ValueError):
    """Raised when an operation would exceed the 16-qubit register cap."""


_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

GATES_1Q = {"H": _H, "X": _X, "Y": _Y, "Z": _Z}


class PauliError(enum.Enum):
    """Single-qubit Pauli error: identity or one of the three flips."""

    I = "I"
    X = "X"
    Y = "Y"
    Z = "Z"


# The one Pauli of each (x, z) frame-flag pair: Y is an X flip and a Z flip.
PAULI_FROM_FLAGS = {
    (0, 0): PauliError.I, (1, 0): PauliError.X,
    (0, 1): PauliError.Z, (1, 1): PauliError.Y,
}


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude register over ``n_qubits`` qubits.

    ``amplitudes`` has length 2**n_qubits and unit norm (checked to 1e-9).
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"need at least one qubit, got {self.n_qubits}")
        if self.n_qubits > MAX_QUBITS:
            raise CapacityError(
                f"{self.n_qubits} qubits exceeds the {MAX_QUBITS}-qubit cap"
            )
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.n_qubits,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, "
                f"expected ({2**self.n_qubits},)"
            )
        norm2 = float(np.vdot(amps, amps).real)
        if not abs(norm2 - 1.0) <= NORM_TOL:  # NaN fails this too
            raise ValueError(f"state norm^2 = {norm2!r} is not 1 within {NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)

    def probability(self, qubit: int, bit: int) -> float:
        """Born probability that measuring ``qubit`` yields ``bit``."""
        _check_qubit(self, qubit)
        sub = _qubit_view(self.amplitudes, qubit)[:, _check_bit(bit)]
        return float(np.vdot(sub, sub).real)


@dataclass(frozen=True)
class BellKind:
    """Selector for one of the four Bell states, and a Bell measurement's record.

    ``phase_bit`` picks the relative sign, ``parity_bit`` picks whether the
    two qubits agree or disagree in the computational basis.
    """

    phase_bit: int
    parity_bit: int

    def __post_init__(self):
        if self.phase_bit not in (0, 1) or self.parity_bit not in (0, 1):
            raise ValueError("BellKind bits must be 0 or 1")


PHI_PLUS = BellKind(0, 0)   # (|00> + |11>)/sqrt(2)
PHI_MINUS = BellKind(1, 0)  # (|00> - |11>)/sqrt(2)
PSI_PLUS = BellKind(0, 1)   # (|01> + |10>)/sqrt(2)
PSI_MINUS = BellKind(1, 1)  # (|01> - |10>)/sqrt(2)


@dataclass(frozen=True)
class MeasureOutcome:
    """Result of a single-qubit computational measurement."""

    bit: int
    post_state: StateVector


def _qubit_view(amps: np.ndarray, qubit: int) -> np.ndarray:
    """``amps`` viewed as (2**qubit, 2, rest): axis 1 is ``qubit``'s bit."""
    return amps.reshape(2**qubit, 2, -1)


def _check_qubit(state: StateVector, qubit: int) -> None:
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(f"qubit {qubit} out of range for {state.n_qubits} qubits")


def _check_bit(bit: int) -> int:
    """``bit`` as an int; a ValueError unless it is 0 or 1."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    return int(bit)


def basis_state(n_qubits: int, index: int) -> StateVector:
    """Computational basis state |index> on ``n_qubits`` qubits."""
    if n_qubits > MAX_QUBITS:
        raise CapacityError(f"{n_qubits} qubits exceeds the {MAX_QUBITS}-qubit cap")
    if not 0 <= index < 2**n_qubits:
        raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(n_qubits, amps)


def apply_gate(state: StateVector, gate: str, targets) -> StateVector:
    """Apply one of {H, X, Y, Z, CNOT} to the named qubit(s).

    ``targets`` is a single index for 1-qubit gates or ``(control, target)``
    for CNOT.  Returns the new state; norm preservation is re-checked by the
    StateVector constructor.
    """
    if isinstance(targets, (int, np.integer)):
        targets = (int(targets),)
    else:
        targets = tuple(int(t) for t in targets)
    if gate == "CNOT":
        if len(targets) != 2:
            raise ValueError("CNOT takes (control, target)")
        control, target = targets
        if control == target:
            raise ValueError("CNOT control and target must be distinct")
        _check_qubit(state, control)
        _check_qubit(state, target)
        return StateVector(state.n_qubits, _cnot(state.amplitudes, control, target))
    if gate not in GATES_1Q:
        raise ValueError(f"unknown gate {gate!r}")
    if len(targets) != 1:
        raise ValueError(f"{gate} takes exactly one target qubit")
    _check_qubit(state, targets[0])
    return StateVector(state.n_qubits, _single(state.amplitudes, GATES_1Q[gate], targets[0]))


def _single(amps: np.ndarray, mat: np.ndarray, qubit: int) -> np.ndarray:
    return np.matmul(mat, _qubit_view(amps, qubit)).reshape(-1)


def _cnot(amps: np.ndarray, control: int, target: int) -> np.ndarray:
    """X on ``target`` everywhere, then the control = 0 slice put back."""
    out = _qubit_view(amps, target)[:, ::-1].flatten()
    _qubit_view(out, control)[:, 0] = _qubit_view(amps, control)[:, 0]
    return out


def apply_pauli(state: StateVector, qubit: int, pauli: PauliError) -> StateVector:
    """Apply a sampled Pauli error to one qubit.

    Y is realized as X followed by Z, which equals Y up to a global phase;
    global phase is unobservable everywhere in this package.
    """
    if pauli is PauliError.I:
        return state
    if pauli is PauliError.Y:
        return apply_gate(apply_gate(state, "X", qubit), "Z", qubit)
    return apply_gate(state, pauli.value, qubit)


def make_bell(kind: BellKind) -> StateVector:
    """Build a Bell pair: Pauli pre-rotations on |00>, then H and CNOT."""
    state = basis_state(2, 2 * kind.phase_bit + kind.parity_bit)
    state = apply_gate(state, "H", 0)
    return apply_gate(state, "CNOT", (0, 1))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product; a's qubits become the most significant ones."""
    n = a.n_qubits + b.n_qubits
    if n > MAX_QUBITS:
        raise CapacityError(f"tensor product would need {n} qubits (cap {MAX_QUBITS})")
    return StateVector(n, np.kron(a.amplitudes, b.amplitudes))


def measure_qubit(state: StateVector, qubit: int, rng) -> MeasureOutcome:
    """Measure one qubit in the computational basis and collapse.

    The sampled bit is 1 iff ``rng.random() < P(bit=1)``, so zero-probability
    branches are never taken (rng.random() is in [0, 1)).
    """
    _check_qubit(state, qubit)
    p1 = state.probability(qubit, 1)
    bit = 1 if rng.random() < p1 else 0
    amps = state.amplitudes / np.sqrt(p1 if bit == 1 else 1.0 - p1)
    _qubit_view(amps, qubit)[:, 1 - bit] = 0.0
    return MeasureOutcome(bit, StateVector(state.n_qubits, amps))


def discard_qubit(state: StateVector, qubit: int, bit: int) -> StateVector:
    """Drop a qubit known to be in basis state |bit> (e.g. post-measurement).

    Raises if the qubit is not actually in that basis state (the remaining
    amplitudes would not be normalized).
    """
    _check_qubit(state, qubit)
    if state.n_qubits == 1:
        raise ValueError("cannot discard the last qubit")
    kept = _qubit_view(state.amplitudes, qubit)[:, _check_bit(bit)].flatten()  # a copy, never a view
    return StateVector(state.n_qubits - 1, kept)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 - global-phase invariant, in [0, 1]."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(
            f"fidelity needs equal qubit counts, got {a.n_qubits} and {b.n_qubits}"
        )
    return min(1.0, float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2))


def random_state(n_qubits: int, rng) -> StateVector:
    """Haar-ish random pure state (normalized complex Gaussian amplitudes)."""
    amps = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return StateVector(n_qubits, amps / np.linalg.norm(amps))
