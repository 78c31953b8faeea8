"""Single-qubit teleportation over a shared Bell pair.

The sender holds qubits 0 (the payload |psi>) and 1 (her half of the pair);
the receiver holds qubit 2.  The sender entangles and measures, two classical
bits travel to the receiver, and the receiver applies the conditional
correction.  With clean channels the protocol is exact.

These state-vector circuits are the oracle; only tests, ``qtsim selftest``
and the benchmark tracer run them.  Every step is Clifford, so a payload
qubit arrives under one residual Pauli, and its fidelity is a squared Bloch
component (Gottesman-Knill).  ``teleport_fidelity`` computes it for a whole
batch; ``teleport_errors`` judges it, and ``teleport_frames`` sends the bits
over the link first.  Sessions, teleport sweeps and ``qtsim teleport-demo``
all run these.

Classical bit order on the wire is (m1, m2) with m1 the measurement of the
Hadamard-ed payload qubit: the pair is the measured Bell state's
``BellKind`` (phase_bit, parity_bit).  The receiver corrects by the Pauli
``PAULI_FROM_FLAGS[m2, m1]``.  For outcome (1, 1) that is Y, applied as X
first, then Z - the unique order that restores |psi> from a|1> - b|0>.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .link import send_bits
from .qstate import (
    PAULI_FROM_FLAGS,
    PHI_PLUS,
    BellKind,
    PauliError,
    StateVector,
    apply_gate,
    apply_pauli,
    discard_qubit,
    fidelity,
    make_bell,
    measure_qubit,
    tensor,
)

# A teleported qubit counts as erroneous iff its fidelity to the input drops
# below this.  All injected errors are Pauli mismatches, which are exactly
# fidelity-reducing for generic test states.
ERROR_FIDELITY_TOL = 1e-9

# Generic test state 0.6|0> + 0.8 e^{i pi/5}|1>: |a| != |b| and a complex
# relative phase, so no single Pauli mismatch leaves its fidelity at 1.
DEFAULT_TEST_STATE = StateVector(
    1, np.array([0.6, 0.8 * np.exp(1j * np.pi / 5)], dtype=complex)
)


@dataclass(frozen=True)
class TeleportResult:
    outcome: BellKind
    receiver_state: StateVector
    fidelity_to_input: float

    @property
    def is_error(self) -> bool:
        return is_inexact(self.fidelity_to_input)


def is_inexact(fidelity):
    """Whether a teleport with this fidelity to the input counts as an error."""
    return fidelity < 1.0 - ERROR_FIDELITY_TOL


def sender_measure(joint: StateVector, rng) -> tuple[BellKind, StateVector]:
    """Sender-side Bell measurement on qubits 0 and 1 of a 3-qubit state.

    Applies CNOT(0 -> 1) then H on qubit 0, measures both, and returns the
    classical outcome together with the receiver's residual 1-qubit state.
    """
    if joint.n_qubits != 3:
        raise ValueError(f"sender_measure needs a 3-qubit state, got {joint.n_qubits}")
    s = apply_gate(joint, "CNOT", (0, 1))
    s = apply_gate(s, "H", 0)
    o1 = measure_qubit(s, 0, rng)
    o2 = measure_qubit(o1.post_state, 1, rng)
    residual = discard_qubit(o2.post_state, 1, o2.bit)
    residual = discard_qubit(residual, 0, o1.bit)
    return BellKind(o1.bit, o2.bit), residual


def receiver_correct(qubit3: StateVector, outcome: BellKind) -> StateVector:
    """Receiver-side conditional correction: 00 -> I, 01 -> X, 10 -> Z, 11 -> X then Z."""
    return apply_pauli(qubit3, 0, PAULI_FROM_FLAGS[outcome.parity_bit, outcome.phase_bit])


def teleport_fidelity(amplitudes, pair_x, pair_z, sent, received) -> np.ndarray:
    """Pauli-frame teleports: each payload qubit's fidelity to its input.

    ``amplitudes`` is one qubit's (a, b) or one row per qubit; ``pair_x`` and
    ``pair_z`` are the frame flags on the receiver's half of each pair, and
    ``sent``/``received`` the (m1, m2) bits of each teleport, flat in wire
    order.  Whatever the sender measures, the receiver ends with the payload
    under one residual Pauli: X iff ``pair_x`` differs from the m2 flip, Z
    iff ``pair_z`` differs from the m1 flip.  The fidelity is then the
    squared Bloch component along that Pauli (1 for I).
    """
    a, b = np.moveaxis(np.asarray(amplitudes, dtype=complex), -1, 0)
    ab = np.conj(a) * b
    bloch_x, bloch_y, bloch_z = 2.0 * ab.real, 2.0 * ab.imag, abs(a) ** 2 - abs(b) ** 2
    flipped = np.asarray(sent) != np.asarray(received)
    x = np.asarray(pair_x) != flipped[1::2]
    z = np.asarray(pair_z) != flipped[0::2]
    component = np.where(x, np.where(z, bloch_y, bloch_x), np.where(z, bloch_z, 1.0))
    return component**2


def teleport_errors(amplitudes, pair_x, pair_z, sent, received) -> np.ndarray:
    """Which payload qubits arrive corrupted: ``teleport_fidelity``, judged by ``is_inexact``."""
    return is_inexact(teleport_fidelity(amplitudes, pair_x, pair_z, sent, received))


def teleport_frames(amplitudes, pair_x, pair_z, rng, **link):
    """Teleport payload qubits over pairs with the given frame flags.

    The sender's (m1, m2) outcome is uniform whatever the pair and payload
    are, so it is drawn as bits; they cross the classical link
    (``link.send_bits`` with the ``link`` keywords), and ``teleport_errors``
    judges each qubit.  Returns (sent, received, errors).
    """
    sent = rng.integers(0, 2, size=2 * len(pair_x), dtype=np.int8)
    received = send_bits(sent, rng, **link)
    return sent, received, teleport_errors(amplitudes, pair_x, pair_z, sent, received)


def teleport_once(
    psi: StateVector,
    classical_error: tuple[int, int] = (0, 0),
    pauli_on_pair: PauliError = PauliError.I,
    rng=None,
) -> TeleportResult:
    """Run the full teleportation pipeline for one payload qubit.

    ``classical_error`` is XOR-ed onto the transmitted (m1, m2);
    ``pauli_on_pair`` corrupts the receiver-bound half of the shared pair
    before the protocol runs.
    """
    if psi.n_qubits != 1:
        raise ValueError("teleport_once moves a single qubit")
    if rng is None:
        raise ValueError("teleport_once needs an rng stream")
    pair = make_bell(PHI_PLUS)
    pair = apply_pauli(pair, 1, pauli_on_pair)
    outcome, residual = sender_measure(tensor(psi, pair), rng)
    received = BellKind(
        outcome.phase_bit ^ classical_error[0], outcome.parity_bit ^ classical_error[1]
    )
    corrected = receiver_correct(residual, received)
    return TeleportResult(outcome, corrected, fidelity(corrected, psi))
