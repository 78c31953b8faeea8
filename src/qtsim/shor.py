"""Nine-qubit Shor code: encode, correct, decode, and error-rate oracles.

Code layout: positions 0..8 form three triples (0,1,2), (3,4,5), (6,7,8)
with triple leaders 0, 3, 6.  Position 0 is the original data qubit; the
other eight are ancillas appended in |0>.  Encoding copies the data to the
other leaders, Hadamards all three leaders, then copies each leader to its
triple partners, giving

    |0> -> (|000> + |111>)^x3 / (2*sqrt(2)),
    |1> -> (|000> - |111>)^x3 / (2*sqrt(2)).

Decoding applies the inverse circuit, measures the eight ancillas, and
corrects the surviving data qubit from the measured syndrome:

  * triple partners measure the bit-flip parities (flip of partner vs
    leader); the leader's own flip is inferred by in-triple majority, and
    the data qubit gets a Z correction when the XOR of the three inferred
    leader flips is 1;
  * the two non-data leaders measure the phase parities of their triples
    relative to triple 0, and the data qubit gets an X correction when both
    disagree (majority vote over triple phase parities).

The same decision logic runs symbolically on Pauli patterns (no state
vector), which is the fast Monte Carlo path and the exact logical rate.  A
residual after decoding is a logical error:

    logical X  <=>  majority over triples of (parity of Z-type flips),
    logical Z  <=>  XOR over triples of majority(X-type flips in triple).

Batched flips (sessions, sweeps) are decoded by two 512-entry tables built
from these rules, indexed by the nine flags of a block packed into one word.
The exact rate sums the probabilities of the failing patterns, read once
from the same tables and cached; the sum is bit-identical to enumerating
and decoding all 4^9 patterns, which the tests keep as its oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .qchannel import DepolarizingParams, sample_pauli_flags
from .qstate import (
    CapacityError,
    MAX_QUBITS,
    PauliError,
    StateVector,
    apply_gate,
    apply_pauli,
    basis_state,
    discard_qubit,
    measure_qubit,
    tensor,
)

TRIPLES = ((0, 1, 2), (3, 4, 5), (6, 7, 8))
LEADERS = (0, 3, 6)


@dataclass(frozen=True)
class ShorBlock:
    """The nine physical-qubit indices (into a host state) of one code block.

    ``qubit_indices[k]`` is the host qubit holding code position k.
    """

    qubit_indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(q) for q in self.qubit_indices)
        if len(idx) != 9 or len(set(idx)) != 9:
            raise ValueError("ShorBlock needs 9 distinct qubit indices")
        object.__setattr__(self, "qubit_indices", idx)


@dataclass(frozen=True)
class PauliPattern:
    """Per-position channel errors for one code block."""

    errors: tuple[PauliError, ...]

    def __post_init__(self):
        if len(self.errors) != 9:
            raise ValueError("PauliPattern covers exactly 9 positions")


@dataclass(frozen=True)
class SyndromeResult:
    """Decode outcome.

    ``corrected`` is True when any syndrome bit fired (an error was seen).
    ``logical_error`` is the residual on the decoded qubit; it is only
    knowable in the symbolic/oracle path and is None from the state-vector
    decoder.
    """

    corrected: bool
    logical_error: PauliError | None


def _encode_gates(block: ShorBlock):
    q = block.qubit_indices
    gates = [("CNOT", (q[0], q[3])), ("CNOT", (q[0], q[6]))]
    gates += [("H", q[leader]) for leader in LEADERS]
    for leader in LEADERS:
        gates += [
            ("CNOT", (q[leader], q[leader + 1])),
            ("CNOT", (q[leader], q[leader + 2])),
        ]
    return gates


def shor_encode(host: StateVector, logical_qubit: int) -> tuple[StateVector, ShorBlock]:
    """Expand ``logical_qubit`` of ``host`` into a 9-qubit Shor block.

    Appends 8 ancillas in |0> at the end of the register and applies the
    encoding circuit.  Fails with CapacityError past the 16-qubit cap.
    """
    if not 0 <= logical_qubit < host.n_qubits:
        raise ValueError(f"logical qubit {logical_qubit} out of range")
    if host.n_qubits + 8 > MAX_QUBITS:
        raise CapacityError(
            f"encoding would need {host.n_qubits + 8} qubits (cap {MAX_QUBITS})"
        )
    k = host.n_qubits
    expanded = tensor(host, basis_state(8, 0))
    block = ShorBlock((logical_qubit,) + tuple(range(k, k + 8)))
    for gate, targets in _encode_gates(block):
        expanded = apply_gate(expanded, gate, targets)
    return expanded, block


def apply_pattern(
    host: StateVector, block: ShorBlock, pattern: PauliPattern
) -> StateVector:
    """Apply a per-position Pauli pattern to the block's physical qubits."""
    state = host
    for pos, err in enumerate(pattern.errors):
        state = apply_pauli(state, block.qubit_indices[pos], err)
    return state


def shor_decode(
    host: StateVector, block: ShorBlock, rng
) -> tuple[StateVector, SyndromeResult]:
    """Inverse-encode, measure the 8 ancillas, correct, and drop the ancillas.

    Returns the host with the logical qubit restored to a single physical
    qubit (ancillas removed) and the syndrome record.
    """
    q = block.qubit_indices
    state = host
    for gate, targets in reversed(_encode_gates(block)):
        state = apply_gate(state, gate, targets)

    bits = {}
    for pos in range(1, 9):
        out = measure_qubit(state, q[pos], rng)
        bits[pos] = out.bit
        state = out.post_state

    phase_majority = bits[3] & bits[6]
    leader_flips = (bits[1] & bits[2]) ^ (bits[4] & bits[5]) ^ (bits[7] & bits[8])
    if phase_majority:
        state = apply_gate(state, "X", q[0])
    if leader_flips:
        state = apply_gate(state, "Z", q[0])

    for pos in sorted(range(1, 9), key=lambda p: q[p], reverse=True):
        state = discard_qubit(state, q[pos], bits[pos])

    syndrome_fired = any(bits[pos] for pos in range(1, 9))
    return state, SyndromeResult(corrected=syndrome_fired, logical_error=None)


def classify_pattern(pattern: PauliPattern) -> SyndromeResult:
    """Symbolic decode of a Pauli pattern: which logical residual survives?"""
    xs = [e in (PauliError.X, PauliError.Y) for e in pattern.errors]
    zs = [e in (PauliError.Z, PauliError.Y) for e in pattern.errors]

    phase_parity = [zs[a] ^ zs[b] ^ zs[c] for a, b, c in TRIPLES]
    logical_x = sum(phase_parity) >= 2

    triple_majority = [(xs[a] + xs[b] + xs[c]) >= 2 for a, b, c in TRIPLES]
    logical_z = (sum(triple_majority) % 2) == 1

    syndrome_fired = any(
        (xs[p1] ^ xs[lead], xs[p2] ^ xs[lead]) != (0, 0)
        for lead, p1, p2 in TRIPLES
    ) or any(phase_parity[0] ^ phase_parity[b] for b in (1, 2))

    if logical_x and logical_z:
        residual = PauliError.Y
    elif logical_x:
        residual = PauliError.X
    elif logical_z:
        residual = PauliError.Z
    else:
        residual = PauliError.I
    return SyndromeResult(corrected=syndrome_fired, logical_error=residual)


def _decode_tables() -> tuple[np.ndarray, np.ndarray]:
    """(logical X, logical Z) for each of the 512 words of nine flags.

    Bit k of a word is position k's flag.  Logical X reads a word of Z-type
    flags, logical Z a word of X-type flags, by the triple rules of the
    module docstring.
    """
    flags = (np.arange(512)[:, None] >> np.arange(9)) & 1
    phase_parity = sum(flags[:, a] ^ flags[:, b] ^ flags[:, c] for a, b, c in TRIPLES)
    triple_majority = sum(flags[:, a] + flags[:, b] + flags[:, c] >= 2 for a, b, c in TRIPLES)
    return phase_parity >= 2, triple_majority % 2 == 1


# int16 words keep the cast of an (n, 9) flag array small: pauli_frame_batch
# decodes 10^6 blocks at once, at 18 bytes per block, not 72
_FLAG_WEIGHTS = (1 << np.arange(9)).astype(np.int16)
_X_OF_Z_WORD, _Z_OF_X_WORD = _decode_tables()  # built at import in about 0.1 ms


def _logical_flags(xs: np.ndarray, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Logical (X, Z) residuals of (n, 9) x/z flip arrays, by table lookup.

    The nine flags of a block are packed into one word; logical X comes from
    the z flags only and logical Z from the x flags only.
    """
    return _X_OF_Z_WORD[zs @ _FLAG_WEIGHTS], _Z_OF_X_WORD[xs @ _FLAG_WEIGHTS]


def transit_flags(
    params: DepolarizingParams, rng, n: int, protected: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Residual (x, z) Pauli flags on ``n`` qubits that crossed the channel.

    Protected qubits are Shor blocks: one draw of 9n physical flags, decoded
    symbolically to the logical residual.  Unprotected qubits take one
    physical draw each.
    """
    if not protected:
        return sample_pauli_flags(params, rng, n)
    x_flip, z_flip = sample_pauli_flags(params, rng, 9 * n)
    return _logical_flags(x_flip.reshape(n, 9), z_flip.reshape(n, 9))


def pauli_frame_batch(params: DepolarizingParams, rng, n_trials: int) -> int:
    """Count logical errors over ``n_trials`` sampled patterns (fast path)."""
    total = 0
    chunk = 1_000_000
    done = 0
    while done < n_trials:
        n = min(chunk, n_trials - done)
        lx, lz = transit_flags(params, rng, n)
        total += int(np.count_nonzero(lx | lz))
        done += n
    return total


@cache
def _failing_identity_counts() -> np.ndarray:
    """Identity count of each failing nine-position Pauli pattern, in index order.

    Pattern i puts Pauli (i >> 2k) & 3 (0=I 1=X 2=Z 3=Y) on position k, so
    the pattern of x/z flag words (x, z) has index s(x) + 2 s(z), with
    s(w) = sum_k w_k 4^k.  It fails when the decode tables give a logical X
    or Z.  Built on first use, from uint16 words, int8 counts and bool masks.
    """
    words = np.arange(512, dtype=np.uint16)
    flags = ((words[:, None] >> np.arange(9, dtype=np.uint16)) & 1).astype(np.int32)
    spread = flags @ (4 ** np.arange(9, dtype=np.int32))
    popcount = flags.sum(axis=1).astype(np.int8)
    index = spread[None, :] + 2 * spread[:, None]  # [z word, x word]
    failing = np.empty(4**9, dtype=bool)
    failing[index] = _X_OF_Z_WORD[:, None] | _Z_OF_X_WORD[None, :]
    identity = np.empty(4**9, dtype=np.int8)
    identity[index] = 9 - popcount[words[:, None] | words[None, :]]
    counts = identity[failing]
    counts.flags.writeable = False  # the cache hands this one array to every call
    return counts


def exact_logical_rate(params: DepolarizingParams) -> float:
    """Exact logical error probability over all 4^9 Pauli patterns.

    Each pattern is weighted by p_e per non-identity position and 1 - P_eq
    per identity.  The sum runs over the cached failing patterns in pattern
    order, so it is bit-identical to enumerating and classifying all 4^9
    patterns, which the tests keep as the oracle.
    """
    p_eq = params.p_eq
    n_identity = np.arange(10)
    prob = np.power(p_eq / 3.0, 9 - n_identity) * np.power(1.0 - p_eq, n_identity)
    return float(prob[_failing_identity_counts()].sum())


def axis_params(p_axis: float, convention: str = "total") -> DepolarizingParams:
    """Map a decoded-error-curve x-axis value onto channel parameters.

    'total' reads the axis as the per-qubit total error probability P_eq
    (the default interpretation); 'per_pauli' reads it as p_e.
    """
    if convention == "total":
        return DepolarizingParams.from_total(p_axis)
    if convention == "per_pauli":
        return DepolarizingParams.from_per_pauli(p_axis)
    raise ValueError(f"unknown axis convention {convention!r}")
