"""Quantum channel impairments: depolarizing noise and eavesdropper models.

The depolarizing channel follows the four-rule sampler exactly: draw one
uniform n in [0, 1) per qubit and apply

    X  if          n < P_eq/3
    Z  if P_eq/3  <= n < 2*P_eq/3
    Y  if 2*P_eq/3 <= n < P_eq
    I  otherwise

so X, Y and Z each occur with probability p_e = P_eq/3.

Two eavesdropper models are available: ``swap`` performs the
intercept/entanglement-swap attack (Eve Bell-measures the transiting qubit
against half of her own fresh pair and forwards her remaining half), and
``depolarize_boost`` raises the channel error probability additively by at
least 0.10.
"""
from __future__ import annotations

from dataclasses import MISSING, dataclass, fields

from .qstate import (
    PHI_PLUS,
    BellKind,
    PauliError,
    StateVector,
    apply_gate,
    apply_pauli,
    discard_qubit,
    make_bell,
    measure_qubit,
    tensor,
)

__all__ = [
    "PauliError",
    "DepolarizingParams",
    "EveModel",
    "sample_pauli",
    "sample_pauli_flags",
    "depolarize_qubit",
    "eve_entanglement_swap",
    "effective_params",
]

# Minimum additive boost an eavesdropper is assumed to cause.
MIN_EVE_BOOST = 0.10

# The EveModel fields that each mode reads; the others must keep their defaults.
EVE_MODE_READS = {
    "none": (),
    "swap": ("intercept_fraction",),
    "depolarize_boost": ("delta_pe",),
}


def unread_fields(config, reads) -> list[str]:
    """The fields of the dataclass ``config`` outside ``reads`` that are off their defaults.

    A config refuses these: a value that its mode never reads would be
    silently ignored.  ``EveModel``, ``qsdc.QsdcConfig`` and
    ``sweeps.SweepSpec`` share this rule.
    """
    return [
        f.name for f in fields(config) if f.name not in reads and getattr(config, f.name) != (
            f.default_factory() if f.default is MISSING else f.default)
    ]


@dataclass(frozen=True)
class DepolarizingParams:
    """Total error probability P_eq; X, Z and Y each occur with P_eq/3.

    ``from_per_pauli`` reads a per-Pauli probability p_e as P_eq = 3 p_e.
    """

    p_eq: float

    def __post_init__(self):
        if not 0.0 <= self.p_eq <= 1.0:
            raise ValueError(f"p_eq must be in [0, 1], got {self.p_eq}")

    @classmethod
    def from_total(cls, p_eq: float) -> "DepolarizingParams":
        return cls(p_eq)

    @classmethod
    def from_per_pauli(cls, p_e: float) -> "DepolarizingParams":
        return cls(3.0 * p_e)


@dataclass(frozen=True)
class EveModel:
    """Eavesdropper configuration.

    mode 'none': no attack; 'swap': intercept/entanglement-swap a fraction of
    pairs; 'depolarize_boost': raise channel P_eq by delta_pe (>= 0.10).
    A field that the mode does not read is refused unless it is at its default.
    """

    mode: str = "none"
    intercept_fraction: float = 0.0
    delta_pe: float = MIN_EVE_BOOST

    def __post_init__(self):
        if self.mode not in EVE_MODE_READS:
            raise ValueError(f"unknown eve mode {self.mode!r}")
        if not 0.0 <= self.intercept_fraction <= 1.0:
            raise ValueError("intercept_fraction must be in [0, 1]")
        if not 0.0 <= self.delta_pe <= 1.0:
            raise ValueError("delta_pe must be in [0, 1]")
        unread = unread_fields(self, ("mode", *EVE_MODE_READS[self.mode]))
        if unread:
            raise ValueError(f"eve mode {self.mode} does not read {', '.join(unread)}")
        if self.mode == "depolarize_boost" and self.delta_pe < MIN_EVE_BOOST:
            raise ValueError(
                f"boost mode assumes the eavesdropper adds at least "
                f"{MIN_EVE_BOOST} to P_eq, got delta_pe = {self.delta_pe}"
            )


NO_EVE = EveModel()


def sample_pauli(params: DepolarizingParams, rng) -> PauliError:
    """Draw one channel error with the four-rule sampler (X, Z, Y, I order)."""
    n = rng.random()
    if n < params.p_eq / 3.0:
        return PauliError.X
    if n < 2.0 * params.p_eq / 3.0:
        return PauliError.Z
    if n < params.p_eq:
        return PauliError.Y
    return PauliError.I


def sample_pauli_flags(params: DepolarizingParams, rng, n: int):
    """Vectorized sampler: (x_flip, z_flip) boolean arrays of length n.

    Same thresholds as ``sample_pauli``: X sets x only, Z sets z only,
    Y sets both.
    """
    u = rng.random(n)
    q1 = params.p_eq / 3.0
    q2 = 2.0 * params.p_eq / 3.0
    q3 = params.p_eq
    flipped = u < q3  # X, Z or Y
    z_flip = (u >= q1) & flipped  # Z or Y
    x_flip = flipped ^ (z_flip & (u < q2))  # X or Y: the flipped ones but Z
    return x_flip, z_flip


def depolarize_qubit(
    state: StateVector, qubit: int, params: DepolarizingParams, rng
) -> tuple[StateVector, PauliError]:
    """Pass one qubit through the depolarizing channel.

    Returns the (possibly corrupted) state and which error was applied.  The
    returned error is diagnostic only; protocol code must not act on it.
    """
    err = sample_pauli(params, rng)
    return apply_pauli(state, qubit, err), err


def eve_entanglement_swap(pair: StateVector, rng) -> tuple[StateVector, BellKind]:
    """Intercept/entanglement-swap attack on a transiting pair half.

    Eve holds a fresh pair (C, D), captures the transiting qubit B, performs
    a Bell-basis measurement on (B, D) and forwards C to the receiver.  The
    returned 2-qubit state is the surviving (sender-half, C) pair; the
    BellKind is Eve's measurement record (phase bit, parity bit).
    """
    if pair.n_qubits != 2:
        raise ValueError("eve_entanglement_swap expects a 2-qubit pair")
    four = tensor(pair, make_bell(PHI_PLUS))  # qubits: A=0, B=1, C=2, D=3
    s = apply_gate(four, "CNOT", (1, 3))
    s = apply_gate(s, "H", 1)
    ob = measure_qubit(s, 1, rng)
    od = measure_qubit(ob.post_state, 3, rng)
    s = discard_qubit(od.post_state, 3, od.bit)
    s = discard_qubit(s, 1, ob.bit)
    return s, BellKind(ob.bit, od.bit)


def effective_params(base: DepolarizingParams, eve: EveModel) -> DepolarizingParams:
    """Channel parameters as seen with a boost-mode eavesdropper present."""
    if eve.mode != "depolarize_boost":
        raise ValueError("effective_params applies to depolarize_boost mode only")
    return DepolarizingParams.from_total(min(1.0, base.p_eq + eve.delta_pe))
