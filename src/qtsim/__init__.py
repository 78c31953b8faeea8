"""qtsim: Monte Carlo simulator for a protected quantum teleportation link.

Building blocks: a dense state-vector simulator (``qstate``), the
teleportation protocol (``teleport``), depolarizing/eavesdropper channel
models (``qchannel``), the nine-qubit Shor code with exact and Monte Carlo
error-rate oracles (``shor``), a QPSK/Rician classical link (``cchannel``)
with a rate-1/3 turbo codec (``turbo``), the secure session protocol
(``qsdc``), and sweep/CLI drivers (``sweeps``, ``cli``).
"""

__version__ = "0.1.0"

from .qstate import (
    BellKind,
    CapacityError,
    MeasureOutcome,
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    PauliError,
    StateVector,
    apply_gate,
    apply_pauli,
    basis_state,
    fidelity,
    make_bell,
    measure_qubit,
    random_state,
    tensor,
)
from .teleport import (
    DEFAULT_TEST_STATE,
    TeleportResult,
    receiver_correct,
    sender_measure,
    teleport_once,
)
from .qchannel import (
    DepolarizingParams,
    EveModel,
    NO_EVE,
    depolarize_qubit,
    effective_params,
    eve_entanglement_swap,
    sample_pauli,
)
from .cchannel import (
    ReceivedFrame,
    RicianParams,
    SymbolFrame,
    qpsk_demodulate_soft,
    qpsk_modulate,
    transmit,
)
from .turbo import (
    TurboConfig,
    interleave,
    turbo_decode,
    turbo_encode,
)
from .shor import (
    PauliPattern,
    ShorBlock,
    SyndromeResult,
    apply_pattern,
    classify_pattern,
    exact_logical_rate,
    shor_decode,
    shor_encode,
)
from .qsdc import (
    QsdcConfig,
    QsdcReport,
    SessionState,
    choose_threshold,
    distribute_pairs,
    run_session,
    teleport_payload,
    transmit_protected,
    verify_virtual,
)
from .metrics import MetricAccumulator, wilson_interval
from .sweeps import SweepSpec, run_sweep
