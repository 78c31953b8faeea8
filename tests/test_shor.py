"""Shor code: exhaustive correction, path equivalence, rate oracles."""
import itertools
import math

import numpy as np
import pytest

from qtsim.qchannel import DepolarizingParams
from qtsim.qstate import (
    CapacityError,
    PHI_PLUS,
    PauliError,
    apply_pauli,
    basis_state,
    fidelity,
    make_bell,
    random_state,
)
from qtsim.shor import (
    PauliPattern,
    _logical_flags,
    ShorBlock,
    apply_pattern,
    axis_params,
    classify_pattern,
    exact_logical_rate,
    pauli_frame_batch,
    pauli_frame_trial,
    sample_pattern,
    shor_decode,
    shor_encode,
)

PAULIS = (PauliError.I, PauliError.X, PauliError.Z, PauliError.Y)


def _single(pos, err):
    return PauliPattern(tuple(err if k == pos else PauliError.I for k in range(9)))


def _classify_by_fidelity(decoded, reference):
    """Which Pauli residual the decoded state carries, by exact fidelity."""
    for pauli in PAULIS:
        if fidelity(decoded, apply_pauli(reference, 0, pauli)) > 1 - 1e-9:
            return pauli
    raise AssertionError("decoded state is not a Pauli image of the reference")


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def test_encode_zero_and_one_codewords():
    plus = np.zeros(8, dtype=complex)
    plus[0] = plus[7] = 1 / math.sqrt(2)
    minus = plus.copy()
    minus[7] = -minus[7]
    enc0, _ = shor_encode(basis_state(1, 0), 0)
    enc1, _ = shor_encode(basis_state(1, 1), 0)
    assert np.allclose(enc0.amplitudes, np.kron(np.kron(plus, plus), plus), atol=1e-12)
    assert np.allclose(enc1.amplitudes, np.kron(np.kron(minus, minus), minus), atol=1e-12)


def test_encode_decode_identity_random_states():
    rng = np.random.default_rng(30)
    for _ in range(300):
        psi = random_state(1, rng)
        encoded, block = shor_encode(psi, 0)
        decoded, syndrome = shor_decode(encoded, block, rng)
        assert fidelity(decoded, psi) > 1 - 1e-9
        assert not syndrome.corrected


def test_encode_decode_identity_entangled_host():
    rng = np.random.default_rng(31)
    pair = make_bell(PHI_PLUS)
    encoded, block = shor_encode(pair, 1)
    assert encoded.n_qubits == 10
    decoded, _ = shor_decode(encoded, block, rng)
    assert fidelity(decoded, pair) > 1 - 1e-9


def test_encode_capacity():
    with pytest.raises(CapacityError):
        shor_encode(basis_state(9, 0), 0)


def test_block_validation():
    with pytest.raises(ValueError):
        ShorBlock((0,) * 9)
    with pytest.raises(ValueError):
        PauliPattern((PauliError.I,) * 8)


# ---------------------------------------------------------------------------
# exhaustive correction (the defining property of the code)
# ---------------------------------------------------------------------------

def test_all_weight_one_errors_decode_exactly():
    rng = np.random.default_rng(32)
    psi = random_state(1, rng)
    for pos in range(9):
        for err in (PauliError.X, PauliError.Y, PauliError.Z):
            encoded, block = shor_encode(psi, 0)
            damaged = apply_pattern(encoded, block, _single(pos, err))
            decoded, syndrome = shor_decode(damaged, block, rng)
            assert fidelity(decoded, psi) > 1 - 1e-9, (pos, err)
            assert syndrome.corrected


def test_weight_one_symbolic_classification():
    assert classify_pattern(PauliPattern((PauliError.I,) * 9)).logical_error is PauliError.I
    for pos in range(9):
        for err in (PauliError.X, PauliError.Y, PauliError.Z):
            result = classify_pattern(_single(pos, err))
            assert result.logical_error is PauliError.I
            assert result.corrected


def test_independent_bit_and_phase_sectors():
    rng = np.random.default_rng(33)
    psi = random_state(1, rng)
    pattern = list(PauliError.I for _ in range(9))
    pattern[0] = PauliError.X
    pattern[8] = PauliError.Z
    encoded, block = shor_encode(psi, 0)
    damaged = apply_pattern(encoded, block, PauliPattern(tuple(pattern)))
    decoded, _ = shor_decode(damaged, block, rng)
    assert fidelity(decoded, psi) > 1 - 1e-9


def test_two_bit_flips_in_one_triple_is_logical():
    # two X errors inside a triple defeat the majority vote
    pattern = list(PauliError.I for _ in range(9))
    pattern[0] = pattern[1] = PauliError.X
    result = classify_pattern(PauliPattern(tuple(pattern)))
    assert result.logical_error is PauliError.Z  # bit majority feeds the phase


def test_entanglement_preserved_through_any_single_error():
    rng = np.random.default_rng(34)
    pair = make_bell(PHI_PLUS)
    for pos in range(9):
        for err in (PauliError.X, PauliError.Y, PauliError.Z):
            encoded, block = shor_encode(pair, 1)
            damaged = apply_pattern(encoded, block, _single(pos, err))
            decoded, _ = shor_decode(damaged, block, rng)
            assert fidelity(decoded, pair) > 1 - 1e-9


# ---------------------------------------------------------------------------
# path equivalence: symbolic decoder == state-vector decoder
# ---------------------------------------------------------------------------

def test_paths_classify_identically_on_random_patterns():
    rng = np.random.default_rng(35)
    psi = random_state(1, rng)
    for _ in range(400):
        pattern = PauliPattern(tuple(PAULIS[i] for i in rng.integers(0, 4, size=9)))
        symbolic = classify_pattern(pattern).logical_error
        encoded, block = shor_encode(psi, 0)
        decoded, _ = shor_decode(apply_pattern(encoded, block, pattern), block, rng)
        assert _classify_by_fidelity(decoded, psi) is symbolic


def test_paths_classify_identically_weight_two_exhaustive():
    rng = np.random.default_rng(36)
    psi = random_state(1, rng)
    errs = (PauliError.X, PauliError.Y, PauliError.Z)
    for p1, p2 in itertools.combinations(range(9), 2):
        for e1, e2 in itertools.product(errs, errs):
            pattern = list(PauliError.I for _ in range(9))
            pattern[p1], pattern[p2] = e1, e2
            pattern = PauliPattern(tuple(pattern))
            symbolic = classify_pattern(pattern).logical_error
            encoded, block = shor_encode(psi, 0)
            decoded, _ = shor_decode(apply_pattern(encoded, block, pattern), block, rng)
            assert _classify_by_fidelity(decoded, psi) is symbolic, (p1, p2, e1, e2)


# ---------------------------------------------------------------------------
# rate oracles
# ---------------------------------------------------------------------------

def test_exact_rate_zero_channel():
    assert exact_logical_rate(DepolarizingParams.from_total(0.0)) == 0.0


def test_exact_rate_monotone_in_channel_probability():
    grid = np.linspace(0.0, 0.3, 50)
    rates = [exact_logical_rate(DepolarizingParams.from_total(p)) for p in grid]
    assert all(b >= a for a, b in zip(rates, rates[1:]))


def test_exact_rate_matches_independent_binomial_oracle():
    # with Z-only noise the code is a 3-block phase repetition code:
    # logical error iff >= 2 triples carry odd Z parity
    p_eq = 0.12
    p = p_eq / 3.0
    idx = np.arange(4**9)
    digits = ((idx[:, None] >> (2 * np.arange(9))) & 3).astype(np.int8)
    prob = np.power(p, (digits != 0).sum(axis=1)) * np.power(
        1 - p_eq, (digits == 0).sum(axis=1)
    )
    zs = (digits == 2) | (digits == 3)
    xs = (digits == 1) | (digits == 3)
    phase_parity = np.stack([zs[:, 3*b:3*b+3].sum(axis=1) % 2 for b in range(3)], axis=1)
    lx = phase_parity.sum(axis=1) >= 2
    majority = np.stack([xs[:, 3*b:3*b+3].sum(axis=1) >= 2 for b in range(3)], axis=1)
    lz = majority.sum(axis=1) % 2 == 1
    oracle = float(prob[lx | lz].sum())
    assert exact_logical_rate(DepolarizingParams.from_total(p_eq)) == pytest.approx(
        oracle, rel=1e-12
    )


def test_monte_carlo_agrees_with_exact_rate():
    params = DepolarizingParams.from_total(0.105)
    exact = exact_logical_rate(params)
    n = 1_000_000
    hits = pauli_frame_batch(params, np.random.default_rng(37), n)
    sigma = math.sqrt(exact * (1 - exact) / n)
    assert abs(hits / n - exact) < 4 * sigma


def test_pauli_frame_trial_zero_channel():
    rng = np.random.default_rng(38)
    params = DepolarizingParams.from_total(0.0)
    for _ in range(100):
        result = pauli_frame_trial(params, rng)
        assert result.logical_error is PauliError.I
        assert not result.corrected


def test_sampled_patterns_use_channel_statistics():
    rng = np.random.default_rng(39)
    params = DepolarizingParams.from_total(0.3)
    n = 2000
    counts = {p: 0 for p in PAULIS}
    for _ in range(n):
        for err in sample_pattern(params, rng).errors:
            counts[err] += 1
    total = 9 * n
    sigma = math.sqrt(total * 0.1 * 0.9)
    for err in (PauliError.X, PauliError.Y, PauliError.Z):
        assert abs(counts[err] - total * 0.1) < 4 * sigma


def test_axis_conventions():
    assert axis_params(0.03, "total").p_eq == pytest.approx(0.03)
    assert axis_params(0.03, "per_pauli").p_eq == pytest.approx(0.09)
    with pytest.raises(ValueError):
        axis_params(0.03, "thirds")


# ---------------------------------------------------------------------------
# decode table == symbolic oracle
# ---------------------------------------------------------------------------

_RESIDUAL_FLAGS = {
    PauliError.I: (False, False), PauliError.X: (True, False),
    PauliError.Z: (False, True), PauliError.Y: (True, True),
}


def _assert_table_matches_oracle(codes):
    """``codes`` is (n, 9), each entry an index into PAULIS."""
    xs = (codes == 1) | (codes == 3)
    zs = (codes == 2) | (codes == 3)
    logical_x, logical_z = _logical_flags(xs, zs)
    for row, lx, lz in zip(codes, logical_x.tolist(), logical_z.tolist()):
        pattern = PauliPattern(tuple(PAULIS[c] for c in row))
        assert (lx, lz) == _RESIDUAL_FLAGS[classify_pattern(pattern).logical_error], row


@pytest.mark.parametrize("code", [1, 2], ids=["x_only", "z_only"])
def test_decode_table_matches_oracle_on_single_type_patterns(code):
    words = (np.arange(512)[:, None] >> np.arange(9)) & 1
    _assert_table_matches_oracle(words * code)


def test_decode_table_matches_oracle_on_random_mixed_patterns():
    _assert_table_matches_oracle(np.random.default_rng(40).integers(0, 4, size=(2000, 9)))


@pytest.mark.parametrize("p_eq, rate", [
    (0.005, 0.0003928435015514469),
    (0.105, 0.12091034074445692),
    (0.3, 0.49651276799999977),
])
def test_exact_logical_rate_is_pinned(p_eq, rate):
    # the rates of the per-triple decoder logic: the table must select the same patterns
    assert exact_logical_rate(DepolarizingParams.from_total(p_eq)) == rate


def _enumerated_rate(p_eq: float) -> float:
    p = p_eq / 3.0
    idx = np.arange(4**9)
    digits = ((idx[:, None] >> (2 * np.arange(9))) & 3).astype(np.int8)  # 0=I 1=X 2=Z 3=Y
    xs = (digits == 1) | (digits == 3)
    zs = (digits == 2) | (digits == 3)
    n_identity = np.count_nonzero(digits == 0, axis=1)
    prob = np.power(p, 9 - n_identity) * np.power(1.0 - p_eq, n_identity)
    lx, lz = _logical_flags(xs, zs)
    return float(prob[lx | lz].sum())


_ORACLE_GRID = [
    DepolarizingParams.from_total(p)
    for p in (0.0, 1.0, 1e-12, 0.005, 0.105, 0.3, *np.linspace(0.0, 0.3, 50).tolist())
] + [
    DepolarizingParams.from_per_pauli(p)  # P_eq = 3x the shor-curve axis defaults
    for p in (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.105, 0.15, 0.2)
] + [
    DepolarizingParams.from_total(p) for p in np.random.default_rng(41).uniform(0, 1, 200)
]


def test_exact_logical_rate_equals_the_enumeration_bit_for_bit():
    # the failing-pattern table must gather the enumeration's failing
    # probabilities in the same order, so that the pairwise sum is the same
    for params in _ORACLE_GRID:
        assert exact_logical_rate(params) == _enumerated_rate(params.p_eq), params.p_eq
