"""QPSK modulation, Rician fading statistics, and soft demodulation."""
import math

import numpy as np
import pytest

from qtsim.cchannel import (
    ReceivedFrame,
    RicianParams,
    fading_coefficients,
    llrs_to_bits,
    qpsk_demodulate_soft,
    qpsk_modulate,
    transmit,
)

SQRT2 = math.sqrt(2.0)


def _q(x):
    return 0.5 * math.erfc(x / SQRT2)


# ---------------------------------------------------------------------------
# modulation
# ---------------------------------------------------------------------------

def test_gray_mapping():
    frame = qpsk_modulate([0, 0])
    assert frame.symbols[0] == pytest.approx((1 + 1j) / SQRT2)
    frame = qpsk_modulate([1, 1])
    assert frame.symbols[0] == pytest.approx((-1 - 1j) / SQRT2)
    frame = qpsk_modulate([0, 0, 1, 0])
    assert np.allclose(frame.symbols, [(1 + 1j) / SQRT2, (-1 + 1j) / SQRT2])


def test_unit_average_energy():
    rng = np.random.default_rng(40)
    bits = rng.integers(0, 2, size=2000)
    frame = qpsk_modulate(bits)
    assert np.mean(np.abs(frame.symbols) ** 2) == pytest.approx(1.0, abs=1e-6)


def test_odd_bit_count_rejected():
    with pytest.raises(ValueError):
        qpsk_modulate([0, 1, 0])


def test_modulate_demodulate_roundtrip_all_pairs():
    for bits in ([0, 0], [0, 1], [1, 0], [1, 1]):
        frame = qpsk_modulate(bits, math.inf)
        llrs = qpsk_demodulate_soft(ReceivedFrame(frame.symbols, np.ones(1), 1e-12))
        assert np.array_equal(llrs_to_bits(llrs), bits)


# ---------------------------------------------------------------------------
# fading statistics
# ---------------------------------------------------------------------------

def test_strong_los_limit():
    params = RicianParams(p0=4.0, d=2.0, zeta=1e9)
    rng = np.random.default_rng(41)
    h = fading_coefficients(params, rng, 1000)
    assert np.all(np.abs(np.abs(h) - math.sqrt(4.0) / 2.0) < 1e-3)


def test_rayleigh_power():
    params = RicianParams(p0=2.0, d=2.0, zeta=0.0)
    rng = np.random.default_rng(42)
    n = 1_000_000
    h = fading_coefficients(params, rng, n)
    power = np.abs(h) ** 2
    mean = power.mean()
    target = params.mean_power
    sigma = power.std() / math.sqrt(n)
    assert abs(mean - target) < 4 * sigma


@pytest.mark.parametrize("zeta", [0.0, 1.0, 10.0, 100.0])
def test_unit_power_for_every_zeta(zeta):
    params = RicianParams(p0=1.0, d=1.0, zeta=zeta)
    rng = np.random.default_rng(43)
    n = 1_000_000
    power = np.abs(fading_coefficients(params, rng, n)) ** 2
    sigma = power.std() / math.sqrt(n)
    assert abs(power.mean() - 1.0) < 4 * sigma


def test_params_validation():
    with pytest.raises(ValueError):
        RicianParams(p0=0.0)
    with pytest.raises(ValueError):
        RicianParams(zeta=-1.0)
    for bad in (dict(p0=math.nan), dict(p0=math.inf), dict(d=math.nan), dict(d=math.inf),
                dict(zeta=math.nan), dict(zeta=math.inf)):
        with pytest.raises(ValueError):
            RicianParams(**bad)


@pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
def test_transmit_refuses_nan_and_minus_inf_snr(snr_db):
    # only +inf is a noiseless link
    frame = qpsk_modulate(np.zeros(8, dtype=np.int8), snr_db)
    with pytest.raises(ValueError, match="snr_db"):
        transmit(frame, RicianParams(), np.random.default_rng(44))


@pytest.mark.parametrize("params,snr_db", [
    (RicianParams(), 3000.5), (RicianParams(), -3000.5), (RicianParams(), 1e308),
    (RicianParams(d=1e200), 0.0), (RicianParams(d=1e200), math.inf),
    (RicianParams(p0=1e-200, d=1e100), 0.0),  # the gain underflows to 0
    (RicianParams(d=1e7), 3000.0), (RicianParams(p0=1e-100), 3000.0),
    (RicianParams(p0=1e100), -3000.0),
    (RicianParams(d=1e-200), 0.0),  # d**2 underflows to 0
])
def test_transmit_refuses_a_link_outside_the_float_range(params, snr_db):
    frame = qpsk_modulate(np.zeros(8, dtype=np.int8), snr_db)
    with pytest.raises(ValueError, match="snr_db|mean gain"):
        transmit(frame, params, np.random.default_rng(44))


# ---------------------------------------------------------------------------
# transmission
# ---------------------------------------------------------------------------

def test_clean_channel_is_identity():
    rng = np.random.default_rng(45)
    bits = rng.integers(0, 2, size=256)
    frame = qpsk_modulate(bits, math.inf)
    received = transmit(frame, RicianParams(p0=1.0, d=1.0, zeta=1e9), rng)
    assert np.allclose(received.symbols, frame.symbols, atol=1e-4)
    assert received.noise_var == 0.0


def test_per_frame_coherence_uses_one_coefficient():
    rng = np.random.default_rng(46)
    frame = qpsk_modulate(rng.integers(0, 2, size=64), 20.0)
    received = transmit(frame, RicianParams(zeta=1.0), rng, coherence="per_frame")
    assert np.all(received.csi == received.csi[0])
    # the held coefficient is the first draw after the bits, from the one sampler
    rng = np.random.default_rng(46)
    rng.integers(0, 2, size=64)
    assert received.csi[0] == fading_coefficients(RicianParams(zeta=1.0), rng, 1)[0]


def _rayleigh_qpsk_ber(gamma_bit: float) -> float:
    """Closed-form per-bit QPSK error over Rayleigh: 0.5*(1 - sqrt(g/(1+g)))."""
    return 0.5 * (1.0 - math.sqrt(gamma_bit / (1.0 + gamma_bit)))


def _measure_rayleigh_ber(es_n0_db: float, n_bits: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=n_bits, dtype=np.int8)
    received = transmit(qpsk_modulate(bits, es_n0_db), RicianParams(zeta=0.0), rng)
    out = llrs_to_bits(qpsk_demodulate_soft(received))
    return np.count_nonzero(out != bits) / n_bits


def test_uncoded_rayleigh_ber_matches_closed_form():
    # snr_db is Es/N0, so the per-bit SNR in the closed form is Es/(2 N0)
    es_n0_db = 20.0
    expected = _rayleigh_qpsk_ber(10.0 ** (es_n0_db / 10.0) / 2.0)
    ber = _measure_rayleigh_ber(es_n0_db, 1_000_000, seed=47)
    assert expected / 1.5 < ber < expected * 1.5


def test_uncoded_rayleigh_ber_at_20db_per_bit():
    # at Eb/N0 = 20 dB the closed form gives ~= 2.5e-3
    eb_n0_db = 20.0
    expected = _rayleigh_qpsk_ber(10.0 ** (eb_n0_db / 10.0))
    assert expected == pytest.approx(2.5e-3, rel=0.01)
    ber = _measure_rayleigh_ber(eb_n0_db + 10 * math.log10(2.0), 2_000_000, seed=53)
    assert expected / 1.5 < ber < expected * 1.5


def test_uncoded_awgn_ber_matches_q_function():
    # fading frozen to 1 (zeta -> inf): BER = Q(sqrt(2 Eb/N0)) at Eb/N0 = 9.6 dB
    ebn0_db = 9.6
    es_n0_db = ebn0_db + 10 * math.log10(2.0)  # 2 bits per symbol
    expected = _q(math.sqrt(2.0 * 10 ** (ebn0_db / 10.0)))
    rng = np.random.default_rng(48)
    n_bits = 4_000_000
    bits = rng.integers(0, 2, size=n_bits, dtype=np.int8)
    received = transmit(qpsk_modulate(bits, es_n0_db), RicianParams(zeta=1e12), rng)
    out = llrs_to_bits(qpsk_demodulate_soft(received))
    ber = np.count_nonzero(out != bits) / n_bits
    assert expected / 2 < ber < expected * 2


def test_ber_monotone_in_snr():
    rng = np.random.default_rng(49)
    n_bits = 100_000
    bers = []
    for snr_db in (0.0, 4.0, 8.0, 12.0, 16.0):
        bits = rng.integers(0, 2, size=n_bits, dtype=np.int8)
        received = transmit(qpsk_modulate(bits, snr_db), RicianParams(zeta=10.0), rng)
        out = llrs_to_bits(qpsk_demodulate_soft(received))
        bers.append(np.count_nonzero(out != bits) / n_bits)
    assert all(b >= a for a, b in zip(bers[1:], bers))


# ---------------------------------------------------------------------------
# soft demodulation
# ---------------------------------------------------------------------------

def test_llr_signs_on_clean_symbol():
    llrs = qpsk_demodulate_soft(ReceivedFrame(np.array([(1 + 1j) / SQRT2]), np.ones(1), 0.5))
    assert llrs[0] > 0 and llrs[1] > 0


def test_llr_scaling_with_noise_variance():
    rng = np.random.default_rng(50)
    symbols = qpsk_modulate(rng.integers(0, 2, size=200)).symbols
    csi = np.ones_like(symbols)
    base = qpsk_demodulate_soft(ReceivedFrame(symbols, csi, 0.5))
    doubled = qpsk_demodulate_soft(ReceivedFrame(symbols, csi, 1.0))
    assert np.allclose(doubled, base / 2.0)
    assert np.all(np.sign(doubled) == np.sign(base))


def test_hard_slicing_matches_min_distance_decisions():
    rng = np.random.default_rng(51)
    bits = rng.integers(0, 2, size=20_000, dtype=np.int8)
    received = transmit(qpsk_modulate(bits, 3.0), RicianParams(zeta=5.0), rng)
    sliced = llrs_to_bits(qpsk_demodulate_soft(received))
    # min-distance decision after coherent equalization
    eq = np.conj(received.csi) * received.symbols
    expected = np.empty_like(sliced)
    expected[0::2] = (eq.real < 0).astype(np.int8)
    expected[1::2] = (eq.imag < 0).astype(np.int8)
    assert np.array_equal(sliced, expected)


def test_csi_length_mismatch():
    with pytest.raises(ValueError):
        qpsk_demodulate_soft(ReceivedFrame(np.ones(4, dtype=complex), np.ones(3), 0.1))


def test_llr_frame_length():
    rng = np.random.default_rng(52)
    bits = rng.integers(0, 2, size=64)
    received = transmit(qpsk_modulate(bits, 10.0), RicianParams(), rng)
    llrs = qpsk_demodulate_soft(received)
    assert isinstance(llrs, np.ndarray)
    assert llrs.shape == (2 * received.symbols.size,)
