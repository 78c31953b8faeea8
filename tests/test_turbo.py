"""Turbo codec: encoder structure, golden vectors, decoder performance."""
import json
import math
import pathlib
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtsim.turbo as turbo_mod
from qtsim.cchannel import RicianParams, qpsk_demodulate_soft, qpsk_modulate, transmit
from qtsim.link import send_bits
from qtsim.turbo import (
    LOG_MAP_CLIP,
    CodedFrame,
    RscTrellis,
    TurboConfig,
    _bcjr,
    _iterate,
    _log_map,
    _LogMapBuffers,
    _window_count,
    coded_block_bits,
    deinterleave,
    interleave,
    split_llrs,
    turbo_decode,
    turbo_decode_batch,
    turbo_encode,
    turbo_encode_batch,
)

DATA = pathlib.Path(__file__).parent / "data"


def reference_rsc_encode(bits, feedback=0o13, feedforward=0o15):
    """Independent bit-by-bit shift-register encoder (oracle for the tables).

    Registers hold the last three feedback bits, newest first.  The parity
    taps read the feedforward polynomial MSB-first over (new bit, registers).
    """
    regs = [0, 0, 0]
    parity = []
    for x in bits:
        a = x ^ regs[1] ^ regs[2]          # feedback taps of 1011
        parity.append(a ^ regs[0] ^ regs[2])  # feedforward taps of 1101
        regs = [a, regs[0], regs[1]]
    tail_in, tail_par = [], []
    for _ in range(3):
        x = regs[1] ^ regs[2]              # cancels the feedback
        tail_in.append(x)
        tail_par.append(0 ^ regs[0] ^ regs[2])
        regs = [0, regs[0], regs[1]]
    assert regs == [0, 0, 0]
    return np.array(parity, dtype=np.int8), np.array(tail_in, dtype=np.int8), np.array(
        tail_par, dtype=np.int8
    )


def awgn_llrs(coded_bits, ebn0_db, rng, rate):
    n0 = 1.0 / (rate * 10 ** (ebn0_db / 10.0))
    sigma = math.sqrt(n0 / 2.0)
    y = (1.0 - 2.0 * coded_bits) + sigma * rng.normal(size=coded_bits.shape)
    return 2.0 * y / (n0 / 2.0)


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------

def test_zero_word_encodes_to_zero():
    cfg = TurboConfig(block_length=64)
    frame = turbo_encode(np.zeros(64, dtype=np.int8), cfg)
    assert not frame.to_bits().any()


def test_trellis_matches_reference_encoder():
    rng = np.random.default_rng(60)
    trellis = RscTrellis()
    for _ in range(20):
        bits = rng.integers(0, 2, size=100, dtype=np.int8)
        parity, tail_in, tail_par = trellis.encode(bits, terminate=True)
        ref_parity, ref_tail_in, ref_tail_par = reference_rsc_encode(bits)
        assert np.array_equal(parity, ref_parity)
        assert np.array_equal(tail_in, ref_tail_in)
        assert np.array_equal(tail_par, ref_tail_par)


def test_batched_encoder_matches_reference_rows():
    rng = np.random.default_rng(68)
    trellis = RscTrellis()
    for batch, k in ((1, 40), (7, 100), (64, 333)):
        bits = rng.integers(0, 2, size=(batch, k), dtype=np.int8)
        for terminate in (True, False):
            parity, tail_in, tail_par = trellis.encode(bits, terminate=terminate)
            assert parity.shape == (batch, k)
            assert tail_in.shape == tail_par.shape == (batch, 3 if terminate else 0)
            for row, p, ti, tp in zip(bits, parity, tail_in, tail_par):
                ref_parity, ref_tail_in, ref_tail_par = reference_rsc_encode(row)
                assert np.array_equal(p, ref_parity)
                if terminate:
                    assert np.array_equal(ti, ref_tail_in)
                    assert np.array_equal(tp, ref_tail_par)


def test_batched_turbo_encode_matches_single_blocks():
    cfg = TurboConfig(block_length=128)
    infos = np.random.default_rng(69).integers(0, 2, size=(9, 128), dtype=np.int8)
    coded = turbo_encode_batch(infos, cfg)
    assert coded.shape == (9, coded_block_bits(cfg)) and coded.dtype == np.int8
    for info, row in zip(infos, coded):
        assert np.array_equal(row, turbo_encode(info, cfg).to_bits())
    with pytest.raises(ValueError):
        turbo_encode_batch(infos[:, :100], cfg)


def test_golden_vectors():
    for vec in json.loads((DATA / "turbo_golden.json").read_text()):
        cfg = TurboConfig(
            block_length=vec["block_length"],
            generators=tuple(vec["generators"]),
            interleaver_seed=vec["interleaver_seed"],
        )
        frame = turbo_encode(np.array(vec["info"], dtype=np.int8), cfg)
        assert frame.to_bits().tolist() == vec["coded"]


def test_rate_accounting_exact():
    cfg = TurboConfig(block_length=1024)
    frame = turbo_encode(np.zeros(1024, dtype=np.int8), cfg)
    assert frame.to_bits().size == 3 * 1024 + 6
    assert coded_block_bits(cfg) == 3078
    assert frame.length == 1024


def test_single_bit_has_long_impulse_response():
    # recursive encoder: one flipped info bit disturbs parity1 to the end
    cfg = TurboConfig(block_length=256)
    for pos in (0, 100, 250):
        info = np.zeros(256, dtype=np.int8)
        info[pos] = 1
        frame = turbo_encode(info, cfg)
        nz = np.nonzero(frame.parity1)[0]
        assert nz.size > 0 and nz[0] >= pos
        # feedback 13 (octal) has period 7: parity keeps toggling until the tail
        assert nz[-1] > 256 - 8


def test_encode_is_deterministic():
    cfg = TurboConfig(block_length=128)
    info = np.random.default_rng(61).integers(0, 2, size=128, dtype=np.int8)
    a = turbo_encode(info, cfg).to_bits()
    b = turbo_encode(info, cfg).to_bits()
    assert np.array_equal(a, b)


def test_encode_rejects_wrong_length():
    with pytest.raises(ValueError):
        turbo_encode(np.zeros(100, dtype=np.int8), TurboConfig(block_length=128))


def test_config_validation():
    with pytest.raises(ValueError):
        TurboConfig(block_length=8)
    with pytest.raises(ValueError):
        TurboConfig(iterations=0)
    with pytest.raises(ValueError):
        TurboConfig(decoder="viterbi")


# ---------------------------------------------------------------------------
# interleaver
# ---------------------------------------------------------------------------

def test_interleave_roundtrip_and_multiset():
    rng = np.random.default_rng(62)
    values = rng.normal(size=257)
    shuffled = interleave(values, seed=5)
    assert sorted(shuffled) == sorted(values)
    assert not np.array_equal(shuffled, values)
    assert np.array_equal(deinterleave(shuffled, seed=5), values)


def test_interleave_same_seed_same_permutation():
    values = np.arange(100)
    assert np.array_equal(interleave(values, seed=9), interleave(values, seed=9))
    assert not np.array_equal(interleave(values, seed=9), interleave(values, seed=10))


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------

def test_noiseless_decode_recovers_info():
    cfg = TurboConfig(block_length=256, iterations=4)
    rng = np.random.default_rng(63)
    info = rng.integers(0, 2, size=256, dtype=np.int8)
    bits = turbo_encode(info, cfg).to_bits()
    llrs = 30.0 * (1.0 - 2.0 * bits.astype(float))
    assert np.array_equal(turbo_decode(llrs, cfg), info)


def test_max_log_map_decoder_also_recovers():
    cfg = TurboConfig(block_length=256, iterations=4, decoder="max_log_map")
    rng = np.random.default_rng(64)
    info = rng.integers(0, 2, size=256, dtype=np.int8)
    bits = turbo_encode(info, cfg).to_bits()
    llrs = 30.0 * (1.0 - 2.0 * bits.astype(float))
    assert np.array_equal(turbo_decode(llrs, cfg), info)


def test_split_llrs_layout():
    cfg = TurboConfig(block_length=64)
    llrs = np.arange(3 * 64 + 6, dtype=float)
    sys, p1, p2, tail_sys, tail_p1 = split_llrs(llrs, cfg)
    assert np.array_equal(sys[0], np.arange(64))
    assert np.array_equal(p1[0], np.arange(64, 128))
    assert np.array_equal(p2[0], np.arange(128, 192))
    assert np.array_equal(tail_sys[0], [192, 193, 194])
    assert np.array_equal(tail_p1[0], [195, 196, 197])
    with pytest.raises(ValueError):
        split_llrs(np.zeros(100), cfg)


def _run_awgn(cfg, ebn0_db, n_blocks, seed):
    rng = np.random.default_rng(seed)
    rate = cfg.block_length / coded_block_bits(cfg)
    infos = rng.integers(0, 2, size=(n_blocks, cfg.block_length), dtype=np.int8)
    coded = np.stack([turbo_encode(infos[i], cfg).to_bits() for i in range(n_blocks)])
    llrs = awgn_llrs(coded.astype(float), ebn0_db, rng, rate)
    decoded = turbo_decode_batch(llrs, cfg)
    return int(np.count_nonzero(decoded != infos)), infos.size


def test_waterfall_ber_at_2db():
    # regression: measured 9.8e-6 at first build; the contract is < 1e-4
    cfg = TurboConfig()
    errors, total = _run_awgn(cfg, 2.0, 1000, seed=65)
    assert total >= 1_000_000
    assert errors / total < 1e-4


def test_no_error_floor_at_4db():
    cfg = TurboConfig()
    errors, total = _run_awgn(cfg, 4.0, 2000, seed=66)
    assert errors / total < 5e-6


def test_iteration_trace_ber_non_increasing():
    cfg = TurboConfig(block_length=1024, iterations=8)
    rng = np.random.default_rng(67)
    rate = cfg.block_length / coded_block_bits(cfg)
    n_blocks = 100
    infos = rng.integers(0, 2, size=(n_blocks, cfg.block_length), dtype=np.int8)
    coded = np.stack([turbo_encode(infos[i], cfg).to_bits() for i in range(n_blocks)])
    llrs = awgn_llrs(coded.astype(float), 0.5, rng, rate)
    trace = turbo_decode_batch(llrs, cfg, iteration_trace=True)
    bers = [np.count_nonzero(step != infos) / infos.size for step in trace]
    n = infos.size
    for earlier, later in zip(bers, bers[1:]):
        sigma = math.sqrt(max(earlier, 1e-9) * (1 - earlier) / n)
        assert later <= earlier + 4 * sigma
    assert bers[-1] < bers[0]


# ---------------------------------------------------------------------------
# probability-domain log-MAP against the log-domain oracle
# ---------------------------------------------------------------------------

_ORACLE = partial(_bcjr, max_log=False)


@lru_cache(maxsize=None)
def _rician_corpus(snr_db, n_blocks=128, seed=70):
    """(info, channel LLRs) of turbo blocks sent through the QPSK fading link."""
    cfg = TurboConfig()
    rng = np.random.default_rng((seed, round(10 * snr_db) + 100))
    infos = rng.integers(0, 2, size=(n_blocks, cfg.block_length), dtype=np.int8)
    coded = turbo_encode_batch(infos, cfg).reshape(-1)
    received = transmit(qpsk_modulate(coded, snr_db), RicianParams(), rng)
    return infos, qpsk_demodulate_soft(received).llrs.reshape(n_blocks, -1)


@pytest.mark.parametrize("snr_db", [-1.5, -1.0, 0.0, 2.0, 4.0])
def test_log_map_matches_log_domain_oracle(snr_db):
    """Same decisions as the log-domain oracle, same LLRs below the clip.

    The oracle runs in the same iteration loop; each of its constituent
    passes is repeated by the probability-domain decoder on the same inputs.
    """
    cfg = TurboConfig()
    _, llrs = _rician_corpus(snr_db)
    compared = []

    def checked_oracle(l_sys, l_par, l_apriori, trellis, terminated):
        ref = _ORACLE(l_sys, l_par, l_apriori, trellis, terminated)
        new = _log_map(l_sys, l_par, l_apriori, trellis, terminated)
        below = np.abs(ref) < LOG_MAP_CLIP
        np.testing.assert_allclose(new[below], ref[below], rtol=1e-6, atol=1e-12)
        compared.append(int(below.sum()))
        return ref

    reference = _iterate(llrs, cfg, checked_oracle)
    assert len(compared) == 2 * cfg.iterations and compared[0] > 0
    assert np.array_equal(turbo_decode_batch(llrs, cfg), reference)


@pytest.mark.parametrize("generators", [(0o13, 0o15), (0o13, 0o16), (0o7, 0o5), (0o23, 0o35)])
@pytest.mark.parametrize("terminated", [True, False])
def test_log_map_matches_oracle_across_trellis_lengths(generators, terminated):
    # odd and even lengths around the slab size (the kept half of the rows,
    # the middle steps, the partial last slab), and codes of memory 2 to 4
    # whose butterflies are not symmetric in input and output
    rng = np.random.default_rng(74)
    trellis = RscTrellis(*generators)
    for steps in (40, 43, 63, 64, 65, 128, 129, 130, 131, 259):
        l_sys, l_par, l_apriori = rng.normal(0.0, 3.0, size=(3, 4, steps))
        np.testing.assert_allclose(
            _log_map(l_sys, l_par, l_apriori, trellis, terminated),
            _ORACLE(l_sys, l_par, l_apriori, trellis, terminated),
            rtol=1e-9, atol=1e-9,
        )


def test_log_map_buffers_reused_across_passes():
    # a batch decode runs passes of two lengths in one set of work arrays
    rng = np.random.default_rng(75)
    trellis = RscTrellis()
    work = _LogMapBuffers(4, 259, trellis.n_states)
    for steps, terminated in ((259, True), (130, False), (259, False), (43, True)):
        l_sys, l_par, l_apriori = rng.normal(0.0, 3.0, size=(3, 4, steps))
        np.testing.assert_array_equal(
            _log_map(l_sys, l_par, l_apriori, trellis, terminated, work=work),
            _log_map(l_sys, l_par, l_apriori, trellis, terminated),
        )


def test_single_block_decode_matches_batch():
    cfg = TurboConfig()
    infos, llrs = _rician_corpus(-1.0)
    batch = turbo_decode_batch(llrs[:32], cfg)
    assert np.count_nonzero(batch != infos[:32]) > 0  # waterfall: real decisions
    for row, expected in zip(llrs[:32], batch):
        assert np.array_equal(turbo_decode(row, cfg), expected)


# ---------------------------------------------------------------------------
# saturated inputs: no floating-point exception anywhere in the decoder
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("magnitude", [30.0, 1e3, 1e12])
def test_saturated_frames_decode_without_fp_exceptions(magnitude):
    cfg = TurboConfig(block_length=256, iterations=4)
    info = np.random.default_rng(71).integers(0, 2, size=256, dtype=np.int8)
    llrs = magnitude * (1.0 - 2.0 * turbo_encode(info, cfg).to_bits())
    with np.errstate(all="raise"):
        assert np.array_equal(turbo_decode(llrs, cfg), info)


def test_erased_frame_decodes_without_fp_exceptions():
    # all-zero LLRs: every branch factor is 1, so an unscaled recursion
    # would double its metrics at each of the 2051 steps
    cfg = TurboConfig(block_length=2048, iterations=2)
    with np.errstate(all="raise"):
        decoded = turbo_decode(np.zeros(coded_block_bits(cfg)), cfg)
    assert decoded.shape == (cfg.block_length,)


def test_noiseless_link_returns_input_exactly():
    # qpsk_demodulate_soft floors the noise variance, so LLRs reach ~3e12
    bits = np.random.default_rng(72).integers(0, 2, size=3000, dtype=np.int8)
    with np.errstate(all="raise"):
        out = send_bits(
            bits, np.random.default_rng(73), snr_db=math.inf,
            rician=RicianParams(), turbo_cfg=TurboConfig(),
        )
    assert out.dtype == np.int8 and np.array_equal(out, bits)


# ---------------------------------------------------------------------------
# window-parallel recursion against the one-window recursion
# ---------------------------------------------------------------------------

_GENERATORS = [(0o13, 0o15), (0o13, 0o16), (0o7, 0o5), (0o23, 0o35)]


@settings(max_examples=40, deadline=None)
@given(
    steps=st.integers(40, 1100),
    batch=st.integers(1, 4),
    terminated=st.booleans(),
    generators=st.sampled_from(_GENERATORS),
    windows=st.integers(2, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_windowed_log_map_matches_one_window(steps, batch, terminated, generators, windows,
                                              seed):
    trellis = RscTrellis(*generators)
    l_sys, l_par, l_apriori = np.random.default_rng(seed).normal(0.0, 3.0, size=(3, batch, steps))
    one = _log_map(l_sys, l_par, l_apriori, trellis, terminated, windows=1)
    with np.errstate(all="raise"):
        windowed = _log_map(l_sys, l_par, l_apriori, trellis, terminated, windows=windows)
    # 1e-13 absolute for LLRs near 0, whose relative error is not bounded
    np.testing.assert_allclose(windowed, one, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(one, _ORACLE(l_sys, l_par, l_apriori, trellis, terminated),
                               rtol=1e-9, atol=1e-9)


def test_one_window_is_the_default_for_large_batches():
    # the bulk decoders (B = 128) run the sequential recursion untouched
    rng = np.random.default_rng(76)
    trellis = RscTrellis()
    assert _window_count(128, 1027, trellis.n_states) == 1
    assert _window_count(1, 1027, trellis.n_states) == 32
    l_sys, l_par, l_apriori = rng.normal(0.0, 3.0, size=(3, 8, 259))
    np.testing.assert_array_equal(
        _log_map(l_sys, l_par, l_apriori, trellis, True),
        _log_map(l_sys, l_par, l_apriori, trellis, True, windows=1),
    )


@pytest.mark.parametrize("snr_db", [-1.5, -1.0, 0.0, 2.0, 4.0])
def test_windowed_single_block_decisions_match_one_window(snr_db):
    cfg = TurboConfig()
    infos, llrs = _rician_corpus(snr_db)
    trellis = RscTrellis(*cfg.generators)
    assert _window_count(1, cfg.block_length + trellis.memory, trellis.n_states) > 1
    one_window = _iterate(llrs[:24], cfg, partial(_log_map, windows=1))
    for row, expected in zip(llrs[:24], one_window):
        assert np.array_equal(turbo_decode(row, cfg), expected)


def _count_windowed_passes(monkeypatch):
    calls = []

    def spy(low, branch, trellis, windows, work):
        calls.append(windows)
        return windowed_rows(low, branch, trellis, windows, work)

    windowed_rows = turbo_mod._windowed_rows
    monkeypatch.setattr(turbo_mod, "_windowed_rows", spy)
    return calls


@pytest.mark.parametrize("magnitude", [30.0, 1e3, 1e12])
def test_saturated_single_block_takes_windowed_branch(monkeypatch, magnitude):
    # the frames of test_saturated_frames_decode_without_fp_exceptions
    calls = _count_windowed_passes(monkeypatch)
    cfg = TurboConfig(block_length=256, iterations=4)
    info = np.random.default_rng(71).integers(0, 2, size=256, dtype=np.int8)
    llrs = magnitude * (1.0 - 2.0 * turbo_encode(info, cfg).to_bits())
    with np.errstate(all="raise"):
        assert np.array_equal(turbo_decode(llrs, cfg), info)
    assert len(calls) == 2 * cfg.iterations and min(calls) > 1


def test_erased_single_block_takes_windowed_branch(monkeypatch):
    calls = _count_windowed_passes(monkeypatch)
    cfg = TurboConfig(block_length=2048, iterations=2)
    with np.errstate(all="raise"):
        turbo_decode(np.zeros(coded_block_bits(cfg)), cfg)
    assert len(calls) == 2 * cfg.iterations and min(calls) > 1


@pytest.mark.parametrize("batch", [1, 3])
def test_link_scale_llrs_decode_without_fp_exceptions(batch):
    # a noiseless link's LLRs (about 3e12), decoded directly: the link
    # itself no longer runs the decoder at snr_db = inf
    cfg = TurboConfig()
    infos = np.random.default_rng(77).integers(0, 2, size=(batch, 1024), dtype=np.int8)
    llrs = 2.8e12 * (1.0 - 2.0 * turbo_encode_batch(infos, cfg))
    with np.errstate(all="raise"):
        assert np.array_equal(turbo_decode_batch(llrs, cfg), infos)
