"""Turbo codec: encoder structure, golden vectors, decoder performance."""
import itertools
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
    _advance,
    _bcjr,
    _half_windows,
    _iterate,
    _log_map,
    _LogMapBuffers,
    _window_count,
    coded_block_bits,
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


def test_empty_batch_encodes_and_decodes():
    cfg = TurboConfig()
    coded = turbo_encode_batch(np.zeros((0, cfg.block_length), dtype=np.int8), cfg)
    assert coded.shape == (0, coded_block_bits(cfg)) and coded.dtype == np.int8
    assert turbo_decode_batch(coded, cfg).shape == (0, cfg.block_length)


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
    perm = interleave(np.arange(values.size), seed=5)
    assert np.array_equal(shuffled[np.argsort(perm)], values)


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


@pytest.mark.parametrize("batch", [128, 3])  # one window; windowed (_window_count 32)
@pytest.mark.parametrize("terminated", [True, False])
def test_log_map_does_not_depend_on_the_slab(monkeypatch, batch, terminated):
    # SLAB only cuts the one-window recursion and the posterior into calls:
    # every step's arithmetic, and so every bit, is the same at any slab
    rng = np.random.default_rng(77)
    trellis = RscTrellis()
    steps = 1027 if terminated else 1024
    l_sys, l_par, l_apriori = rng.normal(0.0, 3.0, size=(3, batch, steps))
    outputs = []
    for slab in (5, 16, 64):
        monkeypatch.setattr(turbo_mod, "SLAB", slab)
        outputs.append(_log_map(l_sys, l_par, l_apriori, trellis, terminated))
    for out in outputs[1:]:
        np.testing.assert_array_equal(out, outputs[0])


@pytest.mark.parametrize("batch", [128, 3])
def test_batch_decode_does_not_depend_on_the_slab(monkeypatch, batch):
    llrs = _rician_corpus(-1.0)[1][:batch]  # waterfall: all 8 iterations run
    traces = []
    for slab in (5, 16, 64):
        monkeypatch.setattr(turbo_mod, "SLAB", slab)
        traces.append(turbo_decode_batch(llrs, TurboConfig(), iteration_trace=True))
    for trace in traces[1:]:
        np.testing.assert_array_equal(trace, traces[0])


def _work_bytes(work):
    """Bytes of the arrays a ``_LogMapBuffers`` owns (its views own none)."""
    arrays = [*vars(work).values(), *work._storage.values()]
    return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray) and a.base is None)


def test_log_map_working_set_budget():
    # the work arrays of a 128-block coded sweep chunk at K = 1024 (one
    # window), and of one block (windowed), which must not outgrow the
    # 2,238,664 bytes they took with 64-step slabs
    assert _work_bytes(_LogMapBuffers(128, 1027, 8)) <= 17 * 2**20
    assert _work_bytes(_LogMapBuffers(1, 1027, 8)) <= 2_238_664


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


# (T, windows) -> (half-window h, steps of the last window), shapes that the
# draws above can miss: one-step halves with a full last window and with a
# last window of one step; a last window between one and two halves, with
# h = 2, with an odd h and with halves of hundreds of steps; and the two
# passes of a K = 1024 block, whose last windows are full and shorter than a
# half.  Each runs noisy LLRs and saturated ones of random sign, which over
# long halves give log scales in the thousands.
@pytest.mark.parametrize("steps, windows, half, tail", [
    (40, 64, 1, 2), (41, 40, 1, 1), (43, 21, 2, 3), (65, 2, 17, 31),
    (1027, 2, 257, 513), (1027, 3, 172, 339), (1024, 32, 16, 32), (1027, 32, 17, 7),
])
@pytest.mark.parametrize("generators", _GENERATORS)
def test_windowed_log_map_edge_cases(steps, windows, half, tail, generators):
    h, _, last, _ = _half_windows(steps, windows)
    assert (h, last) == (half, tail)
    trellis = RscTrellis(*generators)
    rng = np.random.default_rng(steps * windows)
    for terminated, saturated in itertools.product((True, False), repeat=2):
        if saturated:
            l_sys, l_par = 30.0 * rng.choice([-1.0, 1.0], size=(2, 2, steps))
            l_apriori = np.zeros_like(l_sys)
        else:
            l_sys, l_par, l_apriori = rng.normal(0.0, 3.0, size=(3, 2, steps))
        one = _log_map(l_sys, l_par, l_apriori, trellis, terminated, windows=1)
        with np.errstate(all="raise"):
            windowed = _log_map(l_sys, l_par, l_apriori, trellis, terminated, windows=windows)
        np.testing.assert_allclose(windowed, one, rtol=1e-12, atol=1e-13)


def _pushed_transfers(branch, trellis):
    """Both directions' transfers over all steps of ``branch`` (rows 4t + m, one column).

    ``[0][s, n]`` is the forward transfer from state n to s; ``[1][s, n]`` the
    backward one from state n at the last step to state s at the first, its
    rows over bit-reversed states.  Each column is pushed through the steps
    by ``_advance``, scaled at every step, and multiplied back by its scales.
    """
    steps, n_states = branch.shape[0] // 4, trellis.n_states
    units = np.empty((steps + 1, 2, n_states, n_states, 1))
    units[0] = trellis.units[..., None]
    scales = np.empty((steps, 2, 1, n_states, 1))
    _advance(units, branch, trellis, 0, np.empty(4 * n_states * steps), scales)
    return units[-1, ..., 0] * np.exp(np.log(scales[..., 0]).sum(axis=0))


@pytest.mark.parametrize("generators", _GENERATORS)
def test_backward_transfer_is_the_bit_reversed_transpose(generators):
    # the identity behind the windowed pass: over any steps the backward
    # transfer is the transpose of the forward one (Bahl et al. 1974), so
    # one direction per half-window gives both, and two half-window
    # transfers compose to the window's, pushed through it directly
    trellis = RscTrellis(*generators)
    rev = trellis.bit_reversed
    branch = np.random.default_rng(79).uniform(0.05, 1.0, size=(4 * 33, 1))
    whole = _pushed_transfers(branch, trellis)
    first = _pushed_transfers(branch[:4 * 17], trellis)
    second = _pushed_transfers(branch[4 * 17:], trellis)
    for transfer in (whole, first, second):
        np.testing.assert_allclose(transfer[1], transfer[0].T[rev], rtol=1e-12)
    np.testing.assert_allclose(second[0] @ first[0], whole[0], rtol=1e-12)
    np.testing.assert_allclose(second[1].T @ first[0][rev], whole[0], rtol=1e-12)


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
    # decoder 1's a-priori LLRs after iteration 2 of 4 equal those after
    # iteration 1, so the decode stops after two iterations of two passes
    assert len(calls) == 4 and min(calls) > 1


def test_erased_single_block_takes_windowed_branch(monkeypatch):
    calls = _count_windowed_passes(monkeypatch)
    cfg = TurboConfig(block_length=2048, iterations=2)
    with np.errstate(all="raise"):
        turbo_decode(np.zeros(coded_block_bits(cfg)), cfg)
    # all extrinsic LLRs of iteration 1 are zero, as before it: a fixed
    # point, so the decode stops after one iteration of two passes
    assert len(calls) == 2 and min(calls) > 1


@pytest.mark.parametrize("batch", [1, 3])
def test_link_scale_llrs_decode_without_fp_exceptions(batch):
    # a noiseless link's LLRs (about 3e12), decoded directly: the link
    # itself no longer runs the decoder at snr_db = inf
    cfg = TurboConfig()
    infos = np.random.default_rng(77).integers(0, 2, size=(batch, 1024), dtype=np.int8)
    llrs = 2.8e12 * (1.0 - 2.0 * turbo_encode_batch(infos, cfg))
    with np.errstate(all="raise"):
        assert np.array_equal(turbo_decode_batch(llrs, cfg), infos)


# ---------------------------------------------------------------------------
# cycle exit: a block stops once its a-priori LLRs repeat, with the same bits
# ---------------------------------------------------------------------------

def _reference_decode(llrs, cfg, siso=_log_map):
    """The fixed-count loop's trace and each block's first repeat period.

    The period is 1 where decoder 1's a-priori input of some iteration
    equals, bitwise, that of the iteration before, 2 where it equals that
    of two iterations before, and 0 where no input repeats.
    """
    inputs = []

    def spy(l_sys, l_par, l_apriori, trellis, terminated):
        if terminated:
            inputs.append(l_apriori.view(np.int64).copy())
        return siso(l_sys, l_par, l_apriori, trellis, terminated)

    trace = _iterate(llrs, cfg, spy, iteration_trace=True)
    periods = np.zeros(len(llrs), dtype=int)
    for i in range(1, len(inputs)):
        for period in (1, 2):
            if i >= period:
                repeats = (inputs[i] == inputs[i - period]).all(axis=1)
                periods[(periods == 0) & repeats] = period
    return trace, periods


def _assert_decodes_like(llrs, cfg, trace):
    decoded = turbo_decode_batch(llrs, cfg, iteration_trace=True)
    assert len(decoded) == len(trace)
    for got, expected in zip(decoded, trace):
        assert got.dtype == np.int8 and np.array_equal(got, expected)
    assert np.array_equal(turbo_decode_batch(llrs, cfg), trace[-1])


@lru_cache(maxsize=None)
def _corpus_reference(snr_db):
    return _reference_decode(_rician_corpus(snr_db)[1], TurboConfig())


@pytest.mark.parametrize("snr_db", [-1.5, 0.0, 2.0, 4.0, 8.0])
def test_cycle_exit_decodes_like_full_iterations(snr_db):
    # 128 and 5 blocks run one window, 3 and 2 blocks 32 windows; each
    # batch of 2 or more gives every block the same bits
    cfg = TurboConfig()
    llrs = _rician_corpus(snr_db)[1]
    trace, periods = _corpus_reference(snr_db)
    _assert_decodes_like(llrs, cfg, trace)
    _assert_decodes_like(llrs[:5], cfg, [step[:5] for step in trace])
    for batch in (2, 3):
        _assert_decodes_like(llrs[:batch], cfg, _reference_decode(llrs[:batch], cfg)[0])
    if snr_db >= 4.0:
        # every block repeats, some in a 2-cycle
        assert periods.all() and (periods == 2).any()


def test_cycle_exit_windowed_single_block():
    cfg = TurboConfig()
    llrs = _rician_corpus(8.0)[1]
    _, periods = _corpus_reference(8.0)
    for row in (np.argmax(periods == 1), np.argmax(periods == 2)):
        trace, period = _reference_decode(llrs[row:row + 1], cfg)
        assert period[0] == periods[row]
        _assert_decodes_like(llrs[row:row + 1], cfg, trace)


def test_cycle_exit_max_log():
    # max-log extrinsic LLRs grow at every iteration on these frames; erased
    # frames reach a fixed point after one, so the batch shrinks from 9 to 6
    cfg = TurboConfig(decoder="max_log_map")
    llrs = np.concatenate([_rician_corpus(snr_db)[1][:3] for snr_db in (0.0, 4.0)])
    llrs = np.insert(llrs, [0, 2, 6], 0.0, axis=0)
    trace, periods = _reference_decode(llrs, cfg, partial(_bcjr, max_log=True))
    assert periods.tolist() == [1, 0, 0, 1, 0, 0, 0, 0, 1]
    _assert_decodes_like(llrs, cfg, trace)


def test_cycle_exit_keeps_two_columns_and_one_window(monkeypatch):
    # 127 blocks that repeat and one in the waterfall that does not: the
    # batch shrinks to the waterfall block and one block kept beside it
    cfg = TurboConfig()
    llrs = np.concatenate([_rician_corpus(4.0)[1][:127], _rician_corpus(-1.5)[1][:1]])
    trace, periods = _reference_decode(llrs, cfg)
    assert periods[:127].all() and periods[127] == 0
    windowed = _count_windowed_passes(monkeypatch)
    columns = []

    def spy(l_sys, *args, **kwargs):
        columns.append(l_sys.shape[0])
        return log_map(l_sys, *args, **kwargs)

    log_map = turbo_mod._log_map
    monkeypatch.setattr(turbo_mod, "_log_map", spy)
    _assert_decodes_like(llrs, cfg, trace)
    assert columns[0] == 128 and min(columns) == 2 and columns[-1] == 2
    assert not windowed


def _exchange_siso(l_sys, l_par, l_apriori, trellis, terminated, **_):
    """A stand-in constituent decoder with exact, chosen dynamics.

    Decoder 1 gives extrinsic 4 * parity before the first exchange and the
    negated a-priori input after it; decoder 2 passes its a-priori input on,
    times its parity input.  With dyadic inputs every sum is exact, so a
    block whose decoder-2 parity is 1 alternates its a-priori LLRs and its
    decisions (a 2-cycle), one with parity 2 doubles them at each iteration,
    and one with decoder-1 parity 0 stays at zero (a fixed point).
    """
    if terminated:
        extrinsic = np.where(l_apriori == 0, 4 * l_par, -l_apriori)
    else:
        extrinsic = l_apriori * l_par
    return l_sys + l_apriori + extrinsic


def test_cycle_exit_fills_alternating_decisions(monkeypatch):
    cfg = TurboConfig(block_length=40)
    rng = np.random.default_rng(78)
    systematic = rng.choice([-0.5, 0.5], size=(4, 40))
    parity1 = rng.choice([-1.0, 1.0], size=(4, 40))
    parity1[0] = 0.0
    parity2 = np.repeat([[1.0], [2.0], [1.0], [1.0]], 40, axis=1)
    llrs = np.concatenate([systematic, parity1, parity2, np.zeros((4, 6))], axis=1)
    trace, periods = _reference_decode(llrs, cfg, _exchange_siso)
    assert periods.tolist() == [1, 0, 2, 2]
    assert not np.array_equal(trace[-1][2:], trace[-2][2:])
    monkeypatch.setattr(turbo_mod, "_log_map", _exchange_siso)
    _assert_decodes_like(llrs, cfg, trace)
