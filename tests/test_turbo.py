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

import qtsim.link as link_mod
import qtsim.turbo as turbo_mod
from qtsim.cchannel import (
    RicianParams, llrs_to_bits, qpsk_demodulate_soft, qpsk_modulate, transmit,
)
from qtsim.link import send_bits
from qtsim.turbo import (
    LOG_MAP_CLIP,
    RscTrellis,
    TurboConfig,
    _advance,
    _beta_index,
    _bit_factors,
    _butterfly_index,
    _extrinsic,
    _half_windows,
    _log_map,
    _LogMapBuffers,
    _permutation,
    _trellis,
    _window_count,
    _window_paths,
    coded_block_bits,
    interleave,
    split_llrs,
    turbo_decode,
    turbo_decode_batch,
    turbo_encode,
    turbo_encode_batch,
)

DATA = pathlib.Path(__file__).parent / "data"
_GENERATORS = [(0o13, 0o15), (0o13, 0o16), (0o7, 0o5), (0o23, 0o35)]


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
    assert not frame.any()


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
        assert np.array_equal(row, turbo_encode(info, cfg))
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
        assert frame.tolist() == vec["coded"]


def test_rate_accounting_exact():
    cfg = TurboConfig(block_length=1024)
    frame = turbo_encode(np.zeros(1024, dtype=np.int8), cfg)
    assert frame.size == 3 * 1024 + 6
    assert coded_block_bits(cfg) == 3078
    assert split_llrs(frame, cfg)[0].shape == (1, 1024)


def test_single_bit_has_long_impulse_response():
    # recursive encoder: one flipped info bit disturbs parity1 to the end
    cfg = TurboConfig(block_length=256)
    for pos in (0, 100, 250):
        info = np.zeros(256, dtype=np.int8)
        info[pos] = 1
        frame = turbo_encode(info, cfg)
        nz = np.nonzero(frame[256:512])[0]  # parity1
        assert nz.size > 0 and nz[0] >= pos
        # feedback 13 (octal) has period 7: parity keeps toggling until the tail
        assert nz[-1] > 256 - 8


def test_encode_is_deterministic():
    cfg = TurboConfig(block_length=128)
    info = np.random.default_rng(61).integers(0, 2, size=128, dtype=np.int8)
    a = turbo_encode(info, cfg)
    b = turbo_encode(info, cfg)
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


@pytest.mark.parametrize("generators", _GENERATORS)
def test_turbo_encode_is_one_row_of_the_batch_encoder(generators):
    cfg = TurboConfig(block_length=100, generators=generators)
    info = np.random.default_rng(85).integers(0, 2, size=100, dtype=np.int8)
    frame = turbo_encode(info, cfg)
    assert isinstance(frame, np.ndarray) and frame.dtype == np.int8
    assert frame.shape == (coded_block_bits(cfg),)
    assert np.array_equal(frame, turbo_encode_batch(info[None], cfg)[0])


def test_config_refuses_codes_the_trellis_cannot_run():
    for generators in (*_GENERATORS, TurboConfig().generators):
        turbo_encode(np.zeros(40, dtype=np.int8), TurboConfig(40, generators))
    # (0o13, 0o37) encoded as (0o13, 0o17): the trellis reads the feedforward
    # taps over the feedback's 4 bits; the others failed in every sweep point
    for generators in ((0o13, 0o37), (1, 1), (0, 0o15), (0o13, 0), (0o13, -0o15)):
        with pytest.raises(ValueError, match="generators"):
            TurboConfig(generators=generators)
    with pytest.raises(ValueError, match="interleaver_seed"):
        TurboConfig(interleaver_seed=-1)


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
    bits = turbo_encode(info, cfg)
    llrs = 30.0 * (1.0 - 2.0 * bits.astype(float))
    assert np.array_equal(turbo_decode(llrs, cfg), info)


def test_max_log_map_decoder_also_recovers():
    cfg = TurboConfig(block_length=256, iterations=4, decoder="max_log_map")
    rng = np.random.default_rng(64)
    info = rng.integers(0, 2, size=256, dtype=np.int8)
    bits = turbo_encode(info, cfg)
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
    coded = np.stack([turbo_encode(infos[i], cfg) for i in range(n_blocks)])
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
    coded = np.stack([turbo_encode(infos[i], cfg) for i in range(n_blocks)])
    llrs = awgn_llrs(coded.astype(float), 0.5, rng, rate)
    trace = turbo_decode_batch(llrs, cfg, iteration_trace=True)
    bers = [np.count_nonzero(step != infos) / infos.size for step in trace]
    n = infos.size
    for earlier, later in zip(bers, bers[1:]):
        sigma = math.sqrt(max(earlier, 1e-9) * (1 - earlier) / n)
        assert later <= earlier + 4 * sigma
    assert bers[-1] < bers[0]


# ---------------------------------------------------------------------------
# probability-domain log-MAP and max-log against the log-domain oracles
# ---------------------------------------------------------------------------

def _logsumexp_states(a: np.ndarray) -> np.ndarray:
    """log-sum-exp over the state axis of a (B, S) metric array."""
    peak = a.max(axis=1)
    return peak + np.log(np.exp(a - peak[:, None]).sum(axis=1))


def _bcjr(l_sys, l_par, l_apriori, trellis: RscTrellis, terminated: bool, max_log: bool):
    """Log-domain BCJR pass (the oracle): posterior info-bit LLRs of shape (B, T).

    All inputs are (B, T).  ``terminated`` pins the backward recursion to
    state 0; otherwise it starts uniform.  Nothing is clipped.
    """
    acc = np.maximum if max_log else np.logaddexp
    reduce_states = (lambda a: a.max(axis=1)) if max_log else _logsumexp_states
    batch, steps = l_sys.shape
    n_states = trellis.n_states
    ns0 = trellis.next_state[0]
    ns1 = trellis.next_state[1]
    par_sign0 = (1.0 - 2.0 * trellis.parity[0]).astype(float)  # (S,)
    par_sign1 = (1.0 - 2.0 * trellis.parity[1]).astype(float)

    # Branch metrics for every step at once: (T, B, S).
    half_in = (0.5 * (l_sys + l_apriori)).T[:, :, None]
    half_par = (0.5 * l_par).T[:, :, None]
    g0 = half_in + half_par * par_sign0
    g1 = -half_in + half_par * par_sign1

    alpha = np.empty((steps + 1, batch, n_states))
    alpha[0] = -np.inf
    alpha[0, :, 0] = 0.0
    c0 = np.empty((batch, n_states))
    c1 = np.empty((batch, n_states))
    for t in range(steps):
        c0[:, ns0] = alpha[t] + g0[t]
        c1[:, ns1] = alpha[t] + g1[t]
        nxt = alpha[t + 1]
        acc(c0, c1, out=nxt)
        nxt -= nxt.max(axis=1, keepdims=True)

    beta = np.zeros((batch, n_states))
    if terminated:
        beta[:] = -np.inf
        beta[:, 0] = 0.0
    posterior = np.empty((batch, steps))
    for t in range(steps - 1, -1, -1):
        b0 = beta[:, ns0] + g0[t]
        b1 = beta[:, ns1] + g1[t]
        posterior[:, t] = reduce_states(alpha[t] + b0) - reduce_states(alpha[t] + b1)
        beta = acc(b0, b1)
        beta -= beta.max(axis=1, keepdims=True)
    return posterior


def _iterate(llrs, cfg: TurboConfig, siso, iteration_trace: bool = False):
    """Fixed-count turbo iterations with ``siso`` as the constituent decoder.

    ``siso(l_sys, l_par, l_apriori, trellis, terminated)`` returns posterior
    LLRs; the iterations exchange their extrinsic parts.  Every block runs
    all ``cfg.iterations``: the reference of ``turbo_decode_batch``.
    """
    trellis = _trellis(cfg.generators)
    l_sys, l_par1, l_par2, l_tail_sys, l_tail_par1 = split_llrs(llrs, cfg)
    batch, k = l_sys.shape
    perm = _permutation(cfg.interleaver_seed, k)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(k)

    sys1 = np.concatenate([l_sys, l_tail_sys], axis=1)
    par1 = np.concatenate([l_par1, l_tail_par1], axis=1)
    sys2 = l_sys[:, perm]

    apriori1 = np.zeros((batch, k + trellis.memory))
    trace = []
    for _ in range(cfg.iterations):
        post1 = siso(sys1, par1, apriori1, trellis, terminated=True)
        extrinsic1 = post1[:, :k] - l_sys - apriori1[:, :k]
        apriori2 = extrinsic1[:, perm]
        post2 = siso(sys2, l_par2, apriori2, trellis, terminated=False)
        extrinsic2 = post2 - sys2 - apriori2
        apriori1[:, :k] = extrinsic2[:, inv]
        if iteration_trace:
            trace.append((post2[:, inv] < 0).astype(np.int8))
    decisions = (post2[:, inv] < 0).astype(np.int8)
    return trace if iteration_trace else decisions


_ORACLE = partial(_bcjr, max_log=False)
_MAX_LOG_ORACLE = partial(_bcjr, max_log=True)
_DECODERS = ("log_map", "max_log_map")


@lru_cache(maxsize=None)
def _rician_corpus(snr_db, n_blocks=128, seed=70):
    """(info, channel LLRs) of turbo blocks sent through the QPSK fading link."""
    cfg = TurboConfig()
    rng = np.random.default_rng((seed, round(10 * snr_db) + 100))
    infos = rng.integers(0, 2, size=(n_blocks, cfg.block_length), dtype=np.int8)
    coded = turbo_encode_batch(infos, cfg).reshape(-1)
    received = transmit(qpsk_modulate(coded, snr_db), RicianParams(), rng)
    return infos, qpsk_demodulate_soft(received).reshape(n_blocks, -1)


@pytest.mark.parametrize("snr_db", [-1.5, -1.0, 0.0, 2.0, 4.0])
def test_log_map_matches_log_domain_oracle(snr_db):
    """Same decisions as the log-domain oracle, same LLRs below the clip.

    The oracle runs in the same iteration loop; each of its constituent
    passes is repeated by the probability-domain decoder on the same inputs.
    Max-log decodes to the decisions of the log-domain max-log oracle.
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
    max_log = TurboConfig(decoder="max_log_map")
    assert np.array_equal(turbo_decode_batch(llrs, max_log),
                          _iterate(llrs, max_log, _MAX_LOG_ORACLE))


@pytest.mark.parametrize("generators", [(0o13, 0o15), (0o13, 0o16), (0o7, 0o5), (0o23, 0o35)])
@pytest.mark.parametrize("terminated", [True, False])
def test_log_map_matches_oracle_across_trellis_lengths(generators, terminated):
    # odd and even lengths around the slab size (the kept half of the rows,
    # the middle steps, the partial last slab), and codes of memory 2 to 4
    # whose butterflies are not symmetric in input and output; max-log runs
    # the same kernel with the max merge, and its LLRs equal the log-domain
    # max-log oracle's wherever they lie below the input clip 2C
    rng = np.random.default_rng(74)
    trellis = RscTrellis(*generators)
    for steps in (40, 43, 63, 64, 65, 128, 129, 130, 131, 259):
        l_sys, l_par, l_apriori = rng.normal(0.0, 3.0, size=(3, 4, steps))
        np.testing.assert_allclose(
            _log_map(l_sys, l_par, l_apriori, trellis, terminated),
            _ORACLE(l_sys, l_par, l_apriori, trellis, terminated),
            rtol=1e-9, atol=1e-9,
        )
        ref = _MAX_LOG_ORACLE(l_sys, l_par, l_apriori, trellis, terminated)
        below = np.abs(ref) < 2 * LOG_MAP_CLIP
        assert below.mean() > 0.9
        np.testing.assert_allclose(
            _log_map(l_sys, l_par, l_apriori, trellis, terminated, merge=np.maximum)[below],
            ref[below], rtol=1e-9, atol=1e-9,
        )


@pytest.mark.parametrize("batch, passes", [
    (4, ((259, True, np.add), (130, False, np.add), (259, False, np.add), (43, True, np.add),
         (259, True, np.maximum))),
    (1, ((1027, True, np.add), (1024, False, np.add), (1027, True, np.maximum),
         (1024, False, np.add))),
    (128, ((259, True, np.add), (130, False, np.maximum), (259, False, np.add))),
], ids=["windowed", "one_block", "one_window"])
def test_log_map_buffers_reused_across_passes(batch, passes):
    # a batch decode runs passes of two lengths, windowed (B <= 4) or not,
    # in one set of work arrays, and max-log passes run one window in them;
    # every scratch array a pass takes from them gives the bits of fresh ones
    rng = np.random.default_rng(75)
    trellis = RscTrellis()
    work = _LogMapBuffers(batch, max(steps for steps, _, _ in passes), trellis.n_states)
    for steps, terminated, merge in passes:
        l_sys, l_par, l_apriori = rng.normal(0.0, 3.0, size=(3, batch, steps))
        np.testing.assert_array_equal(
            _log_map(l_sys, l_par, l_apriori, trellis, terminated, work=work, merge=merge),
            _log_map(l_sys, l_par, l_apriori, trellis, terminated, merge=merge),
        )


def test_index_caches_are_read_only_and_rebuild_alike():
    # every pass of one length shares its butterfly gather index, its
    # half-window index and its beta gather index, made from the trellis's
    # next-state index: none can be written, and a cleared and rebuilt cache
    # gives the same bits
    trellis = _trellis((0o13, 0o15))
    rng = np.random.default_rng(81)
    inputs = [rng.normal(0.0, 3.0, size=(3, batch, 1027)) for batch in (1, 16)]

    def posteriors():
        return [_log_map(*x, trellis, True, merge=merge).tobytes()
                for x in inputs for merge in (np.add, np.maximum)]

    before = posteriors()
    for index in (_butterfly_index(trellis, 1027), _half_windows(1027, 32)[3],
                  _beta_index(trellis, 1027), trellis.next_reversed):
        assert not index.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            index[(0,) * index.ndim] = 0
    np.testing.assert_array_equal(trellis.next_reversed,
                                  trellis.bit_reversed[trellis.next_state])
    for cache in (_butterfly_index, _half_windows, _beta_index):
        cache.cache_clear()
    assert posteriors() == before


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
    arrays = vars(work).values()
    return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray) and a.base is None)


def test_log_map_working_set_budget():
    # the work arrays of a 128-block coded sweep chunk at K = 1024 (one
    # window), and of one block (windowed), which must not outgrow the
    # 2,238,664 bytes they took with 64-step slabs
    assert _work_bytes(_LogMapBuffers(128, 1027, 8)) <= 17 * 2**20
    assert _work_bytes(_LogMapBuffers(1, 1027, 8)) <= 2_238_664


def _arrays_in(value):
    """The arrays in ``value``, an array or nested lists and tuples of them."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (list, tuple)):
        return [a for v in value for a in _arrays_in(v)]
    return []


def test_a_shrinking_batch_views_the_work_arrays_it_was_built_with(monkeypatch):
    # a 4 dB decode of 128 blocks, whose batch shrinks as blocks stop early:
    # every pass views the flat arrays made at construction, one view per
    # batch it runs at, so no pass allocates a work array
    built, columns = [], []

    class Recorded(_LogMapBuffers):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append((self, dict(vars(self))))

    def spy(l_sys, *args, **kwargs):
        columns.append(l_sys.shape[0])
        return log_map(l_sys, *args, **kwargs)

    log_map = turbo_mod._log_map
    monkeypatch.setattr(turbo_mod, "_LogMapBuffers", Recorded)
    monkeypatch.setattr(turbo_mod, "_log_map", spy)
    turbo_decode_batch(_rician_corpus(4.0)[1], TurboConfig())
    assert columns[0] == 128 and min(columns) < 128
    ((work, made),) = built
    flat = {name: a for name, a in vars(work).items() if isinstance(a, np.ndarray)}
    assert flat.keys() == {name for name, a in made.items() if isinstance(a, np.ndarray)}
    assert all(a is made[name] and a.base is None and a.ndim == 1 for name, a in flat.items())
    views = _arrays_in(list(work._views.values()))
    assert views and all(any(v.base is a for a in flat.values()) for v in views)
    # carve keys are (name, shapes); the batch is the last axis of each view
    assert {key[1][0][-1] for key in work._views if key[0] == "low"} == set(columns)


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
    # and each decoder's log-domain oracle, which clips nothing, decodes them too
    info = np.random.default_rng(71).integers(0, 2, size=256, dtype=np.int8)
    for decoder, oracle in zip(_DECODERS, (_ORACLE, _MAX_LOG_ORACLE)):
        cfg = TurboConfig(block_length=256, iterations=4, decoder=decoder)
        llrs = magnitude * (1.0 - 2.0 * turbo_encode(info, cfg))
        with np.errstate(all="raise"):
            assert np.array_equal(turbo_decode(llrs, cfg), info)
        assert np.array_equal(_iterate(llrs[None], cfg, oracle)[0], info)


def test_erased_frame_decodes_without_fp_exceptions():
    # all-zero LLRs: every branch factor is 1, so an unscaled recursion
    # would double its metrics at each of the 2051 steps
    for decoder in _DECODERS:
        cfg = TurboConfig(block_length=2048, iterations=2, decoder=decoder)
        with np.errstate(all="raise"):
            decoded = turbo_decode(np.zeros(coded_block_bits(cfg)), cfg)
        assert decoded.shape == (cfg.block_length,)


def test_noiseless_link_returns_input_exactly():
    # send_bits returns before the chain at snr_db=inf; the chain itself, run
    # here, floors the demodulator's N0 = 0 so that its LLRs reach ~3e12, and
    # the decoder and the hard slicer return the input from them
    cfg = TurboConfig()
    bits = np.random.default_rng(72).integers(0, 2, size=3 * cfg.block_length, dtype=np.int8)
    rng = np.random.default_rng(73)
    with np.errstate(all="raise"):
        coded = turbo_encode_batch(bits.reshape(3, -1), cfg).reshape(-1)
        llrs = link_mod._channel_llrs(coded, rng, math.inf, RicianParams(), "per_symbol")
        assert np.abs(llrs).max() > 1e11  # the floor branch, not a finite N0
        decoded = turbo_decode_batch(llrs.reshape(3, -1), cfg).reshape(-1)
        uncoded = llrs_to_bits(
            link_mod._channel_llrs(bits, rng, math.inf, RicianParams(), "per_symbol"))
        sent = send_bits(bits, rng, snr_db=math.inf, rician=RicianParams(), turbo_cfg=cfg)
    for out in (decoded, uncoded, sent):
        assert out.dtype == np.int8 and np.array_equal(out, bits)


# ---------------------------------------------------------------------------
# window-parallel recursion against the one-window recursion
# ---------------------------------------------------------------------------


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


def _step_order_extrinsic(rows, parity_factor, trellis, windows, out, work):
    """The windowed extrinsic as it was formed in step order: an oracle.

    Phase 2's rows are scattered to T rows (T, 2, S, B), row r holding alpha_r
    and beta_{T-r}, and read SLAB steps at a time by ``_extrinsic``, the
    kernel of the one-window pass, over fresh work arrays.
    """
    steps, _, batch = parity_factor.shape
    half, windows, tail, _ = _half_windows(steps, windows)
    n_states = rows.shape[2]
    low = np.full((steps, 2, n_states, batch), np.nan)
    # alpha_r from forward row r - 2hw - hc of half-window (w, c); beta_{T-r}
    # from the last window's backward rows for r < tail, and from window
    # W - 2 - (r - tail) // 2h on
    split = rows[:half].reshape(half, 2, n_states, 2, windows, batch).transpose(1, 4, 3, 0, 2, 5)
    full = steps - tail
    low[:full, 0].reshape(windows - 1, 2, half, n_states, batch)[...] = split[0, :-1]
    low[full:full + half, 0] = split[0, -1, 0, :tail]
    low[full + half:, 0] = split[0, -1, 1, :max(tail - half, 0)]
    low[tail:, 1].reshape(windows - 1, 2, half, n_states, batch)[...] = split[1, -2::-1]
    low[:min(tail, half), 1] = split[1, -1, 0, :tail]
    low[half:tail, 1] = split[1, -1, 1, 2 * half - tail:half]
    assert not np.isnan(low).any()
    scratch = _LogMapBuffers(batch, steps, n_states, max_windows=1)
    for t0 in range(0, steps, turbo_mod.SLAB):
        t1 = min(t0 + turbo_mod.SLAB, steps)
        _extrinsic(low[t0:t1, 0], low[steps - t1:steps - t0], parity_factor[t0:t1], trellis,
                   out[t0:t1], scratch)


@pytest.mark.parametrize("steps, windows", [
    (40, 64), (41, 40), (43, 21), (65, 2), (1027, 3), (1024, 32), (1027, 32),
])
@pytest.mark.parametrize("batch", [1, 2, 3, 4])
@pytest.mark.parametrize("generators", _GENERATORS)
def test_windowed_extrinsic_matches_the_step_order_oracle_bit_for_bit(
        monkeypatch, steps, windows, batch, generators):
    # the posterior is formed where phase 2 leaves its rows, with the
    # products and the state-sum order of the step-order kernel: at B = 1
    # numpy's pairwise order over an innermost axis, else the sequential one
    trellis = RscTrellis(*generators)
    rng = np.random.default_rng(steps * windows + batch)
    l_sys, l_par, l_apriori = rng.normal(0.0, 3.0, size=(3, batch, steps))
    for terminated in (True, False):
        fast = _log_map(l_sys, l_par, l_apriori, trellis, terminated, windows=windows)
        with monkeypatch.context() as patch:
            patch.setattr(turbo_mod, "_windowed_extrinsic", _step_order_extrinsic)
            oracle = _log_map(l_sys, l_par, l_apriori, trellis, terminated, windows=windows)
        assert fast.tobytes() == oracle.tobytes()
    for index in _window_paths(trellis, steps, windows):
        assert not index.flags.writeable


def test_numpy_sums_the_states_in_the_orders_the_decoder_replays():
    # _state_sums replays these orders for the windowed posterior; a numpy
    # that changes either fails here first, not in a golden
    rng = np.random.default_rng(83)

    def tree(r):
        return ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))

    def in_sequence(a):
        total = a[0]
        for term in a[1:]:
            total = total + term
        return total

    paths = rng.random((1027, 2, 16, 1))  # (T, 2, S, B) at B = 1: S innermost
    eight = np.moveaxis(paths[:, :, :8, 0], 2, 0)
    assert np.add.reduce(paths[:, :, :8], axis=2)[..., 0].tobytes() == tree(eight).tobytes()
    assert tree(eight).tobytes() != in_sequence(eight).tobytes()  # the orders differ
    sixteen = np.moveaxis(paths[..., 0], 2, 0)
    folded = tree(sixteen[:8] + sixteen[8:])  # r_j = a_j + a_{j+8}
    assert np.add.reduce(paths, axis=2)[..., 0].tobytes() == folded.tobytes()
    four = np.moveaxis(paths[:, :, :4, 0], 2, 0)  # fewer than 8: in sequence
    assert np.add.reduce(paths[:, :, :4], axis=2)[..., 0].tobytes() == \
        in_sequence(four).tobytes()
    for batch in (2, 3, 4, 64):  # S a middle axis: in sequence
        paths = rng.random((1027, 2, 8, batch))
        assert np.add.reduce(paths, axis=2).tobytes() == \
            in_sequence(np.moveaxis(paths, 2, 0)).tobytes()


def test_bit_factors_are_exp_of_the_clipped_llrs_bit_for_bit():
    # 1 for the likelier bit value, exp(-2|h|) for the other, h = llr / 2
    # clipped to C: at signed zeros, at +-2C and just past, far past, at +-inf
    bound = 2 * LOG_MAP_CLIP
    values = [0.0, -0.0, bound, -bound, np.nextafter(bound, np.inf),
              np.nextafter(-bound, -np.inf), 2 * bound, -2 * bound, 1e300, -1e300,
              np.inf, -np.inf, 3.7, -3.7, 5e-324, -5e-324]
    llr = np.array([values, values[::-1]])  # (B, T) with B = 2
    out = np.empty((len(values), 2, 2))
    with np.errstate(all="raise"):
        _bit_factors(llr, out)
    assert out[:, 0].tobytes() == np.exp(np.clip(llr.T, -bound, 0.0)).tobytes()
    assert out[:, 1].tobytes() == np.exp(-np.clip(llr.T, 0.0, bound)).tobytes()


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
    _advance(units, branch, trellis, 0, _LogMapBuffers(1, steps, n_states), scales)
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
    llrs = magnitude * (1.0 - 2.0 * turbo_encode(info, cfg))
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
