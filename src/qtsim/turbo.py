"""Rate-1/3 parallel-concatenated convolutional (turbo) codec.

Constituent code: recursive systematic convolutional encoder with octal
generators (13, 15) - feedback 13, feedforward 15, memory 3, 8 states.
Encoder 1 runs on natural-order bits and is terminated to the zero state
with 3 tail steps; encoder 2 runs on pseudorandomly interleaved bits and is
left unterminated.

Frame layout (bit-exact, ``CodedFrame.to_bits`` / ``split_llrs``):

    systematic[K] || parity1[K] || parity2[K] || tail_sys[3] || tail_par1[3]

so a block carries exactly 3*K + 6 channel bits.

Decoding is iterative BCJR with extrinsic exchange between the two
constituent decoders.  LLR convention throughout: positive favors bit 0.

- Exact log-MAP (``_log_map``) is the BCJR recursion of Bahl et al. in the
  probability domain, scaled to sum 1 at every step.  The branch factors are
  exponentiated once per half-iteration from half-metrics clipped to
  +-``LOG_MAP_CLIP``, which keeps every factor, product and scale a normal
  double for any input; the forward and backward recursions then only
  multiply and add, and one logarithm per bit gives the extrinsic LLR.  Its
  LLRs agree with the log-domain recursion wherever they lie below the clip,
  and its decisions matched it on every test corpus.
- A pass of few blocks (``_window_count``: B <= 4 for the 8-state code)
  runs its T steps as W ~ sqrt(T) windows of 2h steps side by side on the
  batch axis, as in the parallel-scan form of Sarkka & Garcia-Fernandez
  (arXiv:1905.13002).  Phase 1 pushes the S unit vectors forward through
  the first half of every window and backward through the second, each
  column scaled on its own with its log scale kept.  The backward transfer
  over a range of steps is the transpose of the forward one (Bahl et al.),
  so a window's two half transfers multiply to its forward transfer, whose
  transpose is its backward one.  The W - 1 window boundaries are chained
  in order in the log domain, each coefficient floored at
  exp(-``WINDOW_FLOOR``) of the largest, the midpoints follow from the half
  transfers, and phase 2 runs the 2W half-windows again from these rows.
  A step costs numpy call overhead, not arithmetic, at small B, so two
  phases of h ~ sqrt(T)/2 steps of W B (then 2 W B) columns beat T/2 steps
  of B columns.  Its LLRs equal the one-window recursion's to rounding
  (rtol 1e-12 in the tests); with one window the recursion is the
  sequential one.
- Max-log (``_bcjr`` with ``max_log``) stays in the log domain.  The same
  function with ``max_log=False`` is the log-domain log-MAP oracle of the
  tests.

``turbo_decode_batch`` returns the decisions of ``cfg.iterations`` full
iterations (``_iterate`` is that fixed-count loop, the reference of the
tests), but a block stops iterating once they are known.  Decoder 1's
a-priori LLRs are the only state one iteration hands the next; everything
else is a function of them and the channel LLRs.  So when they equal,
bitwise, those of the iteration before (a fixed point), every later
iteration repeats the last one, and when they equal those of two
iterations before (a 2-cycle), later iterations alternate between the last
two.  Their decisions are filled in, the rows of the blocks that go on are
gathered into smaller arrays, and ``_log_map``'s work arrays are viewed at
the smaller batch.  On the test corpora every log-MAP block at 4 dB and
above reached a repeat within 8 iterations, none in the waterfall; max-log
LLRs keep growing, so there only erased frames repeat.  Two rules keep
every pass exact:

- A block's bits are the same in any batch of 2 or more, but a pass over
  one column sums the states in another order (about 1e-14 apart).  So a
  decode of 2 or more blocks never runs a pass on fewer than 2: a block that
  would leave beside the last one iterates on with it.
- The window count changes the rounding, so it is fixed once per decode,
  from the whole batch: a B = 128 decode that shrinks to 3 blocks keeps W = 1.

Working set.  One batch decode makes all its passes in one set of work
arrays (``_LogMapBuffers``).  A one-window pass keeps the branch table, into
which the input factors are written directly, the parity factors, the
extrinsic LLRs and the first T/2 + 1 rows of the recursion; the later rows
are made ``SLAB`` = 16 steps at a time and used at once, as in Schurgers,
Catthoor & Engels, "Memory optimization of MAP turbo decoder algorithms"
(IEEE T-VLSI 9(2), 2001).  That is about 131 KiB per block at K = 1024, half
of it the kept rows: 16.3 MiB for a 128-block sweep chunk.  A windowed pass
keeps all T rows, the S unit vectors of every window over half of it, and
one posterior slab of all T steps: 1.6 MiB for one block.
``turbo_decode_batch`` frees each of its arrays once it is spent, and the
channel LLRs once it has copied the streams it reads, unless the caller
keeps them (``link.send_bits`` does not), so that no spent array sits
beside the work arrays.

Both encoder and decoder are batched over blocks (the batch is the last,
contiguous axis of the decoder's state metrics); ``turbo_encode`` and
``turbo_decode`` are the single-block wrappers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np


@dataclass(frozen=True)
class TurboConfig:
    block_length: int = 1024
    generators: tuple[int, int] = (0o13, 0o15)  # (feedback, feedforward)
    interleaver_seed: int = 1
    iterations: int = 8
    decoder: str = "log_map"

    def __post_init__(self):
        if self.block_length < 40:
            raise ValueError("block_length must be >= 40")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.decoder not in ("log_map", "max_log_map"):
            raise ValueError(f"unknown decoder {self.decoder!r}")


@dataclass(frozen=True)
class CodedFrame:
    """One encoded block; all streams are 0/1 int8 arrays."""

    systematic: np.ndarray
    parity1: np.ndarray
    parity2: np.ndarray
    tail_systematic: np.ndarray
    tail_parity1: np.ndarray

    @property
    def length(self) -> int:
        return int(self.systematic.size)

    def to_bits(self) -> np.ndarray:
        """Serialize to the documented channel layout."""
        return np.concatenate(
            [
                self.systematic,
                self.parity1,
                self.parity2,
                self.tail_systematic,
                self.tail_parity1,
            ]
        )


class RscTrellis:
    """Transition tables for one recursive systematic convolutional code."""

    def __init__(self, feedback: int = 0o13, feedforward: int = 0o15):
        length = feedback.bit_length()
        self.memory = length - 1
        self.n_states = 1 << self.memory
        fb = [(feedback >> (length - 1 - i)) & 1 for i in range(length)]
        ff = [(feedforward >> (length - 1 - i)) & 1 for i in range(length)]
        if fb[0] != 1:
            raise ValueError("feedback polynomial must have a leading 1")

        self.next_state = np.zeros((2, self.n_states), dtype=np.int64)
        self.parity = np.zeros((2, self.n_states), dtype=np.int8)
        self.term_input = np.zeros(self.n_states, dtype=np.int8)
        for s in range(self.n_states):
            s_bits = [(s >> (self.memory - 1 - j)) & 1 for j in range(self.memory)]
            fb_sum = 0
            for j in range(self.memory):
                fb_sum ^= fb[j + 1] & s_bits[j]
            self.term_input[s] = fb_sum  # input that drives the feedback to 0
            for x in (0, 1):
                a = x ^ fb_sum
                p = ff[0] & a
                for j in range(self.memory):
                    p ^= ff[j + 1] & s_bits[j]
                self.parity[x, s] = p
                self.next_state[x, s] = (a << (self.memory - 1)) | (s >> 1)

        # Butterfly: state s = 2j + p moves to (x ^ fb(s)) * S/2 + j with
        # fb(s) = term_input[s], so states 2j and 2j + 1 feed j and S/2 + j.
        # forward[p, a, j] is the branch index 2x + parity of 2j + p -> a*S/2 + j.
        half = self.n_states // 2
        p, a, j = np.ix_((0, 1), (0, 1), range(half))
        x = a ^ self.term_input[2 * j + p]
        forward = 2 * x + self.parity[x, 2 * j + p]
        # Bit reversal maps 2j + p to p * S/2 + rev(j) and a * S/2 + j to
        # 2 rev(j) + a, so a backward step over bit-reversed states reads and
        # writes the same [input, j] and [output, j] views as a forward step
        # over natural states.  butterfly[d, i, o, j] is the branch index of
        # output o from input i in direction d (0 forward, 1 backward).
        self.bit_reversed = np.array(
            [int(format(s, f"0{self.memory}b")[::-1], 2) for s in range(self.n_states)]
        )
        backward = forward[:, :, self.bit_reversed[:half] // 2].transpose(1, 0, 2)
        self.butterfly = np.stack([forward, backward]).astype(np.intp)
        # units[d, :, n]: state n as a vector over the states of direction d
        eye = np.eye(self.n_states)
        self.units = np.stack([eye, eye[self.bit_reversed]])

        # The encoder takes eight inputs per step: for 256 * state + byte
        # (first input in the top bit), the state reached, times 256, and the
        # eight parity bits packed the same way.  Input 0 keeps state 0, so
        # a block is zero-padded in front to whole bytes.
        state = np.repeat(np.arange(self.n_states), 256)
        byte = np.tile(np.arange(256), self.n_states)
        packed = np.zeros_like(state)
        for shift in range(7, -1, -1):
            x = (byte >> shift) & 1
            packed = 2 * packed + self.parity[x, state]
            state = self.next_state[x, state]
        self.byte_next = 256 * state
        self.byte_parity = packed.astype(np.uint8)
        # Termination from each state: the tail inputs and their parity bits.
        self.tail_input = np.empty((self.n_states, self.memory), dtype=np.int8)
        self.tail_parity = np.empty_like(self.tail_input)
        state = np.arange(self.n_states)
        for k in range(self.memory):
            x = self.term_input[state]
            self.tail_input[:, k] = x
            self.tail_parity[:, k] = self.parity[x, state]
            state = self.next_state[x, state]
        assert not state.any(), "termination must reach the zero state"

    def encode(self, bits: np.ndarray, terminate: bool):
        """Parity streams for one block or for a (B, K) batch of blocks.

        Returns (parity, tail_inputs, tail_parity) with the leading shape of
        ``bits``; the tails have ``memory`` steps when ``terminate`` is set
        and none otherwise.  The loop runs over the bytes of the block, each
        step over all blocks at once.
        """
        bits = np.asarray(bits, dtype=np.int8)
        flat = bits.reshape(-1, bits.shape[-1])
        pad = -flat.shape[1] % 8
        padded = np.zeros((flat.shape[0], flat.shape[1] + pad), dtype=np.uint8)
        padded[:, pad:] = flat
        state = np.zeros(flat.shape[0], dtype=np.intp)  # 256 * state
        index = []
        for byte in np.packbits(padded, axis=1).T.astype(np.intp):
            index.append(state + byte)
            state = self.byte_next[index[-1]]
        index = np.array(index, dtype=np.intp).reshape(len(index), flat.shape[0]).T
        parity = np.unpackbits(self.byte_parity[index], axis=1)[:, pad:].astype(np.int8)
        n_tail = self.memory if terminate else 0
        shape = bits.shape[:-1]
        return (
            parity.reshape(*shape, flat.shape[1]),
            self.tail_input[state // 256, :n_tail].reshape(*shape, n_tail),
            self.tail_parity[state // 256, :n_tail].reshape(*shape, n_tail),
        )


@lru_cache(maxsize=8)
def _trellis(generators: tuple[int, int]) -> RscTrellis:
    return RscTrellis(*generators)


@lru_cache(maxsize=32)
def _permutation(seed: int, length: int) -> np.ndarray:
    return np.random.default_rng(seed).permutation(length)


def interleave(values, seed: int) -> np.ndarray:
    """Pseudorandom permutation along the last axis (deterministic per seed)."""
    values = np.asarray(values)
    return values[..., _permutation(seed, values.shape[-1])]


def _encode_streams(info: np.ndarray, cfg: TurboConfig):
    """The five frame streams of a (B, K) batch, each (B, length) int8."""
    trellis = _trellis(cfg.generators)
    parity1, tail_in, tail_par1 = trellis.encode(info, terminate=True)
    parity2, _, _ = trellis.encode(interleave(info, cfg.interleaver_seed), terminate=False)
    return info, parity1, parity2, tail_in, tail_par1


def turbo_encode(info, cfg: TurboConfig) -> CodedFrame:
    """Encode one block of ``cfg.block_length`` info bits."""
    info = np.asarray(info, dtype=np.int8)
    if info.size != cfg.block_length:
        raise ValueError(
            f"expected {cfg.block_length} info bits, got {info.size}"
        )
    streams = _encode_streams(info.reshape(1, -1), cfg)
    return CodedFrame(*(stream[0].copy() for stream in streams))


def turbo_encode_batch(info, cfg: TurboConfig) -> np.ndarray:
    """Encode a (B, K) batch of blocks to (B, 3K+6) bits in frame layout."""
    info = np.asarray(info, dtype=np.int8)
    if info.ndim != 2 or info.shape[1] != cfg.block_length:
        raise ValueError(
            f"expected (B, {cfg.block_length}) info bits, got shape {info.shape}"
        )
    return np.concatenate(_encode_streams(info, cfg), axis=1)


def coded_block_bits(cfg: TurboConfig) -> int:
    """Channel bits per block: 3*K plus the termination overhead."""
    trellis = _trellis(cfg.generators)
    return 3 * cfg.block_length + 2 * trellis.memory


def split_llrs(llrs: np.ndarray, cfg: TurboConfig):
    """Split flat channel LLRs (frame layout order) into the five streams."""
    k = cfg.block_length
    m = _trellis(cfg.generators).memory
    llrs = np.atleast_2d(np.asarray(llrs, dtype=float))
    if llrs.shape[-1] != 3 * k + 2 * m:
        raise ValueError(
            f"LLR frame has {llrs.shape[-1]} values, expected {3 * k + 2 * m}"
        )
    return (
        llrs[:, :k],
        llrs[:, k : 2 * k],
        llrs[:, 2 * k : 3 * k],
        llrs[:, 3 * k : 3 * k + m],
        llrs[:, 3 * k + m :],
    )


def _logsumexp_states(a: np.ndarray) -> np.ndarray:
    """log-sum-exp over the state axis of a (B, S) metric array."""
    peak = a.max(axis=1)
    return peak + np.log(np.exp(a - peak[:, None]).sum(axis=1))


def _bcjr(l_sys, l_par, l_apriori, trellis: RscTrellis, terminated: bool, max_log: bool):
    """Batched BCJR pass: posterior info-bit LLRs of shape (B, T).

    All inputs are (B, T).  ``terminated`` pins the backward recursion to
    state 0; otherwise it starts uniform.
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


# Half-metric clip of the probability-domain decoder.  Every branch factor
# lies in [exp(-4 C), 1], and from the third step on every nonzero scaled
# state metric lies in [exp(-12 C) / 64, 1], so the smallest product formed,
# alpha * parity factor * beta in the posterior, stays above
# exp(-26 C) / 4096: a normal double for C < 26.9.  An LLR past 2 C = 50
# means an error probability below 2e-22 either way.
#
# The windowed recursion keeps these bounds.  Phase 1 scales each unit-vector
# column to sum 1 at every step on its own, so its entries obey the same
# bound, and each step sum lies in [exp(-4 C), 2]: a half-window's log scale
# is a finite sum of finite logs (kept relative to its first column's, which
# cancels, so that the sums stay small and round finely).  A window's
# forward transfer is R_B^T R_A up to these scales, R_A and R_B its two half
# transfers; as R_A's columns sum to 1, each entry of the product is at
# least the smallest entry of R_B, exp(-12 C) / 64 once a half spans the
# memory (the default window count gives h >= 4).  The combine multiplies
# these entries by coefficients floored at exp(-WINDOW_FLOOR) of the
# largest, so its smallest product is exp(-WINDOW_FLOOR - 12 C) / 64, about
# exp(-604): normal (for the memory-4 codes of the tests, exp(-16 C) / 256
# gives about exp(-706), against the smallest normal double near exp(-708);
# there a term of R_B^T R_A itself can fall below it only for saturated
# LLRs, where it is negligible against the entry).  The floored
# coefficients scale R_A's columns, so the metric they give at the window's
# midpoint is the exact scaled metric plus at most S exp(-WINDOW_FLOOR) of
# its mass, and the next boundary row is that metric carried exactly
# through the second half, as the rows of phase 2 carry it.  That row is
# positive, so the next log is finite; the zeros of row 0 enter as
# log(tiny), never as log(0).  The addition moves a posterior sum by at
# most S exp(-WINDOW_FLOOR) of the pair's total, below rounding for any sum
# above exp(-260) of it: extrinsic LLRs up to about 260.
LOG_MAP_CLIP = 25.0
# Trellis steps per call of a one-window pass: the recursion past the kept
# rows and the posterior run SLAB steps at a time.  At B = 128, 16 steps
# take the same time as 64 with a quarter of the slab arrays.
SLAB = 16
# Measured at T = 1027, S = 8 on a noisy 2-vCPU host (medians of 41
# alternating passes, three runs), one window against 32: B = 1 10-15 /
# 1.8-2.3 ms, B = 4 9-17 / 3.9-6.0 ms, B = 8 9-17 / 6.9-9.4 ms, B = 16
# 11-19 / 15-18 ms.  Phase 1's arithmetic grows as S**2 T B, so windows run
# while B S**2 is at most this (32 windows now win at B = 8 too, but a
# larger bound would change the rounding of decodes of 5 to 8 blocks):
WINDOWED_COLUMNS = 256
WINDOW_FLOOR = 300.0


def _window_count(batch: int, steps: int, n_states: int) -> int:
    """Trellis windows W of a ``_log_map`` pass over ``steps`` steps of ``batch`` blocks.

    About sqrt(T) windows of about sqrt(T) steps, which balances the
    half-window steps of the two phases against the W - 1 steps of the
    combine; one window once the S unit vectors per block cost more than
    the T/2 steps of the sequential recursion save.
    """
    if batch * n_states ** 2 > WINDOWED_COLUMNS:
        return 1
    return max(1, math.isqrt(steps))


class _LogMapBuffers:
    """Work arrays of ``_log_map`` for up to ``max_steps`` steps of up to ``batch`` blocks.

    One batch decode makes all its constituent passes in the same arrays,
    so its working set is allocated and paged in once, not once per pass:
    the largest arrays (several MB at K = 1024, B = 128) would otherwise be
    mapped afresh by the allocator and page-faulted in by every pass.
    Every array is flat storage: the per-block arrays are viewed at the
    batch of the current pass (``set_batch``), so a decode whose batch
    shrinks keeps its arrays, and the windowed arrays are viewed by each
    pass in its own shape.  The arrays serve passes of up to
    ``max_windows`` windows (by default the most the window rule gives
    these blocks); with more than one, every row is kept.

    Per block, in doubles, over T steps and S states: the branch table 4 T,
    the parity factors 2 T and the extrinsic LLRs T.  With one window, the
    kept rows 2 S (T/2 + 1) and about 10 S ``SLAB`` in the slab arrays: at
    T = 1027 and S = 8, 133,928 bytes a block, half of them the kept rows,
    and 16.3 MiB for B = 128.  With more, all 2 S T rows, a posterior slab
    of (4 S + 2) T, and 2 S**2 + 14 S + 16 per row of the half-windows'
    span T/2 + 2 W: 1,652,184 bytes (1.6 MiB) for B = 1 and W = 32.
    """

    def __init__(self, batch: int, max_steps: int, n_states: int,
                 max_windows: int | None = None):
        if max_windows is None:
            max_windows = _window_count(batch, max_steps, n_states)
        self.max_windows = max_windows
        n_low = max_steps // 2 + 1 if max_windows == 1 else max_steps
        # One window: SLAB posterior steps per call.  More: one call over all
        # steps, since W windows of B blocks take as many calls as one window
        # of W * B blocks.
        slab = SLAB if max_windows == 1 else max_steps
        self._shapes = {
            "parity_factor": (max_steps, 2),
            "branch": (max_steps, 2, 2),
            "low": (n_low, 2, n_states),
            "buf": (SLAB + 1, 2, n_states),
            "extrinsic": (max_steps,),
            "paths": (slab, 2, n_states),
            "factors": (slab, 2, n_states),
            "sums": (slab, 2),
        }
        self._storage = {name: np.empty(math.prod(shape) * batch)
                         for name, shape in self._shapes.items()}
        self.batch = None
        self.set_batch(batch)
        # W windows of 2h steps, h = ceil(T / 2W), have (h + 1) W <= T/2 + 2W
        # rows per half; phase 2 runs twice as many columns as phase 1.
        span = (max_steps // 2 + 2 * max_windows) * batch if max_windows > 1 else 0
        self.window_branch = np.empty(16 * span)
        self.unit_rows = np.empty(2 * n_states ** 2 * span)
        self.scales = np.empty(2 * n_states * span)
        self.window_rows = np.empty(4 * n_states * span)
        self.gathered = np.empty(max(SLAB * 4 * n_states * batch, 8 * n_states * span))

    def set_batch(self, batch: int) -> None:
        """View the per-block arrays, batch last, for passes of ``batch`` blocks."""
        if batch != self.batch:
            for name, shape in self._shapes.items():
                setattr(self, name, _shaped(self._storage[name], *shape, batch))
            self.batch = batch


def _bit_factors(llr, out) -> None:
    """exp(+-h - |h|) for bit values 0 and 1 with h = llr / 2 clipped to C.

    ``llr`` is (B, T); ``out`` (T, 2, B) receives 1 for the likelier value
    and exp(-2|h|) for the other.  As h - |h| = 2 min(h, 0), the exponents
    are llr clipped to [-2C, 0] and -llr clipped to the same range.
    """
    bound = 2 * LOG_MAP_CLIP
    np.clip(llr.T, -bound, 0.0, out=out[:, 0])
    np.clip(llr.T, 0.0, bound, out=out[:, 1])
    np.negative(out[:, 1], out=out[:, 1])
    np.exp(out, out=out)


def _shaped(flat, *shape):
    """A C-contiguous ``shape`` view of the front of the flat buffer ``flat``."""
    return flat[:math.prod(shape)].reshape(shape)


def _advance(rows, branch, trellis: RscTrellis, first_step: int, gathered, scales=None) -> None:
    """Fill ``rows[1:]`` from ``rows[0]``, row i + 1 by step ``first_step + i``.

    A row holds (alpha_k, beta_{T-k}) over the states, beta's bit-reversed,
    so that step k -> k+1 runs the forward butterfly of trellis step k and
    the backward one of step T-1-k with the same views, then rescales both
    to sum 1.  ``branch`` holds rows 4t + 2*input + parity, its columns
    those of the last axis of ``rows``; ``rows`` may have one more axis
    before that one, across which the factors are shared.  ``gathered`` (a
    flat buffer) receives the factors of each step's butterflies, and
    ``scales``, if given, each step's state sums.
    """
    n_rows, _, n_states, *cols = rows.shape
    half = n_states // 2
    batch = branch.shape[1]
    inputs = rows.reshape(n_rows, 2, half, 2, *cols).swapaxes(2, 3)[:, :, :, None]
    outputs = rows.reshape(n_rows, 2, 2, half, *cols)
    k = np.arange(first_step, first_step + n_rows - 1)[:, None, None, None]
    last = branch.shape[0] // 4 - 1
    g = np.take(branch, 4 * np.stack([k, last - k], axis=1) + trellis.butterfly, axis=0,
                out=_shaped(gathered, n_rows - 1, 2, 2, 2, half, batch),
                mode="clip")  # [k, d, i, o, j, b]
    g = g.reshape(g.shape[:5] + (1,) * (len(cols) - 1) + (batch,))
    prod = np.empty((2, 2, 2, half, *cols))
    if scales is None:
        scales = np.empty((n_rows - 1, 2, 1, *cols))
    multiply, add, divide, add_reduce = np.multiply, np.add, np.divide, np.add.reduce
    for i, g_k in enumerate(g):
        multiply(g_k, inputs[i], out=prod)
        add(prod[:, 0], prod[:, 1], out=outputs[i + 1])
        nxt, total = rows[i + 1], scales[i]
        add_reduce(nxt, axis=1, keepdims=True, out=total)
        divide(nxt, total, out=nxt)


@lru_cache(maxsize=32)
def _half_windows(steps: int, windows: int):
    """(h, W, tail, index) of a pass over ``steps`` steps in about ``windows`` windows.

    W windows of 2h steps, h = ceil(T / 2 windows), the last one of ``tail``
    (1 to 2h) steps.  ``index`` (2h, 4, 2, W) gathers the half-windows' branch
    table from the pass's: window w's column c = 0 runs forward from its
    start and backward from its end, c = 1 both ways from start + h.  Rows
    4k + m of the first h steps hold the forward steps, so that
    ``_advance``'s backward index 2h - 1 - k reads the backward ones.  Steps
    past the end, only in half-windows whose rows are dropped, are clipped.
    """
    half = -(-steps // (2 * windows))
    windows = -(-steps // (2 * half))  # no window starts past the end
    start = 2 * half * np.arange(windows)
    end = np.minimum(start + 2 * half, steps)
    k = np.arange(2 * half)[:, None, None]
    step = np.where(k < half, np.stack([start, start + half]) + k,
                    np.stack([end, start + half]) - 2 * half + k)
    index = 4 * np.minimum(step, steps - 1)[:, None] + np.arange(4)[:, None, None]
    index.flags.writeable = False  # shared by every call
    return half, windows, int(steps - start[-1]), index


def _windowed_rows(low, branch, trellis: RscTrellis, windows: int, work: _LogMapBuffers) -> None:
    """Fill ``low[1:]`` from ``low[0]``, all T rows of a pass, in windows.

    The T steps are cut into W windows of 2h steps (``_half_windows``) that
    run side by side on the batch axis of ``_advance``.  Phase 1 pushes the
    S unit vectors forward through the first half of every window and
    backward through the second, h steps each, every column scaled on its
    own with its log scale kept; ``_window_starts`` combines them into the
    rows at every window's boundaries and midpoint, and phase 2 runs the 2W
    half-windows again from those rows.
    """
    steps, _, n_states, batch = low.shape
    half, windows, tail, index = _half_windows(steps, windows)
    cols = windows * batch
    table = np.take(branch, index, axis=0, out=_shaped(work.window_branch, *index.shape, batch))

    units = _shaped(work.unit_rows, half + 1, 2, n_states, n_states, cols)
    units[0] = trellis.units[..., None]  # column (n, w, b) starts in state n
    scales = _shaped(work.scales, half, 2, 1, n_states, cols)
    _advance(units, table[:, :, 0].reshape(8 * half, cols), trellis, 0, work.gathered, scales)
    rows = _shaped(work.window_rows, half + 1, 2, n_states, 2 * cols)
    _window_starts(units, scales, low[0], tail, trellis,
                   rows[0].reshape(2, n_states, 2, windows, batch))
    _advance(rows, table.reshape(8 * half, 2 * cols), trellis, 0, work.gathered)
    # Row r holds alpha_r and beta_{T-r}: alpha_r from forward row r - 2hw -
    # hc of half-window (w, c); beta_{T-r} from the last window's backward
    # rows for r < tail, and from window W - 2 - (r - tail) // 2h on.
    out = rows[:half].reshape(half, 2, n_states, 2, windows, batch).transpose(1, 4, 3, 0, 2, 5)
    low[:, 0] = out[0].reshape(2 * half * windows, n_states, batch)[:steps]
    low[tail:, 1] = out[1, -2::-1].reshape(steps - tail, n_states, batch)
    low[:min(tail, half), 1] = out[1, -1, 0, :tail]
    low[half:tail, 1] = out[1, -1, 1, 2 * half - tail:half]


def _window_starts(units, scales, row0, tail: int, trellis: RscTrellis, out) -> None:
    """Phase 2's first rows ``out[d, s, c, w, b]`` from phase 1's half transfers.

    ``units`` and ``scales`` are phase 1's rows and step sums, ``row0`` the
    pass's row 0 and ``tail`` the steps of its last window.  A backward
    transfer over some steps is the transpose of the forward one over them,
    so a window's forward transfer is the product of its two half transfers
    and its backward transfer the transpose of that.  The window boundaries
    (c = 0) are chained in order in the log domain, each coefficient floored
    at exp(-WINDOW_FLOOR) of the largest, and the midpoints (c = 1) read off
    the half transfers.  A last window shorter than 2h is split into
    min(tail, h) steps forward and the rest backward.
    """
    _, n_states, _, windows, batch = out.shape
    half = scales.shape[0]
    rev = trellis.bit_reversed
    # log_scales relative to the first column's: a constant per half-window
    # cancels below, and the differences sum to small, finely rounded values
    log_scales = np.log(scales)
    log_scales -= log_scales[:, :, :, :1]
    # halves[w, d, b, s, n] and log_scale[w, d, b, n]: window w's half
    # transfer from state n, times exp(log_scale), forward over its first
    # half (d = 0) and backward over its second (d = 1, bit-reversed rows)
    halves = units[half].reshape(2, n_states, n_states, windows, batch).transpose(3, 0, 4, 1, 2)
    halves = np.ascontiguousarray(halves)
    log_scale = log_scales.sum(axis=0).reshape(2, n_states, windows, batch).transpose(2, 0, 3, 1)
    if tail < 2 * half:
        split = [min(tail, half), tail - min(tail, half)]
        halves[-1] = units[split, [0, 1], ..., -batch:].transpose(0, 3, 1, 2)
        for d, n in enumerate(split):
            log_scale[-1, d] = log_scales[:n, d, 0, :, -batch:].sum(axis=0).T
    # product[w, b, n, u]: window w's forward transfer from u to n, divided
    # by exp(log_scale[w, 0, b, u] + log_scale[w, 1, b, n]).  Chain step i
    # runs window i forward and window W - 1 - i backward, both over natural
    # states, its input scaled by the right-hand log scale and its output by
    # the left-hand one; the last step's output is not used.
    product = np.matmul(halves[:, 1].swapaxes(-1, -2), halves[:, 0][:, :, rev])
    chain = np.stack([product, product[::-1].swapaxes(-1, -2)], axis=1)
    right = np.stack([log_scale[:, 0], log_scale[::-1, 1]], axis=1)[..., None]
    left = np.stack([log_scale[:-1, 1], log_scale[:0:-1, 0]], axis=1)[..., None]
    right[1:] += left

    # coef[i]: chain step i's input coefficients, floored; log_y[i] the log
    # of its output before the left-hand scale
    coef = np.empty((windows, 2, batch, n_states, 1))
    log_y = np.empty_like(coef)
    log_x = row0.transpose(0, 2, 1)[..., None].copy()
    log_x[1] = log_x[1][:, rev]
    np.log(np.maximum(log_x, np.finfo(float).tiny, out=log_x), out=log_x)
    for a, shift, matrix, y in zip(coef, right, chain, log_y):
        np.add(log_x, shift, out=a)
        a -= np.maximum.reduce(a, axis=-2, keepdims=True)
        np.exp(np.maximum(a, -WINDOW_FLOOR, out=a), out=a)
        log_x = np.log(np.matmul(matrix, a, out=y), out=y)
    bounds = np.add(log_y[:-1], left, out=log_y[:-1])[..., 0]
    bounds -= bounds.max(axis=-1, keepdims=True)
    np.exp(bounds, out=bounds)
    bounds /= bounds.sum(axis=-1, keepdims=True)
    mids = np.matmul(halves, np.stack([coef[:, 0], coef[::-1, 1]], axis=1))[..., 0]
    mids /= mids.sum(axis=-1, keepdims=True)

    out[:, :, 0, 0] = row0
    out[0, :, 0, 1:] = bounds[:, 0].transpose(2, 0, 1)
    out[1, :, 0, -1] = row0[1]
    out[1, :, 0, :-1] = bounds[::-1, 1].transpose(2, 0, 1)[rev]
    out[:, :, 1] = mids.transpose(1, 3, 0, 2)


def _extrinsic(alpha, beta_next, parity_factor, trellis: RscTrellis, out,
               work: _LogMapBuffers) -> None:
    """Extrinsic LLRs of L steps: log-ratio of the input-0 and input-1 sums.

    The sum for input x runs over alpha_t(s) * parity factor * beta_{t+1}(s')
    of the transitions s -> s' with input x; ``alpha`` is (L, S, B) over
    natural states, ``beta_next`` (L, S, B) over bit-reversed ones.
    """
    n = alpha.shape[0]
    paths = np.take(beta_next, trellis.bit_reversed[trellis.next_state], axis=1,
                    out=work.paths[:n], mode="clip")  # [t, x, s, b]
    paths *= alpha[:, None]
    paths *= np.take(parity_factor, trellis.parity, axis=1, out=work.factors[:n], mode="clip")
    q = np.add.reduce(paths, axis=2, out=work.sums[:n]).transpose(1, 0, 2)
    log_q = np.log(np.maximum(q, np.finfo(float).tiny, out=q), out=q)
    np.subtract(log_q[0], log_q[1], out=out)


def _log_map(l_sys, l_par, l_apriori, trellis: RscTrellis, terminated: bool,
             work: _LogMapBuffers | None = None, windows: int | None = None):
    """Exact log-MAP pass as a scaled probability-domain BCJR.

    Same contract as ``_bcjr``: (B, T) inputs, posterior info-bit LLRs of
    shape (B, T).  The branch factors are exponentiated once; the forward
    and backward recursions then only multiply and add (``_advance``), and
    one logarithm per bit gives the extrinsic part of the posterior.
    ``work`` holds the work arrays (new ones if not given).  The recursion
    runs in ``windows`` trellis windows, by default ``_window_count``'s.
    """
    batch, steps = l_sys.shape
    n_states = trellis.n_states
    if windows is None:
        windows = _window_count(batch, steps, n_states)
    if work is None:
        work = _LogMapBuffers(batch, steps, n_states, max_windows=windows)
    if windows > work.max_windows:
        raise ValueError(f"{windows} windows exceed the work arrays' {work.max_windows}")
    work.set_batch(batch)
    parity_factor = work.parity_factor[:steps]
    extrinsic = work.extrinsic[:steps]  # holds L_sys + L_a until the posterior
    # branch[t, x, p] = input factor of x * parity factor of p; the input
    # factors are made in the p = 1 column and multiplied out in place.
    branch = work.branch[:steps]
    _bit_factors(np.add(l_sys, l_apriori, out=extrinsic.T), branch[:, :, 1])
    _bit_factors(l_par, parity_factor)
    np.multiply(branch[:, :, 1], parity_factor[:, None, 0], out=branch[:, :, 0])
    branch[:, :, 1] *= parity_factor[:, None, 1]
    # (T * 4, B) rows 4t + 2*input + parity; the largest of each step is 1.
    branch = branch.reshape(steps * 4, batch)

    # Row k holds alpha_k and beta_{T-k}; step t's posterior reads alpha from
    # row t and beta_{t+1} from row T-1-t.  In one window rows 0..T//2 are
    # kept, the later ones are made slab by slab and used at once with their
    # partner rows; in more than one window all T rows are kept.
    n_low = steps // 2 + 1 if windows == 1 else steps
    low = work.low[:n_low]
    low[0] = 0.0
    low[0, 0, 0] = 1.0
    if terminated:
        low[0, 1, 0] = 1.0  # state 0 is its own bit reversal
    else:
        low[0, 1] = 1.0 / n_states
    if windows == 1:
        for k0 in range(0, n_low - 1, SLAB):
            _advance(low[k0:min(k0 + SLAB, n_low - 1) + 1], branch, trellis, k0, work.gathered)
    else:
        _windowed_rows(low, branch, trellis, windows, work)

    slab = work.paths.shape[0]
    for t0 in range(steps - n_low, n_low, slab):  # steps whose two rows are both kept
        t1 = min(t0 + slab, n_low)
        _extrinsic(low[t0:t1, 0], low[steps - t1:steps - t0, 1][::-1], parity_factor[t0:t1],
                   trellis, extrinsic[t0:t1], work)
    buf = work.buf
    buf[0] = low[-1]
    for r0 in range(n_low, steps, SLAB):
        r1 = min(r0 + SLAB, steps)
        rows = buf[:r1 - r0 + 1]
        _advance(rows, branch, trellis, r0 - 1, work.gathered)
        partner = low[steps - r1:steps - r0]  # rows T-1-r, r from r1-1 down to r0
        _extrinsic(rows[1:, 0], partner[::-1, 1], parity_factor[r0:r1],
                   trellis, extrinsic[r0:r1], work)
        _extrinsic(partner[:, 0], rows[:0:-1, 1], parity_factor[steps - r1:steps - r0],
                   trellis, extrinsic[steps - r1:steps - r0], work)
        buf[0] = rows[-1]
    return l_sys + l_apriori + extrinsic.T


def turbo_decode_batch(llrs, cfg: TurboConfig, iteration_trace: bool = False):
    """Iteratively decode a batch of blocks.

    ``llrs`` is (B, 3K+6) in frame layout order.  Returns (B, K) hard bits,
    or with ``iteration_trace`` a list of per-iteration hard-bit arrays:
    those of ``cfg.iterations`` full iterations (``_iterate``), bit for bit.
    A block stops iterating once decoder 1's a-priori LLRs repeat those of
    the iteration before (a fixed point) or the one before that (a 2-cycle);
    its later decisions repeat those already made.
    """
    trellis = _trellis(cfg.generators)
    l_sys, l_par1, l_par2, l_tail_sys, l_tail_par1 = split_llrs(llrs, cfg)
    batch, k = l_sys.shape
    if cfg.decoder == "max_log_map":
        siso = partial(_bcjr, max_log=True)
    else:
        # The window count of the whole batch serves every pass: W changes
        # the rounding, and a shrinking batch must not change W.
        steps = k + trellis.memory
        windows = _window_count(batch, steps, trellis.n_states)
        siso = partial(_log_map, windows=windows, work=_LogMapBuffers(
            batch, steps, trellis.n_states, max_windows=windows))
    perm = _permutation(cfg.interleaver_seed, k)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(k)

    # The per-block arrays hold the blocks still iterating, block ids[r] in row r.
    ids = np.arange(batch)
    sys1 = np.concatenate([l_sys, l_tail_sys], axis=1)
    par1 = np.concatenate([l_par1, l_tail_par1], axis=1)
    sys2, par2 = l_sys[:, perm], l_par2.copy()
    del llrs, l_sys, l_par1, l_par2, l_tail_sys, l_tail_par1  # a passed-on frame is freed
    # Decoder 1's a-priori LLRs of iterations i - 1 and i; iteration 1's are zero.
    before = apriori1 = np.zeros((batch, k + trellis.memory))
    hard = np.zeros((batch, k), dtype=bool)  # never chosen: no 2-cycle ends at iteration 1
    last = cfg.iterations
    first = 1 if iteration_trace else last  # the iterations whose decisions are returned
    out = np.empty((last - first + 1, batch, k), dtype=np.int8)
    for i in range(1, last + 1):
        post1 = siso(sys1, par1, apriori1, trellis, terminated=True)
        apriori2 = _extrinsic_part(post1[:, :k], sys1[:, :k], apriori1[:, :k])[:, perm]
        del post1  # freed before decoder 2 runs
        post2 = siso(sys2, par2, apriori2, trellis, terminated=False)
        hard, previous = (post2 < 0)[:, inv], hard
        if i >= first:
            out[i - first, ids] = hard
        if i == last:
            break
        after = np.zeros_like(apriori1)
        after[:, perm] = _extrinsic_part(post2, sys2, apriori2)  # deinterleaved, no temporary
        del post2, apriori2  # freed before decoder 1 runs

        # Compared bitwise: the passes of iteration i + 1 then repeat those
        # of iteration i (a fixed point) or of iteration i - 1 (a 2-cycle).
        fixed = (after.view(np.int64) == apriori1.view(np.int64)).all(axis=1)
        cycle = (after.view(np.int64) == before.view(np.int64)).all(axis=1)
        before, apriori1 = apriori1, after
        stay = ~(fixed | cycle)
        if batch > 1 and np.count_nonzero(stay) == 1:
            # A pass over one column sums the states in another order, so
            # one block that would leave iterates on beside the last one.
            stay[np.argmin(stay)] = True
        if stay.all():
            continue
        done = ~stay
        # Iteration j > i repeats iteration i, except that in a 2-cycle an
        # odd j - i repeats iteration i - 1.
        odd = np.where((cycle & ~fixed)[done, None], previous[done], hard[done])
        for j in range(max(i + 1, first), last + 1):
            out[j - first, ids[done]] = odd if (j - i) % 2 else hard[done]
        if not stay.any():
            break
        # one statement per array: each old array is freed before the next copy
        ids = ids[stay]
        sys1 = sys1[stay]
        par1 = par1[stay]
        sys2 = sys2[stay]
        par2 = par2[stay]
        before = before[stay]
        apriori1 = apriori1[stay]
        hard = hard[stay]
    return list(out) if iteration_trace else out[0]


def _extrinsic_part(post, l_in, l_apriori):
    """``post - l_in - l_apriori``, computed in the posterior's own array."""
    post -= l_in
    post -= l_apriori
    return post


def _iterate(llrs, cfg: TurboConfig, siso, iteration_trace: bool = False):
    """Turbo iterations with ``siso`` as the constituent decoder.

    ``siso(l_sys, l_par, l_apriori, trellis, terminated)`` returns posterior
    LLRs; the iterations exchange their extrinsic parts.
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


def turbo_decode(llrs, cfg: TurboConfig) -> np.ndarray:
    """Decode a single block of channel LLRs to hard info bits."""
    arr = llrs if isinstance(llrs, np.ndarray) else np.asarray(llrs, dtype=float)
    return turbo_decode_batch(arr.reshape(1, -1), cfg)[0]
