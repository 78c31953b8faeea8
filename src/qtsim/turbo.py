"""Rate-1/3 parallel-concatenated convolutional (turbo) codec.

Constituent code: recursive systematic convolutional encoder with octal
generators (13, 15) - feedback 13, feedforward 15, memory 3, 8 states.
Encoder 1 runs on natural-order bits and is terminated to the zero state
with 3 tail steps; encoder 2 runs on pseudorandomly interleaved bits and is
left unterminated.

Frame layout (bit-exact; ``turbo_encode_batch`` writes it and ``split_llrs``
reads it, and ``turbo_encode`` returns one row of it):

    systematic[K] || parity1[K] || parity2[K] || tail_sys[3] || tail_par1[3]

so a block carries exactly 3*K + 6 channel bits, one plain int8 array.

Decoding is iterative BCJR with extrinsic exchange between the two
constituent decoders.  LLR convention throughout: positive favors bit 0.

- Both decoders run one constituent kernel, ``_log_map``: the BCJR
  recursion of Bahl et al. in the probability domain, scaled to sum 1 at
  every step.  The branch factors are exponentiated once per half-iteration
  from half-metrics clipped to +-``LOG_MAP_CLIP``, which keeps every factor,
  product and scale a normal double for any input; the forward and backward
  recursions then only multiply and merge, and one logarithm per bit gives
  the extrinsic LLR.  Exact log-MAP merges by sum; max-log is the same
  recursion in the (max, x) semiring (Robertson, Villebrun & Hoeher, ICC
  1995), so it merges by maximum and keeps the state sum as its scale, which
  cancels in the LLR.  The LLRs of both agree with the log-domain recursion
  of the tests wherever they lie below the clip, and their decisions
  matched it on every test corpus.
- A log-MAP pass of few blocks (``_window_count``: B <= 4 for the 8-state
  code) runs its T steps as W ~ sqrt(T) windows of 2h steps side by side on
  the batch axis, as in the parallel-scan form of Sarkka & Garcia-Fernandez
  (arXiv:1905.13002).  Phase 1 pushes the S unit vectors forward through
  the first half of every window and backward through the second, each
  column scaled on its own with its log scale kept.  The backward transfer
  over a range of steps is the transpose of the forward one (Bahl et al.),
  so a window's two half transfers multiply to its forward transfer, whose
  transpose is its backward one.  The W - 1 window boundaries are chained
  in order in the log domain, each coefficient floored at
  exp(-``WINDOW_FLOOR``) of the largest, the midpoints follow from the half
  transfers, and phase 2 runs the 2W half-windows again from these rows.
  The posterior is formed where phase 2 leaves them: the alpha of each
  half-window's forward rows meets the next step's beta in the backward
  rows of its partner, read last first, with the products and the order of
  the state sums of the one-window kernel, and only the T extrinsic LLRs
  are written in step order.
  A step costs numpy call overhead, not arithmetic, at small B, so two
  phases of h ~ sqrt(T)/2 steps of W B (then 2 W B) columns beat T/2 steps
  of B columns.  Its LLRs equal the one-window recursion's to rounding
  (rtol 1e-12 in the tests); with one window the recursion is the
  sequential one.  The combine is a (+, x) matrix product, so a max-log
  pass always runs one window.

``turbo_decode_batch`` returns the decisions of ``cfg.iterations`` full
iterations, but a block stops iterating once they are known.  Decoder 1's
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
of it the kept rows: 16.4 MiB for a 128-block sweep chunk.  A windowed pass
keeps the S unit vectors of every window over half of it and phase 2's rows
over the other half, and forms its posterior in arrays that the phases have
spent: 1.5 MiB (1,553,432 bytes) for one block.  The same arrays lend every
scratch array of a pass (the butterfly products and step sums of
``_advance``; the transfers, chain, shifts, coefficients and running maxima
of ``_window_starts``), and every gather reads its rows in place, so a pass
allocates nothing that grows with it but the posterior it returns.  The
index arrays of a pass depend only on the code and the pass length, so they
are built once per process and shared read-only: the butterfly gather index
(``_butterfly_index``, 4 S per step: 263 KB at T = 1027, S = 8), the beta
gather index of the one-window posterior (``_beta_index``, from
``RscTrellis.next_reversed``), the half-window index (``_half_windows``)
and the gather indices of the windowed posterior (``_window_paths``).
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
        # The trellis reads the feedforward taps over the feedback's bits,
        # so a longer feedforward would lose its top taps without a word.
        feedback, feedforward = self.generators
        if feedback < 2 or not 0 < feedforward < 1 << feedback.bit_length():
            raise ValueError(
                f"generators need feedback >= 2 and 0 < feedforward with no more "
                f"bits than the feedback, got {self.generators}"
            )
        if self.interleaver_seed < 0:
            raise ValueError(f"interleaver_seed must be >= 0, got {self.interleaver_seed}")


class RscTrellis:
    """Transition tables for one recursive systematic convolutional code."""

    def __init__(self, feedback: int = 0o13, feedforward: int = 0o15):
        length = feedback.bit_length()
        self.memory = length - 1
        self.n_states = 1 << self.memory
        fb = [(feedback >> (length - 1 - i)) & 1 for i in range(length)]
        ff = [(feedforward >> (length - 1 - i)) & 1 for i in range(length)]

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
        # over natural states.  butterfly[i, d, o, j] is the branch index of
        # output o from input i in direction d (0 forward, 1 backward).
        self.bit_reversed = np.array(
            [int(format(s, f"0{self.memory}b")[::-1], 2) for s in range(self.n_states)]
        )
        backward = forward[:, :, self.bit_reversed[:half] // 2].transpose(1, 0, 2)
        self.butterfly = np.stack([forward, backward], axis=1).astype(np.intp)
        # next_reversed[x, s]: the bit-reversed row of next_state[x, s], where
        # the extrinsic reads beta; shared by every pass, so read-only
        self.next_reversed = self.bit_reversed[self.next_state]
        self.next_reversed.flags.writeable = False
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


def turbo_encode_batch(info, cfg: TurboConfig) -> np.ndarray:
    """Encode a (B, K) batch of blocks to (B, 3K+6) bits in frame layout."""
    info = np.asarray(info, dtype=np.int8)
    if info.ndim != 2 or info.shape[1] != cfg.block_length:
        raise ValueError(
            f"expected (B, {cfg.block_length}) info bits, got shape {info.shape}"
        )
    return np.concatenate(_encode_streams(info, cfg), axis=1)


def turbo_encode(info, cfg: TurboConfig) -> np.ndarray:
    """Encode one block of ``cfg.block_length`` info bits to 3K+6 bits in frame layout."""
    return turbo_encode_batch(np.asarray(info)[None], cfg)[0]


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


# Half-metric clip of the probability-domain decoder.  Every branch factor
# lies in [exp(-4 C), 1], and from the third step on every nonzero scaled
# state metric lies in [exp(-12 C) / 64, 1], so the smallest product formed,
# alpha * parity factor * beta in the posterior, stays above
# exp(-26 C) / 4096: a normal double for C < 26.9.  An LLR past 2 C = 50
# means an error probability below 2e-22 either way.
#
# The max merge of max-log keeps these bounds.  The maximum of two products
# is at least each of them and at least half their sum, so a step's state
# sum before scaling lies between half the sum merge's and the sum merge's,
# within [exp(-4 C) / 2, 2], and the largest scaled metric is still at least
# 1/S.  So every nonzero scaled metric from the third step on again lies in
# [exp(-12 C) / 64, 1], and every posterior maximum is at least the smallest
# product, exp(-26 C) / 4096.  On inputs within the clip, max-log LLRs equal
# those of the log-domain max-log recursion to rounding (rtol 1e-9 in the
# tests, where they lie below 2 C); that recursion clips nothing, so a
# clipped input can move them.
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
# The floor of every logarithm of a merge or a metric: log(0) never occurs.
_TINY = np.finfo(float).tiny


def _window_count(batch: int, steps: int, n_states: int, merge=np.add) -> int:
    """Trellis windows W of a ``_log_map`` pass over ``steps`` steps of ``batch`` blocks.

    About sqrt(T) windows of about sqrt(T) steps, which balances the
    half-window steps of the two phases against the W - 1 steps of the
    combine; one window once the S unit vectors per block cost more than
    the T/2 steps of the sequential recursion save.  The combine is a
    (+, x) matrix product, so a max-log pass (``merge=np.maximum``) runs one.
    """
    if merge is not np.add or batch * n_states ** 2 > WINDOWED_COLUMNS:
        return 1
    return max(1, math.isqrt(steps))


class _LogMapBuffers:
    """Work arrays of ``_log_map`` for up to ``max_steps`` steps of up to ``batch`` blocks.

    One batch decode makes all its constituent passes in the same arrays,
    so its working set is allocated and paged in once, not once per pass:
    the largest arrays (several MB at K = 1024, B = 128) would otherwise be
    mapped afresh by the allocator and page-faulted in by every pass, and
    the many small ones of a pass of few blocks would cost more call
    overhead than arithmetic.  A pass allocates nothing that grows with it
    but its posterior.
    Every array is flat, and ``carve`` is the one way a pass views one, in
    its own shape with the batch last: so a decode whose batch shrinks
    keeps its arrays.  The arrays serve passes of up to
    ``max_windows`` windows (by default the most the window rule gives
    these blocks), and one-window passes (max-log) in any of them.

    Per block, in doubles, over T steps and S states: the branch table 4 T,
    the parity factors 2 T and the extrinsic LLRs T; the kept rows of a
    one-window pass 2 S (T/2 + 1), about 10 S ``SLAB`` in its slab arrays,
    and ``_advance``'s butterfly products 4 S and step sums 2 ``SLAB``: at
    T = 1027 and S = 8, 134,440 bytes a block, half of them the kept rows,
    and 16.4 MiB for B = 128.  A windowed pass reads row 0 of the kept rows
    and needs, per row of the half-windows' span T/2 + 2 W,
    2 S**2 + 14 S + 30 (the half-windows' branch table and the copy of its
    phase-1 half, their rows, scales and gathered factors, phase 2's step
    sums, and the log-scale column of ``_window_starts``), and per window
    9 S**2 + 14 S + 4 (phase 1's products, and the transfers, chain, shifts,
    coefficients and running maxima of ``_window_starts``, ``combine``).
    Its posterior takes its gathered betas, alphas, factors, products and
    sums from these arrays once the phases have spent them: 1,553,432 bytes
    (1.5 MiB) for B = 1 and W = 32.  The index arrays of a pass are not
    here: they depend only on the code and the pass length, and are built
    once per process (``_butterfly_index``, ``_beta_index``,
    ``_half_windows``, ``_window_paths``).
    """

    def __init__(self, batch: int, max_steps: int, n_states: int,
                 max_windows: int | None = None):
        if max_windows is None:
            max_windows = _window_count(batch, max_steps, n_states)
        self.max_windows = max_windows
        self.parity_factor = np.empty(2 * max_steps * batch)
        self.branch = np.empty(4 * max_steps * batch)
        self.extrinsic = np.empty(max_steps * batch)
        # the kept rows and the slab arrays of a one-window pass; a windowed
        # pass reads row 0 of ``low`` and lends the rest from the arrays below
        self.low = np.empty((max_steps // 2 + 1) * 2 * n_states * batch)
        self.buf = np.empty((SLAB + 1) * 2 * n_states * batch)
        self.paths = np.empty(SLAB * 2 * n_states * batch)
        self.factors = np.empty(SLAB * 2 * n_states * batch)
        self.sums = np.empty(SLAB * 2 * batch)
        self._views = {}
        # W windows of 2h steps, h = ceil(T / 2W), have (h + 1) W <= T/2 + 2W
        # rows per half; phase 2 runs twice as many columns as phase 1, and
        # phase 1 S columns per window and block.
        windowed = max_windows > 1
        span = (max_steps // 2 + 2 * max_windows) * batch if windowed else 0
        per_window = max_windows * batch if windowed else 0
        self.window_branch = np.empty(24 * span)
        self.unit_rows = np.empty(2 * n_states ** 2 * span)
        self.scales = np.empty(2 * n_states * span)
        self.window_rows = np.empty(4 * n_states * span)
        self.gathered = np.empty(max(SLAB * 4 * n_states * batch, 8 * n_states * span))
        self.products = np.empty(4 * n_states * max(batch, n_states * per_window))
        self.step_sums = np.empty(max(2 * SLAB * batch, 4 * span))
        self.combine = np.empty((5 * n_states ** 2 + 14 * n_states + 4) * per_window
                                + (2 * n_states * batch + 2 * span if windowed else 0))

    def carve(self, name: str, *shapes) -> list[np.ndarray]:
        """C-contiguous views of ``shapes``, one after another from the front of
        the flat array ``name``: made at the first pass of these shapes, then kept.
        """
        def views():
            out, start = [], 0
            for shape in shapes:
                size = math.prod(shape)
                out.append(getattr(self, name)[start:start + size].reshape(shape))
                start += size
            return out
        return self.kept((name, shapes), views)

    def kept(self, key, make):
        """``make()``, made at the first call with ``key`` and then kept.

        For views of these arrays that a pass would otherwise make afresh
        at every step; ``key`` must fix every place and shape they view.
        """
        value = self._views.get(key)
        if value is None:
            value = self._views[key] = make()
        return value


def _bit_factors(llr, out) -> None:
    """exp(+-h - |h|) for bit values 0 and 1 with h = llr / 2 clipped to C.

    ``llr`` is (B, T); ``out`` (T, 2, B) receives 1 for the likelier value
    and exp(-2|h|) for the other.  As h - |h| = 2 min(h, 0), the exponents
    are llr clipped to [-2C, 0] and -llr clipped to the same range.
    """
    bound = 2 * LOG_MAP_CLIP
    # the method, not np.clip, whose wrapper costs more than a B = 1 pass's
    # arithmetic; np.maximum and np.minimum would cost two more passes
    llr.T.clip(-bound, 0.0, out=out[:, 0])
    llr.T.clip(0.0, bound, out=out[:, 1])
    np.negative(out[:, 1], out=out[:, 1])
    np.exp(out, out=out)


@lru_cache(maxsize=32)
def _butterfly_index(trellis: RscTrellis, steps: int) -> np.ndarray:
    """(T, 2, 2, 2, S/2) branch-table rows of the butterflies of a pass over T steps.

    ``[k, i, d, o, j]`` is the row of the factor from input i to output o of
    butterfly j in direction d of step k: forward trellis step k, backward
    step T - 1 - k.  Input-major, so that each step's products of input 0
    and of input 1 are contiguous halves.  Shared by every call, so read-only.
    """
    k = np.arange(steps)[:, None, None, None, None]
    index = 4 * np.concatenate([k, steps - 1 - k], axis=2) + trellis.butterfly
    index.flags.writeable = False
    return index


def _advance(rows, branch, trellis: RscTrellis, first_step: int, work: _LogMapBuffers,
             scales=None, merge=np.add, key=None) -> None:
    """Fill ``rows[1:]`` from ``rows[0]``, row i + 1 by step ``first_step + i``.

    A row holds (alpha_k, beta_{T-k}) over the states, beta's bit-reversed,
    so that step k -> k+1 runs the forward butterfly of trellis step k and
    the backward one of step T-1-k with the same views, merging each state's
    two branch products with ``merge`` (``np.add``, or ``np.maximum`` for
    max-log), then rescales both to sum 1.  ``branch`` holds rows
    4t + 2*input + parity, its columns those of the last axis of ``rows``;
    ``rows`` may have one more axis before that one, across which the
    factors are shared.  ``work`` lends the factors of each step's
    butterflies and their products, and the step sums, which ``scales``
    receives instead if given.  A caller whose ``rows`` and ``scales`` lie
    where their shapes put them in ``work`` (the phases of a windowed pass)
    names them by ``key``, and the views of every step are kept there.
    """
    n_rows, _, n_states, *cols = rows.shape
    batch = branch.shape[1]
    index = _butterfly_index(trellis, branch.shape[0] // 4)[first_step:first_step + n_rows - 1]
    (g,) = work.carve("gathered", (*index.shape, batch))
    branch.take(index, axis=0, out=g, mode="clip")  # [k, i, d, o, j, b]
    if scales is None:
        (scales,) = work.carve("step_sums", (n_rows - 1, 2, 1, *cols))
    make = partial(_step_views, rows, g, scales)
    steps = make() if key is None else work.kept((key, rows.shape, batch), make)
    (prod,) = work.carve("products", (2, 2, 2, n_states // 2, *cols))
    prod_0, prod_1 = prod.reshape(2, 2, n_states, *cols)  # the merge writes rows
    multiply, divide, add_reduce = np.multiply, np.divide, np.add.reduce
    for g_k, x, nxt, total in steps:
        multiply(g_k, x, out=prod)
        merge(prod_0, prod_1, out=nxt)
        add_reduce(nxt, axis=1, keepdims=True, out=total)
        divide(nxt, total, out=nxt)


def _step_views(rows, gathered, scales) -> list:
    """(butterfly factors, butterfly inputs, next row, its sum) of each step of ``_advance``."""
    n_rows, _, n_states, *cols = rows.shape
    half = n_states // 2
    # [k, i, d, 1, j, ...]: the state 2j + i of direction d in row k
    inputs = rows.reshape(n_rows, 2, half, 2, *cols).swapaxes(1, 3).swapaxes(2, 3)[:, :, :, None]
    factors = gathered.reshape(gathered.shape[:5] + (1,) * (len(cols) - 1) + gathered.shape[5:])
    return list(zip(factors, inputs, rows[1:], scales))


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


def _windowed_rows(row0, branch, trellis: RscTrellis, windows: int, work: _LogMapBuffers):
    """Phase 2's rows (h + 1, 2, S, 2 W B) of a pass from its row 0 ``row0``, in windows.

    The T steps are cut into W windows of 2h steps (``_half_windows``) that
    run side by side on the batch axis of ``_advance``.  Phase 1 pushes the
    S unit vectors forward through the first half of every window and
    backward through the second, h steps each, every column scaled on its
    own with its log scale kept; ``_window_starts`` combines them into the
    rows at every window's boundaries and midpoint, and phase 2 runs the 2W
    half-windows again from those rows.  Column (c, w, b) of row k holds
    alpha_{2hw + hc + k} and the beta k steps before step 2hw + 2h - hc (T
    for c = 0 of the last window): half-window (w, c) runs forward from its
    first step and backward from its partner's last.  ``_windowed_extrinsic``
    pairs them; the rows are views of ``work.window_rows``.
    """
    n_states, batch = row0.shape[1:]
    steps = branch.shape[0] // 4
    half, windows, tail, index = _half_windows(steps, windows)
    cols = windows * batch
    table, first = work.carve("window_branch", (*index.shape, batch),
                              (2 * half, 4, windows, batch))
    branch.take(index, axis=0, out=table)
    np.copyto(first, table[:, :, 0])  # phase 1 runs the c = 0 half-windows

    (units,) = work.carve("unit_rows", (half + 1, 2, n_states, n_states, cols))
    units[0] = trellis.units[..., None]  # column (n, w, b) starts in state n
    (scales,) = work.carve("scales", (half, 2, 1, n_states, cols))
    _advance(units, first.reshape(8 * half, cols), trellis, 0, work, scales, key="phase 1")
    (rows,) = work.carve("window_rows", (half + 1, 2, n_states, 2 * cols))
    _window_starts(units, scales, row0, tail, trellis,
                   rows[0].reshape(2, n_states, 2, windows, batch), work)
    _advance(rows, table.reshape(8 * half, 2 * cols), trellis, 0, work, key="phase 2")
    return rows


def _window_starts(units, scales, row0, tail: int, trellis: RscTrellis, out,
                   work: _LogMapBuffers) -> None:
    """Phase 2's first rows ``out[d, s, c, w, b]`` from phase 1's half transfers.

    ``units`` and ``scales`` are phase 1's rows and step sums (the sums are
    spent: their logarithms replace them), ``row0`` the pass's row 0 and
    ``tail`` the steps of its last window.  A backward transfer over some
    steps is the transpose of the forward one over them, so a window's
    forward transfer is the product of its two half transfers and its
    backward transfer the transpose of that.  The window boundaries (c = 0)
    are chained in order in the log domain, each coefficient floored at
    exp(-WINDOW_FLOOR) of the largest, and the midpoints (c = 1) read off
    the half transfers.  A last window shorter than 2h is split into
    min(tail, h) steps forward and the rest backward.  Its scratch arrays
    are views of ``work.combine``.
    """
    _, n_states, _, windows, batch = out.shape
    half = scales.shape[0]
    rev = trellis.bit_reversed
    vec, mat = (batch, n_states, 1), (batch, n_states, n_states)
    (column, log_sum, halves, flipped, chain, right, left, coef, log_y, mid_in, mids, log_x,
     peaks, mid_sums) = work.carve(
        "combine", (half, 2, 1, 1, windows * batch), (2, 1, n_states, windows * batch),
        (2, windows, *mat), (windows, *mat), (windows, 2, *mat), (windows, 2, *vec),
        (windows - 1, 2, *vec), (windows, 2, *vec), (windows, 2, *vec), (2, windows, *vec),
        (2, windows, *vec), (2, *vec), (windows, 2, batch, 1, 1), (2, windows, batch, 1))
    # log_scales relative to the first column's: a constant per half-window
    # cancels below, and the differences sum to small, finely rounded values
    # (the column is copied out first, as it is also overwritten)
    log_scales = np.log(scales, out=scales)
    np.copyto(column, log_scales[:, :, :, :1])
    log_scales -= column
    # halves[d, w, b, s, n] and log_scale[d, w, b, n]: window w's half
    # transfer from state n, times exp(log_scale), forward over its first
    # half (d = 0) and backward over its second (d = 1, bit-reversed rows)
    np.copyto(halves, units[half].reshape(2, n_states, n_states, windows, batch)
              .transpose(0, 3, 4, 1, 2))
    log_scale = np.add.reduce(log_scales, axis=0, out=log_sum).reshape(
        2, n_states, windows, batch).transpose(0, 2, 3, 1)
    if tail < 2 * half:
        for d, n in enumerate((min(tail, half), tail - min(tail, half))):
            halves[d, -1] = units[n, d, ..., -batch:].transpose(2, 0, 1)
            np.add.reduce(log_scales[:n, d, 0, :, -batch:], axis=0, out=log_scale[d, -1].T)
    # product[w, b, n, u]: window w's forward transfer from u to n, divided
    # by exp(log_scale[0, w, b, u] + log_scale[1, w, b, n]).  Chain step i
    # runs window i forward and window W - 1 - i backward, both over natural
    # states, its input scaled by the right-hand log scale and its output by
    # the left-hand one; the last step's output is not used.
    np.take(halves[0], rev, axis=2, out=flipped)
    product = np.matmul(halves[1].swapaxes(-1, -2), flipped, out=chain[:, 0])
    chain[:, 1] = product[::-1].swapaxes(-1, -2)
    right[:, 0, ..., 0] = log_scale[0]
    right[:, 1, ..., 0] = log_scale[1, ::-1]
    left[:, 0, ..., 0] = log_scale[1, :-1]
    left[:, 1, ..., 0] = log_scale[0, :0:-1]
    right[1:] += left

    # coef[i]: chain step i's input coefficients, floored; log_y[i] the log
    # of its output before the left-hand scale
    log_x[0, ..., 0] = row0[0].T
    log_x[1, :, rev, 0] = row0[1]  # bit reversal is its own inverse
    np.log(np.maximum(log_x, _TINY, out=log_x), out=log_x)
    links = work.kept(("chain", half, windows, batch, n_states), lambda: list(
        zip(coef, right, peaks, [*chain[:-1], None], log_y)))  # the last output is not read
    for a, shift, peak, matrix, y in links:
        np.add(log_x, shift, out=a)
        np.subtract(a, np.maximum.reduce(a, axis=-2, keepdims=True, out=peak), out=a)
        np.exp(np.maximum(a, -WINDOW_FLOOR, out=a), out=a)
        if matrix is not None:
            log_x = np.log(np.matmul(matrix, a, out=y), out=y)
    bounds = np.add(log_y[:-1], left, out=log_y[:-1])[..., 0]
    bound_sums = peaks[:-1, ..., 0]
    bounds -= np.maximum.reduce(bounds, axis=-1, keepdims=True, out=bound_sums)
    np.exp(bounds, out=bounds)
    bounds /= np.add.reduce(bounds, axis=-1, keepdims=True, out=bound_sums)
    mid_in[0] = coef[:, 0]
    mid_in[1] = coef[::-1, 1]
    mids = np.matmul(halves, mid_in, out=mids)[..., 0]
    mids /= np.add.reduce(mids, axis=-1, keepdims=True, out=mid_sums)

    out[:, :, 0, 0] = row0
    out[0, :, 0, 1:] = bounds[:, 0].transpose(2, 0, 1)
    out[1, :, 0, -1] = row0[1]
    out[1, rev, 0, :-1] = bounds[::-1, 1].transpose(2, 0, 1)
    out[:, :, 1] = mids.transpose(0, 3, 1, 2)


@lru_cache(maxsize=64)
def _beta_index(trellis: RscTrellis, steps: int) -> np.ndarray:
    """(L, 2, S) gather index of the betas that ``_extrinsic`` reads from L rows.

    ``[t, x, s]`` is the row of beta_{t+1} at the state that input x leads
    to from s, in L recursion rows (L, 2, S, B) viewed as (2 L S, B) and
    read last first: row L - 1 - t holds beta_{t+1}, over bit-reversed
    states.  Shared by every call, so read-only.
    """
    t = np.arange(steps)[:, None, None]
    index = (2 * (steps - 1 - t) + 1) * trellis.n_states + trellis.next_reversed
    index.flags.writeable = False
    return index


def _extrinsic(alpha, rows, parity_factor, trellis: RscTrellis, out,
               work: _LogMapBuffers, merge=np.add) -> None:
    """Extrinsic LLRs of L steps of a one-window pass: log-ratio of the input-0 and input-1 merges.

    The ``merge`` (sum, or maximum for max-log) for input x runs over
    alpha_t(s) * beta_{t+1}(s') * parity factor of the transitions s -> s'
    with input x, multiplied in that order; ``alpha`` is (L, S, B) over
    natural states, and ``rows`` (L, 2, S, B), C-contiguous, hold beta_{t+1}
    in row L - 1 - t (``_beta_index``), so that the gather reads them in
    place.  A windowed pass forms the same sums in its own layout
    (``_windowed_extrinsic``).
    """
    n, _, n_states, batch = rows.shape
    (paths,) = work.carve("paths", (n, 2, n_states, batch))
    (factors,) = work.carve("factors", (n, 2, n_states, batch))
    (sums,) = work.carve("sums", (n, 2, batch))
    rows.reshape(2 * n * n_states, batch).take(
        _beta_index(trellis, n), axis=0, out=paths, mode="clip")  # [t, x, s, b]
    paths *= alpha[:, None]
    paths *= parity_factor.take(trellis.parity, axis=1, out=factors, mode="clip")
    q = merge.reduce(paths, axis=2, out=sums).transpose(1, 0, 2)
    log_q = np.log(np.maximum(q, _TINY, out=q), out=q)
    np.subtract(log_q[0], log_q[1], out=out)


@lru_cache(maxsize=32)
def _window_paths(trellis: RscTrellis, steps: int, windows: int):
    """(partner, time, step) gather indices of a windowed pass's extrinsic LLRs.

    Position (k, c, w) of phase 2's half-window layout (``_windowed_rows``)
    is step t = 2hw + hc + k, whose alpha is forward row k of half-window
    (w, c).  ``partner`` (S, h, 2, W) is the row of beta_{t+1} over state
    s, ``[s, k, c, w]``, in the rows viewed as (-1, B): backward row
    h - 1 - k of half-window (w, 1 - c), read last first.  A last window
    shorter than 2h runs back from T in its c = 0 half, whose rows give the
    betas of its last h steps.  ``time`` (h, 2, W) is step t, and ``step``
    (T,) the position of step t in the (h, 2, W) layout.  Positions past the
    last step read step T - 1 and row 0; their LLRs are made and never
    read.  Shared by every call, so read-only.
    """
    half, windows, tail, _ = _half_windows(steps, windows)
    k, c, w = np.ix_(range(half), (0, 1), range(windows))
    t = 2 * half * w + half * c + k  # (h, 2, W)
    back = steps - 1 - t  # beta_{t+1} is beta_{T - back}
    own = (w == windows - 1) & (back < half)
    row = np.where(own, back, half - 1 - k).clip(0)
    col = np.where(own, 0, 1 - c)
    states = np.arange(trellis.n_states)[:, None, None, None]
    partner = ((2 * row + 1) * trellis.n_states + states) * 2 * windows + col * windows + w
    time = np.minimum(t, steps - 1)
    step = np.empty(steps, dtype=np.intp)
    inside = t < steps
    step[t[inside]] = ((2 * k + c) * windows + w)[inside]
    for index in (partner, time, step):
        index.flags.writeable = False
    return partner, time, step


def _windowed_extrinsic(rows, parity_factor, trellis: RscTrellis, windows: int, out,
                        work: _LogMapBuffers) -> None:
    """Extrinsic LLRs ``out`` (T, B) of a windowed pass from phase 2's ``rows``.

    The posterior sums of ``_extrinsic``, alpha_t(s) * beta_{t+1}(s') times
    the parity factor, formed where phase 2 leaves its rows
    (``_window_paths``), with the states as the leading axis of every
    array: [x, s, k, c, w, b].  The betas of each position are gathered
    once, over all S states, and spread to the two inputs by the trellis's
    next states; the parity factors are gathered once per step and spread
    by its parity bits.  The products and the order of the state sums
    (``_state_sums``) are ``_extrinsic``'s, and only the T LLRs are written
    in step order.  Every array is a view of one that phase 2 has spent.
    """
    n_rows, _, n_states, cols = rows.shape
    steps, _, batch = parity_factor.shape
    partner, time, step = _window_paths(trellis, steps, windows)
    half, positions = time.shape[0], time.size
    shape = (2, n_states, half * cols)
    betas, alpha = work.carve("unit_rows", (*partner.shape, batch), (n_states, half, cols))
    paths, factors = work.carve("gathered", shape, shape)
    (spread,) = work.carve("scales", (2, *time.shape, batch))
    # rows as (-1, B), spelled out for B = 0
    rows.reshape(n_rows * 2 * n_states * positions // half, batch).take(
        partner, axis=0, out=betas, mode="clip")
    betas.reshape(shape[1:]).take(trellis.next_reversed, axis=0, out=paths, mode="clip")
    np.copyto(alpha, rows[:half, 0].swapaxes(0, 1))
    paths *= alpha.reshape(shape[1:])
    parity_factor.transpose(1, 0, 2).take(time, axis=1, out=spread, mode="clip")
    spread.reshape(2, half * cols).take(trellis.parity, axis=0, out=factors, mode="clip")
    paths *= factors
    log_q = _state_sums(paths, batch, work)
    np.log(np.maximum(log_q, _TINY, out=log_q), out=log_q)
    np.subtract(log_q[0], log_q[1], out=log_q[0])
    log_q[0].reshape(positions, batch).take(step, axis=0, out=out, mode="clip")


def _state_sums(paths, batch: int, work: _LogMapBuffers):
    """Sums (2, L) of ``paths`` (2, S, L) over the states, in ``_extrinsic``'s order.

    There the states are the middle axis of (L, 2, S, B), which numpy sums in
    sequence, except at B = 1, where they are the innermost: numpy sums an
    innermost axis of n >= 8 as eight partial sums r_j of a_j, a_{j+8}, ...
    and then ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), and a shorter
    one in sequence.  The sums are a view of ``work.step_sums``, the pairs
    and quadruples of that tree of ``work.window_branch``, both spent by
    phase 2.  Folding overwrites ``paths``.
    """
    _, n_states, length = paths.shape
    (sums,) = work.carve("step_sums", (2, length))
    if batch > 1 or n_states < 8:
        return np.add.reduce(paths, axis=1, out=sums)
    r = paths[:, :8]
    for i in range(8, n_states, 8):
        r += paths[:, i:i + 8]
    pairs, quads = work.carve("window_branch", (2, 4, length), (2, 2, length))
    np.add(r[:, 0::2], r[:, 1::2], out=pairs)
    np.add(pairs[:, 0::2], pairs[:, 1::2], out=quads)
    return np.add(quads[:, 0], quads[:, 1], out=sums)


def _log_map(l_sys, l_par, l_apriori, trellis: RscTrellis, terminated: bool,
             work: _LogMapBuffers | None = None, windows: int | None = None, merge=np.add):
    """Log-MAP (``merge=np.add``) or max-log (``np.maximum``) pass as a scaled BCJR.

    (B, T) inputs give posterior info-bit LLRs of shape (B, T).  The branch
    factors are exponentiated once; the forward and backward recursions then
    only multiply and merge (``_advance``), and one logarithm per bit gives
    the extrinsic part of the posterior.  ``work`` holds the work arrays
    (new ones if not given).  The recursion runs in ``windows`` trellis
    windows, by default ``_window_count``'s; max-log runs one, since the
    windowed combine sums.
    """
    batch, steps = l_sys.shape
    n_states = trellis.n_states
    if windows is None:
        windows = _window_count(batch, steps, n_states, merge)
    if windows > 1 and merge is not np.add:
        raise ValueError("only the log-MAP merge runs in windows")
    if work is None:
        work = _LogMapBuffers(batch, steps, n_states, max_windows=windows)
    if windows > work.max_windows:
        raise ValueError(f"{windows} windows exceed the work arrays' {work.max_windows}")
    (parity_factor,) = work.carve("parity_factor", (steps, 2, batch))
    # holds L_sys + L_a until the posterior
    (extrinsic,) = work.carve("extrinsic", (steps, batch))
    # branch[t, x, p] = input factor of x * parity factor of p; the input
    # factors are made in the p = 1 column and multiplied out in place.
    (branch,) = work.carve("branch", (steps, 2, 2, batch))
    _bit_factors(np.add(l_sys, l_apriori, out=extrinsic.T), branch[:, :, 1])
    _bit_factors(l_par, parity_factor)
    np.multiply(branch[:, :, 1], parity_factor[:, None, 0], out=branch[:, :, 0])
    branch[:, :, 1] *= parity_factor[:, None, 1]
    # (T * 4, B) rows 4t + 2*input + parity; the largest of each step is 1.
    branch = branch.reshape(steps * 4, batch)

    # Row k holds alpha_k and beta_{T-k}; step t's posterior reads alpha from
    # row t and beta_{t+1} from row T-1-t.  In one window rows 0..T//2 are
    # kept, the later ones are made slab by slab and used at once with their
    # partner rows; in more than one window the rows stay in phase 2's
    # half-window layout, where the posterior reads them.
    n_low = steps // 2 + 1
    (low,) = work.carve("low", (n_low, 2, n_states, batch))
    low[0] = 0.0
    low[0, 0, 0] = 1.0
    if terminated:
        low[0, 1, 0] = 1.0  # state 0 is its own bit reversal
    else:
        low[0, 1] = 1.0 / n_states
    if windows > 1:
        rows = _windowed_rows(low[0], branch, trellis, windows, work)
        _windowed_extrinsic(rows, parity_factor, trellis, windows, extrinsic, work)
    else:
        for k0 in range(0, n_low - 1, SLAB):
            _advance(low[k0:min(k0 + SLAB, n_low - 1) + 1], branch, trellis, k0, work,
                     merge=merge)
        for t0 in range(steps - n_low, n_low, SLAB):  # steps whose two rows are both kept
            t1 = min(t0 + SLAB, n_low)
            _extrinsic(low[t0:t1, 0], low[steps - t1:steps - t0], parity_factor[t0:t1],
                       trellis, extrinsic[t0:t1], work, merge)
        (buf,) = work.carve("buf", (SLAB + 1, 2, n_states, batch))
        buf[0] = low[-1]
        for r0 in range(n_low, steps, SLAB):
            r1 = min(r0 + SLAB, steps)
            rows = buf[:r1 - r0 + 1]
            _advance(rows, branch, trellis, r0 - 1, work, merge=merge)
            partner = low[steps - r1:steps - r0]  # rows T-1-r, r from r1-1 down to r0
            _extrinsic(rows[1:, 0], partner, parity_factor[r0:r1],
                       trellis, extrinsic[r0:r1], work, merge)
            _extrinsic(partner[:, 0], rows[1:], parity_factor[steps - r1:steps - r0],
                       trellis, extrinsic[steps - r1:steps - r0], work, merge)
            buf[0] = rows[-1]
    posterior = np.add(l_sys, l_apriori)
    posterior += extrinsic.T
    return posterior


def turbo_decode_batch(llrs, cfg: TurboConfig, iteration_trace: bool = False):
    """Iteratively decode a batch of blocks.

    ``llrs`` is (B, 3K+6) in frame layout order.  Returns (B, K) hard bits,
    or with ``iteration_trace`` a list of per-iteration hard-bit arrays:
    those of ``cfg.iterations`` full iterations, bit for bit.  Every pass of
    either decoder is a ``_log_map`` pass: ``cfg.decoder`` picks its merge,
    ``np.add`` for log-MAP and ``np.maximum`` for max-log, and max-log runs
    one window.  A block stops iterating once decoder 1's a-priori LLRs
    repeat those of the iteration before (a fixed point) or the one before
    that (a 2-cycle); its later decisions repeat those already made.
    """
    trellis = _trellis(cfg.generators)
    l_sys, l_par1, l_par2, l_tail_sys, l_tail_par1 = split_llrs(llrs, cfg)
    batch, k = l_sys.shape
    steps = k + trellis.memory
    merge = np.maximum if cfg.decoder == "max_log_map" else np.add
    # The window count of the whole batch serves every pass: W changes the
    # rounding, and a shrinking batch must not change W.
    windows = _window_count(batch, steps, trellis.n_states, merge)
    siso = partial(_log_map, windows=windows, merge=merge, work=_LogMapBuffers(
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


def turbo_decode(llrs, cfg: TurboConfig) -> np.ndarray:
    """Decode a single block of channel LLRs to hard info bits."""
    arr = llrs if isinstance(llrs, np.ndarray) else np.asarray(llrs, dtype=float)
    return turbo_decode_batch(arr.reshape(1, -1), cfg)[0]
