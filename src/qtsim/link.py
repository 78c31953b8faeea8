"""End-to-end classical bit transport: Turbo + QPSK over the Rician link.

Shared by the protocol orchestrator and the sweep engine.  Bits are padded
to whole turbo blocks with zeros (dropped again after decoding); the uncoded
path hard-slices matched-filter LLRs.  A frame of odd length, coded or
not, gets one zero pad bit for QPSK, whose LLR is dropped before slicing or
decoding.  ``bypass_ber`` replaces the physical chain with i.i.d. bit flips,
which isolates quantum-side behavior in tests.
A noiseless link (``snr_db=inf``) returns its input without running the
chain, which would return it too; the fading draws it skips are the rng's
last use in every caller (``tests/test_link.py`` pins this).
"""
from __future__ import annotations

import math

import numpy as np

from .cchannel import (
    RicianParams,
    llrs_to_bits,
    qpsk_demodulate_soft,
    qpsk_modulate,
    transmit,
)
from .turbo import TurboConfig, turbo_decode_batch, turbo_encode_batch


def send_bits(
    bits,
    rng,
    *,
    snr_db: float,
    rician: RicianParams,
    turbo_cfg: TurboConfig | None = None,
    bypass_ber: float | None = None,
    coherence: str = "per_symbol",
) -> np.ndarray:
    """Return the receiver's estimate of ``bits`` after the classical link."""
    bits = np.asarray(bits, dtype=np.int8)
    if bits.size == 0:
        return bits.copy()
    if bypass_ber is not None:
        flips = (rng.random(bits.size) < bypass_ber).astype(np.int8)
        return (bits ^ flips).astype(np.int8)
    if snr_db == math.inf:
        return bits.copy()
    if turbo_cfg is None:
        return llrs_to_bits(_channel_llrs(bits, rng, snr_db, rician, coherence))
    k = turbo_cfg.block_length
    n_blocks = max(1, math.ceil(bits.size / k))
    padded = np.zeros(n_blocks * k, dtype=np.int8)
    padded[: bits.size] = bits
    coded = turbo_encode_batch(padded.reshape(n_blocks, k), turbo_cfg).reshape(-1)
    # No name here holds the LLRs, so the decoder's working set does not sit
    # beside them: turbo_decode_batch frees them once it has copied the
    # streams it reads.
    decoded = turbo_decode_batch(
        _channel_llrs(coded, rng, snr_db, rician, coherence).reshape(n_blocks, -1), turbo_cfg
    ).reshape(-1)
    return decoded[: bits.size].astype(np.int8)


def _channel_llrs(bits, rng, snr_db, rician, coherence) -> np.ndarray:
    """One LLR per bit of ``bits`` after QPSK over the Rician link.

    QPSK carries two bits per symbol, so an odd count, coded or not, is sent
    with one zero bit appended, whose LLR is dropped here.
    """
    padded = np.append(bits, np.int8(0)) if bits.size % 2 else bits
    received = transmit(qpsk_modulate(padded, snr_db), rician, rng, coherence)
    return qpsk_demodulate_soft(received)[: bits.size]
