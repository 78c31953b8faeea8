"""Classical link: QPSK over Rician fading with soft-output demodulation.

The fading coefficient is

    H = sqrt(p0/d^2) * ( sqrt(zeta/(zeta+1)) * H_los
                         + sqrt(1/(zeta+1)) * H_nlos )

with H_los = 1 and H_nlos circularly-symmetric complex Gaussian of unit
variance, so E[|H|^2] = p0/d^2 for every zeta.  zeta = 0 is pure Rayleigh
scatter; as zeta -> inf (zeta itself must be finite) the link tends to a
clean line of sight.  No LOS phase is kept: the receiver knows H and
filters by conj(H), and H_nlos is circularly symmetric, so a rotated LOS
term leaves the law of |H|^2 and conj(H)*n, and so of every LLR, unchanged.

SNR convention: ``snr_db`` is average received symbol energy over noise
spectral density, Es/N0, with Es measured at the modulator (unit-energy
constellation) and the average channel gain folded in.  Each QPSK branch
(I or Q) then sees a per-bit detection SNR of Es/N0.

Demodulation assumes perfect channel state information: matched filtering
by conj(H) followed by per-branch Gaussian LLRs.  LLR sign convention:
positive means bit 0 is more likely.

Each stage hands the next one value: ``qpsk_modulate`` a ``SymbolFrame``
(symbols and Es/N0), ``transmit`` a ``ReceivedFrame`` (samples, CSI and N0),
and ``qpsk_demodulate_soft`` a plain array of one LLR per bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class RicianParams:
    """Fading model parameters; defaults model a strong-LOS relay link."""

    p0: float = 1.0
    d: float = 1.0
    zeta: float = 10.0

    def __post_init__(self):
        if not (math.isfinite(self.p0) and self.p0 > 0):
            raise ValueError(f"p0 must be finite and positive, got {self.p0}")
        if not (math.isfinite(self.d) and self.d > 0):
            raise ValueError(f"d must be finite and positive, got {self.d}")
        if not (math.isfinite(self.zeta) and self.zeta >= 0):
            raise ValueError(f"zeta must be finite and >= 0, got {self.zeta}")

    @property
    def mean_power(self) -> float:
        """E[|H|^2] = p0 / d^2."""
        return self.p0 / self.d**2


@dataclass(frozen=True)
class SymbolFrame:
    """Unit-average-energy constellation points plus the link SNR."""

    symbols: np.ndarray
    snr_db: float

    def __post_init__(self):
        symbols = np.asarray(self.symbols, dtype=complex)
        if symbols.size == 0:
            raise ValueError("SymbolFrame must be nonempty")
        object.__setattr__(self, "symbols", symbols)


@dataclass(frozen=True)
class ReceivedFrame:
    """Channel output: received samples, realized fading, and noise variance.

    The demodulator's one input.  ``csi`` holds the fading coefficient of
    each sample; ``noise_var`` is the complex noise variance N0
    (per-component N0/2).
    """

    symbols: np.ndarray
    csi: np.ndarray
    noise_var: float


def qpsk_modulate(bits, snr_db: float = math.inf) -> SymbolFrame:
    """Gray-mapped QPSK: pair (b0, b1) -> ((1-2*b0) + i*(1-2*b1))/sqrt(2)."""
    bits = np.asarray(bits, dtype=np.int8)
    if bits.size % 2 != 0:
        raise ValueError(f"QPSK needs an even bit count, got {bits.size}")
    b0 = bits[0::2]
    b1 = bits[1::2]
    symbols = ((1.0 - 2.0 * b0) + 1j * (1.0 - 2.0 * b1)) / _SQRT2
    return SymbolFrame(symbols, snr_db)


def fading_coefficients(params: RicianParams, rng, n: int) -> np.ndarray:
    """Draw n i.i.d. Rician coefficients."""
    scale = math.sqrt(params.mean_power)
    los = math.sqrt(params.zeta / (params.zeta + 1.0))
    nlos_sd = math.sqrt(1.0 / (params.zeta + 1.0) / 2.0)
    nlos = nlos_sd * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return scale * (los + nlos)


# transmit's fading modes: one H per symbol, or one H held for the frame.
COHERENCE_MODES = ("per_symbol", "per_frame")
# Es/N0 beyond this many dB either way is refused (see noise_variance).
SNR_DB_LIMIT = 3000.0
# Largest mean gain p0/d^2, so that |H|^2 has the same headroom as the LLRs.
MAX_MEAN_POWER = 1e300


def noise_variance(params: RicianParams, snr_db: float) -> float:
    """The link's complex noise variance N0 at Es/N0 ``snr_db``, or ValueError.

    The one rule for which link inputs run; ``SweepSpec``, ``QsdcConfig``
    and ``transmit`` call it.  +inf is the noiseless link, N0 = 0.  Otherwise
    ``snr_db`` must lie within +-SNR_DB_LIMIT, so the linear SNR lies in
    [1e-300, 1e300] and an LLR, about 2 sqrt(2) SNR |H|^2 / E|H|^2, keeps a
    factor of about 1e8 to spare for fading peaks.  The mean gain p0/d^2
    must lie in (0, MAX_MEAN_POWER], and N0 and the LLR scale 2 sqrt(2)/N0
    must be finite and positive, which a tiny gain at a high Es/N0 or a
    large one at a low Es/N0 can miss.
    """
    try:
        mean_power = params.mean_power
    except ArithmeticError:  # d**2 overflows, or underflows to 0
        mean_power = math.inf
    if not 0.0 < mean_power <= MAX_MEAN_POWER:
        raise ValueError(
            f"mean gain p0/d^2 must lie in (0, {MAX_MEAN_POWER:g}], "
            f"got p0={params.p0}, d={params.d}"
        )
    if snr_db == math.inf:
        return 0.0
    if not abs(snr_db) <= SNR_DB_LIMIT:  # NaN, -inf and beyond the limit
        raise ValueError(
            f"snr_db must lie within +-{SNR_DB_LIMIT:g} dB or be +inf, got {snr_db}"
        )
    noise_var = mean_power / 10.0 ** (snr_db / 10.0)
    if not (0.0 < noise_var < math.inf and 2.0 * _SQRT2 / noise_var < math.inf):
        raise ValueError(
            f"snr_db = {snr_db} at mean gain {mean_power:g} gives noise variance "
            f"{noise_var:g}, outside the float range"
        )
    return noise_var


def transmit(
    frame: SymbolFrame,
    params: RicianParams,
    rng,
    coherence: str = "per_symbol",
) -> ReceivedFrame:
    """y_k = H_k * x_k + n_k with noise set by the frame's Es/N0.

    ``coherence`` 'per_symbol' draws an independent H per symbol;
    'per_frame' holds one H for the whole frame.  Es/N0 = +inf is a
    noiseless link; ``noise_variance`` refuses what cannot run.
    """
    noise_var = noise_variance(params, frame.snr_db)
    x = frame.symbols
    if coherence == "per_symbol":
        h = fading_coefficients(params, rng, x.size)
    elif coherence == "per_frame":
        h = np.full(x.size, fading_coefficients(params, rng, 1)[0])
    else:
        raise ValueError(f"unknown coherence mode {coherence!r}")
    y = h * x
    if noise_var > 0:
        y += math.sqrt(noise_var / 2.0) * (
            rng.normal(size=x.size) + 1j * rng.normal(size=x.size)
        )
    return ReceivedFrame(y, h, noise_var)


def qpsk_demodulate_soft(received: ReceivedFrame) -> np.ndarray:
    """Coherent per-bit LLRs from matched filtering with known CSI.

    Returns one LLR per bit in the modulator's order: [b0 of symbol 0, b1 of
    symbol 0, b0 of symbol 1, ...].  Positive favors bit 0.
    """
    symbols, csi, noise_var = received.symbols, received.csi, received.noise_var
    if csi.shape != symbols.shape:
        raise ValueError(f"csi length {csi.size} != symbol count {symbols.size}")
    # The noiseless link (N0 = 0) divides by a floor instead, so its LLRs are
    # finite, just huge; any positive N0 is used as it is, so the LLRs do not
    # depend on the mean gain p0/d^2 at a fixed Es/N0.
    scale = 2.0 * _SQRT2 / (noise_var if noise_var > 0 else 1e-12)
    z = np.conj(csi) * symbols
    llrs = np.empty(2 * symbols.size)
    llrs[0::2] = scale * z.real
    llrs[1::2] = scale * z.imag
    return llrs


def llrs_to_bits(llrs: np.ndarray) -> np.ndarray:
    """Hard decisions from LLRs (positive -> 0)."""
    return (llrs < 0).astype(np.int8)
