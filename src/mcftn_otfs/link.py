"""Symbol mapping, LMMSE weights and the BER confidence interval.

The receive vector is y = H P x + z with colored noise z, so the linear MMSE
estimate is

    x_hat = sigma_x^2 B^H (sigma_x^2 B B^H + R_z)^{-1} y,   B = H P,

followed by hard per-symbol decisions. The sweep in `montecarlo` runs that
chain on batches of frames, counts bit errors against the transmitted bits
and summarizes them with the Wilson 95% confidence interval given here.
"""

from __future__ import annotations

import numpy as np

from .core import ConfigError

CONSTELLATIONS = ("bpsk", "qpsk")
_WILSON_Z = 1.959963984540054   # two-sided 95%


def bits_per_symbol(constellation: str) -> int:
    if constellation == "bpsk":
        return 1
    if constellation == "qpsk":
        return 2
    raise ConfigError(f"unknown constellation {constellation!r}")


def map_bits(bits: np.ndarray, constellation: str, sigma_x2: float = 1.0) -> np.ndarray:
    """Bits to unit-ordered symbols with average energy sigma_x2.

    The leading axis is the bit axis; for QPSK consecutive bit pairs map
    Gray-coded to quadrants (even-index bit on the real rail).
    """
    bits = np.asarray(bits)
    if bits.ndim == 0 or np.any((bits != 0) & (bits != 1)):
        raise ConfigError("bits must be an array of 0/1 values")
    if constellation == "bpsk":
        return (1.0 - 2.0 * bits.astype(float)) * np.sqrt(sigma_x2)
    if constellation == "qpsk":
        if bits.shape[0] % 2:
            raise ConfigError("qpsk needs an even number of bits")
        re = 1.0 - 2.0 * bits[0::2].astype(float)
        im = 1.0 - 2.0 * bits[1::2].astype(float)
        return (re + 1j * im) * np.sqrt(sigma_x2 / 2.0)
    raise ConfigError(f"unknown constellation {constellation!r}")


def demap_symbols(x: np.ndarray, constellation: str) -> np.ndarray:
    """Hard decisions back to bits; zero estimates resolve to bit 0."""
    x = np.asarray(x)
    if constellation == "bpsk":
        return (x.real < 0.0).astype(np.int64)
    if constellation == "qpsk":
        out_shape = (2 * x.shape[0],) + x.shape[1:]
        out = np.empty(out_shape, dtype=np.int64)
        out[0::2] = x.real < 0.0
        out[1::2] = x.imag < 0.0
        return out
    raise ConfigError(f"unknown constellation {constellation!r}")


def mmse_weights(b: np.ndarray, rz: np.ndarray, sigma_x2: float) -> np.ndarray:
    """LMMSE matrix W with x_hat = W y for the model y = B x + z.

    Solves against S = sigma_x^2 B B^H + R_z; if S is singular (only
    possible with N0 = 0 and a rank-deficient channel) falls back to the
    pseudo inverse, which is the zero-forcing limit on the signal subspace.
    """
    s = sigma_x2 * (b @ b.conj().T) + rz
    try:
        return sigma_x2 * np.linalg.solve(s, b).conj().T
    except np.linalg.LinAlgError:
        return sigma_x2 * (b.conj().T @ np.linalg.pinv(s, hermitian=True))


def wilson_interval(errors: int, n: int, z: float = _WILSON_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ConfigError("interval needs at least one trial")
    p = errors / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return float(max(0.0, center - half)), float(min(1.0, center + half))
