"""Symbol mapping, LMMSE weights and the BER confidence interval.

For a receive vector y = B x + z with noise covariance R_z the linear MMSE
estimate is

    x_hat = sigma_x^2 B^H (sigma_x^2 B B^H + R_z)^{-1} y,

followed by hard per-symbol decisions. The sweep in `montecarlo` receives on
the whitened channel the designs solved, y = D P x + sqrt(N0) w, so there
B = D P on its live columns and R_z = N0 I. It runs that chain in real
arithmetic on blocks of frames, counts bit errors against the bool bits and
summarizes them with the Wilson 95% confidence interval given here.
"""

from __future__ import annotations

import numpy as np

from .core import ConfigError, is_integer

# bits per symbol; bit j of a symbol drives rail j (real, then imaginary)
_BITS_PER_SYMBOL = {"bpsk": 1, "qpsk": 2}
CONSTELLATIONS = tuple(_BITS_PER_SYMBOL)


def bits_per_symbol(constellation: str) -> int:
    if constellation not in CONSTELLATIONS:
        raise ConfigError(f"unknown constellation {constellation!r}")
    return _BITS_PER_SYMBOL[constellation]


def map_bits(bits: np.ndarray, constellation: str, sigma_x2: float = 1.0) -> np.ndarray:
    """Bits to unit-ordered symbols with average energy sigma_x2.

    The leading axis is the bit axis; consecutive runs of bits_per_symbol
    bits map Gray-coded to one symbol, bit j (1 -> -1) on rail j. Bool
    input is 0/1 by type and skips the value check.
    """
    k = bits_per_symbol(constellation)
    bits = np.asarray(bits)
    if bits.ndim == 0 or (bits.dtype != bool and np.any((bits != 0) & (bits != 1))):
        raise ConfigError("bits must be an array of 0/1 values")
    if bits.shape[0] % k:
        raise ConfigError(f"{constellation} needs a multiple of {k} bits")
    amp = np.sqrt(sigma_x2 / k)
    symbols = np.empty((bits.shape[0] // k,) + bits.shape[1:], dtype=float if k == 1 else complex)
    rails = (symbols,) if k == 1 else (symbols.real, symbols.imag)
    for j, rail in enumerate(rails):
        # amp - 2 amp b, in place on one strided slice per rail: exactly +-amp
        np.multiply(bits[j::k], -2.0 * amp, out=rail)
        rail += amp
    return symbols


def demap_symbols(x: np.ndarray, constellation: str) -> np.ndarray:
    """Hard decisions back to bool bits; zero estimates resolve to bit 0."""
    k = bits_per_symbol(constellation)
    x = np.asarray(x)
    if x.ndim == 0:
        raise ConfigError("symbols must be an array with a leading symbol axis")
    out = np.empty((k * x.shape[0],) + x.shape[1:], dtype=bool)
    for j, rail in enumerate((np.real, np.imag)[:k]):
        np.less(rail(x), 0.0, out=out[j::k])
    return out


def mmse_weights(b: np.ndarray, rz: np.ndarray, sigma_x2: float) -> np.ndarray:
    """LMMSE matrix W with x_hat = W y for the model y = B x + z, Cov(z) = R_z
    (N0 I for the whitened receiver of the sweep).

    Solves against S = sigma_x^2 B B^H + R_z; if S is singular (only
    possible with N0 = 0 and a rank-deficient channel) falls back to the
    pseudo inverse, which is the zero-forcing limit on the signal subspace.
    """
    s = sigma_x2 * (b @ b.conj().T) + rz
    try:
        return sigma_x2 * np.linalg.solve(s, b).conj().T
    except np.linalg.LinAlgError:
        return sigma_x2 * (b.conj().T @ np.linalg.pinv(s, hermitian=True))


def wilson_interval(errors: int, n: int) -> tuple[float, float]:
    """Two-sided 95% Wilson score interval for a binomial proportion."""
    if not (is_integer(errors) and is_integer(n) and 0 <= errors <= n and n >= 1):
        raise ConfigError(f"interval needs integer counts 0 <= errors <= n and n >= 1, "
                          f"got {errors!r} errors in {n!r} trials")
    z = 1.959963984540054   # two-sided 95%
    p = errors / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return float(max(0.0, center - half)), float(min(1.0, center + half))
