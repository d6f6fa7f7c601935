"""Receiver noise: the colored delay-Doppler model and the whitened draw.

White noise enters through the non-orthogonal matched filter bank, so its
time-frequency covariance is N0 * G; in the delay-Doppler domain a draw is

    z = sqrt(N0) * A @ G^{1/2} @ w,   w circular standard complex Gaussian,

with covariance N0 * A G A^H (`make_noise_model`, `draw_dd_noise`). The
whitening G^{-1/2} A^H that every design applies to the channel turns that
draw back into sqrt(N0) w on the active Gram modes, so the sweep receives in
the whitened domain and draws white noise directly: `draw_standard_noise`
gives the raw normals in stream order and `draw_mimo_noise` the scaled
complex draw. Receive antennas see independent draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, is_finite, is_integer
from .pulse import GramMatrix


@dataclass
class NoiseModel:
    """Coloring and covariance of the delay-Doppler noise for one grid."""

    N0: float
    coloring: np.ndarray     # A @ G^{1/2}
    covariance: np.ndarray   # N0 * A G A^H


def _check_n0(N0: float) -> None:
    if not is_finite(N0) or N0 < 0.0:
        raise ConfigError(f"N0 must be non-negative and finite, got {N0!r}")


def make_noise_model(N0: float, gram: GramMatrix, sfft: np.ndarray) -> NoiseModel:
    _check_n0(N0)
    # G^{1/2} with the eigenvalues clipped at zero: it squares back to G on every mode
    evecs = gram.eigenvectors
    coloring = sfft @ ((evecs * np.sqrt(np.maximum(gram.eigenvalues, 0.0))) @ evecs.conj().T)
    covariance = N0 * (sfft @ gram.matrix @ sfft.conj().T)
    return NoiseModel(N0=N0, coloring=coloring, covariance=covariance)


def draw_dd_noise(model: NoiseModel, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """One delay-Doppler noise vector, or a (grid, n) batch when n is given,
    from the normals of one antenna of `draw_standard_noise`."""
    size = model.coloring.shape[1]
    re, im = draw_standard_noise(model.N0, rng, 1, (size,) if n is None else (size, n))[0]
    return np.sqrt(model.N0) * (model.coloring @ ((re + 1j * im) / np.sqrt(2.0)))


def draw_standard_noise(N0: float, rng: np.random.Generator, n_rx: int, shape) -> np.ndarray:
    """The standard normals behind n_rx antennas of white noise, (n_rx, 2) + shape.

    Antenna 0's real parts are drawn first, then its imaginary parts, then
    antenna 1's, and so on: the stream consumption order is part of the
    reproducibility contract. The noise is sqrt(N0 / 2) (re + 1j im); N0 is
    checked here although only the caller scales by it.
    """
    _check_n0(N0)
    if not is_integer(n_rx) or n_rx < 1:
        raise ConfigError(f"n_rx must be a positive integer, got {n_rx!r}")
    return rng.standard_normal((n_rx, 2, *shape))


def draw_mimo_noise(N0: float, rng: np.random.Generator, n_rx: int, shape) -> np.ndarray:
    """Stacked white noise sqrt(N0) w for n_rx antennas of the given shape each:
    `draw_standard_noise` as (re + 1j im) / sqrt(2) * sqrt(N0), scaled in place."""
    raw = draw_standard_noise(N0, rng, n_rx, shape)
    z = np.empty(raw.shape[:1] + raw.shape[2:], dtype=complex)
    np.multiply(raw[:, 0], 1.0 / np.sqrt(2.0), out=z.real)
    np.multiply(raw[:, 1], 1.0 / np.sqrt(2.0), out=z.imag)
    z *= np.sqrt(N0)
    return z.reshape((-1,) + z.shape[2:])
