"""System configuration, DFT/SFFT operators and RNG streams.

Everything downstream (pulse Gram, channels, precoders, sweeps) reads its
geometry from :class:`SystemConfig` and shares one flattening convention: a
delay-Doppler grid point (l, k) maps to flat index k*M + l, i.e. the delay
index runs fastest, and a time-frequency grid point (m, n) to n*M + m.
:func:`sfft_matrix` encodes it in its Kronecker order; the Gram and channel
builders recover (m, n) from a flat index as (idx % M, idx // M).
"""

from __future__ import annotations

import dataclasses
import math
import zlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class ConfigError(ValueError):
    """Raised when a configuration value or combination is invalid."""


class NumericalError(RuntimeError):
    """Raised when a numerical routine cannot produce a trustworthy result."""


class DegenerateConfigurationError(NumericalError):
    """Raised when a configuration collapses the signal space entirely."""


def is_integer(v) -> bool:
    """True for Python and numpy integers; bool is not a count."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def is_finite(v) -> bool:
    """math.isfinite that reads an int beyond the float range as not finite."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


SNR_DB_LIMIT = 150.0


def check_snr_db(snr_db: float) -> float:
    """Return `snr_db` if it lies in the valid SNR range, else raise ConfigError.

    10**(snr/10) overflows or underflows to zero a few hundred dB out, and
    NaN fails the comparison, so the range also keeps N0 finite and positive.
    """
    if not -SNR_DB_LIMIT <= snr_db <= SNR_DB_LIMIT:
        raise ConfigError(f"SNR must lie in [-{SNR_DB_LIMIT:g}, {SNR_DB_LIMIT:g}] dB, "
                          f"got {snr_db!r}")
    return snr_db


@dataclass(frozen=True)
class SystemConfig:
    """Static description of one transmission setup.

    Units are normalized: time in the Nyquist symbol interval T0, frequency
    in the Nyquist carrier spacing 1/T0, energy per unit symbol energy. So
    the symbol interval is alpha and the carrier spacing beta; compression
    factors below 1 pack symbols tighter than orthogonality allows.
    alpha >= 1/(1+theta) keeps the pulse Gram well conditioned and is
    enforced unless `allow_small_alpha` is set.
    """

    M: int                        # carriers per block
    N: int                        # symbols per carrier
    alpha: float = 1.0            # time compression factor, 0 < alpha <= 1
    beta: float = 1.0             # frequency compression factor, 0 < beta <= 1
    theta: float = 0.25           # root raised cosine roll-off
    sigma_x2: float = 1.0         # data symbol variance
    N0: float = 1.0               # noise power spectral density
    L: int = 3                    # number of channel paths
    n_tx: int = 1                 # transmit antennas
    n_rx: int = 1                 # receive antennas
    tau_max: float = 2.0          # max path delay
    nu_max: float = 0.1           # max |Doppler|
    seed: int = 0                 # root seed for all derived RNG streams
    allow_small_alpha: bool = False  # lift the alpha >= 1/(1+theta) guard

    def __post_init__(self):
        for name in ("alpha", "beta", "theta", "sigma_x2", "N0", "tau_max", "nu_max"):
            v = getattr(self, name)
            if not isinstance(v, (int, float, np.integer, np.floating)) or isinstance(v, bool):
                raise ConfigError(f"{name} must be a real number, got {v!r}")
        for name in ("M", "N", "L", "n_tx", "n_rx"):
            v = getattr(self, name)
            if not is_integer(v) or v < 1:
                raise ConfigError(f"{name} must be a positive integer, got {v!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0.0 < self.beta <= 1.0:
            raise ConfigError(f"beta must lie in (0, 1], got {self.beta}")
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigError(f"theta must lie in [0, 1], got {self.theta}")
        # NaN and inf pass every range comparison, so finiteness is its own test
        if not is_finite(self.sigma_x2) or self.sigma_x2 <= 0.0:
            raise ConfigError(f"sigma_x2 must be finite and positive, got {self.sigma_x2!r}")
        if not is_integer(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        for name in ("N0", "tau_max", "nu_max"):
            v = getattr(self, name)
            if not is_finite(v) or v < 0.0:
                raise ConfigError(f"{name} must be finite and non-negative, got {v!r}")
        if not isinstance(self.allow_small_alpha, (bool, np.bool_)):
            raise ConfigError(f"allow_small_alpha must be a bool, got {self.allow_small_alpha!r}")
        # the Gram loses rank fast once alpha drops below 1/(1+theta)
        if not self.allow_small_alpha and self.alpha < 1.0 / (1.0 + self.theta) - 1e-12:
            raise ConfigError(
                f"alpha={self.alpha} below 1/(1+theta)={1.0 / (1.0 + self.theta):.6f}; "
                "set allow_small_alpha=True to override"
            )

    @property
    def mn(self) -> int:
        """Symbols per block (grid size M*N)."""
        return self.M * self.N

    @property
    def snr(self) -> float:
        """Linear symbol SNR sigma_x^2 / N0."""
        if self.N0 == 0.0:
            return np.inf
        return self.sigma_x2 / self.N0

    def with_snr_db(self, snr_db: float) -> "SystemConfig":
        """Copy of this config with N0 set so sigma_x^2/N0 hits `snr_db`."""
        return dataclasses.replace(self, N0=self.sigma_x2 / 10.0 ** (check_snr_db(snr_db) / 10.0))

    def replace(self, **kw) -> "SystemConfig":
        return dataclasses.replace(self, **kw)


@lru_cache(maxsize=32)
def dft_matrix(n: int) -> np.ndarray:
    """Unitary n-point DFT matrix, F[j, k] = exp(-2j pi j k / n) / sqrt(n), built once per
    size and handed out read-only."""
    idx = np.arange(n)
    f = np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)
    f.flags.writeable = False
    return f


def sfft_matrix(cfg: SystemConfig) -> np.ndarray:
    """Matrix form of the symplectic finite Fourier transform.

    With the k*M + l flattening, the SFFT taking the time-frequency grid to
    the delay-Doppler grid is the Kronecker product F_N (x) F_M^H of unitary
    DFTs; the 1/sqrt(NM) of the double-sum definition is absorbed by the
    unitary normalization. The inverse transform is the conjugate transpose.
    It is built once per (M, N) and handed out read-only, so every config of
    one grid shares it; the channel applies its two DFT factors instead.
    """
    return _sfft(cfg.M, cfg.N)


@lru_cache(maxsize=16)
def _sfft(M: int, N: int) -> np.ndarray:
    sfft = np.kron(dft_matrix(N), dft_matrix(M).conj().T)
    sfft.flags.writeable = False
    return sfft


def rng_stream(seed: int, *key) -> np.random.Generator:
    """Independent generator for the stream named by (seed, *key).

    Key parts may be non-negative ints or short strings; strings hash via
    crc32. Streams are derived through SeedSequence spawn keys, so any two
    distinct keys give statistically independent streams and the mapping is
    stable across runs, platforms and call orderings.
    """
    parts = []
    for part in key:
        if isinstance(part, str):
            parts.append(zlib.crc32(part.encode("utf-8")))
        else:
            p = int(part)
            if p < 0:
                raise ConfigError(f"rng stream key parts must be non-negative, got {part!r}")
            parts.append(p)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(parts)))
