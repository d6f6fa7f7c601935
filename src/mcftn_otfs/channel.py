"""Doubly dispersive channel construction on the compressed grid.

A channel realization is a small set of paths (gain, delay, Doppler). Its
time-frequency matrix is `pulse.coupling_matrix` of those paths: per path an
ambiguity value at the offset (dm*beta - doppler, dn*alpha - delay), in
units of 1/T0 and T0, times two phase factors, the same lattice formula whose
unit path is the pulse Gram. Conjugating with the SFFT gives the
delay-Doppler matrix the equalizer works in. Matrices are never sampled
directly: they are rebuilt deterministically from the paths. The antenna
pairs of consecutive realizations integrate in shared quadrature calls
(`build_mimo_channels`), and each realization's matrices are the same bit
for bit as when it is built alone.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, tee
from typing import NamedTuple

import numpy as np

from .core import SystemConfig, dft_matrix
from .pulse import coupling_matrices, coupling_matrix


class DdPath(NamedTuple):
    """One propagation path in the delay-Doppler domain, the (gain, delay,
    doppler) triple that `pulse.coupling_matrix` takes."""

    gain: complex
    delay: float
    doppler: float


def sample_paths(cfg: SystemConfig, rng: np.random.Generator) -> tuple[DdPath, ...]:
    """Draw cfg.L paths from the standard ensemble.

    Gains are i.i.d. circular complex Gaussian with variance 1/L (unit total
    mean power), delays uniform on [0, tau_max], Dopplers uniform on
    [-nu_max, nu_max]. Draw order is fixed (all gain reals, all gain imags,
    delays, Dopplers) so a given stream always yields the same realization.
    """
    re = rng.standard_normal(cfg.L)
    im = rng.standard_normal(cfg.L)
    gains = (re + 1j * im) * np.sqrt(0.5 / cfg.L)
    delays = rng.uniform(0.0, cfg.tau_max, cfg.L) if cfg.tau_max > 0 else np.zeros(cfg.L)
    dopplers = rng.uniform(-cfg.nu_max, cfg.nu_max, cfg.L) if cfg.nu_max > 0 else np.zeros(cfg.L)
    return tuple(DdPath(complex(g), float(t), float(v)) for g, t, v in zip(gains, delays, dopplers))


def build_tf_channel(paths: Sequence[DdPath], cfg: SystemConfig) -> np.ndarray:
    """Time-frequency channel matrix over the whole block, rows and columns n*M + m."""
    return coupling_matrix(cfg, paths)


@dataclass
class DdChannel:
    """One channel realization with both matrix-domain representations."""

    paths: tuple[DdPath, ...]
    h_tf: np.ndarray   # time-frequency domain, MN x MN
    h_dd: np.ndarray   # delay-Doppler domain, MN x MN


def build_dd_channel(paths: Sequence[DdPath], cfg: SystemConfig) -> DdChannel:
    """Delay-Doppler channel H_dd = A H_tf A^H for the given paths."""
    h_tf = build_tf_channel(paths, cfg)
    return DdChannel(paths=tuple(paths), h_tf=h_tf, h_dd=_conjugated(cfg, h_tf))


def _conjugated(cfg: SystemConfig, h_tf: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A H_tf A^H by the DFT factors of A = F_N (x) F_M^H in O((M+N)(MN)^2): F_N and F_M^H on
    the rows' (n, m), F_N^H and F_M on the columns' (both DFTs are symmetric). `out`: (MN, N, M)."""
    f_n, f_m = dft_matrix(cfg.N), dft_matrix(cfg.M)
    x = np.matmul(f_m.conj(), (f_n @ h_tf.reshape(cfg.N, -1)).reshape(cfg.N, cfg.M, -1))
    x = np.matmul(f_n.conj(), x.reshape(cfg.mn, cfg.N, cfg.M))
    return np.matmul(x, f_m, out=out).reshape(cfg.mn, cfg.mn)


@dataclass
class MimoChannel:
    """Independent per-antenna-pair path sets and their stacked delay-Doppler matrix."""

    paths: list             # paths[rx][tx] is the pair's tuple of DdPath
    matrix: np.ndarray      # (n_rx*MN, n_tx*MN); block (rx, tx) is that pair's H_dd


def build_mimo_channel(cfg: SystemConfig, rng: np.random.Generator) -> MimoChannel:
    """Draw n_rx * n_tx independent path sets and stack the DD blocks.

    The generator is split once into n_rx*n_tx children; antenna pair
    (rx, tx) uses child rx*n_tx + tx, so block realizations are independent
    and reproducible regardless of assembly order. The one-realization case
    of :func:`build_mimo_channels`.
    """
    return next(build_mimo_channels(cfg, [rng]))


def build_mimo_channels(cfg: SystemConfig,
                        rngs: Iterable[np.random.Generator]) -> Iterator[MimoChannel]:
    """:func:`build_mimo_channel` of each generator in `rngs`, in order.

    Every antenna pair of each realization is drawn when the quadrature of
    `pulse.coupling_matrices` asks for its path set, so the generators are
    taken as its calls need them: the pairs of consecutive realizations
    share `ambiguity_table` calls of about one quadrature chunk each. The
    channels are assembled one per `next`, each pair conjugated by the
    SFFT's DFT factors straight into its block of the stacked matrix, and
    none is kept once handed out.
    """
    pairs = cfg.n_rx * cfg.n_tx
    draws, sets = tee([sample_paths(cfg, child) for child in rng.spawn(pairs)] for rng in rngs)
    h_tf = coupling_matrices(cfg, chain.from_iterable(sets))
    for draw in draws:
        yield MimoChannel(paths=[draw[i:i + cfg.n_tx] for i in range(0, pairs, cfg.n_tx)],
                          matrix=_stacked(cfg, h_tf))


def _stacked(cfg: SystemConfig, h_tf: Iterator[np.ndarray]) -> np.ndarray:
    """The next n_rx * n_tx matrices of `h_tf` conjugated into matrix[rx, :, tx], made here."""
    matrix = np.empty((cfg.n_rx, cfg.mn, cfg.n_tx, cfg.N, cfg.M), dtype=complex)
    for k in range(cfg.n_rx * cfg.n_tx):
        _conjugated(cfg, next(h_tf), out=matrix[k // cfg.n_tx, :, k % cfg.n_tx])
    return matrix.reshape(cfg.n_rx * cfg.mn, -1)


def paths_digest(paths) -> str:
    """Stable hex digest of a realization's paths.

    Accepts a flat path sequence or the nested [rx][tx] lists of
    `MimoChannel.paths`; used to assert that paired sweeps really saw
    identical channel draws.
    """
    h = hashlib.sha256()
    if paths and isinstance(paths[0], DdPath):
        paths = [[paths]]
    for row in paths:
        for seq in row:
            h.update(np.array([[p.gain.real, p.gain.imag, p.delay, p.doppler] for p in seq],
                              dtype=np.float64).tobytes())
    return h.hexdigest()
