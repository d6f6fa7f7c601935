"""Doubly dispersive channel construction on the compressed grid.

A channel realization is a small set of paths (gain, delay, Doppler). Its
time-frequency matrix is `pulse.coupling_matrix` of those paths: per path an
ambiguity value at the offset (dm*beta*delta_f0 - doppler,
dn*alpha*T0 - delay) times two phase factors, the same lattice formula whose
unit path is the pulse Gram. Conjugating with the SFFT gives the
delay-Doppler matrix the equalizer works in. Matrices are never sampled
directly: they are rebuilt deterministically from the paths, which is also
what the JSON serialization stores.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ConfigError, SystemConfig, sfft_matrix
from .pulse import coupling_matrix, lattice_pulse


@dataclass(frozen=True)
class DdPath:
    """One propagation path in the delay-Doppler domain."""

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


def tf_channel_entry(paths: Sequence[DdPath], m: int, n: int, mp: int, np_: int,
                     cfg: SystemConfig) -> complex:
    """Single time-frequency coupling coefficient, summed over paths.

    Scalar reference path for the vectorized builder: receive slot (m, n),
    transmit slot (m', n'). The ambiguity argument and both phase factors use
    the compressed lattice alpha*T0, beta*delta_f0; the pulse and its node
    count are those `coupling_matrix` uses for the same paths.
    """
    pulse = lattice_pulse(cfg, [p.doppler for p in paths])
    dt = (n - np_) * cfg.alpha * cfg.T0
    df = (m - mp) * cfg.beta * cfg.delta_f0
    total = 0.0 + 0.0j
    for p in paths:
        amb = pulse.ambiguity(df - p.doppler, dt - p.delay)
        phase = np.exp(
            2j * np.pi * (
                (p.doppler + mp * cfg.beta * cfg.delta_f0) * (dt - p.delay)
                + p.doppler * np_ * cfg.alpha * cfg.T0
            )
        )
        total += p.gain * amb * phase
    return complex(total)


def build_tf_channel(paths: Sequence[DdPath], cfg: SystemConfig) -> np.ndarray:
    """Time-frequency channel matrix over the whole block, rows and columns n*M + m."""
    return coupling_matrix(cfg, [(p.gain, p.delay, p.doppler) for p in paths])


@dataclass
class DdChannel:
    """One channel realization with both matrix-domain representations."""

    paths: tuple[DdPath, ...]
    h_tf: np.ndarray   # time-frequency domain, MN x MN
    h_dd: np.ndarray   # delay-Doppler domain, MN x MN


def build_dd_channel(paths: Sequence[DdPath], cfg: SystemConfig,
                     sfft: np.ndarray | None = None) -> DdChannel:
    """Delay-Doppler channel H_dd = A H_tf A^H for the given paths."""
    if sfft is None:
        sfft = sfft_matrix(cfg)
    h_tf = build_tf_channel(paths, cfg)
    h_dd = sfft @ h_tf @ sfft.conj().T
    return DdChannel(paths=tuple(paths), h_tf=h_tf, h_dd=h_dd)


@dataclass
class MimoChannel:
    """Independent per-antenna-pair channels and their stacked block matrix."""

    blocks: list            # blocks[rx][tx] is a DdChannel
    matrix: np.ndarray      # (n_rx*MN, n_tx*MN) delay-Doppler block matrix


def build_mimo_channel(cfg: SystemConfig, rng: np.random.Generator) -> MimoChannel:
    """Draw n_rx * n_tx independent path sets and stack the DD blocks.

    The generator is split once into n_rx*n_tx children; antenna pair
    (rx, tx) uses child rx*n_tx + tx, so block realizations are independent
    and reproducible regardless of assembly order.
    """
    children = rng.spawn(cfg.n_rx * cfg.n_tx)
    nested = [[sample_paths(cfg, children[r * cfg.n_tx + t]) for t in range(cfg.n_tx)]
              for r in range(cfg.n_rx)]
    return mimo_channel_from_paths(cfg, nested)


def paths_to_json(paths: Sequence[DdPath]) -> str:
    """Serialize one path set; matrices are rebuilt, never stored."""
    return json.dumps(
        [
            {"gain_re": p.gain.real, "gain_im": p.gain.imag,
             "delay": p.delay, "doppler": p.doppler}
            for p in paths
        ]
    )


def paths_from_json(text: str) -> tuple[DdPath, ...]:
    try:
        records = json.loads(text)
        return tuple(
            DdPath(complex(r["gain_re"], r["gain_im"]), float(r["delay"]), float(r["doppler"]))
            for r in records
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed path serialization: {exc}") from exc


def mimo_paths_to_json(mimo: MimoChannel) -> str:
    """Nested [rx][tx] path serialization for a MIMO realization."""
    return json.dumps(
        [[json.loads(paths_to_json(ch.paths)) for ch in row] for row in mimo.blocks]
    )


def mimo_channel_from_paths(cfg: SystemConfig, nested) -> MimoChannel:
    """Build a MIMO realization from nested [rx][tx] path lists."""
    if len(nested) != cfg.n_rx or any(len(row) != cfg.n_tx for row in nested):
        raise ConfigError("nested path layout does not match n_rx x n_tx")
    sfft = sfft_matrix(cfg)
    blocks = [[build_dd_channel(paths, cfg, sfft) for paths in row] for row in nested]
    matrix = np.block([[ch.h_dd for ch in row] for row in blocks])
    return MimoChannel(blocks=blocks, matrix=matrix)


def paths_digest(blocks) -> str:
    """Stable hex digest of a realization's paths.

    Accepts a flat path sequence or nested [rx][tx] lists; used to assert
    that paired sweeps really saw identical channel draws.
    """
    h = hashlib.sha256()
    if blocks and isinstance(blocks[0], DdPath):
        blocks = [[blocks]]
    for row in blocks:
        for paths in row:
            seq = paths.paths if isinstance(paths, DdChannel) else paths
            arr = np.array(
                [[p.gain.real, p.gain.imag, p.delay, p.doppler] for p in seq],
                dtype=np.float64,
            )
            h.update(arr.tobytes())
    return h.hexdigest()
