"""Monte Carlo sweeps over SNR with paired channel realizations.

All randomness flows through named streams keyed by (seed, purpose, indices)
that never include the scheme, the compression factors or the SNR point, so
realization r sees the same channel draw in every scheme and in every
compared configuration (common random numbers). The per-realization path
digests are kept in the result so tests can assert that pairing instead of
trusting it.

Both metrics work on one receive domain: the whitened channel D that the
designs solve on. The BER cell receives y = D P x + sqrt(N0) w with white w,
which gives the same LMMSE estimate as the colored delay-Doppler link
y = H_dd P x + z (the whitening is invertible on the active Gram modes, and
dead modes carry neither signal nor noise into the estimate). The cell
equalizes only the modes a design loads, in real arithmetic with the noise
scale folded into the equalizer, one product per block of frames.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .channel import build_mimo_channels, paths_digest
from .core import ConfigError, SystemConfig, check_snr_db, is_integer, rng_stream, sfft_matrix
from .link import bits_per_symbol, mmse_weights, wilson_interval
from .noise import draw_standard_noise
from .precode_mimo import build_mimo_effective, sic_precode, wf_structured
from .precode_siso import SISO_DESIGNS, modes, relaxed_fill
from .pulse import build_gram

METRICS = ("capacity", "ber")


# Each scheme is a pair (factor, design). factor(cfg, gram, D) does the SNR-
# independent work on the realization's whitened channel D once and is shared
# by every scheme naming it; design(cfg_snr, *factor) -> (P, normalized
# capacity) serves both metrics. The siso_* rows are SISO_DESIGNS on the
# stacked factor, of which they are the one-antenna case: siso_pa is
# wf_relaxed on a single stream.

def _mimo_factor(cfg, gram, D):
    return D, gram


def _stacked_factor(cfg, gram, D):
    return modes(D.conj().T @ D, gram.matrix)


SCHEME_TABLE = {
    **{name: (_stacked_factor, design) for name, design in SISO_DESIGNS.items()},
    "sic": (_mimo_factor, sic_precode),
    "wf_relaxed": (_stacked_factor, relaxed_fill),
    "wf_structured": (_mimo_factor, wf_structured),
}
SCHEMES = tuple(SCHEME_TABLE)


def _sequence(name: str, value, convert) -> tuple:
    try:
        if isinstance(value, str) or not isinstance(value, Iterable):
            raise TypeError
        return tuple(convert(v) for v in value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a sequence of {convert.__name__} values, "
                          f"got {value!r}") from None


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: base config, SNR grid, schemes and sample sizes."""

    config: SystemConfig
    snr_points_db: tuple
    n_realizations: int = 500
    schemes: tuple = ("siso_pa",)
    metric: str = "capacity"
    n_frames: int = 50              # frames per realization, BER metric only
    constellation: str = "bpsk"

    def __post_init__(self):
        snr = _sequence("snr_points_db", self.snr_points_db, float)
        for s in snr:
            check_snr_db(s)
        object.__setattr__(self, "snr_points_db", snr)
        object.__setattr__(self, "schemes", _sequence("schemes", self.schemes, str))
        if not self.snr_points_db:
            raise ConfigError("snr_points_db must not be empty")
        if any(b <= a for a, b in zip(self.snr_points_db, self.snr_points_db[1:])):
            raise ConfigError("snr_points_db must be strictly increasing")
        if not self.schemes:
            raise ConfigError("schemes must not be empty")
        if len(set(self.schemes)) != len(self.schemes):
            raise ConfigError("schemes must be unique")
        single = self.config.n_tx == 1 and self.config.n_rx == 1
        for s in self.schemes:
            if s not in SCHEMES:
                raise ConfigError(f"unknown scheme {s!r}; valid: {', '.join(SCHEMES)}")
            if s.startswith("siso_") and not single:
                raise ConfigError(f"scheme {s!r} needs n_tx = n_rx = 1")
        if self.metric not in METRICS:
            raise ConfigError(f"unknown metric {self.metric!r}")
        for name in ("n_realizations", "n_frames"):
            v = getattr(self, name)
            if not is_integer(v) or v < 1:
                raise ConfigError(f"{name} must be a positive integer, got {v!r}")
        bits_per_symbol(self.constellation)     # raises on an unknown name


@dataclass(frozen=True)
class CapacityPoint:
    snr_db: float
    scheme: str
    mean: float
    stderr: float
    n: int


@dataclass(frozen=True)
class BerPoint:
    snr_db: float
    scheme: str
    ber: float
    ci_low: float
    ci_high: float
    errors: int
    bits: int
    n: int


@dataclass
class SweepResult:
    """Aggregated points plus the per-realization raw values behind them."""

    spec: SweepSpec
    points: list
    values: dict = field(repr=False)        # (scheme, snr_db) -> per-realization array
    channel_digests: tuple = field(repr=False)
    bits_per_realization: int = 0           # BER metric only
    version: str = __version__


# Frames per block of the BER cell. Only the bits (bools) and the noise span
# the whole cell; a block's right-hand side (1 MiB for 2x2 QPSK on 8x4) and
# estimates do not. On the mimo_2x2_ber sweep (one BLAS thread), 512 to 2048
# frames ran equally fast, 128 and 256 about 10% slower and 4096 about 5%
# slower; the counts do not depend on it.
_BLOCK_FRAMES = 512


def _real_form(a, k, groups, parts):
    """Real form of the complex matrix a: rows are (row of a, first k of Re, Im),
    columns (group of a's columns, first `parts` of Re, Im, column in group)."""
    m = np.array([[a.real, -a.imag], [a.imag, a.real]])[:k, :parts]
    m = m.reshape(k, parts, a.shape[0], groups, a.shape[1] // groups)
    return m.transpose(2, 0, 3, 1, 4).reshape(k * a.shape[0], parts * a.shape[1])


def _bit_errors(spec: SweepSpec, cfg: SystemConfig, D, precoders, r: int, si: int) -> list:
    """Bit errors of each precoder over the n_frames frames of one cell.

    Each frame is received on the whitened channel the designs solved,
    y = D P x + sqrt(N0 / 2) (z_re + 1j z_im) with z standard normal. The
    data bits and z come from (seed, "bits"/"noise", r, si) and are shared by
    every precoder: the bits are the values of one (n_bits, n_frames) integer
    draw, taken a row at a time into bools so no integer copy of the cell is
    held (uint32 rows: the same values as int64 with half the temporary),
    and z is `draw_standard_noise`.

    A zero column of B = D P (a mode the design leaves unloaded) gives a
    zero row of the LMMSE weights W, an estimate of exactly 0 and so bit 0:
    its errors are its 1-bits. On the live columns the estimate
    W B x + sqrt(N0 / 2) W z is one real matrix over the bit rows of x and
    the rows of z, whose rows (per live mode its real part, and its
    imaginary part for QPSK) line up with the bits they decide. With the
    precoders' matrices stacked, each block of _BLOCK_FRAMES frames costs
    one product.
    """
    k = bits_per_symbol(spec.constellation)
    n_bits = k * cfg.n_tx * cfg.mn
    rng = rng_stream(cfg.seed, "bits", r, si)
    bits = np.empty((n_bits, spec.n_frames), dtype=bool)
    for row in bits:
        row[...] = rng.integers(0, 2, size=spec.n_frames, dtype=np.uint32)
    z = draw_standard_noise(cfg.N0, rng_stream(cfg.seed, "noise", r, si), cfg.n_rx,
                            (cfg.mn, spec.n_frames)).reshape(-1, spec.n_frames)
    rz = cfg.N0 * np.eye(D.shape[0])
    mats, rows, errors = [], [], []
    for b in (D @ P for P in precoders):
        live = np.any(b != 0.0, axis=0)
        w = mmse_weights(b[:, live], rz, cfg.sigma_x2)
        mats.append(np.hstack([_real_form(w @ b, k, b.shape[1], k),
                               _real_form(np.sqrt(cfg.N0 / 2.0) * w, k, cfg.n_rx, 2)]))
        decided = np.repeat(live, k)
        rows.append(np.flatnonzero(decided))
        errors.append(np.count_nonzero(bits[~decided]))
    mat, sel, ends = np.vstack(mats), np.concatenate(rows), np.cumsum([len(i) for i in rows])
    amp = np.sqrt(cfg.sigma_x2 / k)
    rhs = np.empty((n_bits + z.shape[0], min(_BLOCK_FRAMES, spec.n_frames)))
    for start in range(0, spec.n_frames, _BLOCK_FRAMES):
        block = slice(start, start + _BLOCK_FRAMES)
        x = rhs[:, :bits[:, block].shape[1]]
        np.multiply(bits[:, block], -2.0 * amp, out=x[:n_bits])    # exactly +-amp
        x[:n_bits] += amp
        x[n_bits:] = z[:, block]
        wrong = (mat @ x < 0.0) != bits[sel, block]
        for i, part in enumerate(np.split(wrong, ends[:-1])):
            errors[i] += np.count_nonzero(part)
    return errors


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Execute the sweep; deterministic for a fixed spec.

    Realizations are independent; each one draws its channel from the stream
    (seed, "paths", r) (the channels of consecutive realizations share
    quadrature calls, see `build_mimo_channels`, with the same values as
    alone), whitens it once, runs each distinct factor of the
    requested schemes once on that D, then walks the SNR grid, where only
    the power allocation is redone.
    For the BER metric each cell equalizes on that same D with white noise;
    the data bits and noise come from (seed, "bits"/"noise", r, snr index)
    and are shared by every scheme at that cell.
    """
    cfg = spec.config
    gram = build_gram(cfg)
    sfft = sfft_matrix(cfg)

    cells = [(s, snr) for s in spec.schemes for snr in spec.snr_points_db]
    dtype = float if spec.metric == "capacity" else np.int64
    values = {cell: np.zeros(spec.n_realizations, dtype=dtype) for cell in cells}

    rows = [SCHEME_TABLE[s] for s in spec.schemes]
    snr_cfgs = [cfg.with_snr_db(snr) for snr in spec.snr_points_db]
    frame_bits = bits_per_symbol(spec.constellation) * cfg.n_tx * cfg.mn * spec.n_frames
    digests = []

    streams = (rng_stream(cfg.seed, "paths", r) for r in range(spec.n_realizations))
    channels = build_mimo_channels(cfg, streams)
    for r in range(spec.n_realizations):
        mimo = next(channels)   # enumerate's cached tuple would keep it into the next draw
        digests.append(paths_digest(mimo.paths))
        D = build_mimo_effective(gram, mimo.matrix, sfft, cfg.n_rx)
        del mimo
        factors = {f: f(cfg, gram, D) for f in dict.fromkeys(f for f, _ in rows)}

        for si, (snr, cfg_s) in enumerate(zip(spec.snr_points_db, snr_cfgs)):
            solved = (design(cfg_s, *factors[factor]) for factor, design in rows)
            if spec.metric == "capacity":
                cell = [capacity for _, capacity in solved]
            else:
                cell = _bit_errors(spec, cfg_s, D, (P for P, _ in solved), r, si)
            for s, value in zip(spec.schemes, cell):
                values[(s, snr)][r] = value
        # release this realization's factors before the next channel is built
        del D, factors

    points = []
    for s in spec.schemes:
        for snr in spec.snr_points_db:
            cell = values[(s, snr)]
            if spec.metric == "capacity":
                stderr = float(np.std(cell, ddof=1) / np.sqrt(len(cell))) if len(cell) > 1 else 0.0
                points.append(CapacityPoint(snr_db=snr, scheme=s, mean=float(np.mean(cell)),
                                            stderr=stderr, n=len(cell)))
            else:
                errors = int(np.sum(cell))
                total = frame_bits * spec.n_realizations
                lo, hi = wilson_interval(errors, total)
                points.append(BerPoint(snr_db=snr, scheme=s, ber=errors / total,
                                       ci_low=lo, ci_high=hi, errors=errors,
                                       bits=total, n=spec.n_realizations))

    return SweepResult(
        spec=spec,
        points=points,
        values=values,
        channel_digests=tuple(digests),
        bits_per_realization=frame_bits if spec.metric == "ber" else 0,
    )
