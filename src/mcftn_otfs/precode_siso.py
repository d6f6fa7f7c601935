"""EVD precoding with water-filling power allocation for the single-antenna link.

The whitened effective channel D = G^{-1/2} A^H H_dd turns the colored,
self-interfering link into parallel eigenmodes: with D^H D = U Lam_D U^H and
the precoder P = U Lam_P^{1/2}, the mutual information splits into per-mode
terms log2(1 + (sigma_x^2/N0) lam_P lam_D). The transmit energy constraint
is tr(G P P^H) <= budget, which in the eigenbasis reads
sum_k lam_P[k] * phi[k] <= budget with phi = diag(U^H G U).

U, Lam_D and phi do not depend on the SNR, only the allocation does, so the
kernel comes in two halves: `modes` diagonalizes once, `fill_modes`
water-fills, forms P and counts the bits for one SNR. The water-filling is
exact in finitely many steps: sorted by their thresholds, the active modes
form a prefix whose water level has a closed form.

`SISO_DESIGNS` maps each siso_* scheme to its design on the factored
(U, lam, phi); the sweep and `solve_siso` both dispatch through it.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ConfigError, NumericalError, SystemConfig, is_finite
from .pulse import GramMatrix

LN2 = math.log(2.0)
PHI_FLOOR = 1e-12       # weights below this deactivate the mode


def build_effective_channel(gram: GramMatrix, h_dd: np.ndarray, sfft: np.ndarray) -> np.ndarray:
    """Whitened effective channel D = G^{-1/2} A^H H_dd: the stacked whitening
    of :func:`~mcftn_otfs.precode_mimo.build_mimo_effective` with one receive
    antenna.

    Deactivated Gram modes are projected out by the pseudo inverse square
    root, so D's row space is restricted to the active subspace.
    """
    if np.shape(h_dd) != gram.matrix.shape:
        raise ConfigError(f"channel shape {np.shape(h_dd)} does not match gram {gram.matrix.shape}")
    # imported on call: precode_mimo imports this module at load time
    from .precode_mimo import build_mimo_effective
    return build_mimo_effective(gram, h_dd, sfft, 1)


def waterfill(lam_d: np.ndarray, phi: np.ndarray, sigma_x2: float, N0: float,
              budget: float | None = None) -> tuple[np.ndarray, float]:
    """Water-filling over eigenmodes with weighted power accounting.

    Maximizes sum log2(1 + (sigma_x2/N0) lam_P lam_D) subject to
    sum lam_P * phi <= budget and lam_P >= 0. The stationary form is

        phi[k] lam_P[k] = max(level - t[k], 0),   t[k] = phi[k] N0 / (lam_D[k] sigma_x2)

    with level = 1/(xi ln 2). Sorted by threshold t, the k cheapest modes
    give level_k = (budget + sum of their t) / k; the active set is the
    largest k whose level clears its own k-th threshold (Palomar and
    Fonollosa, IEEE TSP 2005). Thresholds are taken relative to the smallest
    one, so the budget survives thresholds far above it (very low SNR).
    Modes with lam_D = 0 or phi below 1e-12 get zero power. Returns
    (lam_P, xi); xi is inf when no mode can carry power.
    """
    lam_d = np.asarray(lam_d, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if lam_d.shape != phi.shape:
        raise ConfigError("lam_d and phi must have matching shapes")
    if budget is None:
        budget = float(lam_d.size)
    if not is_finite(budget) or budget <= 0.0:
        raise ConfigError(f"power budget must be positive and finite, got {budget!r}")
    if not is_finite(N0) or N0 < 0.0:
        raise ConfigError(f"N0 must be non-negative and finite, got {N0!r}")
    if not is_finite(sigma_x2) or sigma_x2 <= 0.0:
        raise ConfigError(f"sigma_x2 must be positive and finite, got {sigma_x2!r}")

    idx = np.flatnonzero((lam_d > 0.0) & (phi >= PHI_FLOOR))
    lam_p = np.zeros_like(lam_d)
    if idx.size == 0:
        return lam_p, math.inf

    t = phi[idx] * N0 / (lam_d[idx] * sigma_x2)
    order = np.argsort(t, kind="stable")
    idx, t = idx[order], t[order]
    u = t - t[0]
    levels = (budget + np.cumsum(u)) / np.arange(1, t.size + 1)
    k = int(np.flatnonzero(levels > u)[-1]) + 1
    on = idx[:k]
    lam_p[on] = (levels[k - 1] - u[:k]) / phi[on]
    xi = 1.0 / (LN2 * (levels[k - 1] + t[0]))

    rel_err = abs(float(phi @ lam_p) - budget) / budget
    if rel_err > 1e-10:
        raise NumericalError(f"water-filling budget error {rel_err:.3e}")
    return lam_p, xi


def modes(normal: np.ndarray, G: np.ndarray):
    """SNR-independent half of the kernel: eigenbasis and mode weights.

    Diagonalizes the Hermitian `normal` (D^H D, or a stream's quadratic
    form) with eigenvalues in descending order and weighs each eigenvector
    by phi[c] = u_c^H (I (x) G) u_c, one G-sized block at a time without
    forming the Kronecker product; `normal` spans as many blocks as G
    divides its size into. Returns (U, lam, phi).
    """
    herm = np.conj(normal, dtype=np.result_type(normal, 0.5)).T   # the one temporary
    herm += normal      # the same sum as normal + normal^H
    del normal          # a temporary argument is freed before eigh
    herm *= 0.5
    evals, evecs = np.linalg.eigh(herm)
    lam = np.maximum(evals[::-1], 0.0)
    U = evecs[:, ::-1]
    ur = U.reshape(-1, G.shape[0], U.shape[1])
    phi = np.einsum("tjc,tjc->c", ur.conj(), G @ ur).real
    return U, lam, np.maximum(phi, 0.0)


def mode_bits(lam_p: np.ndarray, lam: np.ndarray, sigma_x2: float, N0: float) -> float:
    """sum log2(1 + (sigma_x2/N0) lam_P lam) in bits, through log1p, so it keeps
    its relative accuracy at any SNR; inf at N0 = 0 if any mode carries power."""
    if N0 == 0.0:
        return math.inf if np.any(lam_p * lam > 0.0) else 0.0
    return float(np.sum(np.log1p((sigma_x2 / N0) * lam_p * lam))) / LN2


def fill_modes(U: np.ndarray, lam: np.ndarray, phi: np.ndarray, sigma_x2: float, N0: float):
    """SNR-dependent half of the kernel: water-fill, P = U Lam_P^{1/2}, bits.

    The budget is the mode count, MN per transmit antenna. Returns (P, bits).
    """
    lam_p, _ = waterfill(lam, phi, sigma_x2, N0)
    return U * np.sqrt(lam_p), mode_bits(lam_p, lam, sigma_x2, N0)


def relaxed_fill(cfg: SystemConfig, U: np.ndarray, lam: np.ndarray, phi: np.ndarray):
    """The siso_pa design, water-filled P = U Lam_P^{1/2}: returns (P, normalized
    capacity). On a stacked D^H D it is the SNR-dependent half of
    :func:`~mcftn_otfs.precode_mimo.wf_baseline`."""
    P, bits = fill_modes(U, lam, phi, cfg.sigma_x2, cfg.N0)
    return P, normalized_capacity(bits, cfg)


def unit_fill(cfg: SystemConfig, U: np.ndarray, lam: np.ndarray, phi: np.ndarray):
    """The siso_nopa design, unit power on every mode, P = U: returns (P,
    normalized capacity). It meets the budget exactly, tr(G P P^H) = tr(G) = MN
    per antenna, and carries the same bits as P = I, since
    log det(I + c D^H D) only sees the eigenvalues."""
    return U, normalized_capacity(mode_bits(np.ones_like(lam), lam, cfg.sigma_x2, cfg.N0), cfg)


def unprecoded_fill(cfg: SystemConfig, U: np.ndarray, lam: np.ndarray, phi: np.ndarray):
    """The siso_unprecoded design, P = I: returns (P, normalized capacity)."""
    return np.eye(lam.size, dtype=complex), unit_fill(cfg, U, lam, phi)[1]


def normalized_capacity(bits: float, cfg: SystemConfig) -> float:
    """Bits per unit of occupied time-frequency-energy, bits / (alpha beta M N E0)."""
    return bits / (cfg.alpha * cfg.beta * cfg.mn * cfg.E0)


# the single-antenna schemes: name -> design(cfg, U, lam, phi) -> (P, capacity)
SISO_DESIGNS = {
    "siso_pa": relaxed_fill,
    "siso_nopa": unit_fill,
    "siso_unprecoded": unprecoded_fill,
}


def solve_siso(cfg: SystemConfig, gram: GramMatrix, h_dd: np.ndarray,
               sfft: np.ndarray, scheme: str = "siso_pa"):
    """Build D, diagonalize D^H D and run the `scheme` design at cfg's SNR.

    This is the sweep's `scheme` on one channel: the same whitening, `modes`
    and design, so it returns the same (P, normalized capacity).
    """
    if scheme not in SISO_DESIGNS:
        raise ConfigError(f"unknown SISO scheme {scheme!r}; valid: {', '.join(SISO_DESIGNS)}")
    D = build_effective_channel(gram, h_dd, sfft)
    return SISO_DESIGNS[scheme](cfg, *modes(D.conj().T @ D, gram.matrix))
