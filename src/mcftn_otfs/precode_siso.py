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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, NumericalError, SystemConfig
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
    if budget <= 0.0:
        raise ConfigError("power budget must be positive")

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


def modes(normal: np.ndarray, G: np.ndarray, n_blocks: int = 1):
    """SNR-independent half of the kernel: eigenbasis and mode weights.

    Diagonalizes the Hermitian `normal` (D^H D, or a stream's quadratic
    form) with eigenvalues in descending order and weighs each eigenvector
    by phi[c] = u_c^H (I_{n_blocks} (x) G) u_c, one G-sized block at a time
    without forming the Kronecker product. Returns (U, lam, phi).
    """
    evals, evecs = np.linalg.eigh(0.5 * (normal + normal.conj().T))
    lam = np.maximum(evals[::-1], 0.0)
    U = evecs[:, ::-1]
    ur = U.reshape(n_blocks, G.shape[0], U.shape[1])
    phi = np.einsum("tjc,tjc->c", ur.conj(), G @ ur).real
    return U, lam, np.maximum(phi, 0.0)


def mode_bits(lam_p: np.ndarray, lam: np.ndarray, sigma_x2: float, N0: float) -> float:
    """sum log2(1 + (sigma_x2/N0) lam_P lam) in bits; inf at N0 = 0 if any
    mode carries power."""
    if N0 == 0.0:
        return math.inf if np.any(lam_p * lam > 0.0) else 0.0
    return float(np.sum(np.log2(1.0 + (sigma_x2 / N0) * lam_p * lam)))


def fill_modes(U: np.ndarray, lam: np.ndarray, phi: np.ndarray, sigma_x2: float, N0: float):
    """SNR-dependent half of the kernel: water-fill, P = U Lam_P^{1/2}, bits.

    The budget is the mode count, MN per transmit antenna. Returns (P, bits).
    """
    lam_p, _ = waterfill(lam, phi, sigma_x2, N0)
    return U * np.sqrt(lam_p), mode_bits(lam_p, lam, sigma_x2, N0)


def unit_modes(U: np.ndarray, lam: np.ndarray, sigma_x2: float, N0: float, precoded=True):
    """Unit power on every mode, in the eigenbasis (P = U) or unprecoded (P = I).
    Both meet the budget exactly, tr(G P P^H) = tr(G) = MN per antenna, and carry
    the same bits, since log det(I + c D^H D) only sees the eigenvalues.
    Returns (P, bits) like :func:`fill_modes`."""
    P = U if precoded else np.eye(lam.size, dtype=complex)
    return P, mode_bits(np.ones_like(lam), lam, sigma_x2, N0)


def unit_fill(cfg: SystemConfig, U: np.ndarray, lam: np.ndarray, phi: np.ndarray):
    """The siso_nopa design, P = U: returns (P, normalized capacity)."""
    P, bits = unit_modes(U, lam, cfg.sigma_x2, cfg.N0)
    return P, normalized_capacity(bits, cfg)


def unprecoded_fill(cfg: SystemConfig, U: np.ndarray, lam: np.ndarray, phi: np.ndarray):
    """The siso_unprecoded design, P = I: returns (P, normalized capacity)."""
    P, bits = unit_modes(U, lam, cfg.sigma_x2, cfg.N0, precoded=False)
    return P, normalized_capacity(bits, cfg)


def normalized_capacity(bits: float, cfg: SystemConfig) -> float:
    """Bits per unit of occupied time-frequency-energy, bits / (alpha beta M N E0)."""
    return bits / (cfg.alpha * cfg.beta * cfg.mn * cfg.E0)


@dataclass
class SisoPrecoder:
    """Solved single-antenna precoder: the whitened channel, its eigenvalues,
    P itself and the bits it carries at the solve's SNR."""

    D: np.ndarray
    lam_d: np.ndarray         # eigenvalues of D^H D, descending
    P: np.ndarray
    bits: float               # log2 det(I + (sigma_x2/N0) P^H D^H D P)


def solve_siso(cfg: SystemConfig, gram: GramMatrix, h_dd: np.ndarray,
               sfft: np.ndarray, mode: str = "pa") -> SisoPrecoder:
    """Build D, diagonalize it, allocate power and count the bits at cfg's SNR.

    mode "pa": water-filled allocation (`fill_modes`). modes "nopa" (P = U,
    which removes self-interference but leaves capacity on the table) and
    "unprecoded" (P = I) are `unit_modes`. This is the one-antenna case of
    the stacked design: the sweep reaches the same U, allocation and
    capacity through `modes` and the same fills on the stacked channel.
    """
    if mode not in ("pa", "nopa", "unprecoded"):
        raise ConfigError(f"unknown precoder mode {mode!r}")
    D = build_effective_channel(gram, h_dd, sfft)
    U, lam_d, phi = modes(D.conj().T @ D, gram.matrix)
    if mode == "pa":
        P, bits = fill_modes(U, lam_d, phi, cfg.sigma_x2, cfg.N0)
    else:
        P, bits = unit_modes(U, lam_d, cfg.sigma_x2, cfg.N0, mode == "nopa")
    return SisoPrecoder(D=D, lam_d=lam_d, P=P, bits=bits)


def siso_capacity(pre: SisoPrecoder, cfg: SystemConfig) -> float:
    """Capacity of the solved precoder normalized per unit of occupied
    time-frequency-energy, bits / (alpha beta M N E0)."""
    return normalized_capacity(pre.bits, cfg)
