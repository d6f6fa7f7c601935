"""Per-stream SIC precoding and water-filling baselines for the MIMO link.

The stacked whitened channel D = (I (x) G^{-1/2} A^H) H couples all transmit
streams. The low-complexity design walks the streams once: stream t sees the
interference of the already-designed streams through the cumulative matrix

    T_t = T_{t-1} + (sigma_x^2/N0) (D_t P_t)(D_t P_t)^H,   T_0 = I,

diagonalizes its own quadratic form Q_t = D_t^H T_{t-1}^{-1} D_t and
water-fills inside that eigenbasis. The achieved sum rate telescopes:
sum_t log2 det(I + c P_t^H Q_t P_t) = log2 det(I + c D P P^H D^H) for any
block-column split of P, which is also how the tests audit the loop.

Two baselines: a paper-style relaxed water-filling over the eigenbasis of
D^H D with a single pooled budget (unstructured P), and a block-diagonal
alternating variant whose first sweep is the SIC design and whose later
sweeps keep ascending. All three designs take (cfg, D, gram) and return
(P, normalized capacity).
"""

from __future__ import annotations

import numpy as np

from .core import ConfigError, SystemConfig
from .pulse import GramMatrix
from .precode_siso import LN2, fill_modes, modes, normalized_capacity

STRUCTURED_TOL = 1e-9   # relative gain in bits below which wf_structured stops


def build_mimo_effective(gram: GramMatrix, h_mimo: np.ndarray, sfft: np.ndarray,
                         n_rx: int) -> np.ndarray:
    """Whitened stacked channel (I (x) G^{-1/2} A^H) H, block row by block row."""
    h_mimo = np.asarray(h_mimo, dtype=complex)
    n = gram.size
    if h_mimo.shape[0] != n_rx * n or h_mimo.shape[1] % n != 0:
        raise ConfigError(f"stacked channel shape {h_mimo.shape} does not tile {n}-sized blocks")
    w = gram.inv_sqrt @ sfft.conj().T
    out = np.empty_like(h_mimo)
    for r in range(n_rx):
        out[r * n:(r + 1) * n, :] = w @ h_mimo[r * n:(r + 1) * n, :]
    return out


def block_diag(blocks) -> np.ndarray:
    """Block-diagonal matrix of equal square blocks, one per stream."""
    n = blocks[0].shape[0]
    out = np.zeros((len(blocks) * n,) * 2, dtype=complex)
    for t, b in enumerate(blocks):
        out[t * n:(t + 1) * n, t * n:(t + 1) * n] = b
    return out


def _solve_stream(gram: GramMatrix, a_t: np.ndarray, T: np.ndarray,
                  sigma_x2: float, N0: float) -> tuple[np.ndarray, float]:
    """Diagonalize Q = A_t^H T^{-1} A_t and water-fill inside its eigenbasis
    with the stream's budget MN. Returns the stream's block P_t and its bits
    log2 det(I + c P_t^H Q P_t)."""
    U, lam_q, psi = modes(a_t.conj().T @ np.linalg.solve(T, a_t), gram.matrix)
    _, _, P, bits = fill_modes(U, lam_q, psi, sigma_x2, N0)
    return P, bits


def _check_mimo_args(cfg: SystemConfig, D: np.ndarray, gram: GramMatrix) -> int:
    """Validate a stream design's inputs; returns the block size MN."""
    if cfg.N0 <= 0.0:
        raise ConfigError("stream design needs N0 > 0")
    n = gram.size
    if D.shape != (cfg.n_rx * n, cfg.n_tx * n):
        raise ConfigError(f"effective channel shape {D.shape} does not match config")
    return n


def sic_precode(cfg: SystemConfig, D: np.ndarray, gram: GramMatrix):
    """One pass over the streams in natural order with cumulative interference.

    Each stream gets the budget MN (grid size), the SISO constraint per
    stream; with one antenna the single stream is the SISO problem. T stays
    >= I throughout, so the linear solves are well posed and no explicit
    inverse is ever formed. This pass is also the first sweep of
    :func:`wf_structured`. Returns (P, normalized capacity): the
    block-diagonal precoder and the per-stream bits summed in stream order;
    :func:`per_stream_rates` of P's diagonal blocks recovers those bits.
    """
    n = _check_mimo_args(cfg, D, gram)
    c = cfg.snr
    T = np.eye(D.shape[0], dtype=complex)
    blocks, bits = [], 0.0
    for t in range(cfg.n_tx):
        a_t = D[:, t * n:(t + 1) * n]
        p_t, bits_t = _solve_stream(gram, a_t, T, cfg.sigma_x2, cfg.N0)
        blocks.append(p_t)
        bits += bits_t
        b = a_t @ p_t
        T = T + c * (b @ b.conj().T)
    return block_diag(blocks), normalized_capacity(bits, cfg)


def per_stream_rates(cfg: SystemConfig, D: np.ndarray, p_blocks) -> np.ndarray:
    """log2 det(I + c P_t^H Q_t P_t) per stream for an arbitrary block precoder.

    Uses the same cumulative T recursion as the designer, so summing the
    returned rates must reproduce log2 det(I + c D P P^H D^H) exactly.
    """
    if cfg.N0 <= 0.0:
        raise ConfigError("per-stream rates need N0 > 0")
    n = D.shape[1] // len(p_blocks)
    c = cfg.snr
    T = np.eye(D.shape[0], dtype=complex)
    rates = np.empty(len(p_blocks))
    for t, p_t in enumerate(p_blocks):
        b = D[:, t * n:(t + 1) * n] @ p_t
        x = np.linalg.solve(T, b)
        inner = np.eye(b.shape[1], dtype=complex) + c * (b.conj().T @ x)
        rates[t] = np.linalg.slogdet(inner)[1] / LN2
        T = T + c * (b @ b.conj().T)
    return rates


def _logdet_bits(cfg: SystemConfig, D: np.ndarray, P: np.ndarray) -> float:
    b = D @ P
    m = np.eye(D.shape[0], dtype=complex) + cfg.snr * (b @ b.conj().T)
    return np.linalg.slogdet(m)[1] / LN2


def wf_baseline(cfg: SystemConfig, D: np.ndarray, gram: GramMatrix):
    """Relaxed water-filling benchmark with an unstructured precoder.

    Diagonalizes D^H D jointly, weights the pooled budget n_tx * MN by
    phi = diag(U^H (I (x) G) U) and water-fills once. The precoder mixes
    streams freely, so this upper-bounds what the per-stream
    design should approach at high SNR. Returns (P, normalized capacity).
    """
    _check_mimo_args(cfg, D, gram)
    return relaxed_fill(cfg, *modes(D.conj().T @ D, gram.matrix, cfg.n_tx))


def relaxed_fill(cfg: SystemConfig, U: np.ndarray, lam_d: np.ndarray, phi: np.ndarray):
    """The SNR-dependent half of :func:`wf_baseline` on an already factored D^H D."""
    _, _, P, bits = fill_modes(U, lam_d, phi, cfg.sigma_x2, cfg.N0)
    return P, normalized_capacity(bits, cfg)


def wf_structured(cfg: SystemConfig, D: np.ndarray, gram: GramMatrix, max_sweeps: int = 30):
    """Block-diagonal water-filling by alternating per-stream solves.

    The first sweep is :func:`sic_precode`; each later sweep re-solves every
    stream against the interference of all the others and ascends
    monotonically (the telescoping identity makes each re-solve a coordinate
    maximization). It stops after `max_sweeps` sweeps in all, or once a
    sweep gains at most STRUCTURED_TOL relative bits (the SIC sweep is
    measured against 0 bits). Returns (P, normalized capacity).
    """
    P, _ = sic_precode(cfg, D, gram)
    n = gram.size
    c = cfg.snr
    blocks = [P[t * n:(t + 1) * n, t * n:(t + 1) * n] for t in range(cfg.n_tx)]
    b_cache = [D[:, t * n:(t + 1) * n] @ p for t, p in enumerate(blocks)]
    prev_bits, bits = 0.0, _logdet_bits(cfg, D, P)
    for _ in range(1, max_sweeps):
        if bits - prev_bits <= STRUCTURED_TOL * max(1.0, abs(bits)):
            break
        prev_bits = bits
        for t in range(cfg.n_tx):
            T = np.eye(D.shape[0], dtype=complex)
            for s in range(cfg.n_tx):
                if s != t:
                    T = T + c * (b_cache[s] @ b_cache[s].conj().T)
            a_t = D[:, t * n:(t + 1) * n]
            blocks[t], _ = _solve_stream(gram, a_t, T, cfg.sigma_x2, cfg.N0)
            b_cache[t] = a_t @ blocks[t]
        P = block_diag(blocks)
        bits = _logdet_bits(cfg, D, P)
    return P, normalized_capacity(bits, cfg)
