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
alternating variant whose first sweep reproduces the SIC solution and then
keeps ascending.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, SystemConfig
from .pulse import GramMatrix
from .precode_siso import LN2, fill_modes, modes, normalized_capacity


def build_mimo_effective(gram: GramMatrix, h_mimo: np.ndarray, sfft: np.ndarray,
                         n_rx: int) -> np.ndarray:
    """Whitened stacked channel (I (x) G^{-1/2} A^H) H, block row by block row."""
    h_mimo = np.asarray(h_mimo, dtype=complex)
    n = gram.matrix.shape[0]
    if h_mimo.shape[0] != n_rx * n or h_mimo.shape[1] % n != 0:
        raise ConfigError(f"stacked channel shape {h_mimo.shape} does not tile {n}-sized blocks")
    w = gram.inv_sqrt @ sfft.conj().T
    out = np.empty_like(h_mimo)
    for r in range(n_rx):
        out[r * n:(r + 1) * n, :] = w @ h_mimo[r * n:(r + 1) * n, :]
    return out


@dataclass
class StreamPrecoder:
    """Eigenstructure and allocation of one transmit stream."""

    U: np.ndarray
    lam_q: np.ndarray     # descending eigenvalues of the stream quadratic form
    psi: np.ndarray       # diag(U^H G U)
    gamma: np.ndarray     # water-filled powers
    xi: float
    P: np.ndarray         # U * sqrt(gamma)
    bits: float           # log2 det(I + c P^H Q P) at the solve SNR


@dataclass
class MimoPrecoderState:
    """Result of the stream-by-stream design."""

    D: np.ndarray
    budgets: tuple
    sigma_x2: float
    N0: float
    streams: list

    @property
    def bits(self) -> float:
        return float(sum(s.bits for s in self.streams))

    def precoder(self) -> np.ndarray:
        """Assembled block-diagonal precoder."""
        return block_diag([s.P for s in self.streams])


def block_diag(blocks) -> np.ndarray:
    sizes_r = [b.shape[0] for b in blocks]
    sizes_c = [b.shape[1] for b in blocks]
    out = np.zeros((sum(sizes_r), sum(sizes_c)), dtype=complex)
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def _solve_stream(gram: GramMatrix, a_t: np.ndarray, T: np.ndarray,
                  sigma_x2: float, N0: float, budget: float) -> StreamPrecoder:
    """Diagonalize Q = A_t^H T^{-1} A_t and water-fill inside its eigenbasis."""
    U, lam_q, psi = modes(a_t.conj().T @ np.linalg.solve(T, a_t), gram.matrix)
    gamma, xi, P, bits = fill_modes(U, lam_q, psi, sigma_x2, N0, budget)
    return StreamPrecoder(U=U, lam_q=lam_q, psi=psi, gamma=gamma, xi=xi, P=P, bits=bits)


def _check_mimo_args(cfg: SystemConfig, D: np.ndarray, gram: GramMatrix,
                     budgets=None) -> tuple:
    """Validate a stream design's inputs; returns (block size, per-stream budgets).

    Each stream's budget defaults to MN (grid size), matching the SISO
    constraint per stream.
    """
    if cfg.N0 <= 0.0:
        raise ConfigError("stream design needs N0 > 0")
    n = gram.matrix.shape[0]
    if D.shape != (cfg.n_rx * n, cfg.n_tx * n):
        raise ConfigError(f"effective channel shape {D.shape} does not match config")
    if budgets is None:
        budgets = (float(n),) * cfg.n_tx
    budgets = tuple(float(b) for b in budgets)
    if len(budgets) != cfg.n_tx or any(b <= 0.0 for b in budgets):
        raise ConfigError("budgets must give one positive value per transmit stream")
    return n, budgets


def sic_precode(cfg: SystemConfig, D: np.ndarray, gram: GramMatrix,
                budgets=None) -> MimoPrecoderState:
    """One pass over the streams in natural order with cumulative interference.

    Each stream's budget defaults to MN (grid size), matching the SISO
    constraint per stream. T stays >= I throughout, so the linear solves are
    well posed and no explicit inverse is ever formed.
    """
    n, budgets = _check_mimo_args(cfg, D, gram, budgets)

    c = cfg.sigma_x2 / cfg.N0
    T = np.eye(D.shape[0], dtype=complex)
    streams = []
    for t in range(cfg.n_tx):
        a_t = D[:, t * n:(t + 1) * n]
        sol = _solve_stream(gram, a_t, T, cfg.sigma_x2, cfg.N0, budgets[t])
        streams.append(sol)
        b = a_t @ sol.P
        T = T + c * (b @ b.conj().T)
    return MimoPrecoderState(D=D, budgets=budgets, sigma_x2=cfg.sigma_x2,
                             N0=cfg.N0, streams=streams)


def mimo_capacity(state: MimoPrecoderState, cfg: SystemConfig) -> float:
    """Sum rate normalized per unit of occupied time-frequency-energy."""
    return normalized_capacity(state.bits, cfg)


def per_stream_rates(cfg: SystemConfig, D: np.ndarray, p_blocks) -> np.ndarray:
    """log2 det(I + c P_t^H Q_t P_t) per stream for an arbitrary block precoder.

    Uses the same cumulative T recursion as the designer, so summing the
    returned rates must reproduce log2 det(I + c D P P^H D^H) exactly.
    """
    if cfg.N0 <= 0.0:
        raise ConfigError("per-stream rates need N0 > 0")
    n = D.shape[1] // len(p_blocks)
    c = cfg.sigma_x2 / cfg.N0
    T = np.eye(D.shape[0], dtype=complex)
    rates = np.empty(len(p_blocks))
    for t, p_t in enumerate(p_blocks):
        b = D[:, t * n:(t + 1) * n] @ p_t
        x = np.linalg.solve(T, b)
        inner = np.eye(b.shape[1], dtype=complex) + c * (b.conj().T @ x)
        sign, logdet = np.linalg.slogdet(inner)
        rates[t] = logdet / LN2
        T = T + c * (b @ b.conj().T)
    return rates


def _logdet_bits(cfg: SystemConfig, D: np.ndarray, P: np.ndarray) -> float:
    c = cfg.sigma_x2 / cfg.N0
    b = D @ P
    m = np.eye(D.shape[0], dtype=complex) + c * (b @ b.conj().T)
    sign, logdet = np.linalg.slogdet(m)
    return logdet / LN2


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
    _, _, P, bits = fill_modes(U, lam_d, phi, cfg.sigma_x2, cfg.N0, float(cfg.n_tx * cfg.mn))
    return P, normalized_capacity(bits, cfg)


def wf_structured(cfg: SystemConfig, D: np.ndarray, gram: GramMatrix,
                  budgets=None, max_sweeps: int = 30, tol: float = 1e-9):
    """Block-diagonal water-filling by alternating per-stream solves.

    Sweep 0 visits streams in natural order with the others still silent, so
    it reproduces the SIC design exactly; later sweeps re-solve each stream
    against the interference of all the others and ascend monotonically (the
    telescoping identity makes each re-solve a coordinate maximization).
    Returns (P, normalized capacity).
    """
    n, budgets = _check_mimo_args(cfg, D, gram, budgets)

    c = cfg.sigma_x2 / cfg.N0
    blocks = [np.zeros((n, n), dtype=complex) for _ in range(cfg.n_tx)]
    b_cache = [np.zeros((D.shape[0], n), dtype=complex) for _ in range(cfg.n_tx)]
    prev_bits = 0.0
    for _ in range(max_sweeps):
        for t in range(cfg.n_tx):
            T = np.eye(D.shape[0], dtype=complex)
            for s in range(cfg.n_tx):
                if s != t:
                    T = T + c * (b_cache[s] @ b_cache[s].conj().T)
            a_t = D[:, t * n:(t + 1) * n]
            sol = _solve_stream(gram, a_t, T, cfg.sigma_x2, cfg.N0, budgets[t])
            blocks[t] = sol.P
            b_cache[t] = a_t @ sol.P
        bits = _logdet_bits(cfg, D, block_diag(blocks))
        if bits - prev_bits <= tol * max(1.0, abs(bits)):
            prev_bits = bits
            break
        prev_bits = bits
    return block_diag(blocks), normalized_capacity(prev_bits, cfg)
