"""Per-stream SIC precoding and water-filling baselines for the MIMO link.

The stacked whitened channel D = (I (x) G^{-1/2} A^H) H couples all transmit
streams. One stream sweep serves both block-diagonal designs: stream t sees
the interference of the other designed streams through

    T = I + sum_{s != t} (sigma_x^2/N0) (D_s P_s)(D_s P_s)^H,

diagonalizes its own quadratic form Q_t = D_t^H T^{-1} D_t and water-fills
inside that eigenbasis. The low-complexity SIC design is one sweep from
empty streams, so stream t sees only the streams before it. The achieved
sum rate telescopes, sum_t log2 det(I + c P_t^H Q_t P_t) =
log2 det(I + c D P P^H D^H) for any block-column split of P, which is also
how the tests audit the loop.

Two baselines: a paper-style relaxed water-filling over the eigenbasis of
D^H D with a single pooled budget (unstructured P), and a block-diagonal
alternating variant that repeats the sweep: its first sweep is the SIC
design, and it keeps later sweeps only while they gain bits. All three
designs take (cfg, D, gram) and return (P, normalized capacity).
"""

from __future__ import annotations

import numpy as np

from .core import ConfigError, SystemConfig, is_integer
from .pulse import GramMatrix
from .precode_siso import LN2, fill_modes, modes, normalized_capacity, relaxed_fill

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


def _check_mimo_args(cfg: SystemConfig, D: np.ndarray, gram: GramMatrix) -> None:
    """Validate a stream design's inputs."""
    if cfg.N0 <= 0.0:
        raise ConfigError("stream design needs N0 > 0")
    n = gram.size
    if D.shape != (cfg.n_rx * n, cfg.n_tx * n):
        raise ConfigError(f"effective channel shape {D.shape} does not match config")


def _sweep(cfg: SystemConfig, D: np.ndarray, gram: GramMatrix, P: np.ndarray, o: list,
           cache_last: bool = True) -> float:
    """One pass over the streams in natural order. Stream t is re-solved
    against T = I + sum_{s != t} o_s, where o_s = c (D_s P_s)(D_s P_s)^H is
    cached when stream s is designed and None before that: it diagonalizes
    Q = D_t^H T^{-1} D_t and water-fills inside that eigenbasis with the
    stream's budget MN. Writes P's diagonal blocks and o in place. Without
    `cache_last` the last stream's o, which only a later pass reads, is not
    formed.
    """
    n = gram.size
    for t in range(cfg.n_tx):
        # ascending s: the streams re-solved in this pass, then the later ones
        T = np.eye(D.shape[0], dtype=complex)
        for s in range(cfg.n_tx):
            if s != t and o[s] is not None:
                T += o[s]
        a_t = D[:, t * n:(t + 1) * n]
        p_t, _ = fill_modes(*modes(a_t.conj().T @ np.linalg.solve(T, a_t), gram.matrix),
                            cfg.sigma_x2, cfg.N0)
        P[t * n:(t + 1) * n, t * n:(t + 1) * n] = p_t
        if cache_last or t < cfg.n_tx - 1:
            b = a_t @ p_t
            o[t] = cfg.snr * (b @ b.conj().T)


def sic_precode(cfg: SystemConfig, D: np.ndarray, gram: GramMatrix):
    """One :func:`_sweep` from empty streams: stream t sees the interference of
    the streams before it only.

    Each stream gets the budget MN (grid size), the SISO constraint per
    stream; with one antenna the single stream is the SISO problem. T stays
    >= I throughout, so the linear solves are well posed and no explicit
    inverse is ever formed. This pass is also the first sweep of
    :func:`wf_structured`. Returns (P, normalized capacity) with the bits
    log2 det(I + c D P P^H D^H) taken directly: the per-stream bits they
    telescope to (:func:`per_stream_rates`) lose digits in T's solves at high SNR.
    """
    _check_mimo_args(cfg, D, gram)
    P = np.zeros((D.shape[1],) * 2, dtype=complex)
    _sweep(cfg, D, gram, P, [None] * cfg.n_tx, cache_last=False)
    return P, normalized_capacity(_logdet_bits(cfg, D, P), cfg)


def per_stream_rates(cfg: SystemConfig, D: np.ndarray, p_blocks) -> np.ndarray:
    """log2 det(I + c P_t^H Q_t P_t) per stream for an arbitrary block precoder.

    Stream t sees the streams before it, as in the SIC sweep, so summing the
    returned rates must reproduce log2 det(I + c D P P^H D^H) exactly. The
    blocks must be square and tile D's columns.
    """
    if cfg.N0 <= 0.0:
        raise ConfigError("per-stream rates need N0 > 0")
    p_blocks = [np.asarray(p) for p in p_blocks]
    n = D.shape[1] // len(p_blocks) if p_blocks else 0
    if n == 0 or n * len(p_blocks) != D.shape[1] or any(p.shape != (n, n) for p in p_blocks):
        raise ConfigError(f"blocks of shapes {[p.shape for p in p_blocks]} do not tile "
                          f"the {D.shape[1]} columns of D with square blocks")
    c = cfg.snr
    T = np.eye(D.shape[0], dtype=complex)
    rates = np.empty(len(p_blocks))
    for t, p_t in enumerate(p_blocks):
        b = D[:, t * n:(t + 1) * n] @ p_t
        rates[t] = _log2det(c, b.conj().T @ np.linalg.solve(T, b))
        T = T + c * (b @ b.conj().T)
    return rates


def _log2det(c: float, k: np.ndarray) -> float:
    """log2 det(I + c K) for a Hermitian PSD K as log1p of its eigenvalues, which,
    unlike a determinant of I + c K, keeps its relative accuracy for c K << I."""
    return float(np.sum(np.log1p(c * np.maximum(np.linalg.eigvalsh(k), 0.0)))) / LN2


def _logdet_bits(cfg: SystemConfig, D: np.ndarray, P: np.ndarray) -> float:
    """log2 det(I + c B^H B), B = D P, on the smaller Gram side of B."""
    b = D @ P
    return _log2det(cfg.snr, b.conj().T @ b if b.shape[1] <= b.shape[0] else b @ b.conj().T)


def wf_baseline(cfg: SystemConfig, D: np.ndarray, gram: GramMatrix):
    """Relaxed water-filling benchmark with an unstructured precoder.

    Diagonalizes D^H D jointly, weights the pooled budget n_tx * MN by
    phi = diag(U^H (I (x) G) U) and water-fills once. The precoder mixes
    streams freely, so this upper-bounds what the per-stream
    design should approach at high SNR. Returns (P, normalized capacity).
    """
    _check_mimo_args(cfg, D, gram)
    return relaxed_fill(cfg, *modes(D.conj().T @ D, gram.matrix, cfg.n_tx))


def wf_structured(cfg: SystemConfig, D: np.ndarray, gram: GramMatrix, max_sweeps: int = 30):
    """Block-diagonal water-filling by repeated :func:`_sweep` passes.

    The first sweep is :func:`sic_precode`; each later sweep re-solves every
    stream against the interference of all the others. A re-solve
    water-fills with the Gram weights in the stream's own eigenbasis, a
    coordinate maximization only where the Gram commutes with the stream's
    form, so a sweep can lose bits. It stops after `max_sweeps` sweeps in
    all, once a sweep gains at most STRUCTURED_TOL relative bits (the SIC
    sweep is measured against 0 bits), or once one loses bits, and then
    keeps the sweep before it: it never reports less than SIC. Returns (P,
    normalized capacity).
    """
    if not is_integer(max_sweeps) or max_sweeps < 1:
        raise ConfigError(f"max_sweeps must be a positive integer, got {max_sweeps!r}")
    _check_mimo_args(cfg, D, gram)
    P = np.zeros((D.shape[1],) * 2, dtype=complex)
    o = [None] * cfg.n_tx
    best, best_bits = P, 0.0
    for _ in range(max_sweeps):
        _sweep(cfg, D, gram, P, o)
        bits = _logdet_bits(cfg, D, P)
        if bits < best_bits:
            return best, normalized_capacity(best_bits, cfg)
        if bits - best_bits <= STRUCTURED_TOL * max(1.0, abs(bits)):
            break
        best, best_bits = P.copy(), bits
    return P, normalized_capacity(bits, cfg)
