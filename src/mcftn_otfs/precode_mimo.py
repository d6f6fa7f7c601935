"""Per-stream SIC precoding and water-filling baselines for the MIMO link.

The stacked whitened channel D = (I (x) G^{-1/2} A^H) H couples all transmit
streams. One stream sweep serves both block-diagonal designs: stream t sees
the other designed streams through their columns b = [D_s P_s]_{s != t},
water-fills inside the eigenbasis of its own quadratic form

    Q_t = D_t^H (I + (sigma_x^2/N0) b b^H)^{-1} D_t,

taken from the thin SVD of b (:func:`_stream_form`) so that its small
eigenvalues keep their relative accuracy at any SNR. SIC, the
low-complexity design, is one sweep from empty streams: stream t sees only
the streams before it, and the stream bits telescope to
log2 det(I + c D P P^H D^H), as they do for any block-column split of P.

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
from .precode_siso import fill_modes, mode_bits, modes, normalized_capacity, relaxed_fill

STRUCTURED_TOL = 1e-9   # relative gain in bits below which wf_structured stops


def build_mimo_effective(gram: GramMatrix, h_mimo: np.ndarray, sfft: np.ndarray,
                         n_rx: int) -> np.ndarray:
    """Whitened stacked channel (I (x) G^{-1/2} A^H) H, every block row in one product."""
    h_mimo = np.asarray(h_mimo, dtype=complex)
    n = gram.size
    if h_mimo.shape[0] != n_rx * n or h_mimo.shape[1] % n != 0:
        raise ConfigError(f"stacked channel shape {h_mimo.shape} does not tile {n}-sized blocks")
    return (gram.whitening(sfft) @ h_mimo.reshape(n_rx, n, -1)).reshape(h_mimo.shape)


def _check_mimo_args(cfg: SystemConfig, D: np.ndarray, gram: GramMatrix) -> None:
    """Validate a stream design's inputs."""
    if cfg.N0 <= 0.0:
        raise ConfigError("stream design needs N0 > 0")
    n = gram.size
    if D.shape != (cfg.n_rx * n, cfg.n_tx * n):
        raise ConfigError(f"effective channel shape {D.shape} does not match config")


def _stream_form(a: np.ndarray, b: np.ndarray, c: float) -> np.ndarray:
    """a^H (I + c b b^H)^{-1} a from the thin SVD b = U S V^H: a's part outside
    b's span plus its part inside scaled by 1/sqrt(1 + c s^2), two PSD terms.
    Nothing is inverted or solved, and zero singular values are exact."""
    u, s, _ = np.linalg.svd(b, full_matrices=False)
    x = u.conj().T @ a
    perp = a - u @ x
    y = x / np.sqrt(1.0 + c * s * s)[:, None]
    return perp.conj().T @ perp + y.conj().T @ y


def _sweep(cfg: SystemConfig, D: np.ndarray, gram: GramMatrix, P: np.ndarray) -> float:
    """One pass over the streams in natural order. Stream t water-fills with
    the budget MN in the eigenbasis of its form against the nonzero columns
    of the other streams' D_s P_s (streams not designed yet are zero). Writes
    P's diagonal blocks in place; returns the summed stream bits, which are
    P's log det on a sweep from empty streams."""
    n = gram.size
    blocks = [slice(t * n, (t + 1) * n) for t in range(cfg.n_tx)]
    B = np.concatenate([D[:, k] @ P[k, k] for k in blocks], axis=1)
    bits = 0.0
    for t, k in enumerate(blocks):
        live = B.any(axis=0)
        live[k] = False
        p_t, bits_t = fill_modes(*modes(_stream_form(D[:, k], B[:, live], cfg.snr), gram.matrix),
                                 cfg.sigma_x2, cfg.N0)
        P[k, k] = p_t
        B[:, k] = D[:, k] @ p_t
        bits += bits_t
    return bits


def sic_precode(cfg: SystemConfig, D: np.ndarray, gram: GramMatrix):
    """One :func:`_sweep` from empty streams: stream t sees the interference of
    the streams before it only.

    Each stream gets the budget MN (grid size), the SISO constraint per
    stream; with one antenna the single stream is the SISO problem. This pass
    is also the first sweep of :func:`wf_structured`. Returns (P, normalized
    capacity) with the summed stream bits: log2 det(I + c D P P^H D^H) to
    relative accuracy at any SNR, split as in :func:`per_stream_rates`.
    """
    _check_mimo_args(cfg, D, gram)
    P = np.zeros((D.shape[1],) * 2, dtype=complex)
    return P, normalized_capacity(_sweep(cfg, D, gram, P), cfg)


def per_stream_rates(cfg: SystemConfig, D: np.ndarray, p_blocks) -> np.ndarray:
    """log2 det(I + c P_t^H Q_t P_t) per stream for an arbitrary block precoder.

    Stream t sees the streams before it, as in the SIC sweep, through
    :func:`_stream_form`, so summing the returned rates reproduces
    log2 det(I + c D P P^H D^H) to relative accuracy. The blocks must be
    square and tile D's columns.
    """
    if cfg.N0 <= 0.0:
        raise ConfigError("per-stream rates need N0 > 0")
    p_blocks = [np.asarray(p) for p in p_blocks]
    n = D.shape[1] // len(p_blocks) if p_blocks else 0
    if n == 0 or n * len(p_blocks) != D.shape[1] or any(p.shape != (n, n) for p in p_blocks):
        raise ConfigError(f"blocks of shapes {[p.shape for p in p_blocks]} do not tile "
                          f"the {D.shape[1]} columns of D with square blocks")
    c = cfg.snr
    B = np.concatenate([D[:, t * n:(t + 1) * n] @ p_t for t, p_t in enumerate(p_blocks)], axis=1)
    return np.array([_log2det(cfg, _stream_form(B[:, k:k + n], B[:, :k], c))
                     for k in range(0, D.shape[1], n)])


def _log2det(cfg: SystemConfig, k: np.ndarray) -> float:
    """log2 det(I + c K), c = cfg.snr, for a Hermitian PSD K: `mode_bits` of its eigenvalues,
    which, unlike a determinant of I + c K, keeps its relative accuracy for c K << I."""
    return mode_bits(1.0, np.maximum(np.linalg.eigvalsh(k), 0.0), cfg.sigma_x2, cfg.N0)


def _logdet_bits(cfg: SystemConfig, D: np.ndarray, P: np.ndarray) -> float:
    """log2 det(I + c B^H B), B = D P, on the smaller Gram side of B."""
    b = D @ P
    return _log2det(cfg, b.conj().T @ b if b.shape[1] <= b.shape[0] else b @ b.conj().T)


def wf_baseline(cfg: SystemConfig, D: np.ndarray, gram: GramMatrix):
    """Relaxed water-filling benchmark with an unstructured precoder.

    Diagonalizes D^H D jointly, weights the pooled budget n_tx * MN by
    phi = diag(U^H (I (x) G) U) and water-fills once. The precoder mixes
    streams freely, so this upper-bounds what the per-stream
    design should approach at high SNR. Returns (P, normalized capacity).
    """
    _check_mimo_args(cfg, D, gram)
    return relaxed_fill(cfg, *modes(D.conj().T @ D, gram.matrix))


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
    best, best_bits = P, 0.0
    for sweep in range(max_sweeps):
        bits = _sweep(cfg, D, gram, P)
        if sweep:   # later streams saw the old designs, so count P's own log det
            bits = _logdet_bits(cfg, D, P)
        if bits < best_bits:
            return best, normalized_capacity(best_bits, cfg)
        if bits - best_bits <= STRUCTURED_TOL * max(1.0, abs(bits)):
            break
        best, best_bits = P.copy(), bits
    return P, normalized_capacity(bits, cfg)
