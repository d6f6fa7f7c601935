"""Root raised cosine pulse, cross-ambiguity quadrature and the lattice assembler.

Compressing the symbol interval to alpha*T0 and the carrier spacing to
beta*delta_f0 makes the transmit pulses non-orthogonal. Both that
non-orthogonality and the channel's dispersion are cross-ambiguity values

    A(f, tau) = integral g(t - tau) g(t) exp(-2j pi f (t - tau)) dt

on the lattice f = dm * beta * delta_f0, tau = dn * alpha * T0, shifted by
each path's Doppler and delay. `coupling_matrix` assembles them for a set of
(gain, delay, doppler) paths; the pulse Gram is the coupling of the unit
path (1, 0, 0). The Gram is Hermitian PSD with unit diagonal; its
eigendecomposition (with a relative floor that deactivates numerically dead
modes) provides the inverse square root used for whitening and precoding,
and the eigenpairs from which `noise` forms the square root.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import groupby, islice
from numbers import Number, Real
from operator import itemgetter

import numpy as np

from .core import (ConfigError, DegenerateConfigurationError, NumericalError, SystemConfig,
                   is_finite, is_integer, sfft_matrix)

SPAN = 32    # truncation half-width of every pulse, in units of T0
# nodes per ambiguity_table chunk: keeps each temporary near 0.5 MiB at any grid
_CHUNK_NODES = 2 ** 15
# most quadrature nodes per T0: one chunk then holds a whole row of the 2*SPAN*T0 grid
MAX_NODES_PER_T0 = _CHUNK_NODES // (2 * SPAN)


@lru_cache(maxsize=16)
def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(order)


def _panel_rule(lo: np.ndarray, hi: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """`order` Gauss-Legendre nodes and weights on each panel [lo, hi]; empty panels weigh 0."""
    x, w = _gl_rule(order)
    half = 0.5 * np.maximum(hi - lo, 0.0)
    return lo + half * (x + 1.0), half * w


@dataclass(frozen=True)
class RrcPulse:
    """Unit-energy root raised cosine pulse, truncated to |t| <= SPAN*T0 = 32*T0.

    The closed form (T0 the Nyquist interval, theta the roll-off):

        g(t) = (1/sqrt(T0)) [sin(pi u (1-theta)) + 4 theta u cos(pi u (1+theta))]
                            / [pi u (1 - (4 theta u)^2)],   u = t/T0

    with its removable singularities at u = 0 and |u| = 1/(4 theta) taken in
    closed form. The truncated pulse is renormalized to unit energy over its
    support: the amplitude tails decay like 1/t^2, so the raw truncation at
    32*T0 would leave about 1e-6 of energy outside and poison every
    unit-energy invariant downstream; renormalizing pins A(0, 0) = 1 and the
    Gram diagonal at quadrature precision instead. At theta = 0 the same
    form is sin(pi u)/(pi u), a sinc whose 1/t tails defeat the truncation
    entirely; it is only usable on the uncompressed grid (alpha = beta = 1).

    The energy normalization and every ambiguity integral run on one grid,
    cached per pulse: `_panel_rule` panels of `nodes_per_t0` nodes, one per T0
    of the support. The offset it resolves grows with the node count, which
    `lattice_pulse` sets from the largest offset on a config's lattice; the
    default of 64 serves direct calls and resolves offsets up to about 19/T0.
    """

    theta: float
    T0: float = 1.0
    nodes_per_t0: int = 64    # quadrature nodes per T0 of overlap

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigError(f"theta must lie in [0, 1], got {self.theta}")
        if not (is_finite(self.T0) and self.T0 > 0.0):
            raise ConfigError(f"T0 must be finite and positive, got {self.T0!r}")
        if not is_integer(self.nodes_per_t0) or not 2 <= self.nodes_per_t0 <= MAX_NODES_PER_T0:
            raise ConfigError(f"nodes_per_t0 must be an integer from 2 to {MAX_NODES_PER_T0}, "
                              f"got {self.nodes_per_t0!r}")

    @property
    def support(self) -> float:
        """Half-width of the truncated support."""
        return SPAN * self.T0

    @cached_property
    def _grid(self) -> tuple[np.ndarray, ...]:
        # nodes t, weights w, and six rows from which the numerator of g(t - tau)
        # follows for any tau by angle addition: sin, cos of pi (1 - theta) t / T0,
        # cos, sin of pi (1 + theta) t / T0, and t times that last pair
        edges = self.T0 * np.arange(-SPAN, SPAN + 1.0)[:, None]
        t, w = (a.ravel() for a in _panel_rule(edges[:-1], edges[1:], self.nodes_per_t0))
        phase = np.pi * t / self.T0
        minus, plus = (1.0 - self.theta) * phase, (1.0 + self.theta) * phase
        cos_plus, sin_plus = np.cos(plus), np.sin(plus)
        return t, w, np.stack([np.sin(minus), np.cos(minus), cos_plus, sin_plus,
                               t * cos_plus, t * sin_plus])

    @cached_property
    def _norm(self) -> float:
        # 1/sqrt of the raw pulse's energy on the grid, which makes A(0, 0) exactly 1
        t, w, _ = self._grid
        return 1.0 / np.sqrt(float(w @ self._raw_amplitude(t) ** 2))

    @cached_property
    def _weighted(self) -> np.ndarray:
        # g(t) times its quadrature weight and the norm of g(t - tau): the factor
        # every ambiguity integrand shares on the grid
        t, w, _ = self._grid
        return self._norm ** 2 * w * self._raw_amplitude(t)

    def _raw_amplitude(self, t: np.ndarray) -> np.ndarray:
        scale = 1.0 / np.sqrt(self.T0)
        th = self.theta
        au = np.abs(t / self.T0)
        eps = 1.0 - 4.0 * th * au
        inside = np.abs(t) <= self.support
        # near |u| = 1/(4 theta) numerator and denominator both carry the
        # factor eps = 1 - 4 theta |u| and cancel in floating point; within
        # |eps| < 1/2 use the sum-to-product form of numerator / eps, which
        # has no singularity, with pi |u| (1 + theta) = pi (|u| + 1/4 - eps/4).
        # The quarter shifts and the removal of whole periods of cos(pi x)
        # are exact in binary, so the cosines lose no digits to a large |u|.
        band = inside & (np.abs(eps) < 0.5)
        ub, eb = au[band], eps[band]
        x1, x2 = ub - 0.25, ub + 0.25
        x1 -= 2.0 * np.round(0.5 * x1)
        x2 -= 2.0 * np.round(0.5 * x2)
        bracket = (0.5 * np.pi * np.sinc(0.25 * eb) * np.cos(np.pi * x1)
                   - np.cos(np.pi * (x2 - 0.25 * eb)))
        out = np.zeros_like(au)
        out[band] = scale * bracket / (np.pi * ub * (1.0 + 4.0 * th * ub))

        # the closed form on the rest of the support, in place where possible:
        # at quadrature sizes the temporaries, not the arithmetic, dominate the cost
        plain = inside & ~band
        pu = np.pi * au[plain]
        a = 4.0 * th * au[plain]
        den = np.subtract(1.0, a * a)
        den *= pu
        value = pu * (1.0 - th)
        np.sin(value, out=value)
        pu *= 1.0 + th
        np.cos(pu, out=pu)
        pu *= a
        value += pu
        value *= scale
        with np.errstate(divide="ignore", invalid="ignore"):
            value /= den
        out[plain] = value
        out[au < 1e-8] = scale * (1.0 - th + 4.0 * th / np.pi)
        return out

    def amplitude(self, t) -> np.ndarray:
        """Pulse value g(t), vectorized; zero outside the truncated support."""
        t = np.asarray(t, dtype=float)
        out = self._norm * self._raw_amplitude(t.reshape(-1)).reshape(t.shape)
        return out if out.ndim else float(out)

    @cached_property
    def _reach(self) -> float:
        # how far past tau the window of directly evaluated nodes of g(t - tau)
        # reaches: one T0 past |u| = max(1.5, 3 / (8 theta))
        return self.T0 * (1.0 + (max(1.5, 0.375 / self.theta) if self.theta > 0.0 else 1.5))

    def _ambiguities(self, taus: np.ndarray, dopplers: np.ndarray, carriers: np.ndarray,
                     f_step: float) -> np.ndarray:
        """A(dm f_step - dopplers[b, i], taus[b, i]) for the 2M-1 offsets dm = 1-M .. M-1,
        for (tables, rows) arrays of delays and Dopplers, given
        carriers[k, j] = exp(-2j pi dm_j f_step t_k) on the grid nodes t.

        `_rows` integrates groups of whole tables: as many as keep a group's
        direct-evaluation windows within half a chunk of nodes (about a dozen
        arrays of them are live at once), and at least one; a longer table
        goes in runs of whole chunks, at least one. So no temporary grows with
        the rows of a call, and since every table is chunked from its first
        row, a row's value does not depend on its group.
        """
        n_tables, rows = taus.shape
        size = max(1, _CHUNK_NODES // len(self._grid[0]))    # rows per GEMM chunk
        window = int(2.0 * self._reach / self.T0 * self.nodes_per_t0) + 1    # nodes per row
        most = _CHUNK_NODES // (2 * window)    # rows per group
        per_group = max(1, most // max(1, rows))    # whole tables
        run = max(1, rows) if rows <= most else max(1, most // size) * size    # or whole chunks
        out = np.empty((n_tables, rows, carriers.shape[1]), dtype=complex)
        for b in range(0, n_tables, per_group):
            for r in range(0, rows, run):
                group = np.s_[b:b + per_group, r:r + run]
                out[group] = self._rows(taus[group], dopplers[group], carriers, f_step)
        return out

    def _rows(self, taus: np.ndarray, dopplers: np.ndarray, carriers: np.ndarray,
              f_step: float) -> np.ndarray:
        """`_ambiguities` of one group, a (tables, rows) block of delays and Dopplers.

        Each table's rows enter the GEMMs in chunks of _CHUNK_NODES grid
        nodes counted from its first row, so the BLAS sees the same operands
        (a one-row chunk goes to GEMV) whichever tables share the group.
        g(t - tau) follows from the grid rows by angle addition (its numerator
        is one small GEMM per chunk), except where that cancels (u =
        (t - tau)/T0 near 0 and |1 - 4 theta |u|| < 1/2): there, inside a
        window of each row, the pulse is evaluated directly. The grid panels
        inside the overlap of g(t) and g(t - tau) enter one GEMM per chunk,
        each row weighted by exp(2j pi doppler t), formed for that chunk's
        rows only; the panel cut by the truncation edge of g(t - tau) gets its
        own nodes, whose carriers run along dm by angle addition. A row
        without overlap is an exact zero.
        """
        t, _, grid_rows = self._grid
        th, T0, S, n = self.theta, self.T0, self.support, self.nodes_per_t0
        n_off, rows = carriers.shape[1], taus.shape[1]
        size = max(1, _CHUNK_NODES // len(t))
        taus, dopplers = taus.ravel(), dopplers.ravel()
        f_values = (np.arange(n_off) - (n_off - 1) // 2) * f_step - dopplers[:, None]

        right = taus >= 0.0    # g(t - tau) is cut at tau - S, else at tau + S
        edge = np.where(right, taus - S, taus + S)
        a = np.floor((edge + S) / T0) * T0 - S    # the grid panel [a, a + T0] it cuts
        t_edge, w_edge = _panel_rule(np.where(right, edge, a)[:, None],
                                     np.where(right, a + T0, edge)[:, None], n)
        # the grid panels inside the overlap: t > a + T0, else t < a
        cut = np.where(right, np.searchsorted(t, a + T0, side="right"),
                       np.searchsorted(t, a, side="left"))
        # the direct nodes, by the exact test, inside a window of each row
        lo = np.searchsorted(t, taus - self._reach)
        width = np.max(np.searchsorted(t, taus + self._reach) - lo, initial=0)
        window = np.minimum(lo[:, None] + np.arange(width), len(t) - 1)
        s = t[window] - taus[:, None]
        u = s / T0
        i, j = np.nonzero((np.abs(u) <= 1.5) | (np.abs(1.0 - 4.0 * th * np.abs(u)) < 0.5))
        direct, cols = s[i, j], window[i, j]
        del s, u, window, j
        # one direct evaluation for those nodes and both factors on the edge panels
        values = self._raw_amplitude(np.concatenate([direct, t_edge, t_edge - taus[:, None]],
                                                    axis=None))
        direct = values[:i.size]

        # g(t - tau) = numerator / (scale s (1 - (k s)^2)), s = t - tau
        k = 4.0 * th / T0
        scale = np.pi * np.sqrt(T0) / T0
        minus, plus = np.pi * (1.0 - th) / T0 * taus, np.pi * (1.0 + th) / T0 * taus
        cos_plus, sin_plus = np.cos(plus), np.sin(plus)
        coef = np.stack([np.cos(minus), -np.sin(minus), -k * taus * cos_plus,
                         -k * taus * sin_plus, k * cos_plus, k * sin_plus], axis=1) / scale
        out = np.empty((len(taus), n_off), dtype=complex)
        for first in range(0, len(taus), rows):    # each table, in chunks from its first row
            for r in range(first, first + rows, size):
                chunk = slice(r, min(r + size, first + rows))
                g = coef[chunk] @ grid_rows
                s = t - taus[chunk, None]
                with np.errstate(divide="ignore", invalid="ignore"):
                    g /= s
                    s *= s
                    s *= -k * k
                    s += 1.0
                    g /= s
                del s    # before the complex integrand, which sets the chunk's peak memory
                nodes = slice(*np.searchsorted(i, [chunk.start, chunk.stop]))
                g[i[nodes] - r, cols[nodes]] = direct[nodes]
                for row, c, keep_after in zip(g, cut[chunk], right[chunk]):
                    if keep_after:
                        row[:c] = 0.0
                    else:
                        row[c:] = 0.0
                integrand = self._phased(dopplers[chunk])
                integrand *= g
                out[chunk] = integrand @ carriers
        # the edge panels: exp(-2j pi f t_edge) along the offsets by angle
        # addition, one exp for the first offset and one for the step
        term = (self._norm ** 2 * w_edge * values[i.size:].reshape(2, -1, n).prod(axis=0)
                * np.exp(-2j * np.pi * f_values[:, :1] * t_edge))
        step = np.exp(-2j * np.pi * f_step * t_edge)
        for column in out.T:
            column += term.sum(axis=1)
            term *= step
        # the carriers ran in t; A takes its phase in t - tau. Out of place and
        # with the exp named, so that numpy elides no temporary: multiplied in
        # place, a one-element product can round its last bit differently
        phase = np.exp(2j * np.pi * taus[:, None] * f_values)
        return (out * phase).reshape(-1, rows, n_off)

    def _phased(self, dopplers: np.ndarray) -> np.ndarray:
        """g(t) w exp(2j pi doppler t) on the grid, one row per Doppler.

        The phase is that of the node's panel start times that of its offset
        in the panel, taken once per distinct Doppler (found with a dict, not
        np.unique: its first call imports numpy.ma, about 2 MiB of resident
        memory) and gathered to the rows.
        """
        t, T0, n = self._grid[0], self.T0, self.nodes_per_t0
        index = {}
        which = [index.setdefault(v, len(index)) for v in dopplers.tolist()]
        turns = 2j * np.pi * np.array(list(index), dtype=float)[:, None]
        weighted = (np.exp(turns * T0 * np.arange(-SPAN, SPAN))[:, :, None]
                    * np.exp(turns * (t[:n] + self.support))[:, None, :]).reshape(len(index), -1)
        weighted *= self._weighted
        return weighted[which]

    def ambiguity_batch(self, f_values: np.ndarray, tau: float) -> np.ndarray:
        """A(f, tau) for a batch of frequency offsets at one delay offset, exactly
        zero once g(t) and g(t - tau) no longer overlap: one row of `_ambiguities`
        per offset, which enters as that row's Doppler at the single offset dm = 0."""
        f_values = np.asarray(f_values, dtype=float).ravel()
        carrier = np.ones((len(self._grid[0]), 1))
        return self._ambiguities(np.full((1, f_values.size), float(tau)), -f_values[None],
                                 carrier, 0.0)[0, :, 0]


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Pulse Gram with its eigendecomposition and inverse square root.

    Eigenvalues are stored in descending order. Modes whose eigenvalue falls
    below FLOOR_REL times the largest eigenvalue are deactivated: they are
    excluded from `inv_sqrt`, which projects onto the active subspace. The
    arrays are read-only: `build_gram` hands one Gram to every caller.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray          # descending, real
    eigenvectors: np.ndarray         # columns match eigenvalue order
    active: np.ndarray               # bool mask over modes

    FLOOR_REL = 1e-10
    PSD_TOL = 1e-8
    HERMITIAN_TOL = 1e-10

    @classmethod
    def from_matrix(cls, g: np.ndarray) -> "GramMatrix":
        """Validate and decompose a Gram candidate.

        Raises NumericalError if the matrix is visibly non-Hermitian or
        indefinite beyond tolerance, DegenerateConfigurationError if every
        mode falls below the eigenvalue floor.
        """
        g = np.asarray(g, dtype=complex)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ConfigError(f"gram matrix must be square, got shape {g.shape}")
        asym = np.max(np.abs(g - g.conj().T))
        scale = max(1.0, float(np.max(np.abs(g))))
        if asym > cls.HERMITIAN_TOL * scale:
            raise NumericalError(f"gram matrix asymmetry {asym:.3e} exceeds tolerance")
        herm = 0.5 * (g + g.conj().T)
        evals, evecs = np.linalg.eigh(herm)
        evals = evals[::-1]
        evecs = evecs[:, ::-1]
        lam_max = float(evals[0])
        if lam_max <= 0.0:
            raise DegenerateConfigurationError("gram matrix has no positive eigenvalue")
        if float(evals[-1]) < -cls.PSD_TOL * lam_max:
            raise NumericalError(
                f"gram matrix indefinite: min eigenvalue {evals[-1]:.3e} "
                f"vs max {lam_max:.3e}"
            )
        floor = cls.FLOOR_REL * lam_max
        active = evals >= floor
        if not np.any(active):
            raise DegenerateConfigurationError("all gram eigenvalues below the floor")

        for a in (herm, evals, evecs, active):
            a.flags.writeable = False
        return cls(matrix=herm, eigenvalues=evals, eigenvectors=evecs, active=active)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def inv_sqrt(self) -> np.ndarray:
        """G^{-1/2} on the active modes, formed from the eigenpairs at each access."""
        floor = self.FLOOR_REL * float(self.eigenvalues[0])
        inv_diag = np.where(self.active, 1.0 / np.sqrt(np.maximum(self.eigenvalues, floor)), 0.0)
        return (self.eigenvectors * inv_diag) @ self.eigenvectors.conj().T

    def whitening(self, sfft: np.ndarray) -> np.ndarray:
        """G^{-1/2} A^H for the SFFT matrix `sfft`. A Gram from `build_gram` keeps it, read-only,
        for its grid's cached `core.sfft_matrix` only; any other `sfft` gets its own product."""
        kept, w = vars(self).get("_whitening", (None, None))
        if sfft is not kept or w is None:
            w = self.inv_sqrt @ sfft.conj().T
            if sfft is kept:
                w.flags.writeable = False
                vars(self)["_whitening"] = (sfft, w)
        return w

    @property
    def n_active(self) -> int:
        return int(np.count_nonzero(self.active))

    @property
    def condition_number(self) -> float:
        """Ratio of the largest eigenvalue to the smallest active one."""
        active_vals = self.eigenvalues[self.active]
        return float(active_vals[0] / active_vals[-1])


@lru_cache(maxsize=16)
def _carriers(pulse: RrcPulse, f_step: float, M: int) -> np.ndarray:
    """exp(-2j pi dm f_step t) on the grid nodes t, (nodes, 2M-1) for dm = 1-M .. M-1."""
    carriers = np.exp(-2j * np.pi * np.outer(pulse._grid[0], np.arange(1 - M, M) * f_step))
    carriers.flags.writeable = False
    return carriers


def ambiguity_table(pulse, cfg: SystemConfig, delays: np.ndarray,
                    doppler: float | np.ndarray = 0.0) -> np.ndarray:
    """A(dm*beta*delta_f0 - doppler, tau) for all grid offsets.

    Returns a (len(delays), 2M-1) table indexed by [dn + N - 1, dm + M - 1]
    when `delays` is the signed tau lattice. A 2-D `delays` holds several
    tables, one per row, and gives a (tables, rows, 2M-1) array; each table
    is the same, bit for bit, as when it is computed alone. `doppler` is one
    value for every row or one value per delay. The carriers are cached per
    (pulse, beta*delta_f0, M); each distinct Doppler of a chunk of rows
    costs one exp per grid node. `coupling_matrices` fills the MN x MN
    matrices of several path sets from one call, a table per set.
    """
    f_step = cfg.beta * cfg.delta_f0
    delays = np.atleast_1d(np.asarray(delays, dtype=float))
    dopplers = np.asarray(doppler, dtype=float)
    if delays.ndim > 2:
        raise ConfigError(f"delays must be one table or a 2-D stack of tables, "
                          f"got shape {delays.shape}")
    if dopplers.ndim and dopplers.shape != delays.shape:
        raise ConfigError(f"doppler must be one value or one per delay ({delays.shape}), "
                          f"got shape {dopplers.shape}")
    stacked = np.atleast_2d(delays)
    dopplers = np.broadcast_to(dopplers, delays.shape).reshape(stacked.shape)
    tables = pulse._ambiguities(stacked, dopplers, _carriers(pulse, f_step, cfg.M), f_step)
    return tables if delays.ndim == 2 else tables[0]


@lru_cache(maxsize=16)
def _cached_pulse(theta: float, T0: float, nodes_per_t0: int) -> RrcPulse:
    return RrcPulse(theta, T0, nodes_per_t0=nodes_per_t0)


def lattice_pulse(cfg: SystemConfig, dopplers) -> RrcPulse:
    """The pulse of `cfg`, with enough quadrature nodes for its lattice.

    The largest frequency offset an ambiguity integral on the grid sees is
    fmax = (M-1)*beta*delta_f0 + max(nu_max, max |doppler|) over the given
    path Dopplers; the rule takes ceil(2.5*fmax*T0) + 16 Gauss-Legendre
    nodes per T0 (the 16 resolve the pulse product itself, the slope the
    carrier phase ramp), and ConfigError if that exceeds what RrcPulse
    accepts. Its tables agree with 128-node ones to about 1e-14
    from 1xN up to 16x16 at alpha = beta = 1 and roll-offs 0.05 to 1; at
    that 16x16 grid a fixed 24 nodes is off by 0.2. Pulses are cached per
    (theta, T0, nodes), so the Gram and every channel of a config share one
    quadrature grid, normalization and carrier table.
    """
    if cfg.theta == 0.0 and (cfg.alpha != 1.0 or cfg.beta != 1.0):
        raise ConfigError(
            "theta = 0 raised cosine tails decay like 1/t and defeat truncation; "
            "use a small positive roll-off for compressed grids"
        )
    fmax = (cfg.M - 1) * cfg.beta * cfg.delta_f0 + max([cfg.nu_max, *map(abs, dopplers)])
    nodes = int(np.ceil(2.5 * fmax * cfg.T0)) + 16
    if nodes > MAX_NODES_PER_T0:
        raise ConfigError(f"a largest frequency offset of {fmax:g} (carriers and Doppler) "
                          f"needs {nodes} quadrature nodes per T0, more than the "
                          f"{MAX_NODES_PER_T0} a pulse holds")
    return _cached_pulse(cfg.theta, cfg.T0, nodes)


def _checked_paths(paths) -> list:
    """`paths` as a list of (gain, delay, doppler) triples of finite numbers, else ConfigError."""
    checked = []
    for path in paths:
        try:
            gain, delay, doppler = path
        except (TypeError, ValueError):
            raise ConfigError(f"a path must be a (gain, delay, doppler) triple, "
                              f"got {path!r}") from None
        if not (isinstance(gain, Number) and all(isinstance(v, Real) for v in (delay, doppler))
                and not any(isinstance(v, bool) for v in (gain, delay, doppler))):
            raise ConfigError(f"path gain, delay and doppler must be numbers "
                              f"(delay and doppler real), got {path!r}")
        if not all(map(is_finite, (gain.real, gain.imag, delay, doppler))):
            raise ConfigError(f"path gain, delay and doppler must be finite, got {path!r}")
        checked.append((gain, delay, doppler))
    return checked


def coupling_matrices(cfg: SystemConfig, path_sets) -> Iterator[np.ndarray]:
    """`coupling_matrix` of each path set in `path_sets`, in order.

    The sets are taken lazily, a call's worth at a time, and each call's
    sets are checked before its quadrature. Consecutive sets with as many
    paths and the same lattice pulse (so all sets of draws whose Dopplers
    lie within nu_max) share `ambiguity_table` calls, a table per set, so a
    set's matrix is the same, bit for bit, whichever sets share its call. A
    call holds as many sets of one such run as keep their table rows times
    the pulse's nodes per T0 within one quadrature chunk, and at least one.
    Each matrix is gathered and phased when it is asked for, one at a time;
    the (2N-1)(2M-1) table values per path of one call are held, no matrix
    handed out.
    """
    keyed = ((lattice_pulse(cfg, [doppler for _, _, doppler in paths]), len(paths), paths)
             for paths in map(_checked_paths, path_sets))
    for (pulse, count), run in groupby(keyed, key=itemgetter(0, 1)):
        per_call = max(1, _CHUNK_NODES // max(1, count * (2 * cfg.N - 1) * pulse.nodes_per_t0))
        run = map(itemgetter(2), run)
        while sets := list(islice(run, per_call)):
            yield from _assemble(cfg, pulse, sets)


def _assemble(cfg: SystemConfig, pulse: RrcPulse, sets: list) -> Iterator[np.ndarray]:
    """The coupling matrices of checked path sets of one size on one pulse, from one call."""
    M, N = cfg.M, cfg.N
    count = len(sets[0])
    if not count:
        yield from (np.zeros((cfg.mn, cfg.mn), dtype=complex) for _ in sets)
        return
    f_step, t_step = cfg.beta * cfg.delta_f0, cfg.alpha * cfg.T0
    gains, delays, dopplers = (np.array(v).reshape(len(sets), count)
                               for v in zip(*(path for paths in sets for path in paths)))
    taus = np.arange(1 - N, N) * t_step
    tables = ambiguity_table(pulse, cfg, (taus - delays[:, :, None]).reshape(len(sets), -1),
                             np.repeat(dopplers, 2 * N - 1, axis=1))
    # the path-independent factor, one exp per (n - n', m')
    lattice = np.exp(2j * np.pi * f_step * t_step * np.arange(1 - N, N)[:, None] * np.arange(M))
    lattice = lattice[np.arange(N)[:, None] - np.arange(N) + N - 1][:, None]
    for table, gain, delay, doppler in zip(tables, gains, delays, dopplers):
        receive = gain[:, None] * np.exp(2j * np.pi * doppler[:, None]
                                         * (np.arange(N) * t_step - delay[:, None]))
        transmit = np.exp(-2j * np.pi * f_step * delay[:, None] * np.arange(M))
        yield _phased_sum(cfg, table.reshape(count, -1), receive, transmit, lattice)


def _phased_sum(cfg: SystemConfig, rows, receive, transmit, lattice) -> np.ndarray:
    """One set's matrix, each path's phased gather added in place to the first in path
    order. It, a path term and the flat (dn, dm) index, all as large, live only here."""
    M, N = cfg.M, cfg.N
    n_idx, m_idx = np.divmod(np.arange(cfg.mn), M)
    index = (n_idx[:, None] - n_idx + N - 1) * (2 * M - 1) + (m_idx[:, None] - m_idx + M - 1)
    h = None
    for row, rx, tx in zip(rows, receive, transmit):
        term = row[index].reshape(N, M, N, M)
        term *= rx[:, None, None, None] * tx
        h = term if h is None else np.add(h, term, out=h)
    h *= lattice
    return h.reshape(cfg.mn, cfg.mn)


def coupling_matrix(cfg: SystemConfig, paths) -> np.ndarray:
    """Matched-filter coupling of the compressed grid through a set of paths.

    `paths` are (gain, delay, doppler) triples of finite numbers, delay and
    doppler real (else ConfigError); no paths give the zero matrix. Rows
    and columns are flat indices n*M + m; entry (receive slot (m, n),
    transmit slot (m', n')) is

        sum_p gain * A(dm beta delta_f0 - doppler, dt - delay)
              * exp(2j pi [(doppler + m' beta delta_f0)(dt - delay)
                           + doppler n' alpha T0])

    with dm = m - m', dt = (n - n') alpha T0, for the config's pulse with
    the node count of `lattice_pulse`. Only the (2N-1)(2M-1) distinct
    ambiguity values of each path are integrated, all paths' rows in one
    `ambiguity_table` call. The phase splits into exp(2j pi doppler
    (n alpha T0 - delay)), which depends on the receive slot only,
    exp(-2j pi m' beta delta_f0 delay), on the transmit carrier only, and
    exp(2j pi m' beta delta_f0 (n - n') alpha T0), the same for every path
    and applied once to their sum; so a path costs M + N exponentials and a
    gather, and cost scales with the quadrature rows rather than with the
    matrix size. Hermitian symmetry of the unit-path result is a property of
    the formula, not enforced here, so the validation in
    GramMatrix.from_matrix is a real check on the quadrature. This is the
    one-set case of :func:`coupling_matrices`.
    """
    return next(coupling_matrices(cfg, [paths]))


def build_gram(cfg: SystemConfig) -> GramMatrix:
    """Gram matrix of the compressed time-frequency pulse family.

    The coupling of the unit path (gain 1, no delay, no Doppler):

        G[n1*M + m1, n2*M + m2] = A((m1-m2) beta delta_f0, (n1-n2) alpha T0)
                                  * exp(2j pi m2 beta delta_f0 (n1-n2) alpha T0)

    Built once per lattice (M, N, alpha, beta and the `lattice_pulse`: theta, T0,
    the nodes nu_max sets), the last 4 kept; every config on it shares it, read-only.
    """
    return _gram(cfg.M, cfg.N, cfg.alpha, cfg.beta, lattice_pulse(cfg, [0.0]))


@lru_cache(maxsize=4)
def _gram(M: int, N: int, alpha: float, beta: float, pulse: RrcPulse) -> GramMatrix:
    cfg = SystemConfig(M, N, alpha, beta, pulse.theta, pulse.T0, allow_small_alpha=True)
    gram = GramMatrix.from_matrix(next(_assemble(cfg, pulse, [[(1.0, 0.0, 0.0)]])))
    vars(gram)["_whitening"] = (sfft_matrix(cfg), None)    # formed on first use
    return gram
