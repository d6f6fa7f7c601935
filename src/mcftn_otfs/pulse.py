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
modes) provides the square root and inverse square root used for noise
whitening and precoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .core import (
    ConfigError,
    DegenerateConfigurationError,
    NumericalError,
    SystemConfig,
    is_finite,
    is_integer,
)

SPAN = 32    # truncation half-width of every pulse, in units of T0
# nodes per ambiguity_table chunk: keeps each temporary near 0.5 MiB at any grid
_CHUNK_NODES = 2 ** 15


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
        if not is_integer(self.nodes_per_t0) or self.nodes_per_t0 < 2:
            raise ConfigError(f"nodes_per_t0 must be an integer >= 2, got {self.nodes_per_t0!r}")

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

    def _ambiguities(self, taus: np.ndarray, dopplers: np.ndarray, carriers: np.ndarray,
                     f_step: float) -> np.ndarray:
        """A(dm f_step - dopplers[i], taus[i]) for the 2M-1 offsets dm = 1-M .. M-1,
        given carriers[k, j] = exp(-2j pi dm_j f_step t_k) on the grid nodes t.

        g(t - tau) follows from the grid rows by angle addition (its numerator
        is one small GEMM per chunk of rows), except where that cancels (u =
        (t - tau)/T0 near 0 and |1 - 4 theta |u|| < 1/2): there, inside a
        window of each row, the pulse is evaluated directly. The grid panels
        inside the overlap of g(t) and g(t - tau) enter one GEMM per chunk of
        _CHUNK_NODES grid nodes, each row weighted by exp(2j pi doppler t); the
        panel cut by the truncation edge of g(t - tau) gets its own nodes,
        whose carriers run along dm by angle addition. A row without overlap
        is an exact zero.
        """
        t, _, grid_rows = self._grid
        th, T0, S, n = self.theta, self.T0, self.support, self.nodes_per_t0
        n_off = carriers.shape[1]
        f_values = (np.arange(n_off) - (n_off - 1) // 2) * f_step - dopplers[:, None]
        # the distinct Dopplers and each row's index among them (not np.unique:
        # its first call imports numpy.ma, about 2 MiB of resident memory)
        index = {}
        which = np.array([index.setdefault(v, len(index)) for v in dopplers.tolist()], dtype=int)
        nus = np.array(list(index), dtype=float)
        # g(t) w exp(2j pi doppler t) per distinct Doppler, the phase taken as
        # that of the node's panel start times that of its offset in the panel
        turns = 2j * np.pi * nus[:, None]
        weighted = (np.exp(turns * T0 * np.arange(-SPAN, SPAN))[:, :, None]
                    * np.exp(turns * (t[:n] + S))[:, None, :]).reshape(len(nus), len(t))
        weighted *= self._weighted

        right = taus >= 0.0    # g(t - tau) is cut at tau - S, else at tau + S
        edge = np.where(right, taus - S, taus + S)
        a = np.floor((edge + S) / T0) * T0 - S    # the grid panel [a, a + T0] it cuts
        t_edge, w_edge = _panel_rule(np.where(right, edge, a)[:, None],
                                     np.where(right, a + T0, edge)[:, None], n)
        # the grid panels inside the overlap: t > a + T0, else t < a
        cut = np.where(right, np.searchsorted(t, a + T0, side="right"),
                       np.searchsorted(t, a, side="left"))
        # the direct nodes, by the exact test, inside a window of each row that
        # reaches one T0 past |u| = max(1.5, 3 / (8 theta))
        reach = T0 * (1.0 + (max(1.5, 0.375 / th) if th > 0.0 else 1.5))
        lo = np.searchsorted(t, taus - reach)
        width = np.max(np.searchsorted(t, taus + reach) - lo, initial=0)
        window = np.minimum(lo[:, None] + np.arange(width), len(t) - 1)
        s = t[window] - taus[:, None]
        u = s / T0
        i, j = np.nonzero((np.abs(u) <= 1.5) | (np.abs(1.0 - 4.0 * th * np.abs(u)) < 0.5))
        # one direct evaluation for those nodes and both factors on the edge panels
        values = self._raw_amplitude(np.concatenate([s[i, j], t_edge, t_edge - taus[:, None]],
                                                    axis=None))
        direct, cols = values[:i.size], window[i, j]

        # g(t - tau) = numerator / (scale s (1 - (k s)^2)), s = t - tau
        k = 4.0 * th / T0
        scale = np.pi * np.sqrt(T0) / T0
        minus, plus = np.pi * (1.0 - th) / T0 * taus, np.pi * (1.0 + th) / T0 * taus
        cos_plus, sin_plus = np.cos(plus), np.sin(plus)
        coef = np.stack([np.cos(minus), -np.sin(minus), -k * taus * cos_plus,
                         -k * taus * sin_plus, k * cos_plus, k * sin_plus], axis=1) / scale
        out = np.empty((len(taus), n_off), dtype=complex)
        rows = max(1, _CHUNK_NODES // len(t))
        for r in range(0, len(taus), rows):
            g = coef[r:r + rows] @ grid_rows
            s = t - taus[r:r + rows, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                g /= s
                s *= s
                s *= -k * k
                s += 1.0
                g /= s
            del s    # before the complex integrand, which sets the chunk's peak memory
            chunk = slice(*np.searchsorted(i, [r, r + rows]))
            g[i[chunk] - r, cols[chunk]] = direct[chunk]
            for row, c, keep_after in zip(g, cut[r:r + rows], right[r:r + rows]):
                if keep_after:
                    row[:c] = 0.0
                else:
                    row[c:] = 0.0
            integrand = weighted[which[r:r + rows]]
            integrand *= g
            out[r:r + rows] = integrand @ carriers
        # the edge panels: exp(-2j pi f t_edge) along the offsets by angle
        # addition, one exp for the first offset and one for the step
        term = (self._norm ** 2 * w_edge * values[i.size:].reshape(2, -1, n).prod(axis=0)
                * np.exp(-2j * np.pi * f_values[:, :1] * t_edge))
        step = np.exp(-2j * np.pi * f_step * t_edge)
        for column in out.T:
            column += term.sum(axis=1)
            term *= step
        # the carriers ran in t; A takes its phase in t - tau
        return out * np.exp(2j * np.pi * taus[:, None] * f_values)

    def ambiguity_batch(self, f_values: np.ndarray, tau: float) -> np.ndarray:
        """A(f, tau) for a batch of frequency offsets at one delay offset, exactly
        zero once g(t) and g(t - tau) no longer overlap: one row of `_ambiguities`
        per offset, which enters as that row's Doppler at the single offset dm = 0."""
        f_values = np.asarray(f_values, dtype=float).ravel()
        carrier = np.ones((len(self._grid[0]), 1))
        return self._ambiguities(np.full(f_values.shape, float(tau)), -f_values, carrier, 0.0)[:, 0]


@dataclass
class GramMatrix:
    """Pulse Gram with its eigendecomposition and matrix square roots.

    Eigenvalues are stored in descending order. Modes whose eigenvalue falls
    below `floor` (a relative threshold times the largest eigenvalue) are
    deactivated: they are kept in `sqrt` (clipped at zero, so sqrt @ sqrt
    still reproduces the Gram) but excluded from `inv_sqrt`, which projects
    onto the active subspace.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray          # descending, real
    eigenvectors: np.ndarray         # columns match eigenvalue order
    active: np.ndarray               # bool mask over modes
    floor: float                     # absolute deactivation threshold
    sqrt: np.ndarray = field(repr=False, default=None)
    inv_sqrt: np.ndarray = field(repr=False, default=None)

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

        clipped = np.maximum(evals, 0.0)
        sqrt = (evecs * np.sqrt(clipped)) @ evecs.conj().T
        inv_diag = np.where(active, 1.0 / np.sqrt(np.maximum(evals, floor)), 0.0)
        inv_sqrt = (evecs * inv_diag) @ evecs.conj().T
        return cls(
            matrix=herm,
            eigenvalues=evals,
            eigenvectors=evecs,
            active=active,
            floor=floor,
            sqrt=sqrt,
            inv_sqrt=inv_sqrt,
        )

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

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


def ambiguity_table(pulse, cfg: SystemConfig, delays: np.ndarray, doppler: float | np.ndarray = 0.0,
                    delay_shift: float = 0.0) -> np.ndarray:
    """A(dm*beta*delta_f0 - doppler, tau - delay_shift) for all grid offsets.

    Returns a (len(delays), 2M-1) table indexed by [dn + N - 1, dm + M - 1]
    when `delays` is the signed tau lattice. `doppler` is one value for every
    row or one value per delay row. The carriers are cached per (pulse,
    beta*delta_f0, M); each distinct Doppler costs one exp per grid node.
    `coupling_matrix` fills the MN x MN matrix from one table of all its
    paths' rows.
    """
    f_step = cfg.beta * cfg.delta_f0
    delays = np.atleast_1d(np.asarray(delays, dtype=float)) - delay_shift
    dopplers = np.asarray(doppler, dtype=float)
    if dopplers.ndim and dopplers.shape != delays.shape:
        raise ConfigError(f"doppler must be one value or one per delay row ({delays.shape}), "
                          f"got shape {dopplers.shape}")
    return pulse._ambiguities(delays, np.broadcast_to(dopplers, delays.shape),
                              _carriers(pulse, f_step, cfg.M), f_step)


@lru_cache(maxsize=16)
def _cached_pulse(theta: float, T0: float, nodes_per_t0: int) -> RrcPulse:
    return RrcPulse(theta, T0, nodes_per_t0=nodes_per_t0)


def lattice_pulse(cfg: SystemConfig, dopplers) -> RrcPulse:
    """The pulse of `cfg`, with enough quadrature nodes for its lattice.

    The largest frequency offset an ambiguity integral on the grid sees is
    fmax = (M-1)*beta*delta_f0 + max(nu_max, max |doppler|) over the given
    path Dopplers; the rule takes ceil(2.5*fmax*T0) + 16 Gauss-Legendre
    nodes per T0 (the 16 resolve the pulse product itself, the slope the
    carrier phase ramp). Its tables agree with 128-node ones to about 1e-14
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
    return _cached_pulse(cfg.theta, cfg.T0, int(np.ceil(2.5 * fmax * cfg.T0)) + 16)


def coupling_matrix(cfg: SystemConfig, paths) -> np.ndarray:
    """Matched-filter coupling of the compressed grid through a set of paths.

    `paths` are (gain, delay, doppler) triples, each value finite (else
    ConfigError); no paths give the zero matrix. Rows and columns are flat
    indices n*M + m; entry (receive slot (m, n), transmit slot (m', n')) is

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
    GramMatrix.from_matrix is a real check on the quadrature.
    """
    paths = list(paths)
    for gain, delay, doppler in paths:
        if not all(map(is_finite, (gain.real, gain.imag, delay, doppler))):
            raise ConfigError(f"path gain, delay and doppler must be finite, "
                              f"got {(gain, delay, doppler)!r}")
    pulse = lattice_pulse(cfg, [doppler for _, _, doppler in paths])
    if not paths:
        return np.zeros((cfg.mn, cfg.mn), dtype=complex)
    M, N = cfg.M, cfg.N
    f_step, t_step = cfg.beta * cfg.delta_f0, cfg.alpha * cfg.T0
    gains, delays, dopplers = (np.array(v) for v in zip(*paths))
    taus = np.arange(1 - N, N) * t_step
    tables = ambiguity_table(pulse, cfg, (taus - delays[:, None]).ravel(),
                             np.repeat(dopplers, 2 * N - 1)).reshape(len(paths), -1)
    n_idx, m_idx = np.divmod(np.arange(cfg.mn), M)
    flat = (n_idx[:, None] - n_idx + N - 1) * (2 * M - 1) + (m_idx[:, None] - m_idx + M - 1)
    receive = gains[:, None] * np.exp(2j * np.pi * dopplers[:, None]
                                      * (np.arange(N) * t_step - delays[:, None]))
    transmit = np.exp(-2j * np.pi * f_step * delays[:, None] * np.arange(M))
    h = tables[:, flat].reshape(len(paths), N, M, N, M)
    h *= receive[:, :, None, None, None] * transmit[:, None, None, None, :]
    h = h.sum(axis=0)
    # the path-independent factor, one exp per (n - n', m')
    lattice = np.exp(2j * np.pi * f_step * t_step * np.arange(1 - N, N)[:, None] * np.arange(M))
    h *= lattice[np.arange(N)[:, None] - np.arange(N) + N - 1][:, None]
    return h.reshape(cfg.mn, cfg.mn)


def build_gram(cfg: SystemConfig) -> GramMatrix:
    """Gram matrix of the compressed time-frequency pulse family.

    The coupling of the unit path (gain 1, no delay, no Doppler):

        G[n1*M + m1, n2*M + m2] = A((m1-m2) beta delta_f0, (n1-n2) alpha T0)
                                  * exp(2j pi m2 beta delta_f0 (n1-n2) alpha T0)
    """
    return GramMatrix.from_matrix(coupling_matrix(cfg, ((1.0, 0.0, 0.0),)))
