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
)

SPAN = 32    # truncation half-width of every pulse, in units of T0
# nodes per ambiguity_table chunk: keeps each temporary near 0.5 MiB at any grid
_CHUNK_NODES = 2 ** 15


@lru_cache(maxsize=16)
def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(order)


def _panel_rule(lo: np.ndarray, hi: np.ndarray, panel: float,
                order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on each interval [lo[i], hi[i]], tiled by
    ceil(length / panel) equal panels of `order` nodes. Returns the nodes and
    weights, both (len(lo), nodes); rows with fewer panels than the longest
    are padded with zero weight, and an empty interval is all zero."""
    length = np.maximum(hi - lo, 0.0)
    n_panels = np.where(length > 0.0, np.maximum(1.0, np.ceil(length / panel - 1e-12)), 0.0)
    width = length / np.maximum(n_panels, 1.0)
    x, w = _gl_rule(order)
    k = np.arange(int(n_panels.max(initial=0.0)))
    starts = lo[:, None] + width[:, None] * k
    half = 0.5 * width[:, None, None]
    t = (starts[:, :, None] + half * (x + 1.0)).reshape(len(lo), -1)
    weights = np.where(k[:, None] < n_panels[:, None, None], half * w, 0.0)
    return t, weights.reshape(len(lo), -1)


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

    `nodes_per_t0` sets the composite Gauss-Legendre rule `_panel_rule` (one
    panel per T0) that both the energy normalization and the ambiguity
    integrals use. The frequency offset it resolves grows with it, so the
    Gram and every channel do not use the default: `coupling_matrix` takes
    its pulse from `lattice_pulse`, which sets the node count from the
    largest offset on the grid, (M-1)*beta*delta_f0 plus the largest
    Doppler. The default of 64 serves direct calls and resolves offsets up
    to about 19/T0.
    """

    theta: float
    T0: float = 1.0
    nodes_per_t0: int = 64    # quadrature nodes per T0 of overlap

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigError(f"theta must lie in [0, 1], got {self.theta}")
        if not (is_finite(self.T0) and self.T0 > 0.0):
            raise ConfigError(f"T0 must be finite and positive, got {self.T0!r}")
        if self.nodes_per_t0 < 2:
            raise ConfigError("nodes_per_t0 must be at least 2")

    @property
    def support(self) -> float:
        """Half-width of the truncated support."""
        return SPAN * self.T0

    @cached_property
    def _norm(self) -> float:
        # energy of the raw truncated pulse by the ambiguity rule at tau = 0;
        # dividing by its square root makes A(0, 0) exactly 1
        t, weights = _panel_rule(np.array([-self.support]), np.array([self.support]),
                                 self.T0, self.nodes_per_t0)
        energy = float(weights[0] @ self._raw_amplitude(t[0]) ** 2)
        return 1.0 / np.sqrt(energy)

    def _raw_amplitude(self, t: np.ndarray) -> np.ndarray:
        u = t / self.T0
        scale = 1.0 / np.sqrt(self.T0)
        inside = np.abs(t) <= self.support
        th = self.theta
        au = np.abs(u, out=u)
        a = 4.0 * th * au
        pu = np.pi * au
        # in place where possible: at quadrature sizes the temporaries, not
        # the arithmetic, dominate the cost
        den = np.subtract(1.0, a * a)
        den *= pu
        out = pu * (1.0 - th)
        np.sin(out, out=out)
        pu *= 1.0 + th
        np.cos(pu, out=pu)
        pu *= a
        out += pu
        out *= scale
        with np.errstate(divide="ignore", invalid="ignore"):
            out /= den
        out[~inside] = 0.0
        out[au < 1e-8] = scale * (1.0 - th + 4.0 * th / np.pi)

        # near |u| = 1/(4 theta) numerator and denominator both carry the
        # factor eps = 1 - 4 theta |u| and cancel in floating point; within
        # |eps| < 1/2 use the sum-to-product form of numerator / eps, which
        # has no singularity, with pi |u| (1 + theta) = pi (|u| + 1/4 - eps/4).
        # The quarter shifts and the removal of whole periods of cos(pi x)
        # are exact in binary, so the cosines lose no digits to a large |u|.
        eps = np.subtract(1.0, a, out=a)
        band = inside & (np.abs(eps) < 0.5)
        ub, eb = au[band], eps[band]
        x1, x2 = ub - 0.25, ub + 0.25
        x1 -= 2.0 * np.round(0.5 * x1)
        x2 -= 2.0 * np.round(0.5 * x2)
        bracket = (0.5 * np.pi * np.sinc(0.25 * eb) * np.cos(np.pi * x1)
                   - np.cos(np.pi * (x2 - 0.25 * eb)))
        out[band] = scale * bracket / (np.pi * ub * (1.0 + 4.0 * th * ub))
        return out

    def amplitude(self, t) -> np.ndarray:
        """Pulse value g(t), vectorized; zero outside the truncated support."""
        t = np.asarray(t, dtype=float)
        out = self._norm * self._raw_amplitude(t.reshape(-1)).reshape(t.shape)
        return out if out.ndim else float(out)

    def _profiles(self, taus) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature nodes and weighted profiles for a batch of delays.

        Row i holds `_panel_rule` over the support overlap of g(t) and
        g(t - taus[i]), so both truncation edges fall on panel ends. Returns
        the nodes s = t - tau and the profile g(s) g(t) w, both
        (len(taus), nodes). A row whose supports do not overlap is all zero,
        so every ambiguity built from it is an exact zero.
        """
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        t, weights = _panel_rule(np.maximum(-self.support, taus - self.support),
                                 np.minimum(self.support, taus + self.support),
                                 self.T0, self.nodes_per_t0)
        s = t - taus[:, None]
        return s, self.amplitude(s) * self.amplitude(t) * weights

    def ambiguity_batch(self, f_values: np.ndarray, tau: float) -> np.ndarray:
        """A(f, tau) for a batch of frequency offsets at one delay offset.

        One row of `_profiles`, shared nodes for the whole batch. Exact zero
        when the supports of g(t) and g(t - tau) no longer overlap.
        """
        f_values = np.atleast_1d(np.asarray(f_values, dtype=float))
        s, profile = self._profiles(tau)
        phases = -2j * np.pi * np.outer(f_values, s[0])
        return np.exp(phases, out=phases) @ profile[0]


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


def ambiguity_table(pulse, cfg: SystemConfig, delays: np.ndarray, doppler: float = 0.0,
                    delay_shift: float = 0.0) -> np.ndarray:
    """A(dm*beta*delta_f0 - doppler, tau - delay_shift) for all grid offsets.

    Returns a (len(delays), 2M-1) table indexed by [dn + N - 1, dm + M - 1]
    when `delays` is the signed tau lattice. All rows share one batched
    quadrature (`RrcPulse._profiles`); the frequency axis is uniform, so
    each column is the previous one times the phasor
    exp(-2j pi beta delta_f0 s), and only two complex exponentials per node
    are taken whatever M is. Rows go in chunks of at most _CHUNK_NODES
    nodes to keep the temporaries small. `coupling_matrix` builds one table
    per path and fills the MN x MN matrix from it by indexing.
    """
    f_step = cfg.beta * cfg.delta_f0
    f_min = -(cfg.M - 1) * f_step - doppler
    delays = np.atleast_1d(np.asarray(delays, dtype=float)) - delay_shift
    table = np.empty((len(delays), 2 * cfg.M - 1), dtype=complex)
    rows = max(1, _CHUNK_NODES // (2 * SPAN * pulse.nodes_per_t0))
    for r in range(0, len(delays), rows):
        s, profile = pulse._profiles(delays[r:r + rows])
        v = -2j * np.pi * f_min * s
        np.exp(v, out=v)
        v *= profile
        step = -2j * np.pi * f_step * s
        np.exp(step, out=step)
        for j in range(table.shape[1]):
            table[r:r + rows, j] = v.sum(axis=1)
            v *= step
    return table


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
    (theta, T0, nodes), so their normalization is computed once.
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

    `paths` are (gain, delay, doppler) triples. Rows and columns are flat
    indices n*M + m; entry (receive slot (m, n), transmit slot (m', n')) is

        sum_p gain * A(dm beta delta_f0 - doppler, dt - delay)
              * exp(2j pi [(doppler + m' beta delta_f0)(dt - delay)
                           + doppler n' alpha T0])

    with dm = m - m', dt = (n - n') alpha T0, for the config's pulse with
    the node count of `lattice_pulse`. Per path only the (2N-1)(2M-1)
    distinct ambiguity values are integrated, in one batched
    `ambiguity_table` evaluation; the rest is phase bookkeeping, so cost
    scales with L quadrature batches rather than with the matrix size.
    Hermitian symmetry of the unit-path result is a property of the
    formula, not enforced here, so the validation in GramMatrix.from_matrix
    is a real check on the quadrature.
    """
    paths = list(paths)
    pulse = lattice_pulse(cfg, [doppler for _, _, doppler in paths])
    idx = np.arange(cfg.mn)
    m_idx = idx % cfg.M
    n_idx = idx // cfg.M
    dm_grid = m_idx[:, None] - m_idx[None, :]
    dn_grid = n_idx[:, None] - n_idx[None, :]
    dt_grid = dn_grid * cfg.alpha * cfg.T0
    mp_grid = np.broadcast_to(m_idx[None, :], (cfg.mn, cfg.mn))
    np_grid = np.broadcast_to(n_idx[None, :], (cfg.mn, cfg.mn))

    dn = np.arange(-(cfg.N - 1), cfg.N)
    taus = dn * cfg.alpha * cfg.T0

    h = np.zeros((cfg.mn, cfg.mn), dtype=complex)
    for gain, delay, doppler in paths:
        table = ambiguity_table(pulse, cfg, taus, doppler=doppler, delay_shift=delay)
        amb = table[dn_grid + cfg.N - 1, dm_grid + cfg.M - 1]
        phase = np.exp(
            2j * np.pi * (
                (doppler + mp_grid * cfg.beta * cfg.delta_f0) * (dt_grid - delay)
                + doppler * np_grid * cfg.alpha * cfg.T0
            )
        )
        h += gain * amb * phase
    return h


def build_gram(cfg: SystemConfig) -> GramMatrix:
    """Gram matrix of the compressed time-frequency pulse family.

    The coupling of the unit path (gain 1, no delay, no Doppler):

        G[n1*M + m1, n2*M + m2] = A((m1-m2) beta delta_f0, (n1-n2) alpha T0)
                                  * exp(2j pi m2 beta delta_f0 (n1-n2) alpha T0)
    """
    return GramMatrix.from_matrix(coupling_matrix(cfg, ((1.0, 0.0, 0.0),)))
