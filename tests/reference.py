"""Independent reference implementations used as test oracles.

Nothing here imports the package under test. Integrals run through scipy's
adaptive Gauss-Kronrod quadrature (the package uses fixed composite
Gauss-Legendre), water-filling optima come from projected gradient plus an
exact KKT polish (the package bisects a multiplier), and transforms are
written as literal double/quadruple sums (the package uses Kronecker
matrices). Agreement is therefore evidence, not bookkeeping.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy import integrate

LN2 = math.log(2.0)


# ---------------------------------------------------------------- pulse ----

def _rrc_raw_unit(u: float, theta: float) -> float:
    """Scalar root raised cosine at u = t / T0, before the 1/sqrt(T0) scale.

    Same closed form and singular-point limits as the vectorized branch of
    ``rrc_raw``; adaptive quadrature calls the pulse one point at a time, and
    the per-call cost of numpy on 0-d arrays dominates those integrals.
    """
    if theta == 0.0:
        return 1.0 if u == 0.0 else math.sin(math.pi * u) / (math.pi * u)
    if abs(u) < 1e-8:
        return 1.0 - theta + 4.0 * theta / math.pi
    if abs(abs(u) - 1.0 / (4.0 * theta)) < 1e-8:
        return (theta / math.sqrt(2.0)) * (
            (1.0 + 2.0 / math.pi) * math.sin(math.pi / (4.0 * theta))
            + (1.0 - 2.0 / math.pi) * math.cos(math.pi / (4.0 * theta))
        )
    return (
        math.sin(math.pi * u * (1.0 - theta))
        + 4.0 * theta * u * math.cos(math.pi * u * (1.0 + theta))
    ) / (math.pi * u * (1.0 - (4.0 * theta * u) ** 2))


def rrc_raw(t, theta: float, T0: float = 1.0):
    """Root raised cosine closed form, no truncation, vectorized."""
    if isinstance(t, (int, float)):
        return _rrc_raw_unit(t / T0, theta) / math.sqrt(T0)
    t = np.asarray(t, dtype=float)
    u = t / T0
    scale = 1.0 / math.sqrt(T0)
    if theta == 0.0:
        out = scale * np.sinc(u)
        return out if out.ndim else float(out)
    out = np.empty_like(u)
    near0 = np.abs(u) < 1e-8
    nears = np.abs(np.abs(u) - 1.0 / (4.0 * theta)) < 1e-8
    reg = ~near0 & ~nears
    ur = u[reg]
    out[reg] = scale * (
        np.sin(np.pi * ur * (1.0 - theta))
        + 4.0 * theta * ur * np.cos(np.pi * ur * (1.0 + theta))
    ) / (np.pi * ur * (1.0 - (4.0 * theta * ur) ** 2))
    out[near0] = scale * (1.0 - theta + 4.0 * theta / np.pi)
    out[nears] = scale * (theta / math.sqrt(2.0)) * (
        (1.0 + 2.0 / np.pi) * math.sin(np.pi / (4.0 * theta))
        + (1.0 - 2.0 / np.pi) * math.cos(np.pi / (4.0 * theta))
    )
    return out if out.ndim else float(out)


_ENERGY_CACHE: dict = {}


def rrc_energy_norm(theta: float, T0: float = 1.0, span: int = 32) -> float:
    """1/sqrt of the truncated pulse energy, by adaptive quadrature."""
    key = (theta, T0, span)
    if key not in _ENERGY_CACHE:
        val, err = integrate.quad(
            lambda t: rrc_raw(t, theta, T0) ** 2, 0.0, span * T0,
            epsabs=1e-14, epsrel=1e-13, limit=800,
        )
        _ENERGY_CACHE[key] = 1.0 / math.sqrt(2.0 * val)
    return _ENERGY_CACHE[key]


def rrc_ref(t, theta: float, T0: float = 1.0, span: int = 32):
    """Truncated, unit-energy-renormalized pulse (the object under test)."""
    if isinstance(t, (int, float)):
        if abs(t) > span * T0:
            return 0.0
        return rrc_raw(t, theta, T0) * rrc_energy_norm(theta, T0, span)
    t = np.asarray(t, dtype=float)
    out = rrc_raw(t, theta, T0) * rrc_energy_norm(theta, T0, span)
    out = np.where(np.abs(t) <= span * T0, out, 0.0)
    return out if out.ndim else float(out)


def rrc_spectrum(f, theta: float, T0: float = 1.0):
    """Closed-form spectrum of the ideal (untruncated) unit-energy pulse."""
    f = np.asarray(f, dtype=float)
    af = np.abs(f)
    lo = (1.0 - theta) / (2.0 * T0)
    hi = (1.0 + theta) / (2.0 * T0)
    out = np.zeros_like(af)
    out[af <= lo] = math.sqrt(T0)
    if theta > 0.0:
        roll = (af > lo) & (af < hi)
        out[roll] = math.sqrt(T0) * np.cos(np.pi * T0 / (2.0 * theta) * (af[roll] - lo))
    return out if out.ndim else float(out)


def cquad(fn, a: float, b: float, **kw) -> complex:
    """Complex-valued adaptive quadrature."""
    opts = dict(epsabs=1e-13, epsrel=1e-12, limit=800)
    opts.update(kw)
    re, _ = integrate.quad(lambda t: fn(t).real, a, b, **opts)
    im, _ = integrate.quad(lambda t: fn(t).imag, a, b, **opts)
    return re + 1j * im


def ambiguity_time(f: float, tau: float, theta: float, T0: float = 1.0,
                   span: int = 32) -> complex:
    """A(f, tau) by direct adaptive quadrature over the truncated overlap."""
    half = span * T0
    lo = max(-half, tau - half)
    hi = min(half, tau + half)
    if hi <= lo:
        return 0.0 + 0.0j
    return cquad(
        lambda t: rrc_ref(t - tau, theta, T0, span) * rrc_ref(t, theta, T0, span)
        * np.exp(-2j * np.pi * f * (t - tau)),
        lo, hi,
    )


def ambiguity_spectral(f: float, tau: float, theta: float, T0: float = 1.0) -> complex:
    """Ideal-pulse ambiguity via the spectrum:

    A(f, tau) = exp(2j pi f tau) * integral G(nu) G(f - nu) exp(-2j pi nu tau) d nu
    """
    hi = (1.0 + theta) / (2.0 * T0)
    lo = max(-hi, f - hi)
    up = min(hi, f + hi)
    if up <= lo:
        return 0.0 + 0.0j
    val = cquad(
        lambda nu: rrc_spectrum(nu, theta, T0) * rrc_spectrum(f - nu, theta, T0)
        * np.exp(-2j * np.pi * nu * tau),
        lo, up,
    )
    return np.exp(2j * np.pi * f * tau) * val


def rc_autocorr(t, theta: float, T0: float = 1.0):
    """Raised cosine (pulse autocorrelation) closed form for the ideal pulse."""
    t = np.asarray(t, dtype=float)
    u = t / T0
    out = np.empty_like(u)
    if theta == 0.0:
        out = np.sinc(u)
        return out if out.ndim else float(out)
    sing = np.abs(np.abs(u) - 1.0 / (2.0 * theta)) < 1e-8
    reg = ~sing
    ur = u[reg]
    out[reg] = np.sinc(ur) * np.cos(np.pi * theta * ur) / (1.0 - (2.0 * theta * ur) ** 2)
    out[sing] = np.sinc(1.0 / (2.0 * theta)) * np.pi / 4.0
    return out if out.ndim else float(out)


def gram_entry_direct(m1: int, n1: int, m2: int, n2: int, alpha: float, beta: float,
                      theta: float, T0: float = 1.0, span: int = 32) -> complex:
    """One Gram entry straight from its definition, no lattice shortcuts."""
    df0 = 1.0 / T0
    amb = ambiguity_time((m1 - m2) * beta * df0, (n1 - n2) * alpha * T0, theta, T0, span)
    phase = np.exp(2j * np.pi * m2 * beta * df0 * (n1 - n2) * alpha * T0)
    return amb * phase


# ----------------------------------------------------------- transforms ----

def sfft_double_sum(M: int, N: int) -> np.ndarray:
    """SFFT matrix from the literal double-sum definition.

    Output index k*M + l (delay-Doppler), input index n*M + m (time-
    frequency): entry (1/sqrt(NM)) exp(-2j pi (n k / N - m l / M)).
    """
    out = np.zeros((M * N, M * N), dtype=complex)
    for k in range(N):
        for l in range(M):
            for n in range(N):
                for m in range(M):
                    out[k * M + l, n * M + m] = np.exp(
                        -2j * np.pi * (n * k / N - m * l / M)
                    ) / math.sqrt(M * N)
    return out


def tf_entry_direct(gain: complex, delay: float, doppler: float,
                    m: int, n: int, mp: int, np_: int,
                    alpha: float, beta: float, theta: float,
                    T0: float = 1.0, span: int = 32) -> complex:
    """Matched-filter coupling of transmit slot (mp, np_) into receive slot
    (m, n) for one path, integrated directly from the waveform model."""
    df0 = 1.0 / T0
    t_rx = n * alpha * T0
    t_tx = np_ * alpha * T0
    half = span * T0
    lo = max(t_rx - half, delay + t_tx - half)
    hi = min(t_rx + half, delay + t_tx + half)
    if hi <= lo:
        return 0.0 + 0.0j

    def integrand(t):
        return (
            rrc_ref(t - t_rx, theta, T0, span)
            * rrc_ref(t - delay - t_tx, theta, T0, span)
            * np.exp(2j * np.pi * mp * beta * df0 * (t - delay - t_tx))
            * np.exp(2j * np.pi * doppler * (t - delay))
            * np.exp(-2j * np.pi * m * beta * df0 * (t - t_rx))
        )

    return gain * cquad(integrand, lo, hi)


def dd_entry_quadruple_sum(h_tf: np.ndarray, M: int, N: int,
                           l: int, k: int, lp: int, kp: int) -> complex:
    """One delay-Doppler channel entry as the explicit quadruple sum over the
    time-frequency matrix, with the 1/(NM) prefactor."""
    total = 0.0 + 0.0j
    for n in range(N):
        for m in range(M):
            for n2 in range(N):
                for m2 in range(M):
                    total += (
                        np.exp(-2j * np.pi * (n * k / N - m * l / M))
                        * h_tf[n * M + m, n2 * M + m2]
                        * np.exp(2j * np.pi * (n2 * kp / N - m2 * lp / M))
                    )
    return total / (M * N)


# --------------------------------------------------------- water-filling ----

def _project_weighted(y: np.ndarray, phi: np.ndarray, budget: float) -> np.ndarray:
    """Euclidean projection onto {x >= 0, phi . x <= budget}."""
    x = np.maximum(y, 0.0)
    if phi @ x <= budget:
        return x
    lo, hi = 0.0, float(np.max(y / phi)) + 1.0
    for _ in range(200):
        mu = 0.5 * (lo + hi)
        if mu in (lo, hi):
            # the interval is down to adjacent floats: a test at an endpoint
            # repeats the one that set it, so no later step changes hi
            break
        if phi @ np.maximum(y - mu * phi, 0.0) > budget:
            lo = mu
        else:
            hi = mu
    return np.maximum(y - hi * phi, 0.0)


def _kkt_candidate(support: np.ndarray, a: np.ndarray, phi: np.ndarray,
                   budget: float):
    """Closed-form stationary point with the given support; None if the KKT
    conditions reject it.

    The water level and the allocation level/phi - 1/a are formed in exact
    rational arithmetic: in floats the difference cancels when 1/a is far
    above the budget, as at -150 dB, and loses about eps/a absolutely.
    """
    s = np.flatnonzero(support)
    if s.size == 0:
        return None
    a_s = [Fraction(v) for v in a[s]]
    phi_s = [Fraction(v) for v in phi[s]]
    level = (Fraction(budget) + sum(p / q for p, q in zip(phi_s, a_s))) / s.size
    x_s = [level / p - 1 / q for p, q in zip(phi_s, a_s)]
    if any(v <= 0 for v in x_s):
        return None
    # off-support multiplier test: a zero mode must gain nothing at this level
    off = np.flatnonzero(~support & (a > 0.0))
    if off.size and np.any(a[off] * float(level) > phi[off] * (1.0 + 1e-12)):
        return None
    x = np.zeros_like(a)
    x[s] = [float(v) for v in x_s]
    return x


def waterfill_pg(lam_d: np.ndarray, phi: np.ndarray, sigma_x2: float, N0: float,
                 budget: float, iters: int = 1200):
    """Projected-gradient (FISTA) solution with an exact KKT polish.

    Returns (allocation, objective in bits). The polish certifies the active
    set FISTA converges to, so the reported optimum is exact, not iterative.
    """
    lam_d = np.asarray(lam_d, dtype=float)
    phi = np.asarray(phi, dtype=float)
    a = np.where(lam_d > 0.0, (sigma_x2 / N0) * lam_d, 0.0) if N0 > 0 else lam_d * np.inf
    usable = (a > 0.0) & (phi > 0.0)
    if not np.any(usable):
        return np.zeros_like(lam_d), 0.0

    def objective(x):
        return float(np.sum(np.log2(1.0 + a[usable] * x[usable])))

    lip = float(np.max(a[usable] ** 2)) / LN2
    x = np.zeros_like(lam_d)
    y = x.copy()
    t_acc = 1.0
    for _ in range(iters):
        grad = np.zeros_like(x)
        grad[usable] = a[usable] / ((1.0 + a[usable] * y[usable]) * LN2)
        x_new = _project_weighted(y + grad / lip, phi, budget)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc))
        y = x_new + ((t_acc - 1.0) / t_new) * (x_new - x)
        x, t_acc = x_new, t_new

    # polish: take the support FISTA found, then walk neighbors if rejected
    scale = max(1e-12, float(np.max(x)))
    support = usable & (x > 1e-9 * scale)
    cand = _kkt_candidate(support, a, phi, budget)
    if cand is None:
        order = np.argsort(-np.where(usable, a / phi, -np.inf))
        best = None
        for count in range(1, int(np.count_nonzero(usable)) + 1):
            trial = np.zeros_like(support)
            trial[order[:count]] = True
            cand = _kkt_candidate(trial, a, phi, budget)
            if cand is not None and (best is None or objective(cand) > objective(best)):
                best = cand
        cand = best
    if cand is None:
        return x, objective(x)
    return cand, objective(cand)


def waterfill_enum(lam_d: np.ndarray, phi: np.ndarray, sigma_x2: float, N0: float,
                   budget: float):
    """Exact optimum by exhaustive KKT-candidate enumeration (<= ~14 modes)."""
    lam_d = np.asarray(lam_d, dtype=float)
    phi = np.asarray(phi, dtype=float)
    n = lam_d.size
    if n > 20:
        raise ValueError("enumeration oracle is for small instances")
    a = np.where(lam_d > 0.0, (sigma_x2 / N0) * lam_d, 0.0)
    usable = np.flatnonzero((a > 0.0) & (phi > 0.0))
    best_x = np.zeros_like(lam_d)
    best_obj = 0.0
    for mask in range(1, 1 << usable.size):
        support = np.zeros(n, dtype=bool)
        support[usable[[i for i in range(usable.size) if mask >> i & 1]]] = True
        cand = _kkt_candidate(support, a, phi, budget)
        if cand is None:
            continue
        obj = float(np.sum(np.log2(1.0 + a * cand)))
        if obj > best_obj:
            best_obj, best_x = obj, cand
    return best_x, best_obj


# ----------------------------------------------------------------- misc ----

def q_func(x) -> float:
    """Gaussian tail probability Q(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))
