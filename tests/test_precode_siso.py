"""Effective channel, water-filling and EVD precoder tests."""

import numpy as np
import pytest
from scipy import linalg as sla

from mcftn_otfs import (
    ConfigError,
    GramMatrix,
    SystemConfig,
    build_dd_channel,
    build_effective_channel,
    build_gram,
    build_mimo_effective,
    rng_stream,
    sample_paths,
    sfft_matrix,
    siso_capacity,
    solve_siso,
    waterfill,
)
from reference import waterfill_enum, waterfill_pg


def random_instance(seed, M=2, N=2, alpha=0.8, beta=0.9, **kw):
    cfg = SystemConfig(M=M, N=N, alpha=alpha, beta=beta, theta=0.25, seed=seed, **kw)
    gram = build_gram(cfg)
    paths = sample_paths(cfg, rng_stream(seed, "paths", 0))
    ch = build_dd_channel(paths, cfg)
    return cfg, gram, ch


# ---------------------------------------------------- effective channel ----

def test_effective_channel_identity_case():
    cfg = SystemConfig(M=2, N=2)
    gram = GramMatrix.from_matrix(np.eye(4, dtype=complex))
    d = build_effective_channel(gram, np.eye(4, dtype=complex), sfft_matrix(cfg))
    np.testing.assert_allclose(d, sfft_matrix(cfg).conj().T, atol=1e-14)
    np.testing.assert_allclose(d @ d.conj().T, np.eye(4), atol=1e-13)


def test_effective_channel_null_channel():
    cfg = SystemConfig(M=2, N=2)
    gram = GramMatrix.from_matrix(np.eye(4, dtype=complex))
    d = build_effective_channel(gram, np.zeros((4, 4), dtype=complex), sfft_matrix(cfg))
    np.testing.assert_array_equal(d, np.zeros((4, 4)))


def test_effective_channel_shape_check():
    cfg = SystemConfig(M=2, N=2)
    gram = GramMatrix.from_matrix(np.eye(4, dtype=complex))
    with pytest.raises(ConfigError):
        build_effective_channel(gram, np.eye(5, dtype=complex), sfft_matrix(cfg))
    # one receive antenna, one transmit antenna: a wider channel is a MIMO block
    with pytest.raises(ConfigError):
        build_effective_channel(gram, np.ones((4, 8), dtype=complex), sfft_matrix(cfg))


def test_effective_channel_is_one_antenna_stacked_whitening():
    cfg, gram, ch = random_instance(20)
    a = sfft_matrix(cfg)
    np.testing.assert_array_equal(build_effective_channel(gram, ch.h_dd, a),
                                  build_mimo_effective(gram, ch.h_dd, a, 1))


def test_eigenvalues_match_independent_svd():
    cfg, gram, ch = random_instance(21)
    pre = solve_siso(cfg, gram, ch.h_dd, sfft_matrix(cfg))
    # scipy's matrix square root and SVD, no shared code with the package
    g_inv_half = sla.inv(sla.sqrtm(gram.matrix))
    d_ref = g_inv_half @ sfft_matrix(cfg).conj().T @ ch.h_dd
    s_ref = np.sort(sla.svd(d_ref, compute_uv=False))[::-1] ** 2
    np.testing.assert_allclose(pre.lam_d, s_ref, atol=1e-9)


# ---------------------------------------------------------- water-filling ----

def test_waterfill_single_mode_takes_whole_budget():
    lam_p, xi = waterfill(np.array([2.0]), np.array([0.5]), 1.0, 0.7, budget=4.0)
    assert lam_p[0] == pytest.approx(8.0, rel=1e-12)   # 0.5 * 8 = 4
    assert np.isfinite(xi)


def test_waterfill_equal_modes_split_evenly():
    lam_d = np.full(4, 1.5)
    phi = np.ones(4)
    lam_p, _ = waterfill(lam_d, phi, 1.0, 0.3, budget=4.0)
    np.testing.assert_allclose(lam_p, 1.0, rtol=1e-12)


def test_waterfill_zero_noise_equalizes_weighted_power():
    lam_d = np.array([1.0, 2.0, 0.5])
    phi = np.array([1.0, 2.0, 0.5])
    lam_p, _ = waterfill(lam_d, phi, 1.0, 0.0, budget=3.0)
    np.testing.assert_allclose(phi * lam_p, 1.0, rtol=1e-12)


def test_waterfill_dead_modes_get_nothing():
    lam_d = np.array([1.0, 0.0, 2.0, 1.0])
    phi = np.array([1.0, 1.0, 1e-15, 1.0])
    lam_p, _ = waterfill(lam_d, phi, 1.0, 0.5, budget=4.0)
    assert lam_p[1] == 0.0          # lam_d = 0
    assert lam_p[2] == 0.0          # phi below the weight floor
    assert phi @ lam_p == pytest.approx(4.0, rel=1e-12)


def test_waterfill_all_dead():
    lam_p, xi = waterfill(np.zeros(3), np.ones(3), 1.0, 1.0)
    np.testing.assert_array_equal(lam_p, 0.0)
    assert xi == np.inf


def test_waterfill_validation():
    with pytest.raises(ConfigError):
        waterfill(np.ones(3), np.ones(2), 1.0, 1.0)
    with pytest.raises(ConfigError):
        waterfill(np.ones(3), np.ones(3), 1.0, 1.0, budget=0.0)


# the ten random instances draw N0 themselves; the extremes pin it at the ends
# of the valid SNR range, where a bracketed search on the water level fails
ORACLE_CASES = [(trial, None) for trial in range(10)] + [(10, -150.0), (11, 150.0),
                                                         (12, -150.0), (13, 150.0)]


@pytest.mark.parametrize("trial,snr_db", ORACLE_CASES,
                         ids=[str(t) if db is None else f"{t}-{db:+.0f}dB"
                              for t, db in ORACLE_CASES])
def test_waterfill_matches_optimization_oracles(trial, snr_db):
    rng = np.random.default_rng(300 + trial)
    k = 8
    lam_d = rng.uniform(0.0, 3.0, k)
    lam_d[rng.random(k) < 0.2] = 0.0
    phi = rng.uniform(0.3, 2.0, k)
    n0 = float(rng.uniform(0.05, 2.0)) if snr_db is None else 10.0 ** (-snr_db / 10.0)
    lam_p, xi = waterfill(lam_d, phi, 1.0, n0, budget=float(k))
    assert np.isfinite(xi)
    # budget binds whenever anything is allocated
    assert phi @ lam_p == pytest.approx(float(k), rel=1e-10)

    a = lam_d / n0
    obj = float(np.sum(np.log2(1.0 + a * lam_p)))
    x_en, obj_en = waterfill_enum(lam_d, phi, 1.0, n0, float(k))
    assert obj == pytest.approx(obj_en, abs=1e-10)
    np.testing.assert_allclose(lam_p, x_en, atol=1e-10)
    if snr_db is None:
        x_pg, obj_pg = waterfill_pg(lam_d, phi, 1.0, n0, float(k))
        assert obj == pytest.approx(obj_pg, abs=1e-10)
        np.testing.assert_allclose(x_pg, x_en, atol=1e-10)


@pytest.mark.parametrize("trial", range(4))
def test_waterfill_beats_random_feasible_points(trial):
    rng = np.random.default_rng(400 + trial)
    k = 6
    lam_d = rng.uniform(0.1, 3.0, k)
    phi = rng.uniform(0.3, 2.0, k)
    n0 = 0.4
    budget = float(k)
    lam_p, _ = waterfill(lam_d, phi, 1.0, n0, budget)
    a = lam_d / n0
    best = float(np.sum(np.log2(1.0 + a * lam_p)))
    for _ in range(500):
        x = rng.uniform(0.0, 1.0, k)
        x *= budget / (phi @ x)
        trial_obj = float(np.sum(np.log2(1.0 + a * x)))
        assert trial_obj <= best + 1e-10


# ---------------------------------------------------------------- precoder ----

def test_solve_siso_rejects_unknown_mode():
    cfg, gram, ch = random_instance(31)
    with pytest.raises(ConfigError):
        solve_siso(cfg, gram, ch.h_dd, sfft_matrix(cfg), mode="zf")


@pytest.mark.parametrize("mode", ["pa", "nopa", "unprecoded"])
def test_energy_budget_met_exactly(mode):
    cfg, gram, ch = random_instance(32, N0=0.5)
    pre = solve_siso(cfg, gram, ch.h_dd, sfft_matrix(cfg), mode=mode)
    spent = float(np.trace(gram.matrix @ pre.P @ pre.P.conj().T).real)
    assert spent == pytest.approx(float(cfg.mn), rel=1e-8)


@pytest.mark.parametrize("mode", ["pa", "nopa"])
def test_precoded_channel_is_diagonal(mode):
    cfg, gram, ch = random_instance(33, N0=0.5)
    pre = solve_siso(cfg, gram, ch.h_dd, sfft_matrix(cfg), mode=mode)
    eff = pre.P.conj().T @ pre.D.conj().T @ pre.D @ pre.P
    off = eff - np.diag(np.diag(eff))
    assert np.max(np.abs(off)) < 1e-10 * max(1.0, np.max(np.abs(eff)))


@pytest.mark.parametrize("trial", range(6))
def test_pa_beats_nopa_beats_nothing(trial):
    cfg, gram, ch = random_instance(40 + trial, N0=0.3)
    a = sfft_matrix(cfg)
    cap = {
        mode: solve_siso(cfg, gram, ch.h_dd, a, mode=mode).bits
        for mode in ("pa", "nopa", "unprecoded")
    }
    assert cap["pa"] >= cap["nopa"] - 1e-12
    # without allocation the eigenbasis rotation is capacity-neutral
    assert cap["nopa"] == pytest.approx(cap["unprecoded"], abs=1e-12)
    assert cap["pa"] > 0.0


def test_capacity_monotone_in_snr():
    cfg, gram, ch = random_instance(55)
    a = sfft_matrix(cfg)
    caps = [
        solve_siso(cfg.with_snr_db(db), gram, ch.h_dd, a).bits
        for db in (0.0, 5.0, 10.0, 20.0)
    ]
    assert all(c2 > c1 for c1, c2 in zip(caps, caps[1:]))


def test_identity_channel_capacity_closed_form():
    # G = I, H = I: every mode carries log2(1 + SNR); normalization divides
    # the MN modes back out
    cfg = SystemConfig(M=2, N=2, N0=0.1)
    gram = GramMatrix.from_matrix(np.eye(4, dtype=complex))
    pre = solve_siso(cfg, gram, np.eye(4, dtype=complex), sfft_matrix(cfg))
    np.testing.assert_allclose(pre.lam_d, 1.0, atol=1e-12)
    # unit power on every mode: P is unitary
    np.testing.assert_allclose(pre.P.conj().T @ pre.P, np.eye(4), atol=1e-12)
    assert pre.bits == pytest.approx(4.0 * np.log2(11.0), rel=1e-12)
    assert siso_capacity(pre, cfg) == pytest.approx(np.log2(11.0), rel=1e-12)


def test_null_channel_capacity_zero():
    cfg = SystemConfig(M=2, N=2)
    gram = GramMatrix.from_matrix(np.eye(4, dtype=complex))
    pre = solve_siso(cfg, gram, np.zeros((4, 4), dtype=complex), sfft_matrix(cfg))
    assert pre.bits == 0.0
    np.testing.assert_array_equal(pre.P, 0.0)     # no mode can carry power


def test_zero_noise_capacity_infinite():
    cfg, gram, ch = random_instance(60)
    pre = solve_siso(cfg.replace(N0=0.0), gram, ch.h_dd, sfft_matrix(cfg))
    assert pre.bits == np.inf


def test_normalization_uses_occupancy():
    cfg, gram, ch = random_instance(61, N0=0.5)
    pre = solve_siso(cfg, gram, ch.h_dd, sfft_matrix(cfg))
    bits = pre.bits
    assert siso_capacity(pre, cfg) == pytest.approx(
        bits / (cfg.alpha * cfg.beta * cfg.mn * cfg.E0), rel=1e-14
    )
    doubled = cfg.replace(E0=2.0)
    assert siso_capacity(pre, doubled) == pytest.approx(
        siso_capacity(pre, cfg) / 2.0, rel=1e-14
    )
