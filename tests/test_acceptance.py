"""Acceptance gate: one test per library-level guarantee.

Every test prints a single scorecard line

    [criterion NN] <what is being checked>: PASS/FAIL (<elapsed> s)

before asserting, so the whole scorecard stays readable even when one
criterion fails. Run with ``pytest tests/test_acceptance.py -v -s`` to see
the lines for passing criteria too. Tolerances and runtime budgets are
pinned in each test and are not to be loosened.
"""

import time
from math import erfc, sqrt

import numpy as np

from mcftn_otfs import (
    DdPath,
    SweepSpec,
    SystemConfig,
    build_dd_channel,
    build_gram,
    build_mimo_channel,
    build_mimo_effective,
    draw_dd_noise,
    make_noise_model,
    map_bits,
    demap_symbols,
    mmse_weights,
    per_stream_rates,
    rng_stream,
    run_sweep,
    sfft_matrix,
    solve_siso,
    waterfill,
)
from reference import (
    dd_entry_quadruple_sum,
    gram_entry_direct,
    sfft_double_sum,
    tf_entry_direct,
    waterfill_pg,
)

LN2 = np.log(2.0)


def _finish(num, name, t0, fails, budget_s=None):
    """Print the scorecard line for one criterion, then assert it."""
    elapsed = time.perf_counter() - t0
    if budget_s is not None and elapsed >= budget_s:
        fails.append(f"runtime {elapsed:.1f} s exceeds budget {budget_s:.0f} s")
    ok = not fails
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.2f} s)")
    assert ok, f"criterion {num} failed: " + "; ".join(fails)


def _check(fails, ok, label):
    if not ok:
        fails.append(label)


# --------------------------------------------------------------------------
def test_criterion_01_gram_matches_direct_quadrature():
    # Gram entries vs independent adaptive-quadrature evaluation of the pulse
    # cross-ambiguity, plus the structural facts: Hermitian, unit diagonal,
    # positive semidefinite. Must finish in under 5 s.
    t0 = time.perf_counter()
    fails = []
    cfg = SystemConfig(M=2, N=2, alpha=0.8, beta=0.9, theta=0.25)
    gram = build_gram(cfg)
    worst = 0.0
    for row in range(4):
        for col in range(4):
            ref = gram_entry_direct(row % 2, row // 2, col % 2, col // 2,
                                    cfg.alpha, cfg.beta, cfg.theta)
            worst = max(worst, abs(gram.matrix[row, col] - ref))
    _check(fails, worst < 1e-10, f"max |entry - quadrature| {worst:.2e} >= 1e-10")
    herm = np.max(np.abs(gram.matrix - gram.matrix.conj().T))
    _check(fails, herm < 1e-12, f"Hermitian defect {herm:.2e}")
    diag = np.max(np.abs(np.diag(gram.matrix) - 1.0))
    _check(fails, diag < 1e-9, f"unit-diagonal defect {diag:.2e}")
    lam_min = float(np.linalg.eigvalsh(gram.matrix)[0])
    _check(fails, lam_min > -1e-12, f"min eigenvalue {lam_min:.2e} < -1e-12")
    _finish(1, "Gram matches direct quadrature; Hermitian PSD unit diagonal",
            t0, fails, budget_s=5.0)


def test_criterion_02_nyquist_time_orthogonality():
    # at (alpha, beta) = (1, 1) every same-carrier, different-slot Gram entry
    # must vanish below 1e-6. Must finish in under 5 s.
    t0 = time.perf_counter()
    fails = []
    cfg = SystemConfig(M=8, N=4, alpha=1.0, beta=1.0, theta=0.25)
    g = build_gram(cfg).matrix
    worst = 0.0
    for m in range(cfg.M):
        for n1 in range(cfg.N):
            for n2 in range(cfg.N):
                if n1 == n2:
                    continue
                worst = max(worst, abs(g[n1 * cfg.M + m, n2 * cfg.M + m]))
    _check(fails, worst < 1e-6,
           f"max same-carrier cross-slot entry {worst:.2e} >= 1e-6")
    _finish(2, "uncompressed grid restores time orthogonality", t0, fails,
            budget_s=5.0)


def test_criterion_03_transform_matches_double_sums():
    # matrix transform vs the explicit double-sum definition, on the matrix
    # itself and acting on random grids; unitarity within 1e-12
    t0 = time.perf_counter()
    fails = []
    cfg = SystemConfig(M=4, N=2)
    a = sfft_matrix(cfg)
    a_ref = sfft_double_sum(4, 2)
    diff = np.max(np.abs(a - a_ref))
    _check(fails, diff < 1e-12, f"matrix vs double sums {diff:.2e}")
    rng = np.random.default_rng(33)
    for _ in range(3):
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        d = np.max(np.abs(a @ x - a_ref @ x))
        _check(fails, d < 1e-12, f"action on random grid differs by {d:.2e}")
    unit = np.max(np.abs(a @ a.conj().T - np.eye(8)))
    _check(fails, unit < 1e-12, f"unitarity defect {unit:.2e}")
    _finish(3, "transform equals explicit double sums and is unitary",
            t0, fails)


def test_criterion_04_dd_channel_matches_quadruple_sum():
    # single random path on a 2x2 grid: the delay-Doppler matrix must equal
    # the literal quadruple sum over the time-frequency entries within 1e-10,
    # and those entries must match the independent matched-filter quadrature
    t0 = time.perf_counter()
    fails = []
    cfg = SystemConfig(M=2, N=2, alpha=0.9, beta=0.85, theta=0.25)
    rng = np.random.default_rng(404)
    path = DdPath(
        gain=complex(*rng.standard_normal(2)) * np.sqrt(0.5),
        delay=float(rng.uniform(0.0, cfg.tau_max)),
        doppler=float(rng.uniform(-cfg.nu_max, cfg.nu_max)),
    )
    ch = build_dd_channel((path,), cfg)
    worst = 0.0
    for row in range(4):
        for col in range(4):
            ref = dd_entry_quadruple_sum(ch.h_tf, 2, 2, row % 2, row // 2,
                                         col % 2, col // 2)
            worst = max(worst, abs(ch.h_dd[row, col] - ref))
    _check(fails, worst < 1e-10, f"quadruple-sum defect {worst:.2e} >= 1e-10")
    worst_tf = 0.0
    for row in range(4):
        for col in range(4):
            ref = tf_entry_direct(path.gain, path.delay, path.doppler,
                                  row % 2, row // 2, col % 2, col // 2,
                                  cfg.alpha, cfg.beta, cfg.theta)
            worst_tf = max(worst_tf, abs(ch.h_tf[row, col] - ref))
    _check(fails, worst_tf < 5e-9,
           f"time-frequency entries off quadrature by {worst_tf:.2e}")
    _finish(4, "delay-Doppler channel equals literal quadruple sum", t0, fails)


def test_criterion_05_noise_sample_covariance():
    # 1e5 colored draws: sample covariance within 3% of N0 per entry of the
    # analytic covariance. Must finish in under 30 s.
    t0 = time.perf_counter()
    fails = []
    n0 = 0.5
    cfg = SystemConfig(M=4, N=2, alpha=0.9, beta=0.9, theta=0.25, N0=n0)
    gram = build_gram(cfg)
    a = sfft_matrix(cfg)
    model = make_noise_model(n0, gram, a)
    formula = np.max(np.abs(model.covariance -
                            n0 * (a @ gram.matrix @ a.conj().T)))
    _check(fails, formula < 1e-13, f"covariance formula defect {formula:.2e}")
    draws = draw_dd_noise(model, rng_stream(cfg.seed, "acceptance", 5),
                          n=100_000)
    sample = draws @ draws.conj().T / draws.shape[1]
    err = np.max(np.abs(sample - model.covariance))
    _check(fails, err < 0.03 * n0,
           f"sample covariance max-entry error {err:.3e} >= {0.03 * n0:.3e}")
    _finish(5, "noise sample covariance matches analytic covariance",
            t0, fails, budget_s=30.0)


def test_criterion_06_waterfilling_optimality():
    # 100 random 8-mode allocation problems: objective matches an independent
    # projected-gradient oracle within 1e-8; the budget binds whenever the
    # allocation is nonzero; allocated capacity never falls below the
    # unit-allocation baseline on the same instance
    t0 = time.perf_counter()
    fails = []
    rng = np.random.default_rng(606)
    budget = 8.0
    for trial in range(100):
        lam_d = rng.uniform(0.0, 3.0, 8)
        lam_d[rng.random(8) < 0.2] = 0.0
        phi = rng.uniform(0.2, 2.0, 8)
        phi *= budget / phi.sum()
        n0 = float(rng.uniform(0.05, 1.0))
        lam_p, _ = waterfill(lam_d, phi, 1.0, n0, budget)
        obj = float(np.sum(np.log2(1.0 + lam_d * lam_p / n0)))
        _, obj_pg = waterfill_pg(lam_d, phi, 1.0, n0, budget)
        if abs(obj - obj_pg) > 1e-8:
            fails.append(f"trial {trial}: objective gap {abs(obj - obj_pg):.2e}")
            break
        if np.any(lam_p > 0.0) and abs(phi @ lam_p - budget) > 1e-8 * budget:
            fails.append(f"trial {trial}: budget slack {phi @ lam_p - budget:.2e}")
            break
        baseline = float(np.sum(np.log2(1.0 + lam_d / n0)))
        if obj < baseline - 1e-12:
            fails.append(f"trial {trial}: allocation below unit baseline "
                         f"({obj:.12f} < {baseline:.12f})")
            break
    _finish(6, "water-filling beats projected-gradient oracle and baseline",
            t0, fails)


def test_criterion_07_siso_capacity_ordering():
    # 500 channel realizations on the 8x4 grid, SNR 0..20 dB: mean normalized
    # capacity ordering C(0.9, 0.9) > C(0.9, 1) > C(1, 1) with allocated
    # power, paired differences above two standard errors at every SNR point
    # >= 5 dB. Must finish in under 10 min.
    t0 = time.perf_counter()
    fails = []
    snrs = (0.0, 5.0, 10.0, 15.0, 20.0)
    results = {}
    for ab in ((0.9, 0.9), (0.9, 1.0), (1.0, 1.0)):
        cfg = SystemConfig(M=8, N=4, alpha=ab[0], beta=ab[1], theta=0.25,
                           L=3, seed=0)
        spec = SweepSpec(config=cfg, snr_points_db=snrs, n_realizations=500,
                         schemes=("siso_pa",))
        results[ab] = run_sweep(spec)
    # identical path realizations across the three configurations, so the
    # comparisons below are paired
    _check(fails,
           results[(0.9, 0.9)].channel_digests == results[(1.0, 1.0)].channel_digests
           and results[(0.9, 1.0)].channel_digests == results[(1.0, 1.0)].channel_digests,
           "channel digests differ across configurations (pairing broken)")
    for hi, lo in (((0.9, 0.9), (0.9, 1.0)), ((0.9, 1.0), (1.0, 1.0))):
        for snr in snrs:
            if snr < 5.0:
                continue
            d = (results[hi].values[("siso_pa", snr)]
                 - results[lo].values[("siso_pa", snr)])
            mean = float(np.mean(d))
            se = float(np.std(d, ddof=1) / np.sqrt(len(d)))
            if mean <= 0.0:
                fails.append(f"{hi} not above {lo} at {snr} dB ({mean:+.4f})")
            elif mean <= 2.0 * se:
                fails.append(f"{hi} vs {lo} at {snr} dB only {mean / se:.2f}"
                             " standard errors")
    _finish(7, "capacity gains from compression are ordered and significant",
            t0, fails, budget_s=600.0)


def test_criterion_08_telescoping_logdet_identity():
    # 100 random block-diagonal precoders on random 2x2 channels: the sum of
    # per-stream rates equals the direct log-det within 1e-9
    t0 = time.perf_counter()
    fails = []
    rng = np.random.default_rng(808)
    for trial in range(100):
        cfg = SystemConfig(M=2, N=2, alpha=0.9, beta=0.9, theta=0.25,
                           n_tx=2, n_rx=2, N0=0.3, seed=trial)
        gram = build_gram(cfg)
        mimo = build_mimo_channel(cfg, rng_stream(trial, "paths", 0))
        d = build_mimo_effective(gram, mimo.matrix, sfft_matrix(cfg), 2)
        blocks = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                  for _ in range(2)]
        rates = per_stream_rates(cfg, d, blocks)
        p = np.zeros((8, 8), dtype=complex)
        p[:4, :4], p[4:, 4:] = blocks
        b = d @ p
        m = np.eye(8, dtype=complex) + (cfg.sigma_x2 / cfg.N0) * (b @ b.conj().T)
        sign, logdet = np.linalg.slogdet(m)
        direct = logdet / LN2
        gap = abs(float(np.sum(rates)) - direct)
        if sign.real <= 0.0 or gap > 1e-9:
            fails.append(f"trial {trial}: telescoping gap {gap:.2e}")
            break
    _finish(8, "per-stream rates telescope to the exact log-det", t0, fails)


def test_criterion_09_sic_tracks_relaxed_waterfilling():
    # 2x2 and 4x4 at (0.9, 0.9), 200 realizations: the relaxed water-filling
    # bound dominates the low-complexity design on every realization, the
    # mean relative gap at 20 dB stays under 5%, and capacity grows with the
    # antenna count at every SNR. Must finish in under 30 min.
    t0 = time.perf_counter()
    fails = []
    snrs = (0.0, 5.0, 10.0, 15.0, 20.0)
    results = {}
    for n_ant in (2, 4):
        cfg = SystemConfig(M=8, N=4, alpha=0.9, beta=0.9, theta=0.25, L=3,
                           n_tx=n_ant, n_rx=n_ant, seed=0)
        spec = SweepSpec(config=cfg, snr_points_db=snrs, n_realizations=200,
                         schemes=("sic", "wf_relaxed"))
        results[n_ant] = run_sweep(spec)
    for n_ant in (2, 4):
        for snr in snrs:
            sic = results[n_ant].values[("sic", snr)]
            wf = results[n_ant].values[("wf_relaxed", snr)]
            short = float(np.min(wf - sic))
            if short < -1e-12:
                fails.append(f"{n_ant}x{n_ant} at {snr} dB: design beats its "
                             f"upper bound by {-short:.2e}")
        gap = float(np.mean((results[n_ant].values[("wf_relaxed", 20.0)]
                             - results[n_ant].values[("sic", 20.0)])
                            / results[n_ant].values[("wf_relaxed", 20.0)]))
        if gap >= 0.05:
            fails.append(f"{n_ant}x{n_ant}: mean relative gap at 20 dB "
                         f"{gap:.3f} >= 0.05")
    for scheme in ("sic", "wf_relaxed"):
        for snr in snrs:
            lo = float(np.mean(results[2].values[(scheme, snr)]))
            hi = float(np.mean(results[4].values[(scheme, snr)]))
            if hi <= lo:
                fails.append(f"{scheme} at {snr} dB: 4x4 mean {hi:.4f} not "
                             f"above 2x2 mean {lo:.4f}")
    _finish(9, "low-complexity design tracks the relaxed bound and scales",
            t0, fails, budget_s=1800.0)


def test_criterion_10_mmse_ber_sanity():
    # (a) static single-path uncompressed reduction reproduces the scalar
    # BPSK error rate Q(sqrt(2 SNR)) within 3 sigma at an operating point
    # with error rate >= 1e-4; (b) measured error rates get monotonically
    # worse with compression at matched SNR
    t0 = time.perf_counter()
    fails = []

    cfg = SystemConfig(M=1, N=32, alpha=1.0, beta=1.0, theta=0.25,
                       seed=11).with_snr_db(7.0)
    gram = build_gram(cfg)
    a = sfft_matrix(cfg)
    ch = build_dd_channel((DdPath(gain=1.0 + 0.0j, delay=0.0, doppler=0.0),),
                          cfg)
    P, _ = solve_siso(cfg, gram, ch.h_dd, a, "siso_pa")
    model = make_noise_model(cfg.N0, gram, a)
    b = ch.h_dd @ P
    w = mmse_weights(b, model.covariance, cfg.sigma_x2)
    rng = rng_stream(cfg.seed, "awgn-check", 0)
    n_frames = 31_250
    bits = rng.integers(0, 2, size=(32, n_frames))
    x = map_bits(bits, "bpsk", cfg.sigma_x2)
    z = draw_dd_noise(model, rng, n=n_frames)
    rx = demap_symbols(w @ (b @ x + z), "bpsk")
    ber = np.count_nonzero(bits != rx) / bits.size
    expected = 0.5 * erfc(sqrt(2.0 * cfg.snr) / sqrt(2.0))
    sigma = sqrt(expected * (1.0 - expected) / bits.size)
    _check(fails, expected >= 1e-4,
           f"operating point {expected:.2e} below 1e-4")
    _check(fails, abs(ber - expected) <= 3.0 * sigma,
           f"measured {ber:.3e} vs Q-function {expected:.3e} "
           f"is {abs(ber - expected) / sigma:.1f} sigma away")

    points = {}
    for ab in (1.0, 0.8, 0.6):
        cfg_b = SystemConfig(M=8, N=4, alpha=ab, beta=ab, theta=0.75, L=3,
                             seed=5)
        spec = SweepSpec(config=cfg_b, snr_points_db=(6.0,),
                         n_realizations=40, schemes=("siso_pa",),
                         metric="ber", n_frames=20)
        points[ab] = run_sweep(spec).points[0]
    _check(fails,
           points[1.0].ber <= points[0.8].ber <= points[0.6].ber,
           "ordering broken: "
           + ", ".join(f"({ab}, {ab}) -> {points[ab].ber:.4e}"
                       for ab in (1.0, 0.8, 0.6)))
    _finish(10, "equalized error rates match theory and order by compression",
            t0, fails)
