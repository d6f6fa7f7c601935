"""Per-stream SIC precoding, telescoping identity and baseline tests."""

import numpy as np
import pytest

from mcftn_otfs import (
    ConfigError,
    GramMatrix,
    SystemConfig,
    build_gram,
    build_mimo_channel,
    build_mimo_effective,
    per_stream_rates,
    rng_stream,
    sfft_matrix,
    sic_precode,
    siso_capacity,
    solve_siso,
    wf_baseline,
    wf_structured,
)

LN2 = np.log(2.0)


def mimo_instance(seed, n_ant=2, M=2, N=2, alpha=0.9, beta=0.9, N0=0.2):
    cfg = SystemConfig(M=M, N=N, alpha=alpha, beta=beta, theta=0.25,
                       n_tx=n_ant, n_rx=n_ant, N0=N0, seed=seed)
    gram = build_gram(cfg)
    mimo = build_mimo_channel(cfg, rng_stream(seed, "paths", 0))
    d = build_mimo_effective(gram, mimo.matrix, sfft_matrix(cfg), cfg.n_rx)
    return cfg, gram, mimo, d


def diagonal_blocks(p, n_tx):
    n = p.shape[0] // n_tx
    return [p[t * n:(t + 1) * n, t * n:(t + 1) * n] for t in range(n_tx)]


def direct_logdet_bits(cfg, d, p):
    c = cfg.sigma_x2 / cfg.N0
    b = d @ p
    m = np.eye(d.shape[0], dtype=complex) + c * (b @ b.conj().T)
    sign, logdet = np.linalg.slogdet(m)
    assert sign.real > 0
    return logdet / LN2


# ----------------------------------------------------- effective channel ----

def test_mimo_effective_matches_kron_form():
    cfg, gram, mimo, d = mimo_instance(70)
    a = sfft_matrix(cfg)
    w = np.kron(np.eye(2), gram.inv_sqrt @ a.conj().T)
    np.testing.assert_allclose(d, w @ mimo.matrix, atol=1e-12)


def test_mimo_effective_shape_check():
    cfg, gram, mimo, _ = mimo_instance(71)
    with pytest.raises(ConfigError):
        build_mimo_effective(gram, mimo.matrix[:, :5], sfft_matrix(cfg), cfg.n_rx)
    with pytest.raises(ConfigError):
        build_mimo_effective(gram, mimo.matrix[:6, :], sfft_matrix(cfg), cfg.n_rx)


# ------------------------------------------------------------ sic design ----

def test_sic_single_antenna_equals_siso():
    cfg, gram, mimo, d = mimo_instance(72, n_ant=1)
    p, cap = sic_precode(cfg, d, gram)
    pre = solve_siso(cfg, gram, mimo.matrix, sfft_matrix(cfg), mode="pa")
    # same optimum through a different code path: compare the precoder's
    # outer product (eigenvector phases are arbitrary), which fixes the
    # eigenbasis and the powers, and the bits it carries
    np.testing.assert_allclose(p @ p.conj().T, pre.P @ pre.P.conj().T, atol=1e-9)
    assert per_stream_rates(cfg, d, [p])[0] == pytest.approx(pre.bits, rel=1e-10)
    assert cap == pytest.approx(siso_capacity(pre, cfg), rel=1e-10)


def test_sic_block_budgets_met_exactly():
    cfg, gram, _, d = mimo_instance(73)
    p, _ = sic_precode(cfg, d, gram)
    for block in diagonal_blocks(p, cfg.n_tx):
        spent = float(np.trace(gram.matrix @ block @ block.conj().T).real)
        assert spent == pytest.approx(cfg.mn, rel=1e-8)


def test_sic_bits_equal_direct_logdet():
    cfg, gram, _, d = mimo_instance(74)
    p, cap = sic_precode(cfg, d, gram)
    bits = cap * (cfg.alpha * cfg.beta * cfg.mn * cfg.E0)
    assert bits == pytest.approx(direct_logdet_bits(cfg, d, p), abs=1e-9)


def test_sic_decoupled_blocks_reduce_to_independent_siso():
    # block-diagonal D with zero cross blocks: each stream solves its own
    # SISO problem, no interference terms survive
    cfg, gram, mimo, _ = mimo_instance(75, n_ant=1)
    a = sfft_matrix(cfg)
    d1 = build_mimo_effective(gram, mimo.matrix, a, 1)
    mimo2 = build_mimo_channel(cfg.replace(seed=99), rng_stream(99, "paths", 0))
    d2 = build_mimo_effective(gram, mimo2.matrix, a, 1)
    zero = np.zeros_like(d1)
    d_block = np.block([[d1, zero], [zero, d2]])
    cfg2 = cfg.replace(n_tx=2, n_rx=2)
    p, _ = sic_precode(cfg2, d_block, gram)
    pre1 = solve_siso(cfg, gram, mimo.matrix, a, mode="pa")
    pre2 = solve_siso(cfg, gram, mimo2.matrix, a, mode="pa")
    rates = per_stream_rates(cfg2, d_block, diagonal_blocks(p, 2))
    np.testing.assert_allclose(rates, [pre1.bits, pre2.bits], rtol=1e-9)


def test_sic_validation():
    cfg, gram, _, d = mimo_instance(76)
    with pytest.raises(ConfigError):
        sic_precode(cfg.replace(N0=0.0), d, gram)
    with pytest.raises(ConfigError):
        sic_precode(cfg, d[:, :4], gram)


def test_per_stream_rates_validation():
    cfg, _, _, d = mimo_instance(77)
    block = np.eye(4, dtype=complex)
    for blocks in ([], [block], [block, block, block], [block[:, :3], block[:, :3]],
                   [block, np.eye(3)], [block[:2], block[:2]]):
        with pytest.raises(ConfigError):
            per_stream_rates(cfg, d, blocks)
    # two square blocks that tile D's eight columns are fine, in any container
    assert per_stream_rates(cfg, d, (block, block)).shape == (2,)


# ---------------------------------------------------- telescoping identity ----

@pytest.mark.parametrize("trial", range(8))
def test_telescoping_identity_random_blocks(trial):
    # the per-stream log-det decomposition is exact for ANY block precoder,
    # not just the designed one
    cfg, gram, _, d = mimo_instance(80 + trial)
    rng = np.random.default_rng(500 + trial)
    blocks = [
        rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for _ in range(2)
    ]
    rates = per_stream_rates(cfg, d, blocks)
    p = np.zeros((8, 8), dtype=complex)
    p[:4, :4], p[4:, 4:] = blocks
    assert float(np.sum(rates)) == pytest.approx(direct_logdet_bits(cfg, d, p),
                                                 abs=1e-9)


def test_telescoping_identity_three_streams():
    cfg = SystemConfig(M=2, N=2, alpha=0.9, beta=0.9, theta=0.25,
                       n_tx=3, n_rx=3, N0=0.3, seed=81)
    gram = build_gram(cfg)
    mimo = build_mimo_channel(cfg, rng_stream(81, "paths", 0))
    d = build_mimo_effective(gram, mimo.matrix, sfft_matrix(cfg), 3)
    rng = np.random.default_rng(501)
    blocks = [
        rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for _ in range(3)
    ]
    rates = per_stream_rates(cfg, d, blocks)
    p = np.zeros((12, 12), dtype=complex)
    for t in range(3):
        p[4 * t:4 * t + 4, 4 * t:4 * t + 4] = blocks[t]
    assert float(np.sum(rates)) == pytest.approx(direct_logdet_bits(cfg, d, p),
                                                 abs=1e-9)


def test_per_stream_rates_of_designed_precoder():
    cfg, gram, _, d = mimo_instance(82)
    p, cap = sic_precode(cfg, d, gram)
    rates = per_stream_rates(cfg, d, diagonal_blocks(p, cfg.n_tx))
    # the design's capacity is its per-stream bits summed in stream order
    assert cap * (cfg.alpha * cfg.beta * cfg.mn * cfg.E0) == pytest.approx(
        float(np.sum(rates)), abs=1e-9)


# ---------------------------------------------------------------- baselines ----

def test_wf_baseline_single_antenna_equals_siso():
    cfg, gram, mimo, d = mimo_instance(83, n_ant=1)
    p, cap = wf_baseline(cfg, d, gram)
    pre = solve_siso(cfg, gram, mimo.matrix, sfft_matrix(cfg), mode="pa")
    assert cap == pytest.approx(siso_capacity(pre, cfg), rel=1e-10)
    np.testing.assert_allclose(p @ p.conj().T, pre.P @ pre.P.conj().T, atol=1e-9)


@pytest.mark.parametrize("trial", range(5))
def test_wf_baseline_upper_bounds_sic(trial):
    cfg, gram, _, d = mimo_instance(90 + trial)
    _, cap_wf = wf_baseline(cfg, d, gram)
    _, cap_sic = sic_precode(cfg, d, gram)
    assert cap_wf >= cap_sic - 1e-10


def test_wf_baseline_capacity_is_its_own_logdet():
    cfg, gram, _, d = mimo_instance(95)
    p, cap = wf_baseline(cfg, d, gram)
    bits = direct_logdet_bits(cfg, d, p)
    assert cap == pytest.approx(bits / (cfg.alpha * cfg.beta * cfg.mn * cfg.E0),
                                abs=1e-9)


def test_wf_structured_first_sweep_is_sic():
    cfg, gram, _, d = mimo_instance(96)
    p_sic, cap_sic = sic_precode(cfg, d, gram)
    p1, cap1 = wf_structured(cfg, d, gram, max_sweeps=1)
    np.testing.assert_allclose(p1, p_sic, atol=1e-10)
    assert cap1 == pytest.approx(cap_sic, rel=1e-10)


@pytest.mark.parametrize("max_sweeps", [0, -3, True, 2.5, "3", None])
def test_wf_structured_rejects_bad_sweep_counts(max_sweeps):
    cfg, gram, _, d = mimo_instance(96)
    with pytest.raises(ConfigError):
        wf_structured(cfg, d, gram, max_sweeps=max_sweeps)


def test_wf_structured_takes_numpy_sweep_counts():
    cfg, gram, _, d = mimo_instance(96)
    _, cap = wf_structured(cfg, d, gram, max_sweeps=np.int64(2))
    assert cap == wf_structured(cfg, d, gram, max_sweeps=2)[1]


def test_wf_structured_ascends_and_stays_block_diagonal():
    cfg, gram, _, d = mimo_instance(97)
    _, cap_sic = sic_precode(cfg, d, gram)
    caps = [
        wf_structured(cfg, d, gram, max_sweeps=k)[1] for k in (1, 2, 5, 30)
    ]
    assert all(c2 >= c1 - 1e-12 for c1, c2 in zip(caps, caps[1:]))
    assert caps[0] == pytest.approx(cap_sic, rel=1e-10)
    p, cap = wf_structured(cfg, d, gram)
    np.testing.assert_allclose(p[:4, 4:], 0.0, atol=1e-15)
    np.testing.assert_allclose(p[4:, :4], 0.0, atol=1e-15)
    assert cap == pytest.approx(direct_logdet_bits(cfg, d, p)
                                / (cfg.alpha * cfg.beta * cfg.mn * cfg.E0), abs=1e-9)
    # the relaxed baseline stays above the best structured solution
    _, cap_wf = wf_baseline(cfg, d, gram)
    assert cap_wf >= cap - 1e-10


def test_antenna_order_invariance_of_relaxed_baseline():
    # permuting transmit antennas permutes D's block columns; the relaxed
    # water-filling capacity only sees the spectrum and cannot change
    cfg, gram, _, d = mimo_instance(98)
    d_perm = np.concatenate([d[:, 4:], d[:, :4]], axis=1)
    _, cap = wf_baseline(cfg, d, gram)
    _, cap_perm = wf_baseline(cfg, d_perm, gram)
    assert cap == pytest.approx(cap_perm, rel=1e-10)


def test_capacity_grows_with_antennas():
    caps = []
    for n_ant in (1, 2):
        cfg, gram, _, d = mimo_instance(99, n_ant=n_ant)
        caps.append(sic_precode(cfg, d, gram)[1])
    assert caps[1] > caps[0]
