"""Sweep orchestration tests: pairing, determinism, aggregation."""

import math
import weakref

import numpy as np
import pytest

from mcftn_otfs import (
    SCHEMES,
    BerPoint,
    CapacityPoint,
    ConfigError,
    NumericalError,
    SweepSpec,
    SystemConfig,
    build_dd_channel,
    build_gram,
    build_mimo_channel,
    build_mimo_channels,
    build_mimo_effective,
    demap_symbols,
    draw_dd_noise,
    draw_mimo_noise,
    make_noise_model,
    map_bits,
    mmse_weights,
    rng_stream,
    run_sweep,
    sample_paths,
    sfft_matrix,
    sic_precode,
    solve_siso,
    paths_digest,
    wf_baseline,
    wf_structured,
    run_sweep as _run_sweep,
)
from mcftn_otfs import montecarlo
from mcftn_otfs.link import bits_per_symbol
from mcftn_otfs.montecarlo import SCHEME_TABLE

BASE = SystemConfig(M=2, N=2, alpha=0.9, beta=0.9, theta=0.25, seed=3)


# ---------------------------------------------------------------- spec ------

def test_spec_validation():
    with pytest.raises(ConfigError):
        SweepSpec(config=BASE, snr_points_db=())
    with pytest.raises(ConfigError):
        SweepSpec(config=BASE, snr_points_db=(10.0, 5.0))
    with pytest.raises(ConfigError):
        SweepSpec(config=BASE, snr_points_db=(5.0,), schemes=())
    with pytest.raises(ConfigError):
        SweepSpec(config=BASE, snr_points_db=(5.0,), schemes=("siso_pa", "siso_pa"))
    with pytest.raises(ConfigError):
        SweepSpec(config=BASE, snr_points_db=(5.0,), schemes=("dirty_paper",))
    with pytest.raises(ConfigError):
        SweepSpec(config=BASE, snr_points_db=(5.0,), metric="fer")
    with pytest.raises(ConfigError):
        SweepSpec(config=BASE, snr_points_db=(5.0,), n_realizations=0)
    with pytest.raises(ConfigError):
        SweepSpec(config=BASE, snr_points_db=(5.0,), n_realizations=True)
    with pytest.raises(ConfigError):
        SweepSpec(config=BASE, snr_points_db=(5.0,), metric="ber", n_frames=0)
    with pytest.raises(ConfigError):
        SweepSpec(config=BASE, snr_points_db=(5.0,), metric="ber", n_frames=True)
    with pytest.raises(ConfigError):
        SweepSpec(config=BASE, snr_points_db=(5.0,), metric="ber", constellation="pam")
    for snr_db in (-4000.0, -150.5, 150.5, 4000.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="SNR"):
            SweepSpec(config=BASE, snr_points_db=(snr_db,))
    assert SweepSpec(config=BASE, snr_points_db=(-150.0, 150.0)).snr_points_db == (-150.0, 150.0)
    mimo_cfg = BASE.replace(n_tx=2, n_rx=2)
    for scheme in ("siso_pa", "siso_nopa", "siso_unprecoded"):
        with pytest.raises(ConfigError):
            SweepSpec(config=mimo_cfg, snr_points_db=(5.0,), schemes=(scheme,))
    # list inputs are coerced to tuples so the spec stays hashable-ish
    spec = SweepSpec(config=BASE, snr_points_db=[0.0, 5.0], schemes=["siso_pa"])
    assert spec.snr_points_db == (0.0, 5.0)
    assert spec.schemes == ("siso_pa",)


# ------------------------------------------------------------- capacity -----

def _direct_capacity(scheme, cfg, r=0):
    """Capacity of realization r through the public solver of `scheme`."""
    gram = build_gram(cfg)
    sfft = sfft_matrix(cfg)
    if scheme.startswith("siso_"):
        # the sweep's channel builder spawns one child per antenna pair
        child = rng_stream(cfg.seed, "paths", r).spawn(1)[0]
        ch = build_dd_channel(sample_paths(cfg, child), cfg)
        return solve_siso(cfg, gram, ch.h_dd, sfft, scheme)[1], paths_digest(ch.paths)
    mimo = build_mimo_channel(cfg, rng_stream(cfg.seed, "paths", r))
    d = build_mimo_effective(gram, mimo.matrix, sfft, cfg.n_rx)
    if scheme == "sic":
        cap = sic_precode(cfg, d, gram)[1]
    elif scheme == "wf_relaxed":
        cap = wf_baseline(cfg, d, gram)[1]
    else:
        cap = wf_structured(cfg, d, gram)[1]
    return cap, paths_digest(mimo.paths)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_degenerate_sweep_matches_direct_call(scheme):
    base = BASE if scheme.startswith("siso_") else BASE.replace(n_tx=2, n_rx=2)
    spec = SweepSpec(config=base, snr_points_db=(10.0,), n_realizations=1,
                     schemes=(scheme,))
    res = run_sweep(spec)
    cap, digest = _direct_capacity(scheme, base.with_snr_db(10.0))
    point = res.points[0]
    assert isinstance(point, CapacityPoint)
    assert point.mean == cap
    assert point.stderr == 0.0
    assert point.n == 1
    assert res.channel_digests[0] == digest


@pytest.mark.parametrize("scheme", ["siso_pa", "sic"])
def test_sweep_at_the_ends_of_the_snr_range(scheme):
    base = BASE if scheme == "siso_pa" else BASE.replace(n_tx=2, n_rx=2)
    res = run_sweep(SweepSpec(config=base, snr_points_db=(-150.0, 150.0),
                              n_realizations=2, schemes=(scheme,)))
    low, high = res.values[(scheme, -150.0)], res.values[(scheme, 150.0)]
    assert np.all((low > 0.0) & (low < 1e-12))
    assert np.all(np.isfinite(high) & (high > 1.0))
    for snr, cell in ((-150.0, low), (150.0, high)):
        for r in range(2):
            cap, _ = _direct_capacity(scheme, base.with_snr_db(snr), r)
            assert cell[r] == cap


@pytest.mark.parametrize("snr_db", [-150.0, -100.0, 0.0, 150.0])
def test_designs_keep_their_orderings_per_realization(snr_db):
    # water-filling carries at least the bits of unit power on the same modes
    # and budget, and the structured design at least those of its first
    # sweep, SIC: on every realization, at the ends of the SNR range too,
    # where the capacities are 1e-14 or above 100
    cfg = SystemConfig(M=4, N=2, alpha=0.9, beta=0.9, theta=0.25)
    siso = run_sweep(SweepSpec(config=cfg, snr_points_db=(snr_db,), n_realizations=12,
                               schemes=("siso_pa", "siso_nopa"))).values
    assert np.all(siso[("siso_pa", snr_db)] >= siso[("siso_nopa", snr_db)])
    mimo = run_sweep(SweepSpec(config=cfg.replace(n_tx=2, n_rx=2), snr_points_db=(snr_db,),
                               n_realizations=12, schemes=("sic", "wf_structured"))).values
    assert np.all(mimo[("wf_structured", snr_db)] >= mimo[("sic", snr_db)])


def test_single_antenna_sweep_is_one_design():
    # with one antenna every design solves the SISO problem: siso_pa and
    # wf_relaxed share the factor and the solve, SIC has a single stream and
    # the structured design stops after its SIC sweep
    res = run_sweep(SweepSpec(config=BASE, snr_points_db=(0.0, 10.0, 20.0),
                              n_realizations=3, schemes=SCHEMES))
    for snr in (0.0, 10.0, 20.0):
        pa = res.values[("siso_pa", snr)]
        np.testing.assert_array_equal(res.values[("wf_relaxed", snr)], pa)
        for scheme in ("sic", "wf_structured"):
            np.testing.assert_allclose(res.values[(scheme, snr)], pa, rtol=1e-10, atol=0.0)


def test_sweep_deterministic():
    spec = SweepSpec(config=BASE, snr_points_db=(0.0, 10.0), n_realizations=4,
                     schemes=("siso_pa", "siso_nopa"))
    a = run_sweep(spec)
    b = run_sweep(spec)
    assert a.channel_digests == b.channel_digests
    for cell in a.values:
        np.testing.assert_array_equal(a.values[cell], b.values[cell])
    assert [(p.scheme, p.snr_db, p.mean) for p in a.points] == \
           [(p.scheme, p.snr_db, p.mean) for p in b.points]


def test_sweep_pairs_schemes_on_same_channels():
    spec = SweepSpec(config=BASE, snr_points_db=(5.0,), n_realizations=6,
                     schemes=("siso_pa", "siso_nopa", "siso_unprecoded"))
    res = run_sweep(spec)
    pa = res.values[("siso_pa", 5.0)]
    nopa = res.values[("siso_nopa", 5.0)]
    unpre = res.values[("siso_unprecoded", 5.0)]
    # paired per realization: allocation helps every single channel draw
    assert np.all(pa >= nopa - 1e-9)
    # eigenbasis rotation alone never changes capacity
    np.testing.assert_allclose(nopa, unpre, atol=1e-9)
    assert len(set(res.channel_digests)) == 6


def test_sweep_aggregates_mean_and_stderr():
    spec = SweepSpec(config=BASE, snr_points_db=(8.0,), n_realizations=5)
    res = run_sweep(spec)
    cell = res.values[("siso_pa", 8.0)]
    point = res.points[0]
    assert point.mean == pytest.approx(float(np.mean(cell)), rel=1e-12)
    assert point.stderr == pytest.approx(float(np.std(cell, ddof=1) / np.sqrt(5)), rel=1e-12)
    assert res.bits_per_realization == 0


def test_sweep_capacity_increases_with_snr():
    spec = SweepSpec(config=BASE, snr_points_db=(0.0, 10.0, 20.0), n_realizations=3)
    res = run_sweep(spec)
    means = [p.mean for p in res.points]
    assert means[0] < means[1] < means[2]


def test_mimo_sweep_schemes():
    cfg = BASE.replace(n_tx=2, n_rx=2, seed=7)
    spec = SweepSpec(config=cfg, snr_points_db=(10.0,), n_realizations=3,
                     schemes=("sic", "wf_relaxed", "wf_structured"))
    res = run_sweep(spec)
    sic = res.values[("sic", 10.0)]
    relaxed = res.values[("wf_relaxed", 10.0)]
    structured = res.values[("wf_structured", 10.0)]
    assert np.all(relaxed >= sic - 1e-9)
    assert np.all(structured >= sic - 1e-9)
    assert np.all(relaxed >= structured - 1e-9)


def test_sweep_whitens_each_realization_once(monkeypatch):
    # sic takes D itself and wf_relaxed the modes of D^H D; both start from
    # one whitening per realization
    from mcftn_otfs import montecarlo

    calls = []

    def counted(*args):
        calls.append(1)
        return build_mimo_effective(*args)

    monkeypatch.setattr(montecarlo, "build_mimo_effective", counted)
    cfg = BASE.replace(n_tx=2, n_rx=2, seed=7)
    spec = SweepSpec(config=cfg, snr_points_db=(0.0, 10.0), n_realizations=3,
                     schemes=("sic", "wf_relaxed"), metric="ber", n_frames=4,
                     constellation="qpsk")
    run_sweep(spec)
    assert len(calls) == spec.n_realizations


# ------------------------------------------------------------------- ber ----

def test_ber_sweep_counts_and_interval():
    spec = SweepSpec(config=BASE, snr_points_db=(0.0, 6.0), n_realizations=3,
                     metric="ber", n_frames=4, schemes=("siso_pa",))
    res = run_sweep(spec)
    assert res.bits_per_realization == 1 * 4 * 4   # bpsk * symbols * frames
    for point in res.points:
        assert isinstance(point, BerPoint)
        cell = res.values[(point.scheme, point.snr_db)]
        assert point.errors == int(np.sum(cell))
        assert point.bits == res.bits_per_realization * 3
        assert point.ber == pytest.approx(point.errors / point.bits)
        assert 0.0 <= point.ci_low <= point.ber <= point.ci_high <= 1.0
    # more noise, more errors (or at least not fewer) on shared bits/noise
    low, high = res.points[0], res.points[1]
    assert low.snr_db == 0.0 and high.snr_db == 6.0
    assert low.errors >= high.errors


def test_ber_sweep_deterministic_and_paired():
    spec = SweepSpec(config=BASE, snr_points_db=(4.0,), n_realizations=2,
                     metric="ber", n_frames=3,
                     schemes=("siso_pa", "siso_unprecoded"))
    a = run_sweep(spec)
    b = run_sweep(spec)
    for cell in a.values:
        np.testing.assert_array_equal(a.values[cell], b.values[cell])
    assert a.channel_digests == b.channel_digests


def test_ber_sweep_qpsk_bit_accounting():
    spec = SweepSpec(config=BASE, snr_points_db=(5.0,), n_realizations=2,
                     metric="ber", n_frames=2, constellation="qpsk")
    res = run_sweep(spec)
    assert res.bits_per_realization == 2 * 4 * 2
    assert res.points[0].bits == 32


def _colored_dd_errors(spec, r, si):
    """Bit errors of each scheme at cell (r, si) on the colored delay-Doppler
    link: channel H_dd, noise drawn per antenna with covariance N0 A G A^H,
    and the LMMSE equalizer built on that covariance. Same bits, noise
    stream and precoders as the sweep."""
    cfg = spec.config
    cfg_s = cfg.with_snr_db(spec.snr_points_db[si])
    gram, sfft = build_gram(cfg), sfft_matrix(cfg)
    mimo = build_mimo_channel(cfg, rng_stream(cfg.seed, "paths", r))
    D = build_mimo_effective(gram, mimo.matrix, sfft, cfg.n_rx)
    model = make_noise_model(cfg_s.N0, gram, sfft)
    rz = np.kron(np.eye(cfg.n_rx), model.covariance)
    n_bits = bits_per_symbol(spec.constellation) * cfg.n_tx * cfg.mn
    bits = rng_stream(cfg.seed, "bits", r, si).integers(0, 2, size=(n_bits, spec.n_frames))
    x = map_bits(bits, spec.constellation, cfg.sigma_x2)
    rng = rng_stream(cfg.seed, "noise", r, si)
    z = np.concatenate([draw_dd_noise(model, rng, spec.n_frames) for _ in range(cfg.n_rx)])
    errors, dead = {}, 0
    for s in spec.schemes:
        factor, design = SCHEME_TABLE[s]
        P, _ = design(cfg_s, *factor(cfg, gram, D))
        dead += np.count_nonzero(np.all(P == 0.0, axis=0))
        b = mimo.matrix @ P
        w = mmse_weights(b, rz, cfg.sigma_x2)
        errors[s] = np.count_nonzero(bits != demap_symbols(w @ (b @ x + z), spec.constellation))
    return errors, dead


MIMO_SCHEMES = ("sic", "wf_relaxed", "wf_structured")


@pytest.mark.parametrize("n_ant,constellation,schemes,block", [
    pytest.param(2, "qpsk", MIMO_SCHEMES, None, id="2-qpsk-schemes0"),
    pytest.param(1, "bpsk", ("siso_pa", "siso_nopa", "siso_unprecoded"), None,
                 id="1-bpsk-schemes1"),
    # several antennas with real symbols: the cell computes only real parts
    pytest.param(2, "bpsk", MIMO_SCHEMES, None, id="2-bpsk"),
    # 40 frames in blocks of 16: two full blocks and a partial one
    pytest.param(2, "qpsk", MIMO_SCHEMES, 16, id="2-qpsk-blocks-of-16"),
])
def test_ber_sweep_matches_colored_dd_receiver(n_ant, constellation, schemes, block,
                                               monkeypatch):
    # the sweep equalizes on the whitened channel D with white noise; the
    # LMMSE estimate is invariant under the invertible whitening, so every
    # count equals the colored delay-Doppler receiver's. Some designs leave
    # modes unloaded (zero columns of P), which the cell counts without
    # equalizing them.
    if block is not None:
        monkeypatch.setattr(montecarlo, "_BLOCK_FRAMES", block)
    cfg = SystemConfig(M=4, N=2, alpha=0.9, beta=0.9, theta=0.25, seed=3,
                       n_tx=n_ant, n_rx=n_ant)
    spec = SweepSpec(config=cfg, snr_points_db=(0.0, 10.0, 20.0), n_realizations=2,
                     schemes=schemes, metric="ber", n_frames=40, constellation=constellation)
    res = run_sweep(spec)
    total = dead = 0
    for r in range(spec.n_realizations):
        for si, snr in enumerate(spec.snr_points_db):
            cell, cell_dead = _colored_dd_errors(spec, r, si)
            for s, errors in cell.items():
                assert res.values[(s, snr)][r] == errors, (s, snr, r)
                total += errors
            dead += cell_dead
    assert total > 0
    assert dead > 0


def _white_errors(spec, r, si):
    """Bit errors and live modes of each scheme at cell (r, si) from hard
    decisions on W (B x + z) over every mode, with B = D P, W its LMMSE
    weights and z = sqrt(N0) w the stacked white draw. The bits are one
    (n_bits, n_frames) int64 draw of the cell's stream."""
    cfg = spec.config
    cfg_s = cfg.with_snr_db(spec.snr_points_db[si])
    gram, sfft = build_gram(cfg), sfft_matrix(cfg)
    n_bits = bits_per_symbol(spec.constellation) * cfg.n_tx * cfg.mn
    mimo = build_mimo_channel(cfg, rng_stream(cfg.seed, "paths", r))
    D = build_mimo_effective(gram, mimo.matrix, sfft, cfg.n_rx)
    bits = rng_stream(cfg.seed, "bits", r, si).integers(0, 2, size=(n_bits, spec.n_frames))
    x = map_bits(bits, spec.constellation, cfg.sigma_x2)
    z = draw_mimo_noise(cfg_s.N0, rng_stream(cfg.seed, "noise", r, si), cfg.n_rx,
                        (cfg.mn, spec.n_frames))
    cell = {}
    for s in spec.schemes:
        factor, design = SCHEME_TABLE[s]
        P, _ = design(cfg_s, *factor(cfg, gram, D))
        b = D @ P
        w = mmse_weights(b, cfg_s.N0 * np.eye(b.shape[0]), cfg.sigma_x2)
        errors = np.count_nonzero(bits != demap_symbols(w @ (b @ x + z), spec.constellation))
        cell[s] = errors, np.count_nonzero(np.any(b != 0.0, axis=0))
    return cell


@pytest.mark.parametrize("constellation", ["bpsk", "qpsk"])
def test_ber_cell_with_one_live_mode_matches_direct_formula(constellation):
    # at -30 dB wf_relaxed loads a single mode of the 2x2 4x2 grid; the cell
    # equalizes that mode alone and counts the 1-bits of the others, which
    # must equal hard decisions over every mode
    cfg = SystemConfig(M=4, N=2, alpha=0.9, beta=0.9, theta=0.25, seed=3, n_tx=2, n_rx=2)
    spec = SweepSpec(config=cfg, snr_points_db=(-30.0,), n_realizations=2,
                     schemes=("wf_relaxed", "sic"), metric="ber", n_frames=40,
                     constellation=constellation)
    res = run_sweep(spec)
    for r in range(spec.n_realizations):
        cell = _white_errors(spec, r, 0)
        assert cell["wf_relaxed"][1] == 1
        for s, (errors, _) in cell.items():
            assert res.values[(s, -30.0)][r] == errors, (s, r)


@pytest.mark.parametrize("n_frames", [1, 7, 333, 16000])
def test_ber_counts_match_one_block_bit_draw(n_frames):
    # the cell draws its bits a row at a time; at frame counts that are odd,
    # below one block and across many blocks those rows must be the values
    # of one (n_bits, n_frames) draw, so the counts equal hard decisions on it
    cfg = SystemConfig(M=4, N=2, alpha=0.9, beta=0.9, theta=0.25, seed=3, n_tx=2, n_rx=2)
    spec = SweepSpec(config=cfg, snr_points_db=(0.0,), n_realizations=1,
                     schemes=("wf_relaxed", "sic"), metric="ber", n_frames=n_frames,
                     constellation="qpsk")
    res = run_sweep(spec)
    for s, (errors, _) in _white_errors(spec, 0, 0).items():
        assert res.values[(s, 0.0)][0] == errors, s
    assert n_frames < 7 or sum(int(v[0]) for v in res.values.values()) > 0


def test_ber_counts_do_not_depend_on_the_block_size(monkeypatch):
    # the cell runs its frames in blocks; single frames, a block size that
    # leaves a partial last block and one block larger than the cell must
    # all give the same counts
    spec = SweepSpec(config=BASE.replace(n_tx=2, n_rx=2), snr_points_db=(0.0, 10.0),
                     n_realizations=2, schemes=MIMO_SCHEMES, metric="ber", n_frames=40,
                     constellation="qpsk")
    first = run_sweep(spec).values
    assert montecarlo._BLOCK_FRAMES > spec.n_frames
    for block in (1, 7, spec.n_frames + 1):
        monkeypatch.setattr(montecarlo, "_BLOCK_FRAMES", block)
        values = run_sweep(spec).values
        assert values.keys() == first.keys()
        for cell, counts in first.items():
            np.testing.assert_array_equal(values[cell], counts, err_msg=f"{cell} block {block}")
    assert sum(int(np.sum(v)) for v in first.values()) > 0


def _q(v):
    return 0.5 * math.erfc(v / math.sqrt(2.0))


@pytest.mark.parametrize("n_ant,constellation,scheme", [
    (1, "bpsk", "siso_pa"),
    (1, "qpsk", "siso_pa"),
    (2, "qpsk", "wf_relaxed"),
    (2, "bpsk", "wf_relaxed"),
])
def test_ber_sweep_matches_closed_form(n_ant, constellation, scheme):
    # for the pooled designs B^H B (B = D P) is diagonal, so the LMMSE
    # estimate splits into independent scalar channels: each rail of mode k
    # errs with probability Q(sqrt(sigma_x2 g_k / N0)) for QPSK and
    # Q(sqrt(2 sigma_x2 g_k / N0)) for BPSK, g_k = (B^H B)_kk, and 1/2 on an
    # unloaded mode. Built from D and P alone, this checks the noise scale
    # and the symbol mapping of the cell without reusing them.
    cfg = SystemConfig(M=4, N=2, alpha=0.9, beta=0.9, theta=0.25, seed=3,
                       n_tx=n_ant, n_rx=n_ant)
    spec = SweepSpec(config=cfg, snr_points_db=(0.0, 8.0, 16.0), n_realizations=2,
                     schemes=(scheme,), metric="ber", n_frames=2000,
                     constellation=constellation)
    res = run_sweep(spec)
    gram, sfft = build_gram(cfg), sfft_matrix(cfg)
    factor, design = SCHEME_TABLE[scheme]
    k = bits_per_symbol(constellation)
    channels = []
    for r in range(spec.n_realizations):
        mimo = build_mimo_channel(cfg, rng_stream(cfg.seed, "paths", r))
        channels.append(build_mimo_effective(gram, mimo.matrix, sfft, cfg.n_rx))
    for snr in spec.snr_points_db:
        cfg_s = cfg.with_snr_db(snr)
        mean = var = 0.0
        for D in channels:
            P, _ = design(cfg_s, *factor(cfg, gram, D))
            bb = (D @ P).conj().T @ (D @ P)
            g = np.diag(bb).real
            assert np.max(np.abs(bb - np.diag(g))) <= 1e-12 * max(1.0, np.max(g))
            for gk in g:
                p = _q(math.sqrt(2.0 / k * cfg_s.sigma_x2 * gk / cfg_s.N0))
                mean += spec.n_frames * k * p
                var += spec.n_frames * k * p * (1.0 - p)
        errors = int(np.sum(res.values[(scheme, snr)]))
        assert abs(errors - mean) <= 4.0 * math.sqrt(var), (snr, errors, mean, math.sqrt(var))


@pytest.mark.parametrize("cfg,metric,constellation,schemes", [
    (BASE, "capacity", "bpsk", SCHEMES),
    (BASE.replace(n_tx=2, n_rx=2), "ber", "qpsk", ("sic", "wf_relaxed", "wf_structured")),
])
def test_realization_values_do_not_depend_on_the_count(cfg, metric, constellation, schemes):
    k = 2
    short, long = (run_sweep(SweepSpec(config=cfg, snr_points_db=(0.0, 10.0), n_realizations=n,
                                       schemes=schemes, metric=metric, n_frames=6,
                                       constellation=constellation))
                   for n in (k, k + 2))
    assert long.channel_digests[:k] == short.channel_digests
    for cell, values in short.values.items():
        np.testing.assert_array_equal(long.values[cell][:k], values)


def test_one_realization_equals_the_first_of_many_at_one_slot():
    # at M = N = L = 1 a lone realization's channel is a one-row table at one offset
    for seed in range(12):
        cfg = SystemConfig(M=1, N=1, alpha=0.9, beta=0.9, theta=0.25, L=1, seed=seed)
        one, many = (run_sweep(SweepSpec(config=cfg, snr_points_db=(0.0, 10.0),
                                         n_realizations=n, schemes=SCHEMES))
                     for n in (1, 24))
        assert many.channel_digests[:1] == one.channel_digests
        for cell, values in one.values.items():
            np.testing.assert_array_equal(many.values[cell][:1], values, err_msg=f"seed {seed}")


def test_small_alpha_sweeps_raise_only_typed_errors_and_stay_in_range():
    # allow_small_alpha lifts the alpha >= 1/(1+theta) guard; the Gram may then
    # lose every mode, which is a typed error, but no value may leave its range
    rng = np.random.default_rng(11)
    finished = 0
    for metric in montecarlo.METRICS * 10:
        theta = float(rng.choice([0.05, 0.25, 1.0]))
        n_tx, n_rx = (int(v) for v in rng.integers(1, 3, size=2))
        cfg = SystemConfig(M=int(rng.integers(1, 5)), N=int(rng.integers(1, 5)),
                           alpha=float(rng.uniform(0.01, 1.0 / (1.0 + theta))),
                           beta=float(rng.uniform(0.01, 1.0)), theta=theta, n_tx=n_tx,
                           n_rx=n_rx, seed=int(rng.integers(2 ** 31)), allow_small_alpha=True)
        schemes = [s for s in SCHEMES if n_tx == n_rx == 1 or not s.startswith("siso_")]
        spec = SweepSpec(config=cfg, snr_points_db=(-150.0, 0.0, 150.0), n_realizations=2,
                         schemes=schemes, metric=metric, n_frames=4, constellation="qpsk")
        try:
            res = run_sweep(spec)
        except (ConfigError, NumericalError):
            continue
        finished += 1
        for values in res.values.values():
            if metric == "capacity":
                assert np.all(np.isfinite(values)) and np.all(values >= 0.0), cfg
            else:
                assert np.all((values >= 0) & (values <= res.bits_per_realization)), cfg
    assert finished >= 10


# ---------------------------------------------------------------- blocks ----

# three 8x4 4x4 realizations fill a block of channel draws, so five span two
BLOCKED = SweepSpec(config=SystemConfig(M=8, N=4, alpha=0.9, beta=0.9, theta=0.25,
                                        n_tx=4, n_rx=4, seed=2),
                    snr_points_db=(0.0, 10.0), n_realizations=5, schemes=("sic", "wf_relaxed"))


def test_sweep_over_blocks_equals_per_realization_loop(monkeypatch):
    blocked = run_sweep(BLOCKED)
    monkeypatch.setattr(montecarlo, "build_mimo_channels",
                        lambda cfg, rngs: (build_mimo_channel(cfg, rng) for rng in rngs))
    alone = run_sweep(BLOCKED)
    assert blocked.channel_digests == alone.channel_digests
    assert blocked.values.keys() == alone.values.keys()
    for cell, values in blocked.values.items():
        np.testing.assert_array_equal(values, alone.values[cell])
    assert blocked.points == alone.points


def test_sweep_integrates_once_per_gram_and_block(monkeypatch):
    from mcftn_otfs import pulse

    calls = []
    table = pulse.ambiguity_table
    monkeypatch.setattr(pulse, "ambiguity_table",
                        lambda *args, **kwargs: calls.append(1) or table(*args, **kwargs))
    pulse._gram.cache_clear()
    run_sweep(BLOCKED)
    assert len(calls) == 1 + 2
    # the next sweep on the lattice reuses its Gram and integrates its channels only
    run_sweep(SweepSpec(**{**vars(BLOCKED), "config": BLOCKED.config.replace(seed=9)}))
    assert len(calls) == 1 + 2 + 2
    assert montecarlo.build_mimo_channels is build_mimo_channels


@pytest.mark.parametrize("metric", montecarlo.METRICS)
def test_sweep_drops_each_channel_before_the_next_draw(monkeypatch, metric):
    spec = SweepSpec(config=BASE.replace(n_tx=2, n_rx=2), snr_points_db=(0.0, 10.0),
                     n_realizations=3, schemes=("sic", "wf_relaxed"), metric=metric,
                     n_frames=20)
    dead = []

    def watched(*args):
        channels, owners = build_mimo_channels(*args), []
        while True:
            dead.append(all(owner() is None for owner in owners))
            box = [next(channels, None)]
            if box[0] is None:
                return
            owners.append(weakref.ref(box[0].matrix.base))
            yield box.pop()     # handed over with no reference kept here

    monkeypatch.setattr(montecarlo, "build_mimo_channels", watched)
    run_sweep(spec)
    assert dead == [True] * spec.n_realizations
