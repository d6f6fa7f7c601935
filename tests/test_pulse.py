"""Pulse shape, cross-ambiguity quadrature and Gram matrix tests."""

import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import integrate

from mcftn_otfs import (
    ConfigError,
    DdPath,
    DegenerateConfigurationError,
    GramMatrix,
    NumericalError,
    RrcPulse,
    SystemConfig,
    ambiguity_table,
    build_gram,
    build_tf_channel,
    make_noise_model,
    rng_stream,
    sample_paths,
    sfft_matrix,
)
from mcftn_otfs import pulse as pulse_module
from mcftn_otfs.pulse import _CHUNK_NODES, coupling_matrices, coupling_matrix, lattice_pulse
from reference import (
    ambiguity_spectral,
    ambiguity_time,
    gram_entry_direct,
    rc_autocorr,
    rrc_ref,
)

# closed-form value of the untruncated pulse at t = 0 for theta = 0.25:
# 1 - theta + 4 theta / pi
RRC_PEAK_THETA025 = 1.0683098861837907
# ideal-pulse ambiguity at one carrier offset, A(1, 0) = theta / pi
AMB_ONE_CARRIER_THETA025 = 0.07957747154594767


# ------------------------------------------------------------ amplitude ----

def test_amplitude_peak_value():
    pulse = RrcPulse(theta=0.25)
    # renormalization of the truncated pulse shifts the peak by ~5e-7
    assert pulse.amplitude(0.0) == pytest.approx(RRC_PEAK_THETA025, abs=2e-6)
    assert pulse.amplitude(0.0) == pytest.approx(rrc_ref(0.0, 0.25), abs=1e-10)


def test_amplitude_matches_reference_on_grid():
    pulse = RrcPulse(theta=0.25)
    t = np.linspace(-6.0, 6.0, 241)
    np.testing.assert_allclose(pulse.amplitude(t), rrc_ref(t, 0.25), atol=1e-10)


def test_amplitude_singularity_continuous():
    # removable singularity at |t| = 1 / (4 theta)
    pulse = RrcPulse(theta=0.25)
    t_sing = 1.0 / (4.0 * 0.25)
    assert pulse.amplitude(t_sing) == pytest.approx(rrc_ref(t_sing, 0.25), abs=1e-10)
    assert pulse.amplitude(t_sing) == pytest.approx(
        pulse.amplitude(t_sing + 1e-7), abs=1e-5
    )


@pytest.mark.parametrize("theta", [0.05, 0.25, 1.0])
def test_amplitude_near_singularity_matches_mpmath(theta):
    # |t| = 1 / (4 theta) is a removable singularity of the closed form; the
    # pulse keeps full precision on both sides of it and exactly on it
    mpmath = pytest.importorskip("mpmath")

    def raw(u):
        with mpmath.workdps(50):
            u, th = mpmath.mpf(u), mpmath.mpf(theta)
            if 4 * th * abs(u) == 1:
                u += mpmath.mpf("1e-35")   # the derivative is O(1): exact to 1e-35
            return (mpmath.sin(mpmath.pi * u * (1 - th))
                    + 4 * th * u * mpmath.cos(mpmath.pi * u * (1 + th))) / (
                        mpmath.pi * u * (1 - (4 * th * u) ** 2))

    with mpmath.workdps(50):
        peak = 1 - mpmath.mpf(theta) + 4 * mpmath.mpf(theta) / mpmath.pi   # the u = 0 limit
    pulse = RrcPulse(theta=theta)
    t_sing = 1.0 / (4.0 * theta)
    offsets = np.concatenate([-np.logspace(-2, -12, 11), [0.0], np.logspace(-12, -2, 11)])
    for t in np.concatenate([t_sing + offsets, -t_sing - offsets]):
        ref = float(raw(t) / peak)
        got = pulse.amplitude(t) / pulse.amplitude(0.0)
        assert abs(got - ref) <= 1e-14 * abs(ref), f"theta {theta}, t {t!r}"


def test_amplitude_even_and_truncated():
    pulse = RrcPulse(theta=0.25)
    t = np.linspace(0.1, 40.0, 57)
    np.testing.assert_allclose(pulse.amplitude(t), pulse.amplitude(-t), atol=1e-15)
    assert pulse.amplitude(32.0001) == 0.0
    assert pulse.amplitude(-50.0) == 0.0
    assert pulse.amplitude(32.0) != 0.0 and pulse_module.SPAN == 32


def test_amplitude_unit_energy():
    pulse = RrcPulse(theta=0.25)
    energy, _ = integrate.quad(lambda t: pulse.amplitude(t) ** 2, 0.0, 32.0,
                               epsabs=1e-13, limit=800)
    assert 2.0 * energy == pytest.approx(1.0, abs=1e-9)


def test_theta_zero_amplitude_is_sinc():
    pulse = RrcPulse(theta=0.0)
    t = np.linspace(-3.0, 3.0, 25)
    ref = np.sinc(t)
    # theta = 0 tails decay like 1/t, so renormalization is a larger shift
    np.testing.assert_allclose(pulse.amplitude(t), ref, atol=1e-2)
    np.testing.assert_allclose(pulse.amplitude(t) / pulse.amplitude(0.0),
                               ref, atol=1e-12)


def test_pulse_validation():
    with pytest.raises(ConfigError):
        RrcPulse(theta=-0.1)
    with pytest.raises(ConfigError):
        RrcPulse(theta=1.5)
    # time is in units of T0, so the pulse has no T0 of its own
    assert [f.name for f in dataclasses.fields(RrcPulse)] == ["theta", "nodes_per_t0"]
    # the node count sizes the pulse's quadrature grid: an integer of at least
    # 2, and at most the 512 of which one chunk of a table holds a 64 T0 row
    for bad in (1, 0, 2.5, "64", True, None, 513):
        with pytest.raises(ConfigError, match="nodes_per_t0"):
            RrcPulse(theta=0.25, nodes_per_t0=bad)
    assert RrcPulse(theta=0.25, nodes_per_t0=np.int64(2)).nodes_per_t0 == 2
    assert RrcPulse(theta=0.25, nodes_per_t0=512).nodes_per_t0 == _CHUNK_NODES // 64


# ------------------------------------------------------------- ambiguity ----

def test_ambiguity_at_origin_is_unit_energy():
    pulse = RrcPulse(theta=0.25)
    assert pulse.ambiguity_batch(0.0, 0.0)[0] == pytest.approx(1.0, abs=1e-9)


def test_ambiguity_nyquist_orthogonality():
    pulse = RrcPulse(theta=0.25)
    for k in (1, 2, 3):
        assert abs(pulse.ambiguity_batch(0.0, k * 1.0)[0]) < 1e-6
    # one-carrier offset is theta/pi for the ideal pulse, not zero;
    # orthogonality needs the carrier phase ramp of the full Gram entry
    vals = pulse.ambiguity_batch([1.0, 2.0], 0.0)
    np.testing.assert_array_less(np.abs(vals.imag), 1e-9)


def test_ambiguity_one_carrier_closed_form():
    pulse = RrcPulse(theta=0.25)
    val = pulse.ambiguity_batch(1.0, 0.0)[0]
    assert val.real == pytest.approx(AMB_ONE_CARRIER_THETA025, abs=1e-6)
    ref = ambiguity_spectral(1.0, 0.0, 0.25)
    assert val == pytest.approx(ref, abs=1e-6)


def test_ambiguity_zero_doppler_is_autocorrelation():
    pulse = RrcPulse(theta=0.25)
    taus = np.array([0.4, 0.85, 1.7, 2.55])
    # with one carrier the table has the single column f = 0
    vals = ambiguity_table(pulse, SystemConfig(M=1, N=1), taus)[:, 0]
    np.testing.assert_allclose(vals.imag, 0.0, atol=1e-9)
    np.testing.assert_allclose(vals.real, rc_autocorr(taus, 0.25), atol=5e-6)


@pytest.mark.parametrize("trial", range(8))
def test_ambiguity_matches_quadrature_oracle(trial):
    rng = np.random.default_rng(100 + trial)
    pulse = RrcPulse(theta=0.25)
    f = float(rng.uniform(-2.0, 2.0))
    tau = float(rng.uniform(-3.0, 3.0))
    ref = ambiguity_time(f, tau, 0.25)
    assert pulse.ambiguity_batch(f, tau)[0] == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("trial", range(4))
def test_ambiguity_close_to_ideal_pulse(trial):
    # truncation + renormalization stays within ~1e-6 of the ideal pulse
    rng = np.random.default_rng(200 + trial)
    pulse = RrcPulse(theta=0.25)
    f = float(rng.uniform(-1.2, 1.2))
    tau = float(rng.uniform(-2.0, 2.0))
    ref = ambiguity_spectral(f, tau, 0.25)
    assert pulse.ambiguity_batch(f, tau)[0] == pytest.approx(ref, abs=5e-6)


def test_ambiguity_conjugate_symmetry():
    pulse = RrcPulse(theta=0.25)
    rng = np.random.default_rng(42)
    for _ in range(6):
        f = float(rng.uniform(-2.0, 2.0))
        tau = float(rng.uniform(-2.5, 2.5))
        lhs = pulse.ambiguity_batch(-f, -tau)[0]
        rhs = np.conj(pulse.ambiguity_batch(f, tau)[0]) * np.exp(2j * np.pi * f * tau)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_ambiguity_vanishes_beyond_overlap():
    pulse = RrcPulse(theta=0.25)
    assert pulse.ambiguity_batch(0.3, 64.5)[0] == 0.0
    assert pulse.ambiguity_batch(0.0, -70.0)[0] == 0.0


def test_ambiguity_broadcasting():
    pulse = RrcPulse(theta=0.25)
    f = np.array([0.0, 0.5, 1.0, -0.5])
    tau = np.array([0.0, 0.85, -0.85, 1.7])
    # a batch of frequency offsets shares the nodes of its delay row
    for j in range(4):
        row = pulse.ambiguity_batch(f, float(tau[j]))
        assert row.shape == (4,)
        for i in range(4):
            assert row[i] == pytest.approx(
                pulse.ambiguity_batch(float(f[i]), float(tau[j]))[0], abs=1e-13
            )


def test_ambiguity_quadrature_converged():
    base = RrcPulse(theta=0.25, nodes_per_t0=64)
    fine = RrcPulse(theta=0.25, nodes_per_t0=96)
    rng = np.random.default_rng(9)
    f = rng.uniform(-2.0, 2.0, 5)
    tau = rng.uniform(-2.0, 2.0, 5)
    for fi, ti in zip(f, tau):
        np.testing.assert_allclose(base.ambiguity_batch(fi, ti), fine.ambiguity_batch(fi, ti),
                                   atol=1e-12)
    # the grid's node-count rule against a 128-node table: the largest
    # supported grid with the widest offsets (|doppler| = nu_max at
    # delay = tau_max), and 1x16, where the carrier recurrence has length 1
    reference = RrcPulse(theta=0.25, nodes_per_t0=128)
    for M, N in ((16, 16), (1, 16)):
        cfg = SystemConfig(M=M, N=N, alpha=1.0, beta=1.0, theta=0.25)
        taus = np.arange(-(N - 1), N) * cfg.alpha
        for doppler in (cfg.nu_max, -cfg.nu_max):
            pulse = lattice_pulse(cfg, [doppler])
            assert pulse.nodes_per_t0 < reference.nodes_per_t0
            assert lattice_pulse(cfg, [-doppler]) is pulse   # cached per node count
            np.testing.assert_allclose(
                ambiguity_table(pulse, cfg, taus - cfg.tau_max, doppler),
                ambiguity_table(reference, cfg, taus - cfg.tau_max, doppler),
                rtol=0.0, atol=1e-12, err_msg=f"{M}x{N}, doppler {doppler}")


# Each row of a table is integrated on the pulse's fixed grid of one panel per
# T0 over [-32, 32], except the panel cut by the row's truncation edge (tau - 32
# or tau + 32), which gets its own nodes. These cases pin that edge handling
# and the directly evaluated zones against the adaptive-quadrature oracle.
EDGE_CASES = {
    # alpha = 1 and an integer delay shift put every edge on a panel boundary:
    # delay -1 leaves an empty edge panel, delay 2 a full-width one
    "edge-on-panel-boundary": (0.25, 3, 3, 1.0, 0.03, -1.0, [(0, 0), (3, 4)]),
    # delays 1 - 5e-13 and -(1 - 5e-13): edge panels 5e-13 T0 wide
    "edge-panel-below-1e-12-right": (0.25, 2, 2, 1.0, 0.0, 5e-13, [(2, 1)]),
    "edge-panel-below-1e-12-left": (0.25, 2, 2, 1.0, 0.0, -5e-13, [(0, 2)]),
}


@pytest.mark.parametrize("case", EDGE_CASES)
def test_ambiguity_table_edges_match_oracle(case):
    theta, M, N, alpha, doppler, delay_shift, entries = EDGE_CASES[case]
    cfg = SystemConfig(M=M, N=N, alpha=alpha, beta=alpha, theta=theta)
    taus = np.arange(-(N - 1), N) * cfg.alpha
    table = ambiguity_table(lattice_pulse(cfg, [doppler]), cfg, taus - delay_shift, doppler)
    for i, j in entries:
        f = (j - (M - 1)) * cfg.beta - doppler
        ref = ambiguity_time(f, float(taus[i] - delay_shift), theta)
        assert table[i, j] == pytest.approx(ref, abs=1e-10), (i, j)


@pytest.mark.parametrize("theta, u", [(0.05, 5.0), (1.0, 0.25), (1.0, 0.0)])
def test_ambiguity_table_near_cancelling_nodes_matches_oracle(theta, u):
    # The closed form of g(t - tau) cancels at u = (t - tau)/T0 = 0 and at
    # |u| = 1/(4 theta), so near them the pulse is evaluated directly instead
    # of by angle addition. Put a grid node 1e-11 T0 from each point (for
    # theta = 0.05 the band around |u| = 5 lies outside the |u| <= 1.5 zone);
    # without the direct evaluation the error there is about 1e-7.
    cfg = SystemConfig(M=4, N=3, alpha=1.0, beta=1.0, theta=theta)
    pulse = lattice_pulse(cfg, [0.02])
    x, _ = np.polynomial.legendre.leggauss(pulse.nodes_per_t0)
    delay = 0.5 * (x[0] + 1.0) - (u + 1e-11)   # first node of panel [0, 1]
    table = ambiguity_table(pulse, cfg, np.array([delay]), 0.02)
    ref = ambiguity_time(cfg.beta - 0.02, delay, theta)
    assert table[0, 4] == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_ambiguity_table_at_largest_doppler_matches_oracle(sign):
    cfg = SystemConfig(M=8, N=4, alpha=0.9, beta=0.9, theta=0.25)
    doppler = sign * cfg.nu_max
    taus = np.arange(-(cfg.N - 1), cfg.N) * cfg.alpha
    table = ambiguity_table(lattice_pulse(cfg, [doppler]), cfg, taus - cfg.tau_max, doppler)
    ref = ambiguity_time(cfg.beta - doppler, taus[4] - cfg.tau_max, cfg.theta)
    assert table[4, 8] == pytest.approx(ref, abs=1e-10)


def test_ambiguity_table_rows_without_overlap_are_exact_zeros():
    # |tau| >= 64 T0 leaves no overlap; tau = 63.5 T0 leaves half a panel,
    # integrated by the edge nodes alone
    cfg = SystemConfig(M=2, N=1, theta=0.25)
    pulse = lattice_pulse(cfg, [0.0])
    table = ambiguity_table(pulse, cfg, np.array([63.5, 64.0, 70.0, -64.0, -80.0]), 0.01)
    assert np.all(table[1:] == 0.0)
    ref = ambiguity_time(-cfg.beta - 0.01, 63.5, cfg.theta)
    assert table[0, 0] == pytest.approx(ref, abs=1e-10)
    assert table[0, 0] != 0.0


# ----------------------------------------------------------------- gram ----

@pytest.fixture(scope="module")
def small_gram():
    cfg = SystemConfig(M=2, N=2, alpha=0.8, beta=0.9, theta=0.25)
    return cfg, build_gram(cfg)


def test_gram_matches_entrywise_quadrature(small_gram):
    cfg, gram = small_gram
    for row in range(4):
        for col in range(4):
            m1, n1 = row % 2, row // 2
            m2, n2 = col % 2, col // 2
            ref = gram_entry_direct(m1, n1, m2, n2, cfg.alpha, cfg.beta, cfg.theta)
            assert gram.matrix[row, col] == pytest.approx(ref, abs=1e-10), (row, col)


def test_gram_hermitian_unit_diagonal(small_gram):
    _, gram = small_gram
    np.testing.assert_allclose(gram.matrix, gram.matrix.conj().T, atol=1e-12)
    np.testing.assert_allclose(np.diag(gram.matrix), 1.0, atol=1e-9)


def test_gram_psd_and_sqrt(small_gram):
    cfg, gram = small_gram
    assert gram.eigenvalues[-1] > -1e-8 * gram.eigenvalues[0]
    # the noise coloring A G^{1/2} squares back to A G A^H, and A^H times it,
    # the square root, is Hermitian
    a = sfft_matrix(cfg)
    coloring = make_noise_model(1.0, gram, a).coloring
    np.testing.assert_allclose(coloring @ coloring.conj().T, a @ gram.matrix @ a.conj().T,
                               atol=1e-9)
    root = a.conj().T @ coloring
    np.testing.assert_allclose(root, root.conj().T, atol=1e-10)
    # full-rank case: inv_sqrt whitens exactly
    assert gram.n_active == 4
    np.testing.assert_allclose(
        gram.inv_sqrt @ gram.matrix @ gram.inv_sqrt, np.eye(4), atol=1e-8
    )
    assert gram.condition_number >= 1.0


def test_gram_equal_offsets_share_entries():
    cfg = SystemConfig(M=3, N=3, alpha=0.85, beta=0.9, theta=0.25)
    g = build_gram(cfg).matrix
    im = lambda m, n: n * 3 + m
    # same (dm, dn) and same column m -> identical entry
    assert g[im(2, 1), im(1, 0)] == pytest.approx(g[im(2, 2), im(1, 1)], abs=1e-14)
    assert g[im(0, 2), im(2, 1)] == pytest.approx(g[im(0, 1), im(2, 0)], abs=1e-13)


def test_gram_nyquist_time_orthogonality():
    # (alpha, beta) = (1, 1) restores orthogonality along time: same carrier,
    # different slot entries vanish. Carriers stay coupled (adjacent-carrier
    # inner product is theta/pi for a root raised cosine), so the Gram is NOT
    # the identity; that coupling is checked against its closed form.
    cfg = SystemConfig(M=4, N=2, alpha=1.0, beta=1.0, theta=0.25)
    gram = build_gram(cfg)
    np.testing.assert_allclose(np.diag(gram.matrix), 1.0, atol=1e-9)
    for m in range(4):
        for n1 in range(2):
            for n2 in range(2):
                if n1 == n2:
                    continue
                assert abs(gram.matrix[n1 * 4 + m, n2 * 4 + m]) < 1e-6
    adj = gram.matrix[0, 1]
    assert adj.real == pytest.approx(AMB_ONE_CARRIER_THETA025, abs=1e-6)
    assert gram.n_active == 8


def test_gram_time_only_compression_is_raised_cosine():
    # beta = 1 keeps carriers orthogonal; the M = 1 sub-Gram is the raised
    # cosine autocorrelation sampled at multiples of alpha*T0
    cfg = SystemConfig(M=1, N=4, alpha=0.85, beta=1.0, theta=0.25)
    g = build_gram(cfg).matrix
    for k1 in range(4):
        for k2 in range(4):
            ref = rc_autocorr((k1 - k2) * 0.85, 0.25)
            assert g[k1, k2] == pytest.approx(ref, abs=5e-6), (k1, k2)


def test_gram_compression_loses_no_hermitianity():
    cfg = SystemConfig(M=4, N=3, alpha=0.8, beta=0.85, theta=0.25)
    gram = build_gram(cfg)
    asym = np.max(np.abs(gram.matrix - gram.matrix.conj().T))
    assert asym < 1e-13
    assert gram.size == 12


LATTICE = SystemConfig(M=4, N=2, alpha=0.9, beta=0.9, theta=0.25)
GRAM_ARRAYS = ("matrix", "eigenvalues", "eigenvectors", "active")


def _nodes(cfg):
    return lattice_pulse(cfg, [0.0]).nodes_per_t0


def test_node_count_takes_no_node_from_rounding():
    # (M - 1) beta + nu_max = 2.7 + 0.1 is 2.8000000000000003 in floats, and 2.5
    # times it lands a few ulps above 7; the rule's ceil(7) + 16 = 23 nodes, as
    # for nu_max = 0, so both configs share one pulse and one Gram
    still = LATTICE.replace(nu_max=0.0)
    assert _nodes(LATTICE) == _nodes(still) == 23
    assert lattice_pulse(LATTICE, [0.1]) is lattice_pulse(still, [0.0])
    assert build_gram(LATTICE) is build_gram(still)
    # so with nu_max = 0: 3 * 0.8 is 2.4000000000000004, and ceil(6) + 16 = 22
    assert _nodes(SystemConfig(M=4, N=2, beta=0.8, nu_max=0.0)) == 22


@pytest.mark.parametrize("change", [{"seed": 5}, {"N0": 0.1}, {"sigma_x2": 2.0}, {"L": 6},
                                    {"n_tx": 2}, {"n_rx": 3}, {"tau_max": 0.5},
                                    {"nu_max": 0.05}], ids=lambda c: next(iter(c)))
def test_build_gram_shares_one_gram_per_lattice(change):
    cfg = LATTICE.replace(**change)
    assert _nodes(cfg) == _nodes(LATTICE)
    assert build_gram(cfg) is build_gram(LATTICE)


@pytest.mark.parametrize("change", [{"M": 3}, {"N": 3}, {"alpha": 0.95}, {"beta": 0.95},
                                    {"theta": 0.3}, {"nu_max": 2.0}],
                         ids=lambda c: next(iter(c)))
def test_build_gram_of_another_lattice_equals_an_uncached_build(change):
    cfg = LATTICE.replace(**change)
    gram = build_gram(cfg)
    assert gram is not build_gram(LATTICE)
    assert gram is build_gram(cfg.replace(seed=1))
    if "nu_max" in change:
        assert _nodes(cfg) != _nodes(LATTICE)
    direct = GramMatrix.from_matrix(coupling_matrix(cfg, ((1.0, 0.0, 0.0),)))
    for name in GRAM_ARRAYS + ("inv_sqrt",):
        np.testing.assert_array_equal(getattr(gram, name), getattr(direct, name), err_msg=name)


def test_cached_gram_is_read_only():
    gram = build_gram(LATTICE)
    for name in GRAM_ARRAYS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(gram, name)[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        gram.matrix = np.eye(gram.size)
    with pytest.raises(ValueError, match="read-only"):
        gram.whitening(sfft_matrix(LATTICE))[0] = 0


@pytest.mark.parametrize("cfg", [
    SystemConfig(M=8, N=4, alpha=0.9, beta=0.9),
    SystemConfig(M=16, N=8, alpha=0.5, beta=0.5, allow_small_alpha=True),
], ids=["8x4-0.9", "16x8-0.5"])
def test_active_modes_do_not_grow_as_the_floor_rises(monkeypatch, cfg):
    # the Gram's degrees of freedom are the eigenvalues above FLOOR_REL times
    # the largest; a higher floor can only drop modes
    matrix = build_gram(cfg).matrix
    counts = []
    for floor in (1e-10, 1e-8, 1e-6, 1e-4, 1e-2):
        monkeypatch.setattr(GramMatrix, "FLOOR_REL", floor)
        counts.append(GramMatrix.from_matrix(matrix).n_active)
    assert counts == sorted(counts, reverse=True)
    if cfg.alpha == 0.9:
        assert counts == [32] * 5    # criterion 07's most compressed point loses none
    else:
        assert counts[-1] < counts[0] == cfg.mn


def test_gram_theta_zero_guard():
    # the guard sits in the lattice assembler, so channels get it too
    cfg = SystemConfig(M=2, N=2, alpha=0.9, beta=1.0, theta=0.0,
                       allow_small_alpha=True)
    with pytest.raises(ConfigError):
        build_gram(cfg)
    with pytest.raises(ConfigError):
        build_tf_channel((DdPath(gain=1.0 + 0.0j, delay=0.0, doppler=0.0),), cfg)


def test_ambiguity_table_layout():
    cfg = SystemConfig(M=3, N=2, alpha=0.9, beta=0.9, theta=0.25)
    pulse = RrcPulse(cfg.theta)
    taus = np.arange(-1, 2) * cfg.alpha
    table = ambiguity_table(pulse, cfg, taus - 0.3, doppler=0.05)
    assert table.shape == (3, 5)
    for i, tau in enumerate(taus):
        for j, dm in enumerate(range(-2, 3)):
            expect = pulse.ambiguity_batch(dm * cfg.beta - 0.05,
                                           float(tau) - 0.3)[0]
            assert table[i, j] == pytest.approx(expect, abs=1e-13)


@pytest.mark.parametrize("delay_shift", [0.3, 64.5, -64.5])
def test_ambiguity_table_matches_per_row_batches(delay_shift):
    # alpha*T0 and the delay are not integers, so rows differ in panel count
    # and share the padded node array; 11 rows at 64 nodes span two chunks.
    # A shift of 64.5 leaves some rows without overlap (exact zeros) next to
    # rows of one short panel.
    cfg = SystemConfig(M=3, N=6, alpha=0.85, beta=0.9, theta=0.25)
    pulse = RrcPulse(cfg.theta)
    taus = np.arange(-(cfg.N - 1), cfg.N) * cfg.alpha
    f_values = np.arange(-(cfg.M - 1), cfg.M) * cfg.beta - 0.07
    table = ambiguity_table(pulse, cfg, taus - delay_shift, doppler=0.07)
    for i, tau in enumerate(taus):
        np.testing.assert_allclose(table[i], pulse.ambiguity_batch(f_values, tau - delay_shift),
                                   rtol=0.0, atol=1e-13)
    empty = np.abs(taus - delay_shift) >= 2 * pulse_module.SPAN
    assert np.any(empty) == (abs(delay_shift) > pulse_module.SPAN)
    assert np.all(table[empty] == 0.0)


def test_ambiguity_table_per_row_doppler_matches_per_path_calls():
    # rows of three paths, shuffled so Dopplers interleave, over more rows
    # than one chunk of the grid holds
    cfg = SystemConfig(M=4, N=6, alpha=0.9, beta=0.9, theta=0.25)
    pulse = lattice_pulse(cfg, [cfg.nu_max])
    taus = np.arange(1 - cfg.N, cfg.N) * cfg.alpha
    paths = ((cfg.tau_max, cfg.nu_max), (0.37, -cfg.nu_max), (0.0, 0.0))
    delays = np.concatenate([taus - delay for delay, _ in paths])
    dopplers = np.repeat([doppler for _, doppler in paths], len(taus))
    order = np.random.default_rng(3).permutation(len(delays))
    table = np.empty((len(delays), 2 * cfg.M - 1), dtype=complex)
    table[order] = ambiguity_table(pulse, cfg, delays[order], dopplers[order])
    for p, (delay, doppler) in enumerate(paths):
        np.testing.assert_allclose(table[p * len(taus):(p + 1) * len(taus)],
                                   ambiguity_table(pulse, cfg, taus - delay, doppler),
                                   rtol=0.0, atol=1e-15, err_msg=f"path {p}")


def test_ambiguity_table_rejects_doppler_of_another_length():
    cfg = SystemConfig(M=2, N=2, theta=0.25)
    pulse = lattice_pulse(cfg, [0.0])
    taus = np.arange(-1, 2) * cfg.alpha
    for bad in ([0.01, 0.02], np.zeros(4), np.zeros((3, 1))):
        with pytest.raises(ConfigError, match="doppler"):
            ambiguity_table(pulse, cfg, taus, bad)


def coupling_per_entry(cfg, paths):
    """The docstring formula of `coupling_matrix`: one `ambiguity_table` per
    path and one exp of the whole exponent per entry."""
    pulse = lattice_pulse(cfg, [doppler for _, _, doppler in paths])
    f_step, t_step = cfg.beta, cfg.alpha
    n, m = np.divmod(np.arange(cfg.mn), cfg.M)       # transmit slot (m', n') per column
    dn, dm = n[:, None] - n, m[:, None] - m
    taus = np.arange(1 - cfg.N, cfg.N) * t_step
    h = np.zeros((cfg.mn, cfg.mn), dtype=complex)
    for gain, delay, doppler in paths:
        table = ambiguity_table(pulse, cfg, taus - delay, doppler)
        exponent = (doppler + m * f_step) * (dn * t_step - delay) + doppler * n * t_step
        h += gain * table[dn + cfg.N - 1, dm + cfg.M - 1] * np.exp(2j * np.pi * exponent)
    return h


@pytest.mark.parametrize("M, N", [(1, 16), (16, 1), (8, 4), (16, 16)])
def test_coupling_matrix_matches_per_entry_formula(M, N):
    cfg = SystemConfig(M=M, N=N, alpha=0.9, beta=0.9, theta=0.25)
    # Dopplers of both signs up to nu_max, delays up to tau_max
    paths = ((0.8 - 0.3j, cfg.tau_max, cfg.nu_max),
             (-0.4 + 0.5j, 0.37 * cfg.tau_max, -cfg.nu_max),
             (0.5, 0.81 * cfg.tau_max, 0.6 * cfg.nu_max),
             (0.2 + 0.1j, 0.0, -0.3 * cfg.nu_max))
    h, ref = coupling_matrix(cfg, paths), coupling_per_entry(cfg, paths)
    assert np.max(np.abs(h - ref)) <= 1e-13 * np.max(np.abs(ref))
    # the unit path is the Gram, whose phase is the path-independent factor alone
    gram = coupling_matrix(cfg, [(1.0, 0.0, 0.0)])
    ref = coupling_per_entry(cfg, [(1.0, 0.0, 0.0)])
    assert np.max(np.abs(gram - ref)) <= 1e-13 * np.max(np.abs(ref))


def gather_and_sum(cfg, pulse, sets):
    """The earlier assembly that `_assemble` replaced: every path's phased
    gather stacked into one (paths, N, M, N, M) array, then summed over the
    paths."""
    M, N = cfg.M, cfg.N
    count = len(sets[0])
    if not count:
        return [np.zeros((cfg.mn, cfg.mn), dtype=complex) for _ in sets]
    f_step, t_step = cfg.beta, cfg.alpha
    gains, delays, dopplers = (np.array(v).reshape(len(sets), count)
                               for v in zip(*(path for paths in sets for path in paths)))
    taus = np.arange(1 - N, N) * t_step
    tables = ambiguity_table(pulse, cfg, (taus - delays[:, :, None]).reshape(len(sets), -1),
                             np.repeat(dopplers, 2 * N - 1, axis=1))
    lattice = np.exp(2j * np.pi * f_step * t_step * np.arange(1 - N, N)[:, None] * np.arange(M))
    lattice = lattice[np.arange(N)[:, None] - np.arange(N) + N - 1][:, None]
    out = []
    for table, gain, delay, doppler in zip(tables, gains, delays, dopplers):
        receive = gain[:, None] * np.exp(2j * np.pi * doppler[:, None]
                                         * (np.arange(N) * t_step - delay[:, None]))
        transmit = np.exp(-2j * np.pi * f_step * delay[:, None] * np.arange(M))
        n_idx, m_idx = np.divmod(np.arange(cfg.mn), M)
        h = table.reshape(count, -1)[:, (n_idx[:, None] - n_idx + N - 1) * (2 * M - 1)
                                     + (m_idx[:, None] - m_idx + M - 1)]
        h = h.reshape(count, N, M, N, M)
        h *= receive[:, :, None, None, None] * transmit[:, None, None, None, :]
        h = h.sum(axis=0)
        h *= lattice
        out.append(h.reshape(cfg.mn, cfg.mn))
    return out


@pytest.mark.parametrize("M, N", [(1, 4), (8, 4), (16, 16)])
@pytest.mark.parametrize("count", [0, 1, 2, 3])
def test_assemble_equals_gather_and_sum(M, N, count):
    # one accumulator added to in path order is the stacked sum, bit for bit,
    # up to three paths (from four on, a stacked sum may add pairwise)
    cfg = SystemConfig(M=M, N=N, alpha=0.9, beta=0.9, theta=0.25, L=3)
    sets = [sample_paths(cfg, rng_stream(9, "paths", r))[:count] for r in range(2)]
    pulse = lattice_pulse(cfg, [])
    got = list(pulse_module._assemble(cfg, pulse, sets))
    assert len(got) == len(sets)
    for h, ref in zip(got, gather_and_sum(cfg, pulse, sets)):
        np.testing.assert_array_equal(h, ref)


# ------------------------------------------------------- gram validation ----

def test_from_matrix_rejects_non_square():
    with pytest.raises(ConfigError):
        GramMatrix.from_matrix(np.ones((2, 3)))


def test_from_matrix_rejects_non_hermitian():
    bad = np.array([[1.0, 0.5], [0.2, 1.0]], dtype=complex)
    with pytest.raises(NumericalError):
        GramMatrix.from_matrix(bad)


def test_from_matrix_rejects_indefinite():
    bad = np.diag([1.0, -0.5]).astype(complex)
    with pytest.raises(NumericalError):
        GramMatrix.from_matrix(bad)


def test_from_matrix_rejects_negative_definite():
    with pytest.raises(DegenerateConfigurationError):
        GramMatrix.from_matrix(-np.eye(3, dtype=complex))


def test_from_matrix_deactivates_dead_modes():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    lam = np.array([2.0, 1.0, 1e-14])
    g = (q * lam) @ q.conj().T
    gram = GramMatrix.from_matrix(g)
    assert gram.n_active == 2
    assert gram.condition_number == pytest.approx(2.0, rel=1e-9)
    # the noise coloring keeps the dead mode: it squares back to the Gram
    coloring = make_noise_model(1.0, gram, np.eye(3)).coloring
    np.testing.assert_allclose(coloring @ coloring.conj().T, gram.matrix, atol=1e-10)
    # inv_sqrt annihilates the dead mode
    dead = gram.eigenvectors[:, 2]
    np.testing.assert_allclose(gram.inv_sqrt @ dead, 0.0, atol=1e-12)
    # and whitens the active subspace
    w = gram.inv_sqrt @ gram.matrix @ gram.inv_sqrt
    proj = gram.eigenvectors[:, :2] @ gram.eigenvectors[:, :2].conj().T
    np.testing.assert_allclose(w, proj, atol=1e-9)


def test_from_matrix_accepts_identity():
    gram = GramMatrix.from_matrix(np.eye(5, dtype=complex))
    assert gram.n_active == 5
    assert gram.condition_number == pytest.approx(1.0)
    np.testing.assert_allclose(gram.inv_sqrt, np.eye(5), atol=1e-12)


# ------------------------------------------------------ batched assembly ----

def draw_sets(cfg, n_draws, seed=5):
    """The path sets of `n_draws` draws, every antenna pair, as triples."""
    return [[(p.gain, p.delay, p.doppler) for p in sample_paths(cfg, child)]
            for d in range(n_draws)
            for child in rng_stream(seed, "paths", d).spawn(cfg.n_rx * cfg.n_tx)]


def stacked_rows(cfg, sets):
    """Delays and Dopplers of the sets' table rows, one table per set."""
    taus = np.arange(1 - cfg.N, cfg.N) * cfg.alpha
    delays = np.array([np.concatenate([taus - delay for _, delay, _ in paths]) for paths in sets])
    dopplers = np.array([np.repeat([doppler for *_, doppler in paths], len(taus))
                         for paths in sets])
    return delays, dopplers


@pytest.mark.parametrize("M, N, n_rx, n_tx, n_draws", [
    (8, 4, 1, 1, 48), (16, 16, 1, 1, 8), (16, 8, 4, 4, 1), (16, 8, 2, 2, 4),
    (1, 16, 4, 4, 1), (16, 1, 1, 1, 64), (13, 7, 3, 2, 1)])
def test_batched_assembly_equals_per_set_calls(M, N, n_rx, n_tx, n_draws):
    cfg = SystemConfig(M=M, N=N, alpha=0.9, beta=0.9, theta=0.25, n_rx=n_rx, n_tx=n_tx)
    sets = draw_sets(cfg, n_draws)
    batched = coupling_matrices(cfg, sets)
    for paths in sets:
        np.testing.assert_array_equal(next(batched), coupling_matrix(cfg, paths))
    assert next(batched, None) is None


def test_assembly_keeps_no_matrix_it_handed_out():
    # between two matrices the generator is suspended; once the caller drops a
    # matrix, no reference in the generator keeps its memory (or a path term) alive
    cfg = SystemConfig(M=4, N=3, alpha=0.9, beta=0.9, theta=0.25)
    matrices = coupling_matrices(cfg, draw_sets(cfg, 3))
    for _ in range(3):
        h = next(matrices)
        owner = weakref.ref(h if h.base is None else h.base)
        del h
        assert owner() is None


def test_batched_assembly_of_mixed_sets_equals_per_set_calls(monkeypatch):
    # sets of other sizes, a Doppler past nu_max (a finer pulse) and no paths
    # each break the run of sets that share a call
    cfg = SystemConfig(M=4, N=3, alpha=0.9, beta=0.9, theta=0.25)
    sets = [[(0.5 - 0.2j, 0.3, 0.05)], [(1.0, 0.0, 0.0), (0.2j, 1.1, -0.08)], [],
            [(0.7, 0.4, 10 * cfg.nu_max)], [(0.1, 0.2, 0.01)], [(0.3 + 0.1j, 1.7, -0.02)]]
    calls = []
    table = pulse_module.ambiguity_table
    monkeypatch.setattr(pulse_module, "ambiguity_table",
                        lambda *args, **kwargs: calls.append(1) or table(*args, **kwargs))
    assert lattice_pulse(cfg, [10 * cfg.nu_max]) != lattice_pulse(cfg, [])
    batched = list(coupling_matrices(cfg, sets))
    assert len(calls) == 4
    monkeypatch.undo()
    for h, paths in zip(batched, sets, strict=True):
        np.testing.assert_array_equal(h, coupling_matrix(cfg, paths))


def test_ambiguity_table_stacked_tables_equal_single_calls():
    # 9 rows a table at 8 rows a chunk: alone, a table ends in a one-row chunk
    cfg = SystemConfig(M=3, N=5, alpha=0.9, beta=0.9, theta=0.25)
    pulse = RrcPulse(cfg.theta, nodes_per_t0=64)
    assert _CHUNK_NODES // (64 * 64) == 8
    sets = [[(1.0, 0.0, 0.02)], [(1.0, 0.4, -0.05)], [(1.0, 1.3, 0.1)]]
    delays, dopplers = stacked_rows(cfg, sets)
    stacked = ambiguity_table(pulse, cfg, delays, dopplers)
    assert stacked.shape == (3, 9, 5)
    for table, delay, doppler in zip(stacked, delays, dopplers):
        np.testing.assert_array_equal(table, ambiguity_table(pulse, cfg, delay, doppler))
    with pytest.raises(ConfigError, match="delays"):
        ambiguity_table(pulse, cfg, delays[None], dopplers[None])


def test_ambiguity_table_rows_do_not_depend_on_the_rows_beside_them():
    # the 720 rows of a 16x8 4x4 draw fill more than numpy's 256 KiB
    # temporary elision size; the first 45 come out the same alone
    cfg = SystemConfig(M=16, N=8, alpha=0.9, beta=0.9, theta=0.25, n_rx=4, n_tx=4)
    delays, dopplers = (a.ravel() for a in stacked_rows(cfg, draw_sets(cfg, 1)))
    pulse = lattice_pulse(cfg, [])
    table = ambiguity_table(pulse, cfg, delays, dopplers)
    assert table.shape == (720, 31) and table.nbytes > 256 * 1024
    np.testing.assert_array_equal(table[:45],
                                  ambiguity_table(pulse, cfg, delays[:45], dopplers[:45]))


def test_one_row_one_offset_sets_equal_their_batched_call():
    # at M = N = L = 1 a set alone is a one-row table at one offset
    cfg = SystemConfig(M=1, N=1, alpha=0.9, beta=0.9, theta=0.25, L=1)
    sets = draw_sets(cfg, 40)
    for h, paths in zip(coupling_matrices(cfg, sets), sets, strict=True):
        np.testing.assert_array_equal(h, coupling_matrix(cfg, paths))


def test_ambiguity_table_of_no_rows_is_empty():
    cfg = SystemConfig(M=3, N=2, theta=0.25)
    pulse = RrcPulse(cfg.theta)
    for shape in [(0,), (0, 4), (4, 0)]:
        table = ambiguity_table(pulse, cfg, np.zeros(shape))
        assert table.shape == (*shape, 2 * cfg.M - 1)
    assert pulse.ambiguity_batch(np.array([]), 0.3).shape == (0,)


def quadrature_groups(monkeypatch, cfg, sets):
    """`coupling_matrices(cfg, sets)` as a list, the pulse's rows per chunk and, per
    `_ambiguities` call, its (tables, rows) shape and its `_rows` groups' shapes."""
    calls = []
    ambiguities, group_rows = RrcPulse._ambiguities, RrcPulse._rows
    monkeypatch.setattr(RrcPulse, "_ambiguities", lambda self, taus, *args: (
        calls.append((taus.shape, [])) or ambiguities(self, taus, *args)))
    monkeypatch.setattr(RrcPulse, "_rows", lambda self, taus, *args: (
        calls[-1][1].append(taus.shape) or group_rows(self, taus, *args)))
    matrices = list(coupling_matrices(cfg, sets))
    monkeypatch.undo()
    return matrices, _CHUNK_NODES // len(lattice_pulse(cfg, [])._grid[0]), calls


def test_tiny_roll_off_batched_assembly_equals_per_set_calls(monkeypatch):
    # at theta = 0.01 the direct windows of one chunk's rows exceed a group's
    # budget, so each group holds a single chunk
    cfg = SystemConfig(M=4, N=3, alpha=0.9, beta=0.9, theta=0.01, allow_small_alpha=True)
    sets = draw_sets(cfg, 4)
    matrices, size, calls = quadrature_groups(monkeypatch, cfg, sets)
    assert all(tables == 1 and rows <= size for _, groups in calls for tables, rows in groups)
    for h, paths in zip(matrices, sets, strict=True):
        assert np.all(np.isfinite(h))
        np.testing.assert_array_equal(h, coupling_matrix(cfg, paths))


@pytest.mark.parametrize("M, N, n_draws", [(8, 4, 12), (16, 16, 2), (1, 16, 4)])
def test_quadrature_groups_are_whole_tables_or_runs_of_whole_chunks(monkeypatch, M, N, n_draws):
    cfg = SystemConfig(M=M, N=N, alpha=0.9, beta=0.9, theta=0.25)
    _, size, calls = quadrature_groups(monkeypatch, cfg, draw_sets(cfg, n_draws))
    for (n_tables, n_rows), groups in calls:
        first = 0    # the flat row a group starts at
        for tables, rows in groups:
            if rows == n_rows:
                assert first % n_rows == 0
            else:
                assert tables == 1 and first % n_rows % size == 0
                assert rows % size == 0 or (first + rows) % n_rows == 0
            first += tables * rows
        assert first == n_tables * n_rows


def test_block_quadrature_memory_does_not_grow_with_its_tables():
    # a 16x16 block holds the draws whose rows times nodes per T0 fit one
    # chunk; the call's temporaries stay those of one table
    cfg = SystemConfig(M=16, N=16, alpha=0.9, beta=0.9, theta=0.25)
    pulse = lattice_pulse(cfg, [])
    n_block = _CHUNK_NODES // (cfg.L * (2 * cfg.N - 1) * pulse.nodes_per_t0)
    assert n_block == 7
    delays, dopplers = stacked_rows(cfg, draw_sets(cfg, n_block))

    def peak(k):
        ambiguity_table(pulse, cfg, delays[:k], dopplers[:k])
        tracemalloc.start()
        try:
            tables = ambiguity_table(pulse, cfg, delays[:k], dopplers[:k])
            return tracemalloc.get_traced_memory()[1] - tables.nbytes
        finally:
            tracemalloc.stop()

    one, block = peak(1), peak(n_block)
    assert block <= 1.1 * one
    assert block < 3 * 2 ** 20


def test_coupling_matrices_take_their_sets_a_call_at_a_time(monkeypatch):
    # seven 16x16 sets fit a quadrature chunk: the first matrix needs only
    # them drawn and integrated, and the eighth set is a second call
    cfg = SystemConfig(M=16, N=16, alpha=0.9, beta=0.9, theta=0.25)
    sets, pulled, calls = draw_sets(cfg, 8), [], []
    table = pulse_module.ambiguity_table
    monkeypatch.setattr(pulse_module, "ambiguity_table",
                        lambda *args, **kwargs: calls.append(1) or table(*args, **kwargs))

    def drawn(sets):
        for paths in sets:
            pulled.append(paths)
            yield paths

    matrices = coupling_matrices(cfg, drawn(sets))
    got = [next(matrices)]
    assert len(pulled) == 7 and len(calls) == 1
    got += list(matrices)
    assert len(pulled) == 8 and len(calls) == 2
    monkeypatch.undo()
    for h, paths in zip(got, sets, strict=True):
        np.testing.assert_array_equal(h, coupling_matrix(cfg, paths))
    matrices = coupling_matrices(cfg, [*sets[:7], [(1.0, None, 0.0)]])
    for _ in range(7):
        next(matrices)
    with pytest.raises(ConfigError, match="path"):
        next(matrices)


def test_huge_frequency_offset_is_a_config_error():
    # a Doppler of 1e6 would ask for a 2.5-million-node rule per T0
    cfg = SystemConfig(M=2, N=2, theta=0.25)
    with pytest.raises(ConfigError, match="quadrature nodes"):
        coupling_matrix(cfg, [(1.0, 0.1, 1e6)])
    with pytest.raises(ConfigError, match="quadrature nodes"):
        build_gram(cfg.replace(nu_max=1e6))


@pytest.mark.parametrize("path", [
    ("1", 0.1, 0.01), (1.0, 0.1), (1.0, 0.1, 0.01, 0.0), 1.0, None, (1.0, 0.1j, 0.0),
    (1.0, 0.1, "0"), (True, 0.1, 0.0), (1.0, [0.1], 0.0)],
    ids=["text-gain", "pair", "four", "scalar", "none", "complex-delay", "text-doppler",
         "bool-gain", "list-delay"])
def test_malformed_path_rejected(path):
    cfg = SystemConfig(M=2, N=2, theta=0.25)
    with pytest.raises(ConfigError, match="path"):
        coupling_matrix(cfg, [(1.0, 0.0, 0.0), path])
