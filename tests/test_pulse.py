"""Pulse shape, cross-ambiguity quadrature and Gram matrix tests."""

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
)
from mcftn_otfs.pulse import coupling_matrix, lattice_pulse
from reference import (
    ambiguity_spectral,
    ambiguity_time,
    gram_entry_direct,
    rc_autocorr,
    rrc_ref,
)

# closed-form value of the untruncated pulse at t = 0 for theta = 0.25:
# (1 - theta + 4 theta / pi) / sqrt(T0)
RRC_PEAK_THETA025 = 1.0683098861837907
# ideal-pulse ambiguity at one carrier offset, A(delta_f0, 0) = theta / pi
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
    # removable singularity at |t| = T0 / (4 theta)
    pulse = RrcPulse(theta=0.25)
    t_sing = 1.0 / (4.0 * 0.25)
    assert pulse.amplitude(t_sing) == pytest.approx(rrc_ref(t_sing, 0.25), abs=1e-10)
    assert pulse.amplitude(t_sing) == pytest.approx(
        pulse.amplitude(t_sing + 1e-7), abs=1e-5
    )


@pytest.mark.parametrize("theta", [0.05, 0.25, 1.0])
def test_amplitude_near_singularity_matches_mpmath(theta):
    # |t| = T0 / (4 theta) is a removable singularity of the closed form; the
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
    assert pulse.support == 32.0


def test_amplitude_t0_scaling():
    # stretching time by T0 scales amplitude by 1/sqrt(T0)
    p1 = RrcPulse(theta=0.25, T0=1.0)
    p2 = RrcPulse(theta=0.25, T0=2.0)
    assert p2.amplitude(0.0) == pytest.approx(p1.amplitude(0.0) / np.sqrt(2.0), rel=1e-12)
    assert p2.amplitude(1.0) == pytest.approx(p1.amplitude(0.5) / np.sqrt(2.0), rel=1e-12)


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
    # T0 must be finite and positive, as in SystemConfig
    for bad in (0.0, -1.0, float("nan"), float("inf"), 10 ** 400):
        with pytest.raises(ConfigError, match="T0"):
            RrcPulse(theta=0.25, T0=bad)
    # the node count sizes the pulse's quadrature grid: an integer of at least 2
    for bad in (1, 0, 2.5, "64", True, None):
        with pytest.raises(ConfigError, match="nodes_per_t0"):
            RrcPulse(theta=0.25, nodes_per_t0=bad)
    assert RrcPulse(theta=0.25, nodes_per_t0=np.int64(2)).nodes_per_t0 == 2


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
        taus = np.arange(-(N - 1), N) * cfg.alpha * cfg.T0
        for doppler in (cfg.nu_max, -cfg.nu_max):
            pulse = lattice_pulse(cfg, [doppler])
            assert pulse.nodes_per_t0 < reference.nodes_per_t0
            assert lattice_pulse(cfg, [-doppler]) is pulse   # cached per node count
            np.testing.assert_allclose(
                ambiguity_table(pulse, cfg, taus, doppler, cfg.tau_max),
                ambiguity_table(reference, cfg, taus, doppler, cfg.tau_max),
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
    taus = np.arange(-(N - 1), N) * cfg.alpha * cfg.T0
    table = ambiguity_table(lattice_pulse(cfg, [doppler]), cfg, taus, doppler, delay_shift)
    for i, j in entries:
        f = (j - (M - 1)) * cfg.beta * cfg.delta_f0 - doppler
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
    delay = 0.5 * (x[0] + 1.0) * cfg.T0 - (u + 1e-11) * cfg.T0   # first node of panel [0, T0]
    table = ambiguity_table(pulse, cfg, np.array([delay]), 0.02)
    ref = ambiguity_time(cfg.beta * cfg.delta_f0 - 0.02, delay, theta)
    assert table[0, 4] == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_ambiguity_table_at_largest_doppler_matches_oracle(sign):
    cfg = SystemConfig(M=8, N=4, alpha=0.9, beta=0.9, theta=0.25)
    doppler = sign * cfg.nu_max
    taus = np.arange(-(cfg.N - 1), cfg.N) * cfg.alpha * cfg.T0
    table = ambiguity_table(lattice_pulse(cfg, [doppler]), cfg, taus, doppler, cfg.tau_max)
    ref = ambiguity_time(cfg.beta * cfg.delta_f0 - doppler, taus[4] - cfg.tau_max, cfg.theta)
    assert table[4, 8] == pytest.approx(ref, abs=1e-10)


def test_ambiguity_table_rows_without_overlap_are_exact_zeros():
    # |tau| >= 64 T0 leaves no overlap; tau = 63.5 T0 leaves half a panel,
    # integrated by the edge nodes alone
    cfg = SystemConfig(M=2, N=1, theta=0.25)
    pulse = lattice_pulse(cfg, [0.0])
    table = ambiguity_table(pulse, cfg, np.array([63.5, 64.0, 70.0, -64.0, -80.0]), 0.01)
    assert np.all(table[1:] == 0.0)
    ref = ambiguity_time(-cfg.beta * cfg.delta_f0 - 0.01, 63.5, cfg.theta)
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
    _, gram = small_gram
    assert gram.eigenvalues[-1] > -1e-8 * gram.eigenvalues[0]
    np.testing.assert_allclose(gram.sqrt @ gram.sqrt, gram.matrix, atol=1e-9)
    np.testing.assert_allclose(gram.sqrt, gram.sqrt.conj().T, atol=1e-10)
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
    pulse = RrcPulse(cfg.theta, cfg.T0)
    taus = np.arange(-1, 2) * cfg.alpha * cfg.T0
    table = ambiguity_table(pulse, cfg, taus, doppler=0.05, delay_shift=0.3)
    assert table.shape == (3, 5)
    for i, tau in enumerate(taus):
        for j, dm in enumerate(range(-2, 3)):
            expect = pulse.ambiguity_batch(dm * cfg.beta * cfg.delta_f0 - 0.05,
                                           float(tau) - 0.3)[0]
            assert table[i, j] == pytest.approx(expect, abs=1e-13)


@pytest.mark.parametrize("delay_shift", [0.3, 64.5, -64.5])
def test_ambiguity_table_matches_per_row_batches(delay_shift):
    # alpha*T0 and the delay are not integers, so rows differ in panel count
    # and share the padded node array; 11 rows at 64 nodes span two chunks.
    # A shift of 64.5 leaves some rows without overlap (exact zeros) next to
    # rows of one short panel.
    cfg = SystemConfig(M=3, N=6, alpha=0.85, beta=0.9, theta=0.25)
    pulse = RrcPulse(cfg.theta, cfg.T0)
    taus = np.arange(-(cfg.N - 1), cfg.N) * cfg.alpha * cfg.T0
    f_values = np.arange(-(cfg.M - 1), cfg.M) * cfg.beta * cfg.delta_f0 - 0.07
    table = ambiguity_table(pulse, cfg, taus, doppler=0.07, delay_shift=delay_shift)
    for i, tau in enumerate(taus):
        np.testing.assert_allclose(table[i], pulse.ambiguity_batch(f_values, tau - delay_shift),
                                   rtol=0.0, atol=1e-13)
    empty = np.abs(taus - delay_shift) >= 2 * pulse.support
    assert np.any(empty) == (abs(delay_shift) > pulse.support)
    assert np.all(table[empty] == 0.0)


def test_ambiguity_table_per_row_doppler_matches_per_path_calls():
    # rows of three paths, shuffled so Dopplers interleave, over more rows
    # than one chunk of the grid holds
    cfg = SystemConfig(M=4, N=6, alpha=0.9, beta=0.9, theta=0.25)
    pulse = lattice_pulse(cfg, [cfg.nu_max])
    taus = np.arange(1 - cfg.N, cfg.N) * cfg.alpha * cfg.T0
    paths = ((cfg.tau_max, cfg.nu_max), (0.37, -cfg.nu_max), (0.0, 0.0))
    delays = np.concatenate([taus - delay for delay, _ in paths])
    dopplers = np.repeat([doppler for _, doppler in paths], len(taus))
    order = np.random.default_rng(3).permutation(len(delays))
    table = np.empty((len(delays), 2 * cfg.M - 1), dtype=complex)
    table[order] = ambiguity_table(pulse, cfg, delays[order], dopplers[order])
    for p, (delay, doppler) in enumerate(paths):
        np.testing.assert_allclose(table[p * len(taus):(p + 1) * len(taus)],
                                   ambiguity_table(pulse, cfg, taus, doppler, delay),
                                   rtol=0.0, atol=1e-15, err_msg=f"path {p}")


def test_ambiguity_table_rejects_doppler_of_another_length():
    cfg = SystemConfig(M=2, N=2, theta=0.25)
    pulse = lattice_pulse(cfg, [0.0])
    taus = np.arange(-1, 2) * cfg.alpha * cfg.T0
    for bad in ([0.01, 0.02], np.zeros(4), np.zeros((3, 1))):
        with pytest.raises(ConfigError, match="doppler"):
            ambiguity_table(pulse, cfg, taus, bad)


def coupling_per_entry(cfg, paths):
    """The docstring formula of `coupling_matrix`: one `ambiguity_table` per
    path and one exp of the whole exponent per entry."""
    pulse = lattice_pulse(cfg, [doppler for _, _, doppler in paths])
    f_step, t_step = cfg.beta * cfg.delta_f0, cfg.alpha * cfg.T0
    n, m = np.divmod(np.arange(cfg.mn), cfg.M)       # transmit slot (m', n') per column
    dn, dm = n[:, None] - n, m[:, None] - m
    taus = np.arange(1 - cfg.N, cfg.N) * t_step
    h = np.zeros((cfg.mn, cfg.mn), dtype=complex)
    for gain, delay, doppler in paths:
        table = ambiguity_table(pulse, cfg, taus, doppler, delay)
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
    np.testing.assert_allclose(gram.sqrt @ gram.sqrt, gram.matrix, atol=1e-10)
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
