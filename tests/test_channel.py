"""Doubly dispersive channel construction tests."""

import weakref

import numpy as np
import pytest

from mcftn_otfs import (
    ConfigError,
    DdPath,
    SystemConfig,
    build_dd_channel,
    build_gram,
    build_mimo_channel,
    build_mimo_channels,
    build_tf_channel,
    paths_digest,
    rng_stream,
    sample_paths,
    sfft_matrix,
)
from mcftn_otfs import pulse
from reference import dd_entry_quadruple_sum, tf_entry_direct

IDENTITY_PATH = (DdPath(gain=1.0 + 0.0j, delay=0.0, doppler=0.0),)


# --------------------------------------------------------------- sampling ----

def test_sample_paths_deterministic():
    cfg = SystemConfig(M=4, N=2, L=3)
    a = sample_paths(cfg, rng_stream(7, "paths", 0))
    b = sample_paths(cfg, rng_stream(7, "paths", 0))
    assert a == b
    c = sample_paths(cfg, rng_stream(7, "paths", 1))
    assert a != c


def test_sample_paths_ranges():
    cfg = SystemConfig(M=4, N=2, L=5, tau_max=1.5, nu_max=0.05)
    for trial in range(20):
        paths = sample_paths(cfg, rng_stream(trial, "paths", 0))
        assert len(paths) == 5
        for p in paths:
            assert 0.0 <= p.delay <= 1.5
            assert abs(p.doppler) <= 0.05


def test_sample_paths_gain_statistics():
    cfg = SystemConfig(M=4, N=2, L=3)
    rng = rng_stream(11, "paths")
    powers = []
    means = []
    for _ in range(3000):
        paths = sample_paths(cfg, rng)
        g = np.array([p.gain for p in paths])
        powers.append(np.sum(np.abs(g) ** 2))
        means.append(np.mean(g))
    # unit mean total power, zero-mean circular gains
    assert np.mean(powers) == pytest.approx(1.0, abs=0.05)
    assert abs(np.mean(means)) < 0.02


def test_sample_paths_zero_supports():
    cfg = SystemConfig(M=4, N=2, L=2, tau_max=0.0, nu_max=0.0)
    paths = sample_paths(cfg, rng_stream(3, "paths", 0))
    assert all(p.delay == 0.0 and p.doppler == 0.0 for p in paths)


# ------------------------------------------------------------- tf entries ----

def tf_entry(paths, m, n, mp, np_, cfg):
    """Entry (receive slot (m, n), transmit slot (m', n')) of build_tf_channel."""
    return build_tf_channel(paths, cfg)[n * cfg.M + m, np_ * cfg.M + mp]


def test_identity_path_diagonal_entry():
    cfg = SystemConfig(M=4, N=2, alpha=0.9, beta=0.9, theta=0.25)
    val = tf_entry(IDENTITY_PATH, 1, 1, 1, 1, cfg)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_identity_path_nyquist_time_orthogonality():
    cfg = SystemConfig(M=4, N=2, alpha=1.0, beta=1.0, theta=0.25)
    for m in range(3):
        val = tf_entry(IDENTITY_PATH, m, 1, m, 0, cfg)
        assert abs(val) < 1e-6


def test_tf_entry_matches_direct_integral():
    cfg = SystemConfig(M=3, N=2, alpha=0.9, beta=0.85, theta=0.25)
    gain = 0.7 - 0.4j
    path = (DdPath(gain=gain, delay=0.3, doppler=0.07),)
    for (m, n, mp, np_) in [(0, 0, 0, 0), (1, 0, 0, 0), (2, 1, 1, 0),
                            (0, 1, 2, 1), (1, 1, 1, 1)]:
        got = tf_entry(path, m, n, mp, np_, cfg)
        ref = tf_entry_direct(gain, 0.3, 0.07, m, n, mp, np_,
                              cfg.alpha, cfg.beta, cfg.theta)
        assert got == pytest.approx(ref, abs=1e-9), (m, n, mp, np_)


def test_tf_channel_linear_in_paths():
    cfg = SystemConfig(M=2, N=2, alpha=0.9, beta=0.9, theta=0.25)
    p1 = DdPath(gain=0.8 + 0.1j, delay=0.4, doppler=0.03)
    p2 = DdPath(gain=-0.2 + 0.5j, delay=1.1, doppler=-0.06)
    h12 = build_tf_channel([p1, p2], cfg)
    h1 = build_tf_channel([p1], cfg)
    h2 = build_tf_channel([p2], cfg)
    np.testing.assert_allclose(h12, h1 + h2, atol=1e-14)
    doubled = DdPath(gain=2.0 * p1.gain, delay=p1.delay, doppler=p1.doppler)
    np.testing.assert_allclose(build_tf_channel([doubled], cfg), 2.0 * h1, atol=1e-14)


@pytest.mark.parametrize("theta, alpha, beta", [(0.25, 0.85, 0.9), (0.0, 1.0, 1.0)],
                         ids=["rrc", "sinc"])
def test_identity_path_tf_channel_equals_gram(theta, alpha, beta):
    # h=1, tau=0, nu=0 collapses the channel formula to the Gram formula;
    # theta = 0 (the sinc branch of the pulse) is only valid uncompressed
    cfg = SystemConfig(M=3, N=2, alpha=alpha, beta=beta, theta=theta)
    h_tf = build_tf_channel(IDENTITY_PATH, cfg)
    g = build_gram(cfg).matrix
    np.testing.assert_allclose(h_tf, g, atol=1e-13)


NON_FINITE = (float("nan"), float("inf"), -float("inf"))


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["gain.real", "gain.imag", "delay", "doppler"])
def test_non_finite_path_rejected(field, bad):
    # a non-finite value used to come back as an all-NaN matrix
    cfg = SystemConfig(M=4, N=2, alpha=0.9, beta=0.9, theta=0.25)
    values = {"gain.real": 0.6, "gain.imag": -0.2, "delay": 0.3, "doppler": 0.02, field: bad}
    path = DdPath(gain=complex(values["gain.real"], values["gain.imag"]),
                  delay=values["delay"], doppler=values["doppler"])
    for build in (build_tf_channel, build_dd_channel):
        with pytest.raises(ConfigError, match="finite"):
            build((IDENTITY_PATH[0], path), cfg)


def test_no_paths_give_zero_channel():
    cfg = SystemConfig(M=4, N=2, alpha=0.9, beta=0.9, theta=0.25)
    zero = np.zeros((8, 8), dtype=complex)
    np.testing.assert_array_equal(build_tf_channel((), cfg), zero)
    ch = build_dd_channel([], cfg)
    np.testing.assert_array_equal(ch.h_tf, zero)
    np.testing.assert_array_equal(ch.h_dd, zero)


# ------------------------------------------------------------- dd channel ----

def test_dd_channel_unitary_conjugation():
    cfg = SystemConfig(M=3, N=2, alpha=0.9, beta=0.9, theta=0.25)
    paths = sample_paths(cfg, rng_stream(9, "paths", 0))
    ch = build_dd_channel(paths, cfg)
    a = sfft_matrix(cfg)
    np.testing.assert_allclose(ch.h_dd, a @ ch.h_tf @ a.conj().T, atol=1e-13)
    assert np.linalg.norm(ch.h_dd) == pytest.approx(np.linalg.norm(ch.h_tf), rel=1e-12)


@pytest.mark.parametrize("M, N", [(1, 1), (1, 16), (16, 1), (4, 2), (8, 4), (16, 8), (16, 16)],
                         ids=lambda v: str(v))
def test_dd_channel_matches_dense_conjugation(M, N):
    # the channel applies the SFFT through its DFT factors; the dense product is the reference
    cfg = SystemConfig(M=M, N=N, alpha=0.9, beta=0.9, theta=0.25)
    ch = build_dd_channel(sample_paths(cfg, rng_stream(9, "paths", 0)), cfg)
    a = sfft_matrix(cfg)
    dense = a @ ch.h_tf @ a.conj().T
    assert np.linalg.norm(ch.h_dd - dense) <= 1e-14 * np.linalg.norm(dense)
    assert not build_dd_channel((), cfg).h_dd.any()


def test_dd_channel_matches_quadruple_sum_oracle():
    cfg = SystemConfig(M=2, N=2, alpha=0.9, beta=0.85, theta=0.25)
    rng = np.random.default_rng(17)
    gain = complex(*rng.standard_normal(2)) * np.sqrt(0.5)
    delay = float(rng.uniform(0.0, 2.0))
    doppler = float(rng.uniform(-0.1, 0.1))
    path = (DdPath(gain=gain, delay=delay, doppler=doppler),)

    # oracle chain: direct quadrature TF entries -> literal quadruple sum
    h_tf_ref = np.zeros((4, 4), dtype=complex)
    for row in range(4):
        for col in range(4):
            h_tf_ref[row, col] = tf_entry_direct(
                gain, delay, doppler, row % 2, row // 2, col % 2, col // 2,
                cfg.alpha, cfg.beta, cfg.theta,
            )
    ch = build_dd_channel(path, cfg)
    np.testing.assert_allclose(ch.h_tf, h_tf_ref, atol=1e-9)
    for row in range(4):
        for col in range(4):
            ref = dd_entry_quadruple_sum(h_tf_ref, 2, 2, row % 2, row // 2,
                                         col % 2, col // 2)
            assert ch.h_dd[row, col] == pytest.approx(ref, abs=1e-9), (row, col)


def test_identity_path_dd_channel_near_identity():
    # at Nyquist the only coupling left is the carrier-overlap leakage of the
    # Gram, and unitary conjugation cannot grow it
    cfg = SystemConfig(M=4, N=2, alpha=1.0, beta=1.0, theta=0.25)
    ch = build_dd_channel(IDENTITY_PATH, cfg)
    g = build_gram(cfg).matrix
    leak = np.linalg.norm(g - np.eye(8))
    assert np.max(np.abs(ch.h_dd - np.eye(8))) <= leak + 1e-12
    # unitary conjugation preserves the total leakage exactly
    assert np.linalg.norm(ch.h_dd - np.eye(8)) == pytest.approx(leak, rel=1e-10)


# ------------------------------------------------------------------ mimo ----

def test_mimo_single_antenna_matches_siso():
    cfg = SystemConfig(M=3, N=2, alpha=0.9, beta=0.9, theta=0.25)
    mimo = build_mimo_channel(cfg, rng_stream(4, "paths", 0))
    assert mimo.matrix.shape == (6, 6)
    np.testing.assert_array_equal(mimo.matrix, build_dd_channel(mimo.paths[0][0], cfg).h_dd)


def test_mimo_block_layout_and_independence():
    cfg = SystemConfig(M=2, N=2, alpha=0.9, beta=0.9, theta=0.25,
                       n_tx=2, n_rx=2)
    mimo = build_mimo_channel(cfg, rng_stream(4, "paths", 0))
    assert mimo.matrix.shape == (8, 8)
    digests = set()
    for r in range(2):
        for t in range(2):
            block = mimo.matrix[r * 4:(r + 1) * 4, t * 4:(t + 1) * 4]
            np.testing.assert_array_equal(block, build_dd_channel(mimo.paths[r][t], cfg).h_dd)
            digests.add(paths_digest(mimo.paths[r][t]))
    assert len(digests) == 4


def test_mimo_reproducible():
    cfg = SystemConfig(M=2, N=2, alpha=0.9, beta=0.9, theta=0.25, n_tx=2, n_rx=2)
    a = build_mimo_channel(cfg, rng_stream(4, "paths", 0))
    b = build_mimo_channel(cfg, rng_stream(4, "paths", 0))
    np.testing.assert_array_equal(a.matrix, b.matrix)
    c = build_mimo_channel(cfg, rng_stream(5, "paths", 0))
    assert not np.allclose(a.matrix, c.matrix)


def test_mimo_channels_in_blocks_equal_per_pair_builds(monkeypatch):
    # 8x4 4x4: three realizations fill a block, so five span two blocks,
    # each one quadrature call, drawn a block of generators at a time
    cfg = SystemConfig(M=8, N=4, alpha=0.9, beta=0.9, theta=0.25, n_tx=4, n_rx=4)
    calls, taken = [], []
    table = pulse.ambiguity_table
    monkeypatch.setattr(pulse, "ambiguity_table",
                        lambda *args, **kwargs: calls.append(1) or table(*args, **kwargs))

    def streams():
        for r in range(5):
            taken.append(r)
            yield rng_stream(8, "paths", r)

    blocked = build_mimo_channels(cfg, streams())
    channels = [next(blocked)]
    assert taken == [0, 1, 2] and len(calls) == 1
    channels += list(blocked)
    assert len(channels) == 5 and len(calls) == 2
    monkeypatch.undo()
    for r, mimo in enumerate(channels):
        np.testing.assert_array_equal(mimo.matrix,
                                      build_mimo_channel(cfg, rng_stream(8, "paths", r)).matrix)
        for k, child in enumerate(rng_stream(8, "paths", r).spawn(16)):
            alone = build_dd_channel(sample_paths(cfg, child), cfg)
            rx, tx = divmod(k, 4)
            assert mimo.paths[rx][tx] == alone.paths
            block = mimo.matrix[rx * cfg.mn:(rx + 1) * cfg.mn, tx * cfg.mn:(tx + 1) * cfg.mn]
            np.testing.assert_array_equal(block, alone.h_dd)


@pytest.mark.parametrize("n_ant", [1, 2])
def test_mimo_channels_keep_no_matrix_they_handed_out(n_ant):
    cfg = SystemConfig(M=4, N=2, alpha=0.9, beta=0.9, theta=0.25, n_tx=n_ant, n_rx=n_ant)
    channels = build_mimo_channels(cfg, [rng_stream(3, "paths", r) for r in range(3)])
    for _ in range(3):
        matrix = next(channels).matrix
        owner = weakref.ref(matrix if matrix.base is None else matrix.base)
        del matrix
        assert owner() is None


# ---------------------------------------------------------------- digests ----

def test_paths_digest_sensitivity():
    cfg = SystemConfig(M=2, N=2, L=3)
    paths = sample_paths(cfg, rng_stream(6, "paths", 0))
    d0 = paths_digest(paths)
    assert d0 == paths_digest(paths)
    bumped = (DdPath(paths[0].gain, paths[0].delay + 1e-12, paths[0].doppler),) + paths[1:]
    assert paths_digest(bumped) != d0
    # nested form hashes the same leaves
    mimo = build_mimo_channel(cfg, rng_stream(6, "paths", 0))
    assert paths_digest(mimo.paths) == paths_digest(mimo.paths[0][0])
