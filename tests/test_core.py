"""Configuration, transform and RNG stream tests."""

import numpy as np
import pytest

from mcftn_otfs import (
    ConfigError,
    SystemConfig,
    dft_matrix,
    rng_stream,
    sfft_matrix,
)
from reference import sfft_double_sum


# ------------------------------------------------------------- config ------

def test_config_defaults():
    cfg = SystemConfig(M=8, N=4)
    assert cfg.mn == 32
    assert cfg.delta_f0 == 1.0
    assert cfg.tau_max == 2.0
    assert cfg.nu_max == pytest.approx(0.1)
    assert cfg.snr == 1.0


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        SystemConfig(M=0, N=4)
    with pytest.raises(ConfigError):
        SystemConfig(M=8, N=4, alpha=0.0)
    with pytest.raises(ConfigError):
        SystemConfig(M=8, N=4, alpha=1.2)
    with pytest.raises(ConfigError):
        SystemConfig(M=8, N=4, beta=-0.1)
    with pytest.raises(ConfigError):
        SystemConfig(M=8, N=4, theta=1.5)
    with pytest.raises(ConfigError):
        SystemConfig(M=8, N=4, T0=0.0)
    with pytest.raises(ConfigError):
        SystemConfig(M=8, N=4, N0=-1.0)
    with pytest.raises(ConfigError):
        SystemConfig(M=8, N=4, seed=-1)
    with pytest.raises(ConfigError):
        SystemConfig(M=8, N=4, seed=1.5)
    with pytest.raises(ConfigError):
        SystemConfig(M=8, N=4, tau_max=-0.5)
    # NaN and inf slip past range comparisons; N0 = 0 stays valid
    nan, inf = float("nan"), float("inf")
    for name in ("T0", "E0", "sigma_x2", "N0", "tau_max", "nu_max"):
        for bad in (nan, inf, -inf):
            with pytest.raises(ConfigError, match=name):
                SystemConfig(M=8, N=4, **{name: bad})
    assert SystemConfig(M=8, N=4, N0=0.0).N0 == 0.0
    # an int beyond the float range is not finite either
    for name in ("T0", "E0", "sigma_x2", "N0", "tau_max", "nu_max"):
        with pytest.raises(ConfigError, match=name):
            SystemConfig(M=8, N=4, **{name: 10 ** 400})
    # a non-empty string is truthy, so only a bool may lift the alpha guard
    for bad in ("no", "yes", 1, None):
        with pytest.raises(ConfigError, match="allow_small_alpha"):
            SystemConfig(M=8, N=4, alpha=0.7, allow_small_alpha=bad)
    assert SystemConfig(M=8, N=4, alpha=0.7, allow_small_alpha=np.bool_(True)).alpha == 0.7
    # bool is an int subclass, but not a count
    for name in ("M", "N", "L", "n_tx", "n_rx", "seed"):
        with pytest.raises(ConfigError, match=name):
            SystemConfig(**{"M": 8, "N": 4, name: True})
    # the float fields take Python or numpy reals, never bool, text or None
    for name in ("alpha", "beta", "theta", "T0", "E0", "sigma_x2", "N0", "tau_max", "nu_max"):
        for bad in (True, "1", [1]):
            with pytest.raises(ConfigError, match=name):
                SystemConfig(M=8, N=4, **{name: bad})
        if name not in ("tau_max", "nu_max"):
            with pytest.raises(ConfigError, match=name):
                SystemConfig(M=8, N=4, **{name: None})
    cfg = SystemConfig(M=8, N=4, alpha=np.float32(0.9), theta=np.int64(1), tau_max=None)
    assert cfg.tau_max == 2.0


def test_config_alpha_guard():
    # theta=0.25 makes the guard 0.8; 0.75 is below it
    with pytest.raises(ConfigError):
        SystemConfig(M=8, N=4, alpha=0.75, theta=0.25)
    cfg = SystemConfig(M=8, N=4, alpha=0.75, theta=0.25, allow_small_alpha=True)
    assert cfg.alpha == 0.75
    # at theta=0.75 the guard relaxes to 1/1.75, so alpha=0.6 is legal
    cfg = SystemConfig(M=8, N=4, alpha=0.6, theta=0.75)
    assert cfg.alpha == 0.6


def test_config_snr_helpers():
    cfg = SystemConfig(M=4, N=2, sigma_x2=2.0)
    at10 = cfg.with_snr_db(10.0)
    assert at10.N0 == pytest.approx(0.2)
    assert 10.0 * np.log10(at10.snr) == pytest.approx(10.0)
    assert cfg.replace(alpha=0.9).alpha == 0.9
    assert cfg.replace(alpha=0.9).sigma_x2 == 2.0
    zero = cfg.replace(N0=0.0)
    assert zero.snr == np.inf
    # the valid SNR range is [-150, 150] dB; outside it 10**(snr/10) overflows
    for snr_db in (-150.0, 150.0):
        assert np.isfinite(cfg.with_snr_db(snr_db).N0)
    for snr_db in (-4000.0, -150.5, 150.5, 4000.0, float("nan")):
        with pytest.raises(ConfigError, match="SNR"):
            cfg.with_snr_db(snr_db)


# ----------------------------------------------------------- transforms ----

def test_dft_matrix_unitary():
    for n in (1, 2, 3, 8):
        f = dft_matrix(n)
        np.testing.assert_allclose(f @ f.conj().T, np.eye(n), atol=1e-12)
    f4 = dft_matrix(4)
    np.testing.assert_allclose(f4[0], np.full(4, 0.5), atol=1e-15)
    np.testing.assert_allclose(f4[1, 1], -0.5j, atol=1e-15)


def test_sfft_trivial_sizes():
    a11 = sfft_matrix(SystemConfig(M=1, N=1))
    np.testing.assert_allclose(a11, [[1.0]], atol=1e-15)
    # N=1 collapses the Kronecker product to the inverse DFT across carriers
    a21 = sfft_matrix(SystemConfig(M=2, N=1))
    np.testing.assert_allclose(a21, dft_matrix(2).conj().T, atol=1e-15)


@pytest.mark.parametrize("M,N", [(2, 2), (4, 2), (3, 5)])
def test_sfft_matches_double_sum(M, N):
    a = sfft_matrix(SystemConfig(M=M, N=N))
    ref = sfft_double_sum(M, N)
    np.testing.assert_allclose(a, ref, atol=1e-12)


def test_sfft_is_built_once_per_grid_and_read_only():
    cfg = SystemConfig(M=4, N=2, alpha=0.9, beta=0.9)
    a = sfft_matrix(cfg)
    assert sfft_matrix(cfg.with_snr_db(5.0)) is a
    assert sfft_matrix(cfg.replace(alpha=0.95)) is a
    other = sfft_matrix(SystemConfig(M=2, N=4))
    assert other.shape == a.shape and not np.array_equal(other, a)
    with pytest.raises(ValueError):
        a[0, 0] = 0.0
    np.testing.assert_array_equal(a, np.kron(dft_matrix(2), dft_matrix(4).conj().T))


def test_sfft_unitary_and_inverse():
    cfg = SystemConfig(M=4, N=3)
    a = sfft_matrix(cfg)
    np.testing.assert_allclose(a @ a.conj().T, np.eye(12), atol=1e-12)
    np.testing.assert_allclose(a.conj().T @ a, np.eye(12), atol=1e-12)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    np.testing.assert_allclose(a.conj().T @ (a @ x), x, atol=1e-12)


# ------------------------------------------------------------------ rng ----

def test_rng_stream_deterministic():
    a = rng_stream(3, "paths", 7).standard_normal(8)
    b = rng_stream(3, "paths", 7).standard_normal(8)
    np.testing.assert_array_equal(a, b)


def test_rng_stream_key_separation():
    draws = {
        "base": rng_stream(3).standard_normal(4),
        "paths0": rng_stream(3, "paths", 0).standard_normal(4),
        "paths1": rng_stream(3, "paths", 1).standard_normal(4),
        "noise0": rng_stream(3, "noise", 0).standard_normal(4),
        "seed4": rng_stream(4, "paths", 0).standard_normal(4),
    }
    keys = list(draws)
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            assert not np.allclose(draws[keys[i]], draws[keys[j]]), (keys[i], keys[j])


def test_rng_stream_rejects_negative_parts():
    with pytest.raises(ConfigError):
        rng_stream(3, -1)
