"""Symbol mapping, LMMSE equalization and BER accounting tests."""

import numpy as np
import pytest
from scipy import stats

from mcftn_otfs import (
    ConfigError,
    GramMatrix,
    NoiseModel,
    SystemConfig,
    bits_per_symbol,
    demap_symbols,
    make_noise_model,
    map_bits,
    mmse_weights,
    rng_stream,
    sfft_matrix,
    wilson_interval,
)
from mcftn_otfs.noise import draw_dd_noise
from reference import q_func


def identity_noise(n, N0):
    gram = GramMatrix.from_matrix(np.eye(n, dtype=complex))
    return make_noise_model(N0, gram, np.eye(n, dtype=complex))


# ---------------------------------------------------------------- mapping ----

def test_bits_per_symbol():
    assert bits_per_symbol("bpsk") == 1
    assert bits_per_symbol("qpsk") == 2
    with pytest.raises(ConfigError):
        bits_per_symbol("16qam")


def test_bpsk_mapping():
    x = map_bits(np.array([0, 1, 0]), "bpsk", sigma_x2=4.0)
    np.testing.assert_allclose(x, [2.0, -2.0, 2.0], atol=1e-15)


def test_qpsk_mapping_gray_quadrants():
    pairs = {(0, 0): 1 + 1j, (1, 0): -1 + 1j, (1, 1): -1 - 1j, (0, 1): 1 - 1j}
    for (b0, b1), quad in pairs.items():
        x = map_bits(np.array([b0, b1]), "qpsk", sigma_x2=2.0)
        assert x[0] == pytest.approx(quad, abs=1e-15)
    # neighboring quadrants differ in exactly one bit (Gray property)
    ring = [(0, 0), (1, 0), (1, 1), (0, 1)]
    for a, b in zip(ring, ring[1:] + ring[:1]):
        assert sum(x != y for x, y in zip(a, b)) == 1


def test_mapping_energy():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, 4000)
    for constellation in ("bpsk", "qpsk"):
        x = map_bits(bits, constellation, sigma_x2=1.7)
        np.testing.assert_allclose(np.abs(x) ** 2, 1.7, atol=1e-12)


def test_mapping_validation():
    for bad in (2, 0.5, np.nan):
        with pytest.raises(ConfigError):
            map_bits(np.array([0, bad]), "bpsk")
    with pytest.raises(ConfigError):
        map_bits(np.array(1), "bpsk")
    with pytest.raises(ConfigError):
        map_bits(np.array([0, 1, 0]), "qpsk")
    with pytest.raises(ConfigError):
        map_bits(np.array([0, 1]), "8psk")
    with pytest.raises(ConfigError):
        demap_symbols(np.complex128(1 + 1j), "qpsk")


@pytest.mark.parametrize("constellation", ["bpsk", "qpsk"])
def test_bool_bits_map_like_ints(constellation):
    # bool bits skip the 0/1 scan and give the same symbols bit for bit,
    # exactly (1 - 2 b) sqrt(sigma_x2 / k) on each rail
    ints = np.random.default_rng(8).integers(0, 2, (64, 9))
    k = bits_per_symbol(constellation)
    for sigma_x2 in (1.0, 0.3, 2.0, 1e-300, 1e300):
        x = map_bits(ints.astype(bool), constellation, sigma_x2)
        y = map_bits(ints, constellation, sigma_x2)
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()
        rails = [1.0 - 2.0 * ints[j::k].astype(float) for j in range(k)]
        formula = (rails[0] + 1j * rails[1] if k == 2 else rails[0]) * np.sqrt(sigma_x2 / k)
        assert x.tobytes() == formula.tobytes()
        np.testing.assert_array_equal(demap_symbols(x, constellation), ints)


@pytest.mark.parametrize("constellation", ["bpsk", "qpsk"])
def test_map_demap_roundtrip(constellation):
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, 64)
    np.testing.assert_array_equal(
        demap_symbols(map_bits(bits, constellation, 0.5), constellation), bits
    )
    batch = rng.integers(0, 2, (64, 7))
    np.testing.assert_array_equal(
        demap_symbols(map_bits(batch, constellation, 2.0), constellation), batch
    )


def test_demap_zero_resolves_to_bit_zero():
    assert demap_symbols(np.array([0.0 + 0.0j]), "bpsk")[0] == 0
    np.testing.assert_array_equal(demap_symbols(np.array([0.0 + 0.0j]), "qpsk"), [0, 0])
    with pytest.raises(ConfigError):
        demap_symbols(np.array([1.0]), "psk")


# ------------------------------------------------------------------- mmse ----

def test_mmse_scalar_wiener():
    w = mmse_weights(np.array([[1.0 + 0.0j]]), np.array([[0.5 + 0.0j]]), 2.0)
    assert w[0, 0] == pytest.approx(2.0 / 2.5, abs=1e-14)


def test_mmse_zero_channel_returns_zero():
    w = mmse_weights(np.zeros((2, 2), dtype=complex), np.eye(2, dtype=complex), 1.0)
    np.testing.assert_array_equal(w, np.zeros((2, 2)))
    y = np.ones(2, dtype=complex)
    np.testing.assert_array_equal(w @ y, np.zeros(2))


def test_mmse_zero_forcing_limit():
    rng = np.random.default_rng(8)
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    w = mmse_weights(b, 1e-12 * np.eye(3, dtype=complex), 1.0)
    np.testing.assert_allclose(w @ b, np.eye(3), atol=1e-6)


def test_mmse_singular_fallback():
    # N0 = 0 with a rank-deficient channel: pseudo inverse recovers the
    # signal subspace and zeros the dead one
    b = np.diag([1.0, 0.0]).astype(complex)
    w = mmse_weights(b, np.zeros((2, 2), dtype=complex), 1.0)
    np.testing.assert_allclose(w, np.diag([1.0, 0.0]), atol=1e-12)


def test_mmse_empirical_mse_matches_analytic():
    cfg = SystemConfig(M=2, N=2, alpha=0.8, beta=0.9, theta=0.25)
    from mcftn_otfs import build_gram
    gram = build_gram(cfg)
    model = make_noise_model(0.4, gram, sfft_matrix(cfg))
    rng = np.random.default_rng(11)
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    sigma_x2 = 1.3

    s = sigma_x2 * (b @ b.conj().T) + model.covariance
    analytic = float(
        np.trace(sigma_x2 * np.eye(4) - sigma_x2 ** 2 * b.conj().T @ np.linalg.solve(s, b)).real
    )

    n = 20000
    x = (rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))) * np.sqrt(sigma_x2 / 2)
    z = draw_dd_noise(model, rng_stream(12, "noise", 0), n=n)
    x_hat = mmse_weights(b, model.covariance, sigma_x2) @ (b @ x + z)
    empirical = float(np.mean(np.sum(np.abs(x - x_hat) ** 2, axis=0)))
    assert empirical == pytest.approx(analytic, rel=0.05)


# ---------------------------------------------------------------- counting ----

def test_wilson_interval_matches_scipy():
    for errors, n in [(0, 100), (5, 100), (50, 100), (400, 1000)]:
        lo, hi = wilson_interval(errors, n)
        ref = stats.binomtest(errors, n).proportion_ci(confidence_level=0.95,
                                                       method="wilson")
        assert lo == pytest.approx(ref.low, abs=1e-12)
        assert hi == pytest.approx(ref.high, abs=1e-12)


def test_wilson_interval_validation():
    # counts outside 0 <= errors <= n, n >= 1, or not integers, have no interval
    for errors, n in [(0, 0), (5, 3), (-1, 3), (1, -2), (1.5, 3), (1, 3.0), (True, 3), ("1", 3)]:
        with pytest.raises(ConfigError):
            wilson_interval(errors, n)
    # the ends of the valid range, and numpy counts as the sweep passes them
    assert wilson_interval(0, 3)[0] == pytest.approx(0.0, abs=1e-15)
    assert wilson_interval(3, 3)[1] == pytest.approx(1.0, abs=1e-15)
    assert wilson_interval(np.int64(2), np.int64(4)) == wilson_interval(2, 4)


# ------------------------------------------------------------- ber physics ----

def test_scalar_awgn_bpsk_matches_q_function():
    # 1x1 identity channel: LMMSE scaling never flips a BPSK sign, so the
    # error rate is the textbook Q(sqrt(2 SNR))
    snr_db = 4.0
    n0 = 10.0 ** (-snr_db / 10.0)
    model = identity_noise(1, n0)
    n = 200000
    rng = rng_stream(5, "bits", 0)
    bits = rng.integers(0, 2, (1, n))
    x = map_bits(bits, "bpsk", 1.0)
    z = draw_dd_noise(model, rng_stream(5, "noise", 0), n=n)
    y = np.ones((1, 1)) @ x + z
    x_hat = mmse_weights(np.eye(1, dtype=complex), model.covariance, 1.0) @ y
    errors = int(np.count_nonzero(demap_symbols(x_hat, "bpsk") != bits))
    expected = q_func(np.sqrt(2.0 / n0))
    sigma = np.sqrt(expected * (1.0 - expected) / n)
    assert errors / n == pytest.approx(expected, abs=3.5 * sigma)


def test_qpsk_awgn_matches_q_function():
    # per-rail energy sigma_x2/2 gives the same per-bit error rate
    snr_db = 7.0
    n0 = 10.0 ** (-snr_db / 10.0)
    model = identity_noise(1, n0)
    n = 100000
    rng = rng_stream(6, "bits", 0)
    bits = rng.integers(0, 2, (2, n))
    x = map_bits(bits, "qpsk", 1.0)
    z = draw_dd_noise(model, rng_stream(6, "noise", 0), n=n)
    y = np.ones((1, 1)) @ x + z
    x_hat = mmse_weights(np.eye(1, dtype=complex), model.covariance, 1.0) @ y
    errors = int(np.count_nonzero(demap_symbols(x_hat, "qpsk") != bits))
    expected = q_func(np.sqrt(1.0 / n0))
    sigma = np.sqrt(expected * (1.0 - expected) / (2 * n))
    assert errors / (2 * n) == pytest.approx(expected, abs=3.5 * sigma)
