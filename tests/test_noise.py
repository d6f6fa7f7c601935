"""Noise tests: the colored delay-Doppler reference model and the white stacked draw."""

import numpy as np
import pytest

from mcftn_otfs import (
    ConfigError,
    GramMatrix,
    SystemConfig,
    build_gram,
    draw_dd_noise,
    draw_mimo_noise,
    make_noise_model,
    rng_stream,
    sfft_matrix,
)
from mcftn_otfs.noise import draw_standard_noise


@pytest.fixture(scope="module")
def compressed_model():
    cfg = SystemConfig(M=2, N=2, alpha=0.8, beta=0.9, theta=0.25)
    gram = build_gram(cfg)
    model = make_noise_model(0.5, gram, sfft_matrix(cfg))
    return cfg, gram, model


def test_covariance_formula(compressed_model):
    cfg, gram, model = compressed_model
    a = sfft_matrix(cfg)
    np.testing.assert_allclose(model.covariance, 0.5 * a @ gram.matrix @ a.conj().T,
                               atol=1e-14)
    # coloring reproduces the covariance by construction
    np.testing.assert_allclose(
        model.N0 * model.coloring @ model.coloring.conj().T,
        model.covariance, atol=1e-12,
    )


def test_negative_n0_rejected(compressed_model):
    cfg, gram, _ = compressed_model
    # NaN and inf used to give a NaN or inf covariance without complaint
    for n0 in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="N0"):
            make_noise_model(n0, gram, sfft_matrix(cfg))
        with pytest.raises(ConfigError, match="N0"):
            draw_mimo_noise(n0, rng_stream(0, "noise", 0), 2, (4,))
        with pytest.raises(ConfigError, match="N0"):
            draw_standard_noise(n0, rng_stream(0, "noise", 0), 2, (4,))


def test_zero_n0_draws_zeros(compressed_model):
    cfg, gram, _ = compressed_model
    model = make_noise_model(0.0, gram, sfft_matrix(cfg))
    z = draw_dd_noise(model, rng_stream(0, "noise", 0))
    np.testing.assert_array_equal(z, np.zeros(4))


def test_draw_shapes_and_determinism(compressed_model):
    _, _, model = compressed_model
    z1 = draw_dd_noise(model, rng_stream(1, "noise", 0))
    assert z1.shape == (4,)
    batch = draw_dd_noise(model, rng_stream(1, "noise", 0), n=3)
    assert batch.shape == (4, 3)
    # first column of a batch consumes the stream differently than a single
    # draw, but two identical calls agree exactly
    np.testing.assert_array_equal(batch, draw_dd_noise(model, rng_stream(1, "noise", 0), n=3))


def test_identity_gram_noise_is_white():
    cfg = SystemConfig(M=2, N=2)
    gram = GramMatrix.from_matrix(np.eye(4, dtype=complex))
    model = make_noise_model(2.0, gram, sfft_matrix(cfg))
    np.testing.assert_allclose(model.covariance, 2.0 * np.eye(4), atol=1e-12)
    draws = draw_dd_noise(model, rng_stream(2, "noise", 0), n=40000)
    cov = draws @ draws.conj().T / draws.shape[1]
    np.testing.assert_allclose(cov, 2.0 * np.eye(4), atol=0.08)


def test_sample_covariance_matches_model(compressed_model):
    _, _, model = compressed_model
    draws = draw_dd_noise(model, rng_stream(3, "noise", 0), n=60000)
    cov = draws @ draws.conj().T / draws.shape[1]
    err = np.max(np.abs(cov - model.covariance))
    assert err < 0.03 * model.N0


def test_whitening_on_active_subspace(compressed_model):
    cfg, gram, model = compressed_model
    a = sfft_matrix(cfg)
    w = gram.inv_sqrt @ a.conj().T @ model.coloring
    # G^{-1/2} A^H (A G^{1/2}) is the projector onto the active subspace
    proj = gram.eigenvectors[:, gram.active] @ gram.eigenvectors[:, gram.active].conj().T
    np.testing.assert_allclose(w, proj, atol=1e-10)


def test_mimo_noise_stacking():
    z = draw_mimo_noise(0.5, rng_stream(4, "noise", 0), 2, (4,))
    assert z.shape == (8,)
    # antenna 0 consumes the stream first, real parts before imaginary parts
    rng = rng_stream(4, "noise", 0)
    solo = np.sqrt(0.5) * ((rng.standard_normal(4) + 1j * rng.standard_normal(4)) / np.sqrt(2.0))
    np.testing.assert_array_equal(z[:4], solo)
    np.testing.assert_array_equal(z[:4], draw_mimo_noise(0.5, rng_stream(4, "noise", 0), 1, (4,)))
    assert not np.allclose(z[4:], z[:4])
    for n_rx in (0, -1, 1.0, True):
        with pytest.raises(ConfigError, match="n_rx"):
            draw_mimo_noise(0.5, rng_stream(4, "noise", 0), n_rx, (4,))
        with pytest.raises(ConfigError, match="n_rx"):
            draw_standard_noise(0.5, rng_stream(4, "noise", 0), n_rx, (4,))
    # draw_standard_noise takes each antenna's real parts, then its imaginary
    # parts, from the stream, and draw_mimo_noise is bit for bit that draw as
    # (re + 1j im) / sqrt(2) * sqrt(N0) (the BER cell folds the scale into its
    # equalizer instead), whatever the antenna count, shape and N0
    for n_rx in (1, 2, 3, 4):
        for shape in ((5,), (3, 4)):
            for N0 in (0.0, 0.5, 1e15):
                raw = draw_standard_noise(N0, rng_stream(6, "noise", n_rx), n_rx, shape)
                assert raw.shape == (n_rx, 2) + shape
                rng = rng_stream(6, "noise", n_rx)
                for part in raw.reshape((2 * n_rx,) + shape):
                    assert part.tobytes() == rng.standard_normal(shape).tobytes()
                z = draw_mimo_noise(N0, rng_stream(6, "noise", n_rx), n_rx, shape)
                assert z.shape == (n_rx * shape[0],) + shape[1:]
                want = (raw[:, 0] + 1j * raw[:, 1]) / np.sqrt(2.0) * np.sqrt(N0)
                assert z.tobytes() == want.reshape(z.shape).tobytes()
    # frames stack along the second axis; the antennas are white and independent
    draws = draw_mimo_noise(0.5, rng_stream(5, "noise", 0), 2, (4, 40000))
    assert draws.shape == (8, 40000)
    cov = draws @ draws.conj().T / draws.shape[1]
    np.testing.assert_allclose(cov, 0.5 * np.eye(8), atol=0.02)

