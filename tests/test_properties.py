"""Property tests over the valid input space: the Gram, water-filling, the
per-stream rate split and the symbol mapping, on inputs drawn by hypothesis
(derandomized, so every run draws the same examples)."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from mcftn_otfs import SystemConfig, demap_symbols, map_bits, per_stream_rates, waterfill
from mcftn_otfs.link import CONSTELLATIONS, bits_per_symbol
from mcftn_otfs.precode_siso import LN2
from mcftn_otfs.pulse import coupling_matrix

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)


@st.composite
def lattices(draw):
    theta = draw(st.floats(0.05, 1.0))
    return SystemConfig(M=draw(st.integers(1, 4)), N=draw(st.integers(1, 4)),
                        alpha=draw(st.floats(1.0 / (1.0 + theta), 1.0)),
                        beta=draw(st.floats(0.5, 1.0)), theta=theta)


@PROPERTY
@given(lattices())
def test_gram_is_hermitian_psd_unit_diagonal(cfg):
    # the raw coupling of the unit path, before GramMatrix symmetrizes it
    g = coupling_matrix(cfg, ((1.0, 0.0, 0.0),))
    np.testing.assert_allclose(g, g.conj().T, rtol=0.0, atol=1e-12)
    evals = np.linalg.eigvalsh(0.5 * (g + g.conj().T))
    assert evals[0] >= -1e-10 * evals[-1]
    np.testing.assert_allclose(np.diag(g), 1.0, rtol=0.0, atol=1e-12)
    assert abs(np.trace(g) - cfg.mn) <= 1e-10 * cfg.mn


modes_drawn = st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
                                 st.floats(1e-3, 4.0)), min_size=1, max_size=12)


@PROPERTY
@given(modes_drawn, st.floats(-150.0, 150.0))
def test_waterfill_meets_budget_on_one_level(pairs, snr_db):
    lam_d, phi = (np.array(v) for v in zip(*pairs))
    if not np.any(lam_d > 0.0):
        return                          # no mode can carry power
    n0 = 10.0 ** (-snr_db / 10.0)
    budget = float(phi.sum())           # unit allocation spends it exactly
    lam_p, xi = waterfill(lam_d, phi, 1.0, n0, budget)
    assert abs(phi @ lam_p - budget) <= 1e-10 * budget
    # phi lam_P + t is one level on the active modes; t clears it elsewhere
    usable = lam_d > 0.0
    t = phi[usable] * n0 / lam_d[usable]
    level = 1.0 / (LN2 * xi)
    on = lam_p[usable] > 0.0
    np.testing.assert_allclose(phi[usable][on] * lam_p[usable][on] + t[on], level, rtol=1e-9)
    assert np.all(t[~on] >= level * (1.0 - 1e-9))
    # never below the unit allocation, which meets the same budget
    c = 1.0 / n0
    best = np.sum(np.log1p(c * lam_p * lam_d))
    unit = np.sum(np.log1p(c * lam_d))
    assert best >= unit * (1.0 - 1e-9)
    assert math.isfinite(xi)


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.floats(-20.0, 40.0),
       st.integers(0, 2 ** 32 - 1))
def test_per_stream_rates_telescope_to_logdet(n_tx, n_rx, n, snr_db, seed):
    # the per-stream split is exact for any block precoder, not only a design
    cfg = SystemConfig(M=n, N=1, n_tx=n_tx, n_rx=n_rx).with_snr_db(snr_db)
    rng = np.random.default_rng(seed)
    d = _complex_normal(rng, (n_rx * n, n_tx * n))
    blocks = [_complex_normal(rng, (n, n)) for _ in range(n_tx)]
    p = np.zeros((n_tx * n,) * 2, dtype=complex)
    for t, block in enumerate(blocks):
        p[t * n:(t + 1) * n, t * n:(t + 1) * n] = block
    b = d @ p
    direct = np.linalg.slogdet(np.eye(n_rx * n) + cfg.snr * (b @ b.conj().T))[1] / LN2
    assert abs(float(np.sum(per_stream_rates(cfg, d, blocks))) - direct) <= 1e-9


@PROPERTY
@given(st.sampled_from(CONSTELLATIONS), st.integers(1, 16), st.integers(1, 5),
       st.floats(1e-300, 1e300), st.integers(0, 2 ** 32 - 1))
def test_map_demap_roundtrip(constellation, n_symbols, n_frames, sigma_x2, seed):
    n_bits = bits_per_symbol(constellation) * n_symbols
    bits = np.random.default_rng(seed).integers(0, 2, size=(n_bits, n_frames))
    x = map_bits(bits, constellation, sigma_x2)
    assert x.shape == (n_symbols, n_frames)
    np.testing.assert_allclose(np.abs(x) ** 2, sigma_x2, rtol=1e-12)
    np.testing.assert_array_equal(demap_symbols(x, constellation), bits)
