"""Metamorphic invariants of the model, checked on configs drawn by
hypothesis (derandomized, so every run draws the same examples): each drawn
config is compared with a transformed copy of itself, with no oracle.

- Scaling D by g equals shifting the SNR by 20 log10 |g| dB.
- A permutation of the receive antennas changes no capacity; one of the
  transmit antennas changes no wf_relaxed capacity.
- A sweep reads the SNR sigma_x2/N0 only: the base config's N0 changes no
  value, and its sigma_x2 changes no capacity.
- Capacity does not fall as the SNR rises, per realization.
- A path split into two with half the gain each gives the same channel.

The closed-form designs hold to 1e-12 relative over the whole SNR range.
wf_structured stops at a relative gain of STRUCTURED_TOL = 1e-9, so it is
held to 1e-9, and only up to 60 dB.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mcftn_otfs import (
    SweepSpec,
    SystemConfig,
    build_gram,
    build_mimo_channel,
    build_mimo_effective,
    rng_stream,
    run_sweep,
    sample_paths,
    sfft_matrix,
)
from mcftn_otfs.montecarlo import SCHEME_TABLE, SCHEMES
from mcftn_otfs.pulse import coupling_matrix

INVARIANT = settings(derandomize=True, deadline=None, database=None, max_examples=40)
CLOSED_FORM_TOL = 1e-12
STRUCTURED_DESIGN_TOL = 1e-9
SISO = ("siso_pa", "siso_nopa", "siso_unprecoded")
CLOSED_FORM_MIMO = ("sic", "wf_relaxed")
SNR_DB = st.floats(-150.0, 150.0)

# a rank-deficient channel (n_tx > n_rx): at 150 dB the rounding-level
# eigenvalues of D^H D's null space once carried bits, so wf_relaxed on 10 D
# at 130 dB differed from D at 150 dB by 6.4e-4 relative
WIDE = dict(M=2, N=2, alpha=0.9, beta=0.9, theta=0.25, n_tx=3, n_rx=2, seed=3)

# wf_relaxed and the siso_* designs diagonalize D^H D, whose small eigenvalues
# eigh resolves only to eps cond(D)^2 relative (up to 4e-9 at cond(D) = 1e4):
# drawn channels where that moves a capacity by more than 1e-12 at 60-70 dB
SQUARED_CONDITION = "eigh of D^H D squares the condition number of D"
ILL_2X2 = SystemConfig(M=1, N=4, alpha=1.0, beta=1.0, theta=1.0, n_tx=2, n_rx=2, seed=146)
ILL_3X3 = SystemConfig(M=2, N=3, alpha=0.65625, beta=0.984375, theta=0.5625, n_tx=3, n_rx=3,
                       seed=33570)
ILL_2X2_B = SystemConfig(M=2, N=4, alpha=0.75, beta=0.5, theta=0.75, n_tx=2, n_rx=2, seed=1)


@st.composite
def configs(draw):
    theta = draw(st.floats(0.05, 1.0))
    return SystemConfig(M=draw(st.integers(1, 4)), N=draw(st.integers(1, 4)),
                        alpha=draw(st.floats(1.0 / (1.0 + theta), 1.0)),
                        beta=draw(st.floats(0.5, 1.0)), theta=theta,
                        n_tx=draw(st.integers(1, 3)), n_rx=draw(st.integers(1, 3)),
                        seed=draw(st.integers(0, 2 ** 16)))


def _effective(cfg):
    gram = build_gram(cfg)
    mimo = build_mimo_channel(cfg, rng_stream(cfg.seed, "paths", 0))
    return gram, build_mimo_effective(gram, mimo.matrix, sfft_matrix(cfg), cfg.n_rx)


def _closed_form(cfg):
    single = cfg.n_tx == cfg.n_rx == 1
    return (SISO if single else ()) + CLOSED_FORM_MIMO


def _capacity(scheme, cfg, snr_db, gram, d):
    factor, design = SCHEME_TABLE[scheme]
    return design(cfg.with_snr_db(snr_db), *factor(cfg, gram, d))[1]


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), math.ulp(0.0))


def _scaling_errors(cfg, schemes, snr_db, shifted_db, phase):
    # c |g|^2 at the shifted SNR is c at snr_db
    gram, d = _effective(cfg)
    g = 10.0 ** ((snr_db - shifted_db) / 20.0) * np.exp(1j * phase)
    return {s: _rel(_capacity(s, cfg, snr_db, gram, d), _capacity(s, cfg, shifted_db, gram, g * d))
            for s in schemes}


# an order of three antennas; its entries below n give an order of n antennas
ORDERS = st.permutations(range(3))


def _permuted(d, n, axis, order):
    blocks = np.split(d, d.shape[axis] // n, axis=axis)
    return np.concatenate([blocks[k] for k in order if k < len(blocks)], axis=axis)


def _receive_permutation_errors(cfg, schemes, snr_db, order):
    gram, d = _effective(cfg)
    d_perm = _permuted(d, cfg.mn, 0, order)
    return {s: _rel(_capacity(s, cfg, snr_db, gram, d), _capacity(s, cfg, snr_db, gram, d_perm))
            for s in schemes}


@INVARIANT
@given(configs(), SNR_DB, SNR_DB, st.floats(0.0, 2.0 * math.pi))
@example(SystemConfig(**WIDE), 150.0, 130.0, 0.0)
@example(ILL_2X2, 63.0, 0.0, 0.0).xfail(raises=AssertionError, reason=SQUARED_CONDITION)
def test_scaling_d_is_shifting_the_snr(cfg, snr_db, shifted_db, phase):
    errors = _scaling_errors(cfg, _closed_form(cfg), snr_db, shifted_db, phase)
    assert max(errors.values()) <= CLOSED_FORM_TOL, errors


@INVARIANT
@given(configs(), SNR_DB, ORDERS)
@example(ILL_3X3, 71.0, (0, 2, 1)).xfail(raises=AssertionError, reason=SQUARED_CONDITION)
def test_receive_permutation_changes_no_capacity(cfg, snr_db, order):
    errors = _receive_permutation_errors(cfg, _closed_form(cfg), snr_db, order)
    assert max(errors.values()) <= CLOSED_FORM_TOL, errors


@INVARIANT
@given(configs(), SNR_DB, ORDERS)
@example(ILL_2X2_B, 64.0, (1, 0, 2)).xfail(raises=AssertionError, reason=SQUARED_CONDITION)
def test_transmit_permutation_changes_no_relaxed_capacity(cfg, snr_db, order):
    gram, d = _effective(cfg)
    cap = _capacity("wf_relaxed", cfg, snr_db, gram, d)
    cap_perm = _capacity("wf_relaxed", cfg, snr_db, gram, _permuted(d, cfg.mn, 1, order))
    assert _rel(cap, cap_perm) <= CLOSED_FORM_TOL


@INVARIANT
@given(configs(), st.floats(-150.0, 60.0), st.floats(-150.0, 60.0), ORDERS)
def test_structured_design_scales_and_ignores_receive_order(cfg, snr_db, shifted_db, order):
    # up to 60 dB; above it, see the strict xfail below
    errors = {"scaling": _scaling_errors(cfg, ("wf_structured",), snr_db, shifted_db, 0.0),
              "receive": _receive_permutation_errors(cfg, ("wf_structured",), snr_db, order)}
    assert max(e["wf_structured"] for e in errors.values()) <= STRUCTURED_DESIGN_TOL, errors


@pytest.mark.xfail(strict=True, reason="wf_structured's scaling error is 2.5e-5 at 150 dB on "
                                       "this channel; its re-solves are not exact (ROADMAP item 10)")
def test_structured_design_scales_at_150_db():
    errors = _scaling_errors(SystemConfig(**WIDE), ("wf_structured",), 150.0, 130.0, 0.0)
    assert errors["wf_structured"] <= STRUCTURED_DESIGN_TOL, errors


# ---------------------------------------------------------------- sweeps ----

@st.composite
def sweeps(draw, metric="capacity"):
    cfg = draw(configs())
    snr = sorted(draw(st.lists(SNR_DB, min_size=2, max_size=4, unique=True)))
    snr = [s for i, s in enumerate(snr) if i == 0 or s - snr[i - 1] >= 1.0]
    single = cfg.n_tx == cfg.n_rx == 1
    schemes = [s for s in SCHEMES if single or s not in SISO]
    return SweepSpec(cfg, snr, n_realizations=2, schemes=schemes, metric=metric,
                     n_frames=3, constellation=draw(st.sampled_from(("bpsk", "qpsk"))))


def _with_config(spec, **changes):
    return dataclasses.replace(spec, config=spec.config.replace(**changes))


@settings(INVARIANT, max_examples=15)
@given(st.sampled_from(("capacity", "ber")).flatmap(sweeps), st.floats(1e-6, 1e6))
def test_base_n0_changes_no_sweep_value(spec, n0):
    # each SNR point replaces N0, so every value is the same bit for bit
    base = run_sweep(spec)
    moved = run_sweep(_with_config(spec, N0=n0))
    for cell, values in base.values.items():
        np.testing.assert_array_equal(moved.values[cell], values, err_msg=str(cell))
    assert moved.channel_digests == base.channel_digests


@settings(INVARIANT, max_examples=15)
@given(sweeps(), st.floats(1e-6, 1e6))
def test_base_sigma_x2_changes_no_capacity(spec, sigma_x2):
    spec = dataclasses.replace(spec, schemes=[s for s in spec.schemes if s != "wf_structured"])
    base = run_sweep(spec).values
    moved = run_sweep(_with_config(spec, sigma_x2=sigma_x2)).values
    for cell, values in base.items():
        assert np.all(np.abs(moved[cell] - values) <= CLOSED_FORM_TOL * np.abs(values)), cell


@settings(INVARIANT, max_examples=15)
@given(sweeps())
def test_capacity_does_not_fall_as_the_snr_rises(spec):
    values = run_sweep(spec).values
    for scheme in spec.schemes:
        caps = np.array([values[(scheme, snr)] for snr in spec.snr_points_db])
        assert np.all(np.diff(caps, axis=0) >= 0.0), (scheme, caps)


# ---------------------------------------------------------------- channel ---

@INVARIANT
@given(configs(), st.integers(0, 2))
def test_splitting_a_path_keeps_the_channel(cfg, i):
    paths = sample_paths(cfg, rng_stream(cfg.seed, "paths", 0))
    half = paths[i]._replace(gain=paths[i].gain / 2.0)
    split = paths[:i] + (half, half) + paths[i + 1:]
    h, h_split = coupling_matrix(cfg, paths), coupling_matrix(cfg, split)
    assert np.abs(h_split - h).max() <= 1e-12 * np.abs(h).max()
