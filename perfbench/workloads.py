"""The benchmark's workloads: each maps a seed to the SweepSpecs of one sweep.

All use theta = 0.25 and L = 3 paths; the seed becomes `SystemConfig.seed`,
so the program receives only the generated specs. The sample sizes are
fixed so that one sweep takes a few seconds on one core, which lets a run
repeat it and report a median. `tiny=True` shrinks every workload to a
sub-second shape for the harness self-test; the layers exercised stay the
same.
"""

from __future__ import annotations

NAMES = ("siso_8x4_cap", "siso_16x16_cap", "mimo_2x2_ber")

SISO_SCHEMES = ("siso_pa", "siso_nopa", "siso_unprecoded")
CAP_SNR_DB = (0.0, 5.0, 10.0, 15.0, 20.0)
BER_SNR_DB = (0.0, 4.0, 8.0, 12.0, 16.0)
# the (alpha, beta) pairs of the criterion-07 comparison, paired on one seed
PAIRS = ((0.9, 0.9), (0.9, 1.0), (1.0, 1.0))


def specs(name: str, seed: int, tiny: bool = False) -> list:
    """The SweepSpecs one sweep of workload `name` runs, in order."""
    from mcftn_otfs import SweepSpec, SystemConfig

    def config(M, N, alpha, beta, **kw):
        return SystemConfig(M=M, N=N, alpha=alpha, beta=beta, theta=0.25, L=3, seed=seed, **kw)

    if name == "siso_8x4_cap":
        M, N, R = (4, 2, 2) if tiny else (8, 4, 12)
        return [SweepSpec(config(M, N, a, b), CAP_SNR_DB, R, SISO_SCHEMES) for a, b in PAIRS]
    if name == "siso_16x16_cap":
        M, N, R = (4, 4, 1) if tiny else (16, 16, 2)
        return [SweepSpec(config(M, N, 0.9, 0.9), CAP_SNR_DB, R, SISO_SCHEMES)]
    if name == "mimo_2x2_ber":
        M, N, R, frames = (4, 2, 1, 200) if tiny else (8, 4, 3, 16000)
        return [SweepSpec(config(M, N, 0.9, 0.9, n_tx=2, n_rx=2), BER_SNR_DB, R,
                          ("sic", "wf_relaxed"), metric="ber", n_frames=frames,
                          constellation="qpsk")]
    raise ValueError(f"unknown workload {name!r}; valid: {', '.join(NAMES)}")
