"""Multi-carrier faster-than-Nyquist signaling on the OTFS grid.

Simulation library for compressed time-frequency signaling in the discrete
matrix domain: pulse Gram construction, doubly dispersive channels, EVD and
per-stream SIC precoding with water-filling, LMMSE link simulation and
Monte Carlo sweep orchestration.
"""

__version__ = "0.1.0"

from .core import (
    ConfigError,
    DegenerateConfigurationError,
    NumericalError,
    SystemConfig,
    dft_matrix,
    rng_stream,
    sfft_matrix,
)
from .pulse import GramMatrix, RrcPulse, ambiguity_table, build_gram
from .channel import (
    DdChannel,
    DdPath,
    MimoChannel,
    build_dd_channel,
    build_mimo_channel,
    build_mimo_channels,
    build_tf_channel,
    paths_digest,
    sample_paths,
)
from .noise import NoiseModel, draw_dd_noise, draw_mimo_noise, make_noise_model
from .precode_siso import (
    build_effective_channel,
    solve_siso,
    waterfill,
)
from .precode_mimo import (
    build_mimo_effective,
    per_stream_rates,
    sic_precode,
    wf_baseline,
    wf_structured,
)
from .link import (
    bits_per_symbol,
    demap_symbols,
    map_bits,
    mmse_weights,
    wilson_interval,
)
from .montecarlo import (
    SCHEMES,
    BerPoint,
    CapacityPoint,
    SweepResult,
    SweepSpec,
    run_sweep,
)
