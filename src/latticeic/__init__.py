"""Layered lattice coding for the three-user Gaussian interference channel:
achievable-rate calculators, Construction-A codebooks and Monte Carlo
link-level validation.
"""

__version__ = "0.1.0"

from .channel import (
    ChannelMatrix3,
    channel_from_json,
    class_h1_membership,
    receive,
    symmetric_channel,
    transmit,
)
from .lattice import (
    Codebook,
    Lattice,
    LinearCode,
    build_codebook,
    construction_a,
    fundamental_volume,
    is_lattice_point,
    make_linear_code,
    nearest_point,
    scale_lattice,
)
from .rates import (
    AllocationError,
    LayeredAllocation,
    RateReport,
    dof_nonsym_numeric,
    dof_symmetric,
    hk_sym_rate,
    layered_allocation_symmetric,
    nonsym_layered_allocation,
    stage_constraints_strong,
    sym_rate_lattice,
    threshold_power,
    very_strong_general,
    very_strong_symmetric,
)
from .simulate import (
    ConfigError,
    ErrorStats,
    SimConfig,
    align_interference_lattices,
    run_simulation,
    simulate_layered_symmetric,
    simulate_point_to_point,
    simulate_very_strong_symmetric,
)

__all__ = [
    "AllocationError",
    "ChannelMatrix3",
    "Codebook",
    "ConfigError",
    "ErrorStats",
    "Lattice",
    "LayeredAllocation",
    "LinearCode",
    "RateReport",
    "SimConfig",
    "align_interference_lattices",
    "build_codebook",
    "channel_from_json",
    "class_h1_membership",
    "construction_a",
    "dof_nonsym_numeric",
    "dof_symmetric",
    "fundamental_volume",
    "hk_sym_rate",
    "is_lattice_point",
    "layered_allocation_symmetric",
    "make_linear_code",
    "nearest_point",
    "nonsym_layered_allocation",
    "receive",
    "run_simulation",
    "scale_lattice",
    "simulate_layered_symmetric",
    "simulate_point_to_point",
    "simulate_very_strong_symmetric",
    "stage_constraints_strong",
    "sym_rate_lattice",
    "symmetric_channel",
    "threshold_power",
    "transmit",
    "very_strong_general",
    "very_strong_symmetric",
]
