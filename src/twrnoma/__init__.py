"""Two-way relay NOMA outage-performance laboratory.

Three independent computation paths for the same outage probabilities
(closed forms, numerical quadrature of the underlying integrals, and seeded
Monte Carlo over Rayleigh fading), plus delay-limited throughput, diversity
estimation, and sweep/figure tooling around them.
"""

from .analysis import (
    HypoexpSpec,
    asymptotic_outage,
    closed_outage,
    diversity_order_estimate,
    hypoexp_pdf,
    throughput_delay_limited,
)
from .errors import ConfigError, NumericError, OracleError
from .experiments import (
    SweepSpec,
    crossover_snr_db,
    figure_preset,
    oma_outage,
    oracle_agreement,
    run_sweep,
)
from .model import (
    GROUP_ONE,
    GROUP_TWO,
    PairRoles,
    RandomStream,
    SystemConfig,
    build_derived_constants,
    load_config_file,
    omega_from_distances,
    unit_rows,
)
from .montecarlo import mc_ergodic_rates, mc_outage, wilson_interval
from .oracle import QuadSpec, integrate_semi_infinite, quad_outages

__all__ = [
    "ConfigError",
    "GROUP_ONE",
    "GROUP_TWO",
    "HypoexpSpec",
    "NumericError",
    "OracleError",
    "PairRoles",
    "QuadSpec",
    "RandomStream",
    "SweepSpec",
    "SystemConfig",
    "asymptotic_outage",
    "build_derived_constants",
    "closed_outage",
    "crossover_snr_db",
    "diversity_order_estimate",
    "figure_preset",
    "hypoexp_pdf",
    "integrate_semi_infinite",
    "load_config_file",
    "mc_ergodic_rates",
    "mc_outage",
    "oma_outage",
    "omega_from_distances",
    "oracle_agreement",
    "quad_outages",
    "run_sweep",
    "throughput_delay_limited",
    "unit_rows",
    "wilson_interval",
]
