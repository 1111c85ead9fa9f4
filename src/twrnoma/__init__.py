"""Two-way relay NOMA outage-performance laboratory.

Three independent computation paths for the same outage probabilities
(closed forms, numerical quadrature of the underlying integrals, and seeded
Monte Carlo over Rayleigh fading), plus delay-limited throughput, diversity
estimation, and sweep/figure tooling around them.

The package root exports the API the acceptance criteria exercise: one entry
point per CLI command, the error types and the scenario. Everything else is
imported from its own module.
"""

from .analysis import HypoexpSpec, asymptotic_outage, closed_outage, diversity_order_estimate, hypoexp_pdf
from .errors import ConfigError, NumericError, OracleError
from .experiments import (
    SweepSpec,
    crossover_snr_db,
    figure_preset,
    oma_outage,
    oracle_agreement,
    run_sweep,
    throughput_rows,
)
from .model import SIC_MODES, SystemConfig, load_config_file
from .montecarlo import mc_ergodic_rates, mc_outage
from .oracle import integrate_semi_infinite, quad_outages

__all__ = [
    "ConfigError",
    "HypoexpSpec",
    "NumericError",
    "OracleError",
    "SIC_MODES",
    "SweepSpec",
    "SystemConfig",
    "asymptotic_outage",
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
    "oracle_agreement",
    "quad_outages",
    "run_sweep",
    "throughput_rows",
]
