import twrnoma

# What the acceptance criteria import, one entry point per CLI command, the
# error types and mc_ergodic_rates; every other name comes from its module.
ROOT_API = {
    "ConfigError", "NumericError", "OracleError",
    "SystemConfig", "SIC_MODES", "load_config_file",
    "closed_outage", "asymptotic_outage", "diversity_order_estimate", "HypoexpSpec", "hypoexp_pdf",
    "mc_outage", "mc_ergodic_rates",
    "quad_outages", "integrate_semi_infinite",
    "oma_outage", "SweepSpec", "run_sweep", "throughput_rows", "crossover_snr_db", "oracle_agreement",
    "figure_preset",
}


def test_all_exports_resolve():
    for name in twrnoma.__all__:
        getattr(twrnoma, name)


def test_root_exports_exactly_the_criteria_api():
    assert len(twrnoma.__all__) == len(ROOT_API) == 22
    assert set(twrnoma.__all__) == ROOT_API
