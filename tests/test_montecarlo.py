import math
from dataclasses import replace

import pytest

from twrnoma.analysis import outage_xl, outage_xt
from twrnoma.errors import ConfigError
from twrnoma.model import GROUP_ONE, GROUP_TWO, SystemConfig
from twrnoma.montecarlo import mc_ergodic_rates, mc_outage, wilson_interval


def table_config(**overrides):
    overrides.setdefault("rho_db", 30.0)
    return SystemConfig(**overrides)


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(37, 1000)
        assert lo <= 37 / 1000 <= hi

    def test_never_leaves_unit_interval(self):
        assert wilson_interval(0, 50) [0] == 0.0
        assert wilson_interval(50, 50)[1] == 1.0
        lo, hi = wilson_interval(0, 50)
        assert hi > 0.0  # still informative at the boundary

    def test_shrinks_like_root_n(self):
        narrow = wilson_interval(5000, 10000)
        wide = wilson_interval(50, 100)
        ratio = (wide[1] - wide[0]) / (narrow[1] - narrow[0])
        assert ratio == pytest.approx(10.0, rel=0.05)


# Failure counts of x1..x4 at 20k trials and seed 1 on the reference scenario.
# MC results must stay bit-identical for a fixed seed; any change to the draw
# order, the chunking or the decode events shows here.
FROZEN_FAILURES = {
    (0.0, "ipSIC"): (19539, 19999, 19533, 19999),
    (0.0, "pSIC"): (19533, 19999, 19528, 19999),
    (20.0, "ipSIC"): (1348, 3253, 1316, 3268),
    (20.0, "pSIC"): (773, 2080, 768, 2175),
    (40.0, "ipSIC"): (643, 1647, 623, 1645),
    (40.0, "pSIC"): (65, 351, 57, 347),
}


class TestOutageEstimators:
    def test_zero_rates_exact_zero(self):
        cfg = table_config(rates=(0.0, 0.0, 0.0, 0.0))
        estimates = mc_outage(cfg, GROUP_ONE, trials=2000, seed=1)
        assert estimates["x1"].p_hat == 0.0
        assert estimates["x2"].p_hat == 0.0

    def test_infeasible_split_certain_outage(self):
        cfg = table_config(b=(0.001, 0.999, 0.001, 0.999), varpi2=0.5)
        assert mc_outage(cfg, GROUP_ONE, trials=2000, seed=1)["x1"].p_hat == 1.0

    def test_minimum_trials_enforced(self):
        with pytest.raises(ConfigError):
            mc_outage(table_config(), GROUP_ONE, trials=10, seed=1)

    def test_reproducible_and_worker_independent(self):
        cfg = table_config()
        first = mc_outage(cfg, GROUP_ONE, trials=300_000, seed=42)
        second = mc_outage(cfg, GROUP_ONE, trials=300_000, seed=42)
        threaded = mc_outage(cfg, GROUP_ONE, trials=300_000, seed=42, workers=4)
        assert first == second == threaded
        assert first["x1"].ci_low <= first["x1"].p_hat <= first["x1"].ci_high

    def test_tags(self):
        estimates = mc_outage(table_config(sic_mode="pSIC"), GROUP_ONE, trials=2000, seed=3)
        assert list(estimates) == ["x1", "x2"]
        est = estimates["x2"]
        assert est.signal == "x2" and est.mode == "pSIC" and est.seed == 3
        assert list(mc_outage(table_config(), GROUP_TWO, trials=2000, seed=3)) == ["x3", "x4"]

    @pytest.mark.parametrize("rho_db,mode", sorted(FROZEN_FAILURES))
    def test_failure_counts_frozen(self, rho_db, mode):
        cfg = table_config(rho_db=rho_db, sic_mode=mode)
        trials = 20_000
        estimates = {**mc_outage(cfg, GROUP_ONE, trials=trials, seed=1),
                     **mc_outage(cfg, GROUP_TWO, trials=trials, seed=1)}
        counts = tuple(round(estimates[s].p_hat * trials) for s in ("x1", "x2", "x3", "x4"))
        assert counts == FROZEN_FAILURES[(rho_db, mode)]

    @pytest.mark.parametrize("mode", ["ipSIC", "pSIC"])
    def test_tracks_closed_form_within_three_sigma(self, mode):
        trials = 10**6
        cfg = table_config(sic_mode=mode)
        estimates = mc_outage(cfg, GROUP_ONE, trials=trials, seed=2024)
        for signal, closed_fn in (("x1", outage_xl), ("x2", outage_xt)):
            estimate = estimates[signal]
            p = closed_fn(cfg, GROUP_ONE).probability
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(estimate.p_hat - p) <= 3 * sigma

    def test_statistical_consistency_over_many_seeds(self):
        # the three-sigma band should hold for almost every seed, and the 95%
        # interval should cover the true value at close to its nominal rate
        trials = 20_000
        cfg = table_config(rho_db=10.0)
        p = outage_xl(cfg, GROUP_ONE).probability
        sigma = math.sqrt(p * (1 - p) / trials)
        inside_band = 0
        covered = 0
        for seed in range(100):
            est = mc_outage(cfg, GROUP_ONE, trials=trials, seed=seed)["x1"]
            if abs(est.p_hat - p) <= 3 * sigma:
                inside_band += 1
            if est.ci_low <= p <= est.ci_high:
                covered += 1
        assert inside_band >= 99
        assert covered >= 90


class TestErgodicRates:
    def test_vanishing_at_deep_noise(self):
        cfg = table_config(rho_db=-60.0)
        rates = mc_ergodic_rates(cfg, GROUP_ONE, trials=20_000, seed=1).rates
        assert all(value < 1e-3 for value in rates.values())

    def test_interference_free_rate_keeps_growing(self):
        # without leakage and with perfect cancellation the rate still climbs
        # between 40 and 60 dB; identical seeds make the draws common, and the
        # per-draw chain is strictly increasing in SNR
        cfg = table_config(sic_mode="pSIC", varpi1=0.0, varpi2=0.0)
        r40 = mc_ergodic_rates(replace(cfg, rho_db=40.0), GROUP_ONE, trials=50_000, seed=2).rates["x1"]
        r60 = mc_ergodic_rates(replace(cfg, rho_db=60.0), GROUP_ONE, trials=50_000, seed=2).rates["x1"]
        assert r60 > r40 + 0.1

    def test_weak_signal_rate_hits_ceiling(self):
        cfg = table_config()
        r50 = mc_ergodic_rates(replace(cfg, rho_db=50.0), GROUP_ONE, trials=200_000, seed=5).rates["x2"]
        r60 = mc_ergodic_rates(replace(cfg, rho_db=60.0), GROUP_ONE, trials=200_000, seed=5).rates["x2"]
        assert r60 - r50 < 0.01

    def test_reproducible(self):
        cfg = table_config()
        a = mc_ergodic_rates(cfg, GROUP_ONE, trials=30_000, seed=7)
        b = mc_ergodic_rates(cfg, GROUP_ONE, trials=30_000, seed=7)
        assert a == b
