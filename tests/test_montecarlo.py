import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from twrnoma import montecarlo, sinr
from twrnoma.analysis import outage_xl, outage_xt
from twrnoma.errors import ConfigError
from twrnoma.model import GROUP_ONE, GROUP_TWO, RandomStream, SystemConfig, sinr_threshold, unit_rows
from twrnoma.montecarlo import CHUNK_SIZE, mc_ergodic_rates, mc_outage, wilson_interval

SIGNALS = ("x1", "x2", "x3", "x4")
MODES = ("ipSIC", "pSIC")


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

# Three chunks, the last one short: 2 * CHUNK_SIZE + 1234 trials at 20 dB,
# seed 1, x1..x4 failure counts per mode.
THREE_CHUNK_TRIALS = 2 * CHUNK_SIZE + 1234
FROZEN_THREE_CHUNK_FAILURES = {
    "ipSIC": (17740, 43186, 17715, 43479),
    "pSIC": (10464, 28139, 10388, 28166),
}

# Ergodic rates for the same run, per mode and role group, as exact floats.
FROZEN_ERGODIC_RATES = {
    ("ipSIC", GROUP_ONE): {"x1": 0.677879182594846, "x2": 0.06067422894349292},
    ("ipSIC", GROUP_TWO): {"x3": 0.6784382691364477, "x4": 0.060638132743082586},
    ("pSIC", GROUP_ONE): {"x1": 0.8546825661613734, "x2": 0.08861745235895722},
    ("pSIC", GROUP_TWO): {"x3": 0.8564226749779816, "x4": 0.08852381601485491},
}


class TestOutageEstimators:
    def test_zero_rates_exact_zero(self):
        cfg = table_config(rates=(0.0, 0.0, 0.0, 0.0))
        estimates = mc_outage(cfg, ("x1", "x2"), MODES, trials=2000, seed=1)
        assert all(est.p_hat == 0.0 for est in estimates.values())

    def test_infeasible_split_certain_outage(self):
        cfg = table_config(b=(0.001, 0.999, 0.001, 0.999), varpi2=0.5)
        assert mc_outage(cfg, ("x1",), ("ipSIC",), trials=2000, seed=1)[("x1", "ipSIC")].p_hat == 1.0

    def test_minimum_trials_enforced(self):
        with pytest.raises(ConfigError):
            mc_outage(table_config(), ("x1",), MODES, trials=10, seed=1)

    def test_unknown_signal_or_mode_rejected(self):
        with pytest.raises(ConfigError, match="signal"):
            mc_outage(table_config(), ("x5",), MODES, trials=2000, seed=1)
        with pytest.raises(ConfigError, match="sic mode"):
            mc_outage(table_config(), ("x1",), ("partial",), trials=2000, seed=1)

    def test_reproducible_and_worker_independent(self):
        cfg = table_config()
        first = mc_outage(cfg, ("x1", "x2"), MODES, trials=300_000, seed=42)
        second = mc_outage(cfg, ("x1", "x2"), MODES, trials=300_000, seed=42)
        threaded = mc_outage(cfg, ("x1", "x2"), MODES, trials=300_000, seed=42, workers=4)
        assert first == second == threaded
        est = first[("x1", "ipSIC")]
        assert est.ci_low <= est.p_hat <= est.ci_high

    def test_tags(self):
        estimates = mc_outage(table_config(), ("x2", "x3"), ("pSIC",), trials=2000, seed=3)
        assert list(estimates) == [("x2", "pSIC"), ("x3", "pSIC")]
        est = estimates[("x2", "pSIC")]
        assert est.signal == "x2" and est.mode == "pSIC" and est.seed == 3 and est.roles == GROUP_ONE
        assert estimates[("x3", "pSIC")].roles == GROUP_TWO

    def test_config_sic_mode_not_read(self):
        ip = mc_outage(table_config(sic_mode="ipSIC"), SIGNALS, MODES, trials=2000, seed=3)
        p = mc_outage(table_config(sic_mode="pSIC"), SIGNALS, MODES, trials=2000, seed=3)
        assert ip == p

    @pytest.mark.parametrize("rho_db,mode", sorted(FROZEN_FAILURES))
    def test_failure_counts_frozen(self, rho_db, mode):
        cfg = table_config(rho_db=rho_db)
        trials = 20_000
        estimates = mc_outage(cfg, SIGNALS, (mode,), trials=trials, seed=1)
        counts = tuple(round(estimates[(s, mode)].p_hat * trials) for s in SIGNALS)
        assert counts == FROZEN_FAILURES[(rho_db, mode)]

    def test_three_chunk_counts_frozen(self):
        trials = THREE_CHUNK_TRIALS
        estimates = mc_outage(table_config(rho_db=20.0), SIGNALS, MODES, trials=trials, seed=1)
        for mode, frozen in FROZEN_THREE_CHUNK_FAILURES.items():
            counts = tuple(round(estimates[(s, mode)].p_hat * trials) for s in SIGNALS)
            assert counts == frozen, mode

    def test_one_mode_or_group_equals_the_matching_part_of_all(self):
        cfg = table_config(rho_db=20.0)
        everything = mc_outage(cfg, SIGNALS, MODES, trials=THREE_CHUNK_TRIALS, seed=1)
        for signals in (("x1",), ("x4",), ("x2", "x3")):
            for modes in (("ipSIC",), ("pSIC",), ("pSIC", "ipSIC")):
                part = mc_outage(cfg, signals, modes, trials=THREE_CHUNK_TRIALS, seed=1)
                assert part == {key: everything[key] for key in part}

    def test_repeated_signals_and_modes_counted_once(self):
        cfg = table_config(rho_db=0.0)
        once = mc_outage(cfg, ("x1",), MODES, trials=2000, seed=1)
        assert mc_outage(cfg, ("x1", "x1"), MODES, trials=2000, seed=1) == once
        assert mc_outage(cfg, ("x1",), MODES + MODES, trials=2000, seed=1) == once

    def test_three_workers_equal_one(self):
        cfg = table_config(rho_db=20.0)
        single = mc_outage(cfg, SIGNALS, MODES, trials=THREE_CHUNK_TRIALS, seed=1)
        threaded = mc_outage(cfg, SIGNALS, MODES, trials=THREE_CHUNK_TRIALS, seed=1, workers=3)
        assert threaded == single

    @pytest.mark.parametrize("mode", ["ipSIC", "pSIC"])
    def test_tracks_closed_form_within_three_sigma(self, mode):
        trials = 10**6
        cfg = table_config(sic_mode=mode)
        estimates = mc_outage(cfg, ("x1", "x2"), (mode,), trials=trials, seed=2024)
        for signal, closed_fn in (("x1", outage_xl), ("x2", outage_xt)):
            estimate = estimates[(signal, mode)]
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
            est = mc_outage(cfg, ("x1",), ("ipSIC",), trials=trials, seed=seed)[("x1", "ipSIC")]
            if abs(est.p_hat - p) <= 3 * sigma:
                inside_band += 1
            if est.ci_low <= p <= est.ci_high:
                covered += 1
        assert inside_band >= 99
        assert covered >= 90


def failure_counts(cfg, trials=20_000, seed=1):
    estimates = mc_outage(cfg, SIGNALS, MODES, trials=trials, seed=seed)
    return {key: round(est.p_hat * trials) for key, est in estimates.items()}


def near_infeasible_config():
    # b_t - gamma_t (b_l + varpi2) is about 1e-13 of b_t for x2 and x4, and at
    # 150 dB their cross and far cuts fall inside the range of the draws
    b_l, b_t, varpi2 = 0.2, 0.8, 0.01
    rate = 0.5 * math.log2(1.0 + b_t / (b_l + varpi2) * (1.0 - 1e-13))
    cfg = table_config(rho_db=150.0, rates=(0.1, rate, 0.1, rate), varpi2=varpi2)
    margin = (b_t - sinr_threshold(rate) * (b_l + varpi2)) / b_t
    assert 1e-14 < margin < 1e-12
    return cfg


class TestGuardBand:
    """Draws near an event boundary are decided by the SINR path, so counts never depend on the band."""

    def test_counts_do_not_overflow_at_extreme_snr(self):
        # rho * g overflows at 3080 dB; the rho-free forms do not, and no
        # draw of this run lies between the event boundaries at 300 and 3080 dB
        assert failure_counts(table_config(rho_db=3080.0)) == failure_counts(table_config(rho_db=300.0))

    @pytest.mark.parametrize("cfg", [
        *(table_config(rho_db=rho_db) for rho_db in sorted({rho for rho, _ in FROZEN_FAILURES})),
        near_infeasible_config(),
        table_config(rho_db=20.0, rates=(0.0, 0.0, 0.0, 0.0)),
        table_config(rho_db=20.0, varpi1=0.0, varpi2=0.0),
    ], ids=["0dB", "20dB", "40dB", "near_infeasible", "zero_rates", "no_leakage"])
    def test_counts_equal_with_every_draw_redecided(self, cfg, monkeypatch):
        banded = failure_counts(cfg)
        monkeypatch.setattr(sinr, "_GUARD", math.inf)
        assert failure_counts(cfg) == banded

    @pytest.mark.parametrize("rho_db", [0.0, 17.3, 30.0, 45.1])
    def test_draws_at_a_boundary_get_the_sinr_decision(self, rho_db):
        for decided, reference in boundary_decisions(table_config(rho_db=rho_db)):
            assert decided.keys() == reference.keys()
            for key in reference:
                assert np.array_equal(decided[key], reference[key]), key

    def test_boundary_draws_need_the_band(self, monkeypatch):
        # without the band the rho-free forms alone decide the draws above,
        # and they disagree with the SINR path on some of them
        monkeypatch.setattr(sinr, "_GUARD", 0.0)
        disagree = 0
        for rho_db in (0.0, 17.3, 30.0, 45.1):
            for decided, reference in boundary_decisions(table_config(rho_db=rho_db)):
                disagree += sum(int(np.count_nonzero(decided[key] != reference[key])) for key in reference)
        assert disagree > 0


# ulp offsets from an event's exact boundary: inside the band, then beyond it
OFFSETS = (-600, -300, -40, -4, -3, -2, -1, 0, 1, 2, 3, 4, 40, 300, 600)


def near(boundary: Fraction) -> np.ndarray:
    """The float nearest ``boundary`` and its neighbours at ``OFFSETS`` ulps."""
    value = float(boundary)
    return np.array([value + k * math.ulp(value) for k in OFFSETS])


def boundary_decisions(cfg, draws=64):
    """(engine, SINR path) success masks on rows that put one event at a time on its boundary."""
    groups = montecarlo._groups(cfg, SIGNALS)
    decisions = sinr.EventDecisions(cfg, groups, MODES)
    f = Fraction
    a, b, om, v1, v2 = cfg.a, cfg.b, cfg.omega, f(cfg.varpi1), f(cfg.varpi2)
    om_i, inv_rho = f(cfg.omega_i), 1 / f(cfg.rho)
    out = []
    for roles, g_l, g_t in groups:
        l, t, k, r = roles.l - 1, roles.t - 1, roles.k - 1, roles.r - 1
        g_l, g_t = f(g_l), f(g_t)
        # relay events: x_l's strong decode, then x_t's weak decode per mode
        for target, mode in ((l, None), (t, "ipSIC"), (t, "pSIC")):
            base = unit_rows(RandomStream(7 + target), draws)
            rows = [np.repeat(row, len(OFFSETS)) for row in base]
            values = []
            for j in range(draws):
                u = [f(float(row[j])) for row in base]
                leak = v1 * (f(a[k]) * f(om[k]) * u[k] + f(a[r]) * f(om[r]) * u[r]) + inv_rho
                if mode is None:
                    edge = g_l * (f(a[t]) * f(om[t]) * u[t] + leak) / (f(a[l]) * f(om[l]))
                else:
                    rest = leak + (om_i * u[4] if mode == "ipSIC" else 0)
                    edge = g_t * rest / (f(a[t]) * f(om[t]))
                values.append(near(edge))
            rows[target] = np.concatenate(values)
            out.append((decisions.relay(rows), sinr.relay_events(cfg, groups, MODES, rows)))
        # user events per mode: the cross, own and far decodes
        for mode, first in (("ipSIC", 5), ("pSIC", 4)):
            cross = g_t * inv_rho / (f(om[k]) * (f(b[t]) - g_t * (f(b[l]) + v2)))
            far = g_t * inv_rho / (f(om[r]) * (f(b[t]) - g_t * (f(b[l]) + v2)))
            for target, edges in ((k, cross), (r, far), (k, None)):
                base = unit_rows(RandomStream(11 + target), draws) + unit_rows(RandomStream(13 + target), draws)
                rows = [np.repeat(row, len(OFFSETS)) for row in base]
                if edges is None:  # own decode, with the residual row under ipSIC
                    resid = [om_i * f(float(x)) if mode == "ipSIC" else 0 for x in base[first + 4]]
                    values = [
                        near(g_l * (x + inv_rho) / (f(om[k]) * (f(b[l]) - g_l * v2))) for x in resid
                    ]
                    rows[first + target] = np.concatenate(values)
                else:
                    rows[first + target] = np.tile(near(edges), draws)
                out.append((decisions.user(rows), sinr.user_events(cfg, groups, MODES, rows)))
    return out


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

    @pytest.mark.parametrize("mode,roles", sorted(FROZEN_ERGODIC_RATES, key=str))
    def test_rates_frozen(self, mode, roles):
        cfg = table_config(rho_db=20.0, sic_mode=mode)
        estimate = mc_ergodic_rates(cfg, roles, trials=THREE_CHUNK_TRIALS, seed=1)
        assert estimate.rates == FROZEN_ERGODIC_RATES[(mode, roles)]
