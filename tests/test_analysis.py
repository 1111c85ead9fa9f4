import math

import mpmath
import numpy as np
import pytest

from twrnoma import analysis
from twrnoma.analysis import (
    HypoexpSpec,
    asymptotic_outage,
    closed_outage,
    hypoexp_pdf,
    interference_laplace,
    diversity_order_estimate,
    throughput_delay_limited,
)
from twrnoma.errors import ConfigError, NumericError
from twrnoma.model import GROUP_ONE, GROUP_TWO, SystemConfig, build_derived_constants
from twrnoma.oracle import integrate_semi_infinite

# Reference operating point, validated three ways (closed form, tight-tolerance
# quadrature, 1e7-trial simulation within 0.5 sigma) and frozen here.
GOLDEN_XL_IPSIC_30DB = 0.03559958122913853
GOLDEN_XT_IPSIC_30DB = 0.08981797709353534
GOLDEN_XL_PSIC_30DB = 0.00670379224881712
GOLDEN_XT_PSIC_30DB = 0.02619517373026148


def table_config(**overrides):
    overrides.setdefault("rho_db", 30.0)
    return SystemConfig(**overrides)


def mp_hypoexp_pdf(rates, z, dps=80):
    """High-precision reference density via confluent divided differences."""
    with mpmath.workdps(dps):
        nodes = [mpmath.mpf(repr(-r)) * mpmath.mpf(repr(z)) for r in rates]
        for i in range(len(nodes)):
            nodes[i] += mpmath.mpf(i) * mpmath.mpf("1e-30")

        def dd(lo, hi):
            if lo == hi:
                return mpmath.exp(nodes[lo])
            return (dd(lo + 1, hi) - dd(lo, hi - 1)) / (nodes[hi] - nodes[lo])

        prod = mpmath.mpf(1)
        for r in rates:
            prod *= mpmath.mpf(repr(r))
        n = len(rates)
        value = prod * mpmath.mpf(repr(z)) ** (n - 1) * dd(0, n - 1)
        return float(value)


class TestHypoexpPdf:
    def test_single_rate_is_exponential(self):
        spec = HypoexpSpec((2.0,))
        assert hypoexp_pdf(spec, 0.0) == pytest.approx(2.0)
        assert hypoexp_pdf(spec, 1.5) == pytest.approx(2.0 * math.exp(-3.0), rel=1e-14)

    def test_multi_stage_density_vanishes_at_origin(self):
        assert hypoexp_pdf(HypoexpSpec((1.0, 2.0, 3.0)), 0.0) == 0.0
        assert hypoexp_pdf(HypoexpSpec((1.0, 1.0)), 0.0) == 0.0

    def test_equal_rates_reduce_to_erlang(self):
        assert hypoexp_pdf(HypoexpSpec((1.0, 1.0)), 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
        # three equal stages: lam^3 z^2 e^(-lam z) / 2
        lam, z = 2.0, 0.7
        expected = lam**3 * z**2 * math.exp(-lam * z) / 2.0
        assert hypoexp_pdf(HypoexpSpec((lam, lam, lam)), z) == pytest.approx(expected, rel=1e-14)

    def test_empty_rates_rejected(self):
        with pytest.raises(ConfigError):
            HypoexpSpec(())

    def test_negative_argument_rejected(self):
        with pytest.raises(ConfigError):
            hypoexp_pdf(HypoexpSpec((1.0,)), -0.5)
        with pytest.raises(ConfigError):
            hypoexp_pdf(HypoexpSpec((1.0, 2.0, 3.0)), np.array([0.5, -1e-300, 2.0]))

    @pytest.mark.parametrize(
        "rates",
        [
            (1.0, 2.0, 3.0),
            (1.0, 1.0),
            (1.0, 1.0, 1.0),
            (0.5, 0.5, 50.0),
            (2e5, 500.0, 5.0),
            (1.0, 1.0 + 1e-12, 3.0),
            (7.0, 6.9999999, 7.0000001),
        ],
    )
    def test_matches_high_precision_reference(self, rates):
        zs = (1e-8, 0.01, 0.3, 1.0, 4.0)
        refs = [mp_hypoexp_pdf(rates, z) for z in zs]
        for z, ref in zip(zs, refs):
            mine = hypoexp_pdf(HypoexpSpec(rates), z)
            assert isinstance(mine, float)
            assert mine == pytest.approx(ref, rel=5e-13, abs=1e-300)
        together = hypoexp_pdf(HypoexpSpec(rates), np.array(zs))
        assert together.shape == (len(zs),)
        for mine, ref in zip(together, refs):
            assert mine == pytest.approx(ref, rel=5e-13, abs=1e-300)

    @pytest.mark.parametrize(
        "rates",
        [(2.0,), (1.0, 2.0), (1.0, 2.0, 3.0), (1.0, 1.0), (1.0, 1.0, 1.0), (0.5, 0.5, 50.0)],
    )
    def test_normalization(self, rates):
        spec = HypoexpSpec(rates)
        mean = sum(1.0 / r for r in rates)
        total = integrate_semi_infinite(lambda z: hypoexp_pdf(spec, z), 0.0, mean)
        assert abs(total - 1.0) <= 1e-8

    def test_laplace_product_matches_partial_fractions_when_distinct(self):
        rates = (0.8, 3.0, 11.0)
        s = 0.42
        expansion = 0.0
        for i, ri in enumerate(rates):
            weight = 1.0
            for j, rj in enumerate(rates):
                if j != i:
                    weight *= rj / (rj - ri)
            expansion += weight * ri / (ri + s)
        assert interference_laplace(rates, s) == pytest.approx(expansion, rel=1e-12)


class TestClosedForms:
    def test_reference_point_ipsic(self):
        cfg = table_config()
        assert closed_outage(cfg, "x1", "ipSIC") == pytest.approx(GOLDEN_XL_IPSIC_30DB, rel=1e-6)
        assert closed_outage(cfg, "x2", "ipSIC") == pytest.approx(GOLDEN_XT_IPSIC_30DB, rel=1e-6)

    def test_reference_point_psic(self):
        cfg = table_config()
        assert closed_outage(cfg, "x1", "pSIC") == pytest.approx(GOLDEN_XL_PSIC_30DB, rel=1e-6)
        assert closed_outage(cfg, "x2", "pSIC") == pytest.approx(GOLDEN_XT_PSIC_30DB, rel=1e-6)

    @pytest.mark.parametrize("mode", ["ipSIC", "pSIC"])
    def test_zero_rates_mean_zero_outage(self, mode):
        cfg = table_config(rates=(0.0, 0.0, 0.0, 0.0))
        assert closed_outage(cfg, "x1", mode) == 0.0
        assert closed_outage(cfg, "x2", mode) == 0.0

    def test_infeasible_own_split_means_certain_outage(self):
        cfg = table_config(b=(0.001, 0.999, 0.001, 0.999), varpi2=0.5)
        assert closed_outage(cfg, "x1", "ipSIC") == 1.0

    def test_infeasible_cross_split_hits_both_signals(self):
        # b_t <= (b_l + varpi2) * gamma_t needs a large weak-signal rate
        cfg = table_config(b=(0.45, 0.55, 0.45, 0.55), varpi2=0.9, rates=(0.1, 0.35, 0.1, 0.35))
        dc = build_derived_constants(cfg, GROUP_ONE)
        assert not dc.feasible_t
        assert closed_outage(cfg, "x1", "ipSIC") == 1.0
        assert closed_outage(cfg, "x2", "ipSIC") == 1.0

    def test_tags(self):
        # the signal tag picks the role group and the stronger or weaker
        # evaluator, the mode tag the cancellation
        cfg = table_config(varpi1=0.03, rates=(0.1, 0.02, 0.15, 0.05))
        for signal, roles, evaluator in (
            ("x1", GROUP_ONE, analysis._closed_xl), ("x2", GROUP_ONE, analysis._closed_xt),
            ("x3", GROUP_TWO, analysis._closed_xl), ("x4", GROUP_TWO, analysis._closed_xt),
        ):
            dc = build_derived_constants(cfg, roles)
            for mode in ("ipSIC", "pSIC"):
                expected = evaluator(cfg, roles, dc, mode)
                assert closed_outage(cfg, signal, mode) == expected
            assert closed_outage(cfg, signal, "pSIC") < closed_outage(cfg, signal, "ipSIC")
        with pytest.raises(ConfigError, match="unknown signal"):
            closed_outage(cfg, "x5", "ipSIC")

    @pytest.mark.parametrize("mode", ["ipSIC", "pSIC"])
    def test_monotone_nonincreasing_in_snr(self, mode):
        grid = [0.0, 5.0, 10.0, 15.0, 20.0, 30.0, 40.0, 50.0, 60.0]
        for signal in ("x1", "x2"):
            values = [closed_outage(table_config(rho_db=db), signal, mode) for db in grid]
            assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_perfect_cancellation_never_worse(self):
        for db in (0.0, 10.0, 20.0, 30.0, 40.0):
            cfg = table_config(rho_db=db)
            assert closed_outage(cfg, "x1", "pSIC") <= closed_outage(cfg, "x1", "ipSIC")
            assert closed_outage(cfg, "x2", "pSIC") <= closed_outage(cfg, "x2", "ipSIC")

    def test_degenerate_rate_continuity(self):
        # reference scenario sits exactly on a coincident-rate point; nudging
        # the leakage level off it must move the outage only marginally
        base = closed_outage(table_config(varpi1=0.01), "x1", "ipSIC")
        for nudge in (1 - 1e-6, 1 + 1e-6):
            moved = closed_outage(table_config(varpi1=0.01 * nudge), "x1", "ipSIC")
            assert abs(moved - base) < 1e-6

    def test_probability_range_guard(self):
        with pytest.raises(NumericError):
            from twrnoma.analysis import _finish_probability

            _finish_probability(1.1)


class TestAsymptotics:
    @pytest.mark.parametrize("mode", ["ipSIC", "pSIC"])
    def test_zero_rates(self, mode):
        cfg = table_config(rates=(0.0, 0.0, 0.0, 0.0))
        assert asymptotic_outage(cfg, "x1", mode) == 0.0
        assert asymptotic_outage(cfg, "x2", mode) == 0.0

    def test_perfect_cancellation_floor_ignores_residual_variance(self):
        lo = table_config(omega_i_db=-30.0)
        hi = table_config(omega_i_db=0.0)
        assert asymptotic_outage(lo, "x1", "pSIC") == asymptotic_outage(hi, "x1", "pSIC")
        assert asymptotic_outage(lo, "x2", "pSIC") == asymptotic_outage(hi, "x2", "pSIC")

    @pytest.mark.parametrize("mode", ["ipSIC", "pSIC"])
    def test_floor_matches_exact_at_high_snr(self, mode):
        cfg = table_config(rho_db=60.0)
        for signal in ("x1", "x2"):
            exact = closed_outage(cfg, signal, mode)
            floor = asymptotic_outage(cfg, signal, mode)
            assert abs(exact - floor) / exact < 0.02

    def test_floor_is_high_snr_limit_not_exceeding_exact(self):
        for mode in ("ipSIC", "pSIC"):
            cfg = table_config(rho_db=70.0)
            for signal in ("x1", "x2"):
                exact = closed_outage(cfg, signal, mode)
                floor = asymptotic_outage(cfg, signal, mode)
                assert floor <= exact + 1e-3

    def test_no_cross_leakage_routes_to_reduced_terms(self):
        cfg = table_config(varpi1=0.0)
        value = asymptotic_outage(cfg, "x2", "ipSIC")
        assert 0.0 < value < 1.0


class TestDiversityOrder:
    def test_flat_curve_gives_zero(self):
        assert diversity_order_estimate(lambda db: 0.25, 50.0, 60.0) == pytest.approx(0.0)

    def test_inverse_snr_gives_one(self):
        assert diversity_order_estimate(lambda db: 10 ** (-db / 10.0), 50.0, 60.0) == pytest.approx(1.0)

    def test_reference_scenario_has_error_floor(self):
        def curve(db):
            return closed_outage(table_config(rho_db=db), "x1", "ipSIC")

        assert abs(diversity_order_estimate(curve, 50.0, 60.0)) < 0.05

    def test_low_snr_probe_rejected(self):
        with pytest.raises(ConfigError):
            diversity_order_estimate(lambda db: 0.5, 30.0, 60.0)

    def test_zero_probability_rejected(self):
        with pytest.raises(NumericError):
            diversity_order_estimate(lambda db: 0.0, 50.0, 60.0)


class TestThroughput:
    def test_all_clear(self):
        assert throughput_delay_limited(table_config(), (0.0, 0.0, 0.0, 0.0)) == pytest.approx(0.22)

    def test_all_blocked(self):
        assert throughput_delay_limited(table_config(), (1.0, 1.0, 1.0, 1.0)) == 0.0

    def test_mixed(self):
        value = throughput_delay_limited(table_config(), (0.5, 0.0, 0.5, 0.0))
        assert value == pytest.approx(0.12)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ConfigError):
            throughput_delay_limited(table_config(), (0.5, 0.5, 0.5, 1.5))
        with pytest.raises(ConfigError):
            throughput_delay_limited(table_config(), (0.5, 0.5, 0.5))
