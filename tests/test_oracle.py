import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from twrnoma import oracle
from twrnoma.analysis import HypoexpSpec, hypoexp_pdf, outage_xl, outage_xt
from twrnoma.errors import ConfigError, OracleError
from twrnoma.model import GROUP_ONE, SystemConfig
from twrnoma.oracle import QuadSpec, integrate_semi_infinite, quad_outage_xl, quad_outage_xt

from test_analysis import (
    GOLDEN_XL_IPSIC_30DB,
    GOLDEN_XL_PSIC_30DB,
    GOLDEN_XT_IPSIC_30DB,
    GOLDEN_XT_PSIC_30DB,
)


def table_config(**overrides):
    overrides.setdefault("rho_db", 30.0)
    return SystemConfig(**overrides)


class TestGaussKronrodRule:
    def test_kronrod_weights_sum_to_interval_length(self):
        assert math.fsum(oracle._KRONROD_WEIGHTS) == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize(
        "nodes, weights, degree",
        [
            (oracle._NODES, oracle._KRONROD_WEIGHTS, 22),
            (oracle._NODES[1::2], oracle._GAUSS_WEIGHTS, 13),
        ],
        ids=["K15", "G7"],
    )
    def test_rule_is_exact_for_monomials(self, nodes, weights, degree):
        for k in range(degree + 1):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert math.fsum(weights * nodes**k) == pytest.approx(exact, abs=1e-15), k

    def test_gauss_nodes_are_odd_indexed_kronrod_nodes(self):
        nodes, weights = np.polynomial.legendre.leggauss(7)
        assert oracle._NODES.shape == (15,) and np.all(np.diff(oracle._NODES) > 0.0)
        assert np.allclose(oracle._NODES[1::2], nodes, rtol=0.0, atol=1e-15)
        assert np.allclose(oracle._GAUSS_WEIGHTS, weights, rtol=0.0, atol=1e-15)


class TestIntegrator:
    def test_plain_exponential(self):
        value = integrate_semi_infinite(lambda z: np.exp(-z), 0.0, 1.0)
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_shifted_lower_limit(self):
        value = integrate_semi_infinite(lambda z: 2.0 * np.exp(-2.0 * z), 1.5, 0.5)
        assert value == pytest.approx(math.exp(-3.0), rel=1e-9)

    def test_mismatched_scale_still_converges(self):
        value = integrate_semi_infinite(lambda z: 50.0 * np.exp(-50.0 * z), 0.0, 10.0)
        assert value == pytest.approx(1.0, rel=1e-8)

    @pytest.mark.parametrize(
        "rates",
        [(2.0,), (1.0, 2.0), (1.0, 2.0, 3.0), (1.0, 1.0), (1.0, 1.0, 1.0), (0.5, 0.5, 50.0), (2e5, 500.0, 5.0)],
    )
    def test_density_normalization(self, rates):
        spec = HypoexpSpec(rates)
        mean = sum(1.0 / r for r in rates)
        total = integrate_semi_infinite(lambda z: hypoexp_pdf(spec, z), 0.0, mean)
        assert abs(total - 1.0) <= 1e-8

    @pytest.mark.parametrize("rates", [(2e5, 500.0, 5.0), (1.0, 2.0, 3.0), (0.5, 0.5, 50.0), (3.0, 7.0)])
    @pytest.mark.parametrize("s", [0.01, 0.3, 5.0, 400.0])
    def test_meets_requested_tolerance_on_laplace_transforms(self, rates, s):
        # the Laplace transform of the density is the product of lam / (lam + s)
        spec = HypoexpSpec(rates)
        value = integrate_semi_infinite(
            lambda z: hypoexp_pdf(spec, z) * np.exp(-s * z),
            0.0,
            oracle._decay_scale(rates, s),
            QuadSpec(abs_tol=1e-13, rel_tol=1e-11),
        )
        with mpmath.workdps(40):
            exact = mpmath.fprod(mpmath.mpf(r) / (mpmath.mpf(r) + mpmath.mpf(s)) for r in rates)
            assert float(abs(value - exact) / exact) <= 1e-11

    def test_tolerance_monotonicity(self):
        spec = HypoexpSpec((0.5, 0.5, 50.0))
        mean = sum(1.0 / r for r in spec.rates)

        def density(z):
            return hypoexp_pdf(spec, z) * np.exp(-0.3 * z)

        loose = integrate_semi_infinite(density, 0.0, mean, QuadSpec(rel_tol=1e-7, abs_tol=1e-9))
        tight = integrate_semi_infinite(density, 0.0, mean, QuadSpec(rel_tol=1e-8, abs_tol=1e-10))
        assert abs(loose - tight) < 1e-7 * abs(tight) + 1e-9

    def test_budget_exhaustion_raises(self):
        starved = QuadSpec(abs_tol=1e-300, rel_tol=1e-16, max_subdivisions=32)
        with pytest.raises(OracleError, match=r"subdivision budget of 32 panels \(lower=0, scale=1, worst open panel z in \["):
            integrate_semi_infinite(lambda z: np.exp(-z), 0.0, 1.0, starved)
        with pytest.raises(OracleError, match=r"^quadrature of the relay integral did not converge"):
            quad_outage_xl(table_config(), GROUP_ONE, starved)
        with pytest.raises(OracleError, match=r"^quadrature of the relay pair integral did not converge"):
            quad_outage_xt(table_config(), GROUP_ONE, starved)

    def test_bad_tolerances_rejected(self):
        with pytest.raises(ConfigError):
            QuadSpec(abs_tol=0.0)
        with pytest.raises(ConfigError):
            integrate_semi_infinite(lambda z: z, 0.0, -1.0)


class TestOutageQuadrature:
    @pytest.mark.parametrize("mode", ["ipSIC", "pSIC"])
    def test_zero_rates(self, mode):
        cfg = table_config(rates=(0.0, 0.0, 0.0, 0.0), sic_mode=mode)
        assert quad_outage_xl(cfg, GROUP_ONE) == 0.0
        assert quad_outage_xt(cfg, GROUP_ONE) == 0.0

    def test_infeasible_split_gives_certain_outage(self):
        cfg = table_config(b=(0.001, 0.999, 0.001, 0.999), varpi2=0.5)
        assert quad_outage_xl(cfg, GROUP_ONE) == 1.0

    def test_single_term_case_matches_analytic_form(self):
        # without cross-pair leakage and with perfect cancellation the relay
        # stage has the analytic value e^(-beta/om_l) * lam*om_l/(lam*om_l + beta)
        cfg = table_config(varpi1=0.0, sic_mode="pSIC")
        rho = cfg.rho
        beta = (2 ** (2 * 0.1) - 1) / (rho * 0.8)
        lam = 1.0 / (rho * 0.2 * 0.01)
        om_l, om_k = 0.25, 0.25
        relay = math.exp(-beta / om_l) * lam * om_l / (lam * om_l + beta)
        gamma_t = 2 ** (2 * 0.01) - 1
        tau = (2 ** (2 * 0.1) - 1) / (rho * (0.2 - 0.0 * 0.1487))
        xi = gamma_t / (rho * (0.8 - 0.2 * gamma_t))
        user = math.exp(-max(tau, xi) / om_k)
        expected = 1.0 - relay * user
        cfg0 = replace(cfg, varpi2=0.0)
        assert quad_outage_xl(cfg0, GROUP_ONE) == pytest.approx(expected, abs=1e-10)

    def test_weak_signal_user_stages_are_exact_exponentials(self):
        # zero weak-signal rate collapses both user stages to probability one
        cfg = table_config(rates=(0.1, 0.0, 0.1, 0.0))
        closed = outage_xt(cfg, GROUP_ONE).probability
        assert quad_outage_xt(cfg, GROUP_ONE) == pytest.approx(closed, rel=1e-8)

    @pytest.mark.parametrize("mode", ["ipSIC", "pSIC"])
    @pytest.mark.parametrize("rho_db", [0.0, 10.0, 30.0, 50.0])
    def test_agreement_with_closed_forms(self, mode, rho_db):
        cfg = table_config(rho_db=rho_db, sic_mode=mode)
        assert quad_outage_xl(cfg, GROUP_ONE) == pytest.approx(
            outage_xl(cfg, GROUP_ONE).probability, rel=1e-6
        )
        assert quad_outage_xt(cfg, GROUP_ONE) == pytest.approx(
            outage_xt(cfg, GROUP_ONE).probability, rel=1e-6
        )

    @pytest.mark.parametrize(
        "mode, golden_xl, golden_xt",
        [
            ("ipSIC", GOLDEN_XL_IPSIC_30DB, GOLDEN_XT_IPSIC_30DB),
            ("pSIC", GOLDEN_XL_PSIC_30DB, GOLDEN_XT_PSIC_30DB),
        ],
        ids=["ipSIC", "pSIC"],
    )
    def test_matches_frozen_golden_values(self, mode, golden_xl, golden_xt):
        cfg = table_config(sic_mode=mode)
        assert quad_outage_xl(cfg, GROUP_ONE) == pytest.approx(golden_xl, rel=1e-12)
        assert quad_outage_xt(cfg, GROUP_ONE) == pytest.approx(golden_xt, rel=1e-12)

    def test_no_panel_accepted_before_depth_two(self):
        # a depth-0 panel of the relay integral agreed with its refinement to
        # 1e-11 while its true error was 7.9e-10, a relative error of 2.1e-6
        cfg = SystemConfig(
            rho_db=55.74053376692068,
            a=(0.6019126024193184, 0.39808739758068157, 0.6993897728549983, 0.30061022714500174),
            b=(0.4087998003720612, 0.5912001996279388, 0.3620288869002377, 0.6379711130997623),
            omega=(0.5427303585875527, 0.002193834062172656, 0.17344653575989966, 0.003030514950766943),
            omega_i_db=-19.95830276648209,
            varpi1=0.005502782871112188,
            varpi2=0.1431061821441499,
            rates=(0.05452492497850011, 0.08848393555505639, 0.06844679052228167, 0.08727767690196436),
            sic_mode="pSIC",
        )
        quad = quad_outage_xl(cfg, GROUP_ONE, QuadSpec(abs_tol=1e-13, rel_tol=1e-11))
        assert quad == pytest.approx(outage_xl(cfg, GROUP_ONE).probability, rel=1e-9)

    def test_out_of_range_value_raises(self, monkeypatch):
        assert oracle._finish(-1e-13) == 0.0
        assert oracle._finish(1.0 + 1e-13) == 1.0
        # integrals three times too large drive the outage far below 0
        true_integral = oracle.integrate_semi_infinite
        monkeypatch.setattr(oracle, "integrate_semi_infinite", lambda *args: 3.0 * true_integral(*args))
        with pytest.raises(OracleError, match="clamp gate"):
            quad_outage_xl(table_config(), GROUP_ONE)

    def test_degenerate_rate_continuity(self):
        base = quad_outage_xl(table_config(varpi1=0.01), GROUP_ONE)
        for nudge in (1 - 1e-6, 1 + 1e-6):
            moved = quad_outage_xl(table_config(varpi1=0.01 * nudge), GROUP_ONE)
            assert abs(moved - base) < 1e-6
