import math
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from twrnoma import oracle
from twrnoma.analysis import HypoexpSpec, closed_outage, hypoexp_pdf
from twrnoma.errors import ConfigError, OracleError
from twrnoma.experiments import oracle_agreement, random_valid_config
from twrnoma.model import GROUP_ONE, SystemConfig, build_derived_constants
from twrnoma.oracle import (
    QuadSpec,
    integrate_batch,
    integrate_semi_infinite,
    quad_outages,
)

from test_analysis import (
    GOLDEN_XL_IPSIC_30DB,
    GOLDEN_XL_PSIC_30DB,
    GOLDEN_XT_IPSIC_30DB,
    GOLDEN_XT_PSIC_30DB,
)


def table_config(**overrides):
    overrides.setdefault("rho_db", 30.0)
    return SystemConfig(**overrides)


def quad(config, signal, mode="ipSIC", spec=QuadSpec()):
    """Quadrature outage of one (config, signal, mode) case."""
    return quad_outages([(config, signal, mode)], spec)[0]


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
        rates = (0.5, 0.5, 50.0)
        spec = HypoexpSpec(rates)
        mean = sum(1.0 / r for r in rates)

        def density(z):
            return hypoexp_pdf(spec, z) * np.exp(-0.3 * z)

        loose = integrate_semi_infinite(density, 0.0, mean, QuadSpec(rel_tol=1e-7, abs_tol=1e-9))
        tight = integrate_semi_infinite(density, 0.0, mean, QuadSpec(rel_tol=1e-8, abs_tol=1e-10))
        assert abs(loose - tight) < 1e-7 * abs(tight) + 1e-9

    def test_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_PANELS", 32)
        starved = QuadSpec(abs_tol=1e-300, rel_tol=1e-16)
        with pytest.raises(OracleError, match=r"subdivision budget of 32 panels \(lower=0, scale=1, worst open panel z in \["):
            integrate_semi_infinite(lambda z: np.exp(-z), 0.0, 1.0, starved)
        with pytest.raises(OracleError, match=r"^quadrature of the relay integral did not converge"):
            quad(table_config(), "x1", "ipSIC", starved)
        with pytest.raises(OracleError, match=r"^quadrature of the relay pair integral did not converge"):
            quad(table_config(), "x2", "ipSIC", starved)

    def test_converging_at_depth_two_takes_600_evaluations(self):
        # the 8 depth-0 and 32 depth-2 panels; the 16 of depth 1 are never evaluated
        sizes = []
        value = integrate_semi_infinite(lambda z: sizes.append(z.size) or np.exp(-z), 0.0, 1.0)
        assert value == pytest.approx(1.0, abs=1e-10)
        assert sizes == [8 * 15, 32 * 15] and sum(sizes) == 600

    @pytest.mark.parametrize(
        "budget, panel",
        [(16, "[0, 0.284133]"), (40, "[29.8339, inf]")],
        ids=["out at depth 0", "out at depth 1"],
    )
    def test_budget_exhausted_before_the_first_accepting_depth(self, budget, panel, monkeypatch):
        # the budget counts the unevaluated depth-1 level too; the worst panel
        # of the level where it runs out is named as when every level was evaluated
        monkeypatch.setattr(oracle, "_MAX_PANELS", budget)
        starved = QuadSpec(abs_tol=1e-300, rel_tol=1e-16)
        cases = [(table_config(), "x2", "ipSIC"), (table_config(), "x1", "ipSIC"), (table_config(varpi1=0.01), "x1", "pSIC")]
        with pytest.raises(OracleError) as raised:
            quad_outages(cases, starved)
        assert str(raised.value) == (
            f"quadrature of the relay pair integral did not converge within the subdivision budget of {budget} "
            f"panels (lower=0, scale=1.98893, worst open panel z in {panel})"
        )

    def test_bad_tolerances_rejected(self):
        with pytest.raises(ConfigError):
            QuadSpec(abs_tol=0.0)
        with pytest.raises(ConfigError):
            integrate_semi_infinite(lambda z: z, 0.0, -1.0)


class TestOutageQuadrature:
    @pytest.mark.parametrize("mode", ["ipSIC", "pSIC"])
    def test_zero_rates(self, mode):
        cfg = table_config(rates=(0.0, 0.0, 0.0, 0.0))
        assert quad(cfg, "x1", mode) == 0.0
        assert quad(cfg, "x2", mode) == 0.0

    def test_infeasible_split_gives_certain_outage(self):
        cfg = table_config(b=(0.001, 0.999, 0.001, 0.999), varpi2=0.5)
        assert quad(cfg, "x1") == 1.0

    def test_single_term_case_matches_analytic_form(self):
        # without cross-pair leakage and with perfect cancellation the relay
        # stage has the analytic value e^(-beta/om_l) * lam*om_l/(lam*om_l + beta)
        cfg = table_config(varpi1=0.0)
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
        assert quad(cfg0, "x1", "pSIC") == pytest.approx(expected, abs=1e-10)

    def test_weak_signal_user_stages_are_exact_exponentials(self):
        # zero weak-signal rate collapses both user stages to probability one
        cfg = table_config(rates=(0.1, 0.0, 0.1, 0.0))
        closed = closed_outage(cfg, "x2", "ipSIC")
        assert quad(cfg, "x2") == pytest.approx(closed, rel=1e-8)

    @pytest.mark.parametrize("mode", ["ipSIC", "pSIC"])
    @pytest.mark.parametrize("rho_db", [0.0, 10.0, 30.0, 50.0])
    def test_agreement_with_closed_forms(self, mode, rho_db):
        cfg = table_config(rho_db=rho_db)
        assert quad(cfg, "x1", mode) == pytest.approx(closed_outage(cfg, "x1", mode), rel=1e-6)
        assert quad(cfg, "x2", mode) == pytest.approx(closed_outage(cfg, "x2", mode), rel=1e-6)

    @pytest.mark.parametrize(
        "mode, golden_xl, golden_xt",
        [
            ("ipSIC", GOLDEN_XL_IPSIC_30DB, GOLDEN_XT_IPSIC_30DB),
            ("pSIC", GOLDEN_XL_PSIC_30DB, GOLDEN_XT_PSIC_30DB),
        ],
        ids=["ipSIC", "pSIC"],
    )
    def test_matches_frozen_golden_values(self, mode, golden_xl, golden_xt):
        cfg = table_config()
        assert quad(cfg, "x1", mode) == pytest.approx(golden_xl, rel=1e-12)
        assert quad(cfg, "x2", mode) == pytest.approx(golden_xt, rel=1e-12)

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
        )
        value = quad(cfg, "x1", "pSIC", QuadSpec(abs_tol=1e-13, rel_tol=1e-11))
        assert value == pytest.approx(closed_outage(cfg, "x1", "pSIC"), rel=1e-9)

    def test_out_of_range_value_raises(self, monkeypatch):
        assert oracle._finish(-1e-13) == 0.0
        assert oracle._finish(1.0 + 1e-13) == 1.0
        # integrals three times too large drive the outage far below 0
        true_integrals = oracle.integrate_batch
        monkeypatch.setattr(oracle, "integrate_batch", lambda *args: 3.0 * true_integrals(*args))
        with pytest.raises(OracleError, match="clamp gate"):
            quad(table_config(), "x1")

    def test_degenerate_rate_continuity(self):
        base = quad(table_config(varpi1=0.01), "x1")
        for nudge in (1 - 1e-6, 1 + 1e-6):
            moved = quad(table_config(varpi1=0.01 * nudge), "x1")
            assert abs(moved - base) < 1e-6


TIGHT = QuadSpec(abs_tol=1e-13, rel_tol=1e-11)


def laplace_integrand(rate_sets, s):
    # hypoexp_pdf(rates_i) * exp(-s_i z) for member i, whose integral is prod(lam / (lam + s_i))
    spec = HypoexpSpec(*rate_sets)
    s = np.array(s)
    return lambda z, owner: hypoexp_pdf(spec, z, owner) * np.exp(-s[owner, None] * z)


class TestBatchedIntegrator:
    RATE_SETS = [(2e5, 500.0, 5.0), (1.0, 2.0, 3.0), (0.5, 0.5, 50.0), (1.0, 1.0, 1.0), (3.0, 7.0, 7.0 * (1 + 1e-9))]
    S = [0.01, 0.3, 5.0, 400.0, 2.0]

    def test_members_equal_their_lone_integrals(self):
        scales = [oracle._decay_scale(rates, s) for rates, s in zip(self.RATE_SETS, self.S)]
        batched = integrate_batch(laplace_integrand(self.RATE_SETS, self.S), [0.0] * 5, scales, TIGHT)
        for i, (rates, s, scale) in enumerate(zip(self.RATE_SETS, self.S, scales)):
            spec = HypoexpSpec(rates)
            alone = integrate_semi_infinite(lambda z: hypoexp_pdf(spec, z) * np.exp(-s * z), 0.0, scale, TIGHT)
            assert batched[i] == alone, rates
            assert alone == pytest.approx(math.prod(r / (r + s) for r in rates), rel=1e-11)

    @pytest.mark.parametrize("seed", [6, 8])
    def test_deep_members_equal_their_lone_integrals(self, seed):
        # mismatched scales drive some integrals past depth 2 with an odd
        # number of open panels, where a BLAS row sum rounds by row position
        rng = np.random.default_rng(seed)
        rate_sets = [tuple(10.0 ** rng.uniform(-1.0, 3.0, size=3)) for _ in range(24)]
        weights = list(10.0 ** rng.uniform(-2.0, 2.0, size=24))
        scales = [oracle._decay_scale(r, s) * 10.0 ** rng.uniform(-1.5, 1.5) for r, s in zip(rate_sets, weights)]
        batched = integrate_batch(laplace_integrand(rate_sets, weights), [0.0] * 24, scales, TIGHT)
        for rates, s, scale, value in zip(rate_sets, weights, scales, batched):
            spec = HypoexpSpec(rates)
            alone = integrate_semi_infinite(lambda z: hypoexp_pdf(spec, z) * np.exp(-s * z), 0.0, scale, TIGHT)
            assert value == alone, rates
            assert alone == pytest.approx(math.prod(r / (r + s) for r in rates), rel=1e-10)

    def test_batch_density_equals_member_density(self):
        z = np.linspace(0.0, 3.0, 45).reshape(3, 15)
        owner = np.array([2, 0, 3])
        values = hypoexp_pdf(HypoexpSpec(*self.RATE_SETS), z, owner)
        for row, member in enumerate(owner):
            assert np.array_equal(values[row], hypoexp_pdf(HypoexpSpec(self.RATE_SETS[member]), z[row]))

    def test_batch_needs_equal_rate_counts(self):
        with pytest.raises(ConfigError):
            HypoexpSpec((1.0,), (1.0, 2.0))
        with pytest.raises(ConfigError):
            HypoexpSpec()

    def test_three_rate_series_follows_the_given_rate_order(self):
        # the oracle passes its interference rates unsorted; a series built
        # from the sorted rates (0.02, 0.05, 0.5) moves every value below by one ulp
        z = np.array([0.105, 0.222, 0.297, 0.368])
        frozen = [2.701986769725974e-06, 1.1815600159035373e-05, 2.0853313317436654e-05, 3.15952241043218e-05]
        assert hypoexp_pdf(HypoexpSpec((0.5, 0.02, 0.05)), z).tolist() == frozen

    def test_each_integral_keeps_its_own_budget(self, monkeypatch):
        # exp(-z) on its natural scale converges at depth 2 (56 panels); the
        # mismatched 50 exp(-50 z) needs more, and only it is named
        easy, hard = (1.0, 1.0), (50.0, 10.0)
        rates, scales = np.array([easy[0], hard[0]]), [easy[1], hard[1]]

        def integrand(z, owner):
            return rates[owner, None] * np.exp(-rates[owner, None] * z)

        monkeypatch.setattr(oracle, "_MAX_PANELS", 56)
        starved = QuadSpec(abs_tol=1e-12, rel_tol=1e-12)
        assert integrate_batch(integrand, [0.0], [1.0], starved)[0] == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(OracleError, match=r"^quadrature of the test integral did not converge .* \(lower=0, scale=10,"):
            integrate_batch(integrand, [0.0, 0.0], scales, starved, "test")

    def test_members_converging_at_depths_two_to_four_equal_their_lone_integrals(self):
        # under TIGHT, rate exp(-rate z) on scale 1 converges at depth 2, 3 and 4
        # for rates 1, 0.5 and 0.2: one integrand call at depth 0, then one per depth from 2
        rates = np.array([1.0, 0.5, 0.2])
        rows = []

        def integrand(z, owner):
            rows.append(np.bincount(owner, minlength=rates.size).tolist())
            return rates[owner, None] * np.exp(-rates[owner, None] * z)

        batched = integrate_batch(integrand, [0.0] * 3, [1.0] * 3, TIGHT)
        assert rows == [[8, 8, 8], [32, 32, 32], [0, 2, 4], [0, 0, 2]]
        # no call evaluates the depth-1 level of 16 panels per member
        assert [16] * 3 not in rows
        for member, depth in enumerate((2, 3, 4)):
            calls = []
            rate = rates[member]
            alone = integrate_semi_infinite(lambda z: calls.append(z.size) or rate * np.exp(-rate * z), 0.0, 1.0, TIGHT)
            assert batched[member] == alone and len(calls) == depth
            assert alone == pytest.approx(1.0, rel=1e-11)

    def test_bad_scale_in_a_batch_rejected(self):
        with pytest.raises(ConfigError):
            integrate_batch(lambda z, owner: z, [0.0, 0.0], [1.0, math.nan])


def mixed_cases():
    """Distinct-rate and near-coincident scenarios, no cross-pair leakage, an
    infeasible split and zero rates, under both SIC modes and both signals."""
    rng = np.random.default_rng(5)
    configs = [random_valid_config(rng), random_valid_config(rng, force_degenerate=True), random_valid_config(rng)]
    configs += [
        table_config(varpi1=0.0),
        table_config(b=(0.001, 0.999, 0.001, 0.999), varpi2=0.5),
        table_config(rates=(0.0, 0.0, 0.0, 0.0)),
        table_config(rates=(0.1, 0.0, 0.1, 0.0)),
        table_config(),
    ]
    return [
        (config, signal, mode)
        for config in configs for mode in ("ipSIC", "pSIC") for signal in ("x1", "x2", "x3", "x4")
    ]


class TestBatchedOutages:
    @pytest.mark.parametrize("spec", [QuadSpec(), TIGHT], ids=["default", "tight"])
    def test_mixed_batch_equals_batches_of_one(self, spec):
        cases = mixed_cases()
        assert len(cases) > oracle._GROUP  # crosses a group boundary
        batched = quad_outages(cases, spec)
        alone = [quad_outages([case], spec)[0] for case in cases]
        assert batched == alone
        assert {1.0, 0.0} <= set(batched)

    def test_errors_name_the_failing_member(self, monkeypatch):
        # at this tolerance a 56-panel budget suffices for the relay integral
        # at varpi1 = 0.1 or 0.5 but not at 0.01
        monkeypatch.setattr(oracle, "_MAX_PANELS", 56)
        starved = QuadSpec(abs_tol=1e-15, rel_tol=1e-13)
        configs = [table_config(varpi1=v) for v in (0.1, 0.01, 0.5)]
        passing = [(configs[0], "x1", "pSIC"), (configs[2], "x1", "pSIC")]
        assert quad_outages(passing, starved) == [quad(c, "x1", "pSIC", starved) for c, _, _ in passing]
        dc = build_derived_constants(configs[1], GROUP_ONE)
        scale = oracle._decay_scale(dc.lam, dc.beta_l / configs[1].omega[0])
        with pytest.raises(OracleError, match=rf"^quadrature of the relay integral .* \(lower=0, scale={scale:.6g},"):
            quad_outages([(c, "x1", "pSIC") for c in configs], starved)

    @pytest.mark.parametrize(
        "seed, signal, mode, kind", [(0, "x1", "ipSIC", "near user"), (1, "x2", "pSIC", "relay pair")]
    )
    def test_errors_name_the_failing_member_of_a_mixed_pass(self, monkeypatch, seed, signal, mode, kind):
        # within this budget the relay, near-user and relay-pair integrals of
        # varpi1 = 0.1 and 0.5 converge; the drawn scenario's residual near-user
        # (seed 0) or relay-pair (seed 1) integral does not
        monkeypatch.setattr(oracle, "_MAX_PANELS", 56)
        starved = QuadSpec(abs_tol=1e-15, rel_tol=1e-13)
        passing = [(table_config(varpi1=v), s, "pSIC") for v in (0.1, 0.5) for s in ("x1", "x2")]
        assert quad_outages(passing, starved) == [quad(*case, starved) for case in passing]
        failing = random_valid_config(np.random.default_rng(seed))
        dc = build_derived_constants(failing, GROUP_ONE)
        if kind == "near user":
            lower, scale = dc.theta_l, failing.omega[2]
        else:
            lower, scale = 0.0, oracle._decay_scale(dc.lam_p, dc.beta_l / failing.omega[0] + dc.beta_t * dc.varphi_t)
        passes = []
        true_integrals = oracle.integrate_batch
        monkeypatch.setattr(oracle, "integrate_batch", lambda *args: passes.append(args[4]) or true_integrals(*args))
        with pytest.raises(OracleError, match=rf"^quadrature of the {kind} integral .* \(lower={lower:.6g}, scale={scale:.6g},"):
            quad_outages(passing + [(failing, signal, mode)], starved)
        # one pass, in which the failing integral follows converging ones of other kinds
        assert len(passes) == 1 and passes[0][0] == "relay" and {"near user", "relay pair"} <= set(passes[0])

    @pytest.mark.parametrize("group", [1, 5])
    def test_values_do_not_depend_on_the_passes(self, monkeypatch, group):
        cases = mixed_cases()
        default = quad_outages(cases, TIGHT)
        monkeypatch.setattr(oracle, "_GROUP", group)
        assert quad_outages(cases, TIGHT) == default

    def test_agreement_memory_does_not_grow_with_the_scenarios(self):
        oracle_agreement(n_configs=8)  # one-off allocations, outside the measured runs
        peaks = []
        tracemalloc.start()
        try:
            for n_configs in (40, 160):
                tracemalloc.reset_peak()
                oracle_agreement(n_configs=n_configs)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

    def test_integrals_per_call_never_exceed_the_group(self, monkeypatch):
        widths = []
        true_integrals = oracle.integrate_batch

        def spied(fn, lower, scale, *args):
            def integrand(z, owner):
                widths.append(np.unique(owner).size)
                return fn(z, owner)

            return true_integrals(integrand, lower, scale, *args)

        monkeypatch.setattr(oracle, "integrate_batch", spied)
        oracle_agreement(n_configs=200)
        assert 1 < max(widths) <= oracle._GROUP
        widths.clear()
        rng = np.random.default_rng(9)
        cases = [(random_valid_config(rng), "x1", "ipSIC") for _ in range(3 * oracle._GROUP)]
        quad_outages(cases)
        assert max(widths) == oracle._GROUP
