"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per criterion.
"""

import math
import time
from dataclasses import replace

from twrnoma.analysis import (
    HypoexpSpec,
    asymptotic_outage,
    closed_outage,
    diversity_order_estimate,
    hypoexp_pdf,
)
from twrnoma.experiments import (
    SweepSpec,
    crossover_snr_db,
    oracle_agreement,
    run_sweep,
    throughput_rows,
)
from twrnoma.model import SIC_MODES, SystemConfig
from twrnoma.montecarlo import mc_outage
from twrnoma.oracle import integrate_semi_infinite

SEED = 2024

RHO_GRID_DB = (0.0, 10.0, 20.0, 30.0, 40.0)
IS_LEVELS = (0.0, 0.01, 0.1)
RESIDUAL_DB = (-20.0, -10.0)


def table_config(**overrides):
    overrides.setdefault("rho_db", 30.0)
    return SystemConfig(**overrides)


def report(number: int, name: str, outcome: str = "PASS") -> None:
    print(f"\n[acceptance] criterion {number} ({name}): {outcome}")


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    result = oracle_agreement(n_configs=200, seed=20240)
    elapsed = time.monotonic() - start
    try:
        assert result.checked == 200
        assert result.max_rel_err_distinct <= 1e-6
        assert result.max_rel_err_degenerate <= 1e-5
        assert elapsed < 60.0
    except AssertionError:
        report(1, "oracle equivalence", "FAIL")
        raise
    report(1, f"oracle equivalence: distinct {result.max_rel_err_distinct:.2e}, "
              f"near-degenerate {result.max_rel_err_degenerate:.2e}, {elapsed:.1f}s")


# the stronger and the weaker signal of the first pair
SIGNAL = {"l": "x1", "t": "x2"}


def _closed(config, kind, mode="ipSIC"):
    return closed_outage(config, SIGNAL[kind], mode)


def test_criterion_2_monte_carlo_agreement():
    trials = 10**6
    start = time.monotonic()
    worst = 0.0
    try:
        for rho_db in RHO_GRID_DB:
            for level in IS_LEVELS:
                for omega_i_db in RESIDUAL_DB:
                    cell = table_config(rho_db=rho_db, varpi1=level, varpi2=level, omega_i_db=omega_i_db)
                    estimates = mc_outage(cell, ("x1", "x2"), SIC_MODES, trials=trials, seed=SEED)
                    for mode in SIC_MODES:
                        for kind, signal in (("l", "x1"), ("t", "x2")):
                            p = _closed(cell, kind, mode)
                            estimate = estimates[(signal, mode)]
                            sigma = math.sqrt(p * (1.0 - p) / trials)
                            pull = abs(estimate.p_hat - p) / sigma if sigma > 0 else 0.0
                            worst = max(worst, pull)
                            assert abs(estimate.p_hat - p) <= 3.0 * sigma, (
                                f"cell rho={rho_db} varpi={level} omega_i={omega_i_db} "
                                f"{mode} x_{kind}: mc={estimate.p_hat} closed={p} pull={pull:.2f}"
                            )
        elapsed = time.monotonic() - start
        assert elapsed < 300.0
    except AssertionError:
        report(2, "Monte Carlo agreement", "FAIL")
        raise
    report(2, f"Monte Carlo agreement: worst pull {worst:.2f} sigma over 120 cells, {elapsed:.0f}s")


def test_criterion_3_error_floor():
    try:
        for mode in ("ipSIC", "pSIC"):
            for kind in ("l", "t"):
                def curve(rho_db, mode=mode, kind=kind):
                    return _closed(table_config(rho_db=rho_db), kind, mode)

                slope = diversity_order_estimate(curve, 50.0, 60.0)
                assert abs(slope) < 0.05, f"{mode} x_{kind}: slope {slope}"

                cfg = table_config(rho_db=60.0)
                exact = _closed(cfg, kind, mode)
                floor = asymptotic_outage(cfg, SIGNAL[kind], mode)
                assert abs(exact - floor) / exact < 0.02, f"{mode} x_{kind}: gap {(exact-floor)/exact}"
    except AssertionError:
        report(3, "error floor", "FAIL")
        raise
    report(3, "error floor: |slope| < 0.05 and floor gap < 2% at 60 dB, all modes/signals")


def test_criterion_4_sic_ordering():
    try:
        for rho_db in RHO_GRID_DB:
            for level in IS_LEVELS:
                for omega_i_db in RESIDUAL_DB:
                    for kind in ("l", "t"):
                        cfg = table_config(rho_db=rho_db, varpi1=level, varpi2=level, omega_i_db=omega_i_db)
                        ip = _closed(cfg, kind, "ipSIC")
                        p = _closed(cfg, kind, "pSIC")
                        assert p <= ip + 1e-15
                        if ip > 1e-3:
                            assert p < ip
    except AssertionError:
        report(4, "SIC ordering", "FAIL")
        raise
    report(4, "SIC ordering: perfect cancellation never worse, strictly better above 1e-3")


def test_criterion_5_low_snr_crossover():
    cfg = table_config()
    try:
        spec = SweepSpec(config=cfg, rho_min_db=0.0, rho_max_db=45.0, rho_step_db=2.5,
                         methods=("closed", "oma"), signals=("x1",), sic_modes=("ipSIC", "pSIC"))
        rows = run_sweep(spec).rows()
        values = {(r.rho_db, r.sic_mode, r.method): r.value for r in rows}
        crossings = {}
        for mode in ("ipSIC", "pSIC"):
            assert values[(0.0, mode, "closed")] < values[(0.0, mode, "oma")], "low end"
            assert values[(45.0, mode, "closed")] > values[(45.0, mode, "oma")], "high end"
            star = crossover_snr_db(cfg, "x1", mode)
            again = crossover_snr_db(cfg, "x1", mode)
            assert star is not None and star == again  # deterministic report
            assert 0.0 < star < 45.0
            crossings[mode] = star
    except AssertionError:
        report(5, "low-SNR crossover vs TDMA baseline", "FAIL")
        raise
    report(5, "low-SNR crossover vs TDMA baseline: "
              + ", ".join(f"{mode} at {star:.2f} dB" for mode, star in crossings.items()))


def _closed_throughput(config, mode="ipSIC"):
    spec = SweepSpec(config=config, rho_min_db=config.rho_db, rho_max_db=config.rho_db,
                     rho_step_db=1.0, methods=("closed",), sic_modes=(mode,))
    return throughput_rows(spec).rows()[0].value


def test_criterion_6_throughput_ceiling():
    try:
        cfg = table_config(omega_i_db=-10.0)

        def throughput(rho_db):
            return _closed_throughput(replace(cfg, rho_db=rho_db))

        t50, t60 = throughput(50.0), throughput(60.0)
        assert t60 - t50 < 0.005, f"ceiling gap {t60 - t50}"
        for rho_db in (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0):
            for mode in ("ipSIC", "pSIC"):
                value = _closed_throughput(table_config(rho_db=rho_db), mode)
                assert 0.0 <= value <= 0.22 + 1e-12
    except AssertionError:
        report(6, "throughput ceiling", "FAIL")
        raise
    report(6, f"throughput ceiling: gain 50->60 dB = {t60 - t50:.2e} BPCU, bounded by 0.22")


def test_criterion_7_property_suite():
    try:
        # density normalization, including reduced and coincident-rate sets
        for rates in ((2.0,), (1.0, 2.0), (1.0, 2.0, 3.0), (1.0, 1.0), (1.0, 1.0, 1.0), (0.5, 0.5, 50.0)):
            spec = HypoexpSpec(rates)
            mean = sum(1.0 / r for r in rates)
            total = integrate_semi_infinite(lambda z: hypoexp_pdf(spec, z), 0.0, mean)
            assert abs(total - 1.0) <= 1e-8, f"normalization of {rates}: {total}"

        # outage monotone non-increasing in SNR
        for mode in ("ipSIC", "pSIC"):
            for kind in ("l", "t"):
                values = [_closed(table_config(rho_db=db), kind, mode)
                          for db in (0, 5, 10, 15, 20, 25, 30, 35, 40, 50, 60)]
                assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

        # zero rates -> zero outage
        quiet = table_config(rates=(0.0, 0.0, 0.0, 0.0))
        assert _closed(quiet, "l") == 0.0 and _closed(quiet, "t") == 0.0

        # infeasible split -> outage exactly one
        blocked = table_config(b=(0.001, 0.999, 0.001, 0.999), varpi2=0.5)
        assert _closed(blocked, "l") == 1.0

        # seeded estimates identical for any worker count
        cfg = table_config()
        single = mc_outage(cfg, ("x1", "x2"), SIC_MODES, trials=200_000, seed=SEED, workers=1)
        quad_workers = mc_outage(cfg, ("x1", "x2"), SIC_MODES, trials=200_000, seed=SEED, workers=4)
        assert single == quad_workers
    except AssertionError:
        report(7, "property suite", "FAIL")
        raise
    report(7, "property suite: normalization, monotonicity, zero-rate, infeasibility, reproducibility")
