import math
from dataclasses import replace

import numpy as np
import pytest

from twrnoma.experiments import random_valid_config
from twrnoma.model import (
    DOWNLINK,
    GROUP_ONE,
    GROUP_TWO,
    SIC_MODES,
    UPLINK,
    SystemConfig,
    signal_roles,
    sinr_threshold,
    unit_rows,
)
from twrnoma.sinr import event_sinr, event_table

from test_model import philox
from test_montecarlo import domain_corner_config

NAMES = ("relay_strong", "relay_weak", "user_cross", "user_own", "far_user")
SIGNALS = ("x1", "x2", "x3", "x4")


def config(**overrides):
    return SystemConfig(rho_db=10.0, **overrides)


def unit_config(**overrides):
    """``config`` with unit variances, the residual's too, so unit rows are the power gains themselves."""
    return config(omega=(1.0, 1.0, 1.0, 1.0), omega_i_db=0.0, **overrides)


def slot_rows(gains, mode):
    """Both slots' unit rows in ``model.UNIT_ROWS``' layout, each slot holding ``gains`` (g1..g4, gI)."""
    return list(gains) * 2 if mode == "ipSIC" else list(gains[:4]) * 2


def both_stages(cfg, roles, gains, mode="ipSIC"):
    """The five SINRs of both stages under SIC ``mode``, by name, from the event table."""
    table = event_table(cfg)
    strong, cross, own = table[(f"x{roles.l}", mode)]
    _, weak, _, far = table[(f"x{roles.t}", mode)]
    rows = slot_rows(gains, mode)
    return {name: event_sinr(event, cfg.rho, rows) for name, event in zip(NAMES, (strong, weak, cross, own, far))}


class TestHandWorkedPoints:
    def test_relay_strong_decode(self):
        out = both_stages(unit_config(varpi1=0.01), GROUP_ONE, (0.5, 0.2, 0.1, 0.1, 0.0))
        # (10*0.5*0.8) / (10*0.2*0.2 + 10*0.01*(0.1*0.8 + 0.1*0.2) + 1) = 4/1.41
        assert out["relay_strong"] == pytest.approx(4.0 / 1.41, rel=1e-12)
        assert out["relay_strong"] == pytest.approx(2.83688, abs=1e-5)

    def test_near_user_pre_cancellation(self):
        out = both_stages(unit_config(varpi2=0.01), GROUP_ONE, (1.0, 1.0, 1.0, 1.0, 0.0))
        # 10*1*0.8 / (10*1*0.2 + 10*0.01*1 + 1) = 8/3.1
        assert out["user_cross"] == pytest.approx(8.0 / 3.1, rel=1e-12)
        assert out["user_cross"] == pytest.approx(2.58065, abs=1e-5)

    def test_perfect_cancellation_removes_residual(self):
        out = both_stages(unit_config(varpi2=0.0), GROUP_ONE, (1.0, 1.0, 1.0, 1.0, 123.0), "pSIC")
        assert out["user_own"] == pytest.approx(2.0, rel=1e-12)  # 10*0.2/1

    def test_role_symmetry_under_symmetric_pairs(self):
        cfg = unit_config(varpi1=1.0)
        one = both_stages(cfg, GROUP_ONE, (0.3, 0.3, 0.3, 0.3, 0.0))
        two = both_stages(cfg, GROUP_TWO, (0.3, 0.3, 0.3, 0.3, 0.0))
        assert one["relay_strong"] == pytest.approx(two["relay_strong"], rel=1e-14)


class TestProperties:
    def gains(self, seed=0):
        """One draw's power gains g1..g4, gI on the default scenario."""
        cfg = config()
        rows = unit_rows(philox(seed), 1)
        return tuple(float(v * row[0]) for v, row in zip(cfg.omega + (cfg.omega_i,), rows))

    def test_all_fields_nonnegative(self):
        out = both_stages(unit_config(), GROUP_ONE, self.gains())
        for value in out.values():
            assert value >= 0.0 and math.isfinite(value)

    @pytest.mark.parametrize("seed", range(5))
    def test_strictly_increasing_in_snr(self, seed):
        gains = self.gains(seed)
        low = both_stages(unit_config(), GROUP_ONE, gains)
        high = both_stages(replace(unit_config(), rho_db=13.0103), GROUP_ONE, gains)
        for name in NAMES:
            assert high[name] > low[name]

    def test_interference_limited_ceiling(self):
        g1, g2, g3, g4 = 0.5, 0.2, 0.1, 0.1
        cfg = replace(unit_config(), rho_db=60.0)  # rho = 1e6
        huge = both_stages(cfg, GROUP_ONE, (g1, g2, g3, g4, 0.0))
        a, w1 = cfg.a, cfg.varpi1
        # same ratio with the unit noise term dropped
        limit = (g1 * a[0]) / (g2 * a[1] + w1 * (g3 * a[2] + g4 * a[3]))
        assert huge["relay_strong"] <= limit
        assert abs(huge["relay_strong"] - limit) / limit < 1e-4

    def test_residual_only_hurts(self):
        gains = (0.5, 0.2, 0.3, 0.05, 0.7)
        ip = both_stages(unit_config(), GROUP_ONE, gains, "ipSIC")
        p = both_stages(unit_config(), GROUP_ONE, gains, "pSIC")
        assert ip["relay_weak"] < p["relay_weak"]
        assert ip["user_own"] < p["user_own"]
        clean = gains[:4] + (0.0,)
        ip0 = both_stages(unit_config(), GROUP_ONE, clean, "ipSIC")
        p0 = both_stages(unit_config(), GROUP_ONE, clean, "pSIC")
        assert ip0 == p0

    def test_batch_matches_scalar(self):
        cfg = config()
        rows = unit_rows(philox(8), 64) + unit_rows(philox(9), 64)
        table = event_table(cfg)
        for event in {event for chain in table.values() for event in chain}:
            batched = event_sinr(event, cfg.rho, rows)
            for i in range(64):
                assert float(batched[i]) == event_sinr(event, cfg.rho, [float(row[i]) for row in rows])

    def test_denominators_bounded_by_noise_term(self):
        # even with zero gains every ratio stays defined (denominator >= 1)
        zero = (0.0, 0.0, 0.0, 0.0, 0.0)
        out = both_stages(unit_config(), GROUP_ONE, zero)
        assert out == both_stages(unit_config(), GROUP_ONE, zero)
        for name in NAMES:
            assert out[name] == 0.0


# (slot, the signal it decodes) of each event of an x_l and an x_t chain, in table order
CHAINS = {
    "l": ((UPLINK, "l"), (DOWNLINK, "t"), (DOWNLINK, "l")),
    "t": ((UPLINK, "l"), (UPLINK, "t"), (DOWNLINK, "t"), (DOWNLINK, "t")),
}


def table_scenarios():
    rng = np.random.default_rng(2027)
    return [random_valid_config(rng, force_degenerate=k % 5 == 0) for k in range(300)] + [domain_corner_config()]


class TestEventTable:
    """The properties the guard band's proof rests on, on every chain of x1..x4 in both modes."""

    @pytest.fixture(scope="class")
    def tables(self):
        return [(cfg, event_table(cfg)) for cfg in table_scenarios()]

    def test_coefficients_are_signed_for_the_proof(self, tables):
        for _, table in tables:
            for chain in table.values():
                for event in chain:
                    assert event.x > 0.0
                    assert all(c >= 0.0 for _, c in event.y)
                    assert len({row for row, _ in event.y}) == len(event.y)  # one coefficient per row

    def test_rows_stay_in_their_slot(self, tables):
        # ipSIC slots read rows 0-4 and 5-9, X never on the residual rows 4 and 9;
        # pSIC slots read rows 0-3 and 4-7, so no pSIC entry reads a residual row
        for _, table in tables:
            for (_, mode), chain in table.items():
                width = 5 if mode == "ipSIC" else 4
                for event in chain:
                    first = event.slot * width
                    assert first <= event.row < first + 4
                    assert all(first <= row < first + width for row, _ in event.y)

    def test_chains_decode_in_order_at_the_decoded_signals_thresholds(self, tables):
        # x_l lists 3 events and x_t 4; each slot's last event decodes the signal itself
        for cfg, table in tables:
            for signal in SIGNALS:
                roles, kind = signal_roles(signal)
                for mode in SIC_MODES:
                    chain = table[(signal, mode)]
                    for event, (slot, decoded) in zip(chain, CHAINS[kind], strict=True):
                        assert event.slot == slot
                        assert event.gamma == sinr_threshold(cfg.rates[getattr(roles, decoded) - 1])
