import math
from dataclasses import replace

import pytest

from twrnoma.model import (
    GROUP_ONE,
    GROUP_TWO,
    UPLINK,
    ChannelSample,
    RandomStream,
    SystemConfig,
    slot_sample,
    unit_rows,
)
from twrnoma.sinr import relay_sinrs, user_sinrs

NAMES = ("relay_strong", "relay_weak", "user_cross", "user_own", "far_user")


def config(**overrides):
    return SystemConfig(rho_db=10.0, **overrides)


def both_stages(cfg, roles, sample, mode="ipSIC"):
    """The five SINRs of both stages on one sample under SIC ``mode``, by name."""
    strong, weak = relay_sinrs(cfg, roles, sample, (mode,))
    values = (strong, weak[mode]) + user_sinrs(cfg, roles, sample, mode)
    return dict(zip(NAMES, values))


class TestHandWorkedPoints:
    def test_relay_strong_decode(self):
        cfg = replace(
            config(varpi1=0.01),
            omega=(1.0, 1.0, 1.0, 1.0),  # gains supplied explicitly below
        )
        sample = ChannelSample(0.5, 0.2, 0.1, 0.1, 0.0)
        out = both_stages(cfg, GROUP_ONE, sample)
        # (10*0.5*0.8) / (10*0.2*0.2 + 10*0.01*(0.1*0.8 + 0.1*0.2) + 1) = 4/1.41
        assert out["relay_strong"] == pytest.approx(4.0 / 1.41, rel=1e-12)
        assert out["relay_strong"] == pytest.approx(2.83688, abs=1e-5)

    def test_near_user_pre_cancellation(self):
        cfg = config(varpi2=0.01)
        sample = ChannelSample(1.0, 1.0, 1.0, 1.0, 0.0)
        out = both_stages(cfg, GROUP_ONE, sample)
        # 10*1*0.8 / (10*1*0.2 + 10*0.01*1 + 1) = 8/3.1
        assert out["user_cross"] == pytest.approx(8.0 / 3.1, rel=1e-12)
        assert out["user_cross"] == pytest.approx(2.58065, abs=1e-5)

    def test_perfect_cancellation_removes_residual(self):
        cfg = config(varpi2=0.0)
        sample = ChannelSample(1.0, 1.0, 1.0, 1.0, 123.0)
        out = both_stages(cfg, GROUP_ONE, sample, "pSIC")
        assert out["user_own"] == pytest.approx(2.0, rel=1e-12)  # 10*0.2/1

    def test_role_symmetry_under_symmetric_pairs(self):
        cfg = config(varpi1=1.0)
        sample = ChannelSample(0.3, 0.3, 0.3, 0.3, 0.0)
        one = both_stages(cfg, GROUP_ONE, sample)
        two = both_stages(cfg, GROUP_TWO, sample)
        assert one["relay_strong"] == pytest.approx(two["relay_strong"], rel=1e-14)


class TestProperties:
    def sample(self, seed=0):
        block = slot_sample(config(), unit_rows(RandomStream(seed), 1), "ipSIC", UPLINK)
        return ChannelSample(*(float(g[0]) for g in (block.g1, block.g2, block.g3, block.g4, block.gI)))

    def test_all_fields_nonnegative(self):
        out = both_stages(config(), GROUP_ONE, self.sample())
        for value in (out["relay_strong"], out["relay_weak"], out["user_cross"], out["user_own"], out["far_user"]):
            assert value >= 0.0 and math.isfinite(value)

    @pytest.mark.parametrize("seed", range(5))
    def test_strictly_increasing_in_snr(self, seed):
        sample = self.sample(seed)
        low = both_stages(config(), GROUP_ONE, sample)
        high = both_stages(replace(config(), rho_db=13.0103), GROUP_ONE, sample)
        for name in NAMES:
            assert high[name] > low[name]

    def test_interference_limited_ceiling(self):
        sample = ChannelSample(0.5, 0.2, 0.1, 0.1, 0.0)
        cfg = replace(config(), rho_db=60.0)  # rho = 1e6
        huge = both_stages(cfg, GROUP_ONE, sample)
        a, w1 = cfg.a, cfg.varpi1
        # same ratio with the unit noise term dropped
        limit = (sample.g1 * a[0]) / (
            sample.g2 * a[1] + w1 * (sample.g3 * a[2] + sample.g4 * a[3])
        )
        assert huge["relay_strong"] <= limit
        assert abs(huge["relay_strong"] - limit) / limit < 1e-4

    def test_residual_only_hurts(self):
        sample = ChannelSample(0.5, 0.2, 0.3, 0.05, 0.7)
        ip = both_stages(config(), GROUP_ONE, sample, "ipSIC")
        p = both_stages(config(), GROUP_ONE, sample, "pSIC")
        assert ip["relay_weak"] < p["relay_weak"]
        assert ip["user_own"] < p["user_own"]
        clean = ChannelSample(0.5, 0.2, 0.3, 0.05, 0.0)
        ip0 = both_stages(config(), GROUP_ONE, clean, "ipSIC")
        p0 = both_stages(config(), GROUP_ONE, clean, "pSIC")
        assert ip0 == p0

    def test_batch_matches_scalar(self):
        cfg = config()
        block = slot_sample(cfg, unit_rows(RandomStream(8), 64), "ipSIC", UPLINK)
        batched = both_stages(cfg, GROUP_ONE, block)
        for i in range(64):
            single = ChannelSample(
                float(block.g1[i]), float(block.g2[i]), float(block.g3[i]),
                float(block.g4[i]), float(block.gI[i]),
            )
            out = both_stages(cfg, GROUP_ONE, single)
            assert float(batched["relay_strong"][i]) == pytest.approx(out["relay_strong"], rel=1e-15)
            assert float(batched["far_user"][i]) == pytest.approx(out["far_user"], rel=1e-15)

    def test_denominators_bounded_by_noise_term(self):
        # even with zero gains every ratio stays defined (denominator >= 1)
        cfg = config()
        zero = ChannelSample(0.0, 0.0, 0.0, 0.0, 0.0)
        out = both_stages(cfg, GROUP_ONE, zero)
        assert out == both_stages(cfg, GROUP_ONE, zero)
        for name in NAMES:
            assert out[name] == 0.0
