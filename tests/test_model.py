import math

import numpy as np
import pytest

from twrnoma.errors import ConfigError
from twrnoma.model import (
    GROUP_ONE,
    GROUP_TWO,
    DOWNLINK,
    UPLINK,
    ChannelSample,
    PairRoles,
    RandomStream,
    SystemConfig,
    build_derived_constants,
    db_to_linear,
    load_config_file,
    omega_from_distances,
    slot_sample,
    unit_rows,
)


def table_config(**overrides):
    return SystemConfig(**overrides)


def single_draw(stream, config):
    """The uplink slot of one fading realization as plain floats, from a size-1 draw."""
    block = slot_sample(config, unit_rows(stream, 1), config.sic_mode, UPLINK)
    gi = None if block.gI is None else float(block.gI[0])
    return ChannelSample(*(float(g[0]) for g in (block.g1, block.g2, block.g3, block.g4)), gi)


class TestSystemConfig:
    def test_defaults_measure_reference_scenario(self):
        cfg = table_config()
        assert cfg.omega == omega_from_distances(2.0, 10.0, 2.0)
        assert cfg.rates == (0.1, 0.01, 0.1, 0.01)

    def test_db_conversions(self):
        cfg = table_config(rho_db=30.0, omega_i_db=-20.0)
        assert cfg.rho == pytest.approx(1000.0)
        assert cfg.omega_i == pytest.approx(0.01)
        assert db_to_linear(0.0) == 1.0

    def test_overflowing_linear_value(self):
        assert db_to_linear(3090.0) == math.inf
        assert table_config(rho_db=3080.0).rho == pytest.approx(1e308)
        with pytest.raises(ConfigError, match="rho_db = 3090 dB overflows in linear units"):
            table_config(rho_db=3090.0)

    @pytest.mark.parametrize("name", ["rho_db", "omega_i_db"])
    @pytest.mark.parametrize("value_db", [-4000.0, -3200.0])  # zero, then a subnormal
    def test_underflowing_linear_value(self, name, value_db):
        with pytest.raises(ConfigError, match=f"{name} = {value_db:g} dB underflows in linear units"):
            table_config(**{name: value_db})
        assert table_config(**{name: -3070.0})  # 1e-307 is a normal float

    def test_epsilon_binary(self):
        assert table_config(sic_mode="ipSIC").epsilon == 1.0
        assert table_config(sic_mode="pSIC").epsilon == 0.0

    @pytest.mark.parametrize(
        "overrides",
        [
            {"b": (0.5, 0.5, 0.2, 0.8)},  # b2 not larger
            {"b": (0.3, 0.8, 0.2, 0.8)},  # b1+b2 != 1
            {"a": (0.0, 0.2, 0.8, 0.2)},  # a out of (0,1)
            {"a": (1.0, 0.2, 0.8, 0.2)},
            {"omega": (0.25, 0.0, 0.25, 0.01)},
            {"varpi1": -0.1},
            {"varpi2": 1.5},
            {"rates": (-0.1, 0.01, 0.1, 0.01)},
            {"sic_mode": "partial"},
            {"rho_db": math.inf},
            {"rho_db": 3090.0},  # 10^309 overflows
            {"omega_i_db": 5000.0},
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ConfigError):
            table_config(**overrides)


class TestPairRoles:
    def test_valid_assignments(self):
        assert GROUP_ONE == PairRoles(1, 2, 3, 4)
        assert GROUP_TWO == PairRoles(3, 4, 1, 2)

    @pytest.mark.parametrize("bad", [(1, 2, 4, 3), (1, 4, 3, 2), (2, 1, 4, 3), (1, 2, 3, 3)])
    def test_invalid_assignments_rejected(self, bad):
        with pytest.raises(ConfigError):
            PairRoles(*bad)


class TestDerivedConstants:
    def test_reference_in_pair_rate_at_zero_db(self):
        # a_t * Omega_t = 0.2 * 0.01 at rho = 1 gives rate 500
        dc = build_derived_constants(table_config(rho_db=0.0), GROUP_ONE)
        assert dc.lam[0] == pytest.approx(500.0)

    def test_threshold_for_rate_tenth(self):
        dc = build_derived_constants(table_config(), GROUP_ONE)
        assert dc.gamma_th[0] == pytest.approx(2**0.2 - 1, abs=1e-12)
        assert dc.gamma_th[0] == pytest.approx(0.148698, abs=1e-6)

    def test_feasibility_flags(self):
        dc = build_derived_constants(table_config(), GROUP_ONE)
        assert dc.feasible_l and dc.feasible_t  # 0.2 > 0.01 * 0.1487

        squeezed = table_config(
            b=(0.001, 0.999, 0.001, 0.999), varpi2=0.5, rates=(0.1, 0.01, 0.1, 0.01)
        )
        dc2 = build_derived_constants(squeezed, GROUP_ONE)
        assert not dc2.feasible_l  # 0.001 < 0.5 * 0.1487
        assert dc2.tau_l is None and dc2.theta_l is None

    def test_zero_rates_always_feasible(self):
        dc = build_derived_constants(table_config(rates=(0.0, 0.0, 0.0, 0.0)), GROUP_ONE)
        assert dc.gamma_th == (0.0, 0.0, 0.0, 0.0)
        assert dc.feasible_l and dc.feasible_t
        assert dc.tau_l == 0.0 and dc.xi_t == 0.0 and dc.theta_l == 0.0

    def test_active_terms_shrink_without_cross_leakage(self):
        dc = build_derived_constants(table_config(varpi1=0.0), GROUP_ONE)
        assert len(dc.lam) == 1
        assert dc.lam_p == ()

    def test_reference_scenario_rates_are_degenerate(self):
        # a_t*Omega_t = 0.002 equals varpi1*a_k*Omega_k = 0.01*0.8*0.25 exactly
        dc = build_derived_constants(table_config(varpi1=0.01), GROUP_ONE)
        assert dc.lam[0] == dc.lam[1]

    def test_theta_is_max_of_thresholds(self):
        dc = build_derived_constants(table_config(), GROUP_ONE)
        assert dc.theta_l == max(dc.tau_l, dc.xi_t)


class TestSampling:
    def test_perfect_cancellation_zeroes_residual(self):
        stream = RandomStream(3)
        for _ in range(16):
            assert single_draw(stream, table_config(sic_mode="pSIC")).gI is None

    def test_block_matches_means_within_three_sigma(self):
        n = 10**6
        block = slot_sample(table_config(), unit_rows(RandomStream(17), n), "ipSIC", UPLINK)
        for gains, omega in ((block.g1, 0.25), (block.g2, 0.01), (block.g3, 0.25), (block.g4, 0.01)):
            sigma = omega / math.sqrt(n)
            assert abs(float(np.mean(gains)) - omega) < 3 * sigma
        assert abs(float(np.mean(block.gI)) - 0.01) < 3 * 0.01 / math.sqrt(n)

    def test_same_seed_bit_identical(self):
        cfg = table_config()
        a = slot_sample(cfg, unit_rows(RandomStream(5), 1000), "ipSIC", UPLINK)
        b = slot_sample(cfg, unit_rows(RandomStream(5), 1000), "ipSIC", UPLINK)
        assert np.array_equal(a.g1, b.g1) and np.array_equal(a.gI, b.gI)
        s1 = single_draw(RandomStream(5), cfg)
        s2 = single_draw(RandomStream(5), cfg)
        assert s1 == s2

    def test_slots_read_the_unit_row_layout(self):
        # a scaled unit row equals an exponential draw with that variance;
        # ipSIC slots read rows 0-4 and 5-9, pSIC slots rows 0-3 and 4-7
        cfg = table_config()
        stream = RandomStream(5)
        rows = unit_rows(stream, 1000) + unit_rows(stream, 1000)
        rng = RandomStream(5).generator
        direct = [rng.exponential(om, size=1000) for om in (cfg.omega + (cfg.omega_i,)) * 2]
        ipsic = [slot_sample(cfg, rows, "ipSIC", slot) for slot in (UPLINK, DOWNLINK)]
        scaled = [g for s in ipsic for g in (s.g1, s.g2, s.g3, s.g4, s.gI)]
        assert all(np.array_equal(a, b) for a, b in zip(scaled, direct, strict=True))
        psic = [slot_sample(cfg, rows, "pSIC", slot) for slot in (UPLINK, DOWNLINK)]
        scaled = [g for s in psic for g in (s.g1, s.g2, s.g3, s.g4)]
        expected = [om * row for om, row in zip(cfg.omega * 2, rows[:8])]
        assert all(np.array_equal(a, b) for a, b in zip(scaled, expected, strict=True))
        assert psic[0].gI is None and psic[1].gI is None

    def test_unit_rows_into_a_buffer_equal_fresh_draws(self):
        fresh = unit_rows(RandomStream(5), 1000)
        buffer = np.full((5, 1500), -1.0)
        rows = unit_rows(RandomStream(5), 1000, list(buffer))
        assert all(np.array_equal(a, b) for a, b in zip(rows, fresh, strict=True))
        assert all(np.shares_memory(row, line) for row, line in zip(rows, buffer))
        assert (buffer[:, 1000:] == -1.0).all()

    def test_substreams_differ_and_are_reconstructible(self):
        root = RandomStream(5)
        a = single_draw(root.substream(0), table_config())
        b = single_draw(root.substream(1), table_config())
        assert a != b
        again = single_draw(RandomStream(5).substream(1), table_config())
        assert b == again


class TestConfigFile:
    def write(self, tmp_path, text):
        path = tmp_path / "scenario.cfg"
        path.write_text(text, encoding="utf-8")
        return path

    def test_round_trip(self, tmp_path):
        path = self.write(
            tmp_path,
            "rho_db = 25\n"
            "a1=0.8\na2=0.2\na3=0.8\na4=0.2\n"
            "b1=0.2\nb2=0.8\nb3=0.2\nb4=0.8\n"
            "d1=2\nd2=10\nalpha=2\n"
            "omega_i_db=-20\nvarpi1=0.01\nvarpi2=0.01\n"
            "r1=0.1\nr2=0.01\nr3=0.1\nr4=0.01\n"
            "sic_mode=ipSIC\ntrials=50000\nseed=9\n",
        )
        config, settings = load_config_file(path)
        assert config == SystemConfig(rho_db=25.0)
        assert settings.trials == 50000 and settings.seed == 9

    def test_negative_seed_rejected(self, tmp_path):
        assert load_config_file(self.write(tmp_path, "seed = 0\n"))[1].seed == 0
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            load_config_file(self.write(tmp_path, "seed = -1\n"))

    def test_distances_derive_variances(self, tmp_path):
        config, _ = load_config_file(self.write(tmp_path, "d1=2\nd2=10\nalpha=2\n"))
        assert config.omega == (0.25, 0.01, 0.25, 0.01)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config_file(self.write(tmp_path, "rho_db=10\nbandwidth=20\n"))

    def test_omega_and_distances_exclusive(self, tmp_path):
        text = "omega1=0.25\nomega2=0.01\nomega3=0.25\nomega4=0.01\nd1=2\nd2=10\nalpha=2\n"
        with pytest.raises(ConfigError, match="not both"):
            load_config_file(self.write(tmp_path, text))

    def test_partial_groups_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config_file(self.write(tmp_path, "a1=0.8\na2=0.2\n"))

    def test_sic_aliases(self, tmp_path):
        config, _ = load_config_file(self.write(tmp_path, "sic_mode=p\n"))
        assert config.sic_mode == "pSIC"

    def test_comments_and_blank_lines(self, tmp_path):
        config, _ = load_config_file(self.write(tmp_path, "# scenario\n\nrho_db=5 # override\n"))
        assert config.rho_db == 5.0
