import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from twrnoma import model, montecarlo
from twrnoma.analysis import closed_outage
from twrnoma.errors import ConfigError
from twrnoma.experiments import SweepSpec, random_valid_config
from twrnoma.model import (
    GROUP_ONE,
    GROUP_TWO,
    PairRoles,
    RunSettings,
    SystemConfig,
    build_derived_constants,
    chunk_generator,
    db_to_linear,
    load_config_file,
    omega_from_distances,
    unit_rows,
)


def table_config(**overrides):
    return SystemConfig(**overrides)


def below(value):
    return math.nextafter(value, -math.inf)


def above(value):
    return math.nextafter(value, math.inf)


def domain_edges(outside):
    """Overrides that put one bound of the domain just outside it, or just inside."""
    low, high = (below, above) if outside else (above, below)
    return [
        {"rho_db": low(-100.0)}, {"rho_db": high(200.0)},
        {"omega_i_db": low(-100.0)}, {"omega_i_db": high(30.0)},
        {"a": (low(1e-6), 0.2, 0.8, 0.2)}, {"a": (0.8, 0.2, high(1.0 - 1e-6), 0.2)},
        # b3 at its low bound puts b4 at its high bound
        {"b": (0.2, 0.8, low(1e-6), 1.0 - low(1e-6))},
        {"omega": (0.25, low(1e-6), 0.25, 0.01)}, {"omega": (0.25, 0.01, high(1e4), 0.01)},
        {"varpi1": low(1e-12)}, {"varpi1": high(1.0)},
        {"varpi2": low(0.0)}, {"varpi2": high(1.0)},
        {"rates": (low(0.0), 0.01, 0.1, 0.01)}, {"rates": (0.1, 0.01, 0.1, high(8.0))},
    ]


OUTSIDE_THE_DOMAIN = domain_edges(outside=True)
# and the ends themselves, with varpi1's lone 0 below its range
INSIDE_THE_DOMAIN = domain_edges(outside=False) + [
    {"rho_db": -100.0, "omega_i_db": -100.0, "varpi1": 0.0, "varpi2": 0.0},
    {"rho_db": 200.0, "omega_i_db": 30.0, "varpi1": 1e-12, "varpi2": 1.0},
    {"a": (1e-6, 1.0 - 1e-6, 1.0 - 1e-6, 1e-6), "b": (1e-6, 1.0 - 1e-6, 1e-6, 1.0 - 1e-6)},
    {"omega": (1e-6, 1e4, 1e4, 1e-6), "rates": (0.0, 8.0, 8.0, 0.0)},
]


def philox(seed):
    """A generator on a Philox stream seeded ``seed``."""
    return np.random.Generator(np.random.Philox(seed))


def single_draw(rng):
    """The first draw of each unit row of a half chunk, as plain floats."""
    return tuple(float(row[0]) for row in unit_rows(rng, 1))


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

    def test_linear_values_converted_once_per_config(self, monkeypatch):
        converted = []

        def counted(value_db):
            converted.append(value_db)
            return db_to_linear(value_db)

        monkeypatch.setattr(model, "db_to_linear", counted)
        cfg = table_config(rho_db=17.3, omega_i_db=-13.0)
        for _ in range(3):
            assert (cfg.rho, cfg.omega_i) == (10.0 ** (17.3 / 10.0), 10.0 ** (-13.0 / 10.0))
        assert converted == [17.3, -13.0]
        # the cached values are no fields: equality, hash and replace see the dB values only
        twin = table_config(rho_db=17.3, omega_i_db=-13.0)
        assert twin == cfg and hash(twin) == hash(cfg)
        assert replace(cfg, rho_db=20.0).rho == 100.0

    def test_no_sic_mode_field(self):
        assert len(fields(SystemConfig)) == 8
        with pytest.raises(TypeError):
            SystemConfig(sic_mode="pSIC")

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
            {"rates": (128.0, 0.01, 0.1, 0.01)},
            {"rho_db": math.inf},
            {"rho_db": 3090.0},
            {"omega_i_db": 5000.0},
            # each bound of the domain, just outside
            *OUTSIDE_THE_DOMAIN,
            # NaN fails every comparison
            *({name: math.nan} for name in ("rho_db", "omega_i_db", "varpi1", "varpi2")),
            *({name: (0.8, math.nan, 0.8, 0.2)} for name in ("a", "omega", "rates")),
            {"b": (0.2, 0.8, math.nan, 0.8)},
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ConfigError):
            table_config(**overrides)

    @pytest.mark.parametrize("overrides", INSIDE_THE_DOMAIN)
    def test_domain_bounds_accepted(self, overrides):
        # every bound just inside is a scenario the closed forms evaluate
        cfg = table_config(**overrides)
        for signal in ("x1", "x2", "x3", "x4"):
            for mode in ("ipSIC", "pSIC"):
                assert 0.0 <= closed_outage(cfg, signal, mode) <= 1.0


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
    def test_block_matches_means_within_three_sigma(self):
        n = 10**6
        cfg = table_config()
        variances = cfg.omega + (cfg.omega_i,)
        for row, omega in zip(unit_rows(philox(17), n), variances, strict=True):
            sigma = omega / math.sqrt(n)
            assert abs(float(np.mean(omega * row)) - omega) < 3 * sigma

    def test_same_seed_bit_identical(self):
        a = unit_rows(philox(5), 1000)
        b = unit_rows(philox(5), 1000)
        assert all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))
        assert single_draw(philox(5)) == single_draw(philox(5))

    def test_slots_read_the_unit_row_layout(self):
        # a unit row times a variance equals an exponential draw with that
        # variance bit for bit, on both halves of the ipSIC layout: g1..g4 and
        # then the residual gain, once per slot
        cfg = table_config()
        rng = philox(5)
        rows = unit_rows(rng, 1000) + unit_rows(rng, 1000)
        rng = philox(5)  # the same stream again, drawn directly
        variances = (cfg.omega + (cfg.omega_i,)) * 2
        direct = [rng.exponential(om, size=1000) for om in variances]
        scaled = [om * row for om, row in zip(variances, rows, strict=True)]
        assert all(np.array_equal(a, b) for a, b in zip(scaled, direct, strict=True))

    def test_unit_rows_into_a_buffer_equal_fresh_draws(self):
        fresh = unit_rows(philox(5), 1000)
        buffer = np.full((5, 1500), -1.0)
        rows = unit_rows(philox(5), 1000, list(buffer))
        assert all(np.array_equal(a, b) for a, b in zip(rows, fresh, strict=True))
        assert all(np.shares_memory(row, line) for row, line in zip(rows, buffer))
        assert (buffer[:, 1000:] == -1.0).all()

    def test_chunk_generators_differ_and_are_reconstructible(self):
        a = single_draw(chunk_generator(5, 0))
        b = single_draw(chunk_generator(5, 1))
        assert a != b
        assert single_draw(chunk_generator(5, 1)) == b
        assert single_draw(chunk_generator(6, 1)) != b
        # chunk c's stream is numpy's c-th spawned child of the seed
        child = np.random.SeedSequence(5).spawn(2)[1]
        assert single_draw(np.random.Generator(np.random.Philox(child))) == b

    # The first four draws of each unit row of chunk 0 under seed 1. Every
    # frozen MC count rests on this stream; a change in numpy's Philox
    # generator or its exponential sampler fails here first, by name.
    FIRST_DRAWS = (
        ("0x1.aa8a1994ab954p-2", "0x1.042b682ddfbddp-1", "0x1.0e5a3b590a54bp+0", "0x1.8e7e798bc7952p+1"),
        ("0x1.239c2f456c876p+0", "0x1.dea44cef5bd94p+0", "0x1.27aec92a85862p+0", "0x1.9223bb60736d2p-1"),
        ("0x1.acccf721ae637p-1", "0x1.2b69ad1b7ee98p-2", "0x1.9f4f9d878e7fcp+0", "0x1.26b35a8cc26d9p+1"),
        ("0x1.fb742bcc57ba3p-2", "0x1.6dcdedd1ceae5p-2", "0x1.bba6107a3f2dbp+0", "0x1.5cd61b3bfb842p-2"),
        ("0x1.0097a02852100p-5", "0x1.003a08baee4b3p-1", "0x1.044e499d943bcp-1", "0x1.a6731b92a4179p-1"),
    )

    def test_random_stream_is_pinned(self):
        rows = unit_rows(chunk_generator(1, 0), 4)
        assert tuple(tuple(map(float.hex, row.tolist())) for row in rows) == self.FIRST_DRAWS


# every field's config-file keys, spelled out as README documents them
FIELD_KEYS = {
    "rho_db": ("rho_db",),
    "a": ("a1", "a2", "a3", "a4"),
    "b": ("b1", "b2", "b3", "b4"),
    "omega": ("omega1", "omega2", "omega3", "omega4"),
    "omega_i_db": ("omega_i_db",),
    "varpi1": ("varpi1",),
    "varpi2": ("varpi2",),
    "rates": ("r1", "r2", "r3", "r4"),
}


def config_lines(config):
    """Every field key, each with the ``key = value`` line that sets it to ``config``'s value."""
    lines = {}
    for name, keys in FIELD_KEYS.items():
        value = getattr(config, name)
        entries = value if len(keys) == 4 else (value,)
        lines.update((key, f"{key} = {entry!r}") for key, entry in zip(keys, entries))
    return lines


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
            "trials=50000\nseed=9\n",
        )
        config, settings = load_config_file(path)
        assert config == SystemConfig(rho_db=25.0)
        assert settings.trials == 50000 and settings.seed == 9

    def test_missing_trials_take_the_library_default(self, tmp_path):
        # a file without trials, a sweep and the MC engines share one default
        _, settings = load_config_file(self.write(tmp_path, "seed = 2\n"))
        assert settings.trials == model.DEFAULT_TRIALS == 10**6
        assert SweepSpec(SystemConfig(), 0.0, 0.0, 1.0).trials == model.DEFAULT_TRIALS
        assert montecarlo.DEFAULT_TRIALS is model.DEFAULT_TRIALS

    def test_negative_seed_rejected(self, tmp_path):
        assert load_config_file(self.write(tmp_path, "seed = 0\n"))[1].seed == 0
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            load_config_file(self.write(tmp_path, "seed = -1\n"))

    def test_leading_bom_ignored(self, tmp_path):
        # editors on Windows start a UTF-8 file with a byte-order mark
        text = "rho_db = 20\nseed = 4\n"
        plain = load_config_file(self.write(tmp_path, text))
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert load_config_file(bom) == plain
        assert plain[0].rho_db == 20.0 and plain[1].seed == 4

    def test_distances_derive_variances(self, tmp_path):
        config, _ = load_config_file(self.write(tmp_path, "d1=2\nd2=10\nalpha=2\n"))
        assert config.omega == (0.25, 0.01, 0.25, 0.01)

    def test_overflowing_distances_rejected(self, tmp_path):
        # 1e-300 ** -10 overflows a float; the error names the three keys, not errno 34
        with pytest.raises(ConfigError, match=r"^d1 = 1e-300, d2 = 10.0 and alpha = 10.0 give a channel variance"):
            load_config_file(self.write(tmp_path, "d1 = 1e-300\nd2 = 10\nalpha = 10\n"))

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

    def test_sic_mode_key_rejected(self, tmp_path):
        # the SIC mode is chosen per command (--sic), not per scenario
        with pytest.raises(ConfigError, match="unknown key 'sic_mode'"):
            load_config_file(self.write(tmp_path, "sic_mode=p\n"))

    def test_comments_and_blank_lines(self, tmp_path):
        config, _ = load_config_file(self.write(tmp_path, "# scenario\n\nrho_db=5 # override\n"))
        assert config.rho_db == 5.0

    def test_every_field_key_round_trips(self, tmp_path):
        # each key sets its own field and entry: a key table that sends r1..r4 to b, or swaps two entries, fails
        assert set(FIELD_KEYS) == {name for name, *_ in model.DOMAIN} == {f.name for f in fields(SystemConfig)}
        rng = np.random.default_rng(2024)
        for k in range(20):
            config = random_valid_config(rng, force_degenerate=k % 5 == 0)
            text = "\n".join(config_lines(config).values()) + f"\ntrials = {2000 + k}\nseed = {k}\n"
            assert load_config_file(self.write(tmp_path, text)) == (config, RunSettings(trials=2000 + k, seed=k))

    def test_distance_form_equals_omega_from_distances(self, tmp_path):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d1, d2, alpha = float(rng.uniform(1.0, 5.0)), float(rng.uniform(5.0, 20.0)), float(rng.uniform(2.0, 4.0))
            lines = config_lines(random_valid_config(rng))
            for key in FIELD_KEYS["omega"]:
                del lines[key]
            text = "\n".join([*lines.values(), f"d1 = {d1!r}", f"d2 = {d2!r}", f"alpha = {alpha!r}"]) + "\n"
            config, _ = load_config_file(self.write(tmp_path, text))
            assert config.omega == omega_from_distances(d1, d2, alpha)

    @pytest.mark.parametrize("missing", [key for keys in FIELD_KEYS.values() if len(keys) == 4 for key in keys])
    def test_group_with_a_key_missing_names_the_group(self, tmp_path, missing):
        (keys,) = (keys for keys in FIELD_KEYS.values() if missing in keys)
        lines = config_lines(SystemConfig())
        del lines[missing]
        with pytest.raises(ConfigError, match=f": all four of {', '.join(keys)} are required$"):
            load_config_file(self.write(tmp_path, "\n".join(lines.values()) + "\n"))

    @pytest.mark.parametrize("key", [*config_lines(SystemConfig()), "d1", "d2", "alpha", "trials", "seed"])
    def test_value_that_is_no_number_names_its_key(self, tmp_path, key):
        lines = config_lines(SystemConfig())
        lines[key] = f"{key} = 0.5x"
        if key in ("d1", "d2", "alpha"):
            for omega_key in FIELD_KEYS["omega"]:
                del lines[omega_key]
            lines.update((other, f"{other} = 2") for other in ("d1", "d2", "alpha") if other not in lines)
        what = "an integer" if key in ("trials", "seed") else "a number"
        with pytest.raises(ConfigError, match=f": key '{key}' is not {what}: '0.5x'$"):
            load_config_file(self.write(tmp_path, "\n".join(lines.values()) + "\n"))

    def test_readme_example_is_the_reference_scenario(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme.split("A scenario can be given as a flat `key=value` file", 1)[1].split("```", 2)[1]
        config, settings = load_config_file(self.write(tmp_path, example))
        assert config == SystemConfig() and settings == RunSettings(trials=10**6, seed=1)
