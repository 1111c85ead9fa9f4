import hashlib
import json
from dataclasses import replace

import pytest

from twrnoma import analysis, cli, experiments, model, oracle
from twrnoma.errors import ConfigError
from twrnoma.experiments import (
    SIGNAL_ROLES,
    SweepSpec,
    crossover_snr_db,
    figure_preset,
    oma_outage,
    oracle_agreement,
    rows_to_csv,
    run_sweep,
    throughput_rows,
    write_rows,
)
from twrnoma.model import GROUP_ONE, GROUP_TWO, SystemConfig


def table_config(**overrides):
    overrides.setdefault("rho_db", 30.0)
    return SystemConfig(**overrides)


def count_engine_calls(monkeypatch):
    """Record (rho_db, signals, sic_modes) of every MC engine call the experiments make."""
    calls = []
    engine = experiments.mc_outage

    def counted(config, signals, sic_modes, **kwargs):
        calls.append((config.rho_db, signals, sic_modes))
        return engine(config, signals, sic_modes, **kwargs)

    monkeypatch.setattr(experiments, "mc_outage", counted)
    return calls


def count_constant_builds(monkeypatch):
    """Record (rho_db, roles) of every derived-constants build, whichever module makes it."""
    calls = []
    build = model.build_derived_constants

    def counted(config, roles):
        calls.append((config.rho_db, roles))
        return build(config, roles)

    for module in (model, analysis, experiments, oracle):
        monkeypatch.setattr(module, "build_derived_constants", counted)
    return calls


def cli_sha256(capsys, argv):
    assert cli.main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


# Output of every non-MC sweep method on a non-default scenario, grid offset
# and step, and of closed and TDMA throughput, recorded while every row still
# built its own config and derived constants.
FROZEN_SWEEP_ARGV = [
    "sweep", "--methods", "closed,asymptotic,oma", "--signals", "x1,x2,x3,x4", "--sic", "both",
    "--varpi1", "0.02", "--omega-i-db", "-13",
    "--rho-min-db", "1.23", "--rho-max-db", "45", "--rho-step-db", "0.35",
]
FROZEN_SWEEP_SHA256 = "64d358d376e52f197cb2e908e6d74d729d65d12d8ed154591a9887047485feb6"
FROZEN_THROUGHPUT_ARGV = ["throughput", "--methods", "closed,oma"]
FROZEN_THROUGHPUT_SHA256 = "3e1f690573faccf8c05a02d28463d403e69cff62d081101d1085181adda234c6"


class TestOmaBaseline:
    def test_zero_rate_means_no_outage(self):
        cfg = table_config(rates=(0.0, 0.0, 0.0, 0.0))
        assert oma_outage(cfg, GROUP_ONE, "x1") == 0.0

    def test_deep_noise_means_certain_outage(self):
        cfg = table_config(rho_db=-60.0)
        assert oma_outage(cfg, GROUP_ONE, "x1") == pytest.approx(1.0, abs=1e-6)

    def test_mismatched_roles_rejected(self):
        from twrnoma.model import GROUP_TWO

        with pytest.raises(ConfigError):
            oma_outage(table_config(), GROUP_TWO, "x1")

    def test_monotone_in_snr(self):
        values = [oma_outage(table_config(rho_db=db), GROUP_ONE, "x2") for db in (0, 10, 20, 30)]
        assert values == sorted(values, reverse=True)


class TestSweep:
    def spec(self, **overrides):
        defaults = dict(
            config=table_config(), rho_min_db=0.0, rho_max_db=30.0, rho_step_db=5.0,
            methods=("closed",), signals=("x1", "x2"), sic_modes=("ipSIC", "pSIC"),
            trials=2000, seed=3,
        )
        defaults.update(overrides)
        return SweepSpec(**defaults)

    def test_row_cardinality(self):
        rows = run_sweep(self.spec())
        assert len(rows) == 7 * 2 * 2 * 1

    def test_grid_construction(self):
        assert self.spec(rho_max_db=10.0, rho_step_db=2.5).rho_grid_db() == [0.0, 2.5, 5.0, 7.5, 10.0]

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigError):
            self.spec(rho_step_db=0.0)
        with pytest.raises(ConfigError):
            self.spec(rho_max_db=-1.0)
        with pytest.raises(ConfigError):
            self.spec(methods=("magic",))
        with pytest.raises(ConfigError):
            self.spec(signals=())

    def test_grid_size_is_capped(self):
        cap = experiments.MAX_GRID_POINTS
        assert len(self.spec(rho_max_db=cap - 1.0, rho_step_db=1.0).rho_grid_db()) == cap
        for too_large in (
            dict(rho_max_db=float(cap), rho_step_db=1.0),
            dict(rho_min_db=-1e308, rho_max_db=1e308),
            dict(rho_max_db=1e308, rho_step_db=1e-308),
        ):
            with pytest.raises(ConfigError, match="more than 100000 points"):
                self.spec(**too_large)

    def test_grid_end_must_not_overflow(self, monkeypatch):
        calls = count_constant_builds(monkeypatch)
        assert len(run_sweep(self.spec(rho_max_db=3080.0, rho_step_db=1000.0))) == 4 * 2 * 2
        calls.clear()
        with pytest.raises(ConfigError, match="the SNR grid ends at 4000 dB, which overflows"):
            run_sweep(self.spec(rho_max_db=4000.0, rho_step_db=1000.0))
        with pytest.raises(ConfigError, match="the SNR grid ends at 4000 dB, which overflows"):
            throughput_rows(self.spec(rho_max_db=4000.0, rho_step_db=1000.0))
        assert calls == []

    def test_rows_match_fresh_evaluations(self):
        rows = run_sweep(self.spec())
        for row in rows:
            roles, kind = SIGNAL_ROLES[row.signal]
            cfg = replace(table_config(), rho_db=row.rho_db, sic_mode=row.sic_mode)
            fn = analysis.outage_xl if kind == "l" else analysis.outage_xt
            assert row.value == fn(cfg, roles).probability

    def test_deterministic_csv_bytes(self):
        spec = self.spec(methods=("closed", "mc"), trials=2000)
        first = rows_to_csv(run_sweep(spec))
        second = rows_to_csv(run_sweep(spec))
        assert first == second
        assert "\r" not in first and first.startswith("rho_db,signal,sic_mode,method,value")

    def test_write_rows_csv_and_json(self, tmp_path):
        rows = run_sweep(self.spec())
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "rows.json"
        write_rows(rows, str(csv_path), "csv")
        write_rows(rows, str(json_path), "json")
        assert csv_path.read_text(encoding="utf-8").count("\n") == len(rows) + 1
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload[0]["signal"] == "x1" and payload[0]["ci_low"] is None

    def test_mc_rows_carry_interval(self):
        rows = run_sweep(self.spec(methods=("mc",), rho_max_db=0.0))
        for row in rows:
            assert row.ci_low is not None and row.ci_low <= row.value <= row.ci_high
            assert row.trials == 2000 and row.seed == 3

    def test_one_engine_call_per_grid_point(self, monkeypatch):
        calls = count_engine_calls(monkeypatch)
        rows = run_sweep(self.spec(methods=("mc",), signals=("x1", "x2", "x3", "x4"), rho_max_db=10.0))
        assert len(rows) == 3 * 4 * 2
        assert calls == [(db, ("x1", "x2", "x3", "x4"), ("ipSIC", "pSIC")) for db in (0.0, 5.0, 10.0)]

    def test_one_quadrature_call_per_grid_point(self, monkeypatch):
        calls = []
        batched = experiments.quad_outages

        def counted(cases, *args):
            calls.append([(config.rho_db, config.sic_mode, roles, kind) for config, roles, kind in cases])
            return batched(cases, *args)

        monkeypatch.setattr(experiments, "quad_outages", counted)
        rows = run_sweep(self.spec(methods=("quad",), signals=("x1", "x4"), rho_max_db=10.0))
        assert len(rows) == 3 * 2 * 2
        assert calls == [
            [(db, mode, roles, kind) for roles, kind in ((GROUP_ONE, "l"), (GROUP_TWO, "t")) for mode in ("ipSIC", "pSIC")]
            for db in (0.0, 5.0, 10.0)
        ]
        for row in rows:
            roles, kind = SIGNAL_ROLES[row.signal]
            single = oracle.quad_outage_xl if kind == "l" else oracle.quad_outage_xt
            assert row.value == single(replace(table_config(), rho_db=row.rho_db, sic_mode=row.sic_mode), roles)

    def test_one_constant_build_per_point_and_group(self, monkeypatch):
        calls = count_constant_builds(monkeypatch)
        spec = self.spec(methods=("closed", "asymptotic", "oma"), signals=("x1", "x2", "x3", "x4"), rho_max_db=10.0)
        rows = run_sweep(spec)
        assert len(rows) == 3 * 4 * 2 * 3
        assert calls == [(db, roles) for db in (0.0, 5.0, 10.0) for roles in (GROUP_ONE, GROUP_TWO)]

    def test_frozen_output_bytes(self, capsys):
        assert cli_sha256(capsys, FROZEN_SWEEP_ARGV) == FROZEN_SWEEP_SHA256

    def test_single_mode_rows_equal_both_mode_rows(self, capsys):
        def rows(sic):
            argv = ["outage", "--rho-db", "20", "--signals", "x1,x2,x3,x4", "--methods", "closed,mc",
                    "--trials", "3000", "--seed", "5", "--sic", sic]
            assert cli.main(argv) == 0
            return capsys.readouterr().out.splitlines()[1:]

        both = rows("both")
        for sic, mode in (("ip", "ipSIC"), ("p", "pSIC")):
            assert rows(sic) == [line for line in both if line.split(",")[2] == mode]

    def test_mirrored_signals_match_under_symmetric_scenario(self):
        rows = run_sweep(self.spec(signals=("x1", "x2", "x3", "x4"), rho_max_db=10.0))
        by_key = {(r.rho_db, r.signal, r.sic_mode): r.value for r in rows}
        for (db, signal, mode), value in by_key.items():
            mirror = {"x1": "x3", "x2": "x4", "x3": "x1", "x4": "x2"}[signal]
            assert value == pytest.approx(by_key[(db, mirror, mode)], rel=1e-14)


class TestThroughputRows:
    def test_composition_matches_direct_formula(self):
        spec = SweepSpec(
            config=table_config(), rho_min_db=30.0, rho_max_db=30.0, rho_step_db=5.0,
            sic_modes=("ipSIC",),
        )
        row = throughput_rows(spec, methods=("closed",))[0]
        cfg = table_config()
        outages = [
            analysis.outage_xl(cfg, GROUP_ONE).probability,
            analysis.outage_xt(cfg, GROUP_ONE).probability,
            analysis.outage_xl(cfg, GROUP_TWO).probability,
            analysis.outage_xt(cfg, GROUP_TWO).probability,
        ]
        assert row.value == pytest.approx(analysis.throughput_delay_limited(table_config(), outages))
        assert row.signal == "sum"

    def test_one_engine_call_per_grid_point(self, monkeypatch):
        calls = count_engine_calls(monkeypatch)
        spec = SweepSpec(
            config=table_config(), rho_min_db=0.0, rho_max_db=10.0, rho_step_db=5.0,
            trials=2000, seed=3,
        )
        rows = throughput_rows(spec, methods=("mc",))
        assert len(rows) == 3 * 2
        assert calls == [(db, ("x1", "x2", "x3", "x4"), ("ipSIC", "pSIC")) for db in (0.0, 5.0, 10.0)]

    def test_one_constant_build_per_point_and_group(self, monkeypatch):
        calls = count_constant_builds(monkeypatch)
        spec = SweepSpec(config=table_config(), rho_min_db=0.0, rho_max_db=10.0, rho_step_db=5.0)
        rows = throughput_rows(spec, methods=("closed", "oma"))
        assert len(rows) == 3 * 2 * 2
        assert calls == [(db, roles) for db in (0.0, 5.0, 10.0) for roles in (GROUP_ONE, GROUP_TWO)]

    def test_frozen_output_bytes(self, capsys):
        assert cli_sha256(capsys, FROZEN_THROUGHPUT_ARGV) == FROZEN_THROUGHPUT_SHA256

    def test_bad_method_rejected_before_any_work(self, monkeypatch):
        calls = count_engine_calls(monkeypatch)
        spec = SweepSpec(
            config=table_config(), rho_min_db=0.0, rho_max_db=10.0, rho_step_db=5.0,
            trials=2000, seed=3,
        )
        with pytest.raises(ConfigError, match="quad"):
            throughput_rows(spec, methods=("mc", "quad"))
        assert calls == []

    def test_bounded_by_rate_sum(self):
        spec = SweepSpec(
            config=table_config(), rho_min_db=0.0, rho_max_db=45.0, rho_step_db=5.0,
        )
        for row in throughput_rows(spec, methods=("closed", "oma")):
            assert 0.0 <= row.value <= 0.22 + 1e-12


class TestCrossover:
    def test_crossover_exists_and_is_deterministic(self):
        cfg = table_config()
        first = crossover_snr_db(cfg, "x1")
        second = crossover_snr_db(cfg, "x1")
        assert first is not None and first == second
        below = replace(cfg, rho_db=first - 3.0)
        above = replace(cfg, rho_db=first + 3.0)
        assert analysis.outage_xl(below, GROUP_ONE).probability < oma_outage(below, GROUP_ONE, "x1")
        assert analysis.outage_xl(above, GROUP_ONE).probability > oma_outage(above, GROUP_ONE, "x1")

    def test_no_crossover_reported_when_absent(self):
        # without an error floor (no leakage, perfect cancellation) the
        # superposed scheme stays below the baseline over the window
        cfg = table_config(varpi1=0.0, varpi2=0.0, sic_mode="pSIC")
        assert crossover_snr_db(cfg, "x2", rho_max_db=30.0) is None


class TestFigurePresets:
    def test_preset_one_orders_modes(self):
        rows = figure_preset(1, methods=("closed",))[""]
        closed = {(r.rho_db, r.signal, r.sic_mode): r.value for r in rows}
        for (db, signal, mode), value in closed.items():
            if mode == "pSIC":
                assert value <= closed[(db, signal, "ipSIC")] + 1e-15

    def test_preset_two_benchmark_is_strictly_best(self):
        variants = figure_preset(2, methods=("closed",))
        best = {(r.rho_db, r.signal, r.sic_mode): r.value for r in variants["varpi_0"]}
        for label in ("varpi_0.01", "varpi_0.1"):
            for row in variants[label]:
                assert best[(row.rho_db, row.signal, row.sic_mode)] < row.value

    def test_preset_three_sweeps_residual_variance(self):
        variants = figure_preset(3, methods=("closed",))
        assert set(variants) == {"omega_i_-20dB", "omega_i_-10dB", "omega_i_0dB"}
        worst = {(r.rho_db, r.signal): r.value for r in variants["omega_i_0dB"] if r.sic_mode == "ipSIC"}
        for row in variants["omega_i_-20dB"]:
            if row.sic_mode == "ipSIC":
                assert row.value <= worst[(row.rho_db, row.signal)] + 1e-15

    def test_preset_four_emits_throughput(self):
        variants = figure_preset(4, methods=("closed",))
        assert set(variants) == {"omega_i_-20dB", "omega_i_-10dB"}
        for rows in variants.values():
            assert all(row.signal == "sum" for row in rows)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            figure_preset(9)


class TestOracleAgreementSuite:
    def test_small_randomized_run(self):
        report = oracle_agreement(n_configs=20, seed=7)
        assert report.max_rel_err_distinct <= 1e-6
        assert report.max_rel_err_degenerate <= 1e-5


class TestCli:
    def test_outage_csv_to_stdout(self, capsys):
        assert cli.main(["outage", "--rho-db", "30", "--signals", "x1", "--methods", "closed"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("rho_db,signal,sic_mode,method,value")
        assert "x1,ipSIC,closed" in out

    def test_sweep_writes_file(self, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        code = cli.main([
            "sweep", "--rho-min-db", "0", "--rho-max-db", "10", "--rho-step-db", "5",
            "--signals", "x1", "--methods", "closed,oma", "--out", str(target),
        ])
        assert code == 0 and target.exists()
        assert len(target.read_text().splitlines()) == 1 + 3 * 2 * 2

    def test_config_file_and_overrides(self, tmp_path, capsys):
        scenario = tmp_path / "s.cfg"
        scenario.write_text("rho_db=20\nvarpi1=0.1\nvarpi2=0.1\n", encoding="utf-8")
        code = cli.main(["outage", "--config", str(scenario), "--signals", "x1",
                         "--methods", "closed", "--sic", "ip", "--varpi1", "0.01"])
        assert code == 0
        row = capsys.readouterr().out.splitlines()[1]
        cfg = table_config(rho_db=20.0, varpi1=0.01, varpi2=0.1)
        assert repr(analysis.outage_xl(cfg, GROUP_ONE).probability) in row

    def test_bad_flag_value_exits_one(self, capsys):
        assert cli.main(["sweep", "--rho-min-db", "10", "--rho-max-db", "0"]) == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--rho-max-db", "inf"],
        ["sweep", "--rho-min-db", "nan"],
        ["throughput", "--rho-step-db", "nan"],
    ])
    def test_non_finite_grid_bound_exits_one(self, argv, capsys):
        assert cli.main(argv) == 1
        assert "configuration error: rho_min_db, rho_max_db and rho_step_db must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--rho-max-db", "1e9", "--rho-step-db", "0.001"],
        ["sweep", "--rho-max-db", "1e308", "--rho-step-db", "1e-308"],
    ])
    def test_oversized_grid_exits_one(self, argv, capsys):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert "configuration error: SNR grid has more than 100000 points" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["--rel-tol", "-1"],
        ["--rel-tol", "0"],
        ["--rel-tol", "nan"],
        ["--rel-tol-degenerate", "-1"],
        ["--rel-tol-degenerate", "inf"],
    ])
    def test_bad_validate_tolerance_exits_one_before_any_quadrature(self, argv, monkeypatch, capsys):
        def forbidden(*args, **kwargs):
            raise AssertionError("oracle_agreement must not run")

        monkeypatch.setattr(experiments, "oracle_agreement", forbidden)
        assert cli.main(["validate", "--configs", "2", *argv]) == 1
        captured = capsys.readouterr()
        assert f"configuration error: {argv[0]} must be positive and finite" in captured.err
        assert captured.out == ""

    def test_validate_without_configs_exits_one(self, capsys):
        assert cli.main(["validate", "--configs", "0"]) == 1
        captured = capsys.readouterr()
        assert "configuration error" in captured.err
        assert "agreement" not in captured.out

    @pytest.mark.parametrize("argv", [
        ["outage", "--methods", "closed,mc", "--trials", "2000", "--seed", "-1"],
        ["validate", "--configs", "2", "--seed", "-1"],
    ])
    def test_negative_seed_exits_one(self, argv, capsys):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert "configuration error: seed must be non-negative, got -1" in captured.err
        assert captured.out == ""

    def test_negative_seed_in_config_file_exits_one(self, tmp_path, capsys):
        scenario = tmp_path / "s.cfg"
        scenario.write_text("seed = -1\n", encoding="utf-8")
        assert cli.main(["outage", "--config", str(scenario), "--methods", "closed,mc", "--trials", "2000"]) == 1
        assert "configuration error: seed must be non-negative, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["outage", "--rho-db", "3090"],
        ["outage", "--omega-i-db", "5000"],
        ["throughput", "--rho-max-db", "4000", "--rho-step-db", "1000"],
        ["sweep", "--rho-max-db", "1e308", "--rho-step-db", "1e307"],
        ["diversity", "--rho-lo-db", "40", "--rho-hi-db", "1e6"],
    ])
    def test_overflowing_db_value_exits_one(self, argv, capsys):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert "configuration error: " in captured.err and "overflows in linear units" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["outage", "--rho-db", "-4000"],
        ["outage", "--rho-db", "-3200"],
        ["outage", "--omega-i-db", "-4000", "--methods", "closed"],
    ])
    def test_underflowing_db_value_exits_one(self, argv, capsys):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert "configuration error: " in captured.err and "underflows in linear units" in captured.err
        assert captured.out == ""

    def test_unknown_method_exits_one(self, capsys):
        assert cli.main(["outage", "--methods", "sorcery"]) == 1

    def test_missing_config_file_exits_one(self, capsys):
        assert cli.main(["outage", "--config", "/nonexistent/file.cfg"]) in (1,)

    def test_diversity_command(self, capsys):
        assert cli.main(["diversity", "--signal", "x1", "--sic", "ip"]) == 0
        assert "diversity order" in capsys.readouterr().out

    def test_validate_command_small(self, capsys):
        assert cli.main(["validate", "--configs", "6", "--seed", "3"]) == 0
        assert "agreement: PASS" in capsys.readouterr().out

    def test_figure_command_writes_variants(self, tmp_path, capsys):
        target = tmp_path / "fig2.csv"
        code = cli.main(["figure", "--id", "2", "--trials", "2000", "--seed", "1", "--out", str(target)])
        assert code == 0
        written = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert written == ["fig2_varpi_0.01.csv", "fig2_varpi_0.1.csv", "fig2_varpi_0.csv"]
