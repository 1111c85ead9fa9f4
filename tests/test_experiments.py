import argparse
import csv
import hashlib
import inspect
import io
import json
import math
import random
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from twrnoma import analysis, cli, experiments, model, montecarlo, oracle
from twrnoma.errors import ConfigError, NumericError
from twrnoma.experiments import (
    CurveColumn,
    CurveTable,
    SweepSpec,
    crossover_snr_db,
    figure_preset,
    oma_outage,
    oracle_agreement,
    random_valid_config,
    rows_to_csv,
    run_sweep,
    throughput_rows,
)
from twrnoma.model import GROUP_ONE, GROUP_TWO, SIC_MODES, SystemConfig


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
    """Record (roles, rho) of every derived-constants build, whichever module makes it.

    ``rho`` is the linear SNR passed in, ``None`` when the build reads the config's own.
    """
    calls = []
    build = model.build_derived_constants

    def counted(config, roles, rho=None):
        calls.append((roles, rho))
        return build(config, roles, rho)

    for module in (model, analysis, experiments, oracle):
        monkeypatch.setattr(module, "build_derived_constants", counted)
    return calls


def bad_at(point, bad=1.5):
    """Outage 0.5 at each SNR of a grid in 5 dB steps from 0 dB but its ``point``-th, where it is ``bad``.

    ``rho`` is a float or an array, as the sweep's evaluators take it.
    """
    at = replace(table_config(), rho_db=5.0 * point).rho

    def evaluate(rho):
        values = np.where(np.asarray(rho) == at, bad, 0.5)
        return values if isinstance(rho, np.ndarray) else float(values)

    return evaluate


def reference_csv(rows):
    """The CSV of ``rows`` as ``csv.writer`` writes it, floats as ``repr(float(...))``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(experiments.CURVE_FIELDS)
    for row in rows:
        writer.writerow([
            repr(float(row.rho_db)), row.signal, row.sic_mode, row.method, repr(float(row.value)),
            "" if row.ci_low is None else repr(float(row.ci_low)),
            "" if row.ci_high is None else repr(float(row.ci_high)),
            "" if row.trials is None else row.trials,
            "" if row.seed is None else row.seed,
        ])
    return buffer.getvalue()


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
# Stdout of the commands that read the SIC mode, recorded while the closed
# forms and the oracle still took it from the config: the oracle agreement
# suite, every non-MC method at one point, each diversity estimate, and
# figure 1 with its crossover lines.
FROZEN_CLI_SHA256 = [
    (["validate", "--configs", "16", "--seed", "7"],
     "541bfdf590ae7b582b5d77290a7e8fa2b6b355c32951a7b5d5da476371f87036"),
    # several quadrature passes and two scenario chunks, recorded while each
    # pass held the integrals of one kind and a chunk held 8 scenarios
    (["validate", "--configs", "40", "--seed", "3"],
     "e6ea46183b3214fd01a7e4d3087d25aa0a09a7ee66f456d9aa7102e197bcaaee"),
    (["outage", "--methods", "closed,asymptotic,quad,oma", "--signals", "x1,x2,x3,x4", "--sic", "both",
      "--varpi1", "0.02", "--omega-i-db", "-13", "--rho-db", "17.3"],
     "f99ce539588992002afd6e37977069916a80a1402a712b0e5263d0c2f499bd4c"),
    (["diversity", "--signal", "x1", "--sic", "ip"], "96ab7d45c7d56a594fd516f44b1545b7cf7ca1d7020caa5ce3d06291ac27ab9e"),
    (["diversity", "--signal", "x1", "--sic", "p"], "a83ca62922df66f55269316aad89fae4cad96ec8dd0bdfbfee204d72267dfe4b"),
    (["diversity", "--signal", "x2", "--sic", "ip"], "3bc89f29aad1b05b84aeecddceb71a862659011c8379a56e3ac5bb60b6794037"),
    (["diversity", "--signal", "x2", "--sic", "p"], "f86f303b821dbba366a6f5e0008816d04630541d7f256d0405d347950cdc6f35"),
    (["diversity", "--signal", "x3", "--sic", "ip"], "0c41295bcc4211726a2ca879f6db54edfb5605b4ce83065eb98d01bd9b5233aa"),
    (["diversity", "--signal", "x3", "--sic", "p"], "dfda518032d109b0efb692b79a6af35fe6cece4ae1a9a7063cc26aec2f7f2944"),
    (["diversity", "--signal", "x4", "--sic", "ip"], "c93ace371b2266dee2581431e404fd5794b7ad0503a1c635d353a4467335be09"),
    (["diversity", "--signal", "x4", "--sic", "p"], "08ca5a0f0bef1b84bf6fd1a255df121a007c02335ac904eae30201530aa1a7c8"),
    (["figure", "--id", "1", "--trials", "2000", "--seed", "1"],
     "a18b1fe538c03f434bf3b1a536c1f7da28e10505f9bf934e70f3088755aae1fc"),
    (["figure", "--id", "2", "--trials", "2000", "--seed", "1"],
     "0ee27d1f0b9413acc1bb98f14fbe8744609f06c51f6fcec178a9b306c72dd6f3"),
    (["figure", "--id", "3", "--trials", "2000", "--seed", "1"],
     "1ded2e367073c260b272af29b781ccb2c8fa330d8bba3dfd798003f1e40a7891"),
    (["figure", "--id", "4"], "301ac5f0a31bd5f8e77ea1cdf6a9a19b01630992a7a2493aff4aff070f662b82"),
    (["throughput", "--methods", "mc,closed,oma", "--trials", "2000", "--seed", "3"],
     "25f8ee7e1efb1f8a4676b9d6bdd06b7fcf03a19e0a00484f48c3960e5fcabeb0"),
    # JSON output, recorded while every sweep still listed its rows one by one
    (["sweep", "--format", "json", "--methods", "closed,asymptotic,mc,quad,oma", "--rho-max-db", "5",
      "--trials", "2000", "--seed", "3"],
     "05ecdfcf50731e9a38979c1df20ff04bada85243fedf4a94e60f74847a491d6c"),
    (["throughput", "--format", "json", "--methods", "closed,mc,oma", "--trials", "2000", "--seed", "3"],
     "7f56ffe89d0e7c61f85498c961356b02e4f0e431572dddb7dc2c9c1dca524c62"),
]


@pytest.mark.parametrize("argv, sha256", FROZEN_CLI_SHA256, ids=[" ".join(argv) for argv, _ in FROZEN_CLI_SHA256])
def test_frozen_cli_output(capsys, argv, sha256):
    assert cli_sha256(capsys, argv) == sha256


@pytest.mark.parametrize("evaluate", [
    lambda mode: analysis.closed_outage(table_config(), "x1", mode),
    lambda mode: analysis.asymptotic_outage(table_config(), "x2", mode),
    lambda mode: oracle.quad_outages([(table_config(), "x1", "ipSIC"), (table_config(), "x3", mode)]),
    lambda mode: montecarlo.mc_outage(table_config(), ("x1",), ("ipSIC", mode), trials=2000),
    lambda mode: montecarlo.mc_ergodic_rates(table_config(), GROUP_ONE, mode, trials=2000),
    lambda mode: crossover_snr_db(table_config(), "x1", mode),
    lambda mode: SweepSpec(config=table_config(), rho_min_db=0.0, rho_max_db=0.0, rho_step_db=1.0, sic_modes=(mode,)),
], ids=["closed", "asymptotic", "quad", "mc", "ergodic", "crossover", "sweep"])
def test_unknown_sic_mode_rejected(evaluate):
    # a misspelt mode must not silently stand for pSIC
    for mode in ("psic", "IPSIC", "partial"):
        with pytest.raises(ConfigError, match="unknown sic mode"):
            evaluate(mode)


class TestOmaBaseline:
    def test_zero_rate_means_no_outage(self):
        cfg = table_config(rates=(0.0, 0.0, 0.0, 0.0))
        assert oma_outage(cfg, "x1") == 0.0

    def test_deep_noise_means_certain_outage(self):
        cfg = table_config(rho_db=-60.0)
        assert oma_outage(cfg, "x1") == pytest.approx(1.0, abs=1e-6)

    def test_monotone_in_snr(self):
        values = [oma_outage(table_config(rho_db=db), "x2") for db in (0, 10, 20, 30)]
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

    @pytest.mark.parametrize("selection, message", [
        (dict(signals=("x1", "x2", "x1")), "signal 'x1' is selected more than once"),
        (dict(methods=("closed", "oma", "oma")), "method 'oma' is selected more than once"),
        (dict(sic_modes=("ipSIC", "ipSIC")), "SIC mode 'ipSIC' is selected more than once"),
    ])
    def test_repeated_selection_rejected(self, selection, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            self.spec(**selection)

    @pytest.mark.parametrize("window, message", [
        (dict(rho_step_db=1e-300), "more than 100000 points"),
        (dict(rho_step_db=0.0), "rho_step_db must be positive"),
        (dict(rho_step_db=-0.25), "rho_step_db must be positive"),
        (dict(rho_min_db=10.0, rho_max_db=5.0), "empty SNR grid"),
        (dict(rho_min_db=math.nan), "must be finite"),
        (dict(rho_max_db=math.nan), "must be finite"),
        (dict(rho_step_db=math.inf), "must be finite"),
        # the domain at both ends; 200.25 dB is the last whole step
        (dict(rho_min_db=-150.0), "rho_db = -150.0 is outside the domain: [-100, 200] dB"),
        (dict(rho_max_db=200.25), "rho_db = 200.25 is outside the domain: [-100, 200] dB"),
    ], ids=lambda value: str(value))
    def test_grid_it_cannot_scan_rejected_before_any_evaluation(self, monkeypatch, window, message):
        def forbidden(*args):
            raise AssertionError("no outage may be evaluated")

        for columns in ("_grid_columns", "_mc_columns", "_quad_columns"):
            monkeypatch.setattr(experiments, columns, forbidden)
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_sweep(self.spec(**{"rho_max_db": 45.0, "rho_step_db": 0.25, "methods": ("closed", "oma"),
                                   **window}))

    def test_too_few_trials_rejected_when_mc_runs(self):
        # at construction, before any point is evaluated; without MC the trial count is not read
        with pytest.raises(ConfigError, match=re.escape("at least 1000 trials are required, got 500")):
            self.spec(methods=("closed", "mc"), trials=500)
        assert self.spec(methods=("closed", "asymptotic", "quad", "oma"), trials=500).trials == 500

    def test_negative_seed_rejected_when_mc_runs(self):
        with pytest.raises(ConfigError, match=re.escape("seed must be non-negative, got -1")):
            run_sweep(self.spec(methods=("mc",), seed=-1))
        assert self.spec(methods=("closed", "asymptotic", "quad", "oma"), seed=-1).seed == -1

    def test_non_integer_seed_rejected_when_mc_runs(self):
        for seed in (1.5, "3"):
            with pytest.raises(ConfigError, match=re.escape(f"seed must be an integer, got {seed!r}")):
                self.spec(methods=("mc",), seed=seed)
        spec = self.spec(methods=("mc",), rho_max_db=5.0, seed=np.int64(3))
        assert rows_to_csv(run_sweep(spec)) == rows_to_csv(run_sweep(self.spec(methods=("mc",), rho_max_db=5.0)))

    @pytest.mark.parametrize("trials", [2000.5, 2000.0, "3000"])
    def test_non_integer_trials_rejected_when_mc_runs(self, trials):
        with pytest.raises(ConfigError, match=re.escape(f"trials must be an integer, got {trials!r}")):
            self.spec(methods=("mc",), trials=trials)

    def test_numpy_integer_trials_accepted(self):
        # the rows carry them as Python ints, so JSON writes them too
        spec = self.spec(methods=("closed", "mc"), rho_max_db=5.0, trials=np.int64(3000), seed=np.uint32(3))
        plain = replace(spec, trials=3000, seed=3)
        for evaluate in (run_sweep, throughput_rows):
            given = evaluate(spec)
            assert {(type(row.trials), type(row.seed)) for row in given.rows() if row.method == "mc"} == {(int, int)}
            assert rows_to_csv(given) == rows_to_csv(evaluate(plain))
            assert experiments.rows_to_json(given) == experiments.rows_to_json(evaluate(plain))

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

    def test_rows_match_fresh_evaluations(self):
        rows = run_sweep(self.spec()).rows()
        for row in rows:
            cfg = replace(table_config(), rho_db=row.rho_db)
            assert row.value == analysis.closed_outage(cfg, row.signal, row.sic_mode)

    def test_rows_match_fresh_evaluations_on_random_scenarios(self):
        # every signal, both modes and every non-MC method, on grids off the default's
        rng = np.random.default_rng(2024)
        scenarios = [random_valid_config(rng, force_degenerate=k == 0) for k in range(3)]
        scenarios.append(replace(scenarios[-1], varpi1=0.0))  # no cross-pair interference terms
        fresh = {"closed": analysis.closed_outage, "asymptotic": analysis.asymptotic_outage,
                 "oma": lambda config, signal, mode: oma_outage(config, signal)}
        for config in scenarios:
            spec = SweepSpec(config=config, rho_min_db=float(rng.uniform(0.0, 3.0)), rho_max_db=45.0,
                             rho_step_db=float(rng.uniform(4.0, 6.0)), methods=("closed", "asymptotic", "oma"),
                             signals=experiments.SIGNALS, sic_modes=SIC_MODES)
            rows = run_sweep(spec).rows()
            assert len(rows) == len(spec.rho_grid_db()) * 4 * 2 * 3
            for row in rows:
                at = replace(config, rho_db=row.rho_db)
                assert repr(row.value) == repr(fresh[row.method](at, row.signal, row.sic_mode))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1.5])
    @pytest.mark.parametrize("method", ["closed", "oma"])
    def test_out_of_range_row_raises(self, monkeypatch, method, bad):
        # a float stands for the same value at every grid point
        if method == "oma":
            monkeypatch.setattr(experiments, "oma_outage", lambda config, signal, rho: bad)
        else:
            monkeypatch.setitem(analysis.EVALUATORS, ("closed", "l"), lambda config, roles, dc, mode: bad)
        message = f"outage row out of range: x1 {method} at 0.0 dB -> {bad!r}"
        with pytest.raises(NumericError, match=re.escape(message)):
            run_sweep(self.spec(methods=(method,)))

    # tables to write as CSV, each built from the spec maker, with the start of its first data
    # line and the end of its last line
    CSV_TABLES = {
        # int grid bounds through the library API give int rho_db values, written as floats
        "int grid bounds": (
            lambda spec: run_sweep(spec(rho_min_db=0, rho_max_db=10, rho_step_db=5, methods=("closed", "mc", "oma"))),
            "0.0,x1,ipSIC,closed,", ",,,,\n"),
        "mc quad and oma": (
            lambda spec: run_sweep(spec(methods=("mc", "quad", "oma"), signals=("x1", "x4"), rho_max_db=5.0)),
            "0.0,x1,ipSIC,mc,", ",,,,\n"),
        # MC throughput rows have no CI, but a trial count and seed
        "throughput with mc": (
            lambda spec: throughput_rows(spec(rho_min_db=0, rho_max_db=10, rho_step_db=5, methods=("closed", "mc"))),
            "0.0,sum,ipSIC,closed,", ",,,2000,3\n"),
        # 199 grid points with 29 distinct rho_db values
        "repeated snr values": (
            lambda spec: throughput_rows(SweepSpec(SystemConfig(), 45.0, 45.0 + 2e-13, 1e-15,
                                                   methods=("closed", "mc", "oma"), trials=1000, seed=5)),
            "45.0,sum,ipSIC,closed,", ",,,,\n"),
        "labels that need quoting": (
            lambda spec: CurveTable([7.5, -0.0], [
                CurveColumn("x2", "pSIC", "closed", [0.0, 1.0]),
                CurveColumn("x2", "pSIC", "mc", [5e-324, 0.25], [0.0, 0.125], [0.5, 0.375], 1000, 0),
                CurveColumn('x"1', "ip,SIC", "quad", [1.0, 0.5]),
            ]),
            "7.5,x2,pSIC,closed,0.0,,,,", '-0.0,"x""1","ip,SIC",quad,0.5,,,,\n'),
    }

    def test_csv_bytes_match_csv_writer(self):
        for case, (build, first, last) in self.CSV_TABLES.items():
            table = build(self.spec)
            rows = table.rows()
            text = rows_to_csv(table)
            assert text == reference_csv(rows), case
            assert len(rows) == len(table) == text.count("\n") - 1, case
            assert text.splitlines()[1].startswith(first) and text.endswith(last), case
            assert {type(row.rho_db) for row in rows} == {type(table.rho_db[0])}, case
            if case == "int grid bounds":
                assert type(table.rho_db[0]) is int
            # every case has MC rows
            mc = [row for row in rows if row.method == "mc"]
            assert {type(row.trials) for row in mc} == {type(row.seed) for row in mc} == {int}, case

    def test_csv_bytes_match_csv_writer_on_equal_values(self):
        # the writer formats each distinct value once, through a memo keyed by value: values that
        # compare equal must still be written as the reference writes each of them
        symmetric = run_sweep(SweepSpec(SystemConfig(), 0.0, 45.0, 0.5, methods=("closed", "asymptotic", "oma"),
                                        signals=experiments.SIGNALS))
        by_key = {(column.signal, column.sic_mode, column.method): column.values for column in symmetric.columns}
        # the default scenario is symmetric between the groups: x3/x4 repeat x1/x2 bit for bit
        for (signal, mode, method), values in by_key.items():
            twin = {"x1": "x3", "x2": "x4"}.get(signal)
            if twin:
                assert values == by_key[twin, mode, method] and values is not by_key[twin, mode, method]
        tables = {
            "minus zero first": CurveTable([1.0, 2.0, 3.0], [
                CurveColumn("x1", "ipSIC", "closed", [-0.0, 0.0, 0.5]),
                CurveColumn("x2", "ipSIC", "mc", [0.0, 0.25, -0.0], [-0.0, 0.0, 0.0], [0.5, 0.5, -0.0], 1000, 1),
            ]),
            "plus zero first": CurveTable([0.0, -0.0, 1.0], [
                CurveColumn("x1", "pSIC", "closed", [0.0, -0.0, -0.0]),
                CurveColumn("x2", "pSIC", "closed", [-0.0, 0.0, 1.0]),
            ]),
            "ints equal to floats": CurveTable([0, 5, 5.0], [
                CurveColumn("x1", "ipSIC", "closed", [1, 1.0, True]),
                CurveColumn("x2", "ipSIC", "closed", [2 ** 53, 2.0 ** 53, 0]),
            ]),
            "smallest subnormal": CurveTable([5e-324, 1.0], [
                CurveColumn("x1", "ipSIC", "mc", [5e-324, 0.0], [0.0, 0.0], [5e-324, 1e-323], 1000, 1),
            ]),
            "nan": CurveTable([0.0, 1.0, 2.0], [
                CurveColumn("x1", "ipSIC", "closed", [math.nan, float("nan"), 0.5]),
                CurveColumn("x2", "ipSIC", "closed", [0.5, math.nan, -math.nan]),
            ]),
            "symmetric groups": symmetric,
        }
        for case, table in tables.items():
            assert rows_to_csv(table) == reference_csv(table.rows()), case

    def test_csv_bytes_match_csv_writer_on_benchmark_shapes(self):
        # the writer fills every row's pieces by stride over the grid: check it on a fine grid of
        # 24 columns, on one MC point and on a table whose columns give only one CI bound
        groups_differ = table_config(varpi1=0.02, varpi2=0.004, omega_i_db=-13.0, rates=(0.1, 0.01, 0.12, 0.02))
        fine = run_sweep(SweepSpec(groups_differ, 0.0, 45.0, 0.05,
                                   methods=("closed", "asymptotic", "oma"), signals=experiments.SIGNALS))
        by_key = {(column.signal, column.sic_mode, column.method): column.values for column in fine.columns}
        for mode in SIC_MODES:
            for method in ("closed", "asymptotic", "oma"):
                # the groups differ, so no column repeats its twin's values
                assert by_key["x1", mode, method] != by_key["x3", mode, method]
                assert by_key["x2", mode, method] != by_key["x4", mode, method]
        tables = {
            "fine grid": fine,
            "one mc point": run_sweep(SweepSpec(table_config(), 30.0, 30.0, 1.0, methods=("closed", "mc"),
                                                signals=experiments.SIGNALS, trials=20_000, seed=5)),
            "one ci bound": CurveTable([0.0, 2.5, 5.0], [
                CurveColumn("x1", "ipSIC", "mc", [0.5, 0.25, 0.125], [0.25, 0.125, 0.0], None, 1000, 1),
                CurveColumn("x2", "pSIC", "mc", [0.5, 0.25, 0.0], None, [0.75, 0.5, 0.25], 1000, None),
                CurveColumn("x3", "ipSIC", "closed", [0.5, 0.25, 0.125]),
            ]),
        }
        assert len(fine) == 901 * 4 * 2 * 3
        for case, table in tables.items():
            assert rows_to_csv(table) == reference_csv(table.rows()), case

    def test_csv_bytes_match_csv_writer_on_random_tables(self):
        # the writer reuses a list's texts for a list that is the same object or holds equal values:
        # columns here share lists both ways, and hold the values that compare equal but write apart
        rng = random.Random(32)
        signed_zeros = CurveTable([0.0, 1.0], [
            CurveColumn("x1", "ipSIC", "closed", [-0.0, 1.0]),
            CurveColumn("x2", "ipSIC", "closed", [0.0, 1.0]),
        ])
        # [-0.0, 1.0] equals the grid [0.0, 1.0], whose texts come first
        assert rows_to_csv(signed_zeros) == reference_csv(signed_zeros.rows())
        assert rows_to_csv(signed_zeros).splitlines()[1] == "0.0,x1,ipSIC,closed,-0.0,,,,"
        atoms = [0.0, -0.0, 0, False, 1, True, 1.0, 2 ** 53, 2.0 ** 53, 5e-324, 0.5, 1 / 3, 1e300, None]  # None: a NaN
        for case in range(300):
            points = rng.randint(3, 40)
            nan = float("nan")  # a NaN object that several lists may share
            pool = []
            for _ in range(4):
                palette = rng.sample(atoms, rng.randint(1, 5))
                pool.append([
                    rng.random() if rng.random() < 0.2
                    else (rng.choice([nan, float("nan")]) if atom is None else atom)
                    for atom in (rng.choice(palette) for _ in range(points))
                ])
            pool += [list(values) for values in pool]  # the same values in another list
            pool += [[-value if value == 0 else value for value in values] for values in pool[:4]]  # zeros flipped
            columns = []
            for _ in range(rng.randint(1, 12)):
                ci_low, ci_high = (rng.choice(pool) if rng.random() < 0.6 else None for _ in range(2))
                mc = ci_low is not None or ci_high is not None or rng.random() < 0.2
                columns.append(CurveColumn(rng.choice(experiments.SIGNALS), rng.choice(SIC_MODES),
                                           "mc" if mc else "closed", rng.choice(pool), ci_low, ci_high,
                                           1000 if mc else None, rng.choice([1, None]) if mc else None))
            table = CurveTable(rng.choice(pool), columns)
            assert rows_to_csv(table) == reference_csv(table.rows()), case

    def test_csv_writer_peak_memory(self):
        # a 901-point grid of 48 columns, no two equal: the texts, the flat list and the joined text
        # are about 2.8 MiB; a value memo over the whole table took 3.2 MiB
        groups_differ = table_config(varpi1=0.02, varpi2=0.004, omega_i_db=-13.0, rates=(0.1, 0.01, 0.12, 0.02))
        fine = run_sweep(SweepSpec(groups_differ, 0.0, 45.0, 0.05,
                                   methods=("closed", "asymptotic", "oma"), signals=experiments.SIGNALS))
        rows_to_csv(fine)
        tracemalloc.start()
        try:
            rows_to_csv(fine)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * 2**20

    def test_deterministic_csv_bytes(self):
        spec = self.spec(methods=("closed", "mc"), trials=2000)
        first = rows_to_csv(run_sweep(spec))
        second = rows_to_csv(run_sweep(spec))
        assert first == second
        assert "\r" not in first and first.startswith("rho_db,signal,sic_mode,method,value")

    @pytest.mark.parametrize("columns", [
        [CurveColumn("x1", "ipSIC", "closed", [0.5])],
        [CurveColumn("x1", "ipSIC", "closed", [0.5, 0.25, 0.125])],
        [CurveColumn("x1", "ipSIC", "mc", [0.5, 0.25], [0.25], [0.75, 0.5], 1000, 1)],
        [CurveColumn("x1", "ipSIC", "mc", [0.5, 0.25], None, [0.75, 0.5, 0.25], 1000, 1)],
    ], ids=["short values", "long values", "short ci_low", "long ci_high"])
    def test_table_rejects_a_column_off_the_grid(self, columns):
        # unchecked, rows() raises IndexError on a short column and drops a long one's extra values
        with pytest.raises(ValueError, match=r"^column \('x1', 'ipSIC', '(closed|mc)'\) has [13] "):
            CurveTable([0.0, 1.0], columns)

    def test_mc_rows_carry_interval(self):
        rows = run_sweep(self.spec(methods=("mc",), rho_max_db=0.0)).rows()
        for row in rows:
            assert row.ci_low is not None and row.ci_low <= row.value <= row.ci_high
            assert row.trials == 2000 and row.seed == 3

    def test_one_engine_call_per_grid_point(self, monkeypatch):
        calls = count_engine_calls(monkeypatch)
        rows = run_sweep(self.spec(methods=("mc",), signals=("x1", "x2", "x3", "x4"), rho_max_db=10.0))
        assert len(rows) == 3 * 4 * 2
        assert calls == [(db, ("x1", "x2", "x3", "x4"), ("ipSIC", "pSIC")) for db in (0.0, 5.0, 10.0)]

    def test_one_quadrature_call_per_32_point_slice(self, monkeypatch):
        calls = []
        batched = experiments.quad_outages

        def counted(cases, *args):
            calls.append([(config.rho_db, signal, mode) for config, signal, mode in cases])
            return batched(cases, *args)

        monkeypatch.setattr(experiments, "quad_outages", counted)
        spec = self.spec(methods=("quad",), signals=("x1", "x4"), rho_max_db=45.0, rho_step_db=1.0)
        grid = spec.rho_grid_db()
        rows = run_sweep(spec).rows()
        assert len(grid) == 46 and len(rows) == 46 * 2 * 2
        # point by point within a slice, each point's cases in row order
        keys = [(signal, mode) for signal in ("x1", "x4") for mode in ("ipSIC", "pSIC")]
        assert calls == [[(db, *key) for db in points for key in keys] for points in (grid[:32], grid[32:])]
        for row in rows:
            case = (replace(table_config(), rho_db=row.rho_db), row.signal, row.sic_mode)
            assert row.value == oracle.quad_outages([case])[0]

    def test_one_constant_build_per_role_group_per_sweep(self, monkeypatch):
        calls = count_constant_builds(monkeypatch)
        spec = self.spec(methods=("closed", "asymptotic", "oma"), signals=("x1", "x2", "x3", "x4"), rho_max_db=10.0)
        rows = run_sweep(spec)
        assert len(rows) == 3 * 4 * 2 * 3
        assert [roles for roles, _ in calls] == [GROUP_ONE, GROUP_TWO]
        grid_rho = [replace(table_config(), rho_db=db).rho for db in (0.0, 5.0, 10.0)]
        assert all(rho.tolist() == grid_rho for _, rho in calls)
        calls.clear()
        run_sweep(replace(spec, signals=("x4", "x2")))
        assert [roles for roles, _ in calls] == [GROUP_TWO, GROUP_ONE]
        calls.clear()
        run_sweep(replace(spec, methods=("oma",)))
        assert calls == []

    @pytest.mark.parametrize("closed_at, oma_at, oma_first, closed_first", [
        (2, 1, "x2 oma at 5.0 dB", "x1 closed at 10.0 dB"),
        (1, 2, "x2 oma at 10.0 dB", "x1 closed at 5.0 dB"),
        (1, 1, "x2 oma at 5.0 dB", "x1 closed at 5.0 dB"),
    ])
    def test_first_bad_column_raises(self, monkeypatch, closed_at, oma_at, oma_first, closed_first):
        # methods run in the order given; a column raises at its first bad point, whatever later columns hold
        closed = bad_at(closed_at)
        monkeypatch.setitem(analysis.EVALUATORS, ("closed", "l"), lambda config, roles, dc, mode: closed(dc.rho))
        oma_x2 = bad_at(oma_at)
        monkeypatch.setattr(experiments, "oma_outage",
                            lambda config, signal, rho: oma_x2(rho) if signal == "x2" else 0.5)
        for methods, at in ((("oma", "closed"), oma_first), (("closed", "oma"), closed_first)):
            with pytest.raises(NumericError, match=re.escape(f"outage row out of range: {at} -> 1.5")):
                run_sweep(self.spec(methods=methods, rho_max_db=10.0))

    @pytest.mark.parametrize("finished_at, oma_at", [(2, 1), (1, 2), (1, 1)])
    def test_evaluator_error_raises_in_method_order(self, monkeypatch, finished_at, oma_at):
        # x2's asymptotic evaluator raises wherever its bad point lies; x1's TDMA column is bad at oma_at
        finished = bad_at(finished_at, 1.25)
        monkeypatch.setitem(analysis.EVALUATORS, ("asymptotic", "t"),
                            lambda config, roles, dc, mode: analysis._finish_probability(finished(dc.rho)))
        oma = bad_at(oma_at)
        monkeypatch.setattr(experiments, "oma_outage", lambda config, signal, rho: oma(rho))
        for methods, message in (
            (("oma", "asymptotic"), f"outage row out of range: x1 oma at {5.0 * oma_at} dB -> 1.5"),
            (("asymptotic", "oma"), "outage evaluation left [0, 1] by more than the clamp gate: 1.25"),
        ):
            with pytest.raises(NumericError, match=re.escape(message)):
                run_sweep(self.spec(methods=methods, rho_max_db=10.0))

    @pytest.mark.parametrize("failing, message", [
        (analysis._finish_probability, "outage evaluation left [0, 1] by more than the clamp gate: 1.5"),
        (lambda raw: raw, "outage row out of range: x1 closed at 20.0 dB -> 1.5"),
    ], ids=["evaluator error", "row out of range"])
    def test_failing_column_stops_the_sweep(self, monkeypatch, failing, message):
        # no MC point runs once the closed column has failed, not even those before its bad point
        calls = count_engine_calls(monkeypatch)
        closed = bad_at(4)
        monkeypatch.setitem(analysis.EVALUATORS, ("closed", "l"),
                            lambda config, roles, dc, mode: failing(closed(dc.rho)))
        with pytest.raises(NumericError, match=re.escape(message)):
            run_sweep(self.spec(methods=("closed", "mc"), rho_max_db=45.0))
        assert calls == []

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
        rows = run_sweep(self.spec(signals=("x1", "x2", "x3", "x4"), rho_max_db=10.0)).rows()
        by_key = {(r.rho_db, r.signal, r.sic_mode): r.value for r in rows}
        for (db, signal, mode), value in by_key.items():
            mirror = {"x1": "x3", "x2": "x4", "x3": "x1", "x4": "x2"}[signal]
            assert value == pytest.approx(by_key[(db, mirror, mode)], rel=1e-14)


def edge_scenarios():
    """Scenarios at the edges of the closed forms, each named after what it exercises."""
    base = SystemConfig(rho_db=0.0)
    return {
        "no cross-pair leakage": replace(base, varpi1=0.0),
        "no downlink leakage": replace(base, varpi2=0.0),
        "zero rates": replace(base, rates=(0.0, 0.0, 0.0, 0.0)),
        # tau_l = 0 at every point: the near-user stage's residual term drops out
        "zero stronger-signal rates": replace(base, rates=(0.0, 0.01, 0.0, 0.01)),
        # x1 and x2 cannot meet their targets: outage exactly 1 at every point
        "infeasible split": replace(base, rates=(1.0, 2.0, 0.1, 0.01)),
        # the smallest nonzero threshold, 2^-52: tau_l is about 1e-35 at 200 dB
        "tiny tau": replace(base, rates=(1e-16, 0.01, 1e-16, 0.01)),
    }


def domain_scenarios(count, seed):
    """Random scenarios from the physical domain of ``SystemConfig``, its corners weighted.

    Each parameter sits at the low or the high end of its range with
    probability 0.15 each, and is drawn across the range otherwise:
    log-uniformly for the variances, varpi1 and the nonzero rates, uniformly
    for the rest. varpi1 is 0 in a further 15 % of draws. Downlink splits
    keep b1 + b2 = 1 with b2 > b1.
    """
    rng = np.random.default_rng(seed)

    def draw(low, high, log=False):
        u = rng.uniform()
        if u < 0.3:
            return low if u < 0.15 else high
        if log:
            return float(10.0 ** rng.uniform(math.log10(low), math.log10(high)))
        return float(rng.uniform(low, high))

    def rate():
        return 0.0 if rng.uniform() < 0.15 else draw(1e-4, 8.0, log=True)

    found = []
    for _ in range(count):
        b1, b3 = draw(1e-6, 0.5 - 1e-6), draw(1e-6, 0.5 - 1e-6)
        found.append(SystemConfig(
            rho_db=draw(-100.0, 200.0),
            a=tuple(draw(1e-6, 1.0 - 1e-6) for _ in range(4)),
            b=(b1, 1.0 - b1, b3, 1.0 - b3),
            omega=tuple(draw(1e-6, 1e4, log=True) for _ in range(4)),
            omega_i_db=draw(-100.0, 30.0),
            varpi1=0.0 if rng.uniform() < 0.15 else draw(1e-12, 1.0, log=True),
            varpi2=draw(0.0, 1.0),
            rates=tuple(rate() for _ in range(4)),
        ))
    return found


def binomial_two_sided_tail(count, n, p):
    """Twice the smaller exact tail of ``count`` under Binomial(``n``, ``p``), at most 1."""
    if p > 0.5:  # the same test on the complementary count
        count, p = n - count, 1.0 - p
    log_pmf = [math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1) + j * math.log(p)
               + (n - j) * math.log1p(-p) for j in range(count + 1)]
    below_count = math.fsum(math.exp(v) for v in log_pmf[:-1])
    lower = below_count + math.exp(log_pmf[-1])
    upper = max(0.0, 1.0 - below_count)
    return min(1.0, 2.0 * min(lower, upper))


def test_plain_mc_tracks_the_closed_forms_across_the_domain():
    # bounds, seed and trials were fixed before the first run: a failing cell is a program fault
    n = 20_000
    for k, config in enumerate(domain_scenarios(120, seed=777)):
        estimates = montecarlo.mc_outage(config, experiments.SIGNALS, SIC_MODES, trials=n, seed=5)
        for (signal, mode), estimate in estimates.items():
            p = analysis.closed_outage(config, signal, mode)
            count = round(estimate.p_hat * n)
            cell = (k, signal, mode, p, count)
            if p in (0.0, 1.0):
                assert count == p * n, cell
            elif n * p * (1.0 - p) >= 10.0:
                assert abs(estimate.p_hat - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n), cell
            else:
                assert binomial_two_sided_tail(count, n, p) >= 1e-9, cell


class TestWholeGridColumns:
    """The closed, asymptotic and TDMA columns of a sweep against the per-point evaluators, by repr."""

    # odd offsets and steps from -60 to about 200 dB, and int bounds, whose rows keep int rho_db
    GRIDS = [(-60.0, 200.0, 4.7), (-59.3, 201.1, 6.13), (-60, 200, 13)]

    @staticmethod
    def scenarios():
        rng = np.random.default_rng(4242)
        randoms = {f"random {k}": random_valid_config(rng, force_degenerate=k == 0) for k in range(3)}
        corners = {f"domain {k}": config for k, config in enumerate(domain_scenarios(20, seed=1818))}
        return {**randoms, **edge_scenarios(), **corners}

    @staticmethod
    def scalar(method, config, signal, mode):
        """The per-point evaluator's value."""
        if method == "oma":
            return oma_outage(config, signal)
        evaluate = analysis.closed_outage if method == "closed" else analysis.asymptotic_outage
        return evaluate(config, signal, mode)

    def check_rows(self, config, grid):
        spec = SweepSpec(config=config, rho_min_db=grid[0], rho_max_db=grid[1], rho_step_db=grid[2],
                         methods=("closed", "asymptotic", "oma"), signals=experiments.SIGNALS, sic_modes=SIC_MODES)
        rows = run_sweep(spec).rows()
        points = spec.rho_grid_db()
        assert len(rows) == len(points) * 4 * 2 * 3
        assert [row.rho_db for row in rows[::24]] == points
        assert {type(row.rho_db) for row in rows} == {type(points[0])}
        for row in rows:
            at = replace(config, rho_db=row.rho_db)
            assert repr(row.value) == repr(self.scalar(row.method, at, row.signal, row.sic_mode)), row
        tp_rows = throughput_rows(replace(spec, methods=("closed", "oma"))).rows()
        assert len(tp_rows) == len(points) * 2 * 2
        for row in tp_rows:
            at = replace(config, rho_db=row.rho_db)
            outages = [self.scalar(row.method, at, signal, row.sic_mode) for signal in experiments.SIGNALS]
            assert repr(row.value) == repr(analysis.throughput_delay_limited(at, outages)), row
        return rows

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda grid: "{}..{} by {}".format(*grid))
    def test_every_row_matches_its_point(self, grid):
        for name, config in self.scenarios().items():
            rows = self.check_rows(config, grid)
            if name == "infeasible split":
                assert {row.value for row in rows if row.signal in ("x1", "x2") and row.method != "oma"} == {1.0}

    def test_int_bounds_keep_int_rho_db(self):
        rows = self.check_rows(SystemConfig(), (-60, 200, 13))
        assert {type(row.rho_db) for row in rows} == {int}

    @pytest.mark.parametrize("name", list(edge_scenarios()) + ["random 0", "random 1"])
    def test_evaluators_take_a_grid_without_warnings(self, name):
        # RuntimeWarning is an error in this suite, and no floating-point state is
        # relaxed here: masked branches must not divide by zero or overflow
        config = self.scenarios()[name]
        grid = [-60.0 + 2.9 * i for i in range(90)]
        rho = np.array([replace(config, rho_db=db).rho for db in grid])
        for signal in experiments.SIGNALS:
            roles, kind = model.signal_roles(signal)
            dc = model.build_derived_constants(config, roles, rho)
            for mode in SIC_MODES:
                for method in ("closed", "asymptotic"):
                    column = np.broadcast_to(analysis.EVALUATORS[method, kind](config, roles, dc, mode), rho.shape)
                    for db, value in zip(grid, column.tolist()):
                        at = replace(config, rho_db=db)
                        assert repr(value) == repr(self.scalar(method, at, signal, mode))
            oma = np.broadcast_to(oma_outage(config, signal, rho), rho.shape)
            for db, value in zip(grid, oma.tolist()):
                assert repr(value) == repr(oma_outage(replace(config, rho_db=db), signal))

    def test_exact_exp_follows_math_exp(self):
        x = -np.geomspace(1e-300, 700.0, 2001)
        assert model.exact_exp(x).tolist() == [math.exp(v) for v in x.tolist()]
        assert model.exact_exp(-1.5) == math.exp(-1.5) and type(model.exact_exp(-1.5)) is float


class TestThroughputRows:
    def test_composition_matches_direct_formula(self):
        spec = SweepSpec(
            config=table_config(), rho_min_db=30.0, rho_max_db=30.0, rho_step_db=5.0,
            methods=("closed",), sic_modes=("ipSIC",),
        )
        row = throughput_rows(spec).rows()[0]
        cfg = table_config()
        outages = [analysis.closed_outage(cfg, signal, "ipSIC") for signal in ("x1", "x2", "x3", "x4")]
        assert row.value == pytest.approx(analysis.throughput_delay_limited(table_config(), outages))
        assert row.signal == "sum"

    def test_one_engine_call_per_grid_point(self, monkeypatch):
        calls = count_engine_calls(monkeypatch)
        spec = SweepSpec(
            config=table_config(), rho_min_db=0.0, rho_max_db=10.0, rho_step_db=5.0,
            methods=("mc",), trials=2000, seed=3,
        )
        rows = throughput_rows(spec)
        assert len(rows) == 3 * 2
        assert calls == [(db, ("x1", "x2", "x3", "x4"), ("ipSIC", "pSIC")) for db in (0.0, 5.0, 10.0)]

    def test_one_constant_build_per_role_group_per_sweep(self, monkeypatch):
        calls = count_constant_builds(monkeypatch)
        spec = SweepSpec(
            config=table_config(), rho_min_db=0.0, rho_max_db=10.0, rho_step_db=5.0, methods=("closed", "oma"),
        )
        rows = throughput_rows(spec)
        assert len(rows) == 3 * 2 * 2
        assert [roles for roles, _ in calls] == [GROUP_ONE, GROUP_TWO]
        grid_rho = [replace(table_config(), rho_db=db).rho for db in (0.0, 5.0, 10.0)]
        assert all(rho.tolist() == grid_rho for _, rho in calls)

    def test_frozen_output_bytes(self, capsys):
        assert cli_sha256(capsys, FROZEN_THROUGHPUT_ARGV) == FROZEN_THROUGHPUT_SHA256

    def test_repeated_snr_values_keep_their_rows(self):
        # 199 grid points carry only 29 distinct rho_db values: every point keeps its own rows
        spec = SweepSpec(SystemConfig(), 45.0, 45.0 + 2e-13, 1e-15, methods=("closed", "mc", "oma"),
                         trials=1000, seed=5)
        assert len(spec.rho_grid_db()) == 199 and len(set(spec.rho_grid_db())) == 29
        rows = throughput_rows(spec).rows()
        assert len(rows) == 199 * 2 * 3
        # recorded when throughput evaluated its own grid columns and MC points
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "320f3e1303eb41dc4b67b7bba56479259c4d9365fe3ca9f9a5c478c343e061fb")

    @pytest.mark.parametrize("finished_at, oma_at", [(2, 1), (1, 2), (1, 1)])
    def test_first_failing_method_raises(self, monkeypatch, finished_at, oma_at):
        finished = bad_at(finished_at, 1.25)
        monkeypatch.setitem(analysis.EVALUATORS, ("closed", "t"),
                            lambda config, roles, dc, mode: analysis._finish_probability(finished(dc.rho)))
        oma = bad_at(oma_at)
        monkeypatch.setattr(experiments, "oma_outage", lambda config, signal, rho: oma(rho))
        for methods, message in (
            (("oma", "closed"), f"outage row out of range: x1 oma at {5.0 * oma_at} dB -> 1.5"),
            (("closed", "oma"), "outage evaluation left [0, 1] by more than the clamp gate: 1.25"),
        ):
            spec = SweepSpec(config=table_config(), rho_min_db=0.0, rho_max_db=10.0, rho_step_db=5.0, methods=methods)
            with pytest.raises(NumericError, match=re.escape(message)):
                throughput_rows(spec)

    def test_bad_method_rejected_before_any_work(self, monkeypatch):
        calls = count_engine_calls(monkeypatch)
        spec = SweepSpec(
            config=table_config(), rho_min_db=0.0, rho_max_db=10.0, rho_step_db=5.0,
            methods=("mc", "quad"), trials=2000, seed=3,
        )
        with pytest.raises(ConfigError, match="quad"):
            throughput_rows(spec)
        assert calls == []

    def test_bounded_by_rate_sum(self):
        spec = SweepSpec(
            config=table_config(), rho_min_db=0.0, rho_max_db=45.0, rho_step_db=5.0, methods=("closed", "oma"),
        )
        for row in throughput_rows(spec).rows():
            assert 0.0 <= row.value <= 0.22 + 1e-12


class TestCrossover:
    def test_crossover_exists_and_is_deterministic(self):
        cfg = table_config()
        first = crossover_snr_db(cfg, "x1", "ipSIC")
        second = crossover_snr_db(cfg, "x1", "ipSIC")
        assert first is not None and first == second
        below = replace(cfg, rho_db=first - 3.0)
        above = replace(cfg, rho_db=first + 3.0)
        assert analysis.closed_outage(below, "x1", "ipSIC") < oma_outage(below, "x1")
        assert analysis.closed_outage(above, "x1", "ipSIC") > oma_outage(above, "x1")

    def test_no_crossover_reported_when_absent(self):
        # without leakage, under pSIC, x2 at rates (0.5, 0.3, 0.5, 0.3) stays
        # at or below the baseline over the whole 0-45 dB window: both are 1
        # at 0 dB, and at 45 dB they read 0.0206 against 0.0267. (At the
        # default rates x2 pSIC crosses at 30.95 dB.)
        cfg = table_config(varpi1=0.0, varpi2=0.0, rates=(0.5, 0.3, 0.5, 0.3))
        assert crossover_snr_db(cfg, "x2", "pSIC") is None


    @pytest.mark.parametrize("signal", ["x1", "x2", "x3", "x4"])
    @pytest.mark.parametrize("mode", SIC_MODES)
    @pytest.mark.parametrize("scenario", [
        {},
        # no crossing for x2 and x4 under pSIC (see the test above)
        dict(varpi1=0.0, varpi2=0.0, rates=(0.5, 0.3, 0.5, 0.3)),
    ], ids=["default", "no_leakage_low_rates"])
    def test_crossover_is_the_first_rise_on_figure_one_window(self, scenario, signal, mode):
        # the gaps are evaluated point by point, not through the sweep's whole-grid columns
        cfg = table_config(**scenario)
        lo_db, hi_db = experiments.FIGURE_WINDOW_DB

        def gap(rho_db):
            at = replace(cfg, rho_db=rho_db)
            return analysis.closed_outage(at, signal, mode) - oma_outage(at, signal)

        grid = [lo_db + 0.25 * i for i in range(round((hi_db - lo_db) / 0.25) + 1)]
        gaps = [gap(rho_db) for rho_db in grid]
        rises = [i for i in range(1, len(grid)) if gaps[i - 1] <= 0.0 < gaps[i]]
        cross = crossover_snr_db(cfg, signal, mode)
        if gaps[0] > 0.0 or not rises:
            assert cross is None
        else:
            assert grid[rises[0] - 1] <= cross <= grid[rises[0]]
            assert gap(cross - 1e-6) <= 0.0 < gap(cross + 1e-6)

    @pytest.mark.parametrize("phases", [8, 4, 2])
    def test_low_snr_crossover_rests_on_the_eight_phase_baseline(self, phases, monkeypatch):
        # claim 1, that the superposed scheme beats TDMA at low SNR (criterion
        # 5, figure 1's crossover lines), holds only with the eight-phase TDMA
        # round; with four or two phases its outage is already above TDMA's at 0 dB
        monkeypatch.setattr(experiments, "OMA_PHASES", phases)
        cfg = SystemConfig()
        crossings = {(s, m): crossover_snr_db(cfg, s, m) for s in ("x1", "x2") for m in SIC_MODES}
        if phases == 8:
            expected = {("x1", "ipSIC"): 18.28, ("x1", "pSIC"): 28.65, ("x2", "ipSIC"): 13.40, ("x2", "pSIC"): 20.37}
            assert crossings == pytest.approx(expected, abs=0.005)
        else:
            assert set(crossings.values()) == {None}
            at = replace(cfg, rho_db=0.0)
            for signal, mode in crossings:
                assert analysis.closed_outage(at, signal, mode) > oma_outage(at, signal)

    def test_scans_figure_one_window_in_quarter_decibels(self, monkeypatch):
        scanned = []
        sweep = experiments.run_sweep

        def recording(spec):
            scanned.append(spec)
            return sweep(spec)

        monkeypatch.setattr(experiments, "run_sweep", recording)
        crossover_snr_db(table_config(), "x1", "ipSIC")
        (spec,) = scanned
        assert (spec.rho_min_db, spec.rho_max_db, spec.rho_step_db) == (*experiments.FIGURE_WINDOW_DB, 0.25)
        # figure 1's own grid spans the same window
        figure_grid = figure_preset(1, trials=1000)[""].rho_db
        assert (figure_grid[0], figure_grid[-1]) == experiments.FIGURE_WINDOW_DB


def closed_rows(table):
    """The rows of ``table``'s closed-form columns."""
    return [row for row in table.rows() if row.method == "closed"]


class TestFigurePresets:
    def test_preset_one_orders_modes(self):
        rows = closed_rows(figure_preset(1, trials=1000)[""])
        closed = {(r.rho_db, r.signal, r.sic_mode): r.value for r in rows}
        for (db, signal, mode), value in closed.items():
            if mode == "pSIC":
                assert value <= closed[(db, signal, "ipSIC")] + 1e-15

    def test_preset_two_benchmark_is_strictly_best(self):
        variants = figure_preset(2, trials=1000)
        best = {(r.rho_db, r.signal, r.sic_mode): r.value for r in closed_rows(variants["varpi_0"])}
        for label in ("varpi_0.01", "varpi_0.1"):
            for row in closed_rows(variants[label]):
                assert best[(row.rho_db, row.signal, row.sic_mode)] < row.value

    def test_preset_three_sweeps_residual_variance(self):
        variants = figure_preset(3, trials=1000)
        assert set(variants) == {"omega_i_-20dB", "omega_i_-10dB", "omega_i_0dB"}
        worst = {(r.rho_db, r.signal): r.value for r in closed_rows(variants["omega_i_0dB"]) if r.sic_mode == "ipSIC"}
        for row in closed_rows(variants["omega_i_-20dB"]):
            if row.sic_mode == "ipSIC":
                assert row.value <= worst[(row.rho_db, row.signal)] + 1e-15

    def test_preset_four_emits_throughput(self):
        variants = figure_preset(4, trials=1000)
        assert set(variants) == {"omega_i_-20dB", "omega_i_-10dB"}
        for table in variants.values():
            assert closed_rows(table)
            assert all(row.signal == "sum" for row in table.rows())

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            figure_preset(9)


class TestOracleAgreementSuite:
    def test_small_randomized_run(self):
        report = oracle_agreement(n_configs=20, seed=7)
        assert report.max_rel_err_distinct <= 1e-6
        assert report.max_rel_err_degenerate <= 1e-5

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match=re.escape("seed must be non-negative, got -1")):
            oracle_agreement(2, seed=-1)

    @pytest.mark.parametrize("n_configs", [2.5, 4.0, "4"])
    def test_non_integer_scenario_count_rejected(self, n_configs):
        with pytest.raises(ConfigError, match=re.escape(f"n_configs must be an integer, got {n_configs!r}")):
            oracle_agreement(n_configs)

    def test_numpy_integer_scenario_count_accepted(self):
        assert oracle_agreement(np.int64(4)) == oracle_agreement(4)

    def test_validate_without_seed_prints_the_default_report(self, capsys):
        assert cli.main(["validate", "--configs", "4"]) == 0
        report = oracle_agreement(4)
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "checked 4 random scenarios (both signals, both SIC modes)"
        assert f"{report.max_rel_err_distinct:.3e} (tolerance" in lines[1]
        assert f"{report.max_rel_err_degenerate:.3e} (tolerance" in lines[2]


# Every entry point that takes a seed, or a trial count, and the defaults they must share.
@pytest.mark.parametrize("entry", [
    model.RunSettings, SweepSpec, figure_preset, montecarlo.mc_outage, montecarlo.mc_ergodic_rates, oracle_agreement,
])
def test_one_default_seed_and_trial_count(entry):
    parameters = inspect.signature(entry).parameters
    assert parameters["seed"].default == model.DEFAULT_SEED
    if "trials" in parameters:
        assert parameters["trials"].default == model.DEFAULT_TRIALS


SCENARIO_FLAGS = {"--config", "--varpi1", "--varpi2", "--omega-i-db"}
RUN_FLAGS = {"--trials", "--seed", "--out", "--format"}
GRID_FLAGS = {"--rho-min-db", "--rho-max-db", "--rho-step-db"}
# Each subcommand's option strings: only the flags it reads.
SUBCOMMAND_FLAGS = {
    "outage": {"--rho-db", "--sic", "--signals", "--methods"} | SCENARIO_FLAGS | RUN_FLAGS,
    "sweep": GRID_FLAGS | {"--sic", "--signals", "--methods"} | SCENARIO_FLAGS | RUN_FLAGS,
    "throughput": GRID_FLAGS | {"--sic", "--methods"} | SCENARIO_FLAGS | RUN_FLAGS,
    "diversity": {"--signal", "--sic", "--rho-lo-db", "--rho-hi-db"} | SCENARIO_FLAGS,
    "validate": {"--configs", "--rel-tol", "--rel-tol-degenerate", "--seed"},
    "figure": {"--id"} | RUN_FLAGS,
}
# Flags these subcommands once accepted and ignored, each with a value; the
# path placeholders become a scenario file and an output file.
REMOVED_FLAGS = [
    (["diversity", "--signal", "x1"], flag, value)
    for flag, value in (("--trials", "2000"), ("--seed", "3"), ("--out", "OUT"), ("--format", "json"))
] + [
    (["validate", "--configs", "2"], flag, value)
    for flag, value in (("--config", "CONFIG"), ("--varpi1", "0.9"), ("--varpi2", "0.5"), ("--omega-i-db", "3"),
                        ("--trials", "7"), ("--out", "OUT"), ("--format", "json"))
] + [
    (["figure", "--id", "4"], flag, value)
    for flag, value in (("--config", "CONFIG"), ("--varpi1", "0.5"), ("--varpi2", "0.5"), ("--omega-i-db", "3"))
]


def subcommand_flags() -> dict[str, set[str]]:
    (sub,) = [action for action in cli.build_parser()._actions if isinstance(action, argparse._SubParsersAction)]
    return {
        name: {flag for action in parser._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, parser in sub.choices.items()
    }


class TestCliFlags:
    def test_each_subcommand_has_only_the_flags_it_reads(self):
        flags = subcommand_flags()
        assert flags == SUBCOMMAND_FLAGS
        assert {name: len(f) for name, f in flags.items()} == {
            "outage": 12, "sweep": 14, "throughput": 13, "diversity": 8, "validate": 4, "figure": 5,
        }

    @pytest.mark.parametrize("base, flag, value", REMOVED_FLAGS,
                             ids=[f"{base[0]} {flag}" for base, flag, _ in REMOVED_FLAGS])
    def test_removed_flag_exits_one(self, base, flag, value, tmp_path, capsys):
        scenario, out = tmp_path / "s.cfg", tmp_path / "out.csv"
        scenario.write_text("varpi1 = 0.5\n", encoding="utf-8")
        value = {"CONFIG": str(scenario), "OUT": str(out)}.get(value, value)
        assert cli.main([*base, flag, value]) == 1
        captured = capsys.readouterr()
        assert f"configuration error: unrecognized arguments: {flag} {value}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["validate", "--config", "3"], ["outage", "--rho", "30"]])
    def test_flags_match_whole_names(self, argv, capsys):
        # a prefix of a flag is not that flag: --config must not run validate --configs 3
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert f"configuration error: unrecognized arguments: {argv[1]} {argv[2]}" in captured.err
        assert captured.out == ""


class TestSharedParser:
    def test_one_parser_per_process(self, monkeypatch, capsys):
        assert cli.build_parser() is cli.build_parser()
        cli.build_parser.cache_clear()
        built = []
        init = cli._Parser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counted)
        for argv in (["figure", "--id", "4"], ["diversity", "--signal", "x2"], ["validate", "--configs", "2"]):
            assert cli.main(argv) == 0
        assert built.count("twrnoma") == 1

    def test_no_state_carried_between_calls(self, tmp_path, capsys):
        scenario = tmp_path / "s.cfg"
        scenario.write_text("rho_db = 12\n", encoding="utf-8")
        sequence = [
            ["validate", "--configs", "2", "--trials", "7"],
            ["no-such-command"],
            ["outage", "--rho-db", "30", "--signals", "x1", "--methods", "closed"],
            ["outage", "--config", str(scenario), "--signals", "x1", "--methods", "closed"],
            ["diversity", "--signal", "x2", "--sic", "p"],
            ["validate", "--configs", "2", "--seed", "3"],
        ]

        def run(fresh_parser: bool) -> list[tuple[int, str, str]]:
            cli.build_parser.cache_clear()
            results = []
            for argv in sequence:
                if fresh_parser:
                    cli.build_parser.cache_clear()
                code = cli.main(argv)
                captured = capsys.readouterr()
                results.append((code, captured.out, captured.err))
            return results

        shared = run(fresh_parser=False)
        assert [code for code, _, _ in shared] == [1, 1, 0, 0, 0, 0]
        # the file's SNR, not the previous call's --rho-db
        assert [row.split(",")[0] for row in shared[3][1].splitlines()[1:]] == ["12.0", "12.0"]
        assert shared == run(fresh_parser=True)


class TestCli:
    def test_outage_csv_to_stdout(self, capsys):
        assert cli.main(["outage", "--rho-db", "30", "--signals", "x1", "--methods", "closed"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("rho_db,signal,sic_mode,method,value")
        assert "x1,ipSIC,closed" in out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_writes_file(self, fmt, tmp_path, capsys):
        argv = ["sweep", "--rho-min-db", "0", "--rho-max-db", "10", "--rho-step-db", "5",
                "--signals", "x1", "--methods", "closed,mc,oma", "--trials", "2000", "--format", fmt]
        assert cli.main(argv) == 0
        shown = capsys.readouterr().out
        target = tmp_path / f"sweep.{fmt}"
        assert cli.main([*argv, "--out", str(target)]) == 0
        assert capsys.readouterr() == (f"wrote {3 * 2 * 3} rows to {target}\n", "")
        assert target.read_bytes() == shown.encode("utf-8")
        if fmt == "csv":
            assert len(shown.splitlines()) == 1 + 3 * 2 * 3
        else:
            assert len(json.loads(shown)) == 3 * 2 * 3 and json.loads(shown)[0]["ci_low"] is None

    def test_unwritable_out_exits_one(self, tmp_path, capsys):
        target = tmp_path / "missing" / "sweep.csv"
        assert cli.main(["sweep", "--rho-max-db", "10", "--out", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"configuration error: cannot write output file {str(target)!r}: ")
        assert captured.out == ""
        assert not target.parent.exists()

    def test_overflowing_distances_exit_one(self, tmp_path, capsys):
        scenario = tmp_path / "s.cfg"
        scenario.write_text("d1 = 1e-300\nd2 = 10\nalpha = 10\n", encoding="utf-8")
        assert cli.main(["outage", "--config", str(scenario)]) == 1
        assert capsys.readouterr() == ("", "configuration error: d1 = 1e-300, d2 = 10.0 and alpha = 10.0 give a "
                                           "channel variance beyond float range\n")

    def test_config_file_and_overrides(self, tmp_path, capsys):
        scenario = tmp_path / "s.cfg"
        scenario.write_text("rho_db=20\nvarpi1=0.1\nvarpi2=0.1\n", encoding="utf-8")
        code = cli.main(["outage", "--config", str(scenario), "--signals", "x1",
                         "--methods", "closed", "--sic", "ip", "--varpi1", "0.01"])
        assert code == 0
        row = capsys.readouterr().out.splitlines()[1]
        cfg = table_config(rho_db=20.0, varpi1=0.01, varpi2=0.1)
        assert repr(analysis.closed_outage(cfg, "x1", "ipSIC")) in row

    def test_bad_flag_value_exits_one(self, capsys):
        assert cli.main(["sweep", "--rho-min-db", "10", "--rho-max-db", "0"]) == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, plain", [
        (["outage", "--omega-i-db", "-2e1"], ["outage", "--omega-i-db", "-20"]),
        (["outage", "--omega-i-db", "-2.E+1", "--rho-db", "-.5e1"], ["outage", "--omega-i-db", "-20", "--rho-db", "-5"]),
        (["sweep", "--rho-min-db", "-1e1", "--rho-max-db", "0"], ["sweep", "--rho-min-db", "-10", "--rho-max-db", "0"]),
        (["throughput", "--rho-min-db", "-1E1", "--rho-max-db", "0"], ["throughput", "--rho-min-db", "-10", "--rho-max-db", "0"]),
    ])
    def test_negative_number_in_exponent_notation(self, argv, plain, capsys):
        # a negative value in exponent notation is the flag's value, as -20 or --flag=-2e1 is
        assert cli.main(argv) == 0
        taken = capsys.readouterr()
        assert cli.main(plain) == 0
        assert taken == capsys.readouterr() and taken.out.count("\n") > 1

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

    def test_too_few_trials_exit_one_only_with_mc(self, capsys):
        assert cli.main(["outage", "--methods", "closed", "--trials", "500"]) == 0
        capsys.readouterr()
        assert cli.main(["outage", "--methods", "closed,mc", "--trials", "500"]) == 1
        captured = capsys.readouterr()
        assert "configuration error: at least 1000 trials are required, got 500" in captured.err
        assert captured.out == ""

    # (argv, config file text or None, the field the error names)
    OUT_OF_DOMAIN = [
        (["outage", "--rho-db", "3090"], None, "rho_db"),
        (["outage", "--omega-i-db", "5000"], None, "omega_i_db"),
        (["throughput", "--rho-max-db", "4000", "--rho-step-db", "1000"], None, "rho_db"),
        (["sweep", "--rho-max-db", "1e308", "--rho-step-db", "1e307"], None, "rho_db"),
        (["diversity", "--rho-lo-db", "40", "--rho-hi-db", "1e6"], None, "rho_db"),
        (["outage", "--rho-db", "250"], None, "rho_db"),
        (["outage", "--rho-db", "-150"], None, "rho_db"),
        (["outage", "--rho-db", "-3000", "--methods", "quad"], None, "rho_db"),
        (["outage", "--omega-i-db", "-101", "--methods", "mc", "--trials", "2000"], None, "omega_i_db"),
        (["outage", "--varpi1", "1e-13"], None, "varpi1"),
        (["outage", "--varpi2", "1.5"], None, "varpi2"),
        (["outage", "--methods", "oma"], "r1 = 10\nr2 = 0.01\nr3 = 0.1\nr4 = 0.01\n", "rates"),
        (["outage", "--methods", "closed"], "a1 = 0\na2 = 0.2\na3 = 0.8\na4 = 0.2\n", "a"),
        (["outage", "--rho-db", "100"], "omega2 = 1e200\nomega1 = 0.25\nomega3 = 0.25\nomega4 = 1e200\n", "omega"),
        (["sweep", "--rho-min-db", "-3070", "--rho-max-db", "-3070", "--methods", "closed,oma"], None, "rho_db"),
        (["sweep", "--rho-min-db", "190", "--rho-max-db", "210", "--methods", "closed,mc"], None, "rho_db"),
        (["throughput", "--rho-min-db", "-3070", "--rho-max-db", "-3070"], None, "rho_db"),
        (["throughput", "--methods", "closed"], "b1 = 0\nb2 = 1\nb3 = 0.2\nb4 = 0.8\n", "b"),
        (["diversity", "--varpi1", "1e-310"], None, "varpi1"),
        (["diversity", "--omega-i-db", "31"], None, "omega_i_db"),
    ]

    @pytest.mark.parametrize("argv, text, field", OUT_OF_DOMAIN,
                             ids=[f"argv{k}-{field}" for k, (_, _, field) in enumerate(OUT_OF_DOMAIN)])
    def test_out_of_domain_value_exits_one(self, argv, text, field, tmp_path, capsys):
        if text is not None:
            scenario = tmp_path / "s.cfg"
            scenario.write_text(text, encoding="utf-8")
            argv = [*argv, "--config", str(scenario)]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"configuration error: {field} = ")
        assert "is outside the domain: " in captured.err
        assert captured.out == ""

    # (argv, config file text): a file value outside the domain that a flag
    # replaces, or that the command never reads, is never checked
    REPLACED_OR_UNREAD = [
        (["sweep", "--rho-max-db", "10", "--methods", "closed"], "rho_db = 250\n"),
        (["throughput", "--rho-max-db", "10", "--methods", "closed"], "rho_db = 250\n"),
        (["diversity", "--signal", "x1"], "rho_db = 250\n"),
        (["outage", "--rho-db", "30", "--methods", "closed"], "rho_db = 250\n"),
        (["outage", "--varpi1", "0.01", "--methods", "closed"], "varpi1 = 5\n"),
        (["outage", "--varpi2", "0.01", "--omega-i-db", "-20", "--methods", "closed"], "varpi2 = 2\nomega_i_db = 50\n"),
    ]

    @pytest.mark.parametrize("argv, text", REPLACED_OR_UNREAD, ids=[argv[0] for argv, _ in REPLACED_OR_UNREAD])
    def test_replaced_or_unread_file_value_is_not_checked(self, argv, text, tmp_path, capsys):
        scenario = tmp_path / "s.cfg"
        scenario.write_text(text, encoding="utf-8")
        assert cli.main([*argv, "--config", str(scenario)]) == 0
        with_file = capsys.readouterr()
        # the same bytes as the defaults, which the replaced and unread values equal
        assert cli.main(argv) == 0
        assert capsys.readouterr() == with_file and with_file.err == ""

    @pytest.mark.parametrize("argv, text, field", [
        (["outage", "--methods", "closed"], "rho_db = 250\n", "rho_db"),
        (["outage", "--varpi2", "0.01", "--methods", "closed"], "varpi1 = 5\n", "varpi1"),
        (["sweep", "--rho-max-db", "10", "--varpi1", "0.01"], "rho_db = 250\nvarpi2 = 2\n", "varpi2"),
    ], ids=["rho_db", "varpi1", "varpi2"])
    def test_file_value_no_flag_replaces_is_checked(self, argv, text, field, tmp_path, capsys):
        scenario = tmp_path / "s.cfg"
        scenario.write_text(text, encoding="utf-8")
        assert cli.main([*argv, "--config", str(scenario)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"configuration error: {field} = ")
        assert "is outside the domain: " in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["sweep", "throughput"])
    def test_in_domain_file_rho_db_leaves_a_grid_unchanged(self, command, tmp_path, capsys):
        scenario = tmp_path / "s.cfg"
        scenario.write_text("rho_db = 5\n", encoding="utf-8")
        argv = [command, "--rho-max-db", "10", "--methods", "closed,oma"]
        assert cli.main([*argv, "--config", str(scenario)]) == 0
        with_file = capsys.readouterr().out
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == with_file

    def test_float_error_on_the_grid_exits_two(self, monkeypatch, capsys):
        # x/0 raises on an SNR grid, where it could turn into a valid-looking exp(-inf)
        monkeypatch.setitem(analysis.EVALUATORS, ("closed", "l"), lambda config, roles, dc, mode: 1.0 / (0.0 * dc.rho))
        assert cli.main(["sweep", "--methods", "closed"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("numeric error: divide by zero")
        assert captured.out == ""

    def test_sic_mode_key_in_config_file_exits_one(self, tmp_path, capsys):
        scenario = tmp_path / "s.cfg"
        scenario.write_text("sic_mode = pSIC\n", encoding="utf-8")
        assert cli.main(["outage", "--config", str(scenario), "--methods", "closed"]) == 1
        captured = capsys.readouterr()
        assert "configuration error: " in captured.err and "unknown key 'sic_mode'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--signals", "x1,x1", "--rho-max-db", "0"], "signal 'x1' is selected more than once"),
        (["outage", "--methods", "closed,closed"], "method 'closed' is selected more than once"),
        (["throughput", "--methods", "closed,closed"], "method 'closed' is selected more than once"),
    ])
    def test_repeated_selection_exits_one(self, argv, message, capsys):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: {message}\n"
        assert captured.out == ""

    def test_unknown_method_exits_one(self, capsys):
        assert cli.main(["outage", "--methods", "sorcery"]) == 1

    # the comma lists are split by the CLI and checked by SweepSpec, or by throughput_rows for its methods
    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--signals", "x9"], "unknown signal 'x9'; expected one of ('x1', 'x2', 'x3', 'x4')"),
        (["outage", "--methods", "foo"], "unknown method 'foo'; expected one of " + str(experiments.METHODS)),
        (["throughput", "--methods", "foo"], "unknown method 'foo'; expected one of " + str(experiments.METHODS)),
        (["throughput", "--methods", "quad"], "throughput supports closed, mc or oma, not 'quad'"),
        (["sweep", "--signals", ","], "methods, signals and sic_modes must be non-empty"),
    ])
    def test_bad_list_exits_one(self, argv, message, capsys):
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", f"configuration error: {message}\n")

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
