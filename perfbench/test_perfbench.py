"""Self-tests of the benchmark: the checks catch planted faults, and tracing
off leaves the package untouched.

Run from the root of the checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import tracer as tracer_module  # noqa: E402
from tracer import REGISTRY, Tracer, attribute_snapshot  # noqa: E402

import twrnoma.cli as cli  # noqa: E402

VALIDATE_PASS = (
    "checked 20 random scenarios (both signals, both SIC modes)\n"
    "max relative error, distinct rates:        1.234e-09 (tolerance 1.0e-06)\n"
    "max relative error, near-coincident rates: 2.000e-08 (tolerance 1.0e-05)\n"
    "agreement: PASS\n"
)


def _cli(argv):
    code, out, _, _ = run.run_cli(cli, argv)
    return code, out


def _to_csv(rows: list[dict]) -> str:
    header = ",".join(rows[0])
    return "\n".join([header] + [",".join(r.values()) for r in rows]) + "\n"


@pytest.fixture(scope="module")
def mc_rows():
    code, out = _cli([
        "sweep", "--methods", "closed,mc", "--signals", "x1,x2", "--rho-min-db", "0",
        "--rho-max-db", "5", "--rho-step-db", "2.5", "--trials", "20000", "--seed", "3",
    ])
    assert code == 0
    return list(checks.iter_rows(out))


def test_mc_rows_of_a_correct_program_pass(mc_rows):
    report = checks.Report()
    checks.check_mc_rows(mc_rows, report)
    assert report.attempted == 2 * 12 and report.failed == 0, report.failures


def test_mc_row_shifted_by_10_sigma_is_flagged(mc_rows):
    closed = {checks.point_key(r): float(r["value"]) for r in mc_rows if r["method"] == "closed"}
    mc = [r for r in mc_rows if r["method"] == "mc"]
    target = max(mc, key=lambda r: closed[checks.point_key(r)] * (1 - closed[checks.point_key(r)]))
    p, n = closed[checks.point_key(target)], int(target["trials"])
    sigma_count = math.sqrt(n * p * (1 - p))
    assert checks.mc_count_bound(p, n) < 10 * sigma_count
    shifted = round(n * p + 10 * sigma_count) / n
    planted = dict(target, value=repr(shifted), ci_low="0.0", ci_high="1.0")
    rows = [planted if r is target else r for r in mc_rows]
    report = checks.Report()
    checks.check_mc_rows(list(checks.iter_rows(_to_csv(rows))), report)
    assert report.failed == 1 and "MC row" in report.failures[0]


def test_mc_ci_that_misses_p_hat_is_flagged(mc_rows):
    target = next(r for r in mc_rows if r["method"] == "mc")
    rows = [dict(r, ci_high=repr(float(r["value"]) / 2)) if r is target else r for r in mc_rows]
    report = checks.Report()
    checks.check_mc_rows(rows, report)
    assert report.failed == 1 and "bracket" in report.failures[0]


def test_canned_validate_output_matches_the_program():
    code, out = _cli(["validate", "--configs", "2", "--seed", "5"])
    assert code == 0
    assert checks.parse_validate(out) is not None
    assert out.splitlines()[0] == "checked 2 random scenarios (both signals, both SIC modes)"
    assert [line.split(":")[0] for line in out.splitlines()] == [
        line.split(":")[0] for line in VALIDATE_PASS.replace("20", "2").splitlines()
    ]


@pytest.mark.parametrize(
    "text, fails",
    [
        (VALIDATE_PASS, 0),
        (VALIDATE_PASS.replace("agreement: PASS", "agreement: FAIL"), 1),
        (VALIDATE_PASS.replace("1.234e-09", "3.000e-06"), 1),
        (VALIDATE_PASS.replace("checked 20", "checked 19"), 1),
        ("", 1),
    ],
)
def test_validate_check(text, fails):
    report = checks.Report()
    checks.check_validate(text, 20, report)
    assert report.failed == fails, report.failures


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_non_zero_exit_is_flagged(name, tmp_path):
    workload = workloads.WORKLOADS[name](1, tmp_path)
    report = checks.Report()
    workload.inspect(0, 2, "numeric error: something\n", report)
    assert report.failed >= 1 and "exit code 2" in report.failures[0]


def test_cli_error_exit_reaches_the_check():
    code, out = _cli(["sweep", "--rho-step-db", "-1"])
    report = checks.Report()
    workloads.McSweep(1, Path(".")).inspect(0, code, out, report)
    assert code == 1 and report.failed >= 1


def test_closed_grid_rotates_scenarios(tmp_path):
    workload = workloads.ClosedGrid(4, tmp_path)
    n = workload.SCENARIOS
    assert len({tuple(workload.argv(i)) for i in range(n)}) == n
    assert workload.argv(n) == workload.argv(0)


def test_closed_grid_checks_catch_planted_rows(tmp_path):
    workload = workloads.ClosedGrid(4, tmp_path, step_db=5.0)
    report = checks.Report()
    workload.setup(lambda argv: run.run_cli(cli, argv)[:3], report)
    assert sum(len(s.refs) for s in workload.scenarios) == workload.QUAD_POINTS
    for index in range(workload.SCENARIOS):
        code, out = _cli(workload.argv(index))
        workload.inspect(index, code, out, report)
    assert report.failed == 0, report.failures

    code, out = _cli(workload.argv(0))
    rows = list(checks.iter_rows(out))
    oma = next(r for r in rows if r["method"] == "oma")
    ref_key = next(iter(workload.scenarios[0].refs))
    closed = next(r for r in rows if r["method"] == "closed" and checks.point_key(r) == ref_key)
    planted = [
        dict(r, value=repr(float(r["value"]) * (1 - 1e-9))) if r is oma
        else dict(r, value=repr(float(r["value"]) * (1 - 1e-4))) if r is closed
        else r
        for r in rows
    ]
    report = checks.Report()
    workload.inspect(workload.SCENARIOS, 0, _to_csv(planted), report)
    assert report.failed == 1 and "differs" in report.failures[0]
    report = checks.Report()
    workload.inspect(0, 0, _to_csv(planted), report)
    assert report.failed == 2, report.failures


def test_untraced_run_leaves_every_attribute_identical(tmp_path):
    before = attribute_snapshot()
    report = checks.Report()
    units = run.run_phase(workloads.McPoint(1, tmp_path, trials=2000), cli, report, seconds=0.2)
    after = attribute_snapshot()
    assert len(units) >= run.MIN_UNITS and report.failed == 0
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())


def test_tracer_patches_every_reference_and_restores_it():
    import twrnoma
    import twrnoma.experiments as experiments
    import twrnoma.montecarlo as montecarlo

    before = attribute_snapshot()
    original = montecarlo.mc_outage_xl
    missing = (("twrnoma.montecarlo", "no_such_function", "montecarlo.gone", True, None, None),)
    tracer = Tracer(registry=REGISTRY + missing)
    with tracer.installed():
        assert experiments.mc_outage_xl is montecarlo.mc_outage_xl is twrnoma.mc_outage_xl
        assert montecarlo.mc_outage_xl is not original
        assert montecarlo.mc_outage_xl.__wrapped__ is original
    after = attribute_snapshot()
    assert all(after[key] is value for key, value in before.items())
    assert "montecarlo.gone" not in tracer.function_table()


def _traced(workload, commands=1, tracer=None):
    report = checks.Report()
    untraced = run.run_phase(workload, cli, report, count=commands)
    tracer = tracer or Tracer()
    with tracer.installed():
        traced = run.run_phase(workload, cli, report, count=commands, tracer=tracer)
    assert report.failed == 0, report.failures
    metrics, _ = run.layer_metrics(tracer, traced, untraced)
    assert set(metrics) == set(run._metric_units("per_layer"))
    return metrics, tracer


def test_traced_mc_counts_are_per_command(tmp_path):
    metrics, tracer = _traced(workloads.McPoint(1, tmp_path, trials=3000), commands=2)
    assert metrics["montecarlo.estimates"] == 8
    assert metrics["montecarlo.draw_ratio"] == 1.0
    assert metrics["model.sample.draws"] == metrics["sinr.elements"] == 8 * 2 * 3000
    assert metrics["oracle.integrals"] == 0
    top = [s for s in tracer.span_records() if s["parent"] is None]
    assert [s["name"] for s in top] == ["cli.main", "cli.main"]


def test_traced_oracle_counts(tmp_path):
    metrics, _ = _traced(workloads.OracleValidate(1, tmp_path, configs=2))
    assert metrics["oracle.quad.calls"] == 2 * 4
    assert metrics["oracle.integrand_evals"] > metrics["oracle.integrals"] > 0
    assert metrics["analysis.hypoexp_pdf.calls"] > 0
    assert metrics["model.sample.draws"] == 0
    assert 0.0 < metrics["oracle.max_rel_err_distinct"] < 1e-6
    assert metrics["trace.coverage_frac"] > 0.95


def test_a_module_added_later_is_traced_as_its_own_layer(monkeypatch):
    probe = types.ModuleType("twrnoma.probe")
    exec("def engine(x):\n    return 2 * x\n", vars(probe))
    probe.engine.__module__ = probe.__name__
    monkeypatch.setitem(sys.modules, probe.__name__, probe)
    original = probe.engine
    tracer = Tracer()
    with tracer.installed():
        assert probe.engine(21) == 42
    assert probe.engine is original
    assert tracer.function_table()["probe.engine"]["calls"] == 1
    assert tracer.layer_self["probe"] > 0.0


def test_coverage_drops_when_the_layers_below_the_cli_are_not_traced(tmp_path, monkeypatch):
    monkeypatch.setattr(tracer_module, "package_modules", lambda: [cli])
    metrics, _ = _traced(workloads.McPoint(1, tmp_path, trials=3000))
    assert metrics["montecarlo.estimates"] == 0
    assert metrics["trace.coverage_frac"] < 0.05


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_point", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
