"""Benchmark of the twrnoma CLI, driven in-process through ``twrnoma.cli.main``.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload mc_sweep --seed 1 --seconds 25 --trace 0
    python3 -m pytest -q perfbench    # the benchmark's own tests

The package is imported from ``src/`` of the checkout; without it the run
exits with code 2 before measuring anything. The workloads are defined in
``workloads.py`` and explained in ``BENCHMARK.json``. A run

1. times the set-up every CLI invocation pays: a fresh interpreter that
   imports ``twrnoma`` and completes one ``outage --methods closed`` call,
   several times, reporting the median (``setup_s``; untraced runs only);
2. runs the workload's commands back to back until ``--seconds`` of command
   time have passed, checking each output outside the timed phase;
3. with ``--trace 1``, runs half that time untraced and then replays the same
   commands with the outside-in tracer installed, and reports the per-layer
   metrics, per command of the traced phase, instead of the end-to-end ones.

The metric names and units are read from ``BENCHMARK.json``.

``wall_s`` is the 90th percentile of the per-command wall times, and
``evals_per_s`` (output values per second) and ``mc_trials_per_s`` the 10th
percentile of the per-command rates. On a shared host the same command runs
up to twice as fast in quiet phases lasting seconds to tens of seconds; the
slow end of the distribution tracks the loaded state and repeats from run
to run far better than the median does.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` (checks) and ``metrics``. A readable table goes to stderr, and
the full record (machine facts, output hashes, MC failure counts, spans) to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

MIN_UNITS = 3
SETUP_REPEATS = 7
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); from twrnoma.cli import main; "
    "sys.exit(main(['outage', '--methods', 'closed']))"
)



def _metric_units(section: str) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` at the checkout root defines them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def run_cli(cli, argv: list[str]) -> tuple[int, str, str, float]:
    """One CLI invocation with stdout and stderr captured; returns its wall time too."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed command, not a failed benchmark
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), wall


def run_phase(workload, cli, report, seconds=None, count=None, tracer=None) -> list[dict]:
    """Run commands back to back, for ``seconds`` of command time or ``count`` commands."""
    units = []
    total = 0.0
    while True:
        if count is not None:
            if len(units) >= count:
                break
        elif total >= seconds and len(units) >= MIN_UNITS or total >= 3 * seconds:
            break
        index = len(units)
        if tracer is not None:
            tracer.unit = index
        code, out, err, wall = run_cli(cli, workload.argv(index))
        total += wall
        facts = workload.inspect(index, code, out, report)
        if code != 0:
            print(f"[perfbench] {workload.name} unit {index} exited {code}: {err.strip()[-2000:]}", file=sys.stderr)
        units.append(dict(index=index, wall_s=wall, code=code, **facts))
    return units


def measure_setup(report) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120, check=False,
        )
        times.append(time.perf_counter() - start)
        report.check(proc.returncode == 0, f"set-up command exited {proc.returncode}: {proc.stderr[-500:]!r}")
    return times


def lowest_decile(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def highest_decile(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end_metrics(units: list[dict], setup_times: list[float]) -> dict:
    """Per-command times are 90th percentiles and rates 10th ones: see the module docstring."""
    return {
        "evals_per_s": lowest_decile([u["evals"] / u["wall_s"] for u in units]),
        "wall_s": highest_decile([u["wall_s"] for u in units]),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _high_percentile(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its level."""
    if not values:
        return 0.0, 0.0
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 1.0
    index = len(ordered) - 11
    return ordered[index], (index + 1) / len(ordered)


def layer_metrics(tracer: Tracer, traced: list[dict], untraced: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics of the traced phase, and facts that explain them.

    Calls, counters, busy and self times are per command of the traced phase,
    so they measure the program's cost, not how many commands fit in the run.
    """
    stats = tracer.stats
    busy = tracer.layer_busy
    own = tracer.layer_self
    outer = tracer.outer_durations
    counters = tracer.counters
    commands = len(traced)
    traced_wall = sum(u["wall_s"] for u in traced)
    mc_trials = sum(u.get("mc_trials", 0) for u in traced)
    estimates = outer.get("montecarlo", [])
    p_hi, p_hi_level = _high_percentile(estimates)

    def calls(key):
        return stats[key][0] / commands if key in stats else 0.0

    def busy_of(key):
        return stats[key][1] / commands if key in stats else 0.0

    def per_command(table, key):
        return table.get(key, 0) / commands

    integrals = stats["oracle.integral"][0] if "oracle.integral" in stats else 0

    metrics = {
        "model.sample.calls": calls("model.sample"),
        "model.sample.busy_s": busy_of("model.sample"),
        "model.sample.draws": per_command(counters, "model.sample.draws"),
        "model.derived.calls": calls("model.derived"),
        "model.derived.busy_s": busy_of("model.derived"),
        "sinr.calls": len(outer.get("sinr", [])) / commands,
        "sinr.busy_s": per_command(busy, "sinr"),
        "sinr.elements": per_command(counters, "sinr.elements"),
        "montecarlo.estimates": len(estimates) / commands,
        "montecarlo.busy_s": per_command(busy, "montecarlo"),
        "montecarlo.self_s": per_command(own, "montecarlo"),
        "montecarlo.estimate_p50_s": statistics.median(estimates) if estimates else 0.0,
        "montecarlo.estimate_p_hi_s": p_hi,
        "montecarlo.draw_ratio": counters.get("model.sample.draws", 0) / (2 * mc_trials) if mc_trials else 0.0,
        "analysis.closed.calls": calls("analysis.closed"),
        "analysis.closed.busy_s": busy_of("analysis.closed"),
        "analysis.asymptotic.calls": calls("analysis.asymptotic"),
        "analysis.asymptotic.busy_s": busy_of("analysis.asymptotic"),
        "analysis.hypoexp_pdf.calls": calls("analysis.hypoexp_pdf"),
        "analysis.hypoexp_pdf.busy_s": busy_of("analysis.hypoexp_pdf"),
        "oracle.quad.calls": len(outer.get("oracle", [])) / commands,
        "oracle.quad.busy_s": per_command(busy, "oracle"),
        "oracle.self_s": per_command(own, "oracle"),
        "oracle.integrals": integrals / commands,
        "oracle.integrand_evals": per_command(counters, "oracle.integrand_evals"),
        "oracle.evals_per_integral": counters.get("oracle.integrand_evals", 0) / integrals if integrals else 0.0,
        "oracle.max_rel_err_distinct": max((u.get("max_rel_err_distinct", 0.0) for u in traced), default=0.0),
        "oracle.max_rel_err_degenerate": max((u.get("max_rel_err_degenerate", 0.0) for u in traced), default=0.0),
        "experiments.busy_s": per_command(busy, "experiments"),
        "experiments.self_s": per_command(own, "experiments"),
        "experiments.oma.calls": calls("experiments.oma"),
        "experiments.oma.busy_s": busy_of("experiments.oma"),
        "experiments.csv.busy_s": busy_of("experiments.csv"),
        "experiments.csv.bytes": per_command(counters, "experiments.csv.bytes"),
        "cli.busy_s": per_command(busy, "cli"),
        "cli.self_s": per_command(own, "cli"),
        "trace.overhead_frac": traced_wall / sum(u["wall_s"] for u in untraced) - 1.0,
        # the share of command time spent in traced layers below the CLI
        "trace.coverage_frac": tracer.self_outside("cli") / traced_wall,
    }
    facts = {
        "commands": commands,
        "montecarlo.estimate_p_hi_level": p_hi_level,
        "traced_wall_s": traced_wall,
        "functions": tracer.function_table(),
        "layer_busy_s": dict(busy),
        "layer_self_s": dict(own),
    }
    return metrics, facts


def machine_facts(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": list(os.getloadavg()),
        "seed": seed,
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "twrnoma" / "cli.py").is_file():
        print(f"perfbench: no twrnoma sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import twrnoma.cli as cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        print(f"perfbench: imported twrnoma from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    facts = machine_facts(args.seed)
    RESULTS.mkdir(exist_ok=True)
    report = checks.Report()
    workload = workloads.WORKLOADS[args.workload](args.seed, RESULTS)
    workload.setup(lambda argv: run_cli(cli, argv)[:3], report)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts}
    if args.trace == 0:
        setup_times = measure_setup(report)
        units = run_phase(workload, cli, report, seconds=args.seconds)
        metrics = end_to_end_metrics(units, setup_times)
        units_out = units
        record["setup_times_s"] = setup_times
        if any("mc_trials" in u for u in units):
            record["mc_trials_per_s"] = lowest_decile([u["mc_trials"] / u["wall_s"] for u in units])
        table = _metric_units("end_to_end")
    else:
        untraced = run_phase(workload, cli, report, seconds=args.seconds / 2)
        tracer = Tracer()
        with tracer.installed():
            traced = run_phase(workload, cli, report, count=len(untraced), tracer=tracer)
        for before, after in zip(untraced, traced):
            report.check(before["sha256"] == after["sha256"], f"unit {before['index']}: traced output differs")
        metrics, record["trace"] = layer_metrics(tracer, traced, untraced)
        record["trace"]["spans"] = tracer.span_records()
        units_out = traced
        table = _metric_units("per_layer")

    record["units"] = [{k: v for k, v in u.items() if k != "mc_counts"} for u in units_out]
    record["unit0"] = {"sha256": units_out[0]["sha256"], "mc_counts": units_out[0].get("mc_counts", [])}
    record["checks"] = {"attempted": report.attempted, "failed": report.failed,
                        "failed_frac": report.failed / report.attempted, "failures": report.failures}
    record["metrics"] = metrics
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for name, value in metrics.items():
        print(f"{name:34s} {value:.6g} {table[name]}", file=sys.stderr)
    if "mc_trials_per_s" in record:
        print(f"{'mc_trials_per_s':34s} {record['mc_trials_per_s']:.6g} 1/s", file=sys.stderr)
    print(f"checks: {report.failed} failed of {report.attempted} (failed_frac {record['checks']['failed_frac']:.3g}); "
          f"record: {path.relative_to(ROOT)}", file=sys.stderr)
    for failure in report.failures:
        print(f"  FAILED {failure}", file=sys.stderr)
    result = {
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
