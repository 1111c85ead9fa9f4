"""The four benchmark workloads.

Each workload is a closed loop: one client runs one CLI command after
another, each command waiting for the previous one, with Monte Carlo
``workers`` left at 1 as every CLI path does. A workload turns the run seed
into the argv of every command (``argv(index)``) and inspects each output
outside the timed phase (``inspect``), feeding the checks and returning the
facts the run records.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import checks

SIGNALS = ("x1", "x2", "x3", "x4")
SIC_FLAG = {"ipSIC": "ip", "pSIC": "p"}


def grid_points(rho_min: float, rho_max: float, step: float) -> int:
    """Number of points the CLI puts on an SNR grid."""
    return int(math.floor((rho_max - rho_min) / step + 1e-9)) + 1


class Workload:
    """Base: per-command seeds drawn from the run seed."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._rng = random.Random(f"{self.name}:{seed}")
        self._unit_seeds: list[int] = []

    def unit_seed(self, index: int) -> int:
        while len(self._unit_seeds) <= index:
            self._unit_seeds.append(self._rng.randrange(2**31))
        return self._unit_seeds[index]

    def setup(self, run, report: checks.Report) -> None:
        """Prepare inputs and references; ``run(argv)`` returns (code, stdout, stderr)."""

    def argv(self, index: int) -> list[str]:
        raise NotImplementedError

    def inspect(self, index: int, code: int, out: str, report: checks.Report) -> dict:
        raise NotImplementedError


def _facts(out: str, evals: int, **extra) -> dict:
    return dict(sha256=hashlib.sha256(out.encode()).hexdigest(), evals=evals, **extra)


class _McWorkload(Workload):
    """Closed and MC rows side by side; every MC row is checked against closed."""

    def __init__(self, seed: int, workdir: Path, trials: int):
        super().__init__(seed, workdir)
        self.trials = trials

    def command(self) -> list[str]:
        raise NotImplementedError

    def expected_rows(self) -> int:
        raise NotImplementedError

    def argv(self, index: int) -> list[str]:
        return self.command() + ["--trials", str(self.trials), "--seed", str(self.unit_seed(index))]

    def inspect(self, index, code, out, report):
        if not checks.check_exit(code, report, f"{self.name} unit {index}"):
            return _facts(out, 0, mc_trials=0, mc_counts=[])
        rows = list(checks.iter_rows(out))
        report.check(len(rows) == self.expected_rows(), f"{self.name}: {len(rows)} rows, expected {self.expected_rows()}")
        for row in rows:
            checks.check_value(row, report)
        checks.check_mc_rows(rows, report)
        mc = [row for row in rows if row["method"] == "mc"]
        counts = [
            [row["rho_db"], row["signal"], row["sic_mode"], round(float(row["value"]) * int(row["trials"]))]
            for row in mc
        ]
        return _facts(out, len(rows), mc_trials=sum(int(row["trials"]) for row in mc), mc_counts=counts)


class McSweep(_McWorkload):
    name = "mc_sweep"

    RHO = (0.0, 45.0, 2.5)

    def __init__(self, seed: int, workdir: Path, trials: int = 25_000):
        super().__init__(seed, workdir, trials)

    def command(self):
        lo, hi, step = self.RHO
        return [
            "sweep", "--methods", "closed,mc", "--signals", "x1,x2", "--sic", "both",
            "--rho-min-db", repr(lo), "--rho-max-db", repr(hi), "--rho-step-db", repr(step),
        ]

    def expected_rows(self):
        return grid_points(*self.RHO) * 2 * 2 * 2


class McPoint(_McWorkload):
    name = "mc_point"

    def __init__(self, seed: int, workdir: Path, trials: int = 250_000):
        super().__init__(seed, workdir, trials)

    def command(self):
        return ["outage", "--rho-db", "30", "--signals", ",".join(SIGNALS), "--sic", "both", "--methods", "closed,mc"]

    def expected_rows(self):
        return len(SIGNALS) * 2 * 2


class OracleValidate(Workload):
    name = "oracle_validate"

    def __init__(self, seed: int, workdir: Path, configs: int = 10):
        super().__init__(seed, workdir)
        self.configs = configs

    def argv(self, index):
        return ["validate", "--configs", str(self.configs), "--seed", str(self.unit_seed(index))]

    def inspect(self, index, code, out, report):
        checks.check_exit(code, report, f"{self.name} unit {index}")
        parsed = checks.check_validate(out, self.configs, report)
        if parsed is None:
            return _facts(out, 0)
        return _facts(
            out, 4 * parsed["checked"],
            max_rel_err_distinct=parsed["distinct"][0], max_rel_err_degenerate=parsed["degenerate"][0],
        )


@dataclass
class _Scenario:
    """One fading scenario of ``closed_grid``, with its references."""

    varpi1: float
    varpi2: float
    omega_i_db: float
    rho_min: float
    points: int
    config_path: Path
    refs: dict = field(default_factory=dict)
    first_sha: str | None = None


class ClosedGrid(Workload):
    """Commands rotate among a few scenarios; each is fully checked once."""

    name = "closed_grid"

    A = (0.8, 0.2, 0.8, 0.2)
    B = (0.2, 0.8, 0.2, 0.8)
    OMEGA = (0.25, 0.01, 0.25, 0.01)
    RATES = (0.1, 0.01, 0.1, 0.01)
    RHO_MAX = 45.0
    SCENARIOS = 3
    QUAD_POINTS = 6  # in all, spread over the scenarios

    def __init__(self, seed: int, workdir: Path, step_db: float = 0.05):
        super().__init__(seed, workdir)
        self.step = step_db
        self.scenarios = [self._scenario(k) for k in range(self.SCENARIOS)]

    def _scenario(self, k: int) -> _Scenario:
        rng = random.Random(self.unit_seed(k))
        rho_min = rng.uniform(0.0, self.step)
        return _Scenario(
            varpi1=rng.uniform(0.002, 0.05),
            varpi2=rng.uniform(0.002, 0.05),
            omega_i_db=rng.uniform(-25.0, -10.0),
            rho_min=rho_min,
            points=grid_points(rho_min, self.RHO_MAX, self.step),
            config_path=self.workdir / f"{self.name}-seed{self.seed}-{k}.cfg",
        )

    def _config_text(self, scenario: _Scenario) -> str:
        lines = [f"a{i + 1} = {v!r}" for i, v in enumerate(self.A)]
        lines += [f"b{i + 1} = {v!r}" for i, v in enumerate(self.B)]
        lines += [f"omega{i + 1} = {v!r}" for i, v in enumerate(self.OMEGA)]
        lines += [f"r{i + 1} = {v!r}" for i, v in enumerate(self.RATES)]
        lines += [
            f"varpi1 = {scenario.varpi1!r}",
            f"varpi2 = {scenario.varpi2!r}",
            f"omega_i_db = {scenario.omega_i_db!r}",
        ]
        return "\n".join(lines) + "\n"

    def setup(self, run, report):
        for scenario in self.scenarios:
            scenario.config_path.write_text(self._config_text(scenario), encoding="utf-8")
        for j in range(self.QUAD_POINTS):
            scenario = self.scenarios[j % self.SCENARIOS]
            index = round(j * (scenario.points - 1) / (self.QUAD_POINTS - 1))
            rho = scenario.rho_min + index * self.step
            signal = SIGNALS[j % len(SIGNALS)]
            mode = ("ipSIC", "pSIC")[j % 2]
            code, out, err = run([
                "outage", "--config", str(scenario.config_path), "--rho-db", repr(rho),
                "--signals", signal, "--sic", SIC_FLAG[mode], "--methods", "quad",
            ])
            if checks.check_exit(code, report, f"quadrature reference at {rho!r} dB ({err.strip()})"):
                (row,) = checks.iter_rows(out)
                scenario.refs[checks.point_key(row)] = float(row["value"])

    def argv(self, index):
        scenario = self.scenarios[index % self.SCENARIOS]
        return [
            "sweep", "--config", str(scenario.config_path), "--methods", "closed,asymptotic,oma",
            "--signals", ",".join(SIGNALS), "--sic", "both",
            "--rho-min-db", repr(scenario.rho_min), "--rho-max-db", repr(self.RHO_MAX),
            "--rho-step-db", repr(self.step),
        ]

    def inspect(self, index, code, out, report):
        if not checks.check_exit(code, report, f"{self.name} unit {index}"):
            return _facts(out, 0)
        facts = _facts(out, out.count("\n") - 1)
        scenario = self.scenarios[index % self.SCENARIOS]
        if index < self.SCENARIOS:
            scenario.first_sha = facts["sha256"]
            self._check_rows(scenario, out, report)
        else:
            # a repeated command must repeat its output byte for byte
            report.check(
                facts["sha256"] == scenario.first_sha,
                f"{self.name} unit {index}: output differs from unit {index % self.SCENARIOS}",
            )
        return facts

    def _check_rows(self, scenario: _Scenario, out: str, report: checks.Report) -> None:
        rows = 0
        closed = {}
        for row in checks.iter_rows(out):
            rows += 1
            checks.check_value(row, report)
            if row["method"] == "oma":
                checks.check_oma_row(row, self.OMEGA, self.RATES, report)
            elif row["method"] == "closed" and checks.point_key(row) in scenario.refs:
                closed[checks.point_key(row)] = float(row["value"])
        expected = scenario.points * len(SIGNALS) * 2 * 3
        report.check(rows == expected, f"{self.name}: {rows} rows, expected {expected}")
        checks.check_quad_refs(closed, scenario.refs, report)


WORKLOADS = {cls.name: cls for cls in (McSweep, McPoint, OracleValidate, ClosedGrid)}
