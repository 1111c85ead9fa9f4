"""Parameter sweeps, figure-reproduction presets, the orthogonal baseline,
and CSV/JSON emission.

The orthogonal baseline is a plain TDMA reference for the four-message
exchange without any relay-side combining: every message occupies its own
uplink phase and its own downlink phase (eight phases per round), each hop
transmits at full power with no inter-group interference, and decode-and-
forward succeeds only if both hops do. No such scheme is pinned down by the
system under study itself; this definition is a build choice, documented in
the README.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import analysis
from .errors import ConfigError, NumericError
from .model import (
    OMA_PHASES,
    SIC_MODES,
    SIGNAL_ROLES,
    SystemConfig,
    build_derived_constants,
    check_sic_mode,
    db_to_linear,
    signal_roles,
)
from .montecarlo import DEFAULT_TRIALS, OutageEstimate, mc_outage
from .oracle import QuadSpec, quad_outages

METHODS = ("closed", "asymptotic", "mc", "quad", "oma")
SIGNALS = ("x1", "x2", "x3", "x4")

THROUGHPUT_METHODS = ("closed", "mc", "oma")

# Largest SNR grid a sweep accepts; a fine grid such as 0-45 dB in 0.05 dB
# steps has about 900 points, a figure curve 19.
MAX_GRID_POINTS = 100_000

# Scenarios that oracle_agreement draws and checks together: with both
# signals and both SIC modes, 32 oracle cases, so memory does not grow with
# the number of scenarios.
_AGREEMENT_GROUP = 8
# Quadrature tolerances of oracle_agreement, tight enough that the oracle's
# own error stays far below the agreement tolerances of validate.
_AGREEMENT_SPEC = QuadSpec(abs_tol=1e-13, rel_tol=1e-11)
# Share of oracle_agreement's scenarios drawn with two nearly coincident
# relay-side interference rates; they come first.
_DEGENERATE_FRACTION = 0.2

class CurveRow(NamedTuple):
    """One evaluated point of a sweep; CI and trial fields apply to MC rows only."""

    rho_db: float
    signal: str
    sic_mode: str
    method: str
    value: float
    ci_low: float | None = None
    ci_high: float | None = None
    trials: int | None = None
    seed: int | None = None


CURVE_FIELDS = CurveRow._fields


@dataclass(frozen=True)
class SweepSpec:
    """Grid and method selection for one sweep over transmit SNR."""

    config: SystemConfig
    rho_min_db: float
    rho_max_db: float
    rho_step_db: float
    methods: tuple[str, ...] = ("closed",)
    signals: tuple[str, ...] = ("x1", "x2")
    sic_modes: tuple[str, ...] = SIC_MODES
    trials: int = DEFAULT_TRIALS
    seed: int = 1

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.rho_min_db, self.rho_max_db, self.rho_step_db))):
            raise ConfigError("rho_min_db, rho_max_db and rho_step_db must be finite")
        if self.rho_step_db <= 0.0:
            raise ConfigError("rho_step_db must be positive")
        if self.rho_max_db < self.rho_min_db:
            raise ConfigError("empty SNR grid: rho_max_db < rho_min_db")
        if self._point_count() > MAX_GRID_POINTS:
            raise ConfigError(
                f"SNR grid has more than {MAX_GRID_POINTS} points; "
                "raise rho_step_db or narrow [rho_min_db, rho_max_db]"
            )
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; expected one of {METHODS}")
        for s in self.signals:
            if s not in SIGNALS:
                raise ConfigError(f"unknown signal {s!r}; expected one of {SIGNALS}")
        for mode in self.sic_modes:
            check_sic_mode(mode)
        if not self.methods or not self.signals or not self.sic_modes:
            raise ConfigError("methods, signals and sic_modes must be non-empty")

    def _point_count(self) -> int | float:
        # infinite when the span overflows or the step underflows it
        span = (self.rho_max_db - self.rho_min_db) / self.rho_step_db + 1e-9
        return math.floor(span) + 1 if math.isfinite(span) else math.inf

    def rho_grid_db(self) -> list[float]:
        return [self.rho_min_db + i * self.rho_step_db for i in range(self._point_count())]


def _evaluated_grid_db(spec: SweepSpec) -> list[float]:
    """The spec's SNR grid, checked before any point is evaluated: its end must not overflow in linear units."""
    grid = spec.rho_grid_db()
    if not math.isfinite(db_to_linear(grid[-1])):
        raise ConfigError(f"the SNR grid ends at {grid[-1]:g} dB, which overflows in linear units")
    return grid


def oma_outage(config: SystemConfig, signal: str) -> float:
    """Outage of one signal under the eight-phase TDMA relaying reference.

    The per-hop SINR target compresses the message rate into its single
    phase of the eight-phase round; source and destination hops use the
    full transmit power and fail independently. No SIC mode enters.
    """
    view, kind = signal_roles(signal)
    if kind == "l":
        src, dst = view.l, view.k
        rate = config.rates[view.l - 1]
    else:
        src, dst = view.t, view.r
        rate = config.rates[view.t - 1]
    gamma = 2.0 ** (OMA_PHASES * rate) - 1.0
    rho = config.rho
    hop_src = math.exp(-gamma / (rho * config.omega[src - 1]))
    hop_dst = math.exp(-gamma / (rho * config.omega[dst - 1]))
    return 1.0 - hop_src * hop_dst


class _GridPoint:
    """What the rows of one SNR point share.

    One config, and one set of derived constants per role group: the
    constants do not read the SIC mode, so both signals, both modes and the
    closed and asymptotic rows share them. The TDMA outage does not depend
    on the SIC mode either and is computed once per signal. The MC estimates
    come from one engine call, and the quadrature values of every (signal,
    mode) from one batched oracle call.
    """

    def __init__(self, spec: SweepSpec, rho_db: float, signals: tuple[str, ...]):
        self.config = config = replace(spec.config, rho_db=rho_db)
        self.signals, self.modes = signals, spec.sic_modes
        self.keys = [(signal, mode) for signal in signals for mode in spec.sic_modes]
        methods = spec.methods
        self.constants = {}
        if "closed" in methods or "asymptotic" in methods:
            groups = dict.fromkeys(SIGNAL_ROLES[signal][0] for signal in signals)
            built = {roles: build_derived_constants(config, roles) for roles in groups}
            self.constants = {signal: built[SIGNAL_ROLES[signal][0]] for signal in signals}
        self.oma = {}
        if "oma" in methods:
            self.oma = {signal: oma_outage(config, signal) for signal in signals}
        self.mc: dict[tuple[str, str], OutageEstimate] = {}
        if "mc" in methods:
            self.mc = mc_outage(config, signals, spec.sic_modes, trials=spec.trials, seed=spec.seed)
        self.quad: list[float] = []
        if "quad" in methods:
            self.quad = quad_outages([(config, signal, mode) for signal, mode in self.keys])

    def column(self, method: str) -> list[CurveRow]:
        """The point's rows of ``method``, one per (signal, mode) of ``keys``, in that order.

        Closed and asymptotic values come straight from their evaluator in
        ``analysis.EVALUATORS``: the spec has already checked every signal
        and mode.
        """
        config, keys = self.config, self.keys
        rho_db = config.rho_db
        if method == "mc":
            estimates = [self.mc[key] for key in keys]
            return [
                CurveRow(rho_db, signal, mode, method, est.p_hat, est.ci_low, est.ci_high, est.trials, est.seed)
                for (signal, mode), est in zip(keys, estimates)
            ]
        if method == "oma":
            values = [self.oma[signal] for signal, _ in keys]
        elif method == "quad":
            values = self.quad
        else:
            values = []
            for signal in self.signals:
                roles, kind = SIGNAL_ROLES[signal]
                evaluate, dc = analysis.EVALUATORS[method, kind], self.constants[signal]
                values += [evaluate(config, roles, dc, mode) for mode in self.modes]
        return [CurveRow(rho_db, signal, mode, method, value) for (signal, mode), value in zip(keys, values)]


def run_sweep(spec: SweepSpec) -> list[CurveRow]:
    """Evaluate the grid; one row per (SNR point, signal, mode, method).

    Rows are produced in deterministic grid order, and every outage value is
    range-checked, one SNR point at a time, before emission.
    """
    rows: list[CurveRow] = []
    for rho_db in _evaluated_grid_db(spec):
        point = _GridPoint(spec, rho_db, spec.signals)
        point_rows = [row for cells in zip(*map(point.column, spec.methods)) for row in cells]
        for row in point_rows:
            if not 0.0 <= row.value <= 1.0:  # NaN fails too
                raise NumericError(
                    f"outage row out of range: {row.signal} {row.method} at {rho_db} dB -> {row.value!r}"
                )
        rows += point_rows
    return rows


def throughput_rows(spec: SweepSpec) -> list[CurveRow]:
    """Delay-limited throughput over the grid, composed from the four outage curves.

    One row per (SNR point, SIC mode, method of ``spec.methods``), which
    must be among ``THROUGHPUT_METHODS``; the spec's signals do not enter,
    since every row sums all four. Rows carry signal tag ``"sum"``; MC rows
    use the spec's trial count and seed, with one engine call per SNR point.
    """
    for method in spec.methods:
        if method not in THROUGHPUT_METHODS:
            raise ConfigError(f"throughput supports closed, mc or oma, not {method!r}")
    rows: list[CurveRow] = []
    for rho_db in _evaluated_grid_db(spec):
        point = _GridPoint(spec, rho_db, SIGNALS)
        columns = {method: point.column(method) for method in spec.methods}
        for mode in spec.sic_modes:
            for method in spec.methods:
                outages = [row.value for row in columns[method] if row.sic_mode == mode]
                value = analysis.throughput_delay_limited(point.config, outages)
                rows.append(CurveRow(rho_db, "sum", mode, method, value,
                                     trials=spec.trials if method == "mc" else None,
                                     seed=spec.seed if method == "mc" else None))
    return rows


def crossover_snr_db(
    config: SystemConfig,
    signal: str,
    mode: str,
    rho_min_db: float = 0.0,
    rho_max_db: float = 45.0,
    scan_step_db: float = 0.25,
    tol_db: float = 1e-6,
) -> float | None:
    """SNR (dB) where the closed-form outage of ``signal`` under ``mode`` crosses the TDMA baseline.

    Scans for the first sign change of (superposed - orthogonal) from below
    and refines it by bisection; returns ``None`` when the curves do not
    cross on the window. Deterministic: no randomness is involved.
    """

    def diff(rho_db: float) -> float:
        at = replace(config, rho_db=rho_db)
        return analysis.closed_outage(at, signal, mode) - oma_outage(at, signal)

    steps = int(math.floor((rho_max_db - rho_min_db) / scan_step_db)) + 1
    grid = [rho_min_db + i * scan_step_db for i in range(steps)]
    if grid[-1] < rho_max_db:
        grid.append(rho_max_db)
    previous = diff(grid[0])
    if previous > 0.0:
        return None  # already above the baseline at the low end
    for x in grid[1:]:
        current = diff(x)
        if previous <= 0.0 < current:
            lo, hi = x - scan_step_db, x
            while hi - lo > tol_db:
                mid = 0.5 * (lo + hi)
                if diff(mid) > 0.0:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)
        previous = current
    return None


def figure_preset(
    fig_id: int,
    trials: int = DEFAULT_TRIALS,
    seed: int = 1,
    methods: tuple[str, ...] | None = None,
) -> dict[str, list[CurveRow]]:
    """Reference-scenario sweeps behind the four numerical-result figures.

    Returns a mapping from variant label (one per parameter level, empty for
    single-variant figures) to its row table. Presets 1-3 emit outage curves,
    preset 4 delay-limited throughput.
    """
    base = SystemConfig(rho_db=0.0)
    if fig_id == 1:
        spec = SweepSpec(
            config=base, rho_min_db=0.0, rho_max_db=45.0, rho_step_db=2.5,
            methods=methods or ("closed", "asymptotic", "mc", "oma"),
            signals=("x1", "x2"), trials=trials, seed=seed,
        )
        return {"": run_sweep(spec)}
    if fig_id == 2:
        out = {}
        for level in (0.0, 0.01, 0.1):
            cfg = replace(base, varpi1=level, varpi2=level)
            spec = SweepSpec(
                config=cfg, rho_min_db=0.0, rho_max_db=45.0, rho_step_db=2.5,
                methods=methods or ("closed", "mc"),
                signals=("x1", "x2"), trials=trials, seed=seed,
            )
            out[f"varpi_{level:g}"] = run_sweep(spec)
        return out
    if fig_id == 3:
        out = {}
        for omega_i_db in (-20.0, -10.0, 0.0):
            cfg = replace(base, varpi1=0.0, varpi2=0.0, omega_i_db=omega_i_db)
            spec = SweepSpec(
                config=cfg, rho_min_db=0.0, rho_max_db=45.0, rho_step_db=2.5,
                methods=methods or ("closed", "mc"),
                signals=("x1", "x2"), trials=trials, seed=seed,
            )
            out[f"omega_i_{omega_i_db:g}dB"] = run_sweep(spec)
        return out
    if fig_id == 4:
        out = {}
        for omega_i_db in (-20.0, -10.0):
            cfg = replace(base, omega_i_db=omega_i_db)
            spec = SweepSpec(
                config=cfg, rho_min_db=0.0, rho_max_db=45.0, rho_step_db=2.5,
                methods=methods or ("closed", "oma"), trials=trials, seed=seed,
            )
            out[f"omega_i_{omega_i_db:g}dB"] = throughput_rows(spec)
        return out
    raise ConfigError(f"unknown figure id {fig_id}; expected 1-4")


def _csv_text(fields) -> str:
    """``fields`` as ``csv.writer(lineterminator="\\n")`` writes them, without the line end."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(fields)
    return buffer.getvalue()[:-1]


def _field_text(value) -> str:
    return "" if value is None else str(value)


def _float_text(value) -> str:
    return "" if value is None else repr(float(value))


def rows_to_csv(rows: list[CurveRow]) -> str:
    """Fixed-schema CSV: header row, '.' decimals, LF line endings.

    The bytes are those of ``csv.writer(lineterminator="\\n")`` writing each
    row with its floats as ``repr(float(...))``. Each row is formatted as one
    line: numbers need no quoting, the rows of one SNR point share the text
    of their ``rho_db``, and the text of each distinct (signal, sic_mode,
    method) is formatted once, by ``csv.writer``.
    """
    lines = [_csv_text(CURVE_FIELDS)]
    labels: dict[tuple, str] = {}
    last_db = rho_text = object()
    for rho_db, signal, mode, method, value, ci_low, ci_high, trials, seed in rows:
        if rho_db is not last_db:
            last_db, rho_text = rho_db, repr(float(rho_db))
        label = labels.get((signal, mode, method))
        if label is None:
            label = labels[signal, mode, method] = _csv_text((signal, mode, method))
        if ci_low is None and ci_high is None and trials is None and seed is None:
            lines.append(f"{rho_text},{label},{float(value)!r},,,,")
        else:
            lines.append(f"{rho_text},{label},{float(value)!r},{_float_text(ci_low)},{_float_text(ci_high)},"
                         f"{_field_text(trials)},{_field_text(seed)}")
    lines.append("")
    return "\n".join(lines)


def rows_to_json(rows: list[CurveRow]) -> str:
    return json.dumps([row._asdict() for row in rows], indent=2) + "\n"


def write_rows(rows: list[CurveRow], path: str, fmt: str = "csv") -> None:
    text = rows_to_csv(rows) if fmt == "csv" else rows_to_json(rows)
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path!r}: {exc}") from exc


def random_valid_config(rng: np.random.Generator, force_degenerate: bool = False) -> SystemConfig:
    """Draw a random scenario satisfying every configuration invariant.

    Ranges keep both feasibility conditions satisfied and outage floors well
    above quadrature precision so that relative comparisons stay meaningful.
    With ``force_degenerate`` the cross-pair leakage level is tuned so two
    relay-side interference rates nearly coincide.
    """
    a1 = float(rng.uniform(0.55, 0.9))
    a3 = float(rng.uniform(0.55, 0.9))
    b1 = float(rng.uniform(0.1, 0.45))
    b3 = float(rng.uniform(0.1, 0.45))
    omega = (
        float(10.0 ** rng.uniform(-1.3, 0.0)),
        float(10.0 ** rng.uniform(-2.7, -1.3)),
        float(10.0 ** rng.uniform(-1.3, 0.0)),
        float(10.0 ** rng.uniform(-2.7, -1.3)),
    )
    varpi1 = float(10.0 ** rng.uniform(-2.3, -0.5))
    if force_degenerate:
        # align the in-pair rate with the first cross-pair rate: a_t*om_t ~ varpi1*a_k*om_k
        varpi1 = (1.0 - a1) * omega[1] / (a3 * omega[2]) * (1.0 + float(rng.uniform(-1e-7, 1e-7)))
    rng.uniform()  # once the scenario's SIC mode; still drawn so that later scenarios keep their values
    return SystemConfig(
        rho_db=float(rng.uniform(0.0, 60.0)),
        a=(a1, 1.0 - a1, a3, 1.0 - a3),
        b=(b1, 1.0 - b1, b3, 1.0 - b3),
        omega=omega,
        omega_i_db=float(rng.uniform(-25.0, -5.0)),
        varpi1=varpi1,
        varpi2=float(10.0 ** rng.uniform(-2.3, -0.5)),
        rates=(
            float(rng.uniform(0.05, 0.2)),
            float(rng.uniform(0.01, 0.1)),
            float(rng.uniform(0.05, 0.2)),
            float(rng.uniform(0.01, 0.1)),
        ),
    )


@dataclass(frozen=True)
class AgreementReport:
    """Worst-case closed-form vs quadrature deviations over random scenarios."""

    checked: int
    max_rel_err_distinct: float
    max_rel_err_degenerate: float


def oracle_agreement(n_configs: int = 200, seed: int = 20240) -> AgreementReport:
    """Compare closed forms against the quadrature oracle on random scenarios.

    Every config is evaluated for both signals and both cancellation modes.
    Scenarios whose active interference rates nearly coincide are tracked
    separately (the partial-fraction route would be ill-conditioned there).
    """
    if n_configs < 1:
        raise ConfigError(f"at least one random scenario is required, got {n_configs}")
    rng = np.random.default_rng(seed)
    n_degenerate = int(n_configs * _DEGENERATE_FRACTION)
    worst_distinct = 0.0
    worst_degenerate = 0.0
    for first in range(0, n_configs, _AGREEMENT_GROUP):
        configs = [
            random_valid_config(rng, force_degenerate=i < n_degenerate)
            for i in range(first, min(first + _AGREEMENT_GROUP, n_configs))
        ]
        cases = [(config, signal, mode) for config in configs for mode in SIC_MODES for signal in ("x1", "x2")]
        for i, (case, quad) in enumerate(zip(cases, quad_outages(cases, _AGREEMENT_SPEC))):
            rel = abs(analysis.closed_outage(*case) - quad) / max(quad, 1e-300)
            if first + i // (2 * len(SIC_MODES)) < n_degenerate:
                worst_degenerate = max(worst_degenerate, rel)
            else:
                worst_distinct = max(worst_distinct, rel)
    return AgreementReport(n_configs, worst_distinct, worst_degenerate)
