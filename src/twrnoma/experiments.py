"""Parameter sweeps, figure-reproduction presets, the orthogonal baseline,
and CSV/JSON emission.

A sweep returns a :class:`CurveTable`: the SNR grid and one
:class:`CurveColumn` per (signal, SIC mode, method), with a value at every
point. ``rows_to_csv`` writes it column by column; ``CurveTable.rows()``
lists the same rows as :class:`CurveRow` tuples, for JSON and library
callers.

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
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    OMA_PHASES,
    SIC_MODES,
    SIGNAL_ROLES,
    Grid,
    SystemConfig,
    build_derived_constants,
    check_integer,
    check_seed,
    check_sic_mode,
    db_to_linear,
    exact_exp,
    signal_roles,
)
from .montecarlo import check_trials, mc_outage
from .oracle import QuadSpec, quad_outages

METHODS = ("closed", "asymptotic", "mc", "quad", "oma")
SIGNALS = tuple(SIGNAL_ROLES)

THROUGHPUT_METHODS = ("closed", "mc", "oma")

# Transmit-SNR window (dB) of the figure presets, on which crossover_snr_db
# looks for figure 1's crossing.
FIGURE_WINDOW_DB = (0.0, 45.0)

# Largest SNR grid a sweep accepts; a fine grid such as 0-45 dB in 0.05 dB
# steps has about 900 points, a figure curve 19.
MAX_GRID_POINTS = 100_000

# Scenarios whose cases one quad_outages call plans at once: oracle_agreement
# draws and checks its random scenarios this many at a time (128 cases, with
# both signals and both SIC modes), a sweep its SNR points (up to 256 cases).
# The oracle dedupes a call's integrals and integrates them in passes of at
# most 32, so one call fills several passes and memory is bounded by this
# count, not by the number of scenarios or grid points.
_PLANNED_SCENARIOS = 32
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


class CurveColumn(NamedTuple):
    """One (signal, sic_mode, method) of a sweep, with its value at every SNR point of the grid.

    MC columns carry a CI bound per point, and their trial count and seed.
    """

    signal: str
    sic_mode: str
    method: str
    values: list[float]
    ci_low: list[float] | None = None
    ci_high: list[float] | None = None
    trials: int | None = None
    seed: int | None = None


@dataclass(frozen=True)
class CurveTable:
    """A sweep's result: the SNR grid ``rho_db`` and its columns, in row order within a point."""

    rho_db: list[float]
    columns: list[CurveColumn]

    def __post_init__(self) -> None:
        for column in self.columns:
            for field, values in zip(CurveColumn._fields[3:6], column[3:6]):
                if values is not None and len(values) != len(self.rho_db):
                    raise ValueError(f"column {column[:3]} has {len(values)} {field} for {len(self.rho_db)} points")

    def __len__(self) -> int:
        """The number of rows: one per (SNR point, column)."""
        return len(self.rho_db) * len(self.columns)

    def rows(self) -> list[CurveRow]:
        """One row per (SNR point, column), point by point, each point's in column order."""
        return [
            CurveRow(rho_db, column.signal, column.sic_mode, column.method, column.values[i],
                     None if column.ci_low is None else column.ci_low[i],
                     None if column.ci_high is None else column.ci_high[i],
                     column.trials, column.seed)
            for i, rho_db in enumerate(self.rho_db)
            for column in self.columns
        ]


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
    seed: int = DEFAULT_SEED

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
        for signal in self.signals:
            signal_roles(signal)
        for mode in self.sic_modes:
            check_sic_mode(mode)
        # a table keys its columns by (signal, mode, method), so no entry may repeat
        for what, chosen in (("method", self.methods), ("signal", self.signals), ("SIC mode", self.sic_modes)):
            for i, item in enumerate(chosen):
                if item in chosen[:i]:
                    raise ConfigError(f"{what} {item!r} is selected more than once")
        if not self.methods or not self.signals or not self.sic_modes:
            raise ConfigError("methods, signals and sic_modes must be non-empty")
        if "mc" in self.methods:
            check_trials(self.trials)
            check_seed(self.seed)

    def _point_count(self) -> int | float:
        # infinite when the span overflows or the step underflows it
        span = (self.rho_max_db - self.rho_min_db) / self.rho_step_db + 1e-9
        return math.floor(span) + 1 if math.isfinite(span) else math.inf

    def rho_grid_db(self) -> list[float]:
        return [self.rho_min_db + i * self.rho_step_db for i in range(self._point_count())]


def oma_outage(config: SystemConfig, signal: str, rho: Grid | None = None) -> Grid:
    """Outage of one signal under the eight-phase TDMA relaying reference.

    The per-hop SINR target compresses the message rate into its single
    phase of the eight-phase round; source and destination hops use the
    full transmit power and fail independently. No SIC mode enters.
    ``rho`` is the linear transmit SNR, ``config.rho`` when omitted; an array
    of them gives the outage at every point of an SNR grid, each entry bit
    for bit the outage at that point alone.
    """
    view, kind = signal_roles(signal)
    if kind == "l":
        src, dst = view.l, view.k
        rate = config.rates[view.l - 1]
    else:
        src, dst = view.t, view.r
        rate = config.rates[view.t - 1]
    gamma = 2.0 ** (OMA_PHASES * rate) - 1.0
    if rho is None:
        rho = config.rho
    hop_src = exact_exp(-gamma / (rho * config.omega[src - 1]))
    hop_dst = exact_exp(-gamma / (rho * config.omega[dst - 1]))
    return 1.0 - hop_src * hop_dst


def _in_range(values: Grid | list[float], grid: list[float], signal: str, method: str) -> list[float]:
    """``values`` (an array, a list, or a float standing for every point) listed at each point of ``grid``.

    The first point outside [0, 1], NaN included, raises ``NumericError``.
    """
    column = np.broadcast_to(values, (len(grid),))
    bad = np.flatnonzero(~((0.0 <= column) & (column <= 1.0)))  # NaN fails too
    if bad.size:
        i = int(bad[0])
        raise NumericError(f"outage row out of range: {signal} {method} at {grid[i]} dB -> {column[i].item()!r}")
    return column.tolist()


def _grid_columns(spec: SweepSpec, method: str, grid: list[float], rho: np.ndarray,
                  constants: dict) -> list[CurveColumn]:
    """The closed, asymptotic or TDMA columns of ``spec`` over the whole grid, each range-checked as it is made.

    One evaluator call per (signal, mode) serves every point, each entry bit
    for bit the value of its point alone. ``constants`` maps a role group to
    its derived constants over ``rho``; a group missing there is built and
    added, so a sweep builds each group once. The TDMA outage does not read
    the SIC mode, so both modes share one list per signal.
    """
    columns = []
    # inf and NaN arise silently, as on Python floats. x/0 raises: on the
    # grid it could turn into a valid-looking exp(-inf).
    with np.errstate(all="ignore", divide="raise"):
        for signal in spec.signals:
            if method == "oma":
                values = _in_range(oma_outage(spec.config, signal, rho), grid, signal, method)
                columns += [CurveColumn(signal, mode, method, values) for mode in spec.sic_modes]
                continue
            roles, kind = SIGNAL_ROLES[signal]
            if roles not in constants:
                constants[roles] = build_derived_constants(spec.config, roles, rho)
            evaluator = analysis.EVALUATORS[method, kind]
            for mode in spec.sic_modes:
                values = evaluator(spec.config, roles, constants[roles], mode)
                columns.append(CurveColumn(signal, mode, method, _in_range(values, grid, signal, method)))
    return columns


def _mc_columns(spec: SweepSpec, grid: list[float]) -> list[CurveColumn]:
    """The MC columns of ``spec``: one engine call per point serves every (signal, mode)."""
    at_points = [mc_outage(replace(spec.config, rho_db=rho_db), spec.signals, spec.sic_modes,
                           trials=spec.trials, seed=spec.seed) for rho_db in grid]
    columns = []
    # Python ints, which JSON writes; the spec may hold numpy integers
    trials, seed = int(spec.trials), int(spec.seed)
    for signal in spec.signals:
        for mode in spec.sic_modes:
            estimates = [at_point[signal, mode] for at_point in at_points]
            values = _in_range([est.p_hat for est in estimates], grid, signal, "mc")
            columns.append(CurveColumn(signal, mode, "mc", values, [est.ci_low for est in estimates],
                                       [est.ci_high for est in estimates], trials, seed))
    return columns


def _quad_columns(spec: SweepSpec, grid: list[float]) -> list[CurveColumn]:
    """The quadrature columns of ``spec``: one oracle call per ``_PLANNED_SCENARIOS`` points."""
    keys = [(signal, mode) for signal in spec.signals for mode in spec.sic_modes]
    values = []  # point by point, each point's in key order
    for first in range(0, len(grid), _PLANNED_SCENARIOS):
        configs = [replace(spec.config, rho_db=rho_db) for rho_db in grid[first:first + _PLANNED_SCENARIOS]]
        values += quad_outages([(config, signal, mode) for config in configs for signal, mode in keys])
    return [CurveColumn(signal, mode, "quad", _in_range(values[k::len(keys)], grid, signal, "quad"))
            for k, (signal, mode) in enumerate(keys)]


def run_sweep(spec: SweepSpec) -> CurveTable:
    """Evaluate the grid; one column per (signal, mode, method), one row per (SNR point, column).

    The grid's ends are checked against the domain first. The methods then
    run in the order given, each over the whole grid: closed, asymptotic
    and TDMA in one evaluator call per column, quadrature in one oracle call
    per ``_PLANNED_SCENARIOS`` points, MC in one engine call per point. Each
    column is range-checked as it is made, so the first error raised is
    that of the first failing column in evaluation order, at its first bad
    point, and no work follows it.
    """
    grid = spec.rho_grid_db()
    # the domain bounds rho_db to an interval, so every point between two
    # valid ends is valid too; the first end fails first
    replace(spec.config, rho_db=grid[0])
    replace(spec.config, rho_db=grid[-1])
    rho = np.array([db_to_linear(rho_db) for rho_db in grid])  # converted as each point's config converts it
    constants = {}  # role group -> derived constants over rho, shared by closed and asymptotic
    columns = {}
    for method in spec.methods:
        if method == "mc":
            made = _mc_columns(spec, grid)
        elif method == "quad":
            made = _quad_columns(spec, grid)
        else:
            made = _grid_columns(spec, method, grid, rho, constants)
        columns.update(((column.signal, column.sic_mode, method), column) for column in made)
    return CurveTable(grid, [columns[signal, mode, method] for signal in spec.signals
                             for mode in spec.sic_modes for method in spec.methods])


def throughput_rows(spec: SweepSpec) -> CurveTable:
    """Delay-limited throughput over the grid, summed from :func:`run_sweep`'s columns of all four signals.

    One column per (SIC mode, method of ``spec.methods``), which must be
    among ``THROUGHPUT_METHODS``; the spec's signals do not enter, since every
    value sums all four. Columns carry signal tag ``"sum"``; MC columns carry
    the trial count and seed of their outage columns.
    """
    for method in spec.methods:
        if method not in THROUGHPUT_METHODS:
            raise ConfigError(f"throughput supports closed, mc or oma, not {method!r}")
    outages = run_sweep(replace(spec, signals=SIGNALS))
    by_key = {(column.signal, column.sic_mode, column.method): column for column in outages.columns}
    table = []
    for mode in spec.sic_modes:
        for method in spec.methods:
            of_signals = [by_key[signal, mode, method] for signal in SIGNALS]
            # point by point, the four outages in x1..x4 order
            values = [analysis.throughput_delay_limited(spec.config, point)
                      for point in zip(*(column.values for column in of_signals))]
            head = of_signals[0]
            table.append(CurveColumn("sum", mode, method, values, trials=head.trials, seed=head.seed))
    return CurveTable(outages.rho_db, table)


def crossover_snr_db(config: SystemConfig, signal: str, mode: str) -> float | None:
    """SNR (dB) where the closed-form outage of ``signal`` under ``mode`` crosses the TDMA baseline.

    Scans figure 1's window :data:`FIGURE_WINDOW_DB` in 0.25 dB steps for
    the first sign change of (superposed - orthogonal) from below and
    refines it by bisection to within 1e-6 dB; returns ``None`` when the
    curves do not cross on the window. Deterministic: no randomness is
    involved. The scan's closed and TDMA columns come from
    :func:`run_sweep`; an unknown signal or mode raises ``ConfigError``
    before any evaluation.
    """
    table = run_sweep(SweepSpec(config, *FIGURE_WINDOW_DB, 0.25, methods=("closed", "oma"),
                                signals=(signal,), sic_modes=(mode,)))
    grid = table.rho_db
    closed, oma = (column.values for column in table.columns)
    gaps = [c - o for c, o in zip(closed, oma)]
    if gaps[0] > 0.0:
        return None  # already above the baseline at the low end
    for i in range(1, len(grid)):
        if gaps[i - 1] <= 0.0 < gaps[i]:
            lo, hi = grid[i - 1], grid[i]
            while hi - lo > 1e-6:
                mid = 0.5 * (lo + hi)
                at = replace(config, rho_db=mid)
                if analysis.closed_outage(at, signal, mode) - oma_outage(at, signal) > 0.0:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)
    return None


def figure_preset(fig_id: int, trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED) -> dict[str, CurveTable]:
    """Reference-scenario sweeps behind the four numerical-result figures.

    Returns a mapping from variant label (one per parameter level, empty for
    single-variant figures) to its table. Presets 1-3 emit outage curves,
    preset 4 delay-limited throughput.
    """
    # figure id -> (methods, evaluation, {variant label: scenario changes});
    # built per call, so it holds the module's current run_sweep and throughput_rows
    presets = {
        1: (("closed", "asymptotic", "mc", "oma"), run_sweep, {"": {}}),
        2: (("closed", "mc"), run_sweep,
            {f"varpi_{level:g}": dict(varpi1=level, varpi2=level) for level in (0.0, 0.01, 0.1)}),
        3: (("closed", "mc"), run_sweep,
            {f"omega_i_{db:g}dB": dict(varpi1=0.0, varpi2=0.0, omega_i_db=db) for db in (-20.0, -10.0, 0.0)}),
        4: (("closed", "oma"), throughput_rows, {f"omega_i_{db:g}dB": dict(omega_i_db=db) for db in (-20.0, -10.0)}),
    }
    if fig_id not in presets:
        raise ConfigError(f"unknown figure id {fig_id}; expected 1-4")
    methods, evaluate, variants = presets[fig_id]
    base = SystemConfig(rho_db=0.0)
    return {
        label: evaluate(SweepSpec(replace(base, **changes), *FIGURE_WINDOW_DB, 2.5, methods=methods,
                                  trials=trials, seed=seed))
        for label, changes in variants.items()
    }


def _csv_text(fields) -> str:
    """``fields`` as ``csv.writer(lineterminator="\\n")`` writes them, without the line end."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(fields)
    return buffer.getvalue()[:-1]


def rows_to_csv(table: CurveTable) -> str:
    """Fixed-schema CSV of ``table.rows()``: header row, '.' decimals, LF line endings.

    The bytes are those of ``csv.writer(lineterminator="\\n")`` writing each
    row with its floats as ``repr(float(...))``. The writer works column by
    column, and numbers need no quoting. A list of floats is formatted once:
    the same list takes its texts again, and so does an equal one that
    holds no zero (``0.0 == -0.0``); a list that repeats values, as an
    asymptotic column does, formats each distinct value once. Each column's
    label is formatted once, by ``csv.writer``, and each point's ``rho_db``
    once. Every row is a fixed run of text pieces, each a list over the
    grid or one text that every point shares; each piece fills a flat list
    by stride, after the header line, and the list is joined once.
    """
    by_id, by_content = {}, {}  # a list's texts, by identity and by content; the lists outlive the call

    def text(values: list[float]) -> list[str]:
        texts = by_id.get(id(values))
        if texts is None:
            key = tuple(values)
            texts = by_content.get(key)
            if texts is None or 0.0 in key:  # 0.0 == -0.0: equal lists may differ in a zero's sign
                sample = key[::16]  # repeats show here in a list of few values, such as an asymptotic column
                memo = dict.fromkeys(values) if len(set(sample)) < len(sample) else {}
                if memo and 0.0 not in memo:  # format each value once; 0.0 and -0.0 would share an entry
                    memo = dict(zip(memo, map(repr, map(float, memo))))
                    texts = list(map(memo.__getitem__, values))
                else:
                    texts = list(map(repr, map(float, values)))
                by_content[key] = texts
            by_id[id(values)] = texts
        return texts

    rho_texts = text(table.rho_db)
    points = len(rho_texts)
    pieces = []  # a row's pieces in order: a list of each point's text, or one text every point shares
    for column in table.columns:
        pieces += [rho_texts, f",{_csv_text((column.signal, column.sic_mode, column.method))},", text(column.values)]
        literal = ","  # the text between the value and the next CI bound given
        for bounds in (column.ci_low, column.ci_high):
            if bounds is None:
                literal += ","
            else:
                pieces += [literal, text(bounds)]
                literal = ","
        tail = ",".join("" if field is None else str(field) for field in (column.trials, column.seed))
        pieces.append(f"{literal}{tail}\n")
    width = len(pieces)
    flat = [None] * (1 + width * points)
    flat[0] = _csv_text(CURVE_FIELDS) + "\n"
    for k, piece in enumerate(pieces, 1):
        flat[k::width] = [piece] * points if isinstance(piece, str) else piece
    return "".join(flat)


def rows_to_json(table: CurveTable) -> str:
    return json.dumps([row._asdict() for row in table.rows()], indent=2) + "\n"


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


def oracle_agreement(n_configs: int = 200, seed: int = DEFAULT_SEED) -> AgreementReport:
    """Compare closed forms against the quadrature oracle on random scenarios.

    Every config is evaluated for both signals and both cancellation modes.
    Scenarios whose active interference rates nearly coincide are tracked
    separately (the partial-fraction route would be ill-conditioned there).
    ``seed`` defaults to ``model.DEFAULT_SEED``, as ``twrnoma validate`` does without ``--seed``.
    """
    check_integer(n_configs, "n_configs")
    if n_configs < 1:
        raise ConfigError(f"at least one random scenario is required, got {n_configs}")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    n_degenerate = int(n_configs * _DEGENERATE_FRACTION)
    worst_distinct = 0.0
    worst_degenerate = 0.0
    for first in range(0, n_configs, _PLANNED_SCENARIOS):
        configs = [
            random_valid_config(rng, force_degenerate=i < n_degenerate)
            for i in range(first, min(first + _PLANNED_SCENARIOS, n_configs))
        ]
        cases = [(config, signal, mode) for config in configs for mode in SIC_MODES for signal in ("x1", "x2")]
        for i, (case, quad) in enumerate(zip(cases, quad_outages(cases, _AGREEMENT_SPEC))):
            rel = abs(analysis.closed_outage(*case) - quad) / max(quad, 1e-300)
            if first + i // (2 * len(SIC_MODES)) < n_degenerate:
                worst_degenerate = max(worst_degenerate, rel)
            else:
                worst_distinct = max(worst_distinct, rel)
    return AgreementReport(n_configs, worst_distinct, worst_degenerate)
