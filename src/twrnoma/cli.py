"""Command-line interface.

Subcommands: ``outage`` (single operating point), ``sweep`` (SNR grid),
``throughput`` (delay-limited, composed from the four outage curves),
``diversity`` (high-SNR slope), ``validate`` (closed-form vs quadrature
agreement suite), ``figure`` (reference-scenario presets). Exit codes:
0 success, 1 configuration error, 2 numeric/oracle failure.

The parser is built once per process and shared by every ``main`` call;
callers read it and never mutate it.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import analysis, experiments
from .errors import ConfigError, NumericError
from .model import SIC_MODES, RunSettings, SystemConfig, load_config_file

_SIC_CHOICES = {"ip": SIC_MODES[:1], "p": SIC_MODES[1:], "both": SIC_MODES}


class _Parser(argparse.ArgumentParser):
    # Flags match whole names only: validate's --configs must not take --config.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # whatever float() reads (-2e1, -inf, -nan) is a value, not an option; argparse takes only -20 and -2.5
    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None

    # usage errors must exit with the config-error code, not argparse's default
    def error(self, message):
        raise ConfigError(message)


def _add_scenario(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value scenario file")
    parser.add_argument("--varpi1", type=float, help="relay-side interference level override")
    parser.add_argument("--varpi2", type=float, help="user-side interference level override")
    parser.add_argument("--omega-i-db", type=float, help="residual-interference variance override (dB)")


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, help="random seed")


def _add_run(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trials", type=int, help="Monte Carlo trials")
    _add_seed(parser)
    parser.add_argument("--out", help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_grid(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rho-min-db", type=float, default=0.0)
    parser.add_argument("--rho-max-db", type=float, default=45.0)
    parser.add_argument("--rho-step-db", type=float, default=2.5)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; ``parse_args`` leaves it unchanged, so never mutate it."""
    parser = _Parser(prog="twrnoma", description=__doc__.rpartition("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_outage = sub.add_parser("outage", help="outage at one operating point")
    p_outage.add_argument("--rho-db", type=float, help="transmit SNR in dB (default: config value)")
    p_outage.add_argument("--sic", choices=sorted(_SIC_CHOICES), default="both")
    p_outage.add_argument("--signals", default="x1,x2,x3,x4")
    p_outage.add_argument("--methods", default="closed")
    _add_scenario(p_outage)
    _add_run(p_outage)

    p_sweep = sub.add_parser("sweep", help="outage curves over an SNR grid")
    _add_grid(p_sweep)
    p_sweep.add_argument("--sic", choices=sorted(_SIC_CHOICES), default="both")
    p_sweep.add_argument("--signals", default="x1,x2")
    p_sweep.add_argument("--methods", default="closed")
    _add_scenario(p_sweep)
    _add_run(p_sweep)

    p_tp = sub.add_parser("throughput", help="delay-limited throughput over an SNR grid")
    _add_grid(p_tp)
    p_tp.add_argument("--sic", choices=sorted(_SIC_CHOICES), default="both")
    p_tp.add_argument("--methods", default="closed")
    _add_scenario(p_tp)
    _add_run(p_tp)

    p_div = sub.add_parser("diversity", help="high-SNR outage slope")
    p_div.add_argument("--signal", choices=experiments.SIGNALS, default="x1")
    p_div.add_argument("--sic", choices=("ip", "p"), default="ip")
    p_div.add_argument("--rho-lo-db", type=float, default=50.0)
    p_div.add_argument("--rho-hi-db", type=float, default=60.0)
    _add_scenario(p_div)

    p_val = sub.add_parser("validate", help="closed-form vs quadrature agreement suite")
    p_val.add_argument("--configs", type=int, default=200)
    p_val.add_argument("--rel-tol", type=float, default=1e-6)
    p_val.add_argument("--rel-tol-degenerate", type=float, default=1e-5)
    _add_seed(p_val)

    p_fig = sub.add_parser("figure", help="reference-scenario presets (ids 1-4)")
    p_fig.add_argument("--id", type=int, required=True, choices=(1, 2, 3, 4))
    _add_run(p_fig)

    return parser


def _given(**flags) -> dict:
    """The flags that were given on the command line: those not left at ``None``."""
    return {name: value for name, value in flags.items() if value is not None}


def _load_scenario(args: argparse.Namespace) -> tuple[SystemConfig, RunSettings]:
    """The ``--config`` file, or the defaults, with the scenario flags over it.

    The config is built and checked once, after the flags replace the file's
    values. Only ``outage`` reads ``rho_db``, from ``--rho-db`` or else the
    file; the other commands evaluate their own SNR grid and take the default,
    so a file ``rho_db`` they never read is never checked.
    """
    rho_db = args.rho_db if args.command == "outage" else SystemConfig.rho_db
    overrides = _given(varpi1=args.varpi1, varpi2=args.varpi2, omega_i_db=args.omega_i_db, rho_db=rho_db)
    if args.config:
        return load_config_file(args.config, **overrides)
    return SystemConfig(**overrides), RunSettings()


def _run_settings(args: argparse.Namespace, settings: RunSettings = RunSettings()) -> RunSettings:
    """``settings`` with ``--trials`` and ``--seed`` over them."""
    return replace(settings, **_given(trials=args.trials, seed=args.seed))


def _split(csv_list: str) -> tuple[str, ...]:
    """The stripped, non-empty items of a comma list; ``SweepSpec`` checks what they name."""
    return tuple(item.strip() for item in csv_list.split(",") if item.strip())


def _emit(table: experiments.CurveTable, out: str | None, fmt: str) -> None:
    """``table`` in format ``fmt`` to the file ``out``, or to stdout when it is ``None``."""
    text = experiments.rows_to_csv(table) if fmt == "csv" else experiments.rows_to_json(table)
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write output file {out!r}: {exc}") from exc
    print(f"wrote {len(table)} rows to {out}")


def _sweep_spec(args, **selection) -> experiments.SweepSpec:
    """The spec of ``outage``, ``sweep`` and ``throughput``: scenario, run flags, ``--sic`` and ``--methods``.

    ``outage`` evaluates the one point at the scenario's SNR, the others their grid.
    """
    one_point = args.command == "outage"
    config, settings = _load_scenario(args)
    settings = _run_settings(args, settings)
    grid = (config.rho_db, config.rho_db, 1.0) if one_point else (args.rho_min_db, args.rho_max_db, args.rho_step_db)
    return experiments.SweepSpec(
        config, *grid, methods=_split(args.methods), sic_modes=_SIC_CHOICES[args.sic],
        trials=settings.trials, seed=settings.seed, **selection,
    )


def _cmd_sweep(args) -> int:
    # also ``outage``: a sweep of one point
    _emit(experiments.run_sweep(_sweep_spec(args, signals=_split(args.signals))), args.out, args.format)
    return 0


def _cmd_throughput(args) -> int:
    _emit(experiments.throughput_rows(_sweep_spec(args)), args.out, args.format)
    return 0


def _cmd_diversity(args) -> int:
    config, _ = _load_scenario(args)
    (mode,) = _SIC_CHOICES[args.sic]

    def outage_at(rho_db: float) -> float:
        return analysis.closed_outage(replace(config, rho_db=rho_db), args.signal, mode)

    estimate = analysis.diversity_order_estimate(outage_at, args.rho_lo_db, args.rho_hi_db)
    print(f"diversity order of {args.signal} ({mode}) between "
          f"{args.rho_lo_db:g} and {args.rho_hi_db:g} dB: {estimate:.6f}")
    return 0


def _cmd_validate(args) -> int:
    for flag, tol in (("--rel-tol", args.rel_tol), ("--rel-tol-degenerate", args.rel_tol_degenerate)):
        if not (tol > 0.0 and math.isfinite(tol)):
            raise ConfigError(f"{flag} must be positive and finite, got {tol!r}")
    report = experiments.oracle_agreement(n_configs=args.configs, **_given(seed=args.seed))
    print(f"checked {report.checked} random scenarios (both signals, both SIC modes)")
    print(f"max relative error, distinct rates:        {report.max_rel_err_distinct:.3e} "
          f"(tolerance {args.rel_tol:.1e})")
    print(f"max relative error, near-coincident rates: {report.max_rel_err_degenerate:.3e} "
          f"(tolerance {args.rel_tol_degenerate:.1e})")
    ok = (report.max_rel_err_distinct <= args.rel_tol
          and report.max_rel_err_degenerate <= args.rel_tol_degenerate)
    print("agreement: PASS" if ok else "agreement: FAIL")
    if not ok:
        raise NumericError("closed-form vs quadrature agreement outside tolerance")
    return 0


def _cmd_figure(args) -> int:
    settings = _run_settings(args)
    variants = experiments.figure_preset(args.id, trials=settings.trials, seed=settings.seed)
    for label, table in variants.items():
        target = None
        if args.out:
            path = Path(args.out)
            target = str(path if not label else path.with_name(f"{path.stem}_{label}{path.suffix}"))
        elif label:
            print(f"# variant: {label}")
        _emit(table, target, args.format)
    if args.id == 1:
        lo, hi = experiments.FIGURE_WINDOW_DB
        for signal in ("x1", "x2"):
            for mode in SIC_MODES:
                cross = experiments.crossover_snr_db(SystemConfig(), signal, mode)
                shown = f"none on [{lo:g}, {hi:g}] dB" if cross is None else f"{cross:.2f} dB"
                print(f"crossover vs TDMA baseline, {signal} {mode}: {shown}")
    return 0


_COMMANDS = {
    "outage": _cmd_sweep,
    "sweep": _cmd_sweep,
    "throughput": _cmd_throughput,
    "diversity": _cmd_diversity,
    "validate": _cmd_validate,
    "figure": _cmd_figure,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
