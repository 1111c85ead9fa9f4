"""Output checks for the benchmark workloads.

Every check compares the program's output with a reference that does not
come from the path being timed: MC rows against the closed row at the same
point, ``oma`` rows against the benchmark's own evaluation of the TDMA
formula, closed rows against quadrature computed in set-up, and ``validate``
against the tolerances it prints. Checks run outside the timed phase.
"""

from __future__ import annotations

import csv
import io
import math
import re

# Deviation bound of an MC failure count from its closed-form mean, from
# Bernstein's inequality: P(|k - n p| >= t) <= 2 exp(-C) for
# t = C/3 + sqrt(C^2/9 + 2 C n p (1 - p)). With C = 23 a correct program
# fails one row with probability below 2e-10, for any count, however small.
# For large counts the bound is about 6.8 standard deviations.
BERNSTEIN_C = 23.0

# Closed form against quadrature: the loosest tolerance `validate` applies
# (near-coincident interference rates, which the reference scenario has).
QUAD_REL_TOL = 1e-5

# The TDMA reference: every message has its own phase in an 8-phase round.
OMA_PHASES = 8
OMA_REL_TOL = 1e-12

# signal -> (source user, destination user), 1-based
OMA_HOPS = {"x1": (1, 3), "x2": (2, 4), "x3": (3, 1), "x4": (4, 2)}

_VALIDATE_CHECKED = re.compile(r"^checked (\d+) random scenarios", re.M)
_VALIDATE_ERR = re.compile(
    r"^max relative error, (distinct|near-coincident) rates:\s+(\S+) \(tolerance (\S+)\)", re.M
)


class Report:
    """Counts checks attempted and failed, and keeps the first failures."""

    MAX_KEPT = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < self.MAX_KEPT:
                self.failures.append(what)
        return ok


def iter_rows(text: str) -> csv.DictReader:
    """Rows of the CLI's CSV output, as dicts of strings, read lazily."""
    return csv.DictReader(io.StringIO(text))


def point_key(row: dict) -> tuple[str, str, str]:
    return (row["rho_db"], row["signal"], row["sic_mode"])


def mc_count_bound(p: float, trials: int) -> float:
    """Largest deviation of a failure count that the MC check accepts."""
    var = trials * p * (1.0 - p)
    return BERNSTEIN_C / 3.0 + math.sqrt(BERNSTEIN_C**2 / 9.0 + 2.0 * BERNSTEIN_C * var)


def check_exit(code: int, report: Report, what: str) -> bool:
    return report.check(code == 0, f"{what}: exit code {code}")


def check_value(row: dict, report: Report) -> None:
    """The value is finite and in [0, 1]."""
    try:
        value = float(row["value"])
    except (TypeError, ValueError):
        value = math.nan
    report.check(math.isfinite(value) and 0.0 <= value <= 1.0, f"value out of range: {row}")


def check_mc_rows(rows: list[dict], report: Report) -> None:
    """Each MC row is near the closed row at its point, and its CI brackets it."""
    closed = {point_key(r): float(r["value"]) for r in rows if r["method"] == "closed"}
    for row in rows:
        if row["method"] != "mc":
            continue
        p_hat = float(row["value"])
        trials = int(row["trials"])
        lo, hi = float(row["ci_low"]), float(row["ci_high"])
        report.check(lo <= p_hat <= hi, f"MC CI does not bracket p_hat: {row}")
        p = closed.get(point_key(row))
        if p is None:
            report.check(False, f"MC row without a closed row at its point: {row}")
            continue
        deviation = abs(p_hat - p) * trials
        bound = mc_count_bound(p, trials)
        report.check(
            deviation <= bound,
            f"MC row {deviation:.1f} failures from closed p={p!r} (bound {bound:.1f}): {row}",
        )


def oma_reference(signal: str, rho_db: float, omega: tuple, rates: tuple) -> float:
    """Outage of one signal under eight-phase TDMA decode-and-forward."""
    src, dst = OMA_HOPS[signal]
    gamma = 2.0 ** (OMA_PHASES * rates[src - 1]) - 1.0
    rho = 10.0 ** (rho_db / 10.0)
    return 1.0 - math.exp(-gamma / (rho * omega[src - 1])) * math.exp(-gamma / (rho * omega[dst - 1]))


def check_oma_row(row: dict, omega: tuple, rates: tuple, report: Report) -> None:
    expected = oma_reference(row["signal"], float(row["rho_db"]), omega, rates)
    report.check(
        math.isclose(float(row["value"]), expected, rel_tol=OMA_REL_TOL, abs_tol=1e-300),
        f"oma row {row['value']} != TDMA reference {expected!r}: {row}",
    )


def check_quad_refs(closed: dict, refs: dict, report: Report) -> None:
    """Closed values at the reference points match quadrature from set-up."""
    for key, quad in refs.items():
        value = closed.get(key)
        ok = value is not None and abs(value - quad) <= QUAD_REL_TOL * max(quad, 1e-300)
        report.check(ok, f"closed {value!r} vs quad {quad!r} at {key}")


def parse_validate(text: str) -> dict | None:
    """The numbers `validate` prints, or None when the summary is missing."""
    checked = _VALIDATE_CHECKED.search(text)
    errors = {kind: (float(err), float(tol)) for kind, err, tol in _VALIDATE_ERR.findall(text)}
    if checked is None or set(errors) != {"distinct", "near-coincident"}:
        return None
    return {
        "checked": int(checked.group(1)),
        "distinct": errors["distinct"],
        "degenerate": errors["near-coincident"],
        "passed": "agreement: PASS" in text.splitlines(),
    }


def check_validate(text: str, configs: int, report: Report) -> dict | None:
    parsed = parse_validate(text)
    if not report.check(parsed is not None, f"validate summary missing: {text!r}"):
        return None
    report.check(parsed["checked"] == configs, f"validate checked {parsed['checked']} of {configs} configs")
    report.check(parsed["passed"], "validate did not print 'agreement: PASS'")
    for kind in ("distinct", "degenerate"):
        err, tol = parsed[kind]
        report.check(math.isfinite(err) and err <= tol, f"validate {kind} error {err} above tolerance {tol}")
    return parsed
