import ast
import inspect
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import twrnoma
from twrnoma.montecarlo import OutageEstimate
from twrnoma.oracle import QuadSpec

# What the acceptance criteria import, one entry point per CLI command, the
# error types and mc_ergodic_rates; every other name comes from its module.
ROOT_API = {
    "ConfigError", "NumericError", "OracleError",
    "SystemConfig", "SIC_MODES", "load_config_file",
    "closed_outage", "asymptotic_outage", "diversity_order_estimate", "HypoexpSpec", "hypoexp_pdf",
    "mc_outage", "mc_ergodic_rates",
    "quad_outages", "integrate_semi_infinite",
    "oma_outage", "SweepSpec", "run_sweep", "throughput_rows", "crossover_snr_db", "oracle_agreement",
    "figure_preset",
}


# What a caller sets on the quadrature and reads off an MC estimate: a knob
# or an echoed input that comes back shows up here.
def test_settable_and_returned_fields():
    assert [field.name for field in fields(QuadSpec)] == ["abs_tol", "rel_tol"]
    assert [field.name for field in fields(OutageEstimate)] == ["p_hat", "ci_low", "ci_high"]
    assert list(inspect.signature(twrnoma.integrate_semi_infinite).parameters) == ["fn", "lower", "scale", "spec"]


DRAWS = {"chunk_generator", "unit_rows"}


def draw_calls(node, scope="<module>"):
    """The enclosing function of every call of ``chunk_generator`` or ``unit_rows`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
        if isinstance(child, ast.Call):
            func = child.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) in DRAWS:
                yield scope
        yield from draw_calls(child, inner)


# Every Monte Carlo chunk is drawn in one loop that both estimators read; a
# second loop that comes back fails here by name.
def test_one_draw_loop():
    package = Path(twrnoma.__file__).resolve().parent
    callers = set()
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        callers |= {(path.relative_to(package).as_posix(), scope) for scope in draw_calls(tree)}
    assert len(callers) == 1 and next(iter(callers))[0] == "montecarlo.py", sorted(callers)


def test_all_exports_resolve():
    for name in twrnoma.__all__:
        getattr(twrnoma, name)


def test_root_exports_exactly_the_criteria_api():
    assert len(twrnoma.__all__) == len(ROOT_API) == 22
    assert set(twrnoma.__all__) == ROOT_API


# The benchmark's set-up command, then a closed_grid-style sweep, in a fresh
# interpreter: neither draws random numbers, so neither may load numpy.random,
# whose first import costs milliseconds and megabytes (secrets, hashlib, OpenSSL).
NO_RANDOM_SNIPPET = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from twrnoma import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["outage", "--methods", "closed"]) == 0
    assert cli.main(["sweep", "--methods", "closed,asymptotic,oma", "--signals", "x1,x2,x3,x4", "--sic", "both",
                     "--rho-min-db", "0", "--rho-max-db", "45", "--rho-step-db", "0.5"]) == 0
print(sorted(name for name in sys.modules if name == "numpy.random" or name.startswith("numpy.random.")))
"""


def test_closed_form_commands_leave_numpy_random_unloaded():
    src = str(Path(twrnoma.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", NO_RANDOM_SNIPPET, src], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
