"""Exception hierarchy shared across the package.

Two failure families map onto the CLI exit codes: configuration problems
(exit 1) and numeric/oracle problems (exit 2). The CLI also reports a
``ZeroDivisionError`` of the evaluators as a numeric problem (exit 2).
"""


class ConfigError(ValueError):
    """Invalid scenario parameters, role tuples, or config-file contents."""


class NumericError(ArithmeticError):
    """A computed quantity left its admissible range (NaN, overflow, bad probability)."""


class OracleError(NumericError):
    """Quadrature failed to converge to the requested tolerance."""
