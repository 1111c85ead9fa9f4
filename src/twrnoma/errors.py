"""Exception hierarchy shared across the package.

Two failure families map onto the CLI exit codes: configuration problems
(exit 1) and numeric/oracle problems (exit 2). The CLI reports every
``ArithmeticError`` as a numeric problem: ``NumericError`` and its
subclasses, and a float error that an evaluator meets, such as a
``FloatingPointError`` from an SNR grid's division by zero.
"""


class ConfigError(ValueError):
    """Invalid scenario parameters, role tuples, or config-file contents."""


class NumericError(ArithmeticError):
    """A computed quantity left its admissible range (NaN, overflow, bad probability)."""


class OracleError(NumericError):
    """Quadrature failed to converge to the requested tolerance."""
