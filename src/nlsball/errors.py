"""Exception hierarchy shared by all solver modules.

The CLI maps these onto exit codes: parameter/domain problems exit 2,
numeric failures exit 1.  A blow-up is no error: an evolution that hits
its cap or stops being finite ends, and its record says so
(`EvolutionRecord.end_reason`); the CLI's `probe` exits 3 on it.
"""


class NlsBallError(Exception):
    """Base class for all package errors."""


class ParameterError(NlsBallError):
    """Invalid argument or configuration value."""


class DomainError(ParameterError):
    """A continuation parameter lies outside the admissible range."""


class DegenerateInputError(ParameterError):
    """An input profile carries no usable information (e.g. zero norm)."""


class SolverError(NlsBallError):
    """An iterative solver failed to converge; carries diagnostics."""

    def __init__(self, message, **diagnostics):
        super().__init__(message)
        self.diagnostics = dict(diagnostics)


class BracketError(SolverError):
    """No shooting bracket with opposite trajectory classes was found."""


class PrecisionError(SolverError):
    """Bisection exhausted its iteration budget before the tolerance."""


class NoSolutionError(NlsBallError):
    """A selection operation received an empty candidate set."""

