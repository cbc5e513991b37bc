"""Exception hierarchy for the package.

Grouped so that callers (the command line tool in particular) can map
failures onto a small set of outcomes: bad inputs, numerical failures,
and malformed case files.
"""

__all__ = [
    "CaseFileError",
    "CaseIntegrityError",
    "CaseParseError",
    "ConnectivityError",
    "InvalidInputError",
    "LapdiffError",
    "NearSingularScenarioError",
    "NotPsdError",
    "NumericalError",
    "PluginUndefinedError",
    "ReductionError",
    "SingularMatrixError",
    "SolverDivergedError",
    "SweepWorkerError",
    "UnboundedProblemError",
]


class LapdiffError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(LapdiffError, ValueError):
    """An argument violates a documented precondition (shape, range, flag)."""


class NumericalError(LapdiffError):
    """Base class for failures of a numerical procedure."""


class NotPsdError(NumericalError):
    """A matrix required to be positive semidefinite has a clearly negative eigenvalue."""


class SingularMatrixError(NumericalError):
    """A matrix required to be invertible (or positive definite) is numerically singular."""


class SolverDivergedError(NumericalError):
    """An iterative solver produced non-finite iterates.

    Attributes
    ----------
    iteration : int
        Iteration index at which divergence was detected.
    """

    def __init__(self, message, iteration=0):
        super().__init__(message)
        self.iteration = iteration


class UnboundedProblemError(NumericalError):
    """The penalized difference problem is provably unbounded below.

    Raised before any solver iteration when a recession direction is found:
    a direction in the null space of one precision factor along which the
    objective decreases linearly. Only a rank-deficient factor, as at
    n < p, has such a null space.
    """


class PluginUndefinedError(NumericalError):
    """The plug-in estimator was requested where it is not defined (n <= p)."""


class NearSingularScenarioError(NumericalError):
    """A synthetic scenario produced a base matrix too close to singular to sample from."""


class ReductionError(NumericalError):
    """Grounding a Laplacian did not produce a positive definite matrix."""


class CaseFileError(LapdiffError):
    """Base class for problems with a power-network case file."""


class CaseParseError(CaseFileError):
    """The case file text could not be parsed.

    Attributes
    ----------
    line : int or None
        One-based line number of the offending text, when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CaseIntegrityError(CaseFileError):
    """The case file parsed but its records are inconsistent."""


class ConnectivityError(CaseFileError):
    """The in-service branch graph of a case does not connect all buses."""


class SweepWorkerError(LapdiffError, ChildProcessError):
    """A sweep worker process ended without answering for its cell.

    Also the cause attached to an error a cell raised in a worker; its
    message then carries the worker's traceback.
    """
