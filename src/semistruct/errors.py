"""Exception types shared across the package."""


class SemistructError(Exception):
    """Base class for all package errors."""


class ContractViolation(SemistructError, ValueError):
    """An operation was called with arguments that break its contract."""


class UnsupportedConfiguration(SemistructError, ValueError):
    """A space or solver configuration that cannot be executed.

    Raised, for example, when a graph edge joins sequences of different
    lengths, whose outputs no shipped loss can compare.
    """


class DataFormatError(SemistructError, ValueError):
    """A dataset or taxonomy file failed to parse or validate."""


class Diverged(SemistructError, RuntimeError):
    """The weight update or the objective produced non-finite values.

    Carries the iteration at which divergence was detected and the partial
    solver state (including the objective trace up to that point).
    """

    def __init__(self, message, iteration=None, state=None):
        super().__init__(message)
        self.iteration = iteration
        self.state = state
