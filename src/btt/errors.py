"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: InputError -> 2,
CapacityError -> 3, VerificationError -> 4.
"""


class BttError(Exception):
    """Base class for all errors raised by this package."""


class InputError(BttError):
    """Malformed or inconsistent caller input (bad ids, bad files, bad specs)."""


class CapacityError(BttError):
    """Instance exceeds a configured solver or representation bound."""


class BudgetExceededError(CapacityError):
    """An exact search ran out of its node budget.

    Carries the best (lower, upper) objective bounds established so far.
    """

    def __init__(self, message: str, bounds: tuple):
        super().__init__(message)
        self.bounds = bounds


class VerificationError(BttError):
    """A verification check failed; the message names the offending item."""


class ConvergenceError(BttError):
    """Iterative solver hit its iteration cap before certifying its target gap.

    Carries the best (lower, upper) objective bounds found so far and the
    number of rounds run.
    """

    def __init__(self, message: str, bounds: tuple, rounds: int):
        super().__init__(message)
        self.bounds = bounds
        self.rounds = rounds
