"""Exception and warning types shared across the package."""


class GapfillError(Exception):
    """Base class for errors raised by this package."""


class DataError(GapfillError):
    """Input data violates a precondition: parsing, gap structure, window sizes."""


class NumericalError(GapfillError):
    """A solve cannot proceed: unreachable or ill-conditioned control problem, or numeric overflow."""


class RankDeficiencyWarning(UserWarning):
    """A least-squares design was rank deficient; minimum-norm coefficients were returned."""
