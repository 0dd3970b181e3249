"""Exception types shared across the package."""


class HypactionError(Exception):
    """Base class for all package-specific errors."""


class SpecMismatchError(HypactionError):
    """A word is not a valid normal form for the group spec it was given to."""


class OutOfWindowError(HypactionError):
    """An operation on an explicit finite ball left the materialized window."""


class ExactnessError(HypactionError):
    """A computation that must be exact would require truncated data."""


class ResourceBudgetError(HypactionError):
    """A ball enumeration exceeded the configured memory budget."""


class InvariantViolation(HypactionError):
    """An internal invariant that should be unbreakable was broken."""


class FitError(HypactionError):
    """Decay-envelope fitting failed: a negative product, no data that determine
    the fit, or a failed self-check."""


class UnderdeterminedFitError(FitError):
    """Fewer than two distinct Gromov products among the samples of a fit."""

    def __init__(self, n_samples: int):
        super().__init__(f"decay fit is underdetermined: {n_samples} supported triples "
                         "give fewer than two distinct Gromov products")
        self.n_samples = n_samples


class PSelectionError(HypactionError):
    """No exponent p satisfies the summability requirement."""


class BallFileError(HypactionError):
    """Malformed Cayley-ball file."""


class BallFileSymmetryError(BallFileError):
    """An edge is missing its reverse under the inverse generator."""


class BallFileBasepointError(BallFileError):
    """The declared basepoint is not among the vertices."""


class BallFileRadiusError(BallFileError):
    """The declared radius is inconsistent with breadth-first distances."""
