"""Exception hierarchy shared by all estimator components."""


class PrivGaussError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMatrix(PrivGaussError):
    """Input matrix is not symmetric/finite or otherwise unusable."""


class InvalidArgument(PrivGaussError):
    """A scalar or structural argument is out of its documented range."""


class DegenerateSpectrum(PrivGaussError):
    """An eigenvalue that must be positive is zero or negative."""


class InsufficientSamples(PrivGaussError):
    """The dataset is too small for the requested operation."""


class BottomReleased(PrivGaussError):
    """A DP histogram released no bucket (the mechanism's bottom symbol)."""

