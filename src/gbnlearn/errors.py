"""Exception types shared across the package.

A class exists only where a caller reacts to it differently from its
base: program code catches it by type, or a documented contract names
it. Everything raised on purpose derives from GbnError (the CLI's exit
2). NumericalError groups the failures that surface from linear algebra
on degenerate inputs (the CLI's exit 3); the benchmark harness treats
those as recoverable, recording the affected fit as degenerate instead
of aborting the sweep. Any other input outside its domain raises
InvalidParameter.
"""


class GbnError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameter(GbnError):
    """Parameter outside its documented domain."""


class NumericalError(GbnError):
    """Base class for surfaced numerical failures."""


class NotPositiveDefinite(NumericalError):
    """Matrix expected to be symmetric positive definite is not."""


class RankDeficient(NumericalError):
    """Design matrix is numerically rank deficient."""


class CholeskyFailed(NumericalError):
    """Empirical parent covariance admits no Cholesky factor."""


class InsufficientSamples(GbnError):
    """Fewer samples than an estimator requires."""


class ConfigInvalid(GbnError):
    """Malformed experiment configuration."""


class FileFormatError(GbnError):
    """On-disk artifact does not match its documented format."""
