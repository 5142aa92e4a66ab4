"""Exception types shared across the package.

Everything raised on purpose derives from GbnError so callers can catch
package failures with a single except clause. NumericalError groups the
failures that surface from linear algebra on degenerate inputs; the
benchmark harness treats those as recoverable (the affected fit is
recorded as degenerate instead of aborting the sweep).
"""


class GbnError(Exception):
    """Base class for all errors raised by this package."""


class InvalidIndex(GbnError):
    """Node index outside [0, n)."""


class SelfLoop(GbnError):
    """Edge from a node to itself."""


class DuplicateEdge(GbnError):
    """The same directed edge listed more than once."""


class CycleDetected(GbnError):
    """Edge set admits no topological order."""


class InvalidSize(GbnError):
    """Requested structure size is out of range."""


class InvalidParameter(GbnError):
    """Parameter outside its documented domain."""


class NotEnoughEdges(GbnError):
    """Asked to remove more edges than the graph has."""


class InvalidRange(GbnError):
    """Malformed interval, e.g. a weight magnitude range."""


class NonPositiveVariance(GbnError):
    """Noise variances must be strictly positive."""


class DimensionMismatch(GbnError):
    """Array shapes inconsistent with the graph or with each other."""


class StructureMismatch(GbnError):
    """Two models expected to share a DAG do not."""


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


class BatchTooSmall(GbnError):
    """Batch size must exceed the per-node parent count."""


class InvalidSpec(GbnError):
    """Malformed contamination or scenario specification."""


class ConfigInvalid(GbnError):
    """Malformed experiment configuration."""


class EmptyInput(GbnError):
    """Aggregation over an empty collection."""


class FileFormatError(GbnError):
    """On-disk artifact does not match its documented format."""
