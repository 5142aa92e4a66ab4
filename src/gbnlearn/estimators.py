"""Coefficient and variance estimators for linear-Gaussian networks.

Every coefficient method works node by node: regress a node's column on
its parents' columns. The methods differ in how they turn rows into a
coefficient vector:

* ``least_squares``: one ordinary least-squares solve over all rows.
* ``batch_avg`` / ``batch_med``: split the rows into disjoint batches of
  size ``p + batch_extra``, solve each batch by least squares, then
  aggregate with the mean or the coordinate-wise median. The median
  variant trades a constant factor of accuracy for robustness to grossly
  corrupted rows.
* ``cauchy_est_tree``: square batches of exactly ``p`` rows, solved
  directly; the batch errors are heavy-tailed (Cauchy-like) but their
  coordinate-wise median concentrates.
* ``cauchy_est``: same square batches, but the median is taken in a
  whitened coordinate system derived from the Cholesky factor of the
  empirical parent covariance, which handles correlated parents.

``fit`` drives a full model estimate: the first ``m // 2`` rows feed
the coefficient method and the remaining rows feed variance recovery
(mean of squared residuals, or a median-absolute-deviation estimate for
contaminated data). Each kernel checks its own row need;
``fit`` names the node and the method on every kernel error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dag import Dag
from .errors import CholeskyFailed, ConfigInvalid, GbnError, InsufficientSamples, InvalidParameter, RankDeficient
from .gbn import GaussianBayesNet

BATCH_METHODS = ("batch_avg", "batch_med")

# Per coefficient method: the kernel that turns a node's (m1, p) parent
# block x and target y into coefficients. Each kernel is named inside a
# lambda, so it is looked up in this module at fit time and a patched
# module attribute sees every call.
_METHOD_TABLE = {
    "least_squares": lambda x, y, extra: least_squares_node(x, y),
    "batch_avg": lambda x, y, extra: batch_least_squares(x, y, x.shape[1] + extra, "mean"),
    "batch_med": lambda x, y, extra: batch_least_squares(x, y, x.shape[1] + extra, "median"),
    "cauchy_est": lambda x, y, extra: cauchy_est_node(x, y),
    "cauchy_est_tree": lambda x, y, extra: cauchy_est_tree_node(x, y),
}
COEFFICIENT_METHODS = tuple(_METHOD_TABLE)
METHODS = COEFFICIENT_METHODS + ("empirical_mle",)
VARIANCE_METHODS = ("empirical", "mad")

# Consistency factor relating the median absolute deviation to the
# standard deviation of a Gaussian (1 / Phi^-1(3/4), rounded as is
# conventional).
MAD_SCALE = 1.4826

# A least-squares design is rank deficient when its smallest singular
# value is at most this fraction of its largest.
_LSTSQ_RCOND = 1e-6

# A variance estimate at or below this floor is degenerate: the value is
# substituted so the model stays constructible, and the node is flagged.
DEGENERATE_VARIANCE = 1e-300


@dataclass(frozen=True)
class FitConfig:
    """Estimator selection and its knobs.

    ``batch_extra`` is the number of rows beyond the parent count in each
    batch for the batch_* methods (ignored elsewhere).
    """

    method: str
    batch_extra: int = 20
    variance_method: str = "empirical"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigInvalid(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.variance_method not in VARIANCE_METHODS:
            raise ConfigInvalid(
                f"unknown variance method {self.variance_method!r}; expected one of {VARIANCE_METHODS}"
            )
        if isinstance(self.batch_extra, bool) or not isinstance(self.batch_extra, int) or self.batch_extra < 0:
            raise ConfigInvalid(f"batch_extra must be a nonnegative integer, got {self.batch_extra!r}")
        if self.method in BATCH_METHODS and self.batch_extra < 1:
            raise ConfigInvalid("batch_extra must be >= 1 for batch methods")


@dataclass(frozen=True)
class FitOutcome:
    """A fitted model plus the nodes whose variance estimate degenerated."""

    model: GaussianBayesNet
    degenerate_nodes: tuple[int, ...]


# --------------------------------------------------------------------------
# per-node coefficient estimators


def _node_arrays(parent_block, target) -> tuple[np.ndarray, np.ndarray]:
    # The shared input check of the per-node kernels: a 2-d parent block,
    # a target with one value per row, and no NaN or +-inf in either.
    x = np.asarray(parent_block, dtype=float)
    y = np.asarray(target, dtype=float)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise InvalidParameter(f"incompatible shapes {x.shape} and {y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InvalidParameter("parent block or target contains NaN or infinite values")
    return x, y


def _lstsq_stack(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    # Least squares over a (b, k, p) stack with k >= p. Returns the
    # solutions of the full-rank batches only, in stack order. The rank
    # rule is lstsq's, on the singular values of X: rank deficient when
    # s_min <= _LSTSQ_RCOND * s_max.
    #
    # p = 1 is solved in closed form, <x, y> / <x, x>, which is as well
    # conditioned as QR (a single column has condition number 1). Each
    # batch's x and y are first scaled by the powers of two of their
    # largest magnitudes, an exact scaling that keeps every product in
    # range: <u, u> lies in [1/4, k] and |<u, v>| <= k. The sums are
    # numpy's pairwise sums, so the solution stays within a few ulps of
    # the exact one (closer than the batched QR gets); it is not
    # bit-identical to lstsq, whose bits depend on the BLAS kernels. A
    # single column has s_min = s_max = ||x||, so it is rank deficient
    # exactly when it is all zero.
    p = xs.shape[2]
    if p == 1:
        x_max = np.abs(xs[..., 0]).max(axis=1)
        keep = x_max > 0.0
        x, y = xs[keep, :, 0], ys[keep]
        ex = np.frexp(x_max[keep])[1]
        ey = np.frexp(np.abs(y).max(axis=1))[1]
        u, v = np.ldexp(x, -ex[:, None]), np.ldexp(y, -ey[:, None])
        sols = (u * v).sum(axis=1) / (u * u).sum(axis=1)
        with np.errstate(over="ignore"):  # a solution beyond the float range is +-inf, as lstsq's is
            return np.ldexp(sols, ey - ex)[:, None]
    # p >= 2: one batched QR of [X | y] gives R and Q^T y together, then
    # one batched solve of the leading p x p triangles gives the solutions
    # and R^-1. Two bounds settle almost every batch's rank without an
    # SVD. s_min <= min|R_jj| and max|R_jj| <= s_max, so a small diagonal
    # ratio is rank deficient; and s_max / s_min <= ||R||_F * ||R^-1||_F,
    # so a small product is full rank. At extreme scales the norms can
    # overflow; an inf or nan product leaves the batch to the SVD check.
    aug = np.concatenate([xs, ys[..., None]], axis=2)
    r = np.linalg.qr(aug, mode="r")
    diag = np.abs(np.diagonal(r[:, :p, :p], axis1=1, axis2=2))
    r = r[diag.min(axis=1, initial=np.inf) > _LSTSQ_RCOND * diag.max(axis=1, initial=0.0)]
    tri = r[:, :p, :p]
    rhs = np.concatenate([r[:, :p, p:], np.broadcast_to(np.eye(p), tri.shape)], axis=2)
    z = np.linalg.solve(tri, rhs)  # columns: the solution, then R^-1
    with np.errstate(over="ignore", invalid="ignore"):
        cond_bound = np.linalg.norm(tri, axis=(1, 2)) * np.linalg.norm(z[..., 1:], axis=(1, 2))
    full_rank = cond_bound * _LSTSQ_RCOND < 1.0
    unsure = np.flatnonzero(~full_rank)
    if len(unsure):
        sv = np.linalg.svd(tri[unsure], compute_uv=False)
        full_rank[unsure] = sv[:, -1] > _LSTSQ_RCOND * sv[:, 0]
    return z[full_rank, :, 0]


def least_squares_node(parent_block: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Ordinary least squares of ``target`` on ``parent_block``.

    Solved through ``X = QR``; a single parent column ``x`` is solved in
    closed form as ``<x, y> / <x, x>``, which agrees with
    ``np.linalg.lstsq`` to rounding (within 1e-10 relative in the tests)
    but not bit for bit. Raises InsufficientSamples when there are
    fewer rows than parents, RankDeficient when the smallest singular
    value of ``X`` is at most ``_LSTSQ_RCOND`` times the largest (the rank
    rule of ``np.linalg.lstsq(rcond=_LSTSQ_RCOND)``), and InvalidParameter
    when the input holds NaN or +-inf.
    """
    x, y = _node_arrays(parent_block, target)
    m, p = x.shape
    if m < p:
        raise InsufficientSamples(f"needs at least {p} rows, got {m}")
    sols = _lstsq_stack(x[None], y[None])
    if not len(sols):
        raise RankDeficient(f"design matrix has relative singular value <= {_LSTSQ_RCOND}")
    return sols[0]


def batch_least_squares(parent_block: np.ndarray, target: np.ndarray, k: int, aggregator: str) -> np.ndarray:
    """Disjoint consecutive batches of ``k`` rows, least squares per batch.

    ``k`` must exceed the parent count; ``floor(m / k)`` batches are used
    and trailing rows are discarded. All batches are solved in one stacked
    call of :func:`least_squares_node`'s kernel (one batched QR, or the
    closed form for one parent), under the same rank rule: a batch whose
    smallest singular value is at most ``_LSTSQ_RCOND`` times its largest
    is skipped; if every batch is skipped the whole call raises
    RankDeficient. Input holding NaN or +-inf raises InvalidParameter.
    ``aggregator`` selects ``"mean"`` or coordinate-wise
    ``"median"`` (an even solution count yields the average of the two
    central order statistics per coordinate).
    """
    x, y = _node_arrays(parent_block, target)
    if aggregator not in ("mean", "median"):
        raise InvalidParameter(f"aggregator must be 'mean' or 'median', got {aggregator!r}")
    m, p = x.shape
    if k <= p:
        raise InvalidParameter(f"batch size {k} must exceed parent count {p}")
    b = m // k
    if b < 1:
        raise InsufficientSamples(f"needs at least {k} rows, got {m}")
    stacked = _lstsq_stack(x[: b * k].reshape(b, k, p), y[: b * k].reshape(b, k))
    if not len(stacked):
        raise RankDeficient(f"all {b} batches were rank deficient")
    if aggregator == "mean":
        return stacked.mean(axis=0)
    return np.median(stacked, axis=0)


def batch_solve(square_block: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Solve the square linear system of one p-sample batch.

    Singular systems (or solves that overflow to non-finite values) fall
    back to the minimum-norm least-squares solution, so the caller always
    gets a finite vector to feed into a median.
    """
    x = np.asarray(square_block, dtype=float)
    y = np.asarray(target, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1] or y.shape != (x.shape[0],):
        raise InvalidParameter(f"need a square system, got {x.shape} and {y.shape}")
    try:
        sol = np.linalg.solve(x, y)
        if np.all(np.isfinite(sol)):
            return sol
    except np.linalg.LinAlgError:
        pass
    return np.linalg.lstsq(x, y, rcond=None)[0]


def _batch_solve_stack(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Solutions of the floor(m / p) square batches of consecutive rows of
    # an (m, p) block, trailing rows dropped, solved as one (b, p, p)
    # stack; every batch without a finite solution goes to batch_solve.
    # For p = 1 the division y / x gives LAPACK's bits without a call per
    # batch (OpenBLAS divides by the pivot), and a zero or overflowing
    # divisor marks only its own batch. For p > 1 one singular matrix
    # makes the stacked LAPACK solve raise, which leaves every batch
    # without one. Bitwise identical to looping batch_solve either way.
    m, p = x.shape
    b = m // p
    xs = x[: b * p].reshape(b, p, p)
    ys = y[: b * p].reshape(b, p)
    if p == 1:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore", under="ignore"):
            sols = ys / xs[..., 0]
    else:
        try:
            sols = np.linalg.solve(xs, ys[..., None])[..., 0]
        except np.linalg.LinAlgError:
            sols = np.full((b, p), np.nan)
    for idx in np.flatnonzero(~np.all(np.isfinite(sols), axis=1)):
        sols[idx] = batch_solve(xs[idx], ys[idx])
    return sols


def cauchy_est_tree_node(parent_block: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Coordinate-wise median of square-batch solutions.

    Rows are split into ``floor(m / p)`` disjoint batches of exactly
    ``p`` rows; each batch is solved as a square system. For a polytree
    the per-batch errors are independent scaled Cauchy variables, so the
    median concentrates even with heavy tails and corrupted rows. Input
    holding NaN or +-inf raises InvalidParameter before any solve.
    """
    x, y = _node_arrays(parent_block, target)
    m, p = x.shape
    if p < 1:
        raise InvalidParameter("node must have at least one parent")
    if m < p:
        raise InsufficientSamples(f"needs at least {p} rows, got {m}")
    return np.median(_batch_solve_stack(x, y), axis=0)


def cauchy_est_node(parent_block: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Median of square-batch solutions in a whitened coordinate system.

    The empirical parent second-moment matrix ``Mhat = X^T X / m`` (all
    rows, up to an exact power-of-two scale) is Cholesky-factored as
    ``L L^T``; batch solutions are mapped through ``L^T``, the
    coordinate-wise median is taken there, and the result is mapped back
    by ``(L^T)^-1``. Requires ``m >= p + 1``. A failed factorization
    raises CholeskyFailed; it is never silently regularized. Input
    holding NaN or +-inf raises InvalidParameter first.
    """
    x, y = _node_arrays(parent_block, target)
    m, p = x.shape
    if p < 1:
        raise InvalidParameter("node must have at least one parent")
    if m < p + 1:
        raise InsufficientSamples(f"needs at least {p + 1} rows, got {m}")
    # Mhat is formed on x scaled by the power of two of its largest
    # magnitude, so X^T X neither over- nor underflows at extreme scales.
    # L then carries that power, which cancels exactly between the
    # whitening and the back-solve.
    u = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
    try:
        ell = np.linalg.cholesky(u.T @ u / m)
    except np.linalg.LinAlgError as exc:
        raise CholeskyFailed(f"empirical parent covariance is not positive definite: {exc}") from exc
    whitened_median = np.median(_batch_solve_stack(x, y) @ ell, axis=0)
    return scipy.linalg.solve_triangular(ell.T, whitened_median, lower=False)


def empirical_mle(data: np.ndarray) -> np.ndarray:
    """Empirical second-moment matrix ``X^T X / m`` (zero-mean MLE baseline)."""
    x = np.asarray(data, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise InvalidParameter(f"need a nonempty 2-d sample array, got shape {x.shape}")
    return x.T @ x / x.shape[0]


# --------------------------------------------------------------------------
# variance recovery


def _residual_columns(dag: Dag, data: np.ndarray, coeffs) -> np.ndarray:
    out = np.empty_like(data)
    for i in range(dag.n):
        pa = dag.parents[i]
        if pa:
            out[:, i] = data[:, i] - data[:, pa] @ coeffs[i]
        else:
            out[:, i] = data[:, i]
    return out


def variance_recovery(dag: Dag, data: np.ndarray, coeffs) -> np.ndarray:
    """Mean squared residual per node given coefficient estimates.

    A parentless node's residual is its raw value. The rows passed here
    should be disjoint from the rows that produced ``coeffs``; ``fit``
    arranges that split.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 2 or x.shape[1] != dag.n:
        raise InvalidParameter(f"expected (m, {dag.n}) samples, got shape {x.shape}")
    if x.shape[0] < 1:
        raise InsufficientSamples("variance recovery needs at least one row")
    resid = _residual_columns(dag, x, coeffs)
    # Reduce in row order whatever the sample layout: numpy sums a
    # contiguous axis pairwise, which would move the last bits.
    with np.errstate(over="ignore"):  # an inf estimate is flagged degenerate by fit_detailed
        return np.ascontiguousarray(resid**2).mean(axis=0)


def mad_variance(residuals: np.ndarray) -> float:
    """Robust variance via the median absolute deviation.

    ``sigma_hat = 1.4826 * median(|x - median(x)|)``; returns the square.
    Invariant to up to half the entries being arbitrarily corrupted.
    """
    r = np.asarray(residuals, dtype=float).reshape(-1)
    if r.size < 1:
        raise InsufficientSamples("mad_variance needs at least one value")
    center = float(np.median(r))
    sigma = MAD_SCALE * float(np.median(np.abs(r - center)))
    return sigma * sigma


# --------------------------------------------------------------------------
# full-model fitting


def fit_detailed(dag: Dag, data: np.ndarray, config: FitConfig) -> FitOutcome:
    """Two-phase fit returning the model plus degenerate-variance flags.

    Phase one runs the configured coefficient method on the first
    ``m // 2`` rows, node by node in ascending order; ``m >= 2``. Phase
    two recovers noise variances from the other ``m - m // 2`` rows'
    residuals (``empirical`` mean square or robust ``mad``). A degenerate
    variance estimate (at most ``DEGENERATE_VARIANCE``, or not finite)
    is replaced by ``DEGENERATE_VARIANCE`` and the node is reported in
    ``degenerate_nodes`` so callers can exclude the fit from scoring.
    Samples holding NaN or +-inf are rejected with InvalidParameter before
    any solve; a kernel error keeps its class and gains ``node i: method M:``.
    """
    if config.method == "empirical_mle":
        raise ConfigInvalid(
            "empirical_mle is not a per-node coefficient method; call empirical_mle() "
            "and score it with gaussian_kl"
        )
    x = np.asarray(data, dtype=float)
    if x.ndim != 2 or x.shape[1] != dag.n:
        raise InvalidParameter(f"expected (m, {dag.n}) samples, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise InvalidParameter("samples contain NaN or infinite values")
    m = x.shape[0]
    if m < 2:
        raise InsufficientSamples(f"needs at least 2 rows, one per phase, got {m}")
    m1 = m // 2
    kernel = _METHOD_TABLE[config.method]
    coeffs: list[np.ndarray] = []
    for i in range(dag.n):
        pa = dag.parents[i]
        if not pa:
            coeffs.append(np.zeros(0))
            continue
        try:
            coeffs.append(kernel(x[:m1, pa], x[:m1, i], config.batch_extra))
        except GbnError as exc:
            raise type(exc)(f"node {i}: method {config.method}: {exc}") from exc
    tail = x[m1:]
    if config.variance_method == "empirical":
        variances = variance_recovery(dag, tail, coeffs)
    else:
        resid = _residual_columns(dag, tail, coeffs)
        variances = np.array([mad_variance(resid[:, i]) for i in range(dag.n)])
    degenerate = tuple(
        i for i in range(dag.n) if not np.isfinite(variances[i]) or variances[i] <= DEGENERATE_VARIANCE
    )
    for i in degenerate:
        variances[i] = DEGENERATE_VARIANCE
    model = GaussianBayesNet(dag=dag, coeffs=tuple(coeffs), variances=variances)
    return FitOutcome(model=model, degenerate_nodes=degenerate)


def fit(dag: Dag, data: np.ndarray, config: FitConfig) -> GaussianBayesNet:
    """Fit a full model; see :func:`fit_detailed` for the split semantics."""
    return fit_detailed(dag, data, config).model
