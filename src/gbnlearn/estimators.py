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

``fit_prefixes`` fits several methods on several nested prefixes of one
dataset in one pass over the nodes, bit for bit as ``fit_detailed`` fits
each (method, prefix); ``fit_detailed`` is its one-method, one-size case.
The batch methods cut a node's rows into consecutive batches from row 0,
so a prefix's batches are a prefix of the largest size's batches: each
batch kernel solves its stack once and aggregates the first batches of
each size. Both Cauchy methods take their medians over the same square
batches, so a node's square stack is solved once for the two of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dag import Dag
from .errors import (
    CholeskyFailed,
    ConfigInvalid,
    GbnError,
    InsufficientSamples,
    InvalidParameter,
    NumericalError,
    RankDeficient,
)
from .gbn import GaussianBayesNet

BATCH_METHODS = ("batch_avg", "batch_med")

# Per coefficient method: the kernel that turns a node's parent block x
# and target y, the coefficient rows of the largest size, into one
# estimate (or the GbnError it raises) per prefix row count in rows. The
# Cauchy kernels also take sols, the node's square-batch solutions, which
# fit_prefixes solves once for both. Each kernel is named inside a
# lambda, so it is looked up in this module at fit time and a patched
# module attribute sees every call.
_METHOD_TABLE = {
    "least_squares": lambda x, y, extra, rows, sols: _each_prefix(
        lambda r: least_squares_node(x[:r], y[:r]), len(x), rows
    ),
    "batch_avg": lambda x, y, extra, rows, sols: batch_least_squares(x, y, x.shape[1] + extra, "mean", rows),
    "batch_med": lambda x, y, extra, rows, sols: batch_least_squares(x, y, x.shape[1] + extra, "median", rows),
    "cauchy_est": lambda x, y, extra, rows, sols: cauchy_est_node(x, y, rows, sols),
    "cauchy_est_tree": lambda x, y, extra, rows, sols: cauchy_est_tree_node(x, y, rows, sols),
}
METHODS = tuple(_METHOD_TABLE)
_SQUARE_METHODS = ("cauchy_est", "cauchy_est_tree")
VARIANCE_METHODS = ("empirical", "mad")

# Consistency factor relating the median absolute deviation to the
# standard deviation of a Gaussian (1 / Phi^-1(3/4), rounded as is
# conventional).
MAD_SCALE = 1.4826

# A least-squares design is rank deficient when its smallest singular
# value is at most this fraction of its largest.
_LSTSQ_RCOND = 1e-6

# A p >= 2 least-squares batch whose largest |X| or |y| lies outside
# these bounds is scaled by powers of two before its QR.
_SCALE_LO, _SCALE_HI = 2.0**-500, 2.0**500

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


def _each_prefix(estimate, m: int, rows):
    # The shared tail of the per-node kernels. With rows None, estimate(m)
    # itself, raising as it does. Otherwise one entry per prefix row count
    # r in rows: estimate(r), or the GbnError it raises, so that one
    # prefix's failure leaves the others.
    if rows is None:
        return estimate(m)
    if any(not 0 <= r <= m for r in rows):
        raise InvalidParameter(f"prefix row counts must lie in [0, {m}], got {list(rows)}")
    out = []
    for r in rows:
        try:
            out.append(estimate(r))
        except GbnError as exc:
            out.append(exc)
    return out


def _median(a: np.ndarray):
    # np.median(a, axis=0) bit for bit, without its argument handling: the
    # same partition (np.median's kth: the central index or pair, and the
    # last index for the NaN check), the mean of the central pair, and the
    # column's NaN wherever its largest entry is one.
    n = len(a)
    kth = [n // 2 - 1, n // 2, -1] if n % 2 == 0 else [n // 2, -1]
    part = np.partition(a, kth, axis=0)
    last = part[-1]
    return np.where(np.isnan(last), last, part[(n - 1) // 2 : n // 2 + 1].mean(axis=0))


def _lstsq_stack(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Least squares over a (b, k, p) stack with k >= p. Returns a (b, p)
    # array of solutions and a (b,) mask of the full-rank batches; the row
    # of a rank-deficient batch holds no solution. Every step works batch
    # by batch, so a batch's row and mask bit depend on that batch alone
    # and the first c batches give the same bits in any stack. The rank
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
    b, _, p = xs.shape
    sols = np.zeros((b, p))
    if p == 1:
        x_max = np.abs(xs[..., 0]).max(axis=1)
        ok = x_max > 0.0
        x, y = xs[ok, :, 0], ys[ok]
        ex = np.frexp(x_max[ok])[1]
        ey = np.frexp(np.abs(y).max(axis=1))[1]
        u, v = np.ldexp(x, -ex[:, None]), np.ldexp(y, -ey[:, None])
        with np.errstate(over="ignore"):  # a solution beyond the float range is +-inf, as lstsq's is
            sols[ok, 0] = np.ldexp((u * v).sum(axis=1) / (u * u).sum(axis=1), ey - ex)
        return sols, ok
    # p >= 2: a batch whose largest |X| or |y| lies outside
    # [_SCALE_LO, _SCALE_HI] is first scaled, X by one power of two and y
    # by another. That scales every singular value of X alike, so the rank
    # rule holds, and the solution scales back exactly; subnormal and huge
    # batches then factor in range. The other batches keep their bits.
    aug = np.concatenate([xs, ys[..., None]], axis=2)
    peak = np.abs(aug).max(axis=1)
    x_max, y_max = peak[:, :p].max(axis=1), peak[:, p]
    scaled = np.flatnonzero((np.minimum(x_max, y_max) < _SCALE_LO) | (np.maximum(x_max, y_max) > _SCALE_HI))
    if len(scaled):
        ex, ey = np.frexp(x_max[scaled])[1], np.frexp(y_max[scaled])[1]
        aug[scaled, :, :p] = np.ldexp(aug[scaled, :, :p], -ex[:, None, None])
        aug[scaled, :, p] = np.ldexp(aug[scaled, :, p], -ey[:, None])
    # One batched QR of [X | y] gives R and Q^T y together, then one
    # batched solve of the leading p x p triangles gives the solutions and
    # R^-1. Two bounds settle almost every batch's rank without an SVD.
    # s_min <= min|R_jj| and max|R_jj| <= s_max, so a small diagonal ratio
    # is rank deficient; and s_max / s_min <= ||R||_F * ||R^-1||_F, so a
    # small product is full rank. If the norms overflow, an inf or nan
    # product leaves the batch to the SVD check.
    r = np.linalg.qr(aug, mode="r")
    diag = np.abs(np.diagonal(r[:, :p, :p], axis1=1, axis2=2))
    ok = diag.min(axis=1, initial=np.inf) > _LSTSQ_RCOND * diag.max(axis=1, initial=0.0)
    kept = np.flatnonzero(ok)
    r = r[ok]
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
    sols[kept] = z[..., 0]
    ok[kept] = full_rank
    if len(scaled):
        with np.errstate(over="ignore"):  # as in the p = 1 closed form
            sols[scaled] = np.ldexp(sols[scaled], (ey - ex)[:, None])
    return sols, ok


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
    sols, ok = _lstsq_stack(x[None], y[None])
    if not ok[0]:
        raise RankDeficient(f"design matrix has relative singular value <= {_LSTSQ_RCOND}")
    return sols[0]


def batch_least_squares(
    parent_block: np.ndarray, target: np.ndarray, k: int, aggregator: str, rows=None
) -> np.ndarray:
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

    With ``rows``, a sequence of prefix row counts, the batches are solved
    once and the call returns one entry per count ``r``: the estimate of
    the first ``r`` rows, bit for bit, or the error that call would raise.
    """
    x, y = _node_arrays(parent_block, target)
    if aggregator not in ("mean", "median"):
        raise InvalidParameter(f"aggregator must be 'mean' or 'median', got {aggregator!r}")
    m, p = x.shape
    if k <= p:
        raise InvalidParameter(f"batch size {k} must exceed parent count {p}")
    b = m // k
    sols, ok = _lstsq_stack(x[: b * k].reshape(b, k, p), y[: b * k].reshape(b, k))

    def estimate(r):
        b = r // k
        if b < 1:
            raise InsufficientSamples(f"needs at least {k} rows, got {r}")
        kept = sols[:b][ok[:b]]
        if not len(kept):
            raise RankDeficient(f"all {b} batches were rank deficient")
        with np.errstate(invalid="ignore"):  # -inf and +inf average to nan; fit reports it
            return kept.mean(axis=0) if aggregator == "mean" else _median(kept)

    return _each_prefix(estimate, m, rows)


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
    # without one. Bitwise identical to looping batch_solve either way,
    # so the first c rows are the solutions of the first c * p rows.
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


def _square_batches(parent_block, target, solutions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The shared head of the Cauchy kernels: the checked arrays and the
    # solutions of all their square batches, solved here unless given.
    x, y = _node_arrays(parent_block, target)
    m, p = x.shape
    if p < 1:
        raise InvalidParameter("node must have at least one parent")
    if solutions is None:
        return x, y, _batch_solve_stack(x, y)
    if solutions.ndim != 2 or solutions.shape[1] != p or len(solutions) < m // p:
        raise InvalidParameter(f"need at least {m // p} solutions of {p} coefficients, got shape {solutions.shape}")
    return x, y, solutions


def cauchy_est_tree_node(parent_block: np.ndarray, target: np.ndarray, rows=None, solutions=None) -> np.ndarray:
    """Coordinate-wise median of square-batch solutions.

    Rows are split into ``floor(m / p)`` disjoint batches of exactly
    ``p`` rows; each batch is solved as a square system. For a polytree
    the per-batch errors are independent scaled Cauchy variables, so the
    median concentrates even with heavy tails and corrupted rows. Input
    holding NaN or +-inf raises InvalidParameter before any solve.
    ``rows`` works as in :func:`batch_least_squares`. ``solutions``, if
    given, replaces the kernel's own solve: the square-batch solutions of
    these rows or of more rows of the same block, whose first ``r // p``
    are those of the first ``r`` rows, bit for bit.
    """
    x, y, sols = _square_batches(parent_block, target, solutions)
    m, p = x.shape

    def estimate(r):
        if r < p:
            raise InsufficientSamples(f"needs at least {p} rows, got {r}")
        with np.errstate(invalid="ignore"):  # as in batch_least_squares
            return _median(sols[: r // p])

    return _each_prefix(estimate, m, rows)


def cauchy_est_node(parent_block: np.ndarray, target: np.ndarray, rows=None, solutions=None) -> np.ndarray:
    """Median of square-batch solutions in a whitened coordinate system.

    The empirical parent second-moment matrix ``Mhat = X^T X / m`` (all
    rows, up to an exact power-of-two scale) is Cholesky-factored as
    ``L L^T``; batch solutions are mapped through ``L^T``, the
    coordinate-wise median is taken there, and the result is mapped back
    by ``(L^T)^-1``. Requires ``m >= p + 1``. A failed factorization
    raises CholeskyFailed; it is never silently regularized. Input
    holding NaN or +-inf raises InvalidParameter first. ``rows`` works as
    in :func:`batch_least_squares`; each prefix has its own ``Mhat``.
    ``solutions`` works as in :func:`cauchy_est_tree_node`.
    """
    x, y, sols = _square_batches(parent_block, target, solutions)
    m, p = x.shape

    def estimate(r):
        if r < p + 1:
            raise InsufficientSamples(f"needs at least {p + 1} rows, got {r}")
        # Mhat is formed on x scaled by the power of two of its largest
        # magnitude, so X^T X neither over- nor underflows at extreme
        # scales. L then carries that power, which cancels exactly between
        # the whitening and the back-solve.
        u = np.ldexp(x[:r], -np.frexp(np.abs(x[:r]).max())[1])
        try:
            ell = np.linalg.cholesky(u.T @ u / r)
        except np.linalg.LinAlgError as exc:
            raise CholeskyFailed(f"empirical parent covariance is not positive definite: {exc}") from exc
        with np.errstate(invalid="ignore"):  # an inf solution times a zero of L is nan; fit reports it
            whitened_median = _median(sols[: r // p] @ ell)
        # LU with partial pivoting makes no row swap on the upper triangle
        # L^T and leaves it exact, so this is the triangular back-solve,
        # bit for bit.
        return np.linalg.solve(ell.T, whitened_median)

    return _each_prefix(estimate, m, rows)


def empirical_mle(data: np.ndarray) -> np.ndarray:
    """Empirical second-moment matrix ``X^T X / m`` (zero-mean MLE baseline)."""
    x = np.asarray(data, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise InvalidParameter(f"need a nonempty 2-d sample array, got shape {x.shape}")
    return x.T @ x / x.shape[0]


# --------------------------------------------------------------------------
# variance recovery


def _residuals(dag: Dag, data: np.ndarray, coeffs):
    # Each node's residual column in turn, one at a time; a parentless
    # node's is its raw value. A finite estimate times a large parent
    # value may overflow, so the caller holds np.errstate(over, invalid):
    # the inf or nan residual then makes the node degenerate in fit.
    for i, pa in enumerate(dag.parents):
        yield data[:, i] - data[:, pa] @ coeffs[i] if pa else data[:, i]


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
    # Sum each node's squares in row order whatever the sample layout:
    # add.accumulate adds one value at a time, where np.sum would add a
    # contiguous column pairwise and move the last bits.
    with np.errstate(over="ignore", invalid="ignore"):  # an inf estimate is flagged degenerate by fit_detailed
        totals = np.array([np.add.accumulate(np.square(r))[-1] for r in _residuals(dag, x, coeffs)])
    return totals / len(x)


def mad_variance(residuals: np.ndarray) -> float:
    """Robust variance via the median absolute deviation.

    ``sigma_hat = 1.4826 * median(|x - median(x)|)``; returns the square.
    Invariant to up to half the entries being arbitrarily corrupted.
    """
    r = np.asarray(residuals, dtype=float).reshape(-1)
    if r.size < 1:
        raise InsufficientSamples("mad_variance needs at least one value")
    center = float(_median(r))
    sigma = MAD_SCALE * float(_median(np.abs(r - center)))
    return sigma * sigma


# --------------------------------------------------------------------------
# full-model fitting


def fit_prefixes(dag: Dag, data: np.ndarray, configs, sizes=None) -> list[list]:
    """:func:`fit_detailed` of each config on each prefix ``data[:m]``, ``m`` in ``sizes``, in one pass.

    ``sizes`` is strictly increasing and at most the row count, which is
    the default. Entry ``[c][j]`` is what ``fit_detailed(dag,
    data[:sizes[j]], configs[c])`` returns, bit for bit, or the
    NumericalError it raises; a non-numerical GbnError is raised from the
    first config, and in it the first size, that meets one, as a loop of
    ``fit_detailed`` calls over the configs and then the sizes would
    raise it. The pass goes node by node with the configs inside. Per
    node, the parent block and target are gathered once, on the
    coefficient rows of the largest size any config still fits, and each
    config's kernel gets the row counts ``m // 2`` of its own live sizes:
    the batch methods solve each batch once and aggregate a prefix of the
    solutions per size, least squares solves per size, and the square
    batches are solved once for both Cauchy methods. A (config, size)
    stops at its first failed node. The variance phases run one (config,
    size) at a time after the pass.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 2 or x.shape[1] != dag.n:
        raise InvalidParameter(f"expected (m, {dag.n}) samples, got shape {x.shape}")
    sizes = (x.shape[0],) if sizes is None else tuple(sizes)
    if not sizes or sizes[0] < 0 or sizes[-1] > x.shape[0] or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise InvalidParameter(f"sizes must be strictly increasing within [0, {x.shape[0]}], got {list(sizes)}")
    # fit_detailed's own checks on each data[:m], before any node.
    # Only the first non-finite row is kept: the m x n mask goes before the first node.
    finite = np.isfinite(x[: sizes[-1]])
    first_bad = sizes[-1] if finite.all() else int(np.flatnonzero(~finite.all(axis=1))[0])
    del finite
    refused: list[GbnError | None] = [None] * len(sizes)
    for j, m in enumerate(sizes):
        if m > first_bad:
            refused[j] = InvalidParameter("samples contain NaN or infinite values")
        elif m < 2:
            refused[j] = InsufficientSamples(f"needs at least 2 rows, one per phase, got {m}")
    errors = [list(refused) for _ in configs]
    coeffs: list[list[list[np.ndarray]]] = [[[] for _ in sizes] for _ in configs]
    for i in range(dag.n):
        live = [[j for j, err in enumerate(errs) if err is None] for errs in errors]
        if not any(live):
            break
        pa = dag.parents[i]
        if not pa:
            for c, js in enumerate(live):
                for j in js:
                    coeffs[c][j].append(np.zeros(0))
            continue
        top = [sizes[js[-1]] // 2 if js else 0 for js in live]
        xb, yb = x[: max(top), pa], x[: max(top), i]
        square_top = max((t for t, config in zip(top, configs) if config.method in _SQUARE_METHODS), default=0)
        sols = _batch_solve_stack(xb[:square_top], yb[:square_top]) if square_top else None
        for c, config in enumerate(configs):
            if not live[c]:
                continue
            rows = [sizes[j] // 2 for j in live[c]]
            kernel = _METHOD_TABLE[config.method]
            try:
                estimates = kernel(xb[: rows[-1]], yb[: rows[-1]], config.batch_extra, rows, sols)
            except GbnError as exc:
                estimates = [exc] * len(rows)
            for j, est in zip(live[c], estimates):
                if isinstance(est, GbnError):
                    errors[c][j] = type(est)(f"node {i}: method {config.method}: {est}")
                    errors[c][j].__cause__ = est
                elif not np.isfinite(est).all():
                    errors[c][j] = NumericalError(f"node {i}: method {config.method}: coefficient estimate is not finite")
                else:
                    coeffs[c][j].append(est)
    out: list[list] = []
    for config, errs, config_coeffs in zip(configs, errors, coeffs):
        fits: list = []
        for m, err, node_coeffs in zip(sizes, errs, config_coeffs):
            if err is None:
                fits.append(_variance_phase(dag, x[m // 2 : m], node_coeffs, config.variance_method))
            elif isinstance(err, NumericalError):
                fits.append(err)
            else:
                raise err
        out.append(fits)
    return out


def _variance_phase(dag: Dag, tail: np.ndarray, coeffs, variance_method: str) -> FitOutcome:
    # Phase two of a fit: noise variances from the residuals of the rows
    # after the coefficient rows, with degenerate estimates floored.
    if variance_method == "empirical":
        variances = variance_recovery(dag, tail, coeffs)
    else:
        # An overflowing residual makes inf - inf in the MAD; its nan or inf
        # estimate is flagged below. One errstate per fit, not per column.
        with np.errstate(over="ignore", invalid="ignore"):
            variances = np.array([mad_variance(r) for r in _residuals(dag, tail, coeffs)])
    degenerate = tuple(
        i for i in range(dag.n) if not np.isfinite(variances[i]) or variances[i] <= DEGENERATE_VARIANCE
    )
    for i in degenerate:
        variances[i] = DEGENERATE_VARIANCE
    model = GaussianBayesNet(dag=dag, coeffs=tuple(coeffs), variances=variances)
    return FitOutcome(model=model, degenerate_nodes=degenerate)


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
    any solve; a kernel error keeps its class and gains ``node i: method M:``,
    as does the NumericalError of a non-finite coefficient estimate. This
    is :func:`fit_prefixes` with the one config and the one size ``m``.
    """
    ((outcome,),) = fit_prefixes(dag, data, (config,))
    if isinstance(outcome, NumericalError):
        raise outcome
    return outcome


def fit(dag: Dag, data: np.ndarray, config: FitConfig) -> GaussianBayesNet:
    """Fit a full model; see :func:`fit_detailed` for the split semantics."""
    return fit_detailed(dag, data, config).model
