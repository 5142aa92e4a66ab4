"""Linear-Gaussian network model on a known DAG.

A model assigns each node ``i`` the structural equation

    X_i = sum_j a[i<-j] * X_j + eta_i,    eta_i ~ N(0, sigma2_i)

over its parents ``j``, so the joint law is a zero-mean multivariate
Gaussian. This module holds the parameter container, forward sampling,
exact covariance algebra, and the evaluation machinery that scores a
learned model against the truth via the per-node decomposition of the
KL divergence between the two joint distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from .dag import Dag, build_dag
from .errors import FileFormatError, InvalidParameter, NotPositiveDefinite


@dataclass(frozen=True, eq=False)
class GaussianBayesNet:
    """Parameters of a linear-Gaussian network on a fixed DAG.

    ``coeffs[i]`` holds the edge coefficients of node ``i`` aligned with
    ``dag.parents[i]`` (ascending parent order); ``variances`` holds the
    strictly positive noise variances. Instances are immutable after
    construction.
    """

    dag: Dag
    coeffs: tuple[np.ndarray, ...]
    variances: np.ndarray

    def __post_init__(self):
        coeffs = tuple(np.asarray(c, dtype=float) for c in self.coeffs)
        variances = np.asarray(self.variances, dtype=float)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "variances", variances)
        n = self.dag.n
        if len(coeffs) != n:
            raise InvalidParameter(f"expected {n} coefficient vectors, got {len(coeffs)}")
        if variances.shape != (n,):
            raise InvalidParameter(f"expected {n} variances, got shape {variances.shape}")
        for i, c in enumerate(coeffs):
            want = len(self.dag.parents[i])
            if c.shape != (want,):
                raise InvalidParameter(f"node {i}: expected {want} coefficients, got shape {c.shape}")
            if not np.all(np.isfinite(c)):
                raise InvalidParameter(f"node {i}: coefficients must be finite")
        if not np.all(np.isfinite(variances)) or np.any(variances <= 0):
            raise InvalidParameter("noise variances must be finite and > 0")


@dataclass(frozen=True, eq=False)
class EvalReport:
    """Result of comparing a learned model against the truth.

    ``per_node_dcp[i]`` is node i's conditional KL contribution,
    ``kl_total`` their sum (ascending node order), and ``tv_upper`` the
    total-variation bound :func:`tv_upper` of ``kl_total``. The per-node
    error-budget predicates are a separate call,
    :func:`condition_predicates`.
    """

    per_node_dcp: np.ndarray
    kl_total: float
    tv_upper: float


# --------------------------------------------------------------------------
# variance specifications for random model generation


@dataclass(frozen=True)
class UnitVariances:
    """Every node gets noise variance 1."""


@dataclass(frozen=True)
class UniformVariances:
    """Noise variances drawn i.i.d. uniform from [low, high), ``0 < low <= high``."""

    low: float
    high: float

    def __post_init__(self):
        if not (0 < self.low <= self.high):
            raise InvalidParameter(f"variance range must satisfy 0 < low <= high, got {self}")


@dataclass(frozen=True)
class IllConditionedVariances:
    """Listed nodes get a near-degenerate variance, all others get 1."""

    nodes: tuple[int, ...]
    sigma2: float


def random_gbn(dag: Dag, weight_range, variance_spec, rng: np.random.Generator) -> GaussianBayesNet:
    """Random model: coefficients are (uniform sign) * Uniform[lo, hi).

    ``weight_range`` gives the magnitude interval ``(lo, hi)`` with
    ``0 < lo < hi``; each coefficient's sign is an independent fair coin.
    ``variance_spec`` is one of :class:`UnitVariances`,
    :class:`UniformVariances`, or :class:`IllConditionedVariances`.
    Nodes are processed in ascending index so a fixed seed fixes the model.
    """
    lo, hi = weight_bounds(weight_range)
    coeffs = []
    for i in range(dag.n):
        p = len(dag.parents[i])
        mags = rng.uniform(lo, hi, size=p)
        signs = np.where(rng.integers(0, 2, size=p) == 0, -1.0, 1.0)
        coeffs.append(signs * mags)
    variances = _draw_variances(dag.n, variance_spec, rng)
    return GaussianBayesNet(dag=dag, coeffs=tuple(coeffs), variances=variances)


def weight_bounds(weight_range) -> tuple[float, float]:
    """``weight_range`` as floats ``(lo, hi)``; raises InvalidParameter unless ``0 < lo < hi``."""
    lo, hi = float(weight_range[0]), float(weight_range[1])
    if not (0 < lo < hi):
        raise InvalidParameter(f"weight magnitude range must satisfy 0 < lo < hi, got ({lo}, {hi})")
    return lo, hi


def _draw_variances(n: int, spec, rng: np.random.Generator) -> np.ndarray:
    if isinstance(spec, UnitVariances):
        return np.ones(n)
    if isinstance(spec, UniformVariances):
        return rng.uniform(spec.low, spec.high, size=n)
    if isinstance(spec, IllConditionedVariances):
        if spec.sigma2 <= 0:
            raise InvalidParameter("ill-conditioned variance must be > 0")
        out = np.ones(n)
        for node in spec.nodes:
            if not (0 <= node < n):
                raise InvalidParameter(f"ill-conditioned node {node} outside [0, {n})")
            out[node] = spec.sigma2
        return out
    raise InvalidParameter(f"unknown variance spec {spec!r}")


# --------------------------------------------------------------------------
# sampling


def sample(model: GaussianBayesNet, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``m`` i.i.d. clean samples; returns an ``(m, n)`` float array.

    The array is column-major (Fortran order): each node's column is
    contiguous, matching the estimators, which read a node's column and
    its parents' columns. The noise is drawn, then propagated through the
    structural equations, so a fixed seed yields a bit-identical matrix.
    :func:`gbnlearn.datagen.contaminated_sample` edits the noise in between.
    """
    x = _draw_noise(model, m, rng)
    _propagate(model, x)
    return x


def _draw_noise(model: GaussianBayesNet, m: int, rng: np.random.Generator) -> np.ndarray:
    """The ``(m, n)`` column-major noise matrix, columns drawn from ``rng`` in topological order."""
    if not isinstance(m, int) or m < 1:
        raise InvalidParameter(f"sample count must be a positive integer, got {m!r}")
    dag = model.dag
    x = np.empty((m, dag.n), order="F")
    sigmas = np.sqrt(model.variances)
    for i in dag.order:
        x[:, i] = rng.normal(0.0, sigmas[i], size=m)
    return x


def _propagate(model: GaussianBayesNet, x: np.ndarray) -> None:
    """Noise to samples in place, in topological order: ``x[:, i] += x[:, pa] @ coeffs[i]``."""
    dag = model.dag
    for i in dag.order:
        pa = dag.parents[i]
        if pa:
            x[:, i] += x[:, pa] @ model.coeffs[i]


# --------------------------------------------------------------------------
# covariance algebra


def covariance(model: GaussianBayesNet) -> np.ndarray:
    """Exact model covariance, computed by triangular forward substitution.

    Writing the coefficient matrix C (in topological coordinates, strictly
    lower triangular) and D = diag(variances), the joint satisfies
    ``(I - C) X = eta`` and hence ``Sigma = (I - C)^-1 D (I - C)^-T``.
    """
    dag = model.dag
    n = dag.n
    pos = np.empty(n, dtype=int)
    for k, node in enumerate(dag.order):
        pos[node] = k
    w = np.eye(n)
    for i in range(n):
        for j, a in zip(dag.parents[i], model.coeffs[i]):
            w[pos[i], pos[j]] = -a
    linv = scipy.linalg.solve_triangular(w, np.eye(n), lower=True, unit_diagonal=True)
    d = np.asarray(model.variances)[list(dag.order)]
    s_topo = (linv * d) @ linv.T
    s_topo = (s_topo + s_topo.T) / 2.0
    out = np.empty((n, n))
    out[np.ix_(dag.order, dag.order)] = s_topo
    return out


def parent_covariances(dag: Dag, cov: np.ndarray) -> list[np.ndarray | None]:
    """Each node's parent block of the joint covariance ``cov`` over ``dag``.

    Entry ``i`` is the ``p_i x p_i`` block of ``cov`` on node i's parents
    (ascending order), or None for a parentless node. Pass
    :func:`covariance` of a truth: a caller scoring many fits against one
    truth computes it once and keeps only the blocks.
    """
    if cov.shape != (dag.n, dag.n):
        raise InvalidParameter(f"expected a {dag.n}x{dag.n} covariance, got shape {cov.shape}")
    return [cov[np.ix_(pa, pa)] if pa else None for pa in dag.parents]


def _resolve_parent_covs(truth: GaussianBayesNet, parent_covs):
    if parent_covs is None:
        return parent_covariances(truth.dag, covariance(truth))
    if len(parent_covs) != truth.dag.n:
        raise InvalidParameter(f"expected {truth.dag.n} parent covariance blocks, got {len(parent_covs)}")
    return parent_covs


# --------------------------------------------------------------------------
# evaluation


def dcp(true_coeffs, true_var: float, est_coeffs, est_var: float, parent_cov=None) -> float:
    """Single node's conditional KL contribution.

    For truth ``(A, sigma2)`` and estimate ``(Ahat, sigma2hat)`` with the
    true parent covariance ``M``:

        ln(sigmahat / sigma) + (sigma2 - sigma2hat) / (2 sigma2hat)
            + (Ahat - A)^T M (Ahat - A) / (2 sigma2hat)

    The quadratic term vanishes for a node without parents (pass
    ``parent_cov=None`` or an empty matrix).
    """
    true_var = float(true_var)
    est_var = float(est_var)
    if true_var <= 0 or est_var <= 0:
        raise InvalidParameter("dcp needs strictly positive variances")
    a = np.asarray(true_coeffs, dtype=float).reshape(-1)
    ahat = np.asarray(est_coeffs, dtype=float).reshape(-1)
    if a.shape != ahat.shape:
        raise InvalidParameter(f"coefficient shapes differ: {a.shape} vs {ahat.shape}")
    p = a.size
    if p == 0:
        quad = 0.0
    else:
        m = np.asarray(parent_cov, dtype=float)
        if m.shape != (p, p):
            raise InvalidParameter(f"parent covariance must be {p}x{p}, got {m.shape}")
        delta = ahat - a
        quad = float(delta @ m @ delta)
    return 0.5 * math.log(est_var / true_var) + (true_var - est_var) / (2.0 * est_var) + quad / (
        2.0 * est_var
    )


def tv_upper(kl: float) -> float:
    """Total-variation bound from a KL divergence, ``min(1, sqrt(max(kl, 0) / 2))``.

    Pinsker's inequality; negative rounding residue in ``kl`` counts as 0.
    """
    return min(1.0, math.sqrt(max(kl, 0.0) / 2.0))


def kl_divergence(truth: GaussianBayesNet, estimate: GaussianBayesNet, *, parent_covs=None) -> EvalReport:
    """Exact KL(truth || estimate) decomposed into per-node terms.

    The estimate may sit on the truth's DAG or on a sub-DAG of it: the
    same node count, with each node's estimate parents a subset of its
    true parents (as :func:`gbnlearn.dag.remove_random_edges` produces).
    Node i's estimated coefficients are placed at their positions among
    the true parents, with zeros for the removed ones, and scored by
    :func:`dcp` against the true parent covariance. Because the true
    noise of node i is independent of its true parents, each term is the
    exact KL between the two conditionals of node i, so every term is
    nonnegative and the total equals the closed-form Gaussian KL between
    the two joint distributions. Any other pair of DAGs raises
    InvalidParameter. ``parent_covs`` takes the truth's
    :func:`parent_covariances`, so a caller scoring many fits against one
    truth computes them once; when omitted they are computed here from
    :func:`covariance`.
    """
    est_coeffs = _coeffs_on_true_parents(truth, estimate)
    parent_covs = _resolve_parent_covs(truth, parent_covs)
    per_node = np.empty(truth.dag.n)
    for i in range(truth.dag.n):
        per_node[i] = dcp(
            truth.coeffs[i], truth.variances[i], est_coeffs[i], estimate.variances[i], parent_covs[i]
        )
    kl_total = float(np.sum(per_node))
    return EvalReport(per_node_dcp=per_node, kl_total=kl_total, tv_upper=tv_upper(kl_total))


def _coeffs_on_true_parents(truth: GaussianBayesNet, estimate: GaussianBayesNet) -> tuple[np.ndarray, ...]:
    """The estimate's coefficients aligned with the truth's parent lists.

    A node whose parents agree keeps its coefficient vector as is; a node
    on a sub-DAG gets a zero-padded copy. Raises InvalidParameter unless
    the estimate's DAG is the truth's DAG or a sub-DAG of it.
    """
    if estimate.dag.n != truth.dag.n:
        raise InvalidParameter(f"models have {truth.dag.n} and {estimate.dag.n} nodes")
    out = []
    for i, (pa, pa_hat) in enumerate(zip(truth.dag.parents, estimate.dag.parents)):
        if pa_hat == pa:
            out.append(estimate.coeffs[i])
            continue
        position = {j: k for k, j in enumerate(pa)}
        extra = [j for j in pa_hat if j not in position]
        if extra:
            raise InvalidParameter(f"estimate edges {[(j, i) for j in extra]} are not in the true DAG")
        padded = np.zeros(len(pa))
        padded[[position[j] for j in pa_hat]] = estimate.coeffs[i]
        out.append(padded)
    return tuple(out)


def condition_predicates(truth: GaussianBayesNet, estimate: GaussianBayesNet, eps: float, *, parent_covs=None):
    """Per-node error-budget predicates for a total budget ``eps``.

    Node i's share of the budget is ``eps * p_i / (n * d_avg)``. The
    first predicate bounds the coefficient error quadratic form by
    ``sigma2_i`` times that share (trivially satisfied at parentless
    nodes, whose share is zero). The second brackets the estimated
    variance within ``(1 +- sqrt(share)) * sigma2_i``; parentless nodes
    use an effective parent count of one there, since a zero-width
    bracket would be unsatisfiable by any finite-sample estimate. A
    graph with no edges falls back to ``n`` as the normalizer for the
    same reason. Parent counts are those of the true DAG; the estimate
    may sit on a sub-DAG of it, as in :func:`kl_divergence`, which also
    describes ``parent_covs``.
    """
    if eps <= 0:
        raise InvalidParameter(f"error budget must be positive, got {eps}")
    est_coeffs = _coeffs_on_true_parents(truth, estimate)
    parent_covs = _resolve_parent_covs(truth, parent_covs)
    dag = truth.dag
    total_edges = dag.num_edges
    denom = total_edges if total_edges > 0 else dag.n
    cond1 = np.empty(dag.n, dtype=bool)
    cond2 = np.empty(dag.n, dtype=bool)
    for i in range(dag.n):
        pa = dag.parents[i]
        p = len(pa)
        sigma2 = float(truth.variances[i])
        delta = est_coeffs[i] - truth.coeffs[i]
        quad = float(delta @ parent_covs[i] @ delta) if pa else 0.0
        cond1[i] = abs(quad) <= sigma2 * (eps * p / denom)
        half_width = math.sqrt(eps * max(p, 1) / denom)
        est_var = float(estimate.variances[i])
        cond2[i] = (1.0 - half_width) * sigma2 <= est_var <= (1.0 + half_width) * sigma2
    return cond1, cond2


def gaussian_kl(sigma_p: np.ndarray, sigma_q: np.ndarray) -> float:
    """Closed-form KL between zero-mean Gaussians N(0, sigma_p), N(0, sigma_q).

        KL = (tr(sigma_q^-1 sigma_p) - n + ln det sigma_q - ln det sigma_p) / 2

    Log-determinants and the trace term go through Cholesky factors; a
    failed factorization raises NotPositiveDefinite rather than being
    regularized away.
    """
    p = np.asarray(sigma_p, dtype=float)
    q = np.asarray(sigma_q, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape != q.shape:
        raise InvalidParameter(f"need two square matrices of equal size, got {p.shape} and {q.shape}")
    n = p.shape[0]
    for name, mat in (("first", p), ("second", q)):
        if not np.allclose(mat, mat.T, rtol=1e-10, atol=1e-12):
            raise NotPositiveDefinite(f"{name} matrix is not symmetric")
    try:
        lp = np.linalg.cholesky(p)
        lq = np.linalg.cholesky(q)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"covariance is not positive definite: {exc}") from exc
    logdet_p = 2.0 * float(np.sum(np.log(np.diag(lp))))
    logdet_q = 2.0 * float(np.sum(np.log(np.diag(lq))))
    half = scipy.linalg.solve_triangular(lq, p, lower=True)
    whitened = scipy.linalg.solve_triangular(lq, half.T, lower=True)
    trace = float(np.trace(whitened))
    return 0.5 * (trace - n + logdet_q - logdet_p)


# --------------------------------------------------------------------------
# file formats

# Every float written to a file or printed by the CLI: 17 significant
# digits, enough to round-trip an IEEE double.
FLOAT_FMT = "%.17g"


def save_model(model: GaussianBayesNet, path) -> None:
    """Write ``node i sigma2 v`` and ``coef i j v`` lines (17 significant digits)."""
    lines = []
    for i in range(model.dag.n):
        lines.append(f"node {i} sigma2 {FLOAT_FMT % model.variances[i]}")
        for j, a in zip(model.dag.parents[i], model.coeffs[i]):
            lines.append(f"coef {i} {j} {FLOAT_FMT % a}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_model(path) -> GaussianBayesNet:
    """Parse a model file written by :func:`save_model`.

    The DAG is reconstructed from the ``coef`` lines, so the file is
    self-contained. A repeated ``node i`` or ``coef i j`` line raises
    FileFormatError.
    """
    variances: dict[int, float] = {}
    coef_map: dict[tuple[int, int], float] = {}
    for ln in Path(path).read_text().splitlines():
        ln = ln.strip()
        if not ln:
            continue
        parts = ln.split()
        try:
            if parts[0] == "node" and len(parts) == 4 and parts[2] == "sigma2":
                table, key = variances, int(parts[1])
            elif parts[0] == "coef" and len(parts) == 4:
                table, key = coef_map, (int(parts[1]), int(parts[2]))
            else:
                raise ValueError(f"unrecognized line {ln!r}")
            if key in table:
                raise ValueError(f"repeated {parts[0]} line {ln!r}")
            table[key] = float(parts[3])
        except ValueError as exc:
            raise FileFormatError(f"{path}: {exc}") from exc
    n = len(variances)
    if sorted(variances) != list(range(n)):
        raise FileFormatError(f"{path}: node lines must cover 0..n-1 exactly once")
    edges = [(j, i) for (i, j) in coef_map]
    try:
        dag = build_dag(n, edges)
    except InvalidParameter as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    coeffs = tuple(
        np.array([coef_map[(i, j)] for j in dag.parents[i]], dtype=float) for i in range(n)
    )
    var = np.array([variances[i] for i in range(n)])
    try:
        return GaussianBayesNet(dag=dag, coeffs=coeffs, variances=var)
    except InvalidParameter as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def save_samples(data: np.ndarray, path) -> None:
    """Headerless CSV, one sample per row, 17 significant digits."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2:
        raise InvalidParameter(f"samples must be a 2-d array, got shape {arr.shape}")
    np.savetxt(path, arr, fmt=FLOAT_FMT, delimiter=",")


def load_samples(path) -> np.ndarray:
    """Read a samples CSV written by :func:`save_samples`.

    A file holding NaN or +-inf raises FileFormatError.
    """
    try:
        arr = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    if not np.isfinite(arr).all():
        raise FileFormatError(f"{path}: samples contain NaN or infinite values")
    return arr
