"""Per-node estimators, variance recovery, and the two-phase fit driver."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from gbnlearn import estimators
from gbnlearn.dag import build_dag, random_er_dag, random_tree_dag
from gbnlearn.errors import (
    CholeskyFailed,
    ConfigInvalid,
    GbnError,
    InsufficientSamples,
    InvalidParameter,
    NumericalError,
    RankDeficient,
)
from gbnlearn.estimators import (
    _LSTSQ_RCOND,
    DEGENERATE_VARIANCE,
    MAD_SCALE,
    METHODS,
    VARIANCE_METHODS,
    FitConfig,
    FitOutcome,
    _batch_solve_stack,
    _lstsq_stack,
    _median,
    batch_least_squares,
    batch_solve,
    cauchy_est_node,
    cauchy_est_tree_node,
    empirical_mle,
    fit,
    fit_detailed,
    fit_prefixes,
    least_squares_node,
    mad_variance,
    variance_recovery,
)
from gbnlearn.gbn import (
    GaussianBayesNet,
    UnitVariances,
    covariance,
    random_gbn,
    sample,
)


def _block_with(value, where):
    """A (40, 2) normal parent block and target with one cell set to ``value``."""
    rng = np.random.default_rng(26)
    x, y = rng.normal(size=(40, 2)), rng.normal(size=40)
    if where == "parents":
        x[3, 0] = value
    else:
        y[3] = value
    return x, y


def _exact_batches(values, k=2):
    """Rows forming p=1 batches of size k whose exact LS solution is each value."""
    xs, ys = [], []
    for v in values:
        for t in range(1, k + 1):
            xs.append([float(t)])
            ys.append(float(t) * v)
    return np.asarray(xs), np.asarray(ys)


class TestLeastSquares:
    def test_two_equal_rows(self):
        sol = least_squares_node(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]))
        assert sol == pytest.approx([2.0], rel=1e-14)

    def test_two_parents(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        sol = least_squares_node(x, np.array([1.0, 2.0, 0.0]))
        assert sol == pytest.approx([1.0, 2.0], abs=1e-14)

    def test_exact_linear_data(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 3))
        a = np.array([1.5, -2.0, 0.5])
        sol = least_squares_node(x, x @ a)
        assert sol == pytest.approx(a, abs=1e-12)

    def test_rank_deficient_duplicate_column(self):
        rng = np.random.default_rng(1)
        col = rng.normal(size=20)
        x = np.column_stack([col, col])
        with pytest.raises(RankDeficient):
            least_squares_node(x, rng.normal(size=20))

    @pytest.mark.parametrize("where", ["parents", "target"])
    def test_non_finite_input_rejected(self, where):
        # Neither solved into NaN coefficients nor skipped as a rank-deficient batch.
        rng = np.random.default_rng(25)
        x, y = rng.normal(size=(40, 2)), rng.normal(size=40)
        if where == "parents":
            x[3, 0] = np.inf
        else:
            y[3] = np.nan
        with pytest.raises(InvalidParameter, match="parent block or target contains NaN or infinite values"):
            least_squares_node(x, y)
        for aggregator in ("mean", "median"):
            with pytest.raises(InvalidParameter, match="parent block or target contains NaN or infinite values"):
                batch_least_squares(x, y, k=10, aggregator=aggregator)

    def test_fewer_rows_than_parents(self):
        with pytest.raises(InsufficientSamples, match="^needs at least 2 rows, got 1$"):
            least_squares_node(np.array([[1.0, 2.0]]), np.array([1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(InvalidParameter, match=r"incompatible shapes \(3, 1\) and \(4,\)"):
            least_squares_node(np.ones((3, 1)), np.ones(4))


# A direct kernel call checks its own input; only fit_prefixes' private
# prefix mode skips the checks. Each kernel's class also tests NaN and +-inf.
_ONE_SHOT_KERNELS = pytest.mark.parametrize(
    "kernel",
    [
        least_squares_node,
        lambda x, y: batch_least_squares(x, y, 3, "mean"),
        cauchy_est_tree_node,
        cauchy_est_node,
    ],
    ids=["least_squares_node", "batch_least_squares", "cauchy_est_tree_node", "cauchy_est_node"],
)


@_ONE_SHOT_KERNELS
@pytest.mark.parametrize(
    "x, y",
    [(np.ones((6, 2)), np.ones(5)), (np.ones(6), np.ones(6)), (np.ones((6, 2)), np.ones((6, 1)))],
    ids=["short_target", "1d_block", "2d_target"],
)
def test_one_shot_call_refuses_mismatched_shapes(kernel, x, y):
    with pytest.raises(InvalidParameter, match=r"^incompatible shapes "):
        kernel(x, y)


@_ONE_SHOT_KERNELS
def test_one_shot_call_refuses_a_block_without_parents(kernel):
    with pytest.raises(InvalidParameter, match="^node must have at least one parent$"):
        kernel(np.ones((6, 0)), np.ones(6))


class TestBatchLeastSquares:
    def test_single_batch_bit_identical_to_plain(self):
        rng = np.random.default_rng(2)
        for p in (1, 2):
            x = rng.normal(size=(7, p))
            y = rng.normal(size=7)
            plain = least_squares_node(x[:7], y[:7])
            for aggregator in ("mean", "median"):
                out = batch_least_squares(x, y, k=7, aggregator=aggregator)
                assert np.array_equal(out, plain), p

    def test_single_batch_uses_first_k_rows_only(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(11, 2))
        y = rng.normal(size=11)
        plain = least_squares_node(x[:6], y[:6])  # floor(11/6) = 1 batch
        assert np.array_equal(batch_least_squares(x, y, k=6, aggregator="mean"), plain)

    def test_mean_and_median_aggregation(self):
        x, y = _exact_batches([1.0, 2.0, 9.0])
        assert batch_least_squares(x, y, k=2, aggregator="mean") == pytest.approx([4.0], rel=1e-12)
        assert batch_least_squares(x, y, k=2, aggregator="median") == pytest.approx([2.0], rel=1e-12)

    def test_batch_too_small(self):
        with pytest.raises(InvalidParameter, match="batch size 2 must exceed parent count 2"):
            batch_least_squares(np.ones((10, 2)), np.ones(10), k=2, aggregator="mean")

    def test_not_enough_rows_for_one_batch(self):
        with pytest.raises(InsufficientSamples, match="^needs at least 4 rows, got 3$"):
            batch_least_squares(np.ones((3, 1)), np.ones(3), k=4, aggregator="mean")

    def test_unknown_aggregator(self):
        with pytest.raises(InvalidParameter, match="aggregator must be 'mean' or 'median', got 'mode'"):
            batch_least_squares(np.ones((4, 1)), np.ones(4), k=2, aggregator="mode")

    def test_rank_deficient_batches_are_skipped(self):
        # First batch is all-zero design (skipped); the second solves to 5.
        x = np.array([[0.0], [0.0], [1.0], [2.0]])
        y = np.array([0.0, 0.0, 5.0, 10.0])
        out = batch_least_squares(x, y, k=2, aggregator="median")
        assert out == pytest.approx([5.0], rel=1e-12)

    def test_all_batches_rank_deficient(self):
        x = np.zeros((4, 1))
        y = np.ones(4)
        with pytest.raises(RankDeficient):
            batch_least_squares(x, y, k=2, aggregator="mean")


def _lstsq_full_rank(x):
    return np.linalg.lstsq(x, np.zeros(len(x)), rcond=_LSTSQ_RCOND)[2] == x.shape[1]


class TestRankRule:
    """Purpose-built batches: the stacked kernel skips exactly the batches
    that ``np.linalg.lstsq(rcond=_LSTSQ_RCOND)`` finds rank deficient."""

    K = 12

    def _batches(self):
        rng = np.random.default_rng(21)
        base = rng.normal(size=(self.K, 3))
        col, z = base[:, 0], rng.normal(size=self.K)

        def second_column(values):
            out = base.copy()
            out[:, 1] = values
            return out

        q, _ = np.linalg.qr(rng.normal(size=(self.K, 3)))
        # Unit diagonal, but singular values ~1e7, 1, 1e-7: only the
        # singular values reveal the rank.
        hidden = q @ np.array([[1.0, 1e7, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        return {
            "well_conditioned": (base, True),
            "collinear_pair": (second_column(2.0 * col), False),
            "zero_column": (second_column(np.zeros(self.K)), False),
            "near_collinear_1e-3": (second_column(col + 1e-3 * z), True),
            "near_collinear_1e-9": (second_column(col + 1e-9 * z), False),
            "rank_hidden_by_diagonal": (hidden, False),
        }

    def _targets(self, xs):
        rng = np.random.default_rng(22)
        return np.stack([x @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.normal(size=self.K) for x in xs])

    def test_least_squares_node_raises_exactly_when_lstsq_rank_is_short(self):
        batches = self._batches()
        ys = self._targets([x for x, _ in batches.values()])
        for (name, (x, kept)), y in zip(batches.items(), ys):
            assert _lstsq_full_rank(x) == kept, name
            if kept:
                ref = np.linalg.lstsq(x, y, rcond=_LSTSQ_RCOND)[0]
                assert least_squares_node(x, y) == pytest.approx(ref, rel=1e-8), name
            else:
                with pytest.raises(RankDeficient):
                    least_squares_node(x, y)

    def test_stack_keeps_exactly_the_full_rank_batches(self):
        xs = [x for x, _ in self._batches().values()]
        ys = self._targets(xs)
        refs = [np.linalg.lstsq(x, y, rcond=_LSTSQ_RCOND)[0] for x, y in zip(xs, ys) if _lstsq_full_rank(x)]
        assert len(refs) == 2
        sols, ok = _lstsq_stack(np.stack(xs), ys)
        assert ok.tolist() == [_lstsq_full_rank(x) for x in xs]
        sols = sols[ok]
        assert sols.shape == (2, 3)
        for sol, ref in zip(sols, refs):
            assert sol == pytest.approx(ref, rel=1e-8)
        out = batch_least_squares(np.concatenate(xs), ys.reshape(-1), k=self.K, aggregator="mean")
        assert out == pytest.approx(np.mean(refs, axis=0), rel=1e-8)

    def test_one_parent_batches(self):
        # One column: rank deficient exactly when it is all zero, whatever
        # its magnitude; subnormal and 1e+-200 columns are kept and solved
        # to lstsq's value.
        rng = np.random.default_rng(24)
        col = rng.normal(size=self.K)
        subnormal = rng.integers(1, 1000, size=self.K) * 5e-324
        batches = {
            "normal": (col, col + 0.3 * rng.normal(size=self.K)),
            "zero_column": (np.zeros(self.K), rng.normal(size=self.K)),
            "subnormal": (subnormal, rng.integers(1, 1000, size=self.K) * 5e-324),
            "huge": (1e200 * col, rng.normal(size=self.K)),
            "tiny": (1e-200 * col, rng.normal(size=self.K)),
            "huge_both": (1e200 * col, 1e200 * (2.5 * col + rng.normal(size=self.K))),
        }
        xs = np.stack([x for x, _ in batches.values()])[..., None]
        ys = np.stack([y for _, y in batches.values()])
        refs = []
        for name, (x, y) in batches.items():
            kept = name != "zero_column"
            assert _lstsq_full_rank(x[:, None]) == kept, name
            if kept:
                ref = np.linalg.lstsq(x[:, None], y, rcond=_LSTSQ_RCOND)[0]
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    sol = least_squares_node(x[:, None], y)
                assert np.isfinite(sol).all() and sol == pytest.approx(ref, rel=1e-12), name
                refs.append(ref)
            else:
                with pytest.raises(RankDeficient):
                    least_squares_node(x[:, None], y)
        sols, ok = _lstsq_stack(xs, ys)
        sols = sols[ok]
        assert sols.shape == (len(refs), 1)
        assert sols == pytest.approx(np.stack(refs), rel=1e-12)
        out = batch_least_squares(xs.reshape(-1, 1), ys.reshape(-1), k=self.K, aggregator="median")
        assert out == pytest.approx(np.median(refs, axis=0), rel=1e-12)


@pytest.mark.parametrize("scale", [1e160, 1e200, 1e-200, 1e-310])
def test_two_parent_extreme_scales_match_lstsq_without_warnings(scale):
    # Unscaled, ||R||_F * ||R^-1||_F overflows at the first three scales,
    # and a QR of subnormal data (1e-310) loses the solution to +-inf. Each
    # batch is scaled by powers of two first, so no warning is raised and
    # the solutions match lstsq.
    rng = np.random.default_rng(25)
    x = rng.normal(size=(24, 2))
    y = x @ np.array([1.0, -2.0]) + 0.1 * rng.normal(size=24)
    x, y = scale * x, scale * y
    refs = [np.linalg.lstsq(x[s : s + 12], y[s : s + 12], rcond=_LSTSQ_RCOND)[0] for s in (0, 12)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = least_squares_node(x[:12], y[:12])
        mean = batch_least_squares(x, y, k=12, aggregator="mean")
    assert sol == pytest.approx(refs[0], rel=1e-12)
    assert mean == pytest.approx(np.mean(refs, axis=0), rel=1e-12)


def test_stacked_kernel_matches_per_batch_lstsq():
    rng = np.random.default_rng(23)
    for p in range(1, 9):
        for k in range(p + 1, p + 26):
            b = int(rng.integers(1, 6))
            x = rng.normal(size=(b * k, p))
            y = x @ rng.normal(size=p) + rng.normal(size=b * k)
            refs = np.stack(
                [np.linalg.lstsq(x[s * k : (s + 1) * k], y[s * k : (s + 1) * k], rcond=None)[0] for s in range(b)]
            )
            sols, ok = _lstsq_stack(x.reshape(b, k, p), y.reshape(b, k))
            assert ok.all() and sols.shape == refs.shape
            for sol, ref in zip(sols, refs):
                assert np.linalg.norm(sol - ref) <= 1e-10 * np.linalg.norm(ref), (p, k)
            mean = batch_least_squares(x, y, k=k, aggregator="mean")
            median = batch_least_squares(x, y, k=k, aggregator="median")
            assert mean == pytest.approx(refs.mean(axis=0), rel=1e-10, abs=1e-12), (p, k)
            assert median == pytest.approx(np.median(refs, axis=0), rel=1e-10, abs=1e-12), (p, k)


class TestBatchSolve:
    def test_scalar(self):
        assert batch_solve(np.array([[2.0]]), np.array([6.0])) == pytest.approx([3.0])

    def test_identity(self):
        assert batch_solve(np.eye(3), np.array([1.0, 2.0, 3.0])) == pytest.approx([1.0, 2.0, 3.0])

    def test_singular_falls_back_to_min_norm(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0]])
        out = batch_solve(x, np.array([1.0, 2.0]))
        assert out == pytest.approx([0.5, 0.5], rel=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(InvalidParameter, match=r"need a square system, got \(2, 1\) and \(2,\)"):
            batch_solve(np.ones((2, 1)), np.ones(2))


def _random_magnitudes(rng, size, low, high):
    """Random signs times 10**Uniform(low, high) times Uniform[1, 10)."""
    signs = np.where(rng.integers(0, 2, size=size) == 0, -1.0, 1.0)
    return signs * 10.0 ** rng.uniform(low, high, size=size) * rng.uniform(1.0, 10.0, size=size)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestOneParentDivision:
    """For p = 1 the square solves divide instead of calling LAPACK; the
    bits must equal np.linalg.solve's, and failed solves must take the
    same fallback as looping batch_solve."""

    B = 20000

    def _stack(self, seed):
        # Divisors and right-hand sides over 300 decades, no overflow, with
        # some right-hand sides subnormal so some quotients are subnormal.
        rng = np.random.default_rng(seed)
        a = _random_magnitudes(rng, self.B, -150, 150).reshape(self.B, 1, 1)
        rhs = _random_magnitudes(rng, self.B, -150, 150).reshape(self.B, 1, 1)
        rhs[:100] = _random_magnitudes(rng, 100, -318, -308).reshape(100, 1, 1)
        a[:100] = rng.uniform(1.0, 10.0, size=(100, 1, 1))
        return a, rhs

    def test_batch_solve_stack_matches_lapack_bitwise(self):
        a, rhs = self._stack(seed=43)
        sols = _batch_solve_stack(a.reshape(self.B, 1), rhs.reshape(self.B))
        assert np.array_equal(_bits(sols), _bits(np.linalg.solve(a, rhs)[..., 0]))

    def test_zero_and_overflowing_divisors_fall_back_like_batch_solve(self):
        rng = np.random.default_rng(45)
        x, y = rng.normal(size=(12, 1)), rng.normal(size=12)
        x[3, 0], x[7, 0] = 0.0, 1e-200
        y[7] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sols = _batch_solve_stack(x, y)
            expected = np.stack([batch_solve(x[i : i + 1], y[i : i + 1]) for i in range(12)])
        assert not np.isfinite(sols[7, 0])
        assert np.array_equal(_bits(sols), _bits(expected))


def _check_lstsq_over_300_decades(p, b, seed):
    # Batches whose columns and targets span 300 decades: each solution
    # within 1e-10 relative of lstsq (in norm), and no floating-point
    # warning.
    rng = np.random.default_rng(seed)
    k = p + 5
    scale = _random_magnitudes(rng, (b, 1, 1), -150, 150)
    coef = _random_magnitudes(rng, (b, 1), -150, 150)
    xs = rng.normal(size=(b, k, p)) * scale
    ys = coef * (xs.sum(axis=2) + 0.5 * scale[..., 0] * rng.normal(size=(b, k)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sols, ok = _lstsq_stack(xs, ys)
        refs = np.array([np.linalg.lstsq(x, y, rcond=_LSTSQ_RCOND)[0] for x, y in zip(xs, ys)])
    assert ok.all() and np.isfinite(refs).all()
    rel = np.linalg.norm(sols - refs, axis=1) / np.linalg.norm(refs, axis=1)
    assert rel.max() <= 1e-10, rel.max()


def test_one_parent_closed_form_matches_lstsq_over_300_decades():
    # The p = 1 least squares is <x, y> / <x, x>, not LAPACK's QR, so it is
    # compared by value.
    _check_lstsq_over_300_decades(p=1, b=20000, seed=46)


@pytest.mark.parametrize("p", [2, 3])
def test_multi_parent_least_squares_matches_lstsq_over_300_decades(p):
    # The batches beyond [2^-500, 2^500] are scaled by powers of two before
    # their QR; the others are factored as they are.
    _check_lstsq_over_300_decades(p=p, b=4000, seed=46 + p)


class TestCauchyEstTree:
    def test_noiseless_exact(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 2))
        a = np.array([2.0, -1.5])
        out = cauchy_est_tree_node(x, x @ a)
        assert out == pytest.approx(a, abs=1e-12)

    def test_single_batch_equals_batch_solve(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 2))
        y = rng.normal(size=2)
        assert np.array_equal(cauchy_est_tree_node(x, y), batch_solve(x, y))

    def test_even_batch_count_averages_central_solutions(self):
        x = np.array([[1.0], [1.0]])
        y = np.array([1.0, 3.0])  # two p=1 batches solving to 1 and 3
        assert cauchy_est_tree_node(x, y) == pytest.approx([2.0], rel=1e-15)

    def test_trailing_rows_discarded(self):
        x = np.array([[1.0], [1.0], [100.0]])
        y = np.array([1.0, 3.0, 0.0])  # floor(3/1)=3 batches, all rows used
        assert cauchy_est_tree_node(x, y) == pytest.approx([1.0])
        x2 = np.array([[1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        y2 = np.array([1.0, 2.0, 0.0])  # one 2x2 batch; third row dropped
        assert cauchy_est_tree_node(x2, y2) == pytest.approx([1.0, 2.0])

    @pytest.mark.parametrize("where", ["parents", "target"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_input_rejected(self, where, value):
        # Not hidden by the lstsq fallback of the square solves and the median.
        x, y = _block_with(value, where)
        with pytest.raises(InvalidParameter, match="parent block or target contains NaN or infinite values"):
            cauchy_est_tree_node(x, y)

    def test_insufficient(self):
        with pytest.raises(InsufficientSamples, match="^needs at least 2 rows, got 1$"):
            cauchy_est_tree_node(np.ones((1, 2)), np.ones(1))

    def test_singular_batch_falls_back_for_the_whole_stack(self):
        # One exactly singular 2 x 2 batch among six makes the stacked
        # solve raise; the result is the median of per-batch batch_solve.
        rng = np.random.default_rng(31)
        x, y = rng.normal(size=(12, 2)), rng.normal(size=12)
        x[6:8] = [[1.0, 1.0], [2.0, 2.0]]
        xs, ys = x.reshape(6, 2, 2), y.reshape(6, 2)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(xs, ys[..., None])
        expected = np.median(np.stack([batch_solve(a, b) for a, b in zip(xs, ys)]), axis=0)
        assert np.array_equal(cauchy_est_tree_node(x, y), expected)

    def test_overflowing_batch_falls_back_alone(self):
        # One batch whose square solve overflows to inf; only that batch
        # takes batch_solve's lstsq path, and the median matches the loop.
        rng = np.random.default_rng(32)
        x, y = rng.normal(size=(12, 2)), rng.normal(size=12)
        x[6:8] = [[1e-200, 0.0], [0.0, 1.0]]
        y[6:8] = [1e200, 1.0]
        xs, ys = x.reshape(6, 2, 2), y.reshape(6, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = np.linalg.solve(xs, ys[..., None])[..., 0]
            assert np.flatnonzero(~np.isfinite(stacked).all(axis=1)).tolist() == [3]
            expected = np.median(np.stack([batch_solve(a, b) for a, b in zip(xs, ys)]), axis=0)
            assert np.isfinite(expected).all()
            assert np.array_equal(cauchy_est_tree_node(x, y), expected)

    def test_median_recovers_under_heavy_tails(self):
        # p=1 batch errors are Cauchy distributed; the median of 8000 of
        # them lands within 0.1 of the truth almost always.
        hits = 0
        rng = np.random.default_rng(6)
        a = 1.3
        for _ in range(200):
            x = rng.normal(size=(8000, 1))
            y = a * x[:, 0] + rng.normal(size=8000)
            if abs(float(cauchy_est_tree_node(x, y)[0]) - a) <= 0.1:
                hits += 1
        assert hits >= 198  # >= 0.99 of trials


class TestCauchyEst:
    def test_noiseless_exact(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(41, 3))
        a = np.array([2.0, -1.5, 0.7])
        out = cauchy_est_node(x, x @ a)
        assert out == pytest.approx(a, abs=1e-10)

    def test_single_parent_matches_tree_variant(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(101, 1))
        y = 1.7 * x[:, 0] + rng.normal(size=101)
        a = cauchy_est_node(x, y)
        b = cauchy_est_tree_node(x, y)
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("where", ["parents", "target"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_input_rejected(self, where, value):
        x, y = _block_with(value, where)
        with pytest.raises(InvalidParameter, match="parent block or target contains NaN or infinite values"):
            cauchy_est_node(x, y)

    @pytest.mark.parametrize("k", [-900, -600, 300, 520, 900])
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_power_of_two_scale_keeps_every_bit(self, p, k):
        # X^T X / m overflows above about 1e154 and underflows near 2^-600;
        # Mhat is formed on power-of-two-scaled data, so scaling x and y
        # by 2^k moves no bit of the estimate.
        rng = np.random.default_rng(42)
        x = rng.normal(size=(40, p))
        y = x @ rng.normal(size=p) + rng.normal(size=40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = cauchy_est_node(np.ldexp(x, k), np.ldexp(y, k))
        assert _bits(scaled).tolist() == _bits(cauchy_est_node(x, y)).tolist()

    @staticmethod
    def _solve_triangular_reference(x, y):
        # The kernel's estimate on all rows, back-solved with LAPACK's
        # triangular solve (trtrs) through scipy instead of np.linalg.solve.
        m, p = x.shape
        u = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
        ell = np.linalg.cholesky(u.T @ u / m)
        whitened_median = _median(_batch_solve_stack(x, y)[: m // p] @ ell)
        return scipy.linalg.solve_triangular(ell.T, whitened_median, lower=False, check_finite=False)

    @pytest.mark.parametrize("p", range(1, 11))
    def test_back_solve_matches_solve_triangular_bit_for_bit(self, p):
        # LU with partial pivoting swaps no row of an upper triangle and
        # leaves it exact, so np.linalg.solve runs the same back-solve as
        # trtrs: every bit agrees, at extreme scales and with near-collinear
        # parents too.
        rng = np.random.default_rng(300 + p)
        for k in (-300, -60, 0, 60, 300):
            for case in range(12):
                m = int(rng.integers(p + 1, 12 * p + 30))
                x = rng.normal(size=(m, p)) * rng.lognormal(0.0, 1.0, size=p)
                if case % 3 == 2 and p > 1:
                    x[:, 1] = x[:, 0] + 1e-5 * rng.normal(size=m)
                y = x @ rng.normal(size=p) + rng.standard_cauchy(size=m)
                x, y = np.ldexp(x, k), np.ldexp(y, k + int(rng.integers(-3, 4)))
                expected = self._solve_triangular_reference(x, y)
                assert _bits(cauchy_est_node(x, y)).tolist() == _bits(expected).tolist(), (k, case)

    def test_cholesky_failure_surfaces(self):
        col = np.array([1.0, 2.0, 3.0])
        x = np.column_stack([col, col])  # singular second-moment matrix
        with pytest.raises(CholeskyFailed):
            cauchy_est_node(x, np.ones(3))

    def test_insufficient(self):
        with pytest.raises(InsufficientSamples, match="^needs at least 3 rows, got 2$"):
            cauchy_est_node(np.ones((2, 2)), np.ones(2))

    def test_consistent_under_heavy_tailed_noise(self):
        # With Cauchy noise the ordinary LS error does not shrink with m
        # (the noise has no mean), while the median-of-batches estimate
        # concentrates.  Compare medians over repeated draws.
        rng = np.random.default_rng(9)
        a = np.array([1.0, -1.0])
        err_ls, err_median = [], []
        for _ in range(30):
            x = rng.normal(size=(5000, 2))
            y = x @ a + rng.standard_cauchy(size=5000)
            err_median.append(np.linalg.norm(cauchy_est_node(x, y) - a))
            err_ls.append(np.linalg.norm(least_squares_node(x, y) - a))
        assert np.median(err_median) < 0.15
        assert np.median(err_median) < 0.25 * np.median(err_ls)


class TestEmpiricalMle:
    def test_single_sample(self):
        out = empirical_mle(np.array([[1.0, 2.0]]))
        assert np.allclose(out, [[1.0, 2.0], [2.0, 4.0]])

    def test_duplicated_rows(self):
        row = np.array([1.0, -1.0])
        out = empirical_mle(np.vstack([row, row]))
        assert np.allclose(out, np.outer(row, row))

    def test_converges_to_identity(self):
        errs = []
        for seed in range(5):
            x = np.random.default_rng(seed).normal(size=(1_000_000, 10))
            errs.append(float(np.linalg.norm(empirical_mle(x) - np.eye(10))))
        assert float(np.median(errs)) <= 0.02

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameter, match=r"need a nonempty 2-d sample array, got shape \(0, 3\)"):
            empirical_mle(np.empty((0, 3)))


class TestVarianceRecovery:
    def test_zero_residuals(self):
        dag = build_dag(2, [(0, 1)])
        data = np.array([[1.0, 2.0], [2.0, 4.0], [-1.0, -2.0]])
        out = variance_recovery(dag, data, [np.zeros(0), np.array([2.0])])
        assert out[1] == 0.0

    def test_root_node_second_moment(self):
        dag = build_dag(1, [])
        out = variance_recovery(dag, np.array([[1.0], [-1.0]]), [np.zeros(0)])
        assert out[0] == 1.0

    def test_chi_square_bracket_single_trial(self):
        dag = build_dag(2, [(0, 1)])
        model = GaussianBayesNet(dag, (np.zeros(0), np.array([1.5])), np.ones(2))
        data = sample(model, 3200, np.random.default_rng(10))
        out = variance_recovery(dag, data, model.coeffs)
        assert 0.9 <= out[1] <= 1.1

    def test_needs_rows(self):
        dag = build_dag(1, [])
        with pytest.raises(InsufficientSamples):
            variance_recovery(dag, np.empty((0, 1)), [np.zeros(0)])

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_row_order_sum_bit_for_bit(self, order):
        # Each mean is a plain sum of squares taken row by row, then divided
        # by the row count, in either sample layout. One parent per node, so
        # each residual is one product and one difference, as below.
        dag = build_dag(4, [(0, 1), (1, 2), (0, 3)])
        coeffs = [np.zeros(0), np.array([1.5]), np.array([-0.7]), np.array([2.25])]
        rng = np.random.default_rng(43)
        data = np.asarray(rng.normal(size=(257, 4)) * rng.lognormal(0.0, 3.0, size=(257, 4)), order=order)
        expected = []
        for i, pa in enumerate(dag.parents):
            total = 0.0
            for row in data.tolist():
                r = row[i] - (row[pa[0]] * float(coeffs[i][0]) if pa else 0.0)
                total += r * r
            expected.append(total / len(data))
        assert _bits(variance_recovery(dag, data, coeffs)).tolist() == _bits(np.array(expected)).tolist()


def _residual_matrix(dag, data, coeffs):
    # The (m, n) residual matrix the variance phases used to build before
    # reducing it column by column; kept here as their reference.
    out = np.empty_like(data)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, pa in enumerate(dag.parents):
            out[:, i] = data[:, i] - data[:, pa] @ coeffs[i] if pa else data[:, i]
    return out


def _variance_case(order, m=301, n=30):
    rng = np.random.default_rng(61)
    dag = random_er_dag(n, 3.0, rng)
    coeffs = [rng.normal(size=len(pa)) for pa in dag.parents]
    data = np.asarray(rng.normal(size=(m, n)) * rng.lognormal(0.0, 3.0, size=n), order=order)
    return dag, data, coeffs


class TestVariancePhase:
    """The variance phases reduce one residual column at a time, bit for
    bit as the reductions of the full residual matrix."""

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_empirical_matches_row_major_mean(self, order):
        dag, data, coeffs = _variance_case(order)
        expected = np.square(_residual_matrix(dag, data, coeffs), order="C").mean(axis=0)
        assert _bits(variance_recovery(dag, data, coeffs)).tolist() == _bits(expected).tolist()

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_mad_matches_per_column_reference(self, order):
        dag, data, coeffs = _variance_case(order)
        resid = _residual_matrix(dag, data, coeffs)
        expected = np.array([mad_variance(resid[:, i]) for i in range(dag.n)])
        outcome = estimators._variance_phase(dag, data, coeffs, "mad")
        assert outcome.degenerate_nodes == ()
        assert _bits(outcome.model.variances).tolist() == _bits(expected).tolist()

    @pytest.mark.parametrize("order", ["F", "C"])
    @pytest.mark.parametrize("variance_method", VARIANCE_METHODS)
    def test_allocates_a_few_columns_not_the_residual_matrix(self, order, variance_method):
        # On an (m2 = 2000, n = 200) block the phase holds one node's
        # parent gather and a few residual-sized columns at a time, never
        # an m2 x n matrix (200 columns).
        m2, n = 2000, 200
        dag, data, coeffs = _variance_case(order, m2, n)
        max_p = max(len(pa) for pa in dag.parents)
        tracemalloc.start()  # numpy reports its buffers to tracemalloc: the peak is deterministic
        try:
            estimators._variance_phase(dag, data, coeffs, variance_method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (max_p + 4) * m2 * 8


class TestMadVariance:
    def test_frozen_example(self):
        # median 2, absolute deviations {1, 0, 1}, MAD 1.
        out = mad_variance([1.0, 2.0, 3.0])
        assert out == MAD_SCALE * MAD_SCALE
        assert out == pytest.approx(2.19810276, rel=1e-12)

    def test_constant_input_gives_zero(self):
        assert mad_variance([3.0, 3.0, 3.0]) == 0.0

    def test_gaussian_consistency(self):
        vals = []
        for seed in range(5):
            x = np.random.default_rng(seed).normal(size=100_000)
            vals.append(mad_variance(x))
        assert 0.97 <= float(np.median(vals)) <= 1.03

    def test_resists_half_minus_one_corruption(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=1000)
        x[:400] += 1e6
        assert mad_variance(x) < 100.0

    def test_empty_rejected(self):
        with pytest.raises(InsufficientSamples):
            mad_variance([])


class TestMedian:
    """The private median is np.median(a, axis=0) bit for bit."""

    @staticmethod
    def _inputs(kind, rng, n, p):
        shape = (n,) if p == 0 else (n, p)
        if kind == "random":
            return rng.normal(size=shape)
        if kind == "signed_zeros":
            return rng.choice([-0.0, 0.0], size=shape)
        if kind == "ties":
            return rng.choice([-1.0, -0.0, 0.0, 1.0, 2.0], size=shape)
        return rng.choice([-np.inf, np.inf, np.nan, -np.nan, 1.0, -0.0, 0.0], size=shape)

    @pytest.mark.parametrize("kind", ["random", "signed_zeros", "ties", "non_finite"])
    def test_matches_np_median_bitwise(self, kind):
        rng = np.random.default_rng(47)
        for n in range(1, 42):  # odd and even lengths
            for p in (0, 1, 3):
                a = self._inputs(kind, rng, n, p)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # inf - inf in a central pair warns in both
                    ref, got = np.median(a, axis=0), _median(a)
                assert np.array_equal(_bits(np.asarray(ref)), _bits(np.asarray(got))), (kind, n, p, a)


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=12), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_median_aggregation_matches_order_statistics_and_ignores_batch_order(values, pyrandom):
    """The coordinate median averages the two central order statistics on
    even counts and is invariant to the order of the batches."""
    x, y = _exact_batches(values)
    out = batch_least_squares(x, y, k=2, aggregator="median")
    srt = sorted(values)
    half = len(srt) // 2
    expected = srt[half] if len(srt) % 2 else (srt[half - 1] + srt[half]) / 2.0
    assert out[0] == pytest.approx(expected, rel=1e-9, abs=1e-9)

    shuffled = list(values)
    pyrandom.shuffle(shuffled)
    x2, y2 = _exact_batches(shuffled)
    out2 = batch_least_squares(x2, y2, k=2, aggregator="median")
    assert out2[0] == pytest.approx(out[0], rel=1e-9, abs=1e-9)


class TestFitConfig:
    def test_unknown_method(self):
        with pytest.raises(ConfigInvalid):
            FitConfig(method="gradient_descent")

    def test_batch_extra_must_be_positive_for_batch_methods(self):
        with pytest.raises(ConfigInvalid):
            FitConfig(method="batch_avg", batch_extra=0)
        FitConfig(method="least_squares", batch_extra=0)  # fine elsewhere

    @pytest.mark.parametrize("method", ["batch_avg", "least_squares"])
    def test_batch_extra_rejects_a_bool(self, method):
        # bool is an int subclass; True would pass as batch_extra 1.
        with pytest.raises(ConfigInvalid, match="batch_extra must be a nonnegative integer, got True"):
            FitConfig(method=method, batch_extra=True)

    def test_bad_variance_method(self):
        with pytest.raises(ConfigInvalid):
            FitConfig(method="least_squares", variance_method="trimmed")


class TestFit:
    def test_split_uses_disjoint_rows_for_variance(self):
        dag = build_dag(1, [])
        data = np.array([[9.0], [9.0], [1.0], [-1.0]])
        model = fit(dag, data, FitConfig(method="least_squares"))
        assert model.variances[0] == 1.0  # only the last two rows

    def test_split_uses_leading_rows_for_coefficients(self):
        dag = build_dag(2, [(0, 1)])
        data = np.array([[1.0, 2.0], [2.0, 4.0], [5.0, 0.0], [7.0, 0.0]])
        model = fit(dag, data, FitConfig(method="least_squares"))
        assert model.coeffs[1] == pytest.approx([2.0], rel=1e-12)
        assert model.variances[1] == pytest.approx((100.0 + 196.0) / 2.0, rel=1e-12)

    def test_split_sizes(self):
        dag = build_dag(1, [])
        data = np.ones((1000, 1))
        # 1000 // 2 = 500 coefficient rows; just check it runs and
        # the variance comes from the other 500 (all ones here).
        model = fit(dag, data, FitConfig(method="least_squares", variance_method="mad"))
        assert model.variances[0] == 0.0 + DEGENERATE_VARIANCE  # constant residuals

    def test_odd_row_count_gives_the_extra_row_to_variances(self):
        # m = 5: the coefficient comes from rows 0-1 (exactly 2), the
        # variances from rows 2-4 (node 1's residuals -2, 1 and 5).
        dag = build_dag(2, [(0, 1)])
        data = np.array([[1.0, 2.0], [2.0, 4.0], [1.0, 0.0], [1.0, 3.0], [0.0, 5.0]])
        model = fit(dag, data, FitConfig(method="least_squares"))
        assert model.coeffs[1] == pytest.approx([2.0], rel=1e-12)
        assert model.variances[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert model.variances[1] == pytest.approx(10.0, rel=1e-12)

    def test_one_row_is_insufficient(self):
        dag = build_dag(2, [(0, 1)])
        with pytest.raises(InsufficientSamples, match="^needs at least 2 rows, one per phase, got 1$"):
            fit(dag, np.ones((1, 2)), FitConfig(method="least_squares"))

    @pytest.mark.parametrize("variance_method", VARIANCE_METHODS)
    @pytest.mark.parametrize("method", METHODS)
    def test_overflowing_variance_is_flagged_without_warnings(self, method, variance_method):
        # Every residual near 1e200 squares past the float range: each
        # estimate is inf, so each node is degenerate and none warns.
        dag = build_dag(3, [(0, 2), (1, 2)])
        data = 1e200 * np.random.default_rng(41).normal(size=(40, 3))
        config = FitConfig(method=method, batch_extra=3, variance_method=variance_method)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome = fit_detailed(dag, data, config)
        assert outcome.degenerate_nodes == (0, 1, 2)
        assert (outcome.model.variances == DEGENERATE_VARIANCE).all()

    @pytest.mark.parametrize("variance_method", VARIANCE_METHODS)
    @pytest.mark.parametrize("method", METHODS)
    def test_overflowing_residual_is_flagged_without_warnings(self, method, variance_method):
        # Coefficient rows x ~ 1e-10 with y ~ 1e300 x give a finite estimate
        # near 1e300; the variance rows' parent values near 1e30 times it
        # overflow the residuals, so node 1's variance is not finite.
        rng = np.random.default_rng(44)
        x = np.concatenate([1e-10 * rng.normal(size=100), 1e30 * rng.normal(size=100)])
        y = np.concatenate([1e300 * x[:100] * (1.0 + 0.01 * rng.normal(size=100)), rng.normal(size=100)])
        dag = build_dag(2, [(0, 1)])
        config = FitConfig(method=method, batch_extra=3, variance_method=variance_method)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome = fit_detailed(dag, np.column_stack([x, y]), config)
        assert np.isfinite(outcome.model.coeffs[1]).all() and abs(outcome.model.coeffs[1][0]) > 1e299
        assert outcome.degenerate_nodes == (1,)

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("method", METHODS)
    def test_overflowing_coefficient_is_a_numerical_error_without_warnings(self, method, p):
        # Parents near 1e-200 and a child near 1e200: every coefficient
        # estimate lies beyond the float range. At this seed and p = 1, the
        # central pair of cauchy_est_tree's 100 batch solutions is -inf, +inf.
        rng = np.random.default_rng(5)
        data = np.column_stack([1e-200 * rng.normal(size=(200, p)), 1e200 * rng.normal(size=200)])
        dag = build_dag(p + 1, [(j, p) for j in range(p)])
        message = f"^node {p}: method {method}: coefficient estimate is not finite$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=message) as info:
                fit_detailed(dag, data, FitConfig(method=method, batch_extra=3))
        assert type(info.value) is NumericalError

    def test_noiseless_recovery_through_full_pipeline(self):
        rng = np.random.default_rng(12)
        dag = random_tree_dag(20, rng)
        tiny = {i for i in range(20) if dag.parents[i]}
        from gbnlearn.gbn import IllConditionedVariances

        truth = random_gbn(dag, (1.0, 2.0), IllConditionedVariances(tuple(tiny), 1e-30), rng)
        data = sample(truth, 400, rng)
        for method in ("least_squares", "batch_avg", "batch_med", "cauchy_est", "cauchy_est_tree"):
            model = fit(dag, data, FitConfig(method=method, batch_extra=5))
            for i in range(20):
                assert model.coeffs[i] == pytest.approx(truth.coeffs[i], abs=1e-6)

    def test_mad_variance_method(self):
        rng = np.random.default_rng(13)
        dag = build_dag(2, [(0, 1)])
        truth = GaussianBayesNet(dag, (np.zeros(0), np.array([1.5])), np.array([1.0, 2.0]))
        data = sample(truth, 20000, rng)
        model = fit(dag, data, FitConfig(method="least_squares", variance_method="mad"))
        assert model.variances[1] == pytest.approx(2.0, rel=0.1)

    def test_degenerate_variance_flagged_and_floored(self):
        dag = build_dag(2, [(0, 1)])
        data = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0]])
        outcome = fit_detailed(dag, data, FitConfig(method="least_squares"))
        assert outcome.degenerate_nodes == (1,)
        assert outcome.model.variances[1] == DEGENERATE_VARIANCE
        assert outcome.model.variances[0] > DEGENERATE_VARIANCE

    def test_empirical_mle_not_a_fit_method(self):
        # empirical_mle uses no DAG, so it is no FitConfig method at all.
        with pytest.raises(ConfigInvalid, match=r"^unknown method 'empirical_mle'; expected one of \("):
            FitConfig(method="empirical_mle")

    def test_insufficient_samples_names_the_node(self):
        dag = build_dag(3, [(0, 2), (1, 2)])
        data = np.ones((4, 3))
        with pytest.raises(InsufficientSamples, match="^node 2: method batch_avg: needs at least 7 rows, got 2$"):
            fit(dag, data, FitConfig(method="batch_avg", batch_extra=5))

    @pytest.mark.parametrize(
        "method, need",
        [("least_squares", 2), ("batch_avg", 5), ("batch_med", 5), ("cauchy_est", 3), ("cauchy_est_tree", 2)],
    )
    def test_row_need_per_method(self, method, need):
        # Two parents and batch_extra 3: the kernel's own guard sets the
        # boundary, and fit passes its message on under the node's name.
        dag = build_dag(3, [(0, 2), (1, 2)])
        data = np.random.default_rng(34).normal(size=(2 * need, 3))
        config = FitConfig(method=method, batch_extra=3)
        fit(dag, data, config)  # m1 = need
        message = f"^node 2: method {method}: needs at least {need} rows, got {need - 1}$"
        with pytest.raises(InsufficientSamples, match=message):
            fit(dag, data[: 2 * need - 2], config)

    def test_numerical_error_names_the_node_and_keeps_its_class(self):
        rng = np.random.default_rng(35)
        data = rng.normal(size=(100, 4))
        data[:, 1] = 2.0 * data[:, 0]
        dag = build_dag(4, [(0, 3), (1, 3), (2, 3)])
        message = f"^node 3: method least_squares: design matrix has relative singular value <= {_LSTSQ_RCOND}$"
        with pytest.raises(RankDeficient, match=message) as info:
            fit(dag, data, FitConfig(method="least_squares"))
        assert isinstance(info.value.__cause__, RankDeficient)

    @pytest.mark.parametrize(
        "method, kernel",
        [
            ("least_squares", "least_squares_node"),
            ("batch_avg", "batch_least_squares"),
            ("batch_med", "batch_least_squares"),
            ("cauchy_est", "cauchy_est_node"),
            ("cauchy_est_tree", "cauchy_est_tree_node"),
        ],
    )
    def test_kernel_looked_up_at_fit_time(self, monkeypatch, method, kernel):
        # A layer tracer patches the kernels as module attributes, so fit
        # must find each kernel there at call time: once per node with
        # parents, and never through a stored function object.
        rng = np.random.default_rng(33)
        dag = random_er_dag(20, 2, rng)
        data = sample(random_gbn(dag, (1.0, 2.0), UnitVariances(), rng), 400, rng)
        original = getattr(estimators, kernel)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(estimators, kernel, counting)
        config = FitConfig(method=method, batch_extra=5)
        fit_detailed(dag, data, config)
        with_parents = sum(1 for pa in dag.parents if pa)
        assert with_parents > 0
        assert len(calls) == with_parents
        # Three sizes in one pass: a batch kernel still runs once per node
        # with parents; least squares runs once per node and size.
        calls.clear()
        fit_prefixes(dag, data, [config], (100, 250, 400))
        assert len(calls) == with_parents * (3 if method == "least_squares" else 1)
        # Fitted beside every other method, as often per method that uses
        # the kernel: batch_least_squares serves both batch methods.
        calls.clear()
        configs = [FitConfig(method=other, batch_extra=5) for other in METHODS]
        fit_prefixes(dag, data, configs, (100, 250, 400))
        per_node = {"least_squares_node": 3, "batch_least_squares": 2}.get(kernel, 1)
        assert len(calls) == with_parents * per_node

    def test_too_few_rows_overall(self):
        dag = build_dag(1, [])
        with pytest.raises(InsufficientSamples):
            fit(dag, np.ones((1, 1)), FitConfig(method="least_squares"))

    def test_nan_rejected(self):
        dag = build_dag(1, [])
        data = np.array([[1.0], [np.nan], [1.0], [1.0]])
        with pytest.raises(InvalidParameter, match="samples contain NaN or infinite values"):
            fit(dag, data, FitConfig(method="least_squares"))

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_sample_rejected(self, method, value):
        # One infinite parent value in the coefficient rows: rejected before
        # any solve, never turned into a LAPACK error or a skipped batch.
        dag = build_dag(3, [(0, 2), (1, 2)])
        data = np.random.default_rng(24).normal(size=(200, 3))
        data[5, 0] = value
        with pytest.raises(InvalidParameter, match="^samples contain NaN or infinite"):
            fit(dag, data, FitConfig(method=method, batch_extra=5))

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("variance_method", ["empirical", "mad"])
    def test_column_and_row_major_samples_fit_identically(self, method, variance_method):
        # sample() returns column-major data and load_samples() row-major
        # data; both layouts must give the same bits.
        rng = np.random.default_rng(27)
        dag = random_er_dag(30, 3, rng)
        truth = random_gbn(dag, (1.0, 2.0), UnitVariances(), rng)
        data = sample(truth, 600, rng)
        config = FitConfig(method=method, batch_extra=5, variance_method=variance_method)
        a = fit_detailed(dag, data, config)
        b = fit_detailed(dag, np.ascontiguousarray(data), config)
        for ca, cb in zip(a.model.coeffs, b.model.coeffs):
            assert np.array_equal(ca, cb)
        assert np.array_equal(a.model.variances, b.model.variances)
        assert a.degenerate_nodes == b.degenerate_nodes

    def test_wrong_width_rejected(self):
        dag = build_dag(2, [(0, 1)])
        with pytest.raises(InvalidParameter, match=r"expected \(m, 2\) samples, got shape \(10, 3\)"):
            fit(dag, np.ones((10, 3)), FitConfig(method="least_squares"))


def _bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


def _same_outcome(got, ref):
    """A fit_prefixes entry against a fit_detailed result or error, bit for bit."""
    if isinstance(ref, Exception):
        return type(got) is type(ref) and str(got) == str(ref)
    return (
        isinstance(got, FitOutcome)
        and got.degenerate_nodes == ref.degenerate_nodes
        and _bitwise_equal(got.model.variances, ref.model.variances)
        and all(_bitwise_equal(a, b) for a, b in zip(got.model.coeffs, ref.model.coeffs))
    )


def _per_size(dag, data, configs, sizes):
    """fit_detailed of each config at each size in turn, a NumericalError kept in its place."""
    out = []
    for config in configs:
        fits = []
        for m in sizes:
            try:
                fits.append(fit_detailed(dag, data[:m], config))
            except NumericalError as exc:
                fits.append(exc)
        out.append(fits)
    return out


def _run(fn, *args):
    try:
        return fn(*args)
    except GbnError as exc:
        return exc


def _assert_prefixes_match(dag, data, configs, sizes):
    got, ref = _run(fit_prefixes, dag, data, configs, sizes), _run(_per_size, dag, data, configs, sizes)
    if isinstance(ref, GbnError):
        assert type(got) is type(ref) and str(got) == str(ref)
        return got
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert len(g) == len(r) and all(_same_outcome(a, b) for a, b in zip(g, r))
    return got


_CONFIGS = st.builds(
    FitConfig,
    method=st.sampled_from(METHODS),
    batch_extra=st.integers(1, 4),
    variance_method=st.sampled_from(VARIANCE_METHODS),
)


class TestFitPrefixes:
    """One pass over methods and nested sizes equals fit_detailed at each, bit for bit."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        configs=st.lists(_CONFIGS, min_size=1, max_size=5),
        sizes=st.lists(st.integers(2, 160), min_size=1, max_size=4, unique=True).map(sorted),
        damage=st.sampled_from(["none", "collinear_head", "zero_head"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_fit_detailed_per_config_and_size(self, seed, configs, sizes, damage):
        # The damage makes methods fail at different sizes and nodes: a
        # batch method's batch size, the Cholesky factor of a prefix and
        # the least-squares rank rule each meet the damaged head differently.
        rng = np.random.default_rng(seed)
        dag = random_er_dag(8, 3.0, rng)
        data = sample(random_gbn(dag, (1.0, 2.0), UnitVariances(), rng), sizes[-1], rng)
        head = int(rng.integers(1, sizes[-1] // 2 + 2))
        if damage == "collinear_head":  # rank-deficient and singular batches in a prefix
            data[:head, 1] = 2.0 * data[:head, 0]
        elif damage == "zero_head":
            data[:head, :3] = 0.0
        _assert_prefixes_match(dag, data, configs, tuple(sizes))

    def test_configs_fail_at_different_sizes_and_nodes(self):
        # Rows 0-4 of node 2's parents are collinear and parent 4 of node 5
        # is zero in rows 0-11. batch_avg (5-row batches at node 2, 7-row
        # at node 5) fails at node 2 for m = 12 and at node 5 for m = 20;
        # the others fail at node 5 while m // 2 <= 10, or never.
        dag = build_dag(6, [(0, 2), (1, 2), (0, 5), (1, 5), (3, 5), (4, 5)])
        data = np.random.default_rng(62).normal(size=(100, 6))
        data[:5, 1] = 2.0 * data[:5, 0]
        data[:12, 4] = 0.0
        configs = [
            FitConfig(method="batch_avg", batch_extra=3),
            FitConfig(method="least_squares"),
            FitConfig(method="cauchy_est"),
            FitConfig(method="cauchy_est_tree", variance_method="mad"),
            FitConfig(method="batch_med", batch_extra=1),
        ]
        got = _assert_prefixes_match(dag, data, configs, (12, 20, 30, 100))
        failed = [[str(f).split(":")[0] if isinstance(f, GbnError) else None for f in fits] for fits in got]
        assert failed == [
            ["node 2", "node 5", None, None],
            ["node 5", "node 5", None, None],
            ["node 5", "node 5", None, None],
            [None, None, None, None],
            ["node 5", "node 5", None, None],
        ]

    @pytest.mark.parametrize(
        "methods, solves",
        [
            (("cauchy_est", "cauchy_est_tree"), 1),
            (("cauchy_est_tree", "least_squares", "batch_med", "cauchy_est"), 1),
            (("cauchy_est",), 1),
            (("least_squares", "batch_avg", "batch_med"), 0),
        ],
    )
    def test_square_stack_solved_once_per_node(self, monkeypatch, methods, solves):
        # Both Cauchy methods take their medians over the same square
        # batches: one solve per node with parents serves both, at every
        # size, and no solve runs without a Cauchy method.
        rng = np.random.default_rng(45)
        dag = random_er_dag(20, 2, rng)
        data = sample(random_gbn(dag, (1.0, 2.0), UnitVariances(), rng), 400, rng)
        original = estimators._batch_solve_stack
        calls = []

        def counting(x, y):
            calls.append(len(x))
            return original(x, y)

        monkeypatch.setattr(estimators, "_batch_solve_stack", counting)
        configs = [FitConfig(method=method, batch_extra=5) for method in methods]
        got = fit_prefixes(dag, data, configs, (100, 250, 400))
        assert all(isinstance(f, FitOutcome) for fits in got for f in fits)
        with_parents = sum(1 for pa in dag.parents if pa)
        assert calls == [200] * (with_parents * solves)

    def test_kernels_keep_their_bits_given_a_longer_blocks_solutions(self):
        # The first r // p solutions of a block are those of its first r rows.
        rng = np.random.default_rng(46)
        x, y = rng.normal(size=(90, 3)), rng.normal(size=90)
        sols = _batch_solve_stack(x, y)
        for kernel in (cauchy_est_tree_node, cauchy_est_node):
            for r in (4, 30, 61, 90):
                alone = kernel(x[:r], y[:r])
                assert _bits(kernel(x[:r], y[:r], _solutions=sols)).tolist() == _bits(alone).tolist()

    @pytest.mark.parametrize(
        "kernel",
        [
            lambda x, y, **prefix: batch_least_squares(x, y, 5, "mean", **prefix),
            lambda x, y, **prefix: batch_least_squares(x, y, 5, "median", **prefix),
            cauchy_est_tree_node,
            cauchy_est_node,
        ],
        ids=["batch_avg", "batch_med", "cauchy_est_tree_node", "cauchy_est_node"],
    )
    def test_prefix_mode_matches_the_one_shot_calls(self, kernel):
        # One entry per row count: the one-shot estimate of those rows, bit
        # for bit, or the error that call raises (r = 2 is too few rows for
        # every kernel here). The Cauchy kernels get the whole block's
        # square solutions, as fit_prefixes passes them.
        rng = np.random.default_rng(47)
        x, y = rng.normal(size=(90, 3)), rng.normal(size=90)
        rows = [2, 4, 30, 61, 90]
        prefix = {"_rows": rows}
        if kernel in (cauchy_est_tree_node, cauchy_est_node):
            prefix["_solutions"] = _batch_solve_stack(x, y)
        got = kernel(x, y, **prefix)
        assert len(got) == len(rows)
        for r, est in zip(rows, got):
            try:
                alone = kernel(x[:r], y[:r])
            except GbnError as exc:
                assert type(est) is type(exc) and str(est) == str(exc)
                continue
            assert _bits(est).tolist() == _bits(alone).tolist()

    def test_node_arrays_runs_only_for_least_squares(self, monkeypatch):
        # The kernels' prefix mode relies on fit_prefixes' own checks: only
        # least_squares_node, which has no prefix mode, scans its block, once
        # per call.
        rng = np.random.default_rng(48)
        dag = random_er_dag(20, 2, rng)
        data = sample(random_gbn(dag, (1.0, 2.0), UnitVariances(), rng), 400, rng)
        counts = {"_node_arrays": 0, "least_squares_node": 0}
        for name in counts:
            original = getattr(estimators, name)

            def counting(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(estimators, name, counting)
        configs = [FitConfig(method=method, batch_extra=5) for method in METHODS]
        got = fit_prefixes(dag, data, configs, (100, 250, 400))
        assert all(isinstance(f, FitOutcome) for fits in got for f in fits)
        with_parents = sum(1 for pa in dag.parents if pa)
        assert counts["least_squares_node"] == 3 * with_parents > 0
        assert counts["_node_arrays"] == counts["least_squares_node"]

    def _two_parent_data(self, n_rows, seed=61):
        dag = build_dag(3, [(0, 2), (1, 2)])
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(n_rows, 3))
        data[:, 2] += data[:, 0] - 2.0 * data[:, 1]
        return dag, data

    @pytest.mark.parametrize("method", ["batch_avg", "batch_med"])
    def test_rank_deficient_small_prefix_and_scored_large_prefix(self, method):
        # Batches of 5 rows: batch 0 all zero, batch 1 collinear. The
        # 10-row prefix (m = 20) has no full-rank batch; m = 60 uses batches 2-5.
        dag, data = self._two_parent_data(60)
        data[:5, :2] = 0.0
        data[5:10, 1] = 3.0 * data[5:10, 0]
        (got,) = _assert_prefixes_match(dag, data, [FitConfig(method=method, batch_extra=3)], (20, 60))
        assert isinstance(got[0], RankDeficient)
        assert str(got[0]) == f"node 2: method {method}: all 2 batches were rank deficient"
        assert isinstance(got[1], FitOutcome)

    def test_cholesky_fails_at_one_prefix_only(self):
        # Parent 1 is zero in the first 10 rows: that prefix's second-moment
        # matrix is singular, the 100-row one is not.
        dag, data = self._two_parent_data(200)
        data[:10, 1] = 0.0
        (got,) = _assert_prefixes_match(dag, data, [FitConfig(method="cauchy_est")], (20, 50, 200))
        assert isinstance(got[0], CholeskyFailed)
        assert str(got[0]).startswith("node 2: method cauchy_est: empirical parent covariance is not positive")
        assert all(isinstance(g, FitOutcome) for g in got[1:])

    def test_insufficient_samples_at_the_smallest_size_is_raised(self):
        # Not a NumericalError: the call fails as a loop of fit_detailed
        # calls fails at its first size.
        dag, data = self._two_parent_data(400)
        config = FitConfig(method="batch_med", batch_extra=20)
        with pytest.raises(InsufficientSamples, match="^node 2: method batch_med: needs at least 22 rows, got 10$"):
            fit_prefixes(dag, data, [config], (20, 400))
        _assert_prefixes_match(dag, data, [config], (20, 400))

    def test_numerical_error_masks_a_later_nodes_insufficient_samples(self):
        # m = 12 has 6 coefficient rows: node 2 (batches of 5) meets one
        # collinear batch first, so node 5 (batches of 7, too few rows) is
        # never fitted at that size, exactly as fit_detailed stops.
        dag = build_dag(6, [(0, 2), (1, 2), (0, 5), (1, 5), (3, 5), (4, 5)])
        data = np.random.default_rng(62).normal(size=(100, 6))
        data[:5, 1] = 2.0 * data[:5, 0]
        config = FitConfig(method="batch_avg", batch_extra=3)
        with pytest.raises(RankDeficient, match="^node 2: method batch_avg: all 1 batches were rank deficient$"):
            fit_detailed(dag, data[:12], config)
        (got,) = _assert_prefixes_match(dag, data, [config], (12, 100))
        assert isinstance(got[0], RankDeficient) and isinstance(got[1], FitOutcome)
        with pytest.raises(InsufficientSamples, match="^node 5: method batch_avg: needs at least 7 rows, got 6$"):
            fit_prefixes(dag, data[5:], [config], (12, 95))

    def test_non_finite_row_fails_only_the_sizes_that_hold_it(self):
        # The first size raises nothing of its own, so the error is the
        # second size's, as in a loop of fit_detailed calls.
        dag, data = self._two_parent_data(100)
        data[70, 0] = np.nan
        config = FitConfig(method="cauchy_est_tree")
        with pytest.raises(InvalidParameter, match="^samples contain NaN or infinite values$"):
            fit_prefixes(dag, data, [config], (50, 100))
        _assert_prefixes_match(dag, data, [config], (40, 70))

    @pytest.mark.parametrize("method", METHODS)
    def test_overflowing_coefficient_fails_only_the_sizes_that_overflow(self, method):
        # The first 20 rows hold parents near 1e-200 and a child near
        # 1e200; the 10 coefficient rows of m = 20 hold nothing else. At
        # m = 200 their batches' infinite solutions still sink the mean and
        # cauchy_est (inf times a zero of L is nan, and a median keeps a
        # nan); the other medians and the least-squares solve stay finite.
        dag, data = self._two_parent_data(200)
        data[:20, :2] *= 1e-200
        data[:20, 2] *= 1e200
        (got,) = _assert_prefixes_match(dag, data, [FitConfig(method=method, batch_extra=3)], (20, 200))
        assert type(got[0]) is NumericalError
        assert str(got[0]) == f"node 2: method {method}: coefficient estimate is not finite"
        assert isinstance(got[1], NumericalError if method in ("batch_avg", "cauchy_est") else FitOutcome)

    @pytest.mark.parametrize("sizes", [(), (10, 10), (20, 10), (-1, 10), (10, 101)])
    def test_sizes_must_increase_within_the_rows(self, sizes):
        dag, data = self._two_parent_data(100)
        with pytest.raises(InvalidParameter, match="sizes must be strictly increasing within"):
            fit_prefixes(dag, data, [FitConfig(method="least_squares")], sizes)


class TestErrorBudgetRegime:
    """Statistical checks that the per-node budget predicates hold in the
    sample-size regime they were designed for (polytrees, eps = 0.5)."""

    EPS = 0.5
    N = 50

    def _tree_model(self, seed):
        rng = np.random.default_rng(seed)
        dag = random_tree_dag(self.N, rng)
        truth = random_gbn(dag, (1.0, 2.0), UnitVariances(), rng)
        return rng, dag, truth

    def test_coefficient_budget_holds_with_prescribed_m1(self):
        from gbnlearn.gbn import condition_predicates

        m1 = int(40 * self.N / self.EPS * math.log(self.N))
        hits = 0
        for seed in range(20):
            rng, dag, truth = self._tree_model(seed)
            data = sample(truth, m1, rng)
            coeffs = [
                least_squares_node(data[:, dag.parents[i]], data[:, i])
                if dag.parents[i]
                else np.zeros(0)
                for i in range(self.N)
            ]
            est = GaussianBayesNet(dag, tuple(coeffs), truth.variances)
            c1, _ = condition_predicates(truth, est, self.EPS)
            hits += bool(c1.all())
        assert hits >= 18  # frequency >= 0.9

    def test_variance_bracket_holds_with_prescribed_m2(self):
        from gbnlearn.gbn import condition_predicates

        hits = 0
        for seed in range(20):
            rng, dag, truth = self._tree_model(100 + seed)
            m1 = int(40 * self.N / self.EPS * math.log(self.N))
            m2 = int(32 * self.N * (dag.num_edges / dag.n) / self.EPS * math.log(2 * self.N))
            data = sample(truth, m1 + m2, rng)
            coeffs = [
                least_squares_node(data[:m1, dag.parents[i]], data[:m1, i])
                if dag.parents[i]
                else np.zeros(0)
                for i in range(self.N)
            ]
            variances = variance_recovery(dag, data[m1:], coeffs)
            est = GaussianBayesNet(dag, tuple(coeffs), variances)
            _, c2 = condition_predicates(truth, est, self.EPS)
            hits += bool(c2.all())
        assert hits >= 18
