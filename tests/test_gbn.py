"""Model construction, sampling, covariance algebra, and KL evaluation.

The closed-form Gaussian KL between joint covariances acts as the
independent oracle for the per-node decomposition throughout.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from gbnlearn import gbn
from gbnlearn.dag import build_dag, random_er_dag, random_tree_dag, remove_random_edges
from gbnlearn.datagen import ContaminationSpec, contaminated_sample
from gbnlearn.errors import FileFormatError, InvalidParameter, NotPositiveDefinite
from gbnlearn.gbn import (
    GaussianBayesNet,
    IllConditionedVariances,
    UniformVariances,
    UnitVariances,
    condition_predicates,
    covariance,
    dcp,
    gaussian_kl,
    kl_divergence,
    load_model,
    load_samples,
    parent_covariances,
    random_gbn,
    sample,
    save_model,
    save_samples,
    tv_upper,
)

LN2 = math.log(2.0)


def _chain_model(a=2.0, var0=1.0, var1=1.0):
    dag = build_dag(2, [(0, 1)])
    return GaussianBayesNet(dag, (np.zeros(0), np.array([a])), np.array([var0, var1]))


def _random_pair(rng, n_max=10, d_max=4):
    n = int(rng.integers(2, n_max + 1))
    d = min(float(rng.integers(1, d_max + 1)), n)
    dag = random_er_dag(n, d, rng)
    truth = random_gbn(dag, (1.0, 2.0), UniformVariances(0.5, 2.0), rng)
    estimate = random_gbn(dag, (0.5, 1.5), UniformVariances(0.5, 2.0), rng)
    return truth, estimate


class TestModelConstruction:
    def test_rejects_nonpositive_variance(self):
        dag = build_dag(1, [])
        with pytest.raises(InvalidParameter, match="noise variances must be finite and > 0"):
            GaussianBayesNet(dag, (np.zeros(0),), np.array([0.0]))
        with pytest.raises(InvalidParameter, match="noise variances must be finite and > 0"):
            GaussianBayesNet(dag, (np.zeros(0),), np.array([-1.0]))

    def test_rejects_misaligned_coeffs(self):
        dag = build_dag(2, [(0, 1)])
        with pytest.raises(InvalidParameter, match=r"node 1: expected 1 coefficients, got shape \(0,\)"):
            GaussianBayesNet(dag, (np.zeros(0), np.zeros(0)), np.ones(2))
        with pytest.raises(InvalidParameter, match="expected 2 coefficient vectors, got 1"):
            GaussianBayesNet(dag, (np.zeros(0),), np.ones(2))

    def test_rejects_nonfinite_coefficient(self):
        dag = build_dag(2, [(0, 1)])
        with pytest.raises(InvalidParameter, match="node 1: coefficients must be finite"):
            GaussianBayesNet(dag, (np.zeros(0), np.array([np.inf])), np.ones(2))


class TestRandomGbn:
    def test_magnitudes_in_range_signs_mixed(self):
        rng = np.random.default_rng(0)
        dag = random_er_dag(60, 5, rng)
        model = random_gbn(dag, (1.0, 2.0), UnitVariances(), rng)
        mags = np.concatenate([np.abs(c) for c in model.coeffs if c.size])
        assert np.all((mags >= 1.0) & (mags < 2.0))
        signs = np.concatenate([np.sign(c) for c in model.coeffs if c.size])
        assert (signs > 0).any() and (signs < 0).any()
        assert np.all(model.variances == 1.0)

    def test_uniform_variances(self):
        rng = np.random.default_rng(1)
        dag = build_dag(5, [])
        model = random_gbn(dag, (1.0, 2.0), UniformVariances(0.5, 2.0), rng)
        assert np.all((model.variances >= 0.5) & (model.variances < 2.0))

    def test_ill_conditioned_variance_assignment(self):
        rng = np.random.default_rng(2)
        dag = build_dag(5, [])
        model = random_gbn(dag, (1.0, 2.0), IllConditionedVariances((1, 3), 1e-20), rng)
        assert model.variances[1] == 1e-20
        assert model.variances[3] == 1e-20
        assert model.variances[0] == 1.0

    def test_ill_conditioned_bad_node_rejected(self):
        rng = np.random.default_rng(2)
        dag = build_dag(3, [])
        with pytest.raises(InvalidParameter, match=r"ill-conditioned node 5 outside \[0, 3\)"):
            random_gbn(dag, (1.0, 2.0), IllConditionedVariances((5,), 1e-20), rng)

    @pytest.mark.parametrize("low, high", [(-1.0, 2.0), (0.0, 1.0), (2.0, 1.0)])
    def test_bad_uniform_variance_range_rejected(self, low, high):
        message = f"variance range must satisfy 0 < low <= high < inf, got UniformVariances(low={low}, high={high})"
        with pytest.raises(InvalidParameter, match=re.escape(message)):
            UniformVariances(low, high)

    def test_bad_weight_range_rejected(self):
        rng = np.random.default_rng(0)
        dag = build_dag(2, [(0, 1)])
        with pytest.raises(InvalidParameter, match=r"weight magnitude range must satisfy 0 < lo < hi < inf, got \(0\.0, 2\.0\)"):
            random_gbn(dag, (0.0, 2.0), UnitVariances(), rng)
        with pytest.raises(InvalidParameter, match=r"weight magnitude range must satisfy 0 < lo < hi < inf, got \(2\.0, 1\.0\)"):
            random_gbn(dag, (2.0, 1.0), UnitVariances(), rng)

    def test_deterministic_given_seed(self):
        dag = random_tree_dag(20, np.random.default_rng(5))
        a = random_gbn(dag, (1.0, 2.0), UniformVariances(0.5, 2.0), np.random.default_rng(42))
        b = random_gbn(dag, (1.0, 2.0), UniformVariances(0.5, 2.0), np.random.default_rng(42))
        for ca, cb in zip(a.coeffs, b.coeffs):
            assert np.array_equal(ca, cb)
        assert np.array_equal(a.variances, b.variances)


class TestSampling:
    def test_shape_and_determinism(self):
        model = _chain_model()
        x1 = sample(model, 100, np.random.default_rng(3))
        x2 = sample(model, 100, np.random.default_rng(3))
        assert x1.shape == (100, 2)
        assert np.array_equal(x1, x2)

    def test_bad_count(self):
        with pytest.raises(InvalidParameter, match="sample count must be a positive integer, got 0"):
            sample(_chain_model(), 0, np.random.default_rng(0))
        with pytest.raises(InvalidParameter, match="sample count must be a positive integer, got True"):
            sample(_chain_model(), True, np.random.default_rng(0))

    @pytest.mark.parametrize("int_type", [np.int64, np.int32, np.uint8])
    def test_numpy_integer_count_draws_the_same_bits(self, int_type):
        x = sample(_chain_model(), int_type(5), np.random.default_rng(3))
        assert np.array_equal(x, sample(_chain_model(), 5, np.random.default_rng(3)))

    def test_column_major_layout(self):
        # Each node's column is contiguous, clean and contaminated alike.
        rng = np.random.default_rng(9)
        model = random_gbn(random_er_dag(12, 3, rng), (1.0, 2.0), UnitVariances(), rng)
        spec = ContaminationSpec(sample_fraction=0.1, node_count=3)
        dirty = contaminated_sample(model, 50, spec, rng, np.random.default_rng(5))
        for x in (sample(model, 50, rng), dirty):
            assert x.shape == (50, 12)
            assert x.flags["F_CONTIGUOUS"]

    def test_near_degenerate_noise_gives_near_zero_samples(self):
        dag = build_dag(1, [])
        model = GaussianBayesNet(dag, (np.zeros(0),), np.array([1e-30]))
        x = sample(model, 1000, np.random.default_rng(0))
        assert np.max(np.abs(x)) <= 1e-14

    def test_chain_child_variance(self):
        # X1 = 2 X0 + eta with unit noises, so Var(X1) = 5.
        x = sample(_chain_model(), 1_000_000, np.random.default_rng(8))
        assert abs(float(np.mean(x[:, 1] ** 2)) - 5.0) <= 0.05

    def test_empirical_covariance_converges(self):
        # Loose Frobenius envelope 10 n / sqrt(m) for unit-noise models
        # with small weights, checked in median over seeds.
        errs = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            dag = random_er_dag(20, 2, rng)
            model = random_gbn(dag, (0.1, 0.3), UnitVariances(), rng)
            x = sample(model, 4000, rng)
            emp = x.T @ x / len(x)
            errs.append(float(np.linalg.norm(emp - covariance(model))))
        assert float(np.median(errs)) <= 10 * 20 / math.sqrt(4000)


class TestCovariance:
    def test_independent_nodes_diagonal(self):
        dag = build_dag(3, [])
        model = GaussianBayesNet(dag, (np.zeros(0),) * 3, np.array([1.0, 2.0, 3.0]))
        assert np.allclose(covariance(model), np.diag([1.0, 2.0, 3.0]))

    def test_chain_exact(self):
        assert np.allclose(covariance(_chain_model()), [[1.0, 2.0], [2.0, 5.0]], atol=1e-15)

    def test_always_positive_definite(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            truth, _ = _random_pair(rng)
            np.linalg.cholesky(covariance(truth))  # raises if not PD

    @staticmethod
    def _inverse_oracle(model):
        # inv(I - B) D inv(I - B)^T in node coordinates, B[i, j] = a[i<-j].
        n = model.dag.n
        b = np.zeros((n, n))
        for i, (pa, a) in enumerate(zip(model.dag.parents, model.coeffs)):
            b[i, list(pa)] = a
        linv = np.linalg.inv(np.eye(n) - b)
        return linv @ np.diag(model.variances) @ linv.T

    def test_matches_inverse_oracle(self):
        # 24 models: ER and tree graphs, n <= 60, unit, uniform and
        # ill-conditioned (sigma2 = 1e-20) variances. A tiny variance on a
        # node with parents makes the matrix singular to working precision,
        # so Cholesky is asserted where the tiny variances sit on roots.
        rng = np.random.default_rng(47)
        for case in range(24):
            n = int(rng.integers(2, 61))
            if case % 2:
                dag = random_er_dag(n, min(float(rng.integers(1, 6)), n - 1), rng)
            else:
                dag = random_tree_dag(n, rng)
            roots = tuple(i for i in range(n) if not dag.parents[i])
            anywhere = tuple(int(v) for v in rng.choice(n, size=max(1, n // 5), replace=False))
            spec, factors = [
                (UnitVariances(), True),
                (UniformVariances(0.1, 3.0), True),
                (IllConditionedVariances(roots, 1e-20), True),
                (IllConditionedVariances(anywhere, 1e-20), False),
            ][(case // 2) % 4]
            model = random_gbn(dag, (0.5, 2.0), spec, rng)
            cov = covariance(model)
            oracle = self._inverse_oracle(model)
            assert np.max(np.abs(cov - oracle)) <= 1e-12 * np.max(np.abs(oracle)), case
            assert np.array_equal(cov, cov.T), case
            if factors:
                np.linalg.cholesky(cov)  # raises if not PD

    @staticmethod
    def _two_buffer_build(model):
        # The covariance as it was built before the single buffer: in
        # topological coordinates first, then permuted into node order.
        dag = model.dag
        n = dag.n
        pos = np.empty(n, dtype=int)
        pos[list(dag.order)] = np.arange(n)
        s_topo = np.empty((n, n))
        for k, node in enumerate(dag.order):
            pa = pos[list(dag.parents[node])]
            a = model.coeffs[node]
            row = a @ s_topo[pa, :k]
            s_topo[k, :k] = row
            s_topo[:k, k] = row
            s_topo[k, k] = row[pa] @ a + model.variances[node]
        out = np.empty((n, n))
        out[np.ix_(dag.order, dag.order)] = s_topo
        return out

    @staticmethod
    def _model(graph, n, rng):
        if graph == "tree":
            dag = random_tree_dag(n, rng)
        else:
            er = random_er_dag(n, 5.0, rng)
            label = rng.permutation(n) if graph == "permuted_er" else np.arange(n)
            dag = build_dag(n, [(int(label[j]), int(label[i])) for i in range(n) for j in er.parents[i]])
        return random_gbn(dag, (0.5, 2.0), UniformVariances(0.5, 2.0), rng)

    @pytest.mark.parametrize("graph", ["tree", "er", "permuted_er"])
    def test_single_buffer_matches_two_buffer_build(self, graph):
        model = self._model(graph, 300, np.random.default_rng(71))
        assert (list(model.dag.order) == list(range(300))) == (graph == "er")
        assert covariance(model).tobytes() == self._two_buffer_build(model).tobytes()

    @pytest.mark.parametrize("graph", ["tree", "permuted_er"])
    def test_allocates_one_n_by_n_buffer(self, graph):
        # numpy reports its buffers to tracemalloc, so the peak is
        # deterministic: the result plus a few rows, not a second n x n.
        n = 300
        model = self._model(graph, n, np.random.default_rng(72))
        tracemalloc.start()
        try:
            covariance(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * n * n * 8

    def test_parent_covariance_chain(self):
        dag = build_dag(3, [(0, 1), (0, 2), (1, 2)])
        model = GaussianBayesNet(
            dag, (np.zeros(0), np.array([2.0]), np.array([1.0, 1.0])), np.ones(3)
        )
        blocks = parent_covariances(dag, covariance(model))
        assert len(blocks) == 3
        assert np.allclose(blocks[1], [[1.0]], atol=1e-15)
        assert np.allclose(blocks[2], [[1.0, 2.0], [2.0, 5.0]], atol=1e-15)

    def test_parent_covariances_root_is_none(self):
        model = _chain_model()
        assert parent_covariances(model.dag, covariance(model))[0] is None

    def test_parent_covariances_shape_checked(self):
        model = _chain_model()
        with pytest.raises(InvalidParameter, match=r"expected a 2x2 covariance, got shape \(3, 3\)"):
            parent_covariances(model.dag, np.eye(3))

    def test_parent_covariances_are_blocks_of_the_covariance(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            truth, _ = _random_pair(rng)
            cov = covariance(truth)
            for pa, block in zip(truth.dag.parents, parent_covariances(truth.dag, cov)):
                if pa:
                    assert np.array_equal(block, cov[np.ix_(pa, pa)])
                else:
                    assert block is None


class TestDcp:
    def test_identical_parameters_zero(self):
        assert dcp([1.0], 1.0, [1.0], 1.0, [[3.0]]) == 0.0

    def test_variance_only_matches_univariate_kl(self):
        # KL(N(0,1) || N(0,4)) = ln 2 - 3/8.
        assert dcp([], 1.0, [], 4.0) == pytest.approx(LN2 - 0.375, abs=1e-15)

    def test_coefficient_term(self):
        # Unit variances, delta = 0.1, parent variance 1: quad / 2 = 0.005.
        assert dcp([1.0], 1.0, [1.1], 1.0, [[1.0]]) == pytest.approx(0.005, rel=1e-12)

    def test_errors(self):
        with pytest.raises(InvalidParameter, match="dcp needs strictly positive variances"):
            dcp([], 0.0, [], 1.0)
        with pytest.raises(InvalidParameter, match="dcp needs strictly positive variances"):
            dcp([], 1.0, [], -2.0)
        with pytest.raises(InvalidParameter, match=r"coefficient shapes differ: \(1,\) vs \(2,\)"):
            dcp([1.0], 1.0, [1.0, 2.0], 1.0, [[1.0]])
        with pytest.raises(InvalidParameter, match=r"parent covariance must be 2x2, got \(1, 1\)"):
            dcp([1.0, 2.0], 1.0, [1.0, 2.0], 1.0, [[1.0]])

    def test_nonnegative_on_random_parameters(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            p = int(rng.integers(0, 4))
            a = rng.normal(size=p)
            ahat = a + rng.normal(scale=0.5, size=p)
            base = rng.normal(size=(p + 1, p))
            m = base.T @ base + 0.1 * np.eye(p) if p else None
            val = dcp(a, float(rng.uniform(0.1, 3.0)), ahat, float(rng.uniform(0.1, 3.0)), m)
            assert val >= -1e-12


class TestGaussianKl:
    def test_identical_is_zero(self):
        s = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert gaussian_kl(s, s) == pytest.approx(0.0, abs=1e-14)

    def test_univariate_example(self):
        assert gaussian_kl(np.array([[1.0]]), np.array([[4.0]])) == pytest.approx(
            LN2 - 0.375, abs=1e-15
        )

    def test_identity_vs_double_identity(self):
        kl = gaussian_kl(np.eye(2), 2.0 * np.eye(2))
        assert kl == pytest.approx(LN2 - 0.5, abs=1e-15)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            gaussian_kl(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2))  # indefinite
        with pytest.raises(NotPositiveDefinite):
            gaussian_kl(np.eye(2), np.zeros((2, 2)))

    def test_asymmetric_input_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            gaussian_kl(np.array([[1.0, 0.9], [0.2, 1.0]]), np.eye(2))

    def test_shape_mismatch(self):
        with pytest.raises(InvalidParameter, match=r"need two square matrices of equal size, got \(2, 2\) and \(3, 3\)"):
            gaussian_kl(np.eye(2), np.eye(3))

    def test_matches_two_triangular_solve_form(self):
        # The trace as ||Lq^-1 Lp||_F^2 from one solve agrees with
        # tr(Lq^-1 sigma_p Lq^-T) from two triangular solves to 1e-12.
        rng = np.random.default_rng(73)
        for _ in range(60):
            n = int(rng.integers(1, 51))
            a, b = rng.normal(size=(2, n, n))
            p, q = a @ a.T / n + np.eye(n), b @ b.T / n + np.eye(n)
            lp, lq = np.linalg.cholesky(p), np.linalg.cholesky(q)
            half = scipy.linalg.solve_triangular(lq, p, lower=True)
            trace = np.trace(scipy.linalg.solve_triangular(lq, half.T, lower=True))
            logdet_ratio = 2.0 * (np.sum(np.log(np.diag(lq))) - np.sum(np.log(np.diag(lp))))
            expected = 0.5 * (trace - n + logdet_ratio)
            assert gaussian_kl(p, q) == pytest.approx(expected, rel=1e-12, abs=0.0), n


class TestKlDivergence:
    def test_self_comparison_is_zero(self):
        rng = np.random.default_rng(6)
        truth, _ = _random_pair(rng)
        report = kl_divergence(truth, truth)
        assert np.all(report.per_node_dcp == 0.0)
        assert report.kl_total == 0.0
        assert report.tv_upper == 0.0

    def test_total_is_sum_of_terms(self):
        rng = np.random.default_rng(7)
        truth, estimate = _random_pair(rng)
        report = kl_divergence(truth, estimate)
        assert report.kl_total == pytest.approx(float(np.sum(report.per_node_dcp)), abs=1e-12)
        assert report.kl_total >= -1e-12

    def test_negative_terms_are_summed_not_clamped(self, monkeypatch):
        # Every term is a KL of conditionals, so a negative total is a
        # fault, and the report must show it rather than round it away.
        monkeypatch.setattr(gbn, "dcp", lambda *args: -1.0)
        truth = _chain_model()
        report = kl_divergence(truth, truth)
        assert list(report.per_node_dcp) == [-1.0, -1.0]
        assert report.kl_total == -2.0
        assert report.tv_upper == 0.0

    def test_matches_joint_covariance_oracle(self):
        # Pairs on the same DAG, then estimates on a sub-DAG of the truth's.
        rng = np.random.default_rng(12)
        for sub_dag in (False, True):
            for _ in range(100):
                truth, estimate = _random_pair(rng)
                if sub_dag:
                    k = int(rng.integers(0, truth.dag.num_edges + 1))
                    fit_dag = remove_random_edges(truth.dag, k, rng)
                    estimate = random_gbn(fit_dag, (0.5, 1.5), UniformVariances(0.5, 2.0), rng)
                report = kl_divergence(truth, estimate)
                oracle = gaussian_kl(covariance(truth), covariance(estimate))
                assert report.kl_total == pytest.approx(oracle, rel=1e-8, abs=1e-10)
                assert report.per_node_dcp.min() >= -1e-12

    def test_single_perturbed_coefficient(self):
        # With variances untouched, the KL is delta^2 Var(parent) / 2.
        truth = _chain_model(a=2.0)
        delta = 0.25
        est = GaussianBayesNet(truth.dag, (np.zeros(0), np.array([2.0 + delta])), np.ones(2))
        report = kl_divergence(truth, est)
        assert report.kl_total == pytest.approx(delta**2 / 2.0, rel=1e-12)

    def test_tv_upper_clamped_to_one(self):
        truth = _chain_model(var1=1.0)
        est = GaussianBayesNet(truth.dag, truth.coeffs, np.array([1.0, 1e6]))
        report = kl_divergence(truth, est)
        assert report.tv_upper == 1.0

    def test_tv_upper_formula(self):
        rng = np.random.default_rng(13)
        truth, estimate = _random_pair(rng)
        report = kl_divergence(truth, estimate)
        assert report.tv_upper == pytest.approx(
            min(1.0, math.sqrt(max(report.kl_total, 0.0) / 2.0)), abs=1e-15
        )
        assert report.tv_upper == tv_upper(report.kl_total)
        assert tv_upper(0.5) == 0.5 and tv_upper(-1e-12) == 0.0 and tv_upper(50.0) == 1.0

    def test_structure_mismatch(self):
        # Estimate edges the truth lacks (reversed, or added on top), and a
        # different node count.
        truth = _chain_model()
        truth3 = GaussianBayesNet(build_dag(3, [(0, 1)]), (np.zeros(0), np.array([2.0]), np.zeros(0)), np.ones(3))
        reversed_edge = GaussianBayesNet(build_dag(2, [(1, 0)]), (np.array([0.5]), np.zeros(0)), np.ones(2))
        added_edge = GaussianBayesNet(
            build_dag(3, [(0, 1), (1, 2)]), (np.zeros(0), np.array([2.0]), np.array([1.0])), np.ones(3)
        )
        cases = (
            (truth, reversed_edge, r"estimate edges \[\(1, 0\)\] are not in the true DAG"),
            (truth3, added_edge, r"estimate edges \[\(1, 2\)\] are not in the true DAG"),
            (truth, truth3, "models have 2 and 3 nodes"),
        )
        for t, est, message in cases:
            with pytest.raises(InvalidParameter, match=message):
                kl_divergence(t, est)
            with pytest.raises(InvalidParameter, match=message):
                condition_predicates(t, est, eps=0.5)

    def test_sub_dag_estimate_drops_coefficients_to_zero(self):
        # Empty estimate DAG under the chain: node 1's term is a^2 Var(X_0) / 2.
        truth = _chain_model(a=2.0)
        est = GaussianBayesNet(build_dag(2, []), (np.zeros(0), np.zeros(0)), np.ones(2))
        report = kl_divergence(truth, est)
        assert report.per_node_dcp.tolist() == [0.0, 2.0]
        assert not bool(condition_predicates(truth, est, 0.5)[0][1])

    def test_precomputed_parent_covs_give_identical_report(self):
        rng = np.random.default_rng(15)
        for sub_dag in (False, True):
            for _ in range(20):
                truth, estimate = _random_pair(rng)
                if sub_dag:
                    fit_dag = remove_random_edges(truth.dag, int(rng.integers(0, truth.dag.num_edges + 1)), rng)
                    estimate = random_gbn(fit_dag, (0.5, 1.5), UniformVariances(0.5, 2.0), rng)
                blocks = parent_covariances(truth.dag, covariance(truth))
                a = kl_divergence(truth, estimate)
                b = kl_divergence(truth, estimate, parent_covs=blocks)
                assert np.array_equal(a.per_node_dcp, b.per_node_dcp)
                assert a.kl_total == b.kl_total and a.tv_upper == b.tv_upper

    def test_parent_covs_length_checked(self):
        truth = _chain_model()
        with pytest.raises(InvalidParameter, match="expected 2 parent covariance blocks, got 1"):
            kl_divergence(truth, truth, parent_covs=[None])


class TestConditionPredicates:
    def test_exact_estimate_satisfies_both(self):
        rng = np.random.default_rng(14)
        truth, _ = _random_pair(rng)
        c1, c2 = condition_predicates(truth, truth, eps=0.5)
        assert c1.all() and c2.all()

    def test_coefficient_budget_violation_detected(self):
        truth = _chain_model(a=2.0)
        est = GaussianBayesNet(truth.dag, (np.zeros(0), np.array([3.0])), np.ones(2))
        c1, c2 = condition_predicates(truth, est, eps=0.5)
        assert bool(c1[0])  # parentless node is trivially within budget
        assert not bool(c1[1])  # quad term 1.0 exceeds 1 * 0.5 * 1/1
        assert c2.all()

    def test_variance_bracket_violation_detected(self):
        truth = _chain_model()
        est = GaussianBayesNet(truth.dag, truth.coeffs, np.array([1.0, 4.0]))
        c1, c2 = condition_predicates(truth, est, eps=0.5)
        assert c1.all()
        assert bool(c2[0])
        assert not bool(c2[1])

    def test_root_node_uses_unit_share_for_variance_bracket(self):
        # One edge: share for the root's bracket is eps * 1 / 1 = eps.
        truth = _chain_model()
        inside = GaussianBayesNet(truth.dag, truth.coeffs, np.array([1.2, 1.0]))
        _, c2 = condition_predicates(truth, inside, eps=0.5)
        assert bool(c2[0])
        outside = GaussianBayesNet(truth.dag, truth.coeffs, np.array([2.0, 1.0]))
        _, c2 = condition_predicates(truth, outside, eps=0.5)
        assert not bool(c2[0])

    def test_bad_eps(self):
        truth = _chain_model()
        with pytest.raises(InvalidParameter, match=r"error budget must be positive, got 0\.0"):
            condition_predicates(truth, truth, eps=0.0)


class TestFileFormats:
    def test_model_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(20)
        dag = random_er_dag(12, 3, rng)
        model = random_gbn(dag, (1.0, 2.0), UniformVariances(0.5, 2.0), rng)
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.dag == model.dag
        assert np.array_equal(loaded.variances, model.variances)
        for a, b in zip(loaded.coeffs, model.coeffs):
            assert np.array_equal(a, b)

    def test_model_file_shape(self, tmp_path):
        model = _chain_model(a=1.5, var1=2.25)
        path = tmp_path / "model.txt"
        save_model(model, path)
        assert path.read_text() == "node 0 sigma2 1\nnode 1 sigma2 2.25\ncoef 1 0 1.5\n"

    def test_model_file_errors(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("node 0 sigma2 1\nnode 2 sigma2 1\n")
        with pytest.raises(FileFormatError):
            load_model(path)
        path.write_text("something else\n")
        with pytest.raises(FileFormatError):
            load_model(path)

    def test_samples_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        data = rng.normal(size=(37, 5))
        path = tmp_path / "samples.csv"
        save_samples(data, path)
        assert np.array_equal(load_samples(path), data)

    def test_single_row_round_trip(self, tmp_path):
        data = np.array([[1.0, -2.5, 3.25]])
        path = tmp_path / "one.csv"
        save_samples(data, path)
        loaded = load_samples(path)
        assert loaded.shape == (1, 3)
        assert np.array_equal(loaded, data)

    def test_samples_nan_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("1.0,nan\n")
        with pytest.raises(FileFormatError):
            load_samples(path)

    @pytest.mark.parametrize("text", ["inf", "-inf"])
    def test_samples_infinite_rejected(self, tmp_path, text):
        path = tmp_path / "inf.csv"
        path.write_text(f"1.0,2.0\n{text},0.5\n")
        with pytest.raises(FileFormatError, match="infinite"):
            load_samples(path)
