"""Model construction, sampling, covariance algebra, and KL evaluation.

The closed-form Gaussian KL between joint covariances acts as the
independent oracle for the per-node decomposition throughout.
"""

import math

import numpy as np
import pytest

from gbnlearn import gbn
from gbnlearn.dag import build_dag, random_er_dag, random_tree_dag, remove_random_edges
from gbnlearn.datagen import ContaminationSpec, contaminated_sample
from gbnlearn.errors import (
    DimensionMismatch,
    FileFormatError,
    InvalidIndex,
    InvalidParameter,
    InvalidRange,
    NonPositiveVariance,
    NotPositiveDefinite,
    StructureMismatch,
)
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
        with pytest.raises(NonPositiveVariance):
            GaussianBayesNet(dag, (np.zeros(0),), np.array([0.0]))
        with pytest.raises(NonPositiveVariance):
            GaussianBayesNet(dag, (np.zeros(0),), np.array([-1.0]))

    def test_rejects_misaligned_coeffs(self):
        dag = build_dag(2, [(0, 1)])
        with pytest.raises(DimensionMismatch):
            GaussianBayesNet(dag, (np.zeros(0), np.zeros(0)), np.ones(2))
        with pytest.raises(DimensionMismatch):
            GaussianBayesNet(dag, (np.zeros(0),), np.ones(2))

    def test_rejects_nonfinite_coefficient(self):
        dag = build_dag(2, [(0, 1)])
        with pytest.raises(InvalidParameter):
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
        with pytest.raises(InvalidIndex):
            random_gbn(dag, (1.0, 2.0), IllConditionedVariances((5,), 1e-20), rng)

    @pytest.mark.parametrize("low, high", [(-1.0, 2.0), (0.0, 1.0), (2.0, 1.0)])
    def test_bad_uniform_variance_range_rejected(self, low, high):
        with pytest.raises(InvalidRange):
            UniformVariances(low, high)

    def test_bad_weight_range_rejected(self):
        rng = np.random.default_rng(0)
        dag = build_dag(2, [(0, 1)])
        with pytest.raises(InvalidRange):
            random_gbn(dag, (0.0, 2.0), UnitVariances(), rng)
        with pytest.raises(InvalidRange):
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
        with pytest.raises(InvalidParameter):
            sample(_chain_model(), 0, np.random.default_rng(0))

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
        with pytest.raises(DimensionMismatch):
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
        with pytest.raises(NonPositiveVariance):
            dcp([], 0.0, [], 1.0)
        with pytest.raises(NonPositiveVariance):
            dcp([], 1.0, [], -2.0)
        with pytest.raises(DimensionMismatch):
            dcp([1.0], 1.0, [1.0, 2.0], 1.0, [[1.0]])
        with pytest.raises(DimensionMismatch):
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
        with pytest.raises(DimensionMismatch):
            gaussian_kl(np.eye(2), np.eye(3))


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
        for t, est in ((truth, reversed_edge), (truth3, added_edge), (truth, truth3)):
            with pytest.raises(StructureMismatch):
                kl_divergence(t, est)
            with pytest.raises(StructureMismatch):
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
                for c, d in zip(
                    condition_predicates(truth, estimate, 0.5),
                    condition_predicates(truth, estimate, 0.5, parent_covs=blocks),
                ):
                    assert np.array_equal(c, d)

    def test_parent_covs_length_checked(self):
        truth = _chain_model()
        with pytest.raises(DimensionMismatch):
            kl_divergence(truth, truth, parent_covs=[None])
        with pytest.raises(DimensionMismatch):
            condition_predicates(truth, truth, 0.5, parent_covs=[None])


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
        with pytest.raises(InvalidParameter):
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
