"""Contaminated sampling."""

import numpy as np
import pytest

from gbnlearn.dag import build_dag, random_er_dag, random_tree_dag
from gbnlearn.datagen import (
    ContaminationSpec,
    NoiseLaw,
    choose_contamination_targets,
    contaminated_sample,
)
from gbnlearn.errors import InvalidSpec
from gbnlearn.gbn import GaussianBayesNet, UnitVariances, random_gbn, sample


def _independent_model(n):
    dag = build_dag(n, [])
    return GaussianBayesNet(dag, tuple(np.zeros(0) for _ in range(n)), np.ones(n))


class TestNoiseLaw:
    def test_unknown_kind(self):
        with pytest.raises(InvalidSpec):
            NoiseLaw(kind="uniform")

    def test_nonpositive_scale(self):
        with pytest.raises(InvalidSpec):
            NoiseLaw(scale=0.0)
        with pytest.raises(InvalidSpec):
            NoiseLaw(scale=-1.0)

    def test_gaussian_draw_stats(self):
        law = NoiseLaw(kind="gaussian", location=1000.0, scale=4.0)
        draws = law.draw(np.random.default_rng(0), 200_000)
        assert draws.shape == (200_000,)
        assert abs(draws.mean() - 1000.0) < 0.05
        assert abs(draws.std() - 2.0) < 0.05

    def test_cauchy_draw_median(self):
        law = NoiseLaw(kind="cauchy", location=1000.0, scale=1.0)
        draws = law.draw(np.random.default_rng(1), 200_000)
        assert abs(np.median(draws) - 1000.0) < 0.05


class TestContaminationSpec:
    def test_fraction_out_of_range(self):
        with pytest.raises(InvalidSpec):
            ContaminationSpec(sample_fraction=-0.1).validate(10)
        with pytest.raises(InvalidSpec):
            ContaminationSpec(sample_fraction=1.5).validate(10)

    def test_node_count_out_of_range(self):
        with pytest.raises(InvalidSpec):
            ContaminationSpec(node_count=-1).validate(10)
        with pytest.raises(InvalidSpec):
            ContaminationSpec(node_count=11).validate(10)

    def test_boundary_values_accepted(self):
        ContaminationSpec(sample_fraction=0.0, node_count=0).validate(10)
        ContaminationSpec(sample_fraction=1.0, node_count=10).validate(10)


class TestTargetChoice:
    def test_five_percent_of_thousand_is_exactly_fifty(self):
        spec = ContaminationSpec(sample_fraction=0.05, node_count=5)
        rows, nodes = choose_contamination_targets(spec, 100, 1000, np.random.default_rng(2))
        assert rows.size == 50
        assert nodes.size == 5

    def test_fractional_count_rounds_up(self):
        spec = ContaminationSpec(sample_fraction=0.001, node_count=1)
        rows, _ = choose_contamination_targets(spec, 10, 100, np.random.default_rng(3))
        assert rows.size == 1

    def test_zero_fraction_targets_nothing(self):
        spec = ContaminationSpec(sample_fraction=0.0, node_count=0)
        rows, nodes = choose_contamination_targets(spec, 10, 100, np.random.default_rng(4))
        assert rows.size == 0 and nodes.size == 0

    def test_targets_sorted_unique_in_range(self):
        spec = ContaminationSpec(sample_fraction=0.3, node_count=7)
        rows, nodes = choose_contamination_targets(spec, 20, 50, np.random.default_rng(5))
        for arr, upper in ((rows, 50), (nodes, 20)):
            assert np.array_equal(arr, np.unique(arr))
            assert arr.min() >= 0 and arr.max() < upper

    def test_rows_form_one_contiguous_block(self):
        spec = ContaminationSpec(sample_fraction=0.05, node_count=2)
        starts = set()
        for seed in range(40):
            rows, _ = choose_contamination_targets(spec, 10, 1000, np.random.default_rng(seed))
            assert rows.size == 50
            assert np.array_equal(rows, np.arange(rows[0], rows[0] + 50))
            starts.add(int(rows[0]))
        assert len(starts) > 10  # the block start really varies

    def test_full_fraction_targets_every_row(self):
        spec = ContaminationSpec(sample_fraction=1.0, node_count=3)
        rows, _ = choose_contamination_targets(spec, 3, 25, np.random.default_rng(6))
        assert np.array_equal(rows, np.arange(25))


class TestContaminatedSample:
    def test_deterministic(self):
        rng = np.random.default_rng(7)
        model = random_gbn(random_tree_dag(8, rng), (1.0, 2.0), UnitVariances(), rng)
        spec = ContaminationSpec(sample_fraction=0.1, node_count=3)
        a = contaminated_sample(model, 200, spec, np.random.default_rng(42), np.random.default_rng(11))
        b = contaminated_sample(model, 200, spec, np.random.default_rng(42), np.random.default_rng(11))
        assert np.array_equal(a, b)

    def test_empty_spec_reproduces_clean_matrix_exactly(self):
        rng = np.random.default_rng(8)
        model = random_gbn(random_tree_dag(6, rng), (1.0, 2.0), UnitVariances(), rng)
        spec = ContaminationSpec(sample_fraction=0.0, node_count=0)
        clean = sample(model, 300, np.random.default_rng(9))
        dirty = contaminated_sample(model, 300, spec, np.random.default_rng(9), np.random.default_rng(5))
        assert np.array_equal(clean, dirty)

    def test_untargeted_rows_are_bit_identical_to_clean(self):
        rng = np.random.default_rng(10)
        model = random_gbn(random_er_dag(10, 2.0, rng), (1.0, 2.0), UnitVariances(), rng)
        spec = ContaminationSpec(sample_fraction=0.05, node_count=4)
        clean = sample(model, 400, np.random.default_rng(13))
        dirty = contaminated_sample(model, 400, spec, np.random.default_rng(13), np.random.default_rng(3))
        rows, _ = choose_contamination_targets(spec, 10, 400, np.random.default_rng(3))
        untouched = np.setdiff1d(np.arange(400), rows)
        assert np.array_equal(clean[untouched], dirty[untouched])
        assert not np.array_equal(clean[rows], dirty[rows])

    def test_gaussian_contamination_lands_at_the_law_location(self):
        model = _independent_model(5)
        spec = ContaminationSpec(sample_fraction=0.05, node_count=5)
        dirty = contaminated_sample(model, 1000, spec, np.random.default_rng(14), np.random.default_rng(0))
        rows, nodes = choose_contamination_targets(spec, 5, 1000, np.random.default_rng(0))
        cells = dirty[np.ix_(rows, nodes)]
        assert cells.shape == (50, 5)
        assert abs(cells.mean() - 1000.0) < 0.5

    def test_cauchy_contamination_lands_at_the_law_location(self):
        model = _independent_model(5)
        spec = ContaminationSpec(
            sample_fraction=0.05,
            node_count=5,
            law=NoiseLaw(kind="cauchy", location=1000.0, scale=1.0),
        )
        dirty = contaminated_sample(model, 2000, spec, np.random.default_rng(15), np.random.default_rng(1))
        rows, nodes = choose_contamination_targets(spec, 5, 2000, np.random.default_rng(1))
        assert abs(np.median(dirty[np.ix_(rows, nodes)]) - 1000.0) < 0.5

    def test_corruption_propagates_to_children(self):
        dag = build_dag(2, [(0, 1)])
        model = GaussianBayesNet(dag, (np.zeros(0), np.array([2.0])), np.ones(2))
        # Find a contamination seed whose single contaminated node is the root.
        spec = ContaminationSpec(sample_fraction=0.1, node_count=1)
        for seed in range(50):
            _, nodes = choose_contamination_targets(spec, 2, 100, np.random.default_rng(seed))
            if nodes[0] == 0:
                break
        clean = sample(model, 100, np.random.default_rng(16))
        dirty = contaminated_sample(model, 100, spec, np.random.default_rng(16), np.random.default_rng(seed))
        rows, _ = choose_contamination_targets(spec, 2, 100, np.random.default_rng(seed))
        # The child's noise is untouched, so its shift is exactly the
        # coefficient times the parent's shift.
        shift0 = dirty[rows, 0] - clean[rows, 0]
        shift1 = dirty[rows, 1] - clean[rows, 1]
        np.testing.assert_allclose(shift1, 2.0 * shift0, rtol=1e-9)
        assert np.all(np.abs(shift0) > 100.0)

    def test_spec_validated_against_model_size(self):
        model = _independent_model(3)
        spec = ContaminationSpec(sample_fraction=0.1, node_count=5)
        with pytest.raises(InvalidSpec):
            contaminated_sample(model, 50, spec, np.random.default_rng(17), np.random.default_rng(18))


def _reference_sample(model, m, rng, contamination=None):
    """One pass per node in topological order: draw the noise, overwrite the
    targeted cells, and set ``x[:, i] = x[:, pa] @ c + eta``.

    ``contamination`` is ``(spec, contam_rng)``; the targets are chosen
    from ``contam_rng`` before any law draw.
    """
    dag = model.dag
    x = np.empty((m, dag.n), order="F")
    if contamination is not None:
        spec, contam_rng = contamination
        rows, nodes = choose_contamination_targets(spec, dag.n, m, contam_rng)
    for i in dag.order:
        eta = rng.normal(0.0, np.sqrt(model.variances[i]), size=m)
        if contamination is not None and i in nodes and rows.size:
            eta[rows] = spec.law.draw(contam_rng, rows.size)
        pa = dag.parents[i]
        x[:, i] = x[:, pa] @ model.coeffs[i] + eta if pa else eta
    return x


@pytest.mark.parametrize("graph", ["er", "tree"])
def test_sampling_matches_the_structural_equations_bit_for_bit(graph):
    rng = np.random.default_rng(21)
    dag = random_er_dag(30, 4.0, rng) if graph == "er" else random_tree_dag(30, rng)
    model = random_gbn(dag, (1.0, 2.0), UnitVariances(), rng)
    clean = sample(model, 500, np.random.default_rng(22))
    assert np.array_equal(clean, _reference_sample(model, 500, np.random.default_rng(22)))
    spec = ContaminationSpec(sample_fraction=0.1, node_count=8)
    dirty = contaminated_sample(model, 500, spec, np.random.default_rng(22), np.random.default_rng(23))
    want = _reference_sample(model, 500, np.random.default_rng(22), (spec, np.random.default_rng(23)))
    assert np.array_equal(dirty, want)
