"""Graph construction, validation, generators, and file round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbnlearn.dag import (
    Dag,
    build_dag,
    is_polytree,
    random_er_dag,
    random_tree_dag,
    read_dag_file,
    remove_random_edges,
    write_dag_file,
)
from gbnlearn.errors import FileFormatError, InvalidParameter


def _assert_linear_extension(dag: Dag) -> None:
    position = {node: k for k, node in enumerate(dag.order)}
    assert sorted(dag.order) == list(range(dag.n))
    for j, i in dag.edges():
        assert position[j] < position[i]


class TestBuildDag:
    def test_single_node(self):
        dag = build_dag(1, [])
        assert dag.n == 1
        assert dag.parents == ((),)
        assert dag.num_edges == 0

    def test_two_parents(self):
        dag = build_dag(3, [(0, 2), (1, 2)])
        assert dag.parents == ((), (), (0, 1))
        assert dag.num_edges / dag.n == pytest.approx(2 / 3)

    def test_parents_sorted_regardless_of_edge_order(self):
        dag = build_dag(3, [(1, 2), (0, 2)])
        assert dag.parents[2] == (0, 1)

    def test_cycle_rejected(self):
        with pytest.raises(InvalidParameter, match="edge set contains a directed cycle"):
            build_dag(2, [(0, 1), (1, 0)])
        with pytest.raises(InvalidParameter, match="edge set contains a directed cycle"):
            build_dag(3, [(0, 1), (1, 2), (2, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidParameter, match="self loop at node 1"):
            build_dag(2, [(1, 1)])

    def test_out_of_range_index_rejected(self):
        with pytest.raises(InvalidParameter, match=r"edge \(0, 2\) outside \[0, 2\)"):
            build_dag(2, [(0, 2)])
        with pytest.raises(InvalidParameter, match=r"edge \(-1, 0\) outside \[0, 2\)"):
            build_dag(2, [(-1, 0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InvalidParameter, match=r"edge \(0, 1\) listed twice"):
            build_dag(3, [(0, 1), (0, 1)])

    def test_bad_node_count_rejected(self):
        with pytest.raises(InvalidParameter, match="node count must be a positive integer, got 0"):
            build_dag(0, [])
        with pytest.raises(InvalidParameter, match="node count must be a positive integer, got True"):
            build_dag(True, [])

    @pytest.mark.parametrize("int_type", [np.int64, np.int32, np.uint8])
    def test_numpy_integer_node_count(self, int_type):
        dag = build_dag(int_type(4), [(0, 3), (1, 3)])
        assert dag == build_dag(4, [(0, 3), (1, 3)])
        assert type(dag.n) is int

    def test_edges_lexicographic(self):
        dag = build_dag(4, [(2, 3), (0, 3), (0, 1)])
        assert dag.edges() == [(0, 1), (0, 3), (2, 3)]


class TestTopologicalOrder:
    def test_chain(self):
        dag = build_dag(3, [(0, 1), (1, 2)])
        assert dag.order == (0, 1, 2)

    def test_ties_break_toward_smaller_index(self):
        # Only edge is 2 -> 0, so 1 and 2 are both sources; 1 comes first.
        dag = build_dag(3, [(2, 0)])
        assert dag.order == (1, 2, 0)

    def test_empty_graph_is_identity_order(self):
        dag = build_dag(4, [])
        assert dag.order == (0, 1, 2, 3)

    def test_random_graphs_yield_linear_extensions(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            _assert_linear_extension(random_er_dag(30, 4, rng))


class TestIsPolytree:
    def test_star_is_polytree(self):
        dag = build_dag(4, [(0, 1), (0, 2), (0, 3)])
        assert is_polytree(dag)

    def test_collider_is_still_polytree(self):
        dag = build_dag(3, [(0, 2), (1, 2)])
        assert is_polytree(dag)

    def test_diamond_is_not(self):
        dag = build_dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert not is_polytree(dag)

    def test_edgeless_graph_is_polytree(self):
        assert is_polytree(build_dag(5, []))


class TestRandomTree:
    def test_two_nodes(self):
        rng = np.random.default_rng(0)
        dag = random_tree_dag(2, rng)
        assert dag.edges() == [(0, 1)]
        # The empty Prufer sequence draws nothing from the stream.
        assert rng.integers(0, 2**62) == np.random.default_rng(0).integers(0, 2**62)

    def test_too_small(self):
        with pytest.raises(InvalidParameter, match="a tree needs at least 2 nodes, got 1"):
            random_tree_dag(1, np.random.default_rng(0))
        with pytest.raises(InvalidParameter, match="a tree needs at least 2 nodes, got True"):
            random_tree_dag(True, np.random.default_rng(0))

    @pytest.mark.parametrize("int_type", [np.int64, np.int32, np.uint8])
    def test_numpy_integer_node_count(self, int_type):
        dag = random_tree_dag(int_type(12), np.random.default_rng(4))
        assert dag == random_tree_dag(12, np.random.default_rng(4))
        assert type(dag.n) is int

    def test_is_polytree_with_n_minus_one_edges(self):
        for seed in range(20):
            dag = random_tree_dag(50, np.random.default_rng(seed))
            assert dag.num_edges == 49
            assert is_polytree(dag)
            assert all(len(pa) == 1 for pa in dag.parents[1:])
            assert dag.parents[0] == ()  # rooted at node 0
            _assert_linear_extension(dag)

    def test_deterministic_given_seed(self):
        a = random_tree_dag(40, np.random.default_rng(123))
        b = random_tree_dag(40, np.random.default_rng(123))
        assert a == b

    def test_different_seeds_differ(self):
        a = random_tree_dag(40, np.random.default_rng(1))
        b = random_tree_dag(40, np.random.default_rng(2))
        assert a != b


class TestRandomEr:
    def test_parameter_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidParameter, match="degree parameter must satisfy 0 < d <= n, got 0"):
            random_er_dag(10, 0, rng)
        with pytest.raises(InvalidParameter, match="degree parameter must satisfy 0 < d <= n, got 11"):
            random_er_dag(10, 11, rng)
        with pytest.raises(InvalidParameter, match="node count must be a positive integer, got 0"):
            random_er_dag(0, 1, rng)
        with pytest.raises(InvalidParameter, match="node count must be a positive integer, got True"):
            random_er_dag(True, 1, rng)

    @pytest.mark.parametrize("int_type", [np.int64, np.int32, np.uint8])
    def test_numpy_integer_node_count(self, int_type):
        dag = random_er_dag(int_type(12), 3.0, np.random.default_rng(4))
        assert dag == random_er_dag(12, 3.0, np.random.default_rng(4))
        assert type(dag.n) is int

    def test_full_degree_gives_complete_dag(self):
        dag = random_er_dag(6, 6, np.random.default_rng(0))
        assert dag.num_edges == 15

    def test_deterministic_given_seed(self):
        a = random_er_dag(50, 4, np.random.default_rng(9))
        b = random_er_dag(50, 4, np.random.default_rng(9))
        assert a == b

    def test_acyclic_low_to_high_orientation(self):
        dag = random_er_dag(30, 5, np.random.default_rng(3))
        for j, i in dag.edges():
            assert j < i
        _assert_linear_extension(dag)

    def test_expected_edge_count(self):
        # n=100, d=5: each of the 4950 pairs is kept with probability
        # 0.05, so the expected edge count is 247.5.
        counts = [
            random_er_dag(100, 5, np.random.default_rng(seed)).num_edges for seed in range(1000)
        ]
        mean = float(np.mean(counts))
        assert abs(mean - 247.5) <= 0.05 * 247.5


class TestRemoveRandomEdges:
    def test_zero_is_identity(self):
        dag = random_tree_dag(20, np.random.default_rng(0))
        assert remove_random_edges(dag, 0, np.random.default_rng(1)) == dag

    def test_chain_loses_both_edges(self):
        dag = build_dag(3, [(0, 1), (1, 2)])
        out = remove_random_edges(dag, 2, np.random.default_rng(0))
        assert out.num_edges == 0

    def test_tree_minus_four(self):
        dag = random_tree_dag(100, np.random.default_rng(5))
        out = remove_random_edges(dag, 4, np.random.default_rng(6))
        assert out.num_edges == 95
        assert set(out.edges()) < set(dag.edges())
        _assert_linear_extension(out)

    def test_too_many(self):
        dag = build_dag(3, [(0, 1)])
        with pytest.raises(InvalidParameter, match="graph has 1 edges, cannot remove 2"):
            remove_random_edges(dag, 2, np.random.default_rng(0))

    def test_negative_rejected(self):
        dag = build_dag(3, [(0, 1)])
        with pytest.raises(InvalidParameter, match="cannot remove -1 edges"):
            remove_random_edges(dag, -1, np.random.default_rng(0))

    @pytest.mark.parametrize("k", [True, 1.0])
    def test_non_integer_count_rejected(self, k):
        dag = build_dag(3, [(0, 1)])
        with pytest.raises(InvalidParameter, match=f"cannot remove {k} edges"):
            remove_random_edges(dag, k, np.random.default_rng(0))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_round_trip_through_edge_list(data):
    n = data.draw(st.integers(min_value=1, max_value=12))
    pairs = [(j, i) for i in range(n) for j in range(i)]
    chosen = data.draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)) if pairs else st.just(set()))
    dag = build_dag(n, sorted(chosen))
    assert build_dag(n, dag.edges()) == dag


class TestDagFile:
    def test_round_trip(self, tmp_path):
        dag = random_er_dag(25, 4, np.random.default_rng(11))
        path = tmp_path / "dag.txt"
        write_dag_file(dag, path)
        assert read_dag_file(path) == dag

    def test_format(self, tmp_path):
        dag = build_dag(3, [(1, 2), (0, 2)])
        path = tmp_path / "dag.txt"
        write_dag_file(dag, path)
        assert path.read_text() == "3\n0 2\n1 2\n"

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not-a-number\n")
        with pytest.raises(FileFormatError):
            read_dag_file(path)
        path.write_text("2\n0 1 extra\n")
        with pytest.raises(FileFormatError):
            read_dag_file(path)
        path.write_text("")
        with pytest.raises(FileFormatError):
            read_dag_file(path)

    def test_cycle_in_file_reported_as_format_error(self, tmp_path):
        path = tmp_path / "cyc.txt"
        path.write_text("2\n0 1\n1 0\n")
        with pytest.raises(FileFormatError):
            read_dag_file(path)
