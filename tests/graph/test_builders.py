"""Tests for graph constructors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.builders import (
    empty_graph,
    from_adjacency,
    from_edge_array,
    from_edge_list,
)


class TestFromEdgeArray:
    def test_simple(self):
        g = from_edge_array(3, np.array([[0, 1], [1, 2]]))
        assert g.num_edges == 2
        assert list(g.neighbors(0)) == [1]

    def test_default_unit_weights(self):
        g = from_edge_array(3, np.array([[0, 1], [1, 2]]))
        assert np.allclose(g.weights, 1.0)

    def test_explicit_weights(self):
        g = from_edge_array(2, np.array([[0, 1]]), np.array([2.5]))
        assert g.weights[0] == 2.5

    def test_weight_shape_mismatch(self):
        with pytest.raises(GraphError):
            from_edge_array(2, np.array([[0, 1]]), np.array([1.0, 2.0]))

    def test_out_of_range_endpoint(self):
        with pytest.raises(GraphError):
            from_edge_array(2, np.array([[0, 5]]))

    def test_negative_endpoint(self):
        with pytest.raises(GraphError):
            from_edge_array(2, np.array([[-1, 0]]))

    def test_negative_vertex_count(self):
        with pytest.raises(GraphError):
            from_edge_array(-1, np.zeros((0, 2), dtype=np.int64))

    def test_bad_shape(self):
        with pytest.raises(GraphError):
            from_edge_array(3, np.array([[0, 1, 2]]))

    def test_dedupe(self):
        g = from_edge_array(
            2, np.array([[0, 1], [0, 1], [1, 0]]), dedupe=True
        )
        assert g.num_edges == 2

    def test_dedupe_keeps_first_weight(self):
        g = from_edge_array(
            2,
            np.array([[0, 1], [0, 1]]),
            np.array([3.0, 7.0]),
            dedupe=True,
        )
        assert g.edge_weights(0)[0] == 3.0

    def test_drop_self_loops(self):
        g = from_edge_array(
            2, np.array([[0, 0], [0, 1]]), drop_self_loops=True
        )
        assert g.num_edges == 1

    def test_empty_edges(self):
        g = from_edge_array(4, np.zeros((0, 2), dtype=np.int64))
        assert g.num_vertices == 4
        assert g.num_edges == 0

    def test_sorted_adjacency(self):
        g = from_edge_array(4, np.array([[0, 3], [0, 1], [0, 2]]))
        assert list(g.neighbors(0)) == [1, 2, 3]


class TestFromEdgeList:
    def test_two_tuples(self):
        g = from_edge_list(3, [(0, 1), (1, 2)])
        assert g.num_edges == 2

    def test_three_tuples(self):
        g = from_edge_list(2, [(0, 1, 5.0)])
        assert g.weights[0] == 5.0

    def test_mixed_tuples_rejected(self):
        with pytest.raises(GraphError):
            from_edge_list(3, [(0, 1), (1, 2, 3.0)])

    def test_non_integer_endpoints_rejected(self):
        with pytest.raises(GraphError):
            from_edge_list(3, [(0.5, 1, 2.0)])

    def test_empty_list(self):
        g = from_edge_list(3, [])
        assert g.num_edges == 0
        assert g.num_vertices == 3


class TestFromAdjacency:
    def test_basic(self):
        g = from_adjacency([[1, 2], [2], []])
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert sorted(g.neighbors(0)) == [1, 2]

    def test_all_empty(self):
        g = from_adjacency([[], [], []])
        assert g.num_edges == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            from_adjacency([[5]])


class TestEmptyGraph:
    def test_empty(self):
        g = empty_graph(5)
        assert g.num_vertices == 5
        assert g.num_edges == 0

    def test_zero_vertices(self):
        g = empty_graph(0)
        assert g.num_vertices == 0

    def test_negative_rejected(self):
        with pytest.raises(GraphError):
            empty_graph(-1)

