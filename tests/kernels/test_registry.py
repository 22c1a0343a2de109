"""Tests for the kernel registry and cross-kernel conventions."""

from __future__ import annotations

import pytest

from repro.errors import UnknownBenchmarkError
from repro.features.profiles import BENCHMARK_DISPLAY_NAMES, BENCHMARK_PROFILES
from repro.kernels import (
    KERNELS,
    get_kernel,
    kernel_names,
    normalize_benchmark_name,
)


class TestRegistry:
    def test_nine_kernels(self):
        assert len(KERNELS) == 9

    def test_names_match_profiles(self):
        assert set(kernel_names()) == set(BENCHMARK_PROFILES)

    def test_get_kernel_instantiates(self):
        kernel = get_kernel("sssp_bf")
        assert kernel.name == "sssp_bf"

    def test_lookup_normalization(self):
        assert get_kernel("SSSP-BF").name == "sssp_bf"
        assert get_kernel("PageRank_DP").name == "pagerank_dp"

    def test_unknown(self):
        with pytest.raises(UnknownBenchmarkError):
            get_kernel("matmul")
        with pytest.raises(UnknownBenchmarkError):
            normalize_benchmark_name("matmul")


class TestNameNormalization:
    @pytest.mark.parametrize(
        ("alias", "canonical"),
        [
            ("PageRank-DP", "pagerank_dp"),
            ("sssp delta", "sssp_delta"),
            ("SSSP-BF", "sssp_bf"),
            ("Triangle Counting", "triangle_counting"),
            ("BFS", "bfs"),
            ("Connected Components", "connected_components"),
            ("PageRank-D.P.", "pagerank_dp"),
        ],
    )
    def test_aliases_resolve(self, alias, canonical):
        assert normalize_benchmark_name(alias) == canonical
        assert get_kernel(alias).name == canonical

    @pytest.mark.parametrize(
        ("canonical", "display"), sorted(BENCHMARK_DISPLAY_NAMES.items())
    )
    def test_display_names_resolve(self, canonical, display):
        # One resolution serves the kernels, the profiles and the
        # trace-cache key, so every name get_profile takes runs a kernel.
        assert normalize_benchmark_name(display) == canonical
        assert get_kernel(display).name == canonical

    def test_normalization_is_idempotent(self):
        for name in kernel_names():
            assert normalize_benchmark_name(name) == name
            assert normalize_benchmark_name(normalize_benchmark_name(name)) == name

    def test_kernel_names_round_trip_through_get_kernel(self):
        """Every advertised name instantiates a kernel that reports it."""
        assert [get_kernel(name).name for name in kernel_names()] == kernel_names()

    @pytest.mark.parametrize("name", list(KERNELS))
    def test_every_kernel_runs_and_traces(self, name, random_graph):
        result = get_kernel(name).run(random_graph)
        trace = result.trace
        assert trace.benchmark == name
        assert trace.graph_name == random_graph.name
        assert trace.num_iterations >= 1
        for phase in trace.phases:
            assert phase.items >= 0
            assert phase.edges >= 0
            assert phase.max_parallelism >= 1
            assert 0.0 <= phase.work_skew <= 1.0

    @pytest.mark.parametrize("name", list(KERNELS))
    def test_trace_only_shortcut(self, name, random_graph):
        trace = get_kernel(name).trace_only(random_graph)
        assert trace.benchmark == name
