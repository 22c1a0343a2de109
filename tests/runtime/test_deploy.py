"""Tests for workload preparation and deployment."""

from __future__ import annotations

import pytest

from repro.errors import UnknownBenchmarkError, UnknownDatasetError
from repro.kernels.registry import kernel_names
from repro.machine.mvars import default_config
from repro.machine.specs import get_accelerator
from repro.runtime.deploy import prepare_workload, run_workload
from repro.workload.profile import footprint_for


class TestPrepareWorkload:
    def test_basic(self):
        workload = prepare_workload("sssp_bf", "usa-cal")
        assert workload.benchmark == "sssp_bf"
        assert workload.dataset == "usa-cal"
        assert workload.profile.phases

    def test_unknown_benchmark(self):
        with pytest.raises(UnknownBenchmarkError):
            prepare_workload("sorting", "usa-cal")

    def test_unknown_dataset(self):
        with pytest.raises(UnknownDatasetError):
            prepare_workload("sssp_bf", "orkut")

    def test_footprint_is_paper_scale(self):
        """Profiles represent the published graph, not the small proxy."""
        workload = prepare_workload("bfs", "facebook")
        expected = footprint_for(2_900_000, 41_900_000)
        assert workload.profile.footprint_bytes == pytest.approx(expected)

    def test_ivars_from_paper_metadata(self):
        workload = prepare_workload("bfs", "usa-cal")
        assert workload.ivars.i1 == 0.1
        assert workload.ivars.i4 == 0.8

    def test_bvars_from_profiles(self):
        workload = prepare_workload("sssp_bf", "cage14")
        assert workload.bvars.b1 == 1.0

    def test_depth_scaling_for_bellman_ford(self):
        """USA-Cal's 850-hop diameter must inflate BF's total work."""
        road = prepare_workload("sssp_bf", "usa-cal")
        social = prepare_workload("sssp_bf", "facebook")
        road_work_per_edge = road.profile.total_edges / 4_700_000
        social_work_per_edge = social.profile.total_edges / 41_900_000
        assert road_work_per_edge > 5 * social_work_per_edge

    def test_frontier_kernels_not_depth_inflated(self):
        """BFS touches each edge a bounded number of times even on the
        road network."""
        workload = prepare_workload("bfs", "usa-cal")
        assert workload.profile.total_edges < 3 * 4_700_000

    def test_trace_cached_across_calls(self):
        first = prepare_workload("dfs", "cage14")
        second = prepare_workload("dfs", "cage14")
        assert first.profile.total_edges == second.profile.total_edges


class TestTraceCacheVersioning:
    def test_key_embeds_version(self, monkeypatch):
        import repro.runtime.deploy as deploy

        key = deploy.trace_cache_key("bfs", "cage14")
        assert str(deploy._TRACE_VERSION) in key
        monkeypatch.setattr(deploy, "_TRACE_VERSION", deploy._TRACE_VERSION + 1)
        assert deploy.trace_cache_key("bfs", "cage14") != key

    def test_version_bump_invalidates_stale_traces(self, monkeypatch, tmp_path):
        """Bumping _TRACE_VERSION must force a kernel re-run; the same
        version must keep reusing the cached trace."""
        import repro.runtime.deploy as deploy

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        # A version no other test (or the in-memory cache) has used.
        monkeypatch.setattr(deploy, "_TRACE_VERSION", 9001)

        kernel_runs = []
        real_get_kernel = deploy.get_kernel

        def counting_get_kernel(name):
            kernel_runs.append(name)
            return real_get_kernel(name)

        monkeypatch.setattr(deploy, "get_kernel", counting_get_kernel)

        deploy._proxy_trace("dfs", "cage14")
        deploy._proxy_trace("dfs", "cage14")
        assert kernel_runs == ["dfs"]  # second call hit the cache

        monkeypatch.setattr(deploy, "_TRACE_VERSION", 9002)
        deploy._proxy_trace("dfs", "cage14")
        assert kernel_runs == ["dfs", "dfs"]  # stale entry not reused

        deploy._proxy_trace("dfs", "cage14")
        assert kernel_runs == ["dfs", "dfs"]  # new version now cached


class TestProxyDiameterMemo:
    def test_nine_benchmarks_on_one_dataset_run_the_diameter_once(
        self, monkeypatch
    ):
        import repro.graph.datasets as datasets
        import repro.runtime.deploy as deploy

        calls = []
        real_diameter = datasets.approximate_diameter

        def counting_diameter(graph, **kwargs):
            calls.append(graph.name)
            return real_diameter(graph, **kwargs)

        monkeypatch.setattr(datasets, "approximate_diameter", counting_diameter)
        datasets.proxy_diameter.cache_clear()
        benchmarks = kernel_names()
        assert len(benchmarks) == 9
        memoized = [prepare_workload(name, "cage14") for name in benchmarks]
        assert calls == ["cage14"]

        # Without the memo every call reruns the diameter, to equal effect.
        monkeypatch.setattr(
            deploy, "proxy_diameter", datasets.proxy_diameter.__wrapped__
        )
        unmemoized = [prepare_workload(name, "cage14") for name in benchmarks]
        assert len(calls) == 1 + len(benchmarks)
        assert unmemoized == memoized


class TestRunWorkload:
    def test_runs_on_both_accelerators(self):
        workload = prepare_workload("bfs", "cage14")
        for name in ("gtx750ti", "xeonphi7120p"):
            spec = get_accelerator(name)
            result = run_workload(workload, spec, default_config(spec))
            assert result.time_ms > 0
            assert result.accelerator == name

    def test_streaming_for_huge_graphs(self):
        workload = prepare_workload("pagerank", "twitter")
        spec = get_accelerator("gtx750ti")
        result = run_workload(workload, spec, default_config(spec))
        assert result.cost.streaming_s > 0
