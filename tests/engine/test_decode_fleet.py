"""One decode per (row, device), and one costing per (profile, device, config).

:func:`decode_config_batch` decodes each row onto its own kind only, and
the decision layer reuses that config for the device an entry's spec
names, decoding the vector onto the other devices only, once per decide.
Every shortcut must give exactly what :func:`decode_config_for` gives
for the row alone, on every device, including for cache hits and for a
cache shared by two fleets with the same fingerprint.  A workload keeps
its encoded row and the parts of its last decision, so deciding it again
under the same cache entry, device tuple and metric encodes, decodes,
costs and builds nothing.
"""

from __future__ import annotations

import copy
import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import repro.runtime.engine.decision as decision_module
from repro import obs
from repro.accel.simulator import simulate
from repro.core.encoding import (
    NUM_TARGETS,
    decode_config_batch,
    decode_config_for,
    encode_features,
)
from repro.core.heteromap import HeteroMap
from repro.core.online import DriftInjectedBackend
from repro.machine.fleet import Fleet, synthetic_fleet
from repro.machine.specs import DEFAULT_PAIR
from repro.runtime import deploy
from repro.runtime.deploy import prepare_workload
from repro.runtime.engine import SimulatedBackend
from repro.runtime.engine.contracts import Decision, DeviceEstimate
from repro.runtime.engine.decision import (
    DecisionService,
    select_chosen,
    select_runner_up,
)
from repro.runtime.serving import DecisionCache

#: The linear pair map below sends the first five to the GPU kind and the
#: rest to the multicore kind, so the batch mixes entries of both kinds.
#: The repeated pagerank row dedupes inside the batch.
BATCH_ITEMS = (
    ("pagerank", "facebook"),
    ("bfs", "cage14"),
    ("sssp_bf", "usa-cal"),
    ("pagerank", "facebook"),
    ("connected_components", "cage14"),
    ("dfs", "facebook"),
    ("dfs", "m-ret-3"),
    ("community", "facebook"),
    ("community", "m-ret-3"),
)


def assert_configs_decode_alone(decisions) -> None:
    """Every estimate's config is its device's decode of the vector."""
    for decision in decisions:
        vector = np.asarray(decision.vector)[None]
        for estimate in decision.estimates:
            assert estimate.config == decode_config_for(vector, estimate.spec)[0]


def assert_same_decisions(got, want) -> None:
    """Equal estimates (spec names, configs, results) and picks."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert [(e.spec.name, e.config, e.result) for e in a.estimates] == [
            (e.spec.name, e.config, e.result) for e in b.estimates
        ]
        assert (a.chosen_index, a.runner_up_index) == (
            b.chosen_index, b.runner_up_index
        )
        assert np.array_equal(a.vector, b.vector)
        assert a.features == b.features


def count_decodes(monkeypatch) -> list[int]:
    """Rows of each ``decode_config_for`` call the decision layer makes
    from here on."""
    rows: list[int] = []

    def counting(vectors, spec):
        rows.append(len(vectors))
        return decode_config_for(vectors, spec)

    monkeypatch.setattr(decision_module, "decode_config_for", counting)
    return rows


def service_like(
    service: DecisionService, fleet: Fleet, cache: DecisionCache | None = None
) -> DecisionService:
    """A trained service with ``service``'s predictor on ``fleet``, sharing
    ``cache`` when one is given, else with a cache of its own."""
    twin = DecisionService(
        service.predictor,
        fleet,
        predictor_name=service.predictor_name,
        metric=service.metric,
    )
    if cache is not None:
        twin.cache = cache
    twin.overhead_ms = service.overhead_ms
    return twin


@pytest.fixture(
    scope="module",
    params=[DEFAULT_PAIR, synthetic_fleet(4)],
    ids=["pair", "fleet4"],
)
def cached_map(request):
    """A map whose predictor goes through the decision cache."""
    hetero = HeteroMap(request.param, predictor="linear", seed=5)
    hetero.train(num_samples=24, seed=5)
    return hetero


@pytest.fixture(scope="module")
def batch():
    return [prepare_workload(b, d) for b, d in BATCH_ITEMS]


class TestDecideBatch:
    def test_per_device_configs_equal_decoding_alone(self, cached_map, batch):
        cached_map.decisions.clear_cache()
        decisions = cached_map.decisions.decide_batch(batch)
        assert {len(d.estimates) for d in decisions} == {len(cached_map.fleet)}
        if len(cached_map.fleet) == 2:
            assert {d.chosen.spec.is_gpu for d in decisions} == {True, False}
        assert_configs_decode_alone(decisions)

    def test_cache_hits(self, cached_map, batch):
        cache = cached_map.decisions.cache
        cached_map.decisions.decide_batch(batch)
        hits = cache.stats.hits
        decisions = cached_map.decisions.decide_batch(batch)
        assert cache.stats.hits > hits
        assert_configs_decode_alone(decisions)

    def test_cache_shared_by_two_fleets(self, cached_map, batch):
        """Second Fleet objects with the same fingerprint, devices
        reversed or deep-copied into distinct spec objects: their
        services hit entries whose spec objects and kept configs the
        first fleet made."""
        first = cached_map.decisions
        devices = cached_map.fleet.devices
        copied = Fleet(copy.deepcopy(devices))
        assert all(a is not b for a, b in zip(copied.devices, devices))
        expected = first.decide_batch(batch)
        for fleet in (Fleet(tuple(reversed(devices))), copied):
            assert fleet.fingerprint == cached_map.fleet.fingerprint
            second = service_like(first, fleet, first.cache)
            misses = first.cache.stats.misses
            decisions = second.decide_batch(batch)
            assert first.cache.stats.misses == misses
            assert_configs_decode_alone(decisions)
            for want, got in zip(expected, decisions):
                assert got.chosen.spec.name == want.chosen.spec.name
                assert got.chosen.config == want.chosen.config
                assert got.chosen.result == want.chosen.result
        # The copied fleet keeps the device order, so its decisions (the
        # loop's last) equal the first fleet's estimate for estimate.
        assert_same_decisions(decisions, expected)

    def test_cart_pair(self, trained, batch):
        """The engine fixture: CART on the pair."""
        assert_configs_decode_alone(trained.decisions.decide_batch(batch))


class TestKeptConfigs:
    """Deciding a cached batch of the same workloads again decodes
    nothing: each workload's kept decision holds its configs.  A new
    cache entry decodes its vector afresh."""

    def test_cache_hit_decodes_nothing(self, cached_map, batch, monkeypatch):
        decisions = cached_map.decisions
        decisions.clear_cache()
        first = decisions.decide_batch(batch)
        rows = count_decodes(monkeypatch)
        second = decisions.decide_batch(batch)
        assert rows == []
        assert_same_decisions(second, first)

    @pytest.mark.parametrize("reset", ["clear_cache", "swap_predictor"])
    def test_reset_decodes_again(self, cached_map, batch, monkeypatch, reset):
        service = service_like(cached_map.decisions, cached_map.fleet)
        first = service.decide_batch(batch)
        if reset == "clear_cache":
            service.clear_cache()
        else:
            service.swap_predictor(service.predictor)
        rows = count_decodes(monkeypatch)
        again = service.decide_batch(batch)
        # Every distinct vector is decoded onto every device but its own.
        assert sum(rows) == (len(cached_map.fleet) - 1) * len(
            {decision.features for decision in again}
        )
        assert_same_decisions(again, first)

    def test_fresh_profiles_decide_alike(self, cached_map, batch):
        """``replace`` copies of the workloads and profiles keep no terms
        and no decision parts, and decide alike."""
        decisions = cached_map.decisions
        want = decisions.decide_batch(batch)
        fresh = [replace(w, profile=replace(w.profile)) for w in batch]
        assert not any(w.profile.cost_terms for w in fresh)
        assert_same_decisions(decisions.decide_batch(fresh), want)


def count_costing(monkeypatch) -> dict[str, int]:
    """Rows the decision layer costs from here on, one ``simulate`` call
    each."""
    counts = {"simulate": 0}

    def simulating(*row):
        counts["simulate"] += 1
        return simulate(*row)

    monkeypatch.setattr(decision_module, "simulate", simulating)
    return counts


@pytest.fixture(scope="module")
def deep_map():
    """deep128 on synthetic_fleet(4), through the decision cache."""
    hetero = HeteroMap(synthetic_fleet(4), predictor="deep128", seed=5)
    hetero.train(num_samples=24, seed=5)
    return hetero


def assert_estimates_equal_simulate(decisions) -> None:
    for decision in decisions:
        for e in decision.estimates:
            assert e.result == simulate(decision.workload.profile, e.spec, e.config)


class TestKeptEstimates:
    """A workload decided again from a cache hit costs no row: its decision
    is assembled from the parts it kept, estimates included."""

    def test_cache_hit_costs_no_row(self, deep_map, batch, monkeypatch):
        decisions = deep_map.decisions
        decisions.clear_cache()
        first = decisions.decide_batch(batch)
        counts = count_costing(monkeypatch)
        second = decisions.decide_batch(batch)
        assert counts == {"simulate": 0}
        for a, b in zip(second, first):
            assert all(x.result is y.result for x, y in zip(a.estimates, b.estimates))
        assert_same_decisions(second, first)

    @pytest.mark.parametrize("reset", ["clear_cache", "swap_predictor"])
    def test_reset_costs_every_row(self, deep_map, batch, monkeypatch, reset):
        service = service_like(deep_map.decisions, deep_map.fleet)
        first = service.decide_batch(batch)
        if reset == "clear_cache":
            service.clear_cache()
        else:
            service.swap_predictor(service.predictor)
        counts = count_costing(monkeypatch)
        again = service.decide_batch(batch)
        assert sum(counts.values()) == len(deep_map.fleet) * len(batch)
        assert_same_decisions(again, first)
        assert_estimates_equal_simulate(again)

    def test_drift_leaves_kept_estimates_unscaled(self, deep_map, batch):
        """A drift-injected backend scales what it executes, never the
        estimates the workloads keep."""
        backend = DriftInjectedBackend(
            SimulatedBackend(), factor=4.0, start_after=2, kind="gpu"
        )
        engine = deep_map.engine
        saved, engine.backend = engine.backend, backend
        try:
            report = deep_map.run_fleet(batch, policy="load-aware")
        finally:
            engine.backend = saved
        assert any(
            outcome.result != placement.deployed.result
            for outcome, placement in zip(report.outcomes, report.placements)
        )
        later = deep_map.decisions.decide_batch(batch)
        for a, b in zip(later, (p.decision for p in report.placements)):
            assert all(x.result is y.result for x, y in zip(a.estimates, b.estimates))
        assert_estimates_equal_simulate(later)

    def test_rows_counted_by_path(self, deep_map, batch):
        """``cost_model.configs`` counts each decide's rows as kept or
        scalar ``simulate``; together they are ``engine.estimates``.  A
        first decide costs every row with ``simulate``, and no decide runs
        the lattice pass (``path="batch"``)."""
        decisions = deep_map.decisions
        decisions.clear_cache()
        state = obs.configure(obs.ObsConfig(enabled=True))
        try:
            counted = []
            for _ in range(2):
                decisions.decide_batch(batch)
                counted.append(
                    {
                        path: state.metrics.counter_value(
                            "cost_model.configs", path=path
                        )
                        for path in ("kept", "batch", "scalar")
                    }
                )
            rows = len(deep_map.fleet) * len(batch)
            assert state.metrics.counter_value("engine.estimates") == 2 * rows
        finally:
            obs.reset()
        first, both = counted
        assert first == {"kept": 0, "batch": 0, "scalar": rows}
        second = {path: both[path] - first[path] for path in both}
        assert second == {"kept": rows, "batch": 0, "scalar": 0}


def count_building(monkeypatch) -> dict[str, int]:
    """``DeviceEstimate`` and ``Decision`` objects built through their
    ``__init__`` (and so ``Decision.__post_init__``), and feature rows
    encoded, from here on."""
    counts = {"estimates": 0, "decisions": 0, "encoded": 0}
    for cls, name in ((DeviceEstimate, "estimates"), (Decision, "decisions")):

        def counting(self, *args, _init=cls.__init__, _name=name, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)

    def encoding(bvars, ivars):
        counts["encoded"] += 1
        return encode_features(bvars, ivars)

    monkeypatch.setattr(deploy, "encode_features", encoding)
    return counts


def assert_built_for(service: DecisionService, decisions) -> None:
    """Each decision is what ``service`` builds for its workload now: the
    current entry's vector, estimates on ``service``'s devices in fleet
    order equal to ``simulate`` and decoded alone, and picks under
    ``service``'s metric."""
    entries = service.choose_encoded(
        service.encode([decision.workload for decision in decisions])
    )
    devices = service.fleet.devices
    for decision, entry in zip(decisions, entries):
        assert np.array_equal(decision.vector, entry.vector)
        assert tuple(e.spec for e in decision.estimates) == devices
        costs = [e.result.objective(service.metric) for e in decision.estimates]
        chosen = select_chosen(devices, costs, prefer_multicore=not entry.spec.is_gpu)
        assert decision.chosen_index == chosen
        assert decision.runner_up_index == select_runner_up(devices, costs, chosen)
        assert decision.costs_ms == tuple(e.time_ms for e in decision.estimates)
    assert_estimates_equal_simulate(decisions)
    assert_configs_decode_alone(decisions)


class _ProbeEverything:
    """An exploration policy that probes every plan-tier row."""

    def should_explore(self, confidence) -> bool:
        return True


@pytest.fixture(scope="module")
def other_deep():
    """deep128 on synthetic_fleet(4), trained from another seed."""
    hetero = HeteroMap(synthetic_fleet(4), predictor="deep128", seed=6)
    hetero.train(num_samples=24, seed=6)
    return hetero


class TestKeptDecisions:
    """A workload decided again under the same cache entry, device tuple
    and metric gets its decision assembled from the parts it kept: no row
    is encoded, decoded or costed and no ``DeviceEstimate`` or
    ``Decision`` is built.  Anything else builds afresh."""

    def test_repeat_decide_builds_nothing(self, deep_map, batch, monkeypatch):
        decisions = deep_map.decisions
        decisions.clear_cache()
        first = decisions.decide_batch(batch)
        counts = count_building(monkeypatch)
        costed = count_costing(monkeypatch)
        decoded = count_decodes(monkeypatch)
        second = decisions.decide_batch(batch)
        assert counts == {"estimates": 0, "decisions": 0, "encoded": 0}
        assert costed == {"simulate": 0}
        assert decoded == []
        assert_same_decisions(second, first)
        for a, b in zip(second, first):
            assert a is not b
            assert a.estimates is b.estimates
            assert a.workload is b.workload
            assert a.costs_ms == b.costs_ms
            assert (a.confidence, a.explored) == (b.confidence, b.explored)
            assert a == b  # field by field: the vector is the same object
        assert_built_for(decisions, second)

    @pytest.mark.parametrize(
        "change",
        ["clear_cache", "swap_predictor", "energy", "reversed", "probe", "replace"],
    )
    def test_each_change_builds_afresh(
        self, deep_map, other_deep, batch, monkeypatch, change
    ):
        """A new entry (a cleared cache, a differently trained model), a
        service with another metric or another device tuple sharing the
        cache, an exploration probe and a ``replace`` copy of the workload
        each build every decision again, as they would be built new."""
        service = service_like(deep_map.decisions, deep_map.fleet)
        service.decide_batch(batch)  # keeps every workload's parts
        kept = [workload.kept_decision for workload in batch]
        assert all(parts is not None for parts in kept)
        workloads = batch
        if change == "clear_cache":
            service.clear_cache()
        elif change == "swap_predictor":
            service.swap_predictor(other_deep.decisions.predictor)
        elif change == "energy":
            service = service_like(service, deep_map.fleet, service.cache)
            service.metric = "energy"
        elif change == "reversed":
            fleet = Fleet(tuple(reversed(deep_map.fleet.devices)))
            service = service_like(service, fleet, service.cache)
        elif change == "replace":
            workloads = [replace(workload) for workload in batch]
        counts = count_building(monkeypatch)
        if change == "probe":
            again = []
            estimate = DecisionService._estimate

            def capturing(self, workloads, entries, **kwargs):
                built = estimate(self, workloads, entries, **kwargs)
                again.extend(built)
                return built

            monkeypatch.setattr(DecisionService, "_estimate", capturing)
            service.exploration = _ProbeEverything()
            service.plan_batch(batch)
            assert all(decision.explored for decision in again)
            # A probe keeps nothing.
            assert all(w.kept_decision is parts for w, parts in zip(batch, kept))
        else:
            misses = service.cache.stats.misses
            again = service.decide_batch(workloads)
            if change in ("energy", "reversed", "replace"):
                assert service.cache.stats.misses == misses  # the same entries
        assert counts["decisions"] == len(batch)
        assert counts["estimates"] == len(batch) * len(deep_map.fleet)
        assert counts["encoded"] == (len(batch) if change == "replace" else 0)
        assert_built_for(service, again)

    def test_cart_repeat_decide_builds_nothing(self, trained, batch, monkeypatch):
        """CART decides through the cache like every predictor, so its
        repeat decide is assembled from the kept parts; after a promotion
        (``swap_predictor``) every decision is built afresh."""
        service = service_like(trained.decisions, trained.fleet)
        workloads = [replace(workload) for workload in batch]
        first = service.decide_batch(workloads)
        counts = count_building(monkeypatch)
        costed = count_costing(monkeypatch)
        second = service.decide_batch(workloads)
        assert counts == {"estimates": 0, "decisions": 0, "encoded": 0}
        assert costed == {"simulate": 0}
        assert_same_decisions(second, first)
        service.swap_predictor(service.predictor)
        again = service.decide_batch(workloads)
        rows = len(trained.fleet) * len(batch)
        assert counts == {"estimates": rows, "decisions": len(batch), "encoded": 0}
        assert sum(costed.values()) == rows
        assert_same_decisions(again, first)
        assert_built_for(service, again)

    def test_kept_parts_are_not_fields(self, deep_map, batch):
        """``==``, ``hash``, ``repr`` and ``replace`` see only the fields."""
        workload = replace(batch[0])
        before = (hash(workload), repr(workload))
        deep_map.decisions.decide_batch([workload])
        assert workload.kept_decision is not None
        assert not workload.feature_row.flags.writeable
        assert (hash(workload), repr(workload)) == before
        assert workload == batch[0]
        copied = replace(workload)
        assert "feature_row" not in vars(copied)
        assert copied.kept_decision is None

    def test_decided_copy_dies_without_the_collector(self, deep_map, batch):
        """The kept parts never refer back to the workload, so a decided
        workload is freed by reference counting alone."""
        decisions = deep_map.decisions
        workload = replace(batch[0])
        decisions.decide_batch([workload])
        decisions.decide_batch([workload])  # assembled from the kept parts
        assert workload.kept_decision is not None
        alive = weakref.ref(workload)
        gc.disable()
        try:
            del workload
            assert alive() is None
        finally:
            gc.enable()


class TestDecodeBatch:
    """Each row on its own kind, equal to decoding the row alone."""

    GPU = Fleet.from_names(DEFAULT_PAIR).primary_gpu
    MULTICORE = Fleet.from_names(DEFAULT_PAIR).primary_multicore

    @pytest.mark.parametrize("kinds", ["gpu", "multicore", "mixed", "empty"])
    def test_rows_decode_as_alone(self, kinds):
        vectors = np.random.default_rng(3).random((40, NUM_TARGETS))
        if kinds == "gpu":
            vectors[:, 0] *= 0.49
        elif kinds == "multicore":
            vectors[:, 0] = 0.5 + vectors[:, 0] * 0.5
        elif kinds == "mixed":
            vectors[::3, 0] = 0.5  # the threshold itself is multicore
        else:
            vectors = vectors[:0]
        decoded = decode_config_batch(vectors, self.GPU, self.MULTICORE)
        assert len(decoded) == len(vectors)
        for vector, (spec, config) in zip(vectors, decoded):
            want = self.MULTICORE if vector[0] >= 0.5 else self.GPU
            assert spec is want
            assert config == decode_config_for(vector[None], spec)[0]
            assert (spec, config) == decode_config_batch(
                vector[None], self.GPU, self.MULTICORE
            )[0]
        is_gpu = {spec.is_gpu for spec, _ in decoded}
        assert is_gpu == {
            "gpu": {True}, "multicore": {False}, "mixed": {True, False}, "empty": set()
        }[kinds]
