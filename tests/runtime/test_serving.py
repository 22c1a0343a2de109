"""Tests for the exact LRU decision cache and the batched serving path."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.encoding import NUM_FEATURES, encode_features
from repro.core.heteromap import HeteroMap
from repro.errors import NotTrainedError
from repro.features.ivars import ivars_from_meta
from repro.features.profiles import benchmark_names, get_profile
from repro.graph.datasets import dataset_names, get_dataset
from repro.machine.mvars import MachineConfig
from repro.machine.specs import get_accelerator
from repro.obs.config import ObsConfig
from repro.runtime.deploy import prepare_workload
from repro.runtime.engine.decision import DecisionService
from repro.runtime.serving import (
    CachedDecision,
    DecisionCache,
    feature_keys_batch,
)
from repro.workload.synthetic import generate_samples

GPU = get_accelerator("gtx750ti")
PHI = get_accelerator("xeonphi7120p")


def _entry(tag: int) -> CachedDecision:
    return CachedDecision(
        spec=PHI,
        config=MachineConfig(accelerator=PHI.name, cores=1 + tag),
        vector=np.full(11, 0.1 * tag),
    )


def _key(row, *, fleet="ffff", predictor="deep16#g0"):
    """The cache key of one feature row."""
    return feature_keys_batch([row], fleet=fleet, predictor=predictor)[0]


class TestFeatureKey:
    def test_array_and_sequence_agree(self):
        row = np.array([0.1, 0.2, 0.3])
        assert _key(row) == _key([0.1, 0.2, 0.3])

    def test_equal_rows_equal_keys(self):
        a = np.round(np.random.default_rng(0).random(17), 1)
        assert _key(a) == _key(a.copy())

    def test_fleet_fingerprint_namespaces_keys(self):
        row = np.array([0.1, 0.2, 0.3])
        assert _key(row, fleet="aaaa") != _key(row, fleet="bbbb")
        assert _key(row, fleet="aaaa")[0] == "aaaa"

    def test_batch_keys_match_row_keys_with_fleet(self):
        matrix = np.array([[0.1, 0.2], [0.3, 0.4]])
        batch = feature_keys_batch(matrix, fleet="ffff", predictor="deep16#g0")
        assert batch == [_key(row) for row in matrix]


def _table_i_rows() -> np.ndarray:
    """The feature rows of the 81 Table I benchmark x dataset pairs."""
    return np.array(
        [
            encode_features(get_profile(b), ivars_from_meta(get_dataset(d).paper))
            for b in benchmark_names()
            for d in dataset_names()
        ]
    )


def _synthetic_rows() -> np.ndarray:
    """4,096 seeded synthetic training-style feature rows."""
    return np.array(
        [encode_features(s.bvars, s.ivars) for s in generate_samples(4096, seed=1)]
    )


def _grid_rows(seed: int) -> np.ndarray:
    """0.1-grid rows, many repeated, with zeros signed at random."""
    rng = np.random.default_rng(seed)
    distinct = np.round(rng.integers(-2, 3, size=(48, NUM_FEATURES)) * 0.1, 1)
    rows = distinct[rng.integers(0, len(distinct), size=512)]
    rows[(rows == 0.0) & (rng.random(rows.shape) < 0.5)] = -0.0
    return rows


def _groups(keys) -> list[list[int]]:
    """Row indices grouped by equal key, in first-occurrence order."""
    groups: dict = {}
    for index, key in enumerate(keys):
        groups.setdefault(key, []).append(index)
    return list(groups.values())


class TestFeatureKeyBytes:
    """A key carries the row's float64 bytes, with ``-0.0`` folded into
    ``0.0``, so it groups rows exactly as float equality does."""

    def test_negative_zero_shares_the_zero_key(self):
        row = np.round(np.random.default_rng(2).random(NUM_FEATURES), 1)
        row[[0, 7]] = 0.0
        negative = row.copy()
        negative[[0, 7]] = -0.0
        assert negative.tobytes() != row.tobytes()
        assert _key(negative) == _key(row)
        assert _key(negative)[2] == row.tobytes()

    def test_rows_one_element_apart_differ(self):
        row = np.round(np.random.default_rng(3).random(NUM_FEATURES), 1)
        for column in range(NUM_FEATURES):
            other = row.copy()
            other[column] += 0.1
            assert _key(other) != _key(row)

    def test_row_bytes_are_the_routing_key(self):
        """The shard router hashes ``row.tobytes()``: the same bytes."""
        matrix = _table_i_rows()
        keys = feature_keys_batch(matrix, fleet="ffff", predictor="cart#g0")
        assert [key[2] for key in keys] == [row.tobytes() for row in matrix]

    @pytest.mark.parametrize("source", ["table_i", "synthetic", "grid0", "grid1"])
    def test_groups_match_float_tuples(self, source):
        """The keys split rows into exactly the groups the float tuples
        ``(fleet, predictor, *row)`` did."""
        if source == "table_i":
            matrix = _table_i_rows()
        elif source == "synthetic":
            matrix = _synthetic_rows()
        else:
            matrix = _grid_rows(int(source[-1]))
        keys = feature_keys_batch(matrix, fleet="ffff", predictor="deep16#g0")
        tuples = [("ffff", "deep16#g0", *row) for row in matrix.tolist()]
        assert _groups(keys) == _groups(tuples)


class TestDecisionCache:
    def test_miss_then_hit(self):
        cache = DecisionCache(capacity=4)
        key = (0.1, 0.2)
        assert cache.get(key) is None
        entry = _entry(1)
        cache.put(key, entry)
        assert cache.get(key) is entry
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_lru_eviction_order(self):
        cache = DecisionCache(capacity=2)
        cache.put(("a",), _entry(1))
        cache.put(("b",), _entry(2))
        # Touch "a" so "b" becomes least-recently-used.
        assert cache.get(("a",)) is not None
        cache.put(("c",), _entry(3))
        assert ("b",) not in cache
        assert ("a",) in cache and ("c",) in cache
        assert cache.stats.evictions == 1

    def test_reinsert_refreshes_recency(self):
        cache = DecisionCache(capacity=2)
        cache.put(("a",), _entry(1))
        cache.put(("b",), _entry(2))
        cache.put(("a",), _entry(4))  # refresh, not duplicate
        cache.put(("c",), _entry(3))
        assert ("b",) not in cache
        assert cache.get(("a",)).config.cores == 5

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            DecisionCache(capacity=0)

    def test_clear_keeps_stats(self):
        cache = DecisionCache(capacity=2)
        cache.put(("a",), _entry(1))
        cache.get(("a",))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1

    def test_cached_vector_read_only(self):
        entry = _entry(2)
        with pytest.raises(ValueError):
            entry.vector[0] = 9.9

    def test_interleaved_batches_evict_in_recency_order(self):
        """Two interleaved request streams share one LRU: a key kept hot
        by either stream survives; the key neither stream touches goes."""
        cache = DecisionCache(capacity=2)
        # Batch 1 (stream A): keys a, b.
        cache.put(("a",), _entry(1))
        cache.put(("b",), _entry(2))
        # Batch 2 (stream B) interleaves and re-touches a.
        assert cache.get(("a",)) is not None
        cache.put(("c",), _entry(3))  # evicts b (LRU), not a
        assert ("a",) in cache
        assert ("b",) not in cache
        # Batch 3 (stream A again) misses b, hits c.
        assert cache.get(("b",)) is None
        assert cache.get(("c",)) is not None
        cache.put(("b",), _entry(4))
        assert ("a",) not in cache  # c was refreshed by the batch-3 hit
        assert cache.stats.evictions == 2  # b on c's insert, a on b's re-insert

    def test_interleaved_batches_stats_consistent(self):
        cache = DecisionCache(capacity=2)
        batches = [
            [("x",), ("y",)],
            [("x",), ("z",)],  # x hot across in-flight windows
            [("y",), ("x",)],
        ]
        for batch in batches:
            for key in batch:
                if cache.get(key) is None:
                    cache.put(key, _entry(1))
        stats = cache.stats
        assert stats.lookups == 6
        assert stats.hits + stats.misses == stats.lookups
        # x: miss, hit, then evicted by y's batch-3 re-insert -> miss;
        # y: miss, miss (evicted by z); z: miss.
        assert stats.hits == 1
        assert stats.misses == 5


@pytest.fixture(scope="module")
def trained():
    # A small MLP, whose batch-shape rounding the cache-path tests also
    # cover; CART's cache path has its own tests (TestCacheBypass).
    hetero = HeteroMap.with_default_pair(predictor="deep16", seed=5)
    hetero.train(num_samples=40, seed=5)
    return hetero


@pytest.fixture(scope="module")
def trained_cart():
    hetero = HeteroMap.with_default_pair(predictor="cart", seed=5)
    hetero.train(num_samples=40, seed=5)
    return hetero


ITEMS = [
    ("pagerank", "facebook"),
    ("bfs", "facebook"),
    ("pagerank", "facebook"),  # duplicate: shares a cache entry
    ("sssp_bf", "usa-cal"),
]


class TestPlanBatch:
    def test_requires_training(self):
        hetero = HeteroMap.with_default_pair(predictor="deep16")
        with pytest.raises(NotTrainedError):
            hetero.plan_batch([("bfs", "facebook")])

    def test_accepts_pairs_and_workloads(self, trained):
        workload = prepare_workload("bfs", "facebook")
        plans = trained.plan_batch([("bfs", "facebook"), workload])
        assert len(plans) == 2
        assert plans[0][0] is plans[1][0]
        assert plans[0][1] == plans[1][1]

    def test_matches_scalar_predict(self, trained_cart):
        """Batched plans equal the one-row ``predict`` answers.

        On a pair the decide tier ``predict`` reads picks the plan tier's
        deployment.  CART's tree walk needs no canonical rounding; the
        MLP case below does.
        """
        workloads = [prepare_workload(b, d) for b, d in ITEMS]
        plans = trained_cart.plan_batch(workloads)
        for workload, (spec, config) in zip(workloads, plans):
            scalar_spec, scalar_config = trained_cart.predict(workload)
            assert spec is scalar_spec
            assert config == scalar_config

    def test_agrees_with_scalar_predict_choice(self, trained):
        """Batched and one-row paths agree on the spec *and* the config.

        The MLP's row and batch forwards give equal vectors here; what a
        ``predict`` that skips the plan tier's 1e-9 canonical rounding
        got wrong was the continuous multicore knobs (placement,
        affinity, blocktime), about 1e-9 apart.
        """
        workloads = [prepare_workload(b, d) for b, d in ITEMS]
        plans = trained.plan_batch(workloads)
        for workload, (spec, config) in zip(workloads, plans):
            scalar_spec, scalar_config = trained.predict(workload)
            assert spec is scalar_spec
            assert config == scalar_config

    def test_predict_is_what_runs(self):
        """``predict`` names the deployment ``run_workload`` executes.

        The analytical tree's equations set knobs (e.g. a nonzero OpenMP
        spin count) that the decoded target vector does not carry; the
        plan tier's decode is what runs, so it is what ``predict`` says.
        """
        hetero = HeteroMap.with_default_pair(predictor="decision_tree")
        hetero.train(num_samples=1)
        for item in [*ITEMS, ("sssp_delta", "usa-cal")]:
            workload = prepare_workload(*item)
            spec, config = hetero.predict(workload)
            outcome = hetero.run_workload(workload)
            assert spec.name == outcome.chosen_accelerator
            assert config == outcome.config

    def test_predict_is_what_runs_on_four_devices(self):
        """Past two devices the plan tier decodes onto the name-minimal
        device of the called kind, while a run takes the kind's argmin
        of the fleet's estimates; ``predict`` must name the latter.  With
        the plan tier's answer, 47 of the 81 Table I workloads named a
        deployment other than the one that ran."""
        hetero = HeteroMap(
            ["gtx750ti", "gtx970", "xeonphi7120p", "cpu40core"],
            predictor="decision_tree",
            seed=0,
        )
        hetero.train(num_samples=1, seed=0)
        for benchmark in benchmark_names():
            for dataset in dataset_names():
                workload = prepare_workload(benchmark, dataset)
                spec, config = hetero.predict(workload)
                outcome = hetero.run_workload(workload)
                assert spec.name == outcome.chosen_accelerator, workload
                assert config == outcome.config, workload

    def test_cache_hits_bit_identical(self, trained):
        """A cache hit returns the identical decision, not a recompute."""
        trained.decision_cache.clear()
        first = trained.plan_batch(ITEMS)
        misses = trained.decision_cache.stats.misses
        second = trained.plan_batch(ITEMS)
        assert trained.decision_cache.stats.misses == misses  # all hits
        for (spec_a, config_a), (spec_b, config_b) in zip(first, second):
            assert spec_a is spec_b
            assert config_a == config_b

    def test_duplicate_items_share_one_prediction(self, trained):
        trained.decision_cache.clear()
        before = trained.decision_cache.stats.misses
        trained.plan_batch(ITEMS)
        # Four items, one duplicate pair -> only three misses.
        assert trained.decision_cache.stats.misses - before == 3

    def test_train_clears_cache(self):
        hetero = HeteroMap.with_default_pair(predictor="deep16", seed=6)
        hetero.train(num_samples=30, seed=6)
        hetero.plan_batch(ITEMS)
        assert len(hetero.decision_cache) > 0
        hetero.train(num_samples=30, seed=7)
        assert len(hetero.decision_cache) == 0


class TestCacheBypass:
    """CART once bypassed the cache; it now decides through it like every
    predictor, and since the cache is exact its decisions do not change."""

    def test_bypass_leaves_cache_untouched(self, trained_cart, monkeypatch):
        """A repeated CART ``plan_batch`` hits the cache and is served the
        very entry objects the first call computed."""
        seen = []
        choose = DecisionService.choose_encoded

        def recording(self, features):
            seen.append(choose(self, features))
            return seen[-1]

        monkeypatch.setattr(DecisionService, "choose_encoded", recording)
        cache = trained_cart.decision_cache
        cache.clear()
        trained_cart.plan_batch(ITEMS)
        hits, misses = cache.stats.hits, cache.stats.misses
        assert len(cache) == 3  # one entry per distinct row
        trained_cart.plan_batch(ITEMS)
        assert cache.stats.misses == misses
        assert cache.stats.hits == hits + 3
        first, second = seen
        assert all(a is b for a, b in zip(first, second))

    def test_entries_own_read_only_rows(self, trained_cart):
        """Each computed entry holds its own read-only copy of its
        predicted row, never a view of the batch's matrix."""
        decisions = trained_cart.decisions
        decisions.clear_cache()
        features = decisions.encode([prepare_workload(*item) for item in ITEMS])
        entries = decisions.choose_encoded(features)
        predicted = decisions.predictor.predict_batch(features)
        for entry, row in zip(entries, predicted):
            assert entry.vector.base is None
            assert not entry.vector.flags.writeable
            assert np.array_equal(entry.vector, row)
        assert entries[0] is entries[2]  # the duplicate pair

    def test_negative_zero_row_hits_the_zero_entry(self, trained_cart):
        decisions = trained_cart.decisions
        row = decisions.encode([prepare_workload("bfs", "facebook")])
        assert (row == 0.0).any()
        first = decisions.choose_encoded(row)[0]
        negative = row.copy()
        negative[row == 0.0] = -0.0
        hits = trained_cart.decision_cache.stats.hits
        assert decisions.choose_encoded(negative)[0] is first
        assert trained_cart.decision_cache.stats.hits == hits + 1

    def test_bypass_decisions_match_repeat_calls(self, trained_cart):
        """The cache is decision-neutral: repeat batches agree exactly."""
        first = trained_cart.plan_batch(ITEMS)
        second = trained_cart.plan_batch(ITEMS)
        for (spec_a, config_a), (spec_b, config_b) in zip(first, second):
            assert spec_a is spec_b
            assert config_a == config_b

    def test_in_batch_memo_still_dedupes(self, trained_cart):
        plans = trained_cart.plan_batch(ITEMS)
        # Items 0 and 2 are the duplicate pair.
        assert plans[0][0] is plans[2][0]
        assert plans[0][1] == plans[2][1]


class TestFleetCacheIsolation:
    """Regression: one DecisionCache shared by two differently configured
    fleets must never serve a placement across the fleet boundary.

    Before cache keys carried the fleet fingerprint, two fleets seeing
    the same discretized feature row collided on the same key, so the
    second fleet silently received the first fleet's (spec, config) —
    a device it may not even contain."""

    @pytest.fixture(scope="class")
    def shared_fleets(self):
        shared = DecisionCache(capacity=64)
        a = HeteroMap.with_default_pair(predictor="deep16", seed=5)
        b = HeteroMap(("gtx970", "cpu40core"), predictor="deep16", seed=5)
        a.train(num_samples=30, seed=5)
        b.train(num_samples=30, seed=5)
        a.decisions.cache = shared
        b.decisions.cache = shared
        return shared, a, b

    def test_interleaved_fleets_stay_isolated(self, shared_fleets):
        shared, a, b = shared_fleets
        shared.clear()
        for _ in range(2):  # interleaved request streams
            plans_a = a.plan_batch(ITEMS)
            plans_b = b.plan_batch(ITEMS)
        # Every served spec belongs to the requesting fleet.
        assert {spec.name for spec, _ in plans_a} <= set(a.fleet.names)
        assert {spec.name for spec, _ in plans_b} <= set(b.fleet.names)
        # The fleets don't even share a device, so any leak would have
        # surfaced as a foreign accelerator name above.
        assert not set(a.fleet.names) & set(b.fleet.names)

    def test_same_features_occupy_distinct_entries(self, shared_fleets):
        shared, a, b = shared_fleets
        shared.clear()
        before = shared.stats.misses
        a.plan_batch(ITEMS)
        entries_after_a = len(shared)
        misses_a = shared.stats.misses - before
        b.plan_batch(ITEMS)  # identical feature rows, different fleet
        # Fleet b's rows are MISSES, not hits on fleet a's entries.
        assert shared.stats.misses - before == 2 * misses_a
        assert len(shared) == 2 * entries_after_a

    def test_shared_cache_decisions_match_private_cache(self, shared_fleets):
        _, _, b = shared_fleets
        isolated = HeteroMap(("gtx970", "cpu40core"), predictor="deep16", seed=5)
        isolated.train(num_samples=30, seed=5)
        for (spec_a, config_a), (spec_b, config_b) in zip(
            b.plan_batch(ITEMS), isolated.plan_batch(ITEMS)
        ):
            assert spec_a.name == spec_b.name
            assert config_a == config_b


class TestRunMany:
    def test_equivalent_to_looped_run(self, trained):
        batched = trained.run_many(ITEMS)
        for (benchmark, dataset), outcome in zip(ITEMS, batched):
            single = trained.run(benchmark, dataset)
            assert outcome.benchmark == single.benchmark
            assert outcome.dataset == single.dataset
            assert outcome.chosen_accelerator == single.chosen_accelerator
            assert outcome.config == single.config
            assert outcome.result.time_ms == single.result.time_ms
            assert outcome.completion_time_ms == single.completion_time_ms

    def test_emits_audit_records_per_workload(self, trained):
        obs.configure(ObsConfig(enabled=True))
        try:
            obs.state().decisions.clear()
            trained.run_many(ITEMS)
            records = list(obs.state().decisions)
            assert len(records) == len(ITEMS)
            assert [r.benchmark for r in records] == [b for b, _ in ITEMS]
        finally:
            obs.configure(ObsConfig(enabled=False))

    def test_serving_counters(self, trained):
        trained.decision_cache.clear()
        obs.configure(ObsConfig(enabled=True))
        try:
            trained.run_many(ITEMS)
            snapshot = obs.prometheus_text()
            assert "serve_cache_miss" in snapshot
            assert "serve_cache_hit" in snapshot
        finally:
            obs.configure(ObsConfig(enabled=False))


class TestPredictorCacheIsolation:
    """Regression: one DecisionCache consulted for two predictors — or
    across an online-adaptation promotion — must never serve one model's
    decision as the other's.

    Cache keys carry the predictor tag (name + generation), so two
    models seeing the same discretized feature row occupy distinct
    entries, and a promotion's generation bump makes every key the old
    model computed unreachable — in forked shard workers too, where no
    cross-process clear() ever runs."""

    @pytest.fixture(scope="class")
    def shared_predictors(self):
        shared = DecisionCache(capacity=64)
        a = HeteroMap.with_default_pair(predictor="deep16", seed=5)
        b = HeteroMap.with_default_pair(predictor="deep32", seed=5)
        a.train(num_samples=30, seed=5)
        b.train(num_samples=30, seed=5)
        a.decisions.cache = shared
        b.decisions.cache = shared
        return shared, a, b

    def test_tag_namespaces_keys(self):
        row = np.array([0.1, 0.2, 0.3])
        assert _key(row, predictor="deep16#g0") != _key(row, predictor="deep32#g0")
        assert _key(row, predictor="deep16#g0") != _key(row, predictor="deep16#g1")
        assert _key(row, predictor="deep16#g0")[1] == "deep16#g0"

    def test_interleaved_predictors_stay_isolated(self, shared_predictors):
        shared, a, b = shared_predictors
        shared.clear()
        before = shared.stats.misses
        for _ in range(2):  # interleaved request streams
            plans_a = a.plan_batch(ITEMS)
            plans_b = b.plan_batch(ITEMS)
        # Identical feature rows, same fleet — yet model b's first pass
        # was all MISSES, not hits on model a's entries.
        first_pass = (shared.stats.misses - before) // 2
        assert shared.stats.misses - before == 2 * first_pass
        assert len(shared) == 2 * first_pass
        # And each stream's decisions match a private-cache twin.
        isolated = HeteroMap.with_default_pair(predictor="deep32", seed=5)
        isolated.train(num_samples=30, seed=5)
        for (spec_a, config_a), (spec_b, config_b) in zip(
            plans_b, isolated.plan_batch(ITEMS)
        ):
            assert spec_a.name == spec_b.name
            assert config_a == config_b
        assert plans_a is not None  # both streams exercised

    def test_promotion_generation_invalidates_keys(self, shared_predictors):
        shared, a, _ = shared_predictors
        shared.clear()
        a.plan_batch(ITEMS)
        hits_before = shared.stats.hits
        a.plan_batch(ITEMS)  # same generation: warm hits
        assert shared.stats.hits > hits_before
        old_tag = a.decisions.predictor_tag
        a.decisions.swap_predictor(a.decisions.predictor)
        assert a.decisions.predictor_tag != old_tag
        misses_before = shared.stats.misses
        a.plan_batch(ITEMS)  # new generation: every key is fresh
        assert shared.stats.misses > misses_before
