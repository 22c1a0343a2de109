"""Tests for the exact LRU decision cache and the batched serving path."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.heteromap import HeteroMap
from repro.errors import NotTrainedError
from repro.machine.mvars import MachineConfig
from repro.machine.specs import get_accelerator
from repro.obs.config import ObsConfig
from repro.runtime.deploy import prepare_workload
from repro.runtime.serving import (
    CachedDecision,
    DecisionCache,
    feature_keys_batch,
)

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
        assert cache.stats.hit_ratio == 0.5

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
    # A cache-preferring predictor: CART opts out of the decision cache
    # (prefer_decision_cache = False), so the cache-path tests below use a
    # small MLP instead.  CART's bypass has its own tests (TestCacheBypass).
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

        Both go through the plan tier.  CART's tree walk needs no
        canonical rounding; the MLP case below does.
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

    def test_cache_disabled(self):
        hetero = HeteroMap.with_default_pair(
            predictor="decision_tree", cache_capacity=0
        )
        hetero.train(num_samples=1, seed=0)
        assert hetero.decision_cache is None
        plans = hetero.plan_batch(ITEMS)
        assert len(plans) == len(ITEMS)
        # Duplicates still agree via the in-batch memo.
        assert plans[0][1] == plans[2][1]


class TestCacheBypass:
    """CART opts out of the LRU cache: its batched descent beats a hit."""

    def test_cart_prefers_batched_forward(self, trained_cart):
        assert trained_cart.predictor.prefer_decision_cache is False
        assert trained_cart.decisions.cache_active is False
        # The cache object still exists (decide()-style callers may want
        # it later) but plan_batch must not touch it.
        assert trained_cart.decision_cache is not None

    def test_cache_preferring_predictor_stays_cached(self, trained):
        assert trained.predictor.prefer_decision_cache is True
        assert trained.decisions.cache_active is True

    def test_bypass_leaves_cache_untouched(self, trained_cart):
        trained_cart.decision_cache.clear()
        before = (
            trained_cart.decision_cache.stats.hits,
            trained_cart.decision_cache.stats.misses,
        )
        trained_cart.plan_batch(ITEMS)
        trained_cart.plan_batch(ITEMS)
        after = (
            trained_cart.decision_cache.stats.hits,
            trained_cart.decision_cache.stats.misses,
        )
        assert after == before
        assert len(trained_cart.decision_cache) == 0

    def test_bypass_decisions_match_repeat_calls(self, trained_cart):
        """Bypassing is decision-neutral: repeat batches agree exactly."""
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
