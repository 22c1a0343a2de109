"""One decode per (row, device).

:func:`decode_config_batch` decodes each row onto its own kind only, and
the decision layer reuses that config for the device an entry's spec
names, decoding the vector onto the other devices only.  Both shortcuts
must give exactly what :func:`decode_config_for` gives for the row alone,
on every device, including for cache hits and for a cache shared by two
fleets with the same fingerprint.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.encoding import (
    NUM_TARGETS,
    decode_config_batch,
    decode_config_for,
)
from repro.core.heteromap import HeteroMap
from repro.machine.fleet import Fleet, synthetic_fleet
from repro.machine.specs import DEFAULT_PAIR
from repro.runtime.deploy import prepare_workload
from repro.runtime.engine.decision import DecisionService

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


@pytest.fixture(
    scope="module",
    params=[DEFAULT_PAIR, synthetic_fleet(4)],
    ids=["pair", "fleet4"],
)
def cached_map(request):
    """A map whose predictor goes through the decision cache."""
    hetero = HeteroMap(request.param, predictor="linear", seed=5)
    hetero.train(num_samples=24, seed=5)
    assert hetero.decisions.cache_active
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
        """A second Fleet object, devices reversed, same fingerprint: its
        service hits entries whose spec objects the first fleet made."""
        first = cached_map.decisions
        fleet = Fleet(tuple(reversed(cached_map.fleet.devices)))
        assert fleet.fingerprint == cached_map.fleet.fingerprint
        second = DecisionService(
            first.predictor,
            fleet,
            predictor_name=first.predictor_name,
            metric=first.metric,
            cache=first.cache,
        )
        second.overhead_ms = first.overhead_ms
        expected = first.decide_batch(batch)
        misses = first.cache.stats.misses
        decisions = second.decide_batch(batch)
        assert first.cache.stats.misses == misses
        assert_configs_decode_alone(decisions)
        for want, got in zip(expected, decisions):
            assert got.chosen.spec.name == want.chosen.spec.name
            assert got.chosen.config == want.chosen.config
            assert got.chosen.result == want.chosen.result

    def test_cart_pair(self, trained, batch):
        """The engine fixture: CART on the pair, cache bypassed."""
        assert_configs_decode_alone(trained.decisions.decide_batch(batch))


class TestDecodeBatch:
    """Each row on its own kind, equal to decoding the row alone."""

    GPU = Fleet.default_pair().primary_gpu
    MULTICORE = Fleet.default_pair().primary_multicore

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
