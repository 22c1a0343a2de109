"""Mutation smoke-checks (the subsystem's acceptance criterion).

A deliberate perturbation injected into the *batch* cost model, or one
phase's component moved by one ULP in its result, must be caught by the
differential oracle, a deliberate perturbation of a
kernel by the invariant registry, a zero rounding bound in the CART
split screen or a screen that ignores how often a row repeats by the
``cart`` component, and a one-row decode
whose powers, or a one-row cost whose square root, round one ULP up, or
a one-row or lattice square root that rounds correctly instead of as
libm's ``pow(x, 0.5)``, by the ``fleet`` component — each with a
failure message that reprints the exact ``REPRO_FUZZ_SEED`` replay
one-liner.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import repro.accel.batch as batch
import repro.accel.simulator as simulator
import repro.core.encoding as encoding
import repro.core.predictors.tree_learner as tree_learner
import repro.validation.oracle as oracle
from repro.errors import OracleMismatchError
from repro.kernels.base import KernelResult
from repro.kernels.pagerank import PageRank
from repro.validation.fuzz import run_case
from repro.validation.oracle import (
    check_batch_equivalence,
    random_config_table,
    random_profile,
)
from repro.validation.seeds import SEED_ENV_VAR, FuzzFailure
from repro.machine.specs import get_accelerator


def test_batch_cost_model_mutation_is_caught(monkeypatch):
    """+1% on a batch-only constant must trip the differential oracle."""
    monkeypatch.setattr(batch, "_GRAIN_ITEMS", batch._GRAIN_ITEMS * 1.01)
    rng = np.random.default_rng(1)
    profile = random_profile(rng)
    spec = get_accelerator("xeonphi7120p")
    table = random_config_table(spec, rng, 12)
    with pytest.raises(OracleMismatchError, match="batch/scalar divergence"):
        check_batch_equivalence(profile, spec, table)


def test_batch_phase_component_ulp_is_caught(monkeypatch):
    """One phase's ``memory_s`` one ULP up in the lattice result, which
    leaves time, energy and utilization as they were: the oracle compares
    every field of the materialized result and must name it."""
    evaluate = oracle.batch_evaluate

    def nudged(profile, spec, table):
        result = evaluate(profile, spec, table)
        memory = result.memory_s.copy()
        memory[0, 0] = np.nextafter(memory[0, 0], np.inf)
        return dataclasses.replace(result, memory_s=memory)

    monkeypatch.setattr(oracle, "batch_evaluate", nudged)
    rng = np.random.default_rng(1)
    profile = random_profile(rng)
    spec = get_accelerator("xeonphi7120p")
    table = random_config_table(spec, rng, 12)
    with pytest.raises(
        OracleMismatchError,
        match=r"batch/scalar divergence on xeonphi7120p config #0: "
        r"result\.cost\.phase_costs\[0\]\.memory_s",
    ):
        check_batch_equivalence(profile, spec, table)


def test_batch_mutation_caught_via_fuzz_entry_point(monkeypatch):
    """The same mutation through run_case() must emit the replay line."""
    monkeypatch.setattr(batch, "_GRAIN_ITEMS", batch._GRAIN_ITEMS * 1.01)
    with pytest.raises(FuzzFailure) as excinfo:
        for seed in range(50):
            run_case("oracle", seed)
    message = str(excinfo.value)
    assert f"{SEED_ENV_VAR}={excinfo.value.case_seed}" in message
    assert "--component oracle --cases 1" in message


def test_kernel_mutation_is_caught(monkeypatch):
    """A 0.1% rank leak in PageRank must trip mass conservation."""
    original = PageRank.run

    def leaky(self, graph, **kwargs):
        result = original(self, graph, **kwargs)
        return KernelResult(
            np.asarray(result.output) * 1.001, result.trace, result.stats
        )

    monkeypatch.setattr(PageRank, "run", leaky)
    with pytest.raises(FuzzFailure) as excinfo:
        # Enough seeds that the kernel sampler draws pagerank repeatedly.
        for seed in range(300):
            run_case("kernels", seed)
    message = str(excinfo.value)
    assert "mass-conservation" in message
    assert f"{SEED_ENV_VAR}={excinfo.value.case_seed}" in message
    assert "--component kernels --cases 1" in message


def test_cart_zero_bound_mutation_is_caught(monkeypatch):
    """Without the rounding bound, the screen keeps only its own minimum;
    where a mirrored column ties the exact scores, the later feature can
    win the screen and the tree diverges from the reference."""
    monkeypatch.setattr(tree_learner, "_BOUND_SAFETY", 0.0)
    with pytest.raises(FuzzFailure) as excinfo:
        for seed in range(50):
            run_case("cart", seed)
    message = str(excinfo.value)
    assert f"{SEED_ENV_VAR}={excinfo.value.case_seed}" in message
    assert "--component cart --cases 1" in message


def test_cart_unweighted_screen_mutation_is_caught(monkeypatch):
    """A screen that counts each distinct row once, whatever its count,
    misjudges the cases whose rows repeat (a copied block, grid columns,
    palette targets): the ``cart`` component must see it."""
    distinct = tree_learner._distinct

    def unweighted(features, targets):
        rows, weighted = distinct(features, targets)
        counts = weighted[:, -1:]
        values = weighted[:, :-2] / counts
        norms = (values * values).sum(axis=1, keepdims=True)
        return rows, np.hstack([values, norms, np.ones_like(counts)])

    monkeypatch.setattr(tree_learner, "_distinct", unweighted)
    with pytest.raises(FuzzFailure) as excinfo:
        for seed in range(50):
            run_case("cart", seed)
    message = str(excinfo.value)
    assert f"{SEED_ENV_VAR}={excinfo.value.case_seed}" in message
    assert "--component cart --cases 1" in message


def test_one_row_decode_mutation_is_caught(monkeypatch):
    """A one-row power one ULP off the batch's, as libm's ``**`` is on
    about 1 in 18 inputs where NumPy's ``power`` is SIMD: the ``fleet``
    component's one-row decode check must see it on any host."""
    power = encoding._power

    def ulp_up(base, exponent):
        return math.nextafter(power(base, exponent), math.inf)

    monkeypatch.setattr(encoding, "_power", ulp_up)
    with pytest.raises(FuzzFailure) as excinfo:
        for seed in range(50):
            run_case("fleet", seed)
    message = str(excinfo.value)
    assert "one-row decode_config" in message
    assert "--component fleet --cases 1" in message


def test_one_row_cost_mutation_is_caught(monkeypatch):
    """A square root one ULP up in ``simulate``'s one-row operations only
    (the lattice pass takes its own in ``_libm``): the ``fleet``
    component, which compares ``simulate`` with the per-phase reference,
    must see it."""
    minimum, maximum, absolute, sqrt, fill = simulator._ONE_ROW

    def ulp_up(x):
        return math.nextafter(sqrt(x), math.inf)

    monkeypatch.setattr(
        simulator, "_ONE_ROW", (minimum, maximum, absolute, ulp_up, fill)
    )
    with pytest.raises(FuzzFailure) as excinfo:
        for seed in range(50):
            run_case("fleet", seed)
    message = str(excinfo.value)
    assert "/reference divergence" in message
    assert "--component fleet --cases 1" in message


def test_one_row_math_sqrt_mutation_is_caught(monkeypatch):
    """``math.sqrt`` as ``_ONE_ROW``'s square root (patched where
    ``simulate`` reads it) rounds correctly, unlike the reference's
    ``pow(x, 0.5)``, on about 0.09% of inputs: the ``fleet`` component's
    square-root rounding deployment must see it."""
    minimum, maximum, absolute, _, fill = simulator._ONE_ROW
    monkeypatch.setattr(
        simulator, "_ONE_ROW", (minimum, maximum, absolute, math.sqrt, fill)
    )
    with pytest.raises(FuzzFailure) as excinfo:
        for seed in range(50):
            run_case("fleet", seed)
    message = str(excinfo.value)
    assert "simulate/reference divergence" in message
    assert "--component fleet --cases 1" in message


def test_lattice_np_sqrt_mutation_is_caught(monkeypatch):
    """``np.sqrt`` as the lattice pass's per-level root (``_libm`` runs
    only that root): the ``fleet`` component's one-config
    ``batch_evaluate`` of its square-root rounding deployment must see
    it."""
    monkeypatch.setattr(batch, "_libm", lambda fn, values: np.sqrt(values))
    with pytest.raises(FuzzFailure) as excinfo:
        for seed in range(50):
            run_case("fleet", seed)
    message = str(excinfo.value)
    assert "batch_evaluate/reference divergence" in message
    assert "--component fleet --cases 1" in message


def test_failing_seed_replays_identically(monkeypatch):
    """The advertised one-liner (seed + --cases 1) re-triggers the bug."""
    monkeypatch.setattr(batch, "_GRAIN_ITEMS", batch._GRAIN_ITEMS * 1.01)
    failing_seed = None
    for seed in range(50):
        try:
            run_case("oracle", seed)
        except FuzzFailure as failure:
            failing_seed = failure.case_seed
            break
    assert failing_seed is not None
    with pytest.raises(FuzzFailure):
        run_case("oracle", failing_seed)
