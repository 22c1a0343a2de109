"""Property-based validation: kernel invariants + differential oracle.

The correctness-tooling layer the perf roadmap stands on.  Its parts:

* :mod:`repro.validation.invariants` — a registry of metamorphic and
  algebraic checks per kernel, run against randomized generator graphs
  (:mod:`repro.validation.generators`).
* :mod:`repro.validation.oracle` — the per-phase cost-model reference
  (``reference_simulate``) every evaluation must equal, and a
  differential oracle pinning the lattice pass to it and the tuning
  layer's argmin to a brute-force scan of it.
* :mod:`repro.validation.fleet` — the fleet component: multi-workload
  row sets costed by ``simulate`` (the decision layer's evaluation)
  equal to the reference, again from the terms it kept, one deployment
  on a square-root rounding input through ``simulate`` and the lattice
  pass, decode bit-identity, and permutation-invariant fleet identities.
* :mod:`repro.validation.cart` — the CART component: screened split
  search bit-identical to the per-candidate reference loop, whose split
  is always in the screen's shortlist.
* :mod:`repro.validation.fuzz` — the seeded driver
  (``python -m repro.validation.fuzz`` / ``make fuzz``); every failure
  message embeds a ``REPRO_FUZZ_SEED=... --cases 1`` replay one-liner.
"""

from __future__ import annotations

from repro.validation.generators import (
    CANONICAL_FAMILY_PARAMS,
    GraphCase,
    sample_family_params,
    sample_graph_case,
)
from repro.validation.invariants import (
    INVARIANTS,
    Invariant,
    KernelCase,
    check_kernel_case,
    invariant,
    invariants_for,
    registered_benchmarks,
    run_kernel_case,
    sample_kernel_params,
)
from repro.validation.cart import (
    ReferenceCart,
    check_cart_fit,
    random_cart_matrices,
    reference_split,
    run_cart_case,
)
from repro.validation.fleet import (
    check_decode_agreement,
    check_fleet_rows,
    check_permutation_identity,
    random_fleet,
    run_fleet_case,
)
from repro.validation.oracle import (
    check_argmin_equivalence,
    check_batch_equivalence,
    check_exhaustive_against_scalar,
    random_config,
    random_config_table,
    random_profile,
    reference_simulate,
    run_oracle_case,
)
from repro.validation.seeds import (
    DEFAULT_MASTER_SEED,
    SEED_ENV_VAR,
    FuzzFailure,
    derive_seed,
    iterate_case_seeds,
    master_seed_from_env,
    replay_command,
)

__all__ = [
    "CANONICAL_FAMILY_PARAMS",
    "DEFAULT_MASTER_SEED",
    "FuzzFailure",
    "GraphCase",
    "INVARIANTS",
    "Invariant",
    "KernelCase",
    "ReferenceCart",
    "SEED_ENV_VAR",
    "check_argmin_equivalence",
    "check_batch_equivalence",
    "check_cart_fit",
    "check_decode_agreement",
    "check_exhaustive_against_scalar",
    "check_fleet_rows",
    "check_kernel_case",
    "check_permutation_identity",
    "derive_seed",
    "invariant",
    "invariants_for",
    "iterate_case_seeds",
    "master_seed_from_env",
    "random_cart_matrices",
    "random_config",
    "random_config_table",
    "random_fleet",
    "random_profile",
    "reference_simulate",
    "reference_split",
    "registered_benchmarks",
    "replay_command",
    "run_cart_case",
    "run_fleet_case",
    "run_kernel_case",
    "run_oracle_case",
    "sample_family_params",
    "sample_graph_case",
    "sample_kernel_params",
]
