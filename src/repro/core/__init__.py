"""HeteroMap core: analytical model, learners, training, framework."""

from repro.core.database import TrainingDatabase
from repro.core.decision_tree import (
    TreeDecision,
    decision_tree_predict,
    select_accelerator,
)
from repro.core.encoding import (
    NUM_FEATURES,
    NUM_TARGETS,
    TARGET_NAMES,
    choice_signature,
    encode_config,
    encode_features,
)
from repro.core.equations import (
    config_from_equations,
    gpu_config_from_equations,
    multicore_config_from_equations,
)
from repro.core.overhead import measure_overhead_ms
from repro.core.predictors import make_predictor, predictor_names
from repro.core.training import build_training_database, label_sample

# HeteroMap/RunOutcome are resolved lazily (PEP 562): heteromap.py composes
# the runtime engine, whose decision layer imports back into repro.core for
# the feature codec.  Importing it here eagerly would make the package
# unimportable whenever repro.runtime is entered first (runtime.__init__ →
# server → engine → core.__init__ → heteromap → engine, still half-built).
_LAZY_IMPORTS = {
    "HeteroMap": "repro.core.heteromap",
    "RunOutcome": "repro.core.heteromap",
}


def __getattr__(name: str):
    module_name = _LAZY_IMPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_IMPORTS))


__all__ = [
    "HeteroMap",
    "NUM_FEATURES",
    "NUM_TARGETS",
    "RunOutcome",
    "TARGET_NAMES",
    "TrainingDatabase",
    "TreeDecision",
    "build_training_database",
    "choice_signature",
    "config_from_equations",
    "decision_tree_predict",
    "encode_config",
    "encode_features",
    "gpu_config_from_equations",
    "label_sample",
    "make_predictor",
    "measure_overhead_ms",
    "multicore_config_from_equations",
    "predictor_names",
    "select_accelerator",
]
