"""Package-level API and error-hierarchy tests."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import errors


class TestLazyExports:
    def test_version(self):
        assert repro.__version__

    def test_heteromap_exported(self):
        from repro.core.heteromap import HeteroMap

        assert repro.HeteroMap is HeteroMap

    def test_run_outcome_exported(self):
        from repro.core.heteromap import RunOutcome

        assert repro.RunOutcome is RunOutcome

    def test_graph_exports(self):
        assert repro.CSRGraph is not None
        assert callable(repro.load_proxy_graph)
        assert callable(repro.dataset_names)

    def test_machine_exports(self):
        assert repro.AcceleratorSpec is not None
        assert callable(repro.get_accelerator)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            _ = repro.nonexistent_thing

    def test_serving_imports_leave_out_scipy_spatial(self):
        # The serving path uses SciPy only inside two calls, the
        # geometric-graph generator (scipy.spatial) and the
        # triangle-counting kernel (scipy.sparse), so the framework,
        # runtime and serving imports must not load any scipy module.
        code = (
            "import sys; import repro, repro.core.heteromap, repro.runtime, "
            "repro.runtime.deploy, repro.runtime.server; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
        )
        assert out.stdout.strip() == "[]"


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.GraphError,
            errors.GraphFormatError,
            errors.FeatureError,
            errors.MachineConfigError,
            errors.UnknownAcceleratorError,
            errors.UnknownBenchmarkError,
            errors.UnknownDatasetError,
            errors.PredictorError,
            errors.NotTrainedError,
            errors.TrainingError,
            errors.SimulationError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_format_error_is_graph_error(self):
        assert issubclass(errors.GraphFormatError, errors.GraphError)

    def test_not_trained_is_predictor_error(self):
        assert issubclass(errors.NotTrainedError, errors.PredictorError)

    def test_catchable_as_repro_error(self):
        from repro.graph.builders import empty_graph

        with pytest.raises(errors.ReproError):
            empty_graph(-5)
