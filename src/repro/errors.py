"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to distinguish graph construction problems from prediction
or configuration problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GraphError(ReproError):
    """Raised for invalid graph construction or malformed graph data."""


class GraphFormatError(GraphError):
    """Raised when parsing an on-disk graph representation fails."""


class FeatureError(ReproError):
    """Raised for invalid B/I feature variable values."""


class MachineConfigError(ReproError):
    """Raised for invalid machine (M) variable configurations."""


class UnknownAcceleratorError(MachineConfigError):
    """Raised when an accelerator name is not in the spec registry."""


class UnknownBenchmarkError(ReproError):
    """Raised when a benchmark name is not in the kernel registry."""


class UnknownDatasetError(ReproError):
    """Raised when a dataset name is not in the dataset registry."""


class PredictorError(ReproError):
    """Raised for predictor misuse (e.g. predicting before training)."""


class NotTrainedError(PredictorError):
    """Raised when a learned predictor is queried before :meth:`fit`."""


class TrainingError(PredictorError):
    """Raised when a training pipeline receives unusable data."""


class SimulationError(ReproError):
    """Raised when the accelerator simulator receives an invalid workload."""


class ObservabilityError(ReproError):
    """Raised for invalid observability configuration (``REPRO_OBS``)."""


class ValidationError(ReproError):
    """Raised by the property-based validation subsystem."""


class InvariantViolation(ValidationError):
    """Raised when a kernel result breaks a registered invariant."""


class OracleMismatchError(ValidationError):
    """Raised when an optimized path diverges from its reference."""
