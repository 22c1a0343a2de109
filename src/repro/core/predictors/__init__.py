"""Predictor zoo: analytical tree, regressions, adaptive library, MLPs."""

from repro.core.predictors.adaptive import AdaptiveLibraryPredictor
from repro.core.predictors.analytical import AnalyticalTreePredictor
from repro.core.predictors.base import LearnedPredictor, Predictor
from repro.core.predictors.confidence import squash_uncertainty
from repro.core.predictors.linear import LinearPredictor
from repro.core.predictors.neural import DEEP_SIZES, DeepPredictor
from repro.core.predictors.polynomial import PolynomialPredictor
from repro.core.predictors.tree_learner import CartPredictor

__all__ = [
    "AdaptiveLibraryPredictor",
    "AnalyticalTreePredictor",
    "CartPredictor",
    "DEEP_SIZES",
    "DeepPredictor",
    "LearnedPredictor",
    "LinearPredictor",
    "PolynomialPredictor",
    "make_predictor",
    "predictor_names",
    "squash_uncertainty",
]


def predictor_names() -> list[str]:
    """Canonical learner names in Table IV order (plus the CART extension)."""
    return [
        "decision_tree",
        "linear",
        "multi_regression",
        "adaptive_library",
        "deep16",
        "deep32",
        "deep64",
        "deep128",
        "deep256",
        "cart",
    ]


def make_predictor(name: str, gpu=None, multicore=None, *, seed: int = 0):
    """Instantiate a predictor by canonical name.

    The analytical tree needs the accelerator pair; learned predictors
    ignore those arguments.

    Raises:
        ValueError: for unknown names.
    """
    key = name.lower()
    if key == "decision_tree":
        if gpu is None or multicore is None:
            raise ValueError("decision_tree needs the accelerator pair")
        return AnalyticalTreePredictor(gpu, multicore)
    if key == "linear":
        return LinearPredictor()
    if key in ("multi_regression", "poly7"):
        return PolynomialPredictor()
    if key == "adaptive_library":
        return AdaptiveLibraryPredictor()
    if key == "cart":
        return CartPredictor()
    if key.startswith("deep"):
        hidden = int(key.removeprefix("deep"))
        if hidden not in DEEP_SIZES:
            raise ValueError(f"unsupported deep size {hidden}; known: {DEEP_SIZES}")
        return DeepPredictor(hidden, seed=seed)
    raise ValueError(f"unknown predictor {name!r}; known: {predictor_names()}")
