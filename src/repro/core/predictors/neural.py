"""Feed-forward neural network predictors (Section V-B), from scratch.

The paper's network takes 17 input neurons (13 B + 4 I), two hidden layers
(a "4 layer" network counting input and output), and one output neuron per
M choice.  Hidden width is the model-size knob Table IV sweeps (Deep.16
through Deep.128, plus the next size up for the table's second 128-neuron
row, read here as Deep.256).

Implementation: NumPy MLP with tanh hidden activations, sigmoid outputs,
mean-squared-error loss, and Adam — deterministic for a given seed.
"""

from __future__ import annotations

import numpy as np

from repro.core.encoding import NUM_TARGETS
from repro.core.predictors.base import LearnedPredictor
from repro.core.predictors.confidence import squash_uncertainty

__all__ = ["DeepPredictor", "DEEP_SIZES"]

DEEP_SIZES = (16, 32, 64, 128, 256)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -40.0, 40.0)))


class DeepPredictor(LearnedPredictor):
    """Two-hidden-layer MLP regressor over the normalized M targets."""

    def __init__(
        self,
        hidden: int = 128,
        *,
        epochs: int = 300,
        learning_rate: float = 3e-3,
        batch_size: int = 64,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if hidden < 1:
            raise ValueError("hidden width must be positive")
        self.hidden = int(hidden)
        self.epochs = int(epochs)
        self.learning_rate = float(learning_rate)
        self.batch_size = int(batch_size)
        self.seed = int(seed)
        self.name = f"deep{hidden}"
        self._weights: list[np.ndarray] = []
        self._biases: list[np.ndarray] = []
        # Lazy weight-perturbation ensemble for confidence (see
        # _ensemble_weights); rebuilt after every fit.
        self._ensemble: list[list[np.ndarray]] | None = None

    #: Ensemble members used for the confidence spread.
    ENSEMBLE_MEMBERS = 5
    #: Perturbation magnitude, as a fraction of each matrix's weight std.
    ENSEMBLE_SIGMA = 0.05
    #: M1-spread at which confidence crosses 0.5 (half the decode
    #: threshold's decision margin).
    CONFIDENCE_SCALE = 0.05

    # -- forward/backward -------------------------------------------------

    def _forward(
        self, x: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        """Forward pass; returns output plus per-layer pre/post activations."""
        pre: list[np.ndarray] = []
        post: list[np.ndarray] = [x]
        h = x
        last = len(self._weights) - 1
        for i, (w, b) in enumerate(zip(self._weights, self._biases)):
            z = h @ w + b
            pre.append(z)
            h = _sigmoid(z) if i == last else np.tanh(z)
            post.append(h)
        return h, pre, post

    def _forward_with(
        self, x: np.ndarray, weights: list[np.ndarray], biases: list[np.ndarray]
    ) -> np.ndarray:
        """Plain forward pass through an arbitrary weight set (no caches)."""
        h = x
        last = len(weights) - 1
        for i, (w, b) in enumerate(zip(weights, biases)):
            z = h @ w + b
            h = _sigmoid(z) if i == last else np.tanh(z)
        return h

    def _fit(self, features: np.ndarray, targets: np.ndarray) -> None:
        rng = np.random.default_rng(self.seed)
        sizes = [features.shape[1], self.hidden, self.hidden, targets.shape[1]]
        self._weights = [
            rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
            for fan_in, fan_out in zip(sizes, sizes[1:])
        ]
        self._biases = [np.zeros(n) for n in sizes[1:]]

        # Adam state.
        m_w = [np.zeros_like(w) for w in self._weights]
        v_w = [np.zeros_like(w) for w in self._weights]
        m_b = [np.zeros_like(b) for b in self._biases]
        v_b = [np.zeros_like(b) for b in self._biases]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0

        n = features.shape[0]
        batch = min(self.batch_size, n)
        for _ in range(self.epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                x, y = features[idx], targets[idx]
                out, pre, post = self._forward(x)
                # MSE with sigmoid output; the accelerator-selection
                # column (M1) carries most of the performance impact, so
                # its error is weighted up.
                delta = (out - y) * out * (1.0 - out) * (2.0 / x.shape[0])
                delta[:, 0] *= 4.0
                grads_w: list[np.ndarray] = []
                grads_b: list[np.ndarray] = []
                for layer in range(len(self._weights) - 1, -1, -1):
                    grads_w.append(post[layer].T @ delta)
                    grads_b.append(delta.sum(axis=0))
                    if layer > 0:
                        delta = (delta @ self._weights[layer].T) * (
                            1.0 - np.tanh(pre[layer - 1]) ** 2
                        )
                grads_w.reverse()
                grads_b.reverse()
                step += 1
                lr_t = self.learning_rate * (
                    np.sqrt(1.0 - beta2**step) / (1.0 - beta1**step)
                )
                for i in range(len(self._weights)):
                    m_w[i] = beta1 * m_w[i] + (1 - beta1) * grads_w[i]
                    v_w[i] = beta2 * v_w[i] + (1 - beta2) * grads_w[i] ** 2
                    self._weights[i] -= lr_t * m_w[i] / (np.sqrt(v_w[i]) + eps)
                    m_b[i] = beta1 * m_b[i] + (1 - beta1) * grads_b[i]
                    v_b[i] = beta2 * v_b[i] + (1 - beta2) * grads_b[i] ** 2
                    self._biases[i] -= lr_t * m_b[i] / (np.sqrt(v_b[i]) + eps)

        self._ensemble = None

    def _predict(self, features: np.ndarray) -> np.ndarray:
        out, _, _ = self._forward(features)
        return out

    # -- confidence --------------------------------------------------------

    def _ensemble_weights(self) -> list[list[np.ndarray]]:
        """Deterministic weight-perturbation ensemble around the trained net.

        Each member adds seeded Gaussian noise (``ENSEMBLE_SIGMA`` × that
        matrix's weight std) to every weight matrix; biases are shared.
        Where the fitted function is flat, the members agree and the M1
        spread vanishes; near decision boundaries they disagree.  The
        ensemble is built lazily once per fit and is a pure side
        structure: ``_predict`` never touches it.
        """
        if self._ensemble is None:
            rng = np.random.default_rng(self.seed + 1)
            members: list[list[np.ndarray]] = []
            for _ in range(self.ENSEMBLE_MEMBERS):
                members.append(
                    [
                        w
                        + rng.normal(
                            0.0,
                            self.ENSEMBLE_SIGMA * (float(w.std()) or 1.0),
                            size=w.shape,
                        )
                        for w in self._weights
                    ]
                )
            self._ensemble = members
        return self._ensemble

    def _confidence(self, features: np.ndarray) -> np.ndarray:
        """Confidence from the M1 spread across the perturbed ensemble."""
        outputs = np.stack(
            [
                self._forward_with(features, weights, self._biases)[:, 0]
                for weights in self._ensemble_weights()
            ]
        )
        return squash_uncertainty(outputs.std(axis=0), self.CONFIDENCE_SCALE)
