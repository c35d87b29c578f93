"""Adam optimizer with bias correction, operating in place on parameter arrays."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError

# the moment decay rates and the denominator's floor
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """First/second moment accumulators mirroring one parameter list."""

    def __init__(self, params: list[np.ndarray], lr: float):
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """One bias-corrected update; arrays are modified in place."""
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ConfigError("optimizer state does not match parameter list")
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
