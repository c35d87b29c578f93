"""Verification of analytic gradients against central finite differences."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .network import RecurrentRegressor


def gradient_check(net: RecurrentRegressor, windows: np.ndarray,
                   prev_state, targets, eps: float = 1e-5,
                   corrupt_forget_gate: bool = False):
    """Compare every analytic gradient coordinate with a central difference.

    Relative error uses max(|analytic|, |numeric|, 1e-6) as the denominator,
    so coordinates where both sides are tiny are judged on absolute terms.
    Returns (max_rel_error, rows) where rows are (coordinate, analytic,
    numeric, rel_error), a coordinate such as `lstm0.wx[0][1]`.

    `corrupt_forget_gate` deliberately scales the first cell layer's
    recurrent forget-gate gradient block — a self-test that the check can
    actually catch a wrong gradient.

    The network must be float64: a central difference at `eps` is below
    float32 resolution.
    """
    if net.dtype != np.float64:
        raise ConfigError(f"gradient check needs a float64 network, got {net.dtype}")
    _, grads = net.loss_and_gradients(windows, prev_state, targets)
    if corrupt_forget_gate and net.kind == "lstm":
        h = net.cells[0].hidden
        grads[1] = grads[1].copy()
        grads[1][h: 2 * h] *= 1.05

    rows = []
    worst = 0.0
    for (name, arr), g in zip(net.params(), grads):
        flat = arr.ravel()
        gflat = np.asarray(g).ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            lp = net.loss(windows, prev_state, targets)
            flat[idx] = orig - eps
            lm = net.loss(windows, prev_state, targets)
            flat[idx] = orig
            numeric = (lp - lm) / (2.0 * eps)
            analytic = gflat[idx]
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
            worst = max(worst, rel)
            coord = "".join(f"[{i}]" for i in np.unravel_index(idx, arr.shape))
            rows.append((f"{name}{coord}", float(analytic), float(numeric), float(rel)))
    return worst, rows

