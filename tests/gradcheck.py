"""Verification of analytic gradients against central finite differences."""

import numpy as np

from vobs.errors import ConfigError
from vobs.neural import RecurrentRegressor, l2_loss


def gradient_check(net: RecurrentRegressor, windows: np.ndarray,
                   prev_state, targets, eps: float = 1e-5):
    """Compare every analytic gradient coordinate with a central difference.

    Relative error uses max(|analytic|, |numeric|, 1e-6) as the denominator,
    so coordinates where both sides are tiny are judged on absolute terms.
    Returns (max_rel_error, rows) where rows are (coordinate, analytic,
    numeric, rel_error), a coordinate such as `lstm0.wx[0][1]`.

    The network must be float64: a central difference at `eps` is below
    float32 resolution.
    """
    if net.dtype != np.float64:
        raise ConfigError(f"gradient check needs a float64 network, got {net.dtype}")
    _, grads = net.loss_and_gradients(windows, prev_state, targets)

    def loss():
        return l2_loss(net.forward(windows, prev_state), targets)

    rows = []
    worst = 0.0
    for (name, arr), g in zip(net.params(), grads):
        flat = arr.ravel()
        gflat = np.asarray(g).ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            lp = loss()
            flat[idx] = orig - eps
            lm = loss()
            flat[idx] = orig
            numeric = (lp - lm) / (2.0 * eps)
            analytic = gflat[idx]
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
            worst = max(worst, rel)
            coord = "".join(f"[{i}]" for i in np.unravel_index(idx, arr.shape))
            rows.append((f"{name}{coord}", float(analytic), float(numeric), float(rel)))
    return worst, rows
