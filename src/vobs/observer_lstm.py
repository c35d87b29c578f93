"""Recurrent velocity observer: noise-injected teacher forcing for training,
closed-loop self-fed estimation at test time.

During training the state input is the ground truth of the previous step
with fresh Gaussian noise added every epoch (in physical units, before
scaling), which teaches the network to correct an imperfect fed-back state.
At test time the observer's own previous estimate is fed back, so the loop
closes and no ground truth is consumed after the provided initial state.

The scaler, the state-noise spec and the window length are plain arguments;
the pipeline passes the run config's values, which hold the one default.
"""

from __future__ import annotations

import numpy as np

from .artifacts import write_csv
from .dataset import (N_SENSOR, N_STATE, NoiseSpec, ScalerParams, WindowedDataset,
                      inject_state_noise, sliding_windows)
from .domain import Trajectory
from .errors import ConfigError, NumericalError
from .neural import COMPUTE_DTYPE, Adam, RecurrentRegressor, TrainConfig, build_net
from .seeding import derived_rng

# the most windows one `net.features` call stacks at test time
FEATURE_BATCH = 512
# the observer architecture: the widths of its cell stack and its dense head,
# and the state inputs of each kind (the GRU baseline takes none)
HIDDEN_WIDTHS = (32, 64, 64, 128)
DENSE_WIDTHS = (64, 128, 64)
STATE_INPUTS = {"lstm": N_STATE, "gru": 0}


TRACE_COLUMNS = ("t", "vx_est", "vy_est", "yaw_rate_est")


def write_trace_csv(estimates: np.ndarray, path, t_s: np.ndarray) -> None:
    """Write (N, 3) `estimates`, one row per frame, after its time in `t_s`."""
    rows = np.column_stack([t_s, estimates])
    write_csv(path, TRACE_COLUMNS, map(np.ndarray.tolist, rows))


def write_training_log(log: list[dict], path) -> None:
    write_csv(path, ("epoch", "train_loss", "val_loss"),
              ((e["epoch"], e["train_loss"], e["val_loss"]) for e in log))


def _batched_val_loss(net: RecurrentRegressor, ds: WindowedDataset,
                      batch_size: int) -> float:
    """Teacher-forced loss over `ds`, computed on a `COMPUTE_DTYPE` copy of
    `net` one batch at a time; the batches' sums of squared errors are added
    in float64."""
    net = net.astype(COMPUTE_DTYPE)
    total = 0.0
    for lo in range(0, len(ds), batch_size):
        windows, prev, target = ds.batch(slice(lo, lo + batch_size))
        diff = net.forward(windows, prev if net.state_dim else None) - target
        total += float(np.sum(diff * diff))
    return total / (len(ds) * ds.states.shape[1])


def observer_net(kind: str, seed: int) -> RecurrentRegressor:
    """A freshly initialized `kind` observer net, its weights drawn from `seed`:
    the sensor window through the cell stack, its last hidden vector and the
    `STATE_INPUTS` of `kind` through the dense head to the state estimate."""
    return build_net(kind, seed, N_SENSOR, HIDDEN_WIDTHS, DENSE_WIDTHS, N_STATE,
                     STATE_INPUTS[kind])


def train_observer(train_ds: WindowedDataset, val_ds: WindowedDataset,
                   scaler: ScalerParams, noise: NoiseSpec, tc: TrainConfig,
                   net: RecurrentRegressor):
    """Train `net` with noise-injected teacher forcing; returns (weights, log).

    Fresh Gaussian noise from `noise` is drawn for every sample's fed-back
    state each epoch, in physical units: `scaler` unscales the state before
    and scales it back after (stds of 0 reduce to plain teacher forcing).
    Validation uses noise-free teacher forcing; the weights of the best
    validation epoch are returned. The log records per-epoch mean train and
    val loss.

    Mixed precision: `net` is the master and Adam updates its weights. Every
    batch refreshes a `COMPUTE_DTYPE` working copy from the master, which
    computes the whole batch's loss and gradients in one call; the gradients
    are cast to the master's dtype before the update. Validation runs on a
    cast copy too.
    """
    if len(train_ds) == 0 or len(val_ds) == 0:
        raise ConfigError("training and validation sets must be non-empty")
    params = [arr for _, arr in net.params()]
    adam = Adam(params, lr=tc.learning_rate)
    work = net.astype(COMPUTE_DTYPE)
    stds = noise.stds()
    inject = bool((stds > 0).any())

    best_val = np.inf
    best_weights = net.copy_weights()
    log: list[dict] = []
    n = len(train_ds)
    for epoch in range(1, tc.epochs + 1):
        if tc.shuffle:
            order = derived_rng(tc.seed, "shuffle", epoch).permutation(n)
        else:
            order = np.arange(n)
        noise_rng = derived_rng(noise.seed, "state-noise", epoch)

        epoch_sum = 0.0
        for bidx, lo in enumerate(range(0, n, tc.batch_size)):
            idx = order[lo: lo + tc.batch_size]
            windows, prev, target = train_ds.batch(idx)
            prev = prev if net.state_dim else None
            if inject and prev is not None:
                phys = scaler.unscale_state(prev)
                noisy = inject_state_noise(phys, noise, rng=noise_rng)
                prev = scaler.scale_state(noisy)
            work.load_flat(params)
            loss, grads = work.loss_and_gradients(windows, prev, target)
            if not np.isfinite(loss):
                raise NumericalError(
                    f"training diverged (non-finite loss) at epoch {epoch}, batch {bidx}")
            adam.step(params, [g.astype(net.dtype, copy=False) for g in grads])
            epoch_sum += loss * len(idx)

        val_loss = _batched_val_loss(net, val_ds, tc.batch_size)
        log.append({"epoch": epoch, "train_loss": epoch_sum / n, "val_loss": val_loss})
        if val_loss < best_val:
            best_val = val_loss
            best_weights = net.copy_weights()

    net.load_flat(best_weights)
    return net, log


def window_features(raw: np.ndarray, scaler: ScalerParams, net: RecurrentRegressor,
                    window_len: int):
    """(first window index, features) batches over every sliding window of the
    raw sensor matrix, scaled; each batch is one `net.features` call on at
    most `FEATURE_BATCH` windows, computed as the batches are consumed."""
    n = raw.shape[0]
    if n < window_len:
        raise ConfigError(f"need at least {window_len} frames, got {n}")
    windows = sliding_windows(scaler.scale_sensors(raw), window_len)
    return ((lo, net.features(windows[lo: lo + FEATURE_BATCH]))
            for lo in range(0, windows.shape[0], FEATURE_BATCH))


def run_closed_loop(traj: Trajectory, initial_state, net: RecurrentRegressor,
                    scaler: ScalerParams, window_len: int) -> np.ndarray:
    """(N, 3) closed-loop estimates over the sensor stream of `traj`.

    Emits the provided initial state for the first window_len - 1 steps,
    then feeds each estimate back as the next step's state input. Ground
    truth is never read. The window branch of the network depends only on
    the sensors, so its features are precomputed in batches; the recurrent
    feedback runs through the dense head sequentially.
    """
    w = window_len
    initial = np.asarray(initial_state, dtype=np.float64).reshape(3)

    estimates = np.empty((len(traj), 3))
    estimates[: w - 1] = initial
    prev_scaled = scaler.scale_state(initial)[None]
    for lo, feats in window_features(traj.sensor_channels(), scaler, net, w):
        for j in range(feats.shape[0]):
            out = net.head_forward(feats[j: j + 1], prev_scaled)
            estimates[w - 1 + lo + j] = scaler.unscale_state(out[0])
            prev_scaled = out
    return estimates
