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

from dataclasses import dataclass

import numpy as np

from .artifacts import read_float_csv, write_csv
from .dataset import NoiseSpec, ScalerParams, WindowedDataset, inject_state_noise
from .domain import Trajectory
from .errors import ConfigError, NumericalError
from .neural import COMPUTE_DTYPE, Adam, RecurrentRegressor, TrainConfig, lstm_observer_net
from .seeding import derived_rng

# every batch is split into this many shards; a constant, so the reduction
# order, and with it every output, is the same for any number of workers
SHARDS = 2

# the most windows one `net.features` call stacks at test time
FEATURE_BATCH = 512


@dataclass
class EstimateTrace:
    """Per-step state estimates in physical units, one per sensor frame."""

    t_s: np.ndarray
    estimates: np.ndarray  # (N, 3): vx, vy, yaw_rate

    def __post_init__(self):
        if self.estimates.shape != (self.t_s.shape[0], 3):
            raise ConfigError("trace shape mismatch")

    def __len__(self) -> int:
        return self.t_s.shape[0]


TRACE_COLUMNS = ("t", "vx_est", "vy_est", "yaw_rate_est")


def write_trace_csv(trace: EstimateTrace, path) -> None:
    rows = np.column_stack([trace.t_s, trace.estimates])
    write_csv(path, TRACE_COLUMNS, map(np.ndarray.tolist, rows))


def read_trace_csv(path) -> EstimateTrace:
    """Read a trace written by `write_trace_csv`."""
    data = read_float_csv(path, TRACE_COLUMNS)
    return EstimateTrace(data[:, 0], data[:, 1:4])


def write_training_log(log: list[dict], path) -> None:
    write_csv(path, ("epoch", "train_loss", "val_loss"),
              ((e["epoch"], e["train_loss"], e["val_loss"]) for e in log))


def _shards(lo: int, hi: int) -> list[slice]:
    """Rows lo..hi-1 of a batch as `np.array_split`'s SHARDS near-equal
    ranges, empty ones dropped."""
    return [slice(int(part[0]), int(part[-1]) + 1)
            for part in np.array_split(np.arange(lo, hi), SHARDS) if len(part)]


def sharded_loss_and_gradients(net: RecurrentRegressor, windows, prev, target):
    """`net.loss_and_gradients` of one batch, computed shard by shard and
    combined in float64, in shard order, each shard weighted by its share of
    the batch."""
    n = len(windows)
    loss = 0.0
    grads = [np.zeros(arr.shape) for _, arr in net.params()]
    for rows in _shards(0, n):
        part_loss, part_grads = net.loss_and_gradients(
            windows[rows], None if prev is None else prev[rows], target[rows])
        weight = (rows.stop - rows.start) / n
        loss += weight * part_loss
        for acc, g in zip(grads, part_grads):
            acc += weight * g.astype(np.float64)
    return loss, grads


def _batched_val_loss(net: RecurrentRegressor, ds: WindowedDataset,
                      batch_size: int) -> float:
    """Teacher-forced loss over `ds`, computed on a `COMPUTE_DTYPE` copy of
    `net` and reduced in float64; each batch is sharded like a training
    batch and its per-shard sums of squared errors are added in shard order."""
    net = net.astype(COMPUTE_DTYPE)
    total = 0.0
    for lo in range(0, len(ds), batch_size):
        for rows in _shards(lo, min(lo + batch_size, len(ds))):
            prev = ds.prev_state[rows] if net.state_dim else None
            diff = net.forward(ds.windows[rows], prev, check_finite=False) - ds.target[rows]
            total += float(np.sum(diff * diff))
    return total / (len(ds) * ds.target.shape[1])


def train_observer(train_ds: WindowedDataset, val_ds: WindowedDataset,
                   scaler: ScalerParams, noise: NoiseSpec, tc: TrainConfig,
                   net: RecurrentRegressor | None = None):
    """Train with noise-injected teacher forcing; returns (weights, log).

    Fresh Gaussian noise from `noise` is drawn for every sample's fed-back
    state each epoch, in physical units: `scaler` unscales the state before
    and scales it back after (stds of 0 reduce to plain teacher forcing).
    Validation uses noise-free teacher forcing; the weights of the best
    validation epoch are returned. The log records per-epoch mean train and
    val loss.

    Mixed precision: `net` is the master and Adam updates its weights. Every
    batch refreshes a `COMPUTE_DTYPE` working copy from the master, which
    computes the loss and the gradients; the gradients are combined in
    float64 and cast to the master's dtype before the update. Validation runs on a cast copy too.

    Shards: every batch is split into `SHARDS` near-equal row ranges
    (`np.array_split`, empty ones dropped), after the batch's state noise is
    drawn. Each shard's loss and gradients come from the one working copy,
    one shard after another, and are combined in float64, in shard order,
    each weighted by its share of the batch. Validation batches are sharded
    the same way.
    """
    if len(train_ds) == 0 or len(val_ds) == 0:
        raise ConfigError("training and validation sets must be non-empty")
    if net is None:
        net = lstm_observer_net(seed=tc.seed)
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
            prev = train_ds.prev_state[idx] if net.state_dim else None
            if inject and prev is not None:
                phys = scaler.unscale_state(prev)
                noisy = inject_state_noise(phys, noise, rng=noise_rng)
                prev = scaler.scale_state(noisy)
            work.load_flat(params)
            loss, grads = sharded_loss_and_gradients(
                work, train_ds.windows[idx], prev, train_ds.target[idx])
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
    scaled = scaler.scale_sensors(raw)
    windows = np.lib.stride_tricks.sliding_window_view(
        scaled, (window_len, scaled.shape[1]))[:, 0]
    return ((lo, net.features(windows[lo: lo + FEATURE_BATCH]))
            for lo in range(0, windows.shape[0], FEATURE_BATCH))


def run_closed_loop(traj: Trajectory, initial_state, net: RecurrentRegressor,
                    scaler: ScalerParams, window_len: int) -> EstimateTrace:
    """Closed-loop estimation over the sensor stream of `traj`.

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
    return EstimateTrace(traj.sensors[:, 0].copy(), estimates)
