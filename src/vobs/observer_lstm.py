"""Recurrent velocity observer: noise-injected teacher forcing for training,
closed-loop self-fed estimation at test time.

During training the state input is the ground truth of the previous step
with fresh Gaussian noise added every epoch (in physical units, before
scaling), which teaches the network to correct an imperfect fed-back state.
At test time the observer's own previous estimate is fed back, so the loop
closes and no ground truth is consumed after the provided initial state.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .dataset import NoiseSpec, ScalerParams, WindowedDataset, inject_state_noise
from .domain import SENSOR_CHANNELS, STATE_CHANNELS, Trajectory
from .errors import ConfigError, DataFormatError, NumericalError
from .neural import COMPUTE_DTYPE, Adam, RecurrentRegressor, TrainConfig, lstm_observer_net
from .seeding import derived_rng


@dataclass(frozen=True)
class ObserverConfig:
    """Window geometry, channel set, state-noise spec, and scaler."""

    scaler: ScalerParams
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    window_len: int = 50
    sensor_channels: tuple = SENSOR_CHANNELS
    state_channels: tuple = STATE_CHANNELS

    def __post_init__(self):
        if self.window_len < 1:
            raise ConfigError("window_len must be >= 1")


@dataclass
class EstimateTrace:
    """Per-step state estimates in physical units.

    The first `warmup_len` entries replicate the initial state handed to the
    observer (no full sensor window exists yet).
    """

    t_s: np.ndarray
    estimates: np.ndarray  # (N, 3): vx, vy, yaw_rate
    warmup_len: int = 0

    def __post_init__(self):
        if self.estimates.shape != (self.t_s.shape[0], 3):
            raise ConfigError("trace shape mismatch")

    def __len__(self) -> int:
        return self.t_s.shape[0]


def write_trace_csv(trace: EstimateTrace, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("t,vx_est,vy_est,yaw_rate_est\n")
        for i in range(len(trace)):
            row = [trace.t_s[i]] + list(trace.estimates[i])
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_trace_csv(path, warmup_len: int = 0) -> EstimateTrace:
    """Read a trace written by `write_trace_csv`."""
    expected = ["t", "vx_est", "vy_est", "yaw_rate_est"]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected:
            raise DataFormatError(f"{path}:1: not a trace file (header {header!r})")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(expected):
                raise DataFormatError(f"{path}:{lineno}: expected {len(expected)} columns")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
    data = np.array(rows, dtype=np.float64).reshape(-1, len(expected))
    return EstimateTrace(data[:, 0], data[:, 1:4], warmup_len=warmup_len)


def write_training_log(log: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("epoch,train_loss,val_loss\n")
        for entry in log:
            fh.write(f"{entry['epoch']},{entry['train_loss']!r},{entry['val_loss']!r}\n")


def _batched_val_loss(net: RecurrentRegressor, ds: WindowedDataset,
                      batch_size: int) -> float:
    """Teacher-forced loss over `ds`, computed on a `COMPUTE_DTYPE` copy of
    `net` and reduced in float64."""
    net = net.astype(COMPUTE_DTYPE)
    total = 0.0
    for lo in range(0, len(ds), batch_size):
        hi = min(lo + batch_size, len(ds))
        prev = ds.prev_state[lo:hi] if net.state_dim else None
        pred = net.forward(ds.windows[lo:hi], prev, check_finite=False)
        diff = pred - ds.target[lo:hi]
        total += float(np.sum(diff * diff))
    return total / (len(ds) * ds.target.shape[1])


def train_observer(train_ds: WindowedDataset, val_ds: WindowedDataset,
                   cfg: ObserverConfig, tc: TrainConfig,
                   net: RecurrentRegressor | None = None):
    """Train with noise-injected teacher forcing; returns (weights, log).

    Fresh Gaussian noise is drawn for every sample's fed-back state each
    epoch (stds of 0 reduce to plain teacher forcing). Validation uses
    noise-free teacher forcing; the weights of the best validation epoch are
    returned. The log records per-epoch mean train and val loss.

    Mixed precision: `net` is the master and Adam updates its weights. Every
    batch refreshes a `COMPUTE_DTYPE` working copy from the master, which
    computes the loss and the gradients; the gradients are cast back to the
    master's dtype before the update. Validation runs on a cast copy too.
    """
    if len(train_ds) == 0 or len(val_ds) == 0:
        raise ConfigError("training and validation sets must be non-empty")
    if net is None:
        net = lstm_observer_net(seed=tc.seed)
    params = [arr for _, arr in net.params()]
    adam = Adam(params, lr=tc.learning_rate)
    work = net.astype(COMPUTE_DTYPE)
    stds = cfg.noise.stds()
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
        noise_rng = derived_rng(cfg.noise.seed, "state-noise", epoch)

        epoch_sum = 0.0
        for bidx, lo in enumerate(range(0, n, tc.batch_size)):
            idx = order[lo: lo + tc.batch_size]
            prev = train_ds.prev_state[idx] if net.state_dim else None
            if inject and prev is not None:
                phys = cfg.scaler.unscale_state(prev)
                noisy = inject_state_noise(phys, cfg.noise, rng=noise_rng)
                prev = cfg.scaler.scale_state(noisy)
            work.load_flat(params)
            loss, grads = work.loss_and_gradients(
                train_ds.windows[idx], prev, train_ds.target[idx])
            if not np.isfinite(loss):
                raise NumericalError(
                    f"training diverged (non-finite loss) at epoch {epoch}, batch {bidx}")
            adam.step(params, [g.astype(net.dtype) for g in grads])
            epoch_sum += loss * len(idx)

        val_loss = _batched_val_loss(net, val_ds, tc.batch_size)
        log.append({"epoch": epoch, "train_loss": epoch_sum / n, "val_loss": val_loss})
        if val_loss < best_val:
            best_val = val_loss
            best_weights = net.copy_weights()

    net.load_flat(best_weights)
    return net, log


def sensor_stream(frames) -> tuple[np.ndarray, np.ndarray]:
    """(t, raw 5-channel matrix) of a Trajectory or an (N, 6) array of sensor
    rows."""
    if isinstance(frames, Trajectory):
        return frames.sensors[:, 0], frames.sensor_channels()
    arr = np.asarray(frames, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 6:
        raise ConfigError(f"expected (N, 6) sensor rows, got {arr.shape}")
    return arr[:, 0], arr[:, 1:6]


def window_features(raw: np.ndarray, scaler: ScalerParams, net: RecurrentRegressor,
                    window_len: int, feature_batch: int):
    """(first window index, features) batches over every sliding window of the
    raw sensor matrix, scaled; each batch is one `net.features` call on at
    most `feature_batch` windows, computed as the batches are consumed."""
    n = raw.shape[0]
    if n < window_len:
        raise ConfigError(f"need at least {window_len} frames, got {n}")
    scaled = scaler.scale_sensors(raw)
    windows = np.lib.stride_tricks.sliding_window_view(
        scaled, (window_len, scaled.shape[1]))[:, 0]
    return ((lo, net.features(windows[lo: lo + feature_batch]))
            for lo in range(0, windows.shape[0], feature_batch))


def estimate_step(window, prev_estimate, net: RecurrentRegressor,
                  cfg: ObserverConfig) -> np.ndarray:
    """One observer step: scale inputs, run the network, unscale the output.

    `window` is the last window_len raw sensor frames (oldest first);
    `prev_estimate` is the previous state estimate in physical units.
    """
    if isinstance(window, list):
        raw = np.array([f.as_array()[1:6] for f in window])
    else:
        raw = np.asarray(window, dtype=np.float64)
        if raw.ndim == 2 and raw.shape[1] == 6:
            raw = raw[:, 1:6]
    if raw.shape != (cfg.window_len, len(cfg.sensor_channels)):
        raise ConfigError(f"window must be {(cfg.window_len, 5)}, got {raw.shape}")
    scaled = cfg.scaler.scale_sensors(raw)
    prev_scaled = cfg.scaler.scale_state(np.asarray(prev_estimate, dtype=np.float64))
    out = net.forward(scaled, prev_scaled)
    return cfg.scaler.unscale_state(out[0])


def run_closed_loop(frames, initial_state, net: RecurrentRegressor,
                    cfg: ObserverConfig, feature_batch: int = 512) -> EstimateTrace:
    """Closed-loop estimation over a sensor stream.

    Emits the provided initial state for the first window_len - 1 steps,
    then feeds each estimate back as the next step's state input. Ground
    truth is never read. The window branch of the network depends only on
    the sensors, so its features are precomputed in batches; the recurrent
    feedback runs through the dense head sequentially.
    """
    t, raw = sensor_stream(frames)
    w = cfg.window_len
    initial = np.asarray(initial_state, dtype=np.float64).reshape(3)

    estimates = np.empty((raw.shape[0], 3))
    estimates[: w - 1] = initial
    prev_scaled = cfg.scaler.scale_state(initial)[None]
    for lo, feats in window_features(raw, cfg.scaler, net, w, feature_batch):
        for j in range(feats.shape[0]):
            out = net.head_forward(feats[j: j + 1], prev_scaled)
            estimates[w - 1 + lo + j] = cfg.scaler.unscale_state(out[0])
            prev_scaled = out
    return EstimateTrace(t.copy(), estimates, warmup_len=w - 1)
