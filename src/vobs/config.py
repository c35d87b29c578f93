"""Run configuration: one YAML file describes corpus, noise, split, dataset
geometry, training, observers, and evaluation; CLI flags override individual
keys. All randomness derives from the single master seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import yaml

from .dataset import NoiseSpec, SplitSpec
from .errors import ConfigError
from .evaluation import SegmentSpec
from .neural import TrainConfig
from .simulator import MANEUVER_KINDS, SensorNoiseSpec

ENV_OUT_ROOT = "VOBS_OUT"

OBSERVER_TYPES = ("lstm", "gru", "ekf")


@dataclass(frozen=True)
class CorpusEntry:
    """One block of repeated maneuvers in the corpus."""

    kind: str
    intensity: float
    count: int = 1
    duration_s: float | None = None

    def __post_init__(self):
        if self.kind not in MANEUVER_KINDS:
            raise ConfigError(f"unknown maneuver kind '{self.kind}'")
        if not 0.0 < self.intensity <= 1.0:
            raise ConfigError(f"intensity must be in (0, 1], got {self.intensity}")
        if self.count < 1:
            raise ConfigError(f"count must be >= 1, got {self.count}")

    @property
    def label(self) -> str:
        return f"{self.kind}@{self.intensity:.2f}"


@dataclass(frozen=True)
class ObserverSpec:
    """One observer to train and/or evaluate."""

    name: str
    type: str
    state_noise: bool = True        # lstm only: inject state noise in training
    ekf_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.type not in OBSERVER_TYPES:
            raise ConfigError(f"observer '{self.name}': unknown type '{self.type}'")

    @property
    def trainable(self) -> bool:
        return self.type in ("lstm", "gru")


@dataclass
class RunConfig:
    master_seed: int
    out_dir: str
    corpus: list[CorpusEntry]
    sensor_noise: SensorNoiseSpec
    split: SplitSpec
    window_len: int
    train_stride: int
    val_stride: int
    state_noise: NoiseSpec
    train: TrainConfig
    observers: dict[str, ObserverSpec]
    segments: SegmentSpec
    workers: int = 1


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"missing '{key}' in {where}")
    return mapping[key]


def default_out_root() -> str:
    return os.environ.get(ENV_OUT_ROOT, "runs")


def load_config(path, seed: int | None = None, out_dir: str | None = None,
                workers: int | None = None, epochs: int | None = None) -> RunConfig:
    """Parse and validate a run configuration; keyword arguments are the CLI
    overrides and win over file values."""
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return build_config(doc, seed=seed, out_dir=out_dir, workers=workers,
                        epochs=epochs, where=str(path))


def build_config(doc: dict, seed: int | None = None, out_dir: str | None = None,
                 workers: int | None = None, epochs: int | None = None,
                 where: str = "config") -> RunConfig:
    master_seed = seed if seed is not None else int(doc.get("master_seed", 0))

    resolved_out = out_dir or doc.get("out_dir")
    if resolved_out is None:
        resolved_out = os.path.join(default_out_root(), f"seed{master_seed}")

    corpus_doc = _require(doc, "corpus", where)
    if not isinstance(corpus_doc, list) or not corpus_doc:
        raise ConfigError(f"{where}: corpus must be a non-empty list")
    corpus = [CorpusEntry(
        kind=_require(entry, "kind", "corpus entry"),
        intensity=float(_require(entry, "intensity", "corpus entry")),
        count=int(entry.get("count", 1)),
        duration_s=float(entry["duration_s"]) if "duration_s" in entry else None,
    ) for entry in corpus_doc]

    noise_doc = doc.get("sensor_noise", {})
    sensor_noise = SensorNoiseSpec(
        std_ax=float(noise_doc.get("std_ax", 0.05)),
        std_ay=float(noise_doc.get("std_ay", 0.05)),
        std_yaw_rate=float(noise_doc.get("std_yaw_rate", 0.002)),
        std_wheel_speed=float(noise_doc.get("std_wheel_speed", 0.03)),
        std_steering=float(noise_doc.get("std_steering", 0.001)),
        bias_ax=float(noise_doc.get("bias_ax", 0.0)),
        bias_ay=float(noise_doc.get("bias_ay", 0.0)),
        bias_yaw_rate=float(noise_doc.get("bias_yaw_rate", 0.0)),
        bias_wheel_speed=float(noise_doc.get("bias_wheel_speed", 0.0)),
        bias_steering=float(noise_doc.get("bias_steering", 0.0)),
    )

    split_doc = doc.get("split", {})
    split = SplitSpec(
        train=float(split_doc.get("train", 0.6)),
        val=float(split_doc.get("val", 0.2)),
        test=float(split_doc.get("test", 0.2)),
    )

    ds_doc = doc.get("dataset", {})
    window_len = int(ds_doc.get("window_len", 50))
    train_stride = int(ds_doc.get("train_stride", 1))
    val_stride = int(ds_doc.get("val_stride", 1))

    sn_doc = doc.get("state_noise", {})
    state_noise = NoiseSpec(
        std_v_mps=float(sn_doc.get("std_v_mps", 0.03)),
        std_yaw_rate_radps=float(sn_doc.get("std_yaw_rate_radps", 0.003)),
    )

    tr_doc = doc.get("train", {})
    train = TrainConfig(
        epochs=epochs if epochs is not None else int(tr_doc.get("epochs", 50)),
        batch_size=int(tr_doc.get("batch_size", 256)),
        learning_rate=float(tr_doc.get("learning_rate", 1e-3)),
        shuffle=bool(tr_doc.get("shuffle", True)),
    )

    obs_doc = doc.get("observers")
    if obs_doc is None:
        obs_doc = {
            "lstm": {"type": "lstm", "state_noise": True},
            "gru": {"type": "gru"},
            "ekf": {"type": "ekf"},
        }
    observers = {}
    for name, spec in obs_doc.items():
        spec = spec or {}
        observers[name] = ObserverSpec(
            name=name,
            type=_require(spec, "type", f"observer '{name}'"),
            state_noise=bool(spec.get("state_noise", True)),
            ekf_overrides={k: v for k, v in spec.items()
                           if k in ("q", "r", "p0", "cornering_stiffness_front",
                                    "cornering_stiffness_rear")},
        )

    ev_doc = doc.get("evaluation", {})
    segments = SegmentSpec(
        normal_threshold_g=float(ev_doc.get("normal_threshold_g", 0.5)),
        near_limits_max_g=float(ev_doc.get("near_limits_max_g", 0.8)),
    )

    n_workers = workers if workers is not None else doc.get("workers", 1)
    if isinstance(n_workers, bool) or not isinstance(n_workers, int) or n_workers < 1:
        source = "--workers" if workers is not None else f"{where}: workers"
        raise ConfigError(f"{source} must be an integer >= 1, got {n_workers!r}")

    return RunConfig(
        master_seed=master_seed,
        out_dir=resolved_out,
        corpus=corpus,
        sensor_noise=sensor_noise,
        split=split,
        window_len=window_len,
        train_stride=train_stride,
        val_stride=val_stride,
        state_noise=state_noise,
        train=train,
        observers=observers,
        segments=segments,
        workers=n_workers,
    )
