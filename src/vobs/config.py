"""Run configuration: one YAML file describes corpus, noise, split, dataset
geometry, training, observers, and evaluation; CLI flags override individual
keys. All randomness derives from the single master seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

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


TOP_LEVEL_KEYS = ("master_seed", "out_dir", "workers", "corpus", "sensor_noise", "split",
                  "dataset", "state_noise", "train", "observers", "evaluation")
CORPUS_ENTRY_TYPES = {"kind": str, "intensity": float, "count": int, "duration_s": float}
DATASET_TYPES = {"window_len": int, "train_stride": int, "val_stride": int}
TRAIN_TYPES = {"epochs": int, "batch_size": int, "learning_rate": float, "shuffle": bool}
EKF_OVERRIDE_KEYS = ("q", "r", "p0", "cornering_stiffness_front", "cornering_stiffness_rear")
OBSERVER_KEYS = ("type", "state_noise") + EKF_OVERRIDE_KEYS


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"missing '{key}' in {where}")
    return mapping[key]


def _check_keys(mapping, allowed, section: str, where: str) -> dict:
    """`mapping` itself, once it is a mapping whose keys are all in `allowed`."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where}: {section} must be a mapping")
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{where}: unknown key '{key}' in {section} "
                              f"(expected one of: {', '.join(allowed)})")
    return mapping


def _section(mapping, section: str, where: str, types: dict) -> dict:
    """The keyword arguments of one section: each value converted by the type
    of its key; a key missing from `types` or a value that does not convert
    is an error."""
    _check_keys(mapping, tuple(types), section, where)
    kwargs = {}
    for key, value in mapping.items():
        try:
            kwargs[key] = types[key](value)
        except (TypeError, ValueError):
            raise ConfigError(f"{where}: {section}.{key} must be "
                              f"{types[key].__name__}, got {value!r}") from None
    return kwargs


def _float_fields(cls) -> dict:
    """Every settable field of a float-valued spec; the seed is derived."""
    return {f.name: float for f in fields(cls) if f.name != "seed"}


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
    _check_keys(doc, TOP_LEVEL_KEYS, "the top level", where)
    master_seed = seed if seed is not None else int(doc.get("master_seed", 0))

    resolved_out = out_dir or doc.get("out_dir")
    if resolved_out is None:
        resolved_out = os.path.join(default_out_root(), f"seed{master_seed}")

    corpus_doc = _require(doc, "corpus", where)
    if not isinstance(corpus_doc, list) or not corpus_doc:
        raise ConfigError(f"{where}: corpus must be a non-empty list")
    corpus = []
    for k, entry in enumerate(corpus_doc):
        section = f"corpus entry {k}"
        kwargs = _section(entry, section, where, CORPUS_ENTRY_TYPES)
        _require(kwargs, "kind", section)
        _require(kwargs, "intensity", section)
        corpus.append(CorpusEntry(**kwargs))

    sensor_noise = SensorNoiseSpec(**_section(
        doc.get("sensor_noise", {}), "sensor_noise", where, _float_fields(SensorNoiseSpec)))
    split = SplitSpec(**_section(doc.get("split", {}), "split", where, _float_fields(SplitSpec)))
    ds_doc = _section(doc.get("dataset", {}), "dataset", where, DATASET_TYPES)
    state_noise = NoiseSpec(**_section(
        doc.get("state_noise", {}), "state_noise", where, _float_fields(NoiseSpec)))
    tr_doc = _section(doc.get("train", {}), "train", where, TRAIN_TYPES)
    if epochs is not None:
        tr_doc["epochs"] = epochs
    train = TrainConfig(**tr_doc)

    obs_doc = doc.get("observers")
    if obs_doc is None:
        obs_doc = {
            "lstm": {"type": "lstm", "state_noise": True},
            "gru": {"type": "gru"},
            "ekf": {"type": "ekf"},
        }
    if not isinstance(obs_doc, dict):
        raise ConfigError(f"{where}: observers must be a mapping")
    observers = {}
    for name, spec in obs_doc.items():
        spec = _check_keys(spec or {}, OBSERVER_KEYS, f"observer '{name}'", where)
        observers[name] = ObserverSpec(
            name=name,
            type=_require(spec, "type", f"observer '{name}'"),
            state_noise=bool(spec.get("state_noise", True)),
            ekf_overrides={k: v for k, v in spec.items() if k in EKF_OVERRIDE_KEYS},
        )

    segments = SegmentSpec(**_section(
        doc.get("evaluation", {}), "evaluation", where, _float_fields(SegmentSpec)))

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
        window_len=ds_doc.get("window_len", 50),
        train_stride=ds_doc.get("train_stride", 1),
        val_stride=ds_doc.get("val_stride", 1),
        state_noise=state_noise,
        train=train,
        observers=observers,
        segments=segments,
        workers=n_workers,
    )
