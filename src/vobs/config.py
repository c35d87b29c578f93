"""Run configuration: one YAML file describes corpus, noise, split, dataset
geometry, training, observers, and evaluation; CLI flags override individual
keys. All randomness derives from the single master seed.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, fields

import yaml

from .baselines import EkfConfig
from .dataset import NoiseSpec, SplitSpec
from .errors import ConfigError
from .evaluation import SegmentSpec
from .neural import TrainConfig
from .simulator import MANEUVER_KINDS, SensorNoiseSpec, maneuver_frames

ENV_OUT_ROOT = "VOBS_OUT"

EKF_OVERRIDE_KEYS = ("q", "r", "p0", "cornering_stiffness_front", "cornering_stiffness_rear")
# each observer type and the config keys it reads
OBSERVER_TYPE_KEYS = {"lstm": ("type", "state_noise"), "gru": ("type",),
                      "ekf": ("type",) + EKF_OVERRIDE_KEYS}
OBSERVER_TYPES = tuple(OBSERVER_TYPE_KEYS)


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


def _finite_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def _positive_number(value) -> bool:
    return _finite_number(value) and value > 0


@dataclass(frozen=True)
class ObserverSpec:
    """One observer to train and/or evaluate, as `_observer` checked it."""

    name: str
    type: str
    state_noise: bool        # lstm only: inject state noise in training
    ekf: EkfConfig | None    # ekf only: the filter's settings

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
    state_noise: NoiseSpec
    train: TrainConfig
    observers: dict[str, ObserverSpec]
    segments: SegmentSpec
    workers: int
    # the `dataset` section
    window_len: int = 50
    train_stride: int = 1
    val_stride: int = 1


TOP_LEVEL_KEYS = ("master_seed", "out_dir", "workers", "corpus", "sensor_noise", "split",
                  "dataset", "state_noise", "train", "observers", "evaluation")
CORPUS_ENTRY_TYPES = {"kind": str, "intensity": float, "count": int, "duration_s": float}
DATASET_TYPES = {"window_len": int, "train_stride": int, "val_stride": int}
TRAIN_TYPES = {"epochs": int, "batch_size": int, "learning_rate": float, "shuffle": bool}
OBSERVER_KEYS = tuple(dict.fromkeys(k for keys in OBSERVER_TYPE_KEYS.values() for k in keys))


def _require(mapping: dict, key: str, where: str, section: str = "the config"):
    if key not in mapping:
        raise ConfigError(f"{where}: missing '{key}' in {section}")
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


def _typed(value, kind: type, name: str, where: str):
    """`value`, which must already be of its key's type `kind`, exactly (a
    bool is no int); a float key takes a finite int or float, as a float."""
    if not (_finite_number(value) if kind is float else type(value) is kind):
        raise ConfigError(f"{where}: {name} must be {kind.__name__}, got {value!r}")
    return kind(value)


def _section(mapping, section: str, where: str, types: dict) -> dict:
    """The keyword arguments of one section: each value of the type of its
    key (`_typed`); a key missing from `types` is an error."""
    _check_keys(mapping, tuple(types), section, where)
    return {key: _typed(value, types[key], f"{section}.{key}", where)
            for key, value in mapping.items()}


def _built(cls, kwargs: dict, source: str):
    """`cls(**kwargs)`; its range error is prefixed by `source`, the file and
    section (or the flag) the values came from."""
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def _observer(name, spec, where: str) -> ObserverSpec:
    """Observer `name` of the `observers` section, checked; an `ekf` one gets
    its `EkfConfig`."""
    spec = _check_keys(spec or {}, OBSERVER_KEYS, f"observer '{name}'", where)
    kind = _require(spec, "type", where, f"observer '{name}'")
    state_noise = _typed(spec.get("state_noise", True), bool,
                         f"observers.{name}.state_noise", where)
    # the name becomes a file name and a CSV field
    if not (isinstance(name, str) and re.fullmatch(r"[A-Za-z0-9_.-]+", name)) \
            or name in (".", ".."):
        raise ConfigError(f"{where}: observer name {name!r} must be letters, digits, '_', "
                          f"'.' or '-', and not '.' or '..'")
    if kind not in OBSERVER_TYPES:
        raise ConfigError(f"{where}: observer '{name}': unknown type '{kind}'")
    overrides = {}  # each converted once its check passed
    for key, value in spec.items():
        if key not in EKF_OVERRIDE_KEYS:
            continue
        scalar = key.startswith("cornering_stiffness")
        if not (_positive_number(value) if scalar else isinstance(value, list)
                and len(value) == 3 and all(map(_positive_number, value))):
            shape = "a positive number" if scalar else "a list of three positive numbers"
            raise ConfigError(f"{where}: observer '{name}': {key} must be {shape}, "
                              f"got {value!r}")
        overrides[key] = float(value) if scalar else tuple(map(float, value))
    if ("cornering_stiffness_front" in overrides) != ("cornering_stiffness_rear" in overrides):
        raise ConfigError(f"{where}: observer '{name}': cornering_stiffness_front and "
                          f"cornering_stiffness_rear must be given together")
    for key in spec:
        if key not in OBSERVER_TYPE_KEYS[kind]:
            raise ConfigError(f"{where}: key '{key}' in observer '{name}' does not "
                              f"apply to type '{kind}'")
    ekf = EkfConfig(**overrides) if kind == "ekf" else None
    return ObserverSpec(name, kind, state_noise, ekf)


def _float_spec(cls, doc: dict, section: str, where: str):
    """The float-valued spec `cls` that `section` of `doc` sets; each field
    is a float key but the seed, which is derived."""
    types = {f.name: float for f in fields(cls) if f.name != "seed"}
    return _built(cls, _section(doc.get(section, {}), section, where, types),
                  f"{where}: {section}")


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
    master_seed = seed if seed is not None else _typed(
        doc.get("master_seed", 0), int, "master_seed", where)

    doc_out = doc.get("out_dir")
    if doc_out is not None and not (isinstance(doc_out, str) and doc_out):
        raise ConfigError(f"{where}: out_dir must be a non-empty string, got {doc_out!r}")
    if out_dir == "":
        raise ConfigError("--out must be a non-empty path, got ''")
    resolved_out = out_dir or doc_out
    if resolved_out is None:
        root = default_out_root()
        if not root:  # would write into the working directory
            raise ConfigError(f"{ENV_OUT_ROOT} must be a non-empty path, got ''")
        resolved_out = os.path.join(root, f"seed{master_seed}")

    corpus_doc = _require(doc, "corpus", where)
    if not isinstance(corpus_doc, list) or not corpus_doc:
        raise ConfigError(f"{where}: corpus must be a non-empty list")
    corpus = []
    for k, entry in enumerate(corpus_doc):
        section = f"corpus entry {k}"
        kwargs = _section(entry, section, where, CORPUS_ENTRY_TYPES)
        _require(kwargs, "kind", where, section)
        _require(kwargs, "intensity", where, section)
        corpus.append(_built(CorpusEntry, kwargs, f"{where}: {section}"))
    # the label names each entry's trajectories, seeds and split stratum
    first_of = {}
    for k, entry in enumerate(corpus):
        j = first_of.setdefault(entry.label, k)
        if j != k:
            raise ConfigError(f"{where}: corpus[{j}] and corpus[{k}] share the label "
                              f"'{entry.label}' (kind and intensity to 2 decimals)")

    sensor_noise = _float_spec(SensorNoiseSpec, doc, "sensor_noise", where)
    split = _float_spec(SplitSpec, doc, "split", where)
    ds_doc = _section(doc.get("dataset", {}), "dataset", where, DATASET_TYPES)
    for key, value in ds_doc.items():
        if value < 1:
            raise ConfigError(f"{where}: dataset.{key} must be >= 1, got {value!r}")
    # every trajectory must hold one window, or evaluate fails on it last
    window_len = ds_doc.get("window_len", RunConfig.window_len)
    for k, entry in enumerate(corpus):
        frames = maneuver_frames(entry.kind, entry.duration_s)
        if frames < window_len:
            given = f"{entry.duration_s!r}" if entry.duration_s is not None \
                else f"unset, so the {entry.kind} default"
            raise ConfigError(
                f"{where}: corpus[{k}].duration_s ({given}) gives {frames} frames at "
                f"50 Hz, fewer than dataset.window_len ({window_len})")
    state_noise = _float_spec(NoiseSpec, doc, "state_noise", where)
    tr_doc = _section(doc.get("train", {}), "train", where, TRAIN_TYPES)
    if epochs is not None:
        _built(TrainConfig, {"epochs": epochs}, "--epochs")  # the flag's value alone
        tr_doc["epochs"] = epochs
    train = _built(TrainConfig, tr_doc, f"{where}: train")

    obs_doc = _require(doc, "observers", where)
    if not isinstance(obs_doc, dict) or not obs_doc:
        raise ConfigError(f"{where}: observers must be a non-empty mapping, got {obs_doc!r}")
    observers = {name: _observer(name, spec, where) for name, spec in obs_doc.items()}

    segments = _float_spec(SegmentSpec, doc, "evaluation", where)

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
        state_noise=state_noise,
        train=train,
        observers=observers,
        segments=segments,
        workers=n_workers,
        **ds_doc,
    )
