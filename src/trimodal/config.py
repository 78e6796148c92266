"""Run configuration: one YAML tree covering cohort, training, losses,
generator, encoders, and ablation switches.

Unknown keys are rejected (typos must not silently fall back to
defaults), and the canonical hash of the fully resolved tree is embedded
in every artifact, so identical hashes imply byte-identical outputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

import yaml

from .synthdata import CohortConfig
from .trainer import TrainConfig


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    cohort: CohortConfig = field(default_factory=CohortConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    out_dir: str = "runs/out"

    def validate(self):
        try:
            self.cohort.validate()
            self.train.validate()
        except ValueError as e:
            raise ConfigError(str(e)) from e
        return self


# YAML section name -> attribute path of its dataclass in a RunConfig
_SECTIONS = {
    "cohort": "cohort",
    "train": "train",
    "loss": "train.loss",
    "mmg": "train.mmg",
    "encoders": "train.enc",
}
_TOP_KEYS = set(_SECTIONS) | {"ablation", "out_dir"}
# nested dataclasses get their own sections; ablation flags their own block
_HIDDEN_FIELDS = {"loss", "mmg", "enc", "use_mmg", "use_tcaf"}


def _section(cfg, path):
    obj = cfg
    for attr in path.split("."):
        obj = getattr(obj, attr)
    return obj


def _check_type(name, val, default):
    """Refuse ``val`` unless it has the type of its field's ``default``.
    Float fields keep integers as given: coercing them would move the hash
    of configs that load today."""
    def number(v, kinds=(int, float)):
        return isinstance(v, kinds) and not isinstance(v, bool)
    if isinstance(default, bool):
        ok, what = isinstance(val, bool), "true or false"
    elif isinstance(default, int):
        ok, what = number(val, int), "an integer"
    elif isinstance(default, float):
        ok, what = number(val), "a number"
    elif isinstance(default, tuple):  # volume_shape
        ok = isinstance(val, (list, tuple)) and len(val) == 3 and all(number(v, int) for v in val)
        what = "three integers"
    else:  # alpha_focal, default None
        ok = val is None or isinstance(val, (list, tuple)) and len(val) == 2 and all(map(number, val))
        what = "null or two numbers"
    if not ok:
        raise ConfigError(f"{name} must be {what}, got {val!r}")


def _apply_section(obj, values, section):
    fields = {f.name: f for f in dataclasses.fields(obj)}
    for key, val in values.items():
        if key not in fields or key in _HIDDEN_FIELDS:
            known = sorted(set(fields) - _HIDDEN_FIELDS)
            raise ConfigError(f"unknown key {section}.{key}; known keys: {known}")
        _check_type(f"{section}.{key}", val, fields[key].default)
        if key == "volume_shape":
            val = tuple(val)
        if key == "alpha_focal" and val is not None:
            val = tuple(float(v) for v in val)
        setattr(obj, key, val)


def from_dict(tree):
    """Build a validated RunConfig from a parsed YAML tree."""
    if tree is None:
        tree = {}
    if not isinstance(tree, dict):
        raise ConfigError(f"config root must be a mapping, got {type(tree).__name__}")
    unknown = sorted(set(tree) - _TOP_KEYS)
    if unknown:
        raise ConfigError(f"unknown top-level keys {unknown}; known: {sorted(_TOP_KEYS)}")
    cfg = RunConfig()
    for section, path in _SECTIONS.items():
        values = tree.get(section) or {}
        if not isinstance(values, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        _apply_section(_section(cfg, path), values, section)
    ablation = tree.get("ablation") or {}
    if not isinstance(ablation, dict):
        raise ConfigError("section 'ablation' must be a mapping")
    for key, val in ablation.items():
        if key not in ("use_mmg", "use_tcaf"):
            raise ConfigError(f"unknown key ablation.{key}; known keys: ['use_mmg', 'use_tcaf']")
        _check_type(f"ablation.{key}", val, True)
        setattr(cfg.train, key, val)
    if "out_dir" in tree:
        cfg.out_dir = str(tree["out_dir"])
    return cfg.validate()


def to_dict(cfg: RunConfig):
    """Fully resolved tree (every key explicit), inverse of from_dict."""
    tree = {}
    for section, path in _SECTIONS.items():
        obj = _section(cfg, path)
        values = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
                  if f.name not in _HIDDEN_FIELDS}
        tree[section] = {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}
    tree["ablation"] = {"use_mmg": cfg.train.use_mmg, "use_tcaf": cfg.train.use_tcaf}
    tree["out_dir"] = cfg.out_dir
    return tree


def load_config(path):
    with open(path, encoding="utf-8") as f:
        try:
            tree = yaml.safe_load(f)
        except yaml.YAMLError as e:
            raise ConfigError(f"cannot parse {path}: {e}") from e
    return from_dict(tree)


def dump_defaults():
    """Canonical YAML text of the full default configuration."""
    return yaml.safe_dump(to_dict(RunConfig()), sort_keys=True, default_flow_style=False)


def config_hash(cfg: RunConfig):
    """Short stable hash of the resolved config tree.

    The output directory is excluded: the hash identifies the experiment,
    and the same experiment written to two locations must match.
    """
    tree = to_dict(cfg)
    tree.pop("out_dir", None)
    blob = json.dumps(tree, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
