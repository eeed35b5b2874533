"""Engine configuration: YAML file, overrides, environment, validation.

``_build`` builds every config, from a file or from overrides. Each value is
checked against its field's annotation, never coerced (an integer rejects
``2.5`` and ``true``, a float NaN and infinities); a number for a ``tau_*``
mapping fills every modality; an unknown key is an error, except at a file's
top level (old files set some).

Remote endpoints and credentials can be overridden without touching the
config file via EMBLEND_REMOTE_ENDPOINT, EMBLEND_DESCRIBE_ENDPOINT and
EMBLEND_REMOTE_API_KEY.
"""
from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from functools import cache
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import yaml

_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # libyaml when PyYAML has it
_annotations = cache(get_type_hints)  # each dataclass's field annotations, resolved once

from .curation import STRATEGIES, FilterConfig
from .errors import ConfigError
from .experts import SyntheticExpert, SyntheticExpertConfig
from .geometry import MODALITIES
from .projection import LossWeights, TrainConfig
from .remote import RemoteExpert
from .sns import SnsConfig

EXPERT_KINDS = ("end_to_end", "fusion", "text_based", "synthetic", "remote")
EXPERT_NUMBERS = {"dim": int, "semantic_dim": int, "seed": int,  # checked, never coerced
                  "gap_magnitude": float, "noise_sigma": float}

ENV_REMOTE_ENDPOINT = "EMBLEND_REMOTE_ENDPOINT"
ENV_DESCRIBE_ENDPOINT = "EMBLEND_DESCRIBE_ENDPOINT"
ENV_REMOTE_API_KEY = "EMBLEND_REMOTE_API_KEY"


@dataclass
class ProjectionSettings:
    layer_count: int = 2
    hidden_dim: int | None = None

    def __post_init__(self):
        if self.layer_count not in (1, 2, 3):
            raise ConfigError("projection layer_count must be 1, 2 or 3")
        if self.hidden_dim is not None and self.hidden_dim < 1:
            raise ConfigError("projection hidden_dim must be >= 1")


@dataclass
class RemoteSettings:
    endpoint: str | None = None
    describe_endpoint: str | None = None
    describe_model: str = "describer"
    api_key: str | None = None
    batch_size: int = 32
    max_in_flight: int = 4
    timeout: float = 30.0

    def __post_init__(self):
        for name in ("batch_size", "max_in_flight"):
            if getattr(self, name) < 1:
                raise ConfigError(f"remote {name} must be >= 1")
        if self.timeout <= 0:
            raise ConfigError("remote timeout must be > 0")

    def with_env(self) -> "RemoteSettings":
        return replace(
            self, endpoint=os.environ.get(ENV_REMOTE_ENDPOINT, self.endpoint),
            describe_endpoint=os.environ.get(ENV_DESCRIBE_ENDPOINT, self.describe_endpoint),
            api_key=os.environ.get(ENV_REMOTE_API_KEY, self.api_key))


@dataclass
class CurationSettings:
    n: int = 5000
    query: str = "natural, real-world scenes with objects, landscape, subjects, or people"
    strategy: str = "eee_projection"
    filters: FilterConfig = field(default_factory=FilterConfig)
    dedup_k: int = 100
    dedup_epsilon: float = 0.05
    instruction: str = "Describe the media content in detail"

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("curation n must be >= 1")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"curation strategy must be one of {STRATEGIES}")
        if self.dedup_k < 1:
            raise ConfigError("curation dedup_k must be >= 1")


@dataclass
class EngineConfig:
    experts: list = field(default_factory=list)  # raw per-expert dicts
    gating_expert: str = ""
    anchor_expert: str = ""
    sns: SnsConfig = field(default_factory=SnsConfig)
    loss: LossWeights = field(default_factory=LossWeights)
    train: TrainConfig = field(default_factory=TrainConfig)
    projection: ProjectionSettings = field(default_factory=ProjectionSettings)
    remote: RemoteSettings = field(default_factory=RemoteSettings)
    curation: CurationSettings = field(default_factory=CurationSettings)
    seed: int = 0
    cache_dir: str | None = None

    def __post_init__(self):
        self.validate()

    def validate(self):
        if not self.experts:
            raise ConfigError("at least one expert is required")
        ids = [e.get("expert_id") for e in self.experts]
        if len(set(ids)) != len(ids):
            raise ConfigError("expert_id values must be unique")
        for e in self.experts:
            for key, typ in EXPERT_NUMBERS.items():
                if key in e and not _fits(typ, e[key]):
                    raise ConfigError(f"expert {e.get('expert_id')!r} {key} must be "
                                      f"{typ.__name__}, got {e[key]!r}")
            kind = e.get("kind", "synthetic")
            if kind not in EXPERT_KINDS:
                raise ConfigError(f"unknown expert kind {kind!r}")
            supported = set(e.get("modalities", MODALITIES))
            if kind == "text_based" and supported - {"text"}:
                if not (self.remote.with_env().describe_endpoint):
                    raise ConfigError(
                        f"text_based expert {e.get('expert_id')!r} supports non-text "
                        "modalities and therefore needs a describer endpoint")
        dims = {e.get("dim", 0) for e in self.experts}
        if len(dims) != 1:
            raise ConfigError(f"all experts must share one dim, got {sorted(dims)}")
        if min(dims) < 2:
            raise ConfigError("expert dim must be >= 2")
        if not self.gating_expert:
            self.gating_expert = ids[0]
        if self.gating_expert not in ids:
            raise ConfigError(f"gating expert {self.gating_expert!r} not among experts")
        if not self.anchor_expert:
            self.anchor_expert = ids[-1]
        if self.anchor_expert not in ids:
            raise ConfigError(f"anchor expert {self.anchor_expert!r} not among experts")

    @property
    def dim(self) -> int:
        return self.experts[0]["dim"]

    def to_dict(self) -> dict:
        """Every setting but the API key, as plain data."""
        doc = asdict(self)
        del doc["remote"]["api_key"]
        return doc


def _fits(hint, value) -> bool:
    """Whether ``value`` is a ``hint`` as it is: a bool only a bool, an int
    also a float, and a float only a finite one."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:
        return any(_fits(arg, value) for arg in args)
    if origin is list:
        return isinstance(value, list) and all(_fits(args[0], v) for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(
            _fits(args[0], k) and _fits(args[1], v) for k, v in value.items())
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, int) or isinstance(value, float) and math.isfinite(value)
    return isinstance(value, hint)


def _build(cls, data: dict, where: str, base=None):
    """A ``cls`` with the fields ``data`` sets, checked and built alike at
    every depth, and the other fields of ``base`` (or the defaults)."""
    hints = _annotations(cls)
    values = {} if base is None else {name: getattr(base, name) for name in hints}
    for name, value in data.items():
        hint = hints.get(name)
        if hint is None:
            if where or base is not None:  # only a file's top level holds keys of old versions
                raise ConfigError(f"{where} {name} is not a setting".lstrip())
            continue
        if is_dataclass(hint) and isinstance(value, dict):
            value = _build(hint, value, f"{where}.{name}".lstrip("."), values.get(name))
        elif not _fits(hint, value):
            kind = hint.__name__ if isinstance(hint, type) else hint  # "int", "int | None"
            raise ConfigError(f"{where} {name} must be {kind}, got {value!r}".lstrip())
        values[name] = value
    return cls(**values)


def field_type(path: str) -> type:
    """The scalar type of a dotted field (``"sns.rho"``): an optional
    field's type without None, and a per-modality mapping's float."""
    hint = EngineConfig
    for name in path.split("."):
        hint = _annotations(hint)[name]
    return next(arg for arg in get_args(hint) or (hint,)
                if get_origin(arg) is None and arg is not type(None))


def config_from_dict(doc: dict) -> EngineConfig:
    return _build(EngineConfig, doc or {}, "")


def with_overrides(config: EngineConfig, fields: dict) -> EngineConfig:
    """A copy of ``config`` with each dotted field (``"seed"``, ``"sns.rho"``)
    set, checked by ``_build`` like the same value in a file. A number set on
    a per-modality mapping fills each modality the mapping already lists."""
    doc: dict = {}
    for path, value in fields.items():
        *sections, name = path.split(".")
        node, current = doc, config
        for section in sections:
            node, current = node.setdefault(section, {}), getattr(current, section, None)
        old = getattr(current, name, None)
        if isinstance(old, dict) and _fits(float, value):
            value = dict.fromkeys(old, value)
        node[name] = value
    return _build(EngineConfig, doc, "", config)


def load_config(path) -> EngineConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = yaml.load(fh, Loader=_LOADER)
        except (yaml.YAMLError, ValueError) as exc:
            raise ConfigError(f"{path}: not a YAML file: {exc}") from None
    if not isinstance(doc, dict | None):
        raise ConfigError(f"{path}: config root must be a mapping")
    try:
        return config_from_dict(doc)
    except (AttributeError, TypeError, ValueError, ConfigError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def save_config(config: EngineConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config.to_dict(), fh, sort_keys=True)


def build_expert(entry: dict, remote: RemoteSettings):
    """Instantiate one expert from its config entry.

    Entries with an endpoint (their own or the shared remote one for kind
    ``remote``) go through the HTTP client; real pretrained encoders are
    never bundled. Everything else is the deterministic synthetic expert.
    """
    kind = entry.get("kind", "synthetic")
    expert_id = entry["expert_id"]
    try:
        dim = entry["dim"]
        modalities = entry.get("modalities", MODALITIES)
        settings = remote.with_env()
        endpoint = entry.get("endpoint") or (settings.endpoint if kind == "remote" else None)
        if endpoint:
            return RemoteExpert(expert_id, dim, endpoint, entry.get("model", expert_id),
                                modalities, api_key=settings.api_key,
                                batch_size=settings.batch_size,
                                max_in_flight=settings.max_in_flight, timeout=settings.timeout)
        if kind == "remote":
            raise ConfigError(f"remote expert {expert_id!r} needs an endpoint")
        cfg = SyntheticExpertConfig(
            expert_id=expert_id,
            seed=entry.get("seed", 0),
            dim=dim,
            semantic_dim=entry.get("semantic_dim", dim // 2),
            gap_magnitude=entry.get("gap_magnitude", 0.0),
            noise_sigma=entry.get("noise_sigma", 0.0),
        )
        return SyntheticExpert(cfg, modalities)
    except ValueError as exc:
        raise ConfigError(f"bad expert {expert_id!r}: {exc}") from exc

