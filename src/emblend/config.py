"""Engine configuration: YAML file, environment overrides, validation.

Remote endpoints and credentials can be overridden without touching the
config file via EMBLEND_REMOTE_ENDPOINT, EMBLEND_DESCRIBE_ENDPOINT and
EMBLEND_REMOTE_API_KEY.
"""
from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import yaml

_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # libyaml when PyYAML has it

from .curation import STRATEGIES, FilterConfig
from .errors import ConfigError
from .experts import SyntheticExpert, SyntheticExpertConfig
from .geometry import MODALITIES
from .projection import LossWeights, TrainConfig
from .remote import RemoteExpert
from .sns import SnsConfig

EXPERT_KINDS = ("end_to_end", "fusion", "text_based", "synthetic", "remote")

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
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ConfigError(f"remote {name} must be an integer >= 1")
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
        dims = {int(e.get("dim", 0)) for e in self.experts}
        if len(dims) != 1:
            raise ConfigError(f"all experts must share one dim, got {sorted(dims)}")
        if min(dims) < 2:
            raise ConfigError("expert dim must be >= 2")
        for e in self.experts:
            kind = e.get("kind", "synthetic")
            if kind not in EXPERT_KINDS:
                raise ConfigError(f"unknown expert kind {kind!r}")
            supported = set(e.get("modalities", MODALITIES))
            if kind == "text_based" and supported - {"text"}:
                if not (self.remote.with_env().describe_endpoint):
                    raise ConfigError(
                        f"text_based expert {e.get('expert_id')!r} supports non-text "
                        "modalities and therefore needs a describer endpoint")
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
        return int(self.experts[0]["dim"])

    def to_dict(self) -> dict:
        """Every setting but the API key, as plain data."""
        doc = asdict(self)
        del doc["remote"]["api_key"]
        return doc


def _build_section(build, data, name):
    try:
        return build(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} section: {exc}") from exc


def config_from_dict(doc: dict) -> EngineConfig:
    doc = dict(doc or {})
    curation_doc = dict(doc.get("curation", {}))
    if "filters" in curation_doc:
        curation_doc["filters"] = _build_section(FilterConfig, curation_doc["filters"],
                                                 "curation.filters")
    return EngineConfig(
        experts=list(doc.get("experts", [])),
        gating_expert=doc.get("gating_expert", ""),
        anchor_expert=doc.get("anchor_expert", ""),
        sns=_build_section(SnsConfig, doc.get("sns", {}), "sns"),
        loss=_build_section(LossWeights, doc.get("loss", {}), "loss"),
        train=_build_section(TrainConfig, doc.get("train", {}), "train"),
        projection=_build_section(ProjectionSettings, doc.get("projection", {}), "projection"),
        remote=_build_section(RemoteSettings, doc.get("remote", {}), "remote"),
        curation=_build_section(CurationSettings, curation_doc, "curation"),
        seed=int(doc.get("seed", 0)),
        cache_dir=doc.get("cache_dir"),
    )


def with_overrides(config: EngineConfig, fields: dict) -> EngineConfig:
    """A copy of ``config`` with each dotted field (``"seed"``, ``"sns.rho"``)
    set, every value checked exactly like the same value in the config file.

    A number set on a per-modality mapping (the SNS thresholds) fills each
    modality the mapping already lists.
    """
    sections: dict = {}
    for path, value in fields.items():
        section, _, name = path.rpartition(".")
        sections.setdefault(section, {})[name] = value
    top = sections.pop("", {})
    for section, values in sections.items():
        current = getattr(config, section)
        for name, value in values.items():
            if isinstance(getattr(current, name), dict):
                values[name] = dict.fromkeys(getattr(current, name), value)
        top[section] = _build_section(partial(replace, current), values, section)
    return _build_section(partial(replace, config), top, "engine")


def load_config(path) -> EngineConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = yaml.load(fh, Loader=_LOADER)
        except (yaml.YAMLError, ValueError) as exc:
            raise ConfigError(f"{path}: not a YAML file: {exc}") from None
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
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
        dim = int(entry["dim"])
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
            seed=int(entry.get("seed", 0)),
            dim=dim,
            semantic_dim=int(entry.get("semantic_dim", dim // 2)),
            gap_magnitude=float(entry.get("gap_magnitude", 0.0)),
            noise_sigma=float(entry.get("noise_sigma", 0.0)),
        )
        return SyntheticExpert(cfg, modalities)
    except ValueError as exc:
        raise ConfigError(f"bad expert {expert_id!r}: {exc}") from exc

