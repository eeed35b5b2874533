"""The paired corpus, its records, and artifact file writers.

A ``PairedSample`` is one raw side and its annotation, each a tuple of
``Component``s; every component is an item with a content-keyed id
(``component_item_id``), so trimming never shifts an identity. Every stage
(embedding, SNS, training, curation) reads the corpus through these types.

Corpus records are JSONL: {sample_id, pool_id, modality, raw | components,
annotation, media_ref?}. ``raw`` may be a plain string (text is sentence-
segmented, other modalities stay a single component) or a pre-segmented
component list; ``annotation`` may likewise be a string or a sentence list.
All writers produce byte-stable output for identical inputs.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass
from functools import cached_property

from .errors import InvariantViolation, ParseError
from .experts import EmbedItem
from .geometry import MODALITIES

SENTENCE_TERMINATORS = frozenset(".!?")


@dataclass(frozen=True, slots=True)
class Component:
    """One segmentable unit of a sample side; byte size is of the content."""

    content: str
    byte_size: int = 0

    def __post_init__(self):
        if self.byte_size == 0:
            object.__setattr__(self, "byte_size", len(self.content.encode("utf-8")))


@dataclass(frozen=True)
class PairedSample:
    """A raw side and its annotation. An empty ``annotation_text`` reads as
    the annotation components joined by newlines."""

    sample_id: str
    pool_id: str
    raw_modality: str
    raw_components: tuple
    annotation_components: tuple
    presegmented: bool = False
    annotation_text: str = ""
    media_ref: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "raw_components", tuple(self.raw_components))
        object.__setattr__(self, "annotation_components", tuple(self.annotation_components))
        if self.raw_modality not in MODALITIES:
            raise InvariantViolation(f"unknown modality {self.raw_modality!r}", self.sample_id)
        if not self.raw_components or not self.annotation_components:
            raise InvariantViolation("both sides need at least one component", self.sample_id)
        for comp in self.raw_components + self.annotation_components:
            if comp.byte_size <= 0:
                raise InvariantViolation("component byte size must be > 0", self.sample_id)
        if not self.annotation_text:
            object.__setattr__(
                self, "annotation_text",
                "\n".join(c.content for c in self.annotation_components))

    @cached_property
    def raw_ids(self) -> tuple:
        """Item ids of the raw components: computed once per sample and
        shared by every caller."""
        return _component_ids(self.sample_id, "r", self.raw_components)

    @cached_property
    def annotation_ids(self) -> tuple:
        """Item ids of the annotation components: computed once per sample
        and shared by every caller."""
        return _component_ids(self.sample_id, "a", self.annotation_components)

    @cached_property
    def raw_items(self) -> tuple:
        """Items of the raw components, in the pair's modality."""
        return _component_items(self.raw_ids, self.raw_components, self.raw_modality)

    @cached_property
    def annotation_items(self) -> tuple:
        """Items of the annotation components, as text."""
        return _component_items(self.annotation_ids, self.annotation_components, "text")

    @property
    def raw_bytes(self) -> int:
        return sum(c.byte_size for c in self.raw_components)

    @property
    def annotation_bytes(self) -> int:
        return sum(c.byte_size for c in self.annotation_components)


def segment_text(text: str) -> list:
    """Split text into sentences at ., ! or ? followed by whitespace or end.

    Components keep their original bytes (terminator included); the
    whitespace between sentences is treated as separator.
    """
    components = []
    n = len(text)
    i = 0
    while i < n and text[i].isspace():
        i += 1
    start = i
    while i < n:
        if text[i] in SENTENCE_TERMINATORS and (i + 1 == n or text[i + 1].isspace()):
            piece = text[start:i + 1]
            if piece.strip():
                components.append(piece)
            i += 1
            while i < n and text[i].isspace():
                i += 1
            start = i
        else:
            i += 1
    if start < n:
        tail = text[start:].rstrip()
        if tail:
            components.append(tail)
    return components


def component_item_id(sample_id: str, tag: str, content: str) -> str:
    """Stable sub-item id: keyed by content so trimming never shifts identities."""
    digest = hashlib.blake2b(content.encode("utf-8"), digest_size=6).hexdigest()
    return f"{sample_id}#{tag}:{digest}"


def _component_ids(sample_id: str, tag: str, components) -> tuple:
    return tuple(component_item_id(sample_id, tag, c.content) for c in components)


def _component_items(ids, components, modality: str) -> tuple:
    return tuple(EmbedItem(item_id, modality, c.content) for item_id, c in zip(ids, components))


def side_ids(pair: PairedSample, side: str) -> tuple:
    """Item ids of one side's components."""
    return pair.raw_ids if side == "raw" else pair.annotation_ids


def side_items(pair: PairedSample, side: str) -> tuple:
    """Items of one side's components: raw keeps the pair's modality, the
    annotation side is text."""
    return pair.raw_items if side == "raw" else pair.annotation_items


def pair_ids(pair: PairedSample) -> tuple:
    """Raw, then annotation component item ids of one pair."""
    return pair.raw_ids + pair.annotation_ids


def pair_items(pair: PairedSample) -> tuple:
    """Raw, then annotation component items of one pair."""
    return pair.raw_items + pair.annotation_items


def _components_from(value, segment: bool):
    if isinstance(value, list):
        return [Component(str(v)) for v in value], True
    text = str(value)
    if segment:
        return [Component(c) for c in segment_text(text)], False
    return ([Component(text)] if text else []), False


def sample_from_record(rec: dict) -> PairedSample:
    sample_id = rec.get("sample_id")
    if not sample_id:
        raise InvariantViolation("record is missing sample_id")
    modality = rec.get("modality")
    raw_value = rec.get("components", rec.get("raw"))
    if raw_value is None:
        raise InvariantViolation("record has no raw side", sample_id)
    ann_value = rec.get("annotation")
    if ann_value is None:
        raise InvariantViolation("record has no annotation side", sample_id)
    raw_components, presegmented = _components_from(raw_value, segment=(modality == "text"))
    presegmented = presegmented or "components" in rec
    ann_components, _ = _components_from(ann_value, segment=True)
    return PairedSample(
        sample_id=str(sample_id),
        pool_id=str(rec.get("pool_id", "default")),
        raw_modality=str(modality),
        raw_components=raw_components,
        annotation_components=ann_components,
        presegmented=presegmented,
        annotation_text="" if isinstance(ann_value, list) else str(ann_value),
        media_ref=rec.get("media_ref"),
    )


def ingest(path) -> list:
    """Parse a JSONL corpus into validated PairedSamples."""
    samples = []
    seen = set()
    # undecodable bytes become lone surrogates, which fail to re-encode below
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError("line is not valid UTF-8", line=lineno) from None
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(str(exc), line=lineno)
            if not isinstance(rec, dict):
                raise ParseError("record is not a JSON object", line=lineno)
            sample = sample_from_record(rec)
            if sample.sample_id in seen:
                raise InvariantViolation("duplicate sample_id", sample.sample_id)
            seen.add(sample.sample_id)
            samples.append(sample)
    return samples


def sample_to_record(sample: PairedSample) -> dict:
    """The corpus record of a sample. The annotation is its sentence list,
    or its own text when that text differs from the sentences joined by
    newlines and segments into exactly them, so that it reads back the same."""
    sentences = [c.content for c in sample.annotation_components]
    text = sample.annotation_text
    keep_text = text != "\n".join(sentences) and segment_text(text) == sentences
    rec = {
        "sample_id": sample.sample_id,
        "pool_id": sample.pool_id,
        "modality": sample.raw_modality,
        "annotation": text if keep_text else sentences,
    }
    if sample.presegmented or len(sample.raw_components) > 1 or sample.raw_modality != "text":
        rec["components"] = [c.content for c in sample.raw_components]
    else:
        rec["raw"] = sample.raw_components[0].content
    if sample.media_ref:
        rec["media_ref"] = sample.media_ref
    return rec


_JSONL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(_JSONL.encode(rec))
            fh.write("\n")


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_corpus(path, samples) -> None:
    write_jsonl(path, (sample_to_record(s) for s in samples))


def write_nucleus_log(path, records) -> None:
    write_jsonl(path, (r.to_dict() for r in records))


def write_blend(out_dir, name, blend, samples_by_id, stats, coords=None) -> None:
    """Blend JSONL + stats sidecar + optional plot-coordinate CSV."""
    rows = []
    for rank, (sid, score) in enumerate(zip(blend.sample_ids, blend.scores), start=1):
        sample = samples_by_id[sid]
        rows.append({"sample_id": sid, "rank": rank, "score": score,
                     "pool_id": sample.pool_id, "modality": sample.raw_modality})
    write_jsonl(os.path.join(out_dir, f"{name}.jsonl"), rows)
    write_json(os.path.join(out_dir, f"{name}_stats.json"), stats)
    if coords is not None:
        with open(os.path.join(out_dir, f"{name}_coords.csv"), "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample_id", "x", "y", "modality"])
            for sid, (x, y) in zip(blend.sample_ids, coords):
                writer.writerow([sid, f"{x:.8f}", f"{y:.8f}",
                                 samples_by_id[sid].raw_modality])


def write_instruction_dataset(path, samples, blend, instruction: str) -> None:
    """Minimal prompt/completion JSONL export of a blend."""
    by_id = {s.sample_id: s for s in samples}
    rows = []
    for sid in blend.sample_ids:
        s = by_id[sid]
        rows.append({
            "sample_id": sid,
            "prompt": instruction,
            "media": [c.content for c in s.raw_components],
            "modality": s.raw_modality,
            "completion": s.annotation_text,
        })
    write_jsonl(path, rows)
