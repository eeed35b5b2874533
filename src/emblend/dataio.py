"""The paired corpus, its records, and artifact file writers.

A ``PairedSample`` is one raw side and its annotation, each a tuple of
``Component``s. ``ingest`` reads a corpus into a ``Corpus``: the same
fields held as columns, one entry per sample, and the components flat, each
sample's raw then annotation components, with their contents, byte sizes and
content-keyed item ids (``component_item_id``), so trimming never shifts an
identity. Embedding, SNS, training and curation read these columns; a
``PairedSample`` is built only when a corpus is indexed, and a list of pairs
becomes a corpus through ``Corpus.from_pairs``.

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

import numpy as np

from .errors import InvariantViolation, ParseError
from .experts import EmbedItem
from .geometry import MODALITIES, consecutive_runs

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
        _check(self.sample_id, self.raw_modality, self.raw_components, self.annotation_components,
               [c.byte_size for c in self.raw_components + self.annotation_components])
        if not self.annotation_text:
            object.__setattr__(
                self, "annotation_text",
                "\n".join(c.content for c in self.annotation_components))

    @property
    def raw_bytes(self) -> int:
        return sum(c.byte_size for c in self.raw_components)

    @property
    def annotation_bytes(self) -> int:
        return sum(c.byte_size for c in self.annotation_components)


def _check(sample_id, modality, raw, ann, byte_sizes) -> None:
    """A pair's rules: a known modality, a component on each side, and no
    component of zero bytes."""
    if modality not in MODALITIES:
        raise InvariantViolation(f"unknown modality {modality!r}", sample_id)
    if not raw or not ann:
        raise InvariantViolation("both sides need at least one component", sample_id)
    if any(size <= 0 for size in byte_sizes):
        raise InvariantViolation("component byte size must be > 0", sample_id)


def checked_pair(**fields) -> PairedSample:
    """A ``PairedSample`` of fields that were checked already, as
    ``__post_init__`` leaves them (component tuples, the annotation text
    filled in), built without checking them again."""
    pair = object.__new__(PairedSample)
    vars(pair).update(fields)
    return pair


@dataclass(eq=False)
class Corpus:
    """A checked corpus in columns.

    Per sample: ``sample_ids``, ``pools``, ``modalities``,
    ``annotation_texts``, ``presegmented``, ``media_refs``, and ``n_raw`` and
    ``n_ann``, its numbers of raw and annotation components. Per component,
    flat: ``contents`` and ``byte_sizes``, sample k's raw components, then its
    annotation components, from ``starts[k]``; ``item_ids`` hashes them
    once, on first use. Indexing builds sample k's ``PairedSample`` once;
    ``from_pairs`` keeps the pairs it is given.
    """

    sample_ids: list
    pools: list
    modalities: list
    annotation_texts: list
    presegmented: list
    media_refs: list
    contents: list
    byte_sizes: list
    n_raw: np.ndarray
    n_ann: np.ndarray
    pairs: list | None = None

    def __post_init__(self):
        self.n_raw = np.asarray(self.n_raw, dtype=np.intp)
        self.n_ann = np.asarray(self.n_ann, dtype=np.intp)
        self.starts = np.concatenate(([0], np.cumsum(self.n_raw + self.n_ann))).astype(np.intp)
        if self.pairs is None:
            self.pairs = [None] * len(self.sample_ids)

    @classmethod
    def from_pairs(cls, pairs) -> Corpus:
        """The corpus of built pairs; indexing returns them."""
        pairs = list(pairs)
        fields = ("sample_id", "pool_id", "raw_modality", "annotation_text", "presegmented",
                  "media_ref")
        comps = [c for p in pairs for c in p.raw_components + p.annotation_components]
        return cls(*([getattr(p, f) for p in pairs] for f in fields),
                   [c.content for c in comps], [c.byte_size for c in comps],
                   [len(p.raw_components) for p in pairs],
                   [len(p.annotation_components) for p in pairs], pairs)

    def __len__(self) -> int:
        return len(self.sample_ids)

    def __getitem__(self, k: int) -> PairedSample:
        k = range(len(self))[k]
        if self.pairs[k] is None:
            lo, hi = self.starts[k:k + 2].tolist()
            comps = tuple(map(Component, self.contents[lo:hi], self.byte_sizes[lo:hi]))
            n = int(self.n_raw[k])
            self.pairs[k] = checked_pair(
                sample_id=self.sample_ids[k], pool_id=self.pools[k],
                raw_modality=self.modalities[k], raw_components=comps[:n],
                annotation_components=comps[n:], presegmented=self.presegmented[k],
                annotation_text=self.annotation_texts[k], media_ref=self.media_refs[k])
        return self.pairs[k]

    @cached_property
    def item_ids(self) -> list:
        """``component_item_id`` of every component, in column order."""
        ids = []
        bounds = zip(self.starts.tolist(), (self.starts[:-1] + self.n_raw).tolist(),
                     self.starts[1:].tolist())
        for sample_id, (lo, mid, hi) in zip(self.sample_ids, bounds):
            ids += _item_ids(f"{sample_id}#r:", self.contents[lo:mid])
            ids += _item_ids(f"{sample_id}#a:", self.contents[mid:hi])
        return ids

    @cached_property
    def index(self) -> dict:
        """The position of each sample id."""
        return {sid: k for k, sid in enumerate(self.sample_ids)}

    def side(self, side: str):
        """The column positions of one side's components ("raw" or
        "annotation"), sample after sample, and their number per sample."""
        if side == "raw":
            return consecutive_runs(self.starts[:-1], self.n_raw)
        return consecutive_runs(self.starts[:-1] + self.n_raw, self.n_ann)

    def items(self, k: int, side: str | None = None) -> list:
        """The items of sample k's raw components in its modality, then of its
        annotation components as text; of one side only when ``side`` is
        given."""
        lo, hi = self.starts[k:k + 2].tolist()
        mid = lo + int(self.n_raw[k])
        raw = range(lo, mid if side != "annotation" else lo)
        ann = range(mid if side != "raw" else hi, hi)
        ids, contents, modality = self.item_ids, self.contents, self.modalities[k]
        return ([EmbedItem(ids[j], modality, contents[j]) for j in raw]
                + [EmbedItem(ids[j], "text", contents[j]) for j in ann])


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


def _item_ids(prefix: str, contents) -> list:
    return [prefix + hashlib.blake2b(c.encode("utf-8"), digest_size=6).hexdigest()
            for c in contents]


def component_item_id(sample_id: str, tag: str, content: str) -> str:
    """Stable sub-item id: keyed by content so trimming never shifts identities."""
    return _item_ids(f"{sample_id}#{tag}:", (content,))[0]


def _contents(value, segment: bool):
    """A side's component contents, and whether it was given as a list."""
    if isinstance(value, list):
        return [str(v) for v in value], True
    text = str(value)
    if segment:
        return segment_text(text), False
    return ([text] if text else []), False


def ingest(path) -> Corpus:
    """Parse a JSONL corpus into a ``Corpus``, checking every record as it is
    read, as a ``PairedSample`` of it would be checked."""
    sample_ids, pools, modalities, texts, presegmented, media_refs = [], [], [], [], [], []
    contents, byte_sizes, n_raw, n_ann = [], [], [], []
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
            raw, listed = _contents(raw_value, segment=(modality == "text"))
            ann, _ = _contents(ann_value, segment=True)
            sizes = [len(c.encode("utf-8")) for c in raw + ann]
            sample_id, modality = str(sample_id), str(modality)
            _check(sample_id, modality, raw, ann, sizes)
            if sample_id in seen:
                raise InvariantViolation("duplicate sample_id", sample_id)
            seen.add(sample_id)
            sample_ids.append(sample_id)
            pools.append(str(rec.get("pool_id", "default")))
            modalities.append(modality)
            texts.append("\n".join(ann) if isinstance(ann_value, list) else str(ann_value))
            presegmented.append(listed or "components" in rec)
            media_refs.append(rec.get("media_ref"))
            contents += raw + ann
            byte_sizes += sizes
            n_raw.append(len(raw))
            n_ann.append(len(ann))
    return Corpus(sample_ids, pools, modalities, texts, presegmented, media_refs, contents,
                  byte_sizes, n_raw, n_ann)


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


def write_blend(out_dir, name, blend, corpus, stats, coords=None) -> None:
    """Blend JSONL + stats sidecar + optional plot-coordinate CSV."""
    at = [corpus.index[sid] for sid in blend.sample_ids]
    rows = []
    for rank, (sid, score, k) in enumerate(zip(blend.sample_ids, blend.scores, at), start=1):
        rows.append({"sample_id": sid, "rank": rank, "score": score,
                     "pool_id": corpus.pools[k], "modality": corpus.modalities[k]})
    write_jsonl(os.path.join(out_dir, f"{name}.jsonl"), rows)
    write_json(os.path.join(out_dir, f"{name}_stats.json"), stats)
    if coords is not None:
        with open(os.path.join(out_dir, f"{name}_coords.csv"), "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample_id", "x", "y", "modality"])
            for sid, (x, y), k in zip(blend.sample_ids, coords, at):
                writer.writerow([sid, f"{x:.8f}", f"{y:.8f}", corpus.modalities[k]])


def write_instruction_dataset(path, corpus, blend, instruction: str) -> None:
    """Minimal prompt/completion JSONL export of a blend."""
    rows = []
    for sid in blend.sample_ids:
        k = corpus.index[sid]
        lo = int(corpus.starts[k])
        rows.append({
            "sample_id": sid,
            "prompt": instruction,
            "media": corpus.contents[lo:lo + int(corpus.n_raw[k])],
            "modality": corpus.modalities[k],
            "completion": corpus.annotation_texts[k],
        })
    write_jsonl(path, rows)
