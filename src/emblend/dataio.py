"""Dataset ingestion and artifact file writers.

Corpus records are JSONL: {sample_id, pool_id, modality, raw | components,
annotation, media_ref?}. ``raw`` may be a plain string (text is sentence-
segmented, other modalities stay a single component) or a pre-segmented
component list; ``annotation`` may likewise be a string or a sentence list.
All writers produce byte-stable output for identical inputs.
"""
from __future__ import annotations

import csv
import json
import os

from .errors import InvariantViolation, ParseError
from .sns import Component, PairedSample, segment_text


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
    ann_text = "\n".join(str(v) for v in ann_value) if isinstance(ann_value, list) else str(ann_value)
    return PairedSample(
        sample_id=str(sample_id),
        pool_id=str(rec.get("pool_id", "default")),
        raw_modality=str(modality),
        raw_components=raw_components,
        annotation_components=ann_components,
        presegmented=presegmented,
        annotation_text=ann_text,
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
    rec = {
        "sample_id": sample.sample_id,
        "pool_id": sample.pool_id,
        "modality": sample.raw_modality,
        "annotation": [c.content for c in sample.annotation_components],
    }
    if sample.presegmented or len(sample.raw_components) > 1 or sample.raw_modality != "text":
        rec["components"] = [c.content for c in sample.raw_components]
    else:
        rec["raw"] = sample.raw_components[0].content
    if sample.media_ref:
        rec["media_ref"] = sample.media_ref
    return rec


def write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")))
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
