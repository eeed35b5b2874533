import json

import pytest

from emblend.dataio import ingest, sample_to_record, write_corpus
from emblend.errors import InvariantViolation, ParseError


def write_lines(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def test_two_record_fixture(tmp_path):
    path = tmp_path / "c.jsonl"
    write_lines(path, [
        {"sample_id": "a", "pool_id": "p0", "modality": "text",
         "raw": "One sentence. Two sentences.", "annotation": "A caption."},
        {"sample_id": "b", "pool_id": "p1", "modality": "image",
         "raw": "imagedata", "annotation": "Another caption."},
    ])
    samples = ingest(path)
    assert len(samples) == 2
    assert len(samples[0].raw_components) == 2  # text raw is sentence-segmented
    assert samples[1].raw_components[0].content == "imagedata"


def test_missing_annotation_names_sample(tmp_path):
    path = tmp_path / "c.jsonl"
    write_lines(path, [{"sample_id": "broken", "modality": "text", "raw": "x."}])
    with pytest.raises(InvariantViolation) as err:
        ingest(path)
    assert "broken" in str(err.value)


def test_empty_side_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    write_lines(path, [{"sample_id": "e", "modality": "text", "raw": "",
                        "annotation": "fine."}])
    with pytest.raises(InvariantViolation):
        ingest(path)


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"sample_id": "ok", "modality": "text", "raw": "r.", '
                    '"annotation": "a."}\n{bad json\n')
    with pytest.raises(ParseError) as err:
        ingest(path)
    assert err.value.line == 2


def test_duplicate_ids_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    rec = {"sample_id": "dup", "modality": "text", "raw": "r.", "annotation": "a."}
    write_lines(path, [rec, rec])
    with pytest.raises(InvariantViolation):
        ingest(path)


def test_presegmented_video_roundtrip(tmp_path):
    path = tmp_path / "c.jsonl"
    write_lines(path, [
        {"sample_id": "v", "pool_id": "p", "modality": "video",
         "components": ["clip-one", "clip-two", "clip-three"],
         "annotation": ["First part.", "Second part."],
         "media_ref": "/data/v.mp4"},
    ])
    samples = ingest(path)
    assert samples[0].presegmented is True
    assert [c.content for c in samples[0].raw_components] == \
        ["clip-one", "clip-two", "clip-three"]

    out = tmp_path / "round.jsonl"
    write_corpus(out, samples)
    again = ingest(out)
    assert [c.content for c in again[0].raw_components] == \
        [c.content for c in samples[0].raw_components]
    assert [c.content for c in again[0].annotation_components] == \
        [c.content for c in samples[0].annotation_components]
    assert again[0].media_ref == "/data/v.mp4"


def test_annotation_text_of_a_string_and_of_a_sentence_list(tmp_path):
    """A string annotation keeps its own text, spacing included; a sentence
    list reads as its sentences joined by newlines. A written corpus stores
    a string annotation's text, so after write_corpus -> ingest both keep
    their sentences and their text, which a second round trip keeps."""
    path = tmp_path / "c.jsonl"
    write_lines(path, [
        {"sample_id": "s", "modality": "text", "raw": "r.",
         "annotation": "A cat.  A dog!\tWhy?"},
        {"sample_id": "l", "modality": "image", "raw": "x", "annotation": ["A cat.", "A dog!"]},
    ])
    string, listed = ingest(path)
    assert string.annotation_text == "A cat.  A dog!\tWhy?"
    assert [c.content for c in string.annotation_components] == ["A cat.", "A dog!", "Why?"]
    assert listed.annotation_text == "A cat.\nA dog!"
    for round_trip in ("once.jsonl", "twice.jsonl"):
        write_corpus(tmp_path / round_trip, [string, listed])
        string, listed = again = ingest(tmp_path / round_trip)
        assert [s.annotation_text for s in again] == ["A cat.  A dog!\tWhy?", "A cat.\nA dog!"]
        assert [[c.content for c in s.annotation_components] for s in again] == \
            [["A cat.", "A dog!", "Why?"], ["A cat.", "A dog!"]]


def test_record_export_shape():
    from emblend.dataio import Component, PairedSample
    sample = PairedSample("s", "p", "text", [Component("only sentence.")],
                          [Component("ann.")])
    rec = sample_to_record(sample)
    assert rec["raw"] == "only sentence."
    assert rec["annotation"] == ["ann."]


def test_record_keeps_an_annotation_text_only_when_it_reads_back_the_same():
    """The record carries the text when it differs from the sentences joined
    by newlines and segments into exactly them; else the sentence list."""
    from emblend.dataio import Component, PairedSample
    ann = [Component("A cat."), Component("A dog!")]

    def annotation(text):
        return sample_to_record(PairedSample("s", "p", "image", [Component("x")], ann,
                                             annotation_text=text))["annotation"]

    assert annotation("A cat.  A dog!") == "A cat.  A dog!"
    assert annotation("") == annotation("A cat.\nA dog!") == ["A cat.", "A dog!"]
    assert annotation("A cat. A dog! Why?") == ["A cat.", "A dog!"]  # another segmentation
    assert annotation("a cat and a dog") == ["A cat.", "A dog!"]


def test_byte_sizes_sum(tmp_path):
    path = tmp_path / "c.jsonl"
    write_lines(path, [{"sample_id": "s", "modality": "text",
                        "raw": "Alpha beta. Gamma!", "annotation": "Delta."}])
    sample = ingest(path)[0]
    assert sample.raw_bytes == sum(len(c.content.encode()) for c in sample.raw_components)
    assert sample.annotation_bytes == len("Delta.".encode())
