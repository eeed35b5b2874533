import json

import pytest
from reference import ingest_pairs, pair_ids

from emblend.dataio import Corpus, ingest, sample_to_record, write_corpus
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


# -- the column parse against the pair-by-pair oracle ---------------------------

WELL_FORMED = {
    "string raw sides": [
        {"sample_id": "t", "pool_id": "p0", "modality": "text",
         "raw": "  One sentence.  Two!\tThree? tail", "annotation": "A cap.  Another one."},
        {"sample_id": "i", "pool_id": "p1", "modality": "image", "raw": "imagedata. Not split.",
         "annotation": "Caption."}],
    "list raw sides": [
        {"sample_id": "v", "modality": "video", "raw": ["clip one", "clip two", 3],
         "annotation": "A clip."},
        {"sample_id": "t", "modality": "text", "components": ["First.", "Second."],
         "annotation": "Two sentences."}],
    "list annotations": [
        {"sample_id": "a", "modality": "audio", "raw": "rain",
         "annotation": ["Rain falls.", "On a roof.", 7]},
        {"sample_id": "t", "modality": "text", "raw": "A. B.", "annotation": ["Only one."]}],
    "presegmented": [
        {"sample_id": "s", "modality": "text", "components": "One. Two.", "annotation": "A."},
        {"sample_id": "l", "modality": "text", "raw": ["One. Two."], "annotation": "B."},
        {"sample_id": "r", "modality": "text", "raw": "One. Two.", "annotation": "C."}],
    "media_ref": [
        {"sample_id": "m", "modality": "image", "components": ["x"], "annotation": ["A."],
         "media_ref": "/data/m.png"},
        {"sample_id": "n", "modality": "image", "raw": "y", "annotation": "B.",
         "media_ref": None}],
    "non-string values and multi-byte text": [
        {"sample_id": 12, "pool_id": 3, "modality": "text",
         "raw": "Caf\u00e9 cr\u00e8me. \u6f22\u5b57!", "annotation": "\U0001f600 ok."}],
}

BLANK_LINES = "\n  \n\t\n"


def write_case(path, records, blanks=""):
    path.write_text(blanks + blanks.join(json.dumps(r) + "\n" for r in records) + blanks,
                    encoding="utf-8")


@pytest.mark.parametrize("blanks", ["", BLANK_LINES])
@pytest.mark.parametrize("case", list(WELL_FORMED))
def test_corpus_equals_the_pair_by_pair_ingest(case, blanks, tmp_path):
    path = tmp_path / "c.jsonl"
    write_case(path, WELL_FORMED[case], blanks)
    corpus, want = ingest(path), ingest_pairs(path)
    assert isinstance(corpus, Corpus) and len(corpus) == len(want)
    assert corpus.item_ids == [i for p in want for i in pair_ids(p)]
    for got, pair in zip(corpus, want):
        assert got.raw_components == pair.raw_components
        assert got.annotation_components == pair.annotation_components
        assert (got.annotation_text, got.presegmented) == \
            (pair.annotation_text, pair.presegmented)
        assert got == pair
    comps = [c for p in want for c in p.raw_components + p.annotation_components]
    assert corpus.contents == [c.content for c in comps]
    assert corpus.byte_sizes == [c.byte_size for c in comps]
    assert Corpus.from_pairs(want).item_ids == corpus.item_ids
    if case == "presegmented":  # ``components`` or a raw list
        assert [p.presegmented for p in corpus] == [True, True, False]


GOOD = {"sample_id": "ok", "modality": "text", "raw": "r.", "annotation": "a."}

MALFORMED = {
    "missing annotation": [{"sample_id": "broken", "modality": "text", "raw": "x."}],
    "missing annotation, numeric id": [{"sample_id": 7, "modality": "text", "raw": "x."}],
    "no raw side": [{"sample_id": "n", "modality": "text", "annotation": "a."}],
    "missing sample_id": [GOOD, {"modality": "text", "raw": "x.", "annotation": "a."}],
    "empty sample_id": [{"sample_id": "", "modality": "text", "raw": "x.", "annotation": "a."}],
    "empty side": [{"sample_id": "e", "modality": "text", "raw": "", "annotation": "fine."}],
    "blank annotation": [{"sample_id": "b", "modality": "image", "raw": "x",
                          "annotation": "  \t "}],
    "empty component": [{"sample_id": "z", "modality": "video", "raw": ["clip", ""],
                         "annotation": "a."}],
    "unknown modality": [{"sample_id": "u", "modality": "smell", "raw": "", "annotation": ""}],
    "no modality": [{"sample_id": "u", "raw": "x", "annotation": "a."}],
    "duplicate ids": [GOOD, GOOD],
    "duplicate ids, numeric": [dict(GOOD, sample_id="5"), dict(GOOD, sample_id=5)],
    "not an object": [GOOD, ["a", "list"]],
    "lone surrogate": [{"sample_id": "s", "modality": "text", "raw": ["ok", "\ud800"],
                        "annotation": "a."}],
}


def _raised(parse, path):
    with pytest.raises(Exception) as err:
        parse(path)
    exc = err.value
    return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "sample_id", None)


@pytest.mark.parametrize("case", list(MALFORMED) + ["bad json", "not UTF-8"])
def test_malformed_input_raises_what_the_pair_by_pair_ingest_raises(case, tmp_path):
    path = tmp_path / "c.jsonl"
    if case == "bad json":
        path.write_text(json.dumps(GOOD) + "\n\n{bad json\n")
    elif case == "not UTF-8":
        path.write_bytes(json.dumps(GOOD).encode() + b"\n" + b'{"sample_id": "\xff"}\n')
    else:
        write_case(path, MALFORMED[case], BLANK_LINES)
    got = _raised(ingest, path)
    assert got == _raised(ingest_pairs, path)
    assert got[0] in (ParseError, InvariantViolation, UnicodeEncodeError)
