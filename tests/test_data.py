import json

import pytest

from autopyramid.data import (
    Reference,
    ReferenceEntry,
    SystemSummary,
    UnitFileRow,
    load_dataset,
    load_units,
    save_units,
)
from autopyramid.errors import (
    DuplicateExampleId,
    FileUnreadable,
    PresenceLengthMismatch,
    SchemaViolation,
)


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return path


def valid_row(example_id="e1"):
    return {
        "example_id": example_id,
        "references": [
            {"text": "The cat sat. A dog barked.", "scus": ["the cat sat", "a dog barked"]}
        ],
        "systems": [
            {
                "system_id": "sysA",
                "summary": "The cat sat.",
                "human_score": 0.5,
                "scu_presence": [1, 0],
            },
            {"system_id": "sysB", "summary": "Nothing here."},
        ],
    }


def test_load_dataset_valid(tmp_path):
    path = write_jsonl(tmp_path / "d.jsonl", [valid_row("e1"), valid_row("e2")])
    entries = load_dataset(path)
    assert [e.example_id for e in entries] == ["e1", "e2"]
    entry = entries[0]
    assert entry.references[0].scus == ("the cat sat", "a dog barked")
    assert entry.systems[0].human_score == 0.5
    assert entry.systems[0].scu_presence == (1, 0)
    assert entry.systems[1].human_score is None
    assert entry.pooled_scus() == ["the cat sat", "a dog barked"]


def test_presence_labels_are_stored_as_ints(tmp_path):
    row = valid_row()
    row["systems"][0]["scu_presence"] = [True, 0.0]
    path = write_jsonl(tmp_path / "d.jsonl", [row])
    presence = load_dataset(path)[0].systems[0].scu_presence
    assert presence == (1, 0)
    assert [type(label) for label in presence] == [int, int]


def test_load_dataset_skips_blank_lines(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(valid_row()) + "\n\n", encoding="utf-8")
    assert len(load_dataset(path)) == 1


def test_load_dataset_duplicate_id(tmp_path):
    path = write_jsonl(tmp_path / "d.jsonl", [valid_row("e1"), valid_row("e1")])
    with pytest.raises(DuplicateExampleId) as info:
        load_dataset(path)
    assert info.value.line == 2


def test_load_dataset_presence_length(tmp_path):
    row = valid_row()
    row["systems"][0]["scu_presence"] = [1, 0, 1]
    path = write_jsonl(tmp_path / "d.jsonl", [row])
    with pytest.raises(PresenceLengthMismatch) as info:
        load_dataset(path)
    assert info.value.line == 1
    assert "scu_presence" in info.value.field


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda r: r.pop("example_id"), "example_id"),
        (lambda r: r.update(example_id=7), "example_id"),
        (lambda r: r.update(references=[]), "references"),
        (lambda r: r["references"][0].pop("text"), "references[0].text"),
        (lambda r: r["references"][0].update(scus=["ok", ""]), "references[0].scus[1]"),
        (lambda r: r["systems"][0].pop("system_id"), "systems[0].system_id"),
        (lambda r: r["systems"][0].update(summary=None), "systems[0].summary"),
        (lambda r: r["systems"][0].update(human_score="high"), "systems[0].human_score"),
        (lambda r: r["systems"][0].update(scu_presence=[2, 0]), "systems[0].scu_presence"),
        (lambda r: r["systems"].append(dict(r["systems"][0])), "systems[2].system_id"),
    ],
)
def test_load_dataset_schema_violations(tmp_path, mutate, field):
    row = valid_row()
    mutate(row)
    path = write_jsonl(tmp_path / "d.jsonl", [row])
    with pytest.raises(SchemaViolation) as info:
        load_dataset(path)
    assert info.value.line == 1
    assert info.value.field == field


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_load_dataset_rejects_non_finite_human_score(tmp_path, text):
    row = json.dumps(valid_row()).replace('"human_score": 0.5', f'"human_score": {text}')
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(valid_row("e0")) + "\n" + row + "\n", encoding="utf-8")
    with pytest.raises(SchemaViolation) as info:
        load_dataset(path)
    assert info.value.line == 2
    assert info.value.field == "systems[0].human_score"


def test_load_dataset_bad_json(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text("{not json}\n", encoding="utf-8")
    with pytest.raises(SchemaViolation) as info:
        load_dataset(path)
    assert info.value.line == 1


def test_load_dataset_missing_file(tmp_path):
    with pytest.raises(FileUnreadable):
        load_dataset(tmp_path / "gone.jsonl")


def test_units_roundtrip_byte_identical(tmp_path):
    rows = [
        UnitFileRow("e1", 0, "sentence_split", "The cat sat."),
        UnitFileRow("e1", 0, "sentence_split", "A dog barked."),
        UnitFileRow("e2", 1, "ngram", "cat sat on"),
    ]
    first = tmp_path / "u1.jsonl"
    second = tmp_path / "u2.jsonl"
    save_units(first, rows)
    loaded = load_units(first)
    assert loaded == rows
    save_units(second, loaded)
    assert first.read_bytes() == second.read_bytes()


def test_units_roundtrip_empty(tmp_path):
    path = tmp_path / "u.jsonl"
    save_units(path, [])
    assert path.read_text(encoding="utf-8") == ""
    assert load_units(path) == []


def test_save_units_rejects_empty_text(tmp_path):
    with pytest.raises(SchemaViolation):
        save_units(tmp_path / "u.jsonl", [UnitFileRow("e1", 0, "ngram", "  ")])
    with pytest.raises(SchemaViolation):
        save_units(tmp_path / "u.jsonl", [UnitFileRow("e1", 0, "private", "x")])


def test_load_units_validates(tmp_path):
    path = tmp_path / "u.jsonl"
    path.write_text('{"example_id": "e", "reference_index": -1, "strategy": "ngram", "text": "x"}\n', encoding="utf-8")
    with pytest.raises(SchemaViolation) as info:
        load_units(path)
    assert info.value.field == "reference_index"


def test_loaded_entries_are_immutable_tuples(tmp_path):
    path = write_jsonl(tmp_path / "d.jsonl", [valid_row()])
    entry = load_dataset(path)[0]
    assert isinstance(entry.references, tuple)
    assert isinstance(entry.systems, tuple)
    assert isinstance(entry, ReferenceEntry)
    assert isinstance(entry.references[0], Reference)
    assert isinstance(entry.systems[0], SystemSummary)
