import copy
import errno
import gc
import hashlib
import io
import json
import operator
import os
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autopyramid import data
from autopyramid.amr import load_penman_file
from autopyramid.data import (
    Reference,
    ReferenceEntry,
    SystemSummary,
    UnitFileRow,
    _json_lines,
    _parse_entry,
    import_rows,
    load_dataset,
    load_scores,
    load_units,
    read_input,
    save_units,
)
from autopyramid.errors import (
    DuplicateExampleId,
    FileUnreadable,
    FileUnwritable,
    InputError,
    MalformedPenman,
    PresenceLengthMismatch,
    SchemaViolation,
)

from oracles import (
    json_lines_oracle,
    load_dataset_oracle,
    load_scores_oracle,
    load_scores_reference,
    load_units_oracle,
    load_units_reference,
    parse_entry_reference,
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
    entries = list(load_dataset(path))
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
    presence = list(load_dataset(path))[0].systems[0].scu_presence
    assert presence == (1, 0)
    assert [type(label) for label in presence] == [int, int]


def test_load_dataset_skips_blank_lines(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(valid_row()) + "\n\n", encoding="utf-8")
    assert len(list(load_dataset(path))) == 1


def test_load_dataset_duplicate_id(tmp_path):
    path = write_jsonl(tmp_path / "d.jsonl", [valid_row("e1"), valid_row("e1")])
    with pytest.raises(DuplicateExampleId) as info:
        list(load_dataset(path))
    assert info.value.line == 2


def test_load_dataset_presence_length(tmp_path):
    row = valid_row()
    row["systems"][0]["scu_presence"] = [1, 0, 1]
    path = write_jsonl(tmp_path / "d.jsonl", [row])
    with pytest.raises(PresenceLengthMismatch) as info:
        list(load_dataset(path))
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
        list(load_dataset(path))
    assert info.value.line == 1
    assert info.value.field == field


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_load_dataset_rejects_non_finite_human_score(tmp_path, text):
    row = json.dumps(valid_row()).replace('"human_score": 0.5', f'"human_score": {text}')
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(valid_row("e0")) + "\n" + row + "\n", encoding="utf-8")
    with pytest.raises(SchemaViolation) as info:
        list(load_dataset(path))
    assert info.value.line == 2
    assert info.value.field == "systems[0].human_score"


def test_load_dataset_bad_json(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text("{not json}\n", encoding="utf-8")
    with pytest.raises(SchemaViolation) as info:
        list(load_dataset(path))
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
    loaded = list(load_units(first))
    assert loaded == rows
    save_units(second, loaded)
    assert first.read_bytes() == second.read_bytes()


def test_units_roundtrip_empty(tmp_path):
    path = tmp_path / "u.jsonl"
    save_units(path, [])
    assert path.read_text(encoding="utf-8") == ""
    assert list(load_units(path)) == []


def test_save_units_rejects_empty_text(tmp_path):
    with pytest.raises(SchemaViolation):
        save_units(tmp_path / "u.jsonl", [UnitFileRow("e1", 0, "ngram", "  ")])
    with pytest.raises(SchemaViolation):
        save_units(tmp_path / "u.jsonl", [UnitFileRow("e1", 0, "private", "x")])
    assert list(tmp_path.iterdir()) == []
    # after valid rows, which are written as they are checked: the same
    # error, and a file already there is left as it was
    path = tmp_path / "u.jsonl"
    path.write_bytes(b"old\n")
    good = [UnitFileRow("e1", 0, "ngram", f"unit {i}") for i in range(3)]
    with pytest.raises(SchemaViolation) as info:
        save_units(path, iter(good + [UnitFileRow("e1", 0, "ngram", " \t")]))
    assert (str(info.value), info.value.line, info.value.field) == (
        "line 4, field text: unit text is empty", 4, "text"
    )
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == b"old\n"
    # and into a directory that is not there, the path is refused before
    # any row is checked
    missing = tmp_path / "missing" / "u.jsonl"
    with pytest.raises(FileUnwritable) as info:
        save_units(missing, iter(good + [UnitFileRow("e1", 0, "ngram", "")]))
    assert str(info.value) == f"cannot write {missing}: No such file or directory"


@pytest.mark.parametrize("existing", [None, b"old\n"], ids=["new", "existing"])
def test_atomic_write_text_passes_an_error_making_a_piece_through(tmp_path, existing):
    path = tmp_path / "out.txt"
    if existing is not None:
        path.write_bytes(existing)
    error = SchemaViolation("unit text is empty", line=2, field="text")

    def pieces():
        yield "one\n"
        assert len(list(tmp_path.glob("*.tmp"))) == 1  # the first is written
        raise error

    with pytest.raises(SchemaViolation) as info:
        data.atomic_write_text(path, pieces())
    assert info.value is error
    assert [p.name for p in tmp_path.iterdir()] == ([] if existing is None else [path.name])
    if existing is not None:
        assert path.read_bytes() == existing


def fail_every_write(monkeypatch):
    """Make each write to a file that ``os.fdopen`` opens fail: disk full."""
    fdopen = os.fdopen

    def full_disk(fd, *args, **kwargs):
        handle = fdopen(fd, *args, **kwargs)

        def write(text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        handle.write = write
        return handle

    monkeypatch.setattr(os, "fdopen", full_disk)


def test_atomic_write_text_names_a_failing_write(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old\n")
    fail_every_write(monkeypatch)
    made = []

    def pieces():
        for piece in ("one\n", "two\n"):
            made.append(piece)
            yield piece

    with pytest.raises(FileUnwritable) as info:
        data.atomic_write_text(path, pieces())
    assert str(info.value) == f"cannot write {path}: {os.strerror(errno.ENOSPC)}"
    assert made == ["one\n"]
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == b"old\n"


@pytest.mark.parametrize("failing", ["write", "temp-file"])
def test_a_failed_write_wins_over_an_error_making_a_later_piece(
    tmp_path, monkeypatch, failing
):
    # the first fault ends the write: no piece is made after it
    if failing == "write":
        path = tmp_path / "out.txt"
        fail_every_write(monkeypatch)
    else:
        path = tmp_path / "missing" / "out.txt"
    error = SchemaViolation("unit text is empty", line=3, field="text")
    made = []

    def pieces():
        for piece in ("one\n", "two\n"):
            made.append(piece)
            yield piece
        raise error

    with pytest.raises(FileUnwritable) as info:
        data.atomic_write_text(path, pieces())
    reason = errno.ENOSPC if failing == "write" else errno.ENOENT
    assert str(info.value) == f"cannot write {path}: {os.strerror(reason)}"
    assert made == (["one\n"] if failing == "write" else [])
    assert list(tmp_path.iterdir()) == []


def test_a_load_holds_each_repeated_value_once(tmp_path):
    path = write_jsonl(tmp_path / "d.jsonl", [valid_row("e1"), valid_row("e2")])
    first, second = load_dataset(path)
    for one, other in zip(first.systems, second.systems):
        assert one.system_id is other.system_id
    units = tmp_path / "u.jsonl"
    save_units(units, [UnitFileRow("example-1", 0, "ngram", "a b"),
                       UnitFileRow("example-2", 0, "ngram", "c d"),
                       UnitFileRow("example-1", 0, "ngram", "e f")])
    for rows in (list(load_units(units)), import_rows(units, "imported_stu")):
        assert rows[0].example_id is rows[2].example_id
        assert rows[0].strategy is rows[1].strategy is rows[2].strategy


@pytest.mark.parametrize(
    "fields, shared",
    [((), True), (("text", "scus"), True), (("summary",), False),
     (("human_score",), False), (("scu_presence",), False),
     (("text", "scus", "summary", "human_score", "scu_presence"), False)],
)
def test_a_load_keeping_no_per_system_field_shares_each_systems_tuple(tmp_path, fields, shared):
    """A reader that keeps of each system no field but its id, as `score`
    and `metaeval` do, can hold one systems tuple for the examples whose
    ids are the same: the load gives each id as one object. Each other
    per-system field is a new object in each entry, so keeping any of
    them leaves nothing to share."""
    other = valid_row("e3")
    other["systems"].reverse()  # the same ids, in another order
    path = write_jsonl(tmp_path / "d.jsonl", [valid_row("e1"), valid_row("e2"), other])
    first, second, third = load_dataset(path)
    ids = [tuple([s.system_id for s in e.systems]) for e in (first, second, third)]
    assert ids[0] == ids[1] and all(map(operator.is_, ids[0], ids[1]))
    assert ids[2] == ("sysB", "sysA")
    kept = [name for name in fields if name in SystemSummary._fields]
    one, same = first.systems[0], second.systems[0]  # sysA, which has every field
    assert one == same
    assert all(getattr(one, name) is getattr(same, name) for name in kept) is shared


def test_load_dataset_gives_each_entry_with_every_field_once_it_is_checked(tmp_path):
    bad = valid_row("e2")
    bad["systems"][1]["human_score"] = "high"  # fails after sysA is checked
    path = write_jsonl(tmp_path / "d.jsonl", [valid_row("e1"), bad])
    entries = load_dataset(path)
    first = next(entries)
    assert first.systems == (
        SystemSummary("sysA", "The cat sat.", 0.5, (1, 0)),
        SystemSummary("sysB", "Nothing here."),
    )
    assert first.references == (
        Reference("The cat sat. A dog barked.", ("the cat sat", "a dog barked")),
    )
    assert type(first.systems[0].human_score) is float
    with pytest.raises(SchemaViolation) as info:
        next(entries)
    assert (info.value.line, info.value.field, info.value.path) == (2, "systems[1].human_score", path)


def test_load_dataset_opens_at_the_call_and_reads_as_the_entries_are_taken(tmp_path):
    with pytest.raises(FileUnreadable):
        load_dataset(tmp_path / "gone.jsonl")
    path = write_jsonl(tmp_path / "d.jsonl", [valid_row("e1"), valid_row("e2")])
    digests = {}
    entries = load_dataset(path, digests=digests)
    assert next(entries).example_id == "e1" and digests == {}
    assert [e.example_id for e in entries] == ["e2"]
    assert digests == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}


def scores_by_cell(scores, example_ids, system_ids):
    """The scores ``load_scores(path, example_ids, system_ids)`` gives, by
    (example_id, system_id) and in cell order, the cells no row scores
    left out."""
    cells = [(e, s) for e in example_ids for s in system_ids]
    return {cell: score for cell, score in zip(cells, scores, strict=True) if score == score}


def test_load_scores_keys_scores_by_the_cells_given(tmp_path):
    path = write_jsonl(tmp_path / "s.jsonl", [
        {"example_id": "e2", "system_id": "sysB", "score": 1},
        {"example_id": "e1", "system_id": "sysA", "score": 0.5},
        {"example_id": "e2", "system_id": "sysA", "score": -2},
    ])
    scores = load_scores(path, ["e1", "e2"], ["sysA", "sysB"])
    # one float a cell, example by example, and NaN where no row is
    assert scores.typecode == "d" and len(scores) == 4 and scores[1] != scores[1]
    assert scores_by_cell(scores, ["e1", "e2"], ["sysA", "sysB"]) == {
        ("e1", "sysA"): 0.5, ("e2", "sysA"): -2.0, ("e2", "sysB"): 1.0
    }


def test_load_units_validates(tmp_path):
    path = tmp_path / "u.jsonl"
    path.write_text('{"example_id": "e", "reference_index": -1, "strategy": "ngram", "text": "x"}\n', encoding="utf-8")
    with pytest.raises(SchemaViolation) as info:
        list(load_units(path))
    assert info.value.field == "reference_index"


def test_load_units_opens_at_the_call_and_reads_as_the_rows_are_taken(tmp_path):
    with pytest.raises(FileUnreadable):
        load_units(tmp_path / "gone.jsonl")
    path = tmp_path / "u.jsonl"
    save_units(path, [UnitFileRow("e1", 0, "ngram", "a b"), UnitFileRow("e2", 0, "ngram", "c")])
    digests = {}
    rows = load_units(path, digests=digests)
    assert next(rows) == ("e1", 0, "ngram", "a b") and digests == {}
    assert list(rows) == [("e2", 0, "ngram", "c")]
    assert digests == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}


def test_loaded_entries_are_immutable_tuples(tmp_path):
    path = write_jsonl(tmp_path / "d.jsonl", [valid_row()])
    entry = next(load_dataset(path))
    assert isinstance(entry.references, tuple)
    assert isinstance(entry.systems, tuple)
    assert isinstance(entry, ReferenceEntry)
    assert isinstance(entry.references[0], Reference)
    assert isinstance(entry.systems[0], SystemSummary)


# ---------------------------------------------------------------------------
# The one reader, and each loader against the loader it replaced


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """One file that each hypothesis example overwrites."""
    return tmp_path_factory.mktemp("loaders") / "input"


# every line break str.splitlines knows, of which the reader breaks only
# at "\n", around text that is not a break
BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
          "\u2028", "\u2029"]

# the reader's chunk sizes under test: a break, a character of up to four
# bytes and a line each fall across chunk boundaries at the small ones
CHUNK_SIZES = [1, 2, 3, 4, 7, data.CHUNK_SIZE]

# a line longer than ten chunks at every small size
LONG = "ab" * 40


@settings(max_examples=300)
@given(st.lists(
    st.sampled_from(BREAKS + ["a", "é", "𝄞", " ", "{}", "\t", "\x1f", LONG]), max_size=30
))
def test_read_input_lines_are_those_of_a_text_mode_read(scratch, pieces):
    raw = "".join(pieces).encode("utf-8")
    scratch.write_bytes(raw)
    # a text-mode read whose lines end at "\n" alone
    with open(scratch, "r", encoding="utf-8", newline="\n") as handle:
        expected = [line.removesuffix("\n") for line in handle]
    for chunk_size in CHUNK_SIZES:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data, "CHUNK_SIZE", chunk_size)
            digests = {}
            assert list(read_input(scratch, digests)) == expected, chunk_size
            assert digests == {str(scratch): hashlib.sha256(raw).hexdigest()}, chunk_size


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_read_input_joins_what_a_chunk_boundary_splits(tmp_path, chunk_size, monkeypatch):
    monkeypatch.setattr(data, "CHUNK_SIZE", chunk_size)
    path = tmp_path / "split.jsonl"
    # "\r" ends the first chunk and "\n" starts the second, and the "\r"
    # stays in its line; then a line of more than ten chunks, and a
    # four-byte character whose first two bytes end a chunk
    lines = ["x" * (chunk_size - 1) + "\r", "y" * (10 * chunk_size + 3)]
    text = "\n".join(lines) + "\n"
    lines.append("z" * ((chunk_size - 2 - len(text)) % chunk_size) + "𝄞")
    path.write_text(text + lines[-1] + "\n", encoding="utf-8", newline="")
    assert list(read_input(path)) == lines


def digest_read(path, chunk_size):
    """The digest :func:`read_input` stores for *path*, read in blocks of
    about *chunk_size* bytes."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "CHUNK_SIZE", chunk_size)
        digests = {}
        for _ in read_input(path, digests):
            pass
    return digests


# the built-in hash the reader takes must give hashlib's (OpenSSL's) digest
@settings(max_examples=200)
@given(st.lists(st.binary(max_size=24), max_size=12), st.integers(1, 16))
def test_read_input_digest_is_hashlib_sha256(scratch, pieces, chunk_size):
    # random bytes, each that is not UTF-8 replaced, in lines that blocks
    # of about chunk_size bytes split anywhere
    raw = b"\n".join(piece.decode("utf-8", "replace").encode("utf-8") for piece in pieces)
    scratch.write_bytes(raw)
    assert digest_read(scratch, chunk_size) == {str(scratch): hashlib.sha256(raw).hexdigest()}


DATA_FILES = sorted(p for p in (Path(__file__).parent / "data").rglob("*") if p.is_file())


@pytest.mark.parametrize("chunk_size", [7, data.CHUNK_SIZE])
@pytest.mark.parametrize("path", DATA_FILES, ids=[p.name for p in DATA_FILES])
def test_read_input_digest_of_each_test_input_is_hashlib_sha256(path, chunk_size):
    assert digest_read(path, chunk_size) == {
        str(path): hashlib.sha256(path.read_bytes()).hexdigest()
    }


@pytest.mark.parametrize(
    "raw, line",
    [
        (b"\xff", 1),
        (b"ok\n\xff\n", 2),
        (b"a\r\nb\rc\x85\xff", 2),  # \x85 is a stray byte here, not U+0085
        ("a\r\nb\rc\x85".encode("utf-8") + b"\xff", 2),  # "\r" and U+0085 end no line
        ("a\u2028".encode("utf-8") + b"\n\n\xc3", 3),
        ("𝄞\r\n𝄞".encode("utf-8") + b"\xff", 2),
        ("a\r\n".encode("utf-8") + "𝄞".encode("utf-8")[:3], 2),  # cut short at the end
        ((LONG + "\n" + LONG).encode("utf-8") + b"\xed\xa0\x80\n", 2),  # a surrogate
    ],
)
def test_read_input_names_the_file_and_line_of_bad_utf8(tmp_path, monkeypatch, raw, line):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(raw)
    for chunk_size in CHUNK_SIZES:
        monkeypatch.setattr(data, "CHUNK_SIZE", chunk_size)
        given = []
        with pytest.raises(FileUnreadable) as info:
            given.extend(read_input(path))
        assert str(info.value) == f"cannot read {path}: line {line} is not valid UTF-8"
        # the lines before the bad one come first
        assert len(given) == line - 1, chunk_size


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_a_bad_row_before_bad_utf8_is_the_error(tmp_path, monkeypatch, chunk_size):
    monkeypatch.setattr(data, "CHUNK_SIZE", chunk_size)
    path = tmp_path / "d.jsonl"
    row = json.dumps(valid_row())
    path.write_bytes(f"{row}\n{{\n\n\n".encode("utf-8") + b"\xff\n")
    with pytest.raises(SchemaViolation) as info:
        list(load_dataset(path))
    assert info.value.line == 2


@pytest.mark.parametrize("taken", [0, 1], ids=["before-the-first-line", "after-one-line"])
def test_a_dropped_reader_leaves_no_file_open(tmp_path, monkeypatch, opened, taken):
    path = tmp_path / "d.jsonl"
    path.write_text("a\nb\nc\n")
    gc.collect()
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        lines = read_input(path)
        assert len(opened) == 1 and not opened[0].closed  # opened by the call
        assert [next(lines) for _ in range(taken)] == ["a", "b", "c"][:taken]
        del lines
        assert opened[0].closed
        del opened[:]
        gc.collect()
    assert unraisable == []


UNIT_ROW = {"example_id": "e1", "reference_index": 0, "strategy": "ngram", "text": "a b"}
SCORE_ROW = {"example_id": "e1", "system_id": "a", "score": 0.5}
GRAPH = "(w / want-01 :ARG0 (b / boy))"


@pytest.mark.parametrize(
    "load, good, bad, error",
    [
        (lambda path: list(load_dataset(path)), json.dumps(valid_row()), "[]", SchemaViolation),
        (lambda path: list(load_dataset(path)), json.dumps(valid_row()), "{", SchemaViolation),
        (lambda path: list(load_units(path)), json.dumps(UNIT_ROW), "[]", SchemaViolation),
        (
            lambda path: load_scores(path, SCORE_EXAMPLES, SCORE_SYSTEMS),
            json.dumps(SCORE_ROW),
            json.dumps({**SCORE_ROW, "system_id": "z"}),
            SchemaViolation,
        ),
        (lambda path: list(load_penman_file(path)), f"{GRAPH}\n", "(b / boy", MalformedPenman),
    ],
    ids=["not-an-entry", "not-json", "units", "scores", "graphs"],
)
def test_a_loader_that_stops_on_a_bad_row_leaves_no_file_open(
    tmp_path, monkeypatch, opened, load, good, bad, error
):
    path = tmp_path / "in.jsonl"
    path.write_text(f"{good}\n{bad}\n\n{good}\n")
    monkeypatch.setattr(data, "CHUNK_SIZE", 16)
    gc.collect()
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        with pytest.raises(error) as info:
            load(path)
        assert info.value.line == (3 if error is MalformedPenman else 2)
        assert info.value.path == path
        # closed while the error, and the frames it holds, are still alive
        assert len(opened) == 1 and opened[0].closed
        del opened[:], info
        gc.collect()
    assert unraisable == []


def test_a_read_that_fails_after_the_open_names_the_file(tmp_path, monkeypatch):
    path = write_jsonl(tmp_path / "d.jsonl", [valid_row("e1")])
    handles = []

    class FailingSecondRead(io.BufferedReader):
        reads = 0

        def read(self, size=-1):
            self.reads += 1
            if self.reads == 2:
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return super().read(size)

    def failing_open(file, mode):
        assert mode == "rb"
        handles.append(FailingSecondRead(io.FileIO(file)))
        return handles[-1]

    monkeypatch.setattr(data, "open", failing_open, raising=False)
    with pytest.raises(FileUnreadable) as info:
        list(load_dataset(path))
    assert str(info.value) == f"cannot read {path}: [Errno 5] {os.strerror(errno.EIO)}"
    assert len(handles) == 1 and handles[0].reads == 2 and handles[0].closed


def long_summary_dataset(path):
    """500 examples x 16 systems whose summaries are most of the bytes."""
    rows = []
    for e in range(500):
        row = valid_row(f"e{e}")
        row["systems"] = [
            {"system_id": f"s{i}", "summary": f"summary {e} of system {i}, " * 12,
             "human_score": i / 16, "scu_presence": [i % 2, 1]}
            for i in range(16)
        ]
        rows.append(json.dumps(row))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def traced_load(path, **kwargs):
    """The entries of ``load_dataset(path, **kwargs)``, and the bytes the
    load retained and its peak, under tracemalloc."""
    tracemalloc.start()
    try:
        entries = list(load_dataset(path, **kwargs))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return entries, retained, peak


def test_load_dataset_holds_its_records_plus_about_one_chunk(tmp_path):
    path = long_summary_dataset(tmp_path / "big.jsonl")
    size = path.stat().st_size
    assert size >= 8 * data.CHUNK_SIZE
    entries, retained, peak = traced_load(path)
    assert len(entries) == 500
    # a whole-file read holds about the file's size beyond the records
    assert peak - retained < size / 4, (peak - retained, size)


def test_a_fold_over_the_dataset_holds_one_entry_at_a_time(tmp_path):
    path = long_summary_dataset(tmp_path / "big.jsonl")
    _, full_retained, _ = traced_load(path)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        examples = sum(1 for _ in load_dataset(path))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # the records of 500 examples, against one entry and one block of lines
    assert examples == 500
    assert peak < full_retained / 10, (peak, full_retained)


def test_accepted_label_and_score_forms(tmp_path):
    row = valid_row()
    row["systems"][0].update(human_score=1, scu_presence=[True, -0.0])
    row["systems"][1].update(human_score=0, scu_presence=[1.0, False])
    path = write_jsonl(tmp_path / "d.jsonl", [row])
    first, second = next(load_dataset(path)).systems
    assert (first.scu_presence, second.scu_presence) == ((1, 0), (1, 0))
    assert {type(label) for label in first.scu_presence + second.scu_presence} == {int}
    assert (first.human_score, second.human_score) == (1.0, 0.0)
    assert type(first.human_score) is float and type(second.human_score) is float


def test_loaders_record_the_digest_of_the_bytes_read(tmp_path):
    path = write_jsonl(tmp_path / "d.jsonl", [valid_row()])
    digests = {}
    list(load_dataset(path, digests=digests))
    assert digests == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}


def test_unit_rows_for_unknown_examples_are_stray(tmp_path):
    path = tmp_path / "u.jsonl"
    rows = [UnitFileRow("e1", 0, "ngram", "a b c"), UnitFileRow("nope", 0, "ngram", "x"),
            UnitFileRow("e1", 0, "ngram", "d e f"), UnitFileRow("gone", 0, "ngram", "y")]
    save_units(path, rows)
    assert list(load_units(path)) == rows
    with pytest.raises(SchemaViolation) as info:
        list(load_units(path, reference_counts={"e1": 1}))
    assert (info.value.line, info.value.field) == (2, "example_id")
    assert str(info.value) == "line 2, field example_id: example 'nope' is not in the dataset"


# JSON values that break one field or another
ODD = [None, "", " ", "x", 0, 1, -1, 2, 0.5, 1.0, -0.0, True, False, float("nan"),
       float("inf"), -float("inf"), 10**400, [], [0], [1, 0], ["1"], [[1]], {}, {"a": 1}]


def _slots(value, path=()):
    """Every (container, key) in a decoded JSON value, parents first."""
    found = []
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        found.append((value, key))
        if isinstance(child, (dict, list)):
            found.extend(_slots(child))
    return found


@st.composite
def mutated(draw, value):
    """*value* with up to three edits: a slot set to an odd value or to
    a sibling's value, or a dict key dropped."""
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        slots = _slots(value)
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        action = draw(st.sampled_from(["odd", "sibling", "drop"]))
        if action == "drop" and isinstance(container, dict):
            del container[key]
        elif action == "sibling" and len(container) > 1:
            keys = list(container) if isinstance(container, dict) else range(len(container))
            container[key] = json.loads(json.dumps(container[draw(st.sampled_from(keys))]))
        else:
            container[key] = copy.deepcopy(draw(st.sampled_from(ODD)))
    return value


@st.composite
def jsonl_file(draw, rows):
    """The bytes of a JSON Lines file holding *rows*, with blank and
    broken lines mixed in, either line ending, and non-ASCII text raw or
    escaped."""
    lines = []
    for row in rows:
        while draw(st.integers(0, 5)) == 5:
            lines.append(draw(st.sampled_from(["", " ", "\t", "{", "[1,", "nul"])))
        lines.append(json.dumps(row, ensure_ascii=draw(st.booleans())))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line + ending for line in lines).encode("utf-8")


@st.composite
def dataset_rows(draw):
    rows = []
    for e in range(draw(st.integers(1, 3))):
        # when written raw, the second text's line breaks of str.splitlines end no row
        texts = st.sampled_from(["A b. C d.", "A\u2028b.\x85C\u2029d."])
        references = [
            {"text": draw(texts), "scus": [f"unit {r} {k}" for k in range(draw(st.integers(0, 3)))]}
            for r in range(draw(st.integers(1, 2)))
        ]
        pooled = sum(len(r["scus"]) for r in references)
        systems = []
        for i in range(draw(st.integers(0, 4))):
            # some ids repeat, a few summaries are no text, some scores are
            # not finite numbers, some label lists are a label short or
            # long: several per entry
            system = {"system_id": f"s{draw(st.sampled_from([i, i, i, 0]))}",
                      "summary": draw(st.sampled_from(["A b."] * 7 + [7]))}
            if draw(st.booleans()):
                system["human_score"] = draw(st.sampled_from(
                    [0.5, 1, 0, -0.0, 0.25, 0.75, 2, 0.125, float("nan"), float("inf"),
                     -float("inf"), 10**400, True]
                ))
            if draw(st.booleans()):
                size = pooled + draw(st.sampled_from([0, 0, 0, 1, -1]))
                system["scu_presence"] = draw(
                    st.lists(st.sampled_from([0, 1, 0, 1, True, False, 1.0, 0.0, -0.0, 2]),
                             min_size=max(size, 0), max_size=max(size, 0))
                )
            systems.append(system)
        rows.append(draw(mutated({"example_id": f"e{e}", "references": references,
                                  "systems": systems})))
    if draw(st.booleans()):
        rows.append(json.loads(json.dumps(draw(st.sampled_from(rows)))))
    return rows


def outcome(load, path):
    """What a loader gives: the repr of its records, which tells 1 from
    1.0 and True, or its error's type, text, line and field."""
    try:
        return repr(load(path))
    except InputError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "field", None)


@settings(max_examples=400)
@given(st.data())
def test_load_dataset_matches_its_reference(scratch, data):
    scratch.write_bytes(data.draw(jsonl_file(data.draw(dataset_rows()))))
    assert outcome(lambda path: list(load_dataset(path)), scratch) == outcome(
        load_dataset_oracle, scratch
    )


@st.composite
def unit_rows(draw):
    return [
        draw(mutated({"example_id": f"e{i % 2}", "reference_index": draw(st.integers(0, 2)),
                      "strategy": draw(st.sampled_from(["ngram", "smu", "sgu"])),
                      "text": draw(st.sampled_from(["a unit", "x", " y "]))}))
        for i in range(draw(st.integers(0, 4)))
    ]


@settings(max_examples=300)
@given(st.data())
def test_load_units_matches_its_reference(scratch, data):
    scratch.write_bytes(data.draw(jsonl_file(data.draw(unit_rows()))))
    assert outcome(lambda path: list(load_units(path)), scratch) == outcome(
        load_units_oracle, scratch
    )
    counts = data.draw(st.sampled_from([{"e0": 3, "e1": 3}, {"e0": 1, "e1": 2}, {"e1": 3}]))
    assert outcome(
        lambda path: list(load_units(path, reference_counts=counts)), scratch
    ) == outcome(lambda path: load_units_oracle(path, counts), scratch)


@st.composite
def score_rows(draw):
    return [
        draw(mutated({"example_id": draw(st.sampled_from(["e1", "e2"])),
                      "system_id": draw(st.sampled_from(["a", "b", "c"])),
                      "score": draw(st.sampled_from([0.5, 1, 0, -2.5, 1e308, float("nan"),
                                                     -float("inf"), 10**400, True]))}))
        for _ in range(draw(st.integers(0, 5)))
    ]


SCORE_EXAMPLES, SCORE_SYSTEMS = ("e1", "e2"), ("a", "b", "c")
SCORE_CELLS = {(e, s): (e, s) for e in SCORE_EXAMPLES for s in SCORE_SYSTEMS}


def load_scores_by_cell(path):
    """``load_scores`` on the cells of ``SCORE_CELLS``, as the references
    give it: by cell, in cell order."""
    scores = load_scores(path, SCORE_EXAMPLES, SCORE_SYSTEMS)
    return scores_by_cell(scores, SCORE_EXAMPLES, SCORE_SYSTEMS)


def in_cell_order(scores):
    """A reference's scores by cell, in the order of ``SCORE_CELLS``."""
    return {cell: scores[cell] for cell in SCORE_CELLS if cell in scores}


@settings(max_examples=300)
@given(st.data())
def test_load_scores_matches_its_reference_and_refuses_stray_rows(scratch, data):
    scratch.write_bytes(data.draw(jsonl_file(data.draw(score_rows()))))
    # the first row for a cell not in the dataset, or repeating one, fails
    assert outcome(load_scores_by_cell, scratch) == outcome(
        lambda path: in_cell_order(load_scores_oracle(path, SCORE_CELLS)), scratch
    )


# the pieces of a line: JSON values, two values, broken values, the
# whitespace JSON allows and whitespace it does not (some of it line
# breaks to str.splitlines), and nesting deeper than any recursion limit
DEEP = 50_000
LINE_PIECES = [
    "1", "-2.5e3", "1e999", '"a b"', '"\\u00e9"', "true", "null", "NaN", "Infinity",
    "-Infinity", "{}", "[]", '{"a": [1, {"b": null}]}', "1 2", "{} {}", "[1,", "{", "nul",
    '"x', " ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
    "\u2028", "\u3000", "[" * DEEP + "]" * DEEP, "[" * DEEP,
]


def lines_outcome(decode, lines):
    """The repr of what *decode* gives, which tells 1 from 1.0 and True
    and shows NaN, or its error's type, text and line."""
    try:
        return repr(list(decode(lines)))
    except SchemaViolation as exc:
        return type(exc), str(exc), exc.line


@settings(max_examples=400)
@given(st.lists(st.lists(st.sampled_from(LINE_PIECES), max_size=4).map("".join), max_size=6))
def test_json_lines_decodes_each_line_as_decode_does(lines):
    assert lines_outcome(_json_lines, lines) == lines_outcome(json_lines_oracle, lines)


# ---------------------------------------------------------------------------
# The loaders against the same row checks with every record built by its
# constructor and every number checked by is_finite_number


def record_outcome(load):
    """What ``load()`` gives: its records, and the repr that tells their
    types and 1 from 1.0 and True; or its error's type, text, line and
    field."""
    try:
        records = load()
    except InputError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "field", None)
    return records, repr(records)


@settings(max_examples=300)
@given(st.data())
def test_parse_entry_matches_its_constructor_built_reference(data):
    rows = data.draw(dataset_rows())
    if data.draw(st.booleans()):  # a row that is not an object
        rows.append(copy.deepcopy(data.draw(st.sampled_from(ODD))))
    for number, row in enumerate(rows, start=1):
        assert record_outcome(lambda: _parse_entry(row, number, {}.setdefault)) == record_outcome(
            lambda: parse_entry_reference(row, number)
        )


@settings(max_examples=200)
@given(st.data())
def test_load_units_matches_its_constructor_built_reference(scratch, data):
    scratch.write_bytes(data.draw(jsonl_file(data.draw(unit_rows()))))
    counts = data.draw(st.sampled_from([None, {"e0": 3, "e1": 3}, {"e0": 1, "e1": 2}, {"e1": 3}]))
    assert record_outcome(
        lambda: list(load_units(scratch, reference_counts=counts))
    ) == record_outcome(lambda: load_units_reference(scratch, reference_counts=counts))


@settings(max_examples=200)
@given(st.data())
def test_load_scores_matches_its_constructor_built_reference(scratch, data):
    scratch.write_bytes(data.draw(jsonl_file(data.draw(score_rows()))))
    assert record_outcome(lambda: load_scores_by_cell(scratch)) == record_outcome(
        lambda: in_cell_order(load_scores_reference(scratch, SCORE_CELLS))
    )


def test_import_rows_keeps_ids_takes_the_tag_and_records_the_digest(tmp_path):
    path = write_jsonl(tmp_path / "units.jsonl", [
        {"example_id": "e1", "reference_index": 0, "strategy": "smu", "text": "a unit"},
        {"example_id": "e2", "reference_index": 1, "strategy": "smu", "text": "b unit"},
    ])
    path.write_text("\n" + path.read_text(encoding="utf-8"), encoding="utf-8")
    digests = {}
    # the requested tag wins over whatever the file says
    assert import_rows(path, "imported_stu", digests=digests) == [
        UnitFileRow("e1", 0, "imported_stu", "a unit"),
        UnitFileRow("e2", 1, "imported_stu", "b unit"),
    ]
    assert digests == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}


def test_import_rows_empty_file(tmp_path):
    path = tmp_path / "none.jsonl"
    path.write_text("", encoding="utf-8")
    assert import_rows(path, "imported_stu") == []


@pytest.mark.parametrize(
    "text, where",
    [
        ("first unit\nsecond unit\n", "line 1: not valid JSON"),
        ('{"example_id": "e1", "reference_index": 0, "strategy": "smu", "text": "ok"}\n'
         '{"example_id": "e1", "reference_index": 0, "strategy": "smu", "text": 5}\n',
         "line 2, field text: missing non-empty string 'text'"),
    ],
)
def test_import_rows_refuses_lines_that_are_not_unit_file_rows(tmp_path, text, where):
    path = tmp_path / "units.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InputError) as info:
        import_rows(path, "imported_stu")
    assert str(info.value) == (
        f"{path}, {where}; an import file holds unit-file rows "
        "(example_id, reference_index, strategy, text)"
    )


def test_import_rows_missing_file(tmp_path):
    with pytest.raises(FileUnreadable):
        import_rows(tmp_path / "gone.jsonl", "imported_stu")


def test_unit_rows_for_references_the_example_lacks_are_stray(tmp_path):
    path = tmp_path / "u.jsonl"
    rows = [UnitFileRow("e1", 0, "ngram", "a b c"), UnitFileRow("e2", 1, "ngram", "x"),
            UnitFileRow("e2", 2, "ngram", "y"), UnitFileRow("e1", 0, "ngram", "d e f")]
    save_units(path, rows)
    assert list(load_units(path, reference_counts={"e1": 1, "e2": 3})) == rows
    with pytest.raises(SchemaViolation) as info:
        list(load_units(path, reference_counts={"e1": 1, "e2": 2}))
    assert (info.value.line, info.value.field) == (3, "reference_index")
    assert str(info.value) == (
        "line 3, field reference_index: example 'e2' has no reference 2"
    )
    with pytest.raises(InputError) as info:
        import_rows(path, "imported_stu", reference_counts={"e1": 1, "e2": 1})
    assert str(info.value) == (
        f"{path}, line 2, field reference_index: example 'e2' has no reference 1; an import "
        "file holds unit-file rows (example_id, reference_index, strategy, text)"
    )


# ---------------------------------------------------------------------------
# Lone surrogate escapes: JSON can write one, no UTF-8 output can hold it

LONE = {"high": "\\ud800", "low": "\\udc00"}

# each loader's call, a good line (the dataset's holds a surrogate pair
# escape, one character), and a second line whose "@" becomes a lone
# surrogate escape, with the field that string is at
SURROGATE_LOADS = {
    "dataset": (
        lambda path: list(load_dataset(path)),
        '{"example_id": "e1", "references": [{"text": "A cat \\ud83d\\ude00 sat."}]}',
        '{"example_id": "e2", "references": [{"text": "A cat @ sat here."}]}',
        "references[0].text",
    ),
    "dataset-key": (
        lambda path: list(load_dataset(path)),
        '{"example_id": "e1", "references": [{"text": "A cat sat."}]}',
        '{"example_id": "e2", "references": [{"text": "A cat."}], '
        '"systems": [{"system_id": "s", "summary": "x", "n@te": 1}]}',
        "systems[0].n@te",
    ),
    "units": (
        lambda path: list(load_units(path)),
        '{"example_id": "e1", "reference_index": 0, "strategy": "ngram", "text": "a b"}',
        '{"example_id": "e1", "reference_index": 0, "strategy": "ngram", "text": "a @"}',
        "text",
    ),
    "scores": (
        lambda path: load_scores(path, SCORE_EXAMPLES, SCORE_SYSTEMS),
        '{"example_id": "e1", "system_id": "a", "score": 0.5}',
        '{"example_id": "e1", "system_id": "b@", "score": 0.5}',
        "system_id",
    ),
}


@pytest.mark.parametrize("half", sorted(LONE))
@pytest.mark.parametrize("kind", sorted(SURROGATE_LOADS))
def test_a_lone_surrogate_escape_fails_its_line_and_names_the_field(tmp_path, kind, half):
    load, good, bad, field = SURROGATE_LOADS[kind]
    path = tmp_path / "in.jsonl"
    path.write_text(f"{good}\n{bad.replace('@', LONE[half])}\n", encoding="utf-8")
    with pytest.raises(SchemaViolation) as info:
        load(path)
    field = field.replace("@", LONE[half])
    assert (info.value.path, info.value.line, info.value.field) == (path, 2, field)
    assert str(info.value) == f"line 2, field {field}: a lone surrogate escape is not text"


@pytest.mark.parametrize("half", sorted(LONE))
def test_import_rows_refuses_a_lone_surrogate_escape(tmp_path, half):
    path = tmp_path / "units.jsonl"
    path.write_text(
        '{"example_id": "e1", "reference_index": 0, "strategy": "smu", '
        f'"text": "a {LONE[half]} b"}}\n',
        encoding="utf-8",
    )
    with pytest.raises(InputError) as info:
        import_rows(path, "imported_stu")
    assert str(info.value) == (
        f"{path}, line 1, field text: a lone surrogate escape is not text; an import "
        "file holds unit-file rows (example_id, reference_index, strategy, text)"
    )


def test_lone_surrogate_field_walks_keys_first_and_any_depth():
    def field(text):
        return data.lone_surrogate_field(text, json.loads(text))

    assert field('{"a": ["x", {"\\udc00": "\\ud800"}]}') == "a[1].\\udc00"
    assert field('{"a": "\\ud800", "\\udc00": 1}') == "a"
    assert field('[[["ok", "\\ud83d\\ude00", "\\u00e9", 1, null]]]') is None
    # the text holds no surrogate escape, so the value is not walked
    assert data.lone_surrogate_field('"\\u00e9"', "\ud800") is None
    deep = "\udfff"
    for _ in range(DEEP):
        deep = [deep]
    assert data.lone_surrogate_field('"\\uDFFF"', deep) == "[0]" * DEEP


def test_json_line_escapes_the_line_breaks_json_leaves_raw(tmp_path):
    row = {"text": "a\x85b\u2028c\u2029dé"}
    line = data.json_line(row)
    assert line == '{"text":"a\\u0085b\\u2028c\\u2029dé"}\n'
    path = tmp_path / "out.jsonl"
    data.atomic_write_text(path, [line, line])
    assert [value for _, value in _json_lines(read_input(path))] == [row, row]
