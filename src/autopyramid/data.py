"""Canonical JSON Lines schema for meta-evaluation data.

One :class:`ReferenceEntry` per line, UTF-8, with exactly these fields::

    {"example_id": "...",
     "references": [{"text": "...", "scus": ["...", ...]}, ...],
     "systems": [{"system_id": "...", "summary": "...",
                  "human_score": 0.5, "scu_presence": [0, 1, ...]}, ...]}

``human_score`` and ``scu_presence`` are optional per system; when present
the presence labels must align with the gold units pooled across all of
the entry's references. Loading validates everything and reports the line
number and field path of the first problem, as a :class:`SchemaViolation`
whose ``path`` is the file. The records are named tuples,
immutable and compared by their fields; the loaders build them with
``tuple.__new__``, which skips the per-field arguments of the generated
constructor and is safe because no record checks its fields.

Unit files are also JSON Lines, one :class:`UnitFileRow` per line with
fields ``example_id``, ``reference_index``, ``strategy``, ``text``. A row
is the one record of a unit: the extractors return plain texts, and a
command tags them with their example, reference and one of
``VALID_STRATEGIES``.

Every input file is read once, by :func:`read_input`, one line at a
time, and every loader, the PENMAN one in :mod:`autopyramid.amr`
included, is a row parser over :func:`read_rows`: the one place that opens
a file for a loader, takes its digest and, at the first row at fault,
closes it and sets the error's ``path`` to it. A loader builds each record
while one line of raw text is alive, so it holds its records plus that
line, not a copy of the whole file. Asked for one, the reader also takes
the SHA-256 of the bytes parsed, which the caller records in the run
manifest without reading the file again. Files must be UTF-8; a line ends
at ``\\n`` and nowhere else, as a JSON Lines row does, and lines are
counted from 1. The first problem in file order is the one reported, and
reading stops there: a bad row before bytes that are not UTF-8 fails on
the row, and so does a row that does not fit the dataset before a line
that is not JSON. Each row goes straight to the JSON scanner and decodes
or fails as ``json.JSONDecoder.decode`` would (see :func:`_json_lines`). A
string that holds a lone UTF-16 surrogate, which only a ``\\u`` escape can
make and no UTF-8 output can hold, fails its row
(:func:`lone_surrogate_field`).

A dataset, like a unit file, comes as the file is read: each entry or row
is given once it is checked (:func:`load_dataset`, :func:`load_units`), so
a command that folds over it once holds what it keeps and one record; a
score file's scores go straight into one array, in the cell order the
caller gives (:func:`load_scores`). Each record holds its own field
values; a caller that keeps many records shares their equal values
itself, as :func:`import_rows` does its example ids. Outputs are written
as their rows are made: :func:`atomic_write_text` and :func:`save_units`
take any iterable, and ``extract`` and ``score`` make each row as the
writer takes it.
"""

from __future__ import annotations

import errno
import json
import math
import os
import re
import tempfile
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    DuplicateExampleId,
    FileUnreadable,
    FileUnwritable,
    InputError,
    MalformedPenman,
    PresenceLengthMismatch,
    SchemaViolation,
)

VALID_STRATEGIES = (
    "gold_scu",
    "sentence_split",
    "ngram",
    "smu",
    "sgu",
    "imported_stu",
)

# how :func:`~autopyramid.smu.split_graph` groups a predicate's core roles
SPLIT_MODES = ("one-cr", "all-deps")

# presence labels by value: a lookup both checks a label and makes it an
# int, and true, 1.0 and -0.0 hash and compare equal to their int
_LABELS = {0: 0, 1: 1}

# a record from a tuple of all its fields
_record = tuple.__new__


class Reference(NamedTuple):
    text: str
    scus: tuple[str, ...] = ()


class SystemSummary(NamedTuple):
    system_id: str
    summary: str
    human_score: float | None = None
    scu_presence: tuple[int, ...] | None = None


class ReferenceEntry(NamedTuple):
    example_id: str
    references: tuple[Reference, ...]
    systems: tuple[SystemSummary, ...] = ()

    def pooled_scus(self) -> list[str]:
        """Gold units of all references, in reference order."""
        pooled = []
        for reference in self.references:
            pooled.extend(reference.scus)
        return pooled


class UnitFileRow(NamedTuple):
    example_id: str
    reference_index: int
    strategy: str
    text: str


def is_finite_number(value) -> bool:
    """An int or float, not a bool, with a finite float value.

    ``json.loads`` accepts ``NaN`` and ``Infinity``, and overflows ``1e999``
    to infinity; none of them is a usable score.
    """
    if type(value) is float:  # inf - inf and nan - nan are nan
        return value - value == 0.0
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


_scan = json.JSONDecoder().scan_once

_surrogate = re.compile("[\ud800-\udfff]").search
_surrogate_escape = re.compile(r"\\u[dD][89a-fA-F]").search


def lone_surrogate_field(text: str, value) -> str | None:
    """The field path of the first string in *value*, decoded from JSON
    *text*, that holds a lone UTF-16 surrogate, keys included and in
    document order, with the surrogate escaped; ``None`` when no string
    does. JSON can escape one (``"\\ud800"``); no UTF-8 text can hold it.
    Only a surrogate escape in *text* can put one in a string, so *value*
    is walked only when *text* holds one (a paired escape decodes to one
    character, and passes). The walk keeps its own stack, so it reaches
    any depth the JSON scanner decodes."""
    # a backslash is looked for first: that search is about ten times faster
    if "\\" not in text or not _surrogate_escape(text):
        return None
    stack = [("", value)]
    while stack:
        path, value = stack.pop()
        if type(value) is str:
            if _surrogate(value):
                return path.encode("utf-8", "backslashreplace").decode("utf-8")
        elif type(value) is list:
            stack.extend([(f"{path}[{i}]", item) for i, item in enumerate(value)][::-1])
        elif type(value) is dict:
            members = []
            for key, item in value.items():
                field = f"{path}.{key}" if path else key
                members += (field, key), (field, item)  # the key comes first
            stack.extend(members[::-1])
    return None


def _json_lines(lines: Iterable[str]) -> Iterator[tuple[int, object]]:
    """The number, from 1, and the decoded value of every non-blank line.

    The JSON scanner decodes a line from its first character that is not a
    space, tab or ``\\r``, and only those may follow the value: values and
    errors are those of ``json.JSONDecoder.decode`` (a line holds no
    ``\\n``, the one other JSON whitespace) without its two regex matches.
    So a CRLF file reads as its LF copy does. A line that does not decode,
    nests deeper than the interpreter's recursion limit, or holds an escape
    that decodes to a lone surrogate raises :class:`SchemaViolation` naming
    it (and that string's field).
    """
    for number, line in enumerate(lines, start=1):
        if not line or line.isspace():
            continue
        try:
            value, end = _scan(line, len(line) - len(line.lstrip(" \t\r")))
        except (StopIteration, ValueError, RecursionError) as exc:
            raise SchemaViolation("not valid JSON", line=number) from exc
        if end != len(line) and line[end:].strip(" \t\r"):  # extra data
            raise SchemaViolation("not valid JSON", line=number)
        field = lone_surrogate_field(line, value)
        if field is not None:
            raise SchemaViolation(
                "a lone surrogate escape is not text", line=number, field=field
            )
        yield number, value


def read_input(path, digests: dict | None = None) -> Iterator[str]:
    """The lines of *path*, read one at a time.

    The file is opened by this call, so a missing file fails here; the
    lines come as they are iterated, and the file is closed when the last
    has been read or the iterator is dropped. A line ends at ``\\n`` and
    nowhere else, and is given without it; any ``\\r`` before it stays, as
    JSON whitespace. So a file whose lines end in ``\\r`` alone is one line.
    Each line is read, hashed and decoded on its own, and the reader holds
    none once it is taken.

    When *digests* is given, the SHA-256 of every byte read is stored in
    it under ``str(path)`` once the file has been read to its end, as a
    hex digest. It is taken with CPython's built-in SHA-256 (``_sha2``,
    or ``_sha256`` up to 3.11), which loads no OpenSSL, and with
    ``hashlib.sha256`` only when neither module imports. Bytes
    that are not UTF-8 raise :class:`FileUnreadable` naming the file and
    the line that holds them, after the lines before that one, so the first
    problem in file order is the one reported.
    """
    lines = _lines(path, digests)
    next(lines)  # the file is open, and closed with the iterator from here
    return lines


def _sha256():
    """A new SHA-256 hasher: CPython's own, which loads no OpenSSL as
    ``hashlib`` does (about 3.6 MB of peak RSS), or ``hashlib``'s on a
    build without it."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256()


def _lines(path, digests: dict | None) -> Iterator[str | None]:
    """:func:`read_input`'s iterator, which first yields ``None`` once the
    file is open."""
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc
    with handle:
        yield None
        hasher = None
        if digests is not None:  # only a command that writes a manifest pays
            hasher = _sha256()
        try:
            for number, line in enumerate(handle, start=1):
                if hasher is not None:
                    hasher.update(line)
                yield line.decode("utf-8").removesuffix("\n")
        except OSError as exc:
            raise FileUnreadable(f"cannot read {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise FileUnreadable(
                f"cannot read {path}: line {number} is not valid UTF-8"
            ) from exc
    if hasher is not None:
        digests[str(path)] = hasher.hexdigest()


def read_rows(path, rows, digests: dict | None = None) -> Iterator:
    """The records the row parser *rows* makes of the lines of *path*, given
    as the file is read: every loader reads its file through this call.

    The file is opened by this call, so a missing file fails here, and
    *digests* is as for :func:`read_input`: the digest is stored once the
    records have run to their end. *rows* takes the iterator of lines and
    gives the records; a :class:`SchemaViolation` or
    :class:`MalformedPenman` it raises closes the file at once, not when
    the error, which holds the reader's frame, is dropped, and carries the
    file as ``path``. A :class:`FileUnreadable` already names it.
    """
    lines = read_input(path, digests)
    return _named_faults(path, lines, rows(lines))


def _named_faults(path, lines, records):
    try:
        yield from records
    except (SchemaViolation, MalformedPenman) as exc:
        lines.close()
        exc.path = path
        raise


def _system_error(message: str, line: int, index: int, name: str) -> SchemaViolation:
    """The error for field *name* of system *index*; the field path is
    built only here, when a system is rejected."""
    return SchemaViolation(message, line=line, field=f"systems[{index}]{name}")


def _parse_entry(value, line: int) -> ReferenceEntry:
    """Check one decoded dataset row, then build its records.

    The first problem is the one raised, in schema order: the entry's own
    fields, each reference, then each system in full before the next, a
    repeated ``system_id`` failing at that field and a presence list whose
    length is not the pooled unit count at ``scu_presence``.
    """
    if type(value) is not dict:
        raise SchemaViolation("entry must be an object", line=line, field="")
    example_id = value.get("example_id")
    if type(example_id) is not str or not example_id:
        raise SchemaViolation(
            "missing string 'example_id'", line=line, field="example_id"
        )
    references_raw = value.get("references")
    if type(references_raw) is not list or not references_raw:
        raise SchemaViolation(
            "'references' must be a non-empty list", line=line, field="references"
        )
    pooled = 0
    for i, reference in enumerate(references_raw):
        if type(reference) is not dict:
            raise SchemaViolation(
                "reference must be an object", line=line, field=f"references[{i}]"
            )
        if type(reference.get("text")) is not str:
            raise SchemaViolation(
                "missing string 'text'", line=line, field=f"references[{i}].text"
            )
        scus = reference.get("scus", [])
        if type(scus) is not list:
            raise SchemaViolation(
                "'scus' must be a list", line=line, field=f"references[{i}].scus"
            )
        for k, scu in enumerate(scus):
            if type(scu) is not str or not scu or scu.isspace():
                raise SchemaViolation(
                    "gold unit must be a non-empty string",
                    line=line,
                    field=f"references[{i}].scus[{k}]",
                )
        pooled += len(scus)
    systems_raw = value.get("systems", [])
    if type(systems_raw) is not list:
        raise SchemaViolation("'systems' must be a list", line=line, field="systems")
    systems = []
    seen_ids = set()
    for i, system in enumerate(systems_raw):
        if type(system) is not dict:
            raise _system_error("system must be an object", line, i, "")
        system_id = system.get("system_id")
        if type(system_id) is not str or not system_id:
            raise _system_error("missing string 'system_id'", line, i, ".system_id")
        if system_id in seen_ids:
            raise _system_error(f"duplicate system_id {system_id!r}", line, i, ".system_id")
        seen_ids.add(system_id)
        summary = system.get("summary")
        if type(summary) is not str:
            raise _system_error("missing string 'summary'", line, i, ".summary")
        human_score = system.get("human_score")
        if human_score is not None:
            if not is_finite_number(human_score):
                raise _system_error(
                    "'human_score' must be a finite number", line, i, ".human_score"
                )
            human_score = float(human_score)
        presence = system.get("scu_presence")
        if presence is not None:
            labels = None
            if type(presence) is list:
                try:
                    labels = tuple(map(_LABELS.__getitem__, presence))
                except (KeyError, TypeError):  # not a label, or not hashable
                    pass
            if labels is None:
                raise _system_error(
                    "'scu_presence' must be a list of 0/1", line, i, ".scu_presence"
                )
            if len(labels) != pooled:
                raise PresenceLengthMismatch(
                    f"{len(labels)} presence labels for {pooled} gold units",
                    line=line,
                    field=f"systems[{i}].scu_presence",
                )
            presence = labels
        systems.append(_record(SystemSummary, (system_id, summary, human_score, presence)))
    references = tuple([
        _record(Reference, (r["text"], tuple(r.get("scus", ())))) for r in references_raw
    ])
    return _record(ReferenceEntry, (example_id, references, tuple(systems)))


def load_dataset(path, *, digests: dict | None = None) -> Iterator[ReferenceEntry]:
    """The entries of dataset file *path*, in file order, each given once
    it is checked (:func:`read_rows`). An entry that fails raises
    :class:`SchemaViolation` naming its line and field, once the entries
    before it have been taken.
    """
    return read_rows(path, _entries, digests)


def _entries(lines: Iterator[str]) -> Iterator[ReferenceEntry]:
    seen = {}
    for number, raw in _json_lines(lines):
        entry = _parse_entry(raw, number)
        if entry.example_id in seen:
            raise DuplicateExampleId(
                f"example_id {entry.example_id!r} already used on line "
                f"{seen[entry.example_id]}",
                line=number,
                field="example_id",
            )
        seen[entry.example_id] = number
        yield entry


def atomic_write_text(path, pieces: Iterable[str]) -> None:
    """Write the text *pieces* make, in order, to *path* via a temp file and
    rename. *pieces* may be any iterable, a generator included: each piece
    is written as it comes, so neither the pieces nor their joined text
    are held, and the temp file is there while they are made. A *path* that
    is a directory or beside which no temp file can be made fails before
    any piece is made, and a failed write makes no further piece: either
    raises :class:`FileUnwritable` naming *path* and the system's reason.
    An error in making a piece passes through as it is. Either way the
    temp file is gone and *path* is as it was."""
    directory = os.path.dirname(os.fspath(path)) or "."
    try:
        if os.path.isdir(path):  # which the rename would refuse, after every piece
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        fd, temp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            # mkstemp files are 0600; give the output normal permissions
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(temp, 0o666 & ~umask)
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.writelines(pieces)
            os.replace(temp, path)
        except BaseException:
            os.unlink(temp)
            raise
    except OSError as exc:
        reason = exc.strerror or type(exc).__name__
        raise FileUnwritable(f"cannot write {path}: {reason}") from exc


_encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode

# what JSON leaves raw in a string and :meth:`str.splitlines` breaks lines at
_RAW_BREAKS = (("\x85", "\\u0085"), ("\u2028", "\\u2028"), ("\u2029", "\\u2029"))


def json_line(row) -> str:
    """*row* as one compact JSON line of an output file, non-ASCII kept
    except U+0085, U+2028 and U+2029, which JSON need not escape and
    :meth:`str.splitlines` breaks lines at: so any reader reads it back."""
    text = _encode(row)
    if not text.isascii():
        for char, escape in _RAW_BREAKS:
            text = text.replace(char, escape)
    return text + "\n"


def save_units(path, rows: Iterable[UnitFileRow]) -> None:
    """Write unit rows as JSON Lines, each line as its row is checked;
    rejects rows with empty text, and then leaves *path* as it was."""
    atomic_write_text(path, _unit_lines(rows))


def _unit_lines(rows: Iterable[UnitFileRow]) -> Iterator[str]:
    for i, row in enumerate(rows):
        if not row.text.strip():
            raise SchemaViolation("unit text is empty", line=i + 1, field="text")
        if row.strategy not in VALID_STRATEGIES:
            raise SchemaViolation(
                f"unknown strategy {row.strategy!r}", line=i + 1, field="strategy"
            )
        yield json_line(row._asdict())  # the fields, in declared order


def load_units(
    path, *, digests: dict | None = None, reference_counts=None
) -> Iterator[UnitFileRow]:
    """The unit rows of *path*, each given as the file is read
    (:func:`read_rows`); the inverse of :func:`save_units`.

    A row that fails raises :class:`SchemaViolation` naming its line and
    field. When *reference_counts* (example id to its number of
    references) is given, a row naming any other example, or a reference
    index its example does not have, is stray: once its own fields pass,
    it fails so.
    """
    return read_rows(path, lambda lines: _unit_rows(lines, reference_counts), digests)


def _unit_rows(lines: Iterator[str], reference_counts) -> Iterator[UnitFileRow]:
    for number, raw in _json_lines(lines):
        if type(raw) is not dict:
            raise SchemaViolation("row must be an object", line=number, field="")
        example_id = raw.get("example_id")
        if type(example_id) is not str:
            raise SchemaViolation("missing string 'example_id'", line=number, field="example_id")
        reference_index = raw.get("reference_index")
        if type(reference_index) is not int or reference_index < 0:
            raise SchemaViolation(
                "'reference_index' must be a non-negative integer",
                line=number,
                field="reference_index",
            )
        strategy = raw.get("strategy")
        if type(strategy) is not str or strategy not in VALID_STRATEGIES:
            raise SchemaViolation(
                f"'strategy' must be one of {', '.join(VALID_STRATEGIES)}",
                line=number,
                field="strategy",
            )
        text = raw.get("text")
        if type(text) is not str or not text or text.isspace():
            raise SchemaViolation("missing non-empty string 'text'", line=number, field="text")
        if reference_counts is not None:
            count = reference_counts.get(example_id)
            if count is None:
                raise SchemaViolation(
                    f"example {example_id!r} is not in the dataset",
                    line=number,
                    field="example_id",
                )
            if reference_index >= count:
                raise SchemaViolation(
                    f"example {example_id!r} has no reference {reference_index}",
                    line=number,
                    field="reference_index",
                )
        yield _record(UnitFileRow, (example_id, reference_index, strategy, text))


def import_rows(
    path, tag: str, *, digests: dict | None = None, reference_counts=None
) -> list[UnitFileRow]:
    """The rows of unit file *path*, each tagged with strategy *tag*.

    Example ids and reference indices are kept; *tag* replaces the strategy
    the file carries. Any problem, a line that is not JSON included, raises
    :class:`InputError` naming the file, the line and the unit-file fields.
    *digests* and *reference_counts* are as for :func:`load_units`.
    """
    hold = {}.setdefault  # the rows are kept: one id object per example
    try:
        rows = load_units(path, digests=digests, reference_counts=reference_counts)
        return [_record(UnitFileRow, (hold(e, e), i, tag, text)) for e, i, _, text in rows]
    except SchemaViolation as exc:
        raise InputError(
            f"{path}, {exc}; an import file holds unit-file rows "
            "(example_id, reference_index, strategy, text)"
        ) from exc


def load_scores(
    path, example_ids: Sequence[str], system_ids: Sequence[str], *, digests: dict | None = None
) -> Sequence[float]:
    """Read a score file into one ``array('d')`` of the cells of
    *example_ids* by *system_ids*: the score of ``example_ids[k]`` and
    ``system_ids[j]`` at ``k * len(system_ids) + j``, and NaN for a cell
    that no row scores (:func:`read_rows`). A row for any other cell, or
    for the cell of an earlier row, is stray: :class:`SchemaViolation`
    names its line, and the line of the row it repeats if it does.
    """
    from array import array  # a shared library, loaded by the commands that use it

    width = len(system_ids)
    starts = {example_id: k * width for k, example_id in enumerate(example_ids)}
    columns = {system_id: j for j, system_id in enumerate(system_ids)}
    scores = array("d", [math.nan]) * (len(example_ids) * width)
    line_of = array("q", [0]) * len(scores)  # each cell's score's line, 0 for none yet

    def fill(lines):  # a row parser that gives nothing: each score goes to its cell
        for number, raw in _json_lines(lines):
            if type(raw) is not dict:
                raise SchemaViolation("row must be an object", line=number)
            example_id = raw.get("example_id")
            system_id = raw.get("system_id")
            value = raw.get("score")
            if type(example_id) is not str or type(system_id) is not str:
                raise SchemaViolation("rows need string 'example_id' and 'system_id'", line=number)
            if not is_finite_number(value):
                raise SchemaViolation(
                    "'score' must be a finite number", line=number, field="score"
                )
            start, column = starts.get(example_id), columns.get(system_id)
            if start is None or column is None:
                raise SchemaViolation(
                    f"{example_id}/{system_id} is not in the dataset", line=number
                )
            cell = start + column
            if line_of[cell]:
                raise SchemaViolation(
                    f"{example_id}/{system_id} repeats line {line_of[cell]}", line=number
                )
            scores[cell] = float(value)
            line_of[cell] = number
            yield

    for _ in read_rows(path, fill, digests):
        pass
    return scores
