"""Canonical JSON Lines schema for meta-evaluation data.

One :class:`ReferenceEntry` per line, UTF-8, with exactly these fields::

    {"example_id": "...",
     "references": [{"text": "...", "scus": ["...", ...]}, ...],
     "systems": [{"system_id": "...", "summary": "...",
                  "human_score": 0.5, "scu_presence": [0, 1, ...]}, ...]}

``human_score`` and ``scu_presence`` are optional per system; when present
the presence labels must align with the gold units pooled across all of
the entry's references. Loading validates everything and reports the line
number and field path of the first problem.

Unit files are also JSON Lines, one :class:`UnitFileRow` per line with
fields ``example_id``, ``reference_index``, ``strategy``, ``text``.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Iterable

from .errors import (
    DuplicateExampleId,
    FileUnreadable,
    FileUnwritable,
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


@dataclass(frozen=True)
class Reference:
    text: str
    scus: tuple[str, ...] = ()


@dataclass(frozen=True)
class SystemSummary:
    system_id: str
    summary: str
    human_score: float | None = None
    scu_presence: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ReferenceEntry:
    example_id: str
    references: tuple[Reference, ...]
    systems: tuple[SystemSummary, ...] = ()

    def pooled_scus(self) -> list[str]:
        """Gold units of all references, in reference order."""
        pooled = []
        for reference in self.references:
            pooled.extend(reference.scus)
        return pooled


@dataclass(frozen=True)
class UnitFileRow:
    example_id: str
    reference_index: int
    strategy: str
    text: str


def is_finite_number(value) -> bool:
    """An int or float, not a bool, with a finite float value.

    ``json.loads`` accepts ``NaN`` and ``Infinity``, and overflows ``1e999``
    to infinity; none of them is a usable score.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _require(condition: bool, message: str, line: int, field: str):
    if not condition:
        raise SchemaViolation(message, line=line, field=field)


def _parse_reference(value, line: int, field: str) -> Reference:
    _require(isinstance(value, dict), "reference must be an object", line, field)
    text = value.get("text")
    _require(isinstance(text, str), "missing string 'text'", line, f"{field}.text")
    scus = value.get("scus", [])
    _require(isinstance(scus, list), "'scus' must be a list", line, f"{field}.scus")
    for k, scu in enumerate(scus):
        _require(
            isinstance(scu, str) and scu.strip() != "",
            "gold unit must be a non-empty string",
            line,
            f"{field}.scus[{k}]",
        )
    return Reference(text=text, scus=tuple(scus))


def _system_error(message: str, line: int, index: int, name: str) -> SchemaViolation:
    """The error for field *name* of system *index*; the field path is
    built only here, when a system is rejected."""
    return SchemaViolation(message, line=line, field=f"systems[{index}]{name}")


def _parse_system(value, line: int, index: int) -> SystemSummary:
    if not isinstance(value, dict):
        raise _system_error("system must be an object", line, index, "")
    system_id = value.get("system_id")
    if not isinstance(system_id, str) or system_id == "":
        raise _system_error("missing string 'system_id'", line, index, ".system_id")
    summary = value.get("summary")
    if not isinstance(summary, str):
        raise _system_error("missing string 'summary'", line, index, ".summary")
    human_score = value.get("human_score")
    if human_score is not None:
        if not is_finite_number(human_score):
            raise _system_error(
                "'human_score' must be a finite number", line, index, ".human_score"
            )
        human_score = float(human_score)
    presence = value.get("scu_presence")
    if presence is not None:
        if not (isinstance(presence, list) and all(p in (0, 1) for p in presence)):
            raise _system_error(
                "'scu_presence' must be a list of 0/1", line, index, ".scu_presence"
            )
        presence = tuple(map(int, presence))
    return SystemSummary(
        system_id=system_id,
        summary=summary,
        human_score=human_score,
        scu_presence=presence,
    )


def _parse_entry(value, line: int) -> ReferenceEntry:
    _require(isinstance(value, dict), "entry must be an object", line, "")
    example_id = value.get("example_id")
    _require(
        isinstance(example_id, str) and example_id != "",
        "missing string 'example_id'",
        line,
        "example_id",
    )
    references_raw = value.get("references")
    _require(
        isinstance(references_raw, list) and len(references_raw) >= 1,
        "'references' must be a non-empty list",
        line,
        "references",
    )
    references = tuple(
        _parse_reference(ref, line, f"references[{i}]")
        for i, ref in enumerate(references_raw)
    )
    systems_raw = value.get("systems", [])
    _require(isinstance(systems_raw, list), "'systems' must be a list", line, "systems")
    systems = tuple(
        _parse_system(system, line, i) for i, system in enumerate(systems_raw)
    )
    seen_ids = set()
    for i, system in enumerate(systems):
        if system.system_id in seen_ids:
            raise SchemaViolation(
                f"duplicate system_id {system.system_id!r}",
                line=line,
                field=f"systems[{i}].system_id",
            )
        seen_ids.add(system.system_id)
    entry = ReferenceEntry(example_id=example_id, references=references, systems=systems)
    pooled = len(entry.pooled_scus())
    for i, system in enumerate(systems):
        if system.scu_presence is not None and len(system.scu_presence) != pooled:
            raise PresenceLengthMismatch(
                f"{len(system.scu_presence)} presence labels for {pooled} gold units",
                line=line,
                field=f"systems[{i}].scu_presence",
            )
    return entry


def load_dataset(path) -> list[ReferenceEntry]:
    """Read and validate a dataset file; entries come back in file order."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc
    entries = []
    seen = {}
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except ValueError as exc:
            raise SchemaViolation("not valid JSON", line=number) from exc
        entry = _parse_entry(raw, number)
        if entry.example_id in seen:
            raise DuplicateExampleId(
                f"example_id {entry.example_id!r} already used on line "
                f"{seen[entry.example_id]}",
                line=number,
                field="example_id",
            )
        seen[entry.example_id] = number
        entries.append(entry)
    return entries


def atomic_write_text(path, text: str) -> None:
    """Write *text* to *path* via a temp file and rename."""
    directory = os.path.dirname(os.fspath(path)) or "."
    try:
        fd, temp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            # mkstemp files are 0600; give the output normal permissions
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(temp, 0o666 & ~umask)
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(temp, path)
        except BaseException:
            os.unlink(temp)
            raise
    except OSError as exc:
        raise FileUnwritable(f"cannot write {path}: {exc}") from exc


def save_units(path, rows: Iterable[UnitFileRow]) -> None:
    """Write unit rows as JSON Lines; rejects rows with empty text."""
    payload = []
    for i, row in enumerate(rows):
        if not row.text.strip():
            raise SchemaViolation("unit text is empty", line=i + 1, field="text")
        if row.strategy not in VALID_STRATEGIES:
            raise SchemaViolation(
                f"unknown strategy {row.strategy!r}", line=i + 1, field="strategy"
            )
        payload.append(
            json.dumps(
                {
                    "example_id": row.example_id,
                    "reference_index": row.reference_index,
                    "strategy": row.strategy,
                    "text": row.text,
                },
                ensure_ascii=False,
                separators=(",", ":"),
            )
        )
    atomic_write_text(path, "".join(line + "\n" for line in payload))


def load_units(path) -> list[UnitFileRow]:
    """Read unit rows back; the inverse of :func:`save_units`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc
    rows = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except ValueError as exc:
            raise SchemaViolation("not valid JSON", line=number) from exc
        _require(isinstance(raw, dict), "row must be an object", number, "")
        example_id = raw.get("example_id")
        _require(isinstance(example_id, str), "missing string 'example_id'", number, "example_id")
        reference_index = raw.get("reference_index")
        _require(
            isinstance(reference_index, int) and not isinstance(reference_index, bool)
            and reference_index >= 0,
            "'reference_index' must be a non-negative integer",
            number,
            "reference_index",
        )
        strategy = raw.get("strategy")
        _require(
            isinstance(strategy, str) and strategy in VALID_STRATEGIES,
            f"'strategy' must be one of {', '.join(VALID_STRATEGIES)}",
            number,
            "strategy",
        )
        text = raw.get("text")
        _require(
            isinstance(text, str) and text.strip() != "",
            "missing non-empty string 'text'",
            number,
            "text",
        )
        rows.append(UnitFileRow(example_id, reference_index, strategy, text))
    return rows
