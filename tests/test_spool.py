"""``score`` and ``intrinsic`` keep their texts in a spool on disk, and
``metaeval`` its scores in flat arrays: the outputs follow the ids, not
the order of the dataset or the unit file; the memory a command holds
grows little with the corpus; every command reads ``--input`` once; and
the spool is closed, or refused with exit 2, on every path.
"""

import hashlib
import json
import os
import random
import re
import threading
import tracemalloc
from pathlib import Path

import pytest

from autopyramid import cli, spool
from autopyramid.cli import main
from autopyramid.errors import ServiceUnavailable

DATA = Path(__file__).parent / "data"
TOY = str(DATA / "toy.jsonl")
GOLDEN_UNITS = str(DATA / "golden" / "units.jsonl")
GOLDEN = DATA / "golden"
GOLDEN_SCORES = GOLDEN / "scores.jsonl"


def seeded_rows(examples: int, seed: int, systems: int = 16) -> list[dict]:
    """Dataset rows of *examples* examples with *systems* systems each: one
    reference of four sentences, six gold units, and per system a summary
    that keeps each reference word with the system's skill (about 500
    bytes) and a human score near that skill."""
    rng = random.Random(seed)
    vocabulary = [
        "".join(rng.choice("bcdfglmnprstvz") + rng.choice("aeiou") for _ in range(3))
        for _ in range(400)
    ]
    rows = []
    for i in range(examples):
        sentences = [rng.choices(vocabulary, k=rng.randint(12, 25)) for _ in range(4)]
        words = [word for sentence in sentences for word in sentence]
        starts = rng.sample(range(len(words) - 4), 6)
        row_systems = []
        for k in range(systems):
            skill = (k + 1) / (systems + 1)
            kept = [w if rng.random() < skill else rng.choice(vocabulary) for w in words]
            human = min(1.0, max(0.0, skill + rng.gauss(0, 0.15)))
            row_systems.append({
                "system_id": f"sys{k:02d}",
                "summary": " ".join(kept) + ".",
                "human_score": round(human, 4),
            })
        rows.append({
            "example_id": f"ex{i:04d}",
            "references": [{
                "text": " ".join(" ".join(s).capitalize() + "." for s in sentences),
                "scus": [" ".join(words[j : j + 4]) for j in starts],
            }],
            "systems": row_systems,
        })
    return rows


def write_rows(path: Path, rows) -> str:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    return str(path)


def reversed_rows(path: str) -> list[dict]:
    """The rows of dataset *path* in reverse order, each with its systems
    reversed too."""
    rows = [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]
    for row in rows:
        row["systems"].reverse()
    return rows[::-1]


def outputs(tmp_path: Path, dataset: str, units: str, capsys) -> dict[str, bytes]:
    """What ``score`` writes and what ``metaeval`` prints and writes, on
    *dataset* with the unit file *units*."""
    scores, table = tmp_path / "scores.jsonl", tmp_path / "metaeval.jsonl"
    assert main(["score", "--input", dataset, "--units", units, "--out", str(scores)]) == 0
    capsys.readouterr()
    assert main(["metaeval", "--input", dataset, "--scores", str(scores), "--out", str(table)]) == 0
    printed = capsys.readouterr()
    assert printed.err == ""
    return {
        "scores": scores.read_bytes(),
        "metaeval": table.read_bytes(),
        "metaeval.stdout": printed.out.encode("utf-8"),
    }


@pytest.mark.parametrize("examples", [None, 40], ids=["toy", "40x16"])
def test_score_and_metaeval_follow_the_ids_not_the_file_order(tmp_path, capsys, examples):
    dataset = TOY if examples is None else write_rows(
        tmp_path / "d.jsonl", seeded_rows(examples, seed=11)
    )
    units = str(tmp_path / "units.jsonl")
    assert main(["extract", "--strategy", "sent", "--input", dataset, "--out", units]) == 0
    (tmp_path / "original").mkdir()
    (tmp_path / "reversed").mkdir()
    original = outputs(tmp_path / "original", dataset, units, capsys)
    turned = write_rows(tmp_path / "reversed.jsonl", reversed_rows(dataset))
    assert outputs(tmp_path / "reversed", turned, units, capsys) == original
    if examples is None:
        assert original["scores"] == GOLDEN_SCORES.read_bytes()


def score_and_intrinsic(tmp_path: Path, dataset: str, units: str, capsys) -> dict[str, bytes]:
    """What ``score`` writes and what ``intrinsic`` prints and writes, on
    *dataset* with the unit file *units*."""
    tmp_path.mkdir()
    scores, report = tmp_path / "scores.jsonl", tmp_path / "intrinsic.jsonl"
    assert main(["score", "--input", dataset, "--units", units, "--out", str(scores)]) == 0
    capsys.readouterr()
    assert main(["intrinsic", "--input", dataset, "--units", units, "--out", str(report)]) == 0
    printed = capsys.readouterr()
    assert printed.err == ""
    return {
        "scores": scores.read_bytes(),
        "intrinsic": report.read_bytes(),
        "intrinsic.stdout": printed.out.encode("utf-8"),
    }


def scattered_units(path: str, out: Path) -> str:
    """The rows of unit file *path* shuffled with a fixed seed until no two
    rows of one example are next to each other."""
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    rng = random.Random(7)
    while True:
        rng.shuffle(lines)
        ids = [json.loads(line)["example_id"] for line in lines]
        if all(a != b for a, b in zip(ids, ids[1:])):
            out.write_text("".join(lines), encoding="utf-8")
            return str(out)


def sum_order_rows() -> list[dict]:
    """Three examples of one sentence and one gold unit each, whose
    easiness is 1, 2/3 and 1/5: the mean of a plain float sum of them in
    file order differs in its last bit from that of one in reverse order,
    as ``sum`` adds before CPython 3.12."""
    rows = []
    for k, (gold, filler) in enumerate([(1, 0), (1, 1), (1, 8)], start=1):
        words = [f"g{k}w{i}" for i in range(gold)]
        text = " ".join(words + [f"f{k}w{i}" for i in range(filler)]).capitalize() + "."
        systems = [{"system_id": s, "summary": text, "human_score": 0.5} for s in ("a", "b")]
        rows.append({
            "example_id": f"e{k}",
            "references": [{"text": text, "scus": [" ".join(words)]}],
            "systems": systems,
        })
    return rows


@pytest.mark.parametrize(
    "rows", [None, lambda: seeded_rows(40, seed=13), sum_order_rows],
    ids=["toy", "40x16", "sum-order"],
)
def test_score_and_intrinsic_follow_the_ids_not_the_order_of_either_file(tmp_path, capsys, rows):
    dataset = TOY if rows is None else write_rows(tmp_path / "d.jsonl", rows())
    units = str(tmp_path / "units.jsonl")
    assert main(["extract", "--strategy", "sent", "--input", dataset, "--out", units]) == 0
    original = score_and_intrinsic(tmp_path / "original", dataset, units, capsys)
    turned = write_rows(tmp_path / "reversed.jsonl", reversed_rows(dataset))
    assert score_and_intrinsic(tmp_path / "reversed", turned, units, capsys) == original
    scattered = scattered_units(units, tmp_path / "scattered.jsonl")
    assert score_and_intrinsic(tmp_path / "scattered", dataset, scattered, capsys) == original
    if rows is None:
        assert original["scores"] == GOLDEN_SCORES.read_bytes()
        assert original["intrinsic"] == (GOLDEN / "intrinsic.jsonl").read_bytes()
        assert original["intrinsic.stdout"] == (GOLDEN / "intrinsic.stdout").read_bytes()


def test_memory_held_grows_little_with_the_corpus(tmp_path, capsys):
    # a summary is about 500 bytes, a SystemSummary record with its slot in
    # a list about 90, and a float in a list 32: a command that keeps any
    # of them per (example, system) cell, beside what it keeps per example,
    # grows past 60
    peaks = {}
    for examples in (100, 400):
        work = tmp_path / str(examples)
        work.mkdir()
        dataset = write_rows(work / "d.jsonl", seeded_rows(examples, seed=3))
        units, scores = str(work / "units.jsonl"), str(work / "scores.jsonl")
        argv = {
            "extract": ["extract", "--strategy", "sent", "--input", dataset, "--out", units],
            "score": ["score", "--input", dataset, "--units", units, "--out", scores],
            "intrinsic": ["intrinsic", "--input", dataset, "--units", units],
            "metaeval": ["metaeval", "--input", dataset, "--scores", scores],
            "stats": ["stats", "--input", dataset],
        }
        for command in argv:  # in order: extract writes the units, score the scores
            assert main(argv[command]) == 0  # every module it uses is loaded
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                assert main(argv[command]) == 0
                peaks[command, examples] = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
    capsys.readouterr()
    added_cells = (400 - 100) * 16
    growth = {
        command: (peaks[command, 400] - peaks[command, 100]) / added_cells
        for command, examples in peaks if examples == 400
    }
    assert max(growth.values()) <= 60, (growth, peaks)


def test_score_reads_a_fifo_input(tmp_path):
    if not hasattr(os, "mkfifo"):
        pytest.skip("no named pipes here")
    fifo = tmp_path / "toy.jsonl"
    os.mkfifo(fifo)
    toy = Path(TOY).read_bytes()

    def feed():
        try:
            with open(fifo, "wb") as pipe:
                pipe.write(toy)
        except OSError:  # the reader went away: the test fails on its own
            pass

    writer = threading.Thread(target=feed)
    writer.start()
    out = tmp_path / "scores.jsonl"
    try:
        code = main(["score", "--input", str(fifo), "--units", GOLDEN_UNITS, "--out", str(out)])
    finally:
        if writer.is_alive():  # the input was never opened: let the writer go
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert code == 0
    assert out.read_bytes() == GOLDEN_SCORES.read_bytes()


def run_on_a_fifo(tmp_path: Path, argv: list[str]) -> int:
    """The exit code of the command *argv* given toy through a named pipe
    as ``--input``, written by a thread that is joined with a timeout."""
    fifo = tmp_path / "toy.fifo"
    os.mkfifo(fifo)
    toy = Path(TOY).read_bytes()

    def feed():
        try:
            with open(fifo, "wb") as pipe:
                pipe.write(toy)
        except OSError:  # the reader went away: the test fails on its own
            pass

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        code = main([*argv, "--input", str(fifo)])
    finally:
        if writer.is_alive():  # the input was never opened: let the writer go
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
    assert not writer.is_alive()
    return code


# each command by its arguments less --input, and the golden file of its
# output (None: its output on toy itself)
ONE_PASS = {
    "extract-ngram": (["extract", "--strategy", "ngram"], None),
    "intrinsic": (["intrinsic", "--units", GOLDEN_UNITS], "intrinsic"),
    "metaeval": (["metaeval", "--scores", str(GOLDEN_SCORES)], "metaeval"),
    "stats": (["stats"], "stats"),
}


@pytest.mark.parametrize("command", sorted(ONE_PASS))
def test_each_command_reads_a_fifo_input_in_one_pass(tmp_path, capsys, command):
    if not hasattr(os, "mkfifo"):
        pytest.skip("no named pipes here")
    argv, golden = ONE_PASS[command]
    out = tmp_path / "out.jsonl"
    assert run_on_a_fifo(tmp_path, [*argv, "--out", str(out)]) == 0
    printed = capsys.readouterr()
    assert printed.err == ""
    if golden is None:
        expected = tmp_path / "toy.jsonl"
        assert main([*argv, "--input", TOY, "--out", str(expected)]) == 0
        assert out.read_bytes() == expected.read_bytes()
    else:
        assert out.read_bytes() == (GOLDEN / f"{golden}.jsonl").read_bytes()
        assert printed.out == (GOLDEN / f"{golden}.stdout").read_text(encoding="utf-8")


def test_score_uses_the_bytes_it_read_not_the_file_as_it_is_later(tmp_path, monkeypatch):
    dataset = tmp_path / "toy.jsonl"
    original = Path(TOY).read_bytes()
    dataset.write_bytes(original)
    rows = [json.loads(line) for line in original.decode("utf-8").splitlines()]
    for row in rows:  # every summary moves to the other system
        first, second = row["systems"]
        first["summary"], second["summary"] = second["summary"], first["summary"]
    load_units = cli.load_units

    def overwrite_then_load(*args, **kwargs):  # the dataset has been loaded
        write_rows(dataset, rows)
        return load_units(*args, **kwargs)

    monkeypatch.setattr(cli, "load_units", overwrite_then_load)
    out = tmp_path / "scores.jsonl"
    assert main(["score", "--input", str(dataset), "--units", GOLDEN_UNITS, "--out", str(out)]) == 0
    assert dataset.read_bytes() != original
    assert out.read_bytes() == GOLDEN_SCORES.read_bytes()
    manifest = json.loads(Path(f"{out}.manifest.json").read_text(encoding="utf-8"))
    assert manifest["inputs"][str(dataset)] == hashlib.sha256(original).hexdigest()


@pytest.fixture
def spools(monkeypatch):
    """The spools the commands make, in order."""
    made = []

    class Recorded(spool.TextSpool):
        def __init__(self, what):
            super().__init__(what)
            made.append(self)

    monkeypatch.setattr(cli, "TextSpool", Recorded, raising=False)
    return made


def failing_scorer(*args):
    raise ServiceUnavailable("presence service down")


FAULTS = ["none", "dataset", "units", "out", "scorer"]

# what each spooling command scores with, which the scorer fault replaces
SCORERS = {"score": "lexical_scorer", "intrinsic": "easiness"}


@pytest.mark.parametrize(
    "command, fault",
    [pytest.param("score", fault, id=fault) for fault in FAULTS]
    + [pytest.param("intrinsic", fault, id=f"intrinsic-{fault}") for fault in FAULTS],
)
def test_the_spool_is_closed_on_every_path(tmp_path, capsys, monkeypatch, spools, command, fault):
    dataset = TOY
    units = GOLDEN_UNITS
    out = tmp_path / "out.jsonl"
    if fault == "dataset":  # the second row's first summary is no string
        rows = [json.loads(line) for line in Path(TOY).read_text(encoding="utf-8").splitlines()]
        rows[1]["systems"][0]["summary"] = 7
        dataset = write_rows(tmp_path / "bad.jsonl", rows)
    elif fault == "units":
        units = str(tmp_path / "missing.jsonl")
    elif fault == "out":
        out = tmp_path / "missing" / "out.jsonl"
    elif fault == "scorer":
        monkeypatch.setattr(cli, SCORERS[command], failing_scorer)
    code = main([command, "--input", dataset, "--units", units, "--out", str(out)])
    assert code == {"none": 0, "scorer": 3}.get(fault, 2), capsys.readouterr().err
    assert len(spools) == 1 and spools[0]._file.closed


def test_a_summary_holding_a_lone_surrogate_escape_exits_2_before_it_is_spooled(
    tmp_path, capsys, spools
):
    dataset = tmp_path / "d.jsonl"
    toy = Path(TOY).read_text(encoding="utf-8")
    dataset.write_text(toy.replace('"summary": "The', '"summary": "\\ud800', 1), encoding="utf-8")
    out = tmp_path / "scores.jsonl"
    assert main(["score", "--input", str(dataset), "--units", GOLDEN_UNITS, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"autopyramid: {dataset}, line 1, field systems[0].summary: "
        "a lone surrogate escape is not text\n"
    )
    assert spools[0]._file.closed and not spools[0].ends and not out.exists()


def test_a_temporary_directory_that_is_missing_exits_2(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "missing"
    monkeypatch.setattr(spool.tempfile, "tempdir", str(missing))
    out = tmp_path / "out.jsonl"
    for command, what in [("score", "the summaries and units"), ("intrinsic", "the units")]:
        assert main([command, "--input", TOY, "--units", GOLDEN_UNITS, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"autopyramid: cannot spool {what} in {missing}: No such file or directory\n"
        )
        assert not out.exists()


def test_a_spool_takes_no_text_once_it_is_read():
    # a group index made at the first read would not see a later add
    with spool.TextSpool("the texts") as texts:
        texts.add(0, ["a", "b"])
        assert texts.size(0) == 2
        with pytest.raises(RuntimeError, match="takes no text once it is read"):
            texts.add(1, ["c"])
        assert texts.texts(0) == ["a", "b"] and texts.size(1) == 0
    assert texts._file.closed


def test_a_full_temporary_disk_exits_2_and_leaves_out_as_it_was(
    tmp_path, capsys, monkeypatch, spools
):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full here")
    # every write to /dev/full fails with ENOSPC; toy's summaries fit the
    # spool's buffer, so the failure shows as the first example is read
    monkeypatch.setattr(spool.tempfile, "TemporaryFile", lambda *args: open("/dev/full", "w+b"))
    out = tmp_path / "scores.jsonl"
    assert main(["score", "--input", TOY, "--units", GOLDEN_UNITS, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"autopyramid: cannot spool the summaries and units( in .+)?: No space left on device\n", err
    ), err
    assert not out.exists() and not list(tmp_path.glob("*.tmp"))
    assert spools[0]._file.closed
