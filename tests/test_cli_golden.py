"""Byte-for-byte pins of what the commands print, write and record on toy.

The expected files under ``tests/data/golden/`` hold the stdout of
``intrinsic``, ``metaeval`` and ``stats``, the ``--out`` bytes of
``intrinsic`` and ``stats``, and the manifest of every command less its
timestamp, with each input named by its file name alone.
"""

import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from autopyramid.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
TOY = str(DATA / "toy.jsonl")


def run(argv) -> bytes:
    """The stdout of a command that must succeed and print nothing to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, ""), argv
    return out.getvalue().encode("utf-8")


def pinned_manifest(out: str) -> dict:
    manifest = json.loads(Path(f"{out}.manifest.json").read_text(encoding="utf-8"))
    del manifest["timestamp"]
    manifest["inputs"] = {os.path.basename(p): d for p, d in manifest["inputs"].items()}
    return manifest


def produced(tmp_path, dataset=TOY) -> dict[str, bytes]:
    """Every pinned output of one run of the commands on *dataset*, by the
    name of its golden file."""
    path = {name: str(tmp_path / f"{name}.jsonl") for name in (
        "units", "ngram", "scores", "intrinsic", "metaeval", "stats"
    )}
    texts = {}
    manifests = {}

    run(["extract", "--strategy", "sent", "--input", dataset, "--out", path["units"]])
    manifests["extract-sent"] = pinned_manifest(path["units"])
    run([
        "extract", "--strategy", "ngram", "--seed", "7", "--input", dataset,
        "--out", path["ngram"],
    ])
    manifests["extract-ngram"] = pinned_manifest(path["ngram"])
    run(["score", "--input", dataset, "--units", path["units"], "--out", path["scores"]])
    manifests["score"] = pinned_manifest(path["scores"])

    texts["intrinsic.stdout"] = run([
        "intrinsic", "--input", dataset, "--units", path["units"], "--out", path["intrinsic"],
    ])
    texts["intrinsic.jsonl"] = Path(path["intrinsic"]).read_bytes()
    manifests["intrinsic"] = pinned_manifest(path["intrinsic"])

    texts["metaeval.stdout"] = run([
        "metaeval", "--input", dataset, "--scores", path["scores"], "--out", path["metaeval"],
    ])
    manifests["metaeval"] = pinned_manifest(path["metaeval"])
    texts["metaeval-summary-spearman.stdout"] = run([
        "metaeval", "--input", dataset, "--scores", path["scores"],
        "--level", "summary", "--corr", "spearman",
    ])

    texts["stats.stdout"] = run(["stats", "--input", dataset, "--out", path["stats"]])
    texts["stats.jsonl"] = Path(path["stats"]).read_bytes()
    manifests["stats"] = pinned_manifest(path["stats"])

    texts["manifests.json"] = (
        json.dumps(manifests, indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")
    return texts


def test_commands_print_write_and_record_the_pinned_bytes(tmp_path):
    for name, data in produced(tmp_path).items():
        assert data == (GOLDEN / name).read_bytes(), name


def test_a_crlf_copy_of_toy_gives_the_pinned_bytes(tmp_path):
    # "\r" before "\n" is JSON whitespace; only the copy's digest differs
    lf = Path(TOY).read_bytes()
    crlf = tmp_path / "crlf" / "toy.jsonl"
    crlf.parent.mkdir()
    crlf.write_bytes(lf.replace(b"\n", b"\r\n"))
    digests = [hashlib.sha256(raw).hexdigest().encode("ascii") for raw in (lf, crlf.read_bytes())]
    for name, data in produced(tmp_path, str(crlf)).items():
        expected = (GOLDEN / name).read_bytes()
        if name == "manifests.json":
            assert expected.count(digests[0]) == 6
            expected = expected.replace(*digests)
        assert data == expected, name


def test_reports_without_out_print_the_same_and_write_nothing(tmp_path, monkeypatch):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    units, scores = str(inputs / "units.jsonl"), str(inputs / "scores.jsonl")
    run(["extract", "--strategy", "sent", "--input", TOY, "--out", units])
    run(["score", "--input", TOY, "--units", units, "--out", scores])
    before = sorted(os.listdir(inputs))
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)

    printed = {
        "intrinsic.stdout": run(["intrinsic", "--input", TOY, "--units", units]),
        "metaeval.stdout": run(["metaeval", "--input", TOY, "--scores", scores]),
        "stats.stdout": run(["stats", "--input", TOY]),
    }
    for name, data in printed.items():
        assert data == (GOLDEN / name).read_bytes(), name
    assert os.listdir(cwd) == []
    assert sorted(os.listdir(inputs)) == before
