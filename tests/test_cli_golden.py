"""Byte-for-byte pins of what the commands print, write and record on toy.

The expected files under ``tests/data/golden/`` hold the stdout of
``intrinsic``, ``metaeval`` and ``stats``, the ``--out`` bytes of
``intrinsic`` and ``stats``, and the manifest of every command less its
timestamp, with each input named by its file name alone.
"""

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


def produced(tmp_path) -> dict[str, bytes]:
    """Every pinned output of one run of the commands on toy, by the name
    of its golden file."""
    path = {name: str(tmp_path / f"{name}.jsonl") for name in (
        "units", "ngram", "scores", "intrinsic", "metaeval", "stats"
    )}
    texts = {}
    manifests = {}

    run(["extract", "--strategy", "sent", "--input", TOY, "--out", path["units"]])
    manifests["extract-sent"] = pinned_manifest(path["units"])
    run([
        "extract", "--strategy", "ngram", "--seed", "7", "--input", TOY,
        "--out", path["ngram"],
    ])
    manifests["extract-ngram"] = pinned_manifest(path["ngram"])
    run(["score", "--input", TOY, "--units", path["units"], "--out", path["scores"]])
    manifests["score"] = pinned_manifest(path["scores"])

    texts["intrinsic.stdout"] = run([
        "intrinsic", "--input", TOY, "--units", path["units"], "--out", path["intrinsic"],
    ])
    texts["intrinsic.jsonl"] = Path(path["intrinsic"]).read_bytes()
    manifests["intrinsic"] = pinned_manifest(path["intrinsic"])

    texts["metaeval.stdout"] = run([
        "metaeval", "--input", TOY, "--scores", path["scores"], "--out", path["metaeval"],
    ])
    manifests["metaeval"] = pinned_manifest(path["metaeval"])
    texts["metaeval-summary-spearman.stdout"] = run([
        "metaeval", "--input", TOY, "--scores", path["scores"],
        "--level", "summary", "--corr", "spearman",
    ])

    texts["stats.stdout"] = run(["stats", "--input", TOY, "--out", path["stats"]])
    texts["stats.jsonl"] = Path(path["stats"]).read_bytes()
    manifests["stats"] = pinned_manifest(path["stats"])

    texts["manifests.json"] = (
        json.dumps(manifests, indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")
    return texts


def test_commands_print_write_and_record_the_pinned_bytes(tmp_path):
    for name, data in produced(tmp_path).items():
        assert data == (GOLDEN / name).read_bytes(), name


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
