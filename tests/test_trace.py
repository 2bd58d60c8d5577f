"""The benchmark's tracer still finds every name it wraps.

``perfbench/trace_cli.py`` patches the package's cross-module calls by name.
A rename that breaks its patch table, or a call that stops going through
the patched name, would otherwise only show in a traced benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from autopyramid.data import load_dataset, load_units
from stubs import constant_presence, echo_generator, scripted_chat

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "trace_cli.py"
TOY = str(ROOT / "tests" / "data" / "toy.jsonl")


def traced(tmp_path, *argv):
    """The exit code and the counts of one command run under the tracer."""
    spans = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(TRACER), "trace", str(spans), *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "Traceback" not in done.stderr, done.stderr
    return done.returncode, json.loads(spans.read_text(encoding="utf-8"))["counts"]


@pytest.mark.parametrize("strategy", ["sent", "ngram"])
def test_traced_extract_counts_the_units_written(tmp_path, strategy):
    out = tmp_path / "units.jsonl"
    code, counts = traced(
        tmp_path, "extract", "--strategy", strategy, "--input", TOY, "--out", str(out)
    )
    assert code == 0
    written = len(out.read_text(encoding="utf-8").splitlines())
    assert written > 0
    assert counts["extract.units"] == written


def unit_texts(path):
    grouped = {}
    for row in load_units(path):
        grouped.setdefault(row.example_id, []).append(row.text)
    return grouped


def test_traced_score_counts_the_lexical_scorer(tmp_path):
    units = tmp_path / "units.jsonl"
    code, _ = traced(
        tmp_path, "extract", "--strategy", "sent", "--input", TOY, "--out", str(units)
    )
    assert code == 0
    code, counts = traced(
        tmp_path, "score", "--input", TOY, "--units", str(units), "--out", str(tmp_path / "s")
    )
    assert code == 0
    assert counts["presence.lexical_scorer.calls"] > 0
    # one scorer call per example, each distinct summary or unit text of
    # which goes through presence.tokenize once
    grouped = unit_texts(units)
    assert counts["presence.tokenize.calls"] == sum(
        len({s.summary for s in entry.systems} | set(grouped[entry.example_id]))
        for entry in load_dataset(TOY)
    )


def smu_inputs(tmp_path):
    """A one-sentence dataset and its sentence graph."""
    dataset = tmp_path / "d.jsonl"
    row = {
        "example_id": "g1",
        "references": [{"text": "The boy wants to go.", "scus": []}],
        "systems": [],
    }
    dataset.write_text(json.dumps(row) + "\n", encoding="utf-8")
    graphs = tmp_path / "g.penman"
    graphs.write_text(
        "(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))\n", encoding="utf-8"
    )
    return ["--strategy", "smu", "--input", str(dataset), "--graphs", str(graphs)]


def test_traced_smu_extract_counts_candidates_and_realizations(tmp_path):
    out = tmp_path / "units.jsonl"
    code, counts = traced(tmp_path, "extract", *smu_inputs(tmp_path), "--out", str(out))
    assert code == 0
    assert counts["extract.units"] == len(out.read_text(encoding="utf-8").splitlines())
    assert counts["smu.split_graph.candidates"] > 0
    assert counts["smu.realize_baseline.calls"] > 0


def test_traced_remote_smu_extract_counts_serializations(tmp_path, stub_service):
    stub = stub_service(echo_generator)
    code, counts = traced(
        tmp_path,
        "extract",
        *smu_inputs(tmp_path),
        "--gen-endpoint",
        stub.url,
        "--out",
        str(tmp_path / "units.jsonl"),
    )
    assert code == 0
    assert counts["smu.realize_remote.calls"] > 0
    assert counts["amr.serialize_penman.calls"] > 0


def test_traced_sgu_extract_counts_the_units_written(tmp_path, stub_service):
    stub = stub_service(scripted_chat("First fact # Second fact"))
    out = tmp_path / "units.jsonl"
    code, counts = traced(
        tmp_path,
        "extract",
        "--strategy",
        "sgu",
        "--input",
        TOY,
        "--llm-endpoint",
        stub.url,
        "--llm-model",
        "splitter",
        "--out",
        str(out),
    )
    assert code == 0
    written = len(out.read_text(encoding="utf-8").splitlines())
    assert written > 0
    assert counts["extract.units"] == written


GOLDEN = ROOT / "tests" / "data" / "golden"


def test_traced_intrinsic_counts_easiness_cells(tmp_path):
    code, counts = traced(
        tmp_path, "intrinsic", "--input", TOY, "--units", str(GOLDEN / "units.jsonl")
    )
    assert code == 0
    assert counts["stats.easiness.cells"] > 0
    # one easiness call per example; an example without approximations
    # tokenizes nothing
    grouped = unit_texts(GOLDEN / "units.jsonl")
    assert counts["stats.tokenize.calls"] == sum(
        len(set(entry.pooled_scus()) | set(grouped[entry.example_id]))
        for entry in load_dataset(TOY)
        if grouped.get(entry.example_id)
    )


def test_traced_metaeval_counts_system_level_correlations(tmp_path):
    code, counts = traced(
        tmp_path, "metaeval", "--input", TOY, "--scores", str(GOLDEN / "scores.jsonl")
    )
    assert code == 0
    assert counts["stats.system_level.calls"] > 0


def test_traced_stats_counts_corpus_stats(tmp_path):
    code, counts = traced(tmp_path, "stats", "--input", TOY)
    assert code == 0
    assert counts["stats.corpus_stats.calls"] > 0


def test_traced_remote_score_counts_the_remote_scorer(tmp_path, stub_service):
    stub = stub_service(constant_presence(0.5))
    code, counts = traced(
        tmp_path,
        "score",
        "--input",
        TOY,
        "--units",
        str(GOLDEN / "units.jsonl"),
        "--scorer",
        "remote",
        "--nli-endpoint",
        stub.url,
        "--out",
        str(tmp_path / "scores.jsonl"),
    )
    assert code == 0
    assert counts["presence.remote_scorer.calls"] > 0
