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
