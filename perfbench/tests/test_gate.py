"""Tests of the benchmark's own correctness gate, trace arithmetic and spec.

    python3 -m pytest perfbench/tests -q

They run the real command sequence of ``offline-ngram`` on a small corpus.
"""

import dataclasses
import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import corpus  # noqa: E402
import run  # noqa: E402

SMALL = dataclasses.replace(run.WORKLOADS["offline-ngram"], examples=30, systems=4)


@pytest.fixture(scope="module")
def first_pass(tmp_path_factory):
    """A runner after one clean, checked pass of the small workload."""
    runner = run.Runner("offline-ngram", SMALL, 7, str(tmp_path_factory.mktemp("work")))
    runner.set_up()
    first = runner.run_pass("pass0", traced=False)
    runner.check(first, "pass0", None)
    yield runner, first
    runner.close()


def _fresh(runner):
    clone = run.Runner(runner.name, runner.workload, runner.seed, runner.work)
    clone.ctx = runner.ctx
    return clone


def test_clean_pass_has_no_failures(first_pass):
    runner, first = first_pass
    assert (runner.attempted, runner.failed) == (5, 0)
    assert all(c.code == 0 for c in first.commands)


def test_wrong_recorded_digest_counts_as_failed(first_pass):
    runner, first = first_pass
    recorded = {name: sha for step in first.digests for name, sha in step.items()}
    recorded["scores.jsonl"] = "0" * 64
    checker = _fresh(runner)
    checker.check(first, "pass0", recorded)
    assert (checker.attempted, checker.failed) == (5, 1)


def test_oracle_mismatch_counts_as_failed(first_pass, tmp_path):
    runner, first = first_pass
    out = tmp_path / "pass0"
    shutil.copytree(os.path.join(runner.work, "pass0"), out)
    path = out / "scores.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows[3]["score"] += 1e-9
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    checker = _fresh(runner)
    checker.work = str(tmp_path)
    checker.check(first, "pass0", None)
    step = SMALL.steps[1]
    assert run.failures(runner.ctx, step, str(out), first.commands[1], first.digests[1], None, None)
    assert checker.failed >= 1


def test_later_pass_must_equal_the_first(first_pass):
    runner, first = first_pass
    changed = dataclasses.replace(first, digests=[dict(d) for d in first.digests])
    changed.digests[4]["stats.jsonl"] = "f" * 64
    checker = _fresh(runner)
    checker.reference = first.digests
    checker.check(changed, "pass0", None)
    assert (checker.attempted, checker.failed) == (5, 1)


def test_nonzero_exit_counts_as_failed(first_pass):
    runner, _ = first_pass
    broken = dataclasses.replace(
        SMALL,
        steps=(dataclasses.replace(SMALL.steps[1], argv=SMALL.steps[1].argv[:-2]),),
    )
    checker = run.Runner("broken", broken, runner.seed, runner.work)
    checker.ctx = runner.ctx
    try:
        checker.check(checker.run_pass("broken", traced=False), "broken", None)
    finally:
        checker.close()
    assert (checker.attempted, checker.failed) == (1, 1)


def test_traced_pass_matches_and_reports_layers(first_pass):
    runner, _ = first_pass
    traced = runner.run_pass("traced0", traced=True)
    before = runner.failed
    runner.check(traced, "traced0", None)
    assert runner.failed == before
    layers = run.trace_metrics(traced)
    assert layers["presence.score_summary.calls"] == 30 * 4
    assert layers["data.load_dataset.calls"] == 5
    assert 0 < layers["presence.unique_pair_ratio"] < 1
    assert layers["presence.lexical_scorer.s"] > 0


def test_peak_rss_is_the_command_not_the_benchmark(first_pass):
    runner, first = first_pass
    ballast = [str(i) * 10 for i in range(2_000_000)]  # grows this process
    again = runner.run_pass("pass1", traced=False)
    assert len(ballast) and max(c.rss_kb for c in again.commands) < 1.2 * max(
        c.rss_kb for c in first.commands
    )


def test_self_time_subtracts_the_union_of_children_and_leaves(tmp_path):
    spans = {
        "trace_id": "t",
        "spans": [
            [0, None, "cli.score", "cli", 0.0, 10.0, 1.0],
            [1, 0, "data.load_dataset", "data", 1.0, 3.0, 0.0],
            [2, 0, "presence.score_summary", "presence", 2.0, 5.0, 0.5],
        ],
        "counts": {},
        "leaf_s": {"presence.tokenize": 1.5},
    }
    path = tmp_path / "spans.json"
    path.write_text(json.dumps(spans))
    # the command ran while its CPU was twice as slow as the reference
    command = run.CommandRun("score", 10.0, 10.0, 0, 0, "", 0.5)
    metrics = run.trace_metrics(run.Pass(0.0, [command], [], {}, [str(path)]))
    assert metrics["cli.score.self_s"] == pytest.approx((10.0 - 4.0 - 1.0) / 2)
    assert metrics["layer.presence.self_s"] == pytest.approx((3.0 - 0.5) / 2)
    assert metrics["layer.text.self_s"] == pytest.approx(1.5 / 2)


def test_corpus_is_a_function_of_the_seed():
    assert corpus.make_entries(3, 5, 4) == corpus.make_entries(3, 5, 4)
    assert corpus.make_entries(3, 5, 4) != corpus.make_entries(4, 5, 4)


def test_benchmark_json_matches_the_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        assert json.load(handle) == run.spec()
