"""Reproduce the ROADMAP's baseline figures at the sizes it states.

    python3 perfbench/baseline.py [--seed N]

Runs one checked pass of the offline commands on a 1000x16 corpus and of
the remote sequence on a 200x16 corpus, plus one traced pass of each, and
prints every figure next to the one the ROADMAP baseline records (2 cores,
CPython 3.11.7), both as measured and in the benchmark's reference
seconds. The benchmark's own workloads are smaller, so that each 25 s
run fits several passes; this script is the bridge between the two.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import shutil
import sys

import oracle
import run

ROADMAP = {
    "extract sent": "0.31 s",
    "extract ngram": "0.55 s (9,770 units)",
    "score lexical, sentence units": "3.4 s",
    "score lexical, n-gram units": "6.6 s (83% in lexical_presence)",
    "intrinsic": "1.4-2.1 s",
    "metaeval": "0.50 s",
    "stats": "0.38 s",
    "score remote, 200x16": "12.4 s, 3,200 requests of 4 pairs",
}


def _score(units: str, out: str) -> tuple[str, ...]:
    return ("score", "--input", "{data}", "--units", f"{{out}}/{units}", "--out", f"{{out}}/{out}")


OFFLINE = run.Workload(
    examples=1000,
    systems=16,
    graphs=False,
    services=False,
    steps=(
        run.Step("extract", run.extract_args("sent", "sent.jsonl"), ("sent.jsonl",),
                 run.file_check(oracle.check_sentence_units, "sent.jsonl")),
        run.WORKLOADS["offline-ngram"].steps[0],
        run.Step("score", _score("sent.jsonl", "scores-sent.jsonl"), ("scores-sent.jsonl",),
                 lambda ctx, out: oracle.check_scores(
                     ctx.entries, f"{out}/sent.jsonl", f"{out}/scores-sent.jsonl", ctx.seed)),
        *run.WORKLOADS["offline-ngram"].steps[1:],
    ),
    why="",
)
LABELS = [
    "extract sent", "extract ngram", "score lexical, sentence units",
    "score lexical, n-gram units", "intrinsic", "metaeval", "stats",
]
REMOTE = dataclasses.replace(run.WORKLOADS["remote-services"], examples=200)


def one_pass(name: str, workload: run.Workload, seed: int):
    """One checked plain pass and one checked traced pass; returns the
    runner, the plain pass and the layer metrics of each traced command."""
    work = os.path.join(run.WORK, f"baseline-{name}-{os.getpid()}")
    os.makedirs(work)
    runner = run.Runner(name, workload, seed, work)
    try:
        runner.set_up()
        plain = runner.run_pass("pass0", traced=False)
        runner.check(plain, "pass0", None)
        traced = runner.run_pass("traced0", traced=True)
        runner.check(traced, "traced0", None)
        layers = [run.trace_metrics(dataclasses.replace(traced, spans=[s])) for s in traced.spans]
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
    return runner, plain, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    args = parser.parse_args(argv)

    offline, plain, layers = one_pass("offline", OFFLINE, args.seed)
    rows = []
    for index, label in enumerate(LABELS):
        layer = layers[index]
        note = ""
        if label == "extract ngram":
            note = f"{layer['extract.units']:,} units"
        elif label.startswith("score"):
            note = f"{layer['presence.lexical_scorer.share_of_score']:.0%} in lexical_scorer"
        rows.append((label, ROADMAP[label], plain.commands[index], note))

    remote, plain, _ = one_pass("remote", REMOTE, args.seed)
    presence = plain.services["presence"]
    rows.append((
        "score remote, 200x16",
        ROADMAP["score remote, 200x16"],
        plain.commands[1],
        f"{presence['requests']:,} requests ({presence['retried']} injected 503s), "
        f"{presence['items_per_request']:g} pairs each",
    ))

    print(f"{'stage':<32} {'ROADMAP':<36} {'raw s':>7} {'ref s':>7}  notes")
    for label, baseline, command, note in rows:
        print(f"{label:<32} {baseline:<36} {command.wall:>7.2f} "
              f"{command.ref_wall:>7.2f}  {note}")
    failed = offline.failed + remote.failed
    print(f"{offline.attempted + remote.attempted} commands, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
