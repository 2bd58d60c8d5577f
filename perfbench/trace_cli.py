"""Run one autopyramid command with spans recorded at the layer boundaries.

    python3 perfbench/trace_cli.py TRACE_ID SPANS_JSON <autopyramid args...>

Wraps the public functions that one module of the package calls in
another (the names those modules imported, so only cross-layer calls are
seen), then calls ``autopyramid.cli.main(argv)``. Spans (id, parent id,
name, start, end) and counts stay in memory and are written to SPANS_JSON
when the command ends; the exit code is the command's. Nothing under the
package is edited.

Hot leaf calls into the ``text`` layer (one per token list or F1 cell) are
recorded as a count and a total time, charged to the enclosing span, so
that their self time is exact without storing a span per call.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time


class Tracer:
    """Spans of one command; all of them share ``trace_id``."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[list] = []  # [id, parent, name, layer, start, end, leaf_s]
        self.counts: dict[str, float] = {}
        self.leaf_s: dict[str, float] = {}
        self.unique_pairs: set = set()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str, layer: str, func, measure=None):
        """Wrap *func* in a span; ``measure(args, kwargs, result)`` may add
        counts after each call."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            record = [len(self.spans), stack[-1][0] if stack else None, name, layer, 0.0, 0.0, 0.0]
            self.spans.append(record)
            stack.append(record)
            record[4] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                record[5] = time.perf_counter()
                stack.pop()
            self.count(f"{name}.calls")
            if measure is not None:
                measure(args, kwargs, result)
            return result

        return wrapper

    def leaf(self, name: str, func):
        """Wrap a hot leaf: count and time it, charge the time to its parent."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = func(*args, **kwargs)
            elapsed = time.perf_counter() - start
            self.counts[f"{name}.calls"] = self.counts.get(f"{name}.calls", 0) + 1
            self.leaf_s[name] = self.leaf_s.get(name, 0.0) + elapsed
            stack = self._stack()
            if stack:
                stack[-1][6] += elapsed
            return result

        return wrapper

    def dump(self, path: str) -> None:
        payload = {
            "trace_id": self.trace_id,
            "spans": self.spans,
            "counts": self.counts,
            "leaf_s": self.leaf_s,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def install(tracer: Tracer) -> None:
    """Replace the cross-module names the package's modules call through."""
    from autopyramid import amr, cli, extract, presence, services, smu, stats

    span, leaf, count = tracer.span, tracer.leaf, tracer.count

    def patch(module, attr, name, layer, measure=None):
        setattr(module, attr, span(name, layer, getattr(module, attr), measure))

    def units(args, kwargs, result):
        count("extract.units", len(result))

    def units_per_reference(args, kwargs, result):
        count("extract.units", sum(map(len, result)))

    def manifest_bytes(args, kwargs, result):
        count("manifest.bytes", os.path.getsize(result))

    def pairs(args, kwargs, result):
        unit_list, summary = args[0], args[1]
        count("presence.pairs", len(unit_list))
        tracer.unique_pairs.update((summary, u.text) for u in unit_list)

    def cells(args, kwargs, result):
        count("stats.easiness.cells", len(args[0]) * len(args[1]))

    def candidates(args, kwargs, result):
        count("smu.split_graph.candidates", len(result))

    for command in ("extract", "score", "intrinsic", "metaeval", "stats"):
        patch(cli, f"cmd_{command}", f"cli.{command}", "cli")
    patch(cli, "load_dataset", "data.load_dataset", "data")
    patch(cli, "load_units", "data.load_units", "data")
    patch(cli, "write_unit_file", "data.save_units", "data")
    patch(cli, "atomic_write_text", "data.atomic_write_text", "data")
    patch(cli, "write_manifest", "manifest.write_manifest", "manifest", manifest_bytes)
    for attr in ("extract_ngram_units", "extract_sentence_units", "extract_smu_units"):
        patch(cli, attr, f"extract.{attr}", "extract", units)
    patch(
        cli,
        "extract_sgu_units_many",
        "extract.extract_sgu_units_many",
        "extract",
        units_per_reference,
    )
    patch(cli, "load_penman_file", "amr.load_penman_file", "amr")
    patch(cli, "parse_penman", "amr.parse_penman", "amr")
    patch(amr, "parse_penman", "amr.parse_penman", "amr")
    patch(cli, "score_summary", "presence.score_summary", "presence", pairs)
    patch(cli, "lexical_scorer", "presence.lexical_scorer", "presence")
    remote_scorer = cli.remote_scorer
    cli.remote_scorer = functools.wraps(remote_scorer)(
        lambda *a, **k: span("presence.remote_scorer", "presence", remote_scorer(*a, **k))
    )
    for attr in ("easiness", "system_level", "summary_level", "corpus_stats"):
        patch(cli, attr, f"stats.{attr}", "stats", cells if attr == "easiness" else None)
    patch(extract, "split_graph", "smu.split_graph", "smu", candidates)
    patch(extract, "realize_baseline", "smu.realize_baseline", "smu")
    patch(extract, "realize_remote", "smu.realize_remote", "smu")
    patch(smu, "serialize_penman", "amr.serialize_penman", "amr")
    for client, method in (
        (services.PresenceClient, "probabilities"),
        (services.ParseServiceClient, "parse_sentences"),
        (services.GraphToTextClient, "generate"),
    ):
        name = f"services.{client.__name__}.{method}"
        setattr(client, method, span(name, "services", getattr(client, method)))
    presence.tokenize = leaf("presence.tokenize", presence.tokenize)
    stats.rouge1_f1 = leaf("stats.rouge1_f1", stats.rouge1_f1)
    stats.tokenize = leaf("stats.tokenize", stats.tokenize)
    stats.split_sentences = leaf("stats.split_sentences", stats.split_sentences)


def main(argv: list[str]) -> int:
    trace_id, out, *command = argv
    tracer = Tracer(trace_id)
    install(tracer)
    from autopyramid import cli

    try:
        code = cli.main(command)
    finally:
        tracer.counts["presence.unique_pairs"] = len(tracer.unique_pairs)
        tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
