"""Independent oracles for the outputs of the commands the benchmark runs.

Each ``check_*`` function reads one output file and returns a list of
problems; an empty list means the output is correct. The arithmetic is
written out here rather than imported from the package under test, so a
defect there cannot hide itself.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter

from corpus import reference_sentences, tokens_of

TOLERANCE = 1e-12
SCORE_SAMPLE = 200


def _rows(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def clipped_recall(premise: str, hypothesis: str) -> float:
    """Share of hypothesis tokens, with multiplicity, found in the premise."""
    hyp = tokens_of(hypothesis)
    if not hyp:
        return 0.0
    have = Counter(tokens_of(premise))
    return sum(min(n, have[t]) for t, n in Counter(hyp).items()) / len(hyp)


def unigram_f1(candidate: str, reference: str) -> float:
    cand = tokens_of(candidate)
    ref = tokens_of(reference)
    if not cand or not ref:
        return 0.0
    have = Counter(ref)
    overlap = sum(min(n, have[t]) for t, n in Counter(cand).items())
    if overlap == 0:
        return 0.0
    precision = overlap / len(cand)
    recall = overlap / len(ref)
    return 2 * precision * recall / (precision + recall)


def pearson(x: list[float], y: list[float]) -> float:
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    dx = [v - mx for v in x]
    dy = [v - my for v in y]
    den = math.sqrt(math.fsum(d * d for d in dx) * math.fsum(d * d for d in dy))
    return math.fsum(a * b for a, b in zip(dx, dy)) / den


def ranks(values: list[float]) -> list[float]:
    """1-based ranks, ties sharing the mean of their positions."""
    order = sorted(range(len(values)), key=values.__getitem__)
    out = [0.0] * len(values)
    start = 0
    while start < len(order):
        end = start
        while end + 1 < len(order) and values[order[end + 1]] == values[order[start]]:
            end += 1
        for k in range(start, end + 1):
            out[order[k]] = (start + end + 2) / 2
        start = end + 1
    return out


def spearman(x: list[float], y: list[float]) -> float:
    return pearson(ranks(x), ranks(y))


def _close(a, b) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= TOLERANCE


def _units_by_example(path: str) -> dict[str, list[str]]:
    grouped: dict[str, list[str]] = {}
    for row in _rows(path):
        grouped.setdefault(row["example_id"], []).append(row["text"])
    return grouped


# ---------------------------------------------------------------------------
# Unit files


def _unit_rows(entries, path: str, strategy: str) -> tuple[dict[str, list[str]], list[str]]:
    problems = []
    grouped: dict[str, list[str]] = {}
    for row in _rows(path):
        if row.get("strategy") != strategy or row.get("reference_index") != 0:
            problems.append(f"{path}: unexpected row {row}")
            break
        grouped.setdefault(row["example_id"], []).append(row["text"])
    missing = [e["example_id"] for e in entries if not grouped.get(e["example_id"])]
    if missing:
        problems.append(f"{path}: no units for {len(missing)} examples, first {missing[0]}")
    if len(grouped) != len(entries):
        problems.append(f"{path}: units for {len(grouped)} examples, corpus has {len(entries)}")
    return grouped, problems


def check_sentence_units(entries, path: str) -> list[str]:
    grouped, problems = _unit_rows(entries, path, "sentence_split")
    for entry in entries:
        if grouped.get(entry["example_id"]) != reference_sentences(entry):
            problems.append(f"{path}: sentence units of {entry['example_id']} differ")
            break
    return problems


def check_ngram_units(entries, path: str, sizes=(3, 4, 5), fraction=0.05) -> list[str]:
    """Every unit is an n-gram of one reference sentence, and each example
    has ``max(1, ceil(fraction * pool))`` of them."""
    grouped, problems = _unit_rows(entries, path, "ngram")
    for entry in entries:
        pool = set()
        size = 0
        for sentence in reference_sentences(entry):
            tokens = tokens_of(sentence)
            for n in sizes:
                grams = [" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]
                size += len(grams)
                pool.update(grams)
        units = grouped.get(entry["example_id"], [])
        want = max(1, math.ceil(size * fraction))
        if len(units) != want or not set(units) <= pool:
            problems.append(
                f"{path}: {entry['example_id']} has {len(units)} units, "
                f"want {want} n-grams of its reference"
            )
            break
    return problems


def check_graph_units(entries, path: str, graph_tokens) -> list[str]:
    """Graph-derived units: distinct per example, and made only of tokens
    the example's graphs carry (``graph_tokens[example_id]``) plus 'not'."""
    grouped, problems = _unit_rows(entries, path, "smu")
    for example_id, units in grouped.items():
        allowed = graph_tokens.get(example_id, set()) | {"not"}
        if len(set(units)) != len(units) or any(
            not set(tokens_of(u)) <= allowed for u in units
        ):
            problems.append(f"{path}: units of {example_id} are not drawn from its graphs")
            break
    return problems


def check_fragment_units(entries, path: str, fragments) -> list[str]:
    """Chat-derived units: exactly the stub's fragments of each reference."""
    grouped, problems = _unit_rows(entries, path, "sgu")
    for entry in entries:
        if grouped.get(entry["example_id"]) != fragments(entry["references"][0]["text"]):
            problems.append(f"{path}: fragments of {entry['example_id']} differ")
            break
    return problems


# ---------------------------------------------------------------------------
# Scores, easiness, meta-evaluation, corpus statistics


def check_scores(entries, units_path: str, path: str, seed: int) -> list[str]:
    """One row per (example, system) in sorted order; a seeded sample of
    rows recomputed as the mean clipped recall over the example's units."""
    rows = _rows(path)
    units = _units_by_example(units_path)
    keys = [
        (e["example_id"], s["system_id"])
        for e in sorted(entries, key=lambda e: e["example_id"])
        for s in sorted(e["systems"], key=lambda s: s["system_id"])
    ]
    if [(r.get("example_id"), r.get("system_id")) for r in rows] != keys:
        return [f"{path}: rows do not cover every (example, system) in order"]
    summaries = {
        (e["example_id"], s["system_id"]): s["summary"] for e in entries for s in e["systems"]
    }
    sample = random.Random(seed).sample(range(len(rows)), min(SCORE_SAMPLE, len(rows)))
    for index in sorted(sample):
        row = rows[index]
        texts = units[row["example_id"]]
        summary = summaries[(row["example_id"], row["system_id"])]
        want = math.fsum(clipped_recall(summary, t) for t in texts) / len(texts)
        if row.get("units") != len(texts) or not _close(row.get("score"), want):
            return [f"{path}: row {index} reads {row}, oracle {want!r} over {len(texts)} units"]
    return []


def check_easiness(entries, units_path: str, path: str) -> list[str]:
    units = _units_by_example(units_path)
    recall, precision = [], []
    for entry in entries:
        gold = [scu for ref in entry["references"] for scu in ref["scus"]]
        approx = units.get(entry["example_id"], [])
        if not approx:  # the package reports an empty approximation as 0.0
            recall.append(0.0)
            precision.append(0.0)
            continue
        matrix = [[unigram_f1(g, a) for a in approx] for g in gold]
        recall.append(math.fsum(max(row) for row in matrix) / len(gold))
        precision.append(math.fsum(max(col) for col in zip(*matrix)) / len(approx))
    [row] = _rows(path)
    want_r = sum(recall) / len(recall)
    want_p = sum(precision) / len(precision)
    if (
        row.get("examples") != len(entries)
        or not _close(row.get("easiness_r"), want_r)
        or not _close(row.get("easiness_p"), want_p)
    ):
        return [f"{path}: reads {row}, oracle easiness_r {want_r!r} easiness_p {want_p!r}"]
    return []


def metaeval_cells(entries, scores_path: str) -> list[tuple[str, str, float]]:
    scores = {(r["example_id"], r["system_id"]): r["score"] for r in _rows(scores_path)}
    system_ids = sorted(s["system_id"] for s in entries[0]["systems"])
    metric, human = [], []
    for entry in entries:
        by_id = {s["system_id"]: s for s in entry["systems"]}
        metric.append([scores[(entry["example_id"], sid)] for sid in system_ids])
        human.append([by_id[sid]["human_score"] for sid in system_ids])
    n = len(metric)
    columns = range(len(system_ids))
    metric_means = [math.fsum(row[j] for row in metric) / n for j in columns]
    human_means = [math.fsum(row[j] for row in human) / n for j in columns]
    cells = []
    for kind, corr in (("pearson", pearson), ("spearman", spearman)):
        cells.append(("system", kind, corr(metric_means, human_means)))
    for kind, corr in (("pearson", pearson), ("spearman", spearman)):
        values = [
            corr(m, h)
            for m, h in zip(metric, human)
            if min(m) != max(m) and min(h) != max(h)
        ]
        cells.append(("summary", kind, math.fsum(values) / len(values)))
    return cells


def check_metaeval(entries, scores_path: str, path: str) -> list[str]:
    rows = _rows(path)
    cells = metaeval_cells(entries, scores_path)
    if len(rows) != len(cells):
        return [f"{path}: {len(rows)} cells, oracle has {len(cells)}"]
    for row, (level, kind, value) in zip(rows, cells):
        if row.get("level") != level or row.get("corr") != kind or not _close(row.get("value"), value):
            return [f"{path}: cell {row} differs from oracle {level}/{kind} {value!r}"]
    return []


def check_corpus_stats(entries, path: str) -> list[str]:
    references = [ref for e in entries for ref in e["references"]]
    words = sum(len(tokens_of(ref["text"])) for ref in references)
    sentences = sum(len(reference_sentences(e)) for e in entries)
    want = {
        "examples": len(entries),
        "avg_sentences": sentences / len(references),
        "avg_words": words / len(references),
        "avg_words_per_sentence": words / sentences,
        "refs_per_example": len(references) / len(entries),
        "avg_scus": sum(len(ref["scus"]) for ref in references) / len(entries),
    }
    [row] = _rows(path)
    if set(row) != set(want) or not all(_close(row[k], v) for k, v in want.items()):
        return [f"{path}: reads {row}, oracle {want}"]
    return []
