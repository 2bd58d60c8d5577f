"""Evaluation statistics: easiness, correlations, agreement, corpus counts.

The correlation helpers are written out longhand rather than delegated to a
stats library because their tie handling is part of this package's
contract: ``spearman`` is exactly the Pearson correlation of average ranks.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from typing import NamedTuple, Sequence

from .data import is_finite_number
from .errors import DegenerateInput, EmptyDataset, LengthMismatch, NoGoldUnits
from .text import (  # noqa: F401  (rouge1_f1: easiness is its matrix, kept importable)
    TokenBag,
    bag_overlap,
    rouge1_f1,
    split_sentences,
    tokenize,
    unigram_f1,
)


# ---------------------------------------------------------------------------
# Easiness


class EasinessReport(NamedTuple):
    """Best-match unigram-F1 agreement between gold units and approximations.

    ``easiness_r`` averages, over gold units, the best F1 any approximation
    reaches against them; ``easiness_p`` runs the other direction. The
    ``degenerate`` flag marks an empty approximation set, reported as 0.0.
    """

    easiness_r: float
    easiness_p: float
    gold_best_match: tuple[int, ...]
    approx_best_match: tuple[int, ...]
    degenerate: bool = False


def easiness(gold: Sequence[str], approx: Sequence[str]) -> EasinessReport:
    """The easiness of the unit texts *approx* against the gold unit texts."""
    if not gold:
        raise NoGoldUnits("easiness needs at least one gold unit")
    if not approx:
        return EasinessReport(0.0, 0.0, (), (), degenerate=True)
    gold_texts = list(gold)
    approx_texts = list(approx)
    # rouge1_f1 for every cell, with each text tokenized once
    bags: dict[str, TokenBag] = {}
    for text in gold_texts + approx_texts:
        if text not in bags:
            bags[text] = TokenBag(tokenize(text))
    approx_bags = [bags[a] for a in approx_texts]
    scores = []
    for g in gold_texts:
        g_bag = bags[g]
        scores.append(
            [
                unigram_f1(bag_overlap(g_bag, a_bag), g_bag.length, a_bag.length)
                for a_bag in approx_bags
            ]
        )

    columns = list(zip(*scores))
    gold_best = tuple(max(range(len(row)), key=row.__getitem__) for row in scores)
    approx_best = tuple(max(range(len(column)), key=column.__getitem__) for column in columns)
    easiness_r = math.fsum(map(max, scores)) / len(gold_texts)
    easiness_p = math.fsum(map(max, columns)) / len(approx_texts)
    return EasinessReport(easiness_r, easiness_p, gold_best, approx_best)


# ---------------------------------------------------------------------------
# Correlations


def _paired(x: Sequence[float], y: Sequence[float]) -> int:
    if len(x) != len(y):
        raise LengthMismatch(f"inputs have lengths {len(x)} and {len(y)}")
    if not all(map(is_finite_number, x)) or not all(map(is_finite_number, y)):
        raise DegenerateInput("correlation needs finite inputs")
    return len(x)


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation; raises on constant or non-finite input,
    and on deviations whose squares overflow."""
    n = _paired(x, y)
    if n < 2:
        raise DegenerateInput("correlation needs at least two points")
    try:
        mean_x = math.fsum(x) / n
        mean_y = math.fsum(y) / n
        dx = [v - mean_x for v in x]
        dy = [v - mean_y for v in y]
        sxx = math.fsum(d * d for d in dx)
        syy = math.fsum(d * d for d in dy)
    except OverflowError as exc:
        raise DegenerateInput("inputs too large to correlate") from exc
    if not (math.isfinite(sxx) and math.isfinite(syy)):
        raise DegenerateInput("inputs too large to correlate")
    # exact, where a mean that does not round back to the constant would
    # leave deviations of rounding noise
    if min(x) == max(x) or min(y) == max(y):
        raise DegenerateInput("constant input has no correlation")
    if not all(sys.float_info.min <= s < math.inf for s in (sxx, syy, sxx * syy)):
        # squares or their product left the normal range; deviations
        # scaled to a largest magnitude of 1 give sums between 1 and n
        top_x, top_y = max(map(abs, dx)), max(map(abs, dy))
        dx, dy = [d / top_x for d in dx], [d / top_y for d in dy]
        sxx = math.fsum(d * d for d in dx)
        syy = math.fsum(d * d for d in dy)
    value = math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, value))


def average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks; tied values share the mean of their rank positions.
    Raises on non-finite input, which has no rank."""
    if not all(map(is_finite_number, values)):
        raise DegenerateInput("ranking needs finite inputs")
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        shared = (i + j + 2) / 2  # mean of 1-based positions i+1 .. j+1
        for k in range(i, j + 1):
            ranks[order[k]] = shared
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """:func:`pearson` of the average ranks. The pair is checked first, on
    the values given, so a length or finiteness error reads as it does for
    :func:`pearson`."""
    _paired(x, y)
    return pearson(average_ranks(x), average_ranks(y))


_CORRELATIONS = {"pearson": pearson, "spearman": spearman}


class CorrelationReport(NamedTuple):
    """One correlation cell of the meta-evaluation."""

    level: str
    kind: str
    value: float
    examples: int
    systems: int
    skipped: int = 0


def _check_matrices(metric: Sequence[Sequence[float]], human: Sequence[Sequence[float]]):
    if len(metric) != len(human):
        raise LengthMismatch(
            f"metric has {len(metric)} examples, human has {len(human)}"
        )
    if not metric:
        raise LengthMismatch("need at least one example row")
    width = len(metric[0])
    for row in list(metric) + list(human):
        if len(row) != width:
            raise LengthMismatch("matrix rows have uneven lengths")
    if width < 2:
        raise LengthMismatch("need at least two systems")
    return len(metric), width


def system_level(
    metric: Sequence[Sequence[float]],
    human: Sequence[Sequence[float]],
    kind: str = "pearson",
) -> CorrelationReport:
    """Correlate per-system means of metric and human scores.

    Rows are examples, columns are systems; both matrices must be fully
    populated and of equal shape.
    """
    if kind not in _CORRELATIONS:
        raise ValueError(f"unknown correlation kind {kind!r}")
    n, s = _check_matrices(metric, human)
    metric_means = [math.fsum(row[j] for row in metric) / n for j in range(s)]
    human_means = [math.fsum(row[j] for row in human) / n for j in range(s)]
    value = _CORRELATIONS[kind](metric_means, human_means)
    return CorrelationReport("system", kind, value, examples=n, systems=s)


def summary_level(
    metric: Sequence[Sequence[float]],
    human: Sequence[Sequence[float]],
    kind: str = "pearson",
) -> CorrelationReport:
    """Mean over examples of the per-example correlation across systems.

    Examples whose metric or human row is constant cannot be correlated;
    they are skipped and counted in the report.
    """
    if kind not in _CORRELATIONS:
        raise ValueError(f"unknown correlation kind {kind!r}")
    n, s = _check_matrices(metric, human)
    values = []
    skipped = 0
    for metric_row, human_row in zip(metric, human):
        if min(metric_row) == max(metric_row) or min(human_row) == max(human_row):
            skipped += 1
            continue
        values.append(_CORRELATIONS[kind](metric_row, human_row))
    if not values:
        raise DegenerateInput("every example row is constant")
    value = math.fsum(values) / len(values)
    return CorrelationReport("summary", kind, value, examples=n, systems=s, skipped=skipped)


# ---------------------------------------------------------------------------
# Agreement


def cohen_kappa(a: Sequence, b: Sequence) -> float:
    """Cohen's kappa for two label sequences over a shared label set."""
    if len(a) != len(b):
        raise LengthMismatch(f"label lists have lengths {len(a)} and {len(b)}")
    if not a:
        raise LengthMismatch("label lists are empty")
    n = len(a)
    observed = sum(1 for u, v in zip(a, b) if u == v) / n
    # a correctly rounded sum, the same in any label order
    counts_a, counts_b = Counter(a), Counter(b)
    expected = math.fsum(count / n * (counts_b[label] / n) for label, count in counts_a.items())
    if expected == 1.0:
        return 1.0
    return (observed - expected) / (1.0 - expected)


# ---------------------------------------------------------------------------
# Corpus statistics


class CorpusStats(NamedTuple):
    """Reference-summary statistics over a dataset."""

    avg_sentences: float
    avg_words: float
    avg_words_per_sentence: float
    refs_per_example: float
    avg_scus: float
    examples: int


def corpus_stats(dataset) -> CorpusStats:
    """Token and sentence averages per reference, unit counts per example,
    taken in one pass over the entries of *dataset*, any iterable."""
    examples = references = sentences = words = scus = 0
    for examples, entry in enumerate(dataset, start=1):
        for reference in entry.references:
            references += 1
            sentences += len(split_sentences(reference.text))
            words += len(tokenize(reference.text))
            scus += len(reference.scus)
    if not examples:
        raise EmptyDataset("dataset has no entries")
    return CorpusStats(
        avg_sentences=sentences / references,
        avg_words=words / references,
        avg_words_per_sentence=words / sentences if sentences else 0.0,
        refs_per_example=references / examples,
        avg_scus=scus / examples,
        examples=examples,
    )
