"""Independent reference implementations used to check the package.

Everything here is deliberately written with different code paths than the
library: explicit loops, no shared helpers, brute-force enumeration.
"""

import itertools
import math
import random

from autopyramid.extract import ContentUnit
from autopyramid.text import enumerate_ngrams, split_sentences


def split_alnum(text):
    out = []
    word = ""
    for ch in text:
        if ch.isalnum() and ch != "_":
            word += ch
        else:
            if word:
                out.append(word)
            word = ""
    if word:
        out.append(word)
    return out


def rouge1_f1_oracle(candidate, reference):
    cand_tokens = split_alnum(candidate.lower())
    ref_tokens = split_alnum(reference.lower())
    if not cand_tokens or not ref_tokens:
        return 0.0
    overlap = 0
    remaining = list(ref_tokens)
    for tok in cand_tokens:
        if tok in remaining:
            remaining.remove(tok)
            overlap += 1
    p = overlap / len(cand_tokens)
    r = overlap / len(ref_tokens)
    if p + r == 0:
        return 0.0
    return 2 * p * r / (p + r)


def ranks_oracle(values):
    pairs = sorted((v, i) for i, v in enumerate(values))
    out = [0.0] * len(values)
    start = 0
    while start < len(pairs):
        stop = start
        while stop + 1 < len(pairs) and pairs[stop + 1][0] == pairs[start][0]:
            stop += 1
        mean_rank = sum(range(start + 1, stop + 2)) / (stop - start + 1)
        for k in range(start, stop + 1):
            out[pairs[k][1]] = mean_rank
        start = stop + 1
    return out


def correlate_oracle(xs, ys, kind):
    if kind == "spearman":
        xs, ys = ranks_oracle(xs), ranks_oracle(ys)
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    sx = math.sqrt(sum((a - mx) ** 2 for a in xs))
    sy = math.sqrt(sum((b - my) ** 2 for b in ys))
    return cov / (sx * sy)


def system_level_oracle(metric, human, kind):
    n = len(metric)
    s = len(metric[0])
    m_means = [sum(metric[i][j] for i in range(n)) / n for j in range(s)]
    h_means = [sum(human[i][j] for i in range(n)) / n for j in range(s)]
    return correlate_oracle(m_means, h_means, kind)


def summary_level_oracle(metric, human, kind):
    rows = []
    for i in range(len(metric)):
        if len(set(metric[i])) == 1 or len(set(human[i])) == 1:
            continue
        rows.append(correlate_oracle(metric[i], human[i], kind))
    return sum(rows) / len(rows)


def wilcoxon_oracle(diffs):
    """Exhaustive sign-assignment enumeration for the signed-rank test."""
    ranks = ranks_oracle([abs(d) for d in diffs])
    w_plus = sum(r for d, r in zip(diffs, ranks) if d > 0)
    w_minus = sum(r for d, r in zip(diffs, ranks) if d < 0)
    w = min(w_plus, w_minus)
    hits = 0
    count = 0
    for signs in itertools.product((1, -1), repeat=len(diffs)):
        plus = sum(r for s, r in zip(signs, ranks) if s > 0)
        minus = sum(r for s, r in zip(signs, ranks) if s < 0)
        count += 1
        if min(plus, minus) <= w + 1e-9:
            hits += 1
    return w, hits / count


def ngram_units_oracle(reference, config):
    """The n-gram sample drawn the direct way, from a pool of every n-gram
    string rather than of positions: the pool holds
    (sentence, n, start, text) in (sentence, n, start) order, the seeded
    sample is taken from it, and the picks are sorted. ``None`` for an
    empty pool. It shares the sentence splitter and ``enumerate_ngrams``
    with the package, so it checks which n-grams are drawn."""
    pool = []
    for span in split_sentences(reference):
        by_size = {}
        for gram in enumerate_ngrams(span.text, config.ngram_sizes):
            n = gram.count(" ") + 1
            start = by_size.get(n, 0)
            by_size[n] = start + 1
            pool.append((span.index, n, start, gram))
    if not pool:
        return None
    count = min(len(pool), max(1, math.ceil(len(pool) * config.ngram_fraction)))
    chosen = sorted(random.Random(config.seed).sample(pool, count))
    return [ContentUnit(gram, "ngram", sentence_index=sentence) for sentence, _, _, gram in chosen]
