"""Presence scoring and easiness do each piece of work once.

The batched forms (``lexical_scorer``, ``score_summaries``, ``easiness``)
must equal their per-pair or per-cell definitions exactly, and the CLI must
score each example in one scorer call.
"""

import json
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autopyramid import presence, stats
from autopyramid.cli import main
from autopyramid.errors import MalformedServiceReply
from autopyramid.presence import lexical_scorer, score_summaries, score_summary
from autopyramid.stats import EasinessReport, easiness
from autopyramid.text import rouge1_f1

from oracles import lexical_presence


WORDS = ["the", "The", "cat", "sat", "a", "A", "mat", "dog", "x1", "ß", "É"]
PUNCTUATION = [".", "!?", "_", "--", "...", ""]

texts = st.one_of(
    st.lists(st.sampled_from(WORDS + PUNCTUATION), max_size=8).map(" ".join),
    st.sampled_from(["", " ", "...", "!?_"]),
)
# a unit needs some non-blank text; punctuation alone is allowed
unit_texts = texts.filter(str.strip)


@st.composite
def drawn_from_pool(draw, min_size=0, max_size=12, elements=texts):
    """A list of texts drawn from a small pool, so that the same text
    comes back at positions that are not adjacent."""
    pool = draw(st.lists(elements, min_size=1, max_size=5))
    picks = st.integers(0, len(pool) - 1).map(pool.__getitem__)
    return draw(st.lists(picks, min_size=min_size, max_size=max_size))


@st.composite
def pair_lists(draw):
    premises = draw(drawn_from_pool(min_size=1))
    hypotheses = draw(drawn_from_pool(min_size=len(premises), max_size=len(premises)))
    return list(zip(premises, hypotheses))


def pair_dependent(pairs):
    return [((len(p) * 31 + len(h)) % 11) / 10 for p, h in pairs]


# ---------------------------------------------------------------------------
# equivalence with the per-pair and per-cell definitions


@settings(max_examples=200, deadline=None)
@given(pair_lists())
def test_lexical_scorer_equals_lexical_presence(pairs):
    assert lexical_scorer(pairs) == [lexical_presence(p, h) for p, h in pairs]


def easiness_by_cells(gold, approx):
    if not approx:
        return EasinessReport(0.0, 0.0, (), (), degenerate=True)
    scores = [[rouge1_f1(g, a) for a in approx] for g in gold]
    columns = [[row[m] for row in scores] for m in range(len(approx))]
    return EasinessReport(
        math.fsum(max(row) for row in scores) / len(gold),
        math.fsum(max(column) for column in columns) / len(approx),
        tuple(row.index(max(row)) for row in scores),
        tuple(column.index(max(column)) for column in columns),
    )


@settings(max_examples=200, deadline=None)
@given(
    drawn_from_pool(min_size=1, max_size=8, elements=unit_texts),
    drawn_from_pool(max_size=8, elements=unit_texts),
)
def test_easiness_equals_cell_by_cell_rouge1(gold, approx):
    assert easiness(gold, approx) == easiness_by_cells(gold, approx)


@settings(max_examples=200, deadline=None)
@given(
    drawn_from_pool(min_size=1, max_size=6, elements=unit_texts),
    drawn_from_pool(max_size=8),
    st.sampled_from([lexical_scorer, pair_dependent]),
)
def test_score_summaries_equals_score_summary(units, summaries, scorer):
    assert score_summaries(units, summaries, scorer) == [
        score_summary(units, summary, scorer) for summary in summaries
    ]


# Texts for the two ways an overlap is counted: by distinct shared tokens
# when either side repeats no token, by clipped counts when both repeat one.
REPEAT_FREE = "the cat sat"
REPEATS = "the cat the cat"
ALSO_REPEATS = "cat cat sat sat the"


@pytest.mark.parametrize(
    "premise, hypothesis, expected",
    [
        (REPEAT_FREE, "cat sat on", 2 / 3),  # neither repeats
        (REPEATS, REPEAT_FREE, 2 / 3),  # the premise repeats
        (REPEAT_FREE, REPEATS, 2 / 4),  # the hypothesis repeats
        (ALSO_REPEATS, REPEATS, 3 / 4),  # both repeat: "cat" twice, "the" once
        (REPEATS, ALSO_REPEATS, 3 / 5),
        ("", REPEATS, 0.0),
        (REPEATS, "...", 0.0),
    ],
)
def test_lexical_scorer_with_and_without_repeated_tokens(premise, hypothesis, expected):
    assert lexical_presence(premise, hypothesis) == expected
    assert lexical_scorer([(premise, hypothesis)]) == [expected]


@pytest.mark.parametrize(
    "gold, approx",
    [
        ([REPEAT_FREE, "a dog"], ["cat sat on", "the dog"]),  # nothing repeats
        ([REPEATS, "a dog"], ["cat sat on", "the dog"]),  # gold repeats
        ([REPEAT_FREE, "a dog"], [REPEATS, "dog dog a"]),  # approximations repeat
        ([REPEATS, "dog a dog"], [ALSO_REPEATS, "dog dog a"]),  # both repeat
    ],
)
def test_easiness_with_and_without_repeated_tokens(gold, approx):
    assert easiness(gold, approx) == easiness_by_cells(gold, approx)


def test_easiness_counts_repeated_tokens_clipped():
    report = easiness([REPEATS], [ALSO_REPEATS, REPEAT_FREE])
    # overlap 3 of 4 and 5 tokens, against 2 of 4 and 3 tokens
    assert report.easiness_r == 2 * (3 / 4) * (3 / 5) / (3 / 4 + 3 / 5)
    assert report.gold_best_match == (0,)


# ---------------------------------------------------------------------------
# work done once


def test_score_summaries_makes_one_call_with_unique_pairs():
    calls = []

    def recording(pairs):
        calls.append(list(pairs))
        return pair_dependent(pairs)

    units = ["one", "two", "one"]
    results = score_summaries(units, ["s1", "s2", "s1"], recording)
    assert calls == [[("s1", "one"), ("s1", "two"), ("s2", "one"), ("s2", "two")]]
    assert results[0] == results[2]
    assert len(results[0].probabilities) == 3


def test_score_summaries_rejects_wrong_scorer_arity():
    with pytest.raises(MalformedServiceReply):
        score_summaries(["a", "b"], ["s", "t"], lambda pairs: pairs[1:])


def test_lexical_scoring_tokenizes_each_text_once(monkeypatch):
    seen = []
    real = presence.tokenize
    monkeypatch.setattr(presence, "tokenize", lambda text: seen.append(text) or real(text))
    summaries = ["one two three", "three four", "one two three", "five"]
    units = ["one two", "three", "four five", "one two", "six"]
    score_summaries(units, summaries, lexical_scorer)
    assert len(seen) <= len(summaries) + len(units)
    assert sorted(seen) == sorted(set(summaries) | set(units))


def test_easiness_tokenizes_each_text_once(monkeypatch):
    seen = []
    real = stats.tokenize
    monkeypatch.setattr(stats, "tokenize", lambda text: seen.append(text) or real(text))
    gold = ["the cat", "a dog", "the cat"]
    approx = ["cat sat", "the dog", "a mat", "cat sat"]
    easiness(gold, approx)
    assert Counter(seen) == Counter({"the cat": 1, "a dog": 1, "cat sat": 1, "the dog": 1, "a mat": 1})


# ---------------------------------------------------------------------------
# remote scoring through the CLI


def remote_dataset(tmp_path):
    rows = [
        {
            "example_id": "e1",
            "references": [{"text": "Alpha beta. Gamma delta. Epsilon zeta.", "scus": ["alpha"]}],
            "systems": [
                {"system_id": "s1", "summary": "alpha beta gamma"},
                {"system_id": "s2", "summary": "delta epsilon"},
                {"system_id": "s3", "summary": "alpha beta gamma"},
            ],
        },
        {
            "example_id": "e2",
            "references": [{"text": "Eta theta. Iota kappa.", "scus": ["eta"]}],
            "systems": [
                {"system_id": "s1", "summary": "eta theta"},
                {"system_id": "s2", "summary": "kappa"},
            ],
        },
    ]
    path = tmp_path / "d.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    units = tmp_path / "units.jsonl"
    assert main(["extract", "--strategy", "sent", "--input", str(path), "--out", str(units)]) == 0
    return str(path), str(units)


def by_length(path, payload):
    return 200, {"probs": [len(p["hypothesis"]) % 10 / 10 for p in payload["pairs"]]}


def test_remote_score_batches_each_example(tmp_path, stub_service):
    dataset, units = remote_dataset(tmp_path)
    stub = stub_service(by_length)
    scores = tmp_path / "scores.jsonl"
    assert main([
        "score", "--input", dataset, "--units", units, "--out", str(scores),
        "--scorer", "remote", "--nli-endpoint", stub.url,
        "--batch-size", "2", "--concurrency", "2",
    ]) == 0
    # e1: 2 distinct summaries x 3 units; e2: 2 summaries x 2 units
    unique_pairs = {"e1": 6, "e2": 4}
    batches = [payload["pairs"] for _, payload, _ in stub.requests]
    assert len(batches) == sum(math.ceil(n / 2) for n in unique_pairs.values())
    assert all(1 <= len(batch) <= 2 for batch in batches)
    sent = Counter((p["premise"], p["hypothesis"]) for batch in batches for p in batch)
    assert set(sent.values()) == {1}
    assert sum(1 for premise, _ in sent if premise == "alpha beta gamma") == 3
    rows = {(r["example_id"], r["system_id"]): r["score"] for r in map(json.loads, scores.read_text().splitlines())}
    assert rows["e1", "s1"] == rows["e1", "s3"]
    assert len(rows) == 5


def test_remote_score_wrong_count_exits_3(tmp_path, stub_service, capsys):
    dataset, units = remote_dataset(tmp_path)
    stub = stub_service(lambda path, payload: (200, {"probs": [0.5] * (len(payload["pairs"]) - 1)}))
    code = main([
        "score", "--input", dataset, "--units", units, "--out", str(tmp_path / "s.jsonl"),
        "--scorer", "remote", "--nli-endpoint", stub.url,
    ])
    capsys.readouterr()
    assert code == 3
    assert not (tmp_path / "s.jsonl").exists()
