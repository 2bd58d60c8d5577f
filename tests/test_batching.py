"""Presence scoring and easiness do each piece of work once, and remote
work fills its batches.

The batched forms (``lexical_scorer``, ``score_summaries``, ``easiness``)
must equal their per-pair or per-cell definitions exactly. The CLI scores
each example in one lexical scorer call, and sends the presence pairs and
the graph-to-text candidates of a whole command in one batched call each.
"""

import json
import math
import zlib
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autopyramid import cli, presence, stats, text
from autopyramid.amr import parse_penman
from autopyramid.cli import main
from autopyramid.data import load_dataset
from autopyramid.errors import MalformedServiceReply
from autopyramid.extract import extract_smu_units
from autopyramid.presence import lexical_scorer, score_summaries, score_summary
from autopyramid.services import GraphToTextClient, PresenceClient
from autopyramid.smu import split_graph
from autopyramid.stats import EasinessReport, easiness
from autopyramid.text import rouge1_f1

from oracles import lexical_presence
from stubs import echo_generator

TOY = str(Path(__file__).parent / "data" / "toy.jsonl")


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


def pair_specific(pairs):
    """A probability that differs from pair to pair."""
    return [zlib.crc32(f"{p}\0{h}".encode("utf-8", "surrogatepass")) / 2**32 for p, h in pairs]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(drawn_from_pool(min_size=1, max_size=8), drawn_from_pool(max_size=8))
def test_score_summaries_sends_the_distinct_pairs_in_first_seen_order(units, summaries):
    calls = []

    def recording(pairs):
        calls.append(list(pairs))
        return pair_specific(pairs)

    results = score_summaries(units, summaries, recording)
    # the pairs and scores of scoring by a table of the distinct pairs
    pairs = list(dict.fromkeys((s, u) for s in summaries for u in units))
    by_pair = dict(zip(pairs, pair_specific(pairs)))
    assert calls == [pairs]
    assert [r.probabilities for r in results] == [
        tuple(by_pair[s, u] for u in units) for s in summaries
    ]


@st.composite
def scored_examples(draw):
    """``(units, summaries)`` examples whose texts come from one small
    pool, so that units and summaries repeat within and across examples."""
    pool = draw(st.lists(unit_texts, min_size=1, max_size=5))
    picks = st.integers(0, len(pool) - 1).map(pool.__getitem__)
    example = st.tuples(st.lists(picks, min_size=1, max_size=5), st.lists(picks, max_size=5))
    return draw(st.lists(example, max_size=4))


def test_prescored_sends_the_distinct_pairs_of_every_example_once():
    calls = []

    def recording(pairs):
        calls.append(list(pairs))
        return pair_specific(pairs)

    examples = [(["u1", "u2", "u1"], ["s1", "s2", "s1"]), (["u2", "u3"], ["s2", "s3"])]
    scorer = presence.prescored(iter(examples), recording)
    assert calls == [[
        ("s1", "u1"), ("s1", "u2"), ("s2", "u1"), ("s2", "u2"),
        ("s2", "u3"), ("s3", "u2"), ("s3", "u3"),
    ]]
    assert scorer([("s3", "u3"), ("s1", "u1")]) == pair_specific([("s3", "u3"), ("s1", "u1")])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scored_examples())
def test_prescored_answers_every_pair_that_score_summaries_asks_for(examples):
    calls = []

    def recording(pairs):
        calls.append(list(pairs))
        return pair_specific(pairs)

    scorer = presence.prescored(iter(examples), recording)
    # the order score sends them in: example by example, each summary
    # against each of its units
    pairs = dict.fromkeys((s, u) for units, summaries in examples for s in summaries for u in units)
    assert calls == [list(pairs)]
    for units, summaries in examples:
        assert score_summaries(units, summaries, scorer) == score_summaries(
            units, summaries, pair_specific
        )


@pytest.mark.parametrize("bad", [math.nan, -0.5, 1.5, math.inf])
def test_score_summaries_refuses_probabilities_out_of_range(bad):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        score_summaries(["a", "b"], ["s"], lambda pairs: [0.5, bad])


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


def test_lexical_scorer_counts_tokens_only_where_both_sides_repeat(monkeypatch):
    built = []
    real = text.Counter
    monkeypatch.setattr(
        text, "Counter", lambda tokens: built.append(" ".join(tokens)) or real(tokens)
    )
    pairs = [
        (REPEATS, REPEAT_FREE),  # one side repeats: no counts
        (REPEAT_FREE, ALSO_REPEATS),
        (REPEATS, ALSO_REPEATS),  # both repeat: counts for each
        (ALSO_REPEATS, REPEATS),  # built once per text
        (REPEATS, "dog dog"),
    ]
    assert lexical_scorer(pairs) == [lexical_presence(p, h) for p, h in pairs]
    assert Counter(built) == Counter({REPEATS: 1, ALSO_REPEATS: 1, "dog dog": 1})


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


def test_remote_score_batches_the_whole_command(tmp_path, stub_service):
    dataset, units = remote_dataset(tmp_path)
    stub = stub_service(by_length)
    scores = tmp_path / "scores.jsonl"
    assert main([
        "score", "--input", dataset, "--units", units, "--out", str(scores),
        "--scorer", "remote", "--nli-endpoint", stub.url,
        "--batch-size", "5", "--concurrency", "2",
    ]) == 0
    # e1: 2 distinct summaries x 3 units; e2: 2 summaries x 2 units; one
    # call for both fills 2 requests, where a call per example needs 3
    batches = [payload["pairs"] for _, payload, _ in stub.requests]
    assert [len(batch) for batch in batches] == [5, 5]
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


# ---------------------------------------------------------------------------
# one batched call per command, on the toy dataset


def by_pair(path, payload):
    return 200, {
        "probs": [
            (len(p["premise"]) * 7 + len(p["hypothesis"])) % 11 / 10 for p in payload["pairs"]
        ]
    }


def failing_after(count, handler):
    """A stub handler that answers 503 from its (*count* + 1)-th request on."""
    served = []

    def answer(path, payload):
        served.append(path)
        if len(served) > count:
            return 503, {}
        return handler(path, payload)

    return answer


def toy_units(tmp_path):
    units = tmp_path / "units.jsonl"
    assert main(["extract", "--strategy", "sent", "--input", TOY, "--out", str(units)]) == 0
    grouped = {}
    for row in map(json.loads, units.read_text(encoding="utf-8").splitlines()):
        grouped.setdefault(row["example_id"], []).append(row["text"])
    return str(units), grouped


def score_args(units, out, endpoint, batch_size):
    return [
        "score", "--input", TOY, "--units", units, "--out", str(out),
        "--scorer", "remote", "--nli-endpoint", endpoint, "--batch-size", str(batch_size),
    ]


@pytest.mark.parametrize("batch_size", [2, 3])
def test_remote_score_sends_the_command_in_full_batches(tmp_path, stub_service, batch_size):
    units, grouped = toy_units(tmp_path)
    stub = stub_service(by_pair)
    scores = tmp_path / "scores.jsonl"
    assert main(score_args(units, scores, stub.url, batch_size)) == 0
    entries = sorted(load_dataset(TOY), key=lambda e: e.example_id)
    distinct = {
        (system.summary, unit)
        for entry in entries
        for system in entry.systems
        for unit in grouped[entry.example_id]
    }
    assert len(stub.requests) == math.ceil(len(distinct) / batch_size)

    # the same bytes as scoring each example alone against the same stub
    client = PresenceClient(stub.url, batch_size=batch_size)
    lines = []
    for entry in entries:
        units_of = grouped[entry.example_id]
        systems = sorted(entry.systems, key=lambda s: s.system_id)
        results = score_summaries(units_of, [s.summary for s in systems], client.probabilities)
        for system, result in zip(systems, results):
            row = {
                "example_id": entry.example_id,
                "system_id": system.system_id,
                "score": result.pyramid_score,
                "units": len(units_of),
            }
            lines.append(json.dumps(row, ensure_ascii=False, separators=(",", ":")) + "\n")
    assert scores.read_bytes() == "".join(lines).encode("utf-8")


def test_remote_score_failing_partway_exits_3_and_writes_nothing(
    tmp_path, stub_service, capsys
):
    units, _ = toy_units(tmp_path)
    stub = stub_service(failing_after(2, by_pair))
    scores = tmp_path / "scores.jsonl"
    assert main(score_args(units, scores, stub.url, 2)) == 3
    assert "503" in capsys.readouterr().err
    assert len(stub.requests) > 2
    assert not scores.exists()


def test_lexical_scorer_is_called_once_per_example(tmp_path, monkeypatch):
    # one example's token bags at a time: the lexical scorer is not batched
    # across the command
    units, grouped = toy_units(tmp_path)
    calls = []

    def recording(pairs):
        calls.append(pairs)
        return lexical_scorer(pairs)

    monkeypatch.setattr(cli, "lexical_scorer", recording)
    scores = tmp_path / "scores.jsonl"
    assert main(["score", "--input", TOY, "--units", units, "--out", str(scores)]) == 0
    entries = sorted(load_dataset(TOY), key=lambda e: e.example_id)
    assert len(calls) == len(entries)
    for pairs, entry in zip(calls, entries):
        assert {unit for _, unit in pairs} == set(grouped[entry.example_id])


# one graph per sentence of the toy references, two per reference
TOY_GRAPHS = [
    "(s / sit-01 :ARG1 (c / cat) :ARG2 (m / mat))",
    "(b / bark-01 :ARG0 (d / dog))",
    "(f / fall-01 :ARG1 (r / rain) :duration (d / day))",
    "(c / cancel-01 :ARG1 (g / game))",
    "(p / pass-01 :ARG0 (s / senate) :ARG1 (b / bill))",
    "(v / vote-01 :ARG1-of (c / close-10))",
]


def smu_args(tmp_path, endpoint):
    graphs = tmp_path / "toy.penman"
    graphs.write_text("\n\n".join(TOY_GRAPHS) + "\n", encoding="utf-8")
    return [
        "extract", "--strategy", "smu", "--input", TOY, "--graphs", str(graphs),
        "--gen-endpoint", endpoint, "--batch-size", "2",
    ]


def test_remote_smu_sends_the_command_in_full_batches(tmp_path, stub_service):
    stub = stub_service(echo_generator)
    out = tmp_path / "units.jsonl"
    assert main([*smu_args(tmp_path, stub.url), "--out", str(out)]) == 0
    parsed = [parse_penman(text) for text in TOY_GRAPHS]
    candidates = sum(len(split_graph(graph, "one-cr")) for graph in parsed)
    batched = len(stub.requests)
    assert batched == math.ceil(candidates / 2) == 4

    # the unit file equals the units of each reference realized alone
    client = GraphToTextClient(stub.url, batch_size=2)
    expected = [
        {"example_id": example_id, "reference_index": 0, "strategy": "smu", "text": text}
        for example_id, graphs in zip(["e1", "e2", "e3"], [parsed[:2], parsed[2:4], parsed[4:]])
        for text in extract_smu_units(graphs, "one-cr", client)
    ]
    assert [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()] == expected
    # which took more requests: 3 + 2 + 3 candidates, in batches of 2
    assert len(stub.requests) - batched == 5


def test_crlf_graphs_give_the_units_of_lf_graphs(tmp_path, stub_service):
    stub = stub_service(echo_generator)
    args = smu_args(tmp_path, stub.url)
    graphs = Path(args[args.index("--graphs") + 1])
    lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
    assert main([*args, "--out", str(lf)]) == 0
    graphs.write_bytes(graphs.read_bytes().replace(b"\n", b"\r\n"))
    assert main([*args, "--out", str(crlf)]) == 0
    assert crlf.read_bytes() == lf.read_bytes()


def test_graphs_whose_lines_end_in_cr_alone_are_one_line(tmp_path, stub_service, capsys):
    # a line ends only at "\n": the second graph follows the first on line 1
    stub = stub_service(echo_generator)
    args = smu_args(tmp_path, stub.url)
    graphs = Path(args[args.index("--graphs") + 1])
    graphs.write_bytes(graphs.read_bytes().replace(b"\n", b"\r"))
    out = tmp_path / "units.jsonl"
    assert main([*args, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"autopyramid: {graphs}, line 1, column {len(TOY_GRAPHS[0]) + 3}: "
        "unexpected '(' after the graph (unbalanced parentheses?)\n"
    )
    assert not out.exists()


def test_remote_smu_failing_partway_exits_3_and_writes_nothing(
    tmp_path, stub_service, capsys
):
    stub = stub_service(failing_after(1, echo_generator))
    out = tmp_path / "units.jsonl"
    assert main([*smu_args(tmp_path, stub.url), "--out", str(out)]) == 3
    assert "503" in capsys.readouterr().err
    assert not out.exists()
