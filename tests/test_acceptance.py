"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Everything runs offline against deterministic fixtures and
local stub services; the two checks that need an external corpus and a
hosted scoring model are optional and skip unless configured through
environment variables (AUTOPYRAMID_PYRXSUM, AUTOPYRAMID_NLI_ENDPOINT).
"""

import json
import os
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from autopyramid.amr import load_penman_file, parse_penman, serialize_penman
from autopyramid.cli import main
from autopyramid.data import load_dataset
from autopyramid.errors import MalformedServiceReply, ServiceUnavailable
from autopyramid.extract import extract_sgu_units_many
from autopyramid.presence import remote_scorer, score_summary
from autopyramid.services import (
    DEFAULT_ATTEMPTS,
    DEFAULT_RETRY_SCHEDULE,
    ChatClient,
    GraphToTextClient,
    PresenceClient,
    post_json,
)
from autopyramid.smu import realize_baseline, split_graph
from autopyramid.stats import (
    average_ranks,
    cohen_kappa,
    corpus_stats,
    easiness,
    pearson,
    spearman,
    summary_level,
    system_level,
)
from autopyramid.text import rouge1_f1

from graphgen import random_graph
from oracles import (
    isomorphic,
    ranks_oracle,
    rouge1_f1_oracle,
    summary_level_oracle,
    system_level_oracle,
    wilcoxon_oracle,
)
from stubs import constant_presence, scripted_chat
from test_signed_rank import wilcoxon_signed_rank

DATA = Path(__file__).parent / "data"
TOY = str(DATA / "toy.jsonl")
GOLDEN = DATA / "golden"


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def test_rouge_oracle_on_200_random_pairs():
    with criterion("rouge-oracle"):
        rng = random.Random(2024)
        vocab = ["the", "cat", "sat", "mat", "dog", "ran", "a", "on", "blue", "kiwi"]
        started = time.monotonic()
        for _ in range(200):
            a = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 12)))
            b = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 12)))
            assert rouge1_f1(a, b) == rouge1_f1_oracle(a, b)
        assert time.monotonic() - started < 1.0


def test_penman_roundtrip_on_500_random_graphs():
    with criterion("penman-roundtrip"):
        rng = random.Random(4242)
        started = time.monotonic()
        for _ in range(500):
            graph = random_graph(rng, max_nodes=12, max_reentrancies=2)
            text = serialize_penman(graph)
            assert isomorphic(parse_penman(text), graph), text
        assert time.monotonic() - started < 5.0


def test_splitting_hand_trace_and_golden_snapshot():
    with criterion("splitting-hand-traces"):
        want = parse_penman("(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))")
        assert [serialize_penman(c) for c in split_graph(want)] == [
            "(w / want-01 :ARG0 (b / boy))",
            "(w / want-01 :ARG1 (g / go-02 :ARG0 (b / boy)))",
            "(g / go-02 :ARG0 (b / boy))",
        ]

        entries = list(load_penman_file(DATA / "golden_graphs.penman"))
        assert len(entries) == 20
        frozen = json.loads((DATA / "golden_candidates.json").read_text("utf-8"))
        for mode in ("one-cr", "all-deps"):
            current = [
                {
                    "sentence": entry.sentence,
                    "candidates": [
                        {
                            "penman": serialize_penman(c),
                            "text": realize_baseline(c),
                        }
                        for c in split_graph(entry.graph, mode)
                    ],
                }
                for entry in entries
            ]
            assert current == frozen[mode]


def test_easiness_identities():
    with criterion("easiness-identities"):
        rng = random.Random(7)
        vocab = ["fact", "one", "two", "cat", "dog", "ran", "sat", "blue"]
        for _ in range(50):
            units = [
                " ".join(rng.sample(vocab, rng.randint(1, 4)))
                for _ in range(rng.randint(1, 6))
            ]
            report = easiness(units, list(units))
            assert report.easiness_r == 1.0
            assert report.easiness_p == 1.0

        derived = easiness(["the cat sat"], ["the cat", "a dog"])
        assert abs(derived.easiness_r - 0.8) <= 1e-12
        assert abs(derived.easiness_p - 0.4) <= 1e-12


def test_correlation_oracles_on_100_random_matrices():
    with criterion("correlation-oracles"):
        rng = random.Random(99)
        for _ in range(100):
            metric = [[rng.random() for _ in range(4)] for _ in range(5)]
            human = [[rng.random() for _ in range(4)] for _ in range(5)]
            for kind in ("pearson", "spearman"):
                assert abs(
                    system_level(metric, human, kind).value
                    - system_level_oracle(metric, human, kind)
                ) <= 1e-12
                assert abs(
                    summary_level(metric, human, kind).value
                    - summary_level_oracle(metric, human, kind)
                ) <= 1e-12


def test_spearman_is_pearson_on_average_ranks():
    with criterion("spearman-rank-equivalence"):
        rng = random.Random(123)
        for _ in range(100):
            n = rng.randint(2, 12)
            x = [rng.choice([0.0, 0.25, 0.5, 0.5, 1.0, 2.0]) for _ in range(n)]
            y = [rng.choice([0.0, 0.1, 0.1, 0.7, 0.9]) for _ in range(n)]
            oracle_x, oracle_y = ranks_oracle(x), ranks_oracle(y)
            assert average_ranks(x) == oracle_x
            assert average_ranks(y) == oracle_y
            if len(set(x)) == 1 or len(set(y)) == 1:
                continue
            assert spearman(x, y) == pearson(oracle_x, oracle_y)


def test_wilcoxon_exact_against_enumeration():
    with criterion("wilcoxon-exact"):
        statistic, p = wilcoxon_signed_rank([2, 3, 4, 5, 6], [1, 1, 1, 1, 1])
        assert statistic == 0
        assert p == 0.0625

        rng = random.Random(31)
        for n in range(1, 11):
            for _ in range(50):
                diffs = [
                    rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]) * rng.choice([1, 0.5])
                    for _ in range(n)
                ]
                got_w, got_p = wilcoxon_signed_rank(diffs, [0.0] * n)
                want_w, want_p = wilcoxon_oracle(diffs)
                assert got_w == want_w
                assert got_p == want_p


def test_cohen_kappa_cases():
    with criterion("cohen-kappa"):
        assert abs(cohen_kappa([1, 2, 1, 2], [1, 1, 2, 2]) - 0.0) <= 1e-12
        assert cohen_kappa(["a", "b", "c"], ["a", "b", "c"]) == 1.0


def test_end_to_end_offline_pipeline(tmp_path):
    with criterion("end-to-end-offline"):
        started = time.monotonic()
        for attempt in ("first", "second"):
            workdir = tmp_path / attempt
            workdir.mkdir()
            units = workdir / "units.jsonl"
            scores = workdir / "scores.jsonl"
            table = workdir / "metaeval.jsonl"
            assert main(["extract", "--strategy", "sent", "--input", TOY, "--out", str(units)]) == 0
            assert main([
                "score", "--input", TOY, "--units", str(units),
                "--scorer", "lexical", "--out", str(scores),
            ]) == 0
            assert main([
                "metaeval", "--input", TOY, "--scores", str(scores),
                "--level", "both", "--corr", "both", "--out", str(table),
            ]) == 0
            assert units.read_bytes() == (GOLDEN / "units.jsonl").read_bytes()
            assert scores.read_bytes() == (GOLDEN / "scores.jsonl").read_bytes()
            assert table.read_bytes() == (GOLDEN / "metaeval.jsonl").read_bytes()
        assert time.monotonic() - started < 2.0


def test_service_contracts(tmp_path, stub_service, monkeypatch, slept):
    with criterion("service-contracts"):
        # retry contract: 3 attempts paced by the 1s/2s/4s schedule
        assert DEFAULT_ATTEMPTS == 3
        assert DEFAULT_RETRY_SCHEDULE == (1.0, 2.0, 4.0)
        monkeypatch.delenv("AUTOPYRAMID_RETRY_SCHEDULE")
        flaky = stub_service(lambda path, body: (200, {}), failures=99)
        with pytest.raises(ServiceUnavailable):
            post_json(flaky.url, {})
        assert len(flaky.requests) == 3
        assert slept == [1.0, 2.0]

        # graph-to-text: batching and ordering
        generator = stub_service(
            lambda path, body: (200, {"texts": [f"T:{g}" for g in body["graphs"]]})
        )
        client = GraphToTextClient(generator.url, batch_size=2, concurrency=3)
        graphs = [f"(x{i} / thing)" for i in range(5)]
        assert client.generate(graphs) == [f"T:{g}" for g in graphs]
        assert sorted(len(b["graphs"]) for _, b, _ in generator.requests) == [1, 2, 2]

        # presence: batching, ordering, range validation
        presence = stub_service(
            lambda path, body: (200, {"probs": [float(p["hypothesis"]) for p in body["pairs"]]})
        )
        pairs = [("s", f"0.{i:02d}") for i in range(1, 8)]
        probs = remote_scorer(presence.url, batch_size=3)(pairs)
        assert probs == [float(h) for _, h in pairs]
        out_of_range = stub_service(constant_presence(1.3))
        with pytest.raises(MalformedServiceReply):
            PresenceClient(out_of_range.url).probabilities([("p", "h")])

        # chat: one-shot framing reaches the wire
        chat = stub_service(scripted_chat("U1 # U2"))
        units = extract_sgu_units_many(["Some reference."], ChatClient(chat.url, "splitter"))
        assert units == [["U1", "U2"]]
        roles = [m["role"] for m in chat.requests[0][1]["messages"]]
        assert roles == ["system", "user", "assistant", "user"]
        assert chat.requests[0][1]["temperature"] == 0.0

        # forced failures surface as exit code 3
        broken = stub_service(lambda path, body: (200, {}), failures=999)
        units_file = tmp_path / "units.jsonl"
        assert main(["extract", "--strategy", "sent", "--input", TOY, "--out", str(units_file)]) == 0
        code = main([
            "score", "--input", TOY, "--units", str(units_file),
            "--out", str(tmp_path / "scores.jsonl"),
            "--scorer", "remote", "--nli-endpoint", broken.url,
        ])
        assert code == 3
        code = main([
            "extract", "--strategy", "sgu", "--input", TOY,
            "--out", str(tmp_path / "sgu.jsonl"),
            "--llm-endpoint", broken.url, "--llm-model", "splitter",
        ])
        assert code == 3


def test_sgu_reply_parses_to_published_units():
    with criterion("sgu-reply-parsing"):
        reply = (
            "Netherlands midfielder Wesley Sneijder # Sneijder joined French "
            "Ligue 1 side Nice # Joined on a free transfer"
        )

        class Fixed:
            def complete(self, conversations):
                return [reply for _ in conversations]

        (units,) = extract_sgu_units_many(
            [
                "Netherlands midfielder Wesley Sneijder has joined French Ligue 1 "
                "side Nice on a free transfer."
            ],
            Fixed(),
        )
        assert units == [
            "Netherlands midfielder Wesley Sneijder",
            "Sneijder joined French Ligue 1 side Nice",
            "Joined on a free transfer",
        ]


# ---------------------------------------------------------------------------
# optional external-resource checks (not gating)

PYRXSUM = os.environ.get("AUTOPYRAMID_PYRXSUM")
NLI_ENDPOINT = os.environ.get("AUTOPYRAMID_NLI_ENDPOINT")


@pytest.mark.skipif(not PYRXSUM, reason="set AUTOPYRAMID_PYRXSUM to a dataset file")
def test_external_corpus_statistics():
    with criterion("external-corpus-stats"):
        stats = corpus_stats(load_dataset(PYRXSUM))
        assert abs(stats.avg_words_per_sentence - 10.18) <= 0.005
        assert abs(stats.avg_scus - 4.78) <= 0.005


@pytest.mark.skipif(
    not (PYRXSUM and NLI_ENDPOINT),
    reason="set AUTOPYRAMID_PYRXSUM and AUTOPYRAMID_NLI_ENDPOINT",
)
def test_external_summary_level_correlation():
    with criterion("external-summary-level"):
        entries = list(load_dataset(PYRXSUM))
        scorer = remote_scorer(NLI_ENDPOINT)
        system_ids = sorted(s.system_id for s in entries[0].systems)
        metric_rows = []
        human_rows = []
        for entry in entries:
            units = entry.pooled_scus()
            by_id = {s.system_id: s for s in entry.systems}
            metric_rows.append(
                [
                    score_summary(units, by_id[sid].summary, scorer).pyramid_score
                    for sid in system_ids
                ]
            )
            human_rows.append([by_id[sid].human_score for sid in system_ids])
        report = summary_level(metric_rows, human_rows, "pearson")
        assert abs(report.value - 0.70) <= 0.03
