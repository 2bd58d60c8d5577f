import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autopyramid import extract, smu
from autopyramid.amr import parse_penman
from autopyramid.errors import EmptyReference, EmptyReply, GraphTooLarge
from autopyramid.extract import (
    ONE_SHOT_INPUT,
    ONE_SHOT_OUTPUT,
    SPLIT_INSTRUCTION,
    extract_ngram_units,
    extract_sentence_units,
    extract_sgu_units_many,
    extract_smu_units,
    extract_smu_units_many,
)
from oracles import ngram_units_oracle

WANT = parse_penman("(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))")


def test_ngram_units_reject_bad_sizes_and_fractions():
    for sizes in ((), (0, 3), (-1,)):
        with pytest.raises(ValueError, match="sizes"):
            extract_ngram_units("a b c d", sizes, 0.5, 42)
    for fraction in (0.0, 1.5, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="fraction"):
            extract_ngram_units("a b c d", (3,), fraction, 42)


def test_sentence_units():
    units = extract_sentence_units("A man ran. A dog barked.")
    assert units == ["A man ran.", "A dog barked."]
    assert extract_sentence_units("One sentence") == ["One sentence"]

    with pytest.raises(EmptyReference):
        extract_sentence_units("")


def test_ngram_units_sampling_rule():
    units = extract_ngram_units("a b c d", (3, 4), 0.05, 42)
    # pool is 3 n-grams, ceil(0.15) clamps to the minimum of one unit
    assert len(units) == 1
    assert units[0] in ("a b c", "b c d", "a b c d")


def test_ngram_units_deterministic_under_seed():
    text = "the quick brown fox jumps over the lazy dog. it runs far away today."
    units = extract_ngram_units(text, (3, 4, 5), 0.3, 42)
    assert extract_ngram_units(text, (3, 4, 5), 0.3, 42) == units
    assert extract_ngram_units(text, (3, 4, 5), 0.3, 43) != units


def test_ngram_units_full_pool_when_fraction_is_one():
    assert extract_ngram_units("a b c d e", (3,), 1.0, 42) == ["a b c", "b c d", "c d e"]


def test_ngram_units_sorted_by_sentence_size_start():
    units = extract_ngram_units("a b c d. e f g.", (3, 4), 1.0, 42)
    assert units == ["a b c", "b c d", "a b c d", "e f g"]


def test_ngram_units_count_formula():
    text = ". ".join("w%d x y z q" % i for i in range(6))
    pool_size = len(extract_ngram_units(text, (3, 4, 5), 1.0, 42))
    for fraction in (0.05, 0.2, 0.5, 1.0):
        units = extract_ngram_units(text, (3, 4, 5), fraction, 42)
        assert len(units) == max(1, math.ceil(fraction * pool_size))


def test_ngram_units_empty_pool():
    with pytest.raises(EmptyReference):
        extract_ngram_units("a b", (3, 4, 5), 0.05, 42)


NGRAM_WORDS = ["the", "The", "cat", "sat", "dog", "ran", "x1", "ß", "É", "Dr.", "U.S.", "a_b"]
NGRAM_BREAKS = [".", "!", "?", ",", "--", "...", "\n"]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(NGRAM_WORDS + NGRAM_BREAKS), max_size=40).map(" ".join),
    st.lists(st.integers(1, 6), min_size=1, max_size=5),
    st.floats(0.0, 1.0, exclude_min=True),
    st.integers(-(2**40), 2**64),
)
def test_ngram_units_equal_the_pool_of_strings(reference, sizes, fraction, seed):
    expected = ngram_units_oracle(reference, sizes, fraction, seed)
    if expected is None:
        with pytest.raises(EmptyReference):
            extract_ngram_units(reference, sizes, fraction, seed)
    else:
        assert extract_ngram_units(reference, sizes, fraction, seed) == expected


def test_ngram_units_equal_the_pool_of_strings_on_a_long_reference():
    # pools above the size where random.sample switches to its set-based draw
    rng = random.Random(7)
    reference = " ".join(
        " ".join(rng.choice(NGRAM_WORDS[:6]) for _ in range(rng.randint(5, 30))) + "."
        for _ in range(12)
    )
    for sizes, fraction, seed in [((3, 4, 5), 0.05, 42), ((1, 2, 2), 0.5, 3), ((4,), 1.0, 0)]:
        expected = ngram_units_oracle(reference, sizes, fraction, seed)
        assert extract_ngram_units(reference, sizes, fraction, seed) == expected


def test_smu_units_baseline_composition():
    units = extract_smu_units([WANT], "one-cr")
    assert units == ["boy want", "want boy go", "boy go"]

    for graphs in ([], [parse_penman("(b / boy)")]):
        with pytest.raises(EmptyReference, match="split into no candidate"):
            extract_smu_units(graphs, "one-cr")


def test_smu_units_deduplicate_exact_texts():
    graphs = [WANT, WANT]
    units = extract_smu_units(graphs, "one-cr")
    assert units == ["boy want", "want boy go", "boy go"]


class FakeGenerator:
    """A generator with the client's shape: the graphs' PENMAN texts in,
    one text each out."""

    def __init__(self, reply):
        self.reply = reply
        self.calls = []

    def generate(self, graphs):
        self.calls.append(list(graphs))
        return [self.reply(g) for g in graphs]


def test_smu_units_through_a_generator():
    generator = FakeGenerator(lambda g: f" {g.split()[0]} ")
    assert extract_smu_units([WANT, WANT], "all-deps", generator) == ["(w", "(g"]
    # one call for all candidates of the graphs given, none for no candidate
    assert len(generator.calls) == 1 and len(generator.calls[0]) == 4
    with pytest.raises(EmptyReference):
        extract_smu_units([parse_penman("(b / boy)")], "one-cr", generator)
    assert len(generator.calls) == 1


def test_smu_units_many_equal_the_per_reference_units_in_one_call():
    boy = parse_penman("(b / boy)")
    run = parse_penman("(r / run-01 :ARG0 (d / dog) :ARG1 (p / park))")
    graph_lists = [[WANT], [boy, run], [WANT, run, WANT], [run]]
    reply = lambda g: f" {g.split()[2]} "  # the concept of the candidate's root
    generator = FakeGenerator(reply)
    many = extract_smu_units_many(graph_lists, "one-cr", generator)
    # duplicates are dropped within a reference, not across references
    assert many == [
        extract_smu_units(graphs, "one-cr", FakeGenerator(reply)) for graphs in graph_lists
    ]
    assert many[0] == many[2][:2] and many[1] == many[3] == many[2][2:]
    assert len(generator.calls) == 1 and len(generator.calls[0]) == 3 + 2 + 8 + 2
    for mode in ("one-cr", "all-deps"):
        assert extract_smu_units_many(graph_lists, mode) == [
            extract_smu_units(graphs, mode) for graphs in graph_lists
        ]
    assert extract_smu_units_many([], "one-cr", generator) == []
    # a reference with no candidate fails at its position, before any call
    for empty in ([], [boy]):
        with pytest.raises(EmptyReference) as info:
            extract_smu_units_many([[WANT], empty, [run]], "one-cr", generator)
        assert info.value.reference == 1
    assert len(generator.calls) == 1


def test_smu_units_many_serialize_each_candidate_as_it_is_split(monkeypatch):
    events = []
    real_split, real_serialize = extract.split_graph, smu.serialize_penman

    def split(graph, mode):
        events.append("split")
        return real_split(graph, mode)

    def serialize(graph):
        events.append("serialize")
        return real_serialize(graph)

    monkeypatch.setattr(extract, "split_graph", split)
    monkeypatch.setattr(smu, "serialize_penman", serialize)
    extract_smu_units_many([[WANT], [WANT]], "one-cr", FakeGenerator(str))
    assert events == (["split"] + ["serialize"] * 3) * 2


def test_smu_units_many_give_the_position_of_a_graph_too_large(monkeypatch):
    monkeypatch.setattr(smu, "MAX_SPLIT_SIZE", 10)
    small = parse_penman("(b / bark-01 :ARG0 (d / dog))")
    with pytest.raises(GraphTooLarge) as info:
        extract_smu_units_many([[small], [small, WANT]], "one-cr", FakeGenerator(str))
    assert (info.value.reference, info.value.graph) == (1, 1)


class ScriptedChat:
    """A chat client's shape: one reply per conversation, in order."""

    def __init__(self, reply):
        self.reply = reply
        self.conversations = []

    def complete(self, conversations):
        self.conversations.extend(conversations)
        return [self.reply(c) if callable(self.reply) else self.reply for c in conversations]


def test_sgu_units_split_reply():
    chat = ScriptedChat("A # B # C")
    assert extract_sgu_units_many(["Some reference."], chat) == [["A", "B", "C"]]


def test_sgu_prompt_framing():
    chat = ScriptedChat("A")
    extract_sgu_units_many(["The reference text."], chat)
    (messages,) = chat.conversations
    assert [m["role"] for m in messages] == ["system", "user", "assistant", "user"]
    assert messages[0]["content"] == SPLIT_INSTRUCTION
    assert messages[1]["content"] == ONE_SHOT_INPUT
    assert messages[2]["content"] == ONE_SHOT_OUTPUT
    assert messages[3]["content"] == "The reference text."


def test_sgu_units_sanitation():
    chat = ScriptedChat("  A  ##  B # . ")
    assert extract_sgu_units_many(["ref"], chat) == [["A", "B"]]


def test_sgu_units_empty_reply():
    with pytest.raises(EmptyReply) as info:
        # the second reference's reply has no fragment
        extract_sgu_units_many(["A", " # "], ScriptedChat(lambda c: c[-1]["content"]))
    assert info.value.reference == 1
    with pytest.raises(EmptyReply):
        extract_sgu_units_many(["ref"], ScriptedChat("  #  # "))


def test_sgu_units_many_preserves_order():
    chat = ScriptedChat(lambda messages: f"unit of {messages[-1]['content']}")
    units = extract_sgu_units_many([f"ref {i}" for i in range(7)], chat)
    assert units == [[f"unit of ref {i}"] for i in range(7)]
    assert extract_sgu_units_many([], chat) == []


def test_offline_units_never_longer_than_reference():
    reference = "The quick brown fox jumps over the lazy dog. It then sleeps."
    for unit in extract_sentence_units(reference):
        assert len(unit) <= len(reference)
    for unit in extract_ngram_units(reference, (3, 4, 5), 1.0, 42):
        assert len(unit) <= len(reference)
