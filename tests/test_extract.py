import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autopyramid.amr import parse_penman
from autopyramid.errors import EmptyReference, EmptyReply, ServiceUnavailable
from autopyramid.extract import (
    ONE_SHOT_INPUT,
    ONE_SHOT_OUTPUT,
    SPLIT_INSTRUCTION,
    ExtractionConfig,
    extract_ngram_units,
    extract_sentence_units,
    extract_sgu_units,
    extract_sgu_units_many,
    extract_smu_units,
)
from oracles import ngram_units_oracle

WANT = parse_penman("(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))")


def test_extraction_config_validation():
    with pytest.raises(ValueError):
        ExtractionConfig(ngram_fraction=0.0)
    with pytest.raises(ValueError):
        ExtractionConfig(ngram_fraction=1.5)
    with pytest.raises(ValueError):
        ExtractionConfig(ngram_sizes=())
    with pytest.raises(ValueError):
        ExtractionConfig(ngram_sizes=(0, 3))
    with pytest.raises(ValueError):
        ExtractionConfig(temperature=-1)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ExtractionConfig(temperature=bad)
    with pytest.raises(ValueError):
        ExtractionConfig(split_mode="sideways")


def test_sentence_units():
    units = extract_sentence_units("A man ran. A dog barked.")
    assert units == ["A man ran.", "A dog barked."]
    assert extract_sentence_units("One sentence") == ["One sentence"]

    with pytest.raises(EmptyReference):
        extract_sentence_units("")


def test_ngram_units_sampling_rule():
    config = ExtractionConfig(ngram_sizes=(3, 4), ngram_fraction=0.05)
    units = extract_ngram_units("a b c d", config)
    # pool is 3 n-grams, ceil(0.15) clamps to the minimum of one unit
    assert len(units) == 1
    assert units[0] in ("a b c", "b c d", "a b c d")


def test_ngram_units_deterministic_under_seed():
    config = ExtractionConfig(ngram_fraction=0.3, seed=42)
    text = "the quick brown fox jumps over the lazy dog. it runs far away today."
    assert extract_ngram_units(text, config) == extract_ngram_units(text, config)
    other = extract_ngram_units(text, ExtractionConfig(ngram_fraction=0.3, seed=43))
    assert other != extract_ngram_units(text, config)


def test_ngram_units_full_pool_when_fraction_is_one():
    config = ExtractionConfig(ngram_sizes=(3,), ngram_fraction=1.0)
    assert extract_ngram_units("a b c d e", config) == ["a b c", "b c d", "c d e"]


def test_ngram_units_sorted_by_sentence_size_start():
    config = ExtractionConfig(ngram_sizes=(3, 4), ngram_fraction=1.0)
    units = extract_ngram_units("a b c d. e f g.", config)
    assert units == ["a b c", "b c d", "a b c d", "e f g"]


def test_ngram_units_count_formula():
    text = ". ".join("w%d x y z q" % i for i in range(6))
    for fraction in (0.05, 0.2, 0.5, 1.0):
        config = ExtractionConfig(ngram_fraction=fraction)
        pool_size = len(extract_ngram_units(text, ExtractionConfig(ngram_fraction=1.0)))
        units = extract_ngram_units(text, config)
        assert len(units) == max(1, math.ceil(fraction * pool_size))


def test_ngram_units_empty_pool():
    with pytest.raises(EmptyReference):
        extract_ngram_units("a b", ExtractionConfig(ngram_sizes=(3, 4, 5)))


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
    config = ExtractionConfig(ngram_sizes=tuple(sizes), ngram_fraction=fraction, seed=seed)
    expected = ngram_units_oracle(reference, config)
    if expected is None:
        with pytest.raises(EmptyReference):
            extract_ngram_units(reference, config)
    else:
        assert extract_ngram_units(reference, config) == expected


def test_ngram_units_equal_the_pool_of_strings_on_a_long_reference():
    # pools above the size where random.sample switches to its set-based draw
    rng = random.Random(7)
    reference = " ".join(
        " ".join(rng.choice(NGRAM_WORDS[:6]) for _ in range(rng.randint(5, 30))) + "."
        for _ in range(12)
    )
    for sizes, fraction, seed in [((3, 4, 5), 0.05, 42), ((1, 2, 2), 0.5, 3), ((4,), 1.0, 0)]:
        config = ExtractionConfig(ngram_sizes=sizes, ngram_fraction=fraction, seed=seed)
        assert extract_ngram_units(reference, config) == ngram_units_oracle(reference, config)


def test_smu_units_baseline_composition():
    units = extract_smu_units([WANT], ExtractionConfig())
    assert units == ["boy want", "want boy go", "boy go"]

    assert extract_smu_units([], ExtractionConfig()) == []
    assert extract_smu_units([parse_penman("(b / boy)")], ExtractionConfig()) == []


def test_smu_units_deduplicate_exact_texts():
    graphs = [WANT, WANT]
    units = extract_smu_units(graphs, ExtractionConfig())
    assert units == ["boy want", "want boy go", "boy go"]


class ScriptedChat:
    def __init__(self, reply):
        self.reply = reply
        self.messages = []

    def complete(self, messages):
        self.messages.append(messages)
        return self.reply


def test_sgu_units_split_reply():
    chat = ScriptedChat("A # B # C")
    units = extract_sgu_units("Some reference.", ExtractionConfig(), client=chat)
    assert units == ["A", "B", "C"]


def test_sgu_prompt_framing():
    chat = ScriptedChat("A")
    extract_sgu_units("The reference text.", ExtractionConfig(), client=chat)
    (messages,) = chat.messages
    assert [m["role"] for m in messages] == ["system", "user", "assistant", "user"]
    assert messages[0]["content"] == SPLIT_INSTRUCTION
    assert messages[1]["content"] == ONE_SHOT_INPUT
    assert messages[2]["content"] == ONE_SHOT_OUTPUT
    assert messages[3]["content"] == "The reference text."


def test_sgu_units_sanitation():
    chat = ScriptedChat("  A  ##  B # . ")
    assert extract_sgu_units("ref", ExtractionConfig(), client=chat) == ["A", "B"]


def test_sgu_units_empty_reply():
    with pytest.raises(EmptyReply):
        extract_sgu_units("ref", ExtractionConfig(), client=ScriptedChat("  #  # "))


def test_sgu_units_requires_endpoint():
    with pytest.raises(ServiceUnavailable):
        extract_sgu_units("ref", ExtractionConfig())


def test_sgu_units_many_preserves_order():
    class EchoChat:
        def complete(self, messages):
            return f"unit of {messages[-1]['content']}"

    config = ExtractionConfig(concurrency=3)
    batches = extract_sgu_units_many([f"ref {i}" for i in range(7)], config, EchoChat())
    assert batches == [[f"unit of ref {i}"] for i in range(7)]


def test_offline_units_never_longer_than_reference():
    reference = "The quick brown fox jumps over the lazy dog. It then sleeps."
    for unit in extract_sentence_units(reference):
        assert len(unit) <= len(reference)
    config = ExtractionConfig(ngram_fraction=1.0)
    for unit in extract_ngram_units(reference, config):
        assert len(unit) <= len(reference)
