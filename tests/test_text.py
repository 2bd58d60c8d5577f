import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autopyramid.text import (
    DEFAULT_ABBREVIATIONS,
    TokenBag,
    bag_overlap,
    clipped_overlap,
    rouge1_f1,
    split_sentences,
    tokenize,
)


from oracles import enumerate_ngrams, rouge1_f1_oracle, split_alnum, split_sentences_oracle


def random_words(rng, n_max=8, vocab=("the", "cat", "sat", "dog", "ran", "a", "kiwi", "blue")):
    return " ".join(rng.choice(vocab) for _ in range(rng.randint(0, n_max)))


def test_tokenize_examples():
    assert tokenize("The cat, sat.") == ["the", "cat", "sat"]
    assert tokenize("") == []
    assert tokenize("ABC abc") == ["abc", "abc"]


def test_tokenize_drops_punctuation_and_underscores():
    assert tokenize("foo_bar--baz!!") == ["foo", "bar", "baz"]
    assert tokenize("   \t\n ") == []


def test_tokenize_lowercases_before_it_splits():
    # "İ" lowercases to "i" and a combining dot, which is not alphanumeric
    assert tokenize("İstanbul") == ["i", "stanbul"]
    assert tokenize("Straße x²_ǅ") == ["straße", "x²", "ǆ"]


# characters where ASCII and Unicode text, or the regex and str.isalnum,
# could part ways: underscore, digits, DEL, letters whose lowercase differs
# in length or class, a superscript digit, a combining mark, Unicode spaces
MIXED_PIECES = [
    "_", "0", "9", "\x7f", "ß", "İ", "ǅ", "²", "\u0301", "\xa0", "\u2028",
    "Ab", "z", " ", ".",
]


@settings(max_examples=1000, deadline=None)
@given(
    st.one_of(
        st.text(st.characters(min_codepoint=0, max_codepoint=127)),
        st.lists(
            st.one_of(
                st.sampled_from(MIXED_PIECES), st.characters(min_codepoint=0, max_codepoint=127)
            ),
            max_size=25,
        ).map("".join),
    )
)
def test_tokenize_matches_the_character_loop(text):
    assert tokenize(text) == split_alnum(text.lower())


def test_tokenize_rejoin_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        text = "".join(
            rng.choice("abcXYZ012 .,!-_\t(){}") for _ in range(rng.randint(0, 40))
        )
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens
        assert all(t and not any(c.isspace() for c in t) for t in tokens)


def test_split_sentences_examples():
    assert split_sentences("A man ran. A dog barked? Yes!") == [
        "A man ran.",
        "A dog barked?",
        "Yes!",
    ]
    assert split_sentences("One sentence only") == ["One sentence only"]
    assert split_sentences("Dr. Smith arrived.") == ["Dr. Smith arrived."]


def test_split_sentences_abbreviations():
    assert len(split_sentences("He left the U.S. embassy early.")) == 1
    assert len(split_sentences("See e.g. the manual. It helps.")) == 2
    assert len(split_sentences("Mrs. Jones met Prof. Liu.")) == 1
    # configurable list: empty set splits after "Dr."
    assert len(split_sentences("Dr. Smith arrived.", abbreviations=frozenset())) == 2


def test_split_sentences_edge_cases():
    assert split_sentences("") == []
    assert split_sentences("    ") == []
    # an ellipsis before whitespace ends a sentence under the plain rule
    assert len(split_sentences("Wait... what? Sure.")) == 3
    # terminator mid-token does not split
    assert len(split_sentences("pi is 3.14 roughly")) == 1


def test_split_sentences_concat_reproduces_source():
    rng = random.Random(11)
    pieces = ["A man ran.", "Dr. Smith arrived!", "Why not?", "It is e.g. fine."]
    for _ in range(50):
        text = "  ".join(rng.choice(pieces) for _ in range(rng.randint(1, 5)))
        joined = " ".join(" ".join(s.split()) for s in split_sentences(text))
        assert joined == " ".join(text.split())


def test_rouge1_f1_examples():
    assert rouge1_f1("the cat sat", "the cat sat") == 1.0
    assert rouge1_f1("alpha beta", "gamma delta") == 0.0
    assert rouge1_f1("the cat sat", "the cat") == pytest.approx(0.8, abs=0)


def test_rouge1_f1_empty_sides():
    assert rouge1_f1("", "the cat") == 0.0
    assert rouge1_f1("the cat", "") == 0.0
    assert rouge1_f1("", "") == 0.0


def test_rouge1_f1_symmetry_and_identity():
    rng = random.Random(3)
    for _ in range(100):
        a = random_words(rng)
        b = random_words(rng)
        assert rouge1_f1(a, b) == rouge1_f1(b, a)
        if tokenize(a):
            assert rouge1_f1(a, a) == 1.0


def test_rouge1_f1_matches_bruteforce_oracle():
    rng = random.Random(1234)
    for _ in range(200):
        a = random_words(rng)
        b = random_words(rng)
        assert rouge1_f1(a, b) == rouge1_f1_oracle(a, b)


def test_enumerate_ngrams_examples():
    assert enumerate_ngrams("a b c d", {3, 4}) == ["a b c", "b c d", "a b c d"]
    assert enumerate_ngrams("a b", {3}) == []
    assert enumerate_ngrams("a b c", {3}) == ["a b c"]


def test_enumerate_ngrams_count_property():
    rng = random.Random(5)
    for _ in range(100):
        length = rng.randint(0, 12)
        n = rng.randint(1, 6)
        sentence = " ".join(f"w{i}" for i in range(length))
        assert len(enumerate_ngrams(sentence, {n})) == max(length - n + 1, 0)


def test_enumerate_ngrams_rejects_bad_sizes():
    with pytest.raises(ValueError):
        enumerate_ngrams("a b c", set())
    with pytest.raises(ValueError):
        enumerate_ngrams("a b c", {0, 2})


def test_default_abbreviations_match_contract():
    assert DEFAULT_ABBREVIATIONS == {
        "mr", "mrs", "dr", "prof", "e.g", "i.e", "u.s", "u.k", "no", "vs",
    }


def test_token_bag_has_counts_only_when_a_token_repeats():
    inputs = [["a", "b"], ["a", "b", "a"], []]
    for a in inputs:
        for b in inputs:
            assert bag_overlap(TokenBag(a), TokenBag(b)) == clipped_overlap(Counter(a), Counter(b))
    bags = [TokenBag(tokens) for tokens in inputs]
    assert [(bag.distinct, bag.length) for bag in bags] == [
        (frozenset({"a", "b"}), 2),
        (frozenset({"a", "b"}), 3),
        (frozenset(), 0),
    ]
    assert [bag.counts for bag in bags] == [None, Counter(a=2, b=1), None]


def test_bag_overlap_equals_clipped_overlap():
    rng = random.Random(11)
    for _ in range(500):
        a = random_words(rng, vocab=("a", "b", "c", "d")).split()
        b = random_words(rng, vocab=("a", "b", "c", "d")).split()
        want = clipped_overlap(Counter(a), Counter(b))
        assert bag_overlap(TokenBag(a), TokenBag(b)) == want
        assert bag_overlap(TokenBag(b), TokenBag(a)) == want


# terminators, abbreviations, words, '_', and whitespace that str.isspace
# and the regex class \s must agree on
SENTENCE_PIECES = [
    ".", "!", "?", "...", "Dr.", "dr.", "e.g.", "U.S.", "u.s.", "No.", "Mr", "vs.",
    "cat", "A1", "_", "._", "x_.", " ", "  ", "\n", "\t", "\x1c", "\x1d", "\x1e",
    "\x1f", "\x85", "\xa0", "\u2028", "\u3000", "\x0b", "é.",
]


@settings(max_examples=1000, deadline=None)
@given(
    st.lists(st.sampled_from(SENTENCE_PIECES), max_size=25),
    st.sampled_from([DEFAULT_ABBREVIATIONS, frozenset(), frozenset({"x_", "a1"})]),
)
def test_split_sentences_matches_the_character_loop(pieces, abbreviations):
    text = "".join(pieces)
    assert split_sentences(text, abbreviations) == split_sentences_oracle(text, abbreviations)
