import random

import pytest

from autopyramid.errors import MalformedServiceReply, NoUnits
from autopyramid.presence import (
    PresenceResult,
    lexical_scorer,
    remote_scorer,
    score_summary,
)


def units_of(*texts):
    return list(texts)


def test_score_summary_mean_of_probabilities():
    def scripted(pairs):
        return [1.0, 0.0, 0.5]

    result = score_summary(units_of("a", "b", "c"), "whatever", scripted)
    assert result.pyramid_score == 0.5
    assert result.probabilities == (1.0, 0.0, 0.5)


def test_score_summary_upper_bound():
    result = score_summary(units_of("a", "b"), "x", lambda pairs: [1.0] * len(pairs))
    assert result.pyramid_score == 1.0


def test_score_summary_requires_units():
    with pytest.raises(NoUnits):
        score_summary([], "summary", lexical_scorer)


def test_score_summary_pairs_are_premise_then_hypothesis():
    seen = []

    def recording(pairs):
        seen.extend(pairs)
        return [0.0] * len(pairs)

    score_summary(units_of("unit one", "unit two"), "the summary", recording)
    assert seen == [("the summary", "unit one"), ("the summary", "unit two")]


def test_score_summary_rejects_wrong_scorer_arity():
    with pytest.raises(MalformedServiceReply):
        score_summary(units_of("a", "b"), "s", lambda pairs: [0.5])


def test_score_summary_monotone_and_permutation_invariant():
    rng = random.Random(2)
    for _ in range(50):
        probs = [rng.random() for _ in range(rng.randint(1, 8))]
        base = PresenceResult(tuple(probs)).pyramid_score
        bumped = list(probs)
        where = rng.randrange(len(probs))
        bumped[where] = min(1.0, bumped[where] + rng.random() * (1 - bumped[where]))
        assert PresenceResult(tuple(bumped)).pyramid_score >= base
        shuffled = list(probs)
        rng.shuffle(shuffled)
        assert PresenceResult(tuple(shuffled)).pyramid_score == pytest.approx(base)
        assert 0.0 <= base <= 1.0


def test_presence_result_validation():
    with pytest.raises(ValueError):
        PresenceResult(())
    with pytest.raises(ValueError):
        PresenceResult((0.5, 1.3))
    for bad in (float("nan"), -0.0 - 1e-300, float("-inf")):
        with pytest.raises(ValueError):
            PresenceResult((0.5, bad))
    with pytest.raises(TypeError):
        PresenceResult((0.5, "0.5"))
    assert PresenceResult((0, 1.0, 0.0)).pyramid_score == 1 / 3


def test_lexical_scorer_examples():
    assert lexical_scorer(
        [("the cat sat on the mat", "the cat sat"), ("the cat sat", "dog barked"),
         ("a b", "a c"), ("anything", "")]
    ) == [1.0, 0.0, 0.5, 0.0]


def test_lexical_scorer_counts_are_clipped():
    # hypothesis needs "the" twice but the premise has it once
    assert lexical_scorer([("the cat", "the the")]) == [0.5]


def test_lexical_scorer_verbatim_units_score_one():
    summary = "The cat sat on the mat. A dog barked."
    units = units_of("The cat sat on the mat.", "A dog barked.")
    result = score_summary(units, summary, lexical_scorer)
    assert result.pyramid_score == 1.0


def echo_presence(path, body):
    return 200, {"probs": [0.7] * len(body["pairs"])}


def test_remote_scorer_empty_no_call(stub_service):
    stub = stub_service(echo_presence)
    assert remote_scorer(stub.url)([]) == []
    assert stub.requests == []


def test_remote_scorer_stub_values(stub_service):
    stub = stub_service(echo_presence)
    pairs = [("s", "a"), ("s", "b"), ("s", "c")]
    assert remote_scorer(stub.url)(pairs) == [0.7, 0.7, 0.7]
    (request,) = stub.requests
    assert [(p["premise"], p["hypothesis"]) for p in request[1]["pairs"]] == pairs
