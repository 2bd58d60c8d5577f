"""Presence scoring: how much of each unit a system summary contains.

A scorer maps (premise, hypothesis) pairs to probabilities in [0, 1]; the
premise is the system summary, the hypothesis is a unit. The pyramid score
of a summary is the plain mean of its per-unit probabilities, every unit
weighted equally.

Two scorers ship with the package: a deterministic lexical fallback that
needs no network, and a remote scorer backed by an entailment service.

``score`` reads each example's summaries and unit texts back from its
spool (:mod:`autopyramid.spool`), one example at a time.
"""

from __future__ import annotations

import math
from itertools import chain, product
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import MalformedServiceReply, NoUnits
from .text import TokenBag, bag_overlap, tokenize

PresenceScorer = Callable[[list[tuple[str, str]]], list[float]]


class _Probabilities(NamedTuple):
    probabilities: tuple[float, ...]


class PresenceResult(_Probabilities):
    """Per-unit presence probabilities for one summary."""

    __slots__ = ()

    def __new__(cls, probabilities: tuple[float, ...]):
        if not probabilities:
            raise ValueError("a presence result needs at least one probability")
        if any(not 0.0 <= p <= 1.0 for p in probabilities):
            raise ValueError("probabilities must lie in [0, 1]")
        return super().__new__(cls, probabilities)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would skip the checks
        return cls(*iterable)

    @property
    def pyramid_score(self) -> float:
        return math.fsum(self.probabilities) / len(self.probabilities)


def lexical_scorer(pairs: list[tuple[str, str]]) -> list[float]:
    """Clipped unigram recall of each hypothesis inside its premise.

    Offline stand-in for a trained entailment model: 1.0 when every
    hypothesis token (with multiplicity) occurs in the premise, 0.0 when
    none does or the hypothesis has no tokens. Each distinct text is
    tokenized once per call, and a text's token counts are built only when
    both sides of one of its pairs repeat a token.
    """
    bags = {
        text: TokenBag(tokenize(text)) for text in dict.fromkeys(chain.from_iterable(pairs))
    }
    scores = []
    for premise, hypothesis in pairs:
        hyp = bags[hypothesis]
        scores.append(bag_overlap(hyp, bags[premise]) / hyp.length if hyp.length else 0.0)
    return scores


def remote_scorer(
    endpoint: str, *, batch_size: int = 32, concurrency: int = 4
) -> PresenceScorer:
    """A scorer bound to a presence endpoint: requests of *batch_size*
    pairs, up to *concurrency* in flight, and no request for no pairs.
    Out-of-range or missing probabilities raise
    :class:`MalformedServiceReply`."""
    # imported here so that the lexical scorer never loads the HTTP client
    from .services import PresenceClient

    return PresenceClient(
        endpoint, batch_size=batch_size, concurrency=concurrency
    ).probabilities


def _probabilities(pairs: list[tuple[str, str]], scorer: PresenceScorer) -> list:
    """One *scorer* call on the distinct *pairs*, one probability a pair."""
    probabilities = scorer(pairs)
    if len(probabilities) != len(pairs):
        raise MalformedServiceReply(
            f"scorer answered {len(probabilities)} probabilities for {len(pairs)} pairs"
        )
    return probabilities


def _axes(units: Iterable[str], summaries: Iterable[str]) -> tuple[list, list]:
    """The distinct summaries and unit texts, each in order of first
    appearance: the rows and columns of the matrix of distinct pairs."""
    return list(dict.fromkeys(summaries)), list(dict.fromkeys(units))


def prescored(
    examples: Iterable[tuple[Sequence[str], Sequence[str]]], scorer: PresenceScorer
) -> PresenceScorer:
    """A scorer that answers from one *scorer* call on the distinct pairs
    of every ``(units, summaries)`` example, in order of first appearance,
    so that the pairs of many examples share one batched call.
    :func:`score_summaries` on any one of the examples reads its pairs from
    it; it knows no other pair."""
    pairs = chain.from_iterable(
        product(*_axes(units, summaries)) for units, summaries in examples
    )
    distinct = list(dict.fromkeys(pairs))
    by_pair = dict(zip(distinct, _probabilities(distinct, scorer)))
    return lambda wanted: [by_pair[pair] for pair in wanted]


def score_summaries(
    units: Sequence[str], summaries: Sequence[str], scorer: PresenceScorer
) -> list[PresenceResult]:
    """Score every summary against every unit text in one scorer call.

    Each distinct (summary, unit) pair is scored once, so repeated summaries
    or unit texts cost nothing extra: the call holds a row per distinct
    summary and a column per distinct unit, and each result picks its
    unit's column. Results follow *summaries*, and each keeps the unit
    order.
    """
    if not units:
        raise NoUnits("cannot score a summary without units")
    rows, columns = _axes(units, summaries)
    probabilities = _probabilities(list(product(rows, columns)), scorer)
    column_of = {unit: j for j, unit in enumerate(columns)}
    picks = [column_of[unit] for unit in units]
    width = len(columns)
    by_summary = {}
    for i, summary in enumerate(rows):
        row = probabilities[i * width : (i + 1) * width]
        by_summary[summary] = PresenceResult(tuple([float(row[j]) for j in picks]))
    return [by_summary[summary] for summary in summaries]


def score_summary(
    units: Sequence[str], summary: str, scorer: PresenceScorer
) -> PresenceResult:
    """Score *summary* against every unit; unit order is preserved."""
    return score_summaries(units, [summary], scorer)[0]

