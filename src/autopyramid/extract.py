"""Unit extraction strategies.

A unit is a single fact-like text snippet pulled from a reference summary,
and every extractor here returns units as plain texts. Four strategies
produce them: sentence splitting, sampled n-grams, graph splitting with a
text realizer, and a language model prompted to decompose the reference
into '#'-separated fragments. Gold units come from the dataset, and units
computed by external tools are imported as unit files
(:func:`~autopyramid.data.import_rows`).

All strategies are deterministic given their inputs, the seed, and (for
remote strategies) the service replies. Remote strategies take the client
of their service, which holds its endpoint, batch size and concurrency.
"""

from __future__ import annotations

import math
import random
import re
import sys
from bisect import bisect_right
from typing import TYPE_CHECKING, Iterable, Sequence

from . import _lazy_names
from .errors import EmptyReference, EmptyReply, GraphTooLarge
from .text import split_sentences, tokenize

if TYPE_CHECKING:
    from .amr import AmrGraph
    from .services import ChatClient, GraphToTextClient

# the graph splitter and realizers load with their first use, and are
# called through this module, so that a name set on it is the one called
__getattr__ = _lazy_names(globals(), {"smu": "realize_baseline realize_remote split_graph"})
_lazy = sys.modules[__name__]

# Fixed instruction and one-shot exchange for the unit-splitting prompt.
# The wording is part of the unit definition and must not drift.
SPLIT_INSTRUCTION = (
    "You split the provided input in small sentences separated by an #. "
    "The split sentences represent subsentences of the original sentences."
)

ONE_SHOT_INPUT = (
    "Irish PM Ahern said the main goal of the US-brokered Good Friday pact of "
    "1998, a joint Catholic-Protestant administration in Northern Ireland, "
    "could be revived only with a complete end of IRA weapons use. The landmark "
    "peace deal led to a virtual end of violence in that area. Sinn Fein leader "
    "Gerry Adams has appealed to IRA members to end their armed struggle in "
    "favor of democratic politics. Hopes are rising in Northern Ireland that "
    "the IRA will disarm. British PM Blair and Ahern will chair a review of the "
    "Northern Ireland situation in London."
)

ONE_SHOT_OUTPUT = (
    "Good Friday pact was agreed in 1998 # Good Friday pact was a peace pact # "
    "Good Friday pact set up a joint Catholic-Protestant administration in "
    "Northern Ireland # Good Friday pact was mediated by the US # Irish "
    "Republican Army increased activity # Irish PM Ahern called to end "
    "violence # Sinn Fein Adams called to end violence # Hope in Northern "
    "Ireland that the IRA will disarm # British PM Blair and Ahern will chair "
    "a review of the Northern Ireland situation in London"
)


def extract_sentence_units(reference: str) -> list[str]:
    """One unit per sentence of *reference*, in order."""
    units = split_sentences(reference)
    if not units:
        raise EmptyReference("reference has no sentences")
    return units


def extract_ngram_units(
    reference: str, sizes: Sequence[int], fraction: float, seed: int
) -> list[str]:
    """A seeded random sample of the reference's n-grams.

    All n-grams of the given *sizes* are pooled over the whole reference,
    ordered by (sentence, n, start); ``max(1, ceil(fraction * pool size))``
    pool positions are drawn without replacement with
    ``random.Random(seed).sample`` and returned in pool order. Only the
    drawn n-grams are ever joined into text. Raises :class:`ValueError`
    unless *sizes* is non-empty with every size at least 1 and *fraction*
    is in (0, 1].
    """
    sizes = sorted(set(sizes))
    if not sizes or sizes[0] < 1:
        raise ValueError("ngram sizes must be non-empty integers >= 1")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("ngram fraction must be in (0, 1]")
    # the pool as runs of consecutive positions, one per (sentence, n):
    # (first pool position, tokens, n)
    runs: list[tuple[int, list[str], int]] = []
    size = 0
    for sentence in split_sentences(reference):
        tokens = tokenize(sentence)
        for n in sizes:
            if len(tokens) >= n:
                runs.append((size, tokens, n))
                size += len(tokens) - n + 1
    if not size:
        raise EmptyReference("reference yields no n-grams")
    count = min(size, max(1, math.ceil(size * fraction)))
    # sample's picks depend only on the population's length and the count,
    # so drawing positions picks the same n-grams as drawing from a list
    chosen = sorted(random.Random(seed).sample(range(size), count))
    firsts = [run[0] for run in runs]
    units = []
    for position in chosen:
        first, tokens, n = runs[bisect_right(firsts, position) - 1]
        start = position - first
        units.append(" ".join(tokens[start : start + n]))
    return units


def extract_smu_units(
    graphs: Sequence[AmrGraph], mode: str, generator: GraphToTextClient | None = None
) -> list[str]:
    """The units of one reference from its sentence graphs: the one-reference
    form of :func:`extract_smu_units_many`."""
    return extract_smu_units_many([graphs], mode, generator)[0]


def extract_smu_units_many(
    graph_lists: Iterable[Sequence[AmrGraph]],
    mode: str,
    generator: GraphToTextClient | None = None,
) -> list[list[str]]:
    """Split the sentence graphs of each reference and realize the pieces
    as text, one unit list per reference, in input order. *graph_lists* is
    iterated once, a reference's graphs as the split reaches them.

    The pieces of every reference go to *generator*'s service in one call,
    each serialized as the split reaches it, or to the template realizer
    when it is ``None``. Texts are stripped; empty ones and exact
    duplicates within a reference are dropped, keeping first occurrences.
    A :class:`GraphTooLarge` carries the positions of its reference and
    of its graph within the reference; a reference whose graphs split into
    no candidate raises :class:`EmptyReference` carrying its position, so
    that *generator* is sent nothing.
    """
    counts = []

    def candidates():
        for k, graphs in enumerate(graph_lists):
            count = 0
            for j, graph in enumerate(graphs):
                try:
                    pieces = _lazy.split_graph(graph, mode)
                except GraphTooLarge as exc:
                    exc.reference, exc.graph = k, j
                    raise
                count += len(pieces)
                yield from pieces
            if not count:
                exc = EmptyReference("the reference's graphs split into no candidate")
                exc.reference = k
                raise exc
            counts.append(count)

    if generator is None:
        texts = [_lazy.realize_baseline(c) for c in candidates()]
    else:
        texts = _lazy.realize_remote(candidates(), generator)
    units = []
    start = 0
    for count in counts:
        chunk = texts[start : start + count]
        units.append(list(dict.fromkeys(filter(None, map(str.strip, chunk)))))
        start += count
    return units


def _parse_fragments(reply: str) -> list[str]:
    fragments = [part.strip() for part in reply.split("#")]
    fragments = [part for part in fragments if part]
    if fragments and re.fullmatch(r"\.+", fragments[-1]):
        fragments = fragments[:-1]
    return fragments


def _prompt_messages(reference: str) -> list[dict]:
    return [
        {"role": "system", "content": SPLIT_INSTRUCTION},
        {"role": "user", "content": ONE_SHOT_INPUT},
        {"role": "assistant", "content": ONE_SHOT_OUTPUT},
        {"role": "user", "content": reference},
    ]


def extract_sgu_units_many(references: Sequence[str], client: ChatClient) -> list[list[str]]:
    """Ask the language model to decompose each reference into units, in
    input order.

    Each conversation is the fixed instruction, the one-shot example as a
    user/assistant turn pair, then the reference; *client* sends one per
    request, with its model and temperature. Each reply is split on '#'; a
    reply with no fragment raises :class:`EmptyReply` carrying the position
    of its reference among *references*.
    """
    units = []
    for k, reply in enumerate(client.complete([_prompt_messages(ref) for ref in references])):
        fragments = _parse_fragments(reply)
        if not fragments:
            exc = EmptyReply("the model reply contains no usable fragment")
            exc.reference = k
            raise exc
        units.append(fragments)
    return units
