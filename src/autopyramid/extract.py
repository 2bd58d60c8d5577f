"""Unit extraction strategies behind one interface.

A :class:`ContentUnit` is a single fact-like text snippet pulled from a
reference summary. Five strategies produce them: gold units read from a
dataset, sentence splitting, sampled n-grams, graph splitting with a text
realizer, and a language model prompted to decompose the reference into
'#'-separated fragments. Imported unit files cover strategies computed by
external tools.

All strategies are deterministic given their inputs, the configured seed,
and (for remote strategies) the service replies.
"""

from __future__ import annotations

import math
import random
import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from .amr import AmrGraph
from .data import import_rows
from .errors import EmptyReference, EmptyReply, ServiceUnavailable
from .services import ChatClient
from .smu import SPLIT_MODES, SmuCandidate, realize_baseline, realize_remote, split_graph
from .text import split_sentences, tokenize

STRATEGIES = frozenset(
    {"gold_scu", "sentence_split", "ngram", "smu", "sgu", "imported_stu"}
)

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


@dataclass(frozen=True)
class ContentUnit:
    """One unit with its provenance."""

    text: str
    strategy: str
    sentence_index: int | None = None
    reference_id: str = ""

    def __post_init__(self):
        if not self.text.strip():
            raise ValueError("unit text is empty")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")


@dataclass(frozen=True)
class ExtractionConfig:
    """Knobs shared by the extraction strategies."""

    strategy: str = "sentence_split"
    ngram_sizes: tuple[int, ...] = (3, 4, 5)
    ngram_fraction: float = 0.05
    seed: int = 42
    split_mode: str = "one-cr"
    llm_endpoint: str | None = None
    llm_model: str | None = None
    temperature: float = 0.0
    generator_endpoint: str | None = None
    batch_size: int = 32
    concurrency: int = 4

    def __post_init__(self):
        if not 0.0 < self.ngram_fraction <= 1.0:
            raise ValueError("ngram_fraction must be in (0, 1]")
        if not self.ngram_sizes or any(n < 1 for n in self.ngram_sizes):
            raise ValueError("ngram_sizes must be non-empty integers >= 1")
        if not math.isfinite(self.temperature) or self.temperature < 0:
            raise ValueError("temperature must be a finite number >= 0")
        if self.split_mode not in SPLIT_MODES:
            raise ValueError(f"split_mode must be one of {SPLIT_MODES}")


def extract_sentence_units(reference: str) -> list[ContentUnit]:
    """One unit per sentence of *reference*, in order."""
    spans = split_sentences(reference)
    if not spans:
        raise EmptyReference("reference has no sentences")
    return [
        ContentUnit(span.text, "sentence_split", sentence_index=span.index)
        for span in spans
    ]


def extract_ngram_units(reference: str, config: ExtractionConfig) -> list[ContentUnit]:
    """A seeded random sample of the reference's n-grams.

    All n-grams of the configured sizes are pooled over the whole
    reference, ordered by (sentence, n, start); ``max(1, ceil(fraction *
    pool size))`` pool positions are drawn without replacement with
    ``random.Random(seed).sample`` and returned in pool order. Only the
    drawn n-grams are ever joined into text.
    """
    sizes = sorted(set(config.ngram_sizes))
    # the pool as runs of consecutive positions, one per (sentence, n):
    # (first pool position, sentence index, tokens, n)
    runs: list[tuple[int, int, list[str], int]] = []
    size = 0
    for span in split_sentences(reference):
        tokens = tokenize(span.text)
        for n in sizes:
            if len(tokens) >= n:
                runs.append((size, span.index, tokens, n))
                size += len(tokens) - n + 1
    if not size:
        raise EmptyReference("reference yields no n-grams")
    count = min(size, max(1, math.ceil(size * config.ngram_fraction)))
    # sample's picks depend only on the population's length and the count,
    # so drawing positions picks the same n-grams as drawing from a list
    chosen = sorted(random.Random(config.seed).sample(range(size), count))
    firsts = [run[0] for run in runs]
    units = []
    for position in chosen:
        first, sentence, tokens, n = runs[bisect_right(firsts, position) - 1]
        start = position - first
        units.append(
            ContentUnit(" ".join(tokens[start : start + n]), "ngram", sentence_index=sentence)
        )
    return units


def extract_smu_units(
    graphs: Sequence[AmrGraph], config: ExtractionConfig
) -> list[ContentUnit]:
    """Split each sentence graph and realize the pieces as text.

    Uses the template realizer unless ``config.generator_endpoint`` is set.
    Exact duplicate texts are dropped, keeping first occurrences.
    """
    indexed: list[tuple[int, SmuCandidate]] = []
    for position, graph in enumerate(graphs):
        for candidate in split_graph(graph, config.split_mode):
            indexed.append((position, candidate))
    if config.generator_endpoint:
        realized = realize_remote(
            [c for _, c in indexed],
            config.generator_endpoint,
            batch_size=config.batch_size,
            concurrency=config.concurrency,
        )
        texts = [c.text or "" for c in realized]
    else:
        texts = [realize_baseline(c) for _, c in indexed]

    units: list[ContentUnit] = []
    seen: set[str] = set()
    for (position, _), text in zip(indexed, texts):
        cleaned = text.strip()
        if not cleaned or cleaned in seen:
            continue
        seen.add(cleaned)
        units.append(ContentUnit(cleaned, "smu", sentence_index=position))
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


def extract_sgu_units(
    reference: str, config: ExtractionConfig, client: ChatClient | None = None
) -> list[ContentUnit]:
    """Ask the language model to decompose *reference* into units.

    The conversation is the fixed instruction, the one-shot example as a
    user/assistant turn pair, then the reference; temperature comes from
    the config and defaults to 0. The reply is split on '#'.
    """
    if client is None:
        if not config.llm_endpoint or not config.llm_model:
            raise ServiceUnavailable("no LLM endpoint/model configured for sgu units")
        client = ChatClient(
            config.llm_endpoint, config.llm_model, temperature=config.temperature
        )
    reply = client.complete(_prompt_messages(reference))
    fragments = _parse_fragments(reply)
    if not fragments:
        raise EmptyReply("the model reply contains no usable fragment")
    return [ContentUnit(fragment, "sgu") for fragment in fragments]


def extract_sgu_units_many(
    references: Sequence[str],
    config: ExtractionConfig,
    client: ChatClient | None = None,
) -> list[list[ContentUnit]]:
    """SGU extraction for several references, at most ``config.concurrency``
    requests in flight, results in input order."""
    if not references:
        return []
    if len(references) == 1 or config.concurrency == 1:
        return [extract_sgu_units(ref, config, client) for ref in references]
    # imported here so that commands that start no thread skip it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(
        max_workers=min(config.concurrency, len(references))
    ) as pool:
        return list(
            pool.map(lambda ref: extract_sgu_units(ref, config, client), references)
        )


def import_units(path, strategy: str) -> list[ContentUnit]:
    """Read pre-computed units from *path* and tag them with *strategy*.

    The file layouts are those of :func:`~autopyramid.data.import_rows`;
    a unit's ``reference_id`` is its row's example id.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    return [
        ContentUnit(row.text, strategy, reference_id=row.example_id)
        for row in import_rows(path, strategy)
    ]
