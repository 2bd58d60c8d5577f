"""Seeded synthetic corpus and sentence-graph generator for the benchmark.

Everything here is a pure function of its arguments: the same seed gives
byte-identical files on every machine. Nothing is imported from the
package under test or from its test suite, so edits there cannot move the
benchmark's inputs.

Corpus shape (one line per example, the package's canonical schema):

* one reference of ``SENTENCES`` sentences, each ``SENTENCE_TOKENS``
  tokens drawn uniformly from a ``VOCAB_SIZE``-word vocabulary;
* ``GOLD_UNITS`` gold units per reference, each a contiguous span of 3 to
  8 tokens of one sentence;
* per system a summary that copies each reference token with the system's
  overlap fraction (a per-system skill plus per-summary noise, spread over
  0.05 to 0.95) and replaces or drops the rest, so presence scores and
  correlations are non-degenerate;
* a human score equal to that overlap plus a per-system bias (sd 0.05)
  and per-summary Gaussian noise (sd 0.15), clipped to [0, 1], so human
  scores correlate with the metric without matching it;
* ``scu_presence`` labels: 1 when at least half of a gold unit's distinct
  tokens occur in the summary;
* the last ``DUPLICATE_SYSTEMS`` systems repeat the summary of the first
  ones (2 of 16 systems, 12.5%), so some (summary, unit) pairs are exact
  duplicates and the scorer's unique-pair ratio is below 1.

Graphs: one PENMAN graph per reference sentence, seeded by the corpus seed
and the sentence text, with ``NODES`` nodes (4 to 12) whose concepts are
tokens of the sentence, 0 to 2 re-entrant edges, and predicates (a ``-0k``
sense suffix) on the root and on about 45% of the other nodes. The root's
first edge is a core role, so every graph splits into at least one unit.
"""

from __future__ import annotations

import json
import random
import re

VOCAB_SIZE = 2000
SENTENCES = 4
SENTENCE_TOKENS = (12, 25)
GOLD_UNITS = 10
GOLD_UNIT_TOKENS = (3, 8)
DUPLICATE_SYSTEMS = 2
HUMAN_NOISE_SD = 0.15
SYSTEM_BIAS_SD = 0.05

NODES = (4, 12)
REENTRANCIES = (0, 2)
PREDICATE_SHARE = 0.45
ROLES = (":ARG0", ":ARG1", ":ARG2", ":ARG0", ":ARG1", ":mod", ":time", ":manner", ":ARG1-of")

_ONSETS = "b c d f g h j k l m n p r s t v w z br cl dr fr gl pl pr st tr".split()
_VOWELS = "a e i o u ai ea io ou".split()
_CODAS = ["", "", "", "n", "r", "s", "l", "m", "nd", "st"]
# the package's sentence splitter treats these as abbreviations before '.'
_ABBREVIATIONS = {"mr", "mrs", "dr", "prof", "no", "vs"}

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokens_of(text: str) -> list[str]:
    """Lowercased alphanumeric runs, the tokenization the benchmark's
    oracles and stub services use."""
    return _TOKEN_RE.findall(text.lower())


def vocabulary(size: int = VOCAB_SIZE) -> list[str]:
    """A fixed list of distinct pronounceable lowercase words, length >= 4."""
    rng = random.Random("perfbench-vocabulary")
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
            for _ in range(2)
        )
        if len(word) >= 4 and word not in seen and word not in _ABBREVIATIONS:
            seen.add(word)
            words.append(word)
    return words


def _sentence_text(tokens: list[str]) -> str:
    return " ".join([tokens[0].capitalize()] + tokens[1:]) + "."


def _summary_tokens(rng: random.Random, reference: list[str], keep: float, vocab) -> list[str]:
    replace = keep + (1.0 - keep) * 0.6
    fillers = rng.choices(vocab, k=len(reference))
    out = []
    for token, filler in zip(reference, fillers):
        draw = rng.random()
        if draw < keep:
            out.append(token)
        elif draw < replace:
            out.append(filler)
    return out or fillers[:1]


def _chunked_text(tokens: list[str], size: int = 15) -> str:
    return " ".join(
        _sentence_text(tokens[i : i + size]) for i in range(0, len(tokens), size)
    )


def make_entries(seed: int, examples: int, systems: int) -> list[dict]:
    """The corpus as a list of JSON-ready dicts, in example order."""
    vocab = vocabulary()
    rng = random.Random(seed)
    skills = [0.1 + 0.8 * j / max(1, systems - 1) for j in range(systems)]
    rng.shuffle(skills)
    biases = [rng.gauss(0.0, SYSTEM_BIAS_SD) for _ in range(systems)]
    system_ids = [f"sys{j:02d}" for j in range(systems)]
    first_copy = max(1, systems - DUPLICATE_SYSTEMS)
    entries = []
    for i in range(examples):
        sentences = [
            [rng.choice(vocab) for _ in range(rng.randint(*SENTENCE_TOKENS))]
            for _ in range(SENTENCES)
        ]
        reference_tokens = [t for sentence in sentences for t in sentence]
        scus = []
        for k in range(GOLD_UNITS):
            sentence = sentences[k % SENTENCES]
            length = rng.randint(*GOLD_UNIT_TOKENS)
            start = rng.randrange(len(sentence) - length + 1)
            scus.append(" ".join(sentence[start : start + length]))
        scu_sets = [set(unit.split()) for unit in scus]

        summaries: list[tuple[str, float]] = []
        rows = []
        for j, system_id in enumerate(system_ids):
            if j >= first_copy:
                summary, overlap = summaries[j - first_copy]
            else:
                keep = min(0.95, max(0.05, skills[j] + rng.gauss(0.0, 0.1)))
                tokens = _summary_tokens(rng, reference_tokens, keep, vocab)
                summary = _chunked_text(tokens)
                overlap = keep
            summaries.append((summary, overlap))
            present = set(tokens_of(summary))
            human = overlap + biases[j] + rng.gauss(0.0, HUMAN_NOISE_SD)
            human = min(1.0, max(0.0, human))
            rows.append(
                {
                    "system_id": system_id,
                    "summary": summary,
                    "human_score": round(human, 4),
                    "scu_presence": [
                        1 if 2 * len(unit & present) >= len(unit) else 0
                        for unit in scu_sets
                    ],
                }
            )
        entries.append(
            {
                "example_id": f"ex{i:05d}",
                "references": [
                    {"text": " ".join(_sentence_text(s) for s in sentences), "scus": scus}
                ],
                "systems": rows,
            }
        )
    return entries


def reference_sentences(entry: dict) -> list[str]:
    """The reference's sentences as the generator wrote them."""
    text = entry["references"][0]["text"]
    return [part + "." for part in text[:-1].split(". ")]


# ---------------------------------------------------------------------------
# Graphs


def sentence_graph(seed: int, sentence: str) -> dict:
    """A connected graph whose concepts are tokens of *sentence*.

    Returned as ``{"root", "nodes": [(var, concept)], "edges": [(src, role,
    tgt)], "attributes": [(var, role, value)]}``; tree edges come first,
    re-entrant edges after them.
    """
    rng = random.Random(f"{seed}|{sentence}")
    words = tokens_of(sentence)
    n = rng.randint(*NODES)
    nodes = []
    for i in range(n):
        word = rng.choice(words)
        # the root is always a predicate with a core role, so every graph
        # yields at least one unit
        if i == 0 or rng.random() < PREDICATE_SHARE:
            word = f"{word}-0{rng.randint(1, 5)}"
        nodes.append((f"x{i}", word))
    edges = [("x0", rng.choice(ROLES[:2]), "x1")]
    edges += [(f"x{rng.randrange(i)}", rng.choice(ROLES), f"x{i}") for i in range(2, n)]
    linked = {(s, t) for s, _, t in edges} | {(t, s) for s, _, t in edges}
    for _ in range(rng.randint(*REENTRANCIES)):
        a, b = rng.sample(range(n), 2)
        source, target = f"x{a}", f"x{b}"
        if (source, target) not in linked:
            linked.update({(source, target), (target, source)})
            edges.append((source, rng.choice(ROLES), target))
    attributes = []
    for var, _ in nodes:
        draw = rng.random()
        if draw < 0.08:
            attributes.append((var, ":polarity", "-"))
        elif draw < 0.16:
            attributes.append((var, ":quant", str(rng.randint(2, 9))))
        elif draw < 0.22:
            attributes.append((var, ":op1", '"' + rng.choice(words).capitalize() + '"'))
    return {"root": "x0", "nodes": nodes, "edges": edges, "attributes": attributes}


def penman_text(graph: dict) -> str:
    """Single-line PENMAN: depth-first over tree edges, attributes before
    edges, re-entrant edges as bare variables."""
    concepts = dict(graph["nodes"])
    children: dict[str, list[tuple[str, str]]] = {}
    for source, role, target in graph["edges"]:
        children.setdefault(source, []).append((role, target))
    attrs: dict[str, list[tuple[str, str]]] = {}
    for source, role, value in graph["attributes"]:
        attrs.setdefault(source, []).append((role, value))
    # tree edges are the first len(nodes) - 1 entries; everything after is
    # a re-entrancy and stays a bare reference
    tree = set(graph["edges"][: len(concepts) - 1])

    def emit(var: str) -> str:
        parts = [f"({var} / {concepts[var]}"]
        parts.extend(f"{role} {value}" for role, value in attrs.get(var, []))
        for role, target in children.get(var, []):
            if (var, role, target) in tree:
                parts.append(f"{role} {emit(target)}")
            else:
                parts.append(f"{role} {target}")
        return " ".join(parts) + ")"

    return emit(graph["root"])


def write_corpus(path: str, seed: int, examples: int, systems: int) -> list[dict]:
    entries = make_entries(seed, examples, systems)
    with open(path, "w", encoding="utf-8") as handle:
        for entry in entries:
            handle.write(json.dumps(entry, ensure_ascii=False) + "\n")
    return entries


def write_graphs(path: str, seed: int, entries: list[dict]) -> None:
    """One ``# ::snt``-annotated block per reference sentence, dataset order."""
    blocks = []
    for entry in entries:
        for sentence in reference_sentences(entry):
            graph = penman_text(sentence_graph(seed, sentence))
            blocks.append(f"# ::snt {sentence}\n{graph}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n\n".join(blocks) + "\n")
