"""Deterministic text primitives: tokens, sentences, unigram F1.

Everything in this module is pure and dependency-free so that scores are
reproducible bit-for-bit across machines.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Mapping

# Unicode alphanumerics; underscore is punctuation here.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# The same tokens for ASCII text, one byte at a time: letters lowercased,
# digits kept, every other byte a space (the upper half only pads the
# table to 256 bytes; ASCII text has none of them).
_ASCII_TOKEN_BYTES = bytes(
    ord(ch.lower()) if ch.isalnum() else ord(" ") for ch in map(chr, range(128))
) + b" " * 128

# A terminator followed by whitespace or the end of the text; ``\S`` and
# ``str.isspace`` agree on what whitespace is.
_TERMINATOR_RE = re.compile(r"[.!?](?!\S)")

# Lowercase, dot-free or dot-internal forms checked against the word
# immediately preceding a period.
DEFAULT_ABBREVIATIONS = frozenset(
    {"mr", "mrs", "dr", "prof", "e.g", "i.e", "u.s", "u.k", "no", "vs"}
)

def tokenize(text: str) -> list[str]:
    """Lowercase *text* and split it on maximal runs of non-alphanumerics.

    Empty fragments are dropped, so the result contains only non-empty,
    whitespace-free tokens. An empty input yields an empty list. ASCII text
    takes a byte-table path that gives the same tokens as the regex.
    """
    if text.isascii():
        return text.encode().translate(_ASCII_TOKEN_BYTES).decode().split()
    return _TOKEN_RE.findall(text.lower())


def _abbreviation_before(text: str, dot: int, abbreviations: frozenset[str]) -> bool:
    # Collect the word (letters, digits, internal dots) ending right before
    # the period at *dot*; "U.S." checks as "u.s", "Dr." as "dr".
    j = dot
    while j > 0 and (text[j - 1].isalnum() or text[j - 1] == "."):
        j -= 1
    return text[j:dot].lower() in abbreviations


def split_sentences(
    text: str, abbreviations: frozenset[str] = DEFAULT_ABBREVIATIONS
) -> list[str]:
    """Split *text* into sentences on '.', '!', '?' at a word boundary.

    A terminator only splits when followed by whitespace or end-of-text,
    and a '.' does not split when the preceding word is in *abbreviations*.
    Sentences are trimmed, in text order; empty ones are never produced.
    """
    sentences: list[str] = []
    start = 0
    for match in _TERMINATOR_RE.finditer(text):
        end = match.end()
        if text[end - 1] == "." and _abbreviation_before(text, end - 1, abbreviations):
            continue
        piece = text[start:end].strip()
        if piece:
            sentences.append(piece)
        start = end
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def clipped_overlap(a: Mapping[str, int], b: Mapping[str, int]) -> int:
    """Tokens two texts share, given their token counts.

    Each token counts as often as it occurs in the side where it is rarer,
    so the result is the clipped unigram overlap of the two texts.
    """
    if len(b) < len(a):
        a, b = b, a
    return sum(min(count, b.get(token, 0)) for token, count in a.items())


class TokenBag:
    """The tokens of one text: the set of distinct tokens and the length.

    Per-token counts matter only when both sides of an overlap repeat a
    token, so a bag builds them then, once, and never for a text whose
    tokens do not repeat.
    """

    __slots__ = ("distinct", "length", "_repeating", "_counts")

    def __init__(self, tokens: list[str]):
        self.distinct = frozenset(tokens)
        self.length = len(tokens)
        # the tokens, kept only when one repeats
        self._repeating = tokens if len(self.distinct) < self.length else None
        self._counts: Counter | None = None

    @property
    def counts(self) -> Counter | None:
        """The token counts, or ``None`` when no token repeats."""
        if self._counts is None and self._repeating is not None:
            self._counts = Counter(self._repeating)
        return self._counts


def bag_overlap(a: TokenBag, b: TokenBag) -> int:
    """:func:`clipped_overlap` of two bags.

    When either side has no repeated token, every shared token counts once,
    so the overlap is the number of distinct tokens the two sides share.
    """
    if a._repeating is None or b._repeating is None:
        return len(a.distinct & b.distinct)
    return clipped_overlap(a.counts, b.counts)


def unigram_f1(overlap: int, candidate_length: int, reference_length: int) -> float:
    """F1 of a clipped unigram *overlap* between texts of the given lengths.

    0.0 whenever either side has no tokens or nothing is shared.
    """
    if not candidate_length or not reference_length:
        return 0.0
    precision = overlap / candidate_length
    recall = overlap / reference_length
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def rouge1_f1(candidate: str, reference: str) -> float:
    """Unigram F1 with clipped counts and no stemming or stopword removal.

    Precision counts each candidate token at most as often as it occurs in
    the reference; recall divides the same overlap by the reference length.
    Returns 0.0 whenever either side has no tokens or no token is shared.
    """
    cand = TokenBag(tokenize(candidate))
    ref = TokenBag(tokenize(reference))
    return unigram_f1(bag_overlap(cand, ref), cand.length, ref.length)

