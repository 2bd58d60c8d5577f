"""Independent reference implementations used to check the package.

Everything here is deliberately written with different code paths than the
library: explicit loops, no shared helpers, brute-force enumeration.
"""

import itertools
import json
import math
import random
import re
from typing import NamedTuple

from autopyramid.amr import AmrGraph, Attribute, Edge
from autopyramid.data import (
    VALID_STRATEGIES,
    Reference,
    ReferenceEntry,
    SystemSummary,
    UnitFileRow,
    _json_lines,
    is_finite_number,
    read_input,
)
from autopyramid.errors import (
    DuplicateExampleId,
    FileUnreadable,
    MalformedPenman,
    PresenceLengthMismatch,
    SchemaViolation,
)
from autopyramid.text import (
    DEFAULT_ABBREVIATIONS,
    _abbreviation_before,
    split_sentences,
)


def split_alnum(text):
    out = []
    word = ""
    for ch in text:
        if ch.isalnum() and ch != "_":
            word += ch
        else:
            if word:
                out.append(word)
            word = ""
    if word:
        out.append(word)
    return out


def rouge1_f1_oracle(candidate, reference):
    cand_tokens = split_alnum(candidate.lower())
    ref_tokens = split_alnum(reference.lower())
    if not cand_tokens or not ref_tokens:
        return 0.0
    overlap = 0
    remaining = list(ref_tokens)
    for tok in cand_tokens:
        if tok in remaining:
            remaining.remove(tok)
            overlap += 1
    p = overlap / len(cand_tokens)
    r = overlap / len(ref_tokens)
    if p + r == 0:
        return 0.0
    return 2 * p * r / (p + r)


def ranks_oracle(values):
    pairs = sorted((v, i) for i, v in enumerate(values))
    out = [0.0] * len(values)
    start = 0
    while start < len(pairs):
        stop = start
        while stop + 1 < len(pairs) and pairs[stop + 1][0] == pairs[start][0]:
            stop += 1
        mean_rank = sum(range(start + 1, stop + 2)) / (stop - start + 1)
        for k in range(start, stop + 1):
            out[pairs[k][1]] = mean_rank
        start = stop + 1
    return out


def correlate_oracle(xs, ys, kind):
    if kind == "spearman":
        xs, ys = ranks_oracle(xs), ranks_oracle(ys)
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    sx = math.sqrt(sum((a - mx) ** 2 for a in xs))
    sy = math.sqrt(sum((b - my) ** 2 for b in ys))
    return cov / (sx * sy)


def system_level_oracle(metric, human, kind):
    n = len(metric)
    s = len(metric[0])
    m_means = [sum(metric[i][j] for i in range(n)) / n for j in range(s)]
    h_means = [sum(human[i][j] for i in range(n)) / n for j in range(s)]
    return correlate_oracle(m_means, h_means, kind)


def summary_level_oracle(metric, human, kind):
    rows = []
    for i in range(len(metric)):
        if len(set(metric[i])) == 1 or len(set(human[i])) == 1:
            continue
        rows.append(correlate_oracle(metric[i], human[i], kind))
    return sum(rows) / len(rows)


def wilcoxon_oracle(diffs):
    """Exhaustive sign-assignment enumeration for the signed-rank test."""
    ranks = ranks_oracle([abs(d) for d in diffs])
    w_plus = sum(r for d, r in zip(diffs, ranks) if d > 0)
    w_minus = sum(r for d, r in zip(diffs, ranks) if d < 0)
    w = min(w_plus, w_minus)
    hits = 0
    count = 0
    for signs in itertools.product((1, -1), repeat=len(diffs)):
        plus = sum(r for s, r in zip(signs, ranks) if s > 0)
        minus = sum(r for s, r in zip(signs, ranks) if s < 0)
        count += 1
        if min(plus, minus) <= w + 1e-9:
            hits += 1
    return w, hits / count


def enumerate_ngrams(sentence, sizes):
    """All n-grams of the tokenized *sentence* for each n in *sizes*.

    Output is ordered by (n ascending, start position ascending); each
    n-gram is its tokens joined by single spaces. Sentences shorter than n
    contribute nothing for that n.
    """
    sorted_sizes = sorted(set(sizes))
    if not sorted_sizes or sorted_sizes[0] < 1:
        raise ValueError("sizes must be a non-empty collection of integers >= 1")
    tokens = split_alnum(sentence.lower())
    grams = []
    for n in sorted_sizes:
        for start in range(len(tokens) - n + 1):
            grams.append(" ".join(tokens[start : start + n]))
    return grams


def ngram_units_oracle(reference, sizes, fraction, seed):
    """The n-gram sample drawn the direct way, from a pool of every n-gram
    string rather than of positions: the pool holds
    (sentence, n, start, text) in (sentence, n, start) order, the seeded
    sample is taken from it, and the picks are sorted. ``None`` for an
    empty pool. It shares the sentence splitter and ``enumerate_ngrams``
    with the package, so it checks which n-grams are drawn."""
    pool = []
    for index, sentence in enumerate(split_sentences(reference)):
        by_size = {}
        for gram in enumerate_ngrams(sentence, sizes):
            n = gram.count(" ") + 1
            start = by_size.get(n, 0)
            by_size[n] = start + 1
            pool.append((index, n, start, gram))
    if not pool:
        return None
    count = min(len(pool), max(1, math.ceil(len(pool) * fraction)))
    chosen = sorted(random.Random(seed).sample(pool, count))
    return [gram for _, _, _, gram in chosen]


# ---------------------------------------------------------------------------
# PENMAN graphs: the parser, splitter and template realizer written with a
# position-carrying token per lexeme, per-predicate edge scans and one walk
# per question. Slower, and shaped differently from the package's versions.


class _Token(NamedTuple):
    text: str
    line: int
    column: int


_QUOTED_RE = re.compile(r'"(?:[^"\\]|\\.)*"')
_TOKEN_RE = re.compile(_QUOTED_RE.pattern + r"|\(|\)|/|[^\s()/]+")
_NUMBER_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _lex(text, first_line=1):
    """Tokens of each line, which ends at ``"\\n"``, so no token spans one."""
    tokens = []
    for offset, line in enumerate(text.split("\n")):
        for match in _TOKEN_RE.finditer(line):
            tokens.append(_Token(match.group(), first_line + offset, match.start() + 1))
    return tokens


def _is_constant(token):
    if token.startswith('"'):
        return True
    if token in ("-", "+"):
        return True
    return bool(_NUMBER_RE.match(token))


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, expected):
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("", 1, 1)
            raise MalformedPenman(
                f"unexpected end of input, expected {expected}", last.line, last.column
            )
        self.pos += 1
        return tok

    def parse(self):
        self.nodes = {}
        self.edges = []
        self.attributes = []
        self.references = []
        root = self._open_node()
        open_nodes = [root]
        while open_nodes:
            self._relation(open_nodes)
        trailing = self._peek()
        if trailing is not None:
            raise MalformedPenman(
                f"unexpected {trailing.text!r} after the graph (unbalanced parentheses?)",
                trailing.line,
                trailing.column,
            )
        for var, tok in self.references:
            if var not in self.nodes:
                raise MalformedPenman(
                    f"reference to undefined variable {var!r}", tok.line, tok.column
                )
        return AmrGraph(
            root=root,
            nodes=self.nodes,
            edges=tuple(self.edges),
            attributes=tuple(self.attributes),
        )

    def _open_node(self):
        opener = self._next("'('")
        if opener.text != "(":
            raise MalformedPenman(
                f"expected '(' but found {opener.text!r}", opener.line, opener.column
            )
        var_tok = self._next("a variable")
        var = var_tok.text
        if var in ("(", ")", "/") or var.startswith(":") or _is_constant(var):
            raise MalformedPenman(
                f"expected a variable but found {var!r}", var_tok.line, var_tok.column
            )
        if var in self.nodes:
            raise MalformedPenman(
                f"duplicate definition of variable {var!r}", var_tok.line, var_tok.column
            )
        slash = self._next("'/'")
        if slash.text != "/":
            raise MalformedPenman(
                f"missing '/' after variable {var!r}", slash.line, slash.column
            )
        concept_tok = self._next("a concept")
        concept = concept_tok.text
        if concept in ("(", ")", "/") or concept.startswith(":"):
            raise MalformedPenman(
                f"expected a concept but found {concept!r}",
                concept_tok.line,
                concept_tok.column,
            )
        self._check_quoted(concept_tok)
        self.nodes[var] = concept
        return var

    @staticmethod
    def _check_quoted(tok):
        if tok.text.startswith('"') and not _QUOTED_RE.fullmatch(tok.text):
            raise MalformedPenman(f"unclosed quoted string {tok.text!r}", tok.line, tok.column)

    def _relation(self, open_nodes):
        var = open_nodes[-1]
        tok = self._next("a role or ')'")
        if tok.text == ")":
            open_nodes.pop()
            return
        if not tok.text.startswith(":") or len(tok.text) < 2:
            raise MalformedPenman(
                f"expected a role or ')' but found {tok.text!r}", tok.line, tok.column
            )
        role = tok.text
        value = self._peek()
        if value is None:
            raise MalformedPenman(f"role {role!r} has no value", tok.line, tok.column)
        if value.text == "(":
            child = self._open_node()
            self.edges.append(Edge(var, role, child))
            open_nodes.append(child)
        elif value.text in (")", "/") or value.text.startswith(":"):
            raise MalformedPenman(f"role {role!r} has no value", value.line, value.column)
        elif _is_constant(value.text):
            self._check_quoted(value)
            self.pos += 1
            self.attributes.append(Attribute(var, role, value.text))
        else:
            self.pos += 1
            self.edges.append(Edge(var, role, value.text))
            self.references.append((value.text, value))


def parse_penman_oracle(text, first_line=1):
    """``parse_penman`` through a list of positioned tokens and a parser
    object that reads them one method call at a time."""
    tokens = _lex(text, first_line)
    if not tokens:
        raise MalformedPenman("empty input", first_line, 1)
    return _Parser(tokens).parse()


_PREDICATE_RE = re.compile(r".+-(\d{2,})$")
_CORE_RE = re.compile(r":ARG(\d+)$")
_CORE_INVERSE_RE = re.compile(r":ARG(\d+)-of$")
_CORE_ROLE_RE = re.compile(r":ARG(\d+)(-of)?")
_OP_RE = r":op(\d+)"


def core_role_oracle(role):
    """The index of a core role and whether it is an inverse, by pattern;
    None for any other role."""
    match = _CORE_ROLE_RE.fullmatch(role)
    if match is None:
        return None
    return int(match.group(1)), match.group(2) is not None


def predicate_lemma_oracle(concept):
    """The lemma of a predicate concept, by pattern; None for any other."""
    if _PREDICATE_RE.match(concept) is None:
        return None
    return _lemma_of(concept)


def _children(graph):
    children = {}
    for edge in graph.edges:
        children.setdefault(edge.source, []).append(edge)
    return children


def _walk(start, children, entered):
    entered[start] = None
    order = [start]
    pending = [iter(children.get(start, []))]
    while pending:
        for edge in pending[-1]:
            if edge.target not in entered:
                entered[edge.target] = edge
                order.append(edge.target)
                pending.append(iter(children.get(edge.target, [])))
                break
        else:
            pending.pop()
    return order


def _dfs_order(graph):
    children = _children(graph)
    entered = {}
    order = []
    for var in (graph.root, *graph.nodes):
        if var not in entered:
            order += _walk(var, children, entered)
    return order


def _defining_edges(graph):
    defining = {}
    _walk(graph.root, _children(graph), defining)
    for var in graph.nodes:
        defining.setdefault(var, None)
    return defining


def _find_predicates(graph):
    return [var for var in _dfs_order(graph) if _PREDICATE_RE.match(graph.nodes[var])]


def _core_roles(graph, predicate):
    """Each core role of *predicate*: the edge as stored, the role in
    forward reading, and the filler."""
    roles = []
    for edge in graph.edges:
        forward = _CORE_RE.fullmatch(edge.role)
        if edge.source == predicate and forward:
            roles.append((edge, f":ARG{int(forward.group(1))}", edge.target))
            continue
        inverse = _CORE_INVERSE_RE.fullmatch(edge.role)
        if edge.target == predicate and inverse:
            roles.append((edge, f":ARG{int(inverse.group(1))}", edge.source))
    return roles


def _build_candidate(graph, predicate, group, all_roles, defining, adjacency):
    nodes = {predicate: graph.nodes[predicate]}
    edges = []
    stored = {stored_edge for stored_edge, _, _ in all_roles}

    def expand(var):
        pending = [iter(adjacency.get(var, []))]
        while pending:
            for edge in pending[-1]:
                if edge in stored:
                    continue
                edges.append(edge)
                target = edge.target
                if target in nodes:
                    continue
                nodes[target] = graph.nodes[target]
                if defining.get(target) == edge:
                    pending.append(iter(adjacency.get(target, [])))
                    break
            else:
                pending.pop()

    for _, role, filler in group:
        edges.append(Edge(predicate, role, filler))
        if filler not in nodes:
            nodes[filler] = graph.nodes[filler]
            expand(filler)

    attributes = tuple(a for a in graph.attributes if a.source in nodes)
    return AmrGraph(root=predicate, nodes=nodes, edges=tuple(edges), attributes=attributes)


def split_graph_oracle(graph, mode="one-cr"):
    """``split_graph`` with the core roles of each predicate found by a scan
    of every edge, and the child map and walks built apart."""
    defining = _defining_edges(graph)
    adjacency = _children(graph)
    candidates = []
    for predicate in _find_predicates(graph):
        roles = _core_roles(graph, predicate)
        if not roles:
            continue
        groups = [(r,) for r in roles] if mode == "one-cr" else [tuple(roles)]
        for group in groups:
            candidates.append(
                _build_candidate(graph, predicate, group, roles, defining, adjacency)
            )
    return candidates


def _strip_quotes(value):
    if len(value) >= 2 and value.startswith('"') and value.endswith('"'):
        return value[1:-1].replace('\\"', '"')
    return value


def _lemma_of(concept):
    match = _PREDICATE_RE.match(concept)
    if match:
        return concept[: -(len(match.group(1)) + 1)]
    return concept


def realize_baseline_oracle(graph):
    """``realize_baseline`` with each node's template built from scans of
    its attribute list and a string pattern for ``:opN``."""
    adjacency = _children(graph)
    attrs = {}
    for attr in graph.attributes:
        attrs.setdefault(attr.source, []).append(attr)
    visited = set()

    def name_words(var):
        visited.add(var)
        ops = []
        for attr in attrs.get(var, []):
            match = re.fullmatch(_OP_RE, attr.role)
            if match:
                ops.append((int(match.group(1)), _strip_quotes(attr.value)))
        return [word for _, word in sorted(ops)]

    def template(var):
        visited.add(var)
        arg_edges = []
        other_edges = []
        for edge in adjacency.get(var, []):
            match = _CORE_RE.fullmatch(edge.role)
            if match:
                arg_edges.append((int(match.group(1)), edge))
            else:
                other_edges.append(edge)
        arg_edges.sort(key=lambda item: item[0])
        items = [edge for index, edge in arg_edges if index == 0]
        if any(a.role == ":polarity" and a.value == "-" for a in attrs.get(var, [])):
            items.append("not")
        items.append(_lemma_of(graph.nodes[var]))
        for attr in attrs.get(var, []):
            if attr.role == ":polarity":
                continue
            items.append(_strip_quotes(attr.value))
        items.extend(edge for index, edge in arg_edges if index != 0)
        items.extend(other_edges)
        return items

    words = []
    pending = [iter(template(graph.root))]
    while pending:
        for item in pending[-1]:
            if isinstance(item, str):
                words.append(item)
            elif item.target in visited:
                continue
            elif item.role == ":name":
                words.extend(name_words(item.target))
            else:
                pending.append(iter(template(item.target)))
                break
        else:
            pending.pop()
    return " ".join(w for w in words if w)


# ---------------------------------------------------------------------------
# Input files and sentences: the loaders written the direct way (a
# text-mode read, ``json.loads``, ``isinstance`` checks, records built field
# by field), and the sentence splitter as a loop over every character.


def _require(condition: bool, message: str, line: int, field: str):
    if not condition:
        raise SchemaViolation(message, line=line, field=field)


def _parse_reference(value, line: int, field: str) -> Reference:
    _require(isinstance(value, dict), "reference must be an object", line, field)
    text = value.get("text")
    _require(isinstance(text, str), "missing string 'text'", line, f"{field}.text")
    scus = value.get("scus", [])
    _require(isinstance(scus, list), "'scus' must be a list", line, f"{field}.scus")
    for k, scu in enumerate(scus):
        _require(
            isinstance(scu, str) and scu.strip() != "",
            "gold unit must be a non-empty string",
            line,
            f"{field}.scus[{k}]",
        )
    return Reference(text=text, scus=tuple(scus))


def _system_error(message: str, line: int, index: int, name: str) -> SchemaViolation:
    """The error for field *name* of system *index*; the field path is
    built only here, when a system is rejected."""
    return SchemaViolation(message, line=line, field=f"systems[{index}]{name}")


def _parse_system(value, line: int, index: int) -> SystemSummary:
    if not isinstance(value, dict):
        raise _system_error("system must be an object", line, index, "")
    system_id = value.get("system_id")
    if not isinstance(system_id, str) or system_id == "":
        raise _system_error("missing string 'system_id'", line, index, ".system_id")
    summary = value.get("summary")
    if not isinstance(summary, str):
        raise _system_error("missing string 'summary'", line, index, ".summary")
    human_score = value.get("human_score")
    if human_score is not None:
        if not is_finite_number(human_score):
            raise _system_error(
                "'human_score' must be a finite number", line, index, ".human_score"
            )
        human_score = float(human_score)
    presence = value.get("scu_presence")
    if presence is not None:
        if not (isinstance(presence, list) and all(p in (0, 1) for p in presence)):
            raise _system_error(
                "'scu_presence' must be a list of 0/1", line, index, ".scu_presence"
            )
        presence = tuple(map(int, presence))
    return SystemSummary(
        system_id=system_id,
        summary=summary,
        human_score=human_score,
        scu_presence=presence,
    )


def _parse_entry(value, line: int) -> ReferenceEntry:
    _require(isinstance(value, dict), "entry must be an object", line, "")
    example_id = value.get("example_id")
    _require(
        isinstance(example_id, str) and example_id != "",
        "missing string 'example_id'",
        line,
        "example_id",
    )
    references_raw = value.get("references")
    _require(
        isinstance(references_raw, list) and len(references_raw) >= 1,
        "'references' must be a non-empty list",
        line,
        "references",
    )
    references = tuple(
        _parse_reference(ref, line, f"references[{i}]")
        for i, ref in enumerate(references_raw)
    )
    systems_raw = value.get("systems", [])
    _require(isinstance(systems_raw, list), "'systems' must be a list", line, "systems")
    systems = tuple(
        _parse_system(system, line, i) for i, system in enumerate(systems_raw)
    )
    seen_ids = set()
    for i, system in enumerate(systems):
        if system.system_id in seen_ids:
            raise SchemaViolation(
                f"duplicate system_id {system.system_id!r}",
                line=line,
                field=f"systems[{i}].system_id",
            )
        seen_ids.add(system.system_id)
    entry = ReferenceEntry(example_id=example_id, references=references, systems=systems)
    pooled = len(entry.pooled_scus())
    for i, system in enumerate(systems):
        if system.scu_presence is not None and len(system.scu_presence) != pooled:
            raise PresenceLengthMismatch(
                f"{len(system.scu_presence)} presence labels for {pooled} gold units",
                line=line,
                field=f"systems[{i}].scu_presence",
            )
    return entry


def json_lines_oracle(lines) -> list[tuple[int, object]]:
    """The number, from 1, and the value of every line that is not blank,
    each decoded alone by a fresh ``json.JSONDecoder().decode``."""
    decoded = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            decoded.append((number, json.JSONDecoder().decode(line)))
        except (ValueError, RecursionError) as exc:
            raise SchemaViolation("not valid JSON", line=number) from exc
    return decoded


def load_dataset_oracle(path) -> list[ReferenceEntry]:
    """Read and validate a dataset file; entries come back in file order."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            lines = handle.read().split("\n")
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc
    entries = []
    seen = {}
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except ValueError as exc:
            raise SchemaViolation("not valid JSON", line=number) from exc
        entry = _parse_entry(raw, number)
        if entry.example_id in seen:
            raise DuplicateExampleId(
                f"example_id {entry.example_id!r} already used on line "
                f"{seen[entry.example_id]}",
                line=number,
                field="example_id",
            )
        seen[entry.example_id] = number
        entries.append(entry)
    return entries


def load_units_oracle(path) -> list[UnitFileRow]:
    """Read unit rows back; the inverse of :func:`save_units`."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            lines = handle.read().split("\n")
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc
    rows = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except ValueError as exc:
            raise SchemaViolation("not valid JSON", line=number) from exc
        _require(isinstance(raw, dict), "row must be an object", number, "")
        example_id = raw.get("example_id")
        _require(isinstance(example_id, str), "missing string 'example_id'", number, "example_id")
        reference_index = raw.get("reference_index")
        _require(
            isinstance(reference_index, int) and not isinstance(reference_index, bool)
            and reference_index >= 0,
            "'reference_index' must be a non-negative integer",
            number,
            "reference_index",
        )
        strategy = raw.get("strategy")
        _require(
            isinstance(strategy, str) and strategy in VALID_STRATEGIES,
            f"'strategy' must be one of {', '.join(VALID_STRATEGIES)}",
            number,
            "strategy",
        )
        text = raw.get("text")
        _require(
            isinstance(text, str) and text.strip() != "",
            "missing non-empty string 'text'",
            number,
            "text",
        )
        rows.append(UnitFileRow(example_id, reference_index, strategy, text))
    return rows


def load_scores_oracle(path) -> dict[tuple[str, str], float]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            lines = handle.read().split("\n")
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc
    scores = {}
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except ValueError as exc:
            raise SchemaViolation("not valid JSON", line=number) from exc
        if not isinstance(raw, dict):
            raise SchemaViolation("row must be an object", line=number)
        example_id = raw.get("example_id")
        system_id = raw.get("system_id")
        value = raw.get("score")
        if not isinstance(example_id, str) or not isinstance(system_id, str):
            raise SchemaViolation(
                "rows need string 'example_id' and 'system_id'", line=number
            )
        if not is_finite_number(value):
            raise SchemaViolation(
                "'score' must be a finite number", line=number, field="score"
            )
        scores[(example_id, system_id)] = float(value)
    return scores


# ---------------------------------------------------------------------------
# The loaders' row checks with every record built by its constructor and
# every number checked by is_finite_number: the references for the
# loaders, which build records with tuple.__new__. The lines come from the
# loaders' own reader.

_REFERENCE_LABELS = {0: 0, 1: 1}


def _reference_system_error(message, line, index, name):
    return SchemaViolation(message, line=line, field=f"systems[{index}]{name}")


def parse_entry_reference(value, line: int) -> ReferenceEntry:
    """One decoded dataset row as :func:`autopyramid.data._parse_entry`
    checks it, its errors in the same order."""
    if type(value) is not dict:
        raise SchemaViolation("entry must be an object", line=line, field="")
    example_id = value.get("example_id")
    if type(example_id) is not str or not example_id:
        raise SchemaViolation("missing string 'example_id'", line=line, field="example_id")
    references_raw = value.get("references")
    if type(references_raw) is not list or not references_raw:
        raise SchemaViolation(
            "'references' must be a non-empty list", line=line, field="references"
        )
    pooled = 0
    for i, reference in enumerate(references_raw):
        if type(reference) is not dict:
            raise SchemaViolation(
                "reference must be an object", line=line, field=f"references[{i}]"
            )
        if type(reference.get("text")) is not str:
            raise SchemaViolation(
                "missing string 'text'", line=line, field=f"references[{i}].text"
            )
        scus = reference.get("scus", [])
        if type(scus) is not list:
            raise SchemaViolation(
                "'scus' must be a list", line=line, field=f"references[{i}].scus"
            )
        for k, scu in enumerate(scus):
            if type(scu) is not str or not scu or scu.isspace():
                raise SchemaViolation(
                    "gold unit must be a non-empty string",
                    line=line,
                    field=f"references[{i}].scus[{k}]",
                )
        pooled += len(scus)
    systems_raw = value.get("systems", [])
    if type(systems_raw) is not list:
        raise SchemaViolation("'systems' must be a list", line=line, field="systems")
    fields = []
    seen_ids = set()
    duplicate = mismatch = None
    for i, system in enumerate(systems_raw):
        if type(system) is not dict:
            raise _reference_system_error("system must be an object", line, i, "")
        system_id = system.get("system_id")
        if type(system_id) is not str or not system_id:
            raise _reference_system_error("missing string 'system_id'", line, i, ".system_id")
        summary = system.get("summary")
        if type(summary) is not str:
            raise _reference_system_error("missing string 'summary'", line, i, ".summary")
        human_score = system.get("human_score")
        if human_score is not None:
            if not is_finite_number(human_score):
                raise _reference_system_error(
                    "'human_score' must be a finite number", line, i, ".human_score"
                )
            human_score = float(human_score)
        presence = system.get("scu_presence")
        if presence is not None:
            labels = None
            if type(presence) is list:
                try:
                    labels = tuple(map(_REFERENCE_LABELS.__getitem__, presence))
                except (KeyError, TypeError):
                    pass
            if labels is None:
                raise _reference_system_error(
                    "'scu_presence' must be a list of 0/1", line, i, ".scu_presence"
                )
            presence = labels
            if mismatch is None and len(presence) != pooled:
                mismatch = i
        if system_id in seen_ids:
            if duplicate is None:
                duplicate = i
        else:
            seen_ids.add(system_id)
        fields.append((system_id, summary, human_score, presence))
    if duplicate is not None:
        raise SchemaViolation(
            f"duplicate system_id {fields[duplicate][0]!r}",
            line=line,
            field=f"systems[{duplicate}].system_id",
        )
    if mismatch is not None:
        raise PresenceLengthMismatch(
            f"{len(fields[mismatch][3])} presence labels for {pooled} gold units",
            line=line,
            field=f"systems[{mismatch}].scu_presence",
        )
    return ReferenceEntry(
        example_id,
        tuple(Reference(r["text"], tuple(r.get("scus", ()))) for r in references_raw),
        tuple(itertools.starmap(SystemSummary, fields)),
    )


def _reference_stray_rows(count):
    return "the only stray row" if count == 1 else f"the first of {count} stray rows"


def load_units_reference(path, *, reference_counts=None) -> list[UnitFileRow]:
    """:func:`autopyramid.data.load_units`, row checks and stray rows."""
    rows = []
    stray = 0
    for number, raw in _json_lines(read_input(path)):
        if type(raw) is not dict:
            raise SchemaViolation("row must be an object", line=number, field="")
        example_id = raw.get("example_id")
        if type(example_id) is not str:
            raise SchemaViolation("missing string 'example_id'", line=number, field="example_id")
        reference_index = raw.get("reference_index")
        if type(reference_index) is not int or reference_index < 0:
            raise SchemaViolation(
                "'reference_index' must be a non-negative integer",
                line=number,
                field="reference_index",
            )
        strategy = raw.get("strategy")
        if type(strategy) is not str or strategy not in VALID_STRATEGIES:
            raise SchemaViolation(
                f"'strategy' must be one of {', '.join(VALID_STRATEGIES)}",
                line=number,
                field="strategy",
            )
        text = raw.get("text")
        if type(text) is not str or not text or text.isspace():
            raise SchemaViolation("missing non-empty string 'text'", line=number, field="text")
        if reference_counts is not None:
            count = reference_counts.get(example_id)
            if count is None or reference_index >= count:
                if not stray:
                    first_stray = (number, example_id, reference_index, count)
                stray += 1
        rows.append(UnitFileRow(example_id, reference_index, strategy, text))
    if stray:
        number, example_id, reference_index, count = first_stray
        if count is None:
            what, field = "is not in the dataset", "example_id"
        else:
            what, field = f"has no reference {reference_index}", "reference_index"
        raise SchemaViolation(
            f"example {example_id!r} {what} ({_reference_stray_rows(stray)})",
            line=number,
            field=field,
        )
    return rows


def load_scores_reference(path, cells) -> dict[tuple[str, str], float]:
    """:func:`autopyramid.data.load_scores`, row checks and stray rows."""
    scores = {}
    lines_of = {}
    stray = 0
    for number, raw in _json_lines(read_input(path)):
        if type(raw) is not dict:
            raise SchemaViolation("row must be an object", line=number)
        example_id = raw.get("example_id")
        system_id = raw.get("system_id")
        value = raw.get("score")
        if type(example_id) is not str or type(system_id) is not str:
            raise SchemaViolation("rows need string 'example_id' and 'system_id'", line=number)
        if not is_finite_number(value):
            raise SchemaViolation("'score' must be a finite number", line=number, field="score")
        cell = (example_id, system_id)
        if cell in lines_of:
            reason = f"repeats line {lines_of[cell]}"
        elif cell not in cells:
            reason = "is not in the dataset"
        else:
            lines_of[cell] = number
            scores[cell] = float(value)
            continue
        if not stray:
            first_stray = (number, f"{example_id}/{system_id} {reason}")
        stray += 1
    if stray:
        number, what = first_stray
        raise SchemaViolation(f"{what} ({_reference_stray_rows(stray)})", line=number)
    return scores


def split_sentences_oracle(text, abbreviations=DEFAULT_ABBREVIATIONS):
    """Split *text* into sentences on '.', '!', '?' at a word boundary.

    A terminator only splits when followed by whitespace or end-of-text,
    and a '.' does not split when the preceding word is in *abbreviations*.
    Sentences are trimmed, in text order; empty ones are never produced.
    """
    sentences = []
    start = 0
    for i, ch in enumerate(text):
        if ch not in ".!?":
            continue
        if i + 1 < len(text) and not text[i + 1].isspace():
            continue
        if ch == "." and _abbreviation_before(text, i, abbreviations):
            continue
        piece = text[start : i + 1].strip()
        if piece:
            sentences.append(piece)
        start = i + 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def isomorphic(a: AmrGraph, b: AmrGraph) -> bool:
    """True when a variable bijection maps *a* onto *b* exactly.

    The bijection must preserve the root, every concept, the edge multiset,
    and the attribute multiset. Backtracking over concept-compatible
    candidates, with a loop rather than recursion, so graphs of any size
    compare; the search is exhaustive, so graphs with many interchangeable
    nodes can take long.
    """
    if (
        len(a.nodes) != len(b.nodes)
        or len(a.edges) != len(b.edges)
        or len(a.attributes) != len(b.attributes)
    ):
        return False

    def signatures(g: AmrGraph) -> dict:
        out: dict[str, list[str]] = {v: [] for v in g.nodes}
        into: dict[str, list[str]] = {v: [] for v in g.nodes}
        attrs: dict[str, list[tuple[str, str]]] = {v: [] for v in g.nodes}
        for s, r, t in g.edges:
            out[s].append(r)
            into[t].append(r)
        for s, r, v in g.attributes:
            attrs[s].append((r, v))
        return {
            v: (
                (g.nodes[v], tuple(sorted(out[v])), tuple(sorted(into[v]))),
                tuple(sorted(attrs[v])),
            )
            for v in g.nodes
        }

    def links(g: AmrGraph) -> dict[str, dict[str, list[tuple[str, bool]]]]:
        """Per node, the sorted roles joining it to each neighbour:
        ``(role, True)`` for an edge out of it, ``(role, False)`` into it."""
        table: dict[str, dict[str, list[tuple[str, bool]]]] = {v: {} for v in g.nodes}
        for s, r, t in g.edges:
            table[s].setdefault(t, []).append((r, True))
            table[t].setdefault(s, []).append((r, False))
        for neighbours in table.values():
            for roles in neighbours.values():
                roles.sort()
        return table

    a_sig, b_sig = signatures(a), signatures(b)
    by_sig: dict = {}
    for w in b.nodes:
        by_sig.setdefault(b_sig[w], []).append(w)
    candidates = {v: by_sig.get(a_sig[v], []) for v in a.nodes}
    if any(not c for c in candidates.values()):
        return False
    if b.root not in candidates[a.root]:
        return False
    candidates[a.root] = [b.root]
    a_links, b_links = links(a), links(b)

    order = sorted(a.nodes, key=lambda v: len(candidates[v]))
    mapping: dict[str, str] = {}
    inverse: dict[str, str] = {}

    def fits(var: str, cand: str) -> bool:
        """Every mapped node is joined to *var* in *a* by the roles its image
        is joined to *cand* in *b*."""
        near_var, near_cand = a_links[var], b_links[cand]
        return all(
            near_cand.get(mapping[seen], []) == roles
            for seen, roles in near_var.items()
            if seen in mapping
        ) and all(inverse[w] in near_var for w in near_cand if w in inverse)

    def complete() -> bool:
        mapped_edges = sorted((mapping[s], r, mapping[t]) for s, r, t in a.edges)
        if mapped_edges != sorted(b.edges):
            return False
        mapped_attrs = sorted((mapping[s], r, v) for s, r, v in a.attributes)
        return mapped_attrs == sorted(b.attributes)

    # the untried candidates of each assigned variable, in order
    untried = [iter(candidates[order[0]])]
    while untried:
        var = order[len(untried) - 1]
        if var in mapping:
            del inverse[mapping.pop(var)]
        for cand in untried[-1]:
            if cand not in inverse and fits(var, cand):
                mapping[var] = cand
                inverse[cand] = var
                break
        else:
            untried.pop()
            continue
        if len(untried) < len(order):
            untried.append(iter(candidates[order[len(untried)]]))
        elif complete():
            return True
    return False


def lexical_presence(premise, hypothesis):
    """Clipped unigram recall of the hypothesis inside the premise, one
    pair at a time: the definition ``lexical_scorer`` must equal."""
    hyp = split_alnum(hypothesis.lower())
    if not hyp:
        return 0.0
    remaining = {}
    for token in split_alnum(premise.lower()):
        remaining[token] = remaining.get(token, 0) + 1
    overlap = 0
    for token in hyp:
        if remaining.get(token, 0) > 0:
            remaining[token] -= 1
            overlap += 1
    return overlap / len(hyp)
