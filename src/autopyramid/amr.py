"""PENMAN graph model: parsing, serialization, and subgraph extraction.

The accepted grammar is the core PENMAN notation::

    node     := '(' variable '/' concept relation* ')'
    relation := role (node | variable | constant)
    role     := ':' name
    constant := "quoted string" | number | '-' | '+'

A bare token in value position is a variable reference (a re-entrancy) and
must be defined somewhere in the same graph; forward references are fine.
Graphs are immutable once built and safe to share across threads.

Files hold one graph per blank-line-separated block. Lines starting with
'#' are comments; a ``# ::snt <text>`` comment carries the source sentence
for the block and is preserved by :func:`save_penman_file`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .errors import DisconnectedGraph, FileUnreadable, FileUnwritable, MalformedPenman


class Edge(NamedTuple):
    """A labeled edge between two variables."""

    source: str
    role: str
    target: str


class Attribute(NamedTuple):
    """A constant attached to a variable; ``value`` keeps the raw token,
    so quoted strings keep their quotes and round-trip verbatim."""

    source: str
    role: str
    value: str


@dataclass(frozen=True)
class AmrGraph:
    """A rooted, directed, edge-labeled graph.

    ``nodes`` maps each variable to its single concept; ``edges`` and
    ``attributes`` preserve input order, which drives deterministic
    serialization. Construction validates the structural invariants:
    the root exists, every edge endpoint is a known variable, roles start
    with ':', and every node is connected to the root when edge direction
    is ignored.
    """

    root: str
    nodes: dict[str, str]
    edges: tuple[Edge, ...] = ()
    attributes: tuple[Attribute, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "nodes", dict(self.nodes))
        object.__setattr__(self, "edges", tuple(Edge(*e) for e in self.edges))
        object.__setattr__(
            self, "attributes", tuple(Attribute(*a) for a in self.attributes)
        )
        self._validate()

    def _validate(self) -> None:
        if not self.nodes:
            raise ValueError("graph has no nodes")
        if self.root not in self.nodes:
            raise ValueError(f"root {self.root!r} is not a node")
        for var, concept in self.nodes.items():
            if not var or not concept:
                raise ValueError(f"node {var!r} has an empty variable or concept")
        for source, role, target in self.edges:
            if source not in self.nodes:
                raise ValueError(f"edge source {source!r} is not a node")
            if target not in self.nodes:
                raise ValueError(f"edge target {target!r} is not a node")
            if not role.startswith(":") or len(role) < 2:
                raise ValueError(f"bad role label {role!r}")
        for source, role, value in self.attributes:
            if source not in self.nodes:
                raise ValueError(f"attribute owner {source!r} is not a node")
            if not role.startswith(":") or len(role) < 2:
                raise ValueError(f"bad role label {role!r}")
            if value == "":
                raise ValueError("empty attribute value")
        unreachable = set(self.nodes) - _undirected_reach(self.root, self.edges)
        if unreachable:
            raise ValueError(
                f"nodes not connected to root: {', '.join(sorted(unreachable))}"
            )

    def outgoing(self, var: str) -> list[Edge]:
        return [e for e in self.edges if e.source == var]

    def attributes_of(self, var: str) -> list[Attribute]:
        return [a for a in self.attributes if a.source == var]


def _undirected_reach(start: str, edges: Iterable[Edge]) -> set[str]:
    neighbors: dict[str, list[str]] = {}
    for source, _, target in edges:
        neighbors.setdefault(source, []).append(target)
        neighbors.setdefault(target, []).append(source)
    seen = {start}
    stack = [start]
    while stack:
        for other in neighbors.get(stack.pop(), []):
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return seen


# ---------------------------------------------------------------------------
# Parsing


class _Token(NamedTuple):
    text: str
    line: int
    column: int


_TOKEN_RE = re.compile(r'"(?:[^"\\]|\\.)*"|\(|\)|/|[^\s()/]+')
_NUMBER_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _lex(text: str, first_line: int = 1) -> list[_Token]:
    tokens = []
    for offset, line in enumerate(text.splitlines()):
        for match in _TOKEN_RE.finditer(line):
            tokens.append(_Token(match.group(), first_line + offset, match.start() + 1))
    return tokens


def _is_constant(token: str) -> bool:
    if token.startswith('"'):
        return True
    if token in ("-", "+"):
        return True
    return bool(_NUMBER_RE.match(token))


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, expected: str) -> _Token:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("", 1, 1)
            raise MalformedPenman(
                f"unexpected end of input, expected {expected}", last.line, last.column
            )
        self.pos += 1
        return tok

    def parse(self) -> AmrGraph:
        self.nodes: dict[str, str] = {}
        self.edges: list[Edge] = []
        self.attributes: list[Attribute] = []
        self.references: list[tuple[str, _Token]] = []
        root = self._open_node()
        # the nodes whose ')' is still to come, innermost last; a loop, not
        # recursion, so any nesting depth parses
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

    def _open_node(self) -> str:
        """Read ``'(' variable '/' concept`` and record the node."""
        opener = self._next("'('")
        if opener.text != "(":
            raise MalformedPenman(
                f"expected '(' but found {opener.text!r}", opener.line, opener.column
            )
        var_tok = self._next("a variable")
        var = var_tok.text
        if var in ("(", ")", "/") or var.startswith(":") or var.startswith('"'):
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
        self.nodes[var] = concept
        return var

    def _relation(self, open_nodes: list[str]) -> None:
        """Read the innermost open node's next relation, or its ')'."""
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
            # the edge goes in before the child's own edges, so edges keep
            # text-encounter order
            child = self._open_node()
            self.edges.append(Edge(var, role, child))
            open_nodes.append(child)
        elif value.text in (")", "/") or value.text.startswith(":"):
            raise MalformedPenman(f"role {role!r} has no value", value.line, value.column)
        elif _is_constant(value.text):
            self.pos += 1
            self.attributes.append(Attribute(var, role, value.text))
        else:
            self.pos += 1
            self.edges.append(Edge(var, role, value.text))
            self.references.append((value.text, value))


def parse_penman(text: str, first_line: int = 1) -> AmrGraph:
    """Parse one PENMAN graph from *text*.

    Re-entrant variable mentions become edges, never new nodes. Raises
    :class:`MalformedPenman` with line and column for unbalanced
    parentheses, a missing '/', duplicate variable definitions, and
    references to undefined variables.
    """
    tokens = _lex(text, first_line)
    if not tokens:
        raise MalformedPenman("empty input", first_line, 1)
    return _Parser(tokens).parse()


# ---------------------------------------------------------------------------
# Serialization


def serialize_penman(graph: AmrGraph) -> str:
    """Serialize *graph* to single-line PENMAN text.

    Depth-first from the root; children follow the stored edge order, a
    node's attributes come before its child edges, and any node seen a
    second time is emitted as a bare variable reference. Raises
    :class:`DisconnectedGraph` when some node cannot be reached from the
    root along edge direction.
    """
    children: dict[str, list[Edge]] = {}
    for edge in graph.edges:
        children.setdefault(edge.source, []).append(edge)
    attrs: dict[str, list[Attribute]] = {}
    for attr in graph.attributes:
        attrs.setdefault(attr.source, []).append(attr)
    visited: set[str] = set()
    parts: list[str] = []
    # the edges each open node has still to emit, innermost last
    pending: list[Iterator[Edge]] = []

    def open_node(var: str) -> None:
        visited.add(var)
        parts.append(f"({var} / {graph.nodes[var]}")
        for attr in attrs.get(var, []):
            parts.append(f" {attr.role} {attr.value}")
        pending.append(iter(children.get(var, [])))

    open_node(graph.root)
    while pending:
        for edge in pending[-1]:
            if edge.target in visited:
                parts.append(f" {edge.role} {edge.target}")
            else:
                parts.append(f" {edge.role} ")
                open_node(edge.target)
                break
        else:
            pending.pop()
            parts.append(")")
    text = "".join(parts)
    if len(visited) < len(graph.nodes):
        missing = [v for v in graph.nodes if v not in visited]
        raise DisconnectedGraph(
            f"nodes unreachable from root {graph.root!r}: {', '.join(missing)}"
        )
    return text


def subgraph(graph: AmrGraph, keep_root: str, keep_edges: Iterable[Edge]) -> AmrGraph:
    """A new graph from *keep_root*, the given edges, and their endpoints.

    Concepts come along for every retained node, attributes come along for
    retained nodes only. Raises :class:`DisconnectedGraph` when the kept
    edges do not connect every retained node to *keep_root*.
    """
    kept = [Edge(*e) for e in keep_edges]
    if keep_root not in graph.nodes:
        raise ValueError(f"keep_root {keep_root!r} is not a node of the graph")
    present = set(graph.edges)
    for edge in kept:
        if edge not in present:
            raise ValueError(f"edge {edge} is not part of the graph")
    retained = {keep_root}
    for edge in kept:
        retained.add(edge.source)
        retained.add(edge.target)
    reachable = _undirected_reach(keep_root, kept)
    stranded = retained - reachable
    if stranded:
        raise DisconnectedGraph(
            "kept edges do not connect "
            f"{', '.join(sorted(stranded))} to root {keep_root!r}"
        )
    kept_set = set(kept)
    return AmrGraph(
        root=keep_root,
        nodes={v: c for v, c in graph.nodes.items() if v in retained},
        edges=tuple(e for e in graph.edges if e in kept_set),
        attributes=tuple(a for a in graph.attributes if a.source in retained),
    )


# ---------------------------------------------------------------------------
# Isomorphism (used by round-trip checks)


def isomorphic(a: AmrGraph, b: AmrGraph) -> bool:
    """True when a variable bijection maps *a* onto *b* exactly.

    The bijection must preserve the root, every concept, the edge multiset,
    and the attribute multiset. Backtracking over concept-compatible
    candidates; meant for the small graphs this toolkit handles.
    """
    if (
        len(a.nodes) != len(b.nodes)
        or len(a.edges) != len(b.edges)
        or len(a.attributes) != len(b.attributes)
    ):
        return False

    def attr_sig(g: AmrGraph, var: str):
        return tuple(sorted((r, v) for s, r, v in g.attributes if s == var))

    def degree_sig(g: AmrGraph, var: str):
        out = sorted(r for s, r, _ in g.edges if s == var)
        into = sorted(r for _, r, t in g.edges if t == var)
        return (g.nodes[var], tuple(out), tuple(into))

    a_sig = {v: (degree_sig(a, v), attr_sig(a, v)) for v in a.nodes}
    b_sig = {v: (degree_sig(b, v), attr_sig(b, v)) for v in b.nodes}
    candidates = {
        v: [w for w in b.nodes if b_sig[w] == a_sig[v]] for v in a.nodes
    }
    if any(not c for c in candidates.values()):
        return False
    if b.root not in candidates[a.root]:
        return False
    candidates[a.root] = [b.root]

    order = sorted(a.nodes, key=lambda v: len(candidates[v]))
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def pair_roles(g: AmrGraph, x: str, y: str):
        roles = [(r, True) for s, r, t in g.edges if s == x and t == y]
        roles += [(r, False) for s, r, t in g.edges if s == y and t == x]
        return sorted(roles)

    def assign(i: int) -> bool:
        if i == len(order):
            mapped_edges = sorted(
                (mapping[s], r, mapping[t]) for s, r, t in a.edges
            )
            if mapped_edges != sorted(b.edges):
                return False
            mapped_attrs = sorted((mapping[s], r, v) for s, r, v in a.attributes)
            return mapped_attrs == sorted(b.attributes)
        var = order[i]
        for cand in candidates[var]:
            if cand in used:
                continue
            if any(
                pair_roles(a, var, seen) != pair_roles(b, cand, mapping[seen])
                for seen in mapping
            ):
                continue
            mapping[var] = cand
            used.add(cand)
            if assign(i + 1):
                return True
            del mapping[var]
            used.discard(cand)
        return False

    return assign(0)


# ---------------------------------------------------------------------------
# Files


@dataclass(frozen=True)
class PenmanEntry:
    """One graph from a PENMAN file plus its optional source sentence."""

    graph: AmrGraph
    sentence: str | None = None


_SNT_PREFIX = "# ::snt "


def load_penman_file(path) -> list[PenmanEntry]:
    """Read blank-line-separated PENMAN blocks from *path*.

    '#'-prefixed lines are ignored except for ``# ::snt``, whose text is
    attached to the following graph. Parse errors carry file-absolute line
    numbers.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc

    entries: list[PenmanEntry] = []
    block: list[str] = []
    block_start = 1
    sentence: str | None = None

    def flush():
        nonlocal block, sentence
        if any(line.strip() for line in block):
            graph = parse_penman("\n".join(block), first_line=block_start)
            entries.append(PenmanEntry(graph, sentence))
        block = []
        sentence = None

    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            flush()
            block_start = number + 1
            continue
        if stripped.startswith("#"):
            if stripped.startswith(_SNT_PREFIX.strip() + " "):
                sentence = stripped[len(_SNT_PREFIX.strip()) :].strip() or None
            if not block:
                block_start = number + 1
            else:
                block.append("")
            continue
        block.append(line)
    flush()
    return entries


def save_penman_file(path, entries: Iterable[PenmanEntry]) -> None:
    """Write graphs as blank-line-separated blocks with ``# ::snt`` comments."""
    blocks = []
    for entry in entries:
        lines = []
        if entry.sentence:
            lines.append(_SNT_PREFIX + entry.sentence)
        lines.append(serialize_penman(entry.graph))
        blocks.append("\n".join(lines))
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n\n".join(blocks))
            if blocks:
                handle.write("\n")
    except OSError as exc:
        raise FileUnwritable(f"cannot write {path}: {exc}") from exc
