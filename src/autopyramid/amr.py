"""PENMAN graph model: parsing, serialization, and the depth-first walk.

The accepted grammar is the core PENMAN notation::

    node     := '(' variable '/' concept relation* ')'
    relation := role (node | variable | constant)
    role     := ':' name
    constant := "quoted string" | number | '-' | '+'

A bare token in value position is a variable reference (a re-entrancy) and
must be defined somewhere in the same graph; forward references are fine.
Graphs are named tuples, immutable and safe to share across threads. A
graph is checked once, where it enters: ``AmrGraph(...)``, ``_replace``,
unpickling and copying validate it, while :func:`parse_penman` checks the
text as it reads it and so returns graphs that need no second check.

Files hold one graph per blank-line-separated block. Lines starting with
'#' are comments; a ``# ::snt <text>`` comment carries the source sentence
for the block. :func:`load_penman_file` gives the blocks one at a time, as
:class:`PenmanEntry` tuples, as it reads them, so a caller that takes a
graph at a time never holds the graphs of the whole file. It reads through
:func:`~autopyramid.data.read_rows`, as every loader does, so the first
block that does not parse closes the file and names it.
"""

from __future__ import annotations

import itertools
import re
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

from .data import read_rows
from .errors import DisconnectedGraph, MalformedPenman


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


class _GraphFields(NamedTuple):
    root: str
    nodes: Mapping[str, str]
    edges: tuple[Edge, ...] = ()
    attributes: tuple[Attribute, ...] = ()


class AmrGraph(_GraphFields):
    """A rooted, directed, edge-labeled graph, a named tuple of its fields.

    ``nodes`` maps each variable to its single concept, read-only, and is
    left out of the hash; ``edges`` and ``attributes`` preserve input
    order, which drives deterministic serialization. ``AmrGraph(...)``,
    ``_replace``, unpickling and copying validate the invariants: the root
    exists, every edge endpoint is a known variable, every node is
    connected to the root when edge direction is ignored (a walk from the
    root, so edges may come in any order), and each token reads back from
    :func:`serialize_penman`'s text as itself. A variable is a bare token
    that is not a constant, a concept a bare token or a quoted string, a
    role ':' and a bare token, and an attribute value a constant (a
    well-escaped quoted string, a number, '-' or '+'); the serializer
    quotes nothing. The two producers that hold these invariants by
    construction, :func:`parse_penman` and the splitter in
    :mod:`autopyramid.smu`, build through :meth:`_trusted` instead, so each
    graph is checked once, where it enters.
    """

    __slots__ = ()

    def __new__(cls, root: str, nodes: Mapping[str, str], edges=(), attributes=()):
        nodes = dict(nodes)
        edges = tuple(Edge(*e) for e in edges)
        attributes = tuple(Attribute(*a) for a in attributes)
        graph = super().__new__(cls, root, MappingProxyType(nodes), edges, attributes)
        graph._validate(nodes)
        return graph

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would skip the checks
        return cls(*iterable)

    @classmethod
    def _trusted(cls, root: str, nodes: dict[str, str], edges, attributes) -> AmrGraph:
        """A graph whose invariants the caller has established: *nodes* is
        a fresh dict the graph takes over, read-only, and *edges* and
        *attributes* are tuples of only :class:`Edge` and :class:`Attribute`."""
        return tuple.__new__(cls, (root, MappingProxyType(nodes), edges, attributes))

    def __hash__(self):
        # the read-only node mapping does not hash
        return hash((self.root, self.edges, self.attributes))

    def __reduce__(self):
        # the read-only node mapping does not pickle; a copy is rebuilt
        # from a plain dict, through the same validation
        return (AmrGraph, (self.root, dict(self.nodes), self.edges, self.attributes))

    def _validate(self, nodes: dict[str, str]) -> None:
        if not nodes:
            raise ValueError("graph has no nodes")
        if self.root not in nodes:
            raise ValueError(f"root {self.root!r} is not a node")
        for var, concept in nodes.items():
            if not _NAME_RE.fullmatch(var) or _CONSTANT_RE.fullmatch(var):
                raise ValueError(f"bad variable {var!r}")
            if not (_NAME_RE.fullmatch(concept) or _QUOTED_RE.fullmatch(concept)):
                raise ValueError(f"bad concept {concept!r} of node {var!r}")
        # each edge taken both ways, for the walk that checks connectivity
        both: dict[str, list[Edge]] = {}
        for source, role, target in self.edges:
            if source not in nodes:
                raise ValueError(f"edge source {source!r} is not a node")
            if target not in nodes:
                raise ValueError(f"edge target {target!r} is not a node")
            if not _ROLE_RE.fullmatch(role):
                raise ValueError(f"bad role label {role!r}")
            both.setdefault(source, []).append(Edge(source, role, target))
            both.setdefault(target, []).append(Edge(target, role, source))
        for source, role, value in self.attributes:
            if source not in nodes:
                raise ValueError(f"attribute owner {source!r} is not a node")
            if not _ROLE_RE.fullmatch(role):
                raise ValueError(f"bad role label {role!r}")
            if not _CONSTANT_RE.fullmatch(value):
                raise ValueError(f"attribute value {value!r} is not a constant")
        entered: dict[str, Edge | None] = {}
        for _ in walk(self.root, both, entered):
            pass
        unreachable = set(nodes) - entered.keys()
        if unreachable:
            raise ValueError(f"nodes not connected to root: {', '.join(sorted(unreachable))}")


# ---------------------------------------------------------------------------
# Parsing


# a quoted string ends at its line's "\n", as a line of the file does, so
# one that is not closed on its own line lexes as bare tokens
_QUOTED = r'"(?:[^"\\\n]|\\.)*"'
_TOKEN_RE = re.compile(rf"{_QUOTED}|\(|\)|/|[^\s()/]+")
_NUMBER = r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?"
_NUMBER_RE = re.compile(_NUMBER + "$")
_SYNTAX = ("(", ")", "/")

# The tokens a graph is built from, each matched whole as parse_penman
# reads it back from serialized text: a bare name (not a quoted string's
# start, nor a role), a role, a quoted string, and a constant.
_NAME_RE = re.compile(r'[^\s()/":][^\s()/]*')
_ROLE_RE = re.compile(r":[^\s()/]+")
_QUOTED_RE = re.compile(_QUOTED)
_CONSTANT_RE = re.compile(rf"{_QUOTED}|[-+]|{_NUMBER}")


def _position(text: str, first_line: int, index: int) -> tuple[int, int]:
    """Line and column of token *index* of *text*, whose lines end at
    ``"\\n"``; worked out only for an error message."""
    positions = (
        (number, match.start() + 1)
        for number, line in enumerate(text.split("\n"), start=first_line)
        for match in _TOKEN_RE.finditer(line)
    )
    return next(itertools.islice(positions, index, None))


def parse_penman(text: str, first_line: int = 1) -> AmrGraph:
    """Parse one PENMAN graph from *text*.

    Re-entrant variable mentions become edges, never new nodes. Raises
    :class:`MalformedPenman` with line and column for unbalanced
    parentheses, a missing '/', a variable that reads as a constant, an
    unclosed quoted string, duplicate variable definitions, and references
    to undefined variables.
    """
    tokens = _TOKEN_RE.findall(text)
    count = len(tokens)
    if not count:
        raise MalformedPenman("empty input", first_line, 1)
    # an empty string past the last token reads as the end of input
    tokens.append("")

    def fail(message: str, index: int) -> MalformedPenman:
        return MalformedPenman(message, *_position(text, first_line, index))

    def reject(index: int, expected: str, message: str) -> MalformedPenman:
        """*message* about token *index*, or, past the last token, that
        *expected* is missing."""
        if tokens[index]:
            return fail(message, index)
        return fail(f"unexpected end of input, expected {expected}", count - 1)

    nodes: dict[str, str] = {}
    edges: list[Edge] = []
    attributes: list[Attribute] = []
    references: list[tuple[str, int]] = []

    def open_node(pos: int) -> str:
        """Record the node ``'(' variable '/' concept`` that starts at *pos*."""
        if tokens[pos] != "(":
            raise reject(pos, "'('", f"expected '(' but found {tokens[pos]!r}")
        var = tokens[pos + 1]
        if not var or var in _SYNTAX or var[0] in ':"':
            raise reject(pos + 1, "a variable", f"expected a variable but found {var!r}")
        # a variable that reads as a constant would read back as a value;
        # no constant starts with a letter
        if not var[0].isalpha() and _CONSTANT_RE.fullmatch(var):
            raise fail(f"expected a variable but found {var!r}", pos + 1)
        if var in nodes:
            raise fail(f"duplicate definition of variable {var!r}", pos + 1)
        if tokens[pos + 2] != "/":
            raise reject(pos + 2, "'/'", f"missing '/' after variable {var!r}")
        concept = tokens[pos + 3]
        if not concept or concept in _SYNTAX or concept[0] == ":":
            raise reject(pos + 3, "a concept", f"expected a concept but found {concept!r}")
        if concept[0] == '"' and not _QUOTED_RE.fullmatch(concept):
            raise fail(f"unclosed quoted string {concept!r}", pos + 3)
        nodes[var] = concept
        return var

    root = open_node(0)
    pos = 4
    # the nodes whose ')' is still to come, innermost last; a loop, not
    # recursion, so any nesting depth parses
    open_nodes = [root]
    while open_nodes:
        role = tokens[pos]
        if role == ")":
            open_nodes.pop()
            pos += 1
            continue
        if not role.startswith(":") or len(role) < 2:
            raise reject(pos, "a role or ')'", f"expected a role or ')' but found {role!r}")
        value = tokens[pos + 1]
        if value == "(":
            # the edge goes in before the child's own edges, so edges keep
            # text-encounter order
            child = open_node(pos + 1)
            edges.append(Edge(open_nodes[-1], role, child))
            open_nodes.append(child)
            pos += 5
        elif not value:
            raise fail(f"role {role!r} has no value", pos)
        elif value in _SYNTAX or value[0] == ":":
            raise fail(f"role {role!r} has no value", pos + 1)
        elif value[0] == '"' and not _QUOTED_RE.fullmatch(value):
            raise fail(f"unclosed quoted string {value!r}", pos + 1)
        elif value[0] == '"' or value in ("-", "+") or _NUMBER_RE.match(value):
            attributes.append(Attribute(open_nodes[-1], role, value))
            pos += 2
        else:
            edges.append(Edge(open_nodes[-1], role, value))
            references.append((value, pos + 1))
            pos += 2
    if pos < count:
        raise fail(
            f"unexpected {tokens[pos]!r} after the graph (unbalanced parentheses?)", pos
        )
    for var, index in references:
        if var not in nodes:
            raise fail(f"reference to undefined variable {var!r}", index)
    # every invariant holds by now: variables, concepts, roles and values
    # are checked as they are read, every reference is defined, and every
    # node but the root is opened below an open node, so all are connected
    return AmrGraph._trusted(root, nodes, tuple(edges), tuple(attributes))


# ---------------------------------------------------------------------------
# Traversal


def child_map(graph: AmrGraph) -> dict[str, list[Edge]]:
    """Each node's outgoing edges, in stored order; nodes without any are
    left out."""
    children: dict[str, list[Edge]] = {}
    for edge in graph.edges:
        children.setdefault(edge.source, []).append(edge)
    return children


def attribute_map(graph: AmrGraph) -> dict[str, list[Attribute]]:
    """Each node's attributes, in stored order; nodes without any are left
    out."""
    attrs: dict[str, list[Attribute]] = {}
    for attr in graph.attributes:
        attrs.setdefault(attr.source, []).append(attr)
    return attrs


def walk(
    start: str, children: Mapping[str, list[Edge]], entered: dict[str, Edge | None]
) -> Iterator[tuple[Edge | None, bool]]:
    """Depth-first from *start* along edge direction, children in stored
    order.

    Every node the walk enters goes into *entered*, mapped to its defining
    edge, the one it was first reached by (None for *start*); a node
    already there is not entered again. Yields ``(edge, True)`` when the
    walk enters the target of *edge*, ``(edge, False)`` for an edge whose
    target it has entered before, and ``(None, False)`` when it leaves a
    node. A loop, not recursion, so any depth is walked.
    """
    entered[start] = None
    # the edges each entered node has still to visit, innermost last
    pending = [iter(children.get(start, ()))]
    while pending:
        for edge in pending[-1]:
            if edge.target in entered:
                yield edge, False
            else:
                entered[edge.target] = edge
                yield edge, True
                pending.append(iter(children.get(edge.target, ())))
                break
        else:
            pending.pop()
            yield None, False


def preorder(
    graph: AmrGraph, children: Mapping[str, list[Edge]]
) -> tuple[dict[str, Edge | None], list[str]]:
    """The defining edges of the walk from the root, and the depth-first
    order of every node.

    A node's defining edge is where it is expanded in serialized form, any
    other mention being a re-entrancy. Nodes the root does not reach have
    none, and the order walks on from each of them, in node order.
    """
    defining: dict[str, Edge | None] = {}
    order = [graph.root]
    order += [e.target for e, enters in walk(graph.root, children, defining) if enters]
    entered = dict(defining)
    for var in graph.nodes:
        if var not in entered:
            order.append(var)
            order += [e.target for e, enters in walk(var, children, entered) if enters]
    return defining, order


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
    attrs = attribute_map(graph)
    entered: dict[str, Edge | None] = {}
    parts: list[str] = []

    def open_node(var: str) -> None:
        parts.append(f"({var} / {graph.nodes[var]}")
        for attr in attrs.get(var, ()):
            parts.append(f" {attr.role} {attr.value}")

    open_node(graph.root)
    for edge, enters in walk(graph.root, child_map(graph), entered):
        if edge is None:
            parts.append(")")
        elif enters:
            parts.append(f" {edge.role} ")
            open_node(edge.target)
        else:
            parts.append(f" {edge.role} {edge.target}")
    if len(entered) < len(graph.nodes):
        missing = [v for v in graph.nodes if v not in entered]
        raise DisconnectedGraph(
            f"nodes unreachable from root {graph.root!r}: {', '.join(missing)}"
        )
    return "".join(parts)


# ---------------------------------------------------------------------------
# Files


class PenmanEntry(NamedTuple):
    """One graph from a PENMAN file plus its optional source sentence, and
    the file line its graph starts on."""

    graph: AmrGraph
    sentence: str | None = None
    line: int | None = None


_SNT_PREFIX = "# ::snt "


def load_penman_file(path, *, digests: dict | None = None) -> Iterator[PenmanEntry]:
    """The blank-line-separated PENMAN blocks of *path*, each parsed and
    given as the file is read (:func:`~autopyramid.data.read_rows`).

    '#'-prefixed lines are ignored except for ``# ::snt``, whose text is
    attached to the following graph. Only the block being read is held
    beside the one given. A parse error carries file-absolute line numbers.
    """
    return read_rows(path, _entries, digests)


def _entries(lines: Iterator[str]) -> Iterator[PenmanEntry]:
    block: list[str] = []
    block_start = 1
    sentence: str | None = None
    # a blank line past the last ends the last block
    for number, line in enumerate(itertools.chain(lines, ("",)), start=1):
        stripped = line.strip()
        if not stripped:
            if block:
                graph = parse_penman("\n".join(block), first_line=block_start)
                yield PenmanEntry(graph, sentence, block_start)
            block = []
            sentence = None
            block_start = number + 1
        elif stripped.startswith("#"):
            if stripped.startswith(_SNT_PREFIX):
                sentence = stripped[len(_SNT_PREFIX) :].strip() or None
            if not block:
                block_start = number + 1
            else:
                block.append("")
        else:
            block.append(line)
