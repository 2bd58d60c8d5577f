"""Split semantic graphs into event subgraphs and turn them into text.

The splitter finds every predicate (a concept with a numeric sense suffix
such as ``want-01``) and, for each of its core roles (``:ARGn`` labels,
including ``:ARGn-of`` inverses normalized to forward direction), cuts out
a subgraph holding the predicate, that core-role edge, and the full
descendant subtree below the role filler. Modifier edges hanging off the
predicate itself (``:time``, ``:manner``, ...) are pruned; modifiers deeper
inside the role subtree stay. A re-entrant mention deeper in the subtree,
pointing at a node defined elsewhere in the graph, keeps the edge but only
copies the referenced node's concept and attributes, so every subgraph is
self-contained.

Two split modes exist: ``one-cr`` (the default) emits one subgraph per
core role, ``all-deps`` groups all core roles of a predicate into a single
subgraph.

Realization is pluggable: :func:`realize_baseline` is a deterministic
offline template, :func:`realize_remote` calls a generation service.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .amr import AmrGraph, Attribute, Edge, serialize_penman
from .errors import MalformedServiceReply
from .services import GraphToTextClient

_PREDICATE_RE = re.compile(r".+-(\d{2,})$")
_CORE_RE = re.compile(r":ARG(\d+)$")
# a core role, forward or (with group 2) inverse
_CORE_ROLE_RE = re.compile(r":ARG(\d+)(-of)?")
_OP_RE = re.compile(r":op(\d+)")

SPLIT_MODES = ("one-cr", "all-deps")


@dataclass(frozen=True)
class PredicateNode:
    """A node whose concept carries a sense suffix, e.g. ``recruit-01``."""

    variable: str
    concept: str
    sense: int

    @property
    def lemma(self) -> str:
        return self.concept.rsplit("-", 1)[0]


@dataclass(frozen=True)
class CoreRoleEdge:
    """A core-role edge of a predicate, in normalized (forward) reading.

    ``edge`` is the stored edge as it appears in the graph; when ``inverse``
    is set it carries an ``:ARGn-of`` label and the normalized direction
    runs from its target (the predicate) to its source.
    """

    edge: Edge
    arg_index: int
    inverse: bool

    @property
    def predicate_var(self) -> str:
        return self.edge.target if self.inverse else self.edge.source

    @property
    def filler_var(self) -> str:
        return self.edge.source if self.inverse else self.edge.target

    @property
    def role(self) -> str:
        return f":ARG{self.arg_index}"


@dataclass(frozen=True)
class SmuCandidate:
    """One unit candidate: a subgraph rooted at its predicate, plus the
    core roles it was cut around."""

    subgraph: AmrGraph
    predicate: PredicateNode
    core_roles: tuple[CoreRoleEdge, ...]


def _children(graph: AmrGraph) -> dict[str, list[Edge]]:
    children: dict[str, list[Edge]] = {}
    for edge in graph.edges:
        children.setdefault(edge.source, []).append(edge)
    return children


def _walk(
    start: str, children: dict[str, list[Edge]], entered: dict[str, Edge | None]
) -> list[str]:
    """Depth-first preorder from *start* along edge direction, skipping and
    extending *entered*, which maps each node to the edge it was first
    reached by. A loop, not recursion, so any depth is walked."""
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


def _traverse(graph: AmrGraph) -> tuple[dict, dict[str, Edge | None], list[str]]:
    """The child map, the defining edges and the depth-first order of
    *graph*, from one walk.

    A node's defining edge is the one the walk from the root first reaches
    it by (None for the root): where it is expanded in serialized form, any
    other mention being a re-entrancy. Nodes the root does not reach have
    none, and the order walks on from each of them, in node order.
    """
    children = _children(graph)
    defining: dict[str, Edge | None] = {}
    order = _walk(graph.root, children, defining)
    if len(order) < len(graph.nodes):
        entered = dict(defining)
        for var in graph.nodes:
            if var not in entered:
                order += _walk(var, children, entered)
    return children, defining, order


def _predicates(graph: AmrGraph, order: list[str]) -> list[PredicateNode]:
    predicates = []
    for var in order:
        concept = graph.nodes[var]
        match = _PREDICATE_RE.match(concept)
        if match:
            predicates.append(PredicateNode(var, concept, int(match.group(1))))
    return predicates


def find_predicates(graph: AmrGraph) -> list[PredicateNode]:
    """All predicate nodes, ordered by first appearance in a depth-first
    traversal from the root."""
    return _predicates(graph, _traverse(graph)[2])


def _build_candidate(
    graph: AmrGraph,
    predicate: PredicateNode,
    group: tuple[CoreRoleEdge, ...],
    stored: set[Edge],
    defining: dict[str, Edge | None],
    children: dict[str, list[Edge]],
) -> SmuCandidate:
    """The subgraph of *group*; every edge in *stored*, the predicate's
    core-role edges as stored, is left out of the expansion, and only the
    group's are put back, in normalized direction."""
    nodes: dict[str, str] = {predicate.variable: predicate.concept}
    edges: list[Edge] = []
    for core in group:
        filler = core.filler_var
        edges.append(Edge(predicate.variable, core.role, filler))
        if filler in nodes:
            continue
        nodes[filler] = graph.nodes[filler]
        # the edges each expanded node has still to visit, innermost last
        pending = [iter(children.get(filler, ()))]
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
                    pending.append(iter(children.get(target, ())))
                    break
                # otherwise a re-entrant mention of a node defined
                # elsewhere: keep the edge, copy only the concept
                # (attributes travel below)
            else:
                pending.pop()

    attributes = tuple(a for a in graph.attributes if a.source in nodes)
    sub = AmrGraph(
        root=predicate.variable,
        nodes=nodes,
        edges=tuple(edges),
        attributes=attributes,
    )
    return SmuCandidate(sub, predicate, group)


def split_graph(graph: AmrGraph, mode: str = "one-cr") -> list[SmuCandidate]:
    """Cut *graph* into per-predicate core-role subgraphs.

    Predicates without any core role contribute nothing. Output order is
    deterministic: predicates in depth-first order, and within a predicate
    its core roles in stored edge order.
    """
    if mode not in SPLIT_MODES:
        raise ValueError(f"unknown split mode {mode!r}, expected one of {SPLIT_MODES}")
    children, defining, order = _traverse(graph)
    predicates = _predicates(graph, order)
    # the core roles of every predicate, from one pass over the edges
    roles: dict[str, list[CoreRoleEdge]] = {p.variable: [] for p in predicates}
    for edge in graph.edges:
        match = _CORE_ROLE_RE.fullmatch(edge.role)
        if match:
            inverse = match.group(2) is not None
            owner = roles.get(edge.target if inverse else edge.source)
            if owner is not None:
                owner.append(CoreRoleEdge(edge, int(match.group(1)), inverse))

    candidates = []
    for predicate in predicates:
        cores = roles[predicate.variable]
        if not cores:
            continue
        stored = {core.edge for core in cores}
        groups = [(r,) for r in cores] if mode == "one-cr" else [tuple(cores)]
        for group in groups:
            candidates.append(
                _build_candidate(graph, predicate, group, stored, defining, children)
            )
    return candidates


# ---------------------------------------------------------------------------
# Realization


def _strip_quotes(value: str) -> str:
    if len(value) >= 2 and value.startswith('"') and value.endswith('"'):
        return value[1:-1].replace('\\"', '"')
    return value


def _lemma_of(concept: str) -> str:
    match = _PREDICATE_RE.match(concept)
    if match:
        return concept[: -(len(match.group(1)) + 1)]
    return concept


def realize_baseline(candidate: SmuCandidate) -> str:
    """Deterministic template realization of a candidate subgraph.

    At every node: an ``:ARG0`` subtree comes first, then "not" for
    ``:polarity -``, the concept lemma, remaining attribute values, the
    other ``:ARGn`` subtrees by index, and finally non-core subtrees in
    edge order. ``:name`` structures are spliced in as their literal parts.
    No inflection is attempted; tokens are joined by single spaces.
    """
    graph = candidate.subgraph
    children = _children(graph)
    attrs: dict[str, list[Attribute]] = {}
    for attr in graph.attributes:
        attrs.setdefault(attr.source, []).append(attr)
    visited: set[str] = set()

    def name_words(var: str) -> list[str]:
        visited.add(var)
        ops = []
        for attr in attrs.get(var, ()):
            match = _OP_RE.fullmatch(attr.role)
            if match:
                ops.append((int(match.group(1)), _strip_quotes(attr.value)))
        return [word for _, word in sorted(ops)]

    def template(var: str) -> list[str | Edge]:
        """The node's own words, and the edges whose words go in between,
        in template order."""
        visited.add(var)
        items: list[str | Edge] = []  # the :ARG0 edges first
        numbered: list[tuple[int, Edge]] = []
        others: list[Edge] = []
        for edge in children.get(var, ()):
            match = _CORE_RE.fullmatch(edge.role)
            if match is None:
                others.append(edge)
            elif int(match.group(1)) == 0:
                items.append(edge)
            else:
                numbered.append((int(match.group(1)), edge))
        values = []
        negated = False
        for attr in attrs.get(var, ()):
            if attr.role != ":polarity":
                values.append(_strip_quotes(attr.value))
            elif attr.value == "-":
                negated = True
        if negated:
            items.append("not")
        items.append(_lemma_of(graph.nodes[var]))
        items += values
        numbered.sort(key=lambda item: item[0])
        items += [edge for _, edge in numbered]
        items += others
        return items

    words: list[str] = []
    # the items each node being realized has still to emit, innermost last
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
    return " ".join(filter(None, words))


def realize_remote(
    candidates: Sequence[SmuCandidate],
    endpoint: str,
    *,
    batch_size: int = 32,
    concurrency: int = 4,
    client: GraphToTextClient | None = None,
) -> list[str]:
    """The texts of the candidates, from the graph-to-text service.

    Subgraphs are serialized to PENMAN and sent in batches; the reply order
    matches the input order. An empty candidate list makes no network call.
    """
    if not candidates:
        return []
    if client is None:
        client = GraphToTextClient(
            endpoint, batch_size=batch_size, concurrency=concurrency
        )
    penman = [serialize_penman(c.subgraph) for c in candidates]
    texts = client.generate(penman)
    if len(texts) != len(candidates):
        raise MalformedServiceReply(
            f"generation service answered {len(texts)} texts for {len(candidates)} graphs"
        )
    return texts
