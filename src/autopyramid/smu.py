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
self-contained. Each candidate is that subgraph, an :class:`AmrGraph`
rooted at the predicate with its core-role edges in forward direction.
Candidates are built without a second validation: they hold only nodes,
edges and attributes of the validated input graph plus forward core-role
edges, and every node is reached by expanding from the predicate, so they
are rooted, closed and connected by construction.

Two split modes exist: ``one-cr`` (the default) emits one subgraph per
core role, ``all-deps`` groups all core roles of a predicate into a single
subgraph.

Realization is pluggable: :func:`realize_baseline` is a deterministic
offline template, :func:`realize_remote` calls a generation service.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .amr import AmrGraph, Edge, attribute_map, child_map, preorder, serialize_penman
from .data import SPLIT_MODES
from .errors import GraphTooLarge, MalformedServiceReply

if TYPE_CHECKING:
    from .services import GraphToTextClient


# The most nodes, edges and attributes the candidates of one graph may
# hold together. A chain or a run of repeated edges that k core roles
# share is copied into each of their k candidates, so the candidates of a
# graph of size n can hold about n * n / 2 items; the bound keeps that
# linear. Sentence graphs need a few dozen, and a single candidate of a
# 3000-node chain (6001 items) fits.
MAX_SPLIT_SIZE = 10_000


# Roles and senses are read with string tests rather than patterns: they
# run for every edge and node. ``str.isdecimal`` accepts exactly the
# characters of ``\d`` (any Unicode decimal digit, which ``int`` reads).


def _core_role(role: str) -> tuple[int, bool] | None:
    """The index of *role* if it is a core role, ``:ARGn`` or the inverse
    ``:ARGn-of``, and whether it is the inverse; None for any other."""
    if not role.startswith(":ARG"):
        return None
    digits = role[4:]
    if digits.isdecimal():
        return int(digits), False
    if digits.endswith("-of") and digits[:-3].isdecimal():
        return int(digits[:-3]), True
    return None


def _predicate_lemma(concept: str) -> str | None:
    """The lemma of *concept* if it is a predicate, one with a sense suffix
    of two or more digits such as ``want-01``; None for any other."""
    lemma, _, sense = concept.rpartition("-")
    if lemma and len(sense) >= 2 and sense.isdecimal():
        return lemma
    return None


def _build_candidate(
    graph: AmrGraph,
    group: list[Edge],
    stored: set[Edge],
    defining: dict[str, Edge | None],
    children: dict[str, list[Edge]],
    positions: dict[str, list[int]],
) -> AmrGraph:
    """The subgraph of the core roles *group*, each in forward direction
    from the predicate. Every edge in *stored*, the predicate's core-role
    edges as stored, is left out of the expansion; *positions* gives each
    node's attributes as indices into ``graph.attributes``."""
    predicate = group[0].source
    nodes: dict[str, str] = {predicate: graph.nodes[predicate]}
    edges: list[Edge] = []
    for core in group:
        filler = core.target
        edges.append(core)
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
    held = sorted(i for var in nodes for i in positions.get(var, ()))
    attributes = tuple(graph.attributes[i] for i in held)
    return AmrGraph._trusted(predicate, nodes, tuple(edges), attributes)


def split_graph(graph: AmrGraph, mode: str = "one-cr") -> list[AmrGraph]:
    """Cut *graph* into per-predicate core-role subgraphs, each rooted at
    its predicate and holding its core-role edges in forward direction.

    Predicates without any core role contribute nothing. Output order is
    deterministic: predicates in depth-first order, and within a predicate
    its core roles in stored edge order. Raises :class:`GraphTooLarge`
    when the subgraphs would hold more than :data:`MAX_SPLIT_SIZE` nodes,
    edges and attributes together.
    """
    if mode not in SPLIT_MODES:
        raise ValueError(f"unknown split mode {mode!r}, expected one of {SPLIT_MODES}")
    children = child_map(graph)
    defining, order = preorder(graph, children)
    # the core roles of every predicate, from one pass over the edges:
    # (the edge as stored, the edge in forward direction)
    roles: dict[str, list[tuple[Edge, Edge]]] = {
        var: [] for var in order if _predicate_lemma(graph.nodes[var]) is not None
    }
    for edge in graph.edges:
        core = _core_role(edge.role)
        if core is not None:
            index, inverse = core
            predicate = edge.target if inverse else edge.source
            owner = roles.get(predicate)
            if owner is not None:
                filler = edge.source if inverse else edge.target
                owner.append((edge, Edge(predicate, f":ARG{index}", filler)))

    # each node's attributes, as positions in stored order
    positions: dict[str, list[int]] = {}
    for i, attr in enumerate(graph.attributes):
        positions.setdefault(attr.source, []).append(i)
    candidates: list[AmrGraph] = []
    size = 0  # the nodes, edges and attributes of the candidates so far
    for cores in roles.values():
        if not cores:
            continue
        stored = {edge for edge, _ in cores}
        forward = [core for _, core in cores]
        groups = [[core] for core in forward] if mode == "one-cr" else [forward]
        for group in groups:
            candidate = _build_candidate(graph, group, stored, defining, children, positions)
            size += len(candidate.nodes) + len(candidate.edges) + len(candidate.attributes)
            if size > MAX_SPLIT_SIZE:
                raise GraphTooLarge(
                    f"the candidates of the graph rooted at {graph.root!r} hold more "
                    f"than {MAX_SPLIT_SIZE} nodes, edges and attributes"
                )
            candidates.append(candidate)
    return candidates


# ---------------------------------------------------------------------------
# Realization


def _strip_quotes(value: str) -> str:
    if len(value) >= 2 and value.startswith('"') and value.endswith('"'):
        return value[1:-1].replace('\\"', '"')
    return value


def realize_baseline(graph: AmrGraph) -> str:
    """Deterministic template realization of a candidate subgraph.

    At every node: an ``:ARG0`` subtree comes first, then "not" for
    ``:polarity -``, the concept lemma, remaining attribute values, the
    other ``:ARGn`` subtrees by index, and finally non-core subtrees in
    edge order. ``:name`` structures are spliced in as their literal parts.
    No inflection is attempted; tokens are joined by single spaces.
    """
    children = child_map(graph)
    attrs = attribute_map(graph)
    visited: set[str] = set()

    def name_words(var: str) -> list[str]:
        visited.add(var)
        ops = []
        for _, role, value in attrs.get(var, ()):
            if role.startswith(":op") and role[3:].isdecimal():
                ops.append((int(role[3:]), _strip_quotes(value)))
        return [word for _, word in sorted(ops)]

    def template(var: str) -> list[str | Edge]:
        """The node's own words, and the edges whose words go in between,
        in template order."""
        visited.add(var)
        items: list[str | Edge] = []  # the :ARG0 edges first
        numbered: list[tuple[int, Edge]] = []
        others: list[Edge] = []
        for edge in children.get(var, ()):
            core = _core_role(edge.role)
            if core is None or core[1]:
                others.append(edge)
            elif core[0] == 0:
                items.append(edge)
            else:
                numbered.append((core[0], edge))
        values = []
        negated = False
        for attr in attrs.get(var, ()):
            if attr.role != ":polarity":
                values.append(_strip_quotes(attr.value))
            elif attr.value == "-":
                negated = True
        if negated:
            items.append("not")
        concept = graph.nodes[var]
        items.append(_predicate_lemma(concept) or concept)
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


def realize_remote(graphs: Iterable[AmrGraph], client: GraphToTextClient) -> list[str]:
    """The texts of *graphs*, from *client*'s graph-to-text service.

    Each graph is serialized to PENMAN as it is consumed, so an iterator
    of graphs is never held whole; the texts go in the client's batches,
    and the reply order matches the input order. No graph makes no
    network call.
    """
    penman = [serialize_penman(g) for g in graphs]
    if not penman:
        return []
    texts = client.generate(penman)
    if len(texts) != len(penman):
        raise MalformedServiceReply(
            f"generation service answered {len(texts)} texts for {len(penman)} graphs"
        )
    return texts
