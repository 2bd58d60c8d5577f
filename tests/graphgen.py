"""Random PENMAN graph generator shared by unit and acceptance tests."""

import random

from hypothesis import strategies as st

from autopyramid.amr import AmrGraph, Attribute, Edge, serialize_penman
from autopyramid.errors import FileUnwritable

LEMMAS = [
    "boy", "girl", "dog", "city", "team", "person", "idea", "report",
    "want", "go", "say", "recruit", "appear", "join", "leave", "win",
]
ROLES = [":ARG0", ":ARG1", ":ARG2", ":ARG3", ":mod", ":time", ":manner", ":ARG1-of"]
ATTR_CHOICES = [
    (":polarity", "-"),
    (":quant", "3"),
    (":quant", "-2.5"),
    (":op1", '"Godfrey"'),
    (":op2", '"New York"'),
    (":value", '"quo\\"ted"'),
]


def random_graph(
    rng: random.Random, max_nodes: int = 12, max_reentrancies: int = 2, roles=ROLES
) -> AmrGraph:
    n = rng.randint(1, max_nodes)
    variables = [f"x{i}" for i in range(n)]
    nodes = {}
    for var in variables:
        lemma = rng.choice(LEMMAS)
        if rng.random() < 0.45:
            nodes[var] = f"{lemma}-{rng.randint(1, 99):02d}"
        else:
            nodes[var] = lemma

    edges = []
    for i in range(1, n):
        parent = variables[rng.randrange(i)]
        edges.append(Edge(parent, rng.choice(roles), variables[i]))

    for _ in range(rng.randint(0, max_reentrancies)):
        if n < 2:
            break
        source, target = rng.sample(variables, 2)
        edges.append(Edge(source, rng.choice(roles), target))

    attributes = []
    for var in variables:
        if rng.random() < 0.3:
            role, value = rng.choice(ATTR_CHOICES)
            attributes.append(Attribute(var, role, value))

    return AmrGraph(root=variables[0], nodes=nodes, edges=tuple(edges), attributes=tuple(attributes))


# seeds for the generators of this module, for hypothesis tests: drawn
# uniformly, because a random.Random that hypothesis drives favours the
# first of each set of choices
SEEDS = st.integers(0, 2**32 - 1)

# far past the interpreter's default recursion limit of 1000
DEEP = 3000


def nested_penman(depth: int, separator: str = " ", innermost: str = "end") -> str:
    """``want-01`` whose ``:ARG1`` opens a chain of *depth* nodes, each
    nested inside the one before; with a newline *separator*, node ``n{i}``
    sits on line ``i + 1``."""
    opened = separator.join(f"(n{i} / thing :mod" for i in range(1, depth))
    return (
        f"(n0 / want-01 :ARG1{separator}{opened}{separator}(n{depth} / {innermost})"
        + ")" * depth
    )


def chained_penman(length: int) -> str:
    """``want-01`` with every node of a *length*-node chain as a direct child
    but each node pointing at the next by reference: nesting stays shallow,
    while the depth-first walk from the root is *length* deep."""
    links = "".join(f" :mod (n{i} / thing :mod n{i + 1})" for i in range(2, length))
    return f"(n0 / want-01 :ARG1 (n1 / thing :mod n2){links} :mod (n{length} / end))"


def shared_chain_penman(length: int) -> str:
    """A *length*-node graph: ``want-01`` with an ``:ARG1`` to each other
    node, and each of those pointing at the next by reference, so the
    candidate of each core role holds the rest of the chain."""
    links = "".join(f" :ARG1 (n{i} / thing :mod n{i + 1})" for i in range(1, length - 1))
    return f"(n0 / want-01{links} :ARG1 (n{length - 1} / end))"


def repeated_edge_penman(count: int) -> str:
    """A 3-node graph: ``x-01`` with *count* core roles on one ``hub``, which
    has *count* ``:mod`` edges to one node, so each of the *count*
    candidates holds the same *count* + 1 edges."""
    mods = " :mod b" * (count - 1)
    roles = " :ARG1 h" * (count - 1)
    return f"(p / x-01 :ARG0 (h / hub :mod (b / b){mods}){roles})"


def attributed_predicates_penman(count: int) -> str:
    """*count* one-node predicates under one root, each its own ``:ARG0``
    and holding one attribute, so the graph has *count* small candidates
    and *count* attributes."""
    ops = "".join(f" :op{i + 1} (p{i} / x-01 :ARG0 p{i} :quant {i})" for i in range(count))
    return f"(r / and{ops})"


def deep_realization(length: int) -> str:
    """The template realization of either deep graph's one unit."""
    return " ".join(["want"] + ["thing"] * (length - 1) + ["end"])


# what may stand between two tokens: "\n" and "\r\n", which the lexer
# counts as a new line, and blanks, some of them line breaks to
# str.splitlines but not to the lexer
SEPARATORS = [" ", "  ", "\t", "\n", "\r", "\r\n", "\x0c", "\u2028", "\x85"]
# constant-like values: quoted strings with escapes, and with line breaks
# inside, of which a "\n" ends the string early (a token never spans one)
# and the others are characters of it, and bare tokens on either side of
# the number rule
VALUES = [
    "-+",
    "1e5",
    ".5",
    "+3.",
    "e5",
    '"plain"',
    '"New York"',
    '"quo\\"ted"',
    '"back\\\\slash"',
    '"open \\"',
    '"two\nlines"',
    '"cr\rbreak"',
    '"form\x0cfeed"',
    '"line\u2028sep"',
    '"esc\\ break"',
]


def penman_text(rng: random.Random, max_nodes: int = 8, mangle: float = 0.3) -> str:
    """One PENMAN block for checking the lexer and parser: a random graph with
    constant-like values, serialized, each blank between tokens replaced by a
    random separator. With probability *mangle* one character is dropped or
    repeated, or the text is cut short, so that many blocks are malformed
    somewhere."""
    graph = random_graph(rng, max_nodes)
    attributes = graph.attributes + tuple(
        Attribute(var, ":value", rng.choice(VALUES))
        for var in graph.nodes
        if rng.random() < 0.3
    )
    # built unchecked: a value here need not be a constant the constructor
    # accepts, so that the text holds what a hand-written file might
    graph = AmrGraph._trusted(graph.root, dict(graph.nodes), graph.edges, attributes)
    text = "".join(
        rng.choice(SEPARATORS) if char == " " else char
        for char in serialize_penman(graph)
    )
    if text and rng.random() < mangle:
        at = rng.randrange(len(text))
        text = rng.choice(
            [text[:at] + text[at + 1 :], text[: at + 1] + text[at:], text[:at]]
        )
    return text


COMMENTS = ["# a comment", "# ::snt a sentence", "  #indented", "#"]


def penman_file(rng: random.Random, blocks: int = 3) -> str:
    """Blank-line-separated blocks of :func:`penman_text` with ``#`` comment
    lines, ``# ::snt`` among them, put in at newlines before and inside each
    block."""
    parts = []
    for _ in range(blocks):
        lines = penman_text(rng).split("\n")
        for _ in range(rng.randint(0, 2)):
            lines.insert(rng.randint(0, len(lines)), rng.choice(COMMENTS))
        parts.append("\n".join(lines))
    return "\n\n".join(parts) + "\n"


def save_penman_file(path, entries) -> None:
    """Write graphs as blank-line-separated blocks with ``# ::snt`` comments."""
    blocks = []
    for entry in entries:
        lines = []
        if entry.sentence:
            lines.append("# ::snt " + entry.sentence)
        lines.append(serialize_penman(entry.graph))
        blocks.append("\n".join(lines))
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n\n".join(blocks))
            if blocks:
                handle.write("\n")
    except OSError as exc:
        raise FileUnwritable(f"cannot write {path}: {exc}") from exc
