"""Random PENMAN graph generator shared by unit and acceptance tests."""

import random

from autopyramid.amr import AmrGraph, Attribute, Edge

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


def random_graph(rng: random.Random, max_nodes: int = 12, max_reentrancies: int = 2) -> AmrGraph:
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
        edges.append(Edge(parent, rng.choice(ROLES), variables[i]))

    for _ in range(rng.randint(0, max_reentrancies)):
        if n < 2:
            break
        source, target = rng.sample(variables, 2)
        edges.append(Edge(source, rng.choice(ROLES), target))

    attributes = []
    for var in variables:
        if rng.random() < 0.3:
            role, value = rng.choice(ATTR_CHOICES)
            attributes.append(Attribute(var, role, value))

    return AmrGraph(root=variables[0], nodes=nodes, edges=tuple(edges), attributes=tuple(attributes))


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


def deep_realization(length: int) -> str:
    """The template realization of either deep graph's one unit."""
    return " ".join(["want"] + ["thing"] * (length - 1) + ["end"])
