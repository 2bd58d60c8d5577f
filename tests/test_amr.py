import copy
import pickle
import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autopyramid import amr
from autopyramid.amr import (
    AmrGraph,
    Attribute,
    Edge,
    PenmanEntry,
    load_penman_file,
    parse_penman,
    serialize_penman,
)
from autopyramid.errors import DisconnectedGraph, FileUnreadable, MalformedPenman

from graphgen import (
    DEEP,
    SEEDS,
    chained_penman,
    nested_penman,
    penman_file,
    penman_text,
    random_graph,
    save_penman_file,
)
from oracles import isomorphic, parse_penman_oracle

WANT = "(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))"


def test_parse_minimal_graph():
    graph = parse_penman("(b / boy)")
    assert graph.root == "b"
    assert graph.nodes == {"b": "boy"}
    assert graph.edges == ()
    assert graph.attributes == ()


def test_parse_want_graph_with_reentrancy():
    graph = parse_penman(WANT)
    assert graph.root == "w"
    assert graph.nodes == {"w": "want-01", "b": "boy", "g": "go-02"}
    assert graph.edges == (
        Edge("w", ":ARG0", "b"),
        Edge("w", ":ARG1", "g"),
        Edge("g", ":ARG0", "b"),
    )
    # one variable is referenced twice, but stays a single node
    assert sum(1 for e in graph.edges if e.target == "b") == 2


def test_parse_attributes_and_constants():
    graph = parse_penman(
        '(s / sell-01 :polarity - :ARG1 (c / car :quant 2 :mod (n / name :op1 "Ford")) :time 2020)'
    )
    assert graph.attributes == (
        Attribute("s", ":polarity", "-"),
        Attribute("c", ":quant", "2"),
        Attribute("n", ":op1", '"Ford"'),
        Attribute("s", ":time", "2020"),
    )
    assert graph.nodes["n"] == "name"


def test_attribute_literals_roundtrip_verbatim():
    text = '(x / thing :value "quo\\"ted" :quant -2.5 :mod 3)'
    graph = parse_penman(text)
    assert serialize_penman(graph) == text
    assert graph.attributes == (
        Attribute("x", ":value", '"quo\\"ted"'),
        Attribute("x", ":quant", "-2.5"),
        Attribute("x", ":mod", "3"),
    )


def test_parse_is_whitespace_insensitive():
    pretty = """
    (w / want-01
        :ARG0 (b / boy)
        :ARG1 (g / go-02
            :ARG0 b))
    """
    assert parse_penman(pretty) == parse_penman(WANT)


@pytest.mark.parametrize(
    "bad",
    [
        "(w / want-01 :ARG0 (b / boy)",
        "(b / boy))",
        "(b boy)",
        "(b / boy :mod (b / body))",
        "(w / want-01 :ARG0 b)",
        "",
        "(b / boy :mod)",
        "(b /)",
        "boy",
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(MalformedPenman):
        parse_penman(bad)


@pytest.mark.parametrize(
    "text, message",
    [
        ("(1 / x)", "line 1, column 2: expected a variable but found '1'"),
        ("(- / x)", "line 1, column 2: expected a variable but found '-'"),
        ("(a / b :ARG0 (.5e3 / c))", "line 1, column 15: expected a variable but found '.5e3'"),
        ('(a / "abc)', "line 1, column 6: unclosed quoted string '\"abc'"),
        ('(a / ")', "line 1, column 6: unclosed quoted string '\"'"),
        ('(a / b :op1 "x\\")', "line 1, column 13: unclosed quoted string '\"x\\\\\"'"),
    ],
)
def test_parse_refuses_tokens_the_constructor_refuses(text, message):
    # a variable that reads as a constant, and a quote not closed on its
    # line, would not read back from serialized text as themselves
    with pytest.raises(MalformedPenman) as info:
        parse_penman(text)
    assert str(info.value) == message


def test_parse_error_carries_position():
    with pytest.raises(MalformedPenman) as info:
        parse_penman("(w / want-01\n  :ARG0 undefined)")
    assert info.value.line == 2
    assert "undefined" in str(info.value)


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        AmrGraph(root="x", nodes={"b": "boy"})
    with pytest.raises(ValueError):
        AmrGraph(root="b", nodes={"b": "boy"}, edges=(Edge("b", ":ARG0", "z"),))
    with pytest.raises(ValueError):
        AmrGraph(root="b", nodes={"b": "boy", "c": "cat"})  # c not connected
    with pytest.raises(ValueError):
        AmrGraph(root="b", nodes={"b": "boy", "c": "cat"}, edges=(Edge("b", "ARG0", "c"),))


def test_edges_listed_child_first_are_connected():
    # no pass over the edges in their listed order reaches c; the walk
    # over the edges taken both ways does
    parsed = parse_penman("(a / x :r (b / y :s (c / z)))")
    graph = AmrGraph("a", {"a": "x", "b": "y", "c": "z"}, (("b", ":s", "c"), ("a", ":r", "b")))
    assert graph.edges == parsed.edges[::-1]
    assert all(type(edge) is Edge for edge in graph.edges)
    assert parse_penman(serialize_penman(graph)) == parsed


def test_serialize_minimal():
    assert serialize_penman(AmrGraph(root="b", nodes={"b": "boy"})) == "(b / boy)"


def test_serialize_want_graph_roundtrip():
    graph = parse_penman(WANT)
    assert serialize_penman(graph) == WANT
    assert isomorphic(parse_penman(serialize_penman(graph)), graph)


def test_serialize_disconnected_raises():
    # undirected-connected, but x cannot be reached along edge direction
    graph = AmrGraph(
        root="w", nodes={"w": "want-01", "x": "thing"}, edges=(Edge("x", ":ARG0", "w"),)
    )
    with pytest.raises(DisconnectedGraph):
        serialize_penman(graph)


@pytest.mark.parametrize(
    "nodes, edges, attributes",
    [
        ({"a": "want 01"}, (), ()),
        ({"a": "x)"}, (), ()),
        ({"a": '"abc'}, (), ()),
        ({"a/b": "x"}, (), ()),
        ({"1": "x"}, (), ()),
        ({"-": "x"}, (), ()),
        ({'"a"': "x"}, (), ()),
        ({"a": "x", "b": "y"}, (Edge("a", ":AR G0", "b"),), ()),
        ({"a": "x"}, (), (Attribute("a", ":op1", "Bob"),)),
        ({"a": "x"}, (), (Attribute("a", ":op1", '"a"b"'),)),
        ({"a": "x"}, (), (Attribute("a", ":op1", '"open\\"'),)),
        ({"a": "x"}, (), (Attribute("a", ":op1", "1 2"),)),
    ],
    ids=[
        "concept-space", "concept-paren", "concept-open-quote", "variable-slash",
        "variable-number", "variable-minus", "variable-quoted", "role-space", "value-bare",
        "value-inner-quote", "value-escaped-close", "value-two-numbers",
    ],
)
def test_tokens_that_would_not_read_back_are_refused(nodes, edges, attributes):
    root = next(iter(nodes))
    with pytest.raises(ValueError):
        AmrGraph(root, nodes, edges, attributes)


# any text at all, and runs of the characters PENMAN gives a meaning to
TOKEN_PIECES = ["(", ")", "/", " ", "\t", "\n", ":", '"', "\\", "-", "+", "1", ".", "e", "a", "é"]
ANY_TEXT = st.one_of(
    st.text(max_size=6), st.lists(st.sampled_from(TOKEN_PIECES), min_size=1, max_size=5).map("".join)
)
# tokens of each kind that mostly are well formed: names (some of them
# numbers, '-' or '+'), roles, quoted strings (some badly escaped) and
# constants
NAMES = st.one_of(
    st.text(alphabet="abxé", min_size=1, max_size=3), st.text(alphabet="ab01-+.", min_size=1, max_size=4)
)
ROLES = st.text(alphabet="ab1- ", min_size=1, max_size=3).map(":".__add__)
QUOTED = st.text(alphabet='ab é()\\"', max_size=5).map('"{}"'.format)
VALUES = st.one_of(st.sampled_from(["-", "+", "7", "-2.5", "1e5", ".5"]), QUOTED)


@st.composite
def graph_parts(draw):
    """The root, nodes, edges and attributes of a graph, in the order
    serialize_penman writes them: each child of the root entered once,
    each node's attributes, and maybe an edge from the last child back to
    the root. Each token is drawn from its kind, but for at most one,
    drawn from any text."""
    odd_one = draw(st.integers(0, 16))  # 0, or past the last token: none
    drawn = 0

    def token(kind):
        nonlocal drawn
        drawn += 1
        return draw(ANY_TEXT if drawn == odd_one else kind)

    variables = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    variables = list(dict.fromkeys(token(st.just(var)) for var in variables))
    nodes = {var: token(NAMES | QUOTED) for var in variables}
    root, *children = variables
    edges = [Edge(root, token(ROLES), child) for child in children]
    if children and draw(st.booleans()):
        edges.append(Edge(children[-1], token(ROLES), root))
    attributes = [
        Attribute(var, token(ROLES), token(VALUES)) for var in variables if draw(st.booleans())
    ]
    return root, nodes, tuple(edges), tuple(attributes)


@settings(max_examples=500)
@given(graph_parts())
def test_a_graph_is_refused_or_reads_back_from_its_text(parts):
    try:
        graph = AmrGraph(*parts)
    except ValueError:
        return
    assert parse_penman(serialize_penman(graph)) == graph


def test_isomorphic_relabeled():
    left = parse_penman(WANT)
    right = parse_penman("(a / want-01 :ARG0 (c / boy) :ARG1 (d / go-02 :ARG0 c))")
    assert isomorphic(left, right)
    assert not isomorphic(left, parse_penman("(b / boy)"))
    assert not isomorphic(
        left, parse_penman("(a / want-01 :ARG0 (c / girl) :ARG1 (d / go-02 :ARG0 c))")
    )


def test_isomorphic_is_sensitive_to_edges():
    left = parse_penman("(a / and :op1 (b / boy) :op2 (g / girl))")
    right = parse_penman("(a / and :op2 (g / girl) :op1 (b / boy))")
    assert isomorphic(left, right)
    other = parse_penman("(a / and :op1 (b / boy) :op1 (g / girl))")
    assert not isomorphic(left, other)


def test_roundtrip_random_graphs():
    rng = random.Random(99)
    for _ in range(60):
        graph = random_graph(rng)
        text = serialize_penman(graph)
        again = parse_penman(text)
        assert isomorphic(graph, again), text
        # serializer output is stable once parsed back
        assert serialize_penman(again) == text


def test_penman_file_roundtrip(tmp_path):
    entries = [
        PenmanEntry(parse_penman(WANT), "The boy wants to go."),
        PenmanEntry(parse_penman("(b / bark-01 :ARG0 (d / dog))"), None),
    ]
    path = tmp_path / "graphs.penman"
    save_penman_file(path, entries)
    loaded = list(load_penman_file(path))
    assert [e.sentence for e in loaded] == ["The boy wants to go.", None]
    assert [serialize_penman(e.graph) for e in loaded] == [
        serialize_penman(e.graph) for e in entries
    ]


def test_penman_file_comments_and_blank_lines(tmp_path):
    path = tmp_path / "graphs.penman"
    path.write_text(
        "# a file header\n"
        "# ::snt A boy.\n"
        "(b / boy)\n"
        "\n"
        "\n"
        "# plain comment\n"
        "(c / cat)\n",
        encoding="utf-8",
    )
    loaded = list(load_penman_file(path))
    assert len(loaded) == 2
    assert loaded[0].sentence == "A boy."
    assert loaded[1].sentence is None
    # the line each graph starts on, past comments and blank lines
    assert [entry.line for entry in loaded] == [3, 7]


def test_penman_file_error_uses_absolute_lines(tmp_path):
    path = tmp_path / "broken.penman"
    path.write_text("(b / boy)\n\n# ::snt x\n(c / cat\n", encoding="utf-8")
    with pytest.raises(MalformedPenman) as info:
        list(load_penman_file(path))
    assert (info.value.line, info.value.path) == (4, path)


def test_penman_file_missing(tmp_path):
    with pytest.raises(FileUnreadable):
        load_penman_file(tmp_path / "absent.penman")


def test_save_penman_file_unwritable(tmp_path):
    from autopyramid.errors import FileUnwritable

    target = tmp_path / "no" / "such" / "dir" / "out.penman"
    with pytest.raises(FileUnwritable):
        save_penman_file(target, [PenmanEntry(parse_penman("(b / boy)"))])


def test_golden_corpus_file_roundtrip(tmp_path):
    source = Path(__file__).parent / "data" / "golden_graphs.penman"
    entries = list(load_penman_file(source))
    assert len(entries) == 20
    copy = tmp_path / "copy.penman"
    save_penman_file(copy, entries)
    again = list(load_penman_file(copy))
    assert [e.sentence for e in again] == [e.sentence for e in entries]
    for left, right in zip(entries, again):
        assert serialize_penman(left.graph) == serialize_penman(right.graph)
        assert isomorphic(left.graph, right.graph)


# ---------------------------------------------------------------------------
# Depth: parsing and serializing walk with loops, never recursion


def test_deeply_nested_graph_parses_and_serializes():
    text = nested_penman(DEEP)
    graph = parse_penman(text)
    assert len(graph.nodes) == DEEP + 1
    assert graph.edges[-1] == Edge(f"n{DEEP - 1}", ":mod", f"n{DEEP}")
    assert serialize_penman(graph) == text
    assert parse_penman(serialize_penman(graph)) == graph


def test_long_reentrant_chain_serializes():
    graph = parse_penman(chained_penman(DEEP))
    text = serialize_penman(graph)
    # every link of the chain is expanded inside the one before
    assert text.startswith("(n0 / want-01 :ARG1 (n1 / thing :mod (n2 / thing :mod (n3")
    assert serialize_penman(parse_penman(text)) == text


def test_deeply_nested_errors_keep_their_position():
    with pytest.raises(MalformedPenman) as info:
        parse_penman(nested_penman(DEEP, "\n", innermost=":bad"))
    assert (info.value.line, info.value.column) == (DEEP + 1, len(f"(n{DEEP} / ") + 1)
    with pytest.raises(MalformedPenman, match="unexpected end of input"):
        parse_penman(nested_penman(DEEP)[:-1])
    with pytest.raises(MalformedPenman, match="unbalanced"):
        parse_penman(nested_penman(DEEP) + ")")


PENMAN_PIECES = [
    "(", ")", "/", " ", "\n", "a", "b", "c", "want-01", "boy", ":ARG0", ":mod", ":",
    '"x y"', '"', "-", "+", "3", "-2.5", "# ::snt s", "\\",
]


@settings(max_examples=500)
@given(
    st.one_of(
        st.text(),
        st.lists(st.sampled_from(PENMAN_PIECES), max_size=60).map("".join),
        st.lists(st.sampled_from(PENMAN_PIECES), max_size=60).map(" ".join),
    )
)
def test_any_text_gives_a_graph_or_malformed_penman(text):
    try:
        graph = parse_penman(text)
    except MalformedPenman:
        return
    assert isinstance(graph, AmrGraph)
    # the parser builds without validation: its graph must be one the
    # public constructor accepts unchanged
    assert graph == AmrGraph(graph.root, dict(graph.nodes), graph.edges, graph.attributes)
    assert parse_penman(serialize_penman(graph)).nodes == graph.nodes


# ---------------------------------------------------------------------------
# The parser against the reference in tests/oracles.py, and the line rules


# every line break of str.splitlines: of them only "\n", and so "\r\n",
# ends a line, and the others are characters within one
LINE_BREAKS = [
    "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
]


@pytest.mark.parametrize("escaped", [False, True])
@pytest.mark.parametrize("brk", LINE_BREAKS)
def test_tokens_never_span_a_line_break(brk, escaped):
    # a quoted string broken by a "\n", escaped or not, lexes as two bare
    # tokens, the first of them an unclosed quote; one that holds any other
    # break of str.splitlines is one token
    inside = "x" + "\\" * escaped + brk + "y"
    text = f'(a / b :value "{inside}")'
    if "\n" not in brk:
        assert parse_penman(text).attributes == (Attribute("a", ":value", f'"{inside}"'),)
        return
    with pytest.raises(MalformedPenman) as info:
        parse_penman(text)
    first = '"x' + "\\" * escaped
    assert str(info.value) == f"line 1, column 15: unclosed quoted string {first!r}"


@pytest.mark.parametrize("brk", LINE_BREAKS)
def test_error_lines_count_every_line_break(brk):
    text = brk.join(["(a / b", ":ARG0", "(c", "/ d)", ":mod e)"])
    with pytest.raises(MalformedPenman) as info:
        parse_penman(text, first_line=3)
    # the 'e' starts the fifth line, or is on the first, past four breaks
    expected = (7, 6) if "\n" in brk else (3, text.index("e)") + 1)
    assert (info.value.line, info.value.column) == expected
    assert "undefined variable 'e'" in str(info.value)


def parse_outcome(parse, text, first_line=1):
    """The graph, or the message and position of the error."""
    try:
        return parse(text, first_line)
    except MalformedPenman as exc:
        return str(exc), exc.line, exc.column


LINE_PIECES = PENMAN_PIECES + [
    "\r", "\r\n", "\x0c", "\u2028", "\x85", "\t", '"a\nb"', '"q\\"', '"\\\\"', "x0", "-+",
]


@settings(max_examples=500)
@given(
    st.one_of(
        st.text(),
        st.lists(st.sampled_from(LINE_PIECES), max_size=60).map("".join),
        SEEDS.map(lambda seed: penman_text(random.Random(seed))),
    ),
    st.integers(1, 40),
)
def test_parser_matches_the_reference(text, first_line):
    assert parse_outcome(parse_penman, text, first_line) == parse_outcome(
        parse_penman_oracle, text, first_line
    )


def load_outcome(path):
    try:
        return list(load_penman_file(path))
    except MalformedPenman as exc:
        return str(exc), exc.line, exc.column


@settings(max_examples=200)
@given(SEEDS)
def test_penman_file_matches_the_reference_parser(seed):
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graphs.penman"
        path.write_text(penman_file(rng), encoding="utf-8")
        got = load_outcome(path)
        with mock.patch.object(amr, "parse_penman", parse_penman_oracle):
            assert load_outcome(path) == got


def relabeled(text):
    return text.replace("(n", "(m").replace(" n", " m")


def test_isomorphic_compares_long_chains():
    # each chain also points from its last node back into the chain; the
    # two on the right differ only in which node that edge points at
    chain = nested_penman(DEEP, innermost="end :ARG0 n1")
    other = nested_penman(DEEP, innermost="end :ARG0 n2")
    assert isomorphic(parse_penman(chain), parse_penman(relabeled(chain)))
    assert not isomorphic(parse_penman(chain), parse_penman(relabeled(other)))


def test_graph_nodes_are_read_only():
    graph = parse_penman("(b / boy)")
    with pytest.raises(TypeError):
        graph.nodes["x"] = "y"
    with pytest.raises(TypeError):
        del graph.nodes["b"]
    assert dict(graph.nodes) == {"b": "boy"}


def test_graphs_hash_and_equal_graphs_hash_equal():
    text = "(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-01 :ARG0 b) :polarity -)"
    first, second = parse_penman(text), parse_penman(text)
    assert first is not second and first == second
    assert hash(first) == hash(second)
    assert len({first, second, parse_penman("(b / boy)")}) == 2


# the second holds a token of each kind that is not a plain name
@pytest.mark.parametrize(
    "text", [WANT, '(x1 / "a b" :op1 "q\\"" :ARG0 (-x / 1) :quant -2.5e1 :mod +)']
)
def test_graphs_survive_pickle_and_deepcopy(text):
    graph = parse_penman(text)
    for twin in (pickle.loads(pickle.dumps(graph)), copy.copy(graph), copy.deepcopy(graph)):
        assert twin == graph and hash(twin) == hash(graph)
        with pytest.raises(TypeError):
            twin.nodes["x"] = "y"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("root", "x", "root 'x' is not a node"),
        ("edges", (Edge("w", ":ARG0", "x"),), "edge target 'x' is not a node"),
        ("edges", (Edge("w", "ARG0", "b"),), "bad role label 'ARG0'"),
        ("attributes", (Attribute("w", ":polarity", ""),), "attribute value '' is not a constant"),
        ("edges", (), "nodes not connected to root: b, g"),
        ("nodes", {}, "graph has no nodes"),
        ("edges", (Edge("x", ":ARG0", "w"),), "edge source 'x' is not a node"),
        ("attributes", (Attribute("x", ":polarity", "-"),), "attribute owner 'x' is not a node"),
    ],
)
def test_pickle_and_copies_still_validate(field, value, message):
    # a graph built through _trusted, as a parsed one is, skips
    # validation; its copies go through it again
    parts = parse_penman(WANT)._asdict()
    graph = AmrGraph._trusted(**{**parts, "nodes": dict(parts["nodes"]), field: value})
    for rebuild in (lambda g: pickle.loads(pickle.dumps(g)), copy.copy, copy.deepcopy):
        with pytest.raises(ValueError) as refused:
            rebuild(graph)
        assert str(refused.value) == message
