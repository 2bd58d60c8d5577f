import copy
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autopyramid import smu
from autopyramid.amr import AmrGraph, Edge, parse_penman, serialize_penman
from autopyramid.errors import GraphTooLarge, MalformedServiceReply
from autopyramid.smu import (
    SPLIT_MODES,
    realize_baseline,
    realize_remote,
    split_graph,
)

from graphgen import (
    DEEP,
    ROLES,
    SEEDS,
    attributed_predicates_penman,
    chained_penman,
    deep_realization,
    nested_penman,
    random_graph,
    repeated_edge_penman,
    shared_chain_penman,
)
from oracles import (
    core_role_oracle,
    isomorphic,
    predicate_lemma_oracle,
    realize_baseline_oracle,
    split_graph_oracle,
)

WANT = parse_penman("(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))")


def test_split_want_graph_hand_trace():
    candidates = split_graph(WANT)
    assert [serialize_penman(c) for c in candidates] == [
        "(w / want-01 :ARG0 (b / boy))",
        "(w / want-01 :ARG1 (g / go-02 :ARG0 (b / boy)))",
        "(g / go-02 :ARG0 (b / boy))",
    ]
    assert [c.root for c in candidates] == ["w", "w", "g"]
    assert [c.edges[0].role for c in candidates] == [":ARG0", ":ARG1", ":ARG0"]


def test_split_requires_two_digit_sense():
    graph = parse_penman(
        "(x / thing :mod (y / step-1 :ARG0 (a / boy)) :mod (z / run-01 :ARG0 (b / dog)))"
    )
    assert [c.root for c in split_graph(graph)] == ["z"]


def test_split_no_predicates_yields_nothing():
    assert split_graph(parse_penman("(b / boy)")) == []
    # a predicate with no core role emits nothing
    assert split_graph(parse_penman("(s / snow-01 :time (t / today))")) == []


def test_split_inverse_core_role_normalized():
    graph = parse_penman("(b / boy :ARG0-of (r / run-01))")
    candidates = split_graph(graph)
    assert [serialize_penman(c) for c in candidates] == [
        "(r / run-01 :ARG0 (b / boy))"
    ]
    assert candidates[0].edges == (Edge("r", ":ARG0", "b"),)


def test_split_prunes_predicate_level_modifiers():
    graph = parse_penman(
        '(r / recruit-01 :ARG1 (p / person :name (n / name :op1 "Godfrey" :op2 "Elfwick"))'
        " :medium (t / twitter))"
    )
    candidates = split_graph(graph)
    assert len(candidates) == 1
    text = serialize_penman(candidates[0])
    assert "twitter" not in text
    assert "Godfrey" in text


def test_split_keeps_modifiers_inside_role_subtree():
    graph = parse_penman(
        "(r / recruit-01 :ARG1 (p / person) :time (t / today)"
        " :ARG2 (a / appear-01 :ARG1 p :time t))"
    )
    by_penman = {serialize_penman(c) for c in split_graph(graph)}
    assert by_penman == {
        "(r / recruit-01 :ARG1 (p / person))",
        # the role subtree keeps its own :time; re-entrant mentions of p and
        # t are materialized as concept copies
        "(r / recruit-01 :ARG2 (a / appear-01 :ARG1 (p / person) :time (t / today)))",
        "(a / appear-01 :ARG1 (p / person))",
    }


def test_split_does_not_leak_sibling_core_roles():
    # x fills ARG1 of p through an inverse edge; the ARG0 candidate must not
    # carry that second core role along
    graph = parse_penman("(p / give-01 :ARG0 (x / person :ARG1-of p))")
    candidates = split_graph(graph)
    assert [serialize_penman(c) for c in candidates] == [
        "(p / give-01 :ARG0 (x / person))",
        "(p / give-01 :ARG1 (x / person))",
    ]


def test_split_cyclic_inverse_roles_terminate():
    graph = parse_penman("(b / boy :ARG1-of (l / like-01 :ARG0 b))")
    candidates = split_graph(graph)
    # core roles come in stored edge order: the inverse :ARG1-of edge first
    assert [serialize_penman(c) for c in candidates] == [
        "(l / like-01 :ARG1 (b / boy))",
        "(l / like-01 :ARG0 (b / boy))",
    ]


def test_split_forward_self_loop():
    graph = parse_penman("(t / trust-01 :ARG0 (p / person) :ARG1 t)")
    by_penman = [serialize_penman(c) for c in split_graph(graph)]
    assert by_penman == [
        "(t / trust-01 :ARG0 (p / person))",
        "(t / trust-01 :ARG1 t)",
    ]


def test_split_all_deps_mode():
    assert [serialize_penman(c) for c in split_graph(WANT, mode="all-deps")] == [
        "(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))",
        "(g / go-02 :ARG0 (b / boy))",
    ]
    with pytest.raises(ValueError):
        split_graph(WANT, mode="bogus")


def test_split_candidate_count_matches_core_role_count():
    rng = random.Random(17)
    for _ in range(50):
        graph = random_graph(rng)
        candidates = split_graph(graph)
        expected = 0
        predicates = [v for v, c in graph.nodes.items() if re.fullmatch(r".+-\d{2,}", c)]
        for predicate in predicates:
            for edge in graph.edges:
                if edge.source == predicate and edge.role.lstrip(":").startswith("ARG"):
                    if edge.role[1:].replace("ARG", "", 1).isdigit():
                        expected += 1
                if edge.target == predicate and edge.role.startswith(":ARG") and edge.role.endswith("-of"):
                    middle = edge.role[len(":ARG") : -len("-of")]
                    if middle.isdigit():
                        expected += 1
        assert len(candidates) == expected


def test_split_is_deterministic_and_produces_valid_graphs():
    rng = random.Random(23)
    for _ in range(40):
        graph = random_graph(rng)
        first = split_graph(graph)
        second = split_graph(graph)
        assert [serialize_penman(c) for c in first] == [
            serialize_penman(c) for c in second
        ]
        for candidate in first:
            # rooted at its predicate, whose core role comes first
            assert re.fullmatch(r".+-\d{2,}", graph.nodes[candidate.root])
            assert candidate.edges[0].source == candidate.root
            text = serialize_penman(candidate)
            assert isomorphic(parse_penman(text), candidate)


def test_realize_baseline_hand_traces():
    by_penman = {
        serialize_penman(c): realize_baseline(c) for c in split_graph(WANT)
    }
    assert by_penman["(w / want-01 :ARG0 (b / boy))"] == "boy want"
    assert by_penman["(g / go-02 :ARG0 (b / boy))"] == "boy go"
    assert by_penman["(w / want-01 :ARG1 (g / go-02 :ARG0 (b / boy)))"] == "want boy go"


def test_realize_baseline_names_polarity_and_attributes():
    graph = parse_penman(
        '(r / recruit-01 :polarity - :ARG1 (p / person :name (n / name :op1 "Godfrey" :op2 "Elfwick")))'
    )
    (candidate,) = split_graph(graph)
    assert realize_baseline(candidate) == "not recruit person Godfrey Elfwick"

    graph = parse_penman("(s / stay-01 :polarity - :ARG0 (b / boy))")
    (candidate,) = split_graph(graph)
    assert realize_baseline(candidate) == "boy not stay"


def test_realize_baseline_never_empty():
    rng = random.Random(31)
    for _ in range(40):
        graph = random_graph(rng)
        for candidate in split_graph(graph):
            assert realize_baseline(candidate).strip()


# names, two-digit and inverse core roles, and a role that only looks like one
REFERENCE_ROLES = ROLES + [":name", ":ARG0-of", ":ARG10", ":ARG2-of", ":ARGx", ":op1"]


@settings(max_examples=400, deadline=None)
@given(SEEDS, st.sampled_from(SPLIT_MODES), st.booleans())
def test_split_and_realize_match_the_reference(seed, mode, turn_edges):
    rng = random.Random(seed)
    graph = random_graph(rng, max_nodes=14, max_reentrancies=4, roles=REFERENCE_ROLES)
    if turn_edges:
        # edges pointing at their parent leave nodes the root cannot reach
        # along edge direction
        edges = tuple(
            Edge(e.target, e.role, e.source) if rng.random() < 0.3 else e for e in graph.edges
        )
        graph = AmrGraph(graph.root, graph.nodes, edges, graph.attributes)
    candidates = split_graph(graph, mode)
    assert candidates == split_graph_oracle(graph, mode)
    # the splitter builds without validation: each candidate must be one
    # the public constructor accepts unchanged
    for c in candidates:
        assert c == AmrGraph(c.root, dict(c.nodes), c.edges, c.attributes)
    assert [realize_baseline(c) for c in candidates] == [
        realize_baseline_oracle(c) for c in candidates
    ]


# Pieces of roles and concepts near the edges of the core-role and sense
# rules: Unicode decimal digits, a superscript digit (not decimal), and
# prefixes and suffixes that almost fit.
ROLE_PIECES = [
    ":ARG", ":ARG1", ":ARG1-of", "-of", "-o", "of", ":AR", ":arg", ":op", "-", "-01",
    "0", "1", "12", "١", "２", "²", "x", " ", "_", "+", "\r", "\u2028",
]
role_like = st.one_of(
    st.lists(st.sampled_from(ROLE_PIECES), max_size=5).map("".join),
    st.tuples(
        st.sampled_from([":ARG", ":AR", ":arg", "x-", "x-0", "-", ""]),
        st.text("019١٢２²", max_size=3),
        st.sampled_from(["", "-of", "-o", "of", "-", "-01", "x"]),
    ).map("".join),
    st.text(st.characters(blacklist_characters="\n"), max_size=12),
)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(role_like)
def test_role_and_sense_helpers_match_the_patterns(text):
    assert smu._core_role(text) == core_role_oracle(text)
    assert smu._predicate_lemma(text) == predicate_lemma_oracle(text)


@pytest.mark.parametrize(
    "text, core, lemma",
    [
        (":ARG", None, None),
        (":ARG-of", None, None),
        (":ARG1-of", (1, True), None),
        (":ARG١٢", (12, False), None),
        (":ARG２-of", (2, True), None),
        (":ARG²", None, None),
        ("-01", None, None),
        ("want-01", None, "want"),
        ("a-b-١٢", None, "a-b"),
        ("go-1", None, None),
        ("go-0²", None, None),
    ],
)
def test_role_and_sense_helpers_edge_cases(text, core, lemma):
    assert smu._core_role(text) == core == core_role_oracle(text)
    assert smu._predicate_lemma(text) == lemma == predicate_lemma_oracle(text)


def test_name_parts_follow_decimal_op_indices():
    graph = parse_penman(
        '(s / see-01 :ARG0 (p / person :name (n / name :op２ "B" :op١ "A" '
        ':op² "X" :op "Y" :opx "Z")))'
    )
    texts = [realize_baseline(c) for c in split_graph(graph)]
    assert texts == [realize_baseline_oracle(c) for c in split_graph(graph)]
    assert texts == ["person A B see"]


@pytest.mark.parametrize("mode", SPLIT_MODES)
def test_split_candidates_behave_like_validated_graphs(mode):
    graph = parse_penman(
        "(w / want-01 :ARG0 (b / boy :quant 2) :ARG1 (g / go-02 :ARG0 b) :ARG1-of (h / hope-01))"
    )
    for candidate in split_graph(graph, mode):
        validated = AmrGraph(
            candidate.root, dict(candidate.nodes), candidate.edges, candidate.attributes
        )
        assert candidate == validated and hash(candidate) == hash(validated)
        assert repr(candidate) == repr(validated)
        for twin in (
            pickle.loads(pickle.dumps(candidate)),
            copy.copy(candidate),
            copy.deepcopy(candidate),
        ):
            assert twin == candidate and hash(twin) == hash(candidate)
        with pytest.raises(TypeError):
            candidate.nodes["x"] = "y"
        assert len({candidate, validated}) == 1


class FakeGenerator:
    """A generator with the client's shape: PENMAN texts in, one text each
    out."""

    def __init__(self):
        self.calls = []

    def generate(self, graphs):
        self.calls.append(list(graphs))
        return [f"text for {g}" for g in graphs]


def test_realize_remote_fills_in_order():
    candidates = split_graph(WANT)
    fake = FakeGenerator()
    texts = realize_remote(candidates, fake)
    assert texts == [f"text for {serialize_penman(c)}" for c in candidates]
    assert fake.calls == [[serialize_penman(c) for c in candidates]]


def test_realize_remote_empty_makes_no_call():
    fake = FakeGenerator()
    assert realize_remote([], fake) == []
    assert fake.calls == []


def test_realize_remote_rejects_wrong_count():
    class Short:
        def generate(self, graphs):
            return ["only one"]

    with pytest.raises(MalformedServiceReply):
        realize_remote(split_graph(WANT), Short())


def test_realize_remote_unreachable_endpoint_gives_up():
    from autopyramid.errors import ServiceUnavailable
    from autopyramid.services import GraphToTextClient
    from stubs import dead_endpoint

    with pytest.raises(ServiceUnavailable) as info:
        realize_remote(split_graph(WANT), GraphToTextClient(dead_endpoint()))
    assert "3 attempts" in str(info.value)


@pytest.mark.parametrize("make", [nested_penman, chained_penman])
def test_split_and_realize_deep_graphs(make):
    graph = parse_penman(make(DEEP))
    for mode in ("one-cr", "all-deps"):
        (candidate,) = split_graph(graph, mode)
        assert candidate.root == "n0"
        assert len(candidate.nodes) == DEEP + 1
        assert realize_baseline(candidate) == deep_realization(DEEP)
        assert serialize_penman(candidate) == nested_penman(DEEP)


def test_split_bounds_the_nodes_of_a_shared_chain():
    # every :ARG1 filler reaches the rest of the chain, so the candidates
    # hold about 1000 * 1000 / 2 nodes, far past the bound
    graph = parse_penman(shared_chain_penman(1000))
    with pytest.raises(GraphTooLarge, match="'n0'.* more than 10000 nodes"):
        split_graph(graph)
    # 200 predicates, each the :ARG1 of the one before: about 200 * 200 / 2
    # nodes in either mode
    nested = "".join(f"(n{i} / go-01 :ARG1 " for i in range(200)) + "(e / end)" + ")" * 200
    for mode in SPLIT_MODES:
        with pytest.raises(GraphTooLarge):
            split_graph(parse_penman(nested), mode)


def test_split_bounds_the_edges_of_a_repeated_edge():
    # 1000 candidates of 3 nodes each, but of 1000 edges each
    graph = parse_penman(repeated_edge_penman(1000))
    with pytest.raises(GraphTooLarge, match="'p'.* more than 10000 nodes, edges"):
        split_graph(graph)


def test_split_bound_is_inclusive(monkeypatch):
    for graph in (
        parse_penman(shared_chain_penman(20)),
        parse_penman(repeated_edge_penman(20)),
        parse_penman(attributed_predicates_penman(20)),
    ):
        candidates = split_graph(graph)
        held = sum(len(c.nodes) + len(c.edges) + len(c.attributes) for c in candidates)
        monkeypatch.setattr(smu, "MAX_SPLIT_SIZE", held)
        assert split_graph(graph) == candidates
        monkeypatch.setattr(smu, "MAX_SPLIT_SIZE", held - 1)
        with pytest.raises(GraphTooLarge):
            split_graph(graph)
        monkeypatch.undo()


@pytest.mark.parametrize(
    "text",
    [
        attributed_predicates_penman(300),
        # attributes of the predicate stored after those of its filler
        "(p / x-01 :ARG0 (c / thing :quant 1 :ARG1-of (q / y-02 :mod 2)) :polarity - :ARG1 c)",
    ],
)
def test_split_takes_attributes_in_stored_order(text):
    graph = parse_penman(text)
    for mode in SPLIT_MODES:
        assert split_graph(graph, mode) == split_graph_oracle(graph, mode)
