"""The library surface: names load on first use, and records are tuples.

``import autopyramid`` loads no submodule; each documented name is the
object its module defines, however it is reached. The record types are
named tuples that keep the fields, defaults, equality, hash and
immutability they had as frozen dataclasses, and a graph checks its
invariants however it is built, ``_replace`` included.
"""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import autopyramid
from autopyramid import cli
from autopyramid.amr import AmrGraph, Edge, PenmanEntry, parse_penman
from autopyramid.data import Reference, ReferenceEntry, SystemSummary, UnitFileRow
from autopyramid.presence import PresenceResult
from autopyramid.stats import CorpusStats, CorrelationReport, EasinessReport

ROOT = Path(__file__).resolve().parent.parent

# every name the package exported when it imported all its modules, by module
EXPORTED = {
    "amr": [
        "AmrGraph", "Attribute", "Edge", "PenmanEntry",
        "load_penman_file", "parse_penman", "serialize_penman",
    ],
    "data": [
        "Reference", "ReferenceEntry", "SystemSummary", "UnitFileRow",
        "load_dataset", "load_units", "save_units",
    ],
    "extract": [
        "extract_ngram_units", "extract_sentence_units", "extract_sgu_units_many",
        "extract_smu_units", "extract_smu_units_many",
    ],
    "presence": [
        "PresenceResult", "lexical_scorer", "remote_scorer", "score_summaries",
        "score_summary",
    ],
    "smu": ["realize_baseline", "realize_remote", "split_graph"],
    "stats": [
        "CorpusStats", "CorrelationReport", "EasinessReport", "average_ranks",
        "cohen_kappa", "corpus_stats", "easiness", "pearson", "spearman",
        "summary_level", "system_level",
    ],
    "text": ["rouge1_f1", "split_sentences", "tokenize"],
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names]
SEE = parse_penman("(s / see-01 :ARG0 (b / boy))")


def test_importing_the_package_loads_no_submodule():
    probe = (
        "import sys, autopyramid; "
        "print(sorted(m for m in sys.modules if m.startswith('autopyramid.')))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_each_exported_name_is_its_modules_object_every_way(monkeypatch, module, name):
    expected = getattr(import_module(f"autopyramid.{module}"), name)
    # not yet read through the package, so the first read goes through
    # its __getattr__
    monkeypatch.delitem(vars(autopyramid), name, raising=False)
    assert name in dir(autopyramid)
    assert getattr(autopyramid, name) is expected
    imported = {}
    exec(f"from autopyramid import {name}", imported)
    assert imported[name] is expected
    starred = {}
    exec("from autopyramid import *", starred)
    assert starred[name] is expected


def test_the_package_exports_exactly_the_documented_names():
    assert sorted(autopyramid.__all__) == sorted(name for _, name in NAMES)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        autopyramid.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name
    with pytest.raises(ImportError):
        exec("from autopyramid import no_such_name", {})


RECORDS = [
    (Reference, ("text", "scus"), {"scus": ()}, ("a cat", ("cat",))),
    (
        SystemSummary,
        ("system_id", "summary", "human_score", "scu_presence"),
        {"human_score": None, "scu_presence": None},
        ("s1", "a cat sat", 0.5, (1,)),
    ),
    (
        ReferenceEntry,
        ("example_id", "references", "systems"),
        {"systems": ()},
        ("e1", (Reference("a cat"),), (SystemSummary("s1", "a cat"),)),
    ),
    (
        UnitFileRow,
        ("example_id", "reference_index", "strategy", "text"),
        {},
        ("e1", 0, "ngram", "a cat"),
    ),
    (
        EasinessReport,
        ("easiness_r", "easiness_p", "gold_best_match", "approx_best_match", "degenerate"),
        {"degenerate": False},
        (0.5, 0.25, (0,), (0, 0), False),
    ),
    (
        CorrelationReport,
        ("level", "kind", "value", "examples", "systems", "skipped"),
        {"skipped": 0},
        ("system", "pearson", 0.5, 3, 2, 0),
    ),
    (
        CorpusStats,
        (
            "avg_sentences", "avg_words", "avg_words_per_sentence", "refs_per_example",
            "avg_scus", "examples",
        ),
        {},
        (2.0, 12.0, 6.0, 1.0, 2.0, 3),
    ),
    (
        PenmanEntry,
        ("graph", "sentence", "line"),
        {"sentence": None, "line": None},
        (SEE, "A boy sees.", 3),
    ),
]


@pytest.mark.parametrize(
    "record, fields, defaults, values", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_records_keep_fields_defaults_equality_hash_and_immutability(
    record, fields, defaults, values
):
    assert record._fields == fields
    assert record._field_defaults == defaults
    made = record(*values)
    assert made == record(**dict(zip(fields, values)))
    # the hash a frozen dataclass gave: that of the tuple of its fields
    assert hash(made) == hash(record(*values)) == hash(values)
    assert made == values  # a record equals the plain tuple of its fields
    assert made != record(*values[:-1], "other")
    assert made._asdict() == dict(zip(fields, values))
    assert made._replace(**{fields[0]: "other"})[0] == "other"
    with pytest.raises(AttributeError):
        setattr(made, fields[0], "other")
    with pytest.raises(AttributeError):
        made.not_a_field = 1
    if defaults:
        required = len(fields) - len(defaults)
        assert record(*values[:required])[required:] == tuple(defaults.values())


def test_graphs_are_records_that_check_their_invariants():
    assert AmrGraph._fields == ("root", "nodes", "edges", "attributes")
    assert AmrGraph._field_defaults == {"edges": (), "attributes": ()}
    edges = (Edge("s", ":ARG0", "b"),)
    graph = AmrGraph("s", {"s": "see-01", "b": "boy"}, edges)
    assert isinstance(graph, tuple) and isinstance(SEE, AmrGraph)
    assert graph == SEE == ("s", {"s": "see-01", "b": "boy"}, edges, ())
    # the read-only node mapping is left out of the hash
    assert hash(graph) == hash(SEE) == hash(("s", edges, ()))
    assert graph._replace(edges=[("s", ":ARG1", "b")]).edges == (Edge("s", ":ARG1", "b"),)
    with pytest.raises(ValueError, match="^root 'x' is not a node$"):
        graph._replace(root="x")
    with pytest.raises(ValueError, match="^edge target 'x' is not a node$"):
        SEE._replace(edges=(("s", ":ARG0", "x"),))
    with pytest.raises(AttributeError):
        graph.root = "b"
    with pytest.raises(AttributeError):
        graph.note = 1
    with pytest.raises(TypeError):
        graph.nodes["x"] = "y"


def test_presence_result_checks_its_probabilities():
    with pytest.raises(ValueError):
        PresenceResult(())
    with pytest.raises(ValueError):
        PresenceResult((0.5, 1.3))
    with pytest.raises(ValueError):
        PresenceResult(probabilities=(-0.1,))
    with pytest.raises(ValueError):
        PresenceResult((0.5,))._replace(probabilities=(1.5,))
    result = PresenceResult((0.25, 0.75))
    assert result.probabilities == (0.25, 0.75)
    assert result.pyramid_score == 0.5
    assert result == PresenceResult(probabilities=(0.25, 0.75))
    assert hash(result) == hash(((0.25, 0.75),))
    with pytest.raises(AttributeError):
        result.probabilities = (1.0,)
    with pytest.raises(AttributeError):
        result.note = "x"
