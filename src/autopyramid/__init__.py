"""Automated Pyramid scoring for summarization evaluation.

The package extracts content units from reference summaries (sentences,
sampled n-grams, semantic-graph splits, or language-model decompositions),
scores system summaries by how strongly each unit is present, and
meta-evaluates metrics against human judgments at the system and summary
level.

Each library name is imported from its module on first use (PEP 562), so
``import autopyramid`` loads no submodule.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the library's names, by the module that defines them
_NAMES = {
    "amr": "AmrGraph Attribute Edge PenmanEntry load_penman_file parse_penman "
    "serialize_penman",
    "data": "Reference ReferenceEntry SystemSummary UnitFileRow load_dataset load_units "
    "save_units",
    "extract": "extract_ngram_units extract_sentence_units extract_sgu_units_many "
    "extract_smu_units extract_smu_units_many",
    "presence": "PresenceResult lexical_scorer remote_scorer score_summaries score_summary",
    "smu": "realize_baseline realize_remote split_graph",
    "stats": "CorpusStats CorrelationReport EasinessReport average_ranks cohen_kappa "
    "corpus_stats easiness pearson spearman summary_level system_level",
    "text": "rouge1_f1 split_sentences tokenize",
}


def _lazy_names(namespace: dict, names: dict[str, str]):
    """A module ``__getattr__`` for the module whose globals are *namespace*.

    Each name in *names* (module of this package -> space-separated names)
    is imported from its module on the first read and kept in *namespace*,
    so later reads, and calls made through the module object, find it
    there; a name set on the module first is the one read.
    """
    home = {name: module for module, listed in names.items() for name in listed.split()}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(_import_module(f"{__name__}.{home[name]}"), name)
        return value

    return __getattr__


__getattr__ = _lazy_names(globals(), _NAMES)
__all__ = " ".join(_NAMES.values()).split()


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
