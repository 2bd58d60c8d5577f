"""Automated Pyramid scoring for summarization evaluation.

The package extracts content units from reference summaries (sentences,
sampled n-grams, semantic-graph splits, or language-model decompositions),
scores system summaries by how strongly each unit is present, and
meta-evaluates metrics against human judgments at the system and summary
level.
"""

__version__ = "0.1.0"

from .amr import (  # noqa: F401
    AmrGraph,
    Attribute,
    Edge,
    PenmanEntry,
    load_penman_file,
    parse_penman,
    serialize_penman,
)
from .data import (  # noqa: F401
    Reference,
    ReferenceEntry,
    SystemSummary,
    UnitFileRow,
    load_dataset,
    load_units,
    save_units,
)
from .extract import (  # noqa: F401
    extract_ngram_units,
    extract_sentence_units,
    extract_sgu_units_many,
    extract_smu_units,
    extract_smu_units_many,
)
from .presence import (  # noqa: F401
    PresenceResult,
    lexical_scorer,
    remote_scorer,
    score_summaries,
    score_summary,
)
from .smu import (  # noqa: F401
    realize_baseline,
    realize_remote,
    split_graph,
)
from .stats import (  # noqa: F401
    CorpusStats,
    CorrelationReport,
    EasinessReport,
    average_ranks,
    cohen_kappa,
    corpus_stats,
    easiness,
    pearson,
    spearman,
    summary_level,
    system_level,
    wilcoxon_signed_rank,
)
from .text import (  # noqa: F401
    rouge1_f1,
    split_sentences,
    tokenize,
)
