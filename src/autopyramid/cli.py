"""Command-line surface: extract, score, intrinsic, metaeval, stats.

Every command runs the same way: :func:`main` opens the dataset named by
``--input``, the command takes each entry once, as it is read and checked,
and then reads its other inputs, and :func:`_write_output` writes its
rows to ``--out`` and then the manifest; a command given no ``--out``
writes nothing, and so takes no digest of its inputs. The digests are taken with CPython's built-in
SHA-256 (:func:`~autopyramid.data.read_input`), so a command that calls
no endpoint loads neither ``hashlib`` nor OpenSSL, except on a build
without that module. Inputs and usage are checked before ``--out`` is
opened; rows and service requests come after, and the first fault ends the
command. ``extract`` and ``score`` compute their rows while the writer
writes them, so their temp file beside ``--out`` is there for the whole
run, and a process killed by a signal in that time leaves it behind.

Of the dataset, ``stats`` keeps running sums, ``extract`` each example's
id and reference texts, and ``metaeval`` each example's id, the first
example's system ids, sorted, and the human scores in that cell order, in
which :func:`~autopyramid.data.load_scores` puts each score as it reads it.
``score`` and ``intrinsic`` spool the summaries, or the gold units, and
then the unit texts to a temporary file (:mod:`~autopyramid.spool`), and
read each example's back as they score it. A command imports only the modules
it runs: graph code for ``--strategy smu``, the HTTP client for a given
endpoint, presence scoring for ``score`` and statistics for the report
commands. An input error that a loader finds at a line of a file names the
file first. A fault the dataset alone shows (no entries, an example with
no gold units, systems that cannot be correlated) is reported before a
second input is opened.

Exit codes are stable: 0 on success, 2 for input or usage problems, 3 when
an external service fails. Every output file is written atomically and
accompanied by a ``.manifest.json`` sidecar; given the same inputs, seed,
and service replies, reruns are byte-identical except for the manifest
timestamp. A report that cannot be written to standard output (a pipe
whose reader has gone) ends the command with exit 2 and one line on
standard error, before ``--out`` is written; a closed standard output
takes no report and is no error.

:func:`main` runs a command in process and returns its exit code. A
process runs it through :func:`run_and_exit`, the target of ``python -m
autopyramid.cli`` and of the ``autopyramid`` console script, which ends
the process with ``os._exit``, skipping the interpreter's teardown. The
text of ``--help`` and ``--version`` is written like a report, so it too
fails with exit 2 and that line, buffered or not.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys

from . import __version__, _lazy_names
from .data import (
    SPLIT_MODES,
    VALID_STRATEGIES,
    UnitFileRow,
    atomic_write_text,
    import_rows,
    json_line,
    load_dataset,
    load_scores,
    load_units,
    _surrogate,
)
from .data import save_units as write_unit_file
from .errors import (
    AutoPyramidError,
    DegenerateInput,
    EmptyDataset,
    FileUnwritable,
    GraphTooLarge,
    InputError,
    LengthMismatch,
    MalformedPenman,
    MalformedServiceReply,
    NoGoldUnits,
    NoUnits,
    ReferenceFailure,
    RemoteError,
    ServiceUnavailable,
)
from .manifest import write_manifest
from .text import split_sentences

# The names only some commands use load with their first use, and are
# called through this module, ``_lazy``, so that a name set on it (a
# wrapper) is the one called. score_summary is kept importable from here.
__getattr__ = _lazy_names(
    globals(),
    {
        "amr": "PenmanEntry load_penman_file parse_penman",
        "extract": "extract_ngram_units extract_sentence_units extract_sgu_units_many "
        "extract_smu_units extract_smu_units_many",
        "presence": "lexical_scorer prescored remote_scorer score_summaries score_summary",
        "services": "ChatClient GraphToTextClient ParseServiceClient check_endpoint",
        "spool": "TextSpool",
        "stats": "corpus_stats easiness summary_level system_level",
    },
)
_lazy = sys.modules[__name__]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SERVICE = 3

# the commands that spool texts, and what the errors call it
SPOOLED = {"score": "the summaries and units", "intrinsic": "the units"}


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def fraction(text: str) -> float:
    """argparse type for a share in (0, 1]."""
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise ValueError(text)
    return value


def temperature(text: str) -> float:
    """argparse type for a finite sampling temperature of at least 0."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(text)
    return value


def _sizes(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def ngram_sizes(text: str) -> str:
    """argparse type for comma-separated n-gram sizes, each at least 1.
    The text is kept as given, which is what the manifest records."""
    sizes = _sizes(text)
    if not sizes or min(sizes) < 1:
        raise ValueError(text)
    return text


class _Parser(argparse.ArgumentParser):
    """Writes standard output through :func:`_write_stdout`; argparse's own
    write drops an ``OSError``. Subcommand parsers are of this class too."""

    def _print_message(self, message, file=None):
        if message and file is not None and file is sys.stdout:
            _write_stdout(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="autopyramid",
        description="Automated Pyramid scoring: unit extraction, presence "
        "scoring, and metric meta-evaluation.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    extract = sub.add_parser(
        "extract", help="extract content units from reference summaries"
    )
    extract.add_argument("--input", required=True, help="dataset JSONL file")
    extract.add_argument("--out", required=True, help="unit JSONL file to write")
    extract.add_argument(
        "--strategy", required=True, choices=sorted(STRATEGIES)
    )
    extract.add_argument("--seed", type=int, default=42)
    extract.add_argument(
        "--ngram-sizes",
        type=ngram_sizes,
        default="3,4,5",
        help="comma-separated window sizes",
    )
    extract.add_argument("--ngram-fraction", type=fraction, default=0.05)
    extract.add_argument("--split-mode", choices=SPLIT_MODES, default="one-cr")
    extract.add_argument(
        "--graphs",
        help="pre-parsed PENMAN file; blocks follow dataset order, one per "
        "reference sentence",
    )
    extract.add_argument("--parse-endpoint", help="sentence-to-graph service URL")
    extract.add_argument(
        "--gen-endpoint",
        help="graph-to-text service URL (template realizer when omitted)",
    )
    extract.add_argument("--llm-endpoint", help="chat-completions service URL")
    extract.add_argument("--llm-model", help="model identifier for sgu extraction")
    extract.add_argument("--temperature", type=temperature, default=0.0)
    extract.add_argument("--import-path", help="unit file to import")
    extract.add_argument(
        "--import-tag", default="imported_stu", choices=sorted(VALID_STRATEGIES)
    )
    extract.add_argument("--batch-size", type=positive_int, default=32)
    extract.add_argument("--concurrency", type=positive_int, default=4)
    extract.set_defaults(func=cmd_extract)

    score = sub.add_parser("score", help="presence-score system summaries")
    score.add_argument("--input", required=True, help="dataset JSONL file")
    score.add_argument("--units", required=True, help="unit JSONL file")
    score.add_argument("--out", required=True, help="score JSONL file to write")
    score.add_argument("--scorer", choices=("lexical", "remote"), default="lexical")
    score.add_argument("--nli-endpoint", help="presence service URL")
    score.add_argument("--batch-size", type=positive_int, default=32)
    score.add_argument("--concurrency", type=positive_int, default=4)
    score.set_defaults(func=cmd_score)

    intrinsic = sub.add_parser(
        "intrinsic", help="easiness of an approximation against gold units"
    )
    intrinsic.add_argument("--input", required=True, help="dataset JSONL file")
    intrinsic.add_argument("--units", required=True, help="unit JSONL file")
    intrinsic.add_argument("--out", help="also write the report as JSONL")
    intrinsic.set_defaults(func=cmd_intrinsic)

    metaeval = sub.add_parser(
        "metaeval", help="correlate metric scores with human judgments"
    )
    metaeval.add_argument("--input", required=True, help="dataset JSONL file")
    metaeval.add_argument("--scores", required=True, help="score JSONL file")
    metaeval.add_argument(
        "--level", choices=("system", "summary", "both"), default="both"
    )
    metaeval.add_argument(
        "--corr", choices=("pearson", "spearman", "both"), default="both"
    )
    metaeval.add_argument("--out", help="also write the table as JSONL")
    metaeval.set_defaults(func=cmd_metaeval)

    stats = sub.add_parser("stats", help="reference-summary statistics")
    stats.add_argument("--input", required=True, help="dataset JSONL file")
    stats.add_argument("--out", help="also write the statistics as JSONL")
    stats.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    """Run the command *argv* names and return its exit code. The collector
    is left as it was found."""
    spool = None
    try:
        args = build_parser().parse_args(argv)
        _check_arguments(args)
        # the inputs' digests, for the manifest: none without --out
        digests = {} if args.out else None
        if args.command in SPOOLED:
            spool = args.spool = _lazy.TextSpool(SPOOLED[args.command])
        return args.func(args, load_dataset(args.input, digests=digests), digests)
    except SystemExit as exc:  # argparse: usage, --help, --version
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    except RemoteError as exc:
        print(f"autopyramid: {exc}", file=sys.stderr)
        return EXIT_SERVICE
    except AutoPyramidError as exc:
        where = f"{exc.path}, " if getattr(exc, "path", None) is not None else ""
        print(f"autopyramid: {where}{exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if spool is not None:
            spool.close()


def run_and_exit():
    """Run :func:`main` on the process's arguments, then end the process
    with its exit code and without the interpreter's teardown. Output left
    in standard output's buffer (``--help``, ``--version``) that cannot be
    written makes a successful exit code 2, with one line on standard
    error."""
    code = main()
    try:
        try:
            _write_stdout("")
        except FileUnwritable as exc:
            print(f"autopyramid: {exc}", file=sys.stderr)
            code = code or EXIT_INPUT
        if sys.stderr is not None:
            sys.stderr.flush()
    except (OSError, ValueError):  # a failed write, or a stream closed
        sys.exit(code)
    os._exit(code)


def _report(lines) -> None:
    """Print *lines* to standard output and flush it, so that a report that
    cannot be written fails the command before its output is written."""
    _write_stdout("".join(f"{line}\n" for line in lines))


def _write_stdout(text: str) -> None:
    """Write *text* to standard output and flush it; a closed standard
    output takes nothing, as print's would. A write or flush that fails
    raises :class:`FileUnwritable`."""
    out = sys.stdout
    if out is None:
        return
    try:
        out.write(text)
        out.flush()
    except OSError as exc:
        # what is left unwritten goes to the null device, so that no later
        # flush, the one at exit included, fails again
        try:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, out.fileno())
            os.close(null)
        except OSError:
            pass
        reason = exc.strerror or type(exc).__name__
        raise FileUnwritable(f"cannot write standard output: {reason}") from exc


def _check_arguments(args) -> None:
    """Refuse, before an input is read, an endpoint that is not a usable
    http(s) URL and, given ``--out``, another option that holds a byte that
    is not UTF-8 (a lone surrogate), which no manifest or request can hold."""
    for name, value in vars(args).items():
        option = f"--{name.replace('_', '-')}"
        if args.out and name != "out" and _surrogate(str(value)):
            raise InputError(f"{option} holds a byte that is not UTF-8")
        if name.endswith("_endpoint") and value is not None:
            try:
                _lazy.check_endpoint(value)
            except InputError as exc:
                raise InputError(f"{option}: {exc}") from exc


# ---------------------------------------------------------------------------
# extract


def _each_reference(entries):
    for example_id, texts in entries:
        for index, text in enumerate(texts):
            yield example_id, index, text


def _reference_texts(entries):
    return (text for _, _, text in _each_reference(entries))


def _smu_graphs(args, entries, digests):
    """The sentence graphs of each reference in dataset order, one list of
    :class:`PenmanEntry` at a time, parsed as it is taken, from a file (line
    of the block) or the parser service (line ``None``, asked at the first).
    File blocks are consumed positionally, one per reference sentence; the
    file's digest goes into *digests* once it has been read to its end."""
    texts = _reference_texts(entries)
    if args.graphs:
        counts = (len(split_sentences(text)) for text in texts)
        blocks = _lazy.load_penman_file(args.graphs, digests=digests)
    elif args.parse_endpoint:
        sentences = [split_sentences(text) for text in texts]
        counts = list(map(len, sentences))
        client = _lazy.ParseServiceClient(
            args.parse_endpoint,
            batch_size=args.batch_size,
            concurrency=args.concurrency,
        )
        blocks = _parsed(client, [s for listed in sentences for s in listed])
    else:
        raise InputError("--strategy smu needs --graphs or --parse-endpoint")
    return _per_reference(entries, counts, blocks, args.graphs)


def _parsed(client, sentences):
    """The :class:`PenmanEntry` of each graph *client* parses *sentences* into."""
    for text in client.parse_sentences(sentences):
        try:
            graph = _lazy.parse_penman(text)
        except MalformedPenman as exc:
            message = f"parse service returned an unparseable graph: {exc}"
            raise MalformedServiceReply(message) from exc
        yield _lazy.PenmanEntry(graph)


def _per_reference(entries, counts, blocks, path):
    """*blocks* in one list for each reference, of the length *counts*
    gives: blocks of file *path* that run out early fail, and so does the
    first block left over once every list has been taken."""
    used = 0
    for (example_id, index, _), count in zip(_each_reference(entries), counts):
        take = list(itertools.islice(blocks, count))
        if len(take) < count:
            raise InputError(
                f"{path}: graphs file ended early: example {example_id} "
                f"reference {index} needs {count} graphs"
            )
        used += count
        yield take
    extra = next(blocks, None)
    if extra is not None:
        raise InputError(
            f"{path}, line {extra.line}: graphs file has more than the {used} "
            "blocks the dataset uses"
        )


def _reference_rows(entries, tag: str, unit_lists):
    """Rows tagged *tag* for the unit texts of each reference, made as they
    are taken: *unit_lists* gives one unit list per reference, in dataset
    order, and is taken to its end.

    This is the one place that names a failed reference: a
    :class:`ReferenceFailure` is raised again with the example and the
    reference, which is the one at ``reference`` (0 when unset) among
    those whose lists were not yet taken.
    """
    taken = 0
    try:
        for units, (example_id, index, _) in zip(unit_lists, _each_reference(entries)):
            for text in units:
                yield UnitFileRow(example_id, index, tag, text)
            taken += 1
    except ReferenceFailure as exc:
        position = taken + (exc.reference or 0)
        example_id, index, _ = next(itertools.islice(_each_reference(entries), position, None))
        raise type(exc)(f"example {example_id} reference {index}: {exc}") from exc


# Each strategy's unit rows, made as they are taken, and manifest
# ``extra``, from (args, entries, digests), entries being (example id,
# reference texts). Each passes _reference_rows one
# stream of unit lists; an extractor given many references works through
# all of them before it gives the first list. The extractors are read off
# this module at call time, so that wrapping them here wraps every call.


def _sentence_rows(args, entries, digests):
    unit_lists = map(_lazy.extract_sentence_units, _reference_texts(entries))
    return _reference_rows(entries, "sentence_split", unit_lists), None


def _ngram_rows(args, entries, digests):
    sizes = _sizes(args.ngram_sizes)
    unit_lists = (
        _lazy.extract_ngram_units(text, sizes, args.ngram_fraction, args.seed)
        for text in _reference_texts(entries)
    )
    return _reference_rows(entries, "ngram", unit_lists), None


def _smu_rows(args, entries, digests):
    references = _smu_graphs(args, entries, digests)
    current = []  # the PenmanEntry blocks of the reference being split

    def graph_lists():
        nonlocal current
        for current in references:
            yield [block.graph for block in current]

    if args.gen_endpoint:
        # one /gen call for the whole command, once every candidate is
        # serialized; the template realizer goes a reference at a time
        generator = _lazy.GraphToTextClient(
            args.gen_endpoint, batch_size=args.batch_size, concurrency=args.concurrency
        )

    def unit_lists():
        try:
            if args.gen_endpoint:
                yield from _lazy.extract_smu_units_many(
                    graph_lists(), args.split_mode, generator
                )
            else:
                for graphs in graph_lists():
                    yield _lazy.extract_smu_units(graphs, args.split_mode)
        except GraphTooLarge as exc:
            if args.graphs:
                line = current[exc.graph].line
                exc.args = (f"graph at line {line} of {args.graphs}: {exc}",)
            raise

    extra = {
        "split_mode": args.split_mode,
        "realizer": "remote" if args.gen_endpoint else "template",
    }
    return _reference_rows(entries, "smu", unit_lists()), extra


def _sgu_rows(args, entries, digests):
    if entries and not (args.llm_endpoint and args.llm_model):
        raise ServiceUnavailable("no LLM endpoint/model configured for sgu units")
    client = _lazy.ChatClient(
        args.llm_endpoint,
        args.llm_model,
        temperature=args.temperature,
        concurrency=args.concurrency,
    )

    def unit_lists():  # the model is asked once the first row is taken
        yield from _lazy.extract_sgu_units_many(list(_reference_texts(entries)), client)

    extra = {
        "sgu_prompt_framing": "system,example-user,example-assistant,reference-user",
        "llm_model": args.llm_model,
        "temperature": args.temperature,
    }
    return _reference_rows(entries, "sgu", unit_lists()), extra


def _imported_rows(args, entries, digests):
    if not args.import_path:
        raise InputError("--strategy import needs --import-path")
    rows = import_rows(
        args.import_path,
        args.import_tag,
        digests=digests,
        reference_counts={example_id: len(texts) for example_id, texts in entries},
    )
    return rows, None


STRATEGIES = {
    "sent": _sentence_rows,
    "ngram": _ngram_rows,
    "smu": _smu_rows,
    "sgu": _sgu_rows,
    "import": _imported_rows,
}


# the arguments a manifest's config leaves out: the command, the spool, and
# the paths of its dataset, units, scores and output, recorded apart
_NOT_CONFIG = ("command", "func", "input", "out", "units", "scores", "spool")


def _write_output(args, digests, rows, *, config=None, extra=None) -> int:
    """Write *rows* to ``--out``, then its manifest; nothing without ``--out``.

    *rows* are unit rows from ``extract``, which the unit-file writer
    checks, and JSON lines from any other command. Either may be a
    generator, consumed as the file is written; an error in a row or the
    manifest leaves ``--out`` as it was. The manifest's config is *config*,
    else the command's options.
    """
    if args.out:
        if config is None:
            config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}

        def rows_then_manifest():
            yield from rows
            write_manifest(
                args.out, command=args.command, config=config, inputs=digests, extra=extra
            )

        write = write_unit_file if args.command == "extract" else atomic_write_text
        write(args.out, rows_then_manifest())
    return EXIT_OK


def cmd_extract(args, entries, digests) -> int:
    entries = [(e.example_id, tuple([r.text for r in e.references])) for e in entries]
    rows, extra = STRATEGIES[args.strategy](args, entries, digests)
    return _write_output(args, digests, rows, extra=extra)


# ---------------------------------------------------------------------------
# score


def _spool_units(args, places, counts, digests) -> int:
    """Spool each unit text in group *first* + its example's place; give
    *first*, the number of examples."""
    first = len(places)
    rows = load_units(args.units, digests=digests, reference_counts=counts)
    for example_id, run in itertools.groupby(rows, key=lambda row: row.example_id):
        args.spool.add(first + places[example_id], [row.text for row in run])
    return first


def cmd_score(args, entries, digests) -> int:
    spool, places, counts, systems = args.spool, {}, {}, []
    hold = {}.setdefault  # one tuple for equal system ids
    for place, entry in enumerate(entries):
        places[entry.example_id], counts[entry.example_id] = place, len(entry.references)
        ids = tuple([system.system_id for system in entry.systems])
        systems.append(hold(ids, ids))
        spool.add(place, [system.summary for system in entry.systems])
    first = _spool_units(args, places, counts, digests)

    missing = [e for e, place in places.items() if not spool.size(first + place)]
    if missing:
        raise NoUnits(f"no units for examples: {', '.join(sorted(missing))}")

    if args.scorer == "remote" and not args.nli_endpoint:
        raise ServiceUnavailable("--scorer remote needs --nli-endpoint")

    def examples():  # by id: units, summaries by system id
        for example_id in sorted(places):
            place = places[example_id]
            ids, texts = systems[place], spool.texts(place)
            order = sorted(range(len(ids)), key=ids.__getitem__)
            units = spool.texts(first + place)
            yield example_id, units, [ids[j] for j in order], [texts[j] for j in order]

    def lines():  # each row is written as it is scored
        scorer = _lazy.lexical_scorer
        if args.scorer == "remote":
            # every pair of the command in one batched call; the lexical
            # scorer stays per example, to hold one example's token bags
            remote = _lazy.remote_scorer(
                args.nli_endpoint, batch_size=args.batch_size, concurrency=args.concurrency
            )
            pairs = ((units, texts) for _, units, _, texts in examples())
            scorer = _lazy.prescored(pairs, remote)
        for example_id, units, ids, texts in examples():
            results = _lazy.score_summaries(units, texts, scorer)
            for system_id, result in zip(ids, results):
                row = {
                    "example_id": example_id,
                    "system_id": system_id,
                    "score": result.pyramid_score,
                    "units": len(units),
                }
                yield json_line(row)

    return _write_output(args, digests, lines())


# ---------------------------------------------------------------------------
# intrinsic


def cmd_intrinsic(args, entries, digests) -> int:
    spool, places, counts = args.spool, {}, {}
    empty = None  # the first example with no gold units
    for place, entry in enumerate(entries):
        places[entry.example_id], counts[entry.example_id] = place, len(entry.references)
        pooled = entry.pooled_scus()
        if not pooled and empty is None:
            empty = entry.example_id
        spool.add(place, pooled)
    if not places:
        raise EmptyDataset("dataset has no entries")
    if empty is not None:
        raise NoGoldUnits(f"example {empty} has no gold units")
    first = _spool_units(args, places, counts, digests)

    from array import array

    recall, precision = array("d"), array("d")  # in id order, for any file order
    degenerate = 0
    for example_id in sorted(places):
        place = places[example_id]
        report = _lazy.easiness(spool.texts(place), spool.texts(first + place))
        recall.append(report.easiness_r)
        precision.append(report.easiness_p)
        degenerate += report.degenerate
    mean_r = sum(recall) / first
    mean_p = sum(precision) / first

    _report([
        f"{'examples':>8}  {'easiness_r':>10}  {'easiness_p':>10}  {'empty_approx':>12}",
        f"{first:>8}  {mean_r:>10.4f}  {mean_p:>10.4f}  {degenerate:>12}",
    ])

    row = {
        "examples": first,
        "easiness_r": mean_r,
        "easiness_p": mean_p,
        "empty_approx": degenerate,
        "aggregation": "per-example-mean",
    }
    return _write_output(
        args, digests, [json_line(row)], config={"aggregation": "per-example-mean"}
    )


# ---------------------------------------------------------------------------
# metaeval


def cmd_metaeval(args, entries, digests) -> int:
    from array import array

    # the first example's system ids, sorted, and the human scores of each
    # example in that order, NaN for none: the cell order of load_scores
    example_ids, system_ids, humans = [], None, array("d")
    differ = None  # the first example whose system ids are not those
    for entry in entries:
        systems = sorted(entry.systems)  # by id, which no two systems share
        ids = [system.system_id for system in systems]
        if system_ids is None:
            system_ids = ids
        elif ids != system_ids and differ is None:
            differ = f"example {entry.example_id} has systems {ids}, expected {system_ids}"
        example_ids.append(entry.example_id)
        humans.extend([math.nan if s.human_score is None else s.human_score for s in systems])
    if not example_ids:
        raise EmptyDataset("dataset has no entries")
    if len(system_ids) < 2:
        raise LengthMismatch("meta-evaluation needs at least two systems")
    if differ is not None:
        raise LengthMismatch(differ)
    scores = load_scores(args.scores, example_ids, system_ids, digests=digests)

    width = len(system_ids)
    for cell, (score, human) in enumerate(zip(scores, humans)):
        if score != score or human != human:  # NaN: no row, or no human score
            example_id, system_id = example_ids[cell // width], system_ids[cell % width]
            if score != score:
                raise LengthMismatch(f"score file has no row for {example_id}/{system_id}")
            raise LengthMismatch(f"example {example_id} system {system_id} has no human score")
    metric_matrix, human_matrix = (
        [view[k * width : (k + 1) * width] for k in range(len(example_ids))]
        for view in (memoryview(scores), memoryview(humans))
    )

    levels = ["system", "summary"] if args.level == "both" else [args.level]
    kinds = ["pearson", "spearman"] if args.corr == "both" else [args.corr]

    cells = []
    for level in levels:
        for kind in kinds:
            compute = _lazy.system_level if level == "system" else _lazy.summary_level
            cell = {
                "level": level,
                "corr": kind,
                "value": None,
                "examples": len(metric_matrix),
                "systems": len(system_ids),
                "skipped": None,
            }
            try:
                report = compute(metric_matrix, human_matrix, kind)
            except DegenerateInput as exc:
                cell["note"] = str(exc)
            else:
                cell["value"] = report.value
                if level == "summary":
                    cell["skipped"] = report.skipped
            cells.append(cell)

    lines = [f"{'level':<8} {'corr':<9} {'value':>8} {'examples':>8} {'systems':>8} {'skipped':>8}"]
    for cell in cells:
        value = "n/a" if cell["value"] is None else f"{cell['value']:.4f}"
        skipped = "-" if cell["skipped"] is None else str(cell["skipped"])
        lines.append(
            f"{cell['level']:<8} {cell['corr']:<9} {value:>8} "
            f"{cell['examples']:>8} {cell['systems']:>8} {skipped:>8}"
        )
    _report(lines)

    return _write_output(args, digests, list(map(json_line, cells)))


# ---------------------------------------------------------------------------
# stats


# each corpus statistic's printed label, by its field, in output order
_STATS_LABELS = {
    "examples": "examples",
    "avg_sentences": "avg sentences/reference",
    "avg_words": "avg words/reference",
    "avg_words_per_sentence": "avg words/sentence",
    "refs_per_example": "references/example",
    "avg_scus": "avg gold units/example",
}


def cmd_stats(args, entries, digests) -> int:
    stats = _lazy.corpus_stats(entries)
    row = {field: getattr(stats, field) for field in _STATS_LABELS}
    width = max(map(len, _STATS_LABELS.values()))
    lines = []
    for field, label in _STATS_LABELS.items():
        value = row[field]
        shown = f"{value:.2f}" if isinstance(value, float) else value
        lines.append(f"{label:<{width}}  {shown}")
    _report(lines)
    return _write_output(args, digests, [json_line(row)])


if __name__ == "__main__":
    run_and_exit()
