"""Seeded end-to-end benchmark of the autopyramid command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` and nothing is installed. Set-up writes a seeded synthetic corpus
(``corpus.py``), a PENMAN file for the graph workload, and starts the stub
services (``stub.py``) for the remote workload. The workload's command
sequence then runs again and again, closed loop (one CLI process at a
time, ``python -m autopyramid.cli`` as users invoke it), until the passes
have taken ``--seconds``; each command's timings are medians over passes.

Every command is one operation. It fails when it exits non-zero or when an
output fails its check: the independent oracles in ``oracle.py`` on the
first pass, byte equality with the first pass afterwards, and for the
default seed the SHA-256 digests recorded in ``digests.json``. Any failure
makes the run exit 1.

With ``--trace 1`` each pass runs the sequence twice: untraced, then with
every command under ``trace_cli.py``, which records spans at the layer
boundaries. The run then reports the per-layer metrics and
``trace.overhead_s``, the traced minus the untraced wall time.

All timings are in reference seconds: the CPU-bound part of each
command is scaled by how fast its CPU ran a fixed calibration just before
and after it (see ``CALIBRATION_REF_S``), so that the load other tenants
put on the shared cores does not move them. ``raw.wall_s`` and
``load.slowdown`` in the traced report show the unscaled time and the
load.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--write-spec`` rewrites BENCHMARK.json from the tables below, and
``--record-digests`` rewrites the digests of the default seed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import oracle  # noqa: E402
import stub  # noqa: E402

DEFAULT_SEED = 1
RUN_SECONDS = 25
SETUP_REPEATS = 3
# CPU seconds are reported in reference seconds: raw CPU seconds times
# CALIBRATION_REF_S over the time calibration_s() took on the same CPU just
# before and after. The machine's cores are shared with other tenants whose
# load slows a CPU-bound command by up to 1.8x, in bursts from a second to
# minutes long (a fixed 50 ms loop measured 34-53 ms from one second to the
# next, uncorrelated between the two cores). Raw wall times of
# offline-ngram spread 21% between quartiles over five runs; scaled ones
# spread 5% over ten.
CALIBRATION_REF_S = 0.040
# pacing of the clients' retries after an injected 503, in seconds
RETRY_SCHEDULE = "0.01"
CONCURRENCY = "2"
DIGESTS = os.path.join(HERE, "digests.json")
WORK = os.path.join(ROOT, ".perfbench_work")


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Context:
    """What the checks of one run need to know about its inputs."""

    seed: int
    entries: list[dict]

    @functools.cached_property
    def graph_tokens(self) -> dict[str, set[str]]:
        """Per example, every token its sentence graphs can realize to."""
        out = {}
        for entry in self.entries:
            tokens: set[str] = set()
            for sentence in corpus.reference_sentences(entry):
                graph = corpus.sentence_graph(self.seed, sentence)
                for _, concept in graph["nodes"]:
                    tokens.add(concept.split("-")[0])
                for _, _, value in graph["attributes"]:
                    tokens.update(corpus.tokens_of(value))
            out[entry["example_id"]] = tokens
        return out


Check = Callable[[Context, str], list]


@dataclass(frozen=True)
class Step:
    """One CLI command. ``argv`` may name ``{data}``, ``{graphs}``,
    ``{out}`` (the output directory) and ``{url}`` (the stub services)."""

    command: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Workload:
    examples: int
    systems: int
    graphs: bool
    services: bool
    steps: tuple[Step, ...]
    why: str


def extract_args(strategy: str, out: str, *extra: str) -> tuple[str, ...]:
    return ("extract", "--strategy", strategy, "--input", "{data}", "--out", f"{{out}}/{out}") + extra


def file_check(func, *names):
    """A check calling ``func(entries, *paths)`` on files of the output dir."""
    return lambda ctx, out: func(ctx.entries, *(os.path.join(out, n) for n in names))


_REMOTE = ("--concurrency", CONCURRENCY)

WORKLOADS = {
    "offline-ngram": Workload(
        examples=500,
        systems=16,
        graphs=False,
        services=False,
        steps=(
            Step("extract", extract_args("ngram", "units.jsonl"), ("units.jsonl",),
                 file_check(oracle.check_ngram_units, "units.jsonl")),
            Step("score",
                 ("score", "--input", "{data}", "--units", "{out}/units.jsonl",
                  "--out", "{out}/scores.jsonl"),
                 ("scores.jsonl",),
                 lambda ctx, out: oracle.check_scores(
                     ctx.entries, f"{out}/units.jsonl", f"{out}/scores.jsonl", ctx.seed)),
            Step("intrinsic",
                 ("intrinsic", "--input", "{data}", "--units", "{out}/units.jsonl",
                  "--out", "{out}/intrinsic.jsonl"),
                 ("intrinsic.jsonl",),
                 file_check(oracle.check_easiness, "units.jsonl", "intrinsic.jsonl")),
            Step("metaeval",
                 ("metaeval", "--input", "{data}", "--scores", "{out}/scores.jsonl",
                  "--out", "{out}/metaeval.jsonl"),
                 ("metaeval.jsonl",),
                 file_check(oracle.check_metaeval, "scores.jsonl", "metaeval.jsonl")),
            Step("stats", ("stats", "--input", "{data}", "--out", "{out}/stats.jsonl"),
                 ("stats.jsonl",), file_check(oracle.check_corpus_stats, "stats.jsonl")),
        ),
        why="CPU-bound offline pipeline on 500x16 (about 5 s a pass); lexical presence and "
        "the easiness matrix dominate, services idle, graphs unused",
    ),
    "smu-graphs": Workload(
        examples=300,
        systems=16,
        graphs=True,
        services=False,
        steps=(
            Step("extract", extract_args("smu", "smu-one-cr.jsonl", "--graphs", "{graphs}",
                                         "--split-mode", "one-cr"),
                 ("smu-one-cr.jsonl",),
                 lambda ctx, out: oracle.check_graph_units(
                     ctx.entries, f"{out}/smu-one-cr.jsonl", ctx.graph_tokens)),
            Step("intrinsic",
                 ("intrinsic", "--input", "{data}", "--units", "{out}/smu-one-cr.jsonl",
                  "--out", "{out}/intrinsic-one-cr.jsonl"),
                 ("intrinsic-one-cr.jsonl",),
                 file_check(oracle.check_easiness, "smu-one-cr.jsonl", "intrinsic-one-cr.jsonl")),
            Step("extract", extract_args("smu", "smu-all-deps.jsonl", "--graphs", "{graphs}",
                                         "--split-mode", "all-deps"),
                 ("smu-all-deps.jsonl",),
                 lambda ctx, out: oracle.check_graph_units(
                     ctx.entries, f"{out}/smu-all-deps.jsonl", ctx.graph_tokens)),
            Step("intrinsic",
                 ("intrinsic", "--input", "{data}", "--units", "{out}/smu-all-deps.jsonl",
                  "--out", "{out}/intrinsic-all-deps.jsonl"),
                 ("intrinsic-all-deps.jsonl",),
                 file_check(oracle.check_easiness, "smu-all-deps.jsonl",
                            "intrinsic-all-deps.jsonl")),
        ),
        why="300x16 corpus plus one PENMAN graph per reference sentence; graph parsing, "
        "splitting and realization dominate, presence and services bypassed",
    ),
    "remote-services": Workload(
        examples=64,
        systems=16,
        graphs=False,
        services=True,
        steps=(
            Step("extract", extract_args("sent", "sent.jsonl"), ("sent.jsonl",),
                 file_check(oracle.check_sentence_units, "sent.jsonl")),
            Step("score",
                 ("score", "--input", "{data}", "--units", "{out}/sent.jsonl",
                  "--out", "{out}/scores.jsonl", "--scorer", "remote",
                  "--nli-endpoint", "{url}/presence") + _REMOTE,
                 ("scores.jsonl",),
                 lambda ctx, out: oracle.check_scores(
                     ctx.entries, f"{out}/sent.jsonl", f"{out}/scores.jsonl", ctx.seed)),
            Step("extract", extract_args("smu", "smu.jsonl", "--parse-endpoint", "{url}/parse",
                                         "--gen-endpoint", "{url}/gen") + _REMOTE,
                 ("smu.jsonl",),
                 lambda ctx, out: oracle.check_graph_units(
                     ctx.entries, f"{out}/smu.jsonl", ctx.graph_tokens)),
            Step("extract", extract_args("sgu", "sgu.jsonl", "--llm-endpoint", "{url}/chat",
                                         "--llm-model", "stub") + _REMOTE,
                 ("sgu.jsonl",),
                 lambda ctx, out: oracle.check_fragment_units(
                     ctx.entries, f"{out}/sgu.jsonl", stub.fragments)),
            Step("metaeval",
                 ("metaeval", "--input", "{data}", "--scores", "{out}/scores.jsonl",
                  "--out", "{out}/metaeval.jsonl"),
                 ("metaeval.jsonl",),
                 file_check(oracle.check_metaeval, "scores.jsonl", "metaeval.jsonl")),
        ),
        why="64x16 corpus against stub services in their own process: per-summary presence, "
        "a flattened parse batch, per-reference gen and chat calls, injected 503s",
    ),
}


# ---------------------------------------------------------------------------
# Metrics: name, unit, direction, bound (end to end only)

END_TO_END = [
    ("wall_s", "s", "lower", 0.25, "wall time of the workload's whole command sequence"),
    ("cpu_s", "s", "lower", 0.25, "user+sys CPU of the CLI processes, stub services excluded"),
    ("peak_rss_mb", "MB", "lower", 0.1, "largest max-RSS of any CLI process in the sequence"),
    ("setup_s", "s", "lower", 0.25, "corpus and graph generation, stub start, first import"),
]

SERVICE_FIELDS = (
    ("requests", "count"),
    ("items_per_request", "items/request"),
    ("items_max", "items"),
    ("inflight_max", "count"),
    ("retried", "count"),
)
LAYERS = ("cli", "data", "manifest", "text", "extract", "amr", "smu", "presence", "services", "stats")

_HIGHER = ("presence.unique_pair_ratio", ".items_per_request", ".items_max", ".inflight_max")

PER_LAYER = [
    (name, unit, "higher" if name.endswith(_HIGHER) else "lower")
    for name, unit in [
        ("extract_s", "s"),
        ("score_s", "s"),
        ("intrinsic_s", "s"),
        ("service_requests", "count"),
        ("error_rate", "ratio"),
    ]
    + [(f"cli.{c}.self_s", "s") for c in ("extract", "score", "intrinsic", "metaeval", "stats")]
    + [("cli.metaeval.s", "s"), ("cli.stats.s", "s")]
    + [(f"layer.{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("data.load_dataset.s", "s"),
        ("data.load_dataset.calls", "count"),
        ("data.load_units.s", "s"),
        ("data.save_units.s", "s"),
        ("data.atomic_write_text.s", "s"),
        ("manifest.write_manifest.s", "s"),
        ("manifest.bytes", "bytes"),
        ("presence.score_summary.calls", "count"),
        ("presence.pairs", "count"),
        ("presence.unique_pair_ratio", "ratio"),
        ("presence.lexical_scorer.s", "s"),
        ("presence.lexical_scorer.share_of_score", "ratio"),
        ("presence.remote_scorer.s", "s"),
        ("presence.tokenize.calls", "count"),
        ("stats.easiness.s", "s"),
        ("stats.easiness.cells", "count"),
        ("stats.rouge1_f1.calls", "count"),
        ("stats.tokenize.calls", "count"),
        ("stats.system_level.s", "s"),
        ("stats.summary_level.s", "s"),
        ("stats.corpus_stats.s", "s"),
        ("extract.extract_ngram_units.s", "s"),
        ("extract.extract_sentence_units.s", "s"),
        ("extract.extract_smu_units.s", "s"),
        ("extract.extract_sgu_units_many.s", "s"),
        ("extract.units", "count"),
        ("amr.load_penman_file.s", "s"),
        ("amr.parse_penman.calls", "count"),
        ("amr.parse_penman.s", "s"),
        ("amr.serialize_penman.s", "s"),
        ("smu.split_graph.s", "s"),
        ("smu.split_graph.candidates", "count"),
        ("smu.realize_baseline.s", "s"),
        ("smu.realize_remote.calls", "count"),
        ("smu.realize_remote.s", "s"),
        ("services.PresenceClient.probabilities.calls", "count"),
    ]
    + [(f"services.{svc}.{name}", unit) for svc in stub.SERVICES for name, unit in SERVICE_FIELDS]
    + [("trace.overhead_s", "s"), ("raw.wall_s", "s"), ("load.slowdown", "ratio")]
]


def spec() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w.why} for name, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER
        ],
    }


# ---------------------------------------------------------------------------
# Processes


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["AUTOPYRAMID_RETRY_SCHEDULE"] = RETRY_SCHEDULE
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


_CALIBRATION_WORDS = [f"w{i * 7919 % 20011}" for i in range(30_000)]


def calibration_s() -> float:
    """Seconds this CPU takes right now for a fixed piece of the kind of
    work the package does: dict counting, regex tokenizing, JSON."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for word in _CALIBRATION_WORDS:
        counts[word] = counts.get(word, 0) + 1
    corpus.tokens_of(" ".join(_CALIBRATION_WORDS))
    rows = [{"word": w, "n": n} for w, n in sorted(counts.items())]
    json.loads(json.dumps(rows[:4000]))
    return time.perf_counter() - start


def reference_scale(before: float) -> float:
    """Factor from raw to reference seconds for work timed between the
    calibration *before* and one taken now."""
    return 2 * CALIBRATION_REF_S / (before + calibration_s())


def process_cpu_s(pid: int) -> float:
    """User+sys seconds a running process has used so far."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@dataclass
class CommandRun:
    """One process: raw wall and CPU seconds, peak RSS, exit code, the CPU
    seconds the stub services spent meanwhile, and ``scale``, the factor
    that turns CPU seconds on the loaded CPU into reference seconds."""

    command: str
    wall: float
    cpu: float
    rss_kb: int
    code: int
    stderr: str
    scale: float
    service_cpu: float = 0.0

    @property
    def ref_wall(self) -> float:
        """Wall seconds with the CPU-bound part at reference speed; time
        spent waiting (service delays, retry pauses) stays as measured."""
        return self.wall - (1.0 - self.scale) * (self.cpu + self.service_cpu)


class Launcher:
    """``launcher.py`` in a child process, started with the CLI environment;
    close() ends its input and waits until it exits."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            text=True,
        )

    def run(self, command: str, argv: list[str], log: str, service_pid: int | None) -> CommandRun:
        """Run one process to completion between two calibrations."""
        before = calibration_s()
        service_before = process_cpu_s(service_pid) if service_pid else 0.0
        self.proc.stdin.write(json.dumps({"argv": argv, "log": log}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        service_cpu = process_cpu_s(service_pid) - service_before if service_pid else 0.0
        scale = reference_scale(before)
        if not line:
            raise RuntimeError("the launcher process ended")
        reply = json.loads(line)
        with open(log, "r", encoding="utf-8", errors="replace") as handle:
            stderr = handle.read()[-2000:]
        return CommandRun(
            command, reply["wall"], reply["cpu"], reply["rss_kb"], reply["code"], stderr, scale,
            service_cpu,
        )

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class StubProcess:
    """The stub services in a child process; stop() waits until it exits."""

    def __init__(self, seed: int, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "stub.py"), "--seed", str(seed)],
            stdout=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.stop()
            raise RuntimeError("stub services did not start")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def take_stats(self) -> dict:
        with urllib.request.urlopen(f"{self.url}/stats", timeout=30) as reply:
            return json.load(reply)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# One run


@dataclass
class Pass:
    """One run of the command sequence."""

    wall: float
    commands: list[CommandRun]
    digests: list[dict[str, str]]
    services: dict = field(default_factory=dict)
    spans: list[str] = field(default_factory=list)


def sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class Runner:
    def __init__(self, name: str, workload: Workload, seed: int, work: str):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.work = work
        self.data = os.path.join(work, "data.jsonl")
        self.graphs = os.path.join(work, "graphs.penman")
        self.env = cli_env()
        self.stub: StubProcess | None = None
        self.launcher: Launcher | None = None
        self.ctx: Context | None = None
        self.reference: list[dict[str, str]] | None = None
        self.attempted = 0
        self.failed = 0

    def set_up(self) -> float:
        """Write the inputs, start the stub services, import the package
        once; returns the reference seconds it took."""
        before = calibration_s()
        start = time.perf_counter()
        entries = corpus.write_corpus(
            self.data, self.seed, self.workload.examples, self.workload.systems
        )
        if self.workload.graphs:
            corpus.write_graphs(self.graphs, self.seed, entries)
        if self.workload.services:
            self.stub = StubProcess(self.seed, self.env)
        log = os.path.join(self.work, "import.log")
        with open(log, "wb") as err:
            code = subprocess.call([sys.executable, "-c", "import autopyramid.cli"],
                                   stdout=subprocess.DEVNULL, stderr=err, env=self.env, cwd=ROOT)
        elapsed = time.perf_counter() - start
        scale = reference_scale(before)
        if code != 0:
            with open(log, "r", encoding="utf-8", errors="replace") as handle:
                raise RuntimeError(f"cannot import autopyramid from {SRC}: {handle.read()}")
        self.ctx = Context(self.seed, entries)
        return elapsed * scale

    def stop_stub(self) -> None:
        if self.stub is not None:
            self.stub.stop()
            self.stub = None

    def close(self) -> None:
        """Stop every process the runner started."""
        self.stop_stub()
        if self.launcher is not None:
            self.launcher.close()
            self.launcher = None

    def run_pass(self, label: str, traced: bool) -> Pass:
        out = os.path.join(self.work, label)
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        fill = {
            "data": self.data,
            "graphs": self.graphs,
            "out": out,
            "url": self.stub.url if self.stub else "",
        }
        if self.launcher is None:
            self.launcher = Launcher(self.env)
        runs, spans = [], []
        start = time.perf_counter()
        for index, step in enumerate(self.workload.steps):
            argv = [part.format(**fill) for part in step.argv]
            if traced:
                span_file = os.path.join(out, f"spans-{index}.json")
                spans.append(span_file)
                trace_id = f"{self.name}/{label}/{index}-{step.command}"
                argv = [sys.executable, os.path.join(HERE, "trace_cli.py"), trace_id, span_file] + argv
            else:
                argv = [sys.executable, "-m", "autopyramid.cli"] + argv
            log = os.path.join(out, f"{index}.log")
            service_pid = self.stub.proc.pid if self.stub else None
            runs.append(self.launcher.run(step.command, argv, log, service_pid))
        wall = time.perf_counter() - start
        digests = [
            {
                name: sha256(os.path.join(out, name))
                for name in step.outputs
                if os.path.exists(os.path.join(out, name))
            }
            for step in self.workload.steps
        ]
        services = self.stub.take_stats() if self.stub else {}
        return Pass(wall, runs, digests, services, spans)

    def check(self, run: Pass, label: str, recorded: dict | None) -> None:
        """Count every command of *run* as attempted, and as failed when it
        exited non-zero or an output is wrong."""
        out = os.path.join(self.work, label)
        first = self.reference is None
        for index, step in enumerate(self.workload.steps):
            self.attempted += 1
            problems = failures(self.ctx, step, out, run.commands[index], run.digests[index],
                                None if first else self.reference[index], recorded)
            if problems:
                self.failed += 1
                for problem in problems:
                    print(f"{self.name} {label} step {index} ({step.command}): {problem}",
                          file=sys.stderr)
        if first:
            self.reference = run.digests


def failures(ctx, step: Step, out: str, command: CommandRun, digests: dict,
             reference: dict | None, recorded: dict | None) -> list[str]:
    """Why one command of a pass failed; empty when it passed.

    Without a *reference* (the first pass) the outputs go through the
    step's oracle; afterwards they must equal the first pass byte for
    byte. *recorded* digests (output name to SHA-256), when given, must
    match too.
    """
    if command.code != 0:
        return [f"exit code {command.code}: {command.stderr.strip()}"]
    missing = [name for name in step.outputs if name not in digests]
    if missing:
        return [f"missing output {', '.join(missing)}"]
    problems = []
    if reference is None:
        try:
            problems.extend(step.check(ctx, out))
        except (OSError, ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
            problems.append(f"output unreadable by the oracle: {exc!r}")
    elif digests != reference:
        problems.append("outputs differ from the first pass")
    if recorded is not None:
        want = {name: recorded.get(name) for name in step.outputs}
        if digests != want:
            problems.append(f"digests {digests} differ from the recorded {want}")
    return problems


# ---------------------------------------------------------------------------
# Aggregation


def sequence_metrics(passes: list[Pass]) -> dict[str, float]:
    """End-to-end figures of a typical pass, in reference seconds: each
    command's median over the passes, summed over the sequence."""
    steps = list(zip(*(p.commands for p in passes)))
    wall = [statistics.median(c.ref_wall for c in runs) for runs in steps]

    def wall_of(command):
        return math.fsum(w for w, runs in zip(wall, steps) if runs[0].command == command)

    return {
        "wall_s": math.fsum(wall),
        "cpu_s": math.fsum(statistics.median(c.cpu * c.scale for c in runs) for runs in steps),
        "extract_s": wall_of("extract"),
        "score_s": wall_of("score"),
        "intrinsic_s": wall_of("intrinsic"),
        "peak_rss_mb": max(statistics.median(c.rss_kb for c in runs) for runs in steps) / 1024,
        "service_requests": statistics.median(
            sum(s["requests"] for s in p.services.values()) for p in passes
        ),
        "raw.wall_s": math.fsum(statistics.median(c.wall for c in runs) for runs in steps),
        "load.slowdown": statistics.median(1 / c.scale for p in passes for c in p.commands),
    }


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def trace_metrics(run: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its span files."""
    inclusive: dict[str, float] = {}
    self_s: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    counts: dict[str, float] = {}
    for path, command in zip(run.spans, run.commands):
        if not os.path.exists(path):  # the command failed and is counted so
            continue
        scale = command.scale
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        children: dict[int, list[tuple[float, float]]] = {}
        for _, parent, _, _, start, end, _ in payload["spans"]:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        for span_id, _, name, layer, start, end, leaf in payload["spans"]:
            own = (end - start - _covered(children.get(span_id, [])) - leaf) * scale
            inclusive[name] = inclusive.get(name, 0.0) + (end - start) * scale
            self_s[name] = self_s.get(name, 0.0) + own
            layer_self[layer] += own
        for name, seconds in payload["leaf_s"].items():
            inclusive[name] = inclusive.get(name, 0.0) + seconds * scale
            layer_self["text"] += seconds * scale
        for name, value in payload["counts"].items():
            counts[name] = counts.get(name, 0) + value

    metrics: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        if name.startswith("layer."):
            metrics[name] = layer_self[name.split(".")[1]]
        elif name.endswith(".self_s"):
            metrics[name] = self_s.get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".s"):
            metrics[name] = inclusive.get(name[: -len(".s")], 0.0)
        else:
            metrics[name] = counts.get(name, 0)
    pairs = counts.get("presence.pairs", 0)
    metrics["presence.unique_pair_ratio"] = (
        counts.get("presence.unique_pairs", 0) / pairs if pairs else 0.0
    )
    score = inclusive.get("cli.score", 0.0)
    metrics["presence.lexical_scorer.share_of_score"] = (
        inclusive.get("presence.lexical_scorer", 0.0) / score if score else 0.0
    )
    for svc in stub.SERVICES:
        for name, _ in SERVICE_FIELDS:
            metrics[f"services.{svc}.{name}"] = run.services.get(svc, {}).get(name, 0)
    return metrics


# ---------------------------------------------------------------------------
# Entry point


def measure(name: str, seed: int, seconds: float, trace: bool, record: bool) -> dict:
    workload = WORKLOADS[name]
    work = os.path.join(WORK, f"{name}-{os.getpid()}")
    os.makedirs(work)
    runner = Runner(name, workload, seed, work)
    # The commands, the stub services and the calibrations share one CPU,
    # so that the calibration sees the load on everything a pass waits for.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    recorded = None
    if seed == DEFAULT_SEED and not record:
        with open(DIGESTS, "r", encoding="utf-8") as handle:
            recorded = json.load(handle)[name]
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            runner.stop_stub()
            setups.append(runner.set_up())
        plain: list[Pass] = []
        traced: list[Pass] = []
        spent = 0.0
        while True:
            run = runner.run_pass(f"pass{len(plain)}", traced=False)
            runner.check(run, f"pass{len(plain)}", recorded if not plain else None)
            plain.append(run)
            cost = run.wall
            if trace:
                label = f"traced{len(traced)}"
                run = runner.run_pass(label, traced=True)
                runner.check(run, label, None)
                traced.append(run)
                cost += run.wall
            spent += cost
            if spent >= seconds:
                break
        if record:
            save_digests(name, runner.reference)
        layers = [trace_metrics(p) for p in traced]
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)

    medians = sequence_metrics(plain)
    medians["setup_s"] = statistics.median(setups)
    medians["error_rate"] = runner.failed / runner.attempted
    if trace:
        for metric in layers[0]:
            medians.setdefault(metric, statistics.median(m[metric] for m in layers))
        medians["trace.overhead_s"] = sequence_metrics(traced)["wall_s"] - medians["wall_s"]
        table = PER_LAYER
    else:
        table = END_TO_END
    metrics = {n: {"value": medians[n], "unit": u} for n, u, *_ in table}
    for metric, entry in metrics.items():
        print(f"{metric:<48} {entry['value']:>14.6g} {entry['unit']:<14} n={len(plain)}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def save_digests(name: str, digests: list[dict[str, str]]) -> None:
    table = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, "r", encoding="utf-8") as handle:
            table = json.load(handle)
    table[name] = {output: sha for step in digests for output, sha in step.items()}
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from this run (default seed only)")
    parser.add_argument("--write-spec", action="store_true",
                        help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as handle:
            json.dump(spec(), handle, indent=2)
            handle.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error(f"--record-digests needs --seed {DEFAULT_SEED}")
    if not os.path.isfile(os.path.join(SRC, "autopyramid", "cli.py")):
        print(f"perfbench: no autopyramid sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.record_digests)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
