"""The process entry: ``python -m autopyramid.cli`` and the console script.

A command run as a process goes through :func:`autopyramid.cli.run_and_exit`,
which flushes the standard streams and ends with ``os._exit``. Run that
way on toy, a command must give what :func:`autopyramid.cli.main` gives in
process: the same stdout bytes, stderr, exit code and output files
(manifests less their timestamp). The children run without
``PYTHONUNBUFFERED``, so their stdout is block-buffered and a flush that
went missing would lose the report.
"""

import errno
import gc
import io
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

from autopyramid import cli

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
TOY = str(DATA / "toy.jsonl")
UNITS = str(DATA / "golden" / "units.jsonl")
SCORES = str(DATA / "golden" / "scores.jsonl")


def child_env(unbuffered=False):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def as_process(argv, **kwargs):
    kwargs.setdefault("capture_output", True)
    return subprocess.run(
        [sys.executable, "-m", "autopyramid.cli", *argv],
        env=kwargs.pop("env", None) or child_env(),
        timeout=60,
        **kwargs,
    )


def outputs(directory):
    """Every file in *directory* by name; manifests less their timestamp."""
    found = {}
    for path in sorted(directory.iterdir()):
        if path.name.endswith(".manifest.json"):
            record = json.loads(path.read_text(encoding="utf-8"))
            assert record.pop("timestamp")
            found[path.name] = record
        else:
            found[path.name] = path.read_bytes()
    return found


def in_process_and_as_process(tmp_path, capsys, argv):
    """(exit code, stdout bytes, stderr, output files) of *argv* run by
    ``main`` in process, then as a process; ``{out}`` in *argv* is a
    directory of each run's own."""
    results = []
    for where in ("main", "process"):
        out = tmp_path / where
        out.mkdir()
        args = [part.format(out=out) for part in argv]
        if where == "main":
            code = cli.main(args)
            captured = capsys.readouterr()
            results.append((code, captured.out.encode("utf-8"), captured.err, outputs(out)))
        else:
            done = as_process(args)
            results.append((done.returncode, done.stdout, done.stderr.decode(), outputs(out)))
    return results


@pytest.fixture
def bad_dataset(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(Path(TOY).read_text(encoding="utf-8").splitlines()[0] + "\n{\n")
    return str(path)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["extract", "--strategy", "ngram", "--input", TOY, "--out", "{out}/u.jsonl"], 0),
        (["score", "--input", TOY, "--units", UNITS, "--out", "{out}/s.jsonl"], 0),
        (["intrinsic", "--input", TOY, "--units", UNITS, "--out", "{out}/i.jsonl"], 0),
        (["metaeval", "--input", TOY, "--scores", SCORES, "--out", "{out}/m.jsonl"], 0),
        (["stats", "--input", TOY, "--out", "{out}/st.jsonl"], 0),
        (["stats", "--input", TOY], 0),
        (["stats", "--input", "BAD", "--out", "{out}/st.jsonl"], 2),
        (["intrinsic", "--input", TOY, "--units", "BAD", "--out", "{out}/i.jsonl"], 2),
        (["stats"], 2),
        (["stats", "--help"], 0),
        (["--version"], 0),
    ],
    ids=[
        "extract", "score", "intrinsic", "metaeval", "stats", "stats-no-out",
        "bad-dataset", "bad-units", "usage", "help", "version",
    ],
)
def test_a_process_gives_what_main_gives(tmp_path, capsys, monkeypatch, bad_dataset, argv, code):
    monkeypatch.setenv("COLUMNS", "80")  # the usage text wraps at the same width
    argv = [bad_dataset if part == "BAD" else part for part in argv]
    in_process, as_a_process = in_process_and_as_process(tmp_path, capsys, argv)
    assert in_process == as_a_process
    assert in_process[0] == code
    # every run that succeeds prints, but extract and score
    assert bool(in_process[1]) == (code == 0 and argv[0] not in ("extract", "score"))


def test_a_failing_service_exits_3_as_a_process_as_in_process(tmp_path, capsys, stub_service):
    # one presence reply with no probabilities: a malformed reply, exit 3
    stub = stub_service(lambda path, payload: (200, {"probs": []}))
    argv = [
        "score", "--input", TOY, "--units", UNITS, "--out", "{out}/s.jsonl",
        "--scorer", "remote", "--nli-endpoint", stub.url,
    ]
    in_process, as_a_process = in_process_and_as_process(tmp_path, capsys, argv)
    assert in_process == as_a_process
    code, stdout, stderr, files = in_process
    assert (code, stdout, files) == (3, b"", {})
    assert stderr.startswith("autopyramid: ") and stderr.count("\n") == 1


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["stats", "--input", TOY],
        ["intrinsic", "--input", TOY, "--units", UNITS],
        ["metaeval", "--input", TOY, "--scores", SCORES],
    ],
    ids=["stats", "intrinsic", "metaeval"],
)
def test_a_report_into_a_pipe_nobody_reads_exits_2_and_writes_nothing(
    tmp_path, argv, unbuffered
):
    out = tmp_path / "out.jsonl"
    read, write = os.pipe()
    os.close(read)
    try:
        done = as_process(
            [*argv, "--out", str(out)],
            env=child_env(unbuffered),
            stdout=write,
            stderr=subprocess.PIPE,
            capture_output=False,
        )
    finally:
        os.close(write)
    reason = os.strerror(errno.EPIPE)
    assert done.returncode == 2
    assert done.stderr.decode() == f"autopyramid: cannot write standard output: {reason}\n"
    assert list(tmp_path.iterdir()) == []


HELP = [["--help"], ["--version"], ["stats", "--help"]]


@pytest.mark.parametrize(
    "argv, unbuffered",
    [(argv, False) for argv in HELP] + [(argv, True) for argv in HELP],
    ids=["help", "version", "stats-help",
         "help-unbuffered", "version-unbuffered", "stats-help-unbuffered"],
)
def test_help_into_a_pipe_nobody_reads_exits_2_with_one_line(argv, unbuffered):
    # buffered: argparse's text waits in the buffer, and the flush at exit
    # fails; unbuffered: argparse's own write fails at once, and would drop
    # the error
    read, write = os.pipe()
    os.close(read)
    try:
        done = as_process(
            argv, env=child_env(unbuffered), stdout=write, stderr=subprocess.PIPE,
            capture_output=False,
        )
    finally:
        os.close(write)
    reason = os.strerror(errno.EPIPE)
    assert done.returncode == 2
    assert done.stderr.decode() == f"autopyramid: cannot write standard output: {reason}\n"


@pytest.fixture(params=["enabled", "disabled", "frozen"])
def collector(request):
    """The collector as the caller of a test leaves it: enabled, disabled,
    or enabled with the caller's own objects frozen; the state it had is
    put back after the test."""
    was = gc.isenabled()
    (gc.disable if request.param == "disabled" else gc.enable)()
    if request.param == "frozen":
        gc.freeze()
    yield request.param
    gc.unfreeze()
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["stats", "--input", TOY], 0),
        (["metaeval", "--input", TOY, "--scores", SCORES], 0),
        (["intrinsic", "--input", TOY, "--units", "BAD"], 2),
        (["stats"], 2),
    ],
    ids=["stats", "metaeval", "bad-units", "usage"],
)
def test_main_leaves_the_collector_as_it_found_it(capsys, collector, bad_dataset, argv, code):
    argv = [bad_dataset if part == "BAD" else part for part in argv]
    frozen = gc.get_freeze_count()
    assert cli.main(argv) == code
    capsys.readouterr()
    assert gc.isenabled() is (collector != "disabled")
    assert gc.get_freeze_count() == frozen


def test_a_service_is_called_with_collection_as_the_caller_had_it(
    tmp_path, collector, stub_service
):
    # collection is as the caller had it, and the command freezes nothing
    frozen = gc.get_freeze_count()
    seen = []

    def presence(path, payload):
        seen.append((gc.isenabled(), gc.get_freeze_count() > frozen))
        return 200, {"probs": [0.5] * len(payload["pairs"])}

    stub = stub_service(presence)
    argv = ["score", "--input", TOY, "--units", UNITS, "--out", str(tmp_path / "s.jsonl"),
            "--scorer", "remote", "--nli-endpoint", stub.url]
    assert cli.main(argv) == 0
    on = collector != "disabled"
    assert seen and set(seen) == {(on, False)}


def test_a_closed_stdout_takes_no_report_and_is_no_error(tmp_path, capsys):
    out = tmp_path / "closed" / "st.jsonl"
    out.parent.mkdir()
    done = subprocess.run(
        ["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-m", "autopyramid.cli",
         "stats", "--input", TOY, "--out", str(out)],
        env=child_env(),
        stderr=subprocess.PIPE,
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    expected = tmp_path / "main" / "st.jsonl"
    expected.parent.mkdir()
    assert cli.main(["stats", "--input", TOY, "--out", str(expected)]) == 0
    capsys.readouterr()
    assert outputs(out.parent) == outputs(expected.parent)


def test_the_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["autopyramid"]
    assert target == "autopyramid.cli:run_and_exit"
    module, _, name = target.partition(":")
    assert getattr(import_module(module), name) is cli.run_and_exit


class Exited(Exception):
    """What the stand-in for ``os._exit`` raises, with the exit code."""


def _exit(code):
    raise Exited(code)


class UnflushableIO(io.StringIO):
    def flush(self):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


@pytest.mark.parametrize(
    "stdout, stderr, code, leaves, with_code",
    [
        (io.StringIO, io.StringIO, 3, Exited, 3),
        (lambda: None, io.StringIO, 3, Exited, 3),
        (UnflushableIO, io.StringIO, 0, Exited, 2),
        (UnflushableIO, io.StringIO, 3, Exited, 3),
        (io.StringIO, UnflushableIO, 3, SystemExit, 3),
    ],
    ids=["flushed", "closed", "unflushable", "unflushable-after-failure", "unflushable-stderr"],
)
def test_run_and_exit_ends_with_os_exit_unless_stderr_fails(
    monkeypatch, stdout, stderr, code, leaves, with_code
):
    monkeypatch.setattr(cli, "main", lambda: code)
    monkeypatch.setattr(os, "_exit", _exit)
    monkeypatch.setattr(sys, "stdout", stdout())
    monkeypatch.setattr(sys, "stderr", stderr())
    err = sys.stderr
    with pytest.raises(leaves) as info:
        cli.run_and_exit()
    assert (info.value.args[0] if leaves is Exited else info.value.code) == with_code
    reason = os.strerror(errno.EPIPE)
    line = f"autopyramid: cannot write standard output: {reason}\n"
    assert err.getvalue() == (line if stdout is UnflushableIO else "")


def test_run_and_exit_lets_an_exception_from_main_propagate(monkeypatch):
    def main():
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "main", main)
    monkeypatch.setattr(os, "_exit", _exit)
    with pytest.raises(RuntimeError, match="boom"):
        cli.run_and_exit()
