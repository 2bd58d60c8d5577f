"""Each command loads only the modules it runs.

Every command runs on toy in a fresh interpreter, which then reports the
package modules it holds at exit, and whether ``dataclasses`` was loaded
at start and at exit. A module that a command does not run, imported at
the top of another, shows up here as a changed set.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from stubs import constant_presence
from test_batching import TOY_GRAPHS

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
TOY = str(DATA / "toy.jsonl")
UNITS = str(DATA / "golden" / "units.jsonl")
SCORES = str(DATA / "golden" / "scores.jsonl")

PROBE = """
import sys
at_start = "dataclasses" in sys.modules
from autopyramid import cli

code = cli.main(sys.argv[1:])
held = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("autopyramid."))
print(code, at_start, "dataclasses" in sys.modules, *held)
"""

# what every command loads: the command line, its dataset and its output
COMMON = {"cli", "data", "errors", "manifest", "text"}


def python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def loaded(*argv):
    """The package modules a fresh run of the command *argv* held at exit,
    and whether ``dataclasses`` was loaded at start and at exit."""
    done = python("-c", PROBE, *argv)
    assert done.returncode == 0, done.stderr
    code, at_start, at_exit, *modules = done.stdout.splitlines()[-1].split()
    assert code == "0", done.stderr
    return set(modules), at_start == "True", at_exit == "True"


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["extract", "--strategy", "sent"], {"extract"}),
        (["extract", "--strategy", "ngram"], {"extract"}),
        (["extract", "--strategy", "import", "--import-path", UNITS], set()),
        (["score", "--units", UNITS], {"presence"}),
        (["intrinsic", "--units", UNITS], {"stats"}),
        (["metaeval", "--scores", SCORES], {"stats"}),
        (["stats"], {"stats"}),
    ],
    ids=[
        "extract-sent", "extract-ngram", "extract-import", "score", "intrinsic", "metaeval",
        "stats",
    ],
)
def test_offline_commands_load_their_modules_and_no_dataclasses(tmp_path, argv, extra):
    modules, at_start, at_exit = loaded(*argv, "--input", TOY, "--out", str(tmp_path / "o"))
    assert modules == COMMON | extra
    assert at_exit == at_start


def test_smu_extract_from_a_graph_file_loads_no_service_client(tmp_path):
    graphs = tmp_path / "toy.penman"
    graphs.write_text("\n\n".join(TOY_GRAPHS) + "\n", encoding="utf-8")
    modules, _, _ = loaded(
        "extract", "--strategy", "smu", "--input", TOY, "--graphs", str(graphs),
        "--out", str(tmp_path / "units.jsonl"),
    )
    assert modules == COMMON | {"extract", "amr", "smu"}


def test_remote_score_adds_only_the_service_client(tmp_path, stub_service):
    stub = stub_service(constant_presence(0.5))
    modules, at_start, at_exit = loaded(
        "score", "--input", TOY, "--units", UNITS, "--out", str(tmp_path / "scores.jsonl"),
        "--scorer", "remote", "--nli-endpoint", stub.url,
    )
    assert modules == COMMON | {"presence", "services"}
    assert at_exit == at_start
    assert stub.requests


def test_the_module_entry_point_resolves_names_on_first_use():
    # run as __main__, the command line reads its lazy names off that module
    done = python("-m", "autopyramid.cli", "stats", "--input", TOY)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (DATA / "golden" / "stats.stdout").read_text(encoding="utf-8")


def test_writing_a_manifest_loads_no_datetime(tmp_path):
    # the manifest's timestamp is formatted with the time module alone
    probe = (
        "import sys; from autopyramid import cli; code = cli.main(sys.argv[1:]); "
        "print(code, 'datetime' in sys.modules)"
    )
    done = python("-c", probe, "stats", "--input", TOY, "--out", str(tmp_path / "o"))
    assert done.stdout.splitlines()[-1] == "0 False", done.stderr
    assert (tmp_path / "o.manifest.json").exists()


@pytest.mark.parametrize("out, loaded", [(False, False), (True, True)], ids=["no-out", "out"])
def test_only_a_command_with_out_loads_hashlib(tmp_path, out, loaded):
    # the inputs' digests are for the output's manifest
    probe = (
        "import sys; from autopyramid import cli; code = cli.main(sys.argv[1:]); "
        "print(code, 'hashlib' in sys.modules)"
    )
    argv = ["stats", "--input", TOY] + (["--out", str(tmp_path / "o")] if out else [])
    done = python("-c", probe, *argv)
    assert done.stdout.splitlines()[-1] == f"0 {loaded}", done.stderr
