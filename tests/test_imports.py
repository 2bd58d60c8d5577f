"""Each command loads only the modules it runs, and every command leaves
``dataclasses`` unloaded.

Every command runs on toy in a fresh interpreter, which then reports the
package modules it holds at exit, whether ``dataclasses`` was loaded at
start and at exit, and whether ``hashlib`` or OpenSSL's ``_hashlib`` was
loaded at exit. A module that a command does not run, imported at the top
of another, shows up here as a changed set. A command that calls only http
endpoints loads neither ``ssl`` nor ``urllib.request``.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stubs import constant_presence, dead_endpoint, echo_generator, scripted_chat
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
openssl = "hashlib" in sys.modules or "_hashlib" in sys.modules
print(code, at_start, "dataclasses" in sys.modules, openssl, *held)
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
    whether ``dataclasses`` was loaded at start and at exit, and whether
    ``hashlib`` or ``_hashlib`` was loaded at exit."""
    done = python("-c", PROBE, *argv)
    assert done.returncode == 0, done.stderr
    code, at_start, at_exit, openssl, *modules = done.stdout.splitlines()[-1].split()
    assert code == "0", done.stderr
    return set(modules), at_start == "True", at_exit == "True", openssl == "True"


# every command that calls no endpoint, by the package modules it adds
OFFLINE = [
    pytest.param(["extract", "--strategy", "sent"], {"extract"}, id="extract-sent"),
    pytest.param(["extract", "--strategy", "ngram"], {"extract"}, id="extract-ngram"),
    pytest.param(
        ["extract", "--strategy", "import", "--import-path", UNITS], set(), id="extract-import"
    ),
    pytest.param(["score", "--units", UNITS], {"presence", "spool"}, id="score"),
    pytest.param(["intrinsic", "--units", UNITS], {"stats", "spool"}, id="intrinsic"),
    pytest.param(["metaeval", "--scores", SCORES], {"stats"}, id="metaeval"),
    pytest.param(["stats"], {"stats"}, id="stats"),
]


@pytest.mark.parametrize("argv, extra", OFFLINE)
def test_offline_commands_load_their_modules_and_no_dataclasses(tmp_path, argv, extra):
    modules, at_start, at_exit, openssl = loaded(
        *argv, "--input", TOY, "--out", str(tmp_path / "o")
    )
    assert modules == COMMON | extra
    assert at_exit == at_start
    assert not openssl  # the inputs' digests take the built-in SHA-256


# the report commands, the only ones that run without --out
@pytest.mark.parametrize("argv, extra", OFFLINE[-3:])
def test_report_commands_without_out_load_no_hashlib(argv, extra):
    _, _, _, openssl = loaded(*argv, "--input", TOY)
    assert not openssl


def test_smu_extract_from_a_graph_file_loads_no_service_client(tmp_path):
    graphs = tmp_path / "toy.penman"
    graphs.write_text("\n\n".join(TOY_GRAPHS) + "\n", encoding="utf-8")
    modules, at_start, at_exit, openssl = loaded(
        "extract", "--strategy", "smu", "--input", TOY, "--graphs", str(graphs),
        "--out", str(tmp_path / "units.jsonl"),
    )
    assert modules == COMMON | {"extract", "amr", "smu"}
    assert at_exit == at_start
    assert not openssl


def test_remote_smu_extract_adds_only_the_service_client(tmp_path, stub_service):
    # a graph that splits into one candidate, so that /gen is called too
    graph = "(s / see-01 :ARG0 (b / boy))"
    parser = stub_service(lambda path, body: (200, {"graphs": [graph] * len(body["sentences"])}))
    generator = stub_service(echo_generator)
    modules, at_start, at_exit, _ = loaded(
        "extract", "--strategy", "smu", "--input", TOY, "--out", str(tmp_path / "units.jsonl"),
        "--parse-endpoint", parser.url, "--gen-endpoint", generator.url,
    )
    assert modules == COMMON | {"extract", "amr", "smu", "services"}
    assert at_exit == at_start
    assert parser.requests and generator.requests


def test_remote_score_adds_only_the_service_client(tmp_path, stub_service):
    stub = stub_service(constant_presence(0.5))
    modules, at_start, at_exit, _ = loaded(
        "score", "--input", TOY, "--units", UNITS, "--out", str(tmp_path / "scores.jsonl"),
        "--scorer", "remote", "--nli-endpoint", stub.url,
    )
    assert modules == COMMON | {"presence", "services", "spool"}
    assert at_exit == at_start
    assert stub.requests


# what urllib.request loads, OpenSSL's TLS with it: none of it serves an
# http endpoint
WEB = ("ssl", "_ssl", "http.client", "urllib.request", "email")

WEB_PROBE = f"""
import sys
from autopyramid import cli

code = cli.main(sys.argv[1:])
print(code, *sorted(m for m in {WEB!r} if m in sys.modules))
"""


def web_modules(*argv):
    """The exit code of a fresh run of the command *argv*, the modules of
    ``WEB`` it held at exit, and its standard error."""
    done = python("-c", WEB_PROBE, *argv)
    code, *modules = done.stdout.splitlines()[-1].split()
    return int(code), set(modules), done.stderr


@pytest.mark.parametrize("command", ["score", "extract-smu", "extract-sgu"])
def test_commands_on_http_endpoints_load_no_tls_and_no_urllib(tmp_path, stub_service, command):
    if command == "score":
        stub = stub_service(constant_presence(0.5))
        argv = ["score", "--units", UNITS, "--scorer", "remote", "--nli-endpoint", stub.url]
    elif command == "extract-smu":
        graph = "(s / see-01 :ARG0 (b / boy))"
        stub = stub_service(lambda path, body: (200, {"graphs": [graph] * len(body["sentences"])}))
        generator = stub_service(echo_generator)
        argv = [
            "extract", "--strategy", "smu", "--parse-endpoint", stub.url,
            "--gen-endpoint", generator.url,
        ]
    else:
        stub = stub_service(scripted_chat("A # B"))
        argv = ["extract", "--strategy", "sgu", "--llm-endpoint", stub.url, "--llm-model", "m"]
    code, modules, err = web_modules(*argv, "--input", TOY, "--out", str(tmp_path / "out"))
    assert code == 0, err
    assert modules == set()
    assert stub.requests


def test_an_https_endpoint_loads_ssl(tmp_path):
    endpoint = dead_endpoint().replace("http://", "https://")
    code, modules, err = web_modules(
        "score", "--input", TOY, "--units", UNITS, "--out", str(tmp_path / "scores.jsonl"),
        "--scorer", "remote", "--nli-endpoint", endpoint,
    )
    assert code == 3
    assert {"ssl", "_ssl"} <= modules
    assert err == f"autopyramid: {endpoint} failed after 3 attempts (ConnectionRefusedError)\n"


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


# CPython's own SHA-256, which the reader takes before hashlib: ``_sha2``
# from 3.12, ``_sha256`` before
BUILTIN_SHA256 = next(
    (name for name in ("_sha2", "_sha256") if importlib.util.find_spec(name)), None
)


@pytest.mark.skipif(BUILTIN_SHA256 is None, reason="no built-in SHA-256 in this build")
@pytest.mark.parametrize("out, loaded", [(False, False), (True, True)], ids=["no-out", "out"])
def test_only_a_command_with_out_loads_the_builtin_sha256(tmp_path, out, loaded):
    # the inputs' digests are for the output's manifest. From 3.12, random
    # (which tempfile imports) loads _sha2 for itself: dropped before the
    # command, it comes back only if the command imports it
    probe = (
        "import sys; from autopyramid import cli; name = sys.argv.pop(1); "
        "sys.modules.pop(name, None); code = cli.main(sys.argv[1:]); "
        "print(code, name in sys.modules, 'hashlib' in sys.modules)"
    )
    argv = ["stats", "--input", TOY] + (["--out", str(tmp_path / "o")] if out else [])
    done = python("-c", probe, BUILTIN_SHA256, *argv)
    assert done.stdout.splitlines()[-1] == f"0 {loaded} False", done.stderr


def test_without_the_builtin_sha256_the_digest_comes_from_hashlib(tmp_path):
    # a build without CPython's own SHA-256 modules: the reader falls back
    # to hashlib, and the manifest holds the same digest
    probe = (
        "import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
        "import hashlib; from autopyramid import cli, data; "
        "assert type(data._sha256()) is type(hashlib.sha256()); "
        "sys.exit(cli.main(sys.argv[1:]))"
    )
    out = tmp_path / "s.jsonl"
    done = python("-c", probe, "stats", "--input", TOY, "--out", str(out))
    assert done.returncode == 0, done.stderr
    manifest = json.loads(Path(f"{out}.manifest.json").read_text(encoding="utf-8"))
    assert manifest["inputs"] == {TOY: hashlib.sha256(Path(TOY).read_bytes()).hexdigest()}
