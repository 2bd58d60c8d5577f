"""Stub model services for the benchmark, run as their own process.

    python3 perfbench/stub.py --seed N

prints ``PORT <n>`` once it listens on 127.0.0.1 and serves until it gets
SIGTERM or SIGINT. Four POST endpoints answer deterministically:

* ``/presence``: clipped unigram recall of each hypothesis in its premise,
  computed by the benchmark's own oracle;
* ``/parse``: the generated graph of each sentence (``corpus.sentence_graph``
  with the same seed the corpus was made with);
* ``/gen``: the concepts of each PENMAN graph with sense suffixes removed,
  joined by spaces;
* ``/chat``: the last message's sentences cut into fragments of
  ``FRAGMENT_TOKENS`` tokens, joined by " # ".

Connections are HTTP/1.1 keep-alive. Service time is a fixed model: every
answered request sleeps ``REQUEST_DELAY_S`` plus ``ITEM_DELAY_S`` per item.
Every ``FAIL_EVERY``-th request a service receives is answered 503 without
work, so clients exercise their retry path. ``GET /stats`` returns the
per-service counters (requests, items, largest batch, most requests in
flight, injected failures) and resets them.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from corpus import penman_text, sentence_graph
from oracle import clipped_recall

REQUEST_DELAY_S = 0.0005
ITEM_DELAY_S = 0.0001
FAIL_EVERY = 50
FRAGMENT_TOKENS = 6
SERVICES = ("presence", "parse", "gen", "chat")

_CONCEPT_RE = re.compile(r"/ ([^\s()]+)")
_SENSE_RE = re.compile(r"-\d+$")


def realize(penman: str) -> str:
    return " ".join(_SENSE_RE.sub("", c) for c in _CONCEPT_RE.findall(penman))


def fragments(text: str) -> list[str]:
    out = []
    for sentence in text.split(". "):
        tokens = sentence.rstrip(".").split()
        out.extend(
            " ".join(tokens[i : i + FRAGMENT_TOKENS])
            for i in range(0, len(tokens), FRAGMENT_TOKENS)
        )
    return out


def _answer(service: str, payload: dict, seed: int) -> tuple[int, dict]:
    if service == "presence":
        pairs = payload["pairs"]
        return len(pairs), {
            "probs": [clipped_recall(p["premise"], p["hypothesis"]) for p in pairs]
        }
    if service == "parse":
        sentences = payload["sentences"]
        return len(sentences), {
            "graphs": [penman_text(sentence_graph(seed, s)) for s in sentences]
        }
    if service == "gen":
        graphs = payload["graphs"]
        return len(graphs), {"texts": [realize(g) for g in graphs]}
    content = " # ".join(fragments(payload["messages"][-1]["content"]))
    return 1, {"choices": [{"message": {"role": "assistant", "content": content}}]}


class Counters:
    """Server-side counters of one service, guarded by the owner's lock."""

    def __init__(self):
        self.requests = 0
        self.items = 0
        self.items_max = 0
        self.inflight = 0
        self.inflight_max = 0
        self.retried = 0

    def snapshot(self) -> dict:
        answered = self.requests - self.retried
        return {
            "requests": self.requests,
            "items_per_request": self.items / answered if answered else 0.0,
            "items_max": self.items_max,
            "inflight_max": self.inflight_max,
            "retried": self.retried,
        }


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, seed: int):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.seed = seed
        self.lock = threading.Lock()
        self.counters = {name: Counters() for name in SERVICES}

    def take_stats(self) -> dict:
        with self.lock:
            stats = {name: c.snapshot() for name, c in self.counters.items()}
            self.counters = {name: Counters() for name in SERVICES}
        return stats


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: StubServer

    def _reply(self, status: int, body: dict | None = None) -> None:
        data = json.dumps(body).encode("utf-8") if body is not None else b""
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        if self.path == "/stats":
            self._reply(200, self.server.take_stats())
        else:
            self._reply(404, {"error": "not found"})

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length) or b"{}")
        service = self.path.strip("/")
        if service not in SERVICES:
            self._reply(404, {"error": "not found"})
            return
        server = self.server
        with server.lock:
            counters = server.counters[service]
            counters.requests += 1
            fail = counters.requests % FAIL_EVERY == 0
            if fail:
                counters.retried += 1
            else:
                counters.inflight += 1
                counters.inflight_max = max(counters.inflight_max, counters.inflight)
        if fail:
            self._reply(503, {"error": "injected failure"})
            return
        try:
            items, body = _answer(service, payload, server.seed)
            time.sleep(REQUEST_DELAY_S + ITEM_DELAY_S * items)
            with server.lock:
                counters.items += items
                counters.items_max = max(counters.items_max, items)
        finally:
            with server.lock:
                counters.inflight -= 1
        self._reply(200, body)

    def log_message(self, *_args):
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    server = StubServer(args.seed)
    signal.signal(signal.SIGTERM, lambda *_: threading.Thread(target=server.shutdown).start())
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
