"""In-process HTTP stub services for contract tests."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class StubService:
    """A local HTTP server with a programmable POST handler.

    ``handler(path, payload) -> (status, reply_dict[, reply_headers])``
    decides responses; ``failures`` makes the first N requests answer 500
    and ``drops`` makes the next N close the connection without a reply.
    Every request is recorded as ``(path, payload, headers)``, and its body
    bytes in ``bodies``.
    """

    def __init__(self, handler, failures=0, raw_body=None, drops=0):
        self.handler = handler
        self.failures = failures
        self.raw_body = raw_body
        self.drops = drops
        self.requests = []
        self.bodies = []
        self._lock = threading.Lock()
        stub = self

        class _Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length)
                payload = json.loads(raw or b"{}")
                with stub._lock:
                    stub.requests.append((self.path, payload, dict(self.headers)))
                    stub.bodies.append(raw)
                    must_fail = stub.failures > 0
                    if must_fail:
                        stub.failures -= 1
                    must_drop = not must_fail and stub.drops > 0
                    if must_drop:
                        stub.drops -= 1
                if must_drop:
                    self.close_connection = True
                    return
                if must_fail:
                    self.send_response(500)
                    self.send_header("Content-Length", "0")
                    self.end_headers()
                    return
                headers = {}
                if stub.raw_body is not None:
                    body = stub.raw_body
                    status = 200
                else:
                    status, reply, *extra = stub.handler(self.path, payload)
                    body = json.dumps(reply).encode("utf-8")
                    headers = extra[0] if extra else {}
                self.send_response(status)
                for name, value in headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *_args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self.thread = threading.Thread(
            target=lambda: self.server.serve_forever(poll_interval=0.02), daemon=True
        )
        self.thread.start()

    @property
    def url(self):
        host, port = self.server.server_address
        return f"http://{host}:{port}"

    def stop(self):
        self.server.shutdown()
        self.server.server_close()


def dead_endpoint():
    """A URL that refuses connections."""
    import socket

    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return f"http://127.0.0.1:{port}"


def echo_generator(path, payload):
    return 200, {"texts": [f"T:{g}" for g in payload["graphs"]]}


def echo_parser(path, payload):
    return 200, {"graphs": [f"({chr(97 + i)} / thing)" for i, _ in enumerate(payload["sentences"])]}


def presence_from_hypothesis(path, payload):
    # hypothesis texts are numeric strings in these tests
    return 200, {"probs": [float(p["hypothesis"]) for p in payload["pairs"]]}


def constant_presence(value):
    def handler(path, payload):
        return 200, {"probs": [value] * len(payload["pairs"])}

    return handler


def scripted_chat(reply_text):
    def handler(path, payload):
        return 200, {"choices": [{"message": {"content": reply_text}}]}

    return handler
