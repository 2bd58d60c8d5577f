"""In-process HTTP stub services for contract tests."""

import json
import re
import socket
import socketserver
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class _TCPStub:
    """A local threaded TCP server for *handler*, over TLS when *tls*, a
    server-side :class:`ssl.SSLContext`, is given."""

    def _serve(self, handler, tls=None, server=socketserver.ThreadingTCPServer):
        self.server = server(("127.0.0.1", 0), handler)
        self.server.daemon_threads = True
        self.scheme = "http"
        if tls is not None:
            # the handshake runs as each connection is accepted
            self.server.socket = tls.wrap_socket(self.server.socket, server_side=True)
            self.scheme = "https"
        self.thread = threading.Thread(
            target=lambda: self.server.serve_forever(poll_interval=0.02), daemon=True
        )
        self.thread.start()

    @property
    def url(self):
        host, port = self.server.server_address
        return f"{self.scheme}://{host}:{port}"

    def stop(self):
        self.server.shutdown()
        self.server.server_close()


class StubService(_TCPStub):
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

        self._serve(_Handler, server=ThreadingHTTPServer)


class RawService(_TCPStub):
    """A local server that answers every request with the bytes *reply*,
    whatever the request, and then closes the connection; over TLS when
    *tls* is given.

    The head of each request, up to its blank line and decoded as Latin-1,
    is recorded in ``heads``; a body that ``Content-Length`` announces is
    read before the reply is sent.
    """

    def __init__(self, reply: bytes, tls=None):
        self.reply = reply
        self.heads = []
        stub = self

        class _Handler(socketserver.StreamRequestHandler):
            def handle(self):
                head = _read_head(self.rfile)
                if head is None:
                    return
                stub.heads.append(head)
                length = re.search(r"(?im)^content-length:\s*(\d+)", head)
                if length:
                    self.rfile.read(int(length.group(1)))
                self.wfile.write(stub.reply)

        self._serve(_Handler, tls)


class TunnelProxy(_TCPStub):
    """A local proxy that answers each ``CONNECT host:port`` with 200 and
    then relays bytes both ways between the client and that address,
    recording each ``CONNECT`` head in ``heads``."""

    def __init__(self):
        self.heads = []
        stub = self

        class _Handler(socketserver.StreamRequestHandler):
            rbufsize = 0  # nothing past the head is read before the relay

            def handle(self):
                head = _read_head(self.rfile)
                if head is None:
                    return
                stub.heads.append(head)
                host, _, port = head.split()[1].rpartition(":")
                with socket.create_connection((host, int(port))) as upstream:
                    self.wfile.write(b"HTTP/1.1 200 Connection established\r\n\r\n")
                    back = threading.Thread(target=_relay, args=(upstream, self.connection))
                    back.start()
                    _relay(self.connection, upstream)
                    back.join()

        self._serve(_Handler)


def _read_head(rfile):
    """The head of a request on *rfile*, up to its blank line, as Latin-1
    text; ``None`` when the connection ends first."""
    head = b""
    while not head.endswith(b"\r\n\r\n"):
        line = rfile.readline()
        if not line:
            return None
        head += line
    return head.decode("latin-1")


def _relay(source, sink):
    """Copy *source* to *sink* until *source* ends, then end *sink*'s
    sending side."""
    try:
        while data := source.recv(65536):
            sink.sendall(data)
        sink.shutdown(socket.SHUT_WR)
    except OSError:
        pass


def dead_endpoint():
    """A URL that refuses connections."""
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
