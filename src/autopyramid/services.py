"""HTTP clients for the external model services.

Four endpoints are supported, all JSON over POST:

* graph-to-text generation: ``{"graphs": [penman, ...]}`` -> ``{"texts": [...]}``
* sentence-to-graph parsing: ``{"sentences": [...]}`` -> ``{"graphs": [...]}``
* presence scoring: ``{"pairs": [{"premise", "hypothesis"}, ...]}`` -> ``{"probs": [...]}``
* chat completions: ``{"model", "temperature", "messages"}`` ->
  first choice message content

The retry contract is fixed: every request gets :data:`DEFAULT_ATTEMPTS`
tries, each with :data:`DEFAULT_TIMEOUT` seconds, and connection failures,
5xx and 429 answers are retried after the steps of :func:`retry_schedule`,
nominally 1s/2s/4s. ``AUTOPYRAMID_RETRY_SCHEDULE`` is its one override, and
tests record the pauses by replacing this module's ``sleep``. Auth tokens
are read from environment variables only and are never logged or echoed
back; a token that cannot go in an HTTP header (a character outside
Latin-1, a CR or an LF) is refused before any request. Error messages name
an endpoint only in its redacted form.

The transport is a small HTTP/1.1 client on the standard library's
``socket``. Each attempt opens one fresh connection, sends its request with
``Connection: close`` and reads one reply, framed by ``Content-Length``,
chunked or by the close, after any interim 1xx replies. A reply that breaks
that framing fails the attempt as a lost connection does. http and https
take the same path: TLS only wraps the socket, and ``ssl`` is imported only
for an https endpoint, reached directly or through a proxy's ``CONNECT``
tunnel, or for an https proxy. A client works out its route on its first
request, from the proxy environment as it reads it then, with one
verifying :func:`ssl.create_default_context` when the route needs TLS;
every later request of the client takes that route, and a direct
:func:`post_json` works one out for itself.

Connections are not reused: when a server writes a reply's headers and
body in separate sends, as ``perfbench/stub.py`` does, Nagle's algorithm
and delayed ACKs stall every reused keep-alive connection (45 ms a request
through ``http.client``, against 2.7 ms with a fresh connection, on
CPython 3.11.7). Commands batch their requests instead, so they open few
connections.
"""

from __future__ import annotations

import base64
import json
import os
import socket
from concurrent.futures import ThreadPoolExecutor
from time import sleep
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence
from urllib.parse import SplitResult, quote, unquote, urlsplit

from . import __version__
from .data import lone_surrogate_field
from .errors import InputError, MalformedServiceReply, ServiceUnavailable
from .manifest import redact_endpoint

if TYPE_CHECKING:
    import ssl

DEFAULT_ATTEMPTS = 3
DEFAULT_RETRY_SCHEDULE = (1.0, 2.0, 4.0)
DEFAULT_TIMEOUT = 60.0

LLM_TOKEN_ENV = "AUTOPYRAMID_LLM_TOKEN"
NLI_TOKEN_ENV = "AUTOPYRAMID_NLI_TOKEN"
AMR_TOKEN_ENV = "AUTOPYRAMID_AMR_TOKEN"

# test/automation hook: comma-separated seconds overriding the backoff
RETRY_SCHEDULE_ENV = "AUTOPYRAMID_RETRY_SCHEDULE"
# the longest step it may set: one day, far below what ``time.sleep`` refuses
MAX_RETRY_STEP = 86400.0

# the longest status or header line of a reply, and the most header lines
# it may have, as ``http.client`` bounds them
_MAX_LINE = 65536
_MAX_HEADERS = 100


def retry_schedule() -> tuple[float, ...]:
    """The backoff from the environment, else the default; each step must
    be a number of seconds from 0 to :data:`MAX_RETRY_STEP` (else
    :class:`InputError`)."""
    raw = os.environ.get(RETRY_SCHEDULE_ENV)
    if not raw:
        return DEFAULT_RETRY_SCHEDULE
    try:
        schedule = tuple(map(float, raw.split(",")))
    except ValueError:
        schedule = None
    if schedule is None or not all(0 <= step <= MAX_RETRY_STEP for step in schedule):
        raise InputError(
            f"{RETRY_SCHEDULE_ENV} must be comma-separated seconds, each from 0 "
            f"to {MAX_RETRY_STEP:g}, not {raw!r}"
        )
    return schedule


# characters kept as they are when an endpoint's path and query are
# percent-encoded for the request line
_URL_SAFE = "!#$%&'()*+,/:;=?@[]~"


def check_endpoint(url: str, what: str = "service endpoint") -> SplitResult:
    """*url* split, once it is known to be an http or https URL with a host
    that parses, and to hold no control character.

    Anything else raises :class:`InputError` naming *what* and the URL,
    redacted, so no file, data or ftp URL is ever read, and no CR, LF or
    other C0 control reaches a request.
    """
    if any(c < " " or c == "\x7f" for c in url):
        raise InputError(f"{what} {redact_endpoint(url)!r} holds a control character")
    try:
        parts = urlsplit(url)
        parts.port  # raises ValueError on a malformed port
        # a host label the resolver would refuse also raises ValueError
        (parts.hostname or "").encode("idna")
    except ValueError as exc:
        raise InputError(f"{what} {redact_endpoint(url)} is not a valid URL ({exc})") from exc
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise InputError(
            f"{what} {redact_endpoint(url)} must be an http or https URL with a host"
        )
    return parts


def proxy_environment() -> dict[str, str]:
    """The proxy URL of each scheme, and the ``no`` list, from the
    ``<scheme>_proxy`` variables, read as ``urllib.request`` reads them.

    A name matches in any case, and a lowercase one wins, or unsets its
    scheme when empty. When ``REQUEST_METHOD`` is set (a CGI request), only
    a lowercase ``http_proxy`` counts: a client can set ``HTTP_PROXY``
    through a ``Proxy:`` header (httpoxy, CVE-2016-1000110).
    """
    proxies = {}
    found = []
    for name, value in os.environ.items():
        if name[-6:].lower() == "_proxy":
            found.append((name, value))
            if value:
                proxies[name[:-6].lower()] = value
    if "REQUEST_METHOD" in os.environ:
        proxies.pop("http", None)
    for name, value in found:
        if name[-6:] == "_proxy":
            if value:
                proxies[name[:-6].lower()] = value
            else:
                proxies.pop(name[:-6].lower(), None)
    return proxies


def _proxy(scheme: str, host: str, proxies: dict[str, str]) -> str | None:
    """The proxy URL in *proxies* for *scheme* and *host* (an endpoint's
    ``host[:port]``), or ``None`` when there is none or ``no`` lists the
    host: ``*``, or a name equal to the host, with or without its port, or
    a domain suffix of it, a leading dot ignored; case is ignored."""
    proxy = proxies.get(scheme)
    exempt = proxies.get("no")
    if proxy is None or exempt is None:
        return proxy
    if exempt == "*":
        return None
    host = host.lower()
    bare, colon, port = host.rpartition(":")
    if not (colon and port.isascii() and port.isdigit()):
        bare = host
    for name in exempt.split(","):
        name = name.strip()
        if name:
            name = name.lstrip(".").lower()
            if name in (bare, host) or bare.endswith(f".{name}") or host.endswith(f".{name}"):
                return None
    return proxy


def _basic(user: str, password: str) -> str:
    credential = base64.b64encode(f"{user}:{password}".encode("utf-8")).decode("ascii")
    return f"Basic {credential}"


class _Route(NamedTuple):
    """How every request to one endpoint goes, worked out once from the
    endpoint and the proxy environment."""

    where: str  # the endpoint, redacted, for messages
    address: tuple[str, int]  # the host and port a connection opens to
    tunnel: bytes  # a CONNECT request sent there first, or b""
    tls: ssl.SSLContext | None  # the context that then wraps the socket
    server_name: str | None  # the host whose certificate it verifies
    head: str  # the request line and the header lines every request sends
    authorization: str | None  # Basic auth from the endpoint's userinfo


def _route(url: str, proxies: dict[str, str]) -> _Route:
    """The route to endpoint *url* (checked by :func:`check_endpoint`),
    through the proxy that *proxies* gives for it, if any."""
    parts = check_endpoint(url)
    https = parts.scheme == "https"
    host = parts.hostname.encode("idna").decode("ascii")
    port = parts.port if parts.port is not None else (443 if https else 80)
    name = f"[{host}]" if ":" in host else host
    authority = name if parts.port is None else f"{name}:{port}"
    target = quote(parts.path, safe=_URL_SAFE) or "/"
    if parts.query:
        target += "?" + quote(parts.query, safe=_URL_SAFE)
    headers = [
        f"Host: {authority}",
        "Content-Type: application/json",
        "Accept-Encoding: identity",
        f"User-Agent: autopyramid/{__version__}",
        "Connection: close",
    ]
    address, tunnel, server_name = (host, port), b"", host if https else None
    proxy = _proxy(parts.scheme, parts.netloc.rpartition("@")[2], proxies)
    if proxy is not None:
        # a proxy given as host[:port] alone is an http one
        hop = check_endpoint(
            proxy if "://" in proxy else f"http://{proxy}", f"{parts.scheme} proxy"
        )
        hop_host = hop.hostname.encode("idna").decode("ascii")
        # without a port, urllib reaches a proxy on 443 once the endpoint or
        # the proxy is https
        default = 443 if "https" in (parts.scheme, hop.scheme) else 80
        address = (hop_host, hop.port if hop.port is not None else default)
        credential = []
        if hop.username and hop.password:
            basic = _basic(unquote(hop.username), unquote(hop.password))
            credential.append(f"Proxy-Authorization: {basic}")
        if https:
            # the proxy relays the bytes of a TLS session with the endpoint
            lines = [f"CONNECT {name}:{port} HTTP/1.1", f"Host: {name}:{port}", *credential]
            tunnel = "".join(f"{line}\r\n" for line in lines + [""]).encode("latin-1")
        else:
            target = f"http://{authority}{target}"
            headers += credential
            if hop.scheme == "https":
                server_name = hop_host
    tls = None
    if server_name is not None:
        import ssl

        tls = ssl.create_default_context()
        tls.set_alpn_protocols(["http/1.1"])
    authorization = None
    if parts.password is not None:
        authorization = _basic(unquote(parts.username), unquote(parts.password))
    head = "".join(f"{line}\r\n" for line in [f"POST {target} HTTP/1.1", *headers])
    return _Route(
        redact_endpoint(url), address, tunnel, tls, server_name, head, authorization
    )


class _BrokenReply(ConnectionError):
    """A reply that ends early or breaks HTTP/1.1 framing. Its message
    names the failure, after ``http.client``'s exception names."""


def _read_line(reply) -> bytes:
    line = reply.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise _BrokenReply("LineTooLong")
    return line


def _read_head(reply) -> tuple[int, dict[str, str]]:
    """The status and the headers (names lowercased, the first of each
    name kept) of the reply on the binary file *reply*, after any interim
    1xx replies."""
    status = 100
    while status < 200:
        line = _read_line(reply)
        if not line:
            raise _BrokenReply("RemoteDisconnected")
        version, _, rest = line.partition(b" ")
        code = rest[:3]
        if not (
            version.startswith(b"HTTP/")
            and len(code) == 3
            and code.isdigit()
            and code >= b"100"
            and not rest[3:4].strip()
        ):
            raise _BrokenReply("BadStatusLine")
        status = int(code)
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS + 1):
            line = _read_line(reply)
            if line in (b"\r\n", b"\n", b""):
                break
            field, _, value = line.decode("latin-1").partition(":")
            headers.setdefault(field.strip().lower(), value.strip())
        else:
            raise _BrokenReply("TooManyHeaders")
    return status, headers


def _read_exactly(reply, size: int) -> bytes:
    """*size* bytes off *reply*, a megabyte at a time, so that a reply that
    announces more than it sends holds no more memory than it sent."""
    data = bytearray()
    while len(data) < size:
        part = reply.read(min(size - len(data), 1 << 20))
        if not part:
            raise _BrokenReply("IncompleteRead")
        data += part
    return bytes(data)


_HEX = b"0123456789abcdefABCDEF"


def _read_body(reply, headers: dict[str, str]) -> bytes:
    """The body that follows *headers* on *reply*: chunked, of
    ``Content-Length`` bytes, or up to the close. Trailer fields after the
    last chunk are left unread, as the connection closes anyway."""
    if headers.get("transfer-encoding", "").lower() == "chunked":
        chunks = []
        while True:
            size = _read_line(reply).split(b";", 1)[0].strip()
            if not size or size.translate(None, _HEX):
                raise _BrokenReply("IncompleteRead")
            size = int(size, 16)
            if not size:
                return b"".join(chunks)
            # the chunk and the CRLF that ends it
            chunks.append(_read_exactly(reply, size + 2)[:-2])
    length = headers.get("content-length", "")
    if length.isascii() and length.isdigit():
        return _read_exactly(reply, int(length))
    return reply.read()


def _exchange(route: _Route, request: bytes) -> tuple[int, dict[str, str], bytes]:
    """Send *request* over a fresh connection on *route*, and return the
    reply's status, its headers as :func:`_read_head` gives them and, for a
    2xx status, its body (else ``b""``)."""
    sock = socket.create_connection(route.address, DEFAULT_TIMEOUT)
    try:
        if route.tunnel:
            sock.sendall(route.tunnel)
            with sock.makefile("rb") as reply:
                status, _ = _read_head(reply)
            if status != 200:
                raise _BrokenReply(f"proxy answered {status}")
        if route.tls is not None:
            # on failure the TLS socket closes itself; sock is then detached
            sock = route.tls.wrap_socket(sock, server_hostname=route.server_name)
        sock.sendall(request)
        with sock.makefile("rb") as reply:
            status, headers = _read_head(reply)
            body = _read_body(reply, headers) if 200 <= status < 300 else b""
    finally:
        sock.close()
    return status, headers, body


def _retry_delay(attempt: int, schedule: Sequence[float], retry_after: str | None) -> float:
    """The pause before the next attempt: the schedule's step, or an integer
    ``Retry-After`` capped at the schedule's largest step."""
    value = (retry_after or "").strip()
    if value.isascii() and value.isdigit():
        return min(float(value), max(schedule))
    return schedule[min(attempt, len(schedule) - 1)]


def _check_token(token: str | None, name: str) -> str | None:
    """*token*, unless it cannot go in an HTTP header (a character outside
    Latin-1, a CR or an LF): then :class:`InputError` naming *name*, never
    the value."""
    if token and (max(token) > "\xff" or "\r" in token or "\n" in token):
        raise InputError(f"{name} must hold only Latin-1 characters and no line break")
    return token


def _env_token(name: str) -> str | None:
    """The auth token in the environment variable *name*, if any, checked
    by :func:`_check_token`."""
    return _check_token(os.environ.get(name), name)


def post_json(url: str, payload: dict, *, token: str | None = None) -> dict:
    """POST *payload* and return the parsed JSON reply.

    Connection errors, 5xx and 429 answers are tried up to
    :data:`DEFAULT_ATTEMPTS` times, sleeping per :func:`retry_schedule`
    between tries; an integer ``Retry-After`` on a 429 replaces that step,
    capped at the schedule's largest step. Other 4xx answers and redirects
    are not retried or followed. *url* must pass :func:`check_endpoint`
    (else :class:`InputError`, before any attempt); its userinfo is sent as
    HTTP Basic auth, which takes precedence over *token*. A *token* that
    cannot go in an HTTP header raises :class:`InputError`, before any
    attempt and without the value. The proxy environment is read at this
    call (:func:`proxy_environment`). A reply that is not a JSON object, or
    that holds a string with a lone surrogate
    (:func:`~autopyramid.data.lone_surrogate_field`), raises
    :class:`MalformedServiceReply`.
    """
    return _post(_route(url, proxy_environment()), payload, token)


def _post(route: _Route, payload: dict, token: str | None) -> dict:
    """:func:`post_json` on a route already worked out."""
    _check_token(token, "the auth token")
    schedule = retry_schedule()
    head = route.head
    authorization = route.authorization or (token and f"Bearer {token}")
    if authorization:
        head += f"Authorization: {authorization}\r\n"
    data = json.dumps(payload, allow_nan=False).encode("utf-8")
    request = f"{head}Content-Length: {len(data)}\r\n\r\n".encode("latin-1") + data
    where = route.where
    failure = "no attempt made"
    for attempt in range(DEFAULT_ATTEMPTS):
        retry_after = None
        try:
            status, headers, body = _exchange(route, request)
        except OSError as exc:
            failure = str(exc) if type(exc) is _BrokenReply else type(exc).__name__
        else:
            if 200 <= status < 300:
                try:
                    # decoded strictly: json.loads of bytes lets encoded surrogates pass
                    text = body.decode(json.detect_encoding(body))
                    reply = json.loads(text)
                except (ValueError, RecursionError) as exc:
                    # RecursionError: nested deeper than the interpreter's limit
                    raise MalformedServiceReply(f"{where} returned non-JSON data") from exc
                if not isinstance(reply, dict):
                    raise MalformedServiceReply(f"{where} returned a non-object reply")
                field = lone_surrogate_field(text, reply)
                if field is not None:
                    raise MalformedServiceReply(
                        f"{where} returned a lone surrogate escape in {field}"
                    )
                return reply
            if status == 429:
                retry_after = headers.get("retry-after")
            elif status < 500:
                raise ServiceUnavailable(f"{where} answered {status}")
            failure = f"status {status}"
        if attempt + 1 < DEFAULT_ATTEMPTS:
            sleep(_retry_delay(attempt, schedule, retry_after))
    raise ServiceUnavailable(f"{where} failed after {DEFAULT_ATTEMPTS} attempts ({failure})")


def _malformed(endpoint: str, problem: str) -> MalformedServiceReply:
    return MalformedServiceReply(f"{redact_endpoint(endpoint)} {problem}")


class BatchClient:
    """Shared plumbing of the service clients: batched, order-preserving,
    bounded-concurrency POSTs with the client's token, all on one route
    (``_run_batched``)."""

    token_env: str | None = None

    def __init__(self, endpoint: str, *, batch_size: int = 32, concurrency: int = 4):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.endpoint = endpoint
        self.batch_size = batch_size
        self.concurrency = concurrency
        # worked out on the first request, then taken by every later one
        self._route = None

    def _run_batched(self, items: Sequence, build: Callable, parse: Callable) -> list:
        """POST every batch, fan out up to ``concurrency`` at a time, and
        stitch replies back together in input order."""
        if not items:
            return []
        token = _env_token(self.token_env) if self.token_env else None
        if self._route is None:
            self._route = _route(self.endpoint, proxy_environment())
        size = self.batch_size
        batches = [items[i : i + size] for i in range(0, len(items), size)]

        def one(batch):
            reply = _post(self._route, build(batch), token)
            values = parse(reply)
            if len(values) != len(batch):
                raise _malformed(
                    self.endpoint, f"answered {len(values)} items for a batch of {len(batch)}"
                )
            return values

        with ThreadPoolExecutor(max_workers=min(self.concurrency, len(batches))) as pool:
            replies = list(pool.map(one, batches))
        out: list = []
        for values in replies:
            out.extend(values)
        return out

    def _strings(self, items: Sequence[str], request: str, reply: str) -> list[str]:
        """*items* posted in batches as a list under the key *request*; each
        reply must hold a list of strings under the key *reply*."""

        def parse(body: dict) -> list[str]:
            values = body.get(reply)
            if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
                raise _malformed(self.endpoint, f"reply lacks {reply!r}")
            return values

        return self._run_batched(list(items), lambda batch: {request: batch}, parse)


class GraphToTextClient(BatchClient):
    """Client for the graph-to-text generation service."""

    token_env = AMR_TOKEN_ENV

    def generate(self, graphs: Sequence[str]) -> list[str]:
        return self._strings(graphs, "graphs", "texts")


class ParseServiceClient(BatchClient):
    """Client for the sentence-to-graph parsing service."""

    token_env = AMR_TOKEN_ENV

    def parse_sentences(self, sentences: Sequence[str]) -> list[str]:
        return self._strings(sentences, "sentences", "graphs")


class PresenceClient(BatchClient):
    """Client for the presence-probability scoring service."""

    token_env = NLI_TOKEN_ENV

    def probabilities(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        def parse(reply: dict) -> list[float]:
            probs = reply.get("probs")
            if not isinstance(probs, list):
                raise _malformed(self.endpoint, "reply lacks 'probs'")
            for value in probs:
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise _malformed(self.endpoint, "returned a non-numeric probability")
                if not 0.0 <= value <= 1.0:
                    raise _malformed(
                        self.endpoint, f"returned probability {value} outside [0, 1]"
                    )
            return [float(v) for v in probs]

        def build(batch):
            return {"pairs": [{"premise": p, "hypothesis": h} for p, h in batch]}

        return self._run_batched(list(pairs), build, parse)


class ChatClient(BatchClient):
    """Client for a chat-completions style language model endpoint: one
    conversation per request, up to ``concurrency`` in flight."""

    token_env = LLM_TOKEN_ENV

    def __init__(
        self, endpoint: str, model: str, *, temperature: float = 0.0, concurrency: int = 4
    ):
        super().__init__(endpoint, batch_size=1, concurrency=concurrency)
        self.model = model
        self.temperature = temperature

    def complete(self, conversations: Sequence[list[dict]]) -> list[str]:
        """The first choice's message content for each conversation, in
        order."""

        def parse(reply: dict) -> list[str]:
            try:
                content = reply["choices"][0]["message"]["content"]
            except (KeyError, IndexError, TypeError) as exc:
                raise _malformed(self.endpoint, "reply has no first choice message") from exc
            if not isinstance(content, str):
                raise _malformed(self.endpoint, "message content is not text")
            return [content]

        def build(batch):
            return {"model": self.model, "temperature": self.temperature, "messages": batch[0]}

        return self._run_batched(list(conversations), build, parse)
