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

The transport is the standard library's ``urllib.request``, imported on the
first request so that commands that never call a service do not load it.
A client builds its opener once, on its first request. Each request opens a
fresh connection, and connections are not reused: when a server writes a
reply's headers and body in separate sends, as ``perfbench/stub.py`` does,
Nagle's algorithm and delayed ACKs stall every reused keep-alive
connection (45 ms a request through ``http.client``, against 2.7 ms with a
fresh connection, on CPython 3.11.7). Commands batch their requests
instead, so they open few connections.
"""

from __future__ import annotations

import json
import os
from time import sleep
from typing import Callable, Sequence
from urllib.parse import quote, unquote, urlsplit, urlunsplit

from .data import lone_surrogate_field
from .errors import InputError, MalformedServiceReply, ServiceUnavailable
from .manifest import redact_endpoint

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


def check_endpoint(url: str) -> tuple[str, str | None]:
    """The URL to send, without userinfo, and the ``user:password`` the
    userinfo carried (``None`` without one).

    Only http and https URLs that parse are accepted; anything else raises
    :class:`InputError`, so no file, data or ftp URL is ever read.
    """
    try:
        parts = urlsplit(url)
        parts.port  # raises ValueError on a malformed port
        # a host label the resolver would refuse also raises ValueError
        (parts.hostname or "").encode("idna")
    except ValueError as exc:
        raise InputError(
            f"service endpoint {redact_endpoint(url)} is not a valid URL ({exc})"
        ) from exc
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise InputError(
            f"service endpoint {redact_endpoint(url)} must be an http or https URL "
            "with a host"
        )
    target = urlunsplit(
        (
            parts.scheme,
            parts.netloc.rpartition("@")[2],
            quote(parts.path, safe=_URL_SAFE),
            quote(parts.query, safe=_URL_SAFE),
            "",
        )
    )
    if parts.password is None:
        return target, None
    return target, f"{unquote(parts.username)}:{unquote(parts.password)}"


def _retry_delay(attempt: int, schedule: Sequence[float], retry_after: str | None) -> float:
    """The pause before the next attempt: the schedule's step, or an integer
    ``Retry-After`` capped at the schedule's largest step."""
    value = (retry_after or "").strip()
    if value.isascii() and value.isdigit():
        return min(float(value), max(schedule))
    return schedule[min(attempt, len(schedule) - 1)]


def build_opener():
    """The ``urllib`` opener :func:`post_json` sends through: proxies as the
    environment names them at this call, http and https, and no redirect
    handler, so a 3xx answer fails like a 4xx and the request is never
    re-sent, with its credentials, to a host the reply names."""
    import urllib.request

    opener = urllib.request.OpenerDirector()
    for handler in (
        urllib.request.ProxyHandler(),
        urllib.request.HTTPHandler(),
        urllib.request.HTTPSHandler(),
        urllib.request.HTTPDefaultErrorHandler(),
        urllib.request.HTTPErrorProcessor(),
    ):
        opener.add_handler(handler)
    return opener


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


def post_json(url: str, payload: dict, *, token: str | None = None, opener=None) -> dict:
    """POST *payload* and return the parsed JSON reply.

    Connection errors, 5xx and 429 answers are tried up to
    :data:`DEFAULT_ATTEMPTS` times, sleeping per :func:`retry_schedule`
    between tries; an integer ``Retry-After`` on a 429 replaces that step,
    capped at the schedule's largest step. Other 4xx answers and redirects
    are not retried or followed. *url* must be http or https (else
    :class:`InputError`, before any attempt); its userinfo is sent as HTTP
    Basic auth, which takes precedence over *token*. A *token* that cannot
    go in an HTTP header raises :class:`InputError`, before any attempt and
    without the value. *opener* is one from :func:`build_opener`, built per
    call when omitted. A reply that is not a JSON object, or that holds a
    string with a lone surrogate (:func:`~autopyramid.data.lone_surrogate_field`),
    raises :class:`MalformedServiceReply`.
    """
    # imported here so that commands that never call a service skip them
    import base64
    import http.client
    import urllib.error
    import urllib.request

    target, userinfo = check_endpoint(url)
    _check_token(token, "the auth token")
    where = redact_endpoint(url)
    schedule = retry_schedule()
    headers = {"Content-Type": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    if userinfo is not None:
        credential = base64.b64encode(userinfo.encode("utf-8")).decode("ascii")
        headers["Authorization"] = f"Basic {credential}"
    data = json.dumps(payload, allow_nan=False).encode("utf-8")
    if opener is None:
        opener = build_opener()
    failure = "no attempt made"
    for attempt in range(DEFAULT_ATTEMPTS):
        retry_after = None
        # a fresh Request each time: routing through a proxy rewrites it
        request = urllib.request.Request(target, data=data, headers=headers, method="POST")
        try:
            with opener.open(request, timeout=DEFAULT_TIMEOUT) as response:
                body = response.read()
        except urllib.error.HTTPError as exc:
            exc.close()
            if exc.code == 429:
                retry_after = exc.headers.get("Retry-After")
            elif exc.code < 500:
                raise ServiceUnavailable(f"{where} answered {exc.code}") from None
            failure = f"status {exc.code}"
        except (OSError, http.client.HTTPException) as exc:
            reason = getattr(exc, "reason", None)
            failure = (reason if isinstance(reason, BaseException) else exc).__class__.__name__
        else:
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
                raise MalformedServiceReply(f"{where} returned a lone surrogate escape in {field}")
            return reply
        if attempt + 1 < DEFAULT_ATTEMPTS:
            sleep(_retry_delay(attempt, schedule, retry_after))
    raise ServiceUnavailable(f"{where} failed after {DEFAULT_ATTEMPTS} attempts ({failure})")


def _malformed(endpoint: str, problem: str) -> MalformedServiceReply:
    return MalformedServiceReply(f"{redact_endpoint(endpoint)} {problem}")


class BatchClient:
    """Shared plumbing of the service clients: batched, order-preserving,
    bounded-concurrency POSTs with the client's token through one opener
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
        # built on the first request, then shared by every later one
        self._opener = None

    def _run_batched(self, items: Sequence, build: Callable, parse: Callable) -> list:
        """POST every batch, fan out up to ``concurrency`` at a time, and
        stitch replies back together in input order."""
        if not items:
            return []
        token = _env_token(self.token_env) if self.token_env else None
        if self._opener is None:
            self._opener = build_opener()
        size = self.batch_size
        batches = [items[i : i + size] for i in range(0, len(items), size)]

        def one(batch):
            reply = post_json(self.endpoint, build(batch), token=token, opener=self._opener)
            values = parse(reply)
            if len(values) != len(batch):
                raise _malformed(
                    self.endpoint, f"answered {len(values)} items for a batch of {len(batch)}"
                )
            return values

        if len(batches) == 1:
            replies = [one(batches[0])]
        else:
            # imported here so that commands that start no thread skip it
            from concurrent.futures import ThreadPoolExecutor

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
