"""Run manifests: a sidecar JSON file recording how an output was produced.

Every file a command writes gets ``<file>.manifest.json`` next to it with
the command name, the effective configuration, SHA-256 digests of the
input bytes that were parsed (taken when each input was read, so a file
replaced afterwards cannot change them), the tool version, and a
timestamp. Everything except the timestamp is deterministic, so reruns
can be diffed. Endpoint URLs are stored with
credentials and query strings stripped; auth tokens live in environment
variables and never reach the manifest.
"""

from __future__ import annotations

import json
import re
import time

from . import __version__
from .data import atomic_write_text


def redact_endpoint(url: str) -> str:
    """Strip userinfo and query/fragment from a URL, even one that does not
    parse (an unclosed IPv6 bracket)."""
    # imported here so that a command given no endpoint skips it
    from urllib.parse import urlsplit, urlunsplit

    try:
        parts = urlsplit(url)
        scheme, netloc, path = parts.scheme, parts.netloc, parts.path
    except ValueError:
        # RFC 3986, appendix B: scheme, authority and path of any string
        parts = re.match(r"(?:([^:/?#]+):)?(?://([^/?#]*))?([^?#]*)", url)
        scheme, netloc, path = parts.groups("")
    return urlunsplit((scheme, netloc.rpartition("@")[2], path, "", ""))


def _redact_config(config: dict) -> dict:
    cleaned = {}
    for key, value in config.items():
        if value is not None and "endpoint" in key and isinstance(value, str):
            cleaned[key] = redact_endpoint(value)
        else:
            cleaned[key] = value
    return cleaned


def _utc_timestamp(ns: int) -> str:
    """*ns* nanoseconds since the epoch as ``datetime.isoformat()`` writes
    that UTC time to the microsecond (no fraction at 0), without importing
    ``datetime``."""
    seconds, ns = divmod(ns, 1_000_000_000)
    fraction = f".{ns // 1000:06d}" if ns >= 1000 else ""
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds)) + fraction + "+00:00"


def manifest_path(out_path) -> str:
    return f"{out_path}.manifest.json"


def write_manifest(
    out_path,
    *,
    command: str,
    config: dict,
    inputs: dict,
    extra: dict | None = None,
) -> str:
    """Write the manifest of *out_path*; *inputs* maps each input path to
    the SHA-256 its loader took of the bytes it parsed."""
    payload = {
        "command": command,
        "config": _redact_config(config),
        "inputs": {str(p): digest for p, digest in inputs.items()},
        "tool_version": __version__,
        "timestamp": _utc_timestamp(time.time_ns()),
    }
    if extra:
        payload["extra"] = extra
    target = manifest_path(out_path)
    atomic_write_text(
        target, [json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True), "\n"]
    )
    return target
