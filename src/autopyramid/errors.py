"""Exception types shared across the toolkit.

Two families matter to callers: ``InputError`` covers bad data or bad
arguments (the CLI maps it to exit code 2), ``RemoteError`` covers failures
of external services (exit code 3).
"""

from __future__ import annotations


class AutoPyramidError(Exception):
    """Base class for every error raised by this package."""


class InputError(AutoPyramidError):
    """Invalid input data, file, or argument. A loader that finds a row or
    a graph at fault sets ``path`` to the file it is in, which the message,
    giving the line, leaves out; the command line prints it first."""

    path = None


class RemoteError(AutoPyramidError):
    """An external service failed or misbehaved."""


class ReferenceFailure(AutoPyramidError):
    """A failure that concerns one reference summary. ``reference`` is the
    position of the failed one among the references given to the call that
    raised, so that the caller can name it; a call given one reference
    leaves it unset or 0."""

    reference: int | None = None


class MalformedPenman(InputError):
    """PENMAN text that does not follow the accepted grammar."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class DisconnectedGraph(InputError):
    """A graph operation required connectivity that does not hold."""


class EmptyReference(InputError, ReferenceFailure):
    """A reference summary produced no extractable units."""


class GraphTooLarge(InputError, ReferenceFailure):
    """A graph splits into more candidate nodes than the splitter allows.
    ``graph`` is its position among the graphs of its reference, when
    known."""

    graph: int | None = None


class NoUnits(InputError):
    """Presence scoring was asked to run with an empty unit list."""


class NoGoldUnits(InputError):
    """Easiness scoring requires at least one gold unit."""


class EmptyDataset(InputError):
    """An operation that needs data received an empty dataset."""


class LengthMismatch(InputError):
    """Paired inputs have different or unusable lengths."""


class DegenerateInput(InputError):
    """A statistic is undefined for the given input (e.g. zero variance)."""


class FileUnreadable(InputError):
    """A required input file is missing or cannot be read."""


class FileUnwritable(InputError):
    """An output file cannot be written."""


class SchemaViolation(InputError):
    """A data file row does not match the expected schema."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        prefix = []
        if line is not None:
            prefix.append(f"line {line}")
        if field:
            prefix.append(f"field {field}")
        if prefix:
            message = f"{', '.join(prefix)}: {message}"
        super().__init__(message)
        self.line = line
        self.field = field


class DuplicateExampleId(SchemaViolation):
    """Two dataset rows share the same example id."""


class PresenceLengthMismatch(SchemaViolation):
    """A presence-label list does not align with the pooled gold units."""


class ServiceUnavailable(RemoteError):
    """A remote endpoint could not be reached or kept failing."""


class MalformedServiceReply(RemoteError):
    """A remote endpoint answered with an unusable payload."""


class EmptyReply(RemoteError, ReferenceFailure):
    """A service replied without any usable unit: the language model with no
    fragment, or the graph-to-text generator with only blank texts for a
    reference."""
