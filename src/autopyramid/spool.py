"""Texts held on disk in groups, read back a group at a time.

``score`` spools the summaries of its dataset and the texts of its unit
file, and ``intrinsic`` the gold units and the unit texts, so that neither
holds every text of its inputs; each reads one example's back as it
scores it. Each opens its spool with ``with TextSpool(what) as spool:``.
"""

from __future__ import annotations

import tempfile
from array import array
from itertools import accumulate

from .errors import FileUnwritable


class TextSpool:
    """Texts written as UTF-8, back to back, into an unnamed temporary file
    under ``tempfile.gettempdir()`` (``$TMPDIR`` when set). :meth:`add`
    writes texts in a group; texts added one after another to one group
    make a run, and the spool keeps where each text ends and where each
    run starts, and its group, in arrays. :meth:`texts` reads a group's
    texts back in the order they were added, with one read a run. The file
    holds about the texts' bytes until the spool's ``with`` block ends. A
    failure to make, write or read it raises :class:`FileUnwritable`
    naming *what* is spooled, with the reason.
    """

    def __init__(self, what: str):
        self.what = what
        self.ends = array("Q")  # the byte each text ends before
        self.starts = array("Q")  # the first text of each run
        self.groups = array("Q")  # the group of each run
        self._size = 0
        self._first = self._members = None  # each group's runs, once read
        # a buffer of 64 KiB, as the input is read in: at 500 x 16, about
        # 60 writes of the 3.9 MB of summaries, not about 480 of 8 KiB
        self._file = self._spooling(tempfile.TemporaryFile, "w+b", 1 << 16)

    def __enter__(self) -> TextSpool:
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            self._file.close()
        except OSError:  # a last flush that fails loses bytes no one reads
            pass

    def add(self, group: int, texts) -> None:
        """Write *texts*, in order, in *group*, with one write."""
        if self._first is not None:  # a read has put the runs in group order
            raise RuntimeError(f"the spool of {self.what} takes no text once it is read")
        data = [text.encode("utf-8") for text in texts]
        self._spooling(self._file.write, b"".join(data))
        if data and (not self.groups or self.groups[-1] != group):
            self.starts.append(len(self.ends))
            self.groups.append(group)
        self.ends.extend([self._size + end for end in accumulate(map(len, data))])
        self._size = self.ends[-1] if self.ends else 0

    def size(self, group: int) -> int:
        """How many texts *group* holds."""
        return sum(stop - start for start, stop in self._runs(group))

    def texts(self, group: int) -> list[str]:
        """The texts of *group*, in the order they were added."""
        texts, raw = [], self._file.raw
        for start, stop in self._runs(group):
            begin = self.ends[start - 1] if start else 0
            self._spooling(raw.seek, begin)
            data = self._spooling(raw.read, self.ends[stop - 1] - begin)
            cuts = [0, *[end - begin for end in self.ends[start:stop]]]
            texts += [data[a:b].decode("utf-8") for a, b in zip(cuts, cuts[1:])]
        return texts

    def _runs(self, group: int):
        """The first text of each run of *group*, and the text after its
        last, in add order. The runs are put in group order (a counting
        sort) at the first read, after which :meth:`add` refuses; reads go
        to the file itself, not through the buffer a group at a time."""
        if self._first is None:
            self._spooling(self._file.flush)
            counts = array("Q", [0]) * (max(self.groups, default=-1) + 2)
            for g in self.groups:
                counts[g + 1] += 1
            self._first = array("Q", accumulate(counts))
            place = self._first[:-1]
            self._members = array("Q", [0]) * len(self.groups)
            for run, g in enumerate(self.groups):
                self._members[place[g]] = run
                place[g] += 1
        first, starts = self._first, self.starts
        if group + 1 >= len(first):
            return
        for run in self._members[first[group] : first[group + 1]]:
            yield starts[run], starts[run + 1] if run + 1 < len(starts) else len(self.ends)

    def _spooling(self, call, *args):
        """``call(*args)``, an operation on the spool, whose failure raises
        :class:`FileUnwritable` with the system's reason."""
        try:
            return call(*args)
        except OSError as exc:
            where = f" in {tempfile.tempdir}" if tempfile.tempdir else ""
            reason = exc.strerror or type(exc).__name__
            raise FileUnwritable(f"cannot spool {self.what}{where}: {reason}") from exc
