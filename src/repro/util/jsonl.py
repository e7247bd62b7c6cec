"""The one append path of the JSON-lines files: result store, job journal, span log.

Each appends one record per line and reads back line by line, skipping
undecodable lines.  A process killed mid-write leaves the file without its
trailing newline, and a record appended straight onto the partial line would
be glued to it: both would read as one undecodable line, forever.
"""

from __future__ import annotations

import os

__all__ = ["append_lines"]


def append_lines(descriptor: int, data: bytes, size: int, end: int) -> int:
    """Append ``data``, whole lines, to the file open for reading and with
    ``O_APPEND`` at ``descriptor``, whose size is ``size``; returns its size after.

    ``end`` is the size the caller's last write left (``-1`` before one).  A
    file of another size may have been written by someone else since, so its
    last byte is read, and a newline goes first when it is not one.  (With
    ``O_APPEND`` the write lands at the end wherever the read leaves the offset.)
    """
    if size and size != end:
        os.lseek(descriptor, -1, os.SEEK_END)
        if os.read(descriptor, 1) != b"\n":
            data = b"\n" + data
    view = memoryview(data)
    while view:  # os.write may write only part of it
        view = view[os.write(descriptor, view):]
    return size + len(data)
