"""The storage I/O seam: where bytes become durable.

Every write the durability subsystem performs goes through a
:class:`StorageIO`, which defines three primitives and their
crash-safety contracts:

- :meth:`StorageIO.append` — append bytes to a file and flush them to
  the operating system (optionally ``fsync`` to the device).  A crash
  *during* the call may leave any prefix of the bytes in the file (a
  torn record); a crash *before* the call loses the bytes entirely.
  The journal's record framing (:mod:`repro.storage.framing`) is what
  makes both residues detectable on recovery.
- :meth:`StorageIO.write_atomic` — publish a whole file
  all-or-nothing: the bytes are written to a ``.tmp`` sibling, flushed
  (and ``fsync``\\ ed when asked), then :func:`os.replace`\\ d over the
  destination.  Readers never observe a half-written destination file;
  a crash leaves either the old file, the new file, or a stray ``.tmp``
  that recovery ignores.
- :meth:`StorageIO.retire` — unlink files a newer one supersedes, after
  an ``fsync`` of their directory; a crash before it leaves them all.

The seam exists so the fault-injection harness
(:mod:`repro.storage.faults`) can substitute a :class:`~repro.storage.
faults.FaultyIO` that deterministically dies at each of those crash
points; production code always uses the process-wide :data:`REAL_IO`.
"""

from __future__ import annotations

import os
from typing import List


class StorageIO:
    """Real filesystem writes with the documented crash-safety contract."""

    def append(self, path: str, data: bytes, fsync: bool = False) -> None:
        """Append *data* to *path*; flushed to the OS before returning.

        With ``fsync=True`` the bytes are also forced to the device, so
        they survive an operating-system crash, not just a process
        crash.  Appends are the journal's durability point: a commit is
        durable exactly when its record's ``append`` has returned.
        """
        handle = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:  # (unbuffered: written to the OS when os.write returns)
            while data:
                data = data[os.write(handle, data):]
            if fsync:
                os.fsync(handle)
        finally:
            os.close(handle)

    def write_atomic(self, path: str, data: bytes,
                     fsync: bool = False) -> None:
        """Replace *path* with *data* atomically (write tmp, rename).

        A reader (or a recovery pass) sees either the previous complete
        file or the new complete file, never a mixture.  The ``.tmp``
        sibling a crash may leave behind is never read by recovery.
        """
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, path)

    def retire(self, directory: str, names: List[str]) -> None:
        """Unlink *names* from *directory* once an ``fsync`` of it has made
        durable the renames that published what supersedes them."""
        if names:
            handle = os.open(directory, os.O_RDONLY)
            try:
                os.fsync(handle)
            finally:
                os.close(handle)
            for name in names:
                os.unlink(os.path.join(directory, name))

    def __repr__(self) -> str:
        return "StorageIO()"


def listing(directory: str) -> List[str]:
    """The names in *directory*; none if there is no such directory."""
    return os.listdir(directory) if os.path.isdir(directory) else []


#: The process-wide real I/O; the default everywhere an ``io=`` is taken.
REAL_IO = StorageIO()
