"""Reader and writer for the binary files seqcls writes.

Checkpoints and SQF1 embedding files both read through one
:class:`BinaryReader`, so any corrupt or non-finite file fails with one
:class:`DataError` line naming the kind of file.  Both are written through
:func:`replacing`, so a save that fails partway leaves the previous file
as it was.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DataError


class BinaryReader:
    """Sequential reader over a whole file, after its magic."""

    def __init__(self, path, magic: bytes, what: str):
        with open(path, "rb") as fh:
            self._blob = fh.read()
        self._what = what
        if self._blob[:len(magic)] != magic:
            raise DataError(f"bad {what} magic {self._blob[:len(magic)]!r}")
        self._offset = len(magic)

    def raw(self, n: int) -> bytes:
        start, end = self._offset, self._offset + n
        if end > len(self._blob):
            raise DataError(f"truncated {self._what}")
        self._offset = end
        return self._blob[start:end]

    def take(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.raw(struct.calcsize(fmt)))

    def text(self, n: int) -> str:
        try:
            return self.raw(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{self._what} holds invalid UTF-8: {exc}") from exc

    def floats(self, shape: tuple[int, ...]) -> np.ndarray:
        """Little-endian f32 values, row-major, widened to float64."""
        values = np.frombuffer(self.raw(4 * math.prod(shape)), dtype="<f4")
        if not np.isfinite(values).all():
            raise DataError(f"non-finite value in {self._what}")
        return values.astype(np.float64).reshape(shape)

    def finish(self) -> None:
        if self._offset != len(self._blob):
            raise DataError(f"trailing bytes after the end of the {self._what}")


@contextmanager
def replacing(path):
    """Binary handle on ``<path>.tmp`` that replaces ``path`` only once the
    block completes; on any exception the temporary file is removed."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
