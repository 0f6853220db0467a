"""A file's parse, saved beside it and read back by later loads of the same bytes.

A loader given the path of a regular file parses it once: a good parse is
saved as ``.<file name>.pairrank.npz`` beside the file, with the kind's
version and the sha256 of the bytes parsed, and a later load of a file
that hashes the same builds its value from that sidecar instead. Each kind
of file supplies its parse, its record's constructor, and the constructor
fields to save, each with its type (see :func:`load`).
"""

from __future__ import annotations

import io
import os
import stat
import tempfile
import zipfile
from typing import IO, Any, Callable, Iterable, Mapping, Optional, TypeVar, Union

import numpy as np

T = TypeVar("T")

Source = Union[str, os.PathLike, IO[str], Iterable[str]]

# The types of a saved field besides an array's (dtype, ndim): a sequence of
# strings, saved as one UTF-8 blob, lone surrogates (from "\ud800" escapes)
# kept, and ``<name>_offsets``, the offsets of its strings' characters in it, so
# a string may hold any character, a newline included, or none; and a count,
# an int64 scalar read back as an int.
STRINGS, COUNT = "strings", "count"

# Each saved field's name and type.
Fields = Mapping[str, Union[str, tuple[Any, int]]]

# What reading a sidecar that cannot be used raises: a failed read, a zip
# or npy member that does not parse, a missing member, and a member that
# fails a check (the kind's own checks raise ValueError too).
_UNUSABLE = (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile)


class _Hashed(io.RawIOBase):
    """A binary file, each chunk fed to ``digest`` as it is read."""

    def __init__(self, raw: IO[bytes], digest):
        self._raw, self._digest = raw, digest

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._raw.readinto(buffer)
        self._digest.update(memoryview(buffer)[:n])
        return n


def sidecar_path(path: str | os.PathLike) -> str:
    """Where the parse of the file at ``path`` is saved: ``.<file name>.pairrank.npz`` beside it."""
    head, name = os.path.split(os.fspath(path))
    return os.path.join(head, f".{name}.pairrank.npz")


def _sha256(source: IO[bytes]) -> bytes:
    """The sha256 of the rest of ``source``, read 256 KiB at a time."""
    import hashlib

    digest = hashlib.sha256()
    buffer = bytearray(1 << 18)
    view = memoryview(buffer)
    while n := source.readinto(buffer):
        digest.update(view[:n])
    return digest.digest()


def _member(npz, name: str, dtype, ndim: int) -> np.ndarray:
    """The sidecar member ``name``; raises ValueError unless it has ``dtype`` and ``ndim`` dimensions."""
    a = npz[name]
    if a.dtype != dtype or a.ndim != ndim:
        raise ValueError(f"sidecar member {name} is {a.dtype} of {a.ndim} dimensions")
    return a


def _encode(value, fields: Fields) -> dict[str, np.ndarray]:
    """The members that save the ``fields`` of ``value``."""
    arrays = {}
    for name, kind in fields.items():
        v = getattr(value, name)
        if kind == STRINGS:
            arrays[name] = np.frombuffer("".join(v).encode("utf-8", "surrogatepass"), np.uint8)
            arrays[f"{name}_offsets"] = np.cumsum([0, *map(len, v)], dtype=np.int64)
        elif kind == COUNT:
            arrays[name] = np.int64(v)
        else:
            arrays[name] = v
    return arrays


def _decode(npz, fields: Fields) -> dict[str, Any]:
    """The ``fields`` saved in a sidecar's members; raises ValueError on a member of another type."""
    values = {}
    for name, kind in fields.items():
        if kind == STRINGS:
            text = _member(npz, name, np.uint8, 1).tobytes().decode("utf-8", "surrogatepass")
            ends = _member(npz, f"{name}_offsets", np.int64, 1)
            if ends[:1].tolist() != [0] or ends[-1] != len(text) or (np.diff(ends) < 0).any():
                raise ValueError(f"sidecar member {name}_offsets does not split its text")
            ends = ends.tolist()
            values[name] = [text[a:b] for a, b in zip(ends, ends[1:])]
        elif kind == COUNT:
            values[name] = int(_member(npz, name, np.int64, 0))
        else:
            values[name] = _member(npz, name, *kind)
    return values


def load(
    source: Source,
    version: int,
    parse: Callable[[Iterable[str]], T],
    build: Callable[..., T],
    fields: Fields,
) -> T:
    """``parse`` of ``source``, a path or lines of text, read from a sidecar where one holds it.

    A path to a regular file is read as UTF-8 and parsed once: a good
    parse is saved beside the file (see :func:`sidecar_path`) as its
    constructor ``fields``, with ``version`` and the sha256 of the bytes
    parsed. Each field is typed as an array's ``(dtype, ndim)``, as
    :data:`STRINGS` or as :data:`COUNT`. A later load of a file with the
    same bytes reads the fields back, checking each member's type, and
    returns ``build(**fields)`` instead of parsing; ``build``, the
    record's constructor, checks them as outside input and raises
    ValueError on a bad one. A sidecar that does not match the file or
    fails a check is ignored and rewritten, and one owned by anyone but
    the file's owner, this user or root is ignored. Any other path (a
    pipe, say), a file object and a list of lines are only parsed.
    """
    if not isinstance(source, (str, os.PathLike)):
        return parse(source)
    with open(source, "rb") as f:
        st = os.fstat(f.fileno())
        if not stat.S_ISREG(st.st_mode):
            with io.TextIOWrapper(f, encoding="utf-8") as text:
                return parse(text)
        # Imported here, as only a load by path hashes: hashlib adds about 4 ms to importing pairrank.
        import hashlib

        path = sidecar_path(source)
        value = _read(path, f, st.st_uid, version, build, fields)
        if value is None:
            f.seek(0)
            digest = hashlib.sha256()
            with io.TextIOWrapper(io.BufferedReader(_Hashed(f, digest)), encoding="utf-8") as text:
                value = parse(text)
            # Whoever may read the file may read its sidecar.
            _write(path, version, digest.digest(), lambda: _encode(value, fields), stat.S_IMODE(st.st_mode) & 0o666)
    return value


def _read(path: str, source: IO[bytes], owner: int, version: int, build: Callable[..., T],
          fields: Fields) -> Optional[T]:
    """``build`` of the ``fields`` in the sidecar at ``path`` for the bytes of ``source``.

    None when there is no such sidecar, or it is owned by someone other
    than ``owner`` (the file's owner), this user or root, or it is
    truncated, corrupt, of another version, saved for other bytes, or fails
    a check.
    """
    try:
        # Opened here, not by np.load, which leaves the file open when the zip cannot be read.
        with open(path, "rb") as fid:
            # Anyone who can read the file can compute its digest and, in a
            # shared directory, plant a sidecar of other values. Only the
            # file's owner, this user and root (who could as well change
            # the file) are trusted.
            if os.fstat(fid.fileno()).st_uid not in (owner, os.geteuid(), 0):
                return None
            npz = np.load(fid, allow_pickle=False)
            if not isinstance(npz, np.lib.npyio.NpzFile):
                return None
            if _member(npz, "version", np.int64, 0) != version:
                return None
            if _member(npz, "sha256", np.uint8, 1).tobytes() != _sha256(source):
                return None
            return build(**_decode(npz, fields))
    except _UNUSABLE:
        return None


def _write(path: str, version: int, digest: bytes, members: Callable[[], dict[str, np.ndarray]], mode: int) -> None:
    """Save ``members()`` at ``path``, with permission bits ``mode``, as the parse
    of the bytes whose sha256 is ``digest``.

    The sidecar is written to a temporary file beside ``path`` and moved
    into place, so a reader finds all of it or none. A failed write (a
    read-only directory, a full disk, a value the members cannot encode)
    leaves nothing and is not an error.
    """
    tmp = None
    try:
        arrays = {"version": np.int64(version), "sha256": np.frombuffer(digest, np.uint8), **members()}
        fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path), suffix=".tmp", dir=os.path.dirname(path) or None)
        # The members as np.savez lays them out, each array's own bytes
        # written where np.savez would first copy them.
        with os.fdopen(fd, "wb") as f, zipfile.ZipFile(f, "w") as zf:
            os.fchmod(f.fileno(), mode)
            for name, a in arrays.items():
                a = np.asarray(a, order="C")
                with zf.open(f"{name}.npy", "w", force_zip64=True) as out:
                    np.lib.format.write_array_header_1_0(out, np.lib.format.header_data_from_array_1_0(a))
                    out.write(a.reshape(-1).view(np.uint8))
        os.replace(tmp, path)
    except (OSError, ValueError):
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
