"""A file's parse, saved beside it and read back by later loads of the same bytes.

A loader given the path of a regular file reads it as UTF-8, a leading
byte-order mark dropped, and parses it once: a good parse is saved as
``.<file name>.pairrank.npz`` beside the file, and a later load of a file
that hashes the same builds its value from that sidecar instead. The
sidecar is a zip of one ``fields.json`` member, holding the kind's
version, the sha256 of the bytes parsed and every field that is not an
array, and one ``<name>.npy`` member per array field. Each kind of file
supplies its parse, its record's constructor, and the constructor fields
to save, each with its type (see :func:`load`).
"""

from __future__ import annotations

import io
import json
import os
import stat
import tempfile
import zipfile
from typing import IO, Any, Callable, Iterable, Mapping, Optional, TypeVar, Union

import numpy as np

T = TypeVar("T")

Source = Union[str, os.PathLike, IO[str], Iterable[str]]

# The type of a saved field besides an array's (dtype, ndim): any value that
# JSON holds (strings, lone surrogates from "\ud800" escapes included, and
# numbers), saved in the fields.json member and read back as JSON reads it.
JSON = "json"

# Each saved field's name and type.
Fields = Mapping[str, Union[str, tuple[Any, int]]]

# What reading a sidecar that cannot be used raises: a failed read, a zip,
# JSON or npy member that does not parse, a missing member, and a member
# that fails a check (the kind's own checks raise ValueError too).
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


def _sha256(source: IO[bytes]) -> str:
    """The sha256 of the rest of ``source`` in hex, read 256 KiB at a time."""
    import hashlib

    digest = hashlib.sha256()
    buffer = bytearray(1 << 18)
    view = memoryview(buffer)
    while n := source.readinto(buffer):
        digest.update(view[:n])
    return digest.hexdigest()


def _array(zf: zipfile.ZipFile, name: str, dtype, ndim: int) -> np.ndarray:
    """The array member ``name``; raises ValueError unless it has ``dtype`` and ``ndim`` dimensions."""
    with zf.open(f"{name}.npy") as member:
        a = np.lib.format.read_array(member, allow_pickle=False)
    if a.dtype != dtype or a.ndim != ndim:
        raise ValueError(f"sidecar member {name} is {a.dtype} of {a.ndim} dimensions")
    return a


def load(
    source: Source,
    version: int,
    parse: Callable[[Iterable[str]], T],
    build: Callable[..., T],
    fields: Fields,
) -> T:
    """``parse`` of ``source``, a path or lines of text, read from a sidecar where one holds it.

    A path to a regular file is read as UTF-8, a leading byte-order mark
    dropped, and parsed once: a good parse is saved beside the file (see
    :func:`sidecar_path`) as its constructor ``fields``, with ``version``
    and the sha256 of the bytes parsed. Each field is typed as an array's
    ``(dtype, ndim)`` or as :data:`JSON`. A later load of a file with the
    same bytes reads the fields back, checking each array's type, and
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
            with io.TextIOWrapper(f, encoding="utf-8-sig") as text:
                return parse(text)
        # Imported here, as only a load by path hashes: hashlib adds about 4 ms to importing pairrank.
        import hashlib

        path = sidecar_path(source)
        value = _read(path, f, st.st_uid, version, build, fields)
        if value is None:
            f.seek(0)
            digest = hashlib.sha256()
            with io.TextIOWrapper(io.BufferedReader(_Hashed(f, digest)), encoding="utf-8-sig") as text:
                value = parse(text)
            doc = {"version": version, "sha256": digest.hexdigest()}
            doc.update((name, getattr(value, name)) for name, kind in fields.items() if kind == JSON)
            arrays = {name: getattr(value, name) for name, kind in fields.items() if kind != JSON}
            # Whoever may read the file may read its sidecar.
            _write(path, doc, arrays, stat.S_IMODE(st.st_mode) & 0o666)
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
        with open(path, "rb") as fid:
            # Anyone who can read the file can compute its digest and, in a
            # shared directory, plant a sidecar of other values. Only the
            # file's owner, this user and root (who could as well change
            # the file) are trusted.
            if os.fstat(fid.fileno()).st_uid not in (owner, os.geteuid(), 0):
                return None
            with zipfile.ZipFile(fid) as zf:
                doc = json.loads(zf.read("fields.json"))
                keys = {"version", "sha256", *(name for name, kind in fields.items() if kind == JSON)}
                if not isinstance(doc, dict) or doc.keys() != keys or doc["version"] != version:
                    return None
                if doc["sha256"] != _sha256(source):
                    return None
                return build(**{name: doc[name] if kind == JSON else _array(zf, name, *kind)
                                for name, kind in fields.items()})
    except _UNUSABLE:
        return None


def _write(path: str, doc: dict[str, Any], arrays: dict[str, np.ndarray], mode: int) -> None:
    """Save ``doc`` as the ``fields.json`` member and each of ``arrays`` as a
    ``.npy`` member at ``path``, with permission bits ``mode``.

    The sidecar is written to a temporary file beside ``path`` and moved
    into place, so a reader finds all of it or none. A failed write (a
    read-only directory, a full disk) leaves nothing and is not an error.
    """
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path), suffix=".tmp", dir=os.path.dirname(path) or None)
        with os.fdopen(fd, "wb") as f, zipfile.ZipFile(f, "w") as zf:
            os.fchmod(f.fileno(), mode)
            zf.writestr("fields.json", json.dumps(doc))
            # Each array as np.savez lays it out, its own bytes written where np.savez would first copy them.
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
