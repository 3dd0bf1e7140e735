"""The one persistence path for cached tables (censuses and kt tables).

A cache file is one header line, ``martlab-cache v5 <file name>
sha256=<payload digest>``, followed by the payload.  The file name spells out
every parameter the contents depend on, so the header carries the key.  A
load trusts the payload only when the whole header matches; anything else (an
older format, a cut or edited file, a copy under another key's name) is
rebuilt and rewritten.  Writes go to a per-process temporary file in the same
directory and are moved into place with ``os.replace``, so no reader sees
half a file.  Callers supply only the payload encoding; a decoder gets a
``memoryview`` of the payload, so a load hashes and reads the file's bytes in
place.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Callable, TypeVar

from .errors import ConfigError

__all__ = ["FORMAT_VERSION", "directory", "fetch"]

# version 1 was the census "MLC1" layout and the "# martlab kt table v1" CSV;
# version 2 stored a census as one 14-byte record per reached table; versions
# 2 and 3 stored a kt table as ``string,kt`` CSV lines; versions 3 and 4
# stored a census's witness kinds and operands after its size bytes
FORMAT_VERSION = 5

T = TypeVar("T")


def directory(cache_dir: Path | str) -> Path:
    """The cache directory, created if missing; ``OSError`` if it cannot be."""
    path = Path(cache_dir)
    if not path.is_dir():
        path.mkdir(parents=True, exist_ok=True)
    return path


def _header(name: str, payload: bytes | memoryview) -> bytes:
    digest = hashlib.sha256(payload).hexdigest()
    return f"martlab-cache v{FORMAT_VERSION} {name} sha256={digest}\n".encode()


def fetch(
    cache_dir: Path | str | None,
    name: str,
    build: Callable[[], T],
    encode: Callable[[T], bytes],
    decode: Callable[[memoryview], T],
) -> T:
    """Decode the cached ``name``, or build it and store its encoding.

    Without a cache directory the value is built and nothing is stored; the
    directory is created, if missing, only to store a value.  A name that
    cannot be read as a file, such as a directory, is a ``ConfigError``.
    """
    if cache_dir is None:
        return build()
    path = Path(cache_dir) / name
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        data = b""
    except OSError as exc:
        raise ConfigError(f"cannot read {name} ({exc.strerror})",
                          field="--cache-dir") from exc
    payload = memoryview(data)[data.find(b"\n") + 1 :]
    if data.startswith(_header(name, payload)):
        return decode(payload)
    value = build()
    payload = encode(value)
    directory(cache_dir)
    tmp = path.with_name(f"{name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(_header(name, payload) + payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return value
