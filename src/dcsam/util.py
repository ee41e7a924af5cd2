"""Small shared helpers: atomic writes and ``key = integer`` metadata lines."""
from __future__ import annotations

import os
import re
import tempfile
from pathlib import Path

from .errors import IoError

_INT_FIELD = re.compile(r"^(\w+)\s*=\s*(-?\d+)$")


def atomic_write_bytes(path: str | Path, payload: bytes) -> None:
    """Write via a sibling temp file then rename, so readers never see a torn file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def int_field(line: str) -> tuple[str, int] | None:
    """Key and value of a stripped ``key = integer`` line, or None when the
    line has any other form."""
    m = _INT_FIELD.match(line)
    return None if m is None else (m.group(1), int(m.group(2)))


def store_field(fields: dict[str, int], field: tuple[str, int], keys: tuple[str, ...],
                source: Path) -> None:
    """Record one ``key = integer`` field of a metadata file; a key outside
    ``keys``, or one already recorded, raises IoError."""
    key, value = field
    if key not in keys:
        raise IoError(f"{source}: unknown key {key!r}")
    if key in fields:
        raise IoError(f"{source}: repeated key {key!r}")
    fields[key] = value
