"""Small shared helpers: atomic writes and the one reader of ``key = integer``
metadata files (bundle ``meta.txt``, checkpoint ``optimizer.txt``)."""
from __future__ import annotations

import os
import re
import tempfile
from pathlib import Path
from typing import Callable

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


def read_fields(path: str | Path, keys: tuple[str, ...],
                other: Callable[[str], bool] | None = None) -> dict[str, int]:
    """The ``key = integer`` fields of a metadata file, skipping blank and ``#``
    lines; every key of ``keys`` must be present. A line of any other form
    goes to ``other``, which returns whether it took it. An unreadable or
    undecodable file, a malformed line, a key outside ``keys``, a repeated
    key or a missing one raises IoError naming the file."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as err:
        raise IoError(f"cannot read {path}: {err}") from err
    fields: dict[str, int] = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _INT_FIELD.match(line)
        if m is None:
            if other is None or not other(line):
                raise IoError(f"{path}: malformed line {line!r}")
            continue
        key = m.group(1)
        if key not in keys:
            raise IoError(f"{path}: unknown key {key!r}")
        if key in fields:
            raise IoError(f"{path}: repeated key {key!r}")
        fields[key] = int(m.group(2))
    for key in keys:
        if key not in fields:
            raise IoError(f"{path}: missing key {key!r}")
    return fields
