"""Atomic artifact writes: a reader never sees a half-written file."""

from __future__ import annotations

import json
import os
from pathlib import Path


def atomic_write(path: str | Path, text: str) -> None:
    """Write ``text`` to a sibling temp file, then rename it over ``path``.

    Missing parent directories are created. If the rename fails, the temp
    file is removed and the error re-raised.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    try:
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def is_file_name(name: str) -> bool:
    """Whether ``name`` is one path component, without a NUL byte."""
    return "\0" not in name and Path(name).name == name


def write_json(path: str | Path, value) -> None:
    """``write_ndjson`` of the one value ``value``."""
    write_ndjson(path, [value])


def write_ndjson(path: str | Path, values) -> None:
    """Write each of ``values`` as one newline-closed line of sorted-key JSON."""
    atomic_write(path, "".join(json.dumps(v, sort_keys=True) + "\n" for v in values))
