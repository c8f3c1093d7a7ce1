"""Small shared helpers: seed derivation and atomic file output."""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os


def derive_seed(*parts) -> int:
    """Fold arbitrary labels into a 64-bit seed, stable across processes.

    Python's builtin hash() is salted per process, which would break the
    simulation/TCP equivalence, so this goes through sha256.
    """
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Replace ``path`` with ``data``; readers see the old file or the new one.

    Writes a uniquely named temp file beside ``path``, fsyncs and renames it;
    a failed write removes the temp file and leaves ``path`` as it was.
    """
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _finite(obj):
    """``obj`` with every NaN and infinite float as None, which JSON writes as null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    return obj


def atomic_write_json(path: str, obj) -> None:
    """Write indented JSON with ``atomic_write_bytes``, non-finite floats as null."""
    text = json.dumps(_finite(obj), indent=2, allow_nan=False) + "\n"
    atomic_write_bytes(path, text.encode("utf-8"))


def append_jsonl(fh, obj) -> None:
    """Append ``obj`` as one JSON line, non-finite floats as null, and flush."""
    fh.write(json.dumps(_finite(obj), allow_nan=False) + "\n")
    fh.flush()
