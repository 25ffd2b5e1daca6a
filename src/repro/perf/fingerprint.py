"""Source-tree fingerprint for cache keys.

The sweep's on-disk result cache must never serve a result produced by
different simulator code — determinism guarantees hold per source tree,
not across edits.  Hashing every ``repro`` source file (the Python
modules and the C event kernel) into the cache key makes staleness
structurally impossible: change one line anywhere and every old entry
simply stops being looked up.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from pathlib import Path

#: Every file kind the simulator runs from source.
_SOURCE_GLOBS = ("*.py", "*.c")


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """SHA-256 over every ``repro`` source file (path + content).

    Cached per process: the tree is read once, and a sweep's worth of
    cell fingerprints reuses the digest.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(p for glob in _SOURCE_GLOBS for p in root.rglob(glob)):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()
