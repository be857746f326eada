"""Source-tree fingerprinting for cache invalidation.

The result cache must never serve a measurement taken by *different
code*: any edit to the ``repro`` package invalidates every cached cell.
:func:`source_fingerprint` hashes the content of every Python file in
the package — discovered with the same deterministic, sorted file walk
the lint baseline uses (:func:`repro.analysis.lint.discover_files`) and
hashed with SHA-256 like the baseline's finding fingerprints, so the
result is independent of filesystem order and ``PYTHONHASHSEED``.

The fingerprint is computed once per process and memoized: a sweep may
consult it thousands of times, and the tree cannot change underneath a
running process in a way we could meaningfully track anyway.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

__all__ = ["source_fingerprint", "clear_fingerprint_cache"]

_CACHE: Dict[Tuple[str, ...], str] = {}


def _default_roots() -> Tuple[Path, ...]:
    # The installed repro package directory: everything a job can import.
    return (Path(__file__).resolve().parent.parent,)


def source_fingerprint(roots: Optional[Sequence[Path]] = None) -> str:
    """Stable hash of every ``.py`` file under ``roots``.

    Defaults to the ``repro`` package itself.  Relative paths (not
    absolute ones) enter the hash, so the fingerprint is stable across
    checkouts at different filesystem locations.
    """
    roots = tuple(Path(r).resolve() for r in (roots or _default_roots()))
    memo_key = tuple(str(r) for r in roots)
    cached = _CACHE.get(memo_key)
    if cached is not None:
        return cached
    # Imported here: repro.analysis is the whole linter and checker, and
    # every experiment import reaches this module through repro.exec.
    from ..analysis.lint import discover_files

    digest = hashlib.sha256()
    for file_path in discover_files(roots):
        resolved = file_path.resolve()
        rel = resolved.name
        for root in roots:
            try:
                rel = resolved.relative_to(root.parent).as_posix()
                break
            except ValueError:
                continue
        digest.update(rel.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(resolved.read_bytes())
        digest.update(b"\x00")
    fingerprint = digest.hexdigest()[:16]
    _CACHE[memo_key] = fingerprint
    return fingerprint


def clear_fingerprint_cache() -> None:
    """Drop the per-process memo (tests that edit sources need this)."""
    _CACHE.clear()
