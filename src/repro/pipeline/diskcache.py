"""Persistent, content-addressed on-disk cache for pipeline stage products.

The in-memory :class:`~repro.pipeline.stages.StageCache` dies with its
compiler; corpus services restart, fan out over worker processes, and repeat
yesterday's workload.  :class:`DiskCache` is the second level behind the
stage caches: stage products are pickled to a directory of content-addressed
entry files, so a fresh process (or a pool worker) warm-starts from disk
instead of recompiling every equivalence class from scratch.

Design rules, in order:

* **Never trust an entry.**  Every entry embeds a magic marker and the
  store version; a file that fails to unpickle, carries the wrong marker,
  or carries the wrong version is *evicted* (deleted) and reported as a
  miss — a corrupted or stale cache can cost a recompute, never an error
  or a wrong artifact.
* **Version-stamped.**  The store directory records a version string
  combining the cache format, the package's pipeline version and the
  running Python — any mismatch wipes the store on open.  Bump
  :data:`PIPELINE_CACHE_VERSION` whenever fingerprints, artifacts or the
  pickle layout change meaning.
* **Crash- and concurrency-safe writes.**  Entries are written to a
  temporary file and atomically renamed into place, so readers (including
  parallel workers sharing one store) see either nothing or a complete
  entry.
* **Content-addressed keys.**  Callers address entries by a stable digest
  of (namespace, stage, key); the digest helper accepts the stage caches'
  structured keys (text, enums, frozen AST/Logic-Tree nodes, tuples).
* **Degrade, never die.**  A cache root that cannot be created, stamped,
  or written (read-only filesystem, permission change, disk full) flips
  the store into *degraded* memory-only mode: every ``get`` is a miss,
  every ``put`` a no-op, and ``stats.disk_degraded`` counts the flip so
  operators see the cache silently went away.  Compilation never fails
  because its cache did.

Fault points (see :mod:`repro.faults`): ``diskcache.read`` fires before an
entry file is read (IO errors / latency), ``diskcache.read.bytes``
transforms the raw blob (torn/corrupt reads), ``diskcache.write`` fires
inside the atomic write path.
"""

from __future__ import annotations

import errno
import hashlib
import os
import pickle
import sys
import tempfile
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any

from ..faults import fault_point
from ..metrics import Counters

#: Bump when cached products or key derivations change meaning.
#: 2: ResultSet became a slotted dataclass with a __reduce__ (PR 5) —
#: stores holding dict-state ResultSet pickles must be invalidated whole.
PIPELINE_CACHE_VERSION = 2

#: First element of every pickled entry (guards against foreign files).
_ENTRY_MAGIC = "repro-diskcache"

#: File name that records the store version stamp.
_VERSION_FILE = "VERSION"

#: Suffix of entry files.
_ENTRY_SUFFIX = ".pkl"

#: Write failures that condemn the whole store, not just one entry:
#: permission/ownership changes, read-only remounts, and a full disk.
_DEGRADE_ERRNOS = frozenset(
    {errno.EACCES, errno.EPERM, errno.EROFS, errno.ENOSPC}
)


def default_cache_version() -> str:
    """The store version stamp for this interpreter + package build.

    Python major.minor participates because entries are pickles: a store
    written by 3.12 must not be trusted blindly by 3.10.
    """
    return (
        f"format{PIPELINE_CACHE_VERSION}"
        f"-py{sys.version_info[0]}.{sys.version_info[1]}"
    )


def stable_key_digest(namespace: str, stage: str, key: Any) -> str:
    """Hex digest addressing ``key`` within ``namespace``/``stage``.

    The encoding must be deterministic across processes and runs: plain
    scalars encode by value, enums by class and member name, frozen
    dataclass nodes by their (deterministic) ``repr``.  Python's built-in
    ``hash`` is never used (it is salted per process).
    """
    digest = hashlib.sha256()
    prefix = namespace.encode("utf-8")
    digest.update(b"%d:" % len(prefix))
    digest.update(prefix)
    stage_bytes = stage.encode("utf-8")
    digest.update(b"%d:" % len(stage_bytes))
    digest.update(stage_bytes)
    _update_digest(digest, key)
    return digest.hexdigest()


def _update_digest(digest, key: Any) -> None:
    # Every variable-length atom is length-prefixed so element boundaries
    # cannot be forged from inside a value: without the prefix, the keys
    # ("a", "b") and ("a;s:b",) would collapse to one byte stream — and
    # stage keys embed user-controlled text (SQL string literals).
    if key is None:
        digest.update(b"n;")
    elif isinstance(key, str):
        encoded = key.encode("utf-8")
        digest.update(b"s%d:" % len(encoded))
        digest.update(encoded)
    elif isinstance(key, bool):
        digest.update(b"b1;" if key else b"b0;")
    elif isinstance(key, (int, float)):
        encoded = repr(key).encode("utf-8")
        digest.update(b"f%d:" % len(encoded))
        digest.update(encoded)
    elif isinstance(key, Enum):
        encoded = f"{type(key).__name__}.{key.name}".encode("utf-8")
        digest.update(b"e%d:" % len(encoded))
        digest.update(encoded)
    elif isinstance(key, tuple):
        digest.update(b"t%d(" % len(key))
        for element in key:
            _update_digest(digest, element)
        digest.update(b");")
    else:
        # Frozen AST / Logic-Tree nodes (and anything else with a
        # deterministic repr): the dataclass repr is recursive and total.
        encoded = repr(key).encode("utf-8")
        digest.update(b"r%d:" % len(encoded))
        digest.update(encoded)


def _disk_counters() -> Counters:
    return Counters(
        "hits",
        "misses",
        "writes",
        # Total entries deleted for any reason; always equals
        # corrupt_evictions + stale_evictions.
        "evictions",
        # Entries that failed to unpickle, carried foreign content, or
        # raised IO errors mid-read: the never-trust branch.
        "corrupt_evictions",
        # Whole-store wipes caused by a version-stamp mismatch.
        "stale_evictions",
        "write_errors",
        # Times the store flipped into memory-only degraded mode.
        "disk_degraded",
    )


@dataclass
class DiskCache:
    """A directory of version-stamped, content-addressed pickled entries.

    Layout::

        root/
          VERSION            # version stamp; mismatch wipes the store
          <stage>/<digest[:2]>/<digest>.pkl

    Every pipeline stage persists here.  ``stats`` are this handle's
    counters; a parallel batch run adds its workers' to them.
    """

    root: Path
    version: str = field(default_factory=default_cache_version)
    stats: Counters = field(default_factory=_disk_counters)
    #: True once the store gave up on disk and serves memory-only misses.
    degraded: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError:
            # Unwritable or vanished parent: run memory-only rather than
            # fail whoever wanted a warm start.
            self._degrade()
            return
        self._check_version()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def get(self, digest_key: str, stage: str) -> tuple[bool, Any]:
        """``(True, value)`` on a trusted hit, ``(False, None)`` otherwise.

        Anything unreadable — truncated pickle, foreign content, stale
        version — is evicted and counted, never raised.
        """
        if self.degraded:
            self.stats.misses += 1
            return False, None
        path = self._entry_path(stage, digest_key)
        try:
            fault_point("diskcache.read")
            blob = fault_point("diskcache.read.bytes", path.read_bytes())
            payload = pickle.loads(blob)
        except FileNotFoundError:
            self.stats.misses += 1
            return False, None
        except Exception:
            # IO error mid-read or torn/truncated pickle: the entry can no
            # longer be told apart from garbage — never trust, evict.
            self._evict(path)
            self.stats.misses += 1
            return False, None
        if (
            not isinstance(payload, tuple)
            or len(payload) != 3
            or payload[0] != _ENTRY_MAGIC
        ):
            self._evict(path)
            self.stats.misses += 1
            return False, None
        if payload[1] != self.version:
            # Readable but written under different semantics (another
            # process raced a version bump): stale, not corrupt.
            self._evict(path, stale=True)
            self.stats.misses += 1
            return False, None
        self.stats.hits += 1
        return True, payload[2]

    def put(self, digest_key: str, stage: str, value: Any) -> bool:
        """Persist ``value``; atomic, best-effort (failures are counted).

        A write refused by the filesystem itself (permission denied,
        read-only mount, disk full) degrades the store to memory-only:
        the condition is not per-entry, so retrying every future write
        would just pay the syscall tax for nothing.
        """
        if self.degraded:
            return False
        path = self._entry_path(stage, digest_key)
        try:
            blob = pickle.dumps(
                (_ENTRY_MAGIC, self.version, value), protocol=pickle.HIGHEST_PROTOCOL
            )
        except Exception:
            # Unpicklable product (exotic schema object, open handle...):
            # skip persisting it rather than failing the compilation.
            self.stats.write_errors += 1
            return False
        try:
            fault_point("diskcache.write")
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, suffix=_ENTRY_SUFFIX + ".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except Exception as error:
            self.stats.write_errors += 1
            if (
                isinstance(error, OSError)
                and error.errno in _DEGRADE_ERRNOS
            ):
                self._degrade()
            return False
        self.stats.writes += 1
        return True

    def clear(self) -> None:
        """Remove every entry (keeps the store and its version stamp)."""
        for stage_dir in self._stage_dirs():
            _remove_tree(stage_dir)

    def entry_count(self) -> int:
        """Number of entries on disk."""
        return sum(self.sizes().values())

    def sizes(self) -> dict[str, int]:
        """Entries per stage currently on disk."""
        return {
            stage_dir.name: sum(
                1 for path in stage_dir.rglob(f"*{_ENTRY_SUFFIX}") if path.is_file()
            )
            for stage_dir in self._stage_dirs()
        }

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _entry_path(self, stage: str, digest_key: str) -> Path:
        return self.root / stage / digest_key[:2] / f"{digest_key}{_ENTRY_SUFFIX}"

    def _stage_dirs(self) -> list[Path]:
        try:
            return [path for path in self.root.iterdir() if path.is_dir()]
        except OSError:
            return []

    def _check_version(self) -> None:
        version_file = self.root / _VERSION_FILE
        try:
            stamped = version_file.read_text(encoding="utf-8").strip()
        except OSError:
            stamped = None
        if stamped != self.version:
            # Unstamped, stale or foreign store: evict everything rather
            # than trust entries written under different semantics.
            if stamped is not None:
                self.stats.evictions += 1
                self.stats.stale_evictions += 1
            for stage_dir in self._stage_dirs():
                _remove_tree(stage_dir)
            try:
                version_file.write_text(self.version + "\n", encoding="utf-8")
            except OSError:
                # A store we cannot stamp is a store we can never trust
                # (the wipe above may not even have happened on a read-only
                # mount): go memory-only.
                self._degrade()

    def _evict(self, path: Path, *, stale: bool = False) -> None:
        self.stats.evictions += 1
        if stale:
            self.stats.stale_evictions += 1
        else:
            self.stats.corrupt_evictions += 1
        try:
            path.unlink()
        except OSError:
            pass

    def _degrade(self) -> None:
        if not self.degraded:
            self.degraded = True
            self.stats.disk_degraded += 1


def _remove_tree(root: Path) -> None:
    """Best-effort recursive removal (races with other processes are fine)."""
    try:
        for path in sorted(root.rglob("*"), reverse=True):
            try:
                if path.is_dir() and not path.is_symlink():
                    path.rmdir()
                else:
                    path.unlink()
            except OSError:
                pass
        root.rmdir()
    except OSError:
        pass
