"""Tests for the persistent on-disk stage cache (pipeline/diskcache.py).

Covers the three trust-boundary behaviors the cache guarantees:

* cross-process warm start (a fresh compiler — and a genuinely fresh
  interpreter — serves a previous run's products from disk);
* version-bump invalidation (a store stamped with a different version is
  wiped, never trusted);
* corrupted-entry eviction (a truncated or garbage entry file is a clean
  miss plus an eviction, not a crash).
"""

from __future__ import annotations

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.pipeline import (
    DiagramBatchCompiler,
    DiagramCompiler,
    DiskCache,
    stable_key_digest,
)

QUERY = (
    "SELECT S.sname FROM Sailors S WHERE S.rating > 7 AND NOT EXISTS "
    "(SELECT R.bid FROM Reserves R WHERE R.sid = S.sid)"
)
VARIANT = (
    "SELECT X.sname FROM Sailors X WHERE X.rating > 7 AND NOT EXISTS "
    "(SELECT Y.bid FROM Reserves Y WHERE Y.sid = X.sid)"
)

class TestDiskCacheStore:
    def test_put_get_roundtrip(self, tmp_path):
        cache = DiskCache(tmp_path)
        digest = stable_key_digest("ns", "lex", "SELECT x FROM T")
        assert cache.get(digest, "lex") == (False, None)
        assert cache.put(digest, "lex", {"value": 42})
        assert cache.get(digest, "lex") == (True, {"value": 42})
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.writes == 1

    def test_stable_key_digest_distinguishes_structures(self):
        assert stable_key_digest("n", "s", ("a", "b")) != stable_key_digest(
            "n", "s", ("ab",)
        )
        assert stable_key_digest("n", "s", "x") != stable_key_digest("n2", "s", "x")
        assert stable_key_digest("n", "s", "x") != stable_key_digest("n", "s2", "x")
        assert stable_key_digest("n", "s", 1) != stable_key_digest("n", "s", "1")
        assert stable_key_digest("n", "s", True) != stable_key_digest("n", "s", 1)

    def test_stable_key_digest_boundaries_cannot_be_forged(self):
        # Values are length-prefixed: text containing the encoder's own
        # markers must not collapse element boundaries (keys embed
        # user-controlled SQL literals).
        assert stable_key_digest("n", "s", ("a", "b")) != stable_key_digest(
            "n", "s", ("a;s:b",)
        )
        assert stable_key_digest("n", "s", ("x", ("y",))) != stable_key_digest(
            "n", "s", (("x", "y"),)
        )
        assert stable_key_digest("ab", "c", "k") != stable_key_digest("a", "bc", "k")

    def test_version_bump_wipes_the_store(self, tmp_path):
        cache = DiskCache(tmp_path, version="v1")
        digest = stable_key_digest("ns", "lex", "text")
        cache.put(digest, "lex", "payload")
        assert cache.entry_count() == 1

        bumped = DiskCache(tmp_path, version="v2")
        assert bumped.entry_count() == 0
        assert bumped.get(digest, "lex") == (False, None)
        # Reopening with the old version must not resurrect anything either:
        # the store is stamped v2 now, so v1 wipes it again.
        reopened = DiskCache(tmp_path, version="v1")
        assert reopened.entry_count() == 0

    def test_entry_with_wrong_version_stamp_is_evicted(self, tmp_path):
        cache = DiskCache(tmp_path, version="v1")
        digest = stable_key_digest("ns", "lex", "text")
        cache.put(digest, "lex", "payload")
        # Forge the entry in place with a stale embedded version.
        entry = tmp_path / "lex" / digest[:2] / f"{digest}.pkl"
        entry.write_bytes(pickle.dumps(("repro-diskcache", "v0", "stale")))
        assert cache.get(digest, "lex") == (False, None)
        assert cache.stats.evictions == 1
        assert not entry.exists()

    def test_truncated_entry_is_a_clean_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        digest = stable_key_digest("ns", "render", "key")
        cache.put(digest, "render", "<svg>...</svg>")
        entry = tmp_path / "render" / digest[:2] / f"{digest}.pkl"
        blob = entry.read_bytes()
        entry.write_bytes(blob[: len(blob) // 2])  # truncate mid-pickle
        found, value = cache.get(digest, "render")
        assert (found, value) == (False, None)
        assert cache.stats.evictions == 1
        assert not entry.exists()
        # A recompute stores a fresh, readable entry again.
        cache.put(digest, "render", "<svg>...</svg>")
        assert cache.get(digest, "render") == (True, "<svg>...</svg>")

    def test_garbage_entry_is_a_clean_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        digest = stable_key_digest("ns", "parse", "key")
        path = tmp_path / "parse" / digest[:2] / f"{digest}.pkl"
        path.parent.mkdir(parents=True)
        path.write_bytes(b"\x00\x01 not a pickle at all")
        assert cache.get(digest, "parse") == (False, None)
        assert not path.exists()

    def test_foreign_pickle_is_rejected(self, tmp_path):
        cache = DiskCache(tmp_path)
        digest = stable_key_digest("ns", "logic", "key")
        path = tmp_path / "logic" / digest[:2] / f"{digest}.pkl"
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"not": "our entry format"}))
        assert cache.get(digest, "logic") == (False, None)
        assert cache.stats.evictions == 1

    def test_unpicklable_value_is_skipped_not_raised(self, tmp_path):
        cache = DiskCache(tmp_path)
        digest = stable_key_digest("ns", "lex", "key")
        assert not cache.put(digest, "lex", lambda: None)
        assert cache.stats.write_errors == 1
        assert cache.get(digest, "lex") == (False, None)


class TestCompilerWarmStart:
    def test_fresh_compiler_warm_starts_from_disk(self, tmp_path):
        first = DiagramCompiler(disk_cache=tmp_path)
        artifact = first.compile(QUERY, formats=("svg", "text"))
        assert first.disk_cache.stats.writes > 0

        second = DiagramCompiler(disk_cache=tmp_path)
        warmed = second.compile(QUERY, formats=("svg", "text"))
        stats = second.stats()
        assert stats.counter("artifact").disk_hits == 1
        assert warmed.fingerprint == artifact.fingerprint
        assert warmed.outputs == artifact.outputs

    def test_warm_start_in_a_separate_process(self, tmp_path):
        first = DiagramCompiler(disk_cache=tmp_path)
        artifact = first.compile(QUERY, formats=("svg",))
        script = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from repro.pipeline import DiagramCompiler\n"
            "compiler = DiagramCompiler(disk_cache=sys.argv[2])\n"
            "artifact = compiler.compile(sys.argv[3], formats=('svg',))\n"
            "assert compiler.stats().counter('artifact').disk_hits == 1, (\n"
            "    compiler.stats().as_dict())\n"
            "print(artifact.fingerprint)\n"
            "sys.stdout.write(artifact.output('svg'))\n"
        )
        src_dir = str(Path(__file__).resolve().parent.parent / "src")
        completed = subprocess.run(
            [sys.executable, "-c", script, src_dir, str(tmp_path), QUERY],
            capture_output=True,
            text=True,
            check=True,
        )
        fingerprint, svg = completed.stdout.split("\n", 1)
        assert fingerprint == artifact.fingerprint
        assert svg == artifact.output("svg")

    def test_namespace_isolates_configurations(self, tmp_path):
        plain = DiagramCompiler(disk_cache=tmp_path)
        plain.compile(QUERY, formats=("text",))
        # A compiler with simplify disabled must not be served the
        # simplified compiler's artifacts (different namespace digest).
        literal = DiagramCompiler(disk_cache=tmp_path, simplify=False)
        artifact = literal.compile(QUERY, formats=("text",))
        assert literal.stats().counter("artifact").disk_hits == 0
        # NOT EXISTS survives un-simplified: the ∀ rewrite did not run.
        assert artifact.simplified_tree == artifact.logic_tree

    def test_disabled_cache_never_touches_disk(self, tmp_path):
        cold = DiagramCompiler(cache=False, disk_cache=tmp_path)
        cold.compile(QUERY, formats=("text",))
        assert cold.disk_cache.stats.writes == 0
        assert cold.disk_cache.stats.hits == 0
        assert cold.disk_cache.entry_count() == 0

    def test_equivalent_variant_hits_persisted_diagram_classes(self, tmp_path):
        # Same aliases, predicates spelled in swapped order: a different
        # text (and tree), but the same (fingerprint, roles) — so the whole
        # back half (diagram/layout/render) comes from the persisted store.
        reordered = (
            "SELECT S.sname FROM Sailors S WHERE NOT EXISTS "
            "(SELECT R.bid FROM Reserves R WHERE R.sid = S.sid) "
            "AND S.rating > 7"
        )
        first = DiagramBatchCompiler(disk_cache=tmp_path)
        original = first.compile(QUERY, formats=("svg",))
        second = DiagramBatchCompiler(disk_cache=tmp_path)
        artifact = second.compile(reordered, formats=("svg",))
        stats = second.stats()
        assert stats.counter("diagram").disk_hits == 1
        assert stats.counter("render").disk_hits == 1
        assert artifact.fingerprint == original.fingerprint
        assert artifact.output("svg") == original.output("svg")


@pytest.mark.parametrize("workers", [2, 3])
class TestParallelDeterminism:
    def test_parallel_matches_serial(self, tmp_path, workers):
        from repro.paper_queries import FIG24_VARIANTS

        corpus = [QUERY, VARIANT, QUERY] * 6 + list(FIG24_VARIANTS)
        serial = DiagramBatchCompiler()
        serial_artifacts = serial.run(corpus, formats=("svg", "text"))
        parallel = DiagramBatchCompiler()
        parallel_artifacts = parallel.run(
            corpus, formats=("svg", "text"), workers=workers
        )
        assert [a.fingerprint for a in serial_artifacts] == [
            a.fingerprint for a in parallel_artifacts
        ]
        for ours, theirs in zip(serial_artifacts, parallel_artifacts):
            assert ours.outputs == theirs.outputs
        assert serial.equivalence_classes() == parallel.equivalence_classes()
        assert parallel.stats().queries == len(corpus)

    def test_workers_respect_custom_store_version_and_cold_mode(
        self, tmp_path, workers
    ):
        # A custom-version store survives a parallel run (workers reopen it
        # with the caller's stamp, not the default) ...
        store = DiskCache(tmp_path, version="pinned-v1")
        batch = DiagramBatchCompiler(disk_cache=store)
        batch.run([QUERY, VARIANT] * 4, formats=("text",), workers=workers)
        assert DiskCache(tmp_path, version="pinned-v1").entry_count() > 0
        # ... and cache=False stays cold inside workers too.
        cold = DiagramBatchCompiler(cache=False)
        cold.run([QUERY] * 6, formats=("text",), workers=workers)
        assert cold.stats().total_hits == 0
