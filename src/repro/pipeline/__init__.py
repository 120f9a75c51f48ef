"""Staged diagram-compilation pipeline with per-stage caches and fingerprints.

The pipeline compiles SQL text to rendered diagrams through explicit stages

    lex → parse → logic → simplify → fingerprint → diagram → layout → render

each backed by a content-addressed cache (:mod:`repro.pipeline.stages`).  The
canonical fingerprint (:mod:`repro.pipeline.fingerprint`) hashes the
simplified Logic Tree modulo aliases and predicate order, so semantically
equivalent query variants (Fig. 24) dedupe to one cached diagram.  Batch
compilation over corpora — with cache statistics and an equivalence-class
report — lives in :mod:`repro.pipeline.batch`; see ``docs/pipeline.md`` for
the stage graph and cache-key definitions.
"""

from .batch import DiagramBatchCompiler, EquivalenceClass
from .compiler import RENDERERS, CompiledDiagram, DiagramCompiler, compile_sql
from .diskcache import (
    PIPELINE_CACHE_VERSION,
    DiskCache,
    default_cache_version,
    stable_key_digest,
)
from .fingerprint import (
    canonical_form,
    fingerprint_and_roles,
    fingerprint_logic_tree,
    fingerprint_sql,
)
from .stages import STAGE_NAMES, PipelineStats, StageCache

__all__ = [
    "CompiledDiagram",
    "DiagramBatchCompiler",
    "DiagramCompiler",
    "DiskCache",
    "EquivalenceClass",
    "PIPELINE_CACHE_VERSION",
    "PipelineStats",
    "RENDERERS",
    "STAGE_NAMES",
    "StageCache",
    "canonical_form",
    "compile_sql",
    "default_cache_version",
    "fingerprint_and_roles",
    "fingerprint_logic_tree",
    "fingerprint_sql",
]
