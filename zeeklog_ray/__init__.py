"""zeeklog_ray — a Ray-Data-native log/telemetry processing engine.

A from-scratch rebuild of the query and data-processing capabilities of the
Rust Zeek log-analysis library ``endepointe/log-analysis`` (see SURVEY.md),
expressed as an idiomatic Ray Data pipeline: parse → enrich → route →
aggregate over zero-copy Arrow batches, with map-stage enrichment, salted
two-phase aggregation, fan-out Parquet sinks and per-partition lineage
manifests for checkpoint/resume.

Input data model (BASELINE.json input_hint)::

    doc_id : string      # unique row id
    tokens : list<int32> # UTF-8 byte codes of one Zeek-style TSV record line
    n_tok  : int32       # len(tokens)
    source : string      # route key: conn | dns | http | weird | <unknown>

The ``tokens`` column is an opaque payload that must round-trip exactly
(per-row invariant: token-array equality per ``doc_id``).
"""

from zeeklog_ray.raypatch import apply_patches as _apply_ray_patches

_apply_ray_patches()

from zeeklog_ray.pipeline import PipelineConfig, build_dataset  # noqa: E402,F401

__all__ = ["PipelineConfig", "build_dataset"]
__version__ = "0.1.0"
