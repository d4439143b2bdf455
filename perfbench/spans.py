"""Spans recorded around the calls a traced job makes into the package,
and the per-layer metrics derived from them.

A span is ``{id, name, start, end, parent, run, attrs}``: wall-clock
seconds since the epoch, the id of the enclosing span, and the id of the
job it belongs to.  Counts measured at a layer boundary (rows, bytes,
Ray ``Dataset.stats()`` figures) ride in ``attrs``.  Spans stay in memory
until the session ends; ``run.py`` writes them all to one file when the
benchmark run ends.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager


class Tracer:
    """Span recorder; a disabled tracer records nothing and hands out a
    scratch ``attrs`` dict, so job code is the same traced or not."""

    def __init__(self, enabled: bool, prefix: str = "") -> None:
        self.enabled = enabled
        self.prefix = prefix
        self.spans: list[dict] = []
        self.run: str | None = None
        self._stack: list[str] = []
        self._epoch = time.time() - time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield dict(attrs)
            return
        rec = {"id": f"{self.prefix}{len(self.spans)}", "name": name,
               "run": self.run,
               "parent": self._stack[-1] if self._stack else None,
               "start": self._epoch + time.perf_counter(), "end": None,
               "attrs": dict(attrs)}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = self._epoch + time.perf_counter()
            self._stack.pop()


#: every per-layer metric: name -> unit.  Each traced run reports all of
#: them; a layer the workload does not reach reports 0.
PER_LAYER = {
    "flagship.read_s": "s", "parse.parse_batch_s": "s",
    "enrich.enrich_s": "s", "flagship.route_write_s": "s",
    "flagship.dispatch_s": "s", "flagship.bytes_written": "bytes",
    "flagship.files_written": "count", "aggregate.partial_rows": "count",
    "packing.assign_s": "s", "loader.pack_s": "s", "loader.iter_s": "s",
    "loader.packs": "count", "loader.pad_frac": "ratio",
    "loader.task_cpu_s": "s", "loader.busy_frac": "ratio",
    "relational.exchange_rows": "count",
    "relational.exchange_bytes": "bytes",
    "relational.shuffle_wall_s": "s", "relational.bucket_skew": "ratio",
    "lineage.shard_s_p50": "s", "lineage.shard_s_max": "s",
    "lineage.commit_s": "s", "lineage.shards_first": "count",
    "lineage.shards_resumed": "count", "lineage.readback_s": "s",
    "lineage.output_bytes": "bytes",
    "partitioned.read_merged_first_s": "s",
    "partitioned.read_merged_last_s": "s",
    "partitioned.delta_files": "count",
    "partitioned.bytes_per_user_byte": "ratio",
    "trace.overhead_s": "s",
}


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def _per_run(spans: list[dict]) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for s in spans:
        runs.setdefault(s["run"], []).append(s)
    return runs


def _run_layers(ss: list[dict]) -> dict[str, float]:
    """Layer values of ONE traced job."""
    by: dict[str, list[dict]] = {}
    for s in ss:
        by.setdefault(s["name"], []).append(s)

    def total(name: str) -> float:
        return sum(_dur(s) for s in by.get(name, []))

    def attr(name: str, key: str) -> float:
        return sum(s["attrs"].get(key, 0) for s in by.get(name, []))

    out = {
        "flagship.read_s": total("flagship.read"),
        "parse.parse_batch_s": total("parse.parse_batch"),
        "enrich.enrich_s": total("enrich.enrich"),
        "flagship.route_write_s": total("flagship.route_write"),
        "flagship.bytes_written": attr("flagship.run_flagship", "bytes"),
        "flagship.files_written": attr("flagship.run_flagship", "files"),
        "aggregate.partial_rows": attr("flagship.route_write",
                                       "partial_rows"),
        "packing.assign_s": total("packing.pack_assignments"),
        "loader.pack_s": total("loader.pack_token_rows"),
        "loader.iter_s": total("loader.iter_token_batches"),
        "lineage.readback_s": total("lineage.committed_output"),
    }
    for k in ("packs", "pad_frac", "task_cpu_s"):
        out[f"loader.{k}"] = attr("loader.pack_token_rows", k)
    pack_wall = out["loader.pack_s"]
    out["loader.busy_frac"] = (out["loader.task_cpu_s"] / pack_wall
                               if pack_wall else 0.0)
    for k in ("exchange_rows", "exchange_bytes", "shuffle_wall_s",
              "bucket_skew"):
        out[f"relational.{k}"] = attr("loader.pack_token_rows", k)
    runs = by.get("lineage.run", [])
    shard_walls = [w for s in runs for w in s["attrs"].get("shard_s", [])]
    out["lineage.shard_s_p50"] = _median(shard_walls)
    out["lineage.shard_s_max"] = max(shard_walls, default=0.0)
    out["lineage.commit_s"] = (sum(_dur(s) for s in runs) - sum(shard_walls)
                               if runs else 0.0)
    out["lineage.shards_first"] = sum(
        len(s["attrs"].get("shard_s", [])) for s in runs
        if s["attrs"].get("phase") == "first")
    out["lineage.shards_resumed"] = sum(
        len(s["attrs"].get("shard_s", [])) for s in runs
        if s["attrs"].get("phase") == "resume")
    out["lineage.output_bytes"] = attr("lineage.committed_output", "bytes")
    reads = sorted(by.get("partitioned.read_merged", []),
                   key=lambda s: s["start"])
    out["partitioned.read_merged_first_s"] = _dur(reads[0]) if reads else 0.0
    out["partitioned.read_merged_last_s"] = _dur(reads[-1]) if reads else 0.0
    out["partitioned.delta_files"] = attr("partitioned.compact_deltas",
                                          "delta_files")
    out["partitioned.bytes_per_user_byte"] = attr(
        "partitioned.compact_deltas", "bytes_per_user_byte")
    return out


def per_layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of a traced benchmark run: the median over traced
    jobs of each layer value, plus the two figures that compare traced
    with untraced jobs of the same run (every job has a root ``job``
    span whose attrs carry ``traced`` and ``wall_s``)."""
    runs = _per_run(spans)
    jobs = [s for s in spans if s["name"] == "job" and s["attrs"].get("ok")]
    traced = [j["attrs"]["wall_s"] for j in jobs if j["attrs"]["traced"]]
    untraced = [j["attrs"]["wall_s"] for j in jobs
                if not j["attrs"]["traced"]]
    per_job = [_run_layers(runs[j["run"]]) for j in jobs
               if j["attrs"]["traced"]]
    out = {name: _median([v[name] for v in per_job])
           for name in PER_LAYER if per_job and name in per_job[0]}
    stages = [v["flagship.read_s"] + v["parse.parse_batch_s"]
              + v["enrich.enrich_s"] + v["flagship.route_write_s"]
              for v in per_job]
    out["flagship.dispatch_s"] = (_median(untraced) - _median(stages)
                                  if any(stages) else 0.0)
    out["trace.overhead_s"] = (_median(traced) - _median(untraced)
                               if traced and untraced else 0.0)
    return {name: float(out.get(name, 0.0)) for name in PER_LAYER}
