"""Fused flagship stage: parse → enrich → routed write → partial stats in
ONE ``map_batches`` task pass.

Routing as composed stages (``build_dataset`` → ``write_parquet`` partitioned
on ``sink`` → ``grouped_stats``) would move the full decoded table through
the object store at every stage boundary and run two executions (write,
then aggregate).  On a single node that inter-stage traffic — not CPU — caps
scaling.  This fused stage is the classic "map task writes its partition of
a partitioned table" design: each batch is parsed, enriched, appended to the
task's per-sink Parquet files, and reduced to a tiny per-sink stats row;
only the partial stats rows (a few hundred bytes per batch) leave the stage.
The final merge is a tiny ``groupby``.

The streaming executor still pipelines read → fused stage with backpressure;
at cluster scale the same stage shape holds (writers stream to the shared
filesystem / object storage from every node, nothing is collected centrally).

Output layout is one hive partition per sink
(``out_dir/sink=<s>/part-*.parquet``), and each sink directory carries its
OWN schema: payload + enrichment columns plus that protocol's registry
fields only — exactly like the reference's per-protocol sinks, and like
real Zeek logs, where conn.log and dns.log have different columns.  The
registry columns of OTHER protocols are definitionally all-null for a sink,
so writing the 90-column union would cost ~45% of the routed write in
null-column metadata (measured) and the same again on every downstream
scan.  Cross-sink reads still work: pyarrow/Ray unify the per-directory
schemas and null-fill absent columns — semantically identical to the
padded union.

The routed write partitions each fragment ONCE: one stable sort on
``sink`` and one ``take`` make each sink's rows a contiguous run in their
original order, each run is written as a zero-copy ``slice`` with its
sink's columns kept by ``select`` (a one-sink fragment, e.g. every Zeek-TSV
fragment, skips the sort and the copy).  Do not bring back per-sink
``filter`` + ``drop_columns``: on one 7,981-row, 102-column, 29-sink
fragment under pyarrow 16 the 29 ``filter`` passes took 21 ms and the 29
``drop_columns`` calls 20 ms (it rebuilds the table once per dropped
name, ~77 per sink), against 17 ms for sort + take + slices + select and
52 ms for the 29 Parquet writes (lowest of three best-of-20 runs on one
core of a 4-vCPU VM).
"""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data

from zeeklog_ray.aggregate import HIST_COLUMNS, _partial_stats
from zeeklog_ray.enrich import Enricher
from zeeklog_ray.parse import parse_batch
from zeeklog_ray.pipeline import PipelineConfig, _ip_predicate


# Columns worth parquet min/max stats in routed output (predicate-pushdown
# candidates); stats on the other ~80 wide-registry columns are overhead.
_STATS_COLUMNS = ["ts", "uid", "doc_id", "n_tok",
                  "id_orig_h", "id_orig_p", "id_resp_h", "id_resp_p"]


class FusedRouteWriter:
    """Parse+enrich a batch, write it to per-sink Parquet, return the
    batch's partial sink stats.  Enrichment dicts load once per writer."""

    def __init__(self, out_dir: str, src_ip: str | None = None,
                 enrich: bool = True, source: str | None = None,
                 compression: str | None = None) -> None:
        from zeeklog_ray.sources import (
            EXTRACTED_COLUMNS,
            SOURCE_FIELDS,
            normalize_source,
        )

        self.out_dir = out_dir
        # None → Arrow default (snappy); 'zstd' ~halves routed bytes on
        # token payloads at modest encode cost, and readers need no flag
        # (the codec is per-file metadata)
        self.compression = compression
        self.enricher = Enricher() if enrich else None
        self.ip_pred = _ip_predicate(src_ip) if src_ip else None
        self.source = normalize_source(source) if source else None
        self.combine = _partial_stats("sink", "n_tok")
        # per-sink drop set: 'sink' plus the registry columns belonging to
        # OTHER protocols (all-null for this sink by construction — see
        # module docstring)
        self.drop_for_sink = {
            s: frozenset(["sink", *(c for c in EXTRACTED_COLUMNS
                                    if c not in set(fields))])
            for s, fields in SOURCE_FIELDS.items()
        }
        self.drop_for_sink["none"] = frozenset(["sink", *EXTRACTED_COLUMNS])

    def __call__(self, batch: pa.Table, name_hint: str | None = None,
                 pre_parsed: bool = False) -> pa.Table:
        # pre_parsed: the fragment loader already produced the parsed
        # schema (e.g. the Zeek-TSV path, where header-driven extraction
        # happens during decompress) — skip the token parse
        t = batch if pre_parsed else parse_batch(batch)
        if self.source is not None:  # plan bit 2: source/proto filter
            t = t.filter(pc.equal(t["sink"], self.source))
        if self.ip_pred is not None:
            t = self.ip_pred(t)
        if self.enricher is not None:
            t = self.enricher(t)
        if len(t):
            # name_hint (fragment-derived) makes output paths DETERMINISTIC:
            # a retried task overwrites its failed attempt's files instead of
            # duplicating rows.  It is REQUIRED — a uuid/sequence fallback
            # would silently duplicate rows on Ray task retry.
            if name_hint is None:
                raise ValueError(
                    "FusedRouteWriter needs a deterministic name_hint (derive "
                    "it from the input fragment path, as FileRouteWorker does)"
                )
            # partition once (module docstring): the stable sort keeps each
            # sink's rows in input order; a one-sink fragment skips it
            runs = pc.value_counts(t["sink"])
            by_sink = t
            if len(runs) > 1:
                by_sink = t.take(pc.sort_indices(
                    t, sort_keys=[("sink", "ascending")]))
                # first appearance in a sorted column is run order
                runs = pc.value_counts(by_sink["sink"])
            start = 0
            for sink, n in zip(runs.field("values").to_pylist(),
                               runs.field("counts").to_pylist()):
                drop = self.drop_for_sink.get(sink, frozenset(["sink"]))
                sub = by_sink.slice(start, n).select(
                    [c for c in t.column_names if c not in drop])
                start += n
                d = os.path.join(self.out_dir, f"sink={sink}")
                os.makedirs(d, exist_ok=True)
                # dictionary encoding costs ~25% of the routed write on the
                # wide (28-source) schema and buys little on these short
                # string columns; keep min/max stats only for the columns a
                # downstream filter would actually push down on
                wargs = ({"compression": self.compression}
                         if self.compression else {})
                pq.write_table(sub, os.path.join(d, f"part-{name_hint}.parquet"),
                               use_dictionary=False,
                               write_statistics=_STATS_COLUMNS, **wargs)
        # parse_batch always appends 'sink', so this is valid for empty t too
        return self.combine(t.select(["sink", "n_tok"]))


class FileRouteWorker(FusedRouteWriter):
    """Consume INPUT FRAGMENT PATHS; for each file do
    read → parse → enrich → routed write → partial stats, entirely inside
    one map task (:func:`_file_route_task` builds one worker per fragment).

    Why file-granular: the tokens column decode costs about as much CPU as
    parse+enrich+write combined, so any static split of CPUs between a read
    stage and a process stage leaves one side starved (measured: 3 of 8
    cores busy).  Feeding paths makes every task do read+process
    end-to-end — no large block ever crosses the object store, CPUs stay
    balanced at any cluster size, and retries/lineage stay file-granular.
    This is the map-partition pattern for partitioned-table ETL; Ray Data
    still provides scheduling and backpressure.
    """

    #: subclass hook: fragment path → (table, is_pre_parsed)
    def _load(self, path: str) -> tuple[pa.Table, bool]:
        return pq.read_table(path, use_threads=False), False

    def __call__(self, batch: pa.Table) -> pa.Table:  # batch: path rows
        outs = []
        for path in batch["path"].to_pylist():
            t, pre_parsed = self._load(path)
            # deterministic per-fragment output name: <date-dir>-<file-stem>
            hint = (os.path.basename(os.path.dirname(path)) + "-"
                    + os.path.splitext(os.path.basename(path))[0])
            outs.append(FusedRouteWriter.__call__(self, t, name_hint=hint,
                                                  pre_parsed=pre_parsed))
        return pa.concat_tables(outs)


class ZeekTsvRouteWorker(FileRouteWorker):
    """The native-input twin of :class:`FileRouteWorker`: fragments are raw
    Zeek ``.log.gz`` files — decompress + header sniff + header-driven
    extraction (``zeektsv.parse_zeek_gz``) replaces the parquet read +
    token parse; the same filters, enrichment, routed write and partial
    stats apply unchanged.  This is what makes raw-log-tree ingestion
    RESUMABLE: lineage shards over .log.gz file lists run through this
    worker exactly like corpus shards run through FileRouteWorker."""

    def __init__(self, *args, on_error: str = "raise", **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if on_error not in ("raise", "skip"):
            raise ValueError(on_error)
        self.on_error = on_error

    def _load(self, path: str) -> tuple[pa.Table, bool]:
        from zeeklog_ray.zeektsv import _empty_table, parse_zeek_gz

        try:
            return parse_zeek_gz(path), True
        except Exception:
            if self.on_error == "raise":
                raise
            import logging

            logging.getLogger(__name__).warning(
                "skipping unreadable zeek log %s", path, exc_info=True)
            return _empty_table(), True


def _file_route_task(batch: pa.Table, *, out_dir: str, src_ip: str | None,
                     enrich: bool, source: str | None = None,
                     compression: str | None = None,
                     input_format: str = "parquet",
                     on_error: str = "raise") -> pa.Table:
    # one worker per fragment task: building it (Enricher included) costs
    # about a millisecond against a fragment's ~0.2 s of work
    kw = dict(out_dir=out_dir, src_ip=src_ip, enrich=enrich, source=source,
              compression=compression)
    w = (ZeekTsvRouteWorker(on_error=on_error, **kw)
         if input_format == "zeek-tsv" else FileRouteWorker(**kw))
    return w(batch)


def run_flagship(cfg: PipelineConfig, out_dir: str,
                 compression: str | None = None):
    """One-pass flagship: returns the per-sink stats DataFrame after writing
    the routed Parquet output under ``out_dir``.

    Input fragments are dispatched as paths (see :class:`FileRouteWorker`);
    the only shuffle is the tiny partial-stats merge.  ``out_dir`` is
    REPLACED (removed first) so repeated runs never accumulate stale
    part-files next to fresh ones."""
    import shutil

    from zeeklog_ray.pipeline import _date_dirs

    cfg.validate()
    shutil.rmtree(out_dir, ignore_errors=True)
    return run_files(cfg, _date_dirs(cfg), out_dir, compression)


def run_files(cfg: PipelineConfig, files: list[str], out_dir: str,
              compression: str | None = None,
              input_format: str = "parquet", on_error: str = "raise"):
    """Fused flagship over an explicit fragment list (the unit the lineage
    shards use).  ``input_format='zeek-tsv'`` runs the same fused stage
    over raw ``.log.gz`` fragments (ZeekTsvRouteWorker)."""
    import functools

    import ray

    # one block per fragment path → one map task per fragment (full width;
    # without this from_items packs paths into few blocks and parallelism
    # collapses to the block count)
    paths = ray.data.from_items([{"path": f} for f in files],
                                override_num_blocks=len(files))
    # task dispatch on prestarted workers
    partial = paths.map_batches(
        functools.partial(_file_route_task, out_dir=out_dir,
                          src_ip=cfg.src_ip, enrich=cfg.enrich,
                          source=cfg.source, compression=compression,
                          input_format=input_format, on_error=on_error),
        batch_format="pyarrow", batch_size=1)
    # Final merge on the DRIVER: the combiner emits ≤|sinks| rows per
    # fragment, so the collected partials are tiny (|fragments| × |sinks|).
    # Keeping the merge out of the streaming plan matters: a groupby in the
    # same plan makes the executor reserve CPU budget for the shuffle
    # operators and halves the map stage's parallelism (measured 3 of 8
    # cores busy with the in-plan groupby vs 8 of 8 map-only).
    pdf = partial.to_pandas()
    stat_cols = ["n", "sum_n_tok", "min_n_tok", "max_n_tok"] + HIST_COLUMNS
    if pdf.empty:  # e.g. a filter matched nothing — keep the schema
        return pd.DataFrame(columns=["sink"] + stat_cols)
    g = pdf.groupby("sink")
    out = g.agg(n=("n", "sum"), sum_n_tok=("sum_n_tok", "sum"),
                min_n_tok=("min_n_tok", "min"), max_n_tok=("max_n_tok", "max"),
                **{c: (c, "sum") for c in HIST_COLUMNS})
    return out.reset_index()
