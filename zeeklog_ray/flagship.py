"""Fused flagship stage: parse → enrich → routed write → partial stats in
ONE ``map_batches`` task pass.

Routing as composed stages (``build_dataset`` → ``write_parquet`` partitioned
on ``sink`` → ``grouped_stats``) would move the full decoded table through
the object store at every stage boundary and run two executions (write,
then aggregate).  On a single node that inter-stage traffic — not CPU — caps
scaling.  This fused stage is the classic "map task writes its partition of
a partitioned table" design: each route task takes a contiguous run of
input fragments, parses, enriches and appends them to ONE Parquet file per
sink, and reduces them to a tiny per-sink stats table; only those partial
stats rows (a few hundred bytes per task) leave the stage.  The final
merge is a tiny ``groupby``.

Route tasks are sized by input bytes (:func:`_route_groups`): one greedy
pass makes ``k`` tasks, ``k`` the smallest multiple of the cluster's CPU
count that keeps ``total / k`` bytes within ``relational.CALL_BYTES``,
closing each near the bytes left over the tasks left; no task of several
fragments goes over ``CALL_BYTES``, so a fragment larger than that is a
task of its own.
A task still holds ONE fragment at a time: it loads, parses, filters
and enriches a fragment, appends each sink's rows as one row group to
that sink's open ``pq.ParquetWriter``, and drops the fragment before
loading the next.  One file per sink per task matters
because about half of a small Parquet write is fixed per-file cost: the
perfbench ``route`` corpus (48k rows in 8 fragments) went from 232 files
of ~54 KB, one per (fragment, sink), to 29.

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
scan.  Read the tree back with :func:`read_routed`: it unifies the
per-directory schemas once on the driver and null-fills absent columns
in its tasks — semantically identical to the padded union, with one
schema for every block.  (``ray.data.read_parquet`` over the tree gives
the same rows but one schema per sink, and Ray logs "different schema"
at every change.)

The routed write partitions each fragment ONCE: one stable sort on
``sink`` and one ``take`` make each sink's rows a contiguous run in their
original order, each run is appended as a zero-copy ``slice`` with its
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

import contextlib
import functools
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data

from zeeklog_ray.aggregate import HIST_COLUMNS, STAT_COLUMNS, _partial_stats
from zeeklog_ray.enrich import Enricher
from zeeklog_ray.parse import parse_batch
from zeeklog_ray.pipeline import PipelineConfig, _ip_predicate
from zeeklog_ray.relational import CALL_BYTES, cluster_cpus


# Columns worth parquet min/max stats in routed output (predicate-pushdown
# candidates); stats on the other ~80 wide-registry columns are overhead.
_STATS_COLUMNS = ["ts", "uid", "doc_id", "n_tok",
                  "id_orig_h", "id_orig_p", "id_resp_h", "id_resp_p"]


class _SinkFiles:
    """The routed output of one write: one ``pq.ParquetWriter`` per sink
    at ``out_dir/sink=<s>/part-<name>.parquet``, opened on the sink's
    first rows; each :meth:`write` appends one row group.  As a context
    manager it closes every file on success; on an exception it closes
    and deletes every file it opened, so no partial file stays readable
    (a retried task rewrites the same names)."""

    def __init__(self, out_dir: str, name: str,
                 compression: str | None) -> None:
        self.out_dir = out_dir
        self.name = name
        # None → Arrow default (snappy)
        self.wargs = {"compression": compression} if compression else {}
        self.writers: dict[str, tuple[str, pq.ParquetWriter]] = {}

    def write(self, sink: str, t: pa.Table) -> None:
        if sink not in self.writers:
            d = os.path.join(self.out_dir, f"sink={sink}")
            os.makedirs(d, exist_ok=True)
            path = os.path.join(d, f"part-{self.name}.parquet")
            # dictionary encoding costs ~25% of the routed write on the
            # wide (28-source) schema and buys little on these short
            # string columns; keep min/max stats only for the columns a
            # downstream filter would actually push down on
            self.writers[sink] = (path, pq.ParquetWriter(
                path, t.schema, use_dictionary=False,
                write_statistics=_STATS_COLUMNS, **self.wargs))
        self.writers[sink][1].write_table(t)

    def __enter__(self) -> "_SinkFiles":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for path, w in self.writers.values():
            if exc_type is None:
                w.close()
            else:  # the original error wins over a failing close
                with contextlib.suppress(Exception):
                    w.close()
                with contextlib.suppress(OSError):
                    os.remove(path)


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
        # 'zstd' ~halves routed bytes on token payloads at modest encode
        # cost, and readers need no flag (the codec is per-file metadata)
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

    def _prepare(self, batch: pa.Table, pre_parsed: bool) -> pa.Table:
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
        return t

    def _route(self, t: pa.Table, files: _SinkFiles) -> pa.Table:
        """Append each sink's rows of ``t`` to ``files`` as one row group;
        return the ``(sink, n_tok)`` columns the partial stats need."""
        if len(t):
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
                files.write(sink, by_sink.slice(start, n).select(
                    [c for c in t.column_names if c not in drop]))
                start += n
        # parse_batch always appends 'sink', so this is valid for empty t too
        return t.select(["sink", "n_tok"])

    def __call__(self, batch: pa.Table, name_hint: str | None = None,
                 pre_parsed: bool = False) -> pa.Table:
        t = self._prepare(batch, pre_parsed)
        # name_hint (fragment-derived) makes output paths DETERMINISTIC:
        # a retried task overwrites its failed attempt's files instead of
        # duplicating rows.  It is REQUIRED — a uuid/sequence fallback
        # would silently duplicate rows on Ray task retry.
        if len(t) and name_hint is None:
            raise ValueError(
                "FusedRouteWriter needs a deterministic name_hint (derive "
                "it from the input fragment path, as FileRouteWorker does)"
            )
        with _SinkFiles(self.out_dir, name_hint, self.compression) as files:
            return self.combine(self._route(t, files))


def _fragment_hint(path: str) -> str:
    """Deterministic per-fragment output name: ``<date-dir>-<file-stem>``."""
    return (os.path.basename(os.path.dirname(path)) + "-"
            + os.path.splitext(os.path.basename(path))[0])


class FileRouteWorker(FusedRouteWriter):
    """Consume a route task's INPUT FRAGMENT PATHS and do
    read → parse → enrich → routed write → partial stats for each, entirely
    inside one map task (:func:`_file_route_task` builds one worker per
    task).  The task writes ONE file per sink, ``part-<first fragment's
    name>.parquet``: each fragment is loaded and routed on its own and
    appended as one row group per sink, so the task holds one fragment at
    a time, and its file names depend on its inputs only (a retried task
    overwrites its own files).  It returns one partial-stats table.

    Why file-granular: the tokens column decode costs about as much CPU as
    parse+enrich+write combined, so any static split of CPUs between a read
    stage and a process stage leaves one side starved (measured: 3 of 8
    cores busy).  Feeding paths makes every task do read+process
    end-to-end — no large block ever crosses the object store, CPUs stay
    balanced at any cluster size, a retry reruns one task, and lineage
    stays file-granular.
    This is the map-partition pattern for partitioned-table ETL; Ray Data
    still provides scheduling and backpressure.
    """

    #: subclass hook: fragment path → (table, is_pre_parsed)
    def _load(self, path: str) -> tuple[pa.Table, bool]:
        return pq.read_table(path, use_threads=False), False

    def __call__(self, batch: pa.Table) -> pa.Table:  # batch: path rows
        paths = batch["path"].to_pylist()
        with _SinkFiles(self.out_dir, _fragment_hint(paths[0]),
                        self.compression) as files:
            # one fragment alive at a time: only its (sink, n_tok)
            # columns outlive the loop iteration
            keys = [self._route(self._prepare(*self._load(p)), files)
                    for p in paths]
        return self.combine(pa.concat_tables(keys))


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
    # one worker per route task: building it (Enricher included) costs
    # about a millisecond against a fragment's ~0.2 s of work, and the
    # task's batch is all its fragment paths (_route_groups)
    kw = dict(out_dir=out_dir, src_ip=src_ip, enrich=enrich, source=source,
              compression=compression)
    w = (ZeekTsvRouteWorker(on_error=on_error, **kw)
         if input_format == "zeek-tsv" else FileRouteWorker(**kw))
    return w(batch)


def _route_groups(sizes: list[int], cpus: int,
                  call_bytes: int) -> list[tuple[int, int]]:
    """Cut fragments (their byte sizes, in input order) into contiguous
    route tasks, returned as ``(start, stop)`` index ranges.

    One greedy pass for ``k`` tasks, ``k`` the smallest multiple of
    ``cpus`` that keeps ``total / k`` bytes within ``call_bytes``, capped
    at one task per fragment.  A task closes at the fragment boundary
    nearest its budget, the bytes left over the tasks left (re-derived
    at every close, so a size change along the list does not leave a
    one-fragment last task: 8 fragments of 1.50 MB then 24 of 1.36 MB
    make 4 tasks at 4 CPUs, not 5).  Nearest, not the last boundary
    under it: on the 32 fragments of the sf0.1 corpus that made 9 tasks
    on 8 CPUs, not 8.  A fragment that would take its task over
    ``call_bytes`` opens a new one, so a fragment larger than
    ``call_bytes`` is always a task of its own (at design scale, where
    fragments are ~100 MB, every fragment is).  Equal fragments make
    ``k`` tasks, a full last wave, when ``k`` divides their number;
    otherwise, or after a close forced by ``call_bytes``, the count can
    be off from ``k``."""
    if not sizes:
        return []
    n, left = len(sizes), sum(sizes)
    k = min(n, cpus * max(1, -(-left // (cpus * call_bytes))))
    groups, start, acc, budget = [], 0, 0, left / k
    for j, s in enumerate(sizes):
        if j > start and (acc + s / 2 > budget or acc + s > call_bytes):
            groups.append((start, j))
            left -= acc
            budget = left / max(1, k - len(groups))
            start, acc = j, 0
        acc += s
    return groups + [(start, n)]


def _file_sizes(files: list[str]) -> list[int]:
    """On-disk sizes of ``files``, stat'ed in chunks of 1,024 by 16
    threads: a stat releases the GIL, so on shared storage the per-file
    metadata round-trips overlap instead of adding up (SCALE.md has the
    local-disk cost)."""
    from concurrent.futures import ThreadPoolExecutor

    def stat(part: list[str]) -> list[int]:
        return [os.path.getsize(f) for f in part]

    if len(files) <= 1024:
        return stat(files)
    with ThreadPoolExecutor(16) as ex:
        parts = ex.map(stat, (files[i:i + 1024]
                              for i in range(0, len(files), 1024)))
        return [s for part in parts for s in part]


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
    if not files:  # e.g. a date range that selects no .log.gz
        return pd.DataFrame(columns=["sink"] + STAT_COLUMNS)
    groups = _route_groups(_file_sizes(files), cluster_cpus(), CALL_BYTES)
    # one block per route task (its fragment paths), one map call per block
    tasks = ray.data.from_arrow([pa.table({"path": files[a:b]})
                                 for a, b in groups])
    partial = tasks.map_batches(
        functools.partial(_file_route_task, out_dir=out_dir,
                          src_ip=cfg.src_ip, enrich=cfg.enrich,
                          source=cfg.source, compression=compression,
                          input_format=input_format, on_error=on_error),
        batch_format="pyarrow", batch_size=None)
    # Final merge on the DRIVER: each task emits ≤|sinks| rows, so the
    # collected partials are tiny (|tasks| × |sinks|).
    # Keeping the merge out of the streaming plan matters: a groupby in the
    # same plan makes the executor reserve CPU budget for the shuffle
    # operators and halves the map stage's parallelism (measured 3 of 8
    # cores busy with the in-plan groupby vs 8 of 8 map-only).
    pdf = partial.to_pandas()
    if pdf.empty:  # e.g. a filter matched nothing — keep the schema
        return pd.DataFrame(columns=["sink"] + STAT_COLUMNS)
    g = pdf.groupby("sink")
    out = g.agg(n=("n", "sum"), sum_n_tok=("sum_n_tok", "sum"),
                min_n_tok=("min_n_tok", "min"), max_n_tok=("max_n_tok", "max"),
                **{c: (c, "sum") for c in HIST_COLUMNS})
    return out.reset_index()


def _routed_tasks(dirs: list[str]) -> tuple[pa.Schema, list[pa.Table]]:
    """Plan :func:`read_routed` on the driver: the one output schema and
    one table of ``(path, <partition columns>)`` rows per read task."""
    plan, first_of_sink, part_keys = [], {}, {}
    for d in dirs:
        # a root named key=value (a lineage shard dir) is a partition
        # column too, as hive parsing of the path would make it
        name = os.path.basename(os.path.normpath(d))
        part = dict([name.split("=", 1)]) if name.count("=") == 1 else {}
        part_keys.update(dict.fromkeys(part))
        rows, sizes = [], []
        for sd in sorted(os.scandir(d), key=lambda e: e.name):
            if not (sd.is_dir() and sd.name.startswith("sink=")):
                continue
            sink = sd.name.removeprefix("sink=")
            for f in sorted(os.scandir(sd.path), key=lambda e: e.name):
                if f.name.endswith(".parquet") and f.is_file():
                    first_of_sink.setdefault(sink, f.path)
                    rows.append({"": f.path, **part, "sink": sink})
                    sizes.append(f.stat().st_size)
        # tasks never span roots; a task stays within CALL_BYTES unless
        # one file is larger
        plan += [rows[a:b] for a, b in _route_groups(sizes, 1, CALL_BYTES)]
    # every sink directory holds one schema, so one footer per sink
    # covers every file
    schema = pa.unify_schemas([pq.read_schema(p).remove_metadata()
                               for p in first_of_sink.values()]
                              or [pa.schema([])])
    keys = [*part_keys, "sink"]
    for k in keys:
        schema = schema.append(pa.field(k, pa.string()))
    # the path column first, unnamed: "path" is a Zeek field
    task_schema = pa.schema([(c, pa.string()) for c in ["", *keys]])
    return schema, [pa.Table.from_pylist(rows, schema=task_schema)
                    for rows in plan]


def _read_routed_task(batch: pa.Table, *, schema: pa.Schema) -> pa.Table:
    """Read a task's part files (``batch``'s first column) one at a time,
    tag each file's rows with its partition values (the other columns)
    and conform the lot to the one output schema."""
    tables = []
    for p in batch.column(0).to_pylist():
        # ParquetFile, not read_table: no dataset discovery per file
        # (0.5 ms against 1.4 ms per ~17-row, ~100-column part file,
        # pyarrow 16 on one core of a 4-vCPU VM)
        with pq.ParquetFile(p) as f:
            tables.append(f.read(use_threads=False))
    # one chunk per column: the same 500-row, 103-column block in one
    # chunk per file took 30x longer to pickle into the object store
    t = pa.concat_tables(tables, promote_options="default").combine_chunks()
    of_file = np.repeat(np.arange(len(tables)), [len(x) for x in tables])
    keys = batch.column_names[1:]
    return pa.Table.from_arrays([
        batch[f.name].take(of_file) if f.name in keys
        else t[f.name].cast(f.type) if f.name in t.column_names
        else pa.nulls(len(t), f.type) for f in schema], schema=schema)


def read_routed(*dirs: str) -> "ray.data.Dataset":
    """Dataset over routed output trees, each ``<dir>/sink=<s>/*.parquet``
    (a :func:`run_flagship` output dir, or a lineage ``shard=<id>`` dir),
    with ``sink`` as a string column, and ``<key>`` too for a dir named
    ``<key>=<value>``.

    One schema for every block: the driver lists each dir with
    ``os.scandir``, reads ONE footer per distinct sink directory, unifies
    them and adds the partition columns; each task reads its part files
    one at a time and null-fills them to that schema.  Ray's
    ``read_parquet`` over the same tree yields one schema per sink and
    logs "different schema" for every change.  Each dir's files are cut
    into tasks by :func:`_route_groups` at one CPU: a task never spans
    two dirs and stays within ``CALL_BYTES`` unless one file is larger.
    Keep the tasks that small: where Ray cannot infer a plan's schema
    (e.g. after ``select_columns``), it runs the plan under ``limit(1)``
    first, which re-reads the first task."""
    schema, tasks = _routed_tasks(list(dirs))
    if not tasks:
        return ray.data.from_arrow(schema.empty_table())
    return ray.data.from_arrow(tasks).map_batches(
        functools.partial(_read_routed_task, schema=schema),
        batch_format="pyarrow", batch_size=None)
