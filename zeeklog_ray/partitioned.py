"""Hive-partitioned Parquet output + partition-pruned reads,
range-sorted zone-map export + range-pruned scans, and the table store
on that layout (compaction, copy-on-write upsert, merge-on-read delta
log, vacuum, group-sum maintenance, schema-on-read).

The 100-TB output layout: ``write_partitioned`` lays data out as
``<root>/<col>=<value>/...`` (one directory per partition value, many
files per directory — resumable and independently re-readable), and
``read_partition`` scans ONLY the named partition's directory — pruning
at the PATH level, so a consumer of one slice never touches the other
partitions' bytes.  Path-level pruning is deliberate: Ray 2.49's
``read_parquet(filter=...)`` on a hive partition column crashes the
fragment sampler (measured round 1), and even where it works it still
lists every fragment; selecting the directory does neither.

Zone maps extend the same idea to RANGE predicates on a numeric/orderable
column: ``write_sorted_zonemap`` range-partitions by sampled boundaries
(the ``relational.global_rank`` boundary scheme), each range sorts and
writes its own Parquet file, and a ``manifest.json`` records per-file
``[min, max]``.  ``zonemap_scan(lo, hi)`` then opens ONLY the files whose
zone overlaps the predicate — at 10^12 rows a selective range touches a
handful of files instead of every block, which is the difference between
an index lookup and a full scan.

Crash safety has one path.  A file that replaces another (part files,
manifests, the ``_delta_seq`` counter, group-sum files) goes through
:func:`_publish`; a change to a partition's base files (compaction,
upsert, delta fold) goes through :func:`_commit`, whose journal the next
touch rolls forward (:func:`_recover_compaction`).  A crash at any
filesystem step leaves the old state or a committed journal, plus at
worst ``*.tmp`` litter that :func:`vacuum_store` reclaims.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import tempfile
import uuid
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data


def write_partitioned(ds: "ray.data.Dataset", root: str,
                      cols: list[str]) -> None:
    """Write ``ds`` as hive-partitioned Parquet (``col=value`` dirs)."""
    ds.write_parquet(root, partition_cols=cols)


def read_partition(root: str, col: str, value: str) -> "ray.data.Dataset":
    """Read ONE partition by path (no full-dataset listing).  The hive
    directory scheme restores the partition column on read."""
    return ray.data.read_parquet(f"{root}/{col}={value}")


def _fsync(path: str) -> None:
    """fsync a file's data blocks, or a directory so renames within it
    are durable.  Durability ordering is the whole point of the commit
    journal: the journal must not become durable before the data it
    commits, or a crash rolls FORWARD onto truncated files."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _publish(path: str, write) -> None:
    """Durably replace ``path`` with the file ``write(tmp)`` writes: the
    tmp sits hidden in the same directory (``.<random><ext>.tmp``), its
    data is fsynced before ``os.replace`` publishes it, and the
    directory is fsynced after.  A crash at any step leaves the old file
    or the new one, never a truncated one that reads as complete, plus
    at worst the tmp, which :func:`vacuum_store` reclaims."""
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".",
                               suffix=os.path.splitext(path)[1] + ".tmp")
    os.close(fd)
    write(tmp)
    _fsync(tmp)
    os.replace(tmp, path)
    _fsync(d)


def _write_text(text: str):
    """A :func:`_publish` writer for a small text file."""
    return lambda tmp: Path(tmp).write_text(text)


def _base_files(d: str) -> list[str]:
    """The base Parquet files of a directory in name order: ``*.parquet``
    without a ``.`` prefix — tmps, ``_deltas/`` and ``manifest.json``
    are not base data."""
    return sorted(f for f in os.listdir(d)
                  if f.endswith(".parquet") and not f.startswith("."))


def _tables(d: str, names: list[str]) -> list["pa.Table"]:
    return [pq.read_table(os.path.join(d, f)) for f in names]


def _partitions(root: str, ctx: str | None = None) -> list[str]:
    """The ``<col>=<value>`` partition directory names under ``root``,
    sorted; with ``ctx``, a store without one is an error."""
    parts = sorted(d for d in os.listdir(root)
                   if "=" in d and os.path.isdir(os.path.join(root, d)))
    if ctx and not parts:
        raise ValueError(f"{ctx}: no hive partitions in {root}")
    return parts


def _each(items: list, fn) -> "ray.data.Dataset":
    """The fan-out: one Ray task per item (a partition, a file), with
    ``fn(item)`` returning that item's rows as a pandas frame or an
    Arrow table.  Items are independent, so this parallelizes to the
    cluster width, and only what ``fn`` returns leaves the task."""

    def run(batch: pd.DataFrame):
        outs = [fn(x) for x in batch["item"]]
        if isinstance(outs[0], pa.Table):
            return pa.concat_tables(outs)
        return pd.concat(outs, ignore_index=True)

    return ray.data.from_pandas(pd.DataFrame({"item": items})) \
        .repartition(len(items)) \
        .map_batches(run, batch_format="pandas", batch_size=None)


def _report(items: list, fn) -> pd.DataFrame:
    """:func:`_each` for ``fn`` returning one report dict per item: the
    report frame, sorted by its ``dir`` column."""
    return _each(items, lambda x: pd.DataFrame([fn(x)])).to_pandas() \
        .sort_values("dir").reset_index(drop=True)


def _streaming_boundaries(ds: "ray.data.Dataset", col: str,
                          num_files: int) -> np.ndarray:
    """Range boundaries for ``col`` from ONE streaming pass — no
    ``count()``, no ``materialize()``: each block emits ≤ 65 evenly
    spaced order statistics weighted by the rows they stand for, and one
    reduce task merges them into ``num_files - 1`` weighted quantiles.
    Deterministic (order statistics, no RNG), and the driver only ever
    sees the final boundary array; the per-block sample table
    (O(blocks × 65) scalar pairs) merges inside a worker task, so at
    10^12 rows nothing larger than the boundaries reaches the driver.
    Nulls in the sort key raise, same contract as ``global_rank``."""
    per_block = 65

    def block_stats(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch[col]
        if v.isna().any():
            raise ValueError(f"write_sorted_zonemap: null values in {col!r}")
        arr = np.sort(v.to_numpy())
        k = min(len(arr), per_block)
        if k == 0:
            return pd.DataFrame({"v": arr[:0], "w": np.zeros(0)})
        idx = ((np.arange(k) + 0.5) * len(arr) / k).astype(np.int64)
        return pd.DataFrame({"v": arr[idx],
                             "w": np.full(k, len(arr) / k)})

    def merge(stats: pd.DataFrame) -> pd.DataFrame:
        if len(stats) == 0:
            return stats.iloc[:0]
        stats = stats.sort_values("v", kind="mergesort")
        cw = stats["w"].cumsum().to_numpy()
        targets = (np.arange(1, num_files) * cw[-1]) / num_files
        pos = np.minimum(np.searchsorted(cw, targets, side="left"),
                         len(stats) - 1)
        return pd.DataFrame({"v": np.unique(stats["v"].to_numpy()[pos])})

    merged = ds.select_columns([col]) \
        .map_batches(block_stats, batch_format="pandas", batch_size=None) \
        .repartition(1) \
        .map_batches(merge, batch_format="pandas", batch_size=None) \
        .to_pandas()
    if len(merged) == 0:
        raise ValueError("write_sorted_zonemap: empty dataset")
    return merged["v"].to_numpy()


def write_sorted_zonemap(ds: "ray.data.Dataset", col: str, root: str,
                         num_files: int = 64) -> dict:
    """Range-sorted Parquet export with a zone-map manifest.

    Shape: ONE streaming pass computes range boundaries for ``col``
    (per-block order statistics merged into weighted quantiles —
    :func:`_streaming_boundaries`; deterministic, nothing pinned), then a
    second pass tags each row with its range bucket row-locally and ONE
    bucketed shuffle lets each range sort itself and write its own file
    (``part-<bucket>.parquet`` through :func:`_publish`, so a re-run of
    a failed range is atomic — the resumable-output contract).  Only
    the one-row-per-file stats table returns to the driver, which
    publishes ``manifest.json``: ``{"col", "files": [{"path", "min",
    "max", "rows"}, ...]}``.

    The input is never materialized: the two passes each re-execute the
    upstream plan, which for the intended input (a deterministic
    ``read_parquet``) costs one extra scan and keeps the object store
    flat — at 10^12 rows a full-input pin would BE the bottleneck.  An
    expensive or non-deterministic upstream is the caller's to stage
    first (``spill.pin_or_spill``).

    Sorting is a global all-to-all by construction (same as any ORDER BY);
    everything after it is file-local.  Null sort keys are rejected like
    ``global_rank`` (make the null policy explicit upstream).  Returns the
    manifest dict."""
    os.makedirs(root, exist_ok=True)
    bref = ray.put(_streaming_boundaries(ds, col, num_files))

    def assign(batch: pd.DataFrame) -> pd.DataFrame:
        if batch[col].isna().any():
            raise ValueError(f"write_sorted_zonemap: null values in {col!r}")
        batch = batch.copy()
        batch["_rb"] = np.searchsorted(
            ray.get(bref), batch[col].to_numpy(),
            side="right").astype(np.int64)
        return batch

    def write_range(group: pd.DataFrame) -> pd.DataFrame:
        b = int(group["_rb"].iloc[0])
        g = group.sort_values(col, kind="mergesort").drop(columns=["_rb"])
        path = os.path.join(root, f"part-{b:05d}.parquet")
        table = pa.Table.from_pandas(g, preserve_index=False)
        _publish(path, lambda tmp: pq.write_table(table, tmp))
        lo, hi = g[col].iloc[0], g[col].iloc[-1]
        return pd.DataFrame({"path": [path],
                             "min": [lo], "max": [hi],
                             "rows": [np.int64(len(g))]})

    stats = ds.map_batches(assign, batch_format="pandas", batch_size=None) \
        .groupby("_rb").map_groups(write_range, batch_format="pandas") \
        .to_pandas().sort_values("path")
    manifest = {"col": col, "files": [
        {"path": r.path, "min": _json_bound(r.min, col),
         "max": _json_bound(r.max, col), "rows": int(r.rows)}
        for r in stats.itertuples()]}
    # atomic like the part files: a process killed mid-dump must not
    # leave a truncated manifest that reads as a completed export
    _publish(os.path.join(root, "manifest.json"),
             _write_text(json.dumps(manifest)))
    return manifest


def _json_bound(v, col: str):
    """Zone bound → JSON with EXACT round-tripping: int stays int (a
    float() coercion silently rounds int64 above 2^53 — a pruned file
    could then hide matching rows), float stays float, str stays str.
    Other dtypes (datetime64, decimal) are rejected rather than corrupted;
    cast to int64 epoch / string upstream."""
    if isinstance(v, (bool, np.bool_)):
        raise TypeError(f"write_sorted_zonemap: boolean sort key {col!r} "
                        "makes no range sense")
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    if isinstance(v, str):
        return v
    raise TypeError(
        f"write_sorted_zonemap: sort key {col!r} has unsupported dtype "
        f"{type(v).__name__} for a JSON zone bound — cast to int64 "
        "(e.g. epoch micros), float, or string upstream")


def zonemap_files_for_range(manifest: dict, lo, hi) -> list[str]:
    """Paths whose zone ``[min, max]`` intersects ``[lo, hi]`` — the
    pruning decision, separated out so tests can assert exactly which
    files a predicate touches."""
    return [f["path"] for f in manifest["files"]
            if not (f["max"] < lo or f["min"] > hi)]


def zonemap_manifest_is_stale(root: str, manifest: dict) -> bool:
    """True when ``manifest.json`` no longer describes the files actually
    in ``root`` — the file set differs (a compaction or manual edit
    renamed/merged files) or any file's footer row count disagrees with
    the manifest (a file was overwritten in place).  A stale manifest
    must never drive pruning: a zone entry pointing at a replaced file
    would silently hide matching rows."""
    entries = {os.path.basename(e["path"]): e for e in manifest["files"]}
    if set(_base_files(root)) != set(entries):
        return True
    return any(pq.read_metadata(os.path.join(root, name)).num_rows
               != e["rows"] for name, e in entries.items())


def rebuild_zonemap_manifest(root: str, col: str | None = None) -> dict:
    """Rebuild ``manifest.json`` from the Parquet files currently in
    ``root`` — the refresh step after :func:`_commit` rewrites a
    zonemapped directory's files.  Zones stay correct under any file
    rearrangement because a zone is just the file's actual
    ``[min, max]``: a compacted file spanning two old ranges gets the
    union zone (coarser pruning, same answers).

    Bounds are computed from the zone COLUMN's data (one-column read per
    file), not footer statistics — Parquet string min/max stats may be
    truncated, and a rounded bound could prune a file that holds matching
    rows.  The files were just fully read+written by the merge, so the
    extra one-column scan is marginal."""
    import pyarrow.compute as pc

    if col is None:
        with open(os.path.join(root, "manifest.json")) as f:
            col = json.load(f)["col"]
    entries = []
    for name in _base_files(root):
        path = os.path.join(root, name)
        t = pq.read_table(path, columns=[col])
        if t.num_rows == 0:
            continue
        mm = pc.min_max(t.column(0)).as_py()
        entries.append({"path": path,
                        "min": _json_bound(mm["min"], col),
                        "max": _json_bound(mm["max"], col),
                        "rows": int(t.num_rows)})
    manifest = {"col": col, "files": entries}
    _publish(os.path.join(root, "manifest.json"),
             _write_text(json.dumps(manifest)))
    return manifest


def zonemap_scan(root: str, lo, hi) -> "ray.data.Dataset":
    """Range query over a :func:`write_sorted_zonemap` export: open ONLY
    the overlapping files (zone pruning), then a row-local Arrow filter
    trims the two boundary files.  An empty intersection still reads one
    file's schema (and filters everything) so the result Dataset keeps
    its columns — the empty-``to_pandas`` schema-loss quirk is documented
    in BASELINE.md.

    A stale manifest (:func:`zonemap_manifest_is_stale` — file set or
    row-count mismatch, e.g. an external rewrite) never drives pruning:
    ALL files are scanned with the row-local trim, which is slower but
    never wrong."""
    import pyarrow.compute as pc

    with open(os.path.join(root, "manifest.json")) as f:
        manifest = json.load(f)
    col = manifest["col"]
    if zonemap_manifest_is_stale(root, manifest):
        paths = [os.path.join(root, f) for f in _base_files(root)]
    else:
        paths = zonemap_files_for_range(manifest, lo, hi)
        if not paths:
            paths = [manifest["files"][0]["path"]]

    def trim(batch):
        keep = pc.and_(pc.greater_equal(batch[col], lo),
                       pc.less_equal(batch[col], hi))
        return batch.filter(keep)

    return ray.data.read_parquet(paths).map_batches(
        trim, batch_format="pyarrow", batch_size=None)


def _commit(part_dir: str, olds: list[str], news) -> None:
    """THE commit of a partition directory's base files: replace
    ``olds`` (names relative to ``part_dir``, ``_deltas/...`` included)
    with ``news`` (``(name, table)`` pairs, consumed one at a time so
    only one new table is in memory).  Rerunnable at every step:

    1. each new table is written as ``<name>.tmp`` and fsynced — data
       durable BEFORE the journal commits it
    2. ``_compaction.journal`` (``{"olds": [...], "news": [...]}``) is
       published (:func:`_publish`: journal blocks fsynced before the
       rename, the directory after) — the commit point
    3. :func:`_recover_compaction` rolls it forward: tmps renamed into
       place, olds deleted, a zonemapped directory's ``manifest.json``
       rebuilt, the journal deleted last

    A crash before (2) leaves only tmps — the next recovery deletes them
    and the originals are untouched.  A crash after (2) is rolled
    FORWARD by the next recovery, because the journal only commits after
    every tmp is fully written.  Readers between (2) and (3) may see both
    an old file and its replacement — run maintenance on a quiesced
    snapshot (the standard table-maintenance contract; a manifest-pinned
    reader like ``zonemap_scan`` never sees uncommitted files)."""
    names = []
    for name, table in news:
        tmp = os.path.join(part_dir, name + ".tmp")
        pq.write_table(table, tmp)
        _fsync(tmp)
        names.append(name)
    _publish(os.path.join(part_dir, "_compaction.journal"),
             _write_text(json.dumps({"olds": olds, "news": names})))
    _recover_compaction(part_dir)


def _recover_compaction(part_dir: str) -> None:
    """Roll an interrupted :func:`_commit` forward (journal present and
    parseable: finish renames + deletes) or back (no journal, OR a
    torn/unparseable journal: drop orphan tmps, keep the originals).
    Rolling forward also rebuilds a zonemapped directory's
    ``manifest.json`` (so ``zonemap_scan`` keeps pruning; a stale one
    falls back to a full scan) BEFORE the journal is deleted, so a crash
    anywhere in the roll-forward reruns all of it.

    A torn journal is safe to treat as PRE-commit because the writer
    fsyncs the journal's blocks before renaming it into place and fsyncs
    the directory after — a durable, complete rename implies complete
    contents, so torn contents mean the crash hit before the commit point
    and the original files are all still present."""
    journal_path = os.path.join(part_dir, "_compaction.journal")
    j = None
    if os.path.exists(journal_path):
        try:
            with open(journal_path) as f:
                j = json.load(f)
        except (ValueError, OSError):
            j = None  # torn journal → pre-commit rollback below
    if j is not None:
        for name in j["news"]:
            tmp = os.path.join(part_dir, name + ".tmp")
            if os.path.exists(tmp):
                os.replace(tmp, os.path.join(part_dir, name))
        for old in j["olds"]:
            p = os.path.join(part_dir, old)
            if os.path.exists(p):
                os.remove(p)
        if os.path.exists(os.path.join(part_dir, "manifest.json")):
            rebuild_zonemap_manifest(part_dir)
        os.remove(journal_path)
        _fsync(part_dir)
    else:
        for f in os.listdir(part_dir):
            if f.endswith(".parquet.tmp"):
                os.remove(os.path.join(part_dir, f))
        if os.path.exists(journal_path):
            os.remove(journal_path)


def compact_partition_dir(part_dir: str, target_rows: int) -> dict:
    """Compact ONE partition directory's small Parquet files into files
    of ~``target_rows`` rows, crash-safe through :func:`_commit`.

    After recovering any interrupted commit, the PLAN reads footer
    metadata only (``pq.read_metadata`` per file — no data bytes):
    files greedy-pack in name order into groups whose row sum reaches
    ``target_rows``; groups of one file are skipped (already compact),
    so a second run is a no-op.  Each group merges into one
    ``compact-*.parquet``, all of them committed together.

    Returns ``{"dir", "files_before", "files_after", "rows"}``."""
    _recover_compaction(part_dir)
    files = _base_files(part_dir)
    counts = [pq.read_metadata(os.path.join(part_dir, f)).num_rows
              for f in files]
    groups: list[list[str]] = [[]]
    acc = 0
    for f, n in zip(files, counts):
        groups[-1].append(f)
        acc += n
        if acc >= target_rows:
            groups.append([])
            acc = 0
    plan = [g for g in groups if len(g) > 1]
    if plan:
        _commit(part_dir, [f for g in plan for f in g],
                ((f"compact-{uuid.uuid4().hex[:12]}.parquet",
                  pa.concat_tables(_tables(part_dir, g),
                                   promote_options="default"))
                 for g in plan))
    return {"dir": part_dir, "files_before": len(files),
            "files_after": len(_base_files(part_dir)),
            "rows": int(sum(counts))}


def compact_partitions(root: str,
                       target_rows: int = 1_000_000) -> pd.DataFrame:
    """Compact every ``<col>=<value>`` partition directory under ``root``
    — the small-file table-maintenance pass every long-running ingest
    needs (each incremental run appends a few small files per partition;
    unmaintained, a year of runs makes reads metadata-bound).

    Fan-out: one :func:`compact_partition_dir` task per partition —
    partitions are independent, so this parallelizes to the cluster
    width and a re-run skips already-compact partitions (the per-dir
    protocol is idempotent).  Only the per-dir report rows return to the
    driver."""
    return _report([os.path.join(root, d)
                    for d in _partitions(root, "compact_partitions")],
                   lambda d: compact_partition_dir(d, target_rows))


def _latest_wins(base_tables: list, change_tables: list, key: str,
                 order_col: str, deleted_col: str | None
                 ) -> tuple[pd.DataFrame, int]:
    """THE latest-wins merge: base rows, then change rows in apply order,
    stable-sorted on ``order_col`` with keep=last per ``key`` — so at
    equal ``order_col`` a change beats the base and a later change an
    earlier one.  When ``deleted_col`` is given, a change row with a
    true value there is a TOMBSTONE: if it is the latest version of its
    key, the key is dropped (the tombstone itself is not kept).  Returns
    the merged frame and the number of keys tombstones dropped."""
    frames = [t.to_pandas().assign(_tomb=False) for t in base_tables]
    for t in change_tables:
        t = t.to_pandas()
        if deleted_col is None:
            t["_tomb"] = False
        else:
            t = t.rename(columns={deleted_col: "_tomb"})
            t["_tomb"] = t["_tomb"].fillna(False).astype(bool)
        frames.append(t)
    if not frames:
        return pd.DataFrame(), 0
    both = pd.concat(frames, ignore_index=True) \
        .sort_values(order_col, kind="stable")
    merged = both.drop_duplicates(subset=[key], keep="last")
    tomb = merged["_tomb"]
    return merged[~tomb].drop(columns=["_tomb"]), int(tomb.sum())


def upsert_partition_dir(part_dir: str, staging_dir: str, key: str,
                         order_col: str,
                         deleted_col: str | None = None) -> dict:
    """Apply one partition's change rows (Parquet files under
    ``staging_dir``) to ``part_dir`` with latest-wins per ``key`` on
    ``order_col`` (:func:`_latest_wins`: ties go to the change row, a
    winning ``deleted_col`` tombstone drops its key) — copy-on-write
    upsert, committed through :func:`_commit`.  A partition with no
    existing directory is created.

    The whole partition rewrites into one file — the copy-on-write
    trade: reads stay plain Parquet scans with no delta log to replay,
    and the write cost is why callers partition by something
    change-local (ingest day), so a CDC batch touches only recent
    partitions.  Where change locality does not hold,
    :func:`append_deltas` appends instead and :func:`read_merged`
    merges on read."""
    os.makedirs(part_dir, exist_ok=True)
    _recover_compaction(part_dir)
    olds = _base_files(part_dir)
    existing = _tables(part_dir, olds)
    changes = _tables(staging_dir, sorted(
        f for f in os.listdir(staging_dir) if f.endswith(".parquet")))
    rows_before = int(sum(t.num_rows for t in existing))
    if not changes:
        return {"dir": part_dir, "rows_before": rows_before,
                "rows_after": rows_before, "changes": 0, "deleted": 0}
    merged, n_del = _latest_wins(existing, changes, key, order_col,
                                 deleted_col)
    _commit(part_dir, olds,
            [(f"upsert-{uuid.uuid4().hex[:12]}.parquet",
              pa.Table.from_pandas(merged, preserve_index=False))])
    return {"dir": part_dir, "rows_before": rows_before,
            "rows_after": int(len(merged)),
            "changes": int(sum(t.num_rows for t in changes)),
            "deleted": n_del}


@contextlib.contextmanager
def _stage(root: str, changes: "ray.data.Dataset", part_col: str,
           prefix: str):
    """Stage a change batch AS a hive-partitioned write under
    ``<root>/<prefix><id>`` (change rows route to their partition inside
    Ray tasks, never via the driver) and yield ``(staging dir, touched
    partition names)``.  The staging tree is removed on exit; a driver
    that dies inside leaves it to :func:`vacuum_store`."""
    staging = os.path.join(root, f"{prefix}{uuid.uuid4().hex[:8]}")
    try:
        changes.write_parquet(staging, partition_cols=[part_col])
        touched = sorted(d for d in os.listdir(staging)
                         if d.startswith(f"{part_col}="))
        if not touched:
            raise ValueError(f"change batch staged zero partitions "
                             f"under {root}")
        yield staging, touched
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def upsert_partitions(root: str, changes: "ray.data.Dataset",
                      part_col: str, key: str, order_col: str,
                      deleted_col: str | None = None) -> pd.DataFrame:
    """Apply a CDC change batch to a hive-partitioned store: stage the
    changes (:func:`_stage`), then run one :func:`upsert_partition_dir`
    task per TOUCHED partition — untouched partitions are never read,
    listed, or rewritten, which is the whole economics of
    partition-by-ingest-day CDC at 100 TB.

    Returns the per-partition report frame (rows before/after, change
    and tombstone counts)."""
    with _stage(root, changes, part_col, "_upsert_staging_") \
            as (staging, touched):
        return _report(touched, lambda d: upsert_partition_dir(
            os.path.join(root, d), os.path.join(staging, d), key,
            order_col, deleted_col))


def append_deltas(root: str, changes: "ray.data.Dataset",
                  part_col: str) -> pd.DataFrame:
    """MERGE-ON-READ counterpart of :func:`upsert_partitions`: stage a
    CDC change batch as delta files under each touched partition's
    ``_deltas/`` subdirectory — an O(changes) append, NO base rewrite.
    Reads then either merge on the fly (:func:`read_merged`) or the
    deltas fold into the base later (:func:`compact_deltas`).  This is
    the named alternative for when change locality does NOT hold (a
    batch touching every partition would rewrite the whole copy-on-write
    store for a trickle of rows).

    Deltas are invisible to plain Parquet readers by construction: the
    ``_deltas`` prefix is ignored by pyarrow dataset discovery, so
    ``read_parquet(root)`` keeps returning the unmerged base — callers
    choose merge-on-read explicitly.

    Each append batch gets the next STORE-GLOBAL sequence number (the
    ``_delta_seq`` counter file at the root, atomically advanced; a
    missing counter is rebuilt by walking the partitions' delta files)
    — global, not per-partition, so a batch that touches only some
    partitions still forms one consistent snapshot and
    :func:`read_merged`'s ``as_of_seq`` time travel cuts the SAME batch
    boundary everywhere.  Before moving its files an append deletes any
    torn batch (:func:`_sweep_torn_deltas`), so a retry that reuses the
    torn sequence number never commits the dead attempt's leftovers.
    :func:`read_merged` applies deltas in sequence order, so a later
    batch's row beats an earlier batch's row
    at equal ``order_col``.  Rows WITHIN one batch must not carry the
    same key at the same ``order_col`` (their file order inside the
    batch is block layout, not time).  Single writer per STORE assumed
    — same contract as the commit journal.

    Returns a per-partition report (dir, seq, files, rows)."""
    with _stage(root, changes, part_col, "_delta_staging_") \
            as (staging, touched):
        _sweep_torn_deltas(root)
        seq = 1 + _store_delta_seq(root)
        rows = []
        for d in touched:
            ddir = os.path.join(root, d, "_deltas")
            os.makedirs(ddir, exist_ok=True)
            files = sorted(f for f in os.listdir(os.path.join(staging, d))
                           if f.endswith(".parquet"))
            n = 0
            for i, f in enumerate(files):
                src = os.path.join(staging, d, f)
                n += pq.read_metadata(src).num_rows
                dst = os.path.join(ddir, f"delta-{seq:06d}-{i:04d}.parquet")
                shutil.move(src, dst)
                _fsync(dst)
            _fsync(ddir)
            rows.append({"dir": os.path.join(root, d), "seq": seq,
                         "files": len(files), "rows": n})
        _advance_store_delta_seq(root, seq)
    return pd.DataFrame(rows).sort_values("dir").reset_index(drop=True)


def _delta_files(part_dir: str, as_of_seq: int | None = None) -> list[str]:
    """A partition's delta files (``_deltas/...``, relative to
    ``part_dir``) in sequence order, batches above ``as_of_seq`` left
    out (None = all)."""
    ddir = os.path.join(part_dir, "_deltas")
    if not os.path.isdir(ddir):
        return []
    return [os.path.join("_deltas", f) for f in sorted(os.listdir(ddir))
            if f.endswith(".parquet")
            and (as_of_seq is None or _delta_seq(f) <= as_of_seq)]


def _store_delta_seq(root: str) -> int:
    """Current store-global delta sequence: the ``_delta_seq`` counter
    file when present, else rebuilt as the max sequence across every
    partition's delta files (0 on a fresh store).  The counter survives
    :func:`compact_deltas` folds, so snapshot ids stay monotonic across
    the store's whole history even after the log is compacted away."""
    committed = _committed_delta_seq(root)
    if committed is not None:
        return committed
    return max((_delta_seq(f) for d in _partitions(root)
                for f in _delta_files(os.path.join(root, d))), default=0)


def _committed_delta_seq(root: str) -> int | None:
    """The ``_delta_seq`` counter, or None when it is missing or
    unreadable (then torn deltas cannot be told from committed ones)."""
    try:
        with open(os.path.join(root, "_delta_seq")) as f:
            return int(f.read().strip())
    except (OSError, ValueError):
        return None


def _sweep_torn_deltas(root: str) -> tuple[int, int]:
    """Delete every partition's delta files whose sequence is above the
    committed ``_delta_seq`` counter — a torn batch, from an append that
    died before its commit point; nothing when the counter is missing or
    unreadable.  Returns (files deleted, bytes reclaimed)."""
    committed = _committed_delta_seq(root)
    if committed is None:
        return 0, 0
    n_files = n_bytes = 0
    for d in _partitions(root):
        part_dir = os.path.join(root, d)
        torn = [f for f in _delta_files(part_dir) if _delta_seq(f) > committed]
        for f in torn:
            fp = os.path.join(part_dir, f)
            n_bytes += os.path.getsize(fp)
            os.remove(fp)
        if torn:
            _fsync(os.path.join(part_dir, "_deltas"))
            n_files += len(torn)
    return n_files, n_bytes


def _advance_store_delta_seq(root: str, seq: int) -> None:
    """Publish the counter AFTER the batch's delta files are durable —
    the counter advance IS the append's commit point: delta files with
    a sequence above the counter are a torn batch (crash between file
    moves and counter advance), which readers and folds ignore and
    :func:`vacuum_store` reclaims.  The one uncovered window is a crash
    on the very first append of a legacy store with no counter file —
    there the rebuild walk cannot tell torn from committed and assumes
    committed (documented legacy trade)."""
    _publish(os.path.join(root, "_delta_seq"), _write_text(str(seq)))


def _delta_seq(fname: str) -> int:
    """Batch sequence number encoded in a delta file name
    (``[_deltas/]delta-{seq:06d}-{i:04d}.parquet``)."""
    return int(fname.split("-")[1])


def _merged_partition_table(part_dir: str, key: str, order_col: str,
                            deleted_col: str | None,
                            as_of_seq: int | None = None) -> pd.DataFrame:
    """One partition's merge-on-read view as a DataFrame: base files,
    then delta files in sequence order, through :func:`_latest_wins`
    (so equal-``order_col`` ties resolve to the latest delta, and
    tombstones drop their keys).

    ``as_of_seq`` is the TIME-TRAVEL knob: only delta batches with
    sequence number ≤ ``as_of_seq`` apply (0 = base only, None = all) —
    every append is a retained snapshot until :func:`compact_deltas`
    folds the log, which collapses history into the base (the standard
    table-format trade: snapshot retention ends where compaction
    begins)."""
    return _latest_wins(_tables(part_dir, _base_files(part_dir)),
                        _tables(part_dir, _delta_files(part_dir, as_of_seq)),
                        key, order_col, deleted_col)[0]


def read_merged(root: str, key: str, order_col: str,
                deleted_col: str | None = None,
                as_of_seq: int | None = None) -> "ray.data.Dataset":
    """Merge-on-read scan of a delta-logged store: one task per
    partition directory merges its base files with its pending deltas
    (latest-wins per ``key`` on ``order_col``, tombstones dropped) and
    emits the merged rows — the partition column re-attached from the
    directory name, rows never via the driver.  The read-time cost of
    the O(changes) append: every scan pays the merge until
    :func:`compact_deltas` folds the log down.

    ``as_of_seq`` reads the store AS OF a past delta batch (time
    travel): only batches with sequence ≤ ``as_of_seq`` apply, 0 means
    the base snapshot, None the current view.  Retention: history lives
    in the delta log, so :func:`compact_deltas` ends time travel for
    everything it folds — run it on the cadence your audit window
    allows, exactly like snapshot expiry in any log-structured table
    format."""
    parts = _partitions(root, "read_merged")
    col = parts[0].split("=", 1)[0]
    committed = _store_delta_seq(root)
    eff_seq = committed if as_of_seq is None else min(as_of_seq, committed)

    def merge_one(part: str) -> pd.DataFrame:
        m = _merged_partition_table(os.path.join(root, part), key,
                                    order_col, deleted_col, eff_seq)
        if not len(m):
            return pd.DataFrame()
        return m.assign(**{col: part.split("=", 1)[1]})

    return _each(parts, merge_one)


def compact_deltas(root: str, key: str, order_col: str,
                   deleted_col: str | None = None) -> pd.DataFrame:
    """Fold every partition's pending delta log into its base — the
    maintenance pass that pays the merge ONCE so subsequent plain scans
    are delta-free.  Per partition: merge (same :func:`_latest_wins` as
    :func:`read_merged`), then :func:`_commit` one new base file with
    the old base files AND the folded delta files as ``olds`` — a crash
    at any point is recovered by the next touch (and an interrupted fold
    that left deltas behind is harmless: re-applying an already-folded
    delta is idempotent — updates re-select the same winning rows,
    tombstones hit nothing).

    Partitions with no pending deltas are skipped (metadata-only)."""
    parts = _partitions(root, "compact_deltas")
    committed = _store_delta_seq(root)

    def fold_one(part: str) -> dict:
        part_dir = os.path.join(root, part)
        _recover_compaction(part_dir)
        # fold only COMMITTED deltas: a torn append (seq above the
        # counter) must never be absorbed into the base — vacuum owns it
        deltas = _delta_files(part_dir, committed)
        base = _base_files(part_dir)
        if not deltas:
            return {"dir": part_dir, "deltas_folded": 0, "rows": int(
                sum(pq.read_metadata(os.path.join(part_dir, f)).num_rows
                    for f in base))}
        merged, _ = _latest_wins(_tables(part_dir, base),
                                 _tables(part_dir, deltas), key, order_col,
                                 deleted_col)
        _commit(part_dir, base + deltas,
                [(f"fold-{uuid.uuid4().hex[:12]}.parquet",
                  pa.Table.from_pandas(merged, preserve_index=False))])
        return {"dir": part_dir, "deltas_folded": len(deltas),
                "rows": int(len(merged))}

    return _report(parts, fold_one)


def vacuum_store(root: str) -> dict:
    """Garbage-collect crash litter from a partitioned store — the
    maintenance pass that keeps a long-lived 100-TB table from
    accumulating orphans the commit protocol cannot reach:

    - **staging directories** (``_upsert_staging_*`` /
      ``_delta_staging_*``): a driver that died between
      ``write_parquet`` and the per-partition apply tasks leaves a full
      staged copy of its change batch behind — invisible to readers
      (``_``-prefix) but real bytes at CDC scale
    - **orphan tmps**: first every COMMITTED journal is rolled forward
      via :func:`_recover_compaction` (so vacuum never deletes a tmp the
      journal still owns — one renamed into place is a commit, not a
      reclaim); after that, every ``*.tmp`` at the store root, in a
      partition directory or in its ``_deltas/`` is pre-commit garbage
      by the fsync-ordering argument of :func:`_publish` and
      :func:`_commit`, and is dropped (counted in ``tmp_files``)
    - **torn delta batches**: delta files whose sequence is above the
      store's committed ``_delta_seq`` counter — an append that died
      before its commit point; already invisible to
      :func:`read_merged` / :func:`compact_deltas`, reclaimed here
      (skipped when the store predates the counter file or the counter
      is unreadable — then torn cannot be told from committed)

    Committed data is never touched: vacuum is a no-op on a healthy
    store (gated by the hash-green ``events_vacuum_roundtrip`` query,
    which vacuums a deliberately littered store and proves the content
    identical).  Single-writer contract, same as the journal: run
    vacuum quiesced, not concurrently with a writer whose tmps are
    in flight.

    Returns ``{"staging_dirs", "tmp_files", "torn_delta_files",
    "bytes_reclaimed", "partitions"}``."""
    staging_dirs = tmp_files = bytes_reclaimed = 0
    for d in os.listdir(root):
        p = os.path.join(root, d)
        if d.startswith(("_upsert_staging_", "_delta_staging_")) \
                and os.path.isdir(p):
            bytes_reclaimed += sum(
                os.path.getsize(os.path.join(dp, f))
                for dp, _, fs in os.walk(p) for f in fs)
            shutil.rmtree(p)
            staging_dirs += 1
    parts = [os.path.join(root, d) for d in _partitions(root)]
    dirs = [root] + parts + [os.path.join(p, "_deltas") for p in parts]
    # snapshot tmps BEFORE recovery: its rollback path deletes
    # pre-commit tmps itself, and those are reclaimed garbage too
    tmps = {os.path.join(s, f): os.path.getsize(os.path.join(s, f))
            for s in dirs if os.path.isdir(s) for f in os.listdir(s)
            if f.endswith(".tmp") and os.path.isfile(os.path.join(s, f))}
    for p in parts:
        _recover_compaction(p)
    for path, size in tmps.items():
        if os.path.exists(path):
            os.remove(path)
        elif os.path.exists(path[:-len(".tmp")]):
            continue  # renamed into place by the roll-forward: a commit
        tmp_files += 1
        bytes_reclaimed += size
    torn_delta_files, torn_bytes = _sweep_torn_deltas(root)
    return {"staging_dirs": staging_dirs, "tmp_files": tmp_files,
            "torn_delta_files": torn_delta_files,
            "bytes_reclaimed": int(bytes_reclaimed + torn_bytes),
            "partitions": len(parts)}


def refresh_group_sums(root: str, agg_root: str, key: str, order_col: str,
                       group_cols: list[str], sum_cols: list[str],
                       deleted_col: str | None = None,
                       parts: list[str] | None = None) -> pd.DataFrame:
    """Partition-incremental materialized-aggregate maintenance: keep a
    per-partition group-sum table (``SUM(sum_cols), COUNT(*) GROUP BY
    group_cols``) over the current merged view of a delta-logged store,
    stored as ONE Parquet file per partition under ``agg_root``.

    ``parts`` is the incremental handle: pass the touched-partition
    list from an :func:`append_deltas` / :func:`upsert_partitions`
    report (the ``dir`` column; base names or full paths both work) and
    ONLY those partitions recompute — untouched partitions keep their
    existing aggregate file unread and unwritten, which is the whole
    point at 100 TB (a CDC batch touching 3 of 3,000 day-partitions
    costs 3 partition scans, not a table scan).  ``parts=None``
    rebuilds everything (first run / backfill).

    Per-partition refresh is recompute-idempotent and crash-safe via
    :func:`_publish`: a died refresh leaves either the old file or the
    new one, both self-consistent; re-running converges.  Sums are
    emitted as ``sum_<col>`` int64 plus ``n`` — integer-exact, so the
    global rollup (a small groupby over partition aggregates) is
    hash-gated against SQL (``events_ivm_groupsum``).

    Returns the per-partition refresh report (dir, groups, rows)."""
    all_parts = _partitions(root, "refresh_group_sums")
    if parts is None:
        todo = all_parts
    else:
        todo = sorted({os.path.basename(os.path.normpath(p)) for p in parts})
        unknown = [p for p in todo if p not in set(all_parts)]
        if unknown:
            raise ValueError(f"refresh_group_sums: unknown partitions "
                             f"{unknown}")
    os.makedirs(agg_root, exist_ok=True)
    part_col = all_parts[0].split("=", 1)[0]
    committed = _store_delta_seq(root)

    def refresh_one(part: str) -> dict:
        m = _merged_partition_table(os.path.join(root, part), key,
                                    order_col, deleted_col, committed)
        sum_names = [f"sum_{c}" for c in sum_cols]
        if len(m):
            g = m.groupby(list(group_cols), as_index=False, sort=True) \
                .agg(**{sn: (c, "sum") for sn, c in zip(sum_names, sum_cols)},
                     n=(key, "size"))
        else:
            g = pd.DataFrame(columns=list(group_cols) + sum_names + ["n"])
        for c in sum_names + ["n"]:
            g[c] = g[c].astype("int64")
        g.insert(0, part_col, part.split("=", 1)[1])
        table = pa.Table.from_pandas(g, preserve_index=False)
        _publish(os.path.join(agg_root, f"{part}.parquet"),
                 lambda tmp: pq.write_table(table, tmp))
        return {"dir": os.path.join(root, part), "groups": int(len(g)),
                "rows": int(g["n"].sum()) if len(g) else 0}

    return _report(todo, refresh_one)


def read_group_sums(agg_root: str) -> "ray.data.Dataset":
    """The materialized per-partition aggregates as a Dataset (one row
    per partition × group).  The GLOBAL aggregate is a tiny groupby
    over these rows — group-cardinality-shaped, never a base-table
    scan; callers finish with ``relational.grouped_sum`` over the
    ``sum_*`` / ``n`` columns."""
    return ray.data.read_parquet(agg_root)


def read_evolved(root: str, target: "object", renames: dict | None = None,
                 defaults: dict | None = None) -> "ray.data.Dataset":
    """Schema-evolution read: scan a store whose Parquet files were
    written under DIFFERENT historical schema versions and normalize
    every file to one ``target`` pyarrow schema — the schema-on-read
    half of add-column / rename-column / widen-type evolution, without
    rewriting a byte of old data (the rewrite-free property is the
    whole point at 100 TB).

    Per file (one task each, files never visit the driver):

    1. ``renames`` (old → new) apply first, so a column that changed
       name counts as present under its new name
    2. hive partition segments (``k=v``) on the file's relative path
       re-attach as string columns when the target schema names them
    3. columns the file predates fill from ``defaults`` (a typed
       constant per column; absent → nulls)
    4. every column casts to the target type (safe cast — widening
       int32→int64 etc.; a lossy mismatch raises rather than corrupts)
    5. columns not in the target schema drop; output column order is
       the target order, so downstream blocks are schema-identical

    Files and directories with ``_``/``.`` prefixes are skipped (same
    discovery convention as the delta log)."""
    import pyarrow.compute as pc

    renames = dict(renames or {})
    defaults = dict(defaults or {})
    bad = [c for c in defaults if c not in target.names]
    if bad:
        raise ValueError(f"read_evolved: defaults for columns not in "
                         f"target schema: {bad}")
    files = []
    for dp, dns, fns in os.walk(root):
        dns[:] = [d for d in dns if not d.startswith(("_", "."))]
        for f in sorted(fns):
            if f.endswith(".parquet") and not f.startswith(("_", ".")):
                files.append(os.path.relpath(os.path.join(dp, f), root))
    if not files:
        raise ValueError(f"read_evolved: no parquet files under {root}")

    def evolve_one(rel: str) -> "pa.Table":
        t = pq.read_table(os.path.join(root, rel))
        t = t.rename_columns([renames.get(c, c) for c in t.column_names])
        parts = dict(seg.split("=", 1) for seg in rel.split(os.sep)[:-1]
                     if "=" in seg)
        cols = []
        for field in target:
            if field.name in t.column_names:
                col = t[field.name]
            elif field.name in parts:
                col = pa.array([parts[field.name]] * t.num_rows,
                               type=pa.string())
            elif field.name in defaults:
                col = pa.array([defaults[field.name]] * t.num_rows)
            else:
                col = pa.nulls(t.num_rows)
            cols.append(pc.cast(col, field.type))
        return pa.table(dict(zip(target.names, cols)))

    return _each(files, evolve_one)
