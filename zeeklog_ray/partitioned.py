"""Hive-partitioned Parquet output + partition-pruned reads, and
range-sorted zone-map export + range-pruned scans.

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
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np
import pandas as pd

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


def _streaming_boundaries(ds: "ray.data.Dataset", col: str,
                          num_files: int, per_block: int = 65,
                          ctx: str = "write_sorted_zonemap") -> np.ndarray:
    """Range boundaries for ``col`` from ONE streaming pass — no
    ``count()``, no ``materialize()``: each block emits ≤ ``per_block``
    evenly spaced order statistics weighted by the rows they stand for,
    and one reduce task merges them into ``num_files - 1`` weighted
    quantiles.  Deterministic (order statistics, no RNG), and the driver
    only ever sees the final boundary array; the per-block sample table
    (O(blocks × per_block) scalar pairs) merges inside a worker task, so
    at 10^12 rows nothing larger than the boundaries reaches the driver.
    Nulls in the sort key raise, same contract as ``global_rank``."""

    def block_stats(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch[col]
        if v.isna().any():
            raise ValueError(f"{ctx}: null values in {col!r}")
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
        raise ValueError(f"{ctx}: empty dataset")
    return merged["v"].to_numpy()


def write_sorted_zonemap(ds: "ray.data.Dataset", col: str, root: str,
                         num_files: int = 64, sample_n: int = 8192,
                         seed: int = 7, spill_dir: str | None = None,
                         pin: bool = False) -> dict:
    """Range-sorted Parquet export with a zone-map manifest.

    Shape: ONE streaming pass computes range boundaries for ``col``
    (per-block order statistics merged into weighted quantiles —
    :func:`_streaming_boundaries`; deterministic, nothing pinned), then a
    second pass tags each row with its range bucket row-locally and ONE
    bucketed shuffle lets each range sort itself and write its own file
    (``part-<bucket>.parquet``, tempfile + ``os.replace`` so a re-run of a
    failed range is atomic — the resumable-output contract).  Only the
    one-row-per-file stats table returns to the driver, which writes
    ``manifest.json``: ``{"col", "files": [{"path", "min", "max",
    "rows"}, ...]}``.

    The default path never materializes the input: the two passes each
    re-execute the upstream plan, which for the intended input (a
    deterministic ``read_parquet``) costs one extra scan and keeps the
    object store flat — at 10^12 rows a full-input pin would BE the
    bottleneck.  For an expensive or non-deterministic upstream, pass
    ``spill_dir`` (stage the input once as Parquet via ``pin_or_spill``
    and run both passes off the staged copy — the 100-TB-safe pin) or
    ``pin=True`` (object-store materialize, small inputs only).

    Sorting is a global all-to-all by construction (same as any ORDER BY);
    everything after it is file-local.  Null sort keys are rejected like
    ``global_rank`` (make the null policy explicit upstream).  Returns the
    manifest dict.  ``sample_n``/``seed`` are accepted for signature
    compatibility; the streaming sampler is deterministic without RNG."""
    from zeeklog_ray.spill import pin_or_spill

    os.makedirs(root, exist_ok=True)
    if spill_dir is not None:
        proj = pin_or_spill(ds, spill_dir, "zonemap_input")
    elif pin:
        proj = ds.materialize()
    else:
        proj = ds
    boundaries = _streaming_boundaries(proj, col, num_files)
    bref = ray.put(boundaries)

    def assign(batch: pd.DataFrame) -> pd.DataFrame:
        if batch[col].isna().any():
            raise ValueError(f"write_sorted_zonemap: null values in {col!r}")
        batch = batch.copy()
        batch["_rb"] = np.searchsorted(
            ray.get(bref), batch[col].to_numpy(),
            side="right").astype(np.int64)
        return batch

    def write_range(group: pd.DataFrame) -> pd.DataFrame:
        import pyarrow as pa
        import pyarrow.parquet as pq

        b = int(group["_rb"].iloc[0])
        g = group.sort_values(col, kind="mergesort").drop(columns=["_rb"])
        path = os.path.join(root, f"part-{b:05d}.parquet")
        fd, tmp = tempfile.mkstemp(dir=root, suffix=".parquet.tmp")
        os.close(fd)
        pq.write_table(pa.Table.from_pandas(g, preserve_index=False), tmp)
        _fsync_file(tmp)  # data durable before the rename publishes it
        os.replace(tmp, path)
        lo, hi = g[col].iloc[0], g[col].iloc[-1]
        return pd.DataFrame({"path": [path],
                             "min": [lo], "max": [hi],
                             "rows": [np.int64(len(g))]})

    stats = proj.map_batches(assign, batch_format="pandas",
                             batch_size=None) \
        .groupby("_rb").map_groups(write_range, batch_format="pandas") \
        .to_pandas().sort_values("path")
    manifest = {"col": col, "files": [
        {"path": r.path, "min": _json_bound(r.min, col),
         "max": _json_bound(r.max, col), "rows": int(r.rows)}
        for r in stats.itertuples()]}
    # atomic like the part files: a process killed mid-dump must not
    # leave a truncated manifest that reads as a completed export
    fd, tmp = tempfile.mkstemp(dir=root, suffix=".json.tmp")
    with os.fdopen(fd, "w") as f:
        json.dump(manifest, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, os.path.join(root, "manifest.json"))
    _fsync_dir(root)
    return manifest


def _fsync_file(path: str) -> None:
    """fsync a file's data blocks.  Durability ordering is the whole
    point of the compaction journal: the journal must not become durable
    before the merged data it commits, or a crash rolls FORWARD onto
    truncated files."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(d: str) -> None:
    """fsync a directory so renames within it are durable."""
    fd = os.open(d, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


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
    import pyarrow.parquet as pq

    disk = {f for f in os.listdir(root)
            if f.endswith(".parquet") and not f.startswith(".")}
    entries = {os.path.basename(e["path"]): e for e in manifest["files"]}
    if disk != set(entries):
        return True
    for name, e in entries.items():
        md = pq.read_metadata(os.path.join(root, name))
        if md.num_rows != e["rows"]:
            return True
    return False


def rebuild_zonemap_manifest(root: str, col: str | None = None) -> dict:
    """Rebuild ``manifest.json`` from the Parquet files currently in
    ``root`` — the refresh step after :func:`compact_partition_dir`
    merges a zonemapped directory's files.  Zones stay correct under any
    file rearrangement because a zone is just the file's actual
    ``[min, max]``: a compacted file spanning two old ranges gets the
    union zone (coarser pruning, same answers).

    Bounds are computed from the zone COLUMN's data (one-column read per
    file), not footer statistics — Parquet string min/max stats may be
    truncated, and a rounded bound could prune a file that holds matching
    rows.  The files were just fully read+written by the merge, so the
    extra one-column scan is marginal."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    if col is None:
        with open(os.path.join(root, "manifest.json")) as f:
            col = json.load(f)["col"]
    entries = []
    for name in sorted(f for f in os.listdir(root)
                       if f.endswith(".parquet") and not f.startswith(".")):
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
    fd, tmp = tempfile.mkstemp(dir=root, suffix=".json.tmp")
    with os.fdopen(fd, "w") as f:
        json.dump(manifest, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, os.path.join(root, "manifest.json"))
    _fsync_dir(root)
    return manifest


def zonemap_scan(root: str, lo, hi, validate: bool = True
                 ) -> "ray.data.Dataset":
    """Range query over a :func:`write_sorted_zonemap` export: open ONLY
    the overlapping files (zone pruning), then a row-local Arrow filter
    trims the two boundary files.  An empty intersection still reads one
    file's schema (and filters everything) so the result Dataset keeps
    its columns — the empty-``to_pandas`` schema-loss quirk is documented
    in BASELINE.md.

    ``validate=True`` (default) guards against a stale manifest
    (:func:`zonemap_manifest_is_stale` — file set or row-count mismatch,
    e.g. a compaction that didn't refresh): pruning is abandoned and ALL
    files are scanned with the row-local trim, which is slower but never
    wrong.  Pass ``validate=False`` to skip the footer checks when the
    caller owns the root's lifecycle."""
    import pyarrow.compute as pc

    with open(os.path.join(root, "manifest.json")) as f:
        manifest = json.load(f)
    col = manifest["col"]
    if validate and zonemap_manifest_is_stale(root, manifest):
        paths = [os.path.join(root, f) for f in sorted(os.listdir(root))
                 if f.endswith(".parquet") and not f.startswith(".")]
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


def compact_partition_dir(part_dir: str, target_rows: int) -> dict:
    """Compact ONE partition directory's small Parquet files into files
    of ~``target_rows`` rows, crash-safe via a roll-forward journal.

    Protocol (rerunnable at every step):

    1. recover any interrupted compaction (see :func:`_recover_compaction`)
    2. PLAN from footer metadata only (``pq.read_metadata`` per file —
       no data bytes): greedy-pack files in name order into groups whose
       row sum reaches ``target_rows``; groups of one file are skipped
       (already compact), so a second run is a no-op
    3. write every group's merged file as ``compact-*.parquet.tmp``
    4. journal ``{"olds": [...], "news": [...]}`` (atomic replace)
    5. rename tmps into place, delete olds, delete the journal

    A crash before (4) leaves only tmps — recovery deletes them and the
    originals are untouched.  A crash after (4) is rolled FORWARD —
    recovery re-renames any surviving tmps and deletes any surviving
    olds, because the journal only commits after every tmp is fully
    written.  Readers between (4) and (5) may see both an old and its
    compacted copy — compact into a quiesced snapshot (the standard
    table-maintenance contract; a manifest-pinned reader like
    ``zonemap_scan`` never sees uncommitted files).

    Returns ``{"dir", "files_before", "files_after", "rows"}``.
    """
    import uuid

    import pyarrow.parquet as pq

    _recover_compaction(part_dir)
    files = sorted(f for f in os.listdir(part_dir)
                   if f.endswith(".parquet") and not f.startswith("."))
    counts = {f: pq.read_metadata(os.path.join(part_dir, f)).num_rows
              for f in files}
    groups: list[list[str]] = []
    cur: list[str] = []
    acc = 0
    for f in files:
        cur.append(f)
        acc += counts[f]
        if acc >= target_rows:
            groups.append(cur)
            cur, acc = [], 0
    if cur:
        groups.append(cur)
    plan = [g for g in groups if len(g) > 1]
    olds, news = [], []
    for g in plan:
        tables = [pq.read_table(os.path.join(part_dir, f)) for f in g]
        import pyarrow as pa

        merged = pa.concat_tables(tables, promote_options="default")
        name = f"compact-{uuid.uuid4().hex[:12]}.parquet"
        tmp_data = os.path.join(part_dir, name + ".tmp")
        pq.write_table(merged, tmp_data)
        _fsync_file(tmp_data)  # data durable BEFORE the journal commits it
        olds.extend(g)
        news.append(name)
    if plan:
        fd, tmp = tempfile.mkstemp(dir=part_dir, suffix=".journal.tmp")
        with os.fdopen(fd, "w") as f:
            json.dump({"olds": olds, "news": news}, f)
            f.flush()
            os.fsync(f.fileno())  # journal blocks durable before the rename
        os.replace(tmp, os.path.join(part_dir, "_compaction.journal"))
        _fsync_dir(part_dir)  # the commit point: journal rename durable
        _recover_compaction(part_dir)  # the same roll-forward commits it
    if plan and os.path.exists(os.path.join(part_dir, "manifest.json")):
        # a zonemapped dir was compacted: refresh the manifest so
        # zonemap_scan keeps pruning (a stale one falls back to full scan)
        rebuild_zonemap_manifest(part_dir)
    after = [f for f in os.listdir(part_dir)
             if f.endswith(".parquet") and not f.startswith(".")]
    return {"dir": part_dir, "files_before": len(files),
            "files_after": len(after),
            "rows": int(sum(counts.values()))}


def _recover_compaction(part_dir: str) -> None:
    """Roll an interrupted :func:`compact_partition_dir` forward (journal
    present and parseable: finish renames + deletes) or back (no journal,
    OR a torn/unparseable journal: drop orphan tmps, keep the originals).

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
        os.remove(journal_path)
        _fsync_dir(part_dir)
    else:
        for f in os.listdir(part_dir):
            if f.endswith(".parquet.tmp"):
                os.remove(os.path.join(part_dir, f))
        if os.path.exists(journal_path):
            os.remove(journal_path)


def compact_partitions(root: str,
                       target_rows: int = 1_000_000) -> pd.DataFrame:
    """Compact every ``<col>=<value>`` partition directory under ``root``
    — the small-file table-maintenance pass every long-running ingest
    needs (each incremental run appends a few small files per partition;
    unmaintained, a year of runs makes reads metadata-bound).

    Fan-out: one :func:`compact_partition_dir` call per partition via a
    ``map_batches`` task pool — partitions are independent, so this
    parallelizes to the cluster width and a re-run skips already-compact
    partitions (the per-dir protocol is idempotent).  Only the per-dir
    report rows return to the driver."""
    parts = sorted(
        os.path.join(root, d) for d in os.listdir(root)
        if os.path.isdir(os.path.join(root, d)) and "=" in d)
    if not parts:
        raise ValueError(f"compact_partitions: no hive partitions in {root}")

    def compact_one(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame([compact_partition_dir(d, target_rows)
                             for d in batch["dir"]])

    reports = ray.data.from_pandas(pd.DataFrame({"dir": parts})) \
        .repartition(len(parts)) \
        .map_batches(compact_one, batch_format="pandas", batch_size=None)
    return reports.to_pandas().sort_values("dir").reset_index(drop=True)


def upsert_partition_dir(part_dir: str, staging_dir: str, key: str,
                         order_col: str,
                         deleted_col: str | None = None) -> dict:
    """Apply one partition's change rows (Parquet files under
    ``staging_dir``) to ``part_dir`` with LATEST-WINS per ``key`` on
    ``order_col`` — copy-on-write upsert, crash-safe via the exact
    journal protocol of :func:`compact_partition_dir` (same journal
    name, same roll-forward recovery, same fsync ordering: tmp data →
    journal blocks → journal rename → directory).

    Ties on ``order_col`` break in favor of the CHANGE row (existing
    rows sort first, stable sort, keep=last).  When ``deleted_col`` is
    given, a change row with a true value there is a TOMBSTONE: if it is
    the latest version of its key, the key disappears from the
    partition (the tombstone itself is not written — this store has no
    merge-on-read readers to replay it, so compaction of tombstones is
    immediate).  A partition with no existing directory is created.

    The whole partition rewrites into one file — the copy-on-write
    trade: reads stay plain Parquet scans, and the write cost is why
    callers partition by something change-local (ingest day), so a CDC
    batch touches only recent partitions."""
    import uuid

    import pyarrow as pa
    import pyarrow.parquet as pq

    os.makedirs(part_dir, exist_ok=True)
    _recover_compaction(part_dir)
    olds = sorted(f for f in os.listdir(part_dir)
                  if f.endswith(".parquet") and not f.startswith("."))
    existing = [pq.read_table(os.path.join(part_dir, f)) for f in olds]
    changes = [pq.read_table(os.path.join(staging_dir, f))
               for f in sorted(os.listdir(staging_dir))
               if f.endswith(".parquet")]
    if not changes:
        return {"dir": part_dir, "rows_before": int(
            sum(t.num_rows for t in existing)), "rows_after": int(
            sum(t.num_rows for t in existing)), "changes": 0,
            "deleted": 0}
    ch = pa.concat_tables(changes, promote_options="default") \
        .to_pandas()
    n_changes = len(ch)
    if deleted_col is None:
        ch = ch.assign(**{"_tomb": False})
    else:
        ch = ch.rename(columns={deleted_col: "_tomb"})
        ch["_tomb"] = ch["_tomb"].fillna(False).astype(bool)
    if existing:
        ex = pa.concat_tables(existing, promote_options="default") \
            .to_pandas()
        ex["_tomb"] = False
        both = pd.concat([ex, ch], ignore_index=True)  # changes LAST
    else:
        both = ch
    both = both.sort_values(order_col, kind="stable")
    merged = both.drop_duplicates(subset=[key], keep="last")
    n_del = int(merged["_tomb"].sum())
    merged = merged[~merged["_tomb"]].drop(columns=["_tomb"])
    name = f"upsert-{uuid.uuid4().hex[:12]}.parquet"
    tmp_data = os.path.join(part_dir, name + ".tmp")
    pq.write_table(pa.Table.from_pandas(merged, preserve_index=False),
                   tmp_data)
    _fsync_file(tmp_data)   # data durable BEFORE the journal commits it
    fd, tmp = tempfile.mkstemp(dir=part_dir, suffix=".journal.tmp")
    with os.fdopen(fd, "w") as f:
        json.dump({"olds": olds, "news": [name]}, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, os.path.join(part_dir, "_compaction.journal"))
    _fsync_dir(part_dir)    # commit point
    _recover_compaction(part_dir)
    if os.path.exists(os.path.join(part_dir, "manifest.json")):
        rebuild_zonemap_manifest(part_dir)
    return {"dir": part_dir,
            "rows_before": int(sum(t.num_rows for t in existing)),
            "rows_after": int(len(merged)), "changes": n_changes,
            "deleted": n_del}


def upsert_partitions(root: str, changes: "ray.data.Dataset",
                      part_col: str, key: str, order_col: str,
                      deleted_col: str | None = None) -> pd.DataFrame:
    """Apply a CDC change batch to a hive-partitioned store: stage the
    changes AS a hive-partitioned write (so change rows route to their
    partition without ever visiting the driver), then run one
    :func:`upsert_partition_dir` task per TOUCHED partition — untouched
    partitions are never read, listed, or rewritten, which is the whole
    economics of partition-by-ingest-day CDC at 100 TB.

    Returns the per-partition report frame (rows before/after, change
    and tombstone counts)."""
    import shutil as _shutil
    import uuid

    staging = os.path.join(root, f"_upsert_staging_{uuid.uuid4().hex[:8]}")
    changes.write_parquet(staging, partition_cols=[part_col])
    try:
        touched = sorted(d for d in os.listdir(staging)
                         if d.startswith(f"{part_col}="))
        if not touched:
            raise ValueError("upsert_partitions: change batch staged "
                             "zero partitions")
        pairs = pd.DataFrame({
            "dir": [os.path.join(root, d) for d in touched],
            "stage": [os.path.join(staging, d) for d in touched]})

        def upsert_one(batch: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame([
                upsert_partition_dir(d, s, key, order_col, deleted_col)
                for d, s in zip(batch["dir"], batch["stage"])])

        reports = ray.data.from_pandas(pairs).repartition(len(pairs)) \
            .map_batches(upsert_one, batch_format="pandas",
                         batch_size=None)
        return reports.to_pandas().sort_values("dir") \
            .reset_index(drop=True)
    finally:
        _shutil.rmtree(staging, ignore_errors=True)


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
    — same contract as the compaction journal.

    Returns a per-partition report (dir, seq, files, rows)."""
    import shutil as _shutil
    import uuid

    staging = os.path.join(root, f"_delta_staging_{uuid.uuid4().hex[:8]}")
    changes.write_parquet(staging, partition_cols=[part_col])
    try:
        import pyarrow.parquet as pq

        touched = sorted(d for d in os.listdir(staging)
                         if d.startswith(f"{part_col}="))
        if not touched:
            raise ValueError("append_deltas: change batch staged "
                             "zero partitions")
        _sweep_torn_deltas(root)
        seq = 1 + _store_delta_seq(root)
        rows = []
        for d in touched:
            part_dir = os.path.join(root, d)
            ddir = os.path.join(part_dir, "_deltas")
            os.makedirs(ddir, exist_ok=True)
            files = sorted(f for f in os.listdir(os.path.join(staging, d))
                           if f.endswith(".parquet"))
            n = 0
            for i, f in enumerate(files):
                src = os.path.join(staging, d, f)
                n += pq.read_metadata(src).num_rows
                dst = os.path.join(ddir, f"delta-{seq:06d}-{i:04d}.parquet")
                _shutil.move(src, dst)
                _fsync_file(dst)
            _fsync_dir(ddir)
            rows.append({"dir": part_dir, "seq": seq,
                         "files": len(files), "rows": n})
        _advance_store_delta_seq(root, seq)
        return pd.DataFrame(rows).sort_values("dir").reset_index(drop=True)
    finally:
        _shutil.rmtree(staging, ignore_errors=True)


def _store_delta_seq(root: str) -> int:
    """Current store-global delta sequence: the ``_delta_seq`` counter
    file when present, else rebuilt as the max sequence across every
    partition's delta files (0 on a fresh store).  The counter survives
    :func:`compact_deltas` folds, so snapshot ids stay monotonic across
    the store's whole history even after the log is compacted away."""
    committed = _committed_delta_seq(root)
    if committed is not None:
        return committed
    best = 0
    for d in os.listdir(root):
        ddir = os.path.join(root, d, "_deltas")
        if "=" in d and os.path.isdir(ddir):
            best = max(best, max(
                (_delta_seq(f) for f in os.listdir(ddir)
                 if f.startswith("delta-")), default=0))
    return best


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
    for d in os.listdir(root):
        ddir = os.path.join(root, d, "_deltas")
        if "=" not in d or not os.path.isdir(ddir):
            continue
        torn = [f for f in os.listdir(ddir)
                if f.startswith("delta-") and f.endswith(".parquet")
                and _delta_seq(f) > committed]
        for f in torn:
            fp = os.path.join(ddir, f)
            n_bytes += os.path.getsize(fp)
            os.remove(fp)
        if torn:
            _fsync_dir(ddir)
            n_files += len(torn)
    return n_files, n_bytes


def _advance_store_delta_seq(root: str, seq: int) -> None:
    """Commit the counter AFTER the batch's delta files are durable —
    the counter advance IS the append's commit point: delta files with
    a sequence above the counter are a torn batch (crash between file
    moves and counter advance), which readers and folds ignore and
    :func:`vacuum_store` reclaims.  The one uncovered window is a crash
    on the very first append of a legacy store with no counter file —
    there the rebuild walk cannot tell torn from committed and assumes
    committed (documented legacy trade)."""
    path = os.path.join(root, "_delta_seq")
    fd, tmp = tempfile.mkstemp(dir=root, suffix=".seq.tmp")
    with os.fdopen(fd, "w") as f:
        f.write(str(seq))
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    _fsync_dir(root)


def _delta_seq(fname: str) -> int:
    """Batch sequence number encoded in a delta file name
    (``delta-{seq:06d}-{i:04d}.parquet``)."""
    return int(fname.split("-")[1])


def _merged_partition_table(part_dir: str, key: str, order_col: str,
                            deleted_col: str | None,
                            as_of_seq: int | None = None) -> pd.DataFrame:
    """One partition's merge-on-read view as a DataFrame: base files,
    then delta files in sequence order, stable-sorted on ``order_col``
    with keep=last per ``key`` — EXACTLY the :func:`upsert_partition_dir`
    merge (concat order is sequence order, so equal-``order_col`` ties
    resolve to the latest delta), tombstones dropped at the end.

    ``as_of_seq`` is the TIME-TRAVEL knob: only delta batches with
    sequence number ≤ ``as_of_seq`` apply (0 = base only, None = all) —
    every append is a retained snapshot until :func:`compact_deltas`
    folds the log, which collapses history into the base (the standard
    table-format trade: snapshot retention ends where compaction
    begins)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    base_files = sorted(f for f in os.listdir(part_dir)
                        if f.endswith(".parquet") and not f.startswith("."))
    ddir = os.path.join(part_dir, "_deltas")
    delta_files = (sorted(f for f in os.listdir(ddir)
                          if f.endswith(".parquet"))
                   if os.path.isdir(ddir) else [])
    if as_of_seq is not None:
        delta_files = [f for f in delta_files
                       if _delta_seq(f) <= as_of_seq]
    tabs = [pq.read_table(os.path.join(part_dir, f)).to_pandas()
            for f in base_files]
    for t in tabs:
        t["_tomb"] = False
    for f in delta_files:
        t = pq.read_table(os.path.join(ddir, f)).to_pandas()
        if deleted_col is None:
            t["_tomb"] = False
        else:
            t = t.rename(columns={deleted_col: "_tomb"})
            t["_tomb"] = t["_tomb"].fillna(False).astype(bool)
        tabs.append(t)
    if not tabs:
        return pd.DataFrame()
    both = pd.concat(tabs, ignore_index=True)
    both = both.sort_values(order_col, kind="stable")
    merged = both.drop_duplicates(subset=[key], keep="last")
    return merged[~merged["_tomb"]].drop(columns=["_tomb"])


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
    parts = sorted(d for d in os.listdir(root)
                   if os.path.isdir(os.path.join(root, d)) and "=" in d)
    if not parts:
        raise ValueError(f"read_merged: no hive partitions in {root}")
    col = parts[0].split("=", 1)[0]
    committed = _store_delta_seq(root)
    eff_seq = committed if as_of_seq is None else min(as_of_seq, committed)

    def merge_one(batch: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for d in batch["part"]:
            m = _merged_partition_table(os.path.join(root, d), key,
                                        order_col, deleted_col,
                                        eff_seq)
            if len(m):
                m = m.copy()
                m[col] = d.split("=", 1)[1]
                outs.append(m)
        return (pd.concat(outs, ignore_index=True) if outs
                else pd.DataFrame())

    return ray.data.from_pandas(pd.DataFrame({"part": parts})) \
        .repartition(len(parts)) \
        .map_batches(merge_one, batch_format="pandas", batch_size=None)


def compact_deltas(root: str, key: str, order_col: str,
                   deleted_col: str | None = None) -> pd.DataFrame:
    """Fold every partition's pending delta log into its base — the
    maintenance pass that pays the merge ONCE so subsequent plain scans
    are delta-free.  Per partition: merge (same semantics as
    :func:`read_merged`), write one new base file, commit via the
    compaction journal with the old base files AND the folded delta
    files as ``olds`` — the existing roll-forward recovery then covers a
    crash at any point (and an interrupted fold that left deltas behind
    is harmless: re-applying an already-folded delta is idempotent —
    updates re-select the same winning rows, tombstones hit nothing).

    Partitions with no pending deltas are skipped (metadata-only)."""
    import uuid

    import pyarrow as pa
    import pyarrow.parquet as pq

    parts = sorted(d for d in os.listdir(root)
                   if os.path.isdir(os.path.join(root, d)) and "=" in d)
    if not parts:
        raise ValueError(f"compact_deltas: no hive partitions in {root}")
    committed = _store_delta_seq(root)

    def fold_one(part: str) -> dict:
        part_dir = os.path.join(root, part)
        _recover_compaction(part_dir)
        ddir = os.path.join(part_dir, "_deltas")
        # fold only COMMITTED deltas: a torn append (seq above the
        # counter) must never be absorbed into the base — vacuum owns it
        delta_files = (sorted(f for f in os.listdir(ddir)
                              if f.endswith(".parquet")
                              and _delta_seq(f) <= committed)
                       if os.path.isdir(ddir) else [])
        base_files = sorted(
            f for f in os.listdir(part_dir)
            if f.endswith(".parquet") and not f.startswith("."))
        if not delta_files:
            return {"dir": part_dir, "deltas_folded": 0, "rows": int(
                sum(pq.read_metadata(os.path.join(part_dir, f)).num_rows
                    for f in base_files))}
        merged = _merged_partition_table(part_dir, key, order_col,
                                         deleted_col, committed)
        name = f"fold-{uuid.uuid4().hex[:12]}.parquet"
        tmp_data = os.path.join(part_dir, name + ".tmp")
        pq.write_table(pa.Table.from_pandas(merged, preserve_index=False),
                       tmp_data)
        _fsync_file(tmp_data)  # data durable BEFORE the journal commits it
        olds = base_files + [os.path.join("_deltas", f)
                             for f in delta_files]
        fd, tmp = tempfile.mkstemp(dir=part_dir, suffix=".journal.tmp")
        with os.fdopen(fd, "w") as f:
            json.dump({"olds": olds, "news": [name]}, f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, os.path.join(part_dir, "_compaction.journal"))
        _fsync_dir(part_dir)   # commit point
        _recover_compaction(part_dir)
        if os.path.exists(os.path.join(part_dir, "manifest.json")):
            rebuild_zonemap_manifest(part_dir)
        return {"dir": part_dir, "deltas_folded": len(delta_files),
                "rows": int(len(merged))}

    def fold_batch(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame([fold_one(p) for p in batch["part"]])

    reports = ray.data.from_pandas(pd.DataFrame({"part": parts})) \
        .repartition(len(parts)) \
        .map_batches(fold_batch, batch_format="pandas", batch_size=None)
    return reports.to_pandas().sort_values("dir").reset_index(drop=True)

def vacuum_store(root: str) -> dict:
    """Garbage-collect crash litter from a partitioned store — the
    maintenance pass that keeps a long-lived 100-TB table from
    accumulating orphans the journal protocol cannot reach:

    - **staging directories** (``_upsert_staging_*`` /
      ``_delta_staging_*``): a driver that died between
      ``write_parquet`` and the per-partition apply tasks leaves a full
      staged copy of its change batch behind — invisible to readers
      (``_``-prefix) but real bytes at CDC scale
    - **orphan tmps** (``*.parquet.tmp`` / ``*.journal.tmp``) in every
      partition directory — first any COMMITTED journal is rolled
      forward via :func:`_recover_compaction` (so vacuum never deletes
      a tmp the journal still owns), then survivors are pre-commit
      garbage by the protocol's fsync-ordering argument and are dropped;
      plus root-level ``*.seq.tmp`` counter tmps left by a crash inside
      :func:`_advance_store_delta_seq` (counted in ``tmp_files``)

    Committed data is never touched: vacuum is a no-op on a healthy
    store (gated by the hash-green ``events_vacuum_roundtrip`` query,
    which vacuums a deliberately littered store and proves the content
    identical).  Single-writer contract, same as the journal: run
    vacuum quiesced, not concurrently with a writer whose tmps are
    in flight.

    - **torn delta batches**: delta files whose sequence is above the
      store's committed ``_delta_seq`` counter — an append that died
      before its commit point; already invisible to
      :func:`read_merged` / :func:`compact_deltas`, reclaimed here
      (skipped when the store predates the counter file or the counter
      is unreadable — then torn cannot be told from committed)

    Returns ``{"staging_dirs", "tmp_files", "torn_delta_files",
    "bytes_reclaimed", "partitions"}``."""
    import shutil as _shutil

    staging_dirs = tmp_files = torn_delta_files = 0
    bytes_reclaimed = n_parts = 0
    for d in sorted(os.listdir(root)):
        p = os.path.join(root, d)
        if d.startswith(("_upsert_staging_", "_delta_staging_")) \
                and os.path.isdir(p):
            bytes_reclaimed += sum(
                os.path.getsize(os.path.join(dp, f))
                for dp, _, fs in os.walk(p) for f in fs)
            _shutil.rmtree(p)
            staging_dirs += 1
        elif d.endswith(".seq.tmp") and os.path.isfile(p):
            bytes_reclaimed += os.path.getsize(p)
            os.remove(p)
            tmp_files += 1
        elif os.path.isdir(p) and "=" in d:
            n_parts += 1
            # snapshot tmps BEFORE recovery: the rollback path of
            # _recover_compaction deletes pre-commit tmps itself, and
            # those are reclaimed garbage too — but a COMMITTED
            # journal's tmps get renamed into place (base name appears),
            # which is a commit, not a reclaim
            pre = {f: os.path.getsize(os.path.join(p, f))
                   for f in os.listdir(p)
                   if f.endswith((".parquet.tmp", ".journal.tmp"))}
            _recover_compaction(p)  # committed journals roll forward
            for f, sz in pre.items():
                if not os.path.exists(os.path.join(p, f)) and \
                        not os.path.exists(
                            os.path.join(p, f[:-len(".tmp")])):
                    bytes_reclaimed += sz
                    tmp_files += 1
            for sub in (p, os.path.join(p, "_deltas")):
                if not os.path.isdir(sub):
                    continue
                for f in os.listdir(sub):
                    if f.endswith((".parquet.tmp", ".journal.tmp")):
                        fp = os.path.join(sub, f)
                        bytes_reclaimed += os.path.getsize(fp)
                        os.remove(fp)
                        tmp_files += 1
    torn_delta_files, torn_bytes = _sweep_torn_deltas(root)
    return {"staging_dirs": staging_dirs, "tmp_files": tmp_files,
            "torn_delta_files": torn_delta_files,
            "bytes_reclaimed": int(bytes_reclaimed + torn_bytes),
            "partitions": n_parts}


def refresh_group_sums(root: str, agg_root: str, key: str, order_col: str,
                       group_cols: list[str], sum_cols: list[str],
                       deleted_col: str | None = None,
                       parts: list[str] | None = None,
                       as_of_seq: int | None = None) -> pd.DataFrame:
    """Partition-incremental materialized-aggregate maintenance: keep a
    per-partition group-sum table (``SUM(sum_cols), COUNT(*) GROUP BY
    group_cols``) over the merged view of a delta-logged store, stored
    as ONE Parquet file per partition under ``agg_root``.

    ``parts`` is the incremental handle: pass the touched-partition
    list from an :func:`append_deltas` / :func:`upsert_partitions`
    report (the ``dir`` column; base names or full paths both work) and
    ONLY those partitions recompute — untouched partitions keep their
    existing aggregate file unread and unwritten, which is the whole
    point at 100 TB (a CDC batch touching 3 of 3,000 day-partitions
    costs 3 partition scans, not a table scan).  ``parts=None``
    rebuilds everything (first run / backfill).

    Per-partition refresh is recompute-idempotent and crash-safe via
    tmp + ``os.replace``: a died refresh leaves either the old file or
    the new one, both self-consistent; re-running converges.  Sums are
    emitted as ``sum_<col>`` int64 plus ``n`` — integer-exact, so the
    global rollup (a small groupby over partition aggregates) is
    hash-gated against SQL (``events_ivm_groupsum``).

    Returns the per-partition refresh report (dir, groups, rows)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    all_parts = sorted(d for d in os.listdir(root)
                       if os.path.isdir(os.path.join(root, d)) and "=" in d)
    if not all_parts:
        raise ValueError(f"refresh_group_sums: no hive partitions in {root}")
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
    eff_seq = committed if as_of_seq is None else min(as_of_seq, committed)

    def refresh_one(part: str) -> dict:
        m = _merged_partition_table(os.path.join(root, part), key,
                                    order_col, deleted_col, eff_seq)
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
        tmp = os.path.join(agg_root, f".{part}.parquet.tmp")
        pq.write_table(pa.Table.from_pandas(g, preserve_index=False), tmp)
        _fsync_file(tmp)
        os.replace(tmp, os.path.join(agg_root, f"{part}.parquet"))
        return {"dir": os.path.join(root, part), "groups": int(len(g)),
                "rows": int(g["n"].sum()) if len(g) else 0}

    def refresh_batch(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame([refresh_one(p) for p in batch["part"]])

    reports = ray.data.from_pandas(pd.DataFrame({"part": todo})) \
        .repartition(len(todo)) \
        .map_batches(refresh_batch, batch_format="pandas", batch_size=None)
    out = reports.to_pandas().sort_values("dir").reset_index(drop=True)
    _fsync_dir(agg_root)
    return out


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
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

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

    def evolve_batch(batch: pd.DataFrame) -> "pa.Table":
        tabs = [evolve_one(rel) for rel in batch["rel"]]
        return pa.concat_tables(tabs)

    return ray.data.from_pandas(pd.DataFrame({"rel": files})) \
        .repartition(len(files)) \
        .map_batches(evolve_batch, batch_format="pandas", batch_size=None)
