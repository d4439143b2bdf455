"""Temporal operators over an event stream table: gap sessionization and
as-of joins.

Ray Data has no event-time windowing; the guide's pattern applies — treat
the table as a partitioned log: hash-partition by entity key, sort within
the partition by timestamp, and run the window logic with pandas.  The
ordering assumption: per-key event order is established inside each
partition, no global order is required (SURVEY.md §2.9 — the reference's
hour-bucket files are pre-materialized tumbling windows; these operators
generalize that).

All three operators group by a HASH BUCKET of the key, not the key itself
(:func:`zeeklog_ray.relational.bucket_exchange`): Ray's grouped execution
pays Python per group, so a per-user groupby scales its overhead with user
cardinality; bucketing keeps every row of a key co-located while the
per-bucket work is one C-level pandas pass (sort by (key, ts) + grouped
aggregation / ``merge_asof(by=key)``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data

from zeeklog_ray.relational import bucket_exchange


def sessionize(ds: "ray.data.Dataset", key: str = "user_id", ts: str = "ts",
               gap_minutes: int = 30,
               num_buckets: int = 1024) -> "ray.data.Dataset":
    """Gap-based sessions: a new session starts when the time since the
    previous event of the same key exceeds ``gap_minutes``.

    Output: one row per (key, session_id) with n_events, session start/end.
    ``session_id`` is 0-based per key in time order — deterministic given
    the input, independent of partitioning.
    """
    gap = pd.Timedelta(minutes=gap_minutes)

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values([key, ts], kind="mergesort")
        key_change = g[key].ne(g[key].shift())
        boundary = key_change | (g[ts].diff() > gap)
        sid = boundary.cumsum()                 # global session label
        out = g.groupby(sid, sort=True).agg(**{
            key: (key, "first"),
            "n_events": (ts, "size"),
            "session_start": (ts, "min"),
            "session_end": (ts, "max"),
        }).reset_index(drop=True)
        # 0-based per-key id in time order (sid is already time-ordered
        # within each key after the (key, ts) sort)
        out["session_id"] = out.groupby(key, sort=False).cumcount()
        return out[[key, "session_id", "n_events",
                    "session_start", "session_end"]]

    return bucket_exchange(ds, key, per_bucket, num_buckets)


def session_counts(ds: "ray.data.Dataset", key: str = "user_id", ts: str = "ts",
                   gap_minutes: int = 30,
                   num_buckets: int = 1024) -> "ray.data.Dataset":
    """Per-key session count (the compact, oracle-friendly view)."""
    gap = pd.Timedelta(minutes=gap_minutes)

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values([key, ts], kind="mergesort")
        key_change = g[key].ne(g[key].shift())
        brk = (g[ts].diff() > gap) & ~key_change
        tmp = pd.DataFrame({key: g[key].to_numpy(), "_brk": brk.to_numpy()})
        out = tmp.groupby(key, sort=False).agg(
            n_sessions=("_brk", "sum"), n_events=("_brk", "size")).reset_index()
        out["n_sessions"] = out["n_sessions"].astype("int64") + 1
        out["n_events"] = out["n_events"].astype("int64")
        return out

    return bucket_exchange(ds, key, per_bucket, num_buckets)


def lead_lag(ds: "ray.data.Dataset", key: str = "user_id", ts: str = "ts",
             order_extra: list[str] | None = None,
             num_buckets: int = 1024) -> "ray.data.Dataset":
    """Per-key LAG/LEAD: append ``prev_<ts>`` / ``next_<ts>`` — the
    neighboring event timestamps of the same key in ``(ts, *order_extra)``
    order (``order_extra`` makes ties deterministic; pass a unique id).
    First/last event of a key gets null; null-key rows form no sequence
    (both neighbors null — the asof_join null-key semantic).

    Same shape as :func:`sessionize`: one key-hash-bucket shuffle, then a
    C-level per-bucket pass (sort + shift + key-change mask) — no per-key
    Python.  SQL equivalent: ``LAG/LEAD(ts) OVER (PARTITION BY key ORDER
    BY ts, ...)``.
    """
    extra = order_extra or []
    prev_col, next_col = f"prev_{ts}", f"next_{ts}"

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values([key, ts] + extra, kind="mergesort")
        same_prev = g[key].eq(g[key].shift())          # False on NaN keys
        same_next = g[key].eq(g[key].shift(-1))
        g = g.assign(**{prev_col: g[ts].shift().where(same_prev),
                        next_col: g[ts].shift(-1).where(same_next)})
        return g

    return bucket_exchange(ds, key, per_bucket, num_buckets)


def range_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
               key: str, ts: str, start: str, end: str,
               right_cols: list[str] | None = None,
               num_buckets: int = 1024) -> "ray.data.Dataset":
    """Interval (range) join: every (left row, right interval) pair of the
    same key with ``right.start <= left.ts <= right.end`` — INNER
    semantics, one output row per containing interval (overlapping
    intervals multiply).

    Same co-partition shape as :func:`asof_join` (tagged union + one
    key-hash-bucket shuffle); inside a bucket the containment test is one
    C-level ``merge``-on-key + vectorized between-mask.  Partitioning
    assumption: a key's rows × its intervals fit one task (salt by time
    range first if a single key's cross-product exceeds worker memory —
    intervals per key are usually few: sessions, campaigns, deployments).
    Null keys/timestamps/bounds match nothing and are dropped (inner join).
    """
    right_cols = right_cols or []
    lschema = left.schema()
    lcols = list(lschema.names)
    bad = [c for c in [start, end] + right_cols if c in lcols]
    if bad:
        raise ValueError(
            f"right columns {bad} collide with left columns — rename first")
    # the tagged union null-fills each side's columns on the other side's
    # rows — a numpy int64 column would promote to float64 for the WHOLE
    # block, silently rounding ids above 2^53.  Carry integer columns as
    # pandas NULLABLE Int dtypes through the union (null-fill keeps them
    # exact — verified: 2^53+1 survives concat) and cast back to numpy
    # int on the way out (matched rows are never null there).
    import pyarrow as _pa

    def _int_dtype(typ):
        # Dataset.schema() carries Arrow types for Arrow blocks but
        # numpy/python types for pandas blocks — handle both; normalize to
        # an np.dtype instance (to_pandas_dtype returns the scalar CLASS)
        if isinstance(typ, _pa.DataType):
            return (np.dtype(typ.to_pandas_dtype())
                    if _pa.types.is_integer(typ) else None)
        try:
            return np.dtype(typ) if np.issubdtype(typ, np.integer) else None
        except TypeError:
            return None

    int_casts = {}
    out_cols_set = set(lcols + [start, end] + right_cols)
    for sch in (lschema, right.schema()):
        for name, typ in zip(sch.names, sch.types):
            dt = _int_dtype(typ)
            if dt is not None and name in out_cols_set:
                int_casts[name] = dt
    # numpy int dtype → pandas nullable twin (same width, NA-safe)
    _nullable = {"int8": "Int8", "int16": "Int16", "int32": "Int32",
                 "int64": "Int64", "uint8": "UInt8", "uint16": "UInt16",
                 "uint32": "UInt32", "uint64": "UInt64"}
    nullable_casts = {c: _nullable[str(dt)] for c, dt in int_casts.items()}

    def tag(side: int):
        def f(batch: pd.DataFrame) -> pd.DataFrame:
            batch = batch.copy()
            for c, dt in nullable_casts.items():
                if c in batch.columns:
                    batch[c] = batch[c].astype(dt)
            batch["_side"] = np.int8(side)
            return batch

        return f

    both = left.map_batches(tag(0), batch_format="pandas", batch_size=None) \
        .union(right.map_batches(tag(1), batch_format="pandas",
                                 batch_size=None))
    out_cols = lcols + [start, end] + right_cols

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        # select each side's KNOWN columns and bail on an empty side BEFORE
        # any dropna — a bucket holding only one side's rows lacks the
        # other side's columns entirely (the asof_join lesson: never
        # dropna-by-column on a possibly-single-sided block)
        lg = group.loc[group["_side"] == 0,
                       [c for c in lcols if c in group.columns]]
        rg = group.loc[group["_side"] == 1,
                       [c for c in [key, start, end] + right_cols
                        if c in group.columns]]
        if lg.empty or rg.empty:
            return pd.DataFrame(columns=out_cols).astype(int_casts)
        lg = lg.dropna(subset=[key, ts])
        rg = rg.dropna(subset=[key, start, end])
        if lg.empty or rg.empty:
            return pd.DataFrame(columns=out_cols).astype(int_casts)
        m = lg.merge(rg, on=key, how="inner")
        keep = (m[ts] >= m[start]) & (m[ts] <= m[end])
        return m.loc[keep, out_cols].astype(int_casts)

    return bucket_exchange(both, key, per_bucket, num_buckets)


def asof_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
              key: str, ts: str, right_cols: list[str],
              suffix: str = "_r",
              num_buckets: int = 1024) -> "ray.data.Dataset":
    """As-of join: for each left row, the latest right row of the same key
    with right.ts <= left.ts.

    Implementation: co-partition both sides by key-hash bucket via a tagged
    union + single ``groupby`` (one shuffle), then ONE
    ``pd.merge_asof(..., by=key)`` per bucket — the per-key matching is
    C-level inside merge_asof, no per-key Python.  At scale, salt wide
    keys and pre-bucket by time range.

    Right columns keep their names; ``suffix`` applies when a name
    collides with a left column.  Null-key and null-timestamp left rows
    get null right columns (they match nothing — and must not reach
    ``merge_asof``, which rejects nulls in both ``by`` and ``on``; NaT
    sorts last, so a sort alone would not isolate it).  Null-timestamp
    right rows are dropped (nothing can match them).
    """
    lcols = list(left.schema().names)
    bad = [c for c in right_cols if c in (key, ts)]
    if bad:
        raise ValueError(f"right_cols must not include the join keys {bad}")
    # output name per right col, fixed up front so every bucket emits the
    # SAME schema regardless of which branch it takes
    out_name = {c: (c + suffix if c in lcols else c) for c in right_cols}

    def tag(side: int):
        def f(batch: pd.DataFrame) -> pd.DataFrame:
            batch = batch.copy()
            batch["_side"] = np.int8(side)
            return batch

        return f

    both = left.map_batches(tag(0), batch_format="pandas", batch_size=None) \
        .union(right.map_batches(tag(1), batch_format="pandas", batch_size=None))

    def _split(group: pd.DataFrame, side: int, keep: list[str]) -> pd.DataFrame:
        g = group[group["_side"] == side]
        return g[[c for c in keep if c in g.columns]]

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        # select by the SIDE's known columns — never dropna-by-column,
        # which removed the key column when a bucket's keys were all null
        lg = _split(group, 0, lcols)
        rg = _split(group, 1, [key, ts] + right_cols)
        if lg.empty:
            return pd.DataFrame(columns=lcols + [out_name[c]
                                                 for c in right_cols])
        lg = lg.sort_values(ts, kind="mergesort")
        null_key = lg[key].isna() | lg[ts].isna()
        matched = lg[~null_key]
        rg = rg.dropna(subset=[key, ts]) if len(rg) else rg
        if rg.empty or matched.empty:
            out = lg.copy()
            for c in right_cols:
                out[out_name[c]] = pd.NA
            return out
        rg = rg.sort_values(ts, kind="mergesort") \
            .rename(columns={c: out_name[c] for c in right_cols})
        out = pd.merge_asof(matched, rg, on=ts, by=key,
                            direction="backward")
        if null_key.any():                     # null keys match nothing
            rest = lg[null_key].copy()
            for c in right_cols:
                rest[out_name[c]] = pd.NA
            out = pd.concat([out, rest], ignore_index=True)
        return out

    return bucket_exchange(both, key, per_bucket, num_buckets)
