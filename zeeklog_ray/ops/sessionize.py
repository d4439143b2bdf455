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

from zeeklog_ray.relational import (_nullable_int, bucket_exchange, cogroup,
                                    to_pandas)


def sessionize(ds: "ray.data.Dataset", key: str = "user_id", ts: str = "ts",
               gap_minutes: int = 30) -> "ray.data.Dataset":
    """Gap-based sessions: a new session starts when the time since the
    previous event of the same key exceeds ``gap_minutes``.

    Output: one row per (key, session_id) with n_events, session start/end.
    ``session_id`` is 0-based per key in time order — deterministic given
    the input, independent of partitioning.
    """
    gap = pd.Timedelta(minutes=gap_minutes)

    def per_bucket(group: pa.Table) -> pd.DataFrame:
        g = to_pandas(group).sort_values([key, ts], kind="mergesort")
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

    return bucket_exchange(ds, key, per_bucket)


def session_counts(ds: "ray.data.Dataset", key: str = "user_id", ts: str = "ts",
                   gap_minutes: int = 30) -> "ray.data.Dataset":
    """Per-key session count (the compact, oracle-friendly view)."""
    gap = pd.Timedelta(minutes=gap_minutes)

    def per_bucket(group: pa.Table) -> pd.DataFrame:
        g = to_pandas(group).sort_values([key, ts], kind="mergesort")
        key_change = g[key].ne(g[key].shift())
        brk = (g[ts].diff() > gap) & ~key_change
        tmp = pd.DataFrame({key: g[key].to_numpy(), "_brk": brk.to_numpy()})
        out = tmp.groupby(key, sort=False).agg(
            n_sessions=("_brk", "sum"), n_events=("_brk", "size")).reset_index()
        out["n_sessions"] = out["n_sessions"].astype("int64") + 1
        out["n_events"] = out["n_events"].astype("int64")
        return out

    return bucket_exchange(ds, key, per_bucket)


def lead_lag(ds: "ray.data.Dataset", key: str = "user_id", ts: str = "ts",
             order_extra: list[str] | None = None) -> "ray.data.Dataset":
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

    def per_bucket(group: pa.Table) -> pd.DataFrame:
        g = to_pandas(group).sort_values([key, ts] + extra, kind="mergesort")
        same_prev = g[key].eq(g[key].shift())          # False on NaN keys
        same_next = g[key].eq(g[key].shift(-1))
        g = g.assign(**{prev_col: g[ts].shift().where(same_prev),
                        next_col: g[ts].shift(-1).where(same_next)})
        return g

    return bucket_exchange(ds, key, per_bucket)


def range_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
               key: str, ts: str, start: str, end: str,
               right_cols: list[str] | None = None) -> "ray.data.Dataset":
    """Interval (range) join: every (left row, right interval) pair of the
    same key with ``right.start <= left.ts <= right.end`` — INNER
    semantics, one output row per containing interval (overlapping
    intervals multiply).

    Same co-partition shape as :func:`asof_join` (one
    :func:`~zeeklog_ray.relational.cogroup` on the key, whose key rule
    rejects a key that is integer on one side only); inside a bucket the
    containment test is one C-level ``merge``-on-key + vectorized
    between-mask.  Partitioning assumption: a key's rows × its intervals
    fit one task (salt by time range first if a single key's
    cross-product exceeds worker memory — intervals per key are usually
    few: sessions, campaigns, deployments).  Null keys/timestamps/bounds
    match nothing and are dropped (inner join).
    """
    right_cols = right_cols or []
    lcols = list(left.schema().names)
    bad = [c for c in [start, end] + right_cols if c in lcols]
    if bad:
        raise ValueError(
            f"right columns {bad} collide with left columns — rename first")
    out_cols = lcols + [start, end] + right_cols

    def per_bucket(frames: list[pd.DataFrame]) -> pd.DataFrame:
        lg = frames[0].dropna(subset=[key, ts])
        rg = frames[1].dropna(subset=[key, start, end])
        m = lg.merge(rg, on=key, how="inner")
        if m.empty:          # an empty side's bounds may not be datetimes
            return m[out_cols]
        keep = (m[ts] >= m[start]) & (m[ts] <= m[end])
        return m.loc[keep, out_cols]

    return cogroup([left, right.select_columns([key, start, end]
                                               + right_cols)],
                   key, per_bucket)


def asof_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
              key: str, ts: str, right_cols: list[str],
              suffix: str = "_r") -> "ray.data.Dataset":
    """As-of join: for each left row, the latest right row of the same key
    with right.ts <= left.ts.

    Implementation: co-partition both sides by key-hash bucket with one
    :func:`~zeeklog_ray.relational.cogroup` (one shuffle; its key rule
    rejects a key that is integer on one side only), then ONE
    ``pd.merge_asof(..., by=key)`` per bucket — the per-key matching is
    C-level inside merge_asof, no per-key Python.  At scale, salt wide
    keys and pre-bucket by time range.

    Right columns keep their names; ``suffix`` applies when a name
    collides with a left column.  Left columns keep their dtypes; an
    integer right column comes out as a pandas nullable ``Int`` (left
    rows without a match hold nulls there).  Null-key and null-timestamp
    left rows get null right columns (they match nothing — and must not
    reach ``merge_asof``, which rejects nulls in both ``by`` and ``on``;
    NaT sorts last, so a sort alone would not isolate it).
    Null-timestamp right rows are dropped (nothing can match them).
    """
    lcols = list(left.schema().names)
    bad = [c for c in right_cols if c in (key, ts)]
    if bad:
        raise ValueError(f"right_cols must not include the join keys {bad}")
    # output name per right col, fixed up front so every bucket emits the
    # SAME schema regardless of which branch it takes
    out_name = {c: (c + suffix if c in lcols else c) for c in right_cols}

    def per_bucket(frames: list[pd.DataFrame]) -> pd.DataFrame:
        lg = frames[0].sort_values(ts, kind="mergesort")
        rg = frames[1].dropna(subset=[key, ts]) \
            .sort_values(ts, kind="mergesort").rename(columns=out_name)
        rg = rg.astype({c: _nullable_int(dt) for c, dt in rg.dtypes.items()
                        if c in out_name.values()
                        and pd.api.types.is_integer_dtype(dt)})
        null_key = (lg[key].isna() | lg[ts].isna()).to_numpy()
        out = pd.merge_asof(lg[~null_key], rg, on=ts, by=key,
                            direction="backward")
        if null_key.any():                     # null keys match nothing
            out = pd.concat([out, lg[null_key]], ignore_index=True)
        return out.astype(rg.dtypes.drop([key, ts]).to_dict())

    return cogroup([left, right.select_columns([key, ts] + right_cols)],
                   key, per_bucket)
