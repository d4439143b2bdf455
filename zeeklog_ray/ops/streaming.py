"""Windowed / stream-shaped processing over bucketed exchanges.

:func:`trailing_windows` is the per-event trailing window (SQL:
``SUM(..) OVER (PARTITION BY key ORDER BY ts RANGE BETWEEN <w> PRECEDING
AND CURRENT ROW)``), expressed as one key-hash exchange with a fully
vectorized two-pointer (``np.searchsorted`` over sorted timestamps +
prefix sums) inside each call.  One hash shuffle co-partitions each key,
every key segment computes in O(n log n) numpy, nothing streams through
the driver.  Partitioning assumption: one key's events fit in one call
(bound = events per key per window span × retention; salt by time-bucket
first if a single key exceeds worker memory).

Every function here is a bounded Ray Data job that returns a Dataset;
there is no incremental emit-as-you-go tier.  An unbounded feed runs as
successive bounded jobs, the way ``ops.dedup.incremental_dedup`` dedups
each new snapshot against the base already admitted.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data


def _segment_cumsum(v: np.ndarray, seg_start: np.ndarray) -> np.ndarray:
    """Inclusive prefix sums of ``v`` that restart at every key segment
    (``seg_start``: each row's segment-start index), in numpy's cumsum
    accumulator dtype.  One cumsum across segments, differenced, would
    let another key's large float values absorb this key's small ones —
    and which keys share an exchange call is not part of the result."""
    acc = np.cumsum(np.zeros(1, dtype=v.dtype)).dtype
    return pd.Series(v.astype(acc, copy=False)).groupby(seg_start) \
        .cumsum(skipna=False).to_numpy()


def trailing_windows(ds: "ray.data.Dataset", key: str = "user_id",
                     ts: str = "ts", value: str = "value",
                     window_seconds: int = 3600) -> "ray.data.Dataset":
    """Per-event trailing-window (count, sum) per key, RANGE semantics:
    row i's window is every row of the same key with ``ts`` in
    ``[ts_i - window, ts_i]`` (equal-ts peers included).

    Output: one row per input event — ``key, ts, w_count, w_sum``.

    Keys are hash-BUCKETED before the groupby (the digest-dedup lesson:
    Ray's grouped execution pays Python per group, so a per-USER groupby
    scales its overhead with user cardinality — measured 12.8 s for 1M
    rows / 100k keys, vs 1.3 s bucketed).  The shuffle still co-locates
    every row of a key (same key ⇒ same bucket); inside a bucket the rows
    sort once by (key, ts) and each key segment computes its two-pointer
    windows on a numpy slice.
    """
    from zeeklog_ray.relational import bucket_exchange, to_pandas

    window_ns = np.int64(window_seconds) * 1_000_000_000

    def per_bucket(group: pa.Table) -> pd.DataFrame:
        g = to_pandas(group).sort_values([key, ts], kind="mergesort")
        t = g[ts].to_numpy("datetime64[ns]").astype("int64")
        v = g[value].to_numpy()
        keys = g[key].to_numpy()
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        bounds = np.r_[starts, len(keys)]
        csum = _segment_cumsum(v, np.repeat(starts, np.diff(bounds)))
        w_count = np.empty(len(keys), dtype="int64")
        w_sum = np.empty(len(keys), dtype=csum.dtype)
        for s, e in zip(bounds[:-1], bounds[1:]):
            tt = t[s:e]
            lo = np.searchsorted(tt, tt - window_ns, side="left") + s
            hi = np.searchsorted(tt, tt, side="right") + s
            w_count[s:e] = hi - lo
            # the frame [lo, hi) holds its own row, so hi - 1 >= lo
            w_sum[s:e] = csum[hi - 1] - np.where(lo > s, csum[lo - 1], 0)
        return pd.DataFrame({
            key: keys,
            ts: g[ts].to_numpy(),
            "w_count": w_count,
            "w_sum": w_sum,
        })

    return bucket_exchange(ds, key, per_bucket)


def rows_window(ds: "ray.data.Dataset", key: str,
                order_cols: "list[str]", value: str,
                preceding: "int | None",
                keep_cols: "list[str] | None" = None) -> "ray.data.Dataset":
    """Per-row trailing window (count, sum) per key, ROWS semantics:
    row i's window is the ``preceding`` rows immediately before it plus
    itself, in ``order_cols`` order within the key partition (SQL:
    ``SUM(value) OVER (PARTITION BY key ORDER BY order_cols ROWS BETWEEN
    <preceding> PRECEDING AND CURRENT ROW)``); ``preceding=None`` is the
    UNBOUNDED frame, i.e. a per-key running total.  Make the last order
    column unique for a deterministic frame — unlike the RANGE tier
    (:func:`trailing_windows`) equal-sort-key peers are NOT merged.

    Same bucketed shape as the RANGE tier: one key-hash shuffle, then one
    C-level sort + prefix-sum per bucket — the frame arithmetic is pure
    numpy index algebra (no per-key loop at all, unlike the two-pointer
    RANGE scan).  The value's integer dtype is preserved through the
    cumsum, so cent-exact sums stay exact.  Float NaNs are skipped like
    SQL SUM (a frame with no non-null value yields NULL); integer
    inputs are null-free by dtype.

    Output: ``keep_cols`` (default: key + order_cols) + ``w_count``,
    ``w_sum``.
    """
    from zeeklog_ray.relational import bucket_exchange, to_pandas

    if preceding is not None and preceding < 0:
        raise ValueError(f"rows_window: preceding must be >= 0, got {preceding}")
    order_cols = list(order_cols)
    out_cols = list(keep_cols) if keep_cols is not None \
        else [key] + order_cols

    def per_bucket(group: pa.Table) -> pd.DataFrame:
        g = to_pandas(group).sort_values([key] + order_cols, kind="mergesort")
        n = len(g)
        v = g[value].to_numpy()
        # factorize (not !=) so null keys form ONE partition, matching
        # SQL PARTITION BY null-grouping
        codes, _ = pd.factorize(g[key], use_na_sentinel=False)
        idx = np.arange(n, dtype=np.int64)
        new_seg = np.r_[True, codes[1:] != codes[:-1]]
        # index of the first row of each row's key segment, forward-filled
        seg_start = np.maximum.accumulate(np.where(new_seg, idx, 0))
        start = seg_start if preceding is None \
            else np.maximum(seg_start, idx - preceding)
        # SQL SUM() OVER skips NULLs: zero them out of the cumsum (a raw
        # NaN would poison every later row in the bucket, unrelated keys
        # included) and emit NULL where the frame has no non-null value
        valid = ~np.isnan(v) if v.dtype.kind == "f" else None
        v0 = np.where(valid, v, 0.0) if valid is not None else v
        csum = _segment_cumsum(v0, seg_start)
        w_sum = csum - np.where(start > seg_start, csum[start - 1], 0)
        out = g[out_cols].copy()
        out["w_count"] = idx - start + 1
        if valid is not None:
            vcnt = np.cumsum(valid.astype(np.int64))
            w_valid = vcnt - np.where(start > 0, vcnt[start - 1], 0)
            w_sum = np.where(w_valid > 0, w_sum, np.nan)
        out["w_sum"] = w_sum
        return out

    return bucket_exchange(ds, key, per_bucket)


def time_decayed_sum(ds: "ray.data.Dataset", key: str, ts: str, value: str,
                     half_life_s: float, t_ref: "pd.Timestamp | str"
                     ) -> "ray.data.Dataset":
    """Per-key exponentially time-decayed sum at a reference instant:
    ``decayed = Σ value_i · 2^(−(t_ref − t_i)/half_life)`` — the
    recency-weighted engagement/feature score.  Expressed as weight-at-map
    + grouped sum (NOT a per-key recurrence), so it is one row-local pass
    and one entity-shaped bucketed sum — the same wire shape as any
    grouped aggregate, and no ordered scan per key exists to serialize.

    FLOAT by design (2^x): driver gate is rows-only; determinism at fixed
    block layout plus a closed-form parity pytest pin the kernel.  Events
    after ``t_ref`` are excluded (their weight would exceed 1).
    Output: (key, decayed_sum, n_events).
    """
    from zeeklog_ray.relational import grouped_sum_bucketed

    t_ref = pd.Timestamp(t_ref)
    hl_us = float(half_life_s) * 1e6

    def weigh(batch: pd.DataFrame) -> pd.DataFrame:
        age_us = (t_ref - batch[ts]).dt.total_seconds().to_numpy() * 1e6
        keep = age_us >= 0
        w = np.exp2(-age_us[keep] / hl_us)
        return pd.DataFrame({
            key: batch[key].to_numpy()[keep],
            "decayed_sum": batch[value].to_numpy()[keep] * w,
            "n_events": np.int64(1),
        })

    return grouped_sum_bucketed(
        ds.map_batches(weigh, batch_format="pandas", batch_size=None),
        [key], sums={"decayed_sum": "decayed_sum", "n_events": "n_events"})


def trailing_deviation(ds: "ray.data.Dataset", key: str, order: str,
                       value: str, window: int = 24) -> "ray.data.Dataset":
    """Per-key trailing-window spike score over an ORDERED series — the
    anomaly-detection pass a monitoring consumer runs on the gap-filled
    hourly counts (feed it :func:`queries.events_hourly_dense`-shaped
    rows): for each row, the sum/count of the previous ``window`` rows of
    the same key and the integer relative-spike score

        spike_e4 = (v·trail_cnt − trail_sum) · 10^4 // max(trail_sum, 1)
                   (clamped to 0 when the numerator is ≤ 0)

    i.e. how far the current value sits ABOVE the trailing mean, in 1e-4
    units — all positive floor divisions, so the DuckDB window-function
    replay (`ROWS BETWEEN w PRECEDING AND 1 PRECEDING`) hash-matches.
    Rows with no history (first of a key) score 0 by construction.

    Scale shape: one key-hash-bucketed shuffle co-partitions each key's
    series (the bucketed-groupby pattern); inside a group the trailing
    sums are one prefix-sum + two fancy-indexes — no per-row Python, no
    driver pass.  Partitioning assumption: one key's series fits a group
    (series length = hours/days of retention — thousands, not millions).

    Output: ``(key, order, value, trail_sum, trail_cnt, spike_e4)``.
    """
    from zeeklog_ray.relational import bucket_exchange, to_pandas

    def per_bucket(g: pa.Table) -> pd.DataFrame:
        g = to_pandas(g).sort_values([key, order], kind="mergesort") \
            .reset_index(drop=True)
        v = g[value].to_numpy().astype("int64")
        n = len(g)
        # absolute row positions restart at each key boundary
        starts = np.flatnonzero(
            np.r_[True, g[key].to_numpy()[1:] != g[key].to_numpy()[:-1]])
        key_start = np.repeat(starts, np.diff(np.r_[starts, n]))
        pos = np.arange(n) - key_start           # position within key
        cs = np.concatenate([[0], np.cumsum(v)])  # global prefix sums
        lo = np.maximum(pos - window, 0) + key_start
        trail_sum = cs[np.arange(n)] - cs[lo]
        trail_cnt = np.arange(n) - lo
        num = v * trail_cnt - trail_sum
        spike = np.where(num > 0,
                         num * 10_000 // np.maximum(trail_sum, 1), 0)
        return pd.DataFrame({
            key: g[key], order: g[order], value: v.astype("int64"),
            "trail_sum": trail_sum.astype("int64"),
            "trail_cnt": trail_cnt.astype("int64"),
            "spike_e4": spike.astype("int64"),
        })

    return bucket_exchange(ds, key, per_bucket)
