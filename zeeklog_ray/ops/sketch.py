"""Mergeable sketches: HyperLogLog approximate distinct count, Misra-Gries
heavy hitters.

The scale pattern for sketch aggregation (Ray guide): each batch emits ONE
serialized sketch; a tiny second stage merges them (sketches are designed to
be mergeable, so the exchange is |batches| × sketch_size bytes regardless of
input size).  A 2^12-register HLL is 4 KB and estimates distinct counts
within ~1.6% — the right tool for "distinct doc_ids / users / IPs" over
10^12 rows where exact distinct would shuffle every key.

Vectorized: register index = top p bits of a 64-bit hash; rank = position of
the first set bit of the rest (computed with log2 on the masked value).
Deterministic across processes (pandas hash with fixed key).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data

P = 12                      # 2^12 = 4096 registers
M = 1 << P
_ALPHA = 0.7213 / (1 + 1.079 / M)   # bias constant for m >= 128


def _hash64(s: pd.Series) -> np.ndarray:
    return pd.util.hash_pandas_object(s, index=False).to_numpy(dtype=np.uint64)


def _hash64_mix(s: pd.Series) -> np.ndarray:
    """Replayable 64-bit hash for INTEGER keys: the engine-wide splitmix64
    finalizer (``relational._mix64``), bit-replayable in DuckDB HUGEINT
    via ``ops.sample.mix64_sql`` — the hash that lets an HLL query carry a
    deterministic SQL oracle (pandas' hash is SipHash-keyed and has no
    SQL replay)."""
    from zeeklog_ray.relational import _mix64

    return _mix64(s.to_numpy().astype(np.int64).view(np.uint64))


def _sketch_of(values: np.ndarray) -> np.ndarray:
    """uint8[M] register array from 64-bit hashes."""
    regs = np.zeros(M, dtype=np.uint8)
    if not len(values):
        return regs
    idx = (values >> np.uint64(64 - P)).astype(np.int64)
    rest = values << np.uint64(P)  # top (64-P) significant bits remain
    # rank = leading zeros of `rest` + 1, capped at 64-P+1.  rest has its
    # low P bits zero, so float64(rest) is EXACT (<= 52 significant
    # bits) and np.frexp extracts the leading-bit exponent with no libm
    # rounding at all (the old log2 trick could round up at 2^k - eps)
    _m, e = np.frexp(rest.astype(np.float64))
    rank = np.where(rest == 0, np.uint8(64 - P + 1),
                    (65 - e).astype(np.uint8))
    np.maximum.at(regs, idx, rank.astype(np.uint8))
    return regs


def hll_estimate(regs: np.ndarray) -> float:
    """Standard HLL estimator with small-range (linear counting) correction."""
    est = _ALPHA * M * M / np.sum(np.power(2.0, -regs.astype(np.float64)))
    zeros = int(np.sum(regs == 0))
    if est <= 2.5 * M and zeros:
        est = M * np.log(M / zeros)
    return float(est)


# Integer-exact estimator for the REPLAYABLE path: alpha is pinned as a
# e12 fixed-point constant, the harmonic sum is computed as the exact
# integer S = sum(2^(RMAX - reg)) (every term a power of two, RMAX =
# 64 - P + 1 the max rank), and the small-range linear-counting branch
# reads a precomputed round(M*ln(M/zeros)) table — so Python big-int and
# DuckDB HUGEINT produce the SAME integer, no float in the gate.
_RMAX = 64 - P + 1                      # 53 for P=12
ALPHA_E12 = int(_ALPHA * 10**12)        # floor at e12 — pinned constant


def _lc_table() -> list[int]:
    """``round(M * ln(M / zeros))`` for zeros = 0..M (index 0 unused).
    Shared verbatim by :func:`hll_estimate_int` and the generated SQL
    oracle (inline VALUES list), so libm never sits between the two."""
    import math

    return [0] + [round(M * math.log(M / z)) for z in range(1, M + 1)]


_LC: list[int] | None = None


def hll_estimate_int(regs: np.ndarray) -> int:
    """Integer-deterministic HLL estimate (see the block comment above).
    ``raw = ALPHA_E12 * M^2 * 2^RMAX // (S * 10^12)`` with the standard
    linear-counting swap below ``2.5 * M`` — every step exact big-int."""
    global _LC
    counts = np.bincount(regs.astype(np.int64), minlength=_RMAX + 1)
    s_exact = sum(int(c) << (_RMAX - r)
                  for r, c in enumerate(counts.tolist()) if c)
    raw = (ALPHA_E12 * M * M * (1 << _RMAX)) // (s_exact * 10**12)
    zeros = int(counts[0])
    if raw * 2 <= 5 * M and zeros:
        if _LC is None:
            _LC = _lc_table()
        return _LC[zeros]
    return int(raw)


def approx_distinct(ds: "ray.data.Dataset", col: str) -> int:
    """Approximate COUNT(DISTINCT col): per-batch HLL sketch → merge
    (elementwise max) → estimate.  One 4 KB row per batch crosses the wire."""

    def sketch(batch: pd.DataFrame) -> pd.DataFrame:
        regs = _sketch_of(_hash64(batch[col].dropna()))
        return pd.DataFrame({"sketch": [regs.tobytes()]})

    parts = ds.select_columns([col]).map_batches(
        sketch, batch_format="pandas", batch_size=None).to_pandas()
    merged = np.zeros(M, dtype=np.uint8)
    for b in parts["sketch"]:
        merged = np.maximum(merged, np.frombuffer(b, dtype=np.uint8))
    return round(hll_estimate(merged))


def grouped_approx_distinct(ds: "ray.data.Dataset", key: str, col: str,
                            replayable: bool = False) -> pd.DataFrame:
    """Approximate COUNT(DISTINCT col) PER KEY — the grouped twin of
    :func:`approx_distinct`, for when the exact pair-distinct
    (``relational.bucketed_distinct`` + count) would shuffle every
    (key, value) pair at 10^12-row scale.

    Shape: each batch emits one 4 KB sketch per key IT contains (≤
    |keys-in-batch| rows, never row-scale); the sketches merge
    DISTRIBUTED via a key-hash-bucketed groupby whose per-bucket merge is
    one C-level ``np.maximum.reduce`` per key; only the final one-row-
    per-key table reaches the driver for estimation.  Error ~1.6%
    (2^12 registers).  Intended for report-to-entity key cardinalities;
    the exchange is |blocks| × |keys-per-block| × 4 KB.

    ``replayable=True`` (INTEGER value columns only) swaps the pandas
    SipHash for the engine's splitmix64 mixer and the float estimator
    for the exact-integer one (:func:`hll_estimate_int`) — the estimate
    becomes bit-replayable in DuckDB (``hll_oracle_sql``), closing the
    contract gap a keyed hash leaves (same approximation quality, ~1.6%)."""
    hash_fn = _hash64_mix if replayable else _hash64

    def sketch(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.dropna(subset=[col])
        codes, uniq = pd.factorize(b[key], use_na_sentinel=False)
        h = hash_fn(b[col])
        # sorted-segment sweep: one argsort, then contiguous slices per
        # key — NOT a per-key boolean re-mask of the whole batch, which
        # would be O(rows × distinct keys)
        order = np.argsort(codes, kind="stable")
        sc, sh = codes[order], h[order]
        bounds = np.flatnonzero(
            np.r_[True, sc[1:] != sc[:-1], True])
        out_keys, out_sk = [], []
        for j in range(len(bounds) - 1):
            seg = sh[bounds[j]:bounds[j + 1]]
            out_keys.append(uniq[sc[bounds[j]]])
            out_sk.append(_sketch_of(seg).tobytes())
        return pd.DataFrame({key: out_keys, "_sk": out_sk})

    def merge_bucket(group: pa.Table) -> pd.DataFrame:
        out_keys, out_sk = [], []
        for k, g in to_pandas(group).groupby(key, sort=False, dropna=False):
            regs = np.maximum.reduce(
                [np.frombuffer(b, dtype=np.uint8) for b in g["_sk"]])
            out_keys.append(k)
            out_sk.append(regs.tobytes())
        return pd.DataFrame({key: out_keys, "_sk": out_sk})

    from zeeklog_ray.relational import bucket_exchange, to_pandas

    parts = ds.select_columns([key, col]).map_batches(
        sketch, batch_format="pandas", batch_size=None)
    merged = bucket_exchange(parts, key, merge_bucket).to_pandas()
    est = hll_estimate_int if replayable else \
        (lambda r: round(hll_estimate(r)))
    merged["approx_n"] = [
        est(np.frombuffer(b, dtype=np.uint8)) for b in merged["_sk"]]
    merged["approx_n"] = merged["approx_n"].astype("int64")
    return merged[[key, "approx_n"]].reset_index(drop=True)


def hll_oracle_sql(table_sql: str, key_col: str, col: str) -> str:
    """DuckDB replay of ``grouped_approx_distinct(..., replayable=True)``
    — bit-exact, no float anywhere:

    * splitmix64 via ``ops.sample.mix64_sql`` (HUGEINT, 32-bit split
      multiplication);
    * register index = ``h // 2^52``; rank = ``53 - length(bin(m))``
      with ``m = h % 2^52`` (the binary-string length IS the integer
      floor-log2 + 1 — no log in the gate), 53 when ``m = 0``;
    * harmonic sum as the exact integer ``S = sum(2^(53-reg))`` with
      absent registers contributing ``2^53`` each;
    * ``raw = ALPHA_E12 * M^2 * 2^53 // (S * 10^12)`` in HUGEINT;
    * the linear-counting branch joins the SAME precomputed
      ``round(M*ln(M/zeros))`` table the Python side reads
      (:func:`_lc_table`, inlined as VALUES) — libm never compares
      across engines.

    Integer value columns only (the mixer hashes the int64 bit pattern).
    """
    from zeeklog_ray.ops.sample import mix64_sql

    steps, final = mix64_sql("v")
    lc_rows = ",".join(f"({z},{e})"
                       for z, e in enumerate(_lc_table()) if z)
    m52, m53 = 1 << 52, 1 << 53
    return (
        f"WITH _kv AS (SELECT DISTINCT {key_col} AS k, {col} AS v "
        f"FROM {table_sql} WHERE {col} IS NOT NULL), "
        f"_m0 AS (SELECT k, {steps[0]} AS z0 FROM _kv), "
        f"_m1 AS (SELECT k, {steps[1]} AS z1 FROM _m0), "
        f"_m2 AS (SELECT k, {steps[2]} AS z2 FROM _m1), "
        f"_h AS (SELECT k, {final} AS h FROM _m2), "
        f"_r AS (SELECT k, (h // {m52}::HUGEINT)::BIGINT AS idx, "
        f"(h % {m52}::HUGEINT)::BIGINT AS m FROM _h), "
        f"_regs AS (SELECT k, idx, MAX(CASE WHEN m = 0 THEN {_RMAX} "
        f"ELSE {_RMAX} - length(bin(m)) END) AS reg "
        f"FROM _r GROUP BY k, idx), "
        f"_agg AS (SELECT k, SUM(1::BIGINT << ({_RMAX} - reg)) AS sp, "
        f"COUNT(*) AS np FROM _regs GROUP BY k), "
        f"_est AS (SELECT k, sp::HUGEINT + ({M} - np)::HUGEINT * "
        f"{m53}::HUGEINT AS s, ({M} - np)::BIGINT AS zeros FROM _agg), "
        f"_raw AS (SELECT k, zeros, ({ALPHA_E12}::HUGEINT * "
        f"{M * M}::HUGEINT * {m53}::HUGEINT) // "
        f"(s * 1000000000000::HUGEINT) AS raw FROM _est) "
        f"SELECT k AS {key_col}, (CASE WHEN raw * 2 <= {5 * M} AND "
        f"zeros > 0 THEN lc.est ELSE raw END)::BIGINT AS approx_n "
        f"FROM _raw LEFT JOIN (VALUES {lc_rows}) lc(z, est) "
        f"ON lc.z = _raw.zeros"
    )


def exact_quantiles(ds: "ray.data.Dataset", col: str,
                    qs: list[float]) -> pd.DataFrame:
    """EXACT discrete quantiles via the value-histogram method: a
    distributed grouped count per DISTINCT value (combiner-first — only
    (value, count) rows cross the wire), then a driver-side sorted cumsum
    picks the element at index ``ceil(q·n) - 1`` — bit-for-bit DuckDB
    ``quantile_disc`` semantics (verified empirically: n=4 q=0.9 → 4th
    element, n=10 q=0.99 → 10th).

    Exactness without a global sort: correct for ANY input, but the driver
    holds |distinct values| rows — the method for discretized measures
    (cents, ports, durations-in-ms, token counts) where distinct ≪ rows;
    10^12 rows of cents still collapse to ≤ ~10^7 histogram rows.  For
    truly continuous high-cardinality columns use a mergeable sketch
    instead (the HLL pattern above with a KLL/t-digest payload)."""
    from zeeklog_ray.relational import grouped_sum

    hist = grouped_sum(ds.select_columns([col]), [col],
                       count_as="_n").to_pandas()
    # quantile_disc IGNORES nulls: the distributed histogram keeps a null
    # group (grouped_sum counts dropna=False) — drop it here, and an
    # all-null/empty input yields null quantiles like the SQL aggregate
    hist = hist.dropna(subset=[col]).sort_values(col).reset_index(drop=True)
    if hist.empty:
        return pd.DataFrame({"q": [float(q) for q in qs],
                             "value": [None] * len(qs)})
    csum = hist["_n"].cumsum().to_numpy()
    n = int(csum[-1])
    rows = []
    for q in qs:
        idx = max(0, int(np.ceil(q * n)) - 1)        # 0-based rank
        pos = int(np.searchsorted(csum, idx + 1, side="left"))
        rows.append({"q": float(q), "value": hist[col].iloc[pos]})
    return pd.DataFrame(rows)


def grouped_exact_quantiles(ds: "ray.data.Dataset", key: str, col: str,
                            qs: list[float]) -> "ray.data.Dataset":
    """Per-key EXACT quantiles, same value-histogram method as
    :func:`exact_quantiles` but grouped: distributed (key, value) counts →
    key-hash-bucketed selection, fully vectorized ACROSS keys inside a
    bucket (per-key cumsum offsets + one searchsorted per q — no per-key
    Python).  Output: one row per (key, q) — ``key, q, value``.

    SQL GROUP BY semantics: null keys form ONE group (segmentation uses
    ``pd.factorize`` codes, never NaN != NaN comparisons); per-key null
    VALUES are ignored, and a key whose values are all null emits a null
    quantile (like ``quantile_disc``).  The value column rides as the
    nullable twin of its dtype so every bucket's block schema agrees
    whether or not it produced null rows."""
    from zeeklog_ray.relational import (_nullable_int, bucket_exchange,
                                        grouped_sum, to_pandas)

    hist = grouped_sum(ds.select_columns([key, col]), [key, col],
                       count_as="_n")

    def _vdtype(series: pd.Series) -> np.dtype:
        dt = series.dtype
        return _nullable_int(dt) if pd.api.types.is_integer_dtype(dt) else dt

    def per_bucket(group: pa.Table) -> pd.DataFrame:
        # NaN/NA keys AND values sort last (contiguous) with mergesort
        g = to_pandas(group).sort_values([key, col], kind="mergesort")
        vdt = _vdtype(g[col])
        vmask = g[col].notna().to_numpy()
        gv = g[vmask]
        parts = []
        if len(gv):
            counts = gv["_n"].to_numpy(dtype=np.int64)
            vals = gv[col].to_numpy()
            # factorize → int codes; null keys get ONE shared code
            codes = pd.factorize(gv[key], use_na_sentinel=False)[0]
            starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
            ends = np.r_[starts[1:], len(codes)]
            csum = np.cumsum(counts)
            offs = np.r_[0, csum[:-1]][starts]  # count before each key seg
            n_k = csum[ends - 1] - offs         # rows per key
            for q in qs:
                rank = np.maximum(0, np.ceil(q * n_k).astype(np.int64) - 1)
                pos = np.searchsorted(csum, offs + rank + 1, side="left")
                parts.append(pd.DataFrame({
                    key: gv[key].iloc[starts].to_numpy(),
                    "q": float(q),
                    "value": pd.array(vals[pos], dtype=vdt)}))
        if not vmask.all():                      # keys with ONLY null values
            nk = g.loc[~vmask, key]
            only_null = nk[~nk.isin(gv[key])].drop_duplicates() \
                if len(gv) else nk.drop_duplicates()
            k = len(only_null)

            def _nulls():
                # nullable extension dtype — an int column's nullable
                # twin, or an input column that ALREADY was one (e.g.
                # Int64 riding out of a tagged-union join)
                if isinstance(vdt, pd.core.dtypes.base.ExtensionDtype):
                    return pd.array([pd.NA] * k, dtype=vdt)
                if np.issubdtype(vdt, np.floating):
                    return np.full(k, np.nan, dtype=vdt)
                return np.full(k, None, dtype=object)

            for q in qs:
                parts.append(pd.DataFrame({
                    key: only_null.to_numpy(), "q": float(q),
                    "value": _nulls()}))
        if not parts:
            return pd.DataFrame({key: g[key].iloc[:0], "q": np.zeros(0),
                                 "value": pd.array([], dtype=vdt)})
        return pd.concat(parts, ignore_index=True)

    return bucket_exchange(hist, key, per_bucket)


def grouped_iqr_outliers(ds: "ray.data.Dataset", key: str, col: str,
                         k_num: int = 3, k_den: int = 2) -> "ray.data.Dataset":
    """Per-key Tukey-fence outlier counts in EXACT integer math: fences
    are ``q25 - (k_num·IQR)//k_den`` and ``q75 + (k_num·IQR)//k_den``
    (floor division — keeps everything int64 so the SQL replay is
    bit-exact; the classic 1.5·IQR fence is ``k_num=3, k_den=2``).

    Composition shape: :func:`grouped_exact_quantiles` (distributed
    value-histogram, only (key, value, count) rows shuffle) → the tiny
    per-key bounds table collects on the driver and BROADCASTS into a
    row-local flag pass → combiner-first ``grouped_sum`` rollup.  Two
    corpus scans, zero wide shuffles of row data.

    Keys whose values are all null have no quantiles and are dropped
    (inner merge); the output is one row per surviving key:
    ``(key, lo, hi, n, n_outliers)``.
    """
    from zeeklog_ray.relational import grouped_sum

    q = grouped_exact_quantiles(ds, key, col, [0.25, 0.75]).to_pandas()
    if q.empty or key not in q.columns:
        # no key survived the quantile pass (empty input or all-null
        # values — an empty Dataset's to_pandas also loses columns): the
        # contract is an empty result, not a KeyError from the pivot
        import ray.data

        empty = pd.DataFrame({
            key: pd.Series([], dtype=q[key].dtype if key in q else object),
            "lo": pd.Series([], dtype="int64"),
            "hi": pd.Series([], dtype="int64"),
            "n": pd.Series([], dtype="int64"),
            "n_outliers": pd.Series([], dtype="int64")})
        return ray.data.from_pandas(empty)
    w = q.pivot(index=key, columns="q", values="value").reset_index()
    w.columns.name = None
    w = w.dropna(subset=[0.25, 0.75])
    q25 = w[0.25].astype("int64")
    q75 = w[0.75].astype("int64")
    fence = (k_num * (q75 - q25)) // k_den
    bounds = pd.DataFrame({key: w[key], "lo": q25 - fence,
                           "hi": q75 + fence})

    def flag(batch: pd.DataFrame) -> pd.DataFrame:
        m = batch[[key, col]].merge(bounds, on=key, how="inner")
        out = (m[col] < m["lo"]) | (m[col] > m["hi"])
        return pd.DataFrame({key: m[key], "lo": m["lo"], "hi": m["hi"],
                             "_o": out.to_numpy().astype("int64")})

    flagged = ds.select_columns([key, col]).map_batches(
        flag, batch_format="pandas", batch_size=None)
    return grouped_sum(flagged, [key, "lo", "hi"],
                       sums={"_o": "n_outliers"}, count_as="n")


def heavy_hitters(ds: "ray.data.Dataset", col: str, k: int = 10,
                  capacity: int = 4096) -> pd.DataFrame:
    """Top-k most frequent values — the two-pass distributed heavy-hitter
    pattern:

    1. **Misra-Gries summary per batch** (vectorized ``value_counts``
       truncate-and-decrement): each batch emits ≤ ``capacity`` (key,
       residual-count) rows regardless of batch size — the sketch property
       that makes the exchange bounded.  Merged summaries keep the MG
       guarantee: any key with true count > n/capacity survives.
    2. **Exact recount of the candidate set**: the merged candidates are
       broadcast (``ray.put``) and one more streaming pass counts ONLY
       those keys — so the returned counts are EXACT, and the top-k is
       exact whenever the k-th true count exceeds n/capacity (size
       ``capacity`` to the expected skew; the summary merge is
       |blocks| × capacity rows on the driver — bounded, and at cluster
       scale a tree-merge map stage would replace it).

    Deterministic tie-break: (count DESC, key ASC).
    """

    def mg(batch: pd.DataFrame) -> pd.DataFrame:
        vc = batch[col].value_counts()
        if len(vc) > capacity:
            sub = vc.iloc[capacity]          # (capacity+1)-th count
            vc = vc.iloc[:capacity] - sub
            vc = vc[vc > 0]
        return pd.DataFrame({col: vc.index.to_numpy(), "c": vc.to_numpy()})

    parts = ds.select_columns([col]).map_batches(
        mg, batch_format="pandas", batch_size=None).to_pandas()
    merged = parts.groupby(col, sort=False)["c"].sum() \
        .sort_values(ascending=False)
    cands = set(merged.head(capacity).index)

    import ray as _ray

    ref = _ray.put(cands)

    def recount(batch: pd.DataFrame) -> pd.DataFrame:
        ks = _ray.get(ref)
        vc = batch.loc[batch[col].isin(ks), col].value_counts()
        return pd.DataFrame({col: vc.index.to_numpy(), "n": vc.to_numpy()})

    counts = ds.select_columns([col]).map_batches(
        recount, batch_format="pandas", batch_size=None).to_pandas()
    out = counts.groupby(col, sort=False)["n"].sum().reset_index()
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["n", col], ascending=[False, True]) \
        .head(k).reset_index(drop=True)


# --------------------------------------------------------------------------
# Mergeable quantile sketch (rank-sampled summary — KLL/t-digest family)
# --------------------------------------------------------------------------

QSKETCH_K = 512


def quantile_sketch_of(values: np.ndarray,
                       k: int = QSKETCH_K) -> tuple[np.ndarray, np.ndarray]:
    """Compress a value array to ≤k (value, weight) rank samples.

    The sketch keeps the data value at each of k evenly spaced ranks
    (rank (i+0.5)·n/k), carrying weight n/k each (exactly summing to n).
    One compression step moves any rank estimate by at most n/(2k); a
    merge-then-recompress adds another W/(2k), so per-batch sketches
    merged once answer any quantile within ~1/k of true rank — the
    mergeable-summary contract exact_quantiles points to for continuous
    high-cardinality columns where the value-histogram method would hold
    |distinct| driver-side rows.

    Deterministic (no sampling randomness): same input ⇒ same sketch on
    any node.  NaNs must be filtered by the caller.
    """
    v = np.sort(np.asarray(values))
    n = len(v)
    if n == 0:
        return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.float64)
    if n <= k:
        return v.astype(np.float64), np.ones(n, dtype=np.float64)
    idx = np.minimum(((np.arange(k) + 0.5) * n / k).astype(np.int64), n - 1)
    vals = v[idx].astype(np.float64)
    w = np.full(k, n / k, dtype=np.float64)
    return vals, w


def merge_quantile_sketches(sketches: "list[tuple[np.ndarray, np.ndarray]]",
                            k: int = QSKETCH_K) -> tuple[np.ndarray, np.ndarray]:
    """Merge rank-sample sketches: concatenate, sort by value, re-sample at
    k evenly spaced cumulative weights.  Associative up to the bounded
    rank error; total weight is preserved exactly."""
    pairs = [(v, w) for v, w in sketches if len(v)]
    if not pairs:
        return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.float64)
    vals = np.concatenate([v for v, _ in pairs])
    wts = np.concatenate([w for _, w in pairs])
    order = np.argsort(vals, kind="mergesort")
    vals, wts = vals[order], wts[order]
    if len(vals) <= k:
        return vals, wts
    total = wts.sum()
    csum = np.cumsum(wts)
    targets = (np.arange(k) + 0.5) * total / k
    pos = np.searchsorted(csum, targets, side="left")
    pos = np.minimum(pos, len(vals) - 1)
    out_v = vals[pos]
    out_w = np.full(k, total / k, dtype=np.float64)
    return out_v, out_w


def sketch_quantiles(vals: np.ndarray, wts: np.ndarray,
                     qs: "list[float]") -> np.ndarray:
    """Step-function quantiles from a (value, weight) summary (values
    sorted ascending)."""
    if not len(vals):
        return np.full(len(qs), np.nan)
    csum = np.cumsum(wts)
    total = csum[-1]
    out = np.empty(len(qs))
    for i, q in enumerate(qs):
        rank = max(q * total, 1e-12)
        pos = int(np.searchsorted(csum, rank, side="left"))
        out[i] = vals[min(pos, len(vals) - 1)]
    return out


def approx_quantiles(ds: "ray.data.Dataset", col: str, qs: "list[float]",
                     k: int = QSKETCH_K) -> pd.DataFrame:
    """Approximate quantiles of a continuous column via the mergeable
    rank-sample sketch: each batch emits ONE (values, weights) row
    (≤ 8 KB at k=512), the driver merges — |batches| × 8 KB crosses the
    wire no matter the input size, the streaming-sketch shape HLL uses.
    Rank error ≤ ~1/k after the single merge level (pytest-gated)."""

    def sk(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch[col].dropna().to_numpy(np.float64)
        sv, sw = quantile_sketch_of(v, k)
        return pd.DataFrame({"v": [sv.tobytes()], "w": [sw.tobytes()]})

    parts = ds.select_columns([col]).map_batches(
        sk, batch_format="pandas", batch_size=None).to_pandas()
    sketches = [(np.frombuffer(r.v, dtype=np.float64),
                 np.frombuffer(r.w, dtype=np.float64))
                for r in parts.itertuples()]
    mv, mw = merge_quantile_sketches(sketches, k)
    est = sketch_quantiles(mv, mw, qs)
    return pd.DataFrame({"q": [float(q) for q in qs], "value": est})


def grouped_interp_quantiles(ds: "ray.data.Dataset", key: str, col: str,
                             q_pcts: list[int]) -> "ray.data.Dataset":
    """Per-key CONTINUOUS (linearly interpolated) quantiles in exact
    integer math — ``quantile_cont`` / ``np.percentile(..., 'linear')``
    semantics without the float round-trip.

    For integer percent ``p`` over a key's sorted values ``x[0..n-1]``:
    ``pos = p*(n-1)/100``, ``i = p*(n-1)//100``, ``r = p*(n-1) % 100``,
    and the result is emitted PRE-SCALED ×100 so it stays integral::

        value_x100 = x[i]*(100 - r) + x[i+1]*r        (x[i]*100 if r == 0)

    i.e. ``value_x100 / 100 == quantile_cont(p/100)`` exactly.  Same
    distributed shape as :func:`grouped_exact_quantiles`: a combiner-first
    (key, value) histogram (only distinct pairs cross the wire), then
    key-hash-bucketed selection vectorized ACROSS keys (per-key cumsum
    offsets + two searchsorted per percentile — no per-key Python).

    Contract: null VALUES are ignored (like ``quantile_cont``); a key with
    no non-null values is omitted (the SQL twin filters ``col IS NOT
    NULL`` before grouping).  Output: ``(key, q_pct, value_x100)``.
    """
    from zeeklog_ray.relational import bucket_exchange, grouped_sum, to_pandas

    if not all(isinstance(p, int) and 0 <= p <= 100 for p in q_pcts):
        raise ValueError(f"grouped_interp_quantiles: q_pcts must be integer "
                         f"percents in [0, 100], got {q_pcts!r}")

    filtered = ds.select_columns([key, col]) \
        .map_batches(lambda b: b.dropna(subset=[col]),
                     batch_format="pandas", batch_size=None)
    hist = grouped_sum(filtered, [key, col], count_as="_n")

    def per_bucket(group: pa.Table) -> pd.DataFrame:
        g = to_pandas(group).sort_values([key, col], kind="mergesort")
        counts = g["_n"].to_numpy(dtype=np.int64)
        vals = g[col].to_numpy(dtype=np.int64)
        codes = pd.factorize(g[key], use_na_sentinel=False)[0]
        starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
        ends = np.r_[starts[1:], len(codes)]
        csum = np.cumsum(counts)
        offs = np.r_[0, csum[:-1]][starts]
        n_k = csum[ends - 1] - offs
        parts = []
        for p in q_pcts:
            t = p * (n_k - 1)
            i, r = t // 100, t % 100
            hi_rank = np.minimum(i + 1, n_k - 1)   # r==0 ⇒ coeff 0, safe
            lo = vals[np.searchsorted(csum, offs + i + 1, side="left")]
            hi = vals[np.searchsorted(csum, offs + hi_rank + 1, side="left")]
            parts.append(pd.DataFrame({
                key: g[key].iloc[starts].to_numpy(),
                "q_pct": np.int64(p),
                "value_x100": lo * (100 - r) + hi * r}))
        return pd.concat(parts, ignore_index=True) if parts else \
            pd.DataFrame({key: g[key].iloc[:0], "q_pct": np.zeros(0, np.int64),
                          "value_x100": np.zeros(0, np.int64)})

    return bucket_exchange(hist, [key], per_bucket)


def grouped_approx_quantiles(ds: "ray.data.Dataset", key: str, col: str,
                             qs: "list[float]",
                             k: int = QSKETCH_K) -> pd.DataFrame:
    """Per-key approximate quantiles via the mergeable rank-sample sketch
    — the grouped twin of :func:`approx_quantiles`, completing the
    quantile matrix (global/grouped × exact/sketch).  Use it when
    per-key value cardinality is too high for the value-histogram method
    (``grouped_exact_quantiles`` holds |distinct (key, value)| rows in
    the exchange; this holds ≤ k per key per batch).

    Shape mirrors :func:`grouped_approx_distinct`: each batch emits ONE
    (values, weights) sketch row per key it contains (sorted-segment
    sweep, no per-key re-mask), the sketches merge DISTRIBUTED via a
    key-hash-bucketed groupby, and only the one-row-per-(key, q) report
    reaches the driver.  Rank error ≤ ~1/k after the merge level
    (pytest-gated).  Null values are ignored; a key with only null
    values is dropped (the exact twin keeps it with a null quantile —
    the sketch has no null-weight notion)."""

    def sk(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.dropna(subset=[col])
        if not len(b):
            return pd.DataFrame({key: b[key], "_v": [], "_w": []})
        codes, uniq = pd.factorize(b[key], use_na_sentinel=False)
        vals = b[col].to_numpy(np.float64)
        order = np.argsort(codes, kind="stable")
        sc, sv = codes[order], vals[order]
        bounds = np.flatnonzero(np.r_[True, sc[1:] != sc[:-1], True])
        out_keys, out_v, out_w = [], [], []
        for j in range(len(bounds) - 1):
            seg = sv[bounds[j]:bounds[j + 1]]
            v, w = quantile_sketch_of(seg, k)
            out_keys.append(uniq[sc[bounds[j]]])
            out_v.append(v.tobytes())
            out_w.append(w.tobytes())
        return pd.DataFrame({key: out_keys, "_v": out_v, "_w": out_w})

    def merge_bucket(group: pa.Table) -> pd.DataFrame:
        out_keys, out_v, out_w = [], [], []
        for kk, g in to_pandas(group).groupby(key, sort=False,
                                              dropna=False):
            v, w = merge_quantile_sketches(
                [(np.frombuffer(bv, dtype=np.float64),
                  np.frombuffer(bw, dtype=np.float64))
                 for bv, bw in zip(g["_v"], g["_w"])], k)
            out_keys.append(kk)
            out_v.append(v.tobytes())
            out_w.append(w.tobytes())
        return pd.DataFrame({key: out_keys, "_v": out_v, "_w": out_w})

    from zeeklog_ray.relational import bucket_exchange, to_pandas

    parts = ds.select_columns([key, col]).map_batches(
        sk, batch_format="pandas", batch_size=None)
    merged = bucket_exchange(parts, key, merge_bucket).to_pandas()
    rows = []
    for kk, bv, bw in zip(merged[key], merged["_v"], merged["_w"]):
        v = np.frombuffer(bv, dtype=np.float64)
        w = np.frombuffer(bw, dtype=np.float64)
        if not len(v):
            continue
        est = sketch_quantiles(v, w, qs)
        for q, e in zip(qs, est):
            rows.append({key: kk, "q": float(q), "value": float(e)})
    return pd.DataFrame(rows)


def grouped_heavy_hitters(ds: "ray.data.Dataset", group_col: str, col: str,
                          k: int = 5, capacity: int = 4096) -> pd.DataFrame:
    """Per-GROUP top-k most frequent values — :func:`heavy_hitters` run
    once per group in a single pair of passes (one summary pass, one
    recount pass), not once per group.

    Per batch, each group's (value, count) table is truncated
    Misra-Gries-style to ≤ ``capacity`` rows (decrement by the
    (capacity+1)-th count), all vectorized through ONE pandas groupby —
    so the exchange is bounded at |batches| × |groups-in-batch| ×
    capacity rows.  Candidates merge on the driver (report-shaped group
    cardinality: event types, languages, sinks — for entity-shaped
    groups use ranks_per_key over pre-aggregated counts instead), then
    one exact recount pass scores only candidate (group, value) pairs.
    Counts returned are EXACT; the top-k is exact whenever the k-th true
    count in a group exceeds n_group/capacity.  Ties break (count DESC,
    value ASC) — deterministic on both sides of the oracle.
    """

    def mg(batch: pd.DataFrame) -> pd.DataFrame:
        vc = batch.groupby([group_col, col], sort=False).size() \
            .rename("c").reset_index()
        vc = vc.sort_values([group_col, "c", col],
                            ascending=[True, False, True], kind="mergesort")
        g = vc.groupby(group_col, sort=False)
        pos = g.cumcount()
        # (capacity+1)-th count per group (0 when the group fits)
        sub = vc["c"].where(pos == capacity, 0).groupby(
            vc[group_col], sort=False).transform("max")
        vc["c"] = vc["c"] - sub
        return vc[(pos < capacity) & (vc["c"] > 0)]

    parts = ds.select_columns([group_col, col]).map_batches(
        mg, batch_format="pandas", batch_size=None).to_pandas()
    merged = parts.groupby([group_col, col], sort=False)["c"].sum() \
        .reset_index() \
        .sort_values([group_col, "c", col], ascending=[True, False, True])
    cand = merged.groupby(group_col, sort=False).head(capacity)
    cand_set = set(zip(cand[group_col], cand[col]))

    import ray as _ray

    ref = _ray.put(cand_set)

    def recount(batch: pd.DataFrame) -> pd.DataFrame:
        ks = _ray.get(ref)
        ix = pd.MultiIndex.from_arrays([batch[group_col], batch[col]])
        sel = batch[ix.isin(ks)]
        vc = sel.groupby([group_col, col], sort=False).size().rename("n")
        return vc.reset_index()

    counts = ds.select_columns([group_col, col]).map_batches(
        recount, batch_format="pandas", batch_size=None).to_pandas()
    out = counts.groupby([group_col, col], sort=False)["n"].sum() \
        .reset_index()
    out["n"] = out["n"].astype("int64")
    out = out.sort_values([group_col, "n", col],
                          ascending=[True, False, True], kind="mergesort")
    out["rank"] = (out.groupby(group_col, sort=False).cumcount() + 1) \
        .astype("int64")
    return out[out["rank"] <= k].reset_index(drop=True)


# --------------------------------------------------------------------------
# Count-Min sketch: mergeable approximate frequencies.  The row probes
# are h_j(key) = splitmix64(key + j) % width — the engine-wide replayable
# mixer — so for INTEGER keys both the counters AND the min-estimates
# are integer-deterministic and carry a bit-exact DuckDB oracle
# (count_min_oracle_sql), the same contract the replayable HLL has
# (hll_oracle_sql).  Any other key is hashed once to uint64 (pandas'
# fixed-key hash, deterministic across processes) and probed the same
# way.
# --------------------------------------------------------------------------

def _count_min_keys(keys) -> np.ndarray:
    """The uint64 a key probes with: an integer key's own bits, any
    other key's pandas hash."""
    k = np.asarray(keys)
    if k.dtype.kind in "iu":
        return k.astype(np.int64).view(np.uint64)
    return pd.util.hash_pandas_object(pd.Series(k), index=False) \
        .to_numpy(np.uint64)


def count_min_build(ds: "ray.data.Dataset", key_col: str,
                    width: int = 1 << 16, depth: int = 4) -> np.ndarray:
    """Count-Min build over ``key_col``: dense depth×width per-block
    partials (fixed depth·width·8 bytes per block regardless of corpus
    size — the bloom-bitmap exchange pattern), summed on the driver.
    One corpus pass, zero shuffle; the merge is an elementwise sum, so
    any block split gives the same counters."""
    from zeeklog_ray.relational import _mix64

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        keys = _count_min_keys(batch[key_col].to_numpy())
        c = np.zeros((depth, width), dtype=np.int64)
        for j in range(depth):
            b = (_mix64(keys + np.uint64(j)) % np.uint64(width)) \
                .astype(np.int64)
            np.add.at(c[j], b, 1)
        return pd.DataFrame({"c": [c]})

    counters = np.zeros((depth, width), dtype=np.int64)
    for blk in ds.map_batches(partial, batch_format="pandas",
                              batch_size=None) \
            .iter_batches(batch_format="pandas", batch_size=None):
        for c in blk["c"]:
            counters += c
    return counters


def count_min_estimate(counters: np.ndarray,
                       keys: np.ndarray) -> np.ndarray:
    """Point-frequency estimates for ``keys`` from a
    :func:`count_min_build` array: min over depth rows of the hashed
    counter — vectorized, never underestimates; over by < e·n/width
    with probability 1-(1/2)^depth."""
    from zeeklog_ray.relational import _mix64

    depth, width = counters.shape
    ku = _count_min_keys(keys)
    est = np.full(len(ku), np.iinfo(np.int64).max, dtype=np.int64)
    for j in range(depth):
        b = (_mix64(ku + np.uint64(j)) % np.uint64(width)).astype(np.int64)
        est = np.minimum(est, counters[j, b])
    return est


def count_min_oracle_sql(table_sql: str, key_col: str, width: int,
                         depth: int, k: int) -> str:
    """DuckDB replay of the CM query shape used by
    queries.event_user_cm_counts: build the counters in SQL (group by
    (j, splitmix64-bucket)), pick the exact top-``k`` keys by
    (count desc, key asc), and estimate each as the min hashed counter —
    bit-exact against :func:`count_min_build` +
    :func:`count_min_estimate` because both sides use the same
    splitmix64 chain (ops.sample.mix64_sql)."""
    from zeeklog_ray.ops.sample import mix64_sql

    def bucket_chain(prefix: str, src: str, j: int) -> str:
        steps, final = mix64_sql(key_col, salt=j)
        return (f"{prefix}0 AS (SELECT {key_col}, {steps[0]} AS z0 "
                f"FROM {src}), "
                f"{prefix}1 AS (SELECT {key_col}, {steps[1]} AS z1 "
                f"FROM {prefix}0), "
                f"{prefix}1b AS (SELECT {key_col}, {steps[2]} AS z2 "
                f"FROM {prefix}1), "
                f"{prefix}2 AS (SELECT {key_col}, ({final}) "
                f"% {width}::HUGEINT AS bucket FROM {prefix}1b)")

    chains = ", ".join(bucket_chain(f"_cm{j}_", table_sql, j)
                       for j in range(depth))
    bucket_union = " UNION ALL ".join(
        f"SELECT {j} AS j, bucket FROM _cm{j}_2" for j in range(depth))
    key_union = " UNION ALL ".join(
        f"SELECT {key_col}, {j} AS j, bucket FROM _cm{j}_2"
        for j in range(depth))
    return (
        f"WITH {chains}, "
        f"counters AS (SELECT j, bucket, COUNT(*) AS n FROM "
        f"({bucket_union}) GROUP BY 1, 2), "
        f"exact AS (SELECT {key_col}, COUNT(*) AS n_exact FROM "
        f"{table_sql} GROUP BY 1), "
        f"top AS (SELECT {key_col}, n_exact FROM exact "
        f"ORDER BY n_exact DESC, {key_col} LIMIT {k}), "
        f"kb AS (SELECT DISTINCT {key_col}, j, bucket FROM "
        f"({key_union})), "
        f"est AS (SELECT kb.{key_col}, MIN(c.n) AS n_cm FROM kb "
        f"JOIN counters c ON c.j = kb.j AND c.bucket = kb.bucket "
        f"GROUP BY 1) "
        f"SELECT CAST(top.{key_col} AS BIGINT) AS {key_col}, "
        f"CAST(top.n_exact AS BIGINT) AS n_exact, "
        f"CAST(est.n_cm AS BIGINT) AS n_cm "
        f"FROM top JOIN est ON top.{key_col} = est.{key_col}")
