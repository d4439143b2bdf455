"""Aggregations: two-phase (partial → final) grouped stats and histograms.

The reference's only aggregations are the distinct-source-IP summary
(``_create_overview``, ``/root/reference/src/zeek/zeek_log.rs:332-362``) and
per-(proto,hour) map sizes observed in tests
(``/root/reference/tests/zeek_search.rs:163-164``).  The rebuild generalizes
those into per-sink record counts + ``n_tok`` statistics and a fixed-bucket
``n_tok`` histogram (FIXTURES.md §5), implemented scale-first:

* **Partial aggregation inside ``map_batches``**: each batch collapses to at
  most one row per key (count / sum / min / max / histogram-bucket counts),
  so the subsequent ``groupby`` shuffle moves ~|keys| rows per block instead
  of every input row.  This is the combiner pattern that makes a hot-key
  (conn ≈ 70% of rows) aggregation skew-proof — the skew is absorbed
  *before* the exchange, which is strictly stronger than salting the
  shuffle key (salting would still move one row per (key, salt, block)).
* **Final ``groupby(key).aggregate``** over the tiny partials merges with
  Sum/Min/Max.

``distinct_column`` follows the same shape for the summary: per-batch
``unique`` (partial dedup) → global ``unique`` (shuffle over the shrunken
set) — the intended semantics of ``_create_overview`` (SURVEY.md §2.5 A1).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

import ray.data
from ray.data.aggregate import Max, Min, Sum

# Fixed n_tok histogram bucket lower edges: [0,64) [64,128) [128,256)
# [256,512) [512,1024) [1024,inf)  (FIXTURES.md §5).
HIST_EDGES = [0, 64, 128, 256, 512, 1024]
HIST_COLUMNS = [
    "hist_0_64", "hist_64_128", "hist_128_256",
    "hist_256_512", "hist_512_1024", "hist_1024_inf",
]

STAT_COLUMNS = ["n", "sum_n_tok", "min_n_tok", "max_n_tok"] + HIST_COLUMNS


def coalesce_partials(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Coalesce many tiny partial-aggregate blocks before the final groupby.

    A combiner stage emits one small block per input block; feeding hundreds
    of near-empty blocks into ``groupby`` pays per-block shuffle overhead
    (measured: 520 rows in 200 blocks → 8 s at 2 CPUs; after repartition →
    0.5 s).  A narrow ``repartition`` (no shuffle of content, just block
    packing) to ~CPU-count blocks fixes the granularity."""
    from zeeklog_ray.relational import cluster_cpus

    return ds.repartition(max(2, cluster_cpus() // 2))


def _partial_stats(key: str, value: str):
    """Build the per-batch combiner: batch → ≤|keys-in-batch| partial rows.

    All heavy work is Arrow C++ (dictionary-encode + bincount) — the pandas
    version of this combiner cost ~4.5µs/row and dominated the flagship
    aggregate; this one is ~0.2µs/row.
    """
    import numpy as np

    nb = len(HIST_COLUMNS)
    edges = np.asarray(HIST_EDGES[1:])

    def combine(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # null key or null value rows would corrupt the dictionary codes /
        # bincount weights (null index → garbage int64 after the numpy
        # cast); drop them up front — grouped_stats is a public API beyond
        # the never-null flagship path.
        if len(batch):
            valid = pc.and_kleene(pc.is_valid(batch[key]),
                                  pc.is_valid(batch[value]))
            if not pc.all(valid).as_py():
                batch = batch.filter(valid)
        if len(batch) == 0:
            return pa.table({key: pa.array([], type=pa.string()),
                             **{c: pa.array([], type=pa.int64())
                                for c in STAT_COLUMNS}})
        enc = batch[key]
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        dic = pc.dictionary_encode(enc)
        codes = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        keys_np = dic.dictionary.to_pylist()
        k = len(keys_np)
        v = batch[value].to_numpy(zero_copy_only=False).astype(np.int64)

        n = np.bincount(codes, minlength=k)
        sums = np.bincount(codes, weights=v, minlength=k).astype(np.int64)
        bucket = np.searchsorted(edges, v, side="right")  # 0..nb-1
        hist = np.bincount(codes * nb + bucket, minlength=k * nb).reshape(k, nb)
        # min/max per code: sort once by (code, value) and take group edges
        order = np.lexsort((v, codes))
        starts = np.searchsorted(codes[order], np.arange(k))
        ends = np.append(starts[1:], len(v)) - 1
        vmin = v[order][starts]
        vmax = v[order][ends]

        cols = {key: pa.array(keys_np, type=pa.string()),
                "n": pa.array(n, type=pa.int64()),
                "sum_n_tok": pa.array(sums, type=pa.int64()),
                "min_n_tok": pa.array(vmin, type=pa.int64()),
                "max_n_tok": pa.array(vmax, type=pa.int64())}
        for j, c in enumerate(HIST_COLUMNS):
            cols[c] = pa.array(hist[:, j], type=pa.int64())
        return pa.table(cols)

    return combine


def grouped_stats(ds: "ray.data.Dataset", key: str = "sink",
                  value: str = "n_tok") -> "ray.data.Dataset":
    """Per-``key`` count, sum/min/max of ``value`` and fixed-bucket histogram.

    Two-phase: vectorized per-batch partials (pandas groupby + digitize) →
    small ``groupby(key)`` merge.  Output columns: ``key, n, sum_n_tok,
    min_n_tok, max_n_tok, hist_*`` (int64).
    """
    partial = ds.select_columns([key, value]).map_batches(
        _partial_stats(key, value), batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True)
    partial = coalesce_partials(partial)
    aggs = [Sum("n", alias_name="n"),
            Sum("sum_n_tok", alias_name="sum_n_tok"),
            Min("min_n_tok", alias_name="min_n_tok"),
            Max("max_n_tok", alias_name="max_n_tok")]
    aggs += [Sum(c, alias_name=c) for c in HIST_COLUMNS]
    return partial.groupby(key).aggregate(*aggs)


def salted_groupby_sum(ds: "ray.data.Dataset", key: str, value: str,
                       salt_buckets: int = 16) -> "ray.data.Dataset":
    """Explicit salted two-phase grouped sum: ``groupby((key, salt))`` partial
    → ``groupby(key)`` final, with ``salt = hash(row) % K``.

    This is the classic hot-key mitigation (SURVEY.md §4): a skewed key
    (conn ≈ 70% of rows) would land on one reducer in a naive
    ``groupby(key)``; salting splits it across K reducers.  Prefer
    :func:`grouped_stats` / ``grouped_sum`` (map-side combiners) when the
    aggregate is algebraic — they absorb skew before ANY shuffle; use
    salting when the per-group state is too large to combine map-side
    (e.g. exact distinct counts or holistic aggregates per key).
    """
    import numpy as np
    from ray.data.aggregate import Sum

    def add_salt(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch[[key, value]].copy()
        # salt by ROW POSITION — perfectly balanced regardless of the value
        # distribution (a value-derived salt degenerates to one bucket when
        # the hot key's values are constant, defeating the mitigation)
        batch["_salt"] = (np.arange(len(batch)) % salt_buckets).astype("int64")
        return batch

    salted = ds.map_batches(add_salt, batch_format="pandas", batch_size=None)
    phase1 = salted.groupby([key, "_salt"]).aggregate(
        Sum(value, alias_name="_psum"))
    return coalesce_partials(phase1).groupby(key).aggregate(
        Sum("_psum", alias_name=f"sum_{value}"))


def _batch_unique(cols: list[str], dropna_col: str):
    def uniq(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.dropna(subset=[dropna_col]).drop_duplicates()

    return uniq


def distinct_column(ds: "ray.data.Dataset", col: str,
                    by: list[str] | None = None) -> "ray.data.Dataset":
    """Distinct values of ``col`` (optionally per ``by`` keys), null-free.

    Partial per-batch dedup shrinks the exchange; the final dedup is a
    ``groupby`` over (by + [col]) emitting one row per group.  This is the
    product semantics of the reference's ``_create_overview`` distinct-IP
    summary (zeek_log.rs:332-362) — true distinct rather than its
    first-cell-only quirk (SURVEY.md §7.4).
    """
    cols = (by or []) + [col]
    partial = ds.select_columns(cols).map_batches(
        _batch_unique(cols, col), batch_format="pandas", batch_size=None)
    partial = coalesce_partials(partial)
    # groupby over all columns with a count emits exactly one row per
    # distinct tuple; drop the count afterwards.
    from ray.data.aggregate import Count
    out = partial.groupby(cols).aggregate(Count(alias_name="_c"))
    return out.drop_columns(["_c"])
