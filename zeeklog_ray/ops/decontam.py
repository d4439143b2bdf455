"""Benchmark decontamination: flag training documents sharing byte
k-grams with a (small) benchmark/eval set.

The standard training-data hygiene step (the reference engine has no
analog; this generalizes its IP-blocklist filtering idea — ``main.rs``'s
golden-IP scan — to content overlap): before training, every document
that contains any n-gram from a held-out benchmark must be dropped or
down-weighted, or eval scores are inflated.

Scale shape — a pure broadcast semi-join, ZERO shuffle:

* the benchmark side is small by construction (benchmarks are MBs even
  when the corpus is 100 TB), so its distinct packed-gram set is
  collected once, deduplicated on the driver, and broadcast via
  ``ray.put`` — every map task reads the same object-store copy, it is
  never re-shipped per batch;
* the corpus side streams through one ``map_batches`` task stage; each
  batch resolves the gram array's object ref (zero-copy for a numpy
  array) and does one vectorized ``searchsorted`` membership probe over
  the concatenated gram windows of all its docs.  No groupby, no sort,
  no all-to-all — cost is a single read-scan of the corpus.

Grams are packed EXACTLY into uint64 (k ≤ 8, base-256 — injective, the
true gram set, not a hash), via the shared kernel
:func:`ops.dedup.packed_byte_windows` (one encoding for the dedup
verifiers and this scanner), so the contamination counts are exact
integers and the whole operator is bit-replayable in SQL
(``queries._decontam_oracle_sql``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray

from zeeklog_ray.relational import fits_in_heap


def _packed_kgram_pairs(texts: pd.Series, k: int
                        ) -> tuple[np.ndarray, np.ndarray]:
    """DISTINCT (doc_index, packed_gram) pairs for a batch, fully
    vectorized: the shared packing kernel
    (:func:`ops.dedup.packed_byte_windows`), then ONE lexsort +
    adjacent-diff dedup across the whole batch — no per-text
    ``np.unique`` Python loop, which dominates wall time when the
    operator scans the full corpus rather than a candidate list."""
    from zeeklog_ray.ops.dedup import packed_byte_windows

    packed, bounds, lengths = packed_byte_windows(texts, k)
    n_win = np.maximum(lengths - (k - 1), 0)
    if not len(packed) or not n_win.sum():
        return np.zeros(0, np.int64), np.zeros(0, np.uint64)
    # valid window start positions per doc (mask out boundary windows)
    seg = np.repeat(np.arange(len(texts), dtype=np.int64), n_win)
    starts = np.repeat(bounds[:-1], n_win) + \
        (np.arange(len(seg)) - np.repeat(np.cumsum(n_win) - n_win, n_win))
    grams = packed[starts]
    order = np.lexsort((grams, seg))
    s, g = seg[order], grams[order]
    keep = np.r_[True, (s[1:] != s[:-1]) | (g[1:] != g[:-1])]
    return s[keep], g[keep]


def collect_benchmark_grams(bench_ds: "ray.data.Dataset",
                            text_col: str = "text", k: int = 8
                            ) -> np.ndarray:
    """Distinct packed byte-k-grams of the benchmark set as a SORTED uint64
    array (the probe-side index).

    Per-batch distinct happens inside ``map_batches`` (only unique grams
    per batch cross the wire); the driver unions the per-batch arrays.
    The heap budget is a guardrail: the benchmark side must be
    broadcastable (8 B per gram must pass
    :func:`zeeklog_ray.relational.fits_in_heap`); a "benchmark" bigger
    than that is a misuse of this operator — raise instead of silently
    OOMing every worker.
    """

    def batch_grams(batch: pd.DataFrame) -> pd.DataFrame:
        _, grams = _packed_kgram_pairs(batch[text_col], k)
        return pd.DataFrame({"grams": [np.unique(grams)]})

    parts = bench_ds.map_batches(batch_grams, batch_format="pandas",
                                 batch_size=None).to_pandas()
    if len(parts) == 0:
        return np.empty(0, np.uint64)
    grams = np.unique(np.concatenate(list(parts["grams"])))
    if not fits_in_heap(grams.nbytes):
        raise ValueError(
            f"collect_benchmark_grams: {len(grams)} distinct grams "
            f"({grams.nbytes} B) exceed the heap budget "
            "(relational.HEAP_BUDGET_BYTES) — the benchmark side must stay "
            "broadcast-sized; split it")
    return grams.astype(np.uint64)


def benchmark_contamination(docs_ds: "ray.data.Dataset",
                            bench_ds: "ray.data.Dataset",
                            text_col: str = "text", k: int = 8,
                            id_col: str = "doc_id") -> "ray.data.Dataset":
    """Contaminated-doc report: ``(id_col, n_grams, n_hit, contam_e4)`` for
    every training doc sharing ≥1 distinct byte-k-gram with the benchmark
    set.  ``contam_e4 = (10000 * n_hit) // n_grams``.

    Docs shorter than ``k`` bytes have no grams and can never be flagged.
    """
    # the probe closes over the ref, never the array: the gram set may be
    # as large as the heap budget and must not be pickled into the task
    grams_ref = ray.put(collect_benchmark_grams(bench_ds, text_col, k))

    def probe(batch: pd.DataFrame) -> pd.DataFrame:
        bench = ray.get(grams_ref)
        seg, allg = _packed_kgram_pairs(batch[text_col], k)
        lens = np.bincount(seg, minlength=len(batch)).astype(np.int64)
        if len(bench) and len(allg):
            idx = np.searchsorted(bench, allg)
            np.minimum(idx, len(bench) - 1, out=idx)
            hit = bench[idx] == allg
        else:
            hit = np.zeros(len(allg), dtype=bool)
        # bincount segment-sum is safe for zero-gram docs (unlike reduceat)
        n_hit = np.bincount(seg[hit], minlength=len(batch)).astype(np.int64)
        out = pd.DataFrame({
            id_col: batch[id_col].to_numpy(),
            "n_grams": lens,
            "n_hit": n_hit,
        })
        out = out[out["n_hit"] > 0]
        # exact fixed-point contamination ratio (no float round-trip)
        out["contam_e4"] = (10_000 * out["n_hit"]) // out["n_grams"]
        return out

    return docs_ds.map_batches(probe, batch_format="pandas", batch_size=None)
