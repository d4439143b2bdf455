"""Benchmark harness — JSON lines on stdout (driver contract).

Default: run the headline pipelines over ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1) under ``ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS)`` (default: the CPUs this process may run on,
``len(os.sched_getaffinity(0))``) and print::

    {"metric": "...", "value": <headline sec>, "unit": "sec",
     "queries": {...}, "sf": ..., "num_cpus": N, "host_cpus": H, ...}

then, as the last line, its headline alone (:func:`summary_line`, at most
``SUMMARY_MAX_BYTES``), so a capture that keeps only the tail of stdout
still holds the flagship and scaling numbers::

    {"value": ..., "seq_per_s": ..., "tok_per_s": ..., "sf": ...,
     "num_cpus": N, "host_cpus": H, "scaling_efficiency": ...}

``host_cpus`` is that affinity count whatever ``RAY_GRAFT_CPUS`` says, so
a record states the hardware it ran on.

``--scaling``: run this same script in two FRESH processes at num_cpus=2
and num_cpus=8 on identical input and report both throughputs plus scaling
efficiency = (t_lo / t_hi) / (hi/lo) — the sandbox stand-in for N vs 4N
nodes (why 2→8 and not 8→32: BASELINE.md).  The default run EMBEDS this
measurement as a ``scaling`` block so every recorded bench re-verifies the
≥0.8 bar.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time


SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
HOST_CPUS = len(os.sched_getaffinity(0))
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", str(HOST_CPUS)))

# --scaling uses a larger corpus (cached one-time generation) so the timed
# region is dominated by distributed work, not per-run fixed costs (actor
# startup, pipeline spin-up) — the sandbox stand-in for cluster-scale input.
# 8M rows: large enough that the ~3 s fixed cost (ray.init + actor warmup
# + first-wave scheduling) is <25% of the 8-CPU wall, small enough that
# the routed write stays within the single virtio disk's bandwidth at 8
# CPUs — at 16M rows the 8-CPU run goes disk-bound (measured eff 0.53)
# and the measurement stops reflecting CPU scaling at all
SCALING_ROWS = int(os.environ.get("ZEEKLOG_SCALING_ROWS", "8000000"))
_BENCH_ROWS_ENV = "ZEEKLOG_BENCH_ROWS"          # override corpus size
_FLAGSHIP_ONLY_ENV = "ZEEKLOG_BENCH_ONLY_FLAGSHIP"
_SKIP_SCALING_ENV = "ZEEKLOG_SKIP_SCALING"      # guards subprocess recursion

# Queries timed beyond the flagship (a representative slice of the registry).
BENCH_QUERIES = [
    "zeek_sink_stats",
    "zeek_distinct_orig_h",
    "zeek_tsv_ingest",
    "zeek_token_vocab",
    "lineitem_pricing",
    "events_hourly",
    "event_sliding_windows",
    "order_priority_items",
    "exact_dedup_docs",
    "docs_prep_pipeline",
    "similarity_topk",
    "doc_quality",
    "minhash_dedup_pairs",
    "media_features",
    "salted_events_sum",
    "zeek_token_chunks",
    "docs_benchmark_contam",
    "user_event_pivot",
]


# Scale-certification benches (VERDICT r2 item 6): the bucketed-groupby
# temporal/dedup operators at ≥5M events / 1M planted-dup docs — sizes
# where the per-group Python cliff (~0.19 ms/group) would cost tens of
# minutes if any stage regressed to a per-key groupby.  Inputs are cached
# deterministic parquet (zeeklog_ray/benchdata.py), generation untimed.
# Every scale_* entry runs best-of-2 (VERDICT r3 item 4); the JSON line
# carries per-entry [min, max] under "scale_minmax".
SCALE_EVENT_ROWS = int(os.environ.get("ZEEKLOG_SCALE_EVENT_ROWS", "5000000"))
SCALE_DOC_ROWS = int(os.environ.get("ZEEKLOG_SCALE_DOC_ROWS", "1000000"))
_SKIP_SCALE_OPS_ENV = "ZEEKLOG_SKIP_SCALE_OPS"


def _run_scale_ops(timings: dict, minmax: dict, extras: dict) -> None:
    import ray.data

    from zeeklog_ray.benchdata import bench_docs_parquet, bench_events_parquet
    from zeeklog_ray.ops.dedup import minhash_lsh_pairs
    from zeeklog_ray.ops.graph import connected_components
    from zeeklog_ray.ops.sessionize import session_counts
    from zeeklog_ray.ops.streaming import trailing_windows

    # best-of-2 per entry (VERDICT r3 item 4): one stray scheduler/disk
    # hiccup in a single run moved recorded scale_* values up to 3× vs
    # the same code re-run; inputs are cached parquet so the repeat costs
    # only compute.  timings[] carries the min (the comparable number);
    # minmax[] carries [min, max] so an outlier run is attributable.
    def timed2(name: str, fn) -> None:
        vals = []
        for _ in range(2):
            t0 = time.monotonic()
            fn()
            vals.append(round(time.monotonic() - t0, 3))
        timings[name] = min(vals)
        minmax[name] = [min(vals), max(vals)]

    ev = bench_events_parquet(SCALE_EVENT_ROWS)      # cached, untimed
    dc = bench_docs_parquet(SCALE_DOC_ROWS)
    mtag = f"{SCALE_EVENT_ROWS // 1_000_000}m"
    dtag = f"{SCALE_DOC_ROWS // 1_000_000}m"

    timed2(f"scale_sliding_windows_{mtag}",
           lambda: trailing_windows(ray.data.read_parquet(ev), key="user_id",
                                    ts="ts", value="value").count())
    timed2(f"scale_sessions_{mtag}",
           lambda: session_counts(ray.data.read_parquet(ev), key="user_id",
                                  ts="ts").count())

    def near_dup(spill_dir=None):
        pairs = minhash_lsh_pairs(ray.data.read_parquet(dc),
                                  text_col="text", spill_dir=spill_dir)
        connected_components(pairs).count()

    timed2(f"scale_near_dup_components_{dtag}", near_dup)
    # same chain through the Parquet-spill pin (spill.pin_or_spill):
    # certifies the 100-TB path costs ~the object-store pin, not 2×
    timed2(f"scale_near_dup_components_{dtag}_spill",
           lambda: near_dup(spill_dir="/tmp/zeeklog_bench/spill"))

    # full training-data prep chain (filter → dedup → resample → pack) at
    # 1M docs; the bench pool has no English stopwords, so the stopword
    # gate is relaxed to keep the chain's volume realistic
    from zeeklog_ray.prep import prep_manifest

    def add_src(b):
        b["source"] = "s" + (b["doc_id"] % 4).astype(str)
        return b

    def prep_chain():
        docs1m = ray.data.read_parquet(dc).map_batches(
            add_src, batch_format="pandas", batch_size=None)
        prep_manifest(docs1m, rates={"s0": 2.5}, min_words=5,
                      min_stop_ratio_e4=0).count()

    timed2(f"scale_prep_manifest_{dtag}", prep_chain)

    # VERDICT r4 #6: the optional duplicated-span SCREEN in the prep
    # chain, benched BOTH ways on a LONG-doc corpus (200k docs × ~150
    # words) — the regime where the CDC tier's ~8-32× smaller exchange
    # should beat the per-window gram table outright
    dcl = bench_docs_parquet(200_000, n_words=150)   # cached, untimed

    def prep_screened(mode):
        def run():
            docs = ray.data.read_parquet(dcl).map_batches(
                add_src, batch_format="pandas", batch_size=None)
            prep_manifest(docs, min_words=5, min_stop_ratio_e4=0,
                          span_screen_ratio_e4=6_000,
                          span_screen_mode=mode).count()
        return run

    timed2("scale_prep_screen_cdc_200k_long", prep_screened("cdc"))
    timed2("scale_prep_screen_window_200k_long", prep_screened("window"))

    # hashed-feature Naive Bayes at corpus scale: train on the 1M docs
    # (4 source classes), apply to the same 1M — two full corpus passes
    # through the shared Arrow word kernel + one model-shaped sum
    from zeeklog_ray.ops.classify import nb_predict, train_nb

    def nb_chain():
        docs1m = ray.data.read_parquet(dc).map_batches(
            add_src, batch_format="pandas", batch_size=None)
        model = train_nb(docs1m, label_col="source", n_features=1 << 18)
        nb_predict(docs1m, model).count()

    timed2(f"scale_nb_train_predict_{dtag}", nb_chain)

    # incremental snapshot-vs-base dedup: 1M-doc base, 300k-doc "new
    # crawl" of which 100k are exact re-crawls of base content — the
    # bloom screen decides the 200k fresh docs with zero exchange and
    # only the ~100k hits pay the 128-bit semi-join verify
    from zeeklog_ray.ops.dedup import incremental_dedup

    def inc_dedup(spill_dir=None):
        import pandas as pd

        base = ray.data.read_parquet(dc)

        def as_new(b):
            fresh = b[b["doc_id"] % 5 < 2].copy()          # disjoint text
            fresh["doc_id"] = fresh["doc_id"] + 50_000_000
            fresh["text"] = fresh["text"] + " nf" + fresh["doc_id"].astype(str)
            recrawl = b[b["doc_id"] % 10 == 9].copy()       # exact copies
            recrawl["doc_id"] = recrawl["doc_id"] + 90_000_000
            return pd.concat([fresh, recrawl], ignore_index=True)

        new = ray.data.read_parquet(dc).map_batches(
            as_new, batch_format="pandas", batch_size=None)
        n = incremental_dedup(new, base, n_bits=1 << 24,
                              spill_dir=spill_dir).count()
        extras.setdefault("incremental_dedup_kept", n)

    timed2(f"scale_incremental_dedup_{dtag}", inc_dedup)
    # digest table through the Parquet spill seam (measured FASTER than
    # the object-store pin at this size — the pin serializes the digest
    # pass; the lazy re-read overlaps with the probe side)
    timed2(f"scale_incremental_dedup_{dtag}_spill",
           lambda: inc_dedup("/tmp/zeeklog_bench/spill"))

    # cross-snapshot NEAR-dup (LSH new×base join + exact-Jaccard verify):
    # 1M-doc base, 200k new of which 100k are EDITED re-crawls — the
    # near-dups the exact digest tier above cannot see; base band rows
    # are the dominant cost (computed once per corpus version at 100 TB)
    from zeeklog_ray.ops.dedup import incremental_near_dup

    def inc_near_dup():
        import pandas as pd

        base = ray.data.read_parquet(dc)

        def as_new(b):
            fresh = b[b["doc_id"] % 10 == 4].copy()        # disjoint text
            fresh["doc_id"] = fresh["doc_id"] + 50_000_000
            fresh["text"] = fresh["text"] + " nf" + fresh["doc_id"].astype(str)
            edited = b[b["doc_id"] % 10 == 9].copy()        # near copies
            edited["doc_id"] = edited["doc_id"] + 90_000_000
            edited["text"] = edited["text"] + " rev2"
            return pd.concat([fresh, edited], ignore_index=True)

        new = ray.data.read_parquet(dc).map_batches(
            as_new, batch_format="pandas", batch_size=None)
        n = incremental_near_dup(new, base, threshold_e4=5000).count()
        extras.setdefault("incremental_near_dup_pairs", n)
        assert n >= 90_000, n                   # planted edited re-crawls

    timed2(f"scale_incremental_near_dup_{dtag}", inc_near_dup)

    # the PERSISTED-band-table path: the base band rows are computed once
    # per corpus version (untimed setup, written to Parquet) and each
    # incremental run pays only the new side's signatures + the band join
    # + verify — the true daily-crawl cost at 100 TB
    from zeeklog_ray.ops.dedup import band_table

    bt_dir = "/tmp/zeeklog_bench/band_table"
    import shutil as _shutil

    _shutil.rmtree(bt_dir, ignore_errors=True)
    band_table(ray.data.read_parquet(dc)).write_parquet(bt_dir)

    def inc_near_dup_banded():
        import pandas as pd

        base = ray.data.read_parquet(dc)

        def as_new(b):
            fresh = b[b["doc_id"] % 10 == 4].copy()
            fresh["doc_id"] = fresh["doc_id"] + 50_000_000
            fresh["text"] = fresh["text"] + " nf" + fresh["doc_id"].astype(str)
            edited = b[b["doc_id"] % 10 == 9].copy()
            edited["doc_id"] = edited["doc_id"] + 90_000_000
            edited["text"] = edited["text"] + " rev2"
            return pd.concat([fresh, edited], ignore_index=True)

        new = ray.data.read_parquet(dc).map_batches(
            as_new, batch_format="pandas", batch_size=None)
        n = incremental_near_dup(
            new, base, threshold_e4=5000,
            base_banded=ray.data.read_parquet(bt_dir)).count()
        extras.setdefault("incremental_near_dup_banded_pairs", n)
        assert n >= 90_000, n

    timed2(f"scale_incremental_near_dup_{dtag}_banded", inc_near_dup_banded)
    _shutil.rmtree(bt_dir, ignore_errors=True)

    # per-key ROW_NUMBER (full-table window) and latest-wins compaction
    # at the same 5M-event scale — both ride the bucketed-groupby pattern
    from zeeklog_ray.relational import latest_per_key, seq_index_per_key

    timed2(f"scale_user_seq_{mtag}",
           lambda: seq_index_per_key(ray.data.read_parquet(ev), "user_id",
                                     ["ts"]).count())
    timed2(f"scale_latest_per_key_{mtag}",
           lambda: latest_per_key(ray.data.read_parquet(ev), ["user_id"],
                                  ["ts"]).count())

    # the round-3 window/rank family at the same 5M-event scale: ROWS
    # frame (prefix-sum algebra), RANK/DENSE_RANK/NTILE + fixed-point
    # percentiles, and combiner-first mode
    from zeeklog_ray.ops.streaming import rows_window
    from zeeklog_ray.relational import mode_per_key, ranks_per_key

    timed2(f"scale_rows_window_{mtag}",
           lambda: rows_window(ray.data.read_parquet(ev), key="user_id",
                               order_cols=["ts"], value="value",
                               preceding=5).count())
    timed2(f"scale_ranks_{mtag}",
           lambda: ranks_per_key(ray.data.read_parquet(ev), "user_id",
                                 ["value", "ts"], tie_cols=["value"],
                                 ntile=10, percent_scale=10**4).count())
    timed2(f"scale_mode_{mtag}",
           lambda: mode_per_key(ray.data.read_parquet(ev), "user_id",
                                "value").count())

    # deterministic global shuffle order at 5M rows (two-level prefix
    # sum + one bucketed shuffle) and per-key cap at 5M rows / 100k keys
    # — over ray.data.range (the unique-int64-id input shape; the events
    # table has no id column), 64 blocks ≈ the parquet layout
    from zeeklog_ray.ops.sample import shuffle_rank
    from zeeklog_ray.relational import cap_per_key

    def add_key(b):
        b["k"] = b["id"] % 100_000
        return b

    timed2("scale_shuffle_rank_5m",
           lambda: shuffle_rank(ray.data.range(5_000_000,
                                               override_num_blocks=64),
                                id_col="id").count())
    timed2("scale_cap_per_key_5m",
           lambda: cap_per_key(
               ray.data.range(5_000_000, override_num_blocks=64)
               .map_batches(add_key, batch_format="pandas",
                            batch_size=None),
               "k", 10, "id").count())

    # decontamination at 1M docs: benchmark = doc_id % 1000 == 0 (~1k
    # docs), the broadcast shape's intended regime — tiny probe side,
    # full-corpus map scan
    import pyarrow.compute as pc

    from zeeklog_ray.ops.decontam import benchmark_contamination

    def side(is_bench):
        def f(b):
            mod = pc.subtract(b["doc_id"],
                              pc.multiply(pc.divide(b["doc_id"], 1000), 1000))
            keep = pc.equal(mod, 0) if is_bench else pc.not_equal(mod, 0)
            return b.filter(keep)

        return f

    def contam():
        docs = ray.data.read_parquet(dc)
        benchmark_contamination(
            docs.map_batches(side(False), batch_format="pyarrow",
                             batch_size=None),
            docs.map_batches(side(True), batch_format="pyarrow",
                             batch_size=None),
        ).count()

    timed2(f"scale_benchmark_contam_{dtag}", contam)

    # TF-IDF top terms at 1M docs: row-local tf + entity-shaped df +
    # word-hash join + bucketed per-doc top-k — the full multi-shuffle
    # relevance pipeline
    from zeeklog_ray.ops.text import tfidf_top_terms

    timed2(f"scale_tfidf_{dtag}",
           lambda: tfidf_top_terms(ray.data.read_parquet(dc), k=3,
                                   n_docs=SCALE_DOC_ROWS).count())

    # keyword retrieval at 1M docs: 3 pool words (~0.4% df each) — one
    # corpus pass, O(matching postings) exchange, driver-folded df/top-k
    from zeeklog_ray.ops.retrieval import keyword_search

    q_terms = ray.data.read_parquet(dc).take(1)[0]["text"].split()[:3]

    def kw_search():
        n = keyword_search(ray.data.read_parquet(dc), q_terms,
                           k=20).count()
        assert n == 20, n

    timed2(f"scale_keyword_search_{dtag}", kw_search)

    # normalization-canonicalized exact dedup at 1M docs: one extra
    # vectorized regex pass over the raw exact tier's digest shuffle
    from zeeklog_ray.ops.dedup import normalized_exact_dedup

    timed2(f"scale_normalized_dedup_{dtag}",
           lambda: normalized_exact_dedup(
               ray.data.read_parquet(dc)).count())

    # SimHash Hamming-radius-3 pairs at 1M docs: 4 band rows/doc shuffle,
    # popcount verify on the join output (planted exact-dup clusters
    # surface as hamming-0 pairs)
    from zeeklog_ray.ops.dedup import simhash_near_dup_pairs

    timed2(f"scale_simhash_pairs_{dtag}",
           lambda: simhash_near_dup_pairs(ray.data.read_parquet(dc),
                                          max_hamming=3).count())

    # triangle count on a 1M-node / 2M-edge ladder graph (edges (i,i+1),
    # (i,i+2) → exactly n-2 triangles): certifies the degree-orientation
    # wedge path + multi-key closure join at millions of edges
    from zeeklog_ray.ops.graph import triangle_count

    n_nodes = 1_000_000

    def ladder(b):
        i = b["id"].to_numpy()
        import numpy as _np

        a = _np.concatenate([i, i])
        b2 = _np.concatenate([i + 1, i + 2])
        keep = b2 < n_nodes
        import pandas as _pd

        return _pd.DataFrame({"doc_a": a[keep], "doc_b": b2[keep]})

    def triangles():
        got = triangle_count(
            ray.data.range(n_nodes, override_num_blocks=64).map_batches(
                ladder, batch_format="pandas", batch_size=None))
        assert got == n_nodes - 2, got

    timed2("scale_triangles_2m_edges", triangles)

    # cohort retention + key-skew profile at the 5M-event scale (both
    # ride the entity-shaped bucketed count / join / dedup patterns)
    from zeeklog_ray.relational import key_skew_profile, retention_cohorts

    timed2(f"scale_key_skew_{mtag}",
           lambda: key_skew_profile(ray.data.read_parquet(ev), "user_id"))
    timed2(f"scale_retention_{mtag}",
           lambda: retention_cohorts(ray.data.read_parquet(ev)).count())

    # BPE tokenizer training at 1M docs (16 merges): the corpus pass to
    # the distinct-word table dominates; the merge rounds run on the
    # driver tier (vocab ≪ 1M)
    from zeeklog_ray.ops.bpetrain import train_bpe

    timed2(f"scale_bpe_train_{dtag}",
           lambda: train_bpe(ray.data.read_parquet(dc), n_merges=16))

    from zeeklog_ray import relational

    def train_bpe_distributed(*args, **kw) -> dict:
        # a zero heap budget forces the distributed training tier
        saved = relational.HEAP_BUDGET_BYTES
        relational.HEAP_BUDGET_BYTES = 0
        try:
            return train_bpe(*args, **kw)
        finally:
            relational.HEAP_BUDGET_BYTES = saved

    # the DISTRIBUTED training tier at its volume regime: 3M distinct
    # words (every word unique), 4 merge rounds — per-round bucketed
    # pair census + row-local merge apply
    def uniq_words(b):
        i = b["id"].to_numpy()
        import pandas as _pd

        return _pd.DataFrame(
            {"text": [f"w{a:07x} x{a:07x} y{a:07x}" for a in i]})

    docs_u = ray.data.range(1_000_000, override_num_blocks=64).map_batches(
        uniq_words, batch_format="pandas", batch_size=None)

    def bpe_3m():
        fit = train_bpe_distributed(docs_u, n_merges=4)
        assert fit["n_distinct_words"] == 3_000_000

    timed2("scale_bpe_train_distributed_3m_words", bpe_3m)

    # the distributed tier at a REALISTIC merge count (VERDICT r3 item 6):
    # 64 merges over ~840k distinct natural-statistics words (Zipf
    # syllables).  Exactness-preserving merge BATCHING amortizes the
    # census shuffle — rounds ≪ merges; both recorded so the sub-linear
    # claim is auditable per round.
    _SYL = __import__("numpy").array(
        [f"{a}{b}" for a in "bcdfghjklmnpqrstvwz" for b in "aeiou"][:64])
    _P = 1.0 / __import__("numpy").arange(1, 65)
    _P /= _P.sum()

    def zipf_lines(b):
        import numpy as _np
        import pandas as _pd

        i = b["id"].to_numpy()
        rng = _np.random.default_rng(int(i[0]) + 1)
        n_words = len(i) * 10
        ln = rng.integers(2, 6, size=n_words)
        offs = _np.zeros(n_words + 1, dtype=_np.int64)
        _np.cumsum(ln, out=offs[1:])
        syl = _SYL[rng.choice(64, size=int(ln.sum()), p=_P)]
        joined = _np.array(["".join(syl[offs[k]:offs[k + 1]])
                            for k in range(n_words)], dtype=object)
        return _pd.DataFrame(
            {"text": [" ".join(joined[j * 10:(j + 1) * 10])
                      for j in range(len(i))]})

    docs_z = ray.data.range(200_000, override_num_blocks=64).map_batches(
        zipf_lines, batch_format="pandas", batch_size=None)

    def bpe_64():
        fit = train_bpe_distributed(docs_z, n_merges=64)
        assert len(fit["merges"]) == 64
        extras["bpe64_rounds"] = fit["n_rounds"]
        extras["bpe64_distinct_words"] = fit["n_distinct_words"]

    timed2("scale_bpe_train_distributed_64merges", bpe_64)

    # VERDICT r4 #2 evidence: the incremental-census tier at 4× the
    # merges — wall must grow SUB-linearly (the full pair census
    # shuffles once; later rounds exchange only the deltas of changed
    # words and the provable merge batches grow).  Single-shot (the
    # 64-merge twin above is best-of-2; this entry exists for the
    # growth ratio, not the absolute number).
    t0 = time.monotonic()
    fit256 = train_bpe_distributed(docs_z, n_merges=256)
    timings["scale_bpe_train_distributed_256merges"] = round(
        time.monotonic() - t0, 3)
    assert len(fit256["merges"]) == 256
    extras["bpe256_rounds"] = fit256["n_rounds"]

    # full-data k-means (3 Lloyd passes) + int8 quantization over 1M
    # 16-dim vectors synthesized row-locally from the id
    from zeeklog_ray.ops.cluster import kmeans_fit
    from zeeklog_ray.ops.similarity import quantize_embeddings

    def mkvec(b):
        import numpy as _np
        import pandas as _pd

        i = b["id"].to_numpy()
        base = (i % 8).astype(_np.float64)[:, None]
        noise = _np.sin(_np.outer(i, _np.arange(1, 17))) * 0.1
        return _pd.DataFrame({"vec_id": i,
                              "embedding": list((base + noise)
                                                .astype(_np.float32))})

    vecs = ray.data.range(1_000_000, override_num_blocks=64).map_batches(
        mkvec, batch_format="pandas", batch_size=None)
    timed2("scale_kmeans_1m_x16",
           lambda: kmeans_fit(vecs, k=8, n_iters=3, seed=1))
    timed2("scale_quantize_1m_x16",
           lambda: quantize_embeddings(vecs).count())

    # PCA (covariance partials → driver eigh → row-local projection) and
    # the exact int8 Gram — both the fixed-size d×d-partial exchange —
    # over the same 1M × 16 vectors
    from zeeklog_ray.ops.linalg import gram_int8, pca_fit, pca_project

    timed2("scale_pca_fit_project_1m_x16",
           lambda: pca_project(vecs, pca_fit(vecs, k=4)).count())
    timed2("scale_gram_1m_x16", lambda: gram_int8(vecs).count())

    # cluster-blocked semantic near-dup at 300k × 16 over a REALISTIC
    # clustered embedding corpus (1024 tight prototype directions + σ=.05
    # noise — within-prototype cosine ≈ .96, well under the .9999 dup
    # threshold) with a planted exact duplicate every 97 ids.  Within-
    # cluster all-pairs is Θ(n²/c) CPU by design — the bench certifies
    # the blocking keeps it parallel and sub-quadratic end-to-end, not
    # that quadratic work is free (measured ~42 s CPU per 200k exploded
    # rows at c=64; c=256 keeps blocks ~2.3k rows)
    from zeeklog_ray.ops.dedup import semantic_dedup_pairs

    _PROTO = __import__("numpy").random.default_rng(123).normal(size=(1024, 16))
    _PROTO /= __import__("numpy").linalg.norm(_PROTO, axis=1, keepdims=True)

    def mkdirs(b):
        import numpy as _np
        import pandas as _pd

        i = b["id"].to_numpy()
        rng = _np.random.default_rng(int(i[0]) + 7)
        m = _PROTO[i % 1024] + rng.normal(scale=0.05, size=(len(i), 16))
        dup = (i % 97 == 0) & (i > i[0])       # copy predecessor in-batch
        rows = _np.flatnonzero(dup)
        m[rows] = m[rows - 1]
        return _pd.DataFrame({"vec_id": i,
                              "embedding": list(m.astype(_np.float32))})

    dvecs = ray.data.range(300_000, override_num_blocks=64).map_batches(
        mkdirs, batch_format="pandas", batch_size=None)

    def sem_dedup():
        n = semantic_dedup_pairs(dvecs, threshold_e4=9999, n_clusters=256,
                                 n_probes=2, seed=3).count()
        extras["semantic_dedup_pairs_found"] = n
        assert n >= 2_500, n                   # ~3.1k planted duplicates

    timed2("scale_semantic_dedup_300k_x16", sem_dedup)

    # zone-map range index at 5M rows: one range-partitioned sorted
    # export (the all-to-all), then a ~1%-selective scan that must open
    # only the overlapping files — the pruning win is recorded in extras
    from zeeklog_ray.partitioned import (
        write_sorted_zonemap,
        zonemap_files_for_range,
        zonemap_scan,
    )

    zm_root = "/tmp/zeeklog_bench/zonemap_5m"

    def add_v(b):
        import numpy as _np

        b["v"] = (b["id"].to_numpy() * 2654435761) % 5_000_000
        return b

    zrows = ray.data.range(5_000_000, override_num_blocks=64).map_batches(
        add_v, batch_format="pandas", batch_size=None)

    def zm_export():
        shutil.rmtree(zm_root, ignore_errors=True)
        m = write_sorted_zonemap(zrows, "v", zm_root, num_files=64)
        extras["zonemap_files"] = len(m["files"])

    timed2("scale_zonemap_export_5m", zm_export)

    def zm_scan():
        import json as _json

        n = zonemap_scan(zm_root, 1_000_000, 1_049_999).count()
        assert n == 50_000, n
        with open(os.path.join(zm_root, "manifest.json")) as f:
            m = _json.load(f)
        extras["zonemap_files_scanned"] = len(
            zonemap_files_for_range(m, 1_000_000, 1_049_999))

    timed2("scale_zonemap_scan_5m", zm_scan)

    # round-4 continuation ops over the same cached corpora: substring-
    # level dup spans (~n_words window rows per doc through ONE
    # gram-bucketed shuffle), row-local Gopher repetition, corpus-
    # frequency scoring (two word-keyed exchanges + doc-shaped finish),
    # PMI collocations, and the per-group MG heavy hitters / two-pass
    # stratified sample at 5M events
    from zeeklog_ray.ops.dedup import duplicated_window_stats
    from zeeklog_ray.ops.sample import stratified_sample
    from zeeklog_ray.ops.sketch import grouped_heavy_hitters
    from zeeklog_ray.ops.text import (
        bigram_pmi_topk,
        rare_word_stats,
        repetition_stats,
    )

    def dup_windows():
        out = duplicated_window_stats(ray.data.read_parquet(dc))
        assert out.count() == SCALE_DOC_ROWS

    timed2(f"scale_dup_windows_{dtag}", dup_windows)

    from zeeklog_ray.ops.dedup import remove_dup_spans

    def dup_span_clean():
        out = remove_dup_spans(ray.data.read_parquet(dc))
        assert out.count() == SCALE_DOC_ROWS

    timed2(f"scale_remove_dup_spans_{dtag}", dup_span_clean)
    timed2(f"scale_repetition_{dtag}",
           lambda: repetition_stats(ray.data.read_parquet(dc)).count())
    timed2(f"scale_rare_words_{dtag}",
           lambda: rare_word_stats(ray.data.read_parquet(dc)).count())

    def pmi():
        out = bigram_pmi_topk(ray.data.read_parquet(dc), k=20,
                              min_count=5)
        assert len(out) == 20

    timed2(f"scale_bigram_pmi_{dtag}", pmi)

    def add_etype(b):
        b["etype"] = "t" + (b["user_id"] % 7).astype(str)
        return b

    evg = ray.data.read_parquet(ev).map_batches(
        add_etype, batch_format="pandas", batch_size=None)
    timed2(f"scale_grouped_heavy_hitters_{mtag}",
           lambda: grouped_heavy_hitters(evg, "etype", "user_id", k=10,
                                         capacity=4096))

    def strat():
        n = stratified_sample(evg, key_col="user_id", by="etype",
                              target_per_group=100_000).count()
        # 7 strata × ~100k kept each, binomial noise; the per-USER draw
        # keeps all rows of a sampled user in its stratum
        assert 400_000 < n < 1_200_000, n

    timed2(f"scale_stratified_sample_{mtag}", strat)

    # ---- round-4 continuation: CDC screening tier, distinctive terms,
    # trailing-deviation anomaly pass, partition compaction ----
    import pandas as pd

    from zeeklog_ray.ops.dedup import cdc_dup_stats
    from zeeklog_ray.ops.streaming import trailing_deviation
    from zeeklog_ray.ops.text import source_distinctive_terms
    from zeeklog_ray.relational import grouped_sum_bucketed

    def cdc():
        out = cdc_dup_stats(ray.data.read_parquet(dc))
        assert out.count() == SCALE_DOC_ROWS

    timed2(f"scale_cdc_dup_{dtag}", cdc)

    def distinctive():
        docs_s = ray.data.read_parquet(dc).map_batches(
            add_src, batch_format="pandas", batch_size=None)
        out = source_distinctive_terms(docs_s, k=10, min_count=20)
        assert out.count() == 40   # 4 sources × top-10

    timed2(f"scale_distinctive_terms_{dtag}", distinctive)

    # (user, hour) counts (entity-shaped bucketed sum over 5M events,
    # ~3.4M groups) -> bucketed trailing-deviation window pass
    def hour_col(b):
        return pd.DataFrame({"user_id": b["user_id"],
                             "hour": b["ts"].dt.floor("h")
                             .dt.strftime("%Y-%m-%d %H")})

    def spikes():
        hourly = grouped_sum_bucketed(
            ray.data.read_parquet(ev).map_batches(
                hour_col, batch_format="pandas", batch_size=None),
            ["user_id", "hour"], count_as="n")
        n = trailing_deviation(hourly, key="user_id", order="hour",
                               value="n", window=24).count()
        assert n > SCALE_EVENT_ROWS // 2

    timed2(f"scale_trailing_deviation_{mtag}", spikes)

    # compaction of a 30-partition × 16-small-files day layout: template
    # built once (untimed); each run restores the template with a local
    # copy (untimed) and times ONLY compact_partitions
    from zeeklog_ray.partitioned import compact_partitions, write_partitioned

    tmpl = "/tmp/zeeklog_bench/compact-template"
    work = "/tmp/zeeklog_bench/compact-work"
    if not os.path.exists(os.path.join(tmpl, "_DONE")):
        shutil.rmtree(tmpl, ignore_errors=True)

        def add_day(b):
            return pd.DataFrame({
                "user_id": b["user_id"], "value": b["value"],
                "day": b["ts"].dt.floor("d").dt.strftime("%Y-%m-%d")})

        write_partitioned(
            ray.data.read_parquet(ev).map_batches(
                add_day, batch_format="pandas", batch_size=None)
            .repartition(16), tmpl, ["day"])
        with open(os.path.join(tmpl, "_DONE"), "w") as f:
            f.write("ok")
    vals = []
    for _ in range(2):
        shutil.rmtree(work, ignore_errors=True)
        shutil.copytree(tmpl, work)             # untimed reset
        t0 = time.monotonic()
        rep = compact_partitions(work, target_rows=10_000_000)
        vals.append(round(time.monotonic() - t0, 3))
        assert int(rep["rows"].sum()) == SCALE_EVENT_ROWS
        assert (rep["files_after"] < rep["files_before"]).all()
    timings[f"scale_compaction_{mtag}"] = min(vals)
    minmax[f"scale_compaction_{mtag}"] = [min(vals), max(vals)]

    # CDC upsert into a 30-day keyed store: a ~14k-row change batch
    # (updates + tombstones + inserts) lands in 3 of the 30 day
    # partitions; the merge must rewrite ONLY those 3 (~17% of rows at
    # this layout) — the touched-partition economics is the measured
    # thing.  Template built once untimed, restored per run untimed.
    import numpy as np
    import pandas as pd

    from zeeklog_ray.partitioned import upsert_partitions

    utmpl = "/tmp/zeeklog_bench/upsert-template"
    uwork = "/tmp/zeeklog_bench/upsert-work"
    if not os.path.exists(os.path.join(utmpl, "_DONE")):
        shutil.rmtree(utmpl, ignore_errors=True)

        def add_key_day(b):
            ids = b["id"].to_numpy()
            return pd.DataFrame({
                "k": ids,
                "day": pd.Series((ids % 30).astype("int64")).map(
                    lambda d: f"2024-06-{d + 1:02d}"),
                "v": (ids * 2654435761) % 1_000_000,
                "ver": np.zeros(len(ids), dtype=np.int64)})

        write_partitioned(
            ray.data.range(SCALE_EVENT_ROWS, override_num_blocks=64)
            .map_batches(add_key_day, batch_format="pandas",
                         batch_size=None), utmpl, ["day"])
        with open(os.path.join(utmpl, "_DONE"), "w") as f:
            f.write("ok")
    ids = np.arange(0, SCALE_EVENT_ROWS, 37, dtype=np.int64)
    ids = ids[np.isin(ids % 30, [5, 12, 23])]          # 3 touched days
    dels = np.arange(5, SCALE_EVENT_ROWS, 30 * 1111, dtype=np.int64)
    ins = np.arange(SCALE_EVENT_ROWS, SCALE_EVENT_ROWS + 1000,
                    dtype=np.int64)
    chg = pd.DataFrame({
        "k": np.concatenate([ids, dels, ins]),
        "day": pd.Series(np.concatenate(
            [ids % 30, dels % 30,
             np.array([5, 12, 23], dtype=np.int64)[ins % 3]])
            .astype("int64")).map(lambda d: f"2024-06-{d + 1:02d}"),
        "v": np.int64(0),
        "ver": np.int64(1),
        "deleted": np.concatenate([
            np.zeros(len(ids), dtype=bool), np.ones(len(dels), dtype=bool),
            np.zeros(len(ins), dtype=bool)])})
    vals = []
    for _ in range(2):
        shutil.rmtree(uwork, ignore_errors=True)
        shutil.copytree(utmpl, uwork)               # untimed reset
        changes = ray.data.from_pandas(chg)
        t0 = time.monotonic()
        rep = upsert_partitions(uwork, changes, part_col="day", key="k",
                                order_col="ver", deleted_col="deleted")
        vals.append(round(time.monotonic() - t0, 3))
        assert len(rep) == 3, rep                   # touched-only merges
        assert int(rep["deleted"].sum()) == len(dels)
        assert (int(rep["rows_after"].sum())
                == int(rep["rows_before"].sum()) + len(ins) - len(dels))
    extras["upsert_partitions_touched"] = 3
    extras["upsert_changes"] = int(len(chg))
    timings[f"scale_upsert_{mtag}"] = min(vals)
    minmax[f"scale_upsert_{mtag}"] = [min(vals), max(vals)]

    # Incremental view maintenance: per-partition group-sums over a
    # 30-day / 97-group keyed store.  Measured pair: the FULL first
    # build (all 30 partitions) vs the CDC refresh after a delta batch
    # touching 3 partitions — the ratio IS the claim (refresh cost is
    # O(touched partitions), never a table scan).
    from zeeklog_ray.partitioned import (
        append_deltas,
        read_group_sums,
        refresh_group_sums,
    )

    itmpl = "/tmp/zeeklog_bench/ivm-template"
    iwork = "/tmp/zeeklog_bench/ivm-work"
    if not os.path.exists(os.path.join(itmpl, "_DONE")):
        shutil.rmtree(itmpl, ignore_errors=True)

        def add_key_day_g(b):
            ids = b["id"].to_numpy()
            return pd.DataFrame({
                "k": ids,
                "day": pd.Series((ids % 30).astype("int64")).map(
                    lambda d: f"2024-06-{d + 1:02d}"),
                "g": (ids % 97).astype("int64"),
                "v": (ids * 2654435761) % 1_000_000,
                "ver": np.zeros(len(ids), dtype=np.int64)})

        write_partitioned(
            ray.data.range(SCALE_EVENT_ROWS, override_num_blocks=64)
            .map_batches(add_key_day_g, batch_format="pandas",
                         batch_size=None), itmpl, ["day"])
        with open(os.path.join(itmpl, "_DONE"), "w") as f:
            f.write("ok")
    iids = np.arange(0, SCALE_EVENT_ROWS, 37, dtype=np.int64)
    iids = iids[np.isin(iids % 30, [5, 12, 23])]       # 3 touched days
    ichg = pd.DataFrame({
        "k": iids,
        "day": pd.Series((iids % 30).astype("int64")).map(
            lambda d: f"2024-06-{d + 1:02d}"),
        "g": (iids % 97).astype("int64"),
        "v": np.int64(1_000_000),
        "ver": np.int64(1),
        "deleted": iids % 11 == 0})
    fvals, ivals = [], []
    for _ in range(2):
        shutil.rmtree(iwork, ignore_errors=True)
        shutil.copytree(itmpl, iwork)               # untimed reset
        agg = iwork + "-agg"
        shutil.rmtree(agg, ignore_errors=True)
        t0 = time.monotonic()
        full = refresh_group_sums(iwork, agg, key="k", order_col="ver",
                                  group_cols=["g"], sum_cols=["v"],
                                  deleted_col="deleted")
        fvals.append(round(time.monotonic() - t0, 3))
        assert len(full) == 30 and int(full["rows"].sum()) \
            == SCALE_EVENT_ROWS
        rep = append_deltas(iwork, ray.data.from_pandas(ichg),
                            part_col="day")          # untimed: CDC land
        t0 = time.monotonic()
        incr = refresh_group_sums(iwork, agg, key="k", order_col="ver",
                                  group_cols=["g"], sum_cols=["v"],
                                  deleted_col="deleted",
                                  parts=rep["dir"].tolist())
        ivals.append(round(time.monotonic() - t0, 3))
        assert len(incr) == 3, incr
        n_groups = read_group_sums(agg).count()
        assert n_groups == 30 * 97, n_groups
    extras["ivm_changes"] = int(len(ichg))
    extras["ivm_full_over_incremental"] = round(min(fvals) / min(ivals), 2)
    timings[f"scale_ivm_full_{mtag}"] = min(fvals)
    timings[f"scale_ivm_incremental_{mtag}"] = min(ivals)
    minmax[f"scale_ivm_full_{mtag}"] = [min(fvals), max(fvals)]
    minmax[f"scale_ivm_incremental_{mtag}"] = [min(ivals), max(ivals)]

    # loader materialization over the flagship corpus (600k seqs at
    # sf0.1): (source, date) cell exchange carrying the tokens (offsets
    # + per-pack pieces in one task) + per-pack piece exchange +
    # vectorized scatter assembly — the trainer-feed last mile
    from zeeklog_ray.corpus import corpus_for_sf_dir
    from zeeklog_ray.loader import pack_token_rows

    zc = corpus_for_sf_dir(SF_DIR)

    def packrows():
        ds = ray.data.read_parquet(
            zc, columns=["doc_id", "tokens", "n_tok", "source", "date"])
        n = pack_token_rows(ds, context_len=2048).count()
        extras.setdefault("packed_rows", n)

    timed2("scale_pack_rows_flagship", packrows)


#: keys of the summary line, plus ``scaling_efficiency`` when the record
#: embeds a scaling run
SUMMARY_KEYS = ("value", "seq_per_s", "tok_per_s", "sf", "num_cpus",
                "host_cpus")
SUMMARY_MAX_BYTES = 512


def summary_line(record: dict) -> str:
    """The headline of a full bench record as one short JSON line."""
    summary = {k: record[k] for k in SUMMARY_KEYS}
    if "scaling" in record:
        summary["scaling_efficiency"] = record["scaling"]["scaling_efficiency"]
    return json.dumps(summary)


def _find_record(stdout: str, key: str) -> dict:
    """The last JSON line of ``stdout`` that has ``key``."""
    for line in reversed(stdout.splitlines()):
        try:
            rec = json.loads(line)
        except ValueError:
            continue
        if isinstance(rec, dict) and key in rec:
            return rec
    raise ValueError(f"no JSON record with {key!r} in bench output")


def _sf_tag(sf_dir: str) -> str:
    return os.path.basename(os.path.normpath(sf_dir)).removeprefix("sf")


def run_bench() -> dict:
    import ray

    from zeeklog_ray.corpus import corpus_for_sf_dir, generate_corpus

    # Corpus generation + page-cache warmup happen OUTSIDE the timed region.
    if os.environ.get(_BENCH_ROWS_ENV):
        corpus = generate_corpus(int(os.environ[_BENCH_ROWS_ENV]))
    else:
        corpus = corpus_for_sf_dir(SF_DIR)
    if not os.environ.get(_FLAGSHIP_ONLY_ENV):
        # BENCH_QUERIES run against SF_DIR in EITHER branch; fixtures some
        # of them read (gzip TSV tree, media parquet) are one-time
        # generation — keep that untimed too
        from zeeklog_ray.queries import ensure_oracle_corpus

        ensure_oracle_corpus(SF_DIR)

    from zeeklog_ray.raypatch import worker_runtime_env

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR", runtime_env=worker_runtime_env())
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from zeeklog_ray.pipeline import PipelineConfig, build_dataset
    from zeeklog_ray import queries as Q

    # untimed warm read (page cache + Ray worker start)
    build_dataset(PipelineConfig(corpus_dir=corpus)).count()

    # ---- headline: full parse → enrich → route(write) → aggregate ----
    # (fused file-granular flagship — see zeeklog_ray/flagship.py)
    from zeeklog_ray.flagship import run_flagship

    # best-of-2 for the HEADLINE too (VERDICT r4 #4): the r4 driver
    # recorded a single-shot flagship 3.3× off the live number on this
    # ±25-40%-spread host; scale_* entries were already best-of-2, the
    # one number the driver quotes was not
    out_dir = f"/tmp/zeeklog_bench/routed-{NUM_CPUS}"
    minmax: dict[str, list[float]] = {}
    vals = []
    # scaling subprocesses (_FLAGSHIP_ONLY) are already best-of-2 at the
    # process level in run_scaling — don't double up inside them
    for _ in range(1 if os.environ.get(_FLAGSHIP_ONLY_ENV) else 2):
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.monotonic()
        stats = run_flagship(PipelineConfig(corpus_dir=corpus, enrich=True),
                             out_dir)
        vals.append(time.monotonic() - t0)
    headline = min(vals)
    minmax["flagship_parse_enrich_route_aggregate"] = [
        round(min(vals), 3), round(max(vals), 3)]
    n_seq = int(stats["n"].sum())
    n_tok = int(stats["sum_n_tok"].sum())

    timings: dict[str, float] = {"flagship_parse_enrich_route_aggregate": round(headline, 3)}
    for name in ([] if os.environ.get(_FLAGSHIP_ONLY_ENV) else BENCH_QUERIES):
        fn = Q.QUERIES[name]
        q_vals = []
        for _ in range(2):
            t0 = time.monotonic()
            res = fn(SF_DIR)
            if hasattr(res, "to_pandas"):
                res.to_pandas()
            q_vals.append(round(time.monotonic() - t0, 3))
        timings[name] = min(q_vals)
        minmax[name] = [min(q_vals), max(q_vals)]
    extras: dict[str, int] = {}
    if not (os.environ.get(_FLAGSHIP_ONLY_ENV)
            or os.environ.get(_SKIP_SCALE_OPS_ENV)):
        _run_scale_ops(timings, minmax, extras)

    ray.shutdown()
    return {
        "metric": "flagship parse→enrich→route→aggregate wall time",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": timings,
        "scale_minmax": minmax,
        **extras,
        "sf": _sf_tag(SF_DIR),
        "num_cpus": NUM_CPUS,
        "host_cpus": HOST_CPUS,
        "sequences": n_seq,
        "tokens": n_tok,
        "seq_per_s": round(n_seq / headline, 1),
        "tok_per_s": round(n_tok / headline, 1),
    }


def run_scaling(lo: int = 2, hi: int = 8) -> dict:
    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   **{_BENCH_ROWS_ENV: str(SCALING_ROWS),
                      _FLAGSHIP_ONLY_ENV: "1", _SKIP_SCALING_ENV: "1"})
        out = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env,
                             capture_output=True, text=True, check=True,
                             cwd=os.path.dirname(os.path.abspath(__file__))).stdout
        return _find_record(out, "queries")

    # best-of-2 per level: one stray scheduler/disk hiccup in a single
    # 10-50 s run moves measured efficiency by ±0.1 (observed 0.83-1.14
    # across single-shot runs); the min is the standard variance guard
    # and both levels get the same treatment
    r_lo = min(run(lo), run(lo), key=lambda r: r["value"])
    r_hi = min(run(hi), run(hi), key=lambda r: r["value"])
    t_lo, t_hi = r_lo["value"], r_hi["value"]
    eff = (t_lo / t_hi) / (hi / lo)
    return {
        "metric": "scaling efficiency (fresh processes, same input)",
        "unit": "ratio",
        "num_cpus_lo": lo, "num_cpus_hi": hi,
        "sec_lo": t_lo, "sec_hi": t_hi,
        "seq_per_s_lo": r_lo["seq_per_s"], "seq_per_s_hi": r_hi["seq_per_s"],
        "tok_per_s_lo": r_lo["tok_per_s"], "tok_per_s_hi": r_hi["tok_per_s"],
        "scaling_efficiency": round(eff, 3),
        "sf": r_lo["sf"],
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        result = run_bench()
        # re-verify the ≥0.8 two-cluster-size efficiency bar every round
        # (recorded into BENCH_rNN.json, not just quoted from BASELINE.md);
        # subprocesses and quick local loops set the skip env
        if not os.environ.get(_SKIP_SCALING_ENV):
            result["scaling"] = run_scaling()
        print(json.dumps(result))
        print(summary_line(result))
