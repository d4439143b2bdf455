"""Round-2 scale-hazard guards: degenerate LSH buckets, unblocked O(n²)
cosine pairs, non-deterministic writer names, remapped resume shards,
first-blocks-biased IVF sampling."""

import numpy as np
import pandas as pd
import pytest
import ray.data


def test_minhash_degenerate_bucket_capped(ray_session):
    """A bucket of m identical docs would emit m² join rows; buckets over
    max_bucket are excluded from the self-join."""
    from zeeklog_ray.ops.dedup import minhash_lsh_pairs

    n_same = 40
    df = pd.DataFrame({
        "doc_id": np.arange(n_same + 2, dtype="int64"),
        "text": ["identical degenerate document body repeated many times"] * n_same
        + ["first unique document about arrow batches and shuffles here",
           "second unique document about actor pools and backpressure ok"],
    })
    ds = ray.data.from_pandas(df).repartition(2)
    # cap below the degenerate bucket size → its pairs are suppressed
    capped = minhash_lsh_pairs(ds, max_bucket=10).to_pandas()
    assert len(capped) == 0
    # cap above it → the m·(m-1)/2 pairs appear (the uncapped behavior)
    uncapped = minhash_lsh_pairs(ds, max_bucket=1000).to_pandas()
    assert len(uncapped) == n_same * (n_same - 1) // 2


def test_minhash_guard_distributed_count_tier(ray_session, monkeypatch):
    """Past the heap budget the bucket count runs as a Dataset groupby;
    both tiers must produce the same capped result."""
    import zeeklog_ray.ops.dedup as dd
    from zeeklog_ray import relational

    n_same = 40
    df = pd.DataFrame({
        "doc_id": np.arange(n_same + 2, dtype="int64"),
        "text": ["identical degenerate document body repeated many times"] * n_same
        + ["first unique document about arrow batches and shuffles here",
           "second unique document about actor pools and backpressure ok"],
    })
    ds = ray.data.from_pandas(df).repartition(2)
    monkeypatch.setattr(relational, "HEAP_BUDGET_BYTES", 0)  # groupby tier
    capped = dd.minhash_lsh_pairs(ds, max_bucket=10).to_pandas()
    assert len(capped) == 0
    uncapped = dd.minhash_lsh_pairs(ds, max_bucket=1000).to_pandas()
    assert len(uncapped) == n_same * (n_same - 1) // 2


def test_embedding_pairs_block_cap_raises(ray_session):
    """Unblocked input (everything in one implicit block) past the cap must
    raise, not silently go O(n²)."""
    from zeeklog_ray.ops.dedup import embedding_cosine_pairs

    rng = np.random.default_rng(8)
    df = pd.DataFrame({
        "vec_id": np.arange(30, dtype="int64"),
        "embedding": [r.astype("float32") for r in rng.normal(0, 1, (30, 8))],
    })
    ds = ray.data.from_pandas(df)
    with pytest.raises(Exception, match="max_block_rows"):
        embedding_cosine_pairs(ds, threshold_e4=9000, block_col=None,
                               max_block_rows=10).to_pandas()
    # small unblocked input under the cap still works
    out = embedding_cosine_pairs(ds, threshold_e4=-10_000, block_col=None,
                                 max_block_rows=1000).to_pandas()
    assert len(out) == 30 * 29 // 2


def test_fused_writer_requires_name_hint(ray_session, tmp_path):
    """A uuid fallback would duplicate rows on Ray task retry — the writer
    must refuse to write without a deterministic name."""
    from zeeklog_ray.corpus import frame_to_table, make_corpus_frame
    from zeeklog_ray.flagship import FusedRouteWriter

    batch = frame_to_table(make_corpus_frame(50), with_date=True)
    w = FusedRouteWriter(str(tmp_path / "out"), enrich=False)
    with pytest.raises(ValueError, match="name_hint"):
        w(batch)
    out = w(batch, name_hint="date=2024-07-02-part-00000")
    assert out.num_rows > 0  # partial stats returned on the happy path


def test_resume_remapped_shards_rerun(corpus_dir, corpus_frame, tmp_path):
    """Changing files_per_shard between runs remaps shard ids to different
    file sets; resume must detect the input_fragments mismatch and re-run
    instead of trusting the positional id (ADVICE: lineage.py)."""
    from zeeklog_ray.lineage import ResumableRun
    from zeeklog_ray.pipeline import PipelineConfig

    out = str(tmp_path / "routed")
    cfg = PipelineConfig(corpus_dir=corpus_dir)
    ResumableRun(cfg, out, files_per_shard=2).run()

    rr2 = ResumableRun(cfg, out, files_per_shard=3)
    recs = rr2.run()
    # every remapped shard re-ran (file lists differ from the committed ones)
    assert len(recs) == len(rr2.shards())
    back = rr2.committed_output().to_pandas()
    assert back["doc_id"].is_unique
    assert set(back["doc_id"]) == set(corpus_frame["doc_id"])


def test_ivf_centroids_cover_sorted_input(ray_session):
    """Input sorted by cluster: a limit()-based 'sample' sees only the first
    blocks and the trailing clusters get no centroid; random_sample must
    cover them (VERDICT: ops/similarity.py:138)."""
    from zeeklog_ray.ops.similarity import _normalize, ivf_build_centroids

    rng = np.random.default_rng(13)
    centers = _normalize(rng.normal(0, 1, (8, 16)) * 3)
    # 8 clusters of 200, CONCATENATED IN ORDER (sorted by cluster)
    m = np.repeat(centers, 200, axis=0) + rng.normal(0, 0.05, (1600, 16))
    df = pd.DataFrame({"vec_id": np.arange(1600, dtype="int64"),
                       "embedding": [r.astype("float32") for r in m]})
    ds = ray.data.from_pandas(df).repartition(8)
    cents = ivf_build_centroids(ds, n_clusters=8, sample_n=400)
    # the LAST cluster (never in the first blocks) must be represented
    last = centers[-1] / np.linalg.norm(centers[-1])
    assert float(np.max(cents @ last)) > 0.9
