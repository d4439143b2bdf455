"""Similarity search over an embedding column (``list<float>``).

Two paths:

* :func:`brute_force_topk` — exact cosine top-k: per-batch numpy matmul
  against a broadcast query matrix + per-batch partial top-k, tiny global
  merge.  The baseline, linear in corpus size but embarrassingly parallel.
* :func:`lsh_bucketed_topk` — the scale path: random-hyperplane LSH buckets
  (signs of r projections) computed per batch; queries probe only their own
  bucket (plus optional multi-probe neighbors), so each query touches
  ~n/2^r vectors.  Recall < 1 by construction; verified against the brute
  force in tests.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data


def _matrix(col) -> np.ndarray:
    """Embedding column → (n, dim) float64 matrix; accepts Arrow list /
    fixed-size-list, Ray tensor extension, and object-dtype numpy forms."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = getattr(col, "type", None)
    if t is not None and (pa.types.is_list(t) or pa.types.is_large_list(t)
                          or pa.types.is_fixed_size_list(t)):
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        return flat.reshape(len(col), -1)
    out = col.to_numpy(zero_copy_only=False)
    if out.dtype == object:
        out = np.stack(list(out))
    return np.asarray(out, dtype=np.float64)


def _normalize(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    return mat / np.where(norms == 0, 1, norms)


def brute_force_topk(ds: "ray.data.Dataset", queries: np.ndarray, k: int = 10,
                     vec_col: str = "embedding",
                     id_col: str = "vec_id") -> pd.DataFrame:
    """Exact cosine top-k for each of Q query vectors.

    Per batch: one (batch × dim) @ (dim × Q) matmul + partial top-k per
    query; the driver merges |batches| × k × Q candidate rows (tiny).
    Returns (query_id, vec_id, cos_e4) with scores floored at 1e-4.
    """
    qn = _normalize(np.atleast_2d(np.asarray(queries, dtype=np.float64)))
    nq = len(qn)

    def score(batch: pa.Table) -> pa.Table:
        mat = _normalize(_matrix(batch[vec_col]))
        sims = mat @ qn.T                      # (n, Q)
        e4 = np.floor(sims * 10_000).astype(np.int64)
        ids = np.asarray(batch[id_col])
        kk = min(k, len(ids))
        top = np.argpartition(-e4, kk - 1, axis=0)[:kk]   # (k, Q)
        out_q = np.repeat(np.arange(nq), kk)
        out_i = ids[top.T.ravel()]
        out_s = e4[top.T.ravel(), np.repeat(np.arange(nq), kk)]
        return pa.table({"query_id": pa.array(out_q, pa.int64()),
                         id_col: pa.array(out_i),
                         "cos_e4": pa.array(out_s, pa.int64())})

    cand = ds.map_batches(score, batch_format="pyarrow", batch_size=None).to_pandas()
    cand = cand.sort_values(["query_id", "cos_e4", id_col],
                            ascending=[True, False, True])
    return cand.groupby("query_id", sort=True).head(k).reset_index(drop=True)


def lsh_bucket_column(ds: "ray.data.Dataset", n_planes: int = 4,
                      vec_col: str = "embedding", dim: int = 64,
                      seed: int = 99) -> "ray.data.Dataset":
    """Append a random-hyperplane LSH ``bucket`` column (int64 in
    [0, 2^n_planes)); co-similar vectors collide with high probability.
    The planes are seed-derived, so every node computes identical buckets."""
    rng = np.random.default_rng(seed)
    planes = rng.normal(0, 1, (dim, n_planes))

    def tag(batch: pa.Table) -> pa.Table:
        mat = _matrix(batch[vec_col])
        bits = (mat @ planes) > 0
        bucket = np.zeros(len(mat), dtype=np.int64)
        for j in range(n_planes):
            bucket |= bits[:, j].astype(np.int64) << j
        return batch.append_column("bucket", pa.array(bucket, pa.int64()))

    return ds.map_batches(tag, batch_format="pyarrow", batch_size=None)


def lsh_bucketed_topk(ds: "ray.data.Dataset", query: np.ndarray, k: int = 10,
                      n_planes: int = 4, vec_col: str = "embedding",
                      id_col: str = "vec_id", dim: int = 64,
                      multiprobe: int = 1, seed: int = 99) -> pd.DataFrame:
    """Approximate cosine top-k: score only vectors whose LSH bucket is the
    query's bucket or within Hamming distance ``multiprobe`` of it.

    At scale the bucket column is precomputed and the table is
    hash-partitioned by bucket, so a query reads ~n/2^r rows instead of n.
    """
    rng = np.random.default_rng(seed)
    planes = rng.normal(0, 1, (dim, n_planes))
    q = np.asarray(query, dtype=np.float64)
    qbits = (q @ planes) > 0
    qbucket = sum(int(b) << j for j, b in enumerate(qbits))
    probe = {qbucket}
    if multiprobe >= 1:
        for j in range(n_planes):
            probe.add(qbucket ^ (1 << j))
    probe_arr = pa.array(sorted(probe), pa.int64())

    tagged = lsh_bucket_column(ds, n_planes, vec_col, dim, seed)

    import pyarrow.compute as pc

    def in_probe(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch["bucket"], value_set=probe_arr))

    filtered = tagged.map_batches(in_probe, batch_format="pyarrow",
                                  batch_size=None)
    return brute_force_topk(filtered, q, k, vec_col, id_col)


def ivf_build_centroids(ds: "ray.data.Dataset", n_clusters: int = 16,
                        sample_n: int = 4096, iters: int = 8,
                        vec_col: str = "embedding",
                        seed: int = 42) -> np.ndarray:
    """IVF coarse quantizer: k-means on a DRIVER-SIDE RANDOM SAMPLE (Lloyd,
    numpy), then one distributed assignment pass.  Sampling keeps the
    driver work O(sample × clusters).

    The sample is ``Dataset.random_sample`` (bernoulli over every block),
    NOT ``limit`` — limit takes the first blocks, which biases the
    centroids badly when the corpus is sorted or partitioned by cluster.
    """
    total = max(1, ds.count())  # parquet metadata count — no data scan
    frac = min(1.0, 1.25 * sample_n / total)
    sample = ds.random_sample(frac, seed=seed).to_pandas()
    if len(sample) > sample_n:
        keep = np.random.default_rng(seed).choice(len(sample), sample_n,
                                                  replace=False)
        sample = sample.iloc[np.sort(keep)]
    m = np.stack(list(sample[vec_col].to_numpy())).astype(np.float64)
    m = _normalize(m)
    rng = np.random.default_rng(seed)
    # farthest-point (maxmin) init: uniform-random init frequently lands two
    # seeds in one true cluster and leaves another uncovered; greedy maxmin
    # guarantees well-separated clusters each get a seed
    k = min(n_clusters, len(m))
    first = int(rng.integers(0, len(m)))
    chosen = [first]
    best = m @ m[first]            # max cosine to the chosen set
    for _ in range(1, k):
        nxt = int(np.argmin(best))
        chosen.append(nxt)
        best = np.maximum(best, m @ m[nxt])
    cents = m[chosen].copy()
    for _ in range(iters):
        assign = np.argmax(m @ cents.T, axis=1)
        for c in range(len(cents)):
            mask = assign == c
            if mask.any():
                v = m[mask].mean(axis=0)
                cents[c] = v / (np.linalg.norm(v) or 1)
    return cents


def ivf_topk(ds: "ray.data.Dataset", query: np.ndarray, k: int = 10,
             n_clusters: int = 16, nprobe: int = 4,
             vec_col: str = "embedding", id_col: str = "vec_id",
             seed: int = 42) -> pd.DataFrame:
    """IVF approximate top-k: assign every vector to its nearest centroid
    (one vectorized pass, centroids broadcast), search only the ``nprobe``
    centroids closest to the query.  At scale the assignment column is
    precomputed and the table hash-partitioned by it."""
    cents = ivf_build_centroids(ds, n_clusters, seed=seed)
    q = np.asarray(query, dtype=np.float64)
    qn = q / (np.linalg.norm(q) or 1)
    probe = set(np.argsort(-(cents @ qn))[:nprobe].tolist())
    probe_arr = pa.array(sorted(probe), pa.int64())

    import pyarrow.compute as pc

    def assign_and_filter(batch: pa.Table) -> pa.Table:
        mat = _normalize(_matrix(batch[vec_col]))
        a = np.argmax(mat @ cents.T, axis=1).astype(np.int64)
        t = batch.append_column("ivf_cluster", pa.array(a, pa.int64()))
        return t.filter(pc.is_in(t["ivf_cluster"], value_set=probe_arr))

    filtered = ds.map_batches(assign_and_filter, batch_format="pyarrow",
                              batch_size=None)
    return brute_force_topk(filtered, q, k, vec_col, id_col)


def label_centroids(ds: "ray.data.Dataset", label_col: str = "label",
                    vec_col: str = "embedding",
                    scale: int = 1_000_000) -> "ray.data.Dataset":
    """Per-label embedding centroid in LONG format: one row per (label,
    dimension) — ``(label, pos, n, centroid_e6)`` with ``centroid_e6 =
    floor(mean_component * 1e6)`` (the repo's floored-DOUBLE float policy,
    same as the cos_e4 scores).

    Scale shape: per-batch partial — one vectorized pandas groupby-sum
    over the stacked (rows × dim) matrix, emitting |labels|·dim partial
    rows per batch regardless of batch row count — then the tree-combine
    :func:`relational.grouped_sum` on (label, pos).  The mean and floor
    happen in a final row-local map.  No shuffle ever carries vectors,
    only per-(label, pos) float64 sums.
    """
    import pandas as pd

    from zeeklog_ray.relational import grouped_sum

    def partial(batch: pa.Table) -> pa.Table:
        mat = _matrix(batch[vec_col]).astype(np.float64)
        labels = batch[label_col].to_numpy(zero_copy_only=False)
        # null labels factorize to code -1, which would corrupt the LAST
        # label's sums via np.add.at and crash bincount — drop them (SQL
        # GROUP BY keeps a NULL group, but a centroid of unlabeled vectors
        # is meaningless; callers wanting it should pre-fill a sentinel)
        valid = ~pd.isna(labels)
        if not valid.all():
            mat, labels = mat[valid], labels[valid]
        n, dim = mat.shape
        codes, uniq = pd.factorize(labels)
        sums = np.zeros((len(uniq), dim), dtype=np.float64)
        np.add.at(sums, codes, mat)
        cnt = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        return pa.table({
            label_col: pa.array(np.repeat(uniq, dim)),
            "pos": pa.array(np.tile(np.arange(dim, dtype=np.int64), len(uniq))),
            "_s": pa.array(sums.ravel()),
            "n": pa.array(np.repeat(cnt, dim)),
        })

    partials = ds.select_columns([label_col, vec_col]).map_batches(
        partial, batch_format="pyarrow", batch_size=None)
    summed = grouped_sum(partials, [label_col, "pos"],
                         sums={"_s": "_s", "n": "n"})

    def finish(batch: "pd.DataFrame") -> "pd.DataFrame":
        return pd.DataFrame({
            label_col: batch[label_col],
            "pos": batch["pos"].astype("int64"),
            "n": batch["n"].astype("int64"),
            "centroid_e6": np.floor(
                batch["_s"].to_numpy() / batch["n"].to_numpy()
                * scale).astype("int64"),
        })

    return summed.map_batches(finish, batch_format="pandas", batch_size=None)


def quantize_embeddings(ds: "ray.data.Dataset", id_col: str = "vec_id",
                        emb_col: str = "embedding") -> "ray.data.Dataset":
    """Symmetric per-vector int8 quantization — the 4× storage /
    memory-bandwidth cut a 100 TB embedding table actually needs before
    ANN serving: ``q = floor(x / max|x| · 127 + 0.5)`` (all math in
    float64, so the DuckDB replay is bit-exact), dequantize with the
    carried ``scale`` (max abs error ≤ scale/254 + float rounding).

    Row-local Arrow ``map_batches`` — one streaming pass, no shuffle: the
    flattened value array quantizes in one vectorized expression with
    per-vector maxima via ``np.maximum.reduceat``.  All-zero vectors
    quantize to all-zero (scale 0 carried as-is).  Output:
    ``(id_col, scale: float64, q: list<int8>)``."""

    def quant(batch: pa.Table) -> pa.Table:
        from zeeklog_ray.arrowutil import list_values_offsets

        vals, offs = list_values_offsets(batch[emb_col])
        vals = vals.astype(np.float64)
        n = np.diff(offs)
        if len(n) and n.min() == 0:
            raise ValueError("quantize_embeddings: empty embedding vector"
                             " (reduceat needs non-empty segments)")
        if not len(n):
            return pa.table({id_col: batch[id_col],
                             "scale": pa.array([], pa.float64()),
                             "q": pa.array([], pa.list_(pa.int8()))})
        scale = np.maximum.reduceat(np.abs(vals), offs[:-1])
        s_row = np.repeat(scale, n)
        with np.errstate(invalid="ignore", divide="ignore"):
            q = np.floor(vals / s_row * 127.0 + 0.5)
        q[s_row == 0] = 0.0
        q = q.astype(np.int8)
        qcol = pa.ListArray.from_arrays(pa.array(offs, pa.int32()),
                                        pa.array(q, pa.int8()))
        return pa.table({id_col: batch[id_col],
                         "scale": pa.array(scale, pa.float64()),
                         "q": qcol})

    return ds.map_batches(quant, batch_format="pyarrow", batch_size=None)

