"""Similarity search: brute-force exactness + LSH recall."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from zeeklog_ray.ops.similarity import (
    brute_force_topk,
    lsh_bucket_column,
    lsh_bucketed_topk,
)

DIM = 16
N = 400


@pytest.fixture(scope="module")
def emb(ray_session):
    rng = np.random.default_rng(11)
    m = rng.normal(0, 1, (N, DIM))
    df = pd.DataFrame({"vec_id": np.arange(N, dtype="int64"),
                       "embedding": [r.astype("float32") for r in m]})
    return ray.data.from_pandas(df).repartition(4), m


def _numpy_topk(m, q, k):
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q)
    e4 = np.floor((mn @ qn) * 10_000).astype(np.int64)
    order = np.lexsort((np.arange(len(m)), -e4))
    return list(order[:k]), e4


def test_brute_force_matches_numpy(emb):
    ds, m = emb
    q = np.random.default_rng(5).normal(0, 1, DIM)
    got = brute_force_topk(ds, q, k=10)
    exp_ids, e4 = _numpy_topk(m, q, 10)
    assert got["vec_id"].tolist() == exp_ids
    assert got["cos_e4"].tolist() == [int(e4[i]) for i in exp_ids]


def test_brute_force_multi_query(emb):
    ds, m = emb
    qs = np.random.default_rng(6).normal(0, 1, (3, DIM))
    got = brute_force_topk(ds, qs, k=5)
    assert sorted(got["query_id"].unique()) == [0, 1, 2]
    for qi in range(3):
        exp_ids, _ = _numpy_topk(m, qs[qi], 5)
        assert got[got["query_id"] == qi]["vec_id"].tolist() == exp_ids


def test_lsh_buckets_deterministic(emb):
    ds, _ = emb
    a = lsh_bucket_column(ds, n_planes=4, dim=DIM).to_pandas()
    b = lsh_bucket_column(ds, n_planes=4, dim=DIM).to_pandas()
    assert a.set_index("vec_id")["bucket"].to_dict() == \
        b.set_index("vec_id")["bucket"].to_dict()
    assert a["bucket"].between(0, 15).all()


def test_lsh_topk_recall(emb):
    ds, m = emb
    q = np.random.default_rng(7).normal(0, 1, DIM)
    exact_ids, e4 = _numpy_topk(m, q, 10)
    approx = lsh_bucketed_topk(ds, q, k=10, n_planes=4, dim=DIM, multiprobe=1)
    got = set(approx["vec_id"])
    recall = len(got & set(exact_ids)) / 10
    assert recall >= 0.2          # probing 5/16 of the space
    # every returned score is a true score (no fabrication)
    for _, r in approx.iterrows():
        assert r["cos_e4"] == int(e4[int(r["vec_id"])])


def test_label_centroids_matches_numpy(ray_session):
    """Long-format centroids equal the per-label numpy mean (floored e6),
    including split across many blocks (partial-sum merge path)."""
    import pyarrow as pa

    from zeeklog_ray.ops.similarity import label_centroids

    rng = np.random.default_rng(9)
    labels = rng.integers(0, 4, 300)
    mat = rng.normal(size=(300, 8)).astype(np.float32)
    ds = ray.data.from_arrow(pa.table({
        "label": labels, "embedding": list(mat)})).repartition(7)
    out = label_centroids(ds).to_pandas()
    assert len(out) == 4 * 8
    for lb in range(4):
        mean = mat[labels == lb].astype(np.float64).mean(axis=0)
        sub = out[out.label == lb].sort_values("pos")
        assert sub["n"].unique().tolist() == [int((labels == lb).sum())]
        assert sub["centroid_e6"].tolist() == \
            np.floor(mean * 1e6).astype("int64").tolist()


def test_quantize_roundtrip_and_edge_cases(ray_session):
    """int8 quantization: dequantized error bound holds, all-zero vectors
    quantize to zero, and the numpy replay is bit-exact."""
    import pyarrow as pa

    from zeeklog_ray.ops.similarity import quantize_embeddings

    rng = np.random.default_rng(13)
    mat = rng.normal(0, 3, (200, 12)).astype(np.float32)
    mat[7] = 0.0                                   # all-zero vector
    ds = ray.data.from_arrow(pa.table({
        "vec_id": np.arange(200, dtype="int64"),
        "embedding": list(mat)})).repartition(5)
    out = quantize_embeddings(ds).to_pandas().set_index("vec_id").sort_index()
    assert len(out) == 200
    for i in (0, 7, 42, 199):
        x = mat[i].astype(np.float64)
        scale = float(np.abs(x).max())
        assert out.loc[i, "scale"] == scale
        q = np.asarray(out.loc[i, "q"], dtype=np.int8)
        if scale == 0.0:
            assert (q == 0).all()
        else:
            exp = np.floor(x / scale * 127.0 + 0.5).astype(np.int8)
            assert (q == exp).all()
            err = np.abs(q.astype(np.float64) * (scale / 127.0) - x)
            assert err.max() <= scale / 127.0 / 2 + 1e-12
    assert out["q"].map(lambda v: int(np.abs(np.asarray(v)).max())).max() <= 127


def test_quantize_fixed_size_list_layout(ray_session):
    """Fixed-size-list embedding columns (common fixed-dim Parquet layout)
    quantize identically to the variable-list layout."""
    import pyarrow as pa

    from zeeklog_ray.ops.similarity import quantize_embeddings

    rng = np.random.default_rng(17)
    mat = rng.normal(0, 2, (50, 8)).astype(np.float32)
    fsl = pa.FixedSizeListArray.from_arrays(pa.array(mat.ravel()), 8)
    t = pa.table({"vec_id": pa.array(np.arange(50), pa.int64()),
                  "embedding": fsl})
    out = quantize_embeddings(ray.data.from_arrow(t)).to_pandas() \
        .set_index("vec_id").sort_index()
    x = mat.astype(np.float64)
    scale = np.abs(x).max(axis=1)
    exp = np.floor(x / scale[:, None] * 127.0 + 0.5).astype(np.int8)
    for i in (0, 25, 49):
        assert out.loc[i, "scale"] == scale[i]
        assert (np.asarray(out.loc[i, "q"], dtype=np.int8) == exp[i]).all()


def test_quantize_rejects_empty_vector(ray_session):
    import pyarrow as pa

    from zeeklog_ray.ops.similarity import quantize_embeddings

    t = pa.table({"vec_id": pa.array([0, 1], pa.int64()),
                  "embedding": pa.array([[1.0], []], pa.list_(pa.float32()))})
    with pytest.raises(Exception, match="empty embedding"):
        quantize_embeddings(ray.data.from_arrow(t)).materialize()


def test_label_centroids_null_labels_dropped(ray_session):
    import pandas as pd
    import ray.data
    from zeeklog_ray.ops.similarity import label_centroids

    df = pd.DataFrame({
        "label": pd.array([0, 0, None, 1], dtype="Int64"),
        "embedding": [[1.0, 0.0], [3.0, 0.0], [99.0, 99.0], [0.0, 2.0]]})
    out = label_centroids(ray.data.from_pandas(df)).to_pandas()
    # null-label row excluded: label 0 centroid is mean([1,3])=2, not
    # polluted by the 99s; label 1 present
    l0 = out[(out["label"] == 0) & (out["pos"] == 0)]
    assert l0["centroid_e6"].iloc[0] == 2_000_000
    assert set(out["label"].unique()) == {0, 1}


def test_list_values_offsets_type_guard():
    import pyarrow as pa
    import pytest

    from zeeklog_ray.arrowutil import list_values_offsets

    with pytest.raises(TypeError, match="not a list-like"):
        list_values_offsets(pa.array([1, 2, 3]))
    with pytest.raises(TypeError, match="not a list-like"):
        list_values_offsets(pa.array([{"a": 1}, {"a": 2}]))
