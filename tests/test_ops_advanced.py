"""Connected components, HLL sketch, salted groupby, trailing windows,
IVF ANN."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from zeeklog_ray import relational
from zeeklog_ray.aggregate import salted_groupby_sum
from zeeklog_ray.ops.graph import connected_components
from zeeklog_ray.ops.sketch import approx_distinct


@pytest.mark.parametrize("heap_tier", [100_000, 0], indirect=True)
def test_connected_components(ray_session, heap_tier):
    """A 100 kB heap budget → driver union-find path; 0 → distributed
    min-label propagation path.  Same answer from both."""
    # components: {1,2,3,9} via chain, {5,6}, {7,8}
    pairs = pd.DataFrame({"doc_a": [1, 2, 3, 5, 7],
                          "doc_b": [2, 3, 9, 6, 8]})
    out = connected_components(ray.data.from_pandas(pairs)).to_pandas() \
        .set_index("node")["component"]
    assert out.loc[[1, 2, 3, 9]].tolist() == [1, 1, 1, 1]
    assert out.loc[[5, 6]].tolist() == [5, 5]
    assert out.loc[[7, 8]].tolist() == [7, 7]


def test_hll_approx_distinct(ray_session):
    n, dups = 20_000, 3
    df = pd.DataFrame({"k": [f"user-{i % (n // dups)}" for i in range(n)]})
    ds = ray.data.from_pandas(df).repartition(8)
    est = approx_distinct(ds, "k")
    exact = n // dups
    assert abs(est - exact) / exact < 0.05    # HLL p=12 → ~1.6% typical


def test_hll_small_range(ray_session):
    ds = ray.data.from_pandas(pd.DataFrame({"k": list("abcde") * 10}))
    assert approx_distinct(ds, "k") == 5      # linear-counting regime exact


def test_salted_groupby_sum(ray_session):
    rng = np.random.default_rng(4)
    df = pd.DataFrame({"key": rng.choice(["hot", "cold"], 5000, p=[0.95, 0.05]),
                       "v": rng.integers(0, 100, 5000)})
    got = salted_groupby_sum(ray.data.from_pandas(df).repartition(4),
                             "key", "v").to_pandas().set_index("key")["sum_v"]
    exp = df.groupby("key")["v"].sum()
    assert got.to_dict() == exp.to_dict()


def test_ivf_topk_recall(ray_session):
    from zeeklog_ray.ops.similarity import brute_force_topk, ivf_topk

    rng = np.random.default_rng(21)
    # clustered data so IVF's coarse quantizer has structure to find
    centers = rng.normal(0, 1, (8, 16)) * 3
    m = np.repeat(centers, 50, axis=0) + rng.normal(0, 0.3, (400, 16))
    df = pd.DataFrame({"vec_id": np.arange(400, dtype="int64"),
                       "embedding": [r.astype("float32") for r in m]})
    ds = ray.data.from_pandas(df).repartition(4)
    q = centers[3] + rng.normal(0, 0.3, 16)
    exact = brute_force_topk(ds, q, k=10)
    approx = ivf_topk(ds, q, k=10, n_clusters=8, nprobe=2)
    recall = len(set(approx["vec_id"]) & set(exact["vec_id"])) / 10
    assert recall >= 0.8      # clustered data → coarse quantizer is accurate


@pytest.mark.parametrize("nb", [1024, 1])
def test_trailing_windows_matches_bruteforce(ray_session, in_blocks, nb):
    """Bucketed trailing windows == O(n^2) reference, RANGE semantics
    (equal-ts peers included, and an event exactly ``window_seconds``
    earlier too); nb=1 (one input block) puts every key in ONE exchange
    call so the key-segment boundary logic is exercised.  Integer sums
    stay int64, exact above 2^53."""
    from zeeklog_ray.ops.streaming import trailing_windows

    rng = np.random.default_rng(17)
    n = 400
    ts = pd.to_datetime("2024-01-01") + pd.to_timedelta(
        rng.integers(0, 4 * 3600, n), unit="s")
    df = pd.DataFrame({"user_id": rng.integers(0, 5, n),
                       "ts": ts, "value": rng.integers(0, 100, n).astype("int64")})
    # plant an exact-duplicate timestamp pair to pin peer semantics
    df.loc[1, ["user_id", "ts"]] = [df.loc[0, "user_id"], df.loc[0, "ts"]]
    # key 9: a 2^53 + 1 value (not float64-representable), then a second
    # event exactly one window later, whose window must still hold it
    big = (1 << 53) + 1
    df = pd.concat([df, pd.DataFrame({
        "user_id": [9, 9],
        "ts": pd.to_datetime(["2024-01-01 01:00", "2024-01-01 02:00"]),
        "value": np.array([big, 1], dtype="int64")})], ignore_index=True)

    got = trailing_windows(in_blocks(df.sample(frac=1, random_state=3)
                                     .reset_index(drop=True), nb),
                           window_seconds=3600).to_pandas()
    got = got.sort_values(["user_id", "ts", "w_count"]).reset_index(drop=True)

    rows = []
    w = pd.Timedelta(seconds=3600)
    for _, r in df.iterrows():
        m = df[(df["user_id"] == r["user_id"]) & (df["ts"] <= r["ts"])
               & (df["ts"] >= r["ts"] - w)]
        rows.append((r["user_id"], r["ts"], len(m), m["value"].sum()))
    exp = pd.DataFrame(rows, columns=["user_id", "ts", "w_count", "w_sum"]) \
        .sort_values(["user_id", "ts", "w_count"]).reset_index(drop=True)
    assert got["w_count"].tolist() == exp["w_count"].tolist()
    assert got["w_sum"].tolist() == exp["w_sum"].tolist()
    assert got["w_sum"].dtype == np.int64
    planted = got[got["user_id"] == 9]
    assert planted["w_count"].tolist() == [1, 2]
    assert planted["w_sum"].tolist() == [big, big + 1]


@pytest.mark.parametrize("nb", [1024, 1])
def test_rows_window_matches_bruteforce(ray_session, in_blocks, nb):
    """Bucketed ROWS-frame window == O(n^2) reference: row i's frame is
    the `preceding` rows immediately before it (in total order) plus
    itself, never crossing the key boundary; nb=1 (one input block) puts
    every key in one exchange call to exercise the segment-start
    algebra."""
    from zeeklog_ray.ops.streaming import rows_window

    rng = np.random.default_rng(29)
    n = 300
    df = pd.DataFrame({"k": rng.integers(0, 5, n),
                       "ts": rng.integers(0, 50, n),   # heavy ties
                       "id": np.arange(n, dtype="int64"),
                       "v": rng.integers(-50, 100, n).astype("int64")})
    got = rows_window(in_blocks(
        df.sample(frac=1, random_state=7).reset_index(drop=True), nb),
        key="k", order_cols=["ts", "id"], value="v",
        preceding=3).to_pandas().sort_values("id").reset_index(drop=True)

    s = df.sort_values(["k", "ts", "id"]).reset_index(drop=True)
    rows = {}
    for kv, g in s.groupby("k"):
        vals = g["v"].tolist()
        for pos, (_, r) in enumerate(g.iterrows()):
            lo = max(0, pos - 3)
            rows[r["id"]] = (pos - lo + 1, sum(vals[lo:pos + 1]))
    assert got["w_count"].tolist() == [rows[i][0] for i in got["id"]]
    assert got["w_sum"].tolist() == [rows[i][1] for i in got["id"]]
    assert got["w_sum"].dtype == np.int64   # int preserved through cumsum


def test_rows_window_preserves_big_ints(ray_session):
    """2^53+1 is not float64-representable: the ROWS window must keep the
    integer dtype through its cumsum (same contract as trailing_windows)."""
    from zeeklog_ray.ops.streaming import rows_window

    big = (1 << 53) + 1
    df = pd.DataFrame({"k": ["a", "a"], "id": [0, 1],
                       "v": np.array([big, 1], dtype=np.int64)})
    out = rows_window(ray.data.from_pandas(df), key="k", order_cols=["id"],
                      value="v", preceding=5).to_pandas() \
        .sort_values("id")
    assert out["w_sum"].tolist() == [big, big + 1]


def test_rows_window_unbounded_is_running_total(ray_session):
    """preceding=None == SQL ROWS UNBOUNDED PRECEDING: a per-key prefix
    sum that never resets inside the key but does across keys."""
    from zeeklog_ray.ops.streaming import rows_window

    df = pd.DataFrame({"k": ["a", "a", "a", "b", "b"],
                       "id": [1, 2, 3, 4, 5],
                       "v": [10, 20, 30, 1, 2]})
    out = rows_window(ray.data.from_pandas(df), key="k", order_cols=["id"],
                      value="v", preceding=None).to_pandas() \
        .sort_values("id")
    assert out["w_count"].tolist() == [1, 2, 3, 1, 2]
    assert out["w_sum"].tolist() == [10, 30, 60, 1, 3]


def test_window_float_sums_restart_per_key(ray_session):
    """Keys that share one exchange call (one input block) keep their
    own float prefix sums: b's small values are not absorbed into a
    cumsum that a's 1e16 values run through first."""
    from zeeklog_ray.ops.streaming import rows_window, trailing_windows

    t = pd.Timestamp("2024-01-01")
    df = pd.DataFrame({"k": ["a", "a", "b", "b"], "id": [0, 1, 2, 3],
                       "ts": [t, t + pd.Timedelta(minutes=1)] * 2,
                       "v": [1e16, 1e16, 1.0, 1.0]})
    rows = rows_window(ray.data.from_pandas(df), key="k", order_cols=["id"],
                       value="v", preceding=None).to_pandas()
    assert rows[rows["k"] == "b"].sort_values("id")["w_sum"].tolist() \
        == [1.0, 2.0]
    trail = trailing_windows(ray.data.from_pandas(df), key="k", ts="ts",
                             value="v", window_seconds=3600).to_pandas()
    assert trail[trail["k"] == "b"].sort_values("ts")["w_sum"].tolist() \
        == [1.0, 2.0]


def test_canonical_per_component(ray_session):
    import pandas as pd
    import ray.data
    from zeeklog_ray.ops.graph import canonical_per_component

    comp = ray.data.from_pandas(pd.DataFrame({
        "node": [1, 2, 3, 7, 8],
        "component": [1, 1, 1, 7, 7],
    }))
    meta = ray.data.from_pandas(pd.DataFrame({
        "doc_id": [1, 2, 3, 7, 8, 9],
        "n_chars": [10, 99, 99, 5, 5, 1000],   # 9 is not in any component
    }))
    out = canonical_per_component(comp, meta).to_pandas() \
        .sort_values("component").reset_index(drop=True)
    assert out["component"].tolist() == [1, 7]
    # component 1: max score 99 tie between 2 and 3 → min id 2
    assert out["canonical"].tolist() == [2, 7]
    assert out["canonical_score"].tolist() == [99, 5]
    assert out["n_members"].tolist() == [3, 2]


def test_node_degrees_and_triangle_count(ray_session, monkeypatch):
    """K5 has C(5,3)=10 triangles and uniform degree 4; a random graph
    matches a brute-force count; reversed/duplicate/self-loop rows are
    canonicalized away; an edgeless input counts zero.  The broadcast
    degree tier and the hash-join tier (zero heap budget) agree."""
    import itertools

    import numpy as np
    import pandas as pd
    import ray.data

    from zeeklog_ray.ops.graph import node_degrees, triangle_count

    k5 = pd.DataFrame(list(itertools.combinations(range(5), 2)),
                      columns=["doc_a", "doc_b"])
    ds = ray.data.from_pandas(k5)
    assert triangle_count(ds) == 10
    deg = node_degrees(ds).to_pandas()
    assert sorted(deg["degree"].tolist()) == [4] * 5

    rng = np.random.default_rng(3)
    n = 40
    edges = set()
    for _ in range(200):
        a, b = rng.integers(0, n, 2)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    edf = pd.DataFrame(sorted(edges), columns=["doc_a", "doc_b"])
    # reversed duplicate of edge 0 plus a self-loop must not change counts
    extra = pd.DataFrame({"doc_a": [edf.doc_b[0], 5],
                          "doc_b": [edf.doc_a[0], 5]})
    ds2 = ray.data.from_pandas(
        pd.concat([edf, extra], ignore_index=True)).repartition(6)
    es = set(map(tuple, edf.values))
    brute = sum(1 for a, b, c in itertools.combinations(range(n), 3)
                if (a, b) in es and (b, c) in es and (a, c) in es)
    assert triangle_count(ds2) == brute

    path = pd.DataFrame({"doc_a": [1, 2], "doc_b": [2, 3]})  # wedge, no close
    assert triangle_count(ray.data.from_pandas(path)) == 0

    monkeypatch.setattr(relational, "HEAP_BUDGET_BYTES", 0)
    assert triangle_count(ds) == 10
    assert triangle_count(ds2) == brute


def test_kmeans_planted_mixture_recovery(ray_session):
    """Full-data Lloyd: SSE non-increasing per iteration; planted
    4-Gaussian mixture recovered (≥95% majority-label purity); empty
    clusters and k > n inputs handled."""
    import numpy as np
    import pandas as pd
    import pytest
    import ray.data

    from zeeklog_ray.ops.cluster import kmeans_assign, kmeans_fit

    rng = np.random.default_rng(21)
    centers = np.array([[8, 0, 0], [0, 8, 0], [0, 0, 8], [-8, -8, -8]],
                       dtype=np.float64)
    lab = rng.integers(0, 4, 600)
    pts = centers[lab] + rng.normal(0, 0.5, (600, 3))
    ds = ray.data.from_pandas(pd.DataFrame({
        "vec_id": np.arange(600, dtype="int64"),
        "embedding": [r.astype("float32") for r in pts]})).repartition(6)

    fit = kmeans_fit(ds, k=4, n_iters=8, seed=7)
    hist = fit["history"]
    assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))
    assert fit["centroids"].shape == (4, 3)

    out = kmeans_assign(ds, fit["centroids"]).to_pandas()
    assert len(out) == 600 and out["dist2_e6"].min() >= 0
    df = pd.DataFrame({"true": lab, "pred": out.sort_values("vec_id")
                       ["cluster"].to_numpy()})
    purity = df.groupby("pred")["true"] \
        .agg(lambda s: s.value_counts().iloc[0]).sum() / len(df)
    assert purity >= 0.95

    # determinism
    fit2 = kmeans_fit(ds, k=4, n_iters=8, seed=7)
    assert np.allclose(fit2["centroids"], fit["centroids"])

    # k > n clamps; empty input raises
    tiny = ray.data.from_pandas(pd.DataFrame({
        "vec_id": [0, 1], "embedding": [[0.0, 0.0], [1.0, 1.0]]}))
    assert kmeans_fit(tiny, k=5, n_iters=2)["centroids"].shape[0] == 2
    with pytest.raises(ValueError, match="empty input"):
        kmeans_fit(tiny.filter(lambda r: False), k=2)


def test_kmeans_small_sample_and_inertia_consistency(ray_session):
    """k larger than the init sample draw must not crash (seeds clamp to
    the sample), and the returned inertia must equal the SSE of the
    RETURNED centroids under their own assignment."""
    import numpy as np
    import pandas as pd
    import ray.data

    from zeeklog_ray.ops.cluster import kmeans_assign, kmeans_fit

    rng = np.random.default_rng(5)
    pts = rng.normal(0, 1, (3000, 4))
    ds = ray.data.from_pandas(pd.DataFrame({
        "vec_id": np.arange(3000, dtype="int64"),
        "embedding": [r.astype("float32") for r in pts]})).repartition(4)

    # sample_n=16 -> random draw ~20 rows < k=40: must clamp, not crash
    fit = kmeans_fit(ds, k=40, n_iters=2, sample_n=16, seed=3)
    assert fit["centroids"].shape[0] <= 40
    assert fit["centroids"].shape[1] == 4

    fit2 = kmeans_fit(ds, k=5, n_iters=3, seed=3)
    out = kmeans_assign(ds, fit2["centroids"]).to_pandas()
    # exact SSE of returned centroids vs reported inertia
    x = pts.astype(np.float64)
    c = fit2["centroids"]
    d2 = ((x[:, None, :] - c[None, :, :]) ** 2).sum(axis=2).min(axis=1)
    assert abs(fit2["inertia"] - d2.sum()) / d2.sum() < 1e-9
    assert fit2["n_iters"] <= 3
    assert len(out) == 3000


def test_pagerank_tiers_agree_and_rank_hubs(ray_session, monkeypatch):
    """Driver tier matches a dense-matrix reference; distributed tier
    matches the driver tier on the same graph; a star center outranks
    its leaves; ranks sum to ~1."""
    import numpy as np
    import pandas as pd
    import ray.data

    from zeeklog_ray.ops.graph import pagerank

    # star(0; 1..6) plus a 3-cycle (7,8,9)
    edges = [(0, i) for i in range(1, 7)] + [(7, 8), (8, 9), (7, 9)]
    pairs = ray.data.from_pandas(pd.DataFrame(edges,
                                              columns=["doc_a", "doc_b"]))

    out = pagerank(pairs, n_iters=40).to_pandas() \
        .set_index("node")["rank_e9"]
    # dense reference (same damping/teleport formulation)
    n = 10
    M = np.zeros((n, n))
    for a, b in edges:
        M[b, a] = 1.0
        M[a, b] = 1.0
    M /= M.sum(axis=0, keepdims=True)
    r = np.full(n, 1 / n)
    for _ in range(40):
        r = 0.15 / n + 0.85 * (M @ r)
    exp = np.floor(r * 1e9).astype(np.int64)
    got = out.loc[np.arange(n)].to_numpy()
    assert np.abs(got - exp).max() <= 1        # op-order float ulp
    assert out.loc[0] == out.max()             # star center is the hub
    assert abs(int(out.sum()) - 1_000_000_000) < 100

    # distributed tier on the same graph (a zero heap budget forces
    # it); fewer rounds — each distributed round costs shuffle infra —
    # and tol=0 in BOTH tiers so both run exactly 8 rounds.  Every
    # driver-tier run comes first: the budget stays 0 once set.
    drv8 = pagerank(pairs, n_iters=8, tol=0.0).to_pandas() \
        .set_index("node")["rank_e9"]
    es = dict(n_iters=30, tol=1e-3, damping=0.5)
    drv_es = pagerank(pairs, **es).to_pandas() \
        .set_index("node")["rank_e9"]
    full_es = pagerank(pairs, n_iters=30, tol=0.0, damping=0.5) \
        .to_pandas().set_index("node")["rank_e9"]
    monkeypatch.setattr(relational, "HEAP_BUDGET_BYTES", 0)
    dist = pagerank(pairs, n_iters=8, tol=0.0).to_pandas() \
        .set_index("node")["rank_e9"]
    assert np.abs(dist.loc[np.arange(n)].to_numpy()
                  - drv8.loc[np.arange(n)].to_numpy()).max() <= 2

    # EARLY-STOP parity: with a loose tol both tiers must stop at the
    # same round — if the distributed tier ignored tol it would converge
    # further and the ranks would differ far beyond the ±2 ulp bound.
    # damping=0.5 so the L1 delta halves per round and the stop lands
    # around round ~9 (keeps the distributed run's shuffle-round count,
    # and this test's wall time, small)
    dist_es = pagerank(pairs,
                       **es).to_pandas().set_index("node")["rank_e9"]
    assert np.abs(dist_es.loc[np.arange(n)].to_numpy()
                  - drv_es.loc[np.arange(n)].to_numpy()).max() <= 2
    # and the loose-tol result is genuinely an early stop (differs from
    # the same-damping full-30-round fixpoint) — guards the guard
    assert np.abs(drv_es.loc[np.arange(n)].to_numpy()
                  - full_es.loc[np.arange(n)].to_numpy()).max() > 10

    # empty graph
    empty = ray.data.from_pandas(
        pd.DataFrame({"doc_a": [1], "doc_b": [2]})).filter(lambda r: False)
    assert pagerank(empty).count() == 0


def test_pagerank_duplicate_edges_ignored(ray_session):
    """Duplicate and reversed-duplicate pairs must not skew the
    out-degree weighting (defensive dedup, like triangle_count)."""
    import pandas as pd
    import ray.data

    from zeeklog_ray.ops.graph import pagerank

    clean = pd.DataFrame({"doc_a": [0, 0], "doc_b": [1, 2]})
    dirty = pd.DataFrame({"doc_a": [0, 0, 1, 0, 3],
                          "doc_b": [1, 2, 0, 1, 3]})  # dup+rev+selfloop
    a = pagerank(ray.data.from_pandas(clean), n_iters=15).to_pandas() \
        .set_index("node")["rank_e9"]
    b = pagerank(ray.data.from_pandas(dirty), n_iters=15).to_pandas() \
        .set_index("node")["rank_e9"]
    assert a.to_dict() == b.to_dict()
