"""Misra-Gries heavy hitters (exact + lossy regimes) and bloom-filter
semi-join pre-filter (no false negatives, bounded false positives)."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from zeeklog_ray.ops.sketch import heavy_hitters
from zeeklog_ray.relational import (
    bloom_contains,
    bloom_semi_filter,
    build_bloom,
)


def _skewed_events(n=50_000, n_keys=2_000, seed=3):
    rng = np.random.default_rng(seed)
    # zipf-ish skew: a handful of keys dominate
    keys = rng.zipf(1.5, n) % n_keys
    return pd.DataFrame({"user_id": keys.astype("int64")})


def test_heavy_hitters_exact_when_capacity_covers_keys(ray_session):
    df = _skewed_events()
    ds = ray.data.from_pandas(df).repartition(8)
    got = heavy_hitters(ds, "user_id", k=10, capacity=4096)
    exp = (df.value_counts("user_id").rename("n").reset_index()
           .sort_values(["n", "user_id"], ascending=[False, True])
           .head(10).reset_index(drop=True))
    exp["n"] = exp["n"].astype("int64")
    pd.testing.assert_frame_equal(got, exp)


def test_heavy_hitters_lossy_regime_keeps_true_heavies(ray_session):
    """capacity ≪ distinct keys: the MG guarantee still surfaces every key
    with count > n/capacity — the planted dominators must all be found."""
    rng = np.random.default_rng(8)
    background = rng.integers(0, 60_000, 60_000)      # ~1 count per key
    planted = np.repeat(np.array([70_001, 70_002, 70_003]), 4_000)
    df = pd.DataFrame({"user_id": np.concatenate([background, planted])})
    df = df.sample(frac=1.0, random_state=1).reset_index(drop=True)
    ds = ray.data.from_pandas(df).repartition(8)
    got = heavy_hitters(ds, "user_id", k=3, capacity=512)
    assert got["user_id"].tolist() == [70_001, 70_002, 70_003]
    assert got["n"].tolist() == [4_000, 4_000, 4_000]  # exact recount


def test_exact_quantiles_matches_duckdb_disc(ray_session):
    import duckdb

    from zeeklog_ray.ops.sketch import exact_quantiles

    rng = np.random.default_rng(13)
    df = pd.DataFrame({"v": rng.integers(0, 500, 10_001).astype("int64")})
    qs = [0.0, 0.1, 0.5, 0.9, 0.99, 1.0]
    got = exact_quantiles(ray.data.from_pandas(df).repartition(8), "v", qs)
    con = duckdb.connect()
    con.register("t", df)
    exp = con.sql("SELECT quantile_disc(v, "
                  + str(qs) + ") FROM t").fetchone()[0]
    assert got["value"].tolist() == list(exp)


@pytest.mark.parametrize("nb", [1, 64])
def test_grouped_exact_quantiles_matches_duckdb(ray_session, in_blocks, nb):
    import duckdb

    from zeeklog_ray.ops.sketch import grouped_exact_quantiles

    rng = np.random.default_rng(21)
    df = pd.DataFrame({"k": rng.integers(0, 12, 5_000),
                       "v": rng.integers(0, 200, 5_000).astype("int64")})
    qs = [0.1, 0.5, 0.99]
    got = grouped_exact_quantiles(in_blocks(df, nb),
                                  "k", "v", qs).to_pandas() \
        .sort_values(["k", "q"]).reset_index(drop=True)
    con = duckdb.connect()
    con.register("t", df)
    exp = con.sql(
        " UNION ALL ".join(
            f"SELECT k, CAST({q} AS DOUBLE) AS q, quantile_disc(v, {q}) "
            f"AS value FROM t GROUP BY k" for q in qs)).df() \
        .sort_values(["k", "q"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


@pytest.mark.parametrize("nb", [1, 64])
def test_grouped_exact_quantiles_null_semantics(ray_session, in_blocks, nb):
    """SQL GROUP BY parity: null KEYS form one group, null VALUES are
    ignored per key, and an all-null-value key emits a null quantile —
    none of which may crash or split per distinct value."""
    from zeeklog_ray.ops.sketch import grouped_exact_quantiles

    df = pd.DataFrame({
        "k": [1.0, 1.0, 1.0, np.nan, np.nan, np.nan, 2.0, 2.0],
        "v": [10, None, 30, 5, 7, None, None, None]})
    df["v"] = df["v"].astype("float64")
    got = grouped_exact_quantiles(in_blocks(df, nb), "k", "v",
                                  [0.5]).to_pandas()
    assert len(got) == 3                       # groups: 1.0, NaN, 2.0
    by_key = {("nan" if pd.isna(r["k"]) else r["k"]): r["value"]
              for _, r in got.iterrows()}
    assert by_key[1.0] == 10.0                 # nulls ignored: {10,30} p50
    assert by_key["nan"] == 5.0                # ONE null-key group: {5,7}
    assert pd.isna(by_key[2.0])                # all-null values → null


def test_exact_quantiles_ignores_nulls_like_quantile_disc(ray_session):
    """Nulls must not enter the histogram (regression: the null group
    inflated n and returned NaN); all-null input yields null values."""
    from zeeklog_ray.ops.sketch import exact_quantiles

    df = pd.DataFrame({"v": [1.0, 2.0, 3.0, None, None, None, None]})
    got = exact_quantiles(ray.data.from_pandas(df), "v", [0.5, 0.9, 1.0])
    assert got["value"].tolist() == [2.0, 3.0, 3.0]   # DuckDB quantile_disc
    allnull = pd.DataFrame({"v": [None, None]}, dtype="float64")
    got2 = exact_quantiles(ray.data.from_pandas(allnull), "v", [0.5])
    assert got2["value"].isna().all()


def test_bloom_no_false_negatives_and_low_fp():
    rng = np.random.default_rng(5)
    members = pd.Series(rng.choice(10_000_000, 20_000, replace=False))
    bits = build_bloom(members, n_bits=1 << 18, k_hashes=5)
    assert bloom_contains(bits, members).all()         # never a false negative
    non = pd.Series(np.arange(20_000_000, 20_050_000))
    fp = bloom_contains(bits, non).mean()
    assert fp < 0.05          # ~13 bits/key, k=5 → well under 5%


def test_bloom_non_byte_multiple_n_bits_no_false_negatives():
    """n_bits not divisible by 8 must round up, not crash or probe a
    different modulus than the build (regression: bloom_contains recovers
    the modulus from len(bits)*8 → silent false negatives)."""
    members = pd.Series(np.arange(100))
    bits = build_bloom(members, n_bits=123, k_hashes=3)
    assert len(bits) == 16                    # 123 → 128 bits → 16 bytes
    assert bloom_contains(bits, members, k_hashes=3).all()


def test_bloom_semi_filter_superset_of_exact(ray_session):
    rng = np.random.default_rng(9)
    fact = pd.DataFrame({"k": rng.integers(0, 5_000, 30_000),
                         "v": np.arange(30_000)})
    keys = pd.Series(np.arange(0, 5_000, 7))           # ~714 dimension keys
    out = bloom_semi_filter(ray.data.from_pandas(fact), keys,
                            on="k").to_pandas()
    exact = fact[fact["k"].isin(set(keys))]
    assert set(exact["v"]) <= set(out["v"])            # superset (no FN)
    assert len(out) < len(fact)                        # actually pruned


# ---- mergeable quantile sketch -------------------------------------------

def _rank_of(sorted_vals, x):
    return np.searchsorted(sorted_vals, x, side="right") / len(sorted_vals)


def test_quantile_sketch_rank_error_bound():
    from zeeklog_ray.ops.sketch import (
        merge_quantile_sketches, quantile_sketch_of, sketch_quantiles)
    rng = np.random.default_rng(5)
    data = rng.lognormal(0, 2.0, 200_000)  # heavy-tailed continuous
    blocks = np.array_split(data, 37)
    sketches = [quantile_sketch_of(b, k=512) for b in blocks]
    mv, mw = merge_quantile_sketches(sketches, k=512)
    assert abs(mw.sum() - len(data)) < 1e-6  # weight preserved
    qs = [0.01, 0.1, 0.5, 0.9, 0.99]
    est = sketch_quantiles(mv, mw, qs)
    svals = np.sort(data)
    for q, e in zip(qs, est):
        assert abs(_rank_of(svals, e) - q) < 3 / 512, (q, e)


def test_quantile_sketch_merge_order_stable():
    from zeeklog_ray.ops.sketch import (
        merge_quantile_sketches, quantile_sketch_of, sketch_quantiles)
    rng = np.random.default_rng(9)
    data = rng.normal(0, 1, 50_000)
    blocks = [quantile_sketch_of(b, 256) for b in np.array_split(data, 10)]
    a = merge_quantile_sketches(blocks, 256)
    b = merge_quantile_sketches(blocks[::-1], 256)
    qa = sketch_quantiles(*a, [0.25, 0.5, 0.75])
    qb = sketch_quantiles(*b, [0.25, 0.5, 0.75])
    # identical multiset of centroids ⇒ identical post-merge summary
    assert np.allclose(qa, qb)


def test_quantile_sketch_small_input_exact():
    from zeeklog_ray.ops.sketch import quantile_sketch_of, sketch_quantiles
    v, w = quantile_sketch_of(np.array([3.0, 1.0, 2.0]), k=512)
    assert v.tolist() == [1.0, 2.0, 3.0]
    # n <= k keeps raw values: quantiles are exact quantile_disc
    assert sketch_quantiles(v, w, [0.5])[0] == 2.0


def test_approx_quantiles_dataset(ray_session):
    import ray.data
    from zeeklog_ray.ops.sketch import approx_quantiles
    rng = np.random.default_rng(3)
    df = pd.DataFrame({"value": rng.exponential(10, 80_000)})
    df.loc[::97, "value"] = np.nan  # nulls must be ignored
    ds = ray.data.from_pandas(df).repartition(16)
    out = approx_quantiles(ds, "value", [0.5, 0.95])
    clean = np.sort(df["value"].dropna().to_numpy())
    for q, e in zip(out["q"], out["value"]):
        assert abs(_rank_of(clean, e) - q) < 3 / 512


def test_grouped_interp_quantiles_matches_numpy(ray_session):
    """value_x100/100 == np.percentile(..., 'linear') exactly, incl. null
    values (ignored) and single-value keys."""
    from zeeklog_ray.ops.sketch import grouped_interp_quantiles

    rng = np.random.default_rng(5)
    df = pd.DataFrame({"k": rng.choice(list("abc"), 2000),
                       "v": rng.integers(0, 100_000, 2000).astype("float64")})
    df.loc[df.sample(100, random_state=1).index, "v"] = np.nan
    df = pd.concat([df, pd.DataFrame({"k": ["solo"], "v": [42.0]})],
                   ignore_index=True)
    dfi = df.dropna().assign(v=lambda d: d["v"].astype("int64"))
    out = grouped_interp_quantiles(
        ray.data.from_pandas(dfi), "k", "v", [0, 50, 99, 100]).to_pandas()
    for k, sub in dfi.groupby("k"):
        for p in [0, 50, 99, 100]:
            exp = np.percentile(sub["v"], p, method="linear")
            got = out[(out.k == k) & (out.q_pct == p)]["value_x100"].iloc[0]
            assert got == round(exp * 100), (k, p)
    assert set(out[out.k == "solo"]["value_x100"]) == {4200}


def test_grouped_interp_quantiles_rejects_bad_pcts(ray_session):
    from zeeklog_ray.ops.sketch import grouped_interp_quantiles

    with pytest.raises(ValueError, match="integer percents"):
        grouped_interp_quantiles(None, "k", "v", [0.5])


def test_countmin_never_underestimates_and_merges(ray_session):
    """Adversarially small width forces collisions on a string key:
    estimates are always >= truth; the distributed per-batch merge
    equals a single-block sketch."""
    from zeeklog_ray.ops.sketch import count_min_build, count_min_estimate

    rng = np.random.default_rng(4)
    vals = pd.Series(rng.zipf(1.3, 30_000).astype(str))
    df = pd.DataFrame({"v": vals})
    sk = count_min_build(ray.data.from_pandas(df).repartition(9), "v",
                         width=64, depth=4)
    one = count_min_build(ray.data.from_pandas(df), "v", width=64, depth=4)
    assert (sk == one).all()                                     # mergeable
    true = vals.value_counts()
    probes = true.index[:200].to_numpy()
    est = count_min_estimate(sk, probes)
    truth = true[probes].to_numpy()
    assert (est >= truth).all()                                  # one-sided
    # error bound: over by < 2e/width * n with prob 1-2^-depth; allow the
    # deterministic seed some slack but stay in the right regime
    assert (est - truth).max() < 6 * len(vals) / 64


def test_countmin_registry_config_exact(ray_session):
    """The registry configuration (5 keys, width 2048, depth 4) is
    collision-free on a string key: estimates equal exact counts."""
    from zeeklog_ray.ops.sketch import count_min_build, count_min_estimate

    df = pd.DataFrame({"t": ["a"] * 10 + ["b"] * 3 + ["c"] * 7})
    cm = count_min_build(ray.data.from_pandas(df), "t", width=2048, depth=4)
    est = count_min_estimate(cm, ["a", "b", "c", "zz"])
    assert est.tolist() == [10, 3, 7, 0]


def test_grouped_iqr_outliers(ray_session):
    import ray.data
    from zeeklog_ray.ops.sketch import grouped_iqr_outliers

    # key 'a': values 0..99 plus one wild point; key 'b': all-null values
    df = pd.DataFrame({
        "k": ["a"] * 101 + ["b"] * 2,
        "v": list(range(100)) + [10_000] + [None, None],
    })
    df["v"] = df["v"].astype("Int64")
    out = grouped_iqr_outliers(ray.data.from_pandas(df).repartition(4),
                               "k", "v").to_pandas()
    assert out["k"].tolist() == ["a"]        # all-null key dropped
    r = out.iloc[0]
    # quantile_disc ranks over 101 non-null values: q25=ceil(.25*101)-1=25
    # → 25, q75=ceil(.75*101)-1=75 → 75; fence = (3*50)//2 = 75
    assert (r["lo"], r["hi"]) == (25 - 75, 75 + 75)
    assert r["n"] == 101 and r["n_outliers"] == 1


def test_grouped_iqr_outliers_empty_input(ray_session):
    import pandas as pd
    import ray.data
    from zeeklog_ray.ops.sketch import grouped_iqr_outliers

    empty = ray.data.from_pandas(pd.DataFrame({
        "k": pd.Series([], dtype="object"),
        "v": pd.Series([], dtype="int64")}))
    out = grouped_iqr_outliers(empty, "k", "v")
    assert out.count() == 0
    # block-level schema survives (to_pandas() on an empty Dataset strips
    # columns — the repo's documented empty-result quirk)
    assert set(out.schema().names) >= {"lo", "hi", "n", "n_outliers"}


def test_grouped_approx_distinct_accuracy(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data
    from zeeklog_ray.ops.sketch import grouped_approx_distinct

    rng = np.random.default_rng(11)
    # two keys with very different true cardinalities, multi-block
    df = pd.DataFrame({
        "k": ["big"] * 60000 + ["small"] * 5000,
        "v": np.concatenate([rng.integers(0, 40000, 60000),
                             rng.integers(0, 300, 5000)])})
    ds = ray.data.from_pandas([df.iloc[:30000], df.iloc[30000:]])
    got = grouped_approx_distinct(ds, "k", "v").set_index("k")["approx_n"]
    true = df.groupby("k")["v"].nunique()
    for k in ("big", "small"):
        rel = abs(got[k] - true[k]) / true[k]
        assert rel < 0.05, (k, got[k], true[k])


# ---- grouped approximate quantiles (rank-sample sketch, per key) ----------


def test_grouped_approx_quantiles_rank_error_bound(ray_session):
    """Per-key estimates land within ~2/k rank error of the true
    quantiles on a known distribution, at ANY block layout."""
    import ray.data

    from zeeklog_ray.ops.sketch import QSKETCH_K, grouped_approx_quantiles

    rng = np.random.default_rng(11)
    n_per = 20_000
    frames = []
    for g, (lo, hi) in {"a": (0, 100), "b": (500, 900),
                        "c": (-50, 50)}.items():
        frames.append(pd.DataFrame({
            "k": g, "v": rng.uniform(lo, hi, n_per)}))
    df = pd.concat(frames, ignore_index=True).sample(
        frac=1.0, random_state=5).reset_index(drop=True)
    for blocks in (1, 9):
        ds = ray.data.from_pandas(df, override_num_blocks=blocks)
        got = grouped_approx_quantiles(ds, "k", "v", [0.1, 0.5, 0.9])
        assert len(got) == 9
        for g in ("a", "b", "c"):
            sub = df[df["k"] == g]["v"].to_numpy()
            sub.sort()
            for _, row in got[got["k"] == g].iterrows():
                # rank of the estimate within the true sorted values
                rank = np.searchsorted(sub, row["value"]) / n_per
                assert abs(rank - row["q"]) <= 2.5 / QSKETCH_K + 0.01, \
                    (g, row["q"], rank)


def test_grouped_approx_quantiles_null_semantics(ray_session):
    import ray.data

    from zeeklog_ray.ops.sketch import grouped_approx_quantiles

    df = pd.DataFrame({
        "k": ["a"] * 5 + ["b"] * 3 + ["c"] * 2,
        "v": [1.0, 2.0, 3.0, 4.0, 5.0] + [np.nan] * 3 + [7.0, np.nan]})
    got = grouped_approx_quantiles(
        ray.data.from_pandas(df), "k", "v", [0.5])
    # all-null key b is dropped; c's single value is its median
    assert set(got["k"]) == {"a", "c"}
    assert got.loc[got["k"] == "c", "value"].iloc[0] == 7.0
    assert got.loc[got["k"] == "a", "value"].iloc[0] == 3.0


def test_grouped_approx_vs_exact_twin_on_events(ray_session):
    """The sketch's per-type p50/p99 sit near the exact grouped
    quantiles on the sf0.001 events table (cents scale)."""
    from zeeklog_ray.queries import QUERIES

    approx = QUERIES["event_type_quantiles_sketch"]("/root/testdata/sf0.001")
    exact = QUERIES["event_type_quantiles"]("/root/testdata/sf0.001") \
        .to_pandas()
    m = approx.merge(exact, left_on=["event_type", "q"],
                     right_on=["event_type", "q"], suffixes=("_a", "_e"))
    assert len(m) == len(approx) > 0
    # exact is in cents; sketch in raw value — compare on the cents scale
    err = (m["value_a"] * 100 - m["value_e"]).abs()
    assert (err <= 0.03 * m["value_e"].abs() + 200).all(), m


def test_grouped_heavy_hitters_exact_small(ray_session):
    from zeeklog_ray.ops.sketch import grouped_heavy_hitters

    df = pd.DataFrame({
        "g": ["a"] * 10 + ["b"] * 6,
        "v": [1, 1, 1, 2, 2, 3, 4, 5, 6, 7] + [9, 9, 8, 8, 7, 6],
    })
    out = grouped_heavy_hitters(ray.data.from_pandas(df), "g", "v", k=2,
                                capacity=64)
    got = [(r.g, r.v, r.n, r.rank) for r in out.itertuples()]
    # ties break value-ascending: in b, 8 and 9 both have 2 → 8 first
    assert got == [("a", 1, 3, 1), ("a", 2, 2, 2),
                   ("b", 8, 2, 1), ("b", 9, 2, 2)]


def test_grouped_heavy_hitters_lossy_regime_planted_skew(ray_session):
    """capacity ≪ distinct values per group: the MG guarantee still
    surfaces the planted heavy keys with exact counts."""
    from zeeklog_ray.ops.sketch import grouped_heavy_hitters

    rng = np.random.default_rng(3)
    rows = []
    for g in ["x", "y"]:
        rows += [(g, int(v)) for v in rng.integers(1000, 9000, size=20_000)]
        rows += [(g, 1)] * 3000 + [(g, 2)] * 2000   # planted heavies
    df = pd.DataFrame(rows, columns=["g", "v"])
    out = grouped_heavy_hitters(
        ray.data.from_pandas(df).repartition(8), "g", "v", k=2, capacity=64)
    for g in ["x", "y"]:
        sub = out[out["g"] == g].sort_values("rank")
        assert sub["v"].tolist() == [1, 2]
        assert sub["n"].tolist() == [3000, 2000]   # recount is exact


def test_grouped_approx_distinct_replayable_matches_sql(ray_session):
    """The replayable HLL tier (splitmix64 + integer estimator) must
    match its generated DuckDB oracle bit-for-bit AND stay within the
    documented error of the true distinct count."""
    import duckdb
    import ray.data

    from zeeklog_ray.ops.sketch import grouped_approx_distinct, hll_oracle_sql

    rng = np.random.default_rng(17)
    n = 40000
    df = pd.DataFrame({
        "event_type": rng.choice(["x", "y", "z"], n),
        "user_id": rng.integers(0, 9000, n).astype(np.int64),
    })
    got = grouped_approx_distinct(
        ray.data.from_pandas(df, override_num_blocks=5),
        "event_type", "user_id", replayable=True) \
        .sort_values("event_type").reset_index(drop=True)
    con = duckdb.connect()
    con.register("events", df)
    want = con.execute(hll_oracle_sql("events", "event_type", "user_id")
                       + " ORDER BY event_type").df()
    assert got["approx_n"].tolist() == [int(v) for v in want["approx_n"]]
    exact = df.groupby("event_type")["user_id"].nunique() \
        .sort_index().to_numpy()
    rel = np.abs(got["approx_n"].to_numpy() / exact - 1)
    assert (rel < 0.05).all(), rel


def test_count_min_overcounts_never_under(ray_session):
    """CM estimates are >= true counts (min over hashed counters), exact
    at generous width, visibly over at tiny width; block-layout
    invariant (counters merge by addition)."""
    import numpy as np
    import pandas as pd

    import ray.data

    from zeeklog_ray.ops.sketch import count_min_build, count_min_estimate

    rng = np.random.default_rng(3)
    keys = rng.zipf(1.8, size=20_000).astype(np.int64) % 500
    df = pd.DataFrame({"user_id": keys})
    truth = df["user_id"].value_counts()
    qk = truth.index.to_numpy()[:50]

    for nparts in (1, 4):
        ds = ray.data.from_pandas(df).repartition(nparts)
        wide = count_min_build(ds, "user_id", width=1 << 14, depth=4)
        est = count_min_estimate(wide, qk)
        # generous width: collisions are negligible -> exact
        assert (est == truth.loc[qk].to_numpy()).all()

    tight = count_min_build(ray.data.from_pandas(df), "user_id",
                            width=64, depth=4)
    est_t = count_min_estimate(tight, qk)
    true_t = truth.loc[qk].to_numpy()
    assert (est_t >= true_t).all()          # NEVER undercounts
    assert (est_t > true_t).any()           # width 64 must collide
    # total mass conservation per row of counters
    assert (tight.sum(axis=1) == len(df)).all()
