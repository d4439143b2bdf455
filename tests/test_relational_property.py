"""Property tests for the round-3 relational operators: each is compared
against a brute-force pandas/Python oracle over randomized inputs
(seeded hypothesis strategies; multi-block datasets so block-boundary
bugs can't hide)."""

import numpy as np
import pandas as pd
import ray.data
from hypothesis import given, settings
from hypothesis import strategies as st


def _frame(draw, n, n_keys, with_nulls=False):
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    k = rng.integers(0, n_keys, n).astype("float64")
    if with_nulls and draw(st.booleans()):
        k[rng.random(n) < 0.1] = np.nan
    return pd.DataFrame({
        "k": k,
        "ts": rng.integers(0, 50, n).astype("int64"),
        "id": np.arange(n, dtype="int64"),
        "v": rng.integers(-5, 100, n).astype("int64")})


def _two_blocks(df):
    half = len(df) // 2
    return ray.data.from_pandas([df.iloc[:half], df.iloc[half:]])


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_latest_per_key_property(ray_session, data):
    from zeeklog_ray.relational import latest_per_key

    df = _frame(data.draw, data.draw(st.integers(10, 200)), 8)
    got = latest_per_key(_two_blocks(df), ["k"], ["ts", "id"]).to_pandas() \
        .sort_values("k").reset_index(drop=True)
    exp = df.sort_values(["ts", "id"], ascending=False) \
        .drop_duplicates("k").sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["k", "ts", "id", "v"]], exp[["k", "ts", "id", "v"]],
        check_dtype=False)


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_seq_index_property(ray_session, data):
    from zeeklog_ray.relational import seq_index_per_key

    df = _frame(data.draw, data.draw(st.integers(10, 200)), 6,
                with_nulls=True)
    got = seq_index_per_key(_two_blocks(df), "k", ["ts", "id"]) \
        .to_pandas().sort_values("id").reset_index(drop=True)
    exp = df.sort_values(["ts", "id"]).copy()
    exp["seq"] = exp.groupby("k", dropna=False).cumcount() + 1
    exp = exp.sort_values("id").reset_index(drop=True)
    assert got["seq"].tolist() == exp["seq"].tolist()


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_cube_sum_property(ray_session, data):
    import duckdb

    from zeeklog_ray.relational import cube_sum

    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    n = data.draw(st.integers(5, 120))
    df = pd.DataFrame({
        "a": rng.choice(list("xyz"), n),
        "b": rng.choice(list("pq"), n),
        "v": rng.integers(-10, 50, n).astype("int64")})
    got = cube_sum(_two_blocks(df), ["a", "b"], sums={"v": "v"},
                   count_as="c")
    con = duckdb.connect()
    con.register("t", df)
    exp = con.sql("SELECT a, b, CAST(SUM(v) AS BIGINT) AS v, "
                  "CAST(COUNT(*) AS BIGINT) AS c FROM t "
                  "GROUP BY CUBE(a, b)").df()
    key = lambda d: sorted(  # noqa: E731
        d[["a", "b", "v", "c"]].astype(str).itertuples(index=False,
                                                       name=None))
    assert key(got) == key(exp)


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_grouped_var_exact_property(ray_session, data):
    from zeeklog_ray.relational import grouped_var_exact

    df = _frame(data.draw, data.draw(st.integers(10, 200)), 5)
    got = grouped_var_exact(_two_blocks(df), ["k"], "v") \
        .sort_values("k").reset_index(drop=True)
    for _, row in got.iterrows():
        xs = [int(x) for x in df.loc[df["k"] == row["k"], "v"]]
        n, sx, sx2 = len(xs), sum(xs), sum(x * x for x in xs)
        assert n == row["n"]
        assert row["var_scaled"] == (n * sx2 - sx * sx) * 10**6 \
            // (n * (n - 1))
    # groups with n < 2 must be absent
    sizes = df.groupby("k").size()
    assert set(got["k"]) == set(sizes[sizes >= 2].index)


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_pivot_melt_roundtrip_property(ray_session, data):
    from zeeklog_ray.relational import grouped_sum, melt, pivot_sum

    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    n = data.draw(st.integers(5, 150))
    cats = list("abc")
    df = pd.DataFrame({
        "k": rng.integers(0, 6, n).astype("int64"),
        "c": rng.choice(cats + ["other"], n),
        "v": rng.integers(-5, 40, n).astype("int64")})
    wide = pivot_sum(_two_blocks(df), "k", "c", "v", cats, prefix="p_")
    long = melt(wide, ["k"], [f"p_{c}" for c in cats],
                var_name="c", value_name="v")
    got = grouped_sum(long, ["c"], sums={"v": "s"}).to_pandas() \
        .sort_values("c").reset_index(drop=True)
    exp = {f"p_{c}": int(df.loc[df["c"] == c, "v"].sum()) for c in cats}
    assert dict(zip(got["c"], got["s"])) == exp


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_bucketed_equi_join_matches_pandas(ray_session, in_blocks, data):
    """Random int-keyed sides with duplicates and non-matching keys:
    bucketed_equi_join == pandas inner merge (as multisets)."""
    from zeeklog_ray.relational import bucketed_equi_join

    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    nl = data.draw(st.integers(1, 120))
    nr = data.draw(st.integers(1, 120))
    left = pd.DataFrame({"k": rng.integers(0, 25, nl).astype("int64"),
                         "x": np.arange(nl, dtype="int64")})
    right = pd.DataFrame({"node": rng.integers(0, 25, nr).astype("int64"),
                          "y": np.arange(nr, dtype="int64") * 10})
    nb = data.draw(st.sampled_from([1, 4, 16]))
    got = bucketed_equi_join(in_blocks(left, nb), in_blocks(right, nb),
                             on="k", right_on="node").to_pandas()
    exp = left.merge(right.rename(columns={"node": "k"}), on="k")
    if len(exp) == 0:      # empty to_pandas loses columns (known quirk)
        assert len(got) == 0
        return
    key = lambda df: sorted(map(tuple, df[["k", "x", "y"]].values))
    assert key(got) == key(exp)


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_global_rank_matches_pandas_property(ray_session, data):
    """Random values with heavy ties across random bucket counts:
    global_rank == ROW_NUMBER over (v, id)."""
    from zeeklog_ray.relational import global_rank

    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    n = data.draw(st.integers(2, 300))
    df = pd.DataFrame({"id": np.arange(n, dtype="int64"),
                       "v": rng.integers(0, 12, n).astype("int64")})
    nb = data.draw(st.sampled_from([2, 8, 32]))
    out = global_rank(_two_blocks(df), by="v", tie="id",
                      num_buckets=nb, sample_n=16).to_pandas()
    exp = df.sort_values(["v", "id"]).reset_index(drop=True)
    exp["rank"] = np.arange(1, n + 1)
    got = out.sort_values("rank").reset_index(drop=True)
    assert got["id"].tolist() == exp["id"].tolist()
    assert got["rank"].tolist() == exp["rank"].tolist()
