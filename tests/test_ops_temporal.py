"""Sessionization + as-of join vs hand-computed expectations.

Every test runs its input in one block as well as in several
(``in_blocks``; 1024 is capped at 8): one block puts every key of a
one-sided exchange in one ``fn`` call, which exercises the multi-key
logic (key-change boundary masking, merge_asof by=key); several blocks
spread the keys over calls.
"""

import numpy as np
import pandas as pd
import pytest
import ray.data

from zeeklog_ray.ops.sessionize import asof_join, session_counts, sessionize

BUCKETS = [1024, 1]


def _events():
    rows = [
        ("u1", "2024-01-01 10:00"), ("u1", "2024-01-01 10:10"),
        ("u1", "2024-01-01 11:00"),                      # 50-min gap → new session
        ("u2", "2024-01-01 09:00"),
        ("u2", "2024-01-02 09:00"),                      # next day → new session
        ("u2", "2024-01-02 09:05"),
    ]
    return pd.DataFrame({"user_id": [r[0] for r in rows],
                         "ts": pd.to_datetime([r[1] for r in rows])})


@pytest.mark.parametrize("nb", BUCKETS)
def test_sessionize(ray_session, in_blocks, nb):
    out = sessionize(in_blocks(_events(), nb), gap_minutes=30).to_pandas()
    u1 = out[out["user_id"] == "u1"].sort_values("session_id")
    assert u1["n_events"].tolist() == [2, 1]
    u2 = out[out["user_id"] == "u2"].sort_values("session_id")
    assert u2["n_events"].tolist() == [1, 2]


@pytest.mark.parametrize("nb", BUCKETS)
def test_session_counts(ray_session, in_blocks, nb):
    out = session_counts(in_blocks(_events(), nb), gap_minutes=30) \
        .to_pandas().set_index("user_id")
    assert out.loc["u1", "n_sessions"] == 2 and out.loc["u1", "n_events"] == 3
    assert out.loc["u2", "n_sessions"] == 2 and out.loc["u2", "n_events"] == 3


def _asof_frames():
    left = pd.DataFrame({"user_id": ["a", "a", "b"],
                         "ts": pd.to_datetime(["2024-01-01 10:00",
                                               "2024-01-01 12:00",
                                               "2024-01-01 10:00"]),
                         "event_id": [1, 2, 3]})
    right = pd.DataFrame({"user_id": ["a", "a", "b"],
                          "ts": pd.to_datetime(["2024-01-01 09:00",
                                                "2024-01-01 11:00",
                                                "2024-01-01 11:00"]),
                          "val": [10, 20, 30]})
    return left, right


@pytest.mark.parametrize("nb", BUCKETS)
def test_asof_join(ray_session, in_blocks, nb):
    left, right = _asof_frames()
    out = asof_join(in_blocks(left, nb), in_blocks(right, nb),
                    key="user_id", ts="ts", right_cols=["val"]).to_pandas()
    got = out.set_index("event_id")["val"]
    assert got.loc[1] == 10          # latest right ≤ 10:00 is 09:00 → 10
    assert got.loc[2] == 20          # latest right ≤ 12:00 is 11:00 → 20
    assert pd.isna(got.loc[3])       # b has no right row ≤ 10:00


@pytest.mark.parametrize("nb", BUCKETS)
def test_asof_join_null_keys(ray_session, in_blocks, nb):
    """Null-key left rows must get null right columns, not crash (they
    cannot reach merge_asof, which rejects nulls in by=)."""
    left, right = _asof_frames()
    left = pd.concat([left, pd.DataFrame({
        "user_id": [None], "ts": pd.to_datetime(["2024-01-01 12:00"]),
        "event_id": [4]})], ignore_index=True)
    out = asof_join(in_blocks(left, nb), in_blocks(right, nb),
                    key="user_id", ts="ts", right_cols=["val"]).to_pandas()
    got = out.set_index("event_id")["val"]
    assert len(out) == 4
    assert got.loc[2] == 20 and pd.isna(got.loc[4])


@pytest.mark.parametrize("nb", BUCKETS)
def test_asof_join_null_timestamps(ray_session, in_blocks, nb):
    """A null ts on either side must not reach merge_asof (it raises on
    null merge keys; NaT sorts last so the sort alone doesn't isolate it):
    null-ts LEFT rows emit with null right columns, null-ts RIGHT rows are
    dropped."""
    left, right = _asof_frames()
    left = pd.concat([left, pd.DataFrame({
        "user_id": ["a"], "ts": [pd.NaT], "event_id": [4]})],
        ignore_index=True)
    right = pd.concat([right, pd.DataFrame({
        "user_id": ["a"], "ts": [pd.NaT], "val": [99]})],
        ignore_index=True)
    out = asof_join(in_blocks(left, nb), in_blocks(right, nb),
                    key="user_id", ts="ts", right_cols=["val"]).to_pandas()
    got = out.set_index("event_id")["val"]
    assert len(out) == 4
    assert got.loc[1] == 10 and got.loc[2] == 20     # unchanged matches
    assert pd.isna(got.loc[4])                       # null-ts left row kept
    assert 99 not in got.dropna().to_numpy()         # null-ts right dropped


@pytest.mark.parametrize("nb", BUCKETS)
def test_asof_join_name_collision_stable_schema(ray_session, in_blocks,
                                                nb):
    """A right column colliding with a left name is suffixed in EVERY
    bucket — including buckets whose right side is empty — so blocks
    agree on schema and the joined values stay reachable."""
    left, right = _asof_frames()
    left["val"] = [-1, -2, -3]                 # collides with right's 'val'
    # key 'c' exists only on the left → its bucket has an empty right side
    left = pd.concat([left, pd.DataFrame({
        "user_id": ["c"], "ts": pd.to_datetime(["2024-01-01 12:00"]),
        "event_id": [5], "val": [-5]})], ignore_index=True)
    out = asof_join(in_blocks(left, nb), in_blocks(right, nb),
                    key="user_id", ts="ts", right_cols=["val"]).to_pandas()
    assert "val_r" in out.columns
    got = out.set_index("event_id")
    assert got.loc[2, "val"] == -2 and got.loc[2, "val_r"] == 20
    assert pd.isna(got.loc[5, "val_r"]) and got.loc[5, "val"] == -5


def _range_frames():
    left = pd.DataFrame({"user_id": ["a", "a", "a", "b"],
                         "ts": pd.to_datetime(["2024-01-01 10:00",
                                               "2024-01-01 11:30",
                                               "2024-01-01 14:00",
                                               "2024-01-01 10:00"]),
                         "event_id": [1, 2, 3, 4]})
    right = pd.DataFrame({"user_id": ["a", "a", "b"],
                          "t0": pd.to_datetime(["2024-01-01 09:00",
                                                "2024-01-01 11:00",
                                                "2024-01-01 12:00"]),
                          "t1": pd.to_datetime(["2024-01-01 12:00",
                                                "2024-01-01 15:00",
                                                "2024-01-01 13:00"]),
                          "tag": ["x", "y", "z"]})
    return left, right


@pytest.mark.parametrize("nb", BUCKETS)
def test_range_join_overlapping_intervals_multiply(ray_session, in_blocks,
                                                   nb):
    from zeeklog_ray.ops.sessionize import range_join

    left, right = _range_frames()
    out = range_join(in_blocks(left, nb), in_blocks(right, nb),
                     key="user_id", ts="ts", start="t0", end="t1",
                     right_cols=["tag"]).to_pandas()
    got = sorted(zip(out["event_id"], out["tag"]))
    # e1 10:00 ∈ [9,12] only; e2 11:30 ∈ both 'a' intervals; e3 14:00 ∈
    # [11,15]; e4 (b, 10:00) ∉ [12,13]
    assert got == [(1, "x"), (2, "x"), (2, "y"), (3, "y")]


@pytest.mark.parametrize("nb", BUCKETS)
def test_range_join_nulls_dropped(ray_session, in_blocks, nb):
    from zeeklog_ray.ops.sessionize import range_join

    left, right = _range_frames()
    left = pd.concat([left, pd.DataFrame({
        "user_id": ["a"], "ts": [pd.NaT], "event_id": [9]})],
        ignore_index=True)
    right = pd.concat([right, pd.DataFrame({
        "user_id": ["a"], "t0": [pd.NaT],
        "t1": [pd.Timestamp("2024-01-01 23:00")], "tag": ["bad"]})],
        ignore_index=True)
    out = range_join(in_blocks(left, nb), in_blocks(right, nb),
                     key="user_id", ts="ts", start="t0", end="t1",
                     right_cols=["tag"]).to_pandas()
    assert 9 not in set(out["event_id"])        # null-ts left row dropped
    assert "bad" not in set(out["tag"])          # null-bound interval dropped


@pytest.mark.parametrize("nb", BUCKETS + [7])
def test_range_join_right_only_key_and_int_dtypes(ray_session, in_blocks,
                                                  nb):
    """A right-side key with NO left rows must not crash (its bucket block
    lacks the left columns entirely — regression: dropna-by-column raised
    KeyError), and integer left ids above 2^53 must survive the union's
    float64 null-fill (regression: silent float round-trip)."""
    from zeeklog_ray.ops.sessionize import range_join

    big = (1 << 53) + 1
    left = pd.DataFrame({"user_id": ["a"],
                         "ts": pd.to_datetime(["2024-01-01 10:00"]),
                         "event_id": np.array([big], dtype=np.int64)})
    right = pd.DataFrame({"user_id": ["a", "zero-events"],
                          "t0": pd.to_datetime(["2024-01-01 09:00"] * 2),
                          "t1": pd.to_datetime(["2024-01-01 11:00"] * 2),
                          "tag": ["x", "y"]})
    out = range_join(in_blocks(left, nb), in_blocks(right, nb),
                     key="user_id", ts="ts", start="t0", end="t1",
                     right_cols=["tag"]).to_pandas()
    assert out["event_id"].dtype == np.int64
    assert out["event_id"].tolist() == [big]    # exact, not float-rounded
    assert out["tag"].tolist() == ["x"]


@pytest.mark.parametrize("nb", [1, 7])
def test_asof_join_right_only_key_and_int_dtypes(ray_session, in_blocks,
                                                 nb):
    """The asof twin of the range_join case: a right-side key with NO
    left rows must not crash, integer left ids above 2^53 come out exact
    int64 (regression: the union's null-fill rounded them through
    float64), and an integer right column comes out nullable Int64 —
    null where no right row matched."""
    big = (1 << 53) + 1
    left = pd.DataFrame({"user_id": ["a", "b"],
                         "ts": pd.to_datetime(["2024-01-01 10:00"] * 2),
                         "event_id": np.array([big, big + 2],
                                              dtype=np.int64)})
    right = pd.DataFrame({"user_id": ["a", "zero-events"],
                          "ts": pd.to_datetime(["2024-01-01 09:00"] * 2),
                          "val": np.array([7, 8], dtype=np.int64)})
    out = asof_join(in_blocks(left, nb), in_blocks(right, nb),
                    key="user_id", ts="ts",
                    right_cols=["val"]).to_pandas().sort_values("event_id")
    assert out["event_id"].dtype == np.int64
    assert out["event_id"].tolist() == [big, big + 2]   # exact
    assert str(out["val"].dtype) == "Int64"
    assert out["val"].iloc[0] == 7 and pd.isna(out["val"].iloc[1])


def test_range_join_rejects_column_collision(ray_session):
    from zeeklog_ray.ops.sessionize import range_join

    left, right = _range_frames()
    right = right.rename(columns={"tag": "event_id"})  # collides with left
    with pytest.raises(ValueError, match="collide"):
        range_join(ray.data.from_pandas(left), ray.data.from_pandas(right),
                   key="user_id", ts="ts", start="t0", end="t1",
                   right_cols=["event_id"])


def test_asof_join_rejects_key_in_right_cols(ray_session):
    left, right = _asof_frames()
    with pytest.raises(ValueError, match="right_cols"):
        asof_join(ray.data.from_pandas(left), ray.data.from_pandas(right),
                  key="user_id", ts="ts", right_cols=["user_id"])


@pytest.mark.parametrize("nb", [1, 7])
def test_lead_lag(ray_session, in_blocks, nb):
    from zeeklog_ray.ops.sessionize import lead_lag

    t = pd.Timestamp("2024-01-01")
    df = pd.DataFrame({
        "user_id": [1, 1, 1, 2, None],
        "ts": [t, t + pd.Timedelta(minutes=5), t + pd.Timedelta(hours=1),
               t, t + pd.Timedelta(minutes=1)],
        "event_id": [10, 11, 12, 20, 30],
    })
    out = lead_lag(in_blocks(df, nb),
                   key="user_id", ts="ts",
                   order_extra=["event_id"]).to_pandas() \
        .sort_values("event_id").reset_index(drop=True)
    # user 1: chain of 3; user 2: singleton; null key: no sequence
    assert out.loc[0, "prev_ts"] is pd.NaT
    assert out.loc[0, "next_ts"] == t + pd.Timedelta(minutes=5)
    assert out.loc[1, "prev_ts"] == t
    assert out.loc[2, "next_ts"] is pd.NaT
    assert out.loc[3, "prev_ts"] is pd.NaT and out.loc[3, "next_ts"] is pd.NaT
    assert out.loc[4, "prev_ts"] is pd.NaT and out.loc[4, "next_ts"] is pd.NaT
    assert "_bucket" not in out.columns


def test_lead_lag_tie_break_deterministic(ray_session):
    from zeeklog_ray.ops.sessionize import lead_lag

    t = pd.Timestamp("2024-01-01")
    df = pd.DataFrame({"user_id": [1, 1], "ts": [t, t], "event_id": [2, 1]})
    for parts in (1, 2):
        out = lead_lag(ray.data.from_pandas(df).repartition(parts),
                       key="user_id", ts="ts", order_extra=["event_id"]) \
            .to_pandas().sort_values("event_id").reset_index(drop=True)
        # event 1 precedes event 2 (ts tie broken by event_id)
        assert out.loc[0, "prev_ts"] is pd.NaT
        assert out.loc[0, "next_ts"] == t
        assert out.loc[1, "prev_ts"] == t


def test_time_decayed_sum_closed_form(ray_session):
    from zeeklog_ray.ops.streaming import time_decayed_sum

    base = pd.Timestamp("2024-06-10 00:00:00")
    df = pd.DataFrame({
        "user_id": [1, 1, 1, 2, 2],
        "ts": [base - pd.Timedelta(days=2), base - pd.Timedelta(days=1),
               base, base, base + pd.Timedelta(hours=1)],
        "value": [8.0, 4.0, 2.0, 10.0, 99.0],
    })
    out = time_decayed_sum(ray.data.from_pandas(df).repartition(3),
                           key="user_id", ts="ts", value="value",
                           half_life_s=86_400.0, t_ref=base).to_pandas() \
        .set_index("user_id").sort_index()
    # user 1: 8*2^-2 + 4*2^-1 + 2*2^0 = 6.0 (exact powers of two)
    assert out.loc[1, "decayed_sum"] == 6.0
    assert out.loc[1, "n_events"] == 3
    # user 2: the future event (ts > t_ref) is excluded
    assert out.loc[2, "decayed_sum"] == 10.0
    assert out.loc[2, "n_events"] == 1


def test_trailing_deviation_hand_computed(ray_session):
    """Planted spike over a flat series: window truncation at the key
    start, exact integer spike score, per-key isolation, and
    block-layout invariance."""
    import ray.data

    from zeeklog_ray.ops.streaming import trailing_deviation

    df = pd.DataFrame({
        "k": ["a"] * 6 + ["b"] * 3,
        "hour": [f"h{i}" for i in range(6)] + [f"h{i}" for i in range(3)],
        "n": [10, 10, 10, 10, 50, 10,      # spike at h4
              7, 7, 7],
    })
    out = trailing_deviation(ray.data.from_pandas(df).repartition(4),
                             key="k", order="hour", value="n",
                             window=3).to_pandas() \
        .set_index(["k", "hour"]).sort_index()
    # a/h0: no history
    assert tuple(out.loc[("a", "h0")][["trail_sum", "trail_cnt",
                                       "spike_e4"]]) == (0, 0, 0)
    # a/h2: truncated window of 2
    assert tuple(out.loc[("a", "h2")][["trail_sum", "trail_cnt"]]) == (20, 2)
    # a/h4 spike: trail = [10,10,10] -> num = 50*3-30 = 120
    #   spike = 120*10^4 // 30 = 40000
    row = out.loc[("a", "h4")]
    assert (row["trail_sum"], row["trail_cnt"], row["spike_e4"]) \
        == (30, 3, 40_000)
    # a/h5 below the (spike-inflated) mean -> clamped to 0
    assert out.loc[("a", "h5"), "spike_e4"] == 0
    # key b is isolated from key a's history
    assert tuple(out.loc[("b", "h0")][["trail_sum", "trail_cnt",
                                       "spike_e4"]]) == (0, 0, 0)
    assert tuple(out.loc[("b", "h2")][["trail_sum", "spike_e4"]]) == (14, 0)

    # block-layout invariance
    rowwise = ray.data.from_pandas([df.iloc[[i]] for i in range(len(df))])
    out2 = trailing_deviation(rowwise, key="k", order="hour", value="n",
                              window=3).to_pandas() \
        .set_index(["k", "hour"]).sort_index()
    pd.testing.assert_frame_equal(out, out2)
