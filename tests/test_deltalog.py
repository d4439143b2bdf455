"""Merge-on-read delta log: append economics, merge semantics
(latest-wins, sequence tie-break, tombstones), base invisibility,
fold-down compaction and crash recovery
(zeeklog_ray/partitioned.py append_deltas/read_merged/compact_deltas)."""
import json
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture
def base_store(ray_session, tmp_path):
    import ray.data

    from zeeklog_ray.partitioned import write_partitioned

    df = pd.DataFrame({
        "k": range(60),
        "day": [f"2024-06-{1 + i % 3:02d}" for i in range(60)],
        "v": [i * 2 for i in range(60)],
        "ver": 0,
    })
    root = str(tmp_path / "store")
    write_partitioned(ray.data.from_pandas(df).repartition(3),
                      root, ["day"])
    return root, df


def _merged(root):
    from zeeklog_ray.partitioned import read_merged

    got = read_merged(root, key="k", order_col="ver",
                      deleted_col="deleted").to_pandas()
    return got.sort_values("k").reset_index(drop=True)


def test_delta_append_merge_and_base_invisibility(base_store, ray_session):
    import ray.data

    from zeeklog_ray.partitioned import append_deltas

    root, base = base_store
    # batch 1: update k%10==0 (ver 1), insert k=900
    b1 = pd.DataFrame({
        "k": [0, 10, 20, 30, 40, 50, 900],
        "day": [f"2024-06-{1 + k % 3:02d}" for k in
                [0, 10, 20, 30, 40, 50]] + ["2024-06-01"],
        "v": [111] * 6 + [9], "ver": 1, "deleted": False})
    rep1 = append_deltas(root, ray.data.from_pandas(b1), part_col="day")
    assert (rep1["seq"] == 1).all() and rep1["rows"].sum() == 7
    # batch 2: SAME ver ties on k=0 and 30 (must win by sequence),
    # tombstone k=7
    b2 = pd.DataFrame({
        "k": [0, 30, 7],
        "day": ["2024-06-01", "2024-06-01", "2024-06-02"],
        "v": [222, 222, 0], "ver": [1, 1, 2],
        "deleted": [False, False, True]})
    rep2 = append_deltas(root, ray.data.from_pandas(b2), part_col="day")
    assert (rep2["seq"] == 2).all()

    got = _merged(root)
    assert 7 not in set(got["k"])                    # tombstoned
    assert got.set_index("k").loc[0, "v"] == 222     # seq tie-break
    assert got.set_index("k").loc[30, "v"] == 222
    assert got.set_index("k").loc[10, "v"] == 111    # batch-1 update
    assert got.set_index("k").loc[900, "v"] == 9     # insert
    assert got.set_index("k").loc[1, "v"] == 2       # untouched base row
    assert len(got) == 60 - 1 + 1
    # partition column re-attached from the directory name
    assert (got.loc[got["k"] == 900, "day"] == "2024-06-01").all()

    # deltas are INVISIBLE to plain parquet readers: base unchanged
    plain = ray.data.read_parquet(root).to_pandas()
    assert len(plain) == 60 and 900 not in set(plain["k"])
    assert (plain.sort_values("k")["v"].to_numpy()
            == base.sort_values("k")["v"].to_numpy()).all()


def test_compact_deltas_folds_and_is_idempotent(base_store, ray_session):
    import ray.data

    from zeeklog_ray.partitioned import append_deltas, compact_deltas

    root, base = base_store
    b1 = pd.DataFrame({"k": [0, 5], "day": ["2024-06-01", "2024-06-03"],
                       "v": [77, 0], "ver": [1, 1],
                       "deleted": [False, True]})
    append_deltas(root, ray.data.from_pandas(b1), part_col="day")
    before = _merged(root)
    rep = compact_deltas(root, key="k", order_col="ver",
                         deleted_col="deleted")
    assert rep["deltas_folded"].sum() == 2            # 2 touched dirs
    # after folding the PLAIN read equals the merged view
    plain = ray.data.read_parquet(root).to_pandas() \
        .sort_values("k").reset_index(drop=True)
    plain["day"] = plain["day"].astype(str)
    cols = ["k", "day", "v", "ver"]
    pd.testing.assert_frame_equal(
        plain[cols].astype({"v": "int64"}),
        before[cols].astype({"v": "int64"}))
    # no pending deltas remain; second fold is metadata-only
    rep2 = compact_deltas(root, key="k", order_col="ver",
                          deleted_col="deleted")
    assert rep2["deltas_folded"].sum() == 0
    assert rep2["rows"].sum() == len(before)


def test_compact_deltas_crash_recovery(tmp_path):
    """Torn journal → rollback keeps base+deltas and the merge view is
    unchanged; committed journal → roll forward swaps base AND removes
    the folded delta files."""
    from zeeklog_ray.partitioned import _merged_partition_table

    d = str(tmp_path / "day=d")
    os.makedirs(os.path.join(d, "_deltas"))
    pq.write_table(pa.table({"k": [1, 2], "v": [10, 20], "ver": [0, 0]}),
                   os.path.join(d, "a.parquet"))
    pq.write_table(pa.table({"k": [1], "v": [99], "ver": [1]}),
                   os.path.join(d, "_deltas", "delta-000001-0000.parquet"))
    merged = pa.table({"k": [2, 1], "v": [20, 99], "ver": [0, 1]})
    pq.write_table(merged, os.path.join(d, "fold-dead.parquet.tmp"))
    with open(os.path.join(d, "_compaction.journal"), "w") as f:
        f.write('{"olds": ["a.par')                   # torn mid-write
    got = _merged_partition_table(d, "k", "ver", None)
    assert got.set_index("k")["v"].to_dict() == {1: 99, 2: 20}
    assert os.path.exists(os.path.join(d, "a.parquet"))

    # now a COMMITTED journal: roll-forward must land the fold
    pq.write_table(merged, os.path.join(d, "fold-dead.parquet.tmp"))
    with open(os.path.join(d, "_compaction.journal"), "w") as f:
        json.dump({"olds": ["a.parquet",
                            "_deltas/delta-000001-0000.parquet"],
                   "news": ["fold-dead.parquet"]}, f)
    from zeeklog_ray.partitioned import _recover_compaction

    _recover_compaction(d)
    assert sorted(f for f in os.listdir(d) if f.endswith(".parquet")) \
        == ["fold-dead.parquet"]
    assert os.listdir(os.path.join(d, "_deltas")) == []
    got = _merged_partition_table(d, "k", "ver", None)
    assert got.set_index("k")["v"].to_dict() == {1: 99, 2: 20}


def test_leftover_delta_reapplication_is_idempotent(tmp_path):
    """A delta that survived its own fold (crash window between base
    swap and delta delete in an EXTERNAL copy of the protocol) must not
    change the merged view when re-applied."""
    from zeeklog_ray.partitioned import _merged_partition_table

    d = str(tmp_path / "day=d")
    os.makedirs(os.path.join(d, "_deltas"))
    # base ALREADY contains the folded result
    pq.write_table(pa.table({"k": [1, 2], "v": [99, 20], "ver": [1, 0]}),
                   os.path.join(d, "base.parquet"))
    pq.write_table(pa.table({"k": [1], "v": [99], "ver": [1]}),
                   os.path.join(d, "_deltas", "delta-000001-0000.parquet"))
    got = _merged_partition_table(d, "k", "ver", None)
    assert got.set_index("k")["v"].to_dict() == {1: 99, 2: 20}


def test_time_travel_snapshots(base_store, ray_session):
    import ray.data

    from zeeklog_ray.partitioned import append_deltas, read_merged

    root, base = base_store
    b1 = pd.DataFrame({"k": [0], "day": ["2024-06-01"], "v": [111],
                       "ver": [1], "deleted": [False]})
    append_deltas(root, ray.data.from_pandas(b1), part_col="day")
    b2 = pd.DataFrame({"k": [0, 7], "day": ["2024-06-01", "2024-06-02"],
                       "v": [222, 0], "ver": [2, 2],
                       "deleted": [False, True]})
    append_deltas(root, ray.data.from_pandas(b2), part_col="day")

    def snap(s):
        got = read_merged(root, key="k", order_col="ver",
                          deleted_col="deleted", as_of_seq=s).to_pandas()
        return got.set_index("k")["v"].to_dict(), len(got)

    v0, n0 = snap(0)
    assert v0[0] == 0 and v0[7] == 14 and n0 == 60   # base snapshot
    v1, n1 = snap(1)
    assert v1[0] == 111 and v1[7] == 14 and n1 == 60  # batch 1 only
    v2, n2 = snap(2)
    assert v2[0] == 222 and 7 not in v2 and n2 == 59  # current
    vN, nN = snap(None)
    assert vN == v2 and nN == n2                      # None = current


def test_time_travel_ends_at_compaction(base_store, ray_session):
    import ray.data

    from zeeklog_ray.partitioned import (
        append_deltas,
        compact_deltas,
        read_merged,
    )

    root, _ = base_store
    b1 = pd.DataFrame({"k": [0], "day": ["2024-06-01"], "v": [111],
                       "ver": [1], "deleted": [False]})
    append_deltas(root, ray.data.from_pandas(b1), part_col="day")
    compact_deltas(root, key="k", order_col="ver", deleted_col="deleted")
    # history folded: the "base" snapshot now already contains batch 1
    got = read_merged(root, key="k", order_col="ver",
                      deleted_col="deleted", as_of_seq=0).to_pandas()
    assert got.set_index("k").loc[0, "v"] == 111


def test_vacuum_store_accounting_and_safety(base_store, ray_session, tmp_path):
    import ray.data

    from zeeklog_ray.partitioned import (
        append_deltas,
        read_merged,
        vacuum_store,
    )

    root, base = base_store
    b1 = pd.DataFrame({"k": [0], "day": ["2024-06-01"], "v": [111],
                       "ver": [1], "deleted": [False]})
    append_deltas(root, ray.data.from_pandas(b1), part_col="day")
    before = read_merged(root, key="k", order_col="ver",
                         deleted_col="deleted").to_pandas() \
        .sort_values("k").reset_index(drop=True)

    victim = os.path.join(root, "day=2024-06-02")
    # litter: staging trees + orphan tmps + torn journal + journal tmp
    sdir = os.path.join(root, "_upsert_staging_x", "day=1970-01-01")
    os.makedirs(sdir)
    pq.write_table(pa.table({"k": [1]}), os.path.join(sdir, "a.parquet"))
    os.makedirs(os.path.join(root, "_delta_staging_y"))
    pq.write_table(pa.table({"k": [1]}),
                   os.path.join(victim, "upsert-dead.parquet.tmp"))
    with open(os.path.join(victim, "_compaction.journal"), "w") as f:
        f.write('{"olds": ["torn')
    with open(os.path.join(victim, "x.journal.tmp"), "w") as f:
        f.write("{}")

    rep = vacuum_store(root)
    assert rep["staging_dirs"] == 2
    # both tmps count even though recovery's rollback deleted one of them
    assert rep["tmp_files"] == 2
    assert rep["bytes_reclaimed"] > 0
    assert rep["partitions"] == 3
    # committed content untouched
    after = read_merged(root, key="k", order_col="ver",
                        deleted_col="deleted").to_pandas() \
        .sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(before, after)
    # healthy store → vacuum is a no-op
    rep2 = vacuum_store(root)
    assert rep2["staging_dirs"] == rep2["tmp_files"] == 0
    assert rep2["bytes_reclaimed"] == 0


def test_vacuum_rolls_committed_journal_forward_not_reclaimed(tmp_path):
    """A COMMITTED journal's tmp is a pending commit, not garbage:
    vacuum must land it (rename into place) and count nothing."""
    from zeeklog_ray.partitioned import vacuum_store

    root = str(tmp_path / "store")
    d = os.path.join(root, "day=d")
    os.makedirs(d)
    pq.write_table(pa.table({"k": [1], "v": [10]}),
                   os.path.join(d, "a.parquet"))
    pq.write_table(pa.table({"k": [1], "v": [99]}),
                   os.path.join(d, "compact-x.parquet.tmp"))
    with open(os.path.join(d, "_compaction.journal"), "w") as f:
        json.dump({"olds": ["a.parquet"], "news": ["compact-x.parquet"]}, f)
    rep = vacuum_store(root)
    assert rep["tmp_files"] == 0 and rep["bytes_reclaimed"] == 0
    assert sorted(os.listdir(d)) == ["compact-x.parquet"]
    assert pq.read_table(os.path.join(d, "compact-x.parquet"))["v"][0] \
        .as_py() == 99


def test_refresh_group_sums_incremental(base_store, ray_session, tmp_path):
    import ray.data

    from zeeklog_ray.partitioned import (
        append_deltas,
        read_group_sums,
        refresh_group_sums,
    )

    root, base = base_store
    agg = str(tmp_path / "agg")
    # base rows need a group column: rebuild store WITH one
    import shutil

    from zeeklog_ray.partitioned import write_partitioned

    shutil.rmtree(root)
    df = base.assign(g=base["k"] % 2)
    write_partitioned(ray.data.from_pandas(df).repartition(3),
                      root, ["day"])
    full = refresh_group_sums(root, agg, key="k", order_col="ver",
                              group_cols=["g"], sum_cols=["v"],
                              deleted_col="deleted")
    assert len(full) == 3            # one report row per partition
    files = sorted(os.listdir(agg))
    assert files == ["day=2024-06-01.parquet", "day=2024-06-02.parquet",
                     "day=2024-06-03.parquet"]

    def rollup():
        got = read_group_sums(agg).to_pandas()
        return got.groupby("g")[["sum_v", "n"]].sum() \
            .astype("int64").sort_index()

    r0 = rollup()
    assert r0.loc[0, "sum_v"].item() == sum(i * 2 for i in range(0, 60, 2))
    assert r0["n"].sum().item() == 60

    # CDC batch touches ONE partition; refresh only it
    b1 = pd.DataFrame({"k": [0, 3], "day": ["2024-06-01", "2024-06-01"],
                       "v": [1000, 0], "ver": [1, 1], "g": [0, 1],
                       "deleted": [False, True]})
    rep = append_deltas(root, ray.data.from_pandas(b1), part_col="day")
    untouched = os.path.join(agg, "day=2024-06-02.parquet")
    mtime_before = os.path.getmtime(untouched)
    incr = refresh_group_sums(root, agg, key="k", order_col="ver",
                              group_cols=["g"], sum_cols=["v"],
                              deleted_col="deleted",
                              parts=rep["dir"].tolist())
    assert len(incr) == 1
    assert os.path.getmtime(untouched) == mtime_before  # never rewritten
    r1 = rollup()
    assert r1.loc[0, "sum_v"].item() == r0.loc[0, "sum_v"].item() - 0 + 1000
    assert r1.loc[1, "sum_v"].item() == r0.loc[1, "sum_v"].item() - 6
    assert r1["n"].sum().item() == 59  # one tombstone

    # incremental result equals recompute-from-scratch
    agg2 = str(tmp_path / "agg2")
    refresh_group_sums(root, agg2, key="k", order_col="ver",
                       group_cols=["g"], sum_cols=["v"],
                       deleted_col="deleted")
    got2 = read_group_sums(agg2).to_pandas().groupby("g")[["sum_v", "n"]] \
        .sum().astype("int64").sort_index()
    pd.testing.assert_frame_equal(r1, got2)

    with pytest.raises(ValueError, match="unknown partitions"):
        refresh_group_sums(root, agg, key="k", order_col="ver",
                           group_cols=["g"], sum_cols=["v"],
                           parts=["day=2099-01-01"])


def test_torn_append_invisible_and_vacuumed(base_store, ray_session):
    """Delta files above the committed _delta_seq counter are a torn
    batch: invisible to read_merged, never folded by compact_deltas,
    reclaimed by vacuum_store."""
    import ray.data

    from zeeklog_ray.partitioned import (
        append_deltas,
        compact_deltas,
        read_merged,
        vacuum_store,
    )

    root, _ = base_store
    b1 = pd.DataFrame({"k": [0], "day": ["2024-06-01"], "v": [111],
                       "ver": [1], "deleted": [False]})
    append_deltas(root, ray.data.from_pandas(b1), part_col="day")
    # simulate a torn batch: seq 2 files exist, counter still says 1
    ddir = os.path.join(root, "day=2024-06-02", "_deltas")
    os.makedirs(ddir, exist_ok=True)
    pq.write_table(pa.table({"k": [1], "v": [666], "ver": [9],
                             "deleted": [False]}),
                   os.path.join(ddir, "delta-000002-0000.parquet"))

    got = _merged(root)
    assert got.set_index("k").loc[1, "v"] == 2      # torn row invisible
    assert got.set_index("k").loc[0, "v"] == 111    # committed row applied

    rep = compact_deltas(root, key="k", order_col="ver",
                         deleted_col="deleted")
    assert rep["deltas_folded"].sum() == 1          # only the committed one
    assert os.path.exists(os.path.join(ddir, "delta-000002-0000.parquet"))

    vrep = vacuum_store(root)
    assert vrep["torn_delta_files"] == 1
    assert not os.path.exists(os.path.join(ddir,
                                           "delta-000002-0000.parquet"))
    got2 = _merged(root)
    assert got2.set_index("k").loc[1, "v"] == 2


def test_retried_append_discards_torn_batch(base_store, ray_session):
    """A crash between the file moves and the counter advance leaves a
    torn batch at seq committed+1.  The retried append reuses that seq;
    it must delete the torn files first, or the ones it does not
    overwrite (other partitions, higher file indices) commit with it as
    ghost rows.  The merged view equals a pandas replay of the committed
    batches only."""
    import ray.data

    from zeeklog_ray.partitioned import append_deltas

    root, base = base_store
    b1 = pd.DataFrame({"k": [0], "day": ["2024-06-01"], "v": [111],
                       "ver": [1], "deleted": [False]})
    append_deltas(root, ray.data.from_pandas(b1), part_col="day")
    # torn seq-2 batch: two files in 06-01, one in 06-02; counter says 1
    torn = {("2024-06-01", 0): (3, 555), ("2024-06-01", 1): (9, 777),
            ("2024-06-02", 0): (1, 666)}
    for (day, i), (k, v) in torn.items():
        ddir = os.path.join(root, f"day={day}", "_deltas")
        os.makedirs(ddir, exist_ok=True)
        pq.write_table(pa.table({"k": [k], "v": [v], "ver": [9],
                                 "deleted": [False]}),
                       os.path.join(ddir, f"delta-000002-{i:04d}.parquet"))
    # the retry touches only 06-01 and writes a single file
    b2 = pd.DataFrame({"k": [6], "day": ["2024-06-01"], "v": [333],
                       "ver": [1], "deleted": [False]})
    rep = append_deltas(root, ray.data.from_pandas(b2), part_col="day")
    assert rep["seq"].tolist() == [2] and rep["files"].tolist() == [1]

    replay = pd.concat([base.assign(deleted=False), b1, b2],
                       ignore_index=True)
    replay = replay.sort_values("ver", kind="stable").groupby("k").tail(1)
    exp = replay[~replay["deleted"]].sort_values("k")[["k", "v"]] \
        .reset_index(drop=True)
    got = _merged(root)[["k", "v"]]
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def _tiny_store(tmp_path, counter: str) -> tuple[str, str]:
    """One partition with a base file, a seq-2 delta file and the given
    ``_delta_seq`` counter text; returns (root, delta path)."""
    root = str(tmp_path / "store")
    ddir = os.path.join(root, "day=d", "_deltas")
    os.makedirs(ddir)
    pq.write_table(pa.table({"k": [1], "v": [10]}),
                   os.path.join(root, "day=d", "a.parquet"))
    delta = os.path.join(ddir, "delta-000002-0000.parquet")
    pq.write_table(pa.table({"k": [1], "v": [99]}), delta)
    with open(os.path.join(root, "_delta_seq"), "w") as f:
        f.write(counter)
    return root, delta


def test_vacuum_corrupt_delta_seq_skips_torn_cleanup(tmp_path):
    """An unreadable counter cannot tell torn from committed deltas:
    vacuum keeps every delta file and still reclaims the other litter."""
    from zeeklog_ray.partitioned import vacuum_store

    root, delta = _tiny_store(tmp_path, "not-a-number")
    os.makedirs(os.path.join(root, "_delta_staging_y"))
    rep = vacuum_store(root)
    assert rep["torn_delta_files"] == 0
    assert rep["staging_dirs"] == 1
    assert os.path.exists(delta)


def test_vacuum_reclaims_orphan_seq_tmp(tmp_path):
    """A crash inside _advance_store_delta_seq leaves a root-level
    ``*.seq.tmp``; vacuum reclaims it and leaves the counter alone."""
    from zeeklog_ray.partitioned import vacuum_store

    root, delta = _tiny_store(tmp_path, "2")
    orphan = os.path.join(root, "tmpdead.seq.tmp")
    with open(orphan, "w") as f:
        f.write("3")
    rep = vacuum_store(root)
    assert rep["tmp_files"] == 1 and rep["bytes_reclaimed"] == 1
    assert rep["torn_delta_files"] == 0
    assert not os.path.exists(orphan) and os.path.exists(delta)
    with open(os.path.join(root, "_delta_seq")) as f:
        assert f.read() == "2"
    assert vacuum_store(root)["tmp_files"] == 0


def test_vacuum_reclaims_orphan_manifest_tmp(tmp_path):
    """A crash inside rebuild_zonemap_manifest leaves a ``*.json.tmp``
    in a zonemapped partition; vacuum reclaims it like every ``*.tmp``
    and keeps the manifest it would have replaced."""
    from zeeklog_ray.partitioned import vacuum_store

    root = str(tmp_path / "store")
    d = os.path.join(root, "day=a")
    os.makedirs(d)
    pq.write_table(pa.table({"k": [1], "v": [10]}),
                   os.path.join(d, "a.parquet"))
    with open(os.path.join(d, "manifest.json"), "w") as f:
        f.write('{"col": "k", "files": []}')
    orphan = os.path.join(d, "tmpX.json.tmp")
    with open(orphan, "w") as f:
        f.write('{"col": "k", "fi')
    rep = vacuum_store(root)
    assert rep["tmp_files"] == 1 and rep["bytes_reclaimed"] == 16
    assert not os.path.exists(orphan)
    assert sorted(os.listdir(d)) == ["a.parquet", "manifest.json"]
    assert vacuum_store(root)["tmp_files"] == 0


def test_global_seq_survives_fold_and_crash_rebuild(base_store, ray_session):
    import ray.data

    from zeeklog_ray.partitioned import (
        _store_delta_seq,
        append_deltas,
        compact_deltas,
    )

    root, _ = base_store
    b = pd.DataFrame({"k": [0], "day": ["2024-06-01"], "v": [1],
                      "ver": [1], "deleted": [False]})
    r1 = append_deltas(root, ray.data.from_pandas(b), part_col="day")
    b2 = b.assign(day="2024-06-02", ver=2)
    r2 = append_deltas(root, ray.data.from_pandas(b2), part_col="day")
    # global: batch 2 touched a DIFFERENT partition but still got seq 2
    assert (r1["seq"] == 1).all() and (r2["seq"] == 2).all()
    compact_deltas(root, key="k", order_col="ver", deleted_col="deleted")
    # counter survives the fold — snapshot ids stay monotonic
    assert _store_delta_seq(root) == 2
    r3 = append_deltas(root, ray.data.from_pandas(b2.assign(ver=3)),
                       part_col="day")
    assert (r3["seq"] == 3).all()
    # lost counter file → rebuilt from the walk over remaining deltas
    os.remove(os.path.join(root, "_delta_seq"))
    assert _store_delta_seq(root) == 3


def test_read_evolved(ray_session, tmp_path):
    """Schema-on-read: rename, typed default, int widening, hive
    partition re-attach, null fill, guards."""
    from zeeklog_ray.partitioned import read_evolved

    root = str(tmp_path / "store")
    os.makedirs(os.path.join(root, "day=d1"))
    os.makedirs(os.path.join(root, "day=d2", "_deltas"))
    # v1 file: old name `val32` (int32), no `tag`
    pq.write_table(
        pa.table({"k": pa.array([1, 2], type=pa.int32()),
                  "val32": pa.array([10, 20], type=pa.int32())}),
        os.path.join(root, "day=d1", "old.parquet"))
    # v2 file: current names, already int64, has tag
    pq.write_table(
        pa.table({"k": pa.array([3], type=pa.int64()),
                  "v": pa.array([30], type=pa.int64()),
                  "tag": ["x"], "extra_dropped": [99]}),
        os.path.join(root, "day=d2", "new.parquet"))
    # delta-log / hidden files must be ignored by discovery
    pq.write_table(pa.table({"k": [9]}),
                   os.path.join(root, "day=d2", "_deltas", "d.parquet"))

    target = pa.schema([("k", pa.int64()), ("v", pa.int64()),
                        ("tag", pa.string()), ("day", pa.string()),
                        ("maybe", pa.float64())])
    got = read_evolved(root, target, renames={"val32": "v"},
                       defaults={"tag": "legacy"}).to_pandas() \
        .sort_values("k").reset_index(drop=True)
    assert list(got.columns) == ["k", "v", "tag", "day", "maybe"]
    assert got["k"].tolist() == [1, 2, 3]            # widened, no torn/delta
    assert got["v"].tolist() == [10, 20, 30]         # renamed + widened
    assert got["tag"].tolist() == ["legacy", "legacy", "x"]
    assert got["day"].tolist() == ["d1", "d1", "d2"]  # hive re-attach
    assert got["maybe"].isna().all()                 # absent → nulls
    assert got["k"].dtype == "int64" and got["v"].dtype == "int64"

    with pytest.raises(ValueError, match="not in target"):
        read_evolved(root, target, defaults={"ghost": 1})
    # lossy mismatch raises rather than corrupts: string → int64
    bad = pa.schema([("tag", pa.int64())])
    import ray.exceptions
    with pytest.raises(Exception):
        read_evolved(root, bad).to_pandas()


def test_store_lifecycle_e2e(base_store, ray_session, tmp_path):
    """The whole table-format family composed: CDC appends → IVM
    refresh per batch → time-travel audit → fold-down compaction →
    vacuum → schema-evolved read of the SAME store."""
    import ray.data

    from zeeklog_ray.partitioned import (
        append_deltas,
        compact_deltas,
        read_evolved,
        read_group_sums,
        read_merged,
        refresh_group_sums,
        vacuum_store,
    )

    root, base = base_store
    agg = str(tmp_path / "agg")
    refresh_group_sums(root, agg, key="k", order_col="ver",
                       group_cols=["ver"], sum_cols=["v"],
                       deleted_col="deleted")
    totals = []
    for i in (1, 2, 3):  # three CDC micro-batches
        day = f"2024-06-{1 + i % 3:02d}"  # k and 30+k share k%3's day
        b = pd.DataFrame({"k": [i, 30 + i], "day": [day, day],
                          "v": [1000 * i, 0], "ver": [i, i],
                          "deleted": [False, True]})
        rep = append_deltas(root, ray.data.from_pandas(b), part_col="day")
        refresh_group_sums(root, agg, key="k", order_col="ver",
                           group_cols=["ver"], sum_cols=["v"],
                           deleted_col="deleted",
                           parts=rep["dir"].tolist())
        g = read_group_sums(agg).to_pandas()
        totals.append((int(g["sum_v"].sum()), int(g["n"].sum())))
    # each batch: one update (+1000i - old v) and one tombstone (-v, -1 row)
    assert totals[0][1] == 59 and totals[2][1] == 57
    # the maintained aggregate equals the merged view at every step
    cur = read_merged(root, key="k", order_col="ver",
                      deleted_col="deleted").to_pandas()
    assert (int(cur["v"].sum()), len(cur)) == totals[2]
    # time travel: snapshot 1 has exactly one update applied
    s1 = read_merged(root, key="k", order_col="ver",
                     deleted_col="deleted", as_of_seq=1).to_pandas()
    assert s1.set_index("k").loc[1, "v"] == 1000
    assert s1.set_index("k").loc[2, "v"] == 4       # batch 2 not yet
    assert 31 not in s1.set_index("k").index        # batch-1 tombstone
    # fold + vacuum: plain read now equals the merged view, no litter
    compact_deltas(root, key="k", order_col="ver", deleted_col="deleted")
    vacuum_store(root)
    plain = ray.data.read_parquet(root).to_pandas()
    assert (int(plain["v"].sum()), len(plain)) == totals[2]
    # evolved read over the SAME store: add a column with a default
    target = pa.schema([("k", pa.int64()), ("v", pa.int64()),
                        ("day", pa.string()), ("lang", pa.string())])
    ev = read_evolved(root, target, defaults={"lang": "und"}).to_pandas()
    assert len(ev) == totals[2][1] and (ev["lang"] == "und").all()
    assert set(ev["day"]) == {"2024-06-01", "2024-06-02", "2024-06-03"}
