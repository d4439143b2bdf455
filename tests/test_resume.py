"""Checkpoint / lineage / resume: interrupted run re-emits no rows."""

import glob
import json
import os

import pytest

from zeeklog_ray.lineage import ResumableRun, committed_shards
from zeeklog_ray.pipeline import PipelineConfig


def test_resume_no_duplicates(corpus_dir, corpus_frame, tmp_path):
    out = str(tmp_path / "routed")
    rr = ResumableRun(PipelineConfig(corpus_dir=corpus_dir), out, files_per_shard=1)
    n_shards = len(rr.shards())
    assert n_shards >= 3

    # kill mid-run after 2 shards
    with pytest.raises(RuntimeError, match="simulated failure"):
        rr.run(fail_after_shards=2)
    assert len(committed_shards(out)) == 2

    # resume: only uncommitted shards run
    recs = rr.run()
    assert len(recs) == n_shards - 2
    assert committed_shards(out) == set(range(n_shards))

    # no duplicate doc_id anywhere; full doc_id coverage
    back = rr.committed_output().to_pandas()
    assert back["doc_id"].is_unique
    assert set(back["doc_id"]) == set(corpus_frame["doc_id"])


@pytest.mark.parametrize("call_bytes", [None, 64 << 10])
def test_committed_output_matches_committed_files(
        corpus_dir, check_routed_read, tmp_path, monkeypatch, call_bytes):
    """After a kill and a resume, ``committed_output`` holds exactly the
    rows of the committed shards' part files (per ``doc_id``: same rows,
    same column set, identical ``tokens``), with ``shard`` and ``sink``
    as strings; an uncommitted partial ``shard=`` dir is not read.  With
    a small ``CALL_BYTES`` each shard becomes several tasks and the
    result is the same."""
    import shutil

    import pyarrow as pa
    import ray

    from zeeklog_ray import flagship

    out = str(tmp_path / "routed")
    rr = ResumableRun(PipelineConfig(corpus_dir=corpus_dir, enrich=True),
                      out, files_per_shard=1)
    with pytest.raises(RuntimeError, match="simulated failure"):
        rr.run(fail_after_shards=1)
    rr.run()
    done = sorted(committed_shards(out))
    # a partial of a shard that never committed: a copy of shard 0's rows
    shutil.copytree(os.path.join(out, "shard=00000"),
                    os.path.join(out, "shard=00099"))
    dirs = [os.path.join(out, f"shard={i:05d}") for i in done]

    if call_bytes is not None:
        monkeypatch.setattr(flagship, "CALL_BYTES", call_bytes)
    n_tasks = len(flagship._routed_tasks(dirs)[1])
    assert (n_tasks == len(done)) == (call_bytes is None)
    blocks = ray.get(rr.committed_output().to_arrow_refs())
    assert len(blocks) == n_tasks
    got = pa.concat_tables(blocks)
    for c in ("shard", "sink"):
        assert got.schema.field(c).type == pa.string()
    assert set(got["shard"].to_pylist()) == {f"{i:05d}" for i in done}
    check_routed_read(got, dirs)


def test_invalid_manifest_is_uncommitted_for_every_reader(corpus_dir,
                                                          tmp_path):
    """A torn manifest record and one without ``shard_id`` count as
    uncommitted in ``committed_stats``, ``committed_output`` and ``run``
    alike: the stats and the output cover the other shards, and the next
    run re-runs the torn shard only."""
    out = str(tmp_path / "routed")
    rr = ResumableRun(PipelineConfig(corpus_dir=corpus_dir), out,
                      files_per_shard=1)
    full = rr.run()
    assert len(full) >= 3
    mdir = os.path.join(out, "_manifest")
    with open(os.path.join(mdir, "shard-00001.json"), "w") as f:
        f.write('{"shard_id": 1, "rows_per')               # torn
    with open(os.path.join(mdir, "shard-00042.json"), "w") as f:
        json.dump({"rows_per_sink": {"conn": 1}}, f)       # no shard_id
    kept = [r for r in full if r["shard_id"] != 1]

    stats = rr.committed_stats()
    assert stats["committed_shards"] == len(kept)
    assert sum(stats["rows_per_sink"].values()) \
        == sum(sum(r["rows_per_sink"].values()) for r in kept)
    back = rr.committed_output().to_pandas()
    assert set(back["shard"]) == {f"{r['shard_id']:05d}" for r in kept}
    assert len(back) == sum(stats["rows_per_sink"].values())
    assert [r["shard_id"] for r in rr.run()] == [1]


def test_committed_output_with_empty_shards(corpus_dir, tmp_path):
    """A committed shard whose filter kept no rows writes no ``shard=``
    dir; the read-back covers the other shards instead of failing."""
    from zeeklog_ray.corpus import GOLDEN_IP_0702_ONLY

    out = str(tmp_path / "routed")
    rr = ResumableRun(PipelineConfig(corpus_dir=corpus_dir,
                                     src_ip=GOLDEN_IP_0702_ONLY),
                      out, files_per_shard=1)
    rr.run()
    assert len(committed_shards(out)) > len(glob.glob(
        os.path.join(out, "shard=*")))
    back = rr.committed_output().to_pandas()
    assert len(back) == sum(rr.committed_stats()["rows_per_sink"].values())
    assert len(back) > 0


def test_resume_zeek_tsv_no_duplicates(tmp_path):
    """Raw .log.gz trees resume exactly like corpus shards: kill mid-run,
    resume, full doc_id coverage with no duplicates (the native-input
    lineage path, ZeekTsvRouteWorker)."""
    from zeeklog_ray.zeektsv import write_zeek_log_gz

    tree = str(tmp_path / "zeek")
    lines = {"conn": ["\t".join(["1719878400.5", f"C{i}", "1.2.3.4", "5",
                                 "9.8.7.6", "443", "tcp", "ssl", "1", "9"])
                      for i in range(4)],
             "dns": ["\t".join(["1719878401.0", f"D{i}", "4.3.2.1", "4",
                                "8.8.8.8", "53", "q.example", "A", "NOERROR"])
                     for i in range(3)]}
    for date in ("2024-07-02", "2024-07-03"):
        for proto, ls in lines.items():
            write_zeek_log_gz(
                os.path.join(tree, date, f"{proto}.00:00:00-23:59:59.log.gz"),
                proto, ls)

    out = str(tmp_path / "routed")
    rr = ResumableRun(PipelineConfig(corpus_dir=tree), out,
                      files_per_shard=1, input_format="zeek-tsv")
    n_shards = len(rr.shards())
    assert n_shards == 4
    with pytest.raises(RuntimeError, match="simulated failure"):
        rr.run(fail_after_shards=2)
    assert len(committed_shards(out)) == 2
    recs = rr.run()
    assert len(recs) == n_shards - 2
    back = rr.committed_output().to_pandas()
    assert back["doc_id"].is_unique
    assert len(back) == 14                      # 2 dates × (4 conn + 3 dns)
    assert set(back["sink"]) == {"conn", "dns"}
    assert set(back["hour_bucket"]) == {"00:00:00-23:59:59"}


def test_manifest_covers_fragments_exactly_once(corpus_dir, tmp_path):
    out = str(tmp_path / "routed")
    rr = ResumableRun(PipelineConfig(corpus_dir=corpus_dir), out, files_per_shard=2)
    rr.run()
    frags = []
    for p in glob.glob(os.path.join(out, "_manifest", "shard-*.json")):
        with open(p) as f:
            rec = json.load(f)
        frags.extend(rec["input_fragments"])
        # lineage metrics present
        assert rec["rows_per_sink"] and rec["output_bytes"] > 0
        assert "wall_time_s" in rec
    assert sorted(frags) == sorted(glob.glob(
        os.path.join(corpus_dir, "**", "*.parquet"), recursive=True))


def test_rerun_after_completion_is_noop(corpus_dir, tmp_path):
    out = str(tmp_path / "routed")
    rr = ResumableRun(PipelineConfig(corpus_dir=corpus_dir), out, files_per_shard=4)
    first = rr.run()
    assert first
    again = rr.run()
    assert again == []


def test_committed_stats(corpus_dir, corpus_frame, tmp_path):
    out = str(tmp_path / "routed")
    rr = ResumableRun(PipelineConfig(corpus_dir=corpus_dir), out, files_per_shard=2)
    rr.run()
    stats = rr.committed_stats()
    assert stats["committed_shards"] == len(rr.shards())
    assert sum(stats["rows_per_sink"].values()) == len(corpus_frame)
    assert stats["output_bytes"] > 0 and stats["total_shard_wall_s"] > 0


def test_resume_honors_date_range(corpus_dir, corpus_frame, tmp_path):
    """Regression: ResumableRun sharded the whole corpus regardless of the
    configured date range."""
    out = str(tmp_path / "routed")
    cfg = PipelineConfig(corpus_dir=corpus_dir, start_date="2024-07-02")
    rr = ResumableRun(cfg, out, files_per_shard=2)
    rr.run()
    back = rr.committed_output().to_pandas()
    exp = corpus_frame[corpus_frame["date"] == "2024-07-02"]
    assert set(back["doc_id"]) == set(exp["doc_id"])
