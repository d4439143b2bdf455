"""Fused file-granular flagship == composable pipeline results."""

import glob
import os

import numpy as np
import pandas as pd
import pytest
import ray.data

from zeeklog_ray.aggregate import HIST_COLUMNS, grouped_stats
from zeeklog_ray.flagship import read_routed, run_flagship
from zeeklog_ray.pipeline import PipelineConfig, build_dataset


def test_flagship_matches_composable(corpus_dir, tmp_path):
    out = str(tmp_path / "routed")
    cfg = PipelineConfig(corpus_dir=corpus_dir, enrich=True)
    fused = run_flagship(cfg, out).set_index("sink").sort_index()
    comp = grouped_stats(build_dataset(cfg), key="sink").to_pandas() \
        .set_index("sink").sort_index()
    for c in ["n", "sum_n_tok", "min_n_tok", "max_n_tok"] + HIST_COLUMNS:
        assert fused[c].to_dict() == comp[c].to_dict(), c


def test_flagship_output_layout_and_tokens(corpus_dir, corpus_frame, tmp_path):
    out = str(tmp_path / "routed")
    run_flagship(PipelineConfig(corpus_dir=corpus_dir, enrich=True), out)
    from zeeklog_ray.sources import SOURCE_FIELDS

    sinks = {os.path.basename(d).removeprefix("sink=")
             for d in glob.glob(os.path.join(out, "sink=*"))}
    exp_sinks = set(corpus_frame["source"].where(
        corpus_frame["source"].isin(SOURCE_FIELDS), "none").unique())
    assert sinks == exp_sinks            # all 28 protocol sinks + quarantine
    assert len(sinks) == 29
    back = read_routed(out).to_pandas()
    assert set(back["doc_id"]) == set(corpus_frame["doc_id"])
    # exact token-array equality per doc_id through the fused path
    exp = dict(zip(corpus_frame["doc_id"], corpus_frame["tokens"]))
    sample = back.sample(200, random_state=1)
    for d, tok in zip(sample["doc_id"], sample["tokens"]):
        assert bytes(np.asarray(tok, dtype=np.uint8).tobytes()) == exp[d]
    # enrichment columns present in routed output
    assert "geo_country_code" in back.columns and "service_name" in back.columns


def test_flagship_zstd_compression(corpus_dir, tmp_path):
    """--compression plumbs through the fused writer: files are real zstd
    parquet and re-read transparently (codec is per-file metadata)."""
    import glob

    import pyarrow.parquet as pq
    import ray.data

    out = str(tmp_path / "routed_zstd")
    cfg = PipelineConfig(corpus_dir=corpus_dir)
    stats = run_flagship(cfg, out, compression="zstd")
    files = glob.glob(f"{out}/sink=*/*.parquet")
    assert files
    meta = pq.ParquetFile(files[0]).metadata
    codecs = {meta.row_group(0).column(i).compression
              for i in range(meta.num_columns)}
    assert codecs == {"ZSTD"}
    assert ray.data.read_parquet(out).count() == int(stats["n"].sum())


def test_flagship_ip_filter(corpus_dir):
    import tempfile

    from zeeklog_ray.corpus import GOLDEN_IP_0702_ONLY

    with tempfile.TemporaryDirectory() as out:
        cfg = PipelineConfig(corpus_dir=corpus_dir, start_date="2024-07-03",
                             src_ip=GOLDEN_IP_0702_ONLY, enrich=False)
        stats = run_flagship(cfg, out)
        assert len(stats) == 0 or stats["n"].sum() == 0


def test_flagship_source_filter(corpus_dir, corpus_frame, tmp_path):
    """--source must filter in the fused path too (regression: it was
    silently dropped)."""
    out = str(tmp_path / "routed")
    stats = run_flagship(PipelineConfig(corpus_dir=corpus_dir, source="dNs"),
                         out)
    assert stats["sink"].tolist() == ["dns"]
    exp = (corpus_frame["source"] == "dns").sum()
    assert int(stats["n"].iloc[0]) == exp
    dirs = {os.path.basename(d) for d in glob.glob(os.path.join(out, "sink=*"))}
    assert dirs == {"sink=dns"}


def test_flagship_rerun_no_duplicates(corpus_dir, corpus_frame, tmp_path):
    """Re-running into the same out_dir must REPLACE, not accumulate
    (regression: uuid-named files duplicated rows)."""
    out = str(tmp_path / "routed")
    run_flagship(PipelineConfig(corpus_dir=corpus_dir), out)
    run_flagship(PipelineConfig(corpus_dir=corpus_dir), out)
    back = read_routed(out)
    assert back.count() == len(corpus_frame)


def test_flagship_deterministic_filenames(corpus_dir, tmp_path):
    out = str(tmp_path / "routed")
    run_flagship(PipelineConfig(corpus_dir=corpus_dir), out)
    files = sorted(os.path.basename(p) for p in
                   glob.glob(os.path.join(out, "sink=conn", "*.parquet")))
    # fragment-derived names (date + part stem), not uuids
    assert all(f.startswith("part-date=") for f in files), files[:3]


def test_sink_schema_registry_matches_output(corpus_dir, tmp_path):
    """sources.sink_schemas must report EXACTLY the columns the fused
    writer produces per sink, in file order — it is the machine-readable
    contract a downstream consumer reads instead of sniffing files."""
    import pyarrow.parquet as pq

    from zeeklog_ray.sources import sink_schemas

    out = str(tmp_path / "routed")
    run_flagship(PipelineConfig(corpus_dir=corpus_dir, enrich=True), out)
    reg = sink_schemas(enrich=True)
    seen = 0
    for d in glob.glob(os.path.join(out, "sink=*")):
        sink = os.path.basename(d).removeprefix("sink=")
        f = glob.glob(os.path.join(d, "*.parquet"))[0]
        assert pq.read_schema(f).names == reg[sink], sink
        seen += 1
    assert seen == 29

    # non-enriched runs carry no geo_*/service_name columns
    out2 = str(tmp_path / "routed_plain")
    run_flagship(PipelineConfig(corpus_dir=corpus_dir), out2)
    reg2 = sink_schemas(enrich=False)
    f = glob.glob(os.path.join(out2, "sink=conn", "*.parquet"))[0]
    assert pq.read_schema(f).names == reg2["conn"]
    assert not any(c.startswith("geo_") for c in reg2["conn"])


def _reference_sink_tables(t):
    """What the routed write must produce: per sink, ``t.filter(sink ==
    s)`` with ``sink`` and the other protocols' registry columns dropped."""
    import pyarrow.compute as pc

    from zeeklog_ray.sources import EXTRACTED_COLUMNS, SOURCE_FIELDS

    out = {}
    for s in pc.unique(t["sink"]).to_pylist():
        own = set(SOURCE_FIELDS.get(s, ()))
        out[s] = t.filter(pc.equal(t["sink"], s)).drop_columns(
            ["sink"] + [c for c in EXTRACTED_COLUMNS if c not in own])
    return out


def _parsed_fragments(corpus_dir):
    """Two corpus fragments, parsed one by one and concatenated, so the
    ``sink`` column has two chunks and every sink's rows interleave
    across them."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from zeeklog_ray.parse import parse_batch

    files = sorted(glob.glob(os.path.join(corpus_dir, "date=*", "*.parquet")))
    return pa.concat_tables([parse_batch(pq.read_table(f)) for f in files[:2]])


@pytest.mark.parametrize("case", ["mixed", "one_sink", "filtered_empty"])
def test_routed_write_equals_per_sink_filter(corpus_dir, tmp_path, case):
    """Each sink's file holds exactly the filtered rows of that sink, in
    input order, with that sink's columns in table order; a batch the
    ``source`` filter empties writes no file and still returns stats."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from zeeklog_ray.flagship import FusedRouteWriter

    t = _parsed_fragments(corpus_dir)
    assert t["sink"].num_chunks == 2
    source = None
    if case == "mixed":
        assert "none" in pc.unique(t["sink"]).to_pylist()
    elif case == "one_sink":
        t = t.filter(pc.equal(t["sink"], "dns"))
        assert t["sink"].num_chunks == 2 and len(t)
    else:  # a conn-only batch under source='dns' leaves 0 rows
        t = t.filter(pc.equal(t["sink"], "conn"))
        source = "dns"
    out = str(tmp_path / "routed")
    stats = FusedRouteWriter(out, enrich=False, source=source)(
        t, name_hint="frag", pre_parsed=True)

    exp = _reference_sink_tables(t) if source is None else {}
    got = {os.path.basename(os.path.dirname(f)).removeprefix("sink="): f
           for f in glob.glob(os.path.join(out, "sink=*", "*.parquet"))}
    assert set(got) == set(exp)
    for s, f in got.items():
        back = pq.read_table(f)
        assert back.schema.names == exp[s].schema.names, s
        assert back.equals(exp[s]), s
    assert dict(zip(stats["sink"].to_pylist(), stats["n"].to_pylist())) \
        == {s: len(e) for s, e in exp.items()}


@pytest.mark.parametrize("sizes,cpus,call_bytes,n_tasks", [
    ([10] * 8, 4, 100, 4),               # small input: one task per CPU
    ([10] * 8, 1, 100, 1),               # one CPU: one task for all
    ([10] * 8, 1, 30, 3),                # over one call: three tasks
    ([10] * 12, 2, 50, 4),               # just over a wave: two full waves
    ([10] * 10, 2, 40, 4),               # k = 4 does not divide 10
    ([7, 1, 12, 3, 9, 2, 2, 8, 5], 2, 16, 4),
    ([15, 15, 13, 14, 13, 14, 13, 13], 4, 100, 4),  # 15% apart
    ([1, 1, 100, 1, 1, 1, 1], 2, 32, 4),  # one oversized fragment
    ([100, 120, 90], 4, 32, 3),          # design scale: all oversized
    ([0, 0, 0], 4, 32, 1),               # empty files
    # sf0.1-like: the fragment size drops along the list; one budget for
    # the whole pass left a 1-fragment fifth task at 4 CPUs
    ([1_500_000] * 8 + [1_360_000] * 24, 4, 32 << 20, 4),
    ([1_500_000] * 8 + [1_360_000] * 24, 8, 32 << 20, 8),
    ([1_500_000] * 8 + [1_360_000] * 24, 1, 32 << 20, 2),
])
def test_route_groups_rule(sizes, cpus, call_bytes, n_tasks):
    """Route tasks are contiguous runs covering every fragment once, in
    input order; on equal fragments whose number k divides, their count
    is k, the smallest multiple of the CPU count that keeps the mean task
    within ``call_bytes`` (capped at one task per fragment); each task's
    budget is the bytes left over the tasks left, so a size change along
    the list still gives k; a multi-fragment task stays within
    ``call_bytes`` and an oversized fragment is a task of its own."""
    from zeeklog_ray.flagship import _route_groups

    groups = _route_groups(sizes, cpus, call_bytes)
    assert [i for a, b in groups for i in range(a, b)] \
        == list(range(len(sizes)))
    assert all(a < b for a, b in groups)
    assert len(groups) == n_tasks
    k = min(len(sizes), cpus * max(1, -(-sum(sizes) // (cpus * call_bytes))))
    if len(set(sizes)) == 1 and sizes[0] and len(sizes) % k == 0:
        assert n_tasks == k
    for a, b in groups:
        assert b - a == 1 or sum(sizes[a:b]) <= call_bytes
        assert all(b - a == 1 for s in sizes[a:b] if s > call_bytes)
    assert _route_groups([], cpus, call_bytes) == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_route_groups_cuts_at_call_bytes(cpus):
    """A task that would go over the call size closes early: more tasks,
    each within the cap, so on 2 CPUs the count is no longer a multiple
    of the CPU count."""
    from zeeklog_ray.flagship import _route_groups

    # k = 2 tasks of 9 bytes by the formula; two 6-byte fragments are 12 > 10
    assert _route_groups([6, 6, 6], cpus, 10) == [(0, 1), (1, 2), (2, 3)]


def test_file_sizes_matches_getsize_across_chunks(tmp_path):
    """``_file_sizes`` stats 2,100 files in three chunks across threads
    and returns the sizes in input order."""
    from zeeklog_ray.flagship import _file_sizes

    files = []
    for i in range(2_100):
        f = tmp_path / f"f{i}"
        f.write_bytes(b"x" * (i % 7))
        files.append(str(f))
    assert _file_sizes(files) == [i % 7 for i in range(2_100)]
    assert _file_sizes(files[:5]) == [0, 1, 2, 3, 4]
    assert _file_sizes([]) == []


def test_run_files_empty_returns_stats_columns(tmp_path):
    """No fragments (e.g. a Zeek-TSV date range with no ``.log.gz``)
    gives the empty stats frame with its columns, not a Ray error."""
    from zeeklog_ray.aggregate import STAT_COLUMNS
    from zeeklog_ray.flagship import run_files

    out = str(tmp_path / "routed")
    stats = run_files(PipelineConfig(corpus_dir=str(tmp_path)), [], out,
                      input_format="zeek-tsv")
    assert stats.empty
    assert list(stats.columns) == ["sink"] + STAT_COLUMNS
    assert not os.path.exists(out)


def _merge_partials(parts):
    """The driver merge of per-fragment partial stats, as pandas."""
    import pyarrow as pa

    pdf = pa.concat_tables(parts).to_pandas()
    return pdf.groupby("sink").agg(
        n=("n", "sum"), sum_n_tok=("sum_n_tok", "sum"),
        min_n_tok=("min_n_tok", "min"), max_n_tok=("max_n_tok", "max"),
        **{c: (c, "sum") for c in HIST_COLUMNS}).reset_index()


def test_task_granular_route_equals_per_fragment_writer(ray_session,
                                                        tmp_path):
    """Byte-sized route tasks (several fragments each at the session's 4
    CPUs) write the same rows per sink, in the same order, as one
    ``FusedRouteWriter`` call per fragment; every file has its sink's
    registry schema, the stats equal the per-fragment merge, and each
    sink directory holds at most one file per task."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from zeeklog_ray.corpus import generate_corpus
    from zeeklog_ray.flagship import (
        FusedRouteWriter,
        _fragment_hint,
        _route_groups,
        run_files,
    )
    from zeeklog_ray.pipeline import _date_dirs
    from zeeklog_ray.relational import CALL_BYTES, cluster_cpus
    from zeeklog_ray.sources import sink_schemas

    cfg = PipelineConfig(corpus_dir=generate_corpus(6_000, rows_per_file=500),
                         enrich=True)
    files = _date_dirs(cfg)
    groups = _route_groups([os.path.getsize(f) for f in files],
                           cluster_cpus(), CALL_BYTES)
    assert cluster_cpus() == 4 and len(files) == 12 and len(groups) == 4

    out, ref = str(tmp_path / "tasks"), str(tmp_path / "ref")
    stats = run_files(cfg, files, out)
    w = FusedRouteWriter(ref, enrich=True)
    ref_stats = _merge_partials([w(pq.read_table(f), name_hint=_fragment_hint(f))
                                 for f in files])
    pd.testing.assert_frame_equal(stats, ref_stats)

    reg = sink_schemas(enrich=True)
    sinks = sorted(os.listdir(ref))
    assert sorted(os.listdir(out)) == sinks and len(sinks) == 29
    for d in sinks:
        got = sorted(glob.glob(os.path.join(out, d, "*.parquet")))
        assert len(got) <= len(groups), d
        for f in got:
            assert pq.read_schema(f).names == reg[d.removeprefix("sink=")]
        exp = pa.concat_tables(
            pq.read_table(f, columns=["doc_id", "tokens"]) for f in
            sorted(glob.glob(os.path.join(ref, d, "*.parquet"))))
        back = pa.concat_tables(pq.read_table(f, columns=["doc_id", "tokens"])
                                for f in got)
        assert back.equals(exp), d


def test_read_routed_matches_files_without_schema_warnings(
        corpus_dir, check_routed_read, tmp_path):
    """``read_routed`` over a 29-sink ``run_flagship`` output gives every
    part file's rows with ``sink`` as a string column, one schema for
    every block, and Ray logs no "different schema" line (it does for
    ``ray.data.read_parquet`` over the same tree)."""
    import logging

    import pyarrow as pa
    import ray

    out = str(tmp_path / "routed")
    run_flagship(PipelineConfig(corpus_dir=corpus_dir, enrich=True), out)
    assert len(glob.glob(os.path.join(out, "sink=*"))) == 29

    class Lines(logging.Handler):
        def __init__(self):
            super().__init__()
            self.lines = []

        def emit(self, record):
            self.lines.append(record.getMessage())

    def warnings_of(read):
        lines, ray_log = Lines(), logging.getLogger("ray.data")
        ray_log.addHandler(lines)
        try:
            return read(), [m for m in lines.lines if "different schema" in m]
        finally:
            ray_log.removeHandler(lines)

    # the handler sees the line where Ray logs it
    assert warnings_of(lambda: ray.data.read_parquet(out).materialize())[1]
    blocks, warned = warnings_of(
        lambda: ray.get(read_routed(out).to_arrow_refs()))
    assert warned == []
    assert len({b.schema for b in blocks}) == 1
    got = pa.concat_tables(blocks)
    assert got.schema.field("sink").type == pa.string()
    check_routed_read(got, [out])


def test_read_routed_empty_tree(tmp_path):
    """A tree with no part files reads as zero rows with a ``sink``
    column, not an error."""
    os.makedirs(tmp_path / "routed" / "sink=conn")
    ds = read_routed(str(tmp_path / "routed"))
    assert ds.count() == 0 and ds.columns() == ["sink"]


def _zeek_pair(tmp_path):
    """A good conn log and a corrupt ``.log.gz`` after it, one date dir."""
    from zeeklog_ray.zeektsv import write_zeek_log_gz

    d = tmp_path / "zeek" / "2024-07-02"
    good = str(d / "conn.00:00:00-01:00:00.log.gz")
    write_zeek_log_gz(good, "conn", [
        "\t".join(["1719878400.5", f"C{i}", "1.2.3.4", "5", "9.8.7.6",
                   "443", "tcp", "ssl", "1", "9"]) for i in range(4)])
    bad = d / "dns.00:00:00-01:00:00.log.gz"
    bad.write_bytes(b"not a gzip stream")
    return good, str(bad)


def test_route_task_failure_leaves_no_partial_file(tmp_path):
    """A route task that fails on its second fragment closes and deletes
    the part files it opened before re-raising; with ``on_error='skip'``
    the good fragment is written and the bad one skipped (in-process,
    no Ray)."""
    import gzip

    import pyarrow as pa
    import pyarrow.parquet as pq

    from zeeklog_ray.flagship import _file_route_task

    good, bad = _zeek_pair(tmp_path)
    batch = pa.table({"path": [good, bad]})
    kw = dict(src_ip=None, enrich=False, input_format="zeek-tsv")

    out = str(tmp_path / "raise")
    with pytest.raises(gzip.BadGzipFile):
        _file_route_task(batch, out_dir=out, on_error="raise", **kw)
    assert glob.glob(os.path.join(out, "**", "*.parquet"),
                     recursive=True) == []

    out = str(tmp_path / "skip")
    stats = _file_route_task(batch, out_dir=out, on_error="skip", **kw)
    files = glob.glob(os.path.join(out, "**", "*.parquet"), recursive=True)
    assert [os.path.relpath(f, out) for f in files] \
        == ["sink=conn/part-2024-07-02-conn.00:00:00-01:00:00.log.parquet"]
    assert pq.read_table(files[0]).num_rows == 4
    assert dict(zip(stats["sink"].to_pylist(), stats["n"].to_pylist())) \
        == {"conn": 4}
