"""Fused file-granular flagship == composable pipeline results."""

import glob
import os

import numpy as np
import pandas as pd
import pytest
import ray.data

from zeeklog_ray.aggregate import HIST_COLUMNS, grouped_stats
from zeeklog_ray.flagship import run_flagship
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
    back = ray.data.read_parquet(out).to_pandas()
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
    back = ray.data.read_parquet(out)
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
