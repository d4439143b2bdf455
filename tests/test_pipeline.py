"""End-to-end pipeline tests on the deterministic corpus, with the in-memory
pandas frame as oracle (FIXTURES.md §5)."""

import numpy as np
import pandas as pd
import pytest

from zeeklog_ray.corpus import GOLDEN_IP_0702_ONLY
from zeeklog_ray.flagship import run_flagship
from zeeklog_ray.pipeline import (
    PipelineConfig,
    SearchInvalidStartDate,
    build_dataset,
)
from zeeklog_ray.sources import CONN_PREFIXED, SOURCE_FIELDS


def _oracle(corpus_frame: pd.DataFrame) -> pd.DataFrame:
    df = corpus_frame.copy()
    df["sink"] = df["source"].where(df["source"].isin(SOURCE_FIELDS), "none")
    parts = df["tokens"].map(lambda b: b.decode().split("\t"))
    df["id_orig_h"] = [p[2] if len(p) > 2 else None for p in parts]
    df["id_resp_h"] = [p[4] if len(p) > 4 else None for p in parts]
    # only connection-prefixed sources carry the id 4-tuple; ts-prefixed
    # host/file logs (files/x509/…) and unknown sources have it null
    no_ids = ~df["source"].isin(CONN_PREFIXED)
    df.loc[no_ids, ["id_orig_h", "id_resp_h"]] = None
    return df


@pytest.fixture(scope="module")
def oracle(corpus_frame):
    return _oracle(corpus_frame)


def test_plan_codes():
    assert PipelineConfig().plan() == 0
    assert PipelineConfig(src_ip="1.1.1.1").plan() == 4
    assert PipelineConfig(source="conn").plan() == 2
    assert PipelineConfig(end_date="2024-07-03").plan() == 1
    assert PipelineConfig(src_ip="1.1.1.1", source="conn",
                          end_date="2024-07-03").plan() == 7


def test_invalid_date_raises(corpus_dir):
    with pytest.raises(SearchInvalidStartDate):
        build_dataset(PipelineConfig(corpus_dir=corpus_dir, start_date="07/02/2024"))
    # existing format but absent partition — reference SearchInvalidStartDate
    with pytest.raises(SearchInvalidStartDate):
        build_dataset(PipelineConfig(corpus_dir=corpus_dir, start_date="1999-01-01"))


def test_full_scan_counts(corpus_dir, oracle):
    n = build_dataset(PipelineConfig(corpus_dir=corpus_dir)).count()
    assert n == len(oracle)


def test_golden_ip_present_absent(corpus_dir, oracle):
    """Mirror of tests/zeek_search.rs:189-216: golden IP on 2024-07-02 ⇒
    non-empty result; same IP on 2024-07-03 ⇒ empty."""
    n2 = build_dataset(PipelineConfig(corpus_dir=corpus_dir,
                                      start_date="2024-07-02",
                                      src_ip=GOLDEN_IP_0702_ONLY)).count()
    n3 = build_dataset(PipelineConfig(corpus_dir=corpus_dir,
                                      start_date="2024-07-03",
                                      src_ip=GOLDEN_IP_0702_ONLY)).count()
    assert n2 > 0 and n3 == 0
    exp = oracle[(oracle["date"] == "2024-07-02")
                 & ((oracle["id_orig_h"] == GOLDEN_IP_0702_ONLY)
                    | (oracle["id_resp_h"] == GOLDEN_IP_0702_ONLY))]
    assert n2 == len(exp)


@pytest.mark.parametrize("src_ip,source,end_date", [
    (None, None, None), (None, None, "2024-07-03"),
    (None, "conn", None), (None, "CoNn", "2024-07-03"),
    ("10.2.17.31", None, None), ("10.2.17.31", None, "2024-07-03"),
    ("10.2.17.31", "dns", None), ("10.2.17.31", "dns", "2024-07-03"),
])
def test_plan_matrix_counts(corpus_dir, oracle, src_ip, source, end_date):
    """All 8 combinations of (src_ip, source, end_date) — the full matrix of
    ZeekSearchParams::check (zeek_search_params.rs:38-57), of which the
    reference implements only 0 and 4."""
    cfg = PipelineConfig(corpus_dir=corpus_dir, start_date="2024-07-02",
                         end_date=end_date, src_ip=src_ip, source=source)
    n = build_dataset(cfg).count()
    exp = oracle[oracle["date"] == "2024-07-02"] if end_date is None else \
        oracle[(oracle["date"] >= "2024-07-02") & (oracle["date"] <= end_date)]
    if source:
        exp = exp[exp["source"] == source.lower()]
    if src_ip:
        exp = exp[(exp["id_orig_h"] == src_ip) | (exp["id_resp_h"] == src_ip)]
    assert n == len(exp), f"plan {cfg.plan()}"


def test_routed_write_token_equality(corpus_dir, corpus_frame, oracle, tmp_path):
    """Route to per-sink Parquet with the flagship writer and verify (a)
    per-sink doc_id set equality, (b) exact token-array byte equality for
    every doc_id — the north-rule per-row invariant."""
    import ray.data

    out = str(tmp_path / "routed")
    run_flagship(PipelineConfig(corpus_dir=corpus_dir), out)

    back = ray.data.read_parquet(out).to_pandas()
    exp_sets = oracle.groupby("sink")["doc_id"].agg(set).to_dict()
    got_sets = back.groupby("sink")["doc_id"].agg(set).to_dict()
    assert got_sets == exp_sets

    got_tok = {d: bytes(np.asarray(t, dtype=np.uint8).tobytes())
               for d, t in zip(back["doc_id"], back["tokens"])}
    exp_tok = dict(zip(corpus_frame["doc_id"], corpus_frame["tokens"]))
    assert got_tok == exp_tok


def test_enrichment_columns(corpus_dir, oracle):
    from zeeklog_ray.enrich import SERVICE_DICT, build_geo_dict

    ds = build_dataset(PipelineConfig(corpus_dir=corpus_dir,
                                      start_date="2024-07-02", enrich=True))
    got = ds.to_pandas()
    geo = build_geo_dict()
    exp = oracle[oracle["date"] == "2024-07-02"]
    # left-outer semantics: hit rows carry the dict values, misses are null
    merged = got.set_index("doc_id")
    for doc_id, ip in zip(exp["doc_id"], exp["id_orig_h"]):
        cc = merged.loc[doc_id, "geo_country_code"]
        if ip in geo:
            assert cc == geo[ip]["geo_country_code"]
        else:
            assert cc is None or (isinstance(cc, float) and np.isnan(cc))
    svc = merged["service_name"].dropna().unique()
    assert set(svc) <= set(SERVICE_DICT.values())


def test_end_date_only_plan(corpus_dir, oracle):
    """Plan 1 (end_date without start_date): everything up to and including
    end_date (regression: it silently became a full scan)."""
    n = build_dataset(PipelineConfig(corpus_dir=corpus_dir,
                                     end_date="2024-07-03")).count()
    exp = oracle[oracle["date"] <= "2024-07-03"]
    assert n == len(exp)
