"""keyword_search: distributed integer TF-IDF top-k retrieval."""

import numpy as np
import pandas as pd
import pytest

import ray
import ray.data

from zeeklog_ray.ops.retrieval import keyword_search


def _corpus() -> pd.DataFrame:
    rng = np.random.default_rng(7)
    vocab = np.array(["alpha", "bravo", "charlie", "delta", "echo",
                      "foxtrot", "golf", "hotel"])
    texts = [" ".join(rng.choice(vocab, 12)) for _ in range(40)]
    # planted: doc 100 is saturated with the rare term, doc 101 has one
    texts += ["zulu zulu zulu alpha", "zulu bravo charlie"]
    return pd.DataFrame({"doc_id": list(range(40)) + [100, 101],
                         "text": texts})


def _brute(df: pd.DataFrame, terms: list[str], k: int) -> pd.DataFrame:
    n = len(df)
    rows = []
    split = df["text"].str.split()
    for t in terms:
        tf = split.map(lambda ws, t=t: ws.count(t))
        dfreq = int((tf > 0).sum())
        if dfreq == 0:
            continue
        idf = (n * 10_000) // dfreq
        rows.append(pd.DataFrame({"doc_id": df["doc_id"],
                                  "s": tf.to_numpy() * idf}))
    if not rows:
        return pd.DataFrame({"doc_id": [], "score": []})
    tot = (pd.concat(rows).groupby("doc_id")["s"].sum().reset_index()
           .rename(columns={"s": "score"}))
    tot = tot[tot["score"] > 0]
    return (tot.sort_values(["score", "doc_id"], ascending=[False, True])
            .head(k).reset_index(drop=True))


def test_keyword_search_matches_brute_force(ray_session):
    df = _corpus()
    terms = ["zulu", "alpha"]
    want = _brute(df, terms, 5)
    got = keyword_search(ray.data.from_pandas(df).repartition(4), terms,
                         k=5).to_pandas()
    pd.testing.assert_frame_equal(
        got.astype({"doc_id": "int64", "score": "int64"}),
        want.astype({"doc_id": "int64", "score": "int64"}))
    # rare-term saturation must rank doc 100 first
    assert got["doc_id"].iloc[0] == 100


def test_keyword_search_layout_and_spill_invariance(ray_session, tmp_path):
    df = _corpus()
    terms = ["zulu", "echo", "charlie"]
    base = keyword_search(ray.data.from_pandas(df).repartition(1),
                          terms, k=7).to_pandas()
    for nparts in (3, 8):
        alt = keyword_search(ray.data.from_pandas(df).repartition(nparts),
                             terms, k=7).to_pandas()
        pd.testing.assert_frame_equal(alt, base)
    spilled = keyword_search(ray.data.from_pandas(df).repartition(4),
                             terms, k=7,
                             spill_dir=str(tmp_path)).to_pandas()
    pd.testing.assert_frame_equal(spilled, base)


def _brute_bm25(df: pd.DataFrame, terms: list[str], k: int) -> pd.DataFrame:
    split = df["text"].str.split()
    dls = split.str.len().to_numpy()
    n = len(df)
    avgdl = max(1, int(dls.sum()) // n)
    rows = []
    for t in terms:
        tf = split.map(lambda ws, t=t: ws.count(t)).to_numpy()
        dfreq = int((tf > 0).sum())
        if dfreq == 0:
            continue
        idf = (n * 10_000) // dfreq
        tf_norm = np.where(
            tf > 0,
            (10_000 * 44 * avgdl * tf)
            // (20 * avgdl * tf + 6 * avgdl + 18 * dls), 0)
        rows.append(pd.DataFrame({"doc_id": df["doc_id"],
                                  "s": idf * tf_norm}))
    tot = (pd.concat(rows).groupby("doc_id")["s"].sum().reset_index()
           .rename(columns={"s": "score"}))
    tot = tot[tot["score"] > 0]
    return (tot.sort_values(["score", "doc_id"], ascending=[False, True])
            .head(k).reset_index(drop=True))


def test_bm25_matches_brute_force(ray_session):
    df = _corpus()
    terms = ["zulu", "alpha", "echo"]
    want = _brute_bm25(df, terms, 6)
    got = keyword_search(ray.data.from_pandas(df).repartition(4), terms,
                         k=6, bm25=True).to_pandas()
    pd.testing.assert_frame_equal(
        got.astype({"doc_id": "int64", "score": "int64"}),
        want.astype({"doc_id": "int64", "score": "int64"}))
    # BM25 length normalization: doc 100 (short, zulu-saturated) must
    # outrank every 12-word doc that merely contains a term once
    assert got["doc_id"].iloc[0] == 100


def test_keyword_search_tie_break_and_empty(ray_session):
    df = pd.DataFrame({"doc_id": [3, 1, 2],
                       "text": ["golf golf", "golf golf", "hotel"]})
    got = keyword_search(ray.data.from_pandas(df).repartition(2),
                         ["golf"], k=2).to_pandas()
    # identical scores -> doc_id ascending
    assert got["doc_id"].tolist() == [1, 3]
    assert got["score"].nunique() == 1

    # empty query / no match: 0 rows with a STABLE (doc_id, score)
    # schema on the Dataset (to_pandas drops columns on empty datasets —
    # the documented Ray wart, so schema is asserted on the Dataset)
    empty = keyword_search(ray.data.from_pandas(df), [], k=5)
    assert empty.count() == 0
    assert sorted(empty.schema().names) == ["doc_id", "score"]

    none = keyword_search(ray.data.from_pandas(df), ["absent"], k=5)
    assert none.count() == 0
    assert sorted(none.schema().names) == ["doc_id", "score"]


@pytest.mark.parametrize("bm25, idf_scale", [(False, 2 * 10**18),
                                             (True, 2 * 10**9)])
def test_keyword_search_int64_headroom_guard(ray_session, bm25, idf_scale):
    """A score bound past int64 raises before scoring instead of letting
    numpy wrap: 3 docs, max tf 2 — TF-IDF bound 1·S·3·2, BM25 bound
    1·S·3·2.2·S."""
    df = pd.DataFrame({"doc_id": [3, 1, 2],
                       "text": ["golf golf", "golf", "hotel"]})
    with pytest.raises(ValueError, match="overflow int64"):
        keyword_search(ray.data.from_pandas(df), ["golf"], k=2,
                       idf_scale=idf_scale, bm25=bm25)
    # one step under the bound still scores
    ok = keyword_search(ray.data.from_pandas(df), ["golf"], k=2,
                        idf_scale=idf_scale // 2, bm25=bm25).to_pandas()
    assert ok["doc_id"].tolist() == [3, 1]
