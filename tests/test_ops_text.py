"""Text-analysis operator tests (quality, lang-id, tokens, fingerprints)."""

import re

import numpy as np
import pandas as pd
import pytest
import ray.data

from zeeklog_ray import relational
from zeeklog_ray.ops.text import (
    _BPE_RE,
    LangId,
    corpus_prep,
    fingerprints,
    lang_id,
    quality_metrics,
    token_counts,
)


def test_corpus_prep_chain(ray_session):
    """Filter, dedup and rollup each do real work: low-quality rows drop,
    planted exact duplicates collapse to the min-doc_id row, per-lang
    counts/token-sums reflect only survivors."""
    good = "the cat and the dog sat in a box with the hat on it for a day"
    df = pd.DataFrame({
        "doc_id": ["d1", "d2", "d3", "d4", "d5"],
        "text": [
            good,                                   # kept
            good,                                   # exact dup -> collapsed
            "zz qq ww ee rr tt yy uu ii oo pp aa ss dd ff",  # 15 words, 0 stopwords -> filtered
            "tiny doc",                             # too short -> filtered
            "is it the best of the best that it is for the win here now ok",  # kept
        ],
        "lang": ["en", "en", "xx", "en", "en"],
    })
    out = corpus_prep(ray.data.from_pandas(df).repartition(3)).to_pandas()
    assert out["lang"].tolist() == ["en"]
    assert out["n_docs"].tolist() == [2]            # d1 (dup of d2) + d5
    exp_tokens = len(re.findall(_BPE_RE, good)) + \
        len(re.findall(_BPE_RE, df.loc[4, "text"]))
    assert out["sum_bpe_tokens"].tolist() == [exp_tokens]


@pytest.fixture()
def docs_ds(ray_session):
    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": [
            "the cat and the dog sat in a box",
            "der hund und die katze ist ein tier mit fell",
            "le chat est dans la maison pour le jour",
            "x" * 3,  # shorter than fingerprint k
        ],
    })
    return ray.data.from_pandas(df), df


def test_quality_metrics(docs_ds):
    ds, df = docs_ds
    out = ds.pipe(quality_metrics) if hasattr(ds, "pipe") else quality_metrics(ds)
    got = out.to_pandas().set_index("doc_id")
    t = df.loc[0, "text"]
    row = got.loc[1]
    n_words = len([w for w in t.split(" ") if w])
    assert row["n_chars"] == len(t)
    assert row["n_words"] == n_words
    nonspace = len(t.replace(" ", ""))
    assert row["avg_word_len_e4"] == int(np.floor(nonspace * 10000 / n_words))
    stop = sum(1 for w in t.split(" ")
               if w in {"the", "and", "of", "a", "to", "in", "is", "it", "that", "for"})
    assert row["stopword_ratio_e4"] == int(np.floor(stop * 10000 / n_words))
    assert (got["punct_ratio_e4"] >= 0).all()


def test_lang_id_heuristic(docs_ds):
    ds, _ = docs_ds
    got = lang_id(ds).to_pandas().set_index("doc_id")["lang_pred"]
    assert got.loc[1] == "en"
    assert got.loc[2] == "de"
    assert got.loc[3] == "fr"
    assert got.loc[4] == "unknown"


def test_lang_id_unit_no_ray():
    li = LangId()
    out = li(pd.DataFrame({"doc_id": [1], "text": ["el gato es un animal de la casa"]}))
    assert out["lang_pred"].iloc[0] == "es"


def test_token_counts(docs_ds):
    ds, df = docs_ds
    got = token_counts(ds).to_pandas().set_index("doc_id")
    for _, r in df.iterrows():
        assert got.loc[r["doc_id"], "n_bpe_tokens"] == len(re.findall(_BPE_RE, r["text"]))


def test_fingerprints_deterministic(docs_ds, ray_session):
    ds, df = docs_ds
    a = fingerprints(ds).to_pandas().set_index("doc_id")["fingerprint"]
    b = fingerprints(ray.data.from_pandas(df)).to_pandas().set_index("doc_id")["fingerprint"]
    assert a.to_dict() == b.to_dict()
    # identical text → identical fingerprint; distinct texts differ
    dup = pd.DataFrame({"doc_id": [10, 11], "text": [df.loc[0, "text"]] * 2})
    fp = fingerprints(ray.data.from_pandas(dup)).to_pandas()["fingerprint"]
    assert fp.iloc[0] == fp.iloc[1]
    assert a.loc[1] != a.loc[2]
    # shorter than k → sentinel 0
    assert a.loc[4] == 0


def test_top_terms_per_source_partition_independent(ray_session):
    import pandas as pd
    import ray.data
    from zeeklog_ray.ops.text import top_terms_per_source

    df = pd.DataFrame({
        "doc_id": range(6),
        "source": ["a", "a", "a", "b", "b", "b"],
        "text": ["cat cat dog", "dog mouse", "Cat!", "x y", "y z", "z z y"],
    })
    counts = df.groupby("source").size().to_dict()
    outs = []
    for parts in (1, 3):
        ds = ray.data.from_pandas(df).repartition(parts)
        out = top_terms_per_source(ds, counts, k=2).to_pandas()
        outs.append(out.sort_values(["source", "term"])
                    .reset_index(drop=True))
    pd.testing.assert_frame_equal(outs[0], outs[1])
    a = outs[0][outs[0]["source"] == "a"].set_index("term")
    # "cat" appears 3x across 2 docs (case-folded); "dog" 2x across 2 docs
    assert a.loc["cat", "tf"] == 3 and a.loc["cat", "df"] == 2
    # score = tf*N*1e4//df with N=3 docs in source a
    assert a.loc["cat", "score_e4"] == 3 * 3 * 10_000 // 2


def test_term_scrub_whole_words_only(ray_session):
    from zeeklog_ray.ops.text import term_scrub

    df = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["spark sparkly dup", "no hits here", "dup dup spark-ish"],
    })
    out = term_scrub(ray.data.from_pandas(df), ["spark", "dup"]) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    # 'sparkly' untouched (word boundary); 'spark-ish' hits 'spark'
    assert out["n_redactions"].tolist() == [2, 0, 3]
    assert out["text_clean"].tolist() == [
        "<TERM> sparkly <TERM>", "no hits here", "<TERM> <TERM> <TERM>-ish"]
    with pytest.raises(ValueError, match="blocklist"):
        term_scrub(ray.data.from_pandas(df), [])


def test_df_census_and_token_scrub(ray_session):
    from zeeklog_ray.ops.text import df_census, df_token_scrub

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["the cat sat", "the the dog", "the fish", "owl"],
    })
    for parts in (1, 3):
        ds = ray.data.from_pandas(df).repartition(parts)
        census = df_census(ds).to_pandas().set_index("token")["df"]
        # df counts DOCUMENTS, not occurrences ('the' twice in doc 2)
        assert census["the"] == 3 and census["cat"] == 1
        out = df_token_scrub(ds, frozenset({"the"})) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert out["n_removed"].tolist() == [1, 2, 1, 0]
        assert out["text_clean"].tolist() == [
            "cat sat", "dog", "fish", "owl"]


def test_df_token_scrub_all_removed_yields_empty(ray_session):
    from zeeklog_ray.ops.text import df_token_scrub

    df = pd.DataFrame({"doc_id": [1, 2], "text": ["a a a", "b keep"]})
    out = df_token_scrub(ray.data.from_pandas(df), frozenset({"a", "b"})) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert out["text_clean"].tolist() == ["", "keep"]
    assert out["n_removed"].tolist() == [3, 1]


def test_pii_patterns_duckdb_python_parity():
    """The PII scrub patterns must match IDENTICALLY under Python re
    (leftmost-first) and DuckDB's RE2 (leftmost-longest) — guaranteed here
    by alternation-free greedy patterns, verified on edge strings."""
    import re

    import duckdb

    from zeeklog_ray.queries import _PII_EMAIL, _PII_IPV4, _PII_LONGNUM

    cases = [
        "mail a.b+c_d%e@sub.domain.co and x@y.io.",
        "ips 1.2.3.4, 255.255.255.255 and not 1.2.3 or 1234.5.6.7",
        "num 123456789 and 12345678 and 99999999999999999999",
        "mixed u9@ex.com 10.0.0.1 900000000",
        "no pii here",
        "double@at@ex.com edge.@ex.com",
        "unicode digits \u0660\u0661\u0662\u0663\u0664\u0665"
        "\u0666\u0667\u0668 stay, 123456789 goes",
    ]
    con = duckdb.connect()
    for pat, repl in [(_PII_EMAIL, "[EMAIL]"), (_PII_IPV4, "[IP]"),
                      (_PII_LONGNUM, "[NUM]")]:
        py = [re.sub(pat, repl, s, flags=re.ASCII) for s in cases]
        sql = [con.execute(
            "SELECT regexp_replace(?, ?, ?, 'g')", [s, pat, repl]
        ).fetchone()[0] for s in cases]
        assert py == sql, pat
        py_n = [len(re.findall(pat, s, flags=re.ASCII)) for s in cases]
        sql_n = [con.execute(
            "SELECT len(regexp_extract_all(?, ?))", [s, pat]
        ).fetchone()[0] for s in cases]
        assert py_n == sql_n, pat
    con.close()


def test_normalize_text_axes(ray_session):
    from zeeklog_ray.ops.text import normalize_text

    df = pd.DataFrame({"doc_id": [0, 1, 2, 3],
                       "text": ["  Café \t MIX\n\nUP ",
                                "STRASSE ß ﬃGHT",
                                "АБ Ёл",
                                None]})
    out = normalize_text(ray.data.from_pandas(df)).to_pandas() \
        .sort_values("doc_id")
    assert out["text_norm"].tolist()[:3] == [
        "café mix up",            # NFC precomposes, ws collapses
        "strasse ß ﬃght",    # ß and ligature survive lower()
        "аб ёл",   # Cyrillic lower + NFC Ё
    ]
    assert out["text_norm"].isna().tolist() == [False, False, False, True]


def test_normalize_text_documented_divergences():
    """The two code points where Python and DuckDB lowercasing differ —
    pinned so a future unicodedata/DuckDB upgrade that converges (or
    widens) the gap is noticed."""
    import unicodedata

    import duckdb

    con = duckdb.connect()
    for s in ["ΣΙΣΥΦΟΣ", "İstanbul"]:
        py = unicodedata.normalize("NFC", s).lower()
        sql = con.execute("SELECT lower(nfc_normalize(?))", [s]).fetchone()[0]
        assert py != sql
    con.close()


def test_tfidf_top_terms_hand_computed(ray_session, monkeypatch):
    """Tiny corpus with hand-computed linear-idf scores: shared word
    scores low, unique word scores high, ties break by word ascending.
    The bucketed-join df tier (zero heap budget) agrees exactly."""
    import pandas as pd
    import ray.data

    from zeeklog_ray.ops.text import tfidf_top_terms

    docs = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["cat cat dog", "dog fish", "cat  "],
    })
    out = tfidf_top_terms(ray.data.from_pandas(docs), k=2).to_pandas()
    N = 3
    # doc 1: n_words=3; cat tf=2 df=2 -> 2*1e6*3 // (3*2) = 1_000_000
    #        dog tf=1 df=2 -> 1e6*3 // (3*2) = 500_000
    d1 = out[out.doc_id == 1].sort_values("rank")
    assert d1[["word", "score_ppm"]].values.tolist() == [
        ["cat", 1_000_000], ["dog", 500_000]]
    # doc 2: n_words=2; dog 1e6*3//(2*2)=750_000, fish 1e6*3//(2*1)=1_500_000
    d2 = out[out.doc_id == 2].sort_values("rank")
    assert d2[["word", "score_ppm"]].values.tolist() == [
        ["fish", 1_500_000], ["dog", 750_000]]
    # doc 3: single word (double space splits to empties, dropped)
    d3 = out[out.doc_id == 3]
    assert d3[["word", "tf", "score_ppm"]].values.tolist() == [
        ["cat", 1, 1_500_000]]
    assert out["rank"].max() <= 2
    monkeypatch.setattr(relational, "HEAP_BUDGET_BYTES", 0)
    dist = tfidf_top_terms(ray.data.from_pandas(docs), k=2).to_pandas()
    key = ["doc_id", "rank"]
    pd.testing.assert_frame_equal(
        out.sort_values(key).reset_index(drop=True),
        dist[out.columns.tolist()].sort_values(key).reset_index(drop=True))


def test_tfidf_tie_break_by_word(ray_session):
    import pandas as pd
    import ray.data

    from zeeklog_ray.ops.text import tfidf_top_terms

    docs = pd.DataFrame({"doc_id": [7], "text": ["b a c"]})
    out = tfidf_top_terms(ray.data.from_pandas(docs), k=3).to_pandas() \
        .sort_values("rank")
    # equal scores -> alphabetical
    assert out["word"].tolist() == ["a", "b", "c"]


def test_source_distribution_tv_hand_computed(ray_session):
    """Two-source corpus with known word distributions: identical
    distributions -> 0; disjoint vocabularies -> 1e6 ppm; a half-overlap
    case matches the hand-computed value."""
    import pandas as pd
    import ray.data

    from zeeklog_ray.ops.text import source_distribution_tv

    docs = pd.DataFrame({
        "source": ["s1", "s1", "s2", "s3"],
        "text": ["a b", "a b", "a b a b", "c d c d"],
    })
    out = source_distribution_tv(ray.data.from_pandas(docs), k=10) \
        .set_index(["source_a", "source_b"])["tv_ppm"]
    assert out.loc[("s1", "s2")] == 0           # identical distributions
    assert out.loc[("s1", "s3")] == 1_000_000   # disjoint vocab
    assert out.loc[("s2", "s3")] == 1_000_000

    docs2 = pd.DataFrame({
        "source": ["x", "y"],
        "text": ["a a b b", "a a a a"],        # x: a=.5 b=.5; y: a=1
    })
    out2 = source_distribution_tv(ray.data.from_pandas(docs2), k=10)
    # TV = 1/2 (|.5-1| + |.5-0|) = .5
    assert out2["tv_ppm"].iloc[0] == 500_000


def test_repetition_stats_hand_cases(ray_session):
    from zeeklog_ray.ops.text import repetition_stats

    df = pd.DataFrame({"doc_id": [1, 2, 3, 4], "text": [
        "spam spam spam spam",              # 1 distinct, top bigram 3/3
        "a b a b a",                        # top word a=3/5, bigram "a b"=2/4
        "all words here are unique today",  # no repetition
        "",                                 # empty
    ]})
    out = repetition_stats(ray.data.from_pandas(df)).to_pandas() \
        .set_index("doc_id").sort_index()
    assert out.loc[1].tolist() == [4, 1 * 10000 // 4, 10000, 10000]
    assert out.loc[2].tolist() == [5, 2 * 10000 // 5, 3 * 10000 // 5,
                                   2 * 10000 // 4]
    assert out.loc[3, "distinct_ratio_e4"] == 10000
    assert out.loc[3, "top_word_ratio_e4"] == 10000 // 6
    assert out.loc[4].tolist() == [0, 0, 0, 0]


def test_repetition_stats_multi_space(ray_session):
    """Adjacency is over the FILTERED word list (multiple spaces collapse),
    matching the oracle's LIST_FILTER(STRING_SPLIT) semantics."""
    from zeeklog_ray.ops.text import repetition_stats

    df = pd.DataFrame({"doc_id": [1], "text": ["x  y x  y"]})
    out = repetition_stats(ray.data.from_pandas(df)).to_pandas()
    # words = [x, y, x, y]: bigrams x y / y x / x y → top = 2 of 3
    assert out.loc[0, "n_words"] == 4
    assert out.loc[0, "top_bigram_ratio_e4"] == 2 * 10000 // 3


def test_bigram_pmi_topk_hand_case(ray_session):
    from zeeklog_ray.ops.text import bigram_pmi_topk

    # corpus: "x y" appears 3x, "x z" 2x; N = 12 words
    df = pd.DataFrame({"doc_id": [1, 2], "text": [
        "x y q x y", "x y r x z x z"]})
    out = bigram_pmi_topk(ray.data.from_pandas(df), k=2, min_count=2)
    out = out.sort_values("pair_count", ascending=False) \
        .reset_index(drop=True)
    assert out.loc[0].tolist() == ["x", "y", 3, 3 * 12 * 10000 // (5 * 3)]
    assert out.loc[1].tolist() == ["x", "z", 2, 2 * 12 * 10000 // (5 * 2)]


def test_bigram_pmi_no_cross_doc_bigrams(ray_session):
    """The last word of one doc and the first of the next never pair."""
    from zeeklog_ray.ops.text import bigram_pmi_topk

    df = pd.DataFrame({"doc_id": [1, 2, 3, 4],
                       "text": ["a b", "b a", "a b", "b a"]})
    out = bigram_pmi_topk(ray.data.from_pandas(df).repartition(4),
                          k=10, min_count=1)
    got = {(r.w1, r.w2): r.pair_count for r in out.itertuples()}
    assert got == {("a", "b"): 2, ("b", "a"): 2}


def test_bigram_pmi_rows_survive_a_permuted_top_k_index(ray_session,
                                                       monkeypatch):
    """Each row's pmi_e4 belongs to that row's bigram even when the
    top-k frame Ray hands back carries a permuted index (the finish
    must not align the PMI list to it by label)."""
    from collections import Counter
    from types import SimpleNamespace

    from zeeklog_ray.ops.text import bigram_pmi_topk

    real_top_k = relational.top_k

    def reversed_top_k(*args, **kwargs):
        df = real_top_k(*args, **kwargs).to_pandas()
        return SimpleNamespace(to_pandas=lambda: df.set_axis(df.index[::-1]))

    monkeypatch.setattr(relational, "top_k", reversed_top_k)
    texts = ["a b a b a b", "c d c d", "e f e g"]
    out = bigram_pmi_topk(ray.data.from_pandas(pd.DataFrame(
        {"doc_id": [1, 2, 3], "text": texts})), k=3, min_count=2)

    words = [t.split(" ") for t in texts]
    uni = Counter(w for ws in words for w in ws)
    bi = Counter(p for ws in words for p in zip(ws, ws[1:]))
    n = sum(uni.values())
    assert sorted(zip(out["w1"], out["w2"])) == [("a", "b"), ("b", "a"),
                                                 ("c", "d")]
    for r in out.itertuples():
        c = bi[(r.w1, r.w2)]
        assert r.pair_count == c
        assert r.pmi_e4 == c * n * 10_000 // (uni[r.w1] * uni[r.w2])


def test_rare_word_stats_hand_case(ray_session):
    from zeeklog_ray.ops.text import rare_word_stats

    # "common" appears 4x (not rare at threshold 3); each "rareN" once
    df = pd.DataFrame({"doc_id": [1, 2, 3], "text": [
        "common common rare1",
        "common rare2 rare2",
        "common",
    ]})
    out = rare_word_stats(ray.data.from_pandas(df), min_corpus_count=3) \
        .to_pandas().set_index("doc_id").sort_index()
    assert out.loc[1].tolist() == [3, 1, 1 * 10000 // 3]
    assert out.loc[2].tolist() == [3, 2, 2 * 10000 // 3]  # rare2 → 2 positions
    assert out.loc[3].tolist() == [1, 0, 0]


def test_unigram_logprob_matches_pandas(ray_session, monkeypatch):
    from zeeklog_ray.ops.text import unigram_logprob

    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(40)]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(1, 30)))
             for _ in range(50)] + [""]
    df = pd.DataFrame({"doc_id": np.arange(51), "text": texts})
    got = unigram_logprob(ray.data.from_pandas(df).repartition(7)) \
        .to_pandas().set_index("doc_id").sort_index()

    words = df.set_index("doc_id")["text"].str.split(" ") \
        .apply(lambda ws: [w for w in ws if w])
    all_words = words.explode().dropna()
    wc = all_words.value_counts()
    n = int(len(all_words))
    exp = words.apply(
        lambda ws: (sum(np.log2(wc[w]) for w in ws) - len(ws) * np.log2(n))
        / len(ws) if ws else 0.0)
    assert got.loc[50, "n_words"] == 0 and got.loc[50, "avg_logprob"] == 0.0
    np.testing.assert_allclose(got["avg_logprob"].to_numpy(),
                               exp.to_numpy(), atol=1e-9)
    assert (got["avg_logprob"].to_numpy()[:-1] < 0).all()
    # bucketed-join attach tier (zero heap budget): same counts, same
    # float sums up to summation order
    monkeypatch.setattr(relational, "HEAP_BUDGET_BYTES", 0)
    dist = unigram_logprob(ray.data.from_pandas(df).repartition(7)) \
        .to_pandas().set_index("doc_id").sort_index()
    assert (dist["n_words"] == got["n_words"]).all()
    np.testing.assert_allclose(dist["avg_logprob"].to_numpy(),
                               got["avg_logprob"].to_numpy(), atol=1e-9)


def test_rare_word_stats_join_tier_parity(ray_session, monkeypatch):
    """A zero heap budget forces the long-table bucketed-join tier; both
    tiers must agree exactly."""
    from zeeklog_ray.ops.text import rare_word_stats

    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(60)]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(0, 25)))
             for _ in range(80)]
    df = pd.DataFrame({"doc_id": np.arange(80), "text": texts})
    a = rare_word_stats(ray.data.from_pandas(df), min_corpus_count=10) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    monkeypatch.setattr(relational, "HEAP_BUDGET_BYTES", 0)
    b = rare_word_stats(ray.data.from_pandas(df).repartition(9),
                        min_corpus_count=10).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b[a.columns.tolist()])


def test_corpus_stat_spill_dir_parity(ray_session, tmp_path):
    """spill_dir= swaps the object-store pin for Parquet write+re-read
    (spill.pin_or_spill); results must be identical."""
    from zeeklog_ray.ops.text import bigram_pmi_topk, rare_word_stats

    rng = np.random.default_rng(13)
    vocab = [f"w{i}" for i in range(30)]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(2, 20)))
             for _ in range(60)]
    df = pd.DataFrame({"doc_id": np.arange(60), "text": texts})
    ds = ray.data.from_pandas(df)
    a = bigram_pmi_topk(ds, k=5, min_count=2)
    b = bigram_pmi_topk(ds, k=5, min_count=2,
                        spill_dir=str(tmp_path / "pmi"))
    pd.testing.assert_frame_equal(a, b)
    ra = rare_word_stats(ds, min_corpus_count=8) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    rb = rare_word_stats(ds, min_corpus_count=8,
                         spill_dir=str(tmp_path / "rare")).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(ra, rb[ra.columns.tolist()])


def test_source_distinctive_terms_hand_computed(ray_session, monkeypatch):
    """Two sources, one word exclusive to each: the exclusive word tops
    its source's ranking with the hand-computed integer score; the
    shared word scores low in both.  Also checks min_count filtering,
    block-layout invariance (1 block vs row-per-block) and the
    bucketed-join attach tier (zero heap budget)."""
    import ray.data

    from zeeklog_ray.ops.text import source_distinctive_terms

    # s1: code x5, the x5 (N_s1=10); s2: legal x10, the x10 (N_s2=20)
    docs = pd.DataFrame({
        "source": ["s1", "s1", "s2", "s2"],
        "text": ["code code code code code", "the the the the the",
                 "legal legal legal legal legal legal legal legal legal legal",
                 "the the the the the the the the the the"],
    })
    out = source_distinctive_terms(ray.data.from_pandas(docs), k=10,
                                   min_count=1) \
        .to_pandas().sort_values(["source", "rank"]).reset_index(drop=True)
    s1 = out[out["source"] == "s1"].set_index("word")
    # code: rin = 5*1e6//10 = 500000; rout = 0*1e6//20 = 0
    #   score = 500000*1e4 // 1 = 5_000_000_000
    assert s1.loc["code", "score_e4"] == 5_000_000_000
    assert s1.loc["code", "rank"] == 1
    assert s1.loc["code", "tf_source"] == 5
    # the: rin = 500000; rout = 10*1e6//20 = 500000
    #   score = 500000*1e4 // 500001 = 9999
    assert s1.loc["the", "score_e4"] == 9_999
    s2 = out[out["source"] == "s2"].set_index("word")
    # legal: rin = 10*1e6//20 = 500000; rout = 0 -> 5e9
    assert s2.loc["legal", "score_e4"] == 5_000_000_000
    # the in s2: rin = 500000; rout = 5*1e6//10 = 500000 -> 9999
    assert s2.loc["the", "score_e4"] == 9_999

    # min_count filters the rare word out entirely
    out2 = source_distinctive_terms(ray.data.from_pandas(docs), k=10,
                                    min_count=6).to_pandas()
    assert "code" not in set(out2["word"])      # c_w = 5 < 6
    assert {"legal", "the"} == set(out2["word"])

    # block-layout invariance: one row per block gives identical output
    rowwise = ray.data.from_pandas(
        [docs.iloc[[i]] for i in range(len(docs))])
    out3 = source_distinctive_terms(rowwise, k=10, min_count=1).to_pandas() \
        .sort_values(["source", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(out, out3)

    monkeypatch.setattr(relational, "HEAP_BUDGET_BYTES", 0)
    out4 = source_distinctive_terms(ray.data.from_pandas(docs), k=10,
                                    min_count=1) \
        .to_pandas().sort_values(["source", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(out, out4[out.columns.tolist()])


def test_passage_chunks_hand_and_layout():
    from zeeklog_ray.ops.text import passage_chunks

    df = pd.DataFrame({"doc_id": [1, 2, 3],
                       "text": ["a b c d e f g", "x  y", ""]})
    out = passage_chunks(ray.data.from_pandas(df), chunk_words=4,
                         stride=3).to_pandas() \
        .sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)
    assert out["chunk_text"].tolist() == ["a b c d", "d e f g", "g", "x y"]
    assert out["n_words"].tolist() == [4, 4, 1, 2]
    # block layout must not change the chunking
    out2 = passage_chunks(ray.data.from_pandas(df).repartition(3),
                          chunk_words=4, stride=3).to_pandas() \
        .sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)
    assert out2.equals(out)
    # stride larger than the window: disjoint chunks with gaps
    gap = passage_chunks(ray.data.from_pandas(df), chunk_words=2,
                         stride=5).to_pandas()
    assert gap[gap["doc_id"] == 1]["chunk_text"].tolist() == ["a b", "f g"]
    with pytest.raises(ValueError):
        passage_chunks(ray.data.from_pandas(df), chunk_words=0)
