"""Dedup family tests: shingles, MinHash+LSH, SimHash, Jaccard verify,
first-wins, embedding cosine pairs."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from zeeklog_ray import relational
from zeeklog_ray.ops.dedup import (
    _shingle_hashes,
    embedding_cosine_pairs,
    first_wins,
    minhash_lsh_pairs,
    minhash_signatures,
    ngram_jaccard,
    simhash_signatures,
)

BASE = ("the quick brown fox jumps over the lazy dog while the "
        "sun sets slowly behind the distant purple mountains today")
NEAR = BASE.replace("lazy", "sleepy")          # one-word edit → near-dup
FAR = ("completely different content about database engines and "
       "vectorized execution with arrow columnar batches and shuffles")


@pytest.fixture()
def docs(ray_session):
    df = pd.DataFrame({"doc_id": [1, 2, 3, 4],
                       "text": [BASE, NEAR, FAR, BASE]})
    return ray.data.from_pandas(df), df


def test_shingle_hashes_counts():
    texts = pd.Series([BASE, "tiny", ""])
    h, offsets = _shingle_hashes(texts, k=5)
    exp = [max(0, len(t.encode()) - 4) for t in texts]
    assert np.diff(offsets).tolist() == exp
    assert len(h) == sum(exp)


def test_minhash_identical_docs_equal_signatures(docs):
    ds, _ = docs
    sig = minhash_signatures(ds, num_perm=16).to_pandas().set_index("doc_id")
    assert sig.loc[1].equals(sig.loc[4])       # identical text
    sim12 = (sig.loc[1] == sig.loc[2]).mean()  # near-dup: most mins agree
    sim13 = (sig.loc[1] == sig.loc[3]).mean()  # unrelated: few agree
    assert sim12 > 0.5 > sim13


def test_minhash_lsh_finds_near_dups(docs):
    ds, _ = docs
    pairs = minhash_lsh_pairs(ds, num_perm=32, bands=16).to_pandas()
    got = {tuple(sorted(p)) for p in zip(pairs["doc_a"], pairs["doc_b"])}
    assert (1, 4) in got                       # exact dup always collides
    assert (1, 2) in got or (2, 4) in got      # near-dup found
    assert (1, 3) not in got and (2, 3) not in got


def test_minhash_lsh_spill_dir_parity(docs, tmp_path):
    """spill_dir= swaps the banded-rows object-store pin for a Parquet
    write + lazy re-read; the pair set must be identical and the spill
    files must actually exist."""
    import os

    ds, _ = docs
    spill = str(tmp_path / "spill")
    kw = dict(num_perm=32, bands=16)
    pinned = minhash_lsh_pairs(ds, **kw).to_pandas() \
        .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    spilled = minhash_lsh_pairs(ds, spill_dir=spill, **kw).to_pandas() \
        .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(pinned, spilled)
    assert os.listdir(os.path.join(spill, "lsh_banded"))


def test_ngram_jaccard_verify():
    j = ngram_jaccard(pd.Series([BASE, BASE]), pd.Series([NEAR, FAR]), k=5)
    assert j[0] > 0.6          # near-dup verified similar
    assert j[1] < 0.1          # unrelated verified dissimilar


def test_simhash_hamming(docs):
    ds, _ = docs
    sh = simhash_signatures(ds).to_pandas().set_index("doc_id")["simhash"]

    def ham(a, b):
        return bin(np.uint64(a) ^ np.uint64(b)).count("1")

    assert ham(sh.loc[1], sh.loc[4]) == 0
    assert ham(sh.loc[1], sh.loc[2]) < ham(sh.loc[1], sh.loc[3])
    assert ham(sh.loc[1], sh.loc[2]) <= 12


@pytest.mark.parametrize("nb", [1024, 1])
def test_first_wins(ray_session, in_blocks, nb):
    """nb=1 (one input block) puts every key in one exchange call —
    exercising the multi-key sort+drop_duplicates path."""
    df = pd.DataFrame({"ip": ["a", "a", "b", "b", "c"],
                       "date": ["2024-07-03", "2024-07-02", "2024-07-02",
                                "2024-07-04", "2024-07-04"]})
    out = first_wins(in_blocks(df, nb), key="ip", order_col="date") \
        .to_pandas().set_index("ip")["date"]
    assert out.to_dict() == {"a": "2024-07-02", "b": "2024-07-02",
                             "c": "2024-07-04"}


def test_embedding_cosine_pairs(ray_session):
    rng = np.random.default_rng(3)
    v = rng.normal(0, 1, (6, 8))
    v[1] = v[0] + rng.normal(0, 0.01, 8)       # planted near-dup of 0
    df = pd.DataFrame({"vec_id": range(6),
                       "embedding": [row.astype("float32") for row in v],
                       "label": [0, 0, 0, 1, 1, 1]})
    out = embedding_cosine_pairs(ray.data.from_pandas(df), threshold_e4=9500,
                                 block_col="label").to_pandas()
    pairs = set(zip(out["id_a"], out["id_b"]))
    assert (0, 1) in pairs
    # cross-label pairs are never emitted (blocking)
    assert all(a // 3 == b // 3 for a, b in pairs)
    # score matches a direct numpy computation
    row = out[(out["id_a"] == 0) & (out["id_b"] == 1)].iloc[0]
    m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    assert row["cos_e4"] == int(np.floor((m[0] @ m[1]) * 10000))


def test_minhash_planted_dups_recall(ray_session):
    """End-to-end near-dup recall on a corpus with planted one-word-edit
    duplicates (the measurable dedup scenario a training pipeline cares
    about)."""
    import ray.data
    from synthdocs import make_documents_frame

    from zeeklog_ray.ops.dedup import minhash_lsh_pairs

    df = make_documents_frame(4000, dup_rate=0.05)
    planted = {(int(s), int(i)) for i, s in
               zip(df.index[df["is_dup_of"] >= 0], df[df["is_dup_of"] >= 0]["is_dup_of"])}
    ds = ray.data.from_pandas(df[["doc_id", "text"]]).repartition(4)
    pairs = minhash_lsh_pairs(ds).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(pairs["doc_a"], pairs["doc_b"])}
    found = sum(1 for p in planted if p in got)
    recall = found / len(planted)
    assert recall >= 0.9, recall
    # precision guard: candidate count stays near the planted count
    assert len(got) <= len(planted) * 3


def test_packed_kgram_sets_exact():
    from zeeklog_ray.ops.dedup import _packed_kgram_sets

    texts = pd.Series([BASE, "tiny", "", "abcde"])
    got = _packed_kgram_sets(texts, k=5)
    for t, g in zip(texts, got):
        b = t.encode()
        exp = {int.from_bytes(b[i:i + 5], "big")
               for i in range(max(0, len(b) - 4))}
        assert set(g.tolist()) == exp
    with pytest.raises(ValueError):
        _packed_kgram_sets(texts, k=9)


def test_ngram_jaccard_counts_matches_float_version():
    from zeeklog_ray.ops.dedup import ngram_jaccard_counts

    a = pd.Series([BASE, BASE, "tiny", ""])
    b = pd.Series([NEAR, FAR, "tiny", ""])
    inter, union = ngram_jaccard_counts(a, b, k=5)
    jf = ngram_jaccard(a, b, k=5)
    got = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
    assert np.allclose(got, jf)
    assert union[3] == 0 and inter[3] == 0     # empty texts: no grams


def test_ngram_jaccard_dedup_pairs(ray_session):
    from zeeklog_ray.ops.dedup import ngram_jaccard_dedup_pairs

    df = pd.DataFrame({"doc_id": [1, 2, 3, 4],
                       "text": [BASE, NEAR, FAR, BASE]})
    out = ngram_jaccard_dedup_pairs(
        ray.data.from_pandas(df), threshold_e4=5000,
        num_perm=32, bands=16).to_pandas()
    got = {(a, b): j for a, b, j in
           zip(out["doc_a"], out["doc_b"], out["j_e4"])}
    assert got[(1, 4)] == 10_000               # exact dup: J = 1
    assert (1, 2) in got and got[(1, 2)] >= 5000   # near-dup survives
    assert all(b != 3 and a != 3 for a, b in got)  # unrelated filtered


def test_ngram_jaccard_dedup_pairs_join_tier_parity(ray_session,
                                                    monkeypatch):
    """A zero heap budget forces the partitioned bucketed-join verify
    tier (and the Dataset-groupby over-cap bucket count); planted dups
    must come out IDENTICAL to the broadcast tier (same pairs, same
    j_e4)."""
    from zeeklog_ray.ops.dedup import ngram_jaccard_dedup_pairs

    # planted near-dup clusters across enough docs that LSH yields a
    # non-trivial candidate set: 30 docs, ids 0..29, dup partner = id+100
    rows = []
    for i in range(30):
        t = f"{BASE} variant {i} " + "filler words " * 3
        rows.append((i, t))
        rows.append((i + 100, t + ("x" if i % 3 == 0 else "")))
    df = pd.DataFrame(rows, columns=["doc_id", "text"])
    kw = dict(threshold_e4=5000, num_perm=16, bands=8)
    broad = ngram_jaccard_dedup_pairs(
        ray.data.from_pandas(df), **kw).to_pandas() \
        .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    monkeypatch.setattr(relational, "HEAP_BUDGET_BYTES", 0)
    joined = ngram_jaccard_dedup_pairs(
        ray.data.from_pandas(df), **kw).to_pandas() \
        .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    assert len(broad) > 0                       # planted dups were found
    pd.testing.assert_frame_equal(broad, joined)
    # every planted exact pair (i, i+100) with identical text is present
    exact = {(i, i + 100) for i in range(30) if i % 3 != 0}
    got = set(zip(broad["doc_a"], broad["doc_b"]))
    assert exact <= got


def test_ngram_jaccard_verify_tier_priced_in_utf8_bytes(ray_session,
                                                        monkeypatch):
    """The candidate-text lookup is priced in UTF-8 bytes, not
    characters: multibyte texts whose character count fits the heap
    budget but whose bytes do not take the bucketed-join verify tier,
    with the same pairs as the broadcast tier."""
    from zeeklog_ray.ops.dedup import ngram_jaccard_dedup_pairs

    rows = []
    for i in range(12):
        t = f"ĉiu ŝanĝo ĝenas ĉefe {i} " + "ŭaŭ ĥoro ĵaŭdo " * 3
        rows += [(i, t), (i + 100, t + "ĵ")]
    df = pd.DataFrame(rows, columns=["doc_id", "text"])
    kw = dict(threshold_e4=5000, num_perm=16, bands=8)
    cand = minhash_lsh_pairs(ray.data.from_pandas(df), num_perm=16,
                             bands=8).to_pandas()
    ids = np.unique(cand[["doc_a", "doc_b"]].to_numpy())
    texts = df.set_index("doc_id").loc[ids, "text"]
    n_chars = int(texts.str.len().sum())
    n_bytes = int(texts.str.encode("utf-8").str.len().sum())
    id_bytes = len(ids) * relational.PY_ROW_BYTES
    assert len(ids) and n_bytes > n_chars

    joins = []
    real_join = relational.bucketed_equi_join
    monkeypatch.setattr(relational, "bucketed_equi_join",
                        lambda *a, **k: joins.append(1) or real_join(*a, **k))

    def run() -> pd.DataFrame:
        return ngram_jaccard_dedup_pairs(
            ray.data.from_pandas(df), **kw).to_pandas() \
            .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)

    monkeypatch.setattr(relational, "HEAP_BUDGET_BYTES", n_bytes + id_bytes)
    broad = run()
    assert joins == []                       # byte price fits: broadcast
    monkeypatch.setattr(relational, "HEAP_BUDGET_BYTES", n_chars + id_bytes)
    joined = run()
    assert len(joins) == 2                   # chars fit, bytes do not
    assert len(broad) > 0
    pd.testing.assert_frame_equal(broad, joined)


def test_levenshtein_pairs_matches_duckdb():
    import random

    import duckdb

    from zeeklog_ray.ops.dedup import levenshtein_pairs

    random.seed(7)
    alpha = "abcde é雪 "
    a = ["".join(random.choices(alpha, k=random.randint(0, 25)))
         for _ in range(200)]
    b = ["".join(random.choices(alpha, k=random.randint(0, 25)))
         for _ in range(200)]
    b[:30] = a[:30]                       # exact dups
    b[30:60] = [s + "x" for s in a[30:60]]  # one-edit dups
    got = levenshtein_pairs(pd.Series(a), pd.Series(b))
    con = duckdb.connect()
    exp = [con.execute("SELECT levenshtein(?, ?)", [x, y]).fetchone()[0]
           for x, y in zip(a, b)]
    con.close()
    assert got.tolist() == exp
    # byte-level contract pinned: é is two UTF-8 bytes
    assert levenshtein_pairs(pd.Series(["café"]),
                             pd.Series(["cafe"])).tolist() == [2]


def test_levenshtein_pairs_edges():
    from zeeklog_ray.ops.dedup import levenshtein_pairs

    assert levenshtein_pairs(pd.Series([], dtype=object),
                             pd.Series([], dtype=object)).tolist() == []
    assert levenshtein_pairs(pd.Series(["", "a", ""]),
                             pd.Series(["", "", "xyz"])).tolist() == [0, 1, 3]
    with pytest.raises(ValueError, match="over 8 bytes"):
        levenshtein_pairs(pd.Series(["123456789"]), pd.Series(["x"]),
                          max_bytes=8)


# ---- semantic_dedup_pairs -------------------------------------------------


def _planted_embeddings(n_base=300, n_dirs=6, dim=12, n_dups=40, seed=21):
    """Vectors spread over a few cone directions + planted near-dups
    (tiny perturbations of existing rows).  Returns (frame, planted pair
    set {(lo_id, hi_id)})."""
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n_dirs, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    base = dirs[rng.integers(0, n_dirs, n_base)] + \
        rng.normal(scale=0.15, size=(n_base, dim))
    src = rng.integers(0, n_base, n_dups)
    dups = base[src] + rng.normal(scale=1e-3, size=(n_dups, dim))
    mat = np.vstack([base, dups])
    ids = np.arange(len(mat), dtype=np.int64)
    planted = {(int(s), int(n_base + i)) for i, s in enumerate(src)}
    df = pd.DataFrame({"vec_id": ids,
                       "embedding": [r.astype(np.float32) for r in mat]})
    return df, planted


def test_semantic_dedup_recall_and_exact_precision(ray_session):
    from zeeklog_ray.ops.dedup import (
        embedding_cosine_pairs,
        semantic_dedup_pairs,
    )

    df, planted = _planted_embeddings()
    ds = ray.data.from_pandas(df, override_num_blocks=5)
    got = semantic_dedup_pairs(ds, threshold_e4=9990, n_clusters=6,
                               n_probes=2, seed=7).to_pandas()
    pairs = {(int(a), int(b)) for a, b in zip(got["id_a"], got["id_b"])}
    # no duplicate pairs survived the multi-probe distinct, ids ordered
    assert len(pairs) == len(got)
    assert (got["id_a"] < got["id_b"]).all()
    # recall on planted near-dups (cos ≈ 1 − 1e-6)
    found = sum(1 for p in planted if p in pairs)
    assert found / len(planted) >= 0.9
    # precision is EXACT by construction: every returned pair must appear
    # in the unblocked all-pairs ground truth at the same threshold
    exact = embedding_cosine_pairs(
        ray.data.from_pandas(df), threshold_e4=9990,
        block_col=None, max_block_rows=10_000).to_pandas()
    truth = {(int(a), int(b)) for a, b in zip(exact["id_a"], exact["id_b"])}
    assert pairs <= truth


def test_semantic_dedup_more_probes_never_lose_pairs(ray_session):
    from zeeklog_ray.ops.dedup import semantic_dedup_pairs

    df, _ = _planted_embeddings(n_base=150, n_dups=25, seed=3)
    ds = ray.data.from_pandas(df)
    p1 = semantic_dedup_pairs(ds, threshold_e4=9990, n_clusters=5,
                              n_probes=1, seed=7).to_pandas()
    p2 = semantic_dedup_pairs(ds, threshold_e4=9990, n_clusters=5,
                              n_probes=2, seed=7).to_pandas()
    s1 = {(int(a), int(b)) for a, b in zip(p1["id_a"], p1["id_b"])}
    s2 = {(int(a), int(b)) for a, b in zip(p2["id_a"], p2["id_b"])}
    assert s1 <= s2


def test_semantic_dedup_validation(ray_session):
    from zeeklog_ray.ops.dedup import semantic_dedup_pairs

    df, _ = _planted_embeddings(n_base=20, n_dups=2)
    with pytest.raises(ValueError, match="n_probes"):
        semantic_dedup_pairs(ray.data.from_pandas(df), 9000, n_probes=0)


def test_semantic_dedup_survives_empty_blocks(ray_session):
    from zeeklog_ray.ops.dedup import semantic_dedup_pairs

    df, _ = _planted_embeddings(n_base=80, n_dups=10, seed=5)
    ds = ray.data.from_pandas(df, override_num_blocks=4).map_batches(
        lambda b: b[b["vec_id"] >= 40], batch_format="pandas",
        batch_size=None)
    got = semantic_dedup_pairs(ds, threshold_e4=9990, n_clusters=4,
                               n_probes=2, seed=7).to_pandas()
    # survivors only; no crash from the emptied blocks
    if len(got):
        assert (got["id_a"] >= 40).all()


def _brute_dup_windows(df: pd.DataFrame, k: int = 8) -> dict[int, tuple]:
    """Pure-Python reference: per doc (n_windows, dup_windows) where a
    window (tuple of k words) is dup iff its WORD TUPLE appears in >= 2
    distinct docs (hashes are injective here — parity with the hash path
    is exactly what the test asserts)."""
    grams: dict[tuple, set] = {}
    per_doc: dict[int, list] = {}
    for _, r in df.iterrows():
        words = [w for w in r["text"].split(" ") if w != ""]
        ws = [tuple(words[i:i + k]) for i in range(len(words) - k + 1)]
        per_doc[r["doc_id"]] = ws
        for w in ws:
            grams.setdefault(w, set()).add(r["doc_id"])
    return {d: (len(ws), sum(1 for w in ws if len(grams[w]) >= 2))
            for d, ws in per_doc.items()}


def test_duplicated_window_stats_planted(ray_session, monkeypatch):
    from zeeklog_ray.ops.dedup import duplicated_window_stats

    shared = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    df = pd.DataFrame({"doc_id": [1, 2, 3, 4, 5], "text": [
        "intro words here " + shared + " tail one",
        "other opening " + shared + " different ending stuff",
        "no overlap at all in this particular document body text "
        "keeps going with more unique words",
        "short doc",                       # < k words → 0 windows
        "intro words here " + shared + " tail one",   # exact dup of 1
    ]})
    out = duplicated_window_stats(ray.data.from_pandas(df)) \
        .to_pandas().set_index("doc_id").sort_index()
    ref = _brute_dup_windows(df)
    for d, (nw, dw) in ref.items():
        assert out.loc[d, "n_windows"] == nw
        assert out.loc[d, "dup_windows"] == dw
        assert out.loc[d, "dup_ratio_e4"] == dw * 10_000 // max(nw, 1)
    assert out.loc[4, "n_windows"] == 0 and out.loc[4, "dup_ratio_e4"] == 0
    assert out.loc[5, "dup_windows"] == out.loc[5, "n_windows"]  # exact dup
    assert out.loc[3, "dup_windows"] == 0
    # union-sum finish tier (zero heap budget) agrees exactly
    monkeypatch.setattr(relational, "HEAP_BUDGET_BYTES", 0)
    dist = duplicated_window_stats(ray.data.from_pandas(df)) \
        .to_pandas().set_index("doc_id").sort_index()
    pd.testing.assert_frame_equal(out, dist[out.columns.tolist()])


def test_duplicated_window_stats_batch_invariance(ray_session):
    """Same answer at any block layout — the property the distributed
    run relies on (docs are rows; windows never cross batches)."""
    from zeeklog_ray.ops.dedup import duplicated_window_stats

    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(30)]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(2, 40)))
             for _ in range(60)]
    df = pd.DataFrame({"doc_id": np.arange(60), "text": texts})
    a = duplicated_window_stats(ray.data.from_pandas(df)) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = duplicated_window_stats(
        ray.data.from_pandas(df).repartition(13)) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    ref = _brute_dup_windows(df)
    got = {int(r.doc_id): (int(r.n_windows), int(r.dup_windows))
           for r in a.itertuples()}
    assert got == ref


def _brute_remove_spans(df: pd.DataFrame, k: int = 8) -> dict[int, tuple]:
    grams: dict[tuple, set] = {}
    per_doc: dict[int, list] = {}
    for _, r in df.iterrows():
        words = [w for w in (r["text"] or "").split(" ") if w != ""]
        per_doc[r["doc_id"]] = words
        for i in range(len(words) - k + 1):
            grams.setdefault(tuple(words[i:i + k]), set()).add(r["doc_id"])
    out = {}
    for d, words in per_doc.items():
        cov = [False] * len(words)
        for i in range(len(words) - k + 1):
            if len(grams[tuple(words[i:i + k])]) >= 2:
                for j in range(i, i + k):
                    cov[j] = True
        kept = [w for w, c in zip(words, cov) if not c]
        out[d] = (" ".join(kept), len(words), sum(cov))
    return out


@pytest.mark.parametrize("heap_tier", [2_000_000, 0], indirect=True)
def test_remove_dup_spans_tiers(ray_session, heap_tier):
    from zeeklog_ray.ops.dedup import remove_dup_spans

    shared = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    df = pd.DataFrame({"doc_id": [1, 2, 3, 4, 5], "text": [
        "intro words here " + shared + " tail one",
        "other opening " + shared + " different ending stuff",
        "no overlap at all in this particular document body text "
        "keeps going onward",
        "short doc",
        None,             # a null text is a document with no words
    ]})
    out = remove_dup_spans(ray.data.from_pandas(df).repartition(3)) \
        .to_pandas().set_index("doc_id").sort_index()
    ref = _brute_remove_spans(df)
    assert out.index.tolist() == [1, 2, 3, 4, 5]
    for d, (clean, nw, nr) in ref.items():
        assert out.loc[d, "text_clean"] == clean, d
        assert out.loc[d, "n_words"] == nw
        assert out.loc[d, "n_removed"] == nr
    # the shared span is gone from both docs that contained it
    assert "gamma" not in out.loc[1, "text_clean"]
    assert out.loc[3, "n_removed"] == 0
    assert out.loc[4, "text_clean"] == "short doc"


def test_remove_dup_spans_random_cross_tier(ray_session, monkeypatch):
    from zeeklog_ray.ops.dedup import remove_dup_spans

    rng = np.random.default_rng(17)
    vocab = [f"w{i}" for i in range(25)]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(0, 30)))
             for _ in range(50)]
    texts += texts[:10]                      # planted exact dups
    df = pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts})
    a = remove_dup_spans(ray.data.from_pandas(df)) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    monkeypatch.setattr(relational, "HEAP_BUDGET_BYTES", 0)
    b = remove_dup_spans(ray.data.from_pandas(df).repartition(7)) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b[a.columns.tolist()])
    ref = _brute_remove_spans(df)
    got = {int(r.doc_id): (r.text_clean, int(r.n_words), int(r.n_removed))
           for r in a.itertuples()}
    assert got == ref


def _ref_cdc(text, window=4, mask_bits=5, min_words=8, max_words=64):
    """Pure-Python reference for cdc_chunk_table: per-word codepoint
    Horner (seed 0, base 1000003), rolling window Horner (base
    1099511628211) mask test, min/max-bounded boundary walk."""
    P, Q, M = 1000003, 1099511628211, 1 << 64
    mask = (1 << mask_bits) - 1
    words = [w for w in text.split(" ") if w]
    wh = []
    for w in words:
        h = 0
        for c in w:
            h = (h * P + ord(c)) % M
        wh.append(h)
    n = len(wh)
    cand = set()
    for i in range(window - 1, n):
        g = 0
        for j in range(i - window + 1, i + 1):
            g = (g * Q + wh[j]) % M
        if g & mask == 0:
            cand.add(i)
    out = []
    start = 0
    while start < n:
        lo, hi = start + min_words - 1, start + max_words - 1
        cut = next((i for i in range(lo, min(hi, n - 1) + 1) if i in cand),
                   None)
        if cut is None:
            cut = min(hi, n - 1)
        h = 0
        for j in range(start, cut + 1):
            h = (h * Q + wh[j]) % M
        out.append((h - M if h >= M // 2 else h, cut + 1 - start))
        start = cut + 1
    return out


def test_cdc_chunk_table_matches_reference(ray_session):
    """Vectorized chunker == pure-Python reference on random docs
    (including empty / short / single-word docs), in document order."""
    import ray.data

    from zeeklog_ray.ops.dedup import cdc_chunk_table

    rng = np.random.default_rng(42)
    vocab = [f"w{i:03d}" for i in range(200)]
    texts = ["", "one", "  double  spaces  "]
    for L in [5, 8, 30, 100, 400]:
        texts.append(" ".join(rng.choice(vocab, size=L)))
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    got = cdc_chunk_table(ray.data.from_pandas(df).repartition(3),
                          window=4, mask_bits=4, min_words=4,
                          max_words=32).to_pandas()
    for doc_id, text in zip(df["doc_id"], df["text"]):
        ref = _ref_cdc(text, window=4, mask_bits=4, min_words=4,
                       max_words=32)
        sub = got[got["doc_id"] == doc_id]
        assert [(h, w) for h, w in
                zip(sub["chunk_hash"], sub["chunk_words"])] == ref, doc_id
    # coverage: chunk words sum to doc words; length bounds hold for all
    # but each doc's final chunk
    for doc_id, text in zip(df["doc_id"], df["text"]):
        nw = len([w for w in text.split(" ") if w])
        sub = got[got["doc_id"] == doc_id]
        assert sub["chunk_words"].sum() == nw
        assert (sub["chunk_words"] <= 32).all()
        if len(sub) > 1:
            assert (sub["chunk_words"].iloc[:-1] >= 4).all()


def test_cdc_dup_stats_planted_and_edit_robust(ray_session, monkeypatch):
    """A planted copy with a novel 5-word prefix still shares most
    chunks with the original (boundaries resync on content); unrelated
    docs share nothing; neither block layout nor the finish tier (zero
    heap budget) changes the answer."""
    import ray.data

    from zeeklog_ray.ops.dedup import cdc_dup_stats

    rng = np.random.default_rng(7)
    vocab = [f"tok{i:04d}" for i in range(500)]
    base = " ".join(rng.choice(vocab, size=400))
    edited = "alpha beta gamma delta epsilon " + base
    other = " ".join(rng.choice(vocab, size=400))  # same vocab, new order
    df = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": [base, edited, other],
    })
    kw = dict(window=4, mask_bits=4, min_words=4, max_words=32)
    out = cdc_dup_stats(ray.data.from_pandas(df), **kw).to_pandas() \
        .set_index("doc_id").sort_index()
    assert out.loc[1, "n_words"] == 400
    assert out.loc[2, "n_words"] == 405
    # the edit perturbs only the chunk(s) before the first resync point
    assert out.loc[1, "shared_ratio_e4"] >= 7_000
    assert out.loc[2, "shared_words"] == out.loc[1, "shared_words"]
    assert out.loc[3, "shared_words"] == 0

    rowwise = ray.data.from_pandas([df.iloc[[i]] for i in range(3)])
    out2 = cdc_dup_stats(rowwise, **kw).to_pandas() \
        .set_index("doc_id").sort_index()
    pd.testing.assert_frame_equal(out, out2)
    monkeypatch.setattr(relational, "HEAP_BUDGET_BYTES", 0)
    dist = cdc_dup_stats(ray.data.from_pandas(df), **kw).to_pandas() \
        .set_index("doc_id").sort_index()
    pd.testing.assert_frame_equal(out, dist[out.columns.tolist()])


def test_cdc_screen_then_verify_planted(ray_session, monkeypatch):
    """Planted near-copies screen in together and get exact window
    stats; clean docs never reach (or pay for) the verify tier; the
    bucketed-join suspect tier (zero heap budget) agrees exactly; an
    all-clean corpus returns an empty frame with the contract schema."""
    import ray.data

    from zeeklog_ray.ops.dedup import (
        cdc_screen_then_verify,
        duplicated_window_stats,
    )

    rng = np.random.default_rng(11)
    vocab = [f"tok{i:04d}" for i in range(500)]
    base = " ".join(rng.choice(vocab, size=300))
    near = "zzz yyy xxx " + base           # shared spans with base
    clean = [" ".join(rng.choice(vocab, size=300)) for _ in range(4)]
    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5, 6],
        "text": [base, near] + clean,
    })
    kw = dict(window=4, mask_bits=4, min_words=4, max_words=32,
              screen_ratio_e4=2_000)
    out = cdc_screen_then_verify(ray.data.from_pandas(df), **kw) \
        .to_pandas().set_index("doc_id").sort_index()
    # only the planted pair survives the screen
    assert set(out.index) == {1, 2}
    # exact tier within the suspect subset == window stats over just
    # the pair (both copies screened in together)
    ref = duplicated_window_stats(
        ray.data.from_pandas(df[df.doc_id.isin([1, 2])]), k=8) \
        .to_pandas().set_index("doc_id").sort_index()
    for c in ["n_windows", "dup_windows", "dup_ratio_e4"]:
        assert (out[c] == ref[c]).all(), c
    assert (out["screen_ratio_e4"] >= 2_000).all()
    assert out.loc[1, "dup_ratio_e4"] > 8_000
    with monkeypatch.context() as m:
        m.setattr(relational, "HEAP_BUDGET_BYTES", 0)
        dist = cdc_screen_then_verify(ray.data.from_pandas(df), **kw) \
            .to_pandas().set_index("doc_id").sort_index()
    pd.testing.assert_frame_equal(out, dist[out.columns.tolist()])

    # all-clean corpus -> empty result with the contract schema on the
    # DATASET (Ray 2.49's zero-row .to_pandas() loses the columns)
    ds2 = cdc_screen_then_verify(
        ray.data.from_pandas(df[df.doc_id >= 3]), **kw)
    assert ds2.count() == 0
    assert ds2.schema().names == ["doc_id", "n_windows", "dup_windows",
                                  "dup_ratio_e4", "screen_ratio_e4"]


from hypothesis import given, settings
from hypothesis import strategies as st

_word = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=0x2FF),
    min_size=1, max_size=6)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(_word, min_size=0, max_size=80),
                min_size=1, max_size=6),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=4, max_value=16))
def test_cdc_chunker_property_matches_reference(ray_session, doc_words,
                                                min_words, max_span):
    """Property: for arbitrary unicode words and min/max bounds, the
    vectorized chunker equals the pure-Python reference per doc, chunks
    cover every word exactly once, and no chunk exceeds max_words."""
    import ray.data

    from zeeklog_ray.ops.dedup import cdc_chunk_table

    max_words = min_words + max_span
    df = pd.DataFrame({
        "doc_id": range(len(doc_words)),
        "text": [" ".join(ws) for ws in doc_words],
    })
    got = cdc_chunk_table(ray.data.from_pandas(df), window=3, mask_bits=2,
                          min_words=min_words, max_words=max_words) \
        .to_pandas()
    if got.empty:
        # zero-row to_pandas loses columns (documented Ray 2.49 wart);
        # the property still holds iff every reference is empty too
        assert all(_ref_cdc(t, window=3, mask_bits=2,
                            min_words=min_words, max_words=max_words) == []
                   for t in df["text"])
        return
    for doc_id, text in zip(df["doc_id"], df["text"]):
        ref = _ref_cdc(text, window=3, mask_bits=2, min_words=min_words,
                       max_words=max_words)
        sub = got[got["doc_id"] == doc_id]
        assert [(h, w) for h, w in
                zip(sub["chunk_hash"], sub["chunk_words"])] == ref
        nw = len([w for w in text.split(" ") if w])
        assert sub["chunk_words"].sum() == nw
        assert (sub["chunk_words"] <= max_words).all()


def test_cdc_screen_asymmetric_copy_documents_recall_limit(ray_session):
    """ADVICE r4: a span shared between a SHORT doc and a LONG doc whose
    overall shared ratio stays below the screen threshold drops the long
    doc at the screen; the surviving short copy then verifies with
    dup_windows = 0 for that span.  This pins the documented recall
    condition (per-document overall ratio), and that a lower threshold
    recovers both copies."""
    import ray.data

    from zeeklog_ray.ops.dedup import cdc_screen_then_verify

    rng = np.random.default_rng(23)
    vocab = [f"tok{i:04d}" for i in range(800)]
    span = " ".join(rng.choice(vocab, size=60))
    long_filler = " ".join(rng.choice(vocab, size=900))
    df = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": [span,                        # short doc = the span
                 long_filler + " " + span,    # long doc, ~6% shared
                 " ".join(rng.choice(vocab, size=200))],
    })
    kw = dict(window=4, mask_bits=4, min_words=4, max_words=32, k=8)
    # high threshold: only the short copy screens in, and within the
    # suspect subset its span has no partner -> dup_windows == 0
    hi = cdc_screen_then_verify(ray.data.from_pandas(df),
                                screen_ratio_e4=5_000, **kw).to_pandas()
    assert set(hi["doc_id"]) == {1}
    assert int(hi["dup_windows"].iloc[0]) == 0
    # low threshold recovers both copies and the span verifies
    lo = cdc_screen_then_verify(ray.data.from_pandas(df),
                                screen_ratio_e4=300, **kw).to_pandas() \
        .set_index("doc_id")
    assert {1, 2} <= set(lo.index)
    assert int(lo.loc[1, "dup_windows"]) > 0
    assert int(lo.loc[2, "dup_windows"]) > 0


def test_incremental_dedup_exact_and_fp_removal(monkeypatch):
    from zeeklog_ray.ops.dedup import incremental_dedup

    rng = np.random.default_rng(7)
    words = np.array(["alpha", "beta", "gamma", "delta", "eps"])
    base_txt = [" ".join(rng.choice(words, 6)) + f" b{i}" for i in range(300)]
    base = pd.DataFrame({"doc_id": np.arange(300), "text": base_txt})
    # new snapshot: 100 fresh docs + 40 exact re-crawls of base content
    fresh = [" ".join(rng.choice(words, 6)) + f" n{i}" for i in range(100)]
    new = pd.DataFrame({
        "doc_id": np.arange(1000, 1140),
        "text": fresh + [base_txt[i] for i in range(0, 120, 3)]})
    # a TINY bloom (high false-positive rate) stresses the verify tier:
    # exactness must come from the 128-bit semi-join, not the screen
    out = incremental_dedup(ray.data.from_pandas(new).repartition(4),
                            ray.data.from_pandas(base).repartition(4),
                            n_bits=256).to_pandas()
    assert sorted(out["doc_id"]) == list(range(1000, 1100))
    # full-base semi-join and bucketed anti tier (zero heap budget)
    # must agree exactly
    monkeypatch.setattr(relational, "HEAP_BUDGET_BYTES", 0)
    out2 = incremental_dedup(ray.data.from_pandas(new).repartition(4),
                             ray.data.from_pandas(base).repartition(4),
                             n_bits=256).to_pandas()
    assert sorted(out2["doc_id"]) == sorted(out["doc_id"])
    assert sorted(out2.columns) == sorted(new.columns)


def test_incremental_dedup_empty_base_passes_everything():
    from zeeklog_ray.ops.dedup import incremental_dedup

    new = pd.DataFrame({"doc_id": [1, 2], "text": ["aa", "bb"]})
    base = pd.DataFrame({"doc_id": pd.array([], dtype="int64"),
                         "text": pd.array([], dtype="string")})
    out = incremental_dedup(ray.data.from_pandas(new),
                            ray.data.from_pandas(base)).to_pandas()
    assert sorted(out["doc_id"]) == [1, 2]


def test_incremental_near_dup_planted_and_tiers(ray_session, monkeypatch):
    from zeeklog_ray.ops.dedup import incremental_near_dup

    rng = np.random.default_rng(11)
    words = np.array(["alpha", "bravo", "charlie", "delta", "echo",
                      "foxtrot", "golf", "hotel", "india", "juliet"])
    base_txt = [" ".join(rng.choice(words, 40)) + f" b{i}"
                for i in range(250)]
    base = pd.DataFrame({"doc_id": np.arange(250), "text": base_txt})
    # new snapshot: 60 fresh + 25 EDITED re-crawls (suffix edit -> high
    # Jaccard but not exact); planted pair (1060+i, i)
    fresh = [" ".join(rng.choice(words, 40)) + f" n{i}" for i in range(60)]
    new = pd.DataFrame({
        "doc_id": np.arange(1000, 1085),
        "text": fresh + [base_txt[i] + " rev2 tail" for i in range(25)]})
    out = incremental_near_dup(
        ray.data.from_pandas(new).repartition(4),
        ray.data.from_pandas(base).repartition(4),
        num_perm=16, bands=4, threshold_e4=5000).to_pandas()
    got = set(zip(out["doc_id"], out["base_id"]))
    planted = {(1060 + i, i) for i in range(25)}
    # LSH at 16x4 on J≈0.95 pairs: P(miss) < 1e-2 per pair; planted
    # recall is asserted exactly because the seed is pinned
    assert planted <= got
    assert (out["j_e4"] >= 5000).all()
    # new-vs-new pairs must never appear (both ids in new id space)
    assert not ((out["doc_id"] >= 1000) & (out["base_id"] >= 1000)).any()

    # partitioned verify tier (zero heap budget) agrees bit-exactly
    with monkeypatch.context() as m:
        m.setattr(relational, "HEAP_BUDGET_BYTES", 0)
        out2 = incremental_near_dup(
            ray.data.from_pandas(new).repartition(4),
            ray.data.from_pandas(base).repartition(4),
            num_perm=16, bands=4, threshold_e4=5000).to_pandas()
    key = ["doc_id", "base_id", "j_e4"]
    pd.testing.assert_frame_equal(
        out[key].sort_values(key).reset_index(drop=True),
        out2[key].sort_values(key).reset_index(drop=True))

    # candidates-only mode: superset of the verified pair set
    cand = incremental_near_dup(
        ray.data.from_pandas(new), ray.data.from_pandas(base),
        num_perm=16, bands=4, threshold_e4=None).to_pandas()
    assert set(zip(out["doc_id"], out["base_id"])) <= \
        set(zip(cand["doc_id"], cand["base_id"]))
    assert sorted(cand.columns) == ["base_id", "doc_id"]


def test_simhash_near_dup_pairs(ray_session):
    """Pigeonhole banding guarantees signature-level recall 1.0: every
    pair within max_hamming MUST be found; hamming values exact; pairs
    beyond the radius absent; layout invariant; over-cap guard."""
    from zeeklog_ray.ops.dedup import (_popcount64, simhash_near_dup_pairs,
                                       simhash_signatures)

    assert _popcount64(np.array([0, 1, 3, (1 << 64) - 1,
                                 1 << 63], dtype=np.uint64)).tolist() \
        == [0, 1, 2, 64, 1]

    rng = np.random.default_rng(5)
    words = np.array(["alpha", "bravo", "charlie", "delta", "echo",
                      "foxtrot", "golf", "hotel", "india", "juliet"])
    base = [" ".join(rng.choice(words, 30)) for _ in range(60)]
    df = pd.DataFrame({
        "doc_id": list(range(60)) + list(range(100, 110)),
        "text": base + [base[i] + " x" for i in range(10)]})

    sig = simhash_signatures(ray.data.from_pandas(df)).to_pandas()
    sigm = dict(zip(sig["doc_id"], sig["simhash"]))

    def ham(a, b):
        return bin((sigm[a] ^ sigm[b]) & ((1 << 64) - 1)).count("1")

    truth = {(a, b): ham(a, b)
             for ai, a in enumerate(sorted(sigm))
             for b in sorted(sigm)[ai + 1:] if ham(a, b) <= 3}

    for nparts in (1, 4):
        out = simhash_near_dup_pairs(
            ray.data.from_pandas(df).repartition(nparts),
            max_hamming=3).to_pandas()
        got = {(a, b): h for a, b, h in
               zip(out["doc_a"], out["doc_b"], out["hamming"])}
        assert got == truth          # exact recall AND exact distances
    assert len(truth) >= 9           # the planted variants are in range

    # over-cap: 40 identical docs -> every band bucket over the cap
    same = pd.DataFrame({"doc_id": np.arange(40),
                         "text": ["same text here"] * 40})
    out = simhash_near_dup_pairs(ray.data.from_pandas(same),
                                 max_bucket=10).to_pandas()
    assert len(out) == 0


def test_normalized_exact_dedup(ray_session):
    """Case/punctuation/whitespace variants collapse to one survivor;
    genuinely distinct content survives; layout-invariant."""
    from zeeklog_ray.ops.dedup import normalize_text, normalized_exact_dedup

    assert normalize_text(pd.Series(
        ["Hello,  World!", "hello world", "HELLO-WORLD.", " a  b\tc\n"]
    )).tolist() == ["hello world"] * 3 + ["a b c"]

    docs = pd.DataFrame({
        "doc_id": [5, 1, 3, 2, 4, 6],
        "text": ["Hello,  World!", "hello world", "HELLO-WORLD.",
                 "spark join", "Spark;Join", "unique doc here"]})
    for nparts in (1, 3):
        out = normalized_exact_dedup(
            ray.data.from_pandas(docs).repartition(nparts)).to_pandas()
        got = dict(zip(out["doc_id"], out["n_dups"]))
        assert got == {1: 3, 2: 2, 6: 1}


def test_incremental_near_dup_persisted_band_table(ray_session, tmp_path):
    """band_table → write_parquet → re-read → base_banded= must agree
    bit-exactly with the in-run banding path (the 100-TB daily-crawl
    shape: the base is banded once per corpus version, not per run)."""
    from zeeklog_ray.ops.dedup import band_table, incremental_near_dup

    rng = np.random.default_rng(12)
    words = np.array(["alpha", "bravo", "charlie", "delta", "echo",
                      "foxtrot", "golf", "hotel", "india", "juliet"])
    base_txt = [" ".join(rng.choice(words, 40)) + f" b{i}"
                for i in range(200)]
    base = pd.DataFrame({"doc_id": np.arange(200), "text": base_txt})
    new = pd.DataFrame({
        "doc_id": np.arange(1000, 1030),
        "text": [base_txt[i] + " rev2 tail" for i in range(30)]})
    base_ds = ray.data.from_pandas(base).repartition(4)
    new_ds = ray.data.from_pandas(new).repartition(2)

    bt_dir = str(tmp_path / "band_table")
    band_table(base_ds, num_perm=16, bands=4).write_parquet(bt_dir)
    out_banded = incremental_near_dup(
        new_ds, base_ds, num_perm=16, bands=4, threshold_e4=5000,
        base_banded=ray.data.read_parquet(bt_dir)).to_pandas()
    out_inrun = incremental_near_dup(
        new_ds, base_ds, num_perm=16, bands=4,
        threshold_e4=5000).to_pandas()
    key = ["doc_id", "base_id", "j_e4"]
    pd.testing.assert_frame_equal(
        out_banded[key].sort_values(key).reset_index(drop=True),
        out_inrun[key].sort_values(key).reset_index(drop=True))
    assert len(out_banded) >= 25  # planted edits recalled


def test_incremental_near_dup_over_cap_guard(ray_session):
    """A degenerate bucket on the BASE side (identical docs beyond
    max_bucket) must be excluded — its members emit no candidates."""
    from zeeklog_ray.ops.dedup import incremental_near_dup

    base = pd.DataFrame({"doc_id": np.arange(40),
                         "text": ["same exact content here"] * 40})
    new = pd.DataFrame({"doc_id": [100], "text": ["same exact content here"]})
    out = incremental_near_dup(ray.data.from_pandas(new),
                               ray.data.from_pandas(base),
                               num_perm=16, bands=4, max_bucket=10,
                               threshold_e4=5000).to_pandas()
    assert len(out) == 0
    # with a cap above the cluster size the pairs come back
    out2 = incremental_near_dup(ray.data.from_pandas(new),
                                ray.data.from_pandas(base),
                                num_perm=16, bands=4, max_bucket=100,
                                threshold_e4=5000).to_pandas()
    assert len(out2) == 40 and (out2["j_e4"] == 10000).all()
