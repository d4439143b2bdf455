"""Keyword retrieval: distributed integer TF-IDF / BM25 top-k over a corpus.

The text complement of the embedding ANN family (ops/similarity.py):
given a bag of query terms, rank documents by a term-frequency relevance
score and return the top-k — the classic sparse-retrieval baseline (and
the first stage of a RAG stack before any dense rerank).  Two scoring
modes, both integer-exact so results hash-replay in SQL:

* TF-IDF: Σ_term tf(term, doc) × ((N·idf_scale) // df(term))
* BM25 (k1 = 6/5, b = 3/4 as exact rationals): the standard
  dl/avgdl-normalized tf saturation, evaluated in scaled integer
  arithmetic —
  tf_norm_e4 = (idf_scale · 44 · avgdl · tf) // (20·avgdl·tf + 6·avgdl + 18·dl)
  score = Σ_term idf(term) · tf_norm_e4
  (derivation: tf·(k1+1) / (tf + k1·(1−b+b·dl/avgdl)) with numerator and
  denominator multiplied by 20·avgdl; avgdl = total_words // N floored).
  Magnitude bound: idf ≤ idf_scale·N and tf_norm_e4 ≤ 2.2·idf_scale, so
  a score is ≤ |terms|·idf_scale·N·2.2·idf_scale = |terms|·2.2·10^8·N at
  the default scale — inside int64 only while N·|terms| ≲ 4·10^10.
  TF-IDF scores are ≤ |terms|·idf_scale·N·max(tf).  Past the bound
  :func:`keyword_search` raises ``ValueError`` before scoring instead of
  letting numpy wrap silently.

Scale shape — shuffle volume is O(postings that MATCH the query), never
the corpus:

1. ONE corpus pass: per batch, whitespace-split, filter to the broadcast
   query-term set, count (doc, term) term frequencies with a C-level
   groupby, carrying each matching doc's word count (dl).  A document
   lives entirely inside one batch, so the per-batch tf rows are already
   COMPLETE — no shuffle is needed to finish them.  The same pass emits
   one sentinel row per batch carrying the batch's doc count and total
   word count, so N and avgdl need no second scan.
2. df / N / avgdl fold on the driver (≤ n_blocks × (|terms|+1) partial
   rows — the term set is query-sized by construction).
3. A second pass over the PINNED match rows scores each posting
   row-locally (broadcast idf dict); totals ride ONE doc-bucketed sum
   (a doc's rows can straddle blocks after a spill re-read), then each
   block emits its top-k and the driver merges k·n_blocks rows.  Ties
   break on doc_id ascending — deterministic across block layouts.

Reference analog: none (the reference has no search); public
inverted-index / Robertson-Spärck-Jones BM25 shape.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray
import ray.data

from zeeklog_ray.spill import pin_or_spill

_N_SENTINEL = ""        # term value carrying per-batch doc/word counts


def _match_rows(texts: pd.Series, ids: np.ndarray,
                terms: frozenset) -> pd.DataFrame:
    """(doc_id, term, tf, dl) rows for query-term matches in one batch,
    plus the sentinel row (tf = batch doc count, dl = batch word
    total).  Vectorized explode + isin + one groupby."""
    words = texts.str.split()
    n_words = words.str.len().to_numpy(np.int64)
    flat = pd.Series(np.concatenate(words.to_numpy())
                     if n_words.sum() else np.array([], dtype=object))
    doc_of = np.repeat(ids, n_words)
    dl_of = np.repeat(n_words, n_words)
    m = flat.isin(terms).to_numpy()
    tf = (pd.DataFrame({"doc_id": doc_of[m], "term": flat.to_numpy()[m],
                        "dl": dl_of[m]})
          .groupby(["doc_id", "term", "dl"], sort=False).size()
          .rename("tf").reset_index())
    sent = pd.DataFrame({"doc_id": [-1], "term": [_N_SENTINEL],
                         "dl": [int(n_words.sum())], "tf": [len(ids)]})
    return pd.concat([tf, sent], ignore_index=True)


def keyword_search(docs: "ray.data.Dataset", query_terms: list[str],
                   k: int = 10, text_col: str = "text",
                   id_col: str = "doc_id", idf_scale: int = 10_000,
                   bm25: bool = False,
                   spill_dir: str | None = None) -> "ray.data.Dataset":
    """Top-``k`` documents for ``query_terms`` by integer TF-IDF (or
    BM25 with ``bm25=True`` — k1 = 1.2, b = 0.75 as exact rationals; see
    module docstring for the scaled-integer form).

    Returns (doc_id, score) sorted by score desc, doc_id asc — exactly
    the SQL ``ORDER BY score DESC, doc_id LIMIT k`` over the same
    integer expression (queries.docs_keyword_search /
    docs_bm25_search).  Terms match corpus tokens byte-exactly after
    whitespace splitting; normalize both sides first
    (ops/dedup.normalize_text) for case-folded retrieval."""
    qterms = frozenset(t for t in query_terms if t)
    empty = pd.DataFrame({id_col: pd.Series(dtype="int64"),
                          "score": pd.Series(dtype="int64")})
    if not qterms:
        return ray.data.from_pandas(empty)
    tref = ray.put(qterms)

    def match(batch: pd.DataFrame) -> pd.DataFrame:
        out = _match_rows(batch[text_col],
                          batch[id_col].to_numpy(np.int64), ray.get(tref))
        return out.rename(columns={"doc_id": id_col})

    rows = pin_or_spill(
        docs.map_batches(match, batch_format="pandas", batch_size=None),
        spill_dir, "keyword_match_rows")

    # df + N + avgdl fold on the driver: match rows per term per batch
    # collapse to ≤ n_blocks × (|terms|+1) partial rows here
    def df_partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby("term", sort=False)
        return g.agg(docs=(id_col, "size"), n=("tf", "sum"),
                     w=("dl", "sum"), tf_max=("tf", "max")).reset_index()

    dfp = rows.map_batches(df_partial, batch_format="pandas",
                           batch_size=None).to_pandas()
    sent = dfp[dfp["term"] == _N_SENTINEL]
    n_docs = int(sent["n"].sum())
    total_words = int(sent["w"].sum())
    matched = dfp[dfp["term"] != _N_SENTINEL]
    df_map = matched.groupby("term", sort=False)["docs"].sum()
    if not len(df_map) or n_docs == 0:
        return ray.data.from_pandas(empty)
    idf = {t: (n_docs * idf_scale) // int(d) for t, d in df_map.items()}
    tf_norm_max = 22 * idf_scale // 10 if bm25 \
        else int(matched["tf_max"].max())
    if len(idf) * idf_scale * n_docs * tf_norm_max > np.iinfo(np.int64).max:
        raise ValueError(
            f"keyword_search: scores may overflow int64 ({len(idf)} terms "
            f"x idf_scale {idf_scale} x {n_docs} docs x tf_norm "
            f"{tf_norm_max}); lower idf_scale or shard the corpus")
    iref = ray.put(idf)
    avgdl = max(1, total_words // n_docs)

    def weigh(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[batch["term"] != _N_SENTINEL]
        w = b["term"].map(ray.get(iref)).to_numpy(np.int64)
        tf = b["tf"].to_numpy(np.int64)
        if bm25:
            dl = b["dl"].to_numpy(np.int64)
            tf_norm = (idf_scale * 44 * avgdl * tf) \
                // (20 * avgdl * tf + 6 * avgdl + 18 * dl)
            score = w * tf_norm
        else:
            score = tf * w
        return pd.DataFrame({id_col: b[id_col].to_numpy(),
                             "score": score})

    # (doc, score) totals via ONE doc-bucketed sum — a doc's match rows
    # may straddle block boundaries after a spill re-read, so per-batch
    # top-k partials alone could under-count a split doc; post-sum each
    # block emits only its top-k and the driver merges k·n_blocks rows
    from zeeklog_ray.relational import grouped_sum_bucketed

    totals = grouped_sum_bucketed(
        rows.map_batches(weigh, batch_format="pandas", batch_size=None),
        [id_col], sums={"score": "score"})

    def topk_partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(["score", id_col],
                                 ascending=[False, True]).head(k)

    top = totals.map_batches(topk_partial, batch_format="pandas",
                             batch_size=None).to_pandas()
    if not len(top):
        return ray.data.from_pandas(empty)
    top = top.sort_values(["score", id_col],
                          ascending=[False, True]).head(k) \
        .reset_index(drop=True)
    return ray.data.from_pandas(top.astype({id_col: "int64",
                                            "score": "int64"}))
