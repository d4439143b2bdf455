"""Distributed text classification: multinomial Naive Bayes over hashed
bag-of-words features — the CCNet/fastText-shaped quality & domain
classifier a training-data pipeline runs over every document.

Scale shape (train): ONE corpus pass emits per-batch (label, feature)
count partials — feature = Horner word hash mod ``n_features`` via the
shared Arrow kernel (ops/wordhash.py), so the map side is the same
vectorized split+hash every other word operator uses — then one
model-shaped grouped sum merges them.  The model is ``classes ×
n_features`` counts: at 2^18 features and tens of classes that is tens
of MB — BY CONSTRUCTION broadcastable (that's the point of feature
hashing; an unhashed vocabulary would be corpus-shaped).  Text never
shuffles; only count partials do.

Scale shape (apply): the dense log-likelihood matrix broadcasts once
(``ray.put``) and scoring is row-local per batch: gather the feature
column of each class's weight row and segment-sum per document with
``np.bincount(doc_of, weights=...)`` — C-level, zero shuffle, streams.

Floats appear only in the APPLY stage's log weights, so the registry
query is rows-only gated (like kmeans/pagerank) with pytest parity
against a pure-Python reference; the trained COUNTS themselves are
exact integers and assert bit-equal in tests.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray
import ray.data

from zeeklog_ray.ops.wordhash import split_word_hashes


def train_nb(docs: "ray.data.Dataset", text_col: str = "text",
             label_col: str = "label", n_features: int = 1 << 18,
             alpha: int = 1) -> dict:
    """Train multinomial NB; returns the model as plain numpy arrays:
    ``labels`` (sorted class names), ``class_docs`` (docs per class),
    ``feat_counts`` (classes × n_features int64), plus ``n_features`` /
    ``alpha``.  Counts are exact integers — deterministic regardless of
    batch/block boundaries (addition commutes)."""
    from zeeklog_ray.relational import grouped_sum

    def partials(batch: pd.DataFrame) -> pd.DataFrame:
        doc_of, wh = split_word_hashes(batch[text_col])
        feats = (wh % np.uint64(n_features)).astype(np.int64)
        lab = batch[label_col].to_numpy()
        g = pd.DataFrame({"label": lab[doc_of], "feat": feats}) \
            .groupby(["label", "feat"], sort=False).size() \
            .reset_index(name="c")
        # feat = -1 rows carry the per-class DOC counts (the prior)
        dg = batch.groupby(label_col, sort=False).size() \
            .reset_index(name="c")
        dg.columns = ["label", "c"]
        dg["feat"] = np.int64(-1)
        return pd.concat([g, dg[["label", "feat", "c"]]],
                         ignore_index=True)

    parts = docs.map_batches(partials, batch_format="pandas",
                             batch_size=None)
    counts = grouped_sum(parts, ["label", "feat"], sums={"c": "c"}) \
        .to_pandas()
    labels = np.sort(counts["label"].unique())
    lab_idx = {l: i for i, l in enumerate(labels)}
    feat_counts = np.zeros((len(labels), n_features), dtype=np.int64)
    doc_rows = counts["feat"].to_numpy() == -1
    class_docs = np.zeros(len(labels), dtype=np.int64)
    for _, r in counts[doc_rows].iterrows():
        class_docs[lab_idx[r["label"]]] = r["c"]
    wc = counts[~doc_rows]
    li = wc["label"].map(lab_idx).to_numpy(np.int64)
    feat_counts[li, wc["feat"].to_numpy(np.int64)] = \
        wc["c"].to_numpy(np.int64)
    return {"labels": labels, "class_docs": class_docs,
            "feat_counts": feat_counts, "n_features": n_features,
            "alpha": alpha}


def _nb_weights(model: dict) -> tuple[np.ndarray, np.ndarray]:
    """(log_prior, log_like) float64 arrays from the integer model —
    computed ONCE (driver or actor init), not per batch."""
    fc = model["feat_counts"]
    alpha = model["alpha"]
    totals = fc.sum(axis=1)
    log_like = (np.log(fc + alpha)
                - np.log(totals + alpha * model["n_features"])[:, None])
    log_prior = (np.log(model["class_docs"])
                 - np.log(model["class_docs"].sum()))
    return log_prior, log_like


def nb_predict(docs: "ray.data.Dataset", model: dict,
               text_col: str = "text",
               out_col: str = "pred") -> "ray.data.Dataset":
    """Append ``out_col`` = argmax-class per document (ties break toward
    the lexicographically smaller label — argmax over sorted labels).
    Row-local: weights broadcast once; per batch the score of class c is
    ``bincount(doc_of, weights=log_like[c][feats])`` — one C pass per
    class.  Empty documents score prior-only."""
    log_prior, log_like = _nb_weights(model)
    labels = model["labels"]
    nf = np.uint64(model["n_features"])
    w_ref = ray.put((log_prior, log_like))

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        lp, ll = ray.get(w_ref)
        n = len(batch)
        doc_of, wh = split_word_hashes(batch[text_col])
        feats = (wh % nf).astype(np.int64)
        scores = np.tile(lp[:, None], (1, n))
        for c in range(len(lp)):
            scores[c] += np.bincount(doc_of, weights=ll[c][feats],
                                     minlength=n)
        batch = batch.copy()
        batch[out_col] = labels[np.argmax(scores, axis=0)]
        return batch

    return docs.map_batches(score, batch_format="pandas", batch_size=None)

