"""Synthetic document table for the dedup and join tests: word-soup texts
with planted near-duplicates at a controlled rate."""

from __future__ import annotations

import numpy as np
import pandas as pd

from zeeklog_ray.corpus import DEFAULT_SEED

_DOC_VOCAB = [f"w{i:03d}" for i in range(600)]


def make_documents_frame(n_docs: int, seed: int = DEFAULT_SEED,
                         dup_rate: float = 0.05,
                         words_per_doc: int = 60) -> pd.DataFrame:
    """Deterministic document table (doc_id:int64, text, is_dup_of:int64).

    ``dup_rate`` of the docs are near-duplicates of an earlier doc (one word
    substituted), recorded in ``is_dup_of`` (-1 otherwise) so dedup recall
    is measurable exactly.
    """
    rng = np.random.default_rng(seed)
    vocab = np.asarray(_DOC_VOCAB, dtype=object)
    words = vocab[rng.integers(0, len(vocab), (n_docs, words_per_doc))]
    texts = np.array([" ".join(row) for row in words], dtype=object)
    is_dup = np.full(n_docs, -1, dtype=np.int64)
    dup_idx = np.flatnonzero(rng.random(n_docs) < dup_rate)
    dup_idx = dup_idx[dup_idx > 0]
    src = rng.integers(0, np.maximum(dup_idx, 1))
    for i, s in zip(dup_idx, src):
        w = texts[s].split(" ")
        w[int(rng.integers(0, len(w)))] = str(vocab[rng.integers(0, len(vocab))])
        texts[i] = " ".join(w)
        is_dup[i] = s
    return pd.DataFrame({"doc_id": np.arange(n_docs, dtype=np.int64),
                         "text": texts, "is_dup_of": is_dup})
