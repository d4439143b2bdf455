"""Shared Arrow word-split/hash kernel vs the original per-occurrence
reference kernel (zeeklog_ray/ops/wordhash.py vs _word_horner_hashes
below): bit-identical hashes, identical doc indices, unicode included."""
import numpy as np
import pandas as pd
import pytest

from zeeklog_ray.ops.wordhash import _WORD_P


def _word_horner_hashes(words: np.ndarray, wlens: np.ndarray) -> np.ndarray:
    """uint64 Horner hash of each word's CODEPOINTS (acc0 = first codepoint,
    h = h*P + cp, mod 2^64) — bit-replayable in DuckDB as
    ``list_reduce(list_transform(range(...), j -> ord(...)), ...)``.

    Vectorized with no per-word loop: Horner(w) equals
    ``sum(cp_j * P^(L-1-j))`` in mod-2^64 arithmetic, so one utf-32 decode
    of the concatenated words + one power-weighted ``np.add.reduceat``
    computes every word at once.
    """
    if len(words) == 0:
        return np.zeros(0, dtype=np.uint64)
    cps = np.frombuffer("".join(words.tolist()).encode("utf-32-le"),
                        dtype="<u4").astype(np.uint64)
    wlens = wlens.astype(np.int64)
    starts = np.zeros(len(wlens), dtype=np.int64)
    np.cumsum(wlens[:-1], out=starts[1:])
    maxlen = int(wlens.max())
    # P^0..P^(maxlen-1) mod 2^64 — array accumulate wraps silently (the
    # scalar loop would emit a RuntimeWarning per step)
    ppow = np.full(maxlen, _WORD_P, dtype=np.uint64)
    ppow[0] = np.uint64(1)
    np.multiply.accumulate(ppow, out=ppow)
    word_idx = np.repeat(np.arange(len(wlens)), wlens)
    pos = np.arange(len(cps), dtype=np.int64) - starts[word_idx]
    terms = cps * ppow[wlens[word_idx] - 1 - pos]
    return np.add.reduceat(terms, starts)


def _reference(texts):
    """The original pandas explode + per-occurrence Horner path."""
    ex = pd.Series(texts).reset_index(drop=True).str.split(" ").explode()
    keep = ex.notna() & (ex != "")
    exv = ex[keep]
    if not len(exv):
        return np.zeros(0, np.int64), np.zeros(0, np.uint64)
    doc_of = exv.index.to_numpy().astype(np.int64)
    wh = _word_horner_hashes(exv.to_numpy(), exv.str.len().to_numpy())
    return doc_of, wh


@pytest.mark.parametrize("texts", [
    ["hello world", "world hello hello", "", "  spaced  out  "],
    ["a", "ab abc abcd", "x" * 500],
    ["naïve café ünïcode 文字 🎉🎉", "mixé ascii and 中文 words"],
    [None, "after a null", None],
    [],
    ["", "", ""],
])
def test_split_word_hashes_matches_reference(texts):
    from zeeklog_ray.ops.wordhash import split_word_hashes

    ref_doc, ref_wh = _reference(texts)
    doc_of, wh, words = split_word_hashes(
        pd.Series(texts, dtype=object), want_words=True)
    assert np.array_equal(doc_of, ref_doc)
    assert np.array_equal(wh, ref_wh)
    # words match the split too
    flat_ref = [w for t in texts if t for w in t.split(" ") if w != ""]
    assert list(words) == flat_ref


def test_split_word_hashes_random_zipf_corpus():
    from zeeklog_ray.ops.wordhash import split_word_hashes

    rng = np.random.default_rng(11)
    vocab = np.array(
        ["w%d" % i for i in range(3000)] + ["ünï%d" % i for i in range(50)],
        dtype=object)
    texts = [" ".join(vocab[(rng.zipf(1.4, rng.integers(1, 40)) - 1)
                            % len(vocab)])
             for _ in range(2000)]
    ref_doc, ref_wh = _reference(texts)
    doc_of, wh = split_word_hashes(pd.Series(texts, dtype=object))
    assert np.array_equal(doc_of, ref_doc)
    assert np.array_equal(wh, ref_wh)


def test_split_word_codes_roundtrip():
    from zeeklog_ray.ops.wordhash import split_word_codes

    texts = pd.Series(["b a b", "c a", ""], dtype=object)
    doc_of, codes, vocab = split_word_codes(texts)
    assert list(vocab[codes]) == ["b", "a", "b", "c", "a"]
    assert list(doc_of) == [0, 0, 0, 1, 1]
