"""Shared Arrow-native word-split + Horner word-hash kernel.

Every word-granular operator in this repo (duplicated-window stats, CDC
chunking, dup-span removal, PMI collocations, distinctive terms, ...)
starts the same way: split each document on ' ', drop empty tokens, and
— for the hash-replayable operators — Horner-hash each word's CODEPOINTS
(``h = h*P + cp`` mod 2^64, ``P = 1000003``), exactly what the DuckDB
oracles replay with ``list_reduce(list_transform(...), ...)``.

The round-4 profile showed this stage under five of the eight most
expensive benches (8.8 s of an 11.7 s single-thread block at 1M docs),
almost all of it in the pandas ``str.split(' ').explode()`` object churn
and in hashing every word OCCURRENCE.  This module replaces both:

* the split is ``pyarrow.compute.split_pattern`` + ``flatten`` — C all
  the way down, no per-row Python lists;
* hashing runs once per UNIQUE word: ``dictionary_encode`` (an Arrow
  C-level hash table) maps occurrences to vocabulary codes, the Horner
  kernel hashes only the dictionary (vocabulary ≪ occurrences in any
  natural corpus), and a single numpy gather broadcasts hashes back.

Measured on a 100k-doc zipf corpus (avg 17 words): 2.14 s → 0.21 s warm
for split+hash, bit-identical output (see BASELINE.md round 5).

Values are IDENTICAL to the original per-occurrence kernel (kept as
the reference ``_word_horner_hashes`` in ``tests/test_wordhash.py``) —
the hash of a word doesn't depend on how many times it occurs — so every
oracle stays bit-for-bit green.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_WORD_P = np.uint64(1000003)  # codepoint Horner base (shared constant)


def _offsets_view(arr: "pa.Array") -> np.ndarray:
    """The (sliced) offsets of a string/list array as a numpy view —
    int32 for string/list, int64 for the large_ variants."""
    t = arr.type
    wide = (pa.types.is_large_string(t) or pa.types.is_large_list(t))
    dt = np.int64 if wide else np.int32
    off = np.frombuffer(arr.buffers()[1], dtype=dt)
    return off[arr.offset:arr.offset + len(arr) + 1]


def horner_hash_strings(sa: "pa.Array") -> np.ndarray:
    """uint64 Horner codepoint hash of each string in ``sa`` (no nulls,
    no empty strings — callers filter first).  One UTF-8→UTF-32 decode of
    the array's data buffer replaces the old per-word Python join;
    the Horner sum is the same power-weighted ``np.add.reduceat``
    (``Horner(w) = sum(cp_j * P^(L-1-j))`` mod 2^64)."""
    n = len(sa)
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    off = _offsets_view(sa)
    mv = memoryview(sa.buffers()[2])
    data = bytes(mv[int(off[0]):int(off[-1])])
    cps = np.frombuffer(data.decode("utf-8").encode("utf-32-le"),
                        dtype="<u4").astype(np.uint64)
    wlens = pc.utf8_length(sa).to_numpy().astype(np.int64)  # codepoints
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(wlens[:-1], out=starts[1:])
    maxlen = int(wlens.max())
    ppow = np.full(maxlen, _WORD_P, dtype=np.uint64)
    ppow[0] = np.uint64(1)
    np.multiply.accumulate(ppow, out=ppow)
    word_idx = np.repeat(np.arange(n), wlens)
    pos = np.arange(len(cps), dtype=np.int64) - starts[word_idx]
    terms = cps * ppow[wlens[word_idx] - 1 - pos]
    return np.add.reduceat(terms, starts)


def split_words(texts, keep_empty: bool = False
                ) -> tuple[np.ndarray, "pa.Array"]:
    """Split ``texts`` (pandas Series / pyarrow array of strings) on ' ',
    dropping empty tokens and treating null text as no words (the
    ``LIST_FILTER(STRING_SPLIT(text,' '), x -> x <> '')`` tokenization
    every oracle replays).  Returns ``(doc_of, flat)``: the int64 row
    index of each word and the flat word StringArray, in document
    order.  ``keep_empty=True`` keeps empty tokens (plain
    ``STRING_SPLIT`` semantics — the df_census contract); null text
    contributes no tokens in either mode (SQL ``string_split(NULL)``
    unnests to nothing)."""
    if isinstance(texts, pd.Series):
        arr = pa.array(texts, type=pa.string(), from_pandas=True)
    elif isinstance(texts, pa.ChunkedArray):
        arr = texts.combine_chunks()
    else:
        arr = texts
    null_docs = None
    if arr.null_count:
        # null -> '' keeps the flatten/offset bookkeeping simple; the
        # synthetic '' token is filtered below (drop-empties mode) or
        # removed via the null-doc mask (keep_empty mode)
        null_docs = pc.is_null(arr).to_numpy(zero_copy_only=False)
        arr = pc.coalesce(arr, pa.scalar("", type=arr.type))
    lst = pc.split_pattern(arr, " ")
    flat = lst.flatten()
    loff = _offsets_view(lst)
    doc_of = np.repeat(np.arange(len(lst), dtype=np.int64),
                       np.diff(loff).astype(np.int64))
    if keep_empty:
        if null_docs is not None:
            keep = ~null_docs[doc_of]
            return doc_of[keep], flat.filter(pa.array(keep))
        return doc_of, flat
    mask = pc.not_equal(flat, "")
    keep = mask.to_numpy(zero_copy_only=False)
    return doc_of[keep], flat.filter(mask)


def split_word_hashes(texts, want_words: bool = False):
    """``(doc_of, wh)`` — int64 row index and uint64 Horner hash per
    non-empty word — or ``(doc_of, wh, words)`` with the flat word
    strings as a numpy object array when ``want_words=True``.  Hashing
    runs once per unique word (dictionary_encode + gather)."""
    doc_of, flat = split_words(texts)
    if len(flat) == 0:
        wh = np.zeros(0, dtype=np.uint64)
        if want_words:
            return doc_of, wh, np.zeros(0, dtype=object)
        return doc_of, wh
    de = flat.dictionary_encode()
    codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    wh = horner_hash_strings(de.dictionary)[codes]
    if want_words:
        return doc_of, wh, flat.to_numpy(zero_copy_only=False)
    return doc_of, wh


def split_word_codes(texts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(doc_of, codes, vocab)`` — row index per word, int64 vocabulary
    code per word, and the unique-word object array — for census-style
    operators (PMI, term counts) that want C-level integer groupbys
    instead of object-string groupbys, mapping codes back to strings only
    for the (much smaller) unique output rows."""
    doc_of, flat = split_words(texts)
    if len(flat) == 0:
        return (doc_of, np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=object))
    de = flat.dictionary_encode()
    codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vocab = de.dictionary.to_numpy(zero_copy_only=False)
    return doc_of, codes, vocab
