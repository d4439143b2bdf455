"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Shared scale pattern: per-batch vectorized signature computation inside
``map_batches`` → shuffle only SIGNATURES (never document bodies) → groupby
on the blocking key → candidate pairs → cheap verification.  All hashing is
seed-fixed and process-independent so signatures computed on different nodes
agree.

The generalization of the reference's only dedup — the multi-day
first-wins merge on IP keys (``/root/reference/src/main.rs:320-330``) —
is :func:`first_wins`; the content-based family below is what a 10^12-row
training corpus additionally needs.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data

from zeeklog_ray.ops.text import rolling_kgram_hashes
from zeeklog_ray.relational import PY_ROW_BYTES, fits_in_heap

_MERSENNE = (1 << 61) - 1


def content_digest128(texts: pd.Series) -> tuple[np.ndarray, np.ndarray]:
    """The engine's 128-bit content digest (two independent 64-bit pandas
    hashes) — shared by the exact-dedup paths (queries.exact_dedup_docs,
    incremental_dedup).  One definition, one collision
    argument: a single 64-bit key would birthday-collide at the 10^12-row
    design scale; at 128 bits the odds stay ~n²/2^129."""
    h1 = pd.util.hash_pandas_object(texts, index=False).to_numpy(np.uint64)
    h2 = pd.util.hash_pandas_object(texts, index=False,
                                    hash_key="zeeklog-dedup-02") \
        .to_numpy(np.uint64)
    return h1, h2


def normalize_text(texts: pd.Series) -> pd.Series:
    """Canonical text form shared by :func:`normalized_exact_dedup` and
    its SQL oracle: lowercase, every run of characters outside [a-z0-9]
    (punctuation, whitespace, digits-adjacent symbols, non-ASCII) folds
    to ONE space, leading/trailing space trimmed.  This is the C4/
    RefinedWeb-style canonicalization tier between raw exact dedup
    (misses a re-crawl that only re-wrapped whitespace) and MinHash
    (pays signatures for what is byte-identical after normalization).
    Replayable in SQL as trim(regexp_replace(lower(text),
    '[^a-z0-9]+', ' ', 'g')) — both sides lower first, so any codepoint
    whose lowercase leaves [a-z0-9] is folded identically."""
    return (texts.str.lower()
            .str.replace(r"[^a-z0-9]+", " ", regex=True)
            .str.strip())


def normalized_exact_dedup(ds: "ray.data.Dataset", text_col: str = "text",
                           id_col: str = "doc_id") -> "ray.data.Dataset":
    """Exact dedup over the NORMALIZED text: normalize row-locally
    (:func:`normalize_text`), digest to 128 bits, shuffle only
    (digest, id) rows bucketed by digest hash, keep the min-id doc per
    normalized form with its duplicate count.  Returns (doc_id, n_dups).

    Scale shape: identical to the raw exact tier — text never shuffles,
    one bucketed groupby at distinct-content cardinality; the normalize
    pass is one vectorized regex per batch.  Reference analog: none
    (the reference has no content dedup); public C4-style cleaning
    stage."""
    from zeeklog_ray.relational import bucket_exchange, to_pandas

    def digest(batch: pd.DataFrame) -> pd.DataFrame:
        h1, h2 = content_digest128(normalize_text(batch[text_col]))
        return pd.DataFrame({"digest": h1, "digest2": h2,
                             id_col: batch[id_col]})

    def dedup_bucket(group: pa.Table) -> pd.DataFrame:
        g = to_pandas(group).groupby(["digest", "digest2"], sort=False)
        return g.agg(**{id_col: (id_col, "min"),
                        "n_dups": (id_col, "size")}).reset_index(drop=True)

    hashed = ds.map_batches(digest, batch_format="pandas", batch_size=None)
    return bucket_exchange(hashed, "digest", dedup_bucket)


def _shingle_hashes(texts: pd.Series, k: int) -> tuple[np.ndarray, np.ndarray]:
    """All k-byte shingle hashes per text, vectorized; returns (hashes,
    offsets) where text i owns hashes[offsets[i]:offsets[i+1]]."""
    enc = texts.str.encode("utf-8")
    lengths = enc.str.len().to_numpy()
    data = np.frombuffer(b"".join(enc.to_numpy()), dtype=np.uint8)
    bounds = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    win = rolling_kgram_hashes(data, k)
    # window at global pos p belongs to doc i and is valid iff it does not
    # cross the doc boundary; build the valid mask with two scatter-adds
    # (no per-doc loop)
    starts = bounds[:-1]
    ends = np.maximum(bounds[1:] - (k - 1), starts)
    offsets = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(ends - starts, out=offsets[1:])
    if not len(win):
        return np.zeros(0, dtype=np.uint64), offsets
    delta = np.zeros(len(win) + 1, dtype=np.int64)
    np.add.at(delta, np.minimum(starts, len(win)), 1)
    np.add.at(delta, np.minimum(ends, len(win)), -1)
    mask = np.cumsum(delta[:-1]) > 0
    return win[mask], offsets


def _minhash_params(num_perm: int, seed: int = 12345):
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, num_perm, dtype=np.int64).astype(np.uint64)
    b = rng.integers(0, _MERSENNE, num_perm, dtype=np.int64).astype(np.uint64)
    return a, b


def minhash_signatures(ds: "ray.data.Dataset", text_col: str = "text",
                       num_perm: int = 64, k: int = 5) -> "ray.data.Dataset":
    """Per-doc MinHash signature over byte k-shingles (num_perm universal
    hashes h(x) = (a·x + b) mod p, min per permutation).  Vectorized:
    one (windows × num_perm) matmul-style broadcast per batch."""
    a, b = _minhash_params(num_perm)

    def sig(batch: pd.DataFrame) -> pd.DataFrame:
        hashes, offsets = _shingle_hashes(batch[text_col], k)
        n = len(batch)
        out = np.full((n, num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
        if len(hashes):
            # permute in uint64 wraparound space (cheap, uniform enough),
            # then reduceat-min per doc per permutation
            counts = np.diff(offsets)
            ok = counts > 0
            idx = offsets[:-1][ok]
            if ok.any():
                for j in range(num_perm):
                    hj = hashes * a[j] + b[j]
                    out[ok, j] = np.minimum.reduceat(hj, idx)
        cols = {"doc_id": batch["doc_id"]}
        for j in range(num_perm):
            cols[f"mh_{j}"] = out[:, j].astype(np.int64)
        return pd.DataFrame(cols)

    return ds.map_batches(sig, batch_format="pandas", batch_size=None)


def _banded_rows(ds: "ray.data.Dataset", text_col: str, num_perm: int,
                 bands: int, k: int) -> "ray.data.Dataset":
    """(bb, doc_id) LSH band-bucket rows: MinHash signatures → per-band
    Horner fold XOR band constant, folded to ONE int64 key (joinable and
    isin-filterable without composite-key Python).  The shared banding
    kernel of :func:`minhash_lsh_pairs` (self-join dedup) and
    :func:`incremental_near_dup` (cross-snapshot join)."""
    rows_per_band = num_perm // bands
    sigs = minhash_signatures(ds, text_col, num_perm, k)

    def band_rows(batch: pd.DataFrame) -> pd.DataFrame:
        mh = batch[[f"mh_{j}" for j in range(num_perm)]].to_numpy(np.uint64)
        outs = []
        for bi in range(bands):
            seg = mh[:, bi * rows_per_band:(bi + 1) * rows_per_band]
            # mix the band's rows into one bucket hash
            h = np.zeros(len(batch), dtype=np.uint64)
            for c in range(rows_per_band):
                h = h * np.uint64(1_000_003) + seg[:, c]
            # (mod-2^64 fold precomputed in Python ints: numpy warns on
            # intended uint64 scalar wraparound)
            bb = h ^ np.uint64((bi * 0x9E3779B97F4A7C15) % (1 << 64))
            outs.append(pd.DataFrame({"bb": bb.astype(np.int64),
                                      "doc_id": batch["doc_id"]}))
        return pd.concat(outs, ignore_index=True)

    return sigs.map_batches(band_rows, batch_format="pandas",
                            batch_size=None)


def band_table(ds: "ray.data.Dataset", text_col: str = "text",
               num_perm: int = 64, bands: int = 8,
               k: int = 5) -> "ray.data.Dataset":
    """PUBLIC band-table builder: the (bb, doc_id) LSH band rows for a
    corpus, suitable for ``write_parquet`` and re-use across incremental
    runs.  At 100 TB this is the artifact you compute ONCE per corpus
    version and persist next to the corpus; each daily
    :func:`incremental_near_dup` run then passes the re-read Dataset as
    ``base_banded=`` and pays only the NEW side's signatures plus the
    band join — never a re-scan of the base text.  The
    (num_perm, bands, k) parameters are baked into the rows; a run that
    consumes the table MUST use the same values (they shape both the
    bucket hashes and the verify grams).  Reference analog: none (the
    reference has no dedup); public LSH-persistence shape."""
    return _banded_rows(ds, text_col, num_perm, bands, k)


def _over_cap_bucket_keys(banded: "ray.data.Dataset", n_banded: int,
                          max_bucket: int) -> tuple[np.ndarray, int]:
    """Over-cap LSH bucket keys (and their total row count) — the tiered
    count pass shared by the dedup joins.  Band-bucket hashes are mostly
    distinct, so per-batch ``value_counts`` partials are O(rows) —
    merging them on the driver is the FAST path only while their
    (bb, m) int64 frame fits the heap budget
    (:func:`zeeklog_ray.relational.fits_in_heap`).  Past it the count runs
    as a bucketed Dataset groupby (one shuffle of the banded rows, one
    C-level value_counts per exchange call — a plain
    ``groupby("bb").aggregate(Count)`` would pay Ray's per-group Python
    per DISTINCT BUCKET).  Only the over-cap KEY SET — at most
    |rows|/max_bucket entries — ever reaches the driver."""
    if fits_in_heap(n_banded * 16):
        def bucket_partials(batch: pd.DataFrame) -> pd.DataFrame:
            vc = batch["bb"].value_counts()
            return pd.DataFrame({"bb": vc.index.to_numpy(np.int64),
                                 "m": vc.to_numpy(np.int64)})

        partials = banded.map_batches(bucket_partials, batch_format="pandas",
                                      batch_size=None).to_pandas()
        totals = partials.groupby("bb", sort=False)["m"].sum()
        over = totals.to_numpy() > max_bucket
        return (totals.index.to_numpy(np.int64)[over],
                int(totals.to_numpy()[over].sum()))

    from zeeklog_ray.relational import bucket_exchange, to_pandas

    def over_cap(group: pa.Table) -> pd.DataFrame:
        vc = to_pandas(group)["bb"].value_counts()
        vc = vc[vc > max_bucket]
        return pd.DataFrame({"bb": vc.index.to_numpy(np.int64),
                             "m": vc.to_numpy(np.int64)})

    big = bucket_exchange(banded, "bb", over_cap).to_pandas()
    big_keys = (big["bb"].to_numpy(np.int64) if "bb" in big.columns
                else np.zeros(0, np.int64))
    return big_keys, (int(big["m"].sum()) if "m" in big.columns else 0)


def _drop_buckets(banded: "ray.data.Dataset",
                  big_keys: np.ndarray) -> "ray.data.Dataset":
    """Filter band rows whose bucket key is in the (sorted, broadcast)
    over-cap set — row-local ``np.isin`` per batch."""
    import ray as _ray

    big_ref = _ray.put(np.sort(big_keys))

    def drop_big(batch: pd.DataFrame) -> pd.DataFrame:
        bs = _ray.get(big_ref)
        keep = ~np.isin(batch["bb"].to_numpy(np.int64), bs,
                        assume_unique=False)
        return batch[keep]

    return banded.map_batches(drop_big, batch_format="pandas",
                              batch_size=None)


def minhash_lsh_pairs(ds: "ray.data.Dataset", text_col: str = "text",
                      num_perm: int = 64, bands: int = 8,
                      k: int = 5, max_bucket: int = 512,
                      spill_dir: str | None = None) -> "ray.data.Dataset":
    """MinHash+LSH near-dup candidate pairs: signature → band hashes →
    self-join on the band bucket (the only shuffle, signatures only) →
    ordered distinct pairs.

    Default banding (8 bands × 8 rows) targets Jaccard ≈ (1/b)^(1/r) ≈ 0.77
    — the near-duplicate regime; widen bands for a looser similarity
    threshold (the candidate count grows as collisions^2 per bucket).

    ``max_bucket`` guards the quadratic blow-up: a degenerate bucket of m
    colliding signatures emits m² join rows, so one bucket of 10^6
    identical documents would produce 10^12 pairs.  Buckets larger than
    the cap are EXCLUDED from the self-join (their membership is near-
    certainly an exact-duplicate cluster — run exact dedup first, which
    collapses them without pair enumeration).  The count pass is tiered:
    driver-merged per-batch ``value_counts`` partials while the banded
    rows' partials fit the heap budget (16 B/row, ≈16.8M rows,
    :func:`zeeklog_ray.relational.fits_in_heap`; an in-plan groupby
    would halve map parallelism, BASELINE.md), a proper Dataset groupby
    above (the partials are O(rows) — mostly-distinct buckets — so the
    driver merge does NOT scale; the shuffle it avoids is amortized at
    the sizes where it triggers).  Only the over-cap key set — ≤ |rows|/max_bucket entries
    — ever reaches the driver.  The banded rows are pinned once so the
    count and join passes don't recompute the shingle hashing —
    ``materialize()`` by default, or a Parquet write + lazy re-read
    under ``spill_dir`` (:func:`zeeklog_ray.spill.pin_or_spill`) at
    scales where O(bands·docs) rows must not sit in the object store.

    Returns (doc_a, doc_b) candidate pairs (doc_a < doc_b, distinct).
    Verify with :func:`ngram_jaccard` on the candidates.
    """
    from zeeklog_ray.spill import pin_or_spill

    banded = pin_or_spill(_banded_rows(ds, text_col, num_perm, bands, k),
                          spill_dir, "lsh_banded")

    # Oversized-bucket guard (tiered count pass: _over_cap_bucket_keys).
    n_banded = banded.count()
    big_keys, n_dropped_rows = _over_cap_bucket_keys(banded, n_banded,
                                                     max_bucket)
    if len(big_keys):
        # recall loss must be VISIBLE at runtime, not just in the docstring:
        # a legitimate near-dup cluster larger than max_bucket yields zero
        # candidate pairs here — callers should exact-dedup those docs first
        import logging

        logging.getLogger(__name__).warning(
            "minhash_lsh_pairs: excluding %d oversized LSH buckets "
            "(%d banded rows > max_bucket=%d) from the self-join; their "
            "members emit NO candidate pairs — run exact dedup first to "
            "collapse identical-content clusters",
            len(big_keys), n_dropped_rows, max_bucket)
        banded = _drop_buckets(banded, big_keys)

    # Pair generation is ONE exchange on the band key: every banded row
    # crosses it once, and each key-hash bucket self-merges its rows in
    # C-level pandas.  A bucket holds many band keys because Ray pays
    # Python per group (one group per band key: 28 s for 5k docs).
    from zeeklog_ray.relational import (bucket_exchange, bucketed_distinct,
                                        to_pandas)

    def bucket_pairs(group: pa.Table) -> pd.DataFrame:
        group = to_pandas(group)
        m = group.merge(group, on="bb", suffixes=("_a", "_b"))
        m = m[m["doc_id_a"] < m["doc_id_b"]]
        return pd.DataFrame({"doc_a": m["doc_id_a"].to_numpy(),
                             "doc_b": m["doc_id_b"].to_numpy()})

    cand = bucket_exchange(banded, "bb", bucket_pairs)
    # distinct pairs (a doc pair can collide in several bands) — bucketed:
    # a plain groupby([doc_a, doc_b]) pays Ray's per-group Python per PAIR
    # (~0.19 ms/group measured), ~30 min at 10M candidates; the bucketed
    # drop_duplicates is one C-level pass per bucket
    return bucketed_distinct(cand, ["doc_a", "doc_b"])


def ngram_jaccard(texts_a: pd.Series, texts_b: pd.Series, k: int = 5) -> np.ndarray:
    """Exact byte-k-gram Jaccard similarity for aligned pairs (verification
    step for LSH candidates).

    Bound: per-pair Python set work is acceptable ONLY because the input is
    the LSH candidate list (|pairs| ≈ |near-dups|, already capped by
    ``max_bucket`` in :func:`minhash_lsh_pairs`), never the raw corpus —
    cost is O(|candidates| × doc_len), independent of corpus size.
    """
    out = np.zeros(len(texts_a))
    for i, (x, y) in enumerate(zip(texts_a, texts_b)):
        xb, yb = x.encode(), y.encode()
        sx = {xb[j:j + k] for j in range(max(0, len(xb) - k + 1))}
        sy = {yb[j:j + k] for j in range(max(0, len(yb) - k + 1))}
        u = len(sx | sy)
        out[i] = len(sx & sy) / u if u else 0.0
    return out


def packed_byte_windows(texts: pd.Series, k: int
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared exact-gram packing preamble: every k-byte window of the
    concatenated utf-8 bytes packed into uint64 (base-256 positional
    value — injective for k ≤ 8, the true gram, not a hash), plus the
    per-text byte ``bounds`` (len+1 exclusive prefix) and ``lengths``.
    Boundary windows spanning two texts are NOT masked here — consumers
    slice/select valid windows with ``bounds``/``lengths``.  The single
    source of truth for the packing used by both the dedup verifiers and
    the decontamination scanner (their SQL bit-replays assume one
    encoding)."""
    if k > 8:
        raise ValueError(f"packed_byte_windows: k={k} > 8 bytes cannot pack "
                         "into uint64 — use the hashed shingle path instead")
    enc = texts.str.encode("utf-8")
    lengths = enc.str.len().to_numpy()
    data = np.frombuffer(b"".join(enc.to_numpy()), dtype=np.uint8)
    bounds = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    if len(data) >= k:
        win = np.lib.stride_tricks.sliding_window_view(data, k).astype(np.uint64)
        powers = (np.uint64(256) ** np.arange(k - 1, -1, -1, dtype=np.uint64))
        packed = win @ powers
    else:
        packed = np.zeros(0, dtype=np.uint64)
    return packed, bounds, lengths


def _packed_kgram_sets(texts: pd.Series, k: int) -> list[np.ndarray]:
    """Per-text set of exactly-packed byte k-grams
    (:func:`packed_byte_windows`), one C-level ``np.unique`` per text."""
    packed, bounds, _ = packed_byte_windows(texts, k)
    starts = bounds[:-1]
    ends = np.maximum(bounds[1:] - (k - 1), starts)
    return [np.unique(packed[s:e]) for s, e in zip(starts, ends)]


def ngram_jaccard_counts(texts_a: pd.Series, texts_b: pd.Series,
                         k: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """Exact byte-k-gram set (intersection, union) sizes for aligned pairs
    as int64 arrays — the integer core of :func:`ngram_jaccard`, exposed so
    callers can do EXACT fixed-point threshold math (``10000*inter >=
    t_e4*union``) with no float round-trip.  Same cost bound as
    :func:`ngram_jaccard`: candidates only, never the raw corpus."""
    sa = _packed_kgram_sets(texts_a, k)
    sb = _packed_kgram_sets(texts_b, k)
    inter = np.fromiter(
        (len(np.intersect1d(x, y, assume_unique=True)) for x, y in zip(sa, sb)),
        dtype=np.int64, count=len(sa))
    union = np.fromiter((len(x) + len(y) for x, y in zip(sa, sb)),
                        dtype=np.int64, count=len(sa)) - inter
    return inter, union


def levenshtein_pairs(texts_a: pd.Series, texts_b: pd.Series,
                      max_bytes: int = 4096) -> np.ndarray:
    """Exact BYTE-level Levenshtein distance for aligned pairs, as int64 —
    the precision tier of near-dup verification (Jaccard says "similar
    shingle sets"; edit distance says "k edits apart", the contract a
    template-change or OCR-noise dedup policy actually wants).

    Byte-level (UTF-8), deliberately: it matches DuckDB's ``levenshtein``
    bit-exactly (pinned by test: ``café→cafe`` = 2), and byte DP needs no
    codepoint decode.

    Vectorized ACROSS THE PAIR DIMENSION: the classic DP's sequential
    insert-chain ``new[j-1]+1 → new[j]`` is resolved with the
    running-minimum identity ``min_k(new[k] + (j-k)) =
    cummin(new[k]-k)+j``, so each DP row is pure numpy over an
    ``(n_pairs, max_len_b)`` matrix and the only Python loop is the
    ``max_len_a`` row loop.  Cost is O(max_la · n · max_lb) — batch
    CANDIDATE pairs (LSH output), never a cross product; ``max_bytes``
    guards against a pathological document blowing up the padded matrix.
    """
    enc_a = [t.encode("utf-8") for t in texts_a]
    enc_b = [t.encode("utf-8") for t in texts_b]
    la = np.fromiter(map(len, enc_a), dtype=np.int64, count=len(enc_a))
    lb = np.fromiter(map(len, enc_b), dtype=np.int64, count=len(enc_b))
    if len(la) == 0:
        return np.zeros(0, dtype=np.int64)
    if la.max(initial=0) > max_bytes or lb.max(initial=0) > max_bytes:
        raise ValueError(
            f"levenshtein_pairs: text over {max_bytes} bytes — the padded "
            f"DP matrix is sized by the LONGEST text in the batch; raise "
            f"max_bytes explicitly or pre-filter giants")
    n, ma, mb = len(la), int(la.max()), int(lb.max())
    # pad into (n, m*) uint8 matrices; 0 is a safe pad (never compared
    # beyond each pair's own length because results are harvested at i==la)
    A = np.zeros((n, ma), dtype=np.uint8)
    B = np.zeros((n, mb), dtype=np.uint8)
    for i, (ea, eb) in enumerate(zip(enc_a, enc_b)):
        A[i, :len(ea)] = np.frombuffer(ea, np.uint8)
        B[i, :len(eb)] = np.frombuffer(eb, np.uint8)

    j_idx = np.arange(mb + 1, dtype=np.int64)
    prev = np.broadcast_to(j_idx, (n, mb + 1)).copy()   # row i=0: dist = j
    out = np.where(la == 0, lb, -1)
    for i in range(1, ma + 1):
        cost = (A[:, i - 1:i] != B).astype(np.int64)    # (n, mb)
        cur = np.empty_like(prev)
        cur[:, 0] = i
        # substitution/deletion candidates, vectorized along j
        cur[:, 1:] = np.minimum(prev[:, 1:] + 1, prev[:, :-1] + cost)
        # insert chain via running minimum of (cur[k] - k) + j
        cur = np.minimum(
            cur, np.minimum.accumulate(cur - j_idx, axis=1) + j_idx)
        done = la == i
        if done.any():
            out[done] = cur[done, lb[done]]
        prev = cur
    return out.astype(np.int64)


def _utf8_bytes(texts: "ray.data.Dataset", text_col: str) -> int:
    """Total UTF-8 bytes of ``text_col`` — the text half of a broadcast
    lookup's heap price (a character count undercounts non-ASCII text)."""
    import pyarrow.compute as pc

    def nbytes(t: "pa.Table") -> dict:
        return {"b": [pc.sum(pc.binary_length(t[text_col])).as_py() or 0]}

    parts = texts.map_batches(nbytes, batch_format="pyarrow",
                              batch_size=None).to_pandas()
    return int(parts["b"].sum()) if "b" in parts.columns else 0


def ngram_jaccard_dedup_pairs(ds: "ray.data.Dataset",
                              threshold_e4: int = 5000,
                              text_col: str = "text", k: int = 5,
                              num_perm: int = 16, bands: int = 4,
                              max_bucket: int = 512,
                              spill_dir: str | None = None
                              ) -> "ray.data.Dataset":
    """n-gram Jaccard near-duplicate pairs — the production two-phase shape:
    MinHash+LSH candidate generation (:func:`minhash_lsh_pairs`, signatures
    are the only corpus-wide shuffle) followed by an EXACT byte-k-gram
    Jaccard verification of each candidate, keeping pairs with
    ``J >= threshold_e4 / 10000``.

    The RAW CORPUS text never shuffles in either verify tier: the distinct
    candidate doc-id set (≈ the near-dup population, orders of magnitude
    smaller than the corpus) is broadcast once via ``ray.put`` and the
    matching texts are semi-FILTERED out of the corpus map-side
    (vectorized ``np.isin`` per batch).  The candidate TEXTS are then
    attached two ways, tiered on the lookup's priced size — measured
    UTF-8 text bytes plus ``PY_ROW_BYTES`` per id (worker heap is the
    binding constraint for a broadcast; measured in incremental_near_dup,
    the broadcast beats the two join passes ~1.6× end-to-end when it
    fits):

    * the lookup passes :func:`zeeklog_ray.relational.fits_in_heap`:
      the candidate texts collect to one ``ray.put`` lookup
      and the verify map reads it zero-copy — zero shuffles (the common
      case: near-dup populations are small).
    * above it: the candidate texts STAY a Dataset and attach to the pair
      table with two :func:`zeeklog_ray.relational.bucketed_equi_join`
      passes (pairs ⋈ texts on doc_a, then on doc_b) — shuffle volume is
      O(candidate texts), independent of corpus size, and nothing
      candidate-sized ever materializes on the driver.

    Jaccard is computed in EXACT integer arithmetic (packed gram sets +
    ``(10000*inter) // union``), so the result is bit-replayable in SQL —
    see queries._ngram_jaccard_oracle_sql.  Both tiers produce identical
    results (pytest-gated on a planted-dup corpus).

    Returns (doc_a, doc_b, j_e4) with doc_a < doc_b, j_e4 = floor(J·10⁴).
    """
    import ray as _ray

    pairs = minhash_lsh_pairs(ds, text_col, num_perm, bands, k,
                              max_bucket, spill_dir=spill_dir).materialize()

    def pair_ids(batch: pd.DataFrame) -> pd.DataFrame:
        ids = np.unique(np.concatenate([batch["doc_a"].to_numpy(),
                                        batch["doc_b"].to_numpy()]))
        return pd.DataFrame({"doc_id": ids})

    id_parts = pairs.map_batches(pair_ids, batch_format="pandas",
                                 batch_size=None).to_pandas()
    cand_ids = (np.unique(id_parts["doc_id"].to_numpy())
                if "doc_id" in id_parts.columns else np.zeros(0, object))
    ids_ref = _ray.put(cand_ids)

    def keep_cands(batch: pd.DataFrame) -> pd.DataFrame:
        wanted = _ray.get(ids_ref)
        m = np.isin(batch["doc_id"].to_numpy(), wanted, assume_unique=False)
        return batch.loc[m, ["doc_id", text_col]]

    # candidates-only, never the corpus: pinned once for the byte probe
    # plus up to two join consumers (spill seam honored)
    from zeeklog_ray.spill import pin_or_spill

    cand_texts = pin_or_spill(
        ds.map_batches(keep_cands, batch_format="pandas", batch_size=None),
        spill_dir, "ngram_cand_texts")

    def verify_cols(batch: pd.DataFrame, ta: pd.Series,
                    tb: pd.Series) -> pd.DataFrame:
        inter, union = ngram_jaccard_counts(ta, tb, k)
        keep = (union > 0) & (10_000 * inter >= threshold_e4 * union)
        out = batch.loc[keep, ["doc_a", "doc_b"]].copy()
        out["j_e4"] = ((10_000 * inter[keep]) //
                       union[keep]).astype(np.int64)
        return out

    if fits_in_heap(_utf8_bytes(cand_texts, text_col)
                    + len(cand_ids) * PY_ROW_BYTES):
        texts_pd = cand_texts.to_pandas()
        lookup = (dict(zip(texts_pd["doc_id"], texts_pd[text_col]))
                  if "doc_id" in texts_pd.columns else {})
        lookup_ref = _ray.put(lookup)

        def verify(batch: pd.DataFrame) -> pd.DataFrame:
            lut = _ray.get(lookup_ref)
            return verify_cols(batch, batch["doc_a"].map(lut),
                               batch["doc_b"].map(lut))

        return pairs.map_batches(verify, batch_format="pandas",
                                 batch_size=None)

    # ---- partitioned tier: attach both texts with two bucketed joins ----
    from zeeklog_ray.relational import bucketed_equi_join

    def as_text(role: str):
        def f(batch: pd.DataFrame) -> pd.DataFrame:
            return batch.rename(columns={"doc_id": role,
                                         text_col: f"_t{role[-1]}"})

        return f

    with_a = bucketed_equi_join(
        pairs,
        cand_texts.map_batches(as_text("doc_a"), batch_format="pandas",
                               batch_size=None),
        on="doc_a")
    with_b = bucketed_equi_join(
        with_a,
        cand_texts.map_batches(as_text("doc_b"), batch_format="pandas",
                               batch_size=None),
        on="doc_b")

    def verify_joined(batch: pd.DataFrame) -> pd.DataFrame:
        return verify_cols(batch, batch["_ta"], batch["_tb"])

    return with_b.map_batches(verify_joined, batch_format="pandas",
                              batch_size=None)


def simhash_signatures(ds: "ray.data.Dataset", text_col: str = "text",
                       k: int = 5) -> "ray.data.Dataset":
    """64-bit SimHash per document over byte k-shingles: each shingle hash
    votes ±1 on each bit; sign of the vote sum is the bit.  Vectorized via
    per-bit popcount-style accumulation with ``np.add.reduceat``."""

    def sig(batch: pd.DataFrame) -> pd.DataFrame:
        hashes, offsets = _shingle_hashes(batch[text_col], k)
        n = len(batch)
        out = np.zeros(n, dtype=np.uint64)
        if len(hashes):
            counts = np.diff(offsets)
            ok = counts > 0
            for bit in range(64):
                votes = ((hashes >> np.uint64(bit)) & np.uint64(1)).astype(np.int64)
                votes = 2 * votes - 1
                sums = np.zeros(n, dtype=np.int64)
                sums[ok] = np.add.reduceat(votes, offsets[:-1][ok])
                out |= (sums > 0).astype(np.uint64) << np.uint64(bit)
        return pd.DataFrame({"doc_id": batch["doc_id"],
                             "simhash": out.astype(np.int64)})

    return ds.map_batches(sig, batch_format="pandas", batch_size=None)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized population count over uint64 (SWAR) — exact, no lookup
    tables, matches SQL bit_count on the two's-complement BIGINT view."""
    x = x.astype(np.uint64, copy=True)
    x -= (x >> np.uint64(1)) & np.uint64(0x5555555555555555)
    x = (x & np.uint64(0x3333333333333333)) + \
        ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)) \
        .astype(np.int64)


def simhash_near_dup_pairs(ds: "ray.data.Dataset", max_hamming: int = 3,
                           text_col: str = "text", k: int = 5,
                           max_bucket: int = 512,
                           spill_dir: str | None = None
                           ) -> "ray.data.Dataset":
    """SimHash near-dup pairs: 64-bit signatures
    (:func:`simhash_signatures`), Hamming-ball blocking by the pigeonhole
    band split, EXACT popcount verify.  Two signatures within Hamming
    distance d differ in at most d bit positions, so splitting 64 bits
    into d+1 disjoint bands guarantees at least one band matches
    EXACTLY — candidate generation is a self-equi-join on (band_idx,
    band_value), recall 1.0 at the signature level by construction (no
    probability knob, unlike MinHash banding).

    Scale shape: only (band_key, doc_id, simhash) rows shuffle — 17 B/row
    × (max_hamming+1) per doc, never text; the verify popcount runs on
    the join output with zero extra attach (both signatures ride the
    band rows).  Oversized band buckets (identical-content clusters) are
    guarded exactly like :func:`minhash_lsh_pairs` — excluded with a
    runtime warning; run exact dedup first.

    Returns (doc_a, doc_b, hamming) distinct with doc_a < doc_b and
    hamming ≤ ``max_hamming``.  Integer-deterministic end to end, so the
    whole chain (signatures → bands → join → popcount) replays in SQL —
    queries.docs_simhash_dups.  Reference analog: none; public
    Charikar-2002 SimHash + Manku-et-al banding shape."""
    import ray as _ray

    from zeeklog_ray.spill import pin_or_spill

    if not 0 <= max_hamming <= 15:
        raise ValueError(f"max_hamming must be in [0, 15], got {max_hamming}")
    bands = max_hamming + 1
    width = 64 // bands

    sigs = simhash_signatures(ds, text_col, k)

    def band_rows(batch: pd.DataFrame) -> pd.DataFrame:
        sim = batch["simhash"].to_numpy(np.int64).view(np.uint64)
        outs = []
        for b in range(bands):
            lo = b * width
            w = width if b < bands - 1 else 64 - lo
            bv = (sim >> np.uint64(lo)) & np.uint64((1 << w) - 1)
            # band index folded above the value bits (w ≤ 56 always)
            bb = bv | (np.uint64(b) << np.uint64(56))
            outs.append(pd.DataFrame({"bb": bb.astype(np.int64),
                                      "doc_id": batch["doc_id"],
                                      "sh": sim.view(np.int64)}))
        return pd.concat(outs, ignore_index=True)

    banded = pin_or_spill(
        sigs.map_batches(band_rows, batch_format="pandas",
                         batch_size=None),
        spill_dir, "simhash_banded")
    n_banded = banded.count()
    big_keys, n_dropped = _over_cap_bucket_keys(banded, n_banded,
                                                max_bucket)
    if len(big_keys):
        import logging

        logging.getLogger(__name__).warning(
            "simhash_near_dup_pairs: excluding %d oversized band buckets "
            "(%d rows > max_bucket=%d); members emit NO pairs — run "
            "exact dedup first", len(big_keys), n_dropped, max_bucket)
        banded = _drop_buckets(banded, big_keys)
        n_banded = banded.count()
    if n_banded == 0:
        import pyarrow as pa

        return ray.data.from_arrow(pa.table({
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64()),
            "hamming": pa.array([], pa.int64())}))

    from zeeklog_ray.relational import (bucket_exchange, bucketed_distinct,
                                        to_pandas)

    def bucket_pairs(group: pa.Table) -> pd.DataFrame:
        group = to_pandas(group)
        m = group.merge(group, on="bb", suffixes=("_a", "_b"))
        m = m[m["doc_id_a"] < m["doc_id_b"]]
        ham = _popcount64(m["sh_a"].to_numpy(np.int64).view(np.uint64)
                          ^ m["sh_b"].to_numpy(np.int64).view(np.uint64))
        keep = ham <= max_hamming
        return pd.DataFrame({"doc_a": m["doc_id_a"].to_numpy()[keep],
                             "doc_b": m["doc_id_b"].to_numpy()[keep],
                             "hamming": ham[keep]})

    cand = bucket_exchange(banded, "bb", bucket_pairs)
    return bucketed_distinct(cand, ["doc_a", "doc_b", "hamming"])


def first_wins(ds: "ray.data.Dataset", key: str,
               order_col: str) -> "ray.data.Dataset":
    """Exact first-wins dedup on ``key``: keep the row with the smallest
    ``order_col`` per key — the reference's multi-day merge semantics
    (main.rs:320-330: insert only if key absent, days scanned in order).

    One :func:`~zeeklog_ray.relational.bucket_exchange`: a stable sort +
    ``drop_duplicates`` per key-hash bucket instead of Python per key."""
    from zeeklog_ray.relational import bucket_exchange, to_pandas

    def per_bucket(group: pa.Table) -> pd.DataFrame:
        g = to_pandas(group).sort_values([key, order_col], kind="mergesort")
        return g.drop_duplicates(subset=[key], keep="first")

    return bucket_exchange(ds, key, per_bucket)


def embedding_cosine_pairs(ds: "ray.data.Dataset", threshold_e4: int,
                           block_col: str | None = None,
                           vec_col: str = "embedding",
                           id_col: str = "vec_id",
                           max_block_rows: int = 20_000) -> "ray.data.Dataset":
    """Embedding near-duplicate pairs: cosine ≥ threshold (1e-4 fixed point).

    Blocked all-pairs: rows are grouped by ``block_col`` (a clustering /
    LSH bucket column; REQUIRED at scale) and each block computes a
    normalized matmul.  Scores floored at 1e-4 in float64 for oracle
    robustness.

    ``max_block_rows`` is the O(n²) landmine guard: a block of m rows costs
    m² similarity entries, so an unblocked input (``block_col=None`` puts
    EVERYTHING in one block) or a degenerate block past the cap RAISES
    instead of silently going quadratic — pass a real blocking column
    (:func:`zeeklog_ray.ops.similarity.lsh_bucket_column` provides one) or
    raise the cap deliberately for a known-small input.
    """

    def block_pairs(group: pd.DataFrame) -> pd.DataFrame:
        if len(group) > max_block_rows:
            bval = group[block_col].iloc[0] if block_col in group else "?"
            raise ValueError(
                f"embedding_cosine_pairs: block {bval!r} has {len(group)} rows "
                f"(> max_block_rows={max_block_rows}); all-pairs would be "
                f"O(n²) — supply a finer block_col (e.g. an LSH bucket) or "
                f"raise max_block_rows explicitly for a known-small input")
        ids = group[id_col].to_numpy()
        mat = np.stack(group[vec_col].to_numpy()).astype(np.float64)
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        mat = mat / np.where(norms == 0, 1, norms)
        sims = mat @ mat.T
        # threshold FIRST, floor only the survivors.  Bit-identical to
        # `floor(sims·1e4) >= t` because t is an integer: floor(x) >= t ⟺
        # x >= t.  The old kernel's full-matrix floor→int64 plus
        # np.triu_indices (all m²/2 index pairs, ~80 MB at m=3k) was
        # measured at 3× the matmul itself; this is one in-place scale,
        # one compare, one nonzero — survivors are rare by construction.
        sims *= 10_000.0
        ia, ib = np.nonzero(sims >= threshold_e4)
        up = ia < ib                     # strict upper triangle only
        ia, ib = ia[up], ib[up]
        a, b = ids[ia], ids[ib]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return pd.DataFrame({"id_a": lo, "id_b": hi,
                             "cos_e4": np.floor(sims[ia, ib])
                             .astype(np.int64)})

    if block_col is None:
        def tag(batch: pd.DataFrame) -> pd.DataFrame:
            batch["_block"] = 0
            return batch

        ds = ds.map_batches(tag, batch_format="pandas", batch_size=None)
        block_col = "_block"
    out = ds.groupby(block_col).map_groups(block_pairs, batch_format="pandas")
    return out


def semantic_dedup_pairs(ds: "ray.data.Dataset", threshold_e4: int,
                         n_clusters: int = 64, n_probes: int = 2,
                         vec_col: str = "embedding", id_col: str = "vec_id",
                         max_block_rows: int = 20_000,
                         sample_n: int = 4096,
                         seed: int = 42) -> "ray.data.Dataset":
    """Cluster-blocked embedding near-dup pairs — the SCALE path for
    :func:`embedding_cosine_pairs`, which needs a blocking column to stay
    sub-quadratic.

    Shape: a coarse quantizer is trained on a driver-side sample
    (:func:`~zeeklog_ray.ops.similarity.ivf_build_centroids` — normalized
    space, so clusters are cosine-coherent), then ONE row-local pass
    assigns every vector to its ``n_probes`` nearest centroids and emits
    one (id, cluster, vector) row per probe.  The per-cluster all-pairs
    matmul then runs inside :func:`embedding_cosine_pairs` with
    ``block_col="cluster"``, and a bucketed distinct collapses the pairs
    that co-occurred in several probed clusters.  Cost: n·probes rows
    shuffle once (vector payload ×probes — linear, not quadratic), plus
    Σ m_c² per cluster, bounded by ``max_block_rows``.

    APPROXIMATE by design: a pair whose two vectors share none of their
    probed clusters is missed.  Multi-probe makes that rare for genuinely
    near vectors (they sit near the same centroids); recall on planted
    near-dups is pytest-gated (tests/test_ops_dedup.py) the same way the
    LSH/IVF ANN tiers are.  For exact semantics at small n use
    ``embedding_cosine_pairs(block_col=None)`` under the O(n²) guard."""
    import pyarrow as pa

    import ray as _ray

    from zeeklog_ray.ops.similarity import (
        _matrix,
        _normalize,
        ivf_build_centroids,
    )
    from zeeklog_ray.relational import bucketed_distinct

    if n_probes < 1:
        raise ValueError("semantic_dedup_pairs: n_probes must be >= 1")
    # project to the vector column BEFORE sampling — ivf_build_centroids
    # pulls its sample to the driver, and the raw table may carry wide
    # payload columns (text, media bytes) the quantizer never reads
    cents = ivf_build_centroids(ds.select_columns([vec_col]),
                                n_clusters=n_clusters,
                                sample_n=sample_n, vec_col=vec_col,
                                seed=seed)
    cref = _ray.put(_normalize(np.asarray(cents, dtype=np.float64)))
    probes = min(n_probes, len(cents))

    def assign_probes(batch: pa.Table) -> pa.Table:
        # length check BEFORE _matrix — it raises on a zero-row list column
        if len(batch) == 0:
            return pa.table({id_col: batch[id_col],
                             "cluster": pa.array([], pa.int64()),
                             vec_col: batch[vec_col]})
        c = _ray.get(cref)
        m = _matrix(batch[vec_col])
        sims = _normalize(m) @ c.T                     # (n, k) cosine-ish
        top = np.argpartition(-sims, probes - 1, axis=1)[:, :probes]
        n = len(m)
        idx = np.repeat(np.arange(n), probes)
        return pa.table({
            id_col: batch[id_col].take(pa.array(idx)),
            "cluster": pa.array(top.ravel().astype(np.int64), pa.int64()),
            vec_col: batch[vec_col].take(pa.array(idx)),
        })

    exploded = ds.select_columns([id_col, vec_col]).map_batches(
        assign_probes, batch_format="pyarrow", batch_size=None)
    pairs = embedding_cosine_pairs(exploded, threshold_e4,
                                   block_col="cluster", vec_col=vec_col,
                                   id_col=id_col,
                                   max_block_rows=max_block_rows)
    # multi-probe co-occurrence duplicates: same (id_a, id_b) always
    # carries the same cos_e4, so distinct over all three is a pure dedup
    return bucketed_distinct(pairs, ["id_a", "id_b", "cos_e4"])


# --------------------------------------------------------------------------
# Cross-document duplicated-substring detection (window-hash spans)
# --------------------------------------------------------------------------
#
# The substring-level dedup signal of Lee et al., "Deduplicating Training
# Data Makes Language Models Better" (ACL 2022), re-expressed for Ray Data:
# instead of a suffix array (inherently sequential, whole-corpus state),
# hash every k-WORD window of every document and count, per window hash,
# how many distinct documents contain it.  A window seen in >= 2 documents
# is a duplicated span; the per-document fraction of duplicated windows is
# the filter signal (docs that are mostly boilerplate / syndicated copy
# score near 1.0 even when no WHOLE-document dup exists).

_GRAM_Q = np.uint64(1099511628211)  # word-hash Horner base (FNV-ish prime)


def window_gram_counts(ds: "ray.data.Dataset", text_col: str = "text",
                       id_col: str = "doc_id", k: int = 8,
                       ) -> "ray.data.Dataset":
    """Per-(document, k-word-window-hash) occurrence counts — the row-local
    first stage of :func:`duplicated_window_stats`.

    Words are the non-empty ' '-split tokens (exactly DuckDB's
    ``LIST_FILTER(STRING_SPLIT(text,' '), x -> x <> '')``); the window hash
    is a Horner combine (base ``_GRAM_Q``) of the per-word Horner hashes,
    so the whole signature is bit-replayable in SQL.  Documents are rows,
    so every window of a document lands in one batch and the per-(doc,
    gram) counts emitted here are already GLOBAL for that document — only
    (doc_id, gram, cnt) rows ever shuffle, never text.
    """

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        from zeeklog_ray.ops.wordhash import split_word_hashes

        doc_of, wh = split_word_hashes(batch[text_col])
        empty = pd.DataFrame({id_col: pd.Series([], dtype=batch[id_col].dtype),
                              "gram": pd.Series([], dtype="int64"),
                              "cnt": pd.Series([], dtype="int64")})
        n = len(wh) - k + 1
        if n <= 0:
            return empty
        g = np.zeros(n, dtype=np.uint64)
        for j in range(k):                     # k shift-and-add passes
            g = g * _GRAM_Q + wh[j:j + n]
        valid = doc_of[:n] == doc_of[k - 1:]   # window stays in one doc
        if not valid.any():
            return empty
        df = pd.DataFrame({"_row": doc_of[:n][valid],
                           "gram": g[valid].view(np.int64)})
        cnt = df.groupby(["_row", "gram"], sort=False).size() \
            .reset_index(name="cnt")
        cnt[id_col] = batch[id_col].to_numpy()[cnt.pop("_row").to_numpy()]
        return cnt[[id_col, "gram", "cnt"]]

    return ds.map_batches(partial, batch_format="pandas", batch_size=None)


def _finish_dup_stats(ds: "ray.data.Dataset", dup_partial: "ray.data.Dataset",
                      text_col: str, id_col: str, cols: tuple[str, str, str],
                      n_offset: int = 0) -> "ray.data.Dataset":
    """Stage 3 of :func:`duplicated_window_stats` / :func:`cdc_dup_stats`:
    attach the per-(doc, bucket) dup partials ``(id, n=0, dup)`` to EVERY
    doc of ``ds`` as ``(id, n, dup, ratio_e4)`` under the names ``cols``,
    where ``n`` is the doc's word count minus ``n_offset`` (floored at 0).

    TIERED: the partials are DUP-doc cardinality (docs holding any shared
    span — a few % of the corpus at realistic dup rates), so while the
    summed (doc → count) map fits the heap budget
    (:func:`zeeklog_ray.relational.fits_in_heap`) it broadcasts onto a
    row-local pass over the docs instead of paying a corpus-cardinality
    doc-shaped Sort (the union path measured ~6 s of the 16 s wall at 1M
    docs); the union sum against an n-words spine is the fallback for a
    pathological corpus where most docs share content."""
    from zeeklog_ray.relational import grouped_sum_bucketed

    n_col, dup_col, ratio_col = cols

    def n_of(batch: pd.DataFrame) -> np.ndarray:
        from zeeklog_ray.ops.wordhash import split_words

        doc_of, _flat = split_words(batch[text_col])
        n_words = np.bincount(doc_of, minlength=len(batch)).astype(np.int64)
        return np.maximum(n_words - n_offset, 0)

    n_dup_docs = dup_partial.count()
    if fits_in_heap(n_dup_docs * PY_ROW_BYTES):
        import ray as _ray

        # an all-empty dataset's to_pandas() loses its columns (the Ray
        # empty-block schema wart) — build the empty map explicitly
        if n_dup_docs:
            # one partial row per (doc, bucket) — SUM per doc before
            # building the map (a dict(zip(...)) would keep only the
            # last bucket's partial)
            dp = dup_partial.to_pandas().groupby(id_col)[dup_col].sum()
            dmap = dict(zip(dp.index, dp.to_numpy().astype(np.int64)))
        else:
            dmap = {}
        dref = _ray.put(dmap)

        def finish_bc(batch: pd.DataFrame) -> pd.DataFrame:
            nw = n_of(batch)
            dw = batch[id_col].map(_ray.get(dref)).fillna(0) \
                .to_numpy().astype(np.int64)
            return pd.DataFrame({
                id_col: batch[id_col].to_numpy(),
                n_col: nw,
                dup_col: dw,
                ratio_col: dw * 10_000 // np.maximum(nw, 1),
            })

        return ds.map_batches(finish_bc, batch_format="pandas",
                              batch_size=None)

    def spine(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({id_col: batch[id_col].to_numpy(),
                             n_col: n_of(batch), dup_col: np.int64(0)})

    spine_ds = ds.map_batches(spine, batch_format="pandas", batch_size=None)
    summed = grouped_sum_bucketed(
        spine_ds.union(dup_partial), [id_col],
        sums={n_col: n_col, dup_col: dup_col})

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        nw = batch[n_col].to_numpy().astype(np.int64)
        dw = batch[dup_col].to_numpy().astype(np.int64)
        batch[ratio_col] = dw * 10_000 // np.maximum(nw, 1)
        return batch

    return summed.map_batches(finish, batch_format="pandas", batch_size=None)


def duplicated_window_stats(ds: "ray.data.Dataset", text_col: str = "text",
                            id_col: str = "doc_id", k: int = 8
                            ) -> "ray.data.Dataset":
    """Per-document duplicated-span statistics: of the document's k-word
    windows, how many (counting repeats) have a window hash that appears in
    >= 2 DISTINCT documents corpus-wide.

    Output: (doc_id, n_windows, dup_windows, dup_ratio_e4) for EVERY
    document (short docs get 0/0/0).  Exact integer arithmetic throughout;
    the DuckDB oracle replays the hashes bit-for-bit, so collisions (if
    any) affect both sides identically.

    Shuffle shape at 10^12 docs: stage 1 is row-local; stage 2 shuffles
    only (doc_id, gram, cnt) rows ONCE on the gram-hash bucket (all rows of
    a gram co-locate, so the >= 2-docs test and the per-doc dup partials
    both finish inside the bucket as C-level pandas); stage 3 is a
    doc-shaped bucketed sum.  Window payloads (the text) never shuffle.
    """
    from zeeklog_ray.relational import bucket_exchange, to_pandas

    dg = window_gram_counts(ds, text_col=text_col, id_col=id_col, k=k)

    def per_bucket(group: pa.Table) -> pd.DataFrame:
        group = to_pandas(group)
        # rows are distinct per (doc, gram) ⇒ group size == n distinct docs
        ndocs = group.groupby("gram", sort=False)["cnt"].transform("size")
        dup = group[ndocs >= 2]
        out = dup.groupby(id_col, sort=False)["cnt"].sum() \
            .reset_index(name="dup_windows")
        out["n_windows"] = np.int64(0)
        return out[[id_col, "n_windows", "dup_windows"]]

    dup_partial = bucket_exchange(dg, "gram", per_bucket).materialize()

    return _finish_dup_stats(ds, dup_partial, text_col, id_col,
                             ("n_windows", "dup_windows", "dup_ratio_e4"),
                             n_offset=k - 1)


def _gram_hashes(wh: np.ndarray, k: int) -> np.ndarray:
    """Horner combine (base ``_GRAM_Q``) of every k consecutive word
    hashes — k shift-and-add passes, uint64 wraparound."""
    n = len(wh) - k + 1
    if n <= 0:
        return np.zeros(0, dtype=np.uint64)
    g = np.zeros(n, dtype=np.uint64)
    for j in range(k):
        g = g * _GRAM_Q + wh[j:j + n]
    return g


def remove_dup_spans(ds: "ray.data.Dataset", text_col: str = "text",
                     id_col: str = "doc_id", k: int = 8,
                     carry_cols: tuple[str, ...] = ()) -> "ray.data.Dataset":
    """The CLEANING transform behind :func:`duplicated_window_stats`:
    delete every word covered by a k-word window whose hash appears in
    >= 2 distinct documents (Lee et al. 2022 remove the duplicated spans,
    not the documents).  Output: (doc_id, text_clean, n_words, n_removed)
    for every document; surviving words re-join with single spaces (the
    filtered-word-list normalization the oracle replays).

    Tiered on the duplicated-gram array (8 B per gram,
    :func:`zeeklog_ray.relational.fits_in_heap`):

    * fits the heap budget — ship the SORTED dup-hash array once; a second
      row-local pass recomputes each doc's window hashes, probes with one
      ``np.searchsorted``, and deletes covered words via an interval
      difference array.  No text ever shuffles.
    * web-scale dup set — (doc, gram, pos) window rows join the dup grams
      on a gram-hash bucket, the hit positions collapse to one list row
      per doc, and ONE doc-bucketed LEFT merge attaches them to the text
      for the same row-local rebuild (text shuffles exactly once).

    Both tiers are exact and agree (pytest cross-tier parity).
    """
    from zeeklog_ray.relational import bucket_exchange, to_pandas

    import ray as _ray

    dg = window_gram_counts(ds, text_col=text_col, id_col=id_col, k=k)

    def dup_grams(group: pa.Table) -> pd.DataFrame:
        group = to_pandas(group)
        sz = group.groupby("gram", sort=False)["cnt"].transform("size")
        return group.loc[sz >= 2, ["gram"]].drop_duplicates()

    dup = bucket_exchange(dg, "gram", dup_grams).materialize()
    n_dup = dup.count()

    from zeeklog_ray.ops.wordhash import split_word_hashes

    def _rebuild(batch: pd.DataFrame, wvals: np.ndarray, doc_of: np.ndarray,
                 covered: np.ndarray) -> pd.DataFrame:
        n = len(batch)
        n_words = np.bincount(doc_of, minlength=n).astype(np.int64)
        n_removed = np.bincount(doc_of[covered], minlength=n) \
            .astype(np.int64) if covered.any() else np.zeros(n, np.int64)
        kept = pd.Series(wvals[~covered], index=doc_of[~covered])
        joined = kept.groupby(level=0).agg(" ".join) if len(kept) \
            else pd.Series(dtype=object)
        clean = np.full(n, "", dtype=object)
        clean[joined.index.to_numpy()] = joined.to_numpy()
        out = pd.DataFrame({
            id_col: batch[id_col].to_numpy(),
            "text_clean": clean,
            "n_words": n_words,
            "n_removed": n_removed,
        })
        for c in carry_cols:               # pass-through payload columns
            out[c] = batch[c].to_numpy()
        return out

    if fits_in_heap(n_dup * 8):
        dset = np.sort(dup.to_pandas()["gram"].to_numpy().astype(np.int64)) \
            if n_dup else np.zeros(0, dtype=np.int64)
        dref = _ray.put(dset)

        def clean_bc(batch: pd.DataFrame) -> pd.DataFrame:
            doc_of, wh, wvals = split_word_hashes(batch[text_col],
                                                  want_words=True)
            covered = np.zeros(len(wvals), dtype=bool)
            if len(wvals):
                g = _gram_hashes(wh, k)
                ds_ = _ray.get(dref)
                if len(g) and len(ds_):
                    valid = doc_of[:len(g)] == doc_of[k - 1:]
                    pos = np.searchsorted(ds_, g.view(np.int64))
                    hit = valid & (pos < len(ds_)) & \
                        (ds_[np.minimum(pos, len(ds_) - 1)]
                         == g.view(np.int64))
                    if len(starts := np.flatnonzero(hit)):
                        diff = np.zeros(len(wvals) + 1, dtype=np.int64)
                        np.add.at(diff, starts, 1)
                        np.add.at(diff, starts + k, -1)
                        covered = np.cumsum(diff[:-1]) > 0
            return _rebuild(batch, wvals, doc_of, covered)

        return ds.map_batches(clean_bc, batch_format="pandas",
                              batch_size=None)

    # ---- join tier: dup set too large to broadcast ----
    from zeeklog_ray.relational import bucketed_equi_join, cogroup

    def win_positions(batch: pd.DataFrame) -> pd.DataFrame:
        doc_of, wh = split_word_hashes(batch[text_col])
        empty = pd.DataFrame({id_col: pd.Series([], dtype=batch[id_col].dtype),
                              "gram": pd.Series([], dtype="int64"),
                              "pos": pd.Series([], dtype="int64")})
        if not len(wh):
            return empty
        g = _gram_hashes(wh, k)
        if not len(g):
            return empty
        valid = doc_of[:len(g)] == doc_of[k - 1:]
        if not valid.any():
            return empty
        flat = np.flatnonzero(valid)
        # word-position within the doc = flat index − doc's first flat idx
        first = np.full(len(batch), len(wh), dtype=np.int64)
        np.minimum.at(first, doc_of, np.arange(len(wh), dtype=np.int64))
        rows = doc_of[flat]
        return pd.DataFrame({
            id_col: batch[id_col].to_numpy()[rows],
            "gram": g[valid].view(np.int64),
            "pos": flat - first[rows],
        })

    winpos = ds.map_batches(win_positions, batch_format="pandas",
                            batch_size=None)
    hits = bucketed_equi_join(winpos, dup, on="gram")

    def starts_per_doc(group: pa.Table) -> pd.DataFrame:
        agg = to_pandas(group).groupby(id_col, sort=False)["pos"] \
            .agg(lambda s: sorted(s)).reset_index(name="_starts")
        return agg

    # pinned: cogroup reads each side's schema, which would run this
    # exchange once more, and the docs branch may hold repartitions of
    # its own (the one-CPU rule)
    starts = bucket_exchange(hits.select_columns([id_col, "pos"]), id_col,
                             starts_per_doc).materialize()

    # ONE doc-bucketed LEFT attach of the starts lists onto the text
    def clean_join(frames: list[pd.DataFrame]) -> pd.DataFrame:
        batch, st = frames
        batch = batch.reset_index(drop=True)
        doc_of, _wh, wvals = split_word_hashes(batch[text_col],
                                               want_words=True)
        covered = np.zeros(len(wvals), dtype=bool)
        if len(wvals) and len(st):
            first = np.full(len(batch), len(wvals), dtype=np.int64)
            np.minimum.at(first, doc_of,
                          np.arange(len(wvals), dtype=np.int64))
            # vectorized start scatter: left-merge the starts lists onto
            # the batch rows, explode to (row, pos) pairs
            m = batch[[id_col]].merge(st, on=id_col, how="left")
            sx = m["_starts"].explode().dropna()
            if len(sx):
                rows_s = sx.index.to_numpy().astype(np.int64)
                idx = first[rows_s] + sx.to_numpy().astype(np.int64)
                diff = np.zeros(len(wvals) + 1, dtype=np.int64)
                np.add.at(diff, idx, 1)
                np.add.at(diff, idx + k, -1)
                covered = np.cumsum(diff[:-1]) > 0
        return _rebuild(batch, wvals, doc_of, covered)

    return cogroup([ds.select_columns([id_col, text_col, *carry_cols]),
                    starts], id_col, clean_join)


def cdc_chunk_table(ds: "ray.data.Dataset", text_col: str = "text",
                    id_col: str = "doc_id", window: int = 4,
                    mask_bits: int = 5, min_words: int = 8,
                    max_words: int = 64) -> "ray.data.Dataset":
    """Content-defined chunking: split every document into variable-size
    word chunks whose boundaries are chosen by CONTENT (a rolling-hash
    mask test), not position — the Rabin/FastCDC scheme storage dedup
    systems use (LBFS, Muthitacharoen et al. SOSP'01), at the word
    granularity this corpus pipeline already speaks.

    Boundary rule: after word ``i``, cut when the Horner hash of the
    trailing ``window`` word hashes has its low ``mask_bits`` bits zero
    (expected chunk ≈ ``2^mask_bits`` words), subject to
    ``min_words``/``max_words`` (a cut is never taken before ``min_words``
    words into the chunk; a chunk is force-cut at ``max_words``).  Because
    boundaries re-synchronize on content, an edit perturbs only the
    chunk(s) containing it — and each chunk contributes ONE hash row for
    ~``2^mask_bits`` words, so the downstream dup-detection shuffle is
    ~``2^mask_bits``× smaller than the per-window gram table of
    :func:`duplicated_window_stats` — the cheap screening tier at corpus
    scale, same bucketed pattern after it.

    Vectorization: word hashes + rolling window hashes + per-chunk
    Horner combines are all numpy (the reduceat technique of
    :func:`wordhash.horner_hash_strings`); only the boundary WALK is a
    Python loop, and it iterates once per emitted CHUNK (≈ words /
    2^mask_bits), not per word.  Documents are rows, so everything here is row-local —
    only ``(doc_id, chunk_hash, chunk_words)`` rows leave the stage.

    Output: ``(doc_id, chunk_hash int64, chunk_words int64)``, one row
    per chunk in document order.
    """
    if not (1 <= min_words <= max_words):
        raise ValueError("cdc_chunk_table: need 1 <= min_words <= max_words")
    mask = np.uint64((1 << mask_bits) - 1)

    def chunks(batch: pd.DataFrame) -> pd.DataFrame:
        from zeeklog_ray.ops.wordhash import split_word_hashes

        doc_of, wh = split_word_hashes(batch[text_col])
        empty = pd.DataFrame({
            id_col: pd.Series([], dtype=batch[id_col].dtype),
            "chunk_hash": pd.Series([], dtype="int64"),
            "chunk_words": pd.Series([], dtype="int64")})
        if not len(wh):
            return empty
        n = len(wh)
        # rolling hash of the trailing `window` word hashes, aligned so
        # roll[i] covers words [i-window+1 .. i]; windows that span a
        # document boundary can never be cut points (cut positions below
        # are constrained to the doc anyway via per-doc candidate lists)
        nw = n - window + 1
        cand_mask = np.zeros(n, dtype=bool)
        if nw > 0:
            g = _gram_hashes(wh, window)
            same_doc = doc_of[:nw] == doc_of[window - 1:]
            cand_mask[window - 1:] = (g & mask == 0) & same_doc
        # per-document boundary walk: iterate over chunks, not words.
        # One GLOBAL flatnonzero + python-int bisect beats a per-doc
        # numpy flatnonzero/searchsorted pair: numpy call overhead
        # (~2-4 µs) × docs dominated the walk at 1M short docs
        # (measured 1.23 s → 0.29 s single-thread on a 200k-doc block)
        import bisect as _bisect

        doc_starts = np.flatnonzero(np.r_[True, doc_of[1:] != doc_of[:-1]])
        doc_ends = np.r_[doc_starts[1:], n]
        cand_list = np.flatnonzero(cand_mask).tolist()
        n_cand = len(cand_list)
        chunk_start_idx: list[int] = []
        chunk_end_idx: list[int] = []   # exclusive
        for ds_i, de_i in zip(doc_starts.tolist(), doc_ends.tolist()):
            start = ds_i
            j = _bisect.bisect_left(cand_list, ds_i)
            while start < de_i:
                lo = start + min_words - 1
                hi = start + max_words - 1
                while j < n_cand and cand_list[j] < lo:
                    j += 1
                if j < n_cand and cand_list[j] <= hi and cand_list[j] < de_i:
                    cut = cand_list[j]
                else:
                    cut = min(hi, de_i - 1)
                chunk_start_idx.append(start)
                chunk_end_idx.append(cut + 1)
                start = cut + 1
        starts = np.asarray(chunk_start_idx, dtype=np.int64)
        ends = np.asarray(chunk_end_idx, dtype=np.int64)
        lens = ends - starts
        # per-chunk Horner combine, vectorized: word j in its chunk
        # contributes wh[j] * Q^(chunk_end-1-j)
        word_chunk = np.repeat(np.arange(len(starts)), lens)
        maxlen = int(lens.max())
        qpow = np.full(maxlen, _GRAM_Q, dtype=np.uint64)
        qpow[0] = np.uint64(1)
        np.multiply.accumulate(qpow, out=qpow)
        pos_from_end = (ends[word_chunk] - 1) - np.arange(n, dtype=np.int64)
        terms = wh * qpow[pos_from_end]
        ch = np.add.reduceat(terms, starts)
        return pd.DataFrame({
            id_col: batch[id_col].to_numpy()[doc_of[starts]],
            "chunk_hash": ch.view(np.int64),
            "chunk_words": lens,
        })

    return ds.map_batches(chunks, batch_format="pandas", batch_size=None)


def cdc_dup_stats(ds: "ray.data.Dataset", text_col: str = "text",
                  id_col: str = "doc_id", window: int = 4,
                  mask_bits: int = 5, min_words: int = 8,
                  max_words: int = 64) -> "ray.data.Dataset":
    """Per-document shared-content estimate from content-defined chunks:
    words covered by a chunk whose hash appears in >= 2 distinct
    documents — :func:`duplicated_window_stats`' signal at
    ~``2^mask_bits``× less shuffle (one row per chunk, not per window),
    the screening tier that decides which docs enter the expensive
    verify tiers.

    Same scale shape as duplicated_window_stats: stage 1 row-local
    (chunking), stage 2 ONE chunk-hash-bucketed pass (>= 2-docs test +
    per-doc shared-word partials inside the bucket), stage 3 a
    doc-shaped bucketed sum against the n_words spine.

    Output: ``(doc_id, n_words, shared_words, shared_ratio_e4)`` for
    every document.
    """
    from zeeklog_ray.relational import bucket_exchange, to_pandas

    ch = cdc_chunk_table(ds, text_col=text_col, id_col=id_col,
                         window=window, mask_bits=mask_bits,
                         min_words=min_words, max_words=max_words)

    # collapse repeats within a doc: (doc, hash) -> total words covered.
    # A document's chunks all come out of ONE chunking batch (documents
    # are rows), so the collapse is BATCH-LOCAL — the old bucketed sum
    # here paid a full Sort exchange for an aggregation the chunking
    # stage had already co-located (measured ~4 s of the 16 s wall at
    # 1M docs, 32 CPUs).  per_bucket below re-collapses (hash, doc)
    # inside its bucket, so even a block split mid-doc cannot double-
    # count a document in the >= 2-docs test.
    def collapse(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.groupby([id_col, "chunk_hash"], sort=False,
                            as_index=False)["chunk_words"].sum()
        return out.rename(columns={"chunk_words": "w"})

    per_doc = ch.map_batches(collapse, batch_format="pandas",
                             batch_size=None)

    def per_bucket(group: pa.Table) -> pd.DataFrame:
        g2 = to_pandas(group).groupby(["chunk_hash", id_col], sort=False,
                                      as_index=False)["w"].sum()
        ndocs = g2.groupby("chunk_hash", sort=False)["w"] \
            .transform("size")
        dup = g2[ndocs >= 2]
        out = dup.groupby(id_col, sort=False)["w"].sum() \
            .reset_index(name="shared_words")
        out["n_words"] = np.int64(0)
        return out[[id_col, "n_words", "shared_words"]]

    dup_partial = bucket_exchange(per_doc, "chunk_hash",
                                  per_bucket).materialize()

    return _finish_dup_stats(ds, dup_partial, text_col, id_col,
                             ("n_words", "shared_words", "shared_ratio_e4"))


def cdc_screen_then_verify(ds: "ray.data.Dataset", text_col: str = "text",
                           id_col: str = "doc_id",
                           screen_ratio_e4: int = 2_000,
                           window: int = 4, mask_bits: int = 5,
                           min_words: int = 8, max_words: int = 64,
                           k: int = 8) -> "ray.data.Dataset":
    """The two-tier corpus-scale dup workflow as ONE operator: the cheap
    CDC screening pass (:func:`cdc_dup_stats` — one hash row per
    ~``2^mask_bits`` words) flags suspect documents whose shared-content
    ratio reaches ``screen_ratio_e4``; only the suspects then pay the
    bit-exact per-window tier (:func:`duplicated_window_stats`, one gram
    row per word) — the shape that makes substring-level dedup
    affordable at 10^12 docs, where running the window tier corpus-wide
    would shuffle ~n_words rows.

    The suspect filter is a broadcast semi-join on doc ids when the
    suspect frame fits the heap budget
    (:func:`zeeklog_ray.relational.fits_in_heap`; the expected case: dup
    rates are a few percent), else a bucketed equi-join — the
    decontam/ngram tiering.

    Output: per SUSPECT document, the exact window stats **within the
    suspect subset** plus the screening ratio:
    ``(doc_id, n_windows, dup_windows, dup_ratio_e4, screen_ratio_e4)``.

    RECALL CONDITION (screening is per-document, on the OVERALL shared
    ratio): a span's copies are each counted only if every copy's own
    document reaches ``screen_ratio_e4``.  Copies of a real shared span
    always share its chunks, so two similar-length near-dups screen in
    together (the planted-dup pytest) — but a span duplicated between a
    short doc and a LONG doc whose overall ratio stays below the
    threshold drops the long doc at the screen, and the surviving copy
    then verifies with ``dup_windows = 0`` for that span (the
    asymmetric-copy pytest pins this, documented trade: it is exactly
    the screening economy that makes the tier affordable — lower
    ``screen_ratio_e4`` when long-doc partial overlap matters).
    """
    from zeeklog_ray.relational import broadcast_merge, bucketed_equi_join

    screen = cdc_dup_stats(ds, text_col=text_col, id_col=id_col,
                           window=window, mask_bits=mask_bits,
                           min_words=min_words, max_words=max_words)

    def keep_suspects(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch[batch["shared_ratio_e4"] >= screen_ratio_e4]
        return out[[id_col, "shared_ratio_e4"]] \
            .rename(columns={"shared_ratio_e4": "screen_ratio_e4"})

    suspects = screen.map_batches(keep_suspects, batch_format="pandas",
                                  batch_size=None).materialize()
    n_susp = suspects.count()
    if n_susp == 0:
        import pyarrow as pa

        return ray.data.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            "n_windows": pa.array([], pa.int64()),
            "dup_windows": pa.array([], pa.int64()),
            "dup_ratio_e4": pa.array([], pa.int64()),
            "screen_ratio_e4": pa.array([], pa.int64())}))
    broadcast = fits_in_heap(n_susp * PY_ROW_BYTES)
    if broadcast:
        susp_docs = broadcast_merge(
            ds.select_columns([id_col, text_col]), suspects.to_pandas(),
            on=id_col)
    else:
        susp_docs = bucketed_equi_join(
            ds.select_columns([id_col, text_col]), suspects, on=id_col)
    exact = duplicated_window_stats(
        susp_docs, text_col=text_col, id_col=id_col, k=k)
    # re-attach the screening ratio (suspects are small; broadcast)
    if broadcast:
        return broadcast_merge(exact, suspects.to_pandas(), on=id_col)
    return bucketed_equi_join(exact, suspects, on=id_col)


def incremental_dedup(new_docs: "ray.data.Dataset",
                      base_docs: "ray.data.Dataset",
                      text_col: str = "text", id_col: str = "doc_id",
                      n_bits: int = 1 << 23, k_hashes: int = 5,
                      spill_dir: str | None = None) -> "ray.data.Dataset":
    """Incremental EXACT dedup of a new snapshot against an existing base
    corpus: keep each ``new_docs`` row iff its text content does NOT
    appear in ``base_docs`` (dedup *within* the new snapshot stays
    separate — that is ``exact_dedup_docs``' job).  This is the daily
    shape of a 100-TB corpus: the crawl delta is small, the base is not,
    and re-running full-corpus dedup per day would shuffle the world to
    rediscover what the base already knows.

    Scale shape (three tiers, nothing corpus-shaped ever broadcasts):

    1. Base side reduces to its 128-bit content digests (16 bytes/doc)
       and each BLOCK builds a bloom filter over its digest block;
       blooms are mergeable (bitwise OR = filter of the union), so the
       driver streams ``n_blocks`` small bitsets and holds one
       (``n_bits/8`` bytes; at 10^12 base docs use ~10 bits/key and a
       tree OR-reduce — the filter is still GBs where the digest set
       would be tens of TB).
    2. New side digests row-locally and probes the broadcast bloom:
       definite-new rows are decided with ZERO exchange; only bloom
       hits (true dups + ~1% false positives) emit (id, digest)
       candidate rows.
    3. Candidates semi-join the base digest table on the full 128 bits
       (:func:`~zeeklog_ray.relational.bucketed_semi_anti_join` — one
       key-shaped shuffle of candidates + base digests) which removes
       the bloom false positives exactly; the confirmed-dup id set then
       anti-filters ``new_docs`` — broadcast while it passes
       :func:`zeeklog_ray.relational.fits_in_heap`, bucketed anti-join
       above.

    ``new_docs`` is read twice (probe pass + final filter pass) — the
    deliberate streaming trade: re-executing a deterministic read costs
    one extra scan, pinning the snapshot costs object-store residency
    (same argument as partitioned.write_sorted_zonemap).  Output schema
    = ``new_docs`` schema, row count ≤ ``new_docs``."""
    import ray as _ray

    from zeeklog_ray.relational import (build_bloom, bloom_contains,
                                        bucketed_semi_anti_join)

    def dig_only(batch: pd.DataFrame) -> pd.DataFrame:
        d1, d2 = content_digest128(batch[text_col])
        return pd.DataFrame({"d1": d1.view(np.int64),
                             "d2": d2.view(np.int64)})

    # the digest table is consumed twice (bloom build + verify join) and
    # is DIGEST-shaped (16 B/doc), so pinning it — not the corpus — is
    # cheap; spill_dir swaps the pin for Parquet at the 10^12-doc scale
    # where even digests outgrow the object store (spill.pin_or_spill)
    from zeeklog_ray.spill import pin_or_spill

    base_dig = pin_or_spill(
        base_docs.map_batches(dig_only, batch_format="pandas",
                              batch_size=None),
        spill_dir, "incdedup_base_digests")

    def bloom_of_block(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"bits": [build_bloom(batch["d1"], n_bits,
                                                  k_hashes)]})

    bits = np.zeros(((n_bits + 7) & ~7) // 8, dtype=np.uint8)
    for blk in base_dig.map_batches(bloom_of_block, batch_format="pandas",
                                    batch_size=None) \
            .iter_batches(batch_format="pandas", batch_size=None):
        for b in blk["bits"]:
            np.bitwise_or(bits, b, out=bits)
    if not bits.any():          # empty base: nothing can be a dup
        return new_docs
    bits_ref = _ray.put(bits)

    def probe(batch: pd.DataFrame) -> pd.DataFrame:
        bts = _ray.get(bits_ref)
        d1, d2 = content_digest128(batch[text_col])
        hit = bloom_contains(bts, pd.Series(d1.view(np.int64)), k_hashes)
        return pd.DataFrame({id_col: batch[id_col].to_numpy()[hit],
                             "d1": d1.view(np.int64)[hit],
                             "d2": d2.view(np.int64)[hit]})

    # Candidates are DELTA-shaped (bloom hits: true dups + ~1% FPs), so
    # pin them and broadcast their d1 set back over the base digest
    # table BEFORE the verify join — the exchange then carries
    # O(candidates + colliding base rows), not the whole base (at a
    # 10^12-doc base the full-digest shuffle would move ~16 TB per daily
    # run; the filtered one moves delta-sized rows).  Above the heap
    # budget (8 B per candidate d1) fall back to the full semi-join.
    candidates = pin_or_spill(
        new_docs.map_batches(probe, batch_format="pandas",
                             batch_size=None),
        spill_dir, "incdedup_candidates")
    n_cand = candidates.count()
    verify_base = base_dig
    if n_cand and fits_in_heap(n_cand * 8):
        def d1_of(batch: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"d1": np.unique(batch["d1"].to_numpy())})

        d1p = candidates.map_batches(d1_of, batch_format="pandas",
                                     batch_size=None).to_pandas()
        d1s_ref = _ray.put(np.unique(d1p["d1"].to_numpy())
                           if "d1" in d1p.columns
                           else np.array([], dtype=np.int64))

        def base_hits(batch: pd.DataFrame) -> pd.DataFrame:
            m = np.isin(batch["d1"].to_numpy(), _ray.get(d1s_ref),
                        assume_unique=False)
            return batch[m]

        verify_base = base_dig.map_batches(base_hits,
                                           batch_format="pandas",
                                           batch_size=None)
    confirmed = bucketed_semi_anti_join(
        candidates, verify_base, on=["d1", "d2"],
        anti=False).select_columns([id_col])
    n_conf = confirmed.count()
    if fits_in_heap(n_conf * PY_ROW_BYTES):
        ids_ref = _ray.put(
            confirmed.to_pandas()[id_col].to_numpy() if n_conf
            else np.array([], dtype=np.int64))

        def anti(batch: pd.DataFrame) -> pd.DataFrame:
            return batch[~batch[id_col].isin(_ray.get(ids_ref))]

        return new_docs.map_batches(anti, batch_format="pandas",
                                    batch_size=None)
    return bucketed_semi_anti_join(new_docs, confirmed, on=id_col,
                                   anti=True)


def incremental_near_dup(new_docs: "ray.data.Dataset",
                         base_docs: "ray.data.Dataset",
                         text_col: str = "text", id_col: str = "doc_id",
                         num_perm: int = 64, bands: int = 8, k: int = 5,
                         max_bucket: int = 512,
                         threshold_e4: int | None = 5000,
                         spill_dir: str | None = None,
                         base_banded: "ray.data.Dataset | None" = None
                         ) -> "ray.data.Dataset":
    """Cross-snapshot NEAR-duplicate detection: which NEW docs are
    near-dups of the BASE corpus — the daily-crawl complement of
    :func:`incremental_dedup` (exact digests) for content that came back
    slightly edited (boilerplate shifted, timestamp injected, template
    re-rendered).

    Shape, and why it scales: both sides reduce to LSH band rows
    (:func:`_banded_rows` — signatures are the only thing ever derived
    from the corpus text), and candidates come from ONE equi-join of
    new-side band rows against base-side band rows on the folded bucket
    key — new-vs-new pairs are never generated, so a crawl of n new docs
    against an N-doc base costs O((n+N)·bands) band rows and a join
    whose output is the candidate set, not a corpus cross product.  At
    100 TB the base band table is computed ONCE per corpus version with
    :func:`band_table`, written to Parquet, and the re-read Dataset
    passed as ``base_banded=`` — each daily increment then pays only its
    own signatures plus the join (the base TEXT is touched only for the
    candidate subset the verify tier attaches, via the id-filtered scan
    below).  ``base_banded`` must have been built with the SAME
    (num_perm, bands, k); when omitted the band rows are derived from
    ``base_docs`` in-run.

    The oversized-bucket guard applies to the UNION of both sides'
    bucket populations (a bucket degenerate on either side explodes the
    join the same way); excluded buckets emit no candidates, same
    recall contract as :func:`minhash_lsh_pairs` (run exact incremental
    dedup first — it catches exactly the identical-content mass).

    With ``threshold_e4`` set, candidates are verified with EXACT
    integer byte-k-gram Jaccard (``10000·inter >= t·union``), texts
    attached by the same two-tier scheme as
    :func:`ngram_jaccard_dedup_pairs`: broadcast lookups per side when
    both lookups — UTF-8 text bytes, measured over the already-filtered
    candidate texts, plus ``PY_ROW_BYTES`` per id — pass
    :func:`zeeklog_ray.relational.fits_in_heap`; two
    :func:`zeeklog_ray.relational.bucketed_equi_join` passes above —
    shuffle volume O(candidate texts), never the corpus.  Pass
    ``threshold_e4=None`` for raw candidates.

    Returns (doc_id, base_id[, j_e4]): distinct new-doc/base-doc pairs,
    where ``doc_id`` is the new-snapshot id.  Reference analog: none
    (the reference has no dedup); this is the Lee-et-al near-dedup
    shape restricted to the snapshot boundary."""
    import ray as _ray

    from zeeklog_ray.spill import pin_or_spill

    new_b = pin_or_spill(
        _banded_rows(new_docs, text_col, num_perm, bands, k),
        spill_dir, "incr_banded_new")
    base_b = (base_banded if base_banded is not None else pin_or_spill(
        _banded_rows(base_docs, text_col, num_perm, bands, k),
        spill_dir, "incr_banded_base"))

    # over-cap guard on BOTH populations: union the two key sets
    n_new_b, n_base_b = new_b.count(), base_b.count()
    big_new, drop_new = _over_cap_bucket_keys(new_b, n_new_b, max_bucket)
    big_base, drop_base = _over_cap_bucket_keys(base_b, n_base_b, max_bucket)
    big_keys = np.union1d(big_new, big_base)
    if len(big_keys):
        import logging

        logging.getLogger(__name__).warning(
            "incremental_near_dup: excluding %d oversized LSH buckets "
            "(%d new-side + %d base-side rows > max_bucket=%d) from the "
            "cross join; members emit NO candidates — run exact "
            "incremental dedup first", len(big_keys), drop_new, drop_base,
            max_bucket)
        # pinned: cogroup reads each side's schema, which would otherwise
        # run the filter and the repartition below once more
        new_b = pin_or_spill(_drop_buckets(new_b, big_keys), spill_dir,
                             "incr_kept_new")
        base_b = pin_or_spill(_drop_buckets(base_b, big_keys), spill_dir,
                              "incr_kept_base")
        n_new_b, n_base_b = new_b.count(), base_b.count()
    # a side with no band rows left has no candidates: return the typed
    # empty result (a join over no rows would carry no columns)
    if n_new_b == 0 or n_base_b == 0:
        cols = {id_col: pd.Series(dtype="int64"),
                "base_id": pd.Series(dtype="int64")}
        if threshold_e4 is not None:
            cols["j_e4"] = pd.Series(dtype="int64")
        return ray.data.from_pandas(pd.DataFrame(cols))

    # new⨝base on the band key is ONE cogroup of the two (bb, doc_id)
    # sides: they share one schema, so the exchanged blocks stay plain
    # int64.  A bucketed_equi_join would rename the base doc_id apart and
    # carry both id columns as nullable Int through the union — that
    # shape measured 64 s against 39 s for this at 1M base docs on 4 CPUs.
    from zeeklog_ray.relational import bucketed_distinct, cluster_cpus, cogroup

    def bucket_pairs(frames: list[pd.DataFrame]) -> pd.DataFrame:
        new, base = (f[["bb", "doc_id"]] for f in frames)
        m = new.merge(base, on="bb", suffixes=("", "_base"))
        return pd.DataFrame({id_col: m["doc_id"].to_numpy(),
                             "base_id": m["doc_id_base"].to_numpy()})

    # the banded sides arrive in hundreds of blocks and a sort exchange
    # moves blocks² pieces (twice: here and in the distinct), so pack
    # each side to one block per CPU first
    pairs = bucketed_distinct(
        cogroup([side.repartition(cluster_cpus()) for side in (new_b, base_b)],
                "bb", bucket_pairs),
        [id_col, "base_id"]).materialize()
    if threshold_e4 is None:
        return pairs

    # ---- exact-Jaccard verify: texts attached per side, tiered ----
    # Tier choice is BYTE-budgeted: what bounds a broadcast is worker
    # heap (each map task deserializes the lut), and candidate-text
    # bytes are knowable for one cheap sum over the
    # already-filtered candidate texts — measured at 1M docs / 335k
    # candidate pairs, broadcasting ~40 MB of texts beats the two
    # bucketed equi-join passes 35 s vs 55 s end-to-end.  The pinned
    # candidate-text sets are O(candidates), never the corpus, and ride
    # the spill seam.
    def side_ids(col: str):
        def f(batch: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {"doc_id": np.unique(batch[col].to_numpy())})

        return f

    def wanted_texts(src: "ray.data.Dataset", col: str,
                     tag: str) -> tuple:
        idp = pairs.map_batches(side_ids(col), batch_format="pandas",
                                batch_size=None).to_pandas()
        ids = (np.unique(idp["doc_id"].to_numpy())
               if "doc_id" in idp.columns else np.zeros(0, np.int64))
        ids_ref = _ray.put(ids)

        def keep(batch: pd.DataFrame) -> pd.DataFrame:
            m = np.isin(batch[id_col].to_numpy(), _ray.get(ids_ref),
                        assume_unique=False)
            return batch.loc[m, [id_col, text_col]]

        texts = pin_or_spill(
            src.map_batches(keep, batch_format="pandas", batch_size=None),
            spill_dir, f"incr_verify_texts_{tag}")
        return _utf8_bytes(texts, text_col) + len(ids) * PY_ROW_BYTES, texts

    new_bytes, new_texts = wanted_texts(new_docs, id_col, "new")
    base_bytes, base_texts = wanted_texts(base_docs, "base_id", "base")

    def verify_cols(batch: pd.DataFrame, ta: pd.Series,
                    tb: pd.Series) -> pd.DataFrame:
        inter, union = ngram_jaccard_counts(ta, tb, k)
        keep = (union > 0) & (10_000 * inter >= threshold_e4 * union)
        out = batch.loc[keep, [id_col, "base_id"]].copy()
        out["j_e4"] = ((10_000 * inter[keep]) //
                       union[keep]).astype(np.int64)
        return out

    if fits_in_heap(new_bytes + base_bytes):
        def lut_of(ds_texts):
            t = ds_texts.to_pandas()
            return (dict(zip(t[id_col], t[text_col]))
                    if id_col in t.columns else {})

        lut_new_ref = _ray.put(lut_of(new_texts))
        lut_base_ref = _ray.put(lut_of(base_texts))

        def verify(batch: pd.DataFrame) -> pd.DataFrame:
            return verify_cols(batch,
                               batch[id_col].map(_ray.get(lut_new_ref)),
                               batch["base_id"].map(_ray.get(lut_base_ref)))

        return pairs.map_batches(verify, batch_format="pandas",
                                 batch_size=None)

    from zeeklog_ray.relational import bucketed_equi_join

    def as_text(role: str, tag: str):
        def f(batch: pd.DataFrame) -> pd.DataFrame:
            return batch.rename(columns={id_col: role, text_col: tag})

        return f

    with_a = bucketed_equi_join(
        pairs, new_texts.map_batches(as_text(id_col, "_ta"),
                                     batch_format="pandas",
                                     batch_size=None),
        on=id_col)
    with_b = bucketed_equi_join(
        with_a, base_texts.map_batches(as_text("base_id", "_tb"),
                                       batch_format="pandas",
                                       batch_size=None),
        on="base_id")

    def verify_joined(batch: pd.DataFrame) -> pd.DataFrame:
        return verify_cols(batch, batch["_ta"], batch["_tb"])

    return with_b.map_batches(verify_joined, batch_format="pandas",
                              batch_size=None)
