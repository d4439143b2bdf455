"""Sequence shaping: packing (docs → fixed-size context bins) and
chunking (doc → overlapping fixed-size windows).

LLM pretraining concatenates documents in a deterministic order and slices
the stream into ``context_len``-token examples; the pack id of a document
is ``start_offset // context_len`` where ``start_offset`` is the total
token count of every earlier document in the same group (concat-and-chunk
attribution: a doc belongs to the pack its first token lands in).

The hard part at scale is the PREFIX SUM: a naive per-group ordered cumsum
needs the whole group in memory — a non-starter when one source holds
10^11 sequences.  This module implements the classic TWO-LEVEL distributed
prefix sum instead:

  pass 1  one ``map_batches`` computes per-(group, range) token subtotals
          (a combiner: rows crossing the wire = groups × ranges, not docs);
          the driver turns the tiny subtotal table into EXCLUSIVE base
          offsets per (group, range) and broadcasts them via ``ray.put``.
  pass 2  rows shuffle once, bucketed by (group, range); inside a bucket
          each (group, range) segment sorts by ``order_col``, takes a
          C-level cumsum, and adds its broadcast base offset.  The
          loader's tokens ride this exchange, cut into per-pack pieces
          in the same task (``loader.pack_token_rows``).

``range_col`` must be MONOTONE in ``order_col`` within each group (sorting
by ``order_col`` globally ≡ sorting by ``(range_col, order_col)``) — for
the zeek corpus, ``date`` qualifies because doc_id embeds the date
(``d-<date>-<source>-<seq>``).  Memory per task is then bounded by the
largest (group, range) cell, not the largest group: at 10^12 sequences,
ranging by date(+hour) keeps cells at file-partition scale.  The reference
has no packing (it renders, zeek_log.rs:332-362); this is part of the
LLM-pipeline family the brief adds.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from zeeklog_ray.relational import bucket_exchange, grouped_sum, to_pandas


def _cell_exchange(ds: "ray.data.Dataset", rows: "ray.data.Dataset",
                   emit, *, group_col: str, order_col: str, len_col: str,
                   range_col: str) -> "ray.data.Dataset":
    """The two-level prefix sum: pass 1 reads only (group, range, len)
    of ``ds``; pass 2 exchanges ``rows`` (which must carry group, range,
    order and len) by (group, range) and calls ``emit(g, off)`` once per
    bucket, with ``g`` the bucket's Arrow rows and ``off`` each row's
    global int64 offset in its group's stream."""
    # ---- pass 1: per-(group, range) subtotals → exclusive base offsets
    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return (batch.groupby([group_col, range_col], sort=False)[len_col]
                .sum().reset_index(name="_sub"))

    subtotals = (ds.select_columns([group_col, range_col, len_col])
                 .map_batches(partial, batch_format="pandas",
                              batch_size=None)
                 .to_pandas()
                 .groupby([group_col, range_col], sort=False)["_sub"]
                 .sum().reset_index())
    # exclusive prefix within each group, ranges in order_col order (the
    # monotonicity contract makes range_col order == order_col order)
    subtotals = subtotals.sort_values([group_col, range_col],
                                      kind="mergesort")
    csum = subtotals.groupby(group_col, sort=False)["_sub"].cumsum()
    subtotals["_base"] = (csum - subtotals["_sub"]).astype("int64")
    # broadcast the base offsets as a MultiIndex Series: the per-bucket
    # join is then one C-level reindex, not a per-row Python dict probe
    bases_ref = ray.put(
        subtotals.set_index([group_col, range_col])["_base"])

    # ---- pass 2: one bucketed shuffle, per-cell sort + cumsum + base;
    # only the key columns sort, so a token payload never moves
    def per_bucket(t: pa.Table):
        b = ray.get(bases_ref)
        g = to_pandas(t.select([group_col, range_col, order_col, len_col])) \
            .sort_values([group_col, range_col, order_col], kind="mergesort")
        lens = g[len_col].astype("int64")
        csum = lens.groupby(
            [g[group_col], g[range_col]], sort=False).cumsum()
        idx = pd.MultiIndex.from_arrays([g[group_col], g[range_col]])
        off = np.empty(len(g), dtype=np.int64)
        off[g.index] = (csum - lens).to_numpy() + b.reindex(idx).to_numpy()
        return emit(t, off)

    return bucket_exchange(rows, [group_col, range_col], per_bucket)


def pack_assignments(ds: "ray.data.Dataset", *, group_col: str = "source",
                     order_col: str = "doc_id", len_col: str = "n_tok",
                     range_col: str = "date", context_len: int = 2048,
                     num_buckets: int = 256) -> "ray.data.Dataset":
    """Per-doc pack assignment: (group, order, len, pack_id, pack_offset).

    ``pack_offset`` is the doc's first-token position within its pack —
    downstream writers need it to place the doc without recomputing the
    scan.  Deterministic and partition-independent: the assignment depends
    only on the (group, order) total order, never on block layout.

    ``num_buckets`` is accepted and ignored (the exchange sizes itself,
    :func:`zeeklog_ray.relational.bucket_exchange`); it stays only while
    the perfbench ``pack`` workload passes it.
    """
    def assign(g: pa.Table, off) -> pa.Table:
        return pa.table({
            group_col: g[group_col],
            order_col: g[order_col],
            len_col: g[len_col].cast(pa.int64()),
            "pack_id": off // context_len,
            "pack_offset": off % context_len,
        })

    return _cell_exchange(ds, ds, assign, group_col=group_col,
                          order_col=order_col, len_col=len_col,
                          range_col=range_col)


def pack_stats(ds: "ray.data.Dataset", *, group_col: str = "source",
               order_col: str = "doc_id", len_col: str = "n_tok",
               range_col: str = "date",
               context_len: int = 2048) -> "ray.data.Dataset":
    """Rollup per (group, pack_id): n_docs + token sum — the compact
    oracle-friendly view (output rows ≈ total_tokens / context_len)."""
    assigned = pack_assignments(
        ds, group_col=group_col, order_col=order_col, len_col=len_col,
        range_col=range_col, context_len=context_len)

    return grouped_sum(assigned, [group_col, "pack_id"],
                       sums={len_col: "sum_tok"}, count_as="n_docs")


_HASH_BASE = 1000003           # odd ⇒ invertible mod 2^64
_HASH_BASE_INV = pow(_HASH_BASE, -1, 1 << 64)


def segment_hashes(vals: "np.ndarray", starts: "np.ndarray",
                   ends: "np.ndarray") -> "np.ndarray":
    """Horner hash ``((t0*B + t1)*B + ...) mod 2^64`` (B = 1000003) of
    every slice ``vals[starts[i]:ends[i]]`` (uint64; empty slices hash to
    0) from ONE prefix scan over ``vals``: ``h[s:e) = pw[e-1] * (C[e] -
    C[s])`` with ``pw[i] = B^i`` and ``C`` the cumsum of ``v[j] * B^-j``,
    all wrapping mod 2^64 in uint64."""
    import numpy as np

    vals = vals.astype(np.uint64)
    n = len(vals)
    pw = np.ones(n + 1, dtype=np.uint64)
    if n:
        pw[1:] = np.multiply.accumulate(
            np.full(n, _HASH_BASE, dtype=np.uint64))
    ipw = np.ones(n, dtype=np.uint64)
    if n > 1:
        ipw[1:] = np.multiply.accumulate(
            np.full(n - 1, _HASH_BASE_INV, dtype=np.uint64))
    c = np.zeros(n + 1, dtype=np.uint64)
    if n:
        np.cumsum(vals * ipw, out=c[1:])
    out = np.zeros(len(starts), dtype=np.uint64)
    ok = ends > starts
    s, e = starts[ok], ends[ok]
    out[ok] = pw[e - 1] * (c[e] - c[s])          # uint64 wrap == mod 2^64
    return out


def chunk_tokens(ds: "ray.data.Dataset", *, window: int = 256,
                 stride: int = 192, id_col: str = "doc_id",
                 tokens_col: str = "tokens") -> "ray.data.Dataset":
    """Split each tokenized doc into overlapping windows — the chunking
    side of sequence shaping (RAG / context-window preparation): chunk k
    covers ``tokens[k*stride : k*stride + window]``.

    Chunk-count contract (exact-integer, SQL-replayable): a doc with n > 0
    tokens yields ``1 if n <= window else (n - window + stride - 1) //
    stride + 1`` chunks — generation stops once a chunk reaches the end of
    the doc, so every token is covered and no chunk is fully contained in
    its predecessor.  Zero-token docs yield no chunks.

    Output: ``(id_col, chunk_id, n_chunk_tok, chunk_hash)`` where
    ``chunk_hash`` is the Horner hash ``((t0*B + t1)*B + ...) mod 2^64``
    (B = 1000003) of the chunk's tokens, emitted as signed int64 — the
    same hash family as ``ops.text.fingerprints``, so the oracle replays
    it with a HUGEINT ``list_reduce``.

    Scale shape: ROW-LOCAL — one ``map_batches`` over a column-pruned
    read, no shuffle, output ≈ n/stride rows per doc produced inside the
    same task.  The per-batch hash is O(total_tokens): one
    :func:`segment_hashes` prefix scan over the batch's flattened token
    stream, then pure gather for every chunk.
    """
    import numpy as np
    import pyarrow as pa

    W, S = window, stride
    if not (0 < S <= W):
        raise ValueError(f"chunk_tokens: need 0 < stride <= window, "
                         f"got stride={S} window={W}")

    def chunks(batch: pa.Table) -> pa.Table:
        from zeeklog_ray.arrowutil import list_values_offsets

        vals, offs = list_values_offsets(batch[tokens_col])
        n = np.diff(offs)
        m = np.where(n == 0, 0,
                     np.where(n <= W, 1, (n - W + S - 1) // S + 1))
        total = int(m.sum())
        if total == 0:
            return pa.table({id_col: batch[id_col].take(pa.array([], pa.int32())),
                             "chunk_id": pa.array([], pa.int64()),
                             "n_chunk_tok": pa.array([], pa.int64()),
                             "chunk_hash": pa.array([], pa.int64())})
        doc_idx = np.repeat(np.arange(len(n)), m)
        k = np.arange(total) - np.repeat(np.cumsum(m) - m, m)
        start = k * S
        length = np.minimum(W, n[doc_idx] - start)
        s = offs[:-1][doc_idx] + start
        h = segment_hashes(vals, s, s + length)

        return pa.table({
            id_col: batch[id_col].take(pa.array(doc_idx, pa.int64())),
            "chunk_id": pa.array(k.astype(np.int64)),
            "n_chunk_tok": pa.array(length.astype(np.int64)),
            "chunk_hash": pa.array(h.astype(np.int64)),  # two's-complement
        })

    return ds.map_batches(chunks, batch_format="pyarrow", batch_size=None)
