"""Trainer-side loader: materialize loader-ready packed token rows and
iterate them as dense (micro_batch, context_len) matrices.

The packing math (`ops/packing.pack_assignments`) decides WHERE every
token goes — (source, pack_id, pack_offset) per doc, GPT-style
contiguous stream cut every ``context_len`` — but a trainer needs the
tokens THERE: fixed-width int32 rows it can feed a model.  This module
is that last mile:

* :func:`pack_token_rows` — build (source, pack_id, input_ids, n_real,
  pack_hash) rows.  Two token-volume exchanges, both bucketed: the
  packing prefix sum's (source, date) cell exchange carries each doc's
  tokens, so the task that computes a doc's global offset also cuts it
  into per-pack PIECES; one (source, pack_id) exchange then co-locates
  the pieces of each pack.  No join re-attaches tokens to an
  assignment.  The price: one task holds its whole (source, date)
  cell's token bytes (the cell bound ``ops/packing`` relies on).
  Assembly is fully vectorized: within a bucket, every piece's tokens
  scatter into the padded output matrix through ONE flat index
  expression — no per-doc or per-pack Python in the hot path.
  ``pack_hash`` is the Horner(B=1000003) mod-2^64 hash of the REAL
  tokens (padding excluded), computed from one modular-inverse prefix
  scan per batch — the same bit-replayable family as
  ``ops/packing.chunk_tokens``, so the whole materialization is
  SQL-gated (queries.zeek_packed_rows).
* :func:`iter_token_batches` — stream the packed rows as numpy
  ``(micro_batch, context_len)`` int32 matrices via ``iter_batches``
  (optionally torch tensors when torch is importable — honest seam,
  this container has no torch).

Scale notes: packs are never driver-materialized — the packed Dataset
streams; ``iter_token_batches`` holds one micro-batch at a time plus
Ray's prefetch.  Reference analog: none (the reference has no trainer
interface); public GPT-2-style packed-loader shape.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray
import ray.data

from zeeklog_ray.arrowutil import list_values_offsets
from zeeklog_ray.ops.packing import segment_hashes


def _pack_hashes(flat: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """``pack_hash`` of each segment ``flat[offs[i]:offs[i+1]]``
    (:func:`zeeklog_ray.ops.packing.segment_hashes`)."""
    return segment_hashes(flat, offs[:-1], offs[1:])


def pack_token_rows(ds: "ray.data.Dataset", *, context_len: int = 2048,
                    pad_id: int = 0, group_col: str = "source",
                    order_col: str = "doc_id", tokens_col: str = "tokens",
                    range_col: str = "date",
                    num_buckets: int = 256) -> "ray.data.Dataset":
    """Materialized packs: one row per (group, pack_id) with
    ``input_ids`` (list<int32>, length exactly ``context_len``,
    ``pad_id``-padded only in each group's final pack), ``n_real`` and
    the padding-free ``pack_hash``.  Input needs (order_col, tokens_col,
    n_tok, group_col, range_col) — the tokenized-corpus schema.

    ``num_buckets`` is accepted and ignored (both exchanges size
    themselves, :func:`zeeklog_ray.relational.bucket_exchange`); it
    stays only while the perfbench ``pack`` workload passes it."""
    from zeeklog_ray.ops.packing import _cell_exchange
    from zeeklog_ray.relational import bucket_exchange

    cl = context_len

    def tok_to_bytes(batch: pd.DataFrame) -> pd.DataFrame:
        # token payloads ship as BYTES through every exchange: Ray 2.49's
        # sort-based shuffles merge pandas blocks, and both
        # object-of-ndarray columns and Arrow list columns trip the
        # TensorArray concat there; int32.tobytes() round-trips exactly
        return pd.DataFrame({
            group_col: batch[group_col],
            range_col: batch[range_col],
            order_col: batch[order_col],
            "n_tok": batch["n_tok"],
            "_tb": [np.asarray(t, np.int32).tobytes()
                    for t in batch[tokens_col]]})

    def pieces(batch: pd.DataFrame, off: np.ndarray) -> pd.DataFrame:
        # split each doc into per-pack pieces: piece p of a doc starting
        # at global offset off covers tokens [max(0, (first+p)·cl − off),
        # …) — vectorized with repeat/cumsum, no per-doc Python
        n = batch["_tb"].str.len().to_numpy(np.int64) // 4
        first = off // cl
        last = np.where(n > 0, (off + n - 1) // cl, first)
        m = last - first + 1
        total = int(m.sum())
        doc_idx = np.repeat(np.arange(len(n)), m)
        p = np.arange(total) - np.repeat(np.cumsum(m) - m, m)
        pk = first[doc_idx] + p
        src_from = np.maximum(0, pk * cl - off[doc_idx])
        src_to = np.minimum(n[doc_idx], (pk + 1) * cl - off[doc_idx])
        dest = np.maximum(off[doc_idx] - pk * cl, 0)
        keep = src_to > src_from
        flat = np.frombuffer(b"".join(batch["_tb"]), dtype=np.int32)
        starts = np.zeros(len(n) + 1, dtype=np.int64)
        np.cumsum(n, out=starts[1:])
        # gather every kept piece's tokens into one flat array + offsets
        # (vectorized: global index = piece start + intra-piece arange)
        kf, kt = src_from[keep], src_to[keep]
        kd = doc_idx[keep]
        plens = kt - kf
        ptotal = int(plens.sum())
        poffs = np.zeros(len(plens) + 1, dtype=np.int64)
        np.cumsum(plens, out=poffs[1:])
        gidx = (np.repeat(starts[kd] + kf, plens)
                + np.arange(ptotal, dtype=np.int64)
                - np.repeat(poffs[:-1], plens))
        gathered = flat[gidx] if ptotal else np.array([], dtype=np.int32)
        tok_bytes = [gathered[poffs[i]:poffs[i + 1]].tobytes()
                     for i in range(len(plens))]
        return pd.DataFrame({
            group_col: batch[group_col].to_numpy()[kd],
            "pack_id": pk[keep],
            "_dest": dest[keep],
            "_toks": tok_bytes})

    toks = ds.select_columns([group_col, range_col, order_col, "n_tok",
                              tokens_col]) \
        .map_batches(tok_to_bytes, batch_format="pandas", batch_size=None)
    piece_rows = _cell_exchange(
        ds, toks, pieces, group_col=group_col, order_col=order_col,
        len_col="n_tok", range_col=range_col)

    def assemble(group: pd.DataFrame) -> "pa.Table":
        # pyarrow output: a pandas object column of ndarrays trips Ray's
        # TensorArray block concat; the ListArray is also the zero-copy
        # layout downstream consumers want
        import pyarrow as pa

        g = group.sort_values([group_col, "pack_id", "_dest"],
                              kind="mergesort")
        codes, uniq = pd.factorize(
            pd.MultiIndex.from_arrays([g[group_col], g["pack_id"]]),
            use_na_sentinel=False)
        buf = b"".join(g["_toks"])
        flat = np.frombuffer(buf, dtype=np.int32)
        lens = g["_toks"].str.len().to_numpy(np.int64) // 4
        base = codes * cl + g["_dest"].to_numpy(np.int64)
        dest = (np.repeat(base, lens)
                + np.arange(int(lens.sum()), dtype=np.int64)
                - np.repeat(np.cumsum(lens) - lens, lens))
        n_packs = len(uniq)
        out = np.full(n_packs * cl, pad_id, dtype=np.int32)
        out[dest] = flat
        n_real = np.zeros(n_packs, dtype=np.int64)
        np.add.at(n_real, codes, lens)
        # padding-free hash: real tokens are CONTIGUOUS from slot 0 of
        # each pack (the stream is gap-free by construction), so hash
        # out[r·cl : r·cl + n_real[r]] per pack from one prefix scan
        offs = np.zeros(n_packs + 1, dtype=np.int64)
        np.cumsum(n_real, out=offs[1:])
        packed_real = out.reshape(n_packs, cl)[
            np.arange(cl) < n_real[:, None]]
        hashes = _pack_hashes(packed_real, offs)
        list_offs = (np.arange(n_packs + 1, dtype=np.int64) * cl)
        return pa.table({
            group_col: pa.array([u[0] for u in uniq]),
            "pack_id": pa.array(
                np.array([u[1] for u in uniq], dtype=np.int64)),
            "input_ids": pa.LargeListArray.from_arrays(
                pa.array(list_offs, pa.int64()),
                pa.array(out, pa.int32())),
            "n_real": pa.array(n_real),
            "pack_hash": pa.array(hashes.astype(np.int64))})

    return bucket_exchange(piece_rows, [group_col, "pack_id"], assemble)


def iter_token_batches(packed: "ray.data.Dataset", micro_batch: int,
                       *, to_torch: bool = False,
                       local_shuffle_buffer: int | None = None,
                       seed: int | None = None,
                       shard: tuple[int, int] | None = None):
    """Yield dense (micro_batch, context_len) int32 matrices from a
    :func:`pack_token_rows` Dataset — the trainer feed.  Streaming: one
    micro-batch in memory at a time (plus Ray's prefetch); pass
    ``local_shuffle_buffer`` rows for loader-side shuffling.  The final
    batch may be shorter unless the pack count divides evenly.

    ``shard=(i, n)`` gives data-parallel worker ``i`` of ``n`` its
    deterministic slice — packs with ``pack_id % n == i`` — a row-local
    filter, so every worker streams only its shard with no coordination
    and a restarted worker re-derives the same slice (resume = skip
    already-consumed batch indices).  Shards are balanced to ±1 pack
    per (source, shard) because pack_ids are dense per source.

    With ``to_torch=True`` tensors are returned when torch is
    importable — this container has none, so the seam raises
    honestly."""
    if to_torch:
        try:
            import torch
        except ImportError as e:
            raise NotImplementedError(
                "to_torch=True needs torch, which is not installed in "
                "this environment — consume the numpy batches or install "
                "torch") from e
    if shard is not None:
        i, n = shard
        if not 0 <= i < n:
            raise ValueError(f"shard index {i} outside [0, {n})")

        def keep_shard(batch: "pa.Table") -> "pa.Table":
            return batch.filter(batch["pack_id"].to_numpy() % n == i)

        packed = packed.map_batches(keep_shard, batch_format="pyarrow",
                                    batch_size=None)
    for batch in packed.iter_batches(
            batch_size=micro_batch, batch_format="pyarrow",
            local_shuffle_buffer_size=local_shuffle_buffer,
            local_shuffle_seed=seed):
        vals = list_values_offsets(batch["input_ids"])[0]
        mat = vals.astype(np.int32).reshape(len(batch), -1)
        yield torch.from_numpy(mat) if to_torch else mat
