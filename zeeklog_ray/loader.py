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
  assignment.  Tokens cross both exchanges as an Arrow ``list<int32>``
  column (the exchange moves Arrow blocks end to end): pieces are cut
  from the column's flat values and offsets
  (``arrowutil.list_values_offsets``) and shipped as one
  ``LargeListArray`` per call.  The price: one task holds its whole
  (source, date) cell's token bytes (the cell bound ``ops/packing``
  relies on).  Assembly is fully vectorized: within a bucket, every
  piece's tokens scatter into the padded output matrix through ONE
  flat index expression — no per-doc or per-pack Python in the hot
  path.
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
import pyarrow as pa

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
    from zeeklog_ray.relational import bucket_exchange, to_pandas

    cl = context_len

    def pieces(batch: pa.Table, off: np.ndarray) -> pa.Table:
        # split each doc into per-pack pieces: piece p of a doc starting
        # at global offset off covers tokens [max(0, (first+p)·cl − off),
        # …) — vectorized with repeat/cumsum, no per-doc Python
        flat, starts = list_values_offsets(batch[tokens_col])
        n = np.diff(starts)
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
        # gather every kept piece's tokens into one flat array + offsets
        # (vectorized: global index = piece start + intra-piece arange)
        kf, kt = src_from[keep], src_to[keep]
        kd = doc_idx[keep]
        plens = kt - kf
        poffs = np.zeros(len(plens) + 1, dtype=np.int64)
        np.cumsum(plens, out=poffs[1:])
        gidx = (np.repeat(starts[kd] + kf, plens)
                + np.arange(poffs[-1], dtype=np.int64)
                - np.repeat(poffs[:-1], plens))
        return pa.table({
            group_col: batch[group_col].take(kd),
            "pack_id": pk[keep],
            "_dest": dest[keep],
            "_toks": pa.LargeListArray.from_arrays(
                poffs, flat[gidx].astype(np.int32, copy=False))})

    toks = ds.select_columns([group_col, range_col, order_col, "n_tok",
                              tokens_col])
    piece_rows = _cell_exchange(
        ds, toks, pieces, group_col=group_col, order_col=order_col,
        len_col="n_tok", range_col=range_col)

    def assemble(group: pa.Table) -> pa.Table:
        # packs in (group, pack_id) order; the pieces' tokens never move
        # until they scatter into the output
        codes, packs = pd.MultiIndex.from_frame(to_pandas(
            group.select([group_col, "pack_id"]))).factorize(sort=True)
        flat, offs = list_values_offsets(group["_toks"])
        lens = np.diff(offs)
        base = codes * cl + group["_dest"].to_numpy()
        dest = (np.repeat(base, lens)
                + np.arange(offs[-1], dtype=np.int64)
                - np.repeat(offs[:-1], lens))
        n_packs = len(packs)
        out = np.full(n_packs * cl, pad_id, dtype=np.int32)
        out[dest] = flat
        n_real = np.zeros(n_packs, dtype=np.int64)
        np.add.at(n_real, codes, lens)
        # padding-free hash: real tokens are CONTIGUOUS from slot 0 of
        # each pack (the stream is gap-free by construction), so hash
        # out[r·cl : r·cl + n_real[r]] per pack from one prefix scan
        roffs = np.zeros(n_packs + 1, dtype=np.int64)
        np.cumsum(n_real, out=roffs[1:])
        packed_real = out.reshape(n_packs, cl)[
            np.arange(cl) < n_real[:, None]]
        hashes = _pack_hashes(packed_real, roffs)
        return pa.table({
            group_col: packs.get_level_values(0),
            "pack_id": packs.get_level_values(1),
            "input_ids": pa.LargeListArray.from_arrays(
                np.arange(n_packs + 1, dtype=np.int64) * cl, out),
            "n_real": n_real,
            "pack_hash": hashes.astype(np.int64)})

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
