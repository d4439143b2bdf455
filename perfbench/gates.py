"""Correctness gates, run untimed after every job.

Each gate recomputes the expected result from the generated inputs with
plain pyarrow / numpy / pandas (no zeeklog_ray code) and raises
:class:`GateError` on the first difference.  A job whose gate raises is
counted as failed.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

HASH_BASE = 1000003  # Horner base of the loader's pack_hash


class GateError(AssertionError):
    """A job's output differs from the recomputed expectation."""


def sort_docs(t: pa.Table) -> pa.Table:
    return t.select(["doc_id", "tokens"]).sort_by("doc_id")


def check_docs_exactly_once(got: pa.Table, ref: pa.Table, what: str) -> None:
    """The paper's invariant: every input ``doc_id`` appears exactly once
    in ``got`` with an identical token array.  ``ref`` is the corpus as
    returned by :func:`sort_docs` (unique ids)."""
    if got.num_rows != ref.num_rows:
        raise GateError(f"{what}: {got.num_rows} rows, corpus has "
                        f"{ref.num_rows}")
    g = sort_docs(got)
    gid, rid = g["doc_id"].combine_chunks(), ref["doc_id"].combine_chunks()
    if not gid.equals(rid):
        bad = pc.index(pc.not_equal(gid, rid), True).as_py()
        raise GateError(f"{what}: doc_id set differs at sorted row {bad} "
                        f"({gid[bad]} vs {rid[bad]})")
    gt = g["tokens"].combine_chunks().cast(pa.list_(pa.int32()))
    rt = ref["tokens"].combine_chunks().cast(pa.list_(pa.int32()))
    if not gt.equals(rt):
        for i in range(len(rt)):
            if gt[i] != rt[i]:
                raise GateError(f"{what}: tokens of {rid[i]} differ")
        raise GateError(f"{what}: token arrays differ")


def _horner(mat: np.ndarray) -> np.ndarray:
    """Row-wise Horner(HASH_BASE) mod 2^64 of a (rows, n) uint64 matrix:
    h = sum(v[j] * B^(n-1-j)); numpy uint64 arithmetic wraps mod 2^64."""
    n = mat.shape[1]
    pw = np.ones(n, dtype=np.uint64)
    if n > 1:
        pw[1:] = np.multiply.accumulate(np.full(n - 1, HASH_BASE,
                                                dtype=np.uint64))
    return (mat * pw[::-1]).sum(axis=1, dtype=np.uint64)


def expected_packs(corpus: pa.Table, context_len: int,
                   pad_id: int = 0) -> pd.DataFrame:
    """Packs recomputed from the corpus stream: per source, the token
    arrays of its docs in (date, doc_id) order, concatenated and cut every
    ``context_len`` tokens.  One row per (source, pack_id) with the padded
    ``input_ids`` matrix row, ``n_real`` and the padding-free Horner
    ``pack_hash`` as uint64."""
    t = corpus.select(["source", "date", "doc_id", "tokens"]).sort_by(
        [("source", "ascending"), ("date", "ascending"),
         ("doc_id", "ascending")])
    rows = []
    sources = t["source"].to_numpy(zero_copy_only=False)
    tokens = t["tokens"].combine_chunks()
    for src in pd.unique(sources):
        idx = np.flatnonzero(sources == src)
        stream = pc.list_flatten(tokens.take(pa.array(idx))) \
            .to_numpy().astype(np.int64)
        n_packs = -(-len(stream) // context_len)
        mat = np.full(n_packs * context_len, pad_id, dtype=np.int64)
        mat[:len(stream)] = stream
        mat = mat.reshape(n_packs, context_len)
        n_real = np.full(n_packs, context_len, dtype=np.int64)
        n_real[-1] = len(stream) - (n_packs - 1) * context_len
        hashes = _horner(mat[:-1].astype(np.uint64)) if n_packs > 1 \
            else np.zeros(0, dtype=np.uint64)
        last = _horner(mat[-1:, :n_real[-1]].astype(np.uint64))
        for p in range(n_packs):
            rows.append((src, p, mat[p], int(n_real[p]),
                         int(hashes[p] if p < n_packs - 1 else last[0])))
    return pd.DataFrame(rows, columns=["source", "pack_id", "input_ids",
                                       "n_real", "pack_hash"])


def check_packs(packs: pa.Table, expected: pd.DataFrame,
                fed_rows: int, fed_checksum: int, epochs: int = 1) -> None:
    """Every pack the loader materialized matches the recomputed one
    (tokens, ``n_real``, ``pack_hash``), none is missing or extra, and
    each of the feed's ``epochs`` passes yielded every pack once (row
    count and a token checksum over all yielded matrices)."""
    got = packs.select(["source", "pack_id", "input_ids", "n_real",
                        "pack_hash"]).to_pandas()
    got = got.sort_values(["source", "pack_id"]).reset_index(drop=True)
    if len(got) != len(expected):
        raise GateError(f"pack: {len(got)} packs, expected {len(expected)}")
    keys = ["source", "pack_id"]
    if not got[keys].equals(expected[keys]):
        raise GateError("pack: (source, pack_id) set differs")
    if not (got["n_real"].to_numpy() == expected["n_real"].to_numpy()).all():
        raise GateError("pack: n_real differs")
    want_hash = expected["pack_hash"].to_numpy(np.uint64)
    if not (got["pack_hash"].to_numpy().astype(np.uint64)
            == want_hash).all():
        raise GateError("pack: pack_hash differs")
    got_ids = np.stack([np.asarray(r, dtype=np.int64)
                        for r in got["input_ids"]])
    want_ids = np.stack(expected["input_ids"].to_list())
    if not np.array_equal(got_ids, want_ids):
        raise GateError("pack: packed tokens differ")
    if fed_rows != epochs * len(expected):
        raise GateError(f"pack: the feed yielded {fed_rows} rows in "
                        f"{epochs} passes over {len(expected)} packs")
    if fed_checksum != epochs * int(want_ids.sum()):
        raise GateError("pack: the feed's token checksum differs")


def replay_store(base: pd.DataFrame, batches: list[pd.DataFrame],
                 key: str, order_col: str,
                 deleted_col: str) -> pd.DataFrame:
    """Latest-wins per ``key`` on ``order_col`` (later batch wins a tie),
    tombstones dropped: the merge-on-read contract, replayed in pandas."""
    frames = [base.assign(**{deleted_col: False})] + list(batches)
    both = pd.concat(frames, ignore_index=True)
    both = both.sort_values(order_col, kind="stable")
    merged = both.drop_duplicates(subset=[key], keep="last")
    merged = merged[~merged[deleted_col].astype(bool)]
    return merged.drop(columns=[deleted_col]).sort_values(key) \
        .reset_index(drop=True)


def check_store(got: pd.DataFrame, want: pd.DataFrame, what: str) -> None:
    cols = list(want.columns)
    missing = [c for c in cols if c not in got.columns]
    if missing:
        raise GateError(f"{what}: columns {missing} missing")
    g = got[cols].sort_values(cols[0]).reset_index(drop=True)
    if len(g) != len(want):
        raise GateError(f"{what}: {len(g)} rows, replay has {len(want)}")
    for c in cols:
        if not (g[c].astype(str).to_numpy()
                == want[c].astype(str).to_numpy()).all():
            raise GateError(f"{what}: column {c} differs from the replay")
