"""pack_token_rows / iter_token_batches: the trainer-side loader."""

import numpy as np
import pandas as pd
import pytest

import ray
import ray.data

from zeeklog_ray.loader import iter_token_batches, pack_token_rows

CL = 16


def _corpus(n_docs: int = 40, seed: int = 9) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_docs):
        n = int(rng.integers(1, 3 * CL))        # docs up to 3 packs long
        rows.append({
            "doc_id": f"d{i:04d}",
            "tokens": rng.integers(1, 1000, n).astype(np.int32),
            "n_tok": n,
            "source": ["conn", "dns", "http"][i % 3],
            "date": f"2024-07-{(i % 2) + 1:02d}"})
    return pd.DataFrame(rows)


def _truth_streams(df: pd.DataFrame) -> dict:
    """Per-source gap-free token stream in (date, doc_id) order — what
    the packed rows must reproduce when concatenated by pack_id."""
    out = {}
    for src, g in df.groupby("source"):
        g = g.sort_values(["date", "doc_id"], kind="mergesort")
        out[src] = np.concatenate(g["tokens"].to_numpy())
    return out


def test_pack_token_rows_reconstructs_streams(ray_session):
    df = _corpus()
    truth = _truth_streams(df)
    for nparts in (1, 4):
        packed = pack_token_rows(
            ray.data.from_pandas(df).repartition(nparts),
            context_len=CL, pad_id=0).to_pandas()
        for src, stream in truth.items():
            p = packed[packed["source"] == src] \
                .sort_values("pack_id").reset_index(drop=True)
            # pack ids are dense from 0
            assert p["pack_id"].tolist() == list(range(len(p)))
            # every row exactly context_len wide
            assert all(len(r) == CL for r in p["input_ids"])
            got = np.concatenate(
                [np.asarray(r)[:n] for r, n in
                 zip(p["input_ids"], p["n_real"])])
            np.testing.assert_array_equal(got, stream)  # token-exact
            # padding only in the final pack, and only pad_id there
            assert (p["n_real"].iloc[:-1] == CL).all()
            tail = np.asarray(p["input_ids"].iloc[-1])
            assert (tail[p["n_real"].iloc[-1]:] == 0).all()


def test_pack_hash_matches_reference(ray_session):
    df = _corpus(n_docs=12, seed=4)
    packed = pack_token_rows(ray.data.from_pandas(df),
                             context_len=CL).to_pandas()

    def horner(ts):
        h = 0
        for t in ts:
            h = (h * 1000003 + int(t)) % (1 << 64)
        return h - (1 << 64) if h >= (1 << 63) else h

    for _, r in packed.iterrows():
        real = np.asarray(r["input_ids"])[:r["n_real"]]
        assert horner(real) == r["pack_hash"]


def test_iter_token_batches_shapes_and_content(ray_session):
    df = _corpus(n_docs=30, seed=7)
    packed = pack_token_rows(ray.data.from_pandas(df), context_len=CL)
    n_packs = packed.count()
    mats = list(iter_token_batches(packed, micro_batch=4))
    assert sum(m.shape[0] for m in mats) == n_packs
    assert all(m.shape[1] == CL and m.dtype == np.int32 for m in mats)
    # multiset of rows matches the packed table regardless of order
    packed_rows = {tuple(np.asarray(r))
                   for r in packed.to_pandas()["input_ids"]}
    iter_rows = {tuple(row) for m in mats for row in m}
    assert iter_rows == packed_rows

    with pytest.raises(NotImplementedError):
        next(iter_token_batches(packed, micro_batch=4, to_torch=True))


def test_iter_token_batches_sharding(ray_session):
    """shard=(i, n): disjoint, exhaustive, deterministic worker slices."""
    df = _corpus(n_docs=24, seed=2)
    packed = pack_token_rows(ray.data.from_pandas(df), context_len=CL)
    all_rows = {tuple(np.asarray(r))
                for r in packed.to_pandas()["input_ids"]}
    shards = []
    for i in range(3):
        rows = {tuple(row)
                for m in iter_token_batches(packed, micro_batch=4,
                                            shard=(i, 3))
                for row in m}
        shards.append(rows)
    assert set().union(*shards) == all_rows          # exhaustive
    assert sum(len(s) for s in shards) == len(all_rows)  # disjoint
    # re-derived slice is identical (resume contract)
    again = {tuple(row)
             for m in iter_token_batches(packed, micro_batch=4,
                                         shard=(1, 3)) for row in m}
    assert again == shards[1]
    with pytest.raises(ValueError):
        next(iter_token_batches(packed, micro_batch=4, shard=(3, 3)))


def _edge_corpus() -> pd.DataFrame:
    """``_corpus`` plus a zero-token doc and a doc three packs long."""
    extra = pd.DataFrame([
        {"doc_id": "d9000", "tokens": np.array([], dtype=np.int32),
         "n_tok": 0, "source": "dns", "date": "2024-07-01"},
        {"doc_id": "d9001",
         "tokens": np.arange(1, 3 * CL + 1, dtype=np.int32),
         "n_tok": 3 * CL, "source": "conn", "date": "2024-07-02"}])
    return pd.concat([_corpus(), extra], ignore_index=True)


def _reference_packs(df: pd.DataFrame) -> pd.DataFrame:
    """Every (source, pack_id) row ``pack_token_rows`` must emit, built
    in numpy from the per-source streams: pad with 0, Horner hash of the
    real tokens as the signed int64 bit pattern."""
    rows = []
    for src, stream in sorted(_truth_streams(df).items()):
        n_packs = -(-len(stream) // CL)
        mat = np.zeros(n_packs * CL, dtype=np.int32)
        mat[:len(stream)] = stream
        for p, ids in enumerate(mat.reshape(n_packs, CL)):
            n_real = min(CL, len(stream) - p * CL)
            h = 0
            for t in ids[:n_real]:
                h = (h * 1000003 + int(t)) % (1 << 64)
            rows.append((src, p, ids, n_real, np.uint64(h).astype(np.int64)))
    return pd.DataFrame(rows, columns=["source", "pack_id", "input_ids",
                                       "n_real", "pack_hash"])


@pytest.mark.parametrize("nb", [1, 3, 16])
def test_pack_token_rows_matches_numpy_reference(ray_session, in_blocks, nb):
    df = _edge_corpus()
    cells = df.groupby(["source", "date"])["n_tok"].sum()
    assert (cells > CL).any() and (df["n_tok"] == 0).any() \
        and (df["n_tok"] >= 3 * CL).any()
    want = _reference_packs(df)
    got = pack_token_rows(in_blocks(df, nb), context_len=CL).to_pandas()
    got = got.sort_values(["source", "pack_id"]).reset_index(drop=True)
    assert list(got.columns) == list(want.columns)
    assert got["source"].tolist() == want["source"].tolist()
    assert got["pack_id"].tolist() == want["pack_id"].tolist()
    assert got["n_real"].tolist() == want["n_real"].tolist()
    assert got["pack_hash"].tolist() == want["pack_hash"].tolist()
    np.testing.assert_array_equal(np.stack(got["input_ids"].to_numpy()),
                                  np.stack(want["input_ids"].to_numpy()))


def test_pack_token_rows_plans_two_exchanges_no_union(ray_session):
    """The packing cell exchange carries the tokens: the plan holds the
    (group, range) and (group, pack_id) exchanges only, with no
    tagged-union join re-attaching tokens to their assignment."""
    from ray.data._internal.logical.operators.all_to_all_operator import (
        AbstractAllToAll)
    from ray.data._internal.logical.operators.n_ary_operator import Union

    packed = pack_token_rows(ray.data.from_pandas(_corpus(n_docs=6)),
                             context_len=CL)
    ops, stack = [], [packed._logical_plan.dag]
    while stack:
        op = stack.pop()
        ops.append(op)
        stack.extend(op.input_dependencies)
    assert sum(isinstance(op, AbstractAllToAll) for op in ops) == 2
    assert not any(isinstance(op, Union) for op in ops)
