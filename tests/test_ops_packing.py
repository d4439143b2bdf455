"""Sequence packing (ops/packing.py): two-level prefix-sum correctness vs
a brute-force single-threaded pack, partition independence, and offset
continuity across range boundaries."""

import numpy as np
import pandas as pd
import ray.data

from zeeklog_ray.ops.packing import pack_assignments, pack_stats


def _docs(n=5_000, n_src=3, n_dates=4, seed=11):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_src, n)
    date = rng.integers(0, n_dates, n)
    return pd.DataFrame({
        # order key embeds the range key (the monotonicity contract)
        "doc_id": [f"d-{d:02d}-{i:08d}" for d, i in zip(date, range(n))],
        "date": [f"2024-07-{d + 1:02d}" for d in date],
        "source": [f"s{v}" for v in src],
        "n_tok": rng.integers(1, 400, n).astype("int32"),
    })


def _brute_force(df: pd.DataFrame, L: int) -> pd.DataFrame:
    rows = []
    for src, g in df.groupby("source"):
        g = g.sort_values("doc_id")
        off = 0
        for _, r in g.iterrows():
            rows.append({"source": src, "doc_id": r["doc_id"],
                         "n_tok": int(r["n_tok"]),
                         "pack_id": off // L, "pack_offset": off % L})
            off += int(r["n_tok"])
    return pd.DataFrame(rows)


def test_pack_assignments_match_brute_force(ray_session):
    df = _docs()
    ds = ray.data.from_pandas(df).repartition(9)
    got = pack_assignments(ds, context_len=512).to_pandas()
    exp = _brute_force(df, 512)
    key = ["source", "doc_id"]
    got = got.sort_values(key).reset_index(drop=True)
    exp = exp.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["source", "doc_id", "pack_id", "pack_offset"]],
        exp[["source", "doc_id", "pack_id", "pack_offset"]])


def test_pack_partition_independent(ray_session):
    df = _docs(2_000)
    outs = []
    for parts in (1, 13):
        ds = ray.data.from_pandas(df).repartition(parts)
        out = pack_assignments(ds, context_len=256).to_pandas()
        outs.append(out.sort_values(["source", "doc_id"])
                    .reset_index(drop=True))
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_pack_offsets_continuous_across_ranges(ray_session):
    """A source's token stream must be continuous across the range_col
    boundary — the doc straddling two dates gets the offset the global
    order implies, not a reset."""
    df = pd.DataFrame({
        "doc_id": ["d-01-a", "d-01-b", "d-02-a", "d-02-b"],
        "date": ["01", "01", "02", "02"],
        "source": ["s", "s", "s", "s"],
        "n_tok": np.array([60, 60, 60, 60], dtype="int32"),
    })
    ds = ray.data.from_pandas(df)
    out = pack_assignments(ds, context_len=100) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert out["pack_id"].tolist() == [0, 0, 1, 1]
    assert out["pack_offset"].tolist() == [0, 60, 20, 80]


def test_pack_stats_rollup(ray_session):
    df = _docs(1_000)
    ds = ray.data.from_pandas(df).repartition(4)
    stats = pack_stats(ds, context_len=512).to_pandas()
    exp = (_brute_force(df, 512).groupby(["source", "pack_id"])
           .agg(n_docs=("doc_id", "size"), sum_tok=("n_tok", "sum"))
           .reset_index())
    key = ["source", "pack_id"]
    stats = stats.sort_values(key).reset_index(drop=True)
    exp = exp.sort_values(key).reset_index(drop=True)
    assert stats["n_docs"].tolist() == exp["n_docs"].tolist()
    assert stats["sum_tok"].tolist() == exp["sum_tok"].tolist()
    # every pack except each source's last is full up to the straddle doc:
    # sum of tokens in packs 0..k-1 of a source ≥ k*L - max_doc_len sanity
    per_src = stats.groupby("source")["sum_tok"].sum()
    brute_src = df.groupby("source")["n_tok"].sum()
    assert {k: int(v) for k, v in per_src.items()} == \
        {k: int(v) for k, v in brute_src.items()}


def test_chunk_tokens_brute_force(ray_session):
    """Random docs (incl. zero-length): chunk ids, lengths and Horner
    hashes match a per-doc Python reference exactly."""
    import pyarrow as pa

    from zeeklog_ray.ops.packing import _HASH_BASE, chunk_tokens

    rng = np.random.default_rng(11)
    docs = [rng.integers(0, 256, int(n)).tolist()
            for n in rng.integers(0, 900, 80)] + [[]]
    ds = ray.data.from_arrow(pa.table({
        "doc_id": list(range(len(docs))), "tokens": docs}))
    got = list(chunk_tokens(ds, window=256, stride=192).to_pandas()
               .sort_values(["doc_id", "chunk_id"])
               .itertuples(index=False, name=None))

    exp = []
    for i, toks in enumerate(docs):
        n, k = len(toks), 0
        while n > 0:
            chunk = toks[k * 192:k * 192 + 256]
            h = 0
            for t in chunk:
                h = (h * _HASH_BASE + t) % (1 << 64)
            exp.append((i, k, len(chunk),
                        h - (1 << 64) if h >= (1 << 63) else h))
            if k * 192 + 256 >= n:
                break
            k += 1
    assert got == exp


def test_chunk_tokens_stride_equals_window(ray_session):
    """stride == window: disjoint chunks covering every token once."""
    import pyarrow as pa

    from zeeklog_ray.ops.packing import chunk_tokens

    ds = ray.data.from_arrow(pa.table({"doc_id": [1], "tokens": [list(range(10))]}))
    out = chunk_tokens(ds, window=4, stride=4).to_pandas()
    assert out["n_chunk_tok"].tolist() == [4, 4, 2]
    assert out["chunk_id"].tolist() == [0, 1, 2]


def test_chunk_tokens_invalid_stride(ray_session):
    import pytest as _pytest

    from zeeklog_ray.ops.packing import chunk_tokens

    with _pytest.raises(ValueError, match="stride"):
        chunk_tokens(None, window=4, stride=5)
