"""The correctness gates accept correct output and reject corrupted output:
a flipped token, a dropped or duplicated document, a dropped pack, a
wrong merge-on-read row."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import gates


@pytest.fixture(scope="module")
def corpus() -> pa.Table:
    from zeeklog_ray.corpus import frame_to_table, make_corpus_frame

    return frame_to_table(make_corpus_frame(400, seed=3), with_date=True)


def _flip_token(t: pa.Table, row: int) -> pa.Table:
    toks = t["tokens"].to_pylist()
    toks[row] = [toks[row][0] + 1] + toks[row][1:]
    return t.set_column(t.schema.get_field_index("tokens"), "tokens",
                        pa.array(toks, pa.list_(pa.int32())))


def test_docs_gate_accepts_a_reordered_copy(corpus):
    ref = gates.sort_docs(corpus)
    gates.check_docs_exactly_once(corpus.take(np.arange(399, -1, -1)),
                                  ref, "route")


@pytest.mark.parametrize("corrupt", ["flip", "drop", "duplicate"])
def test_docs_gate_rejects_corruption(corpus, corrupt):
    ref = gates.sort_docs(corpus)
    bad = {"flip": lambda: _flip_token(corpus, 17),
           "drop": lambda: corpus.slice(1),
           "duplicate": lambda: pa.concat_tables(
               [corpus.slice(1), corpus.slice(0, 1).set_column(
                   0, "doc_id", corpus["doc_id"].slice(5, 1))])}[corrupt]()
    with pytest.raises(gates.GateError):
        gates.check_docs_exactly_once(bad, ref, "route")


def _packs_table(expected: pd.DataFrame) -> pa.Table:
    """The expected packs in the loader's output schema."""
    return pa.table({
        "source": expected["source"],
        "pack_id": expected["pack_id"],
        "input_ids": pa.array([r.astype(np.int32) for r in
                               expected["input_ids"]],
                              pa.large_list(pa.int32())),
        "n_real": expected["n_real"],
        "pack_hash": expected["pack_hash"].to_numpy(np.uint64)
        .view(np.int64)})


def test_pack_hash_matches_the_loader(corpus):
    """The gate's Horner hash is the loader's pack_hash, computed
    independently."""
    from zeeklog_ray.loader import _pack_hashes

    exp = gates.expected_packs(corpus, 256)
    real = np.concatenate([r[:n] for r, n in
                           zip(exp["input_ids"], exp["n_real"])])
    offs = np.concatenate([[0], np.cumsum(exp["n_real"])])
    assert (_pack_hashes(real, offs)
            == exp["pack_hash"].to_numpy(np.uint64)).all()


def test_pack_gate_accepts_exact_packs_and_rejects_a_dropped_one(corpus):
    exp = gates.expected_packs(corpus, 256)
    table = _packs_table(exp)
    checksum = int(np.stack(exp["input_ids"].to_list()).sum())
    gates.check_packs(table, exp, len(exp), checksum)
    with pytest.raises(gates.GateError):
        gates.check_packs(table.slice(1), exp, len(exp), checksum)
    with pytest.raises(gates.GateError):  # the feed lost a pack
        gates.check_packs(table, exp, len(exp) - 1, checksum)


def test_pack_gate_rejects_a_flipped_token(corpus):
    exp = gates.expected_packs(corpus, 256)
    bad = exp.copy()
    ids = bad.at[3, "input_ids"].copy()
    ids[5] += 1
    bad.at[3, "input_ids"] = ids
    checksum = int(np.stack(exp["input_ids"].to_list()).sum())
    with pytest.raises(gates.GateError):
        gates.check_packs(_packs_table(bad), exp, len(exp), checksum)


def test_store_replay_latest_wins_and_tombstones():
    base = pd.DataFrame({"k": [1, 2, 3], "day": "d", "v": [10, 20, 30],
                         "ver": 0})
    b1 = pd.DataFrame({"k": [2, 4], "day": "d", "v": [21, 40], "ver": 1,
                       "deleted": [False, False]})
    b2 = pd.DataFrame({"k": [1, 4], "day": "d", "v": [0, 41], "ver": 2,
                       "deleted": [True, False]})
    got = gates.replay_store(base, [b1, b2], "k", "ver", "deleted")
    assert got[["k", "v"]].values.tolist() == [[2, 21], [3, 30], [4, 41]]
    gates.check_store(got.sample(frac=1, random_state=0), got, "store")
    wrong = got.copy()
    wrong.loc[0, "v"] = 20
    with pytest.raises(gates.GateError):
        gates.check_store(wrong, got, "store")
    with pytest.raises(gates.GateError):
        gates.check_store(got.iloc[1:], got, "store")
