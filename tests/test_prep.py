"""End-to-end training-data prep chain (zeeklog_ray.prep): dedup,
mixture expansion, and packing invariants on planted inputs."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from zeeklog_ray.prep import MAX_EPOCHS, prep_export, prep_manifest

GOOD = ("the data is in the stream and it is good for that test of the "
        "pipeline and it is fine to keep")          # passes quality gates
BAD = "tiny"                                        # fails min_words


def _docs():
    rows = []
    for i in range(40):
        rows.append((i, f"{GOOD} variant {i}", "web"))
    rows.append((100, GOOD + " dupme", "web"))
    rows.append((101, GOOD + " dupme", "web"))      # exact dup of 100
    rows.append((102, BAD, "web"))                  # quality-filtered
    for i in range(200, 210):
        rows.append((i, f"{GOOD} book {i}", "book"))
    df = pd.DataFrame(rows, columns=["doc_id", "text", "source"])
    half = len(df) // 2
    return ray.data.from_pandas([df.iloc[:half], df.iloc[half:]])


def test_prep_manifest_invariants(ray_session):
    m = prep_manifest(_docs(), rates={"book": 2.0}, context_len=64) \
        .to_pandas()
    # dedup: exactly one of 100/101 survives (the min id), BAD dropped
    assert 100 in set(m["doc_id"]) and 101 not in set(m["doc_id"])
    assert 102 not in set(m["doc_id"])
    # mixture: every book doc appears exactly twice (epochs 0 and 1)
    book = m[m["source"] == "book"]
    assert (book.groupby("doc_id").size() == 2).all()
    assert set(book["epoch"]) == {0, 1}
    assert (m[m["source"] == "web"]["epoch"] == 0).all()
    # packing: replay the concat-and-chunk contract independently per
    # source — pack_id/pack_offset must equal the (doc_id, epoch)-ordered
    # exclusive token cumsum's //64 and %64 exactly
    for _, g in m.groupby("source"):
        g = g.sort_values(["doc_id", "epoch"], kind="mergesort")
        off = g["n_bpe"].cumsum().shift(fill_value=0).to_numpy()
        assert (g["pack_id"].to_numpy() == off // 64).all()
        assert (g["pack_offset"].to_numpy() == off % 64).all()


def test_prep_manifest_rate_cap(ray_session):
    with pytest.raises(ValueError, match="rates must be <"):
        prep_manifest(_docs(), rates={"web": float(MAX_EPOCHS)})


def test_prep_manifest_spill_dir_parity(ray_session, tmp_path):
    """spill_dir= swaps the ordered-scalars object-store pin for a
    Parquet write + re-read; results must be identical to the pinned
    path and the spilled files must actually exist."""
    import os

    spill = str(tmp_path / "spill")
    kw = dict(rates={"book": 2.0}, context_len=64)
    pinned = prep_manifest(_docs(), **kw).to_pandas() \
        .sort_values(["doc_id", "epoch"]).reset_index(drop=True)
    spilled = prep_manifest(_docs(), spill_dir=spill, **kw).to_pandas() \
        .sort_values(["doc_id", "epoch"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(pinned, spilled)
    assert os.listdir(os.path.join(spill, "prep_ordered"))


def test_prep_export_roundtrip(ray_session, tmp_path):
    out = str(tmp_path / "manifest")
    summary = prep_export(_docs(), out, rates={"book": 2.0},
                          context_len=64)
    assert set(summary["sources"]) == {"web", "book"}
    assert summary["sources"]["book"]["n_rows"] == 20       # 10 docs × 2
    # written output re-reads to the same totals
    back = ray.data.read_parquet(out).to_pandas()
    assert len(back) == sum(v["n_rows"] for v in summary["sources"].values())
    assert int(back["n_bpe"].sum()) == sum(
        v["sum_tokens"] for v in summary["sources"].values())


def test_span_screen_drops_duplicated_span_docs(ray_session, monkeypatch):
    """The optional prep screen drops docs whose shared-span ratio
    reaches the threshold, in BOTH scoring modes; the default (off)
    leaves prep_manifest output unchanged; a drop set over the heap
    budget raises instead of shuffling text."""
    import numpy as np
    import ray.data

    from zeeklog_ray.prep import prep_manifest, span_screen

    rng = np.random.default_rng(5)
    vocab = [f"w{i:03d}" for i in range(400)]
    shared = " ".join(rng.choice(vocab, size=64))
    rows = []
    for i in range(40):
        unique = " ".join(rng.choice(vocab, size=64))
        # docs 0..9 are ~100% shared boilerplate; the rest unique
        rows.append({"doc_id": i,
                     "source": f"s{i % 2}",
                     "text": shared if i < 10 else unique})
    df = pd.DataFrame(rows)
    docs = ray.data.from_pandas(df, override_num_blocks=3)

    for mode in ("cdc", "window"):
        kept = span_screen(docs, ratio_e4=5000, mode=mode).to_pandas()
        assert set(kept["doc_id"]) == set(range(10, 40)), mode

    base = prep_manifest(docs, min_words=5, min_stop_ratio_e4=0).to_pandas()
    screened = prep_manifest(docs, min_words=5, min_stop_ratio_e4=0,
                             span_screen_ratio_e4=5000).to_pandas()
    # the exact-dedup stage already keeps one copy of the shared text;
    # the screen removes the whole boilerplate cluster
    assert set(base["doc_id"]) - set(screened["doc_id"]) <= set(range(10))
    assert not (set(screened["doc_id"]) & set(range(10)))
    assert len(screened) == len(base) - 1  # the kept first copy drops too

    from zeeklog_ray import relational

    # the 10 dropped ids cost 10 * PY_ROW_BYTES: exactly at the budget
    # they broadcast (tiers inside the scoring agree), one id short raises
    monkeypatch.setattr(relational, "HEAP_BUDGET_BYTES",
                        10 * relational.PY_ROW_BYTES)
    kept = span_screen(docs, ratio_e4=5000).to_pandas()
    assert set(kept["doc_id"]) == set(range(10, 40))
    monkeypatch.setattr(relational, "HEAP_BUDGET_BYTES",
                        9 * relational.PY_ROW_BYTES)
    with pytest.raises(ValueError, match="heap budget"):
        span_screen(docs, ratio_e4=5000)


def test_span_screen_mode_validation(ray_session):
    import ray.data

    from zeeklog_ray.prep import span_screen

    docs = ray.data.from_pandas(pd.DataFrame(
        {"doc_id": [1], "text": ["a b c"]}))
    with pytest.raises(ValueError, match="unknown mode"):
        span_screen(docs, ratio_e4=100, mode="bogus").to_pandas()
