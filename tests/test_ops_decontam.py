"""Benchmark decontamination: planted-overlap truth + guardrails."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from zeeklog_ray.ops.decontam import (
    benchmark_contamination,
    collect_benchmark_grams,
)


def _ds(rows):
    return ray.data.from_pandas(pd.DataFrame(rows))


def test_planted_contamination_exact_counts(ray_session):
    bench = _ds({"doc_id": [100], "text": ["the quick brown fox jumps"]})
    docs = _ds({
        "doc_id": [1, 2, 3, 4],
        "text": [
            "xx the quick yy",          # contains 'the quic' etc.
            "zzzzzzzzzzzzzzzz",         # no overlap
            "short",                    # < 8 bytes: no grams at all
            "the quick brown fox jumps",  # identical to benchmark
        ],
    })
    out = benchmark_contamination(docs, bench).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["doc_id"].tolist() == [1, 4]

    # doc 1: its 8-grams are 'xx the q'..'quick yy' (8 windows); the ones
    # also in the benchmark are the windows inside 'the quick ' →
    # 'the quic', 'he quick', 'e quick ' (3 hits)
    r1 = out.iloc[0]
    assert (r1["n_grams"], r1["n_hit"]) == (8, 3)
    assert r1["contam_e4"] == (10_000 * 3) // 8

    # doc 4 is the benchmark verbatim: every gram hits
    r4 = out.iloc[1]
    assert r4["n_hit"] == r4["n_grams"] == len("the quick brown fox jumps") - 7
    assert r4["contam_e4"] == 10_000


def test_empty_benchmark_flags_nothing(ray_session):
    bench = _ds({"doc_id": [9], "text": ["tiny"]})    # < k ⇒ zero grams
    docs = _ds({"doc_id": [1], "text": ["tiny tiny tiny tiny"]})
    assert benchmark_contamination(docs, bench).count() == 0


def test_benchmark_size_guard(ray_session, monkeypatch):
    from zeeklog_ray import relational

    bench = _ds({"doc_id": [1],
                 "text": ["abcdefghijklmnopqrstuvwxyz0123456789"]})
    monkeypatch.setattr(relational, "HEAP_BUDGET_BYTES", 10 * 8)  # 10 grams
    with pytest.raises(ValueError, match="heap budget"):
        collect_benchmark_grams(bench)


def test_collect_grams_sorted_unique(ray_session):
    bench = _ds({"doc_id": [1, 2],
                 "text": ["abcdefgh abcdefgh", "abcdefghi"]})
    g = collect_benchmark_grams(bench)
    assert g.dtype == np.uint64
    assert np.all(np.diff(g.astype(np.uint64)) > 0)   # sorted, unique
