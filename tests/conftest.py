"""Shared fixtures: ONE Ray session per pytest session + a small corpus."""

from __future__ import annotations

import logging

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray
    from ray.data import DataContext

    from zeeklog_ray.raypatch import worker_runtime_env

    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR",
             runtime_env=worker_runtime_env())
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def corpus_dir(ray_session) -> str:
    """Deterministic 6k-row corpus (generated once, cached under /tmp)."""
    from zeeklog_ray.corpus import generate_corpus

    return generate_corpus(6_000)


@pytest.fixture(scope="session")
def corpus_frame():
    """The same corpus as an in-memory pandas frame — the in-test oracle."""
    from zeeklog_ray.corpus import make_corpus_frame

    return make_corpus_frame(6_000)


@pytest.fixture(params=["in_heap", "distributed"])
def heap_tier(request, monkeypatch):
    """Run a test on both sides of every broadcast/driver tier decision
    (relational.fits_in_heap): ``in_heap`` keeps the default budget,
    ``distributed`` sets relational.HEAP_BUDGET_BYTES to 0.  A test that
    parametrizes this fixture indirectly with an int sets that budget."""
    from zeeklog_ray import relational

    budget = {"in_heap": relational.HEAP_BUDGET_BYTES,
              "distributed": 0}.get(request.param, request.param)
    monkeypatch.setattr(relational, "HEAP_BUDGET_BYTES", budget)
    return request.param


@pytest.fixture(scope="session")
def in_blocks(ray_session):
    """``in_blocks(df, n)``: ``df`` as a Dataset of ``min(n, 8)`` blocks.
    Every exchange calls its ``fn`` once per sorted partition and makes
    as many partitions as its input has blocks, so a test's block count
    sets how many calls the keys spread over: ``1`` puts every key of a
    one-sided exchange in one call."""
    import ray.data

    def make(df, n: int):
        k = min(n, 8)
        # one frame per block, not a repartition: Ray drops the schema
        # of an all-empty input at a repartition
        return ray.data.from_pandas([df.iloc[i * len(df) // k:
                                             (i + 1) * len(df) // k]
                                     for i in range(k)])

    return make


@pytest.fixture(scope="session")
def check_routed_read():
    """``check_routed_read(got, dirs)``: ``got`` (an Arrow table read
    back from the routed trees ``<dir>/sink=<s>/*.parquet``) holds the
    rows of every part file, each read on its own with pyarrow and
    tagged with ``sink`` (and ``<key>`` for a dir named
    ``<key>=<value>``): per ``doc_id`` the same rows, the same column
    set and types, identical ``tokens`` arrays."""
    import glob
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    def check(got, dirs):
        parts = []
        for d in dirs:
            tags = os.path.basename(d).split("=")
            for f in sorted(glob.glob(os.path.join(d, "sink=*", "*.parquet"))):
                t = pq.read_table(f)
                if len(tags) == 2:
                    t = t.append_column(tags[0], pa.array([tags[1]] * len(t)))
                sink = os.path.basename(os.path.dirname(f))[len("sink="):]
                parts.append(t.append_column("sink",
                                             pa.array([sink] * len(t))))
        ref = pa.concat_tables(parts, promote_options="default")
        assert sorted(got.column_names) == sorted(ref.column_names)
        assert len(got) == len(ref)
        got = got.sort_by("doc_id")
        ref = ref.select(got.column_names).sort_by("doc_id")
        assert got.schema == ref.schema
        assert got["tokens"].equals(ref["tokens"])
        for c in got.column_names:
            assert got[c].equals(ref[c]), c

    return check
