"""The four workloads: their inputs, one timed job each, and the correctness
gate each job's output must pass.

Every job goes through the package's public functions only.  The timed
part of a job runs from the generated input to the complete result; the
gate, the output-size counts and (in traced jobs) the stage-by-stage
replay run after the clock stops.  See README.md for why each workload
exists and which layer it loads.
"""

from __future__ import annotations

import glob
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import gates

#: per-workload input sizes.  "full" is what the benchmark measures;
#: "tiny" has the same shape and feeds each session's untimed warm-up
#: job and the benchmark's own smoke tests.
SIZES = {
    "full": {
        "route": {"rows": 48_000, "rows_per_file": 6_000},
        "pack": {"rows": 6_000, "rows_per_file": 1_500, "buckets": 16,
                 "context_len": 2048, "micro_batch": 16, "epochs": 4},
        "resume": {"rows": 2_000, "rows_per_file": 500,
                   "files_per_shard": 1, "fail_after": 2},
        "store": {"base_rows": 24_000, "partitions": 12, "batches": 8,
                  "batch_rows": 150, "read_every": 4},
    },
    "tiny": {
        "route": {"rows": 1_200, "rows_per_file": 300},
        "pack": {"rows": 600, "rows_per_file": 150, "buckets": 16,
                 "context_len": 2048, "micro_batch": 16, "epochs": 2},
        "resume": {"rows": 600, "rows_per_file": 200,
                   "files_per_shard": 1, "fail_after": 1},
        "store": {"base_rows": 1_200, "partitions": 4, "batches": 2,
                  "batch_rows": 20, "read_every": 1},
    },
}
#: seed of the warm-up inputs (shared by all runs, so generated once)
WARMUP_SEED = 1


@dataclass
class JobResult:
    """One timed job: its wall time, the latencies of its unit operation
    (see README.md), the input rows it consumed, and named timings for
    the report."""

    wall_s: float
    ops_s: list[float]
    rows: int
    tokens: int = 0
    timings: dict[str, list[float]] = field(default_factory=dict)


def _parquet_files(d: str) -> list[str]:
    return sorted(glob.glob(os.path.join(d, "**", "*.parquet"),
                            recursive=True))


def _intervals(start: float, stamps: list[float]) -> list[float]:
    """Gaps between successive completion stamps, the first from
    ``start``: on one core, the time each unit took to land."""
    t = [start] + sorted(stamps)
    return [b - a for a, b in zip(t[:-1], t[1:])]


def prepare(workload: str, data_dir: str, seed: int, scale: str) -> None:
    """Generate (or reuse from the cache) one workload's inputs."""
    cfg = SIZES[scale][workload]
    if workload == "store":
        _store_template(os.path.join(data_dir, "store"), seed, **cfg)
    else:
        from zeeklog_ray.corpus import generate_corpus

        generate_corpus(cfg["rows"], seed, cfg["rows_per_file"])


def corpus_dir(workload: str, seed: int, scale: str) -> str:
    from zeeklog_ray.corpus import generate_corpus

    cfg = SIZES[scale][workload]
    return generate_corpus(cfg["rows"], seed, cfg["rows_per_file"])


def load_corpus(path: str) -> pa.Table:
    return pa.concat_tables(
        pq.read_table(f, columns=["doc_id", "tokens", "n_tok", "source",
                                  "date"])
        for f in _parquet_files(path))


class Route:
    """``flagship.run_flagship(PipelineConfig(enrich=True))``: read, parse,
    enrich and routed write of every fragment, no exchange."""

    def __init__(self, seed: int, scale: str, data_dir: str) -> None:
        self.corpus = corpus_dir("route", seed, scale)
        self.enricher = None
        self.ref = None

    def job(self, out: str, tr) -> JobResult:
        from zeeklog_ray import flagship
        from zeeklog_ray.pipeline import PipelineConfig

        cfg = PipelineConfig(corpus_dir=self.corpus, enrich=True)
        w0 = time.time()
        t0 = time.perf_counter()
        with tr.span("flagship.run_flagship") as attrs:
            stats = flagship.run_flagship(cfg, out)
        wall = time.perf_counter() - t0
        files = _parquet_files(out)
        attrs["files"] = len(files)
        attrs["bytes"] = sum(os.path.getsize(f) for f in files)
        # a fragment has landed when the last of its per-sink part files
        # (part-<date dir>-<fragment stem>.parquet) is written
        landed: dict[str, float] = {}
        for f in files:
            hint = os.path.basename(f)
            landed[hint] = max(landed.get(hint, 0.0),
                               os.stat(f).st_mtime_ns / 1e9)
        self.result = (out, stats)
        return JobResult(wall, _intervals(w0, list(landed.values())),
                         rows=int(stats["n"].sum()),
                         tokens=int(stats["sum_n_tok"].sum()))

    def check(self, res: JobResult) -> None:
        out, stats = self.result
        if self.ref is None:
            self.ref = gates.sort_docs(load_corpus(self.corpus))
        got = pa.concat_tables(
            pq.read_table(f, columns=["doc_id", "tokens"])
            for f in _parquet_files(out))
        gates.check_docs_exactly_once(got, self.ref, "route")
        if int(stats["n"].sum()) != self.ref.num_rows:
            raise gates.GateError("route: sink stats miss rows")

    def replay(self, out: str, tr) -> None:
        """Stage-by-stage replay of every fragment in the driver, one span
        per layer: read, parse, enrich, routed write."""
        from zeeklog_ray.enrich import Enricher
        from zeeklog_ray.flagship import FusedRouteWriter
        from zeeklog_ray.parse import parse_batch

        if self.enricher is None:  # loads its lookup tables once
            self.enricher = Enricher()
        writer = FusedRouteWriter(out, enrich=False)
        for path in _parquet_files(self.corpus):
            hint = (os.path.basename(os.path.dirname(path)) + "-"
                    + os.path.splitext(os.path.basename(path))[0])
            with tr.span("flagship.read"):
                t = pq.read_table(path, use_threads=False)
            with tr.span("parse.parse_batch"):
                t = parse_batch(t)
            with tr.span("enrich.enrich"):
                t = self.enricher(t)
            with tr.span("flagship.route_write") as attrs:
                part = writer(t, name_hint=hint, pre_parsed=True)
            attrs["partial_rows"] = part.num_rows


def _exchange_stats(summary) -> dict:
    """Task CPU and exchange figures of a materialized Dataset, from Ray's
    own stats tree (``Dataset.stats()`` in structured form).  The first
    reduce met walking down from the output is the last exchange; its
    per-block row spread is the bucket skew."""
    cpu = rows = nbytes = shuffle = 0.0
    skew = 0.0
    stack = [summary]
    while stack:
        s = stack.pop()
        stack.extend(s.parents)
        for op in s.operators_stats:
            name = op.operator_name
            if op.cpu_time:
                cpu += op.cpu_time.get("sum", 0.0)
            is_map = (op.is_sub_operator and name.endswith("Map")) \
                or name.endswith("_shuffle")
            is_reduce = (op.is_sub_operator and name.endswith("Reduce")) \
                or name.endswith("_finalize")
            if is_map and op.output_num_rows:
                rows += op.output_num_rows.get("sum", 0)
                nbytes += op.output_size_bytes.get("sum", 0)
            if is_map or is_reduce:
                shuffle += op.time_total_s or 0.0
            if is_reduce and not skew and op.output_num_rows \
                    and op.output_num_rows.get("mean"):
                skew = (op.output_num_rows["max"]
                        / op.output_num_rows["mean"])
    return {"task_cpu_s": cpu, "exchange_rows": rows,
            "exchange_bytes": nbytes, "shuffle_wall_s": shuffle,
            "bucket_skew": skew}


class Pack:
    """``loader.pack_token_rows`` then ``epochs`` passes of
    ``iter_token_batches``: the trainer feed, two bucketed exchanges and a
    sort-based shuffle."""

    def __init__(self, seed: int, scale: str, data_dir: str) -> None:
        self.cfg = SIZES[scale]["pack"]
        self.corpus = corpus_dir("pack", seed, scale)
        self.expected = None

    def job(self, out: str, tr) -> JobResult:
        import ray
        import ray.data

        from zeeklog_ray import loader

        t0 = time.perf_counter()
        with tr.span("loader.pack_token_rows") as attrs:
            packed = loader.pack_token_rows(
                ray.data.read_parquet(self.corpus),
                context_len=self.cfg["context_len"],
                num_buckets=self.cfg["buckets"]).materialize()
        waits, fed_rows, checksum = [], 0, 0
        with tr.span("loader.iter_token_batches"):
            for _ in range(self.cfg["epochs"]):
                t = time.perf_counter()
                for mat in loader.iter_token_batches(
                        packed, micro_batch=self.cfg["micro_batch"]):
                    waits.append(time.perf_counter() - t)
                    fed_rows += mat.shape[0]
                    checksum += int(mat.sum(dtype=np.int64))
                    t = time.perf_counter()
        wall = time.perf_counter() - t0
        table = pa.concat_tables(ray.get(packed.to_arrow_refs()))
        n_real = int(pc.sum(table["n_real"]).as_py())
        if tr.enabled:
            attrs.update(_exchange_stats(packed._get_stats_summary()))
            attrs["packs"] = table.num_rows
            attrs["pad_frac"] = 1 - n_real / (table.num_rows
                                              * self.cfg["context_len"])
        self.result = (table, fed_rows, checksum)
        return JobResult(wall, waits, rows=self.cfg["rows"], tokens=n_real,
                         timings={"feed_batch_s": waits})

    def check(self, res: JobResult) -> None:
        if self.expected is None:
            self.expected = gates.expected_packs(
                load_corpus(self.corpus), self.cfg["context_len"])
        table, fed_rows, checksum = self.result
        gates.check_packs(table, self.expected, fed_rows, checksum,
                          self.cfg["epochs"])

    def replay(self, out: str, tr) -> None:
        """The packing layer alone: ``pack_assignments`` materialized."""
        import ray.data

        from zeeklog_ray.ops.packing import pack_assignments

        ds = ray.data.read_parquet(self.corpus, columns=[
            "source", "doc_id", "n_tok", "date"])
        with tr.span("packing.pack_assignments"):
            pack_assignments(ds, context_len=self.cfg["context_len"],
                             num_buckets=self.cfg["buckets"]).materialize()


class Resume:
    """``lineage.ResumableRun``: a run killed after ``fail_after`` shard
    commits, resumed over the rest, then ``committed_output()`` read
    back."""

    def __init__(self, seed: int, scale: str, data_dir: str) -> None:
        self.cfg = SIZES[scale]["resume"]
        self.corpus = corpus_dir("resume", seed, scale)
        self.ref = None

    def job(self, out: str, tr) -> JobResult:
        import ray

        from zeeklog_ray.lineage import ResumableRun, committed_records
        from zeeklog_ray.pipeline import PipelineConfig

        t0 = time.perf_counter()
        rr = ResumableRun(PipelineConfig(corpus_dir=self.corpus,
                                         enrich=True),
                          out, files_per_shard=self.cfg["files_per_shard"])
        with tr.span("lineage.run", phase="first") as first:
            try:
                rr.run(fail_after_shards=self.cfg["fail_after"])
                killed = False
            except RuntimeError:
                killed = True
            first_recs = committed_records(out)
        first["shard_s"] = [r["wall_time_s"] for r in first_recs.values()]
        w1 = time.time()
        t1 = time.perf_counter()
        with tr.span("lineage.run", phase="resume") as second:
            recs = rr.run()
        t2 = time.perf_counter()
        second["shard_s"] = [r["wall_time_s"] for r in recs]
        with tr.span("lineage.committed_output") as attrs:
            ds = rr.committed_output().select_columns(["doc_id", "tokens"])
            got = pa.concat_tables(ray.get(ds.to_arrow_refs()))
        wall = time.perf_counter() - t0
        attrs["bytes"] = sum(os.path.getsize(f) for f in _parquet_files(out))
        manifests = glob.glob(os.path.join(out, "_manifest", "shard-*.json"))
        resumed = [os.stat(p).st_mtime_ns / 1e9 for p in manifests
                   if int(os.path.basename(p)[6:11]) not in first_recs]
        self.result = (killed, len(first_recs), len(recs), got)
        return JobResult(wall, _intervals(w1, resumed), rows=got.num_rows,
                         tokens=int(pc.sum(pc.list_value_length(
                             got["tokens"])).as_py()),
                         timings={"resume_s": [t2 - t1]})

    def check(self, res: JobResult) -> None:
        killed, n_first, n_resumed, got = self.result
        if not killed or n_first != self.cfg["fail_after"]:
            raise gates.GateError(f"resume: the first run committed "
                                  f"{n_first} shards before the kill")
        n_files = len(_parquet_files(self.corpus))
        n_shards = -(-n_files // self.cfg["files_per_shard"])
        if n_first + n_resumed != n_shards:
            raise gates.GateError(f"resume: {n_first}+{n_resumed} shards "
                                  f"committed, corpus has {n_shards}")
        if self.ref is None:
            self.ref = gates.sort_docs(load_corpus(self.corpus))
        gates.check_docs_exactly_once(got, self.ref, "resume")


def _store_days(partitions: int) -> list[str]:
    return [f"2024-06-{1 + i:02d}" for i in range(partitions)]


def _store_base(seed: int, base_rows: int, partitions: int) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    k = np.arange(base_rows, dtype=np.int64)
    return pd.DataFrame({
        "k": k, "day": np.asarray(_store_days(partitions))[k % partitions],
        "v": rng.integers(0, 1_000_000, base_rows),
        "ver": np.zeros(base_rows, dtype=np.int64)})


def _store_batches(seed: int, base_rows: int, partitions: int,
                   batches: int, batch_rows: int, **_) -> list[pd.DataFrame]:
    """Change batches: updates of base keys, inserts of new keys (keys
    above the base range) and ~10% tombstones; a key keeps its day, and
    a batch never repeats a key."""
    rng = np.random.default_rng(seed + 7919)
    days = np.asarray(_store_days(partitions))
    out = []
    for b in range(batches):
        k = np.unique(rng.integers(0, base_rows + base_rows // 10,
                                   batch_rows)).astype(np.int64)
        out.append(pd.DataFrame({
            "k": k, "day": days[k % partitions],
            "v": rng.integers(0, 1_000_000, len(k)),
            "ver": np.full(len(k), b + 1, dtype=np.int64),
            "deleted": rng.random(len(k)) < 0.1}))
    return out


def _store_template(root: str, seed: int, base_rows: int, partitions: int,
                    **_) -> str:
    """The base store as ``write_partitioned`` lays it out
    (``day=<d>/<file>.parquet``, partition column in the path only),
    written once per seed (to a temp dir, then renamed into place) and
    copied before every job."""
    path = os.path.join(root, f"base-n{base_rows}-p{partitions}-s{seed}")
    if os.path.isdir(path):
        return path
    os.makedirs(root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=root, prefix=".tmp-")
    base = _store_base(seed, base_rows, partitions)
    for day, part in base.groupby("day"):
        d = os.path.join(tmp, f"day={day}")
        os.makedirs(d)
        pq.write_table(pa.Table.from_pandas(part.drop(columns=["day"]),
                                            preserve_index=False),
                       os.path.join(d, "part-00000.parquet"))
    try:
        os.rename(tmp, path)
    except OSError:  # a concurrent run won the race
        shutil.rmtree(tmp, ignore_errors=True)
    return path


class Store:
    """The ``partitioned`` merge-on-read table store: appends, periodic
    merged reads, then ``compact_deltas`` and ``vacuum_store``."""

    KEY = {"key": "k", "order_col": "ver", "deleted_col": "deleted"}

    def __init__(self, seed: int, scale: str, data_dir: str) -> None:
        self.cfg = SIZES[scale]["store"]
        self.template = _store_template(os.path.join(data_dir, "store"),
                                        seed, **self.cfg)
        self.base = _store_base(seed, self.cfg["base_rows"],
                                self.cfg["partitions"])
        self.batches = _store_batches(seed, **self.cfg)

    def restore(self, out: str) -> None:
        """Untimed: the job's store starts as a copy of the template."""
        shutil.copytree(self.template, out)

    def job(self, out: str, tr) -> JobResult:
        import ray.data

        from zeeklog_ray import partitioned as store

        appends, reads, self.reads = [], [], []
        t0 = time.perf_counter()
        for b, ch in enumerate(self.batches):
            t = time.perf_counter()
            with tr.span("partitioned.append_deltas"):
                store.append_deltas(out, ray.data.from_pandas(ch),
                                    part_col="day")
            appends.append(time.perf_counter() - t)
            if (b + 1) % self.cfg["read_every"] == 0:
                t = time.perf_counter()
                with tr.span("partitioned.read_merged"):
                    got = store.read_merged(out, **self.KEY).to_pandas()
                reads.append(time.perf_counter() - t)
                self.reads.append((b, got))
        if tr.enabled:
            deltas = glob.glob(os.path.join(out, "*", "_deltas", "*.parquet"))
            delta_bytes = sum(os.path.getsize(f) for f in deltas)
        t = time.perf_counter()
        with tr.span("partitioned.compact_deltas") as attrs:
            store.compact_deltas(out, **self.KEY)
        compact = time.perf_counter() - t
        with tr.span("partitioned.vacuum_store"):
            self.vacuum = store.vacuum_store(out)
        wall = time.perf_counter() - t0
        if tr.enabled:
            folds = glob.glob(os.path.join(out, "*", "fold-*.parquet"))
            user = sum(pa.Table.from_pandas(ch, preserve_index=False).nbytes
                       for ch in self.batches)
            attrs["delta_files"] = len(deltas)
            attrs["bytes_per_user_byte"] = (
                delta_bytes + sum(os.path.getsize(f) for f in folds)) / user
        self.out = out
        return JobResult(wall, appends,
                         rows=sum(len(ch) for ch in self.batches),
                         timings={"append_s": appends,
                                  "merged_read_s": reads,
                                  "compact_s": [compact]})

    def check(self, res: JobResult) -> None:
        key, order, deleted = (self.KEY["key"], self.KEY["order_col"],
                               self.KEY["deleted_col"])
        for b, got in self.reads:
            want = gates.replay_store(self.base, self.batches[:b + 1],
                                      key, order, deleted)
            gates.check_store(got, want, f"store read after batch {b + 1}")
        want = gates.replay_store(self.base, self.batches, key, order,
                                  deleted)
        if glob.glob(os.path.join(self.out, "*", "_deltas", "*.parquet")):
            raise gates.GateError("store: deltas left after compact_deltas")
        compacted = []
        for d in sorted(glob.glob(os.path.join(self.out, "day=*"))):
            t = pd.concat(pq.read_table(f).to_pandas() for f in
                          glob.glob(os.path.join(d, "*.parquet")))
            compacted.append(t.assign(day=os.path.basename(d)[4:]))
        gates.check_store(pd.concat(compacted, ignore_index=True), want,
                          "store after compact_deltas")
        if any(self.vacuum[k] for k in ("staging_dirs", "tmp_files",
                                         "torn_delta_files")):
            raise gates.GateError(f"store: vacuum reclaimed litter from a "
                                  f"healthy store: {self.vacuum}")


CLASSES = {"route": Route, "pack": Pack, "resume": Resume, "store": Store}
