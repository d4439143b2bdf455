"""The join family and the stateful map stages run to completion on one
CPU.

Anything that parks an actor on a CPU for its lifetime — the aggregators
of Ray's hash-shuffle join, an actor-pool ``map_batches`` stage — can
starve the upstream read of the only CPU and deadlock.  Every join here
goes through ``relational.bucket_exchange`` and every map stage runs as
tasks, which release their CPU between blocks.  Each family runs in a
fresh 1-CPU Ray session in a child process, under a timeout, and is
compared with the same family in the test session.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import numpy as np
import pandas as pd
import ray.data

CHILD_TIMEOUT_S = 120
REPO = pathlib.Path(__file__).resolve().parent.parent


def join_family(n_docs: int = 2000) -> dict:
    """minhash_lsh_pairs → connected_components with every heap tier
    forced distributed (so the label rounds join), plus a full outer join
    of the components against every doc; JSON-able, order-free."""
    from synthdocs import make_documents_frame

    from zeeklog_ray import relational
    from zeeklog_ray.ops.dedup import minhash_lsh_pairs
    from zeeklog_ray.ops.graph import connected_components

    df = make_documents_frame(n_docs, dup_rate=0.05)
    budget = relational.HEAP_BUDGET_BYTES
    relational.HEAP_BUDGET_BYTES = 0
    try:
        docs = ray.data.from_pandas(df[["doc_id", "text"]]).repartition(4)
        comp = connected_components(minhash_lsh_pairs(docs)).materialize()
        dup_of = ray.data.from_pandas(pd.DataFrame(
            {"node": df["doc_id"], "is_dup_of": df["is_dup_of"]}))
        full = relational.bucketed_equi_join(comp, dup_of, on="node",
                                             how="full")
        comp_rows = comp.to_pandas()[["node", "component"]]
        full_rows = full.to_pandas()[["node", "component", "is_dup_of"]]
    finally:
        relational.HEAP_BUDGET_BYTES = budget

    def rows(frame: pd.DataFrame) -> list:
        return sorted([None if pd.isna(v) else int(v) for v in row]
                      for row in frame.itertuples(index=False))

    return {"components": rows(comp_rows), "full": rows(full_rows)}


def stateful_family(n_docs: int = 300, n_media: int = 60) -> dict:
    """Every map stage that used to run as an actor pool: the enriched
    pipeline, lang_id, benchmark_contamination, media feature extraction
    and resize, and phash signatures → phash_dup_groups; JSON-able,
    order-free."""
    import hashlib

    import pyarrow as pa
    import pyarrow.compute as pc

    from synthdocs import make_documents_frame

    from zeeklog_ray.corpus import generate_corpus
    from zeeklog_ray.enrich import GEO_FIELDS
    from zeeklog_ray.ops.decontam import benchmark_contamination
    from zeeklog_ray.ops.multimodal import (
        extract_features,
        phash_dup_groups,
        phash_images,
        resize_images,
        synth_media_table,
    )
    from zeeklog_ray.ops.text import lang_id
    from zeeklog_ray.pipeline import PipelineConfig, build_dataset

    enriched = build_dataset(PipelineConfig(
        corpus_dir=generate_corpus(6_000), enrich=True)) \
        .select_columns(GEO_FIELDS + ["service_name"]).to_pandas()

    df = make_documents_frame(n_docs)[["doc_id", "text"]]
    docs = ray.data.from_pandas(df).repartition(4)
    langs = lang_id(docs).to_pandas()
    contam = benchmark_contamination(
        docs, ray.data.from_pandas(df.iloc[:: 25])).to_pandas()

    media = synth_media_table(n_media)
    # exact copies under new ids give phash_dup_groups groups to find
    media = pa.concat_tables([media, media.set_column(
        0, "item_id", pc.binary_join_element_wise(
            "dup-", media["item_id"], ""))])
    mds = ray.data.from_arrow(media).repartition(4)
    feats = extract_features(mds, batch_size=16).to_pandas()
    resized = resize_images(mds, 16, 12, batch_size=16).to_pandas()
    groups = phash_dup_groups(phash_images(mds, batch_size=16)).to_pandas()

    def rows(frame: pd.DataFrame) -> list:
        return sorted(list(map(str, row))
                      for row in frame.itertuples(index=False))

    def digest(values) -> str:
        return hashlib.sha256(np.asarray(values).tobytes()).hexdigest()

    return {
        "enriched": [len(enriched), *enriched.notna().sum().tolist()],
        "lang_id": rows(langs),
        "contam": rows(contam),
        "features": rows(pd.DataFrame({
            "item_id": feats["item_id"], "n_bytes": feats["n_bytes"],
            "f": feats["features"].map(digest)})),
        "resized": rows(pd.DataFrame({
            "item_id": resized["item_id"], "n_bytes": resized["n_bytes"],
            "p": resized["payload"].map(
                lambda b: hashlib.sha256(b).hexdigest())})),
        "phash_groups": rows(groups),
    }


_CHILD = """
import json, sys
import ray
from ray.data import DataContext
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
DataContext.get_current().enable_progress_bars = False
sys.path.insert(0, sys.argv[2])
import test_one_cpu_joins
with open(sys.argv[1], "w") as f:
    json.dump(getattr(test_one_cpu_joins, sys.argv[3])(), f)
ray.shutdown()
"""


def _run_on_one_cpu(family: str, out: pathlib.Path) -> tuple[dict, float]:
    """Run ``family`` (a function of this module) in a fresh 1-CPU Ray
    session in a child process; return its result and wall seconds."""
    t0 = time.monotonic()
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(out), str(REPO / "tests"),
         family],
        cwd=REPO, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        start_new_session=True)
    try:
        _, err = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise AssertionError(
            f"{family} did not finish within {CHILD_TIMEOUT_S} s on "
            "one CPU") from None
    assert child.returncode == 0, err.decode()[-3000:]
    return json.loads(out.read_text()), time.monotonic() - t0


def test_join_family_completes_on_one_cpu(ray_session, tmp_path):
    one_cpu, _ = _run_on_one_cpu("join_family", tmp_path / "one_cpu.json")

    expected = join_family()
    assert len(expected["components"]) > 0      # planted dups were found
    assert one_cpu == expected


def test_stateful_stages_complete_on_one_cpu(ray_session, tmp_path):
    one_cpu, wall_s = _run_on_one_cpu("stateful_family",
                                      tmp_path / "one_cpu.json")
    print(f"stateful_family on one CPU: {wall_s:.1f} s")

    expected = stateful_family()
    n_rows, *geo_and_service = expected["enriched"]
    assert n_rows == 6_000 and min(geo_and_service) > 0  # lookups hit
    assert len(expected["contam"]) > 0           # planted overlap found
    assert len(expected["phash_groups"]) > 0     # the dup copies grouped
    assert one_cpu == expected
