"""The join family runs to completion on one CPU.

Ray's hash-shuffle join parks aggregator actors on the CPUs it is given
and deadlocks on one; every join here goes through
``relational.bucket_exchange``, whose tasks release their CPU.  This runs
the dedup → components chain in a fresh 1-CPU Ray session in a child
process, under a timeout, and compares it with the same chain in the
test session.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys

import pandas as pd
import ray.data

CHILD_TIMEOUT_S = 120
REPO = pathlib.Path(__file__).resolve().parent.parent


def join_family(n_docs: int = 2000) -> dict:
    """minhash_lsh_pairs → connected_components with every heap tier
    forced distributed (so the label rounds join), plus a full outer join
    of the components against every doc; JSON-able, order-free."""
    from zeeklog_ray import relational
    from zeeklog_ray.corpus import make_documents_frame
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


_CHILD = """
import json, sys
import ray
from ray.data import DataContext
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
DataContext.get_current().enable_progress_bars = False
sys.path.insert(0, sys.argv[2])
from test_one_cpu_joins import join_family
with open(sys.argv[1], "w") as f:
    json.dump(join_family(), f)
ray.shutdown()
"""


def test_join_family_completes_on_one_cpu(ray_session, tmp_path):
    out = tmp_path / "one_cpu.json"
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(out), str(REPO / "tests")],
        cwd=REPO, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        start_new_session=True)
    try:
        _, err = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise AssertionError(
            f"join family did not finish within {CHILD_TIMEOUT_S} s on "
            "one CPU") from None
    assert child.returncode == 0, err.decode()[-3000:]
    one_cpu = json.loads(out.read_text())

    expected = join_family()
    assert len(expected["components"]) > 0      # planted dups were found
    assert one_cpu == expected
