"""Tiny-size runs of the benchmark command: every workload finishes, passes
its gates and prints exactly the metrics BENCHMARK.json names; a routed
output with one flipped token fails the route gate; a checkout without the
package fails without printing a result."""

import json
import os
import shutil
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from conftest import PERFBENCH, ROOT

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "2", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_passes_its_gates(workload, trace):
    p = _run(workload, trace)
    assert p.returncode == 0, p.stderr[-2000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_route_gate_rejects_a_flipped_token(tmp_path, monkeypatch):
    import ray

    import workloads
    import zeeklog_ray.corpus
    from spans import Tracer

    monkeypatch.setattr(zeeklog_ray.corpus, "_CACHE_ROOT",
                        str(tmp_path / "corpus"))
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=256 * 2**20)
    try:
        wl = workloads.Route(2, "tiny", str(tmp_path))
        out = str(tmp_path / "out")
        res = wl.job(out, Tracer(False))
        wl.check(res)
        victim = workloads._parquet_files(out)[0]
        t = pq.read_table(victim)
        toks = t["tokens"].to_pylist()
        toks[0][0] += 1
        flipped = pa.array(toks, t["tokens"].type)
        pq.write_table(t.set_column(t.schema.get_field_index("tokens"),
                                    "tokens", flipped), victim)
        with pytest.raises(workloads.gates.GateError, match="tokens"):
            wl.check(res)
    finally:
        ray.shutdown()


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run("route", 0, cwd=str(tmp_path))
    assert p.returncode != 0
    assert p.stdout.strip() == ""
