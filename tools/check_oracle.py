"""Local replica of the driver's correctness gate: run every queries() entry
and compare against oracle_sql() via DuckDB (row count + sorted-column-name
schema + order-insensitive value hash).

Usage: python tools/check_oracle.py [sf_dir] [--cpus N] [--md OUT.md]
                                    [--only a,b,...]

The checked code is the checkout this script sits in (imported relative to
this file), so a copy of the script in another checkout checks that one.

Queries run in order in a child process that holds one Ray session.  A
query that returns nothing within ``QUERY_TIMEOUT_S`` is recorded as HANG:
the parent kills the child's process group, runs ``ray stop --force`` and
goes on with the next query in a fresh child.  Every result line carries
the row count and the value hash (rows-only entries included) and no
timing, so the logs of two commits diff line by line; the child's own
output (Ray and query logs) goes to stderr.

With --md, appends a per-query markdown section (status, rows, hash,
seconds, and each rows-only query's declared reason) for a certification
artifact.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import signal
import subprocess
import sys
import time

import pandas as pd

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QUERY_TIMEOUT_S = 90

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()  # ray Dataset


def value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)].copy()
    # normalize dtypes: everything to string rows, sorted for order-insensitivity
    rows = sorted(df.astype(str).itertuples(index=False, name=None))
    h = hashlib.sha256(repr(rows).encode())
    return h.hexdigest()[:16]


def _registry() -> dict:
    sys.path.insert(0, REPO)
    import __ray_entry__ as entrymod

    return entrymod.queries()


def check_one(name: str, fn, oracle: str | None, con, sf_dir: str) -> dict:
    """Run one query and compare it with its oracle; the result record."""
    rec = {"name": name, "rows": "-", "hash": "-"}
    try:
        got = to_pandas(fn(sf_dir))
    except Exception as e:  # noqa: BLE001
        return {**rec, "status": "FAIL",
                "msg": f"query raised {type(e).__name__}: {e}"}
    rec.update(rows=str(len(got)), hash=value_hash(got))
    if oracle is None:
        return {**rec, "status": "rows-only"}
    exp = con.sql(oracle).df()
    problems = []
    if len(got) != len(exp):
        problems.append(f"rows {len(got)} != {len(exp)}")
    if sorted(got.columns) != sorted(exp.columns):
        problems.append(f"schema {sorted(got.columns)} != {sorted(exp.columns)}")
    elif rec["hash"] != value_hash(exp):
        problems.append("value hash mismatch")
        m = got.merge(exp, how="outer", indicator=True,
                      on=sorted(set(got.columns) & set(exp.columns)))
        problems.append("\n" + m[m["_merge"] != "both"].head(10).to_string())
    if problems:
        return {**rec, "status": "FAIL", "msg": "; ".join(problems)}
    return {**rec, "status": "PASS"}


def child(sf_dir: str, num_cpus: int, names: list[str], out_fd: int) -> None:
    """Run ``names`` in order in one Ray session, writing a ``start`` line
    before and a result line after each query to ``out_fd``."""
    import logging

    import duckdb
    import ray
    from ray.data import DataContext

    qs = _registry()
    from zeeklog_ray.queries import build_oracle_sql, ensure_oracle_corpus
    from zeeklog_ray.raypatch import worker_runtime_env

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR", runtime_env=worker_runtime_env())
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    con = duckdb.connect()
    # cap DuckDB's memory and give it a spill dir: its default limit is
    # 80% of RAM, which collides with Ray's object store in the same
    # process group — the heaviest replay SQL (zeek_packed_rows at
    # sf0.1: a 34M-row token explode + per-pack ordered lists) then dies
    # with a bad-allocation OOM instead of spilling
    con.sql("SET memory_limit='32GB'")
    con.sql("SET temp_directory='/tmp/duckdb_oracle_spill'")
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
    # build the oracles for THIS sf dir directly (the driver runs at
    # sf0.01; locally we check other scales too) — calling
    # entrymod.oracle_sql() here would generate the sf0.01 corpus/TSV/
    # media artifacts only to discard its return value
    ensure_oracle_corpus(sf_dir)
    oracles = build_oracle_sql(sf_dir)
    with os.fdopen(out_fd, "w") as out:
        for name in names:
            out.write(json.dumps({"start": name}) + "\n")
            out.flush()
            t0 = time.monotonic()
            rec = check_one(name, qs[name], oracles.get(name), con, sf_dir)
            rec["sec"] = round(time.monotonic() - t0, 1)
            out.write(json.dumps(rec) + "\n")
            out.flush()
    ray.shutdown()


def _kill(proc: subprocess.Popen) -> None:
    """Kill the child's whole process group, then any Ray processes it
    left outside that group."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    subprocess.run(["ray", "stop", "--force"], stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=False)


def run_all(sf_dir: str, num_cpus: int, names: list[str]) -> list[dict]:
    """Every query's result record, respawning the child after a hang or
    a crash; prints one diffable line per query."""
    records: list[dict] = []
    pending = list(names)
    while pending:
        r, w = os.pipe()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), sf_dir, "--cpus",
             str(num_cpus), "--child-fd", str(w), "--only",
             ",".join(pending)],
            cwd=REPO, pass_fds=(w,), start_new_session=True,
            stdout=sys.stderr)
        os.close(w)
        buf, current = b"", None
        # the child's start-up (ray.init + oracle build) shares the limit
        deadline = time.monotonic() + QUERY_TIMEOUT_S
        while True:
            if b"\n" not in buf:
                ready, _, _ = select.select(
                    [r], [], [], max(0.0, deadline - time.monotonic()))
                if not ready:
                    rec = {"name": current or pending[0], "status": "HANG",
                           "rows": "-", "hash": "-", "sec": QUERY_TIMEOUT_S,
                           "msg": f"no result within {QUERY_TIMEOUT_S} s"}
                    _kill(proc)
                    break
                chunk = os.read(r, 1 << 16)
                if not chunk:        # child exited
                    proc.wait()
                    rec = None
                    if current is not None:
                        rec = {"name": current, "status": "FAIL", "rows": "-",
                               "hash": "-", "sec": 0.0,
                               "msg": f"child died (exit {proc.returncode})"}
                    elif pending:
                        raise SystemExit(f"child exited before its first "
                                         f"query (exit {proc.returncode})")
                    break
                buf += chunk
                continue
            line, buf = buf.split(b"\n", 1)
            msg = json.loads(line)
            if "start" in msg:
                current = msg["start"]
                deadline = time.monotonic() + QUERY_TIMEOUT_S
                continue
            _report(msg, records, pending)
            current = None
        os.close(r)
        if rec is not None:
            _report(rec, records, pending)
    return records


def _report(rec: dict, records: list[dict], pending: list[str]) -> None:
    records.append(rec)
    pending.remove(rec["name"])
    print(f"{rec['status']:9s} {rec['name']}: rows={rec['rows']} "
          f"hash={rec['hash']}", flush=True)
    if rec.get("msg"):
        print(f"          {rec['msg']}", flush=True)


def main(sf_dir: str, num_cpus: int = 8, md_path: str | None = None,
         only: list[str] | None = None) -> int:
    names = list(_registry())
    if only:
        missing = [n for n in only if n not in names]
        if missing:
            raise SystemExit(f"--only names not in registry: {missing}")
        names = only
    records = run_all(sf_dir, num_cpus, names)
    counts = {s: sum(r["status"] == s for r in records)
              for s in ("PASS", "rows-only", "FAIL", "HANG")}
    total_s = sum(r["sec"] for r in records)
    summary = (f"{len(records)} queries: {counts['PASS']} PASS (DuckDB "
               f"rows+schema+hash), {counts['rows-only']} rows-only, "
               f"{counts['FAIL']} FAIL, {counts['HANG']} HANG "
               f"({total_s:.0f} s total at num_cpus={num_cpus})")
    print(summary, flush=True)
    if md_path:
        from zeeklog_ray.queries import ROWS_ONLY

        with open(md_path, "a") as f:
            f.write(f"\n## {sf_dir} — {summary}\n\n")
            f.write("| query | status | rows | hash | sec | rows-only reason |\n"
                    "|---|---|---|---|---|---|\n")
            for r in records:
                f.write(f"| {r['name']} | {r['status']} | {r['rows']} | "
                        f"{r['hash']} | {r['sec']:.1f} | "
                        f"{ROWS_ONLY.get(r['name'], '')} |\n")
    return counts["FAIL"] + counts["HANG"]


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("sf_dir", nargs="?", default="/root/testdata/sf0.01")
    ap.add_argument("--cpus", type=int, default=8)
    ap.add_argument("--md", default=None,
                    help="append a certification markdown section here")
    ap.add_argument("--only", default=None,
                    help="comma-separated query names (incremental re-check)")
    ap.add_argument("--child-fd", type=int, default=None,
                    help=argparse.SUPPRESS)
    a = ap.parse_args()
    only = a.only.split(",") if a.only else None
    if a.child_fd is not None:
        child(a.sf_dir, a.cpus, only, a.child_fd)
        sys.exit(0)
    sys.exit(1 if main(a.sf_dir, num_cpus=a.cpus, md_path=a.md, only=only)
             else 0)
