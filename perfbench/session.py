"""One Ray session of a benchmark run; ``run.py`` starts it as a child
process and reads its events, one JSON object per line, from the pipe
``--fd``:

``setup``  inputs are cached, Ray is up and the warm-up job is done;
           ``setup_s`` counts from the moment ``run.py`` spawned this
           process, minus the time spent generating inputs (``gen_s``)
``job``    one timed job and its gate
``end``    peak memory and, in traced runs, every span recorded

Jobs repeat until their summed wall time reaches ``--window`` seconds.
Before every job the output directory is removed and ``os.sync()`` is
called, both untimed.  In a traced run the jobs alternate untraced /
traced, so the run measures its own tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

#: Unix sockets live under Ray's temp dir; their paths are limited to 107
#: bytes, of which Ray's session and socket names take up to 64.
_MAX_RAY_TEMP_DIR = 43


def ray_temp_dir(run_dir: str) -> str | None:
    """Ray's temp dir: this run's own directory when its path is short
    enough for Unix sockets; None (Ray's default) otherwise."""
    return run_dir if len(run_dir) <= _MAX_RAY_TEMP_DIR else None


def nproc() -> int:
    """What ``nproc`` prints: the CPUs this process may use, capped by
    ``OMP_NUM_THREADS`` / ``OMP_THREAD_LIMIT`` as coreutils does."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def peak_rss_mb() -> float:
    """Summed VmHWM of this driver and its Ray worker processes."""
    parent: dict[int, int] = {}
    for p in os.listdir("/proc"):
        if p.isdigit():
            try:
                with open(f"/proc/{p}/stat") as f:
                    parent[int(p)] = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
    me = os.getpid()
    family, frontier = {me}, {me}
    while frontier:
        frontier = {p for p, pp in parent.items()
                    if pp in frontier and p not in family}
        family |= frontier
    total_kb = 0
    for p in family:
        try:
            with open(f"/proc/{p}/cmdline", "rb") as f:
                cmd = f.read()
            if p != me and not (cmd.startswith(b"ray::")
                                or b"default_worker.py" in cmd):
                continue
            with open(f"/proc/{p}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024


def fresh_output(out: str, wl) -> None:
    """The flush policy: remove the job's output directory (a store job
    restores its base from the template) and ``os.sync()``, untimed."""
    for d in (out, out + "_replay"):
        shutil.rmtree(d, ignore_errors=True)
    if hasattr(wl, "restore"):
        wl.restore(out)
    os.sync()


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--work", required=True)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--fd", type=int, required=True)
    ap.add_argument("--window", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--session", type=int, default=0)
    ap.add_argument("--spawn", type=float, default=0.0)
    args = ap.parse_args(argv)

    def emit(**ev) -> None:
        os.write(args.fd, (json.dumps(ev) + "\n").encode())

    data_dir = os.path.join(args.work, "data")
    # the corpus generator caches under this root (read at import)
    os.environ["ZEEKLOG_CORPUS_DIR"] = os.path.join(data_dir, "corpus")
    import logging

    import numpy
    import pandas
    import pyarrow
    import ray
    import ray.data

    import workloads
    import zeeklog_ray.corpus  # noqa: F401  (import is set-up, not input)
    from spans import Tracer

    t0 = time.perf_counter()
    workloads.prepare(args.workload, data_dir, args.seed, args.scale)
    workloads.prepare(args.workload, data_dir, workloads.WARMUP_SEED, "tiny")
    gen_s = time.perf_counter() - t0

    cpus = nproc()
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 * 2**20,
             _temp_dir=ray_temp_dir(args.run_dir))
    try:
        ray.data.DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        cls = workloads.CLASSES[args.workload]
        out = os.path.join(args.run_dir, "out")
        off = Tracer(False)
        warm = cls(workloads.WARMUP_SEED, "tiny", data_dir)
        fresh_output(out, warm)
        warm.check(warm.job(out, off))
        emit(ev="setup", setup_s=time.time() - args.spawn - gen_s,
             gen_s=gen_s, nproc=cpus,
             affinity_cpus=len(os.sched_getaffinity(0)),
             ray_cpus=ray.cluster_resources().get("CPU"),
             ray_temp_dir=ray_temp_dir(args.run_dir) or "ray default",
             versions={"python": sys.version.split()[0],
                       "ray": ray.__version__,
                       "pyarrow": pyarrow.__version__,
                       "numpy": numpy.__version__,
                       "pandas": pandas.__version__})

        wl = cls(args.seed, args.scale, data_dir)
        tr = Tracer(bool(args.trace), prefix=f"{args.session}.")
        measured, i = 0.0, 0
        while measured < args.window or i < (2 if args.trace else 1):
            traced = bool(args.trace) and i % 2 == 1
            tr.run = f"{args.session}.{i}"
            fresh_output(out, wl)
            t0 = time.perf_counter()
            job_span = tr.span("job") if args.trace else nullcontext({})
            try:
                with job_span as attrs:
                    attrs.update(traced=traced, ok=False)
                    res = wl.job(out, tr if traced else off)
                    attrs["wall_s"] = res.wall_s
                    wl.check(res)
                    attrs["ok"] = True
                    if traced and hasattr(wl, "replay"):
                        wl.replay(out + "_replay", tr)
            except Exception:  # a failed job is counted, the run goes on
                elapsed = time.perf_counter() - t0
                emit(ev="job", ok=False, wall_s=elapsed,
                     error=traceback.format_exc(-3))
                measured += elapsed
            else:
                emit(ev="job", ok=True, traced=traced, wall_s=res.wall_s,
                     ops_s=res.ops_s, rows=res.rows, tokens=res.tokens,
                     timings=res.timings)
                measured += res.wall_s
            i += 1
        emit(ev="end", peak_rss_mb=peak_rss_mb(), spans=tr.spans)
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
