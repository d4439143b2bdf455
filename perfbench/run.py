"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload route --seed 1 --seconds 8 --trace 0

(``--workload all`` runs every workload in turn.)

Run from the repository root (the ``zeeklog_ray`` package must sit next to
``perfbench/``).  The run is a closed loop of batch jobs from one driver
process.  The jobs run in a Ray session that is a child process
(``session.py``): it generates the inputs, sets up Ray, does an untimed
warm-up job and then runs timed jobs for ``--seconds``.  Every wait on
the child is bounded: a child that hangs is killed with its whole process
group, ``ray stop --force`` cleans up, the hang counts as a failed
operation, and a fresh session measures the rest of the time.

stdout: one line ``{"report": ...}`` with the host record and every
metric as median, quartiles and sample count, then, as the last line, the
result object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Scratch files, the input cache, child logs and span files
live under ``.pb/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import PER_LAYER, per_layer_metrics  # noqa: E402
from workloads import CLASSES, SIZES  # noqa: E402

#: one Ray session per run; more only to carry on after a failed session
MAX_SESSIONS = 3
#: hard bounds on each wait, enforced from outside the session
SETUP_TIMEOUT_S = 90.0
JOB_TIMEOUT_S = 60.0
#: the whole run ends within this, hangs included
RUN_BUDGET_S = 170.0
FLUSH_POLICY = ("output dir removed and os.sync() before every timed job, "
                "both untimed")

END_TO_END = {"setup_s": "s", "wall_s": "s", "rows_per_s": "1/s",
              "peak_rss_mb": "MB"}


def percentile(xs: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    s = sorted(xs)
    pos = (len(s) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def summary(xs: list[float], unit: str) -> dict:
    return {"median": percentile(xs, 50), "q1": percentile(xs, 25),
            "q3": percentile(xs, 75), "n": len(xs), "unit": unit}


def filesystem_of(path: str) -> str:
    """fstype and source of the mount holding ``path``."""
    best = ("", "?", "?")
    path = os.path.realpath(path)
    with open("/proc/mounts") as f:
        for line in f:
            src, mnt, fstype = line.split()[:3]
            if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) \
                    and len(mnt) >= len(best[0]):
                best = (mnt, fstype, src)
    return f"{best[1]} on {best[0]} ({best[2]})"


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs so far, from ``/proc/stat``."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:]]
    return ticks[7], sum(ticks)


def stop_ray() -> None:
    ray_cli = shutil.which("ray")
    cmd = ([ray_cli] if ray_cli
           else [sys.executable, "-m", "ray.scripts.scripts"])
    subprocess.run(cmd + ["stop", "--force"], stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=60, check=False)


class Child:
    """A ``session.py`` child in its own process group, with its events
    read from a pipe and every wait bounded."""

    def __init__(self, args: list[str], work: str, run_dir: str,
                 log) -> None:
        r, w = os.pipe()
        self.spawn = time.time()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (ROOT, env.get("PYTHONPATH")) if p)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "session.py"),
             "--work", work, "--run-dir", run_dir, "--fd", str(w),
             "--spawn", str(self.spawn)]
            + args, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=log, stderr=log, pass_fds=(w,), start_new_session=True)
        os.close(w)
        self.r = os.fdopen(r, "rb")
        self.buf = b""

    def next_event(self, timeout: float) -> dict | None:
        """The next event, or None on EOF; TimeoutError past ``timeout``."""
        end = time.monotonic() + timeout
        while b"\n" not in self.buf:
            left = end - time.monotonic()
            if left <= 0 or not select.select([self.r], [], [], left)[0]:
                raise TimeoutError
            chunk = os.read(self.r.fileno(), 1 << 20)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def finish(self, kill: bool) -> None:
        """Wait for the child (``kill`` it, or kill it after 60 s), then
        kill whatever is left in its process group.  After a kill,
        ``ray stop --force`` also stops Ray processes outside the group."""
        if not kill:
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                kill = True
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        if kill:
            stop_ray()
        self.r.close()


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(CLASSES) + ["all"],
                    help="'all' runs every workload in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SIZES), default="full",
                    help="input sizes; 'tiny' is for smoke tests")
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so the live session is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(ROOT, "zeeklog_ray", "__init__.py")):
        print(f"perfbench: no zeeklog_ray package in {ROOT}", file=sys.stderr)
        return 2
    names = sorted(CLASSES) if args.workload == "all" else [args.workload]
    return max(run(argparse.Namespace(**{**vars(args), "workload": w}))
               for w in names)


class Tally:
    """What the sessions of one run reported."""

    def __init__(self, seconds: float) -> None:
        self.left = seconds
        self.setups, self.gens, self.rss = [], [], []
        self.jobs, self.spans, self.errors = [], [], []
        self.host: dict = {}
        self.attempted = self.failed = 0

    def fail(self, error: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(error)

    def drive(self, child: Child, i: int,
              deadline: float) -> tuple[bool, bool]:
        """Read one session's events until it ends, exits or stalls past
        its bound; returns (hung, ended)."""
        timeout = SETUP_TIMEOUT_S
        while True:
            try:
                ev = child.next_event(min(
                    timeout, max(1.0, deadline - time.monotonic())))
            except TimeoutError:
                self.fail(f"session {i}: no progress within {timeout:.0f} s;"
                          f" killed")
                return True, False
            if ev is None:
                return False, False
            if ev["ev"] == "setup":
                self.setups.append(ev["setup_s"])
                self.gens.append(ev["gen_s"])
                self.host = {k: ev[k] for k in (
                    "nproc", "affinity_cpus", "ray_cpus", "ray_temp_dir",
                    "versions")}
                timeout = JOB_TIMEOUT_S
            elif ev["ev"] == "job":
                self.left -= ev["wall_s"]
                if ev["ok"]:
                    self.attempted += 1
                    self.jobs.append(ev)
                else:
                    self.fail(ev["error"])
            elif ev["ev"] == "end":
                self.rss.append(ev["peak_rss_mb"])
                self.spans += ev["spans"]
                return False, True


def run(args: argparse.Namespace) -> int:
    """One measured run of ``args.workload``; prints the report and the
    result line, or nothing and returns non-zero when no job completed."""
    deadline = time.monotonic() + RUN_BUDGET_S
    work = os.path.join(ROOT, ".pb")
    os.makedirs(os.path.join(work, "log"), exist_ok=True)
    # this run's outputs and Ray temp dir; the input cache is shared
    run_dir = os.path.join(work, str(os.getpid()))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    log_path = os.path.join(work, "log", f"{tag}.log")
    t = Tally(args.seconds)
    ticks0 = cpu_ticks()
    with open(log_path, "ab") as log:
        # normally one session; a session that hangs or dies is replaced
        # by a fresh one for the rest of the measuring time
        for i in range(MAX_SESSIONS):
            if t.left <= 0 or time.monotonic() > deadline - SETUP_TIMEOUT_S:
                break
            child = Child([
                "--workload", args.workload, "--seed", str(args.seed),
                "--scale", args.scale, "--window", str(t.left),
                "--trace", str(args.trace), "--session", str(i)],
                work, run_dir, log)
            try:
                hung, ended = t.drive(child, i, deadline)
            except BaseException:  # interrupted: stop the session first
                child.finish(kill=True)
                shutil.rmtree(run_dir, ignore_errors=True)
                raise
            child.finish(kill=hung)
            shutil.rmtree(run_dir, ignore_errors=True)
            if not hung and not ended:
                t.fail(f"session {i} exited early (code "
                       f"{child.proc.returncode})")
            if ended:
                break
    runs = [j for j in t.jobs if not j["traced"]]
    if not runs or not t.rss:
        print(f"perfbench: no job completed (log: {log_path}):\n"
              + "\n".join(t.errors[-3:]), file=sys.stderr)
        return 1
    if not t.failed:
        os.remove(log_path)

    # CPU time the hypervisor gave to other guests while this run ran:
    # the host's contention, which slows every metric together
    steal, total = (b - a for a, b in zip(ticks0, cpu_ticks()))
    walls = [j["wall_s"] for j in runs]
    ops = [o * 1000 for j in runs for o in j["ops_s"]]

    def timing(name: str, scale: float = 1.0) -> list[float]:
        return [t * scale for j in runs for t in j["timings"].get(name, [])]

    e2e = {
        "setup_s": statistics.median(t.setups),
        "wall_s": statistics.median(walls),
        "rows_per_s": statistics.median(j["rows"] / j["wall_s"]
                                        for j in runs),
        "peak_rss_mb": statistics.median(t.rss),
    }
    # the report: every metric named in README.md, with its spread
    named = {"setup_s": summary(t.setups, "s"), "wall_s": summary(walls, "s"),
             "peak_rss_mb": summary(t.rss, "MB"),
             "op_ms": summary(ops, "ms"),
             "failed_frac": t.failed / t.attempted}
    if any(j["tokens"] for j in runs):
        named["tok_per_s"] = summary([j["tokens"] / j["wall_s"]
                                      for j in runs], "1/s")
    for name, key in (("feed_batch_ms", "feed_batch_s"),
                      ("append_ms", "append_s")):
        xs = timing(key, 1000)
        if xs:
            named[f"{name}_p50"] = percentile(xs, 50)
            named[f"{name}_p90"] = percentile(xs, 90)
            named[name] = summary(xs, "ms")
    for name in ("resume_s", "merged_read_s", "compact_s"):
        xs = timing(name)
        if xs:
            named[name] = summary(xs, "s")
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "sizes": SIZES[args.scale][args.workload],
        "host": {**t.host,
                 "output_fs": filesystem_of(work),
                 "flush_policy": FLUSH_POLICY, "sessions": len(t.setups),
                 "cpu_steal_frac": steal / total if total else 0.0},
        "input_gen_s": t.gens, "job_walls_s": walls, "metrics": named,
        "errors": t.errors[-3:],
    }
    if t.failed:
        report["log"] = os.path.relpath(log_path, ROOT)
    if args.trace:
        trace_dir = os.path.join(work, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, f"{tag}.jsonl")
        with open(path, "w") as f:
            for s in t.spans:
                f.write(json.dumps(s) + "\n")
        layers = per_layer_metrics(t.spans)
        report["spans_file"] = os.path.relpath(path, ROOT)
        report["per_layer"] = layers
        metrics = {k: {"value": v, "unit": PER_LAYER[k]}
                   for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in e2e.items()}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": t.failed == 0,
                      "attempted": t.attempted, "failed": t.failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
