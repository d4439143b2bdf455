"""The table store's one commit path (zeeklog_ray/partitioned.py
``_commit`` / ``_publish``): a crash at every filesystem step of
compaction, upsert and delta fold leaves the partition exactly old or
exactly new, a rerun converges, and vacuum leaves no ``*.tmp``; plus
the source guard that keeps that path the only one."""
import ast
import contextlib
import json
import os
import pathlib
import shutil

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from zeeklog_ray import partitioned

_STEPS = ("replace", "remove", "fsync")


class Crash(Exception):
    pass


@contextlib.contextmanager
def _filesystem_steps(crash_at=None):
    """Count ``os.replace`` / ``os.remove`` / ``os.fsync`` calls; the
    call numbered ``crash_at`` (0-based) raises instead of running."""
    steps = {"n": 0}
    real = {name: getattr(os, name) for name in _STEPS}

    def wrap(name):
        def call(*args, **kwargs):
            if steps["n"] == crash_at:
                raise Crash(f"os.{name} at step {crash_at}")
            steps["n"] += 1
            return real[name](*args, **kwargs)
        return call

    try:
        for name in _STEPS:
            setattr(os, name, wrap(name))
        yield steps
    finally:
        for name, fn in real.items():
            setattr(os, name, fn)


def _store(root: str) -> tuple[str, str]:
    """One zonemapped partition ``day=a`` of two base files and two
    committed delta batches, plus a staged change batch outside the
    store; returns (partition dir, staging dir)."""
    part = os.path.join(root, "day=a")
    os.makedirs(os.path.join(part, "_deltas"))
    pq.write_table(pa.table({"k": [1, 2, 3], "v": [10, 20, 30],
                             "ver": [0, 0, 0]}),
                   os.path.join(part, "a.parquet"))
    pq.write_table(pa.table({"k": [4, 5], "v": [40, 50], "ver": [0, 0]}),
                   os.path.join(part, "b.parquet"))
    for seq, (k, v, dead) in enumerate([([2, 6], [21, 60], [False, False]),
                                        ([3, 6], [31, 61], [True, False])],
                                       start=1):
        pq.write_table(pa.table({"k": k, "v": v, "ver": [seq] * 2,
                                 "deleted": dead}),
                       os.path.join(part, "_deltas",
                                    f"delta-{seq:06d}-0000.parquet"))
    with open(os.path.join(root, "_delta_seq"), "w") as f:
        f.write("2")
    partitioned.rebuild_zonemap_manifest(part, "k")
    stage = os.path.join(os.path.dirname(root), "stage")
    os.makedirs(stage)
    pq.write_table(pa.table({"k": [2, 6, 3], "v": [22, 62, 0],
                             "ver": [1, 1, 1],
                             "deleted": [False, False, True]}),
                   os.path.join(stage, "c.parquet"))
    return part, stage


_KEY = {"key": "k", "order_col": "ver", "deleted_col": "deleted"}

_OPS = {
    "compact_partition_dir": lambda root, part, stage:
        partitioned.compact_partition_dir(part, target_rows=10),
    "upsert_partition_dir": lambda root, part, stage:
        partitioned.upsert_partition_dir(part, stage, **_KEY),
    "compact_deltas": lambda root, part, stage:
        partitioned.compact_deltas(root, **_KEY),
}


def _view(part: str) -> tuple:
    """What the next reader of the partition sees (every entry point
    recovers first): base rows, base file count, delta files, merged
    rows — and a zonemap manifest that matches the files."""
    partitioned._recover_compaction(part)
    base = partitioned._base_files(part)
    rows = pd.concat([pq.read_table(os.path.join(part, f)).to_pandas()
                      for f in base], ignore_index=True)
    merged = partitioned._merged_partition_table(part, **_KEY)
    with open(os.path.join(part, "manifest.json")) as f:
        manifest = json.load(f)
    assert not partitioned.zonemap_manifest_is_stale(part, manifest)

    def canon(df):
        return tuple(map(tuple, df.sort_values("k")[["k", "v"]].to_numpy()))

    return (canon(rows), len(base),
            tuple(partitioned._delta_files(part)), canon(merged))


def _tmps(root: str) -> list[str]:
    return sorted(os.path.join(dp, f) for dp, _, fs in os.walk(root)
                  for f in fs if f.endswith(".tmp"))


@pytest.mark.parametrize("op", sorted(_OPS))
def test_crash_at_every_commit_step(op, tmp_path, monkeypatch):
    """Crash the operation at filesystem step k, for every k: the
    partition then reads as exactly the old or exactly the new content,
    rerunning the call converges to the no-crash result, and
    ``vacuum_store`` leaves no ``*.tmp`` behind."""
    # the fold's per-partition fan-out runs in-process so the patched
    # os calls are the ones the commit makes
    monkeypatch.setattr(partitioned, "_report", lambda items, fn:
                        pd.DataFrame([fn(x) for x in items]))

    def fresh(name):
        root = str(tmp_path / name / "store")
        return (root,) + _store(root)

    root, part, stage = fresh("old")
    old = _view(part)
    root, part, stage = fresh("clean")
    with _filesystem_steps() as steps:
        _OPS[op](root, part, stage)
    n_steps = steps["n"]
    new = _view(part)
    assert new != old
    assert n_steps >= 8  # data fsync, journal publish, roll-forward

    for k in range(n_steps):
        root, part, stage = fresh(f"crash{k}")
        with pytest.raises(Crash), _filesystem_steps(crash_at=k):
            _OPS[op](root, part, stage)
        got = _view(part)
        assert got in (old, new), f"{op} crashed at step {k}"
        _OPS[op](root, part, stage)
        assert _view(part) == new, f"{op} rerun after step {k}"
        partitioned.vacuum_store(root)
        assert _tmps(root) == [], f"{op} crashed at step {k}"
        shutil.rmtree(os.path.dirname(root))


# The commit path: the only functions in partitioned.py that may rename
# over a file, fsync, make a tmp name or name the journal.
_COMMIT_PATH = {"_fsync", "_publish", "_commit", "_recover_compaction"}
_GUARDED = {("os", "replace"), ("os", "fsync"), ("tempfile", "mkstemp")}


def test_commit_path_is_the_only_durable_write():
    class Owners(ast.NodeVisitor):
        """Names the innermost function around every guarded use."""

        def __init__(self):
            self.stack, self.found = [], set()

        def _add(self, what):
            owner = self.stack[-1] if self.stack else "<module>"
            self.found.add((what, owner))

        def visit_FunctionDef(self, node):
            self.stack.append(node.name)
            self.generic_visit(node)
            self.stack.pop()

        def visit_Attribute(self, node):
            if isinstance(node.value, ast.Name) \
                    and (node.value.id, node.attr) in _GUARDED:
                self._add(f"{node.value.id}.{node.attr}")
            self.generic_visit(node)

        def visit_ImportFrom(self, node):
            if node.module in ("os", "tempfile"):
                self._add(f"from {node.module} import")

        def visit_Constant(self, node):
            if node.value == "_compaction.journal":
                self._add("'_compaction.journal'")

    owners = Owners()
    owners.visit(ast.parse(pathlib.Path(partitioned.__file__).read_text()))
    outside = sorted(f"{fn}: {what}" for what, fn in owners.found
                     if fn not in _COMMIT_PATH)
    assert not outside, (
        f"{outside}: durable writes go through _publish (one file) or "
        "_commit (a partition's base files)")
    # the guard sees the path it protects
    assert {("os.replace", "_publish"), ("tempfile.mkstemp", "_publish"),
            ("'_compaction.journal'", "_commit")} <= owners.found
