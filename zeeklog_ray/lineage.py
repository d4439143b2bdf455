"""Per-partition lineage manifest: checkpoint / resume for routed runs.

The reference has no checkpointing — a failed run restarts from zero
(SURVEY.md §4, "Checkpoint / resume: none").  The north rule requires that an
interrupted run resume from the last committed partition without re-emitting
rows, with per-partition lineage records (input fragment → sink, row counts,
bytes, wall-time).

Design (the resumable-batch pattern from the Ray guide):

* The input corpus is split into **shards** — fixed groups of input Parquet
  fragments (files).  A shard is the unit of commit.
* Each shard runs the full parse→[filter]→[enrich]→route pipeline as one Ray
  Data job writing to ``out_dir/shard=<id>/sink=<s>/part-*.parquet`` —
  deterministic, shard-scoped output paths, so a re-run of an uncommitted
  shard overwrites rather than duplicates.
* After a shard's write completes, a JSON lineage record is committed
  ATOMICALLY (write temp file + ``os.replace``) into
  ``out_dir/_manifest/shard-<id>.json``.
* Resume = enumerate shards, skip those with a committed manifest record,
  re-run the rest from scratch (their partial output is overwritten).
* Read-back (``ResumableRun.committed_output``) lists the committed shard
  dirs only and reads them in ONE stage of path tasks
  (``flagship.read_routed``): one schema for every block, ``shard`` and
  ``sink`` as string columns, and no task spanning two shards or going
  over ``relational.CALL_BYTES``.

At 100 TB a shard would be a few hundred fragments (~10-100 GB); shards may
run concurrently across the cluster — the manifest protocol is per-shard and
order-independent.  Wall-clock scale note: the driver loop only *launches*
per-shard Dataset jobs; all heavy work is distributed inside each job.
"""

from __future__ import annotations

import glob
import json
import os
import time
from dataclasses import dataclass

import ray.data

from zeeklog_ray.pipeline import PipelineConfig


def make_shards(fragments: list[str], files_per_shard: int) -> list[list[str]]:
    return [fragments[i:i + files_per_shard]
            for i in range(0, len(fragments), files_per_shard)]


def _manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest")


def committed_records(out_dir: str) -> dict[int, dict]:
    """shard_id → committed manifest record (torn/invalid files skipped)."""
    mdir = _manifest_dir(out_dir)
    if not os.path.isdir(mdir):
        return {}
    out: dict[int, dict] = {}
    for p in glob.glob(os.path.join(mdir, "shard-*.json")):
        try:
            with open(p) as f:
                rec = json.load(f)
            out[int(rec["shard_id"])] = rec
        except (ValueError, KeyError, json.JSONDecodeError):
            continue  # torn/invalid record → treat as uncommitted
    return out


def committed_shards(out_dir: str) -> set[int]:
    return set(committed_records(out_dir))


def commit_shard(out_dir: str, record: dict) -> None:
    """Atomic manifest commit: temp file + rename (SURVEY.md §7.4)."""
    mdir = _manifest_dir(out_dir)
    os.makedirs(mdir, exist_ok=True)
    final = os.path.join(mdir, f"shard-{record['shard_id']:05d}.json")
    tmp = final + ".tmp"
    with open(tmp, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, final)


@dataclass
class ResumableRun:
    """Driver for a routed, resumable pipeline run."""

    cfg: PipelineConfig
    out_dir: str
    files_per_shard: int = 8
    #: 'parquet' (tokenized corpus) or 'zeek-tsv' (raw .log.gz tree) —
    #: both shard over fragment files and share the manifest protocol
    input_format: str = "parquet"
    on_error: str = "raise"          # zeek-tsv only: skip unreadable files
    compression: str | None = None   # routed-output Parquet codec

    def shards(self) -> list[list[str]]:
        """Shard the fragments SELECTED BY THE CONFIG (date-range pruning
        included), not the whole corpus."""
        if self.input_format == "zeek-tsv":
            from zeeklog_ray.zeektsv import select_zeek_files

            return make_shards(
                select_zeek_files(self.cfg.corpus_dir, self.cfg.start_date,
                                  self.cfg.end_date),
                self.files_per_shard)
        from zeeklog_ray.pipeline import _date_dirs

        return make_shards(_date_dirs(self.cfg), self.files_per_shard)

    def _run_shard(self, shard_id: int, files: list[str]) -> dict:
        """Process one shard with the fused file-granular flagship stage
        (read+parse+[filter]+[enrich]+routed write inside each map task —
        zeeklog_ray/flagship.py); the per-sink stats come back as the map
        output, so lineage metrics cost nothing extra."""
        import shutil

        from zeeklog_ray.flagship import run_files
        from zeeklog_ray.pipeline import PipelineConfig

        t0 = time.monotonic()
        shard_out = os.path.join(self.out_dir, f"shard={shard_id:05d}")
        # an uncommitted partial from a previous crashed run is overwritten
        shutil.rmtree(shard_out, ignore_errors=True)
        shard_cfg = PipelineConfig(
            corpus_dir=self.cfg.corpus_dir, src_ip=self.cfg.src_ip,
            source=self.cfg.source, enrich=self.cfg.enrich)
        stats = run_files(shard_cfg, files, shard_out,
                          compression=self.compression,
                          input_format=self.input_format,
                          on_error=self.on_error)
        out_bytes = sum(os.path.getsize(p) for p in
                        glob.glob(os.path.join(shard_out, "**", "*.parquet"),
                                  recursive=True))
        return {
            "shard_id": shard_id,
            "input_fragments": files,
            "rows_per_sink": {str(r["sink"]): int(r["n"]) for _, r in stats.iterrows()},
            "tokens_per_sink": {str(r["sink"]): int(r["sum_n_tok"])
                                for _, r in stats.iterrows()},
            "output_bytes": out_bytes,
            "wall_time_s": round(time.monotonic() - t0, 3),
        }

    def run(self, fail_after_shards: int | None = None) -> list[dict]:
        """Process all uncommitted shards; returns the new lineage records.

        ``fail_after_shards`` is a test hook: raise after N commits to
        simulate a mid-run kill.
        """
        import shutil

        shards = self.shards()
        done = committed_records(self.out_dir)
        # A record commits a specific FILE LIST, not just a positional shard
        # id: if the corpus gained/lost fragments or files_per_shard changed
        # between the interrupted run and this resume, shard ids silently
        # remap to different file sets — skipping on id alone would drop
        # inputs and re-emit others.  Reconcile the whole manifest first:
        # any record whose id is out of range or whose input_fragments don't
        # match the current shard's files is STALE — drop its record AND its
        # output dir (before re-running, so a crash mid-shard can't leave a
        # record claiming the now-wrong output is committed).
        for sid, rec in sorted(done.items()):
            if sid < len(shards) and rec.get("input_fragments") == shards[sid]:
                continue
            try:
                os.remove(os.path.join(_manifest_dir(self.out_dir),
                                       f"shard-{sid:05d}.json"))
            except FileNotFoundError:
                pass
            shutil.rmtree(os.path.join(self.out_dir, f"shard={sid:05d}"),
                          ignore_errors=True)
            del_rec = done.pop(sid, None)
            assert del_rec is not None

        records = []
        n_done_this_run = 0
        for shard_id, files in enumerate(shards):
            if shard_id in done:
                continue
            rec = self._run_shard(shard_id, files)
            commit_shard(self.out_dir, rec)
            records.append(rec)
            n_done_this_run += 1
            if fail_after_shards is not None and n_done_this_run >= fail_after_shards:
                raise RuntimeError(f"simulated failure after {n_done_this_run} shards")
        return records

    def committed_stats(self) -> dict:
        """Aggregate lineage metrics across committed shards — the run's
        progress/throughput report without touching row data.  A torn or
        invalid record counts as uncommitted, as in :meth:`run` and
        :meth:`committed_output`."""
        rows: dict[str, int] = {}
        toks: dict[str, int] = {}
        total_bytes = 0
        wall = 0.0
        recs = committed_records(self.out_dir).values()
        for rec in recs:
            for s, v in rec["rows_per_sink"].items():
                rows[s] = rows.get(s, 0) + v
            for s, v in rec["tokens_per_sink"].items():
                toks[s] = toks.get(s, 0) + v
            total_bytes += rec["output_bytes"]
            wall += rec["wall_time_s"]
        return {"committed_shards": len(recs), "rows_per_sink": rows,
                "tokens_per_sink": toks, "output_bytes": total_bytes,
                "total_shard_wall_s": round(wall, 3)}

    def committed_output(self) -> "ray.data.Dataset":
        """Dataset over the COMMITTED shards only, with ``shard`` and
        ``sink`` as string columns; an uncommitted partial ``shard=`` dir
        is never listed, so readers never see rows from a torn shard.

        One read stage over all of them (``flagship.read_routed``): every
        block has the same schema, and no task spans two shards."""
        from zeeklog_ray.flagship import read_routed

        done = sorted(committed_shards(self.out_dir))
        if not done:
            raise FileNotFoundError("no committed shards")
        dirs = [os.path.join(self.out_dir, f"shard={i:05d}") for i in done]
        # a shard whose filter kept no rows committed without a dir
        return read_routed(*filter(os.path.isdir, dirs))
