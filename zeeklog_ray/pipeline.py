"""Pipeline construction: the query surface and the composed Dataset plan.

:class:`PipelineConfig` mirrors the reference's builder-pattern query API
``ZeekSearchParamsBuilder::default().path_prefix(..).selected_date(..)
.src_ip(..).build()`` (``/root/reference/src/zeek/zeek_search_params.rs:12-33``)
and its plan selector ``check()`` which maps the presence of
(src_ip, proto_type, end_date) to a plan code with bit weights src_ip=4,
proto=2, end_date=1 (``zeek_search_params.rs:38-57``).  The reference
implements only plans 0 (scan-all) and 4 (ip-filter) — everything else reads
nothing (``zeek_log.rs:222``); the rebuild implements the full 8-plan matrix
as composed Dataset operators (SURVEY.md §2.2 F3).

Physical plan shape (SURVEY.md §3 "Rebuild lifecycle")::

    read_parquet(corpus, date-partition filter, column prune)
      → map_batches(parse_batch, pyarrow, zero-copy)     # stateless tasks
      → [row predicate: src_ip]                          # vectorized mask
      → [map_batches(Enricher())]                        # stateless tasks
      → grouped_stats / distinct summary                 # small shuffles

The routed per-sink write is the fused one-pass stage in ``flagship.py``
(``run_flagship``).

Filter semantics: the src_ip predicate is ROW-level ("any address field
equals ip"), the clearly-intended relational semantics of the reference's
cell-wise filter (``zeek_log.rs:206-218``; SURVEY.md §1.3, §7.4) — it
reproduces the reference's observable present/absent behavior on the golden
IPs (``tests/zeek_search.rs:189-216``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import pyarrow.compute as pc
import ray.data

from zeeklog_ray.enrich import Enricher
from zeeklog_ray.parse import parse_batch
from zeeklog_ray.sources import normalize_source

_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")


class SearchInvalidStartDate(ValueError):
    """Mirror of the reference's Error::SearchInvalidStartDate
    (zeek_log.rs:367-371): the requested date partition does not exist /
    is malformed."""


@dataclass
class PipelineConfig:
    """Query parameters — the rebuild's ``ZeekSearchParams``.

    All fields optional, like the reference builder; ``plan()`` returns the
    same bit code as ``ZeekSearchParams::check()``
    (zeek_search_params.rs:38-57).
    """

    corpus_dir: str = ""
    start_date: str | None = None   # reference: selected_date
    end_date: str | None = None
    src_ip: str | None = None
    source: str | None = None       # reference: proto_type (case-insensitive)
    enrich: bool = False

    def plan(self) -> int:
        """Bit weights: src_ip=4, source(proto)=2, end_date=1."""
        code = 0
        if self.src_ip:
            code += 4
        if self.source:
            code += 2
        if self.end_date:
            code += 1
        return code

    def validate(self) -> None:
        for d in (self.start_date, self.end_date):
            if d is not None and not _DATE_RE.match(d):
                # reference: check_date_format (zeek_search_params.rs:96-123)
                raise SearchInvalidStartDate(f"bad date: {d!r}")
        if self.start_date and self.end_date and self.end_date < self.start_date:
            raise SearchInvalidStartDate("end_date before start_date")


def _date_dirs(cfg: PipelineConfig) -> list[str]:
    """Resolve the date partition directories to read — PATH-level pruning.

    The date range never touches row data: it selects ``date=YYYY-MM-DD/``
    directories, exactly the reference's date-directory resolution before
    reading (zeek_log.rs:367-383).  A requested start date with no matching
    directory raises :class:`SearchInvalidStartDate`, mirroring the
    reference's error path (zeek_log.rs:367-371).
    """
    import glob
    import os

    def files(d: str) -> list[str]:
        return sorted(glob.glob(os.path.join(d, "*.parquet")))

    if not os.path.isdir(cfg.corpus_dir):
        # reference: missing base/date dir → SearchInvalidStartDate
        raise SearchInvalidStartDate(f"corpus dir not found: {cfg.corpus_dir!r}")
    all_dirs = sorted(glob.glob(os.path.join(cfg.corpus_dir, "date=*")))
    if not all_dirs:  # unpartitioned corpus — read as-is
        return [cfg.corpus_dir]
    if not cfg.start_date:
        if cfg.end_date:  # plan 1: everything up to and including end_date
            return [f for d in all_dirs
                    if os.path.basename(d).removeprefix("date=") <= cfg.end_date
                    for f in files(d)]
        return [f for d in all_dirs for f in files(d)]
    dates = {os.path.basename(d).removeprefix("date="): d for d in all_dirs}
    if cfg.start_date not in dates:
        raise SearchInvalidStartDate(f"no partition for {cfg.start_date!r}")
    if not cfg.end_date:
        return files(dates[cfg.start_date])
    return [f for k, d in sorted(dates.items())
            if cfg.start_date <= k <= cfg.end_date for f in files(d)]


def read_corpus(cfg: PipelineConfig) -> "ray.data.Dataset":
    """Read the corpus with date pruning at the path level and the source
    predicate pushed into the Parquet scan (row-group pruning)."""
    cfg.validate()
    flt = None
    if cfg.source:
        flt = pc.field("source") == normalize_source(cfg.source)
    return ray.data.read_parquet(_date_dirs(cfg), filter=flt)


def _ip_predicate(ip: str):
    def keep(batch):
        mask = pc.or_kleene(
            pc.equal(batch["id_orig_h"], ip),
            pc.equal(batch["id_resp_h"], ip),
        )
        mask = pc.fill_null(mask, False)
        return batch.filter(mask)

    return keep


def build_dataset(cfg: PipelineConfig) -> "ray.data.Dataset":
    """Compose the lazy plan: read → parse → [ip filter] → [enrich].

    Returns a streaming Dataset; callers consume it with
    ``write_parquet`` (routed sinks), :func:`zeeklog_ray.aggregate.grouped_stats`,
    or a small ``take``/``to_pandas`` in tests.
    """
    ds = read_corpus(cfg)
    # whole blocks (batch_size=None): no rebatch copy
    ds = ds.map_batches(parse_batch, batch_format="pyarrow",
                        batch_size=None, zero_copy_batch=True)
    if cfg.src_ip:
        ds = ds.map_batches(_ip_predicate(cfg.src_ip), batch_format="pyarrow",
                            zero_copy_batch=True)
    if cfg.enrich:
        # an instance, not the class: Ray runs it as tasks that release
        # their CPU between blocks (an actor pool would hold one for the
        # stage's lifetime and starve the read on a 1-CPU cluster)
        ds = ds.map_batches(Enricher(), batch_format="pyarrow",
                            batch_size=None)
    return ds

