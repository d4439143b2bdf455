"""Faithful-mode helpers: reproduce the reference's *observable* quirks.

The product semantics of this engine are relational (row-level filters, true
distinct); SURVEY.md §7.4 calls for a thin faithful mode that reproduces the
reference's observable behaviors for parity testing:

* F2 cell-wise filter: the reference keeps individual CELLS equal to the
  searched IP, destroying row alignment — the structure degenerates into
  per-field match-multisets (``/root/reference/src/zeek/zeek_log.rs:206-218``).
  :func:`faithful_cell_scan` produces that observable: per-field match
  counts.  Its emptiness/non-emptiness matches the reference's golden
  assertions (``tests/zeek_search.rs:189-216``).
* A2 ``_reduce`` prune: empty columns, then empty buckets, then empty protos
  are cascaded away (``zeek_log.rs:291-329``).  :func:`prune_empty` drops
  all-null columns and empty groups from a report frame.
* F6 ``~`` path expansion (``zeek_search_params.rs:59-84``) and F8 input
  validation (``main.rs:786-812``): :func:`expand_path`, :func:`parse_ip`,
  :func:`parse_date`.
"""

from __future__ import annotations

import ipaddress
import os
import re
from datetime import date, datetime

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from zeeklog_ray.sources import EXTRACTED_COLUMNS


def faithful_cell_scan(ds: "ray.data.Dataset", ip: str) -> pd.DataFrame:
    """Per-field count of cells equal to ``ip`` over a parsed dataset —
    the reference's cell-wise filter observable (field → matched multiset
    size).  Empty result frame ⇔ the reference's empty summary."""

    def counts(batch: pa.Table) -> pa.Table:
        fields, ns = [], []
        for f in EXTRACTED_COLUMNS:
            if f in batch.column_names:
                m = pc.sum(pc.cast(pc.fill_null(
                    pc.equal(batch[f], ip), False), pa.int64())).as_py() or 0
                if m:
                    fields.append(f)
                    ns.append(m)
        return pa.table({"field": pa.array(fields, pa.string()),
                         "n_matches": pa.array(ns, pa.int64())})

    partial = ds.map_batches(counts, batch_format="pyarrow",
                             batch_size=None).to_pandas()
    if partial.empty:
        return pd.DataFrame(columns=["field", "n_matches"])
    out = partial.groupby("field", as_index=False)["n_matches"].sum()
    return out.sort_values("field").reset_index(drop=True)


def prune_empty(df: pd.DataFrame) -> pd.DataFrame:
    """A2 ``_reduce``: drop all-null columns, then all-null rows."""
    df = df.dropna(axis=1, how="all")
    return df.dropna(axis=0, how="all").reset_index(drop=True)


def expand_path(p: str) -> str:
    """F6: leading ``~`` → $HOME (zeek_search_params.rs:70-80)."""
    return os.path.expanduser(p)


def parse_ip(s: str) -> str:
    """F8: validate an IP literal; raises ValueError like IpAddr::parse."""
    return str(ipaddress.ip_address(s))


_DATE_FMT = "%Y-%m-%d"


def parse_date(s: str) -> date:
    """F8: strict %Y-%m-%d parse (main.rs:796-802)."""
    if not re.match(r"^\d{4}-\d{2}-\d{2}$", s):
        raise ValueError(f"bad date format: {s!r}")
    return datetime.strptime(s, _DATE_FMT).date()


def date_range(start: str, end: str) -> list[str]:
    """F9: inclusive start..end list of YYYY-MM-DD strings
    (main.rs:815-834)."""
    from datetime import timedelta

    a, b = parse_date(start), parse_date(end)
    if b < a:
        raise ValueError("end before start")
    out, cur = [], a
    while cur <= b:
        out.append(cur.strftime(_DATE_FMT))
        cur += timedelta(days=1)
    return out
