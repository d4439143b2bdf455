"""Driver contract for the graft builder (Ray Data target).

The driver initialises Ray BEFORE importing this module; nothing here (or in
the library) calls ``ray.init`` / ``ray.shutdown``.

* ``entry()`` — flagship parse→enrich→route→aggregate pipeline on the
  sf0.001-scale corpus; returns the per-sink stats Dataset.
* ``queries()`` — one entry per implemented operator/pipeline
  (registry: ``zeeklog_ray/queries.py``; inventory: SURVEY.md §2).
* ``oracle_sql()`` — DuckDB-equivalent SQL for every query registered with
  ``@query(oracle=...)``; each other query declares why it has none in its
  ``@query(rows_only="...")`` reason (``zeeklog_ray.queries.ROWS_ONLY``).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001; driver checks rows>=0."""
    from zeeklog_ray.queries import zeek_enriched_sink_stats

    return zeek_enriched_sink_stats("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from zeeklog_ray.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from zeeklog_ray.queries import build_oracle_sql, ensure_oracle_corpus

    # the zeek_* oracles read the tokenized corpus by path — make sure it
    # exists even if the driver runs the SQL before the Ray queries
    ensure_oracle_corpus()
    return build_oracle_sql()
