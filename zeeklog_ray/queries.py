"""Query registry: every implemented operator/pipeline as ``name →
callable(sf_dir)``, registered by one ``@query`` record that carries either
its DuckDB oracle SQL or the reason it is rows-only (the contract is in
``__ray_entry__.py``).

Two families:

* ``zeek_*`` — the flagship parse→enrich→route→aggregate pipeline over the
  deterministic tokenized corpus (generated per sf on first use, cached under
  /tmp).  Fully oracle-checked: DuckDB decodes the token payload with
  ``array_to_string(list_transform(tokens, x -> chr(x)), '')`` and splits on
  ``chr(9)``, replicating parse → route → filter → aggregate in SQL
  (see ``_zeek_z``).
* relational/analytics queries over the driver's testdata tables
  (documents / events / lineitem / orders / …) — each with exact oracle SQL
  or a declared rows-only reason.
  Float policy: sums are integer-exact (cents), divisions happen on exact
  integer sums, similarity scores are floored at 1e-4 on DOUBLE math — see
  ``relational.py``.
"""

from __future__ import annotations

import os
import shutil

from collections.abc import Callable
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

import zeeklog_ray.ops.sample as _sample_sql
from zeeklog_ray.aggregate import HIST_COLUMNS, HIST_EDGES, distinct_column, grouped_stats
from zeeklog_ray.corpus import (
    GOLDEN_IP_0702_ONLY,
    SOURCE_MIX,
    corpus_for_sf_dir,
    corpus_path_for_sf_dir,
)
from zeeklog_ray.enrich import build_geo_dict, build_geo_ranges
from zeeklog_ray.ops.mediacodec import HAS_PIL as _HAS_PIL
from zeeklog_ray.ops.multimodal import media_parquet_path
from zeeklog_ray.ops.sketch import count_min_oracle_sql, hll_oracle_sql
from zeeklog_ray.pipeline import PipelineConfig, build_dataset
from zeeklog_ray.relational import (
    CAP_SALT as _CAP_SALT,
    broadcast_merge,
    bucket_exchange,
    bucketed_equi_join,
    grouped_sum,
    read_table,
    small_table,
    to_pandas,
    top_k,
)
from zeeklog_ray.sources import CONN_PREFIXED, KNOWN_SOURCES
from zeeklog_ray.zeektsv import tsv_fixture_path


def _round_half_away(x: "pd.Series | np.ndarray") -> np.ndarray:
    """Round half away from zero to int64 — DuckDB's ROUND semantics.

    numpy/pandas ``.round()`` is half-to-even, which diverges from the
    oracle on exact .5 products (e.g. price*(1-discount)*100); this keeps
    cent conversions bit-identical to ``CAST(ROUND(x) AS BIGINT)``.
    """
    x = np.asarray(x, dtype=np.float64)
    return (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype("int64")


def _scratch_dir(kind: str, sf_dir: str) -> str:
    """An emptied ``/tmp/zeeklog_<kind>/<sf>-<pid>`` path.  The pid keeps two
    concurrent runs (bench + oracle gate) from removing each other's
    in-flight files; the directory stays on disk because the returned
    Datasets read it lazily (tiny at test scale)."""
    path = (f"/tmp/zeeklog_{kind}/"
            f"{os.path.basename(os.path.normpath(sf_dir))}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    return path


# --------------------------------------------------------------------------
# Registry: one ``@query`` record per query says how its result is checked:
# ``oracle=`` the DuckDB replay (SQL text, or a function of ``sf_dir`` for
# the oracles that read the per-sf corpus or media file), or ``rows_only=``
# why no exact oracle exists (then only the row count is checked).
# --------------------------------------------------------------------------

QUERIES: dict[str, Callable[[str], Any]] = {}
ROWS_ONLY: dict[str, str] = {}
_ORACLES: dict[str, "str | Callable[[str], str]"] = {}


def query(*, oracle: "str | Callable[[str], str] | None" = None,
          rows_only: str | None = None) -> Callable:
    """Register the decorated ``fn(sf_dir)`` in QUERIES under its name, with
    exactly one of an oracle and a non-empty rows-only reason."""
    if (oracle is None) == (rows_only is None):
        raise ValueError("query() takes exactly one of oracle= and rows_only=")
    if rows_only is not None and not rows_only.strip():
        raise ValueError("query(rows_only=...) needs a non-empty reason")

    def register(fn: Callable[[str], Any]) -> Callable[[str], Any]:
        name = fn.__name__
        if name in QUERIES:
            raise ValueError(f"query {name!r} is registered twice")
        QUERIES[name] = fn
        if oracle is None:
            ROWS_ONLY[name] = rows_only
        else:
            _ORACLES[name] = oracle
        return fn

    return register


# The oracle views are registered over sf0.01 and both sides run at that
# scale; the zeek corpus is addressed by absolute path inside the SQL.
DRIVER_SF_DIR = "/root/testdata/sf0.01"


def build_oracle_sql(sf_dir: str = DRIVER_SF_DIR) -> dict[str, str]:
    """Every registered oracle's SQL, the per-sf ones built for ``sf_dir``
    (tools/check_oracle.py checks scales other than ``DRIVER_SF_DIR``)."""
    return {name: o(sf_dir) if callable(o) else o
            for name, o in _ORACLES.items()}


def ensure_oracle_corpus(sf_dir: str = DRIVER_SF_DIR) -> None:
    """Generate (or reuse) the corpora the zeek oracle SQL reads — called by
    ``__ray_entry__.oracle_sql()`` so the SQL's read targets exist even if
    the driver runs the oracle before the Ray query."""
    from zeeklog_ray.ops.multimodal import media_parquet_for_sf_dir
    from zeeklog_ray.zeektsv import tsv_fixture_for_sf_dir

    corpus_for_sf_dir(sf_dir)
    tsv_fixture_for_sf_dir(sf_dir)
    media_parquet_for_sf_dir(sf_dir)


# SQL fragments the oracles share.  ``_WORDS_SQL`` is the ops/text word
# split (single spaces, empty tokens dropped); the Horner hashes and the
# sign fold replay numpy's uint64 arithmetic and its int64 view in HUGEINT.
_WORDS_SQL = "LIST_FILTER(STRING_SPLIT(text, ' '), x -> x <> '')"
_N_WORDS_SQL = f"CAST(LENGTH({_WORDS_SQL}) AS BIGINT) AS n_words"
_N_STOP_SQL = ("CAST(LENGTH(LIST_FILTER(STRING_SPLIT(text, ' '), x -> x IN "
               "('a','and','for','in','is','it','of','that','the','to'))) "
               "AS BIGINT) AS n_stop")
_MOD64 = "18446744073709551616::HUGEINT"                        # 2^64


def _horner_sql(codes: str, base: int = 1000003) -> str:
    """Horner hash of the HUGEINT list ``codes``, mod 2^64 at every step."""
    return (f"list_reduce({codes}, (acc, c) -> "
            f"(acc*{base}::HUGEINT + c) % {_MOD64})")


def _byte_hashes_sql(k: int) -> str:
    """Horner hashes of every k-byte window of ``text`` (ASCII corpus:
    ord == utf-8 byte)."""
    return (f"list_transform(range(1, length(text)-{k - 2}), i -> "
            + _horner_sql(f"list_transform(range(i, i+{k}), "
                          "j -> ord(substring(text, j, 1))::HUGEINT)") + ")")


# per-word codepoint Horner over the ``words`` list
_WORD_HASHES_SQL = ("list_transform(words, w -> " + _horner_sql(
    "list_transform(range(1, length(w)+1), "
    "j -> ord(substring(w, j, 1))::HUGEINT)") + ")")


def _int64_sql(h: str) -> str:
    """The HUGEINT ``h`` in [0, 2^64) folded to two's-complement BIGINT."""
    return (f"CAST(CASE WHEN {h} >= 9223372036854775808::HUGEINT "
            f"THEN {h} - {_MOD64} ELSE {h} END AS BIGINT)")


# --------------------------------------------------------------------------
# zeek_* — flagship pipeline queries.  Each takes sf_dir and maps it to a
# matching-scale corpus.  DuckDB CAN decode the token payload —
#   array_to_string(list_transform(tokens, x -> chr(x)), '')  → the TSV line
#   string_split(line, chr(9))                                → the cells
# so the whole parse→route→aggregate pipeline is SQL-expressible and the
# flagship queries get the full rows+schema+hash gate.  Their
# oracles are functions of sf_dir: they read the corpus that
# ``corpus_for_sf_dir(sf_dir)`` resolves to by path (computed WITHOUT
# generating; generation happens when the queries run or in
# ``ensure_oracle_corpus``).
# --------------------------------------------------------------------------


def _sql_strings(names) -> str:
    return "(" + ", ".join(f"'{n}'" for n in names) + ")"


_KNOWN_SQL = _sql_strings(KNOWN_SOURCES)
_CONN_SQL = _sql_strings(CONN_PREFIXED)


def _corpus_sql(sf_dir: str) -> str:
    """``read_parquet`` over the tokenized corpus for ``sf_dir``."""
    return (f"read_parquet('{corpus_path_for_sf_dir(sf_dir)}"
            "/date=*/part-*.parquet')")


def _zeek_z(sf_dir: str) -> str:
    """WITH clause of the decoded view: p = the TSV cells of the token
    payload (1-indexed); id.orig_h = p[3], id.resp_h = p[5] for
    connection-prefixed sources."""
    return ("WITH z AS (SELECT date, source, lower(source) AS src, n_tok, "
            "string_split(array_to_string(list_transform(tokens, x -> chr(x)), "
            f"''), chr(9)) AS p FROM {_corpus_sql(sf_dir)}) ")


def _zeek_sink_stats_sql(sf_dir: str) -> str:
    """Per-sink row count, n_tok stats and n_tok histogram of the corpus."""
    hist = ", ".join(
        f"CAST(SUM(CASE WHEN n_tok >= {lo} AND n_tok < {hi} THEN 1 ELSE 0 "
        f"END) AS BIGINT) AS {col}"
        for col, lo, hi in (("hist_0_64", 0, 64), ("hist_64_128", 64, 128),
                            ("hist_128_256", 128, 256),
                            ("hist_256_512", 256, 512),
                            ("hist_512_1024", 512, 1024),
                            ("hist_1024_inf", 1024, 1 << 62)))
    return (f"SELECT CASE WHEN lower(source) IN {_KNOWN_SQL} "
            "THEN lower(source) ELSE 'none' END AS sink, COUNT(*) AS n, "
            "CAST(SUM(n_tok) AS BIGINT) AS sum_n_tok, "
            "CAST(MIN(n_tok) AS BIGINT) AS min_n_tok, "
            f"CAST(MAX(n_tok) AS BIGINT) AS max_n_tok, {hist} "
            f"FROM {_corpus_sql(sf_dir)} GROUP BY 1")


def _ip_cond(ip: str) -> str:
    """Rows of a connection-prefixed source with ``ip`` on either side."""
    return f"src IN {_CONN_SQL} AND (p[3] = '{ip}' OR p[5] = '{ip}')"


@query(oracle=_zeek_sink_stats_sql)
def zeek_sink_stats(sf_dir: str) -> "ray.data.Dataset":
    """Flagship: parse → route → per-sink counts + n_tok stats + histogram."""
    corpus = corpus_for_sf_dir(sf_dir)
    return grouped_stats(build_dataset(PipelineConfig(corpus_dir=corpus)), key="sink")


# enrichment appends columns but never rows — identical aggregate
@query(oracle=_zeek_sink_stats_sql)
def zeek_enriched_sink_stats(sf_dir: str) -> "ray.data.Dataset":
    """Same with the enrichment map stage in the path (exercises ST1/J1)."""
    corpus = corpus_for_sf_dir(sf_dir)
    ds = build_dataset(PipelineConfig(corpus_dir=corpus, enrich=True))
    return grouped_stats(ds, key="sink")


@query(oracle=lambda sf_dir: _zeek_z(sf_dir) + (
    f"SELECT DISTINCT p[3] AS id_orig_h FROM z WHERE src IN {_CONN_SQL}"))
def zeek_distinct_orig_h(sf_dir: str) -> "ray.data.Dataset":
    """The _create_overview summary: distinct source addresses
    (zeek_log.rs:332-362, product semantics)."""
    corpus = corpus_for_sf_dir(sf_dir)
    return distinct_column(build_dataset(PipelineConfig(corpus_dir=corpus)), "id_orig_h")


@query(oracle=lambda sf_dir: _zeek_z(sf_dir) + (
    "SELECT d.date, CAST(COALESCE(m.n, 0) AS BIGINT) AS n_rows "
    "FROM (VALUES ('2024-07-02'), ('2024-07-03')) AS d(date) "
    "LEFT JOIN (SELECT date, COUNT(*) AS n FROM z WHERE "
    f"{_ip_cond(GOLDEN_IP_0702_ONLY)} GROUP BY date) m "
    "ON d.date = m.date"))
def zeek_golden_ip_filter(sf_dir: str) -> pd.DataFrame:
    """Plan-4 ip filter on both golden dates; returns (date, n_rows) — the
    present/absent behavior of tests/zeek_search.rs:189-216."""
    corpus = corpus_for_sf_dir(sf_dir)
    rows = []
    for date in ("2024-07-02", "2024-07-03"):
        n = build_dataset(PipelineConfig(corpus_dir=corpus, start_date=date,
                                         src_ip=GOLDEN_IP_0702_ONLY)).count()
        rows.append({"date": date, "n_rows": n})
    return pd.DataFrame(rows)


_PLAN_IP = "10.2.17.31"


@query(oracle=lambda sf_dir: _zeek_z(sf_dir) + (
    "SELECT * FROM ("
    "SELECT 0 AS plan, COUNT(*) AS n_rows FROM z WHERE date = '2024-07-02' "
    "UNION ALL SELECT 1, COUNT(*) FROM z WHERE date BETWEEN '2024-07-02' AND '2024-07-03' "
    "UNION ALL SELECT 2, COUNT(*) FROM z WHERE date = '2024-07-02' AND source = 'dns' "
    "UNION ALL SELECT 3, COUNT(*) FROM z WHERE date BETWEEN '2024-07-02' AND '2024-07-03' AND source = 'dns' "
    f"UNION ALL SELECT 4, COUNT(*) FROM z WHERE date = '2024-07-02' AND {_ip_cond(_PLAN_IP)} "
    f"UNION ALL SELECT 5, COUNT(*) FROM z WHERE date BETWEEN '2024-07-02' AND '2024-07-03' AND {_ip_cond(_PLAN_IP)} "
    f"UNION ALL SELECT 6, COUNT(*) FROM z WHERE date = '2024-07-02' AND source = 'dns' AND {_ip_cond(_PLAN_IP)} "
    f"UNION ALL SELECT 7, COUNT(*) FROM z WHERE date BETWEEN '2024-07-02' AND '2024-07-03' AND source = 'dns' AND {_ip_cond(_PLAN_IP)}"
    ") ORDER BY plan"))
def zeek_plan_matrix(sf_dir: str) -> pd.DataFrame:
    """Row counts for all 8 (src_ip, source, end_date) plan combinations —
    the full matrix of ZeekSearchParams::check (zeek_search_params.rs:38-57).

    ONE corpus read + parse: the widest plan (date range, no filters) is
    built once and a single ``map_batches`` computes all 8 masked counts
    per batch (the masks replicate build_dataset's own predicates —
    date-partition prune, source pushdown, _ip_predicate), merged as 8
    integers on the driver.  Was 8 independent build_dataset(...).count()
    runs re-reading and re-parsing the corpus 8×."""
    import pyarrow.compute as pc

    from zeeklog_ray.sources import normalize_source

    corpus = corpus_for_sf_dir(sf_dir)
    ip, src, end = _PLAN_IP, "dns", "2024-07-03"
    start = "2024-07-02"
    want = normalize_source(src)
    base = build_dataset(PipelineConfig(corpus_dir=corpus, start_date=start,
                                        end_date=end))

    def partial(batch: "pa.Table") -> "pa.Table":
        d0 = pc.equal(batch["date"], start)      # end=None plans: start only
        s = pc.equal(batch["source"], want)
        i = pc.fill_null(pc.or_kleene(pc.equal(batch["id_orig_h"], ip),
                                      pc.equal(batch["id_resp_h"], ip)), False)

        def cnt(mask) -> int:
            return pc.sum(pc.cast(mask, pa.int64())).as_py() or 0

        # plan bits: src_ip=4, source=2, end_date=1 (zeek_search_params.rs)
        counts = [cnt(d0), len(batch),
                  cnt(pc.and_(d0, s)), cnt(s),
                  cnt(pc.and_(d0, i)), cnt(i),
                  cnt(pc.and_(pc.and_(d0, s), i)), cnt(pc.and_(s, i))]
        return pa.table({f"p{k}": pa.array([n], type=pa.int64())
                         for k, n in enumerate(counts)})

    parts = base.map_batches(partial, batch_format="pyarrow",
                             batch_size=None).to_pandas()
    return pd.DataFrame({"plan": range(8),
                         "n_rows": [int(parts[f"p{k}"].sum())
                                    for k in range(8)]})


@query(oracle=lambda sf_dir: _zeek_z(sf_dir) + (
    "SELECT src AS sink, CAST(FLOOR(CAST(p[1] AS DOUBLE) / 3600) "
    "AS BIGINT) AS hour_bucket, COUNT(*) AS n FROM z "
    f"WHERE src IN {_KNOWN_SQL} GROUP BY 1, 2"))
def zeek_hourly_sink_counts(sf_dir: str) -> "ray.data.Dataset":
    """Tumbling one-hour windows on the flagship parse path: per
    (sink, hour bucket) row counts over the parsed ``ts`` epoch — the
    windowed-aggregate shape of the reference's hour-bucketed log files
    (zeek_log.rs:372-383 filename hour ranges), computed from the data.
    Quarantined rows are excluded (an unknown source's first cell need
    not be a timestamp)."""
    import pyarrow.compute as pc

    corpus = corpus_for_sf_dir(sf_dir)
    ds = build_dataset(PipelineConfig(corpus_dir=corpus))

    def bucket(batch: "pa.Table") -> "pa.Table":
        keep = pc.not_equal(batch["sink"], "none")
        t = batch.filter(keep)
        hours = pc.cast(pc.floor(pc.divide(
            pc.cast(t["ts"], pa.float64()), 3600.0)), pa.int64())
        return pa.table({"sink": t["sink"], "hour_bucket": hours})

    bucketed = ds.map_batches(bucket, batch_format="pyarrow", batch_size=None)
    return grouped_sum(bucketed, ["sink", "hour_bucket"], count_as="n")


# the window exclusive-prefix-sum over doc_id order replays the two-level
# prefix sum exactly (monotone date contract)
@query(oracle=lambda sf_dir: (
    "WITH w AS (SELECT source, n_tok, COALESCE(SUM(n_tok) OVER ("
    "PARTITION BY source ORDER BY doc_id ROWS BETWEEN UNBOUNDED "
    f"PRECEDING AND 1 PRECEDING), 0) AS off FROM {_corpus_sql(sf_dir)}) "
    "SELECT source, CAST(off // 2048 AS BIGINT) AS pack_id, "
    "CAST(COUNT(*) AS BIGINT) AS n_docs, "
    "CAST(SUM(n_tok) AS BIGINT) AS sum_tok FROM w GROUP BY 1, 2"))
def zeek_seq_packing(sf_dir: str) -> "ray.data.Dataset":
    """Sequence packing over the tokenized corpus: assign each doc to its
    fixed-2048-token context bin via a two-level distributed prefix sum
    (per-(source, date) subtotals → broadcast base offsets → one bucketed
    shuffle), rolled up to (source, pack_id, n_docs, sum_tok).  Order
    contract: doc_id embeds the date, so (date, doc_id) order == doc_id
    order within a source (ops/packing.py)."""
    from zeeklog_ray.ops.packing import pack_stats

    corpus = corpus_for_sf_dir(sf_dir)
    ds = ray.data.read_parquet(
        corpus, columns=["doc_id", "n_tok", "source", "date"])
    return pack_stats(ds, context_len=2048)


# the loader materialization replayed from scratch: window-function stream
# offsets per source (doc_id order == stream order by the monotonicity
# contract), per-token global position via unnest(range), Horner over the
# REAL tokens (padding never hashed).  Horner as a POWER-TABLE join, not a
# per-pack list(): list aggregates cannot spill in DuckDB (the 34M-token
# sf0.1 replay OOMs), while Σ tok·B^(n_real−1−pos) mod 2^64 over a 2048-row
# recursive power CTE is a plain spillable grouped SUM — tok·v < 2^95 and
# the pack sum < 2^107, inside HUGEINT
@query(oracle=lambda sf_dir: (
    "WITH RECURSIVE pw(k, v) AS ("
    "SELECT 0, 1::HUGEINT "
    f"UNION ALL SELECT k + 1, (v * 1000003::HUGEINT) % {_MOD64} "
    "FROM pw WHERE k < 2047), "
    "w AS (SELECT source, tokens, COALESCE(SUM(n_tok) "
    "OVER (PARTITION BY source ORDER BY doc_id ROWS BETWEEN "
    "UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS off FROM "
    f"{_corpus_sql(sf_dir)}), "
    "u AS (SELECT source, off + i - 1 AS gpos, "
    "tokens[i]::HUGEINT AS tok "
    "FROM w, unnest(range(1, len(tokens) + 1)) AS r(i)), "
    "p AS (SELECT source, CAST(gpos // 2048 AS BIGINT) AS "
    "pack_id, CAST(gpos % 2048 AS BIGINT) AS pos, tok FROM u), "
    "sz AS (SELECT source, pack_id, COUNT(*) AS n_real "
    "FROM p GROUP BY 1, 2), "
    "h AS (SELECT p.source, p.pack_id, sz.n_real, "
    f"SUM(p.tok * pw.v) % {_MOD64} AS m "
    "FROM p JOIN sz USING (source, pack_id) "
    "JOIN pw ON pw.k = sz.n_real - 1 - p.pos "
    "GROUP BY 1, 2, 3) "
    "SELECT source, pack_id, CAST(n_real AS BIGINT) AS n_real, "
    f"{_int64_sql('m')} AS pack_hash FROM h"))
def zeek_packed_rows(sf_dir: str) -> "ray.data.Dataset":
    """Loader materialization (loader.pack_token_rows): the pack
    assignments become REAL (source, pack_id, input_ids[2048]) rows —
    each source's gap-free token stream cut every 2048 tokens, padding
    only in the final pack.  Gated by ``pack_hash``, the Horner
    mod-2^64 hash of each pack's real tokens (padding excluded), which
    the oracle rebuilds from scratch in SQL: window-function stream
    offsets → per-token global position → per-pack ordered list →
    HUGEINT list_reduce.  A hash match certifies every token landed in
    the right pack at the right slot."""
    from zeeklog_ray.loader import pack_token_rows

    corpus = corpus_for_sf_dir(sf_dir)
    ds = ray.data.read_parquet(
        corpus, columns=["doc_id", "tokens", "n_tok", "source", "date"])
    packed = pack_token_rows(ds, context_len=2048)

    def scalars(t):
        return t.select(["source", "pack_id", "n_real", "pack_hash"])

    return packed.map_batches(scalars, batch_format="pyarrow",
                              batch_size=None)


_CHUNK_W, _CHUNK_S = 256, 192


# same chunk-count contract as ops.packing.chunk_tokens, per-chunk Horner
# hash over the 1-based list_slice, HUGEINT mod 2^64 folded to signed int64
# like doc_fingerprints
@query(oracle=lambda sf_dir: (
    "WITH t AS (SELECT doc_id, tokens, n_tok FROM "
    f"{_corpus_sql(sf_dir)} WHERE n_tok > 0), "
    "c AS (SELECT doc_id, n_tok, tokens, unnest(range(0, "
    f"CASE WHEN n_tok <= {_CHUNK_W} THEN 1 ELSE "
    f"(n_tok - {_CHUNK_W} + {_CHUNK_S - 1}) // {_CHUNK_S} + 1 END"
    ")) AS k FROM t) "
    "SELECT doc_id, CAST(k AS BIGINT) AS chunk_id, "
    "CAST(n_chunk_tok AS BIGINT) AS n_chunk_tok, "
    f"{_int64_sql('m')} AS chunk_hash FROM ("
    f"SELECT doc_id, k, LEAST({_CHUNK_W}, n_tok - k * {_CHUNK_S}) "
    "AS n_chunk_tok, list_reduce(list_transform(list_slice(tokens, "
    f"k * {_CHUNK_S} + 1, k * {_CHUNK_S} + "
    f"LEAST({_CHUNK_W}, n_tok - k * {_CHUNK_S})), "
    "x -> x::HUGEINT), (acc, c) -> (acc * 1000003::HUGEINT + c) % "
    f"{_MOD64}) AS m FROM c)"))
def zeek_token_chunks(sf_dir: str) -> "ray.data.Dataset":
    """Overlapping token-window chunking over the tokenized corpus
    (window 256, stride 192) — the split-side complement of
    zeek_seq_packing.  Row-local, shuffle-free; per-chunk exact Horner
    hash pins content, not just lengths (ops/packing.py)."""
    from zeeklog_ray.ops.packing import chunk_tokens

    corpus = corpus_for_sf_dir(sf_dir)
    ds = ray.data.read_parquet(corpus, columns=["doc_id", "tokens"])
    return chunk_tokens(ds, window=_CHUNK_W, stride=_CHUNK_S)


@query(oracle=lambda sf_dir: (
    "SELECT token, CAST(COUNT(*) AS BIGINT) AS n FROM "
    f"(SELECT UNNEST(tokens) AS token FROM {_corpus_sql(sf_dir)}) "
    "GROUP BY token ORDER BY n DESC, token LIMIT 20"))
def zeek_token_vocab(sf_dir: str) -> "ray.data.Dataset":
    """Token-level vocabulary: top-20 token ids by total frequency across
    the corpus — the vocabulary-stats pass a training pipeline runs over
    pre-tokenized sequences.  Column-pruned read (tokens only), per-batch
    ``np.bincount`` over the flattened list column (one C pass), partial
    (token, n) rows → combiner-first grouped sum → tiny top-k."""
    corpus = corpus_for_sf_dir(sf_dir)
    ds = ray.data.read_parquet(corpus, columns=["tokens"])

    def counts(batch: pa.Table) -> pa.Table:
        toks = batch["tokens"]
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten().to_numpy(zero_copy_only=False)
        bc = np.bincount(flat) if len(flat) else np.zeros(1, np.int64)
        nz = np.flatnonzero(bc)
        return pa.table({"token": pa.array(nz.astype(np.int64)),
                         "n": pa.array(bc[nz].astype(np.int64))})

    partials = ds.map_batches(counts, batch_format="pyarrow", batch_size=None)
    summed = grouped_sum(partials, ["token"], sums={"n": "n"})
    return top_k(summed, by=["n", "token"], descending=[True, False], k=20)


# vocab ranked by (count DESC, token), dense 0-based ids; per-doc sum of
# remapped ids replays the np.take + reduceat pipeline.  LEFT JOIN from the
# docs table so an empty-token doc yields sum_tid=0 like the Ray side's
# reduceat guard (an inner join over UNNEST would drop the doc's row)
@query(oracle=lambda sf_dir: (
    "WITH v AS (SELECT token, ROW_NUMBER() OVER "
    "(ORDER BY COUNT(*) DESC, token) - 1 AS tid FROM "
    f"(SELECT UNNEST(tokens) AS token FROM {_corpus_sql(sf_dir)}) "
    "GROUP BY token), "
    "s AS (SELECT e.doc_id, SUM(v.tid) AS s FROM "
    f"(SELECT doc_id, UNNEST(tokens) AS token FROM {_corpus_sql(sf_dir)}) e "
    "JOIN v ON e.token = v.token GROUP BY e.doc_id) "
    "SELECT c.doc_id, CAST(COALESCE(s.s, 0) AS BIGINT) AS sum_tid "
    f"FROM {_corpus_sql(sf_dir)} c "
    "LEFT JOIN s ON c.doc_id = s.doc_id"))
def zeek_token_remap(sf_dir: str) -> "ray.data.Dataset":
    """Retokenization: build the frequency-ranked vocabulary (token → dense
    id, count DESC then token ASC), broadcast the lookup array, remap every
    sequence and emit per-doc checksums — the vocab-build → id-remap stage
    of a training pipeline.  Remap is one ``np.take`` per batch over the
    flattened list column; per-doc sums via ``np.add.reduceat`` (no
    per-row Python).  The vocab is tiny (byte-range tokens) so it rides
    ``ray.put``; at a real vocab size the lookup array is still MBs —
    broadcast, never a join."""
    import ray as _ray

    corpus = corpus_for_sf_dir(sf_dir)
    ds = ray.data.read_parquet(corpus, columns=["tokens"])

    def counts(batch: pa.Table) -> pa.Table:
        toks = batch["tokens"]
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten().to_numpy(zero_copy_only=False)
        bc = np.bincount(flat) if len(flat) else np.zeros(1, np.int64)
        nz = np.flatnonzero(bc)
        return pa.table({"token": pa.array(nz.astype(np.int64)),
                         "n": pa.array(bc[nz].astype(np.int64))})

    vocab = grouped_sum(ds.map_batches(counts, batch_format="pyarrow",
                                       batch_size=None),
                        ["token"], sums={"n": "n"}).to_pandas() \
        .sort_values(["n", "token"], ascending=[False, True]) \
        .reset_index(drop=True)
    lut = np.full(int(vocab["token"].max()) + 1, -1, dtype=np.int64)
    lut[vocab["token"].to_numpy()] = np.arange(len(vocab))
    lut_ref = _ray.put(lut)

    full = ray.data.read_parquet(corpus, columns=["doc_id", "tokens"])

    def remap(batch: pa.Table) -> pa.Table:
        from zeeklog_ray.arrowutil import list_values_offsets

        table = _ray.get(lut_ref)
        flat, offsets = list_values_offsets(batch["tokens"])
        ids = table[flat]
        starts = offsets[:-1]
        sums = np.zeros(len(batch), dtype=np.int64)
        nonempty = offsets[1:] > starts
        if nonempty.any():
            sums[nonempty] = np.add.reduceat(ids, starts[nonempty])
        return pa.table({"doc_id": batch["doc_id"],
                         "sum_tid": pa.array(sums)})

    return full.map_batches(remap, batch_format="pyarrow", batch_size=None)


def _geo_dict_values() -> str:
    """The direct-IP geo dict as ``(ip, country_code)`` VALUES rows."""
    return ", ".join(f"('{k}', '{v['geo_country_code']}')"
                     for k, v in sorted(build_geo_dict().items()))


def _geo_range_values() -> str:
    """The CIDR ranges as ``(lo, hi, country_code, asn)`` VALUES rows."""
    return ", ".join(
        f"({r.lo}, {r.hi}, '{r.geo_country_code}', '{r.geo_asn}')"
        for r in build_geo_ranges().itertuples())


@query(oracle=lambda sf_dir: _zeek_z(sf_dir) + (
    "SELECT DISTINCT p[3] AS id_orig_h, g.cc AS geo_country_code "
    f"FROM z JOIN (VALUES {_geo_dict_values()}) AS g(ip, cc) "
    f"ON p[3] = g.ip WHERE src IN {_CONN_SQL}"))
def zeek_geo_summary(sf_dir: str) -> "ray.data.Dataset":
    """Distinct origin address + geo enrichment columns — the reference's
    summary map with IP2Location fields (zeek_log.rs:33-38, 416-458)."""
    corpus = corpus_for_sf_dir(sf_dir)
    ds = build_dataset(PipelineConfig(corpus_dir=corpus, enrich=True))
    return distinct_column(ds, "geo_country_code", by=["id_orig_h"])


# the CIDR-range variant: BETWEEN join on the same dotted-quad → BIGINT
# arithmetic the Ray side vectorizes (enrich.ip_to_int)
@query(oracle=lambda sf_dir: _zeek_z(sf_dir) + (
    "SELECT DISTINCT p[3] AS id_orig_h, "
    "r.cc AS geo_country_code, r.asn AS geo_asn "
    f"FROM z JOIN (VALUES {_geo_range_values()}) AS r(lo, hi, cc, asn) "
    "ON (split_part(p[3], '.', 1)::BIGINT * 16777216 + "
    "split_part(p[3], '.', 2)::BIGINT * 65536 + "
    "split_part(p[3], '.', 3)::BIGINT * 256 + "
    "split_part(p[3], '.', 4)::BIGINT) BETWEEN r.lo AND r.hi "
    f"WHERE src IN {_CONN_SQL}"))
def zeek_geo_range_summary(sf_dir: str) -> "ray.data.Dataset":
    """CIDR-RANGE geo enrichment — the shape real IP2Location data has
    (interval tables, not exact-IP dicts): distinct conn-prefixed origin
    IPs resolved against a broadcast /24 range table via one
    ``np.searchsorted`` per batch (enrich.broadcast_range_lookup — a
    range join has no equi-key, so broadcasting the sorted interval
    table is the ONLY shuffle-free shape).  Inner summary (misses drop);
    the oracle replays with a VALUES BETWEEN join on the same integer
    arithmetic."""
    from zeeklog_ray.enrich import broadcast_range_lookup
    from zeeklog_ray.relational import bucketed_distinct

    corpus = corpus_for_sf_dir(sf_dir)
    ds = build_dataset(PipelineConfig(corpus_dir=corpus))
    conn = frozenset(CONN_PREFIXED)

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.loc[batch["sink"].isin(conn), ["id_orig_h"]]

    dist = bucketed_distinct(
        ds.map_batches(keep, batch_format="pandas", batch_size=None),
        ["id_orig_h"])
    hit = broadcast_range_lookup(dist, "id_orig_h", build_geo_ranges(),
                                 ["geo_country_code", "geo_asn"])
    return hit.map_batches(
        lambda b: b[b["geo_country_code"].notna()],
        batch_format="pandas", batch_size=None)


def _geo_lookup_oracle_sql() -> str:
    """The E3 direct-IP lookup as a VALUES join over the deterministic geo
    dict (same dict build_geo_dict() gives the Ray side)."""
    from zeeklog_ray.corpus import IP_POOL
    from zeeklog_ray.enrich import GEO_FIELDS

    geo = build_geo_dict()
    cols = ", ".join(["ip"] + GEO_FIELDS)
    values = ", ".join(
        "(" + ", ".join(f"'{v}'" for v in
                        [k] + [geo[k][f] for f in GEO_FIELDS]) + ")"
        for k in sorted(geo))
    probes = ", ".join(f"'{p}'" for p in sorted(geo)[:2] + [IP_POOL[3]])
    return (f"SELECT * FROM (VALUES {values}) AS g({cols}) "
            f"WHERE ip IN ({probes})")


@query(oracle=_geo_lookup_oracle_sql())
def geo_ip_lookup(sf_dir: str) -> pd.DataFrame:
    """Direct-IP lookup — the reference's E3 entry point (main.rs:250-268):
    given only IPs (no dates, no base dir), skip log scanning and query the
    enrichment source directly.  Probes two known IPs and one absent one; a
    hit renders the 12-field record, a miss renders nothing (empty report).
    CLI surface: ``--lookup-ip``."""
    from zeeklog_ray.corpus import IP_POOL
    from zeeklog_ray.enrich import GEO_FIELDS, lookup_ip

    geo = build_geo_dict()
    probes = sorted(geo)[:2] + [IP_POOL[3]]   # IP_POOL[3] is never in the dict
    rows = [dict(ip=ip, **rec) for ip in probes
            if (rec := lookup_ip(ip, geo)) is not None]
    return pd.DataFrame(rows, columns=["ip"] + GEO_FIELDS)


# --------------------------------------------------------------------------
# Relational / analytics queries over the driver testdata (oracle-checked)
# --------------------------------------------------------------------------


def _tsv_ingest_sql(sf_dir: str) -> str:
    """Re-read the same .log.gz files with read_csv: skip the 8 header
    lines, null-pad the #close footer, drop '#' rows.  HAVING drops
    zero-row sources: the Ray side (grouped_sum over rows actually present)
    emits no row for a source that drew 0 lines, so an unconditional
    (source, 0) row here would fail the rows gate."""
    tsv_dir = tsv_fixture_path(sf_dir)
    # hour bucket re-derived from the path: basename, then everything
    # between the first '.' and the trailing '.log.gz'
    hb = ("regexp_extract(regexp_extract(filename, '[^/]+$'), "
          "'^[^.]+\\.(.*)\\.log\\.gz$', 1)")
    return " UNION ALL ".join(
        f"SELECT '{s}' AS source, {hb} AS hour_bucket, COUNT(*) AS n FROM "
        f"read_csv('{tsv_dir}/*/{s}.*.log.gz', delim='\t', header=false, "
        "skip=8, all_varchar=true, null_padding=true, union_by_name=true, "
        "filename=true, names=['c0']) WHERE c0 NOT LIKE '#%' "
        "GROUP BY 2 HAVING COUNT(*) > 0"
        for s, _p in SOURCE_MIX)


@query(oracle=_tsv_ingest_sql)
def zeek_tsv_ingest(sf_dir: str) -> "ray.data.Dataset":
    """Real Zeek ``.log.gz`` TSV ingestion (zeektsv.read_zeek_logs): header
    sniff + per-file parse into the engine schema, aggregated to
    per-(source, filename hour bucket) counts — the partition identity of
    the reference's LogTree (zeek_log.rs:394-398).  The fixture tree
    carries exactly the corpus's lines; the oracle re-reads the same gzip
    files with DuckDB read_csv(filename=true) and re-derives the hour
    bucket from the path."""
    from zeeklog_ray.zeektsv import read_zeek_logs, tsv_fixture_for_sf_dir

    ds = read_zeek_logs(tsv_fixture_for_sf_dir(sf_dir))
    return grouped_sum(ds.select_columns(["source", "hour_bucket"]),
                       ["source", "hour_bucket"], count_as="n")


@query(oracle=(
    "SELECT source, COUNT(*) AS n, CAST(SUM(n_chars) AS BIGINT) AS sum_chars, "
    "MIN(n_chars) AS min_chars, MAX(n_chars) AS max_chars "
    "FROM documents GROUP BY source"))
def docs_by_source(sf_dir: str) -> "ray.data.Dataset":
    """Per-source document stats — the per-route aggregate shape (A3)."""
    ds = read_table(sf_dir, "documents", columns=["source", "n_chars"])
    from ray.data.aggregate import Count, Max, Min, Sum

    return ds.groupby("source").aggregate(
        Count(alias_name="n"), Sum("n_chars", alias_name="sum_chars"),
        Min("n_chars", alias_name="min_chars"), Max("n_chars", alias_name="max_chars"))


@query(oracle=(
    "SELECT lang, COUNT(*) AS n, CAST(SUM(n_chars) AS BIGINT) AS sum_chars "
    "FROM documents GROUP BY lang"))
def docs_lang_stats(sf_dir: str) -> "ray.data.Dataset":
    ds = read_table(sf_dir, "documents", columns=["lang", "n_chars"])
    return grouped_sum(ds, ["lang"], sums={"n_chars": "sum_chars"}, count_as="n")


@query(oracle=(
    "WITH w AS (SELECT doc_id, "
    "list_filter(string_split(text, ' '), x -> x <> '') AS ws "
    "FROM documents), "
    "s AS (SELECT doc_id, ws, UNNEST(range(0, len(ws), 24)) AS st "
    "FROM w WHERE len(ws) > 0) "
    "SELECT doc_id, st // 24 AS chunk_idx, "
    "array_to_string(ws[st+1:st+32], ' ') AS chunk_text, "
    "CAST(least(len(ws) - st, 32) AS BIGINT) AS n_words FROM s"))
def docs_passage_chunks(sf_dir: str) -> "ray.data.Dataset":
    """Overlapping passage chunking (ops/text.passage_chunks): 32-word
    windows at stride 24 — the RAG / context-window splitter.  Row-local,
    zero shuffle; the DuckDB oracle replays it with range() starts and
    1-based list slices, so window boundaries are hash-gated."""
    from zeeklog_ray.ops.text import passage_chunks

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return passage_chunks(docs, chunk_words=32, stride=24)


# normalization replayed verbatim: lower -> fold non-[a-z0-9] runs
# to one space -> trim; planted variants rebuilt in SQL
@query(oracle=(
    "WITH variants AS ("
    "SELECT doc_id, text FROM documents "
    "UNION ALL "
    "SELECT doc_id + 10000000, "
    "CASE WHEN doc_id % 3 = 0 THEN upper(text) "
    "WHEN doc_id % 3 = 1 THEN text || '  !!' "
    "ELSE text END FROM documents), "
    "norm AS (SELECT doc_id, "
    "trim(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g')) AS nt "
    "FROM variants) "
    "SELECT CAST(min(doc_id) AS BIGINT) AS doc_id, "
    "CAST(count(*) AS BIGINT) AS n_dups FROM norm GROUP BY nt"))
def docs_normalized_dedup(sf_dir: str) -> "ray.data.Dataset":
    """Normalization-canonicalized exact dedup
    (ops/dedup.normalized_exact_dedup): lowercase + non-alphanumeric
    folding + trim, then 128-bit digest first-wins.  The corpus is
    already canonical, so the query PLANTS obfuscated re-crawls — one
    variant per doc (uppercased / punctuation-wrapped / byte-identical
    by doc_id % 3, id + 10M) — and the dedup must fold every variant
    back onto its original.  Text never shuffles; one digest-bucketed
    groupby.  Oracle replays the variants and the exact normalization
    (trim(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g')))."""
    from zeeklog_ray.ops.dedup import normalized_exact_dedup

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def with_variants(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch.copy()
        m0 = (v["doc_id"] % 3 == 0).to_numpy()
        m1 = (v["doc_id"] % 3 == 1).to_numpy()
        t = v["text"].copy()
        t[m0] = t[m0].str.upper()
        t[m1] = t[m1] + "  !!"
        v["text"] = t
        v["doc_id"] = v["doc_id"] + 10_000_000
        return pd.concat([batch, v], ignore_index=True)

    variants = docs.map_batches(with_variants, batch_format="pandas",
                                batch_size=None)
    return normalized_exact_dedup(variants)


# the FULL simhash dedup chain replayed: signatures (the proven
# doc_simhash HUGEINT CTE) over the planted variants, 16-bit bands
# via HUGEINT division, band self-join, bit_count(xor) verify
@query(oracle=(
    "WITH variants AS ("
    "SELECT doc_id, text FROM documents "
    "UNION ALL "
    "SELECT doc_id + 10000000, text || ' zz qq' FROM documents "
    "WHERE doc_id % 5 = 0), "
    f"h AS (SELECT doc_id, {_byte_hashes_sql(5)} AS hs FROM variants), "
    "s AS (SELECT doc_id, COALESCE(list_sum(list_transform("
    "range(0, 64), "
    "b -> CASE WHEN 2*len(list_filter(hs, "
    "x -> ((x // (2::HUGEINT ** b)::HUGEINT) % 2) = 1)) > len(hs) "
    "THEN (2::HUGEINT ** b)::HUGEINT ELSE 0::HUGEINT END)), "
    "0::HUGEINT) AS m FROM h), "
    f"sb AS (SELECT doc_id, m, {_int64_sql('m')} AS sh FROM s), "
    "bands AS (SELECT doc_id, sh, b, "
    "(m // (65536::HUGEINT ** b)::HUGEINT) % 65536::HUGEINT AS bv "
    "FROM sb, range(0, 4) t(b)), "
    "cand AS (SELECT DISTINCT a.doc_id AS doc_a, c.doc_id AS doc_b, "
    "a.sh AS sa, c.sh AS sc FROM bands a JOIN bands c "
    "ON a.b = c.b AND a.bv = c.bv AND a.doc_id < c.doc_id) "
    "SELECT doc_a, doc_b, "
    "CAST(bit_count(xor(sa, sc)) AS BIGINT) AS hamming "
    "FROM cand WHERE bit_count(xor(sa, sc)) <= 3"))
def docs_simhash_dups(sf_dir: str) -> "ray.data.Dataset":
    """SimHash near-dup pairs (ops/dedup.simhash_near_dup_pairs):
    Hamming-ball blocking by the pigeonhole band split (4×16-bit bands
    for radius 3 — at least one band matches exactly, recall 1.0 at the
    signature level), exact popcount verify on the band join output.
    The corpus is distinct, so the query PLANTS one '+2 words' variant
    per doc_id % 5 == 0 (id + 10M) — near-identical shingle sets whose
    signatures land within the radius.  Only 17 B/doc band rows shuffle.
    Oracle replays the ENTIRE chain in SQL: the doc_simhash HUGEINT
    signature CTE over the variants, band extraction by HUGEINT
    division, the self-join, and bit_count(xor) — hash-green, no
    approximation gap."""
    from zeeklog_ray.ops.dedup import simhash_near_dup_pairs

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def with_variants(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch[batch["doc_id"] % 5 == 0].copy()
        v["text"] = v["text"] + " zz qq"
        v["doc_id"] = v["doc_id"] + 10_000_000
        return pd.concat([batch, v], ignore_index=True)

    variants = docs.map_batches(with_variants, batch_format="pandas",
                                batch_size=None)
    return simhash_near_dup_pairs(variants, max_hamming=3)


# integer TF-IDF retrieval: idf = (N*10000)//df, whitespace tokens,
# top-20 by (score desc, doc_id asc) — the same tie-break as the op
@query(oracle=(
    "WITH w AS (SELECT doc_id, unnest(LIST_FILTER("
    "STRING_SPLIT_REGEX(text, '\\s+'), x -> x <> '')) AS term "
    "FROM documents), "
    "tf AS (SELECT doc_id, term, COUNT(*) AS tf FROM w "
    "WHERE term IN ('spark', 'join', 'vector') GROUP BY 1, 2), "
    "df AS (SELECT term, COUNT(*) AS df FROM tf GROUP BY 1), "
    "n AS (SELECT COUNT(*) AS nd FROM documents) "
    "SELECT CAST(tf.doc_id AS BIGINT) AS doc_id, "
    "CAST(SUM(tf.tf * ((n.nd * 10000) // df.df)) AS BIGINT) AS score "
    "FROM tf JOIN df USING (term) CROSS JOIN n "
    "GROUP BY tf.doc_id ORDER BY score DESC, doc_id LIMIT 20"))
def docs_keyword_search(sf_dir: str) -> "ray.data.Dataset":
    """Distributed keyword retrieval (ops/retrieval.keyword_search):
    integer TF-IDF top-20 for a fixed 3-term query.  Shuffle volume is
    O(matching postings); tf rows complete inside their batch; df and
    the final k·n_blocks top-k partials fold on the driver.  Scores are
    integer-exact (idf = (N·10000) // df), so the SQL replay is
    hash-green, ordering gated by the (score desc, doc_id asc)
    tie-break."""
    from zeeklog_ray.ops.retrieval import keyword_search

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return keyword_search(docs, ["spark", "join", "vector"], k=20)


@query(oracle=count_min_oracle_sql("events", "user_id", width=1024, depth=4,
                                   k=10))
def event_user_cm_counts(sf_dir: str) -> "ray.data.Dataset":
    """Count-Min sketch frequency estimation
    (ops/sketch.count_min_build/estimate): depth-4 × width-1024 counters
    built in ONE corpus pass with zero shuffle (dense per-block partials
    sum on the driver — fixed 32 KB per block regardless of corpus
    size), then the exact top-10 users by event count are estimated
    from the sketch.  Width 1024 is deliberately small so hash
    collisions make n_cm a visible OVERcount of n_exact (never under) —
    both replayed bit-exactly in SQL because the bucket hash is the
    engine-wide splitmix64 (ops/sketch.count_min_oracle_sql)."""
    from zeeklog_ray.ops.sketch import count_min_build, count_min_estimate
    from zeeklog_ray.relational import grouped_sum_bucketed

    ev = read_table(sf_dir, "events", columns=["user_id"])
    cm = count_min_build(ev, "user_id", width=1024, depth=4)

    counts = grouped_sum_bucketed(ev, ["user_id"], count_as="n_exact")

    def topk_partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(["n_exact", "user_id"],
                                 ascending=[False, True]).head(10)

    top = counts.map_batches(topk_partial, batch_format="pandas",
                             batch_size=None).to_pandas() \
        .sort_values(["n_exact", "user_id"],
                     ascending=[False, True]).head(10) \
        .reset_index(drop=True)
    top["n_cm"] = count_min_estimate(cm, top["user_id"].to_numpy())
    return ray.data.from_pandas(top.astype({"user_id": "int64",
                                            "n_exact": "int64",
                                            "n_cm": "int64"}))


# BM25 with exact-rational k1=6/5, b=3/4: dl per doc, avgdl floored,
# the scaled-integer saturation division replayed verbatim
@query(oracle=(
    "WITH w AS (SELECT doc_id, "
    "LIST_FILTER(STRING_SPLIT_REGEX(text, '\\s+'), x -> x <> '') "
    "AS words FROM documents), "
    "dl AS (SELECT doc_id, len(words) AS dl FROM w), "
    "stats AS (SELECT COUNT(*) AS nd, SUM(dl) // COUNT(*) AS avgdl "
    "FROM dl), "
    "u AS (SELECT doc_id, unnest(words) AS term FROM w), "
    "tf AS (SELECT doc_id, term, COUNT(*) AS tf FROM u "
    "WHERE term IN ('spark', 'join', 'vector') GROUP BY 1, 2), "
    "df AS (SELECT term, COUNT(*) AS df FROM tf GROUP BY 1) "
    "SELECT CAST(tf.doc_id AS BIGINT) AS doc_id, "
    "CAST(SUM(((s.nd * 10000) // df.df) * "
    "((10000 * 44 * GREATEST(s.avgdl, 1) * tf.tf) // "
    "(20 * GREATEST(s.avgdl, 1) * tf.tf + 6 * GREATEST(s.avgdl, 1) "
    "+ 18 * dl.dl))) AS BIGINT) AS score "
    "FROM tf JOIN df USING (term) JOIN dl ON tf.doc_id = dl.doc_id "
    "CROSS JOIN stats s "
    "GROUP BY tf.doc_id ORDER BY score DESC, doc_id LIMIT 20"))
def docs_bm25_search(sf_dir: str) -> "ray.data.Dataset":
    """BM25 retrieval (ops/retrieval.keyword_search(bm25=True)): the
    dl/avgdl-normalized saturation form with k1 = 6/5 and b = 3/4 as
    exact rationals — tf_norm_e4 = (10000·44·avgdl·tf) //
    (20·avgdl·tf + 6·avgdl + 18·dl), score = Σ idf·tf_norm_e4, every
    quantity integer.  Same one-pass match shape as docs_keyword_search;
    the oracle replays dl, avgdl (floored), idf and the scaled division
    verbatim, gating both the ranking AND the exact scores."""
    from zeeklog_ray.ops.retrieval import keyword_search

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return keyword_search(docs, ["spark", "join", "vector"], k=20,
                          bm25=True)


@query(rows_only="prediction is an argmax over float log-likelihoods; pytest "
                 "parity with a pure-Python reference")
def docs_nb_source_clf(sf_dir: str) -> "ray.data.Dataset":
    """Distributed hashed-feature Naive Bayes (ops/classify.py): train a
    source classifier on alternating doc_id blocks (block = doc_id//20,
    so every source appears on BOTH sides — source cycles with doc_id),
    predict the other half, return the confusion counts (source, pred,
    n).  Rows-only gated: prediction is an argmax over float
    log-likelihoods (pytest parity vs the pure-Python reference +
    exact-integer count invariance in tests/test_ops_classify.py); on
    this synthetic corpus the vocabulary carries no label signal, so the
    matrix shows the near-uniform chance pattern — the separable-data
    accuracy bar lives in the pytest."""
    from zeeklog_ray.ops.classify import nb_predict, train_nb

    docs = read_table(sf_dir, "documents",
                      columns=["doc_id", "text", "source"])

    def even(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[(batch["doc_id"] // 20) % 2 == 0]

    def odd(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[(batch["doc_id"] // 20) % 2 == 1]

    train = docs.map_batches(even, batch_format="pandas", batch_size=None)
    test = docs.map_batches(odd, batch_format="pandas", batch_size=None)
    model = train_nb(train, label_col="source", n_features=1 << 16)
    pred = nb_predict(test, model)
    return grouped_sum(pred, ["source", "pred"], count_as="n")


@query(oracle=(
    "SELECT event_type, strftime(date_trunc('hour', ts), '%Y-%m-%d %H:00:00')"
    " AS hour, COUNT(*) AS n, "
    "CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT) AS sum_value_cents "
    "FROM events GROUP BY 1, 2"))
def events_hourly(sf_dir: str) -> "ray.data.Dataset":
    """Tumbling 1-hour window per event type (streaming-shaped workload
    mapped to groupby — SURVEY.md §2.9: pre-materialized tumbling windows)."""
    import pyarrow.compute as pc

    ds = read_table(sf_dir, "events", columns=["event_type", "ts", "value"])

    from zeeklog_ray.relational import arrow_round_away

    def prep(batch: pa.Table) -> pa.Table:
        # pure-Arrow prep (zero-copy from the object store): truncate to the
        # hour + half-away-from-zero cents, no pandas conversion per batch
        hour = pc.strftime(pc.floor_temporal(batch["ts"], unit="hour"),
                           format="%Y-%m-%d %H:00:00")
        cents = arrow_round_away(pc.multiply(batch["value"], 100.0))
        return pa.table({"event_type": batch["event_type"], "hour": hour,
                         "value_cents": cents})

    prepped = ds.map_batches(prep, batch_format="pyarrow", batch_size=None)
    return grouped_sum(prepped, ["event_type", "hour"],
                       sums={"value_cents": "sum_value_cents"}, count_as="n")


@query(oracle=(
    "SELECT CAST(COUNT(*) AS BIGINT) AS n_orders, "
    "CAST(SUM(CASE WHEN c_custkey IS NULL THEN 1 ELSE 0 END) "
    "AS BIGINT) AS n_violations "
    "FROM orders LEFT JOIN customer ON o_custkey = c_custkey"))
def orders_fk_violations(sf_dir: str) -> pd.DataFrame:
    """Referential-integrity audit — the data-validation stage a pipeline
    runs before training joins: orders whose o_custkey has no customer
    row.  Broadcast key-set anti-semantics (the dimension's key set ships
    once via ray.put; the fact side never shuffles); returns total vs
    violating counts."""
    cust = read_table(sf_dir, "customer", columns=["c_custkey"])
    keys = set(cust.to_pandas()["c_custkey"])
    import ray as _ray

    keys_ref = _ray.put(keys)
    orders = read_table(sf_dir, "orders", columns=["o_custkey"])

    def count_bad(batch: pd.DataFrame) -> pd.DataFrame:
        ks = _ray.get(keys_ref)
        bad = (~batch["o_custkey"].isin(ks)).sum()
        return pd.DataFrame({"_n": [len(batch)], "_bad": [int(bad)]})

    parts = orders.map_batches(count_bad, batch_format="pandas",
                               batch_size=None).to_pandas()
    return pd.DataFrame({"n_orders": [int(parts["_n"].sum())],
                         "n_violations": [int(parts["_bad"].sum())]})


@query(oracle=(
    "SELECT 'event_id' AS \"column\", CAST(COUNT(*) AS BIGINT) "
    "AS n_rows, CAST(COUNT(*) - COUNT(event_id) AS BIGINT) AS n_nulls, "
    "CAST(MIN(event_id) AS BIGINT) AS min_i, "
    "CAST(MAX(event_id) AS BIGINT) AS max_i FROM events "
    "UNION ALL SELECT 'ts', CAST(COUNT(*) AS BIGINT), "
    "CAST(COUNT(*) - COUNT(ts) AS BIGINT), "
    "CAST(epoch_us(MIN(ts)) AS BIGINT), "
    "CAST(epoch_us(MAX(ts)) AS BIGINT) FROM events "
    "UNION ALL SELECT 'user_id', CAST(COUNT(*) AS BIGINT), "
    "CAST(COUNT(*) - COUNT(user_id) AS BIGINT), "
    "CAST(MIN(user_id) AS BIGINT), CAST(MAX(user_id) AS BIGINT) "
    "FROM events "
    "UNION ALL SELECT 'value', CAST(COUNT(*) AS BIGINT), "
    "CAST(COUNT(*) - COUNT(value) AS BIGINT), "
    "CAST(ROUND(MIN(value) * 100) AS BIGINT), "
    "CAST(ROUND(MAX(value) * 100) AS BIGINT) FROM events"))
def events_column_profile(sf_dir: str) -> pd.DataFrame:
    """Column-profile / data-quality report over the events table's
    numeric + timestamp columns: per column, row count, null count, and
    min/max in exact integers (cents for money, epoch-µs for timestamps)
    — all algebraic, one combiner-first pass, |columns| rows out.
    (ROUND is monotone, so min(round(v·100)) == round(min(v)·100) and the
    per-batch extreme-of-cents merges exactly.)"""
    cols = ("event_id", "user_id", "value", "ts")
    ev = read_table(sf_dir, "events", columns=list(cols))

    def profile(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for c in cols:
            col = batch[c]
            nn = col.dropna()
            if not len(nn):
                lo = hi = None
            elif c == "value":
                lo = int(_round_half_away(nn.min() * 100))
                hi = int(_round_half_away(nn.max() * 100))
            elif c == "ts":
                lo = int(nn.min().value // 1000)   # ns → µs
                hi = int(nn.max().value // 1000)
            else:
                lo, hi = int(nn.min()), int(nn.max())
            rows.append((c, len(col), int(col.isna().sum()), lo, hi))
        return pd.DataFrame(rows, columns=["column", "_n", "_nulls",
                                           "_lo", "_hi"])

    parts = ev.map_batches(profile, batch_format="pandas",
                           batch_size=None).to_pandas()
    g = parts.groupby("column", sort=False)
    out = pd.DataFrame({
        "column": g.size().index,
        "n_rows": g["_n"].sum().to_numpy().astype("int64"),
        "n_nulls": g["_nulls"].sum().to_numpy().astype("int64"),
        # nullable Int64: an entirely-null column must report a MISSING
        # extreme (a bare int64 cast would mint INT64_MIN garbage);
        # epoch-µs values (~1.7e15) are exact through the float64 partials
        "min_i": pd.Series(g["_lo"].min().to_numpy()).round().astype("Int64"),
        "max_i": pd.Series(g["_hi"].max().to_numpy()).round().astype("Int64"),
    })
    return out.sort_values("column").reset_index(drop=True)


@query(oracle=(
    "SELECT "
    "CAST(SUM(CASE WHEN doc_id % 10 = 1 THEN 1 ELSE 0 END) AS BIGINT) "
    "AS added, "
    "CAST(SUM(CASE WHEN doc_id % 10 = 0 THEN 1 ELSE 0 END) AS BIGINT) "
    "AS removed, "
    "CAST(SUM(CASE WHEN doc_id % 10 <> 0 AND doc_id % 7 = 0 "
    "THEN 1 ELSE 0 END) AS BIGINT) AS changed, "
    "CAST(SUM(CASE WHEN doc_id % 10 <> 0 AND doc_id % 7 <> 0 "
    "THEN 1 ELSE 0 END) AS BIGINT) AS unchanged FROM documents"))
def docs_snapshot_diff(sf_dir: str) -> pd.DataFrame:
    """CDC-shaped snapshot diff: documents vs a deterministically mutated
    second snapshot (doc_id % 10 == 0 deleted, % 10 == 1 added with a new
    id, % 7 == 0 content changed) — counts added / removed / changed /
    unchanged.  Shape: ONE corpus scan emits both sides' tagged
    (key, content-digest) rows — only scalars shuffle — then one bucketed
    per-key compare."""
    from zeeklog_ray.ops.dedup import content_digest128

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def digests(frame: pd.DataFrame, side: int) -> pd.DataFrame:
        h1, h2 = content_digest128(frame["text"])
        return pd.DataFrame({"doc_id": frame["doc_id"].to_numpy(),
                             "_h1": h1, "_h2": h2, "_side": np.int64(side)})

    def tag_both(batch: pd.DataFrame) -> pd.DataFrame:
        # snapshot B synthesized row-locally from the same batch — one
        # read of the corpus feeds both diff sides
        b = batch[batch["doc_id"] % 10 != 0].copy()       # deletions
        changed = b["doc_id"] % 7 == 0
        b.loc[changed, "text"] = b.loc[changed, "text"] + " [v2]"
        adds = batch[batch["doc_id"] % 10 == 1].copy()
        # additions live in a DISJOINT (negative) id space — an offset
        # scheme would collide with real ids once the corpus outgrows it
        adds["doc_id"] = -(adds["doc_id"] + 1)
        b = pd.concat([b, adds], ignore_index=True)
        return pd.concat([digests(batch, 0), digests(b, 1)],
                         ignore_index=True)

    union = docs.map_batches(tag_both, batch_format="pandas",
                             batch_size=None)

    def per_bucket(group: pa.Table) -> pd.DataFrame:
        group = to_pandas(group)
        p = group.pivot_table(index="doc_id", columns="_side",
                              values="_h1", aggfunc="first") \
            .reindex(columns=[0, 1])
        p2 = group.pivot_table(index="doc_id", columns="_side",
                               values="_h2", aggfunc="first") \
            .reindex(columns=[0, 1])
        in_a, in_b = p[0].notna(), p[1].notna()
        same = (p[0] == p[1]) & (p2[0] == p2[1])
        return pd.DataFrame({
            "added": [int((~in_a & in_b).sum())],
            "removed": [int((in_a & ~in_b).sum())],
            "changed": [int((in_a & in_b & ~same).sum())],
            "unchanged": [int((in_a & in_b & same).sum())]})

    parts = bucket_exchange(union, "doc_id", per_bucket).to_pandas()
    return pd.DataFrame({c: [int(parts[c].sum())]
                         for c in ("added", "removed", "changed",
                                   "unchanged")})


@query(oracle=(
    "WITH base AS (SELECT * FROM documents WHERE doc_id % 10 < 7), "
    "newd AS ("
    "SELECT doc_id, text, source, n_chars FROM documents "
    "WHERE doc_id % 10 >= 7 "
    "UNION ALL "
    "SELECT doc_id + 10000000 AS doc_id, text, source, n_chars "
    "FROM base WHERE doc_id % 7 = 0) "
    "SELECT doc_id, source, n_chars FROM newd "
    "WHERE NOT EXISTS (SELECT 1 FROM base b WHERE b.text = newd.text)"))
def docs_incremental_dedup(sf_dir: str) -> "ray.data.Dataset":
    """Incremental snapshot-vs-base exact dedup
    (ops/dedup.incremental_dedup): the daily-crawl shape — the base
    corpus is docs with ``doc_id % 10 < 7``; the "new crawl" is the
    remaining docs PLUS a deterministic re-crawl of every base doc with
    ``doc_id % 7 == 0`` (same text, new id offset by 10_000_000) — the
    planted cross-snapshot dups the filter must drop.  Bloom screen
    decides definite-new rows with zero exchange; the 128-bit semi-join
    verify removes the bloom's false positives, so the gate is exact."""
    from zeeklog_ray.ops.dedup import incremental_dedup

    docs = read_table(sf_dir, "documents",
                      columns=["doc_id", "text", "source", "n_chars"])

    def base_rows(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[batch["doc_id"] % 10 < 7]

    def new_rows(batch: pd.DataFrame) -> pd.DataFrame:
        fresh = batch[batch["doc_id"] % 10 >= 7]
        recrawl = batch[(batch["doc_id"] % 10 < 7)
                        & (batch["doc_id"] % 7 == 0)].copy()
        recrawl["doc_id"] = recrawl["doc_id"] + 10_000_000
        return pd.concat([fresh, recrawl], ignore_index=True)

    base = docs.map_batches(base_rows, batch_format="pandas",
                            batch_size=None)
    new = docs.map_batches(new_rows, batch_format="pandas",
                           batch_size=None)
    kept = incremental_dedup(new, base, n_bits=1 << 20)
    return kept.select_columns(["doc_id", "source", "n_chars"])


_JACCARD_THRESHOLD_E4 = 5000


def _mh_banded_cte(rel: str, tag: str, num_perm: int = 16, bands: int = 4,
                   k: int = 5) -> str:
    """Per-relation MinHash banding CTEs (``h{tag}``, ``sig{tag}``,
    ``banded{tag}(doc_id, bb)``) over ``rel(doc_id, text)`` — the shared
    SQL replay of ops.dedup._banded_rows used by both the self-join
    (_minhash_pairs_cte) and the cross-snapshot
    (docs_incremental_near_dup) oracles.  Same k-byte rolling shingle
    hashes (Horner base-1000003 mod 2^64), same (a·x+b) mod 2^64
    permutations (constants from _minhash_params embedded as literals),
    same per-band Horner fold XOR band constant; HUGEINT carries the
    mod-2^64 arithmetic and bb folds to two's-complement BIGINT exactly
    like the numpy int64 view.  ASCII corpus ⇒ ord == utf-8 byte."""
    from zeeklog_ray.ops.dedup import _minhash_params

    rpb = num_perm // bands
    a, b = _minhash_params(num_perm)
    m = 1 << 64
    maxu = m - 1

    def fold(v: int) -> int:                  # uint64 → signed int64 literal
        return v - m if v >= (1 << 63) else v

    sig_terms = ", ".join(
        f"COALESCE(list_min(list_transform(hs, x -> (x*{int(a[j])}::HUGEINT"
        f" + {int(b[j])}::HUGEINT) % {_MOD64})), {maxu}::HUGEINT)"
        for j in range(num_perm))
    band_selects = []
    for bi in range(bands):
        elems = ", ".join(f"mh[{bi * rpb + c + 1}]" for c in range(rpb))
        const = fold((bi * 0x9E3779B97F4A7C15) % m)
        band_selects.append(
            f"SELECT doc_id, xor({_int64_sql('h')}, CAST({const} AS BIGINT)) "
            f"AS bb FROM (SELECT doc_id, {_horner_sql(f'[{elems}]')} AS h "
            f"FROM sig{tag})")
    banded = " UNION ALL ".join(band_selects)
    return (
        f"h{tag} AS (SELECT doc_id, {_byte_hashes_sql(k)} AS hs "
        f"FROM {rel}), "
        f"sig{tag} AS (SELECT doc_id, [{sig_terms}] AS mh FROM h{tag}), "
        f"banded{tag} AS ({banded})")


def _incr_near_dup_oracle_sql(threshold_e4: int, num_perm: int = 16,
                              bands: int = 4, k: int = 5,
                              max_bucket: int = 512) -> str:
    """Bit-exact SQL replay of docs_incremental_near_dup: the base/new
    snapshot CTEs (same modulus rules and ' rev2 rev2' edit as the Ray
    side), per-snapshot MinHash banding via :func:`_mh_banded_cte`, the
    over-cap guard as the UNION of both sides' oversized buckets, the
    new×base cross join (distinct pairs), and the exact integer byte-
    k-gram Jaccard verify with the same fixed-point filter
    ``10000·inter >= t_e4·union`` / ``j_e4 = (10000·inter) // union``."""
    return (
        "WITH based AS (SELECT doc_id, text FROM documents "
        "WHERE doc_id % 10 < 7), "
        "newd AS (SELECT doc_id, text FROM documents "
        "WHERE doc_id % 10 >= 7 "
        "UNION ALL SELECT doc_id + 10000000, text || ' rev2 rev2' "
        "FROM based WHERE doc_id % 13 = 0), "
        + _mh_banded_cte("based", "B", num_perm, bands, k) + ", "
        + _mh_banded_cte("newd", "N", num_perm, bands, k) + ", "
        "big AS (SELECT bb FROM bandedB GROUP BY bb HAVING COUNT(*) > "
        f"{max_bucket} UNION SELECT bb FROM bandedN GROUP BY bb "
        f"HAVING COUNT(*) > {max_bucket}), "
        "cand AS MATERIALIZED (SELECT DISTINCT n.doc_id AS doc_id, "
        "b.doc_id AS base_id FROM bandedN n JOIN bandedB b "
        "ON n.bb = b.bb WHERE n.bb NOT IN (SELECT bb FROM big)), "
        "cdn AS (SELECT DISTINCT doc_id FROM cand), "
        "cdb AS (SELECT DISTINCT base_id AS doc_id FROM cand), "
        f"gn AS (SELECT DISTINCT d.doc_id, substring(d.text, s.i, {k}) "
        "AS gram FROM newd d JOIN cdn USING (doc_id), "
        f"LATERAL (SELECT unnest(range(1, length(d.text) - {k - 2})) AS i) "
        f"s WHERE length(d.text) >= {k}), "
        f"gb AS (SELECT DISTINCT d.doc_id, substring(d.text, s.i, {k}) "
        "AS gram FROM based d JOIN cdb USING (doc_id), "
        f"LATERAL (SELECT unnest(range(1, length(d.text) - {k - 2})) AS i) "
        f"s WHERE length(d.text) >= {k}), "
        "sn AS (SELECT doc_id, count(*) AS n FROM gn GROUP BY doc_id), "
        "sb AS (SELECT doc_id, count(*) AS n FROM gb GROUP BY doc_id), "
        "it AS (SELECT c.doc_id, c.base_id, count(*) AS inter "
        "FROM cand c JOIN gn ga ON ga.doc_id = c.doc_id "
        "JOIN gb gx ON gx.doc_id = c.base_id AND gx.gram = ga.gram "
        "GROUP BY 1, 2) "
        "SELECT it.doc_id, it.base_id, CAST((10000 * inter) // "
        "(sn.n + sb.n - inter) AS BIGINT) AS j_e4 "
        "FROM it JOIN sn ON sn.doc_id = it.doc_id "
        "JOIN sb ON sb.doc_id = it.base_id "
        f"WHERE 10000 * inter >= {threshold_e4} * (sn.n + sb.n - inter)")


@query(oracle=_incr_near_dup_oracle_sql(_JACCARD_THRESHOLD_E4))
def docs_incremental_near_dup(sf_dir: str) -> "ray.data.Dataset":
    """Cross-snapshot NEAR-dup detection (ops/dedup.incremental_near_dup):
    base corpus is docs with ``doc_id % 10 < 7``; the "new crawl" is the
    remaining docs PLUS a deterministic EDITED re-crawl of every base doc
    with ``doc_id % 13 == 0`` (text + " rev2 rev2", id offset 10_000_000)
    — near-dups the exact digest tier cannot see.  LSH at the
    oracle-feasible 16-perm × 4-band configuration joins new-side band
    rows against base-side band rows (never new-vs-new), then exact
    byte-5-gram Jaccard (J >= 0.5) verifies each candidate; the whole
    composition — banding, cross join, over-cap guard, integer Jaccard —
    is bit-replayed in SQL."""
    from zeeklog_ray.ops.dedup import incremental_near_dup

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def base_rows(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[batch["doc_id"] % 10 < 7]

    def new_rows(batch: pd.DataFrame) -> pd.DataFrame:
        fresh = batch[batch["doc_id"] % 10 >= 7]
        recrawl = batch[(batch["doc_id"] % 10 < 7)
                        & (batch["doc_id"] % 13 == 0)].copy()
        recrawl["text"] = recrawl["text"] + " rev2 rev2"
        recrawl["doc_id"] = recrawl["doc_id"] + 10_000_000
        return pd.concat([fresh, recrawl], ignore_index=True)

    base = docs.map_batches(base_rows, batch_format="pandas",
                            batch_size=None)
    new = docs.map_batches(new_rows, batch_format="pandas",
                           batch_size=None)
    return incremental_near_dup(new, base, num_perm=16, bands=4,
                                threshold_e4=_JACCARD_THRESHOLD_E4)


@query(oracle=(
    "SELECT strftime(ts, '%Y-%m-%d') AS day, "
    "CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT) "
    "AS sum_cents, CAST(COUNT(*) AS BIGINT) AS n "
    "FROM events WHERE event_type = 'click' GROUP BY day"))
def events_partitioned_prune(sf_dir: str) -> "ray.data.Dataset":
    """Hive-partitioned export + partition-pruned read-back
    (zeeklog_ray.partitioned): events written as ``event_type=<v>/``
    directories, then ONLY the ``click`` partition's directory is
    scanned (path-level pruning — no listing, no bytes from the other
    partitions) and aggregated per day.  The oracle filters the ORIGINAL
    table, so a row leaking across partitions fails the hash."""
    from zeeklog_ray.partitioned import read_partition, write_partitioned

    root = _scratch_dir("part", sf_dir)
    ev = read_table(sf_dir, "events",
                    columns=["event_type", "ts", "value"])
    write_partitioned(ev, root, ["event_type"])

    clicks = read_partition(root, "event_type", "click")

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "day": batch["ts"].dt.strftime("%Y-%m-%d"),
            "cents": _round_half_away(batch["value"] * 100)})

    prepped = clicks.map_batches(prep, batch_format="pandas",
                                 batch_size=None)
    return grouped_sum(prepped, ["day"], sums={"cents": "sum_cents"},
                       count_as="n")


_HOP_STEP_S = 900          # 15-min hop
_HOP_WINDOW_S = 3600       # 1-h window → each event lands in 4 hops


@query(oracle=(
    "SELECT event_type, "
    "(CAST(FLOOR(epoch(ts)) AS BIGINT) // 900 - t.i) * 900 "
    "AS window_start, CAST(COUNT(*) AS BIGINT) AS n "
    "FROM events CROSS JOIN (SELECT UNNEST(range(4)) AS i) t "
    "GROUP BY event_type, window_start"))
def events_hopping_windows(sf_dir: str) -> "ray.data.Dataset":
    """HOPPING (overlapping) 1-hour windows advancing every 15 min, per
    event type: each event belongs to window_s/step_s = 4 hops, expanded
    ROW-LOCALLY (one vectorized ``np.repeat`` per batch — the streaming
    hopping-window semantics mapped to batch, complementing the tumbling
    `events_hourly`), then the combiner-first grouped count.  Only
    aggregated (type, window) cells shuffle — ×4 row expansion never
    crosses the wire."""
    k = _HOP_WINDOW_S // _HOP_STEP_S
    ds = read_table(sf_dir, "events", columns=["event_type", "ts"])

    def expand(batch: pd.DataFrame) -> pd.DataFrame:
        # explicit µs unit: a ns-backed ts column would make a bare
        # astype('int64') yield nanoseconds and 0.9-second "hops"
        epoch = batch["ts"].to_numpy("datetime64[us]").astype("int64") \
            // 1_000_000
        last_hop = epoch // _HOP_STEP_S  # newest window containing the event
        idx = np.repeat(np.arange(len(batch)), k)
        starts = (np.repeat(last_hop, k) -
                  np.tile(np.arange(k, dtype=np.int64), len(batch))) \
            * _HOP_STEP_S
        return pd.DataFrame({
            "event_type": batch["event_type"].to_numpy()[idx],
            "window_start": starts})

    expanded = ds.map_batches(expand, batch_format="pandas", batch_size=None)
    return grouped_sum(expanded, ["event_type", "window_start"],
                       count_as="n")


@query(oracle=(
    "WITH s AS (SELECT event_type, "
    "SUM(CAST(ROUND(value * 100) AS BIGINT)) AS tc "
    "FROM events GROUP BY event_type), "
    "g AS (SELECT SUM(tc) AS grand FROM s) "
    "SELECT event_type, CAST(tc AS BIGINT) AS type_cents, "
    "CAST(tc * 1000000 // grand AS BIGINT) AS share_e6 FROM s, g"))
def event_type_share(sf_dir: str) -> pd.DataFrame:
    """Percent-of-total in exact fixed point: each event type's share of
    the global cent sum as ``share_e6 = type_cents * 10^6 // grand_cents``
    — the two-pass broadcast-scalar pattern (one distributed aggregate,
    the grand total re-derived from the same report-shaped result, zero
    extra scans), hash-comparable where a float ratio could drift."""
    ev = read_table(sf_dir, "events", columns=["event_type", "value"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_type": batch["event_type"],
                             "cents": _round_half_away(batch["value"] * 100)})

    per_type = grouped_sum(
        ev.map_batches(prep, batch_format="pandas", batch_size=None),
        ["event_type"], sums={"cents": "type_cents"}).to_pandas()
    grand = int(per_type["type_cents"].sum())
    # TRUNCATING division (toward zero) to match SQL's `//`: Python's //
    # floors, which differs by 1 for a negative numerator (net-refund
    # event types are legal input even though this corpus has none)
    def trunc_div(tc: int) -> int:
        q = tc * 10**6 // grand
        if q < 0 and (tc * 10**6) % grand != 0:
            q += 1
        return q

    out = per_type[["event_type", "type_cents"]].copy()
    out["share_e6"] = np.array(
        [trunc_div(int(t)) for t in per_type["type_cents"]], dtype="int64")
    return out.reset_index(drop=True)


@query(oracle=(
    "WITH u AS (SELECT user_id, "
    "MIN(CASE WHEN event_type = 'click' THEN ts END) AS first_click, "
    "MAX(CASE WHEN event_type = 'purchase' THEN ts END) AS last_purch "
    "FROM events GROUP BY user_id) "
    "SELECT CAST(COUNT(first_click) AS BIGINT) AS n_users_clicked, "
    "CAST(COUNT(last_purch) AS BIGINT) AS n_users_purchased, "
    "CAST(COALESCE(SUM(CASE WHEN first_click < last_purch "
    "THEN 1 ELSE 0 END), 0) AS BIGINT) AS n_converted FROM u"))
def user_funnel_counts(sf_dir: str) -> pd.DataFrame:
    """Two-step funnel: users whose FIRST click precedes their LAST
    purchase (click→purchase conversion).  Per-user min/max timestamps
    per step are algebraic — combiner-first grouped min/max partials,
    then one row-local compare; no per-user Python, no row shuffle."""
    ev = read_table(sf_dir, "events",
                    columns=["user_id", "event_type", "ts"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[batch["event_type"].isin(["click", "purchase"])]
        epoch = b["ts"].astype("int64")
        big = np.int64(2**62)
        is_click = (b["event_type"] == "click").to_numpy()
        return pd.DataFrame({
            "user_id": b["user_id"].to_numpy(),
            # min over clicks only: purchases neutralized with +inf
            "_click_ts": np.where(is_click, epoch, big),
            # max over purchases only: clicks neutralized with -inf
            "_purch_ts": np.where(is_click, np.int64(-1), epoch)})

    prepped = ev.map_batches(prep, batch_format="pandas", batch_size=None)

    # per-user MIN(click)/MAX(purchase): per-batch combiner partials, then
    # a bucketed min/max finish (extrema are algebraic but not sums, so
    # grouped_sum_bucketed doesn't apply directly)
    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby("user_id", sort=False)
        return pd.DataFrame({
            "user_id": g.size().index,
            "_click_ts": g["_click_ts"].min().to_numpy(),
            "_purch_ts": g["_purch_ts"].max().to_numpy()})

    parts = prepped.map_batches(partial, batch_format="pandas",
                                batch_size=None)

    def per_bucket(group: pa.Table) -> pd.DataFrame:
        g = to_pandas(group).groupby("user_id", sort=False)
        out = pd.DataFrame({
            "_click_ts": g["_click_ts"].min(),
            "_purch_ts": g["_purch_ts"].max()}).reset_index()
        return out

    per_user = bucket_exchange(parts, "user_id", per_bucket).to_pandas()
    big = np.int64(2**62)
    has_click = per_user["_click_ts"] < big
    has_purch = per_user["_purch_ts"] >= 0
    converted = has_click & has_purch & \
        (per_user["_click_ts"] < per_user["_purch_ts"])
    return pd.DataFrame({
        "n_users_clicked": [int(has_click.sum())],
        "n_users_purchased": [int(has_purch.sum())],
        "n_converted": [int(converted.sum())]})


@query(oracle=(
    "WITH h AS (SELECT unnest(generate_series("
    "date_trunc('hour', (SELECT MIN(ts) FROM events)), "
    "date_trunc('hour', (SELECT MAX(ts) FROM events)), "
    "INTERVAL 1 HOUR)) AS hr), "
    "t AS (SELECT DISTINCT event_type FROM events), "
    "s AS (SELECT event_type, date_trunc('hour', ts) AS hr, "
    "COUNT(*) AS n FROM events GROUP BY 1, 2) "
    "SELECT t.event_type, strftime(h.hr, '%Y-%m-%d %H:00:00') AS hour, "
    "CAST(COALESCE(s.n, 0) AS BIGINT) AS n "
    "FROM t CROSS JOIN h "
    "LEFT JOIN s ON s.event_type = t.event_type AND s.hr = h.hr"))
def events_hourly_dense(sf_dir: str) -> "ray.data.Dataset":
    """GAP-FILLED hourly counts per event type: every hour in the
    table's [min, max] range appears for every type, missing hours as
    zero — the dense time-series a monitoring/altering consumer needs
    (a plain groupby silently omits empty hours).  Shape: the sparse
    hourly aggregate (combiner-first) LEFT-joins a driver-generated
    (type × hour) spine — the spine is report-shaped (|types| × |hours|)
    so the join is a broadcast merge, no row-data shuffle."""
    import pyarrow.compute as pc

    ds = read_table(sf_dir, "events", columns=["event_type", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        hour = pc.strftime(pc.floor_temporal(batch["ts"], unit="hour"),
                           format="%Y-%m-%d %H:00:00")
        return pa.table({"event_type": batch["event_type"], "hour": hour})

    prepped = ds.map_batches(prep, batch_format="pyarrow", batch_size=None)
    sparse = grouped_sum(prepped, ["event_type", "hour"],
                         count_as="n").to_pandas()

    import ray.data as _rd

    if sparse.empty or "hour" not in sparse.columns:
        # zero events (or Ray's empty-result schema loss): an empty dense
        # frame with the contract columns, not a pd.date_range(NaT) crash
        return _rd.from_pandas(pd.DataFrame({
            "event_type": pd.Series([], dtype="object"),
            "hour": pd.Series([], dtype="object"),
            "n": pd.Series([], dtype="int64")}))

    lo = pd.Timestamp(sparse["hour"].min())
    hi = pd.Timestamp(sparse["hour"].max())
    hours = pd.date_range(lo, hi, freq="1h").strftime("%Y-%m-%d %H:00:00")
    types = sorted(sparse["event_type"].unique())
    spine = pd.MultiIndex.from_product(
        [types, hours], names=["event_type", "hour"]).to_frame(index=False)
    dense = spine.merge(sparse, on=["event_type", "hour"], how="left")
    dense["n"] = dense["n"].fillna(0).astype("int64")
    import ray.data as _rd

    return _rd.from_pandas(dense)


# trailing-24h spike score over the dense hourly series; ROWS BETWEEN
# 24 PRECEDING AND 1 PRECEDING replays trail_sum/trail_cnt exactly and
# every division is positive floor, so the hash gate is exact
_EVENTS_HOURLY_SPIKES_SQL = (
    "WITH h AS (SELECT unnest(generate_series("
    "date_trunc('hour', (SELECT MIN(ts) FROM events)), "
    "date_trunc('hour', (SELECT MAX(ts) FROM events)), "
    "INTERVAL 1 HOUR)) AS hr), "
    "t AS (SELECT DISTINCT event_type FROM events), "
    "s AS (SELECT event_type, date_trunc('hour', ts) AS hr, "
    "COUNT(*) AS cnt FROM events GROUP BY 1, 2), "
    "dense AS (SELECT t.event_type, h.hr, "
    "COALESCE(s.cnt, 0) AS n FROM t CROSS JOIN h "
    "LEFT JOIN s ON s.event_type = t.event_type AND s.hr = h.hr), "
    "w AS (SELECT event_type, hr, n, "
    "COALESCE(SUM(n) OVER (PARTITION BY event_type ORDER BY hr "
    "ROWS BETWEEN 24 PRECEDING AND 1 PRECEDING), 0) AS trail_sum, "
    "COUNT(n) OVER (PARTITION BY event_type ORDER BY hr "
    "ROWS BETWEEN 24 PRECEDING AND 1 PRECEDING) AS trail_cnt "
    "FROM dense) "
    "SELECT event_type, strftime(hr, '%Y-%m-%d %H:00:00') AS hour, "
    "CAST(n AS BIGINT) AS n, CAST(trail_sum AS BIGINT) AS trail_sum, "
    "CAST(trail_cnt AS BIGINT) AS trail_cnt, "
    "CAST(CASE WHEN n * trail_cnt - trail_sum > 0 THEN "
    "(n * trail_cnt - trail_sum) * 10000 // GREATEST(trail_sum, 1) "
    "ELSE 0 END AS BIGINT) AS spike_e4 FROM w")


@query(oracle=_EVENTS_HOURLY_SPIKES_SQL)
def events_hourly_spikes(sf_dir: str) -> "ray.data.Dataset":
    """Trailing-window anomaly scores over the gap-filled hourly series
    (ops/streaming.trailing_deviation over events_hourly_dense): per
    (event_type, hour), the previous-24h sum/count and the integer
    relative-spike score — the monitoring pass that flags traffic
    anomalies.  All positive floor divisions; hash-gated."""
    from zeeklog_ray.ops.streaming import trailing_deviation

    dense = events_hourly_dense(sf_dir)
    return trailing_deviation(dense, key="event_type", order="hour",
                              value="n", window=24)


@query(oracle=(
    "SELECT l_returnflag, l_linestatus, COUNT(*) AS n, "
    "CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty, "
    "CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_base_cents, "
    "CAST(SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 100) AS BIGINT)) AS BIGINT) "
    "AS sum_disc_cents FROM lineitem "
    "WHERE l_shipdate <= TIMESTAMP '1998-09-02' "
    "GROUP BY l_returnflag, l_linestatus"))
def lineitem_pricing(sf_dir: str) -> "ray.data.Dataset":
    """TPC-H Q1-shaped pricing summary; integer-cent exact sums."""
    import pyarrow.compute as pc

    ds = read_table(sf_dir, "lineitem",
                    columns=["l_returnflag", "l_linestatus", "l_quantity",
                             "l_extendedprice", "l_discount", "l_shipdate"])
    from zeeklog_ray.relational import arrow_round_away

    cutoff = pd.Timestamp("1998-09-02")

    def prep(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.less_equal(batch["l_shipdate"], cutoff))
        price = t["l_extendedprice"]
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "qty": arrow_round_away(t["l_quantity"]),
            "base_cents": arrow_round_away(pc.multiply(price, 100.0)),
            "disc_cents": arrow_round_away(pc.multiply(pc.multiply(
                price, pc.subtract(1.0, t["l_discount"])), 100.0)),
        })

    prepped = ds.map_batches(prep, batch_format="pyarrow", batch_size=None)
    return grouped_sum(prepped, ["l_returnflag", "l_linestatus"],
                       sums={"qty": "sum_qty", "base_cents": "sum_base_cents",
                             "disc_cents": "sum_disc_cents"}, count_as="n")


@query(oracle=(
    "SELECT p_type, COUNT(*) AS n_items, "
    "CAST(SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 100) "
    "AS BIGINT)) AS BIGINT) AS sum_rev_cents "
    "FROM lineitem JOIN part ON l_partkey = p_partkey GROUP BY p_type"))
def part_type_revenue(sf_dir: str) -> "ray.data.Dataset":
    """Fact⨝dimension via broadcast (the J1 lookup generalized to a
    mid-size dim): lineitem joined to part with a ray.put-broadcast pandas
    merge — no shuffle of the fact side — discounted revenue cents and
    item counts per part type."""

    li = read_table(sf_dir, "lineitem",
                    columns=["l_partkey", "l_extendedprice", "l_discount"])
    part = small_table(sf_dir, "part", columns=["p_partkey", "p_type"]) \
        .rename(columns={"p_partkey": "l_partkey"})

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        batch["rev_cents"] = _round_half_away(
            batch["l_extendedprice"] * (1 - batch["l_discount"]) * 100)
        return batch[["l_partkey", "rev_cents"]]

    prepped = li.map_batches(prep, batch_format="pandas", batch_size=None)
    joined = broadcast_merge(prepped, part, on="l_partkey")
    return grouped_sum(joined.select_columns(["p_type", "rev_cents"]),
                       ["p_type"], sums={"rev_cents": "sum_rev_cents"},
                       count_as="n_items")


@query(oracle=(
    "SELECT s_name, CAST(SUM(CAST(ROUND(l_extendedprice * "
    "(1 - l_discount) * 100) AS BIGINT)) AS BIGINT) AS sum_rev_cents "
    "FROM lineitem JOIN supplier ON l_suppkey = s_suppkey "
    "GROUP BY s_name ORDER BY sum_rev_cents DESC, s_name LIMIT 5"))
def top_suppliers(sf_dir: str) -> "ray.data.Dataset":
    """Top-5 suppliers by discounted lineitem revenue: broadcast supplier
    dim → combiner-first grouped sum → partial top-k."""

    sup = small_table(sf_dir, "supplier", columns=["s_suppkey", "s_name"]) \
        .rename(columns={"s_suppkey": "l_suppkey"})
    li = read_table(sf_dir, "lineitem",
                    columns=["l_suppkey", "l_extendedprice", "l_discount"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        batch["rev_cents"] = _round_half_away(
            batch["l_extendedprice"] * (1 - batch["l_discount"]) * 100)
        return batch[["l_suppkey", "rev_cents"]]

    prepped = li.map_batches(prep, batch_format="pandas", batch_size=None)
    joined = broadcast_merge(prepped, sup, on="l_suppkey")
    summed = grouped_sum(joined.select_columns(["s_name", "rev_cents"]),
                         ["s_name"], sums={"rev_cents": "sum_rev_cents"})
    return top_k(summed, by=["sum_rev_cents", "s_name"],
                 descending=[True, False], k=5)


@query(oracle=(
    "SELECT o_custkey, CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT) "
    "AS total_cents FROM orders GROUP BY o_custkey "
    "ORDER BY total_cents DESC, o_custkey LIMIT 10"))
def top_customers(sf_dir: str) -> "ray.data.Dataset":
    """Top-10 customers by total order value (grouped sum → sort+limit)."""
    import pyarrow.compute as pc

    ds = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    from zeeklog_ray.relational import arrow_round_away

    def prep(batch: pa.Table) -> pa.Table:
        cents = arrow_round_away(pc.multiply(batch["o_totalprice"], 100.0))
        return pa.table({"o_custkey": batch["o_custkey"],
                         "total_cents": cents})

    summed = grouped_sum(ds.map_batches(prep, batch_format="pyarrow", batch_size=None),
                         ["o_custkey"], sums={"total_cents": "total_cents"})
    return top_k(summed, by=["total_cents", "o_custkey"],
                 descending=[True, False], k=10)


@query(oracle=(
    "SELECT r_name, COUNT(*) AS n FROM customer "
    "JOIN nation ON c_nationkey = n_nationkey "
    "JOIN region ON n_regionkey = r_regionkey GROUP BY r_name"))
def customers_by_region(sf_dir: str) -> "ray.data.Dataset":
    """customer ⨝ nation ⨝ region via BROADCAST join (dims are tiny —
    the small-side-broadcast rule, never a shuffle join)."""
    nation = small_table(sf_dir, "nation", columns=["n_nationkey", "n_regionkey"])
    region = small_table(sf_dir, "region", columns=["r_regionkey", "r_name"])
    dim = nation.merge(region, left_on="n_regionkey", right_on="r_regionkey")
    dim = dim.rename(columns={"n_nationkey": "c_nationkey"})[["c_nationkey", "r_name"]]
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    joined = broadcast_merge(cust, dim, on="c_nationkey")
    return grouped_sum(joined, ["r_name"], count_as="n")


@query(oracle=(
    "SELECT r_name, n_name, "
    "CAST(SUM(CAST(ROUND(c_acctbal * 100) AS BIGINT)) AS BIGINT) "
    "AS acctbal_cents, CAST(COUNT(*) AS BIGINT) AS n_cust "
    "FROM customer "
    "JOIN nation ON c_nationkey = n_nationkey "
    "JOIN region ON n_regionkey = r_regionkey "
    "GROUP BY ROLLUP(r_name, n_name)"))
def region_nation_rollup(sf_dir: str) -> pd.DataFrame:
    """GROUP BY ROLLUP(r_name, n_name) over customer balances
    (relational.rollup_sum): broadcast dim chain → ONE distributed
    finest-level grouped sum; the nation/region/grand-total levels
    re-combine that tiny result exactly (algebraic sums), zero extra
    scans.  NULL key cells mark super-aggregate rows."""
    from zeeklog_ray.relational import rollup_sum

    nation = small_table(sf_dir, "nation",
                         columns=["n_nationkey", "n_name", "n_regionkey"])
    region = small_table(sf_dir, "region", columns=["r_regionkey", "r_name"])
    dim = nation.merge(region, left_on="n_regionkey",
                       right_on="r_regionkey")
    dim = dim.rename(columns={"n_nationkey": "c_nationkey"})[
        ["c_nationkey", "r_name", "n_name"]]
    cust = read_table(sf_dir, "customer",
                      columns=["c_custkey", "c_nationkey", "c_acctbal"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        m = batch.merge(dim, on="c_nationkey")
        return pd.DataFrame({
            "r_name": m["r_name"], "n_name": m["n_name"],
            "acctbal_cents": _round_half_away(m["c_acctbal"] * 100)})

    prepped = cust.map_batches(prep, batch_format="pandas", batch_size=None)
    return rollup_sum(prepped, ["r_name", "n_name"],
                      sums={"acctbal_cents": "acctbal_cents"},
                      count_as="n_cust")


@query(oracle=(
    "SELECT o_orderstatus, o_orderpriority, "
    "CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT) "
    "AS total_cents, CAST(COUNT(*) AS BIGINT) AS n_orders "
    "FROM orders GROUP BY CUBE(o_orderstatus, o_orderpriority)"))
def order_cube(sf_dir: str) -> pd.DataFrame:
    """GROUP BY CUBE(o_orderstatus, o_orderpriority) over order totals
    (relational.cube_sum): one distributed finest grouped sum, then all
    2^2 key subsets re-combined exactly on the driver."""
    from zeeklog_ray.relational import cube_sum

    orders = read_table(sf_dir, "orders",
                        columns=["o_orderstatus", "o_orderpriority",
                                 "o_totalprice"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "o_orderstatus": batch["o_orderstatus"],
            "o_orderpriority": batch["o_orderpriority"],
            "total_cents": _round_half_away(batch["o_totalprice"] * 100)})

    prepped = orders.map_batches(prep, batch_format="pandas",
                                 batch_size=None)
    return cube_sum(prepped, ["o_orderstatus", "o_orderpriority"],
                    sums={"total_cents": "total_cents"}, count_as="n_orders")


@query(oracle=(
    "SELECT user_id, event_id, event_type FROM ("
    "SELECT user_id, event_id, event_type, "
    "ROW_NUMBER() OVER (PARTITION BY user_id "
    "ORDER BY ts DESC, event_id DESC) AS rn FROM events) WHERE rn = 1"))
def events_latest_per_user(sf_dir: str) -> "ray.data.Dataset":
    """Log-compaction "latest wins" (relational.latest_per_key): each
    user's single most recent event by (ts, event_id) — the upsert/SCD
    read-side a telemetry pipeline compacts to.  Two-level argmax: a
    row-local per-batch prune, then a bucketed final over the pruned
    survivors only."""
    from zeeklog_ray.relational import latest_per_key

    ev = read_table(sf_dir, "events",
                    columns=["event_id", "ts", "user_id", "event_type"])
    latest = latest_per_key(ev, ["user_id"], ["ts", "event_id"])
    return latest.select_columns(["user_id", "event_id", "event_type"])


@query(oracle=(
    "SELECT event_id, user_id, CAST(ROW_NUMBER() OVER ("
    "PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT) AS seq "
    "FROM events"))
def event_user_seq(sf_dir: str) -> "ray.data.Dataset":
    """Per-user ROW_NUMBER over the event stream
    (relational.seq_index_per_key): every event tagged with its 1-based
    index within its user's timeline ordered by (ts, event_id) — the
    event-scale window op (full table shuffles once on the user-hash
    bucket; numbering is C-level per bucket)."""
    from zeeklog_ray.relational import seq_index_per_key

    ev = read_table(sf_dir, "events",
                    columns=["event_id", "ts", "user_id"])
    seq = seq_index_per_key(ev, "user_id", ["ts", "event_id"], out="seq")

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[["event_id", "user_id", "seq"]]

    return seq.map_batches(finish, batch_format="pandas", batch_size=None)


@query(oracle=(
    "SELECT l_returnflag, l_linestatus, CAST(n AS BIGINT) AS n, CAST("
    "(n * sx2 - sx * sx) * 1000000 // (n * (n - 1)) AS BIGINT) "
    "AS var_scaled FROM ("
    "SELECT l_returnflag, l_linestatus, "
    "CAST(COUNT(*) AS HUGEINT) AS n, "
    "CAST(SUM(q) AS HUGEINT) AS sx, "
    "CAST(SUM(q * q) AS HUGEINT) AS sx2 FROM ("
    "SELECT l_returnflag, l_linestatus, "
    "CAST(ROUND(l_quantity) AS BIGINT) AS q FROM lineitem) "
    "GROUP BY l_returnflag, l_linestatus) WHERE n >= 2"))
def lineitem_qty_variance(sf_dir: str) -> pd.DataFrame:
    """Per-(returnflag, linestatus) sample variance of line quantity in
    EXACT integer arithmetic (relational.grouped_var_exact): only
    per-group (n, Σx, Σx²) partials shuffle — the algebraic-aggregate
    decomposition that merges across any partitioning — and the driver
    finish computes ``(n·Σx²−(Σx)²)·10^6 // (n·(n−1))`` in Python ints.
    Hash-comparable against the same HUGEINT formula in SQL, where float
    VAR_SAMP could differ in the last ulp."""
    from zeeklog_ray.relational import grouped_var_exact

    items = read_table(sf_dir, "lineitem",
                       columns=["l_returnflag", "l_linestatus",
                                "l_quantity"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_returnflag": batch["l_returnflag"],
            "l_linestatus": batch["l_linestatus"],
            "qty": _round_half_away(batch["l_quantity"])})

    prepped = items.map_batches(prep, batch_format="pandas",
                                batch_size=None)
    return grouped_var_exact(prepped, ["l_returnflag", "l_linestatus"],
                             "qty")


@query(oracle=(
    "SELECT l_returnflag, l_linestatus, CAST(n AS BIGINT) AS n, "
    "CAST((n * sxy - sx * sy) * 1000000 // (n * (n - 1)) AS BIGINT) "
    "AS cov_scaled, "
    "CAST((n * sxy - sx * sy) * 1000000 // (n * sxx - sx * sx) "
    "AS BIGINT) AS slope_scaled FROM ("
    "SELECT l_returnflag, l_linestatus, "
    "CAST(COUNT(*) AS HUGEINT) AS n, "
    "CAST(SUM(x) AS HUGEINT) AS sx, CAST(SUM(y) AS HUGEINT) AS sy, "
    "CAST(SUM(x * y) AS HUGEINT) AS sxy, "
    "CAST(SUM(x * x) AS HUGEINT) AS sxx FROM ("
    "SELECT l_returnflag, l_linestatus, "
    "CAST(ROUND(l_quantity) AS BIGINT) AS x, "
    "CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS y FROM lineitem) "
    "GROUP BY l_returnflag, l_linestatus) "
    "WHERE n >= 2 AND (n * sxx - sx * sx) <> 0"))
def lineitem_price_cov(sf_dir: str) -> pd.DataFrame:
    """Per-(returnflag, linestatus) sample covariance and OLS slope of
    (quantity, price cents) in EXACT integer arithmetic
    (relational.grouped_cov_exact): only per-group (n, Σx, Σy, Σxy, Σx²)
    partials shuffle; the driver finish is Python-int with TRUNCATING
    division to match the HUGEINT oracle's ``//``."""
    from zeeklog_ray.relational import grouped_cov_exact

    items = read_table(sf_dir, "lineitem",
                       columns=["l_returnflag", "l_linestatus",
                                "l_quantity", "l_extendedprice"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_returnflag": batch["l_returnflag"],
            "l_linestatus": batch["l_linestatus"],
            "qty": _round_half_away(batch["l_quantity"]),
            "price_cents": _round_half_away(batch["l_extendedprice"] * 100)})

    prepped = items.map_batches(prep, batch_format="pandas",
                                batch_size=None)
    return grouped_cov_exact(prepped, ["l_returnflag", "l_linestatus"],
                             "qty", "price_cents")


@query(oracle=(
    "SELECT l_orderkey, l_linenumber, qty, "
    "CAST(RANK() OVER (PARTITION BY l_orderkey ORDER BY qty) "
    "AS BIGINT) AS rnk, "
    "CAST(DENSE_RANK() OVER (PARTITION BY l_orderkey ORDER BY qty) "
    "AS BIGINT) AS drnk, "
    "CAST(NTILE(4) OVER (PARTITION BY l_orderkey "
    "ORDER BY qty, l_linenumber) AS BIGINT) AS tile FROM ("
    "SELECT l_orderkey, l_linenumber, "
    "CAST(ROUND(l_quantity) AS BIGINT) AS qty FROM lineitem)"))
def lineitem_qty_ranks(sf_dir: str) -> "ray.data.Dataset":
    """Per-order RANK / DENSE_RANK over quantity (integer, so real ties)
    plus NTILE(4) over the (quantity, linenumber) total order — one
    bucketed pass (relational.ranks_per_key), full table survives, one
    key-hash shuffle, numpy index algebra per bucket."""
    from zeeklog_ray.relational import ranks_per_key

    items = read_table(sf_dir, "lineitem",
                       columns=["l_orderkey", "l_linenumber", "l_quantity"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_orderkey": batch["l_orderkey"],
            "l_linenumber": batch["l_linenumber"],
            "qty": _round_half_away(batch["l_quantity"])})

    prepped = items.map_batches(prep, batch_format="pandas",
                                batch_size=None)
    return ranks_per_key(prepped, "l_orderkey", ["qty", "l_linenumber"],
                         tie_cols=["qty"], ntile=4)


@query(oracle=(
    "SELECT user_id, event_id, "
    "CAST(COUNT(*) OVER w AS BIGINT) AS w_count, "
    "CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) OVER w AS BIGINT) "
    "AS w_sum_cents FROM events "
    "WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id "
    "ROWS BETWEEN 5 PRECEDING AND CURRENT ROW)"))
def event_rows_window(sf_dir: str) -> "ray.data.Dataset":
    """Per-event trailing 6-row window (count, cents sum) per user — ROWS
    frame semantics complementing event_sliding_windows' RANGE frame
    (ops/streaming.rows_window): one key-hash shuffle, pure numpy frame
    algebra per bucket, integer dtype preserved through the cumsum."""
    from zeeklog_ray.ops.streaming import rows_window

    ev = read_table(sf_dir, "events",
                    columns=["user_id", "event_id", "ts", "value"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        batch["value_cents"] = _round_half_away(batch["value"] * 100)
        return batch[["user_id", "event_id", "ts", "value_cents"]]

    prepped = ev.map_batches(prep, batch_format="pandas", batch_size=None)
    out = rows_window(prepped, key="user_id", order_cols=["ts", "event_id"],
                      value="value_cents", preceding=5,
                      keep_cols=["user_id", "event_id"])

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": batch["user_id"],
            "event_id": batch["event_id"],
            "w_count": batch["w_count"].astype("int64"),
            "w_sum_cents": batch["w_sum"].astype("int64")})

    return out.map_batches(finish, batch_format="pandas", batch_size=None)


@query(oracle=(
    "SELECT user_id, event_id, "
    "CAST(COUNT(*) OVER w AS BIGINT) AS rt_count, "
    "CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) OVER w AS BIGINT) "
    "AS rt_sum_cents FROM events "
    "WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id "
    "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)"))
def event_running_total(sf_dir: str) -> "ray.data.Dataset":
    """Per-user running (count, cents sum) in event order — the UNBOUNDED
    ROWS frame of ops/streaming.rows_window (SQL ROWS UNBOUNDED
    PRECEDING).  Same single key-hash shuffle + per-bucket prefix sum."""
    from zeeklog_ray.ops.streaming import rows_window

    ev = read_table(sf_dir, "events",
                    columns=["user_id", "event_id", "ts", "value"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        batch["value_cents"] = _round_half_away(batch["value"] * 100)
        return batch[["user_id", "event_id", "ts", "value_cents"]]

    prepped = ev.map_batches(prep, batch_format="pandas", batch_size=None)
    out = rows_window(prepped, key="user_id", order_cols=["ts", "event_id"],
                      value="value_cents", preceding=None,
                      keep_cols=["user_id", "event_id"])

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": batch["user_id"],
            "event_id": batch["event_id"],
            "rt_count": batch["w_count"].astype("int64"),
            "rt_sum_cents": batch["w_sum"].astype("int64")})

    return out.map_batches(finish, batch_format="pandas", batch_size=None)


# exact fixed-point PERCENT_RANK / CUME_DIST: the double-valued SQL
# builtins are replayed as integer formulas over RANK and the
# peers-inclusive running count (the default RANGE frame)
@query(oracle=(
    "SELECT user_id, event_id, value_cents, "
    "CASE WHEN m = 1 THEN 0 ELSE "
    "CAST((rnk - 1) * 10000 // (m - 1) AS BIGINT) END AS pr_scaled, "
    "CAST(c * 10000 // m AS BIGINT) AS cume_scaled FROM ("
    "SELECT user_id, event_id, value_cents, "
    "CAST(RANK() OVER (PARTITION BY user_id ORDER BY value_cents) "
    "AS HUGEINT) AS rnk, "
    "CAST(COUNT(*) OVER (PARTITION BY user_id ORDER BY value_cents) "
    "AS HUGEINT) AS c, "
    "CAST(COUNT(*) OVER (PARTITION BY user_id) AS HUGEINT) AS m "
    "FROM (SELECT user_id, event_id, "
    "CAST(ROUND(value * 100) AS BIGINT) AS value_cents FROM events))"))
def event_value_pct_rank(sf_dir: str) -> "ray.data.Dataset":
    """Per-user PERCENT_RANK and CUME_DIST of the event's cents value in
    fixed-point e4 integers (relational.ranks_per_key percent_scale) —
    exact, so hash-comparable where the SQL double forms could differ in
    the last ulp."""
    from zeeklog_ray.relational import ranks_per_key

    ev = read_table(sf_dir, "events",
                    columns=["user_id", "event_id", "value"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": batch["user_id"],
            "event_id": batch["event_id"],
            "value_cents": _round_half_away(batch["value"] * 100)})

    prepped = ev.map_batches(prep, batch_format="pandas", batch_size=None)
    ranked = ranks_per_key(prepped, "user_id", ["value_cents", "event_id"],
                           tie_cols=["value_cents"], percent_scale=10**4)
    return ranked.select_columns(["user_id", "event_id", "value_cents",
                                  "pr_scaled", "cume_scaled"])


@query(oracle=(
    "SELECT event_type, CAST(n AS BIGINT) AS n, "
    "CAST((n * sxy - sx * sy) * 1000000 // (n * (n - 1)) AS BIGINT) "
    "AS cov_scaled, "
    "CAST((n * sxy - sx * sy) * 1000000 // (n * sxx - sx * sx) "
    "AS BIGINT) AS slope_scaled, "
    "CAST((n * sxy - sx * sy) * (n * sxy - sx * sy) * 10000 // "
    "((n * sxx - sx * sx) * (n * syy - sy * sy)) AS BIGINT) "
    "AS corr2_scaled FROM ("
    "SELECT event_type, CAST(COUNT(*) AS HUGEINT) AS n, "
    "CAST(SUM(x) AS HUGEINT) AS sx, CAST(SUM(y) AS HUGEINT) AS sy, "
    "CAST(SUM(x * y) AS HUGEINT) AS sxy, "
    "CAST(SUM(x * x) AS HUGEINT) AS sxx, "
    "CAST(SUM(y * y) AS HUGEINT) AS syy FROM ("
    "SELECT event_type, epoch_us(ts) // 3600000000 AS x, "
    "CAST(ROUND(value * 100) AS BIGINT) AS y FROM events) "
    "GROUP BY event_type) WHERE n >= 2 "
    "AND (n * sxx - sx * sx) <> 0 AND (n * syy - sy * sy) <> 0"))
def event_type_value_corr(sf_dir: str) -> pd.DataFrame:
    """Per-event-type value-vs-time trend: exact-integer covariance, OLS
    slope, and squared Pearson correlation between the event's hour index
    (epoch hours) and its cents value (relational.grouped_cov_exact with
    corr2_scale) — only six-number partials shuffle."""
    from zeeklog_ray.relational import grouped_cov_exact

    ev = read_table(sf_dir, "events", columns=["event_type", "ts", "value"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        # epoch hours keep x² sums far inside int64 (epoch-us squares
        # would overflow even HUGEINT); ts ≥ 1970 so floor == trunc
        hours = batch["ts"].to_numpy("datetime64[us]").astype("int64") \
            // 3_600_000_000
        return pd.DataFrame({
            "event_type": batch["event_type"],
            "hour_x": hours,
            "value_cents": _round_half_away(batch["value"] * 100)})

    prepped = ev.map_batches(prep, batch_format="pandas", batch_size=None)
    return grouped_cov_exact(prepped, ["event_type"], "hour_x",
                             "value_cents", corr2_scale=10**4)


@query(oracle=(
    "SELECT user_id, event_type AS mode_event_type, n_mode FROM ("
    "SELECT user_id, event_type, CAST(COUNT(*) AS BIGINT) AS n_mode, "
    "ROW_NUMBER() OVER (PARTITION BY user_id "
    "ORDER BY COUNT(*) DESC, event_type) AS rn "
    "FROM events GROUP BY user_id, event_type) WHERE rn = 1"))
def user_mode_event_type(sf_dir: str) -> "ray.data.Dataset":
    """Per-user most frequent event type (ties → lexicographically
    smallest) with its count — combiner-first mode
    (relational.mode_per_key): raw events collapse to (user, type)
    partial counts per batch before the single key-hash shuffle."""
    from zeeklog_ray.relational import mode_per_key

    ev = read_table(sf_dir, "events", columns=["user_id", "event_type"])
    return mode_per_key(ev, "user_id", "event_type")


@query(oracle=(
    "SELECT user_id, STRING_AGG(event_type, '>' "
    "ORDER BY ts, event_id) AS journey FROM events GROUP BY user_id"))
def user_event_journey(sf_dir: str) -> "ray.data.Dataset":
    """Per-user ordered event-type sequence string (the "journey"
    feature) — relational.string_agg_per_key, one key-hash shuffle,
    deterministic via the (ts, event_id) total order."""
    from zeeklog_ray.relational import string_agg_per_key

    ev = read_table(sf_dir, "events",
                    columns=["user_id", "event_id", "ts", "event_type"])
    return string_agg_per_key(ev, "user_id", "event_type",
                              ["ts", "event_id"], sep=">", out="journey")


_OUTER_MIN_CENTS = 30_000  # $300 — sparse enough that BOTH outer sides
# are non-empty at sf0.01 (4 click-only, 5 purchase-only users)


@query(oracle=(
    "SELECT COALESCE(c.user_id, p.user_id) AS user_id, "
    "COALESCE(c.n_clicks, 0) AS n_clicks, "
    "COALESCE(p.n_purchases, 0) AS n_purchases FROM "
    "(SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_clicks "
    "FROM events WHERE event_type = 'click' "
    "AND CAST(ROUND(value * 100) AS BIGINT) >= 30000 "
    "GROUP BY user_id) c "
    "FULL OUTER JOIN "
    "(SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_purchases "
    "FROM events WHERE event_type = 'purchase' "
    "AND CAST(ROUND(value * 100) AS BIGINT) >= 30000 "
    "GROUP BY user_id) p "
    "ON c.user_id = p.user_id"))
def user_click_purchase_outer(sf_dir: str) -> "ray.data.Dataset":
    """FULL OUTER join of per-user big-click counts vs big-purchase
    counts (relational.bucketed_equi_join how=full): users with only one
    side survive with a 0 on the other — the join type the semi/anti
    family lacked.  Both sides are pre-aggregated (combiner-first)
    before the shuffle join, so only |users| rows move per side."""

    ev = read_table(sf_dir, "events",
                    columns=["user_id", "event_type", "value"])

    def side(kind: str, out: str) -> "ray.data.Dataset":
        def pick(batch: pd.DataFrame) -> pd.DataFrame:
            cents = _round_half_away(batch["value"] * 100)
            keep = (batch["event_type"] == kind) & \
                (cents >= _OUTER_MIN_CENTS)
            return batch.loc[keep, ["user_id"]]

        f = ev.map_batches(pick, batch_format="pandas", batch_size=None)
        # a side can match NOTHING at small scale — the schema seed keeps
        # the empty aggregate joinable (see relational.grouped_sum).  The
        # aggregate is one small block; pinning it keeps its two
        # repartitions out of the join's exchange (two such branches under
        # one exchange stall Ray's executor on a 1-CPU cluster).
        schema = pa.schema([("user_id", pa.int64()), (out, pa.int64())])
        return grouped_sum(f, ["user_id"], count_as=out,
                           empty_schema=schema).materialize()

    # the full join coalesces the key into user_id; a user missing from
    # one side gets a null count there (nullable Int64)
    joined = bucketed_equi_join(side("click", "n_clicks"),
                                side("purchase", "n_purchases"),
                                on="user_id", how="full")

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": batch["user_id"].astype("int64"),
            "n_clicks": batch["n_clicks"].fillna(0).astype("int64"),
            "n_purchases": batch["n_purchases"].fillna(0).astype("int64"),
        })

    return joined.map_batches(finish, batch_format="pandas", batch_size=None)


@query(oracle=(
    "SELECT o_orderpriority, COUNT(*) AS n_items, "
    "CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty "
    "FROM orders JOIN lineitem ON o_orderkey = l_orderkey "
    "GROUP BY o_orderpriority"))
def order_priority_items(sf_dir: str) -> "ray.data.Dataset":
    """orders ⨝ lineitem — both sides large → bucketed equi-join, then
    grouped aggregate."""
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])
    items = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        batch["qty"] = _round_half_away(batch["l_quantity"])
        return batch[["l_orderkey", "qty"]]

    items = items.map_batches(prep, batch_format="pandas", batch_size=None)
    joined = bucketed_equi_join(orders, items, on="o_orderkey",
                                right_on="l_orderkey")
    return grouped_sum(joined, ["o_orderpriority"], sums={"qty": "sum_qty"},
                       count_as="n_items")


@query(oracle="SELECT DISTINCT event_type FROM events")
def distinct_event_types(sf_dir: str) -> "ray.data.Dataset":
    ds = read_table(sf_dir, "events", columns=["event_type"])
    return distinct_column(ds, "event_type")


@query(oracle=(
    "SELECT MIN(doc_id) AS doc_id, COUNT(*) AS n_dups "
    "FROM documents GROUP BY text"))
def exact_dedup_docs(sf_dir: str) -> "ray.data.Dataset":
    """Exact dedup by content: hash(text) partition → first (min doc_id) per
    group + duplicate count.  The digest stands in for the full text in the
    shuffle, so only (digest, doc_id) pairs move — not document bodies.

    The group key is a 128-bit digest (two independent 64-bit hashes): a
    single 64-bit key has a birthday-collision probability that grows
    quadratically with corpus size and would merge distinct documents at
    the 10^12-row design scale; at 128 bits the collision odds stay
    negligible (~n²/2^129).

    Digests are hash-BUCKETED before grouping and each bucket dedups with
    one C-level pandas groupby — digest-count groups ≈ distinct docs, and
    Ray's grouped paths pay Python per group (measured 189 s for 1M
    groups via aggregate(Min) vs 17 s bucketed — ops/text.corpus_prep)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def digest(batch: pd.DataFrame) -> pd.DataFrame:
        from zeeklog_ray.ops.dedup import content_digest128

        h1, h2 = content_digest128(batch["text"])
        return pd.DataFrame({"digest": h1, "digest2": h2,
                             "doc_id": batch["doc_id"]})

    def dedup_bucket(group: pa.Table) -> pd.DataFrame:
        g = to_pandas(group).groupby(["digest", "digest2"], sort=False)
        return g.agg(doc_id=("doc_id", "min"),
                     n_dups=("doc_id", "size")).reset_index(drop=True)

    hashed = ds.map_batches(digest, batch_format="pandas", batch_size=None)
    return bucket_exchange(hashed, "digest", dedup_bucket)


# the prep CHAIN: quality filter → first-wins dedup by exact text →
# BPE token count → per-language rollup, as one CTE pipeline over the
# proven doc_quality / doc_token_bpe SQL pieces
@query(oracle=(
    "WITH q AS (SELECT doc_id, lang, text, "
    f"{_N_WORDS_SQL}, "
    f"{_N_STOP_SQL} "
    "FROM documents), "
    "f AS (SELECT * FROM q WHERE n_words >= 15 AND "
    "CAST(FLOOR(n_stop * 10000.0 / CASE WHEN n_words = 0 THEN 1 ELSE n_words END) AS BIGINT) >= 200), "
    "d AS (SELECT MIN(doc_id) AS doc_id, MIN(lang) AS lang, text "
    "FROM f GROUP BY text) "
    "SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs, "
    "CAST(SUM(LENGTH(REGEXP_EXTRACT_ALL(text, "
    "'[A-Za-z]+|[0-9]{1,3}|[^A-Za-z0-9\\s]'))) AS BIGINT) AS sum_bpe_tokens "
    "FROM d GROUP BY lang"))
def docs_prep_pipeline(sf_dir: str) -> "ray.data.Dataset":
    """Realistic training-corpus prep CHAIN in one query — the composition
    a reference user would actually run: quality filter → exact dedup
    (first-wins by content) → BPE token count → per-language rollup.

    Scale shape: ONE map stage computes metrics, filter, 128-bit digest
    and token count (all row-local, before any shuffle); only
    (digest, doc_id, lang, n_bpe) ever shuffles — never text; the final
    rollup is the combiner-first grouped_sum.  Oracle: the same chain as
    a DuckDB CTE over the proven doc_quality / doc_token_bpe SQL pieces.
    """
    from zeeklog_ray.ops.text import corpus_prep

    return corpus_prep(read_table(sf_dir, "documents",
                                  columns=["doc_id", "text", "lang"]))


@query(oracle=(
    f"SELECT doc_id, LENGTH({_WORDS_SQL}) AS n_words FROM documents"))
def doc_word_counts(sf_dir: str) -> "ray.data.Dataset":
    """Token counting (whitespace tokens) per document — text-analysis op."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def count(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": batch["doc_id"],
                             "n_words": batch["text"].str.count(r"[^ ]+").astype("int64")})

    return ds.map_batches(count, batch_format="pandas", batch_size=None)


@query(rows_only="approximate by design (bounded rank error); the exact twin "
                 "event_value_quantiles is oracle-checked")
def event_value_quantiles_sketch(sf_dir: str) -> pd.DataFrame:
    """Approximate quantiles of the continuous ``value`` column via the
    mergeable rank-sample sketch (ops/sketch.approx_quantiles): one ≤8 KB
    sketch row per batch, driver merge — the streaming shape for columns
    whose distinct-value histogram would not fit the driver.  No oracle
    (approximate by design); rank error ≤ ~3/512 pytest-gated, and the
    exact twin ``event_value_quantiles`` pins the discrete semantics."""
    from zeeklog_ray.ops.sketch import approx_quantiles

    ds = read_table(sf_dir, "events", columns=["value"])
    return approx_quantiles(ds, "value", [0.1, 0.5, 0.9, 0.99])


# linear-idf in integer arithmetic: score = (tf * N * 10^4) // df
@query(oracle=(
    "WITH n AS (SELECT source, COUNT(*) AS nd FROM documents "
    "GROUP BY source), "
    "e AS (SELECT source, doc_id, UNNEST(regexp_extract_all("
    "lower(text), '[a-z0-9]+')) AS term FROM documents), "
    "a AS (SELECT source, term, COUNT(*) AS tf, "
    "COUNT(DISTINCT doc_id) AS df FROM e GROUP BY 1, 2), "
    "s AS (SELECT a.source, term, CAST(tf AS BIGINT) AS tf, "
    "CAST(df AS BIGINT) AS df, "
    "CAST((tf * nd * 10000) // df AS BIGINT) AS score_e4, "
    "ROW_NUMBER() OVER (PARTITION BY a.source ORDER BY "
    "(tf * nd * 10000) // df DESC, term) AS rn "
    "FROM a JOIN n ON a.source = n.source) "
    "SELECT source, term, tf, df, score_e4 FROM s WHERE rn <= 10"))
def docs_top_terms(sf_dir: str) -> "ray.data.Dataset":
    """Top-10 characteristic terms per source by linear-idf tf-idf in
    exact integer math (ops/text.top_terms_per_source); the per-source doc
    counts are a tiny separate aggregate broadcast into scoring."""
    from zeeklog_ray.ops.text import top_terms_per_source

    counts = small_table(sf_dir, "documents", columns=["source"]) \
        .value_counts("source").to_dict()
    ds = read_table(sf_dir, "documents",
                    columns=["doc_id", "text", "source"])
    return top_terms_per_source(ds, counts, k=10)


_HIST_CASE = ("CASE WHEN n_chars < 64 THEN 'hist_0_64' "
              "WHEN n_chars < 128 THEN 'hist_64_128' "
              "WHEN n_chars < 256 THEN 'hist_128_256' "
              "WHEN n_chars < 512 THEN 'hist_256_512' "
              "WHEN n_chars < 1024 THEN 'hist_512_1024' "
              "ELSE 'hist_1024_inf' END")


@query(oracle=(
    f"SELECT {_HIST_CASE} AS bucket, COUNT(*) AS n "
    "FROM documents GROUP BY 1"))
def chars_histogram(sf_dir: str) -> "ray.data.Dataset":
    """Fixed-bucket histogram of document lengths (same buckets as the
    flagship n_tok histogram)."""
    ds = read_table(sf_dir, "documents", columns=["n_chars"])

    def bucketize(batch: pd.DataFrame) -> pd.DataFrame:
        b = np.digitize(batch["n_chars"], HIST_EDGES[1:])
        return pd.DataFrame({"bucket": pd.Series(b).map(dict(enumerate(HIST_COLUMNS)))})

    return grouped_sum(ds.map_batches(bucketize, batch_format="pandas", batch_size=None),
                       ["bucket"], count_as="n")


_SIM_RNG_SEED = 7
_SIM_DIM = 64


def _query_vector() -> np.ndarray:
    return np.round(np.random.default_rng(_SIM_RNG_SEED).normal(0, 1, _SIM_DIM), 4)


def _sim_vector_sql() -> str:
    return "CAST([" + ", ".join(f"{v:.4f}" for v in _query_vector()) + "] AS DOUBLE[])"


@query(oracle=(
    "SELECT vec_id, CAST(FLOOR(list_cosine_similarity("
    f"CAST(embedding AS DOUBLE[]), {_sim_vector_sql()}) * 10000) AS BIGINT)"
    " AS score_e4 FROM embeddings "
    "ORDER BY score_e4 DESC, vec_id LIMIT 10"))
def similarity_topk(sf_dir: str) -> "ray.data.Dataset":
    """Brute-force cosine top-10 over the embedding column: per-batch numpy
    matmul against the (broadcast) query vector + per-batch partial top-k,
    then a tiny global sort.  Scores floored at 1e-4 (integer ``score_e4``)
    in DOUBLE math so the oracle comparison is float-robust."""
    q = _query_vector()
    qn = q / np.linalg.norm(q)
    k = 10
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def score(batch: pa.Table) -> pa.Table:
        emb = batch["embedding"]
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        mat = emb.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        mat = mat.reshape(len(batch), -1)
        norms = np.linalg.norm(mat, axis=1)
        sims = (mat @ qn) / np.where(norms == 0, 1, norms)
        e4 = np.floor(sims * 10_000).astype(np.int64)
        top = np.argsort(-e4, kind="stable")[:k]  # partial top-k per batch
        return pa.table({
            "vec_id": pa.array(np.asarray(batch["vec_id"])[top]),
            "score_e4": pa.array(e4[top]),
        })

    scored = ds.map_batches(score, batch_format="pyarrow", batch_size=None)
    return top_k(scored, by=["score_e4", "vec_id"], descending=[True, False], k=k)


# --------------------------------------------------------------------------
# Extended ops: dedup / similarity / text analysis / sessionization
# --------------------------------------------------------------------------


@query(oracle=(
    "SELECT doc_id, n_chars, n_words, "
    "CAST(FLOOR(n_nonspace * 10000.0 / CASE WHEN n_words = 0 THEN 1 ELSE n_words END) AS BIGINT) AS avg_word_len_e4, "
    "CAST(FLOOR(n_punct * 10000.0 / CASE WHEN n_chars = 0 THEN 1 ELSE n_chars END) AS BIGINT) AS punct_ratio_e4, "
    "CAST(FLOOR(n_stop * 10000.0 / CASE WHEN n_words = 0 THEN 1 ELSE n_words END) AS BIGINT) AS stopword_ratio_e4 "
    "FROM (SELECT doc_id, CAST(LENGTH(text) AS BIGINT) AS n_chars, "
    f"{_N_WORDS_SQL}, "
    "CAST(LENGTH(REPLACE(text, ' ', '')) AS BIGINT) AS n_nonspace, "
    "CAST(LENGTH(REGEXP_REPLACE(text, '[\\w\\s]', '', 'g')) AS BIGINT) AS n_punct, "
    f"{_N_STOP_SQL} "
    "FROM documents)"))
def doc_quality(sf_dir: str) -> "ray.data.Dataset":
    """Quality scoring per document (ops/text.py) — int fixed-point ratios."""
    from zeeklog_ray.ops.text import quality_metrics

    return quality_metrics(read_table(sf_dir, "documents", columns=["doc_id", "text"]))


@query(oracle=(
    "SELECT doc_id, CAST(LENGTH(REGEXP_EXTRACT_ALL(text, "
    "'[A-Za-z]+|[0-9]{1,3}|[^A-Za-z0-9\\s]')) AS BIGINT) AS n_bpe_tokens "
    "FROM documents"))
def doc_token_bpe(sf_dir: str) -> "ray.data.Dataset":
    """BPE-ish token counting (ops/text.py)."""
    from zeeklog_ray.ops.text import token_counts

    return token_counts(read_table(sf_dir, "documents", columns=["doc_id", "text"]))


def _langid_oracle_sql() -> str:
    """SQL replica of ops.text.LangId: per-language stopword hit counts over
    the same word tokenization, argmax with alphabetical tie-break, 0 hits →
    'unknown'.  The >= cascade in language order (de,en,es,fr) picks the
    alphabetically-first maximum, matching numpy argmax over sorted langs."""
    from zeeklog_ray.ops.text import STOPWORDS

    langs = sorted(STOPWORDS)   # de, en, es, fr
    counts = ", ".join(
        "LENGTH(LIST_FILTER(ws, x -> x IN ("
        + ", ".join(f"'{w}'" for w in sorted(STOPWORDS[lang]))
        + f"))) AS n_{lang}"
        for lang in langs)
    case = ("CASE WHEN GREATEST(n_de, n_en, n_es, n_fr) = 0 THEN 'unknown' "
            "WHEN n_de >= n_en AND n_de >= n_es AND n_de >= n_fr THEN 'de' "
            "WHEN n_en >= n_es AND n_en >= n_fr THEN 'en' "
            "WHEN n_es >= n_fr THEN 'es' ELSE 'fr' END")
    return (f"SELECT doc_id, {case} AS lang_pred FROM "
            f"(SELECT doc_id, {counts} FROM "
            "(SELECT doc_id, regexp_extract_all(lower(text), "
            "'[a-zäöüßéèàùâêîôûñ]+') AS ws FROM documents))")


@query(oracle=_langid_oracle_sql())
def doc_lang_id(sf_dir: str) -> "ray.data.Dataset":
    """Language-ID heuristic (map stage); accuracy asserted in pytest."""
    from zeeklog_ray.ops.text import lang_id

    return lang_id(read_table(sf_dir, "documents", columns=["doc_id", "text"]))


# rolling k-gram winnowing fingerprint, replayed exactly in SQL:
# Horner base-1000003 over the 8-byte window with mod-2^64 HUGEINT
# arithmetic at every step (matches numpy uint64 wraparound), min over
# windows, then two's-complement fold to BIGINT (ASCII text: ord ==
# utf-8 byte — asserted by the corpus generator's charset)
@query(oracle=(
    f"SELECT doc_id, {_int64_sql('m')} AS fingerprint FROM ("
    f"SELECT doc_id, COALESCE(list_min({_byte_hashes_sql(8)}), 0::HUGEINT) "
    "AS m FROM documents)"))
def doc_fingerprints(sf_dir: str) -> "ray.data.Dataset":
    """Rolling-hash document fingerprints (ops/text.py)."""
    from zeeklog_ray.ops.text import fingerprints

    return fingerprints(read_table(sf_dir, "documents", columns=["doc_id", "text"]))


@query(rows_only="the 64-permutation SQL replay takes over 5 min in DuckDB; "
                 "minhash_dedup_pairs_small hash-checks the same code path")
def minhash_dedup_pairs(sf_dir: str) -> "ray.data.Dataset":
    """MinHash+LSH near-duplicate candidate pairs (ops/dedup.py).

    Rows-only for the driver: the bit-exact SQL replay of the
    64-permutation MinHash (the doc_simhash Horner-mod-2^64 technique)
    measures >5 min in DuckDB at sf0.01 — too slow for a gate.  The SAME
    code path IS hash-checked at 16 perms × 4 bands by
    minhash_dedup_pairs_small; the full-perm strong checks are the
    planted-dup recall test (test_ops_dedup.py, ≥0.9) and the
    embedding_cosine near-dup analog (oracle-checked)."""
    from zeeklog_ray.ops.dedup import minhash_lsh_pairs

    return minhash_lsh_pairs(read_table(sf_dir, "documents",
                                        columns=["doc_id", "text"]))


def _minhash_pairs_cte(num_perm: int = 16, bands: int = 4, k: int = 5,
                       max_bucket: int = 512) -> str:
    """Bit-exact SQL replay of ops.dedup.minhash_lsh_pairs as a WITH-clause
    body (ends in relation ``mh_pairs(doc_a, doc_b)``): the same k-byte
    rolling shingle hashes (Horner base-1000003 mod 2^64 — the
    doc_simhash / doc_fingerprints technique), the same (a·x+b) mod 2^64
    permutations (constants from _minhash_params, embedded as literals),
    the same per-band Horner fold XOR band constant, the oversized-bucket
    guard, and the ordered-distinct self-join.  HUGEINT carries the mod-
    2^64 arithmetic; bb folds to two's-complement BIGINT exactly like the
    numpy int64 view.  ASCII corpus ⇒ ord == utf-8 byte (asserted by the
    generator's charset)."""
    return (
        _mh_banded_cte("documents", "", num_perm, bands, k) + ", "
        f"big AS (SELECT bb FROM banded GROUP BY bb HAVING COUNT(*) > "
        f"{max_bucket}), "
        "bandok AS (SELECT * FROM banded WHERE bb NOT IN "
        "(SELECT bb FROM big)), "
        # MATERIALIZED: the recursive-CTE consumer re-references mh_pairs
        # per iteration — without the hint DuckDB re-evaluates the whole
        # minhash pipeline each round (measured 143 s vs 17 s)
        "mh_pairs AS MATERIALIZED (SELECT DISTINCT a.doc_id AS doc_a, "
        "b.doc_id AS doc_b "
        "FROM bandok a JOIN bandok b ON a.bb = b.bb AND a.doc_id < b.doc_id)")


@query(oracle=(
    "WITH " + _minhash_pairs_cte() + " SELECT doc_a, doc_b FROM mh_pairs"))
def minhash_dedup_pairs_small(sf_dir: str) -> "ray.data.Dataset":
    """MinHash+LSH pairs at ORACLE-FEASIBLE scale: the same code path as
    minhash_dedup_pairs (minhash_lsh_pairs), but 16 permutations × 4 bands
    instead of 64 × 8 — small enough for a bit-exact DuckDB replay (~17 s,
    on par with doc_simhash; the 64-perm replay measures >5 min).  This
    closes the hash gate on the exact banding/bucketing/join logic; the
    full-perm variant stays recall-tested in pytest."""
    from zeeklog_ray.ops.dedup import minhash_lsh_pairs

    return minhash_lsh_pairs(read_table(sf_dir, "documents",
                                        columns=["doc_id", "text"]),
                             num_perm=16, bands=4)


# the same pair set resolved into components with a recursive-CTE
# closure (the embedding_dup_components technique over MinHash pairs)
@query(oracle=(
    "WITH RECURSIVE " + _minhash_pairs_cte() +
    ", ed AS (SELECT doc_a AS a, doc_b AS b FROM mh_pairs "
    "UNION ALL SELECT doc_b, doc_a FROM mh_pairs), "
    "nodes AS (SELECT DISTINCT a AS node FROM ed), "
    "walk(node, label) AS (SELECT node, node FROM nodes "
    "UNION SELECT e.b, w.label FROM walk w JOIN ed e ON e.a = w.node) "
    "SELECT node, CAST(MIN(label) AS BIGINT) AS component "
    "FROM walk GROUP BY node"))
def near_dup_components_small(sf_dir: str) -> "ray.data.Dataset":
    """Duplicate-group resolution over the ORACLE-CHECKED MinHash pair set
    (16 perms × 4 bands): connected components via min-label propagation,
    replayed in SQL as a recursive-CTE closure over the same pairs — the
    hash gate for the MinHash → components composition that
    near_dup_components runs at full permutation count."""
    from zeeklog_ray.ops.dedup import minhash_lsh_pairs
    from zeeklog_ray.ops.graph import connected_components

    pairs = minhash_lsh_pairs(read_table(sf_dir, "documents",
                                         columns=["doc_id", "text"]),
                              num_perm=16, bands=4)
    return connected_components(pairs)


def _ngram_jaccard_oracle_sql(threshold_e4: int, k: int = 5) -> str:
    """Bit-exact SQL replay of ops.dedup.ngram_jaccard_dedup_pairs: the
    16-perm × 4-band LSH candidate CTE (shared with
    minhash_dedup_pairs_small), then per-candidate-doc DISTINCT character
    k-grams via substring (ASCII corpus ⇒ char grams == byte grams), exact
    integer intersection/union, and the same fixed-point filter
    ``10000*inter >= t_e4*union`` with ``j_e4 = (10000*inter) // union``
    (DuckDB ``//`` == Python ``//`` for non-negative ints)."""
    return (
        "WITH " + _minhash_pairs_cte() + ", "
        "cand_docs AS (SELECT doc_a AS doc_id FROM mh_pairs "
        "UNION SELECT doc_b FROM mh_pairs), "
        "g AS (SELECT DISTINCT d.doc_id, substring(d.text, s.i, "
        f"{k}) AS gram FROM documents d JOIN cand_docs USING (doc_id), "
        f"LATERAL (SELECT unnest(range(1, length(d.text) - {k - 2})) AS i) s "
        f"WHERE length(d.text) >= {k}), "
        "sizes AS (SELECT doc_id, count(*) AS n FROM g GROUP BY doc_id), "
        "it AS (SELECT p.doc_a, p.doc_b, count(*) AS inter "
        "FROM mh_pairs p JOIN g ga ON ga.doc_id = p.doc_a "
        "JOIN g gb ON gb.doc_id = p.doc_b AND gb.gram = ga.gram "
        "GROUP BY 1, 2) "
        "SELECT doc_a, doc_b, CAST((10000 * inter) // "
        "(sa.n + sb.n - inter) AS BIGINT) AS j_e4 "
        "FROM it JOIN sizes sa ON sa.doc_id = it.doc_a "
        "JOIN sizes sb ON sb.doc_id = it.doc_b "
        f"WHERE 10000 * inter >= {threshold_e4} * (sa.n + sb.n - inter)")


@query(oracle=_ngram_jaccard_oracle_sql(_JACCARD_THRESHOLD_E4))
def ngram_jaccard_dups(sf_dir: str) -> "ray.data.Dataset":
    """n-gram Jaccard near-dup pairs: MinHash+LSH candidates (the oracle-
    feasible 16-perm × 4-band configuration — same as
    minhash_dedup_pairs_small) verified with EXACT integer byte-5-gram
    Jaccard, J >= 0.5 (ops/dedup.py).  The full dedup tier the brief asks
    for: candidates are approximate, the SURVIVING PAIR SET is exact given
    the candidates, and the whole composition is bit-replayed in SQL."""
    from zeeklog_ray.ops.dedup import ngram_jaccard_dedup_pairs

    return ngram_jaccard_dedup_pairs(
        read_table(sf_dir, "documents", columns=["doc_id", "text"]),
        threshold_e4=_JACCARD_THRESHOLD_E4, num_perm=16, bands=4)


# 64-bit SimHash replayed exactly in SQL: the k=5 rolling hashes (same
# Horner mod-2^64 as doc_fingerprints below), then per-bit majority
# vote (bit set iff 2·#set > #windows) folded back to BIGINT.  The
# heaviest oracle (~17 s at sf0.01: ~16M lambda evaluations) — the
# price of bit-exact SQL replay of a custom sketch.
@query(oracle=(
    f"WITH h AS (SELECT doc_id, {_byte_hashes_sql(5)} AS hs FROM documents) "
    f"SELECT doc_id, {_int64_sql('m')} AS simhash FROM ("
    "SELECT doc_id, COALESCE(list_sum(list_transform(range(0, 64), "
    "b -> CASE WHEN 2*len(list_filter(hs, "
    "x -> ((x // (2::HUGEINT ** b)::HUGEINT) % 2) = 1)) > len(hs) "
    "THEN (2::HUGEINT ** b)::HUGEINT ELSE 0::HUGEINT END)), 0::HUGEINT) "
    "AS m FROM h)"))
def doc_simhash(sf_dir: str) -> "ray.data.Dataset":
    """64-bit SimHash signatures (ops/dedup.py)."""
    from zeeklog_ray.ops.dedup import simhash_signatures

    return simhash_signatures(read_table(sf_dir, "documents",
                                         columns=["doc_id", "text"]))


_NEAR_DUP_THRESHOLD_E4 = 3500


@query(oracle=(
    "SELECT a.vec_id AS id_a, b.vec_id AS id_b, "
    "CAST(FLOOR(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), "
    "CAST(b.embedding AS DOUBLE[])) * 10000) AS BIGINT) AS cos_e4 "
    "FROM embeddings a JOIN embeddings b "
    "ON a.label = b.label AND a.vec_id < b.vec_id "
    "WHERE CAST(FLOOR(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), "
    "CAST(b.embedding AS DOUBLE[])) * 10000) AS BIGINT) >= 3500"))
def embedding_near_dups(sf_dir: str) -> "ray.data.Dataset":
    """Embedding-cosine near-dup pairs within label blocks (ops/dedup.py)."""
    from zeeklog_ray.ops.dedup import embedding_cosine_pairs

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding", "label"])
    return embedding_cosine_pairs(ds, _NEAR_DUP_THRESHOLD_E4, block_col="label")


@query(rows_only="multi-probe cluster blocking is approximate; planted-dup "
                 "recall is pytest-gated")
def semantic_dedup(sf_dir: str) -> "ray.data.Dataset":
    """Cluster-blocked semantic near-dup pairs (ops/dedup.py
    semantic_dedup_pairs): sample-trained coarse quantizer → top-2-probe
    assignment → per-cluster cosine all-pairs → bucketed pair distinct.
    The scale path where no natural blocking column (label) exists.
    Rows-only by design (multi-probe blocking is approximate); recall on
    planted near-dups is pytest-gated in tests/test_ops_dedup.py."""
    from zeeklog_ray.ops.dedup import semantic_dedup_pairs

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return semantic_dedup_pairs(ds, _NEAR_DUP_THRESHOLD_E4, n_clusters=8,
                                n_probes=2)


# bit-exact splitmix64 train/val/test banding (ops/sample.py CTE)
@query(oracle=_sample_sql.split_assign_sql(
    "documents", "doc_id", "doc_id, source",
    {"train": 0.8, "val": 0.1, "test": 0.1}))
def docs_split_assign(sf_dir: str) -> "ray.data.Dataset":
    """Deterministic 80/10/10 train/val/test assignment over doc_id
    (ops/sample.split_assign): row-local splitmix64 banding, stable
    across runs and block splits, replayed bit-exactly by the HUGEINT
    SQL oracle."""
    from zeeklog_ray.ops.sample import split_assign

    return split_assign(
        read_table(sf_dir, "documents", columns=["doc_id", "source"]),
        "doc_id", {"train": 0.8, "val": 0.1, "test": 0.1})


@query(oracle=(
    "SELECT user_id, CAST(1 + SUM(CASE WHEN prev_ts IS NOT NULL AND "
    "ts - prev_ts > INTERVAL 30 MINUTE THEN 1 ELSE 0 END) AS BIGINT) "
    "AS n_sessions, CAST(COUNT(*) AS BIGINT) AS n_events "
    "FROM (SELECT user_id, ts, LAG(ts) OVER "
    "(PARTITION BY user_id ORDER BY ts) AS prev_ts FROM events) "
    "GROUP BY user_id"))
def event_sessions(sf_dir: str) -> "ray.data.Dataset":
    """Gap sessionization (30 min) per user (ops/sessionize.py)."""
    from zeeklog_ray.ops.sessionize import session_counts

    return session_counts(read_table(sf_dir, "events", columns=["user_id", "ts"]))


@query(oracle=(
    "SELECT event_id, user_id, epoch_us(ts) AS ts_us, "
    "COALESCE(epoch_us(ts) - LAG(epoch_us(ts)) OVER w, -1) "
    "AS prev_gap_us, "
    "COALESCE(LEAD(epoch_us(ts)) OVER w - epoch_us(ts), -1) "
    "AS next_gap_us FROM events "
    "WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)"))
def event_lead_lag(sf_dir: str) -> "ray.data.Dataset":
    """Per-user LAG/LEAD inter-arrival gaps (ops/sessionize.lead_lag):
    for every event, microsecond gaps to the previous and next event of
    the same user in (ts, event_id) order, -1 at sequence boundaries so
    the output stays pure int64 for the bit-exact SQL window replay."""
    from zeeklog_ray.ops.sessionize import lead_lag

    ev = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    out = lead_lag(ev, key="user_id", ts="ts", order_extra=["event_id"])

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        # unit-safe epoch-us (the event_sliding_windows pattern); NaT
        # neighbors → -1 via the notna mask, keeping pure int64 output
        ts_us = batch["ts"].to_numpy("datetime64[us]").astype("int64")

        def gap(col: str, sign: int) -> np.ndarray:
            v = batch[col]
            vi = v.to_numpy("datetime64[us]").astype("int64")
            d = (vi - ts_us) if sign > 0 else (ts_us - vi)
            return np.where(v.notna().to_numpy(), d, -1)

        return pd.DataFrame({
            "event_id": batch["event_id"].astype("int64"),
            "user_id": batch["user_id"].astype("int64"),
            "ts_us": ts_us,
            "prev_gap_us": gap("prev_ts", -1),
            "next_gap_us": gap("next_ts", +1),
        })

    return out.map_batches(finish, batch_format="pandas", batch_size=None)


@query(oracle=(
    "SELECT l.event_id, l.user_id, "
    "CAST(ROUND(r.value * 100) AS BIGINT) AS prior_view_cents "
    "FROM (SELECT * FROM events WHERE event_type = 'purchase') l "
    "ASOF JOIN (SELECT * FROM events WHERE event_type = 'view') r "
    "ON l.user_id = r.user_id AND l.ts >= r.ts"))
def purchase_prior_view(sf_dir: str) -> "ray.data.Dataset":
    """As-of join: for each purchase event, the value (cents) of the same
    user's latest prior view event (ops/sessionize.py).

    Returns the Dataset — the result is ONE ROW PER PURCHASE EVENT, i.e.
    event-scale, so the dropna + casts run as a streaming ``map_batches``
    finish stage (like event_sliding_windows), never a driver
    ``to_pandas``."""
    from zeeklog_ray.ops.sessionize import asof_join

    ev = read_table(sf_dir, "events",
                    columns=["event_id", "user_id", "event_type", "ts", "value"])

    def prep(kind):
        def f(batch: pd.DataFrame) -> pd.DataFrame:
            batch = batch[batch["event_type"] == kind].copy()
            batch["value_cents"] = _round_half_away(batch["value"] * 100)
            cols = ["event_id", "user_id", "ts"] if kind == "purchase" else \
                ["user_id", "ts", "value_cents"]
            return batch[cols]

        return f

    left = ev.map_batches(prep("purchase"), batch_format="pandas", batch_size=None)
    right = ev.map_batches(prep("view"), batch_format="pandas", batch_size=None)
    joined = asof_join(left, right, key="user_id", ts="ts",
                       right_cols=["value_cents"])

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.dropna(subset=["value_cents"])  # inner as-of semantics
        return pd.DataFrame({
            "event_id": out["event_id"].astype("int64"),
            "user_id": out["user_id"].astype("int64"),
            "prior_view_cents": out["value_cents"].astype("int64")})

    return joined.map_batches(finish, batch_format="pandas", batch_size=None)


@query(oracle=(
    "SELECT e.user_id, CAST(COUNT(*) AS BIGINT) AS n_first_day "
    "FROM events e JOIN (SELECT user_id, MIN(ts) AS t0 FROM events "
    "GROUP BY user_id) f ON e.user_id = f.user_id "
    "AND e.ts >= f.t0 AND e.ts <= f.t0 + INTERVAL 24 HOUR "
    "GROUP BY e.user_id"))
def events_first_day(sf_dir: str) -> "ray.data.Dataset":
    """Range (interval) join: per user, how many of their events fall
    within 24 h of their FIRST event — per-user [t0, t0+24h] intervals
    (bucketed grouped min) range-joined back to the event stream
    (ops/sessionize.range_join), then a grouped count."""
    from zeeklog_ray.ops.sessionize import range_join
    from zeeklog_ray.relational import bucketed_group_min

    ev = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    first = bucketed_group_min(
        ev.map_batches(lambda df: df[["user_id", "ts"]]
                       .rename(columns={"ts": "t0"}),
                       batch_format="pandas", batch_size=None),
        "user_id", "t0")

    def mk_interval(batch: pd.DataFrame) -> pd.DataFrame:
        batch["t_end"] = batch["t0"] + pd.Timedelta(hours=24)
        return batch

    intervals = first.map_batches(mk_interval, batch_format="pandas",
                                  batch_size=None)
    joined = range_join(ev, intervals, key="user_id", ts="ts",
                        start="t0", end="t_end")
    return grouped_sum(joined.select_columns(["user_id"]), ["user_id"],
                       count_as="n_first_day")


@query(rows_only="approximate by design (LSH bucket probes); recall against "
                 "brute force is pytest-gated")
def ann_lsh_topk(sf_dir: str) -> pd.DataFrame:
    """LSH-bucketed approximate nearest neighbors (ops/similarity.py);
    recall vs brute force asserted in pytest."""
    from zeeklog_ray.ops.similarity import lsh_bucketed_topk

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return lsh_bucketed_topk(ds, _query_vector(), k=10)


# multimodal plumbing gate: both sides read the SAME media parquet;
# identity + payload size are SQL-expressible, decode features not
@query(oracle=lambda sf_dir: (
    "SELECT item_id, modality, octet_length(payload) AS n_bytes "
    f"FROM read_parquet('{media_parquet_path(sf_dir)}')"))
def media_features(sf_dir: str) -> "ray.data.Dataset":
    """Multimodal pipeline: Parquet corpus of REAL encoded payloads
    (24-bit BMP / PCM-16 WAV / raw-frame video) → map-stage decode +
    feature extraction with pure-numpy codecs (ops/multimodal.py); only
    codec'd formats (JPEG/MP3/H.264) remain a documented library seam.
    The DuckDB oracle reads the SAME parquet (decode features are not
    SQL-expressible; identity + payload size are, and gate the plumbing)."""
    import ray.data as rd

    from zeeklog_ray.ops.multimodal import (
        extract_features,
        media_parquet_for_sf_dir,
    )

    ds = rd.read_parquet(media_parquet_for_sf_dir(sf_dir))
    return extract_features(ds).drop_columns(["features"])


# resize plumbing gate: images only, ids preserved, exact BMP
# output size = 54 + out_h·(out_w·3 rounded up to 4 bytes)
@query(oracle=lambda sf_dir: (
    "SELECT item_id, CAST(32 AS BIGINT) AS out_w, "
    "CAST(24 AS BIGINT) AS out_h, "
    f"CAST({54 + 24 * ((32 * 3 + 3) // 4 * 4)} AS BIGINT) AS n_bytes "
    f"FROM read_parquet('{media_parquet_path(sf_dir)}') "
    "WHERE modality = 'image'"))
def media_resized(sf_dir: str) -> "ray.data.Dataset":
    """Map-stage image resize (ops/multimodal.resize_image — vectorized
    bilinear, half-pixel-center convention) over the media corpus: decode
    BMP/PNG → 32×24 → re-encode BMP.  Like media_features, the oracle
    gates the SQL-expressible surface — image routing, id preservation,
    and the encoder's exact output size (54-byte header + 4-aligned
    rows); the pixel math is pinned by tests/test_ops_multimodal.py."""
    import ray.data as rd

    from zeeklog_ray.ops.multimodal import (
        media_parquet_for_sf_dir,
        resize_images,
    )

    ds = rd.read_parquet(media_parquet_for_sf_dir(sf_dir))
    return resize_images(ds, out_w=32, out_h=24).drop_columns(["payload"])


def media_jpeg_features(sf_dir: str) -> "ray.data.Dataset":
    """Registered ONLY when Pillow imports (ops/mediacodec.HAS_PIL —
    VERDICT r3 item 7): the media corpus with image payloads re-encoded
    as JPEG, run through the format-sniffing ``real`` decoder tier, so
    the codec adapter is certified end-to-end where the library exists.
    Rows-only by design (JPEG decode is not SQL-expressible); decoder
    parity is pytest-gated in tests/test_mediacodec.py (skipped where
    Pillow is absent, e.g. this container)."""
    import ray.data as rd

    from zeeklog_ray.ops.mediacodec import jpeg_media_parquet_for_sf_dir
    from zeeklog_ray.ops.multimodal import extract_features

    ds = rd.read_parquet(jpeg_media_parquet_for_sf_dir(sf_dir))
    return extract_features(ds, decoder="real").drop_columns(["features"])


# registered only where Pillow imports, so no one samples a query that raises
# by design (ops/mediacodec.py keeps the NotImplementedError seam)
if _HAS_PIL:  # pragma: no cover - needs Pillow
    query(rows_only="JPEG decode is not SQL-expressible; decoder parity is "
                    "pytest-gated where Pillow imports")(media_jpeg_features)


@query(oracle=lambda sf_dir: _zeek_z(sf_dir) + (
    "SELECT MIN(date) AS date, id_orig_h FROM "
    "(SELECT DISTINCT date, p[3] AS id_orig_h FROM z "
    f"WHERE src IN {_CONN_SQL}) GROUP BY id_orig_h"))
def zeek_multiday_first_wins(sf_dir: str) -> "ray.data.Dataset":
    """Reference E2 semantics (main.rs:301-334): per-day summaries unioned
    over the date range, first-wins dedup per source address (ops/dedup.py
    first_wins on the earliest date)."""
    from zeeklog_ray.ops.dedup import first_wins

    corpus = corpus_for_sf_dir(sf_dir)
    per_day = distinct_column(
        build_dataset(PipelineConfig(corpus_dir=corpus)), "id_orig_h", by=["date"])
    return first_wins(per_day, key="id_orig_h", order_col="date")


# Same-label cos≥threshold pair set (id_a < id_b) — consumed by the
# graph-metric oracles.
_EMB_PAIRS = (
    "pairs AS ("
    "SELECT a.vec_id AS id_a, b.vec_id AS id_b "
    "FROM embeddings a JOIN embeddings b "
    "ON a.label = b.label AND a.vec_id < b.vec_id "
    "WHERE CAST(FLOOR(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), "
    "CAST(b.embedding AS DOUBLE[])) * 10000) AS BIGINT) >= 3500)")
_EMB_PAIRS_CTE = "WITH " + _EMB_PAIRS

# Recursive-CTE closure over that pair graph — `comp` is (node,
# component=min reachable id); consumed by the embedding_dup_components
# and dup_cluster_canonical oracles.
_EMB_COMP_CTE = (
    "WITH RECURSIVE " + _EMB_PAIRS + ", "
    "ed AS (SELECT id_a AS a, id_b AS b FROM pairs "
    "UNION ALL SELECT id_b, id_a FROM pairs), "
    "nodes AS (SELECT DISTINCT a AS node FROM ed), "
    "walk(node, label) AS ("
    "SELECT node, node FROM nodes "
    "UNION "
    "SELECT e.b, w.label FROM walk w JOIN ed e ON e.a = w.node), "
    "comp AS (SELECT node, CAST(MIN(label) AS BIGINT) AS component "
    "FROM walk GROUP BY node)")


@query(oracle=(
    _EMB_COMP_CTE + " SELECT node, component FROM comp"))
def embedding_dup_components(sf_dir: str) -> "ray.data.Dataset":
    """Near-dup GROUP resolution with a hard oracle: embedding-cosine pairs
    (SQL-expressible) → connected components via min-label propagation
    (ops/graph.py); the oracle computes the same closure with a recursive
    CTE.  Complements near_dup_components (MinHash pairs, rows-only)."""
    from zeeklog_ray.ops.dedup import embedding_cosine_pairs
    from zeeklog_ray.ops.graph import connected_components

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding", "label"])
    pairs = embedding_cosine_pairs(ds, _NEAR_DUP_THRESHOLD_E4, block_col="label")
    return connected_components(pairs, a_col="id_a", b_col="id_b")


@query(oracle=(
    _EMB_COMP_CTE +
    " SELECT component, canonical, canonical_score, n_members FROM ("
    "SELECT c.component, d.doc_id AS canonical, "
    "d.n_chars AS canonical_score, "
    "CAST(COUNT(*) OVER (PARTITION BY c.component) AS BIGINT) "
    "AS n_members, "
    "ROW_NUMBER() OVER (PARTITION BY c.component "
    "ORDER BY d.n_chars DESC, d.doc_id) AS rn "
    "FROM comp c JOIN documents d ON c.node = d.doc_id) WHERE rn = 1"))
def dup_cluster_canonical(sf_dir: str) -> "ray.data.Dataset":
    """Quality-aware dedup policy (ops/graph.canonical_per_component):
    embedding-cosine dup components → keep the member with the most
    characters per cluster (tie → min id).  Oracle = the same recursive
    closure + a ROW_NUMBER window argmax."""
    from zeeklog_ray.ops.dedup import embedding_cosine_pairs
    from zeeklog_ray.ops.graph import (canonical_per_component,
                                       connected_components)

    emb = read_table(sf_dir, "embeddings",
                     columns=["vec_id", "embedding", "label"])
    pairs = embedding_cosine_pairs(emb, _NEAR_DUP_THRESHOLD_E4,
                                   block_col="label")
    comp = connected_components(pairs, a_col="id_a", b_col="id_b")
    docs = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return canonical_per_component(comp, docs, meta_key="doc_id",
                                   score_col="n_chars")


@query(rows_only="the 64-permutation SQL replay takes over 5 min in DuckDB; "
                 "near_dup_components_small hash-checks the same code path")
def near_dup_components(sf_dir: str) -> "ray.data.Dataset":
    """MinHash-LSH candidate pairs resolved into duplicate groups via
    distributed min-label propagation (ops/graph.py)."""
    from zeeklog_ray.ops.dedup import minhash_lsh_pairs
    from zeeklog_ray.ops.graph import connected_components

    pairs = minhash_lsh_pairs(read_table(sf_dir, "documents",
                                         columns=["doc_id", "text"]))
    return connected_components(pairs)


@query(rows_only="HyperLogLog estimate over the pandas SipHash cannot "
                 "hash-match an exact count; its accuracy is pytest-gated")
def approx_distinct_users(sf_dir: str) -> pd.DataFrame:
    """HyperLogLog approximate distinct user count over events
    (ops/sketch.py); accuracy asserted in pytest, rows-only here (approx
    results cannot hash-match an exact oracle)."""
    from zeeklog_ray.ops.sketch import approx_distinct

    est = approx_distinct(read_table(sf_dir, "events", columns=["user_id"]),
                          "user_id")
    return pd.DataFrame({"n_users_approx": [est]})


@query(oracle=(
    "SELECT event_type, CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) "
    "AS BIGINT) AS sum_value_cents FROM events GROUP BY event_type"))
def salted_events_sum(sf_dir: str) -> "ray.data.Dataset":
    """Explicit salted two-phase grouped sum (hot-key mitigation,
    aggregate.salted_groupby_sum) — exact result, oracle-checked."""
    from zeeklog_ray.aggregate import salted_groupby_sum

    ev = read_table(sf_dir, "events", columns=["event_type", "value"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_type": batch["event_type"],
                             "value_cents": _round_half_away(batch["value"] * 100)})

    return salted_groupby_sum(ev.map_batches(prep, batch_format="pandas",
                                             batch_size=None),
                              "event_type", "value_cents")


@query(oracle=(
    "SELECT user_id, epoch_us(ts) AS ts_us, "
    "CAST(COUNT(*) OVER w AS BIGINT) AS w_count, "
    "CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) OVER w AS BIGINT) "
    "AS w_sum_cents FROM events "
    "WINDOW w AS (PARTITION BY user_id ORDER BY ts "
    "RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)"))
def event_sliding_windows(sf_dir: str) -> "ray.data.Dataset":
    """Per-event trailing-1h window (count, cents sum) per user over the FULL
    events table — key-hash-bucketed groupby with a vectorized two-pointer
    per key segment (ops/streaming.trailing_windows), one hash shuffle, no
    driver loop, no per-user Python.  RANGE window semantics; oracle = the
    equivalent SQL window function."""
    from zeeklog_ray.ops.streaming import trailing_windows

    ev = read_table(sf_dir, "events", columns=["user_id", "ts", "value"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        batch["value_cents"] = _round_half_away(batch["value"] * 100)
        return batch[["user_id", "ts", "value_cents"]]

    prepped = ev.map_batches(prep, batch_format="pandas", batch_size=None)
    out = trailing_windows(prepped, key="user_id", ts="ts",
                           value="value_cents", window_seconds=3600)

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        # timestamps as int64 epoch-us so the oracle comparison is
        # format-independent
        return pd.DataFrame({
            "user_id": batch["user_id"],
            # unit-safe epoch-us (the parquet timestamps are us-precision)
            "ts_us": batch["ts"].to_numpy("datetime64[us]").astype("int64"),
            "w_count": batch["w_count"],
            "w_sum_cents": batch["w_sum"].astype("int64"),
        })

    return out.map_batches(finish, batch_format="pandas", batch_size=None)


@query(rows_only="approximate by design (coarse-quantizer probes); recall is "
                 "pytest-gated")
def ivf_ann_topk(sf_dir: str) -> pd.DataFrame:
    """IVF (coarse-quantizer) approximate nearest neighbors
    (ops/similarity.py); recall asserted in pytest."""
    from zeeklog_ray.ops.similarity import ivf_topk

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return ivf_topk(ds, _query_vector(), k=10, n_clusters=8, nprobe=3)


@query(oracle=(
    "SELECT event_id, CAST(json_extract(props, '$.k') AS BIGINT) AS k "
    "FROM events"))
def event_props_extract(sf_dir: str) -> "ray.data.Dataset":
    """JSON property extraction from the events props column — the live
    realization of the reference's naive JSON→record parser (F10,
    ip2location.rs:138-167), done vectorized (regex extract) instead of
    split-on-comma."""
    ds = read_table(sf_dir, "events", columns=["event_id", "props"])

    def extract(batch: pd.DataFrame) -> pd.DataFrame:
        k = batch["props"].str.extract(r'"k":\s*(-?\d+)')[0]
        return pd.DataFrame({"event_id": batch["event_id"],
                             "k": k.astype("int64")})

    return ds.map_batches(extract, batch_format="pandas", batch_size=None)


@query(oracle=(
    "SELECT o_orderkey, o_custkey FROM orders "
    "WHERE o_custkey IN (SELECT c_custkey FROM customer "
    "WHERE c_mktsegment = 'BUILDING')"))
def building_segment_orders(sf_dir: str) -> "ray.data.Dataset":
    """Broadcast SEMI join: orders whose customer is in the BUILDING market
    segment — key set broadcast, filtered inside map_batches (no shuffle;
    the guide's semi-join pattern)."""
    keys = set(small_table(sf_dir, "customer",
                           columns=["c_custkey", "c_mktsegment"])
               .query("c_mktsegment == 'BUILDING'")["c_custkey"])
    import ray as _ray

    ref = _ray.put(keys)
    ds = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])

    def semi(batch: pd.DataFrame) -> pd.DataFrame:
        ks = _ray.get(ref)
        return batch[batch["o_custkey"].isin(ks)]

    return ds.map_batches(semi, batch_format="pandas", batch_size=None)


@query(oracle=(
    "SELECT c_custkey, c_name FROM customer "
    "WHERE c_custkey NOT IN (SELECT o_custkey FROM orders "
    "WHERE o_orderpriority = '1-URGENT')"))
def customers_without_orders(sf_dir: str) -> "ray.data.Dataset":
    """Broadcast ANTI join: customers with no 1-URGENT orders — complement
    key set filtered inside map_batches, no shuffle."""
    o = small_table(sf_dir, "orders", columns=["o_custkey", "o_orderpriority"])
    keys = set(o.loc[o["o_orderpriority"] == "1-URGENT", "o_custkey"])
    import ray as _ray

    ref = _ray.put(keys)
    ds = read_table(sf_dir, "customer", columns=["c_custkey", "c_name"])

    def anti(batch: pd.DataFrame) -> pd.DataFrame:
        ks = _ray.get(ref)
        return batch[~batch["c_custkey"].isin(ks)]

    return ds.map_batches(anti, batch_format="pandas", batch_size=None)


@query(oracle=(
    "SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n FROM events "
    "GROUP BY user_id ORDER BY n DESC, user_id LIMIT 10"))
def event_heavy_hitters(sf_dir: str) -> pd.DataFrame:
    """Top-10 users by event count via the two-pass Misra-Gries heavy-hitter
    sketch (ops/sketch.heavy_hitters): bounded per-batch summaries → exact
    recount of candidates.  Exact (and oracle-checkable) because the
    candidate guarantee covers the top-k at this capacity; the LOSSY regime
    (capacity ≪ distinct keys) is pytest-gated with planted skew."""
    from zeeklog_ray.ops.sketch import heavy_hitters

    return heavy_hitters(read_table(sf_dir, "events", columns=["user_id"]),
                         "user_id", k=10, capacity=8192)


_QUANTILE_QS = [0.1, 0.5, 0.9, 0.99]


@query(oracle=(" UNION ALL ".join(
    f"SELECT CAST({q} AS DOUBLE) AS q, "
    f"quantile_disc(CAST(ROUND(value * 100) AS BIGINT), {q}) AS value "
    "FROM events" for q in _QUANTILE_QS)))
def event_value_quantiles(sf_dir: str) -> pd.DataFrame:
    """Exact p10/p50/p90/p99 of event value (cents) via the distributed
    value-histogram method (ops/sketch.exact_quantiles) — no global sort,
    only (value, count) rows cross the wire; DuckDB quantile_disc parity."""
    from zeeklog_ray.ops.sketch import exact_quantiles

    ev = read_table(sf_dir, "events", columns=["value"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"value_cents": _round_half_away(batch["value"] * 100)})

    return exact_quantiles(ev.map_batches(prep, batch_format="pandas",
                                          batch_size=None),
                           "value_cents", _QUANTILE_QS)


@query(oracle=(" UNION ALL ".join(
    f"SELECT event_type, CAST({q} AS DOUBLE) AS q, "
    f"quantile_disc(CAST(ROUND(value * 100) AS BIGINT), {q}) AS value "
    "FROM events GROUP BY event_type" for q in (0.5, 0.99))))
def event_type_quantiles(sf_dir: str) -> "ray.data.Dataset":
    """Per-event-type exact p50/p99 of value cents — the GROUPED variant of
    the value-histogram quantile method (ops/sketch.grouped_exact_quantiles),
    selection vectorized across keys per bucket."""
    from zeeklog_ray.ops.sketch import grouped_exact_quantiles

    ev = read_table(sf_dir, "events", columns=["event_type", "value"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_type": batch["event_type"],
                             "value_cents": _round_half_away(batch["value"] * 100)})

    return grouped_exact_quantiles(
        ev.map_batches(prep, batch_format="pandas", batch_size=None),
        "event_type", "value_cents", [0.5, 0.99])


@query(rows_only="approximate by design (bounded rank error); accuracy against "
                 "event_type_quantiles is pytest-gated")
def event_type_quantiles_sketch(sf_dir: str) -> pd.DataFrame:
    """Per-event-type APPROXIMATE p50/p99 via the grouped mergeable
    rank-sample sketch (ops/sketch.grouped_approx_quantiles) — the
    grouped twin of event_value_quantiles_sketch, for per-key value
    cardinalities where the exact value-histogram exchange would be
    row-scale.  Rows-only by design (bounded rank error, not equality);
    accuracy vs the exact twin `event_type_quantiles` is pytest-gated
    in tests/test_sketch_bloom.py."""
    from zeeklog_ray.ops.sketch import grouped_approx_quantiles

    return grouped_approx_quantiles(
        read_table(sf_dir, "events", columns=["event_type", "value"]),
        "event_type", "value", [0.5, 0.99])


# same integer fence arithmetic: (3 * IQR) // 2, DuckDB // = floor
@query(oracle=(
    "WITH prep AS (SELECT event_type, "
    "CAST(ROUND(value * 100) AS BIGINT) AS v FROM events), "
    "q AS (SELECT event_type, quantile_disc(v, 0.25) AS q25, "
    "quantile_disc(v, 0.75) AS q75 FROM prep GROUP BY event_type), "
    "b AS (SELECT event_type, q25 - (3 * (q75 - q25)) // 2 AS lo, "
    "q75 + (3 * (q75 - q25)) // 2 AS hi FROM q) "
    "SELECT p.event_type, CAST(b.lo AS BIGINT) AS lo, "
    "CAST(b.hi AS BIGINT) AS hi, CAST(COUNT(*) AS BIGINT) AS n, "
    "CAST(SUM(CASE WHEN p.v < b.lo OR p.v > b.hi THEN 1 ELSE 0 END) "
    "AS BIGINT) AS n_outliers "
    "FROM prep p JOIN b USING (event_type) "
    "GROUP BY p.event_type, b.lo, b.hi"))
def event_value_outliers(sf_dir: str) -> "ray.data.Dataset":
    """Per-event-type Tukey-fence outlier counts on value cents
    (ops/sketch.grouped_iqr_outliers): exact grouped quantiles → tiny
    broadcast bounds → row-local flag → combiner rollup, all in exact
    integer math against the quantile_disc SQL replay."""
    from zeeklog_ray.ops.sketch import grouped_iqr_outliers

    ev = read_table(sf_dir, "events", columns=["event_type", "value"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_type": batch["event_type"],
                             "value_cents": _round_half_away(batch["value"] * 100)})

    return grouped_iqr_outliers(
        ev.map_batches(prep, batch_format="pandas", batch_size=None),
        "event_type", "value_cents")


_BIG_EVENT_CENTS = 20_000     # $200 — sparse enough that EXCEPT is nonempty


def _event_users(sf_dir: str, kind: str,
                 min_cents: int | None = None) -> "ray.data.Dataset":
    import pyarrow as _pa
    import pyarrow.compute as _pc

    ev = read_table(sf_dir, "events",
                    columns=["user_id", "event_type", "value"])

    def keep(batch: _pa.Table) -> _pa.Table:
        mask = _pc.equal(batch["event_type"], kind)
        if min_cents is not None:
            # DuckDB ROUND parity: half away from zero is Arrow's
            # 'half_towards_infinity'
            cents = _pc.round(_pc.multiply(batch["value"], 100),
                              round_mode="half_towards_infinity")
            mask = _pc.and_(mask, _pc.greater_equal(cents, min_cents))
        return batch.filter(mask)

    return ev.map_batches(keep, batch_format="pyarrow", batch_size=None)


@query(oracle=(
    "SELECT user_id FROM events WHERE event_type = 'click' "
    "INTERSECT SELECT user_id FROM events WHERE event_type = 'purchase'"))
def users_click_and_purchase(sf_dir: str) -> "ray.data.Dataset":
    """INTERSECT: distinct users who both clicked and purchased
    (relational.set_op — tagged union + one bucketed shuffle)."""
    from zeeklog_ray.relational import set_op

    return set_op(_event_users(sf_dir, "click"),
                  _event_users(sf_dir, "purchase"), ["user_id"], "intersect")


@query(oracle=(
    "SELECT user_id FROM events WHERE event_type = 'view' "
    "AND CAST(ROUND(value * 100) AS BIGINT) >= 20000 "
    "EXCEPT SELECT user_id FROM events WHERE event_type = 'purchase' "
    "AND CAST(ROUND(value * 100) AS BIGINT) >= 20000"))
def users_big_view_no_big_purchase(sf_dir: str) -> "ray.data.Dataset":
    """EXCEPT: distinct users with a ≥$200 view event but no ≥$200
    purchase (relational.set_op)."""
    from zeeklog_ray.relational import set_op

    return set_op(_event_users(sf_dir, "view", _BIG_EVENT_CENTS),
                  _event_users(sf_dir, "purchase", _BIG_EVENT_CENTS),
                  ["user_id"], "except")


# floored-DOUBLE float policy (like cos_e4): AVG and the Ray-side
# sum/n agree to ~1e-10 of the 1e6 scale, far from any floor boundary
@query(oracle=(
    "SELECT label, pos, CAST(COUNT(*) AS BIGINT) AS n, "
    "CAST(FLOOR(AVG(CAST(embedding[CAST(pos AS INTEGER) + 1] AS DOUBLE))"
    " * 1000000) AS BIGINT) AS centroid_e6 "
    "FROM embeddings e, LATERAL (SELECT unnest(range(0, "
    "len(e.embedding))) AS pos) p GROUP BY label, pos"))
def embedding_label_centroids(sf_dir: str) -> "ray.data.Dataset":
    """Per-label embedding centroid, long format (label, pos, n,
    centroid_e6) — cluster-quality stats over the embedding column with
    only per-(label, dim) float64 sums ever shuffling
    (ops/similarity.label_centroids)."""
    from zeeklog_ray.ops.similarity import label_centroids

    return label_centroids(
        read_table(sf_dir, "embeddings", columns=["label", "embedding"]))


# bit-exact int8-quantization replay: identical float64 ops in the
# same order on both sides (cast→abs→max, then x/scale*127+0.5 floor)
@query(oracle=(
    "WITH s AS (SELECT vec_id, embedding, list_max(list_transform("
    "embedding, x -> abs(CAST(x AS DOUBLE)))) AS scale FROM embeddings) "
    "SELECT s.vec_id, CAST(p.pos AS BIGINT) AS pos, "
    "CAST(CASE WHEN s.scale = 0 THEN 0 ELSE FLOOR(CAST("
    "s.embedding[CAST(p.pos AS INTEGER) + 1] AS DOUBLE) / s.scale "
    "* 127.0 + 0.5) END AS BIGINT) AS q, "
    "CAST(FLOOR(s.scale * 1000000000) AS BIGINT) AS scale_e9 "
    "FROM s, LATERAL (SELECT unnest(range(0, len(s.embedding))) AS pos) p"))
def embedding_quantize(sf_dir: str) -> "ray.data.Dataset":
    """int8 symmetric quantization of the embedding table, exploded to
    long format (vec_id, pos, q, scale_e9) so the driver can hash every
    quantized cell AND the per-vector scale against a bit-exact DuckDB
    replay (ops/similarity.quantize_embeddings).  Both the quantize pass
    and the explode are row-local Arrow map_batches — no shuffle."""
    from zeeklog_ray.ops.similarity import quantize_embeddings

    q = quantize_embeddings(
        read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"]))

    def explode(batch: pa.Table) -> pa.Table:
        from zeeklog_ray.arrowutil import list_values_offsets

        vals, offs = list_values_offsets(batch["q"])
        vals = vals.astype(np.int64)
        n = np.diff(offs)
        pos = np.arange(len(vals), dtype=np.int64) - np.repeat(offs[:-1], n)
        return pa.table({
            "vec_id": np.repeat(batch["vec_id"].to_numpy(), n),
            "pos": pos,
            "q": vals,
            "scale_e9": np.floor(
                np.repeat(batch["scale"].to_numpy(), n) * 1e9).astype(np.int64),
        })

    return q.map_batches(explode, batch_format="pyarrow", batch_size=None)


# exact integer Gram of the quantized table: the quantize replay
# above feeding a pos<=pos self-join — every term is int so SUM is
# hash-stable regardless of evaluation order
@query(oracle=(
    "WITH s AS (SELECT vec_id, embedding, list_max(list_transform("
    "embedding, x -> abs(CAST(x AS DOUBLE)))) AS scale FROM embeddings), "
    "qq AS (SELECT s.vec_id, CAST(p.pos AS BIGINT) AS pos, "
    "CAST(CASE WHEN s.scale = 0 THEN 0 ELSE FLOOR(CAST("
    "s.embedding[CAST(p.pos AS INTEGER) + 1] AS DOUBLE) / s.scale "
    "* 127.0 + 0.5) END AS BIGINT) AS q "
    "FROM s, LATERAL (SELECT unnest(range(0, len(s.embedding))) AS pos) p) "
    "SELECT a.pos AS i, b.pos AS j, CAST(SUM(a.q * b.q) AS BIGINT) AS g "
    "FROM qq a JOIN qq b ON a.vec_id = b.vec_id AND a.pos <= b.pos "
    "GROUP BY a.pos, b.pos"))
def embedding_gram_int8(sf_dir: str) -> "ray.data.Dataset":
    """Exact upper-triangular Gram matrix of the int8-quantized embedding
    table (ops/linalg.gram_int8): quantize row-locally (bit-exact replay),
    ONE int64 matmul per batch, combiner-first (i, j) sum — the
    fixed-size-partial exchange (d² values per batch, input-size
    independent).  Hash-comparable against SQL because every op is
    integer."""
    from zeeklog_ray.ops.linalg import gram_int8

    return gram_int8(
        read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"]))


@query(rows_only="eigenvectors are not SQL-expressible; numpy parity is "
                 "pytest-gated")
def embedding_pca_project(sf_dir: str) -> "ray.data.Dataset":
    """PCA over the embedding table (ops/linalg): one streaming pass of
    d×d float partials → driver eigh → row-local projection onto the top
    4 components.  Rows-only by design (eigenvectors are not
    SQL-expressible; float partial sums are block-order sensitive in the
    last ulp); numpy-parity is pytest-gated in tests/test_linalg.py."""
    from zeeklog_ray.ops.linalg import pca_fit, pca_project

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    fit = pca_fit(ds, k=4)
    return pca_project(ds, fit)


# the zone-map scan must return EXACTLY the rows a plain range filter
# returns — pruning is a physical optimization, never a semantic one
@query(oracle=(
    "SELECT event_id, user_id, CAST(ROUND(value * 100) AS BIGINT) "
    "AS cents FROM events WHERE value IS NOT NULL "
    "AND CAST(ROUND(value * 100) AS BIGINT) BETWEEN 2000 AND 2999"))
def events_value_zonemap(sf_dir: str) -> "ray.data.Dataset":
    """Range query through the zone-map export (partitioned.py): the
    events table is exported ONCE per sf as range-sorted Parquet with a
    per-file [min, max] manifest (cached under /tmp), then the scan opens
    only the files whose zone overlaps cents ∈ [2000, 2999] — at corpus
    scale that is an index touch, not a table scan (pruning is asserted
    in tests/test_zonemap.py).  Cents use the shared half-away rounding
    so the DuckDB replay is bit-exact."""
    import os as _os

    from zeeklog_ray.corpus import _CACHE_ROOT
    from zeeklog_ray.partitioned import write_sorted_zonemap, zonemap_scan

    tag = _os.path.basename(_os.path.normpath(sf_dir))
    root = _os.path.join(_CACHE_ROOT, f"zonemap-ev-v1-{tag}")
    if not _os.path.exists(_os.path.join(root, "manifest.json")):
        ev = read_table(sf_dir, "events",
                        columns=["event_id", "user_id", "value"])

        def cents(batch: pd.DataFrame) -> pd.DataFrame:
            b = batch.dropna(subset=["value"])
            return pd.DataFrame({
                "event_id": b["event_id"].to_numpy(),
                "user_id": b["user_id"].to_numpy(),
                "cents": _round_half_away(b["value"] * 100)})

        write_sorted_zonemap(
            ev.map_batches(cents, batch_format="pandas", batch_size=None),
            "cents", root, num_files=16)
    return zonemap_scan(root, 2000, 2999)


# integer epoch-week cohorts: DATE_DIFF days // 7 truncates the same
# way numpy datetime64[D] // 7 floors (all post-1970 → positive)
@query(oracle=(
    "WITH f AS (SELECT user_id, MIN(ts) AS fts FROM events "
    "GROUP BY user_id), "
    "d AS (SELECT e.user_id, "
    "DATE_DIFF('day', DATE '1970-01-01', CAST(e.ts AS DATE)) // 7 AS w, "
    "DATE_DIFF('day', DATE '1970-01-01', CAST(f.fts AS DATE)) // 7 AS cw "
    "FROM events e JOIN f USING (user_id)) "
    "SELECT CAST(cw AS BIGINT) AS cohort_week, "
    "CAST(w - cw AS BIGINT) AS week_offset, "
    "CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users "
    "FROM d GROUP BY cw, w - cw"))
def user_retention_cohorts(sf_dir: str) -> "ray.data.Dataset":
    """Cohort retention: users grouped by first-seen epoch-week, counted
    distinct per (cohort_week, week_offset) — the product-analytics
    staple.  Scale shape: first-seen is an entity-shaped bucketed MIN;
    the events⨝first-seen attach is the bucketed equi-join (both sides
    user-cardinality); the (cohort, offset, user) triple dedups bucketed
    before a report-shaped grouped count.  Weeks are integer epoch-day
    // 7, identical truncation on both sides."""
    from zeeklog_ray.relational import retention_cohorts

    return retention_cohorts(
        read_table(sf_dir, "events", columns=["user_id", "ts"]))


@query(rows_only="DuckDB cannot decode image payloads; the dHash is pinned by "
                 "exact-value pytest")
def media_phash(sf_dir: str) -> "ray.data.Dataset":
    """Per-image 64-bit perceptual hash (dHash) over the media corpus —
    the image-dedup signature (ops/multimodal.dhash_image: integer luma,
    nearest resize, gradient bits; map-stage decode).  NO SQL oracle —
    DuckDB cannot decode binary image payloads; the hash is pinned by
    exact-value pytest on known pixels and the near-dup grouping by a
    planted-duplicate test.  Deterministic, so rows-only still pins the
    image count."""
    import ray.data as rd

    from zeeklog_ray.ops.multimodal import (
        media_parquet_for_sf_dir,
        phash_images,
    )

    return phash_images(rd.read_parquet(media_parquet_for_sf_dir(sf_dir)))


@query(rows_only="DuckDB cannot decode WAV payloads; the fingerprint is pinned "
                 "by exact-value pytest")
def media_audio_fp(sf_dir: str) -> "ray.data.Dataset":
    """Per-clip 64-bit audio fingerprint (energy-envelope dHash,
    level-robust) over the media corpus — the audio-dedup signature
    (ops/multimodal.afp_audio).  Same rows-only rationale as
    media_phash: SQL cannot decode WAV payloads; pinned by exact-value
    + gain-invariance pytest."""
    import ray.data as rd

    from zeeklog_ray.ops.multimodal import (
        audio_fingerprints,
        media_parquet_for_sf_dir,
    )

    return audio_fingerprints(
        rd.read_parquet(media_parquet_for_sf_dir(sf_dir)))


@query(rows_only="DuckDB cannot decode RVID payloads; the signature is pinned "
                 "by exact-value pytest")
def media_video_hash(sf_dir: str) -> "ray.data.Dataset":
    """Per-video 64-bit signature (mean-frame dHash, reorder/trim-robust)
    over the media corpus (ops/multimodal.vhash_video).  Rows-only for
    the same reason as media_phash (SQL cannot decode RVID payloads);
    pinned by exactness/invariance/planted-grouping pytest."""
    import ray.data as rd

    from zeeklog_ray.ops.multimodal import (
        media_parquet_for_sf_dir,
        video_hashes,
    )

    return video_hashes(rd.read_parquet(media_parquet_for_sf_dir(sf_dir)))


# the digest is a stand-in for the text: SQL groups the text itself
@query(oracle=(
    "WITH g AS (SELECT source, text, COUNT(*) AS n FROM documents "
    "GROUP BY source, text) "
    "SELECT source, CAST(SUM(n) AS BIGINT) AS n_docs, "
    "CAST(COUNT(*) AS BIGINT) AS n_distinct, "
    "CAST((SUM(n) - COUNT(*)) * 1000000 // SUM(n) AS BIGINT) "
    "AS dup_rate_ppm FROM g GROUP BY source"))
def docs_dup_rate_by_source(sf_dir: str) -> "ray.data.Dataset":
    """Corpus-health report: per-source exact-duplicate rate (ppm) —
    total docs, distinct contents, dup share.  Only (source, 128-bit
    digest, partial count) rows shuffle (never text); one entity-shaped
    bucketed count per (source, digest), then a report-shaped per-source
    rollup.  Integer-exact; SQL replays by grouping the text itself."""
    from zeeklog_ray.ops.dedup import content_digest128
    from zeeklog_ray.relational import grouped_sum_bucketed

    docs = read_table(sf_dir, "documents", columns=["source", "text"])

    def digest(batch: pd.DataFrame) -> pd.DataFrame:
        h1, h2 = content_digest128(batch["text"])
        return pd.DataFrame({"source": batch["source"].to_numpy(),
                             "h1": h1.astype(np.int64).view(np.int64),
                             "h2": h2.astype(np.int64).view(np.int64)})

    per_content = grouped_sum_bucketed(
        docs.map_batches(digest, batch_format="pandas", batch_size=None),
        ["source", "h1", "h2"], count_as="n")

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby("source", sort=False)
        return pd.DataFrame({"source": g.size().index,
                             "n_docs": g["n"].sum().to_numpy(),
                             "n_distinct": g.size().to_numpy()})

    rolled = grouped_sum(
        per_content.map_batches(partial, batch_format="pandas",
                                batch_size=None),
        ["source"], sums={"n_docs": "n_docs", "n_distinct": "n_distinct"})

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        nd = batch["n_docs"].astype("int64")
        dist = batch["n_distinct"].astype("int64")
        return pd.DataFrame({
            "source": batch["source"],
            "n_docs": nd,
            "n_distinct": dist,
            "dup_rate_ppm": ((nd - dist) * 1_000_000 // nd).astype("int64"),
        })

    return rolled.map_batches(finish, batch_format="pandas",
                              batch_size=None)


# bit-exact HUGEINT replay of the window-hash dup-span signal: per-word
# codepoint Horner (base 1000003, acc0 = first codepoint — the
# doc_simhash technique), then an 8-word Horner combine (base
# 1099511628211), both mod 2^64; a window hash in >= 2 distinct docs
# is a duplicated span
@query(oracle=(
    f"WITH w AS (SELECT doc_id, {_WORDS_SQL} AS words FROM documents), "
    f"wh AS (SELECT doc_id, {_WORD_HASHES_SQL} AS whs, "
    "len(words) AS nw FROM w), "
    f"g AS (SELECT doc_id, {_horner_sql('whs[i:i+7]', 1099511628211)} "
    "AS gmod FROM wh, "
    "UNNEST(range(1, nw - 6)) AS t(i) WHERE nw >= 8), "
    f"gi AS (SELECT doc_id, {_int64_sql('gmod')} AS gram FROM g), "
    "dg AS (SELECT doc_id, gram, COUNT(*) AS cnt FROM gi GROUP BY 1, 2), "
    "gd AS (SELECT gram FROM dg GROUP BY gram HAVING COUNT(*) >= 2), "
    "dd AS (SELECT dg.doc_id, SUM(dg.cnt) AS dupw FROM dg "
    "JOIN gd USING (gram) GROUP BY 1) "
    "SELECT wh.doc_id, CAST(GREATEST(wh.nw - 7, 0) AS BIGINT) "
    "AS n_windows, CAST(COALESCE(dd.dupw, 0) AS BIGINT) AS dup_windows, "
    "CAST(COALESCE(dd.dupw, 0) * 10000 // GREATEST(wh.nw - 7, 1) "
    "AS BIGINT) AS dup_ratio_e4 "
    "FROM wh LEFT JOIN dd USING (doc_id)"))
def docs_dup_windows(sf_dir: str) -> "ray.data.Dataset":
    """Cross-document duplicated-SPAN statistics (ops/dedup.py): per doc,
    how many of its 8-word windows hash-match a window appearing in >= 2
    distinct documents — the substring-level dedup signal of Lee et al.
    (ACL 2022), window-hash approximation of the suffix-array pass.
    Integer-exact end to end; the oracle replays the codepoint/word Horner
    hashes bit-for-bit in HUGEINT SQL (the doc_simhash technique)."""
    from zeeklog_ray.ops.dedup import duplicated_window_stats

    return duplicated_window_stats(
        read_table(sf_dir, "documents", columns=["doc_id", "text"]))


@query(rows_only="the min/max-bounded CDC boundary walk is sequential state "
                 "with no SQL replay; pytest-gated against a pure-Python "
                 "chunker")
def docs_cdc_dup(sf_dir: str) -> "ray.data.Dataset":
    """Shared-content estimate from CONTENT-DEFINED chunks
    (ops/dedup.cdc_dup_stats): Rabin/FastCDC-style word chunking
    (rolling-hash mask boundaries, min/max bounded), then the
    duplicated-window >= 2-docs signal at one hash row per ~16-word
    chunk — the screening tier that costs ~16x less shuffle than
    docs_dup_windows.  Rows-only by design: the min/max-bounded boundary
    WALK is inherently sequential state (no SQL window replay); the
    exactness evidence is the pure-Python chunker parity pytest and the
    planted-copy recall test (tests/test_ops_dedup.py), and the
    hash-gated docs_dup_windows twin shares the downstream structure."""
    from zeeklog_ray.ops.dedup import cdc_dup_stats

    return cdc_dup_stats(
        read_table(sf_dir, "documents", columns=["doc_id", "text"]),
        window=4, mask_bits=4, min_words=4, max_words=32)


@query(rows_only="the CDC screen's boundary walk has no SQL replay; its exact "
                 "tier is hash-gated as docs_dup_windows")
def docs_screen_verify(sf_dir: str) -> "ray.data.Dataset":
    """Two-tier dup workflow (ops/dedup.cdc_screen_then_verify): cheap
    CDC screening flags suspect docs, only suspects pay the bit-exact
    per-window tier — the affordable shape at 10^12 docs.  Rows-only by
    design (the CDC boundary walk has no SQL replay); the exact tier it
    feeds is the hash-gated docs_dup_windows, and the planted-dup
    equivalence pytest pins the composition."""
    from zeeklog_ray.ops.dedup import cdc_screen_then_verify

    return cdc_screen_then_verify(
        read_table(sf_dir, "documents", columns=["doc_id", "text"]),
        window=4, mask_bits=4, min_words=4, max_words=32,
        screen_ratio_e4=2_000)


# span REMOVAL over the same bit-replayed window hashes: a word at
# 1-based position j survives iff no dup window start s has
# s <= j <= s+7; cleaned text rebuilds from the filtered word list
@query(oracle=(
    f"WITH w AS (SELECT doc_id, {_WORDS_SQL} AS words FROM documents), "
    f"wh AS (SELECT doc_id, words, {_WORD_HASHES_SQL} AS whs, "
    "len(words) AS nw FROM w), "
    f"g AS (SELECT doc_id, i, {_horner_sql('whs[i:i+7]', 1099511628211)} "
    "AS gram FROM wh, "
    "UNNEST(range(1, nw - 6)) AS t(i) WHERE nw >= 8), "
    "gd AS (SELECT gram FROM (SELECT DISTINCT doc_id, gram FROM g) "
    "GROUP BY gram HAVING COUNT(*) >= 2), "
    "st AS (SELECT g.doc_id, list(g.i) AS starts FROM g "
    "JOIN gd USING (gram) GROUP BY 1) "
    "SELECT wh.doc_id, COALESCE(array_to_string(list_transform("
    "list_filter(range(1, wh.nw + 1), j -> len(list_filter("
    "COALESCE(st.starts, []), s -> s <= j AND j <= s + 7)) = 0), "
    "j -> wh.words[j]), ' '), '') AS text_clean, "
    "CAST(wh.nw AS BIGINT) AS n_words, "
    "CAST(len(list_filter(range(1, wh.nw + 1), j -> len(list_filter("
    "COALESCE(st.starts, []), s -> s <= j AND j <= s + 7)) > 0)) "
    "AS BIGINT) AS n_removed "
    "FROM wh LEFT JOIN st USING (doc_id)"))
def docs_remove_dup_spans(sf_dir: str) -> "ray.data.Dataset":
    """Duplicated-span REMOVAL (ops/dedup.remove_dup_spans): delete every
    word covered by an 8-word window shared by >= 2 docs — the cleaning
    transform behind docs_dup_windows (Lee et al. remove the spans, not
    the documents).  Tiered broadcast/join; bit-exact HUGEINT oracle
    replays the hashes and rebuilds the cleaned text the same way."""
    from zeeklog_ray.ops.dedup import remove_dup_spans

    return remove_dup_spans(
        read_table(sf_dir, "documents", columns=["doc_id", "text"]))


# the full cleaning chain as one CTE composition of the proven
# repetition-filter and span-removal pieces; thresholds are literals
# shared with the Ray side (0.30 distinct / 0.10 top-bigram / 15
# clean words)
@query(oracle=(
    f"WITH w0 AS (SELECT doc_id, lang, {_WORDS_SQL} AS words "
    "FROM documents), "
    "m AS (SELECT doc_id, lang, words, len(words) AS nw, "
    "len(list_distinct(words)) AS nd FROM w0), "
    "bgc AS (SELECT doc_id, MAX(c) AS topb FROM (SELECT doc_id, "
    "bigram, COUNT(*) AS c FROM (SELECT doc_id, "
    "unnest(list_transform(range(1, nw), i -> words[i] || ' ' || "
    "words[i+1])) AS bigram FROM m WHERE nw >= 2) GROUP BY 1, 2) "
    "GROUP BY 1), "
    "f AS (SELECT m.doc_id, m.lang, m.words, m.nw FROM m "
    "LEFT JOIN bgc USING (doc_id) "
    "WHERE nd * 10000 // GREATEST(nw, 1) >= 3000 "
    "AND COALESCE(topb, 0) * 10000 // GREATEST(nw - 1, 1) <= 1000), "
    f"wh AS (SELECT doc_id, lang, words, {_WORD_HASHES_SQL} AS whs, "
    "nw FROM f), "
    f"g AS (SELECT doc_id, i, {_horner_sql('whs[i:i+7]', 1099511628211)} "
    "AS gram FROM wh, "
    "UNNEST(range(1, nw - 6)) AS t(i) WHERE nw >= 8), "
    "gd AS (SELECT gram FROM (SELECT DISTINCT doc_id, gram FROM g) "
    "GROUP BY gram HAVING COUNT(*) >= 2), "
    "st AS (SELECT g.doc_id, list(g.i) AS starts FROM g "
    "JOIN gd USING (gram) GROUP BY 1), "
    "c AS (SELECT wh.doc_id, wh.lang, wh.nw, "
    "COALESCE(len(list_filter(range(1, wh.nw + 1), "
    "j -> len(list_filter(COALESCE(st.starts, []), "
    "s -> s <= j AND j <= s + 7)) > 0)), 0) AS n_removed "
    "FROM wh LEFT JOIN st USING (doc_id)) "
    "SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs, "
    "CAST(SUM(nw - n_removed) AS BIGINT) AS sum_clean_words, "
    "CAST(SUM(n_removed) AS BIGINT) AS sum_removed "
    "FROM c WHERE nw - n_removed >= 15 GROUP BY lang"))
def docs_clean_pipeline(sf_dir: str) -> "ray.data.Dataset":
    """End-to-end corpus CLEANING chain wiring the round-4 operators:
    Gopher repetition filter (distinct-word ratio >= 0.30, top-bigram
    ratio <= 0.10) → duplicated-span removal among the survivors →
    min-length gate on the CLEANED word count (>= 15) → per-language
    rollup.  Every stage is the already-oracle-gated kernel; the chain's
    oracle is one CTE composition of the proven SQL pieces."""
    from zeeklog_ray.ops.dedup import remove_dup_spans
    from zeeklog_ray.ops.text import repetition_filter

    docs = read_table(sf_dir, "documents",
                      columns=["doc_id", "text", "lang"])
    kept = repetition_filter(docs, min_distinct_e4=3000,
                             max_top_bigram_e4=1000)
    cleaned = remove_dup_spans(kept, carry_cols=("lang",))

    def gate(batch: pd.DataFrame) -> pd.DataFrame:
        cw = (batch["n_words"] - batch["n_removed"]).astype("int64")
        out = pd.DataFrame({"lang": batch["lang"],
                            "clean_words": cw,
                            "removed": batch["n_removed"].astype("int64")})
        return out[out["clean_words"] >= 15]

    return grouped_sum(
        cleaned.map_batches(gate, batch_format="pandas", batch_size=None),
        ["lang"], sums={"clean_words": "sum_clean_words",
                        "removed": "sum_removed"}, count_as="n_docs")


# Gopher repetition rules over the filtered ' '-split word list; all
# ratios are integer-e4 with // (truncating) division
_DOCS_REPETITION_SQL = (
    f"WITH w AS (SELECT doc_id, {_WORDS_SQL} AS words FROM documents), "
    "base AS (SELECT doc_id, words, len(words) AS nw, "
    "len(list_distinct(words)) AS nd FROM w), "
    "wc AS (SELECT doc_id, MAX(c) AS topw FROM (SELECT doc_id, word, "
    "COUNT(*) AS c FROM (SELECT doc_id, unnest(words) AS word FROM w) "
    "GROUP BY 1, 2) GROUP BY 1), "
    "bg AS (SELECT doc_id, MAX(c) AS topb FROM (SELECT doc_id, bigram, "
    "COUNT(*) AS c FROM (SELECT doc_id, unnest(list_transform("
    "range(1, nw), i -> words[i] || ' ' || words[i+1])) AS bigram "
    "FROM base WHERE nw >= 2) GROUP BY 1, 2) GROUP BY 1) "
    "SELECT base.doc_id, CAST(nw AS BIGINT) AS n_words, "
    "CAST(nd * 10000 // GREATEST(nw, 1) AS BIGINT) AS distinct_ratio_e4, "
    "CAST(COALESCE(topw, 0) * 10000 // GREATEST(nw, 1) AS BIGINT) "
    "AS top_word_ratio_e4, "
    "CAST(COALESCE(topb, 0) * 10000 // GREATEST(nw - 1, 1) AS BIGINT) "
    "AS top_bigram_ratio_e4 "
    "FROM base LEFT JOIN wc USING (doc_id) LEFT JOIN bg USING (doc_id)")


@query(oracle=_DOCS_REPETITION_SQL)
def docs_repetition(sf_dir: str) -> "ray.data.Dataset":
    """Gopher-style intra-document repetition filter features
    (ops/text.repetition_stats): distinct-word / top-word / top-bigram
    ratios, integer e4 fixed point, zero shuffle (row-local)."""
    from zeeklog_ray.ops.text import repetition_stats

    return repetition_stats(
        read_table(sf_dir, "documents", columns=["doc_id", "text"]))


# exact linear PMI in HUGEINT; ties at the k boundary break by
# (count desc, w1, w2) on both sides
@query(oracle=(
    f"WITH w AS (SELECT {_WORDS_SQL} AS words FROM documents), "
    "u AS (SELECT unnest(words) AS word FROM w), "
    "wc AS (SELECT word, COUNT(*) AS c FROM u GROUP BY 1), "
    "n AS (SELECT SUM(c)::HUGEINT AS n FROM wc), "
    "b AS (SELECT words[i] AS w1, words[i+1] AS w2 FROM w, "
    "UNNEST(range(1, len(words))) AS t(i)), "
    "bc AS (SELECT w1, w2, COUNT(*) AS cxy FROM b GROUP BY 1, 2), "
    "top AS (SELECT * FROM bc WHERE cxy >= 5 "
    "ORDER BY cxy DESC, w1, w2 LIMIT 20) "
    "SELECT top.w1, top.w2, CAST(top.cxy AS BIGINT) AS pair_count, "
    "CAST(top.cxy::HUGEINT * n.n * 10000 // "
    "(a.c::HUGEINT * b2.c::HUGEINT) AS BIGINT) AS pmi_e4 "
    "FROM top CROSS JOIN n "
    "JOIN wc a ON a.word = top.w1 JOIN wc b2 ON b2.word = top.w2"))
def docs_bigram_pmi(sf_dir: str) -> pd.DataFrame:
    """Top-20 bigram collocations with exact linear PMI
    (ops/text.bigram_pmi_topk): big-int c_xy·N·10^4 // (c_x·c_y), HUGEINT
    oracle, ties broken by (count desc, w1, w2)."""
    from zeeklog_ray.ops.text import bigram_pmi_topk

    return bigram_pmi_topk(
        read_table(sf_dir, "documents", columns=["doc_id", "text"]),
        k=20, min_count=5)


# rare = corpus unigram count < 5, counted per word POSITION
@query(oracle=(
    f"WITH w AS (SELECT doc_id, {_WORDS_SQL} AS words FROM documents), "
    "u AS (SELECT doc_id, unnest(words) AS word FROM w), "
    "wc AS (SELECT word, COUNT(*) AS c FROM u GROUP BY 1), "
    "r AS (SELECT u.doc_id, COUNT(*) AS n_rare FROM u "
    "JOIN wc USING (word) WHERE wc.c < 5 GROUP BY 1) "
    "SELECT w.doc_id, CAST(len(words) AS BIGINT) AS n_words, "
    "CAST(COALESCE(r.n_rare, 0) AS BIGINT) AS n_rare, "
    "CAST(COALESCE(r.n_rare, 0) * 10000 // GREATEST(len(words), 1) "
    "AS BIGINT) AS rare_ratio_e4 "
    "FROM w LEFT JOIN r USING (doc_id)"))
def docs_rare_word_ratio(sf_dir: str) -> "ray.data.Dataset":
    """Per-doc rare-word position ratio against the corpus unigram table
    (ops/text.rare_word_stats) — the integer-exact core of
    perplexity-style filtering; tiered vocab attach, text never
    shuffles."""
    from zeeklog_ray.ops.text import rare_word_stats

    return rare_word_stats(
        read_table(sf_dir, "documents", columns=["doc_id", "text"]),
        min_corpus_count=5)


@query(rows_only="log2 is float, so a hash gate would compare libm ulps; the "
                 "integer twin docs_rare_word_ratio is hash-gated")
def docs_unigram_logprob(sf_dir: str) -> "ray.data.Dataset":
    """Per-doc average unigram log-likelihood under the corpus's own LM
    (ops/text.unigram_logprob).  Rows-only for the driver: log2 is float,
    so a hash gate would compare libm ulps; the exactness evidence is the
    pure-pandas parity pytest (tests/test_ops_text.py) and the hash-gated
    integer twin docs_rare_word_ratio (same pass structure)."""
    from zeeklog_ray.ops.text import unigram_logprob

    return unigram_logprob(
        read_table(sf_dir, "documents", columns=["doc_id", "text"]))


_QR_RATES = {"q0": 0.2, "q1": 0.7, "q2": 1.0, "q3": 1.5}


def _quality_resample_oracle_sql() -> str:
    bucketed = (
        f"(WITH scored AS ({_DOCS_REPETITION_SQL}), "
        "qq AS (SELECT quantile_disc(distinct_ratio_e4, 0.25) AS q1, "
        "quantile_disc(distinct_ratio_e4, 0.50) AS q2, "
        "quantile_disc(distinct_ratio_e4, 0.75) AS q3 FROM scored) "
        "SELECT s.doc_id, s.n_words, "
        "CASE WHEN s.distinct_ratio_e4 <= qq.q1 THEN 'q0' "
        "WHEN s.distinct_ratio_e4 <= qq.q2 THEN 'q1' "
        "WHEN s.distinct_ratio_e4 <= qq.q3 THEN 'q2' ELSE 'q3' END "
        "AS qbucket FROM scored s CROSS JOIN qq) b")
    mix = _sample_sql.mixture_resample_sql(
        bucketed, key_col="doc_id", select_cols="qbucket, n_words",
        by="qbucket", rates=_QR_RATES, default_rate=1.0)
    return (f"SELECT qbucket, CAST(COUNT(*) AS BIGINT) AS n_rows, "
            f"CAST(SUM(n_words) AS BIGINT) AS sum_words "
            f"FROM ({mix}) t GROUP BY qbucket")


@query(oracle=_quality_resample_oracle_sql())
def docs_quality_resample(sf_dir: str) -> "ray.data.Dataset":
    """Quality-bucketed resampling — the quality-curation pipeline with
    every stage exact: score docs by the integer Gopher distinct-word
    ratio (ops/text.repetition_stats — repetitive docs score low), cut
    the corpus into quartile buckets at the EXACT score quantiles
    (ops/sketch.exact_quantiles, quantile_disc semantics), then
    mixture-resample by bucket (oversample the cleanest quartile x1.5,
    keep the repetitive tail at x0.2) with the splitmix64 draw —
    deterministic on any partitioning.  The oracle replays the whole
    chain in one CTE composition (repetition SQL + quantile_disc +
    HUGEINT splitmix64 expansion).  Output: per-bucket kept-row and
    word totals."""
    from zeeklog_ray.ops.sample import mixture_resample
    from zeeklog_ray.ops.sketch import exact_quantiles
    from zeeklog_ray.ops.text import repetition_stats

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    # doc-shaped scalars-only intermediate: consumed twice (quantile
    # histogram + bucketing), so the pin is the designed shape
    scored = repetition_stats(docs).materialize()
    qdf = exact_quantiles(scored, "distinct_ratio_e4", [0.25, 0.5, 0.75])
    q1, q2, q3 = (int(v) for v in qdf["value"])

    def bucket(batch: pd.DataFrame) -> pd.DataFrame:
        s = batch["distinct_ratio_e4"].to_numpy()
        b = np.where(s <= q1, "q0",
                     np.where(s <= q2, "q1",
                              np.where(s <= q3, "q2", "q3")))
        return pd.DataFrame({"doc_id": batch["doc_id"],
                             "n_words": batch["n_words"], "qbucket": b})

    bucketed = scored.map_batches(bucket, batch_format="pandas",
                                  batch_size=None)
    kept = mixture_resample(bucketed, key_col="doc_id", by="qbucket",
                            rates=_QR_RATES, default_rate=1.0)
    return grouped_sum(kept, ["qbucket"], sums={"n_words": "sum_words"},
                       count_as="n_rows")


# balanced stratified sample: exact integer threshold target·2^64//n_g
# recomputed in HUGEINT over the same splitmix64 draw
@query(oracle=_sample_sql.stratified_sample_sql(
    "documents", "doc_id", "doc_id, lang, source",
    by="lang", target_per_group=40))
def docs_stratified_sample(sf_dir: str) -> "ray.data.Dataset":
    """Balanced per-language sample (~40 docs/lang) with keep-rates derived
    from the actual group sizes (ops/sample.stratified_sample): one
    report-shaped count pass, then a row-local exact-integer-threshold
    hash filter — deterministic on any partitioning."""
    from zeeklog_ray.ops.sample import stratified_sample

    return stratified_sample(
        read_table(sf_dir, "documents", columns=["doc_id", "lang", "source"]),
        key_col="doc_id", by="lang", target_per_group=40)


# per-type top-5 users; Ray recounts MG candidates exactly, so plain
# windowed SQL is the oracle; ties (count DESC, user ASC)
@query(oracle=(
    "SELECT event_type, user_id, n, rank FROM ("
    "SELECT event_type, user_id, CAST(COUNT(*) AS BIGINT) AS n, "
    "CAST(ROW_NUMBER() OVER (PARTITION BY event_type "
    "ORDER BY COUNT(*) DESC, user_id) AS BIGINT) AS rank "
    "FROM events GROUP BY event_type, user_id) WHERE rank <= 5"))
def event_type_heavy_users(sf_dir: str) -> pd.DataFrame:
    """Per-event-type top-5 users by event count via the grouped two-pass
    Misra-Gries pattern (ops/sketch.grouped_heavy_hitters): bounded
    per-batch summaries, driver candidate merge, exact recount."""
    from zeeklog_ray.ops.sketch import grouped_heavy_hitters

    return grouped_heavy_hitters(
        read_table(sf_dir, "events", columns=["event_type", "user_id"]),
        "event_type", "user_id", k=5, capacity=8192)


# exact integer TV over the top-50 vocabulary: HUGEINT products in
# SQL, Python big-int finish on the Ray side; // truncates (positive)
@query(oracle=(
    "WITH w AS (SELECT source, unnest(string_split(text, ' ')) AS word "
    "FROM documents), "
    "f AS (SELECT source, word, COUNT(*) AS n FROM w WHERE word <> '' "
    "GROUP BY source, word), "
    "topk AS (SELECT word FROM (SELECT word, SUM(n) AS tot FROM f "
    "GROUP BY word ORDER BY tot DESC, word LIMIT 50)), "
    "g AS (SELECT f.source, f.word, f.n FROM f JOIN topk USING (word)), "
    "tot AS (SELECT source, SUM(n) AS N FROM g GROUP BY source), "
    "p AS (SELECT a.source AS sa, a.N AS na, b.source AS sb, b.N AS nb "
    "FROM tot a JOIN tot b ON a.source < b.source) "
    "SELECT p.sa AS source_a, p.sb AS source_b, "
    "CAST(SUM(ABS(COALESCE(ga.n, 0) * p.nb - COALESCE(gb.n, 0) * p.na))"
    " * 1000000 // (2 * p.na * p.nb) AS BIGINT) AS tv_ppm "
    "FROM p CROSS JOIN topk t "
    "LEFT JOIN g ga ON ga.source = p.sa AND ga.word = t.word "
    "LEFT JOIN g gb ON gb.source = p.sb AND gb.word = t.word "
    "GROUP BY p.sa, p.sb, p.na, p.nb"))
def docs_source_tv(sf_dir: str) -> pd.DataFrame:
    """Pairwise total-variation distance (ppm) between the per-source
    word distributions over the global top-50 vocabulary — the
    data-mixture diagnostic (ops/text.source_distribution_tv; exact
    big-int finish, HUGEINT oracle)."""
    from zeeklog_ray.ops.text import source_distribution_tv

    return source_distribution_tv(
        read_table(sf_dir, "documents", columns=["source", "text"]), k=50)


# per-source distinctive terms: all-integer rate ratio (ppm rates,
# e4 score), // truncates on both sides (all positive); SUM() is
# HUGEINT in DuckDB so the products are exact
@query(oracle=(
    "WITH w AS (SELECT source, unnest(string_split(text, ' ')) AS word "
    "FROM documents), "
    "c AS (SELECT source, word, COUNT(*) AS c_sw FROM w "
    "WHERE word <> '' GROUP BY source, word), "
    "cw AS (SELECT word, SUM(c_sw) AS c_w FROM c GROUP BY word), "
    "ns AS (SELECT source, SUM(c_sw) AS n_s FROM c GROUP BY source), "
    "tot AS (SELECT SUM(c_sw) AS n_tot FROM c), "
    "sc AS (SELECT c.source, c.word, c.c_sw, "
    "c.c_sw * 1000000 // ns.n_s AS rin, "
    "(cw.c_w - c.c_sw) * 1000000 // GREATEST(tot.n_tot - ns.n_s, 1) "
    "AS rout FROM c JOIN cw USING (word) JOIN ns USING (source) "
    "CROSS JOIN tot WHERE cw.c_w >= 20), "
    "r AS (SELECT source, word, c_sw, "
    "rin * 10000 // (rout + 1) AS score_e4, "
    "ROW_NUMBER() OVER (PARTITION BY source "
    "ORDER BY rin * 10000 // (rout + 1) DESC, word) AS rank FROM sc) "
    "SELECT source, CAST(rank AS BIGINT) AS rank, word, "
    "CAST(c_sw AS BIGINT) AS tf_source, "
    "CAST(score_e4 AS BIGINT) AS score_e4 FROM r WHERE rank <= 10"))
def docs_distinctive_terms(sf_dir: str) -> "ray.data.Dataset":
    """Per-source distinctive vocabulary: top-10 words by the integer
    in-source vs rest-of-corpus rate ratio
    (ops/text.source_distinctive_terms) — the domain-characterization
    report behind mixture design; entity-shaped counts, tiered vocab
    attach, pre-shuffle per-source head(k)."""
    from zeeklog_ray.ops.text import source_distinctive_terms

    return source_distinctive_terms(
        read_table(sf_dir, "documents", columns=["source", "text"]),
        k=10, min_count=20)


@query(rows_only="BPE training is an iterative argmax; both tiers are "
                 "pytest-gated against a pure-Python reference")
def docs_bpe_merges(sf_dir: str) -> pd.DataFrame:
    """BPE tokenizer TRAINING on the corpus: the first 16 learned merges
    with their weighted pair counts (ops/bpetrain.train_bpe — one corpus
    pass to the distinct-word table, then vectorized census/merge
    kernels; tiered driver/distributed).  NO SQL oracle — iterative
    argmax; both tiers are pytest-gated against a pure-Python reference
    with the same determinism contract, so the rows-only check pins a
    fully deterministic result."""
    from zeeklog_ray.ops.bpetrain import train_bpe

    fit = train_bpe(read_table(sf_dir, "documents", columns=["text"]),
                    n_merges=16)
    return pd.DataFrame({
        "merge_rank": pd.array(range(1, len(fit["merges"]) + 1),
                               dtype="int64"),
        "left": [m[0] for m in fit["merges"]],
        "right": [m[1] for m in fit["merges"]],
        "n": pd.array([m[2] for m in fit["merges"]], dtype="int64"),
    })


@query(rows_only="the merge list comes from the iterative BPE trainer; the "
                 "apply kernel is pytest-gated")
def docs_bpe_tokenize(sf_dir: str) -> "ray.data.Dataset":
    """END-TO-END tokenizer pass: train 16 BPE merges on the corpus, then
    tokenize every document with them (ops/bpetrain.tokenize_with_merges
    — row-local merge replay as CODE pairs, per-doc token counts).  NO
    SQL oracle — the merge list comes from the iterative trainer; the
    apply kernel is pytest-gated (monotone-in-merges, UNK handling,
    novel-word generalization) and fully deterministic, so the rows-only
    check pins a stable result."""
    from zeeklog_ray.ops.bpetrain import tokenize_with_merges, train_bpe

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    fit = train_bpe(docs, n_merges=16)
    return tokenize_with_merges(docs, fit)


@query(rows_only="2^x decay weights are float; the kernel is pinned by a "
                 "closed-form parity pytest")
def user_value_decayed(sf_dir: str) -> "ray.data.Dataset":
    """Per-user exponentially time-decayed value sum (1-day half-life,
    referenced at the corpus max timestamp) —
    ops/streaming.time_decayed_sum: weight-at-map + one entity-shaped
    bucketed sum, no per-key recurrence.  Rows-only for the driver (2^x
    is float); the kernel is pinned by a closed-form parity pytest and
    the row count equals the exact-twin user_value_sums cardinality."""
    from zeeklog_ray.ops.streaming import time_decayed_sum

    ev = read_table(sf_dir, "events", columns=["user_id", "ts", "value"])
    t_ref = ev.max("ts")
    return time_decayed_sum(ev, key="user_id", ts="ts", value="value",
                            half_life_s=86_400.0, t_ref=t_ref)


@query(oracle=(
    "WITH c AS (SELECT event_type, "
    "CAST(ROUND(value * 100) AS BIGINT) AS cents FROM events), "
    "b AS (SELECT quantile_disc(cents, 0.01) AS lo, "
    "quantile_disc(cents, 0.99) AS hi FROM c) "
    "SELECT event_type, "
    "CAST(SUM(LEAST(GREATEST(cents, b.lo), b.hi)) AS BIGINT) "
    "AS sum_cents_w, CAST(COUNT(*) AS BIGINT) AS n "
    "FROM c CROSS JOIN b GROUP BY event_type"))
def event_value_winsorized(sf_dir: str) -> "ray.data.Dataset":
    """Outlier-robust per-type revenue: clamp value-cents at the exact
    global [p01, p99] (ops/sketch.exact_quantiles — distributed value
    histogram, quantile_disc semantics) then a combiner-first grouped
    sum of the clamped cents — the winsorization preprocessing step,
    integer-exact end to end."""
    from zeeklog_ray.ops.sketch import exact_quantiles

    ev = read_table(sf_dir, "events", columns=["event_type", "value"])

    def to_cents(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_type": batch["event_type"],
                             "cents": _round_half_away(batch["value"] * 100)})

    cents = ev.map_batches(to_cents, batch_format="pandas",
                           batch_size=None).materialize()
    q = exact_quantiles(cents, "cents", [0.01, 0.99]).set_index("q")["value"]
    lo, hi = int(q.loc[0.01]), int(q.loc[0.99])

    def clamp(batch: pd.DataFrame) -> pd.DataFrame:
        batch["cents"] = batch["cents"].clip(lo, hi)
        return batch

    return grouped_sum(cents.map_batches(clamp, batch_format="pandas",
                                         batch_size=None),
                       ["event_type"], sums={"cents": "sum_cents_w"},
                       count_as="n")


@query(oracle=(
    "SELECT doc_id, n_chars, CAST(ROW_NUMBER() OVER "
    "(ORDER BY n_chars, doc_id) AS BIGINT) AS rank FROM documents"))
def docs_length_rank(sf_dir: str) -> "ray.data.Dataset":
    """Global ROW_NUMBER over the whole corpus ordered by (n_chars,
    doc_id) — the distributed range-partitioned sort-rank
    (relational.global_rank: sampled boundaries, row-local bucket
    assign, per-range sort + prefix offset; the curriculum-ordering
    primitive)."""
    from zeeklog_ray.relational import global_rank

    return global_rank(read_table(sf_dir, "documents",
                                  columns=["doc_id", "n_chars"]),
                       by="n_chars", tie="doc_id")


@query(oracle=(
    "WITH c AS (SELECT user_id, COUNT(*) AS n_k FROM events "
    "GROUP BY user_id) "
    "SELECT CAST(SUM(n_k) AS BIGINT) AS n_rows, "
    "CAST(COUNT(*) AS BIGINT) AS n_keys, "
    "CAST(MAX(n_k) AS BIGINT) AS max_key_rows, "
    "CAST(MAX(n_k) * 1000000 // SUM(n_k) AS BIGINT) AS max_share_ppm, "
    "CAST(quantile_disc(n_k, 0.5) AS BIGINT) AS p50_key_rows, "
    "CAST(quantile_disc(n_k, 0.99) AS BIGINT) AS p99_key_rows FROM c"))
def event_user_skew(sf_dir: str) -> pd.DataFrame:
    """Skew profile of events.user_id — the pre-partitioning diagnostic
    (relational.key_skew_profile): total rows, distinct keys, hottest
    key's rows + ppm share, p50/p99 per-key rows.  Integer-exact,
    quantile_disc semantics."""
    from zeeklog_ray.relational import key_skew_profile

    return key_skew_profile(read_table(sf_dir, "events",
                                       columns=["user_id"]), "user_id")


@query(rows_only="float power iteration is not SQL-replayable; pytest-gated "
                 "against a dense-matrix reference")
def embedding_graph_pagerank(sf_dir: str) -> "ray.data.Dataset":
    """PageRank centrality over the embedding near-dup pair graph
    (ops/graph.pagerank — tiered power iteration; 1e-9 fixed point).
    NO SQL oracle — iterative float; pytest-gated against a
    dense-matrix reference and cross-tier agreement.  Deterministic, so
    rows-only pins the node count."""
    from zeeklog_ray.ops.dedup import embedding_cosine_pairs
    from zeeklog_ray.ops.graph import pagerank

    emb = read_table(sf_dir, "embeddings",
                     columns=["vec_id", "embedding", "label"])
    pairs = embedding_cosine_pairs(emb, _NEAR_DUP_THRESHOLD_E4,
                                   block_col="label")
    return pagerank(pairs, a_col="id_a", b_col="id_b")


@query(rows_only="iterative float means are not SQL-replayable; pytest-gated "
                 "on monotone SSE and planted-mixture recovery")
def embedding_kmeans(sf_dir: str) -> "ray.data.Dataset":
    """Full-data distributed k-means over the embedding table, reported as
    per-cluster sizes (ops/cluster.kmeans_fit + kmeans_assign).  NO SQL
    oracle — iterative float means are not SQL-replayable; the algorithm
    is pytest-gated instead (monotone SSE, planted-mixture recovery:
    tests/test_ops_advanced.py).  Deterministic seed → deterministic
    sizes, so the driver's rows-only check still pins k."""
    from zeeklog_ray.ops.cluster import kmeans_assign, kmeans_fit

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    fit = kmeans_fit(ds, k=8, n_iters=6, seed=42)
    return grouped_sum(kmeans_assign(ds, fit["centroids"]),
                       ["cluster"], count_as="n")


@query(oracle=(
    _EMB_PAIRS_CTE +
    ", ed AS (SELECT id_a AS node FROM pairs "
    "UNION ALL SELECT id_b FROM pairs) "
    "SELECT node, CAST(COUNT(*) AS BIGINT) AS degree "
    "FROM ed GROUP BY node"))
def embedding_graph_degrees(sf_dir: str) -> "ray.data.Dataset":
    """Per-node degree of the embedding near-dup pair graph — the hub /
    skew profile of the candidate set (ops/graph.node_degrees: row-local
    endpoint explode + entity-shaped bucketed count)."""
    from zeeklog_ray.ops.dedup import embedding_cosine_pairs
    from zeeklog_ray.ops.graph import node_degrees

    emb = read_table(sf_dir, "embeddings",
                     columns=["vec_id", "embedding", "label"])
    pairs = embedding_cosine_pairs(emb, _NEAR_DUP_THRESHOLD_E4,
                                   block_col="label")
    return node_degrees(pairs, a_col="id_a", b_col="id_b")


@query(oracle=(
    _EMB_PAIRS_CTE +
    " SELECT CAST(COUNT(*) AS BIGINT) AS n_triangles "
    "FROM pairs e1 JOIN pairs e2 ON e2.id_a = e1.id_b "
    "JOIN pairs e3 ON e3.id_a = e1.id_a AND e3.id_b = e2.id_b"))
def embedding_graph_triangles(sf_dir: str) -> pd.DataFrame:
    """Exact triangle count of the embedding near-dup pair graph —
    cluster-density metric via the degree-orientation algorithm
    (ops/graph.triangle_count: O(m^1.5) wedges regardless of hub skew,
    closure via one multi-key bucketed equi-join).  Scalar result;
    oracle is the three-way self-join in SQL."""
    from zeeklog_ray.ops.dedup import embedding_cosine_pairs
    from zeeklog_ray.ops.graph import triangle_count

    emb = read_table(sf_dir, "embeddings",
                     columns=["vec_id", "embedding", "label"])
    pairs = embedding_cosine_pairs(emb, _NEAR_DUP_THRESHOLD_E4,
                                   block_col="label")
    n = triangle_count(pairs, a_col="id_a", b_col="id_b")
    return pd.DataFrame({"n_triangles": pd.array([n], dtype="int64")})


_PIVOT_TYPES = ["click", "error", "purchase", "signup", "view"]


@query(oracle=(
    "SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_events, " +
    ", ".join(
        f"CAST(SUM(CASE WHEN event_type = '{t}' THEN "
        "CAST(ROUND(value * 100) AS BIGINT) ELSE 0 END) AS BIGINT) "
        f"AS cents_{t}" for t in _PIVOT_TYPES) +
    " FROM events GROUP BY user_id"))
def user_event_pivot(sf_dir: str) -> "ray.data.Dataset":
    """PIVOT: per-user wide table — one value-cents sum column per event
    type plus a total event count (relational.pivot_sum).  The widening
    is row-local; only |users| × 6 aggregated cells shuffle."""
    from zeeklog_ray.relational import pivot_sum

    ev = read_table(sf_dir, "events",
                    columns=["user_id", "event_type", "value"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"user_id": batch["user_id"],
                             "event_type": batch["event_type"],
                             "value_cents": _round_half_away(batch["value"] * 100)})

    return pivot_sum(ev.map_batches(prep, batch_format="pandas",
                                    batch_size=None),
                     "user_id", "event_type", "value_cents", _PIVOT_TYPES,
                     prefix="cents_", count_as="n_events",
                     bucketed=True)  # per-user index is entity-shaped


@query(oracle=(
    "SELECT 'cents_' || t.et AS variable, "
    "CAST(COALESCE(SUM(CAST(ROUND(e.value * 100) AS BIGINT)), 0) "
    "AS BIGINT) AS total_cents "
    "FROM (VALUES ('click'), ('error'), ('purchase'), ('signup'), "
    "('view')) t(et) LEFT JOIN events e ON e.event_type = t.et "
    "GROUP BY t.et"))
def event_pivot_unpivot(sf_dir: str) -> "ray.data.Dataset":
    """PIVOT → UNPIVOT round-trip (relational.melt): the per-user wide
    table melts back to long and re-aggregates per variable — the oracle
    compares against a direct per-type aggregation of the raw events, so
    any loss through the widen/melt hop fails the hash.  Both hops are
    row-local; only aggregated cells ever shuffle."""
    from zeeklog_ray.relational import melt, pivot_sum

    ev = read_table(sf_dir, "events",
                    columns=["user_id", "event_type", "value"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"user_id": batch["user_id"],
                             "event_type": batch["event_type"],
                             "value_cents": _round_half_away(batch["value"] * 100)})

    wide = pivot_sum(ev.map_batches(prep, batch_format="pandas",
                                    batch_size=None),
                     "user_id", "event_type", "value_cents", _PIVOT_TYPES,
                     prefix="cents_", bucketed=True)
    long = melt(wide, ["user_id"], [f"cents_{c}" for c in _PIVOT_TYPES],
                var_name="variable", value_name="cents")
    return grouped_sum(long, ["variable"], sums={"cents": "total_cents"})


@query(oracle=(
    "WITH t AS (SELECT quantile_disc(n_chars, 0.25) AS q1, "
    "quantile_disc(n_chars, 0.5) AS q2, "
    "quantile_disc(n_chars, 0.75) AS q3 FROM documents) "
    "SELECT CAST(CASE WHEN n_chars <= q1 THEN 0 "
    "WHEN n_chars <= q2 THEN 1 WHEN n_chars <= q3 THEN 2 "
    "ELSE 3 END AS BIGINT) AS bucket, "
    "CAST(COUNT(*) AS BIGINT) AS n_docs, "
    "CAST(SUM(n_chars) AS BIGINT) AS sum_chars "
    "FROM documents, t GROUP BY 1"))
def docs_length_buckets(sf_dir: str) -> "ray.data.Dataset":
    """Length-quartile bucketing — the curriculum / batch-shape prep op:
    EXACT quartile thresholds (ops/sketch.exact_quantiles, distributed
    value histogram) broadcast into a row-local ``np.searchsorted``
    bucketize, then a report-shaped rollup per bucket.  Two scans, no
    row-data shuffle."""
    from zeeklog_ray.ops.sketch import exact_quantiles

    docs = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])
    q = exact_quantiles(docs, "n_chars", [0.25, 0.5, 0.75])
    thr = q["value"].to_numpy()

    def bucketize(batch: pd.DataFrame) -> pd.DataFrame:
        b = np.searchsorted(thr, batch["n_chars"].to_numpy(), side="left")
        return pd.DataFrame({"bucket": b.astype("int64"),
                             "n_chars": batch["n_chars"]})

    bucketed = docs.map_batches(bucketize, batch_format="pandas",
                                batch_size=None)
    return grouped_sum(bucketed, ["bucket"], sums={"n_chars": "sum_chars"},
                       count_as="n_docs")


# the inlined linear-counting table is a 4096-row VALUES list (see
# ops/sketch.hll_oracle_sql)
@query(oracle=hll_oracle_sql("events", "event_type", "user_id"))
def event_type_users_hll(sf_dir: str) -> pd.DataFrame:
    """Approximate COUNT(DISTINCT user) per event type
    (ops/sketch.grouped_approx_distinct, ``replayable=True``): per-batch
    per-key HLL sketches, distributed register-max merge — the 10^12-row
    tier of the EXACT twin `event_type_user_counts`.  Approximate vs the
    TRUE distinct count (~1.6% error, pytest-gated) yet fully
    DETERMINISTIC and hash-gated: the splitmix64 register construction
    and the integer estimator replay bit-exactly in DuckDB
    (ops/sketch.hll_oracle_sql — closes the r3/r4 `no_oracle` gap)."""
    from zeeklog_ray.ops.sketch import grouped_approx_distinct

    ev = read_table(sf_dir, "events", columns=["event_type", "user_id"])
    return grouped_approx_distinct(ev, "event_type", "user_id",
                                   replayable=True)


_SCRUB_TERMS = ["spark", "dup", "slow"]


# \b agrees between RE2 and Python re over this ASCII corpus
@query(oracle=(
    r"SELECT doc_id, CAST(length(regexp_extract_all(text, "
    r"'\b(?:spark|dup|slow)\b')) AS BIGINT) AS n_redactions, "
    r"regexp_replace(text, '\b(?:spark|dup|slow)\b', '<TERM>', 'g') "
    "AS text_clean FROM documents"))
def docs_term_scrub(sf_dir: str) -> "ray.data.Dataset":
    """Blocklist redaction over the documents table (ops/text.term_scrub):
    whole-word occurrences of the blocklist become ``<TERM>``, with exact
    redaction counts.  The PII-scrub operator shape with a swappable
    pattern; row-local, shuffle-free."""
    from zeeklog_ray.ops.text import term_scrub

    return term_scrub(read_table(sf_dir, "documents",
                                 columns=["doc_id", "text"]), _SCRUB_TERMS)


_BOILER_DF_PCT = 78  # tokens in >= 78% of documents are boilerplate
# (78 splits this corpus's df distribution — common tokens cluster at
# 75-80%; 15/31 tokens scrub at sf0.01, 3/31 at sf0.1)


# same tokenization as the Ray side: string_split(' '), empties kept
@query(oracle=(
    "WITH toks AS (SELECT doc_id, l[CAST(i AS INTEGER)] AS tok, i AS ord "
    "FROM (SELECT doc_id, string_split(text, ' ') AS l FROM documents) d, "
    "LATERAL (SELECT unnest(range(1, len(l) + 1)) AS i) s), "
    "freq AS (SELECT tok FROM toks GROUP BY tok "
    f"HAVING COUNT(DISTINCT doc_id) * 100 >= "
    f"(SELECT COUNT(*) FROM documents) * {_BOILER_DF_PCT}) "
    "SELECT t.doc_id, "
    "CAST(COUNT(*) FILTER (f.tok IS NOT NULL) AS BIGINT) AS n_removed, "
    "COALESCE(string_agg(CASE WHEN f.tok IS NULL THEN t.tok END, ' ' "
    "ORDER BY t.ord), '') AS text_clean "
    "FROM toks t LEFT JOIN freq f ON t.tok = f.tok GROUP BY t.doc_id"))
def docs_df_boilerplate(sf_dir: str) -> "ray.data.Dataset":
    """Document-frequency boilerplate scrub (ops/text.df_census +
    df_token_scrub): census the corpus for tokens present in >=78% of
    documents (exact integer predicate ``df * 100 >= n_docs * 78``),
    broadcast that tiny set, and strip those tokens from every document
    with exact removal counts.  Census partials pre-aggregate per batch
    (only (token, df) shuffles); the scrub pass is shuffle-free."""
    from zeeklog_ray.ops.text import df_census, df_token_scrub

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    n_docs = docs.count()  # parquet metadata, no scan
    census = df_census(docs).to_pandas()  # full vocab is small; at web
    # scale filter to the frequent slice inside the combine instead
    freq = frozenset(
        census.loc[census["df"] * 100 >= n_docs * _BOILER_DF_PCT, "token"])
    return df_token_scrub(docs, freq)


# ORC hop fidelity: hour-bucketed rollup of the roundtripped
# timestamps + integer id sums vs the original parquet
@query(oracle=(
    "SELECT event_type, strftime(date_trunc('hour', ts), "
    "'%Y-%m-%d %H:00:00') AS hour, CAST(COUNT(*) AS BIGINT) AS n, "
    "CAST(SUM(event_id) AS BIGINT) AS sum_id "
    "FROM events GROUP BY event_type, hour"))
def events_orc_roundtrip(sf_dir: str) -> "ray.data.Dataset":
    """ORC sink/source round-trip (jsonio.write_orc / read_orc — the
    data-lake interchange format Ray lacks natively, grafted on as a
    per-block map_batches sink + per-file parallel source): export
    (event_id, ts, event_type), read the shards back, bucket the
    ROUNDTRIPPED timestamps to hours and roll up with integer sums —
    the oracle reads the original parquet, so any timestamp or integer
    fidelity loss in the ORC hop fails the hash."""
    import pyarrow.compute as pc

    from zeeklog_ray.jsonio import read_orc, write_orc

    out_dir = _scratch_dir("orc", sf_dir)
    ev = read_table(sf_dir, "events",
                    columns=["event_id", "ts", "event_type"])
    write_orc(ev, out_dir)
    back = read_orc(out_dir)

    def prep(batch: pa.Table) -> pa.Table:
        hour = pc.strftime(pc.floor_temporal(batch["ts"], unit="hour"),
                           format="%Y-%m-%d %H:00:00")
        return pa.table({"event_type": batch["event_type"], "hour": hour,
                         "event_id": batch["event_id"]})

    return grouped_sum(
        back.map_batches(prep, batch_format="pyarrow", batch_size=None),
        ["event_type", "hour"], sums={"event_id": "sum_id"}, count_as="n")


# Feather hop fidelity: per-source rollup with integer id sums
@query(oracle=(
    "SELECT source, CAST(COUNT(*) AS BIGINT) AS n, "
    "CAST(SUM(n_chars) AS BIGINT) AS sum_chars, "
    "CAST(SUM(doc_id) AS BIGINT) AS sum_ids "
    "FROM documents GROUP BY source"))
def docs_feather_roundtrip(sf_dir: str) -> "ray.data.Dataset":
    """Feather (Arrow IPC) sink/source round-trip (jsonio.write_feather /
    read_feather — the zero-parse local interchange hop, grafted like the
    ORC pair): export the document projection, read the shards back, and
    aggregate per source against the original-parquet oracle."""
    from zeeklog_ray.jsonio import read_feather, write_feather

    out_dir = _scratch_dir("feather", sf_dir)
    docs = read_table(sf_dir, "documents",
                      columns=["doc_id", "source", "n_chars"])
    write_feather(docs, out_dir)
    back = read_feather(out_dir)
    return grouped_sum(back, ["source"],
                       sums={"n_chars": "sum_chars", "doc_id": "sum_ids"},
                       count_as="n")


@query(oracle=(
    "SELECT source, CAST(SUM(n_chars) AS BIGINT) AS sum_chars, "
    "CAST(COUNT(*) AS BIGINT) AS n_docs FROM documents GROUP BY source"))
def docs_jsonl_roundtrip(sf_dir: str) -> "ray.data.Dataset":
    """JSONL sink/source round-trip (jsonio.write_jsonl / read_jsonl):
    export the integer/string document projection as JSONL shards (one
    file per block, no driver materialization), read the shard directory
    back, and aggregate per source — the oracle compares against the
    ORIGINAL parquet, so any type-fidelity loss in the JSON hop fails
    the hash."""
    from zeeklog_ray.jsonio import read_jsonl, write_jsonl

    out_dir = _scratch_dir("jsonl", sf_dir)
    docs = read_table(sf_dir, "documents",
                      columns=["doc_id", "source", "n_chars"])
    write_jsonl(docs, out_dir)
    back = read_jsonl(out_dir)
    return grouped_sum(back, ["source"], sums={"n_chars": "sum_chars"},
                       count_as="n_docs")


@query(oracle=(
    "SELECT source, CAST(SUM(n_chars) AS BIGINT) AS sum_chars, "
    "CAST(COUNT(*) AS BIGINT) AS n_docs FROM documents GROUP BY source"))
def docs_csv_roundtrip(sf_dir: str) -> "ray.data.Dataset":
    """CSV sink/source round-trip (jsonio.write_csv / read_csv): same
    gate as docs_jsonl_roundtrip — one headered shard per block out, a
    parallel shard-directory scan back, aggregate compared against the
    ORIGINAL parquet so any type loss through the CSV hop fails the
    hash."""
    from zeeklog_ray.jsonio import read_csv, write_csv

    out_dir = _scratch_dir("csv", sf_dir)
    docs = read_table(sf_dir, "documents",
                      columns=["doc_id", "source", "n_chars"])
    write_csv(docs, out_dir)
    back = read_csv(out_dir)
    return grouped_sum(back, ["source"], sums={"n_chars": "sum_chars"},
                       count_as="n_docs")


@query(oracle=(
    "SELECT user_id, "
    "CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT) "
    "AS sum_cents, CAST(COUNT(*) AS BIGINT) AS n_events "
    "FROM events GROUP BY user_id"))
def user_value_sums(sf_dir: str) -> "ray.data.Dataset":
    """ENTITY-shaped aggregate (relational.grouped_sum_bucketed): per-user
    event-value totals — output cardinality scales with the user count,
    so the result stays distributed across key-hash buckets instead of
    collapsing onto one block like the report-shaped grouped_sum."""
    from zeeklog_ray.relational import grouped_sum_bucketed

    ev = read_table(sf_dir, "events", columns=["user_id", "value"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": batch["user_id"],
            "value_cents": _round_half_away(batch["value"] * 100)})

    prepped = ev.map_batches(prep, batch_format="pandas", batch_size=None)
    return grouped_sum_bucketed(prepped, ["user_id"],
                                sums={"value_cents": "sum_cents"},
                                count_as="n_events")


@query(oracle=(
    "SELECT event_type, CAST(COUNT(DISTINCT user_id) AS BIGINT) "
    "AS n_users FROM events GROUP BY event_type"))
def event_type_user_counts(sf_dir: str) -> "ray.data.Dataset":
    """COUNT(DISTINCT user_id) per event_type: bucketed distinct on the
    (event_type, user_id) pair (relational.bucketed_distinct — only the
    pair columns shuffle, dedup is C-level per bucket), then the
    report-shaped grouped count."""
    from zeeklog_ray.relational import bucketed_distinct

    ev = read_table(sf_dir, "events", columns=["event_type", "user_id"])

    def drop_null_users(batch: pd.DataFrame) -> pd.DataFrame:
        # COUNT(DISTINCT user_id) ignores NULLs; bucketed_distinct would
        # keep the (type, NaN) pair and over-count by one
        return batch.dropna(subset=["user_id"])

    ev = ev.map_batches(drop_null_users, batch_format="pandas",
                        batch_size=None)
    pairs = bucketed_distinct(ev, ["event_type", "user_id"])
    return grouped_sum(pairs, ["event_type"], count_as="n_users")


_PREP_RATES = {"src0": 2.5, "src1": 0.5}  # oversample + downsample mix


# per-user daily spike scores over the SPARSE observed-day series —
# no gap filling, so the ROWS frame replays the op exactly
@query(oracle=(
    "WITH s AS (SELECT user_id, strftime(date_trunc('day', ts), "
    "'%Y-%m-%d') AS day, COUNT(*) AS cnt FROM events GROUP BY 1, 2), "
    "w AS (SELECT user_id, day, cnt, "
    "COALESCE(SUM(cnt) OVER (PARTITION BY user_id ORDER BY day "
    "ROWS BETWEEN 7 PRECEDING AND 1 PRECEDING), 0) AS trail_sum, "
    "COUNT(cnt) OVER (PARTITION BY user_id ORDER BY day "
    "ROWS BETWEEN 7 PRECEDING AND 1 PRECEDING) AS trail_cnt FROM s) "
    "SELECT user_id, day, CAST(cnt AS BIGINT) AS n, "
    "CAST(trail_sum AS BIGINT) AS trail_sum, "
    "CAST(trail_cnt AS BIGINT) AS trail_cnt, "
    "CAST(CASE WHEN cnt * trail_cnt - trail_sum > 0 THEN "
    "(cnt * trail_cnt - trail_sum) * 10000 // GREATEST(trail_sum, 1) "
    "ELSE 0 END AS BIGINT) AS spike_e4 FROM w"))
def user_daily_spikes(sf_dir: str) -> "ray.data.Dataset":
    """Per-USER trailing-deviation scores over each user's observed
    daily activity — the same window pass as events_hourly_spikes but at
    ENTITY key cardinality (every user, not a handful of types), gating
    the key-hash-bucketed path: (user, day) counts are one entity-shaped
    bucketed sum, then ops/streaming.trailing_deviation with a 7-row
    window over the sparse per-user series."""
    import pyarrow.compute as pc

    from zeeklog_ray.ops.streaming import trailing_deviation
    from zeeklog_ray.relational import grouped_sum_bucketed

    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        day = pc.strftime(pc.floor_temporal(batch["ts"], unit="day"),
                          format="%Y-%m-%d")
        return pa.table({"user_id": batch["user_id"], "day": day})

    daily = grouped_sum_bucketed(
        ds.map_batches(prep, batch_format="pyarrow", batch_size=None),
        ["user_id", "day"], count_as="n")
    return trailing_deviation(daily, key="user_id", order="day",
                              value="n", window=7)


# top-20 spike report over the dense-series window replay; the
# (spike desc, type, hour) tie-break makes LIMIT deterministic
@query(oracle=("SELECT * FROM (" + _EVENTS_HOURLY_SPIKES_SQL + ") "
               "ORDER BY spike_e4 DESC, event_type, hour LIMIT 20"))
def event_spike_topk(sf_dir: str) -> "ray.data.Dataset":
    """The anomaly report a monitoring consumer actually reads: top-20
    (event_type, hour) cells by the trailing-deviation spike score
    (relational.top_k over events_hourly_spikes — per-block partial
    top-k bounds the sort input); deterministic (spike desc, type, hour)
    tie-break on both sides."""

    spikes = events_hourly_spikes(sf_dir)
    return top_k(spikes, by=["spike_e4", "event_type", "hour"],
                 descending=[True, False, False], k=20)


# the compaction round trip must preserve content exactly: per-day
# rollup of what the compacted layout reads back vs the source table
@query(oracle=(
    "SELECT strftime(date_trunc('day', ts), '%Y-%m-%d') AS day, "
    "CAST(COUNT(*) AS BIGINT) AS n, "
    "CAST(SUM(event_id) AS BIGINT) AS sum_id "
    "FROM events GROUP BY day"))
def events_compact_roundtrip(sf_dir: str) -> "ray.data.Dataset":
    """Table-maintenance round trip: write events hive-partitioned by
    day as many SMALL files, run the journal-committed small-file
    compaction (partitioned.compact_partitions), read the compacted
    layout back and roll it up per day.  The hash gate proves the
    maintenance pass preserved content exactly; pytest
    (tests/test_compaction.py) covers file-count reduction, idempotence
    and crash recovery."""
    import pyarrow.compute as pc

    from zeeklog_ray.partitioned import compact_partitions, write_partitioned

    out = _scratch_dir("compact", sf_dir)
    ds = read_table(sf_dir, "events", columns=["event_id", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        day = pc.strftime(pc.floor_temporal(batch["ts"], unit="day"),
                          format="%Y-%m-%d")
        return pa.table({"event_id": batch["event_id"], "day": day})

    prepped = ds.map_batches(prep, batch_format="pyarrow", batch_size=None)
    write_partitioned(prepped.repartition(16), out, ["day"])
    compact_partitions(out, target_rows=10_000_000)
    back = ray.data.read_parquet(out)

    def norm(batch: pd.DataFrame) -> pd.DataFrame:
        # hive partition values come back as categorical/dictionary
        return pd.DataFrame({"day": batch["day"].astype(str),
                             "event_id": batch["event_id"]})

    return grouped_sum(
        back.map_batches(norm, batch_format="pandas", batch_size=None),
        ["day"], sums={"event_id": "sum_id"}, count_as="n")


# the upsert MERGE replayed in SQL: tombstones (%17) drop keys,
# updates (%5, unless tombstoned) bump ver to 1, inserts (%7==3)
# arrive re-keyed +1e9 at ver 1; latest-wins per key is exactly this
# CASE because each key sees at most one change row
@query(oracle=(
    "WITH base AS (SELECT event_id, "
    "strftime(date_trunc('day', ts), '%Y-%m-%d') AS day FROM events), "
    "final AS ("
    "SELECT event_id, day, CASE WHEN event_id % 5 = 0 "
    "THEN 1 ELSE 0 END AS ver FROM base WHERE event_id % 17 != 0 "
    "UNION ALL "
    "SELECT event_id + 1000000000, day, 1 FROM base "
    "WHERE event_id % 7 = 3) "
    "SELECT day, CAST(COUNT(*) AS BIGINT) AS n, "
    "CAST(SUM(event_id) AS BIGINT) AS sum_id, "
    "CAST(SUM(ver) AS BIGINT) AS sum_ver "
    "FROM final GROUP BY day"))
def events_upsert_roundtrip(sf_dir: str) -> "ray.data.Dataset":
    """CDC upsert round trip: seed a day-partitioned store with the full
    events table (ver=0), then apply one change batch — updates
    (event_id % 5 == 0 bumps ver to 1), tombstones (event_id % 17 == 0,
    taking precedence over updates), and inserts (event_id % 7 == 3
    re-keyed +1e9) — via the journal-committed copy-on-write merge
    (partitioned.upsert_partitions), read the store back and roll it up
    per day.  The hash gate replays the whole MERGE in SQL (counts,
    key sums, and version sums all shift when any row is mis-merged);
    pytest (tests/test_upsert.py) covers latest-wins ordering,
    tie-breaks, untouched-partition economics and crash recovery."""
    import pyarrow.compute as pc

    from zeeklog_ray.partitioned import upsert_partitions, write_partitioned

    out = _scratch_dir("upsert", sf_dir)
    ds = read_table(sf_dir, "events", columns=["event_id", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        day = pc.strftime(pc.floor_temporal(batch["ts"], unit="day"),
                          format="%Y-%m-%d")
        n = batch.num_rows
        return pa.table({"event_id": batch["event_id"], "day": day,
                         "ver": pa.array(np.zeros(n, dtype=np.int64))})

    base = ds.map_batches(prep, batch_format="pyarrow", batch_size=None)
    write_partitioned(base.repartition(16), out, ["day"])

    def make_changes(batch: pa.Table) -> pa.Table:
        day = pc.strftime(pc.floor_temporal(batch["ts"], unit="day"),
                          format="%Y-%m-%d").to_numpy(zero_copy_only=False)
        eid = batch["event_id"].to_numpy()
        is_del = eid % 17 == 0
        is_upd = (eid % 5 == 0) & ~is_del
        is_ins = eid % 7 == 3
        keys = np.concatenate([eid[is_del], eid[is_upd],
                               eid[is_ins] + 1_000_000_000])
        days = np.concatenate([day[is_del], day[is_upd], day[is_ins]])
        deleted = np.concatenate([
            np.ones(int(is_del.sum()), dtype=bool),
            np.zeros(int(is_upd.sum() + is_ins.sum()), dtype=bool)])
        return pa.table({"event_id": keys, "day": days,
                         "ver": np.ones(len(keys), dtype=np.int64),
                         "deleted": deleted})

    changes = ds.map_batches(make_changes, batch_format="pyarrow",
                             batch_size=None)
    upsert_partitions(out, changes, part_col="day", key="event_id",
                      order_col="ver", deleted_col="deleted")
    back = ray.data.read_parquet(out)

    def norm(batch: pd.DataFrame) -> pd.DataFrame:
        # hive partition values come back as categorical/dictionary
        return pd.DataFrame({"day": batch["day"].astype(str),
                             "event_id": batch["event_id"],
                             "ver": batch["ver"]})

    return grouped_sum(
        back.map_batches(norm, batch_format="pandas", batch_size=None),
        ["day"], sums={"event_id": "sum_id", "ver": "sum_ver"},
        count_as="n")


def _seed_mor_store(sf_dir: str, family: str) -> str:
    """Build the shared merge-on-read fixture store: the full events
    table day-partitioned at ver=0/flag=0, plus TWO appended delta
    batches — batch 1 updates ``event_id % 5 == 0`` (ver 1, flag 10);
    batch 2 re-updates ``event_id % 10 == 0`` at the SAME ver (flag 200,
    must win by delta sequence) and tombstones ``event_id % 17 == 0``
    (ver 2).  Used by events_mor_roundtrip (current view) and
    events_time_travel (snapshot views)."""
    import pyarrow.compute as pc

    from zeeklog_ray.partitioned import append_deltas, write_partitioned

    out = _scratch_dir(family, sf_dir)
    ds = read_table(sf_dir, "events", columns=["event_id", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        day = pc.strftime(pc.floor_temporal(batch["ts"], unit="day"),
                          format="%Y-%m-%d")
        n = batch.num_rows
        z = np.zeros(n, dtype=np.int64)
        return pa.table({"event_id": batch["event_id"], "day": day,
                         "ver": pa.array(z), "flag": pa.array(z)})

    base = ds.map_batches(prep, batch_format="pyarrow", batch_size=None)
    write_partitioned(base.repartition(16), out, ["day"])

    def batch_fn(mod: int, ver: int, flag: int, tomb: bool):
        def f(batch: pa.Table) -> pa.Table:
            day = pc.strftime(
                pc.floor_temporal(batch["ts"], unit="day"),
                format="%Y-%m-%d").to_numpy(zero_copy_only=False)
            eid = batch["event_id"].to_numpy()
            m = eid % mod == 0
            n = int(m.sum())
            return pa.table({
                "event_id": eid[m], "day": day[m],
                "ver": np.full(n, ver, dtype=np.int64),
                "flag": np.full(n, flag, dtype=np.int64),
                "deleted": np.full(n, tomb, dtype=bool)})

        return f

    append_deltas(out, ds.map_batches(batch_fn(5, 1, 10, False),
                                      batch_format="pyarrow",
                                      batch_size=None), part_col="day")
    # batch 2 = seq-tie overrides (%10, same ver) + tombstones (%17)
    upd = ds.map_batches(batch_fn(10, 1, 200, False),
                         batch_format="pyarrow", batch_size=None)
    dels = ds.map_batches(batch_fn(17, 2, 0, True),
                          batch_format="pyarrow", batch_size=None)
    append_deltas(out, upd.union(dels), part_col="day")
    return out


def _mor_day_rollup(merged: "ray.data.Dataset",
                    extra: dict[str, "int"] | None = None
                    ) -> "ray.data.Dataset":
    """Per-day (n, sum_id, sum_ver, sum_flag) rollup of a merged MOR
    view, with optional constant columns (snapshot labels) attached."""
    extra = extra or {}

    def norm(batch: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"day": batch["day"].astype(str),
                            "event_id": batch["event_id"],
                            "ver": batch["ver"], "flag": batch["flag"]})
        for c, v in extra.items():
            out[c] = np.int64(v)
        return out

    return grouped_sum(
        merged.map_batches(norm, batch_format="pandas", batch_size=None),
        list(extra) + ["day"],
        sums={"event_id": "sum_id", "ver": "sum_ver", "flag": "sum_flag"},
        count_as="n")


# the merge-on-read view replayed in SQL: tombstones (%17) drop
# keys; among survivors ver=1 iff any delta touched the key, and the
# winning flag is batch 2's (200, %10) over batch 1's (10, %5)
# because equal-ver ties resolve to the later delta sequence
@query(oracle=(
    "WITH base AS (SELECT event_id, "
    "strftime(date_trunc('day', ts), '%Y-%m-%d') AS day FROM events), "
    "final AS (SELECT event_id, day, "
    "CASE WHEN event_id % 5 = 0 THEN 1 ELSE 0 END AS ver, "
    "CASE WHEN event_id % 10 = 0 THEN 200 "
    "WHEN event_id % 5 = 0 THEN 10 ELSE 0 END AS flag "
    "FROM base WHERE event_id % 17 != 0) "
    "SELECT day, CAST(COUNT(*) AS BIGINT) AS n, "
    "CAST(SUM(event_id) AS BIGINT) AS sum_id, "
    "CAST(SUM(ver) AS BIGINT) AS sum_ver, "
    "CAST(SUM(flag) AS BIGINT) AS sum_flag "
    "FROM final GROUP BY day"))
def events_mor_roundtrip(sf_dir: str) -> "ray.data.Dataset":
    """Merge-on-read round trip: seed the shared MOR fixture store
    (:func:`_seed_mor_store` — base ver=0/flag=0, batch 1 updates %5,
    batch 2 seq-tie overrides %10 + tombstones %17), scan through the
    merge-on-read view (partitioned.read_merged) and roll up per day.
    ``sum_flag`` shifts if sequence order, latest-wins, or tombstone
    handling is wrong anywhere; pytest (tests/test_deltalog.py) covers
    base invisibility, fold-down compaction and crash recovery."""
    from zeeklog_ray.partitioned import read_merged

    out = _seed_mor_store(sf_dir, "mor")
    merged = read_merged(out, key="event_id", order_col="ver",
                         deleted_col="deleted")
    return _mor_day_rollup(merged)


# every retained snapshot of the delta log replayed in SQL: snap 0 =
# base (all zeros), snap 1 = batch 1 only (%5 → ver 1 / flag 10, no
# tombstones yet), snap 2 = the current merged view (same expression
# as events_mor_roundtrip)
@query(oracle=(
    "WITH base AS (SELECT event_id, "
    "strftime(date_trunc('day', ts), '%Y-%m-%d') AS day FROM events), "
    "s0 AS (SELECT 0 AS snap, event_id, day, 0 AS ver, 0 AS flag "
    "FROM base), "
    "s1 AS (SELECT 1 AS snap, event_id, day, "
    "CASE WHEN event_id % 5 = 0 THEN 1 ELSE 0 END AS ver, "
    "CASE WHEN event_id % 5 = 0 THEN 10 ELSE 0 END AS flag "
    "FROM base), "
    "s2 AS (SELECT 2 AS snap, event_id, day, "
    "CASE WHEN event_id % 5 = 0 THEN 1 ELSE 0 END AS ver, "
    "CASE WHEN event_id % 10 = 0 THEN 200 "
    "WHEN event_id % 5 = 0 THEN 10 ELSE 0 END AS flag "
    "FROM base WHERE event_id % 17 != 0), "
    "allsnaps AS (SELECT * FROM s0 UNION ALL SELECT * FROM s1 "
    "UNION ALL SELECT * FROM s2) "
    "SELECT snap, day, CAST(COUNT(*) AS BIGINT) AS n, "
    "CAST(SUM(event_id) AS BIGINT) AS sum_id, "
    "CAST(SUM(ver) AS BIGINT) AS sum_ver, "
    "CAST(SUM(flag) AS BIGINT) AS sum_flag "
    "FROM allsnaps GROUP BY snap, day"))
def events_time_travel(sf_dir: str) -> "ray.data.Dataset":
    """Snapshot time travel over the delta log: the shared MOR fixture
    store read AS OF every retained snapshot — ``as_of_seq=0`` (base
    only), ``1`` (batch 1 applied), ``2`` (current view) — each rolled
    up per day and unioned under a ``snap`` label.  One hash gate covers
    the whole history: snap 0 must show zero vers/flags, snap 1 must
    show batch 1 WITHOUT batch 2's seq-tie overrides or tombstones, and
    snap 2 must equal the current merged view.  Retention contract:
    compact_deltas folds history into the base, ending time travel for
    what it folds (pytest: tests/test_deltalog.py)."""
    from zeeklog_ray.partitioned import read_merged

    out = _seed_mor_store(sf_dir, "timetravel")
    snaps = [
        _mor_day_rollup(
            read_merged(out, key="event_id", order_col="ver",
                        deleted_col="deleted", as_of_seq=s),
            extra={"snap": s})
        for s in (0, 1, 2)]
    return snaps[0].union(*snaps[1:])


# vacuum must remove ONLY garbage: the post-GC merged view equals
# the untouched merge-on-read expression
@query(oracle=(
    "WITH base AS (SELECT event_id, "
    "strftime(date_trunc('day', ts), '%Y-%m-%d') AS day FROM events), "
    "final AS (SELECT event_id, day, "
    "CASE WHEN event_id % 5 = 0 THEN 1 ELSE 0 END AS ver, "
    "CASE WHEN event_id % 10 = 0 THEN 200 "
    "WHEN event_id % 5 = 0 THEN 10 ELSE 0 END AS flag "
    "FROM base WHERE event_id % 17 != 0) "
    "SELECT day, CAST(COUNT(*) AS BIGINT) AS n, "
    "CAST(SUM(event_id) AS BIGINT) AS sum_id, "
    "CAST(SUM(ver) AS BIGINT) AS sum_ver, "
    "CAST(SUM(flag) AS BIGINT) AS sum_flag "
    "FROM final GROUP BY day"))
def events_vacuum_roundtrip(sf_dir: str) -> "ray.data.Dataset":
    """Store GC round trip: seed the shared MOR fixture store, LITTER it
    with every class of crash debris vacuum owns — a leftover upsert
    staging tree, a leftover delta staging tree, orphan
    ``*.parquet.tmp`` files in a partition dir and its ``_deltas/``, a
    torn ``_compaction.journal``, a stray ``*.journal.tmp`` — run
    :func:`zeeklog_ray.partitioned.vacuum_store`, then scan the merged
    view and roll up per day.  The hash gate (same oracle as
    events_mor_roundtrip) proves vacuum removed ONLY garbage: any
    committed base/delta file it wrongly deletes shifts the sums, and
    the in-query asserts prove the garbage is actually gone (pytest:
    tests/test_deltalog.py covers byte accounting and recover-first
    ordering)."""
    import pyarrow.parquet as pq_  # noqa: N813 — local, matches file style

    from zeeklog_ray.partitioned import read_merged, vacuum_store

    out = _seed_mor_store(sf_dir, "vacuum")
    parts = sorted(d for d in os.listdir(out) if d.startswith("day="))
    victim = os.path.join(out, parts[0])
    junk = pa.table({"event_id": [1], "day": ["x"], "ver": [0]})
    for stage in ("_upsert_staging_dead", "_delta_staging_dead"):
        sdir = os.path.join(out, stage, "day=1970-01-01")
        os.makedirs(sdir)
        pq_.write_table(junk, os.path.join(sdir, "part-0.parquet"))
    pq_.write_table(junk, os.path.join(victim, "upsert-dead.parquet.tmp"))
    os.makedirs(os.path.join(victim, "_deltas"), exist_ok=True)
    pq_.write_table(junk, os.path.join(
        victim, "_deltas", "delta-999999-0000.parquet.tmp"))
    with open(os.path.join(victim, "_compaction.journal"), "w") as f:
        f.write('{"olds": ["a.par')  # torn mid-write → pre-commit rollback
    with open(os.path.join(victim, "tmpabc.journal.tmp"), "w") as f:
        f.write("{}")

    report = vacuum_store(out)
    assert report["staging_dirs"] == 2, report
    assert report["tmp_files"] == 3, report
    assert report["bytes_reclaimed"] > 0, report
    leftovers = [os.path.join(dp, f) for dp, _, fs in os.walk(out)
                 for f in fs
                 if f.endswith((".tmp", ".journal")) or "staging" in dp]
    assert not leftovers, leftovers

    merged = read_merged(out, key="event_id", order_col="ver",
                         deleted_col="deleted")
    return _mor_day_rollup(merged)


# the maintained aggregate must equal a plain GROUP BY over the
# merged CDC view: even-day-of-month rows take updates (%5, +777
# cents), tombstones (%17, precedence) and inserts (%7==3, re-keyed
# +1e9 at 555 cents); odd-day rows pass through — their aggregate
# files were never rewritten, so any staleness bug shifts the sums
@query(oracle=(
    "WITH base AS (SELECT event_id, event_type, "
    "CAST(ROUND(value * 100) AS BIGINT) AS cents, "
    "CAST(strftime(ts, '%d') AS INT) % 2 = 0 AS even_day FROM events), "
    "final AS ("
    "SELECT event_id, event_type, "
    "CASE WHEN even_day AND event_id % 5 = 0 THEN cents + 777 "
    "ELSE cents END AS cents "
    "FROM base WHERE NOT (even_day AND event_id % 17 = 0) "
    "UNION ALL "
    "SELECT event_id + 1000000000, event_type, 555 FROM base "
    "WHERE even_day AND event_id % 7 = 3) "
    "SELECT event_type, CAST(SUM(cents) AS BIGINT) AS sum_cents, "
    "CAST(COUNT(*) AS BIGINT) AS n FROM final GROUP BY event_type"))
def events_ivm_groupsum(sf_dir: str) -> "ray.data.Dataset":
    """Incremental materialized-view maintenance: a per-event-type
    (sum_cents, n) aggregate over a day-partitioned MOR store, kept
    fresh by recomputing ONLY the partitions a CDC batch touched
    (partitioned.refresh_group_sums).

    Seed: full events table (integer cents, ver 0), full first build of
    the aggregate.  CDC batch (only EVEN day-of-month events, so odd-day
    partitions must survive on their *stale aggregate files alone*):
    updates ``%5`` add 777 cents at ver 1, tombstones ``%17`` (ver 2,
    precedence over updates), inserts ``%7==3`` re-keyed +1e9 at 555
    cents.  Refresh passes the touched-partition list from the append
    report; the in-query assert proves the batch touched a strict
    subset.  Result: the global rollup read from the aggregate files
    (group-cardinality rows — the base table is never rescanned), which
    the oracle replays as a plain GROUP BY over the merged view."""
    import pyarrow.compute as pc

    from zeeklog_ray.partitioned import (
        append_deltas,
        read_group_sums,
        refresh_group_sums,
        write_partitioned,
    )
    from zeeklog_ray.relational import to_cents

    out = _scratch_dir("ivm", sf_dir)
    agg = out + "-agg"
    shutil.rmtree(agg, ignore_errors=True)
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "ts", "event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        batch = to_cents(batch, {"value": "cents"})
        day = pc.strftime(pc.floor_temporal(batch["ts"], unit="day"),
                          format="%Y-%m-%d")
        n = batch.num_rows
        return pa.table({"event_id": batch["event_id"], "day": day,
                         "event_type": batch["event_type"],
                         "cents": batch["cents"],
                         "ver": pa.array(np.zeros(n, dtype=np.int64))})

    write_partitioned(
        ds.map_batches(prep, batch_format="pyarrow", batch_size=None)
        .repartition(16), out, ["day"])
    full = refresh_group_sums(out, agg, key="event_id", order_col="ver",
                              group_cols=["event_type"],
                              sum_cols=["cents"], deleted_col="deleted")

    def make_changes(batch: pa.Table) -> pa.Table:
        batch = to_cents(batch, {"value": "cents"})
        day = pc.strftime(pc.floor_temporal(batch["ts"], unit="day"),
                          format="%Y-%m-%d").to_numpy(zero_copy_only=False)
        eid = batch["event_id"].to_numpy()
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        cents = batch["cents"].to_numpy()
        dom = pc.day(batch["ts"]).to_numpy().astype(np.int64)
        even = dom % 2 == 0
        is_del = even & (eid % 17 == 0)
        is_upd = even & (eid % 5 == 0) & ~is_del
        is_ins = even & (eid % 7 == 3)
        keys = np.concatenate([eid[is_del], eid[is_upd],
                               eid[is_ins] + 1_000_000_000])
        days = np.concatenate([day[is_del], day[is_upd], day[is_ins]])
        ets = np.concatenate([et[is_del], et[is_upd], et[is_ins]])
        cts = np.concatenate([
            np.zeros(int(is_del.sum()), dtype=np.int64),
            cents[is_upd] + 777,
            np.full(int(is_ins.sum()), 555, dtype=np.int64)])
        vers = np.concatenate([
            np.full(int(is_del.sum()), 2, dtype=np.int64),
            np.ones(int(is_upd.sum() + is_ins.sum()), dtype=np.int64)])
        deleted = np.concatenate([
            np.ones(int(is_del.sum()), dtype=bool),
            np.zeros(int(is_upd.sum() + is_ins.sum()), dtype=bool)])
        # explicit types: an all-odd-day block selects ZERO change rows
        # and empty object arrays would otherwise infer as Arrow null
        return pa.table({
            "event_id": pa.array(keys, type=pa.int64()),
            "day": pa.array(days, type=pa.string()),
            "event_type": pa.array(ets, type=pa.string()),
            "cents": pa.array(cts, type=pa.int64()),
            "ver": pa.array(vers, type=pa.int64()),
            "deleted": pa.array(deleted, type=pa.bool_())})

    changes = ds.map_batches(make_changes, batch_format="pyarrow",
                             batch_size=None)
    rep = append_deltas(out, changes, part_col="day")
    incr = refresh_group_sums(out, agg, key="event_id", order_col="ver",
                              group_cols=["event_type"],
                              sum_cols=["cents"], deleted_col="deleted",
                              parts=rep["dir"].tolist())
    # incrementality is real: the CDC batch touched a strict subset
    assert 0 < len(incr) < len(full), (len(incr), len(full))

    def norm(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_type": batch["event_type"],
                             "sum_cents": batch["sum_cents"],
                             "n": batch["n"]})

    return grouped_sum(
        read_group_sums(agg).map_batches(norm, batch_format="pandas",
                                         batch_size=None),
        ["event_type"], sums={"sum_cents": "sum_cents", "n": "n"})


# rename + typed-default + widen replayed as a CASE: even doc_ids
# were written under schema v1 (body only), so they must surface
# with source 'legacy' and n_chars -1 after the evolved read
@query(oracle=(
    "SELECT CASE WHEN doc_id % 2 = 0 THEN 'legacy' ELSE source END "
    "AS source, "
    "CAST(SUM(CASE WHEN doc_id % 2 = 0 THEN -1 ELSE n_chars END) "
    "AS BIGINT) AS sum_chars, "
    "CAST(COUNT(*) AS BIGINT) AS n_docs "
    "FROM documents GROUP BY 1"))
def docs_schema_evolution(sf_dir: str) -> "ray.data.Dataset":
    """Schema-on-read evolution: a store written under TWO historical
    schema versions — v1 files (even doc_ids) carry only ``(doc_id
    int32, body)``, v2 files (odd doc_ids) the current ``(doc_id int64,
    text, source, n_chars)`` — normalized by
    :func:`zeeklog_ray.partitioned.read_evolved` to one target schema
    without rewriting a byte: ``body`` renames to ``text``, v1's
    missing ``source``/``n_chars`` fill from typed defaults
    ('legacy'/-1), ``doc_id`` widens int32→int64.  Result is the
    per-source rollup; the oracle replays rename+default+widen as a
    CASE over the source table, so a file normalized wrong (default
    leaking onto v2 rows, widen truncating, rename missed) shifts the
    hash."""
    import pyarrow.compute as pc

    from zeeklog_ray.partitioned import read_evolved

    out = _scratch_dir("evolve", sf_dir)
    ds = read_table(sf_dir, "documents",
                    columns=["doc_id", "text", "source", "n_chars"])

    def v1(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(pc.bit_wise_and(batch["doc_id"], 1), 0))
        return pa.table({"doc_id": pc.cast(t["doc_id"], pa.int32()),
                         "body": t["text"]})

    def v2(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.equal(pc.bit_wise_and(batch["doc_id"], 1), 1))

    ds.map_batches(v1, batch_format="pyarrow", batch_size=None) \
        .write_parquet(os.path.join(out, "v1"))
    ds.map_batches(v2, batch_format="pyarrow", batch_size=None) \
        .write_parquet(os.path.join(out, "v2"))

    target = pa.schema([("doc_id", pa.int64()), ("text", pa.string()),
                        ("source", pa.string()), ("n_chars", pa.int64())])
    evolved = read_evolved(out, target, renames={"body": "text"},
                           defaults={"source": "legacy", "n_chars": -1})
    return grouped_sum(evolved.select_columns(["source", "n_chars"]),
                       ["source"], sums={"n_chars": "sum_chars"},
                       count_as="n_docs")


def _prep_export_oracle_sql() -> str:
    """Composed SQL replay of the prep-export chain (see prep.py)."""
    dedup = (
        "(WITH q AS (SELECT doc_id, source, text, "
        f"{_N_WORDS_SQL}, {_N_STOP_SQL} FROM documents), "
        "f AS (SELECT * FROM q WHERE n_words >= 15 AND "
        "CAST(FLOOR(n_stop * 10000.0 / CASE WHEN n_words = 0 THEN 1 "
        "ELSE n_words END) AS BIGINT) >= 200), "
        "d AS (SELECT MIN(doc_id) AS doc_id, MIN(source) AS source, "
        "CAST(LENGTH(REGEXP_EXTRACT_ALL(text, "
        "'[A-Za-z]+|[0-9]{1,3}|[^A-Za-z0-9\\s]')) AS BIGINT) AS n_bpe "
        "FROM f GROUP BY text) SELECT doc_id, source, n_bpe FROM d) dd")
    resample = _sample_sql.mixture_resample_sql(
        dedup, key_col="doc_id", select_cols="doc_id, source, n_bpe",
        by="source", rates=_PREP_RATES, default_rate=1.0)
    return (
        f"WITH rs AS ({resample}), "
        "p AS (SELECT source, n_bpe, "
        "(SUM(n_bpe) OVER (PARTITION BY source ORDER BY doc_id, epoch "
        "ROWS UNBOUNDED PRECEDING) - n_bpe) // 2048 AS pack_id FROM rs) "
        "SELECT source, CAST(COUNT(*) AS BIGINT) AS n_rows, "
        "CAST(SUM(n_bpe) AS BIGINT) AS sum_tokens, "
        "CAST(COUNT(DISTINCT pack_id) AS BIGINT) AS n_packs "
        "FROM p GROUP BY source")


@query(oracle=_prep_export_oracle_sql())
def docs_prep_export(sf_dir: str) -> pd.DataFrame:
    """The FULL training-data export chain (zeeklog_ray.prep): quality
    filter → exact dedup → source-mixture resample (src0 ×2.5, src1
    ×0.5) → sequence packing → hive-partitioned manifest write → summary
    read-back.  The oracle replays every stage bit-exactly in SQL
    (quality/dedup CTE + splitmix64 resample + window-cumsum packing) and
    compares the per-source rollup — gating the chain end to end,
    INCLUDING the written output."""
    from zeeklog_ray.prep import prep_export

    out = _scratch_dir("prep", sf_dir)
    docs = read_table(sf_dir, "documents",
                      columns=["doc_id", "text", "source"])
    summary = prep_export(docs, out, rates=_PREP_RATES)
    rows = [(s, v["n_rows"], v["sum_tokens"], v["n_packs"])
            for s, v in summary["sources"].items()]
    return pd.DataFrame(rows, columns=["source", "n_rows", "sum_tokens",
                                       "n_packs"]) \
        .sort_values("source").reset_index(drop=True)


@query(rows_only="the span screen's CDC boundary walk has no SQL replay; the "
                 "unscreened chain is hash-gated as docs_prep_export")
def docs_prep_screened(sf_dir: str) -> pd.DataFrame:
    """The prep chain with the OPTIONAL duplicated-span screen enabled
    (prep.span_screen, CDC scoring tier): docs whose shared-span ratio
    reaches 20% drop before tokenization, then the standard filter →
    dedup → resample → pack manifest; output is the per-source rollup.
    Rows-only gate: the CDC boundary walk is the documented
    non-SQL-expressible step (same as docs_cdc_dup); the unscreened
    chain itself stays fully hash-gated via docs_prep_export."""
    from zeeklog_ray.prep import prep_manifest

    docs = read_table(sf_dir, "documents",
                      columns=["doc_id", "text", "source"])
    manifest = prep_manifest(docs, rates=_PREP_RATES,
                             span_screen_ratio_e4=2_000)
    return grouped_sum(manifest.select_columns(["source", "n_bpe"]),
                       ["source"], sums={"n_bpe": "sum_tokens"},
                       count_as="n_rows").to_pandas() \
        .sort_values("source").reset_index(drop=True)


@query(oracle=(
    "SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n FROM events "
    "WHERE event_type IN ('click', 'error', 'purchase', 'signup', "
    "'view') GROUP BY event_type"))
def event_type_counts_cm(sf_dir: str) -> pd.DataFrame:
    """Count-Min sketch frequencies for the known event types
    (ops/sketch.count_min_build/estimate over a string key).  The sketch
    is approximate in general (never under, over by < e·n/width w.h.p.),
    but at this deterministic configuration — 5 probed keys, width 2048,
    depth 4, fixed hash — it is collision-free, so the oracle is the
    exact GROUP BY count: the gate verifies both the plumbing and the
    no-collision claim."""
    from zeeklog_ray.ops.sketch import count_min_build, count_min_estimate

    ev = read_table(sf_dir, "events", columns=["event_type"])
    cm = count_min_build(ev, "event_type", width=2048, depth=4)
    return pd.DataFrame({"event_type": _PIVOT_TYPES,
                         "n": count_min_estimate(cm, _PIVOT_TYPES)})


_CONT_Q_PCTS = [50, 90, 99]


# continuous quantiles replayed in the SAME exact integer math as
# ops.sketch.grouped_interp_quantiles (quantile_cont itself computes in
# double — ×100-and-cast would be ulp-fragile): sorted value list per
# key, i = p*(n-1)//100, r = p*(n-1)%100, x[i]*(100-r) + x[i+1]*r
@query(oracle=(
    "WITH s AS (SELECT event_type, "
    "list(v ORDER BY v) AS l, count(*) AS n FROM "
    "(SELECT event_type, CAST(ROUND(value * 100) AS BIGINT) AS v "
    "FROM events WHERE value IS NOT NULL) GROUP BY event_type) "
    "SELECT event_type, CAST(q_pct AS BIGINT) AS q_pct, "
    "CAST(l[CAST(i AS INTEGER) + 1] * (100 - r) + "
    "l[CAST(LEAST(i + 1, n - 1) AS INTEGER) + 1] * r AS BIGINT) "
    "AS value_x100 FROM ("
    "SELECT event_type, l, n, q_pct, "
    "(q_pct * (n - 1)) // 100 AS i, (q_pct * (n - 1)) % 100 AS r "
    "FROM s, (VALUES " +
    ", ".join(f"({p})" for p in _CONT_Q_PCTS) + ") AS qq(q_pct))"))
def event_type_quantiles_cont(sf_dir: str) -> "ray.data.Dataset":
    """Per-event-type CONTINUOUS (linearly interpolated) quantiles of
    value cents, in exact integer math — quantile_cont semantics with
    the result pre-scaled ×100 so Ray and the SQL replay compare
    bit-for-bit (ops/sketch.grouped_interp_quantiles)."""
    from zeeklog_ray.ops.sketch import grouped_interp_quantiles

    ev = read_table(sf_dir, "events", columns=["event_type", "value"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_type": batch["event_type"],
                             "value_cents": _round_half_away(batch["value"] * 100)})

    return grouped_interp_quantiles(
        ev.map_batches(prep, batch_format="pandas", batch_size=None),
        "event_type", "value_cents", _CONT_Q_PCTS)


@query(oracle=(
    "SELECT o_orderkey, o_custkey FROM orders "
    "WHERE o_custkey IN (SELECT c_custkey FROM customer "
    "WHERE c_mktsegment = 'BUILDING')"))
def building_orders_bloom(sf_dir: str) -> "ray.data.Dataset":
    """Bloom-pruned semi-join (relational.bloom_semi_filter): same result
    as building_segment_orders, but the broadcast is a 128 KB bitset (10
    bits/key scales to 10^9-key dimension sides where an exact key set
    cannot broadcast), followed by the exact verification filter that
    removes bloom false positives."""
    import ray as _ray

    from zeeklog_ray.relational import bloom_semi_filter

    keys = small_table(sf_dir, "customer",
                       columns=["c_custkey", "c_mktsegment"]) \
        .query("c_mktsegment == 'BUILDING'")["c_custkey"]
    ds = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    pruned = bloom_semi_filter(ds, keys, on="o_custkey")
    ref = _ray.put(set(keys))

    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[batch["o_custkey"].isin(_ray.get(ref))]

    return pruned.map_batches(verify, batch_format="pandas", batch_size=None)


@query(oracle=(
    "SELECT doc_id, source, n_chars FROM documents WHERE doc_id % 20 = 3"))
def docs_sample_mod(sf_dir: str) -> "ray.data.Dataset":
    """Deterministic 5% sample: keep doc_id ≡ 3 (mod 20).  Hash/modulo
    sampling is the reproducible, partition-independent sampling scheme a
    training pipeline needs (same rows selected on any cluster layout);
    ``Dataset.random_sample`` exists for the non-reproducible case."""
    import pyarrow as _pa
    import pyarrow.compute as _pc

    ds = read_table(sf_dir, "documents", columns=["doc_id", "source", "n_chars"])

    def keep(batch: _pa.Table) -> _pa.Table:
        mod = _pc.subtract(batch["doc_id"],
                           _pc.multiply(_pc.divide(batch["doc_id"], 20), 20))
        return batch.filter(_pc.equal(mod, 3))

    return ds.map_batches(keep, batch_format="pyarrow", batch_size=None)


# bit-exact splitmix64 ROW_NUMBER replay (ops/sample.py builds the CTE)
@query(oracle=_sample_sql.cap_per_key_sql(
    "documents", "source", "doc_id", "doc_id, source, n_chars",
    10, _CAP_SALT))
def docs_cap_per_source(sf_dir: str) -> "ray.data.Dataset":
    """Per-source document cap (relational.cap_per_key): at most 10 docs
    per source, chosen by the deterministic mix64 draw — the "max
    documents per domain" operator of a training-data pipeline (exact cap
    per key, unbiased winners, reproducible on any partitioning).  Hash-
    checked against the bit-exact HUGEINT splitmix64 ROW_NUMBER replay
    (ops/sample.cap_per_key_sql)."""
    from zeeklog_ray.relational import cap_per_key

    ds = read_table(sf_dir, "documents",
                    columns=["doc_id", "source", "n_chars"])
    capped = cap_per_key(ds, "source", 10, "doc_id")

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[["doc_id", "source", "n_chars"]]

    return capped.map_batches(finish, batch_format="pandas",
                              batch_size=None)


# PII-scrub patterns: shared between the Ray scrubber and the DuckDB
# oracle.  Kept alternation-free so RE2 (leftmost-longest) and Python re
# (leftmost-first backtracking) produce IDENTICAL matches — with greedy
# quantifiers and no '|' the two semantics coincide.
_PII_EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
_PII_IPV4 = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"
_PII_LONGNUM = r"\d{9,}"


# sequential-scrub replay: each count runs on the text AFTER the
# previous pattern's replacement, mirroring the Ray side's subn chain
@query(oracle=(
    f"WITH planted AS (SELECT doc_id, text "
    f"|| (CASE WHEN doc_id % 3 <> 0 THEN ' contact user' || "
    f"CAST(doc_id AS VARCHAR) || '@example.com' ELSE '' END) "
    f"|| (CASE WHEN doc_id % 2 = 0 THEN ' from 10.' || "
    f"CAST(doc_id % 200 AS VARCHAR) || '.' || "
    f"CAST(doc_id % 250 AS VARCHAR) || '.7' ELSE '' END) "
    # printf never truncates (lpad would cut ids > 12 digits, silently
    # diverging from Python's '%012d')
    f"|| ' ref 9' || printf('%012d', doc_id) AS t "
    f"FROM documents), "
    f"s1 AS (SELECT doc_id, "
    f"CAST(len(regexp_extract_all(t, '{_PII_EMAIL}')) AS BIGINT) "
    f"AS n_email, "
    f"regexp_replace(t, '{_PII_EMAIL}', '[EMAIL]', 'g') AS t "
    f"FROM planted), "
    f"s2 AS (SELECT doc_id, n_email, "
    f"CAST(len(regexp_extract_all(t, '{_PII_IPV4}')) AS BIGINT) "
    f"AS n_ip, "
    f"regexp_replace(t, '{_PII_IPV4}', '[IP]', 'g') AS t FROM s1) "
    f"SELECT doc_id, "
    f"regexp_replace(t, '{_PII_LONGNUM}', '[NUM]', 'g') AS scrubbed, "
    f"n_email, n_ip, "
    f"CAST(len(regexp_extract_all(t, '{_PII_LONGNUM}')) AS BIGINT) "
    f"AS n_num FROM s2"))
def docs_pii_scrub(sf_dir: str) -> "ray.data.Dataset":
    """PII redaction over the corpus: emails → [EMAIL], IPv4 literals →
    [IP], ≥9-digit runs → [NUM], with per-doc match counts — the
    pre-training scrub pass every public corpus pipeline runs.  The
    synthetic corpus contains no PII, so the query PLANTS deterministic
    PII first (conditional on doc_id, identically in Ray and SQL — the
    planting is fixture construction; the scrubber is the operator under
    test).  Row-local map, no shuffle: at 10^12 docs this streams.

    Scrub order matters and is part of the contract: emails first (their
    local parts may contain digit runs), then dotted quads (never inside
    a remaining email), then bare long digit runs."""
    import re

    # re.ASCII: Python's \d/\b are Unicode-aware by default but RE2's
    # (DuckDB's) are ASCII-only — without the flag, nine Arabic-Indic
    # digits would be scrubbed here and kept by the oracle
    email_re = re.compile(_PII_EMAIL, re.ASCII)
    ipv4_re = re.compile(_PII_IPV4, re.ASCII)
    num_re = re.compile(_PII_LONGNUM, re.ASCII)

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def scrub(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["doc_id"].to_numpy()
        planted = [
            t
            + ((" contact user%d@example.com" % i) if i % 3 else "")
            + ((" from 10.%d.%d.7" % (i % 200, i % 250)) if i % 2 == 0
               else "")
            + " ref 9%012d" % i
            for i, t in zip(ids, batch["text"])
        ]
        n_email = np.empty(len(planted), dtype=np.int64)
        n_ip = np.empty(len(planted), dtype=np.int64)
        n_num = np.empty(len(planted), dtype=np.int64)
        out = []
        # per-string compiled-regex subn — same cost shape as the
        # .str.count/.str.replace pandas string methods (which also
        # iterate per string), but ONE pass gets count + replacement
        for j, t in enumerate(planted):
            t, n_email[j] = email_re.subn("[EMAIL]", t)
            t, n_ip[j] = ipv4_re.subn("[IP]", t)
            t, n_num[j] = num_re.subn("[NUM]", t)
            out.append(t)
        return pd.DataFrame({"doc_id": ids, "scrubbed": out,
                             "n_email": n_email, "n_ip": n_ip,
                             "n_num": n_num})

    return ds.map_batches(scrub, batch_format="pandas", batch_size=None)


# Planted strings for docs_text_normalize: each exercises one
# normalization axis (combining-sequence NFC, tab/newline collapse,
# case folding incl. ß/ligature/Cyrillic, decomposed Ё).  Deliberately
# free of final-position Σ and dotted İ — the two documented Python/
# DuckDB lowercasing divergences (ops/text.normalize_text docstring).
_NORM_PLANTS = [
    " Café  MIX\tUP ",
    "\tTAB\n\nNEWLINES  ",
    " STRASSE ß ﬃGHT",
    " АБВГ Ёлка",
]


# NFC+lower+collapse+strip replay; the planted strings are embedded as
# raw UTF-8 literals — the CASE arms must match _NORM_PLANTS verbatim
@query(oracle=(
    "WITH planted AS (SELECT doc_id, text || CASE doc_id % 4 "
    + " ".join(f"WHEN {i} THEN '{p}'" for i, p in enumerate(_NORM_PLANTS))
    + " END AS t FROM documents), "
    "n AS (SELECT doc_id, trim(regexp_replace(lower(nfc_normalize(t)), "
    "'[ \t\n\r\f\v]+', ' ', 'g'), ' ') AS text_norm FROM planted) "
    "SELECT doc_id, text_norm, "
    "CAST(length(text_norm) AS BIGINT) AS n_chars_norm FROM n"))
def docs_text_normalize(sf_dir: str) -> "ray.data.Dataset":
    """Unicode canonicalization over the corpus (ops/text.normalize_text):
    NFC + lowercase + whitespace-run collapse + strip, with the
    normalized length — the pass that makes byte-level variants of the
    same content collide before dedup.  The synthetic corpus is ASCII, so
    the query PLANTS deterministic Unicode mess per doc_id (identically
    in Ray and SQL) to make the hash gate exercise every axis.
    Row-local map, no shuffle."""
    from zeeklog_ray.ops.text import normalize_text

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def plant(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["doc_id"].to_numpy()
        batch = batch.copy()
        batch["text"] = [t + _NORM_PLANTS[i % 4]
                         for i, t in zip(ids, batch["text"])]
        return batch

    normed = normalize_text(
        ds.map_batches(plant, batch_format="pandas", batch_size=None))

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": batch["doc_id"].to_numpy(),
            "text_norm": batch["text_norm"].to_numpy(),
            "n_chars_norm": batch["text_norm"].str.len()
            .astype("int64").to_numpy()})

    return normed.map_batches(finish, batch_format="pandas",
                              batch_size=None)


# integer linear-idf TF-IDF: // truncates on both sides (all positive)
@query(oracle=(
    "WITH w AS (SELECT doc_id, unnest(string_split(text, ' ')) AS word "
    "FROM documents), "
    "f AS (SELECT doc_id, word, COUNT(*) AS tf FROM w WHERE word <> '' "
    "GROUP BY doc_id, word), "
    "nw AS (SELECT doc_id, SUM(tf) AS n_words FROM f GROUP BY doc_id), "
    "dfreq AS (SELECT word, COUNT(*) AS df FROM f GROUP BY word), "
    "n AS (SELECT COUNT(*) AS n_docs FROM documents), "
    "s AS (SELECT f.doc_id, f.word, f.tf, "
    "(f.tf * 1000000 * n.n_docs) // (nw.n_words * dfreq.df) AS score_ppm "
    "FROM f JOIN nw USING (doc_id) JOIN dfreq USING (word) CROSS JOIN n), "
    "r AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY doc_id "
    "ORDER BY score_ppm DESC, word) AS rank FROM s) "
    "SELECT doc_id, CAST(rank AS BIGINT) AS rank, word, "
    "CAST(tf AS BIGINT) AS tf, CAST(score_ppm AS BIGINT) AS score_ppm "
    "FROM r WHERE rank <= 3"))
def docs_tfidf_top_terms(sf_dir: str) -> "ray.data.Dataset":
    """Per-document top-3 TF-IDF terms (integer linear-idf scoring) —
    relevance scoring / keyword extraction over the corpus
    (ops/text.tfidf_top_terms; row-local tf, entity-shaped df,
    bucketed equi-join on word, bucketed per-doc top-k)."""
    from zeeklog_ray.ops.text import tfidf_top_terms

    return tfidf_top_terms(
        read_table(sf_dir, "documents", columns=["doc_id", "text"]), k=3)


# inverted index: DISTINCT (word, doc) pairs, df + first-5 postings
@query(oracle=(
    "WITH w AS (SELECT DISTINCT * FROM (SELECT doc_id, "
    "unnest(string_split(text, ' ')) AS word FROM documents)), "
    "r AS (SELECT word, doc_id, "
    "ROW_NUMBER() OVER (PARTITION BY word ORDER BY doc_id) AS rn, "
    "COUNT(*) OVER (PARTITION BY word) AS df "
    "FROM w WHERE word <> '') "
    "SELECT word, CAST(max(df) AS BIGINT) AS df, "
    "STRING_AGG(CASE WHEN rn <= 5 THEN CAST(doc_id AS VARCHAR) END, "
    "',' ORDER BY doc_id) AS postings FROM r GROUP BY word"))
def docs_word_postings(sf_dir: str) -> "ray.data.Dataset":
    """Inverted index over the corpus: per word, the document frequency
    and a CAPPED posting list (first 5 doc_ids, ascending) — the search /
    retrieval shape (and the "which docs contain this contaminating
    string" audit tool).  Scale shape: explode + per-batch (word, doc)
    dedup is row-local; only deduped pairs shuffle ONCE on the word-hash
    bucket; the posting strings are built per bucket and the output is
    vocabulary-sized, never corpus-sized.  The cap bounds output row
    width — an uncapped posting list for a stopword would be a
    corpus-length string."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch[["doc_id"]].assign(word=batch["text"].str.split(" ")) \
            .explode("word", ignore_index=True)
        out = out[out["word"] != ""]
        # partial dedup pre-shuffle: a word repeated inside one doc
        # contributes one pair, so stopword fan-out is bounded by
        # (docs-in-batch × distinct-words), not token count
        return out.drop_duplicates()[["word", "doc_id"]]

    exploded = ds.map_batches(explode, batch_format="pandas",
                              batch_size=None)

    def per_bucket(group: pa.Table) -> pd.DataFrame:
        g = to_pandas(group).sort_values(["word", "doc_id"]) \
            .drop_duplicates(["word", "doc_id"])
        sizes = g.groupby("word", sort=False).size()
        posts = g.groupby("word", sort=False).head(5) \
            .groupby("word", sort=False)["doc_id"] \
            .agg(lambda s: ",".join(map(str, s)))
        return pd.DataFrame({"word": sizes.index.to_numpy(),
                             "df": sizes.to_numpy().astype("int64"),
                             "postings": posts.to_numpy()})

    return bucket_exchange(exploded, ["word"], per_bucket)


# within-doc consecutive word pairs; (count desc, bigram) tie-break
# makes the LIMIT deterministic on both sides
@query(oracle=(
    "WITH t AS (SELECT doc_id, string_split(text, ' ') AS ws "
    "FROM documents), "
    "u AS (SELECT doc_id, unnest(ws) AS w, "
    "unnest(generate_series(1, len(ws))) AS i FROM t), "
    "b AS (SELECT a.w || ' ' || c.w AS bigram FROM u a "
    "JOIN u c ON a.doc_id = c.doc_id AND c.i = a.i + 1) "
    "SELECT bigram, CAST(count(*) AS BIGINT) AS n FROM b "
    "GROUP BY bigram ORDER BY n DESC, bigram LIMIT 20"))
def docs_top_bigrams(sf_dir: str) -> pd.DataFrame:
    """Phrase mining: the 20 most frequent word bigrams corpus-wide
    (ties broken by the bigram string) — boilerplate/template detection.
    Per-batch ``value_counts`` partials (combiner: rows crossing the wire
    = distinct bigrams per batch), bucketed sum, then per-block local
    top-20 and a ≤ 20·|blocks|-row driver merge — the counts table never
    lands on the driver."""
    from itertools import chain

    from zeeklog_ray.relational import grouped_sum_bucketed

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def bigram_partials(batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch):
            return pd.DataFrame({"bigram": pd.Series([], dtype="object"),
                                 "n": pd.Series([], dtype="int64")})
        words = batch["text"].str.split(" ")
        counts = words.str.len().to_numpy()
        total = int(counts.sum())
        flat = np.fromiter(chain.from_iterable(words), dtype=object,
                           count=total)
        if total < 2:
            return pd.DataFrame({"bigram": pd.Series([], dtype="object"),
                                 "n": pd.Series([], dtype="int64")})
        # pairs starting at a doc's last word cross documents — mask out
        valid = np.ones(total - 1, dtype=bool)
        ends = np.cumsum(counts) - 1
        valid[ends[:-1][ends[:-1] < total - 1]] = False
        bg = pd.Series(flat[:-1][valid]).str.cat(
            pd.Series(flat[1:][valid]), sep=" ")
        vc = bg.value_counts()
        return pd.DataFrame({"bigram": vc.index.to_numpy(),
                             "n": vc.to_numpy().astype("int64")})

    partials = ds.map_batches(bigram_partials, batch_format="pandas",
                              batch_size=None)
    totals = grouped_sum_bucketed(partials, ["bigram"], sums={"n": "n"})

    def local_top(batch: pd.DataFrame) -> pd.DataFrame:
        if "bigram" not in batch.columns:
            return pd.DataFrame({"bigram": pd.Series([], dtype="object"),
                                 "n": pd.Series([], dtype="int64")})
        return batch.sort_values(["n", "bigram"],
                                 ascending=[False, True]).head(20)

    cand = totals.map_batches(local_top, batch_format="pandas",
                              batch_size=None).to_pandas()
    return cand.sort_values(["n", "bigram"], ascending=[False, True]) \
        .head(20).reset_index(drop=True)


# DuckDB levenshtein is byte-level — exactly what the DP computes
@query(oracle=(
    "SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, "
    "CAST(levenshtein(a.text, b.text) AS BIGINT) AS edit_dist "
    "FROM documents a JOIN documents b ON b.doc_id = a.doc_id + 1"))
def docs_editdist_adjacent(sf_dir: str) -> "ray.data.Dataset":
    """Byte-level Levenshtein distance over candidate pairs
    (ops/dedup.levenshtein_pairs) — the PRECISION tier of near-dup
    verification ("k edits apart", not just shingle overlap).  The pair
    set here is deterministic (each doc vs its successor id) so the
    DuckDB ``levenshtein`` replay gates the DP bit-exactly; production
    callers feed LSH candidates instead — the cost contract (candidate
    pairs only, never a cross product) is the same."""
    from zeeklog_ray.ops.dedup import levenshtein_pairs

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def as_left(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k": batch["doc_id"].to_numpy() + 1,
                             "doc_a": batch["doc_id"].to_numpy(),
                             "text_a": batch["text"].to_numpy()})

    left = ds.map_batches(as_left, batch_format="pandas", batch_size=None)
    joined = bucketed_equi_join(left, ds, on="k", right_on="doc_id")

    def dist(batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch):
            return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                                 "doc_b": pd.Series([], dtype="int64"),
                                 "edit_dist": pd.Series([], dtype="int64")})
        return pd.DataFrame({
            "doc_a": batch["doc_a"].to_numpy(),
            # the right key is renamed onto k, so k == right doc_id
            "doc_b": batch["k"].to_numpy(),
            "edit_dist": levenshtein_pairs(batch["text_a"], batch["text"])})

    return joined.map_batches(dist, batch_format="pandas", batch_size=None)


# bit-exact splitmix64 ROW_NUMBER replay (ops/sample.py builds the CTE)
@query(oracle=_sample_sql.shuffle_rank_sql(
    "documents", "doc_id", "doc_id, source"))
def docs_shuffle_order(sf_dir: str) -> "ray.data.Dataset":
    """Deterministic global training-order shuffle
    (ops/sample.shuffle_rank): every doc's explicit position under the
    salted splitmix64 order — reproducible on any partitioning, built
    with a two-level prefix sum instead of a global sort.  Hash-checked
    against the bit-exact HUGEINT ROW_NUMBER replay."""
    from zeeklog_ray.ops.sample import shuffle_rank

    ds = read_table(sf_dir, "documents", columns=["doc_id", "source"])
    return shuffle_rank(ds, id_col="doc_id")


@query(oracle=(
    "SELECT o_custkey, o_orderkey, total_cents FROM ("
    "SELECT o_custkey, o_orderkey, "
    "CAST(ROUND(o_totalprice * 100) AS BIGINT) AS total_cents, "
    "ROW_NUMBER() OVER (PARTITION BY o_custkey "
    "ORDER BY CAST(ROUND(o_totalprice * 100) AS BIGINT) DESC, o_orderkey) "
    "AS rn FROM orders) WHERE rn <= 2"))
def top_orders_per_customer(sf_dir: str) -> "ray.data.Dataset":
    """Per-group top-N (window-rank shape): each customer's 2 highest-value
    orders.  One :func:`~zeeklog_ray.relational.bucket_exchange`: a sort
    + ``groupby.head`` per key-hash bucket, C-level — a per-customer
    ``map_groups`` would pay Python per customer."""
    ds = read_table(sf_dir, "orders", columns=["o_custkey", "o_orderkey",
                                               "o_totalprice"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        batch["total_cents"] = _round_half_away(batch["o_totalprice"] * 100)
        return batch[["o_custkey", "o_orderkey", "total_cents"]]

    def top2(group: pa.Table) -> pd.DataFrame:
        g = to_pandas(group).sort_values(
            ["o_custkey", "total_cents", "o_orderkey"],
            ascending=[True, False, True])
        return g.groupby("o_custkey", sort=False).head(2)

    return bucket_exchange(
        ds.map_batches(prep, batch_format="pandas", batch_size=None),
        "o_custkey", top2)


@query(oracle=(
    "SELECT o_orderkey, CAST(SUM(CAST(ROUND(l_extendedprice * "
    "(1 - l_discount) * 100) AS BIGINT)) AS BIGINT) AS revenue_cents "
    "FROM orders JOIN lineitem ON o_orderkey = l_orderkey "
    "WHERE o_custkey IN (SELECT c_custkey FROM customer "
    "WHERE c_mktsegment = 'BUILDING') "
    "GROUP BY o_orderkey ORDER BY revenue_cents DESC, o_orderkey LIMIT 10"))
def building_revenue_q3(sf_dir: str) -> "ray.data.Dataset":
    """TPC-H Q3-shaped: top-10 orders by revenue for BUILDING-segment
    customers — broadcast semi-filter (customer keys) + bucketed
    equi-join (orders ⨝ lineitem) + grouped sum + top-k, the full
    relational stack in one pipeline."""
    import ray as _ray

    keys = set(small_table(sf_dir, "customer",
                           columns=["c_custkey", "c_mktsegment"])
               .query("c_mktsegment == 'BUILDING'")["c_custkey"])
    ref = _ray.put(keys)
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey",
                                                   "o_orderdate"])

    def semi(batch: pd.DataFrame) -> pd.DataFrame:
        ks = _ray.get(ref)
        batch = batch[batch["o_custkey"].isin(ks)]
        return batch[["o_orderkey"]]

    orders = orders.map_batches(semi, batch_format="pandas", batch_size=None)
    items = read_table(sf_dir, "lineitem",
                       columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def rev(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_orderkey": batch["l_orderkey"],
            "rev_cents": _round_half_away(
                batch["l_extendedprice"] * (1 - batch["l_discount"]) * 100)})

    items = items.map_batches(rev, batch_format="pandas", batch_size=None)
    joined = bucketed_equi_join(orders, items, on="o_orderkey",
                                right_on="l_orderkey")
    summed = grouped_sum(joined, ["o_orderkey"], sums={"rev_cents": "revenue_cents"})
    return top_k(summed, by=["revenue_cents", "o_orderkey"],
                 descending=[True, False], k=10)


@query(oracle=(
    "SELECT n_name, CAST(COUNT(o_orderkey) AS BIGINT) AS n_orders "
    "FROM customer JOIN nation ON c_nationkey = n_nationkey "
    "LEFT JOIN orders ON o_custkey = c_custkey GROUP BY n_name"))
def nation_order_counts_left(sf_dir: str) -> "ray.data.Dataset":
    """LEFT OUTER equi-join: every nation with its customer-order count,
    including nations whose customers placed no orders (NULL-extended side
    counted as zero)."""
    nation = small_table(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    cust = small_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    dim = cust.merge(nation, left_on="c_nationkey", right_on="n_nationkey")
    cust_ds = ray.data.from_pandas(dim[["c_custkey", "n_name"]])
    orders = read_table(sf_dir, "orders", columns=["o_custkey"])

    def mark(batch: pd.DataFrame) -> pd.DataFrame:
        # the right key is renamed onto the left one, so a marker column
        # tells matched rows from NULL-extended ones
        batch["_order_marker"] = 1
        return batch

    orders = orders.map_batches(mark, batch_format="pandas", batch_size=None)
    joined = bucketed_equi_join(cust_ds, orders, on="c_custkey",
                                right_on="o_custkey", how="left")

    def count_orders(batch: pd.DataFrame) -> pd.DataFrame:
        # NULL-extended rows (no orders) contribute 0
        batch["has_order"] = batch["_order_marker"].notna().astype("int64")
        return batch[["n_name", "has_order"]]

    prepped = joined.map_batches(count_orders, batch_format="pandas",
                                 batch_size=None)
    return grouped_sum(prepped, ["n_name"], sums={"has_order": "n_orders"})


_SAMPLE_RATES = {f"src{i}": round(0.05 + 0.045 * i, 3) for i in range(20)}
_MIXTURE_RATES = {f"src{i}": (2.3, 1.0, 0.4, 1.75)[i % 4] for i in range(20)}


# bit-exact splitmix64 replay in HUGEINT (ops/sample.py builds the CTE)
@query(oracle=_sample_sql.hash_sample_sql(
    "documents", "doc_id", "doc_id, source, lang, n_chars",
    "source", _SAMPLE_RATES))
def docs_hash_sample(sf_dir: str) -> "ray.data.Dataset":
    """Deterministic per-source hash down-sampling (mixture weighting with
    keep-rates < 1): keep a doc iff splitmix64(doc_id) < rate(source)·2^64.
    Partition-independent and shuffle-free — the reproducible sampling a
    training pipeline needs (ops/sample.py)."""
    from zeeklog_ray.ops.sample import hash_sample

    ds = read_table(sf_dir, "documents",
                    columns=["doc_id", "source", "lang", "n_chars"])
    return hash_sample(ds, "doc_id", by="source", rates=_SAMPLE_RATES)


@query(oracle=_sample_sql.mixture_resample_sql(
    "documents", "doc_id", "doc_id, source, n_chars",
    "source", _MIXTURE_RATES))
def docs_mixture_resample(sf_dir: str) -> "ray.data.Dataset":
    """Source-mixture re-weighting with rates ABOVE 1 (epoch oversampling):
    floor(rate) copies per doc plus a salted-hash fractional copy, each
    numbered in an ``epoch`` column — row-local np.repeat, no shuffle."""
    from zeeklog_ray.ops.sample import mixture_resample

    ds = read_table(sf_dir, "documents",
                    columns=["doc_id", "source", "n_chars"])
    return mixture_resample(ds, "doc_id", "source", _MIXTURE_RATES)


_CONTAM_K = 8          # byte-8-grams pack exactly into uint64
_CONTAM_BENCH_MOD = 13  # doc_id % 13 == 0 plays the held-out benchmark set


# bit-exact replay of ops.decontam.benchmark_contamination: distinct
# char-8-grams (ASCII corpus ⇒ char grams == byte grams), benchmark =
# doc_id ≡ 0 (mod 13), DuckDB // == Python // for non-negative ints
@query(oracle=(
    f"WITH bench AS (SELECT text FROM documents "
    f"WHERE doc_id % {_CONTAM_BENCH_MOD} = 0), "
    f"train AS (SELECT doc_id, text FROM documents "
    f"WHERE doc_id % {_CONTAM_BENCH_MOD} <> 0), "
    f"gb AS (SELECT DISTINCT substring(b.text, s.i, {_CONTAM_K}) AS gram "
    f"FROM bench b, LATERAL (SELECT unnest(range(1, length(b.text) - "
    f"{_CONTAM_K - 2})) AS i) s WHERE length(b.text) >= {_CONTAM_K}), "
    f"gt AS (SELECT DISTINCT t.doc_id, substring(t.text, s.i, "
    f"{_CONTAM_K}) AS gram FROM train t, LATERAL (SELECT "
    f"unnest(range(1, length(t.text) - {_CONTAM_K - 2})) AS i) s "
    f"WHERE length(t.text) >= {_CONTAM_K}), "
    "sizes AS (SELECT doc_id, count(*) AS n_grams FROM gt GROUP BY doc_id), "
    "hits AS (SELECT gt.doc_id, count(*) AS n_hit FROM gt "
    "JOIN gb USING (gram) GROUP BY gt.doc_id) "
    "SELECT h.doc_id, s.n_grams, h.n_hit, "
    "CAST((10000 * h.n_hit) // s.n_grams AS BIGINT) AS contam_e4 "
    "FROM hits h JOIN sizes s USING (doc_id)"))
def docs_benchmark_contam(sf_dir: str) -> "ray.data.Dataset":
    """Benchmark decontamination (ops/decontam.py): docs sharing any
    distinct byte-8-gram with the "benchmark" subset (doc_id ≡ 0 mod 13),
    with exact integer hit counts and ``contam_e4 = 10000*n_hit//n_grams``.
    Broadcast semi-join shape: the benchmark gram set ships once via
    ``ray.put``; the corpus side is one shuffle-free map scan."""
    import pyarrow as _pa
    import pyarrow.compute as _pc

    from zeeklog_ray.ops.decontam import benchmark_contamination

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def side(is_bench: bool):
        def f(batch: _pa.Table) -> _pa.Table:
            mod = _pc.subtract(
                batch["doc_id"],
                _pc.multiply(_pc.divide(batch["doc_id"], _CONTAM_BENCH_MOD),
                             _CONTAM_BENCH_MOD))
            keep = _pc.equal(mod, 0) if is_bench else _pc.not_equal(mod, 0)
            return batch.filter(keep)

        return f

    bench = docs.map_batches(side(True), batch_format="pyarrow",
                             batch_size=None)
    train = docs.map_batches(side(False), batch_format="pyarrow",
                             batch_size=None)
    return benchmark_contamination(train, bench, k=_CONTAM_K)
