"""CLI entrypoint — the ``ray job submit`` surface of the engine.

Mirrors the reference's driver (``/root/reference/src/main.rs``) minus the
TUI: the query is (base corpus dir, start/end date, src_ip, source), the
output is routed per-sink Parquet + a per-sink stats report + the distinct
source-address summary (the ``ip.db`` the reference's tests write,
``tests/zeek_search.rs:70-123``).

Usage::

    python -m zeeklog_ray.cli --corpus <dir> --out <dir> \
        [--start-date 2024-07-02] [--end-date 2024-07-04] \
        [--src-ip 43.134.231.178] [--source conn] [--enrich] \
        [--resume] [--files-per-shard 8] [--num-cpus N]

``--resume`` runs through the lineage manifest (skips committed shards);
without it the fused one-pass flagship runs.  The script owns its Ray
session (``__ray_entry__`` and the library never call ray.init).
"""

from __future__ import annotations

import argparse
import json
import sys

from zeeklog_ray.raypatch import worker_runtime_env


def _ray_address() -> str:
    """Cluster attach point: honor $RAY_ADDRESS (set by `ray job submit`
    and preset to "local" in the sandbox) so the SAME CLI script runs
    unmodified on a laptop and on an N- or 4N-node cluster; "local"
    when unset."""
    import os

    return os.environ.get("RAY_ADDRESS", "local")


def build_argparser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="zeeklog-ray", description=__doc__)
    p.add_argument("--corpus",
                   help="input base dir: tokenized parquet (date=* partitions)"
                        " or, with --input-format zeek-tsv, a raw Zeek"
                        " YYYY-MM-DD/<proto>.*.log.gz tree"
                        " (required unless --lookup-ip)")
    p.add_argument("--lookup-ip", metavar="IP",
                   help="direct-IP mode (reference main.rs:250-268): skip log"
                        " scanning, query the enrichment source for this IP"
                        " and print the 12-field geo report (miss → empty);"
                        " no --corpus/--out needed")
    p.add_argument("--input-format", choices=("parquet", "zeek-tsv"),
                   default="parquet",
                   help="zeek-tsv reads the reference's native gzip TSV"
                        " directory layout (zeektsv.read_zeek_logs)")
    p.add_argument("--on-error", choices=("raise", "skip"), default="raise",
                   help="zeek-tsv only: skip unreadable .log.gz files with"
                        " a warning instead of aborting the run")
    p.add_argument("--out", help="output dir (sink=* partitions; required"
                                 " unless --lookup-ip)")
    p.add_argument("--prep-export", metavar="DOCS_PARQUET",
                   help="training-data prep mode: run quality filter → "
                        "exact dedup → mixture resample → sequence packing "
                        "over this documents parquet (file or dir) and "
                        "write the hive-partitioned manifest to --out "
                        "(zeeklog_ray.prep)")
    p.add_argument("--mix", action="append", default=[],
                   metavar="SOURCE=RATE",
                   help="prep-export mixture rate per source (repeatable; "
                        "rate may exceed 1 to oversample)")
    p.add_argument("--context-len", type=int, default=2048,
                   help="prep-export packing context length")
    p.add_argument("--start-date")
    p.add_argument("--end-date")
    p.add_argument("--src-ip")
    p.add_argument("--source")
    p.add_argument("--enrich", action="store_true")
    p.add_argument("--resume", action="store_true",
                   help="sharded run with lineage manifest; re-runs skip committed shards")
    p.add_argument("--files-per-shard", type=int, default=8)
    p.add_argument("--num-cpus", type=int, default=None)
    p.add_argument("--ip-db", help="also write the distinct source-address list here")
    p.add_argument("--compression", choices=("snappy", "zstd", "gzip"),
                   default=None,
                   help="routed-output Parquet codec (default: Arrow's"
                        " snappy; zstd ~halves output bytes on token"
                        " payloads — readers need no flag)")
    p.add_argument("--dump-schemas", action="store_true",
                   help="print the per-sink routed-output schema registry"
                        " as JSON and exit (with --enrich: includes the"
                        " geo_* enrichment columns); no Ray session")
    p.add_argument("--run-query", metavar="NAME",
                   help="run a registry query (zeeklog_ray.queries.QUERIES)"
                        " over --sf-dir and print its rows as JSON lines;"
                        " --query-out writes Parquet instead")
    p.add_argument("--sf-dir", default="/root/testdata/sf0.01",
                   help="testdata table dir for --run-query")
    p.add_argument("--query-out", metavar="PATH",
                   help="with --run-query: write the result to this Parquet"
                        " file instead of printing rows")
    p.add_argument("--list-queries", action="store_true",
                   help="list registry query names and exit")
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_argparser()
    args = parser.parse_args(argv)

    from zeeklog_ray.compat import expand_path, parse_date, parse_ip

    if args.dump_schemas:
        from zeeklog_ray.sources import sink_schemas

        print(json.dumps(sink_schemas(enrich=args.enrich), indent=2,
                         sort_keys=True))
        return 0

    if args.list_queries:
        from zeeklog_ray.queries import QUERIES

        print("\n".join(sorted(QUERIES)))
        return 0

    if args.run_query:
        return _run_query(args, parser)

    if args.prep_export:
        if not args.out:
            parser.error("--prep-export requires --out")
        import ray

        if not ray.is_initialized():
            ray.init(address=_ray_address(), num_cpus=args.num_cpus,
                     include_dashboard=False, logging_level="ERROR",
                     runtime_env=worker_runtime_env())
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        import ray.data

        from zeeklog_ray.prep import prep_export

        from zeeklog_ray.prep import MAX_EPOCHS

        rates = {}
        for spec in args.mix:
            s, _, r = spec.partition("=")
            if not s or not r:
                parser.error(f"--mix expects SOURCE=RATE, got {spec!r}")
            try:
                rates[s] = float(r)
            except ValueError:
                parser.error(f"--mix rate must be numeric, got {spec!r}")
            if not 0.0 <= rates[s] < MAX_EPOCHS:
                parser.error(f"--mix rate must be in [0, {MAX_EPOCHS}), "
                             f"got {spec!r}")
        docs = ray.data.read_parquet(expand_path(args.prep_export))
        summary = prep_export(docs, expand_path(args.out), rates=rates,
                              context_len=args.context_len)
        print(json.dumps({"mode": "prep-export", **summary}, sort_keys=True))
        ray.shutdown()
        return 0

    if args.lookup_ip:
        # direct-IP mode needs no corpus, no output dir, and no Ray
        # session: one dictionary probe, exactly the reference's
        # scan-skipping path (main.rs:250-268)
        from zeeklog_ray.enrich import lookup_ip

        parse_ip(args.lookup_ip)
        rec = lookup_ip(args.lookup_ip)
        print(json.dumps({"mode": "lookup-ip", "ip": args.lookup_ip,
                          "found": rec is not None, "record": rec or {}}))
        return 0
    if not args.corpus or not args.out:
        parser.error("--corpus and --out are required unless --lookup-ip")
    corpus = expand_path(args.corpus)
    if args.src_ip:
        parse_ip(args.src_ip)
    for d in (args.start_date, args.end_date):
        if d:
            parse_date(d)

    import ray

    if not ray.is_initialized():
        ray.init(address=_ray_address(), num_cpus=args.num_cpus,
                 include_dashboard=False, logging_level="ERROR",
                 runtime_env=worker_runtime_env())
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from zeeklog_ray.pipeline import PipelineConfig

    cfg = PipelineConfig(corpus_dir=corpus, start_date=args.start_date,
                         end_date=args.end_date, src_ip=args.src_ip,
                         source=args.source, enrich=args.enrich)

    if args.resume:
        from zeeklog_ray.lineage import ResumableRun

        rr = ResumableRun(cfg, args.out, files_per_shard=args.files_per_shard,
                          input_format=args.input_format,
                          on_error=args.on_error,
                          compression=args.compression)
        records = rr.run()
        rows = {}
        for rec in records:
            for s, n in rec["rows_per_sink"].items():
                rows[s] = rows.get(s, 0) + n
        report = {"mode": "resume", "new_shards": len(records),
                  "rows_per_sink_new": rows}
    else:
        from zeeklog_ray.flagship import run_files, run_flagship

        if args.input_format == "zeek-tsv":
            # the reference's NATIVE input (zeek_log.rs:364-410): the
            # fused flagship stage over the raw .log.gz date range
            import shutil

            from zeeklog_ray.zeektsv import select_zeek_files

            shutil.rmtree(args.out, ignore_errors=True)  # never accumulate
            stats = run_files(cfg, select_zeek_files(corpus, cfg.start_date,
                                                     cfg.end_date),
                              args.out, input_format="zeek-tsv",
                              on_error=args.on_error,
                              compression=args.compression)
        else:
            stats = run_flagship(cfg, args.out, compression=args.compression)
        report = {"mode": "zeek-tsv" if args.input_format == "zeek-tsv"
                  else "flagship", "plan": cfg.plan(),
                  "rows_per_sink": dict(zip(stats["sink"], stats["n"].astype(int)))}

    if args.ip_db:
        from zeeklog_ray.aggregate import distinct_column

        if args.input_format == "zeek-tsv":
            # the corpus is a raw log tree — reading it as parquet crashes
            ds = _tsv_dataset(cfg, corpus, args)
        else:
            from zeeklog_ray.pipeline import build_dataset

            ds = build_dataset(cfg)
        ips = sorted(distinct_column(ds, "id_orig_h")
                     .to_pandas()["id_orig_h"].dropna())
        with open(args.ip_db, "w") as f:
            f.write("\n".join(ips) + "\n")
        report["ip_db"] = {"path": args.ip_db, "n_ips": len(ips)}

    print(json.dumps(report))
    ray.shutdown()
    return 0


def _run_query(args, parser) -> int:
    """``--run-query``: execute one registry query over the testdata tables
    and stream the result out — the generic-relational-query CLI surface
    (every SURVEY §2 operator is reachable from the shell, not just the
    flagship)."""
    from zeeklog_ray.compat import expand_path
    from zeeklog_ray.queries import QUERIES

    if args.run_query not in QUERIES:
        parser.error(f"unknown query {args.run_query!r} "
                     "(--list-queries shows the registry)")

    import ray

    if not ray.is_initialized():
        ray.init(address=_ray_address(), num_cpus=args.num_cpus,
                 include_dashboard=False, logging_level="ERROR",
                 runtime_env=worker_runtime_env())
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    result = QUERIES[args.run_query](expand_path(args.sf_dir))
    import pandas as pd

    if args.query_out and hasattr(result, "write_parquet"):
        # Dataset result + file sink: stay distributed, never collect on
        # the driver.  materialize() pins the executed blocks in the
        # (spillable) object store so the write and the row-count report
        # share ONE execution instead of re-running the whole pipeline
        result = result.materialize()
        result.write_parquet(args.query_out)
        print(json.dumps({"mode": "query", "query": args.run_query,
                          "out": args.query_out,
                          "rows": result.count()}))
        ray.shutdown()
        return 0

    # Dataset / pyarrow.Table → pandas (registry results are small —
    # aggregates or capped top-k; event-scale queries return Datasets and
    # take the write_parquet branch above when --query-out is given)
    df = result if isinstance(result, pd.DataFrame) else result.to_pandas()
    if args.query_out:
        df.to_parquet(args.query_out)
        print(json.dumps({"mode": "query", "query": args.run_query,
                          "out": args.query_out, "rows": len(df)}))
    else:
        for rec in df.to_dict(orient="records"):
            print(json.dumps(rec, default=str))
    ray.shutdown()
    return 0


def _tsv_dataset(cfg, base_dir: str, args):
    """Date-pruned raw-log-tree Dataset (parquet-path `_date_dirs`
    semantics via select_zeek_files)."""
    import os as _os

    from zeeklog_ray.zeektsv import read_zeek_logs, select_zeek_files

    files = select_zeek_files(base_dir, cfg.start_date, cfg.end_date)
    dates = sorted({_os.path.basename(_os.path.dirname(f)) for f in files})
    return read_zeek_logs(base_dir, dates=dates, on_error=args.on_error)


if __name__ == "__main__":
    sys.exit(main())
