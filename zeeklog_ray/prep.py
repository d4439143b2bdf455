"""End-to-end training-data preparation & export — the pipeline a user
runs to turn a raw document corpus into a training-ready manifest:

    quality filter → exact dedup (first-wins by content) → source-mixture
    resample → sequence packing → hive-partitioned manifest export

Everything after the first row-local stage moves ONLY scalars
(doc_id, source, n_bpe, digests): the text never shuffles, so the
chain's exchange volume is independent of document size.  The exported
MANIFEST (doc_id, epoch, source, n_bpe, pack_id, pack_offset) is
how petabyte pipelines stage training data: a loader joins the manifest
back to the raw text store by doc_id instead of rewriting the corpus.

Every stage has a bit-exact SQL replay (quality/dedup CTE, splitmix64
resample via :func:`ops.sample.mixture_resample_sql`, packing via a
window cumsum), so the registry query `docs_prep_export` gates the whole
chain's rollup against DuckDB.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data

from zeeklog_ray.relational import PY_ROW_BYTES, fits_in_heap

# epoch numbering must stay below this for the packing order key
# (order = doc_id·MAX_EPOCHS + epoch, monotone in (doc_id, epoch))
MAX_EPOCHS = 8


def span_screen(docs: "ray.data.Dataset", ratio_e4: int,
                mode: str = "cdc", id_col: str = "doc_id",
                text_col: str = "text"
                ) -> "ray.data.Dataset":
    """Boilerplate/duplication SCREEN for the prep chain: drop every
    document whose duplicated-span ratio reaches ``ratio_e4`` — the
    Gopher/Lee-style cleaning gate that removes syndicated copy and
    template-heavy pages BEFORE tokenization spends on them.

    ``mode="cdc"`` (default) scores with content-defined chunks
    (:func:`ops.dedup.cdc_dup_stats` — ONE hash row per ~2^mask_bits
    words, the cheap screening tier); ``mode="window"`` scores with the
    bit-exact per-window gram table
    (:func:`ops.dedup.duplicated_window_stats` — one row per word, the
    expensive exact tier).  At long documents the CDC exchange is
    ~8-32× smaller, which is the whole point of offering the screen
    (benched both ways in bench.py, ``scale_prep_screen_*``).

    The drop set is DUP-doc cardinality and broadcasts
    (``ray.put`` once, row-local isin filter — text never shuffles);
    when the drop set (``PY_ROW_BYTES`` per id) fails
    :func:`zeeklog_ray.relational.fits_in_heap` this raises rather than
    silently shuffling text — at that dup rate run the id-manifest
    pattern (screen → id anti-join → re-attach text by doc_id)
    explicitly."""
    import ray as _ray

    from zeeklog_ray.ops.dedup import cdc_dup_stats, duplicated_window_stats

    if mode == "cdc":
        stats = cdc_dup_stats(docs, text_col=text_col, id_col=id_col)
        ratio_col = "shared_ratio_e4"
    elif mode == "window":
        stats = duplicated_window_stats(docs, text_col=text_col,
                                        id_col=id_col)
        ratio_col = "dup_ratio_e4"
    else:
        raise ValueError(f"span_screen: unknown mode {mode!r}")

    def drops(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.loc[batch[ratio_col] >= ratio_e4, [id_col]]

    drop = stats.map_batches(drops, batch_format="pandas",
                             batch_size=None).materialize()
    n_drop = drop.count()
    if n_drop == 0:
        return docs
    if not fits_in_heap(n_drop * PY_ROW_BYTES):
        raise ValueError(
            f"span_screen: {n_drop} dropped doc ids exceed the heap budget "
            "(relational.HEAP_BUDGET_BYTES) — run the id-manifest pattern "
            "instead")
    dref = _ray.put(frozenset(drop.to_pandas()[id_col]))

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[~batch[id_col].isin(_ray.get(dref))]

    return docs.map_batches(keep, batch_format="pandas", batch_size=None)


def prep_manifest(docs: "ray.data.Dataset",
                  rates: dict[str, float] | None = None,
                  default_rate: float = 1.0,
                  context_len: int = 2048,
                  min_words: int = 15,
                  min_stop_ratio_e4: int = 200,
                  spill_dir: str | None = None,
                  span_screen_ratio_e4: int | None = None,
                  span_screen_mode: str = "cdc") -> "ray.data.Dataset":
    """The manifest Dataset: one row per (kept doc × epoch copy) with its
    pack placement.  Columns: doc_id, epoch, source, n_bpe, pack_id,
    pack_offset.

    ``span_screen_ratio_e4`` (optional) inserts the duplicated-span
    screen (:func:`span_screen`) ahead of the quality/digest stage —
    docs whose shared-span ratio reaches the threshold are dropped
    before any tokenization; ``span_screen_mode`` picks the cheap CDC
    tier (default) or the exact window tier."""
    from zeeklog_ray.ops.sample import mixture_resample
    from zeeklog_ray.ops.text import digest_dedup, prep_digest_stage
    from zeeklog_ray.ops.packing import pack_assignments

    rates = rates or {}
    if any(r >= MAX_EPOCHS for r in list(rates.values()) + [default_rate]):
        raise ValueError(f"mixture rates must be < {MAX_EPOCHS} "
                         "(packing order-key headroom)")

    if span_screen_ratio_e4 is not None:
        docs = span_screen(docs, span_screen_ratio_e4,
                           mode=span_screen_mode)

    # row-local quality filter + digest + token count, then bucketed
    # first-wins dedup — the SAME stages corpus_prep composes (one source
    # of truth in ops/text; the SQL replay mirrors them once too)
    prepped = docs.map_batches(
        prep_digest_stage("source", min_words=min_words,
                          min_stop_ratio_e4=min_stop_ratio_e4),
        batch_format="pandas", batch_size=None)
    deduped = digest_dedup(prepped, "source")

    resampled = mixture_resample(deduped, key_col="doc_id", by="source",
                                 rates=rates, default_rate=default_rate)

    def add_order(batch: pd.DataFrame) -> pd.DataFrame:
        # packing needs a UNIQUE total order per source; (doc_id, epoch)
        # folded into one monotone key.  The range column subdivides each
        # source into 64k-order-key cells (monotone in _ord, so it
        # satisfies pack_assignments' contract) — per-task memory is then
        # bounded by a CELL, not a whole source (a constant range would
        # put every row of a source into one pandas group)
        batch["_ord"] = (batch["doc_id"] * MAX_EPOCHS + batch["epoch"]) \
            .astype("int64")
        batch["_r"] = (batch["_ord"] // np.int64(1 << 16)).astype("int64")
        return batch

    # pack_assignments scans its input twice (subtotal pass + shuffle
    # pass); without a pin the whole filter→dedup→resample chain — text
    # hashing included — would re-execute for the second scan (measured
    # 2× wall at 1M docs).  The pinned table is SCALARS ONLY (six int/str
    # columns, no text), so it is object-store-sized even at corpus
    # scale; at 10^12 rows pass ``spill_dir`` to swap the pin for a
    # Parquet write + lazy re-read (zeeklog_ray.spill.pin_or_spill).
    from zeeklog_ray.spill import pin_or_spill

    ordered = pin_or_spill(
        resampled.map_batches(add_order, batch_format="pandas",
                              batch_size=None),
        spill_dir, "prep_ordered")
    assigned = pack_assignments(ordered, group_col="source",
                                order_col="_ord", len_col="n_bpe",
                                range_col="_r", context_len=context_len)

    # pack_assignments returns only (group, order, len, pack placement);
    # recover doc_id/epoch from the monotone order key row-locally (no join)
    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        ordk = batch["_ord"].to_numpy()
        return pd.DataFrame({
            "doc_id": ordk // MAX_EPOCHS,
            "epoch": ordk % MAX_EPOCHS,
            "source": batch["source"].to_numpy(),
            "n_bpe": batch["n_bpe"].to_numpy(),
            "pack_id": batch["pack_id"].to_numpy(),
            "pack_offset": batch["pack_offset"].to_numpy()})

    return assigned.map_batches(finish, batch_format="pandas",
                                batch_size=None)


def prep_export(docs: "ray.data.Dataset", out_dir: str,
                rates: dict[str, float] | None = None,
                default_rate: float = 1.0,
                context_len: int = 2048,
                **kwargs) -> dict:
    """Run :func:`prep_manifest` and write it hive-partitioned by source
    (`source=<v>/` dirs — independently re-readable, resumable output
    shape).  Returns a summary dict (rows, packs, tokens per source)."""
    from zeeklog_ray.partitioned import write_partitioned
    from zeeklog_ray.relational import grouped_sum, grouped_sum_bucketed

    manifest = prep_manifest(docs, rates=rates, default_rate=default_rate,
                             context_len=context_len, **kwargs)
    write_partitioned(manifest, out_dir, ["source"])

    # summary from the WRITTEN output (gates the round-trip, not just the
    # in-memory plan) — ONE scan: per-(source, pack) partials (entity-
    # shaped: ≈ total_tokens/context_len rows, bucketed) roll up to the
    # report-shaped per-source numbers without re-reading the files
    written = ray.data.read_parquet(out_dir)
    per_pack = grouped_sum_bucketed(
        written, ["source", "pack_id"],
        sums={"n_bpe": "sum_tokens"}, count_as="n_rows")
    stats = grouped_sum(per_pack, ["source"],
                        sums={"sum_tokens": "sum_tokens",
                              "n_rows": "n_rows"},
                        count_as="n_packs").to_pandas().set_index("source")
    return {
        "out_dir": out_dir,
        "sources": {
            str(s): {"n_rows": int(stats.loc[s, "n_rows"]),
                     "sum_tokens": int(stats.loc[s, "sum_tokens"]),
                     "n_packs": int(stats.loc[s, "n_packs"])}
            for s in stats.index},
    }
