"""Generic relational building blocks on Ray Data, scale-first.

These are the engine's reusable operators beyond the Zeek pipeline itself:
broadcast hash joins for small dimension tables (the shape of the reference's
only join, the ip2location lookup — SURVEY.md §2.4 J1), one hash-bucket
exchange (:func:`bucket_exchange`) under every high-cardinality groupby
and, as one co-group of the sides (:func:`cogroup`), under every
fact⨝fact join (:func:`bucketed_equi_join`,
:func:`bucketed_semi_anti_join`), grouped integer-exact aggregation, and
top-k.

Float policy for oracle-checked results: money/value columns are converted to
integer cents (``round(x * 100) → int64``) BEFORE summing, so aggregates are
exact integers and immune to floating-point summation-order differences
between Ray and the DuckDB oracle.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data
from ray.data.block import BlockAccessor

from zeeklog_ray.arrowutil import list_values_offsets


def read_table(sf_dir: str, name: str,
               columns: list[str] | None = None) -> "ray.data.Dataset":
    """Column-pruned Parquet read of one testdata table."""
    return ray.data.read_parquet(f"{sf_dir}/{name}.parquet", columns=columns)


def small_table(sf_dir: str, name: str,
                columns: list[str] | None = None) -> pd.DataFrame:
    """Driver-side load of a SMALL dimension table (region/nation/…).

    At cluster scale the result is ``ray.put`` once and read inside tasks;
    never use for fact tables.
    """
    import pyarrow.parquet as pq

    return pq.read_table(f"{sf_dir}/{name}.parquet", columns=columns).to_pandas()


def broadcast_merge(ds: "ray.data.Dataset", small: pd.DataFrame, on: str | list[str],
                    how: str = "inner") -> "ray.data.Dataset":
    """Broadcast hash join: ``ray.put`` the small side once, pandas-merge
    inside each ``map_batches`` task — no shuffle of the big side.

    The Ray analog of the reference's dict-lookup enrichment join
    (zeek_log.rs:436-447) generalized to any small dimension table.
    """
    ref = ray.put(small)

    def merge(batch: pd.DataFrame) -> pd.DataFrame:
        sm = ray.get(ref)  # zero-copy from local object store after 1st fetch
        return batch.merge(sm, on=on, how=how)

    return ds.map_batches(merge, batch_format="pandas", batch_size=None)


# One budget for every broadcast/driver tier.  A site prices what it
# would build: a numpy array costs rows × itemsize; a Python dict, set or
# object column costs rows × PY_ROW_BYTES (object header + hash slot +
# boxed key), plus its UTF-8 text bytes where the site measures text.
HEAP_BUDGET_BYTES = 256 << 20
PY_ROW_BYTES = 128


def fits_in_heap(nbytes: int) -> bool:
    """True when a structure of ``nbytes`` may be held whole in one
    process heap (a broadcast lookup in every task, or the driver).
    Reads ``HEAP_BUDGET_BYTES`` at call time, so setting it on the driver
    (0 forces every distributed tier) moves every decision at once."""
    return nbytes <= HEAP_BUDGET_BYTES


def cluster_cpus(default: int = 8) -> int:
    """Total cluster CPUs, or ``default`` when Ray is not initialised yet
    (sizing decisions made before ray.init fall back conservatively)."""
    try:
        return int(ray.cluster_resources().get("CPU", default))
    except Exception:  # noqa: BLE001 — no Ray session
        return default


def to_pandas(t: pa.Table) -> pd.DataFrame:
    """An exchanged Arrow table as pandas, the way Ray converts a block
    for a pandas UDF (a tensor column as ndarray objects, pandas dtypes
    restored from the table's pandas metadata)."""
    return BlockAccessor.for_block(t).to_pandas()


def _nullable_int(dt) -> "pd.api.extensions.ExtensionDtype":
    """The pandas nullable twin of integer dtype ``dt`` (``Int32`` for
    int32; a nullable dtype maps to itself)."""
    return pd.Series(dtype=dt).convert_dtypes().dtype


def _exact_frame(t: pa.Table) -> pd.DataFrame:
    """:func:`to_pandas` without ``t``'s pandas metadata, with every
    integer column holding nulls as a nullable ``Int``: float64 would
    round ids above 2^53, and a float key hashes unlike its int twin."""
    df = to_pandas(t.replace_schema_metadata())
    for c, col in zip(t.column_names, t.columns):
        if pa.types.is_integer(col.type) and col.null_count:
            df[c] = pd.arrays.IntegerArray(col.fill_null(0).to_numpy(),
                                           col.is_null().to_numpy())
    return df


def with_hash_bucket(ds: "ray.data.Dataset",
                     key: str | Sequence[str]) -> "ray.data.Dataset":
    """Append the ``_bucket`` column: the deterministic 64-bit hash of
    ``key`` (a column name or a list of column names hashed together
    row-wise), viewed as int64.  The sort key of :func:`bucket_exchange`:
    same key ⇒ same value, and the values spread evenly over the int64
    range whatever the key's distribution of values.

    An Arrow map: only the key columns convert to pandas (to hash), so
    the rows reach the sort as Arrow blocks and a ``list<...>`` column
    crosses the exchange as itself.  An integer key holding nulls hashes
    as a nullable ``Int``, i.e. like the same key without nulls."""
    sel = [key] if isinstance(key, str) else list(key)

    def bucketize(t: pa.Table) -> pa.Table:
        k = _exact_frame(t.select(sel))
        h = pd.util.hash_pandas_object(k[key] if isinstance(key, str)
                                       else k, index=False).to_numpy()
        return t.append_column("_bucket", pa.array(h.view(np.int64)))

    return ds.map_batches(bucketize, batch_format="pyarrow", batch_size=None)


# The most bytes of a sorted partition one :func:`bucket_exchange` call
# sees: a larger partition (rows exploded upstream grow it without bound)
# is cut at hash changes into about-equal calls.  Read when the exchange
# is built, so a test may set it on the driver.
CALL_BYTES = 32 << 20


def bucket_exchange(ds: "ray.data.Dataset", key: str | Sequence[str],
                    fn: Callable[[pa.Table], "pd.DataFrame | pa.Table"]
                    ) -> "ray.data.Dataset":
    """The hash exchange: every row of a ``key`` value lands in the same
    ``fn`` call.  Rows sort on the :func:`with_hash_bucket` hash, and
    ``fn`` runs ONCE PER SORTED PARTITION (or per :data:`CALL_BYTES`
    slice of a larger one): it gets the rows as a pyarrow Table with
    the input's columns (the hash column removed; a zero-copy slice of
    the partition) and returns a pandas DataFrame or a pyarrow Table.
    A pandas ``fn`` converts on its first line with :func:`to_pandas`.
    An empty input yields an empty output without calling ``fn``; an
    empty partition is never passed to it.

    Why one call per partition: Ray's grouped execution pays Python per
    GROUP, so any per-entity groupby scales its overhead with entity
    cardinality (measured: 1M distinct digests 189 s vs 17 s bucketed;
    1M rows / 100k users in trailing_windows 12.8 s vs 1.3 s).  A sorted
    partition holds every row of each key it holds (a range partition
    never splits equal sort values), so ``fn`` runs its per-key logic as
    C-level pandas/numpy/Arrow over many keys at once and the Python
    cost is paid once per partition.

    The sizing rule: Ray's sort makes as many partitions as the input
    has blocks, and on a 64-bit hash its sampled range boundaries spread
    the rows evenly across them, so one ``fn`` call sees about one input
    block of rows.  A partition above ``CALL_BYTES`` is cut at hash
    changes into about-equal calls, each passed on and its output
    yielded on its own, so ``fn``'s temporaries stay bounded and Ray
    can flush each call's output.  A hot key is the exception: all its
    rows still land in one call."""
    call_bytes = CALL_BYTES

    @functools.wraps(fn)      # Ray names the exchange stage after fn
    def per_block(block: pa.Table):
        h = block["_bucket"].to_numpy()
        k = max(1, -(-block.nbytes // call_bytes))
        # each cut moves back to the start of its hash run: keys stay whole
        cuts = np.searchsorted(h, h[np.arange(1, k) * len(h) // k])
        bounds = np.unique(np.r_[0, cuts, len(h)])
        block = block.drop_columns(["_bucket"])
        for s, e in zip(bounds[:-1], bounds[1:]):
            yield fn(block.slice(s, e - s))

    return with_hash_bucket(ds, key).sort("_bucket").map_batches(
        per_block, batch_format="pyarrow", batch_size=None)



def _arrow_type(typ) -> "pa.DataType | None":
    """Arrow type of a schema entry (an Arrow type or a pandas dtype), or
    None for an object column, whose Arrow type its values decide."""
    if isinstance(typ, pa.DataType):
        return typ
    x = pa.Array.from_pandas(pd.Series(dtype=typ)).type
    return None if pa.types.is_null(x) else x


def _empty_frame(schema) -> pd.DataFrame:
    """A zero-row pandas frame with the columns and dtypes ``schema``'s
    blocks convert to."""
    base = schema.base_schema
    if isinstance(base, pa.Schema):
        return base.empty_table().to_pandas()
    return pd.DataFrame({n: pd.Series(dtype=t)
                         for n, t in zip(base.names, base.types)})


def _key_rule(keys: list[str], arrow: list[dict]) -> None:
    """:func:`cogroup`'s key rule over the sides' Arrow column types (an
    object column, absent from its side's dict, holds strings): raise
    ValueError when a key is integer on some sides only, or its other
    kinds differ (float32 and float64 keys hash differently)."""
    for k in keys:
        typs = [a.get(k, pa.string()) for a in arrow]
        seen = " vs ".join(map(str, typs))
        ints = [pa.types.is_integer(x) for x in typs]
        if any(ints) and not all(ints):
            raise ValueError(
                f"cogroup: key {k!r} is integer on one side ({seen}) — "
                "same values would hash to different buckets; cast the "
                "sides to one dtype")
        kinds = {pa.string() if pa.types.is_large_string(x) else x
                 for x in typs}
        if not any(ints) and len(kinds) > 1:
            raise ValueError(f"cogroup: key {k!r} dtype differs across "
                             f"sides ({seen}); cast first")


def cogroup(sides: Sequence["ray.data.Dataset"], key: str | Sequence[str],
            fn: Callable[[list[pd.DataFrame]], "pd.DataFrame | pa.Table"]
            ) -> "ray.data.Dataset":
    """The many-sided hash exchange: every row of a ``key`` value,
    from every Dataset in ``sides``, lands in the same ``fn`` call.  ``fn``
    gets a list of pandas DataFrames, one per side in ``sides`` order,
    each holding only that side's columns in that side's dtypes (an
    integer column holding nulls as a nullable ``Int``; a side with no
    rows in the call as a typed zero-row frame), and returns a
    pandas DataFrame or a pyarrow Table.  The key columns carry the same
    names on every side (rename first); ``_side`` and ``_bucket`` are
    reserved on every side.

    One key rule for every side, because the key hash is
    dtype-sensitive (the same value in an int and a float column hashes
    to different values and would silently match nothing): a key that is
    integer on one side is integer on all of them, and any other key
    kind must match across sides (:func:`_key_rule`).  A column several
    sides hold in different Arrow types (int32 and int64 keys, say)
    widens to their common type, so ``fn`` sees the wide key.

    Shape: one Arrow map per side appends an int8 ``_side`` column, the
    sides union, and ONE :func:`bucket_exchange` moves them; each call
    splits its Arrow slice by ``_side`` and converts every side to
    pandas once.  Each side ships only its own columns (null-filling
    every side to one shared schema measured ~25% slower on a
    1M ⨝ 500k join); Arrow null-fills a column some side lacks on the
    other sides' rows without touching its values, so an int64 id above
    2^53 stays exact.

    Sizing is :func:`bucket_exchange`'s rule over the union: ``fn`` runs
    once per sorted partition (or per ``CALL_BYTES`` slice of a larger
    one), and there are as many partitions as the sides have blocks
    together, so one call sees about one input block's worth of rows,
    drawn from every side; a hot key stays in one call.

    One-CPU rule: two lazy branches that each hold a repartition (or
    another exchange) must not meet under one exchange — Ray's streaming
    executor can stall between them on a single CPU.  Pin one of them
    (``materialize``) first.  Every side needs a schema, and reading it
    runs the side up to its first block (all of it when the side ends in
    an exchange, which is one more reason to pin such a side); Ray drops
    the schema of an all-empty input, so callers handle that case
    before the call."""
    keys = [key] if isinstance(key, str) else list(key)
    schemas = [s.schema() for s in sides]
    if any(s is None for s in schemas):
        raise ValueError("cogroup: a side has no schema (an all-empty "
                         "input) — handle the empty side before the call")
    # the block-native types: a pandas block's nullable Int has no Arrow
    # twin in Schema.types
    types = [dict(zip(s.base_schema.names, s.base_schema.types))
             for s in schemas]
    for t in types:
        missing = [k for k in keys if k not in t]
        if missing:
            raise ValueError(f"cogroup: key columns {missing} not present "
                             "in every side")
        reserved = sorted({"_side", "_bucket"} & set(t))
        if reserved:
            raise ValueError(f"cogroup: columns {reserved} are reserved "
                             "internal names — rename first")
    arrow = [{c: x for c, typ in t.items()
              if (x := _arrow_type(typ)) is not None} for t in types]
    try:
        _key_rule(keys, arrow)
    except ValueError:
        # a side without rows matches nothing whatever its key dtype is
        # (pandas types a column built from no values float64): judge
        # the sides that have rows
        _key_rule(keys, [a for a, s in zip(arrow, sides)
                         if s.limit(1).count()])
    # Ray's sort concatenates the sides' blocks, which needs one Arrow
    # type per column: widen what the sides hold differently
    casts = [{} for _ in sides]
    for c in set().union(*arrow):
        typs = {a[c] for a in arrow if c in a}
        try:
            wide = pa.unify_schemas([pa.schema([(c, x)]) for x in typs],
                                    promote_options="permissive")[0].type
        except (pa.ArrowTypeError, pa.ArrowInvalid):
            continue        # e.g. an all-empty side's float64 stand-in
        for a, cast in zip(arrow, casts):
            if a.get(c, wide) != wide:
                cast[c] = wide
    empties = [_empty_frame(s).astype({c: x.to_pandas_dtype()
                                       for c, x in cast.items()})
               for s, cast in zip(schemas, casts)]

    def tag(i: int):
        def f(t: pa.Table) -> pa.Table:
            for c, x in casts[i].items():
                t = t.set_column(t.schema.get_field_index(c), c,
                                 t[c].cast(x))
            for c, col in zip(t.column_names, t.columns):
                # Ray's concat cannot null-fill a tensor column another
                # side lacks: ship a 1-D one as the Arrow list it stores
                if isinstance(col.type, pa.ExtensionType) \
                        and getattr(col.type, "ndim", 0) == 1:
                    vals, offs = list_values_offsets(col)
                    t = t.set_column(t.schema.get_field_index(c), c,
                                     pa.LargeListArray.from_arrays(offs,
                                                                   vals))
            return t.append_column(
                "_side", pa.array(np.full(len(t), i, np.int8)))

        return f

    @functools.wraps(fn)      # Ray names the exchange stage after fn
    def per_bucket(t: pa.Table):
        side, frames = t["_side"].to_numpy(), []
        for i, s in enumerate(schemas):
            # a column the slice lacks means side i has no row here: take
            # it typed from the side's schema (the shared keys still come
            # from the slice, so they match the other frames' dtypes)
            have = [c for c in s.names if c in t.column_names]
            frame = _exact_frame(t.filter(side == i).select(have))
            if len(have) < len(s.names):
                frame = pd.concat([frame, empties[i].drop(columns=have)],
                                  axis=1)[s.names]
            frames.append(frame)
        return fn(frames)

    tagged = [s.map_batches(tag(i), batch_format="pyarrow", batch_size=None)
              for i, s in enumerate(sides)]
    return bucket_exchange(tagged[0].union(*tagged[1:]), keys, per_bucket)


def bucketed_distinct(ds: "ray.data.Dataset",
                      keys: Sequence[str]) -> "ray.data.Dataset":
    """DISTINCT on ``keys`` via the bucketed-groupby pattern.

    ``Dataset.groupby(keys).aggregate(...)`` pays Python per distinct key
    tuple (~0.19 ms/group measured — ops/text.py:166-168), so distinct over
    10M candidate pairs would spend ~30 min in per-group overhead; here the
    per-group cost is paid per BUCKET and the per-bucket dedup is one
    C-level ``drop_duplicates``.  Same key tuple ⇒ same bucket, so the
    result is exact."""
    keys = list(keys)

    def per_bucket(group: pa.Table) -> pd.DataFrame:
        return to_pandas(group).drop_duplicates(subset=keys)[keys]

    return bucket_exchange(ds, keys, per_bucket)


def bucketed_group_min(ds: "ray.data.Dataset", key: str,
                       val: str) -> "ray.data.Dataset":
    """Per-key MIN of ``val`` via the bucketed-groupby pattern — the drop-in
    for ``groupby(key).aggregate(Min(val))`` when key cardinality is large
    (the connected-components label merge runs this once PER ROUND, so the
    per-group Python cliff would multiply by the component diameter)."""

    def per_bucket(group: pa.Table) -> pd.DataFrame:
        return (to_pandas(group).groupby(key, sort=False, dropna=False)[val]
                .min().reset_index())

    return bucket_exchange(ds, key, per_bucket)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer (uint64 wraparound) — an INDEPENDENT second
    hash derived from the first.  Needed because ``hash_pandas_object``
    ignores ``hash_key`` for numeric dtypes, so two "differently-keyed"
    pandas hashes of an int column are IDENTICAL and the
    Kirsch-Mitzenmacher probes h1+i·h2 degenerate to correlated positions
    (measured: 8% bloom false positives where ~0.6% is theoretical)."""
    z = x + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _bloom_hashes(keys: pd.Series) -> tuple[np.ndarray, np.ndarray]:
    h1 = pd.util.hash_pandas_object(keys, index=False).to_numpy(np.uint64)
    return h1, _mix64(h1)


def build_bloom(keys: pd.Series | np.ndarray, n_bits: int = 1 << 20,
                k_hashes: int = 5) -> np.ndarray:
    """Packed bloom-filter bitset (``n_bits/8`` bytes) over ``keys``.

    Two independent 64-bit hashes combined Kirsch-Mitzenmacher style
    (``h1 + i·h2``) give the ``k_hashes`` probe positions.  Deterministic
    across processes (fixed pandas hash keys), and MERGEABLE: bitwise-OR of
    two filters is the filter of the union — so at scale each task blooms
    its own fragment and a tiny OR-reduce merges them.

    Size rule: false-positive rate ≈ (1 - e^(-k·n/m))^k — 10 bits/key with
    k=5 gives ~1%; 10^9 keys fit in ~1.2 GB where an exact key set would
    need tens of GB."""
    s = keys if isinstance(keys, pd.Series) else pd.Series(keys)
    h1, h2 = _bloom_hashes(s)
    # round UP to a byte multiple: bloom_contains recovers the modulus as
    # len(bits)*8, so a non-multiple n_bits would probe a DIFFERENT modulus
    # than the build (silent false negatives) or index past the last byte
    n_bits = (n_bits + 7) & ~7
    bits = np.zeros(n_bits // 8, dtype=np.uint8)
    for i in range(k_hashes):
        idx = ((h1 + np.uint64(i) * h2) % np.uint64(n_bits)).astype(np.int64)
        np.bitwise_or.at(bits, idx >> 3, (1 << (idx & 7)).astype(np.uint8))
    return bits


def bloom_contains(bits: np.ndarray, keys: pd.Series,
                   k_hashes: int = 5) -> np.ndarray:
    """Vectorized membership mask: True = maybe-present (false positives
    possible), False = DEFINITELY absent."""
    n_bits = len(bits) * 8
    h1, h2 = _bloom_hashes(keys)
    mask = np.ones(len(keys), dtype=bool)
    for i in range(k_hashes):
        idx = ((h1 + np.uint64(i) * h2) % np.uint64(n_bits)).astype(np.int64)
        mask &= (bits[idx >> 3] >> (idx & 7) & 1).astype(bool)
    return mask


def bloom_semi_filter(ds: "ray.data.Dataset", keys: pd.Series | np.ndarray,
                      on: str, n_bits: int = 1 << 20,
                      k_hashes: int = 5) -> "ray.data.Dataset":
    """Bloom-filter SEMI-JOIN PRE-FILTER: drop every row whose ``on`` key is
    definitely not in ``keys`` — a SUPERSET of the exact semi-join (false
    positives pass), so follow with an exact join/isin when exactness
    matters.  The point at scale: the broadcast is ``n_bits/8`` bytes (10
    bits per key) instead of the full key set, and the pruned fact side
    shrinks BEFORE any shuffle join — the classic bloom-pruned join."""
    bits_ref = ray.put(build_bloom(keys, n_bits, k_hashes))

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        bits = ray.get(bits_ref)
        return batch[bloom_contains(bits, batch[on], k_hashes)]

    return ds.map_batches(keep, batch_format="pandas", batch_size=None)


def arrow_round_away(x) -> "pa.Array":
    """Half-away-from-zero round → int64 — DuckDB's ROUND semantics.

    Arrow's (and numpy's) default is half-to-even, which diverges from the
    oracle on exact .5 products; every Arrow-side cents/qty conversion must
    go through this helper (pandas-side twin: queries._round_half_away)."""
    import pyarrow.compute as pc

    return pc.cast(pc.round(x, round_mode="half_towards_infinity"),
                   pa.int64())


def to_cents(batch: pa.Table, cols: dict[str, str]) -> pa.Table:
    """Append integer-cent columns: for each src→dst, dst = round(src*100)
    half away from zero (oracle ROUND parity)."""
    import pyarrow.compute as pc

    for src, dst in cols.items():
        batch = batch.append_column(
            dst, arrow_round_away(pc.multiply(batch[src], pa.scalar(100.0))))
    return batch


def grouped_sum(ds: "ray.data.Dataset", keys: Sequence[str],
                sums: dict[str, str] | None = None,
                count_as: str | None = None,
                empty_schema: "pa.Schema | None" = None) -> "ray.data.Dataset":
    """Grouped sum/count as a vectorized TREE-COMBINE: per-batch pandas
    partials → coalesce → per-block combine → single-block final combine.

    Why not ``Dataset.groupby().aggregate`` for the merge: Ray's sort-based
    grouped aggregation costs ~2.7 ms of Python per GROUP (measured: 15k
    distinct keys over 60k partial rows took 40 s); the pandas combine is
    C-level per block.  Assumes the final aggregated result (one row per
    distinct key tuple) fits one block — true for report-shaped aggregates;
    for very high-cardinality keys use ``Dataset.groupby`` directly and
    accept the per-group cost, or shard by key-hash first.

    ``empty_schema``: optional pyarrow schema of the OUTPUT.  When the
    input can be entirely empty (e.g. a filter that may match nothing),
    Ray's executor passes empty blocks through every map stage untouched
    and ``repartition`` strips their column metadata, so the aggregate
    would emit a ZERO-COLUMN block whose ``schema()`` is None — and a
    full outer join (:func:`bucketed_equi_join`) could not name the
    empty side's columns.  Passing the expected schema unions in a
    zero-row seed block that pins it.
    """
    keys = list(keys)
    sums = sums or {}

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby(keys, sort=False, observed=True, dropna=False)
        out = pd.DataFrame(index=g.size().index)
        if count_as:
            out[count_as] = g.size()
        for src, dst in sums.items():
            out[dst] = g[src].sum()
        return out.reset_index()

    def combine(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby(keys, sort=False, observed=True, dropna=False)
        return g.sum().reset_index()

    from zeeklog_ray.aggregate import coalesce_partials

    partial_ds = ds.select_columns(list(dict.fromkeys(keys + list(sums)))).map_batches(
        partial, batch_format="pandas", batch_size=None)
    mid = coalesce_partials(partial_ds).map_batches(
        combine, batch_format="pandas", batch_size=None)
    out = mid.repartition(1).map_batches(combine, batch_format="pandas",
                                         batch_size=None)
    if empty_schema is not None:
        import pyarrow as pa  # noqa: F811
        import ray.data

        seed = ray.data.from_arrow(empty_schema.empty_table())
        out = out.union(seed)
    return out


def grouped_sum_bucketed(ds: "ray.data.Dataset", keys: Sequence[str],
                         sums: dict[str, str] | None = None,
                         count_as: str | None = None) -> "ray.data.Dataset":
    """ENTITY-shaped grouped sum/count: one output row per key tuple at
    arbitrary cardinality.  :func:`grouped_sum` assumes the final result
    fits one block (report-shaped: per-source, per-status, ...); per-user
    / per-document aggregates scale with the entity count, so here the
    per-batch combiner partials shuffle ONCE on the key-hash bucket and
    each bucket finishes with a C-level pandas groupby-sum — the result
    stays distributed (about one output block per input block, the
    :func:`bucket_exchange` rule)."""
    keys = list(keys)
    sums = sums or {}

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby(keys, sort=False, observed=True, dropna=False)
        out = pd.DataFrame(index=g.size().index)
        if count_as:
            out[count_as] = g.size()
        for src, dst in sums.items():
            out[dst] = g[src].sum()
        return out.reset_index()

    def per_bucket(group: pa.Table) -> pd.DataFrame:
        return (to_pandas(group)
                .groupby(keys, sort=False, observed=True, dropna=False)
                .sum().reset_index())

    partials = ds.select_columns(
        list(dict.fromkeys(keys + list(sums)))).map_batches(
        partial, batch_format="pandas", batch_size=None)
    return bucket_exchange(partials, keys, per_bucket)


def rollup_sum(ds: "ray.data.Dataset", keys: Sequence[str],
               sums: dict[str, str] | None = None,
               count_as: str | None = None) -> pd.DataFrame:
    """``GROUP BY ROLLUP(keys...)``: the finest level runs ONCE as the
    distributed combiner-first :func:`grouped_sum`; every super-aggregate
    level then re-combines the finest result on the driver — sums and
    counts are algebraic, so re-aggregating the (report-shaped, tiny)
    finest table is exact and costs zero extra corpus scans or shuffles.

    Super-aggregate rows carry NULL in the rolled-up key columns (the SQL
    ROLLUP convention — ambiguous if real null key values exist; this
    corpus has none, and callers with null keys should pre-fill a
    sentinel).  Returns a driver DataFrame (|finest| + |prefix levels|
    rows).
    """
    keys = list(keys)
    vals = ([count_as] if count_as else []) + list((sums or {}).values())
    finest = grouped_sum(ds, keys, sums=sums, count_as=count_as).to_pandas()
    parts = [finest[keys + vals]]
    for lvl in range(len(keys) - 1, -1, -1):
        sub = keys[:lvl]
        if sub:
            g = finest.groupby(sub, sort=False, dropna=False)[vals] \
                .sum().reset_index()
        else:
            g = finest[vals].sum().to_frame().T
        for k in keys[lvl:]:
            g[k] = None
        parts.append(g[keys + vals])
    out = pd.concat(parts, ignore_index=True)
    out[vals] = out[vals].astype("int64")
    return out


def cube_sum(ds: "ray.data.Dataset", keys: Sequence[str],
             sums: dict[str, str] | None = None,
             count_as: str | None = None) -> pd.DataFrame:
    """``GROUP BY CUBE(keys...)``: every subset of the key columns, not
    just the prefixes :func:`rollup_sum` covers.  Same execution shape —
    the finest level runs ONCE distributed, then each of the 2^|keys|-1
    remaining subsets re-combines the (report-shaped, tiny) finest table
    on the driver; sums/counts are algebraic so the re-aggregation is
    exact and costs zero extra corpus scans.  NULL marks a rolled-up key
    column (same caveat as rollup_sum: callers with real null key values
    should pre-fill a sentinel)."""
    from itertools import combinations

    keys = list(keys)
    vals = ([count_as] if count_as else []) + list((sums or {}).values())
    finest = grouped_sum(ds, keys, sums=sums, count_as=count_as).to_pandas()
    parts = [finest[keys + vals]]
    for r in range(len(keys) - 1, -1, -1):
        for sub in combinations(keys, r):
            sub = list(sub)
            if sub:
                g = finest.groupby(sub, sort=False, dropna=False)[vals] \
                    .sum().reset_index()
            else:
                g = finest[vals].sum().to_frame().T
            for k in keys:
                if k not in sub:
                    g[k] = None
            parts.append(g[keys + vals])
    out = pd.concat(parts, ignore_index=True)
    out[vals] = out[vals].astype("int64")
    return out


def latest_per_key(ds: "ray.data.Dataset", keys: Sequence[str],
                   order_cols: Sequence[str]) -> "ray.data.Dataset":
    """Log-compaction / SCD "latest wins": keep, per key tuple, the single
    row that is greatest by ``order_cols`` (compared in order, descending
    — ties broken by the next column, so make the last column unique for
    determinism).

    Two-level argmax: a per-batch prune first reduces each block to at
    most one row per key IT contains (row-local, no shuffle), then the
    survivors — bounded by |blocks| × |keys-per-block| — go through one
    bucketed groupby where the final winner is a C-level sort +
    ``drop_duplicates`` per bucket.  Only pruned survivors shuffle."""
    keys = list(keys)
    order_cols = list(order_cols)

    def prune(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.sort_values(order_cols, ascending=False, kind="mergesort")
        return g.drop_duplicates(keys, keep="first")

    def per_bucket(group: pa.Table) -> pd.DataFrame:
        g = to_pandas(group).sort_values(order_cols, ascending=False,
                                         kind="mergesort")
        return g.drop_duplicates(keys, keep="first")

    pruned = ds.map_batches(prune, batch_format="pandas", batch_size=None)
    return bucket_exchange(pruned, keys, per_bucket)


def seq_index_per_key(ds: "ray.data.Dataset", key: str,
                      order_cols: Sequence[str],
                      out: str = "seq") -> "ray.data.Dataset":
    """Per-key ROW_NUMBER: for every row, its 1-based rank within its key
    partition ordered ascending by ``order_cols`` (make the last column
    unique for a deterministic total order).

    Unlike :func:`latest_per_key` every row survives, so the full table
    shuffles once on the key-hash bucket; inside each bucket the
    numbering is one C-level sort + ``groupby(...).cumcount()``.  Same
    partitioning assumption as the repo's other windowed ops: a key's
    rows fit one :func:`bucket_exchange` call."""
    order_cols = list(order_cols)

    def per_bucket(group: pa.Table) -> pd.DataFrame:
        g = to_pandas(group).sort_values([key] + order_cols, kind="mergesort")
        # dropna=False: null keys form ONE partition numbered 1..n, the
        # SQL ROW_NUMBER semantics — pandas' default would emit NaN seq
        # for them and degrade the column to float64
        g[out] = g.groupby(key, sort=False,
                           dropna=False).cumcount().to_numpy() + 1
        return g

    return bucket_exchange(ds, key, per_bucket)


def ranks_per_key(ds: "ray.data.Dataset", key: str,
                  order_cols: Sequence[str],
                  tie_cols: Sequence[str] | None = None,
                  ntile: int | None = None,
                  percent_scale: int | None = None) -> "ray.data.Dataset":
    """Per-key SQL ranking functions in one bucketed pass: ``rnk`` = RANK()
    and ``drnk`` = DENSE_RANK() over ``tie_cols`` (ties share a rank; RANK
    leaves gaps, DENSE_RANK doesn't), plus ``tile`` = NTILE(ntile) over the
    full ``order_cols`` total order when ``ntile`` is given.

    ``percent_scale`` adds fixed-point PERCENT_RANK / CUME_DIST columns in
    exact integer math (truncating division, matching a HUGEINT oracle):
    ``pr_scaled = (rnk−1)·scale // (m−1)`` (0 for single-row partitions,
    the SQL convention) and ``cume_scaled = c·scale // m`` where ``m`` is
    the key-partition size and ``c`` the number of rows whose tie tuple
    sorts ≤ the current row's.

    ``tie_cols`` (default: all of ``order_cols``) must be a PREFIX of
    ``order_cols`` — the sort arranges equal-tie rows contiguously only
    then.  Make the last order column unique so NTILE (which is
    position-based, not value-based) is deterministic; RANK/DENSE_RANK are
    deterministic regardless since ties map to equal outputs.

    Same scale shape as :func:`seq_index_per_key`: every row survives, one
    key-hash-bucket shuffle, then C-level sort + numpy index algebra per
    bucket (no per-key Python).  Null keys form ONE partition (factorize,
    matching SQL PARTITION BY) and null tie values one tie group."""
    order_cols = list(order_cols)
    tie_cols = order_cols if tie_cols is None else list(tie_cols)
    if order_cols[:len(tie_cols)] != tie_cols:
        raise ValueError(f"ranks_per_key: tie_cols {tie_cols!r} must be a "
                         f"prefix of order_cols {order_cols!r}")
    if ntile is not None and ntile < 1:
        raise ValueError(f"ranks_per_key: ntile must be >= 1, got {ntile}")
    if percent_scale is not None and percent_scale < 1:
        raise ValueError(f"ranks_per_key: percent_scale must be >= 1, "
                         f"got {percent_scale}")

    def per_bucket(group: pa.Table) -> pd.DataFrame:
        g = to_pandas(group).sort_values([key] + order_cols, kind="mergesort")
        n = len(g)
        idx = np.arange(n, dtype=np.int64)
        kcodes, _ = pd.factorize(g[key], use_na_sentinel=False)
        new_seg = np.r_[True, kcodes[1:] != kcodes[:-1]]
        new_tie = new_seg.copy()
        for c in tie_cols:
            # factorize so nulls compare equal to each other (one tie
            # group), and adjacency comparison works for any dtype
            oc, _ = pd.factorize(g[c], use_na_sentinel=False)
            new_tie[1:] |= oc[1:] != oc[:-1]
        seg_start = np.maximum.accumulate(np.where(new_seg, idx, 0))
        tie_start = np.maximum.accumulate(np.where(new_tie, idx, 0))
        g["rnk"] = tie_start - seg_start + 1
        d = np.cumsum(new_tie)
        g["drnk"] = d - d[seg_start] + 1
        if ntile is not None or percent_scale is not None:
            seg_id = np.cumsum(new_seg) - 1
            m = np.bincount(seg_id)[seg_id]
        if percent_scale is not None:
            rnk = tie_start - seg_start + 1
            g["pr_scaled"] = np.where(
                m > 1, (rnk - 1) * percent_scale // np.maximum(m - 1, 1), 0)
            # index of the LAST row of each tie group: nearest tie-group
            # end at or after the row (sentinel n, reverse min-accumulate)
            ends_here = np.r_[new_tie[1:], True]
            tie_end = np.minimum.accumulate(
                np.where(ends_here, idx, n)[::-1])[::-1]
            g["cume_scaled"] = (tie_end - seg_start + 1) * \
                percent_scale // m
        if ntile is not None:
            # NTILE: the first (m mod k) tiles get ceil(m/k) rows, the
            # rest floor(m/k), by row position within the key segment
            p = idx - seg_start
            base, rem = m // ntile, m % ntile
            boundary = rem * (base + 1)
            in_big = p < boundary
            # base==0 only when m < ntile, and then boundary == m > p,
            # so the small-tile branch (and its divisor) is never taken
            g["tile"] = np.where(
                in_big, p // (base + 1),
                rem + (p - boundary) // np.maximum(base, 1)) + 1
        return g

    return bucket_exchange(ds, key, per_bucket)


def mode_per_key(ds: "ray.data.Dataset", key: str, val: str,
                 out: str | None = None) -> "ray.data.Dataset":
    """Per-key MODE: the most frequent ``val`` per ``key`` (ties → the
    smallest value, so the result is deterministic), plus its count
    ``n_mode``.

    Scale shape: counts are MERGEABLE, so each batch first collapses to
    per-(key, val) partial counts row-locally (the combiner — raw rows
    never shuffle), then ONE key-hash-bucket shuffle merges the partials
    and a C-level sort + drop_duplicates picks the winner per key.  Only
    |distinct (key, val)| rows move, not |rows|."""
    out = out or f"mode_{val}"

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.groupby([key, val], sort=False, dropna=False) \
            .size().reset_index(name="_cnt")

    def per_bucket(group: pa.Table) -> pd.DataFrame:
        g = to_pandas(group) \
            .groupby([key, val], sort=False, dropna=False)["_cnt"] \
            .sum().reset_index()
        g = g.sort_values([key, "_cnt", val],
                          ascending=[True, False, True], kind="mergesort")
        g = g.drop_duplicates([key], keep="first")
        return pd.DataFrame({key: g[key], out: g[val],
                             "n_mode": g["_cnt"].astype("int64")})

    partials = ds.map_batches(partial, batch_format="pandas",
                              batch_size=None)
    return bucket_exchange(partials, key, per_bucket)


def string_agg_per_key(ds: "ray.data.Dataset", key: str, val: str,
                       order_cols: Sequence[str], sep: str = ">",
                       out: str = "agg") -> "ray.data.Dataset":
    """Per-key ordered string concatenation — SQL ``STRING_AGG(val, sep
    ORDER BY order_cols)``; the "user journey" feature-building shape
    (event-type sequences per user).  Make the last order column unique
    for a deterministic string.

    Scale shape: one key-hash-bucket shuffle of (key, order, val), then a
    C-level sort per bucket; the join itself is per-key Python but over
    string data that is Python-object-backed in pandas anyway.  The
    output is one row per key — assume a key's rows fit one bucket (same
    contract as the repo's other windowed ops), and remember each output
    string is O(rows-per-key) long: follow with a hash/fingerprint stage
    rather than shipping giant strings onward at 100 TB."""
    order_cols = list(order_cols)

    def join_non_null(s: pd.Series):
        # SQL STRING_AGG skips NULL elements and yields NULL (not "")
        # for an all-null group; a raw sep.join would TypeError on None
        s = s.dropna()
        return sep.join(s) if len(s) else None

    def per_bucket(group: pa.Table) -> pd.DataFrame:
        g = to_pandas(group).sort_values([key] + order_cols, kind="mergesort")
        agg = g.groupby(key, sort=False, dropna=False)[val] \
            .agg(join_non_null).reset_index(name=out)
        return agg

    cols = [key] + order_cols + [val]
    return bucket_exchange(ds.select_columns(cols), key, per_bucket)


def melt(ds: "ray.data.Dataset", id_cols: Sequence[str],
         value_cols: Sequence[str], var_name: str = "variable",
         value_name: str = "value") -> "ray.data.Dataset":
    """UNPIVOT — the inverse of :func:`pivot_sum`'s widening: each input
    row becomes |value_cols| long rows ``(id_cols..., variable, value)``.
    Purely row-local (one C-level ``DataFrame.melt`` per batch, no
    shuffle); output is |value_cols|× the input row count, so follow with
    a filter/aggregate rather than materializing wide×long blowups."""
    id_cols, value_cols = list(id_cols), list(value_cols)

    def per_batch(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.melt(id_vars=id_cols, value_vars=value_cols,
                          var_name=var_name, value_name=value_name)

    return ds.map_batches(per_batch, batch_format="pandas", batch_size=None)


_LO32 = np.int64(0xFFFFFFFF)


def _add_split_products(out: pd.DataFrame,
                        prods: dict[str, tuple[str, str]], who: str) -> None:
    """Append each per-row product ``name: (a, b)`` of ``out``'s integer
    columns as SPLIT 32-bit halves ``name + "h"`` (p >> 32) and
    ``name + "l"`` (p & 0xFFFFFFFF), summed separately and recombined
    in Python ints by :func:`_recombine`.  A plain int64 Σx² wraps at
    ~10^6 rows of cents-scale values (x² ≈ 2.5·10^13 each); the split
    sums stay exact up to ~2·10^9 rows per group.  Each per-row product
    must fit int64: OverflowError names ``who`` otherwise."""
    for name, (a, b) in prods.items():
        av, bv = out[a].to_numpy(np.int64), out[b].to_numpy(np.int64)
        if len(av):
            ma, mb = int(np.abs(av).max()), int(np.abs(bv).max())
            if ma * mb >= 1 << 63:
                raise OverflowError(
                    f"{who}: |{a}|·|{b}| up to {ma}·{mb} does not fit a "
                    f"per-row int64 product — rescale the inputs first")
        p = av * bv
        out[name + "h"] = p >> 32          # arithmetic shift: exact
        out[name + "l"] = p & _LO32        # for negative p too


def _recombine(hi: pd.Series, lo: pd.Series) -> pd.Series:
    """The exact Python-int sums of :func:`_add_split_products` halves."""
    return hi.astype(object) * (1 << 32) + lo.astype(object)


def grouped_var_exact(ds: "ray.data.Dataset", keys: Sequence[str],
                      val: str, scale: int = 10**6) -> pd.DataFrame:
    """Per-group sample variance of an INTEGER column in exact arithmetic:
    ``var_scaled = (n·Σx² − (Σx)²) · scale // (n·(n−1))`` (floor division,
    groups with n<2 dropped).

    Shape: one combiner-first :func:`grouped_sum` ships only per-group
    ``(n, Σx, Σx²)`` partials — the classic algebraic-aggregate
    decomposition, mergeable across any partitioning — and the final
    formula runs on the report-shaped result in PYTHON ints (the
    ``n·Σx²·scale`` product overflows int64 long before the partials do,
    so the driver finish deliberately leaves int64).  Σx² ships as
    split 32-bit halves (:func:`_add_split_products`).  Exactness makes
    the result hash-comparable against an oracle computing the same
    integer formula in HUGEINT, where float VAR_SAMP could differ in the
    last ulp.
    """
    keys = list(keys)

    def add_sq(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch[keys + [val]].copy()
        _add_split_products(out, {"_xx": (val, val)}, "grouped_var_exact")
        return out

    partials = grouped_sum(
        ds.map_batches(add_sq, batch_format="pandas", batch_size=None),
        keys, sums={val: "_sx", "_xxh": "_sxxh", "_xxl": "_sxxl"},
        count_as="_n").to_pandas()
    rows = partials[partials["_n"] >= 2]
    n = rows["_n"].astype(object)
    sx = rows["_sx"].astype(object)
    sx2 = _recombine(rows["_sxxh"], rows["_sxxl"])
    var = (n * sx2 - sx * sx) * scale // (n * (n - 1))
    out = rows[keys].copy()
    out["n"] = rows["_n"].to_numpy()
    out["var_scaled"] = var.astype("int64").to_numpy()
    return out.reset_index(drop=True)


def _trunc_div(num: int, den: int) -> int:
    """Truncating integer division (toward zero) on Python ints — DuckDB's
    ``//`` semantics; Python's ``//`` FLOORS, which differs for negative
    numerators, so any oracle-compared fixed-point ratio must go through
    this."""
    q = abs(num) // abs(den)
    return q if (num >= 0) == (den > 0) else -q


def grouped_cov_exact(ds: "ray.data.Dataset", keys: Sequence[str],
                      x: str, y: str, scale: int = 10**6,
                      corr2_scale: int | None = None) -> pd.DataFrame:
    """Per-group sample covariance and OLS regression slope of two INTEGER
    columns in exact arithmetic:

    - ``cov_scaled``   = (n·Σxy − Σx·Σy) · scale ÷ (n·(n−1))
    - ``slope_scaled`` = (n·Σxy − Σx·Σy) · scale ÷ (n·Σx² − (Σx)²)
    - ``corr2_scaled`` = (n·Σxy − Σx·Σy)² · corr2_scale ÷
      ((n·Σx² − (Σx)²)·(n·Σy² − (Σy)²))  — squared Pearson r, emitted
      only when ``corr2_scale`` is given (r itself needs a sqrt, which
      has no exact integer form; r² is a polynomial and stays exact).
      Keep ``corr2_scale`` modest (1e4): the oracle's HUGEINT numerator
      is num²·scale, and num² alone can reach ~1e28 on cents columns.

    with TRUNCATING division (:func:`_trunc_div`) because the numerator can
    be negative and the HUGEINT oracle's ``//`` truncates.  Groups with
    n < 2 or zero x-variance are dropped (the ratios are undefined there);
    with ``corr2_scale``, zero y-variance groups are dropped too.

    Same shape as :func:`grouped_var_exact`: one combiner-first
    :func:`grouped_sum` ships only per-group partials — mergeable across
    any partitioning — and the final formulas run on the report-shaped
    result in Python ints.  The product sums (Σxy, Σx², Σy²) ship as
    split 32-bit halves (:func:`_add_split_products`, which also guards
    each per-row product).  Σy² is only computed/shipped when
    ``corr2_scale`` is set."""
    keys = list(keys)
    want_yy = corr2_scale is not None
    prods = {"_xy": (x, y), "_xx": (x, x)}
    if want_yy:
        prods["_yy"] = (y, y)

    def add_prods(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch[keys + [x, y]].copy()
        _add_split_products(out, prods, "grouped_cov_exact")
        return out

    sums = {x: "_sx", y: "_sy", "_xyh": "_sxyh", "_xyl": "_sxyl",
            "_xxh": "_sxxh", "_xxl": "_sxxl"}
    if want_yy:
        sums.update({"_yyh": "_syyh", "_yyl": "_syyl"})
    partials = grouped_sum(
        ds.map_batches(add_prods, batch_format="pandas", batch_size=None),
        keys, sums=sums, count_as="_n").to_pandas()
    rows = partials[partials["_n"] >= 2]
    n = rows["_n"].astype(object)
    sx = rows["_sx"].astype(object)
    sy = rows["_sy"].astype(object)
    sxy = _recombine(rows["_sxyh"], rows["_sxyl"])
    sxx = _recombine(rows["_sxxh"], rows["_sxxl"])
    num = n * sxy - sx * sy
    var_den = n * sxx - sx * sx
    vary_den = None
    if want_yy:
        syy = _recombine(rows["_syyh"], rows["_syyl"])
        vary_den = n * syy - sy * sy
    keep = var_den != 0
    if corr2_scale is not None:
        keep &= vary_den != 0
    rows, n, num = rows[keep], n[keep], num[keep]
    var_den = var_den[keep]
    if want_yy:
        vary_den = vary_den[keep]
    out = rows[keys].copy()
    out["n"] = rows["_n"].to_numpy()
    out["cov_scaled"] = np.fromiter(
        (_trunc_div(v * scale, c * (c - 1)) for v, c in zip(num, n)),
        dtype="int64", count=len(rows))
    out["slope_scaled"] = np.fromiter(
        (_trunc_div(v * scale, d) for v, d in zip(num, var_den)),
        dtype="int64", count=len(rows))
    if corr2_scale is not None:
        out["corr2_scaled"] = np.fromiter(
            (_trunc_div(v * v * corr2_scale, dx * dy)
             for v, dx, dy in zip(num, var_den, vary_den)),
            dtype="int64", count=len(rows))
    return out.reset_index(drop=True)


def top_k(ds: "ray.data.Dataset", by: list[str], descending: list[bool],
          k: int) -> "ray.data.Dataset":
    """Global top-k: per-batch partial top-k → coalesce → sort + limit.

    The partial pass bounds the sort input at |blocks| × k rows, and the
    coalesce avoids the tiny-block sort-shuffle pathology (a range sort of
    15k rows across hundreds of near-empty blocks measured 37 s; with the
    partial+coalesce it is sub-second).
    """
    from zeeklog_ray.aggregate import coalesce_partials

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(by, ascending=[not d for d in descending]).head(k)

    pruned = ds.map_batches(partial, batch_format="pandas", batch_size=None)
    return coalesce_partials(pruned).sort(by, descending=descending).limit(k)


def pivot_sum(ds: "ray.data.Dataset", index: str, pivot_col: str,
              value_col: str, categories: Sequence[str],
              prefix: str = "", count_as: str | None = None,
              bucketed: bool = False) -> "ray.data.Dataset":
    """Wide conditional aggregation (SQL PIVOT ... IN (...)): one output
    column per category holding the per-``index`` sum of ``value_col``
    where ``pivot_col`` equals that category, zero elsewhere.

    ``categories`` must be a KNOWN small list — the fixed-schema
    requirement every distributed pivot has (same as SQL PIVOT's IN
    list); values outside it contribute nothing to the category columns
    but still count toward ``count_as``, exactly like
    ``SUM(CASE WHEN ... ELSE 0 END)`` + ``COUNT(*)``.

    Scale shape: the widening is ROW-LOCAL (one ``where`` mask per
    category inside ``map_batches``), then :func:`grouped_sum` reduces —
    only |index| × (|categories| + 1) aggregated cells ever shuffle, not
    rows.  Output column order: ``index``, ``count_as`` (if set), then
    one ``{prefix}{category}`` per category in the given order.
    """
    cats = list(categories)
    if len(set(cats)) != len(cats):
        raise ValueError(f"pivot_sum: duplicate categories in {cats!r}")

    def widen(batch: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({index: batch[index]})
        for c in cats:
            out[f"{prefix}{c}"] = batch[value_col].where(
                batch[pivot_col] == c, 0)
        return out

    wide = ds.select_columns([index, pivot_col, value_col]).map_batches(
        widen, batch_format="pandas", batch_size=None)
    # entity-shaped index (per-user, per-doc): bucketed=True keeps the
    # wide result distributed; the default one-block finish is for
    # report-shaped indexes only
    reducer = grouped_sum_bucketed if bucketed else grouped_sum
    return reducer(wide, [index],
                   sums={f"{prefix}{c}": f"{prefix}{c}" for c in cats},
                   count_as=count_as)


def set_op(a: "ray.data.Dataset", b: "ray.data.Dataset",
           cols: Sequence[str], op: str) -> "ray.data.Dataset":
    """Distinct set operations — SQL ``INTERSECT`` / ``EXCEPT`` over the
    ``cols`` tuples of two datasets.

    Scale shape: ONE :func:`cogroup` of the two projections on the tuple;
    inside a bucket the distinct A tuples take a C-level indicator merge
    against the B tuples (null matches null, as SQL set operations
    compare).  Equal tuples always land in the same bucket, so the
    decision is local; only distinct-ish tuples need to coexist in a
    bucket, never whole tables on one node.  For a HUGELY larger B side,
    prefer :func:`bloom_semi_filter` (EXCEPT ≈ anti-join) — this operator
    is the exact symmetric form.
    """
    if op not in ("intersect", "except"):
        raise ValueError(f"set_op: op must be 'intersect' or 'except', "
                         f"got {op!r}")
    cols = list(cols)

    def per_bucket(frames: list[pd.DataFrame]) -> pd.DataFrame:
        left, right = (f.drop_duplicates() for f in frames)
        hit = left.merge(right, on=cols, how="left", indicator=True)[
            "_merge"].to_numpy() == "both"
        return left.loc[hit if op == "intersect" else ~hit]

    return cogroup([a.select_columns(cols), b.select_columns(cols)], cols,
                   per_bucket)


# Default salt for cap_per_key's draw hash: an arbitrary odd 64-bit
# constant so the cap's "random" order is DECORRELATED from
# ops.sample.hash_sample's unsalted mix64 on the same id column (else the
# same low-hash rows would win both the sample and the cap).
CAP_SALT = 0x6C62272E07BB0142


def cap_per_key(ds: "ray.data.Dataset", key: str | Sequence[str], n: int,
                id_col: str, salt: int = CAP_SALT) -> "ray.data.Dataset":
    """Deterministic per-key CAP: keep at most ``n`` rows per key — the
    ``n`` with the smallest ``mix64(id + salt)`` (ties broken by the id
    itself, so a unique ``id_col`` gives a total order).  The "max
    documents per domain" operator of a training-data pipeline: unlike a
    rate sample (:func:`ops.sample.hash_sample`) the cap is EXACT per
    key, and unlike top-N-by-value the winners are an unbiased
    deterministic draw — the same rows survive on any cluster layout or
    partitioning.  ``id_col`` must be non-negative integers (doc_id);
    the SQL replay treats ids as HUGEINT in [0, 2^63).

    Scale shape: a row-local per-batch prune first cuts every block to
    ≤ n rows per key IT contains, so at most |blocks|·n·|keys-per-block|
    rows shuffle — a hot key (half the corpus one domain) still ships
    only n rows per block, never the full table.  One key-hash-bucketed
    pass then picks the global winners with a C-level sort +
    ``groupby.head``.  SQL replay: ``ROW_NUMBER() OVER (PARTITION BY key
    ORDER BY mix64(id+salt), id) <= n`` via ops.sample.mix64_sql
    (bit-exact splitmix64 in HUGEINT)."""
    if n < 1:
        raise ValueError(f"cap_per_key: n must be >= 1, got {n}")
    keys = [key] if isinstance(key, str) else list(key)
    salt64 = np.uint64(salt % (1 << 64))

    def draw_order(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch[id_col].to_numpy()
        if not np.issubdtype(ids.dtype, np.integer):
            raise TypeError(f"{id_col} must be integer, got {ids.dtype}")
        if len(ids) and ids.min() < 0:
            # the HUGEINT oracle replay and the id tiebreak both assume
            # non-negative ids; a silent uint64 wrap would diverge
            raise ValueError(f"cap_per_key: {id_col} must be "
                             f"non-negative, saw {ids.min()}")
        batch["_h"] = _mix64(ids.astype(np.uint64, copy=False) + salt64)
        return batch.sort_values(["_h", id_col], kind="mergesort")

    def prune(batch: pd.DataFrame) -> pd.DataFrame:
        b = draw_order(batch)
        return b.groupby(keys, sort=False, dropna=False).head(n)

    def per_bucket(group: pa.Table) -> pd.DataFrame:
        g = to_pandas(group).sort_values(["_h", id_col], kind="mergesort")
        return g.groupby(keys, sort=False, dropna=False).head(n) \
            .drop(columns=["_h"])

    pruned = ds.map_batches(prune, batch_format="pandas", batch_size=None)
    return bucket_exchange(pruned, keys, per_bucket)


def bucketed_equi_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
                       on: str | Sequence[str],
                       right_on: str | Sequence[str] | None = None,
                       how: str = "inner") -> "ray.data.Dataset":
    """Equi-join via ONE :func:`cogroup` on the key + per-bucket C-level
    ``pandas.merge`` — the engine's one fact⨝fact join (measured: two
    chained 2M⨝1M joins ~5 s at 32 CPUs, where Ray's hash-shuffle join
    spent 14 s mostly on aggregator spin-up).  ``how`` ∈ inner / left /
    full.  Supports multi-column keys; ``right_on`` columns are renamed
    onto ``on``, so an outer join's key comes out coalesced into the
    ``on`` columns.  SQL null semantics: a key with a null component
    matches nothing, and an outer side keeps its null-key rows
    null-extended.  Integer columns an outer join can null — the key and
    every column of a null-extended side — come out as pandas nullable
    ``Int`` dtypes, never float64 (ids above 2^53 stay exact); every
    other integer column keeps its numpy dtype.  Key dtypes follow the
    :func:`cogroup` key rule (mismatched kinds raise, int widths widen).
    Same bucket-count sizing rule as :func:`bucket_exchange`; assumes one
    bucket's rows fit one task (both sides land in the same pandas group).

    A side whose schema Ray dropped (an all-empty input loses it at its
    first map stage) has no columns to name and no row to match: the
    result is then the other side as far as ``how`` keeps it (left rows
    unchanged for ``left``; either side unchanged for ``full``), else
    empty."""
    if how not in ("inner", "left", "full"):
        raise ValueError(f"bucketed_equi_join: how must be 'inner', 'left' "
                         f"or 'full', got {how!r}")
    on = [on] if isinstance(on, str) else list(on)
    right_on = (on if right_on is None
                else [right_on] if isinstance(right_on, str)
                else list(right_on))
    if len(on) != len(right_on):
        raise ValueError("bucketed_equi_join: on/right_on length mismatch")
    lschema, rschema = left.schema(), right.schema()
    if lschema is None:
        return right if how == "full" else left
    if rschema is None:
        return left.limit(0) if how == "inner" else left
    lcols = list(lschema.names)
    missing = [c for c in on if c not in lcols] + \
        [c for c in right_on if c not in rschema.names]
    if missing:
        raise ValueError(f"bucketed_equi_join: key columns {missing} "
                         "not present in their side")
    rename = {r: o for r, o in zip(right_on, on) if r != o}
    r_out = [rename.get(c, c) for c in rschema.names]
    collide = [c for c in r_out if c not in on and c in lcols]
    if collide:
        raise ValueError(f"bucketed_equi_join: right columns {collide} "
                         "collide with left columns — rename first")
    out_cols = lcols + [c for c in r_out if c not in on]
    can_null = {"inner": set(), "left": set(r_out),
                "full": set(out_cols)}[how]
    merge_how = {"inner": "inner", "left": "left", "full": "outer"}[how]

    def per_bucket(frames: list[pd.DataFrame]) -> pd.DataFrame:
        # the integer columns this join can null ride as nullable Int
        nulls = {c: _nullable_int(dt) for f in frames
                 for c, dt in f.dtypes.items()
                 if c in can_null and pd.api.types.is_integer_dtype(dt)}
        if nulls:
            frames = [f.astype({c: nulls[c] for c in f.columns if c in nulls})
                      for f in frames]
        lg, rg = frames
        # pandas.merge matches null to null; SQL never does — split them out
        l_null = lg[on].isna().any(axis=1).to_numpy()
        r_null = rg[on].isna().any(axis=1).to_numpy()
        parts = [lg.loc[~l_null].merge(rg.loc[~r_null], on=on,
                                       how=merge_how)]
        if how != "inner":
            parts.append(lg.loc[l_null])
        if how == "full":
            parts.append(rg.loc[r_null])
        parts = [p.reindex(columns=out_cols)
                 for p in parts if len(p)] or [parts[0][out_cols]]
        if nulls:
            # a null-extended part gets the other side's columns as
            # all-null float: cast before the concat, never via float
            parts = [p.astype(nulls) for p in parts]
        return pd.concat(parts, ignore_index=True)

    if rename:
        # an Arrow map: a pandas batch would report an int key that holds
        # nulls as float64, and cogroup's key rule reads the schema
        right = right.map_batches(
            lambda t: t.rename_columns([rename.get(c, c)
                                        for c in t.column_names]),
            batch_format="pyarrow", batch_size=None)
    return cogroup([left, right], on, per_bucket)


def bucketed_semi_anti_join(left: "ray.data.Dataset",
                            right: "ray.data.Dataset",
                            on: str | Sequence[str],
                            right_on: str | Sequence[str] | None = None,
                            anti: bool = False) -> "ray.data.Dataset":
    """SEMI (``anti=False``) / ANTI (``anti=True``) equi-join: keep each
    ``left`` row iff its key tuple is present / absent in ``right``.

    Output is the LEFT columns unchanged and never more rows than
    ``left`` — the existence test dedups the right side, so unlike an
    inner join a hot right key cannot fan rows out.  NOT-EXISTS null
    semantics: a null key matches nothing (kept by anti, dropped by
    semi), which is what ``WHERE [NOT] EXISTS`` — not ``NOT IN`` —
    computes.

    Scale shape: the right side is reduced to per-batch DISTINCT key
    tuples BEFORE the exchange (key-shaped, not row-shaped), then both
    sides meet in ONE :func:`cogroup` and the per-bucket test is a
    C-level ``isin`` on the key tuples.  This is the big-right-side
    complement to the broadcast tiers (``bloom_semi_filter``, the
    driver-set anti in queries.customers_without_orders): broadcast when
    the key set fits a worker's heap, bucket when it doesn't.  Key dtypes
    follow the :func:`cogroup` key rule."""
    on = [on] if isinstance(on, str) else list(on)
    right_on = (on if right_on is None
                else [right_on] if isinstance(right_on, str)
                else list(right_on))
    if len(on) != len(right_on):
        raise ValueError("bucketed_semi_anti_join: on/right_on length "
                         "mismatch")
    lschema, rschema = left.schema(), right.schema()
    # empty-side degenerate cases (schema unresolvable): an empty left has
    # nothing to keep; an empty right matches nothing — semi keeps nothing,
    # anti keeps everything
    if lschema is None:
        return left
    if rschema is None:
        return left if anti else left.limit(0)
    missing = [c for c in on if c not in lschema.names] + \
        [c for c in right_on if c not in rschema.names]
    if missing:
        raise ValueError(f"bucketed_semi_anti_join: key columns {missing} "
                         "not present in their side")

    def keys_right(t: pa.Table) -> pa.Table:
        # key-shaped exchange: distinct non-null key tuples per batch
        # (cross-batch dups collapse inside the bucket's isin — a full
        # pre-distinct would cost a second shuffle for nothing); Arrow
        # keeps an int key that held nulls int for cogroup's key rule
        return t.select(right_on).rename_columns(on).drop_null() \
            .group_by(on).aggregate([])

    def per_bucket(frames: list[pd.DataFrame]) -> pd.DataFrame:
        lg, rg = frames
        hit = ~lg[on].isna().any(axis=1).to_numpy()
        if hit.any() and len(rg):
            hit[hit] = pd.MultiIndex.from_frame(lg.loc[hit, on]).isin(
                pd.MultiIndex.from_frame(rg))
        else:
            hit[:] = False
        return lg.loc[~hit if anti else hit]

    return cogroup([left, right.map_batches(keys_right,
                                            batch_format="pyarrow",
                                            batch_size=None)],
                   on, per_bucket)


def key_skew_profile(ds: "ray.data.Dataset", key: str) -> pd.DataFrame:
    """Single-row skew diagnostic of a grouping key — the first question
    to ask before hash-partitioning 100 TB by it: total rows, distinct
    keys, the hottest key's row count and ppm share, and the p50/p99
    per-key row counts.

    Shape: one entity-shaped bucketed count (only (key, partial-count)
    rows shuffle), then the count DISTRIBUTION collapses to a value
    histogram (`ops.sketch.exact_quantiles` — |distinct count values|
    rows on the driver, tiny even at 10^9 keys) plus per-block extrema
    partials.  All integer-exact; ``max_share_ppm`` uses truncating
    division to match SQL ``//``.  Null keys count as one key, matching
    SQL GROUP BY."""
    from zeeklog_ray.ops.sketch import exact_quantiles

    counts = grouped_sum_bucketed(ds.select_columns([key]), [key],
                                  count_as="n_k").materialize()

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"rows": [int(df["n_k"].sum())],
                             "keys": [len(df)],
                             "mx": [int(df["n_k"].max()) if len(df) else 0]})

    parts = counts.map_batches(partial, batch_format="pandas",
                               batch_size=None).to_pandas()
    n_rows = int(parts["rows"].sum()) if "rows" in parts.columns else 0
    if n_rows == 0:         # before the quantile pass: an empty Dataset's
        raise ValueError("key_skew_profile: empty input")  # to_pandas()
    n_keys = int(parts["keys"].sum())                      # loses columns
    mx = int(parts["mx"].max())
    q = exact_quantiles(counts, "n_k", [0.5, 0.99])
    qv = q.set_index("q")["value"]
    return pd.DataFrame({
        "n_rows": pd.array([n_rows], dtype="int64"),
        "n_keys": pd.array([n_keys], dtype="int64"),
        "max_key_rows": pd.array([mx], dtype="int64"),
        "max_share_ppm": pd.array([mx * 1_000_000 // n_rows], dtype="int64"),
        "p50_key_rows": pd.array([int(qv.loc[0.5])], dtype="int64"),
        "p99_key_rows": pd.array([int(qv.loc[0.99])], dtype="int64"),
    })


def retention_cohorts(events: "ray.data.Dataset", user_col: str = "user_id",
                      ts_col: str = "ts") -> "ray.data.Dataset":
    """Cohort retention over an event stream: distinct users per
    (first-seen epoch-week, week-offset).  Weeks are integer epoch-day
    // 7 so a SQL replay truncates identically.  Output: (cohort_week,
    week_offset, n_users).

    ONE user-hash-bucket shuffle does all the entity work: the row-local
    map dedups (user, week) per batch (bounding the exchange at
    |users-per-batch| × |weeks|), then each bucket — which holds every
    row of its users — dedups exactly, derives the per-user min via a
    C-level transform, and emits (cohort, offset, user) triples that are
    unique by construction.  The earlier formulation (entity MIN +
    equi-join + triple-dedup) cost three shuffles of the same rows;
    measured at 5M events / 100k users: 16.1 s → 3.0 s."""

    def to_weeks(batch: pd.DataFrame) -> pd.DataFrame:
        days = batch[ts_col].to_numpy().astype("datetime64[D]") \
            .astype(np.int64)
        out = pd.DataFrame({user_col: batch[user_col].to_numpy(),
                            "w": days // 7})
        # null users match nothing (the SQL replay's inner join on
        # user_id) — dropping them here also keeps the week columns
        # int64 (a NaN min would float-promote whole buckets)
        out = out.dropna(subset=[user_col])
        return out.drop_duplicates()      # partial dedup pre-shuffle

    weeks = events.select_columns([user_col, ts_col]).map_batches(
        to_weeks, batch_format="pandas", batch_size=None)

    def per_bucket(g: pa.Table) -> pd.DataFrame:
        g = to_pandas(g).drop_duplicates([user_col, "w"])
        cw = g.groupby(user_col, sort=False)["w"].transform("min")
        return pd.DataFrame({
            "cohort_week": cw.to_numpy(),
            "week_offset": (g["w"] - cw).to_numpy(),
            user_col: g[user_col].to_numpy()})

    trip = bucket_exchange(weeks, user_col, per_bucket)
    return grouped_sum(trip, ["cohort_week", "week_offset"],
                       count_as="n_users")


def sampled_range_boundaries(proj: "ray.data.Dataset", col: str,
                             num_buckets: int, sample_n: int = 8192,
                             seed: int = 7,
                             ctx: str = "sampled_range_boundaries") -> np.ndarray:
    """Deterministic range-bucket boundaries for ``col``: sample ~sample_n
    values (bernoulli over every block — never ``limit``, which biases
    toward the first blocks), sort, take ``num_buckets - 1`` evenly spaced
    order statistics, dedupe.  Shared by :func:`global_rank` and
    ``partitioned.write_sorted_zonemap`` — rows with equal values always
    land in the same bucket (callers assign with ``searchsorted
    side='right'``).  Null sort keys are rejected (SQL null-ordering
    varies by dialect — make the policy explicit upstream)."""
    n_rows = proj.count()
    if n_rows == 0:
        return np.array([])
    frac = min(1.0, 1.25 * sample_n / n_rows)
    samp = proj.select_columns([col]).random_sample(frac, seed=seed) \
        .to_pandas()
    if len(samp) == 0:
        samp = proj.select_columns([col]).limit(sample_n).to_pandas()
    if samp[col].isna().any():
        raise ValueError(f"{ctx}: null values in sort key {col!r}")
    vals = np.sort(samp[col].to_numpy())
    qs = (np.arange(1, num_buckets) * len(vals)) // num_buckets
    return np.unique(vals[qs]) if len(vals) else np.array([])


def global_rank(ds: "ray.data.Dataset", by: str, tie: str,
                num_buckets: int = 64, sample_n: int = 8192,
                seed: int = 7) -> "ray.data.Dataset":
    """Distributed global ROW_NUMBER ordered by ``(by, tie)`` ascending —
    the range-partitioned sort-rank: sample the sort key for bucket
    boundaries (deterministic seed), assign each row its range bucket
    row-locally, count per bucket (≤ ``num_buckets`` rows to the
    driver), then one bucketed pass sorts each range and adds its prefix
    offset — rank is 1-based, dense across the whole dataset, and ties
    break by ``tie`` so the result is total and replayable as SQL
    ``ROW_NUMBER() OVER (ORDER BY by, tie)``.

    Equal ``by`` values always land in the SAME range bucket
    (searchsorted on value), so a pathologically hot value makes one
    bucket large — inherent to rank semantics (equal values need
    contiguous ranks); rank on a finer composite key if that bites.
    Null sort keys are rejected (SQL null-ordering varies by dialect —
    make the policy explicit upstream)."""
    proj = ds.select_columns([by, tie]).materialize()
    if proj.count() == 0:
        return proj.map_batches(
            lambda df: df.assign(rank=pd.array([], dtype="int64")),
            batch_format="pandas", batch_size=None)
    boundaries = sampled_range_boundaries(proj, by, num_buckets, sample_n,
                                          seed, ctx="global_rank")
    bref = ray.put(boundaries)

    def assign(batch: pd.DataFrame) -> pd.DataFrame:
        if batch[by].isna().any():
            raise ValueError(f"global_rank: null values in sort key {by!r}")
        bounds = ray.get(bref)
        batch = batch.copy()
        batch["_rb"] = np.searchsorted(bounds, batch[by].to_numpy(),
                                       side="right").astype(np.int64)
        return batch

    assigned = proj.map_batches(assign, batch_format="pandas",
                                batch_size=None).materialize()
    counts = grouped_sum(assigned.select_columns(["_rb"]), ["_rb"],
                         count_as="m").to_pandas().sort_values("_rb")
    offsets = dict(zip(counts["_rb"],
                       counts["m"].cumsum() - counts["m"]))
    oref = ray.put(offsets)

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        offs = ray.get(oref)
        g = group.sort_values([by, tie], kind="mergesort")
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64) \
            + np.int64(offs[int(g["_rb"].iloc[0])])
        return g.drop(columns=["_rb"])

    return assigned.groupby("_rb").map_groups(per_bucket,
                                              batch_format="pandas")
