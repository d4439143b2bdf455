"""Bucketed-groupby relational helpers: distinct / grouped min over a
key-hash bucket — the scale substitutes for Dataset.groupby aggregates."""

import pathlib
import re
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

import zeeklog_ray
from zeeklog_ray.relational import (
    bucket_exchange,
    bucketed_distinct,
    bucketed_group_min,
    with_hash_bucket,
)


@pytest.fixture()
def pairs_df():
    rng = np.random.default_rng(11)
    a = rng.integers(0, 40, 500)
    b = a + rng.integers(1, 5, 500)
    return pd.DataFrame({"doc_a": a, "doc_b": b})


@pytest.mark.parametrize("nb", [1, 64])   # input blocks; 1 = one fn call
def test_bucketed_distinct_matches_pandas(ray_session, in_blocks, pairs_df,
                                          nb):
    out = bucketed_distinct(in_blocks(pairs_df, nb),
                            ["doc_a", "doc_b"]).to_pandas()
    exp = pairs_df.drop_duplicates()
    assert len(out) == len(out.drop_duplicates())          # actually distinct
    assert (set(map(tuple, out.to_numpy()))
            == set(map(tuple, exp.to_numpy())))


@pytest.mark.parametrize("nb", [1, 64])
def test_bucketed_group_min_matches_pandas(ray_session, in_blocks, nb):
    rng = np.random.default_rng(7)
    df = pd.DataFrame({"node": rng.integers(0, 30, 400),
                       "label": rng.integers(0, 1000, 400)})
    out = bucketed_group_min(in_blocks(df, nb), "node", "label").to_pandas() \
        .sort_values("node").reset_index(drop=True)
    exp = df.groupby("node", sort=True)["label"].min().reset_index()
    pd.testing.assert_frame_equal(out, exp, check_dtype=False)


def test_with_hash_bucket_multikey_colocates(ray_session, pairs_df):
    out = with_hash_bucket(ray.data.from_pandas(pairs_df),
                           ["doc_a", "doc_b"]).to_pandas()
    # same (doc_a, doc_b) tuple ⇒ same bucket, always
    n_buckets_per_key = out.groupby(["doc_a", "doc_b"])["_bucket"].nunique()
    assert (n_buckets_per_key == 1).all()


@pytest.mark.parametrize("key", ["doc_a", ["doc_a", "doc_b"]])
@pytest.mark.parametrize("arrow_out", [False, True])
def test_bucket_exchange_colocates_and_hides_bucket(ray_session, in_blocks,
                                                    pairs_df, key, arrow_out):
    """Every key's rows reach exactly one fn call, and fn runs at most
    once per input block (one block: one call); fn gets an Arrow table
    of the input's columns only, and the bucket column never reaches the
    output."""
    keys = [key] if isinstance(key, str) else key

    def fn(group: pa.Table):
        assert group.column_names == ["doc_a", "doc_b"]
        out = group.to_pandas().assign(call=np.int64(uuid.uuid4().int >> 66))
        return pa.Table.from_pandas(out, preserve_index=False) \
            if arrow_out else out

    for n_blocks in (1, 3, 16):
        ds = bucket_exchange(in_blocks(pairs_df, n_blocks), key, fn)
        out = ds.to_pandas()
        assert sorted(ds.schema().names) == ["call", "doc_a", "doc_b"]
        assert len(out) == len(pairs_df)
        assert (out.groupby(keys)["call"].nunique() == 1).all()
        assert out["call"].nunique() <= min(n_blocks, 8)
        # several blocks must spread keys over several calls, or the
        # co-location check above holds trivially
        assert out["call"].nunique() > 1 if n_blocks > 1 \
            else out["call"].nunique() == 1
        pd.testing.assert_frame_equal(
            out[["doc_a", "doc_b"]].sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True),
            pairs_df.sort_values(["doc_a", "doc_b"]).reset_index(drop=True))


@pytest.mark.parametrize("call_bytes", [1, 2048])
def test_bucket_exchange_cuts_large_partition_at_keys(ray_session, pairs_df,
                                                      monkeypatch,
                                                      call_bytes):
    """A partition above relational.CALL_BYTES is cut into several calls,
    and every cut falls between keys: each key's rows stay in one call."""
    import zeeklog_ray.relational as rel

    monkeypatch.setattr(rel, "CALL_BYTES", call_bytes)

    def fn(group: pa.Table):
        return group.to_pandas().assign(call=np.int64(uuid.uuid4().int >> 66))

    out = bucket_exchange(ray.data.from_pandas(pairs_df),
                          ["doc_a", "doc_b"], fn).to_pandas()
    assert (out.groupby(["doc_a", "doc_b"])["call"].nunique() == 1).all()
    n_keys = len(pairs_df.drop_duplicates())
    # 1 byte: every hash run is its own call; 2 KiB: several runs per call
    assert out["call"].nunique() == n_keys if call_bytes == 1 \
        else 1 < out["call"].nunique() < n_keys
    pd.testing.assert_frame_equal(
        out[["doc_a", "doc_b"]].sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True),
        pairs_df.sort_values(["doc_a", "doc_b"]).reset_index(drop=True))


def test_bucket_exchange_empty_input(ray_session, pairs_df):
    """An empty input yields an empty output and never calls fn.  Ray 2.49
    drops an all-empty input's schema at its first map stage, so the
    output carries no columns — the same as every exchange before the
    primitive."""
    def fn(group: pa.Table):
        raise AssertionError("fn called on an empty input")

    ds = bucket_exchange(ray.data.from_pandas(pairs_df.iloc[:0]), "doc_a",
                         fn)
    assert ds.count() == 0
    assert "_bucket" not in ds.to_pandas().columns


def _upstream(df: pd.DataFrame, kind: str, n_blocks: int = 3):
    """``df`` as a Dataset of Arrow blocks, or of pandas blocks made by
    a pandas map (as most operators' upstream stages make them)."""
    k = len(df) // n_blocks
    ds = ray.data.from_arrow([pa.Table.from_pandas(
        df.iloc[i * k:(i + 1) * k if i < n_blocks - 1 else len(df)],
        preserve_index=False) for i in range(n_blocks)])
    return ds if kind == "arrow" else ds.map_batches(
        lambda b: b, batch_format="pandas", batch_size=None)


@pytest.mark.parametrize("kind", ["arrow", "pandas"])
@pytest.mark.parametrize("key", ["i64", "i32", "s", ["i64", "s"]])
def test_with_hash_bucket_values_match_pandas_hash(ray_session, kind, key):
    """The bucket value is pandas' row hash of the key columns (a
    Series for one key, a frame for several), viewed as int64 — the
    same value whichever block kind the rows arrive in."""
    rng = np.random.default_rng(5)
    df = pd.DataFrame({
        "id": np.arange(300),
        "i64": rng.integers(-2**62, 2**62, 300),
        "i32": rng.integers(-2**31, 2**31, 300).astype(np.int32),
        "s": rng.choice(["conn", "dns", "http", "ssl"], 300)})
    out = with_hash_bucket(_upstream(df, kind), key).to_pandas() \
        .sort_values("id")
    want = pd.util.hash_pandas_object(df[key], index=False).to_numpy()
    np.testing.assert_array_equal(out["_bucket"].to_numpy(),
                                  want.view(np.int64))


def test_with_hash_bucket_int_key_with_nulls_hashes_like_int(ray_session):
    """An int key holding nulls (Arrow int64 with nulls, which pandas
    would convert to float64) buckets its non-null rows exactly like
    the same key without nulls."""
    t = pa.table({"k": pa.array([1, None, 2**60, -7], pa.int64())})
    got = with_hash_bucket(ray.data.from_arrow(t), "k").to_pandas()
    want = pd.util.hash_pandas_object(pd.Series([1, 2**60, -7]),
                                      index=False).to_numpy()
    np.testing.assert_array_equal(got["_bucket"].to_numpy()[[0, 2, 3]],
                                  want.view(np.int64))


def _token_frame(n: int = 200) -> pd.DataFrame:
    rng = np.random.default_rng(8)
    return pd.DataFrame({
        "k": np.arange(n) % 17,
        "tok": [rng.integers(0, 50_000, rng.integers(0, 40))
                .astype(np.int32) for _ in range(n)]})


@pytest.mark.parametrize("kind", ["arrow", "pandas"])
def test_token_lists_cross_bucket_exchange_intact(ray_session, kind):
    """A list<int32> column reaches fn as an Arrow list of int32 values,
    row for row the values that went in, from an Arrow upstream and from
    a pandas one (whose ndarray column Ray ships as a tensor column)."""
    from zeeklog_ray.arrowutil import list_values_offsets

    df = _token_frame()
    df["row"] = np.arange(len(df))

    def fn(t: pa.Table) -> pd.DataFrame:
        vals, offs = list_values_offsets(t["tok"])
        if kind == "arrow":
            assert t["tok"].type == pa.list_(pa.int32())
        assert vals.dtype == np.int32
        return pd.DataFrame({"row": t["row"].to_numpy(),
                             "sum": np.add.reduceat(
                                 np.r_[vals.astype(np.int64), 0],
                                 offs[:-1]) * (np.diff(offs) > 0),
                             "n": np.diff(offs)})

    out = bucket_exchange(_upstream(df, kind), "k", fn).to_pandas() \
        .sort_values("row")
    assert out["n"].tolist() == [len(t) for t in df["tok"]]
    assert out["sum"].tolist() == [int(t.astype(np.int64).sum())
                                   for t in df["tok"]]


@pytest.mark.parametrize("kind", ["arrow", "pandas"])
def test_token_lists_cross_cogroup_intact(ray_session, kind):
    """Through cogroup a token column reaches fn as int32 ndarrays, each
    row's values exactly as they went in."""
    from zeeklog_ray.relational import cogroup

    df = _token_frame()
    other = pd.DataFrame({"k": np.arange(17), "w": np.arange(17) * 10})

    def fn(frames: list) -> pd.DataFrame:
        toks, ws = frames
        assert all(isinstance(t, np.ndarray) and t.dtype == np.int32
                   for t in toks["tok"])
        m = toks.merge(ws, on="k")
        return pd.DataFrame({"k": m["k"], "w": m["w"],
                             "tok": [t.tobytes() for t in m["tok"]]})

    out = cogroup([_upstream(df, kind), _upstream(other, kind, 1)], "k",
                  fn).to_pandas()
    want = sorted((k, k * 10, t.tobytes()) for k, t in zip(df["k"],
                                                           df["tok"]))
    assert sorted(zip(out["k"], out["w"], out["tok"])) == want


def test_cogroup_int_key_with_nulls_on_one_side_matches(ray_session):
    """A key holding nulls on one side only (Arrow int64 with nulls, a
    pandas nullable Int64) still hashes like the other side's plain int
    key: every non-null row meets its match, and the null-key rows
    reach fn as well."""
    from zeeklog_ray.relational import cogroup

    big = 2**53 + 1
    a = ray.data.from_pandas(pd.DataFrame({"k": [1, 2, big],
                                           "x": [10, 20, 30]}))
    sides = {
        "arrow": ray.data.from_arrow(pa.table({
            "k": pa.array([1, None, 2, big, None], pa.int64()),
            "y": pa.array([1, 2, 3, 4, 5])})),
        "pandas": ray.data.from_pandas(pd.DataFrame({
            "k": pd.array([1, None, 2, big, None], dtype="Int64"),
            "y": [1, 2, 3, 4, 5]})),
    }

    def fn(frames: list) -> pd.DataFrame:
        left, right = frames
        m = left.merge(right.dropna(subset=["k"]).astype({"k": "int64"}),
                       on="k")
        return pd.DataFrame({"k": m["k"].astype("int64"), "y": m["y"],
                             "nulls": int(right["k"].isna().sum())})

    for b in sides.values():
        out = cogroup([a, b], "k", fn).to_pandas()
        assert sorted(zip(out["k"], out["y"])) == [(1, 1), (2, 3), (big, 4)]


# The bucket column and its groupby belong to relational.bucket_exchange;
# any other module must call the primitive instead of rebuilding it.
_BUCKET_ALLOWED = {
    "relational.py": "home of bucket_exchange and with_hash_bucket",
    "ops/sample.py": "a RANGE exchange, not a hash one: the bucket is the "
                     "top hash bits so buckets are ordered, and per_bucket "
                     "reads the bucket id to offset a global index — "
                     "bucket_exchange hides the id by design",
}


def test_no_hand_built_bucket_exchange_outside_relational():
    pkg = pathlib.Path(zeeklog_ray.__file__).parent
    pattern = re.compile(r"""["']_bucket["']""")
    offenders = sorted(
        rel for rel in (p.relative_to(pkg).as_posix()
                        for p in pkg.rglob("*.py"))
        if rel not in _BUCKET_ALLOWED
        and pattern.search((pkg / rel).read_text()))
    assert offenders == [], (
        f"hand-built hash-bucket exchange in {offenders}: use "
        "relational.bucket_exchange")


# Every exchange sizes itself (one fn call per input block), so a
# ``num_buckets`` parameter is left only where it counts something else
# or is kept, ignored, for a caller outside the package.
_NUM_BUCKETS_ALLOWED = {
    "ops/packing.py:pack_assignments": "accepted and ignored: perfbench's "
                                       "pack workload passes it",
    "loader.py:pack_token_rows": "accepted and ignored: perfbench's pack "
                                 "workload passes it",
    "relational.py:sampled_range_boundaries": "a count of key ranges for "
                                              "a range exchange",
    "relational.py:global_rank": "a count of key ranges for a range "
                                 "exchange",
}


def test_num_buckets_only_where_allowlisted():
    import ast

    pkg = pathlib.Path(zeeklog_ray.__file__).parent
    found = set()
    for path in pkg.rglob("*.py"):
        rel = path.relative_to(pkg).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args.args + node.args.kwonlyargs
                if any(a.arg == "num_buckets" for a in args):
                    found.add(f"{rel}:{node.name}")
    assert found == set(_NUM_BUCKETS_ALLOWED), (
        f"unlisted num_buckets parameters "
        f"{sorted(found - set(_NUM_BUCKETS_ALLOWED))} (the exchange "
        f"sizes itself) or stale entries "
        f"{sorted(set(_NUM_BUCKETS_ALLOWED) - found)}")


# Side-tag columns belong to relational.cogroup; a module that writes one
# is hand-building a co-group.
_SIDE_TAG_ALLOWED = {
    "relational.py": "home of cogroup",
    "queries.py": "docs_snapshot_diff: one corpus scan emits both snapshot "
                  "sides from the same map, so there is no union to co-group",
}


def test_side_tags_only_in_relational():
    pkg = pathlib.Path(zeeklog_ray.__file__).parent
    pattern = re.compile(r"""["'](_side|_new)["']""")
    offenders = sorted(
        rel for rel in (p.relative_to(pkg).as_posix()
                        for p in pkg.rglob("*.py"))
        if rel not in _SIDE_TAG_ALLOWED
        and pattern.search((pkg / rel).read_text()))
    assert offenders == [], (
        f"hand-built side tags in {offenders}: use relational.cogroup")


# Every Dataset.union in the package, by the function that calls it.  A
# union of differently shaped sides ahead of an exchange is a co-group
# and goes through relational.cogroup; what is left is listed here.
_UNION_ALLOWED = {
    "relational.py:cogroup": "the one co-group: unions the tagged sides",
    "relational.py:grouped_sum": "a zero-row seed block that pins the "
                                 "output schema of an empty aggregate",
    "ops/dedup.py:_finish_dup_stats": "same-schema partials into a "
                                      "grouped sum, not a co-group",
    "ops/text.py:rare_word_stats": "same-schema partials into a grouped "
                                   "sum, not a co-group",
    "ops/text.py:unigram_logprob": "same-schema partials into a grouped "
                                   "sum, not a co-group",
    "ops/graph.py:connected_components": "same-schema label candidates "
                                         "into a grouped min",
    "queries.py:_seed_mor_store": "concatenates one delta batch's updates "
                                  "and tombstones for one append",
    "queries.py:events_time_travel": "concatenates the per-snapshot "
                                     "result rows",
}


def test_every_union_is_allowlisted():
    import ast

    class Owners(ast.NodeVisitor):
        """Names the innermost function around every ``.union(`` call."""

        def __init__(self, rel: str):
            self.rel, self.stack, self.found = rel, [], set()

        def visit_FunctionDef(self, node):
            self.stack.append(node.name)
            self.generic_visit(node)
            self.stack.pop()

        def visit_Call(self, node):
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "union":
                self.found.add(f"{self.rel}:{self.stack[-1]}" if self.stack
                               else self.rel)
            self.generic_visit(node)

    pkg = pathlib.Path(zeeklog_ray.__file__).parent
    found = set()
    for path in pkg.rglob("*.py"):
        owners = Owners(path.relative_to(pkg).as_posix())
        owners.visit(ast.parse(path.read_text()))
        found |= owners.found
    assert found == set(_UNION_ALLOWED), (
        f"unlisted unions {sorted(found - set(_UNION_ALLOWED))} (a union "
        "ahead of an exchange is a co-group: use relational.cogroup); "
        f"stale entries {sorted(set(_UNION_ALLOWED) - found)}")


def test_no_hash_shuffle_join_in_package():
    """Every equi-join goes through relational.bucketed_equi_join or a
    bucket_exchange; Ray's hash-shuffle join (Dataset.join) deadlocks
    when its aggregators hold every CPU."""
    pkg = pathlib.Path(zeeklog_ray.__file__).parent
    pattern = re.compile(r"join_type=|hash_join|_join_partitions|hash_shuffle")
    offenders = sorted(
        f"{p.relative_to(pkg).as_posix()}: {m.group(0)}"
        for p in pkg.rglob("*.py")
        for m in [pattern.search(p.read_text())] if m)
    assert offenders == [], offenders


_POOL_KEYWORDS = {"concurrency", "compute", "fn_constructor_args",
                  "fn_constructor_kwargs"}


def _map_batches_pool_sites(pkg: pathlib.Path, pkg_name: str) -> list[str]:
    """Every ``map_batches`` call under ``pkg`` that asks for an actor
    pool: an actor-pool keyword, or a class as the function (resolved
    against the module's globals and the file's own class definitions).
    Docstring usage examples are strings, not calls, so they never
    match."""
    import ast
    import importlib
    import inspect

    found = []
    for path in sorted(pkg.rglob("*.py")):
        rel = path.relative_to(pkg)
        tree = ast.parse(path.read_text())
        mod_name = ".".join((pkg_name, *rel.with_suffix("").parts))
        module = importlib.import_module(mod_name.removesuffix(".__init__"))
        local_classes = {n.name for n in ast.walk(tree)
                         if isinstance(n, ast.ClassDef)}

        def is_class(node) -> bool:
            if isinstance(node, ast.Name) and node.id in local_classes:
                return True
            try:
                obj = eval(compile(ast.Expression(node), "<fn>", "eval"),
                           vars(module))
            except Exception:            # a local name: not resolvable
                return False
            return inspect.isclass(obj)

        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "map_batches"):
                continue
            fns = call.args[:1] + [k.value for k in call.keywords
                                   if k.arg == "fn"]
            bad = sorted(k.arg for k in call.keywords
                         if k.arg in _POOL_KEYWORDS)
            bad += ["class " + ast.unparse(f) for f in fns
                    if isinstance(f, (ast.Name, ast.Attribute))
                    and is_class(f)]
            if bad:
                found.append(f"{rel.as_posix()}:{call.lineno}: "
                             + ", ".join(bad))
    return found


def test_no_actor_pool_map_stage_in_package():
    """Every map stage runs as tasks: an actor-pool stage holds a CPU for
    its lifetime and starves the upstream read on a 1-CPU cluster."""
    pkg = pathlib.Path(zeeklog_ray.__file__).parent
    offenders = _map_batches_pool_sites(pkg, "zeeklog_ray")
    assert offenders == [], offenders


def test_no_raw_actor_or_remote_task_in_package():
    """One execution model: every stage is a Ray Data operator.  A
    hand-made ``ray.remote`` actor or task (and the ``ray.kill`` that
    tears one down) is a second scheduler the Dataset executor cannot
    see, budget or back-pressure."""
    pkg = pathlib.Path(zeeklog_ray.__file__).parent
    pattern = re.compile(r"ray\.(remote|kill)\b"
                         r"|from ray import .*\b(remote|kill)\b")
    offenders = sorted(
        f"{p.relative_to(pkg).as_posix()}:{i}"
        for p in pkg.rglob("*.py")
        for i, line in enumerate(p.read_text().splitlines(), 1)
        if pattern.search(line))
    assert offenders == [], offenders


def test_pivot_sum_semantics(ray_session):
    """PIVOT: zero-fill, out-of-list values count toward count_as but no
    column, duplicate categories rejected."""
    from zeeklog_ray.relational import pivot_sum

    df = pd.DataFrame({
        "u": [1, 1, 1, 2, 2],
        "t": ["a", "a", "b", "b", "zzz"],   # 'zzz' not in the IN-list
        "v": [10, 5, 7, 3, 100],
    })
    out = pivot_sum(ray.data.from_pandas(df), "u", "t", "v", ["a", "b"],
                    prefix="s_", count_as="n").to_pandas() \
        .sort_values("u").reset_index(drop=True)
    assert out.columns.tolist() == ["u", "n", "s_a", "s_b"]
    assert out.loc[0].tolist() == [1, 3, 15, 7]
    assert out.loc[1].tolist() == [2, 2, 0, 3]    # zzz in n, not in columns

    with pytest.raises(ValueError, match="duplicate"):
        pivot_sum(ray.data.from_pandas(df), "u", "t", "v", ["a", "a"])


def test_set_op_intersect_except(ray_session):
    from zeeklog_ray.relational import set_op

    a = ray.data.from_pandas(pd.DataFrame({"k": [1, 2, 3, 3, 4],
                                           "s": list("aabbc")}))
    b = ray.data.from_pandas(pd.DataFrame({"k": [3, 4, 5],
                                           "s": list("bcd")}))
    inter = set_op(a, b, ["k", "s"], "intersect").to_pandas()
    assert sorted(map(tuple, inter.itertuples(index=False))) == [(3, "b"), (4, "c")]
    exc = set_op(a, b, ["k", "s"], "except").to_pandas()
    assert sorted(map(tuple, exc.itertuples(index=False))) == [(1, "a"), (2, "a")]
    with pytest.raises(ValueError, match="intersect"):
        set_op(a, b, ["k"], "union")


def test_rollup_sum(ray_session):
    from zeeklog_ray.relational import rollup_sum

    df = pd.DataFrame({
        "r": ["eu", "eu", "us"],
        "n": ["de", "fr", "ny"],
        "v": [1, 2, 4],
    })
    out = rollup_sum(ray.data.from_pandas(df).repartition(2), ["r", "n"],
                     sums={"v": "v"}, count_as="c")
    # levels: (r,n) finest ×3, (r) ×2, grand total ×1
    assert len(out) == 6
    fine = out[out["n"].notna()].set_index(["r", "n"])
    assert fine.loc[("eu", "de"), "v"] == 1
    sub = out[out["n"].isna() & out["r"].notna()].set_index("r")
    assert sub.loc["eu", "v"] == 3 and sub.loc["eu", "c"] == 2
    assert sub.loc["us", "v"] == 4
    total = out[out["r"].isna()]
    assert len(total) == 1
    assert total["v"].iloc[0] == 7 and total["c"].iloc[0] == 3
    assert out["v"].dtype == "int64" and out["c"].dtype == "int64"


def test_hash_join_full_outer(ray_session):
    from zeeklog_ray.relational import bucketed_equi_join

    l = ray.data.from_pandas(pd.DataFrame({"k": [1, 2], "x": [10, 20]}))
    r = ray.data.from_pandas(pd.DataFrame({"k": [2, 3], "y": [200, 300]}))
    out = bucketed_equi_join(l, r, on="k", how="full").to_pandas() \
        .sort_values("k").reset_index(drop=True)
    # key coalesced into one column; unmatched sides null-filled
    assert out["k"].tolist() == [1, 2, 3]
    assert out["x"].fillna(-1).tolist() == [10, 20, -1]
    assert out["y"].fillna(-1).tolist() == [-1, 200, 300]


def test_hash_join_empty_side_and_empty_first_block(ray_session):
    """An outer join side that is entirely empty keeps its columns
    through the ``grouped_sum`` schema seed; a side whose first blocks
    are empty (repartition manufactures zero-column empties when rows <
    partitions) joins like any other."""
    import pyarrow as pa

    from zeeklog_ray.relational import bucketed_equi_join, grouped_sum

    # side B matches NOTHING -> entirely empty aggregate; the schema seed
    # names its columns
    ev = ray.data.from_pandas(pd.DataFrame({
        "user_id": [1, 2, 3], "kind": ["a", "a", "b"]}))

    def pick(kind, out):
        def f(b: pd.DataFrame) -> pd.DataFrame:
            return b.loc[b["kind"] == kind, ["user_id"]]
        seed = pa.schema([("user_id", pa.int64()), (out, pa.int64())])
        return grouped_sum(ev.map_batches(f, batch_format="pandas",
                                          batch_size=None),
                           ["user_id"], count_as=out, empty_schema=seed)

    out = bucketed_equi_join(pick("a", "n_a"), pick("zzz", "n_z"),
                             on="user_id", how="full").to_pandas()
    out = out.sort_values("user_id").reset_index(drop=True)
    assert out["user_id"].tolist() == [1, 2]
    assert out["n_a"].tolist() == [1, 1]
    assert out["n_z"].isna().all()

    # empty FIRST block on one side
    sparse = ray.data.from_pandas(
        pd.DataFrame({"user_id": [7], "m": [70]})).repartition(4)
    dense = ray.data.from_pandas(
        pd.DataFrame({"user_id": [1, 7], "x": [10, 20]}))
    j = bucketed_equi_join(dense, sparse, on="user_id",
                           how="left").to_pandas()
    j = j.sort_values("user_id").reset_index(drop=True)
    assert j["user_id"].tolist() == [1, 7]
    assert j["m"].fillna(-1).tolist() == [-1, 70]


def test_cube_sum(ray_session):
    from zeeklog_ray.relational import cube_sum

    ds = ray.data.from_pandas(pd.DataFrame({
        "a": ["x", "x", "y"], "b": ["p", "q", "p"], "v": [1, 2, 4]}))
    out = cube_sum(ds, ["a", "b"], sums={"v": "v"}, count_as="c")
    # 3 finest + 2 (a) + 2 (b) + 1 grand total = 8 rows
    assert len(out) == 8
    grand = out[out["a"].isna() & out["b"].isna()]
    assert grand["v"].iloc[0] == 7 and grand["c"].iloc[0] == 3
    only_b = out[out["a"].isna() & out["b"].notna()].set_index("b")
    assert only_b.loc["p", "v"] == 5 and only_b.loc["q", "v"] == 2
    only_a = out[out["b"].isna() & out["a"].notna()].set_index("a")
    assert only_a.loc["x", "c"] == 2 and only_a.loc["y", "v"] == 4


def test_latest_per_key_and_seq_index(ray_session):
    from zeeklog_ray.relational import latest_per_key, seq_index_per_key

    df = pd.DataFrame({
        "k": [1, 1, 1, 2, 2],
        "ts": [10, 30, 20, 5, 5],
        "id": [100, 101, 102, 200, 201],
        "payload": list("abcde")})
    ds = ray.data.from_pandas([df.iloc[:2], df.iloc[2:]])  # multi-block

    latest = latest_per_key(ds, ["k"], ["ts", "id"]).to_pandas() \
        .sort_values("k").reset_index(drop=True)
    # k=1 -> ts 30 (id 101); k=2 -> ts tie 5, max id 201
    assert latest["id"].tolist() == [101, 201]
    assert latest["payload"].tolist() == ["b", "e"]

    seq = seq_index_per_key(ds, "k", ["ts", "id"]).to_pandas() \
        .sort_values(["k", "seq"]).reset_index(drop=True)
    assert seq[seq["k"] == 1]["id"].tolist() == [100, 102, 101]
    assert seq[seq["k"] == 1]["seq"].tolist() == [1, 2, 3]
    assert seq[seq["k"] == 2]["id"].tolist() == [200, 201]


def test_grouped_var_exact(ray_session):
    from zeeklog_ray.relational import grouped_var_exact

    df = pd.DataFrame({"g": ["a"] * 4 + ["b"] * 2 + ["c"],
                       "x": [1, 2, 3, 4, 10, 10, 99]})
    out = grouped_var_exact(ray.data.from_pandas(df), ["g"], "x") \
        .sort_values("g").reset_index(drop=True)
    # group c has n=1 -> dropped
    assert out["g"].tolist() == ["a", "b"]
    # var([1,2,3,4]) = 5/3 -> floor(5e6/3); var([10,10]) = 0
    assert out["var_scaled"].tolist() == [5 * 10**6 // 3, 0]
    assert out["n"].tolist() == [4, 2]
    # Σx² = 1.8·10^19 passes int64 while the variance, 3·10^18, fits
    big = pd.DataFrame({"g": ["d"] * 4, "x": [3 * 10**9, 0, 3 * 10**9, 0]})
    out = grouped_var_exact(ray.data.from_pandas(big), ["g"], "x", scale=1)
    assert out["var_scaled"].tolist() == [3 * 10**18]


def test_grouped_cov_exact(ray_session):
    """Exact covariance/slope with TRUNCATING division: group 'b' has a
    NEGATIVE covariance, where Python's floor // would differ from the
    DuckDB-// semantics the oracle uses; group 'c' (n=1) and group 'd'
    (zero x-variance) are dropped."""
    from zeeklog_ray.relational import grouped_cov_exact

    df = pd.DataFrame({
        "g": ["a"] * 3 + ["b"] * 3 + ["c"] + ["d"] * 2,
        "x": [1, 2, 3, 1, 2, 3, 5, 7, 7],
        "y": [2, 4, 6, 6, 4, 2, 1, 1, 2]})
    out = grouped_cov_exact(ray.data.from_pandas(df), ["g"], "x", "y",
                            scale=10) \
        .sort_values("g").reset_index(drop=True)
    assert out["g"].tolist() == ["a", "b"]
    # a: cov=2, slope=2 -> scaled 20/20.  b: cov=-2, slope=-2:
    # numerator n·Σxy−Σx·Σy = 3·20−6·12 = -12; ÷ n(n−1)=6 → -2 exactly
    assert out["cov_scaled"].tolist() == [20, -20]
    assert out["slope_scaled"].tolist() == [20, -20]
    # truncation sign check: scale=3 → (-12·3)/6 = -6 exact; use an
    # inexact case via direct helper
    from zeeklog_ray.relational import _trunc_div
    assert _trunc_div(-7, 2) == -3        # DuckDB -7//2; Python floor = -4
    assert _trunc_div(7, 2) == 3


def test_grouped_cov_exact_corr2(ray_session):
    """corr2_scale emits squared Pearson r in fixed point (both perfectly
    correlated groups → exactly scale, sign-independent) and drops
    zero-y-variance groups — which survive without corr2_scale."""
    from zeeklog_ray.relational import grouped_cov_exact

    df = pd.DataFrame({
        "g": ["a"] * 3 + ["b"] * 3 + ["e"] * 2,
        "x": [1, 2, 3, 1, 2, 3, 1, 2],
        "y": [2, 4, 6, 6, 4, 2, 5, 5]})
    out = grouped_cov_exact(ray.data.from_pandas(df), ["g"], "x", "y",
                            scale=10, corr2_scale=100) \
        .sort_values("g").reset_index(drop=True)
    assert out["g"].tolist() == ["a", "b"]     # e: zero y-variance dropped
    assert out["corr2_scaled"].tolist() == [100, 100]

    no_corr = grouped_cov_exact(ray.data.from_pandas(df), ["g"], "x", "y",
                                scale=10)
    assert sorted(no_corr["g"]) == ["a", "b", "e"]
    assert "corr2_scaled" not in no_corr.columns


def test_ranks_per_key_matches_sql_semantics(ray_session):
    """RANK leaves gaps after ties, DENSE_RANK doesn't, NTILE splits the
    segment into balanced position-based tiles; tie_cols must be a prefix
    of order_cols."""
    import pytest
    from zeeklog_ray.relational import ranks_per_key

    df = pd.DataFrame({
        "k": ["a"] * 5 + ["b"] * 2,
        "v": [10, 10, 20, 20, 30, 7, 7],
        "id": [1, 2, 3, 4, 5, 6, 7]})
    out = ranks_per_key(ray.data.from_pandas([df.iloc[:3], df.iloc[3:]]),
                        "k", ["v", "id"], tie_cols=["v"], ntile=2,
                        percent_scale=100).to_pandas() \
        .sort_values("id").reset_index(drop=True)
    assert out["rnk"].tolist() == [1, 1, 3, 3, 5, 1, 1]
    assert out["drnk"].tolist() == [1, 1, 2, 2, 3, 1, 1]
    # NTILE(2) over 5 rows -> tiles of 3 and 2 by position; over 2 -> 1,1
    assert out["tile"].tolist() == [1, 1, 1, 2, 2, 1, 2]
    # percent_rank = (rnk-1)*100 // (m-1); cume = tie-group-end count *100 // m
    assert out["pr_scaled"].tolist() == [0, 0, 50, 50, 100, 0, 0]
    assert out["cume_scaled"].tolist() == [40, 40, 80, 80, 100, 100, 100]

    with pytest.raises(ValueError, match="prefix"):
        ranks_per_key(ray.data.from_pandas(df), "k", ["v", "id"],
                      tie_cols=["id"])


def test_ranks_per_key_ntile_small_segments(ray_session):
    """m < ntile: every row its own tile 1..m (the base==0 branch)."""
    from zeeklog_ray.relational import ranks_per_key

    df = pd.DataFrame({"k": ["a", "a", "b"], "id": [1, 2, 3]})
    out = ranks_per_key(ray.data.from_pandas(df), "k", ["id"], ntile=4) \
        .to_pandas().sort_values("id")
    assert out["tile"].tolist() == [1, 2, 1]
    assert out["rnk"].tolist() == [1, 2, 1]


def test_mode_per_key(ray_session):
    """Mode merges partial counts across blocks; ties pick the smallest
    value; null values are countable like SQL GROUP BY (dropna=False)."""
    from zeeklog_ray.relational import mode_per_key

    df = pd.DataFrame({
        "k": ["a"] * 5 + ["b"] * 4 + ["c"] * 2,
        "v": ["x", "y", "x", "y", "x",      # a: x=3 > y=2
              "q", "p", "q", "p",           # b: tie 2-2 -> p
              None, None]})                 # c: mode is null, count 2
    # split so a's counts straddle blocks (forces the merge path)
    ds = ray.data.from_pandas([df.iloc[:3], df.iloc[3:]])
    out = mode_per_key(ds, "k", "v").to_pandas() \
        .sort_values("k").reset_index(drop=True)
    assert out["mode_v"].tolist()[:2] == ["x", "p"]
    assert out["mode_v"].isna().tolist() == [False, False, True]
    assert out["n_mode"].tolist() == [3, 2, 2]


def test_string_agg_per_key(ray_session):
    from zeeklog_ray.relational import string_agg_per_key

    df = pd.DataFrame({"k": ["u", "u", "u", "w"],
                       "ts": [3, 1, 2, 9],
                       "id": [30, 10, 20, 90],
                       "e": ["c", "a", "b", "z"]})
    out = string_agg_per_key(
        ray.data.from_pandas([df.iloc[:2], df.iloc[2:]]), "k", "e",
        ["ts", "id"], sep=">", out="j").to_pandas() \
        .sort_values("k")
    assert out["j"].tolist() == ["a>b>c", "z"]


def test_seq_index_null_keys_numbered(ray_session):
    from zeeklog_ray.relational import seq_index_per_key

    df = pd.DataFrame({"k": [1.0, None, None, 1.0],
                       "ts": [1, 2, 3, 4],
                       "id": [10, 20, 30, 40]})
    out = seq_index_per_key(ray.data.from_pandas(df), "k", ["ts", "id"]) \
        .to_pandas()
    # null keys form ONE partition numbered 1..n (SQL ROW_NUMBER), and
    # seq stays integral
    nulls = out[out["k"].isna()].sort_values("seq")
    assert nulls["seq"].tolist() == [1, 2]
    assert not out["seq"].isna().any()


def test_grouped_sum_bucketed_matches_pandas(ray_session):
    from zeeklog_ray.relational import grouped_sum_bucketed

    rng = np.random.default_rng(5)
    df = pd.DataFrame({"k": rng.integers(0, 500, 5000),
                       "v": rng.integers(-10, 100, 5000)})
    ds = ray.data.from_pandas([df.iloc[:2500], df.iloc[2500:]])
    got = grouped_sum_bucketed(ds, ["k"], sums={"v": "s"}, count_as="c") \
        .to_pandas().sort_values("k").reset_index(drop=True)
    exp = df.groupby("k")["v"].agg(["sum", "size"]).reset_index()
    assert got["k"].tolist() == exp["k"].tolist()
    assert got["s"].tolist() == exp["sum"].tolist()
    assert got["c"].tolist() == exp["size"].tolist()


def test_melt_inverts_pivot(ray_session):
    from zeeklog_ray.relational import melt

    df = pd.DataFrame({"id": [1, 2], "a": [10, 30], "b": [20, 40]})
    out = melt(ray.data.from_pandas(df), ["id"], ["a", "b"]).to_pandas() \
        .sort_values(["id", "variable"]).reset_index(drop=True)
    assert len(out) == 4
    assert out["value"].tolist() == [10, 20, 30, 40]
    assert out["variable"].tolist() == ["a", "b", "a", "b"]


def test_partitioned_write_prune_roundtrip(ray_session, tmp_path):
    from zeeklog_ray.partitioned import read_partition, write_partitioned

    df = pd.DataFrame({"t": ["a", "b", "a", "c"] * 50,
                       "v": np.arange(200, dtype="int64")})
    root = str(tmp_path / "part")
    write_partitioned(ray.data.from_pandas(df), root, ["t"])
    back = read_partition(root, "t", "a").to_pandas()
    exp = df[df["t"] == "a"]
    assert len(back) == len(exp)
    assert sorted(back["v"]) == sorted(exp["v"])
    assert (back["t"] == "a").all()   # hive scheme restores the column


@pytest.mark.parametrize("nb", [1, 16])
def test_cap_per_key_matches_pandas_replay(ray_session, in_blocks, nb):
    from zeeklog_ray.relational import CAP_SALT, _mix64, cap_per_key

    rng = np.random.default_rng(3)
    df = pd.DataFrame({"k": rng.integers(0, 5, 300),
                       "id": np.arange(300, dtype=np.int64),
                       "v": rng.integers(0, 9, 300)})
    out = cap_per_key(in_blocks(df, nb), "k", 4, "id").to_pandas()

    h = _mix64(df["id"].to_numpy(np.uint64)
               + np.uint64(CAP_SALT % (1 << 64)))
    exp = df.assign(_h=h).sort_values(["_h", "id"]) \
        .groupby("k", sort=False).head(4)
    assert sorted(out["id"]) == sorted(exp["id"])
    assert (out.groupby("k").size() <= 4).all()
    assert list(out.columns) == ["k", "id", "v"]          # _h/_bucket gone


def test_cap_per_key_edges(ray_session):
    from zeeklog_ray.relational import cap_per_key

    df = pd.DataFrame({"k": ["a"] * 3 + ["b"],
                       "id": np.arange(4, dtype=np.int64)})
    ds = ray.data.from_pandas(df)
    # n >= every group size keeps all rows
    assert cap_per_key(ds, "k", 10, "id").count() == 4
    # under-n keys keep all their rows
    out = cap_per_key(ds, "k", 2, "id").to_pandas()
    assert (out["k"] == "b").sum() == 1
    with pytest.raises(ValueError):
        cap_per_key(ds, "k", 0, "id")
    with pytest.raises(Exception):      # float ids refused (TypeError in task)
        cap_per_key(ray.data.from_pandas(
            pd.DataFrame({"k": ["a"], "id": [1.5]})), "k", 1, "id").count()


def test_cap_per_key_partition_independent(ray_session):
    """Same winners regardless of block layout — the reproducibility
    contract a training-data cap needs."""
    from zeeklog_ray.relational import cap_per_key

    rng = np.random.default_rng(9)
    df = pd.DataFrame({"k": rng.integers(0, 7, 200),
                       "id": rng.permutation(200).astype(np.int64)})
    one = cap_per_key(ray.data.from_pandas(df), "k", 3, "id").to_pandas()
    many = cap_per_key(ray.data.from_pandas(
        [df.iloc[i:i + 20] for i in range(0, 200, 20)]),
        "k", 3, "id").to_pandas()
    assert sorted(one["id"]) == sorted(many["id"])


def test_hash_join_map_produced_empty_side(ray_session):
    """A multi-key join side produced by a map stage that filtered out
    every row joins to nothing (it once crashed on a null-typed key)."""
    from zeeklog_ray.relational import bucketed_equi_join

    ev = ray.data.from_pandas(pd.DataFrame({"w1": [1], "w2": [9]}))
    empty = ev.map_batches(lambda df: df[df["w1"] < 0],
                           batch_format="pandas", batch_size=None)
    right = ray.data.from_pandas(pd.DataFrame({"src": [1, 2],
                                               "dst": [2, 3]}))
    j = bucketed_equi_join(empty, right, on=["w1", "w2"],
                           right_on=["src", "dst"])
    assert j.count() == 0

    # a map over an all-empty input loses its schema (schema() is None):
    # nothing to match, so inner is empty and left keeps the left rows
    gone = ev.filter(lambda r: r["w1"] < 0).map_batches(
        lambda df: df, batch_format="pandas", batch_size=None)
    assert gone.schema() is None
    assert bucketed_equi_join(ev, gone, on="w1").count() == 0
    assert bucketed_equi_join(gone, ev, on="w1").count() == 0
    kept = bucketed_equi_join(ev, gone, on="w1", how="left").to_pandas()
    assert kept.to_dict("list") == {"w1": [1], "w2": [9]}


def test_bucketed_equi_join(ray_session):
    """Single- and multi-key join via tagged union + bucket shuffle:
    matches pandas merge, preserves int64 exactness above 2^53 through
    the null-filled union, rejects column collisions; inner/left/full
    follow SQL null rules."""
    import pytest

    from zeeklog_ray.relational import bucketed_equi_join

    big = 2**53 + 1
    left = pd.DataFrame({"k": [1, 2, 2, 3], "x": [big, 20, 30, 40]})
    right = pd.DataFrame({"node": [2, 3, 9], "y": [200, 300, 900]})
    out = bucketed_equi_join(ray.data.from_pandas(left).repartition(3),
                             ray.data.from_pandas(right),
                             on="k", right_on="node").to_pandas()
    exp = left.merge(right.rename(columns={"node": "k"}), on="k")
    assert sorted(out["x"].tolist()) == sorted(exp["x"].tolist())
    assert out["x"].dtype == np.int64 and big not in out["x"].values

    # multi-key
    l2 = pd.DataFrame({"a": [1, 1, 2], "b": [5, 6, 5], "v": [10, 11, 12]})
    r2 = pd.DataFrame({"p": [1, 2, 2], "q": [5, 5, 7], "w": [100, 200, 300]})
    out2 = bucketed_equi_join(ray.data.from_pandas(l2),
                              ray.data.from_pandas(r2),
                              on=["a", "b"], right_on=["p", "q"]).to_pandas()
    assert sorted(zip(out2["v"], out2["w"])) == [(10, 100), (12, 200)]

    with pytest.raises(ValueError, match="collide"):
        bucketed_equi_join(ray.data.from_pandas(l2),
                           ray.data.from_pandas(l2), on="a")

    # how sweep against a nested-loop SQL reference: 2-column key, null
    # keys on both sides, 2^53+1 in columns the outer joins null-extend,
    # and 64 buckets for 8 keys, so most buckets hold one side only
    ls = pd.DataFrame({"a": pd.array([1, 1, 2, None, 3, 4, 1], "Int64"),
                       "b": ["p", "q", "p", "p", None, "r", "p"],
                       "x": [big, 11, 12, 13, 14, 15, 16]})
    rs = pd.DataFrame({"p": pd.array([1, 2, None, 3, 5, 1], "Int64"),
                       "q": ["p", "p", "p", None, "s", "p"],
                       "y": [200, big, 202, 203, 204, 205]})

    def sql_join(how):
        rows, r_hit = [], set()
        for lrow in ls.itertuples(index=False):
            hits = [j for j, rrow in enumerate(rs.itertuples(index=False))
                    if not pd.isna([lrow.a, lrow.b, rrow.p, rrow.q]).any()
                    and (lrow.a, lrow.b) == (rrow.p, rrow.q)]
            r_hit.update(hits)
            rows += [(lrow.a, lrow.b, lrow.x, rs.y[j]) for j in hits]
            if not hits and how != "inner":
                rows.append((lrow.a, lrow.b, lrow.x, None))
        if how == "full":
            rows += [(r.p, r.q, None, r.y) for j, r in
                     enumerate(rs.itertuples(index=False)) if j not in r_hit]
        return rows

    def as_rows(df):
        return sorted((tuple(None if pd.isna(v) else v for v in row)
                       for row in df[["a", "b", "x", "y"]]
                       .itertuples(index=False)), key=repr)

    for how in ("inner", "left", "full"):
        got = bucketed_equi_join(
            ray.data.from_arrow(pa.Table.from_pandas(ls)).repartition(3),
            ray.data.from_arrow(pa.Table.from_pandas(rs)).repartition(2),
            on=["a", "b"], right_on=["p", "q"],
            how=how).to_pandas()
        assert as_rows(got) == sorted(
            (tuple(None if pd.isna(v) else v for v in row)
             for row in sql_join(how)), key=repr), how
        # null-extended integers stay exact nullable Int64, never float64
        nulled = {"inner": [], "left": ["y"], "full": ["x", "y"]}[how]
        for c in nulled:
            assert str(got[c].dtype) == "Int64", (how, c)
        assert (got["y"] == big).sum() == 1, how
    with pytest.raises(ValueError, match="how"):
        bucketed_equi_join(ray.data.from_pandas(l2),
                           ray.data.from_pandas(r2), on=["a", "b"],
                           right_on=["p", "q"], how="right")


def test_bucketed_equi_join_key_dtype_guards(ray_session):
    """Mismatched key dtypes would silently hash the same value into
    different buckets — the join must raise, not drop rows; int keys of
    different widths harmonize; reserved internal names are rejected."""
    import pytest

    from zeeklog_ray.relational import bucketed_equi_join

    fl = ray.data.from_pandas(pd.DataFrame({"k": [1.0, 2.0], "x": [1, 2]}))
    it = ray.data.from_pandas(pd.DataFrame({"node": [1, 2], "y": [10, 20]}))
    with pytest.raises(ValueError, match="hash to different buckets"):
        bucketed_equi_join(fl, it, on="k", right_on="node").to_pandas()

    # int32 vs int64 keys harmonize to the wider dtype and still match
    l32 = pd.DataFrame({"k": np.array([1, 2], dtype="int32"),
                        "x": [10, 20]})
    out = bucketed_equi_join(ray.data.from_pandas(l32), it,
                             on="k", right_on="node").to_pandas()
    assert sorted(zip(out["x"], out["y"])) == [(10, 10), (20, 20)]

    # an Arrow int key that holds nulls on the renamed side is still int
    # (a pandas batch of it is float64) and matches
    from zeeklog_ray.relational import bucketed_semi_anti_join

    nulled = ray.data.from_arrow(pa.table({
        "node": pa.array([1, None], pa.int64()), "y": [10, 30]}))
    out = bucketed_equi_join(ray.data.from_pandas(l32), nulled, on="k",
                             right_on="node").to_pandas()
    assert out[["x", "y"]].values.tolist() == [[10, 10]]
    semi = bucketed_semi_anti_join(ray.data.from_pandas(l32), nulled,
                                   on="k", right_on="node").to_pandas()
    assert semi["x"].tolist() == [10]

    bad = ray.data.from_pandas(pd.DataFrame({"k": [1], "_side": ["z"]}))
    with pytest.raises(ValueError, match="reserved"):
        bucketed_equi_join(bad, it, on="k", right_on="node")
    with pytest.raises(ValueError, match="not present"):
        bucketed_equi_join(fl, it, on="nope", right_on="node")


@pytest.mark.parametrize("join", ["equi", "semi", "set_op", "asof", "range"])
def test_two_sided_key_dtype_guard(ray_session, join):
    """Every two-sided operator applies cogroup's one key rule: an int64
    key on one side and a float64 key holding the same values on the
    other would hash into different buckets and silently match nothing,
    so each of them raises instead."""
    from zeeklog_ray.ops.sessionize import asof_join, range_join
    from zeeklog_ray.relational import (bucketed_equi_join,
                                        bucketed_semi_anti_join, set_op)

    t = pd.to_datetime(["2024-01-01 10:00", "2024-01-01 11:00"])
    left = ray.data.from_pandas(pd.DataFrame({"k": [1, 2], "ts": t,
                                              "x": [10, 20]}))
    right = ray.data.from_pandas(pd.DataFrame({"k": [1.0, 2.0], "ts": t,
                                               "t0": t, "t1": t}))
    run = {
        "equi": lambda: bucketed_equi_join(
            left, right.select_columns(["k", "t0"]), on="k"),
        "semi": lambda: bucketed_semi_anti_join(left, right, on="k"),
        "set_op": lambda: set_op(left, right, ["k"], "intersect"),
        "asof": lambda: asof_join(left, right, key="k", ts="ts",
                                  right_cols=["t1"]),
        "range": lambda: range_join(left, right, key="k", ts="ts",
                                    start="t0", end="t1"),
    }[join]
    with pytest.raises(ValueError, match="hash to different buckets"):
        run().to_pandas()


def test_cogroup_frames_hold_each_sides_own_columns(ray_session):
    """fn gets one frame per side with only that side's columns and
    dtypes: no side or bucket column, int keys widened to the wider
    width, an int64 id that only one side has exact above 2^53; the
    reserved names are rejected on every side."""
    from zeeklog_ray.relational import cogroup

    big = 2**53 + 1
    a = pd.DataFrame({"k": np.array([1, 2], dtype="int32"), "x": [big, 5]})
    b = pd.DataFrame({"k": np.array([2, 3], dtype="int64"), "s": ["p", "q"]})

    def fn(frames: list) -> pd.DataFrame:
        return pd.DataFrame({
            "shape": [repr([(list(f.columns), f.dtypes.astype(str).tolist())
                            for f in frames])],
            "rows": [sum(len(f) for f in frames)],
            "xs": [" ".join(map(str, frames[0]["x"]))]})

    out = cogroup([ray.data.from_pandas(a), ray.data.from_pandas(b)], "k",
                  fn).to_pandas()
    assert set(out["shape"]) == {repr([(["k", "x"], ["int64", "int64"]),
                                       (["k", "s"], ["int64", "object"])])}
    assert out["rows"].sum() == 4
    assert sorted(int(x) for xs in out["xs"] for x in xs.split()) == [5, big]

    bad = ray.data.from_pandas(pd.DataFrame({"k": [1], "_bucket": [0]}))
    with pytest.raises(ValueError, match="reserved"):
        cogroup([ray.data.from_pandas(a), bad], "k", fn)


def test_user_retention_cohorts_handmade(ray_session):
    """Three users across two cohort weeks with returns and a gap week:
    counts match the hand computation (distinct users, not events)."""
    from zeeklog_ray.queries import user_retention_cohorts

    base = pd.Timestamp("2024-01-01")   # epoch day 19723 -> week 2817
    rows = [
        # u1: cohort week W, active W and W+2 (twice -> still 1 user)
        (1, base), (1, base + pd.Timedelta(days=14)),
        (1, base + pd.Timedelta(days=15)),
        # u2: cohort week W, only W
        (2, base + pd.Timedelta(days=1)),
        # u3: cohort week W+1, active W+1 and W+2
        (3, base + pd.Timedelta(days=7)),
        (3, base + pd.Timedelta(days=14)),
    ]
    df = pd.DataFrame(rows, columns=["user_id", "ts"])
    import tempfile

    with tempfile.TemporaryDirectory() as td:
        df.to_parquet(f"{td}/events.parquet")
        out = user_retention_cohorts(td).to_pandas() \
            .set_index(["cohort_week", "week_offset"])["n_users"]
    w = int(pd.Timestamp("2024-01-01").to_datetime64()
            .astype("datetime64[D]").astype("int64")) // 7
    assert out.loc[(w, 0)] == 2          # u1, u2
    assert out.loc[(w, 2)] == 1          # u1 (two events, one user)
    assert out.loc[(w + 1, 0)] == 1      # u3
    assert out.loc[(w + 1, 1)] == 1      # u3 return
    assert (w, 1) not in out.index       # gap week absent


def test_key_skew_profile(ray_session):
    import pytest

    from zeeklog_ray.relational import key_skew_profile

    df = pd.DataFrame({"k": ["a"] * 6 + ["b"] * 3 + ["c"] * 1})
    out = key_skew_profile(ray.data.from_pandas(df).repartition(3), "k")
    assert out["n_rows"].iloc[0] == 10
    assert out["n_keys"].iloc[0] == 3
    assert out["max_key_rows"].iloc[0] == 6
    assert out["max_share_ppm"].iloc[0] == 600_000
    # counts sorted [1, 3, 6]: p50 -> ceil(0.5*3)-1 = idx 1 -> 3; p99 -> 6
    assert out["p50_key_rows"].iloc[0] == 3
    assert out["p99_key_rows"].iloc[0] == 6

    with pytest.raises(ValueError, match="empty input"):
        key_skew_profile(
            ray.data.from_pandas(df).filter(lambda r: False), "k")


def test_global_rank_matches_pandas(ray_session):
    """Range-partitioned global ROW_NUMBER equals the pandas reference,
    including heavy ties across sampled boundaries; nulls rejected."""
    import pytest

    from zeeklog_ray.relational import global_rank

    rng = np.random.default_rng(5)
    df = pd.DataFrame({"id": np.arange(5000, dtype="int64"),
                       "v": rng.integers(0, 50, 5000)})   # heavy ties
    out = global_rank(ray.data.from_pandas(df).repartition(8),
                      by="v", tie="id", num_buckets=16).to_pandas()
    exp = df.sort_values(["v", "id"]).reset_index(drop=True)
    exp["rank"] = np.arange(1, len(exp) + 1)
    got = out.sort_values("rank").reset_index(drop=True)
    assert got["id"].tolist() == exp["id"].tolist()
    assert got["rank"].tolist() == exp["rank"].tolist()

    bad = pd.DataFrame({"id": [1, 2], "v": pd.array([1, None],
                                                    dtype="Int64")})
    with pytest.raises(Exception, match="null values in sort key"):
        global_rank(ray.data.from_pandas(bad), by="v",
                    tie="id").to_pandas()


def test_retention_cohorts_null_users_dropped(ray_session):
    """Null user ids match nothing (the SQL replay's inner join): they
    contribute no cohort rows and the week columns stay integer."""
    from zeeklog_ray.relational import retention_cohorts

    df = pd.DataFrame({
        "user_id": pd.array([1, 1, None], dtype="Int64"),
        "ts": pd.to_datetime(["2024-01-01", "2024-01-08", "2024-01-01"])})
    out = retention_cohorts(ray.data.from_pandas(df)).to_pandas()
    assert int(out["n_users"].sum()) == 2          # u1's two weeks only
    assert str(out["cohort_week"].dtype) in ("int64", "Int64")


def test_docs_dup_rate_by_source_planted(ray_session):
    """Planted duplicates: rates match the hand computation."""
    import tempfile

    from zeeklog_ray.queries import docs_dup_rate_by_source

    df = pd.DataFrame({
        "source": ["a"] * 4 + ["b"] * 2,
        "text": ["x", "x", "x", "y", "z", "w"],
    })
    with tempfile.TemporaryDirectory() as td:
        df.to_parquet(f"{td}/documents.parquet")
        out = docs_dup_rate_by_source(td).to_pandas().set_index("source")
    assert out.loc["a", "n_docs"] == 4 and out.loc["a", "n_distinct"] == 2
    assert out.loc["a", "dup_rate_ppm"] == 500_000    # 2 of 4 are dups
    assert out.loc["b", "dup_rate_ppm"] == 0


def test_bucketed_semi_anti_join():
    from zeeklog_ray.relational import bucketed_semi_anti_join

    l = ray.data.from_pandas(pd.DataFrame(
        {"k": [1, 2, 3, 3, None, 5], "x": [10, 20, 30, 31, 40, 50]}))
    # right has dup keys and an irrelevant payload column — neither may
    # fan out or leak into the output
    r = ray.data.from_pandas(pd.DataFrame(
        {"kk": [2, 3, 3, 7, None], "y": ["a", "b", "c", "d", "e"]}))
    semi = bucketed_semi_anti_join(l, r, on="k", right_on="kk").to_pandas()
    assert sorted(semi["x"]) == [20, 30, 31]
    assert list(semi.columns) == ["k", "x"]
    anti = bucketed_semi_anti_join(l, r, on="k", right_on="kk",
                                   anti=True).to_pandas()
    # NOT-EXISTS semantics: the null-key left row survives the anti join
    assert sorted(anti["x"]) == [10, 40, 50]


def test_bucketed_semi_anti_join_multicol_and_dtype_guard():
    from zeeklog_ray.relational import bucketed_semi_anti_join

    l = ray.data.from_pandas(pd.DataFrame(
        {"a": [1, 1, 2], "b": ["x", "y", "x"], "v": [1, 2, 3]}))
    r = ray.data.from_pandas(pd.DataFrame({"a": [1, 2], "b": ["y", "z"]}))
    semi = bucketed_semi_anti_join(l, r, on=["a", "b"]).to_pandas()
    assert semi["v"].tolist() == [2]
    bad = ray.data.from_pandas(pd.DataFrame({"a": [1.0], "b": ["y"]}))
    with pytest.raises(ValueError, match="integer on one side"):
        bucketed_semi_anti_join(l, bad, on=["a", "b"])
