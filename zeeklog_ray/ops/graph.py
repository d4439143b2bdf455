"""Connected components over a pair table — dedup-group resolution.

Near-dup candidate pairs (MinHash/LSH, embedding-cosine) form a graph whose
connected components are the duplicate GROUPS; the canonical doc per group is
its minimum id.  The distributed algorithm is iterative min-label
propagation (the guide's pattern): every node starts labeled with itself;
each round, every edge endpoint adopts the minimum label seen across the
edge; a per-node grouped min merges; convergence when the label sum stops
changing (it decreases monotonically).  O(diameter) rounds — near-dup
clusters are shallow (usually ≤3).

Each round is two bucketed equi-joins + one grouped min over (node, label)
pairs — signatures-sized data, never documents.  The grouped min is BUCKETED
(:func:`zeeklog_ray.relational.bucketed_group_min`): a plain
``groupby(node).aggregate(Min)`` pays Ray's per-group Python per NODE
(~0.19 ms/group measured) and this loop pays it once per round — at 10M
nodes that is ~30 min × diameter; bucketed it is one C-level pandas
``groupby.min`` per bucket.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data
from ray.data.aggregate import Sum

from zeeklog_ray.aggregate import coalesce_partials
from zeeklog_ray.relational import (
    bucketed_equi_join,
    bucketed_group_min,
    fits_in_heap,
)


def _blocks_from_pandas(out: pd.DataFrame,
                        chunk: int = 1_000_000) -> "ray.data.Dataset":
    """Driver DataFrame → Dataset in ~1M-row blocks: a single 10M+-row
    from_pandas block would serialize the first downstream map stage
    onto one worker."""
    frames = [out.iloc[i:i + chunk].reset_index(drop=True)
              for i in range(0, len(out), chunk)] or [out]
    return ray.data.from_pandas(frames)


def _driver_union_find(edges: pd.DataFrame) -> "ray.data.Dataset":
    """Driver-side components via VECTORIZED min-label propagation with
    pointer jumping — each round is O(E+V) in numpy (np.minimum.at over
    both edge directions, then label-chain compression), converging in
    O(log diameter) rounds, vs the old per-edge Python union-find loop
    (~1 µs/edge: 5M edges ≈ 5 s of pure interpreter).  Labels are dense
    node INDICES; np.unique returns nodes sorted, so index order == id
    order and the min-index label IS the min-id component canonical."""
    a = edges["a"].to_numpy()
    b = edges["b"].to_numpy()
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    ia, ib = inv[:len(a)], inv[len(a):]
    labels = np.arange(len(nodes))
    while True:
        new = labels.copy()
        np.minimum.at(new, ia, labels[ib])
        np.minimum.at(new, ib, labels[ia])
        new = np.minimum(new, new[new])     # pointer jump (halves chains)
        if np.array_equal(new, labels):
            break
        labels = new
    return _blocks_from_pandas(
        pd.DataFrame({"node": nodes, "component": nodes[labels]}))


def connected_components(pairs: "ray.data.Dataset", max_rounds: int = 30,
                         a_col: str = "doc_a", b_col: str = "doc_b"
                         ) -> "ray.data.Dataset":
    """Labels (node, component) for every node appearing in ``pairs``.

    ``component`` is the minimum node id of the node's connected component.
    """
    edges = pairs.map_batches(
        lambda df: pd.DataFrame({"a": df[a_col], "b": df[b_col]}),
        batch_format="pandas", batch_size=None).materialize()

    # Candidate sets whose (a, b) int64 edge frame fits the heap budget
    # (16 B/edge, ~16M edges) resolve on the driver — the vectorized
    # min-label propagation in _driver_union_find is O(E+V) numpy per
    # round (~1 s/round at 10M edges), far under the cost of even ONE
    # distributed round (2 bucketed joins + a bucketed min).  The
    # distributed loop below is the genuine beyond-driver tier; after
    # LSH blocking the pair set is edge-sparse by construction, so the
    # driver tier covers ~10^9-doc corpora.
    if fits_in_heap(edges.count() * 16):
        return _driver_union_find(edges.to_pandas())

    def init_labels(df: pd.DataFrame) -> pd.DataFrame:
        nodes = pd.concat([df["a"], df["b"]]).unique()
        return pd.DataFrame({"node": nodes, "label": nodes})

    labels = bucketed_group_min(
        coalesce_partials(
            edges.map_batches(init_labels, batch_format="pandas",
                              batch_size=None)),
        "node", "label").materialize()

    def checksum(lab) -> int:
        return int(lab.aggregate(Sum("label", alias_name="s"))["s"])

    prev = checksum(labels)
    for _ in range(max_rounds):
        # propagate: label(b) candidate ← label(a) over each edge, and vice
        # versa; then node-wise min with current labels
        la = bucketed_equi_join(edges, labels, on="a", right_on="node") \
            .map_batches(lambda df: pd.DataFrame({"node": df["b"],
                                                  "label": df["label"]}),
                         batch_format="pandas", batch_size=None)
        lb = bucketed_equi_join(edges, labels, on="b", right_on="node") \
            .map_batches(lambda df: pd.DataFrame({"node": df["a"],
                                                  "label": df["label"]}),
                         batch_format="pandas", batch_size=None)
        merged = bucketed_group_min(
            coalesce_partials(labels.union(la).union(lb)),
            "node", "label").materialize()
        cur = checksum(merged)
        labels = merged
        if cur == prev:
            break
        prev = cur
    else:
        raise RuntimeError(
            f"connected_components did not converge in {max_rounds} rounds "
            "(component diameter exceeds max_rounds); raise max_rounds")
    return labels.map_batches(
        lambda df: df.rename(columns={"label": "component"}),
        batch_format="pandas", batch_size=None)


def canonical_per_component(components: "ray.data.Dataset",
                            meta: "ray.data.Dataset",
                            meta_key: str = "doc_id",
                            score_col: str = "n_chars") -> "ray.data.Dataset":
    """Quality-aware canonical selection: for each duplicate component,
    keep the member with the highest ``score_col`` (ties → smallest
    node id) — the dedup policy a training pipeline actually wants
    (keep the best copy, not the arbitrary min-id one).

    Shape: one bucketed equi-join attaches each member's score
    (components ⋈ meta on node id — both sides shuffle only (id, score)
    columns), then a component-hash-bucketed groupby picks the winner
    with ONE C-level sort + drop_duplicates per bucket (the repo's standard
    escape from Ray's per-group Python).  Output: one row per
    component — ``(component, canonical, canonical_score, n_members)``.
    """
    from zeeklog_ray.relational import bucket_exchange, to_pandas

    scored = bucketed_equi_join(
        components, meta.select_columns([meta_key, score_col]),
        on="node", right_on=meta_key)

    def per_bucket(group: pa.Table) -> pd.DataFrame:
        g = to_pandas(group).sort_values(["component", score_col, "node"],
                                         ascending=[True, False, True],
                                         kind="mergesort")
        sizes = g.groupby("component", sort=False).size()
        win = g.drop_duplicates("component", keep="first")
        return pd.DataFrame({
            "component": win["component"].to_numpy(),
            "canonical": win["node"].to_numpy(),
            "canonical_score": win[score_col].to_numpy(),
            "n_members": sizes.loc[win["component"]].to_numpy()
            .astype("int64"),
        })

    return bucket_exchange(scored, "component", per_bucket)


def node_degrees(pairs: "ray.data.Dataset", a_col: str = "doc_a",
                 b_col: str = "doc_b") -> "ray.data.Dataset":
    """Per-node degree of the undirected pair graph — the first skew
    question to ask of any candidate-pair table (a hub node is exactly
    what makes the downstream joins lopsided).  Assumes ``pairs`` holds
    unique undirected edges (the contract of every pair producer here);
    endpoints explode row-locally, then one entity-shaped bucketed count
    (``grouped_sum_bucketed``) — only (node, partial-count) rows shuffle.

    Output: ``(node, degree)``, one row per node with degree ≥ 1."""
    from zeeklog_ray.relational import grouped_sum_bucketed

    ends = pairs.map_batches(
        lambda df: pd.DataFrame({
            "node": pd.concat([df[a_col], df[b_col]], ignore_index=True)}),
        batch_format="pandas", batch_size=None)
    return grouped_sum_bucketed(ends, ["node"], count_as="degree")


def triangle_count(pairs: "ray.data.Dataset", a_col: str = "doc_a",
                   b_col: str = "doc_b") -> int:
    """Exact triangle count of the undirected pair graph — the standard
    cluster-density / community-structure metric over a near-dup or
    co-occurrence edge list.

    Degree-orientation algorithm (the MapReduce-classic): orient every
    edge from its (degree, id)-smaller endpoint to the larger, so each
    node's out-degree is O(√m) and total wedge work is O(m^1.5)
    regardless of hub skew; generate wedges per source with a bucketed
    self-merge; count the wedges closed by a directed edge with a
    multi-key bucketed equi-join.  Every triangle is counted exactly
    once (its rank-minimal vertex owns the wedge).

    Degree attachment is TIERED like connected_components: while the
    sorted (node, degree) int64 arrays (16 B/node) pass
    :func:`zeeklog_ray.relational.fits_in_heap` they broadcast once via
    ``ray.put`` (orientation becomes a row-local searchsorted — two
    joins saved); above it, two bucketed equi-joins.

    Self-loops are dropped and duplicate/reversed edges deduped
    defensively.  Only (src, dst, deg) triples ever shuffle."""
    import ray as _ray

    from zeeklog_ray.relational import (bucket_exchange, bucketed_distinct,
                                        to_pandas)

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        a, b = df[a_col].to_numpy(), df[b_col].to_numpy()
        u, v = np.minimum(a, b), np.maximum(a, b)
        out = pd.DataFrame({"u": u, "v": v})
        return out[out["u"] != out["v"]]

    edges = bucketed_distinct(pairs.map_batches(
        canon, batch_format="pandas", batch_size=None),
        ["u", "v"]).materialize()
    if edges.count() == 0:
        return 0

    # deg and directed both feed two consumers: materialize, or the
    # whole upstream chain re-executes per consumer (measured 81 s → 35 s
    # at 2M edges; the broadcast tier below takes it to ~15 s)
    deg = node_degrees(edges, a_col="u", b_col="v").materialize()

    def orient(df: pd.DataFrame) -> pd.DataFrame:
        # direct from (deg, id)-smaller to larger; carry dst's rank key
        fwd = (df["du"] < df["dv"]) | ((df["du"] == df["dv"])
                                       & (df["u"] < df["v"]))
        src = np.where(fwd, df["u"], df["v"])
        dst = np.where(fwd, df["v"], df["u"])
        dst_deg = np.where(fwd, df["dv"], df["du"])
        return pd.DataFrame({"src": src, "dst": dst, "dst_deg": dst_deg})

    if fits_in_heap(deg.count() * 16):
        dpd = deg.to_pandas().sort_values("node")
        dref = _ray.put((dpd["node"].to_numpy(), dpd["degree"].to_numpy()))

        def attach_and_orient(df: pd.DataFrame) -> pd.DataFrame:
            nodes, degs = _ray.get(dref)
            df = df.copy()
            df["du"] = degs[np.searchsorted(nodes, df["u"].to_numpy())]
            df["dv"] = degs[np.searchsorted(nodes, df["v"].to_numpy())]
            return orient(df)

        directed = edges.map_batches(attach_and_orient,
                                     batch_format="pandas",
                                     batch_size=None).materialize()
    else:
        du = bucketed_equi_join(edges, deg, on="u",
                                right_on="node").map_batches(
            lambda df: df.rename(columns={"degree": "du"}),
            batch_format="pandas", batch_size=None)
        dboth = bucketed_equi_join(du, deg, on="v",
                                   right_on="node").map_batches(
            lambda df: df.rename(columns={"degree": "dv"}),
            batch_format="pandas", batch_size=None)
        directed = dboth.map_batches(orient, batch_format="pandas",
                                     batch_size=None).materialize()

    def wedges(group: pa.Table) -> pd.DataFrame:
        group = to_pandas(group)
        m = group.merge(group, on="src")
        keep = (m["dst_deg_x"] < m["dst_deg_y"]) | \
            ((m["dst_deg_x"] == m["dst_deg_y"]) & (m["dst_x"] < m["dst_y"]))
        out = m.loc[keep, ["dst_x", "dst_y"]]
        return pd.DataFrame({"w1": out["dst_x"].to_numpy(),
                             "w2": out["dst_y"].to_numpy()})

    wedge_ds = bucket_exchange(directed, "src", wedges) \
        .materialize()
    if wedge_ds.count() == 0:       # no node has out-degree ≥ 2
        return 0
    closed = bucketed_equi_join(
        wedge_ds, directed.select_columns(["src", "dst"]),
        on=["w1", "w2"], right_on=["src", "dst"])
    return closed.count()


def pagerank(pairs: "ray.data.Dataset", damping: float = 0.85,
             n_iters: int = 20, tol: float = 1e-9,
             a_col: str = "doc_a", b_col: str = "doc_b") -> "ray.data.Dataset":
    """PageRank over the undirected pair graph (edges symmetrized) —
    the centrality ranking for hub detection in candidate-pair /
    citation / co-occurrence graphs.  Returns ``(node, rank_e9)`` with
    the rank floored at 1e-9 fixed point (ranks sum to ~1).

    Tiered like :func:`connected_components`, gated on the edge count
    (already known after the materialize — no node-distinct shuffle for
    the common driver-sized case):

    * the symmetrized (src, dst) int64 index arrays (2·edges entries
      each, 32 B/edge) pass :func:`zeeklog_ray.relational.fits_in_heap`:
      vectorized power iteration on the driver — dense indices via one
      ``np.unique(return_inverse)``, one ``np.add.at`` scatter per
      round, early stop on L1 change < ``tol``.  Symmetrized node sets
      have no dangling nodes (every node sits on an edge), so there is
      no dangling-mass term in either tier.
    * above it: each round is one broadcast-free distributed pass — the
      (node, rank) dataset joins the edge list bucketed by source and
      the per-target contributions sum entity-shaped.  ``tol`` is
      honored with the SAME L1 early-stop rule as the driver tier (one
      extra bucketed join of (node, float) pairs per round — negligible
      next to the edge join).  ≤ O(n_iters) shuffles of (node, float)
      pairs; edge bodies never move after the first materialize.

    Duplicate / reversed-duplicate input pairs are deduped defensively
    (like :func:`triangle_count`) — otherwise a doubled edge silently
    skews the out-degree weighting.  The pytest gate compares the
    driver tier against an independent dense-matrix reference and the
    distributed tier against the driver tier on the same graph."""
    from zeeklog_ray.relational import bucketed_distinct

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        a, b = df[a_col].to_numpy(), df[b_col].to_numpy()
        u, v = np.minimum(a, b), np.maximum(a, b)
        out = pd.DataFrame({"a": u, "b": v})
        return out[out["a"] != out["b"]]

    edges = bucketed_distinct(
        pairs.map_batches(canon, batch_format="pandas", batch_size=None),
        ["a", "b"]).materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return ray.data.from_pandas(pd.DataFrame(
            {"node": pd.array([], dtype="int64"),
             "rank_e9": pd.array([], dtype="int64")}))

    if fits_in_heap(n_edges * 32):
        ep = edges.to_pandas()
        a, b = ep["a"].to_numpy(), ep["b"].to_numpy()
        nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
        n_nodes = len(nodes)
        ia, ib = inv[:len(a)], inv[len(a):]
        src = np.concatenate([ia, ib])
        dst = np.concatenate([ib, ia])
        outdeg = np.bincount(src, minlength=n_nodes).astype(np.float64)
        r = np.full(n_nodes, 1.0 / n_nodes)
        for _ in range(n_iters):
            contrib = np.zeros(n_nodes)
            np.add.at(contrib, dst, r[src] / outdeg[src])
            new = (1 - damping) / n_nodes + damping * contrib
            if np.abs(new - r).sum() < tol:
                r = new
                break
            r = new
        return _blocks_from_pandas(pd.DataFrame(
            {"node": nodes,
             "rank_e9": np.floor(r * 1e9).astype(np.int64)}))

    # ---- distributed tier ------------------------------------------------
    from zeeklog_ray.relational import (
        bucketed_equi_join,
        grouped_sum_bucketed,
    )

    ends = edges.map_batches(
        lambda df: pd.DataFrame({"node": pd.concat([df["a"], df["b"]],
                                                   ignore_index=True)}),
        batch_format="pandas", batch_size=None)
    nodes_ds = bucketed_distinct(ends, ["node"]).materialize()
    n_nodes = nodes_ds.count()

    # symmetrized edge list with per-source out-degree attached once
    sym = edges.map_batches(
        lambda df: pd.DataFrame({
            "src": pd.concat([df["a"], df["b"]], ignore_index=True),
            "dst": pd.concat([df["b"], df["a"]], ignore_index=True)}),
        batch_format="pandas", batch_size=None)
    deg = grouped_sum_bucketed(
        sym.map_batches(lambda df: pd.DataFrame({"node": df["src"]}),
                        batch_format="pandas", batch_size=None),
        ["node"], count_as="outdeg")
    sym = bucketed_equi_join(sym, deg, on="src", right_on="node").materialize()

    ranks = nodes_ds.map_batches(
        lambda df: df.assign(r=1.0 / n_nodes),
        batch_format="pandas", batch_size=None).materialize()
    for _ in range(n_iters):
        contrib = grouped_sum_bucketed(
            bucketed_equi_join(sym, ranks, on="src", right_on="node")
            .map_batches(lambda df: pd.DataFrame(
                {"node": df["dst"], "c": df["r"] / df["outdeg"]}),
                batch_format="pandas", batch_size=None),
            ["node"], sums={"c": "c"})
        base = (1 - damping) / n_nodes

        def finish(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"node": df["node"],
                                 "r_new": base + damping * df["c"]})

        new_ranks = contrib.map_batches(finish, batch_format="pandas",
                                        batch_size=None).materialize()
        # honor ``tol`` in this tier too (same L1 stop rule as the driver
        # tier): one bucketed join of two (node, float) tables + a scalar
        # sum per round — negligible next to the edge join above.  Every
        # node appears in both sides (symmetrized graph ⇒ every node has
        # incoming contributions), so the inner join covers all nodes.
        delta = float(bucketed_equi_join(
            new_ranks, ranks, on="node")
            .map_batches(lambda df: pd.DataFrame(
                {"d": [float(np.abs(df["r_new"].to_numpy()
                                    - df["r"].to_numpy()).sum())]}),
                batch_format="pandas", batch_size=None)
            .aggregate(Sum("d", alias_name="d"))["d"])
        ranks = new_ranks.map_batches(
            lambda df: df.rename(columns={"r_new": "r"}),
            batch_format="pandas", batch_size=None).materialize()
        if delta < tol:
            break

    def to_fixed(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "node": df["node"],
            "rank_e9": np.floor(df["r"].to_numpy() * 1e9).astype(np.int64)})

    return ranks.map_batches(to_fixed, batch_format="pandas",
                             batch_size=None)
