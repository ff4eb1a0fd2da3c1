"""Backlink-graph analytics: pure ``ray.data`` Dataset pipelines.

Operators covered (SURVEY.md §2): A1 link profiles, A3 intrinsic
authority (host PageRank / personalized PageRank / HITS), A4
referring-domain cardinality (exact + HyperLogLog), A6 link velocity,
D1 edge dedup, J2 link intersect, host communities, components,
k-core, triangles and centralities, plus the salted (source_host,
target_host) edge rollup the BASELINE north-star names explicitly.

Shuffle discipline (SURVEY.md §7.4): every aggregation goes through
``ops.hash_aggregate`` — a per-block vectorized combiner (which bounds
hub-key skew: a hot host contributes one partial row per block, the
combiner IS the salt) followed by a hash-partition exchange and a
vectorized per-partition merge.  Raw edges are never shuffled.

Iterative graph algorithms — PageRank, personalized PageRank, HITS,
label-propagation communities, k-core, HyperBall (harmonic centrality,
effective diameter) and min-label components (host components and
``textdata.near_dup_survivors``) — are vertex programs on
``ops.superstep``: the vertex set is numbered once (int64 id = rank in
name order, range-partitioned over the cluster's CPUs), each partition
keeps its out-edges as numpy arrays in the object store, and an
iteration is a scatter wave and a gather wave of plain Ray tasks that
exchange combined per-target messages — no Ray Data exchange and no
driver collection inside the loop.

Every graph op builds its layout straight from the edge rows:
``ops.dense_graph`` merges parallel edges itself (``w`` counts a
pair's rows), so no host-pair aggregate runs in front of it.  The
undirected family — triangles, clustering, degree assortativity,
reciprocal links and k-core — shares one undirected layout of the
edges without self-loops: one row per neighbour, with the merged
direction bits of the pair.  Triangles (compact-forward), clustering
and assortativity are supersteps on it; reciprocity reads the
direction bits.  No string-keyed join runs in any of them.
"""

from __future__ import annotations

import functools
import glob
import os

import numpy as np
import polars as pl
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..functions.sketches import hll_bucket_rank, hll_estimate, token_hashes
from .. import ops
from ..ops import hash_aggregate, hash_group_apply
from ..sources import corpus as corpus_mod
from ..stages import ExtractLinksStage

__all__ = [
    "pages_dataset",
    "edges_dataset",
    "link_profiles",
    "top_anchor_profiles",
    "top_anchors_referrers",
    "host_graph",
    "host_pagerank",
    "host_hits",
    "host_components",
    "host_communities",
    "link_overlap_hll",
    "host_triangles",
    "host_kcore",
    "host_reciprocal_links",
    "host_clustering",
    "host_triangle_counts",
    "related_hosts_cocitation",
    "host_degree_assortativity",
    "referring_domains_exact",
    "referring_domains_hll",
    "host_harmonic_centrality",
    "host_effective_diameter",
    "host_pagerank_personalized",
    "link_intersect",
    "link_velocity",
]

_LINK_TYPES = ("dofollow", "nofollow", "sponsored", "ugc")


def corpus_files(sf_dir: str, multiplier: int = 1) -> list[str]:
    cdir = corpus_mod.corpus_dir(sf_dir, multiplier)
    return sorted(glob.glob(os.path.join(cdir, "pages_*.parquet")))


def pages_dataset(sf_dir: str, multiplier: int = 1, columns: list[str] | None = None) -> rd.Dataset:
    """The Common-Crawl-style pages table (column-pruned at the read)."""
    return ops.read_parquet(corpus_files(sf_dir, multiplier), columns=columns)


# Most pages one link-extraction task reads (each page carries its
# whole HTML).
EDGE_PAGES_PER_TASK = 4096


def edges_dataset(sf_dir: str, multiplier: int = 1) -> rd.Dataset:
    """Full-corpus link extraction: pages -> exploded edge rows (M2), as
    one :func:`ops.scan` wave of at most :data:`EDGE_PAGES_PER_TASK`
    pages per task."""
    return ops.scan(corpus_files(sf_dir, multiplier), ["url", "warc_ts", "html"],
                    ExtractLinksStage(), EDGE_PAGES_PER_TASK)


def _edges(sf_dir: str, multiplier: int, edges: rd.Dataset | None) -> rd.Dataset:
    """``edges`` when the caller passes them, else :func:`edges_dataset`."""
    return edges if edges is not None else edges_dataset(sf_dir, multiplier)


# --- A1: link profiles ----------------------------------------------------

def link_profiles(sf_dir: str, multiplier: int = 1, edges: rd.Dataset | None = None) -> rd.Dataset:
    """Per-target profile counts (core/models.py:449-491).

    total_backlinks counts every edge (canonical pseudo-edges included,
    matching create_link_profile_from_backlinks which appends them to
    the total but to no per-type counter); per-type counters cover the
    four rel-derived classes the extractor can produce.

    ONE exchange (keyed target_url): per-batch combiner pre-reduces to
    (target, host) partials (bounding hot-target skew to one row per
    host per batch), then the partition apply dedups pairs and rolls up
    per-target totals where the pair count IS the distinct-referrer
    count.  The previous two-hash_aggregate plan paid a second
    sort-shuffle for no extra information.
    """
    def pre(df: pl.DataFrame) -> pl.DataFrame:
        return df.group_by(["target_url", "source_host"]).agg(
            pl.len().cast(pl.Int64).alias("n"),
            *[
                (pl.col("link_type") == t).sum().cast(pl.Int64).alias(f"{t}_backlinks")
                for t in _LINK_TYPES
            ],
        )

    def profile(df: pl.DataFrame) -> pl.DataFrame:
        pair = df.group_by(["target_url", "source_host"]).agg(
            pl.col("n").sum(),
            *[pl.col(f"{t}_backlinks").sum() for t in _LINK_TYPES],
        )
        return pair.group_by("target_url").agg(
            pl.col("n").sum().alias("total_backlinks"),
            pl.len().cast(pl.Int64).alias("unique_referring_domains"),
            *[pl.col(f"{t}_backlinks").sum() for t in _LINK_TYPES],
        )

    return hash_group_apply(_edges(sf_dir, multiplier, edges), ["target_url"], profile, pre=pre)


def _count_anchor_rows(df: pl.DataFrame) -> pl.DataFrame:
    """Per-block combiner of the anchor top-k ops: one row per distinct
    (target_url, anchor_text, source_host) with its count ``cnt``."""
    return df.group_by(["target_url", "anchor_text", "source_host"]).agg(
        pl.len().cast(pl.Int64).alias("cnt")
    )


def top_anchor_profiles(sf_dir: str, multiplier: int = 1, k: int = 10) -> rd.Dataset:
    """Top-k anchor texts + referring domains per target (O3).

    Count-desc, then first-seen (anchor asc as the deterministic proxy)
    per core/models.py:481,489.  Keys are pre-counted per block
    (combiner), the apply stage does one vectorized top-k per partition.
    """

    def topk(df: pl.DataFrame) -> pl.DataFrame:
        def top_map(sub: pl.DataFrame, col: str) -> pl.DataFrame:
            counts = (
                sub.group_by(["target_url", col])
                .agg(pl.col("cnt").sum().alias("c"))
                .sort(["target_url", "c", col], descending=[False, True, False])
                .with_columns(pl.col(col).cum_count().over("target_url").alias("r"))
                .filter(pl.col("r") <= k)
            )
            return counts.group_by("target_url").agg(
                pl.col(col).alias(f"top_{col}_keys"), pl.col("c").alias(f"top_{col}_counts")
            )

        a = top_map(df, "anchor_text")
        d = top_map(df, "source_host")
        return a.join(d, on="target_url", how="full", coalesce=True)

    return hash_group_apply(edges_dataset(sf_dir, multiplier), ["target_url"], topk,
                            pre=_count_anchor_rows)


def top_anchors_referrers(sf_dir: str, multiplier: int = 1, k: int = 10) -> rd.Dataset:
    """Row-form top-k anchors + referring domains per target (O3/A1).

    Same semantics as :func:`top_anchor_profiles` (count desc, key asc
    per core/models.py:481,489) but exploded to
    (target_url, kind, item, cnt, rank) rows — exactly hashable by the
    driver's value-compare, with a closed-form DuckDB oracle.
    """

    def topk(df: pl.DataFrame) -> pl.DataFrame:
        outs = []
        for col, kind in (("anchor_text", "anchor"), ("source_host", "referrer")):
            outs.append(
                df.group_by(["target_url", col])
                .agg(pl.col("cnt").sum().alias("c"))
                .sort(["target_url", "c", col], descending=[False, True, False])
                .with_columns(
                    pl.col(col).cum_count().over("target_url").cast(pl.Int64).alias("rank")
                )
                .filter(pl.col("rank") <= k)
                .select(
                    pl.col("target_url"),
                    pl.lit(kind).alias("kind"),
                    pl.col(col).alias("item"),
                    pl.col("c").alias("cnt"),
                    pl.col("rank"),
                )
            )
        return pl.concat(outs)

    return hash_group_apply(edges_dataset(sf_dir, multiplier), ["target_url"], topk,
                            pre=_count_anchor_rows)


# --- host-pair rollup (the salted groupby of the north star) -------------

def host_graph(sf_dir: str, multiplier: int = 1, edges: rd.Dataset | None = None) -> rd.Dataset:
    """(source_host, target_host) edge counts (a registry query; the
    graph ops build from the edges, ``ops.dense_graph`` merges the
    pairs itself).

    Hub-domain skew is absorbed by the combine stage: a hub pair is
    reduced to ONE partial row per block before the exchange, so the
    reduce side receives O(blocks) rows per hot pair, never O(edges).
    """
    return hash_aggregate(
        _edges(sf_dir, multiplier, edges),
        ["source_host", "target_host"],
        combine=[pl.len().cast(pl.Int64).alias("n_links")],
        merge=[pl.col("n_links").sum()],
    )


# --- vertex programs on ops.superstep: per-partition task bodies ----------
# (``part`` is a partition layout of ``ops.dense_graph``)


def _host_names(part: dict) -> pl.Series:
    return pl.from_arrow(part["names"]).alias("host")


def _vertex_dataset(g: ops.DenseGraph, fn, *args, per_part: tuple = ()) -> rd.Dataset:
    """``fn``'s per-partition output tables (one ``g.map`` wave) as one
    materialized Dataset; each task computes its block's metadata, so
    no ``from_arrow_refs`` metadata wave runs."""
    outs = g.map(functools.partial(ops._map_block, fn), *args, per_part=per_part, num_returns=2)
    return ops._dataset(outs)


def _pagerank_prepare(part: dict, n: int, seeds: tuple | None):
    """Edge weights n_links / out_total, the teleport vector, the
    dangling mask, the start vector (= teleport) and its dangling mass."""
    out_total = np.bincount(part["src"], weights=part["w"], minlength=part["n"])
    if seeds is None:
        t = np.full(part["n"], 1.0 / max(n, 1))
    else:
        t = np.where(_host_names(part).is_in(list(seeds)).to_numpy(), 1.0 / len(seeds), 0.0)
    dangling = out_total == 0
    part = {**part, "w": part["w"] / out_total[part["src"]], "t": t, "dangling": dangling}
    return part, t, t[dangling].sum()


def _pagerank_scatter(part: dict, rank: np.ndarray, _scalars) -> pl.DataFrame:
    return ops.segment_reduce(part["dst"], part["w"] * rank[part["src"]])


def _pagerank_gather(damping: float, part: dict, rank, msgs: pl.DataFrame, dangling):
    """r = (1−d)·t + d·(push + dangling·t); returns r and its dangling mass."""
    push = np.bincount(msgs["dst"].to_numpy(), weights=msgs["v"].to_numpy(), minlength=part["n"])
    t = part["t"]
    new = (1.0 - damping) * t + damping * (push + sum(dangling) * t)
    return new, new[part["dangling"]].sum()


def _rank_table(part: dict, rank: np.ndarray) -> pa.Table:
    return pl.DataFrame([_host_names(part), pl.Series("rank", rank).round(8)]).to_arrow()


def _pagerank(
    sf_dir: str,
    multiplier: int,
    damping: float,
    iters: int,
    edges: rd.Dataset | None,
    seeds: tuple | None = None,
) -> rd.Dataset:
    """The one PageRank body: uniform teleport, or uniform over ``seeds``."""
    g = ops.dense_graph(_edges(sf_dir, multiplier, edges), "source_host", "target_host")
    prep = g.map(_pagerank_prepare, g.num_vertices, seeds, num_returns=3)
    g = ops.DenseGraph(g.offsets, [p[0] for p in prep])
    rank, dangling = [p[1] for p in prep], [p[2] for p in prep]
    gather = functools.partial(_pagerank_gather, damping)
    for _ in range(iters):
        rank, dangling = ops.superstep(g, rank, _pagerank_scatter, gather, *dangling)
    return _vertex_dataset(g, _rank_table, per_part=(rank,))


def host_pagerank(
    sf_dir: str,
    multiplier: int = 1,
    damping: float = 0.85,
    iters: int = 20,
    edges: rd.Dataset | None = None,
) -> rd.Dataset:
    """Weighted PageRank over the host graph (iterative, distributed).

    The reference attaches an externally-sourced ``authority_score``
    per domain (core/models.py:255-297); this computes an intrinsic
    link-graph authority instead.  Edge weight = n_links / total
    outbound links of the source host; the rank held by hosts with no
    out-links (dangling mass) is spread uniformly.

    Scale shape: ``ops.dense_graph`` runs once over the edges (its
    ``w`` is the pair's n_links); each iteration is one
    ``ops.superstep``.  Scatter pushes w·rank along
    each partition's out-edges and sums per target (``segment_reduce``);
    gather applies the update and returns the partition's dangling
    mass, which the next gather reads as a ref — the driver waits on
    nothing until the output Dataset.
    """
    return _pagerank(sf_dir, multiplier, damping, iters, edges)


def host_pagerank_personalized(
    sf_dir: str,
    seeds: tuple = ("h0.example.com",),
    multiplier: int = 1,
    damping: float = 0.85,
    iters: int = 20,
    edges: rd.Dataset | None = None,
) -> rd.Dataset:
    """Personalized PageRank: teleport restricted to a seed host set —
    the topic/spam-biased authority variant (a link-spam analyst seeds
    known-good hosts and reads off how much authority flows to a
    candidate; TrustRank's propagation shape).  Update per iteration:
    ``r = (1−d)·t + d·(push + dangling·t)`` with ``t`` uniform over
    ``seeds`` and zero elsewhere — the :func:`host_pagerank` body and
    superstep, only the teleport vector differs.
    """
    return _pagerank(sf_dir, multiplier, damping, iters, edges, seeds=tuple(seeds))


def _l2(sq) -> float:
    """The norm of a vector from its partitions' squared norms (1.0 for
    a zero vector or the unnormalized all-ones start)."""
    s = sum(sq)
    return s ** 0.5 if s > 0 else 1.0


def _hits_scatter(part: dict, raw: np.ndarray, sq) -> pl.DataFrame:
    return ops.segment_reduce(part["dst"], part["w"] * (raw[part["src"]] / _l2(sq)))


def _hits_gather(part: dict, _raw, msgs: pl.DataFrame, _sq):
    raw = np.bincount(msgs["dst"].to_numpy(), weights=msgs["v"].to_numpy(), minlength=part["n"])
    return raw, (raw ** 2).sum()


def _hits_table(part: dict, auth, hub, n_auth: int, *sq) -> pa.Table:
    return pl.DataFrame([
        _host_names(part),
        pl.Series("authority", auth / _l2(sq[:n_auth])).round(8),
        pl.Series("hub", hub / _l2(sq[n_auth:])).round(8),
    ]).to_arrow()


def host_hits(
    sf_dir: str,
    multiplier: int = 1,
    iters: int = 20,
    edges: rd.Dataset | None = None,
) -> rd.Dataset:
    """HITS hub/authority scores over the weighted host graph
    (Kleinberg 1999) — the second intrinsic link-graph authority
    measure next to :func:`host_pagerank` (the reference's
    ``authority_score`` per domain, core/models.py:255-297, is an
    external feed; PageRank and HITS are the standard intrinsic
    replacements).  auth(v) = Σ_{u→v} n_links·hub(u), then normalize;
    hub(u) = Σ_{u→v} n_links·auth(v), then normalize — hosts without
    in-links (out-links) keep authority (hub) exactly 0.0.

    Scale shape: one ``ops.dense_graph`` plus its transpose
    (``ops.reverse_graph``), built once; each half-step is one
    ``ops.superstep`` along one of them.  Gather keeps the unnormalized
    sums and returns the partition's squared L2 norm; the next scatter
    (and the final table) divides by the norm of those P refs, so the
    driver never waits inside the loop.
    """
    g = ops.dense_graph(_edges(sf_dir, multiplier, edges), "source_host", "target_host")
    rg = ops.reverse_graph(g)
    hub = auth = g.map(lambda part: np.ones(part["n"]))
    hub_sq = auth_sq = []
    for _ in range(iters):
        auth, auth_sq = ops.superstep(g, hub, _hits_scatter, _hits_gather, *hub_sq)
        hub, hub_sq = ops.superstep(rg, auth, _hits_scatter, _hits_gather, *auth_sq)
    return _vertex_dataset(g, _hits_table, len(auth_sq), *auth_sq, *hub_sq, per_part=(auth, hub))


def _min_label_scatter(part: dict, label: np.ndarray, _scalars) -> pl.DataFrame:
    """Per target: the smallest label among its neighbors."""
    return ops.segment_reduce(part["dst"], label[part["src"]], np.minimum)


def _min_label_gather(part: dict, label: np.ndarray, msgs: pl.DataFrame, _scalars):
    new = label.copy()
    np.minimum.at(new, msgs["dst"].to_numpy(), msgs["v"].to_numpy())
    return new, int((new != label).sum())


def _label_scatter(part: dict, label: np.ndarray, _scalars) -> pl.DataFrame:
    """Each vertex to the partition that owns its label's name."""
    return pl.DataFrame({"dst": label, "name": pl.from_arrow(part["names"])}).sort("dst")


def _label_gather(cols: tuple, part: dict, _label, msgs: pl.DataFrame, _scalars):
    label = pl.from_arrow(part["names"]).gather(msgs["dst"])
    return ops._with_meta(pl.DataFrame([msgs["name"].alias(cols[0]), label.alias(cols[1])]).to_arrow())


def _named_labels(g: ops.DenseGraph, labels: list, cols: tuple) -> rd.Dataset:
    """``cols`` = (vertex name, its label's name) rows: one superstep
    routes each vertex to the partition that owns its label; its gather
    returns each table with its metadata (see :func:`_vertex_dataset`)."""
    tables, metas = ops.superstep(g, labels, _label_scatter, functools.partial(_label_gather, cols))
    return ops._dataset(list(zip(tables, metas)))


def min_label_components(ds: rd.Dataset, a: str, b: str, cols: tuple, max_iters: int) -> rd.Dataset:
    """Connected components of the undirected graph on ``ds``'s (a, b)
    pairs → ``cols`` = (vertex, root) rows, root = the component's
    smallest vertex (string or integer keys).

    Min-label propagation on ``ops.superstep``: every vertex starts with
    its own dense id (its rank in key order) as label; each sweep's
    scatter sends every target the ``np.minimum.reduceat`` of its
    neighbors' labels and the gather keeps the min of its own label and
    the messages, returning the changed count — the driver waits on P
    ints per sweep.  Converges in component-diameter + 1 sweeps; raises
    loudly past ``max_iters``, since a truncated propagation would
    split components.
    """
    g = ops.dense_graph(ds, a, b, undirected=True)
    labels = g.map(lambda part: part["base"] + np.arange(part["n"]))
    for _ in range(max_iters):
        labels, changed = ops.superstep(g, labels, _min_label_scatter, _min_label_gather)
        if not sum(ray.get(changed)):
            return _named_labels(g, labels, cols)
    raise RuntimeError(
        f"min-label components did not converge in {max_iters} sweeps "
        "(a component's diameter exceeds max_iters; raise it)"
    )


def host_components(
    sf_dir: str,
    multiplier: int = 1,
    edges: rd.Dataset | None = None,
    max_iters: int = 40,
) -> rd.Dataset:
    """Weakly-connected components of the host graph → (host,
    root_host) — link-neighborhood clusters, the graph-analytics
    sibling of PageRank/HITS (the reference groups domains into
    "networks" for competitive analysis,
    services/competitive_analysis_service.py; components are the
    graph-native version of that grouping).

    :func:`min_label_components` over the edges — the same vertex
    program as MinHash dedup survivor selection
    (``textdata.near_dup_survivors``).  ``root_host`` is the
    component's smallest host name, the "smallest id" rule of
    :func:`host_communities`.
    """
    return min_label_components(_edges(sf_dir, multiplier, edges), "source_host", "target_host",
                                ("host", "root_host"), max_iters)


# --- the undirected host layout: triangles, clustering, assortativity,
# reciprocity and k-core are programs on it --------------------------------


def _no_self_loops(batch: pa.Table) -> pa.Table:
    pairs = batch.select(["source_host", "target_host"])
    return pairs.filter(pc.not_equal(pairs["source_host"], pairs["target_host"]))


def _undirected_host_graph(sf_dir: str, multiplier: int, edges: rd.Dataset | None) -> ops.DenseGraph:
    """The undirected host graph on ``ops.dense_graph``: every distinct
    pair of two different hosts once in each direction, with its
    ``dir`` bits.  Self-loops go first (one ``ops.map_blocks`` wave), so
    a host whose only edge is a self-loop is no vertex; the build is
    the only exchange."""
    edges = ops.map_blocks(_edges(sf_dir, multiplier, edges), _no_self_loops)
    return ops.dense_graph(edges, "source_host", "target_host", undirected=True)


def _deg(part: dict) -> np.ndarray:
    """Per vertex of an undirected layout: its distinct neighbours."""
    return np.bincount(part["src"], minlength=part["n"])


def _degree_scatter(part: dict, _state, _scalars) -> pl.DataFrame:
    """Every vertex's id and degree to each of its neighbours."""
    return pl.DataFrame({"dst": part["dst"], "u": part["base"] + part["src"],
                         "du": _deg(part)[part["src"]]})


def _degree_gather(part: dict, _state, msgs: pl.DataFrame, _scalars):
    """Keeps each vertex v's forward edges (v, u, du): neighbours u later
    than v in (degree, id) order.  Returns the integer moments (m,
    Σ(j+k), Σjk, Σ(j²+k²)) of the endpoint degrees j, k over the
    partition's edges with u < v, so each edge counts once."""
    v, u, du = (msgs[c].to_numpy() for c in ("dst", "u", "du"))
    dv, vid = _deg(part)[v], part["base"] + v
    j, k = du[u < vid], dv[u < vid]
    moments = (len(j), int((j + k).sum()), int((j * k).sum()), int((j * j + k * k).sum()))
    fwd = (du > dv) | ((du == dv) & (u > vid))
    return pl.DataFrame({"v": v[fwd], "u": u[fwd], "du": du[fwd]}), moments


def _wedge_scatter(part: dict, fwd: pl.DataFrame, _scalars) -> pl.DataFrame:
    """Each vertex v's forward list to each of its forward neighbours w:
    one (w, v, x) row per x after w in (degree, id) order."""
    later = (pl.col("du_x") > pl.col("du")) | (
        (pl.col("du_x") == pl.col("du")) & (pl.col("u_x") > pl.col("u")))
    return (
        fwd.join(fwd, on="v", suffix="_x")
        .filter(later)
        .select(pl.col("u").alias("dst"), pl.col("v") + part["base"], pl.col("u_x").alias("x"))
        .sort("dst")
    )


def _wedge_gather(part: dict, fwd: pl.DataFrame, msgs: pl.DataFrame, _scalars):
    """Wedges (w, v, x) closed by the receiver's own forward edge (w, x):
    each triangle v ≺ w ≺ x is found once, at its middle corner.
    Returns the sorted ids of the found triangles' corners."""
    own = fwd.select(pl.col("v").alias("dst"), pl.col("u").alias("x"))
    tri = msgs.join(own, on=["dst", "x"], how="semi")
    corners = [tri["v"].to_numpy(), part["base"] + tri["dst"].to_numpy(), tri["x"].to_numpy()]
    return np.sort(np.concatenate(corners)), None


def _credit_scatter(part: dict, corners: np.ndarray, _scalars) -> pl.DataFrame:
    return ops.segment_reduce(corners, np.ones(len(corners), dtype=np.int64))


def _credit_gather(part: dict, _corners, msgs: pl.DataFrame, _scalars):
    tri = np.zeros(part["n"], dtype=np.int64)
    np.add.at(tri, msgs["dst"].to_numpy(), msgs["v"].to_numpy())
    return tri, None


def _triangles(g: ops.DenseGraph) -> list:
    """Per-partition refs of each vertex's triangle count: the degree
    superstep, then the wedge and the corner-credit supersteps."""
    fwd, _ = ops.superstep(g, [None] * len(g.parts), _degree_scatter, _degree_gather)
    corners, _ = ops.superstep(g, fwd, _wedge_scatter, _wedge_gather)
    tri, _ = ops.superstep(g, corners, _credit_scatter, _credit_gather)
    return tri


def _triangle_table(part: dict, tri: np.ndarray) -> pa.Table:
    return (pl.DataFrame([_host_names(part), pl.Series("triangles", tri, pl.Int64)])
            .filter(pl.col("triangles") > 0).to_arrow())


def host_triangles(
    sf_dir: str,
    multiplier: int = 1,
    edges: rd.Dataset | None = None,
    k: int = 20,
) -> rd.Dataset:
    """Top-``k`` hosts by triangle participation — see
    ``host_triangle_counts`` for the algorithm and scale analysis."""
    per_host = host_triangle_counts(sf_dir, multiplier, edges=edges)
    return ops.block_topk(per_host, ["triangles", "host"], [True, False], k)


def host_triangle_counts(
    sf_dir: str,
    multiplier: int = 1,
    edges: rd.Dataset | None = None,
) -> rd.Dataset:
    """Per-host triangle participation counts over the undirected host
    graph → ``(host, triangles)``, one row per host in ≥ 1 triangle.

    Triangle density is the classic link-network signal the reference
    approximates with pairwise "common referring domains" overlap
    (services/competitive_analysis_service.py's link-intersect
    analysis, J2): a host whose neighbors also link to EACH OTHER sits
    inside a genuine community (or a link farm), while a pure hub's
    neighbors don't interconnect.

    Algorithm = the "forward" / compact-forward orientation scheme
    (Schank & Wagner 2005; Latapy 2008): order hosts by (degree, name),
    orient every undirected edge from the ≺-smaller endpoint to the
    larger, then each triangle a≺b≺c is found EXACTLY once as the
    out-wedge (a→b, a→c) closed by the oriented edge b→c.  The
    orientation bounds every host's out-degree by O(√m) on any graph,
    so the wedge self-join — the step that explodes on hubs if done on
    the raw graph — emits Σ out_deg² = O(m^1.5) candidates worst case
    instead of Σ deg² (a 10^6-degree hub contributes ZERO wedges if
    its neighbors all have lower degree, because its edges point IN).

    Scale shape: one undirected host layout (built straight from the
    edges; its build is the only exchange), then three
    ``ops.superstep``s of plain Ray tasks over int64 host ids, whose
    order is name order.
    Every host sends its degree to its neighbours and keeps its forward
    list (the neighbours after it in (degree, id) order); every host
    sends that list to each forward neighbour, which semi-joins it
    against its own forward list, so a triangle is found once, at its
    middle corner; ``ops.segment_reduce`` sends the corner credits to
    their owners.  Nothing is broadcast and no task holds more than
    one partition's wedges.
    """
    g = _undirected_host_graph(sf_dir, multiplier, edges)
    return _vertex_dataset(g, _triangle_table, per_part=(_triangles(g),))


def _reciprocal_table(part: dict) -> pa.Table:
    both = np.bincount(part["src"][part["dir"] == 3], minlength=part["n"])
    return pl.DataFrame([
        _host_names(part),
        pl.Series("partners", _deg(part), pl.Int64),
        pl.Series("reciprocal_partners", both, pl.Int64),
    ]).to_arrow()


def host_reciprocal_links(
    sf_dir: str,
    multiplier: int = 1,
    edges: rd.Dataset | None = None,
) -> rd.Dataset:
    """Per-host reciprocal-linking stats →
    ``(host, partners, reciprocal_partners)``.

    "Excessive link exchanges" is a named link-scheme signal (Google
    spam policies; the reference's backlink analysis scores link_type
    quality per edge, services/domain_analyzer_service.py) — a host
    whose partner hosts mostly link BACK is trading links rather than
    earning them.  ``partners`` counts distinct hosts linked in either
    direction; ``reciprocal_partners`` counts those where both
    directions exist.

    Shape: no superstep.  On the undirected host layout a host's
    neighbour rows are its partners, and a pair whose merged ``dir``
    bits are 3 links both ways, so one wave of P tasks reads both
    counts off each partition.
    """
    g = _undirected_host_graph(sf_dir, multiplier, edges)
    return _vertex_dataset(g, _reciprocal_table)


def related_hosts_cocitation(
    sf_dir: str,
    multiplier: int = 1,
    edges: rd.Dataset | None = None,
    k: int = 50,
    max_targets: int | None = None,
) -> rd.Dataset:
    """Top-``k`` co-cited host pairs → ``(x, y, cocitations)``.

    Co-citation — two hosts repeatedly linked by the SAME sources —
    is the standard "related domains" relatedness signal (Small 1973
    for citation graphs; SEO tools surface it as competitor/related
    sites, the reference approximates it with pairwise link_intersect
    J2 for two NAMED hosts).  This computes it for ALL pairs at once:
    distinct (source, target) edges keyed source, per-source ordered
    target pairs, then one count aggregate and a distributed top-k.

    ``max_targets``: a source linking to H distinct hosts emits
    O(H²) pairs — the same hub blow-up as all-pairs word Jaccard's
    hub tokens.  Default None = exact (matches the SQL oracle); at
    100 TB set it (e.g. 100) to keep only each source's first
    ``max_targets`` targets (by name, deterministic), the standard
    directory-page mitigation — a source linking to thousands of
    hosts is a directory/boilerplate page carrying no relatedness
    evidence anyway.  The same loud scale warning fires on big
    corpora when unset.
    """
    if max_targets is None:
        import warnings

        n_docs = ops.parquet_num_rows(os.path.join(sf_dir, "documents.parquet")) if sf_dir else 0
        if n_docs > 100_000:
            warnings.warn(
                f"related_hosts_cocitation(max_targets=None) on {n_docs} docs "
                "is exact but emits O(out_deg^2) pairs per hub source; set "
                "max_targets (e.g. 100) at this scale.",
                UserWarning,
                stacklevel=2,
            )

    def pre(df: pl.DataFrame) -> pl.DataFrame:
        return (
            df.select(["source_host", "target_host"])
            .filter(pl.col("source_host") != pl.col("target_host"))
            .unique()
        )

    def pairs(df: pl.DataFrame) -> pl.DataFrame:
        df = df.unique()
        if max_targets is not None:
            df = (
                df.sort(["source_host", "target_host"])
                .group_by("source_host", maintain_order=True)
                .head(max_targets)
            )
        j = df.join(df, on="source_host", suffix="_r")
        return j.filter(pl.col("target_host") < pl.col("target_host_r")).select(
            pl.col("target_host").alias("x"),
            pl.col("target_host_r").alias("y"),
        )

    cand = hash_group_apply(_edges(sf_dir, multiplier, edges), ["source_host"], pairs, pre=pre)
    counts = hash_aggregate(
        cand,
        ["x", "y"],
        combine=[pl.len().cast(pl.Int64).alias("cocitations")],
        merge=[pl.col("cocitations").sum()],
    )
    return ops.block_topk(counts, ["cocitations", "x", "y"], [True, False, False], k)


def host_degree_assortativity(
    sf_dir: str,
    multiplier: int = 1,
    edges: rd.Dataset | None = None,
) -> rd.Dataset:
    """Degree assortativity of the undirected host graph (Newman 2002)
    → one row ``(n_edges, assortativity)``.

    r > 0: hosts link to similarly-connected hosts (mesh-like link
    networks); r < 0: hubs link to the fringe (the organic web is
    disassortative, Newman 2003 table II) — a corpus-level structure
    check for crawl frontiers and synthetic-graph validation.

    Exactness discipline: the edge count and the three
    edge-endpoint-degree moments Σ(j+k), Σjk, Σ(j²+k²) are INTEGER sums,
    one tuple per partition from the gather of one degree superstep on
    the undirected host layout (each edge counted at its larger-id
    endpoint), summed on the driver in any order.  Only the final
    closed-form expression — written in the identical operation order
    as the DuckDB oracle — touches floats:
    ``a = S1/(2M); r = (S2/M − a·a) / (S3/(2M) − a·a)`` quantized to
    integer micro-units ``floor(r·1e6 + 0.5)`` (0 when the
    denominator is exactly 0: regular graphs).  A graph with no edge
    between two distinct hosts gives ``(0, NULL)``, as the oracle does.
    """
    import math

    g = _undirected_host_graph(sf_dir, multiplier, edges)
    _, moments = ops.superstep(g, [None] * len(g.parts), _degree_scatter, _degree_gather)
    m, s1, s2, s3 = (sum(c) for c in zip(*ray.get(moments)))
    micro = None
    if m:
        a = s1 / (2 * m)
        denom = s3 / (2 * m) - a * a
        micro = 0 if denom == 0.0 else math.floor((s2 / m - a * a) / denom * 1_000_000 + 0.5)
    return rd.from_arrow(pa.table({
        "n_edges": pa.array([m], pa.int64()),
        "assortativity_micro": pa.array([micro], pa.int64()),
    }))


def _clustering_table(part: dict, tri: np.ndarray) -> pa.Table:
    deg = pl.col("deg")
    return pl.DataFrame([
        _host_names(part),
        pl.Series("deg", _deg(part), pl.Int64),
        pl.Series("triangles", tri, pl.Int64),
    ]).with_columns(
        pl.when(deg >= 2)
        .then((2.0 * pl.col("triangles") / (deg * (deg - 1))).round(6))
        .otherwise(0.0)
        .alias("clustering")
    ).to_arrow()


def host_clustering(
    sf_dir: str,
    multiplier: int = 1,
    edges: rd.Dataset | None = None,
) -> rd.Dataset:
    """Local clustering coefficient per host →
    ``(host, deg, triangles, clustering)``.

    clustering(v) = 2·T(v) / (deg(v)·(deg(v)−1)) — the fraction of a
    host's neighbor pairs that interlink.  Near 1 with non-trivial
    degree = a densely interlinked network (link farm / PBN
    signature); near 0 = an organically earned hub.  Runs
    :func:`host_triangle_counts`'s supersteps on the undirected host
    layout, whose neighbour counts are the degrees, and computes the
    coefficient per partition with no join (hosts in no triangle get
    0); the division is done in one fixed expression order and rounded
    to 6 decimals so the DuckDB oracle reproduces it bit-identically
    (libm is shared).
    """
    g = _undirected_host_graph(sf_dir, multiplier, edges)
    return _vertex_dataset(g, _clustering_table, per_part=(_triangles(g),))


def _kcore_scatter(part: dict, val: np.ndarray, _scalars) -> pl.DataFrame:
    """Per target: a histogram of its neighbors' current values."""
    return (
        pl.DataFrame({"dst": part["dst"], "val": val[part["src"]]})
        .group_by("dst", "val")
        .agg(pl.len().cast(pl.Int64).alias("c"))
        .sort("dst")
    )


def _kcore_gather(part: dict, val: np.ndarray, msgs: pl.DataFrame, _scalars):
    """H-index of the neighbor histogram: with values sorted descending,
    max over values of min(value, #neighbors at or above it)."""
    h = (
        msgs.group_by("dst", "val")
        .agg(pl.col("c").sum())
        .sort(["dst", "val"], descending=[False, True])
        .group_by("dst", maintain_order=True)
        .agg(pl.min_horizontal("val", pl.col("c").cum_sum()).max().alias("h"))
    )
    new = val.copy()
    new[h["dst"].to_numpy()] = h["h"].to_numpy()
    return new, int((new != val).sum())


def _coreness_table(part: dict, val: np.ndarray) -> pa.Table:
    return pl.DataFrame([_host_names(part), pl.Series("coreness", val, pl.Int64)]).to_arrow()


def host_kcore(
    sf_dir: str,
    multiplier: int = 1,
    edges: rd.Dataset | None = None,
    max_iters: int = 60,
) -> rd.Dataset:
    """Core number (coreness) per host → ``(host, coreness)``.

    The k-core is the standard "dense sub-network" detector: a host
    with coreness k sits in a subgraph where EVERY member keeps ≥ k
    neighbors — the link-farm / PBN (private blog network) signature
    the reference's domain analysis flags heuristically via inbound
    thresholds (services/domain_analyzer_service.py's value tiers);
    triangles (above) score local density, coreness scores the global
    nesting depth.

    Algorithm: iterated neighborhood H-index (Lü, Zhou, Zhang & Stanley
    2016, "The H-index of a network node and its relation to degree
    and coreness"): start every host at its degree, then repeatedly
    set val(v) ← H(vals of v's neighbors) — the largest h such that
    ≥ h neighbors currently have val ≥ h.  The sequence is monotone
    non-increasing and its fixed point IS the coreness, reached in at
    most O(peel-path length) sweeps (web host graphs: small-diameter,
    a handful).  Raises loudly on non-convergence like the other
    iterative operators rather than returning a wrong fixed point.

    Scale shape: the undirected host layout is built once and every
    host starts at its degree; each sweep is one ``ops.superstep``
    whose scatter sends per-target (value, count) histograms and whose
    gather returns the partition's changed count — the driver waits
    on P ints per sweep.
    """
    g = _undirected_host_graph(sf_dir, multiplier, edges)
    val = g.map(_deg)
    for _ in range(max_iters):
        val, changed = ops.superstep(g, val, _kcore_scatter, _kcore_gather)
        if not sum(ray.get(changed)):
            return _vertex_dataset(g, _coreness_table, per_part=(val,))
    raise RuntimeError(
        f"host_kcore did not converge in {max_iters} H-index sweeps — "
        "raise max_iters (sweeps scale with the graph's peel depth)"
    )


# --- A4: referring-domain cardinality ------------------------------------

def referring_domains_exact(sf_dir: str, multiplier: int = 1, edges: rd.Dataset | None = None) -> rd.Dataset:
    """Exact distinct source hosts per target host (test-scale ground
    truth).  One exchange keyed target_host: per-batch distinct pairs,
    partition-side distinct + count."""

    def pre(df: pl.DataFrame) -> pl.DataFrame:
        return df.select(["target_host", "source_host"]).unique()

    def count_distinct(df: pl.DataFrame) -> pl.DataFrame:
        return (
            df.unique()
            .group_by("target_host")
            .agg(pl.len().cast(pl.Int64).alias("referring_domains"))
        )

    return hash_group_apply(_edges(sf_dir, multiplier, edges), ["target_host"], count_distinct,
                            pre=pre)


def _target_groups(df: pl.DataFrame) -> tuple[np.ndarray, list]:
    """Per row, the group index of its target_host, and the hosts in
    group order (categorical physical codes are in first-appearance
    order, as is ``unique(maintain_order=True)``)."""
    hosts = df.get_column("target_host")
    return hosts.cast(pl.Categorical).to_physical().to_numpy(), hosts.unique(maintain_order=True).to_list()


def _hll_sparse_partial(p: int):
    """Factory: the sparse-HLL per-block partial used by
    referring_domains_hll and link_overlap_hll — one (target_host,
    packed (bucket<<6|rank) uint32 blob) row per (host, block)."""

    def partial(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        # one vectorized register update across ALL groups in the batch:
        # flat register index = group_index * 2^p + bucket
        gid, hosts_in_order = _target_groups(df)
        n_groups = len(hosts_in_order)
        if n_groups == 0:
            return pa.table(
                {"target_host": pa.array([], pa.string()), "sketch": pa.array([], pa.binary())}
            )
        idx, rank = hll_bucket_rank(token_hashes(df.get_column("source_host").to_list()), p)
        # SPARSE sketch rows: pack (bucket, rank) as uint32 (idx<<6|rank),
        # dedup per (group, bucket) keeping max rank — a partial for a
        # small group costs O(distinct) bytes, not 2^p (dense 4 KiB
        # blobs per (host, block) were 95% of this stage's cost)
        packed = (gid.astype(np.uint64) << np.uint64(32)) | (
            (idx.astype(np.uint64) << np.uint64(6)) | rank.astype(np.uint64)
        )
        packed = np.sort(packed)
        # keep max rank per (group, bucket): after sort, the LAST entry
        # of each (group,bucket) run has the max rank (rank is low bits)
        key = packed >> np.uint64(6)
        last = np.ones(len(packed), dtype=bool)
        last[:-1] = key[:-1] != key[1:]
        packed = packed[last]
        grp = (packed >> np.uint64(32)).astype(np.int64)
        entries = (packed & np.uint64(0xFFFFFFFF)).astype(np.uint32)
        bounds = np.searchsorted(grp, np.arange(n_groups + 1))
        blobs = [entries[bounds[g] : bounds[g + 1]].tobytes() for g in range(n_groups)]
        return pa.table(
            {
                "target_host": pa.array(hosts_in_order, pa.string()),
                "sketch": pa.array(blobs, pa.binary()),
            }
        )

    return partial


def referring_domains_hll(sf_dir: str, multiplier: int = 1, p: int = 12, edges: rd.Dataset | None = None) -> rd.Dataset:
    """HLL sketch per target host — the 10^10-scale path (BASELINE A4).

    One (target_host, sparse register blob) row per (host, route chunk)
    leaves the exchange's route wave (the partial is its ``pre``); the
    exchange moves sketches, not host lists.
    """

    partial = _hll_sparse_partial(p)

    def merge(df: pl.DataFrame) -> pl.DataFrame:
        m = 1 << p
        # one vectorized register-merge + estimate across ALL hosts in
        # the partition: flat register index = host_gid * m + bucket
        gid, hosts_in_order = _target_groups(df)
        n_hosts = len(hosts_in_order)
        if n_hosts == 0:
            return pl.DataFrame(
                schema={"target_host": pl.Utf8, "referring_domains_est": pl.Float64}
            )
        blobs = df.get_column("sketch").to_list()
        lens = np.fromiter((len(b) // 4 for b in blobs), dtype=np.int64, count=len(blobs))
        entries = np.frombuffer(b"".join(blobs), dtype=np.uint32)
        entry_gid = np.repeat(gid, lens)
        dense = np.zeros(n_hosts * m, dtype=np.uint8)
        np.maximum.at(
            dense,
            entry_gid * m + (entries >> 6),
            (entries & 63).astype(np.uint8),
        )
        est = hll_estimate(dense.reshape(n_hosts, m))
        return pl.DataFrame(
            {"target_host": hosts_in_order, "referring_domains_est": est}
        )

    return hash_group_apply(_edges(sf_dir, multiplier, edges), ["target_host"], merge,
                            pre=lambda df: pl.from_arrow(partial(df.to_arrow())))


# --- J2: link intersect ---------------------------------------------------

def link_intersect(sf_dir: str, host_a: str, host_b: str, multiplier: int = 1) -> rd.Dataset:
    """Source hosts linking to BOTH targets (backlink_service.py:627-653).

    Semi-join shape: the two-host predicate and a per-chunk distinct
    run in the exchange's route wave, then per-source target count == 2.
    """

    def pick(df: pl.DataFrame) -> pl.DataFrame:
        return (
            df.filter(pl.col("target_host").is_in([host_a, host_b]))
            .select(["source_host", "target_host"])
            .unique()
        )

    def intersect(df: pl.DataFrame) -> pl.DataFrame:
        return (
            df.unique()
            .group_by("source_host")
            .agg(pl.len().alias("n_targets"))
            .filter(pl.col("n_targets") == 2)
            .select("source_host")
        )

    return hash_group_apply(edges_dataset(sf_dir, multiplier), ["source_host"], intersect, pre=pick)


# --- A6: link velocity ----------------------------------------------------

def link_velocity(sf_dir: str, multiplier: int = 1) -> rd.Dataset:
    """New backlinks per (target_host, day) (api/analytics.py:40-66)."""

    def add_day(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        return df.select(
            pl.col("target_host"), pl.col("crawl_ts").dt.truncate("1d").alias("day")
        ).to_arrow()

    daily = ops.map_blocks(edges_dataset(sf_dir, multiplier), add_day)
    return hash_aggregate(
        daily,
        ["target_host", "day"],
        combine=[pl.len().cast(pl.Int64).alias("n_new_links")],
        merge=[pl.col("n_new_links").sum()],
    )


def _ball_sizes(mode: str, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per counter row: its mass (set bits or register sum, monotone
    under union) and its ball-size estimate."""
    if mode == "bitset":
        mass = np.unpackbits(c, axis=1).sum(axis=1, dtype=np.int64)
        return mass, mass.astype(np.float64)
    return c.sum(axis=1, dtype=np.int64), hll_estimate(c)


def _hyperball_init(part: dict, mode: str, p: int, width: int) -> dict:
    """Every ball starts as {v}: bit v set, or v's HLL register."""
    n = part["n"]
    c = np.zeros((n, width), dtype=np.uint8)
    if mode == "bitset":
        ids = part["base"] + np.arange(n)
        c[np.arange(n), ids >> 3] = np.uint8(1) << (ids & 7).astype(np.uint8)
    else:
        idx, rank = hll_bucket_rank(token_hashes(part["names"].to_pylist()), p)
        c[np.arange(n), idx] = rank
    mass, cnt = _ball_sizes(mode, c)
    return {"c": c, "mass": mass, "cnt": cnt, "harmonic": np.zeros(n), "sum_dist": np.zeros(n)}


def _hyperball_scatter(union, part: dict, state: dict, _scalars) -> pl.DataFrame:
    return ops.segment_reduce(part["dst"], state["c"][part["src"]], union)


def _hyperball_gather(mode: str, union, r: int, part: dict, state: dict, msgs: pl.DataFrame,
                      _scalars):
    """ball_r = ball_{r-1} ∪ messages; H += Δ/r, sum_dist += Δ·r; returns
    (mass delta, Σ ball sizes) of the partition."""
    c = state["c"].copy()
    union.at(c, msgs["dst"].to_numpy(), msgs["v"].to_numpy())
    mass, cnt = _ball_sizes(mode, c)
    grown = cnt - state["cnt"]
    new = {"c": c, "mass": mass, "cnt": cnt,
           "harmonic": state["harmonic"] + grown / float(r),
           "sum_dist": state["sum_dist"] + grown * float(r)}
    return new, (int((mass - state["mass"]).sum()), float(cnt.sum()))


def _hyperball(sf_dir, multiplier, edges, mode, p, max_iters):
    """HyperBall to convergence → (graph, per-partition state refs,
    ``[N(1), N(2), …]`` with ``N(r) = Σ_v |ball_r(v)|``)."""
    if mode not in ("bitset", "hll"):
        raise ValueError(f"unknown mode {mode!r}")
    g = ops.dense_graph(_edges(sf_dir, multiplier, edges), "source_host", "target_host")
    width = (g.num_vertices + 7) // 8 if mode == "bitset" else 1 << p
    union = np.bitwise_or if mode == "bitset" else np.maximum
    state = g.map(_hyperball_init, mode, p, width)
    scatter = functools.partial(_hyperball_scatter, union)
    totals = []
    for r in range(1, max_iters + 1):
        gather = functools.partial(_hyperball_gather, mode, union, r)
        state, out = ops.superstep(g, state, scatter, gather)
        out = ray.get(out)
        totals.append(sum(n for _, n in out))
        if not sum(delta for delta, _ in out):
            return g, state, totals
    raise RuntimeError(f"host_harmonic_centrality did not converge in {max_iters} rounds")


def _harmonic_table(part: dict, state: dict) -> pa.Table:
    cnt, sd = state["cnt"], state["sum_dist"]
    # Bavelas closeness restricted to the in-ball (the standard
    # disconnected-graph convention): (reachable-1)/sum-of-dists
    closeness = np.where(sd > 0, (cnt - 1) / np.where(sd > 0, sd, 1.0), 0.0)
    return pl.DataFrame([
        _host_names(part),
        pl.Series("n_reachable", cnt),
        pl.Series("harmonic", state["harmonic"]),
        pl.Series("closeness", closeness),
    ]).to_arrow()


def host_harmonic_centrality(
    sf_dir: str,
    multiplier: int = 1,
    edges: rd.Dataset | None = None,
    mode: str = "bitset",
    p: int = 10,
    max_iters: int = 64,
) -> rd.Dataset:
    """Harmonic centrality of every host — HyperBall (Boldi & Vigna
    2013), THE neighborhood-function algorithm for web-scale graphs:
    ``H(v) = Σ_{u≠v} 1/d(u→v)`` computed from the growing in-ball
    ``ball_r(v) = ball_{r-1}(v) ∪ ⋃_{(u,v)∈E} ball_{r-1}(u)`` as
    ``H(v) += (|ball_r| − |ball_{r-1}|)/r`` per round; the same
    increments also yield the distance sum (``+ r·Δ``), hence Bavelas
    closeness, for free.

    Two interchangeable counter families behind one iteration:

    - ``mode="bitset"`` — EXACT: each host carries an n-bit bitmap
      whose bit v is host v's dense id.  O(n²) bits total, so this is
      the verification mode — the pytest oracle is per-node BFS.  Ball
      union is ``np.bitwise_or``.
    - ``mode="hll"`` — the 10^10-host scale path: 2^p one-byte
      registers per host (HyperBall proper; the repo's
      :class:`~..functions.sketches.HyperLogLog` discipline), union =
      ``np.maximum``, size estimates via the same
      small-range-corrected formula.  State is O(n·2^p) bytes sharded
      across partitions.

    Per round: one ``ops.superstep`` over the host graph's
    ``ops.dense_graph``.  Scatter unions each partition's counters per
    target (``union.reduceat`` over its out-edges, one fixed-width
    counter per target); gather unions them into the target's own
    counter and returns the partition's mass delta and ball-size sum —
    the driver ``ray.get``s P small tuples per round.  Counter mass is
    monotone, so delta == 0 is exact convergence.  Rounds = graph
    diameter + 1; loud failure past ``max_iters`` like the min-label
    family.
    """
    g, state, _ = _hyperball(sf_dir, multiplier, edges, mode, p, max_iters)
    return _vertex_dataset(g, _harmonic_table, per_part=(state,))


def host_effective_diameter(
    sf_dir: str,
    multiplier: int = 1,
    edges: rd.Dataset | None = None,
    mode: str = "bitset",
    p: int = 10,
    max_iters: int = 64,
    q: float = 0.9,
) -> rd.Dataset:
    """Effective diameter of the host graph — HyperBall's original
    purpose (Boldi & Vigna 2013 measured exactly this on web crawls):
    the smallest distance ``d`` (linearly interpolated) such that at
    least ``q`` of all reachable ordered pairs are within distance
    ``d``.  Runs :func:`host_harmonic_centrality`'s rounds; the
    neighbourhood function ``N(r) = Σ_v |ball_r(v)|`` is the per-round
    scalar those rounds already return, and ``N(0)`` is the vertex
    count, so this adds no exchange.
    """
    g, _, totals = _hyperball(sf_dir, multiplier, edges, mode, p, max_iters)
    n_hosts = g.num_vertices  # N(0): every ball starts as {v}
    ns = [float(n_hosts)] + totals
    target = q * ns[-1]
    d_eff = 0.0
    for d in range(len(ns)):
        if ns[d] >= target:
            if d == 0 or ns[d] == ns[d - 1]:
                d_eff = float(d)
            else:
                d_eff = (d - 1) + (target - ns[d - 1]) / (ns[d] - ns[d - 1])
            break
    # converged round repeats N(diam) → true diameter is one less
    diameter = max(len(totals) - 1, 0)
    return rd.from_arrow(
        pa.table(
            {
                "n_hosts": pa.array([n_hosts], pa.int64()),
                "diameter": pa.array([diameter], pa.int64()),
                "effective_diameter": pa.array([d_eff], pa.float64()),
                "reachable_pairs": pa.array([ns[-1]], pa.float64()),
            }
        )
    )


def _lpa_scatter(part: dict, label: np.ndarray, _scalars) -> pl.DataFrame:
    """Per target: the total edge weight behind each neighbor label."""
    return (
        pl.DataFrame({"dst": part["dst"], "label": label[part["src"]], "w": part["w"]})
        .group_by("dst", "label")
        .agg(pl.col("w").sum())
        .sort("dst")
    )


def _lpa_gather(part: dict, label: np.ndarray, msgs: pl.DataFrame, _scalars):
    """Heaviest label per host, ties to the smallest id (= smallest name)."""
    best = (
        msgs.group_by("dst", "label")
        .agg(pl.col("w").sum())
        .sort(["dst", "w", "label"], descending=[False, True, False])
        .group_by("dst", maintain_order=True)
        .first()
    )
    new = label.copy()
    new[best["dst"].to_numpy()] = best["label"].to_numpy()
    return new, None


def host_communities(
    sf_dir: str,
    multiplier: int = 1,
    edges: rd.Dataset | None = None,
    rounds: int = 8,
) -> rd.Dataset:
    """Fixed-round synchronous label-propagation communities over the
    undirected host graph → (host, community).

    LPA (Raghavan et al. 2007) made fully deterministic: every host
    starts labelled with itself; each round every host SYNCHRONOUSLY
    adopts the neighbor label with the largest total edge weight,
    ties broken by lexicographically smallest label.  The round count
    is FIXED (synchronous LPA can 2-cycle on bipartite structure, so
    "run to convergence" is not well-defined) — after exactly
    ``rounds`` rounds the labelling is a pure function of the graph,
    which is what the sequential pytest oracle replays
    (tests/test_graph_iter.py).  Communities differ from
    :func:`host_components`: a component is connectivity-only, a
    community follows weight density (a weakly-attached bridge host
    joins the side that links to it more).

    Scale shape: one undirected ``ops.dense_graph`` of the edges runs
    once; a pair's ``w`` counts its rows in both directions, so a pair
    linked both ways weighs the sum.  Labels are int64 host ids, so the
    tie rule is "smallest id".  Each round is one ``ops.superstep``: scatter sums
    weight per (target, label), gather takes the per-host argmax.  One
    last superstep routes each host to its label's owner, which turns
    the id back into a host name.
    """
    g = ops.dense_graph(_edges(sf_dir, multiplier, edges), "source_host", "target_host",
                        undirected=True)
    labels = g.map(lambda part: part["base"] + np.arange(part["n"]))
    for _ in range(rounds):
        labels, _ = ops.superstep(g, labels, _lpa_scatter, _lpa_gather)
    return _named_labels(g, labels, ("host", "community"))


def link_overlap_hll(
    sf_dir: str,
    host_a: str,
    host_b: str,
    p: int = 14,
    multiplier: int = 1,
    edges: rd.Dataset | None = None,
) -> pa.Table:
    """Audience-overlap estimate between two target hosts from merged
    HLL sketches — the 10^10-scale sibling of exact :func:`link_intersect`
    (backlink_service.py:627-653's competitive-intersect question).

    HLLs are closed under union (register-wise max), so
    ``|A∩B| ≈ est(A) + est(B) − est(A ∪ B)`` (inclusion–exclusion over
    three sketch estimates).  The exchange moves only sparse register
    blobs for the TWO filtered hosts: a pre-filter keeps just edges
    targeting A/B, the per-block sparse partial is ≤ 2 rows of
    O(distinct-in-block) bytes, and the driver fan-in is bounded by
    #blocks × 2 rows (the same bounded-fanin discipline as
    bloomjoin).  At p=14 the standard error per estimate is ~0.8%;
    the intersection estimate inherits the summed error, so it is a
    triage signal (which competitor pairs overlap enough to intersect
    exactly), not a replacement for the exact path.
    """
    partial = _hll_sparse_partial(p)

    def keep(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch).filter(pl.col("target_host").is_in([host_a, host_b]))
        return partial(df.select("target_host", "source_host").to_arrow())

    # bounded collection: ≤ 2 sparse rows per block
    rows = ops.collect_table(ops.map_blocks(_edges(sf_dir, multiplier, edges), keep)).to_pylist()
    m = 1 << p
    dense = {host_a: np.zeros(m, dtype=np.uint8), host_b: np.zeros(m, dtype=np.uint8)}
    for r in rows:
        entries = np.frombuffer(r["sketch"], dtype=np.uint32)
        reg = dense[r["target_host"]]
        np.maximum.at(reg, entries >> 6, (entries & 63).astype(np.uint8))

    a, b = dense[host_a], dense[host_b]
    ea, eb, eu = (float(e) for e in hll_estimate(np.stack([a, b, np.maximum(a, b)])))
    return pa.table(
        {
            "host_a": pa.array([host_a]),
            "host_b": pa.array([host_b]),
            "referring_a_est": pa.array([round(ea, 6)], pa.float64()),
            "referring_b_est": pa.array([round(eb, 6)], pa.float64()),
            "union_est": pa.array([round(eu, 6)], pa.float64()),
            "intersection_est": pa.array([round(max(0.0, ea + eb - eu), 6)], pa.float64()),
            "precision_p": pa.array([p], pa.int64()),
        }
    )
