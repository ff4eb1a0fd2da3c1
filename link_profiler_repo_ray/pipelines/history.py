"""Historical snapshot analytics — the Ray analogue of the
reference's historical-data service (services/historical_data_service.py:
stores per-crawl snapshots and answers "what changed between runs")
and its redirect handling (crawlers/web_crawler.py follows 3xx chains
to a final URL before dedup/indexing).

Two operator classes live here, both absent elsewhere in the engine:

``snapshot_diff``
    Full-outer diff of two crawl snapshots by content hash — the
    added/removed/changed/unchanged classification every recrawl
    scheduler needs.  Only (doc_id, md5) pairs cross the exchange;
    document text is hashed inside the scan block and never shipped.

``redirect_chains``
    Resolve multi-hop redirect chains to their final destination by
    POINTER DOUBLING (path halving): each iteration joins the current
    mapping with itself, squaring the distance covered, so a chain of
    length L resolves in ceil(log2 L) partitioned exchanges instead of
    L sequential lookups.  This is the classic parallel
    pointer-jumping technique (Wyllie '79 / Shiloach-Vishkin) — the
    right shape for 10^10-row redirect tables where per-row chasing
    would need L full passes.
"""

from __future__ import annotations

import hashlib
import os

import polars as pl
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from .. import ops
from ..ops import tagged_union_join

__all__ = ["snapshot_diff", "redirect_chains", "profiles_incremental"]


def _md5_col(texts: list[str]) -> list[str]:
    # portable content hash: DuckDB's md5() recomputes the identical
    # digest, so the diff below is cross-engine exact (same rationale
    # as dataset_split's md5 bucket: portability over speed; the
    # per-row loop runs inside the scan wave of a pruned 2-column read)
    return [hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts]


# --- snapshot diff --------------------------------------------------------

def snapshot_diff(sf_dir: str) -> rd.Dataset:
    """Classify every URL across two crawl snapshots.

    Snapshot A is the documents corpus as-is; snapshot B is the
    deterministic "next crawl": docs with ``doc_id % 41 == 6`` have
    dropped out (404/expired), docs with ``doc_id % 9 == 2`` changed
    content (text + " [updated]"), and each doc with
    ``doc_id % 23 == 3`` spawned one new page (doc_id + max_id + 1,
    text + " [new]").  The diff itself is generic: hash text per
    scan chunk, full-outer-join the two (doc_id, hash) streams through
    one partitioned exchange whose merge also classifies added /
    removed / changed / unchanged.  Reference: historical_data_service.py's
    snapshot-compare queries.
    """
    path = os.path.join(sf_dir, "documents.parquet")
    # new-doc id base: one scan wave of per-chunk maxima of doc_id
    maxima = ops.collect_table(ops.scan(path, ["doc_id"], lambda t: pa.table(
        {"m": pa.array([pc.max(t["doc_id"]).as_py()], pa.int64())})))
    base = (pc.max(maxima["m"]).as_py() or 0) + 1

    def hash_a(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        return df.select(
            "doc_id", pl.Series("h_a", _md5_col(df["text"].to_list()), dtype=pl.Utf8)
        ).to_arrow()

    def synth_b(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        kept = df.filter(pl.col("doc_id") % 41 != 6).select(
            "doc_id",
            pl.when(pl.col("doc_id") % 9 == 2)
            .then(pl.col("text") + pl.lit(" [updated]"))
            .otherwise(pl.col("text"))
            .alias("text"),
        )
        added = df.filter(pl.col("doc_id") % 23 == 3).select(
            (pl.col("doc_id") + base).alias("doc_id"),
            (pl.col("text") + pl.lit(" [new]")).alias("text"),
        )
        b = pl.concat([kept, added])
        return b.select(
            pl.col("doc_id").alias("doc_id_b"),
            pl.Series("h_b", _md5_col(b["text"].to_list()), dtype=pl.Utf8),
        ).to_arrow()

    def classify(a: pl.DataFrame, b: pl.DataFrame) -> pl.DataFrame:
        return a.join(b, left_on="doc_id", right_on="doc_id_b", how="full").select(
            pl.coalesce(pl.col("doc_id"), pl.col("doc_id_b")).alias("doc_id"),
            pl.when(pl.col("h_a").is_null())
            .then(pl.lit("added"))
            .when(pl.col("h_b").is_null())
            .then(pl.lit("removed"))
            .when(pl.col("h_a") != pl.col("h_b"))
            .then(pl.lit("changed"))
            .otherwise(pl.lit("unchanged"))
            .alias("status"),
        )

    cols = ["doc_id", "text"]
    return ops._exchange(
        [
            (ops.scan(path, cols, hash_a), ["doc_id"], None,
             pa.schema([("doc_id", pa.int64()), ("h_a", pa.string())])),
            (ops.scan(path, cols, synth_b), ["doc_id_b"], None,
             pa.schema([("doc_id_b", pa.int64()), ("h_b", pa.string())])),
        ],
        classify,
        None,
        ops.DEFAULT_EXCHANGE_BATCH,
    )


# --- redirect resolution by pointer doubling ------------------------------

def _step(col: pl.Expr) -> pl.Expr:
    """One redirect hop: doc d 3xx-redirects iff d % 3 != 0 and d > 0,
    landing on max(d - ((2d mod 5) + 1), 0).  Steps always move down,
    so chains are acyclic; ~2/3 of docs redirect, giving geometric
    chain lengths (a handful of hops typically, tails of a few dozen).
    """
    return pl.max_horizontal(col - ((col * 2) % 5 + 1), pl.lit(0, dtype=pl.Int64))


def _is_redirect(col: pl.Expr) -> pl.Expr:
    return (col % 3 != 0) & (col > 0)


def _advance(joined: pa.Table):
    """Doubling wave (one block of the mapping joined with itself on
    ``final_id`` = ``doc_id``): m_{k+1}(d) = m_k(m_k(d)) with the hops
    added, and the number of rows whose cursor still redirects (its own
    mapping moves it, ``hops_right`` > 0)."""
    df = pl.from_arrow(joined)
    out = df.select(
        "doc_id",
        pl.col("final_id_right").alias("final_id"),
        (pl.col("hops") + pl.col("hops_right")).alias("hops"),
    )
    return (*ops._with_meta(out.to_arrow()), int((df["hops_right"] > 0).sum()))


def redirect_chains(sf_dir: str, max_iters: int = 40) -> rd.Dataset:
    """(doc_id, final_id, hops): final destination of every doc's
    redirect chain.

    The redirect TABLE is synthesized closed-form (see ``_step``) so a
    DuckDB recursive CTE can recompute the expected fixpoint, but the
    resolution itself is generic pointer doubling over that table:
    mapping m0(d) = one hop (or d itself if terminal), one ``ops.scan``
    wave; each round joins m with itself through one
    ``tagged_union_join`` (``final_id`` against ``doc_id``) and one wave
    of plain Ray tasks forms m_{k+1}(d) = m_k(m_k(d)) with hops added,
    doubling the resolved distance per round, and counts the rows of
    m_k whose cursor still redirects.  Convergence = that count is 0;
    loud failure on non-convergence, like the min-label components
    program (``graph.min_label_components``).  Pointer doubling is a
    self-join of the mapping, not an edge-push program, so it runs on
    exchanges, not ``ops.superstep``; no round starts a Ray Data
    execution.
    """
    def init_map(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        red = _is_redirect(pl.col("doc_id"))
        return df.select(
            "doc_id",
            pl.when(red).then(_step(pl.col("doc_id"))).otherwise(pl.col("doc_id")).alias("final_id"),
            red.cast(pl.Int64).alias("hops"),
        ).to_arrow()

    mapping = ops.scan(os.path.join(sf_dir, "documents.parquet"), ["doc_id"], init_map)
    for _ in range(max_iters):
        _, refs, _ = ops._blocks(tagged_union_join(mapping, mapping, "final_id", "doc_id"))
        out = ops._wave(_advance, [(r,) for r in refs], 3)
        if not sum(ray.get([o[2] for o in out])):
            return mapping
        mapping = ops._dataset([o[:2] for o in out])
    raise RuntimeError(
        f"redirect_chains: chains unresolved after {max_iters} doubling rounds"
    )


# --- incremental view maintenance of link profiles ------------------------

_LINK_TYPES = ("dofollow", "nofollow", "sponsored", "ugc")


def profiles_incremental(sf_dir: str, multiplier: int = 1) -> rd.Dataset:
    """Link profiles AFTER a recrawl delta, by INCREMENTAL maintenance
    — apply the delta to a stored pair index instead of recomputing
    the web graph.

    At 10^10 URLs a recrawl touches a sliver of the corpus; rebuilding
    every profile from scratch is the classic mistake.  The
    maintainable state is the (target_url, source_host) PAIR index
    with counts (the same partial link_profiles pre-aggregates):
    counts are summable AND subtractable, and distinct-referrer
    cardinality — which is NOT subtractable from the rolled-up
    profile — falls out as the count of pairs with n > 0.

    Delta model: the snapshot_diff recrawl drops docs with
    ``doc_id % 41 == 6``; their out-edges enter the delta stream with
    sign −1.  Plan: one pair-keyed exchange builds the stored index,
    the (tiny) delta aggregates through the same exchange shape, and
    one target-keyed exchange of both (a target's pairs all land in its
    partition) re-merges each pair, drops dead pairs (n = 0) and rolls
    up profiles.  Equality with a full recompute over the surviving
    docs is pytest-pinned; the SQL oracle recomputes profiles over
    edges whose source doc survives.
    """
    from .graph import edges_dataset
    from ..ops import hash_aggregate

    edges = edges_dataset(sf_dir, multiplier)
    pair = ["target_url", "source_host"]

    def pair_combine(sign: int):
        return [
            (pl.len().cast(pl.Int64) * sign).alias("n"),
            *[
                ((pl.col("link_type") == t).sum().cast(pl.Int64) * sign).alias(
                    f"{t}_backlinks"
                )
                for t in _LINK_TYPES
            ],
        ]

    _MERGE = [
        pl.col("n").sum(),
        *[pl.col(f"{t}_backlinks").sum() for t in _LINK_TYPES],
    ]

    # stored state: the full pair index of snapshot A
    pairs_state = hash_aggregate(edges, pair, combine=pair_combine(+1), merge=_MERGE)

    # delta stream: out-edges of the docs the recrawl removed, sign -1
    def removed_only(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        d = pl.col("source_url").str.extract(r"/doc/(\d+)$", 1).cast(pl.Int64)
        return df.filter(d % 41 == 6).to_arrow()

    pairs_delta = hash_aggregate(
        ops.map_blocks(edges, removed_only), pair, combine=pair_combine(-1), merge=_MERGE
    )

    def profile(state: pl.DataFrame, delta: pl.DataFrame) -> pl.DataFrame:
        merged = (
            pl.concat([state, delta], how="vertical_relaxed")
            .group_by(pair)
            .agg(_MERGE)
            .filter(pl.col("n") > 0)
        )
        return merged.group_by("target_url").agg(
            pl.col("n").sum().alias("total_backlinks"),
            pl.len().cast(pl.Int64).alias("unique_referring_domains"),
            *[pl.col(f"{t}_backlinks").sum() for t in _LINK_TYPES],
        )

    return ops._exchange(
        [(pairs_state, ["target_url"], None, None), (pairs_delta, ["target_url"], None, None)],
        profile,
        None,
        ops.DEFAULT_EXCHANGE_BATCH,
    )
