"""Web-hygiene analytics: spam signals, URL-level curation filters,
and partition-skew diagnostics.

Reference anchors: the reference scores domains with a ``spam_level``
/ trust model (core/models.py DomainIntelligence fields,
services/domain_analyzer_service.py heuristics) and its crawler
filters URLs before fetch (utils/url_validator.py).  The shard
balance report is engine observability for the one thing that
degrades a 256-node run silently: hash-partition skew (the corpus
host 0 is a deliberate hub — the report must surface it).

All three operators emit integer/milli-unit columns only, so the
DuckDB oracles are bit-identical.
"""

from __future__ import annotations

import hashlib

import polars as pl
import pyarrow as pa
import ray.data as rd

from .. import ops
from ..ops import hash_aggregate, hash_group_apply, tagged_union_join

__all__ = [
    "host_spam_scores",
    "url_filter_scores",
    "shard_balance_report",
    "robots_block_rates",
    "range_partition_plan",
    "anchor_fuzzy_pairs",
]


# --- robots.txt compliance audit ------------------------------------------

class _RobotsAuditStage:
    """Actor-pool stage: parse every host's robots.txt ONCE per actor
    (``RobotsIndex`` in ``__init__`` — the T2 cache as a batch stage),
    then evaluate each URL with the real stdlib rule matcher in
    ``__call__``.  Per-URL evaluation is a Python call by necessity
    (RobotFileParser is per-path), which is exactly why it runs inside
    a concurrent actor pool rather than on the driver."""

    def __init__(self, robots_by_host: dict[str, str]):
        from ..state.politeness import RobotsIndex

        self.idx = RobotsIndex(robots_by_host)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions import canonical as can

        urls = batch.column("url").to_pylist()
        hosts = can.host_of_batch(urls)
        allowed = [self.idx.allowed(h, u) for h, u in zip(hosts, urls)]
        return pa.table(
            {
                "host": pa.array(hosts, pa.string()),
                "blocked": pa.array([not a for a in allowed], pa.bool_()),
            }
        )


def robots_block_rates(sf_dir: str, multiplier: int = 1) -> rd.Dataset:
    """Per-host robots.txt block rates over the whole page corpus —
    the compliance-audit view of S3 (how much of what we hold would
    robots deny TODAY?), a recrawl-policy input the reference's
    robots cache (utils/robots_parser.py) implies but never reports.

    The corpus robots bodies are closed-form (host_id % 7 == 3 ⇒
    "Disallow: /doc/"), so the DuckDB oracle can state the expected
    rates; the ENGINE parses the actual robots text and evaluates
    every URL through urllib's matcher inside an actor pool.
    """
    from ..sources.corpus import corpus_n_docs, robots_map
    from ..ops import auto_concurrency
    from .graph import pages_dataset

    robots = robots_map(corpus_n_docs(sf_dir, multiplier))

    evaluated = pages_dataset(sf_dir, multiplier, columns=["url"]).map_batches(
        _RobotsAuditStage,
        fn_constructor_args=(robots,),
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=auto_concurrency(),
    )

    per_host = hash_aggregate(
        evaluated,
        ["host"],
        combine=[
            pl.len().alias("n_urls"),
            pl.col("blocked").cast(pl.Int64).sum().alias("n_blocked"),
        ],
        merge=[pl.col("n_urls").sum(), pl.col("n_blocked").sum()],
    )

    return ops.map_blocks(
        per_host,
        lambda b: pl.from_arrow(b)
        .with_columns(
            ((pl.col("n_blocked") * 1000) // pl.col("n_urls")).alias("block_rate_milli")
        )
        .to_arrow(),
    )


# --- link-spam signals per host -------------------------------------------

def host_spam_scores(sf_dir: str, multiplier: int = 1) -> rd.Dataset:
    """Per-host link-spam signals from the edge graph.

    Signals (all integer, oracle-exact):
      outdeg            - edges emitted by the host
      indeg             - edges received
      distinct_anchors  - anchor-text diversity of its out-links
      spam_score_milli  - 1000·outdeg/(indeg+1)  (link-farm ratio)
                          + 500 if 5·distinct_anchors < outdeg
                          (template-anchor penalty)
      is_spam           - score ≥ 2000

    Three aggregates over ONE materialized edge extraction (counts are
    hash_aggregate; anchor distinctness pre-thins per block with a
    (host, anchor) unique before the exchange), then two partitioned
    full joins — no broadcast, hub hosts bounded by the per-block
    combiner.  Reference: domain_analyzer_service.py spam heuristics.
    """
    from .graph import edges_dataset

    edges = edges_dataset(sf_dir, multiplier)

    outdeg = hash_aggregate(
        edges,
        ["source_host"],
        combine=[pl.len().alias("outdeg")],
        merge=[pl.col("outdeg").sum()],
    )
    indeg = hash_aggregate(
        edges,
        ["target_host"],
        combine=[pl.len().alias("indeg")],
        merge=[pl.col("indeg").sum()],
    )
    anchors = hash_group_apply(
        edges,
        ["source_host"],
        lambda df: df.group_by("source_host").agg(
            pl.col("anchor_text").n_unique().cast(pl.Int64).alias("distinct_anchors")
        ),
        pre=lambda df: df.select("source_host", "anchor_text").unique(),
    )

    out_side = tagged_union_join(
        outdeg,
        anchors,
        "source_host",
        "source_host",
        left_schema=pa.schema([("source_host", pa.string()), ("outdeg", pa.int64())]),
        right_schema=pa.schema([("source_host", pa.string()), ("distinct_anchors", pa.int64())]),
    )

    joined = tagged_union_join(
        out_side,
        indeg,
        "source_host",
        "target_host",
        how="full",
        left_schema=pa.schema(
            [("source_host", pa.string()), ("outdeg", pa.int64()), ("distinct_anchors", pa.int64())]
        ),
        right_schema=pa.schema([("target_host", pa.string()), ("indeg", pa.int64())]),
    )

    def score(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        outd = pl.col("outdeg").fill_null(0)
        ind = pl.col("indeg").fill_null(0)
        da = pl.col("distinct_anchors").fill_null(0)
        spam = (outd * 1000) // (ind + 1) + pl.when(da * 5 < outd).then(500).otherwise(0)
        return df.select(
            pl.coalesce(pl.col("source_host"), pl.col("target_host")).alias("host"),
            outd.alias("outdeg"),
            ind.alias("indeg"),
            da.alias("distinct_anchors"),
            spam.cast(pl.Int64).alias("spam_score_milli"),
            (spam >= 2000).alias("is_spam"),
        ).to_arrow()

    return ops.map_blocks(joined, score)


# --- RefinedWeb-style URL curation filter ---------------------------------

def url_filter_scores(
    sf_dir: str,
    multiplier: int = 1,
    blocklist: list[str] | None = None,
    max_digit_ratio_milli: int = 300,
    max_url_len: int = 120,
) -> rd.Dataset:
    """URL-level curation scoring (RefinedWeb / Penedo et al. 2023
    filter 1: drop documents by URL alone, before any text is read).

    Per page URL: length, digit count, digit_ratio_milli =
    floor(1000·digits/len), blocklisted-domain membership (the
    blocklist rides the task closure — a few MB even for real-world
    lists), and the composite keep flag.  One scan wave over the
    single-column pruned read; no exchange at all.
    """
    from .graph import corpus_files
    from ..functions import canonical as can
    from ..sources.corpus import corpus_n_docs, host_name, n_hosts

    if blocklist is None:
        # deterministic synthetic blocklist: every 17th host id ending
        # in 9 mod 17 (closed-form so the oracle can recompute it)
        nh = n_hosts(corpus_n_docs(sf_dir, multiplier))
        blocklist = [host_name(h) for h in range(nh) if h % 17 == 9]
    bset = pl.Series("b", blocklist)

    def score(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        hosts = pl.Series("host", can.host_of_batch(df["url"].to_list()))
        df = df.with_columns(hosts)
        ulen = pl.col("url").str.len_chars().cast(pl.Int64)
        digits = pl.col("url").str.count_matches(r"[0-9]").cast(pl.Int64)
        ratio = (digits * 1000) // ulen
        blocked = pl.col("host").is_in(bset)
        return df.select(
            "url",
            ulen.alias("url_len"),
            ratio.alias("digit_ratio_milli"),
            blocked.alias("blocklisted"),
            (
                ~blocked
                & (ratio <= max_digit_ratio_milli)
                & (ulen <= max_url_len)
            ).alias("keep"),
        ).to_arrow()

    return ops.scan(corpus_files(sf_dir, multiplier), ["url"], score)


# --- partition-skew diagnostics -------------------------------------------

def shard_balance_report(sf_dir: str, multiplier: int = 1, num_shards: int = 32) -> rd.Dataset:
    """Rows-per-shard diagnostics for host-keyed partitioning.

    shard(host) = first 4 hex chars of md5(host) mod ``num_shards`` —
    the same PORTABLE hash convention as dataset_split, so any engine
    (and the DuckDB oracle) assigns identical shards.  Emits per
    shard: n_docs, n_hosts, and max_host_docs (the largest single
    host inside the shard — the corpus hub host 0 must show up here).
    The md5 loop runs over DISTINCT hosts only, after the per-block
    (host → count) combiner, so its cost is O(#hosts), not O(rows).
    """
    from .graph import corpus_files
    from ..functions import canonical as can

    def to_host(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        return pl.DataFrame(
            {"host": can.host_of_batch(df["url"].to_list())}, schema={"host": pl.Utf8}
        ).to_arrow()

    per_host = hash_aggregate(
        ops.scan(corpus_files(sf_dir, multiplier), ["url"], to_host),
        ["host"],
        combine=[pl.len().alias("n")],
        merge=[pl.col("n").sum()],
    )

    def assign_shard(df: pl.DataFrame) -> pl.DataFrame:
        shard = [
            int(hashlib.md5(h.encode()).hexdigest()[:4], 16) % num_shards
            for h in df["host"].to_list()
        ]
        return df.with_columns(pl.Series("shard", shard, dtype=pl.Int64))

    return hash_group_apply(
        per_host,
        ["shard"],
        lambda df: df.group_by("shard").agg(
            pl.col("n").sum().alias("n_docs"),
            pl.len().cast(pl.Int64).alias("n_hosts"),
            pl.col("n").max().alias("max_host_docs"),
        ),
        pre=assign_shard,
    )


# --- equi-depth range-partition planner ------------------------------------

def range_partition_plan(sf_dir: str, num_parts: int = 8) -> rd.Dataset:
    """Plan ``num_parts`` range partitions over event value and report
    the balance each would actually get — the planning step behind
    every distributed sort / range shuffle (Ray's sort, like
    TeraSort's, samples split points; a bad split plan is how a sort
    stage ends up with one straggler reducer).

    Exact, not sampled: money is integer cents, so the per-block
    (cents → count) histogram aggregate is exact and the exchange
    carries |distinct cents| rows, never events (the value_percentiles
    discipline).  Bounds are the lower-interpolation quantiles at rank
    (k·n)//P; rows then land in part = #{bounds ≤ v}, so duplicate
    bound values (heavy ties) produce EMPTY partitions rather than
    silently splitting a tied value across two reducers — exactly the
    skew the report exists to surface.  The final plan step runs over
    the full (bounded) histogram in one task; at an unbounded domain
    the histogram swaps for the MRL sketch (value_quantiles_sketch).
    """
    import os

    import numpy as np

    from ..functions.sketches import histogram_rank_values

    def cents_hist(batch: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(batch)
            .select(((pl.col("value") * 100 + 0.5).floor().cast(pl.Int64)).alias("cents"))
            .group_by("cents")
            .len("cnt")
            .with_columns(pl.col("cnt").cast(pl.Int64))
            .to_arrow()
        )

    hist = hash_aggregate(
        ops.scan(os.path.join(sf_dir, "events.parquet"), ["value"], cents_hist),
        ["cents"],
        combine=[pl.col("cnt").sum()],
        merge=[pl.col("cnt").sum()],
    )

    def plan(df: pl.DataFrame) -> pl.DataFrame:
        df = df.sort("cents")
        cents = df["cents"].to_numpy()
        cnt = df["cnt"].to_numpy()
        n = int(cnt.sum())
        bounds = histogram_rank_values(cents, cnt, [(k * n) // num_parts for k in range(1, num_parts)])
        part = np.searchsorted(np.sort(bounds), cents, side="right")
        out = pl.DataFrame(
            {"part": part.astype("int64"), "cents": cents, "cnt": cnt}
        )
        return out.group_by("part").agg(
            pl.col("cnt").sum().alias("n_rows"),
            pl.col("cents").min().alias("lo_cents"),
            pl.col("cents").max().alias("hi_cents"),
        )

    # one logical group: the plan needs the whole ordered histogram —
    # bounded by |distinct cents|, not |events|
    return hash_group_apply(hist, ["g"], lambda df: plan(df.drop("g")),
                            pre=lambda df: df.with_columns(pl.lit(0).alias("g")))


# --- fuzzy self-join by deletion-neighborhood blocking ---------------------

def _ed_le_1(a: str, b: str) -> bool:
    """Exact edit-distance ≤ 1 check for a ≠ b (two short strings)."""
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(x != y for x, y in zip(a, b)) <= 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    # b is a+1 chars: allow exactly one skip in b
    i = j = 0
    skipped = False
    while i < la and j < lb:
        if a[i] == b[j]:
            i += 1
            j += 1
        elif not skipped:
            skipped = True
            j += 1
        else:
            return False
    return True


def anchor_fuzzy_pairs(sf_dir: str, multiplier: int = 1) -> rd.Dataset:
    """All pairs of DISTINCT anchor texts at edit distance ≤ 1 — the
    fuzzy self-join behind typo-cluster normalization (near-identical
    anchors/URLs that exact dedup misses).

    The scalable plan is DELETION-NEIGHBORHOOD BLOCKING (the FastSS /
    SymSpell construction): every string s emits block keys
    {s} ∪ {s minus position i}; any two strings within edit distance 1
    (substitution, insertion, or deletion) provably share at least one
    key, so candidates form inside key-partitions — never an all-pairs
    product — and an exact ≤1 check kills the block-collision false
    positives (e.g. "ab"/"ba" share deletion key "a" at distance 2).
    The DuckDB oracle IS the all-pairs levenshtein join, which is the
    O(V²) plan this operator exists to avoid.
    """
    from .graph import edges_dataset

    anchors = hash_aggregate(
        edges_dataset(sf_dir, multiplier),
        ["anchor_text"],
        combine=[pl.len().alias("c")],
        merge=[pl.col("c").sum()],
    )

    def deletion_keys(batch: pa.Table) -> pa.Table:
        keys, strs = [], []
        for s in batch.column("anchor_text").to_pylist():
            keys.append(s)
            strs.append(s)
            for i in range(len(s)):
                keys.append(s[:i] + s[i + 1 :])
                strs.append(s)
        return pa.table({"k": pa.array(keys, pa.string()), "s": pa.array(strs, pa.string())})

    blocked = ops.map_blocks(anchors, deletion_keys)

    def pairs_in_block(df: pl.DataFrame) -> pl.DataFrame:
        df = df.unique()
        out_a, out_b = [], []
        for _, sub in df.group_by("k"):
            ss = sorted(sub["s"].to_list())
            for i in range(len(ss)):
                for j in range(i + 1, len(ss)):
                    if _ed_le_1(ss[i], ss[j]):
                        out_a.append(ss[i])
                        out_b.append(ss[j])
        return pl.DataFrame({"a": out_a, "b": out_b}, schema={"a": pl.Utf8, "b": pl.Utf8})

    candidate_pairs = hash_group_apply(blocked, ["k"], pairs_in_block)

    # a pair can match under several shared keys — one dedup exchange
    deduped = hash_aggregate(
        candidate_pairs,
        ["a", "b"],
        combine=[pl.len().alias("c")],
        merge=[pl.col("c").sum()],
    )
    return ops.map_blocks(
        deduped,
        lambda b: pl.from_arrow(b)
        .select("a", "b", pl.lit(1, dtype=pl.Int64).alias("dist"))
        .to_arrow(),
    )
