"""General relational operators over the TPC-H-ish testdata tables.

These exercise the engine breadth the crawl/graph pipelines rely on —
grouped aggregation with per-block combiners (``ops.hash_aggregate``),
broadcast joins, partitioned hash joins for large⋈large
(``ops.tagged_union_join``), windowed top-k and session windows
(``ops.hash_group_apply``) — each with an exact DuckDB oracle.

Money sums use integer cents (floor(x*100 + 0.5), identical scalar op
in polars and DuckDB) so cross-engine float summation order can never
perturb the comparison.
"""

from __future__ import annotations

import math
import os

import numpy as np
import polars as pl
import pyarrow as pa
import ray
import ray.data as rd

from .. import ops
from ..functions.sketches import histogram_rank_values, stride_summary, weighted_quantile
from ..ops import hash_aggregate, hash_group_apply, tagged_union_join

__all__ = [
    "q1_lineitem",
    "revenue_by_nation",
    "order_priority_revenue",
    "top_parts_per_brand",
    "events_by_day",
    "events_hopping_window",
    "sessionize",
    "event_funnel",
    "cohort_retention",
    "events_asof_join",
    "events_range_join",
    "events_rollup",
    "value_percentiles",
    "value_quantiles_sketch",
]


def _scan(sf_dir: str, table: str, columns: list[str], fn=None) -> rd.Dataset:
    """``ops.scan`` of ``table``'s ``columns``, through ``fn`` if given."""
    return ops.scan(os.path.join(sf_dir, f"{table}.parquet"), columns, fn)


def _cents(col: str) -> pl.Expr:
    return (pl.col(col) * 100 + 0.5).floor().cast(pl.Int64)


# --- grouped aggregate with per-block combiner (TPC-H Q1 shape) ----------

def q1_lineitem(sf_dir: str) -> rd.Dataset:
    li = _scan(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )
    return hash_aggregate(
        li,
        ["l_returnflag", "l_linestatus"],
        combine=[
            _cents("l_quantity").sum().alias("sum_qty_cents"),
            _cents("l_extendedprice").sum().alias("sum_price_cents"),
            ((pl.col("l_extendedprice") * (1 - pl.col("l_discount"))) * 100 + 0.5)
            .floor()
            .cast(pl.Int64)
            .sum()
            .alias("sum_disc_price_cents"),
            pl.len().cast(pl.Int64).alias("count_order"),
        ],
        merge=[
            pl.col("sum_qty_cents").sum(),
            pl.col("sum_price_cents").sum(),
            pl.col("sum_disc_price_cents").sum(),
            pl.col("count_order").sum(),
        ],
    )


# --- broadcast join (small dimension side) -------------------------------

def revenue_by_nation(sf_dir: str) -> rd.Dataset:
    """orders ⋈ customer ⋈ nation, revenue per nation.

    customer and nation are dimension-sized → broadcast both through
    ``ray.put`` once; each batch does a polars join against the
    in-memory side.  No shuffle except the final tiny aggregate
    (J1's broadcast-join shape, crawl_service.py:638-654).
    """
    import pyarrow.parquet as pq

    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_nationkey"])
    nat = pq.read_table(os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"])
    dim = (
        pl.from_arrow(cust)
        .join(pl.from_arrow(nat), left_on="c_nationkey", right_on="n_nationkey")
        .select(["c_custkey", "n_name"])
    )
    # broadcast as an Arrow table: ray.get per batch is a zero-copy
    # plasma read, pl.from_arrow on a dimension table is O(columns).
    # Plain task pool — no actor spin-up, no autoscaling-pool
    # ctor-args restart fragility (ray#53727).
    ref = ray.put(dim.to_arrow())

    def lookup(batch: pa.Table) -> pa.Table:
        dim_l = pl.from_arrow(ray.get(ref))
        df = pl.from_arrow(batch)
        return (
            df.join(dim_l, left_on="o_custkey", right_on="c_custkey", how="left")
            .select(["n_name", "o_totalprice"])
            .to_arrow()
        )

    joined = _scan(sf_dir, "orders", ["o_custkey", "o_totalprice"], lookup)
    return hash_aggregate(
        joined,
        ["n_name"],
        combine=[
            _cents("o_totalprice").sum().alias("revenue_cents"),
            pl.len().cast(pl.Int64).alias("n_orders"),
        ],
        merge=[pl.col("revenue_cents").sum(), pl.col("n_orders").sum()],
    )


# --- partitioned hash join (large ⋈ large) -------------------------------

def order_priority_revenue(sf_dir: str) -> rd.Dataset:
    """lineitem ⋈ orders (both large) via the partitioned hash join,

    then revenue per o_orderpriority."""
    li = hash_aggregate(
        _scan(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"]),
        ["l_orderkey"],
        combine=[
            ((pl.col("l_extendedprice") * (1 - pl.col("l_discount"))) * 100 + 0.5)
            .floor()
            .cast(pl.Int64)
            .sum()
            .alias("rev_cents")
        ],
        merge=[pl.col("rev_cents").sum()],
    )
    orders = _scan(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    joined = tagged_union_join(li, orders, "l_orderkey", "o_orderkey")
    return hash_aggregate(
        joined,
        ["o_orderpriority"],
        combine=[pl.col("rev_cents").sum().alias("revenue_cents")],
        merge=[pl.col("revenue_cents").sum()],
    )


# --- windowed top-k -------------------------------------------------------

def top_parts_per_brand(sf_dir: str, k: int = 3) -> rd.Dataset:
    """Top-k parts by retail price per brand (deterministic tie-break

    on p_partkey) — the reference's O3 top-k shape as a window op."""

    def topk(df: pl.DataFrame) -> pl.DataFrame:
        return (
            df.sort(["p_brand", "p_retailprice", "p_partkey"], descending=[False, True, False])
            .with_columns(pl.col("p_partkey").cum_count().over("p_brand").cast(pl.Int64).alias("rank"))
            .filter(pl.col("rank") <= k)
        )

    return hash_group_apply(
        _scan(sf_dir, "part", ["p_brand", "p_partkey", "p_name", "p_retailprice"]),
        ["p_brand"],
        topk,
    )


# --- event-log analytics --------------------------------------------------

def events_by_day(sf_dir: str) -> rd.Dataset:
    """Tumbling daily counts per event type (A6's time-bucket shape)."""

    def add_day(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        return df.select(
            pl.col("ts").dt.truncate("1d").alias("day"),
            pl.col("event_type"),
            pl.col("value"),
        ).to_arrow()

    daily = _scan(sf_dir, "events", ["ts", "event_type", "value"], add_day)
    return hash_aggregate(
        daily,
        ["day", "event_type"],
        combine=[
            _cents("value").sum().alias("sum_value_cents"),
            pl.len().cast(pl.Int64).alias("n_events"),
        ],
        merge=[pl.col("sum_value_cents").sum(), pl.col("n_events").sum()],
    )


def sessionize(sf_dir: str, gap_minutes: int = 30) -> rd.Dataset:
    """Session windows per user (30-min inactivity gap).

    The ordered, partitioned-log pattern: hash-partition by user_id,
    sort by ts inside the partition, per-user gap-break cumulative sum
    = session id — fully vectorized over each partition.
    """

    def windows(df: pl.DataFrame) -> pl.DataFrame:
        df = df.sort(["user_id", "ts"])
        brk = (
            (pl.col("ts").diff().over("user_id") > pl.duration(minutes=gap_minutes))
            .fill_null(False)
            .cast(pl.Int64)
        )
        df = df.with_columns(brk.cum_sum().over("user_id").alias("session_id"))
        return (
            df.group_by(["user_id", "session_id"])
            .agg(
                pl.len().cast(pl.Int64).alias("n_events"),
                pl.col("ts").min().alias("start_ts"),
                pl.col("ts").max().alias("end_ts"),
            )
        )

    return hash_group_apply(
        _scan(sf_dir, "events", ["user_id", "event_id", "ts"]), ["user_id"], windows
    )


def events_rolling_window(sf_dir: str, days: int = 7) -> rd.Dataset:
    """Per-user sliding time-window aggregate: for every distinct
    ``(user_id, ts)``, the event count and value-cents sum over the
    trailing ``days``-day window ``[ts − days, ts]`` — the RANGE-frame
    window-function family (`sessionize` is the gap flavor,
    `events_hopping_window` the aligned-bucket flavor; this is the
    per-entity trailing-total a fraud/velocity rule evaluates).

    ONE hash exchange keyed user_id; the pre-combiner collapses each
    block to per-(user, ts) integer partials so only (user, ts, n,
    cents) rows move.  Inside a partition, polars ``rolling`` with
    ``closed="both"`` reproduces SQL ``RANGE BETWEEN INTERVAL n DAY
    PRECEDING AND CURRENT ROW`` exactly, peers included (parity pinned
    in the oracle); sums are integer cents, so no float drift.
    """
    ev = _scan(sf_dir, "events", ["user_id", "ts", "value"])

    def pre(df: pl.DataFrame) -> pl.DataFrame:
        return (
            df.with_columns(vc=(pl.col("value") * 100 + 0.5).floor().cast(pl.Int64))
            .group_by(["user_id", "ts"])
            .agg(pl.len().cast(pl.Int64).alias("n"), pl.col("vc").sum().alias("vc"))
        )

    def roll(df: pl.DataFrame) -> pl.DataFrame:
        merged = (
            df.group_by(["user_id", "ts"])
            .agg(pl.col("n").sum(), pl.col("vc").sum())
            .sort(["user_id", "ts"])
        )
        return merged.rolling(
            index_column="ts", period=f"{days}d", closed="both", group_by="user_id"
        ).agg(
            pl.col("n").sum().alias("n_events_7d"),
            pl.col("vc").sum().alias("sum_value_cents_7d"),
        )

    return hash_group_apply(ev, ["user_id"], roll, pre=pre)


def events_distinct_users(sf_dir: str) -> rd.Dataset:
    """Exact distinct-user cardinality per event type — the relational
    sibling of A4's referring-domain count (same pre-distinct combiner
    discipline: each block contributes its DISTINCT (type, user) pairs,
    so a hot type moves O(users) rows once, never O(events))."""
    ev = _scan(sf_dir, "events", ["event_type", "user_id"])

    def pre(df: pl.DataFrame) -> pl.DataFrame:
        return df.unique(subset=["event_type", "user_id"])

    def count(df: pl.DataFrame) -> pl.DataFrame:
        return (
            df.unique(subset=["event_type", "user_id"])
            .group_by("event_type")
            .agg(pl.len().cast(pl.Int64).alias("n_users"))
        )

    # key by event_type so each type's pairs co-locate once
    return hash_group_apply(ev, ["event_type"], count, pre=pre)


def watermark_lateness(sf_dir: str, bucket_size: int = 4096) -> rd.Dataset:
    """Streaming watermark / out-of-order accounting: replay the event
    stream in ARRIVAL order, hold a low watermark = max event time seen
    so far, and count per event type how many events arrive late (their
    ``ts`` below the watermark set by strictly-earlier arrivals) plus
    max/total lateness in microseconds — what a windowed streaming
    engine needs to size its allowed-lateness (the §2.9 concern made
    measurable).

    The testdata stream is time-ordered, so bounded network disorder is
    planted closed-form (the c4_filters decorator discipline): arrival
    sequence ``(event_id // 8)·8 + (7 − event_id % 8)`` — each 8-event
    block arrives reversed, so up to 7 events overtake their
    predecessors.  The oracle restates the permutation verbatim.

    A running max over a total order is a PREFIX SCAN, distributed the
    classic two-pass way: (1) per-arrival-bucket max(ts) partials via
    one tiny hash aggregate, prefix-maxed on the DRIVER (one scalar per
    bucket — the PageRank dangling-mass pattern, O(n/bucket_size));
    (2) one bucket-keyed exchange where each partition sorts its
    bucket, cum-maxes locally, offsets by the carried-in prefix, and
    emits per-type integer partials.  Events cross exactly one
    exchange; lateness stays integer µs throughout.
    """
    def with_arrival(batch: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(batch)
            .with_columns(arrival=(pl.col("event_id") // 8) * 8 + (7 - pl.col("event_id") % 8))
            .with_columns(bucket=pl.col("arrival") // bucket_size)
            .to_arrow()
        )

    ev = _scan(sf_dir, "events", ["event_id", "ts", "event_type"], with_arrival)

    # pass 1: per-bucket max(ts) — tiny rows to the driver
    bmax = hash_aggregate(
        ev, ["bucket"], combine=[pl.col("ts").max()], merge=[pl.col("ts").max()]
    )
    btab = (
        pl.from_arrow(ops.collect_table(bmax))
        .group_by("bucket")
        .agg(pl.col("ts").max())
        .sort("bucket")
    )
    # watermark entering bucket k = max over buckets < k (None for k=0)
    prefix = dict(
        zip(
            btab.get_column("bucket").to_list(),
            btab.get_column("ts").cum_max().shift(1).to_list(),
        )
    )

    def scan(df: pl.DataFrame) -> pl.DataFrame:
        df = df.sort(["bucket", "arrival"])
        wm_in = pl.col("bucket").replace_strict(prefix, return_dtype=pl.Datetime("us"))
        wm_prev = (
            pl.col("ts").cum_max().shift(1).over("bucket").fill_null(wm_in)
        )
        df = df.with_columns(
            wm=pl.max_horizontal(wm_in, wm_prev),
        ).with_columns(
            late_us=pl.when(pl.col("ts") < pl.col("wm"))
            .then((pl.col("wm") - pl.col("ts")).dt.total_microseconds())
            .otherwise(None)
        )
        return df.group_by("event_type").agg(
            pl.len().cast(pl.Int64).alias("n_events"),
            pl.col("late_us").is_not_null().sum().cast(pl.Int64).alias("n_late"),
            pl.col("late_us").max().fill_null(0).cast(pl.Int64).alias("max_lateness_us"),
            pl.col("late_us").sum().fill_null(0).cast(pl.Int64).alias("sum_lateness_us"),
        )

    parts = hash_group_apply(ev, ["bucket"], scan)
    return hash_aggregate(
        parts,
        ["event_type"],
        combine=[
            pl.col("n_events").sum(),
            pl.col("n_late").sum(),
            pl.col("max_lateness_us").max(),
            pl.col("sum_lateness_us").sum(),
        ],
        merge=[
            pl.col("n_events").sum(),
            pl.col("n_late").sum(),
            pl.col("max_lateness_us").max(),
            pl.col("sum_lateness_us").sum(),
        ],
    )


def event_funnel(
    sf_dir: str, steps: tuple[str, ...] = ("view", "click", "purchase")
) -> rd.Dataset:
    """Ordered-funnel conversion: how many users performed step 1,
    then step 2 STRICTLY AFTER their first step 1, then step 3 after
    that → ``(step, event_type, n_users)``.

    The sequential-pattern analytics sibling of ``sessionize`` (the
    reference's A8 fleet stats count events; a funnel counts ordered
    per-user chains).  Semantics: t₁ = first step-1 event; tᵢ = first
    step-i event after tᵢ₋₁ (the standard strict-order funnel, no
    conversion window).

    Shape: ONE hash exchange keyed user_id (thinned to the funnel's
    event types by the pre-combiner), a per-partition vectorized
    chain of filter→join→min per step — each partition holds all of
    its users' rows, so no cross-partition state — emitting one
    partial count row per step per partition, then a tiny sum
    aggregate.  Events cross the exchange once; counters after.
    """
    ev = _scan(sf_dir, "events", ["user_id", "event_type", "ts"])

    def pre(df: pl.DataFrame) -> pl.DataFrame:
        return df.filter(pl.col("event_type").is_in(list(steps)))

    def funnel(df: pl.DataFrame) -> pl.DataFrame:
        reached = []
        cur = (
            df.filter(pl.col("event_type") == steps[0])
            .group_by("user_id")
            .agg(pl.col("ts").min().alias("t"))
        )
        reached.append(cur.height)
        for s in steps[1:]:
            cur = (
                df.filter(pl.col("event_type") == s)
                .join(cur, on="user_id")
                .filter(pl.col("ts") > pl.col("t"))
                .group_by("user_id")
                .agg(pl.col("ts").min().alias("t"))
            )
            reached.append(cur.height)
        return pl.DataFrame(
            {
                "step": pl.Series(range(1, len(steps) + 1), dtype=pl.Int64),
                "event_type": list(steps),
                "n_users": pl.Series(reached, dtype=pl.Int64),
            }
        )

    partials = hash_group_apply(ev, ["user_id"], funnel, pre=pre)
    return hash_aggregate(
        partials,
        ["step", "event_type"],
        combine=[pl.col("n_users").sum()],
        merge=[pl.col("n_users").sum()],
    )


def cohort_retention(sf_dir: str, anchor_event: str = "signup") -> rd.Dataset:
    """Cohort retention matrix → ``(cohort_day, day_offset, n_users)``:
    users grouped by the day of their FIRST ``anchor_event``, counted
    on each later day they produced ANY event (distinct user-days, so
    a burst of events is one retention mark).

    The classic activation/retention analytic over the events stream
    (sibling of ``event_funnel``: funnel is ordered steps, cohorts are
    presence-over-time).  Shape: the SAME single hash exchange keyed
    user_id — each partition holds all of a user's events, so the
    per-user anchor, the ``ts >= t0`` trim and the distinct
    (user, day) reduction are all partition-local — then one thin sum
    aggregate over (cohort_day, day_offset) partial counts.
    """
    ev = _scan(sf_dir, "events", ["user_id", "event_type", "ts"])

    def cohort(df: pl.DataFrame) -> pl.DataFrame:
        anchors = (
            df.filter(pl.col("event_type") == anchor_event)
            .group_by("user_id")
            .agg(pl.col("ts").min().alias("t0"))
        )
        act = (
            df.join(anchors, on="user_id")
            .filter(pl.col("ts") >= pl.col("t0"))
            .select(
                "user_id",
                pl.col("t0").dt.truncate("1d").alias("cohort_day"),
                pl.col("ts").dt.truncate("1d").alias("d"),
            )
            .unique()
        )
        return act.group_by(
            "cohort_day",
            (pl.col("d") - pl.col("cohort_day")).dt.total_days().alias("day_offset"),
        ).agg(pl.len().cast(pl.Int64).alias("n_users"))

    partials = hash_group_apply(ev, ["user_id"], cohort)
    return hash_aggregate(
        partials,
        ["cohort_day", "day_offset"],
        combine=[pl.col("n_users").sum()],
        merge=[pl.col("n_users").sum()],
    )


def events_hopping_window(sf_dir: str, window_min: int = 60, hop_min: int = 30) -> rd.Dataset:
    """Hopping-window aggregate over the event stream (streaming-window
    breadth beyond the tumbling ``events_by_day`` and the session
    windows of ``sessionize``): each event lands in the
    ``window/hop`` overlapping windows that contain it, counted and
    summed per (window_start, event_type).

    Vectorized expansion inside the scan (truncate to the hop grid,
    shift back k hops), then one hash aggregate — the Ray shape of a
    streaming hopping window, fully SQL-mirrorable.
    """
    n_hops = window_min // hop_min

    def expand(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        cents = (pl.col("value") * 100 + 0.5).floor().cast(pl.Int64)
        df = df.with_columns(cents.alias("value_cents"))
        parts = []
        for k in range(n_hops):
            parts.append(
                df.select(
                    (
                        pl.col("ts").dt.truncate(f"{hop_min}m")
                        - pl.duration(minutes=hop_min * k)
                    ).alias("window_start"),
                    pl.col("event_type"),
                    pl.col("value_cents"),
                )
            )
        return pl.concat(parts).to_arrow()

    expanded = _scan(sf_dir, "events", ["ts", "event_type", "value"], expand)
    return hash_aggregate(
        expanded,
        ["window_start", "event_type"],
        combine=[
            pl.len().cast(pl.Int64).alias("n_events"),
            pl.col("value_cents").sum().alias("sum_value_cents"),
        ],
        merge=[pl.col("n_events").sum(), pl.col("sum_value_cents").sum()],
    )


def events_asof_join(sf_dir: str) -> rd.Dataset:
    """As-of join — each ``purchase`` event picks up the most recent
    ``signup`` of the same user at or before its timestamp (DuckDB
    ``ASOF JOIN`` semantics; the operator class Ray Data lacks
    natively, per the custom-operator mandate).

    Partitioning assumption: both sides hash-partition on ``user_id``
    (ONE exchange over already-thin event rows), then a per-partition
    vectorized sort + grouped forward-fill resolves the as-of match —
    no row loop, no driver materialization.  Signups are pre-collapsed
    to one row per (user_id, ts) (max event_id) so the tie case is
    deterministic on both engines.
    """

    def tag(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        sign = (
            df.filter(pl.col("event_type") == "signup")
            # block-local tie collapse; cross-block ties collapse again
            # inside the partition apply below
            .group_by(["user_id", "ts"])
            .agg(pl.col("event_id").max())
            .select(
                pl.lit(None, dtype=pl.Int64).alias("event_id"),
                "user_id",
                "ts",
                pl.col("event_id").alias("signup_event_id"),
            )
        )
        purch = df.filter(pl.col("event_type") == "purchase").select(
            "event_id",
            "user_id",
            "ts",
            pl.lit(None, dtype=pl.Int64).alias("signup_event_id"),
        )
        return pl.concat([sign, purch]).to_arrow()

    def asof(df: pl.DataFrame) -> pl.DataFrame:
        is_sign = pl.col("event_id").is_null()
        df = (
            df.group_by(["user_id", "ts", "event_id"])
            .agg(pl.col("signup_event_id").max())
            # signup sorts BEFORE a purchase at the same ts (>= is
            # inclusive in the oracle's ASOF condition)
            .sort(["user_id", "ts", "event_id"], nulls_last=False)
            .with_columns(
                pl.when(is_sign).then(pl.col("ts")).alias("_sig_ts"),
            )
            .with_columns(
                pl.col("signup_event_id").forward_fill().over("user_id"),
                pl.col("_sig_ts").forward_fill().over("user_id"),
            )
        )
        return df.filter(~is_sign).select(
            "event_id",
            "user_id",
            "ts",
            "signup_event_id",
            pl.col("_sig_ts").alias("signup_ts"),
        )

    tagged = _scan(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"], tag)
    return hash_group_apply(tagged, ["user_id"], asof)


_PCT_QS = (0.5, 0.9, 0.99)


def value_percentiles(sf_dir: str) -> rd.Dataset:
    """Exact distributed percentiles (p50/p90/p99) of event value per
    event type — the bounded-domain replacement for an approximate
    quantile sketch: because money is integer cents, a per-block
    (type, cents)-histogram aggregate is EXACT and the exchange carries
    at most |distinct cents| rows per type instead of every event.  A
    t-digest/KLL sketch is only needed when the value domain is
    unbounded; on a bounded domain this histogram shape is both exact
    and cheaper, and it is how the fleet-stats percentiles scale to
    10^12 events.

    Selection rule (mirrored exactly by the DuckDB oracle, which picks
    ``row_number - 1 == floor(q·(n-1))`` over the sorted values): the
    discrete lower-interpolation quantile.  The rank is a
    double-multiply + floor on both engines — bit-identical.
    """

    def cents_stage(batch: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(batch)
            .select("event_type", _cents("value").alias("cents"))
            .group_by(["event_type", "cents"])
            .len("cnt")
            .with_columns(pl.col("cnt").cast(pl.Int64))
            .to_arrow()
        )

    hist = hash_aggregate(
        _scan(sf_dir, "events", ["event_type", "value"], cents_stage),
        ["event_type", "cents"],
        combine=[pl.col("cnt").sum()],
        merge=[pl.col("cnt").sum()],
    )

    def pick(df: pl.DataFrame) -> pl.DataFrame:
        outs = []
        for (etype,), g in df.group_by("event_type"):
            g = g.sort("cents")
            n = int(g["cnt"].sum())
            ranks = [math.floor(q * float(n - 1)) for q in _PCT_QS]
            outs.append(
                pl.DataFrame(
                    {
                        "event_type": [etype] * len(_PCT_QS),
                        "q": list(_PCT_QS),
                        "pct_value_cents": histogram_rank_values(
                            g["cents"].to_numpy(), g["cnt"].to_numpy(), ranks
                        ),
                        "n_events": pl.Series([n] * len(_PCT_QS), dtype=pl.Int64),
                    }
                )
            )
        return pl.concat(outs)

    return hash_group_apply(hist, ["event_type"], pick)


def value_quantiles_sketch(sf_dir: str, eps: float = 0.005) -> rd.Dataset:
    """Approximate per-type value quantiles via a deterministic
    mergeable MRL summary — the UNBOUNDED-domain scale sibling of
    :func:`value_percentiles` (whose exact histogram relies on values
    being integer cents; a float/unbounded metric column has no such
    histogram, which is when a real pipeline reaches for a quantile
    sketch).

    Three bounded passes, each adding ≤ N/m weighted-rank error
    (m = ⌈4/eps⌉, sketches.stride_summary):

    1. per scan chunk: group by event_type, compact each group to m
       weighted order statistics — ≤ types·m rows leave any chunk;
    2. the ``pre`` of the exchange re-strides each route chunk of
       concatenated summaries (at most ``DEFAULT_EXCHANGE_BATCH`` rows →
       m rows per type), so the final group never sees O(blocks) rows;
    3. ``hash_group_apply`` per type: merge by concatenation + weighted
       quantile selection.

    Total weighted-rank error ≤ 3N/m < eps·N; the bound (and run-twice
    determinism — compaction is stride selection, not random sampling)
    is pinned in tests/test_sketches.py and tests against exact ranks
    in tests/test_textdata.py style.  Fleet-stats percentile anchor:
    monitoring_service latency rollups (SURVEY.md A8).
    """
    m = int(np.ceil(4.0 / eps))

    def restride(df: pl.DataFrame) -> pl.DataFrame:
        """(event_type, val, w) rows → ≤ m weighted rows per type."""
        types, vals, wts = [], [np.empty(0)], [np.empty(0)]
        for (etype,), g in df.group_by("event_type"):
            v, w = stride_summary(g["val"].to_numpy(), g["w"].to_numpy(), m)
            types.extend([etype] * len(v))
            vals.append(v)
            wts.append(w)
        return pl.DataFrame(
            {
                "event_type": pl.Series(types, dtype=pl.Utf8),
                "val": np.concatenate(vals),
                "w": np.concatenate(wts),
            }
        )

    def summarize(batch: pa.Table) -> pa.Table:
        return restride(
            pl.from_arrow(batch).select(
                "event_type", pl.col("value").cast(pl.Float64).alias("val"), pl.lit(1.0).alias("w")
            )
        ).to_arrow()

    summaries = _scan(sf_dir, "events", ["event_type", "value"], summarize)

    def final(df: pl.DataFrame) -> pl.DataFrame:
        outs = []
        for (etype,), g in df.group_by("event_type"):
            v = g["val"].to_numpy()
            w = g["w"].to_numpy()
            est = weighted_quantile(v, w, np.array(_PCT_QS))
            outs.append(
                pl.DataFrame(
                    {
                        "event_type": [etype] * len(_PCT_QS),
                        "q": list(_PCT_QS),
                        "est_value": est,
                        "n_events": [int(round(float(w.sum())))] * len(_PCT_QS),
                    }
                )
            )
        return pl.concat(outs).sort(["event_type", "q"])

    return hash_group_apply(summaries, ["event_type"], final, pre=restride)


_RJ_HOUR_US = 3_600_000_000
_RJ_BUCKET_US = 4 * _RJ_HOUR_US
# 2024-01-01T00:00:00 in µs since epoch, tz-free (events ts are naive,
# and polars Datetime("us") -> Int64 is wall-clock µs since epoch)
_RJ_BASE_US = 1_704_067_200_000_000


def events_range_join(sf_dir: str) -> rd.Dataset:
    """Distributed range (interval) join — the second custom-operator
    class Ray Data lacks natively (alongside :func:`events_asof_join`,
    per the custom-operator mandate): each event matches EVERY promo
    window whose half-open interval contains its timestamp, then
    per-window rollups (windows overlap, so an event can hit several —
    a genuine interval join, not bucketable as a plain equality key).

    Windows are a closed-form fan-out table (no driver block —
    ``ops.int_range``): ``w_id`` in ``[0, n_events//40 + 3)``, start =
    2024-01-01 + 4h·w_id, duration = (1 + w_id%6) hours, category =
    w_id % 3.  The DuckDB oracle restates them with
    ``generate_series``.

    Partitioning: time is cut into fixed 4h buckets (the window
    stride).  A window longer than one bucket is REPLICATED to each
    bucket it overlaps (≤2 copies here; ⌈dur/stride⌉ in general); an
    event lives in exactly ONE bucket, so every containment match is
    produced exactly once — no dedup pass.  One equality exchange on
    ``bucket`` (``tagged_union_join``) carrying only (bucket, ts_us,
    value_cents) event rows, a vectorized containment filter +
    per-block partial aggregate, then a thin (w_id → sums) merge
    exchange.  All comparisons are int64 microseconds; money is
    integer cents — nothing float crosses an exchange.

    At 100 TB the only knob is the bucket width: pick it near the
    median window span so replication stays O(1) copies per window
    while hot buckets stay splittable by raising ``num_partitions``.
    """
    n_events = ops.parquet_num_rows(os.path.join(sf_dir, "events.parquet"))
    n_windows = n_events // 40 + 3

    def mk_windows(batch: pa.Table) -> pa.Table:
        df = (
            pl.from_arrow(batch)
            .with_columns(
                start_us=_RJ_BASE_US + pl.col("w_id") * _RJ_BUCKET_US,
                dur_us=(1 + pl.col("w_id") % 6) * _RJ_HOUR_US,
                category=pl.col("w_id") % 3,
            )
            .with_columns(end_us=pl.col("start_us") + pl.col("dur_us"))
        )
        # replicate to each overlapped bucket: copy k valid iff the
        # window extends past the k-th bucket boundary (end exclusive)
        copies = (
            df.join(pl.DataFrame({"k": pl.Series([0, 1], dtype=pl.Int64)}), how="cross")
            .filter(pl.col("k") * _RJ_BUCKET_US < pl.col("dur_us"))
            .with_columns(bucket=pl.col("w_id") + pl.col("k"))
        )
        return copies.select("bucket", "w_id", "category", "start_us", "end_us").to_arrow()

    windows = ops.map_blocks(ops.int_range(n_windows, "w_id"), mk_windows)

    def ev_tag(batch: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(batch)
            .with_columns(
                ts_us=pl.col("ts").cast(pl.Int64),
                value_cents=_cents("value"),
            )
            .with_columns(bucket=(pl.col("ts_us") - _RJ_BASE_US) // _RJ_BUCKET_US)
            .select("bucket", "ts_us", "value_cents")
            .to_arrow()
        )

    ev = _scan(sf_dir, "events", ["ts", "value"], ev_tag)

    joined = tagged_union_join(
        ev,
        windows,
        "bucket",
        "bucket",
        how="inner",
        left_schema=pa.schema(
            [("bucket", pa.int64()), ("ts_us", pa.int64()), ("value_cents", pa.int64())]
        ),
        right_schema=pa.schema(
            [
                ("bucket", pa.int64()),
                ("w_id", pa.int64()),
                ("category", pa.int64()),
                ("start_us", pa.int64()),
                ("end_us", pa.int64()),
            ]
        ),
    )

    def contain(batch: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(batch)
            .filter(
                (pl.col("ts_us") >= pl.col("start_us")) & (pl.col("ts_us") < pl.col("end_us"))
            )
            .select("w_id", "category", "value_cents")
            .to_arrow()
        )

    return hash_aggregate(
        ops.map_blocks(joined, contain),
        ["w_id", "category"],
        combine=[
            pl.len().cast(pl.Int64).alias("n_events"),
            pl.col("value_cents").sum().alias("sum_value_cents"),
        ],
        merge=[pl.col("n_events").sum(), pl.col("sum_value_cents").sum()],
    )


# --- GROUPING SETS rollup: three levels from one scan ---------------------

def events_rollup(sf_dir: str) -> rd.Dataset:
    """(event_type, day) counts with per-type subtotals and a grand
    total — SQL's GROUP BY ROLLUP, emitted from ONE scan.

    The scale discipline: the input is aggregated once to the finest
    level (the only exchange that sees event rows); the coarser levels
    re-aggregate the FINEST AGGREGATE (|types × days| rows), never the
    input.  'ALL' markers replace SQL's NULL grouping keys so the rows
    stay hashable by the driver's value compare.
    """

    def add_day(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        return df.select(
            pl.col("event_type"),
            pl.col("ts").dt.truncate("1d").dt.strftime("%Y-%m-%d").alias("day"),
            _cents("value").alias("cents"),
        ).to_arrow()

    ev = _scan(sf_dir, "events", ["ts", "event_type", "value"], add_day)
    _agg = [
        pl.col("n_events").sum(),
        pl.col("sum_value_cents").sum(),
    ]
    finest = ops.map_blocks(
        hash_aggregate(
            ev,
            ["event_type", "day"],
            combine=[
                pl.len().cast(pl.Int64).alias("n_events"),
                pl.col("cents").sum().alias("sum_value_cents"),
            ],
            merge=_agg,
        ),
        lambda b: pl.from_arrow(b)
        .select("event_type", "day", "n_events", "sum_value_cents")
        .to_arrow(),
    )

    sub = ops.map_blocks(
        hash_aggregate(finest, ["event_type"], combine=_agg, merge=_agg),
        lambda b: pl.from_arrow(b)
        .select(
            "event_type",
            pl.lit("ALL").alias("day"),
            "n_events",
            "sum_value_cents",
        )
        .to_arrow(),
    )

    grand = hash_group_apply(
        ops.map_blocks(
            finest, lambda b: pl.from_arrow(b).with_columns(pl.lit(0).alias("g")).to_arrow()
        ),
        ["g"],
        lambda df: df.select(
            pl.lit("ALL").alias("event_type"),
            pl.lit("ALL").alias("day"),
            pl.col("n_events").sum(),
            pl.col("sum_value_cents").sum(),
        ),
    )

    return finest.union(sub, grand)
