"""Link-building prospects + outreach campaign rollups.

The reference's ``services/link_building_service.py:52-205``
(``identify_and_score_prospects``) combines two data-driven
strategies — competitor-backlink difference and SERP keyword ranking —
scores each prospect with a closed-form model
(``_calculate_prospect_score``, :173-204), and persists
``LinkProspect`` rows (``core/models.py:765-801``).
``OutreachCampaign``/``OutreachEvent`` (``core/models.py:803-860``)
track per-campaign counters over those prospects.  Its third strategy
(AI-generated content ideas, :144-172) seeds URLs from
``random.randint`` — non-deterministic by construction — so it is
intentionally out of scope here; the two reproducible strategies are
implemented exactly.

Scale shape (the part the reference's per-domain ``await`` loop cannot
do): strategy 1 is ONE hash-partitioned exchange keyed by source host
carrying two booleans per (host, block) partial; strategy 2 reuses the
distributed SERP ingest; the two strategies are the two sides of ONE
more exchange keyed by prospect URL, whose merge dedups and scores.
Domain metrics are closed-form in host_id
(``research.synthetic_domain_metrics``'s stand-in for the Postgres
domains table), computed vectorized inside that merge — no metrics
join, no broadcast, nothing on the driver.
"""

from __future__ import annotations

import polars as pl
import pyarrow as pa
import ray.data as rd

from .. import ops
from ..ops import hash_aggregate
from . import graph

__all__ = ["link_prospects", "outreach_campaign_stats"]

DEFAULT_PRIMARY = "h1.example.com"
DEFAULT_COMPETITORS = ("h2.example.com", "h3.example.com")

# WHOIS stand-in for the age bonus (link_building_service.py:192-194
# reads Domain.age_days off the domains table): closed-form in host_id
# like the rest of synthetic_domain_metrics, so the DuckDB oracle
# reproduces the join.
_AGE_MOD = 4000


def _host_id() -> pl.Expr:
    return (
        pl.col("host").str.strip_prefix("h").str.strip_suffix(".example.com").cast(pl.Int64)
    )


def link_prospects(
    sf_dir: str,
    primary: str = DEFAULT_PRIMARY,
    competitors: tuple = DEFAULT_COMPETITORS,
    min_authority: int = 20,
    max_spam: int = 30,
    multiplier: int = 1,
    edges: rd.Dataset | None = None,
) -> rd.Dataset:
    """Identify + score link-building prospects
    (link_building_service.py:52-205).

    Strategy 1 — competitor backlink difference (:76-111): hosts with
    an edge to any competitor but none to the primary domain; prospect
    URL is the host root, reason ``links_to_competitor``.
    Strategy 2 — SERP ranking (:113-142): every distinct SERP result
    URL whose host is neither the primary nor a competitor, reason
    ``ranks_for_keyword``.  (The reference applies no self-exclusion
    in strategy 1 and excludes primary+competitors in strategy 2;
    both reproduced exactly.)

    Both feed the closed-form score (:173-204): authority·0.5 +
    trust·0.2 − spam·0.3 (the reference's 0-1 trust/spam scaled to
    this engine's 0-99 metrics), +10 dofollow, +5 if the domain is
    older than three years, +15 "Ranks for", +10 "Links to
    competitor", clamped to [0, 100]; prospects below the authority
    floor or above the spam ceiling are dropped (:96, :126).
    """
    comps = list(competitors)
    if edges is None:
        edges = graph.edges_dataset(sf_dir, multiplier)

    # --- strategy 1: ONE exchange keyed by source_host --------------
    host_flags = hash_aggregate(
        edges,
        ["source_host"],
        combine=[
            pl.col("target_host").is_in(comps).any().alias("links_comp"),
            (pl.col("target_host") == primary).any().alias("links_primary"),
        ],
        merge=[pl.col("links_comp").any(), pl.col("links_primary").any()],
    )

    def s1(df: pl.DataFrame) -> pl.DataFrame:
        return df.filter(pl.col("links_comp") & ~pl.col("links_primary")).select(
            (pl.lit("https://") + pl.col("source_host")).alias("prospect_url"),
            pl.col("source_host").alias("host"),
            pl.lit(True).alias("links_to_competitor"),
            pl.lit(False).alias("ranks_for_keyword"),
        )

    # --- strategy 2: distributed SERP ingest, excluded hosts dropped
    from ..sources import serpkw

    def s2(df: pl.DataFrame) -> pl.DataFrame:
        return df.filter(
            (pl.col("result_host") != primary) & ~pl.col("result_host").is_in(comps)
        ).select(
            pl.col("result_url").alias("prospect_url"),
            pl.col("result_host").alias("host"),
            pl.lit(False).alias("links_to_competitor"),
            pl.lit(True).alias("ranks_for_keyword"),
        )

    # --- metrics + score, vectorized closed forms --------------------
    def score(df: pl.DataFrame) -> pl.DataFrame:
        df = df.with_columns(_host_id().alias("hid"))
        df = df.with_columns(
            ((pl.col("hid") * 37 + 11) % 100).alias("authority_score"),
            ((pl.col("hid") * 53 + 7) % 100).alias("trust_score"),
            ((pl.col("hid") * 71 + 3) % 100).alias("spam_score"),
            ((pl.col("hid") * 97 + 13) % _AGE_MOD).alias("age_days"),
        ).filter(
            (pl.col("authority_score") >= min_authority)
            & (pl.col("spam_score") <= max_spam)
        )
        raw = (
            pl.col("authority_score") * 0.5
            + pl.col("trust_score") * 0.2
            - pl.col("spam_score") * 0.3
            + 10.0
            + pl.when(pl.col("age_days") > 3 * 365).then(5.0).otherwise(0.0)
            + pl.when(pl.col("ranks_for_keyword")).then(15.0).otherwise(0.0)
            + pl.when(pl.col("links_to_competitor")).then(10.0).otherwise(0.0)
        )
        return df.select(
            "prospect_url",
            "host",
            "authority_score",
            "trust_score",
            "spam_score",
            "age_days",
            "links_to_competitor",
            "ranks_for_keyword",
            raw.clip(0.0, 100.0).alias("score"),
            pl.lit("identified").alias("status"),
        )

    # --- both strategies as the two sides of ONE exchange keyed by
    # prospect URL: dedup (reference dict keyed by URL, :74), then score
    def merge(one: pl.DataFrame, two: pl.DataFrame) -> pl.DataFrame:
        return score(
            pl.concat([one, two], how="vertical_relaxed")
            .group_by("prospect_url")
            .agg(
                pl.col("host").first(),
                pl.col("links_to_competitor").any(),
                pl.col("ranks_for_keyword").any(),
            )
        )

    return ops._exchange(
        [
            (host_flags, ["prospect_url"], s1, None),
            (serpkw.serp_results(sf_dir), ["prospect_url"], s2, None),
        ],
        merge,
        None,
        ops.DEFAULT_EXCHANGE_BATCH,
    )


def outreach_campaign_stats(sf_dir: str, multiplier: int = 1) -> rd.Dataset:
    """Per-campaign outreach counters
    (``OutreachCampaign.total_prospects/contacts_made/replies_received/
    links_acquired``, core/models.py:814-819, maintained from
    ``OutreachEvent`` rows :836-860).

    The sandbox has no mail channel, so the event stream is the
    deterministic closed-form stand-in (the ``sources/corpus.py``
    discipline): each prospect joins campaign ``camp{host_id % 2}``;
    an ``email_sent`` event exists unless ``host_id % 3 == 2``; a
    ``reply`` follows when additionally ``host_id`` is odd; a
    ``link_secured`` event requires a reply and a prospect score ≥ 60.
    (The moduli are chosen so every funnel tier is non-empty at every
    test sf — the handful of hosts that survive the authority/spam
    filters at sf0.001 must include a replier.)
    A real deployment swaps the flag expressions for a join against
    the outreach-events table — the rollup (ONE tiny exchange keyed by
    campaign, counters only) is unchanged.
    """
    pros = link_prospects(sf_dir, multiplier=multiplier)

    def tag(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch).with_columns(_host_id().alias("hid"))
        contacted = (pl.col("hid") % 3 != 2).alias("contacted")
        df = df.with_columns(contacted)
        replied = (pl.col("contacted") & (pl.col("hid") % 2 == 1)).alias("replied")
        df = df.with_columns(replied)
        return df.select(
            (pl.lit("camp") + (pl.col("hid") % 2).cast(pl.Utf8)).alias("campaign_id"),
            "contacted",
            "replied",
            (pl.col("replied") & (pl.col("score") >= 60.0)).alias("acquired"),
        ).to_arrow()

    return hash_aggregate(
        ops.map_blocks(pros, tag),
        ["campaign_id"],
        combine=[
            pl.len().cast(pl.Int64).alias("total_prospects"),
            pl.col("contacted").sum().cast(pl.Int64).alias("contacts_made"),
            pl.col("replied").sum().cast(pl.Int64).alias("replies_received"),
            pl.col("acquired").sum().cast(pl.Int64).alias("links_acquired"),
        ],
        merge=[
            pl.col("total_prospects").sum(),
            pl.col("contacts_made").sum(),
            pl.col("replies_received").sum(),
            pl.col("links_acquired").sum(),
        ],
    )
