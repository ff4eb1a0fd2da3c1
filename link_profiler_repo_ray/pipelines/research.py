"""Domain-research and auxiliary operators (SURVEY.md A3/A5/J4/M4/M13/S4).

Each pipeline here is oracle-checked against DuckDB SQL; the arithmetic
corpus (sources/corpus.py) makes even the SEO-metrics parse exactly
SQL-reproducible.
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
from ..functions.sketches import histogram_rank_values
from ..ops import hash_aggregate, hash_group_apply, tagged_union_join
from ..stages import SeoStage
from . import graph

__all__ = [
    "seo_metrics",
    "domain_value_scores",
    "customers_without_orders",
    "latest_event_per_user",
    "anomalous_events",
    "anomalous_events_windowed",
    "props_json_rollup",
    "enriched_edges",
    "domain_intelligence",
    "domain_intelligence_sources",
    "whois_domain_age",
    "edge_snapshot_merge",
    "url_priority_scores",
    "top_valuable_domains",
    "expired_domain_finder",
    "link_health_audit",
    "dns_enrichment",
]


# --- M4/M8: full-corpus SEO metrics (oracle-checked) ----------------------

def seo_metrics(sf_dir: str, multiplier: int = 1) -> rd.Dataset:
    """Wide SEO struct per page via the regex parser (content_parser.py

    semantics); every field is a closed-form function of doc_id for the
    synthetic corpus, so the DuckDB oracle recomputes it exactly.  One
    scan wave of at most ``graph.EDGE_PAGES_PER_TASK`` pages per task
    (each page carries its whole HTML)."""
    stage = SeoStage()

    def seo(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(stage(batch))
        return df.select(
            pl.col("url"),
            pl.col("title_length").cast(pl.Int64),
            pl.col("meta_description_length").cast(pl.Int64),
            pl.col("h1_count").cast(pl.Int64),
            pl.col("h2_count").cast(pl.Int64),
            pl.col("internal_links").cast(pl.Int64),
            pl.col("external_links").cast(pl.Int64),
            pl.col("has_canonical"),
            pl.col("has_robots_meta"),
            pl.col("has_schema_markup"),
            pl.col("mobile_friendly"),
            pl.col("seo_score").round(4),
        ).to_arrow()

    return ops.scan(graph.corpus_files(sf_dir, multiplier), ["url", "html"], seo,
                    graph.EDGE_PAGES_PER_TASK)


# --- A3: domain value score ----------------------------------------------

def domain_value_scores(sf_dir: str, multiplier: int = 1) -> rd.Dataset:
    """Rule-based additive domain score over the backlink graph

    (domain_analyzer_service.py:25-159's shape: thresholded bonuses on
    inbound counts / referrer diversity / dofollow share)."""
    edges = graph.edges_dataset(sf_dir, multiplier)

    # one exchange keyed target_host: per-batch (target, source) partials,
    # partition-side pair dedup + per-target rollup
    def pre(df: pl.DataFrame) -> pl.DataFrame:
        return df.group_by(["target_host", "source_host"]).agg(
            pl.len().cast(pl.Int64).alias("n"),
            (pl.col("link_type") == "dofollow").sum().cast(pl.Int64).alias("dofollow"),
        )

    def rollup(df: pl.DataFrame) -> pl.DataFrame:
        pair = df.group_by(["target_host", "source_host"]).agg(
            pl.col("n").sum(), pl.col("dofollow").sum()
        )
        return pair.group_by("target_host").agg(
            pl.col("n").sum().alias("inbound_links"),
            pl.len().cast(pl.Int64).alias("referring_domains"),
            pl.col("dofollow").sum().alias("dofollow_links"),
        )

    # the exchange itself, not hash_group_apply: ``rollup`` also types
    # the empty result of an edge set with no rows
    per_host = ops._exchange([(edges, ["target_host"], pre, None)], rollup, None,
                             ops.DEFAULT_EXCHANGE_BATCH)

    def score(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        s = (
            pl.when(pl.col("inbound_links") >= 100).then(30).otherwise(0)
            + pl.when(pl.col("referring_domains") >= 5).then(25).otherwise(0)
            + pl.when(pl.col("dofollow_links") >= 50).then(40).otherwise(0)
            + pl.when(pl.col("inbound_links") >= 20).then(15).otherwise(0)
        )
        return df.with_columns(
            s.cast(pl.Int64).alias("value_score"),
            (s >= 50).alias("valuable"),
        ).to_arrow()

    return ops.map_blocks(per_host, score)


def crawl_tier_assignment(sf_dir: str, multiplier: int = 1) -> rd.Dataset:
    """Tiered-recrawl scheduling table: split hosts into crawl tiers by
    value-score quantile — tier 0 (≥ p80, 6 h refresh), tier 1 (≥ p50,
    24 h), tier 2 (weekly) — the standing decision a tiered crawler
    (fresh tier / deep tier) re-derives each scheduling epoch from
    :func:`domain_value_scores`.

    Thresholds use the repo's exact bounded-domain histogram rule
    (value_percentiles / ccnet_buckets): one tiny (score, count)
    exchange, collected on the driver, where
    ``sketches.histogram_rank_values`` picks the lower-interpolation
    ranks ``floor(q·(n−1))``; the two driver scalars gate a stateless
    vectorized bucket map — per-host rows never leave their partition
    twice.
    """
    scores = domain_value_scores(sf_dir, multiplier)
    hist = hash_aggregate(
        scores,
        ["value_score"],
        combine=[pl.len().cast(pl.Int64).alias("cnt")],
        merge=[pl.col("cnt").sum()],
    )
    # the histogram is bounded (one row per distinct score)
    hist = pl.from_arrow(ops.collect_table(hist)).sort("value_score")
    n = int(hist["cnt"].sum())
    # no hosts, no ranks: the bucket map still types the empty result
    t50, t80 = (
        int(v)
        for v in histogram_rank_values(
            hist["value_score"].to_numpy(),
            hist["cnt"].to_numpy(),
            [math.floor(q * float(n - 1)) for q in (0.5, 0.8)],
        )
    ) if n else (0, 0)

    def bucket(batch: pa.Table) -> pa.Table:
        tier = (
            pl.when(pl.col("value_score") >= t80)
            .then(0)
            .when(pl.col("value_score") >= t50)
            .then(1)
            .otherwise(2)
            .cast(pl.Int64)
        )
        return (
            pl.from_arrow(batch)
            .select(pl.col("target_host").alias("host"), "value_score")
            .with_columns(tier.alias("tier"))
            .with_columns(
                pl.col("tier")
                .replace_strict({0: 6, 1: 24, 2: 168}, return_dtype=pl.Int64)
                .alias("recrawl_interval_hours")
            )
            .to_arrow()
        )

    return ops.map_blocks(scores, bucket)


def expired_domain_finder(
    sf_dir: str,
    min_value_score: int = 50,
    limit: int | None = None,
    multiplier: int = 1,
) -> rd.Dataset:
    """Valuable-expired-domain search
    (expired_domain_finder_service.py:24-79): among candidate domains,
    keep those that are AVAILABLE and whose backlink-graph value score
    clears ``min_value_score``.

    The reference loops candidates through a WHOIS availability API;
    the sandbox stand-in is deterministic in host_id (available ⇔
    ``(host_id·13 + 5) % 4 == 0``, the synthetic_domain_metrics
    convention) so the DuckDB oracle reproduces the filter.  Value
    scoring rides the existing one-exchange ``domain_value_scores``
    rollup; availability + threshold are a stateless map — the whole
    finder streams over however many candidate hosts the graph holds.
    ``limit`` keeps the best ``limit`` hosts by (value_score, host):
    per-block top-k then one ≤k·blocks final merge (the
    ``top_valuable_domains`` pattern), never a global sort.
    """
    scored = domain_value_scores(sf_dir, multiplier)

    def finish(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        hid = pl.col("target_host").str.extract(r"^h(\d+)\.").cast(pl.Int64)
        return (
            df.with_columns(((hid * 13 + 5) % 4 == 0).alias("_avail"))
            .filter(pl.col("_avail") & (pl.col("value_score") >= min_value_score))
            .select(
                pl.col("target_host").alias("host"),
                "inbound_links",
                "referring_domains",
                "dofollow_links",
                "value_score",
            )
            .to_arrow()
        )

    found = ops.map_blocks(scored, finish)
    if limit is None:
        return found
    return ops.block_topk(found, ["value_score", "host"], [True, False], limit)


def link_health_audit(sf_dir: str, multiplier: int = 1) -> rd.Dataset:
    """Broken-outgoing-link audit
    (link_health_service.py:73-140): for every page, HEAD-check each
    outgoing link and report the broken ones; canonical/redirect links
    are skipped per the reference (:127-128).

    The sandbox has no network, so the status check is the
    deterministic stand-in convention the CDX source already uses for
    its ``status`` field: a target serves 404 iff its doc_id % 17 == 0,
    else 200 — closed-form, so the DuckDB oracle reproduces the audit.

    Scale shape: pure map + filter over the edges stream — NO exchange;
    a real deployment swaps the status expression for a RealFetchActor
    HEAD-request pool (T8) and nothing else changes.
    Output: one row per broken link (source_url, target_url, status).
    """
    from . import graph

    def audit(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        df = df.filter(~pl.col("link_type").is_in(["canonical", "redirect"]))
        tdoc = pl.col("target_url").str.extract(r"/doc/(\d+)$").cast(pl.Int64)
        return (
            df.with_columns(
                pl.when(tdoc % 17 == 0)
                .then(404)
                .otherwise(200)
                .cast(pl.Int64)
                .alias("status")
            )
            .filter(pl.col("status") >= 400)
            .select("source_url", "target_url", "status")
            .to_arrow()
        )

    return ops.map_blocks(graph.edges_dataset(sf_dir, multiplier), audit)


# --- J4: anti-join ---------------------------------------------------------

def customers_without_orders(sf_dir: str) -> rd.Dataset:
    """Anti-join shape (competitive_analysis_service.py:55-106's

    keyword-gap): broadcast the order-customer key set, mark inside
    the scan (no shuffle), roll up per market segment so the result
    is schema-stable even when the gap set is empty."""
    import pyarrow.parquet as pq

    keys = pq.read_table(os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey"])
    # broadcast the key set as a sorted numpy array — zero-copy plasma
    # read per batch (a Python set would deserialize O(n) objects per
    # task); plain task pool, no actor spin-up / ctor-args restart
    # fragility (ray#53727)
    key_arr = np.unique(keys.column("o_custkey").to_numpy(zero_copy_only=False))
    ref = ray.put(key_arr)

    def anti_mark(batch: pa.Table) -> pa.Table:
        keys_l = ray.get(ref)
        cust = batch.column("c_custkey").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(keys_l, cust)
        safe = np.minimum(pos, max(len(keys_l) - 1, 0))
        has = (pos < len(keys_l)) & (keys_l[safe] == cust) if len(keys_l) else np.zeros(len(cust), bool)
        return batch.append_column("no_orders", pa.array(~has))

    marked = ops.scan(
        os.path.join(sf_dir, "customer.parquet"), ["c_custkey", "c_mktsegment"], anti_mark
    )
    return hash_aggregate(
        marked,
        ["c_mktsegment"],
        combine=[
            pl.len().cast(pl.Int64).alias("n_customers"),
            pl.col("no_orders").sum().cast(pl.Int64).alias("n_without_orders"),
        ],
        merge=[pl.col("n_customers").sum(), pl.col("n_without_orders").sum()],
    )


# --- A5: dedup-on-merge, latest wins ---------------------------------------

def latest_event_per_user(sf_dir: str) -> rd.Dataset:
    """ReplacingMergeTree(latest-version) semantics

    (clickhouse_loader.py:101-125): per user keep the row with max ts,
    ties broken by min event_id."""

    def latest(df: pl.DataFrame) -> pl.DataFrame:
        return (
            df.sort(["user_id", "ts", "event_id"], descending=[False, True, False])
            .group_by("user_id", maintain_order=True)
            .first()
        )

    return hash_group_apply(
        ops.scan(os.path.join(sf_dir, "events.parquet"), ["user_id", "event_id", "ts", "event_type"]),
        ["user_id"],
        latest,
    )


# --- M13: anomaly flagging --------------------------------------------------

def anomalous_events(sf_dir: str) -> rd.Dataset:
    """Events whose value exceeds 2x their user's mean (integer-exact:

    value_cents * n > 2 * sum_cents).  The reference's anomaly detector
    (utils/anomaly_detector.py:41-133) flags deviations over a sliding
    history; here the window is the user's full history."""

    def flag(df: pl.DataFrame) -> pl.DataFrame:
        cents = (pl.col("value") * 100 + 0.5).floor().cast(pl.Int64)
        df = df.with_columns(cents.alias("value_cents"))
        stats = df.group_by("user_id").agg(
            pl.col("value_cents").sum().alias("sum_cents"),
            pl.len().cast(pl.Int64).alias("n"),
        )
        df = df.join(stats, on="user_id")
        return (
            df.filter(pl.col("value_cents") * pl.col("n") > 2 * pl.col("sum_cents"))
            .select(["user_id", "event_id", "value_cents"])
        )

    return hash_group_apply(
        ops.scan(os.path.join(sf_dir, "events.parquet"), ["user_id", "event_id", "value"]),
        ["user_id"],
        flag,
    )


def anomalous_events_windowed(sf_dir: str, window: int = 10) -> rd.Dataset:
    """M13's true sliding-window shape (anomaly_detector.py:41-133):

    flag an event whose value exceeds 2× the mean of the user's
    PREVIOUS ``window`` events (the reference's captcha-spike detector
    looks at the last 10 results, not the whole history).  Integer-
    exact: value_cents · n_window > 2 · sum_window.  One exchange keyed
    user_id; the rolling sums are vectorized polars window kernels.
    """

    def flag(df: pl.DataFrame) -> pl.DataFrame:
        cents = (pl.col("value") * 100 + 0.5).floor().cast(pl.Int64)
        df = df.with_columns(cents.alias("value_cents")).sort(
            ["user_id", "ts", "event_id"]
        )
        df = df.with_columns(
            pl.col("value_cents")
            .rolling_sum(window_size=window, min_samples=1)
            .shift(1)
            .over("user_id")
            .alias("wsum"),
            pl.col("value_cents")
            .cum_count()
            .shift(1)
            .over("user_id")
            .clip(upper_bound=window)
            .alias("wn"),
        )
        return df.filter(
            pl.col("wn").is_not_null()
            & (pl.col("wn") > 0)
            & (pl.col("value_cents") * pl.col("wn") > 2 * pl.col("wsum"))
        ).select(["user_id", "event_id", "value_cents"])

    return hash_group_apply(
        ops.scan(os.path.join(sf_dir, "events.parquet"), ["user_id", "event_id", "ts", "value"]),
        ["user_id"],
        flag,
    )


# --- S4-style structured-text parsing ---------------------------------------

def props_json_rollup(sf_dir: str) -> rd.Dataset:
    """NDJSON-ish parsing (common_crawl_client.py:148-156's shape):

    decode the events.props JSON column, roll up by k-bucket."""

    def parse(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        k = (
            df.get_column("props")
            .str.json_path_match("$.k")
            .cast(pl.Int64)
        )
        return pl.DataFrame({"k_bucket": (k // 10).cast(pl.Int64)}).to_arrow()

    parsed = ops.scan(os.path.join(sf_dir, "events.parquet"), ["props"], parse)
    return hash_aggregate(
        parsed,
        ["k_bucket"],
        combine=[pl.len().cast(pl.Int64).alias("n_events")],
        merge=[pl.col("n_events").sum()],
    )


# --- J1 + M9: domain-metrics enrichment join + quality filter --------------

def synthetic_domain_metrics(n_hosts: int) -> dict[str, dict]:
    """Deterministic per-host metrics (the sandbox stand-in for the

    Postgres domains table of crawl_service.py:638-654) — closed-form
    in host_id so the SQL oracle reproduces the join."""
    out = {}
    for h in range(n_hosts):
        out[f"h{h}.example.com"] = {
            "authority_score": (h * 37 + 11) % 100,
            "trust_score": (h * 53 + 7) % 100,
            "spam_score": (h * 71 + 3) % 100,
        }
    return out


def enriched_edges(sf_dir: str, multiplier: int = 1) -> rd.Dataset:
    """Backlink ← source-domain metrics broadcast join (J1), then the

    M9 quality filter (crawl_service.py:391-439): drop edges whose
    source domain has spam_score > 70 or authority_score < 5."""
    from ..sources import corpus as corpus_mod

    n_docs = corpus_mod.corpus_n_docs(sf_dir, multiplier)
    metrics = synthetic_domain_metrics(corpus_mod.n_hosts(n_docs))
    dim = pl.DataFrame(
        {
            "source_host": list(metrics),
            "source_authority": [m["authority_score"] for m in metrics.values()],
            "source_trust": [m["trust_score"] for m in metrics.values()],
            "source_spam": [m["spam_score"] for m in metrics.values()],
        }
    ).cast({"source_authority": pl.Int64, "source_trust": pl.Int64, "source_spam": pl.Int64})
    # broadcast as Arrow (zero-copy plasma read per batch); plain task
    # pool — see customers_without_orders for the rationale
    ref = ray.put(dim.to_arrow())

    def enrich(batch: pa.Table) -> pa.Table:
        dim_l = pl.from_arrow(ray.get(ref))
        df = pl.from_arrow(batch).select("source_url", "target_url", "source_host", "link_type")
        out = df.join(dim_l, on="source_host", how="left")
        return out.filter(
            (pl.col("source_spam") <= 70) & (pl.col("source_authority") >= 5)
        ).to_arrow()

    return ops.map_blocks(graph.edges_dataset(sf_dir, multiplier), enrich)


# the six distinct enrichment feeds the reference fans out per domain
# (clients/google_trends_client.py:65, news_api_client.py,
# reddit_client.py, youtube_client.py, plus the ssl / securitytrails
# feeds inside data_aggregation_service.py:138-215)
_INTEL_SOURCES = (
    "google_trends",
    "news_api",
    "reddit",
    "youtube",
    "ssl_labs",
    "security_trails",
)


def domain_intelligence_sources(sf_dir: str, multiplier: int = 1) -> rd.Dataset:
    """A7 provenance layer: one row per (host, enrichment source).

    The reference's ``aggregate_domain_intelligence`` gathers six
    concurrent source fetches and records WHICH sources answered in
    ``data_sources`` before merging (data_aggregation_service.py:
    138-215).  The merged view (:func:`domain_intelligence`) kept only
    the rollup; this exposes the per-source records with provenance —
    source name, availability, its sentiment/mention payload, and the
    source's contribution to the reference's ``len(sources)/6·100``
    confidence formula.  Sandbox feeds are deterministic functions of
    (host_id, source_id): source s answers for host h iff
    ``(h+s) % 4 != 0``; when it answers, sentiment is
    ``((h·7+s) % 3) − 1`` and mention count ``(h·11+s·17) % 50``.
    Per-host fan-out happens INSIDE the batch (vectorized long-form
    expand) — zero exchanges.
    """
    from ..sources import corpus as corpus_mod

    n_docs = corpus_mod.corpus_n_docs(sf_dir, multiplier)
    hosts = ops.int_range(corpus_mod.n_hosts(n_docs), "host_id")
    names = {i: s for i, s in enumerate(_INTEL_SOURCES)}

    def expand(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        df = (
            df.with_columns(pl.lit(list(range(6))).alias("source_id"))
            .explode("source_id")
            .with_columns(pl.col("source_id").cast(pl.Int64))
        )
        av = (pl.col("host_id") + pl.col("source_id")) % 4 != 0
        return df.select(
            ("h" + pl.col("host_id").cast(pl.Utf8) + ".example.com").alias("host"),
            pl.col("source_id"),
            pl.col("source_id")
            .replace_strict(names, return_dtype=pl.Utf8)
            .alias("source_name"),
            av.alias("available"),
            pl.when(av)
            .then(((pl.col("host_id") * 7 + pl.col("source_id")) % 3) - 1)
            .otherwise(None)
            .alias("sentiment"),
            pl.when(av)
            .then((pl.col("host_id") * 11 + pl.col("source_id") * 17) % 50)
            .otherwise(None)
            .alias("mentions"),
            pl.when(av).then(pl.lit(100.0 / 6)).otherwise(0.0).alias("source_confidence"),
        ).to_arrow()

    return ops.map_blocks(hosts, expand)


def domain_intelligence(sf_dir: str, multiplier: int = 1) -> rd.Dataset:
    """A7: multi-source domain intelligence fan-out + merge.

    The reference fans out 6 source fetches per domain and merges them
    into one record: average sentiment over available sources mapped
    {positive: 1, neutral: 0, negative: −1}, confidence = available
    sources / 6 · 100 (data_aggregation_service.py:138-215).  The
    merge now DERIVES from the per-source provenance rows
    (:func:`domain_intelligence_sources`) — filter to the sources that
    answered, one hash aggregate keyed by host.
    """
    avail = ops.map_blocks(
        domain_intelligence_sources(sf_dir, multiplier),
        lambda b: pl.from_arrow(b)
        .filter(pl.col("available"))
        .select("host", "sentiment")
        .to_arrow(),
    )
    merged = hash_aggregate(
        avail,
        ["host"],
        combine=[
            pl.col("sentiment").sum().alias("sent_sum"),
            pl.len().cast(pl.Int64).alias("n_sources"),
        ],
        merge=[pl.col("sent_sum").sum(), pl.col("n_sources").sum()],
    )

    def finish(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        return df.select(
            pl.col("host"),
            (pl.col("sent_sum") / pl.col("n_sources")).round(6).alias("avg_sentiment"),
            (pl.col("n_sources") * 100.0 / 6).round(6).alias("confidence"),
            pl.col("n_sources"),
        ).to_arrow()

    return ops.map_blocks(merged, finish)


# pinned "now" for the WHOIS simulation — the corpus reference epoch
_WHOIS_REF = "2024-03-01T00:00:00"


def whois_domain_age(sf_dir: str, multiplier: int = 1) -> rd.Dataset:
    """M14 second half: WHOIS payload simulation + ISO date extraction.

    The reference never parses live WHOIS either — clients/
    whois_client.py:131-165 (``_simulate_whois_data``) serves three
    branches: domains containing 'example.com' get a FIXED payload
    (creation 2000-01-01, expiration 2025-01-01, registrar 'Example
    Registrar', status clientTransferProhibited, org 'Example LLC',
    country US); domains containing 'test.com' simulate NOT FOUND
    (None); everything else gets a generic payload whose randints are
    replaced here by the repo's closed forms keyed on the domain
    ordinal k ('now' pinned to the corpus epoch 2024-03-01):

        registrar   = 'Registrar ' + (1 + (k·13+5) % 10)
        creation    = now − (365 + (k·97+13) % (365·9)) days
        expiration  = now + (30 + (k·53+7) % 1796) days
        country     = [US CA GB DE AU][(k·29+3) % 5]
        organization= 'Org ' + (1 + (k·31+11) % 100)

    and services/domain_service.py:253-262 (``_extract_whois_date``)
    parses the dates with ``datetime.fromisoformat(v.replace('Z',
    '+00:00'))``.  This pipeline does the REAL round trip: build the
    payload dict, ``json.dumps`` it to a ``whois_raw`` string (the
    reference stores exactly that, domain_service.py:242), then parse
    the dates back OUT of the JSON with the reference's expression
    before computing domain age / expiry.

    Domain universe: per corpus host ordinal k, one domain per branch
    — ``h{k}.example.com``, ``ext{k}.net``, ``probe{k}.test.com`` —
    so all three reference branches are exercised.  Per-domain
    metadata scale (3 × #hosts rows); the JSON round trip is a
    per-row loop by necessity, inside the map wave.
    """
    import json
    from datetime import datetime, timedelta

    from ..sources import corpus as corpus_mod

    n_docs = corpus_mod.corpus_n_docs(sf_dir, multiplier)
    ks = ops.int_range(corpus_mod.n_hosts(n_docs), "k")
    ref = datetime.fromisoformat(_WHOIS_REF)

    def simulate(domain: str, k: int) -> str | None:
        """clients/whois_client.py:131's branches, randints -> closed forms."""
        if "example.com" in domain:
            return json.dumps(
                {
                    "domain_name": domain,
                    "registrar": "Example Registrar",
                    "creation_date": "2000-01-01T00:00:00Z",
                    "expiration_date": "2025-01-01T00:00:00Z",
                    "name_servers": ["ns1.example.com", "ns2.example.com"],
                    "status": "clientTransferProhibited",
                    "emails": ["abuse@example.com"],
                    "organization": "Example LLC",
                    "country": "US",
                }
            )
        if "test.com" in domain:
            return None  # simulated not-found
        creation = ref - timedelta(days=365 + (k * 97 + 13) % (365 * 9))
        expiration = ref + timedelta(days=30 + (k * 53 + 7) % 1796)
        return json.dumps(
            {
                "domain_name": domain,
                "registrar": f"Registrar {1 + (k * 13 + 5) % 10}",
                "creation_date": creation.strftime("%Y-%m-%dT%H:%M:%SZ"),
                "expiration_date": expiration.strftime("%Y-%m-%dT%H:%M:%SZ"),
                "name_servers": [f"ns1.{domain}", f"ns2.{domain}"],
                "status": "ok",
                "emails": [f"admin@{domain}"],
                "organization": f"Org {1 + (k * 31 + 11) % 100}",
                "country": ("US", "CA", "GB", "DE", "AU")[(k * 29 + 3) % 5],
            }
        )

    def extract_date(payload: dict, key: str):
        """domain_service.py:253-262 verbatim semantics (Z -> +00:00),
        tz dropped for naive-timestamp storage."""
        v = payload.get(key)
        if not v:
            return None
        try:
            return datetime.fromisoformat(v.replace("Z", "+00:00")).replace(tzinfo=None)
        except ValueError:
            return None

    def run(batch: pa.Table) -> pa.Table:
        kk = batch.column("k").to_pylist()
        rows = [(f"h{k}.example.com", k) for k in kk]
        rows += [(f"ext{k}.net", k) for k in kk]
        rows += [(f"probe{k}.test.com", k) for k in kk]
        out: dict[str, list] = {c: [] for c in (
            "domain", "found", "registrar", "status", "organization", "country",
            "creation_ts", "expiration_ts", "domain_age_days", "days_to_expiry",
            "expired",
        )}
        for domain, k in rows:
            raw = simulate(domain, k)
            out["domain"].append(domain)
            if raw is None:
                # sentinel ''/False for the string/bool fields (the
                # driver compare stringifies object columns, so NULLs
                # there are nondeterministic across engines); numeric/
                # timestamp fields stay NULL
                out["found"].append(False)
                for c in ("registrar", "status", "organization", "country"):
                    out[c].append("")
                for c in ("creation_ts", "expiration_ts", "domain_age_days",
                          "days_to_expiry"):
                    out[c].append(None)
                out["expired"].append(False)
                continue
            payload = json.loads(raw)
            creation = extract_date(payload, "creation_date")
            expiration = extract_date(payload, "expiration_date")
            out["found"].append(True)
            out["registrar"].append(payload["registrar"])
            out["status"].append(payload["status"])
            out["organization"].append(payload["organization"])
            out["country"].append(payload["country"])
            out["creation_ts"].append(creation)
            out["expiration_ts"].append(expiration)
            out["domain_age_days"].append((ref - creation).days if creation else None)
            out["days_to_expiry"].append((expiration - ref).days if expiration else None)
            out["expired"].append(expiration < ref if expiration else None)
        return pa.table(
            {
                "domain": pa.array(out["domain"], pa.string()),
                "found": pa.array(out["found"], pa.bool_()),
                "registrar": pa.array(out["registrar"], pa.string()),
                "status": pa.array(out["status"], pa.string()),
                "organization": pa.array(out["organization"], pa.string()),
                "country": pa.array(out["country"], pa.string()),
                "creation_ts": pa.array(out["creation_ts"], pa.timestamp("us")),
                "expiration_ts": pa.array(out["expiration_ts"], pa.timestamp("us")),
                "domain_age_days": pa.array(out["domain_age_days"], pa.int64()),
                "days_to_expiry": pa.array(out["days_to_expiry"], pa.int64()),
                "expired": pa.array(out["expired"], pa.bool_()),
            }
        )

    return ops.map_blocks(ks, run)


def edge_snapshot_merge(sf_dir: str, multiplier: int = 1) -> rd.Dataset:
    """Temporal edge catalog: first_seen / last_seen per backlink.

    The reference keeps ``first_seen``/``last_seen`` on every Backlink
    (core/models.py:332-380) with ReplacingMergeTree dedup-on-merge
    (clickhouse_loader.py:101-125).  Simulated re-crawl: snapshot 1 is
    the extracted edge table at its warc timestamps; snapshot 2 re-
    observes the edges of every page with doc_id % 3 == 0 seven days
    later; one map wave over the edges emits both snapshots' rows.
    Merge = one hash aggregate keyed (source_url, target_url): min ts →
    first_seen, max ts → last_seen, observation count.
    """
    def snapshots(batch: pa.Table) -> pa.Table:
        e1 = pl.from_arrow(batch).select("source_url", "target_url", "crawl_ts")
        doc = pl.col("source_url").str.extract(r"/doc/(\d+)$").cast(pl.Int64)
        e2 = e1.filter(doc % 3 == 0).with_columns(pl.col("crawl_ts") + pl.duration(days=7))
        return pl.concat([e1, e2]).to_arrow()

    return hash_aggregate(
        ops.map_blocks(graph.edges_dataset(sf_dir, multiplier), snapshots),
        ["source_url", "target_url"],
        combine=[
            pl.col("crawl_ts").min().alias("first_seen"),
            pl.col("crawl_ts").max().alias("last_seen"),
            pl.len().cast(pl.Int64).alias("n_observations"),
        ],
        merge=[
            pl.col("first_seen").min(),
            pl.col("last_seen").max(),
            pl.col("n_observations").sum(),
        ],
    )


# --- O2: deterministic URL priority scoring --------------------------------

def url_priority_scores(sf_dir: str) -> rd.Dataset:
    """Depth-decay priority per crawled URL (ai/crawl_optimizer.py:41-103,

    deterministic terms only: base 100 − 10·depth, clamped at 0).

    Scale shape (round-2 verdict item 3): the crawl runs with
    ``output_dir`` + ``collect_edges=False`` so NOTHING accumulates on
    the driver; the score column is a Dataset transform over the
    persisted ``order-*.parquet`` lineage, streaming at any corpus
    size."""
    import atexit
    import glob as _glob
    import shutil
    import tempfile

    from .crawl import CrawlConfig, run_crawl

    out_dir = tempfile.mkdtemp(prefix="lpr_prio_")
    cfg = CrawlConfig(
        politeness=False,
        num_seen_shards=2,
        num_fetchers=2,
        collect_edges=False,
        output_dir=out_dir,
    )
    run_crawl(sf_dir, cfg)
    # only the thin order lineage feeds the score; drop the page/edge
    # parquet immediately and reap the rest at interpreter exit so
    # repeated invocations don't accumulate corpus-sized /tmp dirs
    for sub in ("pages", "edges"):
        shutil.rmtree(os.path.join(out_dir, sub), ignore_errors=True)
    atexit.register(shutil.rmtree, out_dir, ignore_errors=True)
    files = sorted(_glob.glob(os.path.join(out_dir, "order-*.parquet")))

    def score(batch: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(batch)
            .with_columns(
                pl.max_horizontal(pl.lit(0), 100 - 10 * pl.col("depth").cast(pl.Int64))
                .cast(pl.Int64)
                .alias("priority_score")
            )
            .to_arrow()
        )

    return ops.scan(files, ["url", "depth"], score)


# --- O5: valuable-domain limit ---------------------------------------------

def top_valuable_domains(sf_dir: str, k: int = 3, multiplier: int = 1) -> rd.Dataset:
    """filter(valuable) → deterministic sort → limit k

    (expired_domain_finder_service.py:24-79's stop-at-limit shape).
    Per-block top-k then a one-block final merge of ≤ k·blocks rows —
    no driver materialization of the scored table."""
    return ops.block_topk(
        domain_value_scores(sf_dir, multiplier),
        ["value_score", "target_host"],
        [True, False],
        k,
        pre=lambda df: df.filter(pl.col("valuable")).select(
            ["target_host", "value_score"]
        ),
    )


# --- M14: DNS enrichment ----------------------------------------------------

def dns_enrichment(sf_dir: str, doh_url: str | None = None) -> rd.Dataset:
    """Per-host DNS records via the DoH client / simulated fallback
    (services/domain_service.py:264-305; functions/dnsenrich.py).

    In-sandbox the simulated path runs (no network); pass ``doh_url``
    for live deployments — the actor-pool stage and output schema are
    identical.  Records resolve once per host per actor (T6 cache in
    the stage)."""
    from ..functions.dnsenrich import DnsEnrichStage

    n = ops.parquet_num_rows(os.path.join(sf_dir, "documents.parquet"))
    h = max(5, n // 50)

    def hosts(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch).filter(pl.col("doc_id") < h)
        return df.select(
            pl.concat_str(
                [pl.lit("h"), pl.col("doc_id").cast(pl.Utf8), pl.lit(".example.com")]
            ).alias("host")
        ).to_arrow()

    # a scan wave drops the blocks whose documents hold no host, so
    # every block the actor pool gets, and so every output block, has
    # rows and the stage's columns; a Ray Data map would pass a
    # zero-row block through untouched, without the dns columns
    ds = ops.scan(os.path.join(sf_dir, "documents.parquet"), ["doc_id"], hosts)
    if ds.count() == 0:
        return ops.map_blocks(ds, DnsEnrichStage(doh_url=doh_url))
    return ds.map_batches(
        DnsEnrichStage,
        fn_constructor_kwargs={"doh_url": doh_url},
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=ops.auto_concurrency(),
    )


def recrawl_schedule(
    sf_dir: str, horizon_hours: int = 336, multiplier: int = 1
) -> rd.Dataset:
    """Tiered-recrawl *schedule simulation*: how much change does each
    crawl tier's refresh interval actually capture over a horizon?

    The reference schedules recrawls per domain value tier
    (expired_domain_finder_service / domain_analyzer_service shapes);
    this closes the loop by simulating the schedule against a
    deterministic per-page change cadence (``change_period_h =
    12·(1 + doc_id % 9)`` — 12 h..108 h, the synthetic stand-in for a
    change-detection history) over ``horizon_hours`` (14 days):

      n_revisits = horizon // interval,  n_changes = horizon // period,
      captured   = min(n_changes, n_revisits),  missed = rest

    Scale shape: :func:`crawl_tier_assignment`'s per-host table (one
    row per host, so it grows with the corpus) meets the pages in one
    partitioned left join keyed by host (``tagged_union_join``);
    nothing is collected on the driver.  Pages not in the backlink
    graph default to tier 2 (weekly).  The per-page pass pre-aggregates
    to per-(tier, interval) partials inside each batch, so the only
    other exchange is a ≤3-group ``hash_aggregate``.
    """
    tiers = ops.map_blocks(
        crawl_tier_assignment(sf_dir, multiplier), lambda t: t.select(["host", "tier"])
    )
    intervals = {0: 6, 1: 24, 2: 168}

    def page_host(batch: pa.Table) -> pa.Table:
        return pl.from_arrow(batch).select(
            pl.col("url").str.extract(r"/doc/(\d+)$", 1).cast(pl.Int64).alias("doc_id"),
            pl.col("url").str.extract(r"^https://([^/]+)/", 1).alias("host"),
        ).to_arrow()

    pages = ops.scan(graph.corpus_files(sf_dir, multiplier), ["url"], page_host)
    with_tier = tagged_union_join(
        pages, tiers, "host", "host", how="left",
        left_schema=pa.schema([("doc_id", pa.int64()), ("host", pa.string())]),
        right_schema=pa.schema([("host", pa.string()), ("tier", pa.int64())]),
    )

    def per_page(batch: pa.Table) -> pa.Table:
        tier = pl.col("tier").fill_null(2)
        df = pl.from_arrow(batch).with_columns(
            tier,
            tier.replace_strict(intervals, return_dtype=pl.Int64).alias(
                "recrawl_interval_hours"
            ),
            (12 * (1 + pl.col("doc_id") % 9)).alias("change_period_h"),
        ).with_columns(
            (horizon_hours // pl.col("recrawl_interval_hours")).alias("n_revisits"),
            (horizon_hours // pl.col("change_period_h")).alias("n_changes"),
        )
        return (
            df.group_by(["tier", "recrawl_interval_hours"])
            .agg(
                pl.len().cast(pl.Int64).alias("n_pages"),
                pl.col("n_revisits").sum().alias("total_revisits"),
                pl.col("n_changes").sum().alias("total_changes"),
                (
                    pl.col("n_changes")
                    - pl.min_horizontal("n_changes", "n_revisits")
                )
                .sum()
                .alias("total_missed"),
            )
            .to_arrow()
        )

    partials = ops.map_blocks(with_tier, per_page)
    sums = [
        pl.col(c).sum()
        for c in ("n_pages", "total_revisits", "total_changes", "total_missed")
    ]
    rolled = hash_aggregate(
        partials, ["tier", "recrawl_interval_hours"], combine=sums, merge=sums
    )

    def finish(batch: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(batch)
            .with_columns(
                (
                    pl.col("total_missed").cast(pl.Float64)
                    / pl.col("total_changes").cast(pl.Float64)
                )
                .round(6)
                .alias("missed_rate")
            )
            .to_arrow()
        )

    return ops.map_blocks(rolled, finish)
