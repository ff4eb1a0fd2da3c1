"""Alert-rule evaluation, security audit rollups, and local-SEO
proximity search — the last three reference services without a
pipeline analogue (round-4 coverage sweep).

- ``alert_rules_eval``: ``services/alert_service.py:131-174``
  (``evaluate_seo_metrics_update``) walks a list of active AlertRule
  rows per metrics update: optional ``target_url_pattern`` regex
  filter, ``metric_threshold`` trigger with a comparison operator
  (``_check_threshold_condition``, alert_service.py:225-241), a
  per-rule cooldown window that suppresses repeat alerts
  (alert_service.py:143-147), and a severity carried to dispatch.
  Here the rule set is a tiny constant table evaluated VECTORIZED
  against the per-page audit-metric stream (the scores are computed
  from the real fetched HTML via pipelines/audit.audit_scores); the
  cooldown becomes a grouped first-alert-per-(rule, cooldown-bucket)
  dedup — the same keys-only exchange shape as A5.  At 100 TB the
  rules are a broadcast-side constant and only (rule_id, bucket,
  ts, url) rows cross the exchange.
- ``security_audit_summary``:
  ``services/security_audit_service.py:122-145``
  (``perform_comprehensive_security_audit``) aggregates per domain:
  subdomain inventory (SecurityTrails), DNS A-record history, and an
  SSL Labs analysis.  No network in this sandbox, so each source is a
  closed-form function of (host_id, subdomain_slot) — the same
  simulated-fetch discipline as domain_intelligence — while the
  pipeline shape (host fan-out → per-subdomain probe rows → one hash
  aggregate per host → posture scoring) is the real distributed
  design.
- ``local_seo_nearby``: ``services/local_seo_service.py:86-164``
  (``get_nearby_places``) filters places within ``radius_km`` of a
  center and scores each with the haversine distance
  (local_seo_service.py:127-133).  The synthetic business table is
  closed-form over doc_id; the haversine is computed with the exact
  same operation order as the DuckDB oracle (verified bit-identical —
  both bind the platform libm), so the driver's value-hash comparison
  holds without tolerance.

Closed forms (N docs, H = max(5, N // 50) hosts, B = max(200, N // 2)
businesses):
- alert stream: ts = warc_ts(d) = 2024-03-01 + 97·d min; metrics are
  the audit_scores() closed forms (n_anchors = 5 + d % 4, etc.);
  cooldown bucket = epoch(ts) // 86400 (1-day cooldown).
- security: subdomain slot s∈[0,6) present iff (3h + s) % 4 ≠ 1 with
  probe score (29h + 7s + 17) % 100; host SSL score (29h + 17) % 100
  → A/B/C/F grade; DNS changes 1 + (5h + 2) % 6;
  cert_days_left = 30 + 13h % 700.
- local SEO: B = max(200, N // 2) businesses, b < B at lat
  51.5074 + ((37b % 201) − 100)/1000, lon −0.1278 +
  ((53b % 201) − 100)/1000, amenity [cafe restaurant bar][b % 3];
  query = cafes within 10 km of (51.5074, −0.1278).
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from .. import ops
from ..ops import hash_aggregate, hash_group_apply
from . import graph
from .audit import audit_scores

__all__ = [
    "ALERT_RULES",
    "alert_rules_eval",
    "apply_cooldown",
    "security_audit_summary",
    "local_seo_nearby",
]

# (rule_id, name, metric, comparison_operator, threshold, severity,
#  target_url_pattern | None) — AlertRule's evaluated fields
# (alert_service.py:93-105,140-141).  Patterns are RE2/rust-regex
# compatible so polars and DuckDB match identically.
ALERT_RULES = (
    (0, "perf_drop", "performance_score", "<", 70, "warning", None),
    (1, "a11y_low", "accessibility_score", "<=", 75, "info", r"^https://h[0-4]\."),
    (2, "anchor_overload", "n_anchors", ">=", 8, "critical", None),
    (3, "bp_weak", "best_practices_score", "<", 80, "warning", r"/doc/\d*[02468]$"),
)

ALERT_COOLDOWN_S = 86_400  # one alert per rule per day-bucket

_ALERT_SCHEMA = pa.schema(
    [
        ("rule_id", pa.int64()),
        ("rule_name", pa.string()),
        ("severity", pa.string()),
        ("url", pa.string()),
        ("metric_value", pa.int64()),
        ("triggered_ts", pa.timestamp("us")),
    ]
)



def apply_cooldown(alerts: rd.Dataset, cooldown_s: int = ALERT_COOLDOWN_S) -> rd.Dataset:
    """Global cooldown suppression over a raw fired-alert stream: keep
    the EARLIEST alert per (rule_id, cooldown bucket) — the distributed
    reading of the reference's ``last_evaluation_times`` dict
    (alert_service.py:143-147).  Works on any dataset with rule_id /
    triggered_ts (+ tie-break url) columns, e.g. the crawl loop's
    persisted ``alerts/`` output (stages.AlertStage).  Only
    (rule, bucket)-deduped rows cross the exchange.

    Alerts with a NULL triggered_ts (live fetches / replay misses have
    no capture timestamp) pass through UNSUPPRESSED: without a clock
    the cooldown window cannot be evaluated, and collapsing them into
    one null bucket would silently drop distinct critical alerts."""
    bucket = (
        pl.col("triggered_ts").dt.epoch(time_unit="s") // cooldown_s
    ).alias("__bucket")

    def dedup(df: pl.DataFrame) -> pl.DataFrame:
        return (
            df.sort(["triggered_ts", "url"])
            .group_by(["rule_id", "__bucket"], maintain_order=True)
            .first()
        )

    def pre(df: pl.DataFrame) -> pl.DataFrame:
        # per-block combiner: earliest per (rule, bucket).  Null-ts rows
        # get a per-URL negative bucket: same-URL duplicates still
        # collapse, distinct URLs stay distinct (cooldown needs a clock)
        df = df.with_columns(bucket).with_columns(
            pl.when(pl.col("__bucket").is_null())
            .then(-1 - (pl.col("url").hash(seed=1) % (1 << 62)).cast(pl.Int64))
            .otherwise(pl.col("__bucket"))
            .alias("__bucket")
        )
        return dedup(df)

    def first_per_cooldown(df: pl.DataFrame) -> pl.DataFrame:
        return dedup(df).drop("__bucket")

    return hash_group_apply(alerts, ["rule_id", "__bucket"], first_per_cooldown, pre=pre)


def alert_rules_eval(sf_dir: str, multiplier: int = 1) -> rd.Dataset:
    """Evaluate the active alert rules against the per-page audit
    metric stream; one alert per (rule, cooldown bucket), earliest
    update wins — the distributed reading of the reference's
    ``last_evaluation_times`` cooldown dict."""

    from ..stages import AlertStage

    # ONE rule evaluator for both integrations: the audit-stream path
    # computes the metric columns from HTML, then delegates the rule
    # loop to the same parameterized stage the crawl loop runs — two
    # hand-rolled copies of the filter/select would drift.
    stage = AlertStage(rules=ALERT_RULES, ts_col="ts")

    def evaluate(batch: pa.Table) -> pa.Table:
        html = pc.cast(batch.column("html"), pa.large_string())
        df = pl.DataFrame(
            {
                "url": pl.from_arrow(batch.column("url")),
                "ts": pl.from_arrow(batch.column("warc_ts")),
                "html": pl.from_arrow(html),
            }
        )
        m = audit_scores(df, keep=["url", "ts"])
        # audit metrics are integers; the stage's float64 metric_value
        # casts back to the oracle's int64 exactly
        return stage(m.to_arrow()).cast(_ALERT_SCHEMA)

    alerts = ops.scan(graph.corpus_files(sf_dir, multiplier), ["url", "warc_ts", "html"],
                      evaluate, graph.EDGE_PAGES_PER_TASK)
    return apply_cooldown(alerts)


_SUBDOMAIN_SLOTS = 6  # www api mail cdn blog shop


def security_audit_summary(sf_dir: str, multiplier: int = 1) -> rd.Dataset:
    """Per-domain security posture: subdomain inventory + DNS history +
    SSL grades, merged into one summary row per host
    (security_audit_service.py:122-145)."""
    from ..sources import corpus as corpus_mod

    n_docs = corpus_mod.corpus_n_docs(sf_dir, multiplier)
    n_hosts = corpus_mod.n_hosts(n_docs)
    hosts = ops.int_range(n_hosts, "host_id")

    def probe(batch: pa.Table) -> pa.Table:
        # fan out one probe row per present subdomain slot; in a real
        # deployment this stage is the actor-pool API client
        df = pl.from_arrow(batch)
        df = (
            df.with_columns(pl.lit(list(range(_SUBDOMAIN_SLOTS))).alias("s"))
            .explode("s")
            .with_columns(pl.col("s").cast(pl.Int64))
            .filter((pl.col("host_id") * 3 + pl.col("s")) % 4 != 1)
        )
        return df.with_columns(
            ((pl.col("host_id") * 29 + 7 * pl.col("s") + 17) % 100).alias("sub_score")
        ).to_arrow()

    probes = ops.map_blocks(hosts, probe)
    agg = hash_aggregate(
        probes,
        ["host_id"],
        combine=[
            pl.len().cast(pl.Int64).alias("n_subdomains"),
            pl.col("sub_score").min().alias("weakest_subdomain_score"),
        ],
        merge=[
            pl.col("n_subdomains").sum(),
            pl.col("weakest_subdomain_score").min(),
        ],
    )

    def finish(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        ssl_score = ((pl.col("host_id") * 29 + 17) % 100).cast(pl.Int64)
        df = df.with_columns(
            ssl_score.alias("ssl_score"),
            (1 + (pl.col("host_id") * 5 + 2) % 6).cast(pl.Int64).alias("n_dns_changes_a"),
            (30 + (pl.col("host_id") * 13) % 700).cast(pl.Int64).alias("cert_days_left"),
        ).with_columns(
            pl.when(pl.col("ssl_score") >= 80)
            .then(pl.lit("A"))
            .when(pl.col("ssl_score") >= 60)
            .then(pl.lit("B"))
            .when(pl.col("ssl_score") >= 40)
            .then(pl.lit("C"))
            .otherwise(pl.lit("F"))
            .alias("ssl_grade")
        ).with_columns(
            (
                pl.col("ssl_grade").is_in(["C", "F"]).cast(pl.Int64)
                + (pl.col("cert_days_left") < 90).cast(pl.Int64)
                + (pl.col("weakest_subdomain_score") < 30).cast(pl.Int64)
            ).alias("risk_flags")
        )
        return df.select(
            ("h" + pl.col("host_id").cast(pl.Utf8) + ".example.com").alias("host"),
            pl.col("n_subdomains"),
            pl.col("n_dns_changes_a"),
            pl.col("ssl_score"),
            pl.col("ssl_grade"),
            pl.col("cert_days_left"),
            pl.col("weakest_subdomain_score"),
            pl.col("risk_flags"),
            pl.when(pl.col("risk_flags") >= 2)
            .then(pl.lit("high"))
            .when(pl.col("risk_flags") == 1)
            .then(pl.lit("medium"))
            .otherwise(pl.lit("low"))
            .alias("security_risk"),
        ).to_arrow()

    return ops.map_blocks(agg, finish)


_CENTER_LAT = 51.5074
_CENTER_LON = -0.1278
_AMENITIES = ("cafe", "restaurant", "bar")


def local_seo_nearby(
    sf_dir: str,
    multiplier: int = 1,
    radius_km: float = 10.0,
    amenity: str = "cafe",
) -> rd.Dataset:
    """Nearby-place search: haversine-score every business of the
    requested amenity against the search center, keep those within
    ``radius_km`` (local_seo_service.py:86-164).

    The distance math mirrors ``_haversine``
    (local_seo_service.py:127-133) operation-for-operation so the
    DuckDB oracle reproduces every double bit-exactly.  Scale shape:
    pure vectorized map + filter, no exchange — the place table
    partitions freely."""
    from ..sources import corpus as corpus_mod

    n_docs = corpus_mod.corpus_n_docs(sf_dir, multiplier)
    n_biz = max(200, n_docs // 2)
    amenity_residue = _AMENITIES.index(amenity)

    def nearby(batch: pa.Table) -> pa.Table:
        # only one residue class can survive the amenity filter — drop
        # the other two thirds before paying for the trig
        df = pl.from_arrow(batch).filter(pl.col("biz_id") % 3 == amenity_residue)
        b = df.get_column("biz_id").to_numpy()
        lat = _CENTER_LAT + ((b * 37) % 201 - 100) / 1000.0
        lon = _CENTER_LON + ((b * 53) % 201 - 100) / 1000.0
        dlat = np.radians(lat - _CENTER_LAT)
        dlon = np.radians(lon - _CENTER_LON)
        a = (
            np.sin(dlat / 2) * np.sin(dlat / 2)
            + np.cos(np.radians(_CENTER_LAT))
            * np.cos(np.radians(lat))
            * np.sin(dlon / 2)
            * np.sin(dlon / 2)
        )
        dist = 2 * 6371.0 * np.arcsin(np.sqrt(a))
        out = pl.DataFrame(
            {
                "biz_id": df.get_column("biz_id"),
                "lat": lat,
                "lon": lon,
                "distance_km": dist,
            }
        ).with_columns(
            pl.concat_str([pl.lit("biz"), pl.col("biz_id").cast(pl.Utf8)]).alias("name"),
            pl.lit(amenity).alias("place_type"),
        )
        return (
            out.filter(pl.col("distance_km") <= radius_km)
            .select(
                "biz_id",
                "name",
                "place_type",
                "lat",
                "lon",
                pl.col("distance_km").round(6),
            )
            .to_arrow()
        )

    biz = ops.int_range(n_biz, "biz_id")
    return ops.map_blocks(biz, nearby)
