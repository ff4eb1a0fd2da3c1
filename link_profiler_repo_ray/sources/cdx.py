"""Common Crawl / Wayback CDX index sources (SURVEY.md S4/S5).

The reference pulls seed/backlink URLs from two external CDX indexes:

- Common Crawl's index API returns NDJSON records with string fields
  ``urlkey, timestamp, url, mime, status, digest, length``; the client
  json-decodes each line and parses the ``YYYYMMDDHHMMSS`` timestamp
  (clients/common_crawl_client.py:99-169,181).
- The Wayback CDX API returns POSITIONAL rows
  ``urlkey timestamp original mimetype statuscode digest length``
  (clients/wayback_machine_client.py:25-90).

There is no network in this sandbox, so the records are synthesized
deterministically from the ``documents`` table — every field is a
closed-form function of ``doc_id`` (mirroring sources/corpus.py), so a
DuckDB oracle recomputes the expected parse output exactly.  The parse
stages consume the raw text lines the way the real clients do; both
parses are fully vectorized (polars ``str.json_decode`` /
``str.split`` + ``str.strptime``) — swap the line-generator stage for
``ray.data.read_text`` over a real CDX dump and nothing else changes.
"""

from __future__ import annotations

import os

import polars as pl
import pyarrow as pa
import ray.data as rd

from .. import ops, schemas
from ..functions import canonical as can

__all__ = [
    "cc_cdx_lines",
    "wayback_cdx_lines",
    "cc_cdx_parse",
    "wayback_latest_snapshot",
    "wayback_domain_age",
    "cdx_seed_frontier",
]


# --- deterministic synthetic records -------------------------------------
#
# host/url mirror sources/corpus.py; the CDX-only fields are:
#   status(d) = 301 if d % 13 == 0 else 200
#   mime(d)   = 'application/pdf' if d % 11 == 0 else 'text/html'
#   digest(d) = 'D' || d
#   length(d) = 1000 + d % 777
#   CC timestamp   = warc_ts(d)            (2024-03-01 + 97·d minutes)
#   Wayback snaps  = warc_ts(d) + k days,  k in [0, 1 + d % 3)


def cc_cdx_lines(sf_dir: str) -> rd.Dataset:
    """Synthetic Common-Crawl-style NDJSON index lines (one per doc)."""
    path = os.path.join(sf_dir, "documents.parquet")
    h = max(5, ops.parquet_num_rows(path) // 50)

    def gen(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        hid = (
            pl.when(pl.col("doc_id") % 37 == 0)
            .then(0)
            .otherwise(pl.col("doc_id") % h)
        )
        ts = (
            pl.datetime(2024, 3, 1)
            + pl.duration(minutes=97 * pl.col("doc_id"))
        ).dt.strftime("%Y%m%d%H%M%S")
        line = pl.concat_str(
            [
                pl.lit('{"urlkey": "com,example,h'),
                hid.cast(pl.Utf8),
                pl.lit(')/doc/'),
                pl.col("doc_id").cast(pl.Utf8),
                pl.lit('", "timestamp": "'),
                ts,
                pl.lit('", "url": "https://h'),
                hid.cast(pl.Utf8),
                pl.lit(".example.com/doc/"),
                pl.col("doc_id").cast(pl.Utf8),
                pl.lit('", "mime": "'),
                pl.when(pl.col("doc_id") % 11 == 0)
                .then(pl.lit("application/pdf"))
                .otherwise(pl.lit("text/html")),
                pl.lit('", "status": "'),
                pl.when(pl.col("doc_id") % 13 == 0).then(301).otherwise(200).cast(pl.Utf8),
                pl.lit('", "digest": "D'),
                pl.col("doc_id").cast(pl.Utf8),
                pl.lit('", "length": "'),
                (1000 + pl.col("doc_id") % 777).cast(pl.Utf8),
                pl.lit('"}'),
            ]
        )
        return df.select(line.alias("line")).to_arrow()

    return ops.scan(path, ["doc_id"], gen)


def wayback_cdx_lines(sf_dir: str) -> rd.Dataset:
    """Synthetic Wayback-style positional CDX lines (1 + d%3 snapshots/url)."""
    path = os.path.join(sf_dir, "documents.parquet")
    h = max(5, ops.parquet_num_rows(path) // 50)

    def gen(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        # explode one row per snapshot: k in [0, 1 + d % 3)
        df = (
            df.with_columns((1 + pl.col("doc_id") % 3).alias("_n"))
            .with_columns(pl.int_ranges(0, pl.col("_n")).alias("k"))
            .explode("k")
        )
        hid = (
            pl.when(pl.col("doc_id") % 37 == 0)
            .then(0)
            .otherwise(pl.col("doc_id") % h)
        )
        ts = (
            pl.datetime(2024, 3, 1)
            + pl.duration(minutes=97 * pl.col("doc_id"), days=pl.col("k"))
        ).dt.strftime("%Y%m%d%H%M%S")
        line = pl.concat_str(
            [
                pl.lit("com,example,h"),
                hid.cast(pl.Utf8),
                pl.lit(")/doc/"),
                pl.col("doc_id").cast(pl.Utf8),
                pl.lit(" "),
                ts,
                pl.lit(" https://h"),
                hid.cast(pl.Utf8),
                pl.lit(".example.com/doc/"),
                pl.col("doc_id").cast(pl.Utf8),
                pl.lit(" "),
                pl.when(pl.col("doc_id") % 11 == 0)
                .then(pl.lit("application/pdf"))
                .otherwise(pl.lit("text/html")),
                pl.lit(" "),
                pl.when(pl.col("doc_id") % 13 == 0).then(301).otherwise(200).cast(pl.Utf8),
                pl.lit(" D"),
                pl.col("doc_id").cast(pl.Utf8),
                pl.lit(" "),
                (1000 + pl.col("doc_id") % 777).cast(pl.Utf8),
            ]
        )
        return df.select(line.alias("line")).to_arrow()

    return ops.scan(path, ["doc_id"], gen)


# --- parsers (the S4/S5 operators proper) --------------------------------

def cc_cdx_parse(sf_dir: str, lines: rd.Dataset | None = None) -> rd.Dataset:
    """S4: NDJSON CDX record parse + timestamp decode.

    json-decode each line, type the fields, and decode the
    ``YYYYMMDDHHMMSS`` timestamp (common_crawl_client.py:148-169,181)
    — all vectorized polars kernels, no per-row Python.
    """
    if lines is None:
        lines = cc_cdx_lines(sf_dir)

    rec_dtype = pl.Struct(
        {
            "urlkey": pl.Utf8,
            "timestamp": pl.Utf8,
            "url": pl.Utf8,
            "mime": pl.Utf8,
            "status": pl.Utf8,
            "digest": pl.Utf8,
            "length": pl.Utf8,
        }
    )

    def parse(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        rec = df.select(pl.col("line").str.json_decode(rec_dtype).alias("r")).unnest("r")
        return rec.select(
            pl.col("urlkey"),
            pl.col("url"),
            pl.col("url").str.extract(r"https?://([^/]+)").alias("host"),
            pl.col("timestamp")
            .str.strptime(pl.Datetime("us"), "%Y%m%d%H%M%S")
            .alias("fetch_ts"),
            pl.col("mime"),
            pl.col("status").cast(pl.Int64),
            pl.col("digest"),
            pl.col("length").cast(pl.Int64),
        ).to_arrow()

    return ops.map_blocks(lines, parse)


def wayback_latest_snapshot(sf_dir: str, lines: rd.Dataset | None = None) -> rd.Dataset:
    """S5: positional CDX parse + latest-snapshot-per-url rollup.

    Split each space-separated row positionally
    (wayback_machine_client.py:25-90), decode the timestamp, then a
    two-stage hash aggregate keeps max(ts) + snapshot count per url.
    """
    from ..ops import hash_aggregate

    if lines is None:
        lines = wayback_cdx_lines(sf_dir)

    def parse(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        parts = pl.col("line").str.split(" ")
        return df.select(
            parts.list.get(2).alias("url"),
            parts.list.get(1)
            .str.strptime(pl.Datetime("us"), "%Y%m%d%H%M%S")
            .alias("snap_ts"),
            parts.list.get(4).cast(pl.Int64).alias("status"),
        ).to_arrow()

    snaps = ops.map_blocks(lines, parse)
    return hash_aggregate(
        snaps,
        ["url"],
        combine=[
            pl.col("snap_ts").max().alias("latest_ts"),
            pl.len().cast(pl.Int64).alias("n_snapshots"),
        ],
        merge=[pl.col("latest_ts").max(), pl.col("n_snapshots").sum()],
    )


def wayback_domain_age(sf_dir: str, lines: rd.Dataset | None = None) -> rd.Dataset:
    """Domain age from the Wayback index
    (historical_data_service.py:105-130's
    ``get_domain_age_from_wayback``): the earliest snapshot timestamp
    per domain, plus its snapshot count.

    Positional CDX parse → vectorized host extract → one tiny
    hash-aggregate exchange keyed by host (partials are one row per
    (host, block))."""
    from ..ops import hash_aggregate

    if lines is None:
        lines = wayback_cdx_lines(sf_dir)

    def parse(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        parts = pl.col("line").str.split(" ")
        return df.select(
            parts.list.get(2).str.extract(r"https?://([^/]+)").alias("host"),
            parts.list.get(1)
            .str.strptime(pl.Datetime("us"), "%Y%m%d%H%M%S")
            .alias("snap_ts"),
        ).to_arrow()

    snaps = ops.map_blocks(lines, parse)
    return hash_aggregate(
        snaps,
        ["host"],
        combine=[
            pl.col("snap_ts").min().alias("first_snapshot_ts"),
            pl.len().cast(pl.Int64).alias("n_snapshots"),
        ],
        merge=[pl.col("first_snapshot_ts").min(), pl.col("n_snapshots").sum()],
    )


def cdx_seed_frontier(sf_dir: str, lines: rd.Dataset | None = None) -> rd.Dataset:
    """Seed-frontier-from-CDX: the reference's primary seeding path.

    Filter to fetchable records (HTTP 200, text/html), canonicalize
    (M1), dedup per url keeping the earliest snapshot, and emit
    frontier-shaped rows (url, host, priority) ready for
    ``CrawlConfig.seeds`` — the Ray shape of "seed a crawl job from
    the Common Crawl index".
    """
    from ..ops import hash_aggregate

    recs = cc_cdx_parse(sf_dir, lines)

    def shape(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        df = df.filter((pl.col("status") == 200) & (pl.col("mime") == "text/html"))
        urls = [can.canonicalize(u) for u in df.get_column("url").to_list()]
        df = df.with_columns(pl.Series("url", urls, dtype=pl.Utf8)).filter(
            pl.col("url").is_not_null()
        )
        return df.select(
            pl.col("url"),
            pl.col("url").str.extract(r"https?://([^/]+)").alias("host"),
            pl.col("fetch_ts"),
        ).to_arrow()

    shaped = ops.map_blocks(recs, shape)
    dedup = hash_aggregate(
        shaped,
        ["url", "host"],
        combine=[pl.col("fetch_ts").min().alias("first_ts")],
        merge=[pl.col("first_ts").min()],
    )

    def finish(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        return df.select(
            pl.col("url"),
            pl.col("host"),
            pl.lit(schemas.PRIORITY_MEDIUM).cast(pl.Int64).alias("priority"),
        ).to_arrow()

    return ops.map_blocks(dedup, finish)
