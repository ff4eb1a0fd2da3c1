"""XML sitemap source (the reference's third seed path).

The reference extracts ``Sitemap:`` directives from robots.txt
(crawlers/robots_parser.py:149-170) and seeds crawls from the listed
sitemaps; this module gives the engine the same capability as a Ray
Data source:

- ``sitemap_urls_from_robots``  — the robots.txt ``Sitemap:`` line
  extraction (vectorized over a batch of robots bodies).
- ``host_sitemap_xml``          — deterministic synthetic ``<urlset>``
  blobs, one per host, mirroring sources/corpus.py (no network in the
  sandbox; every field is a closed-form function of ``doc_id`` so a
  DuckDB oracle recomputes the parse output exactly).
- ``sitemap_index_xml``         — a ``<sitemapindex>`` blob over the
  per-host sitemap locations.
- ``parse_urlsets`` / ``parse_sitemap_index`` — the parsers proper:
  vectorized regex extraction over the constrained sitemap-protocol
  schema (sitemaps.org), no per-row Python, no XML library in the hot
  path.  Swap the generator stage for ``ray.data.read_text`` /
  binary-file reads over real sitemap dumps and nothing else changes.
- ``sitemap_seed_frontier``     — parse → canonical frontier-shaped
  (url, host, priority) rows for ``CrawlConfig.seeds``, with the
  sitemap ``<priority>`` mapped onto the engine's priority bands.

Synthetic per-entry fields (d = doc_id):
  lastmod(d)    = date of (2024-03-01 + 97·d minutes)
  changefreq(d) = 'daily' if d % 7 == 0 else 'weekly'
  priority(d)   = (d % 10) / 10
"""

from __future__ import annotations

import os

import polars as pl
import pyarrow as pa
import ray.data as rd

from .. import ops, schemas
from ..ops import hash_group_apply

__all__ = [
    "sitemap_urls_from_robots",
    "host_sitemap_xml",
    "sitemap_index_xml",
    "parse_urlsets",
    "parse_sitemap_index",
    "sitemap_parse",
    "sitemap_seed_frontier",
]

_URLSET_OPEN = (
    '<?xml version="1.0" encoding="UTF-8"?>'
    '<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">'
)


def sitemap_urls_from_robots(robots_bodies: list[str]) -> list[list[str]]:
    """Extract ``Sitemap:`` directive URLs from robots.txt bodies
    (robots_parser.py:149-170 semantics: case-insensitive key, value
    is the rest of the line, order preserved)."""
    out: list[list[str]] = []
    for body in robots_bodies:
        found = []
        for line in body.splitlines():
            k, sep, v = line.partition(":")
            if sep and k.strip().lower() == "sitemap":
                v = v.strip()
                if v:
                    found.append(v)
        out.append(found)
    return out


def host_sitemap_xml(sf_dir: str) -> rd.Dataset:
    """One deterministic ``<urlset>`` blob per host: columns
    (host, xml).  Entries are grouped host-complete via one hash
    exchange over thin (doc_id, host) rows — the XML strings are built
    inside the partition apply, vectorized."""
    path = os.path.join(sf_dir, "documents.parquet")
    h = max(5, ops.parquet_num_rows(path) // 50)

    def tag(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        hid = (
            pl.when(pl.col("doc_id") % 37 == 0).then(0).otherwise(pl.col("doc_id") % h)
        )
        return df.select("doc_id", hid.alias("host_id")).to_arrow()

    def build(df: pl.DataFrame) -> pl.DataFrame:
        entry = pl.concat_str(
            [
                pl.lit("<url><loc>https://h"),
                pl.col("host_id").cast(pl.Utf8),
                pl.lit(".example.com/doc/"),
                pl.col("doc_id").cast(pl.Utf8),
                pl.lit("</loc><lastmod>"),
                (
                    pl.datetime(2024, 3, 1) + pl.duration(minutes=97 * pl.col("doc_id"))
                ).dt.strftime("%Y-%m-%d"),
                pl.lit("</lastmod><changefreq>"),
                pl.when(pl.col("doc_id") % 7 == 0)
                .then(pl.lit("daily"))
                .otherwise(pl.lit("weekly")),
                pl.lit("</changefreq><priority>"),
                ((pl.col("doc_id") % 10).cast(pl.Float64) / 10.0).round(1).cast(pl.Utf8),
                pl.lit("</priority></url>"),
            ]
        )
        return (
            df.sort("doc_id")
            .group_by("host_id", maintain_order=True)
            .agg(entry.alias("_e"))
            .select(
                pl.concat_str([pl.lit("h"), pl.col("host_id").cast(pl.Utf8), pl.lit(".example.com")]).alias("host"),
                pl.concat_str(
                    [pl.lit(_URLSET_OPEN), pl.col("_e").list.join(""), pl.lit("</urlset>")]
                ).alias("xml"),
            )
        )

    return hash_group_apply(ops.scan(path, ["doc_id"], tag), ["host_id"], build)


def sitemap_index_xml(sf_dir: str) -> rd.Dataset:
    """A ``<sitemapindex>`` blob listing every host's sitemap location
    (columns: xml).  Hosts are collapsed from thin (host_id) rows; the
    single-blob merge is a one-partition apply over ≤ #hosts rows."""
    path = os.path.join(sf_dir, "documents.parquet")
    h = max(5, ops.parquet_num_rows(path) // 50)

    def tag(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        hid = (
            pl.when(pl.col("doc_id") % 37 == 0).then(0).otherwise(pl.col("doc_id") % h)
        )
        return df.select(hid.alias("host_id")).unique().to_arrow()

    def build(df: pl.DataFrame) -> pl.DataFrame:
        hids = df.get_column("host_id").unique().sort().to_list()
        entries = "".join(
            f"<sitemap><loc>https://h{hid}.example.com/sitemap.xml</loc></sitemap>"
            for hid in hids
        )
        return pl.DataFrame(
            {
                "xml": [
                    '<?xml version="1.0" encoding="UTF-8"?>'
                    '<sitemapindex xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">'
                    + entries
                    + "</sitemapindex>"
                ]
            }
        )

    # per-chunk unique host_ids (≤ h rows each) → one logical group, so
    # one partition builds the single blob
    return hash_group_apply(ops.scan(path, ["doc_id"], tag), ["g"], build,
                            pre=lambda df: df.with_columns(pl.lit(0).alias("g")))


def _xml_unescape(expr: pl.Expr) -> pl.Expr:
    """Undo the five XML predefined entities (&amp; last, so escaped
    sequences like ``&amp;lt;`` decode in one pass exactly as a real
    XML parser would after its single entity pass)."""
    for ent, ch in (
        ("&lt;", "<"),
        ("&gt;", ">"),
        ("&quot;", '"'),
        ("&apos;", "'"),
        ("&amp;", "&"),
    ):
        expr = expr.str.replace_all(ent, ch, literal=True)
    return expr


def parse_urlsets(blobs: rd.Dataset) -> rd.Dataset:
    """Parse ``<urlset>`` blobs (column ``xml``) into one typed row per
    ``<url>`` entry: (loc, host, lastmod, changefreq, priority).

    Vectorized: ``str.extract_all`` explodes the entries, per-field
    ``str.extract`` types them.  Handles real (pretty-printed) sitemap
    XML: ``(?s)`` spans newlines between tags, field values are
    whitespace-trimmed, and ``<loc>`` is XML-entity-unescaped (query
    strings carry ``&amp;``).  ``lastmod`` stays a YYYY-MM-DD string
    (the protocol's W3C-date wire form)."""

    def parse(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        ex = (
            df.select(pl.col("xml").str.extract_all(r"(?s)<url>.*?</url>").alias("e"))
            .explode("e")
            .drop_nulls("e")
        )
        loc = _xml_unescape(
            pl.col("e").str.extract(r"(?s)<loc>\s*(.*?)\s*</loc>")
        )
        return ex.select(
            loc.alias("loc"),
            loc.str.extract(r"^https?://([^/]+)").alias("host"),
            pl.col("e").str.extract(r"(?s)<lastmod>\s*(.*?)\s*</lastmod>").alias("lastmod"),
            pl.col("e")
            .str.extract(r"(?s)<changefreq>\s*(.*?)\s*</changefreq>")
            .alias("changefreq"),
            pl.col("e")
            .str.extract(r"(?s)<priority>\s*(.*?)\s*</priority>")
            .cast(pl.Float64)
            .alias("priority"),
        ).to_arrow()

    return ops.map_blocks(blobs, parse)


def parse_sitemap_index(blobs: rd.Dataset) -> rd.Dataset:
    """Parse ``<sitemapindex>`` blobs into one row per child sitemap
    location (column: loc)."""

    def parse(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        ex = (
            df.select(
                pl.col("xml").str.extract_all(r"(?s)<sitemap>.*?</sitemap>").alias("e")
            )
            .explode("e")
            .drop_nulls("e")
        )
        return ex.select(
            _xml_unescape(
                pl.col("e").str.extract(r"(?s)<loc>\s*(.*?)\s*</loc>")
            ).alias("loc")
        ).to_arrow()

    return ops.map_blocks(blobs, parse)


def sitemap_parse(sf_dir: str, blobs: rd.Dataset | None = None) -> rd.Dataset:
    """The registry surface: synthetic per-host urlsets → parsed typed
    entry rows (DuckDB oracle recomputes them closed-form)."""
    if blobs is None:
        blobs = host_sitemap_xml(sf_dir)
    return parse_urlsets(blobs)


def sitemap_seed_frontier(sf_dir: str, blobs: rd.Dataset | None = None) -> rd.Dataset:
    """Parse sitemaps → frontier-shaped (url, host, priority) seeds.

    The sitemap ``<priority>`` hint maps onto the engine's bands the
    way the reference maps source quality onto queue priority:
    >= 0.7 → HIGH, < 0.3 → LOW, else MEDIUM.
    """

    def shape(batch: pa.Table) -> pa.Table:
        from ..functions import canonical as can

        df = pl.from_arrow(batch)
        urls = [can.canonicalize(u) for u in df.get_column("loc").to_list()]
        df = df.with_columns(pl.Series("url", urls, dtype=pl.Utf8)).filter(
            pl.col("url").is_not_null()
        )
        band = (
            pl.when(pl.col("priority") >= 0.7)
            .then(schemas.PRIORITY_HIGH)
            .when(pl.col("priority") < 0.3)
            .then(schemas.PRIORITY_LOW)
            .otherwise(schemas.PRIORITY_MEDIUM)
        )
        return df.select(
            "url", "host", band.cast(pl.Int64).alias("priority")
        ).to_arrow()

    return ops.map_blocks(sitemap_parse(sf_dir, blobs), shape)
