"""Direct timings of single layers, run only in the traced run:
the parse kernels on a fixed sample of corpus pages and the three
``ops`` exchange primitives on the workload's edges table."""

from __future__ import annotations

import glob
import os
import re
import statistics
import time

import polars as pl
import pyarrow.parquet as pq

_HREF = re.compile(r'href="([^"]*)"')


def _per_item(fn, n_items: int, min_s: float = 0.2, passes: int = 5) -> float:
    """Median seconds per item over ``passes`` passes of ``fn`` (each
    pass repeated until it lasts ``min_s``)."""
    per = []
    for _ in range(passes):
        reps, t0 = 0, time.perf_counter()
        while True:
            fn()
            reps += 1
            dt = time.perf_counter() - t0
            if dt >= min_s / passes:
                break
        per.append(dt / (reps * n_items))
    return statistics.median(per)


def parse_kernels(corpus_dir: str, n_pages: int) -> dict:
    """``htmlx``/``canonical`` cost per page, link and URL on the first
    ``n_pages`` pages of the corpus."""
    from link_profiler_repo_ray.functions import canonical, htmlx

    first = sorted(glob.glob(os.path.join(corpus_dir, "pages_*.parquet")))[0]
    t = pq.read_table(first, columns=["url", "html"]).slice(0, n_pages)
    urls = t.column("url").to_pylist()
    htmls = [h.decode("utf-8") for h in t.column("html").to_pylist()]
    bases, hrefs = [], []
    for u, h in zip(urls, htmls):
        for href in _HREF.findall(h):
            bases.append(u)
            hrefs.append(href)
    all_urls = pq.read_table(first, columns=["url"]).column("url").to_pylist()

    def text():
        for h in htmls:
            htmlx.extract_text(h)

    def links():
        for u, h in zip(urls, htmls):
            htmlx.extract_links(u, h)

    return {
        "htmlx.extract_text_us_per_page": _per_item(text, len(htmls)) * 1e6,
        "htmlx.extract_links_us_per_page": _per_item(links, len(htmls)) * 1e6,
        "canonical.resolve_us_per_link": _per_item(
            lambda: canonical.resolve_batch(bases, hrefs), len(hrefs)) * 1e6,
        "canonical.url_hash64_ns_per_url": _per_item(
            lambda: canonical.url_hash64(all_urls), len(all_urls)) * 1e9,
    }


def _distinct_targets(df: pl.DataFrame) -> pl.DataFrame:
    return df.group_by("source_host").agg(pl.col("target_url").n_unique().alias("targets"))


def exchanges(edges_dir: str, tracer) -> dict:
    """One timed call of each ``ops`` primitive on the edges table."""
    import pyarrow as pa
    import ray.data as rd

    from link_profiler_repo_ray import ops

    def edges(cols):
        return rd.read_parquet(edges_dir, columns=cols)

    hosts = (
        pl.from_arrow(pq.read_table(edges_dir, columns=["source_host"]))
        .unique()
        .with_row_index("host_id")
        .rename({"source_host": "host"})
    )
    hosts_ds = rd.from_arrow(hosts.to_arrow())
    calls = {
        "ops.hash_aggregate_s": lambda: ops.hash_aggregate(
            edges(["target_host"]), ["target_host"],
            combine=[pl.len().cast(pl.Int64).alias("n")], merge=[pl.col("n").sum()]),
        "ops.tagged_union_join_s": lambda: ops.tagged_union_join(
            edges(["source_host", "target_url"]), hosts_ds, "source_host", "host",
            left_schema=pa.schema([("source_host", pa.string()), ("target_url", pa.string())]),
            right_schema=hosts_ds.schema().base_schema),
        "ops.hash_group_apply_s": lambda: ops.hash_group_apply(
            edges(["source_host", "target_url"]), ["source_host"], _distinct_targets),
    }
    out = {}
    for name, build in calls.items():
        with tracer.span(name[:-2]) as sp:
            build().materialize()
        out[name] = sp["s"]
    return out
