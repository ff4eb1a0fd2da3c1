"""Metric catalogue: every metric the benchmark prints, its unit, which
way is better, and — for per-layer metrics — which end-to-end metric it
should move and on which workloads it is measured.

``BENCHMARK.json`` lists the same names and units; the self-test checks
that the two agree.  A workload prints every metric of the run's kind;
a per-layer metric of a layer the workload does not exercise is
printed as 0 (see ``LAYERS[...]["on"]``).
"""

from __future__ import annotations

WORKLOADS = ("crawl_polite_ckpt", "analytics")
CRAWLS = ("crawl_polite_ckpt",)

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "job_s": ("s", "lower"),
    "pages_per_s": ("1/s", "higher"),
    "driver_peak_rss_mb": ("MB", "lower"),
    "disk_bytes_per_page": ("B", "lower"),
}

GRAPH_STAGES = (
    "edges",
    "host_graph",
    "link_profiles",
    "referring_domains_hll",
    "host_pagerank",
    "host_communities",
)
TEXT_OPS = (
    "token_stats",
    "doc_quality",
    "repetition_metrics",
    "token_entropy",
    "tfidf_top_terms",
    "inverted_index",
    "unigram_logprob",
    "bm25_topk",
    "line_dedup",
    "exact_substring_dups",
    "minhash_lsh_dups",
)


def _layer(unit: str, better: str, moves: str, on: tuple) -> dict:
    return {"unit": unit, "better": better, "moves": moves, "on": on}


LAYERS: dict[str, dict] = {
    # session / prep
    "ray.init_s": _layer("s", "lower", "setup_s", WORKLOADS),
    "crawl.prep_s": _layer("s", "lower", "setup_s", CRAWLS),
    "analytics.warmup_s": _layer("s", "lower", "setup_s", ("analytics",)),
    # driver loop (pipelines.crawl)
    "crawl.run_s": _layer("s", "lower", "job_s", CRAWLS),
    "crawl.run_cpu_s": _layer("s", "lower", "job_s", CRAWLS),
    "crawl.rounds": _layer("count", "lower", "pages_per_s", CRAWLS),
    "crawl.admit_s": _layer("s", "lower", "pages_per_s", CRAWLS),
    "crawl.fetch_s": _layer("s", "lower", "pages_per_s", CRAWLS),
    "crawl.order_s": _layer("s", "lower", "pages_per_s", CRAWLS),
    "crawl.expand_s": _layer("s", "lower", "pages_per_s", CRAWLS),
    "crawl.checkpoint_s": _layer("s", "lower", "pages_per_s", CRAWLS),
    "crawl.unattributed_s": _layer("s", "lower", "pages_per_s", CRAWLS),
    "crawl.round_p50_s": _layer("s", "lower", "pages_per_s", CRAWLS),
    "crawl.round_max_s": _layer("s", "lower", "pages_per_s", CRAWLS),
    "crawl.frontier_ops_per_s": _layer("1/s", "higher", "pages_per_s", CRAWLS),
    # frontier (state.frontier)
    "frontier.elig_max_s": _layer("s", "lower", "pages_per_s", CRAWLS),
    "frontier.sortcap_max_s": _layer("s", "lower", "pages_per_s", CRAWLS),
    "frontier.robots_max_s": _layer("s", "lower", "pages_per_s", CRAWLS),
    "frontier.flush_max_s": _layer("s", "lower", "pages_per_s", CRAWLS),
    "frontier.ops": _layer("count", "lower", "pages_per_s", CRAWLS),
    "frontier.dedup_hits": _layer("count", "lower", "pages_per_s", CRAWLS),
    "frontier.useful_ratio": _layer("ratio", "higher", "pages_per_s", CRAWLS),
    # fetch actors (pipelines.crawl.FetchParseActor)
    "fetch.busy_s": _layer("s", "lower", "pages_per_s", CRAWLS),
    "fetch.idle_share": _layer("share", "lower", "pages_per_s", CRAWLS),
    "fetch.overhead_s": _layer("s", "lower", "pages_per_s", CRAWLS),
    "fetch.pages": _layer("count", "higher", "pages_per_s", CRAWLS),
    "fetch.misses": _layer("count", "lower", "pages_per_s", CRAWLS),
    "fetch.errors": _layer("count", "lower", "pages_per_s", CRAWLS),
    "fetch.dead_lettered": _layer("count", "lower", "pages_per_s", CRAWLS),
    "robots.denied": _layer("count", "lower", "pages_per_s", CRAWLS),
    # checkpoint (pipelines.crawl._Checkpointer)
    "checkpoint.bytes": _layer("B", "lower", "disk_bytes_per_page", ("crawl_polite_ckpt",)),
    "checkpoint.files": _layer("count", "lower", "disk_bytes_per_page", ("crawl_polite_ckpt",)),
    # parse kernels (functions.htmlx, functions.canonical)
    "htmlx.extract_text_us_per_page": _layer("us", "lower", "pages_per_s", WORKLOADS),
    "htmlx.extract_links_us_per_page": _layer("us", "lower", "pages_per_s", WORKLOADS),
    "canonical.resolve_us_per_link": _layer("us", "lower", "pages_per_s", WORKLOADS),
    "canonical.url_hash64_ns_per_url": _layer("ns", "lower", "pages_per_s", WORKLOADS),
    # exchanges (ops)
    "ops.hash_aggregate_s": _layer("s", "lower", "job_s", ("analytics",)),
    "ops.tagged_union_join_s": _layer("s", "lower", "job_s", ("analytics",)),
    "ops.hash_group_apply_s": _layer("s", "lower", "job_s", ("analytics",)),
}
for _stage in GRAPH_STAGES:
    LAYERS[f"graph.{_stage}_s"] = _layer("s", "lower", "job_s", ("analytics",))
    LAYERS[f"graph.{_stage}_rows"] = _layer("count", "higher", "job_s", ("analytics",))
LAYERS["graph.host_pagerank_s_per_iter"] = _layer("s", "lower", "job_s", ("analytics",))
LAYERS["graph.job_s"] = _layer("s", "lower", "job_s", ("analytics",))
LAYERS["graph.job_cpu_s"] = _layer("s", "lower", "job_s", ("analytics",))
LAYERS["graph.remainder_s"] = _layer("s", "lower", "job_s", ("analytics",))
LAYERS["textdata.documents_scan_s"] = _layer("s", "lower", "job_s", ("analytics",))
for _op in TEXT_OPS:
    LAYERS[f"textdata.{_op}_s"] = _layer("s", "lower", "job_s", ("analytics",))
    LAYERS[f"textdata.{_op}_rows"] = _layer("count", "higher", "job_s", ("analytics",))
LAYERS["textdata.job_s"] = _layer("s", "lower", "job_s", ("analytics",))
LAYERS["textdata.job_cpu_s"] = _layer("s", "lower", "job_s", ("analytics",))
LAYERS["textdata.remainder_s"] = _layer("s", "lower", "job_s", ("analytics",))
# Ray runtime health and the tracing itself
LAYERS["ray.error_lines"] = _layer("count", "lower", "health", WORKLOADS)
LAYERS["trace.spans"] = _layer("count", "lower", "health", WORKLOADS)
LAYERS["trace.overhead_share"] = _layer("share", "lower", "job_s", WORKLOADS)


def render(kind: str, values: dict, workload: str) -> dict:
    """The ``metrics`` object of the result line: every metric of
    ``kind`` ("end_to_end" | "per_layer") as ``{value, unit}``.
    Per-layer metrics whose layer ``workload`` does not exercise read 0."""
    if kind == "end_to_end":
        return {n: {"value": float(values[n]), "unit": u} for n, (u, _) in END_TO_END.items()}
    out = {}
    for name, spec in LAYERS.items():
        v = values[name] if workload in spec["on"] else 0
        out[name] = {"value": float(v), "unit": spec["unit"]}
    return out
