"""Driver-window honesty guard (round-3 verdict item 10 / ADVICE).

The driver records only the first 50 ``queries()`` entries.  The
contract: every query that CAN be value-hash-verified (has an
``oracle_sql`` entry) is either inside that window or (a) is
redundantly covered by an in-window sibling sharing its upstream
parse/rollup AND (b) is still hash-verified in-repo by
tests/test_queries_oracle.py.  These assertions make registry growth
fail loudly instead of silently orphaning a query."""



import __ray_entry__ as entry

WINDOW = 50

# yielded query -> the in-window sibling that exercises the same
# upstream parse/rollup (must stay consistent with the rationale in
# __ray_entry__._YIELD_WINDOW_SLOT)
SIBLINGS = {
    # --- round-5 rotation: r4's window anchors now yield; each points
    # at a former dependent that took its window slot (same upstream
    # parse/rollup, justifications inline in __ray_entry__.py) ---
    "cc_cdx_parse": "cdx_seed_frontier",
    "wayback_latest_snapshot": "wayback_domain_age",
    "sitemap_parse": "sitemap_seed_frontier",
    "keyword_gap": "serp_rank_latest",
    "ai_content_scores": "ai_calibration",
    "technical_audit": "full_seo_audit",
    "content_gap_topics": "ai_calibration",
    "outreach_campaign_stats": "link_prospects",
    "seo_metrics": "full_seo_audit",
    "domain_value_scores": "top_valuable_domains",
    "customers_without_orders": "bloom_semijoin",
    "latest_event_per_user": "events_rolling_window",
    "anomalous_events": "anomalous_events_windowed",
    "edge_snapshot_merge": "enriched_edges",
    "domain_intelligence": "enriched_edges",
    "url_priority_scores": "url_filter_scores",
    "text_extract": "web3_content_index",
    # enriched_edges consumes the same ExtractLinksStage edge rows
    # (link_health_audit moved out of the window in round 5)
    "extract_links": "enriched_edges",
    "crawl_bfs": "robots_block_rates",
    "link_profiles": "top_anchors_referrers",
    "host_graph": "host_triangles",  # same host_graph → undirected layout
    "link_intersect": "related_hosts_cocitation",
    "token_stats": "doc_quality",
    "dedup_exact": "line_dedup",
    "word_jaccard_pairs": "inverted_index",
    "embedding_topk": "embedding_centroids",
    "media_features": "media_features_png",
    "embedding_near_dups": "embedding_centroids",
    "vocab_top_tokens": "inverted_index",
    "pii_scrub": "clean_text",
    "domain_balanced_sample": "mixture_sample",
    "quality_funnel": "doc_quality",
    "contamination_ngrams": "ngram_novelty",
    "dataset_split": "mixture_sample",
    "curated_documents": "clean_text",
    "q1_lineitem": "order_priority_revenue",
    "revenue_by_nation": "order_priority_revenue",
    "events_by_day": "events_rollup",
    "sessionize": "event_funnel",
    "events_asof_join": "events_range_join",
    # --- stayed yielded from r4; siblings re-pointed at the rotated
    # window members of the same family ---
    "tfidf_top_terms": "inverted_index",
    "bm25_topk": "inverted_index",
    "repetition_metrics": "doc_quality",
    "dsir_scores": "unigram_logprob",
    "ccnet_buckets": "unigram_logprob",
    "dsir_select": "mixture_sample",
    "token_entropy": "inverted_index",
    "source_kl_divergence": "token_zipf_fit",
    "badwords_filter": "doc_quality",
    "source_lang_mix": "source_quality_rollup",
    "chunk_documents": "doc_quality",
    "bigram_logprob": "ngram_novelty",
    "watermark_lateness": "events_rolling_window",
    "events_hopping_window": "events_rollup",
    "events_distinct_users": "events_rollup",
    "range_partition_plan": "value_percentiles",
    # the three below: same host_graph → undirected layout as host_triangles
    "host_reciprocal_links": "host_triangles",
    "host_clustering": "host_triangles",
    "host_degree_assortativity": "host_triangles",
    "profiles_incremental": "top_anchors_referrers",
    "expired_domain_finder": "top_valuable_domains",
    "anchor_fuzzy_pairs": "enriched_edges",  # same edges parse (round-5 repoint)
    "shard_balance_report": "url_filter_scores",
    "tar_shard_roundtrip": "web3_content_index",
    "snapshot_diff": "mixture_sample",
    "redirect_chains": "mixture_sample",
    "cohort_retention": "event_funnel",
    # displaced by embed_documents joining the window (round 5)
    "exact_substring_dups": "ngram_novelty",
    # displaced by whois_domain_age + domain_intelligence_sources (round 5)
    "c4_filters": "doc_quality",
    "token_stats_bpe": "doc_quality",
    # displaced by media_features_jpeg joining the window (round 5)
    "embedding_quantize": "embedding_centroids",
    # displaced by video_frame_features joining the window (round 5)
    "crawl_tier_assignment": "top_valuable_domains",
    # full_seo_audit's bl CTE is link_health_audit's broken-link scan
    # rolled up per page (same edges parse, same tdoc % 17 rule)
    "link_health_audit": "full_seo_audit",
    # the per-target distinct-referrer rollup is the same pair-index
    # machinery top_anchors_referrers exercises in-window
    "referring_domains_exact": "top_anchors_referrers",
}


def test_all_oracle_queries_fit_window_or_yield():
    oracles = entry.oracle_sql()
    yielded = set(entry._YIELD_WINDOW_SLOT)
    assert len(oracles) - len(yielded) <= WINDOW, (
        f"{len(oracles)} oracle queries minus {len(yielded)} yields exceeds the "
        f"{WINDOW}-slot driver window — add a redundantly-covered query to "
        "_YIELD_WINDOW_SLOT (with a sibling) or drop one"
    )


def test_window_prefix_is_exactly_the_unyielded_oracles():
    qs = list(entry.queries().keys())
    oracles = set(entry.oracle_sql())
    yielded = set(entry._YIELD_WINDOW_SLOT)
    in_window = set(qs[:WINDOW])
    # every unyielded oracle query must land in the recorded window
    missing = (oracles - yielded) - in_window
    assert not missing, f"oracle-backed queries fell out of the driver window: {missing}"


def test_every_yield_has_an_in_window_sibling():
    qs = list(entry.queries().keys())
    oracles = set(entry.oracle_sql())
    in_window = set(qs[:WINDOW])
    for name in entry._YIELD_WINDOW_SLOT:
        assert name in oracles, f"yielded query {name} lost its in-repo oracle"
        sib = SIBLINGS.get(name)
        assert sib is not None, f"yielded query {name} has no documented sibling"
        assert sib in in_window, f"{name}'s sibling {sib} is not in the driver window"


def test_every_registry_query_is_exposed():
    from link_profiler_repo_ray.registry import queries as reg

    exposed = set(entry.queries().keys())
    assert set(reg().keys()) == exposed
