"""The hygiene, history, audit, prospects, social, monitor and curate
pipelines and the cdx, serpkw, sitemap and tarshard sources run their
stateless maps as task waves: only the actor-pool queries start a Ray
Data execution, the prospect queries log no schema-mismatch warning,
and the histogram threshold picks give typed zero rows on an empty
documents table."""

import logging

import pytest

SF = "/root/testdata/sf0.001"

# registry queries of these modules whose Ray Data execution is an
# actor pool (the lazy read it consumes runs with it)
_ACTOR_POOL = {"ai_calibration", "ai_content_scores", "robots_block_rates"}


def _tail_queries() -> dict:
    from link_profiler_repo_ray import registry

    mods = {"hygiene", "history", "audit", "prospects", "social", "monitor", "curate",
            "cdx", "serpkw", "sitemap", "tarshard"}
    return {name: fn for name, fn in registry.queries().items()
            if fn.__module__.rsplit(".", 1)[-1] in mods}


@pytest.mark.usefixtures("ray_session")
def test_tail_queries_start_no_ray_data_execution(ray_data_executions):
    """Building and materializing every query of these modules that has
    no actor pool starts no Ray Data execution: no lazy read or map in
    front of a barrier, no union, repartition or Dataset aggregate."""
    queries = _tail_queries()
    assert len(queries) > 25 and _ACTOR_POOL <= set(queries)
    for name, fn in queries.items():
        if name in _ACTOR_POOL:
            continue
        before = len(ray_data_executions)
        fn(SF).materialize()
        n = len(ray_data_executions) - before
        assert not n, f"{name} started {n} Ray Data executions"


@pytest.mark.usefixtures("ray_session")
def test_prospect_queries_log_no_schema_mismatch():
    """The two strategies of ``link_prospects`` meet in one exchange, so
    no zero-column block travels next to a typed one and Ray Data logs
    no "RefBundle with a different schema" warning, neither while the
    queries run nor when their results are read."""
    from link_profiler_repo_ray.pipelines import prospects

    seen = []

    class Collect(logging.Handler):
        def emit(self, record):
            seen.append(record.getMessage())

    logger = logging.getLogger("ray.data")
    handler, level = Collect(logging.WARNING), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    try:
        for op in (prospects.link_prospects, prospects.outreach_campaign_stats):
            assert len(op(SF).materialize().to_pandas()) > 0, op.__name__
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    assert not [m for m in seen if "RefBundle with a different schema" in m]


@pytest.mark.usefixtures("ray_session")
def test_threshold_picks_on_a_zero_row_documents_table(tmp_path):
    """``ccnet_buckets`` and ``crawl_tier_assignment`` pick their
    thresholds from a histogram; with no documents (so no pages and no
    hosts) the histogram is empty, and both return zero rows with the
    columns they have on sf0.001."""
    import pyarrow.parquet as pq

    from link_profiler_repo_ray import ops
    from link_profiler_repo_ray.pipelines import research, textdata

    pq.write_table(pq.read_table(f"{SF}/documents.parquet").slice(0, 0),
                   tmp_path / "documents.parquet")
    for op in (textdata.ccnet_buckets, research.crawl_tier_assignment):
        want = ops.collect_table(op(SF))
        got = ops.collect_table(op(str(tmp_path)))
        assert want.num_rows > 0 and got.num_rows == 0, op.__name__
        assert got.schema == want.schema, op.__name__
