"""Alert-rule evaluation inside the crawl loop (stages.AlertStage via
CrawlConfig(alerting=True)) — the crawl-time integration of
services/alert_service.py:67-129.

Oracle: the persisted raw alerts must equal a direct vectorized
re-evaluation of CRAWL_ALERT_RULES over the persisted pages table
(same closed rule set, no cooldown), and monitor.apply_cooldown over
them must keep exactly the earliest alert per (rule, day bucket)."""

import glob
import os

import polars as pl
import pytest


SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def crawl_out(ray_session, tmp_path_factory):
    from link_profiler_repo_ray.pipelines.crawl import CrawlConfig, run_crawl

    out = str(tmp_path_factory.mktemp("alertcrawl"))
    cfg = CrawlConfig(
        num_seen_shards=2, num_fetchers=2, output_dir=out, alerting=True
    )
    run_crawl(SF, cfg)
    return out


def _expected_alerts(pages: pl.DataFrame) -> pl.DataFrame:
    from link_profiler_repo_ray.stages import CMP_OPS, CRAWL_ALERT_RULES

    fired = []
    for rule_id, name, metric, op, threshold, severity, pattern in CRAWL_ALERT_RULES:
        hit = CMP_OPS[op](pl.col(metric), threshold)
        if pattern is not None:
            hit = hit & pl.col("url").str.contains(pattern)
        fired.append(
            pages.filter(hit).select(
                pl.lit(rule_id, dtype=pl.Int64).alias("rule_id"),
                pl.lit(name).alias("rule_name"),
                pl.lit(severity).alias("severity"),
                pl.col("url"),
                pl.col(metric).cast(pl.Float64).alias("metric_value"),
                pl.col("warc_ts").alias("triggered_ts"),
            )
        )
    return pl.concat(fired)


def test_crawl_alerts_match_page_recompute(crawl_out):
    pages = pl.read_parquet(os.path.join(crawl_out, "pages", "*.parquet"))
    alerts = pl.read_parquet(os.path.join(crawl_out, "alerts", "*.parquet"))
    want = _expected_alerts(pages)

    assert len(alerts) == len(want) > 0
    key = ["rule_id", "url"]
    assert alerts.sort(key).select(want.columns).equals(want.sort(key))
    # every rule discriminates on this corpus: fires on >0 and <all pages
    per_rule = alerts.group_by("rule_id").len()
    assert per_rule.height >= 3
    assert per_rule.get_column("len").max() < len(pages)


def test_cooldown_over_crawl_alerts(crawl_out, ray_session):
    import ray.data as rd

    from link_profiler_repo_ray.pipelines.monitor import ALERT_COOLDOWN_S, apply_cooldown
    files = sorted(glob.glob(os.path.join(crawl_out, "alerts", "*.parquet")))
    raw = pl.read_parquet(files)
    cooled = pl.from_pandas(
        apply_cooldown(rd.read_parquet(files)).to_pandas()
    )
    # oracle: earliest per (rule, day bucket) for clocked alerts;
    # null-ts alerts (fetch misses have no capture timestamp) pass
    # through unsuppressed, deduped per (rule, url) only
    nn = (
        raw.filter(pl.col("triggered_ts").is_not_null())
        .with_columns(
            (pl.col("triggered_ts").dt.epoch(time_unit="s") // ALERT_COOLDOWN_S).alias("b")
        )
        .sort(["triggered_ts", "url"])
        .group_by(["rule_id", "b"], maintain_order=True)
        .first()
        .drop("b")
    )
    nulls = raw.filter(pl.col("triggered_ts").is_null()).unique(
        ["rule_id", "url"], keep="first", maintain_order=True
    )
    assert len(nulls) > 0  # the dangling-seed misses fire null-ts alerts
    want = pl.concat([nn, nulls.select(nn.columns)])
    key = ["rule_id", "url"]
    assert len(cooled) < len(raw)
    assert cooled.sort(key).select(want.columns).equals(want.sort(key))


def test_alerting_off_by_default(ray_session, tmp_path):
    from link_profiler_repo_ray.pipelines.crawl import CrawlConfig, run_crawl

    out = str(tmp_path / "noalerts")
    run_crawl(SF, CrawlConfig(num_seen_shards=2, num_fetchers=2, output_dir=out))
    assert not os.path.exists(os.path.join(out, "alerts"))
