"""A8 per-round metrics channel (stats.jsonl) + the 100-TB scale profile.

The stats stream is the Ray-side analogue of the reference's Prometheus
counters / efficiency report (monitoring/crawler_metrics.py:123-433):
one O(counters) JSON row per executed round, appended to the run's
lineage directory — nothing accumulates in driver RAM.
"""

import glob
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from link_profiler_repo_ray.pipelines.crawl import CrawlConfig, oracle_crawl, run_crawl

SF = "/root/testdata/sf0.001"


@pytest.mark.usefixtures("ray_session")
def test_stats_jsonl_one_row_per_round(tmp_path):
    out = str(tmp_path / "out")
    cfg = CrawlConfig(
        num_seen_shards=2, num_fetchers=2, output_dir=out, collect_edges=False
    )
    res = run_crawl(SF, cfg)
    path = os.path.join(out, "stats.jsonl")
    assert os.path.exists(path)
    with open(path) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    assert len(rows) == res.counters["rounds"]
    # per-round deltas reconstruct the run totals exactly
    for key in ("pages_fetched", "dedup_hits", "robots_denied", "fetch_errors"):
        assert sum(r[key] for r in rows) == res.counters[key], key
    # every row is self-contained: round id, stage timers, rate
    for r in rows:
        for k in ("round", "t_admit", "t_fetch", "t_expand", "pages_per_sec", "pages_total"):
            assert k in r
    # cumulative pages_total is monotone and ends at the run total
    totals = [r["pages_total"] for r in rows]
    assert totals == sorted(totals)
    assert totals[-1] == res.counters["pages_fetched"]


@pytest.mark.usefixtures("ray_session")
def test_stats_cli_prints_stream(tmp_path, capsys):
    from link_profiler_repo_ray.cli import main

    out = str(tmp_path / "out")
    cfg = CrawlConfig(
        num_seen_shards=2, num_fetchers=2, output_dir=out, collect_edges=False
    )
    res = run_crawl(SF, cfg)
    assert main(["stats", "--dir", out]) == 0
    cap = capsys.readouterr()
    lines = [json.loads(line) for line in cap.out.splitlines() if line.strip()]
    assert len(lines) == res.counters["rounds"]
    summary = json.loads(cap.err.strip().splitlines()[-1])
    assert summary["rounds"] == res.counters["rounds"]
    assert summary["pages_fetched"] == res.counters["pages_fetched"]


@pytest.mark.usefixtures("ray_session")
def test_stats_off_by_default_without_lineage_dir():
    cfg = CrawlConfig(num_seen_shards=2, num_fetchers=2)
    run_crawl(SF, cfg)  # no output_dir/checkpoint_dir → nowhere to write; must not error


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("target", ["output_dir", "checkpoint_dir"])
def test_scale_profile_identical_analytics(tmp_path, target):
    """CrawlConfig.scale() must change WHERE output lands, never WHAT
    the crawl computes: order lineage read back from parquet equals the
    sequential oracle, and the driver holds nothing.  The checkpoint
    case is the benchmark's shape (a checkpoint every round)."""
    out = str(tmp_path / "scale_out")
    cfg = CrawlConfig.scale(num_seen_shards=2, num_fetchers=2, **{target: out})
    assert cfg.seen_backend == "cuckoo"
    assert not cfg.collect_edges and not cfg.resolved_collect_order()
    res = run_crawl(SF, cfg)
    # driver diet: no order/edge tables accumulated
    assert res.order.num_rows == 0
    assert res.edges.num_rows == 0
    assert "seen_urls" not in res.counters or res.counters["seen_urls"] == []
    # analytics from the persisted lineage match the oracle exactly
    lineage = out if target == "output_dir" else os.path.join(out, "round=*")
    order_glob = "order-*.parquet" if target == "output_dir" else "order.parquet"
    files = sorted(glob.glob(os.path.join(lineage, order_glob)))
    order = pa.concat_tables(pq.read_table(f) for f in files).sort_by("seq")
    ora = oracle_crawl(SF, cfg)
    got = list(zip(order.column("url").to_pylist(), order.column("depth").to_pylist()))
    assert got == ora["order"]
    assert res.counters["seen_total"] == len(ora["seen"])
    # pages persisted by the fetch actors, not returned
    assert glob.glob(os.path.join(lineage, "pages", "part-*.parquet"))


def test_scale_profile_override_wins():
    cfg = CrawlConfig.scale(seen_backend="exact", max_depth=5)
    assert cfg.seen_backend == "exact"
    assert cfg.max_depth == 5
    assert not cfg.collect_edges


@pytest.mark.usefixtures("ray_session")
def test_stats_jsonl_survives_resume_without_duplicates(tmp_path):
    """Stale stats rows from rounds the resume re-executes are dropped
    (and a fresh run into a reused dir truncates the old stream), so
    one-row-per-round holds across crash+resume."""
    ck = str(tmp_path / "ck")
    cfg = dict(num_seen_shards=2, num_fetchers=2, checkpoint_dir=ck,
               collect_edges=False, checkpoint_every=3)
    run_crawl(SF, CrawlConfig(**cfg, stop_after_round=5))  # stops past ckpt round 3
    res = run_crawl(SF, CrawlConfig(**cfg, resume=True))

    path = os.path.join(ck, "stats.jsonl")
    with open(path) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    rounds = [r["round"] for r in rows]
    assert len(rounds) == len(set(rounds)), "duplicate stats rows after resume"
    # the merged stream still reconstructs the full-run totals
    full = run_crawl(SF, CrawlConfig(num_seen_shards=2, num_fetchers=2))
    assert sum(r["pages_fetched"] for r in rows) == full.counters["pages_fetched"]


@pytest.mark.usefixtures("ray_session")
def test_fetch_busy_split_within_busy_time(tmp_path):
    """The fetch actors' busy time splits into parse, persistence and
    candidate staging; the three parts add up to no more than the busy
    time (up to the counters' rounding to 1 ms), the rest being the fetch."""
    cfg = CrawlConfig(num_seen_shards=2, num_fetchers=2, checkpoint_dir=str(tmp_path / "ck"))
    c = run_crawl(SF, cfg).counters
    parts = [c["fetch_parse_s"], c["fetch_persist_s"], c["fetch_stage_s"]]
    assert all(p >= 0 for p in parts)
    assert c["fetch_parse_s"] > 0 and c["fetch_persist_s"] > 0
    assert sum(parts) <= c["fetch_busy_s"] + 0.002
