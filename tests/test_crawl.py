"""Crawl engine vs the sequential reference-semantics oracle:

crawl order, final URL-seen set, crawled set, politeness budget,
max_pages cap, retry demotion, and checkpoint/resume equivalence
(FIXTURES.md §8 protocol)."""

import numpy as np
import pytest

from link_profiler_repo_ray.pipelines.crawl import CrawlConfig, oracle_crawl, run_crawl

SF = "/root/testdata/sf0.001"


def _order_pairs(res):
    return list(zip(res.order.column("url").to_pylist(), res.order.column("depth").to_pylist()))


@pytest.mark.usefixtures("ray_session")
class TestCrawl:
    def test_ordered_crawl_matches_oracle(self):
        cfg = CrawlConfig(num_seen_shards=2, num_fetchers=2)
        res = run_crawl(SF, cfg)
        ora = oracle_crawl(SF, cfg)
        assert _order_pairs(res) == ora["order"]
        assert set(res.counters["seen_urls"]) == ora["seen"]
        assert {u for u, _ in _order_pairs(res)} == ora["crawled"]

    def test_bfs_mode_matches_oracle(self):
        cfg = CrawlConfig(politeness=False, num_seen_shards=2, num_fetchers=2)
        res = run_crawl(SF, cfg)
        ora = oracle_crawl(SF, cfg)
        assert _order_pairs(res) == ora["order"]
        assert set(res.counters["seen_urls"]) == ora["seen"]

    @pytest.mark.parametrize("checkpoint", [False, True], ids=["nockpt", "ckpt"])
    @pytest.mark.parametrize("politeness", [True, False], ids=["polite", "bfs"])
    def test_max_pages_budget(self, tmp_path, politeness, checkpoint):
        """At 30 pages the cut round keeps robots-denied rows inside the
        budget (round 1 with politeness, round 0 without), so the crawl
        fetches fewer than 30 there and must go on past the cut with
        the rejected rows back in the frontier."""
        cfg = CrawlConfig(
            max_pages=30,
            politeness=politeness,
            num_seen_shards=2,
            num_fetchers=2,
            checkpoint_dir=str(tmp_path / "ck") if checkpoint else None,
        )
        res = run_crawl(SF, cfg)
        ora = oracle_crawl(SF, cfg)
        assert res.counters["pages_fetched"] == 30
        assert _order_pairs(res) == ora["order"]
        assert set(res.counters["seen_urls"]) == ora["seen"]
        # the cut round fetched fewer than its budget share
        assert res.order.column("round").to_pylist()[-1] > (1 if politeness else 0)

    def test_budgeted_resume_equals_uninterrupted(self, tmp_path):
        """Stop a budgeted, checkpointed crawl at its cut round (round 2
        at 45 pages: two of its 12 in-budget rows are robots-denied, so
        the crawl continues) and resume: the shard dumps must hold the
        rejected rows, and the result must equal the uninterrupted run."""
        base = dict(max_pages=45, num_seen_shards=2, num_fetchers=2)
        full = run_crawl(SF, CrawlConfig(**base))
        ck = str(tmp_path / "ck")
        run_crawl(SF, CrawlConfig(**base, checkpoint_dir=ck, stop_after_round=2))
        resumed = run_crawl(SF, CrawlConfig(**base, checkpoint_dir=ck, resume=True))
        assert _order_pairs(resumed) == _order_pairs(full)
        assert resumed.counters["seen_urls"] == full.counters["seen_urls"]
        assert resumed.counters["pages_fetched"] == full.counters["pages_fetched"] == 45
        assert resumed.order.column("round").to_pylist()[-1] == 3
        # the shard state itself: the rejected rows and the cut round's
        # discoveries must have reached the dump
        for key in ("seen_total", "frontier_remaining", "discovered"):
            assert resumed.counters[key] == full.counters[key], key

    def test_robots_denied_counted(self):
        cfg = CrawlConfig(num_seen_shards=2, num_fetchers=2)
        res = run_crawl(SF, cfg)
        assert res.counters["robots_denied"] > 0
        # no crawled url may live on a disallowed host (host_id % 7 == 3)
        for h in res.order.column("host").to_pylist():
            hid = h.split(".")[0]
            if hid.startswith("h") and hid[1:].isdigit():
                assert int(hid[1:]) % 7 != 3

    def test_resume_equals_uninterrupted(self, tmp_path):
        ck = str(tmp_path / "ck")
        cfg_full = CrawlConfig(num_seen_shards=2, num_fetchers=2, checkpoint_dir=ck)
        full = run_crawl(SF, cfg_full)

        ck2 = str(tmp_path / "ck2")
        cfg_a = CrawlConfig(num_seen_shards=2, num_fetchers=2, checkpoint_dir=ck2, stop_after_round=4)
        run_crawl(SF, cfg_a)
        cfg_b = CrawlConfig(num_seen_shards=2, num_fetchers=2, checkpoint_dir=ck2, resume=True)
        resumed = run_crawl(SF, cfg_b)

        assert _order_pairs(resumed) == _order_pairs(full)
        assert resumed.counters["seen_urls"] == full.counters["seen_urls"]
        assert resumed.edges.num_rows == full.edges.num_rows

    def test_retry_demotion_and_success_on_second_attempt(self):
        cfg = CrawlConfig(num_seen_shards=2, num_fetchers=2, flaky_mod=50)
        res = run_crawl(SF, cfg)
        assert res.counters["fetch_errors"] > 0
        # every flaky url must eventually be fetched (retry succeeded)
        ora = oracle_crawl(SF, CrawlConfig())
        flaky_crawled_ora = {u for u in ora["crawled"] if u.rsplit("/", 1)[-1].isdigit() and int(u.rsplit("/", 1)[-1]) % 50 == 0}
        crawled = {u for u, _ in _order_pairs(res)}
        assert flaky_crawled_ora <= crawled
        assert res.counters["dead_lettered"] == 0

    def test_edges_deduplicated_per_crawl(self):
        cfg = CrawlConfig(num_seen_shards=2, num_fetchers=2)
        res = run_crawl(SF, cfg)
        # one fetch per url → edge rows unique per (source,target,anchor)
        import polars as pl

        df = pl.from_arrow(res.edges.select(["source_url", "target_url", "anchor_text"]))
        assert df.height == df.unique().height


@pytest.mark.usefixtures("ray_session")
class TestCircuitBreaker:
    def test_persistent_failures_trip_open_and_dead_letter(self):
        """T5 wired into the crawl (distributed_circuit_breaker.py:22-152
        semantics on the logical round clock): hosts that fail every
        attempt trip OPEN after 5 consecutive failures, are withheld for
        recovery_rounds, probe HALF_OPEN, fail again and re-open; their
        URLs dead-letter after max_retries, and the crawl terminates."""
        cfg = CrawlConfig(
            num_seen_shards=2,
            num_fetchers=2,
            flaky_mod=1,  # every corpus url fails...
            flaky_persistent=True,  # ...on every attempt
            breaker_recovery_rounds=3,
        )
        res = run_crawl(SF, cfg)
        assert res.counters["breaker_opens"] > 0
        assert res.counters["dead_lettered"] > 0
        # no corpus page was ever fetched successfully; only the two
        # dangling seeds resolve (as 404 fetch misses)
        assert res.counters["pages_fetched"] == res.counters["fetch_misses"] == 2
        # every non-dangling, robots-allowed seed exhausted its retries
        # (seeds on Disallow'd hosts — host_id % 7 == 3 — are admitted
        # but never fetched, so they cannot dead-letter)
        from link_profiler_repo_ray.sources import corpus as corpus_mod

        n_docs = corpus_mod.corpus_n_docs(SF)
        n_seeds = sum(
            1
            for d in range(0, n_docs, 17)
            if corpus_mod.host_id(d, n_docs) % 7 != 3
        )
        assert res.counters["dead_lettered"] == n_seeds

    def test_breaker_neutral_when_no_failures(self):
        """With zero 5xx outcomes the breaker never leaves CLOSED and the
        oracle-matched ordering is untouched."""
        cfg = CrawlConfig(num_seen_shards=2, num_fetchers=2)
        res = run_crawl(SF, cfg)
        assert res.counters["breaker_opens"] == 0
        assert res.counters["breaker_open_hosts"] == 0

    def test_open_host_is_withheld_for_recovery_window(self):
        """While a host's breaker is OPEN, none of its URLs may appear in
        the admission log until the recovery window has elapsed."""
        import polars as pl

        cfg = CrawlConfig(
            num_seen_shards=2,
            num_fetchers=2,
            flaky_mod=1,
            flaky_persistent=True,
            breaker_recovery_rounds=4,
            breaker_failure_threshold=2,
        )
        res = run_crawl(SF, cfg)
        df = pl.from_arrow(res.order)
        # per host: consecutive fetch ROUNDS with failures must show
        # gaps >= recovery window once the breaker has tripped twice
        # (open -> probe -> re-open); verify at least one host exhibits
        # a >= 4-round admission gap
        gaps = (
            df.filter(pl.col("status") == 503)
            .group_by("host")
            .agg(pl.col("round").unique().sort().alias("rounds"))
            .with_columns(
                pl.col("rounds").list.diff().list.max().alias("max_gap")
            )
        )
        assert res.counters["breaker_opens"] > 0
        assert gaps.get_column("max_gap").max() >= 4


@pytest.mark.usefixtures("ray_session")
class TestAdaptivePoliteness:
    def test_healthy_crawl_equals_fixed_mode(self):
        """With zero failures the adaptive limiter predicts the base
        delay, the robots Crawl-delay floor dominates, and ordering is
        byte-identical to the fixed-mode oracle (T4 is an overlay, not
        a semantic change, on healthy crawls)."""
        cfg = CrawlConfig(num_seen_shards=2, num_fetchers=2, politeness_mode="adaptive")
        res = run_crawl(SF, cfg)
        ora = oracle_crawl(SF, CrawlConfig(num_seen_shards=2, num_fetchers=2))
        assert _order_pairs(res) == ora["order"]
        assert set(res.counters["seen_urls"]) == ora["seen"]

    def test_failing_hosts_get_backed_off(self):
        """Persistent failures push the limiter into its ×4 backoff tier
        so failing hosts are admitted less often — the crawl takes more
        rounds than fixed mode while dead-lettering the same URLs."""
        base = dict(
            num_seen_shards=2,
            num_fetchers=2,
            flaky_mod=1,
            flaky_persistent=True,
            breaker_enabled=False,  # isolate the limiter from T5
        )
        import polars as pl

        fixed = run_crawl(SF, CrawlConfig(**base))
        adaptive = run_crawl(SF, CrawlConfig(**base, politeness_mode="adaptive"))
        assert adaptive.counters["dead_lettered"] == fixed.counters["dead_lettered"] > 0
        # the logical-round SPAN stretches (admissions spaced 4 rounds
        # apart instead of 1) even though the admission count is similar
        span_fixed = pl.from_arrow(fixed.order).get_column("round").max()
        span_adaptive = pl.from_arrow(adaptive.order).get_column("round").max()
        assert span_adaptive >= 2 * span_fixed


@pytest.mark.usefixtures("ray_session")
def test_resume_restores_breaker_and_limiter_state(tmp_path):
    """Kill/resume under persistent failures with BOTH failure-reactive
    subsystems on (T5 breaker + T4 adaptive limiter): the resumed run
    must replay the identical admission log, which requires breaker
    trip state AND limiter histories to round-trip through the
    checkpoint (failures are deterministic via flaky_persistent)."""
    base = dict(
        num_seen_shards=2,
        num_fetchers=2,
        flaky_mod=2,
        flaky_persistent=True,
        politeness_mode="adaptive",
        breaker_recovery_rounds=4,
        breaker_failure_threshold=3,
    )
    full = run_crawl(SF, CrawlConfig(**base))

    ck = str(tmp_path / "ck")
    run_crawl(SF, CrawlConfig(**base, checkpoint_dir=ck, stop_after_round=6))
    resumed = run_crawl(SF, CrawlConfig(**base, checkpoint_dir=ck, resume=True))
    assert _order_pairs(resumed) == _order_pairs(full)
    assert resumed.counters["dead_lettered"] == full.counters["dead_lettered"]
    assert resumed.counters["breaker_opens"] == full.counters["breaker_opens"]


@pytest.mark.usefixtures("ray_session")
def test_resume_without_checkpoint_raises(tmp_path):
    """A requested resume that finds no complete checkpoint must fail
    loudly instead of silently wiping the checkpoint dir (round-1
    advice)."""
    ck = str(tmp_path / "nonexistent")
    cfg = CrawlConfig(num_seen_shards=2, num_fetchers=2, checkpoint_dir=ck, resume=True)
    with pytest.raises(RuntimeError, match="resume requested"):
        run_crawl(SF, cfg)


@pytest.mark.usefixtures("ray_session")
def test_resume_survives_perf_knob_change(tmp_path):
    """num_fetchers / fetch_batch_size / checkpoint_every are perf-only
    knobs excluded from the config hash — changing them must not orphan
    a checkpoint (round-1 advice)."""
    ck = str(tmp_path / "ck")
    cfg_a = CrawlConfig(
        num_seen_shards=2, num_fetchers=2, checkpoint_dir=ck, stop_after_round=4
    )
    run_crawl(SF, cfg_a)
    cfg_b = CrawlConfig(
        num_seen_shards=2,
        num_fetchers=3,
        fetch_batch_size=512,
        checkpoint_every=2,
        checkpoint_dir=ck,
        resume=True,
    )
    resumed = run_crawl(SF, cfg_b)
    full = run_crawl(SF, CrawlConfig(num_seen_shards=2, num_fetchers=2))
    assert _order_pairs(resumed) == _order_pairs(full)
    assert resumed.counters["seen_urls"] == full.counters["seen_urls"]


@pytest.mark.usefixtures("ray_session")
def test_num_fetchers_one(tmp_path):
    """num_fetchers=1 exercises the single-return corpus split path
    (round-1 advice: this crashed actor construction)."""
    cfg = CrawlConfig(num_seen_shards=2, num_fetchers=1)
    res = run_crawl(SF, cfg)
    ora = oracle_crawl(SF, cfg)
    assert _order_pairs(res) == ora["order"]


def test_cuckoo_seen_overflow_spills_exactly():
    """A saturated cuckoo filter must keep answering correctly (spill
    set), never silently swallowing fresh keys (round-1 advice)."""
    from link_profiler_repo_ray.state.frontier import _CuckooSeen

    seen = _CuckooSeen(capacity=64)
    keys = np.arange(1, 2001, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    mask = seen.contains_and_insert(keys)
    assert mask.all()  # every first sighting reported new
    assert seen.overflow > 0  # the filter did saturate
    again = seen.contains_and_insert(keys)
    assert not again.any()  # and everything is remembered
    # state round-trip preserves both the filter and the spill set
    dump = seen.dump()
    fresh = _CuckooSeen(capacity=64)
    fresh.load(dump)
    assert not fresh.contains_and_insert(keys[:500]).any()


@pytest.mark.parametrize("backend", ["exact", "cuckoo"])
def test_seen_batch_semantics(backend):
    """First sighting within a batch wins; later batches see earlier ones."""
    from link_profiler_repo_ray.state.frontier import _CuckooSeen, _ExactSeen

    seen = _ExactSeen() if backend == "exact" else _CuckooSeen(capacity=1 << 10)
    key = np.uint64(0x9E3779B97F4A7C15)
    mask = seen.contains_and_insert(np.array([1, 2, 3, 2, 1], dtype=np.uint64) * key)
    assert mask.tolist() == [True, True, True, False, False]
    mask2 = seen.contains_and_insert(np.array([3, 4], dtype=np.uint64) * key)
    assert mask2.tolist() == [False, True]
    assert len(seen) == 4


def test_robots_rules():
    from link_profiler_repo_ray.state.politeness import RobotsIndex

    r = RobotsIndex({"a.com": "User-agent: *\nDisallow: /doc/\n"})
    assert not r.allowed("a.com", "https://a.com/doc/1")
    assert r.allowed("a.com", "https://a.com/other")
    assert r.allowed("unknown.com", "https://unknown.com/x")  # 404 ⇒ allow-all


@pytest.mark.usefixtures("ray_session")
def test_persisted_pages_byte_identical_to_corpus(tmp_path):
    """The BASELINE invariant end-to-end THROUGH the engine: the text
    column the crawl persists must equal the corpus's reference
    extraction byte-for-byte, per url."""
    import glob

    import pyarrow.parquet as pq

    from link_profiler_repo_ray.sources import corpus as corpus_mod

    ck = str(tmp_path / "ck")
    cfg = CrawlConfig(num_seen_shards=2, num_fetchers=2, checkpoint_dir=ck, max_pages=80)
    run_crawl(SF, cfg)
    pages = pq.read_table(
        sorted(glob.glob(ck + "/round=*/pages/*.parquet")),
        columns=["url", "text", "status"],
    )
    assert pages.num_rows > 0
    cdir = corpus_mod.corpus_dir(SF)
    ref = pq.read_table(
        sorted(glob.glob(cdir + "/pages_*.parquet")), columns=["url", "text"]
    )
    ref_text = dict(zip(ref.column("url").to_pylist(), ref.column("text").to_pylist()))
    checked = 0
    for u, t, st in zip(
        pages.column("url").to_pylist(),
        pages.column("text").to_pylist(),
        pages.column("status").to_pylist(),
    ):
        if st == 200:
            assert t == ref_text[u], u
            checked += 1
    assert checked > 0


@pytest.mark.usefixtures("ray_session")
def test_resume_with_sparse_state_checkpoints(tmp_path):
    """checkpoint_every=3: kill after a non-state round, resume re-runs
    the tail deterministically and the final run equals uninterrupted."""
    full = run_crawl(SF, CrawlConfig(num_seen_shards=2, num_fetchers=2))

    ck = str(tmp_path / "ck")
    cfg_a = CrawlConfig(
        num_seen_shards=2, num_fetchers=2, checkpoint_dir=ck,
        checkpoint_every=3, stop_after_round=7,
    )
    run_crawl(SF, cfg_a)
    cfg_b = CrawlConfig(
        num_seen_shards=2, num_fetchers=2, checkpoint_dir=ck,
        checkpoint_every=3, resume=True,
    )
    resumed = run_crawl(SF, cfg_b)
    assert _order_pairs(resumed) == _order_pairs(full)
    assert resumed.counters["seen_urls"] == full.counters["seen_urls"]


@pytest.mark.usefixtures("ray_session")
def test_buffered_output_keeps_full_order_log(tmp_path):
    """Review regression: in output-dir (buffered) mode the COMPLETE
    order log must survive to disk — an earlier version overwrote one
    path per round, keeping only the final round.  (Deltas are now
    buffered ~32k rows per file, so file count is bounded, not
    per-round; completeness is the invariant.)"""
    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq

    out = str(tmp_path / "out")
    cfg = CrawlConfig(
        num_seen_shards=2, num_fetchers=2, output_dir=out,
        collect_edges=False,  # order not collected on the driver either
    )
    res = run_crawl(SF, cfg)
    files = sorted(glob.glob(out + "/order-*.parquet"))
    assert files
    order = pa.concat_tables(pq.read_table(f) for f in files).sort_by("seq")
    ora = oracle_crawl(SF, cfg)
    got = list(zip(order.column("url").to_pylist(), order.column("depth").to_pylist()))
    assert got == ora["order"]


@pytest.mark.usefixtures("ray_session")
def test_record_outcomes_408_trips_breaker():
    """Review regression: 408 is a RETRYABLE status (web_crawler.py
    retry set) and must count as a breaker failure in the shard,
    matching the driver's retry/dead-letter classification."""
    import pyarrow as pa
    import ray

    from link_profiler_repo_ray.state.breaker import CLOSED, OPEN
    from link_profiler_repo_ray.state.frontier import FrontierShard

    shard = FrontierShard.remote(
        0, {}, 2, True, 3, False, breaker_cfg={"failure_threshold": 3}
    )

    def feed(round_no, statuses):
        rows = pa.table(
            {"host": ["t.com"] * len(statuses), "status": pa.array(statuses, pa.int16())}
        )
        ray.get(shard.record_outcomes.remote(round_no, rows))
        return ray.get(shard.breaker_state_of.remote("t.com"))

    try:
        assert feed(0, [200, 404]) == CLOSED  # served responses are successes
        assert feed(1, [408, 408]) == CLOSED  # below the threshold
        assert feed(2, [408]) == OPEN
    finally:
        ray.kill(shard)


def test_output_dir_is_a_perf_knob():
    """Review regression: changing output_dir must not orphan a
    checkpoint (it is pure I/O placement)."""
    a = CrawlConfig(checkpoint_dir="/tmp/x", output_dir="/data/a")
    b = CrawlConfig(checkpoint_dir="/tmp/x", output_dir="/data/b")
    assert a.config_hash() == b.config_hash()
