"""S1 real mode / T8: live-HTTP crawl against a local test server.

Semantics under test (crawlers/web_crawler.py:262-328 +
utils/session_manager.py): robots.txt fetched once per host and
enforced, content-type sniffing (only text/html parsed), payload size
cap, 404 handled as a miss, transport retry statuses, link discovery
and dedup through the same frontier discipline as replay mode.
"""

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from link_profiler_repo_ray.pipelines.crawl import CrawlConfig, run_crawl

SF = "/root/testdata/sf0.001"  # unused by real mode, required by the API


PAGES = {
    "/": '<html><body><h1>Home</h1>'
    '<p>go <a href="/a.html">a</a> and <a href="/blocked/secret.html">secret</a>'
    ' and <a href="/missing.html">gone</a> and <a href="/pic.png">pic</a>'
    ' and <a href="/big.html">big</a>.</p></body></html>',
    "/a.html": '<html><body><p>back <a href="/">home</a>, on to '
    '<a href="/b.html" rel="nofollow">b</a>.</p></body></html>',
    "/b.html": "<html><body><p>terminal page.</p></body></html>",
    "/blocked/secret.html": "<html><body><p>should never be fetched</p></body></html>",
}

ROBOTS = "User-agent: *\nDisallow: /blocked/\n"


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, *a):  # silence
        pass

    def do_GET(self):
        self.server.requests.append(self.path)
        if self.path == "/robots.txt":
            body = ROBOTS.encode()
            self.send_response(200)
            self.send_header("Content-Type", "text/plain")
        elif self.path in PAGES:
            body = PAGES[self.path].encode()
            self.send_response(200)
            self.send_header("Content-Type", "text/html; charset=utf-8")
        elif self.path == "/pic.png":
            body = b"\x89PNG fake image bytes"
            self.send_response(200)
            self.send_header("Content-Type", "image/png")
        elif self.path == "/big.html":
            body = b"<html><body>" + b"x" * 8192 + b"</body></html>"
            self.send_response(200)
            self.send_header("Content-Type", "text/html")
        else:
            body = b"not found"
            self.send_response(404)
            self.send_header("Content-Type", "text/plain")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture()
def site():
    srv = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    srv.requests = []
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    yield srv
    srv.shutdown()


@pytest.mark.usefixtures("ray_session")
def test_real_fetch_crawl(site, tmp_path):
    port = site.server_address[1]
    base = f"http://127.0.0.1:{port}"
    cfg = CrawlConfig(
        fetch_mode="real",
        seeds=[{"url": base + "/", "priority": 5}],
        num_seen_shards=2,
        num_fetchers=2,
        real_max_file_size_mb=4096 / (1024 * 1024),  # 4 KiB cap → /big.html dropped
        real_timeout_s=5.0,
        output_dir=str(tmp_path / "out"),
        alerting=True,
    )
    res = run_crawl(SF, cfg)

    by_url = dict(
        zip(res.order.column("url").to_pylist(), res.order.column("status").to_pylist())
    )
    host = f"127.0.0.1:{port}"
    # robots enforced: the Disallow'd path was DISCOVERED but never
    # requested from the server
    assert base + "/blocked/secret.html" in set(res.counters["seen_urls"])
    assert "/blocked/secret.html" not in site.requests
    # robots.txt itself was fetched exactly once (per-host cache, T2)
    assert site.requests.count("/robots.txt") == 1

    # all allowed pages crawled, each exactly once (seen-set dedup)
    for path in ("/", "/a.html", "/b.html", "/missing.html", "/pic.png", "/big.html"):
        assert by_url.get(base + path) is not None, path
        assert site.requests.count(path) == 1, path
    assert by_url[base + "/"] == 200
    assert by_url[base + "/missing.html"] == 404

    # link extraction through the live path: home → a → b, nofollow preserved
    import polars as pl

    edges = pl.from_arrow(res.edges)
    pairs = set(
        zip(edges.get_column("source_url").to_list(), edges.get_column("target_url").to_list())
    )
    assert (base + "/", base + "/a.html") in pairs
    assert (base + "/a.html", base + "/b.html") in pairs
    nf = edges.filter(pl.col("target_url") == base + "/b.html")
    assert nf.get_column("link_type").to_list() == ["nofollow"]

    # content-type sniff + size cap: pic.png and big.html yield no edges
    assert not edges.filter(pl.col("source_url").str.contains("pic.png")).height
    assert not edges.filter(pl.col("source_url").str.contains("big.html")).height

    # byte-identical text extraction ran on the live payloads
    import glob

    import pyarrow.parquet as pq

    pages = pq.read_table(
        sorted(glob.glob(str(tmp_path / "out" / "pages" / "*.parquet"))),
        columns=["url", "text"],
    )
    texts = dict(zip(pages.column("url").to_pylist(), pages.column("text").to_pylist()))
    assert texts[base + "/b.html"] == "terminal page."

    # alert rules evaluated on the live path too: the 404 fires the
    # critical fetch_error rule, with a null triggered_ts (live fetches
    # carry no capture timestamp)
    alerts = pl.read_parquet(str(tmp_path / "out" / "alerts" / "*.parquet"))
    crit = alerts.filter(pl.col("rule_name") == "fetch_error")
    assert base + "/missing.html" in crit.get_column("url").to_list()
    assert crit.get_column("triggered_ts").is_null().all()


@pytest.mark.usefixtures("ray_session")
def test_real_fetch_requires_seeds():
    with pytest.raises(ValueError, match="requires CrawlConfig.seeds"):
        run_crawl(SF, CrawlConfig(fetch_mode="real"))


@pytest.mark.usefixtures("ray_session")
def test_real_fetch_transport_error_dead_letters(site):
    """A seed pointing at a closed port surfaces as retryable 599s and
    dead-letters after max_retries (the O6 path on live transport)."""
    port = site.server_address[1]
    cfg = CrawlConfig(
        fetch_mode="real",
        seeds=[{"url": f"http://127.0.0.1:1/", "priority": 5}],  # closed port
        num_seen_shards=2,
        num_fetchers=1,
        real_timeout_s=1.0,
        fetch_robots=False,
    )
    res = run_crawl(SF, cfg)
    assert res.counters["pages_fetched"] == 0
    assert res.counters["fetch_errors"] > 0
    assert res.counters["dead_lettered"] == 1


class _SiteBHandler(BaseHTTPRequestHandler):
    def log_message(self, *a):
        pass

    def do_GET(self):
        self.server.requests.append(self.path)
        if self.path == "/robots.txt":
            body = b"User-agent: *\nDisallow: /secret/\n"
            self.send_response(200)
            self.send_header("Content-Type", "text/plain")
        elif self.path == "/b.html":
            body = (
                b'<html><body><p>see <a href="/secret/x.html">hidden</a> and '
                b'<a href="/open.html">open</a></p></body></html>'
            )
            self.send_response(200)
            self.send_header("Content-Type", "text/html")
        elif self.path == "/open.html":
            body = b"<html><body><p>open page</p></body></html>"
            self.send_response(200)
            self.send_header("Content-Type", "text/html")
        else:
            body = b"nope"
            self.send_response(404)
            self.send_header("Content-Type", "text/plain")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.mark.usefixtures("ray_session")
def test_robots_fetched_lazily_for_discovered_hosts(site):
    """A host DISCOVERED mid-crawl (not seeded) gets its robots.txt
    fetched once by its owning shard and enforced — the round-2 gap
    where unknown hosts were silently allow-all in real mode."""
    site_b = ThreadingHTTPServer(("127.0.0.1", 0), _SiteBHandler)
    site_b.requests = []
    threading.Thread(target=site_b.serve_forever, daemon=True).start()
    try:
        port_a = site.server_address[1]
        port_b = site_b.server_address[1]
        # seed site A with a page linking cross-host into site B
        PAGES["/to_b.html"] = (
            f'<html><body><a href="http://127.0.0.1:{port_b}/b.html">b</a></body></html>'
        )
        cfg = CrawlConfig(
            fetch_mode="real",
            seeds=[{"url": f"http://127.0.0.1:{port_a}/to_b.html", "priority": 5}],
            num_seen_shards=2,
            num_fetchers=1,
            real_timeout_s=5.0,
        )
        res = run_crawl(SF, cfg)
        # site B's robots fetched exactly once, by the owning shard
        assert site_b.requests.count("/robots.txt") == 1
        # the open chain was crawled; the Disallow'd path was discovered
        # but never requested
        assert site_b.requests.count("/b.html") == 1
        assert site_b.requests.count("/open.html") == 1
        assert "/secret/x.html" not in site_b.requests
        assert res.counters["robots_denied"] >= 1
    finally:
        site_b.shutdown()
        PAGES.pop("/to_b.html", None)


def test_add_host_reevaluates_allow_all():
    """Review regression: a TTL re-fetch replacing an allow-all robots
    body with Disallow rules must flip the fast-path flag OFF."""
    from link_profiler_repo_ray.state.politeness import RobotsIndex

    r = RobotsIndex({"a.com": "User-agent: *\nAllow: /\n"})
    assert r.allowed("a.com", "https://a.com/doc/1")
    r.add_host("a.com", "User-agent: *\nDisallow: /doc/\n")
    assert not r.allowed("a.com", "https://a.com/doc/1")
    assert r.allowed("a.com", "https://a.com/open")


@pytest.mark.usefixtures("ray_session")
def test_robots_overrides_are_authoritative_in_real_mode(site):
    """Review regression: an injected robots override must NOT be
    replaced by a live fetch at first admission."""
    port = site.server_address[1]
    base = f"http://127.0.0.1:{port}"
    host = f"127.0.0.1:{port}"
    cfg = CrawlConfig(
        fetch_mode="real",
        seeds=[{"url": base + "/", "priority": 5}],
        num_seen_shards=2,
        num_fetchers=1,
        real_timeout_s=5.0,
        # operator block-list: deny EVERYTHING on this host
        robots_overrides={host: "User-agent: *\nDisallow: /\n"},
    )
    res = run_crawl(SF, cfg)
    assert res.counters["pages_fetched"] == 0
    assert res.counters["robots_denied"] >= 1
    # the override was honored without fetching the live robots.txt
    assert "/robots.txt" not in site.requests
    assert "/" not in site.requests


class _DelayHandler(BaseHTTPRequestHandler):
    """Serves a 5-page chain under `Crawl-delay: 1`, recording the
    monotonic arrival time of every request."""

    def log_message(self, *a):
        pass

    def do_GET(self):
        import time

        self.server.requests.append(self.path)
        self.server.times.append((self.path, time.monotonic()))
        if self.path == "/robots.txt":
            body = b"User-agent: *\nCrawl-delay: 1\n"
            self.send_response(200)
            self.send_header("Content-Type", "text/plain")
        else:
            i = int(self.path[2:-5]) if self.path.startswith("/p") else 0
            nxt = f'<a href="/p{i + 1}.html">next</a>' if i < 4 else "end"
            body = f"<html><body><p>page {i} {nxt}</p></body></html>".encode()
            self.send_response(200)
            self.send_header("Content-Type", "text/html")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.mark.usefixtures("ray_session")
def test_real_mode_crawl_delay_is_wall_clock_seconds():
    """In fetch_mode='real', `Crawl-delay: 1` means ≥1 wall SECOND
    between same-host fetches (web_crawler.py:68-98 semantics), not one
    logical round — the round-2 gap where live rounds completed in
    ~one batch latency and could hammer a host."""
    srv = ThreadingHTTPServer(("127.0.0.1", 0), _DelayHandler)
    srv.requests, srv.times = [], []
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    try:
        base = f"http://127.0.0.1:{srv.server_address[1]}"
        cfg = CrawlConfig(
            fetch_mode="real",
            seeds=[{"url": base + "/p0.html", "priority": 5}],
            num_seen_shards=2,
            num_fetchers=1,
            max_per_host_per_round=1,
            max_depth=6,
            real_timeout_s=5.0,
        )
        res = run_crawl(SF, cfg)
        assert res.counters["pages_fetched"] == 5
        page_times = sorted(t for p, t in srv.times if p != "/robots.txt")
        assert len(page_times) == 5
        gaps = [b - a for a, b in zip(page_times, page_times[1:])]
        # every same-host gap honors the 1 s Crawl-delay (scheduling
        # jitter tolerance: the clock marks when the round finishes)
        assert all(g >= 0.85 for g in gaps), gaps
    finally:
        srv.shutdown()


class _UAHandler(BaseHTTPRequestHandler):
    def log_message(self, *a):
        pass

    def do_GET(self):
        self.server.requests.append(self.path)
        self.server.agents.append((self.path, self.headers.get("User-Agent")))
        if self.path == "/robots.txt":
            body = b"User-agent: *\n"
            self.send_response(200)
            self.send_header("Content-Type", "text/plain")
        else:
            i = int(self.path[2:-5]) if self.path.startswith("/p") else 0
            nxt = f'<a href="/p{i + 1}.html">next</a>' if i < 2 else "end"
            body = f"<html><body><p>page {i} {nxt}</p></body></html>".encode()
            self.send_response(200)
            self.send_header("Content-Type", "text/html")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.mark.usefixtures("ray_session")
def test_ua_rotation_per_domain_consistent():
    """T7: with ua_rotation on, every request to one host carries that
    host's pinned pool UA (stability), and the pool spreads across
    hosts (variety) — utils/user_agent_manager.py:13-120 rebuilt as a
    deterministic per-domain pin."""
    from link_profiler_repo_ray.state.politeness import USER_AGENT
    from link_profiler_repo_ray.state.useragent import USER_AGENT_POOL, ua_for_host

    srv = ThreadingHTTPServer(("127.0.0.1", 0), _UAHandler)
    srv.requests, srv.agents = [], []
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    try:
        host = f"127.0.0.1:{srv.server_address[1]}"
        base = f"http://{host}"
        cfg = CrawlConfig(
            fetch_mode="real",
            seeds=[{"url": base + "/p0.html", "priority": 5}],
            num_seen_shards=2,
            num_fetchers=2,
            ua_rotation=True,
            wall_clock_politeness=False,  # pacing is not under test here
            real_timeout_s=5.0,
        )
        res = run_crawl(SF, cfg)
        assert res.counters["pages_fetched"] == 3
        page_agents = {ua for p, ua in srv.agents if p != "/robots.txt"}
        # per-domain stability: one UA across all requests, fetch
        # actors included, and it is the host's deterministic pin
        assert page_agents == {ua_for_host(host)}
        # the presented UA is browser-shaped BUT identifiably a bot
        from link_profiler_repo_ray.state.useragent import BOT_SUFFIX

        assert ua_for_host(host).endswith(BOT_SUFFIX)
        assert ua_for_host(host, identify_bot=False) in USER_AGENT_POOL
        # robots.txt is still fetched under the honest crawler UA (the
        # identity robots rules are evaluated against)
        robots_agents = {ua for p, ua in srv.agents if p == "/robots.txt"}
        assert robots_agents == {USER_AGENT}
    finally:
        srv.shutdown()

    # cross-domain variety: the pin spreads over the pool
    hosts = [f"site{i}.example.com" for i in range(64)]
    assert len({ua_for_host(h) for h in hosts}) >= len(USER_AGENT_POOL) - 1


# --- T7 second half: proxy rotation (state/proxies.py) --------------------

def test_proxy_pool_rotation_ban_and_cooldown():
    """Deterministic lifecycle vs utils/proxy_manager.py:33-209:
    round-robin hand-out, ban after max_failures consecutive fails,
    cooled-down ban becomes probe-eligible again, success resets."""
    from link_profiler_repo_ray.state.proxies import ProxyPool

    now = [0.0]
    pool = ProxyPool(["p1", "p2"], max_failures=3, retry_after_s=100.0, clock=lambda: now[0])
    assert [pool.get_next() for _ in range(4)] == ["p1", "p2", "p1", "p2"]
    for _ in range(3):
        pool.mark_bad("p1")
    # p1 banned: rotation only serves p2
    assert [pool.get_next() for _ in range(3)] == ["p2", "p2", "p2"]
    # cooldown elapsed: p1 is probe-eligible again
    now[0] = 101.0
    got = {pool.get_next() for _ in range(2)}
    assert got == {"p1", "p2"}
    # a successful probe fully reinstates it
    pool.mark_good("p1")
    now[0] = 102.0
    assert pool.stats()["p1"]["consec_fail"] == 0
    # all proxies banned -> None (go direct)
    for _ in range(3):
        pool.mark_bad("p1")
        pool.mark_bad("p2")
    now[0] = 103.0
    assert pool.get_next() is None


@pytest.mark.usefixtures("ray_session")
def test_real_fetch_proxy_rotation_and_demotion(site):
    """RealFetchActor with a good forwarding proxy + a dead proxy:
    requests route through the live proxy, the dead exit accumulates
    failures and is demoted, fetches still succeed."""
    import urllib.request

    import pyarrow as pa
    import ray

    from link_profiler_repo_ray.pipelines.fetch_real import RealFetchActor

    class _ForwardProxy(BaseHTTPRequestHandler):
        def log_message(self, *a):
            pass

        def do_GET(self):
            self.server.proxied.append(self.path)  # absolute-URL form
            try:
                with urllib.request.urlopen(self.path, timeout=5) as r:
                    body = r.read()
                    self.send_response(int(r.status))
                    self.send_header("Content-Type", r.headers.get("Content-Type", ""))
            except Exception:
                body = b"proxy error"
                self.send_response(502)
                self.send_header("Content-Type", "text/plain")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    prox = ThreadingHTTPServer(("127.0.0.1", 0), _ForwardProxy)
    prox.proxied = []
    threading.Thread(target=prox.serve_forever, daemon=True).start()
    try:
        base = f"http://127.0.0.1:{site.server_address[1]}"
        good = f"http://127.0.0.1:{prox.server_address[1]}"
        dead = "http://127.0.0.1:1"  # closed port -> connection refused
        actor = RealFetchActor.remote(
            max_parallel=1,  # serialize so round-robin order is exact
            proxies=[dead, good],
            timeout_s=2.0,
        )
        urls = [base + "/", base + "/a.html", base + "/b.html"] * 4
        batch = pa.table({"url": pa.array(urls), "depth": pa.array([0] * len(urls), pa.int16())})
        meta, _, _, _ = ray.get(actor.fetch_parse.remote(batch, None, "0", False))
        stats = ray.get(actor.proxy_stats.remote())
        status = meta.column("status").to_pylist()
        assert status.count(200) >= 5  # good-proxy fetches succeeded
        assert status.count(599) >= 1  # dead-proxy attempts failed as transport errors
        assert len(prox.proxied) == status.count(200)  # 200s all routed via the proxy
        assert stats[good]["ok"] == status.count(200) and stats[good]["consec_fail"] == 0
        assert stats[dead]["fail"] == status.count(599) and stats[dead]["consec_fail"] >= 5
        ray.kill(actor)
    finally:
        prox.shutdown()


def test_proxy_pool_single_probe_after_cooldown():
    """A cooled-down ban admits exactly ONE probe (FAILED → TESTING):
    concurrent get_next callers must not all pile onto the still-
    unverified exit, and a failed probe re-bans for a full cooldown."""
    from link_profiler_repo_ray.state.proxies import ProxyPool

    now = [0.0]
    pool = ProxyPool(["bad", "good"], max_failures=2, retry_after_s=50.0, clock=lambda: now[0])
    pool.mark_bad("bad")
    pool.mark_bad("bad")  # banned until t=50
    now[0] = 51.0
    handed = [pool.get_next() for _ in range(6)]
    assert handed.count("bad") == 1  # one probe, not a wave
    assert handed.count("good") == 5
    pool.mark_bad("bad")  # probe failed: banned again until t=101
    now[0] = 100.0
    assert [pool.get_next() for _ in range(3)] == ["good"] * 3
    now[0] = 101.5
    assert pool.get_next() == "bad"  # next cooldown grants the next probe


def test_proxy_pool_thread_safety():
    """16 threads hammering one pool (the RealFetchActor shape) must
    not lose health increments or corrupt rotation state."""
    import threading

    from link_profiler_repo_ray.state.proxies import ProxyPool

    pool = ProxyPool([f"p{i}" for i in range(4)], max_failures=10**9)
    per_thread, n_threads = 500, 16

    def worker():
        for _ in range(per_thread):
            p = pool.get_next()
            pool.mark_bad(p)
            pool.mark_good(p)

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    st = pool.stats()
    total = n_threads * per_thread
    assert sum(s["ok"] for s in st.values()) == total
    assert sum(s["fail"] for s in st.values()) == total
    # unbanned round-robin spreads load exactly evenly in aggregate
    assert all(s["ok"] == total // 4 for s in st.values())
