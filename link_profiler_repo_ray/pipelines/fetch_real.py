"""Real-HTTP fetch actor (S1 real mode + T8 session reuse).

The reference fetches live pages through a pooled aiohttp session
(utils/session_manager.py:23-178) with content-type sniffing, a
``max_file_size_mb`` payload cap and 408/5xx retry statuses
(crawlers/web_crawler.py:262-328).  aiohttp is not available in this
container, so the transport is the stdlib ``urllib`` opener — ONE
opener per actor, created in ``__init__`` (the session-manager
analogue), plus a bounded thread pool for in-actor I/O concurrency.

Semantics reproduced:
- content-type sniff: only ``text/html`` payloads are parsed for
  links/SEO; other mime types are recorded (status, no html) —
  web_crawler.py:283-307's html/pdf/image branch
- ``max_file_size_mb``: oversized payloads (by Content-Length header
  or by actual read) are dropped, the page row keeps its status —
  web_crawler.py:304-308
- transport errors / timeouts surface as a retryable 599 so the O6
  retry-demotion + dead-letter path and the T5 circuit breaker treat
  them exactly like server 5xx failures

Everything around the transport — the round's row selection
(``fetch_wave``), byte-identical text extraction, quality/SEO
scoring, Parquet persistence by the actor, actor→actor candidate
staging — is the SAME code the corpus-replay actor runs
(pipelines/crawl.py), so the two modes are interchangeable under
``CrawlConfig.fetch_mode``.
"""

from __future__ import annotations

import ray

from ..state.politeness import USER_AGENT

__all__ = ["RealFetchActor", "fetch_robots_txt"]


def fetch_robots_txt(base: str, timeout_s: float = 5.0) -> str:
    """GET {base}/robots.txt; 404 or any failure ⇒ allow-all ("").

    robots_parser.py:65-127 semantics: missing/unreachable robots.txt
    must not block the crawl."""
    import urllib.request

    try:
        req = urllib.request.Request(
            base.rstrip("/") + "/robots.txt", headers={"User-Agent": USER_AGENT}
        )
        with urllib.request.urlopen(req, timeout=timeout_s) as resp:
            if resp.status != 200:
                return ""
            return resp.read(1 << 20).decode("utf-8", errors="replace")
    except Exception:
        return ""


@ray.remote(num_cpus=1)
class RealFetchActor:
    """Live-HTTP drop-in for FetchParseActor (same batch interface)."""

    def __init__(
        self,
        frontier_shards: list | None = None,
        max_file_size_mb: float = 10.0,
        timeout_s: float = 10.0,
        max_parallel: int = 16,
        ua_rotation: bool = False,
        proxies: list | None = None,
        ai_scoring: bool = False,
        alerting: bool = False,
    ):
        import urllib.request
        from concurrent.futures import ThreadPoolExecutor

        self.frontier_shards = frontier_shards or []
        self.max_bytes = int(max_file_size_mb * 1024 * 1024)
        self.timeout_s = timeout_s
        # one shared opener per actor == one session per worker (T8)
        self.opener = urllib.request.build_opener()
        self.opener.addheaders = [("User-Agent", USER_AGENT)]
        # T7 (opt-in): per-domain-consistent UA + browser header
        # envelope (state/useragent.py; reference rotation is
        # utils/user_agent_manager.py:13-120)
        self.ua_rotation = ua_rotation
        # T7 (second half, opt-in): proxy rotation with health marking
        # (state/proxies.py; reference is utils/proxy_manager.py:33-209).
        # One opener per proxy, built once per actor — urllib binds the
        # ProxyHandler at build time, so per-request proxy choice means
        # per-proxy openers, not per-request opener builds.
        self.proxy_pool = None
        self.proxy_openers: dict = {}
        if proxies:
            from ..state.proxies import ProxyPool

            self.proxy_pool = ProxyPool(list(proxies))
            for p in proxies:
                op = urllib.request.build_opener(
                    urllib.request.ProxyHandler({"http": p, "https": p})
                )
                op.addheaders = [("User-Agent", USER_AGENT)]
                self.proxy_openers[p] = op
        # T10 (opt-in): per-page AI scoring, model built once per actor
        if ai_scoring:
            from ..stages import AIScoreStage

            self.ai_stage = AIScoreStage()
        else:
            self.ai_stage = None
        # alert rules loaded once per actor (alert_service.py startup);
        # live fetches have no warc_ts, so triggered_ts is null — the
        # dispatch-time cooldown then keys on the null bucket per rule
        if alerting:
            from ..stages import AlertStage

            self.alert_stage = AlertStage()
        else:
            self.alert_stage = None
        self.pool = ThreadPoolExecutor(max_workers=max_parallel)
        from .crawl import _PersistBuffer, _busy_split

        self.persister = _PersistBuffer()

        self.busy_s = 0.0
        self.split = _busy_split()

    def ready(self) -> int:
        return 1

    def flush_persist(self) -> None:
        from .crawl import _timed_flush

        _timed_flush(self)

    def perf_stats(self) -> dict:
        return {
            "busy_s": self.busy_s,
            **self.split,
            "collisions": 0,
            "alerts_fired": self.alert_stage.fired_total if self.alert_stage else 0,
        }

    def proxy_stats(self) -> dict:
        return self.proxy_pool.stats() if self.proxy_pool is not None else {}

    def _fetch_one(self, url: str) -> tuple[int, bytes | None, str, float]:
        import time
        import urllib.error
        import urllib.request

        req: str | urllib.request.Request = url
        if self.ua_rotation:
            from ..functions.canonical import host_of
            from ..state.useragent import headers_for_host

            # Request-carried headers take precedence over the
            # opener's static addheaders (urllib only fills absent
            # names), so the host's pinned identity wins per request
            req = urllib.request.Request(url, headers=dict(headers_for_host(host_of(url))))
        proxy = self.proxy_pool.get_next() if self.proxy_pool is not None else None
        opener = self.proxy_openers.get(proxy, self.opener)
        t0 = time.monotonic()
        try:
            with opener.open(req, timeout=self.timeout_s) as resp:
                if proxy is not None:
                    # any relayed response (even a site 4xx/5xx, which
                    # raises HTTPError below) proves the proxy works
                    self.proxy_pool.mark_good(proxy)
                st = int(resp.status)
                ctype = (resp.headers.get("Content-Type") or "").lower()
                clen = resp.headers.get("Content-Length")
                try:
                    too_large = clen is not None and int(clen) > self.max_bytes
                except ValueError:
                    too_large = False  # malformed header → rely on the read cap
                if too_large:
                    return st, None, ctype, time.monotonic() - t0  # size cap via header
                data = resp.read(self.max_bytes + 1)
                if len(data) > self.max_bytes:
                    return st, None, ctype, time.monotonic() - t0  # size cap via read
                return st, data, ctype, time.monotonic() - t0
        except urllib.error.HTTPError as exc:
            if proxy is not None:
                self.proxy_pool.mark_good(proxy)  # the exit relayed the site's error
            ct = ""
            if exc.headers is not None:
                ct = (exc.headers.get("Content-Type") or "").lower()
            return int(exc.code), None, ct, time.monotonic() - t0
        except Exception:
            if proxy is not None:
                self.proxy_pool.mark_bad(proxy)  # connection/timeout → demote the exit
            return 599, None, "", time.monotonic() - t0  # transport failure → retryable

    def fetch_parse(
        self,
        batch,
        persist_dir: str | None = None,
        shard_tag: str = "0",
        collect_edges: bool = True,
    ):
        import time as _time

        from .crawl import _parse_and_emit

        _t0 = _time.perf_counter()
        urls = batch.column("url").to_pylist()
        depths = batch.column("depth").to_pylist()
        results = list(self.pool.map(self._fetch_one, urls))
        status, htmls, lats = [], [], []
        for st, data, ctype, dt in results:
            status.append(st)
            lats.append(float(dt))
            is_html = data is not None and (
                "text/html" in ctype or ctype.startswith("text/") or ctype == ""
            )
            htmls.append(data if is_html else None)
        n = len(urls)
        out = _parse_and_emit(
            urls,
            depths,
            status,
            [None] * n,  # warc_ts unknown for live fetches
            htmls,
            [None] * n,  # lang filled by the lang-ID stage downstream
            persist_dir,
            shard_tag,
            collect_edges,
            self.frontier_shards,
            self.persister,
            self.split,
            latencies=lats,
            ai_stage=self.ai_stage,
            alert_stage=self.alert_stage,
        )
        self.busy_s += _time.perf_counter() - _t0
        return out

    def fetch_wave(self, *args):
        """This actor's share of a round (see ``crawl._fetch_wave``)."""
        from .crawl import _fetch_wave

        return _fetch_wave(self, *args)
