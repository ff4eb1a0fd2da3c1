"""Per-host politeness under a LOGICAL clock (operators T2 + T3 + O6).

The reference gates fetches with per-domain buckets — max_concurrent
(default 2), crawl_delay seconds, robots.txt with 24h-TTL cache
(queue_system/smart_crawler_queue.py:65-113, crawlers/robots_parser.py).
Wall-clock gating is not reproducible, so the rebuild defines the
"politeness budget" logically, exactly as SURVEY.md §7.5 prescribes:

- time advances in crawl ROUNDS;
- a host may be fetched at most ``max_concurrent_per_host`` times per
  round (the analogue of DomainBucket.max_concurrent=2);
- a host with Crawl-delay: N is eligible only when
  ``round >= last_crawl_round + N`` (the analogue of
  DomainBucket.crawl_delay, one round == one delay unit);
- robots Disallow rules are evaluated with urllib.robotparser, missing
  robots.txt ⇒ allow-all (robots_parser.py:74-76).

This makes crawl ordering a pure function of (seed list, corpus,
robots, budget) — the determinism contract BASELINE.json requires.

The per-host round clock lives in each host's owning
``state.frontier.FrontierShard``, next to its frontier rows; this
module holds the robots rules that the shards and the sequential
oracle both read.
"""

from __future__ import annotations

from urllib.robotparser import RobotFileParser

__all__ = ["RobotsIndex", "DEFAULT_MAX_PER_HOST_PER_ROUND"]

DEFAULT_MAX_PER_HOST_PER_ROUND = 2  # smart_crawler_queue.py:122 domain_max_concurrent
USER_AGENT = "LinkProfilerRay/1.0"


class RobotsIndex:
    """Parsed robots.txt per host; allow-all for unknown hosts."""

    def __init__(self, robots_by_host: dict[str, str]):
        self._parsers: dict[str, RobotFileParser] = {}
        self._delays: dict[str, int] = {}
        self._allow_all: set[str] = set()
        for host, body in robots_by_host.items():
            self.add_host(host, body)

    def add_host(self, host: str, body: str) -> None:
        """Register one host's robots.txt (T2's lazy per-host cache
        fill — real-mode shards call this for hosts discovered
        mid-crawl)."""
        p = RobotFileParser()
        p.parse(body.splitlines())
        self._parsers[host] = p
        d = p.crawl_delay(USER_AGENT)
        self._delays[host] = int(d) if d else 1
        # fast path: a parser that can never deny skips per-URL checks.
        # Membership is RE-EVALUATED on every add (a TTL re-fetch can
        # replace an allow-all body with one that has Disallow rules —
        # the flag must be able to flip off, not only on).
        entries = list(getattr(p, "entries", []) or [])
        default = getattr(p, "default_entry", None)
        if not entries and (
            default is None or all(rl.allowance for rl in default.rulelines)
        ):
            self._allow_all.add(host)
        else:
            self._allow_all.discard(host)

    def knows(self, host: str) -> bool:
        return host in self._parsers

    def allowed(self, host: str, url: str) -> bool:
        p = self._parsers.get(host)
        if p is None:
            return True  # 404 / unknown host ⇒ allow-all (robots_parser.py:74-76)
        return p.can_fetch(USER_AGENT, url)

    def slow_hosts(self) -> set[str]:
        """Hosts whose robots.txt contains rules that can deny."""
        return set(self._parsers) - self._allow_all

    def allowed_batch(self, hosts, urls):
        """Vectorized gate: unknown / provably-allow-all hosts short-

        circuit True; only hosts with real Disallow rules pay a
        per-URL ``can_fetch``.  The membership test is vectorized in
        polars so the Python loop only touches deniable-host rows."""
        import numpy as np
        import polars as pl

        n = len(hosts)
        out = np.ones(n, dtype=bool)
        slow = self.slow_hosts()
        if not slow or n == 0:
            return out
        mask = pl.Series(hosts).is_in(slow).to_numpy()
        idx = np.nonzero(mask)[0]
        parsers = self._parsers
        for i in idx.tolist():
            out[i] = parsers[hosts[i]].can_fetch(USER_AGENT, urls[i])
        return out

    def crawl_delay_rounds(self, host: str) -> int:
        return self._delays.get(host, 1)

