"""The distributed crawl: URL frontier + fetch scheduler on Ray.

Semantics reproduced (see SURVEY.md §3.1 step 4 and §2.6 O1/O4):
- BFS frontier seeded from a seed list; a URL is crawled iff its
  first-discovery depth < max_depth (crawl_service.py:493-500) and
  robots.txt allows it (web_crawler politeness + robots_parser).
- Round-based logical politeness budget: per round each host yields at
  most ``max_per_host_per_round`` fetches (DomainBucket.max_concurrent,
  smart_crawler_queue.py:122) and honors Crawl-delay as a round gap
  (see state/politeness.py).
- Admission order per round — the reference's O1 discipline
  (smart_crawler_queue.py:149-169): per host take tasks in
  (priority, depth, url) order, then order the round's admitted set by
  (priority, depth, host, url).  The global crawl order is the
  concatenation of the rounds' admitted sequences; it is a pure
  function of (seeds, corpus, robots, budget) and therefore identical
  under any parallelism level.
- Dedup at discovery through the sharded seen-set actors (T1); the
  final URL-seen set = seeds ∪ all canonicalized discovered targets.
- Failed fetches (HTTP 5xx) are retried with priority demotion
  (O6, smart_crawler_queue.py:182-192): retries+1, priority demoted one
  level toward LOW, dropped to the dead-letter output after 3 retries.

Execution model — two persistent actor pools serve every round (the
idiomatic Ray shape for a continuous frontier scheduler; per-round
Dataset pipelines would re-create pools each round):

- ``state.frontier.FrontierShard`` actors, keyed by ``hash(host) % S``
  (the BASELINE north-star's "seen set in an actor pool keyed by
  hash-partitioned host buckets"): each owns its hosts' frontier rows,
  seen set, robots rules and politeness clocks, and performs
  admission / dedup / min-depth merge locally and in parallel.
- A fetch actor pool keyed by ``url_hash % P`` (``FetchParseActor``
  for corpus replay, ``fetch_real.RealFetchActor`` for live HTTP):
  fetch + parse + per-page scoring; page/edge Parquet shards are
  persisted BY the actors — only (url, status) metadata returns to the
  driver, and expansion candidates go straight to their host shards.

Every round, in every configuration, is one wave:

1. each shard's ``admit`` returns its host-capped admitted table as an
   ObjectRef, which goes straight to every fetcher's ``fetch_wave`` —
   the admit→fetch dependency resolves in the Ray scheduler, with no
   driver round trip between them;
2. each fetcher concatenates the shards' tables, applies the global
   (priority, depth, host, url) order and the ``max_pages`` cut
   (``_wave_rows``), and fetches the robots-allowed rows it owns;
3. meanwhile the driver computes the same order and cut from the same
   tables, scatters the returned statuses back into it, and logs the
   order and the retry demotions;
4. after the settle barrier, one ``finish_round`` RPC per shard
   returns the budget-rejected rows, marks the politeness clock and
   merges the round's staged candidates; per-actor FIFO runs it before
   the shard's checkpoint ``dump`` and its next ``admit``.

The driver's per-round work is O(admitted), not O(frontier).  A round
that admits nothing costs one empty wave (in wall-clock mode followed
by the Crawl-delay sleep).  Full-corpus analytics (pipelines/graph.py)
are pure ``ray.data`` Dataset pipelines.

Checkpoints: after each round, ``checkpoint_dir/round=K/`` holds
per-shard frontier/seen/clock dumps, order.parquet, the actors' pages/
and edges/ parquet deltas, and manifest.json with counters +
per-partition lineage; the manifest is written last, atomically —
resume loads the newest complete round (SURVEY.md §4 checkpoint row).
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import time as _time
from dataclasses import dataclass, field

import numpy as np
import polars as pl
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from .. import schemas
from ..functions import canonical as can
from ..functions import htmlx
from ..sources import corpus as corpus_mod
from ..state.politeness import RobotsIndex, DEFAULT_MAX_PER_HOST_PER_ROUND

__all__ = ["CrawlConfig", "run_crawl", "oracle_crawl", "CrawlResult"]


@dataclass
class CrawlConfig:
    max_depth: int = 3
    max_pages: int | None = None
    politeness: bool = True
    politeness_mode: str = "fixed"  # "fixed" Crawl-delay | "adaptive" (T4 limiter floor-max)
    max_per_host_per_round: int = DEFAULT_MAX_PER_HOST_PER_ROUND
    num_seen_shards: int = 4
    num_fetchers: int = 4
    fetch_batch_size: int = 2048
    checkpoint_dir: str | None = None
    output_dir: str | None = None  # actors persist pages/edges here when no checkpoint
    collect_edges: bool = True  # return edge tables to the driver (small runs/tests)
    collect_seen: bool | None = None  # collect seen-url list on driver; None → collect_edges
    resume: bool = False
    checkpoint_every: int = 1  # write restart-state every K executed rounds
    stop_after_round: int | None = None  # test hook for kill/resume
    flaky_mod: int | None = None  # test hook: doc_id % mod == 0 fails once with 503
    flaky_persistent: bool = False  # test hook: flaky urls fail EVERY attempt (breaker tests)
    seeds: list | None = None  # explicit [{url, priority}] seed list (e.g. from a CDX index);
    #                            None → the corpus's synthetic seed rows
    fetch_mode: str = "replay"  # "replay" (corpus join) | "real" (live HTTP actors)
    robots_overrides: dict | None = None  # host → robots.txt body (test/real-mode injection)
    fetch_robots: bool = True  # real mode: lazy per-host robots fetch in the shards
    # Crawl-delay units: None → wall-clock SECONDS in real mode (the
    # reference's DomainBucket semantics, web_crawler.py:68-98), logical
    # ROUNDS in replay mode (the determinism contract).  Force with
    # True/False (e.g. False to benchmark real transport without pacing).
    wall_clock_politeness: bool | None = None
    robots_ttl_rounds: int = 10_000  # logical-round TTL before a host's robots is re-fetched
    real_max_file_size_mb: float = 10.0  # web_crawler.py:304-308 payload cap
    real_timeout_s: float = 10.0
    ua_rotation: bool = False  # T7: per-domain-consistent UA pool (state/useragent.py)
    proxies: list | None = None  # T7: real-mode proxy pool (state/proxies.py rotation)
    ai_scoring: bool = False  # T10: per-page AI content scoring in the fetch actors
    #                           (stages.AIScoreStage — the reference scores pages via
    #                           ai_service inside its crawl loop, crawl_service.py:560-575)
    alerting: bool = False  # alert-rule evaluation on every page update inside the
    #                         fetch actors (stages.AlertStage — the reference's
    #                         AlertService.evaluate_job_update runs per crawl update,
    #                         alert_service.py:67-129); raw fired alerts persist to
    #                         <out>/alerts/, cooldown applied at dispatch via
    #                         pipelines.monitor.apply_cooldown
    collect_order: bool | None = None  # keep order deltas in driver RAM; None → collect_edges
    stats: bool = True  # A8: append per-round metrics to <lineage dir>/stats.jsonl
    seen_backend: str = "exact"  # "exact" (oracle-matched) | "cuckoo" (2 B/key)
    seen_capacity: int = 1 << 20  # per-shard cuckoo capacity
    max_retries: int = 3
    breaker_enabled: bool = True  # T5 per-host circuit breaker in the shards
    breaker_failure_threshold: int = 5  # distributed_circuit_breaker.py:22-152
    breaker_recovery_rounds: int = 60
    breaker_close_threshold: int = 3

    # knobs that change HOW FAST, never WHAT, the crawl computes —
    # excluded from the config hash so a resume may retune them
    # (round-1 advice: a fetcher-count change silently orphaned — and
    # then deleted — an otherwise valid checkpoint)
    _PERF_KNOBS = (
        "checkpoint_dir",
        "output_dir",
        "resume",
        "stop_after_round",
        "num_fetchers",
        "fetch_batch_size",
        "checkpoint_every",
        "collect_edges",
        "collect_seen",
        "collect_order",
        "stats",
    )

    def resolved_collect_seen(self) -> bool:
        return self.collect_edges if self.collect_seen is None else self.collect_seen

    def resolved_wall_clock(self) -> bool:
        if self.wall_clock_politeness is None:
            return self.fetch_mode == "real"
        return self.wall_clock_politeness

    def resolved_collect_order(self) -> bool:
        return self.collect_edges if self.collect_order is None else self.collect_order

    def config_hash(self) -> str:
        import hashlib

        payload = json.dumps(
            {k: v for k, v in self.__dict__.items() if k not in self._PERF_KNOBS},
            sort_keys=True,
        )
        return hashlib.md5(payload.encode()).hexdigest()[:12]

    @classmethod
    def scale(cls, **overrides) -> "CrawlConfig":
        """The 100-TB profile — flips every test-scale default that must
        not be cargo-culted into a big run.

        The plain constructor's defaults (``collect_edges=True`` etc.)
        exist for the sf0.01 correctness gate, where the driver holding
        the full order/edge/seen output is the cheapest way to compare
        against an oracle.  At corpus scale those become O(corpus)
        driver RAM.  This profile turns the driver into a pure
        scheduler: order/edges/pages stream to ``output_dir`` (or
        checkpoint) lineage, the seen set lives in the cuckoo backend
        (2 B/key instead of resident URL strings).  Analytic results
        are identical (pytest-asserted on sf0.01); only WHERE the
        output lands changes — read it back from the persisted parquet.
        """
        base: dict = dict(
            collect_edges=False,
            collect_seen=False,
            collect_order=False,
            seen_backend="cuckoo",
        )
        base.update(overrides)
        return cls(**base)


@dataclass
class CrawlResult:
    order: pa.Table  # seq, round, url, host, depth, priority, status
    edges: pa.Table
    pages_paths: list[str]
    counters: dict = field(default_factory=dict)

    def seen_urls(self) -> set[str]:
        return set(self.counters["seen_urls"])


@ray.remote(num_cpus=1)
def _split_corpus_file(path: str, num_shards: int) -> list[pa.Table]:
    """Read one corpus shard file ONCE and hash-partition its rows.

    This is the one-time exchange that co-locates the replay corpus
    with the url_hash-routed fetch shards; each file is read exactly
    once regardless of pool size (a per-actor full-corpus scan made the
    pool *anti*-scale).
    """
    t = pq.read_table(path, columns=["url", "warc_ts", "html", "lang"])
    h = can.url_hash64(t.column("url").to_pylist())
    t = t.append_column("url_hash", pa.array(h, pa.uint64()))
    shard_ids = (h % np.uint64(num_shards)).astype(np.int64)
    return [t.filter(pa.array(shard_ids == s)) for s in range(num_shards)]


class _PersistBuffer:
    """The one page/edge Parquet writer of a fetch actor.

    An output-dir run would otherwise pay one tiny Parquet file per
    actor per round — at 190 politeness rounds × 27 actors that is
    ~5000 file creates of mostly fixed cost.  The buffer accumulates
    rows per persist dir and flushes at ``threshold`` rows, on a dir
    change, at the end of a wave whose dir is a checkpoint round dir
    (the round's lineage must be on disk before its manifest), or on
    the explicit end-of-crawl ``flush_persist`` RPC."""

    def __init__(self, threshold: int = 32_768):
        self.threshold = threshold
        self.dir: str | None = None
        self.tag: str | None = None
        self._pages: list[pa.Table] = []
        self._edges: list[pa.Table] = []
        self._alerts: list[pa.Table] = []
        self._rows = 0
        self._seq = 0

    def add(
        self,
        persist_dir: str,
        tag: str,
        pages: pa.Table,
        edges: pa.Table,
        alerts: pa.Table | None = None,
    ) -> None:
        if persist_dir != self.dir:
            self.flush()
            self.dir = persist_dir
        self.tag = tag
        self._pages.append(pages)
        self._edges.append(edges)
        if alerts is not None:
            self._alerts.append(alerts)
        self._rows += pages.num_rows
        if self._rows >= self.threshold:
            self.flush()

    def flush(self) -> None:
        if not self._pages or self.dir is None:
            return
        subs = [("pages", self._pages), ("edges", self._edges)]
        if any(t.num_rows for t in self._alerts):
            subs.append(("alerts", self._alerts))
        for sub, tables in subs:
            d = os.path.join(self.dir, sub)
            os.makedirs(d, exist_ok=True)
            part = os.path.join(d, f"part-{self.tag}-{self._seq:05d}.parquet")
            pq.write_table(pa.concat_tables(tables), part + ".tmp")
            os.replace(part + ".tmp", part)
        self._seq += 1
        self._pages, self._edges, self._alerts, self._rows = [], [], [], 0


def _parse_and_emit(
    urls,
    depths,
    status,
    tss,
    htmls,
    langs,
    persist_dir,
    shard_tag,
    collect_edges,
    frontier_shards,
    persister,
    split,
    latencies=None,
    ai_stage=None,
    alert_stage=None,
):
    """Shared fetch-result pipeline: byte-identical text extraction,
    quality/SEO scoring, page+edge Parquet persistence by the actor,
    and actor→actor staging of expansion candidates.  Used by both the
    corpus-replay and the real-HTTP fetch actors — the fetch transport
    is the ONLY difference between the two (web_crawler.py:100-194's
    post-fetch pipeline).

    The batch runs three kernels: ``extract_text_batch`` for the text,
    one ``htmlx.parse_batch`` pass over the 200 pages for their edges
    and SEO score fields (a 404/503 row gets null SEO and no edges),
    and ``quality.quality_table`` over the whole text column (a failed
    fetch scores the empty text).  ``split`` accumulates the seconds of
    the parse (kernels, tables, AI scoring, alerts), the persistence
    and the candidate staging under ``parse_s``/``persist_s``/``stage_s``."""
    # imported here, as the per-row scorers were: only the fetch actors
    # run this, so the driver never loads the quality module
    from ..functions.quality import quality_table

    t0 = _time.perf_counter()
    html_strs = ["" if h is None else bytes(h).decode("utf-8", errors="replace") for h in htmls]
    texts = htmlx.extract_text_batch(html_strs)
    # per-page scoring, as the reference's crawl loop does between
    # fetch and persist (crawl_service.py:545-593: content quality
    # M6 + SEO metrics M4/M8)
    parsed = htmlx.parse_batch(urls, html_strs, [st == 200 for st in status], seo="score")
    qual = quality_table(texts)
    seo = parsed.seo
    ts_arr = pa.array(tss, pa.timestamp("us"))
    pages = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": ts_arr,
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(texts, pa.large_string()),
            "lang": pa.array(langs, pa.string()),
            "status": pa.array(status, pa.int16()),
            "depth": pa.array(depths, pa.int16()),
            **{
                c: qual.column(c)
                for c in ("word_count", "readability_score", "spam_score", "quality_score", "content_hash")
            },
            **{
                f: pa.array([None if s is None else s[f] for s in seo], t)
                for f, t in (
                    ("seo_score", pa.float64()),
                    ("title_length", pa.int32()),
                    ("h1_count", pa.int32()),
                )
            },
        }
    )
    edges = htmlx.edges_table(parsed, urls, ts_arr)
    tgt_hosts = parsed.edges["target_host"]

    if ai_stage is not None:
        # T10: the per-page AI scoring the reference runs between fetch
        # and persist (crawl_service.py:560-575); the fake model lives
        # in the actor (built once in __init__), scoring is vectorized.
        # Only the text column crosses into the stage so the binary/
        # timestamp columns never round-trip through polars.
        scored = ai_stage(pa.table({"text": pages.column("text")}))
        for col in ("ai_quality_score", "ai_classification", "ai_sentiment", "ai_topic"):
            pages = pages.append_column(col, scored.column(col))

    alerts = None
    if alert_stage is not None and persist_dir is not None:
        # alert-rule evaluation on every page update, as the
        # reference's AlertService does per job update
        # (alert_service.py:67-129); RAW fired alerts persist beside
        # pages/edges — the global cooldown dedup is a dispatch-time
        # reduce (pipelines.monitor.apply_cooldown).  Skipped without a
        # persistence target: alerts that land nowhere would be pure
        # wasted evaluation.
        alerts = alert_stage(pages)

    meta = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "status": pa.array(status, pa.int16()),
            "latency": pa.array(
                latencies if latencies is not None else [0.0] * len(urls), pa.float64()
            ),
        }
    )
    t1 = _time.perf_counter()
    split["parse_s"] += t1 - t0
    if persist_dir is not None:
        persister.add(persist_dir, shard_tag, pages, edges, alerts)
    t2 = _time.perf_counter()
    split["persist_s"] += t2 - t1

    # per-batch expansion candidates, pushed DIRECTLY to the owning
    # frontier shards (actor→actor) — the driver never touches
    # expansion data.  Raw (target_url, host, depth) rows are staged
    # unreduced: the shard's ``insert_candidates`` performs the
    # min-depth/distinct merge ONCE over the whole round's staged set,
    # where the polars group_by amortizes — a per-batch polars
    # pre-reduce here cost ~15 ms fixed per tiny call and dominated
    # the fetch actors' busy time (round-4 stage-timer A/B).
    if edges.num_rows:
        # discovered-at depth, recorded inline (no per-batch
        # source→depth join needed downstream)
        page = np.asarray(parsed.edges["page"], dtype=np.int64)
        cand = pa.table(
            {
                "target_url": edges.column("target_url"),
                "host": edges.column("target_host"),
                "depth": pa.array(np.asarray(depths, dtype=np.int64)[page] + 1, pa.int16()),
            }
        )
        if frontier_shards:
            ns = np.uint64(len(frontier_shards))
            sid = (can.url_hash64(tgt_hosts) % ns).astype(np.int64)
            order = np.argsort(sid, kind="stable")
            by_shard = cand.take(pa.array(order))
            bounds = np.searchsorted(sid[order], np.arange(int(ns) + 1))
            stage_refs = []
            # candidate slices are passed INLINE (small tables), not as
            # a shared ray.put ref: a ref owned by this (busy) fetch
            # actor forces each staging task through owner-mediated
            # location resolution, which stalls until this actor is
            # next responsive — measured +8 ms on the round's settle
            # barrier (round-4 A/B)
            for s in range(int(ns)):
                lo, hi = int(bounds[s]), int(bounds[s + 1])
                if hi > lo:
                    stage_refs.append(
                        frontier_shards[s].stage_candidates.remote(
                            by_shard.slice(lo, hi - lo)
                        )
                    )
            # NOT awaited here: blocking each fetch task on the shard
            # actors' mailboxes put a full actor→actor RTT inside the
            # round's fetch barrier.  The refs travel back to the
            # driver, which settles them (in parallel with its order
            # bookkeeping) before the round's ``finish_round`` RPC —
            # the same happens-before, one fewer serial wave per round.
            cand_out = None
        else:
            stage_refs = []
            cand_out = cand
    else:
        stage_refs = []
        cand_out = None
    split["stage_s"] += _time.perf_counter() - t2
    return meta, cand_out, (edges if collect_edges else None), stage_refs


def _busy_split() -> dict:
    """A fetch actor's busy seconds by part (see ``_parse_and_emit``);
    the rest of ``busy_s`` is the fetch itself."""
    return {"parse_s": 0.0, "persist_s": 0.0, "stage_s": 0.0}


def _timed_flush(actor) -> None:
    """Write a fetch actor's persist buffer out, as busy persist time."""
    t0 = _time.perf_counter()
    actor.persister.flush()
    dt = _time.perf_counter() - t0
    actor.busy_s += dt
    actor.split["persist_s"] += dt


@ray.remote(num_cpus=1)
class FetchParseActor:
    """Corpus-replay fetch + parse for one hash shard of the corpus.

    Receives object-store refs of its hash-partition slices (zero-copy
    Arrow), holding corpus/P rows.  Real-web deployments replace the
    constructor body with an aiohttp session
    (crawlers/web_crawler.py:262-328) — the batch interface
    (frontier rows in → pages+edges out) is unchanged.
    """

    def __init__(
        self,
        shard_tables: list,
        flaky_mod=None,
        frontier_shards: list | None = None,
        flaky_persistent: bool = False,
        ai_scoring: bool = False,
        alerting: bool = False,
    ):
        from ..stages import AIScoreStage, AlertStage

        # T10 model "load" — once per actor, never per batch; same for
        # the alert-rule table (alert_service.py loads rules at startup)
        self.ai_stage = AIScoreStage() if ai_scoring else None
        self.alert_stage = AlertStage() if alerting else None
        # nested ObjectRefs are not auto-resolved in collections; a
        # num_returns=1 split task returns a LIST of tables per ref
        # (round-1 advice: num_fetchers=1 crashed here) — flatten both.
        resolved: list[pa.Table] = []
        for t in shard_tables:
            v = ray.get(t) if isinstance(t, ray.ObjectRef) else t
            resolved.extend(v) if isinstance(v, list) else resolved.append(v)
        self.frontier_shards = frontier_shards or []
        # Replay lookup is a sorted-hash index over the shard's Arrow
        # slice, NOT a url→HTML Python dict.  The slice is reordered
        # into hash order ONCE here and re-``ray.put`` so the steady
        # state is a SINGLE-chunk table backed by the object store's
        # shared memory (zero-copy ray.get): actor heap stays O(8 B ×
        # rows) of index, and a batch probe is one ``take`` on one
        # contiguous chunk.  The chunky concat of per-file slices the
        # actor previously probed directly made that same ``take``
        # ~300× slower (13 ms per ~50-row batch across 125 chunks —
        # the politeness crawl's single largest cost, round-4 A/B).
        tbl = (
            pa.concat_tables(resolved)
            if resolved
            else pa.table(
                {
                    "url": pa.array([], pa.string()),
                    "warc_ts": pa.array([], pa.timestamp("us")),
                    "html": pa.array([], pa.binary()),
                    "lang": pa.array([], pa.string()),
                    "url_hash": pa.array([], pa.uint64()),
                }
            )
        )
        h = tbl.column("url_hash").to_numpy(zero_copy_only=False).astype(np.uint64)
        perm = np.argsort(h, kind="stable")
        self._hash_sorted = h[perm]
        # html must be LARGE binary (64-bit offsets) before the
        # single-chunk reorder: a fetcher's slice of a multi-million
        # page corpus exceeds the 2 GB an int32-offset array can hold,
        # and take/combine_chunks dies with "offset overflow while
        # concatenating arrays" (hit at 2M pages x 1 fetcher).  The
        # cast is per-chunk (no concat), so it cannot itself overflow;
        # per-batch probe outputs stay regular binary.
        sel = tbl.select(["url", "warc_ts", "html", "lang"])
        sel = sel.set_column(
            sel.schema.get_field_index("html"),
            pa.field("html", pa.large_binary()),
            sel.column("html").cast(pa.large_binary()),
        )
        sorted_tbl = sel.take(pa.array(perm)).combine_chunks()
        del tbl, sel, resolved
        # plasma round-trip: the sorted copy lives in shared memory,
        # not this actor's heap; the constructor-arg refs are released
        # by the engine once every actor reports ready
        self._table_ref = ray.put(sorted_tbl)
        del sorted_tbl
        self.table = ray.get(self._table_ref)
        self.flaky_mod = flaky_mod
        self.flaky_persistent = flaky_persistent
        self._attempted: set[str] = set()
        self.collisions = 0  # 64-bit hash collisions observed in probes
        self.busy_s = 0.0  # cumulative in-actor fetch_parse seconds (A8)
        self.split = _busy_split()
        self.persister = _PersistBuffer()

    def ready(self) -> int:
        return self.table.num_rows

    def flush_persist(self) -> None:
        _timed_flush(self)

    def perf_stats(self) -> dict:
        return {
            "busy_s": self.busy_s,
            **self.split,
            "collisions": self.collisions,
            "alerts_fired": self.alert_stage.fired_total if self.alert_stage else 0,
        }

    def fetch_parse(
        self,
        batch: pa.Table,
        persist_dir: str | None = None,
        shard_tag: str = "0",
        collect_edges: bool = True,
    ) -> tuple[pa.Table, pa.Table | None, pa.Table | None, list]:
        """Frontier rows -> (meta, expansion candidates, edges|None, stage refs).

        The heavy page payloads (html, byte-identical text) and full
        edge rows are persisted to Parquet *by the actor* when
        ``persist_dir`` is given — only light control metadata returns
        to the driver: meta = (url, status); cand = per-batch distinct
        (target_url, target_host, depth) with min depth.  Shipping full
        pages driver-ward every round was the crawl's scaling ceiling.
        """
        _t0 = _time.perf_counter()
        urls = batch.column("url").to_pylist()
        depths = batch.column("depth").to_pylist()
        # vectorized sorted-hash probe, then ONE ``take`` of just this
        # batch's rows from the shared-memory corpus slice
        q = can.url_hash64(urls)
        n_idx = len(self._hash_sorted)
        pos = np.searchsorted(self._hash_sorted, q)
        safe = np.minimum(pos, max(n_idx - 1, 0))
        found = (pos < n_idx) & (
            self._hash_sorted[safe] == q if n_idx else np.zeros(len(urls), dtype=bool)
        )
        take_rows = safe.copy()  # table rows ARE hash-sorted positions
        # 64-bit collision guard: two distinct corpus URLs sharing a
        # hash form a run of equal keys — resolve by scanning the run
        # for the URL itself (bounded; runs >1 are ~never at 10^10
        # docs, but a first-of-run-only probe would turn the later URL
        # into a permanent false 404)
        if n_idx:
            pos_r = np.searchsorted(self._hash_sorted, q, side="right")
            for i in np.flatnonzero(found & (pos_r - pos > 1)):
                u = urls[i]
                hit = False
                for r in range(int(pos[i]), int(pos_r[i])):
                    if self.table.column("url")[r].as_py() == u:
                        take_rows[i] = r
                        hit = True
                        break
                if not hit:
                    found[i] = False
                    self.collisions += 1
        sub = self.table.take(pa.array(take_rows[found]))
        sub_urls = sub.column("url").to_pylist()
        sub_ts = sub.column("warc_ts").to_pylist()
        sub_html = sub.column("html").to_pylist()
        sub_lang = sub.column("lang").to_pylist()
        if self.flaky_mod is None and bool(found.all()) and sub_urls == urls:
            # fast path: every URL hit (the common case mid-crawl) —
            # skip the per-row merge loop entirely
            status = [200] * len(urls)
            tss, htmls, langs = sub_ts, sub_html, sub_lang
        else:
            status, tss, htmls, langs = [], [], [], []
            j = 0
            for i, u in enumerate(urls):
                if not found[i] or sub_urls[j] != u:  # run-of-1 hash collision
                    if found[i]:
                        j += 1
                        self.collisions += 1
                    status.append(404)
                    tss.append(None)
                    htmls.append(None)
                    langs.append(None)
                    continue
                hit = (sub_ts[j], sub_html[j], sub_lang[j])
                j += 1
                if self.flaky_mod is not None and (
                    self.flaky_persistent or u not in self._attempted
                ):
                    self._attempted.add(u)
                    d_str = u.rsplit("/", 1)[-1]
                    if d_str.isdigit() and int(d_str) % self.flaky_mod == 0:
                        status.append(503)
                        tss.append(None)
                        htmls.append(None)
                        langs.append(None)
                        continue
                status.append(200)
                tss.append(hit[0])
                htmls.append(hit[1])
                langs.append(hit[2])

        out = _parse_and_emit(
            urls, depths, status, tss, htmls, langs,
            persist_dir, shard_tag, collect_edges, self.frontier_shards, self.persister,
            self.split,
            ai_stage=self.ai_stage,
            alert_stage=self.alert_stage,
        )
        self.busy_s += _time.perf_counter() - _t0
        return out

    def fetch_wave(self, *args):
        """This actor's share of a round (see ``_fetch_wave``)."""
        return _fetch_wave(self, *args)


_ROUND_ORDER = ["priority", "depth", "host", "url"]


def _wave_rows(admit_tables, fid: int, nf: int, budget: int | None) -> pa.Table:
    """The rows fetcher ``fid`` of ``nf`` fetches this round.

    The round's global order is every shard's admitted table sorted by
    (priority, depth, host, url).  ``budget`` (what is left of
    ``max_pages``) cuts that order BEFORE the robots filter — a denied
    URL still takes its slot, as in the oracle.  The fetcher keeps the
    robots-allowed rows of the cut that it owns (``url_hash % nf`` —
    its corpus replay slice), in global order, so the driver, which
    computes the same order and cut, scatters statuses back by
    position alone."""
    parts = [t for t in admit_tables if t.num_rows]
    if not parts:
        return schemas.FRONTIER.empty_table()
    cat = pa.concat_tables(parts)
    keys = [(k, "ascending") for k in _ROUND_ORDER]
    if budget is not None and cat.num_rows > budget:
        cat = cat.take(pc.sort_indices(cat, keys)[:budget])
    allowed = cat.column("allowed").to_numpy(zero_copy_only=False)
    h = cat.column("url_hash").to_numpy(zero_copy_only=False).astype(np.uint64)
    sub = cat.filter(pa.array(allowed & ((h % np.uint64(nf)).astype(np.int64) == fid)))
    sub = sub.take(pc.sort_indices(sub, keys))
    return sub.select(schemas.FRONTIER.names).cast(schemas.FRONTIER)


def _fetch_wave(
    actor,
    fid: int,
    nf: int,
    batch_size: int,
    budget: int | None,
    persist_dir: str | None,
    shard_tag: str,
    collect_edges: bool,
    flush: bool,
    *admit_tables: pa.Table,
):
    """One fetch actor's share of a round -> (meta, edges|None, stage refs).

    The driver passes every shard's admitted table as an ObjectRef
    argument, so this task starts the moment the LAST shard finishes
    admission — no driver round trip between the admit and fetch
    waves.  ``flush`` writes the persist buffer out at the end of the
    wave (checkpoint round dirs)."""
    rows = _wave_rows(admit_tables, fid, nf, budget)
    metas: list[pa.Table] = []
    edges_out: list[pa.Table] = []
    stage_refs: list = []
    for start in range(0, rows.num_rows, batch_size):
        m, _, e, refs = actor.fetch_parse(
            rows.slice(start, batch_size), persist_dir, shard_tag, collect_edges
        )
        metas.append(m)
        stage_refs.extend(refs)
        if e is not None and e.num_rows:
            edges_out.append(e)
    if flush:
        _timed_flush(actor)
    meta = (
        pa.concat_tables(metas)
        if metas
        else pa.table(
            {
                "url": pa.array([], pa.string()),
                "status": pa.array([], pa.int16()),
                "latency": pa.array([], pa.float64()),
            }
        )
    )
    return meta, (pa.concat_tables(edges_out) if edges_out else None), stage_refs


class _Checkpointer:
    def __init__(self, root: str | None, cfg: CrawlConfig):
        self.root = root
        self.cfg = cfg

    def round_dir(self, r: int) -> str:
        return os.path.join(self.root, f"round={r:05d}")

    def latest_complete_round(self) -> int | None:
        if not self.root or not os.path.isdir(self.root):
            return None
        rounds = []
        for d in glob.glob(os.path.join(self.root, "round=*")):
            mf = os.path.join(d, "manifest.json")
            if os.path.exists(mf):
                with open(mf) as fh:
                    m = json.load(fh)
                if m.get("complete") and m.get("config_hash") == self.cfg.config_hash():
                    rounds.append(int(m["round"]))
        return max(rounds) if rounds else None

    def write_round(
        self, r: int, order_delta: pa.Table, counters: dict, dumps: list | None = None
    ) -> None:
        """Per-round checkpoint.

        The order delta is written every round (cheap, append-only);
        the restartable STATE (per-shard frontier/seen/clock dumps +
        manifest, manifest last via atomic rename) only when ``dumps``
        — the shards' ``dump`` refs — is given, which
        ``CrawlConfig.checkpoint_every`` governs, since a full seen-set
        dump per round is O(rounds × seen) at 10^10-URL scale.  Older
        rounds' state dumps are pruned after a newer complete state
        lands; page/edge/order deltas are kept (they are the lineage)."""
        d = self.round_dir(r)
        os.makedirs(d, exist_ok=True)
        if dumps is None:
            pq.write_table(order_delta, os.path.join(d, "order.parquet"))
            return
        lineage = {"round": r, "inputs": [], "outputs": []}
        for sub in ("pages", "edges", "alerts"):
            for pth in sorted(glob.glob(os.path.join(d, sub, "*.parquet"))):
                lineage["outputs"].append({"table": sub, "path": pth})
        for i, (ftab, seen_arr, clock, brk, lim) in enumerate(ray.get(dumps)):
            pq.write_table(ftab, os.path.join(d, f"shard-{i}-frontier.parquet"))
            with open(os.path.join(d, f"shard-{i}-seen.npy.tmp"), "wb") as fh:
                np.save(fh, seen_arr)
            os.replace(
                os.path.join(d, f"shard-{i}-seen.npy.tmp"),
                os.path.join(d, f"shard-{i}-seen.npy"),
            )
            pq.write_table(clock, os.path.join(d, f"shard-{i}-clock.parquet"))
            pq.write_table(brk, os.path.join(d, f"shard-{i}-breaker.parquet"))
            pq.write_table(lim, os.path.join(d, f"shard-{i}-limiter.parquet"))
            lineage["outputs"].append(
                {"table": "frontier", "shard": i, "rows": ftab.num_rows}
            )
        pq.write_table(order_delta, os.path.join(d, "order.parquet"))
        manifest = {
            "round": r,
            "config_hash": self.cfg.config_hash(),
            "num_shards": len(dumps),
            "counters": counters,
            "lineage": lineage,
            "complete": True,
        }
        tmp = os.path.join(d, "manifest.json.tmp")
        with open(tmp, "w") as fh:
            json.dump(manifest, fh)
        os.replace(tmp, os.path.join(d, "manifest.json"))
        self._prune_state(r)

    def _prune_state(self, newest: int) -> None:
        """Drop restart-state of rounds older than ``newest`` (their

        order/pages/edges deltas stay — they are the run's lineage)."""
        for od in glob.glob(os.path.join(self.root, "round=*")):
            try:
                rr = int(os.path.basename(od).split("=")[1])
            except (IndexError, ValueError):
                continue
            if rr >= newest:
                continue
            for pat in (
                "shard-*-frontier.parquet",
                "shard-*-seen.npy",
                "shard-*-clock.parquet",
                "shard-*-breaker.parquet",
                "shard-*-limiter.parquet",
            ):
                for f in glob.glob(os.path.join(od, pat)):
                    os.remove(f)
            mf = os.path.join(od, "manifest.json")
            if os.path.exists(mf):
                os.remove(mf)

    def drop_rounds_after(self, r0: int) -> None:
        """Remove partially-written rounds beyond the resume point so a

        re-run regenerates them cleanly (atomic per-round outputs)."""
        for od in glob.glob(os.path.join(self.root, "round=*")):
            try:
                rr = int(os.path.basename(od).split("=")[1])
            except (IndexError, ValueError):
                continue
            if rr > r0:
                shutil.rmtree(od, ignore_errors=True)

    def restore_round(self, r: int, frontier: "DistributedFrontier") -> dict:
        d = self.round_dir(r)
        futures = []
        for i, s in enumerate(frontier.shards):
            ftab = pq.read_table(os.path.join(d, f"shard-{i}-frontier.parquet"))
            seen_arr = np.load(os.path.join(d, f"shard-{i}-seen.npy"))
            clock = pq.read_table(os.path.join(d, f"shard-{i}-clock.parquet"))
            brk_path = os.path.join(d, f"shard-{i}-breaker.parquet")
            brk = pq.read_table(brk_path) if os.path.exists(brk_path) else None
            lim_path = os.path.join(d, f"shard-{i}-limiter.parquet")
            lim = pq.read_table(lim_path) if os.path.exists(lim_path) else None
            futures.append(s.load.remote(ftab, seen_arr, clock, brk, lim))
        ray.get(futures)
        with open(os.path.join(d, "manifest.json")) as fh:
            return json.load(fh)


class CrawlEngine:
    """Prepared crawl: corpus shards loaded, actor pools up.

    Separates one-time cluster preparation (corpus hash-partitioning,
    fetch + frontier actor construction — the analogue of satellites
    joining the queue before a job starts, QUEUE_SYSTEM.md) from the
    crawl itself, so ``run()`` measures frontier + fetch + parse +
    persist.  Single-use: one ``run()`` per engine.
    """

    def __init__(self, sf_dir: str, cfg: CrawlConfig | None = None, multiplier: int = 1):
        from ..state.frontier import DistributedFrontier

        self.sf_dir = sf_dir
        self.cfg = cfg or CrawlConfig()
        self.multiplier = multiplier
        real = self.cfg.fetch_mode == "real"
        if real:
            if not self.cfg.seeds:
                raise ValueError("fetch_mode='real' requires CrawlConfig.seeds")
            self.n_docs = 0
            robots_map = dict(self.cfg.robots_overrides or {})
            # robots.txt is fetched LAZILY by each host's owning shard
            # at first admission (covers seeds AND hosts discovered
            # mid-crawl; one fetch per host, cached in the shard — T2)
        else:
            cdir = corpus_mod.corpus_dir(sf_dir, multiplier)
            self.n_docs = corpus_mod.corpus_n_docs(sf_dir, multiplier)
            corpus_files = sorted(glob.glob(os.path.join(cdir, "pages_*.parquet")))
            robots_map = corpus_mod.robots_map(self.n_docs)
            if self.cfg.robots_overrides:
                robots_map.update(self.cfg.robots_overrides)
        self.frontier = DistributedFrontier(
            self.cfg.num_seen_shards,
            robots_map,
            self.cfg.max_per_host_per_round,
            self.cfg.politeness,
            self.cfg.max_depth,
            collect_seen=self.cfg.resolved_collect_seen(),
            seen_backend=self.cfg.seen_backend,
            seen_capacity=self.cfg.seen_capacity,
            breaker_cfg=(
                {
                    "failure_threshold": self.cfg.breaker_failure_threshold,
                    "recovery_rounds": self.cfg.breaker_recovery_rounds,
                    "close_threshold": self.cfg.breaker_close_threshold,
                }
                if self.cfg.breaker_enabled
                else None
            ),
            politeness_mode=self.cfg.politeness_mode,
            robots_fetch_timeout=(
                self.cfg.real_timeout_s
                if self.cfg.fetch_mode == "real" and self.cfg.fetch_robots
                else None
            ),
            robots_ttl_rounds=self.cfg.robots_ttl_rounds,
            wall_clock=self.cfg.resolved_wall_clock(),
        )
        nf = self.cfg.num_fetchers
        if real:
            from .fetch_real import RealFetchActor

            self.fetchers = [
                RealFetchActor.remote(
                    self.frontier.shards,
                    self.cfg.real_max_file_size_mb,
                    self.cfg.real_timeout_s,
                    ua_rotation=self.cfg.ua_rotation,
                    proxies=self.cfg.proxies,
                    ai_scoring=self.cfg.ai_scoring,
                    alerting=self.cfg.alerting,
                )
                for _ in range(nf)
            ]
            ray.get([a.ready.remote() for a in self.fetchers + self.frontier.shards])
            return
        # one read of each corpus file, hash-partitioned into P shard refs
        split_refs = [
            _split_corpus_file.options(num_returns=nf).remote(f, nf)
            if nf > 1
            else [_split_corpus_file.remote(f, nf)]
            for f in corpus_files
        ]
        # Barrier BEFORE creating the fetcher pool: on a tiny CPU
        # budget (scaling's 2-CPU low tier) the shard + fetcher actors
        # can reserve every CPU, and the split TASKS the fetcher
        # __init__ blocks on would then never be scheduled — a
        # resource deadlock.  fetch_local=False awaits completion
        # without pulling the (large) slice objects to the driver.
        flat = [r for refs in split_refs for r in refs]
        ray.wait(flat, num_returns=len(flat), fetch_local=False)
        fetcher_cls = FetchParseActor.options(
            runtime_env={"env_vars": {"POLARS_MAX_THREADS": "2"}}
        )
        self.fetchers = [
            fetcher_cls.remote(
                [refs[s] for refs in split_refs],
                self.cfg.flaky_mod,
                self.frontier.shards,
                self.cfg.flaky_persistent,
                self.cfg.ai_scoring,
                self.cfg.alerting,
            )
            for s in range(nf)
        ]
        # block until every actor is up: the fetchers have built their
        # index, and the shards, started first, warmed up meanwhile
        ray.get([a.ready.remote() for a in self.fetchers + self.frontier.shards])

    def shutdown(self):
        self.frontier.shutdown()
        for f in self.fetchers:
            ray.kill(f)

    def run(self) -> CrawlResult:
        return _run_prepared(self)


def run_crawl(sf_dir: str, cfg: CrawlConfig | None = None, multiplier: int = 1) -> CrawlResult:
    """Run the full crawl over the synthetic corpus of ``sf_dir``."""
    return CrawlEngine(sf_dir, cfg, multiplier).run()


_STATS_COUNTER_KEYS = (
    "pages_fetched", "fetch_misses", "fetch_errors", "robots_denied",
    "discovered", "dedup_hits", "frontier_ops", "dead_lettered",
)
_STATS_TIMER_KEYS = ("t_admit", "t_fetch", "t_order", "t_expand", "t_checkpoint")


def _absorb_discoveries(counters: dict, seen_urls: list, trailers) -> None:
    """Fold the shards' ``finish_round`` discovery trailers — (n_new,
    n_dup, newly_seen_urls) triples — into the run's counters.  Every
    place that collects them (next round, checkpoint, last round)
    accounts through HERE so a new discovery counter can't silently
    miss one of them."""
    for n_new, n_dup, newly in trailers:
        counters["discovered"] += n_new + n_dup
        counters["dedup_hits"] += n_dup
        counters["frontier_ops"] += n_new + n_dup
        seen_urls.extend(newly)


def _emit_round_stats(fh, round_no: int, counters: dict, prev: dict) -> None:
    """A8 live-metrics channel: ONE O(counters) JSON row per executed
    round, appended to the run's lineage dir (the Ray-side analogue of
    the reference's Prometheus counters + efficiency report,
    monitoring/crawler_metrics.py:123-433).  Deltas vs the previous
    round, so each row is self-contained; zero driver-RAM growth —
    nothing accumulates, the row goes straight to disk."""
    row: dict = {"round": round_no}
    for k in _STATS_COUNTER_KEYS:
        row[k] = counters.get(k, 0) - prev.get(k, 0)
    for k in _STATS_TIMER_KEYS:
        row[k] = round(counters.get(k, 0.0) - prev.get(k, 0.0), 6)
    busy = sum(row[k] for k in _STATS_TIMER_KEYS)
    row["pages_total"] = counters.get("pages_fetched", 0)
    row["pages_per_sec"] = round(row["pages_fetched"] / busy, 3) if busy > 0 else 0.0
    fh.write(json.dumps(row) + "\n")


def _run_prepared(engine: CrawlEngine) -> CrawlResult:
    import time as _time

    cfg = engine.cfg
    n_docs = engine.n_docs
    frontier, fetchers = engine.frontier, engine.fetchers
    shards = frontier.shards
    ckpt = _Checkpointer(cfg.checkpoint_dir, cfg)

    counters = {
        "t_admit": 0.0,
        "t_fetch": 0.0,
        "t_expand": 0.0,
        "t_order": 0.0,
        "t_checkpoint": 0.0,
        "pages_fetched": 0,
        "fetch_misses": 0,
        "fetch_errors": 0,
        "robots_denied": 0,
        "discovered": 0,
        "dedup_hits": 0,
        "frontier_ops": 0,
        "rounds": 0,
        "dead_lettered": 0,
    }
    order_parts: list[pa.Table] = []
    order_buf: list[pa.Table] = []  # non-collected order deltas awaiting flush
    order_buf_rows = 0
    order_buf_seq = 0
    edges_parts: list[pa.Table] = []
    pages_paths: list[str] = []
    seen_urls: list[str] = []
    collect_seen = cfg.resolved_collect_seen()
    wall_clock = cfg.resolved_wall_clock()
    breaker_dirty = False
    seq = 0
    start_round = 0

    resumed = cfg.resume and ckpt.latest_complete_round() is not None
    if cfg.resume and not resumed:
        # round-1 advice: silently rmtree-ing the checkpoint dir on a
        # failed resume destroyed all prior lineage.  A requested
        # resume that cannot find a complete, config-compatible round
        # is an operator error, not a fresh start.
        raise RuntimeError(
            f"resume requested but no complete checkpoint for config_hash="
            f"{cfg.config_hash()} under {cfg.checkpoint_dir!r}; delete the "
            "directory explicitly (or fix the config) to start fresh"
        )
    if resumed:
        r0 = ckpt.latest_complete_round()
        ckpt.drop_rounds_after(r0)  # partially-written tail rounds re-run cleanly
        m = ckpt.restore_round(r0, frontier)
        counters.update(m["counters"])
        counters.pop("seen_urls", None)  # legacy manifests
        breaker_dirty = counters.pop("breaker_dirty", False)
        seq = counters.pop("next_seq", 0)
        start_round = r0 + 1
        for rr in range(r0 + 1):
            rd_ = ckpt.round_dir(rr)
            op = os.path.join(rd_, "order.parquet")
            if cfg.resolved_collect_order() and os.path.exists(op):
                order_parts.append(pq.read_table(op))
            for pth in sorted(glob.glob(os.path.join(rd_, "edges", "*.parquet"))):
                edges_parts.append(pq.read_table(pth))
            pages_paths.extend(sorted(glob.glob(os.path.join(rd_, "pages", "*.parquet"))))
        if collect_seen:
            # the manifest holds counters only (O(1), not O(seen)); the
            # seen-URL list is derivable: seeds ∪ every discovered
            # target in the persisted edge lineage
            seen_set: set[str] = set()
            for row in (cfg.seeds if cfg.seeds is not None else corpus_mod.seed_rows(n_docs)):
                u = can.canonicalize(row["url"])
                if u is not None:
                    seen_set.add(u)
            for e in edges_parts:
                seen_set.update(e.column("target_url").to_pylist())
            seen_urls = list(seen_set)
    else:
        if cfg.checkpoint_dir and os.path.isdir(cfg.checkpoint_dir):
            shutil.rmtree(cfg.checkpoint_dir)
        # seed the frontier (canonicalize -> host shard routing -> dedup)
        seed_rows = cfg.seeds if cfg.seeds is not None else corpus_mod.seed_rows(n_docs)
        canon = can.canonicalize_batch([r["url"] for r in seed_rows])
        kept = [(u, r["priority"]) for u, r in zip(canon, seed_rows) if u is not None]
        if kept:
            urls = [u for u, _ in kept]
            seeds_df = pl.DataFrame(
                {
                    "url": urls,
                    "url_hash": can.url_hash64(urls),
                    "host": can.host_of_batch(urls),
                    "priority": pl.Series([p for _, p in kept], dtype=pl.Int8),
                }
            )
            futures = [
                shards[sid].insert_seeds.remote(sub.to_arrow())
                for sid, sub in frontier.route(seeds_df, "host")
            ]
            for newly in ray.get(futures):
                seen_urls.extend(newly)
            counters["frontier_ops"] += seeds_df.height

    stats_fh = None
    stats_prev: dict = {}
    pending_stats_round: int | None = None
    stats_dir = cfg.checkpoint_dir or cfg.output_dir
    if cfg.stats and stats_dir:
        os.makedirs(stats_dir, exist_ok=True)
        stats_path = os.path.join(stats_dir, "stats.jsonl")
        if cfg.resume and os.path.exists(stats_path):
            # a resumed run continues the stream, but rounds past the
            # restored checkpoint re-execute — drop their stale rows so
            # the one-row-per-round invariant survives a crash+resume
            def _keep(ln: str) -> bool:
                # the crash we're resuming from may have truncated the
                # final line mid-write — drop unparseable rows (they
                # belong to rounds the resume re-executes anyway)
                if not ln.strip():
                    return False
                try:
                    return json.loads(ln).get("round", 0) < start_round
                except json.JSONDecodeError:
                    return False

            with open(stats_path) as fh:
                keep = [ln for ln in fh if _keep(ln)]
            with open(stats_path, "w") as fh:
                fh.writelines(keep)
            stats_fh = open(stats_path, "a", buffering=1)
        else:
            # fresh run: truncate any stream a prior run left in this dir
            stats_fh = open(stats_path, "w", buffering=1)
        stats_prev = dict(counters)

    round_no = start_round
    nf = cfg.num_fetchers
    bs = max(512, cfg.fetch_batch_size)
    # the (n_new, n_dup, newly_seen) trailers of the previous round's
    # finish_round RPCs, collected one round later, off the critical
    # path: the merge runs while the driver submits the next wave, and
    # per-actor FIFO orders it before each shard's next admit
    flush_refs: list = []
    # every driver second of a round goes to exactly one of the
    # _STATS_TIMER_KEYS: each lap closes the interval the last one opened
    lap_t = _time.perf_counter()

    def lap(timer: str) -> None:
        nonlocal lap_t
        now = _time.perf_counter()
        counters[timer] += now - lap_t
        lap_t = now

    while True:
        budget = None if cfg.max_pages is None else cfg.max_pages - counters["pages_fetched"]
        if budget is not None and budget <= 0:
            break
        admit_pairs = [s.admit.remote(round_no) for s in shards]
        table_refs = [p[0] for p in admit_pairs]
        wave = [
            fetchers[f].fetch_wave.remote(
                f,
                nf,
                bs,
                budget,
                ckpt.round_dir(round_no) if cfg.checkpoint_dir else cfg.output_dir,
                f"{f:03d}",
                cfg.collect_edges,
                cfg.checkpoint_dir is not None,
                *table_refs,
            )
            for f in range(nf)
        ]
        # everything up to the wave's ray.get overlaps the actors'
        # admit+fetch execution; a round's stats row goes out here, one
        # round later, once its discovery trailers are in
        _absorb_discoveries(counters, seen_urls, ray.get(flush_refs))
        flush_refs = []
        if stats_fh is not None and pending_stats_round is not None:
            _emit_round_stats(stats_fh, pending_stats_round, counters, stats_prev)
            stats_prev = dict(counters)
        pending_stats_round = None
        admit_meta = ray.get([p[1] for p in admit_pairs])
        admitted_parts = [t for t in ray.get(table_refs) if t.num_rows]
        if not admitted_parts:
            ray.get(wave)  # an empty wave
            if all(fs == 0 for fs, _, _ in admit_meta):
                lap("t_admit")
                break
            if wall_clock:
                # live mode: sleep until the earliest host's Crawl-delay
                # (wall seconds) elapses instead of spinning rounds
                waits = [ws for fs, _, ws in admit_meta if fs > 0]
                _time.sleep(min(max(w, 0.01) for w in waits) if waits else 0.01)
                round_no += 1
            else:
                round_no = max(round_no + 1, min(nr for fs, nr, _ in admit_meta if fs > 0))
            if round_no - start_round > 10_000_000:
                raise RuntimeError("crawl failed to make progress")
            lap("t_admit")
            continue
        admitted = pl.from_arrow(pa.concat_tables(admitted_parts)).sort(_ROUND_ORDER)
        counters["frontier_ops"] += admitted.height
        rejected: list[pa.Table | None] = [None] * len(shards)
        if budget is not None and admitted.height > budget:
            # the cut every fetcher applied; the rows past it go back
            # to their shards in finish_round
            for sid, sub in frontier.route(admitted.slice(budget), "host"):
                rejected[sid] = sub.to_arrow()
            admitted = admitted.slice(0, budget)
        counters["robots_denied"] += int((~admitted.get_column("allowed")).sum())
        admitted = admitted.filter(pl.col("allowed")).drop("allowed")
        n_adm = admitted.height  # 0 when every admitted row was robots-denied
        lap("t_admit")

        results = ray.get(wave)
        lap("t_fetch")

        # each fetcher returns its own rows in global order, so statuses
        # scatter back into admitted order by position alone
        owner = (
            admitted.get_column("url_hash").to_numpy().astype(np.uint64) % np.uint64(nf)
        ).astype(np.int64)
        st_all = np.zeros(n_adm, dtype=np.int64)
        lat_all = np.zeros(n_adm, dtype=np.float64)
        for f, (m, _, _) in enumerate(results):
            idx = np.flatnonzero(owner == f)
            if m.num_rows != len(idx):  # invariant, never expected
                raise RuntimeError(
                    f"wave scatter mismatch: fetcher {f} returned "
                    f"{m.num_rows} rows for {len(idx)} admitted"
                )
            st_all[idx] = m.column("status").to_numpy()
            lat_all[idx] = m.column("latency").to_numpy()
        # retryable statuses per web_crawler.py:262-328: 408 + any 5xx
        retryable = (st_all >= 500) | (st_all == 408)
        counters["pages_fetched"] += int((~retryable).sum())
        counters["fetch_misses"] += int((st_all == 404).sum())
        counters["fetch_errors"] += int(retryable.sum())

        joined = admitted.with_columns(
            pl.Series("status", st_all, dtype=pl.Int16),
            pl.Series("latency", lat_all, dtype=pl.Float64),
        )
        order_delta = pa.table(
            {
                "seq": pa.array(range(seq, seq + n_adm), pa.int64()),
                "round": pa.array([round_no] * n_adm, pa.int32()),
                "url": joined.get_column("url").to_arrow(),
                "host": joined.get_column("host").to_arrow(),
                "depth": joined.get_column("depth").to_arrow(),
                "priority": joined.get_column("priority").to_arrow(),
                "status": joined.get_column("status").to_arrow(),
            }
        )
        seq += n_adm
        if cfg.resolved_collect_order():
            order_parts.append(order_delta)
        elif cfg.output_dir and not cfg.checkpoint_dir:
            # driver-RAM diet: the order log goes to the run's output
            # lineage instead of accumulating O(corpus) tables on the
            # driver (checkpoint runs write it in write_round) —
            # buffered to ~32k rows per file so a politeness crawl's
            # ~190 rounds cost ~6 file creates, not 190
            order_buf.append(order_delta)
            order_buf_rows += n_adm
            if order_buf_rows >= 32_768:
                os.makedirs(cfg.output_dir, exist_ok=True)
                pq.write_table(
                    pa.concat_tables(order_buf),
                    os.path.join(cfg.output_dir, f"order-{order_buf_seq:05d}.parquet"),
                )
                order_buf, order_buf_rows = [], 0
                order_buf_seq += 1
        edges_parts.extend(e for _, e, _ in results if e is not None)

        retry_futures = []
        if bool(retryable.any()):
            failed = joined.filter(pl.Series(retryable))
            counters["dead_lettered"] += failed.filter(
                pl.col("retries") + 1 > cfg.max_retries
            ).height
            retry = (
                failed.filter(pl.col("retries") + 1 <= cfg.max_retries)
                .with_columns(
                    pl.min_horizontal(
                        pl.lit(schemas.PRIORITY_LOW), pl.col("priority") + 1
                    ).cast(pl.Int8).alias("priority"),
                    (pl.col("retries") + 1).cast(pl.Int8).alias("retries"),
                )
                .select(["url", "url_hash", "host", "priority", "depth", "retries"])
            )
            for sid, sub in frontier.route(retry, "host"):
                retry_futures.append(shards[sid].insert_retries.remote(sub.to_arrow()))
        # T5: feed per-URL outcomes (admitted order) to the hosts'
        # breaker shards.  Recording an all-success round into an
        # all-CLOSED breaker is a provable no-op (success only resets
        # counters that are already zero), so the fan-out starts with
        # the first failure ever seen — a healthy crawl pays nothing.
        breaker_dirty = breaker_dirty or (cfg.breaker_enabled and bool(retryable.any()))
        if breaker_dirty or cfg.politeness_mode == "adaptive":
            for sid, sub in frontier.route(joined, "host"):
                retry_futures.append(
                    shards[sid].record_outcomes.remote(
                        round_no, sub.select(["host", "status", "latency"]).to_arrow()
                    )
                )
        lap("t_order")

        # settle: the staged candidates, retries and outcome records
        # every shard must hold before its finish_round
        ray.get([r for _, _, refs in results for r in refs] + retry_futures)
        flush_refs = [s.finish_round.remote(round_no, rejected[i]) for i, s in enumerate(shards)]
        counters["rounds"] += 1
        lap("t_expand")

        if cfg.checkpoint_dir:
            dumps = None
            if counters["rounds"] % max(1, cfg.checkpoint_every) == 0:
                # each dump queues behind its shard's finish_round, so
                # the state holds this round's discoveries; the manifest
                # counters need them too
                dumps = [s.dump.remote() for s in shards]
                _absorb_discoveries(counters, seen_urls, ray.get(flush_refs))
                flush_refs = []
            # manifest counters are O(1): no URL lists (the seen set is
            # derivable from seeds + edge lineage; shard dumps hold the
            # authoritative hash state)
            ck_counters = dict(counters, next_seq=seq, breaker_dirty=breaker_dirty)
            ckpt.write_round(round_no, order_delta, ck_counters, dumps)
            pages_paths.extend(
                sorted(glob.glob(os.path.join(ckpt.round_dir(round_no), "pages", "*.parquet")))
            )
            lap("t_checkpoint")

        if (cfg.max_pages is not None and counters["pages_fetched"] >= cfg.max_pages) or (
            cfg.stop_after_round is not None and round_no >= cfg.stop_after_round
        ):
            _absorb_discoveries(counters, seen_urls, ray.get(flush_refs))
            if stats_fh is not None:
                _emit_round_stats(stats_fh, round_no, counters, stats_prev)
            lap("t_expand")
            break
        pending_stats_round = round_no
        round_no += 1

    if stats_fh is not None:
        stats_fh.close()
    if cfg.output_dir and not cfg.checkpoint_dir:
        ray.get([f.flush_persist.remote() for f in fetchers])
    if order_buf:
        os.makedirs(cfg.output_dir, exist_ok=True)
        pq.write_table(
            pa.concat_tables(order_buf),
            os.path.join(cfg.output_dir, f"order-{order_buf_seq:05d}.parquet"),
        )
    counters["seen_urls"] = sorted(seen_urls)
    # A8 fleet stats: in-actor busy seconds vs the driver's t_fetch
    # wall — the gap is pure scheduling/RPC overhead, the first thing
    # to look at when pages/sec drops (round-3 verdict item 1)
    fetch_perf = ray.get([f.perf_stats.remote() for f in fetchers])
    counters["fetch_busy_s"] = round(sum(p["busy_s"] for p in fetch_perf), 3)
    # busy_s by part: the rest is the fetch itself (replay lookup/HTTP)
    for part in _busy_split():
        counters[f"fetch_{part}"] = round(sum(p[part] for p in fetch_perf), 3)
    counters["hash_collisions"] = sum(p["collisions"] for p in fetch_perf)
    counters["alerts_fired"] = sum(p.get("alerts_fired", 0) for p in fetch_perf)
    shard_sizes = ray.get([s.sizes.remote() for s in shards])
    counters["seen_total"] = sum(n for _, n in shard_sizes)
    counters["frontier_remaining"] = sum(f for f, _ in shard_sizes)
    # admit-wave attribution: the wave's wall cost per round is the MAX
    # shard's in-actor time, so the max totals are what bound t_admit
    shard_perf = ray.get([s.perf_stats.remote() for s in shards])
    for k in shard_perf[0] if shard_perf else ():
        counters[f"shard_{k}_max"] = round(max(p[k] for p in shard_perf), 3)
    if cfg.breaker_enabled:
        stats = ray.get([s.breaker_stats.remote() for s in shards])
        counters["breaker_opens"] = sum(x["opens"] for x in stats)
        counters["breaker_open_hosts"] = sum(x["open_hosts"] for x in stats)
    order = (
        pa.concat_tables(order_parts)
        if order_parts
        else pa.table({"seq": pa.array([], pa.int64()), "url": pa.array([], pa.string())})
    )
    edges = (
        pa.concat_tables(edges_parts)
        if edges_parts
        else pa.Table.from_pylist([], schema=schemas.EDGES)
    )
    engine.shutdown()
    return CrawlResult(order=order, edges=edges, pages_paths=pages_paths, counters=counters)


# --- Pure-Python oracle (FIXTURES.md §8) ---------------------------------

def oracle_crawl(sf_dir: str, cfg: CrawlConfig | None = None, multiplier: int = 1) -> dict:
    """Sequential reference-semantics oracle: same spec, no Ray, no Arrow.

    Returns {"order": [(url, depth)...], "crawled": set, "seen": set}.
    """
    cfg = cfg or CrawlConfig()
    n_docs = corpus_mod.corpus_n_docs(sf_dir, multiplier)
    robots = RobotsIndex(corpus_mod.robots_map(n_docs))
    corpus_urls = {corpus_mod.url_of(d, n_docs): d for d in range(n_docs)}

    seen: set[str] = set()
    frontier: list[tuple] = []  # (priority, depth, host, url)
    order: list[tuple] = []
    crawled: set[str] = set()
    last_round: dict[str, int] = {}

    for row in (cfg.seeds if cfg.seeds is not None else corpus_mod.seed_rows(n_docs)):
        u = can.canonicalize(row["url"])
        if u is None or u in seen:
            continue
        seen.add(u)
        frontier.append((row["priority"], 0, can.host_of(u), u))

    round_no = 0
    pages = 0
    while frontier:
        if cfg.max_pages is not None and pages >= cfg.max_pages:
            break
        if cfg.politeness:
            eligible = [
                t
                for t in frontier
                if last_round.get(t[2]) is None
                or round_no >= last_round[t[2]] + robots.crawl_delay_rounds(t[2])
            ]
        else:
            eligible = list(frontier)
        if not eligible:
            round_no += 1
            continue
        eligible.sort(key=lambda t: (t[0], t[1], t[3]))  # priority, depth, url
        admitted = []
        per_host: dict[str, int] = {}
        for t in eligible:
            if cfg.politeness and per_host.get(t[2], 0) >= cfg.max_per_host_per_round:
                continue
            per_host[t[2]] = per_host.get(t[2], 0) + 1
            admitted.append(t)
        admitted.sort(key=lambda t: (t[0], t[1], t[2], t[3]))  # priority, depth, host, url
        if cfg.max_pages is not None:
            admitted = admitted[: cfg.max_pages - pages]
        admitted_set = set(admitted)
        frontier = [t for t in frontier if t not in admitted_set]

        discovered: dict[str, tuple] = {}
        for prio, depth, host, url in admitted:
            if not robots.allowed(host, url):
                continue
            order.append((url, depth))
            crawled.add(url)
            pages += 1
            last_round[host] = round_no
            d = corpus_urls.get(url)
            if d is None:
                continue  # fetch miss
            for link in corpus_mod.expected_links(d, n_docs):
                tu = link["target_url"]
                cur = discovered.get(tu)
                if cur is None or depth + 1 < cur[0]:
                    discovered[tu] = (depth + 1, can.host_of(tu))
        for tu in sorted(discovered):
            dep, host = discovered[tu]
            if tu in seen:
                continue
            seen.add(tu)
            if dep >= cfg.max_depth:
                continue
            frontier.append((schemas.PRIORITY_MEDIUM, dep, host, tu))
        round_no += 1

    return {"order": order, "crawled": crawled, "seen": seen}
