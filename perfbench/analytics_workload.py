"""The ``analytics`` workload: no crawl actors, two batch jobs.

- graph job: link extraction to an edges Parquet dir, then
  ``host_graph``, ``link_profiles``, ``referring_domains_hll``,
  ``host_pagerank(iters=5)``, ``host_communities(rounds=4)``;
- text job: a documents scan, the token family and the dedup family
  over the seeded scaled documents.

Jobs alternate until the time budget is spent.  Every stage's output
is materialized inside the job (time to its last result) and checked
outside it: against DuckDB where an oracle exists, else by row count
plus a digest that must repeat across runs of one seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import traceback

import numpy as np
import pandas as pd

from . import inputs
from .metrics import GRAPH_STAGES, TEXT_OPS
from .session import dir_usage, peak_rss_mb, reset_peak_rss, tree_cpu_s

# 5, not 10, iterations: a graph job then takes ~7.5 s, so about three
# fit in a run and each stage's fastest time has that many samples
PAGERANK_ITERS = 5
COMMUNITY_ROUNDS = 4
DIGEST_ONLY = ("referring_domains_hll", "host_pagerank", "host_communities", "minhash_lsh_dups")

_HOST_GRAPH_SQL = """
SELECT source_host, target_host, count(*)::BIGINT AS n_links
FROM edges GROUP BY source_host, target_host"""
_LINK_PROFILES_SQL = """
SELECT target_url,
       count(*)::BIGINT AS total_backlinks,
       count(DISTINCT source_host)::BIGINT AS unique_referring_domains,
       sum(CASE WHEN link_type = 'dofollow' THEN 1 ELSE 0 END)::BIGINT AS dofollow_backlinks,
       sum(CASE WHEN link_type = 'nofollow' THEN 1 ELSE 0 END)::BIGINT AS nofollow_backlinks,
       sum(CASE WHEN link_type = 'sponsored' THEN 1 ELSE 0 END)::BIGINT AS sponsored_backlinks,
       sum(CASE WHEN link_type = 'ugc' THEN 1 ELSE 0 END)::BIGINT AS ugc_backlinks
FROM edges GROUP BY target_url"""


def frame_digest(df: pd.DataFrame) -> str:
    """Order-insensitive digest of a result table; floats are rounded to
    12 decimals so summation order cannot change it."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype.kind == "f":
            df[c] = np.round(df[c].to_numpy(), 12)
        elif df[c].dtype == object:
            df[c] = df[c].map(lambda v: v.hex() if isinstance(v, bytes) else str(v))
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    return hashlib.sha256(df.to_csv(index=False).encode()).hexdigest()


def _text_fn(op: str):
    from link_profiler_repo_ray.pipelines import textdata
    from link_profiler_repo_ray.pipelines.retrieval import bm25_topk

    return bm25_topk if op == "bm25_topk" else getattr(textdata, op)


def _duckdb(views: dict):
    import duckdb

    con = duckdb.connect()
    for name, path in views.items():
        con.execute(f"CREATE VIEW {name} AS SELECT * FROM read_parquet('{path}')")
    return con


def text_oracles(work: str, sdir: str, key: str) -> dict:
    """DuckDB results of ``__ray_entry__.oracle_sql()`` for every text op
    that has one, over the scaled documents; cached per seed."""
    import __ray_entry__

    d = os.path.join(work, "oracles", key)
    sql = __ray_entry__.oracle_sql()
    out = {}
    con = None
    for op in TEXT_OPS:
        if op in DIGEST_ONLY:
            continue
        path = os.path.join(d, f"{op}.parquet")
        if not os.path.exists(path):
            if con is None:
                con = _duckdb({"documents": os.path.join(sdir, "documents.parquet")})
            os.makedirs(d, exist_ok=True)
            con.execute(sql[op]).fetch_arrow_table().to_pandas().to_parquet(path + ".tmp")
            os.replace(path + ".tmp", path)
        out[op] = pd.read_parquet(path)
    return out


class DigestBook:
    """Digests of oracle-less stage outputs for one seed, persisted so a
    later run of the same seed must reproduce them."""

    def __init__(self, path: str):
        self.path = path
        self.book = {}
        if os.path.exists(path):
            with open(path) as fh:
                self.book = json.load(fh)

    def check(self, stage: str, rows: int, digest: str) -> list[str]:
        want = self.book.get(stage)
        if want is None:
            self.book[stage] = {"rows": rows, "digest": digest}
            os.makedirs(os.path.dirname(self.path), exist_ok=True)
            tmp = self.path + ".tmp"
            with open(tmp, "w") as fh:
                json.dump(self.book, fh)
            os.replace(tmp, self.path)
            return []
        if want["rows"] != rows or want["digest"] != digest:
            return [f"{stage}: {rows} rows / digest {digest[:12]} differ from the recorded "
                    f"{want['rows']} rows / {want['digest'][:12]}"]
        return []


def prepare(ctx) -> dict:
    """Untimed: documents, page corpus, scaled documents, text oracles."""
    from link_profiler_repo_ray.sources import corpus

    sz = ctx.sizes
    sf = inputs.documents_dir(ctx.work, sz.base_docs)
    cdir = corpus.corpus_dir(sf, sz.graph_mult)
    sdir = inputs.scaled_documents_dir(
        ctx.work, inputs.documents_dir(ctx.work, sz.text_docs), sz.text_mult, ctx.seed)
    inputs.warm_files(cdir)
    inputs.warm_files(sdir)
    key = f"text-v{inputs.INPUTS_VERSION}-n{sz.text_docs}-x{sz.text_mult}-s{ctx.seed}"
    return {
        "sf": sf,
        "sdir": sdir,
        "pages": corpus.corpus_n_docs(sf, sz.graph_mult),
        "edges_dir": os.path.join(ctx.work, "run", "analytics", "edges"),
        "text_oracles": text_oracles(ctx.work, sdir, key),
        # the graph job's input does not depend on the seed: its digests
        # must repeat across every run; minhash's across runs of a seed
        "graph_digests": DigestBook(os.path.join(
            ctx.work, "oracles", f"digests-v{inputs.INPUTS_VERSION}-n{sz.base_docs}-g{sz.graph_mult}"
            f"-pr{PAGERANK_ITERS}-c{COMMUNITY_ROUNDS}.json")),
        "text_digests": DigestBook(os.path.join(ctx.work, "oracles", f"digests-{key}.json")),
    }


def warm_up(ctx, prep: dict) -> float:
    """Set-up: one pass of the link-extraction stage over the corpus so
    Ray Data's workers exist and have imported the program."""
    from link_profiler_repo_ray.pipelines import graph

    with ctx.tracer.span("analytics.warmup") as sp:
        graph.edges_dataset(prep["sf"], ctx.sizes.graph_mult).count()
    return sp["s"]


class _Job:
    """One job's stages: timing, failure counting, materialized outputs."""

    def __init__(self, ctx, prefix: str):
        self.ctx, self.prefix = ctx, prefix
        self.stage_s: dict[str, float] = {}
        self.out: dict = {}
        self.raised = 0
        self.run = 0

    def stage(self, name: str, fn):
        self.run += 1
        with self.ctx.tracer.span(f"{self.prefix}.{name}") as sp:
            try:
                self.out[name] = fn()
            except Exception:  # a failing stage is counted, the job goes on
                self.raised += 1
                self.ctx.log(f"{self.prefix}.{name} raised:\n{traceback.format_exc()}")
        self.stage_s[name] = sp["s"]


def graph_job(ctx, prep: dict) -> dict:
    import ray.data as rd

    from link_profiler_repo_ray.pipelines import graph

    sf, mult, edges_dir = prep["sf"], ctx.sizes.graph_mult, prep["edges_dir"]
    shutil.rmtree(edges_dir, ignore_errors=True)

    def edges(cols):
        return rd.read_parquet(edges_dir, columns=cols)

    job = _Job(ctx, "graph")
    reset_peak_rss()
    cpu0 = tree_cpu_s(os.getpid())
    with ctx.tracer.span("graph.job") as sp:
        job.stage("edges", lambda: graph.edges_dataset(sf, mult).write_parquet(edges_dir))
        job.stage("host_graph", lambda: graph.host_graph(
            sf, mult, edges=edges(["source_host", "target_host"])).materialize())
        job.stage("link_profiles", lambda: graph.link_profiles(
            sf, mult, edges=edges(["target_url", "source_host", "link_type"])).materialize())
        job.stage("referring_domains_hll", lambda: graph.referring_domains_hll(
            sf, mult, edges=edges(["target_host", "source_host"])).materialize())
        job.stage("host_pagerank", lambda: graph.host_pagerank(
            sf, mult, iters=PAGERANK_ITERS, edges=edges(["source_host", "target_host"])
        ).materialize())
        job.stage("host_communities", lambda: graph.host_communities(
            sf, mult, rounds=COMMUNITY_ROUNDS, edges=edges(["source_host", "target_host"])
        ).materialize())
    cpu_s = tree_cpu_s(os.getpid()) - cpu0
    rss = peak_rss_mb()
    with ctx.tracer.span("check.graph"):
        rows, problems = check_graph(prep, job.out)
    return {"s": sp["s"], "cpu_s": cpu_s, "stage_s": job.stage_s, "rows": rows, "rss_mb": rss,
            "disk": dir_usage(edges_dir)[0], "attempted": job.run + len(rows),
            "failed": job.raised + len(problems), "ok": not problems and not job.raised}


def check_graph(prep: dict, out: dict) -> tuple[dict, list[str]]:
    """Edges vs the ``extract_links`` SQL oracle over the documents;
    ``host_graph``/``link_profiles`` vs a DuckDB group-by over the
    edges Parquet; the rest by rows + repeatable digest."""
    import __ray_entry__
    from scripts.check_oracle import compare

    edges_glob = os.path.join(prep["edges_dir"], "*.parquet")
    con = _duckdb({"edges": edges_glob, "documents": os.path.join(prep["sf"], "documents.parquet")})
    rows: dict[str, int] = {}
    problems: list[str] = []
    if "edges" in out:
        mine = con.execute(
            "SELECT source_url, target_url, anchor_text, link_type FROM edges").fetchdf()
        rows["edges"] = len(mine)
        oracle = con.execute(__ray_entry__.oracle_sql()["extract_links"]).fetchdf()
        problems += [f"edges: {p}" for p in compare("edges", mine, oracle)]
    for stage, sql in (("host_graph", _HOST_GRAPH_SQL), ("link_profiles", _LINK_PROFILES_SQL)):
        if stage in out:
            mine = out[stage].to_pandas()
            rows[stage] = len(mine)
            problems += [f"{stage}: {p}" for p in compare(stage, mine, con.execute(sql).fetchdf())]
    for stage in ("referring_domains_hll", "host_pagerank", "host_communities"):
        if stage in out:
            mine = out[stage].to_pandas()
            rows[stage] = len(mine)
            problems += prep["graph_digests"].check(stage, len(mine), frame_digest(mine))
    missing = [s for s in GRAPH_STAGES if s not in rows]
    problems += [f"{s}: no output" for s in missing]
    return rows, problems


def text_job(ctx, prep: dict, tamper=None) -> dict:
    from link_profiler_repo_ray.pipelines import textdata

    sdir = prep["sdir"]
    job = _Job(ctx, "textdata")
    reset_peak_rss()
    cpu0 = tree_cpu_s(os.getpid())
    with ctx.tracer.span("textdata.job") as sp:
        job.stage("documents_scan", lambda: textdata.documents_dataset(sdir).materialize())
        for op in TEXT_OPS:
            job.stage(op, lambda op=op: _text_fn(op)(sdir).materialize())
    cpu_s = tree_cpu_s(os.getpid()) - cpu0
    rss = peak_rss_mb()
    with ctx.tracer.span("check.textdata"):
        rows, problems = check_text(prep, job.out, tamper)
    return {"s": sp["s"], "cpu_s": cpu_s, "stage_s": job.stage_s, "rows": rows, "rss_mb": rss,
            "attempted": job.run + len(rows), "failed": job.raised + len(problems),
            "ok": not problems and not job.raised}


def check_text(prep: dict, out: dict, tamper=None) -> tuple[dict, list[str]]:
    """Each text op vs its DuckDB oracle; minhash by rows + digest.
    ``tamper(op, frame)`` (self-test only) edits an output first."""
    from scripts.check_oracle import compare

    rows: dict[str, int] = {}
    problems: list[str] = []
    for op in TEXT_OPS:
        if op not in out:
            problems.append(f"{op}: no output")
            continue
        mine = out[op].to_pandas()
        if tamper is not None:
            mine = tamper(op, mine)
        rows[op] = len(mine)
        if op in DIGEST_ONLY:
            problems += prep["text_digests"].check(op, len(mine), frame_digest(mine))
        else:
            problems += [f"{op}: {p}" for p in compare(op, mine, prep["text_oracles"][op])]
    return rows, problems


def fastest_job_s(jobs: list[dict]) -> float:
    """A job's time with each stage at its fastest repetition: the sum
    over stages of the stage's minimum, plus the smallest remainder.

    Contention on a shared host only ever adds time and often comes in bursts
    shorter than a job, so a per-stage minimum filters it stage by stage
    where a whole-job minimum over two or three repetitions cannot."""
    stages = jobs[0]["stage_s"]
    return (sum(min(j["stage_s"][s] for j in jobs) for s in stages)
            + min(j["s"] - sum(j["stage_s"].values()) for j in jobs))


def run(ctx, prep: dict, tamper=None) -> dict:
    warmup_s = warm_up(ctx, prep)
    graphs, texts = [], []

    def g() -> float:
        graphs.append(graph_job(ctx, prep))
        return graphs[-1]["s"]

    def t() -> float:
        texts.append(text_job(ctx, prep, tamper))
        return texts[-1]["s"]

    ctx.measure(g, t)
    ctx.log(f"analytics job walls/cpu: graph {[(round(j['s'], 2), j['cpu_s']) for j in graphs]}"
            f" text {[(round(j['s'], 2), j['cpu_s']) for j in texts]}")
    jobs = graphs + texts
    for j in jobs:
        if not j["ok"]:
            ctx.log(f"correctness: analytics job failed ({j['failed']} failures)")
    job_s = fastest_job_s(graphs) + fastest_job_s(texts)
    e2e = {
        "setup_s": ctx.ray_init_s + warmup_s,
        "job_s": job_s,
        # both jobs read the same corpus documents; two or three graph
        # samples per run are too few for a graph-only rate to be steady
        "pages_per_s": prep["pages"] / job_s,
        "driver_peak_rss_mb": max(j["rss_mb"] for j in jobs),
        "disk_bytes_per_page": statistics.median(j["disk"] / prep["pages"] for j in graphs),
    }
    mg = sorted(graphs, key=lambda j: j["s"])[(len(graphs) - 1) // 2]
    mt = sorted(texts, key=lambda j: j["s"])[(len(texts) - 1) // 2]
    layers = {"analytics.warmup_s": warmup_s}
    for stage in GRAPH_STAGES:
        layers[f"graph.{stage}_s"] = mg["stage_s"][stage]
        layers[f"graph.{stage}_rows"] = mg["rows"].get(stage, 0)
    layers["graph.host_pagerank_s_per_iter"] = mg["stage_s"]["host_pagerank"] / PAGERANK_ITERS
    layers["graph.job_s"] = mg["s"]
    layers["graph.job_cpu_s"] = mg["cpu_s"]
    layers["graph.remainder_s"] = mg["s"] - sum(mg["stage_s"].values())
    layers["textdata.documents_scan_s"] = mt["stage_s"]["documents_scan"]
    for op in TEXT_OPS:
        layers[f"textdata.{op}_s"] = mt["stage_s"][op]
        layers[f"textdata.{op}_rows"] = mt["rows"].get(op, 0)
    layers["textdata.job_s"] = mt["s"]
    layers["textdata.job_cpu_s"] = mt["cpu_s"]
    layers["textdata.remainder_s"] = mt["s"] - sum(mt["stage_s"].values())
    return {"e2e": e2e, "layers": layers,
            "attempted": sum(j["attempted"] for j in jobs),
            "failed": sum(j["failed"] for j in jobs),
            "correct": all(j["ok"] for j in jobs), "reps": len(jobs)}
