"""Seeded, cached benchmark inputs.

Everything here is built once per checkout under the work directory
and kept out of every timing:

- a synthetic ``documents`` table (fixed generator seed, so the page
  corpus derived from it by ``sources.corpus`` is built once and shared
  by every ``--seed``);
- the page corpus itself (``sources.corpus.corpus_dir``);
- per-seed inputs: the crawl seed list (a seeded sample of corpus URLs
  with seeded priorities) and the scaled documents table (per-replica
  seeded letter permutation);
- per-seed crawl oracles (``oracle_crawl``), stored as digests.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import pyarrow as pa
import pyarrow.parquet as pq

# the vocabulary of the project's own documents fixtures
VOCAB = (
    "spark window merge table column vector stream value data small join filter big "
    "group hash customer sort order slow line part fast row the agg key query a scan batch"
).split()
LANGS = ("en", "en", "en", "zh", "es", "fr", "de")
DOCS_GEN_SEED = 20240301  # fixed: the corpus is seed-independent, built once
INPUTS_VERSION = 1  # bump to invalidate cached inputs


def _atomic_write_table(table: pa.Table, path: str) -> None:
    tmp = path + ".tmp"
    pq.write_table(table, tmp)
    os.replace(tmp, path)


def _atomic_write_json(obj, path: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(obj, fh)
    os.replace(tmp, path)


def documents_table(n_docs: int, gen_seed: int = DOCS_GEN_SEED) -> pa.Table:
    """``documents`` rows shaped like the project's fixtures: bare
    space-separated words, ~5% carrying a ``dup`` marker and ~0.2%
    exact duplicates of an earlier document."""
    rng = random.Random(gen_seed)
    texts: list[str] = []
    for d in range(n_docs):
        if d > 10 and rng.random() < 0.002:
            texts.append(texts[rng.randrange(d)])
            continue
        words = [rng.choice(VOCAB) for _ in range(rng.randint(10, 100))]
        if rng.random() < 0.05:
            words.append("dup")
        texts.append(" ".join(words))
    return pa.table(
        {
            "doc_id": pa.array(range(n_docs), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array([LANGS[rng.randrange(len(LANGS))] for _ in range(n_docs)]),
            "source": pa.array([f"src{d // 250}" for d in range(n_docs)]),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )


def documents_dir(work: str, n_docs: int) -> str:
    """A directory holding ``documents.parquet`` (an "sf dir" for the
    program's ``sf_dir`` arguments)."""
    d = os.path.join(work, f"docs-v{INPUTS_VERSION}-n{n_docs}")
    path = os.path.join(d, "documents.parquet")
    if not os.path.exists(path):
        os.makedirs(d, exist_ok=True)
        _atomic_write_table(documents_table(n_docs), path)
    return d


def build_shared(work: str, sizes) -> None:
    """The seed-independent inputs of every workload (documents and the
    page corpora), so that only a checkout's first run builds them."""
    from link_profiler_repo_ray.sources import corpus

    sf = documents_dir(work, sizes.base_docs)
    for mult in sorted({1, sizes.graph_mult}):
        corpus.corpus_dir(sf, mult)


def warm_files(directory: str) -> None:
    """Read every file under ``directory`` once (page-cache warm-up)."""
    for root, _, files in os.walk(directory):
        for f in sorted(files):
            with open(os.path.join(root, f), "rb") as fh:
                while fh.read(1 << 22):
                    pass


def crawl_seed_rows(n_docs: int, seed: int, n_seeds: int) -> list[dict]:
    """The crawl seed list: ``n_seeds`` distinct corpus URLs drawn with
    ``seed``, ~1 in 4 at HIGH priority, plus the corpus's two dangling
    URLs (fetch misses)."""
    from link_profiler_repo_ray import schemas
    from link_profiler_repo_ray.sources import corpus

    rng = random.Random(seed * 7919 + 17)
    rows = [
        {
            "url": corpus.url_of(d, n_docs),
            "priority": schemas.PRIORITY_HIGH if rng.random() < 0.25 else schemas.PRIORITY_MEDIUM,
        }
        for d in sorted(rng.sample(range(n_docs), n_seeds))
    ]
    rows += [{"url": u, "priority": schemas.PRIORITY_MEDIUM} for u in corpus.DANGLING_SEEDS]
    return rows


def scaled_documents_dir(work: str, base_dir: str, mult: int, seed: int) -> str:
    """``mult`` replicas of the base documents; replica k > 0 maps every
    lowercase letter through a permutation drawn from ``(seed, k)`` and
    offsets doc_id by k·N — distinct content, same per-doc token
    structure, no cross-replica duplicates."""
    d = os.path.join(work, f"scaled-v{INPUTS_VERSION}-{os.path.basename(base_dir)}-x{mult}-s{seed}")
    path = os.path.join(d, "documents.parquet")
    if os.path.exists(path):
        return d
    t = pq.read_table(os.path.join(base_dir, "documents.parquet"))
    n = t.num_rows
    lower = "abcdefghijklmnopqrstuvwxyz"
    texts = t.column("text").to_pylist()
    parts = [t]
    for k in range(1, mult):
        rng = random.Random(seed * 1_000_003 + k)
        perm = list(lower)
        while "".join(perm) == lower:
            rng.shuffle(perm)
        table = str.maketrans(lower, "".join(perm))
        cols = {c: t.column(c) for c in t.schema.names}
        cols["doc_id"] = pa.array([k * n + i for i in range(n)], pa.int64())
        cols["text"] = pa.array([s.translate(table) for s in texts], pa.string())
        parts.append(pa.table(cols))
    os.makedirs(d, exist_ok=True)
    _atomic_write_table(pa.concat_tables(parts), path)
    return d


def digest_lines(items) -> str:
    """Order-sensitive digest of an iterable of strings."""
    h = hashlib.sha256()
    for s in items:
        h.update(s.encode())
        h.update(b"\n")
    return h.hexdigest()


def crawl_oracle(work: str, key: str, sf_dir: str, cfg, multiplier: int) -> dict:
    """``oracle_crawl`` under ``cfg``, cached per ``key`` as digests:
    the (url, depth) order and the sorted seen set."""
    path = os.path.join(work, "oracles", f"{key}.json")
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    from link_profiler_repo_ray.pipelines.crawl import oracle_crawl

    ora = oracle_crawl(sf_dir, cfg, multiplier)
    out = {
        "pages": len(ora["order"]),
        "order_digest": digest_lines(f"{u}\t{d}" for u, d in ora["order"]),
        "seen": len(ora["seen"]),
        "seen_digest": digest_lines(sorted(ora["seen"])),
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    _atomic_write_json(out, path)
    return out
