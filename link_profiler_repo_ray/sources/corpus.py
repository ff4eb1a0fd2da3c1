"""Deterministic synthetic Common-Crawl-style page corpus.

BASELINE.json's input hint mandates a Parquet table
``(url:string, warc_ts:timestamp, html:binary, text:string, lang:string)``.
No such table exists in /root/testdata, so this module synthesizes one
*deterministically* from the ``documents`` table of a given sf dir —
every structural fact (hosts, out-links, rel attributes, canonical
tags, seeds, robots rules) is a closed-form function of ``doc_id``, so
a DuckDB SQL oracle can recompute the expected output of link
extraction / profile aggregation / BFS crawl from ``documents`` alone.

Structure (N = number of documents, H = max(5, N // 50) hosts):
- host(d)   = 0 if d % 37 == 0 else d % H       (host 0 is the hub → skew)
- url(d)    = https://h{host(d)}.example.com/doc/{d}
- warc_ts   = 2024-03-01T00:00:00 + 97*d minutes
- out-degree K(d) = 2 + d % 4,  targets t(d,j) = (31*d + 17*j + 7) % N
- rel variant v(d,j) = (d+j) % 6 →
    ['', 'nofollow', 'sponsored', 'ugc', 'nofollow sponsored', 'ugc nofollow']
  → link_type [dofollow, nofollow, sponsored, ugc, sponsored, ugc]
  (precedence per link_extractor.py:94-109)
- href form c(d,j) = (d+3j) % 4: canonical absolute / percent-encoded +
  utm params + fragment / relative (same-host only) / uppercase
  scheme+host — all canonicalize back to url(t)
- every page also carries mailto:/javascript:/tel: links (dropped by
  extraction, link_extractor.py:84-88)
- pages with d % 10 == 0 carry <link rel="canonical" href=self>
- seeds: urls of d % 17 == 0 (priority HIGH if d % 34 == 0 else MEDIUM)
  plus two dangling URLs that resolve to fetch misses
- robots: host_id % 7 == 3 → "Disallow: /doc/";  host_id % 5 == 4 →
  "Crawl-delay: 2";  else allow-all.  Missing host → allow-all
  (robots_parser.py:74-76 semantics).

The generated corpus is cached as partitioned Parquet under
/tmp/lpr_corpus/ (one file per doc-range shard → parallel reads and
resumable regeneration).
"""

from __future__ import annotations

import hashlib
import json
import os
from datetime import datetime, timedelta

import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.htmlx import extract_text
from .. import schemas

CACHE_ROOT = os.environ.get("LPR_CORPUS_CACHE", "/tmp/lpr_corpus")
_GEN_VERSION = 5  # bump to invalidate cached corpora
_TS0 = datetime(2024, 3, 1)
ROWS_PER_FILE = 20_000

_REL_VARIANTS = ("", "nofollow", "sponsored", "ugc", "nofollow sponsored", "ugc nofollow")
REL_LINK_TYPES = ("dofollow", "nofollow", "sponsored", "ugc", "sponsored", "ugc")

DANGLING_SEEDS = (
    "https://h0.example.com/doc/999999999",
    "https://unknown.example.org/",
)


def n_hosts(n_docs: int) -> int:
    return max(5, n_docs // 50)


def host_id(d: int, n_docs: int) -> int:
    return 0 if d % 37 == 0 else d % n_hosts(n_docs)


def host_name(hid: int) -> str:
    return f"h{hid}.example.com"


def url_of(d: int, n_docs: int) -> str:
    return f"https://{host_name(host_id(d, n_docs))}/doc/{d}"


def out_degree(d: int) -> int:
    return 2 + d % 4


def target_of(d: int, j: int, n_docs: int) -> int:
    return (31 * d + 17 * j + 7) % n_docs


def warc_ts_of(d: int) -> datetime:
    return _TS0 + timedelta(minutes=97 * d)


def expected_links(d: int, n_docs: int) -> list[dict]:
    """Ground-truth edge rows of page ``d`` (mirrors the generated HTML)."""
    out = []
    for j in range(out_degree(d)):
        t = target_of(d, j, n_docs)
        v = (d + j) % 6
        out.append(
            {
                "target_url": url_of(t, n_docs),
                "anchor_text": f"link {t}",
                "link_type": REL_LINK_TYPES[v],
            }
        )
    if d % 10 == 0:
        out.append(
            {"target_url": url_of(d, n_docs), "anchor_text": "canonical", "link_type": "canonical"}
        )
    return out


def _href(d: int, j: int, t: int, n_docs: int) -> str:
    ht = host_id(t, n_docs)
    c = (d + 3 * j) % 4
    if c == 1:
        return f"https://{host_name(ht)}/%64oc/{t}?utm_source=feed&utm_medium=rss#top"
    if c == 2 and ht == host_id(d, n_docs):
        return f"/doc/{t}"
    if c == 3:
        return f"HTTPS://H{ht}.EXAMPLE.COM/doc/{t}"
    return url_of(t, n_docs)


def page_html(d: int, text: str, n_docs: int) -> str:
    h = host_id(d, n_docs)
    head = [f"<title>Doc {d} on h{h}</title>"]
    head.append(
        f'<meta name="description" content="Synthetic page {d} hosted on {host_name(h)} for testing">'
    )
    if d % 10 == 0:
        head.append(f'<link rel="canonical" href="{url_of(d, n_docs)}">')
    if d % 3 == 0:
        head.append('<meta name="viewport" content="width=device-width, initial-scale=1">')
    if d % 7 == 0:
        head.append('<script type="application/ld+json">{"@type": "Article"}</script>')
    head.append("<style>body { color: #333; }</style>")

    body = [f"<h1>Doc {d}</h1>"]
    body.append('<script>var trap = "<b>&amp; nested</b>";</script>')
    body.append(f"<p>{text}</p>")
    for j in range(out_degree(d)):
        t = target_of(d, j, n_docs)
        v = (d + j) % 6
        rel = f' rel="{_REL_VARIANTS[v]}"' if _REL_VARIANTS[v] else ""
        body.append(f'<p>see <a href="{_href(d, j, t, n_docs)}"{rel}>link {t}</a> after.</p>')
    body.append("<h2>About</h2>")
    body.append(
        f'<p>Contact <a href="mailto:admin@{host_name(h)}">admin</a> or '
        '<a href="javascript:void(0)">script</a> or <a href="tel:+15551234">call</a>.</p>'
    )
    return (
        "<html><head>" + "\n".join(head) + "</head>\n<body>\n" + "\n".join(body) + "\n</body></html>"
    )


def _read_documents(sf_dir: str):
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text", "lang"])
    t = t.sort_by("doc_id")
    return t


def _write_shard(out_dir: str, start: int, stop: int, texts, langs, base_n: int, n_docs: int) -> str:
    part = os.path.join(out_dir, f"pages_{start:09d}.parquet")
    if os.path.exists(part):
        return os.path.basename(part)
    urls, tss, htmls, txts, lgs = [], [], [], [], []
    for d in range(start, stop):
        html = page_html(d, texts[d % base_n], n_docs)
        urls.append(url_of(d, n_docs))
        tss.append(warc_ts_of(d))
        htmls.append(html.encode("utf-8"))
        txts.append(extract_text(html))
        lgs.append(langs[d % base_n])
    table = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(tss, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(txts, pa.large_string()),
            "lang": pa.array(lgs, pa.string()),
        },
        schema=schemas.PAGES,
    )
    tmp = part + ".tmp"
    # small row groups let read_parquet split one file into several
    # read tasks — with one row group per 20k-row file, a 25-file
    # corpus capped scan parallelism at 25 tasks (starving 32 cores)
    pq.write_table(table, tmp, row_group_size=4096)
    os.replace(tmp, part)  # atomic per shard → resumable generation
    return os.path.basename(part)


def corpus_dir(sf_dir: str, multiplier: int = 1) -> str:
    """Generate (or reuse cached) pages Parquet; returns the directory.

    ``multiplier`` > 1 synthesizes a corpus of multiplier*N docs reusing
    document texts cyclically — used by bench.py to scale the workload;
    SQL oracles only apply at multiplier == 1.  Generation writes one
    atomic Parquet shard per doc range (resumable) and fans out as Ray
    tasks when a session is live.
    """
    docs = _read_documents(sf_dir)
    base_n = docs.num_rows
    n_docs = base_n * multiplier
    key = hashlib.md5(
        f"{os.path.abspath(sf_dir)}|{base_n}|{multiplier}|{_GEN_VERSION}".encode()
    ).hexdigest()[:16]
    out_dir = os.path.join(CACHE_ROOT, key)
    done = os.path.join(out_dir, "_MANIFEST.json")
    if os.path.exists(done):
        return out_dir
    os.makedirs(out_dir, exist_ok=True)

    texts = docs.column("text").to_pylist()
    langs = docs.column("lang").to_pylist()
    # no documents: one empty shard, so the corpus still has its schema
    ranges = [
        (start, min(start + ROWS_PER_FILE, n_docs)) for start in range(0, n_docs, ROWS_PER_FILE)
    ] or [(0, 0)]

    use_ray = False
    if len(ranges) > 1:
        try:
            import ray

            use_ray = ray.is_initialized()
        except ImportError:
            pass

    if use_ray:
        import ray

        texts_ref = ray.put(texts)
        langs_ref = ray.put(langs)
        shard_task = ray.remote(num_cpus=1)(_write_shard)
        files = ray.get(
            [
                shard_task.remote(out_dir, a, b, texts_ref, langs_ref, base_n, n_docs)
                for a, b in ranges
            ]
        )
    else:
        files = [_write_shard(out_dir, a, b, texts, langs, base_n, n_docs) for a, b in ranges]

    with open(done + ".tmp", "w") as f:
        json.dump({"n_docs": n_docs, "base_n": base_n, "files": files}, f)
    os.replace(done + ".tmp", done)
    return out_dir


def corpus_n_docs(sf_dir: str, multiplier: int = 1) -> int:
    return _read_documents(sf_dir).num_rows * multiplier


def seed_rows(n_docs: int) -> list[dict]:
    rows = [
        {
            "url": url_of(d, n_docs),
            "priority": schemas.PRIORITY_HIGH if d % 34 == 0 else schemas.PRIORITY_MEDIUM,
        }
        for d in range(0, n_docs, 17)
    ]
    rows += [{"url": u, "priority": schemas.PRIORITY_MEDIUM} for u in DANGLING_SEEDS]
    return rows


def robots_txt(hid: int) -> str:
    if hid % 7 == 3:
        return "User-agent: *\nDisallow: /doc/\n"
    if hid % 5 == 4:
        return "User-agent: *\nCrawl-delay: 2\nAllow: /\n"
    return "User-agent: *\nAllow: /\n"


def robots_map(n_docs: int) -> dict[str, str]:
    return {host_name(h): robots_txt(h) for h in range(n_hosts(n_docs))}


# --- SQL oracle building blocks -----------------------------------------

def hosts_cte() -> str:
    """CTE fragment: per-doc host id + url, mirrors host_id()/url_of()."""
    return """
params AS (
  SELECT count(*)::BIGINT AS n, GREATEST(5, count(*) // 50)::BIGINT AS h FROM documents
),""" + hosts_cte_body()


def hosts_cte_body() -> str:
    """``hosts_cte`` minus the ``params`` CTE — for composition with
    another fragment that already defines ``params`` (with at least
    ``n`` and ``h`` columns, e.g. ``serpkw.serp_cte``)."""
    return """
dochost AS (
  SELECT doc_id,
         CASE WHEN doc_id % 37 = 0 THEN 0 ELSE doc_id % (SELECT h FROM params) END AS host_id
  FROM documents
),
docurl AS (
  SELECT doc_id, host_id,
         'h' || host_id || '.example.com' AS host,
         'https://h' || host_id || '.example.com/doc/' || doc_id AS url
  FROM dochost
)"""


def edges_cte() -> str:
    """CTE fragment (requires hosts_cte()): ground-truth extracted edges."""
    return """
rawlinks AS (
  SELECT s.doc_id AS sdoc,
         ((31 * s.doc_id + 17 * g.j + 7) % (SELECT n FROM params)) AS tdoc,
         ((s.doc_id + g.j) % 6) AS v
  FROM documents s
  CROSS JOIN generate_series(0, 5) g(j)
  WHERE g.j < 2 + (s.doc_id % 4)
),
edges AS (
  SELECT su.url AS source_url, tu.url AS target_url,
         su.host AS source_host, tu.host AS target_host,
         'link ' || r.tdoc AS anchor_text,
         CASE r.v WHEN 0 THEN 'dofollow' WHEN 1 THEN 'nofollow' WHEN 2 THEN 'sponsored'
                  WHEN 3 THEN 'ugc' WHEN 4 THEN 'sponsored' ELSE 'ugc' END AS link_type,
         r.sdoc AS sdoc, r.tdoc AS tdoc
  FROM rawlinks r
  JOIN docurl su ON su.doc_id = r.sdoc
  JOIN docurl tu ON tu.doc_id = r.tdoc
  UNION ALL
  SELECT url, url, host, host, 'canonical', 'canonical', doc_id, doc_id
  FROM docurl WHERE doc_id % 10 = 0
)"""
