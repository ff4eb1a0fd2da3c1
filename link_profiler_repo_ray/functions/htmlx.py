"""HTML kernels: text extraction (M5), and one page pass for links (M2)
and the SEO parse (M4/M8).

Pure functions over batches of HTML strings, designed to run inside a
batch map or a fetch actor.  No bs4/lxml dependency — a compiled-regex
tokenizer reproduces the reference semantics for the HTML shapes this
engine processes (and for the golden fixtures ported from the
reference's tests/link_extractor_test.py).

- ``extract_text`` must be BYTE-IDENTICAL per url to the reference's
  cleaner (Link_Profiler/utils/content_validator.py:87-101): remove
  <script>/<style> elements (dotall, case-insensitive, backreferenced
  closing tag), strip all tags, decode HTML entities, collapse all
  whitespace runs to single spaces, strip.  This is the per-row
  invariant named in BASELINE.json.
- ``parse_batch`` is the one pass over a batch of pages: each tag
  pattern scans a page once and feeds both the edge rows (returned as
  flat columns with a page index) and the SEO fields, and each href
  is resolved once (``canonical.resolve``, with fast paths for plain
  absolute http(s) hrefs, plain root-relative paths and non-web
  schemes).  Its docstring carries the link and SEO semantics.  The
  crawl's fetch actors and the link/SEO stages call it;
  ``edges_table`` turns its edges into a ``schemas.EDGES`` table.
- ``extract_links`` and ``parse_seo`` are one-page views of it.
"""

from __future__ import annotations

import html as _html
import json
import re
from typing import NamedTuple

import numpy as np
import pyarrow as pa

from .. import schemas
from .canonical import base_context, resolve

__all__ = [
    "extract_text",
    "extract_text_batch",
    "parse_batch",
    "edges_table",
    "extract_links",
    "parse_seo",
    "seo_score",
    "LINK_TYPE_PRECEDENCE",
]

# --- M5: text extraction -------------------------------------------------

_SCRIPT_STYLE_RE = re.compile(r"<(script|style)[^>]*>.*?</\1>", re.IGNORECASE | re.DOTALL)
_TAG_RE = re.compile(r"<[^>]+>")


def extract_text(html_content: str) -> str:
    """Strip script/style + tags, unescape entities, collapse whitespace.

    The collapse is ``" ".join(s.split())``: ``str.split()`` cuts at the
    characters ``\\s`` matches in a str pattern, so it equals
    ``re.sub(r"\\s+", " ", s).strip()`` at a third of the cost."""
    s = _SCRIPT_STYLE_RE.sub("", html_content)
    s = _TAG_RE.sub("", s)
    return " ".join(_html.unescape(s).split())


def extract_text_batch(htmls) -> list:
    """Batch entrypoint; accepts str or utf-8 bytes values."""
    out = []
    for h in htmls:
        if isinstance(h, (bytes, bytearray, memoryview)):
            h = bytes(h).decode("utf-8", errors="replace")
        out.append(extract_text(h))
    return out


# --- M2 + M4/M8: the page pass -------------------------------------------

_A_RE = re.compile(r"<a\b([^>]*)>(.*?)</a\s*>", re.IGNORECASE | re.DOTALL)
_LINK_TAG_RE = re.compile(r"<link\b[^>]*>", re.IGNORECASE)
_ATTR_RE = re.compile(r"""([a-zA-Z_:][-a-zA-Z0-9_:.]*)\s*=\s*("[^"]*"|'[^']*'|[^\s>]+)""")
_TITLE_RE = re.compile(r"<title[^>]*>(.*?)</title\s*>", re.IGNORECASE | re.DOTALL)
_META_RE = re.compile(r"<meta\b[^>]*>", re.IGNORECASE)
_H1_RE = re.compile(r"<h1\b", re.IGNORECASE)
_H2_RE = re.compile(r"<h2\b", re.IGNORECASE)
_IMG_RE = re.compile(r"<img\b[^>]*>", re.IGNORECASE)
_JSONLD_RE = re.compile(
    r"<script\b[^>]*type\s*=\s*[\"']application/ld\+json[\"'][^>]*>(.*?)</script\s*>",
    re.IGNORECASE | re.DOTALL,
)

LINK_TYPE_PRECEDENCE = ("sponsored", "ugc", "nofollow", "canonical", "redirect")

# the flat edge columns of ``parse_batch``; "page" indexes the batch
EDGE_COLUMNS = (
    "page", "target_url", "target_host", "anchor_text", "link_type", "rel_attributes", "context_text"
)


# the common attribute strings of <a> and <meta> tags, read without
# ``_attrs``: when one of these matches a tag's whole attribute string,
# ``_attrs`` would return exactly its groups (no other name=value pair
# can hide in the whitespace between them)
_HREF_REL_RE = re.compile(r'\s+href="([^"]*)"(?:\s+rel="([^"]*)")?\s*')
_NAME_CONTENT_RE = re.compile(r'\s+name="([^"]*)"\s+content="([^"]*)"\s*/?\s*>')


def _attrs(attr_str: str) -> dict:
    """Attribute name (lowercased) -> value, the last one winning.  A
    value that starts and ends with the same quote is a quoted one: an
    unquoted value can start with a quote only when no closing quote
    follows it, so it is then one character long or ends otherwise."""
    return {
        name.lower(): (v[1:-1] if len(v) > 1 and v[0] == v[-1] and v[0] in "\"'" else v)
        for name, v in _ATTR_RE.findall(attr_str)
    }


def _inner_text(fragment: str) -> str:
    """Tag text the way get_text(strip=True)-ish reads it for flat markup."""
    s = _TAG_RE.sub("", fragment) if "<" in fragment else fragment
    return " ".join(_html.unescape(s).split())


def _link_type(rel_attributes) -> str:
    for t in LINK_TYPE_PRECEDENCE:
        if t in rel_attributes:
            return t
    return "dofollow"


def _rel(rel_raw, cache: dict) -> tuple:
    """(rel attribute list, link type) of a raw rel value, once per
    distinct value in a batch."""
    hit = cache.get(rel_raw)
    if hit is None:
        rels = [r for r in rel_raw.split(" ") if r.strip()] if rel_raw else []
        hit = cache[rel_raw] = (rels, _link_type(rels))
    return hit


def _context_text(html_content: str, start: int, end: int, anchor_text: str, max_length: int = 100) -> str:
    """Prev-sibling text + anchor + next-sibling text, truncated.

    Sibling text is approximated as the raw text run between the anchor
    tag and the adjacent tag boundary — equivalent to the reference's
    BeautifulSoup sibling walk for flat (non-nested-sibling) markup,
    which is the corpus this engine generates and the fixtures test.
    """
    prev_stop = html_content.rfind(">", 0, start)
    prev_txt = html_content[prev_stop + 1 : start].strip() if prev_stop != -1 else html_content[:start].strip()
    next_start = html_content.find("<", end)
    next_txt = html_content[end:next_start].strip() if next_start != -1 else html_content[end:].strip()
    context = ""
    if prev_txt:
        context += prev_txt + " "
    context += anchor_text
    if next_txt:
        context += " " + next_txt
    return context.strip()[:max_length]


class ParsedBatch(NamedTuple):
    """What ``parse_batch`` returns: per page its host (``host_of`` the
    url) and SEO dict (None where not parsed), and the batch's edges as
    flat columns keyed by ``EDGE_COLUMNS``, in page then document order."""

    hosts: list
    seo: list
    edges: dict


def parse_batch(urls, htmls, ok=None, seo: str | None = None, edges: bool = True) -> ParsedBatch:
    """The one pass over a batch of pages (str html).

    Each tag pattern scans a page once, and that scan feeds both the
    edges and the SEO fields; each href is resolved once
    (``canonical.resolve``), its join serving the edge target and the
    SEO internal/external count alike.  Only pages whose ``ok`` entry
    is true are parsed (all when ``ok`` is None).

    Edges (``edges=True``) follow Link_Profiler/crawlers/link_extractor.py:23-132:
    every <a href> yields one edge with anchor_text (tag text,
    stripped), rel attribute list split on spaces, link_type by the
    precedence sponsored > ugc > nofollow > canonical > redirect >
    dofollow (link_extractor.py:94-109), context_text = previous-sibling
    text + anchor text + next-sibling text truncated to 100 chars
    (link_extractor.py:111-132); plus one pseudo-edge for the first
    <link rel="canonical"> with anchor_text="canonical"
    (link_extractor.py:59-73).  Targets are resolved and canonicalized;
    mailto:/tel:/javascript: and other non-web hrefs are dropped
    (link_extractor.py:84-88).  ``target_host`` is the host of the
    canonical target.

    SEO follows Link_Profiler/crawlers/content_parser.py:21-129 and the
    score formula of Link_Profiler/core/models.py:191-242:
    ``seo="full"`` gives ``parse_seo``'s wide dict, ``seo="score"`` only
    ``seo_score`` and its inputs (title and meta description lengths,
    h1 count, canonical/robots/schema flags), skipping the joins of
    non-web hrefs, the h2/img scans and the JSON-LD parse.
    """
    hosts, seo_rows, rows = [], [], []
    out = rows.append if edges else None
    rel_cache: dict = {}
    for i, (url, html) in enumerate(zip(urls, htmls)):
        ctx = base_context(url)
        hosts.append(ctx[3])
        if ok is not None and not ok[i]:
            seo_rows.append(None)
            continue
        seo_rows.append(_page(i, ctx, html, seo, out, rel_cache))
    cols = map(list, zip(*rows)) if rows else ([] for _ in EDGE_COLUMNS)
    return ParsedBatch(hosts, seo_rows, dict(zip(EDGE_COLUMNS, cols)))


def _page(i: int, ctx: tuple, html: str, seo, out, rel_cache: dict):
    """Page ``i`` of ``parse_batch``: passes each of its edges, an
    ``EDGE_COLUMNS`` tuple, to ``out`` (when given) and returns its SEO
    dict (None when ``seo`` is None)."""
    full = seo == "full"
    internal = external = 0
    base_netloc = ctx[3]
    for m in _A_RE.finditer(html):
        plain = _HREF_REL_RE.fullmatch(m.group(1))
        if plain is not None:
            href, rel = plain.groups()
        else:
            attrs = _attrs(m.group(1))
            href, rel = attrs.get("href"), attrs.get("rel")
        if href is None:
            continue
        target, host, netloc = resolve(ctx, href.strip(), full)
        if full and netloc is not None:
            # content_parser.py:49-59 counts via the raw join (no
            # scheme filtering): an ftp:// link is external
            if netloc == base_netloc:
                internal += 1
            elif netloc:
                external += 1
        if target is not None and out is not None:
            anchor_text = _inner_text(m.group(2))
            rels, link_type = _rel(rel, rel_cache)
            out((i, target, host, anchor_text, link_type, rels,
                 _context_text(html, m.start(), m.end(), anchor_text)))

    has_canonical = False
    for m in _LINK_TAG_RE.finditer(html):
        attrs = _attrs(m.group(0)[5:])
        if attrs.get("rel", "").strip().lower() == "canonical" and attrs.get("href"):
            has_canonical = True
            if out is not None:
                target, host, _ = resolve(ctx, attrs["href"].strip())
                if target is not None:
                    out((i, target, host, "canonical", "canonical", _CANONICAL_REL, ""))
            break  # reference takes only the first canonical link tag

    if seo is None:
        return None
    return _seo(html, full, has_canonical, internal, external)


_CANONICAL_REL = ["canonical"]


def _seo(html: str, full: bool, has_canonical: bool, internal: int, external: int) -> dict:
    out: dict = {
        "title_length": None,
        "meta_description_length": None,
        "h1_count": 0,
        "has_canonical": has_canonical,
        "has_robots_meta": False,
        "has_schema_markup": False,
    }
    if full:
        out.update(
            h2_count=len(_H2_RE.findall(html)),
            internal_links=internal,
            external_links=external,
            images_count=0,
            images_without_alt=0,
            structured_data_types=[],
            og_title=None,
            og_description=None,
            twitter_title=None,
            twitter_description=None,
            mobile_friendly=False,
        )
    m = _TITLE_RE.search(html)
    if m and m.group(1):
        out["title_length"] = len(m.group(1).strip())

    for m in _META_RE.finditer(html):
        plain = _NAME_CONTENT_RE.fullmatch(m.group(0), 5)
        a = {"name": plain.group(1), "content": plain.group(2)} if plain else _attrs(m.group(0)[5:])
        name = (a.get("name") or "").lower()
        content = a.get("content")
        if name == "description" and content:
            out["meta_description_length"] = len(content.strip())
        elif name == "robots":
            out["has_robots_meta"] = True
        if not full:
            continue
        prop = (a.get("property") or "").lower()
        if name == "viewport":
            out["mobile_friendly"] = bool(content and "width=device-width" in content)
        elif name == "twitter:title" and content:
            out["twitter_title"] = content.strip()
        elif name == "twitter:description" and content:
            out["twitter_description"] = content.strip()
        if prop == "og:title" and content:
            out["og_title"] = content.strip()
        elif prop == "og:description" and content:
            out["og_description"] = content.strip()

    out["h1_count"] = len(_H1_RE.findall(html))

    if not full:
        out["has_schema_markup"] = _JSONLD_RE.search(html) is not None
        out["seo_score"] = seo_score(out)
        return out

    for m in _IMG_RE.finditer(html):
        out["images_count"] += 1
        if not _attrs(m.group(0)[4:]).get("alt"):
            out["images_without_alt"] += 1

    sd_types: set[str] = set()
    for m in _JSONLD_RE.finditer(html):
        out["has_schema_markup"] = True
        try:
            payload = json.loads(m.group(1))
        except json.JSONDecodeError:
            continue
        items = payload if isinstance(payload, list) else [payload]
        for item in items:
            if isinstance(item, dict) and "@type" in item:
                t = item["@type"]
                sd_types.update(t if isinstance(t, list) else [t])
    out["structured_data_types"] = sorted(sd_types)
    out["seo_score"] = seo_score(out)
    return out


def edges_table(parsed: ParsedBatch, urls, crawl_ts: pa.Array) -> pa.Table:
    """``parse_batch``'s edges as a ``schemas.EDGES`` table: the source
    url, host and ``crawl_ts`` are the page's, taken by page index."""
    e = parsed.edges
    page = pa.array(e["page"], pa.int32())
    rels = e["rel_attributes"]
    offsets = np.zeros(len(rels) + 1, dtype=np.int32)
    offsets[1:] = np.cumsum(np.fromiter(map(len, rels), np.int32, len(rels)))
    flat = [r for rs in rels for r in rs]
    return pa.table(
        {
            "source_url": pa.array(urls, pa.string()).take(page),
            "target_url": pa.array(e["target_url"], pa.string()),
            "source_host": pa.array(parsed.hosts, pa.string()).take(page),
            "target_host": pa.array(e["target_host"], pa.string()),
            "anchor_text": pa.array(e["anchor_text"], pa.string()),
            "link_type": pa.array(e["link_type"], pa.string()),
            "rel_attributes": pa.ListArray.from_arrays(
                pa.array(offsets), pa.array(flat, pa.string())
            ),
            "context_text": pa.array(e["context_text"], pa.string()),
            "crawl_ts": crawl_ts.take(page),
        },
        schema=schemas.EDGES,
    )


def extract_links(base_url: str, html_content: str) -> list[dict]:
    """All <a href> edges plus the first <link rel=canonical> pseudo-edge
    of one page (``parse_batch``'s edges).

    Returns a list of dicts with keys: target_url, anchor_text,
    link_type, rel_attributes, context_text.
    """
    e = parse_batch([base_url], [html_content]).edges
    return [
        {
            "target_url": t,
            "anchor_text": a,
            "link_type": lt,
            "rel_attributes": list(r),
            "context_text": c,
        }
        for t, a, lt, r, c in zip(
            e["target_url"], e["anchor_text"], e["link_type"], e["rel_attributes"], e["context_text"]
        )
    ]


def parse_seo(url: str, html_content: str) -> dict:
    """Wide nullable SEO-metrics struct for one page (content_parser.py:21-129),
    ``parse_batch``'s ``seo="full"`` dict."""
    return parse_batch([url], [html_content], seo="full", edges=False).seo[0]


def seo_score(m: dict) -> float:
    """Weighted SEO score 0-100 (core/models.py:191-242).

    performance/accessibility/ai scores and broken-links are unknown at
    parse time (None/absent), matching the reference's parse-time path.
    """
    weights_abs_sum = 0.3 + 0.2 + 0.1 + 0.1 + 0.05 + 0.05 + 0.05 + 0.05 + 0.1 + 0.1
    score = 0.0
    tl = m.get("title_length")
    if tl is not None:
        if 30 <= tl <= 60:
            score += 0.1
        elif tl > 0:
            score += 0.05
    ml = m.get("meta_description_length")
    if ml is not None:
        if 50 <= ml <= 160:
            score += 0.1
        elif ml > 0:
            score += 0.05
    h1 = m.get("h1_count")
    if h1 is not None:
        if h1 == 1:
            score += 0.05
        elif h1 > 1:
            score += 0.025
    if m.get("has_canonical"):
        score += 0.05
    if m.get("has_robots_meta"):
        score += 0.05
    if m.get("has_schema_markup"):
        score += 0.05
    return max(0.0, min(100.0, score * 100.0 / weights_abs_sum))
