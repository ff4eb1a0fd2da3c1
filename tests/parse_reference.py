"""Per-row references for the batch parse kernels.

These are the per-page functions the crawl's fetch actors and the link,
SEO and quality stages ran before ``htmlx.parse_batch`` and
``quality.quality_table`` replaced them: URL resolution with one
``urljoin`` per href, ``extract_links`` and ``parse_seo`` as two passes
over a page, and the quality struct as Python loops.  The tests hold
the batch kernels to them page by page.
"""

from __future__ import annotations

import hashlib
import html as _html
import json
import re
from urllib.parse import unquote, urljoin, urlsplit, urlunsplit

from link_profiler_repo_ray.functions.htmlx import (
    LINK_TYPE_PRECEDENCE,
    _context_text,
    seo_score,
)

_TAG_RE = re.compile(r"<[^>]+>")
_WS_RE = re.compile(r"\s+")


# --- canonical.py -----------------------------------------------------------

_WEB_SCHEMES = ("http", "https")


def canonicalize(url: str) -> str | None:
    """Canonicalize one absolute URL.  Returns None for non-web URLs."""
    try:
        parts = urlsplit(url)
    except ValueError:
        return None
    scheme = parts.scheme.lower()
    if scheme not in _WEB_SCHEMES:
        return None
    host = parts.netloc.lower()
    if not host:
        return None
    # strip default ports
    if scheme == "http" and host.endswith(":80"):
        host = host[:-3]
    elif scheme == "https" and host.endswith(":443"):
        host = host[:-4]
    path = unquote(parts.path) or "/"
    query = ""
    if parts.query:
        kept = [
            kv
            for kv in parts.query.split("&")
            if kv and not kv.split("=", 1)[0].lower().startswith("utm_")
        ]
        query = "&".join(unquote(kv) for kv in kept)
    return urlunsplit((scheme, host, path, query, ""))


def resolve_batch(base_urls, hrefs) -> list:
    """Resolve hrefs against their page URLs, then canonicalize.

    Mirrors LinkExtractor._resolve_url (link_extractor.py:81-92): any
    explicit non-http(s) scheme is dropped *before* joining.
    """
    out = []
    for base, href in zip(base_urls, hrefs):
        href = href.strip()
        scheme_end = href.find(":")
        if scheme_end > 0 and href[:scheme_end].isalpha():
            scheme = href[:scheme_end].lower()
            if scheme not in _WEB_SCHEMES:
                out.append(None)
                continue
        try:
            joined = urljoin(base, href)
        except ValueError:
            out.append(None)
            continue
        out.append(canonicalize(joined))
    return out


def host_of(url: str) -> str:
    """Lowercased netloc (url_validator.py:28-33)."""
    try:
        return urlsplit(url).netloc.lower()
    except ValueError:
        return ""


# --- htmlx.py: text and links -------------------------------------------------

_SCRIPT_STYLE_RE = re.compile(r"<(script|style)[^>]*>.*?</\1>", re.IGNORECASE | re.DOTALL)


def extract_text(html_content: str) -> str:
    """Strip script/style + tags, unescape entities, collapse whitespace."""
    s = _SCRIPT_STYLE_RE.sub("", html_content)
    s = _TAG_RE.sub("", s)
    s = _html.unescape(s)
    return _WS_RE.sub(" ", s).strip()


_A_RE = re.compile(r"<a\b([^>]*)>(.*?)</a\s*>", re.IGNORECASE | re.DOTALL)
_LINK_TAG_RE = re.compile(r"<link\b[^>]*>", re.IGNORECASE)
_ATTR_RE = re.compile(
    r"""([a-zA-Z_:][-a-zA-Z0-9_:.]*)\s*=\s*("([^"]*)"|'([^']*)'|([^\s>]+))"""
)


def _attrs(attr_str: str) -> dict:
    return {
        m.group(1).lower(): (m.group(3) if m.group(3) is not None else (m.group(4) if m.group(4) is not None else m.group(5)))
        for m in _ATTR_RE.finditer(attr_str)
    }


def _inner_text(fragment: str) -> str:
    """Tag text the way get_text(strip=True)-ish reads it for flat markup."""
    s = _TAG_RE.sub("", fragment)
    s = _html.unescape(s)
    return _WS_RE.sub(" ", s).strip()


def _link_type(rel_attributes) -> str:
    for t in LINK_TYPE_PRECEDENCE:
        if t in rel_attributes:
            return t
    return "dofollow"


def extract_links(base_url: str, html_content: str) -> list[dict]:
    """All <a href> edges plus the first <link rel=canonical> pseudo-edge.

    Returns a list of dicts with keys: target_url, anchor_text,
    link_type, rel_attributes, context_text.  target_url is resolved
    against ``base_url`` and canonicalized; non-web schemes are dropped.
    """
    anchors = []
    hrefs = []
    for m in _A_RE.finditer(html_content):
        attrs = _attrs(m.group(1))
        href = attrs.get("href")
        if href is None:
            continue
        anchors.append((m, attrs))
        hrefs.append(href)

    resolved = resolve_batch([base_url] * len(hrefs), hrefs)
    links: list[dict] = []
    for (m, attrs), target in zip(anchors, resolved):
        if target is None:
            continue
        anchor_text = _inner_text(m.group(2))
        rel_raw = attrs.get("rel")
        rel_attributes = [r for r in rel_raw.split(" ") if r.strip()] if rel_raw else []
        links.append(
            {
                "target_url": target,
                "anchor_text": anchor_text,
                "link_type": _link_type(rel_attributes),
                "rel_attributes": rel_attributes,
                "context_text": _context_text(html_content, m.start(), m.end(), anchor_text),
            }
        )

    for m in _LINK_TAG_RE.finditer(html_content):
        attrs = _attrs(m.group(0)[5:])
        if attrs.get("rel", "").strip().lower() == "canonical" and attrs.get("href"):
            target = resolve_batch([base_url], [attrs["href"].strip()])[0]
            if target is not None:
                links.append(
                    {
                        "target_url": target,
                        "anchor_text": "canonical",
                        "link_type": "canonical",
                        "rel_attributes": ["canonical"],
                        "context_text": "",
                    }
                )
            break  # reference takes only the first canonical link tag
    return links



# --- htmlx.py: SEO ----------------------------------------------------------

_TITLE_RE = re.compile(r"<title[^>]*>(.*?)</title\s*>", re.IGNORECASE | re.DOTALL)
_META_RE = re.compile(r"<meta\b[^>]*>", re.IGNORECASE)
_H1_RE = re.compile(r"<h1\b", re.IGNORECASE)
_H2_RE = re.compile(r"<h2\b", re.IGNORECASE)
_IMG_RE = re.compile(r"<img\b[^>]*>", re.IGNORECASE)
_JSONLD_RE = re.compile(
    r"<script\b[^>]*type\s*=\s*[\"']application/ld\+json[\"'][^>]*>(.*?)</script\s*>",
    re.IGNORECASE | re.DOTALL,
)


def _meta_tags(html_content: str):
    for m in _META_RE.finditer(html_content):
        yield _attrs(m.group(0)[5:])


def parse_seo(url: str, html_content: str) -> dict:
    """Wide nullable SEO-metrics struct for one page (content_parser.py:21-129)."""
    out: dict = {
        "title_length": None,
        "meta_description_length": None,
        "h1_count": 0,
        "h2_count": 0,
        "internal_links": 0,
        "external_links": 0,
        "images_count": 0,
        "images_without_alt": 0,
        "has_canonical": False,
        "has_robots_meta": False,
        "has_schema_markup": False,
        "structured_data_types": [],
        "og_title": None,
        "og_description": None,
        "twitter_title": None,
        "twitter_description": None,
        "mobile_friendly": False,
    }
    m = _TITLE_RE.search(html_content)
    if m and m.group(1):
        out["title_length"] = len(m.group(1).strip())

    metas = list(_meta_tags(html_content))
    for a in metas:
        name = (a.get("name") or "").lower()
        prop = (a.get("property") or "").lower()
        content = a.get("content")
        if name == "description" and content:
            out["meta_description_length"] = len(content.strip())
        elif name == "robots":
            out["has_robots_meta"] = True
        elif name == "viewport":
            out["mobile_friendly"] = bool(content and "width=device-width" in content)
        elif name == "twitter:title" and content:
            out["twitter_title"] = content.strip()
        elif name == "twitter:description" and content:
            out["twitter_description"] = content.strip()
        if prop == "og:title" and content:
            out["og_title"] = content.strip()
        elif prop == "og:description" and content:
            out["og_description"] = content.strip()

    out["h1_count"] = len(_H1_RE.findall(html_content))
    out["h2_count"] = len(_H2_RE.findall(html_content))

    base_host = host_of(url)
    hrefs = []
    for m in _A_RE.finditer(html_content):
        href = _attrs(m.group(1)).get("href")
        if href is not None:
            hrefs.append(href)
    # content_parser.py:49-59 counts via raw urljoin (no scheme filtering)
    for href in hrefs:
        try:
            link_host = urlsplit(urljoin(url, href.strip())).netloc.lower()
        except ValueError:
            continue
        if link_host == base_host:
            out["internal_links"] += 1
        elif link_host:
            out["external_links"] += 1

    for m in _IMG_RE.finditer(html_content):
        out["images_count"] += 1
        if not _attrs(m.group(0)[4:]).get("alt"):
            out["images_without_alt"] += 1

    out["has_canonical"] = any(
        (a.get("rel", "").strip().lower() == "canonical" and a.get("href"))
        for a in (_attrs(t.group(0)[5:]) for t in _LINK_TAG_RE.finditer(html_content))
    )

    sd_types: set[str] = set()
    for m in _JSONLD_RE.finditer(html_content):
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



# --- quality.py ---------------------------------------------------------------

SPAM_KEYWORDS = {
    3: ("buy now", "act fast", "limited time", "click here", "free money"),
    2: ("discount", "sale", "offer", "deal", "bonus"),
    1: ("cheap", "best", "top", "amazing", "incredible"),
}

_SENT_RE = re.compile(r"[.!?]+")
_NON_ALPHA_RE = re.compile(r"[^a-z]")
_VOWELS = frozenset("aeiouy")
_VOWEL_GROUP_RE = re.compile(r"[aeiouy]+")
# every byte except ASCII A-Z, for a C-level uppercase count on ASCII text
_NON_UPPER_BYTES = bytes(b for b in range(256) if not (65 <= b <= 90))


def _syllables(text: str) -> int:
    # per-word logic identical to the reference
    # (content_validator.py:120-150): count vowel groups in the
    # lowercased alpha-only word, silent-e adjustment, floor 1.  The
    # group count is a C-level regex findall instead of a per-char
    # Python loop (same result: runs of consecutive vowels).
    total = 0
    findall = _VOWEL_GROUP_RE.findall
    sub = _NON_ALPHA_RE.sub
    for word in text.lower().split():
        word = sub("", word)
        if not word:
            continue
        n = len(findall(word))
        if n > 1 and word[-1] == "e":
            n -= 1
        total += n if n > 0 else 1
    return total


def readability(text: str) -> float:
    sentences = len(_SENT_RE.findall(text))
    words = len(text.split())
    if sentences == 0 or words == 0:
        return 0.0
    score = 206.835 - 1.015 * (words / sentences) - 84.6 * (_syllables(text) / words)
    return max(0.0, min(100.0, score))


def spam_score(text: str) -> float:
    low = text.lower()
    score = 0.0
    for mult, kws in SPAM_KEYWORDS.items():
        for kw in kws:
            score += low.count(kw) * mult
    n = len(text)
    if n:
        if text.isascii():
            # C-level: delete every non-A-Z byte, count what remains
            # (str.isupper() is true for exactly A-Z within ASCII)
            upper = len(text.encode().translate(None, delete=_NON_UPPER_BYTES))
        else:
            upper = sum(1 for c in text if c.isupper())
        if upper / n > 0.3:
            score += 10
        if (text.count("!") + text.count("?")) / n > 0.05:
            score += 5
    return min(100.0, score)


def duplicate_score(text: str) -> float:
    words = text.split()
    if len(words) < 10:
        return 0.0
    # tuple keys over pre-lowered words: identical distinct-phrase
    # semantics as joined lowercase strings (words cannot contain
    # whitespace), without a join+lower per trigram
    wl = [w.lower() for w in words]
    counts: dict[tuple, int] = {}
    get = counts.get
    for p in zip(wl, wl[1:], wl[2:]):
        counts[p] = get(p, 0) + 1
    total = len(counts)
    if not total:
        return 0.0
    return sum(1 for c in counts.values() if c > 1) / total * 100.0


def quality_metrics(clean_text: str) -> dict:
    """Full quality struct for one already-extracted text."""
    word_count = len(clean_text.split())
    read = readability(clean_text)
    spam = spam_score(clean_text)
    dup = duplicate_score(clean_text)

    if word_count < 50:
        length_score = 0
    elif word_count < 200:
        length_score = 30
    elif word_count < 500:
        length_score = 60
    elif word_count < 1000:
        length_score = 80
    else:
        length_score = 100
    quality = (
        (length_score * 0.4)
        + ((read / 100.0) * 40.0 * 0.6)
        - (spam / 100.0) * 30.0
        - (dup / 100.0) * 20.0
    )
    return {
        "word_count": word_count,
        "readability_score": read,
        "spam_score": spam,
        "duplicate_score": dup,
        "quality_score": max(0.0, min(100.0, quality)),
        "content_hash": hashlib.md5(clean_text.encode()).hexdigest(),
    }


# --- the crawl's pages and edges tables, page by page -----------------------


def crawl_tables(urls, depths, status, tss, htmls, langs):
    """(pages, edges, candidate depths) as the fetch actors built them
    per page: ``quality_metrics`` on every text, ``parse_seo`` and
    ``extract_links`` on every 200 page."""
    import pyarrow as pa

    from link_profiler_repo_ray import schemas

    html_strs = ["" if h is None else bytes(h).decode("utf-8", errors="replace") for h in htmls]
    texts = [extract_text(h) for h in html_strs]
    qual = [quality_metrics(t) for t in texts]
    seo = [parse_seo(u, h) if st == 200 else None for u, h, st in zip(urls, html_strs, status)]
    pages = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(tss, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(texts, pa.large_string()),
            "lang": pa.array(langs, pa.string()),
            "status": pa.array(status, pa.int16()),
            "depth": pa.array(depths, pa.int16()),
            "word_count": pa.array([q["word_count"] for q in qual], pa.int32()),
            "readability_score": pa.array([q["readability_score"] for q in qual], pa.float64()),
            "spam_score": pa.array([q["spam_score"] for q in qual], pa.float64()),
            "quality_score": pa.array([q["quality_score"] for q in qual], pa.float64()),
            "content_hash": pa.array([q["content_hash"] for q in qual], pa.string()),
            "seo_score": pa.array([None if s is None else s["seo_score"] for s in seo], pa.float64()),
            "title_length": pa.array([None if s is None else s["title_length"] for s in seo], pa.int32()),
            "h1_count": pa.array([None if s is None else s["h1_count"] for s in seo], pa.int32()),
        }
    )
    rows, tdepth = [], []
    for u, html, st, ts, dep in zip(urls, html_strs, status, tss, depths):
        if st != 200:
            continue
        for link in extract_links(u, html):
            rows.append(
                {
                    "source_url": u,
                    "target_url": link["target_url"],
                    "source_host": host_of(u),
                    "target_host": host_of(link["target_url"]),
                    "anchor_text": link["anchor_text"],
                    "link_type": link["link_type"],
                    "rel_attributes": link["rel_attributes"],
                    "context_text": link["context_text"],
                    "crawl_ts": ts,
                }
            )
            tdepth.append(dep + 1)
    return pages, pa.Table.from_pylist(rows, schema=schemas.EDGES), tdepth


# --- planted edge cases and the page-by-page comparison ---------------------

PLANTED_BASES = (
    "https://h.example.com/dir/page",
    "http://H.Example.com:80/",
    "https://u:pw@h.example.com:8443/a/b/c",
    "https://h.example.com",
    "ftp://files.example.com/pub/",
    "",
)

PLANTED_HREFS = (
    # absolute, in every case and with ports, userinfo, escapes, utm_, fragments
    "https://other.example.org/x",
    "HTTPS://OTHER.EXAMPLE.ORG/Doc/1",
    "HtTp://Mixed.Example.org",
    "https://h.example.com:443/p",
    "http://h.example.com:80/p",
    "https://h.example.com:8443/p",
    "https://User:Pw@H.example.com/x",
    "https://h.example.com/%64oc/5?utm_source=feed&utm_medium=rss#top",
    "https://h.example.com/a%20b?q=%41&UTM_x=1&&b=2",
    "https://h.example.com?only=query",
    "https://h.example.com#only-fragment",
    "https://h.example.com/a;params",
    "https://h.example.com/a/../b/./c",
    "https://[::1]/x",
    "https://[bad/x",
    # relative forms
    "//other.example.org/x",
    "//OTHER.example.org:80/y",
    "/doc/5",
    "/a//b",
    "/./x",
    "/../x",
    "../a",
    "./b",
    "c/d",
    "../../../e",
    "?q=1",
    "#frag",
    "page.html#a",
    "",
    "   ",
    " /padded ",
    # non-web schemes, the one a join still counts as external, and look-alikes
    "ftp://files.example.com/x",
    "mailto:a@b.example.com",
    "MAILTO:a@b.example.com",
    "tel:+15551234",
    "javascript:void(0)",
    "JavaScript:x",
    "mäilto:x",
    "ſ:x",
    "httpſ://h.example.com/x",
    "Key:x",
    "https://K.example.com/x",
    "https://h.example.com/ſ",
    "h2o:x",
    ":nothing",
    # embedded tab and newline
    "https://h.example.com/a\tb",
    "/doc/\n5",
    "java\nscript:alert(1)",
    "ht\ttps://h.example.com/x",
    "mailto:/\t/h.example.com/x",
)

PLANTED_TEXTS = (
    "",
    "one two three",
    "no sentence punctuation at all in this text of more than ten words here",
    "ÄÖÜ ÉÈ ÇA ΣΑΣ ΟΔΥΣΣΕΥΣ İSTANBUL \u212aELVIN ſale Straße. Ünïcödé wörds ärë hérë!",
    "Buy now! BUY NOW? Click here for the best deal, cheap bonus offer... limited time.",
    "the cat sat on the mat. the cat sat on the mat. the cat sat on the mat again and again.",
    "a b c\x1cd\x1de　f  g\th\ni.  ",
    "rhythm gym by fly shy myth crwth. Eye ee e. be the one make time.",
    "!!! ??? ... !?",
)

RELS = ("", "nofollow", "sponsored", "ugc", "nofollow sponsored", "ugc nofollow", "  canonical  ", "REDIRECT")


def page_html(hrefs, text="", rels=RELS, canonical=None) -> str:
    """A page with one anchor per href (cycling the rel values), a few
    anchors without href, the text in a paragraph and an optional
    canonical link tag."""
    body = [f"<h1>{text[:10]}</h1>", f"<p>{text}</p>", "<a>no href</a>", "<a name='x'>named</a>"]
    for k, h in enumerate(hrefs):
        rel = rels[k % len(rels)]
        body.append(f'<p>see <a href="{h}" rel="{rel}">link <b>{k}</b> &amp; co</a> after.</p>')
    head = "<title>Planted page</title><meta name='description' content='planted'>"
    if canonical is not None:
        head += f'<link rel="canonical" href="{canonical}">'
    return f"<html><head>{head}</head><body>{''.join(body)}</body></html>"


def assert_batch_equals_reference(urls, htmls, texts=()) -> None:
    """``parse_batch`` (edges table, full and score SEO) and
    ``quality_table`` equal the per-row references page by page."""
    import pyarrow as pa

    from link_profiler_repo_ray import schemas
    from link_profiler_repo_ray.functions import canonical, htmlx
    from link_profiler_repo_ray.functions.quality import quality_table

    assert htmlx.extract_text_batch(htmls) == [extract_text(h) for h in htmls]
    bases = [u for u, h in zip(urls, htmls) for _ in _A_RE.finditer(h)]
    hrefs = [_attrs(m.group(1)).get("href") or "" for h in htmls for m in _A_RE.finditer(h)]
    assert canonical.resolve_batch(bases, hrefs) == resolve_batch(bases, hrefs)
    parsed = htmlx.parse_batch(urls, htmls, seo="full")
    ts = pa.nulls(len(urls), pa.timestamp("us"))
    got = htmlx.edges_table(parsed, urls, ts)
    rows = []
    for u, h in zip(urls, htmls):
        for link in extract_links(u, h):
            rows.append(
                {"source_url": u, "source_host": host_of(u), "target_host": host_of(link["target_url"]),
                 "crawl_ts": None, **link}
            )
    assert got.equals(pa.Table.from_pylist(rows, schema=schemas.EDGES))
    score = htmlx.parse_batch(urls, htmls, seo="score", edges=False).seo
    for u, h, full, part in zip(urls, htmls, parsed.seo, score):
        want = parse_seo(u, h)
        assert full == want
        assert part == {k: want[k] for k in part}
    assert parsed.hosts == [host_of(u) for u in urls]
    texts = list(texts) or [extract_text(h) for h in htmls]
    assert quality_table(texts).to_pylist() == [quality_metrics(t) for t in texts]

