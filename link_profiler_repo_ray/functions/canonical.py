"""URL resolution, canonicalization and 64-bit hashing (operator M1).

Reference semantics being reproduced (SURVEY.md §2.2 M1):
- resolve relative hrefs against the page URL, dropping non-http(s)
  schemes (mailto/tel/javascript):  Link_Profiler/crawlers/link_extractor.py:81-92
- a URL is valid iff it has scheme+netloc:  Link_Profiler/utils/url_validator.py:20-26
- hosts compare lowercased:  Link_Profiler/utils/url_validator.py:28-33

Canonical form produced here (the BASELINE.json contract:
"lowercase host, strip fragments/utm params, percent-decode"):
- scheme and host lowercased; default ports (:80 http, :443 https) removed
- fragment stripped
- query parameters whose name starts with ``utm_`` (case-insensitive) removed,
  remaining parameters kept in original order
- path and query percent-decoded via ``urllib.parse.unquote``
- empty path becomes "/"

These functions are pure and batch-oriented: they take/return equal
length sequences so they can run inside ``map_batches`` without any
per-row Python in the *driver*.  Href resolution (``resolve``, behind
``resolve_batch`` and ``htmlx.parse_batch``) computes what a page URL
contributes once per page (``base_context``) and each href once: a
plain absolute http(s) href or a plain root-relative path is
canonicalized by one ASCII regex match and string ops, an href with
an explicit non-web scheme is dropped unjoined, and every other href
takes ``urljoin`` + one ``urlsplit``, whose result serves both the
canonical target and the raw joined netloc the SEO parse counts.
"""

from __future__ import annotations

import re
from urllib.parse import urljoin, urlsplit, urlunsplit, unquote

import numpy as np

__all__ = [
    "canonicalize",
    "canonicalize_batch",
    "resolve_batch",
    "host_of",
    "host_of_batch",
    "url_hash64",
    "is_internal_url",
]

_WEB_SCHEMES = ("http", "https")

# A plain absolute http(s) href: ASCII, no whitespace, port, userinfo or
# ``;`` params.  ``urljoin`` keeps such an href as written (an absolute
# href is never dot-resolved), so the groups (s, host, path, query) are
# its ``urlsplit`` parts.  Explicit case classes under re.ASCII: an
# IGNORECASE class would also match U+017F and U+212A, which fold to
# "s" and "k".
_PLAIN_ABS_RE = re.compile(
    r"[Hh][Tt][Tt][Pp]([Ss]?)://([A-Za-z0-9.-]+)"
    r"(/[A-Za-z0-9_.~!$&'()*+,=:@%/-]*)?(?:\?([A-Za-z0-9_.~!$&'()*+,;=:@%/?-]*))?"
    r"(?:#[\x21-\x7e]*)?",
    re.ASCII,
)
# a plain root-relative path; the caller also rules out "//" (a netloc)
# and "/." (a dot segment, which ``urljoin`` would resolve)
_PLAIN_PATH_RE = re.compile(r"/[A-Za-z0-9_.~/-]*", re.ASCII)


def _kept_query(query: str) -> str:
    """A query without its ``utm_*`` parameters, percent-decoded."""
    kept = [
        kv for kv in query.split("&") if kv and not kv.split("=", 1)[0].lower().startswith("utm_")
    ]
    return "&".join(unquote(kv) for kv in kept)


def _host(scheme: str, netloc: str) -> str:
    """The lowercased netloc without the scheme's default port."""
    host = netloc.lower()
    if scheme == "http" and host.endswith(":80"):
        return host[:-3]
    if scheme == "https" and host.endswith(":443"):
        return host[:-4]
    return host


def _canonical_parts(parts) -> tuple[str, str] | None:
    """(canonical URL, its host) of a ``urlsplit`` result, or None."""
    scheme = parts.scheme.lower()
    if scheme not in _WEB_SCHEMES or not parts.netloc:
        return None
    host = _host(scheme, parts.netloc)
    path = unquote(parts.path) or "/"
    query = _kept_query(parts.query) if parts.query else ""
    return urlunsplit((scheme, host, path, query, "")), host


def canonicalize(url: str) -> str | None:
    """Canonicalize one absolute URL.  Returns None for non-web URLs."""
    try:
        parts = urlsplit(url)
    except ValueError:
        return None
    c = _canonical_parts(parts)
    return None if c is None else c[0]


def canonicalize_batch(urls) -> list:
    """Vectorized entrypoint: list of canonical URLs (None where invalid)."""
    return [canonicalize(u) for u in urls]


def base_context(base) -> tuple:
    """What resolving hrefs against page URL ``base`` needs, computed
    once per page: ``(base, prefix, host, netloc)``.  ``netloc`` is
    :func:`host_of` the base.  For an http(s) base with a host,
    ``prefix`` is its canonical ``scheme://host`` and ``host`` that
    canonical host; otherwise both are None and every href of the page
    takes the general ``urljoin`` path."""
    m = _PLAIN_ABS_RE.fullmatch(base) if isinstance(base, str) else None
    if m is not None:
        host = m.group(2).lower()
        return base, ("https://" if m.group(1) else "http://") + host, host, host
    try:
        parts = urlsplit(base)
    except ValueError:
        return base, None, None, ""
    netloc = parts.netloc.lower()
    if not isinstance(base, str) or parts.scheme not in _WEB_SCHEMES or not netloc:
        return base, None, None, netloc
    host = _host(parts.scheme, netloc)
    return base, f"{parts.scheme}://{host}", host, netloc


def resolve(ctx: tuple, href: str, netloc: bool = False) -> tuple:
    """Resolve one stripped ``href`` against a :func:`base_context`:
    ``(canonical target | None, its host | None, joined netloc)``.

    The target mirrors LinkExtractor._resolve_url
    (link_extractor.py:81-92): any explicit non-http(s) scheme is
    dropped *before* joining.  The joined netloc is
    ``urlsplit(urljoin(base, href)).netloc.lower()`` (None when the join
    raises), the SEO parse's internal/external test; it is computed for
    a dropped scheme only when ``netloc`` is set, and it comes from the
    same join as the target.  Plain absolute http(s) hrefs and plain
    root-relative paths against a regular base skip ``urljoin``."""
    base, prefix, host, base_netloc = ctx
    if prefix is not None:
        m = _PLAIN_ABS_RE.fullmatch(href)
        if m is not None:
            s, t_host, path, query = m.groups()
            t_host = t_host.lower()
            # what _canonical_parts builds from these parts
            if not path:
                path = "/"
            elif "%" in path:
                path = unquote(path)
            url = ("https://" if s else "http://") + t_host + path
            if query:
                query = _kept_query(query)
                if query:
                    url += "?" + query
            return url, t_host, t_host
        if _PLAIN_PATH_RE.fullmatch(href) and href[:2] != "//" and "/." not in href:
            return prefix + href, host, base_netloc
    scheme_end = href.find(":")
    web = not (
        scheme_end > 0
        and href[:scheme_end].isalpha()
        and href[:scheme_end].lower() not in _WEB_SCHEMES
    )
    if not (web or netloc):
        return None, None, None
    try:
        parts = urlsplit(urljoin(base, href))
    except ValueError:
        return None, None, None
    c = _canonical_parts(parts) if web else None
    if c is None:
        return None, None, parts.netloc.lower()
    return c[0], c[1], parts.netloc.lower()


def resolve_batch(base_urls, hrefs) -> list:
    """Resolve hrefs against their page URLs, then canonicalize
    (:func:`resolve`'s target, one base context per distinct base)."""
    ctxs: dict = {}
    out = []
    for base, href in zip(base_urls, hrefs):
        ctx = ctxs.get(base)
        if ctx is None:
            ctx = ctxs[base] = base_context(base)
        out.append(resolve(ctx, href.strip())[0])
    return out


def host_of(url: str) -> str:
    """Lowercased netloc (url_validator.py:28-33)."""
    try:
        return urlsplit(url).netloc.lower()
    except ValueError:
        return ""


def host_of_batch(urls) -> list:
    return [host_of(u) for u in urls]


def is_internal_url(url: str, base_domain: str) -> bool:
    """url_validator.py:87-93: same host or subdomain of base."""
    h = host_of(url)
    return bool(h) and (h == base_domain or h.endswith("." + base_domain))


def url_hash64(urls) -> np.ndarray:
    """Deterministic 64-bit hash per URL (frontier routing + dedup key).

    Uses polars' vectorized xxhash with a fixed seed — stable across
    processes, which checkpoint/resume and shard routing rely on.  At
    10^10-URL scale this is the partitioning key for the seen-set
    shards and the corpus-replay fetch shards.
    """
    import polars as pl

    s = pl.Series("u", urls, dtype=pl.Utf8)
    return s.hash(seed=0).to_numpy().astype(np.uint64)
