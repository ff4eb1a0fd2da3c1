"""M5 text-extraction byte-identity + M2 link-extraction golden samples.

Golden HTML fixtures ported from the reference's
tests/link_extractor_test.py:23-140 expectations, adjudicated against
the executable extractor semantics (crawlers/link_extractor.py) where
the reference's own test file contradicts its code (SURVEY.md §1.4:
rel precedence 'sponsored' wins multi-rel; empty hrefs resolve to the
base URL).  Target URLs here are canonical forms since this engine
canonicalizes at extraction (BASELINE.json contract).
"""

from link_profiler_repo_ray.functions.htmlx import extract_links, extract_text


class TestCleanHtml:
    def test_strips_script_and_style(self):
        html = "<html><script>var x = '<b>no</b>';</script><style>p { a: b }</style><p>keep</p></html>"
        assert extract_text(html) == "keep"

    def test_script_case_insensitive_dotall(self):
        html = "<SCRIPT type='x'>\nline1\nline2\n</SCRIPT>text"
        assert extract_text(html) == "text"

    def test_nested_angle_in_script(self):
        html = '<script>if (a < b) { x = "<div>"; }</script>after'
        assert extract_text(html) == "after"

    def test_entities_unescaped_after_tag_strip(self):
        assert extract_text("<p>a &amp; b &lt;c&gt; &#39;d&#39;</p>") == "a & b <c> 'd'"

    def test_whitespace_collapsed_and_stripped(self):
        assert extract_text("  <p>a\n\t b</p>\r\n c  ") == "a b c"

    def test_entity_producing_whitespace_not_recollapsed(self):
        # html.unescape runs BEFORE whitespace collapse in the
        # reference?  No: collapse is last (content_validator.py:96-99),
        # so &nbsp;-induced unicode spaces survive as themselves only if
        # \s doesn't match them — Python's \s DOES match \xa0, and the
        # reference collapses after unescape, so nbsp collapses too.
        assert extract_text("a&nbsp;&nbsp;b") == "a b"

    def test_unclosed_tag_left_as_text(self):
        # '<p' never closed by '>' → the tag regex can't match it
        assert extract_text("x <unclosed") == "x <unclosed"

    def test_empty(self):
        assert extract_text("") == ""
        assert extract_text("<p></p>") == ""


SIMPLE_LINKS_HTML = """
<html>
<body>
    <a href="https://google.com">External Link</a>
    <a href="/internal-page">Internal Link</a>
    <a href="relative.html">Relative Link</a>
    <a href="mailto:test@example.com">Email Link</a>
    <a href="tel:+1234567890">Phone Link</a>
</body>
</html>
"""

SEO_LINKS_HTML = """
<html>
<head>
    <link rel="canonical" href="https://example.com/canonical-page">
</head>
<body>
    <a href="https://sponsor.com" rel="sponsored">Sponsored Link</a>
    <a href="https://nofollow.com" rel="nofollow">No Follow Link</a>
    <a href="https://ugc.com" rel="ugc">User Generated Content</a>
    <a href="https://normal.com">Normal Link</a>
    <a href="https://multi.com" rel="nofollow sponsored">Multiple Rels</a>
</body>
</html>
"""


class TestLinkExtraction:
    def test_simple_links(self):
        links = extract_links("https://example.com/", SIMPLE_LINKS_HTML)
        urls = [l["target_url"] for l in links]
        assert urls == [
            "https://google.com/",
            "https://example.com/internal-page",
            "https://example.com/relative.html",
        ]
        assert all(l["link_type"] == "dofollow" for l in links)
        assert links[0]["anchor_text"] == "External Link"

    def test_seo_links_rel_precedence(self):
        links = extract_links("https://example.com/", SEO_LINKS_HTML)
        assert len(links) == 6  # 5 anchors + canonical
        by_type = {}
        for l in links:
            by_type.setdefault(l["link_type"], []).append(l["target_url"])
        assert by_type["sponsored"] == ["https://sponsor.com/", "https://multi.com/"]
        assert by_type["nofollow"] == ["https://nofollow.com/"]
        assert by_type["ugc"] == ["https://ugc.com/"]
        assert by_type["dofollow"] == ["https://normal.com/"]
        assert by_type["canonical"] == ["https://example.com/canonical-page"]
        canon = links[-1]
        assert canon["anchor_text"] == "canonical"
        assert canon["rel_attributes"] == ["canonical"]

    def test_multi_rel_attributes_preserved(self):
        links = extract_links("https://example.com/", SEO_LINKS_HTML)
        multi = [l for l in links if l["target_url"] == "https://multi.com/"][0]
        assert multi["rel_attributes"] == ["nofollow", "sponsored"]

    def test_edge_case_schemes(self):
        html = """
        <a href="javascript:void(0)">JS</a>
        <a href="ftp://files.example.com">FTP</a>
        <a>No href</a>
        <a href="valid-link.html">Valid</a>
        <a href="./same-directory.html">Same</a>
        <a href="../parent-directory.html">Parent</a>
        """
        links = extract_links("https://test.com/", html)
        assert [l["target_url"] for l in links] == [
            "https://test.com/valid-link.html",
            "https://test.com/same-directory.html",
            "https://test.com/parent-directory.html",
        ]

    def test_fragment_only_href_canonicalizes_to_base(self):
        links = extract_links("https://test.com/", '<a href="#fragment">F</a>')
        assert [l["target_url"] for l in links] == ["https://test.com/"]

    def test_context_text(self):
        html = "<p>see <a href='/x'>anchor</a> after.</p>"
        links = extract_links("https://t.com/", html)
        assert links[0]["context_text"] == "see anchor after."

    def test_context_truncated_to_100(self):
        long = "w" * 300
        html = f"<p>{long} <a href='/x'>a</a></p>"
        links = extract_links("https://t.com/", html)
        assert len(links[0]["context_text"]) == 100

    def test_first_canonical_only(self):
        html = (
            '<link rel="canonical" href="https://a.com/one">'
            '<link rel="canonical" href="https://a.com/two">'
        )
        links = extract_links("https://a.com/", html)
        assert [l["target_url"] for l in links] == ["https://a.com/one"]


# --- the batch kernel against the per-row references ------------------------

import pyarrow as pa  # noqa: E402

import parse_reference as ref  # noqa: E402

from link_profiler_repo_ray.functions import quality  # noqa: E402
from link_profiler_repo_ray.pipelines.crawl import _busy_split, _parse_and_emit  # noqa: E402


def test_parse_batch_planted_pages_equal_references():
    """Every planted href against every planted base, with the planted
    texts: edges, full and score SEO and quality equal the per-row
    references page by page."""
    urls, htmls = [], []
    for base in ref.PLANTED_BASES:
        for k, text in enumerate(ref.PLANTED_TEXTS):
            urls.append(base)
            htmls.append(ref.page_html(ref.PLANTED_HREFS, text, canonical=ref.PLANTED_HREFS[k]))
    urls += ["https://h.example.com/", "https://h.example.com/x"]
    htmls += ["", "<a href='/only'>only</a><link rel=canonical href='mailto:x'><link rel=canonical href=/late>"]
    ref.assert_batch_equals_reference(urls, htmls)
    ref.assert_batch_equals_reference(urls[:1], htmls[:1], ref.PLANTED_TEXTS)


def test_parse_batch_single_href_pages():
    """One page per planted href, so a failing href names itself."""
    for base in ref.PLANTED_BASES[:3]:
        for href in ref.PLANTED_HREFS:
            ref.assert_batch_equals_reference([base], [ref.page_html([href], canonical=href)])


def test_quality_table_zero_rows_and_planted_texts():
    empty = quality.quality_table([])
    assert empty.num_rows == 0
    assert empty.schema.names == [
        "word_count", "readability_score", "spam_score", "duplicate_score", "quality_score", "content_hash"
    ]
    texts = list(ref.PLANTED_TEXTS) + ["word " * 250 + "end.", "x. " * 1200]
    assert quality.quality_table(texts).to_pylist() == [ref.quality_metrics(t) for t in texts]


class _Capture:
    """A persist buffer that keeps what it is given."""

    def __init__(self):
        self.pages, self.edges = [], []

    def add(self, persist_dir, tag, pages, edges, alerts=None):
        self.pages.append(pages)
        self.edges.append(edges)


def test_crawl_tables_equal_per_page_references():
    """The fetch actors' pages and edges tables equal the per-page
    build: 200 pages, a 404 and a 503 (null SEO, the empty text's
    quality, no edges), a 200 without html and a page of planted hrefs."""
    from datetime import datetime

    urls = [f"https://h{k}.example.com/doc/{k}" for k in range(7)]
    htmls = [
        ref.page_html(ref.PLANTED_HREFS, ref.PLANTED_TEXTS[3], canonical="/c").encode(),
        None,
        None,
        None,
        ref.page_html(["/a", "https://x.example.org/"], ref.PLANTED_TEXTS[4]).encode(),
        b"",
        "<p>caf\xe9</p><a href='../up'>up</a>".encode("latin-1"),
    ]
    status = [200, 404, 503, 200, 200, 200, 200]
    tss = [datetime(2024, 3, k + 1) if s == 200 else None for k, s in enumerate(status)]
    depths = [0, 1, 2, 3, 4, 5, 6]
    langs = ["en", None, None, None, "de", "en", "fr"]
    persister, split = _Capture(), _busy_split()
    meta, cand, edges, refs = _parse_and_emit(
        urls, depths, status, tss, htmls, langs, "unused", "0", True, [], persister, split
    )
    pages, want_edges, want_depths = ref.crawl_tables(urls, depths, status, tss, htmls, langs)
    assert persister.pages[0].equals(pages)
    assert edges.equals(want_edges) and persister.edges[0].equals(want_edges)
    assert cand.column("depth").to_pylist() == want_depths
    assert cand.column("host").to_pylist() == want_edges.column("target_host").to_pylist()
    assert meta.column("status").to_pylist() == status and refs == []
    assert all(v >= 0 for v in split.values()) and split["parse_s"] > 0
