"""M6 quality metrics, M7 bot detection, M4/M8 SEO parse + score.

The quality fields come from the batch kernel ``quality_table`` on a
one-text batch; each is also held to the per-row reference."""

import math

import parse_reference as ref

from link_profiler_repo_ray.functions.htmlx import parse_seo, seo_score
from link_profiler_repo_ray.functions.quality import bot_indicators, quality_table


def quality_metrics(text: str) -> dict:
    row = quality_table([text]).to_pylist()[0]
    assert row == ref.quality_metrics(text)
    return row


def readability(text: str) -> float:
    return quality_metrics(text)["readability_score"]


def spam_score(text: str) -> float:
    return quality_metrics(text)["spam_score"]


def duplicate_score(text: str) -> float:
    return quality_metrics(text)["duplicate_score"]


class TestQuality:
    def test_flesch_formula(self):
        # 6 words, 1 sentence, syllables: the(1)+cat(1)+sat(1)+on(1)+the(1)+mat(1)=6
        text = "the cat sat on the mat."
        expected = 206.835 - 1.015 * 6 - 84.6 * 1.0
        assert math.isclose(readability(text), min(100, max(0, expected)))

    def test_readability_empty(self):
        assert readability("") == 0.0
        assert readability("no sentence ending") == 0.0

    def test_spam_keywords_weighted(self):
        # "buy now" high=3, "discount" medium=2, "cheap" low=1
        assert spam_score("buy now discount cheap") == 6.0

    def test_spam_caps_penalty(self):
        assert spam_score("ABCDEFGHIJ") == 10.0  # >30% caps

    def test_duplicate_score_repeats(self):
        text = "one two three one two three one two three extra words here now"
        assert duplicate_score(text) > 0

    def test_quality_metrics_struct(self):
        m = quality_metrics("word " * 250 + "end.")
        assert m["word_count"] == 251
        assert 0 <= m["quality_score"] <= 100
        assert len(m["content_hash"]) == 32

    def test_bot_indicators(self):
        found = bot_indicators("<html>Checking your browser - Cloudflare CAPTCHA</html>")
        assert "captcha" in found and "cloudflare" in found


SEO_HTML = """
<html><head>
<title>A Perfectly Sized Title For Tests Here Now</title>
<meta name="description" content="A meta description that is comfortably within the optimal fifty to one-sixty char range for scoring.">
<link rel="canonical" href="https://x.com/page">
<meta name="robots" content="index,follow">
<meta name="viewport" content="width=device-width, initial-scale=1">
<script type="application/ld+json">{"@type": ["Article", "NewsArticle"]}</script>
<meta property="og:title" content="OG Title">
<meta name="twitter:title" content="TW Title">
</head><body>
<h1>One</h1><h2>Two</h2><h2>Three</h2>
<a href="/internal">in</a>
<a href="https://other.com/">out</a>
<img src="a.png" alt="ok"><img src="b.png">
</body></html>
"""


class TestSeo:
    def test_parse_fields(self):
        m = parse_seo("https://x.com/page", SEO_HTML)
        assert m["title_length"] == 42
        assert 50 <= m["meta_description_length"] <= 160
        assert m["h1_count"] == 1 and m["h2_count"] == 2
        assert m["internal_links"] == 1 and m["external_links"] == 1
        assert m["images_count"] == 2 and m["images_without_alt"] == 1
        assert m["has_canonical"] and m["has_robots_meta"] and m["has_schema_markup"]
        assert m["structured_data_types"] == ["Article", "NewsArticle"]
        assert m["og_title"] == "OG Title" and m["twitter_title"] == "TW Title"
        assert m["mobile_friendly"]

    def test_score_formula_all_hits(self):
        # title 30-60 (+.1) meta 50-160 (+.1) single h1 (+.05)
        # canonical/robots/schema (+.05 each) → .4, normalized by
        # Σ|w| = 1.1 (core/models.py:193-204 lists ten weights incl.
        # perf .3, a11y .2, broken -.1, ai .1 that are parse-time None)
        m = parse_seo("https://x.com/page", SEO_HTML)
        assert math.isclose(m["seo_score"], 0.4 * 100 / 1.1)

    def test_score_partial(self):
        assert math.isclose(seo_score({"title_length": 10, "h1_count": 0}), 0.05 * 100 / 1.1)
        assert seo_score({}) == 0.0
