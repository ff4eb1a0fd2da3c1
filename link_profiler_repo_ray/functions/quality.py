"""Content-quality scoring (M6) and bot-block detection (M7).

Batch kernels mirroring Link_Profiler/utils/content_validator.py:
- Flesch reading ease 206.835 - 1.015*(words/sentences) - 84.6*(syll/words),
  clamped to 0-100 (content_validator.py:103-118)
- vowel-group syllable counting with silent-e adjustment (:120-150)
- spam keyword score with 3 risk tiers + caps/punct-ratio penalties (:152-176)
- 3-word-phrase duplication score (:178-203)
- overall quality score blend (:205-230)
- bot-detection phrase list (:30-35, :275-302)
- MD5 content hash (:83)

``quality_table`` computes the quality struct of a whole text column.
It equals the reference's per-document Python float for float: the
same words (``str.split()`` of ``str.lower()``, so case and whitespace
follow Python's Unicode tables; polars carries a newer Unicode version
that cases some code points Python leaves alone), the same operation
order and clamping.
"""

from __future__ import annotations

import hashlib
from operator import mul

import numpy as np
import polars as pl
import pyarrow as pa

__all__ = ["quality_table", "bot_indicators", "SPAM_KEYWORDS", "BOT_PHRASES"]

SPAM_KEYWORDS = {
    3: ("buy now", "act fast", "limited time", "click here", "free money"),
    2: ("discount", "sale", "offer", "deal", "bonus"),
    1: ("cheap", "best", "top", "amazing", "incredible"),
}

BOT_PHRASES = (
    "access denied",
    "you have been blocked",
    "captcha",
    "robot check",
    "rate limit exceeded",
    "please verify you are human",
    "403 forbidden",
    "too many requests",
    "cloudflare",
)

_KEYWORDS = [kw for kws in SPAM_KEYWORDS.values() for kw in kws]
_KEYWORD_MULTS = [mult for mult, kws in SPAM_KEYWORDS.items() for _ in kws]
_CONSONANT = "[b-df-hj-np-tv-xz]"
# every byte except ASCII A-Z, for a C-level uppercase count on ASCII text
_NON_UPPER_BYTES = bytes(b for b in range(256) if not (65 <= b <= 90))


def _text_counts(text: str) -> tuple:
    """(lowercased words joined by single spaces, words, characters,
    uppercase characters, keyword score, ! and ?) of one text: C-level
    string calls only."""
    low = text.lower()
    # str.split() words, without the split when the text is already a
    # single-spaced run of printable characters (every whitespace
    # character but " " is unprintable), as extracted page text is
    if low.isprintable() and "  " not in low and low[:1] != " " and low[-1:] != " ":
        norm, words = low, low.count(" ") + 1 if low else 0
    else:
        norm = " ".join(low.split())
        words = norm.count(" ") + 1 if norm else 0
    if text.isascii():
        # str.isupper() is true for exactly A-Z within ASCII
        upper = len(text.encode().translate(None, delete=_NON_UPPER_BYTES))
    else:
        upper = sum(1 for c in text if c.isupper())
    return (
        norm,
        words,
        len(text),
        upper,
        sum(map(mul, map(low.count, _KEYWORDS), _KEYWORD_MULTS)),
        text.count("!") + text.count("?"),
    )


def _syllables(letters: pl.Expr) -> pl.Expr:
    """Syllables over the words of ``letters`` (lowercased words cut
    to a-z, single spaces between them): per non-empty word the number
    of vowel groups, one less when there are several and the word ends
    in "e", at least 1 (content_validator.py:120-150)."""
    groups = letters.str.count_matches("[aeiouy]+")
    silent_e = letters.str.count_matches(
        rf"(?-u:\b)[a-z]*[aeiouy]{_CONSONANT}+[a-z]*e(?-u:\b)"
    )
    no_vowel = letters.str.count_matches(rf"(?-u:\b){_CONSONANT}+(?-u:\b)")
    return groups - silent_e + no_vowel


def _repeated_phrases(words: pl.LazyFrame) -> pl.LazyFrame:
    """Per document of ten words or more (``doc``, word list ``w``), its
    distinct 3-word phrases (``total``) and how many of them occur more
    than once (``dup``), content_validator.py:178-203."""
    return (
        words.filter(pl.col("w").list.len() >= 10)
        .explode("w")
        .with_columns(
            pl.col("w").shift(-1).alias("w1"),
            pl.col("w").shift(-2).alias("w2"),
            (pl.col("doc").shift(-2) == pl.col("doc")).alias("whole"),
        )
        .filter(pl.col("whole"))
        .group_by("doc", "w", "w1", "w2")
        .len()
        .group_by("doc")
        .agg((pl.col("len") > 1).sum().alias("dup"), pl.len().alias("total"))
    )


def quality_table(texts) -> pa.Table:
    """The quality struct of every text (str, no None): word_count
    (int32), readability_score, spam_score, duplicate_score,
    quality_score (float64) and content_hash (MD5 hex).

    The reference's two Python loops, the syllable count and the
    3-word-phrase tally, run as one polars query over the lowercased
    word column; the simple counts are one C-level string call each
    per text (``_text_counts``).  The float formulas then run as
    separate numpy operations in the reference's order: polars'
    optimizer may fuse ``a + b * c`` into one fused multiply-add,
    which rounds once where Python rounds twice."""
    texts = list(texts)
    counts = list(zip(*map(_text_counts, texts))) or [()] * 6
    norm = pl.Series("norm", counts[0], dtype=pl.Utf8)
    wc, n, upper, kw, punct = (np.array(c, dtype=np.float64) for c in counts[1:])
    words = pl.LazyFrame([norm]).with_row_index("doc")
    per_doc, rep = pl.collect_all(
        [
            # a run of sentence marks never spans whitespace, so it
            # counts the same in the normalized text
            words.select(
                pl.col("norm").str.count_matches("[.!?]+").alias("sent"),
                _syllables(pl.col("norm").str.replace_all("[^a-z ]+", "")).alias("syl"),
            ),
            _repeated_phrases(words.select("doc", pl.col("norm").str.split(" ").alias("w"))),
        ]
    )
    sent, syl = per_doc.to_numpy().astype(np.float64).T
    dup = np.zeros(len(texts))
    total = np.zeros(len(texts))
    doc = rep["doc"].to_numpy()
    dup[doc] = rep["dup"].to_numpy()
    total[doc] = rep["total"].to_numpy()

    with np.errstate(divide="ignore", invalid="ignore"):
        flesch = 206.835 - 1.015 * (wc / sent) - 84.6 * (syl / wc)
        read = np.where((sent == 0) | (wc == 0), 0.0, np.maximum(0.0, np.minimum(100.0, flesch)))
        spam = kw + np.where((n > 0) & (upper / n > 0.3), 10.0, 0.0)
        spam = np.minimum(100.0, spam + np.where((n > 0) & (punct / n > 0.05), 5.0, 0.0))
        dup_score = np.where(total > 0, dup / total * 100.0, 0.0)
    length = np.select([wc < 50, wc < 200, wc < 500, wc < 1000], [0, 30, 60, 80], 100)
    q = length * 0.4 + read / 100.0 * 40.0 * 0.6 - spam / 100.0 * 30.0 - dup_score / 100.0 * 20.0
    return pa.table(
        {
            "word_count": pa.array(wc.astype(np.int32)),
            "readability_score": pa.array(read),
            "spam_score": pa.array(spam),
            "duplicate_score": pa.array(dup_score),
            "quality_score": pa.array(np.maximum(0.0, np.minimum(100.0, q))),
            "content_hash": pa.array(
                [hashlib.md5(t.encode()).hexdigest() for t in texts], pa.string()
            ),
        }
    )


def bot_indicators(html_content: str) -> list[str]:
    low = html_content.lower()
    return [p for p in BOT_PHRASES if p in low]
