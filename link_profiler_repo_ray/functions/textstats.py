"""Text-analysis kernels for the training-data pipeline ops.

Beyond the reference's own operators: language-ID (stopword
heuristic), the stopword tables ``doc_quality`` counts with, and
rolling-hash document fingerprinting.  All pure, deterministic.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "STOPWORDS",
    "lang_id",
    "fingerprint64",
]

STOPWORDS = {
    "en": {"the", "and", "of", "a", "to", "in", "is", "that", "it", "for"},
    "es": {"el", "la", "de", "que", "y", "en", "un", "una", "los", "las"},
    "fr": {"le", "la", "de", "et", "les", "des", "un", "une", "est", "dans"},
    "de": {"der", "die", "das", "und", "ist", "von", "den", "mit", "ein", "eine"},
}


def lang_id(text: str) -> str:
    """Tiny heuristic language ID.

    CJK codepoint density → "zh"; else the stopword table with the most
    hits; ties/no-hits → "en".  A deterministic, dependency-free stand-in
    for fastText-style LID; the actor-pool plumbing is identical.
    """
    if not text:
        return "und"
    cjk = sum(1 for c in text[:400] if "一" <= c <= "鿿")
    if cjk > len(text[:400]) * 0.2:
        return "zh"
    toks = [t.lower() for t in text.split()]
    best_lang, best_hits = "en", 0
    for lang_code, stops in STOPWORDS.items():
        hits = sum(1 for t in toks if t in stops)
        if hits > best_hits:
            best_lang, best_hits = lang_code, hits
    return best_lang


def fingerprint64(text: str, k: int = 8) -> np.uint64:
    """Rolling Karp-Rabin fingerprint: min over word k-gram hashes.

    A winnowing-style document fingerprint; identical documents (and
    documents sharing their minimal k-gram) collide, enabling cheap
    candidate generation before exact comparison.
    """
    words = text.split()
    base = np.uint64(1099511628211)
    mask = np.uint64(0xFFFFFFFFFFFFFFFF)
    if not words:
        return np.uint64(0)
    hashes = []
    with np.errstate(over="ignore"):
        h = np.uint64(1469598103934665603)
        window: list[np.uint64] = []
        for w in words:
            hw = np.uint64(0)
            for ch in w:
                hw = (hw * base + np.uint64(ord(ch))) & mask
            window.append(hw)
            if len(window) >= k or len(window) == len(words):
                h = np.uint64(1469598103934665603)
                for x in window[-k:]:
                    h = ((h ^ x) * base) & mask
                hashes.append(h)
    return min(hashes) if hashes else np.uint64(0)
