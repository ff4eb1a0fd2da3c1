"""Property-based tests (hypothesis) for the pure kernels.

The reference has no property tests (SURVEY.md §5); these pin algebraic
invariants the oracle comparisons can't express.
"""

import string

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from link_profiler_repo_ray.functions.canonical import canonicalize, host_of
from link_profiler_repo_ray.functions.htmlx import extract_text
from link_profiler_repo_ray.functions import sketches
from link_profiler_repo_ray.functions.sketches import (
    HyperLogLog,
    band_hashes,
    batch_shingle_hashes,
    minhash_signature,
    minhash_signatures,
    shingle_hashes,
    token_hashes,
)

url_path = st.text(alphabet=string.ascii_letters + string.digits + "/-_.", max_size=30)
host_label = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=10)


@given(host=host_label, path=url_path)
@settings(max_examples=200, deadline=None)
def test_canonicalize_idempotent(host, path):
    u = f"https://{host}.example.com/{path}"
    c1 = canonicalize(u)
    assert c1 is not None
    assert canonicalize(c1) == c1


@given(host=host_label, path=url_path)
@settings(max_examples=100, deadline=None)
def test_canonical_host_is_lowercase(host, path):
    u = f"HTTPS://{host.upper()}.EXAMPLE.COM/{path}"
    c = canonicalize(u)
    assert c is not None
    assert host_of(c) == host_of(c).lower()


@given(text=st.text(max_size=300))
@settings(max_examples=200, deadline=None)
def test_extract_text_no_tags_and_collapsed(text):
    out = extract_text(text)
    # no whitespace runs, no leading/trailing whitespace
    assert "  " not in out
    assert out == out.strip()
    # idempotent for tag-free, entity-free output
    if "&" not in out and "<" not in out:
        assert extract_text(out) == out


@given(words=st.lists(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8),
                      min_size=1, max_size=60))
@settings(max_examples=100, deadline=None)
def test_minhash_identity_and_permutation_invariance(words):
    text = " ".join(words)
    s1 = minhash_signature(shingle_hashes(text, 1))
    s2 = minhash_signature(shingle_hashes(" ".join(reversed(words)), 1))
    # unigram shingles = a SET of words → order must not matter
    assert (s1 == s2).all()


# words and the separators str.split() treats as whitespace (the ASCII
# file/group/record/unit separators \x1c-\x1f and NBSP included)
_word = st.text(alphabet="ab\u00e9z", min_size=1, max_size=3)
_sep = st.sampled_from([" ", "  ", "\t", "\n", "\r\n", "\xa0", "\x1c", "\x1d", "\x1e", "\x1f", " \t "])
_doc = st.lists(st.tuples(_sep, _word), max_size=12).map(lambda ps: "".join(s + w for s, w in ps))
_docs = st.lists(st.one_of(_doc, st.sampled_from(["", " ", "\xa0\x1f", "one"])), max_size=12)


@given(texts=_docs, n=st.integers(min_value=1, max_value=4))
@settings(max_examples=200, deadline=None)
def test_batch_shingles_equal_per_doc(texts, n):
    lens, hashes = batch_shingle_hashes(texts, n)
    assert lens.dtype == np.int64 and hashes.dtype == np.uint64
    assert len(lens) == len(texts) and lens.sum() == len(hashes)
    off = np.concatenate([[0], np.cumsum(lens)])
    for i, t in enumerate(texts):
        assert np.array_equal(hashes[off[i] : off[i + 1]], shingle_hashes(t, n))


@given(texts=_docs, n=st.integers(min_value=1, max_value=4),
       chunk=st.integers(min_value=1, max_value=9), num_perm=st.sampled_from([4, 16, 128]))
@settings(max_examples=200, deadline=None)
def test_batch_signatures_equal_per_doc(texts, n, chunk, num_perm):
    """Small column chunks put chunk boundaries inside documents and
    next to documents with zero shingles."""
    lens, hashes = batch_shingle_hashes(texts, n)
    old = sketches._SIG_CHUNK
    sketches._SIG_CHUNK = chunk
    try:
        sigs = minhash_signatures(lens, hashes, num_perm)
    finally:
        sketches._SIG_CHUNK = old
    assert sigs.shape == (len(texts), num_perm) and sigs.dtype == np.uint64
    bands = band_hashes(sigs, 4)
    for i, t in enumerate(texts):
        want = minhash_signature(shingle_hashes(t, n), num_perm)
        assert np.array_equal(sigs[i], want)
        assert np.array_equal(bands[i], band_hashes(want, 4))


@given(xs=st.lists(st.integers(min_value=0, max_value=2**63), min_size=0, max_size=500))
@settings(max_examples=50, deadline=None)
def test_hll_merge_commutative(xs):
    import numpy as np

    h = np.array(xs, dtype=np.uint64)
    a, b = h[::2], h[1::2]
    m1 = HyperLogLog(10).add_hashes(a).merge(HyperLogLog(10).add_hashes(b))
    m2 = HyperLogLog(10).add_hashes(b).merge(HyperLogLog(10).add_hashes(a))
    assert m1.estimate() == m2.estimate()


@given(tokens=st.lists(st.text(alphabet=string.printable, min_size=0, max_size=20),
                       min_size=0, max_size=50))
@settings(max_examples=50, deadline=None)
def test_token_hashes_deterministic(tokens):
    a = token_hashes(tokens)
    b = token_hashes(tokens)
    assert (a == b).all()


# --- round 5: JPEG codec + BPE segmenter properties ------------------------

import numpy as np
from hypothesis import HealthCheck
from hypothesis.extra import numpy as hnp


@given(
    pix=hnp.arrays(
        dtype=np.uint8,
        shape=st.tuples(st.integers(1, 24), st.integers(1, 32)),
    )
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_jpeg_gray_roundtrip_never_crashes_and_bounds_error(pix):
    from link_profiler_repo_ray.functions.jpegx import decode_jpeg, encode_jpeg_gray

    d = decode_jpeg(encode_jpeg_gray(pix), return_pixels=True)
    assert d["pixels"].shape == pix.shape
    # worst-case per-pixel error of Annex-K luma quantization on any
    # 8-bit input stays far from saturating the range
    assert float(np.abs(d["pixels"].astype(float) - pix.astype(float)).mean()) < 64.0


@given(
    pix=hnp.arrays(dtype=np.uint8, shape=st.tuples(st.integers(1, 16), st.integers(1, 16))),
    rst=st.integers(0, 4),
)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_jpeg_restart_interval_never_changes_pixels(pix, rst):
    from link_profiler_repo_ray.functions.jpegx import decode_jpeg, encode_jpeg_gray

    plain = decode_jpeg(encode_jpeg_gray(pix), return_pixels=True)["pixels"]
    with_rst = decode_jpeg(encode_jpeg_gray(pix, restart_interval=rst), return_pixels=True)["pixels"]
    assert (plain == with_rst).all()


_word = st.text(alphabet=string.ascii_lowercase, min_size=0, max_size=8)


@given(w=_word, merges=st.lists(st.tuples(_word.filter(bool), _word.filter(bool)), max_size=6))
@settings(max_examples=200, deadline=None)
def test_bpe_split_reconstructs_word(w, merges):
    from link_profiler_repo_ray.pipelines.bpe import bpe_split_word

    syms = bpe_split_word(w, merges)
    # segmentation is lossless: concatenating subwords restores word + EOW
    assert "".join(syms) == w + "</w>"
    assert all(s for s in syms)


# --- the batch parse kernel against the per-row references -----------------

import parse_reference as ref  # noqa: E402

# href pieces: planted hrefs, and scheme/path fragments glued to random
# text (quotes, tags, escapes, tabs, non-ASCII and the case-fold letters
# U+017F and U+212A included)
_href_char = st.sampled_from(list("aZ09./:?#&=%;@_-~ \t\n<>'\"ſKäİ") + ["%41", "..", "//"])
_href_tail = st.lists(_href_char, max_size=12).map("".join)
_href = st.one_of(
    st.sampled_from(ref.PLANTED_HREFS),
    st.builds(
        lambda head, tail: head + tail,
        st.sampled_from(["https://", "HTTP://h.example.com", "//", "/", "../", "mailto:", "ftp://", ""]),
        _href_tail,
    ),
)
_page = st.tuples(
    st.sampled_from(ref.PLANTED_BASES),
    st.lists(_href, max_size=6),
    st.one_of(st.sampled_from(ref.PLANTED_TEXTS), st.text(max_size=120)),
    st.one_of(st.none(), _href),
)


@given(pages=st.lists(_page, min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_parse_batch_equals_per_page_references(pages):
    urls = [base for base, _, _, _ in pages]
    htmls = [ref.page_html(hrefs, text, canonical=canon) for _, hrefs, text, canon in pages]
    ref.assert_batch_equals_reference(urls, htmls)


@given(texts=st.lists(st.one_of(st.text(max_size=200), _doc, st.sampled_from(ref.PLANTED_TEXTS)), max_size=8))
@settings(max_examples=150, deadline=None)
def test_quality_table_equals_per_text_reference(texts):
    from link_profiler_repo_ray.functions.quality import quality_table

    assert quality_table(texts).to_pylist() == [ref.quality_metrics(t) for t in texts]
