"""The word rule and token frames of ``functions.tokens`` against
pure-Python references (``str.split(" ")``, zip-window n-grams,
``Counter``) and DuckDB's ``string_split`` on edge texts."""

from collections import Counter

import duckdb
import polars as pl
import pytest

from link_profiler_repo_ray.functions import tokens

# empty, one word, doubled / leading / trailing spaces, only spaces, a
# tab inside a word, repeats, and texts shorter than every n below
EDGE = ["", "one", "a  b", " lead", "trail ", "  ", "x\ty z", "a a a a", "p q", "a b c d e f"]


def _frame() -> pl.DataFrame:
    return pl.DataFrame(
        {"doc_id": list(range(len(EDGE))), "text": EDGE}, schema={"doc_id": pl.Int64, "text": pl.Utf8}
    )


def _ref_words(text: str) -> list[str]:
    return text.split(" ")


def test_words_equal_python_and_duckdb_split():
    got = _frame().select(tokens.words()).to_series().to_list()
    con = duckdb.connect()
    for text, ws in zip(EDGE, got):
        assert ws == _ref_words(text), text
        assert ws == con.execute("SELECT string_split(?, ' ')", [text]).fetchone()[0], text
        assert len(ws) == con.execute("SELECT len(string_split(?, ' '))", [text]).fetchone()[0]
    n = _frame().select(tokens.n_words()).to_series()
    assert n.dtype == pl.Int64
    assert n.to_list() == [len(_ref_words(t)) for t in EDGE]


def test_exploded_keeps_text_order_and_contiguous_docs():
    got = tokens.exploded(_frame(), ["doc_id"])
    assert got.columns == ["doc_id", "w"]
    want = [(d, w) for d, t in enumerate(EDGE) for w in _ref_words(t)]
    assert list(zip(got["doc_id"].to_list(), got["w"].to_list())) == want


@pytest.mark.parametrize("by", [[], ["doc_id"]])
def test_counts_match_counter(by):
    got = tokens.counts(_frame(), by)
    assert got.columns == [*by, "w", "c"]
    assert got.schema["c"] == pl.Int64
    if by:
        want = Counter((d, w) for d, t in enumerate(EDGE) for w in _ref_words(t))
        rows = {(d, w): c for d, w, c in got.iter_rows()}
    else:
        want = Counter(w for t in EDGE for w in _ref_words(t))
        rows = {w: c for w, c in got.iter_rows()}
    assert rows == dict(want)


def test_counts_names_its_columns():
    got = tokens.counts(_frame(), ["doc_id"], "term", "tf")
    assert got.columns == ["doc_id", "term", "tf"]


def test_distinct_is_each_documents_word_set():
    got = tokens.distinct(_frame())
    assert got.columns == ["doc_id", "token"]
    assert got.height == got.unique().height
    want = {(d, w) for d, t in enumerate(EDGE) for w in set(_ref_words(t))}
    assert set(got.iter_rows()) == want


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_windows_match_zip_reference(n):
    got = tokens.windows(_frame(), n)
    assert got.columns == ["doc_id", "ngram"]
    want = []
    for d, t in enumerate(EDGE):
        ws = _ref_words(t)
        want += [(d, " ".join(g)) for g in zip(*(ws[k:] for k in range(n)))]
    assert list(got.iter_rows()) == want


def test_window_is_null_past_the_end_of_a_document():
    ex = tokens.exploded(_frame(), ["doc_id"]).with_columns(g=tokens.window(2))
    for d, t in enumerate(EDGE):
        ws = _ref_words(t)
        grams = ex.filter(pl.col("doc_id") == d)["g"].to_list()
        assert grams == [f"{a} {b}" for a, b in zip(ws, ws[1:])] + [None], t


def test_windows_carry_extra_keys():
    df = _frame().with_columns(is_test=pl.col("doc_id") % 2 == 0)
    got = tokens.windows(df, 2, ["doc_id", "is_test"])
    assert got.columns == ["doc_id", "is_test", "ngram"]
    assert (got["is_test"] == (got["doc_id"] % 2 == 0)).all()
