"""The word rule of the text family, and the token frames built on it.

A word is an element of DuckDB's ``string_split(text, ' ')``, the rule
every text oracle in ``__ray_entry__.oracle_sql()`` tokenizes with: the
text is cut at every single space and empty tokens are kept, so
``''`` is ``['']``, ``'a  b'`` is ``['a', '', 'b']``, ``' x'`` is
``['', 'x']``, and a tab is part of a word.  Python's ``str.split()``
(any whitespace run, no empty tokens) gives other tokens on every one
of those texts; polars' ``str.split(' ')`` gives the same ones as
DuckDB.  Every op with a SQL oracle takes its words from here, so a
quirk an oracle relies on is pinned once, in :func:`words`.

Two families keep ``str.split()``: ``textdata.simhash_dups`` and the
MinHash shingles of ``functions.sketches``.  Neither has a SQL oracle,
and their test-local references split the same way.

Pure polars, no Ray: every helper takes and returns a polars frame or
expression, to be called inside a batch function.
"""

from __future__ import annotations

import polars as pl

__all__ = ["words", "n_words", "exploded", "counts", "distinct", "window", "windows"]


def words(text: pl.Expr = pl.col("text")) -> pl.Expr:
    """The word list of ``text``: ``string_split(text, ' ')``."""
    return text.str.split(" ")


def n_words() -> pl.Expr:
    """``len(string_split(text, ' '))`` as Int64 (1 for an empty text)."""
    return words().list.len().cast(pl.Int64)


def exploded(df: pl.DataFrame, keys: list[str] = (), token: str = "w") -> pl.DataFrame:
    """One row per word occurrence, in text order: the ``keys`` columns
    then the word as ``token``.  A document's rows are contiguous."""
    return df.select(*keys, words().alias(token)).explode(token)


def counts(
    df: pl.DataFrame, by: list[str] = (), token: str = "w", count: str = "c"
) -> pl.DataFrame:
    """Token counts per key: ``(*by, token, count)`` with an Int64
    ``count``; ``by`` is ``["doc_id"]``, ``["source"]``, … or empty for
    the frame's own totals."""
    return (
        exploded(df, by, token)
        .group_by(*by, token)
        .len(count)
        .with_columns(pl.col(count).cast(pl.Int64))
    )


def distinct(df: pl.DataFrame) -> pl.DataFrame:
    """Distinct ``(doc_id, token)`` rows: each document's word set."""
    return exploded(df, ["doc_id"], "token").unique()


def window(n: int) -> pl.Expr:
    """Over an :func:`exploded` frame with ``doc_id`` and ``w``: the
    ``n`` words starting at this row joined by single spaces, null where
    the window runs past the end of its document.  A plain ``shift``
    plus a same-document check on the window's last row (a document's
    rows are contiguous), which measured faster than
    ``shift().over("doc_id")``."""
    gram = pl.concat_str(
        [pl.col("w").shift(-k) for k in range(n)], separator=" ", ignore_nulls=False
    )
    return pl.when(pl.col("doc_id").shift(-(n - 1)) == pl.col("doc_id")).then(gram)


def windows(df: pl.DataFrame, n: int, keys: list[str] = ("doc_id",)) -> pl.DataFrame:
    """Every whole contiguous ``n``-word window: ``(*keys, ngram)``, one
    row per window position (``len - n + 1`` per document, none for a
    document shorter than ``n``).  ``keys`` starts with ``doc_id``."""
    return exploded(df, keys).select(*keys, window(n).alias("ngram")).drop_nulls("ngram")
