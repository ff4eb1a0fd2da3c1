"""BM25 ranked retrieval over the documents table.

Completes the repo's search-index family (``inverted_index`` builds
postings, ``tfidf_top_terms`` extracts keywords): the reference ranks
keyword→URL relevance inside `services/keyword_service.py` and its
SERP analysis (`services/serp_service.py:28-305`) consumes ranked
result lists — this is the batch construction of such a ranking with
the standard Okapi BM25 function (Robertson & Zaragoza 2009) instead
of the reference's remote-API relevance fields.

Scale shape (the inverted-index shape, not a scan-per-query):

- the query set is a tiny LITERAL captured in the stage closure —
  nothing is broadcast, nothing is re-shipped per batch;
- the tokenize stage filters to query terms BEFORE the exchange, so
  the term exchange carries only the matching postings
  ``(doc_id, term, tf, dl)`` — never text, never non-query terms;
- document frequency is a window count WITHIN the term partition
  (rows are (doc, term)-unique), so no second pass and no broadcast
  vocabulary; a hub term's postings stay one contiguous partition run;
- per-term partial scores are quantized to INTEGER micro-units
  before the (query, doc) sum — integer sums are order-free, so the
  result is bit-identical to the DuckDB oracle regardless of
  reduction order (the repo's micro-nat convention,
  cf. :func:`..pipelines.textdata.unigram_logprob`);
- the final per-query top-k runs inside one query partition; at
  10^10 docs swap it for ``ops.block_topk`` per query (block-local
  top-k then single merge), same result.

BM25 constants are fixed module literals (k1=1.2, b=0.75) restated
verbatim in the oracle SQL so the float expression trees match
bit-for-bit (every op is IEEE correctly-rounded; ``ln`` is libm on
both engines, the precedent set by ``tfidf_top_terms``).
"""

from __future__ import annotations

import polars as pl
import pyarrow as pa
import ray.data as rd

from .. import ops
from ..functions import tokens
from ..ops import hash_aggregate, hash_group_apply
from .textdata import scan_documents

__all__ = ["BM25_QUERIES", "bm25_topk"]

# (query_id, space-separated terms) — mirrored verbatim in the oracle
# SQL VALUES list in __ray_entry__.oracle_sql()["bm25_topk"].
BM25_QUERIES: list[tuple[int, str]] = [
    (0, "hash join merge"),
    (1, "window sort order key"),
    (2, "customer line value scan"),
]

_K1 = 1.2
_B = 0.75


def bm25_topk(sf_dir: str, k: int = 10) -> rd.Dataset:
    """Top-``k`` documents per query by Okapi BM25.

    Output: one row per (query_id, rank) with the matched-term count,
    the exact integer micro-score, and its single-division double.
    Ties break by doc_id ascending (total order, deterministic
    cross-engine).
    """
    qmap = pl.DataFrame(
        {
            "query_id": [qid for qid, q in BM25_QUERIES for _ in q.split(" ")],
            "w": [t for _, q in BM25_QUERIES for t in q.split(" ")],
        }
    ).with_columns(pl.col("query_id").cast(pl.Int64))
    qterms = sorted(set(qmap.get_column("w").to_list()))

    # --- ONE documents scan (ADVICE round 4): each block emits its
    # filtered query-term postings PLUS one marker row (doc_id = −1)
    # carrying the block's (doc count, token count) partials in the
    # (tf, dl) columns.  The scan wave's output is bounded by
    # construction — only query-term postings and one row per block
    # ever exist — and gives both the corpus scalars and the postings
    # without a second scan of the documents table.
    def tf_stage(batch: pa.Table) -> pa.Table:
        df = (
            pl.from_arrow(batch)
            .select("doc_id", tokens.words().alias("w"))
            .with_columns(dl=pl.col("w").list.len().cast(pl.Int64))
        )
        posts = (
            df.explode("w")
            .filter(pl.col("w").is_in(qterms))
            .group_by("doc_id", "w", "dl")
            .len("tf")
            .with_columns(pl.col("tf").cast(pl.Int64))
            .select("doc_id", "w", "dl", "tf")
        )
        marker = pl.DataFrame(
            {
                "doc_id": pl.Series([-1], dtype=pl.Int64),
                "w": pl.Series([""], dtype=pl.Utf8),
                "dl": pl.Series([int(df.get_column("dl").sum())], dtype=pl.Int64),
                "tf": pl.Series([df.height], dtype=pl.Int64),
            }
        )
        return pl.concat([posts, marker]).to_arrow()

    scanned = scan_documents(sf_dir, ["doc_id", "text"], tf_stage)

    def _keep(neg: bool):
        def fn(batch: pa.Table) -> pa.Table:
            df = pl.from_arrow(batch)
            return df.filter(
                pl.col("doc_id") < 0 if neg else pl.col("doc_id") >= 0
            ).to_arrow()

        return fn

    markers = ops.collect_table(ops.map_blocks(scanned, _keep(True)))
    n_docs = sum(markers.column("tf").to_pylist())
    if not n_docs:
        # no documents: no corpus scalars, nothing to rank
        return rd.from_arrow(pa.schema(
            [(c, pa.int64()) for c in ("query_id", "rank", "doc_id", "n_terms", "score_micro")]
            + [("score", pa.float64())]
        ).empty_table())
    total_tok = sum(markers.column("dl").to_pylist())
    # exactly the oracle's CAST(tot AS DOUBLE) / CAST(n AS DOUBLE)
    avgdl = float(total_tok) / float(n_docs)
    n_f = float(n_docs)

    postings = ops.map_blocks(scanned, _keep(False))

    # --- term partition: df window count + per-row micro score ------
    def score_rows(df: pl.DataFrame) -> pl.DataFrame:
        tf_d = pl.col("tf").cast(pl.Float64)
        df_d = pl.col("df_").cast(pl.Float64)
        dl_d = pl.col("dl").cast(pl.Float64)
        idf = ((pl.lit(n_f) - df_d + 0.5) / (df_d + 0.5) + 1.0).log()
        # multiply by the precomputed reciprocal instead of dividing by
        # avgdl: polars rewrites division-by-scalar into multiply-by-
        # reciprocal anyway, so forcing the same reciprocal-multiply on
        # BOTH sides (the oracle SQL restates 1.0/avgdl verbatim) keeps
        # the expression trees bit-identical instead of 1-ULP apart
        tfn = (tf_d * (_K1 + 1.0)) / (tf_d + _K1 * ((1.0 - _B) + _B * (dl_d * (1.0 / avgdl))))
        return (
            df.with_columns(df_=pl.len().over("w").cast(pl.Int64))
            .with_columns(s_micro=(idf * tfn * 1_000_000.0 + 0.5).floor().cast(pl.Int64))
            .join(qmap, on="w", how="inner")
            .select("query_id", "doc_id", "s_micro")
        )

    scored = hash_group_apply(postings, ["w"], score_rows)

    # --- (query, doc) integer sum — order-free -----------------------
    agg = hash_aggregate(
        scored,
        ["query_id", "doc_id"],
        combine=[pl.len().cast(pl.Int64).alias("n_terms"), pl.col("s_micro").sum().alias("score_micro")],
        merge=[pl.col("n_terms").sum(), pl.col("score_micro").sum()],
    )

    # --- per-query top-k ---------------------------------------------
    def topk(df: pl.DataFrame) -> pl.DataFrame:
        return (
            df.sort(["query_id", "score_micro", "doc_id"], descending=[False, True, False])
            .with_columns(rank=pl.int_range(pl.len()).over("query_id") + 1)
            .filter(pl.col("rank") <= k)
            # multiply by the 1e-6 double constant instead of dividing:
            # polars rewrites /const into *reciprocal, which is 1 ULP off
            # DuckDB's true division — a shared multiply is bit-identical
            .with_columns(score=pl.col("score_micro").cast(pl.Float64) * 0.000001)
            .select("query_id", "rank", "doc_id", "n_terms", "score_micro", "score")
        )

    return hash_group_apply(agg, ["query_id"], topk)
