"""End-to-end corpus curation: the composed pipeline a user runs
between a crawl and the tokenizer.

One flow chains the individual curation operators
(``pipelines/textdata.py``) the way a 100-TB pretraining run would:

    read → clean/normalize → quality gates → exact dedup → PII scrub
         → write partitioned Parquet corpus → pack → write bin map

Scale shape:
- The cleaning/gating/scrubbing stages are embarrassingly parallel
  map waves (``ops.scan`` / ``ops.map_blocks``, no exchange).
- Document text crosses exactly ONE exchange — the dedup partition by
  ``hash(text_clean)``; identical texts co-locate, survivors keep the
  minimum ``doc_id`` (ties impossible: doc_id is unique).
- The curated corpus is written as Parquet partitioned by ``source``
  (one directory per source — a failed run can skip finished
  partitions and downstream readers prune by source).
- Sequence packing runs over the *persisted* corpus with a pruned
  read (doc_id, source, n_tokens only — text never re-read), so the
  two consumptions of the curated set don't re-execute the pipeline.

Reference parity: the reference cleans + validates content inline in
its crawl loop (utils/content_validator.py:87-101) and has no corpus
curation surface; this pipeline is part of the training-data extension
mandate (SURVEY.md §2 addendum).
"""

from __future__ import annotations

import os

import polars as pl
import pyarrow as pa
import ray.data as rd

from .. import ops
from ..ops import hash_aggregate, hash_group_apply
from .textdata import _PII_PATTERNS, clean_words, greedy_pack_partition

__all__ = ["curate_dataset", "curated_documents", "curate_pages", "curate_corpus"]

MIN_CHARS = 150
MIN_TOKENS = 30
MIN_UNIQUE_RATIO = 0.45


def _clean_and_gate(batch: pa.Table) -> pa.Table:
    """Normalize text and drop documents failing the quality gates.

    ``textdata.clean_words``' op chain (lowercase → collapse whitespace
    → trim → drop consecutive duplicate tokens), then length, token and
    unique-ratio gates evaluated on the CLEANED token list.
    """
    out = (
        clean_words(pl.from_arrow(batch))
        .with_columns(
            pl.col("_kept").list.len().cast(pl.Int64).alias("n_tokens"),
            (
                pl.col("_kept").list.n_unique().cast(pl.Float64)
                / pl.col("_kept").list.len()
            ).alias("_uniq"),
        )
        .filter(
            (pl.col("n_chars") >= MIN_CHARS)
            & (pl.col("n_tokens") >= MIN_TOKENS)
            & (pl.col("_uniq") >= MIN_UNIQUE_RATIO)
        )
        .select(
            "doc_id",
            "source",
            "n_tokens",
            pl.col("_kept").list.join(" ").alias("text_clean"),
        )
    )
    return out.to_arrow()


def _dedup_partition(df: pl.DataFrame) -> pl.DataFrame:
    # complete text_clean groups per partition: min-doc_id survivor
    return df.filter(pl.col("doc_id") == pl.col("doc_id").min().over("text_clean"))


def _scrub(batch: pa.Table) -> pa.Table:
    df = pl.from_arrow(batch)
    red = pl.col("text_clean")
    for tag, pat in _PII_PATTERNS:
        red = red.str.replace_all(pat, f"[{tag}]")
    return df.select(
        "doc_id", "source", "n_tokens", red.alias("text_curated")
    ).to_arrow()


def curate_dataset(ds: rd.Dataset) -> rd.Dataset:
    """Core clean → gates → dedup → scrub flow over ANY dataset with
    columns (doc_id:int, source:str, text:str, n_chars:int) — the
    documents table, a crawled page corpus, a WARC read, etc.
    Document text crosses exactly one exchange (the dedup partition).
    """
    cleaned = ops.map_blocks(ds, _clean_and_gate)
    survivors = hash_group_apply(cleaned, ["text_clean"], _dedup_partition)
    return ops.map_blocks(survivors, _scrub)


def curated_documents(sf_dir: str) -> rd.Dataset:
    """The curation pipeline up to (and including) the scrub — the
    SQL-checkable registry surface.  Columns: (doc_id, source,
    n_tokens, text_curated); one row per surviving document.
    """
    return curate_dataset(ops.scan(os.path.join(sf_dir, "documents.parquet"),
                                   ["doc_id", "source", "text", "n_chars"]))


def curate_pages(pages: rd.Dataset) -> rd.Dataset:
    """Adapter: run the curation flow over a crawled PAGES corpus
    (url, text, ... — the BASELINE input shape).  doc_id is the 64-bit
    url hash (cast to int64 — only used as a deterministic dedup
    tiebreak), source is the url's host."""
    def shape(batch: pa.Table) -> pa.Table:
        # fully vectorized (this runs over EVERY corpus page in the
        # bench): xxhash for doc_id — same kernel as canonical.url_hash64
        # — and a regex host extract (crawl-corpus urls are already
        # canonical lowercase, so no per-row urlsplit needed)
        df = pl.from_arrow(batch)
        return df.select(
            pl.col("url")
            .hash(seed=0)
            .reinterpret(signed=True)
            .alias("doc_id"),
            pl.col("url").str.extract(r"^[a-z][a-z0-9+.-]*://([^/?#]+)").alias("source"),
            "text",
            pl.col("text").str.len_chars().cast(pl.Int64).alias("n_chars"),
        ).to_arrow()

    return curate_dataset(ops.map_blocks(pages, shape))


def curate_corpus(sf_dir: str, out_dir: str, budget: int = 512) -> dict:
    """Run the full pipeline and persist both artifacts:

    - ``{out_dir}/corpus/source=<s>/*.parquet`` — curated documents,
      partitioned by source (resumable layout)
    - ``{out_dir}/bins/*.parquet`` — greedy sequence-packing bin map
      (doc_id → bin_id, bin_tokens) computed from the persisted corpus
      with a text-free pruned read

    Returns a small manifest dict (all O(1) counters).
    """
    corpus_dir = os.path.join(out_dir, "corpus")
    bins_dir = os.path.join(out_dir, "bins")

    curated_documents(sf_dir).write_parquet(corpus_dir, partition_cols=["source"])

    import glob as _glob

    if not _glob.glob(os.path.join(corpus_dir, "**", "*.parquet"), recursive=True):
        # every document gated out: an empty-but-valid run, not an error
        os.makedirs(bins_dir, exist_ok=True)
        return {
            "n_docs_curated": 0,
            "n_bins": 0,
            "total_tokens": 0,
            "budget": budget,
            "corpus_dir": corpus_dir,
            "bins_dir": bins_dir,
        }

    thin = ops.read_parquet(corpus_dir, columns=["doc_id", "source", "n_tokens"])
    packed = hash_group_apply(
        thin, ["source"], lambda df: greedy_pack_partition(df, budget)
    )
    packed.write_parquet(bins_dir)

    # manifest counters: collapse to one row per bin first (a bin's rows
    # may span file/batch boundaries after the write), then reduce each
    # block to O(1) counters — the driver only ever sums tiny partials
    bins = ops.scan(bins_dir, ["doc_id", "bin_id", "bin_tokens"])
    per_bin = hash_aggregate(
        bins,
        ["bin_id"],
        combine=[pl.len().cast(pl.Int64).alias("n_docs"), pl.col("bin_tokens").first()],
        merge=[pl.col("n_docs").sum(), pl.col("bin_tokens").first()],
    )

    def _part_stats(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        return pl.DataFrame(
            {
                "n_docs": [int(df.get_column("n_docs").sum() or 0)],
                "n_bins": [df.height],
                "total_tokens": [int(df.get_column("bin_tokens").sum() or 0)],
            }
        ).to_arrow()

    agg = pl.from_arrow(ops.collect_table(ops.map_blocks(per_bin, _part_stats)))
    return {
        "n_docs_curated": int(agg.get_column("n_docs").sum()),
        "n_bins": int(agg.get_column("n_bins").sum()),
        "total_tokens": int(agg.get_column("total_tokens").sum()),
        "budget": budget,
        "corpus_dir": corpus_dir,
        "bins_dir": bins_dir,
    }
