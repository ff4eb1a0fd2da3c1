"""Distributed BPE tokenizer training + application.

The one tokenizer-side workload of a training-data pipeline the repo
did not yet cover: LEARNING the merge table (Sennrich et al. 2016,
"Neural Machine Translation of Rare Words with Subword Units") from
the corpus, then applying it.  The reference has no analogue (its NLP
surface is the remote ``ai_service``); this is part of the
training-data extension family (SURVEY §2 extensions).

Scale shape:

- **word histogram first** (the classic BPE trick): training operates
  on the DISTINCT-word → corpus-count table, not on raw text.  One
  token-keyed exchange collapses the 100-TB corpus to a vocab-scale
  histogram (Zipf: ~10⁶ distinct words for web text), and every merge
  round after that touches only the histogram.
- **each merge round** = one vectorized pair-count pass over the
  histogram (map_batches partials → ``hash_aggregate`` keyed pair →
  ``block_topk`` for the argmax) + a driver-side broadcast of ONE
  winning pair.  k merges = k small bounded exchanges; pair tables
  are vocab-scale, never corpus-scale.
- **ties break deterministically** (count desc, then lexicographic
  (left, right) asc) so the distributed argmax equals the sequential
  oracle's bit-for-bit — the pytest oracle re-learns the merge list
  with an independent pure-Python implementation.
- **apply** is embarrassingly parallel: the merge table broadcasts
  once via ``ray.put``; each actor memoizes word → subword splits
  (Zipf again: the cache hit-rate makes per-word merge application
  amortize to a dict lookup).

The histogram materializes on the driver-coordinated loop ONLY as a
Dataset (never collected); the one driver scalar per round is the
winning pair.  Iterative + stateful ⇒ pytest-oracled (no SQL oracle),
same class as PageRank/HyperBall.
"""

from __future__ import annotations

import polars as pl
import pyarrow as pa
import ray
import ray.data as rd

from .. import ops
from ..functions import tokens
from ..ops import hash_aggregate, hash_group_apply
from .textdata import _token_totals, scan_documents

__all__ = ["bpe_train", "bpe_apply_counts", "bpe_learn_merges", "bpe_split_word", "bpe_sequence_packing"]

# end-of-word marker (the standard '</w>' sentinel keeps merges from
# crossing word boundaries)
_EOW = "</w>"


def bpe_split_word(w: str, merges: list[tuple[str, str]]) -> list[str]:
    """Sequential merge application: chars + EOW, then each learned
    merge in rank order (the standard greedy BPE segmenter)."""
    syms = list(w) + [_EOW]
    for a, b in merges:
        i = 0
        merged = []
        while i < len(syms):
            if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                merged.append(a + b)
                i += 2
            else:
                merged.append(syms[i])
                i += 1
        syms = merged
    return syms


def bpe_learn_merges(hist: list[tuple[str, int]], k: int) -> list[tuple[str, str, int]]:
    """Pure-python sequential BPE on a (word, count) histogram — the
    oracle the distributed trainer must match exactly."""
    splits = {w: list(w) + [_EOW] for w, _ in hist}
    merges: list[tuple[str, str, int]] = []
    for _ in range(k):
        pairs: dict[tuple[str, str], int] = {}
        for w, n in hist:
            syms = splits[w]
            for a, b in zip(syms, syms[1:]):
                pairs[(a, b)] = pairs.get((a, b), 0) + n
        if not pairs:
            break
        (a, b), cnt = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        if cnt < 2:
            break
        merges.append((a, b, cnt))
        for w in splits:
            syms = splits[w]
            i = 0
            out = []
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                    out.append(a + b)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            splits[w] = out
    return merges


def bpe_train(sf_dir: str, k: int = 24) -> rd.Dataset:
    """Learn the top-``k`` BPE merges from the documents table.

    Output: one row per learned merge —
    ``(rank, left, right, pair_count)`` in learning order.
    """
    # the word histogram (the corpus (w, c) aggregate, empty word
    # dropped) split into current symbols is the iterative state: a
    # Dataset of (syms: list<str>, n) rows, histogram-scale (bounded by
    # the vocabulary)
    def init_splits(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch).filter(pl.col("w") != "")
        return df.select(
            pl.col("w")
            .map_elements(lambda w: list(w) + [_EOW], return_dtype=pl.List(pl.Utf8))
            .alias("syms"),
            pl.col("c").alias("n"),
        ).to_arrow()

    state = ops.map_blocks(_token_totals(sf_dir), init_splits)

    merges: list[tuple[str, str, int]] = []
    for rank in range(k):
        def pair_partials(batch: pa.Table) -> pa.Table:
            df = pl.from_arrow(batch)
            return (
                df.with_columns(
                    pl.col("syms").list.slice(0, pl.col("syms").list.len() - 1).alias("a"),
                    pl.col("syms").list.slice(1).alias("b"),
                )
                .explode("a", "b")
                .drop_nulls()
                .group_by("a", "b")
                .agg(pl.col("n").sum().alias("cnt"))
                .to_arrow()
            )

        pair_counts = hash_aggregate(
            state.map_batches(pair_partials, batch_format="pyarrow", zero_copy_batch=True),
            ["a", "b"],
            combine=[pl.col("cnt").sum().alias("cnt")],
            merge=[pl.col("cnt").sum()],
        )

        # distributed argmax with the oracle's exact tie order:
        # block-local top-1 partials, tiny driver-side final pick
        def block_top(batch: pa.Table) -> pa.Table:
            df = pl.from_arrow(batch)
            return df.sort(["cnt", "a", "b"], descending=[True, False, False]).head(1).to_arrow()

        tops = ops.collect_table(
            pair_counts.map_batches(block_top, batch_format="pyarrow", zero_copy_batch=True)
        )  # <= one row per block — bounded by design
        if tops.num_rows == 0:
            break
        best = (
            pl.from_arrow(tops)
            .sort(["cnt", "a", "b"], descending=[True, False, False])
            .head(1)
        )
        a, b, cnt = best["a"][0], best["b"][0], int(best["cnt"][0])
        if cnt < 2:
            break
        merges.append((a, b, cnt))

        # broadcast the ONE winning pair; vectorized merge application
        def apply_merge(batch: pa.Table, a=a, b=b) -> pa.Table:
            df = pl.from_arrow(batch)

            def merge_syms(syms: list[str]) -> list[str]:
                i = 0
                out = []
                while i < len(syms):
                    if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                        out.append(a + b)
                        i += 2
                    else:
                        out.append(syms[i])
                        i += 1
                return out

            return df.with_columns(
                pl.col("syms").map_elements(merge_syms, return_dtype=pl.List(pl.Utf8))
            ).to_arrow()

        state = state.map_batches(
            apply_merge, batch_format="pyarrow", zero_copy_batch=True
        ).materialize()

    return rd.from_arrow(
        pa.table(
            {
                "rank": pa.array(range(len(merges)), pa.int64()),
                "left": pa.array([m[0] for m in merges], pa.string()),
                "right": pa.array([m[1] for m in merges], pa.string()),
                "pair_count": pa.array([m[2] for m in merges], pa.int64()),
            }
        )
    )


def _load_merges_ref(sf_dir: str, k: int):
    """Train k merges and broadcast the merge list once (shared by
    bpe_apply_counts and bpe_sequence_packing)."""
    merges_tbl = bpe_train(sf_dir, k).to_pandas()
    # a 0-row Dataset can surface schema-less in pandas (k=0 / early stop)
    merges = (
        list(zip(merges_tbl["left"], merges_tbl["right"]))
        if "left" in merges_tbl.columns
        else []
    )
    return ray.put(merges)


def _subword_counts(word_lists, merges) -> list[int]:
    """Per-row total subword counts with a word→split memo (Zipf
    hit-rate makes the cache the fast path)."""
    cache: dict[str, int] = {}
    out = []
    for ws in word_lists:
        total = 0
        for w in ws:
            hit = cache.get(w)
            if hit is None:
                hit = len(bpe_split_word(w, merges))
                cache[w] = hit
            total += hit
        out.append(total)
    return out


def bpe_apply_counts(sf_dir: str, k: int = 24) -> rd.Dataset:
    """Train ``k`` merges, then tokenize every document with them.

    Output: (doc_id, n_subwords, n_words) — the packing/budgeting
    input.  The merge table broadcasts once via ``ray.put``; each task
    memoizes word → split (Zipf hit-rate)."""
    ref = _load_merges_ref(sf_dir, k)

    def run(batch: pa.Table) -> pa.Table:
        ms = ray.get(ref)
        df = pl.from_arrow(batch)
        words = df.select(tokens.words()).to_series()
        n_sub = _subword_counts(words, ms)
        n_words = [len(ws) for ws in words]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_subwords": pa.array(n_sub, pa.int64()),
                "n_words": pa.array(n_words, pa.int64()),
            }
        )

    return scan_documents(sf_dir, ["doc_id", "text"], run)


def bpe_sequence_packing(sf_dir: str, k: int = 24, budget: int = 512) -> rd.Dataset:
    """Trained-tokenizer sequence packing — closes the
    train-tokenizer → tokenize → pack loop the way ``encode_corpus``
    closed chunk → encode → index.

    ``bpe_train``'s merge list broadcasts once via ``ray.put``; one
    pruned documents pass tokenizes per doc (memoized word → split,
    Zipf hit-rate) emitting only ``(doc_id, source, n_tokens)`` — no
    text crosses the exchange — and the greedy first-fit pack runs
    per source inside one hash partition
    (:func:`..textdata.greedy_pack_partition`, the exact scan
    ``sequence_packing`` uses, so the pytest oracle replays it
    sequentially on a sequentially-trained tokenizer).
    """
    from .textdata import greedy_pack_partition

    ref = _load_merges_ref(sf_dir, k)

    def count(batch: pa.Table) -> pa.Table:
        ms = ray.get(ref)
        df = pl.from_arrow(batch)
        n_sub = _subword_counts(df.select(tokens.words()).to_series(), ms)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "source": batch.column("source"),
                "n_tokens": pa.array(n_sub, pa.int64()),
            }
        )

    counts = scan_documents(sf_dir, ["doc_id", "source", "text"], count)
    return hash_group_apply(
        counts, ["source"], lambda df: greedy_pack_partition(df, budget)
    )
