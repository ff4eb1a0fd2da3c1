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
- **each merge round** = waves of plain Ray tasks, no Ray Data
  execution: a map wave (``ops.map_blocks``) applies the previous
  round's winning merge to the histogram's blocks; one exchange
  (``ops._exchange``) counts the symbol pairs per route chunk, sums
  them per hash partition and keeps each partition's top pair; the
  driver picks the winner from at most P rows.  k merges = k small
  bounded exchanges; pair tables are vocab-scale, never corpus-scale.
- **ties break deterministically** (count desc, then lexicographic
  (left, right) asc) so the distributed argmax equals the sequential
  oracle's bit-for-bit — the pytest oracle re-learns the merge list
  with an independent pure-Python implementation.
- **one merge step** (:func:`_merge`): training applies each winner
  with it and the segmenter :func:`bpe_split_word` replays the merge
  list with it.
- **apply** is embarrassingly parallel: the trainer's merge list
  broadcasts once via ``ray.put``; each scan task memoizes word →
  subword splits (Zipf again: the cache hit-rate makes per-word merge
  application amortize to a dict lookup).

The histogram lives only as the blocks of a materialized Dataset
(never collected); the one driver scalar per round is the winning
pair.  Iterative + stateful ⇒ pytest-oracled (no SQL oracle), same
class as PageRank/HyperBall.
"""

from __future__ import annotations

import polars as pl
import pyarrow as pa
import ray
import ray.data as rd

from .. import ops
from ..functions import tokens
from ..ops import hash_group_apply
from .textdata import _token_totals, scan_documents

__all__ = ["bpe_train", "bpe_apply_counts", "bpe_split_word", "bpe_sequence_packing"]

# end-of-word marker (the standard '</w>' sentinel keeps merges from
# crossing word boundaries)
_EOW = "</w>"

# the oracle's pair order: count desc, then (left, right) asc
_BEST = {"by": ["cnt", "a", "b"], "descending": [True, False, False]}


def _merge(syms: list[str], a: str, b: str) -> list[str]:
    """One merge step: left to right, each ``a`` directly followed by
    ``b`` becomes ``a + b`` (matches never overlap)."""
    out, i = [], 0
    while i < len(syms):
        if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def bpe_split_word(w: str, merges: list[tuple[str, str]]) -> list[str]:
    """Sequential merge application: chars + EOW, then each learned
    merge in rank order (the standard greedy BPE segmenter)."""
    syms = list(w) + [_EOW]
    for a, b in merges:
        syms = _merge(syms, a, b)
    return syms


def _split_words(batch: pa.Table) -> pa.Table:
    """Map wave of the first round: the ``(w, c)`` histogram (empty word
    dropped) as ``(syms, n)``, each word split into chars + EOW."""
    df = pl.from_arrow(batch).filter(pl.col("w") != "")
    syms = [list(w) + [_EOW] for w in df["w"]]
    return pa.table({"syms": pa.array(syms, pa.list_(pa.string())), "n": df["c"].to_arrow()})


def _apply_merge(batch: pa.Table, a: str, b: str) -> pa.Table:
    """Map wave of a later round: the previous winner merged into every
    word's symbols."""
    syms = [_merge(s, a, b) for s in batch.column("syms").to_pylist()]
    return batch.set_column(0, "syms", pa.array(syms, pa.list_(pa.string())))


def _pair_counts(df: pl.DataFrame) -> pl.DataFrame:
    """Route-chunk combine: every neighbour symbol pair ``(a, b)`` with
    ``cnt``, the summed counts of the words it occurs in."""
    return (
        df.select(
            pl.col("syms").list.slice(0, pl.col("syms").list.len() - 1).alias("a"),
            pl.col("syms").list.slice(1).alias("b"),
            "n",
        )
        .explode("a", "b")
        .drop_nulls()
        .group_by("a", "b")
        .agg(pl.col("n").sum().alias("cnt"))
    )


def _top_pair(df: pl.DataFrame) -> pl.DataFrame:
    """Merge wave (one partition): its pair counts summed, then its best
    pair in the oracle's order."""
    return df.group_by("a", "b").agg(pl.col("cnt").sum()).sort(**_BEST).head(1)


def _learn(sf_dir: str, k: int) -> list[tuple[str, str, int]]:
    """The merge loop behind every query here: up to ``k`` merges
    ``(left, right, pair_count)`` in learning order.  The word histogram
    (``_token_totals``) split into symbols is the state, a materialized
    Dataset of ``(syms, n)`` rows; a round is a map wave, one pair
    exchange and a pick on the driver from at most P rows.  Learning
    stops when no pair occurs at least twice."""
    merges: list[tuple[str, str, int]] = []
    for rnd in range(k):
        if rnd == 0:
            state = ops.map_blocks(_token_totals(sf_dir), _split_words)
        else:
            a, b, _ = merges[-1]
            state = ops.map_blocks(state, lambda t, a=a, b=b: _apply_merge(t, a, b))
        tops = ops.collect_table(ops._exchange(
            [(state, ["a", "b"], _pair_counts, None)], _top_pair, None, ops.DEFAULT_EXCHANGE_BATCH
        ))
        if tops.num_rows == 0:
            break
        a, b, cnt = pl.from_arrow(tops).sort(**_BEST).row(0)
        if cnt < 2:
            break
        merges.append((a, b, cnt))
    return merges


def bpe_train(sf_dir: str, k: int = 24) -> rd.Dataset:
    """Learn the top-``k`` BPE merges from the documents table.

    Output: one row per learned merge —
    ``(rank, left, right, pair_count)`` in learning order.
    """
    merges = _learn(sf_dir, k)
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
    ref = ray.put([(a, b) for a, b, _ in _learn(sf_dir, k)])

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

    The trainer's merge list broadcasts once via ``ray.put``; one
    pruned documents pass tokenizes per doc (memoized word → split,
    Zipf hit-rate) emitting only ``(doc_id, source, n_tokens)`` — no
    text crosses the exchange — and the greedy first-fit pack runs
    per source inside one hash partition
    (:func:`..textdata.greedy_pack_partition`, the exact scan
    ``sequence_packing`` uses, so the pytest oracle replays it
    sequentially on a sequentially-trained tokenizer).
    """
    from .textdata import greedy_pack_partition

    ref = ray.put([(a, b) for a, b, _ in _learn(sf_dir, k)])

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
