"""Distributed trained quality classifier (logistic regression via
order-free integer-quantized gradient exchange).

The reference's AI service scores page quality with an LLM
(``services/ai_service.py:207-295``); this repo's :class:`AIScoreStage`
reproduces that surface with a deterministic closed-form scorer
(stages/stages.py:163).  This module closes the remaining gap between
"a model stage exists" and "a model is TRAINED here": following the
FineWeb-Edu recipe (Penedo et al. 2024 — annotate documents with an
LLM quality score, then distil those labels into a cheap linear
classifier that scales to the full corpus), it trains a logistic
regression on the AIScoreStage labels with full-batch gradient
descent, where each epoch is one streaming pass over a feature table.

Why this shape survives 100 TB:

- **Featurize once per query.** The text is read in ONE pruned scan
  wave and reduced to ``_DIM`` float64 features + one int8 label per
  document (~50 B/doc — a 10^10-doc corpus becomes ~500 GB of features
  spread across the cluster object store).  The scan's blocks stay in
  the object store for the query's epochs, so the text is never
  re-read; nothing outlives the call that made it.
- **Per-epoch exchange is O(#blocks · DIM).** Each epoch is one wave
  of a task per feature block, and each block emits ONE partial row:
  its row count plus per-dimension gradient sums quantized to integer
  micro-units *per row before summing*, so block sums are exact int64
  arithmetic and the total is independent of row placement and reduce
  order — the distributed learner's weight
  trajectory is bit-identical to a sequential learner's
  (tests/test_classifier.py proves it).
- **Weights broadcast, never re-learned per block.** The 6-float
  weight vector rides the task closure each epoch (it IS the
  broadcast; at this size ``ray.put`` indirection would cost more
  than it saves).
- **The driver holds O(epochs · DIM) state** — no per-document data
  ever reaches it.

Integer-quantization discipline is the same micro-unit rule as
``unigram_logprob`` / ``dsir_scores`` (textdata.py): quantize each
row's contribution with ``floor(v·1e6 + 0.5)`` THEN sum, making
distributed float reduction order-free by never reducing floats.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import ray.data as rd

from .. import ops
from .textdata import scan_documents

__all__ = [
    "featurize",
    "quality_classifier_train",
    "quality_classifier_scores",
    "quality_classifier_eval",
    "train_weights",
]

_DIM = 5  # bias, n_chars/1e3, n_e/1e2, n_spaces/1e2, n_digits/1e2
_Q = 1_000_000  # micro-unit quantization denominator
_EPS = 1e-12  # probability clip for the log-loss
# label rule = the AIScoreStage closed form (stages/stages.py:163):
# y = 1 iff (17 + 3·n_chars + 7·n_e) % 101 >= 40 ("low_quality"+)


def _feature_table(batch: pa.Table) -> pa.Table:
    """text → (doc_id, y, f0..f4) — vectorized polars counts.

    Feature scaling divisors are powers of ten chosen so every
    feature is O(1) on the corpus; they only need to be *identical*
    (not exact binary) on the distributed and sequential sides.
    """
    import polars as pl

    df = pl.from_arrow(batch)
    s = pl.col("text")
    n_chars = s.str.len_chars().cast(pl.Int64)
    n_e = s.str.count_matches("e", literal=True).cast(pl.Int64)
    n_spaces = s.str.count_matches(" ", literal=True).cast(pl.Int64)
    n_digits = s.str.count_matches(r"\d").cast(pl.Int64)
    score = (17 + 3 * n_chars + 7 * n_e) % 101
    out = df.select(
        pl.col("doc_id"),
        (score >= 40).cast(pl.Int8).alias("y"),
        pl.lit(1.0).alias("f0"),
        (n_chars.cast(pl.Float64) / 1000.0).alias("f1"),
        (n_e.cast(pl.Float64) / 100.0).alias("f2"),
        (n_spaces.cast(pl.Float64) / 100.0).alias("f3"),
        (n_digits.cast(pl.Float64) / 100.0).alias("f4"),
    )
    return out.to_arrow()


def featurize(sf_dir: str) -> rd.Dataset:
    """One pruned documents scan → the (doc_id, y, f0..f4) table."""
    return scan_documents(sf_dir, ["doc_id", "text"], _feature_table)


def _batch_xy(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    x = np.column_stack(
        [batch.column(f"f{j}").to_numpy(zero_copy_only=False) for j in range(_DIM)]
    )
    y = batch.column("y").to_numpy(zero_copy_only=False).astype(np.float64)
    return x, y


def _grad_partial(batch: pa.Table, w: np.ndarray) -> pa.Table:
    """One partial row per block: n, per-dim gradient micro-sums, and
    the log-loss micro-sum.  Per-ROW quantization before the sum is
    what makes the epoch reduce order-free."""
    x, y = _batch_xy(batch)
    z = x @ w
    p = 1.0 / (1.0 + np.exp(-z))
    g = (p - y)[:, None] * x  # (n, DIM) per-row gradient contributions
    gq = np.floor(g * _Q + 0.5).astype(np.int64)
    pc = np.clip(p, _EPS, 1.0 - _EPS)
    loss = -(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))
    lq = np.floor(loss * _Q + 0.5).astype(np.int64)
    cols = {"n": pa.array([len(y)], pa.int64())}
    for j in range(_DIM):
        cols[f"g{j}"] = pa.array([int(gq[:, j].sum())], pa.int64())
    cols["loss_micro"] = pa.array([int(lq.sum())], pa.int64())
    return pa.table(cols)


def train_weights(
    feats: rd.Dataset, epochs: int = 6, lr: float = 1.0
) -> tuple[np.ndarray, list[dict]]:
    """Full-batch GD over a (materialized) feature Dataset: per epoch
    one ``ops.map_blocks`` wave of one partial row per block, read back
    to the driver.

    Returns the final weight vector and one record per epoch
    ``{epoch, n, loss_micro, g*_micro, w*_nano(post-step)}``.  All
    driver arithmetic runs on exact int64 gradient totals, so the
    float64 weight trajectory is a pure function of the corpus.
    """
    if epochs < 1:
        raise ValueError("train_weights: epochs must be >= 1")
    w = np.zeros(_DIM, dtype=np.float64)
    curve: list[dict] = []
    for epoch in range(epochs):
        # bounded: one row per block (#blocks × (DIM+2) ints)
        rows = ops.collect_table(ops.map_blocks(feats, lambda b, _w=w: _grad_partial(b, _w)))
        tot = {c: sum(rows.column(c).to_pylist()) for c in rows.column_names}
        n = tot["n"]
        if n == 0:
            raise ValueError("train_weights: empty feature dataset (no documents)")
        g_int = [tot[f"g{j}"] for j in range(_DIM)]
        loss_micro = tot["loss_micro"]
        w = w - lr * (np.array(g_int, dtype=np.float64) / _Q) / float(n)
        rec = {"epoch": epoch, "n": n, "loss_micro": loss_micro}
        for j in range(_DIM):
            rec[f"g{j}_micro"] = g_int[j]
            # nano-quantized post-step weights: exact-int view of the
            # trajectory for the oracle equality assertion
            rec[f"w{j}_nano"] = int(math.floor(w[j] * 1e9 + 0.5))
        curve.append(rec)
    return w, curve


def quality_classifier_train(sf_dir: str, epochs: int = 6, lr: float = 1.0) -> pa.Table:
    """Registry query: the training curve (one row per epoch).

    Iterative distributed training — pytest-oracled against a
    sequential learner (tests/test_classifier.py), no SQL oracle (the
    same class as ``bpe_train`` / PageRank).
    """
    _, curve = train_weights(featurize(sf_dir), epochs=epochs, lr=lr)
    cols = {k: pa.array([r[k] for r in curve], pa.int64()) for k in curve[0]}
    return pa.table(cols)


def quality_classifier_scores(sf_dir: str, epochs: int = 6, lr: float = 1.0) -> rd.Dataset:
    """Registry query: per-document trained-model scores.

    Trains (one feature scan, ``epochs`` gradient waves), then applies
    the final weights in one more wave over the same features:
    ``prob_micro`` is the quantized sigmoid, ``predicted`` the
    0.5-threshold class, ``y`` the AIScoreStage label it was distilled
    from.
    """
    feats = featurize(sf_dir)
    w, _ = train_weights(feats, epochs=epochs, lr=lr)

    def score(batch: pa.Table) -> pa.Table:
        x, y = _batch_xy(batch)
        p = 1.0 / (1.0 + np.exp(-(x @ w)))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "y": batch.column("y").cast(pa.int64()),
                "prob_micro": pa.array(
                    np.floor(p * _Q + 0.5).astype(np.int64), pa.int64()
                ),
                "predicted": pa.array((p >= 0.5).astype(np.int64), pa.int64()),
            }
        )

    return ops.map_blocks(feats, score)


def quality_classifier_eval(sf_dir: str, epochs: int = 6, lr: float = 1.0) -> pa.Table:
    """Registry query: one-row confusion matrix + accuracy of the
    trained classifier against its own distillation labels.

    Counts reduce as integers in one partial row per block of the
    scores this call computes, so the rollup is exact and order-free;
    accuracy_micro = floor(1e6·correct/total + 0.5).  pytest-oracled via the scores
    oracle (tests/test_classifier.py)."""
    scores = quality_classifier_scores(sf_dir, epochs=epochs, lr=lr)

    def part(batch: pa.Table) -> pa.Table:
        y = batch.column("y").to_numpy(zero_copy_only=False)
        p = batch.column("predicted").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "tp": pa.array([int(((y == 1) & (p == 1)).sum())], pa.int64()),
                "tn": pa.array([int(((y == 0) & (p == 0)).sum())], pa.int64()),
                "fp": pa.array([int(((y == 0) & (p == 1)).sum())], pa.int64()),
                "fn": pa.array([int(((y == 1) & (p == 0)).sum())], pa.int64()),
            }
        )

    # bounded: one partial row per block
    rows = ops.collect_table(ops.map_blocks(scores, part))
    tp, tn, fp, fn = (sum(rows.column(c).to_pylist()) for c in ("tp", "tn", "fp", "fn"))
    total = tp + tn + fp + fn
    acc_micro = int(math.floor(1_000_000 * (tp + tn) / total + 0.5)) if total else 0
    return pa.table(
        {
            "tp": pa.array([tp], pa.int64()),
            "tn": pa.array([tn], pa.int64()),
            "fp": pa.array([fp], pa.int64()),
            "fn": pa.array([fn], pa.int64()),
            "n": pa.array([total], pa.int64()),
            "accuracy_micro": pa.array([acc_micro], pa.int64()),
        }
    )
