"""Distributed logistic-regression trainer vs an independent
sequential learner: the quantized gradient exchange must make the
weight trajectory bit-identical regardless of row partitioning."""

import math
import re

import numpy as np


SF = "/root/testdata/sf0.001"
Q = 1_000_000
DIM = 5
EPS = 1e-12


def _sequential(sf_dir, epochs=6, lr=1.0):
    """Independent reimplementation: plain-Python feature counts, one
    in-memory numpy GD loop, same per-row micro-quantization spec."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    doc_ids = t.column("doc_id").to_pylist()
    feats, labels = [], []
    for text in t.column("text").to_pylist():
        n_chars = len(text)
        n_e = text.count("e")
        n_spaces = text.count(" ")
        n_digits = len(re.findall(r"\d", text))
        feats.append([1.0, n_chars / 1000.0, n_e / 100.0, n_spaces / 100.0, n_digits / 100.0])
        labels.append(1 if (17 + 3 * n_chars + 7 * n_e) % 101 >= 40 else 0)
    x = np.array(feats, dtype=np.float64)
    y = np.array(labels, dtype=np.float64)
    w = np.zeros(DIM)
    curve = []
    for epoch in range(epochs):
        p = 1.0 / (1.0 + np.exp(-(x @ w)))
        gq = np.floor((p - y)[:, None] * x * Q + 0.5).astype(np.int64)
        pc = np.clip(p, EPS, 1.0 - EPS)
        lq = np.floor(-(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)) * Q + 0.5).astype(np.int64)
        g_int = gq.sum(axis=0)
        w = w - lr * (g_int.astype(np.float64) / Q) / float(len(y))
        rec = {"epoch": epoch, "n": len(y), "loss_micro": int(lq.sum())}
        for j in range(DIM):
            rec[f"g{j}_micro"] = int(g_int[j])
            rec[f"w{j}_nano"] = int(math.floor(w[j] * 1e9 + 0.5))
        curve.append(rec)
    p = 1.0 / (1.0 + np.exp(-(x @ w)))
    scores = {
        int(d): (int(yy), int(math.floor(pp * Q + 0.5)), int(pp >= 0.5))
        for d, yy, pp in zip(doc_ids, labels, p)
    }
    return curve, scores


def test_training_curve_matches_sequential_oracle(ray_session):
    from link_profiler_repo_ray.pipelines.classifier import quality_classifier_train

    got = quality_classifier_train(SF).to_pandas()
    want, _ = _sequential(SF)
    assert len(got) == len(want)
    for i, rec in enumerate(want):
        row = got.iloc[i]
        for k, v in rec.items():
            assert int(row[k]) == v, (i, k)


def test_scores_match_sequential_oracle(ray_session):
    from link_profiler_repo_ray.pipelines.classifier import quality_classifier_scores

    got = quality_classifier_scores(SF).to_pandas()
    _, want = _sequential(SF)
    assert len(got) == len(want)
    for r in got.itertuples():
        assert (r.y, r.prob_micro, r.predicted) == want[int(r.doc_id)], r.doc_id


def test_training_actually_learns(ray_session):
    """The distilled model must beat the 'predict majority class'
    baseline on its own labels — i.e. the loss decreases and accuracy
    is non-trivial (the label rule is a deterministic function of two
    of the five features, so a linear model has real signal)."""
    from link_profiler_repo_ray.pipelines.classifier import (
        quality_classifier_scores,
        quality_classifier_train,
    )

    curve = quality_classifier_train(SF).to_pandas()
    assert curve["loss_micro"].iloc[-1] < curve["loss_micro"].iloc[0]
    df = quality_classifier_scores(SF).to_pandas()
    acc = (df["y"] == df["predicted"]).mean()
    base = max(df["y"].mean(), 1 - df["y"].mean())
    assert acc >= base - 0.02  # at least competitive with majority vote


def test_eval_matches_scores(ray_session):
    from link_profiler_repo_ray.pipelines.classifier import (
        quality_classifier_eval,
        quality_classifier_scores,
    )

    ev = quality_classifier_eval(SF).to_pandas().iloc[0]
    df = quality_classifier_scores(SF).to_pandas()
    tp = int(((df.y == 1) & (df.predicted == 1)).sum())
    tn = int(((df.y == 0) & (df.predicted == 0)).sum())
    assert (ev.tp, ev.tn) == (tp, tn)
    assert ev.n == len(df) == ev.tp + ev.tn + ev.fp + ev.fn
    assert ev.accuracy_micro == int(math.floor(1e6 * (tp + tn) / len(df) + 0.5))
