"""int8 embedding quantization (textdata.embedding_quantize): oracle
parity is covered by tests/test_queries_oracle.py; here, the property
quantization exists FOR — reconstructed codes preserve neighborhood
structure (recall vs the float top-k) — plus code-range sanity."""

import numpy as np
import polars as pl
import pyarrow.parquet as pq
import pytest


SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def codes(ray_session):
    from link_profiler_repo_ray.pipelines.textdata import embedding_quantize

    return pl.from_pandas(embedding_quantize(SF).to_pandas())


def test_code_range_and_shape(codes):
    emb = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id"])
    assert len(codes) == emb.num_rows * 64
    assert codes.get_column("code").min() >= 0
    assert codes.get_column("code").max() <= 255
    # every dim uses a real span: both extremes hit somewhere
    per_dim = codes.group_by("dim").agg(
        pl.col("code").min().alias("lo"), pl.col("code").max().alias("hi")
    )
    assert per_dim.get_column("lo").max() == 0
    assert per_dim.get_column("hi").min() == 255


def test_quantized_topk_recall(codes):
    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    vids = np.asarray(t.column("vec_id").to_pylist())
    emb = np.array(t.column("embedding").to_pylist(), dtype=np.float64)
    order = np.argsort(vids)
    emb = emb[order]

    wide = (
        codes.sort(["vec_id", "dim"])
        .get_column("code")
        .to_numpy()
        .reshape(len(emb), 64)
        .astype(np.float64)
    )
    mn, mx = emb.min(axis=0), emb.max(axis=0)
    recon = wide * ((mx - mn) / 255.0) + mn

    def topk(mat, q, k=10):
        x = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        sims = x[q] @ x.T
        sims[q] = -np.inf
        return set(np.argsort(-sims)[:k])

    hits = total = 0
    for q in range(0, len(emb), max(1, len(emb) // 20)):
        exact = topk(emb, q)
        approx = topk(recon, q)
        hits += len(exact & approx)
        total += len(exact)
    recall = hits / total
    assert recall >= 0.9, recall  # int8/dim keeps neighborhoods intact


@pytest.mark.usefixtures("ray_session")
def test_random_projection_deterministic_and_jl():
    """Same output across runs (hash-derived matrix, no RNG state) and
    pairwise distances preserved within the JL band for a sparse
    16-dim Achlioptas projection."""
    import numpy as np

    from link_profiler_repo_ray.pipelines import textdata

    a = textdata.embedding_random_projection(SF).to_pandas().sort_values("vec_id")
    b = textdata.embedding_random_projection(SF).to_pandas().sort_values("vec_id")
    pa_ = np.stack(a["projected"].to_numpy())
    pb = np.stack(b["projected"].to_numpy())
    assert np.array_equal(pa_, pb)

    import pandas as pd

    full = pd.read_parquet(f"{SF}/embeddings.parquet")
    full = full.sort_values("vec_id")
    X = np.stack(full["embedding"].to_numpy()).astype(np.float64)
    rng = np.random.RandomState(3)
    idx = rng.choice(len(X), size=60, replace=False)
    ratios = []
    for i in range(0, len(idx) - 1, 2):
        u, v = idx[i], idx[i + 1]
        d_hi = np.linalg.norm(X[u] - X[v])
        d_lo = np.linalg.norm(pa_[u] - pa_[v])
        if d_hi > 0:
            ratios.append(d_lo / d_hi)
    ratios = np.array(ratios)
    # 16 dims is coarse — individual pairs vary, but the MEDIAN ratio
    # must sit near 1 and no pair may collapse or explode wildly
    assert 0.7 < np.median(ratios) < 1.3
    assert (ratios > 0.2).all() and (ratios < 2.5).all()


def test_knn_lsh_recall_vs_bruteforce(ray_session):
    """LSH-bucketed ANN (the IVF sibling) recall against exact cosine."""
    from link_profiler_repo_ray.pipelines.textdata import embedding_topk, knn_lsh

    sf = "/root/testdata/sf0.001"
    exact = embedding_topk(sf, k=5, n_queries=4).to_pandas()
    lsh = knn_lsh(sf, k=5, n_queries=4).to_pandas()
    hits = total = 0
    for qid, grp in exact.groupby("query_id"):
        want = set(grp.vec_id)
        got = set(lsh[lsh.query_id == qid].vec_id)
        hits += len(want & got)
        total += len(want)
    assert total > 0 and hits / total >= 0.7, f"LSH recall {hits}/{total}"


def test_knn_lsh_deterministic(ray_session):
    from link_profiler_repo_ray.pipelines.textdata import knn_lsh

    sf = "/root/testdata/sf0.001"
    a = knn_lsh(sf, k=3, n_queries=2).to_pandas().sort_values(["query_id", "vec_id"])
    b = knn_lsh(sf, k=3, n_queries=2).to_pandas().sort_values(["query_id", "vec_id"])
    assert a.reset_index(drop=True).equals(b.reset_index(drop=True))
