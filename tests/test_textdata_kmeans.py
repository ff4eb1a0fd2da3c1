"""Distributed Lloyd k-means vs an independent sequential replay:
the quantized centroid-sum exchange must make the trajectory
bit-identical regardless of row partitioning."""

import numpy as np
import pyarrow.parquet as pq
import pytest


SF = "/root/testdata/sf0.001"
QUANT = 1_000_000


def _sequential(sf_dir, k=8, iters=5):
    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    order = np.argsort(t.column("vec_id").to_numpy())
    x = np.array(t.column("embedding").to_pylist(), dtype=np.float64)[order]
    cents = x[:k].copy()
    cnt = np.zeros(k, dtype=np.int64)
    inertia = np.zeros(k, dtype=np.int64)
    for _ in range(iters):
        d2 = ((x[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        xq = np.floor(x * QUANT + 0.5).astype(np.int64)
        iq = np.floor(d2[np.arange(len(assign)), assign] * QUANT + 0.5).astype(np.int64)
        cnt = np.zeros(k, dtype=np.int64)
        inertia = np.zeros(k, dtype=np.int64)
        acc = np.zeros((k, x.shape[1]), dtype=np.int64)
        for c in range(k):
            sel = xq[assign == c]
            cnt[c] = sel.shape[0]
            inertia[c] = iq[assign == c].sum()
            if sel.shape[0]:
                acc[c] = sel.sum(axis=0)
        nonempty = cnt > 0
        cents = cents.copy()
        cents[nonempty] = (acc[nonempty].astype(np.float64) / QUANT) / cnt[nonempty, None]
    return cents, cnt, inertia


@pytest.mark.usefixtures("ray_session")
def test_kmeans_lloyd_matches_sequential():
    from link_profiler_repo_ray.pipelines import textdata

    got = textdata.kmeans_lloyd(SF, k=8, iters=5).to_pandas().sort_values("centroid_id")
    want_c, want_n, want_i = _sequential(SF, k=8, iters=5)
    assert list(got["n_assigned"]) == list(want_n)
    assert list(got["inertia_micro"]) == list(want_i)
    dim = want_c.shape[1]
    for i in range(8):
        for j in range(dim):
            assert got.iloc[i][f"c{j}"] == want_c[i, j], (i, j)
    # clustering is non-degenerate: every vector assigned, >1 cluster used
    assert int(got["n_assigned"].sum()) == 500
    assert (got["n_assigned"] > 0).sum() >= 2


@pytest.mark.usefixtures("ray_session")
def test_kmeans_lloyd_fewer_vectors_than_k(tmp_path):
    """n < k must clamp k to n (one vector per cluster), not crash."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from link_profiler_repo_ray.pipelines import textdata

    vecs = [[float(i), 0.0] for i in range(3)]
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(range(3), pa.int64()),
                "embedding": pa.array(vecs, pa.list_(pa.float32())),
                "label": pa.array([0, 1, 2], pa.int32()),
            }
        ),
        tmp_path / "embeddings.parquet",
    )
    got = textdata.kmeans_lloyd(str(tmp_path), k=8, iters=2).to_pandas()
    assert len(got) == 3
    assert list(got["n_assigned"]) == [1, 1, 1]
