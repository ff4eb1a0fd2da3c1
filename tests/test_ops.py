"""ops primitives vs local polars ground truth."""

import numpy as np
import polars as pl
import pyarrow as pa
import pytest
import ray.data as rd

from link_profiler_repo_ray.ops import hash_aggregate, hash_group_apply, tagged_union_join


def _rand_ds(n=50_000, keys=500, seed=0):
    rng = np.random.RandomState(seed)
    t = pa.table(
        {
            "k": pa.array(rng.randint(0, keys, n).astype(np.int64)),
            "v": pa.array(rng.rand(n)),
        }
    )
    return rd.from_arrow(t), pl.from_arrow(t)


@pytest.mark.usefixtures("ray_session")
class TestHashAggregate:
    def test_sum_count_min(self):
        ds, df = _rand_ds()
        out = hash_aggregate(
            ds,
            ["k"],
            combine=[
                pl.len().cast(pl.Int64).alias("n"),
                ((pl.col("v") * 100 + 0.5).floor().cast(pl.Int64)).sum().alias("s"),
                ((pl.col("v") * 100 + 0.5).floor().cast(pl.Int64)).min().alias("m"),
            ],
            merge=[pl.col("n").sum(), pl.col("s").sum(), pl.col("m").min()],
            num_partitions=7,
        ).to_pandas()
        exp = (
            df.with_columns(((pl.col("v") * 100 + 0.5).floor().cast(pl.Int64)).alias("c"))
            .group_by("k")
            .agg(
                pl.len().cast(pl.Int64).alias("n"),
                pl.col("c").sum().alias("s"),
                pl.col("c").min().alias("m"),
            )
            .to_pandas()
        )
        out = out.sort_values("k").reset_index(drop=True)
        exp = exp.sort_values("k").reset_index(drop=True)
        assert out.equals(exp[out.columns.tolist()])

    def test_skewed_key(self):
        # one key holds 90% of rows — the combiner bounds reducer input
        rng = np.random.RandomState(1)
        k = np.where(rng.rand(100_000) < 0.9, 0, rng.randint(1, 50, 100_000)).astype(np.int64)
        ds = rd.from_arrow(pa.table({"k": pa.array(k)}))
        out = hash_aggregate(
            ds, ["k"], combine=[pl.len().cast(pl.Int64).alias("n")], merge=[pl.col("n").sum()]
        ).to_pandas()
        assert out.loc[out["k"] == 0, "n"].iloc[0] == int((k == 0).sum())
        assert out["n"].sum() == 100_000


@pytest.mark.usefixtures("ray_session")
def test_hash_group_apply_complete_groups():
    ds, df = _rand_ds(10_000, 50)

    def topk(part: pl.DataFrame) -> pl.DataFrame:
        return (
            part.sort(["k", "v"], descending=[False, True])
            .with_columns(pl.col("v").cum_count().over("k").alias("r"))
            .filter(pl.col("r") <= 3)
            .drop("r")
        )

    out = hash_group_apply(ds, ["k"], topk, num_partitions=5).to_pandas()
    exp = (
        df.sort(["k", "v"], descending=[False, True])
        .with_columns(pl.col("v").cum_count().over("k").alias("r"))
        .filter(pl.col("r") <= 3)
        .drop("r")
        .to_pandas()
    )
    out = out.sort_values(["k", "v"]).reset_index(drop=True)
    exp = exp.sort_values(["k", "v"]).reset_index(drop=True)
    assert out.equals(exp[out.columns.tolist()])


@pytest.mark.usefixtures("ray_session")
def test_tagged_union_join_matches_polars():
    rng = np.random.RandomState(3)
    l = pa.table(
        {
            "a": pa.array(rng.randint(0, 200, 5000).astype(np.int64)),
            "x": pa.array(rng.rand(5000)),
        }
    )
    r = pa.table(
        {
            "b": pa.array(np.arange(150, dtype=np.int64)),
            "name": pa.array([f"n{i}" for i in range(150)]),
        }
    )
    out = tagged_union_join(rd.from_arrow(l), rd.from_arrow(r), "a", "b", num_partitions=8).to_pandas()
    exp = pl.from_arrow(l).join(pl.from_arrow(r), left_on="a", right_on="b", how="inner").to_pandas()
    assert len(out) == len(exp)
    assert sorted(out.columns) == sorted(exp.columns)
    o = out.sort_values(["a", "x"]).reset_index(drop=True)
    e = exp.sort_values(["a", "x"]).reset_index(drop=True)
    assert np.allclose(o["x"], e["x"]) and (o["a"] == e["a"]).all()


def _order_priority_revenue_native(sf_dir: str) -> rd.Dataset:
    """``relational.order_priority_revenue`` through Ray Data's native
    hash-partitioned ``Dataset.join`` instead of ``tagged_union_join``."""
    from link_profiler_repo_ray.ops import read_parquet

    li = hash_aggregate(
        read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_extendedprice", "l_discount"]),
        ["l_orderkey"],
        combine=[
            ((pl.col("l_extendedprice") * (1 - pl.col("l_discount"))) * 100 + 0.5)
            .floor()
            .cast(pl.Int64)
            .sum()
            .alias("rev_cents")
        ],
        merge=[pl.col("rev_cents").sum()],
    )
    orders = read_parquet(f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"])
    joined = li.join(
        orders, "inner", num_partitions=8, on=("l_orderkey",), right_on=("o_orderkey",)
    )
    return hash_aggregate(
        joined,
        ["o_orderpriority"],
        combine=[pl.col("rev_cents").sum().alias("revenue_cents")],
        merge=[pl.col("revenue_cents").sum()],
    )


@pytest.mark.usefixtures("ray_session")
def test_native_join_equals_tagged_union_join():
    from link_profiler_repo_ray.pipelines import relational

    sf = "/root/testdata/sf0.001"
    a = relational.order_priority_revenue(sf).to_pandas().sort_values("o_orderpriority").reset_index(drop=True)
    b = _order_priority_revenue_native(sf).to_pandas().sort_values("o_orderpriority").reset_index(drop=True)
    assert a[["o_orderpriority", "revenue_cents"]].equals(b[["o_orderpriority", "revenue_cents"]])


@pytest.mark.usefixtures("ray_session")
def test_collect_table_runs_upstream_once_per_block(tmp_path):
    """A lazy Dataset's ``to_arrow_refs`` runs its pipeline twice;
    ``ops.collect_table`` must run an upstream map stage once per
    block.  Each call of the stage writes one file."""
    import os
    import uuid

    from link_profiler_repo_ray.ops import collect_table

    def counted(batch: pa.Table) -> pa.Table:
        open(os.path.join(tmp_path, uuid.uuid4().hex), "w").close()
        ids = batch.column("id").to_numpy()
        return pa.table({"id": ids, "sq": ids * ids})

    blocks = 4
    ds = rd.range(100, override_num_blocks=blocks).map_batches(
        counted, batch_format="pyarrow", batch_size=None
    )
    got = collect_table(ds).sort_by("id")
    assert got.column("id").to_pylist() == list(range(100))
    assert got.column("sq").to_pylist() == [i * i for i in range(100)]
    assert len(os.listdir(tmp_path)) == blocks
    # an empty result keeps the schema
    empty = collect_table(rd.from_arrow(pa.table({"k": pa.array([], pa.int64())})))
    assert empty.num_rows == 0 and empty.schema.names == ["k"]
