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


# --- the exchange contract: any partition count, any block layout ----------

def _contract_inputs() -> dict[str, list[pa.Table]]:
    """Blocks of one (k string, v int64) table: one block, more blocks
    than any tested partition count, zero rows, and string blocks next
    to large_string ones."""
    rng = np.random.RandomState(11)
    n = 3000
    t = pa.table({
        "k": pa.array([f"key{i}" for i in rng.randint(0, 40, n)], pa.string()),
        "v": pa.array(rng.randint(0, 100, n).astype(np.int64)),
    })
    large = pa.schema([("k", pa.large_string()), ("v", pa.int64())])
    return {
        "one_block": [t],
        "many_blocks": [t.slice(i * 430, 430) for i in range(7)],
        "zero_rows": [t.slice(0, 0)],
        "mixed_strings": [t.slice(0, 1700), t.slice(1700).cast(large)],
    }


def _local(blocks: list[pa.Table]) -> pl.DataFrame:
    return pl.concat([pl.from_arrow(b) for b in blocks], how="vertical_relaxed")


def _rows(ds: rd.Dataset) -> pl.DataFrame:
    from link_profiler_repo_ray.ops import collect_table

    return pl.from_arrow(collect_table(ds))


def _assert_same(got: pl.DataFrame, exp: pl.DataFrame) -> None:
    if exp.height == 0:
        assert got.height == 0
        return
    assert sorted(got.columns) == sorted(exp.columns)
    cols = exp.columns
    assert got.select(cols).sort(cols, nulls_last=True).equals(exp.sort(cols, nulls_last=True))


_AGG = dict(
    combine=[pl.len().cast(pl.Int64).alias("n"), pl.col("v").sum().alias("s")],
    merge=[pl.col("n").sum(), pl.col("s").sum()],
)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", ["one_block", "many_blocks", "zero_rows", "mixed_strings"])
def test_exchange_contract_any_partition_count(name):
    # helpers live in the test body: Ray workers cannot import this module

    def top2(df: pl.DataFrame) -> pl.DataFrame:
        return (
            df.sort(["k", "v"], descending=[False, True])
            .with_columns(pl.col("v").cum_count().over("k").alias("r"))
            .filter(pl.col("r") <= 2)
            .drop("r")
        )

    def nonempty(fn):
        """``fn`` plus a check that no call sees an empty frame."""

        def guarded(df: pl.DataFrame) -> pl.DataFrame:
            assert df.height > 0, "fn called on an empty partition"
            return fn(df)

        return guarded

    blocks = _contract_inputs()[name]
    df = _local(blocks)
    right_t = pa.table({
        "k2": pa.array([f"key{i}" for i in range(20, 60)], pa.large_string()),
        "w": pa.array(np.arange(40, dtype=np.int64)),
    })
    exp = {
        "agg": df.group_by("k").agg(pl.len().cast(pl.Int64).alias("n"), pl.col("v").sum().alias("s")),
        "apply": top2(df),
        "distinct": df.unique().group_by("k").agg(pl.col("v").n_unique().cast(pl.Int64)),
        **{f"join_{how}": df.join(pl.from_arrow(right_t), left_on="k", right_on="k2", how=how)
           for how in ("inner", "left", "full")},
    }
    outs = {}
    for p in (1, 2, 5):
        got = {
            "agg": hash_aggregate(rd.from_arrow(blocks), ["k"], num_partitions=p, **_AGG),
            "apply": hash_group_apply(rd.from_arrow(blocks), ["k"], nonempty(top2), num_partitions=p),
            "distinct": hash_group_apply(
                rd.from_arrow(blocks), ["k"],
                nonempty(lambda d: d.group_by("k").agg(pl.col("v").n_unique().cast(pl.Int64))),
                num_partitions=p, pre=lambda d: d.unique(),
            ),
            **{f"join_{how}": tagged_union_join(
                rd.from_arrow(blocks), rd.from_arrow(right_t), "k", "k2", num_partitions=p, how=how)
               for how in ("inner", "left", "full")},
        }
        for op, ds in got.items():
            rows = _rows(ds)
            _assert_same(rows, exp[op])
            outs.setdefault(op, []).append(rows)
    for op, per_p in outs.items():
        for rows in per_p[1:]:
            _assert_same(rows, per_p[0])


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", ["one_block", "many_blocks", "zero_rows", "mixed_strings"])
def test_block_topk_matches_polars(name):
    from link_profiler_repo_ray.ops import block_topk

    blocks = _contract_inputs()[name]
    got = _rows(block_topk(rd.from_arrow(blocks), ["v", "k"], [True, False], 7))
    exp = _local(blocks).sort(["v", "k"], descending=[True, False]).head(7)
    _assert_same(got, exp)
    if exp.height:
        assert got["v"].to_list() == exp["v"].to_list()


@pytest.mark.usefixtures("ray_session")
def test_join_of_a_side_with_no_rows_pads_from_its_schema():
    left = pa.table({"a": pa.array([1, 2], pa.int64()), "x": pa.array([0.5, 1.5])})
    right = rd.from_arrow(pa.table({"b": pa.array([], pa.int64()), "name": pa.array([], pa.string())}))
    got = _rows(tagged_union_join(rd.from_arrow(left), right, "a", "b", num_partitions=3, how="left"))
    assert got.sort("a").to_dict(as_series=False) == {"a": [1, 2], "x": [0.5, 1.5], "name": [None, None]}


@pytest.mark.usefixtures("ray_session")
def test_hash_group_apply_merges_in_parallel_tasks():
    """A 2-block input with P = 4 runs ``fn`` in more than one Ray task
    (a sort-shuffle of a single bundled block ran every partition in
    one reducer)."""
    rng = np.random.RandomState(5)
    t = pa.table({"k": pa.array(rng.randint(0, 200, 2000).astype(np.int64))})

    def fn(df: pl.DataFrame) -> pl.DataFrame:
        import ray

        task = ray.get_runtime_context().get_task_id()
        return df.group_by("k").agg(pl.len().alias("n")).with_columns(pl.lit(task).alias("task"))

    ds = rd.from_arrow([t.slice(0, 1000), t.slice(1000)])
    got = _rows(hash_group_apply(ds, ["k"], fn, num_partitions=4))
    assert got["n"].sum() == 2000
    assert got["task"].n_unique() >= 2
