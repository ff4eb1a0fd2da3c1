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


# --- the scan / map wave contract ------------------------------------------

def _scan_inputs(root) -> dict[str, tuple]:
    """Parquet inputs, each ``(path, columns, batch_size)``: uneven row
    groups, one row group (fewer than P, so chunks split inside it), a
    batch smaller than a row group, a directory of two files, zero rows,
    pandas schema metadata and a large_string column."""
    import os

    import pandas as pd
    import pyarrow.parquet as pq

    rng = np.random.RandomState(3)
    n = 1000
    t = pa.table({
        "id": pa.array(np.arange(n, dtype=np.int64)),
        "s": pa.array([f"w{i}" * (1 + i % 5) for i in rng.randint(0, 90, n)], pa.string()),
        "x": pa.array(rng.rand(n)),
    })

    def write(name, table, groups=None):
        path = os.path.join(root, name)
        with pq.ParquetWriter(path, table.schema) as w:
            start = 0
            for size in groups or [table.num_rows]:
                w.write_table(table.slice(start, size))
                start += size
        return path

    d = os.path.join(root, "two_files")
    os.makedirs(d)
    write("two_files/b.parquet", t.slice(600), [250, 150])
    write("two_files/a.parquet", t.slice(0, 600), [600])
    pandas_path = os.path.join(root, "pandas.parquet")
    pq.write_table(pa.Table.from_pandas(pd.DataFrame(t.slice(0, 300).to_pandas())), pandas_path)
    assert pq.read_schema(pandas_path).metadata
    large = t.cast(pa.schema([("id", pa.int64()), ("s", pa.large_string()), ("x", pa.float64())]))
    return {
        "uneven_groups": (write("uneven.parquet", t, [300, 50, 420, 7, 223]), ["id", "s"], 400),
        "one_group": (write("one.parquet", t), ["s", "id"], 131_072),
        "small_batch": (write("small.parquet", t), None, 97),
        "directory": (d, ["id", "s"], 131_072),
        "zero_rows": (write("zero.parquet", t.slice(0, 0)), ["id", "s"], 131_072),
        "pandas_metadata": (pandas_path, ["id", "s"], 131_072),
        "large_string": (write("large.parquet", large, [500, 500]), ["s", "id"], 300),
    }


def _calls(root) -> list[int]:
    """Rows per recorded ``fn`` call (one file per call)."""
    import os

    return [int(f.split("-")[0]) for f in os.listdir(root)]


def _recording(root):
    """A row-wise ``fn`` that appends a length column and records each
    call's row count as one file under ``root``."""
    import os
    import uuid

    def fn(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        open(os.path.join(root, f"{batch.num_rows}-{uuid.uuid4().hex}"), "w").close()
        return batch.append_column("n", pc.utf8_length(batch.column("s")).cast(pa.int64()))

    return fn


@pytest.fixture
def ordered_ray_data():
    """Ray Data keeps block order, so a reference read is in file order."""
    from ray.data import DataContext

    opts = DataContext.get_current().execution_options
    before, opts.preserve_order = opts.preserve_order, True
    yield
    opts.preserve_order = before


@pytest.mark.usefixtures("ray_session", "ordered_ray_data")
@pytest.mark.parametrize("name", ["uneven_groups", "one_group", "small_batch", "directory",
                                  "zero_rows", "pandas_metadata", "large_string"])
def test_scan_equals_read_parquet_map_batches(name, tmp_path, monkeypatch):
    import os

    import pyarrow.parquet as pq

    from link_profiler_repo_ray import ops

    data, calls = tmp_path / "data", tmp_path / "calls"
    data.mkdir()
    calls.mkdir()
    path, columns, batch_size = _scan_inputs(str(data))[name]
    fn = _recording(str(calls))
    got = ops.collect_table(ops.scan(path, columns, fn, batch_size=batch_size))
    rows = _calls(str(calls))
    files = ([path] if not os.path.isdir(path)
             else sorted(os.path.join(path, f) for f in os.listdir(path)))
    total = sum(pq.read_metadata(f).num_rows for f in files)
    if total == 0:
        # fn runs once, on the empty table of the columns
        assert rows == [0]
        assert got.num_rows == 0 and got.schema.names == columns + ["n"]
        # the oracle helper reads the typed zero-row result with its columns
        from scripts.check_oracle import to_pandas

        empty = ops.scan(path, columns, fn, batch_size=batch_size)
        assert list(to_pandas(empty).columns) == empty.schema().names == columns + ["n"]
        return
    assert len(rows) == max(min(ops.cluster_cpus(), total), -(-total // batch_size))
    assert max(rows) <= batch_size and sum(rows) == total
    exp = ops.collect_table(
        ops.read_parquet(files, columns=columns).map_batches(fn, batch_format="pyarrow"))
    assert got.schema.equals(exp.schema, check_metadata=True)
    assert got.equals(exp)
    _assert_tasks_stream_bounded_batches(path, columns, batch_size, monkeypatch)


def _assert_tasks_stream_bounded_batches(path, columns, batch_size, monkeypatch):
    """Run every scan task in-process: none decodes a whole row group at
    once; each reads its rows in batches of at most its chunk's size and
    stops at the batch that holds its last row, so it holds at most two
    chunks' rows even when one row group spans many chunks
    ("one_group", "small_batch")."""
    import pyarrow.parquet as pq

    from link_profiler_repo_ray import ops

    reads = []
    real = pq.ParquetFile.iter_batches

    def iter_batches(self, *args, **kwargs):
        reads.append([])
        for b in real(self, *args, **kwargs):
            reads[-1].append(b.num_rows)
            yield b

    def whole(*args, **kwargs):
        raise AssertionError("a scan task read whole row groups")

    schema, chunks = ops._scan_plan(path, columns, batch_size)
    parts = []
    with monkeypatch.context() as m:
        m.setattr(pq.ParquetFile, "iter_batches", iter_batches)
        m.setattr(pq.ParquetFile, "read_row_groups", whole)
        for runs in chunks:
            reads.clear()
            table, _ = ops._scan_chunk(None, columns, schema, runs)
            assert table.num_rows == sum(r[3] for r in runs) <= batch_size
            assert len(reads) == len(runs)
            for (_, _, start, length), batches in zip(runs, reads):
                assert max(batches) <= length
                assert sum(batches[:-1]) < start + length
            parts.append(table)
    exp = pa.concat_tables(
        [pq.read_table(f, columns=columns).replace_schema_metadata(None).cast(schema)
         for f in ops._parquet_files(path)])
    assert pa.concat_tables(parts).equals(exp)


@pytest.mark.usefixtures("ray_session", "ordered_ray_data")
def test_map_blocks_equals_map_batches(tmp_path):
    from link_profiler_repo_ray import ops

    fn = _recording(str(tmp_path))
    t = pa.table({"id": pa.array(np.arange(60, dtype=np.int64)),
                  "s": pa.array([f"t{i}" * (i % 4) for i in range(60)])})

    def tag(batch: pa.Table) -> pa.Table:
        ids = batch.column("id").to_numpy()
        return pa.table({"id": ids, "s": pa.array([f"t{i}" * (i % 4) for i in ids])})

    inputs = {
        "materialized": rd.from_arrow([t.slice(0, 25), t.slice(25, 5), t.slice(30)]),
        "lazy": rd.range(60, override_num_blocks=3).map_batches(tag, batch_format="pyarrow"),
    }
    for ds in inputs.values():
        got = ops.collect_table(ops.map_blocks(ds, fn))
        exp = ops.collect_table(ds.map_batches(fn, batch_format="pyarrow"))
        assert got.schema == exp.schema and got.equals(exp)
        assert got.column("id").to_pylist() == list(range(60))
    for f in tmp_path.iterdir():
        f.unlink()
    # zero rows: fn runs once on the empty table of the input's schema
    empty = ops.map_blocks(rd.from_arrow(t.slice(0, 0)), fn)
    assert _calls(str(tmp_path)) == [0]
    assert empty.count() == 0 and empty.schema().names == ["id", "s", "n"]


@pytest.mark.usefixtures("ray_session")
def test_int_range_is_one_wave_of_ordered_blocks(ray_data_executions):
    """``int_range`` builds ``[0, n)`` as one task wave: the blocks cover
    the span once and in order, ``max(min(P, n), ceil(n / batch))`` of
    them, a typed empty int64 column for n = 0, and no Ray Data
    execution."""
    from link_profiler_repo_ray import ops

    P, batch = ops.cluster_cpus(), ops.DEFAULT_EXCHANGE_BATCH
    for n in (0, 1, P, 3 * batch + 1):
        ds = ops.int_range(n, "k")
        _, _, rows = ops._blocks(ds)
        got = ops.collect_table(ds)
        assert len(rows) == max(min(P, n), -(-n // batch)), n
        assert got.schema == pa.schema([("k", pa.int64())]), n
        assert np.array_equal(got.column("k").to_numpy(), np.arange(n)), n
    assert not ray_data_executions
