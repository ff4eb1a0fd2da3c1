"""Iterative + temporal graph operators: weighted host PageRank vs a
dense numpy power-iteration oracle; edge snapshot merge vs DuckDB;
bucketed embedding near-dups recall vs the exact variant."""

import functools

import duckdb
import numpy as np
import polars as pl
import pytest

SF = "/root/testdata/sf0.001"


def _ref_pagerank(pairs: pl.DataFrame, damping: float, iters: int) -> dict[str, float]:
    hosts = sorted(
        set(pairs.get_column("source_host")) | set(pairs.get_column("target_host"))
    )
    idx = {h: i for i, h in enumerate(hosts)}
    n = len(hosts)
    W = np.zeros((n, n))
    for s, t, c in pairs.iter_rows():
        W[idx[s], idx[t]] += c
    out = W.sum(axis=1)
    P = np.divide(W, out[:, None], out=np.zeros_like(W), where=out[:, None] > 0)
    r = np.full(n, 1.0 / n)
    for _ in range(iters):
        dangling = r[out == 0].sum()
        push = r @ P
        r = (1 - damping) / n + damping * (push + dangling / n)
    return dict(zip(hosts, r))


@pytest.mark.usefixtures("ray_session")
def test_host_pagerank_matches_dense_oracle():
    from link_profiler_repo_ray.pipelines import graph

    got = pl.from_pandas(graph.host_pagerank(SF, iters=15).to_pandas())
    pairs = pl.from_pandas(graph.host_graph(SF).to_pandas()).select(
        ["source_host", "target_host", "n_links"]
    )
    want = _ref_pagerank(pairs, damping=0.85, iters=15)
    assert got.height == len(want)
    for h, r in zip(got.get_column("host"), got.get_column("rank")):
        assert abs(r - want[h]) < 1e-8, h  # pipeline rounds to 8 decimals
    # ranks form a probability distribution
    assert abs(got.get_column("rank").sum() - 1.0) < 1e-6
    # the hub host (absorbs every d%37==0 page's inlinks) ranks first
    top = got.sort("rank", descending=True).row(0, named=True)
    assert top["host"] == "h0.example.com"


@pytest.mark.usefixtures("ray_session")
def test_edge_snapshot_merge_matches_oracle():
    import __ray_entry__ as e
    from link_profiler_repo_ray.pipelines import research

    got = pl.from_pandas(research.edge_snapshot_merge(SF).to_pandas())
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
    )
    want = con.execute(e.oracle_sql()["edge_snapshot_merge"]).pl()
    cols = sorted(got.columns)
    assert cols == sorted(want.columns)
    assert got.select(cols).sort(cols).equals(want.select(cols).sort(cols))
    # re-observed edges span exactly 7 days; the rest span 0
    import datetime

    span = got.with_columns((pl.col("last_seen") - pl.col("first_seen")).alias("d"))
    assert set(span.get_column("d").unique().to_list()) == {
        datetime.timedelta(0),
        datetime.timedelta(days=7),
    }


@pytest.mark.usefixtures("ray_session")
def test_bucketed_near_dups_recall():
    """The IVF-bucketed scale path must reproduce the exact variant's
    pairs (multi-probe n_assign=4 reaches recall 1.0 at this scale)
    with no false positives (exact in-cell verification)."""
    from link_profiler_repo_ray.pipelines import textdata

    exact = textdata.embedding_near_dups(SF).to_pandas()
    bucketed = textdata.embedding_near_dups_bucketed(SF).to_pandas()
    pe = set(zip(exact.vec_a, exact.vec_b))
    pb = set(zip(bucketed.vec_a, bucketed.vec_b))
    assert pb <= pe  # exact verify → zero false pairs
    assert len(pe & pb) / len(pe) >= 0.85
    # scores agree where pairs overlap
    se = {(a, b): s for a, b, s in zip(exact.vec_a, exact.vec_b, exact.score)}
    for (a, b), s in zip(zip(bucketed.vec_a, bucketed.vec_b), bucketed.score):
        assert abs(se[(a, b)] - s) < 1e-9


@pytest.mark.usefixtures("ray_session")
def test_near_dup_survivors_union_find_oracle():
    """Label-propagation connected components over the minhash pair
    set vs a pure-python union-find: identical components, survivor =
    min doc_id of each component."""
    from link_profiler_repo_ray.pipelines import textdata

    pairs = textdata.minhash_lsh_dups(SF, threshold=0.8).to_pandas()
    got = textdata.near_dup_survivors(SF, threshold=0.8).to_pandas()

    # union-find oracle
    parent: dict[int, int] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for a, b in zip(pairs.doc_a, pairs.doc_b):
        union(int(a), int(b))
    want = {x: find(x) for x in parent}

    assert len(got) == len(want)
    for d, s in zip(got.doc_id, got.survivor_id):
        assert want[int(d)] == int(s), d
    # each component's survivor is its own minimum
    assert all(int(s) <= int(d) for d, s in zip(got.doc_id, got.survivor_id))
    # at least one transitive cluster of size > 2 exists at this
    # threshold (otherwise the test proves nothing about transitivity)
    import collections

    sizes = collections.Counter(want.values())
    assert max(sizes.values()) >= 3


@pytest.mark.usefixtures("ray_session")
def test_survivors_non_clique_transitive_component():
    """Review regression: label propagation was unidirectional — the
    pair set {(1,3),(2,3)} (A~C, B~C, no A~B) must yield ONE component
    with survivor 1 for all three nodes."""
    import pyarrow as pa
    import ray.data as rd

    from link_profiler_repo_ray.pipelines import textdata

    pairs = rd.from_arrow(
        pa.table({"doc_a": pa.array([1, 2], pa.int64()), "doc_b": pa.array([3, 3], pa.int64())})
    )
    got = textdata.near_dup_survivors(SF, pairs=pairs).to_pandas()
    surv = dict(zip(got.doc_id, got.survivor_id))
    assert surv == {1: 1, 2: 1, 3: 1}


@pytest.mark.usefixtures("ray_session")
def test_survivors_long_chain_converges():
    """A 12-node path graph needs ~diameter propagation rounds; it must
    converge (not silently truncate) and collapse to survivor 0."""
    import pyarrow as pa
    import ray.data as rd

    from link_profiler_repo_ray.pipelines import textdata

    n = 12
    pairs = rd.from_arrow(
        pa.table(
            {
                "doc_a": pa.array(list(range(n - 1)), pa.int64()),
                "doc_b": pa.array(list(range(1, n)), pa.int64()),
            }
        )
    )
    got = textdata.near_dup_survivors(SF, pairs=pairs).to_pandas()
    assert set(got.survivor_id) == {0}
    assert len(got) == n


def _ref_hits(pairs: pl.DataFrame, iters: int):
    hosts = sorted(
        set(pairs.get_column("source_host")) | set(pairs.get_column("target_host"))
    )
    idx = {h: i for i, h in enumerate(hosts)}
    n = len(hosts)
    W = np.zeros((n, n))
    for s, t, c in pairs.iter_rows():
        W[idx[s], idx[t]] += c
    h = np.ones(n)
    a = np.ones(n)
    for _ in range(iters):
        a = W.T @ h
        na = np.linalg.norm(a)
        a = a / (na if na > 0 else 1.0)
        h = W @ a
        nh = np.linalg.norm(h)
        h = h / (nh if nh > 0 else 1.0)
    return (
        dict(zip(hosts, a)),
        dict(zip(hosts, h)),
    )


@pytest.mark.usefixtures("ray_session")
def test_host_hits_matches_dense_oracle():
    from link_profiler_repo_ray.pipelines import graph

    got = pl.from_pandas(graph.host_hits(SF, iters=12).to_pandas())
    pairs = pl.from_pandas(graph.host_graph(SF).to_pandas()).select(
        ["source_host", "target_host", "n_links"]
    )
    want_a, want_h = _ref_hits(pairs, iters=12)
    assert got.height == len(want_a)
    for host, a, h in zip(
        got.get_column("host"), got.get_column("authority"), got.get_column("hub")
    ):
        assert abs(a - want_a[host]) < 1e-6, (host, a, want_a[host])
        assert abs(h - want_h[host]) < 1e-6, (host, h, want_h[host])
    # unit L2 norms (up to the 8-decimal output rounding)
    assert abs(sum(v * v for v in got.get_column("authority")) - 1.0) < 1e-5
    assert abs(sum(v * v for v in got.get_column("hub")) - 1.0) < 1e-5
    # the hub page target absorbs the mass: h0 tops authority
    top = got.sort("authority", descending=True).row(0, named=True)
    assert top["host"] == "h0.example.com"


@pytest.mark.usefixtures("ray_session")
def test_semdedup_survivors_union_find_oracle():
    """SemDeDup composition: connected components over the bucketed
    cosine pair set vs a pure-python union-find on the SAME pairs —
    identical clusters, survivor = min vec_id per cluster."""
    from link_profiler_repo_ray.pipelines import textdata

    pairs = textdata.embedding_near_dups_bucketed(SF).to_pandas()
    got = textdata.semdedup_survivors(SF).to_pandas()

    parent: dict[int, int] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for a, b in zip(pairs.vec_a, pairs.vec_b):
        union(int(a), int(b))
    want = {x: find(x) for x in list(parent)}
    got_map = dict(zip(got.vec_id.astype(int), got.survivor_id.astype(int)))
    assert got_map == want
    # survivors are cluster minima and clusters are non-trivial
    assert any(v != k for k, v in want.items())
    for k, v in got_map.items():
        assert v <= k


def _ref_triangles(und: set) -> dict:
    """Brute force over distinct undirected pairs: for each edge (a,b),
    every common neighbor c closes one triangle; over the 3 edges of a
    triangle each corner is credited exactly once → {corner: count > 0}."""
    adj: dict = {}
    for a, b in und:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    out: dict = {}
    for a, b in und:
        for c in adj[a] & adj[b]:
            out[c] = out.get(c, 0) + 1
    return out


@pytest.mark.usefixtures("ray_session")
def test_host_triangles_bruteforce_oracle():
    """Degree-oriented triangle counting vs a brute-force common-
    neighbor count on a planted random graph (the sf corpus host graph
    is near-complete, so triangle counts there are degenerate —
    this pins the orientation + wedge-join logic on an irregular
    sparse graph, fed in with duplicate rows and both directions)."""
    import pyarrow as pa
    import ray.data as rd

    from link_profiler_repo_ray.pipelines import graph

    rng = np.random.default_rng(7)
    n = 40
    hosts = [f"n{i:02d}.test" for i in range(n)]
    und = set()
    for a, b in rng.integers(0, n, size=(260, 2)):
        if a != b:
            und.add((min(int(a), int(b)), max(int(a), int(b))))

    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    for a, b in und:
        adj[a].add(b)
        adj[b].add(a)
    want = {hosts[i]: c for i, c in _ref_triangles(und).items()}
    assert want, "planted graph has no triangles — bump the edge count"

    # feed raw directed edges with duplicates + self loops to exercise
    # the dedup/loop-filter path
    src = [hosts[a] for a, b in und] + [hosts[b] for a, b in und] + [hosts[0]]
    dst = [hosts[b] for a, b in und] + [hosts[a] for a, b in und] + [hosts[0]]
    edges = rd.from_arrow(pa.table({"source_host": src, "target_host": dst}))

    got = graph.host_triangles("", edges=edges, k=n).to_pandas()
    got_map = dict(zip(got.host, got.triangles.astype(int)))
    top = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))[: len(got_map)]
    assert got_map == dict(top)
    # global invariant: corner credits sum to 3 * triangle count
    tri_total = sum(len(adj[a] & adj[b]) for a, b in und) // 3 * 3
    assert sum(want.values()) == tri_total


@pytest.mark.usefixtures("ray_session")
def test_host_kcore_peeling_oracle():
    """Distributed H-index coreness vs the exact min-degree peeling
    algorithm on a planted graph: dense random core + an attached
    12-node path (the path forces several H-index sweeps and a
    coreness-1 fringe, so the fixed point isn't just the degree)."""
    import pyarrow as pa
    import ray.data as rd

    from link_profiler_repo_ray.pipelines import graph

    rng = np.random.default_rng(11)
    n = 30
    und = set()
    for a, b in rng.integers(0, n, size=(150, 2)):
        if a != b:
            und.add((min(int(a), int(b)), max(int(a), int(b))))
    # pendant path hanging off node 0: 30-31-...-41
    prev = 0
    for i in range(n, n + 12):
        und.add((prev, i))
        prev = i
    hosts = [f"k{i:02d}.test" for i in range(n + 12)]

    adj: dict[int, set[int]] = {}
    for a, b in und:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    # exact peeling: repeatedly remove the min-degree node; coreness =
    # running max of the degree at removal time
    deg = {v: len(a) for v, a in adj.items()}
    remaining = set(adj)
    want: dict[str, int] = {}
    k = 0
    while remaining:
        v = min(remaining, key=lambda x: (deg[x], x))
        k = max(k, deg[v])
        want[hosts[v]] = k
        remaining.remove(v)
        for u in adj[v]:
            if u in remaining:
                deg[u] -= 1

    src = [hosts[a] for a, b in und]
    dst = [hosts[b] for a, b in und]
    edges = rd.from_arrow(pa.table({"source_host": src, "target_host": dst}))
    got = graph.host_kcore("", edges=edges).to_pandas()
    got_map = dict(zip(got.host, got.coreness.astype(int)))
    assert got_map == want
    # the path fringe is coreness 1 and the random core is deeper
    assert want[hosts[n + 11]] == 1
    assert max(want.values()) >= 3


@pytest.mark.usefixtures("ray_session")
def test_host_reciprocal_links_planted():
    """Planted asymmetry: x<->y reciprocal, x->z one-way, z->y one-way
    (the sf corpus host graph is near-complete so everything there is
    reciprocal — this pins the direction flags)."""
    import pyarrow as pa
    import ray.data as rd

    from link_profiler_repo_ray.pipelines import graph

    edges = rd.from_arrow(
        pa.table(
            {
                "source_host": ["x", "y", "x", "z", "x"],
                "target_host": ["y", "x", "z", "y", "x"],
            }
        )
    )
    got = graph.host_reciprocal_links("", edges=edges).to_pandas()
    m = {r.host: (int(r.partners), int(r.reciprocal_partners)) for r in got.itertuples()}
    assert m == {"x": (2, 1), "y": (2, 1), "z": (2, 0)}


@pytest.mark.usefixtures("ray_session")
def test_related_hosts_cocitation_planted_and_cap():
    """Exact co-citation vs brute force on a planted edge set, and the
    max_targets hub cap keeps each source's first targets by name."""
    from itertools import combinations

    import pyarrow as pa
    import ray.data as rd

    from link_profiler_repo_ray.pipelines import graph

    srcs = {
        "s1": ["a", "b", "c"],
        "s2": ["b", "c", "d"],
        "s3": ["a", "b", "c", "d"],  # directory-ish source
    }
    rows_s, rows_t = [], []
    for s, ts in srcs.items():
        for t in ts + ts[:1]:  # duplicate edges must not double count
            rows_s.append(s)
            rows_t.append(t)
    edges = rd.from_arrow(pa.table({"source_host": rows_s, "target_host": rows_t}))

    want: dict[tuple, int] = {}
    for ts in srcs.values():
        for x, y in combinations(sorted(set(ts)), 2):
            want[(x, y)] = want.get((x, y), 0) + 1
    got = graph.related_hosts_cocitation("", edges=edges).to_pandas()
    got_map = {(r.x, r.y): int(r.cocitations) for r in got.itertuples()}
    assert got_map == want

    capped = graph.related_hosts_cocitation("", edges=edges, max_targets=2).to_pandas()
    want_cap: dict[tuple, int] = {}
    for ts in srcs.values():
        for x, y in combinations(sorted(set(ts))[:2], 2):
            want_cap[(x, y)] = want_cap.get((x, y), 0) + 1
    cap_map = {(r.x, r.y): int(r.cocitations) for r in capped.itertuples()}
    assert cap_map == want_cap


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("seed,n,m", [(1, 24, 40), (2, 36, 90), (3, 50, 60)])
def test_graph_density_ops_random_graphs(seed, n, m):
    """Randomized cross-check of triangles, clustering and coreness on
    graphs of varying density (sparse ones exercise zero-triangle
    hosts, degree ties in the orientation, and multi-sweep H-index)."""
    import pyarrow as pa
    import ray.data as rd

    from link_profiler_repo_ray.pipelines import graph

    rng = np.random.default_rng(seed)
    und = set()
    for a, b in rng.integers(0, n, size=(m, 2)):
        if a != b:
            und.add((min(int(a), int(b)), max(int(a), int(b))))
    hosts = [f"r{i:02d}.test" for i in range(n)]
    adj: dict[int, set[int]] = {}
    for a, b in und:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    edges = rd.from_arrow(
        pa.table(
            {
                "source_host": [hosts[a] for a, b in und],
                "target_host": [hosts[b] for a, b in und],
            }
        )
    )

    # triangles per corner
    want_tri = _ref_triangles(und)
    got_tri = graph.host_triangle_counts("", edges=edges).to_pandas()
    assert dict(zip(got_tri.host, got_tri.triangles.astype(int))) == {
        hosts[i]: c for i, c in want_tri.items()
    }

    # clustering
    got_cl = graph.host_clustering("", edges=edges).to_pandas()
    for r in got_cl.itertuples():
        i = hosts.index(r.host)
        d = len(adj[i])
        t = want_tri.get(i, 0)
        assert int(r.deg) == d
        expect = round(2.0 * t / (d * (d - 1)), 6) if d >= 2 else 0.0
        assert abs(r.clustering - expect) < 1e-9, r.host
    assert len(got_cl) == len(adj)

    # coreness via exact peeling
    deg = {v: len(a) for v, a in adj.items()}
    remaining = set(adj)
    want_core: dict[str, int] = {}
    k = 0
    while remaining:
        v = min(remaining, key=lambda x: (deg[x], x))
        k = max(k, deg[v])
        want_core[hosts[v]] = k
        remaining.remove(v)
        for u in adj[v]:
            if u in remaining:
                deg[u] -= 1
    got_core = graph.host_kcore("", edges=edges).to_pandas()
    assert dict(zip(got_core.host, got_core.coreness.astype(int))) == want_core


@pytest.mark.usefixtures("ray_session")
def test_assortativity_star_is_minus_one():
    """A star graph is maximally disassortative: r = -1 exactly."""
    import pyarrow as pa
    import ray.data as rd

    from link_profiler_repo_ray.pipelines import graph

    leaves = [f"l{i}" for i in range(5)]
    edges = rd.from_arrow(
        pa.table({"source_host": ["hub"] * 5, "target_host": leaves})
    )
    got = graph.host_degree_assortativity("", edges=edges).to_pandas()
    assert int(got.n_edges[0]) == 5
    assert int(got.assortativity_micro[0]) == -1_000_000


@pytest.mark.usefixtures("ray_session")
def test_assortativity_without_edges_matches_oracle():
    """No edge between two distinct hosts (only self-loops, or no rows
    at all): one row (0, NULL) with int64 columns, as the DuckDB oracle
    SQL gives when run on the same edges."""
    import pyarrow as pa
    import ray.data as rd

    import __ray_entry__ as e
    from link_profiler_repo_ray import ops
    from link_profiler_repo_ray.pipelines import graph
    from link_profiler_repo_ray.sources.corpus import edges_cte, hosts_cte

    sql = e.oracle_sql()["host_degree_assortativity"]
    prefix = "WITH " + hosts_cte() + "," + edges_cte()
    assert sql.startswith(prefix)
    on_edges = "WITH " + sql[len(prefix):].lstrip().removeprefix(",")
    for src, dst in ((["a", "b", "a"], ["a", "b", "a"]), ([], [])):
        edges = pa.table({"source_host": pa.array(src, pa.string()),
                          "target_host": pa.array(dst, pa.string())})
        con = duckdb.connect()
        con.register("edges", edges)
        want = con.execute(on_edges).fetchall()
        got = ops.collect_table(graph.host_degree_assortativity("", edges=rd.from_arrow(edges)))
        assert want == [(0, None)]
        assert [tuple(r.values()) for r in got.to_pylist()] == want
        assert got.schema.types == [pa.int64(), pa.int64()]


@pytest.mark.usefixtures("ray_session")
def test_undirected_family_logs_no_schema_mismatch():
    """The undirected host ops run no string-keyed join, so Ray Data
    logs no "RefBundle with a different schema" warning for them."""
    import logging

    import pyarrow as pa
    import ray.data as rd

    from link_profiler_repo_ray import ops
    from link_profiler_repo_ray.pipelines import graph

    pairs = _planted_multigraph(31, 16, 50)
    edges = rd.from_arrow(pa.table({"source_host": [s for s, _ in pairs],
                                    "target_host": [t for _, t in pairs]}))
    seen = []

    class Collect(logging.Handler):
        def emit(self, record):
            seen.append(record.getMessage())

    logger = logging.getLogger("ray.data")
    handler, level = Collect(logging.WARNING), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    try:
        for op in (graph.host_clustering, graph.host_degree_assortativity,
                   graph.host_reciprocal_links, graph.host_kcore):
            assert ops.collect_table(op("", edges=edges)).num_rows > 0, op.__name__
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    assert not [m for m in seen if "RefBundle with a different schema" in m]


@pytest.mark.usefixtures("ray_session")
def test_graph_ops_start_no_ray_data_execution(ray_data_executions):
    """Over the materialized edges, every graph op builds its layout or
    runs its exchange from task waves alone: materializing each result
    starts no Ray Data execution (no projection or lazy map in front of
    a barrier or a dense build)."""
    import ray.data as rd

    from link_profiler_repo_ray.pipelines import graph, textdata

    started = ray_data_executions
    edges = graph.edges_dataset(SF)
    on_edges = {name: getattr(graph, name) for name in (
        "host_pagerank", "host_hits", "host_components", "host_communities", "host_kcore",
        "host_reciprocal_links", "host_clustering", "host_degree_assortativity",
        "host_harmonic_centrality", "related_hosts_cocitation", "referring_domains_exact")}
    ops_ = {
        **{name: functools.partial(op, SF, edges=edges) for name, op in on_edges.items()},
        "top_anchor_profiles": functools.partial(graph.top_anchor_profiles, SF),
        "top_anchors_referrers": functools.partial(graph.top_anchors_referrers, SF),
        "link_overlap_hll": lambda: rd.from_arrow(graph.link_overlap_hll(
            SF, "h1.example.com", "h2.example.com", edges=edges)),
        "link_velocity": functools.partial(graph.link_velocity, SF),
        "link_intersect": functools.partial(graph.link_intersect, SF, "h1.example.com",
                                            "h2.example.com"),
        "near_dup_survivors": functools.partial(textdata.near_dup_survivors, SF),
    }
    for name, op in ops_.items():
        before = len(started)
        assert op().materialize().count() > 0, name
        assert len(started) == before, f"{name} started {len(started) - before} Ray Data executions"


def _ref_harmonic(pairs: "pl.DataFrame") -> dict[str, tuple[int, float]]:
    """Per-node BFS oracle: H(v) = sum over u != v of 1/d(u -> v),
    n_reachable(v) = |{u : d(u -> v) < inf}| (v included at d=0)."""
    from collections import deque

    hosts = sorted(
        set(pairs.get_column("source_host")) | set(pairs.get_column("target_host"))
    )
    fwd = {h: set() for h in hosts}
    for s, t in pairs.select(["source_host", "target_host"]).iter_rows():
        fwd[s].add(t)
    out = {}
    for v in hosts:
        # BFS FROM every u over fwd edges is O(n*m); equivalently BFS
        # from v over reversed edges
        rev = {h: set() for h in hosts}
        for s, ts in fwd.items():
            for t in ts:
                rev[t].add(s)
        dist = {v: 0}
        dq = deque([v])
        while dq:
            x = dq.popleft()
            for u in rev[x]:
                if u not in dist:
                    dist[u] = dist[x] + 1
                    dq.append(u)
        h = sum(1.0 / d for d in dist.values() if d > 0)
        sd = sum(d for d in dist.values())
        close = (len(dist) - 1) / sd if sd > 0 else 0.0
        out[v] = (len(dist), h, close)
    return out


@pytest.mark.usefixtures("ray_session")
def test_harmonic_centrality_bitset_matches_bfs_oracle():
    from link_profiler_repo_ray.pipelines import graph

    got = pl.from_pandas(graph.host_harmonic_centrality(SF).to_pandas())
    pairs = pl.from_pandas(graph.host_graph(SF).to_pandas())
    want = _ref_harmonic(pairs)
    assert got.height == len(want)
    for h, n, harm, close in got.select(
        ["host", "n_reachable", "harmonic", "closeness"]
    ).iter_rows():
        wn, wh, wc = want[h]
        assert n == wn, h
        assert abs(harm - wh) < 1e-9, h
        assert abs(close - wc) < 1e-9, h


@pytest.mark.usefixtures("ray_session")
def test_harmonic_centrality_planted_random_digraph():
    import pyarrow as pa
    import ray.data as rd

    from link_profiler_repo_ray.pipelines import graph

    rng = np.random.RandomState(7)
    n = 40
    src, dst = [], []
    for _ in range(160):
        a, b = rng.randint(0, n, 2)
        if a != b:
            src.append(f"h{a}.x.com")
            dst.append(f"h{b}.x.com")
    edges = rd.from_arrow(pa.table({"source_host": src, "target_host": dst}))
    got = pl.from_pandas(graph.host_harmonic_centrality("", edges=edges).to_pandas())
    pairs = pl.DataFrame({"source_host": src, "target_host": dst}).unique()
    want = _ref_harmonic(pairs)
    assert got.height == len(want)
    for h, cnt, harm, close in got.select(
        ["host", "n_reachable", "harmonic", "closeness"]
    ).iter_rows():
        wn, wh, wc = want[h]
        assert cnt == wn, h
        assert abs(harm - wh) < 1e-9, h
        assert abs(close - wc) < 1e-9, h

    # the HLL scale path tracks the exact counts within sketch error
    hll = pl.from_pandas(
        graph.host_harmonic_centrality("", edges=edges, mode="hll", p=10).to_pandas()
    )
    assert hll.height == len(want)
    for h, cnt, harm in hll.select(["host", "n_reachable", "harmonic"]).iter_rows():
        wn, wh, _ = want[h]
        assert abs(cnt - wn) / wn < 0.15, h
        assert abs(harm - wh) / max(wh, 1e-9) < 0.15, h


@pytest.mark.usefixtures("ray_session")
def test_effective_diameter_matches_bfs_oracle():
    """N(r) and the interpolated effective diameter vs exact all-pairs
    BFS distances on a planted random digraph."""
    from collections import deque

    import pyarrow as pa
    import ray.data as rd

    from link_profiler_repo_ray.pipelines import graph

    rng = np.random.RandomState(11)
    n = 30
    src, dst = [], []
    for _ in range(90):
        a, b = rng.randint(0, n, 2)
        if a != b:
            src.append(f"h{a}.x.com")
            dst.append(f"h{b}.x.com")
    edges = rd.from_arrow(pa.table({"source_host": src, "target_host": dst}))
    got = graph.host_effective_diameter("", edges=edges).to_pandas().iloc[0]

    hosts = sorted(set(src) | set(dst))
    fwd = {h: set() for h in hosts}
    for s, t in zip(src, dst):
        fwd[s].add(t)
    dists = []
    for v in hosts:
        dist = {v: 0}
        dq = deque([v])
        while dq:
            x = dq.popleft()
            for u in fwd[x]:
                if u not in dist:
                    dist[u] = dist[x] + 1
                    dq.append(u)
        dists.extend(dist.values())
    diameter = max(dists)
    ns = [sum(1 for d in dists if d <= r) for r in range(diameter + 1)]
    target = 0.9 * ns[-1]
    for d in range(len(ns)):
        if ns[d] >= target:
            want_eff = (
                float(d)
                if d == 0 or ns[d] == ns[d - 1]
                else (d - 1) + (target - ns[d - 1]) / (ns[d] - ns[d - 1])
            )
            break

    assert got["n_hosts"] == len(hosts)
    assert got["diameter"] == diameter
    assert got["reachable_pairs"] == float(ns[-1])
    assert abs(got["effective_diameter"] - want_eff) < 1e-9


def _ref_ppr(pairs: pl.DataFrame, seeds, damping: float, iters: int) -> dict[str, float]:
    hosts = sorted(
        set(pairs.get_column("source_host")) | set(pairs.get_column("target_host"))
    )
    idx = {h: i for i, h in enumerate(hosts)}
    n = len(hosts)
    W = np.zeros((n, n))
    for s, t, c in pairs.iter_rows():
        W[idx[s], idx[t]] += c
    out = W.sum(axis=1)
    P = np.divide(W, out[:, None], out=np.zeros_like(W), where=out[:, None] > 0)
    t_vec = np.zeros(n)
    for s in seeds:
        t_vec[idx[s]] = 1.0 / len(seeds)
    r = t_vec.copy()
    for _ in range(iters):
        dangling = r[out == 0].sum()
        push = r @ P
        r = (1 - damping) * t_vec + damping * (push + dangling * t_vec)
    return dict(zip(hosts, r))


@pytest.mark.usefixtures("ray_session")
def test_personalized_pagerank_matches_dense_oracle():
    from link_profiler_repo_ray.pipelines import graph

    seeds = ("h0.example.com",)
    got = pl.from_pandas(
        graph.host_pagerank_personalized(SF, seeds=seeds, iters=15).to_pandas()
    )
    pairs = pl.from_pandas(graph.host_graph(SF).to_pandas()).select(
        ["source_host", "target_host", "n_links"]
    )
    want = _ref_ppr(pairs, seeds, damping=0.85, iters=15)
    assert got.height == len(want)
    for h, r in zip(got.get_column("host"), got.get_column("rank")):
        assert abs(r - want[h]) < 1e-8, h
    # mass stays a (sub-)distribution concentrated near the seed
    ranks = dict(zip(got.get_column("host"), got.get_column("rank")))
    assert ranks["h0.example.com"] == max(ranks.values())
    assert got.get_column("rank").sum() <= 1.0 + 1e-6


def _ref_lpa(pairs: pl.DataFrame, rounds: int) -> dict[str, str]:
    """Sequential fixed-round synchronous LPA: undirected weight sum,
    argmax neighbor-label weight, ties -> smallest label."""
    import collections

    adj = collections.defaultdict(lambda: collections.defaultdict(int))
    for s, t, c in pairs.iter_rows():
        adj[s][t] += c
        adj[t][s] += c
    labels = {h: h for h in adj}
    for _ in range(rounds):
        new = {}
        for u, nbrs in adj.items():
            freq = collections.defaultdict(int)
            for v, w in nbrs.items():
                freq[labels[v]] += w
            best = min(freq.items(), key=lambda kv: (-kv[1], kv[0]))
            new[u] = best[0]
        labels = new
    return labels


@pytest.mark.usefixtures("ray_session")
def test_host_communities_matches_sequential_lpa(ray_session=None):
    from link_profiler_repo_ray.pipelines import graph

    rounds = 4
    got = pl.from_pandas(graph.host_communities(SF, rounds=rounds).to_pandas())
    pairs = pl.from_pandas(graph.host_graph(SF).to_pandas()).select(
        ["source_host", "target_host", "n_links"]
    )
    want = _ref_lpa(pairs, rounds)
    assert got.height == len(want)
    for h, c in zip(got.get_column("host"), got.get_column("community")):
        assert c == want[h], h
    # communities are non-trivial: fewer communities than hosts
    assert got.get_column("community").n_unique() < got.height


@pytest.mark.usefixtures("ray_session")
def test_host_communities_planted_two_cliques():
    """Two dense cliques joined by one weak bridge edge must resolve
    to exactly two communities with the bridge endpoints separated."""
    import pyarrow as pa
    import ray.data as rd

    from link_profiler_repo_ray.pipelines import graph

    rows = []
    a = [f"a{i}.example.com" for i in range(5)]
    b = [f"b{i}.example.com" for i in range(5)]
    for grp in (a, b):
        for i, u in enumerate(grp):
            for v in grp[i + 1:]:
                rows.append((u, v, 3))
    rows.append((a[0], b[0], 1))  # weak bridge

    # replicate rows by weight so host_graph's count IS the weight
    reps = []
    for u, v, w in rows:
        reps += [(u, v)] * w
    edges = rd.from_arrow(
        pa.table(
            {
                "source_host": [r[0] for r in reps],
                "target_host": [r[1] for r in reps],
            }
        )
    )
    got = pl.from_pandas(graph.host_communities(SF, edges=edges, rounds=6).to_pandas())
    comm = dict(zip(got.get_column("host"), got.get_column("community")))
    assert len({comm[h] for h in a}) == 1
    assert len({comm[h] for h in b}) == 1
    assert comm[a[0]] != comm[b[0]]


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("seed,n,m,rounds", [(11, 20, 35, 3), (12, 30, 80, 5)])
def test_host_communities_random_graphs(seed, n, m, rounds):
    """Randomized cross-check: distributed fixed-round LPA equals the
    sequential replay on random multigraphs (duplicate directed edges
    exercise the weight summation; varying density exercises ties)."""
    import pyarrow as pa
    import ray.data as rd

    from link_profiler_repo_ray.pipelines import graph

    rng = np.random.default_rng(seed)
    hosts = [f"r{i:02d}.test" for i in range(n)]
    pairs = [
        (hosts[int(a)], hosts[int(b)])
        for a, b in rng.integers(0, n, size=(m, 2))
        if a != b
    ]
    edges = rd.from_arrow(
        pa.table(
            {
                "source_host": [u for u, v in pairs],
                "target_host": [v for u, v in pairs],
            }
        )
    )
    got = pl.from_pandas(graph.host_communities("", edges=edges, rounds=rounds).to_pandas())
    hg = pl.from_pandas(graph.host_graph("", edges=edges).to_pandas()).select(
        ["source_host", "target_host", "n_links"]
    )
    want = _ref_lpa(hg, rounds)
    assert got.height == len(want)
    for h, c in zip(got.get_column("host"), got.get_column("community")):
        assert c == want[h], (seed, h)


def _planted_multigraph(seed: int, n: int, m: int) -> list[tuple[str, str]]:
    """Random directed multigraph over n hosts: self-loops and duplicate
    pairs from the draw (plus five repeated rows), a sink with in-links
    and no out-links, and a host whose only edge is a self-loop."""
    rng = np.random.default_rng(seed)
    hosts = [f"m{i:02d}.test" for i in range(n)]
    sink, loner = hosts[n - 2], hosts[n - 1]
    pairs = [(hosts[int(a)], hosts[int(b)]) for a, b in rng.integers(0, n - 2, size=(m, 2))]
    pairs += pairs[:5] + [(hosts[0], sink), (hosts[1], sink), (loner, loner)]
    return pairs


def _ref_coreness(und: set) -> dict:
    """Exact min-degree peeling over distinct undirected pairs."""
    adj: dict = {}
    for a, b in und:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    deg = {v: len(a) for v, a in adj.items()}
    remaining, out, k = set(adj), {}, 0
    while remaining:
        v = min(remaining, key=lambda x: (deg[x], x))
        k = max(k, deg[v])
        out[v] = k
        remaining.remove(v)
        for u in adj[v]:
            if u in remaining:
                deg[u] -= 1
    return out


def _ref_assortativity(und: set) -> tuple[int, int]:
    """(edges, r in micro-units): r is the Pearson correlation of the
    degrees at the two ends of an edge, every edge taken both ways."""
    import collections

    deg = collections.Counter(v for pr in und for v in pr)
    j = np.array([deg[a] for a, _ in und] + [deg[b] for _, b in und], dtype=float)
    k = np.array([deg[b] for _, b in und] + [deg[a] for a, _ in und], dtype=float)
    return len(und), round(float(np.corrcoef(j, k)[0, 1]) * 1_000_000)


def _ref_min_roots(pairs) -> dict:
    """Union-find over undirected pairs: vertex → its component's minimum."""
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in parent}


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("seed,n,m", [(21, 18, 60), (22, 40, 70)])
def test_superstep_ops_match_oracles_at_any_partition_count(seed, n, m, monkeypatch):
    """Every op on ops.superstep, with the kernel cut into 1, 2 and 5
    partitions (5 on a 4-CPU session leaves partitions empty), equals
    the dense/sequential oracles and is identical across the cuts."""
    import collections
    import functools

    import pyarrow as pa
    import ray.data as rd

    from link_profiler_repo_ray import ops
    from link_profiler_repo_ray.pipelines import graph, textdata

    pairs = _planted_multigraph(seed, n, m)
    # int64 doc ids whose numeric order is not their string order
    rng = np.random.default_rng(seed)
    doc = {f"m{i:02d}.test": int(v) for i, v in
           enumerate(rng.choice(10**12, size=n, replace=False) - 5 * 10**11)}
    doc_pairs = [(doc[s], doc[t]) for s, t in pairs]
    counts = collections.Counter(pairs)
    hg = pl.DataFrame(
        [(s, t, c) for (s, t), c in counts.items()],
        schema=["source_host", "target_host", "n_links"], orient="row",
    )
    und = {(min(s, t), max(s, t)) for s, t in pairs if s != t}
    directed = {(s, t) for s, t in pairs if s != t}
    adj: dict = {}
    for a, b in und:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    tri = _ref_triangles(und)
    seeds = (pairs[0][0], f"m{n - 2:02d}.test")
    want = {
        "pagerank": _ref_pagerank(hg, 0.85, 9),
        "ppr": _ref_ppr(hg, seeds, 0.85, 9),
        "hits": _ref_hits(hg, 7),
        "lpa": _ref_lpa(hg, 5),
        "kcore": _ref_coreness(und),
        "components": _ref_min_roots(pairs),
        "harmonic": _ref_harmonic(hg),
        "near_dup": _ref_min_roots(doc_pairs),
        "triangles": tri,
        "clustering": {
            h: (len(nb), tri.get(h, 0),
                round(2.0 * tri.get(h, 0) / (len(nb) * (len(nb) - 1)), 6) if len(nb) >= 2 else 0.0)
            for h, nb in adj.items()
        },
        "reciprocal": {
            h: (len(nb), sum((h, y) in directed and (y, h) in directed for y in nb))
            for h, nb in adj.items()
        },
        "assortativity": _ref_assortativity(und),
    }
    edges = rd.from_arrow(
        pa.table({"source_host": [s for s, _ in pairs], "target_host": [t for _, t in pairs]})
    )
    doc_ds = rd.from_arrow(pa.table({
        "doc_a": pa.array([a for a, _ in doc_pairs], pa.int64()),
        "doc_b": pa.array([b for _, b in doc_pairs], pa.int64()),
    }))
    dense_graph = ops.dense_graph
    outputs = []
    for p in (1, 2, 5):
        monkeypatch.setattr(ops, "dense_graph", functools.partial(dense_graph, num_partitions=p))
        got = {
            "pagerank": graph.host_pagerank("", iters=9, edges=edges),
            "ppr": graph.host_pagerank_personalized("", seeds=seeds, iters=9, edges=edges),
            "hits": graph.host_hits("", iters=7, edges=edges),
            "lpa": graph.host_communities("", rounds=5, edges=edges),
            "kcore": graph.host_kcore("", edges=edges),
            "components": graph.host_components("", edges=edges),
            "harmonic": graph.host_harmonic_centrality("", edges=edges),
            "harmonic_hll": graph.host_harmonic_centrality("", edges=edges, mode="hll"),
            "triangles": graph.host_triangle_counts("", edges=edges),
            "clustering": graph.host_clustering("", edges=edges),
            "reciprocal": graph.host_reciprocal_links("", edges=edges),
        }
        got = {k: pl.from_pandas(ds.to_pandas()).sort("host") for k, ds in got.items()}
        got["near_dup"] = pl.from_pandas(
            textdata.near_dup_survivors("", pairs=doc_ds).to_pandas()).sort("doc_id")
        got["assortativity"] = pl.from_pandas(
            graph.host_degree_assortativity("", edges=edges).to_pandas())
        outputs.append(got)

        rank = dict(got["pagerank"].select("host", "rank").iter_rows())
        assert rank.keys() == want["pagerank"].keys()
        assert all(abs(rank[h] - r) < 1e-8 for h, r in want["pagerank"].items()), p
        ppr = dict(got["ppr"].select("host", "rank").iter_rows())
        assert all(abs(ppr[h] - r) < 1e-8 for h, r in want["ppr"].items()), p
        want_a, want_h = want["hits"]
        assert got["hits"].height == len(want_a)
        for h, a, hub in got["hits"].select("host", "authority", "hub").iter_rows():
            assert abs(a - want_a[h]) < 1e-6 and abs(hub - want_h[h]) < 1e-6, (p, h)
        assert dict(got["lpa"].iter_rows()) == want["lpa"], p
        assert dict(got["kcore"].iter_rows()) == want["kcore"], p
        assert dict(got["components"].iter_rows()) == want["components"], p
        assert got["harmonic"].height == len(want["harmonic"]), p
        for h, cnt, harm, close in got["harmonic"].iter_rows():
            wn, wh, wc = want["harmonic"][h]
            assert cnt == wn and abs(harm - wh) < 1e-9 and abs(close - wc) < 1e-9, (p, h)
        assert got["harmonic_hll"]["host"].equals(got["harmonic"]["host"]), p
        assert dict(got["near_dup"].iter_rows()) == want["near_dup"], p
        assert dict(got["triangles"].iter_rows()) == want["triangles"], p
        assert got["clustering"].height == len(want["clustering"]), p
        for h, d, t, c in got["clustering"].iter_rows():
            wd, wt, wc = want["clustering"][h]
            assert (d, t) == (wd, wt) and abs(c - wc) < 1e-9, (p, h)
        assert {h: (a, b) for h, a, b in got["reciprocal"].iter_rows()} == want["reciprocal"], p
        ((m_edges, micro),) = got["assortativity"].iter_rows()
        want_m, want_micro = want["assortativity"]
        assert m_edges == want_m and abs(micro - want_micro) <= 1, p
    for other in outputs[1:]:
        for k, df in outputs[0].items():
            assert other[k].equals(df), k


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("num_partitions", [1, 2, 5])
def test_superstep_primitive_degrees_and_ids(num_partitions):
    """The primitive itself: ids are ranks in name order; a layout holds
    each (src, dst) pair once, sorted by (dst, src), with ``w`` its
    input rows and, undirected, ``dir`` its directions; one superstep
    counts in-degree (parallel edges counted), the transpose counts
    out-degree, and an empty edge set builds an empty graph."""
    import collections

    import pyarrow as pa
    import ray
    import ray.data as rd

    from link_profiler_repo_ray import ops

    pairs = _planted_multigraph(5, 12, 30)
    table = pa.table({"s": [s for s, _ in pairs], "t": [t for _, t in pairs]})
    # three input blocks, so build chunks each hold only part of the names
    edges = rd.from_arrow([table.slice(0, 9), table.slice(9, 11), table.slice(20)])
    g = ops.dense_graph(edges, "s", "t", num_partitions=num_partitions)
    hosts = sorted({h for pr in pairs for h in pr})
    assert len(g.parts) == num_partitions and g.num_vertices == len(hosts)

    def layout_rows(graph_):
        rows = {}
        for part in ray.get(graph_.parts):
            src, dst = part["src"], part["dst"]
            assert (np.lexsort((src, dst)) == np.arange(len(src))).all()
            assert part["w"].dtype == np.int64
            for i, (a, b) in enumerate(zip(src.tolist(), dst.tolist())):
                key = (hosts[part["base"] + a], hosts[b])
                assert key not in rows, key
                rows[key] = (int(part["w"][i]), int(part["dir"][i]) if "dir" in part else None)
        return rows

    assert layout_rows(g) == {pr: (c, None) for pr, c in collections.Counter(pairs).items()}
    und_w, und_dir = collections.Counter(), collections.defaultdict(int)
    for s, t in pairs:
        und_w[(s, t)] += 1
        und_w[(t, s)] += 1
        und_dir[(s, t)] |= 1
        und_dir[(t, s)] |= 2
    und = ops.dense_graph(edges, "s", "t", undirected=True, num_partitions=num_partitions)
    assert und.num_vertices == len(hosts)
    assert layout_rows(und) == {pr: (c, und_dir[pr]) for pr, c in und_w.items()}

    def count(part, _state, _scalars):
        return ops.segment_reduce(part["dst"], part["w"].astype(np.float64))

    def gather(part, _state, msgs, _scalars):
        deg = np.bincount(msgs["dst"].to_numpy(), weights=msgs["v"].to_numpy(),
                          minlength=part["n"])
        return deg, int(deg.sum())

    def table(part, deg):
        names = pl.from_arrow(part["names"]).to_list()
        ids = list(range(part["base"], part["base"] + part["n"]))
        return pa.table({"host": names, "id": ids, "deg": deg.astype(np.int64)})

    for graph_, key in ((g, 1), (ops.reverse_graph(g), 0)):
        none = [None] * num_partitions
        deg, totals = ops.superstep(graph_, none, count, gather)
        assert sum(ray.get(totals)) == len(pairs)
        got = pl.from_pandas(
            rd.from_arrow_refs(graph_.map(table, per_part=(deg,))).to_pandas()
        )
        assert got.get_column("host").to_list() == hosts
        assert got.get_column("id").to_list() == list(range(len(hosts)))
        want = collections.Counter(pr[key] for pr in pairs)
        assert dict(zip(got["host"], got["deg"])) == {h: want.get(h, 0) for h in hosts}

    empty = rd.from_arrow(pa.table({"s": pa.array([], pa.string()), "t": pa.array([], pa.string())}))
    e = ops.dense_graph(empty, "s", "t", num_partitions=num_partitions)
    assert e.num_vertices == 0 and len(e.parts) == num_partitions

    # int64 vertex keys: an empty pair set is an empty graph, and the
    # components on it (near_dup_survivors) are zero rows
    from link_profiler_repo_ray.pipelines import textdata

    no_pairs = rd.from_arrow(pa.table({"doc_a": pa.array([], pa.int64()),
                                       "doc_b": pa.array([], pa.int64())}))
    e = ops.dense_graph(no_pairs, "doc_a", "doc_b", undirected=True, num_partitions=num_partitions)
    assert e.num_vertices == 0 and len(e.parts) == num_partitions
    assert textdata.near_dup_survivors("", pairs=no_pairs).count() == 0
