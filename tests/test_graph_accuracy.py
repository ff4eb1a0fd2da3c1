"""SURVEY §5 item 3: sketch-based aggregates vs exact ground truth."""

import pytest

SF = "/root/testdata/sf0.001"


@pytest.mark.usefixtures("ray_session")
def test_hll_within_error_bound_of_exact():
    from link_profiler_repo_ray.pipelines import graph

    exact = (
        graph.referring_domains_exact(SF)
        .to_pandas()
        .set_index("target_host")["referring_domains"]
    )
    est = (
        graph.referring_domains_hll(SF)
        .to_pandas()
        .set_index("target_host")["referring_domains_est"]
    )
    assert set(exact.index) == set(est.index)
    for host in exact.index:
        rel_err = abs(est[host] - exact[host]) / max(1, exact[host])
        assert rel_err < 0.1, (host, est[host], exact[host])


@pytest.mark.usefixtures("ray_session")
def test_profiles_sum_to_edge_count():
    from link_profiler_repo_ray.pipelines import graph

    profiles = graph.link_profiles(SF).to_pandas()
    n_edges = graph.edges_dataset(SF).count()
    assert profiles["total_backlinks"].sum() == n_edges
    assert (profiles["unique_referring_domains"] <= profiles["total_backlinks"]).all()


@pytest.mark.usefixtures("ray_session")
def test_host_components_vs_union_find():
    """Distributed label-propagation components == sequential union-find."""
    from link_profiler_repo_ray.pipelines import graph

    edges = [
        (r["source_host"], r["target_host"])
        for r in graph.host_graph(SF).take_all()
    ]
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    comp: dict = {}
    for h in parent:
        comp.setdefault(find(h), set()).add(h)
    expected = {frozenset(v) for v in comp.values()}

    rows = graph.host_components(SF).take_all()
    got: dict = {}
    for r in rows:
        got.setdefault(r["root_host"], set()).add(r["host"])
    # every member's root is its component's smallest host name
    for root, members in got.items():
        assert root in members
        assert root == min(members)
    assert {frozenset(v) for v in got.values()} == expected


@pytest.mark.usefixtures("ray_session")
def test_link_overlap_hll_planted():
    """Planted referrer sets: A=200 sources, B=150, 60 shared — the
    inclusion-exclusion HLL estimates must land within a few percent
    of the exact cardinalities (deterministic: fixed hash, fixed p)."""
    import pyarrow as pa
    import ray.data as rd

    from link_profiler_repo_ray.pipelines import graph

    a_only = [f"sa{i}.net" for i in range(140)]
    b_only = [f"sb{i}.net" for i in range(90)]
    shared = [f"sc{i}.net" for i in range(60)]
    rows = [("A.com", s) for s in a_only + shared] + [
        ("B.com", s) for s in b_only + shared
    ]
    edges = rd.from_arrow(
        pa.table(
            {
                "target_host": [r[0] for r in rows],
                "source_host": [r[1] for r in rows],
            }
        )
    )
    t = graph.link_overlap_hll("unused", "A.com", "B.com", edges=edges).to_pandas()
    r = t.iloc[0]
    assert abs(r["referring_a_est"] - 200) / 200 < 0.05
    assert abs(r["referring_b_est"] - 150) / 150 < 0.05
    assert abs(r["union_est"] - 290) / 290 < 0.05
    # intersection inherits summed error: generous band, still useful
    assert 30 <= r["intersection_est"] <= 90


@pytest.mark.usefixtures("ray_session")
def test_link_overlap_hll_matches_exact_on_corpus():
    from link_profiler_repo_ray.pipelines import graph

    t = graph.link_overlap_hll(
        "/root/testdata/sf0.001", "h1.example.com", "h2.example.com"
    ).to_pandas()
    exact = graph.link_intersect(
        "/root/testdata/sf0.001", "h1.example.com", "h2.example.com"
    ).to_pandas()
    est = t.iloc[0]["intersection_est"]
    # 10-host corpus: linear-counting regime, estimates are near-exact
    assert abs(est - len(exact)) <= max(2.0, 0.1 * len(exact))


@pytest.mark.usefixtures("ray_session")
def test_link_overlap_hll_large_planted():
    """10k-scale planted sets: p=14 estimates must land within the
    3-sigma HLL band (~2.5% per estimate; intersection inherits the
    summed error of three estimates)."""
    import pyarrow as pa
    import ray.data as rd

    from link_profiler_repo_ray.pipelines import graph

    a_only = [f"la{i}.net" for i in range(9000)]
    b_only = [f"lb{i}.net" for i in range(6000)]
    shared = [f"lc{i}.net" for i in range(3000)]
    rows = [("A.com", s) for s in a_only + shared] + [
        ("B.com", s) for s in b_only + shared
    ]
    edges = rd.from_arrow(
        pa.table(
            {
                "target_host": [r[0] for r in rows],
                "source_host": [r[1] for r in rows],
            }
        )
    )
    t = graph.link_overlap_hll("unused", "A.com", "B.com", edges=edges).to_pandas()
    r = t.iloc[0]
    assert abs(r["referring_a_est"] - 12000) / 12000 < 0.025
    assert abs(r["referring_b_est"] - 9000) / 9000 < 0.025
    assert abs(r["union_est"] - 18000) / 18000 < 0.025
    assert abs(r["intersection_est"] - 3000) / 3000 < 0.30


def _edge_frame(table):
    """An edge table as a polars frame sorted on every column (the list
    column joined), for a multiset comparison."""
    import polars as pl

    df = pl.from_arrow(table).with_columns(pl.col("rel_attributes").list.join("\x00"))
    return df.sort(df.columns)


@pytest.mark.usefixtures("ray_session")
def test_edges_scan_equals_lazy_extraction(tmp_path, monkeypatch):
    """edges_dataset, one ops.scan wave, gives the rows (as a multiset)
    and the schema of the lazy read + map_batches(ExtractLinksStage())
    over a corpus of two files of several row groups; no task extracts
    more than EDGE_PAGES_PER_TASK pages.  A corpus of zero pages gives
    zero rows with the nine edge columns."""
    import os
    import uuid

    import pyarrow.parquet as pq

    from link_profiler_repo_ray import ops
    from link_profiler_repo_ray.pipelines import graph
    from link_profiler_repo_ray.stages import ExtractLinksStage

    cols = ["url", "warc_ts", "html"]
    pages = pq.read_table(graph.corpus_files(SF), columns=cols)
    files = [str(tmp_path / "pages_0.parquet"), str(tmp_path / "pages_1.parquet")]
    pq.write_table(pages.slice(0, 300), files[0], row_group_size=70)
    pq.write_table(pages.slice(300), files[1], row_group_size=45)
    assert min(pq.read_metadata(f).num_row_groups for f in files) > 1
    monkeypatch.setattr(graph, "corpus_files", lambda sf_dir, multiplier=1: files)
    limit = 64
    monkeypatch.setattr(graph, "EDGE_PAGES_PER_TASK", limit)
    calls = tmp_path / "calls"
    calls.mkdir()

    def recording():
        stage = ExtractLinksStage()

        def run(batch):
            open(os.path.join(calls, f"{batch.num_rows}-{uuid.uuid4().hex}"), "w").close()
            return stage(batch)

        return run

    monkeypatch.setattr(graph, "ExtractLinksStage", recording)
    got = ops.collect_table(graph.edges_dataset(SF))
    rows = [int(f.split("-")[0]) for f in os.listdir(calls)]
    assert sum(rows) == pages.num_rows and max(rows) <= limit
    assert len(rows) == -(-pages.num_rows // limit)
    exp = ops.collect_table(graph.pages_dataset(SF, columns=cols).map_batches(
        ExtractLinksStage(), batch_format="pyarrow", zero_copy_batch=True))
    assert got.num_rows > pages.num_rows
    assert got.schema.equals(exp.schema)
    assert _edge_frame(got).equals(_edge_frame(exp))

    pq.write_table(pages.slice(0, 0), files[0])
    monkeypatch.setattr(graph, "corpus_files", lambda sf_dir, multiplier=1: files[:1])
    empty = graph.edges_dataset(SF)
    assert empty.count() == 0
    assert empty.schema().names == exp.schema.names
    assert len(exp.schema.names) == 9
