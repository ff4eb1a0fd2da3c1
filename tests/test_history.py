"""snapshot_diff + redirect_chains vs pure-Python oracles at sf0.001.

The SQL oracles in __ray_entry__ cover cross-engine hash equality;
these tests independently re-derive both results in plain Python so a
bug shared between the engine and the SQL (e.g. a wrong closed form)
cannot hide.
"""

import pyarrow.parquet as pq
import pytest


SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs():
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    return dict(zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist()))


class TestSnapshotDiff:
    def test_matches_python_oracle(self, ray_session, docs):
        from link_profiler_repo_ray.pipelines.history import snapshot_diff

        base = max(docs) + 1
        snap_b = {}
        for d, t in docs.items():
            if d % 41 == 6:
                continue
            snap_b[d] = t + " [updated]" if d % 9 == 2 else t
        for d, t in docs.items():
            if d % 23 == 3:
                snap_b[d + base] = t + " [new]"

        expected = {}
        for d in set(docs) | set(snap_b):
            if d not in docs:
                expected[d] = "added"
            elif d not in snap_b:
                expected[d] = "removed"
            elif docs[d] != snap_b[d]:
                expected[d] = "changed"
            else:
                expected[d] = "unchanged"

        out = snapshot_diff(SF).to_pandas()
        got = dict(zip(out["doc_id"], out["status"]))
        assert got == expected
        # the synthetic snapshot must exercise every class
        assert set(expected.values()) == {"added", "removed", "changed", "unchanged"}


class TestRedirectChains:
    @staticmethod
    def _is_redirect(d: int) -> bool:
        return d % 3 != 0 and d > 0

    @staticmethod
    def _step(d: int) -> int:
        return max(d - ((d * 2) % 5 + 1), 0)

    def test_matches_sequential_chase(self, ray_session, docs):
        from link_profiler_repo_ray.pipelines.history import redirect_chains

        expected = {}
        for d in docs:
            cur, hops = d, 0
            while self._is_redirect(cur):
                cur = self._step(cur)
                hops += 1
                assert hops < 10_000
            expected[d] = (cur, hops)

        out = redirect_chains(SF).to_pandas()
        got = {r.doc_id: (r.final_id, r.hops) for r in out.itertuples()}
        assert got == expected
        # chains must be non-trivial for the doubling to be exercised
        assert max(h for _, h in expected.values()) >= 3

    def test_unresolved_chains_raise(self, ray_session):
        """With one round the convergence check sees only m0 (one hop
        per doc), so the chains longer than one hop make it fail loudly."""
        from link_profiler_repo_ray.pipelines.history import redirect_chains

        with pytest.raises(RuntimeError, match="unresolved after 1 doubling rounds"):
            redirect_chains(SF, max_iters=1)

    def test_zero_row_documents_table(self, ray_session, tmp_path):
        """No documents: zero rows with the typed output columns."""
        import pyarrow as pa

        from link_profiler_repo_ray.pipelines.history import redirect_chains

        pq.write_table(pq.read_table(f"{SF}/documents.parquet").slice(0, 0),
                       tmp_path / "documents.parquet")
        ds = redirect_chains(str(tmp_path)).materialize()
        assert ds.count() == 0
        assert ds.schema().base_schema == pa.schema(
            [("doc_id", pa.int64()), ("final_id", pa.int64()), ("hops", pa.int64())])


class TestProfilesIncremental:
    def test_delta_merge_equals_full_recompute(self, ray_session):
        """The IVM property: stored pair index + signed delta ==
        profiles recomputed from scratch over the surviving docs."""
        import polars as pl

        from link_profiler_repo_ray.pipelines.graph import edges_dataset, link_profiles
        from link_profiler_repo_ray.pipelines.history import profiles_incremental

        def survivors_only(batch):
            df = pl.from_arrow(batch)
            d = pl.col("source_url").str.extract(r"/doc/(\d+)$", 1).cast(pl.Int64)
            return df.filter(d % 41 != 6).to_arrow()

        full = (
            link_profiles(
                SF,
                edges=edges_dataset(SF).map_batches(
                    survivors_only, batch_format="pyarrow", zero_copy_batch=True
                ),
            )
            .to_pandas()
            .sort_values("target_url")
            .reset_index(drop=True)
        )
        inc = (
            profiles_incremental(SF)
            .to_pandas()
            .sort_values("target_url")
            .reset_index(drop=True)
        )
        assert sorted(full.columns) == sorted(inc.columns)
        inc = inc[full.columns]
        import pandas as pd

        pd.testing.assert_frame_equal(full, inc, check_dtype=False)
        # the delta must actually remove something
        base = link_profiles(SF).to_pandas()
        assert inc["total_backlinks"].sum() < base["total_backlinks"].sum()
