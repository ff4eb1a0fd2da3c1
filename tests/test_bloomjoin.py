"""Bloom semi-join: filter correctness, actual pruning, exact result."""

import duckdb
import numpy as np
import pyarrow.parquet as pq
import pytest


SF = "/root/testdata/sf0.001"


class TestBloomFilter64:
    def test_no_false_negatives_and_low_fp(self):
        from link_profiler_repo_ray.pipelines.bloomjoin import BloomFilter64

        rng = np.random.default_rng(7)
        added = rng.integers(-(2**62), 2**62, size=10_000, dtype=np.int64)
        fresh = rng.integers(-(2**62), 2**62, size=50_000, dtype=np.int64)
        fresh = np.setdiff1d(fresh, added)

        bf = BloomFilter64(m_bits=1 << 20, k=4)
        bf.add(added)
        assert bf.contains(added).all()
        fp = bf.contains(fresh).mean()
        # m=2^20, k=4, n=10k -> theoretical fp ~ 2e-6; allow huge slack
        assert fp < 0.01

    def test_matches_python_set(self):
        from link_profiler_repo_ray.pipelines.bloomjoin import BloomFilter64

        keys = np.arange(-500, 500, dtype=np.int64)
        bf = BloomFilter64(m_bits=1 << 16, k=3)
        bf.add(keys[::2])
        got = bf.contains(keys)
        want_definite = np.zeros(len(keys), dtype=bool)
        want_definite[::2] = True
        # no false negatives ever; false positives allowed but rare here
        assert (got | ~want_definite).all()
        assert got[::2].all()

    def test_merge_is_union(self):
        from link_profiler_repo_ray.pipelines.bloomjoin import BloomFilter64

        a, b = BloomFilter64(1 << 14, 3), BloomFilter64(1 << 14, 3)
        ka = np.array([1, 2, 3], dtype=np.int64)
        kb = np.array([100, 200], dtype=np.int64)
        a.add(ka)
        b.add(kb)
        a.merge_(b)
        assert a.contains(np.concatenate([ka, kb])).all()


class TestBloomSemijoin:
    FLOOR = 470000.0

    def test_exact_vs_duckdb(self, ray_session):
        from link_profiler_repo_ray.pipelines.bloomjoin import bloom_semijoin

        out = bloom_semijoin(SF, price_floor=self.FLOOR).to_pandas()
        con = duckdb.connect()
        want = con.execute(
            f"""
            SELECT c_custkey, c_name
            FROM read_parquet('{SF}/customer.parquet')
            WHERE c_custkey IN (
              SELECT o_custkey FROM read_parquet('{SF}/orders.parquet')
              WHERE o_totalprice > {self.FLOOR}
            )
            ORDER BY c_custkey
            """
        ).fetchdf()
        got = out.sort_values("c_custkey").reset_index(drop=True)
        assert got["c_custkey"].tolist() == want["c_custkey"].tolist()
        assert got["c_name"].tolist() == want["c_name"].tolist()

    def test_bloom_actually_prunes(self):
        """The probe must drop a meaningful share of non-matching
        customers BEFORE the exchange — otherwise the operator is just
        a join with extra steps."""
        from link_profiler_repo_ray.pipelines.bloomjoin import BloomFilter64

        import pyarrow.compute as pc

        orders = pq.read_table(
            f"{SF}/orders.parquet", columns=["o_custkey", "o_totalprice"]
        )
        keys = orders.filter(
            pc.greater(orders.column("o_totalprice"), self.FLOOR)
        ).column("o_custkey").to_numpy(zero_copy_only=False)
        custs = pq.read_table(f"{SF}/customer.parquet", columns=["c_custkey"]).column(
            "c_custkey"
        ).to_numpy(zero_copy_only=False)

        bf = BloomFilter64(1 << 20, 4)
        bf.add(keys)
        passed = bf.contains(custs).mean()
        true_rate = np.isin(custs, keys).mean()
        assert true_rate < 1.0  # the floor must actually filter
        assert passed <= true_rate + 0.01  # fp adds at most ~1%


class TestContaminationBloom:
    def test_equals_exact_operator(self, ray_session):
        """The bloom scale path must reproduce contamination_ngrams
        exactly (bloom FPs are killed by the verify exchange)."""
        from link_profiler_repo_ray.pipelines.bloomjoin import contamination_bloom
        from link_profiler_repo_ray.pipelines.textdata import contamination_ngrams

        got = contamination_bloom(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
        want = (
            contamination_ngrams(SF)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert got["doc_id"].tolist() == want["doc_id"].tolist()
        assert got["n_shared_ngrams"].tolist() == want["n_shared_ngrams"].tolist()
