"""host_spam_scores / url_filter_scores / shard_balance_report
semantics (the SQL-hash equality lives in test_queries_oracle)."""

import pytest


SF = "/root/testdata/sf0.001"


class TestHostSpamScores:
    def test_formula_and_hub(self, ray_session):
        from link_profiler_repo_ray.pipelines.hygiene import host_spam_scores

        df = host_spam_scores(SF).to_pandas()
        assert len(df) > 0
        # score formula holds row-wise
        for r in df.itertuples():
            expect = (r.outdeg * 1000) // (r.indeg + 1) + (
                500 if r.distinct_anchors * 5 < r.outdeg else 0
            )
            assert r.spam_score_milli == expect
            assert r.is_spam == (expect >= 2000)
        # the hub host h0 receives the d%37 skew traffic -> top indeg
        hub = df.loc[df["host"] == "h0.example.com"]
        assert len(hub) == 1
        assert hub["indeg"].iloc[0] == df["indeg"].max()


class TestUrlFilterScores:
    def test_keep_semantics(self, ray_session):
        from link_profiler_repo_ray.pipelines.hygiene import url_filter_scores

        df = url_filter_scores(SF).to_pandas()
        assert len(df) > 0
        assert df["blocklisted"].any()  # synthetic blocklist non-empty
        for r in df.head(200).itertuples():
            digits = sum(ch.isdigit() for ch in r.url)
            assert r.url_len == len(r.url)
            assert r.digit_ratio_milli == (digits * 1000) // len(r.url)
        assert not df.loc[df["blocklisted"], "keep"].any()


class TestShardBalanceReport:
    def test_conservation_and_hub_visibility(self, ray_session):
        import hashlib

        from link_profiler_repo_ray.pipelines.graph import pages_dataset
        from link_profiler_repo_ray.pipelines.hygiene import shard_balance_report
        from link_profiler_repo_ray.sources.corpus import corpus_n_docs

        df = shard_balance_report(SF).to_pandas()
        n = corpus_n_docs(SF)
        assert df["n_docs"].sum() == n
        assert (df["max_host_docs"] <= df["n_docs"]).all()
        assert (df["n_hosts"] >= 1).all()
        # hub host h0 owns the d%37 rows on top of its d%H share; its
        # shard's max_host_docs must BE that count (skew is visible)
        hub_shard = int(hashlib.md5(b"h0.example.com").hexdigest()[:4], 16) % 32
        hub_count = (
            pages_dataset(SF, columns=["url"])
            .to_pandas()["url"]
            .str.startswith("https://h0.example.com/")
            .sum()
        )
        row = df.loc[df["shard"] == hub_shard]
        assert row["max_host_docs"].iloc[0] >= hub_count


class TestRobotsBlockRates:
    def test_parsed_rates_match_ground_truth(self, ray_session):
        """The engine parses real robots text; the corpus rule is
        closed-form, so rates are all-or-nothing per host."""
        from link_profiler_repo_ray.pipelines.hygiene import robots_block_rates

        df = robots_block_rates(SF).to_pandas()
        assert len(df) > 0
        for r in df.itertuples():
            hid = int(r.host.split(".")[0][1:])
            expect = 1000 if hid % 7 == 3 else 0
            assert r.block_rate_milli == expect, r
            assert r.n_blocked == (r.n_urls if expect else 0)
        assert (df["block_rate_milli"] == 1000).any()  # rule actually fires


class TestRangePartitionPlan:
    def test_balance_and_coverage(self, ray_session):
        import duckdb

        from link_profiler_repo_ray.pipelines.hygiene import range_partition_plan

        df = range_partition_plan(SF).to_pandas().sort_values("part")
        con = duckdb.connect()
        n = con.execute(
            f"SELECT count(*) FROM read_parquet('{SF}/events.parquet')"
        ).fetchone()[0]
        assert df["n_rows"].sum() == n  # every event lands somewhere
        # ranges are disjoint and ordered
        his = df["hi_cents"].tolist()
        los = df["lo_cents"].tolist()
        for i in range(len(df) - 1):
            assert his[i] <= los[i + 1]
        # equi-depth within tie slack: no partition more than 2x ideal
        assert df["n_rows"].max() <= 2 * (n / 8) + 1


class TestAnchorFuzzyPairs:
    def test_ed_le_1_unit(self):
        from link_profiler_repo_ray.pipelines.hygiene import _ed_le_1

        assert _ed_le_1("link 1", "link 2")      # substitution
        assert _ed_le_1("link 1", "link 12")     # insertion
        assert _ed_le_1("link 12", "link 1")     # deletion
        assert not _ed_le_1("ab", "ba")          # the blocking FP case
        assert not _ed_le_1("link 1", "link 234")

    def test_blocking_finds_all_pairs(self, ray_session):
        """Deletion blocking + exact check == brute-force truth."""
        import itertools

        from link_profiler_repo_ray.pipelines.graph import edges_dataset
        from link_profiler_repo_ray.pipelines.hygiene import _ed_le_1, anchor_fuzzy_pairs

        anchors = sorted(
            set(edges_dataset(SF).to_pandas()["anchor_text"])
        )
        want = {
            (a, b)
            for a, b in itertools.combinations(anchors, 2)
            if _ed_le_1(a, b)
        }
        got_df = anchor_fuzzy_pairs(SF).to_pandas()
        got = set(zip(got_df["a"], got_df["b"]))
        assert got == want
        assert len(want) > 0
