"""Page-delta compaction: dedup, sharding, manifest, idempotence."""

import hashlib
import json
import os
import shutil

import pyarrow.parquet as pq
import pytest


SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def crawl_out(ray_session, tmp_path_factory):
    from link_profiler_repo_ray.pipelines.crawl import CrawlConfig, run_crawl

    out = str(tmp_path_factory.mktemp("compact") / "crawl")
    cfg = CrawlConfig(
        politeness=False,
        num_seen_shards=2,
        num_fetchers=2,
        output_dir=out,
        collect_edges=False,
    )
    run_crawl(SF, cfg)
    # simulate a resume re-running a tail round: duplicate one delta
    pages = os.path.join(out, "pages")
    first = sorted(f for f in os.listdir(pages) if f.endswith(".parquet"))[0]
    shutil.copy(
        os.path.join(pages, first), os.path.join(pages, "part-999-00000.parquet")
    )
    return out


def _distinct_urls(pages_dir):
    urls = set()
    for f in os.listdir(pages_dir):
        if f.endswith(".parquet"):
            urls.update(
                pq.read_table(os.path.join(pages_dir, f), columns=["url"])
                .column("url")
                .to_pylist()
            )
    return urls


class TestCompactPages:
    def test_dedup_sharding_manifest(self, crawl_out, tmp_path):
        from link_profiler_repo_ray.pipelines.compact import compact_pages, read_compacted

        pages = os.path.join(crawl_out, "pages")
        dest = str(tmp_path / "compacted")
        manifest = compact_pages(pages, dest, num_shards=8)

        want_urls = _distinct_urls(pages)
        assert manifest["total_rows"] == len(want_urls)  # duplicates gone
        assert sum(s["rows"] for s in manifest["shards"]) == manifest["total_rows"]

        # every URL present exactly once, in its md5(host) shard
        got = read_compacted(dest).to_pandas()
        assert sorted(got["url"]) == sorted(want_urls)
        for s in manifest["shards"]:
            t = pq.read_table(os.path.join(dest, s["path"]), columns=["url"])
            for u in t.column("url").to_pylist()[:50]:
                host = u.split("/")[2]
                assert int(hashlib.md5(host.encode()).hexdigest()[:4], 16) % 8 == s["shard"]

        # manifest written last and loadable
        with open(os.path.join(dest, "manifest.json")) as fh:
            assert json.load(fh)["num_shards"] == 8

    def test_idempotent_resume(self, crawl_out, tmp_path):
        from link_profiler_repo_ray.pipelines.compact import compact_pages

        pages = os.path.join(crawl_out, "pages")
        dest = str(tmp_path / "compacted2")
        m1 = compact_pages(pages, dest, num_shards=4)
        mtimes = {
            s["path"]: os.path.getmtime(os.path.join(dest, s["path"]))
            for s in m1["shards"]
        }
        m2 = compact_pages(pages, dest, num_shards=4)
        assert m2.get("skipped") is True
        for s in m2["shards"]:
            assert os.path.getmtime(os.path.join(dest, s["path"])) == mtimes[s["path"]]
