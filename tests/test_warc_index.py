"""CDX index over WARC shards (sources/warc.py write_warc_indexed /
pages_from_cdx_index): the index must make shards truly seekable —
every record retrievable by (filename, offset, length) alone, with the
digest vouching for the payload."""

import hashlib
import os

import polars as pl
import pyarrow as pa
import pytest


SF = "/root/testdata/sf0.001"


def _collect(ds) -> pa.Table:
    import ray

    return pa.concat_tables(
        [t if isinstance(t, pa.Table) else ray.get(t) for t in ds.to_arrow_refs()]
    )


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    from link_profiler_repo_ray.pipelines import graph
    from link_profiler_repo_ray.sources.warc import write_warc_indexed

    out = str(tmp_path_factory.mktemp("warccdx"))
    pages = graph.pages_dataset(SF)
    index = _collect(write_warc_indexed(pages, out))
    orig = _collect(pages)
    return out, index, orig


def test_index_is_sorted_and_complete(built):
    from link_profiler_repo_ray.sources.warc import surt_key

    _, index, orig = built
    assert index.num_rows == orig.num_rows
    keys = list(
        zip(index.column("urlkey").to_pylist(), index.column("timestamp").to_pylist())
    )
    assert keys == sorted(keys)  # CDX sort order
    assert set(index.column("urlkey").to_pylist()) == {
        surt_key(u) for u in orig.column("url").to_pylist()
    }


def test_seek_read_single_records(built):
    """Random access: read 7 arbitrary records via seek, compare bytes."""
    from link_profiler_repo_ray.sources.warc import pages_from_cdx_index

    _, index, orig = built
    by_url = {
        u: (h, t)
        for u, h, t in zip(
            orig.column("url").to_pylist(),
            orig.column("html").to_pylist(),
            orig.column("warc_ts").to_pylist(),
        )
    }
    sample = index.take(list(range(0, index.num_rows, max(1, index.num_rows // 7)))[:7])
    got = _collect(pages_from_cdx_index(sample))
    assert got.num_rows == sample.num_rows
    for u, h, t in zip(
        got.column("url").to_pylist(),
        got.column("html").to_pylist(),
        got.column("warc_ts").to_pylist(),
    ):
        wh, wt = by_url[u]
        assert bytes(h) == bytes(wh)  # byte-identical payload via seek
        assert t == wt


def test_digest_matches_payload(built):
    from link_profiler_repo_ray.sources.warc import pages_from_cdx_index

    _, index, _ = built
    sample = index.slice(0, 5)
    got = _collect(pages_from_cdx_index(sample, extract_text=False))
    digests = {
        u: d for u, d in zip(sample.column("url").to_pylist(), sample.column("digest").to_pylist())
    }
    for u, h in zip(got.column("url").to_pylist(), got.column("html").to_pylist()):
        assert hashlib.sha1(bytes(h)).hexdigest() == digests[u]


def test_full_read_via_index_equals_corpus(built):
    from link_profiler_repo_ray.sources.warc import pages_from_cdx_index

    _, index, orig = built
    got = _collect(pages_from_cdx_index(index))
    g = pl.from_arrow(got).sort("url")
    o = pl.from_arrow(orig).sort("url")
    assert g.get_column("url").to_list() == o.get_column("url").to_list()
    assert g.get_column("text").to_list() == o.get_column("text").to_list()


def test_offsets_are_real_file_positions(built):
    """The offset column must be usable with a bare file handle —
    no library code — proving the index stands alone."""
    _, index, _ = built
    row = index.slice(1, 1).to_pylist()[0]
    with open(row["filename"], "rb") as fh:
        fh.seek(row["offset"])
        rec = fh.read(row["length"])
    assert rec.startswith(b"WARC/1.1\r\n")
    assert rec.endswith(b"\r\n\r\n")
    assert ("WARC-Target-URI: " + row["url"]).encode() in rec

def test_shard_names_content_addressed(built, tmp_path):
    """Two batches sharing first-URL AND row count must land in distinct
    shards (a name derived from just those two collided and clobbered),
    and rebuilding identical content is idempotent: no new files, no
    payload rewrite (mtimes untouched)."""
    import datetime as dt

    import ray.data as rd

    from link_profiler_repo_ray.sources.warc import write_warc_indexed

    out = str(tmp_path / "shards")
    ts0 = dt.datetime(2025, 1, 1)

    def capture(body: str, ts) -> pa.Table:
        return pa.table(
            {
                "url": pa.array(["http://a.example/", "http://b.example/"]),
                "warc_ts": pa.array([ts, ts], pa.timestamp("us")),
                "html": pa.array([body.encode(), b"<html>b</html>"], pa.binary()),
                "lang": pa.array(["en", "en"]),
            }
        )

    t1 = capture("<html>v1</html>", ts0)
    t2 = capture("<html>v2-recaptured</html>", ts0.replace(year=2026))
    idx1 = _collect(write_warc_indexed(rd.from_arrow(t1), out))
    idx2 = _collect(write_warc_indexed(rd.from_arrow(t2), out))
    f1, f2 = set(idx1.column("filename").to_pylist()), set(idx2.column("filename").to_pylist())
    assert f1.isdisjoint(f2)  # same first URL + count, different shards
    # every index row still dereferences to its own digest-true bytes
    for idx in (idx1, idx2):
        for row in idx.to_pylist():
            with open(row["filename"], "rb") as fh:
                fh.seek(row["offset"])
                rec = fh.read(row["length"])
            assert ("WARC-Target-URI: " + row["url"]).encode() in rec
    # idempotent rebuild: same names, zero rewrites, no tmp litter
    before = {f: os.stat(f).st_mtime_ns for f in f1 | f2}
    idx1b = _collect(write_warc_indexed(rd.from_arrow(t1), out))
    assert set(idx1b.column("filename").to_pylist()) == f1
    assert {f: os.stat(f).st_mtime_ns for f in f1 | f2} == before
    assert [p for p in os.listdir(out) if ".tmp" in p] == []
