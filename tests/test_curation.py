"""Round-3 corpus-curation operators: the no-SQL sequence_packing
greedy oracle, plus non-triviality guards for the oracle-backed ops
(an all-zero output would satisfy a DuckDB hash match without proving
the operator does anything)."""

import polars as pl
import pyarrow as pa
import pytest
import ray

from link_profiler_repo_ray.pipelines import textdata

SF = "/root/testdata/sf0.001"


def _collect(ds) -> pl.DataFrame:
    return pl.from_arrow(
        pa.concat_tables(
            [ray.get(r) for r in ds.to_arrow_refs()], promote_options="permissive"
        )
    )


@pytest.mark.usefixtures("ray_session")
def test_sequence_packing_matches_greedy_oracle():
    budget = 512
    got = _collect(textdata.sequence_packing(SF, budget=budget)).sort("doc_id")

    docs = (
        pl.read_parquet(f"{SF}/documents.parquet")
        .select(
            "doc_id",
            "source",
            pl.col("text").str.split(" ").list.len().cast(pl.Int64).alias("n_tokens"),
        )
        .sort("doc_id")
    )
    # pure-Python greedy replay per source, doc_id order
    expect = {}
    for (src,), g in sorted(docs.group_by("source"), key=lambda kv: kv[0][0]):
        b, acc = 0, 0
        for doc_id, _, t in g.sort("doc_id").iter_rows():
            if acc > 0 and acc + t > budget:
                b, acc = b + 1, 0
            acc += t
            expect[doc_id] = f"{src}-{b}"
    assert dict(zip(got["doc_id"], got["bin_id"])) == expect

    # invariants: every doc exactly once; bins never exceed budget
    # unless they hold a single oversized doc; bin_tokens is the sum
    assert got.height == docs.height
    assert got["doc_id"].n_unique() == docs.height
    per_bin = got.group_by("bin_id").agg(
        pl.col("n_tokens").sum().alias("s"), pl.len().alias("n"),
        pl.col("bin_tokens").first(),
    )
    bad = per_bin.filter((pl.col("s") > budget) & (pl.col("n") > 1))
    assert bad.height == 0
    assert (per_bin["s"] == per_bin["bin_tokens"]).all()


@pytest.mark.usefixtures("ray_session")
def test_curation_ops_nontrivial():
    clean = _collect(textdata.clean_text(SF))
    assert clean["n_repeats_removed"].sum() > 0  # corpus has 'batch batch batch' runs

    scrub = _collect(textdata.pii_scrub(SF))
    assert scrub["n_terms"].sum() > 0
    assert scrub.filter(pl.col("text_scrubbed").str.contains(r"\[TERM\]")).height > 0

    cont = _collect(textdata.contamination_ngrams(SF))
    assert cont.height > 0  # planted dups share 7-grams with the test slice

    funnel = _collect(textdata.quality_funnel(SF))
    # funnel is monotone and discriminating at every gate
    assert (funnel["n_docs"] >= funnel["pass_len"]).all()
    assert (funnel["pass_len"] >= funnel["pass_tokens"]).all()
    assert (funnel["pass_tokens"] >= funnel["pass_unique"]).all()
    assert 0 < funnel["pass_unique"].sum() < funnel["n_docs"].sum()


@pytest.mark.usefixtures("ray_session")
def test_pii_patterns_on_planted_pii():
    """The corpus has no real PII, so drive the patterns directly
    through the same stage polars runs per batch."""
    import ray.data as rd

    rows = [
        {"doc_id": 1, "text": "mail me at a.b+c@ex-ample.co.uk or 10.0.0.1 now"},
        {"doc_id": 2, "text": "call 555-123-4567 x" },
        {"doc_id": 3, "text": "nothing here"},
    ]
    import tempfile, os
    import pyarrow.parquet as pq

    d = tempfile.mkdtemp(prefix="pii_")
    pq.write_table(pa.Table.from_pylist(rows), os.path.join(d, "documents.parquet"))
    got = _collect(textdata.pii_scrub(d)).sort("doc_id")
    assert got["n_email"].to_list() == [1, 0, 0]
    assert got["n_ip"].to_list() == [1, 0, 0]
    assert got["n_phone"].to_list() == [0, 1, 0]
    assert got["text_scrubbed"].to_list()[0] == "mail me at [EMAIL] or [IP] now"
    assert got["text_scrubbed"].to_list()[1] == "call [PHONE] x"


@pytest.mark.usefixtures("ray_session")
def test_pii_scrub_empty_blocklist_is_noop_on_terms():
    """extra_terms=() must not build r'\\b()\\b' (zero-width match at
    every word boundary would shred the text)."""
    got = _collect(textdata.pii_scrub(SF, extra_terms=())).sort("doc_id")
    assert got["n_terms"].sum() == 0
    assert got.filter(pl.col("text_scrubbed").str.contains(r"\[TERM\]")).height == 0


def _allpairs_word_jaccard(sf_dir: str, threshold: float):
    """All-pairs exact word-set Jaccard >= threshold through a
    token-inverted-index join: distinct (doc, token, sz) rows grouped
    by token emit every co-occurring pair with both sizes, shared
    tokens are counted per pair, then
    jaccard = shared / (sz_a + sz_b - shared).  The reference for the
    prefix-filtered op; O(df²) pairs per token."""
    import numpy as np

    from link_profiler_repo_ray.ops import hash_aggregate, hash_group_apply

    def tok_stage(batch: pa.Table) -> pa.Table:
        ids, toks, szs = [], [], []
        for did, text in zip(batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()):
            distinct = set(text.split())
            for t in distinct:
                ids.append(did)
                toks.append(t)
                szs.append(len(distinct))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "token": pa.array(toks, pa.string()),
                "sz": pa.array(szs, pa.int64()),
            }
        )

    def pair_stage(df: pl.DataFrame) -> pl.DataFrame:
        groups = (
            df.sort("doc_id")
            .group_by("token")
            .agg(pl.col("doc_id").alias("ids"), pl.col("sz").alias("szs"))
        )
        a_out, b_out, sa_out, sb_out = [], [], [], []
        for ids, szs in zip(groups.get_column("ids"), groups.get_column("szs")):
            arr, sz = ids.to_numpy(), szs.to_numpy()
            i, j = np.triu_indices(len(arr), k=1)
            a_out.append(arr[i])
            b_out.append(arr[j])
            sa_out.append(sz[i])
            sb_out.append(sz[j])
        cols = ("doc_a", "doc_b", "sz_a", "sz_b")
        return pl.DataFrame(
            {c: np.concatenate(v).astype(np.int64) for c, v in zip(cols, (a_out, b_out, sa_out, sb_out))}
        )

    docs = textdata.documents_dataset(sf_dir, ["doc_id", "text"])
    shared = hash_aggregate(
        hash_group_apply(
            docs.map_batches(tok_stage, batch_format="pyarrow", zero_copy_batch=True),
            ["token"],
            pair_stage,
        ),
        ["doc_a", "doc_b", "sz_a", "sz_b"],
        combine=[pl.len().cast(pl.Int64).alias("shared")],
        merge=[pl.col("shared").sum()],
    )
    return _collect(shared).with_columns(
        jaccard=pl.col("shared") / (pl.col("sz_a") + pl.col("sz_b") - pl.col("shared"))
    ).filter(pl.col("jaccard") >= threshold).select("doc_a", "doc_b", "jaccard")


class TestPrefixJaccard:
    """PPJoin prefix-filtered exact Jaccard (round 5)."""

    def test_equals_allpairs_on_corpus(self, ray_session):
        from link_profiler_repo_ray.pipelines.textdata import word_jaccard_pairs_prefix

        sf = "/root/testdata/sf0.001"
        old = _allpairs_word_jaccard(sf, threshold=0.9).to_pandas()
        new = word_jaccard_pairs_prefix(sf, threshold=0.9).to_pandas()
        ko = {(r.doc_a, r.doc_b): r.jaccard for r in old.itertuples()}
        kn = {(r.doc_a, r.doc_b): r.jaccard for r in new.itertuples()}
        assert ko == kn

    def test_hub_token_emits_no_pairs(self, ray_session, tmp_path):
        """A token present in EVERY doc sorts to every doc's suffix, so
        the prefix path generates zero candidates from it — the exact
        all-pairs path would emit O(n²) pairs for the same corpus."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from link_profiler_repo_ray.pipelines.textdata import word_jaccard_pairs_prefix

        n = 40
        # every doc: the hub token + 9 unique tokens -> all pairwise J = 1/19
        texts = ["hub " + " ".join(f"t{i}_{k}" for k in range(9)) for i in range(n)]
        # plus one planted near-dup pair (J = 1.0)
        texts.append(texts[0])
        d = str(tmp_path / "sf")
        import os

        os.makedirs(d)
        pq.write_table(
            pa.table({"doc_id": list(range(n + 1)), "text": texts}),
            os.path.join(d, "documents.parquet"),
        )
        got = word_jaccard_pairs_prefix(d, threshold=0.9).to_pandas()
        assert len(got) == 1
        assert (got.doc_a[0], got.doc_b[0]) == (0, n)
        assert got.jaccard[0] == 1.0


@pytest.mark.usefixtures("ray_session")
def test_weighted_sample_systematic_invariants():
    """PPS invariants: total picks = floor(total/stride); every picked
    doc's interval really contains a stride multiple; ≥k picks."""
    from link_profiler_repo_ray.pipelines import textdata

    got = _collect(textdata.weighted_sample_systematic(SF)).sort("doc_id")
    docs = pl.read_parquet(f"{SF}/documents.parquet").select(
        "doc_id", pl.col("text").str.split(" ").list.len().cast(pl.Int64).alias("n_tokens")
    )
    total = int(docs.get_column("n_tokens").sum())
    n = docs.height
    k = max(20, n // 25)
    stride = max(1, total // k)
    assert int(got.get_column("n_picks").sum()) == total // stride
    assert int(got.get_column("n_picks").sum()) >= k
    for doc_id, w, cb, p in got.iter_rows():
        # pick convention: stride multiples in the half-open (cb, cb+w]
        lo = (cb // stride + 1) * stride  # first multiple > cb
        assert lo <= cb + w, doc_id
        assert (cb + w) // stride - cb // stride == p


@pytest.mark.usefixtures("ray_session")
def test_recrawl_schedule_invariants():
    from link_profiler_repo_ray.pipelines import research

    got = _collect(research.recrawl_schedule(SF))
    docs = pl.read_parquet(f"{SF}/documents.parquet").height
    assert int(got.get_column("n_pages").sum()) == docs
    assert (got.get_column("total_missed") <= got.get_column("total_changes")).all()
    assert (got.get_column("missed_rate") >= 0).all()
    # finer refresh tiers must not miss a larger fraction than coarser
    srt = got.sort("recrawl_interval_hours")
    rates = srt.get_column("missed_rate").to_list()
    assert rates == sorted(rates)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("seed,n", [(7, 300), (8, 1200)])
def test_weighted_sample_systematic_random_corpora(seed, n, tmp_path):
    """Randomized replay: distributed PPS equals a sequential scan on
    corpora with random token counts (incl. docs longer than stride,
    which must be picked multiple times)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from link_profiler_repo_ray.pipelines import textdata

    rng = np.random.default_rng(seed)
    toks = rng.integers(1, 400, size=n)
    toks[rng.integers(0, n, size=3)] = 5000  # oversized docs
    texts = ["w " * (t - 1) + "w" for t in toks]  # exactly t tokens
    pq.write_table(
        pa.table({"doc_id": pa.array(range(n), pa.int64()), "text": texts}),
        tmp_path / "documents.parquet",
    )
    got = _collect(textdata.weighted_sample_systematic(str(tmp_path))).sort("doc_id")

    total = int(toks.sum())
    k = max(20, n // 25)
    stride = max(1, total // k)
    cum = 0
    expect = {}
    for d in range(n):
        w = int(toks[d])
        p = (cum + w) // stride - cum // stride
        if p > 0:
            expect[d] = (w, cum, p)
        cum += w
    assert got.height == len(expect)
    for doc_id, w, cb, p in got.iter_rows():
        assert expect[doc_id] == (w, cb, p), doc_id
    # any doc longer than the stride is guaranteed at least one pick
    for d in range(n):
        if int(toks[d]) > stride:
            assert d in expect, d
