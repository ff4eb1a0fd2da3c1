"""Training-data ops: planted near-dup recall, ANN recall vs brute

force, determinism of fingerprints, language-ID sanity."""

import numpy as np
import polars as pl
import pytest
import pyarrow as pa
import ray.data as rd

from link_profiler_repo_ray.pipelines import textdata

SF = "/root/testdata/sf0.001"


def _docs_with_planted_dups():
    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    ids = t.column("doc_id").to_pylist()
    texts = t.column("text").to_pylist()
    n = len(ids)
    # plant near-dups: copy of doc i with one word changed
    extra_ids, extra_texts, expected_pairs = [], [], []
    for k, i in enumerate(range(0, 50, 10)):
        words = texts[i].split()
        words[len(words) // 2] = "zzz"
        extra_ids.append(n + k)
        extra_texts.append(" ".join(words))
        expected_pairs.append((ids[i], n + k))
    table = pa.table(
        {
            "doc_id": pa.array(ids + extra_ids, pa.int64()),
            "text": pa.array(texts + extra_texts, pa.string()),
        }
    )
    return rd.from_arrow(table), expected_pairs


@pytest.mark.usefixtures("ray_session")
class TestNearDup:
    def test_minhash_lsh_finds_planted_dups(self):
        docs, expected = _docs_with_planted_dups()
        out = textdata.minhash_lsh_dups(SF, threshold=0.7, extra_docs=docs).to_pandas()
        found = set(zip(out["doc_a"], out["doc_b"]))
        for pair in expected:
            assert pair in found, f"missing planted near-dup {pair}"
        # verification is exact: every reported pair's jaccard >= threshold
        assert (out["jaccard"] >= 0.7).all()

    def test_simhash_finds_planted_dups(self):
        docs, expected = _docs_with_planted_dups()
        out = textdata.simhash_dups(SF, max_hamming=6, extra_docs=docs).to_pandas()
        found = set(zip(out["doc_a"], out["doc_b"]))
        hit = sum(1 for p in expected if p in found)
        assert hit >= len(expected) * 0.6  # simhash is lossier than minhash

    def test_exact_dedup_drops_planted_exact_copy(self):
        ds = textdata.dedup_exact(SF).to_pandas()
        # source table has no exact dups → all docs survive
        assert len(ds) == 500


def _planted_edge_docs() -> pa.Table:
    """sf0.001 plus an empty text, texts shorter than the shingle size,
    exact copies of each and one-word edits, as a ``large_string``
    text column."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    ids, texts = t.column("doc_id").to_pylist(), t.column("text").to_pylist()
    planted = ["", "", "two words", "two words", "x", texts[0], texts[1], texts[1] + " tail"]
    for i in (2, 3, 4):
        words = texts[i].split()
        words[len(words) // 2] = "zzz"
        planted.append(" ".join(words))
    n = max(ids) + 1
    return pa.table(
        {
            "doc_id": pa.array(ids + list(range(n, n + len(planted))), pa.int64()),
            "text": pa.array(texts + planted, pa.large_string()),
        }
    )


def _ref_minhash_pairs(table: pa.Table, threshold: float, num_perm=128, bands=16, shingle_n=3) -> dict:
    """Per-doc shingles → signature → band hashes, buckets, then exact
    Python-set Jaccard of every bucketed pair."""
    from itertools import combinations

    from link_profiler_repo_ray.functions.sketches import band_hashes, minhash_signature, shingle_hashes

    buckets, sets = {}, {}
    for did, text in zip(table.column("doc_id").to_pylist(), table.column("text").to_pylist()):
        h = shingle_hashes(text, shingle_n)
        sets[did] = set(h.tolist())
        for band, bh in enumerate(band_hashes(minhash_signature(h, num_perm), bands)):
            buckets.setdefault((band, int(bh)), set()).add(did)
    out = {}
    for ids in buckets.values():
        for a, b in combinations(sorted(ids), 2):
            inter = len(sets[a] & sets[b])
            denom = len(sets[a]) + len(sets[b]) - inter
            jac = inter / denom if denom else 0.0
            if jac >= threshold:
                out[(a, b)] = jac
    return out


def _pair_dict(df: pl.DataFrame, value: str) -> dict:
    return {(a, b): v for a, b, v in df.select("doc_a", "doc_b", value).iter_rows()}


@pytest.mark.usefixtures("ray_session")
class TestSimilarityJoin:
    """The blocking similarity join behind minhash/simhash: pairs and
    their verified values equal a test-local reference exactly."""

    @pytest.mark.parametrize("threshold", [0.5, 0.7, 0.9])
    def test_minhash_equals_reference_on_corpus(self, threshold):
        import pyarrow.parquet as pq

        got = pl.from_pandas(textdata.minhash_lsh_dups(SF, threshold=threshold).to_pandas())
        want = _ref_minhash_pairs(pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]), threshold)
        assert _pair_dict(got, "jaccard") == want

    @pytest.mark.parametrize("threshold", [0.5, 0.7, 0.9])
    def test_minhash_equals_reference_on_planted_edge_docs(self, threshold):
        table = _planted_edge_docs()
        out = textdata.minhash_lsh_dups(SF, threshold=threshold, extra_docs=rd.from_arrow(table))
        got = pl.from_pandas(out.to_pandas())
        assert got.schema == {"doc_a": pl.Int64, "doc_b": pl.Int64, "jaccard": pl.Float64}
        want = _ref_minhash_pairs(table, threshold)
        assert got.height == len(want)  # one row per pair
        assert _pair_dict(got, "jaccard") == want
        first = table.num_rows - 11  # id of the first planted doc
        ids = table.column("doc_id").to_pylist()
        assert want[(first + 2, first + 3)] == 1.0  # the short exact copies
        assert want[(ids[0], first + 5)] == 1.0  # a copy of a corpus doc
        assert (first, first + 1) not in want  # two empty texts: jaccard 0.0

    @pytest.mark.parametrize("max_hamming", [0, 3])
    def test_simhash_equals_allpairs_reference(self, max_hamming):
        """With 4 bands of 16 bits, a pair within 3 bits agrees on some
        band, so blocking loses nothing and all-pairs is the reference."""
        from link_profiler_repo_ray.functions.sketches import simhash64, token_hashes

        table = _planted_edge_docs()
        ids = np.array(table.column("doc_id").to_pylist(), dtype=np.int64)
        sig = np.array(
            [int(simhash64(token_hashes(t.split()))) for t in table.column("text").to_pylist()],
            dtype=np.uint64,
        )
        i, j = np.triu_indices(len(ids), k=1)
        ham = np.unpackbits((sig[i] ^ sig[j]).view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)
        keep = ham <= max_hamming
        a, b = np.minimum(ids[i], ids[j])[keep], np.maximum(ids[i], ids[j])[keep]
        want = dict(zip(zip(a.tolist(), b.tolist()), ham[keep].tolist()))
        assert want, "the planted copies must give the reference pairs"
        out = textdata.simhash_dups(SF, max_hamming=max_hamming, extra_docs=rd.from_arrow(table))
        got = pl.from_pandas(out.to_pandas())
        assert got.schema == {"doc_a": pl.Int64, "doc_b": pl.Int64, "hamming": pl.Int64}
        assert _pair_dict(got, "hamming") == want


@pytest.mark.usefixtures("ray_session")
class TestAnn:
    def test_knn_ivf_recall_vs_bruteforce(self):
        brute = textdata.embedding_topk(SF, k=10).to_pandas()
        ivf = textdata.knn_ivf(SF, k=10, n_probe=4).to_pandas()
        recalls = []
        for q in brute["query_id"].unique():
            b = set(brute[brute["query_id"] == q]["vec_id"])
            a = set(ivf[ivf["query_id"] == q]["vec_id"])
            recalls.append(len(a & b) / len(b))
        assert np.mean(recalls) >= 0.5  # 4/10 cells probed

    def test_topk_scores_sorted(self):
        brute = textdata.embedding_topk(SF, k=10).to_pandas()
        for q in brute["query_id"].unique():
            s = brute[brute["query_id"] == q].sort_values("rank")["score"].to_numpy()
            assert (np.diff(s) <= 1e-9).all()


@pytest.mark.usefixtures("ray_session")
class TestTextAnalysis:
    def test_fingerprints_deterministic(self):
        a = textdata.fingerprints(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
        b = textdata.fingerprints(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert a.equals(b)

    def test_compression_ratio_matches_direct_zlib(self):
        """Pytest oracle: recompute zlib(level 6) sizes directly from
        the parquet and require bit-identical ratios (the int/int
        division leaves no float ambiguity)."""
        import zlib

        import pandas as pd

        out = (
            textdata.compression_ratio(SF)
            .to_pandas()
            .set_index("doc_id")
            .sort_index()
        )
        docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        assert len(out) == len(docs)
        for _, row in docs.iterrows():
            raw = row["text"].encode("utf-8")
            got = out.loc[row["doc_id"]]
            assert got["n_bytes"] == len(raw)
            assert got["n_compressed"] == len(zlib.compress(raw, 6))
            assert got["compression_ratio"] == len(zlib.compress(raw, 6)) / len(raw)
        assert (out["low_entropy_flagged"] == (out["compression_ratio"] < 0.35)).all()

    def test_token_entropy_matches_direct_counter(self):
        """Pytest oracle: recompute Shannon entropy per doc from a
        collections.Counter with the same micro-nat quantization, and
        check the ln(n) upper / 0 lower bounds."""
        import math
        from collections import Counter

        import pandas as pd

        out = textdata.token_entropy(SF).to_pandas().set_index("doc_id").sort_index()
        docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        assert len(out) == len(docs)
        for _, row in docs.iterrows():
            counts = Counter(row["text"].split(" "))
            n = sum(counts.values())
            micro = sum(
                math.floor((c / n) * math.log(c / n) * -1000000.0 + 0.5)
                for c in counts.values()
            )
            got = out.loc[row["doc_id"]]
            assert got["n_tokens"] == n
            assert got["n_distinct_tokens"] == len(counts)
            assert got["entropy_micro"] == micro
            # each term's round-half-up adds at most +0.5 micro-nats
            assert 0 <= got["entropy_nats"] <= math.log(n) + len(counts) * 0.5e-6 + 1e-9

    def test_source_kl_divergence_properties(self):
        """Gibbs' inequality: KL ≥ 0 (up to ±0.5 micro-nat/term
        quantization), and token totals reconcile with the corpus."""
        import pandas as pd

        out = textdata.source_kl_divergence(SF).to_pandas()
        docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["source", "text"])
        assert set(out["source"]) == set(docs["source"])
        n_corpus = sum(len(t.split(" ")) for t in docs["text"])
        assert out["n_tokens"].sum() == n_corpus
        slack = out["n_distinct_tokens"] * 0.5e-6
        assert (out["kl_nats"] >= -slack).all()

    def test_line_dedup_drops_planted_boilerplate(self):
        """The lorem/brace marker lines are identical across their
        docs, so every marked doc except the corpus-first keeps one
        fewer line; kept totals must equal distinct line count."""
        import pandas as pd

        out = textdata.line_dedup(SF).to_pandas().set_index("doc_id").sort_index()
        docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id"])
        assert len(out) == len(docs)
        lorem_ids = sorted(d for d in docs["doc_id"] if d % 97 == 13)
        assert len(lorem_ids) >= 2
        assert out.loc[lorem_ids[0], "n_dropped_lines"] == 0
        for d in lorem_ids[1:]:
            assert out.loc[d, "n_dropped_lines"] >= 1
        assert (out["n_kept_lines"] + out["n_dropped_lines"] == out["n_lines"]).all()
        assert (out["n_kept_lines"] >= 1).all()

    def test_lang_id_returns_known_codes(self):
        out = textdata.lang_id_docs(SF).to_pandas()
        assert len(out) == 500
        assert set(out["lang_pred"]).issubset({"en", "es", "fr", "de", "zh", "und"})

    def test_media_features_real_decode(self):
        out = textdata.media_features(SF).to_pandas().set_index("doc_id").sort_index()
        assert (out["n_bytes"] > 0).all()
        # features must equal the closed forms the encoders were fed —
        # which only happens if the decode stage really parsed the files
        for d, row in out.iterrows():
            k = d % 4
            if k == 0:
                assert row["kind"] == "bmp"
                w = 16 + d % 32
                assert row["width"] == w and row["height"] == 16 + d % 24
                assert row["mean_value"] == (d % 200) + (w - 1) / 2.0
            elif k == 3:
                assert row["kind"] == "wav"
                assert row["rms"] == 100.0 * (1 + d % 100)
                assert row["duration_ms"] == (256 + d % 256) / 8.0


def test_load_queries_rejects_unsorted_embeddings(tmp_path):
    """The driver-side query-prefix read must fail loudly on a file
    that is not vec_id-sorted across row groups (silent wrong query
    sets would diverge from the oracle without any error)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest as _pt

    from link_profiler_repo_ray.pipelines.textdata import _load_queries

    t = pa.table(
        {
            "vec_id": pa.array([100, 101, 0, 1], pa.int64()),
            "embedding": pa.array([[1.0, 0.0]] * 4, pa.list_(pa.float64())),
        }
    )
    pq.write_table(t, str(tmp_path / "embeddings.parquet"), row_group_size=2)
    with _pt.raises(ValueError, match="not vec_id-sorted"):
        _load_queries(str(tmp_path), 2)
    # and the sorted layout still reads the true smallest vec_ids
    srt = t.sort_by("vec_id")
    pq.write_table(srt, str(tmp_path / "embeddings.parquet"), row_group_size=2)
    ids, q = _load_queries(str(tmp_path), 2)
    assert ids == [0, 1] and q.shape == (2, 2)


@pytest.mark.usefixtures("ray_session")
def test_token_heavy_hitters_vs_exact(tmp_path):
    """CMS heavy hitters: no false negatives vs exact counts, estimates
    never below truth, deterministic across runs."""
    import pyarrow.parquet as pq

    rng = np.random.RandomState(11)
    heavy = ["alpha", "beta", "gamma"]
    docs = []
    for i in range(400):
        words = [f"w{rng.randint(0, 4000)}" for _ in range(40)]
        # plant heavy tokens with different densities
        words += ["alpha"] * 4 + ["beta"] * 2 + (["gamma"] * 3 if i % 2 == 0 else [])
        rng.shuffle(words)
        docs.append(" ".join(words))
    pq.write_table(
        pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                  "text": pa.array(docs, pa.string())}),
        str(tmp_path / "documents.parquet"),
        row_group_size=50,
    )

    exact = (
        pl.DataFrame({"text": docs})
        .select(pl.col("text").str.split(" ").alias("t"))
        .explode("t")
        .group_by("t")
        .len(name="cnt")
    )
    total = int(exact["cnt"].sum())
    phi = 0.01
    import numpy as _np

    thresh = int(_np.ceil(phi * total))
    true_heavy = dict(
        exact.filter(pl.col("cnt") >= thresh).select("t", "cnt").iter_rows()
    )
    assert set(true_heavy) == set(heavy)  # fixture sanity

    res = textdata.token_heavy_hitters(str(tmp_path), phi=phi).take_all()
    got = {r["token"]: r["est_count"] for r in res}
    # completeness: every true heavy hitter surfaced
    assert set(true_heavy) <= set(got)
    # CMS never underestimates
    exact_all = dict(exact.select("t", "cnt").iter_rows())
    for tok, est in got.items():
        assert est >= exact_all.get(tok, 0)
        # and the estimate is sane (bounded overestimate on this corpus)
        assert est <= exact_all.get(tok, 0) + max(8, total // 1024)
    # output ordering + determinism
    res2 = textdata.token_heavy_hitters(str(tmp_path), phi=phi).take_all()
    assert res == res2
    ests = [r["est_count"] for r in res]
    assert ests == sorted(ests, reverse=True)


@pytest.mark.usefixtures("ray_session")
def test_dup_cluster_stats_matches_union_find():
    """Cluster-size histogram vs the union-find component sizes."""
    import collections

    from link_profiler_repo_ray.pipelines import textdata

    pairs = textdata.minhash_lsh_dups(SF, threshold=0.8).to_pandas()
    parent: dict[int, int] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs.doc_a, pairs.doc_b):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    comp_sizes = collections.Counter(find(x) for x in parent)
    want = collections.Counter(comp_sizes.values())

    got = textdata.dup_cluster_stats(SF, threshold=0.8).to_pandas()
    assert dict(zip(got.cluster_size, got.n_clusters)) == dict(want)
    assert (got.n_docs == got.cluster_size * got.n_clusters).all()


def _text_ops():
    from link_profiler_repo_ray.pipelines.retrieval import bm25_topk

    ops = {name: getattr(textdata, name) for name in (
        "tfidf_top_terms", "inverted_index", "unigram_logprob", "line_dedup",
        "exact_substring_dups", "minhash_lsh_dups")}
    return {**ops, "bm25_topk": bm25_topk}


# the map-only ops: one scan_documents wave each
_MAP_OPS = (
    "token_stats", "token_stats_bpe", "doc_quality", "repetition_metrics", "token_entropy",
    "text_extract_roundtrip", "c4_filters", "fingerprints", "clean_text", "pii_scrub",
    "dataset_split", "compression_ratio", "badwords_filter", "chunk_documents",
)


@pytest.mark.usefixtures("ray_session")
def test_text_ops_on_a_zero_row_documents_table(tmp_path):
    """A documents table with no rows gives every ported op (and
    vocab_top_tokens, contamination_ngrams, bigram_logprob and the
    map-only ops) zero rows.  The ops whose last exchange is a hash_aggregate fed by a scan
    keep their output columns, and so do the map-only ops (a scan calls
    its function once on the empty table); an op that sends its rows
    through a hash_group_apply first has none, as hash_group_apply never
    calls its function on zero rows."""
    import pyarrow.parquet as pq

    pq.write_table(pq.read_table(f"{SF}/documents.parquet").slice(0, 0),
                   tmp_path / "documents.parquet")
    named = {
        "unigram_logprob": ["doc_id", "n_tokens", "logprob_micro", "mean_logprob_micro"],
        "bm25_topk": ["query_id", "rank", "doc_id", "n_terms", "score_micro", "score"],
        "vocab_top_tokens": ["token", "doc_freq"],
        "token_stats": ["doc_id", "n_chars", "n_tokens", "n_distinct_tokens"],
        "doc_quality": ["doc_id", "n_chars", "n_tokens", "mean_token_len", "stopword_ratio"],
        "repetition_metrics": ["doc_id", "top2gram_frac", "top3gram_frac", "dup5gram_frac",
                               "repetition_flagged"],
        "token_entropy": ["doc_id", "n_tokens", "n_distinct_tokens", "entropy_micro",
                          "entropy_nats"],
    }
    ops = {**_text_ops(), "vocab_top_tokens": textdata.vocab_top_tokens,
           "contamination_ngrams": textdata.contamination_ngrams,
           "bigram_logprob": textdata.bigram_logprob,
           **{name: getattr(textdata, name) for name in _MAP_OPS}}
    for name, op in ops.items():
        ds = op(str(tmp_path)).materialize()
        assert ds.count() == 0, name
        if name in named:
            assert ds.schema().names == named[name], name


@pytest.mark.usefixtures("ray_session")
def test_empty_aggregates_keep_their_columns(tmp_path):
    """An aggregate whose input has columns but no rows keeps its output
    columns: a contamination-free corpus gives contamination_ngrams, and
    a one-document corpus gives minhash_lsh_dups, zero rows with their
    columns (each match/pair partition emits a typed empty frame and
    the final hash_aggregate merges them into a typed empty result)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    docs = pq.read_table(f"{SF}/documents.parquet")
    # no doc_id is a multiple of test_mod: no held-out document at all
    pq.write_table(docs.filter(pc.greater(docs["doc_id"], 0)), tmp_path / "documents.parquet")
    ds = textdata.contamination_ngrams(str(tmp_path), test_mod=10**9).materialize()
    assert ds.count() == 0
    assert ds.schema().names == ["doc_id", "n_shared_ngrams"]
    pq.write_table(docs.slice(0, 1), tmp_path / "documents.parquet")
    ds = textdata.minhash_lsh_dups(str(tmp_path)).materialize()
    assert ds.count() == 0
    assert ds.schema().names == ["doc_a", "doc_b", "jaccard"]


# texts on which Python's str.split() and DuckDB's string_split (the
# oracles' word rule, which keeps every empty token) disagree
_IRREGULAR = ["", "", "a  b", " lead", "trail ", "tab\tinside words"]


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", ["doc_quality", "word_jaccard_pairs"])
def test_irregular_whitespace_matches_the_oracle(name, tmp_path):
    import duckdb
    import pyarrow.parquet as pq

    import __ray_entry__ as entry
    from scripts.check_oracle import compare, to_pandas

    docs = pq.read_table(f"{SF}/documents.parquet")
    texts = docs["text"].to_pylist()
    texts[: len(_IRREGULAR)] = _IRREGULAR
    docs = docs.set_column(docs.schema.get_field_index("text"), "text", pa.array(texts, pa.string()))
    pq.write_table(docs, tmp_path / "documents.parquet")
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')")
    oracle = con.execute(entry.oracle_sql()[name]).fetchdf()
    mine = to_pandas(entry.queries()[name](str(tmp_path)))
    assert not compare(name, mine, oracle)
    if name == "word_jaccard_pairs":
        # the two empty texts are one word set {''}
        a, b = docs["doc_id"][0].as_py(), docs["doc_id"][1].as_py()
        assert ((oracle.doc_a == a) & (oracle.doc_b == b)).any()


@pytest.mark.usefixtures("ray_session")
def test_text_ops_start_no_ray_data_execution(ray_data_executions, tmp_path):
    """The scans and maps of the text ops run as task waves: building
    and materializing each result (the exchange ops, the map-only ops
    and the three score passes) starts no Ray Data execution.  The
    edges extraction starts none either; writing its edges starts one,
    the sink's."""
    from link_profiler_repo_ray.pipelines import graph

    started = ray_data_executions
    ops = {**_text_ops(), **{name: getattr(textdata, name) for name in (
        *_MAP_OPS, "dsir_scores", "bigram_logprob")}}
    for name, op in ops.items():
        before = len(started)
        ds = op(SF)
        ds.materialize()
        assert len(started) == before, f"{name} started {len(started) - before} Ray Data executions"

    edges = graph.edges_dataset(SF)
    assert edges.count() > 0
    assert not started
    edges.write_parquet(str(tmp_path / "edges"))
    assert len(started) == 1


@pytest.mark.usefixtures("ray_session")
def test_merge_loops_start_no_ray_data_execution(ray_data_executions):
    """BPE merge learning and redirect pointer doubling run every round
    as task waves: building and materializing each of the three BPE
    queries and ``redirect_chains`` starts no Ray Data execution."""
    from link_profiler_repo_ray.pipelines import bpe, history

    for op in (bpe.bpe_train, bpe.bpe_apply_counts, bpe.bpe_sequence_packing,
               history.redirect_chains):
        before = len(ray_data_executions)
        assert op(SF).materialize().count() > 0, op.__name__
        n = len(ray_data_executions) - before
        assert not n, f"{op.__name__} started {n} Ray Data executions"
