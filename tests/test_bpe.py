"""Distributed BPE trainer vs the sequential oracle, and merge
application."""

import pytest


SF = "/root/testdata/sf0.001"


def _corpus_histogram(sf_dir):
    import collections

    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["text"])
    c = collections.Counter()
    for text in t.column("text").to_pylist():
        for w in text.split(" "):
            if w:
                c[w] += 1
    return sorted(c.items())


def _learn_merges(hist, k):
    """Pure-python sequential BPE on a (word, count) histogram — the
    reference the distributed trainer must match merge for merge."""
    eow = "</w>"
    splits = {w: list(w) + [eow] for w, _ in hist}
    merges = []
    for _ in range(k):
        pairs = {}
        for w, n in hist:
            syms = splits[w]
            for a, b in zip(syms, syms[1:]):
                pairs[(a, b)] = pairs.get((a, b), 0) + n
        if not pairs:
            break
        (a, b), cnt = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        if cnt < 2:
            break
        merges.append((a, b, cnt))
        for w in splits:
            syms = splits[w]
            i = 0
            out = []
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                    out.append(a + b)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            splits[w] = out
    return merges


def test_bpe_train_matches_sequential_oracle(ray_session):
    from link_profiler_repo_ray.pipelines.bpe import bpe_train

    k = 16
    got = bpe_train(SF, k=k).to_pandas()
    want = _learn_merges(_corpus_histogram(SF), k)
    assert len(got) == len(want)
    for i, (a, b, cnt) in enumerate(want):
        row = got.iloc[i]
        assert (row["left"], row["right"], row["pair_count"]) == (a, b, cnt), i


def test_bpe_split_word():
    from link_profiler_repo_ray.pipelines.bpe import bpe_split_word

    merges = [("l", "o"), ("lo", "w"), ("e", "r</w>")]
    # 'r</w>' only exists after ('r', '</w>') merges — not learned here,
    # so the third merge never fires
    assert bpe_split_word("low", merges) == ["low", "</w>"]
    assert bpe_split_word("lower", merges) == ["low", "e", "r", "</w>"]
    assert bpe_split_word("", merges) == ["</w>"]


def test_bpe_apply_counts(ray_session):
    from link_profiler_repo_ray.pipelines.bpe import (
        bpe_apply_counts,
        bpe_split_word,
    )
    import pyarrow.parquet as pq

    k = 8
    got = bpe_apply_counts(SF, k=k).to_pandas().set_index("doc_id")
    merges = [(a, b) for a, b, _ in _learn_merges(_corpus_histogram(SF), k)]
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    import random

    rows = list(zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist()))
    for did, text in random.Random(7).sample(rows, 25):
        ws = text.split(" ")
        want = sum(len(bpe_split_word(w, merges)) for w in ws)
        assert got.loc[did, "n_subwords"] == want, did
        assert got.loc[did, "n_words"] == len(ws)


def test_merges_reduce_token_count(ray_session):
    from link_profiler_repo_ray.pipelines.bpe import bpe_apply_counts

    n0 = bpe_apply_counts(SF, k=0).to_pandas()["n_subwords"].sum()
    n16 = bpe_apply_counts(SF, k=16).to_pandas()["n_subwords"].sum()
    assert n16 < n0  # every merge strictly shrinks some words


def test_bpe_sequence_packing_matches_sequential_oracle(ray_session):
    """Distributed tokenize-with-trained-BPE → pack must equal a fully
    sequential replay (sequential BPE learner + python greedy pack)."""
    import polars as pl

    from link_profiler_repo_ray.pipelines.bpe import (
        bpe_sequence_packing,
        bpe_split_word,
    )

    k, budget = 16, 256
    got = bpe_sequence_packing(SF, k=k, budget=budget).to_pandas().sort_values("doc_id")

    merges = [(a, b) for a, b, _ in _learn_merges(_corpus_histogram(SF), k)]
    docs = pl.read_parquet(f"{SF}/documents.parquet").select("doc_id", "source", "text")
    cache = {}

    def n_sub(text):
        total = 0
        for w in text.split(" "):
            if w not in cache:
                cache[w] = len(bpe_split_word(w, merges))
            total += cache[w]
        return total

    counts = docs.with_columns(
        pl.col("text").map_elements(n_sub, return_dtype=pl.Int64).alias("n_tokens")
    )
    expect = {}
    for (src,), g in sorted(counts.group_by("source"), key=lambda kv: kv[0][0]):
        b, acc = 0, 0
        for doc_id, _, _, t in g.sort("doc_id").iter_rows():
            if acc > 0 and acc + t > budget:
                b, acc = b + 1, 0
            acc += t
            expect[doc_id] = (f"{src}-{b}", t)
    assert len(got) == len(expect)
    for r in got.itertuples():
        assert (r.bin_id, r.n_tokens) == expect[int(r.doc_id)], r.doc_id


def test_bpe_train_on_a_zero_row_documents_table(ray_session, tmp_path):
    """No documents: no merge, but the typed merge-list columns."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from link_profiler_repo_ray.pipelines.bpe import bpe_train

    pq.write_table(pq.read_table(f"{SF}/documents.parquet").slice(0, 0),
                   tmp_path / "documents.parquet")
    ds = bpe_train(str(tmp_path)).materialize()
    assert ds.count() == 0
    assert ds.schema().base_schema == pa.schema(
        [("rank", pa.int64()), ("left", pa.string()), ("right", pa.string()),
         ("pair_count", pa.int64())])
