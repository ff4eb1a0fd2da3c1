"""repetition_metrics (Gopher-style n-gram repetition filters) on
planted repetitive docs — exercises the duplicated-5-gram path the
random-word-salad test corpus never triggers, against a brute-force
Python oracle, plus the DuckDB oracle on the same planted table."""

from collections import Counter

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


from link_profiler_repo_ray.pipelines.textdata import repetition_metrics

DOCS = [
    # heavy bigram repetition -> top2 fires
    (0, "a b a b a b a b"),
    # all-unique words -> small fracs, not flagged
    (1, "w0 w1 w2 w3 w4 w5 w6 w7 w8 w9 w10 w11 w12 w13 w14 w15 w16 w17 w18 w19"),
    # an exact repeated 5-gram -> dup5 fires
    (2, "x y z u v x y z u v"),
    # single word -> no n-grams at all, all fracs 0.0
    (3, "solo"),
    # repeated trigram phrase inside filler -> top3 elevated
    (4, "one two three filler1 one two three filler2 one two three end"),
]


def brute(text: str):
    ws = text.split(" ")
    tlen = len(text)

    def grams(n):
        return [" ".join(ws[i : i + n]) for i in range(len(ws) - n + 1)]

    def topcov(n):
        c = Counter(grams(n))
        return max((cnt * len(g) for g, cnt in c.items()), default=0)

    dup5 = sum(cnt * len(g) for g, cnt in Counter(grams(5)).items() if cnt >= 2)
    t2, t3, d5 = topcov(2) / tlen, topcov(3) / tlen, dup5 / tlen
    return t2, t3, d5, (t2 > 0.20 or t3 > 0.18 or d5 > 0.15)


@pytest.fixture(scope="module")
def planted_sf(tmp_path_factory):
    d = tmp_path_factory.mktemp("planted_sf")
    tbl = pa.table(
        {
            "doc_id": pa.array([i for i, _ in DOCS], pa.int64()),
            "text": pa.array([t for _, t in DOCS], pa.string()),
        }
    )
    pq.write_table(tbl, d / "documents.parquet")
    return str(d)


def test_planted_repetition_vs_brute_force(ray_session, planted_sf):
    got = (
        repetition_metrics(planted_sf)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    exp = pd.DataFrame(
        [
            {
                "doc_id": i,
                "top2gram_frac": b[0],
                "top3gram_frac": b[1],
                "dup5gram_frac": b[2],
                "repetition_flagged": b[3],
            }
            for (i, t) in DOCS
            for b in [brute(t)]
        ]
    )
    pd.testing.assert_frame_equal(got, exp, check_dtype=False, check_exact=True)
    # the planted table exercises every branch
    assert got.loc[0, "repetition_flagged"]  # bigram spam
    assert not got.loc[1, "repetition_flagged"]
    assert got.loc[2, "dup5gram_frac"] > 0.15  # duplicated 5-gram
    assert got.loc[3, ["top2gram_frac", "top3gram_frac", "dup5gram_frac"]].eq(0.0).all()
    assert got.loc[4, "top3gram_frac"] > got.loc[1, "top3gram_frac"]


def test_planted_repetition_vs_duckdb(ray_session, planted_sf):
    import __ray_entry__ as entry

    got = (
        repetition_metrics(planted_sf)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{planted_sf}/documents.parquet')"
    )
    oracle = (
        con.execute(entry.oracle_sql()["repetition_metrics"])
        .fetchdf()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], oracle[sorted(oracle.columns)], check_dtype=False, check_exact=True
    )


def test_unigram_logprob_planted(ray_session, tmp_path):
    """Docs made of corpus-common words must out-score docs of rare
    words under the corpus's own unigram LM; values match a brute-force
    Python recomputation exactly (integer micro-nats are order-free)."""
    import math
    from collections import Counter

    from link_profiler_repo_ray.pipelines.textdata import unigram_logprob

    texts = ["the cat sat"] * 8 + ["zyx qwv jkp"]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    pq.write_table(tbl, tmp_path / "documents.parquet")
    got = (
        unigram_logprob(str(tmp_path))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    freq = Counter(w for t in texts for w in t.split(" "))
    total = sum(freq.values())
    term = {w: math.floor(math.log(c / float(total)) * 1_000_000 + 0.5) for w, c in freq.items()}
    for i, t in enumerate(texts):
        ws = t.split(" ")
        assert got.loc[i, "logprob_micro"] == sum(term[w] for w in ws)
        assert got.loc[i, "n_tokens"] == len(ws)
    # common-word docs strictly out-score the rare-word doc
    assert got.loc[0, "mean_logprob_micro"] > got.loc[8, "mean_logprob_micro"]


def test_exact_substring_dups_planted(ray_session, tmp_path):
    """Docs sharing a verbatim 6+-word phrase are charged for exactly
    the shared windows; within-doc-only repetition does not count."""
    from link_profiler_repo_ray.pipelines.textdata import exact_substring_dups

    shared = "alpha beta gamma delta epsilon zeta"  # exactly one 6-gram
    texts = [
        f"{shared} tail0 tail1",  # windows over 8 words: 3; dup: 1 (the shared one)
        f"head0 {shared}",  # windows over 7 words: 2; dup: 1
        "u0 u1 u2 u3 u4 u5 u6",  # unique: 2 windows, 0 dup
        "r s r s r s r s r s r s",  # within-doc repeats only: 7 windows...
        "short doc",  # < 6 words: 0 windows
    ]
    # doc 3: "r s" x6 -> 12 words, 7 windows, grams "r s r s r s" (x4)
    # and "s r s r s r" (x3) — repeated WITHIN the doc but in no other
    # doc, so none count as cross-doc dups
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    pq.write_table(tbl, tmp_path / "documents.parquet")
    got = (
        exact_substring_dups(str(tmp_path))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got["n_windows"].tolist() == [3, 2, 2, 7, 0]
    assert got["n_dup_windows"].tolist() == [1, 1, 0, 0, 0]
    assert got["dup_window_frac"].tolist() == [1 / 3, 1 / 2, 0.0, 0.0, 0.0]

    # and the DuckDB oracle agrees on the planted table
    import __ray_entry__ as entry

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    oracle = (
        con.execute(entry.oracle_sql()["exact_substring_dups"])
        .fetchdf()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)],
        oracle[sorted(oracle.columns)],
        check_dtype=False,
        check_exact=True,
    )


# ---------------------------------------------------------------------------
# c4_filters: planted line structure on chosen doc_ids


def test_c4_filters_planted(ray_session, tmp_path):
    from link_profiler_repo_ray.pipelines.textdata import c4_filters

    # doc 7  -> brace marker (7 % 89 == 7)
    # doc 13 -> lorem marker (13 % 97 == 13)
    # doc 20 -> clean, 85 words: L = 5 + 20%7 = 11 -> 8 lines, lines
    #           i=0 and i=4 unpunctuated ((i+20)%4==0) -> frac 6/8 =
    #           0.75 > 0.7, so it passes every C4 bound
    # doc 0  -> 8 words, fails the 50-word minimum
    docs = {
        7: " ".join(f"tok{i}" for i in range(55)),
        13: " ".join(f"word{i}" for i in range(60)),
        20: " ".join(f"abcd{i}" for i in range(85)),
        0: "a b c d e f g h",
    }
    ids = sorted(docs)
    tbl = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array([docs[i] for i in ids], pa.string()),
        }
    )
    pq.write_table(tbl, tmp_path / "documents.parquet")
    got = c4_filters(str(tmp_path)).to_pandas().sort_values("doc_id").reset_index(drop=True)

    # independent brute-force oracle: actually build the decorated text
    exp_rows = []
    for d in ids:
        words = docs[d].split(" ")
        L = 5 + d % 7
        lines = [
            " ".join(words[i : i + L]) + ("." if (i // L + d) % 4 != 0 else "")
            for i in range(0, len(words), L)
        ]
        if d % 97 == 13:
            lines.append("lorem ipsum dolor sit amet.")
        if d % 89 == 7:
            lines.append("function() { return 0; }")
        dtext = "\n".join(lines)
        all_words = dtext.replace("\n", " ").split(" ")
        nw, nl = len(all_words), len(lines)
        npunct = sum(1 for l in lines if l[-1] in '.!?"')
        wchars = sum(len(w) for w in all_words)
        mwl = wchars / nw
        frac = npunct / nl
        exp_rows.append(
            dict(
                doc_id=d,
                n_lines=nl,
                n_words=nw,
                punct_line_frac=frac,
                mean_word_len=mwl,
                has_lorem="lorem ipsum" in dtext,
                has_brace="{" in dtext,
                c4_keep=50 <= nw <= 100_000
                and 3.0 <= mwl <= 10.0
                and frac > 0.7
                and nl >= 3
                and "lorem ipsum" not in dtext
                and "{" not in dtext,
            )
        )
    exp = pd.DataFrame(exp_rows)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False, check_exact=True
    )
    # the marker docs are rejected, the clean long doc survives
    assert not got.set_index("doc_id").loc[7, "c4_keep"]
    assert not got.set_index("doc_id").loc[13, "c4_keep"]
    assert bool(got.set_index("doc_id").loc[20, "c4_keep"])
    assert not got.set_index("doc_id").loc[0, "c4_keep"]

    # and the DuckDB closed-form oracle agrees on the planted table
    import __ray_entry__ as entry

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    oracle = (
        con.execute(entry.oracle_sql()["c4_filters"])
        .fetchdf()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], oracle[sorted(oracle.columns)], check_dtype=False, check_exact=True
    )


def test_c4_filters_degenerate_docs(ray_session, tmp_path):
    """Empty and single-word docs: no division blows up, nothing kept."""
    from link_profiler_repo_ray.pipelines.textdata import c4_filters

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(["", "solo"], pa.string()),
        }
    )
    pq.write_table(tbl, tmp_path / "documents.parquet")
    got = c4_filters(str(tmp_path)).to_pandas().sort_values("doc_id").reset_index(drop=True)
    # "" splits to one empty word -> one line; "solo" -> one line
    assert got["n_lines"].tolist() == [1, 1]
    assert got["n_words"].tolist() == [1, 1]
    assert not got["c4_keep"].any()
    # oracle agrees even on the degenerate rows
    import __ray_entry__ as entry

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    oracle = (
        con.execute(entry.oracle_sql()["c4_filters"])
        .fetchdf()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], oracle[sorted(oracle.columns)], check_dtype=False, check_exact=True
    )


@pytest.mark.usefixtures("ray_session")
def test_dsir_discriminates_target_vocabulary():
    """Planted DSIR check: target docs (doc_id % 10 == 0) draw from one
    vocabulary, the rest from another; the importance weight must rank
    every target-vocab doc above every raw-vocab doc, and a doc with
    mixed text lands between them."""
    import pyarrow as pa
    import ray.data as rd

    from link_profiler_repo_ray.pipelines import textdata

    tgt_text = "alpha beta gamma delta alpha beta"
    raw_text = "zeta eta theta iota zeta eta"
    ids = list(range(40))
    texts = [tgt_text if i % 10 == 0 else raw_text for i in ids]
    ids.append(41)
    texts.append("alpha beta zeta eta")  # mixed
    docs = rd.from_arrow(pa.table({"doc_id": ids, "text": texts}))
    got = textdata.dsir_scores("", docs=docs).to_pandas().set_index("doc_id")

    score = (got.dsir_micro / got.n_tokens).to_dict()
    tgt_scores = [score[i] for i in range(0, 40, 10)]
    raw_scores = [score[i] for i in range(40) if i % 10 != 0]
    assert min(tgt_scores) > score[41] > max(raw_scores)
