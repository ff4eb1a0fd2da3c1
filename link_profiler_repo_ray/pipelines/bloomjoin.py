"""Bloom-filter semi-join — the big⋈big join-avoidance pattern.

The reference filters large row sets by membership in another large
set via SQL ``IN`` subqueries against Postgres
(database/database.py query helpers, e.g. backlink lookups keyed by
target-domain sets).  At 100 TB neither side fits a broadcast and a
full shuffle join moves every probe-side row.  The standard engine
answer (Spark's runtime row-group bloom pushdown, Vertica/Impala
"bloom join") is:

1. BUILD: scan the build side once; every block folds its qualifying
   keys into a fixed-size bitmap partial (pure numpy double-hashing).
   Partials OR together hierarchically — blocks → a few reducer
   groups → driver — so the driver only ever sees a handful of
   m/8-byte bitmaps, never keys.
2. PROBE: the finished bloom is ``ray.put`` once; every probe-side
   block tests membership vectorized and drops definite non-matches.
   False positives pass (tunable via m/k).
3. VERIFY: only the surviving candidates — |true matches| × (1+fp) —
   cross ONE partitioned exchange against the distinct build keys, so
   the result is EXACT while the big probe side never shuffles
   wholesale.
"""

from __future__ import annotations

import os

import numpy as np
import polars as pl
import pyarrow as pa
import ray
import ray.data as rd

from .. import ops
from ..functions import tokens
from ..ops import hash_aggregate, hash_group_apply, tagged_union_join
from .textdata import scan_documents

__all__ = ["BloomFilter64", "bloom_semijoin", "contamination_bloom"]


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — a public-domain 64-bit mixer (Steele et
    al., JDK SplittableRandom); vectorized, wrap-around uint64."""
    x = (x + _GOLDEN).astype(np.uint64)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


class BloomFilter64:
    """Fixed-size bloom over int64 keys, numpy end to end.

    Double hashing (Kirsch–Mitzenmacher): bit_i = (h1 + i*h2) mod m,
    so k probes cost two mixes regardless of k.
    """

    def __init__(self, m_bits: int = 1 << 20, k: int = 4, words: np.ndarray | None = None):
        assert m_bits % 64 == 0
        self.m = np.uint64(m_bits)
        self.k = k
        self.words = (
            words if words is not None else np.zeros(m_bits // 64, dtype=np.uint64)
        )

    def _bits(self, keys: np.ndarray):
        u = keys.astype(np.int64).view(np.uint64)
        h1 = _mix64(u)
        h2 = _mix64(u ^ np.uint64(0xC2B2AE3D27D4EB4F)) | np.uint64(1)
        for i in range(self.k):
            yield (h1 + np.uint64(i) * h2) % self.m

    def add(self, keys: np.ndarray) -> None:
        for idx in self._bits(keys):
            np.bitwise_or.at(
                self.words, (idx >> np.uint64(6)).astype(np.int64),
                np.uint64(1) << (idx & np.uint64(63)),
            )

    def contains(self, keys: np.ndarray) -> np.ndarray:
        out = np.ones(len(keys), dtype=bool)
        for idx in self._bits(keys):
            w = self.words[(idx >> np.uint64(6)).astype(np.int64)]
            out &= (w >> (idx & np.uint64(63))) & np.uint64(1) != 0
        return out

    def merge_(self, other: "BloomFilter64") -> None:
        np.bitwise_or(self.words, other.words, out=self.words)


def _build_bloom(build: rd.Dataset, key: str, m_bits: int, k: int) -> BloomFilter64:
    """OR-reduce per-block bloom partials through one ``hash_group_apply``
    (partials routed by a content hash, each partition ORed into one
    bitmap); the driver merges at most one bitmap per partition."""

    def partial(batch: pa.Table) -> pa.Table:
        bf = BloomFilter64(m_bits, k)
        bf.add(batch.column(key).to_numpy(zero_copy_only=False))
        # route partials by content hash so the partitions share them evenly
        gid = int(bf.words[:16].sum() % np.uint64(1 << 31))
        return pa.table(
            {"gid": pa.array([gid], pa.int64()),
             "bm": pa.array([bf.words.tobytes()], pa.binary())}
        )

    def or_part(df: pl.DataFrame) -> pl.DataFrame:
        acc = np.zeros(m_bits // 64, dtype=np.uint64)
        for b in df["bm"]:
            acc |= np.frombuffer(b, dtype=np.uint64)
        return pl.DataFrame({"bm": [acc.tobytes()]}, schema={"bm": pl.Binary})

    # ≤ one row of m/8 bytes per partition — bounded by design
    reduced = ops.collect_table(hash_group_apply(ops.map_blocks(build, partial), ["gid"], or_part))
    bf = BloomFilter64(m_bits, k)
    for bm in reduced.column("bm").to_pylist():
        bf.merge_(BloomFilter64(m_bits, k, words=np.frombuffer(bm, dtype=np.uint64).copy()))
    return bf


def bloom_semijoin(sf_dir: str, price_floor: float = 470000.0) -> rd.Dataset:
    """Customers having ≥1 order above ``price_floor`` — exact result,
    bloom-pruned exchange.

    Demonstrates the pattern on the TPC-H-ish tables: build side =
    qualifying ``orders.o_custkey``, probe side = ``customer``.  The
    oracle is the plain SQL semi-join; tests/test_bloomjoin.py
    additionally pins that the bloom actually pruned (candidates ≪
    probe rows) and that build/probe agree with a Python-set oracle.
    """
    def qualify(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.greater(batch.column("o_totalprice"), price_floor)).select(
            ["o_custkey"]
        )

    qualifying = ops.scan(
        os.path.join(sf_dir, "orders.parquet"), ["o_custkey", "o_totalprice"], qualify
    )
    bloom_ref = ray.put(_build_bloom(qualifying, "o_custkey", m_bits=1 << 20, k=4))

    def probe(batch: pa.Table) -> pa.Table:
        bf: BloomFilter64 = ray.get(bloom_ref)
        keep = bf.contains(batch.column("c_custkey").to_numpy(zero_copy_only=False))
        return batch.filter(pa.array(keep))

    candidates = ops.scan(
        os.path.join(sf_dir, "customer.parquet"), ["c_custkey", "c_name"], probe
    )

    # exact verify: candidates ⋈ distinct qualifying keys through one
    # partitioned exchange (each side pre-thinned: bloom on the probe,
    # per-chunk distinct in the combine stage of hash_aggregate, whose
    # empty aggregate list leaves the key column alone)
    distinct_keys = hash_aggregate(qualifying, ["o_custkey"], combine=[], merge=[])
    return tagged_union_join(
        candidates,
        distinct_keys,
        "c_custkey",
        "o_custkey",
        left_schema=pa.schema([("c_custkey", pa.int64()), ("c_name", pa.string())]),
        right_schema=pa.schema([("o_custkey", pa.int64())]),
    )


# --- bloom-pruned decontamination (the contamination_ngrams scale path) ---

def contamination_bloom(
    sf_dir: str,
    n: int = 7,
    test_mod: int = 43,
    m_bits: int = 1 << 22,
    k: int = 4,
) -> rd.Dataset:
    """Train/test n-gram decontamination with a bloom of the held-out
    set — the 100-TB path for ``textdata.contamination_ngrams``.

    The exact operator exchanges every training (doc_id, ngram) pair;
    at corpus scale that is the corpus re-keyed by shingle.  The
    benchmark side, however, is tiny and fixed (eval suites are a few
    MB) — the published decontamination recipes (GPT-3 appendix C's
    13-gram filter, Lee et al. 2021) therefore probe a compact index
    of TEST n-grams instead of co-partitioning both sides.  Here:

    1. shingle both sides vectorized, keyed by the 64-bit ngram hash
       (8-byte exchange keys; the string-keyed exact operator documents
       this exact swap);
    2. fold TEST hashes into a BloomFilter64 (OR-reduced partials, one
       broadcast);
    3. probe every train block — only bloom hits survive (the pruned
       fraction never leaves the scan);
    4. exact-verify the surviving candidates against the distinct test
       hashes through ONE partitioned exchange, so false positives die
       and the result matches the exact operator row-for-row (modulo
       2⁻⁶⁴ hash collisions; tests/test_bloomjoin.py pins equality).

    Returns (doc_id, n_shared_ngrams) for contaminated training docs.
    """
    def shingle(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch).with_columns(is_test=pl.col("doc_id") % test_mod == 0)
        return (
            tokens.windows(df, n, ["doc_id", "is_test"])
            .select(
                "doc_id", "is_test", pl.col("ngram").hash(seed=0).reinterpret(signed=True).alias("h")
            )
            .unique()
            .to_arrow()
        )

    shingled = scan_documents(sf_dir, ["doc_id", "text"], shingle)

    test_h = ops.map_blocks(
        shingled, lambda b: pl.from_arrow(b).filter(pl.col("is_test")).select("h").to_arrow()
    )
    bloom_ref = ray.put(_build_bloom(test_h, "h", m_bits, k))

    def probe(batch: pa.Table) -> pa.Table:
        bf: BloomFilter64 = ray.get(bloom_ref)
        df = pl.from_arrow(batch).filter(~pl.col("is_test"))
        if df.height == 0:
            return df.select("doc_id", "h").to_arrow()
        keep = bf.contains(df["h"].to_numpy())
        return df.filter(pl.Series(keep)).select("doc_id", "h").to_arrow()

    verified = tagged_union_join(
        ops.map_blocks(shingled, probe),
        hash_aggregate(test_h, ["h"], combine=[], merge=[]),  # distinct test hashes
        "h",
        "h",
        left_schema=pa.schema([("doc_id", pa.int64()), ("h", pa.int64())]),
        right_schema=pa.schema([("h", pa.int64())]),
    )

    return hash_group_apply(
        verified,
        ["doc_id"],
        lambda df: df.group_by("doc_id").agg(
            pl.col("h").n_unique().cast(pl.Int64).alias("n_shared_ngrams")
        ),
        pre=lambda df: df.unique(subset=["doc_id", "h"]),
    )
