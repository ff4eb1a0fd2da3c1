"""Mergeable sketches: MinHash (+LSH banding), SimHash, HyperLogLog.

These are the scale path for the reference's exact-set operations:
- referring-domain cardinality (SURVEY.md A4) used a Python set
  (Link_Profiler/core/models.py:456-480); at 10^10-URL scale that
  becomes a HyperLogLog merged per key through ``ops.hash_group_apply``.
- near-duplicate detection (SURVEY.md D4) stored only an MD5 hash
  (Link_Profiler/utils/content_validator.py:83); MinHash-LSH and
  SimHash provide the near-dup variants a training-data pipeline needs.

All kernels are numpy-vectorized and deterministic (fixed seeds), so
sketch states can be checkpointed and merged across partitions.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "token_hashes",
    "shingle_hashes",
    "batch_shingle_hashes",
    "minhash_signature",
    "minhash_signatures",
    "band_hashes",
    "simhash64",
    "HyperLogLog",
    "hll_bucket_rank",
    "hll_estimate",
    "cms_cells",
    "stride_summary",
    "weighted_quantile",
    "histogram_rank_values",
]

_MERSENNE = np.uint64((1 << 61) - 1)
_SEED = 0x9E3779B97F4A7C15


def _rng_params(num_perm: int):
    rng = np.random.RandomState(42)
    a = rng.randint(1, (1 << 61) - 1, size=num_perm, dtype=np.uint64)
    b = rng.randint(0, (1 << 61) - 1, size=num_perm, dtype=np.uint64)
    return a, b


_PERM_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def token_hashes(tokens) -> np.ndarray:
    """uint64 hash per token (vectorized via polars xxhash, seed 0)."""
    import polars as pl

    if len(tokens) == 0:
        return np.empty(0, dtype=np.uint64)
    return pl.Series("t", list(tokens), dtype=pl.Utf8).hash(seed=0).to_numpy().astype(np.uint64)


def _shingles(words: list[str], n: int):
    """Word ``n``-gram shingles of one split document; a document of
    fewer than ``n`` (but some) words is one shingle of all of them."""
    if len(words) < n:
        return [" ".join(words)] if words else []
    return map(" ".join, zip(*(words[k:] for k in range(n))))


def shingle_hashes(text: str, n: int = 3) -> np.ndarray:
    """Hashes of word n-gram shingles of one document."""
    return token_hashes(list(_shingles(text.split(), n)))


def batch_shingle_hashes(texts, n: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """:func:`shingle_hashes` of many documents at once: ``lens`` (int64,
    shingles per document) and the documents' hashes concatenated in
    document order, all hashed by one polars call."""
    lens = np.zeros(len(texts), dtype=np.int64)
    shingles: list[str] = []
    for i, text in enumerate(texts):
        before = len(shingles)
        shingles.extend(_shingles(text.split(), n))
        lens[i] = len(shingles) - before
    return lens, token_hashes(shingles)


def _perm_params(num_perm: int) -> tuple[np.ndarray, np.ndarray]:
    if num_perm not in _PERM_CACHE:
        _PERM_CACHE[num_perm] = _rng_params(num_perm)
    return _PERM_CACHE[num_perm]


def minhash_signature(hashes: np.ndarray, num_perm: int = 128) -> np.ndarray:
    """MinHash signature (num_perm,) of a set of element hashes."""
    a, b = _perm_params(num_perm)
    if hashes.size == 0:
        return np.full(num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
    x = (hashes % _MERSENNE).astype(np.uint64)
    with np.errstate(over="ignore"):
        # (num_perm, n) universal hash, min over elements
        v = (a[:, None] * x[None, :] + b[:, None]) % _MERSENNE
    return v.min(axis=1).astype(np.uint64)


# elements per (num_perm, chunk) product in minhash_signatures: 2 MB per
# uint64 temporary at 128 permutations, which stays in cache (16k-element
# chunks measured 1.4x slower)
_SIG_CHUNK = 2_048


def minhash_signatures(lens: np.ndarray, hashes: np.ndarray, num_perm: int = 128) -> np.ndarray:
    """(docs, num_perm) MinHash signatures of the per-document element
    runs of ``hashes`` (``lens`` elements each, as returned by
    :func:`batch_shingle_hashes`); row i equals
    ``minhash_signature(run_i, num_perm)``, all-max for an empty run.
    The universal hash runs over bounded column chunks, and each chunk's
    per-document minima come from one ``np.minimum.reduceat``."""
    a, b = _perm_params(num_perm)
    lens = np.asarray(lens, dtype=np.int64)
    out = np.full((len(lens), num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
    doc = np.repeat(np.arange(len(lens)), lens)
    x = hashes.astype(np.uint64) % _MERSENNE
    for c0 in range(0, len(x), _SIG_CHUNK):
        seg = doc[c0 : c0 + _SIG_CHUNK]
        with np.errstate(over="ignore"):
            v = (a[:, None] * x[None, c0 : c0 + _SIG_CHUNK] + b[:, None]) % _MERSENNE
        starts = np.flatnonzero(np.diff(seg, prepend=-1))
        rows = seg[starts]  # distinct within a chunk
        out[rows] = np.minimum(out[rows], np.minimum.reduceat(v, starts, axis=1).T)
    return out


def band_hashes(signature: np.ndarray, bands: int = 16) -> np.ndarray:
    """Collapse a signature into ``bands`` bucket hashes for LSH; a
    (docs, num_perm) signature matrix gives (docs, bands)."""
    rows = signature.shape[-1] // bands
    sig = signature[..., : bands * rows].reshape(*signature.shape[:-1], bands, rows).astype(np.uint64)
    out = np.full(sig.shape[:-1], np.uint64(1469598103934665603), dtype=np.uint64)  # FNV offset
    prime = np.uint64(1099511628211)
    with np.errstate(over="ignore"):
        for r in range(rows):
            out = (out ^ sig[..., r]) * prime
    return out


def simhash64(hashes: np.ndarray) -> np.uint64:
    """64-bit SimHash of a bag of element hashes."""
    if hashes.size == 0:
        return np.uint64(0)
    bits = ((hashes[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(np.int64)
    votes = (2 * bits - 1).sum(axis=0)
    out = np.uint64(0)
    for i in range(64):
        if votes[i] > 0:
            out |= np.uint64(1) << np.uint64(i)
    return out


def hll_bucket_rank(h: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """HyperLogLog register update per uint64 hash for 2^p registers:
    bucket = the top p bits (int64), rank = leading zeros of the
    remaining bits + 1, capped at 64 - p + 1 (uint8)."""
    h = h.astype(np.uint64)
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = h << np.uint64(p)
    rank = np.full(h.shape, 64 - p + 1, dtype=np.uint8)
    nz = rest != 0
    if nz.any():
        # floor(log2(rest)) by binary search over the shift widths
        r = rest[nz]
        log2 = np.zeros(r.shape, dtype=np.int64)
        for shift in (32, 16, 8, 4, 2, 1):
            ge = r >= (np.uint64(1) << np.uint64(shift))
            log2 += np.where(ge, shift, 0)
            r = np.where(ge, r >> np.uint64(shift), r)
        rank[nz] = np.minimum(64 - log2, 64 - p + 1)
    return idx, rank


def hll_estimate(registers: np.ndarray) -> np.ndarray:
    """Row-wise HyperLogLog estimate of an (n, m) uint8 register matrix,
    with the small-range linear-counting correction."""
    m = float(registers.shape[1])
    alpha = 0.7213 / (1 + 1.079 / m)
    e = alpha * m * m / np.sum(2.0 ** (-registers.astype(np.float64)), axis=1)
    zeros = np.count_nonzero(registers == 0, axis=1)
    lc = m * np.log(m / np.maximum(zeros, 1))
    return np.where((e <= 2.5 * m) & (zeros > 0), lc, e)


class HyperLogLog:
    """Dense HyperLogLog with 2^p registers (default p=12, ~1.6% error).

    Mergeable (register-wise max) → usable as the combine state of a
    Ray Data ``AggregateFn`` and serializable into checkpoints.
    """

    __slots__ = ("p", "m", "registers")

    def __init__(self, p: int = 12, registers: np.ndarray | None = None):
        self.p = p
        self.m = 1 << p
        self.registers = (
            registers if registers is not None else np.zeros(self.m, dtype=np.uint8)
        )

    def add_hashes(self, h: np.ndarray) -> "HyperLogLog":
        if h.size == 0:
            return self
        idx, rank = hll_bucket_rank(h, self.p)
        np.maximum.at(self.registers, idx, rank)
        return self

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        return float(hll_estimate(self.registers[None, :])[0])

    def to_bytes(self) -> bytes:
        return self.registers.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, p: int = 12) -> "HyperLogLog":
        return cls(p=p, registers=np.frombuffer(data, dtype=np.uint8).copy())


# --- Count-Min sketch (heavy-hitter frequency estimation) -----------------

_CMS_DEPTH = 4
# multiply-shift row hashes (Dietzfelbinger): odd 64-bit multipliers,
# overflow-wrapping product, top bits select the cell — vectorized and
# deterministic across processes
_CMS_A = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0x27D4EB2F165667C5],
    dtype=np.uint64,
) | np.uint64(1)


def cms_cells(hashes: np.ndarray, log2_width: int = 13) -> np.ndarray:
    """(depth, n) int64 cell indices for uint64 key hashes.

    Row d of the result is the Count-Min cell index of every key under
    the d-th multiply-shift hash; width = 2**log2_width.  Flattened as
    ``d * width + idx`` these become plain int64 exchange keys, so a
    distributed CMS is just a (cell, count) hash aggregate — the whole
    sketch is ≤ depth·width rows AFTER aggregation no matter how many
    tokens crossed, which is what bounds the sketch at 10^12 tokens.
    """
    if hashes.dtype != np.uint64:
        hashes = hashes.astype(np.uint64)
    shift = np.uint64(64 - log2_width)
    out = np.empty((_CMS_DEPTH, len(hashes)), dtype=np.int64)
    for d in range(_CMS_DEPTH):
        out[d] = ((_CMS_A[d] * hashes) >> shift).astype(np.int64)
    return out


# --- deterministic mergeable quantile summary (MRL-style) ------------------


def stride_summary(
    values: np.ndarray, weights: np.ndarray | None, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Compact (values, weights) to ≤ m weighted order statistics.

    Deterministic MRL-style compaction (Manku-Rajagopalan-Lindsay):
    sort by value, pick the weighted order statistic at rank
    W·(i+0.5)/m for each i, give each weight W/m.  One pass adds at
    most W/m weighted-rank error, and summaries MERGE BY CONCATENATION
    (rank errors add), so a distributed quantile sketch is per-block
    summaries → re-stride batches of concatenated summaries → final
    weighted quantile.  Unlike the bounded-domain exact histogram
    (pipelines/relational.py value_percentiles) this works on
    unbounded/float domains at fixed size.
    """
    if weights is None:
        weights = np.ones(len(values), dtype=np.float64)
    if len(values) <= m:
        return values, weights.astype(np.float64)
    order = np.argsort(values, kind="stable")
    sv = values[order]
    cum = np.cumsum(weights[order].astype(np.float64))
    total = cum[-1]
    targets = total * (np.arange(m, dtype=np.float64) + 0.5) / m
    pos = np.minimum(np.searchsorted(cum, targets, side="left"), len(sv) - 1)
    return sv[pos], np.full(m, total / m, dtype=np.float64)


def weighted_quantile(
    values: np.ndarray, weights: np.ndarray, qs: np.ndarray
) -> np.ndarray:
    """Value at weighted rank q·W for each q (lower selection)."""
    order = np.argsort(values, kind="stable")
    sv = values[order]
    cum = np.cumsum(weights[order].astype(np.float64))
    pos = np.minimum(
        np.searchsorted(cum, np.asarray(qs, dtype=np.float64) * cum[-1], side="left"),
        len(sv) - 1,
    )
    return sv[pos]


def histogram_rank_values(values: np.ndarray, counts: np.ndarray, ranks) -> np.ndarray:
    """The exact histogram rank rule over a ``(value, count)`` table
    sorted by value: the value at 0-based rank t (0 ≤ t < Σcounts) is
    the first value whose cumulative count exceeds t.  The caller picks
    the rank formula (``floor(q·(n−1))``, ``(k·n)//P``, ...) that its
    SQL oracle uses."""
    cum = np.cumsum(counts)
    return values[np.searchsorted(cum, np.asarray(ranks, dtype=np.int64), side="right")]
