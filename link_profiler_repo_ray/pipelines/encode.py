"""Documents/chunks → embeddings: the encoder pipeline closing the
chunk→encode→index loop (round-4 verdict item 3).

The reference's AI service embeds page content for similarity work
(``services/ai_service.py``; no public model ships in this container),
so the encoder is :class:`..stages.stages.EncodeStage` — a
deterministic feature-hashing projection whose every output double a
DuckDB oracle reproduces bit-identically.  What matters here is the
Ray shape:

- ``embed_documents`` is the oracle-checked registry query: one
  pruned documents scan → actor-pool ``map_batches`` encode → long
  form ``(doc_id, dim, component_int, value)``.  Zero exchanges,
  embarrassingly parallel, linear in corpus tokens.
- ``encode_corpus`` is the production shape: ``chunk_documents`` →
  encode → the embeddings-table schema ``(vec_id, embedding
  list<float32>, label int32)``, so EVERY downstream embedding
  operator (``embedding_topk`` / ``knn_ivf`` / ``embedding_quantize``
  / ``semdedup_survivors``) consumes encoder output by pointing its
  ``sf_dir`` at the written directory — no consumer changes needed.
- ``write_embeddings_fixture`` materializes that stream into ONE
  vec_id-sorted parquet file matching the input-hint layout
  (``_load_queries`` checks row-group sort stats).  The materialize +
  global sort is BOUNDED test harnessing (sf fixtures, ≤ a few
  thousand chunks); at 100 TB the writer is a range-partitioned
  ``sort("vec_id")`` → partitioned ``write_parquet`` and the query
  prefix comes from the first range shard.
"""

from __future__ import annotations

import os

import pyarrow as pa
import ray.data as rd

from .. import ops
from ..stages.stages import EncodeStage
from .textdata import chunk_documents, documents_dataset

__all__ = ["embed_documents", "encode_corpus", "write_embeddings_fixture"]

# chunk_id fits far below this at any realistic size/stride; keeps
# vec_id = doc_id·2²⁰ + chunk_id globally unique AND doc_id-ordered
_CHUNKS_PER_DOC = 1 << 20


def embed_documents(sf_dir: str, dim: int = 16) -> rd.Dataset:
    """Long-form document embeddings ``(doc_id, dim, component_int,
    value)`` — 16 rows per document, integer raw components plus the
    single correctly-rounded ``component/sqrt(n_tokens)`` double, so
    the DuckDB oracle hash-matches exactly."""

    class LongEncode(EncodeStage):
        def __call__(self, batch: pa.Table) -> pa.Table:  # noqa: D102
            import numpy as np

            raw, n_tok = self.encode_raw(batch.column("text").to_pylist())
            n = raw.shape[0]
            ids = np.repeat(
                batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64), dim
            )
            dims = np.tile(np.arange(dim, dtype=np.int64), n)
            vals = raw.astype(np.float64) / np.sqrt(n_tok.astype(np.float64))[:, None]
            return pa.table(
                {
                    "doc_id": pa.array(ids),
                    "dim": pa.array(dims),
                    "component_int": pa.array(raw.ravel()),
                    "value": pa.array(vals.ravel()),
                }
            )

    return documents_dataset(sf_dir, ["doc_id", "text"]).map_batches(
        LongEncode,
        fn_constructor_kwargs={"dim": dim, "text_col": "text"},
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=(1, 4),
    )


def encode_corpus(
    sf_dir: str, dim: int = 16, chunk_size: int = 128, stride: int = 96
) -> rd.Dataset:
    """chunk → encode, streaming, in the embeddings-table schema.

    Output columns: ``vec_id`` (doc_id·2²⁰ + chunk_id — doc_id-ordered
    so a preserving writer yields the sorted input-hint layout),
    ``embedding`` (list<float32>), ``label`` (int32 argmax component).
    """
    class ChunkEncode(EncodeStage):
        def __call__(self, batch: pa.Table) -> pa.Table:  # noqa: D102
            import numpy as np

            out = super().__call__(batch)
            vec = (
                out.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
                * _CHUNKS_PER_DOC
                + out.column("chunk_id").to_numpy(zero_copy_only=False).astype(np.int64)
            )
            return pa.table(
                {
                    "vec_id": pa.array(vec),
                    "embedding": out.column("embedding"),
                    "label": out.column("label"),
                }
            )

    return chunk_documents(sf_dir, chunk_size, stride).map_batches(
        ChunkEncode,
        fn_constructor_kwargs={"dim": dim, "text_col": "chunk_text"},
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=(1, 4),
    )


def write_embeddings_fixture(sf_dir: str, out_dir: str, **kw) -> str:
    """Materialize ``encode_corpus`` output as ``out_dir/
    embeddings.parquet`` — ONE vec_id-sorted file with row-group
    statistics, the exact layout ``_load_queries`` verifies.  Bounded
    by design (test fixtures); see module docstring for the 100-TB
    writer shape."""
    import pyarrow.parquet as pq

    t = ops.collect_table(encode_corpus(sf_dir, **kw)).sort_by("vec_id")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "embeddings.parquet")
    pq.write_table(t, path, row_group_size=max(256, t.num_rows // 8))
    return path
