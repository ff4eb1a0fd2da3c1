"""WebDataset-style tar-shard source + sink.

The de-facto container format for LLM/multimodal training data is a
directory of ``.tar`` shards whose members group by basename stem
(``{key}.txt`` + ``{key}.json`` …), consumed shard-parallel
(WebDataset; reference's bulk export/import jobs move the same shape
through CSV/DB, SURVEY §2 S6-S8).  This module writes the documents
table into that layout and reads it back:

- **Deterministic, resumable shards**: shard id = ``doc_id //
  docs_per_shard``, members sorted, mtime/uid pinned to 0 — re-running
  the writer produces byte-identical files, and existing shards are
  skipped (the partitioned-parquet resume discipline applied to tar).
- **Shard-parallel read**: one task per ``.tar`` (tar isn't splittable
  — same consumption shape as a WARC segment or WebDataset pipeline).
"""

from __future__ import annotations

import glob
import io
import json
import os
import tarfile

import polars as pl
import pyarrow as pa
import ray.data as rd

from .. import ops
from ..ops import hash_group_apply

__all__ = ["write_tar_shards", "read_tar_shards", "tar_shard_roundtrip"]


def _add_member(tf: tarfile.TarFile, name: str, payload: bytes) -> None:
    info = tarfile.TarInfo(name=name)
    info.size = len(payload)
    info.mtime = 0
    info.uid = info.gid = 0
    info.uname = info.gname = ""
    tf.addfile(info, io.BytesIO(payload))


def write_tar_shards(
    docs: rd.Dataset, out_dir: str, docs_per_shard: int = 200
) -> str:
    """Write (doc_id, text, source, lang) rows into WebDataset-style
    tar shards: ``shard-{id:06d}.tar`` holding ``{doc_id:010d}.json`` +
    ``.txt`` per document, members in doc_id order."""
    os.makedirs(out_dir, exist_ok=True)

    def route(df: pl.DataFrame) -> pl.DataFrame:
        return df.with_columns(shard=(pl.col("doc_id") // docs_per_shard).cast(pl.Int64))

    def write_group(df: pl.DataFrame) -> pl.DataFrame:
        paths, counts = [], []
        for (shard,), sub in df.sort("doc_id").group_by(["shard"], maintain_order=True):
            name = os.path.join(out_dir, f"shard-{shard:06d}.tar")
            if not os.path.exists(name):  # resumable: finished shards skip
                buf = io.BytesIO()
                with tarfile.open(fileobj=buf, mode="w", format=tarfile.USTAR_FORMAT) as tf:
                    for doc_id, text, source, lang in zip(
                        sub["doc_id"], sub["text"], sub["source"], sub["lang"]
                    ):
                        meta = json.dumps(
                            {"source": source, "lang": lang}, sort_keys=True
                        ).encode()
                        _add_member(tf, f"{doc_id:010d}.json", meta)
                        _add_member(tf, f"{doc_id:010d}.txt", text.encode("utf-8"))
                with open(name + ".tmp", "wb") as fh:
                    fh.write(buf.getvalue())
                os.replace(name + ".tmp", name)
            paths.append(name)
            counts.append(sub.height)
        return pl.DataFrame(
            {"path": pl.Series(paths, dtype=pl.String), "n_docs": pl.Series(counts, dtype=pl.Int64)}
        )

    # each merge task writes its shards before the exchange returns
    hash_group_apply(docs, ["shard"], write_group, pre=route)
    return out_dir


def _parse_shards(*paths: str) -> pa.Table:
    """The documents rows of the tar shards ``paths``, members regrouped
    by basename stem, in stem order per shard."""
    ids, texts, sources, langs = [], [], [], []
    for path in paths:
        by_stem: dict[str, dict] = {}
        with tarfile.open(path, mode="r") as tf:
            for m in tf.getmembers():
                stem, ext = os.path.splitext(m.name)
                payload = tf.extractfile(m).read()
                by_stem.setdefault(stem, {})[ext] = payload
        for stem in sorted(by_stem):
            parts = by_stem[stem]
            meta = json.loads(parts[".json"].decode())
            ids.append(int(stem))
            texts.append(parts[".txt"].decode("utf-8"))
            sources.append(meta["source"])
            langs.append(meta["lang"])
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(texts, pa.string()),
            "source": pa.array(sources, pa.string()),
            "lang": pa.array(langs, pa.string()),
        }
    )


def read_tar_shards(shard_dir: str) -> rd.Dataset:
    """Read tar shards back into the documents shape — one task per
    shard (one task on no shards, for the columns)."""
    files = sorted(glob.glob(os.path.join(shard_dir, "*.tar")))
    return ops._dataset(ops._wave(
        ops._map_block, [(_parse_shards, f) for f in files] or [(_parse_shards,)], 2))


def tar_shard_roundtrip(sf_dir: str) -> rd.Dataset:
    """Registry query: export the documents table to tar shards (cached
    per sf_dir under /tmp), read it back shard-parallel, and return the
    content fingerprint columns — the oracle compares them against the
    parquet directly, proving the round trip lossless."""
    import hashlib

    key = hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    out_dir = os.path.join("/tmp/lpr_tarshards", key)
    docs = ops.scan(os.path.join(sf_dir, "documents.parquet"), ["doc_id", "text", "source", "lang"])
    write_tar_shards(docs, out_dir)

    return ops.map_blocks(
        read_tar_shards(out_dir),
        lambda t: pl.from_arrow(t)
        .select(
            "doc_id",
            pl.col("text").str.len_chars().cast(pl.Int64).alias("n_chars"),
            "source",
            "lang",
        )
        .to_arrow(),
    )
