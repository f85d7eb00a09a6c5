"""Segment merge / compaction: sorted k-way merge of index shards.

The reference merges segments pairwise with dictionary full-outer joins
and docID rebasing (`InvertedIndexManager.java:327-440`,
`utils/Utils.java:74-119,169-177`). Here doc_ids are global so no
rebasing is needed, and shard term dictionaries are sorted, so merging
N indexes is: per bucket, decode every source sub-shard (vectorized),
concatenate the exploded postings, and rebuild one compacted shard —
stateless Ray tasks, one per bucket, embarrassingly parallel, each an
idempotent write (temp + atomic rename, like the reference's `_new` +
rename at `IIM:413-431`).

A merge may also take DELTAS: directories that hold only a committed
phase-A exchange (`pipelines/build.write_exchange`) and never built
shards. A bucket task unpacks the delta's exchange partition for that
bucket into the same exploded postings a decoded shard yields, so the
delta's shards are never written and read back (`add_documents`).

Docstore part files are immutable (written once, temp + rename), so the
merged docstore hard-links every source's parts instead of rewriting
them; a part name present in two sources means shared doc_ids and
raises.

Also serves as the compaction that (a) folds salted sub-shards (salt>1)
back into one shard per bucket and (b) physically drops tombstoned
terms, clearing the tombstone list (reference `IIM:437` clears
`deletedWords` after merge).

Requirement: source indexes must share analyzer/num_buckets and have
disjoint doc_id spaces (global doc ids make this the ingest contract).
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.codecs import MANY_CODECS
from ..pipelines.build import (
    exchange_shards,
    load_exchange_meta,
    load_meta,
    read_exchange_partition,
    write_meta,
)
from ..stages import shards as shards_mod
from ..state.searcher import load_tombstones, save_tombstones


def _bin_column_parts(t: pa.Table, name: str) -> tuple[bytes, np.ndarray]:
    """(concatenated bytes, per-row byte offsets) of a large_binary col."""
    arr = t[name].combine_chunks() if isinstance(t[name], pa.ChunkedArray) else t[name]
    # zero-copy via buffers: [validity, offsets(int64), data]
    bufs = arr.buffers()
    off = np.frombuffer(bufs[1], dtype=np.int64, count=len(arr) + 1 + arr.offset)[arr.offset :]
    data = bufs[2] if bufs[2] is not None else b""
    return data, off


def decode_shard_table(t: pa.Table, *, positional: bool) -> dict:
    """Vectorized decode of a whole shard table back to exploded posting
    arrays: term(object ndarray, per posting), doc_id, tf, doc_len
    [, positions_flat, positions_offsets]."""
    df = t["df"].to_numpy(zero_copy_only=False)
    terms = np.asarray(t["term"].to_pylist(), dtype=object)
    dec_many = MANY_CODECS[shards_mod.shard_codec(t)][1]

    def _col(name: str, *, delta: bool):
        data, off = _bin_column_parts(t, name)
        return dec_many(memoryview(data)[off[0] : off[-1]], off - off[0], delta=delta)[0]

    out = {
        "term": np.repeat(terms, df),
        "doc_id": _col("docs", delta=True),
        "tf": _col("tfs", delta=False),
        "doc_len": _col("dls", delta=False),
    }
    if positional and "pos" in t.column_names:
        pos_data, pos_off = _bin_column_parts(t, "pos")
        per_doc_bytes = _col("pos_lens", delta=False)
        byte_off = np.r_[0, np.cumsum(per_doc_bytes)]
        flat, val_off = dec_many(
            memoryview(pos_data)[pos_off[0] : pos_off[-1]], byte_off, delta=True
        )
        out["positions_flat"] = flat
        out["positions_offsets"] = val_off
    return out


def _exploded_table(d: dict, shard_id: int, *, positional: bool) -> pa.Table:
    term = d["term"]
    cols = {
        "term": term if isinstance(term, pa.Array) else pa.array(term.tolist(), type=pa.string()),
        "shard": pa.array(np.full(len(d["doc_id"]), shard_id, dtype=np.int32)),
        "doc_id": pa.array(d["doc_id"], type=pa.int64()),
        "tf": pa.array(d["tf"].astype(np.int32)),
        "doc_len": pa.array(d["doc_len"].astype(np.int32)),
    }
    if positional and "positions_flat" in d:
        # int64 (large_list) offsets: a merged bucket aggregates ALL
        # sources' postings, so total positions can pass 2^31 at the
        # 100 TB design point — int32 offsets would silently wrap.
        cols["positions"] = pa.LargeListArray.from_arrays(
            pa.array(d["positions_offsets"].astype(np.int64), type=pa.int64()),
            pa.array(d["positions_flat"].astype(np.int32), type=pa.int32()),
        )
    return pa.table(cols)


def _exchange_postings(t: pa.Table, *, positional: bool) -> dict:
    """Packed exchange fragments -> the exploded posting arrays that
    `decode_shard_table` yields for a built shard."""
    u = shards_mod._unpack_packed(t, positional)
    out = {
        "term": u["vocab"].take(pa.array(u["tcodes"])).cast(pa.string()),
        "doc_id": u["doc_id"],
        "tf": u["tf"],
        "doc_len": u["dl"],
    }
    if positional:
        out["positions_flat"] = u["pos_flat"]
        out["positions_offsets"] = u["pos_off"]
    return out


def merge_bucket(
    bucket: int,
    sources: list[str],
    dest: str,
    *,
    salts: list[int],
    positional: bool,
    fingerprint: str,
    drop_terms: frozenset[str] = frozenset(),
    codec: str = "varint",
    deltas: list[str] = (),
    delta_salts: list[int] = (),
) -> pa.Table:
    """Merge one bucket from all sources and deltas into dest (salt=1).
    Returns the shard manifest row (status "empty" when the bucket has
    no surviving postings) plus `delta_tf`, the tf sum of the deltas'
    postings in this bucket before tombstone drops."""
    parts = []
    for src, salt in zip(sources, salts):
        for s in range(salt):
            t = shards_mod.open_shard(src, bucket * salt + s)
            if t is None:
                continue
            if drop_terms:
                keep = [i for i, term in enumerate(t["term"].to_pylist()) if term not in drop_terms]
                if len(keep) == 0:
                    continue
                if len(keep) < t.num_rows:
                    t = t.take(pa.array(keep, type=pa.int64()))
            d = decode_shard_table(t, positional=positional)
            parts.append(_exploded_table(d, bucket, positional=positional))
    delta_tf = 0
    for src, salt in zip(deltas, delta_salts):
        for s in range(salt):
            t = read_exchange_partition(src, bucket * salt + s)
            if t is None:
                continue
            d = _exchange_postings(t, positional=positional)
            delta_tf += int(d["tf"].sum())
            e = _exploded_table(d, bucket, positional=positional)
            if drop_terms:
                e = e.filter(pc.invert(pc.is_in(
                    e["term"], value_set=pa.array(sorted(drop_terms), type=pa.string()))))
            if e.num_rows:
                parts.append(e)
    if parts:
        row = shards_mod.write_shard(
            pa.concat_tables(parts), index_dir=dest, positional=positional,
            fingerprint=fingerprint, codec=codec,
        )
    else:
        row = shards_mod._manifest_row(
            {"shard": bucket, "n_terms": 0, "n_postings": 0, "total_tf": 0, "bytes": 0, "status": "empty"}
        )
    return row.append_column("delta_tf", pa.array([delta_tf], type=pa.int64()))


def _link_docstores(stores: list[str], dest_store: str) -> None:
    """Hard-link every part file of `stores` into `dest_store` (a copy
    where linking fails, e.g. across filesystems). Parts are immutable,
    so sharing their inodes is safe. "_"/"."-prefixed names (temp files
    of killed writers) are skipped, as Arrow dataset discovery skips
    them."""
    # a re-merge into an existing dest must not keep stale parts
    shutil.rmtree(dest_store, ignore_errors=True)
    os.makedirs(dest_store)
    for st in stores:
        for name in sorted(os.listdir(st)):
            if name.startswith(("_", ".")):
                continue
            src, dst = os.path.join(st, name), os.path.join(dest_store, name)
            if os.path.lexists(dst):
                raise ValueError(
                    f"docstore part {name!r} is in more than one source: "
                    "merged indexes must have disjoint doc_ids"
                )
            try:
                os.link(src, dst)
            except OSError:
                shutil.copy2(src, dst)


def merge_indexes(
    sources: list[str],
    dest: str,
    *,
    deltas: list[str] = (),
    merge_docstore: bool = True,
    clear_tombstones: bool = True,
    codec: str | None = None,
    timings: dict | None = None,
) -> dict:
    """Merge N indexes, plus any `deltas` (committed phase-A exchanges,
    see `pipelines/build.write_exchange`), into one compacted index at
    `dest` (Ray tasks, one per bucket). Tombstoned terms (union over
    sources) are dropped physically, in the deltas' postings too; the
    merged index starts with no tombstones. `timings` entries (seconds)
    are stored in the meta as ``<name>_sec`` next to ``merge_sec`` and
    ``docstore_sec``."""
    import hashlib
    import time

    import ray.data as rd

    timings = dict(timings or {})
    metas = [load_meta(s) for s in sources]
    delta_metas = [load_exchange_meta(d) for d in deltas]
    m0 = metas[0]
    for m in metas[1:] + delta_metas:
        if m["analyzer"] != m0["analyzer"] or m["num_buckets"] != m0["num_buckets"]:
            raise ValueError("can only merge indexes with the same analyzer and num_buckets")
    positional = all(m.get("positional") for m in metas + delta_metas)
    # dest codec: explicit > first source's > default (sources may mix
    # codecs — each shard table carries its own in schema metadata)
    codec = codec or metas[0].get("codec", "varint")
    salts = [int(m.get("salt", 1)) for m in metas]
    delta_salts = [int(m.get("salt", 1)) for m in delta_metas]
    drop = frozenset().union(*(load_tombstones(s) for s in sources))
    # fp must include the DEST codec (re-merging to transcode would
    # otherwise no-op against the existing shard manifests) AND the
    # tombstone drop set: a re-merge after a delete must rewrite the
    # shards, or it would skip them yet still clear the tombstones,
    # resurrecting the deleted terms
    drop_fp = hashlib.md5("\x00".join(sorted(drop)).encode()).hexdigest() \
        if drop else "none"
    fp = ("merge:" + ":".join(m["fingerprint"] for m in metas + delta_metas)
          + f":codec={codec}:drop={drop_fp}")
    os.makedirs(dest, exist_ok=True)

    buckets = sorted(
        {sid // salt for src, salt in zip(sources, salts) for sid in shards_mod.list_shards(src)}
        | {sid // salt for src, salt in zip(deltas, delta_salts) for sid in exchange_shards(src)}
    )

    def do_bucket(batch: pa.Table) -> pa.Table:
        return pa.concat_tables([
            merge_bucket(
                int(b), sources, dest, salts=salts, positional=positional,
                fingerprint=fp, drop_terms=drop, codec=codec,
                deltas=list(deltas), delta_salts=delta_salts,
            )
            for b in batch["bucket"].to_pylist()
        ])

    t0 = time.time()
    rows = (
        rd.from_items([{"bucket": b} for b in buckets], override_num_blocks=max(1, len(buckets)))
        .map_batches(do_bucket, batch_size=1, batch_format="pyarrow")
        .take_all()
        if buckets
        else []
    )
    timings["merge"] = time.time() - t0
    manifests = [m for m in rows if m["status"] != "empty"]

    t0 = time.time()
    if merge_docstore:
        stores = [os.path.join(s, "docstore") for s in list(sources) + list(deltas)]
        stores = [st for st in stores if os.path.isdir(st)]
        if stores:
            _link_docstores(stores, os.path.join(dest, "docstore"))
    timings["docstore"] = time.time() - t0

    n_docs = sum(m["n_docs"] for m in metas + delta_metas)
    # avgdl is a CORPUS statistic (the stored per-posting doc_lens are
    # the original analyzed lengths), so carry the sources' token totals
    # rather than recounting surviving postings — otherwise dropping a
    # tombstoned term would silently shift every BM25 score. A delta's
    # total is the tf sum of its postings before the drops.
    total_tokens = sum(m["total_tokens"] for m in metas) + sum(m["delta_tf"] for m in rows)
    meta = {
        "n_docs": n_docs,
        "total_tokens": int(total_tokens),
        "avgdl": (total_tokens / n_docs) if n_docs else 0.0,
        "n_postings": int(sum(m["n_postings"] for m in manifests)),
        "n_shards": len(manifests),
        "analyzer": m0["analyzer"],
        "num_buckets": m0["num_buckets"],
        "salt": 1,
        "positional": positional,
        "codec": codec,
        "fingerprint": fp,
        "merged_from": list(sources) + list(deltas),
        **{f"{k}_sec": round(v, 3) for k, v in timings.items()},
    }
    # the searcher reads this key unconditionally for wordbreak/japanese
    # analyzers — a merged index must stay openable
    if "wordbreak_dict_path" in m0:
        meta["wordbreak_dict_path"] = m0["wordbreak_dict_path"]
    write_meta(dest, meta)

    if clear_tombstones:
        save_tombstones(dest, set())
    return meta


def compact_index(index_dir: str, dest: str, **kw) -> dict:
    """Compact one index: fold salted sub-shards, drop tombstones."""
    return merge_indexes([index_dir], dest, **kw)
