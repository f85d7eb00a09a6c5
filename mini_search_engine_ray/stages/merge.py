"""Segment merge / compaction: a term-level merge of encoded shards.

The reference folds a flushed segment into the index with a per-term
dictionary full-outer join (`InvertedIndexManager.java:327-440`,
docID rebasing at `utils/Utils.java:74-119,169-177`). Here doc_ids are
global so no rebasing is needed, and shard term dictionaries are
sorted. Per bucket, every output term falls into exactly one of three
sets, decided from the data:

  * copy: one holder, a salt-1 shard already in the destination codec,
    and no other posting. Its row is taken verbatim, payloads and
    block-max lists alike.
  * append: the holder with the lowest doc_ids is such a shard in the
    varint codec, and every other posting of the term (a delta's, or
    another source's) comes after that holder's last doc. Only those
    later postings are decoded and encoded (`shards.encode_terms`),
    with the first doc gap taken from the holder's last doc and the
    holder's partial last block continued, and their bytes are
    appended to the holder's.
  * rebuild: everything else (salted sources, interleaved doc_ids,
    pfordelta or a codec change, terms only the deltas hold). Its own
    rows are decoded and encoded from scratch.

The rows are assembled in bytewise term order, and the shard bytes
equal those of `build_shard_table` over the union of the postings. An
update whose new doc_ids follow the live ones decodes no live posting:
its cost follows the delta, plus a byte copy of the live shard.

Buckets are embarrassingly parallel: they are dealt round-robin to
stateless plain Ray tasks (no Ray Data execution), one per CPU of the
cluster (`stages/fanout.run_keyed`), and each bucket is an idempotent
write (`shards.write_shard`: temp + atomic rename, like the
reference's `_new` + rename at `IIM:413-431`), so a retried task that
re-runs its whole group skips the buckets it already committed.

A merge may also take DELTAS: directories that hold only a committed
phase-A exchange (`pipelines/build.write_exchange`) and never built
shards. A bucket task unpacks the delta's exchange partition for that
bucket into posting arrays, so the delta's shards are never written and
read back (`add_documents`).

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
from ..stages.fanout import run_keyed
from ..state.searcher import load_tombstones, save_tombstones

# per-bucket work counters (manifest column -> merge meta key)
MERGE_COUNTERS = {
    "terms_copied": "merge_terms_copied",
    "terms_appended": "merge_terms_appended",
    "terms_rebuilt": "merge_terms_rebuilt",
    "live_postings_decoded": "merge_postings_decoded",
}
_PAYLOADS = ("docs", "tfs", "dls")
_BLOCKS = (("blk_last_doc", pa.int64()), ("blk_max_tf", pa.int32()), ("blk_min_dl", pa.int32()))
_FIELDS = ("u", "doc_id", "tf", "doc_len")


def _bin_column_parts(col) -> tuple[bytes, np.ndarray]:
    """(concatenated bytes, per-row byte offsets) of a large_binary col."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    # zero-copy via buffers: [validity, offsets(int64), data]
    bufs = arr.buffers()
    off = np.frombuffer(bufs[1], dtype=np.int64, count=len(arr) + 1 + arr.offset)[arr.offset :]
    data = bufs[2] if bufs[2] is not None else b""
    return data, off


def decode_shard_table(t: pa.Table, *, positional: bool) -> dict:
    """Vectorized decode of a whole shard table back to posting arrays:
    row (the table row each posting belongs to), doc_id, tf, doc_len
    [, positions_flat, positions_offsets]."""
    df = t["df"].to_numpy(zero_copy_only=False)
    dec_many = MANY_CODECS[shards_mod.shard_codec(t)][1]

    def _col(name: str, *, delta: bool):
        data, off = _bin_column_parts(t[name])
        return dec_many(memoryview(data)[off[0] : off[-1]], off - off[0], delta=delta)[0]

    out = {
        "row": np.repeat(np.arange(t.num_rows), df),
        "doc_id": _col("docs", delta=True),
        "tf": _col("tfs", delta=False),
        "doc_len": _col("dls", delta=False),
    }
    if positional and "pos" in t.column_names:
        pos_data, pos_off = _bin_column_parts(t["pos"])
        per_doc_bytes = _col("pos_lens", delta=False)
        byte_off = np.r_[0, np.cumsum(per_doc_bytes)]
        flat, val_off = dec_many(
            memoryview(pos_data)[pos_off[0] : pos_off[-1]], byte_off, delta=True
        )
        out["positions_flat"] = flat
        out["positions_offsets"] = val_off
    return out


def _cat_postings(parts: list[dict], positional: bool) -> dict:
    """Concatenate posting dicts: term code `u`, doc_id, tf, doc_len
    [, pos_flat, pos_off (each posting's positions)]."""
    out = {k: np.concatenate([p[k] for p in parts]) for k in _FIELDS}
    if positional:
        out["pos_flat"] = np.concatenate([p["pos_flat"] for p in parts])
        lens = np.concatenate([np.diff(p["pos_off"]) for p in parts])
        out["pos_off"] = np.r_[0, np.cumsum(lens)].astype(np.int64)
    return out


def _take_postings(p: dict, idx: np.ndarray, positional: bool) -> dict:
    out = {k: p[k][idx] for k in _FIELDS}
    if positional:
        out["pos_flat"], out["pos_off"] = shards_mod.ragged_take(p["pos_flat"], p["pos_off"], idx)
    return out


def _delta_postings(t: pa.Table, drop: pa.Array, positional: bool) -> tuple[dict, pa.Array, int]:
    """A delta's packed exchange fragments -> (postings without the
    tombstoned terms, the vocabulary entries their `u` indexes, tf sum
    before the drop)."""
    x = shards_mod._unpack_packed(t, positional)
    p = {"u": x["tcodes"], "doc_id": x["doc_id"], "tf": x["tf"], "doc_len": x["dl"]}
    if positional:
        p["pos_flat"], p["pos_off"] = x["pos_flat"], x["pos_off"]
    if len(drop):
        dropped = pc.is_in(x["vocab"], value_set=drop).to_numpy(zero_copy_only=False)
        p = _take_postings(p, np.flatnonzero(~dropped[p["u"]]), positional)
    used = np.flatnonzero(np.bincount(p["u"], minlength=len(x["vocab"])))
    remap = np.empty(len(x["vocab"]), dtype=np.int64)
    remap[used] = np.arange(len(used))
    p["u"] = remap[p["u"]]
    return p, x["vocab"].take(pa.array(used)).cast(pa.string()), int(x["tf"].sum())


def _take_pairs(pool: pa.Array, first: np.ndarray, second: np.ndarray) -> tuple:
    """Rows ``first[i]`` and ``second[i]`` of a large_binary or list
    array, interleaved by one take: (values, offsets[2n+1])."""
    taken = pool.take(pa.array(np.column_stack([first, second]).ravel()))
    if pa.types.is_large_binary(taken.type):
        return _bin_column_parts(taken)
    off, vals = shards_mod._list_parts(taken)
    return vals.to_numpy(zero_copy_only=False), off


def _assemble(terms: pa.Array, live: list[pa.Table], enc: dict | None, first: np.ndarray,
              second: np.ndarray, fold: np.ndarray, positional: bool) -> dict[str, pa.Array]:
    """Shard-table columns where term i is pool row ``first[i]``
    followed by pool row ``second[i]``. The pool is the rows of the
    `live` tables, then the encoded rows `enc`, then one empty row.
    Where `fold`, the second row's first block continues the first
    row's last block, which is dropped."""
    empty = {"df": pa.array([0], type=pa.int64()), "total_tf": pa.array([0], type=pa.int64())}
    names = _PAYLOADS + (("pos", "pos_lens") if positional else ())
    empty.update({n: pa.array([b""], type=pa.large_binary()) for n in names})
    empty.update({n: pa.array([[]], type=pa.list_(ty)) for n, ty in _BLOCKS})

    def pool(name: str) -> pa.Array:
        chunks = [c for t in live for c in t[name].chunks]
        return pa.concat_arrays(chunks + ([enc[name]] if enc else []) + [empty[name]])

    cols = {"term": terms}
    for name in ("df", "total_tf"):
        v = pool(name).to_numpy()
        cols[name] = pa.array(v[first] + v[second], type=pa.int64())
    for name in names:
        data, off = _take_pairs(pool(name), first, second)
        cols[name] = shards_mod._bin_array(data, off[::2])
    n_folded = np.r_[0, np.cumsum(fold)]
    for name, ty in _BLOCKS:
        vals, off = _take_pairs(pool(name), first, second)
        vals = np.delete(vals, off[1::2][fold] - 1)
        cols[name] = pa.ListArray.from_arrays(
            pa.array((off[::2] - n_folded).astype(np.int32)), pa.array(vals, type=ty)
        )
    return cols


def _last_in_row(t: pa.Table, name: str) -> np.ndarray:
    off, vals = shards_mod._list_parts(t[name])
    return vals.to_numpy(zero_copy_only=False)[off[1:] - 1]


def _merge_terms(live: list[tuple[pa.Table, bool]], fresh: list[tuple[dict, pa.Array]], *,
                 positional: bool, codec: str, stats: dict) -> tuple[pa.Table, dict]:
    """The merged shard of `live` (tables, each flagged when it is a
    salt-1 shard in `codec`) and `fresh` (delta postings with their
    vocabularies): (table, metrics). Fills the `MERGE_COUNTERS` keys
    of `stats`."""
    tables = [t for t, _ in live]
    n_rows = np.array([t.num_rows for t in tables], dtype=np.int64)
    n_live = int(n_rows.sum())
    # output terms: the sorted union, one code per live row and per
    # delta vocabulary entry (bytewise order, as build_shard_table)
    pieces = [c.cast(pa.string()) for t in tables for c in t["term"].chunks]
    pieces += [v for _, v in fresh]
    denc = pa.concat_arrays(pieces).dictionary_encode()
    sort_idx = pc.array_sort_indices(denc.dictionary).to_numpy(zero_copy_only=False)
    terms = denc.dictionary.take(pa.array(sort_idx))
    rank = np.empty(len(terms), dtype=np.int64)
    rank[sort_idx] = np.arange(len(terms))
    codes = rank[denc.indices.to_numpy(zero_copy_only=False)]
    n = len(terms)

    # per live row: term, table, row in table, df and last block state
    row_u = codes[:n_live]
    tbl = np.repeat(np.arange(len(tables)), n_rows)
    row = np.arange(n_live) - np.repeat(np.cumsum(n_rows) - n_rows, n_rows)
    same = np.repeat(np.array([s for _, s in live], dtype=bool), n_rows)
    df = np.concatenate([t["df"].to_numpy() for t in tables]) if tables else np.empty(0, np.int64)
    last, max_tf, min_dl = (
        np.concatenate([_last_in_row(t, name) for t in tables]) if tables else np.empty(0, np.int64)
        for name, _ in _BLOCKS
    )

    # each term's holder: its live row with the lowest last doc (the
    # only one whose postings can all precede the others')
    order = np.lexsort((last, row_u))
    heads = order[np.r_[True, row_u[order][1:] != row_u[order][:-1]]] if n_live else order
    holder = np.full(n, -1, dtype=np.int64)
    holder[row_u[heads]] = heads
    not_holder = np.ones(n_live, dtype=bool)
    not_holder[heads] = False

    def decode(rows: np.ndarray) -> list[dict]:
        stats["live_postings_decoded"] += int(df[rows].sum())
        parts = []
        for k, t in enumerate(tables):
            sel = rows[tbl[rows] == k]
            if len(sel):
                d = decode_shard_table(t.take(pa.array(row[sel])), positional=positional)
                p = {"u": row_u[sel][d["row"]], "doc_id": d["doc_id"], "tf": d["tf"],
                     "doc_len": d["doc_len"]}
                if positional:
                    p["pos_flat"], p["pos_off"] = d["positions_flat"], d["positions_offsets"]
                parts.append(p)
        return parts

    # every posting outside the holders: other live rows, then deltas
    others = decode(np.flatnonzero(not_holder))
    start = n_live
    for p, vocab in fresh:
        p = dict(p, u=codes[start : start + len(vocab)][p["u"]])
        start += len(vocab)
        others.append(p)
    has = holder >= 0
    kept = np.zeros(n, dtype=bool)
    kept[has] = same[holder[has]]
    h_last = np.full(n, -1, dtype=np.int64)
    h_last[has] = last[holder[has]]
    n_other = np.zeros(n, dtype=np.int64)
    early = np.zeros(n, dtype=bool)
    for p in others:
        n_other += np.bincount(p["u"], minlength=n)
        early[p["u"][p["doc_id"] <= h_last[p["u"]]]] = True
    copy = kept & (n_other == 0)
    append = kept & (codec == "varint") & (n_other > 0) & ~early
    rebuild = ~(copy | append)
    stats["terms_copied"] += int(copy.sum())
    stats["terms_appended"] += int(append.sum())
    stats["terms_rebuilt"] += int(rebuild.sum())

    # output term = pool row `first` then pool row `second` (`_assemble`):
    # copy (holder, empty), append (holder, encoded), rebuild (encoded, empty)
    new = others + decode(holder[rebuild & has])
    first, second = holder.copy(), np.full(n, -1, dtype=np.int64)
    fold = np.zeros(n, dtype=bool)
    enc = None
    if new:
        p = _cat_postings(new, positional)
        p = _take_postings(p, np.lexsort((p["doc_id"], p["u"])), positional)
        t_starts = np.flatnonzero(np.r_[True, p["u"][1:] != p["u"][:-1]])
        enc_u = p["u"][t_starts]
        a = append[enc_u]
        held = {}
        for k, v in (("last_doc", last), ("df", df), ("max_tf", max_tf), ("min_dl", min_dl)):
            held[k] = np.zeros(len(enc_u), dtype=np.int64)
            held[k][a] = v[holder[enc_u[a]]]
        enc = shards_mod.encode_terms(
            np.r_[t_starts, len(p["u"])].astype(np.int64), p["doc_id"], p["tf"], p["doc_len"],
            codec=codec, pos_flat=p.get("pos_flat"), pos_off=p.get("pos_off"), held=held,
        )
        enc_row = n_live + np.arange(len(enc_u))
        first[enc_u[~a]] = enc_row[~a]
        second[enc_u[a]] = enc_row[a]
        fold[enc_u] = a & (held["df"] % shards_mod.BLOCK_SIZE != 0)
    second[second < 0] = n_live + (len(enc["df"]) if enc else 0)  # the empty row
    cols = _assemble(terms, tables, enc, first, second, fold, positional)
    return shards_mod.shard_table(cols, codec)


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
    """Merge one bucket from all sources and deltas into dest (salt=1),
    term by term: each term is copied, appended to or rebuilt (see the
    module docstring), with the same bytes as a build over the union.
    Returns the shard manifest row (status "empty" when the bucket has
    no surviving postings) plus `delta_tf`, the tf sum of the deltas'
    postings in this bucket before tombstone drops, and the work
    counters named in `MERGE_COUNTERS`: terms copied, appended and
    rebuilt, and live postings decoded (0 when the bucket was already
    committed)."""
    drop = pa.array(sorted(drop_terms), type=pa.string())
    live = []
    for src, salt in zip(sources, salts):
        for s in range(salt):
            t = shards_mod.open_shard(src, bucket * salt + s)
            if t is not None and len(drop):
                t = t.filter(pc.invert(pc.is_in(t["term"], value_set=drop)))
            if t is not None and t.num_rows:
                live.append((t, salt == 1 and shards_mod.shard_codec(t) == codec))
    delta_tf, fresh = 0, []
    for src, salt in zip(deltas, delta_salts):
        for s in range(salt):
            t = read_exchange_partition(src, bucket * salt + s)
            if t is None:
                continue
            p, vocab, tf_sum = _delta_postings(t, drop, positional)
            delta_tf += tf_sum
            if len(p["u"]):
                fresh.append((p, vocab))
    stats = dict.fromkeys(MERGE_COUNTERS, 0)
    if live or fresh:
        row = shards_mod.write_shard(
            (bucket, lambda: _merge_terms(live, fresh, positional=positional, codec=codec,
                                          stats=stats)),
            index_dir=dest, positional=positional, fingerprint=fingerprint, codec=codec,
        )
    else:
        row = shards_mod._manifest_row(
            {"shard": bucket, "n_terms": 0, "n_postings": 0, "total_tf": 0, "bytes": 0, "status": "empty"}
        )
    row = row.append_column("delta_tf", pa.array([delta_tf], type=pa.int64()))
    for name, v in stats.items():
        row = row.append_column(name, pa.array([v], type=pa.int64()))
    return row


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
    `dest` (plain Ray tasks, one per CPU, each merging a round-robin
    share of the buckets; the meta records ``merge_tasks`` and the buckets
    ``shards_written`` / ``shards_skipped``). Each bucket merges term by
    term (`merge_bucket`); the meta sums its work as
    ``merge_terms_copied`` / ``merge_terms_appended`` /
    ``merge_terms_rebuilt`` and ``merge_postings_decoded`` (live
    postings decoded). Tombstoned terms (union over sources) are dropped
    physically, in the deltas' postings too; the merged index starts
    with no tombstones. `timings` entries (seconds) are stored in the
    meta as ``<name>_sec`` next to ``merge_sec`` and ``docstore_sec``."""
    import hashlib
    import time

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

    def do_bucket(b: int) -> pa.Table:
        return merge_bucket(
            b, sources, dest, salts=salts, positional=positional,
            fingerprint=fp, drop_terms=drop, codec=codec,
            deltas=list(deltas), delta_salts=delta_salts,
        )

    t0 = time.time()
    rows, n_tasks = run_keyed(buckets, do_bucket)
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
        "shards_written": sum(1 for m in manifests if m["status"] == "written"),
        "shards_skipped": sum(1 for m in manifests if m["status"] == "skipped"),
        "merge_tasks": n_tasks,
        **{key: int(sum(m[col] for m in rows)) for col, key in MERGE_COUNTERS.items()},
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
