"""Immutable index shards: build, write, read.

A shard is the rebuild's segment (reference: `IIM.flush` segment files
`words`/`lists`/`positions`, `InvertedIndexManager.java:230-298`): one
Arrow-IPC (feather) file per shard key holding a TERM-SORTED dictionary
with compressed posting payloads, plus a JSON checkpoint manifest with
lineage and token/postings-count metrics (north rule: "resumable from
per-partition checkpoints with lineage and token/postings-count
metrics").

Shard table schema (sorted by `term`):
  term        string         sorted — the term dictionary (reference
                             WordBlock pages, but sorted; SURVEY §2 K5)
  df          int64          document frequency
  total_tf    int64          sum of tf over the posting list
  docs        large_binary   delta+varint doc_ids (ascending)
  tfs         large_binary   varint term frequencies
  dls         large_binary   varint doc lengths (for BM25)
  pos         large_binary   (positional only) delta+varint positions,
                             concatenated per doc
  pos_lens    large_binary   (positional only) varint byte-length of
                             each doc's `pos` span
  blk_last_doc list<int64>   per-128-doc block: last doc_id (skip ptr)
  blk_max_tf  list<int32>    per-block max tf      } block-max upper
  blk_min_dl  list<int32>    per-block min doc_len } bound for BM25

Writes are idempotent: temp file + atomic rename, manifest last; a
shard whose manifest matches the build fingerprint is skipped on
re-run (resume).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.feather as feather

from ..functions.codecs import MANY_CODECS, single_decoder

BLOCK_SIZE = 128


def _bin_array(buf: bytes, offsets: np.ndarray) -> pa.Array:
    """Zero-copy large_binary array from (concatenated bytes, offsets)."""
    return pa.LargeBinaryArray.from_buffers(
        pa.large_binary(),
        len(offsets) - 1,
        [None, pa.py_buffer(offsets.astype(np.int64).tobytes()), pa.py_buffer(buf)],
    )


def _list_parts(col) -> tuple[np.ndarray, pa.Array]:
    """(offsets starting at 0, aligned values) of a list column —
    normalizes away any slice offset so offsets index values directly."""
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    off = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    vals = col.values
    if len(off) and (off[0] != 0 or len(vals) != off[-1]):
        vals = vals.slice(off[0], off[-1] - off[0])
        off = off - off[0]
    return off, vals


def _unpack_exploded(group: pa.Table, positional: bool) -> dict:
    """One row per (term, doc) posting (stages/ingest.py pack=False).
    `vocab` stays a pyarrow string array (may contain duplicates);
    build_shard_table dedupes/sorts it arrow-natively."""
    term_dict = group["term"].combine_chunks() if isinstance(group["term"], pa.ChunkedArray) else group["term"]
    denc = term_dict if pa.types.is_dictionary(term_dict.type) else term_dict.dictionary_encode()
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    out = {
        "vocab": denc.dictionary,
        "tcodes": codes,
        "doc_id": group["doc_id"].to_numpy(zero_copy_only=False),
        "tf": group["tf"].to_numpy(zero_copy_only=False).astype(np.int64),
        "dl": group["doc_len"].to_numpy(zero_copy_only=False).astype(np.int64),
    }
    if positional:
        off, vals = _list_parts(group["positions"])
        out["pos_flat"] = vals.to_numpy(zero_copy_only=False).astype(np.int64)
        out["pos_off"] = off
    return out


def _unpack_packed(group: pa.Table, positional: bool) -> dict:
    """Packed fragments: one row per (tokenize-batch, shard) with list
    columns (stages/ingest.py pack=True). Positions split by tf (a
    posting has exactly tf positions)."""
    voff, vvals = _list_parts(group["vocab"])
    coff, cvals = _list_parts(group["codes"])
    codes = cvals.to_numpy(zero_copy_only=False).astype(np.int64)
    frag_len = np.diff(coff)
    frag_of = np.repeat(np.arange(len(frag_len)), frag_len)
    tcodes_global = voff[:-1][frag_of] + codes  # index into concatenated vocab
    _, dvals = _list_parts(group["doc_ids"])
    _, tvals = _list_parts(group["tfs"])
    _, lvals = _list_parts(group["dls"])
    tf = tvals.to_numpy(zero_copy_only=False).astype(np.int64)
    out = {
        "vocab": vvals,
        "tcodes": tcodes_global,
        "doc_id": dvals.to_numpy(zero_copy_only=False),
        "tf": tf,
        "dl": lvals.to_numpy(zero_copy_only=False).astype(np.int64),
    }
    if positional:
        _, pvals = _list_parts(group["pos"])
        out["pos_flat"] = pvals.to_numpy(zero_copy_only=False).astype(np.int64)
        out["pos_off"] = np.r_[0, np.cumsum(tf)]
    return out


def ragged_take(flat: np.ndarray, off: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lists `idx` of the ragged (flat values, offsets[n+1]), in that
    order: returns (flat values, offsets)."""
    lens = np.diff(off)[idx]
    new_off = np.r_[0, np.cumsum(lens)].astype(np.int64)
    src = np.repeat(off[:-1][idx] - new_off[:-1], lens) + np.arange(new_off[-1])
    return flat[src], new_off


def build_shard_table(group: pa.Table, *, positional: bool, codec: str = "varint") -> tuple[pa.Table, dict]:
    """Turn one shard's posting rows (exploded or packed format) into
    the shard table.

    Fully vectorized: one lexsort + run detection + batch varint encode
    over the whole shard; no per-term Python loop.
    Returns (shard_table, metrics).
    """
    u = (_unpack_packed if "vocab" in group.column_names else _unpack_exploded)(group, positional)
    # dedupe + sort the vocabulary WITHOUT materializing Python strings
    # (object-array np.unique churns allocator/GC badly under wide task
    # concurrency): dictionary_encode dedupes in C, sort_indices orders
    # the unique strings bytewise (== codepoint order for UTF-8).
    raw_vocab = u["vocab"]
    if isinstance(raw_vocab, pa.ChunkedArray):
        raw_vocab = raw_vocab.combine_chunks()
    vdenc = raw_vocab.dictionary_encode()
    uniq = vdenc.dictionary  # unique terms, first-appearance order
    dedup_map = vdenc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    sort_idx = pc.array_sort_indices(uniq).to_numpy(zero_copy_only=False).astype(np.int64)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[sort_idx] = np.arange(len(uniq))
    vocab_sorted = uniq.take(pa.array(sort_idx))  # pa.StringArray, sorted
    tcodes = rank[dedup_map[u["tcodes"]]]

    # duplicate (term, doc) pairs must not exist (explode emits one row
    # per distinct pair per batch; across batches a doc lives in exactly
    # one batch because batches partition rows)
    order = np.lexsort((u["doc_id"], tcodes))
    tcodes = tcodes[order]
    n = len(tcodes)
    t_starts = np.flatnonzero(np.r_[True, tcodes[1:] != tcodes[:-1]])
    pos = ragged_take(u["pos_flat"], u["pos_off"], order) if positional else (None, None)
    cols = encode_terms(
        np.r_[t_starts, n].astype(np.int64), u["doc_id"][order], u["tf"][order], u["dl"][order],
        codec=codec, pos_flat=pos[0], pos_off=pos[1],
    )
    return shard_table({"term": vocab_sorted.take(pa.array(tcodes[t_starts])), **cols}, codec)


def encode_terms(
    t_offsets: np.ndarray,
    doc_id: np.ndarray,
    tf: np.ndarray,
    dl: np.ndarray,
    *,
    codec: str,
    pos_flat: np.ndarray | None = None,
    pos_off: np.ndarray | None = None,
    held: dict | None = None,
) -> dict[str, pa.Array]:
    """Encode postings sorted by (term, doc_id) — term i owns rows
    ``t_offsets[i]:t_offsets[i + 1]`` — into every shard-table column
    but `term`. `pos_flat`/`pos_off` are each posting's positions.

    `held` continues posting lists already encoded elsewhere. Its
    per-term arrays ``last_doc``, ``df``, ``max_tf`` and ``min_dl``
    (the last block's bounds) describe the held list. The first doc gap
    is then taken from ``last_doc``, and blocks are cut as if ``df``
    postings came first. A held last block that is partial (``df %
    BLOCK_SIZE`` postings) is therefore continued: its bounds are folded
    into the first block here, and the caller drops the held one. `df`,
    `total_tf` and every payload count only the new postings, so the
    held bytes followed by these are the encoding of the whole list.
    Without `held`, every list is encoded from its start."""
    n = len(doc_id)
    t_starts = t_offsets[:-1]
    df = np.diff(t_offsets)
    prev = np.r_[0, doc_id[:-1]]
    prev[t_starts] = 0 if held is None else held["last_doc"]
    enc_many = MANY_CODECS[codec][0]
    # delta coding by hand (gaps, then delta=False) so a held list's
    # last doc can stand in for the first gap's predecessor
    docs_buf, docs_off = enc_many(doc_id - prev, t_offsets, delta=False)
    tfs_buf, tfs_off = enc_many(tf, t_offsets, delta=False)
    dls_buf, dls_off = enc_many(dl, t_offsets, delta=False)

    # block-max metadata: blocks of BLOCK_SIZE within each term
    within = np.arange(n) - np.repeat(t_starts, df)
    if held is not None:
        within += np.repeat(held["df"], df)
    blk = within // BLOCK_SIZE
    new_blk = np.r_[True, blk[1:] != blk[:-1]]
    new_blk[t_starts] = True
    b_starts = np.flatnonzero(new_blk)
    blk_last = doc_id[np.r_[b_starts[1:], n] - 1]
    blk_maxtf = np.maximum.reduceat(tf, b_starts).astype(np.int32)
    blk_mindl = np.minimum.reduceat(dl, b_starts).astype(np.int32)
    blk_offsets = np.searchsorted(b_starts, t_offsets).astype(np.int32)
    if held is not None:
        fold = held["df"] % BLOCK_SIZE != 0
        first = blk_offsets[:-1][fold]
        blk_maxtf[first] = np.maximum(blk_maxtf[first], held["max_tf"][fold])
        blk_mindl[first] = np.minimum(blk_mindl[first], held["min_dl"][fold])

    cols: dict[str, pa.Array] = {
        "df": pa.array(df, type=pa.int64()),
        "total_tf": pa.array(np.add.reduceat(tf, t_starts), type=pa.int64()),
        "docs": _bin_array(docs_buf, docs_off),
        "tfs": _bin_array(tfs_buf, tfs_off),
        "dls": _bin_array(dls_buf, dls_off),
    }
    if pos_flat is not None:
        # per-term concatenated position bytes + per-doc byte lengths
        pos_buf, pos_byte_off = enc_many(pos_flat, pos_off, delta=True)
        plen_buf, plen_off = enc_many(np.diff(pos_byte_off), t_offsets, delta=False)
        cols["pos"] = _bin_array(pos_buf, pos_byte_off[t_offsets])
        cols["pos_lens"] = _bin_array(plen_buf, plen_off)
    blk_off = pa.array(blk_offsets, type=pa.int32())
    cols["blk_last_doc"] = pa.ListArray.from_arrays(blk_off, pa.array(blk_last, type=pa.int64()))
    cols["blk_max_tf"] = pa.ListArray.from_arrays(blk_off, pa.array(blk_maxtf, type=pa.int32()))
    cols["blk_min_dl"] = pa.ListArray.from_arrays(blk_off, pa.array(blk_mindl, type=pa.int32()))
    return cols


def shard_table(cols: dict[str, pa.Array], codec: str) -> tuple[pa.Table, dict]:
    """(shard table, manifest metrics) of finished columns, `term` first."""
    terms = cols["term"]
    metrics = {
        "codec": codec,
        "n_terms": len(terms),
        "n_postings": int(cols["df"].to_numpy().sum()),
        "total_tf": int(cols["total_tf"].to_numpy().sum()),
        "min_term": terms[0].as_py() if len(terms) else "",
        "max_term": terms[-1].as_py() if len(terms) else "",
    }
    # the codec travels WITH the shard (schema metadata) so readers
    # never depend on out-of-band configuration
    return pa.table(cols).replace_schema_metadata({b"msr_codec": codec.encode()}), metrics


def shard_paths(index_dir: str, shard_id: int) -> tuple[str, str]:
    d = os.path.join(index_dir, "shards")
    return (
        os.path.join(d, f"shard-{shard_id:05d}.feather"),
        os.path.join(d, f"shard-{shard_id:05d}.manifest.json"),
    )


def write_shard(group, *, index_dir: str, positional: bool, fingerprint: str, codec: str = "varint") -> pa.Table:
    """map_groups body: build + atomically write one shard; returns the
    manifest as a one-row table. `group` is the shard's posting rows
    (its `shard` column names the shard), or a ``(shard_id, build)``
    pair whose ``build()`` returns the finished (table, metrics) — the
    merge's term-level assembly. Skips (idempotent resume), without
    building, when a committed manifest with the same fingerprint
    exists."""
    if isinstance(group, pa.Table):
        shard_id = int(group["shard"][0].as_py())
        build = lambda: build_shard_table(group, positional=positional, codec=codec)
    else:
        shard_id, build = group
    fpath, mpath = shard_paths(index_dir, shard_id)
    os.makedirs(os.path.dirname(fpath), exist_ok=True)

    if os.path.exists(mpath):
        with open(mpath) as f:
            old = json.load(f)
        if old.get("fingerprint") == fingerprint and os.path.exists(fpath):
            old["status"] = "skipped"
            return _manifest_row(old)

    table, metrics = build()
    tmp = fpath + ".tmp"
    feather.write_feather(table, tmp, compression="uncompressed")
    os.replace(tmp, fpath)
    manifest = {
        "shard": shard_id,
        "fingerprint": fingerprint,
        "file": os.path.basename(fpath),
        "bytes": os.path.getsize(fpath),
        "status": "written",
        **metrics,
    }
    mtmp = mpath + ".tmp"
    with open(mtmp, "w") as f:
        json.dump(manifest, f)
    os.replace(mtmp, mpath)
    return _manifest_row(manifest)


def _manifest_row(m: dict) -> pa.Table:
    return pa.table(
        {
            "shard": pa.array([int(m["shard"])], type=pa.int32()),
            "n_terms": pa.array([int(m["n_terms"])], type=pa.int64()),
            "n_postings": pa.array([int(m["n_postings"])], type=pa.int64()),
            "total_tf": pa.array([int(m["total_tf"])], type=pa.int64()),
            "bytes": pa.array([int(m["bytes"])], type=pa.int64()),
            "status": pa.array([str(m["status"])]),
        }
    )


# -- reading -----------------------------------------------------------


def open_shard(index_dir: str, shard_id: int) -> pa.Table | None:
    """mmap a shard file zero-copy; None if the shard doesn't exist."""
    fpath, _ = shard_paths(index_dir, shard_id)
    if not os.path.exists(fpath):
        return None
    mm = pa.memory_map(fpath)
    return pa.ipc.open_file(mm).read_all()


def list_shards(index_dir: str) -> list[int]:
    d = os.path.join(index_dir, "shards")
    if not os.path.isdir(d):
        return []
    out = []
    for f in sorted(os.listdir(d)):
        if f.startswith("shard-") and f.endswith(".feather"):
            out.append(int(f[len("shard-") : -len(".feather")]))
    return out


def shard_codec(table: pa.Table) -> str:
    md = table.schema.metadata or {}
    return md.get(b"msr_codec", b"varint").decode()


def decode_posting_row(table: pa.Table, row: int, *, positional: bool = False) -> dict:
    """Decode one term's posting payloads into numpy arrays (codec
    dispatched from the shard's schema metadata)."""
    dec = single_decoder(shard_codec(table))
    docs = dec(table["docs"][row].as_py(), delta=True)
    tfs = dec(table["tfs"][row].as_py(), delta=False)
    dls = dec(table["dls"][row].as_py(), delta=False)
    out = {"doc_ids": docs, "tfs": tfs, "doc_lens": dls}
    if positional and "pos" in table.column_names:
        pos_buf = table["pos"][row].as_py()
        plens = dec(table["pos_lens"][row].as_py(), delta=False)
        byte_off = np.r_[0, np.cumsum(plens)]
        flat, val_off = MANY_CODECS[shard_codec(table)][1](pos_buf, byte_off, delta=True)
        out["positions"] = [flat[val_off[i] : val_off[i + 1]] for i in range(len(docs))]
    return out


def read_shard_as_dicts(index_dir: str, *, positional: bool = False):
    """Materialize the whole index (all shards) into plain dicts — the
    conformance-test API mirroring the reference's
    `getIndexSegment(Positional)ForTest`
    (`InvertedIndexManager.java:1570-1660`).

    Returns (postings, tfs, positions):
      postings:  {term: [doc_id, ...]} ascending
      tfs:       {(term, doc_id): tf}
      positions: {(term, doc_id): [pos, ...]} (positional only, else {})
    """
    postings: dict[str, list[int]] = {}
    tfs: dict[tuple[str, int], int] = {}
    positions: dict[tuple[str, int], list[int]] = {}
    for sid in list_shards(index_dir):
        t = open_shard(index_dir, sid)
        if t is None:
            continue
        for row in range(t.num_rows):
            term = t["term"][row].as_py()
            d = decode_posting_row(t, row, positional=positional)
            if term in postings:
                # salted sub-shards of the same term: merge by doc_id
                merged = np.sort(np.r_[postings[term], d["doc_ids"]])
                postings[term] = merged.tolist()
            else:
                postings[term] = d["doc_ids"].tolist()
            for i, doc in enumerate(d["doc_ids"]):
                tfs[(term, int(doc))] = int(d["tfs"][i])
                if positional and "positions" in d:
                    positions[(term, int(doc))] = d["positions"][i].tolist()
    return postings, tfs, positions
