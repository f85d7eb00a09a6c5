"""Deduplication stages: exact, MinHash+LSH, SimHash, n-gram Jaccard.

Training-data-pipeline operators (north-rule extensions; the reference
has no near-dup machinery — SURVEY §2.7). All hashing is deterministic
(fixed seeds), so results are reproducible across runs and parallelism
levels.

Scale shapes:
  exact         add hash col (map_batches) -> groupby(hash) keep-first.
                One narrow shuffle of (hash, id).
  minhash LSH   per-batch vectorized signatures -> explode to
                (band, band_hash, doc_id) -> groupby bands -> candidate
                pairs -> verify. Shuffle carries only band rows.
  simhash       per-batch 64-bit fingerprints; near-dup = small Hamming
                distance within LSH buckets over bit-bands.
  n-gram Jaccard exact verification kernel (and a bounded all-pairs
                variant for oracle-checkable small scopes).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_MIX = np.uint64(0x9E3779B97F4A7C15)
_TOKEN_HASH_CACHE: dict[str, int] = {}


def _token_hashes(values: pa.Array) -> np.ndarray:
    """Deterministic 64-bit hash per token, memoized on the token
    dictionary so each unique string is hashed once.

    The hash is the LOW 64 bits of md5 (last 8 digest bytes,
    little-endian) — chosen because it equals DuckDB's
    `md5_number_lower(tok)`, which lets the driver oracle replicate
    every sketch built on top (MinHash, SimHash, winnowing) in pure
    SQL."""
    from ..functions.hashing import md5_low64_str

    denc = values.dictionary_encode()
    codes = denc.indices.to_numpy(zero_copy_only=False)
    vocab = denc.dictionary.to_pylist()
    out = np.empty(len(vocab), dtype=np.uint64)
    cache = _TOKEN_HASH_CACHE
    for i, v in enumerate(vocab):
        h = cache.get(v)
        if h is None:
            h = md5_low64_str(v)
            if len(cache) < 2_000_000:
                cache[v] = h
        out[i] = h
    return out[codes]


def _shingle_hashes(token_hashes: np.ndarray, k: int) -> np.ndarray:
    """Polynomial combination of k consecutive token hashes (mod 2^64)."""
    n = len(token_hashes)
    if n < k:
        return token_hashes.copy() if n else token_hashes
    with np.errstate(over="ignore"):
        acc = np.zeros(n - k + 1, dtype=np.uint64)
        for j in range(k):
            acc = acc * _MIX + token_hashes[j : n - k + 1 + j]
    return acc


def _perm_params(num_perm: int, seed: int = 1234) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 2**63, size=num_perm, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    b = rng.integers(0, 2**63, size=num_perm, dtype=np.uint64)
    return a, b


def _doc_shingles(t: pa.Table, text_col: str, k: int):
    """-> (per-doc shingle-hash arrays aligned to rows)."""
    flat, off = _doc_shingles_flat(t, text_col, k)
    return [flat[off[i] : off[i + 1]] for i in range(len(off) - 1)]


def _doc_shingles_flat(t: pa.Table, text_col: str, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized shingle hashes for a whole batch: returns
    (flat shingle hashes, per-doc offsets[n+1]). One polynomial-mix pass
    over the full token-hash array; per-doc boundaries handled by
    masking out shingles that would span documents."""
    from .textstats import _split_tokens

    content = t[text_col].combine_chunks() if isinstance(t[text_col], pa.ChunkedArray) else t[text_col]
    parents, values = _split_tokens(content)
    n = t.num_rows
    if len(values) == 0:
        return np.empty(0, dtype=np.uint64), np.zeros(n + 1, dtype=np.int64)
    th = _token_hashes(values)
    starts = np.searchsorted(parents, np.arange(n + 1))
    tok_len = np.diff(starts)
    m = len(th)
    with np.errstate(over="ignore"):
        acc = np.zeros(max(m - k + 1, 0), dtype=np.uint64)
        for j in range(k):
            acc = acc * _MIX + th[j : m - k + 1 + j]
    # a shingle starting at position p is valid iff it stays inside p's doc
    owner = parents[: len(acc)]
    valid = owner == parents[np.minimum(np.arange(len(acc)) + k - 1, m - 1)]
    # docs shorter than k keep their single raw-token "shingles"
    # (parity with _shingle_hashes on short docs)
    short = tok_len < k
    n_sh = np.where(short, tok_len, np.maximum(tok_len - k + 1, 0))
    off = np.r_[0, np.cumsum(n_sh)].astype(np.int64)
    flat = np.empty(off[-1], dtype=np.uint64)
    vacc = acc[valid]
    vowner = owner[valid]
    # long docs: contiguous valid shingles per doc, in order
    long_docs = np.flatnonzero(~short)
    if len(vacc):
        pos = np.searchsorted(vowner, long_docs)
        cnt = np.searchsorted(vowner, long_docs, side="right") - pos
        idx = np.repeat(pos, cnt) + (
            np.arange(cnt.sum()) - np.repeat(np.r_[0, np.cumsum(cnt)[:-1]], cnt)
        )
        dst = np.repeat(off[long_docs], cnt) + (
            np.arange(cnt.sum()) - np.repeat(np.r_[0, np.cumsum(cnt)[:-1]], cnt)
        )
        flat[dst] = vacc[idx]
    for i in np.flatnonzero(short):
        flat[off[i] : off[i + 1]] = th[starts[i] : starts[i + 1]]
    return flat, off


MAX_U64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def minhash_batch(
    t: pa.Table,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 64,
    shingle_k: int = 3,
    seed: int = 1234,
) -> pa.Table:
    """Per-doc MinHash signatures: sig[p] = min over shingles s of
    (a_p * s + b_p mod 2^64); empty docs get all-MAX sentinels."""
    a, b = _perm_params(num_perm, seed)
    flat, off = _doc_shingles_flat(t, text_col, shingle_k)
    n = t.num_rows
    sig = np.full((n, num_perm), MAX_U64, dtype=np.uint64)
    nonempty = np.flatnonzero(np.diff(off) > 0)
    if len(flat):
        seg_starts = off[nonempty]
        with np.errstate(over="ignore"):
            for p in range(num_perm):  # one reduceat pass per permutation
                y = a[p] * flat + b[p]
                sig[nonempty, p] = np.minimum.reduceat(y, seg_starts)
    return pa.table(
        {
            id_col: t[id_col],
            "sig": pa.FixedSizeListArray.from_arrays(pa.array(sig.reshape(-1)), num_perm),
        }
    )


def lsh_band_batch(t: pa.Table, *, id_col: str = "doc_id", bands: int = 16, rows: int = 4) -> pa.Table:
    """Explode signatures into (band, band_hash, doc_id) rows."""
    sig_col = t["sig"].combine_chunks() if isinstance(t["sig"], pa.ChunkedArray) else t["sig"]
    num_perm = sig_col.type.list_size
    if bands * rows != num_perm:
        # a bare assert is stripped under -O and would silently band
        # only a prefix of the signature (recall loss, no error)
        raise ValueError(
            f"bands*rows ({bands}*{rows}) must equal num_perm ({num_perm})")
    sig = sig_col.values.to_numpy(zero_copy_only=False).reshape(-1, num_perm).astype(np.uint64)
    n = len(sig)
    with np.errstate(over="ignore"):
        band_hash = np.zeros((n, bands), dtype=np.uint64)
        for r in range(rows):
            band_hash = band_hash * _MIX + sig[:, np.arange(bands) * rows + r]
    ids = t[id_col].to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "band": pa.array(np.tile(np.arange(bands, dtype=np.int32), n)),
            "band_hash": pa.array(band_hash.reshape(-1).astype(np.int64)),  # reinterpret for groupby
            id_col: pa.array(np.repeat(ids, bands)),
        }
    )


def _pairs_in_band_block(t: pa.Table, id_col: str = "doc_id", max_bucket: int = 200) -> pa.Table:
    """All candidate pairs within each (band, band_hash) bucket of a
    range-sorted block: vectorized run detection; Python only touches
    the (few) colliding buckets. Buckets larger than `max_bucket` are
    truncated (quadratic blowup guard — a bucket that big means
    near-identical boilerplate; the kept prefix still links its
    members transitively). Schema-stable on empty blocks."""
    empty = pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    if t.num_rows == 0 or "band_hash" not in t.column_names:
        return empty
    band = t["band"].to_numpy(zero_copy_only=False).astype(np.int64)
    h = t["band_hash"].to_numpy(zero_copy_only=False)
    ids = t[id_col].to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, h, band))
    band, h, ids = band[order], h[order], ids[order]
    new_bucket = (band[1:] != band[:-1]) | (h[1:] != h[:-1])
    starts = np.flatnonzero(np.r_[True, new_bucket])
    ends = np.r_[starts[1:], len(h)]
    out_a, out_b = [], []
    # pre-filter: only colliding buckets reach the Python loop (a
    # mostly-unique block would otherwise pay one interpreter
    # iteration per singleton bucket)
    multi = np.flatnonzero((ends - starts) >= 2)
    for i in multi:
        s, e = starts[i], ends[i]
        members = np.unique(ids[s:e])[:max_bucket]
        if len(members) < 2:
            continue
        iu, ju = np.triu_indices(len(members), k=1)
        out_a.append(members[iu])
        out_b.append(members[ju])
    if not out_a:
        return empty
    return pa.table({"a": pa.array(np.concatenate(out_a)),
                     "b": pa.array(np.concatenate(out_b))})


def _dedup_sorted_pairs(t: pa.Table) -> pa.Table:
    """Drop duplicate (a, b) rows from a block of a (a, b)-sorted
    dataset (a pair's duplicates are co-located by the range sort)."""
    empty = pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    if t.num_rows == 0 or "a" not in t.column_names:
        return empty
    a = t["a"].to_numpy(zero_copy_only=False)
    b = t["b"].to_numpy(zero_copy_only=False)
    keep = np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])]
    return pa.table({"a": pa.array(a[keep]), "b": pa.array(b[keep])})


def minhash_candidate_pairs(ds, *, text_col="text", id_col="doc_id",
                            num_perm=64, shingle_k=3, bands=16, rows=4, seed=1234):
    """Dataset pipeline: docs -> signatures -> LSH bands -> candidate
    pairs (a < b, unique). Returns (pairs_ds, signatures_ds).

    Shuffle shape: one range sort on the full (band, band_hash) key —
    Ray's sample-based range partitioning yields balanced, elastic
    partitions (no per-band task ceiling, no unbounded groups) while
    keeping every hash bucket whole inside one partition (equal keys
    never straddle a sort boundary — the same invariant map_groups
    relies on). Each output block is then swept once by the vectorized
    run-detection pair generator; results are partitioning-independent.
    """
    sigs = ds.map_batches(
        lambda t: minhash_batch(t, text_col=text_col, id_col=id_col,
                                num_perm=num_perm, shingle_k=shingle_k, seed=seed),
        batch_format="pyarrow",
    )
    bands_ds = sigs.map_batches(
        lambda t: lsh_band_batch(t, id_col=id_col, bands=bands, rows=rows),
        batch_format="pyarrow",
    )
    pairs = bands_ds.sort(["band", "band_hash"]).map_batches(
        lambda t: _pairs_in_band_block(t, id_col), batch_size=None, batch_format="pyarrow"
    )
    # candidate pairs are small (bounded by collisions); materialize so
    # the emptiness check and the dedupe don't re-run the pipeline
    pairs = pairs.materialize()
    if pairs.count() == 0:
        return pairs, sigs
    deduped = pairs.sort(["a", "b"]).map_batches(
        _dedup_sorted_pairs, batch_size=None, batch_format="pyarrow"
    )
    return deduped, sigs


def verify_pairs_jaccard(
    ds, pairs, *, text_col: str = "text", id_col: str = "doc_id", k: int = 3,
    join_partitions: int | None = None,
):
    """EXACT k-shingle Jaccard for candidate pairs — the verification
    stage after LSH — as a DISTRIBUTED shingle-equality join (the same
    join the `dedup_near_jaccard` SQL oracle models), with NO
    driver-side materialization anywhere (on a mirrored-dump corpus
    LSH candidates can be O(N * degree), so even the pair list must
    stay a Dataset):

      1. explode pairs to (jdoc, a, b) member rows — 2 per pair.
      2. shingle the corpus into DISTINCT (doc, sh) rows (one
         vectorized pass; docs in no pair die in the join sweep).
      3. ``sort_merge_join`` member rows against shingle rows on the
         doc id -> (a, b, sh): one narrow int64 range sort is the only
         corpus-sized shuffle.  A doc in several pairs replicates its
         shingles per pair inside the join block (bounded by its LSH
         candidate degree — inherent to per-pair verification).
      4. sorted reduceat reductions keyed by the PAIR (a, b):
         count(a,b,sh) == 2 iff BOTH members hold the shingle
         (members are distinct docs with distinct per-doc shingles)
         -> |intersection|; count per (a,b) -> |union|.
      5. LEFT-join pairs back so pairs absent from the reductions
         (both members shingle-less) surface with jaccard = 1.0
         (empty-vs-empty parity with `exact_jaccard_tokens`).

    `pairs`: Dataset (or small Table/DataFrame) with columns a, b —
    rows must be DISTINCT (a, b) combinations with a != b, which the
    LSH candidate stage guarantees (`_dedup_sorted_pairs`); a repeated
    pair would double its shingles' counts and corrupt the cnt == 2
    intersection marker.  Returns a DATASET with columns (a, b,
    jaccard) — consume it streaming; nothing pair-sized ever lands on
    the driver.  ``join_partitions`` forwards to the member-shingle
    ``sort_merge_join``'s coalesce knob (size to rows/target-block-rows
    when the corpus read produces many small blocks).
    """
    import ray.data as rd
    import pyarrow.compute as pc

    from .aggregates import sorted_groupby_agg
    from .join import sort_merge_join

    if hasattr(pairs, "to_pandas") and not isinstance(pairs, rd.Dataset):
        pairs = pa.Table.from_pandas(pairs.to_pandas(), preserve_index=False)
    if isinstance(pairs, pa.Table):
        pairs = rd.from_arrow(pairs.select(["a", "b"]))

    pair_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])
    empty_out = pa.table({"a": pa.array([], pa.int64()),
                          "b": pa.array([], pa.int64()),
                          "jaccard": pa.array([], pa.float64())})

    def explode(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "a" not in t.column_names:
            return pa.table({"jdoc": pa.array([], pa.int64())}).append_column(
                "a", pa.array([], pa.int64())).append_column(
                "b", pa.array([], pa.int64()))
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"jdoc": pa.array(np.r_[a, b]),
                         "a": pa.array(np.r_[a, a]),
                         "b": pa.array(np.r_[b, b])})

    def shingle_rows(t: pa.Table) -> pa.Table:
        empty = pa.table({"doc": pa.array([], pa.int64()),
                          "sh": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        flat, off = _doc_shingles_flat(t, text_col, k)
        if len(flat) == 0:
            return empty
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        # per-doc DISTINCT shingles, vectorized: lexsort (doc, sh) and
        # keep the first of each adjacent-equal run
        doc_idx = np.repeat(np.arange(t.num_rows), np.diff(off))
        sh = flat.view(np.int64)
        order = np.lexsort((sh, doc_idx))
        d, s = doc_idx[order], sh[order]
        keep = np.r_[True, (d[1:] != d[:-1]) | (s[1:] != s[:-1])]
        return pa.table({"doc": pa.array(ids[d[keep]]),
                         "sh": pa.array(s[keep])})

    members = pairs.map_batches(explode, batch_format="pyarrow")
    shingles = ds.map_batches(shingle_rows, batch_format="pyarrow")
    joined = sort_merge_join(
        members, shingles, on="jdoc", right_on="doc", how="inner",
        left_schema=pa.schema([("jdoc", pa.int64()), ("a", pa.int64()),
                               ("b", pa.int64())]),
        right_schema=pa.schema([("doc", pa.int64()), ("sh", pa.int64())]),
        # the union's block count is corpus-blocks + pair-blocks; Ray's
        # range sort makes #blocks^2 shuffle objects, so let callers
        # size this to the data (see sort_merge_join's partitions doc)
        partitions=join_partitions,
    ).select_columns(["a", "b", "sh"])

    per_sh = sorted_groupby_agg(joined, ["a", "b", "sh"],
                                [("sh", "count", "cnt")])

    def flags(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "a" not in t.column_names:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "is_inter": pa.array([], pa.int64())})
        return pa.table({
            "a": t["a"], "b": t["b"],
            "is_inter": pc.cast(pc.equal(t["cnt"], 2), pa.int64()),
        })

    agg = sorted_groupby_agg(
        per_sh.map_batches(flags, batch_size=None, batch_format="pyarrow"),
        ["a", "b"],
        [("a", "count", "union_n"), ("is_inter", "sum", "inter_n")],
    )
    # LEFT join so shingle-less pairs surface (jaccard = 1.0); both
    # sides of this join are pair-sized
    back = sort_merge_join(
        pairs, agg, on=["a", "b"], how="left",
        left_schema=pair_schema,
        right_schema=pa.schema([("a", pa.int64()), ("b", pa.int64()),
                                ("union_n", pa.int64()),
                                ("inter_n", pa.int64())]),
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "a" not in t.column_names:
            return empty_out
        u = pc.fill_null(t["union_n"], 0).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        i = pc.fill_null(t["inter_n"], 0).to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        # union_n is a count (>= 1) wherever the pair matched; 0 means
        # the left join found no shingles on either side -> 1.0
        jac = np.where(u > 0, i / np.maximum(u, 1), 1.0)
        return pa.table({"a": t["a"], "b": t["b"], "jaccard": pa.array(jac)})

    return back.map_batches(finish, batch_size=None, batch_format="pyarrow")


def exact_jaccard_tokens(text_a: str, text_b: str, k: int = 3) -> float:
    """Exact k-token-shingle Jaccard (verification kernel)."""
    t = pa.table({"t": pa.array([text_a, text_b], type=pa.large_string())})
    sh = _doc_shingles(t, "t", k)
    sa, sb = set(sh[0].tolist()), set(sh[1].tolist())
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def simhash_batch(
    t: pa.Table, *, text_col: str = "text", id_col: str = "doc_id"
) -> pa.Table:
    """64-bit SimHash over token hashes weighted by tf."""
    from .textstats import _split_tokens

    content = t[text_col].combine_chunks() if isinstance(t[text_col], pa.ChunkedArray) else t[text_col]
    parents, values = _split_tokens(content)
    n = t.num_rows
    out = np.zeros(n, dtype=np.uint64)
    if len(values):
        th = _token_hashes(values)
        # int8 bit matrix: 8x smaller transient than int64 (1M tokens:
        # 64 MB instead of 512 MB per intermediate)
        signed = ((th[:, None] >> np.arange(64, dtype=np.uint64)[None, :])
                  & np.uint64(1)).astype(np.int8)
        signed <<= 1
        signed -= 1  # in place -> {-1, +1}, no second matrix
        acc = np.zeros((n, 64), dtype=np.int64)
        np.add.at(acc, parents, signed)
        fp_bits = (acc > 0).astype(np.uint64)
        out = (fp_bits << np.arange(64, dtype=np.uint64)[None, :]).sum(axis=1, dtype=np.uint64)
    return pa.table(
        {
            id_col: t[id_col],
            "simhash": pa.array(out.astype(np.int64)),  # reinterpret to int64 for parquet/duckdb
        }
    )


def dedup_exact(ds, *, text_col: str = "text", id_col: str = "doc_id"):
    """Exact dedup: md5(text) -> keep the min doc_id per hash. Returns
    a Dataset (content_hash, keep_id, n_dups). One narrow shuffle of
    (hash, id) rows into a sorted reduceat reduction — no per-group
    (or per-row) Python anywhere: at 10^9 mostly-unique docs both a
    per-group pandas map_groups AND the native groupby().aggregate()
    combine (per-row Python) are ruinous (see stages/aggregates.py)."""
    from .aggregates import sorted_groupby_agg

    def add_hash(t: pa.Table) -> pa.Table:
        from ..functions.hashing import md5_hex_batch

        h = md5_hex_batch(t[text_col].to_pylist())
        return pa.table({"content_hash": pa.array(h), id_col: t[id_col]})

    out = sorted_groupby_agg(
        ds.map_batches(add_hash, batch_format="pyarrow"),
        ["content_hash"],
        [(id_col, "min", "keep_id"), (id_col, "count", "n_dups")],
    )

    def fix(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "content_hash": t["content_hash"],
                "keep_id": pc.cast(t["keep_id"], pa.int64()),
                "n_dups": pc.cast(t["n_dups"], pa.int64()),
            }
        )

    return out.map_batches(fix, batch_format="pyarrow")


def connected_components(pairs_ds, *, a_col: str = "a", b_col: str = "b",
                         max_iter: int = 64):
    """Transitive near-dup clustering: given an undirected pair list
    (e.g. Jaccard-verified LSH candidates), label every involved node
    with its component id = the MINIMUM doc_id reachable from it.
    Returns a Dataset (node, component), one row per distinct node.

    The canonical LLM-pipeline step AFTER pair verification: mirrored
    dumps chain A~B~C where (A,C) was never a candidate pair — keeping
    one doc per PAIR over-keeps; one per COMPONENT is the actual
    dedup contract.

    Distributed min-label propagation:
      seed     comp(n) = min(n, min neighbor) — one sorted reduction.
      iterate  cogroup labels with the (directed-both-ways) edge list
               on a single range sort (equal keys never straddle a
               sort partition — the map_groups invariant), sweep each
               block vectorized to emit (neighbor, my_comp) + (self,
               my_comp), then a second sorted min-reduction on node ->
               new labels. Both reductions use `sorted_groupby_agg`
               (sort + reduceat), NOT native groupby().aggregate():
               the native combine is per-row Python and measured ~60x
               slower at these key cardinalities (one group per node).
      stop     labels only ever DECREASE, so sum(comp) strictly
               decreases iff any label changed — a scalar aggregate
               per iteration is the whole convergence check (no
               driver-side diff of label tables).

    Rounds needed = O(log diameter) with the pointer-jump rows
    (near-dup components are quasi-cliques from LSH buckets, so 2-4
    in practice; `max_iter` guards pathological chains). Per round:
    two sorts over (nodes + 2·pairs) rows — output-sized, never
    corpus-sized."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .aggregates import sorted_groupby_agg

    def both_dirs(t: pa.Table) -> pa.Table:
        a = t[a_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t[b_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"src": pa.array(np.r_[a, b]), "dst": pa.array(np.r_[b, a])})

    edges = pairs_ds.map_batches(both_dirs, batch_format="pyarrow").materialize()
    if edges.count() == 0:
        return rd.from_arrow(
            pa.table({"node": pa.array([], pa.int64()),
                      "component": pa.array([], pa.int64())})
        )

    def seed_fix(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "src" not in t.column_names:
            return pa.table({"node": pa.array([], pa.int64()),
                             "comp": pa.array([], pa.int64())})
        n = t["src"].to_numpy(zero_copy_only=False)
        m = t["min_dst"].to_numpy(zero_copy_only=False)
        return pa.table({"node": pa.array(n), "comp": pa.array(np.minimum(n, m))})

    labels = (
        sorted_groupby_agg(edges, ["src"], [("dst", "min", "min_dst")])
        .map_batches(seed_fix, batch_format="pyarrow")
        .materialize()
    )

    def tag_labels(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({"key": t["node"], "t": pa.array(np.zeros(n, dtype=np.int8)),
                         "comp": t["comp"], "dst": pa.array(np.zeros(n, dtype=np.int64))})

    def tag_edges(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({"key": t["src"], "t": pa.array(np.ones(n, dtype=np.int8)),
                         "comp": pa.array(np.zeros(n, dtype=np.int64)), "dst": t["dst"]})

    def tag_jumps(t: pa.Table) -> pa.Table:
        """Pointer-jumping rows: ask my CURRENT component for ITS
        component (key=comp, deliver to dst=node) — contracts label
        chains by halving, so convergence is O(log longest_chain)
        rather than O(diameter); comp values are always seeded node
        ids, so the keyed run exists."""
        n = t.num_rows
        return pa.table({"key": t["comp"], "t": pa.array(np.ones(n, dtype=np.int8)),
                         "comp": pa.array(np.zeros(n, dtype=np.int64)), "dst": t["node"]})

    def sweep(t: pa.Table) -> pa.Table:
        empty = pa.table({"node": pa.array([], pa.int64()),
                          "cand": pa.array([], pa.int64())})
        if t.num_rows == 0 or "key" not in t.column_names:
            return empty
        key = t["key"].to_numpy(zero_copy_only=False)
        tt = t["t"].to_numpy(zero_copy_only=False)
        comp = t["comp"].to_numpy(zero_copy_only=False)
        dst = t["dst"].to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        run_of = np.cumsum(np.r_[0, (key[1:] != key[:-1]).astype(np.int64)])
        # default to the node's own id — a run with no state row (can't
        # happen: every edge src is seeded) degrades to self-labeling
        comp_run = key[starts].astype(np.int64, copy=True)
        is_state = tt == 0
        comp_run[run_of[is_state]] = comp[is_state]
        is_edge = ~is_state
        return pa.table({
            "node": pa.array(np.r_[dst[is_edge], key[starts]]),
            "cand": pa.array(np.r_[comp_run[run_of[is_edge]], comp_run]),
        })

    edge_rows = edges.map_batches(tag_edges, batch_format="pyarrow").materialize()
    # pin the label partition count: union adds blocks and sort/groupby
    # preserve them, so WITHOUT this the block count doubles per
    # iteration and scheduling overhead grows exponentially (observed:
    # 1.7s -> 184s by iteration 11 on a 1000-node graph)
    n_parts = max(1, edge_rows.num_blocks())
    prev_sum = labels.aggregate(Sum("comp"))["sum(comp)"]
    for _ in range(max_iter):
        propagated = (
            labels.map_batches(tag_labels, batch_format="pyarrow")
            .union(edge_rows)
            .union(labels.map_batches(tag_jumps, batch_format="pyarrow"))
            .sort("key")
            .map_batches(sweep, batch_size=None, batch_format="pyarrow")
        )
        labels = (
            sorted_groupby_agg(propagated, ["node"], [("cand", "min", "comp")])
            .repartition(n_parts)
            .materialize()
        )
        cur_sum = labels.aggregate(Sum("comp"))["sum(comp)"]
        if cur_sum == prev_sum:
            break
        prev_sum = cur_sum
    else:
        import logging

        logging.getLogger(__name__).warning(
            "connected_components: no fixpoint after %d iterations", max_iter
        )

    def rename(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["node"], "component": t["comp"]})

    return labels.map_batches(rename, batch_format="pyarrow")


def near_dup_clusters(ds, *, text_col: str = "text", id_col: str = "doc_id",
                      threshold: float = 0.8, **lsh_kwargs):
    """The full near-dedup contract end to end: MinHash LSH candidate
    pairs -> exact k-shingle Jaccard verification (distributed
    shingle-equality join) -> keep pairs with jaccard >= `threshold`
    -> transitive connected components. Returns a Dataset
    (node, component): one row per doc involved in a surviving pair,
    labeled with the MIN doc_id reachable from it. The dedup policy is
    then "keep doc iff it never appears as a node, or node ==
    component" — one survivor per transitive cluster, not per pair
    (pairs over-keep on chained mirrors A~B~C where (A, C) was never
    an LSH candidate)."""
    pairs, _ = minhash_candidate_pairs(
        ds.select_columns([id_col, text_col]),
        text_col=text_col, id_col=id_col, **lsh_kwargs,
    )
    verified = verify_pairs_jaccard(ds, pairs, text_col=text_col, id_col=id_col)

    thr = float(threshold)

    def keep_pairs(t: pa.Table) -> pa.Table:
        empty = pa.table({"a": pa.array([], pa.int64()),
                          "b": pa.array([], pa.int64())})
        if t.num_rows == 0 or "a" not in t.column_names:
            return empty
        return t.filter(pc.greater_equal(t["jaccard"], pa.scalar(thr))) \
            .select(["a", "b"])

    return connected_components(
        verified.map_batches(keep_pairs, batch_size=None, batch_format="pyarrow"))


def dup_passage_stats(ds, *, n: int = 3, text_col: str = "text",
                      id_col: str = "doc_id"):
    """CROSS-document duplicate-passage signal (Lee et al. 2022,
    "Deduplicating Training Data Makes Language Models Better"): per
    document, the count and fraction of its token n-gram occurrences
    whose gram also appears in at least one OTHER document — the
    remove-duplicated-passages gate, complementing the WITHIN-doc
    `doc_repetition_stats`.

    Scale shape: each batch explodes to (doc_id, gram-HASH) rows where
    the hash is md5-low-64 of the space-joined gram — the occurrence
    shuffle carries one uint64 per gram, never gram text, and DuckDB's
    ``md5_number_lower`` replays it exactly, collisions included.  ONE
    range sort by hash groups equal grams (Ray's sort invariant keeps
    equal keys in one block); a per-block lexsort sweep flags runs
    spanning ≥2 distinct docs and reduces to per-(block, doc) dup
    counts.  Those partials UNION with per-batch total-gram partials
    (one bincount per batch) into a single doc-keyed grouped sum — so
    the only data-sized exchanges are the hash sort and nothing else.
    Docs with fewer than ``n`` tokens emit (0, 0, 0.0).  Returns
    (id_col, n_grams, n_dup, dup_frac)."""
    from ..functions.hashing import md5_low64_batch
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.textstats import _split_tokens, ngram_strings

    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"n must be a positive int, got {n!r}")

    def _doc_ids(t: pa.Table) -> np.ndarray:
        ids = t[id_col]
        ids = ids.combine_chunks() if isinstance(ids, pa.ChunkedArray) \
            else ids
        return ids.to_numpy(zero_copy_only=False).astype(np.int64)

    def explode(t: pa.Table) -> pa.Table:
        content = t[text_col]
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        parents, values = _split_tokens(content)
        gp, grams = ngram_strings(parents, values, n)
        if len(gp) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "h": pa.array([], pa.uint64())})
        ids = _doc_ids(t)
        h = md5_low64_batch(grams.to_pylist())
        return pa.table({id_col: pa.array(ids[gp]), "h": pa.array(h)})

    def totals(t: pa.Table) -> pa.Table:
        content = t[text_col]
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        parents, values = _split_tokens(content)
        gp, _ = ngram_strings(parents, values, n)
        cnt = np.bincount(gp, minlength=t.num_rows).astype(np.int64)
        return pa.table({id_col: pa.array(_doc_ids(t)),
                         "g": pa.array(cnt),
                         "d": pa.array(np.zeros(t.num_rows, np.int64))})

    def dup_sweep(t: pa.Table) -> pa.Table:
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "g": pa.array([], pa.int64()),
                          "d": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        h = t["h"].to_numpy(zero_copy_only=False)
        ids = _doc_ids(t)
        order = np.lexsort((ids, h))
        hs, ds_ = h[order], ids[order]
        m = len(hs)
        run_brk = hs[1:] != hs[:-1]
        run_id = np.cumsum(np.r_[0, run_brk.astype(np.int64)])
        # a run is "duplicated" iff it spans >= 2 distinct docs: count
        # doc-change boundaries inside each run
        doc_chg = np.r_[False, (~run_brk) & (ds_[1:] != ds_[:-1])]
        n_runs = run_id[-1] + 1
        chg_per_run = np.bincount(run_id, weights=doc_chg,
                                  minlength=n_runs)
        dup_row = chg_per_run[run_id] > 0
        if not dup_row.any():
            return empty
        vc = pa.array(ds_[dup_row]).value_counts()
        docs = vc.field("values")
        return pa.table({id_col: docs,
                         "g": pa.array(np.zeros(len(docs), np.int64)),
                         "d": vc.field("counts").cast(pa.int64())})

    exploded = ds.map_batches(explode, batch_format="pyarrow")
    dup_partials = exploded.sort("h").map_batches(
        dup_sweep, batch_size=None, batch_format="pyarrow")
    tot_partials = ds.map_batches(totals, batch_format="pyarrow")
    agg = sorted_groupby_agg(
        tot_partials.union(dup_partials), [id_col],
        [("g", "sum", "n_grams"), ("d", "sum", "n_dup")],
        in_schema=pa.schema([(id_col, pa.int64()), ("g", pa.int64()),
                             ("d", pa.int64())]))

    def fin(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column("dup_frac", pa.array([], pa.float64()))
        g = t["n_grams"].to_numpy(zero_copy_only=False).astype(np.float64)
        d = t["n_dup"].to_numpy(zero_copy_only=False).astype(np.float64)
        frac = np.divide(d, g, out=np.zeros_like(d), where=g > 0)
        return t.append_column("dup_frac", pa.array(frac))

    return agg.map_batches(fin, batch_format="pyarrow")


def remove_dup_passages(ds, *, n: int = 3, policy: str = "keep_first",
                        text_col: str = "text", id_col: str = "doc_id",
                        join_partitions: int | None = None):
    """Duplicate-passage REMOVAL — the action step of the Lee et al.
    2022 family whose signal ``dup_passage_stats`` measures: rewrite
    each document's token stream dropping every token covered by a
    cross-document duplicated n-gram occurrence.

    Policies (both SQL-replayable):
      ``keep_first``  the globally first occurrence of each duplicated
                      gram — lexicographic min (doc_id, position) —
                      keeps its tokens (unless covered by ANOTHER
                      removed occurrence); all later occurrences are
                      removed.  SQL: ``row_number() OVER (PARTITION BY
                      h ORDER BY doc_id, p) > 1``.
      ``drop_all``    every occurrence of a duplicated gram is removed
                      everywhere.

    The rewrite is over the NORMALIZED token stream (Java-trim +
    lower + punctuation split, the same ``_split_tokens`` every text
    operator shares): ``text_clean`` is the space-join of the kept
    tokens, '' when nothing survives.  Returns
    (id_col, text_clean, n_tokens, n_removed) — one row per input doc.

    Scale shape: three exchanges total.  (1) the same narrow
    (doc_id, position, uint64-gram-hash) sort ``dup_passage_stats``
    uses — equal hashes land in one block (Ray's sort invariant), a
    per-block lexsort sweep emits removal starts; (2) removal starts
    (two int64s/row) sort by doc and pack into one (doc, starts-list)
    row per doc; (3) one ``sort_merge_join`` co-locates each document
    with its packed starts — the only corpus-sized exchange, the same
    class as every other doc-keyed join here.  The rewrite itself is a
    pure vectorized map: one difference-array coverage pass + one
    Arrow filter/list-join per batch, no per-row Python."""
    from ..functions.hashing import md5_low64_batch
    from ..stages.aggregates import static_schema
    from ..stages.join import sort_merge_join
    from ..stages.textstats import _split_tokens, ngram_strings

    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"n must be a positive int, got {n!r}")
    if policy not in ("keep_first", "drop_all"):
        raise ValueError(f"policy must be keep_first|drop_all, got {policy!r}")

    docs = ds.select_columns([id_col, text_col]) \
        if set(ds.schema().base_schema.names) - {id_col, text_col} else ds
    keep_first = policy == "keep_first"

    def _ids_np(t: pa.Table) -> np.ndarray:
        ids = t[id_col]
        ids = ids.combine_chunks() if isinstance(ids, pa.ChunkedArray) else ids
        return ids.to_numpy(zero_copy_only=False).astype(np.int64)

    _occ_schema = pa.schema([(id_col, pa.int64()), ("p", pa.int64()),
                             ("h", pa.uint64())])
    _rem_schema = pa.schema([(id_col, pa.int64()), ("p", pa.int64())])

    def explode(t: pa.Table) -> pa.Table:
        content = t[text_col]
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        parents, values = _split_tokens(content)
        gp, grams = ngram_strings(parents, values, n)
        if len(gp) == 0:
            return _occ_schema.empty_table()
        # 0-based gram start WITHIN its doc: flat position minus the
        # doc's first flat token position
        counts = np.bincount(parents, minlength=t.num_rows).astype(np.int64)
        doc_off = np.r_[np.int64(0), np.cumsum(counts)]
        # ngram_strings keeps the gram at flat position q iff tokens
        # q..q+n-1 share a parent, so q indexes the flat token stream
        total = len(parents)
        flat_q = np.flatnonzero(parents[:total - n + 1] ==
                                parents[n - 1:]) if total >= n \
            else np.empty(0, np.int64)
        ids = _ids_np(t)
        h = md5_low64_batch(grams.to_pylist())
        return pa.table({id_col: pa.array(ids[gp]),
                         "p": pa.array(flat_q - doc_off[gp]),
                         "h": pa.array(h)}, schema=_occ_schema)

    def rem_sweep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _rem_schema.empty_table()
        h = t["h"].to_numpy(zero_copy_only=False)
        ids = _ids_np(t)
        ps = t["p"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ps, ids, h))
        hs, ds_, ps_ = h[order], ids[order], ps[order]
        run_brk = hs[1:] != hs[:-1]
        run_id = np.cumsum(np.r_[0, run_brk.astype(np.int64)])
        doc_chg = np.r_[False, (~run_brk) & (ds_[1:] != ds_[:-1])]
        chg_per_run = np.bincount(run_id, weights=doc_chg,
                                  minlength=run_id[-1] + 1)
        remove = chg_per_run[run_id] > 0
        if keep_first:
            remove &= ~np.r_[True, run_brk]       # run's (doc,p)-min stays
        if not remove.any():
            return _rem_schema.empty_table()
        return pa.table({id_col: pa.array(ds_[remove]),
                         "p": pa.array(ps_[remove])}, schema=_rem_schema)

    def pack(t: pa.Table) -> pa.Table:
        packed = pa.schema([(id_col, pa.int64()),
                            ("starts", pa.list_(pa.int64()))])
        if t.num_rows == 0:
            return packed.empty_table()
        ids = _ids_np(t)
        ps = t["p"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ps, ids))
        ids, ps = ids[order], ps[order]
        starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        offs = np.r_[starts, len(ids)].astype(np.int64)
        return pa.table({
            id_col: pa.array(ids[starts]),
            "starts": pa.ListArray.from_arrays(
                pa.array(offs).cast(pa.int32()), pa.array(ps)),
        }, schema=packed)

    removals = (docs.map_batches(explode, batch_format="pyarrow")
                .sort("h")
                .map_batches(rem_sweep, batch_size=None,
                             batch_format="pyarrow")
                .sort(id_col)
                .map_batches(pack, batch_size=None, batch_format="pyarrow"))

    d_schema = static_schema(docs) or docs.schema().base_schema
    joined = sort_merge_join(
        docs, removals, id_col, how="left",
        left_schema=pa.schema([(id_col, d_schema.field(id_col).type),
                               (text_col, d_schema.field(text_col).type)]),
        right_schema=pa.schema([(id_col, pa.int64()),
                                ("starts", pa.list_(pa.int64()))]),
        partitions=join_partitions)

    out_schema = pa.schema([(id_col, pa.int64()),
                            ("text_clean", pa.string()),
                            ("n_tokens", pa.int64()),
                            ("n_removed", pa.int64())])

    def rewrite(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        content = t[text_col]
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        parents, values = _split_tokens(content)
        counts = np.bincount(parents, minlength=t.num_rows).astype(np.int64)
        doc_off = np.r_[np.int64(0), np.cumsum(counts)]
        total = int(doc_off[-1])
        scol = t["starts"]
        scol = scol.combine_chunks() if isinstance(scol, pa.ChunkedArray) \
            else scol
        sparents = pc.list_parent_indices(scol).to_numpy(zero_copy_only=False)
        svals = pc.list_flatten(scol).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        covered = np.zeros(total, dtype=bool)
        if len(svals):
            buf = np.zeros(total + 1, dtype=np.int64)
            gpos = doc_off[sparents] + svals
            np.add.at(buf, gpos, 1)
            np.add.at(buf, np.minimum(gpos + n, total), -1)
            covered = np.cumsum(buf[:total]) > 0
        keep = ~covered
        kept_counts = np.bincount(parents[keep],
                                  minlength=t.num_rows).astype(np.int64)
        kept_vals = values.filter(pa.array(keep))
        offs = np.r_[np.int64(0), np.cumsum(kept_counts)]
        clean = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(offs).cast(pa.int32()),
                                     kept_vals),
            pa.scalar(" "))
        return pa.table({
            id_col: pc.cast(t[id_col], pa.int64()),
            "text_clean": clean,
            "n_tokens": pa.array(counts),
            "n_removed": pa.array(counts - kept_counts),
        }, schema=out_schema)

    return joined.map_batches(rewrite, batch_size=None,
                              batch_format="pyarrow")


def cross_split_gram_stats(ds, *, n: int = 3, split_col: str = "split",
                           probe: str = "test", reference: str = "train",
                           text_col: str = "text", id_col: str = "doc_id"):
    """Train/test LEAKAGE report: per PROBE-split document, the count
    and fraction of its token n-gram occurrences whose gram also
    appears in at least one REFERENCE-split document — the measurement
    behind every "dedup the test set against train" decision (the
    probe/reference asymmetry is what distinguishes this from
    :func:`dup_passage_stats`, which flags ANY cross-doc repeat).

    Scale shape (same plan as the dup-passage family): rows outside
    the two splits are dropped at the explode; each batch explodes to
    (doc_id, gram-hash, is_ref) rows — one uint64 + one int per gram,
    never gram text, ``md5_number_lower``-replayable; ONE range sort
    by hash; a per-block sweep flags runs containing ≥1 reference row
    and reduces probe rows to per-(block, doc) leak counts; partials
    union with per-batch probe-total partials into one doc-keyed
    grouped sum.  Probe docs with fewer than ``n`` tokens emit
    (0, 0, 0.0).  Returns (id_col, n_grams, n_leaked, leak_frac) for
    PROBE docs only."""
    from ..functions.hashing import md5_low64_batch
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.textstats import _split_tokens, ngram_strings

    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"n must be a positive int, got {n!r}")
    if probe == reference:
        raise ValueError("probe and reference splits must differ")

    def _doc_ids(t: pa.Table) -> np.ndarray:
        ids = t[id_col]
        ids = ids.combine_chunks() if isinstance(ids, pa.ChunkedArray) \
            else ids
        return ids.to_numpy(zero_copy_only=False).astype(np.int64)

    def _splits(t: pa.Table) -> np.ndarray:
        sp = t[split_col]
        sp = sp.combine_chunks() if isinstance(sp, pa.ChunkedArray) else sp
        return sp.to_numpy(zero_copy_only=False)

    def explode(t: pa.Table) -> pa.Table:
        content = t[text_col]
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        parents, values = _split_tokens(content)
        gp, grams = ngram_strings(parents, values, n)
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "h": pa.array([], pa.uint64()),
                          "r": pa.array([], pa.int64())})
        if len(gp) == 0:
            return empty
        sp = _splits(t)
        is_ref = (sp == reference)
        keep = is_ref[gp] | (sp == probe)[gp]
        if not keep.any():
            return empty
        gp = gp[keep]
        h = md5_low64_batch(grams.filter(pa.array(keep)).to_pylist())
        ids = _doc_ids(t)
        return pa.table({id_col: pa.array(ids[gp]), "h": pa.array(h),
                         "r": pa.array(is_ref[gp].astype(np.int64))})

    def totals(t: pa.Table) -> pa.Table:
        content = t[text_col]
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        parents, values = _split_tokens(content)
        gp, _ = ngram_strings(parents, values, n)
        cnt = np.bincount(gp, minlength=t.num_rows).astype(np.int64)
        is_probe = _splits(t) == probe
        ids = _doc_ids(t)[is_probe]
        return pa.table({id_col: pa.array(ids),
                         "g": pa.array(cnt[is_probe]),
                         "d": pa.array(np.zeros(len(ids), np.int64))})

    def leak_sweep(t: pa.Table) -> pa.Table:
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "g": pa.array([], pa.int64()),
                          "d": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        h = t["h"].to_numpy(zero_copy_only=False)
        ids = _doc_ids(t)
        r = t["r"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ids, h))
        hs, ds_, rs = h[order], ids[order], r[order]
        run_brk = hs[1:] != hs[:-1]
        run_id = np.cumsum(np.r_[0, run_brk.astype(np.int64)])
        n_runs = run_id[-1] + 1
        ref_per_run = np.bincount(run_id, weights=rs, minlength=n_runs)
        leaked = (ref_per_run[run_id] > 0) & (rs == 0)
        if not leaked.any():
            return empty
        vc = pa.array(ds_[leaked]).value_counts()
        docs = vc.field("values")
        return pa.table({id_col: docs,
                         "g": pa.array(np.zeros(len(docs), np.int64)),
                         "d": vc.field("counts").cast(pa.int64())})

    exploded = ds.map_batches(explode, batch_format="pyarrow")
    leak_partials = exploded.sort("h").map_batches(
        leak_sweep, batch_size=None, batch_format="pyarrow")
    tot_partials = ds.map_batches(totals, batch_format="pyarrow")
    agg = sorted_groupby_agg(
        tot_partials.union(leak_partials), [id_col],
        [("g", "sum", "n_grams"), ("d", "sum", "n_leaked")],
        in_schema=pa.schema([(id_col, pa.int64()), ("g", pa.int64()),
                             ("d", pa.int64())]))

    def fin(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column("leak_frac", pa.array([], pa.float64()))
        g = t["n_grams"].to_numpy(zero_copy_only=False).astype(np.float64)
        d = t["n_leaked"].to_numpy(zero_copy_only=False).astype(np.float64)
        frac = np.divide(d, g, out=np.zeros_like(d), where=g > 0)
        return t.append_column("leak_frac", pa.array(frac))

    return agg.map_batches(fin, batch_format="pyarrow")


def incremental_dedup_drops(ds, *, new_pred, text_col: str = "text",
                            id_col: str = "doc_id",
                            threshold: float = 0.8, **lsh_kwargs):
    """Incremental near-dedup — the "dedup the new crawl against the
    existing corpus" production pattern: only NEW documents can be
    dropped, and OLD×OLD pairs are never even verified.

    ``new_pred``: vectorized predicate ``np.int64 ids -> np.bool_``
    marking the new (probe) split; it must be a pure function of the
    id so the decision is content-addressed and SQL-replayable.

    Plan: LSH candidate pairs over the full corpus (the reference
    side's buckets are needed anyway), then the old×old pairs are
    dropped BEFORE exact-Jaccard verification — at steady state the
    reference corpus dominates, so this filter removes the bulk of the
    candidate set from the expensive stage.  Surviving pairs verify
    with the distributed shingle-equality join; a pair at or above
    ``threshold`` produces drops under the CONSERVATIVE rule: a new
    doc is dropped iff it matches ANY old doc, or any smaller-id new
    doc (regardless of that doc's own fate — over-drops chained
    mirrors; the transitive-survivor variant is `near_dup_clusters`).
    Returns a Dataset (id_col, n_matches): one row per dropped new
    doc with its offending-partner count."""
    from .aggregates import sorted_groupby_agg

    thr = float(threshold)
    pairs, _ = minhash_candidate_pairs(
        ds.select_columns([id_col, text_col]),
        text_col=text_col, id_col=id_col, **lsh_kwargs)

    def cross_only(t: pa.Table) -> pa.Table:
        empty = pa.table({"a": pa.array([], pa.int64()),
                          "b": pa.array([], pa.int64())})
        if t.num_rows == 0 or "a" not in t.column_names:
            return empty
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = new_pred(a) | new_pred(b)
        return pa.table({"a": pa.array(a[keep]), "b": pa.array(b[keep])})

    cross = pairs.map_batches(cross_only, batch_size=None,
                              batch_format="pyarrow")
    verified = verify_pairs_jaccard(ds, cross, text_col=text_col,
                                    id_col=id_col)

    def drops(t: pa.Table) -> pa.Table:
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "one": pa.array([], pa.int64())})
        if t.num_rows == 0 or "a" not in t.column_names:
            return empty
        m = t["jaccard"].to_numpy(zero_copy_only=False) >= thr
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)[m]
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)[m]
        na, nb = new_pred(a), new_pred(b)
        # pairs have a < b: a new 'b' always has a smaller-id or old
        # partner; a new 'a' is dropped only by an OLD larger 'b'
        out = np.r_[b[nb], a[na & ~nb]]
        if len(out) == 0:
            return empty
        return pa.table({id_col: pa.array(out),
                         "one": pa.array(np.ones(len(out), np.int64))})

    return sorted_groupby_agg(
        verified.map_batches(drops, batch_size=None,
                             batch_format="pyarrow"),
        [id_col], [("one", "sum", "n_matches")],
        in_schema=pa.schema([(id_col, pa.int64()), ("one", pa.int64())]))


def verify_pairs_containment(
    ds, pairs, *, text_col: str = "text", id_col: str = "doc_id",
    k: int = 3, join_partitions: int | None = None,
):
    """Exact k-shingle CONTAINMENT for candidate pairs — the
    asymmetric companion to :func:`verify_pairs_jaccard`: a short
    document quoted inside a long one has low Jaccard but containment
    ~1, so subset/quote dedup thresholds C = |A∩B| / min(|A|, |B|)
    instead.  Same distributed plan as the Jaccard verify (member
    explode -> distinct (doc, shingle) rows -> ONE doc-id sort-merge
    join -> pair-keyed reductions) with one extra bit per joined row —
    which member contributed the shingle — so per-side set sizes fall
    out of the same sweep.  Returns a Dataset
    (a, b, size_a, size_b, inter_n, jaccard, containment); pairs whose
    members are BOTH shingle-less emit jaccard = containment = 1.0.
    """
    import ray.data as rd

    import pyarrow.compute as pc

    from .aggregates import sorted_groupby_agg
    from .join import sort_merge_join

    if hasattr(pairs, "to_pandas") and not isinstance(pairs, rd.Dataset):
        pairs = pa.Table.from_pandas(pairs.to_pandas(),
                                     preserve_index=False)
    if isinstance(pairs, pa.Table):
        pairs = rd.from_arrow(pairs.select(["a", "b"]))

    pair_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])
    empty_out = pa.table({"a": pa.array([], pa.int64()),
                          "b": pa.array([], pa.int64()),
                          "size_a": pa.array([], pa.int64()),
                          "size_b": pa.array([], pa.int64()),
                          "inter_n": pa.array([], pa.int64()),
                          "jaccard": pa.array([], pa.float64()),
                          "containment": pa.array([], pa.float64())})

    def explode(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "a" not in t.column_names:
            return pa.table({"jdoc": pa.array([], pa.int64()),
                             "a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64())})
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"jdoc": pa.array(np.r_[a, b]),
                         "a": pa.array(np.r_[a, a]),
                         "b": pa.array(np.r_[b, b])})

    def shingle_rows(t: pa.Table) -> pa.Table:
        empty = pa.table({"doc": pa.array([], pa.int64()),
                          "sh": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        flat, off = _doc_shingles_flat(t, text_col, k)
        if len(flat) == 0:
            return empty
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        doc_idx = np.repeat(np.arange(t.num_rows), np.diff(off))
        sh = flat.view(np.int64)
        order = np.lexsort((sh, doc_idx))
        d, s = doc_idx[order], sh[order]
        keep = np.r_[True, (d[1:] != d[:-1]) | (s[1:] != s[:-1])]
        return pa.table({"doc": pa.array(ids[d[keep]]),
                         "sh": pa.array(s[keep])})

    members = pairs.map_batches(explode, batch_format="pyarrow")
    shingles = ds.map_batches(shingle_rows, batch_format="pyarrow")
    joined = sort_merge_join(
        members, shingles, on="jdoc", right_on="doc", how="inner",
        left_schema=pa.schema([("jdoc", pa.int64()), ("a", pa.int64()),
                               ("b", pa.int64())]),
        right_schema=pa.schema([("doc", pa.int64()),
                                ("sh", pa.int64())]),
        partitions=join_partitions,
    )

    def tag_side(t: pa.Table) -> pa.Table:
        empty = pa.table({"a": pa.array([], pa.int64()),
                          "b": pa.array([], pa.int64()),
                          "sh": pa.array([], pa.int64()),
                          "is_a": pa.array([], pa.int64())})
        if t.num_rows == 0 or "a" not in t.column_names:
            return empty
        is_a = pc.cast(pc.equal(t["jdoc"], t["a"]), pa.int64())
        return pa.table({"a": t["a"], "b": t["b"], "sh": t["sh"],
                         "is_a": is_a})

    per_sh = sorted_groupby_agg(
        joined.map_batches(tag_side, batch_size=None,
                           batch_format="pyarrow"),
        ["a", "b", "sh"],
        [("is_a", "count", "cnt"), ("is_a", "sum", "a_cnt")],
        in_schema=pa.schema([("a", pa.int64()), ("b", pa.int64()),
                             ("sh", pa.int64()),
                             ("is_a", pa.int64())]))

    def flags(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "a" not in t.column_names:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "ac": pa.array([], pa.int64()),
                             "cn": pa.array([], pa.int64()),
                             "ii": pa.array([], pa.int64())})
        return pa.table({
            "a": t["a"], "b": t["b"],
            "ac": t["a_cnt"],
            "cn": t["cnt"],
            "ii": pc.cast(pc.equal(t["cnt"], 2), pa.int64()),
        })

    agg = sorted_groupby_agg(
        per_sh.map_batches(flags, batch_size=None,
                           batch_format="pyarrow"),
        ["a", "b"],
        [("ac", "sum", "size_a"), ("cn", "sum", "total"),
         ("ii", "sum", "inter_n")],
        in_schema=pa.schema([("a", pa.int64()), ("b", pa.int64()),
                             ("ac", pa.int64()), ("cn", pa.int64()),
                             ("ii", pa.int64())]))
    back = sort_merge_join(
        pairs, agg, on=["a", "b"], how="left",
        left_schema=pair_schema,
        right_schema=pa.schema([("a", pa.int64()), ("b", pa.int64()),
                                ("size_a", pa.int64()),
                                ("total", pa.int64()),
                                ("inter_n", pa.int64())]))

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "a" not in t.column_names:
            return empty_out
        sa = pc.fill_null(t["size_a"], 0).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        tot = pc.fill_null(t["total"], 0).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        i = pc.fill_null(t["inter_n"], 0).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        sb = tot - sa
        fi = i.astype(np.float64)
        union = (sa + sb - i).astype(np.float64)
        mn = np.minimum(sa, sb).astype(np.float64)
        jac = np.where(union > 0, fi / np.maximum(union, 1), 1.0)
        cont = np.where(mn > 0, fi / np.maximum(mn, 1), 1.0)
        return pa.table({"a": t["a"], "b": t["b"],
                         "size_a": pa.array(sa), "size_b": pa.array(sb),
                         "inter_n": pa.array(i),
                         "jaccard": pa.array(jac),
                         "containment": pa.array(cont)})

    return back.map_batches(finish, batch_size=None,
                            batch_format="pyarrow")


def cross_split_seen_stats(ds, *, n: int = 3, split_mod: int = 2,
                           text_col: str = "text", id_col: str = "doc_id"):
    """Cross-split n-gram novelty screen (the train/holdout
    memorization check): for every document in the HOLDOUT split
    (``doc_id % split_mod != 0``), the count and fraction of its token
    n-gram occurrences whose gram also appears anywhere in the TRAIN
    split (``doc_id % split_mod == 0``).  A holdout doc whose grams
    are mostly "seen" adds no novelty — the screen a training-data
    pipeline runs before trusting held-out eval loss.

    Scale shape: unlike the decontamination family
    (``stages/decontam.py``), whose reference side is benchmark-sized
    BY CONTRACT and therefore broadcast, here the reference side is
    HALF THE CORPUS — membership must travel through the shuffle.
    Each batch explodes to (doc_id, uint64 gram hash, in-train flag)
    rows (md5-low-64 of the space-joined gram, replayed exactly by
    DuckDB's ``md5_number_lower``, collisions included); ONE range
    sort by hash groups equal grams, a per-block sweep flags runs
    containing ≥1 train row and reduces to per-(block, holdout-doc)
    seen counts; those partials union with per-batch holdout total
    partials into a single doc-keyed grouped sum — the hash sort is
    the only data-sized exchange, and gram text never leaves the
    explode stage.  Returns (id_col, n_grams, n_seen, seen_frac) for
    every holdout document (short docs emit (0, 0, 0.0))."""
    from ..functions.hashing import md5_low64_batch
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.textstats import _split_tokens, ngram_strings

    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"n must be a positive int, got {n!r}")
    if not (isinstance(split_mod, int) and split_mod >= 2):
        raise ValueError(f"split_mod must be an int >= 2, got {split_mod!r}")

    def _doc_ids(t: pa.Table) -> np.ndarray:
        ids = t[id_col]
        ids = ids.combine_chunks() if isinstance(ids, pa.ChunkedArray) \
            else ids
        return ids.to_numpy(zero_copy_only=False).astype(np.int64)

    def explode(t: pa.Table) -> pa.Table:
        content = t[text_col]
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        parents, values = _split_tokens(content)
        gp, grams = ngram_strings(parents, values, n)
        if len(gp) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "h": pa.array([], pa.uint64()),
                             "a": pa.array([], pa.int8())})
        ids = _doc_ids(t)
        h = md5_low64_batch(grams.to_pylist())
        gids = ids[gp]
        return pa.table({id_col: pa.array(gids), "h": pa.array(h),
                         "a": pa.array((gids % split_mod == 0)
                                       .astype(np.int8))})

    def totals(t: pa.Table) -> pa.Table:
        ids = _doc_ids(t)
        hold = ids % split_mod != 0
        if not hold.any():
            return pa.table({id_col: pa.array([], pa.int64()),
                             "g": pa.array([], pa.int64()),
                             "s": pa.array([], pa.int64())})
        content = t[text_col]
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        parents, values = _split_tokens(content)
        gp, _ = ngram_strings(parents, values, n)
        cnt = np.bincount(gp, minlength=t.num_rows).astype(np.int64)
        return pa.table({id_col: pa.array(ids[hold]),
                         "g": pa.array(cnt[hold]),
                         "s": pa.array(np.zeros(int(hold.sum()),
                                                np.int64))})

    def seen_sweep(t: pa.Table) -> pa.Table:
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "g": pa.array([], pa.int64()),
                          "s": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        h = t["h"].to_numpy(zero_copy_only=False)
        ids = _doc_ids(t)
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(h, kind="stable")
        hs, ds_, as_ = h[order], ids[order], a[order]
        run_brk = hs[1:] != hs[:-1]
        run_id = np.cumsum(np.r_[0, run_brk.astype(np.int64)])
        n_runs = run_id[-1] + 1
        # a holdout occurrence is "seen" iff its run contains >= 1
        # train row (equal hashes land in one block by the sort
        # invariant, same contract as dup_passage_stats)
        train_in_run = np.bincount(run_id, weights=as_,
                                   minlength=n_runs) > 0
        seen_row = train_in_run[run_id] & (as_ == 0)
        if not seen_row.any():
            return empty
        vc = pa.array(ds_[seen_row]).value_counts()
        docs = vc.field("values")
        return pa.table({id_col: docs,
                         "g": pa.array(np.zeros(len(docs), np.int64)),
                         "s": vc.field("counts").cast(pa.int64())})

    exploded = ds.map_batches(explode, batch_format="pyarrow")
    seen_partials = exploded.sort("h").map_batches(
        seen_sweep, batch_size=None, batch_format="pyarrow")
    tot_partials = ds.map_batches(totals, batch_format="pyarrow")
    agg = sorted_groupby_agg(
        tot_partials.union(seen_partials), [id_col],
        [("g", "sum", "n_grams"), ("s", "sum", "n_seen")],
        in_schema=pa.schema([(id_col, pa.int64()), ("g", pa.int64()),
                             ("s", pa.int64())]))

    def fin(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column("seen_frac",
                                   pa.array([], pa.float64()))
        g = t["n_grams"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        s = t["n_seen"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        frac = np.divide(s, g, out=np.zeros_like(s), where=g > 0)
        return t.append_column("seen_frac", pa.array(frac))

    return agg.map_batches(fin, batch_format="pyarrow")
