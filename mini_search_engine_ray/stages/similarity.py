"""Similarity search over embedding columns.

Baseline: brute-force cosine top-k — the query matrix is broadcast once
(`ray.put`), every batch does one numpy matmul against it and emits its
LOCAL top-k per query; a tiny final groupby-per-query merge yields the
global top-k. Scale path: LSH bucketing by random-hyperplane sign bits
(broadcast projection matrix) -> groupby bucket -> in-bucket exact
cosine; recall traded via number of hyperplanes / probes.

Deterministic: fixed seeds; ties broken by vec_id ascending.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _emb_matrix(t: pa.Table, emb_col: str) -> np.ndarray:
    col = t[emb_col].combine_chunks() if isinstance(t[emb_col], pa.ChunkedArray) else t[emb_col]
    if isinstance(col, pa.FixedSizeListArray):
        dim = col.type.list_size
        return col.values.to_numpy(zero_copy_only=False).reshape(-1, dim)
    if len(col) == 0:
        # an empty variable-size list array has a single-element
        # offsets buffer — off[1] would raise; dim is unknowable here
        return np.zeros((0, 0), dtype=np.float64)
    flat = col.values.to_numpy(zero_copy_only=False)
    off = col.offsets.to_numpy(zero_copy_only=False)
    dim = int(off[1] - off[0])
    return flat.reshape(-1, dim)


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def _topk_ids_scores(ids: np.ndarray, s: np.ndarray, k: int) -> np.ndarray:
    """Indices of the top-k by (score desc, id asc) — argpartition picks
    an arbitrary subset among ties at the k boundary, so expand the
    selection to every row tied with the kth score before the lexsort
    (documented tie rule: ties broken by id ascending)."""
    kk = min(k, len(ids))
    if kk < len(ids):
        part = np.argpartition(-s, kk - 1)
        kth = s[part[kk - 1]]
        idx = np.flatnonzero(s >= kth)
    else:
        idx = np.arange(len(ids))
    return idx[np.lexsort((ids[idx], -s[idx]))][:kk]


def cosine_topk_batch(
    t: pa.Table,
    query_ref,
    *,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    k: int = 10,
) -> pa.Table:
    """Batch-local top-k per query against the broadcast query matrix."""
    import ray

    if t.num_rows == 0:  # var-size list batches lose dim when empty
        return pa.table({"query_id": pa.array([], pa.int64()),
                         id_col: pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    q = query_ref if isinstance(query_ref, np.ndarray) else ray.get(query_ref)
    m = _normalize(_emb_matrix(t, emb_col).astype(np.float64))
    qn = _normalize(q.astype(np.float64))
    sims = m @ qn.T  # (B, Q)
    ids = t[id_col].to_numpy(zero_copy_only=False)
    out_q, out_id, out_s = [], [], []
    for qi in range(qn.shape[0]):
        s = sims[:, qi]
        order = _topk_ids_scores(ids, s, k)
        out_q.append(np.full(len(order), qi, dtype=np.int64))
        out_id.append(ids[order])
        out_s.append(s[order])
    return pa.table(
        {
            "query_id": pa.array(np.concatenate(out_q)),
            id_col: pa.array(np.concatenate(out_id)),
            "score": pa.array(np.concatenate(out_s)),
        }
    )


def _merge_topk_table(t: pa.Table, *, id_col: str, k: int) -> pa.Table:
    """Vectorized per-query top-k over a table of partial results
    (score desc, id asc within each query; rank assigned 0..k-1).
    Schema-stable on empty input (silences Ray's different-schema
    warnings for empty blocks)."""
    empty = pa.table(
        {
            "query_id": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int32()),
            id_col: pa.array([], pa.int64()),
            "score": pa.array([], pa.float64()),
        }
    )
    if t.num_rows == 0 or "query_id" not in t.column_names:
        return empty
    qid = t["query_id"].to_numpy(zero_copy_only=False)
    ids = t[id_col].to_numpy(zero_copy_only=False)
    s = t["score"].to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, -s, qid))
    qs, idss, ss = qid[order], ids[order], s[order]
    starts = np.flatnonzero(np.r_[True, qs[1:] != qs[:-1]])
    rank = np.arange(len(qs)) - np.repeat(starts, np.diff(np.r_[starts, len(qs)]))
    keep = rank < k
    return pa.table(
        {
            "query_id": pa.array(qs[keep]),
            "rank": pa.array(rank[keep].astype(np.int32)),
            id_col: pa.array(idss[keep]),
            "score": pa.array(ss[keep]),
        }
    )


def _tree_merge_topk(partial, *, id_col: str, k: int):
    """Two-level top-k reduction over per-batch partials: a stateless
    combiner task merges many partial blocks (each emits <= Q*k rows),
    then one final task merges the combiner outputs. Replaces the
    per-query map_groups sort-shuffle — no all-to-all exchange, no
    schema-less empty blocks, and the gather stays O(tasks * Q * k)."""
    comb = partial.map_batches(
        lambda t: _merge_topk_table(t, id_col=id_col, k=k),
        batch_size=65536,
        batch_format="pyarrow",
    )
    return comb.repartition(1).map_batches(
        lambda t: _merge_topk_table(t, id_col=id_col, k=k),
        batch_size=None,
        batch_format="pyarrow",
    )


def ann_cosine_topk(ds, queries: np.ndarray, *, emb_col="embedding", id_col="vec_id", k=10):
    """Global cosine top-k per query: broadcast queries, per-batch
    partial top-k, tree merge. Returns Dataset (query_id, rank,
    vec_id, score)."""
    import ray

    qref = ray.put(np.ascontiguousarray(queries))
    partial = ds.map_batches(
        lambda t: cosine_topk_batch(t, qref, emb_col=emb_col, id_col=id_col, k=k),
        batch_format="pyarrow",
    )
    return _tree_merge_topk(partial, id_col=id_col, k=k)


def train_ivf_centroids(
    ds, *, emb_col: str = "embedding", n_centroids: int = 16,
    sample_size: int = 4096, iters: int = 10, seed: int = 5,
) -> np.ndarray:
    """Tiny k-means on a sample — the IVF coarse quantizer. Sampling +
    training happen once on the driver (centroids are small); at 100 TB
    the sample is a `random_sample` pass, not a full read."""
    import pandas as pd

    n = ds.count()
    frac = min(1.0, sample_size / max(n, 1))
    sample = ds.random_sample(frac, seed=seed) if frac < 1.0 else ds
    rows = sample.take_all()
    m = _normalize(np.stack([np.asarray(r[emb_col], dtype=np.float64) for r in rows]))
    rng = np.random.default_rng(seed)
    cent = m[rng.choice(len(m), size=min(n_centroids, len(m)), replace=False)]
    for _ in range(iters):
        assign = (m @ cent.T).argmax(axis=1)
        for c in range(len(cent)):
            members = m[assign == c]
            if len(members):
                v = members.mean(axis=0)
                nv = np.linalg.norm(v)
                if nv > 0:
                    cent[c] = v / nv
    return cent


def train_ivf_centroids_distributed(
    ds, *, emb_col: str = "embedding", id_col: str = "vec_id",
    n_centroids: int = 16, iters: int = 10,
) -> np.ndarray:
    """Fully distributed IVF coarse quantizer: spherical k-means over
    the WHOLE dataset via the Lloyd loop (`kmeans`) on per-batch
    L2-normalized vectors — on the unit sphere, L2 argmin == cosine
    argmax, so the raw-L2 assignment step is the cosine assignment.
    Resulting centroids re-normalized.  Use instead of the driver
    sample when the corpus is too skewed for a 4096-row sample to see
    every cluster."""
    def norm_batch(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             emb_col: pa.array([], pa.list_(pa.float64()))})
        m = _normalize(_emb_matrix(t, emb_col).astype(np.float64))
        r, d = m.shape
        return pa.table({
            id_col: t[id_col].cast(pa.int64()),
            emb_col: pa.ListArray.from_arrays(
                pa.array(np.arange(0, (r + 1) * d, d, dtype=np.int32)),
                pa.array(m.ravel())),
        })

    nds = ds.map_batches(norm_batch, batch_format="pyarrow")
    cents, _ = kmeans(nds, n_centroids, iters=iters, id_col=id_col,
                      emb_col=emb_col)
    return _normalize(cents)


def ivf_cosine_topk(
    ds, queries: np.ndarray, *, emb_col="embedding", id_col="vec_id",
    k=10, n_centroids=16, nprobe=4, seed=5, train: str = "sample",
):
    """IVF approximate cosine top-k — the scale path for ANN: vectors
    are bucketed by nearest centroid (one map_batches pass, centroids
    broadcast); each query scans only its `nprobe` closest buckets.
    Returns Dataset (query_id, rank, vec_id, score). Recall is tested
    against the brute-force baseline; raise nprobe toward n_centroids
    for exact results.  ``train``: 'sample' (driver k-means on a
    ≤4096-row random sample — centroids are small, one cheap pass) or
    'distributed' (spherical Lloyd over the whole dataset via
    `kmeans`, deterministic smallest-id seeding — for corpora too
    skewed for a sample to see every cluster)."""
    import ray

    if train == "sample":
        cent = train_ivf_centroids(ds, emb_col=emb_col,
                                   n_centroids=n_centroids, seed=seed)
    elif train == "distributed":
        cent = train_ivf_centroids_distributed(
            ds, emb_col=emb_col, id_col=id_col, n_centroids=n_centroids)
    else:
        raise ValueError(f"train must be 'sample' or 'distributed', got {train!r}")
    cref = ray.put(cent)
    qn = _normalize(np.ascontiguousarray(queries).astype(np.float64))
    # per query: which buckets to probe
    probes = np.argsort(-(qn @ cent.T), axis=1)[:, :nprobe]  # (Q, nprobe)
    probe_sets = [set(map(int, p)) for p in probes]
    qref = ray.put(qn)
    pref = ray.put(probe_sets)

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:  # var-size list batches lose dim when empty
            return pa.table({"query_id": pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        c = ray.get(cref)
        q = ray.get(qref)
        psets = ray.get(pref)
        m = _normalize(_emb_matrix(t, emb_col).astype(np.float64))
        ids = t[id_col].to_numpy(zero_copy_only=False)
        assign = (m @ c.T).argmax(axis=1)
        out_q, out_id, out_s = [], [], []
        for qi in range(len(q)):
            mask = np.isin(assign, list(psets[qi]))
            if not mask.any():
                continue
            sims = m[mask] @ q[qi]
            sel_ids = ids[mask]
            order = _topk_ids_scores(sel_ids, sims, k)
            out_q.append(np.full(len(order), qi, dtype=np.int64))
            out_id.append(sel_ids[order])
            out_s.append(sims[order])
        if not out_q:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                id_col: pa.array(np.concatenate(out_id)),
                "score": pa.array(np.concatenate(out_s)),
            }
        )

    partial_ds = ds.map_batches(partial, batch_format="pyarrow")
    return _tree_merge_topk(partial_ds, id_col=id_col, k=k)


def _hamming_ball_codes(code: int, n_bits: int, radius: int) -> np.ndarray:
    """All n_bits-bit codes within hamming distance <= radius of `code`
    (sorted int64). Size = sum_{i<=r} C(n_bits, i) — tiny for the
    H <= 16 hyperplane counts this module uses."""
    from itertools import combinations

    out = [code]
    for r in range(1, radius + 1):
        for bits in combinations(range(n_bits), r):
            flip = 0
            for b in bits:
                flip |= 1 << b
            out.append(code ^ flip)
    return np.unique(np.asarray(out, dtype=np.int64))


def lsh_cosine_topk(
    ds, queries: np.ndarray, *, emb_col="embedding", id_col="vec_id",
    k=10, num_hyperplanes=8, probe_radius=1, seed=77,
):
    """LSH-bucketed approximate cosine top-k — the second scale path for
    ANN (alongside IVF): vectors hash to sign-bit buckets under a
    broadcast random-hyperplane projection; each query scans only the
    buckets within hamming distance `probe_radius` of its own code
    (multi-probe). No shuffle at all — one map_batches pass + the same
    tree merge as the brute-force baseline; candidate count shrinks
    ~2^-(H - log2(ball size)) per vector batch.

    At `probe_radius == num_hyperplanes` every bucket is probed, so the
    result is provably identical to `ann_cosine_topk` (the driver
    oracle uses this); recall at small radii is pytest-bounded.
    """
    import ray

    if num_hyperplanes > 16:
        raise ValueError("num_hyperplanes > 16 makes full-probe oracles infeasible")
    qn = _normalize(np.ascontiguousarray(queries).astype(np.float64))
    rng = np.random.default_rng(seed)
    proj = rng.standard_normal((num_hyperplanes, qn.shape[1]))
    qbits = (qn @ proj.T) > 0
    weights = (1 << np.arange(num_hyperplanes - 1, -1, -1)).astype(np.int64)
    qcodes = qbits @ weights
    probe_lists = [
        _hamming_ball_codes(int(c), num_hyperplanes, probe_radius) for c in qcodes
    ]
    pref = ray.put(proj)
    qref = ray.put(qn)
    plref = ray.put(probe_lists)

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:  # var-size list batches lose dim when empty
            return pa.table({"query_id": pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        proj_m = ray.get(pref)
        q = ray.get(qref)
        probes = ray.get(plref)
        m_raw = _emb_matrix(t, emb_col).astype(np.float64)
        codes = (((m_raw @ proj_m.T) > 0) @ weights).astype(np.int64)
        m = _normalize(m_raw)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        out_q, out_id, out_s = [], [], []
        for qi in range(len(q)):
            mask = np.isin(codes, probes[qi])
            if not mask.any():
                continue
            sims = m[mask] @ q[qi]
            sel_ids = ids[mask]
            order = _topk_ids_scores(sel_ids, sims, k)
            out_q.append(np.full(len(order), qi, dtype=np.int64))
            out_id.append(sel_ids[order])
            out_s.append(sims[order])
        if not out_q:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                id_col: pa.array(np.concatenate(out_id)),
                "score": pa.array(np.concatenate(out_s)),
            }
        )

    partial_ds = ds.map_batches(partial, batch_format="pyarrow")
    return _tree_merge_topk(partial_ds, id_col=id_col, k=k)


def lsh_bucket_batch(
    t: pa.Table, proj_ref, *, emb_col: str = "embedding", id_col: str = "vec_id"
) -> pa.Table:
    """Random-hyperplane LSH bucket id per vector (sign-bit code)."""
    import ray

    if t.num_rows == 0:  # var-size list batches lose dim when empty
        return pa.table({id_col: t[id_col],
                         "bucket": pa.array([], pa.int64()),
                         "embedding_keep": t[emb_col]})
    proj = proj_ref if isinstance(proj_ref, np.ndarray) else ray.get(proj_ref)
    m = _emb_matrix(t, emb_col).astype(np.float64)
    bits = (m @ proj.T) > 0  # (B, H)
    code = np.zeros(len(m), dtype=np.int64)
    for h in range(bits.shape[1]):
        code = code * 2 + bits[:, h]
    return pa.table({id_col: t[id_col], "bucket": pa.array(code), "embedding_keep": t[emb_col]})


def embedding_dup_pairs(
    ds,
    *,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    threshold: float = 0.95,
    num_hyperplanes: int = 8,
    dim: int | None = None,
    seed: int = 77,
    max_bucket: int = 200,
):
    """Embedding-cosine near-dup pairs via LSH buckets + in-bucket exact
    cosine. Returns Dataset (a, b, score) with a < b, score >= threshold.
    Vectors whose codes differ in any hyperplane land in different
    buckets (single-probe; raise num_hyperplanes for precision, add
    probes/repeats for recall). A bucket larger than `max_bucket` is
    truncated to its `max_bucket` smallest ids before the in-bucket
    all-pairs matmul — the same quadratic-blowup guard as
    `dedup._pairs_in_band_block`; a degenerate hot bucket (boilerplate
    / near-zero embeddings) would otherwise cost O(bucket²) memory and
    one-task wall time. Truncated buckets are logged.

    Shuffle shape: one range sort on `bucket` (balanced elastic
    partitions, buckets kept whole — the map_groups invariant) + a
    vectorized per-block sweep; no per-group Python callables, no
    schema-less empty blocks."""
    import ray

    if dim is None:
        probe = ds.take(1)
        if not probe:  # empty dataset: no pairs, don't crash the probe
            import ray.data as rd

            return rd.from_arrow(pa.table({
                "a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
                "score": pa.array([], pa.float64())}))
        dim = len(probe[0][emb_col])
    rng = np.random.default_rng(seed)
    proj = rng.standard_normal((num_hyperplanes, dim))
    pref = ray.put(proj)
    bucketed = ds.map_batches(
        lambda t: lsh_bucket_batch(t, pref, emb_col=emb_col, id_col=id_col),
        batch_format="pyarrow",
    )

    def in_bucket_pairs_block(t: pa.Table) -> pa.Table:
        empty = pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
                          "score": pa.array([], pa.float64())})
        if t.num_rows == 0 or "bucket" not in t.column_names:
            return empty
        ids_all = t[id_col].to_numpy(zero_copy_only=False)
        buckets = t["bucket"].to_numpy(zero_copy_only=False)
        m_all = _normalize(_emb_matrix(t, "embedding_keep").astype(np.float64))
        order = np.lexsort((ids_all, buckets))
        starts = np.flatnonzero(np.r_[True, buckets[order][1:] != buckets[order][:-1]])
        ends = np.r_[starts[1:], len(order)]
        out_a, out_b, out_s = [], [], []
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue
            sel = order[s:e]
            if len(sel) > max_bucket:
                import logging

                logging.getLogger(__name__).warning(
                    "embedding_dup_pairs: bucket %s truncated %d -> %d vectors",
                    int(buckets[sel[0]]), len(sel), max_bucket,
                )
                sel = sel[:max_bucket]  # ids ascending within bucket already
            ids = ids_all[sel]
            m = m_all[sel]
            sims = m @ m.T
            iu, ju = np.triu_indices(len(ids), k=1)
            mask = sims[iu, ju] >= threshold
            if not mask.any():
                continue
            a, b = ids[iu[mask]], ids[ju[mask]]
            out_a.append(np.minimum(a, b))
            out_b.append(np.maximum(a, b))
            out_s.append(sims[iu[mask], ju[mask]])
        if not out_a:
            return empty
        return pa.table({"a": pa.array(np.concatenate(out_a)),
                         "b": pa.array(np.concatenate(out_b)),
                         "score": pa.array(np.concatenate(out_s))})

    return bucketed.sort("bucket").map_batches(
        in_bucket_pairs_block, batch_size=None, batch_format="pyarrow"
    )


def group_centroids(ds, key_col: str, *, emb_col: str = "embedding"):
    """Mean embedding per group — the k-means / class-prototype /
    dataset-summary building block.

    Scale shape: each batch collapses to ONE partial row per distinct
    key (lexsort + ``np.add.reduceat`` over the embedding matrix), so
    the shuffle carries (key, vector-sum, n) partials — bounded by
    batches × keys-per-batch — never the per-row vectors.  One range
    sort on the key then reduces partials per run (the sort invariant
    keeps each key wholly inside one block) and divides by the count.
    Returns a Dataset (key, centroid ``list<double>``, n).

    Float note: partial sums accumulate in float64 in batch row order,
    then combine in sorted-block order — a different association than
    any single-pass sum, so compare centroids rounded (the driver
    oracle rounds to 4 decimals), not bitwise."""
    from .aggregates import static_schema

    src = static_schema(ds)
    key_type = src.field(key_col).type if src is not None \
        and key_col in src.names else pa.int64()
    partial_schema = pa.schema([(key_col, key_type),
                                ("_vsum", pa.list_(pa.float64())),
                                ("_n", pa.int64())])

    def _list_array(mat: np.ndarray) -> pa.ListArray:
        r, d = mat.shape
        return pa.ListArray.from_arrays(
            pa.array(np.arange(0, (r + 1) * d, d, dtype=np.int32)),
            pa.array(mat.ravel(), pa.float64()))

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return partial_schema.empty_table()
        m = _emb_matrix(t, emb_col).astype(np.float64)
        keys = t[key_col]
        keys = keys.combine_chunks() if isinstance(keys, pa.ChunkedArray) else keys
        kv = keys.to_numpy(zero_copy_only=False)
        order = np.argsort(kv, kind="stable")
        sk = kv[order]
        starts = np.flatnonzero(np.r_[True, sk[1:] != sk[:-1]])
        sums = np.add.reduceat(m[order], starts, axis=0)
        ns = np.diff(np.r_[starts, len(sk)]).astype(np.int64)
        return pa.table({key_col: keys.take(pa.array(order[starts])),
                         "_vsum": _list_array(sums),
                         "_n": pa.array(ns)}, schema=partial_schema)

    out_schema = pa.schema([(key_col, key_type),
                            ("centroid", pa.list_(pa.float64())),
                            ("n", pa.int64())])

    def combine(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        from .aggregates import key_run_breaks

        brk = key_run_breaks(t, [key_col])
        starts = np.flatnonzero(np.r_[True, brk])
        m = _emb_matrix(t, "_vsum")
        sums = np.add.reduceat(m, starts, axis=0)
        nv = t["_n"]
        nv = (nv.combine_chunks() if isinstance(nv, pa.ChunkedArray) else nv) \
            .to_numpy(zero_copy_only=False)
        ns = np.add.reduceat(nv, starts)
        keys = t[key_col]
        keys = keys.combine_chunks() if isinstance(keys, pa.ChunkedArray) else keys
        return pa.table({key_col: keys.take(pa.array(starts)),
                         "centroid": _list_array(sums / ns[:, None]),
                         "n": pa.array(ns.astype(np.int64))},
                        schema=out_schema)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.sort(key_col).map_batches(combine, batch_size=None,
                                              batch_format="pyarrow")


def _assign_empty(id_col: str) -> pa.Table:
    return pa.table({id_col: pa.array([], pa.int64()),
                     "cluster": pa.array([], pa.int64()),
                     "dist": pa.array([], pa.float64())})


def kmeans_assign_batch(t: pa.Table, cent_ref, *, id_col: str = "vec_id",
                        emb_col: str = "embedding", keep_emb: bool = False,
                        round_dist: bool = False) -> pa.Table:
    """Nearest-centroid assignment for one batch against the broadcast
    (k, d) centroid matrix: one matmul via the ||x-c||² expansion,
    ties (exact, or post-rounding when ``round_dist``) broken by the
    LOWEST centroid index — np.argmin's first-minimum rule, which the
    oracle replays as ORDER BY dist, cid."""
    import ray

    from .textstats import round4

    if t.num_rows == 0:
        out = _assign_empty(id_col)
        if keep_emb:
            out = out.append_column(emb_col, pa.array([], pa.list_(pa.float64())))
        return out
    c = cent_ref if isinstance(cent_ref, np.ndarray) else ray.get(cent_ref)
    m = _emb_matrix(t, emb_col).astype(np.float64)
    sq = (m * m).sum(axis=1, keepdims=True) + (c * c).sum(axis=1) \
        - 2.0 * (m @ c.T)
    d = np.sqrt(np.maximum(sq, 0.0))
    if round_dist:
        d = round4(d)
    cluster = np.argmin(d, axis=1)
    cols = {id_col: t[id_col].cast(pa.int64()),
            "cluster": pa.array(cluster.astype(np.int64)),
            "dist": pa.array(d[np.arange(len(cluster)), cluster])}
    if keep_emb:
        cols[emb_col] = t[emb_col]
    return pa.table(cols)


def kmeans_init(ds, k: int, *, id_col: str = "vec_id",
                emb_col: str = "embedding") -> np.ndarray:
    """Deterministic seeding: the embeddings of the k SMALLEST ids.
    Each batch forwards only its k smallest rows, so the driver
    collect is bounded by batches × k, never the dataset."""
    def local_k(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             emb_col: pa.array([], pa.list_(pa.float64()))})
        ids = t[id_col]
        ids = (ids.combine_chunks() if isinstance(ids, pa.ChunkedArray)
               else ids).to_numpy(zero_copy_only=False)
        keep = np.sort(np.argsort(ids, kind="stable")[:k])
        out = t.select([id_col, emb_col]).take(pa.array(keep))
        return pa.table({id_col: out[id_col].cast(pa.int64()),
                         emb_col: out[emb_col]})

    cand = ds.map_batches(local_k, batch_format="pyarrow").to_arrow_refs()
    import ray

    tabs = [x for x in ray.get(cand)]
    allc = pa.concat_tables([t.select([id_col, emb_col]) for t in tabs
                             if t.num_rows], promote_options="permissive")
    # centroid row i = the i-th SMALLEST id: take in id order, not
    # position order
    order = np.argsort(allc[id_col].to_numpy(zero_copy_only=False),
                       kind="stable")[:k]
    sel = allc.take(pa.array(order))
    return _emb_matrix(sel, emb_col).astype(np.float64)


def kmeans(ds, k: int, *, iters: int = 10, id_col: str = "vec_id",
           emb_col: str = "embedding", tol: float = 0.0):
    """Distributed Lloyd's k-means over an embedding Dataset.

    Per iteration: centroids broadcast once (``ray.put``), every batch
    assigns via one matmul (`kmeans_assign_batch`), and the update is
    `group_centroids` on the cluster id — per-batch (cluster, sum, n)
    partials, one small range sort, k result rows.  Driver traffic per
    iteration is the k×d centroid matrix, independent of data size
    (the same shape as PageRank's score-vector loop).  Empty clusters
    keep their previous centroid.  Deterministic end to end: seeding
    by smallest ids, first-minimum tie rule.  Stops early when the max
    centroid shift is <= ``tol``.

    Returns ``(centroids (k, d) ndarray, assignment Dataset
    (id, cluster, dist))`` — the assignment is computed lazily against
    the FINAL centroids."""
    from functools import partial as _p

    import ray

    cents = kmeans_init(ds, k, id_col=id_col, emb_col=emb_col)
    if len(cents) < k:
        raise ValueError(f"kmeans: need >= {k} rows, got {len(cents)}")
    for _ in range(iters):
        ref = ray.put(cents)
        assigned = ds.map_batches(
            _p(kmeans_assign_batch, cent_ref=ref, id_col=id_col,
               emb_col=emb_col, keep_emb=True),
            batch_format="pyarrow")
        upd = group_centroids(assigned, "cluster", emb_col=emb_col) \
            .to_pandas()  # k rows
        new = cents.copy()
        if len(upd):
            idx = np.asarray(upd["cluster"], dtype=np.int64)
            new[idx] = np.stack([np.asarray(v, dtype=np.float64)
                                 for v in upd["centroid"]])
        shift = float(np.abs(new - cents).max()) if len(upd) else 0.0
        cents = new
        if shift <= tol:
            break
    ref = ray.put(cents)
    assign = ds.map_batches(
        _p(kmeans_assign_batch, cent_ref=ref, id_col=id_col,
           emb_col=emb_col),
        batch_format="pyarrow")
    return cents, assign


# ---------------------------------------------------------------------
# PCA over an embedding column
# ---------------------------------------------------------------------

def _sum_moment_rows(t: pa.Table):
    """Sum a table of (n, s, xtx) partial rows into one triple, or
    None if the table carries no rows."""
    if t.num_rows == 0:
        return None
    n = int(np.sum(t.column("n").to_numpy(zero_copy_only=False)))
    s_rows = [np.asarray(v) for v in t["s"].to_pylist()]
    s = np.sum(s_rows, axis=0)
    d = len(s)
    xtx = np.zeros((d, d), dtype=np.float64)
    for v in t["xtx"].to_pylist():
        xtx += np.asarray(v).reshape(d, d)
    return n, s, xtx


def embedding_moments(ds, *, emb_col: str = "embedding"):
    """(n, sum vector, X^T X) over the whole embedding column — the
    sufficient statistics for mean/covariance/PCA: one matmul per
    batch produces a (d, d) partial regardless of batch size.  The
    partials are then TREE-combined distributed-side (a second
    ``map_batches`` sums up to 64 partial rows per task) and the
    driver folds the combined stream incrementally via
    ``iter_batches`` — driver memory is ONE (d, d) accumulator plus
    one in-flight block regardless of how many input batches the
    dataset has (the round-4 verdict's scale fix: no
    ``take_all()``-sized list of d² matrices ever exists).
    Returns (n, s[d], xtx[d, d]) float64."""
    _moments_schema = pa.schema([
        ("n", pa.int64()),
        ("s", pa.list_(pa.float64())),
        ("xtx", pa.list_(pa.float64())),
    ])

    def partial(t: pa.Table) -> pa.Table:
        x = _emb_matrix(t, emb_col).astype(np.float64)
        if x.size == 0:
            return _moments_schema.empty_table()
        return pa.table({
            "n": pa.array([len(x)], pa.int64()),
            "s": pa.array([x.sum(axis=0)], pa.list_(pa.float64())),
            "xtx": pa.array([(x.T @ x).ravel()], pa.list_(pa.float64())),
        })

    def combine(t: pa.Table) -> pa.Table:
        acc = _sum_moment_rows(t)
        if acc is None:
            return _moments_schema.empty_table()
        n, s, xtx = acc
        return pa.table({
            "n": pa.array([n], pa.int64()),
            "s": pa.array([s], pa.list_(pa.float64())),
            "xtx": pa.array([xtx.ravel()], pa.list_(pa.float64())),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow") \
              .map_batches(combine, batch_size=64,
                           batch_format="pyarrow")
    n_tot, s_tot, xtx_tot = 0, None, None
    for block in parts.iter_batches(batch_format="pyarrow",
                                    batch_size=None):
        acc = _sum_moment_rows(block)
        if acc is None:
            continue
        bn, bs, bx = acc
        n_tot += bn
        s_tot = bs if s_tot is None else s_tot + bs
        xtx_tot = bx if xtx_tot is None else xtx_tot + bx
    if s_tot is None:
        return 0, None, None
    return n_tot, s_tot, xtx_tot


def embedding_covariance(ds, *, emb_col: str = "embedding") -> np.ndarray:
    """Population covariance matrix of the embedding column:
    cov = XᵀX/n − mean meanᵀ from :func:`embedding_moments` — exactly
    the arithmetic a SQL ``covar_pop`` per (i, j) computes (up to
    float association), which is what the driver oracle checks."""
    n, s, xtx = embedding_moments(ds, emb_col=emb_col)
    if n == 0:
        return np.zeros((0, 0))
    mean = s / n
    return xtx / n - np.outer(mean, mean)


def pca_fit(ds, *, k: int, emb_col: str = "embedding"):
    """Top-k principal components of the embedding column: covariance
    from the d×d moment partials (never materializing the data), then
    one driver-side symmetric eigendecomposition (d×d — embedding
    widths, not data sizes).  Deterministic up to eigenvector sign,
    fixed here by making each component's largest-|coefficient| entry
    positive.  Returns (mean[d], components[k, d], explained_var[k])."""
    if not (isinstance(k, int) and k >= 1):
        raise ValueError(f"k must be a positive int, got {k!r}")
    n, s, xtx = embedding_moments(ds, emb_col=emb_col)
    if n == 0:
        raise ValueError("pca_fit on an empty dataset")
    if k > len(s):
        raise ValueError(
            f"k={k} exceeds the embedding dimensionality {len(s)}")
    mean = s / n
    cov = xtx / n - np.outer(mean, mean)
    w, v = np.linalg.eigh(cov)          # ascending eigenvalues
    order = np.argsort(w)[::-1][:k]
    comps = v[:, order].T               # (k, d)
    # sign convention: largest-|coef| entry of each component positive
    flip = comps[np.arange(len(comps)),
                 np.abs(comps).argmax(axis=1)] < 0
    comps[flip] *= -1.0
    return mean, comps, w[order]


def random_sign_projection(ds, out_dim: int, *, salt: int = 0,
                           id_col: str = "vec_id",
                           emb_col: str = "embedding",
                           out_col: str = "proj",
                           in_dim: int | None = None):
    """Random sign-projection dimensionality reduction (Achlioptas
    2003 / Johnson-Lindenstrauss): y = x @ R / sqrt(out_dim) where
    R[i, j] = +1 if md5-low-64(f"{i},{j},{salt}") is odd else -1 —
    the projection MATRIX is CONTENT-ADDRESSED (no RNG state, every
    worker and any other engine derives the identical matrix), built
    once on the driver (d*out_dim entries — by contract small; it is
    the broadcast side) and shipped via ``ray.put``.  One matmul per
    batch, pure map, no shuffle anywhere; the cheap pre-ANN compression
    step (norms distort by at most (1±eps) per the JL lemma).
    Appends ``out_col`` as list<double>.  The matmul reduction itself
    is IEEE-order-dependent like every float sum in this repo (BLAS
    kernel choice varies with the batch row count, ~1e-15); exact
    comparison goes through the 4dp half-up gate.
    """
    if out_dim < 1:
        raise ValueError("out_dim must be >= 1")
    import ray

    from ..functions.hashing import md5_low64_str

    if in_dim is None:
        probe = ds.take(1)
        if not probe:
            return ds.map_batches(
                lambda t: t.append_column(
                    out_col, pa.array([], pa.list_(pa.float64()))),
                batch_format="pyarrow")
        in_dim = len(probe[0][emb_col])
    bits = np.array([md5_low64_str(f"{i},{j},{salt}") & 1
                     for i in range(in_dim) for j in range(out_dim)],
                    dtype=np.float64).reshape(in_dim, out_dim)
    r = ray.put(bits * 2.0 - 1.0)
    # DIVIDE by sqrt(k), never multiply by its reciprocal: x/s and
    # x*(1/s) differ by an ulp, and the SQL replay divides
    root = np.sqrt(float(out_dim))

    def apply(t: pa.Table) -> pa.Table:
        mat = ray.get(r)
        x = _emb_matrix(t, emb_col).astype(np.float64)
        if x.size == 0:
            return t.append_column(out_col,
                                   pa.array([], pa.list_(pa.float64())))
        y = (x @ mat) / root
        n, k = y.shape
        off = pa.array(np.arange(n + 1, dtype=np.int32) * k)
        return t.append_column(
            out_col, pa.ListArray.from_arrays(off, pa.array(y.ravel())))

    return ds.map_batches(apply, batch_format="pyarrow")


def silhouette_batch(t: pa.Table, cent_ref, *, id_col: str = "vec_id",
                     emb_col: str = "embedding",
                     round_dist: bool = True) -> pa.Table:
    """Per-vector SIMPLIFIED silhouette against the broadcast (k, d)
    centroid matrix (the centroid-based silhouette of Hruschka et al.;
    coincides with assignment quality when assignment = nearest):
    a = distance to the own (nearest) centroid, b = distance to the
    second-nearest, s = (b − a) / max(a, b) (0 when both are 0).
    Distances are 4dp-rounded BEFORE the two mins when ``round_dist``
    so ties and the a/b split replay identically in SQL (the
    kmeans_assign convention).  One matmul per batch, no shuffle.
    Returns (id_col, cluster, a, b, sil)."""
    import ray

    from .textstats import round4

    empty = pa.table({id_col: pa.array([], pa.int64()),
                      "cluster": pa.array([], pa.int64()),
                      "a": pa.array([], pa.float64()),
                      "b": pa.array([], pa.float64()),
                      "sil": pa.array([], pa.float64())})
    if t.num_rows == 0:
        return empty
    c = cent_ref if isinstance(cent_ref, np.ndarray) else ray.get(cent_ref)
    if c.shape[0] < 2:
        raise ValueError("silhouette needs at least 2 centroids")
    m = _emb_matrix(t, emb_col).astype(np.float64)
    sq = (m * m).sum(axis=1, keepdims=True) + (c * c).sum(axis=1) \
        - 2.0 * (m @ c.T)
    d = np.sqrt(np.maximum(sq, 0.0))
    if round_dist:
        d = round4(d)
    own = np.argmin(d, axis=1)              # first-minimum tie rule
    rows = np.arange(len(own))
    a = d[rows, own]
    masked = d.copy()
    masked[rows, own] = np.inf
    b = masked.min(axis=1)
    mx = np.maximum(a, b)
    sil = np.where(mx > 0, (b - a) / np.where(mx > 0, mx, 1.0), 0.0)
    return pa.table({id_col: t[id_col].cast(pa.int64()),
                     "cluster": pa.array(own.astype(np.int64)),
                     "a": pa.array(a), "b": pa.array(b),
                     "sil": pa.array(sil)})


def cluster_silhouette(ds, cent_ref, *, id_col: str = "vec_id",
                       emb_col: str = "embedding",
                       round_dist: bool = True):
    """Per-cluster mean simplified silhouette — the k-means quality
    report: rows (cluster, n, mean_sil) with mean_sil = Σsil / n (one
    float division over a drift-gated float sum; callers round 4dp).
    Scale shape: :func:`silhouette_batch` is a pure broadcast map; the
    only exchange is a k-bounded grouped (sum, count)."""
    from functools import partial

    from .aggregates import sorted_groupby_agg

    scored = ds.map_batches(
        partial(silhouette_batch, cent_ref=cent_ref, id_col=id_col,
                emb_col=emb_col, round_dist=round_dist),
        batch_format="pyarrow")

    def proj(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"cluster": pa.array([], pa.int64()),
                             "sil": pa.array([], pa.float64())})
        return t.select(["cluster", "sil"])

    agg = sorted_groupby_agg(
        scored.map_batches(proj, batch_format="pyarrow"),
        ["cluster"],
        [("cluster", "count", "n"), ("sil", "sum", "_s")],
        in_schema=pa.schema([("cluster", pa.int64()),
                             ("sil", pa.float64())]))

    out_schema = pa.schema([("cluster", pa.int64()), ("n", pa.int64()),
                            ("mean_sil", pa.float64())])

    def fin(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "cluster" not in t.column_names:
            return out_schema.empty_table()
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        s = t["_s"].to_numpy(zero_copy_only=False)
        return pa.table({"cluster": t["cluster"], "n": t["n"],
                         "mean_sil": pa.array(s / n)})

    return agg.map_batches(fin, batch_size=None, batch_format="pyarrow")
