"""Text analysis stages: token counting, quality scoring, language ID,
document fingerprinting (rolling-hash winnowing).

Large-scale training-data-pipeline operators layered on the same
analysis chain as the index (SURVEY §2 A1/A8 + north-rule extensions).
All are vectorized `map_batches` kernels over Arrow batches; the
heuristics are deliberately simple and DETERMINISTIC so the DuckDB
oracle in `pipelines/driver_queries.py` can replicate them exactly.

Definitions (mirrored in oracle SQL — keep in sync):
  n_tokens        nonempty tokens after punctuation split (stopwords
                  INCLUDED)
  n_terms         after stopword removal
  stop_ratio      round-half-up((n_tokens - n_terms)/max(n_tokens,1), 4)
  mean_token_len  round(mean(len(token)) over nonempty tokens, 4)
  uniq_ratio      round(distinct terms / max(n_terms,1), 4)
  langid          argmax of marker-word hit counts over fixed marker
                  sets, ties/zero -> 'unknown' (priority order below)
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.stopwords import STOP_WORDS
from ..functions.tokenizers import JAVA_TRIM_CHARS, PUNCT_SPLIT_RE2

_STOP_PA = pa.array(sorted(STOP_WORDS))


def round4(x: np.ndarray) -> np.ndarray:
    """Round half-up to 4 decimals — the one rounding rule shared with
    the DuckDB oracle SQL (numpy round is banker's, DuckDB round is
    half-away; floor(x*1e4+0.5)/1e4 is identical in both engines)."""
    return np.floor(np.asarray(x, dtype=np.float64) * 1e4 + 0.5) / 1e4

# marker sets are disjoint across languages; priority order breaks ties
LANG_MARKERS: dict[str, list[str]] = {
    "en": ["the", "and", "is", "of", "to", "in", "that"],
    "de": ["der", "die", "das", "und", "ist", "nicht", "mit"],
    "fr": ["le", "les", "une", "est", "pas", "vous", "je"],
    "es": ["el", "los", "una", "es", "por", "para", "como"],
}
LANG_PRIORITY = ["en", "de", "fr", "es"]


def _split_tokens(content: pa.Array):
    """Java-trim + lower + punctuation split -> (parents, values) with
    empties kept out; stopwords retained.  Mirrored by the oracle's
    `_TOK_CTE` (same trim charset via chr(), same split class)."""
    toks = pc.split_pattern_regex(
        pc.utf8_lower(pc.utf8_trim(content, characters=JAVA_TRIM_CHARS)),
        pattern=PUNCT_SPLIT_RE2)
    parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    values = toks.flatten()
    mask = pc.not_equal(values, "")
    keep = mask.to_numpy(zero_copy_only=False)
    return parents[keep], values.filter(mask)


def ngram_strings(parents: np.ndarray, values: pa.Array, n: int):
    """Flat (parents, grams) of every n-token gram over a
    ``_split_tokens`` stream: the gram at flat token position p joins
    tokens p..p+n-1 with spaces (a split-class char, so the join is
    injective) and is valid iff all n tokens belong to the same
    document — parents is sorted, so equality of the two ENDPOINTS
    implies equality throughout.  Fully vectorized: n shifted
    zero-copy slices + one ``binary_join_element_wise``.  Shared by
    decontamination and the repetition stats below."""
    total = len(parents)
    if total < n:
        return parents[:0], pa.array([], pa.string())
    m = total - n + 1
    shifted = [values.slice(i, m) for i in range(n)]
    # the separator scalar must match the value type: a plain " " is
    # STRING and Arrow has no (large_string, ..., string) kernel, so a
    # large_string corpus (e.g. large parquet text columns) would fail
    grams = pc.binary_join_element_wise(
        *shifted, pa.scalar(" ", type=values.type))
    ok = parents[:m] == parents[n - 1:]
    return parents[:m][ok], grams.filter(pa.array(ok))


def repetition_stats_batch(t: pa.Table, *, n: int, text_col: str = "text",
                           id_col: str = "doc_id") -> pa.Table:
    """Per-doc n-gram repetition quality signals (the Gopher-style
    repetitious-text gate): over each document's n-gram multiset,

    - ``dup_ngram_frac`` — fraction of n-gram occurrences whose gram
      occurs more than once in the doc,
    - ``top_ngram_frac`` — occurrences of the doc's most frequent
      gram / total grams,
    - ``n_ngrams`` — total gram count.

    Docs with fewer than ``n`` tokens emit no row (they have no
    grams), matching the SQL oracle's GROUP BY.  Pure per-batch map:
    dictionary-encode the grams once, count (doc, gram) pairs with one
    ``np.unique``, reduce per doc with ``bincount`` — no shuffle, no
    per-row Python."""
    ids = t[id_col]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    content = t[text_col]
    if isinstance(content, pa.ChunkedArray):
        content = content.combine_chunks()
    empty = pa.table({
        id_col: pa.array([], ids.type if t.num_rows else pa.int64()),
        "n_ngrams": pa.array([], pa.int64()),
        "dup_ngram_frac": pa.array([], pa.float64()),
        "top_ngram_frac": pa.array([], pa.float64()),
    })
    if t.num_rows == 0:
        return empty
    parents, values = _split_tokens(content)
    gpar, grams = ngram_strings(parents, values, n)
    if len(gpar) == 0:
        return empty
    codes = grams.dictionary_encode().indices.to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    k = int(codes.max()) + 1
    # count each (doc, gram) pair once via the packed-key unique
    pair_keys, pair_counts = np.unique(gpar.astype(np.int64) * k + codes,
                                       return_counts=True)
    pair_doc = pair_keys // k
    rows = np.unique(pair_doc)
    total = np.bincount(gpar, minlength=t.num_rows)[rows]
    dup = np.bincount(pair_doc[pair_counts > 1],
                      weights=pair_counts[pair_counts > 1],
                      minlength=t.num_rows)[rows]
    top = np.zeros(t.num_rows, dtype=np.int64)
    np.maximum.at(top, pair_doc, pair_counts)
    top = top[rows]
    return pa.table({
        id_col: ids.take(pa.array(rows)),
        "n_ngrams": pa.array(total.astype(np.int64)),
        "dup_ngram_frac": pa.array(round4(dup / total)),
        "top_ngram_frac": pa.array(round4(top / total)),
    })


def doc_repetition_stats(ds, *, n: int = 2, text_col: str = "text",
                         id_col: str = "doc_id"):
    """Streaming per-doc n-gram repetition stats (see
    :func:`repetition_stats_batch`) — pure map, no shuffle."""
    from functools import partial

    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"n must be a positive int, got {n!r}")
    return ds.map_batches(
        partial(repetition_stats_batch, n=n, text_col=text_col,
                id_col=id_col),
        batch_format="pyarrow")


def token_stats_batch(t: pa.Table, *, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Per-doc token counts + quality metrics."""
    content = t[text_col].combine_chunks() if isinstance(t[text_col], pa.ChunkedArray) else t[text_col]
    n = t.num_rows
    parents, values = _split_tokens(content)
    n_tokens = np.bincount(parents, minlength=n).astype(np.int64)
    is_stop = pc.is_in(values, value_set=_STOP_PA).to_numpy(zero_copy_only=False)
    n_stop = np.bincount(parents[is_stop], minlength=n).astype(np.int64)
    n_terms = n_tokens - n_stop
    tok_len = pc.utf8_length(values).to_numpy(zero_copy_only=False).astype(np.float64)
    len_sum = np.bincount(parents, weights=tok_len, minlength=n)
    # distinct terms per doc: unique (parent, term_code) pairs
    nonstop_par = parents[~is_stop]
    # reuse the is_stop mask computed above (one set-membership scan)
    codes = values.filter(pa.array(~is_stop)).dictionary_encode() \
        .indices.to_numpy(zero_copy_only=False)
    if len(nonstop_par):
        pairs = np.unique(nonstop_par.astype(np.int64) * (codes.max() + 1) + codes)
        uniq_parent = pairs // (codes.max() + 1)
        n_uniq = np.bincount(uniq_parent, minlength=n).astype(np.int64)
    else:
        n_uniq = np.zeros(n, dtype=np.int64)
    denom_tok = np.maximum(n_tokens, 1).astype(np.float64)
    denom_term = np.maximum(n_terms, 1).astype(np.float64)
    return pa.table(
        {
            id_col: t[id_col],
            "n_tokens": pa.array(n_tokens),
            "n_terms": pa.array(n_terms),
            "stop_ratio": pa.array(round4(n_stop / denom_tok)),
            "mean_token_len": pa.array(round4(len_sum / denom_tok)),
            "uniq_ratio": pa.array(round4(n_uniq / denom_term)),
        }
    )


def langid_batch(t: pa.Table, *, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Marker-based language ID: count marker hits per language, argmax
    with LANG_PRIORITY tie order; all-zero -> 'unknown'."""
    content = t[text_col].combine_chunks() if isinstance(t[text_col], pa.ChunkedArray) else t[text_col]
    n = t.num_rows
    parents, values = _split_tokens(content)
    counts = np.zeros((len(LANG_PRIORITY), n), dtype=np.int64)
    for li, lang in enumerate(LANG_PRIORITY):
        hit = pc.is_in(values, value_set=pa.array(LANG_MARKERS[lang])).to_numpy(zero_copy_only=False)
        counts[li] = np.bincount(parents[hit], minlength=n)
    best = counts.argmax(axis=0)  # first max wins -> priority order
    any_hit = counts.max(axis=0) > 0
    pred = np.where(any_hit, np.asarray(LANG_PRIORITY, dtype=object)[best], "unknown")
    return pa.table(
        {
            id_col: t[id_col],
            "pred_lang": pa.array(pred.tolist(), type=pa.string()),
            "marker_hits": pa.array(counts.max(axis=0)),
        }
    )


# BPE-ish pre-tokenizer piece classes (GPT-2-style pre-tokenization,
# RE2-safe: no lookahead, so pyarrow and DuckDB count identically)
BPE_PIECE_PATTERNS: dict[str, str] = {
    "word": "[a-z]+",
    "number": "[0-9]+",
    "punct": "[^a-z0-9\\s]+",
}


def bpe_token_count_batch(
    t: pa.Table, *, text_col: str = "text", id_col: str = "doc_id"
) -> pa.Table:
    """Per-doc counts of BPE-style pre-tokenizer pieces over lowercased
    text (letter runs / digit runs / punctuation runs) — the cheap
    token-budget estimator a training-data pipeline runs corpus-wide.
    One vectorized `count_substring_regex` pass per piece class."""
    content = t[text_col].combine_chunks() if isinstance(t[text_col], pa.ChunkedArray) else t[text_col]
    low = pc.utf8_lower(content)
    cols: dict[str, pa.Array] = {id_col: t[id_col]}
    total = np.zeros(t.num_rows, dtype=np.int64)
    for name, pat in BPE_PIECE_PATTERNS.items():
        c = pc.count_substring_regex(low, pattern=pat).to_numpy(zero_copy_only=False).astype(np.int64)
        cols[f"n_{name}_pieces"] = pa.array(c)
        total += c
    cols["n_pieces"] = pa.array(total)
    return pa.table(cols)


def fingerprint_batch(
    t: pa.Table,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 5,
    window: int = 4,
) -> pa.Table:
    """Winnowing document fingerprints (Schleimer et al., SIGMOD'03):
    rolling hash over k-token shingles, per-window minimum, deduped —
    a compact signature for near-dup detection and provenance.

    Fully vectorized over the batch: ONE flat shingle-hash array with
    per-doc offsets (`_doc_shingles_flat`), one sliding-window-min pass
    with doc-boundary masking, one lexsort dedupe — O(tokens) per
    batch, no per-doc rescans.
    """
    from .dedup import _doc_shingles_flat

    n = t.num_rows
    flat, off = _doc_shingles_flat(t, text_col, k)
    lens = np.diff(off)
    m = len(flat)
    vals_parts: list[np.ndarray] = []
    own_parts: list[np.ndarray] = []
    if m >= window:
        # windows fully inside one doc (docs with >= window shingles)
        owners = np.repeat(np.arange(n, dtype=np.int64), lens)
        sw_min = np.lib.stride_tricks.sliding_window_view(flat, window).min(axis=1)
        p = np.arange(len(sw_min))
        valid = owners[p] == owners[p + window - 1]
        vals_parts.append(sw_min[valid])
        own_parts.append(owners[p[valid]])
    # docs with 1..window-1 shingles keep their single global min
    nonempty = np.flatnonzero(lens > 0)
    if len(nonempty):
        doc_min = np.minimum.reduceat(flat, off[nonempty])
        short = lens[nonempty] < window
        vals_parts.append(doc_min[short])
        own_parts.append(nonempty[short])
    if vals_parts:
        vals = np.concatenate(vals_parts)
        own = np.concatenate(own_parts)
        order = np.lexsort((vals, own))
        vals, own = vals[order], own[order]
        keep = np.r_[True, (own[1:] != own[:-1]) | (vals[1:] != vals[:-1])]
        vals, own = vals[keep], own[keep]
    else:
        vals = np.empty(0, dtype=np.uint64)
        own = np.empty(0, dtype=np.int64)
    counts = np.bincount(own, minlength=n).astype(np.int64)
    list_off = np.r_[0, np.cumsum(counts)]
    return pa.table(
        {
            id_col: t[id_col],
            "fingerprints": pa.ListArray.from_arrays(
                pa.array(list_off, type=pa.int64()).cast(pa.int32()),
                # reinterpret uint64 -> int64 so the values fit Arrow int64
                pa.array(vals.view(np.int64), type=pa.int64()),
            ),
            "n_fingerprints": pa.array(counts),
        }
    )


def _bit_length_u64(x: np.ndarray) -> np.ndarray:
    """Exact vectorized bit_length for uint64 (log2-float is unsafe
    past 53 bits)."""
    bl = np.zeros(len(x), dtype=np.int64)
    v = x.astype(np.uint64, copy=True)
    for shift in (32, 16, 8, 4, 2, 1):
        m = v >= (np.uint64(1) << np.uint64(shift))
        bl[m] += shift
        v[m] >>= np.uint64(shift)
    bl[x > 0] += 1
    return bl


def hll_register_batch(t: pa.Table, *, text_col: str = "text",
                       precision_bits: int = 10) -> pa.Table:
    """Per-batch HyperLogLog partial registers over the token stream:
    bucket = top `precision_bits` bits of the md5-low-64 token hash,
    rho = leading-zero count of the 64-p-bit suffix + 1. max() is
    idempotent, so no per-batch dedup is needed and partials combine
    by a plain grouped max. Emits only the batch's NON-EMPTY buckets
    (<= 2^p rows per batch regardless of batch size)."""
    from .dedup import _token_hashes

    b = precision_bits
    w = 64 - b
    content = t[text_col].combine_chunks() if isinstance(t[text_col], pa.ChunkedArray) else t[text_col]
    _, values = _split_tokens(content)
    if len(values) == 0:
        return pa.table({"bucket": pa.array([], pa.int64()),
                         "rho": pa.array([], pa.int64())})
    h = _token_hashes(values)
    bucket = (h >> np.uint64(w)).astype(np.int64)
    suffix = h & ((np.uint64(1) << np.uint64(w)) - np.uint64(1))
    rho = w - _bit_length_u64(suffix) + 1
    reg = np.zeros(1 << b, dtype=np.int64)
    np.maximum.at(reg, bucket, rho)
    nz = np.flatnonzero(reg)
    return pa.table({"bucket": pa.array(nz), "rho": pa.array(reg[nz])})


def distinct_count_hll(ds, *, text_col: str = "text", precision_bits: int = 10):
    """Distributed distinct-token cardinality sketch: per-batch partial
    registers (bounded at 2^p rows/batch) -> one grouped max over at
    most 2^p keys. The shuffle carries register rows only — never
    tokens — so the cost is independent of corpus size beyond the
    streaming read. Returns a Dataset (bucket, rho) of non-empty
    registers; feed to `hll_estimate` for the cardinality."""
    from .aggregates import sorted_groupby_agg

    def partial(t: pa.Table) -> pa.Table:
        return hll_register_batch(t, text_col=text_col,
                                  precision_bits=precision_bits)

    return sorted_groupby_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["bucket"], [("rho", "max", "rho")],
    )


def hll_estimate(registers, *, precision_bits: int = 10) -> float:
    """Standard bias-corrected HLL estimate (Flajolet et al. 2007)
    from a (bucket, rho) register table/Dataset; empty buckets count
    as rho=0. Expected relative error ~1.04/sqrt(2^p)."""
    if hasattr(registers, "to_pandas"):
        registers = registers.to_pandas()  # <= 2^p rows
    m = 1 << precision_bits
    reg = np.zeros(m, dtype=np.int64)
    if len(registers):
        reg[np.asarray(registers["bucket"], dtype=np.int64)] = np.asarray(
            registers["rho"], dtype=np.int64
        )
    alpha = 0.7213 / (1.0 + 1.079 / m)
    e = alpha * m * m / np.sum(np.exp2(-reg.astype(np.float64)))
    zeros = int((reg == 0).sum())
    if e <= 2.5 * m and zeros:
        e = m * np.log(m / zeros)  # linear-counting small-range fix
    return float(e)


def doc_term_tf_batch(t: pa.Table, *, text_col: str = "text",
                      id_col: str = "doc_id") -> pa.Table:
    """Exploded (doc_id, term, tf) rows for one batch — raw token
    stream (Java trim + lower + punctuation split, stopwords kept,
    mirroring `_TOK_CTE`), per-(doc, term) counts via Arrow's native
    hash group-by (C++, no per-row Python).  A document's text lives
    in ONE row, so the per-batch tf is already the document-global
    tf; only the df side needs a shuffle downstream."""
    out_schema = pa.schema([(id_col, pa.int64()), ("term", pa.string()),
                            ("tf", pa.int64())])
    content = t[text_col]
    if isinstance(content, pa.ChunkedArray):
        content = content.combine_chunks()
    parents, values = _split_tokens(content)
    if len(parents) == 0:
        return pa.table({f.name: pa.array([], f.type) for f in out_schema})
    ids = t[id_col]
    ids = (ids.combine_chunks() if isinstance(ids, pa.ChunkedArray) else ids) \
        .to_numpy(zero_copy_only=False)[parents]
    g = pa.table({id_col: pa.array(ids), "term": values}) \
        .group_by([id_col, "term"]).aggregate([([], "count_all")])
    return pa.table({id_col: g[id_col].cast(pa.int64()),
                     "term": g["term"].cast(pa.string()),
                     "tf": g["count_all"].cast(pa.int64())},
                    schema=out_schema)


def doc_keywords(docs_ds, *, n_docs: int, k: int = 3,
                 text_col: str = "text", id_col: str = "doc_id"):
    """Per-document TF-IDF keyword extraction: the top-``k`` terms of
    every document by ``tf * (N / df)`` (the reference's log-free idf,
    `InvertedIndexManager` TF-IDF flavor), ties broken by ascending
    md5-low-64 of the term — an unsigned total order both numpy and
    DuckDB (`md5_number_lower`) reproduce bit-exactly, so the kept set
    is deterministic across engines.

    Two shuffles total, both range sorts: (1) sort the exploded
    (doc, term, tf) rows by TERM — the sort invariant puts every
    term's rows wholly inside one block, so the per-block run length
    IS the global document frequency and the score attaches in the
    same sweep with no separate df aggregate or join; (2)
    ``topk_per_group`` by doc.  ``n_docs`` comes from parquet footer
    metadata (no counting pass).  The shuffle carries (doc, term, tf)
    rows — the corpus' distinct-pair stream, never positions or
    content."""
    from functools import partial

    from ..functions.hashing import md5_low64_batch
    from .aggregates import topk_per_group

    tf = docs_ds.map_batches(
        partial(doc_term_tf_batch, text_col=text_col, id_col=id_col),
        batch_format="pyarrow")

    scored_schema = pa.schema([(id_col, pa.int64()), ("term", pa.string()),
                               ("score", pa.float64()), ("_tb", pa.uint64())])

    def score_sweep(t: pa.Table) -> pa.Table:
        from .aggregates import key_run_breaks

        if t.num_rows == 0:
            return pa.table({f.name: pa.array([], f.type)
                             for f in scored_schema})
        n = t.num_rows
        brk = key_run_breaks(t, ["term"])
        run_of = np.cumsum(np.r_[0, brk.astype(np.int64)])
        starts = np.flatnonzero(np.r_[True, brk])
        lens = np.diff(np.r_[starts, n]).astype(np.int64)
        df = lens[run_of]                       # global df: term runs are block-local
        tfv = t["tf"]
        tfv = (tfv.combine_chunks() if isinstance(tfv, pa.ChunkedArray)
               else tfv).to_numpy(zero_copy_only=False)
        score = tfv.astype(np.float64) * (float(n_docs) / df.astype(np.float64))
        terms = t["term"]
        terms = (terms.combine_chunks() if isinstance(terms, pa.ChunkedArray)
                 else terms)
        # one md5 per RUN (distinct term), repeated over the run — not
        # one per row
        tb = np.repeat(md5_low64_batch(terms.take(pa.array(starts)).to_pylist()),
                       lens)
        return pa.table({id_col: t[id_col], "term": terms,
                         "score": pa.array(score), "_tb": pa.array(tb)},
                        schema=scored_schema)

    scored = tf.sort("term").map_batches(score_sweep, batch_size=None,
                                         batch_format="pyarrow")
    top = topk_per_group(scored, [id_col], "score", k, tiebreak="_tb",
                         in_schema=scored_schema)
    return top.map_batches(lambda t: t.drop_columns(["_tb"]),
                           batch_format="pyarrow")


# ---------------------------------------------------------------------
# Count-Min Sketch — approximate token frequencies in fixed memory
# ---------------------------------------------------------------------

def _cms_buckets(h: np.ndarray, a: np.ndarray, b: np.ndarray,
                 width_bits: int) -> np.ndarray:
    """(depth, len(h)) bucket ids: the TOP ``width_bits`` bits of the
    universal mix ``(a_r * h + b_r) mod 2^64`` (multiply-shift hashing
    — high bits, where an odd multiplier mixes best).  Replicated
    verbatim by the oracle's UHUGEINT arithmetic."""
    shift = np.uint64(64 - width_bits)
    with np.errstate(over="ignore"):
        return ((a[:, None] * h[None, :] + b[:, None]) >> shift) \
            .astype(np.int64)


def cms_register_batch(t: pa.Table, *, depth: int = 4,
                       width_bits: int = 9, seed: int = 4242,
                       text_col: str = "text") -> pa.Table:
    """Per-batch Count-Min partial registers over the token OCCURRENCE
    stream: for each of ``depth`` hash rows, count occurrences per
    bucket.  Addition commutes, so partials combine by a plain grouped
    sum — each batch emits at most ``depth * 2**width_bits`` register
    rows regardless of batch size."""
    from .dedup import _perm_params, _token_hashes

    content = t[text_col].combine_chunks() \
        if isinstance(t[text_col], pa.ChunkedArray) else t[text_col]
    _, values = _split_tokens(content)
    empty = pa.table({"row": pa.array([], pa.int64()),
                      "bucket": pa.array([], pa.int64()),
                      "cnt": pa.array([], pa.int64())})
    if len(values) == 0:
        return empty
    a, b = _perm_params(depth, seed)
    buckets = _cms_buckets(_token_hashes(values), a, b, width_bits)
    w = 1 << width_bits
    reg = np.zeros((depth, w), dtype=np.int64)
    for r in range(depth):
        np.add.at(reg[r], buckets[r], 1)
    rows, nz = np.nonzero(reg)
    return pa.table({"row": pa.array(rows.astype(np.int64)),
                     "bucket": pa.array(nz.astype(np.int64)),
                     "cnt": pa.array(reg[rows, nz])})


def count_min_sketch(ds, *, depth: int = 4, width_bits: int = 9,
                     seed: int = 4242, text_col: str = "text"):
    """Distributed Count-Min Sketch of token occurrence frequencies:
    per-batch partial registers (bounded rows/batch) -> one grouped
    sum over at most ``depth * 2**width_bits`` keys.  Like the HLL
    sketch, the shuffle carries register rows only — never tokens.
    Returns a Dataset (row, bucket, cnt) of non-empty registers; feed
    to :func:`cms_estimate` for point queries.  Guarantees (classic
    CMS): estimate >= true count always; estimate <= true count +
    eps*N with probability 1-delta for eps=e/width, delta=e^-depth."""
    from functools import partial as _p

    from .aggregates import sorted_groupby_agg

    return sorted_groupby_agg(
        ds.map_batches(_p(cms_register_batch, depth=depth,
                          width_bits=width_bits, seed=seed,
                          text_col=text_col),
                       batch_format="pyarrow"),
        ["row", "bucket"], [("cnt", "sum", "cnt")],
    )


def cms_estimate(registers, tokens, *, depth: int = 4, width_bits: int = 9,
                 seed: int = 4242) -> np.ndarray:
    """Point-query a CMS register table/Dataset for each token string:
    min over hash rows of the bucket count (absent bucket = 0).
    Driver-side over the register table (<= depth * 2**width_bits
    rows — sketch-sized by construction)."""
    from .dedup import _perm_params
    from ..functions.hashing import md5_low64_batch

    if hasattr(registers, "to_pandas"):
        registers = registers.to_pandas()
    reg = np.zeros((depth, 1 << width_bits), dtype=np.int64)
    if len(registers):
        reg[np.asarray(registers["row"], dtype=np.int64),
            np.asarray(registers["bucket"], dtype=np.int64)] = \
            np.asarray(registers["cnt"], dtype=np.int64)
    a, b = _perm_params(depth, seed)
    buckets = _cms_buckets(md5_low64_batch(list(tokens)), a, b, width_bits)
    ests = reg[np.arange(depth)[:, None], buckets]
    return ests.min(axis=0)


# ---------------------------------------------------------------------
# Unigram-LM quality scoring — perplexity-style filtering
# ---------------------------------------------------------------------

def corpus_token_counts(ds, *, text_col: str = "text"):
    """(token, cnt) over the whole corpus.  Per-batch Arrow
    ``value_counts`` partials mean the shuffle carries batch-DISTINCT
    tokens, never the occurrence stream; one sorted grouped sum
    combines them.  Returns a Dataset sized by the vocabulary."""
    from .aggregates import sorted_groupby_agg

    def partial(t: pa.Table) -> pa.Table:
        content = t[text_col]
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        _, values = _split_tokens(content)
        if len(values) == 0:
            return pa.table({"token": pa.array([], pa.large_string()),
                             "cnt": pa.array([], pa.int64())})
        vc = values.value_counts()
        return pa.table({"token": vc.field("values"),
                         "cnt": vc.field("counts").cast(pa.int64())})

    return sorted_groupby_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["token"], [("cnt", "sum", "cnt")],
        in_schema=pa.schema([("token", pa.large_string()),
                             ("cnt", pa.int64())]))


def unigram_logprob(ds, *, top_v: int, oov_count: float = 0.5,
                    text_col: str = "text", id_col: str = "doc_id"):
    """Per-document mean unigram log-likelihood — the CCNet/Gopher
    perplexity-filtering signal, with the LM trained on the corpus
    itself: p(tok) = cnt/N for the ``top_v`` most frequent tokens
    (ties broken by ascending token, the binary order DuckDB and
    Arrow share), p(oov) = ``oov_count``/N otherwise, score = mean of
    ln p over the doc's tokens (0.0 for token-less docs).

    Scale shape: pass 1 is :func:`corpus_token_counts` (vocabulary-
    sized shuffle); the top-V head is selected by one sort+limit and
    broadcast ONCE via ``ray.put`` (V-bounded, never per batch);
    pass 2 is a pure vectorized map — ``pc.index_in`` against the
    broadcast vocab, one ``np.bincount`` pair per batch.  Returns
    (id_col, n_tokens, logprob)."""
    import ray

    if not (isinstance(top_v, int) and top_v >= 1):
        raise ValueError(f"top_v must be a positive int, got {top_v!r}")
    if not oov_count > 0:
        raise ValueError("oov_count must be > 0 (ln of a zero "
                         "probability is undefined)")
    counts = corpus_token_counts(ds, text_col=text_col).materialize()
    n_total = counts.sum("cnt") or 0
    head = counts.sort(["cnt", "token"],
                       descending=[True, False]).limit(top_v).take_all()
    vocab = pa.array([r["token"] for r in head], pa.large_string())
    logp = np.log(np.array([r["cnt"] for r in head], dtype=np.float64)
                  / max(n_total, 1))
    log_floor = float(np.log(oov_count / max(n_total, 1)))
    shared = ray.put((vocab, logp))

    def score(t: pa.Table) -> pa.Table:
        voc, lp = ray.get(shared)
        content = t[text_col]
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        parents, values = _split_tokens(content)
        n = t.num_rows
        ntok = np.bincount(parents, minlength=n).astype(np.int64)
        idx = pc.index_in(values, value_set=voc) \
            .to_numpy(zero_copy_only=False)
        oov = np.isnan(idx) if idx.dtype.kind == "f" else (idx < 0)
        tok_lp = np.where(oov, log_floor,
                          lp[np.where(oov, 0, idx).astype(np.int64)])
        sums = np.bincount(parents, weights=tok_lp, minlength=n)
        mean = np.divide(sums, ntok, out=np.zeros(n, dtype=np.float64),
                         where=ntok > 0)
        return pa.table({id_col: t[id_col],
                         "n_tokens": pa.array(ntok),
                         "logprob": pa.array(mean)})

    return ds.map_batches(score, batch_format="pyarrow")


def corpus_bigram_counts(ds, *, text_col: str = "text"):
    """(gram, cnt) over every adjacent token pair in the corpus
    (space-joined — a split-class char, so the join is injective).
    Same scale shape as :func:`corpus_token_counts`: per-batch Arrow
    ``value_counts`` partials mean the shuffle carries batch-DISTINCT
    bigrams, never the occurrence stream; one sorted grouped sum
    combines them.  Returns a Dataset sized by the bigram
    vocabulary."""
    from .aggregates import sorted_groupby_agg

    def partial(t: pa.Table) -> pa.Table:
        content = t[text_col]
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        parents, values = _split_tokens(content)
        _, grams = ngram_strings(parents, values, 2)
        if len(grams) == 0:
            return pa.table({"gram": pa.array([], pa.large_string()),
                             "cnt": pa.array([], pa.int64())})
        vc = grams.value_counts()
        return pa.table({"gram": vc.field("values").cast(pa.large_string()),
                         "cnt": vc.field("counts").cast(pa.int64())})

    return sorted_groupby_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["gram"], [("cnt", "sum", "cnt")],
        in_schema=pa.schema([("gram", pa.large_string()),
                             ("cnt", pa.int64())]))


def bigram_logprob(ds, *, top_v: int, oov_count: float = 0.5,
                   text_col: str = "text", id_col: str = "doc_id"):
    """Per-document mean CONDITIONAL bigram log-likelihood — the
    KenLM-flavored step up from :func:`unigram_logprob`: for the
    ``top_v`` most frequent bigrams (ties by ascending gram, the
    binary order DuckDB and Arrow share) p(w2|w1) = c(w1 w2)/c(w1)
    with c(w1) the corpus-wide unigram count; any other bigram takes
    the floor p = ``oov_count``/N_bigrams.  Score = mean ln p over the
    doc's adjacent pairs (0.0 for docs with < 2 tokens).

    Scale shape: pass 1 is :func:`corpus_bigram_counts` +
    :func:`corpus_token_counts` (both vocabulary-sized shuffles); the
    V-row head and its left-token counts are assembled on the driver
    (V-bounded — the unigram lookup FILTERS the counts Dataset to the
    head's w1 set, streaming, before the bounded collect) and
    broadcast ONCE via ``ray.put``; pass 2 is a pure vectorized map —
    ``pc.index_in`` against the broadcast head, one ``np.bincount``
    pair per batch.  Returns (id_col, n_bigrams, logprob)."""
    import ray

    if not (isinstance(top_v, int) and top_v >= 1):
        raise ValueError(f"top_v must be a positive int, got {top_v!r}")
    if not oov_count > 0:
        raise ValueError("oov_count must be > 0 (ln of a zero "
                         "probability is undefined)")

    bcounts = corpus_bigram_counts(ds, text_col=text_col).materialize()
    n_total = bcounts.sum("cnt") or 0
    head = bcounts.sort(["cnt", "gram"],
                        descending=[True, False]).limit(top_v).take_all()
    grams = [r["gram"] for r in head]
    cb = np.array([r["cnt"] for r in head], dtype=np.float64)
    w1s = sorted({g.split(" ", 1)[0] for g in grams})

    def pick(t: pa.Table) -> pa.Table:
        m = pc.is_in(t["token"],
                     value_set=pa.array(w1s, pa.large_string()))
        return t.filter(m)

    u_rows = corpus_token_counts(ds, text_col=text_col) \
        .map_batches(pick, batch_format="pyarrow").take_all()
    c1 = {r["token"]: float(r["cnt"]) for r in u_rows}
    logp = (np.log(cb / np.array([c1[g.split(" ", 1)[0]] for g in grams],
                                 dtype=np.float64))
            if grams else np.array([], dtype=np.float64))
    vocab = pa.array(grams, pa.large_string())
    log_floor = float(np.log(oov_count / max(n_total, 1)))
    shared = ray.put((vocab, logp))

    def score(t: pa.Table) -> pa.Table:
        voc, lp = ray.get(shared)
        content = t[text_col]
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        parents, values = _split_tokens(content)
        gparents, grams_b = ngram_strings(parents, values, 2)
        n = t.num_rows
        nbig = np.bincount(gparents, minlength=n).astype(np.int64)
        idx = pc.index_in(grams_b, value_set=voc) \
            .to_numpy(zero_copy_only=False)
        oov = np.isnan(idx) if idx.dtype.kind == "f" else (idx < 0)
        tok_lp = (np.where(oov, log_floor,
                           lp[np.where(oov, 0, idx).astype(np.int64)])
                  if len(idx) else np.array([], dtype=np.float64))
        sums = np.bincount(gparents, weights=tok_lp, minlength=n)
        mean = np.divide(sums, nbig, out=np.zeros(n, dtype=np.float64),
                         where=nbig > 0)
        return pa.table({id_col: t[id_col],
                         "n_bigrams": pa.array(nbig),
                         "logprob": pa.array(mean)})

    return ds.map_batches(score, batch_format="pyarrow")


def token_entropy(ds, *, text_col: str = "text", id_col: str = "doc_id"):
    """Per-document lexical-diversity quality signals: Shannon entropy
    of the doc's OWN token distribution (H = -Σ p ln p, p = tf/len —
    low entropy flags repetitive/boilerplate docs) and the type-token
    ratio (distinct/total, exact integer division).  The machine-
    generated-text gate complementing the n-gram repetition stats.

    Pure per-batch map, no shuffle: one ``dictionary_encode`` per
    batch, one composite (doc, token-code) ``np.unique`` for the
    per-doc tf runs, two ``np.bincount`` sweeps for the entropy sum
    and the distinct count.  Token-less docs emit (0, 0, 0.0, 0.0).
    Returns (id_col, n_tokens, n_distinct, entropy, ttr); the negation
    happens AFTER the per-doc sum, matching the SQL oracle's
    ``-sum(p*ln(p))`` shape."""

    def score(t: pa.Table) -> pa.Table:
        content = t[text_col]
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        parents, values = _split_tokens(content)
        n = t.num_rows
        ntok = np.bincount(parents, minlength=n).astype(np.int64)
        if len(values):
            d = values.dictionary_encode()
            codes = d.indices.to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            card = len(d.dictionary)
            comp = parents.astype(np.int64) * card + codes
            uniq, cnt = np.unique(comp, return_counts=True)
            udoc = (uniq // card).astype(np.int64)
            ndis = np.bincount(udoc, minlength=n).astype(np.int64)
            p = cnt.astype(np.float64) / ntok[udoc].astype(np.float64)
            ent = -np.bincount(udoc, weights=p * np.log(p), minlength=n)
        else:
            ndis = np.zeros(n, dtype=np.int64)
            ent = np.zeros(n, dtype=np.float64)
        # -0.0 from a single-token doc normalizes to +0.0
        ent = ent + 0.0
        ttr = np.divide(ndis.astype(np.float64), ntok.astype(np.float64),
                        out=np.zeros(n, dtype=np.float64), where=ntok > 0)
        return pa.table({id_col: t[id_col],
                         "n_tokens": pa.array(ntok),
                         "n_distinct": pa.array(ndis),
                         "entropy": pa.array(ent),
                         "ttr": pa.array(ttr)})

    return ds.map_batches(score, batch_format="pyarrow")


def hll_registers_per_group(ds, key_col: str, *, text_col: str = "text",
                            precision_bits: int = 10):
    """GROUPED HyperLogLog distinct-token sketch — the scale path for
    per-domain/per-language distinct counts: per batch, one
    ``np.maximum.at`` over a (batch-keys × 2^p) register plane bounds
    the partial at distinct-(key, bucket) rows regardless of batch
    size; one grouped max over (key, bucket) combines them — the
    shuffle carries register rows, never tokens, exactly like the
    global :func:`distinct_count_hll` but keyed.  Registers stay
    deterministic given md5-low-64, so the grouped SKETCH (not just
    its estimate) is SQL-value-checkable.  Returns a Dataset
    (key_col, bucket, rho)."""
    from .aggregates import sorted_groupby_agg
    from .dedup import _token_hashes

    b = precision_bits
    w = 64 - b
    m = 1 << b

    def partial(t: pa.Table) -> pa.Table:
        content = t[text_col]
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        keys = t[key_col]
        keys = keys.combine_chunks() if isinstance(keys, pa.ChunkedArray) \
            else keys
        empty = pa.table({key_col: pa.array([], keys.type),
                          "bucket": pa.array([], pa.int64()),
                          "rho": pa.array([], pa.int64())})
        parents, values = _split_tokens(content)
        if len(values) == 0:
            return empty
        h = _token_hashes(values)
        bucket = (h >> np.uint64(w)).astype(np.int64)
        suffix = h & ((np.uint64(1) << np.uint64(w)) - np.uint64(1))
        rho = w - _bit_length_u64(suffix) + 1
        # dictionary-encode the per-token key so one maximum.at over a
        # (n_keys x m) plane collapses the batch
        dkeys = keys.dictionary_encode()
        codes = dkeys.indices.to_numpy(zero_copy_only=False) \
            .astype(np.int64)[parents]
        n_keys = len(dkeys.dictionary)
        plane = np.zeros(n_keys * m, dtype=np.int64)
        np.maximum.at(plane, codes * m + bucket, rho)
        nz = np.flatnonzero(plane)
        return pa.table({
            key_col: dkeys.dictionary.take(pa.array(nz // m)),
            "bucket": pa.array(nz % m),
            "rho": pa.array(plane[nz]),
        })

    return sorted_groupby_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        [key_col, "bucket"], [("rho", "max", "rho")])


# ---------------------------------------------------------------------
# Composite document quality gate (Gopher-style rule battery)
# ---------------------------------------------------------------------

# Integer-arithmetic rule constants: every threshold is expressed as a
# cross-multiplied INTEGER comparison (no float literal ever enters a
# comparison), so the SQL oracle replays each rule bit-exactly.
QUALITY_RULES = {
    "min_tokens": 16,        # bit 1: n_tokens < 16 or > 96
    "max_tokens": 96,
    "stop_mul": 25,          # bit 2: n_stop * 25 < n_tokens  (< 4%)
    "len_lo_mul": (10, 42),  # bit 4: len_sum*10 < 42*n_tokens (< 4.2)
    "len_hi_mul": (10, 48),  #        or len_sum*10 > 48*n_tokens
    "uniq_mul": (5, 2),      # bit 8: n_uniq*5 < 2*max(n_terms,1) (<0.4)
    "dup_mul": 10,           # bit 16: dup_bigrams*10 >= total_bigrams
}


def quality_gate_batch(t: pa.Table, *, text_col: str = "text",
                       id_col: str = "doc_id") -> pa.Table:
    """Composite quality gate (the Gopher/C4-style rule battery run by
    refined-web curation pipelines): ONE tokenize pass per batch feeds
    five rules — token-count range, minimum stopword fraction, mean
    token length band, distinct-term ratio, duplicate-bigram fraction
    — each reported as a bit in ``reasons`` (1, 2, 4, 8, 16);
    ``keep = (reasons == 0)``.  All thresholds are cross-multiplied
    integer comparisons, so there is no float boundary anywhere.  Pure
    map, no shuffle, no state."""
    content = t[text_col]
    if isinstance(content, pa.ChunkedArray):
        content = content.combine_chunks()
    n = t.num_rows
    if n == 0:
        return pa.table({id_col: pa.array([], pa.int64()),
                         "reasons": pa.array([], pa.int64()),
                         "keep": pa.array([], pa.bool_())})
    parents, values = _split_tokens(content)
    n_tokens = np.bincount(parents, minlength=n).astype(np.int64)
    is_stop = pc.is_in(values, value_set=_STOP_PA) \
        .to_numpy(zero_copy_only=False)
    n_stop = np.bincount(parents[is_stop], minlength=n).astype(np.int64)
    n_terms = n_tokens - n_stop
    tok_len = pc.utf8_length(values).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    len_sum = np.bincount(parents, weights=tok_len, minlength=n) \
        .astype(np.int64)
    nonstop_par = parents[~is_stop]
    codes = values.filter(pa.array(~is_stop)).dictionary_encode() \
        .indices.to_numpy(zero_copy_only=False)
    if len(nonstop_par):
        pairs = np.unique(
            nonstop_par.astype(np.int64) * (int(codes.max()) + 1) + codes)
        n_uniq = np.bincount(pairs // (int(codes.max()) + 1),
                             minlength=n).astype(np.int64)
    else:
        n_uniq = np.zeros(n, dtype=np.int64)
    # bigram duplicate occurrences (within-doc)
    gpar, grams = ngram_strings(parents, values, 2)
    dup = np.zeros(n, dtype=np.int64)
    tot = np.zeros(n, dtype=np.int64)
    if len(gpar):
        gc = grams.dictionary_encode().indices \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        k = int(gc.max()) + 1
        pk, pcnt = np.unique(gpar.astype(np.int64) * k + gc,
                             return_counts=True)
        pdoc = pk // k
        tot = np.bincount(gpar, minlength=n).astype(np.int64)
        dup = np.bincount(pdoc[pcnt > 1], weights=pcnt[pcnt > 1],
                          minlength=n).astype(np.int64)
    R = QUALITY_RULES
    reasons = np.zeros(n, dtype=np.int64)
    reasons |= ((n_tokens < R["min_tokens"])
                | (n_tokens > R["max_tokens"])) * 1
    reasons |= (n_stop * R["stop_mul"] < n_tokens) * 2
    (lm, lo), (hm, hi) = R["len_lo_mul"], R["len_hi_mul"]
    reasons |= ((len_sum * lm < lo * n_tokens)
                | (len_sum * hm > hi * n_tokens)) * 4
    um, un = R["uniq_mul"]
    reasons |= (n_uniq * um < un * np.maximum(n_terms, 1)) * 8
    reasons |= ((dup * R["dup_mul"] >= tot) & (tot > 0)) * 16
    return pa.table({id_col: t[id_col],
                     "reasons": pa.array(reasons),
                     "keep": pa.array(reasons == 0)})


# ---------------------------------------------------------------------
# Best-window snippet extraction (search-result highlighting)
# ---------------------------------------------------------------------

def best_window_snippets(ds, terms, *, window: int = 8,
                         text_col: str = "text", id_col: str = "doc_id"):
    """Serving-side snippet generation: for each document containing at
    least one query term, the ``window``-token span with the MOST query
    -term hits (ties: smallest start) over the punctuation-tokenized
    stream (stopwords retained, no stemming — token-level match, the
    same stream the dup-passage family scans).  Returns
    (id_col, start, n_hits, snippet): ``start`` is the 0-based token
    offset, ``snippet`` the space-joined span.

    Fully vectorized pure map: the optimum window starts AT a hit, so
    per batch the candidate set is the hit positions; hits are encoded
    as doc*2^32 + pos and ONE ``searchsorted`` per batch counts the
    hits inside every candidate's window; per-doc argmax via
    ``reduceat``; the snippet strings are built with a segmented
    arange + one Arrow take + ``binary_join``.  No shuffle, no state.
    """
    if not terms:
        raise ValueError("terms must be non-empty")
    if not (isinstance(window, int) and window >= 1):
        raise ValueError(f"window must be a positive int, got {window!r}")
    term_set = pa.array(sorted(set(terms)), pa.string())
    big = np.int64(1) << 32  # > any doc's token count + window

    out_schema = pa.schema([(id_col, pa.int64()),
                            ("start", pa.int64()),
                            ("n_hits", pa.int64()),
                            ("snippet", pa.string())])

    def apply(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        content = t[text_col]
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        parents, values = _split_tokens(content)
        if len(parents) == 0:
            return out_schema.empty_table()
        n = t.num_rows
        n_tok = np.bincount(parents, minlength=n).astype(np.int64)
        doc_off = np.r_[0, np.cumsum(n_tok)]
        pos = np.arange(len(parents), dtype=np.int64) - doc_off[parents]
        hit = pc.is_in(values, value_set=term_set) \
            .to_numpy(zero_copy_only=False)
        if not hit.any():
            return out_schema.empty_table()
        hdoc = parents[hit].astype(np.int64)
        hp = pos[hit]
        key = hdoc * big + hp             # sorted by construction
        cnt = np.searchsorted(key, key + window, side="left") \
            - np.arange(len(key))
        runs = np.flatnonzero(np.r_[True, hdoc[1:] != hdoc[:-1]])
        maxc = np.maximum.reduceat(cnt, runs)
        run_id = np.cumsum(np.r_[0, (hdoc[1:] != hdoc[:-1])
                                 .astype(np.int64)])
        # first (smallest-start) hit achieving the run max
        cand = np.where(cnt == maxc[run_id], np.arange(len(cnt)),
                        len(cnt))
        best_idx = np.minimum.reduceat(cand, runs)
        docs = hdoc[best_idx]
        starts = hp[best_idx]
        # snippet token spans, clipped to the doc end
        lens = np.minimum(window, n_tok[docs] - starts)
        flat = np.repeat(doc_off[docs] + starts, lens) \
            + (np.arange(int(lens.sum()), dtype=np.int64)
               - np.repeat(np.r_[0, np.cumsum(lens)][:-1], lens))
        toks = values.take(pa.array(flat))
        offs = np.r_[0, np.cumsum(lens)].astype(np.int32)
        snip = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(offs, pa.int32()), toks),
            " ")
        ids = t[id_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)[docs]
        return pa.table({id_col: pa.array(ids),
                         "start": pa.array(starts),
                         "n_hits": pa.array(cnt[best_idx]),
                         "snippet": snip})

    return ds.map_batches(apply, batch_format="pyarrow")


def source_vocab_overlap(ds, *, text_col: str = "text",
                         group_col: str = "source"):
    """Pairwise VOCABULARY Jaccard between document groups (the corpus
    mixture-analysis signal: how much do two sources share a
    vocabulary?).  Rows (a, b, inter, n_a, n_b, jaccard) for every
    group pair (a < b, string order) sharing at least one token type.

    Tokens are the raw punctuation-tokenized stream (stopwords
    retained) hashed to md5-low-64 so the shuffle never carries token
    TEXT and DuckDB ``md5_number_lower`` replays every membership
    decision, collisions included.  Plan: per-batch local distinct
    (group, hash) pairs -> ONE grouped distinct (vocabulary-sized
    narrow exchange) -> ONE range sort by hash with a segmented
    all-pairs sweep per run (each token type appears in at most
    |groups| rows, so a run's pair fan-out is bounded by C(|groups|,2)
    — never document-sized) -> pair-keyed grouped count; per-group
    vocabulary sizes are a group-bounded driver collect broadcast into
    the final map.  jaccard = inter / (n_a + n_b - inter), ONE
    replayable IEEE division (rounding is the caller's concern).
    """
    import ray

    from ..functions.hashing import md5_low64_batch
    from .aggregates import sorted_groupby_agg

    def distinct_pairs(t: pa.Table) -> pa.Table:
        empty = pa.table({group_col: pa.array([], pa.string()),
                          "h": pa.array([], pa.uint64())})
        if t.num_rows == 0:
            return empty
        content = t[text_col].combine_chunks() \
            if isinstance(t[text_col], pa.ChunkedArray) else t[text_col]
        parents, values = _split_tokens(content)
        if len(values) == 0:
            return empty
        g = t[group_col]
        g = g.combine_chunks() if isinstance(g, pa.ChunkedArray) else g
        codes = parents  # doc row index per token
        h = md5_low64_batch(values.to_pylist())
        # local distinct on (doc-group, hash): group strings dedup via
        # the doc's group VALUE, not row — map rows to group codes
        gd = g.dictionary_encode()
        gcode = gd.indices.to_numpy(zero_copy_only=False)[codes]
        order = np.lexsort((h, gcode))
        gs, hs = gcode[order], h[order]
        first = np.r_[True, (gs[1:] != gs[:-1]) | (hs[1:] != hs[:-1])]
        return pa.table({
            group_col: gd.dictionary.take(pa.array(gs[first])),
            "h": pa.array(hs[first]),
        })

    pair_schema = pa.schema([(group_col, pa.string()), ("h", pa.uint64())])
    vocab = sorted_groupby_agg(
        ds.map_batches(distinct_pairs, batch_format="pyarrow"),
        [group_col, "h"], [("h", "count", "_m")],
        in_schema=pair_schema).map_batches(
            lambda t: t.drop_columns(["_m"]), batch_format="pyarrow") \
        .materialize()

    sizes = sorted_groupby_agg(
        vocab, [group_col], [(group_col, "count", "n")],
        in_schema=pair_schema)
    # group-bounded collect (|groups| rows by contract), broadcast once
    sz = {}
    for b in sizes.iter_batches(batch_format="pyarrow"):
        if b.num_rows == 0 or group_col not in b.column_names:
            continue
        for k, v in zip(b[group_col].to_pylist(), b["n"].to_pylist()):
            sz[k] = int(v)
    sz_ref = ray.put(sz)

    def run_pairs(t: pa.Table) -> pa.Table:
        empty = pa.table({"a": pa.array([], pa.string()),
                          "b": pa.array([], pa.string())})
        if t.num_rows == 0 or "h" not in t.column_names:
            return empty
        h = t["h"].to_numpy(zero_copy_only=False)
        g = t[group_col]
        g = g.combine_chunks() if isinstance(g, pa.ChunkedArray) else g
        gnp = np.asarray(g.to_pylist(), dtype=object)
        order = np.lexsort((gnp, h))
        h, gnp = h[order], gnp[order]
        n = len(h)
        starts = np.flatnonzero(np.r_[True, h[1:] != h[:-1]])
        lens = np.diff(np.r_[starts, n]).astype(np.int64)
        per_left = np.repeat(starts + lens, lens) \
            - np.arange(n, dtype=np.int64) - 1
        total = int(per_left.sum())
        if total == 0:
            return empty
        seg_off = np.r_[0, np.cumsum(per_left)[:-1]]
        li = np.repeat(np.arange(n, dtype=np.int64), per_left)
        ri = li + 1 + (np.arange(total, dtype=np.int64)
                       - np.repeat(seg_off, per_left))
        return pa.table({"a": pa.array(gnp[li], pa.string()),
                         "b": pa.array(gnp[ri], pa.string())})

    inter = sorted_groupby_agg(
        vocab.sort("h").map_batches(run_pairs, batch_size=None,
                                    batch_format="pyarrow"),
        ["a", "b"], [("a", "count", "inter")],
        in_schema=pa.schema([("a", pa.string()), ("b", pa.string())]))

    def finish(t: pa.Table, _s=sz_ref) -> pa.Table:
        empty = pa.table({"a": pa.array([], pa.string()),
                          "b": pa.array([], pa.string()),
                          "inter": pa.array([], pa.int64()),
                          "n_a": pa.array([], pa.int64()),
                          "n_b": pa.array([], pa.int64()),
                          "jaccard": pa.array([], pa.float64())})
        if t.num_rows == 0 or "a" not in t.column_names:
            return empty
        import ray as _ray

        szd = _ray.get(_s)
        a = t["a"].to_pylist()
        b = t["b"].to_pylist()
        ii = t["inter"].to_numpy(zero_copy_only=False).astype(np.int64)
        na = np.array([szd[x] for x in a], dtype=np.int64)
        nb = np.array([szd[x] for x in b], dtype=np.int64)
        # int64 union size, ONE float division — the SQL expression
        jac = ii.astype(np.float64) / (na + nb - ii).astype(np.float64)
        return pa.table({"a": t["a"], "b": t["b"], "inter": t["inter"],
                         "n_a": pa.array(na), "n_b": pa.array(nb),
                         "jaccard": pa.array(jac)})

    return inter.map_batches(finish, batch_format="pyarrow")


def group_token_entropy(ds, *, text_col: str = "text",
                        group_col: str = "source"):
    """Shannon entropy (nats) of each group's token-TYPE distribution —
    the corpus mixture-diversity signal next to
    :func:`source_vocab_overlap`'s pairwise Jaccard.  Rows
    (``group_col``, n_tokens, vocab, entropy) with

        H = ln(n) − (Σ_t c_t·ln c_t) / n

    over per-type counts c_t, n = Σ c_t.  Tokens are the raw
    punctuation-tokenized stream (stopwords retained) hashed md5-low-64
    so the shuffle never carries token TEXT and DuckDB
    ``md5_number_lower`` replays every type-merge decision, collisions
    included.

    Plan: per-batch LOCAL (group, hash) counts (lexsort + run-length,
    one row per type per batch) → ONE vocabulary-sized grouped sum →
    per-batch (group, Σc, Σc·ln c, type-count) partials → one
    group-bounded grouped sum → closed-form finalize.  Counts stay
    int64 end to end (n and vocab are exact); only Σ c·ln c carries
    IEEE summation-order drift (the driver query gates entropy at 4
    decimals).
    """
    from ..functions.hashing import md5_low64_batch
    from .aggregates import sorted_groupby_agg

    cnt_schema = pa.schema([(group_col, pa.string()), ("h", pa.uint64()),
                            ("c", pa.int64())])

    def local_counts(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return cnt_schema.empty_table()
        content = t[text_col].combine_chunks() \
            if isinstance(t[text_col], pa.ChunkedArray) else t[text_col]
        parents, values = _split_tokens(content)
        if len(values) == 0:
            return cnt_schema.empty_table()
        g = t[group_col]
        g = g.combine_chunks() if isinstance(g, pa.ChunkedArray) else g
        gd = g.dictionary_encode()
        gcode = gd.indices.to_numpy(zero_copy_only=False)[parents]
        h = md5_low64_batch(values.to_pylist())
        order = np.lexsort((h, gcode))
        gs, hs = gcode[order], h[order]
        starts = np.flatnonzero(
            np.r_[True, (gs[1:] != gs[:-1]) | (hs[1:] != hs[:-1])])
        c = np.diff(np.r_[starts, len(gs)]).astype(np.int64)
        return pa.table({
            group_col: gd.dictionary.take(pa.array(gs[starts])),
            "h": pa.array(hs[starts]),
            "c": pa.array(c),
        })

    counts = sorted_groupby_agg(
        ds.map_batches(local_counts, batch_format="pyarrow"),
        [group_col, "h"], [("c", "sum", "c")], in_schema=cnt_schema)

    part_schema = pa.schema([(group_col, pa.string()),
                             ("n", pa.int64()), ("vocab", pa.int64()),
                             ("s", pa.float64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        g = t[group_col]
        g = g.combine_chunks() if isinstance(g, pa.ChunkedArray) else g
        gd = g.dictionary_encode()
        codes = gd.indices.to_numpy(zero_copy_only=False)
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(codes, kind="stable")
        cs, cc = codes[order], c[order]
        starts = np.flatnonzero(np.r_[True, cs[1:] != cs[:-1]])
        cf = cc.astype(np.float64)
        return pa.table({
            group_col: gd.dictionary.take(pa.array(cs[starts])),
            "n": pa.array(np.add.reduceat(cc, starts)),
            "vocab": pa.array(np.diff(
                np.r_[starts, len(cs)]).astype(np.int64)),
            "s": pa.array(np.add.reduceat(cf * np.log(cf), starts)),
        })

    agg = sorted_groupby_agg(
        counts.map_batches(partial, batch_format="pyarrow"),
        [group_col],
        [("n", "sum", "n_tokens"), ("vocab", "sum", "vocab"),
         ("s", "sum", "s")],
        in_schema=part_schema)

    out_schema = pa.schema([(group_col, pa.string()),
                            ("n_tokens", pa.int64()),
                            ("vocab", pa.int64()),
                            ("entropy", pa.float64())])

    def finalize(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        n = t["n_tokens"].to_numpy(zero_copy_only=False).astype(np.float64)
        s = t["s"].to_numpy(zero_copy_only=False)
        return pa.table({
            group_col: t[group_col],
            "n_tokens": t["n_tokens"],
            "vocab": t["vocab"],
            "entropy": pa.array(np.log(n) - s / n),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")
