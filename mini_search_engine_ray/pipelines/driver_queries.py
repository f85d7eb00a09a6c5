"""Driver-facing query registry: Ray pipelines + DuckDB oracle SQL.

Each entry in QUERIES is a callable `f(sf_dir) -> Dataset | DataFrame |
pyarrow.Table`; ORACLE_SQL holds the equivalent ANSI SQL that DuckDB
runs on the same parquet tables (views: documents, embeddings, ...).
Column names and rounding are kept EXACTLY in sync between both sides
(the driver hash-compares values after sorting columns by name).

Plan steps every query shares live in `plan.py`: `read_table` is the
one read of an `sf_dir` table, and `shape(schema, r4=..., rename=...)`
is the one result-shaping map (typed empty on an empty block, then
take, round and cast each declared field). `_r4` and `_non_null_numpy`
(the null check in front of every exact int64 conversion) live there
too.

Tokenization parity: the SQL tokenizer is the same RE2 character class
as `functions/tokenizers.PUNCT_SPLIT_RE2`, verified byte-identical over
the test corpus. SQL-checked search/scoring queries therefore run the
index with the `punctuation` analyzer (no stemming — Porter isn't
SQL-expressible; the stemmed path is covered by pytest golden vectors
and the brute-force oracle, plus the *_golden VALUES oracles below).

Rounding: round-half-up via floor(x*10000 + 0.5)/10000 on BOTH sides
(numpy round is banker's, DuckDB round is half-away — neither matches
the other, so we use an explicit common formula).
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa

from ..functions.stopwords import STOP_WORDS
from ..functions.tokenizers import PUNCT_SPLIT_RE2
from .plan import _codes, _non_null_numpy, _r4, _ts_int64, read_table, shape

FORMAT_VERSION = "v2"  # bump to invalidate /tmp index caches on format change

# ---------------------------------------------------------------------
# SQL fragments
# ---------------------------------------------------------------------

_SQL_CLASS = "[,.;?! ^\\f\\n\\r\\t\\x0B\\x85\\x{2028}\\x{2029}]+"
assert _SQL_CLASS == PUNCT_SPLIT_RE2
_STOP_IN = "(" + ",".join(f"'{w}'" for w in sorted(STOP_WORDS)) + ")"

# Java String.trim() charset (chars <= U+0020) — mirrors
# tokenizers.JAVA_TRIM_CHARS exactly (DuckDB accepts chr(0))
_SQL_TRIM = "||".join(f"chr({i})" for i in range(0x21))

_TOK_CTE = f"""
tok AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(trim(text, {_SQL_TRIM})),
                                           '{_SQL_CLASS}'),
                     x -> x <> '') AS toks
  FROM documents
)
"""

_BASE_CTE = f"""{_TOK_CTE},
base AS (
  SELECT doc_id, toks,
         list_filter(toks, x -> x NOT IN {_STOP_IN}) AS terms
  FROM tok
)
"""

_R4 = "floor({expr} * 10000 + 0.5) / 10000"

# ---------------------------------------------------------------------
# 64-bit sketch arithmetic in SQL (MinHash / SimHash / winnowing
# oracles). The engine's token hash is the LOW 64 bits of md5
# (== DuckDB md5_number_lower), all mixing is mod-2^64 — UHUGEINT
# intermediates replicate numpy uint64 wraparound exactly (verified
# bit-for-bit in tests/test_driver_parity.py).
# ---------------------------------------------------------------------

_M64 = "18446744073709551616::UHUGEINT"   # 2^64
_MIX64 = "11400714819323198485::UHUGEINT"  # 0x9E3779B97F4A7C15
_MAXU64 = "18446744073709551615::UHUGEINT"

# token-hash rows: one row per (doc, position), stopwords INCLUDED
# (sketches run over the raw token stream, like stages/textstats
# _split_tokens)
_TOKHASH_CTE = """
tokpos AS (
  SELECT doc_id, unnest(toks) AS tok, generate_subscripts(toks, 1) AS pos
  FROM tok
),
th AS (
  SELECT doc_id, pos, md5_number_lower(tok) AS h,
         count(*) OVER (PARTITION BY doc_id) AS ntok
  FROM tokpos
)
"""


def _u64_to_i64(expr: str) -> str:
    """Reinterpret a UHUGEINT (< 2^64) as signed int64 (numpy .view)."""
    return (
        f"CASE WHEN ({expr}) >= 9223372036854775808::UHUGEINT "
        f"THEN (({expr})::HUGEINT - 18446744073709551616::HUGEINT)::BIGINT "
        f"ELSE ({expr})::BIGINT END"
    )


def _shingle_cte(k: int) -> str:
    """Shingle hashes per (doc, start-pos): polynomial mix of k
    consecutive token hashes mod 2^64 (dedup._shingle_hashes); docs
    shorter than k keep their raw token hashes as 'shingles'."""
    expr = "h::UHUGEINT"
    for j in range(1, k):
        expr = f"((({expr}) * {_MIX64}) % {_M64} + (lead(h, {j}) OVER w)::UHUGEINT) % {_M64}"
    return f"""
sh0 AS (
  SELECT doc_id, pos, ntok, h, {expr} AS s
  FROM th WINDOW w AS (PARTITION BY doc_id ORDER BY pos)
),
shingles AS (
  SELECT doc_id, pos, CASE WHEN ntok < {k} THEN h::UHUGEINT ELSE s END AS s
  FROM sh0 WHERE ntok < {k} OR pos <= ntok - {k} + 1
)
"""


def _poly_list(items: list[str]) -> str:
    """acc = (acc * MIX + item) mod 2^64 over a list of UHUGEINT exprs."""
    expr = items[0]
    for it in items[1:]:
        expr = f"((({expr}) * {_MIX64}) % {_M64} + {it}) % {_M64}"
    return expr


# query constants (fixed, present in the synthetic documents vocabulary)
KW = "spark"
AND_TERMS = ["window", "merge"]
OR_TERMS = ["spark", "vector"]
PHRASE = ["key", "agg"]
PHRASE3 = ["table", "part", "hash"]
PREFIX = "par"
NOT_INCLUDE = ["window"]
NOT_EXCLUDE = ["merge"]
NEAR_PAIR = ["key", "agg"]
NEAR_SLOP = 2
FUZZY_Q = "mart"
FUZZY_EDITS = 2
WILDCARD_PAT = "s*a*"
BM25_TERMS = ["spark", "window", "merge"]
TFIDF_TERMS = ["table", "row", "scan"]
TOPK = 10
ANN_QUERY_IDS = 5
ANN_K = 10


# ---------------------------------------------------------------------
# index cache (shared across query callables)
# ---------------------------------------------------------------------


def _cache_root() -> str:
    return os.environ.get("MSR_CACHE_DIR", "/tmp/msr_driver_cache")


def get_index(sf_dir: str, *, analyzer: str = "punctuation", positional: bool = True) -> str:
    """Build (or reuse) the documents-table index for sf_dir."""
    from ..sources.corpus import adapt_documents_table, corpus_fingerprint
    from .build import build_index, load_meta

    src = os.path.join(sf_dir, "documents.parquet")
    fp = f"{FORMAT_VERSION}:{corpus_fingerprint([src])}"
    key = hashlib.sha256(f"{src}:{analyzer}:{positional}:{fp}".encode()).hexdigest()[:16]
    index_dir = os.path.join(_cache_root(), f"idx-{key}")
    meta_path = os.path.join(index_dir, "meta.json")
    if os.path.exists(meta_path):
        try:
            if load_meta(index_dir)["fingerprint"].startswith(fp):
                return index_dir
        except Exception:
            pass
    import pyarrow.parquet as pq

    n_docs = pq.read_metadata(src).num_rows
    ds = adapt_documents_table(sf_dir)
    build_index(
        ds,
        index_dir,
        analyzer=analyzer,
        num_buckets=8,
        positional=positional,
        n_docs=n_docs,
        fingerprint=fp,
        write_docstore=False,
    )
    return index_dir


_SEARCHERS: dict[str, object] = {}


def _searcher(sf_dir: str):
    """One cached IndexSearcher per index dir — ~16 query callables
    share it within a driver run instead of re-opening meta + shard
    mmaps + term dictionaries each (mirrors _DIST_SEARCHERS)."""
    from ..state.searcher import IndexSearcher

    index_dir = get_index(sf_dir)
    s = _SEARCHERS.get(index_dir)
    if s is None:
        s = _SEARCHERS[index_dir] = IndexSearcher(index_dir)
    return s


DIST_PARTITIONS = 4


def get_partitioned_index(sf_dir: str, *, analyzer: str = "punctuation",
                          n_parts: int = DIST_PARTITIONS,
                          positional: bool = False) -> str:
    """Build (or reuse) the doc-partitioned index root for sf_dir —
    the distributed scatter-gather serving layout
    (state/distributed.py)."""
    from ..sources.corpus import adapt_documents_table, corpus_fingerprint
    from ..state.distributed import build_partitioned_index, load_root_meta

    src = os.path.join(sf_dir, "documents.parquet")
    fp = f"{FORMAT_VERSION}:{corpus_fingerprint([src])}"
    # ":hyd" — partitions carry LOCAL docstores so the serving scatter
    # can hydrate winners (`bm25_topk_hydrated`); one shared build
    # serves every distributed query, hydrating and not
    key = hashlib.sha256(
        f"{src}:dist:{analyzer}:{n_parts}:{int(positional)}:hyd:{fp}".encode()
    ).hexdigest()[:16]
    root = os.path.join(_cache_root(), f"didx-{key}")
    try:
        if load_root_meta(root)["fingerprint"] == f"{fp}:P={n_parts}":
            return root
    except Exception:
        pass
    build_partitioned_index(
        adapt_documents_table(sf_dir),
        root,
        n_partitions=n_parts,
        fingerprint=fp,
        analyzer=analyzer,
        num_buckets=4,
        positional=positional,
        write_docstore=True,
    )
    return root


_DIST_SEARCHERS: dict[str, object] = {}


def _dist_searcher(sf_dir: str, *, positional: bool = False):
    from ..state.distributed import DistributedSearcher

    root = get_partitioned_index(sf_dir, positional=positional)
    s = _DIST_SEARCHERS.get(root)
    if s is None:
        # fractional actor CPUs: the cached actor fleet must not pin
        # whole cores for the rest of the driver session (later queries'
        # Ray Data tasks share the same CPU budget)
        s = _DIST_SEARCHERS[root] = DistributedSearcher(root, num_cpus_per_actor=0.25)
    return s


def _ids_table(ids) -> pa.Table:
    return pa.table({"doc_id": pa.array(np.asarray(ids, dtype=np.int64))})


def _scored_table(ids, scores) -> pa.Table:
    return pa.table(
        {
            "doc_id": pa.array(np.asarray(ids, dtype=np.int64)),
            "score": pa.array(_r4(scores)),
        }
    )


# ---------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------


def q_token_stats(sf_dir: str):
    from ..stages.textstats import token_stats_batch

    def fix(t: pa.Table) -> pa.Table:
        out = token_stats_batch(t)
        cols = {c: out[c] for c in out.column_names}
        for c in ("stop_ratio", "mean_token_len", "uniq_ratio"):
            cols[c] = pa.array(_r4(out[c].to_numpy(zero_copy_only=False)))
        return pa.table(cols)

    return read_table(sf_dir, "documents").map_batches(fix, batch_format="pyarrow")


def q_langid(sf_dir: str):
    from ..stages.textstats import langid_batch

    return read_table(sf_dir, "documents").map_batches(langid_batch, batch_format="pyarrow")


def q_bpe_token_count(sf_dir: str):
    from ..stages.textstats import bpe_token_count_batch

    return read_table(sf_dir, "documents").map_batches(bpe_token_count_batch,
                                                        batch_format="pyarrow")


def q_term_stats(sf_dir: str):
    """(term, df, total_tf) read back from the BUILT index shards —
    checks posting-list construction itself against SQL."""
    from ..stages.fanout import keyed_dataset
    from ..stages.shards import list_shards, open_shard

    index_dir = get_index(sf_dir)
    empty = pa.schema([("term", pa.string()), ("df", pa.int64()),
                       ("total_tf", pa.int64())]).empty_table()

    def read(sid: int) -> pa.Table:
        t = open_shard(index_dir, sid)
        return empty if t is None else t.select(["term", "df", "total_tf"])

    return keyed_dataset(list_shards(index_dir), read)


def q_search_keyword(sf_dir: str):
    return _ids_table(_searcher(sf_dir).search_keyword(KW))


def q_search_and(sf_dir: str):
    return _ids_table(_searcher(sf_dir).search_and(AND_TERMS))


def q_search_or(sf_dir: str):
    return _ids_table(_searcher(sf_dir).search_or(OR_TERMS))


def q_search_phrase(sf_dir: str):
    return _ids_table(_searcher(sf_dir).search_phrase(PHRASE))


def q_search_prefix(sf_dir: str):
    """Docs containing any term with prefix `PREFIX`: a per-shard
    range scan (two binary searches) over the sorted zero-copy term
    dictionaries, then an OR over the expanded terms' postings."""
    return _ids_table(_searcher(sf_dir).search_prefix(PREFIX))


def q_search_not(sf_dir: str):
    """AND-NOT boolean difference: docs with every NOT_INCLUDE term and
    no NOT_EXCLUDE term — a sorted-array anti-join on the postings, no
    all-docs universe scan."""
    return _ids_table(_searcher(sf_dir).search_not(NOT_INCLUDE, NOT_EXCLUDE))


def q_search_near(sf_dir: str):
    """Ordered proximity (slop=NEAR_SLOP): the phrase position cascade
    with the exact-adjacency intersect replaced by a searchsorted
    window test."""
    return _ids_table(_searcher(sf_dir).search_near(NEAR_PAIR, NEAR_SLOP))


def q_search_fuzzy(sf_dir: str):
    """Fuzzy search (Levenshtein <= FUZZY_EDITS): length-banded
    vectorized Wagner-Fischer scan of the zero-copy term dictionaries,
    then OR over the expanded terms' postings."""
    return _ids_table(_searcher(sf_dir).search_fuzzy(FUZZY_Q, FUZZY_EDITS))


def q_search_wildcard(sf_dir: str):
    """Glob search: literal-head prefix range scan + compiled-regex
    filter over the term dictionaries, then OR over postings."""
    return _ids_table(_searcher(sf_dir).search_wildcard(WILDCARD_PAT))


def _rounded_topk(ids, sc, k: int) -> pa.Table:
    """Top-k by (round4(score) desc, doc_id asc). Ranking at the
    compared 4-decimal precision makes the k-boundary independent of
    per-engine float ulps: large corpora produce wide EXACT-tie
    plateaus (identical tf/dl profiles), where sub-ulp noise would
    otherwise make engine and oracle pick different tie members."""
    r = _r4(sc)
    order = np.lexsort((np.asarray(ids), -r))[:k]
    return pa.table(
        {
            "doc_id": pa.array(np.asarray(ids, dtype=np.int64)[order]),
            "score": pa.array(r[order]),
        }
    )


def q_bm25_topk(sf_dir: str):
    ids, sc = _searcher(sf_dir).search_bm25(BM25_TERMS, None, prune=False)
    return _rounded_topk(ids, sc, TOPK)


def q_bm25_all(sf_dir: str):
    ids, sc = _searcher(sf_dir).search_bm25(BM25_TERMS, None, prune=False)
    return _scored_table(ids, sc)


def q_tfidf_topk(sf_dir: str):
    ids, sc = _searcher(sf_dir).search_tfidf(TFIDF_TERMS, None)
    return _rounded_topk(ids, sc, TOPK)


def q_bm25_topk_distributed(sf_dir: str):
    """BM25 top-k answered by the doc-partitioned scatter-gather
    serving path (state/distributed.py: per-partition actors, global
    df exchange, per-partition score + merge) — value-checked against
    the SAME SQL oracle as the single-index `bm25_topk`, proving the
    distributed path is score-identical."""
    ids, sc = _dist_searcher(sf_dir).search_bm25(BM25_TERMS, None, prune=False)
    return _rounded_topk(ids, sc, TOPK)


def q_bm25_all_distributed(sf_dir: str):
    ids, sc = _dist_searcher(sf_dir).search_bm25(BM25_TERMS, None, prune=False)
    return _scored_table(ids, sc)


def q_search_and_distributed(sf_dir: str):
    """Boolean AND over the doc-partitioned index: ONE scatter, no df
    exchange (matching is partition-local under doc-partitioning);
    sorted concat of doc-disjoint partition answers. Same SQL oracle
    as the single-index `search_and`."""
    return _ids_table(_dist_searcher(sf_dir).search_and(AND_TERMS))


def q_search_phrase_distributed(sf_dir: str):
    """Phrase adjacency over a POSITIONAL doc-partitioned index —
    per-partition positional cascade, one scatter. Same SQL oracle as
    the single-index `search_phrase`."""
    return _ids_table(
        _dist_searcher(sf_dir, positional=True).search_phrase(PHRASE)
    )


def q_search_prefix_distributed(sf_dir: str):
    """Prefix search over the doc-partitioned index: each partition
    range-scans its own dictionaries and ORs locally; one scatter,
    sorted concat. Same SQL oracle as the single-index
    `search_prefix`."""
    return _ids_table(_dist_searcher(sf_dir).search_prefix(PREFIX))


def q_search_not_distributed(sf_dir: str):
    """AND-NOT over the doc-partitioned index: doc-disjoint partitions
    make the exclusion partition-local (a doc's excluded terms live
    with it), so one scatter suffices. Same SQL oracle as the
    single-index `search_not`."""
    return _ids_table(_dist_searcher(sf_dir).search_not(NOT_INCLUDE, NOT_EXCLUDE))


def q_search_near_distributed(sf_dir: str):
    """Proximity search over the doc-partitioned positional index."""
    return _ids_table(
        _dist_searcher(sf_dir, positional=True).search_near(NEAR_PAIR, NEAR_SLOP)
    )


def q_search_fuzzy_distributed(sf_dir: str):
    """Fuzzy search over the doc-partitioned index: each partition
    length-band-scans only ITS OWN dictionaries — matching is
    partition-local, so the expansion needs no cross-partition term
    exchange."""
    return _ids_table(_dist_searcher(sf_dir).search_fuzzy(FUZZY_Q, FUZZY_EDITS))


def q_search_wildcard_distributed(sf_dir: str):
    """Glob search over the doc-partitioned index (partition-local
    expansion, one scatter, sorted concat)."""
    return _ids_table(_dist_searcher(sf_dir).search_wildcard(WILDCARD_PAT))


def q_tfidf_topk_distributed(sf_dir: str):
    """Reference tf·idf via the distributed two-pass (the per-segment
    pass-1/pass-2 of IIM:1351-1449 generalized to partitions)."""
    ids, sc = _dist_searcher(sf_dir).search_tfidf(TFIDF_TERMS, None)
    return _rounded_topk(ids, sc, TOPK)


def q_bm25_topk_hydrated(sf_dir: str):
    """BM25 top-k WITH the winners' document content, served by the
    doc-partitioned scatter: each partition hydrates its local top
    candidates from its OWN docstore inside the scoring round trip
    (the J4 docID->Document lookup of `InvertedIndexManager.java:
    912-914`, scatter-side), so the coordinator never issues a second
    lookup round. Oracle: the `bm25_topk` SQL joined to documents."""
    ids, sc, docs = _dist_searcher(sf_dir).search_bm25(
        BM25_TERMS, None, prune=False, hydrate=True
    )
    r = _r4(sc)
    order = np.lexsort((np.asarray(ids), -r))[:TOPK]
    return pa.table(
        {
            "doc_id": pa.array(np.asarray(ids, dtype=np.int64)[order]),
            "score": pa.array(r[order]),
            "text": pa.array([docs[i] for i in order], pa.string()),
        }
    )


def q_dedup_exact(sf_dir: str):
    from ..stages.dedup import dedup_exact

    return dedup_exact(read_table(sf_dir, "documents"))


def q_sha256_docs(sf_dir: str):
    from ..sources.corpus import sha256_column

    def add(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"], "sha256": sha256_column(t, "text")})

    return read_table(sf_dir, "documents").map_batches(add, batch_format="pyarrow")


def q_token_count_total(sf_dir: str):
    from ray.data.aggregate import Sum

    stats = q_token_stats(sf_dir)
    agg = stats.aggregate(Sum("n_tokens", alias_name="total_tokens"),
                          Sum("n_terms", alias_name="total_terms"))
    # distinct terms from the index term dictionary
    n_distinct = q_term_stats(sf_dir).count()
    return pa.table(
        {
            "total_tokens": pa.array([int(agg["total_tokens"])], pa.int64()),
            "total_terms": pa.array([int(agg["total_terms"])], pa.int64()),
            "distinct_terms": pa.array([int(n_distinct)], pa.int64()),
        }
    )


def _ann_inputs(sf_dir: str):
    """Shared ANN prologue: (embedding Dataset, query matrix) — ONE
    definition for the cosine/IVF/LSH sketches so their query set and
    ordering can't drift apart."""
    import pyarrow.parquet as pq

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    qt = pq.read_table(emb_path, filters=[("vec_id", "<", ANN_QUERY_IDS)])
    qt = qt.sort_by("vec_id")  # query_id i == vec_id i
    qm = np.stack([np.asarray(v, dtype=np.float64)
                   for v in qt["embedding"].to_pylist()])
    return read_table(sf_dir, "embeddings"), qm


# shared ANN output (query_id == vec_id of the query; score rounded 4dp)
_ann_fix = shape(pa.schema({"query_id": pa.int64(), "vec_id": pa.int64(),
                            "score": pa.float64()}), r4=["score"])


def q_ann_cosine_topk(sf_dir: str):
    from ..stages.similarity import ann_cosine_topk

    ds, qm = _ann_inputs(sf_dir)
    out = ann_cosine_topk(ds, qm, k=ANN_K)
    return out.drop_columns(["rank"]).map_batches(_ann_fix, batch_format="pyarrow")


def q_ann_hydrated(sf_dir: str):
    """Retrieve-then-hydrate composition: brute-force cosine top-k
    winners (Q·k rows — small by contract) broadcast ONCE via
    ``ray.put``; the documents table STREAMS through one Arrow hash
    join per batch (``broadcast_join``) to attach the winning docs'
    text — retrieval + hydration with no data-sized shuffle (the
    vec_id ↔ doc_id identity is the synthetic tables' link)."""
    from ..stages.join import broadcast_join
    from ..stages.similarity import ann_cosine_topk

    ds, qm = _ann_inputs(sf_dir)
    winners = ann_cosine_topk(ds, qm, k=ANN_K).drop_columns(["rank"]) \
        .map_batches(_ann_fix, batch_format="pyarrow").to_pandas()
    small = pa.Table.from_pandas(winners, preserve_index=False)
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = broadcast_join(docs, small, on="doc_id", right_on="vec_id",
                         how="inner")

    fix = shape(pa.schema({"query_id": pa.int64(), "doc_id": pa.int64(),
                           "score": pa.float64(), "text": pa.string()}))
    return out.map_batches(fix, batch_format="pyarrow")


def q_embedding_cov(sf_dir: str):
    """Embedding covariance matrix — the sufficient-statistics
    reduction behind PCA/whitening: one (d, d) matmul partial per
    batch, a d²-bounded driver combine (never the data), exploded to
    (i, j, cov) upper-triangle rows; the ``covar_pop`` oracle computes
    the identical population formula per pair."""
    from ..stages.similarity import embedding_covariance

    emb = read_table(sf_dir, "embeddings", columns=["embedding"])
    cov = embedding_covariance(emb)
    d = cov.shape[0]
    iu, ju = np.triu_indices(d)
    return pa.table({
        "i": pa.array(iu + 1, pa.int64()),   # 1-based like SQL subscripts
        "j": pa.array(ju + 1, pa.int64()),
        "cov": pa.array(_r4(cov[iu, ju])),
    })


def q_search_phrase3(sf_dir: str):
    return _ids_table(_searcher(sf_dir).search_phrase(PHRASE3))


def q_tfidf_all(sf_dir: str):
    ids, sc = _searcher(sf_dir).search_tfidf(TFIDF_TERMS, None)
    return _scored_table(ids, sc)


def q_term_positions(sf_dir: str):
    """(doc_id, pos) of the keyword's occurrences in the analyzed
    (stopword-stripped) token stream — value-checks the POSITIONAL
    index payloads (A9/J3 machinery) against SQL."""
    s = _searcher(sf_dir)
    p = s.postings(KW, positions=True)
    if p is None:
        return pa.schema({"doc_id": pa.int64(), "pos": pa.int64()}).empty_table()
    docs, _, _, poslists = p
    out_doc, out_pos = [], []
    for d, pl in zip(docs.tolist(), poslists):
        out_doc.extend([d] * len(pl))
        out_pos.extend(int(x) for x in pl)
    return pa.table(
        {"doc_id": pa.array(out_doc, pa.int64()), "pos": pa.array(out_pos, pa.int64())}
    )


def q_code_term_stats(sf_dir: str):
    """(term, df, total_tf) under the code-aware tokenizer (camelCase /
    snake_case / acronym splitting, no stemming) — SQL-replicable."""
    from ..stages.ingest import TokenizeExplode

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def explode(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t2 = pa.table({"doc_id": t["doc_id"], "content": t["text"]})
        te = TokenizeExplode("code_nostem", num_buckets=1, pack=False)
        out = te(t2).select(["term", "doc_id", "tf"])
        # groupby can't key on a dictionary column — cast to plain string
        return out.set_column(0, "term", pc.cast(out["term"], pa.string()))

    exploded = ds.map_batches(explode, batch_format="pyarrow")

    # (doc_id, term) rows are distinct by construction, so df = row
    # count per term and total_tf = sum(tf) per term — one sorted
    # reduceat reduction (term cardinality is data-sized; the native
    # groupby combine is per-row Python, see stages/aggregates.py).
    from ..stages.aggregates import sorted_groupby_agg

    out = sorted_groupby_agg(
        exploded, ["term"],
        [("term", "count", "df"), ("tf", "sum", "total_tf")],
    )

    fix = shape(pa.schema({"term": pa.string(), "df": pa.int64(),
                           "total_tf": pa.int64()}))
    return out.map_batches(fix, batch_format="pyarrow")


# -- rows-only (non-SQL-expressible) -----------------------------------


def q_ann_ivf_topk(sf_dir: str):
    """IVF cosine top-k run at FULL probe (nprobe == n_centroids): the
    IVF partition/probe machinery is exercised end-to-end and its
    lossless-at-full-probe invariant is checked against the brute-force
    SQL oracle (exact top-k). The approximate path (nprobe <
    n_centroids) isn't SQL-expressible; its recall bound is
    pytest-verified (tests/test_extras.py)."""
    from ..stages.similarity import ivf_cosine_topk

    ds, qm = _ann_inputs(sf_dir)
    out = ivf_cosine_topk(ds, qm, k=ANN_K, n_centroids=8, nprobe=8)
    return out.drop_columns(["rank"]).map_batches(_ann_fix, batch_format="pyarrow")


def q_ann_lsh_topk(sf_dir: str):
    """LSH-bucketed cosine top-k run at FULL probe (probe_radius ==
    num_hyperplanes): the hyperplane-bucket/multi-probe machinery is
    exercised end-to-end and its lossless-at-full-probe invariant is
    checked against the brute-force SQL oracle. The approximate path
    (small probe_radius) isn't SQL-expressible; its recall bound is
    pytest-verified (tests/test_extras.py)."""
    from ..stages.similarity import lsh_cosine_topk

    ds, qm = _ann_inputs(sf_dir)
    out = lsh_cosine_topk(ds, qm, k=ANN_K, num_hyperplanes=6, probe_radius=6)
    fix = _ann_fix

    return out.drop_columns(["rank"]).map_batches(fix, batch_format="pyarrow")


def q_compression_ratio(sf_dir: str):
    """Bytes of delta+varint-compressed doc_id postings vs the 4-byte
    naive encoding, summed over the built index — the analogue of the
    reference's page-I/O-counter compression gate
    (`Team6IndexCompressionTest.java:24-42`; the reference asserts
    compressed page counts strictly below naive)."""
    import pyarrow.compute as pc

    from ..stages.shards import list_shards, open_shard

    index_dir = get_index(sf_dir)
    compressed = naive = postings = 0
    for sid in list_shards(index_dir):
        t = open_shard(index_dir, sid)
        if t is None:
            continue
        # vectorized byte count (no per-term Python loop over the vocab)
        compressed += int(pc.sum(pc.binary_length(t["docs"])).as_py() or 0)
        n = int(np.sum(t["df"].to_numpy(zero_copy_only=False)))
        naive += 4 * n
        postings += n
    return pa.table(
        {
            "compressed_bytes": pa.array([compressed], pa.int64()),
            "naive_bytes": pa.array([naive], pa.int64()),
            "n_postings": pa.array([postings], pa.int64()),
            "beats_naive": pa.array([compressed < naive]),
        }
    )


def q_minhash_signatures(sf_dir: str):
    """Exploded (doc_id, p, sig) MinHash signatures — every one of the
    64 permutation minima is value-checked against the pure-SQL MinHash
    oracle (token md5 -> shingle polynomial mix -> per-permutation
    min, all mod 2^64)."""
    from ..stages.dedup import minhash_batch

    def explode(t: pa.Table) -> pa.Table:
        out = minhash_batch(t)
        sig = out["sig"].combine_chunks()
        n = len(sig)
        w = sig.type.list_size
        raw = sig.values.to_numpy(zero_copy_only=False).reshape(n, w).astype(np.uint64)
        ids = out["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(ids, w)),
                "p": pa.array(np.tile(np.arange(w, dtype=np.int64), n)),
                "sig": pa.array(raw.reshape(-1).view(np.int64)),
            }
        )

    return read_table(sf_dir, "documents").map_batches(explode, batch_format="pyarrow")


def q_simhash(sf_dir: str):
    from ..stages.dedup import simhash_batch

    return read_table(sf_dir, "documents").map_batches(simhash_batch, batch_format="pyarrow")


def q_fingerprints(sf_dir: str):
    """(doc_id, n_fingerprints, fp_xor): winnowing fingerprint count
    plus the XOR-fold of the (distinct) fingerprint values — a compact
    value check of the whole fingerprint SET against the SQL oracle."""
    from ..stages.textstats import fingerprint_batch

    def counts(t: pa.Table) -> pa.Table:
        out = fingerprint_batch(t)
        col = out["fingerprints"].combine_chunks()
        off = col.offsets.to_numpy(zero_copy_only=False)
        vals = col.values.to_numpy(zero_copy_only=False)
        lens = np.diff(off)
        fx = np.zeros(len(out), dtype=np.int64)
        ne = np.flatnonzero(lens > 0)
        if len(ne):
            fx[ne] = np.bitwise_xor.reduceat(vals, off[ne])
        return pa.table(
            {
                "doc_id": out["doc_id"],
                "n_fingerprints": out["n_fingerprints"],
                "fp_xor": pa.array(fx),
            }
        )

    return read_table(sf_dir, "documents").map_batches(counts, batch_format="pyarrow")


def q_minhash_near_pairs(sf_dir: str):
    from ..stages.dedup import minhash_candidate_pairs

    pairs, _ = minhash_candidate_pairs(
        read_table(sf_dir, "documents").select_columns(["doc_id", "text"]))
    return pairs


EMB_DUP_THRESHOLD = 0.4  # the synthetic embeddings hold no real near-
EMB_DUP_HYPERPLANES = 4  # dups (max cosine ~0.5), so the driver query
#                          runs the same pipeline at a low threshold /
#                          4 hyperplanes to produce a NON-TRIVIAL pair
#                          set the SQL oracle can value-check; real
#                          dedup uses the defaults (0.95 / 8).


def q_embedding_dup_pairs(sf_dir: str):
    from ..stages.similarity import embedding_dup_pairs

    ds = read_table(sf_dir, "embeddings")
    out = embedding_dup_pairs(
        ds, threshold=EMB_DUP_THRESHOLD, num_hyperplanes=EMB_DUP_HYPERPLANES
    )

    fix = shape(pa.schema({"a": pa.int64(), "b": pa.int64(), "score": pa.float64()}),
                r4=["score"])
    return out.map_batches(fix, batch_format="pyarrow")


def q_dedup_near_jaccard(sf_dir: str):
    """LSH candidate pairs VERIFIED by exact k-shingle Jaccard — the
    full near-dup pipeline (signatures -> bands -> candidates ->
    verification kernel), value-checked end-to-end against SQL."""
    from ..stages.dedup import minhash_candidate_pairs, verify_pairs_jaccard

    docs = read_table(sf_dir, "documents")
    pairs, _ = minhash_candidate_pairs(docs.select_columns(["doc_id", "text"]))
    out = verify_pairs_jaccard(docs, pairs)  # Dataset (a, b, jaccard)

    fix = shape(pa.schema({"a": pa.int64(), "b": pa.int64(), "jaccard": pa.float64()}),
                r4=["jaccard"])
    return out.map_batches(fix, batch_format="pyarrow")


WINDOW_WIDTH_S = 3600
WINDOW_HOP_S = 900
SESSION_GAP_S = 1800


# output of the tumbling and sliding window aggregates
_window_fix = shape(pa.schema({"window_start_us": pa.int64(), "event_type": pa.large_string(),
                               "n_events": pa.int64(), "sum_value": pa.float64()}),
                    r4=["sum_value"])


def q_window_tumbling(sf_dir: str):
    """Tumbling 1-hour window aggregate over the event log: per-batch
    partial (lexsort+reduceat) -> native groupby over partials."""
    from ..stages.windows import tumbling_window_agg

    out = tumbling_window_agg(read_table(sf_dir, "events"), width_s=WINDOW_WIDTH_S)
    return out.map_batches(_window_fix, batch_format="pyarrow")


def q_window_distinct_users(sf_dir: str):
    """Windowed EXACT distinct counts by pure composition: assign each
    event its tumbling bucket with one vectorized map, then
    count_distinct_per_group keyed on the bucket — per-batch Arrow
    hash dedup so the shuffle carries batch-distinct (window, user)
    pairs, never the raw stream."""
    from ..stages.aggregates import count_distinct_per_group
    from ..stages.windows import _ts_us

    w = WINDOW_WIDTH_S * 1_000_000

    def bucket(t: pa.Table) -> pa.Table:
        us = _ts_us(t, "ts")
        return pa.table({
            "window_start_us": pa.array((us // w) * w),
            "user_id": t["user_id"],
        })

    ds = read_table(sf_dir, "events").map_batches(bucket, batch_format="pyarrow")
    out = count_distinct_per_group(ds, ["window_start_us"], "user_id",
                                   alias="n_users")

    fix = shape(pa.schema({"window_start_us": pa.int64(), "n_users": pa.int64()}))
    return out.map_batches(fix, batch_format="pyarrow")


def q_window_sliding(sf_dir: str):
    """Hopping 1-hour/15-min window aggregate: hop-granular partials
    replicated x4 AFTER collapse, then the same tiny groupby."""
    from ..stages.windows import sliding_window_agg

    out = sliding_window_agg(read_table(sf_dir, "events"), width_s=WINDOW_WIDTH_S,
                             hop_s=WINDOW_HOP_S)
    return out.map_batches(_window_fix, batch_format="pyarrow")


def q_sessionize(sf_dir: str):
    """Gap-based sessionization (30-min timeout): one global (user, ts)
    sort, per-block vectorized sweep, O(num_blocks) edge stitch."""
    from ..stages.windows import sessionize

    out = sessionize(read_table(sf_dir, "events"), gap_s=SESSION_GAP_S)

    fix = shape(pa.schema({"user_id": pa.int64(), "session_start_us": pa.int64(),
                           "session_end_us": pa.int64(), "n_events": pa.int64(),
                           "sum_value": pa.float64()}), r4=["sum_value"])
    return out.map_batches(fix, batch_format="pyarrow")


def q_asof_attribution(sf_dir: str):
    """As-of attribution join: latest at-or-before 'view' per 'click'
    by the same user (DuckDB ASOF JOIN semantics), via one (user, ts,
    views-first) sort + segmented running-latest sweeps with an
    O(num_blocks) carry chain."""
    from ..stages.windows import asof_join_latest

    return asof_join_latest(read_table(sf_dir, "events"))


DEDUP_CLUSTER_THRESHOLD = 0.8  # all sf candidates sit >= 0.9, comfortably
#                                off the threshold boundary on both engines


def q_dedup_clusters(sf_dir: str):
    """Transitive near-dup clustering: LSH candidates -> exact Jaccard
    verify -> threshold -> distributed connected components (min-label
    propagation with pointer jumping). One row (node, component) per
    doc in a surviving pair; dedup keeps node == component."""
    from ..stages.dedup import near_dup_clusters

    out = near_dup_clusters(read_table(sf_dir, "documents"),
                            threshold=DEDUP_CLUSTER_THRESHOLD)

    fix = shape(pa.schema({"node": pa.int64(), "component": pa.int64()}))
    return out.map_batches(fix, batch_format="pyarrow")


TOPK_PER_GROUP_K = 3


def q_top_events_per_user(sf_dir: str):
    """Generic top-k-per-group operator: top-3 events by value per
    user (ties broken by event_id). One range sort on the group key
    + per-block lexsort sweep — no per-group Python."""
    from ..stages.aggregates import topk_per_group

    prep = shape(pa.schema({"user_id": pa.int64(), "event_id": pa.int64(),
                            "ts_us": pa.int64(), "value": pa.float64()}),
                 rename={"ts_us": "ts"})
    ds = read_table(sf_dir, "events").map_batches(prep, batch_format="pyarrow")
    return topk_per_group(ds, ["user_id"], "value", TOPK_PER_GROUP_K,
                          tiebreak="event_id")


def q_user_value_quantiles(sf_dir: str):
    """Exact per-user p50/p95 of event value (quantile_disc rank
    semantics), via the group-key-only sort + per-block lexsort rank
    pick — exact for high-cardinality groups."""
    from ..stages.aggregates import quantile_per_group

    prep = shape(pa.schema({"user_id": pa.int64(), "value": pa.float64()}))
    ds = read_table(sf_dir, "events").map_batches(prep, batch_format="pyarrow")
    return quantile_per_group(ds, ["user_id"], "value", [0.5, 0.95])


HLL_PRECISION_BITS = 10


def q_distinct_hll(sf_dir: str):
    """HyperLogLog register table for distinct-token counting: the
    shuffle carries at most 2^p register rows per batch, never tokens.
    Registers are DETERMINISTIC given the md5-low-64 token hash, so
    the sketch itself (not just its estimate) is value-checked in SQL."""
    from ..stages.textstats import distinct_count_hll

    return distinct_count_hll(read_table(sf_dir, "documents"),
                              precision_bits=HLL_PRECISION_BITS)


def q_source_distinct_hll(sf_dir: str):
    """GROUPED HyperLogLog: per-source distinct-token register table —
    the per-domain distinct-count scale path (one maximum.at over a
    keys × 2^p plane per batch; the shuffle carries register rows,
    never tokens).  Registers are deterministic given md5-low-64, so
    the grouped SKETCH itself is value-checked in SQL."""
    from ..stages.textstats import hll_registers_per_group

    docs = read_table(sf_dir, "documents", columns=["source", "text"])
    out = hll_registers_per_group(docs, "source",
                                  precision_bits=HLL_PRECISION_BITS)

    fix = shape(pa.schema({"source": pa.large_string(), "bucket": pa.int64(),
                           "rho": pa.int64()}))
    return out.map_batches(fix, batch_format="pyarrow")



CMS_DEPTH, CMS_WIDTH_BITS, CMS_SEED = 4, 9, 4242
CMS_PROBES = ["data", "the", "merge", "join", "window", "batch",
              "stream", "customer", "zzz_absent"]


def q_cms_token_counts(sf_dir: str):
    """Count-Min Sketch point queries: build the (depth x 2^w) sketch
    over the token occurrence stream (per-batch partial registers ->
    one grouped sum over sketch-sized keys; the shuffle never carries
    tokens), then estimate a fixed probe list on the driver.  The
    sketch is DETERMINISTIC given the md5-low-64 hash and the shared
    (a, b) mix constants, so the oracle replicates the full register
    arithmetic in UHUGEINT SQL — estimates match exactly, collisions
    and all."""
    from ..stages.textstats import cms_estimate, count_min_sketch

    docs = read_table(sf_dir, "documents", columns=["text"])
    reg = count_min_sketch(docs, depth=CMS_DEPTH,
                           width_bits=CMS_WIDTH_BITS, seed=CMS_SEED)
    est = cms_estimate(reg, CMS_PROBES, depth=CMS_DEPTH,
                       width_bits=CMS_WIDTH_BITS, seed=CMS_SEED)
    return pa.table({"tok": pa.array(CMS_PROBES),
                     "est": pa.array(est.astype(np.int64))})


def _cms_sql() -> str:
    shift = 1 << (64 - CMS_WIDTH_BITS)
    probes = ",".join(f"('{p}')" for p in CMS_PROBES)
    return f"""
WITH {_TOK_CTE},
occ AS (SELECT md5_number_lower(unnest(toks)) AS h FROM tok),
rws AS (SELECT * FROM (VALUES {_perm_values_sql(CMS_DEPTH, CMS_SEED)})
        v(r, a, b)),
reg AS (
  SELECT r.r AS rw,
         (((r.a * occ.h) % {_M64} + r.b) % {_M64}
          // {shift}::UHUGEINT)::BIGINT AS bucket,
         count(*)::BIGINT AS c
  FROM rws r CROSS JOIN occ GROUP BY 1, 2
),
probes AS (SELECT tok, md5_number_lower(tok) AS h
           FROM (VALUES {probes}) p(tok)),
pb AS (
  SELECT p.tok, r.r AS rw,
         (((r.a * p.h) % {_M64} + r.b) % {_M64}
          // {shift}::UHUGEINT)::BIGINT AS bucket
  FROM rws r CROSS JOIN probes p
)
SELECT pb.tok, min(coalesce(reg.c, 0))::BIGINT AS est
FROM pb LEFT JOIN reg ON reg.rw = pb.rw AND reg.bucket = pb.bucket
GROUP BY pb.tok
"""


CAP_PER_SOURCE = 10


def q_heavy_hitters(sf_dir: str):
    """Exact heavy hitters (tokens with > 1/HH_K of the token stream)
    via the two-pass Misra-Gries-style candidate + recount operator:
    the shuffle carries <= k rows per batch, never the token stream."""
    from ..stages.frequent import heavy_hitters

    return heavy_hitters(read_table(sf_dir, "documents", columns=["text"]))


def q_bigram_pmi(sf_dir: str):
    """Frequent adjacent-token bigrams (count * BIGRAM_K > total
    pairs) with exact counts and PMI — collocation mining with the
    same pigeonhole-bounded two-pass shape (at most k-1 survivors)."""
    from ..stages.frequent import bigram_pmi

    return bigram_pmi(read_table(sf_dir, "documents", columns=["text"]))


def q_hash_split(sf_dir: str):
    """Deterministic content-addressed train/valid/test split:
    md5-low-64(text) mod 10000 bucketed 80/10/10 — stable under
    re-sharding; pure per-batch map, no shuffle."""
    from ..stages.sampling import hash_split

    return hash_split(read_table(sf_dir, "documents", columns=["doc_id", "text"]))


def q_cap_per_source(sf_dir: str):
    """Per-domain frequency capping: keep at most CAP_PER_SOURCE docs
    per `source`, choosing the cap-smallest md5-low-64(text) (ties by
    doc_id) — content-addressed, deterministic, one key-only range
    sort + vectorized per-block rank sweep."""
    from ..stages.sampling import cap_per_group

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text", "source"])
    return cap_per_group(ds, ["source"], CAP_PER_SOURCE)


def q_user_event_diversity(sf_dir: str):
    """Exact per-user COUNT(DISTINCT event_type): per-batch Arrow hash
    dedup -> grouped pair reduction -> per-user pair count (the exact
    companion to the HLL sketch)."""
    from ..stages.aggregates import count_distinct_per_group

    prep = shape(pa.schema({"user_id": pa.int64(), "event_type": pa.string()}))
    ds = read_table(sf_dir, "events").map_batches(prep, batch_format="pyarrow")
    out = count_distinct_per_group(ds, ["user_id"], "event_type",
                                   alias="n_types")

    fix = shape(pa.schema({"user_id": pa.int64(), "n_types": pa.int64()}))
    return out.map_batches(fix, batch_format="pyarrow")


GLOBAL_QS = [0.5, 0.9, 0.99]


def q_value_quantiles_global(sf_dir: str):
    """Exact whole-table quantiles of event value: one range sort,
    ranks located via sorted-block METADATA, one block fetched per
    rank — the driver never materializes the dataset."""
    from ..stages.aggregates import global_quantiles

    prep = shape(pa.schema({"value": pa.float64()}))
    ds = read_table(sf_dir, "events").map_batches(prep, batch_format="pyarrow")
    return global_quantiles(ds, "value", GLOBAL_QS)


HIST_BINS = 512


def q_value_quantiles_hist(sf_dir: str):
    """APPROXIMATE whole-table quantiles via the fixed-bin histogram —
    the 100-TB scale path beside the exact sorted operator: two
    streaming passes, a bins-sized shuffle, an O(bins) driver table.
    Deterministic bucket arithmetic (IEEE double floor((v-mn)/w),
    clipped to the last bin) lets the SQL oracle replay the estimate
    EXACTLY, not just within the error bound."""
    from ..stages.aggregates import histogram_quantiles

    prep = shape(pa.schema({"value": pa.float64()}))
    ds = read_table(sf_dir, "events").map_batches(prep, batch_format="pyarrow")
    out = histogram_quantiles(ds, "value", GLOBAL_QS, bins=HIST_BINS)
    return pa.table({"q": out["q"],
                     "value": pa.array(_r4(out["value"].to_numpy(
                         zero_copy_only=False)))})


def _value_quantiles_hist_sql() -> str:
    qvals = ", ".join(f"({q}::DOUBLE)" for q in GLOBAL_QS)
    return f"""
WITH b AS (SELECT min(value)::DOUBLE AS mn, max(value)::DOUBLE AS mx
           FROM events),
w AS (SELECT mn, mx,
             CASE WHEN mx = mn THEN 1.0
                  ELSE (mx - mn) / {HIST_BINS} END AS w FROM b),
bk AS (SELECT least(floor((value - w.mn) / w.w),
                    {HIST_BINS - 1})::BIGINT AS bucket,
              count(*)::BIGINT AS c
       FROM events, w WHERE value IS NOT NULL GROUP BY 1),
cum AS (SELECT bucket, sum(c) OVER (ORDER BY bucket) AS cumc,
               (SELECT sum(c) FROM bk) AS n FROM bk),
qs(q) AS (VALUES {qvals})
SELECT q,
       {_R4.format(expr="CASE WHEN w.mx = w.mn THEN w.mn "
                        "ELSE w.mn + (sel.b + 1) * w.w END")} AS value
FROM qs, w,
     LATERAL (SELECT min(bucket) AS b FROM cum
              WHERE cumc >= greatest(ceil(q * n), 1)) sel
"""


def q_user_quantiles_hist(sf_dir: str):
    """APPROXIMATE per-user quantiles via the grouped fixed-bin
    histogram — the giant-group scale path the exact per-group
    operator documents (registers ≤ keys × bins regardless of group
    size; global IEEE bucket arithmetic, so the oracle replays the
    estimates exactly)."""
    from ..stages.aggregates import histogram_quantiles_per_group

    prep = shape(pa.schema({"user_id": pa.int64(), "value": pa.float64()}))
    ds = read_table(sf_dir, "events").map_batches(prep, batch_format="pyarrow")
    out = histogram_quantiles_per_group(ds, "user_id", "value",
                                        GLOBAL_QS, bins=HIST_BINS)

    fix = shape(pa.schema({"user_id": pa.int64(), "q": pa.float64(),
                           "value": pa.float64()}), r4=["value"])
    return out.map_batches(fix, batch_format="pyarrow")


def _user_quantiles_hist_sql() -> str:
    qvals = ", ".join(f"({q}::DOUBLE)" for q in GLOBAL_QS)
    return f"""
WITH b AS (SELECT min(value)::DOUBLE AS mn, max(value)::DOUBLE AS mx
           FROM events),
w AS (SELECT mn, mx,
             CASE WHEN mx = mn THEN 1.0
                  ELSE (mx - mn) / {HIST_BINS} END AS w FROM b),
bk AS (SELECT user_id,
              least(floor((value - w.mn) / w.w),
                    {HIST_BINS - 1})::BIGINT AS bucket,
              count(*)::BIGINT AS c
       FROM events, w WHERE value IS NOT NULL GROUP BY 1, 2),
cum AS (SELECT user_id, bucket,
               sum(c) OVER (PARTITION BY user_id ORDER BY bucket) AS cumc,
               sum(c) OVER (PARTITION BY user_id) AS n FROM bk),
qs(q) AS (VALUES {qvals}),
sel AS (SELECT user_id, q, min(bucket) AS bb
        FROM cum, qs WHERE cumc >= greatest(ceil(q * n), 1)
        GROUP BY 1, 2)
SELECT sel.user_id, sel.q,
       {_R4.format(expr="CASE WHEN w.mx = w.mn THEN w.mn "
                        "ELSE w.mn + (sel.bb + 1) * w.w END")} AS value
FROM sel, w
"""


def q_revenue_per_nation(sf_dir: str):
    """Generic distributed equi-join demo over the relational tables
    (TPC-H Q5 flavor): lineitem ⨝ orders ⨝ customer via two sort-merge
    shuffle joins (both sides data-sized), nation via a broadcast hash
    join (fixed 25 rows), then one sorted grouped reduction.  The
    compared aggregates are chosen float-exact: count, sum of
    integer-valued quantities, and max of an IEEE-exact product —
    no float-association hazard between the engines."""
    import pyarrow.parquet as pq

    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.join import broadcast_join, sort_merge_join

    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity",
                                                 "l_extendedprice", "l_discount"])
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    j1 = sort_merge_join(li, orders, "l_orderkey", "o_orderkey",
                         partitions=8)
    j1_schema = pa.schema([("l_orderkey", pa.int64()),
                           ("l_quantity", pa.float64()),
                           ("l_extendedprice", pa.float64()),
                           ("l_discount", pa.float64()),
                           ("o_custkey", pa.int64())])
    j2 = sort_merge_join(j1, cust, "o_custkey", "c_custkey",
                         left_schema=j1_schema, partitions=8)
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                           columns=["n_nationkey", "n_name"])
    j3 = broadcast_join(j2, nation, "c_nationkey", right_on="n_nationkey")

    def prep(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"n_name": t["n_name"], "qty": t["l_quantity"],
                         "rev": rev})

    agg = sorted_groupby_agg(
        j3.map_batches(prep, batch_format="pyarrow"), ["n_name"],
        [("qty", "count", "n_items"), ("qty", "sum", "sum_qty"),
         ("rev", "max", "max_item_rev")])

    fix = shape(pa.schema({"n_name": pa.string(), "n_items": pa.int64(),
                           "sum_qty": pa.int64(), "max_item_rev": pa.float64()}),
                r4=["max_item_rev"])
    return agg.map_batches(fix, batch_format="pyarrow")


def q_customer_order_counts(sf_dir: str):
    """Left-join semantics: every customer with their order count,
    zero-order customers included (null right side counted as 0) —
    customer LEFT sort-merge-join orders + one sorted reduction."""
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.join import sort_merge_join

    cust = read_table(sf_dir, "customer", columns=["c_custkey"])
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    j = sort_merge_join(cust, orders, "c_custkey", "o_custkey", how="left",
                        partitions=8)

    def prep(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        matched = pc.cast(pc.is_valid(t["o_orderkey"]), pa.int64())
        return pa.table({"c_custkey": t["c_custkey"], "matched": matched})

    agg = sorted_groupby_agg(j.map_batches(prep, batch_format="pyarrow"),
                             ["c_custkey"], [("matched", "sum", "n_orders")])

    fix = shape(pa.schema({"c_custkey": pa.int64(), "n_orders": pa.int64()}))
    return agg.map_batches(fix, batch_format="pyarrow")


def q_customer_order_counts_skew(sf_dir: str):
    """The customer_order_counts LEFT join routed through skew_join
    (salted hot keys): the first ten custkeys are declared hot, their
    left rows spread over 4 salt buckets and their order rows
    replicated 4x, everything else riding salt 0 — the result must be
    row-identical to the plain sort-merge join, which is what sharing
    customer_order_counts' oracle proves."""
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.join import skew_join

    cust = read_table(sf_dir, "customer", columns=["c_custkey"])
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    j = skew_join(cust, orders, "c_custkey", "o_custkey", how="left",
                  hot_keys=list(range(10)), salt=4, partitions=8)

    def prep(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        matched = pc.cast(pc.is_valid(t["o_orderkey"]), pa.int64())
        return pa.table({"c_custkey": t["c_custkey"], "matched": matched})

    agg = sorted_groupby_agg(j.map_batches(prep, batch_format="pyarrow"),
                             ["c_custkey"], [("matched", "sum", "n_orders")])

    fix = shape(pa.schema({"c_custkey": pa.int64(), "n_orders": pa.int64()}))
    return agg.map_batches(fix, batch_format="pyarrow")


def q_customers_without_orders(sf_dir: str):
    """Anti join (SQL NOT EXISTS): customers with no PENDING ('P')
    order (the unrestricted version is empty at every sf — each
    customer has some order).  Right payload never enters the shuffle
    — right rows reduce to key + side tag."""
    from ..stages.join import sort_merge_join

    cust = read_table(sf_dir, "customer", columns=["c_custkey"])
    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_orderstatus"]) \
        .filter(expr="o_orderstatus == 'P'").select_columns(["o_custkey"])
    return sort_merge_join(cust, orders, "c_custkey", "o_custkey",
                           how="anti", partitions=8)


def q_parts_in_lineitem(sf_dir: str):
    """Semi join (SQL EXISTS): parts referenced by at least one
    lineitem, each emitted once."""
    from ..stages.join import sort_merge_join

    part = read_table(sf_dir, "part", columns=["p_partkey"])
    li = read_table(sf_dir, "lineitem", columns=["l_partkey"])
    return sort_merge_join(part, li, "p_partkey", "l_partkey",
                           how="semi", partitions=8)


def q_custkeys_intersect(sf_dir: str):
    """SQL INTERSECT (distinct set semantics): BUILDING-segment
    customer keys that also placed at least one order — through the
    null-aware tagged sorted sweep, not an EXISTS composition."""
    from ..stages.aggregates import set_op

    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])

    def flt(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.equal(t["c_mktsegment"], "BUILDING")
        return pa.table({"custkey": t.filter(keep)["c_custkey"]})

    orders = read_table(sf_dir, "orders", columns=["o_custkey"])
    return set_op(cust.map_batches(flt, batch_format="pyarrow"),
                  orders.map_batches(
                      lambda t: pa.table({"custkey": t["o_custkey"]}),
                      batch_format="pyarrow"),
                  "intersect")


def q_partkeys_except(sf_dir: str):
    """SQL EXCEPT: part keys never shipped in a bulk (quantity > 45)
    lineitem — the quantity restriction keeps the difference non-empty
    at every scale factor (an unrestricted EXCEPT is empty: every part
    is referenced)."""
    from ..stages.aggregates import set_op

    part = read_table(sf_dir, "part", columns=["p_partkey"])
    li = read_table(sf_dir, "lineitem", columns=["l_partkey", "l_quantity"])

    def bulk(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.greater(t["l_quantity"], 45)
        return pa.table({"partkey": t.filter(keep)["l_partkey"]})

    return set_op(part.map_batches(
                      lambda t: pa.table({"partkey": t["p_partkey"]}),
                      batch_format="pyarrow"),
                  li.map_batches(bulk, batch_format="pyarrow"),
                  "except")


def q_building_f_orders_full(sf_dir: str):
    """Full outer join (SQL USING / coalesced-key semantics):
    BUILDING-segment customers ⨝ per-customer count of finished ('F')
    orders.  Exercises every sort_merge_join(how='full') path in one
    query — matched runs, lonely-left (segment customers with no 'F'
    order → n_f_orders −1), lonely-right (customers outside the
    segment with 'F' orders → acctbal −1).  Nulls are coalesced to
    sentinels on BOTH engines so the value hash never rides on
    NaN-representation details."""
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.join import sort_merge_join

    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_acctbal",
                                                   "c_mktsegment"]) \
        .filter(expr="c_mktsegment == 'BUILDING'") \
        .select_columns(["c_custkey", "c_acctbal"])
    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_orderstatus"]) \
        .filter(expr="o_orderstatus == 'F'").select_columns(["o_custkey"])
    agg = sorted_groupby_agg(orders, ["o_custkey"],
                             [("o_custkey", "count", "n_f_orders")])
    agg_schema = pa.schema([("o_custkey", pa.int64()),
                            ("n_f_orders", pa.int64())])
    j = sort_merge_join(cust, agg, "c_custkey", "o_custkey", how="full",
                        right_schema=agg_schema, partitions=4)

    def fix(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "c_custkey": pc.cast(t["c_custkey"], pa.int64()),
            "acctbal": pc.cast(pc.fill_null(t["c_acctbal"], -1.0),
                               pa.float64()),
            "n_f_orders": pc.cast(pc.fill_null(t["n_f_orders"], -1),
                                  pa.int64()),
        })

    return j.map_batches(fix, batch_format="pyarrow")


DOC_KEYWORDS_K = 3

def q_doc_keywords(sf_dir: str):
    """Per-document TF-IDF keyword extraction: top-3 terms per doc by
    tf * (N/df) over the raw token stream, ties broken by ascending
    md5-low-64 of the term (an unsigned total order both numpy and
    DuckDB md5_number_lower reproduce bit-exactly).  Two range sorts:
    term-sort (df attaches in the same sweep — term runs are
    block-local, so the run length IS the global df) + the
    topk-per-doc sort.  N from parquet footer metadata."""
    import pyarrow.parquet as pq

    from ..stages.textstats import doc_keywords

    path = os.path.join(sf_dir, "documents.parquet")
    n_docs = pq.ParquetFile(path).metadata.num_rows
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    top = doc_keywords(docs, n_docs=n_docs, k=DOC_KEYWORDS_K)

    fix = shape(pa.schema({"doc_id": pa.int64(), "term": pa.string(),
                           "score": pa.float64()}), r4=["score"])
    return top.map_batches(fix, batch_format="pyarrow")


CHUNK_WINDOW, CHUNK_STRIDE = 8, 5     # overlapping context windows
DECONTAM_N = 3                        # trigram overlap (small corpus)
DECONTAM_BENCH_MOD = 23               # doc_id % 23 == 0 -> "benchmark"
REPETITION_N = 2                      # bigram repetition signals


def q_chunk_docs(sf_dir: str):
    """Token-window chunking (the training-sequence / RAG-passage
    split): each doc expands to ceil(T/stride) chunks of up to
    `window` analyzed tokens re-joined with single spaces.  Pure
    per-batch map that EXPANDS rows — no shuffle, no state."""
    from ..stages.chunking import chunk_documents

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = chunk_documents(docs, window=CHUNK_WINDOW, stride=CHUNK_STRIDE)

    fix = shape(pa.schema({"doc_id": pa.int64(), "chunk_id": pa.int64(),
                           "chunk_text": pa.string(), "n_tokens": pa.int64()}))
    return out.map_batches(fix, batch_format="pyarrow")


def q_decontam_drop(sf_dir: str):
    """Benchmark decontamination: documents whose doc_id % 23 == 0
    play the eval set; every doc sharing a token trigram with them is
    dropped.  The benchmark's distinct trigrams collect on the driver
    (benchmark-sized by contract), broadcast once via ray.put, and the
    corpus streams through one vectorized is_in membership map — no
    shuffle anywhere."""
    from ..stages.decontam import decontaminate, ngram_set

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def is_bench(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % DECONTAM_BENCH_MOD == 0))

    bench = docs.map_batches(is_bench, batch_format="pyarrow")
    grams = ngram_set(bench, n=DECONTAM_N)
    clean = decontaminate(docs, grams, n=DECONTAM_N)

    fix = shape(pa.schema({"doc_id": pa.int64(), "lang": pa.string()}))
    return clean.map_batches(fix, batch_format="pyarrow")


def q_decontam_frac(sf_dir: str):
    """FUZZY decontamination (the PaLM/GPT-3 dirtiness rule): per doc,
    the fraction of its trigrams present in the benchmark set (doc_id
    % 23 == 0 plays the eval set) — callers drop above a threshold
    instead of on a single shared gram.  Same broadcast-membership
    scale shape as decontam_drop; per-doc counts are exact, so the
    oracle replays every fraction."""
    from ..stages.decontam import contamination_fraction, ngram_set

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def is_bench(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % DECONTAM_BENCH_MOD == 0))

    bench = docs.map_batches(is_bench, batch_format="pyarrow")
    grams = ngram_set(bench, n=DECONTAM_N)
    out = contamination_fraction(docs, grams, n=DECONTAM_N)

    fix = shape(pa.schema({"doc_id": pa.int64(), "n_grams": pa.int64(),
                           "n_contaminated": pa.int64(), "contam_frac": pa.float64()}),
                r4=["contam_frac"])
    return out.map_batches(fix, batch_format="pyarrow")


DUP_PASSAGE_N = 3


def q_dup_passages(sf_dir: str):
    """Cross-document duplicate-passage stats (Lee et al. dedup
    signal): per doc, occurrences of token trigrams that also appear
    in ANOTHER doc.  The occurrence shuffle carries one uint64 gram
    hash per row (md5-low-64 of the space-joined gram — DuckDB's
    md5_number_lower replays it exactly); one hash sort + one
    doc-keyed grouped sum."""
    from ..stages.dedup import dup_passage_stats

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = dup_passage_stats(docs, n=DUP_PASSAGE_N)

    fix = shape(pa.schema({"doc_id": pa.int64(), "n_grams": pa.int64(),
                           "n_dup": pa.int64(), "dup_frac": pa.float64()}),
                r4=["dup_frac"])
    return out.map_batches(fix, batch_format="pyarrow")


def _q_dedup_passages_rewrite(sf_dir: str, policy: str):
    """Duplicate-passage REMOVAL (Lee et al. 2022 action step): rewrite
    each document's normalized token stream dropping every token
    covered by a cross-doc duplicated trigram occurrence —
    ``keep_first`` keeps the globally first (doc_id, position)
    occurrence, ``drop_all`` removes every occurrence.  Same gram
    hashing as `dup_passages` (md5-low-64, DuckDB-replayable); one
    narrow hash sort + one narrow removal sort + one doc-keyed
    sort-merge join."""
    from ..stages.dedup import remove_dup_passages

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return remove_dup_passages(docs, n=DUP_PASSAGE_N, policy=policy)


def q_dedup_passages_rewrite(sf_dir: str):
    return _q_dedup_passages_rewrite(sf_dir, "keep_first")


def q_dedup_passages_drop_all(sf_dir: str):
    return _q_dedup_passages_rewrite(sf_dir, "drop_all")


def _dedup_passages_rewrite_sql(keep_first: bool) -> str:
    rn_filter = "WHERE rn > 1" if keep_first else ""
    return f"""
WITH {_TOK_CTE},
pos AS (SELECT doc_id, p, toks[p] AS tokval
        FROM (SELECT doc_id, toks,
                     unnest(generate_series(1, len(toks))) AS p FROM tok)),
g AS (SELECT doc_id, p,
             md5_number_lower(toks[p] || ' ' || toks[p+1] || ' ' ||
                              toks[p+2]) AS h
      FROM (SELECT doc_id, toks,
                   unnest(generate_series(1, len(toks)-2)) AS p
            FROM tok WHERE len(toks) >= {DUP_PASSAGE_N})),
dup AS (SELECT h FROM g GROUP BY h HAVING count(DISTINCT doc_id) > 1),
occ AS (SELECT doc_id, p,
               row_number() OVER (PARTITION BY h ORDER BY doc_id, p) AS rn
        FROM g WHERE h IN (SELECT h FROM dup)),
rem AS (SELECT doc_id, p FROM occ {rn_filter}),
cov AS (SELECT DISTINCT pos.doc_id, pos.p
        FROM pos JOIN rem ON rem.doc_id = pos.doc_id
                         AND pos.p BETWEEN rem.p
                                       AND rem.p + {DUP_PASSAGE_N - 1}),
kept AS (SELECT pos.doc_id, pos.p, pos.tokval
         FROM pos LEFT JOIN cov
           ON cov.doc_id = pos.doc_id AND cov.p = pos.p
         WHERE cov.p IS NULL),
agg AS (SELECT doc_id, string_agg(tokval, ' ' ORDER BY p) AS text_clean,
               count(*)::BIGINT AS kept FROM kept GROUP BY doc_id),
nt AS (SELECT doc_id, len(toks)::BIGINT AS n_tokens FROM tok)
SELECT nt.doc_id, coalesce(agg.text_clean, '') AS text_clean,
       nt.n_tokens,
       (nt.n_tokens - coalesce(agg.kept, 0))::BIGINT AS n_removed
FROM nt LEFT JOIN agg USING (doc_id)
"""


BPE_MERGES_M = 8


def q_bpe_merges(sf_dir: str):
    """Distributed BPE-merge TRAINING (Sennrich et al. 2016): learn
    the first 8 merges from the documents corpus — one corpus-sized
    word-count shuffle, then 8 vocabulary-sized rounds (pair-count
    partials -> pair groupby -> top-1 -> vectorized greedy merge).
    The oracle unrolls the 8 rounds in SQL with a pipe-encoded symbol
    string whose left-to-right `replace` IS greedy BPE merging."""
    from ..stages.bpe import bpe_train

    docs = read_table(sf_dir, "documents", columns=["text"])
    return bpe_train(docs, num_merges=BPE_MERGES_M)


def q_bpe_piece_counts(sf_dir: str):
    """Train the 8 BPE merges, then SEGMENT every document with them:
    per doc, the exact piece count under the learned merge table
    (replay in training order, greedy left-to-right per word).  The
    merge table is 8 driver-side rows broadcast into the map; the
    segmentation itself is a pure per-batch map over documents."""
    from ..stages.bpe import bpe_segment_batch, bpe_train

    corpus = read_table(sf_dir, "documents", columns=["text"])
    merges_t = bpe_train(corpus, num_merges=BPE_MERGES_M)
    merges = list(zip(merges_t["left"].to_pylist(),
                      merges_t["right"].to_pylist()))
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def seg(t: pa.Table) -> pa.Table:
        return bpe_segment_batch(t, merges)

    return docs.map_batches(seg, batch_format="pyarrow")


def _bpe_piece_counts_sql(m: int) -> str:
    """The bpe_merges CTE chain, then the merges applied (in training
    order, with an empty-merge guard) to each DISTINCT word's
    pipe-encoded symbol string; per-doc piece counts by joining the
    word piece table back to the doc->word explode."""
    merge_sql = _bpe_merges_sql(m)
    body = merge_sql.strip()
    assert body.startswith("WITH ")
    with_body = body[len("WITH "):body.index("SELECT 1::BIGINT")].rstrip() \
        .rstrip(",")
    seg_steps = []
    for i in range(1, m + 1):
        seg_steps.append(f"""s{i} AS (
  SELECT word,
         CASE WHEN m{i}.l IS NULL THEN pw
              ELSE replace(pw, '|' || m{i}.l || '||' || m{i}.r || '|',
                           '|' || m{i}.l || m{i}.r || '|') END AS pw
  FROM s{i-1} LEFT JOIN m{i} ON TRUE)""")
    return f"""
WITH {with_body},
dw AS (SELECT doc_id, w
       FROM (SELECT doc_id,
                    unnest(list_filter(regexp_split_to_array(lower(text),
                                                             '[^a-z]+'),
                                       x -> x <> '')) AS w
             FROM documents)),
u0 AS (SELECT DISTINCT w AS word FROM dw),
s0 AS (SELECT word, '||' || regexp_replace(word, '(.)', '\\1||', 'g') AS pw
       FROM u0),
{",".join(seg_steps)},
pieces AS (SELECT word,
                  len(list_filter(string_split(pw, '|'),
                                  x -> x <> ''))::BIGINT AS np
           FROM s{m}),
cnt AS (SELECT dw.doc_id, sum(p.np)::BIGINT AS n FROM dw
        JOIN pieces p ON p.word = dw.w GROUP BY dw.doc_id)
SELECT d.doc_id, coalesce(cnt.n, 0)::BIGINT AS n_bpe_pieces
FROM documents d LEFT JOIN cnt USING (doc_id)
"""


def _bpe_merges_sql(m: int) -> str:
    ctes = [f"""words AS (
  SELECT w AS word, count(*)::BIGINT AS freq
  FROM (SELECT unnest(list_filter(regexp_split_to_array(lower(text),
                                                        '[^a-z]+'),
                                  x -> x <> '')) AS w
        FROM documents)
  GROUP BY w),
r0 AS (SELECT '||' || regexp_replace(word, '(.)', '\\1||', 'g') AS w,
              freq
       FROM words)"""]
    for i in range(1, m + 1):
        ctes.append(f"""p{i} AS (
  SELECT syms[i] AS l, syms[i+1] AS r, sum(freq)::BIGINT AS cnt
  FROM (SELECT syms, freq,
               unnest(generate_series(1, len(syms)-1)) AS i
        FROM (SELECT list_filter(string_split(w, '|'),
                                 x -> x <> '') AS syms, freq
              FROM r{i-1}))
  GROUP BY 1, 2),
m{i} AS (SELECT l, r, cnt FROM p{i} ORDER BY cnt DESC, l, r LIMIT 1),
r{i} AS (SELECT replace(r{i-1}.w, '|' || m{i}.l || '||' || m{i}.r || '|',
                        '|' || m{i}.l || m{i}.r || '|') AS w, freq
         FROM r{i-1}, m{i})""")
    selects = "\nUNION ALL ".join(
        f"SELECT {i}::BIGINT AS step, l AS \"left\", r AS \"right\", "
        f"l || r AS merged, cnt FROM m{i}" for i in range(1, m + 1))
    return "WITH " + ",\n".join(ctes) + "\n" + selects


def q_doc_repetition(sf_dir: str):
    """Per-doc bigram repetition quality signals (the Gopher-style
    repetitious-text gate): duplicate-gram occurrence fraction and
    top-gram fraction per doc, 4dp half-up on both engines.  Pure
    per-batch map (dictionary-encode + one np.unique per batch)."""
    from ..stages.textstats import doc_repetition_stats

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = doc_repetition_stats(docs, n=REPETITION_N)

    fix = shape(pa.schema({"doc_id": pa.int64(), "n_ngrams": pa.int64(),
                           "dup_ngram_frac": pa.float64(),
                           "top_ngram_frac": pa.float64()}))
    return out.map_batches(fix, batch_format="pyarrow")


TOKEN_SHARD_BUDGET = 500


def q_running_user_value(sf_dir: str):
    """Per-user running total (the distributed prefix scan): sum of
    floor(value*100) cents over (ts, event_id) order within each user
    — integer cents so both engines accumulate exactly.  One range
    sort, O(num_blocks) edge summaries + driver carry thread, one
    vectorized cumsum per block; uniqueness of the sort tuple is
    enforced (event_id is the tiebreaker)."""
    from ..stages.scan import running_sum

    ev = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"])

    def prep(t: pa.Table) -> pa.Table:
        v = _non_null_numpy(t, "value")
        return pa.table({
            "event_id": t["event_id"],
            "ts": t["ts"],
            "user_id": t["user_id"],
            "cents": pa.array(np.floor(v * 100).astype(np.int64)),
        })

    scanned = running_sum(ev.map_batches(prep, batch_format="pyarrow"),
                          value_col="cents", order_by=["ts", "event_id"],
                          key_col="user_id", out_col="running_cents")

    fix = shape(pa.schema({"event_id": pa.int64(), "user_id": pa.int64(),
                           "cents": pa.int64(), "running_cents": pa.int64()}))
    return scanned.map_batches(fix, batch_format="pyarrow")


def _events_cents(sf_dir: str):
    """(event_id, ts, user_id, cents) — integer cents so every window
    engine accumulates exactly; shared by the bounded-frame queries."""
    ev = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"])

    def prep(t: pa.Table) -> pa.Table:
        v = _non_null_numpy(t, "value")
        return pa.table({
            "event_id": t["event_id"],
            "ts": t["ts"],
            "user_id": t["user_id"],
            "cents": pa.array(np.floor(v * 100).astype(np.int64)),
        })

    return ev.map_batches(prep, batch_format="pyarrow")


def _fix_event_window(t: pa.Table, out_col: str,
                      sentinel: int | None = None) -> pa.Table:
    import pyarrow.compute as pc

    col = t[out_col]
    if sentinel is not None:
        col = pc.fill_null(col, sentinel)
    return pa.table({
        "event_id": pc.cast(t["event_id"], pa.int64()),
        "user_id": pc.cast(t["user_id"], pa.int64()),
        "cents": pc.cast(t["cents"], pa.int64()),
        out_col: pc.cast(col, pa.int64()),
    })


def q_rolling_sum_w3(sf_dir: str):
    """Per-user 3-row rolling sum of cents over (ts, event_id) — SQL's
    ROWS BETWEEN 2 PRECEDING AND CURRENT ROW through the bounded-frame
    row-carry plan (one sort, O(blocks*window) driver bytes)."""
    from functools import partial

    from ..stages.scan import rolling_agg

    out = rolling_agg(_events_cents(sf_dir), order_by=["ts", "event_id"],
                      window=3, op="sum", value_col="cents",
                      key_col="user_id", out_col="rolling_cents")
    return out.map_batches(partial(_fix_event_window,
                                   out_col="rolling_cents"),
                           batch_format="pyarrow")


def q_rolling_min_w4(sf_dir: str):
    """Per-user 4-row rolling MIN of cents — the exact-dtype min path
    (segmented cummin for run-clamped frames composed with the chunked
    prefix/suffix two-array trick for full frames)."""
    from functools import partial

    from ..stages.scan import rolling_agg

    out = rolling_agg(_events_cents(sf_dir), order_by=["ts", "event_id"],
                      window=4, op="min", value_col="cents",
                      key_col="user_id", out_col="rolling_min_cents")
    return out.map_batches(partial(_fix_event_window,
                                   out_col="rolling_min_cents"),
                           batch_format="pyarrow")


LAG_SENTINEL = -(10 ** 12)


def q_event_lag_value(sf_dir: str):
    """Per-user LAG(cents) over (ts, event_id), NULLs coalesced to a
    sentinel on BOTH sides so the value hash never rides on NaN
    representation.  Type-generic Arrow take with null indices."""
    from functools import partial

    from ..stages.scan import lag_column

    out = lag_column(_events_cents(sf_dir), value_col="cents",
                     order_by=["ts", "event_id"], key_col="user_id",
                     out_col="prev_cents")
    return out.map_batches(partial(_fix_event_window, out_col="prev_cents",
                                   sentinel=LAG_SENTINEL),
                           batch_format="pyarrow")


def q_event_lead2_value(sf_dir: str):
    """Per-user LEAD(cents, 2) — the forward row carry."""
    from functools import partial

    from ..stages.scan import lead_column

    out = lead_column(_events_cents(sf_dir), value_col="cents",
                      order_by=["ts", "event_id"], key_col="user_id",
                      offset=2, out_col="next2_cents")
    return out.map_batches(partial(_fix_event_window,
                                   out_col="next2_cents",
                                   sentinel=LAG_SENTINEL),
                           batch_format="pyarrow")


SAMPLE_N = 50


def q_sample_exact_n(sf_dir: str):
    """Deterministic exact-size corpus sample: the SAMPLE_N docs with
    the globally smallest md5-low-64(text) — per-batch local top-n
    prefilter bounds the global sort at n*batches rows."""
    from ..stages.sampling import sample_exact_n

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "source"])
    out = sample_exact_n(docs, SAMPLE_N)
    return out.select_columns(["doc_id", "source"])


def q_weighted_sample(sf_dir: str):
    """Score-proportional sampling: keep probability = min(n_chars /
    1000, 1) — longer docs survive with higher probability, junk-short
    ones rarely; content-addressed (md5), so the SQL oracle replays
    every individual keep/drop decision."""
    from ..stages.sampling import sample_by_rate

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "n_chars"])

    def rate(t: pa.Table) -> pa.Table:
        n = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64)
        return t.append_column("keep_rate",
                               pa.array(np.minimum(n / 1000.0, 1.0)))

    out = sample_by_rate(docs.map_batches(rate, batch_format="pyarrow"),
                         "keep_rate")
    return out.select_columns(["doc_id", "n_chars"])


def q_events_zscore_filter(sf_dir: str):
    """Outlier gate: events whose value is within 1.5 population
    standard deviations of the whole-table mean — two streaming
    moment passes (three scalars per batch to the driver), one
    broadcast-threshold filter, no shuffle."""
    from ..stages.sampling import filter_by_zscore

    out = filter_by_zscore(read_table(sf_dir, "events"), "value", max_abs_z=1.5)

    fix = shape(pa.schema({"event_id": pa.int64(), "value": pa.float64()}),
                r4=["value"])
    return out.map_batches(fix, batch_format="pyarrow")


def q_event_value_ranks(sf_dir: str):
    """Tie-aware global rank family over integer cents (ties are real
    at every sf): RANK / DENSE_RANK / PERCENT_RANK through the
    three-scalar carry thread — equal values share a rank, so the
    result is deterministic for any tie order (no uniqueness
    contract)."""
    from ..stages.scan import add_ranks

    out = add_ranks(_events_cents(sf_dir), order_by="cents")

    fix = shape(pa.schema({"event_id": pa.int64(), "cents": pa.int64(),
                           "rnk": pa.int64(), "dense_rnk": pa.int64(),
                           "pct_rnk": pa.float64()}), r4=["pct_rnk"],
                rename={"rnk": "rank", "dense_rnk": "dense_rank",
                        "pct_rnk": "percent_rank"})
    return out.map_batches(fix, batch_format="pyarrow")


def q_user_event_quartile(sf_dir: str):
    """Keyed NTILE by composition — the PARTITION BY variant the
    ntile/add_ranks docstrings promise: per-user ROW_NUMBER (one scan
    sort), per-user counts (one grouped reduction), one sort-merge
    join to attach n, then SQL's big-tiles-first closed form as a
    pure map."""
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.join import sort_merge_join
    from ..stages.scan import ntile_ids, row_number

    K = 4
    ev = _events_cents(sf_dir)
    rn = row_number(ev, order_by=["ts", "event_id"], key_col="user_id",
                    out_col="rn")
    counts = sorted_groupby_agg(
        ev.select_columns(["user_id"]), ["user_id"],
        [("user_id", "count", "n")])
    joined = sort_merge_join(
        rn, counts, "user_id", partitions=8,
        right_schema=pa.schema([("user_id", pa.int64()),
                                ("n", pa.int64())]))

    def tile(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if t.num_rows == 0:
            return pa.schema({"event_id": pa.int64(),
                              "quartile": pa.int64()}).empty_table()
        r0 = _non_null_numpy(t, "rn").astype(np.int64) - 1
        n = _non_null_numpy(t, "n").astype(np.int64)
        return pa.table({
            "event_id": pc.cast(t["event_id"], pa.int64()),
            "quartile": pa.array(ntile_ids(r0, n, K)),
        })

    return joined.map_batches(tile, batch_format="pyarrow")


def q_doc_rank_by_len(sf_dir: str):
    """Rank documents by length DESCENDING (the quality-score-rank
    curation direction): tie-aware RANK/DENSE_RANK/PERCENT_RANK over
    n_chars with descending=True — the carry thread only needs
    contiguous equal runs, which any consistent sort direction
    gives."""
    from ..stages.scan import add_ranks

    docs = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])
    out = add_ranks(docs, order_by="n_chars", descending=True)

    fix = shape(pa.schema({"doc_id": pa.int64(), "n_chars": pa.int64(),
                           "rnk": pa.int64(), "dense_rnk": pa.int64(),
                           "pct_rnk": pa.float64()}), r4=["pct_rnk"],
                rename={"rnk": "rank", "dense_rnk": "dense_rank",
                        "pct_rnk": "percent_rank"})
    return out.map_batches(fix, batch_format="pyarrow")


def q_user_value_stats(sf_dir: str):
    """Grouped mean + population variance by composition: one
    sorted_groupby_agg pass sums exact INTEGER moments (cents,
    cents², count) so the float division afterwards is the identical
    IEEE expression in both engines — no float-association hazard."""
    from ..stages.aggregates import sorted_groupby_agg

    ev = _events_cents(sf_dir)

    def prep(t: pa.Table) -> pa.Table:
        c = _non_null_numpy(t, "cents").astype(np.int64)
        return pa.table({"user_id": t["user_id"],
                         "c": pa.array(c), "c2": pa.array(c * c)})

    agg = sorted_groupby_agg(
        ev.map_batches(prep, batch_format="pyarrow"),
        ["user_id"],
        [("c", "sum", "s"), ("c2", "sum", "ss"), ("c", "count", "n")])

    def fin(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        s = t["s"].to_numpy(zero_copy_only=False).astype(np.float64)
        ss = t["ss"].to_numpy(zero_copy_only=False).astype(np.float64)
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        mean = s / n
        var = ss / n - mean * mean
        return pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "n": pc.cast(t["n"], pa.int64()),
            "avg_cents": pa.array(_r4(mean)),
            "var_cents": pa.array(_r4(var)),
        })

    return agg.map_batches(fin, batch_format="pyarrow")


NTILE_K = 7


def q_event_ntile(sf_dir: str):
    """Global NTILE(7) over (ts, event_id) — balanced-bucket sharding
    by rank through the row_number plan + one closed-form map."""
    from ..stages.scan import ntile

    out = ntile(_events_cents(sf_dir), k=NTILE_K,
                order_by=["ts", "event_id"])

    fix = shape(pa.schema({"event_id": pa.int64(), "ntile": pa.int64()}))
    return out.map_batches(fix, batch_format="pyarrow")


UNIGRAM_TOP_V = 400


def q_unigram_quality(sf_dir: str):
    """Unigram-LM quality score (perplexity-style filtering): mean ln
    p(token) per document under the corpus's own unigram model with a
    top-V vocabulary and an OOV floor.  Pass 1 counts tokens
    (vocabulary-sized shuffle), the V-row head broadcasts once, pass 2
    is a pure vectorized map."""
    from ..stages.textstats import unigram_logprob

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = unigram_logprob(docs, top_v=UNIGRAM_TOP_V, oov_count=0.5)

    fix = shape(pa.schema({"doc_id": pa.int64(), "n_tokens": pa.int64(),
                           "logprob": pa.float64()}), r4=["logprob"])
    return out.map_batches(fix, batch_format="pyarrow")


def _unigram_quality_sql() -> str:
    return f"""
WITH {_TOK_CTE},
occ AS (SELECT doc_id, unnest(toks) AS t FROM tok),
cnt AS (SELECT t, count(*)::BIGINT AS c FROM occ GROUP BY t),
n AS (SELECT sum(c)::DOUBLE AS n FROM cnt),
topv AS (SELECT t, c FROM cnt ORDER BY c DESC, t LIMIT {UNIGRAM_TOP_V}),
sc AS (
  SELECT o.doc_id, count(*)::BIGINT AS n_tokens,
         avg(ln(coalesce(v.c::DOUBLE, 0.5) / n.n)) AS lp
  FROM occ o LEFT JOIN topv v ON o.t = v.t CROSS JOIN n
  GROUP BY o.doc_id)
SELECT d.doc_id, coalesce(sc.n_tokens, 0)::BIGINT AS n_tokens,
       {_R4.format(expr="coalesce(sc.lp, 0.0)")} AS logprob
FROM documents d LEFT JOIN sc USING (doc_id)
"""


def q_event_row_number(sf_dir: str):
    """Per-user ROW_NUMBER over (ts, event_id) — the running COUNT
    through the same one-sort + carry-thread prefix-scan plan as
    running_user_value (unique tuple enforced, so the numbering is
    deterministic on both engines)."""
    from ..stages.scan import row_number

    ev = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id"])
    rn = row_number(ev, order_by=["ts", "event_id"], key_col="user_id",
                    out_col="rn")

    fix = shape(pa.schema({"event_id": pa.int64(), "user_id": pa.int64(),
                           "rn": pa.int64()}))
    return rn.map_batches(fix, batch_format="pyarrow")


def q_running_max_value(sf_dir: str):
    """Per-user running MAX of integer cents over (ts, event_id) —
    the extremum fold through the carry thread (a carried maximum
    must WIN inside later blocks of a key that spans blocks)."""
    from ..stages.scan import running_agg

    ev = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"])

    def prep(t: pa.Table) -> pa.Table:
        v = _non_null_numpy(t, "value")
        return pa.table({
            "event_id": t["event_id"],
            "ts": t["ts"],
            "user_id": t["user_id"],
            "cents": pa.array(np.floor(v * 100).astype(np.int64)),
        })

    scanned = running_agg(ev.map_batches(prep, batch_format="pyarrow"),
                          order_by=["ts", "event_id"], op="max",
                          value_col="cents", key_col="user_id",
                          out_col="max_cents")

    fix = shape(pa.schema({"event_id": pa.int64(), "user_id": pa.int64(),
                           "cents": pa.int64(), "max_cents": pa.int64()}))
    return scanned.map_batches(fix, batch_format="pyarrow")


def q_token_shards(sf_dir: str):
    """Token-budget sharding: pack documents into ~500-token training
    shards by global cumulative token position in doc_id order
    (shard_id = exclusive_prefix_sum // budget) — the deterministic
    sequence-sharding step, built on the same prefix scan."""
    from ..stages.scan import token_budget_shards

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = token_budget_shards(docs, budget=TOKEN_SHARD_BUDGET)

    fix = shape(pa.schema({"doc_id": pa.int64(), "n_tokens": pa.int64(),
                           "shard_id": pa.int64()}))
    return out.map_batches(fix, batch_format="pyarrow")


# ordered scrub rules shared by the engine query and its oracle; the
# second rule runs over the FIRST rule's output, like chained
# regexp_replace
SCRUB_RULES = [("[0-9]{3,}", "<NUM>"), ("Customer#", "cust:")]


def q_scrub_pii(sf_dir: str):
    """Streaming regex redaction (the PII-sweep shape): ordered RE2
    rules applied globally per row plus a per-row hit count, as a pure
    map over the customer table — no shuffle, no state.  Arrow
    replace_substring_regex and DuckDB regexp_replace(...,'g') share
    the RE2 dialect, which is exactly what this query proves."""
    from ..stages.scrub import scrub_text

    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_name"])
    out = scrub_text(cust, SCRUB_RULES, text_col="c_name",
                     out_col="name_scrubbed", count_col="n_hits")

    fix = shape(pa.schema({"c_custkey": pa.int64(), "name_scrubbed": pa.string(),
                           "n_hits": pa.int64()}))
    return out.map_batches(fix, batch_format="pyarrow")


# per-language keep rates out of 10000 buckets (en kept whole, es
# downsampled 4x, everything else halved) — shared with the oracle
STRAT_RATES = {"en": 10_000, "es": 2_500}
STRAT_DEFAULT = 5_000


def q_stratified_sample(sf_dir: str):
    """Deterministic stratified downsampling (the over-represented-
    language curation move): keep iff md5_low64(text) % 10000 < the
    language's keep rate.  Pure map, no shuffle, no RNG state; the
    oracle replays the assignment with md5_number_lower."""
    from ..stages.sampling import sample_fraction

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    return sample_fraction(docs, STRAT_RATES, default=STRAT_DEFAULT,
                           group_col="lang", hash_col="text",
                           out_cols=["doc_id", "lang"])


def q_label_centroids(sf_dir: str):
    """Mean embedding per label (class prototypes): per-batch partial
    (key, vector-sum, n) rows -> one range sort -> per-run combine.
    Output exploded to (label, dim, mean, n) rows so the SQL oracle
    (unnest + generate_subscripts + AVG) compares value by value;
    means rounded 4dp on both engines (summation association
    differs)."""
    from ..stages.similarity import group_centroids

    emb = read_table(sf_dir, "embeddings", columns=["label", "embedding"])
    cents = group_centroids(emb, "label", emb_col="embedding")

    def explode(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        from ..stages.similarity import _emb_matrix

        if t.num_rows == 0:
            return pa.schema({"label": pa.int64(),
                              "dim": pa.int64(),
                              "mean": pa.float64(),
                              "n": pa.int64()}).empty_table()
        m = _emb_matrix(t, "centroid")
        r, d = m.shape
        lab = pc.cast(t["label"], pa.int64()).to_numpy(zero_copy_only=False)
        nv = pc.cast(t["n"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "label": pa.array(np.repeat(lab, d)),
            "dim": pa.array(np.tile(np.arange(1, d + 1, dtype=np.int64), r)),
            "mean": pa.array(_r4(m.ravel())),
            "n": pa.array(np.repeat(nv, d)),
        })

    return cents.map_batches(explode, batch_format="pyarrow")


EVENTS_VALUE_Q = 0.9


def q_events_above_p90(sf_dir: str):
    """Quality-threshold curation gate: events whose value is >= the
    exact global p90 — threshold located via sorted-block row-count
    metadata (one block fetched, no driver materialization), then one
    streaming filter pass."""
    from ..stages.aggregates import filter_by_quantile

    ev = read_table(sf_dir, "events", columns=["event_id", "value"])
    out = filter_by_quantile(ev, "value", EVENTS_VALUE_Q, keep="ge")

    fix = shape(pa.schema({"event_id": pa.int64(), "value": pa.float64()}),
                r4=["value"])
    return out.map_batches(fix, batch_format="pyarrow")


KMEANS_K = 8


def _kmeans_cent_ref(sf_dir: str):
    """Deterministic k-means seed centroids: embeddings of the
    KMEANS_K smallest vec_ids (what `kmeans_init` computes)."""
    from ..stages.similarity import kmeans_init

    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return emb, kmeans_init(emb, KMEANS_K)


def q_kmeans_assign(sf_dir: str):
    """One k-means assignment step: every vector to its nearest of the
    8 deterministic seed centroids (the k smallest vec_ids), distance
    rounded 4dp BEFORE the argmin so ties are decided identically on
    both engines (lowest centroid id — np.argmin's first-minimum rule
    == ORDER BY dist, cid).  Broadcast centroids, one matmul per
    batch, no shuffle."""
    from functools import partial

    import ray

    from ..stages.similarity import kmeans_assign_batch

    emb, cents = _kmeans_cent_ref(sf_dir)
    ref = ray.put(cents)
    return emb.map_batches(
        partial(kmeans_assign_batch, cent_ref=ref, round_dist=True),
        batch_format="pyarrow")


def q_kmeans_step(sf_dir: str):
    """One full Lloyd iteration through the engine's loop machinery:
    the rounded assignment above, then the `group_centroids` update —
    per-batch (cluster, vector-sum, n) partials, one small range sort
    — exploded to (cluster, dim, mean, n) rows for the SQL oracle."""
    from functools import partial

    import ray

    from ..stages.similarity import _emb_matrix, group_centroids, \
        kmeans_assign_batch

    emb, cents = _kmeans_cent_ref(sf_dir)
    ref = ray.put(cents)
    assigned = emb.map_batches(
        partial(kmeans_assign_batch, cent_ref=ref, round_dist=True,
                keep_emb=True),
        batch_format="pyarrow")
    upd = group_centroids(assigned, "cluster", emb_col="embedding")

    def explode(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if t.num_rows == 0:
            return pa.schema({"cluster": pa.int64(),
                              "dim": pa.int64(),
                              "mean": pa.float64(),
                              "n": pa.int64()}).empty_table()
        m = _emb_matrix(t, "centroid")
        r, d = m.shape
        cl = pc.cast(t["cluster"], pa.int64()).to_numpy(zero_copy_only=False)
        nv = pc.cast(t["n"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "cluster": pa.array(np.repeat(cl, d)),
            "dim": pa.array(np.tile(np.arange(1, d + 1, dtype=np.int64), r)),
            "mean": pa.array(_r4(m.ravel())),
            "n": pa.array(np.repeat(nv, d)),
        })

    return upd.map_batches(explode, batch_format="pyarrow")


def q_semdedup_survivors(sf_dir: str):
    """SemDeDup (Abbas et al. 2023) composed from three tested
    operators: k-means assignment (broadcast centroids, one matmul per
    batch) -> hyperplane-LSH embedding near-dup pairs FILTERED to
    same-cluster (two pair-sized sort-merge joins against the
    (vec_id, cluster) map) -> transitive connected components -> keep
    one representative per duplicate component (the min vec_id, i.e.
    the node whose label equals itself) plus every un-paired vector.
    Returns the survivors as (vec_id, cluster)."""

    import ray

    from ..stages.dedup import connected_components
    from ..stages.join import sort_merge_join
    from ..stages.similarity import embedding_dup_pairs, kmeans_assign_batch

    emb, cents = _kmeans_cent_ref(sf_dir)
    ref = ray.put(cents)
    aschema = pa.schema([("vec_id", pa.int64()), ("cluster", pa.int64())])

    def assign(t: pa.Table) -> pa.Table:
        out = kmeans_assign_batch(t, ref, round_dist=True)
        return out.select(["vec_id", "cluster"])

    amap = emb.map_batches(assign, batch_format="pyarrow")

    pschema = pa.schema([("a", pa.int64()), ("b", pa.int64())])

    fix_pairs = shape(pschema)

    pairs = embedding_dup_pairs(
        read_table(sf_dir, "embeddings"),
        threshold=EMB_DUP_THRESHOLD, num_hyperplanes=EMB_DUP_HYPERPLANES,
    ).map_batches(fix_pairs, batch_size=None, batch_format="pyarrow")

    j1 = sort_merge_join(pairs, amap, "a", right_on="vec_id",
                         left_schema=pschema, right_schema=aschema)
    j2 = sort_merge_join(
        j1, amap, "b", right_on="vec_id",
        left_schema=pa.schema([("a", pa.int64()), ("b", pa.int64()),
                               ("cluster", pa.int64())]),
        right_schema=aschema)

    def same_cluster(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if t.num_rows == 0:
            return pschema.empty_table()
        keep = pc.equal(t["cluster"], t["cluster_r"])
        return t.filter(keep).select(["a", "b"])

    same = j2.map_batches(same_cluster, batch_size=None,
                          batch_format="pyarrow")
    labels = connected_components(same)

    def dropped(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if t.num_rows == 0 or "node" not in t.column_names:
            return pa.schema([("node", pa.int64())]).empty_table()
        keep = pc.invert(pc.equal(t["node"], t["component"]))
        return pa.table({"node": pc.cast(t.filter(keep)["node"],
                                         pa.int64())})

    drops = labels.map_batches(dropped, batch_size=None,
                               batch_format="pyarrow")
    return sort_merge_join(amap, drops, "vec_id", right_on="node",
                           how="anti", left_schema=aschema,
                           right_schema=pa.schema([("node", pa.int64())]))


def _semdedup_survivors_sql(threshold: float, num_hyperplanes: int,
                            iters: int = 8) -> str:
    """kmeans_assign CTEs + embedding_dup_pairs CTEs + same-cluster
    filter + the same unrolled min-label/pointer-jump chain
    `_cluster_cte_chain` uses, then NOT IN the non-representatives."""
    pair_sql = _embedding_dup_pairs_sql(threshold, num_hyperplanes)
    # reuse the pair oracle's WITH-body (strip 'WITH ' and the final
    # SELECT) so both oracles share one definition of the LSH pairs
    body = pair_sql.strip()
    assert body.startswith("WITH ")
    with_body = body[len("WITH "):body.rindex("SELECT a, b,")].rstrip() \
        .rstrip(",")
    steps = []
    for k in range(iters):
        steps.append(f"""
l{k + 1} AS MATERIALIZED (
  SELECT n.node,
         least(n.comp,
               coalesce(min(nb.comp), n.comp),
               coalesce(min(pj.comp), n.comp)) AS comp
  FROM l{k} n
  LEFT JOIN e ON e.src = n.node
  LEFT JOIN l{k} nb ON nb.node = e.dst
  LEFT JOIN l{k} pj ON pj.node = n.comp
  GROUP BY n.node, n.comp
)""")
    return f"""
WITH kc AS (
  SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cid,
         embedding AS cemb
  FROM (SELECT * FROM embeddings ORDER BY vec_id LIMIT {KMEANS_K})
),
kd AS (
  SELECT e.vec_id, kc.cid,
         {_R4.format(expr="list_distance(e.embedding::DOUBLE[], kc.cemb::DOUBLE[])")} AS dist
  FROM embeddings e CROSS JOIN kc
),
kr AS (
  SELECT vec_id, cid,
         row_number() OVER (PARTITION BY vec_id ORDER BY dist, cid) AS rn
  FROM kd
),
asg AS MATERIALIZED (SELECT vec_id, cid::BIGINT AS cluster
                     FROM kr WHERE rn = 1),
{with_body},
keep AS MATERIALIZED (
  SELECT s.a, s.b FROM s
  JOIN asg ca ON ca.vec_id = s.a
  JOIN asg cb ON cb.vec_id = s.b
  WHERE s.sim >= {threshold} AND ca.cluster = cb.cluster
),
e AS MATERIALIZED (SELECT a AS src, b AS dst FROM keep
                   UNION ALL SELECT b AS src, a AS dst FROM keep),
l0 AS MATERIALIZED (SELECT src AS node, least(src, min(dst)) AS comp
                    FROM e GROUP BY src),
{",".join(steps)}
SELECT asg.vec_id, asg.cluster FROM asg
WHERE asg.vec_id NOT IN (SELECT node FROM l{iters} WHERE node <> comp)
"""


RANGE_WINDOW_S = 300


def q_click_view_range_join(sf_dir: str):
    """Banded range join: every (click, view) pair of the same user
    with the click inside [view_ts, view_ts + 300 s].  Each view
    interval is replicated to at most 2 time bands, so a pair is
    emitted exactly once — one equi sort-merge join on (user, band) +
    a vectorized containment filter."""
    from ..stages.join import range_join

    w_us = RANGE_WINDOW_S * 1_000_000

    def prep_clicks(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = t.filter(pc.equal(t["event_type"], "click"))
        ts = t["ts"].combine_chunks() if isinstance(t["ts"], pa.ChunkedArray) else t["ts"]
        return pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "click_id": pc.cast(t["event_id"], pa.int64()),
            "ts_us": ts.cast(pa.int64()),
        })

    def prep_views(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = t.filter(pc.equal(t["event_type"], "view"))
        ts = t["ts"].combine_chunks() if isinstance(t["ts"], pa.ChunkedArray) else t["ts"]
        lo = ts.cast(pa.int64())
        return pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "view_id": pc.cast(t["event_id"], pa.int64()),
            "lo": lo,
            "hi": pc.add(lo, pa.scalar(w_us, pa.int64())),
        })

    ev = read_table(sf_dir, "events")
    clicks = ev.map_batches(prep_clicks, batch_format="pyarrow")
    views = ev.map_batches(prep_views, batch_format="pyarrow")
    out = range_join(
        clicks, views, on="user_id", left_ts="ts_us", right_lo="lo",
        right_hi="hi", band_width=w_us, partitions=8,
        left_schema=pa.schema([("user_id", pa.int64()),
                               ("click_id", pa.int64()),
                               ("ts_us", pa.int64())]),
        right_schema=pa.schema([("user_id", pa.int64()),
                                ("view_id", pa.int64()),
                                ("lo", pa.int64()), ("hi", pa.int64())]),
    )
    return out.select_columns(["click_id", "view_id"])


def q_clean_corpus(sf_dir: str):
    """Flagship training-data cleaning composite: quality gate (token
    count) + language ID + exact dedup survivor + near-dup transitive
    cluster survivor, assembled by one sorted reduction — the full
    cleaning contract value-checked end to end against SQL."""
    from .clean import clean_corpus

    return clean_corpus(read_table(sf_dir, "documents"))


def q_pagerank(sf_dir: str):
    """PageRank over a deterministic synthetic link graph derived from
    doc ids (each doc links to (7i+3) mod N and (13i+5) mod N)."""
    import pyarrow.parquet as pq

    from .pagerank import pagerank_numpy

    n = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    i = np.arange(n, dtype=np.int64)
    src = np.r_[i, i]
    dst = np.r_[(7 * i + 3) % n, (13 * i + 5) % n]
    keep = src != dst
    scores = pagerank_numpy(src[keep], dst[keep], n)
    return pa.table({"node": pa.array(i), "score": pa.array(_r4(scores))})


def q_pagerank_join(sf_dir: str):
    """Scores-JOIN-edges PageRank (`pagerank_dataset_join` — the
    beyond-one-heap variant where scores stay a (node, score) Dataset
    end to end) over the SAME synthetic doc-id link graph as
    q_pagerank, at 8 iterations so the per-iteration sort+groupby
    exchanges stay cheap at oracle scale. Same unrolled-SQL oracle
    family (`_pagerank_sql(8)`); exercises the distributed cogroup
    path rather than the numpy oracle."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from .pagerank import pagerank_dataset_join

    n = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    i = np.arange(n, dtype=np.int64)
    src = np.r_[i, i]
    dst = np.r_[(7 * i + 3) % n, (13 * i + 5) % n]
    keep = src != dst
    edges = rd.from_arrow(
        pa.table({"src": pa.array(src[keep]), "dst": pa.array(dst[keep])})
    )
    out = pagerank_dataset_join(edges, n, iterations=8).to_pandas()
    out = out.sort_values("node").reset_index(drop=True)
    return pa.table(
        {
            "node": pa.array(out["node"].to_numpy()),
            "score": pa.array(_r4(out["score"].to_numpy())),
        }
    )


# -- golden VALUES oracles ---------------------------------------------

_CODEC_GOLDEN = [
    ("six_ones", [1, 2, 3, 4, 5, 6]),
    ("powers", [128, 384, 896, 1920, 3968]),
    ("max_int", [2147483647]),
    ("empty", []),
    ("zero", [0]),
]


def q_codec_golden(sf_dir: str):
    from ..functions.codecs import varint_decode, varint_encode

    rows = []
    for name, ints in _CODEC_GOLDEN:
        enc = varint_encode(ints)
        ok = varint_decode(enc).tolist() == ints
        rows.append({"case_id": name, "encoded_hex": enc.hex(), "roundtrip_ok": ok})
    return pa.Table.from_pylist(rows)


_STEM_GOLDEN = {
    "stemming": "stem", "important": "import", "computer": "comput",
    "science": "scienc", "clothes": "cloth", "satisfactory": "satisfactori",
    "wearing": "wear", "worn": "worn", "programmers": "programm",
    "Jerry": "Jerri", "use": "us", "however": "howev", "writing": "write",
    "Turning": "Turn", "results": "result", "applications": "applic",
    "this": "thi", "information": "inform", "retrieval": "retriev",
    "activity": "activ", "obtaining": "obtain", "resources": "resourc",
    "relevant": "relev", "collection": "collect", "fished": "fish",
    "alone": "alon", "weeks": "week", "taking": "take", "rate": "rate",
    "feed": "feed", "sky": "sky", "caress": "caress", "1234": "1234",
}


_PFOR_GOLDEN = [
    ("six_ones", [1, 2, 3, 4, 5, 6], True),
    ("zero", [0], True),
    ("empty", [], True),
    ("outlier_patch", [1, 1, 1, 1000000], False),
    ("powers", [128, 384, 896, 1920, 3968], True),
]


def q_pfordelta_golden(sf_dir: str):
    """PForDelta block-codec golden vectors (oracle literals are
    hand-derived byte-for-byte in tests/test_pfordelta.py)."""
    from ..functions.codecs import pfordelta_decode, pfordelta_encode

    rows = []
    for name, ints, delta in _PFOR_GOLDEN:
        enc = pfordelta_encode(ints, delta=delta)
        ok = pfordelta_decode(enc, delta=delta).tolist() == ints
        rows.append({"case_id": name, "encoded_hex": enc.hex(), "roundtrip_ok": ok})
    return pa.Table.from_pylist(rows)


def q_stemmer_golden(sf_dir: str):
    from ..functions.porter import porter_stem

    return pa.table(
        {
            "word": pa.array(list(_STEM_GOLDEN)),
            "stem": pa.array([porter_stem(w) for w in _STEM_GOLDEN]),
        }
    )


_WB_DICT = [
    "﻿", "さようなら 1 1 1",
    "你好 1", "我 2", "是 3", "一个 4", "人 5",
    "the 23135851162", "cat 900000", "and 10000000", "dog 800000",
    "a 8000000", "i 3000000", "ai 100000", "catand 1",
]
_WB_GOLDEN = [
    ("catanddog", "cat dog"),
    ("catdogcatdog", "cat dog cat dog"),
    ("你好我是一个人", "你好 我 是 一个 人"),
    ("CatAndDog", "cat dog"),
]


def q_wordbreak_golden(sf_dir: str):
    from ..functions.tokenizers import WordBreakTokenizer

    tok = WordBreakTokenizer(_WB_DICT)
    return pa.table(
        {
            "input": pa.array([i for i, _ in _WB_GOLDEN]),
            "tokens": pa.array([" ".join(tok.tokenize(i)) for i, _ in _WB_GOLDEN]),
        }
    )


# reference WordBreakTokenizerTest / JapaneseTokenizerTest vectors run
# against the SHIPPED public dictionaries (resources/
# cs221_frequency_dictionary_{en,jp}.txt) — golden VALUES oracle
_WB_DICT_GOLDEN = [
    ("en", "catdog", "cat dog"),
    ("en", "catdogcatdog", "cat dog cat dog"),
    ("en", "你好我是一个人", "你好 我 是 一个 人"),
    ("en", "さようなら友達", "さようなら 友達"),
    ("en", "CATDOG", "cat dog"),
    ("en", "mecatdog", "cat dog"),
    ("en", "something", "something"),
    ("jp", "ジンボはリンゴを食べる", "ジン ボ は リンゴ を 食べる"),
    ("jp", "あなたを愛しています", "あなた を 愛し て い ます"),
]


def q_wordbreak_dict_golden(sf_dir: str):
    from ..functions.tokenizers import WordBreakTokenizer

    toks = {lang: WordBreakTokenizer.default(lang) for lang in ("en", "jp")}
    return pa.table(
        {
            "lang": pa.array([l for l, _, _ in _WB_DICT_GOLDEN]),
            "input": pa.array([i for _, i, _ in _WB_DICT_GOLDEN]),
            "tokens": pa.array(
                [" ".join(toks[l].tokenize(i)) for l, i, _ in _WB_DICT_GOLDEN]
            ),
        }
    )


# ---------------------------------------------------------------------
# registry + oracle SQL
# ---------------------------------------------------------------------

QUERIES = {
    "token_stats": q_token_stats,
    "langid": q_langid,
    "bpe_token_count": q_bpe_token_count,
    "term_stats": q_term_stats,
    "search_keyword": q_search_keyword,
    "search_and": q_search_and,
    "search_or": q_search_or,
    "search_phrase": q_search_phrase,
    "search_prefix": q_search_prefix,
    "search_not": q_search_not,
    "search_near": q_search_near,
    "search_fuzzy": q_search_fuzzy,
    "search_wildcard": q_search_wildcard,
    "search_phrase3": q_search_phrase3,
    "tfidf_all": q_tfidf_all,
    "term_positions": q_term_positions,
    "code_term_stats": q_code_term_stats,
    "bm25_topk": q_bm25_topk,
    "bm25_all": q_bm25_all,
    "tfidf_topk": q_tfidf_topk,
    "bm25_topk_distributed": q_bm25_topk_distributed,
    "search_and_distributed": q_search_and_distributed,
    "search_phrase_distributed": q_search_phrase_distributed,
    "search_prefix_distributed": q_search_prefix_distributed,
    "search_not_distributed": q_search_not_distributed,
    "search_near_distributed": q_search_near_distributed,
    "search_fuzzy_distributed": q_search_fuzzy_distributed,
    "search_wildcard_distributed": q_search_wildcard_distributed,
    "bm25_all_distributed": q_bm25_all_distributed,
    "tfidf_topk_distributed": q_tfidf_topk_distributed,
    "bm25_topk_hydrated": q_bm25_topk_hydrated,
    "dedup_exact": q_dedup_exact,
    "sha256_docs": q_sha256_docs,
    "token_count_total": q_token_count_total,
    "ann_cosine_topk": q_ann_cosine_topk,
    "ann_hydrated": q_ann_hydrated,
    "embedding_cov": q_embedding_cov,
    "ann_ivf_topk": q_ann_ivf_topk,
    "ann_lsh_topk": q_ann_lsh_topk,
    "compression_ratio": q_compression_ratio,
    "minhash_signatures": q_minhash_signatures,
    "simhash": q_simhash,
    "fingerprints": q_fingerprints,
    "minhash_near_pairs": q_minhash_near_pairs,
    "dedup_near_jaccard": q_dedup_near_jaccard,
    "dedup_clusters": q_dedup_clusters,
    "window_tumbling": q_window_tumbling,
    "window_distinct_users": q_window_distinct_users,
    "window_sliding": q_window_sliding,
    "sessionize": q_sessionize,
    "asof_attribution": q_asof_attribution,
    "clean_corpus": q_clean_corpus,
    "top_events_per_user": q_top_events_per_user,
    "user_value_quantiles": q_user_value_quantiles,
    "distinct_hll": q_distinct_hll,
    "source_distinct_hll": q_source_distinct_hll,
    "cms_token_counts": q_cms_token_counts,
    "heavy_hitters": q_heavy_hitters,
    "bigram_pmi": q_bigram_pmi,
    "hash_split": q_hash_split,
    "cap_per_source": q_cap_per_source,
    "revenue_per_nation": q_revenue_per_nation,
    "customer_order_counts": q_customer_order_counts,
    "customer_order_counts_skew": q_customer_order_counts_skew,
    "user_event_diversity": q_user_event_diversity,
    "value_quantiles_global": q_value_quantiles_global,
    "value_quantiles_hist": q_value_quantiles_hist,
    "user_quantiles_hist": q_user_quantiles_hist,
    "customers_without_orders": q_customers_without_orders,
    "parts_in_lineitem": q_parts_in_lineitem,
    "custkeys_intersect": q_custkeys_intersect,
    "partkeys_except": q_partkeys_except,
    "building_f_orders_full": q_building_f_orders_full,
    "doc_keywords": q_doc_keywords,
    "chunk_docs": q_chunk_docs,
    "decontam_drop": q_decontam_drop,
    "decontam_frac": q_decontam_frac,
    "doc_repetition": q_doc_repetition,
    "dup_passages": q_dup_passages,
    "dedup_passages_rewrite": q_dedup_passages_rewrite,
    "dedup_passages_drop_all": q_dedup_passages_drop_all,
    "bpe_merges": q_bpe_merges,
    "semdedup_survivors": q_semdedup_survivors,
    "bpe_piece_counts": q_bpe_piece_counts,
    "running_user_value": q_running_user_value,
    "rolling_sum_w3": q_rolling_sum_w3,
    "rolling_min_w4": q_rolling_min_w4,
    "event_lag_value": q_event_lag_value,
    "event_lead2_value": q_event_lead2_value,
    "unigram_quality": q_unigram_quality,
    "sample_exact_n": q_sample_exact_n,
    "events_zscore_filter": q_events_zscore_filter,
    "weighted_sample": q_weighted_sample,
    "event_ntile": q_event_ntile,
    "user_value_stats": q_user_value_stats,
    "event_value_ranks": q_event_value_ranks,
    "user_event_quartile": q_user_event_quartile,
    "doc_rank_by_len": q_doc_rank_by_len,
    "event_row_number": q_event_row_number,
    "running_max_value": q_running_max_value,
    "token_shards": q_token_shards,
    "scrub_pii": q_scrub_pii,
    "stratified_sample": q_stratified_sample,
    "label_centroids": q_label_centroids,
    "kmeans_assign": q_kmeans_assign,
    "kmeans_step": q_kmeans_step,
    "events_above_p90": q_events_above_p90,
    "click_view_range_join": q_click_view_range_join,
    "embedding_dup_pairs": q_embedding_dup_pairs,
    "pagerank": q_pagerank,
    "pagerank_join": q_pagerank_join,
    "codec_golden": q_codec_golden,
    "pfordelta_golden": q_pfordelta_golden,
    "stemmer_golden": q_stemmer_golden,
    "wordbreak_golden": q_wordbreak_golden,
    "wordbreak_dict_golden": q_wordbreak_dict_golden,
}


# ---------------------------------------------------------------------
# sketch / graph oracle SQL builders
# ---------------------------------------------------------------------


def _perm_values_sql(num_perm: int = 64, seed: int = 1234) -> str:
    """The SAME (a_p, b_p) permutation constants the engine draws
    (dedup._perm_params) inlined as SQL literals."""
    from ..stages.dedup import _perm_params

    a, b = _perm_params(num_perm, seed)
    return ",".join(
        f"({p}, {int(a[p])}::UHUGEINT, {int(b[p])}::UHUGEINT)" for p in range(num_perm)
    )


def _minhash_sig_ctes(num_perm: int = 64, shingle_k: int = 3) -> str:
    """CTE chain ending in sig(doc_id, p, sig_u): per-permutation MinHash
    minima as UHUGEINT, all-MAX sentinel for docs without shingles
    (parity with dedup.minhash_batch)."""
    return f"""{_TOK_CTE},
{_TOKHASH_CTE.strip()},
{_shingle_cte(shingle_k).strip()},
perms(p, a, bb) AS (SELECT * FROM (VALUES {_perm_values_sql(num_perm)})),
minh AS (
  SELECT s.doc_id, perms.p,
         min(((perms.a * s.s) % {_M64} + perms.bb) % {_M64}) AS sig
  FROM shingles s CROSS JOIN perms GROUP BY s.doc_id, perms.p
),
sig AS (
  SELECT d.doc_id, perms.p, coalesce(minh.sig, {_MAXU64}) AS sig_u
  FROM (SELECT doc_id FROM documents) d CROSS JOIN perms
  LEFT JOIN minh ON minh.doc_id = d.doc_id AND minh.p = perms.p
)"""


def _minhash_signatures_sql() -> str:
    return f"""
WITH {_minhash_sig_ctes()}
SELECT doc_id, p, {_u64_to_i64("sig_u")} AS sig FROM sig
"""


def _minhash_near_pairs_sql(rows: int = 4, max_bucket: int = 200) -> str:
    # band count is implied by num_perm // rows (band id = p // rows)
    poly = _poly_list([f"sigs[{r + 1}]" for r in range(rows)])
    return f"""
WITH {_minhash_sig_ctes()},
bs AS (
  SELECT doc_id, p // {rows} AS band, list(sig_u ORDER BY p) AS sigs
  FROM sig GROUP BY doc_id, p // {rows}
),
bh AS (SELECT doc_id, band, {poly} AS bhash FROM bs),
mem AS (
  SELECT band, bhash, doc_id,
         row_number() OVER (PARTITION BY band, bhash ORDER BY doc_id) AS rn
  FROM (SELECT DISTINCT band, bhash, doc_id FROM bh)
)
SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
FROM mem x JOIN mem y
  ON x.band = y.band AND x.bhash = y.bhash AND x.doc_id < y.doc_id
WHERE x.rn <= {max_bucket} AND y.rn <= {max_bucket}
"""


def _dedup_near_jaccard_sql(rows: int = 4, max_bucket: int = 200) -> str:
    # band count is implied by num_perm // rows (band id = p // rows)
    """Candidate pairs (same CTEs as minhash_near_pairs) + exact
    distinct-shingle Jaccard via a shingle-equality self-join."""
    poly = _poly_list([f"sigs[{r + 1}]" for r in range(rows)])
    jac = ("CASE WHEN coalesce(za.n, 0) = 0 AND coalesce(zb.n, 0) = 0 THEN 1.0 "
           "ELSE coalesce(i.i, 0)::DOUBLE / "
           "(coalesce(za.n, 0) + coalesce(zb.n, 0) - coalesce(i.i, 0)) END")
    return f"""
WITH {_minhash_sig_ctes()},
bs AS (
  SELECT doc_id, p // {rows} AS band, list(sig_u ORDER BY p) AS sigs
  FROM sig GROUP BY doc_id, p // {rows}
),
bh AS (SELECT doc_id, band, {poly} AS bhash FROM bs),
mem AS (
  SELECT band, bhash, doc_id,
         row_number() OVER (PARTITION BY band, bhash ORDER BY doc_id) AS rn
  FROM (SELECT DISTINCT band, bhash, doc_id FROM bh)
),
cand AS (
  SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
  FROM mem x JOIN mem y
    ON x.band = y.band AND x.bhash = y.bhash AND x.doc_id < y.doc_id
  WHERE x.rn <= {max_bucket} AND y.rn <= {max_bucket}
),
dsh AS (SELECT DISTINCT doc_id, s FROM shingles),
sz AS (SELECT doc_id, count(*)::BIGINT AS n FROM dsh GROUP BY doc_id),
inter AS (
  SELECT c.a, c.b, count(*)::BIGINT AS i
  FROM cand c
  JOIN dsh x ON x.doc_id = c.a
  JOIN dsh y ON y.doc_id = c.b AND y.s = x.s
  GROUP BY c.a, c.b
)
SELECT c.a, c.b, {_R4.format(expr=jac)} AS jaccard
FROM cand c
LEFT JOIN sz za ON za.doc_id = c.a
LEFT JOIN sz zb ON zb.doc_id = c.b
LEFT JOIN inter i ON i.a = c.a AND i.b = c.b
"""


def _dedup_clusters_sql(rows: int = 4, max_bucket: int = 200,
                        threshold: float = DEDUP_CLUSTER_THRESHOLD,
                        iters: int = 8) -> str:
    """Same candidate + exact-Jaccard CTEs as dedup_near_jaccard,
    thresholded, then `iters` unrolled rounds of min-label propagation
    WITH pointer jumping (each round also asks the current label for
    ITS label), so chains contract geometrically — 8 rounds covers any
    component diameter the 0.01/0.1 corpora can produce, and the Ray
    side iterates to an exact fixpoint, which the unrolled SQL matches
    once both are converged."""
    return f"""
WITH {_minhash_sig_ctes()},
{_cluster_cte_chain(rows, max_bucket, threshold, iters)}
SELECT node, comp AS component FROM l{iters}
"""


def _cluster_cte_chain(rows: int = 4, max_bucket: int = 200,
                       threshold: float = None, iters: int = 8) -> str:
    """CTE chain (requires `_minhash_sig_ctes()` CTEs before it) from
    LSH banding through thresholded exact-Jaccard pairs to `l{iters}`
    (node, comp) min-label components — shared by `dedup_clusters` and
    the `clean_corpus` composite."""
    if threshold is None:
        threshold = DEDUP_CLUSTER_THRESHOLD
    poly = _poly_list([f"sigs[{r + 1}]" for r in range(rows)])
    jac = ("CASE WHEN coalesce(za.n, 0) = 0 AND coalesce(zb.n, 0) = 0 THEN 1.0 "
           "ELSE coalesce(i.i, 0)::DOUBLE / "
           "(coalesce(za.n, 0) + coalesce(zb.n, 0) - coalesce(i.i, 0)) END")
    steps = []
    for k in range(iters):
        steps.append(f"""
l{k + 1} AS MATERIALIZED (
  SELECT n.node,
         least(n.comp,
               coalesce(min(nb.comp), n.comp),
               coalesce(min(pj.comp), n.comp)) AS comp
  FROM l{k} n
  LEFT JOIN e ON e.src = n.node
  LEFT JOIN l{k} nb ON nb.node = e.dst
  LEFT JOIN l{k} pj ON pj.node = n.comp
  GROUP BY n.node, n.comp
)""")
    return f"""bs AS (
  SELECT doc_id, p // {rows} AS band, list(sig_u ORDER BY p) AS sigs
  FROM sig GROUP BY doc_id, p // {rows}
),
bh AS (SELECT doc_id, band, {poly} AS bhash FROM bs),
mem AS (
  SELECT band, bhash, doc_id,
         row_number() OVER (PARTITION BY band, bhash ORDER BY doc_id) AS rn
  FROM (SELECT DISTINCT band, bhash, doc_id FROM bh)
),
cand AS (
  SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
  FROM mem x JOIN mem y
    ON x.band = y.band AND x.bhash = y.bhash AND x.doc_id < y.doc_id
  WHERE x.rn <= {max_bucket} AND y.rn <= {max_bucket}
),
dsh AS (SELECT DISTINCT doc_id, s FROM shingles),
sz AS (SELECT doc_id, count(*)::BIGINT AS n FROM dsh GROUP BY doc_id),
inter AS (
  SELECT c.a, c.b, count(*)::BIGINT AS i
  FROM cand c
  JOIN dsh x ON x.doc_id = c.a
  JOIN dsh y ON y.doc_id = c.b AND y.s = x.s
  GROUP BY c.a, c.b
),
keep AS MATERIALIZED (
  SELECT c.a, c.b
  FROM cand c
  LEFT JOIN sz za ON za.doc_id = c.a
  LEFT JOIN sz zb ON zb.doc_id = c.b
  LEFT JOIN inter i ON i.a = c.a AND i.b = c.b
  WHERE {jac} >= {threshold}
),
e AS MATERIALIZED (SELECT a AS src, b AS dst FROM keep UNION ALL SELECT b AS src, a AS dst FROM keep),
l0 AS MATERIALIZED (SELECT src AS node, least(src, min(dst)) AS comp FROM e GROUP BY src),
{",".join(steps)}"""


def _top_events_per_user_sql(k: int = TOPK_PER_GROUP_K) -> str:
    return f"""
SELECT user_id, event_id, epoch_us(ts) AS ts_us, value
FROM (SELECT *, row_number() OVER (PARTITION BY user_id
                                   ORDER BY value DESC, event_id) AS rn
      FROM events)
WHERE rn <= {k}
"""


_USER_VALUE_QUANTILES_SQL = """
SELECT user_id, quantile_disc(value, 0.5) AS q5,
       quantile_disc(value, 0.95) AS q95
FROM events GROUP BY user_id
"""


def _distinct_hll_sql(b: int = HLL_PRECISION_BITS) -> str:
    w = 64 - b
    suffix = f"(h & ((1::UBIGINT << {w}) - 1))"
    return f"""
WITH {_TOK_CTE},
tv AS (SELECT unnest(toks) AS token FROM tok),
hh AS (SELECT md5_number_lower(token) AS h FROM tv),
r AS (
  SELECT (h >> {w})::BIGINT AS bucket,
         CASE WHEN {suffix} = 0 THEN {w + 1}
              ELSE {w} - length(bin({suffix}::UBIGINT)) + 1 END AS rho
  FROM hh
)
SELECT bucket, max(rho)::BIGINT AS rho FROM r GROUP BY bucket
"""


def _source_distinct_hll_sql(b: int = HLL_PRECISION_BITS) -> str:
    w = 64 - b
    suffix = f"(h & ((1::UBIGINT << {w}) - 1))"
    return f"""
WITH {_TOK_CTE},
tv AS (SELECT d.source, unnest(t.toks) AS token
       FROM tok t JOIN documents d USING (doc_id)),
hh AS (SELECT source, md5_number_lower(token) AS h FROM tv),
r AS (
  SELECT source, (h >> {w})::BIGINT AS bucket,
         CASE WHEN {suffix} = 0 THEN {w + 1}
              ELSE {w} - length(bin({suffix}::UBIGINT)) + 1 END AS rho
  FROM hh
)
SELECT source, bucket, max(rho)::BIGINT AS rho FROM r GROUP BY 1, 2
"""


def _clean_corpus_sql(iters: int = 8) -> str:
    """Composes the shared tokenization + MinHash CTEs, the language-ID
    marker expressions, the cluster chain and an md5 exact-dedup
    anti-join into the full cleaning contract."""
    from ..pipelines.clean import CLEAN_MIN_TOKENS
    from ..stages.textstats import LANG_MARKERS

    en = _marker_count(LANG_MARKERS["en"])
    de = _marker_count(LANG_MARKERS["de"])
    fr = _marker_count(LANG_MARKERS["fr"])
    es = _marker_count(LANG_MARKERS["es"])
    return f"""
WITH {_minhash_sig_ctes()},
{_cluster_cte_chain(iters=iters)},
lc AS (SELECT doc_id, {en} AS en, {de} AS de, {fr} AS fr, {es} AS es FROM tok),
lang AS (
  SELECT doc_id,
    CASE WHEN greatest(en,de,fr,es) = 0 THEN 'unknown'
         WHEN en = greatest(en,de,fr,es) THEN 'en'
         WHEN de = greatest(en,de,fr,es) THEN 'de'
         WHEN fr = greatest(en,de,fr,es) THEN 'fr'
         ELSE 'es' END AS pred_lang
  FROM lc
),
q AS (SELECT doc_id, len(toks)::BIGINT AS n_tokens FROM tok
      WHERE len(toks) >= {CLEAN_MIN_TOKENS}),
hx AS (SELECT doc_id, md5(text) AS h FROM documents),
kx AS (SELECT h, min(doc_id) AS keep_id FROM hx GROUP BY h),
exl AS (SELECT hx.doc_id FROM hx JOIN kx ON hx.h = kx.h
        WHERE hx.doc_id <> kx.keep_id),
nl AS (SELECT node AS doc_id FROM l{iters} WHERE node <> comp)
SELECT q.doc_id, q.n_tokens, lang.pred_lang
FROM q JOIN lang ON lang.doc_id = q.doc_id
WHERE q.doc_id NOT IN (SELECT doc_id FROM exl)
  AND q.doc_id NOT IN (SELECT doc_id FROM nl)
"""


def _window_tumbling_sql(width_s: int = WINDOW_WIDTH_S) -> str:
    w = width_s * 1_000_000
    return f"""
SELECT (epoch_us(ts) // {w}) * {w} AS window_start_us,
       event_type,
       count(*)::BIGINT AS n_events,
       {_R4.format(expr="sum(value)")} AS sum_value
FROM events GROUP BY 1, 2
"""


def _window_sliding_sql(width_s: int = WINDOW_WIDTH_S,
                        hop_s: int = WINDOW_HOP_S) -> str:
    h = hop_s * 1_000_000
    m = width_s // hop_s
    return f"""
WITH ev AS (SELECT epoch_us(ts) AS tu, event_type, value FROM events),
js AS (SELECT unnest(range({m}))::BIGINT AS j)
SELECT (ev.tu // {h} - js.j) * {h} AS window_start_us,
       ev.event_type,
       count(*)::BIGINT AS n_events,
       {_R4.format(expr="sum(ev.value)")} AS sum_value
FROM ev CROSS JOIN js GROUP BY 1, 2
"""


def _sessionize_sql(gap_s: int = SESSION_GAP_S) -> str:
    g = gap_s * 1_000_000
    return f"""
WITH ev AS (SELECT user_id, epoch_us(ts) AS tu, value FROM events),
lg AS (SELECT *, lag(tu) OVER (PARTITION BY user_id ORDER BY tu) AS ptu FROM ev),
br AS (SELECT *, CASE WHEN ptu IS NULL OR tu - ptu > {g} THEN 1 ELSE 0 END AS brk FROM lg),
s AS (SELECT *, sum(brk) OVER (PARTITION BY user_id ORDER BY tu
                               ROWS UNBOUNDED PRECEDING) AS sid FROM br)
SELECT user_id, min(tu) AS session_start_us, max(tu) AS session_end_us,
       count(*)::BIGINT AS n_events,
       {_R4.format(expr="sum(value)")} AS sum_value
FROM s GROUP BY user_id, sid
"""


_ASOF_ATTRIBUTION_SQL = """
SELECT c.event_id, c.user_id, epoch_us(c.ts) AS ts_us,
       coalesce(epoch_us(v.ts), -1) AS view_ts_us
FROM (SELECT * FROM events WHERE event_type = 'click') c
ASOF LEFT JOIN (SELECT * FROM events WHERE event_type = 'view') v
  ON c.user_id = v.user_id AND c.ts >= v.ts
"""


def _simhash_sql() -> str:
    # HUGEINT throughout: per-bit popcount sums fit comfortably, and the
    # assembled 64-bit fingerprint (< 2^64) reinterprets to int64
    return f"""
WITH {_TOK_CTE},
{_TOKHASH_CTE.strip()},
bits AS (
  SELECT doc_id, t.b,
         CASE WHEN (h >> t.b::INTEGER) & 1 = 1 THEN 1 ELSE -1 END AS sgn
  FROM th CROSS JOIN range(64) t(b)
),
acc AS (SELECT doc_id, b, sum(sgn) AS ssum FROM bits GROUP BY doc_id, b),
fp AS (
  SELECT doc_id,
         sum(CASE WHEN ssum > 0 THEN (1::HUGEINT << b::INTEGER) ELSE 0::HUGEINT END) AS f
  FROM acc GROUP BY doc_id
)
SELECT d.doc_id,
       CASE WHEN coalesce(fp.f, 0::HUGEINT) >= 9223372036854775808::HUGEINT
            THEN (coalesce(fp.f, 0::HUGEINT) - 18446744073709551616::HUGEINT)::BIGINT
            ELSE coalesce(fp.f, 0::HUGEINT)::BIGINT END AS simhash
FROM documents d LEFT JOIN fp ON fp.doc_id = d.doc_id
"""


def _fingerprints_sql(k: int = 5, window: int = 4) -> str:
    return f"""
WITH {_TOK_CTE},
{_TOKHASH_CTE.strip()},
{_shingle_cte(k).strip()},
w AS (
  SELECT doc_id, pos,
         min(s) OVER (PARTITION BY doc_id ORDER BY pos
                      ROWS BETWEEN CURRENT ROW AND {window - 1} FOLLOWING) AS wmin,
         count(*) OVER (PARTITION BY doc_id) AS nsh
  FROM shingles
),
f AS (
  SELECT doc_id, count(DISTINCT wmin)::BIGINT AS nf,
         bit_xor(DISTINCT {_u64_to_i64("wmin")}) AS fx
  FROM w WHERE pos <= greatest(nsh - {window - 1}, 1) GROUP BY doc_id
)
SELECT d.doc_id, coalesce(f.nf, 0)::BIGINT AS n_fingerprints,
       coalesce(f.fx, 0)::BIGINT AS fp_xor
FROM documents d LEFT JOIN f ON f.doc_id = d.doc_id
"""


def _embedding_dup_pairs_sql(
    threshold: float, num_hyperplanes: int, dim: int = 64, seed: int = 77,
    max_bucket: int = 200,
) -> str:
    """The engine's random projection matrix inlined as literals; bucket
    code = sign bits in hyperplane order (MSB first), pairs within a
    bucket (<= max_bucket smallest ids) with cosine >= threshold."""
    proj = np.random.default_rng(seed).standard_normal((num_hyperplanes, dim))
    bits = " + ".join(
        f"CASE WHEN list_dot_product(e, [{', '.join(repr(float(x)) for x in proj[h])}]) > 0 "
        f"THEN {1 << (num_hyperplanes - 1 - h)} ELSE 0 END"
        for h in range(num_hyperplanes)
    )
    return f"""
WITH v AS (SELECT vec_id, embedding::DOUBLE[] AS e FROM embeddings),
b AS (SELECT vec_id, e, ({bits}) AS bucket FROM v),
mem AS (
  SELECT vec_id, e, bucket,
         row_number() OVER (PARTITION BY bucket ORDER BY vec_id) AS rn
  FROM b
),
s AS (
  SELECT x.vec_id AS a, y.vec_id AS b, list_cosine_similarity(x.e, y.e) AS sim
  FROM mem x JOIN mem y ON x.bucket = y.bucket AND x.vec_id < y.vec_id
  WHERE x.rn <= {max_bucket} AND y.rn <= {max_bucket}
)
SELECT a, b, {_R4.format(expr="sim")} AS score FROM s WHERE sim >= {threshold}
"""


def _varint_nbytes_sql(col: str) -> str:
    cases = " ".join(
        f"WHEN {col} < {1 << (7 * k)} THEN {k}" for k in range(1, 10)
    )
    return f"CASE {cases} ELSE 10 END"


def _compression_ratio_sql() -> str:
    """Replicates the shard docs-column byte count exactly: per term,
    posting doc_ids ascending, delta-encoded (first absolute), big-
    endian base-128 varint byte lengths (functions/codecs.py)."""
    return f"""
WITH {_BASE_CTE},
p AS (
  SELECT doc_id, term
  FROM (SELECT doc_id, unnest(terms) AS term FROM base) GROUP BY doc_id, term
),
d AS (
  SELECT term,
         doc_id - coalesce(lag(doc_id) OVER (PARTITION BY term ORDER BY doc_id), 0) AS dv
  FROM p
),
vb AS (SELECT {_varint_nbytes_sql("dv")} AS nb FROM d)
SELECT sum(nb)::BIGINT AS compressed_bytes,
       (4 * count(*))::BIGINT AS naive_bytes,
       count(*)::BIGINT AS n_postings,
       sum(nb) < 4 * count(*) AS beats_naive
FROM vb
"""


def _pagerank_sql(iterations: int = 100, damping: float = 0.85) -> str:
    """Fully-unrolled 100-iteration PageRank over the same synthetic
    doc-id link graph as q_pagerank — an INDEPENDENT arithmetic path
    (DuckDB joins/aggregation vs numpy scatter-add)."""
    base = 1.0 - damping
    its = []
    prev = "s0"
    for i in range(1, iterations + 1):
        cur = f"s{i}"
        its.append(
            f"""{cur} AS MATERIALIZED (
  SELECT n.node, {base} + {damping} * coalesce(c.s, 0) AS score
  FROM nodes n LEFT JOIN (
    SELECT e.dst AS node, sum({prev}.score / deg.outdeg) AS s
    FROM edges e JOIN {prev} ON {prev}.node = e.src
                 JOIN deg ON deg.node = e.src
    GROUP BY e.dst
  ) c ON c.node = n.node
)"""
        )
        prev = cur
    return f"""
WITH m AS (SELECT count(*)::BIGINT AS n FROM documents),
nodes AS MATERIALIZED (SELECT unnest(range((SELECT n FROM m)))::BIGINT AS node),
e0 AS (
  SELECT node AS src, (7 * node + 3) % (SELECT n FROM m) AS dst FROM nodes
  UNION ALL
  SELECT node, (13 * node + 5) % (SELECT n FROM m) FROM nodes
),
edges AS MATERIALIZED (SELECT src, dst FROM e0 WHERE src <> dst),
deg AS MATERIALIZED (SELECT src AS node, count(*)::DOUBLE AS outdeg FROM edges GROUP BY src),
s0 AS (SELECT node, 1.0::DOUBLE AS score FROM nodes),
{",".join(its)}
SELECT node, {_R4.format(expr="score")} AS score FROM {prev} ORDER BY node
"""


def _marker_count(lang_markers: list[str]) -> str:
    inlist = ",".join(f"'{m}'" for m in lang_markers)
    return f"len(list_filter(toks, x -> x IN ({inlist})))::BIGINT"


def _langid_sql() -> str:
    from ..stages.textstats import LANG_MARKERS

    en = _marker_count(LANG_MARKERS["en"])
    de = _marker_count(LANG_MARKERS["de"])
    fr = _marker_count(LANG_MARKERS["fr"])
    es = _marker_count(LANG_MARKERS["es"])
    return f"""
WITH {_BASE_CTE},
c AS (SELECT doc_id, {en} AS en, {de} AS de, {fr} AS fr, {es} AS es FROM tok)
SELECT doc_id,
  CASE WHEN greatest(en,de,fr,es) = 0 THEN 'unknown'
       WHEN en = greatest(en,de,fr,es) THEN 'en'
       WHEN de = greatest(en,de,fr,es) THEN 'de'
       WHEN fr = greatest(en,de,fr,es) THEN 'fr'
       ELSE 'es' END AS pred_lang,
  greatest(en,de,fr,es)::BIGINT AS marker_hits
FROM c
"""


def _bm25_sql(terms: list[str], limit: int | None) -> str:
    qlist = ",".join(f"'{t}'" for t in terms)
    lim = f"LIMIT {limit}" if limit is not None else ""
    return f"""
WITH {_BASE_CTE},
meta AS (SELECT count(*)::DOUBLE AS n,
                sum(len(terms))::DOUBLE / count(*)::DOUBLE AS avgdl FROM base),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf
       FROM (SELECT doc_id, unnest(terms) AS term FROM base) GROUP BY doc_id, term),
dfq AS (SELECT term, count(*)::DOUBLE AS df FROM tf
        WHERE term IN ({qlist}) GROUP BY term),
dl AS (SELECT doc_id, len(terms)::DOUBLE AS dl FROM base),
scores AS (
  SELECT tf.doc_id,
         sum( ln(1 + (meta.n - dfq.df + 0.5) / (dfq.df + 0.5))
              * tf.tf * (1.2 + 1.0)
              / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / meta.avgdl)) ) AS score
  FROM tf
  JOIN dfq ON dfq.term = tf.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN meta
  GROUP BY tf.doc_id)
SELECT doc_id, {_R4.format(expr="score")} AS score
FROM scores ORDER BY {_R4.format(expr="score")} DESC, doc_id {lim}
"""


def _tfidf_sql(terms: list[str], limit: int | None) -> str:
    qlist = ",".join(f"'{t}'" for t in terms)
    lim = f"LIMIT {limit}" if limit is not None else ""
    return f"""
WITH {_BASE_CTE},
meta AS (SELECT count(*)::DOUBLE AS n FROM base),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf
       FROM (SELECT doc_id, unnest(terms) AS term FROM base) GROUP BY doc_id, term),
dfq AS (SELECT term, count(*)::DOUBLE AS df FROM tf
        WHERE term IN ({qlist}) GROUP BY term),
parts AS (
  SELECT tf.doc_id,
         (tf.tf * meta.n / dfq.df) * (meta.n / dfq.df) AS dot_part,
         (tf.tf * meta.n / dfq.df) * (tf.tf * meta.n / dfq.df) AS len_part
  FROM tf JOIN dfq ON dfq.term = tf.term CROSS JOIN meta),
scores AS (
  SELECT doc_id, sum(dot_part) / sqrt(sum(len_part)) AS score
  FROM parts GROUP BY doc_id)
SELECT doc_id, {_R4.format(expr="score")} AS score
FROM scores ORDER BY {_R4.format(expr="score")} DESC, doc_id {lim}
"""


def _heavy_hitters_sql() -> str:
    from ..stages.frequent import HH_K

    return f"""
WITH {_TOK_CTE},
tokpos AS (SELECT doc_id, unnest(toks) AS tok FROM tok)
SELECT tok AS term, count(*)::BIGINT AS cnt FROM tokpos GROUP BY tok
HAVING count(*) * {HH_K} > (SELECT count(*) FROM tokpos)
"""


def _bigram_pmi_sql() -> str:
    from ..stages.frequent import BIGRAM_K

    return f"""
WITH {_TOK_CTE},
tokpos AS (SELECT doc_id, unnest(toks) AS tok,
                  generate_subscripts(toks, 1) AS pos FROM tok),
big AS (SELECT w1, w2 FROM (
  SELECT tok AS w1, lead(tok) OVER (PARTITION BY doc_id ORDER BY pos) AS w2
  FROM tokpos) WHERE w2 IS NOT NULL),
pc AS (SELECT w1, w2, count(*)::BIGINT AS c12 FROM big GROUP BY 1, 2),
uc AS (SELECT tok AS w, count(*) AS c FROM tokpos GROUP BY 1),
n1 AS (SELECT count(*) AS n1 FROM tokpos),
n2 AS (SELECT count(*) AS n2 FROM big)
SELECT w1, w2, c12,
  {_R4.format(expr="ln(c12::DOUBLE * n1 * n1 / (n2::DOUBLE * u1.c * u2.c))")} AS pmi
FROM pc, n1, n2
JOIN uc u1 ON u1.w = pc.w1
JOIN uc u2 ON u2.w = pc.w2
WHERE c12 * {BIGRAM_K} > n2
"""


# bucket = md5-low-64(text) mod 10000, split 80/10/10 (sampling.hash_split)
_HASH_SPLIT_SQL = """
SELECT doc_id,
  (md5_number_lower(text) % 10000)::BIGINT AS bucket,
  CASE WHEN (md5_number_lower(text) % 10000) < 8000 THEN 'train'
       WHEN (md5_number_lower(text) % 10000) < 9000 THEN 'valid'
       ELSE 'test' END AS split
FROM documents
"""

# keep the CAP_PER_SOURCE smallest md5-low-64(text) per source, ties by
# doc_id (sampling.cap_per_group — uint64 and UBIGINT sort identically)
_CAP_PER_SOURCE_SQL = f"""
SELECT doc_id, source FROM (
  SELECT doc_id, source,
         row_number() OVER (PARTITION BY source
                            ORDER BY md5_number_lower(text), doc_id) AS rn
  FROM documents)
WHERE rn <= {CAP_PER_SOURCE}
"""


# lineitem ⨝ orders ⨝ customer ⨝ nation; aggregates chosen float-exact
# (count / integer-valued sum / max of an IEEE-exact product)
_REVENUE_PER_NATION_SQL = f"""
SELECT n_name,
       count(*)::BIGINT AS n_items,
       sum(l_quantity)::BIGINT AS sum_qty,
       {_R4.format(expr="max(l_extendedprice * (1 - l_discount))")} AS max_item_rev
FROM lineitem
JOIN orders   ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN nation   ON c_nationkey = n_nationkey
GROUP BY n_name
"""

_CUSTOMER_ORDER_COUNTS_SQL = """
SELECT c_custkey, count(o_orderkey)::BIGINT AS n_orders
FROM customer LEFT JOIN orders ON c_custkey = o_custkey
GROUP BY c_custkey
"""


ORACLE_SQL = {
    "token_stats": f"""
WITH {_BASE_CTE}
SELECT doc_id,
  len(toks)::BIGINT AS n_tokens,
  len(terms)::BIGINT AS n_terms,
  {_R4.format(expr="(len(toks) - len(terms))::DOUBLE / greatest(len(toks), 1)")} AS stop_ratio,
  {_R4.format(expr="coalesce(list_sum(list_transform(toks, x -> length(x))), 0)::DOUBLE / greatest(len(toks), 1)")} AS mean_token_len,
  {_R4.format(expr="len(list_distinct(terms))::DOUBLE / greatest(len(terms), 1)")} AS uniq_ratio
FROM base
""",
    "langid": _langid_sql(),
    "bpe_token_count": """
SELECT doc_id,
  len(regexp_extract_all(lower(text), '[a-z]+'))::BIGINT AS n_word_pieces,
  len(regexp_extract_all(lower(text), '[0-9]+'))::BIGINT AS n_number_pieces,
  len(regexp_extract_all(lower(text), '[^a-z0-9\\s]+'))::BIGINT AS n_punct_pieces,
  (len(regexp_extract_all(lower(text), '[a-z]+'))
   + len(regexp_extract_all(lower(text), '[0-9]+'))
   + len(regexp_extract_all(lower(text), '[^a-z0-9\\s]+')))::BIGINT AS n_pieces
FROM documents
""",
    "term_stats": f"""
WITH {_BASE_CTE}
SELECT term, count(DISTINCT doc_id)::BIGINT AS df, count(*)::BIGINT AS total_tf
FROM (SELECT doc_id, unnest(terms) AS term FROM base)
GROUP BY term
""",
    "search_keyword": f"""
WITH {_BASE_CTE}
SELECT doc_id FROM base WHERE list_contains(terms, '{KW}') ORDER BY doc_id
""",
    "search_and": f"""
WITH {_BASE_CTE}
SELECT doc_id FROM base
WHERE list_contains(terms, '{AND_TERMS[0]}') AND list_contains(terms, '{AND_TERMS[1]}')
ORDER BY doc_id
""",
    "search_or": f"""
WITH {_BASE_CTE}
SELECT doc_id FROM base
WHERE list_contains(terms, '{OR_TERMS[0]}') OR list_contains(terms, '{OR_TERMS[1]}')
ORDER BY doc_id
""",
    "search_phrase": f"""
WITH {_BASE_CTE}
SELECT doc_id FROM base
WHERE len(terms) >= 2
  AND len(list_filter(range(1, len(terms)),
          i -> terms[i] = '{PHRASE[0]}' AND terms[i+1] = '{PHRASE[1]}')) > 0
ORDER BY doc_id
""",
    "search_phrase3": f"""
WITH {_BASE_CTE}
SELECT doc_id FROM base
WHERE len(terms) >= 3
  AND len(list_filter(range(1, len(terms) - 1),
          i -> terms[i] = '{PHRASE3[0]}' AND terms[i+1] = '{PHRASE3[1]}'
               AND terms[i+2] = '{PHRASE3[2]}')) > 0
ORDER BY doc_id
""",
    "search_prefix": f"""
WITH {_BASE_CTE}
SELECT doc_id FROM base
WHERE len(list_filter(terms, x -> starts_with(x, '{PREFIX}'))) > 0
ORDER BY doc_id
""",
    "search_not": f"""
WITH {_BASE_CTE}
SELECT doc_id FROM base
WHERE len(list_filter(terms, x -> x = '{NOT_INCLUDE[0]}')) > 0
  AND len(list_filter(terms, x -> x = '{NOT_EXCLUDE[0]}')) = 0
ORDER BY doc_id
""",
    "search_near": f"""
WITH {_BASE_CTE}
SELECT doc_id FROM base
WHERE len(list_filter(generate_series(1, len(terms)),
      i -> terms[i] = '{NEAR_PAIR[0]}'
           AND list_contains(terms[i+1 : i+{NEAR_SLOP + 1}], '{NEAR_PAIR[1]}'))) > 0
ORDER BY doc_id
""",
    "search_fuzzy": f"""
WITH {_BASE_CTE}
SELECT doc_id FROM base
WHERE len(list_filter(terms, x -> levenshtein(x, '{FUZZY_Q}') <= {FUZZY_EDITS})) > 0
ORDER BY doc_id
""",
    "search_wildcard": f"""
WITH {_BASE_CTE}
SELECT doc_id FROM base
WHERE len(list_filter(terms, x -> x LIKE '{WILDCARD_PAT.replace("*", "%").replace("?", "_")}')) > 0
ORDER BY doc_id
""",
    "tfidf_all": _tfidf_sql(TFIDF_TERMS, None),
    "term_positions": f"""
WITH {_BASE_CTE}
SELECT doc_id, unnest(list_filter(range(1, len(terms) + 1),
                                  i -> terms[i] = '{KW}')) - 1 AS pos
FROM base
""",
    "code_term_stats": f"""
WITH ctok AS (
  SELECT doc_id,
         list_filter(
           regexp_split_to_array(
             lower(regexp_replace(regexp_replace(text,
                     '([a-z0-9])([A-Z])', '\\1 \\2', 'g'),
                   '([A-Z]+)([A-Z][a-z])', '\\1 \\2', 'g')),
             '[^a-z0-9]+'),
           x -> length(x) > 1 AND x NOT IN {_STOP_IN}) AS terms
  FROM documents
)
SELECT term, count(DISTINCT doc_id)::BIGINT AS df, count(*)::BIGINT AS total_tf
FROM (SELECT doc_id, unnest(terms) AS term FROM ctok)
GROUP BY term
""",
    "bm25_topk": _bm25_sql(BM25_TERMS, TOPK),
    "bm25_all": _bm25_sql(BM25_TERMS, None),
    "tfidf_topk": _tfidf_sql(TFIDF_TERMS, TOPK),
    "bm25_topk_distributed": _bm25_sql(BM25_TERMS, TOPK),
    "bm25_all_distributed": _bm25_sql(BM25_TERMS, None),
    "tfidf_topk_distributed": _tfidf_sql(TFIDF_TERMS, TOPK),
    # the bm25_topk ranking joined to each winner's document text —
    # DuckDB allows a WITH inside a parenthesized subquery
    "bm25_topk_hydrated": f"""
SELECT b.doc_id, b.score, d.text
FROM ({_bm25_sql(BM25_TERMS, TOPK)}) b JOIN documents d USING (doc_id)
""",
    "dedup_exact": """
SELECT md5(text) AS content_hash, min(doc_id)::BIGINT AS keep_id,
       count(*)::BIGINT AS n_dups
FROM documents GROUP BY md5(text)
""",
    "sha256_docs": "SELECT doc_id, sha256(text) AS sha256 FROM documents",
    "token_count_total": f"""
WITH {_BASE_CTE}
SELECT (SELECT sum(len(toks)) FROM base)::BIGINT AS total_tokens,
       (SELECT sum(len(terms)) FROM base)::BIGINT AS total_terms,
       (SELECT count(DISTINCT term)
        FROM (SELECT unnest(terms) AS term FROM base))::BIGINT AS distinct_terms
""",
    "ann_cosine_topk": f"""
WITH q AS (SELECT vec_id AS query_id, embedding::DOUBLE[] AS qe
           FROM embeddings WHERE vec_id < {ANN_QUERY_IDS}),
s AS (SELECT q.query_id, e.vec_id,
             list_cosine_similarity(q.qe, e.embedding::DOUBLE[]) AS sim
      FROM q CROSS JOIN embeddings e),
r AS (SELECT query_id, vec_id, sim,
             row_number() OVER (PARTITION BY query_id
                                ORDER BY sim DESC, vec_id) AS rn
      FROM s)
SELECT query_id, vec_id, {_R4.format(expr="sim")} AS score
FROM r WHERE rn <= {ANN_K}
""",
    "ann_hydrated": f"""
WITH q AS (SELECT vec_id AS query_id, embedding::DOUBLE[] AS qe
           FROM embeddings WHERE vec_id < {ANN_QUERY_IDS}),
s AS (SELECT q.query_id, e.vec_id,
             list_cosine_similarity(q.qe, e.embedding::DOUBLE[]) AS sim
      FROM q CROSS JOIN embeddings e),
r AS (SELECT query_id, vec_id, sim,
             row_number() OVER (PARTITION BY query_id
                                ORDER BY sim DESC, vec_id) AS rn
      FROM s)
SELECT r.query_id, d.doc_id, {_R4.format(expr="r.sim")} AS score, d.text
FROM r JOIN documents d ON d.doc_id = r.vec_id
WHERE r.rn <= {ANN_K}
""",
    "embedding_cov": f"""
WITH e AS (SELECT embedding::DOUBLE[] AS v FROM embeddings),
p AS (
  SELECT a.i, b.j, a.x, b.y
  FROM e,
       LATERAL (SELECT generate_subscripts(e.v, 1) AS i,
                       unnest(e.v) AS x) a,
       LATERAL (SELECT generate_subscripts(e.v, 1) AS j,
                       unnest(e.v) AS y) b
  WHERE a.i <= b.j)
SELECT i::BIGINT AS i, j::BIGINT AS j,
       {_R4.format(expr="covar_pop(x, y)")} AS cov
FROM p GROUP BY i, j
""",
    "minhash_signatures": _minhash_signatures_sql(),
    "minhash_near_pairs": _minhash_near_pairs_sql(),
    "dedup_near_jaccard": _dedup_near_jaccard_sql(),
    "dedup_clusters": _dedup_clusters_sql(),
    "window_tumbling": _window_tumbling_sql(),
    "window_distinct_users": f"""
SELECT (epoch_us(ts) // {WINDOW_WIDTH_S * 1_000_000})
         * {WINDOW_WIDTH_S * 1_000_000} AS window_start_us,
       count(DISTINCT user_id)::BIGINT AS n_users
FROM events GROUP BY 1
""",
    "window_sliding": _window_sliding_sql(),
    "sessionize": _sessionize_sql(),
    "asof_attribution": _ASOF_ATTRIBUTION_SQL,
    "clean_corpus": _clean_corpus_sql(),
    "top_events_per_user": _top_events_per_user_sql(),
    "user_value_quantiles": _USER_VALUE_QUANTILES_SQL,
    "distinct_hll": _distinct_hll_sql(),
    "source_distinct_hll": _source_distinct_hll_sql(),
    "cms_token_counts": _cms_sql(),
    "heavy_hitters": _heavy_hitters_sql(),
    "bigram_pmi": _bigram_pmi_sql(),
    "hash_split": _HASH_SPLIT_SQL,
    "cap_per_source": _CAP_PER_SOURCE_SQL,
    "revenue_per_nation": _REVENUE_PER_NATION_SQL,
    "customer_order_counts": _CUSTOMER_ORDER_COUNTS_SQL,
    "user_event_diversity": """
SELECT user_id, count(DISTINCT event_type)::BIGINT AS n_types
FROM events GROUP BY user_id
""",
    "value_quantiles_global": "\nUNION ALL\n".join(
        f"SELECT {q}::DOUBLE AS q, quantile_disc(value, {q}) AS value FROM events"
        for q in GLOBAL_QS),
    "value_quantiles_hist": _value_quantiles_hist_sql(),
    "user_quantiles_hist": _user_quantiles_hist_sql(),
    "customers_without_orders": """
SELECT c_custkey FROM customer
WHERE NOT EXISTS (SELECT 1 FROM orders
                  WHERE o_custkey = c_custkey AND o_orderstatus = 'P')
""",
    "parts_in_lineitem": """
SELECT p_partkey FROM part
WHERE EXISTS (SELECT 1 FROM lineitem WHERE l_partkey = p_partkey)
""",
    "custkeys_intersect": """
SELECT c_custkey AS custkey FROM customer WHERE c_mktsegment = 'BUILDING'
INTERSECT
SELECT o_custkey AS custkey FROM orders
""",
    "partkeys_except": """
SELECT p_partkey AS partkey FROM part
EXCEPT
SELECT l_partkey AS partkey FROM lineitem WHERE l_quantity > 45
""",
    "building_f_orders_full": """
WITH b AS (SELECT c_custkey, c_acctbal FROM customer
           WHERE c_mktsegment = 'BUILDING'),
     f AS (SELECT o_custkey AS c_custkey, count(*)::BIGINT AS n_f_orders
           FROM orders WHERE o_orderstatus = 'F' GROUP BY 1)
SELECT c_custkey,
       COALESCE(b.c_acctbal, -1.0)::DOUBLE AS acctbal,
       COALESCE(f.n_f_orders, -1)::BIGINT AS n_f_orders
FROM b FULL JOIN f USING (c_custkey)
""",
    "doc_keywords": f"""
WITH {_TOK_CTE.strip()},
tokpos AS (SELECT doc_id, unnest(toks) AS term FROM tok),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf FROM tokpos GROUP BY 1, 2),
dfx AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
n AS (SELECT count(*)::DOUBLE AS nd FROM documents),
scored AS (
  SELECT tf.doc_id, tf.term, tf.tf::DOUBLE * (n.nd / dfx.df::DOUBLE) AS score
  FROM tf JOIN dfx USING (term) CROSS JOIN n
),
ranked AS (
  SELECT doc_id, term, score,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY score DESC,
                                     md5_number_lower(term) ASC) AS rn
  FROM scored
)
SELECT doc_id, term, {_R4.format(expr='score')} AS score
FROM ranked WHERE rn <= {DOC_KEYWORDS_K}
""",
    "chunk_docs": f"""
WITH {_TOK_CTE},
s AS (
  SELECT doc_id, toks,
         unnest(generate_series(0, len(toks)-1, {CHUNK_STRIDE})) AS start
  FROM tok WHERE len(toks) > 0
)
SELECT doc_id, (start // {CHUNK_STRIDE})::BIGINT AS chunk_id,
       array_to_string(toks[start+1:start+{CHUNK_WINDOW}], ' ') AS chunk_text,
       least({CHUNK_WINDOW}, len(toks) - start)::BIGINT AS n_tokens
FROM s
""",
    "decontam_drop": f"""
WITH {_TOK_CTE},
g AS (
  SELECT doc_id,
         toks[p] || ' ' || toks[p+1] || ' ' || toks[p+2] AS gram
  FROM (SELECT doc_id, toks,
               unnest(generate_series(1, len(toks)-2)) AS p
        FROM tok WHERE len(toks) >= {DECONTAM_N})
),
bad AS (
  SELECT DISTINCT doc_id FROM g
  WHERE gram IN (SELECT gram FROM g
                 WHERE doc_id % {DECONTAM_BENCH_MOD} = 0)
)
SELECT d.doc_id, d.lang FROM documents d
WHERE d.doc_id NOT IN (SELECT doc_id FROM bad)
""",
    "decontam_frac": f"""
WITH {_TOK_CTE},
g AS (
  SELECT doc_id,
         toks[p] || ' ' || toks[p+1] || ' ' || toks[p+2] AS gram
  FROM (SELECT doc_id, toks,
               unnest(generate_series(1, len(toks)-2)) AS p
        FROM tok WHERE len(toks) >= {DECONTAM_N})
),
bench AS (SELECT DISTINCT gram FROM g
          WHERE doc_id % {DECONTAM_BENCH_MOD} = 0),
st AS (
  SELECT doc_id, count(*)::BIGINT AS n_grams,
         sum(CASE WHEN gram IN (SELECT gram FROM bench)
                  THEN 1 ELSE 0 END)::BIGINT AS n_contaminated
  FROM g GROUP BY doc_id)
SELECT d.doc_id,
       coalesce(st.n_grams, 0)::BIGINT AS n_grams,
       coalesce(st.n_contaminated, 0)::BIGINT AS n_contaminated,
       {_R4.format(expr="CASE WHEN coalesce(st.n_grams, 0) = 0 THEN 0.0 "
                        "ELSE coalesce(st.n_contaminated, 0) / st.n_grams END")}
         AS contam_frac
FROM documents d LEFT JOIN st USING (doc_id)
""",
    "dup_passages": f"""
WITH {_TOK_CTE},
g AS (
  SELECT doc_id,
         md5_number_lower(toks[p] || ' ' || toks[p+1] || ' ' ||
                          toks[p+2]) AS h
  FROM (SELECT doc_id, toks,
               unnest(generate_series(1, len(toks)-2)) AS p
        FROM tok WHERE len(toks) >= {DUP_PASSAGE_N})
),
dup AS (SELECT h FROM g GROUP BY h HAVING count(DISTINCT doc_id) > 1),
dd AS (SELECT doc_id, count(*)::BIGINT AS n_dup FROM g
       WHERE h IN (SELECT h FROM dup) GROUP BY doc_id),
tot AS (SELECT doc_id, count(*)::BIGINT AS n_grams FROM g GROUP BY doc_id)
SELECT d.doc_id,
       coalesce(tot.n_grams, 0)::BIGINT AS n_grams,
       coalesce(dd.n_dup, 0)::BIGINT AS n_dup,
       {_R4.format(expr="CASE WHEN coalesce(tot.n_grams, 0) = 0 THEN 0.0 "
                        "ELSE coalesce(dd.n_dup, 0) / tot.n_grams END")}
         AS dup_frac
FROM documents d
LEFT JOIN tot USING (doc_id) LEFT JOIN dd USING (doc_id)
""",
    "doc_repetition": f"""
WITH {_TOK_CTE},
g AS (
  SELECT doc_id, toks[p] || ' ' || toks[p+1] AS gram
  FROM (SELECT doc_id, toks,
               unnest(generate_series(1, len(toks)-1)) AS p
        FROM tok WHERE len(toks) >= {REPETITION_N})
),
cnt AS (SELECT doc_id, gram, count(*) AS c FROM g GROUP BY 1, 2)
SELECT doc_id, sum(c)::BIGINT AS n_ngrams,
       {_R4.format(expr="sum(CASE WHEN c>1 THEN c ELSE 0 END) / sum(c)")}
         AS dup_ngram_frac,
       {_R4.format(expr="max(c)::DOUBLE / sum(c)")} AS top_ngram_frac
FROM cnt GROUP BY doc_id
""",
    "running_user_value": """
SELECT event_id, user_id, floor(value*100)::BIGINT AS cents,
       (sum(floor(value*100)::BIGINT)
          OVER (PARTITION BY user_id ORDER BY ts, event_id
                ROWS UNBOUNDED PRECEDING))::BIGINT AS running_cents
FROM events
""",
    "rolling_sum_w3": """
SELECT event_id, user_id, floor(value*100)::BIGINT AS cents,
       (sum(floor(value*100)::BIGINT)
          OVER (PARTITION BY user_id ORDER BY ts, event_id
                ROWS BETWEEN 2 PRECEDING AND CURRENT ROW))::BIGINT
         AS rolling_cents
FROM events
""",
    "rolling_min_w4": """
SELECT event_id, user_id, floor(value*100)::BIGINT AS cents,
       (min(floor(value*100)::BIGINT)
          OVER (PARTITION BY user_id ORDER BY ts, event_id
                ROWS BETWEEN 3 PRECEDING AND CURRENT ROW))::BIGINT
         AS rolling_min_cents
FROM events
""",
    "event_lag_value": f"""
SELECT event_id, user_id, floor(value*100)::BIGINT AS cents,
       coalesce(lag(floor(value*100)::BIGINT)
          OVER (PARTITION BY user_id ORDER BY ts, event_id),
          {LAG_SENTINEL})::BIGINT AS prev_cents
FROM events
""",
    "event_lead2_value": f"""
SELECT event_id, user_id, floor(value*100)::BIGINT AS cents,
       coalesce(lead(floor(value*100)::BIGINT, 2)
          OVER (PARTITION BY user_id ORDER BY ts, event_id),
          {LAG_SENTINEL})::BIGINT AS next2_cents
FROM events
""",
    "unigram_quality": _unigram_quality_sql(),
    "sample_exact_n": f"""
SELECT doc_id, source FROM documents
ORDER BY md5_number_lower(text), doc_id
LIMIT {SAMPLE_N}
""",
    "weighted_sample": """
SELECT doc_id, n_chars FROM documents
WHERE md5_number_lower(text) % 10000
      < floor(least(n_chars / 1000.0, 1.0) * 10000)
""",
    "events_zscore_filter": """
WITH m AS (SELECT avg(value) AS mu, stddev_pop(value) AS sd FROM events)
SELECT event_id, floor(value * 10000 + 0.5) / 10000 AS value
FROM events, m
WHERE value BETWEEN mu - 1.5 * sd AND mu + 1.5 * sd
""",
    "event_ntile": f"""
SELECT event_id,
       ntile({NTILE_K}) OVER (ORDER BY ts, event_id)::BIGINT AS ntile
FROM events
""",
    "doc_rank_by_len": f"""
SELECT doc_id, n_chars,
       rank() OVER (ORDER BY n_chars DESC)::BIGINT AS rnk,
       dense_rank() OVER (ORDER BY n_chars DESC)::BIGINT AS dense_rnk,
       {_R4.format(expr="(percent_rank() OVER (ORDER BY n_chars DESC))")}
         AS pct_rnk
FROM documents
""",
    "user_event_quartile": """
SELECT event_id,
       ntile(4) OVER (PARTITION BY user_id
                      ORDER BY ts, event_id)::BIGINT AS quartile
FROM events
""",
    "event_value_ranks": f"""
WITH c AS (SELECT event_id, floor(value*100)::BIGINT AS cents FROM events)
SELECT event_id, cents,
       rank() OVER (ORDER BY cents)::BIGINT AS rnk,
       dense_rank() OVER (ORDER BY cents)::BIGINT AS dense_rnk,
       {_R4.format(expr="(percent_rank() OVER (ORDER BY cents))")}
         AS pct_rnk
FROM c
""",
    "user_value_stats": f"""
WITH c AS (SELECT user_id, floor(value*100)::BIGINT AS c FROM events),
m AS (SELECT user_id, count(*)::BIGINT AS n,
             sum(c)::DOUBLE AS s, sum(c*c)::DOUBLE AS ss
      FROM c GROUP BY user_id)
SELECT user_id, n,
       {_R4.format(expr="s / n")} AS avg_cents,
       {_R4.format(expr="(ss / n - (s / n) * (s / n))")} AS var_cents
FROM m
""",
    "event_row_number": """
SELECT event_id, user_id,
       row_number() OVER (PARTITION BY user_id
                          ORDER BY ts, event_id)::BIGINT AS rn
FROM events
""",
    "running_max_value": """
SELECT event_id, user_id, floor(value*100)::BIGINT AS cents,
       (max(floor(value*100)::BIGINT)
          OVER (PARTITION BY user_id ORDER BY ts, event_id
                ROWS UNBOUNDED PRECEDING))::BIGINT AS max_cents
FROM events
""",
    "token_shards": f"""
WITH {_TOK_CTE},
n AS (SELECT doc_id, len(toks)::BIGINT AS n_tokens FROM tok)
SELECT doc_id, n_tokens,
       ((sum(n_tokens) OVER (ORDER BY doc_id ROWS UNBOUNDED PRECEDING)
         - n_tokens) // {TOKEN_SHARD_BUDGET})::BIGINT AS shard_id
FROM n
""",
    "scrub_pii": """
SELECT c_custkey,
       regexp_replace(regexp_replace(c_name, '[0-9]{3,}', '<NUM>', 'g'),
                      'Customer#', 'cust:', 'g') AS name_scrubbed,
       (len(regexp_extract_all(c_name, '[0-9]{3,}'))
        + len(regexp_extract_all(
              regexp_replace(c_name, '[0-9]{3,}', '<NUM>', 'g'),
              'Customer#')))::BIGINT AS n_hits
FROM customer
""",
    "stratified_sample": f"""
SELECT doc_id, lang FROM documents
WHERE md5_number_lower(text) % 10000 <
      CASE lang WHEN 'en' THEN {STRAT_RATES['en']}
                WHEN 'es' THEN {STRAT_RATES['es']}
                ELSE {STRAT_DEFAULT} END
""",
    "label_centroids": f"""
WITH x AS (
  SELECT label, generate_subscripts(embedding, 1) AS dim,
         unnest(embedding) AS v
  FROM embeddings
)
SELECT label::BIGINT AS label, dim::BIGINT AS dim,
       {_R4.format(expr='(sum(v::DOUBLE) / count(*))')} AS mean,
       count(*)::BIGINT AS n
FROM x GROUP BY 1, 2
""",
    "kmeans_assign": f"""
WITH c AS (
  SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cid, embedding AS cemb
  FROM (SELECT * FROM embeddings ORDER BY vec_id LIMIT {KMEANS_K})
),
d AS (
  SELECT e.vec_id, c.cid,
         {_R4.format(expr="list_distance(e.embedding::DOUBLE[], c.cemb::DOUBLE[])")} AS dist
  FROM embeddings e CROSS JOIN c
),
r AS (
  SELECT vec_id, cid, dist,
         row_number() OVER (PARTITION BY vec_id ORDER BY dist, cid) AS rn
  FROM d
)
SELECT vec_id, cid::BIGINT AS cluster, dist FROM r WHERE rn = 1
""",
    "kmeans_step": f"""
WITH c AS (
  SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cid, embedding AS cemb
  FROM (SELECT * FROM embeddings ORDER BY vec_id LIMIT {KMEANS_K})
),
d AS (
  SELECT e.vec_id, c.cid,
         {_R4.format(expr="list_distance(e.embedding::DOUBLE[], c.cemb::DOUBLE[])")} AS dist
  FROM embeddings e CROSS JOIN c
),
r AS (
  SELECT vec_id, cid, dist,
         row_number() OVER (PARTITION BY vec_id ORDER BY dist, cid) AS rn
  FROM d
),
a AS (SELECT vec_id, cid FROM r WHERE rn = 1),
x AS (
  SELECT a.cid AS cluster, generate_subscripts(e.embedding, 1) AS dim,
         unnest(e.embedding) AS v
  FROM embeddings e JOIN a USING (vec_id)
)
SELECT cluster::BIGINT AS cluster, dim::BIGINT AS dim,
       {_R4.format(expr="(sum(v::DOUBLE) / count(*))")} AS mean,
       count(*)::BIGINT AS n
FROM x GROUP BY 1, 2
""",
    "click_view_range_join": f"""
SELECT c.event_id AS click_id, v.event_id AS view_id
FROM events c JOIN events v
  ON c.user_id = v.user_id
WHERE c.event_type = 'click' AND v.event_type = 'view'
  AND c.ts >= v.ts AND c.ts <= v.ts + INTERVAL {RANGE_WINDOW_S} SECOND
""",
    "simhash": _simhash_sql(),
    "fingerprints": _fingerprints_sql(),
    "embedding_dup_pairs": _embedding_dup_pairs_sql(
        EMB_DUP_THRESHOLD, EMB_DUP_HYPERPLANES
    ),
    "compression_ratio": _compression_ratio_sql(),
    "pagerank": _pagerank_sql(),
    "pagerank_join": _pagerank_sql(8),
    "codec_golden": """
SELECT * FROM (VALUES
  ('six_ones', '010101010101', true),
  ('powers', '81008200840088009000', true),
  ('max_int', '87ffffff7f', true),
  ('empty', '', true),
  ('zero', '00', true)
) AS t(case_id, encoded_hex, roundtrip_ok)
""",
    "pfordelta_golden": """
SELECT * FROM (VALUES
  ('six_ones', '0601003f', true),
  ('zero', '01010000', true),
  ('empty', '', true),
  ('outlier_patch', '04010107039ec220', true),
  ('powers', '050c008000100002400008', true)
) AS t(case_id, encoded_hex, roundtrip_ok)
""",
    "stemmer_golden": "SELECT * FROM (VALUES "
    + ", ".join(f"('{w}', '{s}')" for w, s in _STEM_GOLDEN.items())
    + ") AS t(word, stem)",
    "wordbreak_golden": "SELECT * FROM (VALUES "
    + ", ".join(f"('{i}', '{o}')" for i, o in _WB_GOLDEN)
    + ") AS t(input, tokens)",
    "wordbreak_dict_golden": "SELECT * FROM (VALUES "
    + ", ".join(f"('{l}', '{i}', '{o}')" for l, i, o in _WB_DICT_GOLDEN)
    + ") AS t(lang, input, tokens)",
}

# the distributed boolean paths answer the SAME question as their
# single-index twins — reuse those oracles verbatim so any divergence
# between the scatter path and the single index shows up as a driver
# value mismatch
ORACLE_SQL["bpe_merges"] = _bpe_merges_sql(BPE_MERGES_M)
ORACLE_SQL["semdedup_survivors"] = _semdedup_survivors_sql(
    EMB_DUP_THRESHOLD, EMB_DUP_HYPERPLANES)
ORACLE_SQL["bpe_piece_counts"] = _bpe_piece_counts_sql(BPE_MERGES_M)
ORACLE_SQL["dedup_passages_rewrite"] = _dedup_passages_rewrite_sql(True)
ORACLE_SQL["dedup_passages_drop_all"] = _dedup_passages_rewrite_sql(False)
ORACLE_SQL["search_and_distributed"] = ORACLE_SQL["search_and"]
ORACLE_SQL["search_phrase_distributed"] = ORACLE_SQL["search_phrase"]
ORACLE_SQL["search_prefix_distributed"] = ORACLE_SQL["search_prefix"]
ORACLE_SQL["search_not_distributed"] = ORACLE_SQL["search_not"]
ORACLE_SQL["search_near_distributed"] = ORACLE_SQL["search_near"]
ORACLE_SQL["search_fuzzy_distributed"] = ORACLE_SQL["search_fuzzy"]
ORACLE_SQL["search_wildcard_distributed"] = ORACLE_SQL["search_wildcard"]
# IVF/LSH at full probe are provably lossless => the exact brute-force
# top-k SQL is their oracle (same queries/k as ann_cosine_topk); reuse
# by ASSIGNMENT so the three sketches can never drift apart
ORACLE_SQL["ann_ivf_topk"] = ORACLE_SQL["ann_cosine_topk"]
ORACLE_SQL["ann_lsh_topk"] = ORACLE_SQL["ann_cosine_topk"]
# the salted skew join answers the SAME question as the plain
# sort-merge join — any divergence of the hot-key routing shows up as
# a driver value mismatch
ORACLE_SQL["customer_order_counts_skew"] = ORACLE_SQL["customer_order_counts"]
ORACLE_SQL["events_above_p90"] = f"""
SELECT event_id,
       {_R4.format(expr='value')} AS value
FROM events
WHERE value >= (SELECT quantile_disc(value, {EVENTS_VALUE_Q}) FROM events)
"""


# ---------------------------------------------------------------------
# round-5 widening (additions only — every pre-existing entry above is
# byte-unchanged): versioned dedup, per-group normalization, search
# analytics
# ---------------------------------------------------------------------


def q_latest_order_per_customer(sf_dir: str):
    """Keep-newest-version-per-key dedup — the crawl "latest snapshot
    per URL" rule, here: each customer's single most recent order
    (ties by smallest o_orderkey).  ``topk_per_group`` k=1 descending:
    the per-batch prefilter bounds the shuffle at one row per
    (batch, customer), so the exchange is output-shaped regardless of
    how many versions a key has."""
    from ..stages.aggregates import topk_per_group

    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey",
                                                   "o_orderdate", "o_totalprice"])

    o_schema = pa.schema([("o_custkey", pa.int64()), ("o_orderkey", pa.int64()),
                          ("o_date_us", pa.int64()), ("o_totalprice", pa.float64())])
    prep = shape(o_schema, rename={"o_date_us": "o_orderdate"})
    top = topk_per_group(
        orders.map_batches(prep, batch_format="pyarrow"),
        ["o_custkey"], "o_date_us", 1, descending=True,
        tiebreak="o_orderkey", in_schema=o_schema)
    return top.map_batches(shape(o_schema, r4=["o_totalprice"]), batch_format="pyarrow")


def q_user_value_znorm(sf_dir: str):
    """Per-group z-score normalization (feature standardization by
    composition): one sorted_groupby_agg pass sums exact INTEGER
    moments per user (cents, cents², count — no float-association
    hazard), the user-cardinality-bounded stats table broadcasts once
    via ray.put, and the events stream through a per-batch Arrow hash
    join + one vectorized (v - mean)/sd map.  Zero-variance users are
    excluded (SQL division by zero) on both sides BEFORE the sqrt so
    neither engine evaluates sqrt of a negative residue."""
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.join import broadcast_join

    ev = _events_cents(sf_dir)

    def prep(t: pa.Table) -> pa.Table:
        c = _non_null_numpy(t, "cents").astype(np.int64)
        return pa.table({"user_id": t["user_id"],
                         "c": pa.array(c), "c2": pa.array(c * c)})

    agg = sorted_groupby_agg(
        ev.map_batches(prep, batch_format="pyarrow"),
        ["user_id"],
        [("c", "sum", "s"), ("c2", "sum", "ss"), ("c", "count", "n")])

    # group-cardinality-bounded stats — the SMALL side of the
    # broadcast join (same shape as every broadcast lookup here)
    rows = agg.take_all()
    s = np.array([r["s"] for r in rows], dtype=np.float64)
    ss = np.array([r["ss"] for r in rows], dtype=np.float64)
    n = np.array([r["n"] for r in rows], dtype=np.float64)
    mean = s / n
    var = ss / n - mean * mean
    keep = var > 0
    stats = pa.table({
        "user_id": pa.array(np.array([r["user_id"] for r in rows],
                                     dtype=np.int64)[keep]),
        "_mean": pa.array(mean[keep]),
        "_sd": pa.array(np.sqrt(var[keep])),
    })

    joined = broadcast_join(ev, stats, "user_id")

    def z(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        c = t["cents"].to_numpy(zero_copy_only=False).astype(np.float64)
        m = t["_mean"].to_numpy(zero_copy_only=False)
        sd = t["_sd"].to_numpy(zero_copy_only=False)
        return pa.table({
            "event_id": pc.cast(t["event_id"], pa.int64()),
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "z": pa.array(_r4((c - m) / sd)),
        })

    return joined.map_batches(z, batch_format="pyarrow")


def q_search_facets(sf_dir: str):
    """Facet counts over a search (the results-page "by source"
    sidebar): source distribution of ALL docs matching KW.  The hit-id
    set (result-set-sized) broadcasts once; the documents table
    STREAMS through a per-batch Arrow hash semi-join, then one
    source-cardinality-bounded grouped count — no data-sized
    shuffle."""
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.join import broadcast_join

    hits = _ids_table(_searcher(sf_dir).search_keyword(KW))
    docs = read_table(sf_dir, "documents", columns=["doc_id", "source"])
    j = broadcast_join(docs, hits, "doc_id")
    agg = sorted_groupby_agg(
        j, ["source"], [("doc_id", "count", "n_hits")],
        in_schema=pa.schema([("doc_id", pa.int64()),
                             ("source", pa.string())]))

    fix = shape(pa.schema({"source": pa.string(), "n_hits": pa.int64()}))
    return agg.map_batches(fix, batch_format="pyarrow")


RRF_K = 60  # the standard reciprocal-rank-fusion constant


def q_search_rrf(sf_dir: str):
    """Reciprocal-rank fusion of the BM25 and TF-IDF rankings for the
    same query — the standard no-tuning ensemble for hybrid retrieval:
    score(d) = 1/(60 + rank_bm25(d)) + 1/(60 + rank_tfidf(d)), missing
    list membership contributes 0.  Ranks are over the ROUNDED scores
    (ties by doc_id) exactly as both scorers' oracles order their
    output, so the two engines rank identically even when raw floats
    differ in the last ulp.  Fusion runs on the two result-set-sized
    ranked lists — output-shaped work, never corpus-shaped."""
    s = _searcher(sf_dir)
    ids_b, sc_b = s.search_bm25(BM25_TERMS, None, prune=False)
    ids_t, sc_t = s.search_tfidf(BM25_TERMS, None)

    def rank_map(ids, sc) -> dict[int, int]:
        ids = np.asarray(ids, dtype=np.int64)
        r4 = _r4(np.asarray(sc, dtype=np.float64))
        order = np.lexsort((ids, -r4))
        return {int(ids[j]): i + 1 for i, j in enumerate(order)}

    rb, rt = rank_map(ids_b, sc_b), rank_map(ids_t, sc_t)
    fused = sorted(set(rb) | set(rt))
    rrf = np.array([
        (1.0 / (RRF_K + rb[d]) if d in rb else 0.0)
        + (1.0 / (RRF_K + rt[d]) if d in rt else 0.0)
        for d in fused], dtype=np.float64)
    return pa.table({"doc_id": pa.array(np.asarray(fused, dtype=np.int64)),
                     "rrf": pa.array(_r4(rrf))})


QUERIES["latest_order_per_customer"] = q_latest_order_per_customer
QUERIES["user_value_znorm"] = q_user_value_znorm
QUERIES["search_facets"] = q_search_facets
QUERIES["search_rrf"] = q_search_rrf

ORACLE_SQL["latest_order_per_customer"] = f"""
SELECT o_custkey, o_orderkey, epoch_us(o_orderdate) AS o_date_us,
       {_R4.format(expr="o_totalprice")} AS o_totalprice
FROM (SELECT *, row_number() OVER (PARTITION BY o_custkey
                                   ORDER BY o_orderdate DESC, o_orderkey) AS rn
      FROM orders)
WHERE rn = 1
"""

ORACLE_SQL["user_value_znorm"] = f"""
WITH ev AS (SELECT event_id, user_id, floor(value*100)::BIGINT AS cents
            FROM events),
st AS (SELECT user_id, sum(cents)::DOUBLE AS s,
              sum(cents*cents)::DOUBLE AS ss, count(*)::DOUBLE AS n
       FROM ev GROUP BY user_id),
sd AS (SELECT user_id, s/n AS mean, ss/n - (s/n)*(s/n) AS var FROM st)
SELECT e.event_id, e.user_id,
       {_R4.format(expr="(e.cents - sd.mean) / sqrt(sd.var)")} AS z
FROM ev e JOIN sd USING (user_id) WHERE sd.var > 0
"""

ORACLE_SQL["search_facets"] = f"""
WITH {_BASE_CTE}
SELECT d.source, count(*)::BIGINT AS n_hits
FROM base b JOIN documents d USING (doc_id)
WHERE list_contains(b.terms, '{KW}')
GROUP BY d.source
"""

ORACLE_SQL["search_rrf"] = f"""
WITH br AS (SELECT doc_id, row_number() OVER (ORDER BY score DESC, doc_id)
                   AS r
            FROM ({_bm25_sql(BM25_TERMS, None)})),
tr AS (SELECT doc_id, row_number() OVER (ORDER BY score DESC, doc_id) AS r
       FROM ({_tfidf_sql(BM25_TERMS, None)}))
SELECT doc_id,
       {_R4.format(expr=f"(coalesce(1.0/({RRF_K} + br.r), 0.0)"
                        f" + coalesce(1.0/({RRF_K} + tr.r), 0.0))")} AS rrf
FROM br FULL JOIN tr USING (doc_id)
"""


def q_lineitem_rollup(sf_dir: str):
    """SQL GROUP BY ROLLUP by composition (TPC-H Q1 flavor): lineitem
    counts + integer quantity sums at (returnflag, linestatus), per
    returnflag, and grand total, with SQL's GROUPING bitmask in lvl.
    The data is touched once (one sorted grouped reduction); every
    coarser level re-aggregates the previous level's group-bounded
    output."""
    from ..stages.aggregates import rollup_agg

    li = read_table(sf_dir, "lineitem", columns=["l_returnflag", "l_linestatus",
                                                 "l_quantity"])

    def prep(t: pa.Table) -> pa.Table:
        q = _non_null_numpy(t, "l_quantity")
        return pa.table({"l_returnflag": t["l_returnflag"],
                         "l_linestatus": t["l_linestatus"],
                         "qty": pa.array(q.astype(np.int64))})

    return rollup_agg(
        li.map_batches(prep, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        [("qty", "count", "n_items"), ("qty", "sum", "sum_qty")],
        in_schema=pa.schema([("l_returnflag", pa.string()),
                             ("l_linestatus", pa.string()),
                             ("qty", pa.int64())]))


WINSOR_Q_LO, WINSOR_Q_HI = 0.05, 0.95


def q_events_winsorized(sf_dir: str):
    """Winsorization: events.value clamped to its [p5, p95] global
    discrete quantiles — quantile points located from sorted block
    METADATA (one block fetch per rank), then a pure broadcast clamp
    map.  Outputs are originals or exact quantile values, so the
    comparison is float-exact before the shared rounding."""
    from ..stages.aggregates import clip_by_quantiles

    ev = read_table(sf_dir, "events", columns=["event_id", "value"])
    out = clip_by_quantiles(ev, "value", WINSOR_Q_LO, WINSOR_Q_HI,
                            out_col="value_w")

    fix = shape(pa.schema({"event_id": pa.int64(), "value_w": pa.float64()}),
                r4=["value_w"])
    return out.map_batches(fix, batch_format="pyarrow")


BIGRAM_TOP_V = 400


def q_bigram_quality(sf_dir: str):
    """Conditional bigram-LM quality score (the KenLM-flavored step up
    from unigram_quality): mean ln p(w2|w1) per document under the
    corpus's own counts with a top-V bigram head and an OOV floor.
    Two vocabulary-sized count shuffles, a V-bounded broadcast, one
    vectorized scoring map."""
    from ..stages.textstats import bigram_logprob

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = bigram_logprob(docs, top_v=BIGRAM_TOP_V, oov_count=0.5)

    fix = shape(pa.schema({"doc_id": pa.int64(), "n_bigrams": pa.int64(),
                           "logprob": pa.float64()}), r4=["logprob"])
    return out.map_batches(fix, batch_format="pyarrow")


QUERIES["lineitem_rollup"] = q_lineitem_rollup
QUERIES["events_winsorized"] = q_events_winsorized
QUERIES["bigram_quality"] = q_bigram_quality

ORACLE_SQL["lineitem_rollup"] = """
SELECT l_returnflag, l_linestatus, count(*)::BIGINT AS n_items,
       sum(l_quantity)::BIGINT AS sum_qty,
       GROUPING(l_returnflag, l_linestatus)::BIGINT AS lvl
FROM lineitem GROUP BY ROLLUP(l_returnflag, l_linestatus)
"""

ORACLE_SQL["events_winsorized"] = f"""
WITH b AS (SELECT quantile_disc(value, {WINSOR_Q_LO}) AS lo,
                  quantile_disc(value, {WINSOR_Q_HI}) AS hi FROM events)
SELECT event_id,
       {_R4.format(expr="least(greatest(value, lo), hi)")} AS value_w
FROM events CROSS JOIN b
"""

ORACLE_SQL["bigram_quality"] = f"""
WITH {_TOK_CTE},
bg AS (SELECT doc_id, toks[p] || ' ' || toks[p+1] AS g
       FROM (SELECT doc_id, toks,
                    unnest(generate_series(1, len(toks)-1)) AS p
             FROM tok WHERE len(toks) >= 2)),
cb AS (SELECT g, count(*)::BIGINT AS c FROM bg GROUP BY g),
nb AS (SELECT sum(c)::DOUBLE AS n FROM cb),
c1 AS (SELECT t, count(*)::BIGINT AS c
       FROM (SELECT unnest(toks) AS t FROM tok) GROUP BY t),
top AS (SELECT g, cb.c::DOUBLE AS cb, c1.c::DOUBLE AS c1
        FROM (SELECT g, c FROM cb
              ORDER BY c DESC, g LIMIT {BIGRAM_TOP_V}) cb
        JOIN c1 ON split_part(cb.g, ' ', 1) = c1.t),
sc AS (
  SELECT bg.doc_id, count(*)::BIGINT AS n_bigrams,
         avg(CASE WHEN top.g IS NOT NULL THEN ln(top.cb / top.c1)
                  ELSE ln(0.5 / nb.n) END) AS lp
  FROM bg LEFT JOIN top ON bg.g = top.g CROSS JOIN nb
  GROUP BY bg.doc_id)
SELECT d.doc_id, coalesce(sc.n_bigrams, 0)::BIGINT AS n_bigrams,
       {_R4.format(expr="coalesce(sc.lp, 0.0)")} AS logprob
FROM documents d LEFT JOIN sc USING (doc_id)
"""


EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


def q_user_type_pivot(sf_dir: str):
    """SQL PIVOT (crosstab): one row per user, one count column per
    event type (fixed caller-supplied value list, the PIVOT contract).
    Per batch one bincount over a (batch-users × 5) plane, then one
    user-sorted grouped sum — the shuffle carries key partials, never
    events."""
    from ..stages.aggregates import pivot_counts

    ev = read_table(sf_dir, "events", columns=["user_id", "event_type"])
    out = pivot_counts(ev, "user_id", "event_type", EVENT_TYPES)

    fix = shape(pa.schema([("user_id", pa.int64())]
                          + [(f"n_{v}", pa.int64()) for v in EVENT_TYPES]))
    return out.map_batches(fix, batch_format="pyarrow")


def q_doc_entropy(sf_dir: str):
    """Per-doc token-distribution Shannon entropy + type-token ratio —
    the lexical-diversity / boilerplate gate.  Pure per-batch map, no
    shuffle."""
    from ..stages.textstats import token_entropy

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = token_entropy(docs)

    fix = shape(pa.schema({"doc_id": pa.int64(), "n_tokens": pa.int64(),
                           "n_distinct": pa.int64(), "entropy": pa.float64(),
                           "ttr": pa.float64()}), r4=["entropy", "ttr"])
    return out.map_batches(fix, batch_format="pyarrow")


QUERIES["user_type_pivot"] = q_user_type_pivot
QUERIES["doc_entropy"] = q_doc_entropy

ORACLE_SQL["user_type_pivot"] = "\nSELECT user_id,\n" + ",\n".join(
    f"       count(*) FILTER (event_type = '{v}')::BIGINT AS n_{v}"
    for v in EVENT_TYPES) + "\nFROM events GROUP BY user_id\n"

ORACLE_SQL["doc_entropy"] = f"""
WITH {_TOK_CTE},
occ AS (SELECT doc_id, unnest(toks) AS t FROM tok),
tc AS (SELECT doc_id, t, count(*)::BIGINT AS c FROM occ GROUP BY doc_id, t),
tot AS (SELECT doc_id, sum(c)::BIGINT AS n, count(*)::BIGINT AS nd
        FROM tc GROUP BY doc_id),
ent AS (SELECT tc.doc_id,
               -sum((tc.c::DOUBLE / tot.n) * ln(tc.c::DOUBLE / tot.n)) AS h
        FROM tc JOIN tot USING (doc_id) GROUP BY tc.doc_id)
SELECT d.doc_id,
       coalesce(tot.n, 0)::BIGINT AS n_tokens,
       coalesce(tot.nd, 0)::BIGINT AS n_distinct,
       {_R4.format(expr="coalesce(ent.h, 0.0)")} AS entropy,
       {_R4.format(expr="coalesce(tot.nd::DOUBLE / tot.n, 0.0)")} AS ttr
FROM documents d LEFT JOIN tot USING (doc_id) LEFT JOIN ent USING (doc_id)
"""


def q_events_grouping_sets(sf_dir: str):
    """SQL GROUP BY GROUPING SETS ((user_id), (event_type)): per-user
    AND per-type event counts + exact integer cent sums from ONE
    data-sized exchange — each set re-aggregates the finest level's
    group-bounded output.  Exercises heterogeneous key types (int64
    user, string type) through the null-safe pair encoding."""
    from ..stages.aggregates import grouping_sets_agg

    raw = read_table(sf_dir, "events", columns=["user_id", "event_type", "value"])

    def prep2(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        v = _non_null_numpy(t, "value")
        return pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "event_type": t["event_type"],
            "cents": pa.array(np.floor(v * 100).astype(np.int64)),
        })

    return grouping_sets_agg(
        raw.map_batches(prep2, batch_format="pyarrow"),
        ["user_id", "event_type"],
        [["user_id"], ["event_type"]],
        [("cents", "count", "n"), ("cents", "sum", "sum_cents")],
        in_schema=pa.schema([("user_id", pa.int64()),
                             ("event_type", pa.string()),
                             ("cents", pa.int64())]))


def q_lineitem_cube(sf_dir: str):
    """SQL GROUP BY CUBE(l_returnflag, l_linestatus): all four grouping
    sets from one data-sized exchange, GROUPING bitmask in lvl."""
    from ..stages.aggregates import cube_agg

    li = read_table(sf_dir, "lineitem", columns=["l_returnflag", "l_linestatus",
                                                 "l_quantity"])

    def prep(t: pa.Table) -> pa.Table:
        q = _non_null_numpy(t, "l_quantity")
        return pa.table({"l_returnflag": t["l_returnflag"],
                         "l_linestatus": t["l_linestatus"],
                         "qty": pa.array(q.astype(np.int64))})

    return cube_agg(
        li.map_batches(prep, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        [("qty", "count", "n_items"), ("qty", "sum", "sum_qty")],
        in_schema=pa.schema([("l_returnflag", pa.string()),
                             ("l_linestatus", pa.string()),
                             ("qty", pa.int64())]))


QUERIES["events_grouping_sets"] = q_events_grouping_sets
QUERIES["lineitem_cube"] = q_lineitem_cube

ORACLE_SQL["events_grouping_sets"] = """
SELECT user_id, event_type, count(*)::BIGINT AS n,
       sum(floor(value*100)::BIGINT)::BIGINT AS sum_cents,
       GROUPING(user_id, event_type)::BIGINT AS lvl
FROM events GROUP BY GROUPING SETS ((user_id), (event_type))
"""

ORACLE_SQL["lineitem_cube"] = """
SELECT l_returnflag, l_linestatus, count(*)::BIGINT AS n_items,
       sum(l_quantity)::BIGINT AS sum_qty,
       GROUPING(l_returnflag, l_linestatus)::BIGINT AS lvl
FROM lineitem GROUP BY CUBE(l_returnflag, l_linestatus)
"""


TOP_TERMS_K = 5


def q_top_terms_per_source(sf_dir: str):
    """Grouped heavy hitters — the "top terms per domain" facet: the 5
    most frequent tokens per source (ties by ascending token).  Two
    group-bounded exchanges: per-batch (source, token) count partials
    -> one sorted grouped sum (vocabulary x sources rows, never the
    occurrence stream) -> per-source top-k rank sweep.  Rank ties are
    broken by a token hash surrogate so the kept set is deterministic
    (topk_per_group needs a NUMERIC tiebreak; md5-low-64 of the token
    is injective on distinct tokens up to hash collisions, which the
    oracle replays exactly)."""
    from ..functions.hashing import md5_low64_batch
    from ..stages.aggregates import sorted_groupby_agg, topk_per_group
    from ..stages.textstats import _split_tokens

    docs = read_table(sf_dir, "documents", columns=["text", "source"])

    def partial(t: pa.Table) -> pa.Table:
        content = t["text"]
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        src = t["source"]
        src = src.combine_chunks() if isinstance(src, pa.ChunkedArray) \
            else src
        parents, values = _split_tokens(content)
        if len(values) == 0:
            return pa.schema({"source": pa.string(),
                              "token": pa.large_string(),
                              "cnt": pa.int64()}).empty_table()
        sd = src.take(pa.array(parents)).dictionary_encode()
        scodes = _codes(sd)
        td = values.dictionary_encode()
        tcodes = _codes(td)
        card = len(td.dictionary)
        comp = scodes * card + tcodes
        uniq, cnt = np.unique(comp, return_counts=True)
        return pa.table({
            "source": sd.dictionary.take(pa.array(uniq // card)),
            "token": td.dictionary.take(pa.array(uniq % card))
                .cast(pa.large_string()),
            "cnt": pa.array(cnt.astype(np.int64)),
        })

    counts = sorted_groupby_agg(
        docs.map_batches(partial, batch_format="pyarrow"),
        ["source", "token"], [("cnt", "sum", "cnt")],
        in_schema=pa.schema([("source", pa.string()),
                             ("token", pa.large_string()),
                             ("cnt", pa.int64())]))

    def add_tb(t: pa.Table) -> pa.Table:
        toks = t["token"]
        toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) \
            else toks
        h = md5_low64_batch(toks.to_pylist())
        # uint64 -> int64 bit-pattern shift keeps the ORDER DuckDB's
        # (md5_number_lower(token) - 2**63) integer surrogate sees
        return t.append_column(
            "_tb", pa.array((h - np.uint64(1 << 63)).view(np.int64)))

    top = topk_per_group(
        counts.map_batches(add_tb, batch_format="pyarrow"),
        ["source"], "cnt", TOP_TERMS_K, descending=True, tiebreak="_tb",
        in_schema=pa.schema([("source", pa.string()),
                             ("token", pa.large_string()),
                             ("cnt", pa.int64()),
                             ("_tb", pa.int64())]))

    fix = shape(pa.schema({"source": pa.string(), "token": pa.string(),
                           "cnt": pa.int64()}))
    return top.map_batches(fix, batch_format="pyarrow")


QUERIES["top_terms_per_source"] = q_top_terms_per_source

ORACLE_SQL["top_terms_per_source"] = f"""
WITH {_TOK_CTE},
occ AS (SELECT d.source, unnest(t.toks) AS token
        FROM tok t JOIN documents d USING (doc_id)),
cnt AS (SELECT source, token, count(*)::BIGINT AS cnt
        FROM occ GROUP BY source, token),
r AS (SELECT source, token, cnt,
             row_number() OVER (
               PARTITION BY source
               ORDER BY cnt DESC,
                        (md5_number_lower(token)::INT128
                         - 9223372036854775808)::BIGINT) AS rn
      FROM cnt)
SELECT source, token, cnt FROM r WHERE rn <= {TOP_TERMS_K}
"""


def q_corr_qty_price(sf_dir: str):
    """Pearson correlation between lineitem quantity and price-cents,
    computed from EXACT integer moment sums (n, Σx, Σy, Σx², Σy², Σxy
    — six scalars per batch to the driver, no shuffle) so the closing
    float expression is the identical IEEE formula on both sides —
    deliberately NOT DuckDB's corr() accumulator, whose running-update
    float path differs between engines."""
    li = read_table(sf_dir, "lineitem", columns=["l_quantity", "l_extendedprice"])

    def moments(t: pa.Table) -> pa.Table:
        x = _non_null_numpy(t, "l_quantity").astype(np.int64)
        y = np.floor(_non_null_numpy(t, "l_extendedprice") * 100).astype(np.int64)
        return pa.table({
            "n": pa.array([np.int64(len(x))]),
            "sx": pa.array([x.sum()]), "sy": pa.array([y.sum()]),
            "sxx": pa.array([(x * x).sum()]),
            "syy": pa.array([(y * y).sum()]),
            "sxy": pa.array([(x * y).sum()]),
        })

    parts = li.map_batches(moments, batch_format="pyarrow").take_all()
    n = float(sum(r["n"] for r in parts))
    sx = float(sum(r["sx"] for r in parts))
    sy = float(sum(r["sy"] for r in parts))
    sxx = float(sum(r["sxx"] for r in parts))
    syy = float(sum(r["syy"] for r in parts))
    sxy = float(sum(r["sxy"] for r in parts))
    r = (n * sxy - sx * sy) / (np.sqrt(n * sxx - sx * sx)
                               * np.sqrt(n * syy - sy * sy))
    return pa.table({"n": pa.array([np.int64(n)]),
                     "corr": pa.array(_r4(np.array([r])))})


MAD_CENTER_Q = 0.5


def q_events_mad(sf_dir: str):
    """Median absolute deviation of events.value — the robust spread
    statistic: two metadata-located quantile passes (median of v, then
    median of |v - med|), each one range sort with one block fetch per
    rank, nothing driver-materialized."""
    from ..stages.aggregates import global_quantiles

    ev = read_table(sf_dir, "events", columns=["value"])
    med = global_quantiles(ev, "value", [MAD_CENTER_Q])["value"][0].as_py()

    def dev(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        return pa.table({"adev": pa.array(np.abs(v - med))})

    devs = ev.map_batches(dev, batch_format="pyarrow")
    mad = global_quantiles(devs, "adev", [MAD_CENTER_Q])["value"][0].as_py()
    return pa.table({"median": pa.array(_r4(np.array([med]))),
                     "mad": pa.array(_r4(np.array([mad])))})


def q_user_type_unpivot(sf_dir: str):
    """UNPIVOT — the inverse of user_type_pivot: the crosstab's five
    count columns melt back to (user_id, event_type, n) rows, zero
    counts dropped (SQL UNPIVOT excludes NULLs; a zero count means the
    pair never occurred).  Pure per-batch map over the pivot output —
    the round trip pins both directions against one oracle."""
    piv = q_user_type_pivot(sf_dir)

    def melt(t: pa.Table) -> pa.Table:
        n = t.num_rows
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        uids, types, cnts = [], [], []
        for v in EVENT_TYPES:
            c = t[f"n_{v}"].to_numpy(zero_copy_only=False)
            keep = c > 0
            uids.append(uid[keep])
            types.append(np.full(int(keep.sum()), v, dtype=object))
            cnts.append(c[keep])
        return pa.table({
            "user_id": pa.array(np.concatenate(uids) if uids
                                else np.array([], dtype=np.int64)),
            "event_type": pa.array(np.concatenate(types).tolist(),
                                   pa.string()),
            "n": pa.array(np.concatenate(cnts)),
        })

    return piv.map_batches(melt, batch_format="pyarrow")


QUERIES["corr_qty_price"] = q_corr_qty_price
QUERIES["events_mad"] = q_events_mad
QUERIES["user_type_unpivot"] = q_user_type_unpivot

ORACLE_SQL["corr_qty_price"] = f"""
WITH m AS (SELECT count(*)::DOUBLE AS n,
                  sum(l_quantity::BIGINT)::DOUBLE AS sx,
                  sum(floor(l_extendedprice*100)::BIGINT)::DOUBLE AS sy,
                  sum((l_quantity::BIGINT)*(l_quantity::BIGINT))::DOUBLE
                    AS sxx,
                  sum(floor(l_extendedprice*100)::BIGINT
                      * floor(l_extendedprice*100)::BIGINT)::DOUBLE AS syy,
                  sum((l_quantity::BIGINT)
                      * floor(l_extendedprice*100)::BIGINT)::DOUBLE AS sxy
           FROM lineitem)
SELECT n::BIGINT AS n,
       {_R4.format(expr="((n * sxy - sx * sy) / (sqrt(n * sxx - sx * sx)"
                        " * sqrt(n * syy - sy * sy)))")} AS corr
FROM m
"""

ORACLE_SQL["events_mad"] = f"""
WITH med AS (SELECT quantile_disc(value, {MAD_CENTER_Q}) AS m FROM events),
dev AS (SELECT abs(value - med.m) AS adev FROM events CROSS JOIN med)
SELECT {_R4.format(expr="(SELECT m FROM med)")} AS median,
       {_R4.format(expr=f"(SELECT quantile_disc(adev, {MAD_CENTER_Q})"
                        " FROM dev)")} AS mad
"""

ORACLE_SQL["user_type_unpivot"] = """
SELECT user_id, event_type, count(*)::BIGINT AS n
FROM events GROUP BY user_id, event_type
"""


MLT_SEED_DOC = 7
MLT_TERMS_K = 3
MLT_TOPK = 10


def q_more_like_this(sf_dir: str):
    """More-like-this (relevance-feedback search): fetch ONE seed doc
    by id (range-pruned docstore lookup), pick its top-3 TF-IDF terms
    in the INDEX's analyzed term space (tf · N/df, df from the term
    dictionary — no corpus pass; ties by ascending md5-low-64 of the
    term, the order DuckDB replays), then rank the corpus with the
    standard TF-IDF scorer on those terms, seed excluded, top-10 at
    the compared 4-decimal precision.  Everything before the search is
    O(one doc + 3 dictionary lookups)."""
    from collections import Counter

    from ..functions.hashing import md5_low64_batch

    import pyarrow.dataset as pads

    s = _searcher(sf_dir)
    seed = pads.dataset(os.path.join(sf_dir, "documents.parquet"),
                        format="parquet").to_table(
        columns=["text"],
        filter=pads.field("doc_id") == MLT_SEED_DOC)
    text = seed["text"][0].as_py()
    tf = Counter(s.analyzer.analyze(text))
    terms = sorted(tf)
    tfv = np.array([tf[t] for t in terms], dtype=np.float64)
    dfv = np.array([s.df(t) for t in terms], dtype=np.float64)
    ok = dfv > 0
    terms = [t for t, o in zip(terms, ok) if o]
    score = tfv[ok] * (float(s.n_docs) / dfv[ok])
    order = np.lexsort((md5_low64_batch(terms), -score))[:MLT_TERMS_K]
    qterms = [terms[i] for i in order]

    ids, sc = s.search_tfidf(qterms, None)
    ids = np.asarray(ids, dtype=np.int64)
    keep = ids != MLT_SEED_DOC
    return _rounded_topk(ids[keep], np.asarray(sc)[keep], MLT_TOPK)


QUERIES["more_like_this"] = q_more_like_this

ORACLE_SQL["more_like_this"] = f"""
WITH {_BASE_CTE},
seedtf AS (SELECT term, count(*)::DOUBLE AS tf
           FROM (SELECT unnest(terms) AS term FROM base
                 WHERE doc_id = {MLT_SEED_DOC})
           GROUP BY term),
alltf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf
          FROM (SELECT doc_id, unnest(terms) AS term FROM base)
          GROUP BY 1, 2),
nn AS (SELECT count(*)::DOUBLE AS n FROM base),
dfs AS (SELECT term, count(*)::DOUBLE AS df FROM alltf
        WHERE term IN (SELECT term FROM seedtf) GROUP BY term),
qterms AS (SELECT term FROM (
    SELECT s.term, row_number() OVER (
        ORDER BY s.tf * (nn.n / dfs.df) DESC,
                 md5_number_lower(s.term) ASC) AS rn
    FROM seedtf s JOIN dfs USING (term) CROSS JOIN nn)
  WHERE rn <= {MLT_TERMS_K}),
dfq AS (SELECT term, df FROM dfs WHERE term IN (SELECT term FROM qterms)),
parts AS (
  SELECT alltf.doc_id,
         (alltf.tf * nn.n / dfq.df) * (nn.n / dfq.df) AS dot_part,
         (alltf.tf * nn.n / dfq.df) * (alltf.tf * nn.n / dfq.df)
           AS len_part
  FROM alltf JOIN dfq USING (term) CROSS JOIN nn),
scores AS (SELECT doc_id, sum(dot_part) / sqrt(sum(len_part)) AS score
           FROM parts GROUP BY doc_id)
SELECT doc_id, {_R4.format(expr="score")} AS score
FROM scores WHERE doc_id <> {MLT_SEED_DOC}
ORDER BY {_R4.format(expr="score")} DESC, doc_id LIMIT {MLT_TOPK}
"""


LANGID_PREDS = ["en", "de", "fr", "es", "unknown"]


def q_langid_confusion(sf_dir: str):
    """Language-ID confusion matrix — the classifier-quality check
    every multilingual curation pipeline runs: labeled lang (rows) ×
    predicted lang (count columns).  One pass: the langid map runs
    per batch with the label riding along, then the crosstab's
    bincount-plane partials — the shuffle carries (labels × preds)
    partial rows, never documents."""
    from ..stages.aggregates import pivot_counts
    from ..stages.textstats import langid_batch

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def pred(t: pa.Table) -> pa.Table:
        out = langid_batch(t)
        return out.append_column("lang", t["lang"])

    ds = docs.map_batches(pred, batch_format="pyarrow")
    out = pivot_counts(ds, "lang", "pred_lang", LANGID_PREDS,
                       in_schema=pa.schema([
                           ("doc_id", pa.int64()),
                           ("pred_lang", pa.string()),
                           ("marker_hits", pa.int64()),
                           ("lang", pa.string())]))

    fix = shape(pa.schema([("lang", pa.string())]
                          + [(f"n_{v}", pa.int64()) for v in LANGID_PREDS]))
    return out.map_batches(fix, batch_format="pyarrow")


QUERIES["langid_confusion"] = q_langid_confusion

# DuckDB allows a WITH inside a parenthesized subquery (same pattern
# as the bm25_topk_hydrated oracle)
ORACLE_SQL["langid_confusion"] = (
    "\nSELECT d.lang,\n" + ",\n".join(
        f"       count(*) FILTER (p.pred_lang = '{v}')::BIGINT AS n_{v}"
        for v in LANGID_PREDS)
    + f"\nFROM documents d JOIN ({_langid_sql()}) p USING (doc_id)"
    + "\nGROUP BY d.lang\n")


FUNNEL_MIN_CHARS = 100
FUNNEL_MIN_TOKENS = 20


def q_curation_funnel(sf_dir: str):
    """Curation-funnel observability — the per-gate survival report
    every filtering pipeline prints: how many docs pass English
    language-ID, then ALSO the length gate, then ALSO the token-count
    gate (prefix-AND counts, one row).  One streaming pass: per-batch
    boolean gates -> four int partials per batch to the driver; no
    shuffle."""
    from ..stages.textstats import _split_tokens, langid_batch

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "n_chars"])

    def gates(t: pa.Table) -> pa.Table:
        pred = langid_batch(t)["pred_lang"].to_numpy(zero_copy_only=False)
        nch = t["n_chars"].to_numpy(zero_copy_only=False)
        content = t["text"]
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        parents, _ = _split_tokens(content)
        ntok = np.bincount(parents, minlength=t.num_rows)
        g1 = pred == "en"
        g12 = g1 & (nch >= FUNNEL_MIN_CHARS)
        g123 = g12 & (ntok >= FUNNEL_MIN_TOKENS)
        return pa.table({
            "n_total": pa.array([np.int64(t.num_rows)]),
            "n_lang": pa.array([np.int64(g1.sum())]),
            "n_lang_len": pa.array([np.int64(g12.sum())]),
            "n_lang_len_tok": pa.array([np.int64(g123.sum())]),
        })

    parts = docs.map_batches(gates, batch_format="pyarrow").take_all()
    return pa.table({
        c: pa.array([np.int64(sum(r[c] for r in parts))])
        for c in ["n_total", "n_lang", "n_lang_len", "n_lang_len_tok"]
    })


QUERIES["curation_funnel"] = q_curation_funnel

ORACLE_SQL["curation_funnel"] = f"""
SELECT count(*)::BIGINT AS n_total,
       count(*) FILTER (pred_lang = 'en')::BIGINT AS n_lang,
       count(*) FILTER (pred_lang = 'en'
                        AND n_chars >= {FUNNEL_MIN_CHARS})::BIGINT
         AS n_lang_len,
       count(*) FILTER (pred_lang = 'en'
                        AND n_chars >= {FUNNEL_MIN_CHARS}
                        AND n_toks >= {FUNNEL_MIN_TOKENS})::BIGINT
         AS n_lang_len_tok
FROM documents d
JOIN ({_langid_sql()}) p USING (doc_id)
JOIN (SELECT doc_id, len(toks)::BIGINT AS n_toks
      FROM ({"WITH " + _TOK_CTE.strip().lstrip()} SELECT * FROM tok))
  USING (doc_id)
"""


WEEK_US = 7 * 86_400 * 1_000_000
VALUE_HIST_BINS = 64


def q_weekly_cohorts(sf_dir: str):
    """Weekly cohort retention matrix — the user-analytics staple:
    distinct active users per (first-active-week, week).  Per-batch
    distinct (user, week) pairs bound the shuffle; one grouped min for
    the cohort assignment; ONE user-keyed sort-merge join (user-scale
    on both sides — a broadcast would NOT be bounded at real user
    counts); one grouped count over the already-distinct pairs."""
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.join import sort_merge_join

    ev = read_table(sf_dir, "events", columns=["user_id", "ts"])

    def weeks(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        wk = _ts_int64(t, "ts") // WEEK_US
        out = pa.table({"user_id": pc.cast(t["user_id"], pa.int64()),
                        "week": pa.array(wk)})
        return out.group_by(["user_id", "week"]).aggregate([])

    pairs = ev.map_batches(weeks, batch_format="pyarrow")
    pair_schema = pa.schema([("user_id", pa.int64()), ("week", pa.int64())])
    distinct = sorted_groupby_agg(pairs, ["user_id", "week"],
                                  [("week", "count", "_c")],
                                  in_schema=pair_schema) \
        .drop_columns(["_c"])
    cohort = sorted_groupby_agg(pairs, ["user_id"],
                                [("week", "min", "cohort")],
                                in_schema=pair_schema)
    joined = sort_merge_join(distinct, cohort, "user_id", "user_id",
                             left_schema=pair_schema,
                             right_schema=pa.schema(
                                 [("user_id", pa.int64()),
                                  ("cohort", pa.int64())]))
    return sorted_groupby_agg(joined, ["cohort", "week"],
                              [("user_id", "count", "n_users")],
                              in_schema=pa.schema(
                                  [("user_id", pa.int64()),
                                   ("week", pa.int64()),
                                   ("cohort", pa.int64())]))


def q_value_histogram(sf_dir: str):
    """Equi-width 64-bin histogram of events.value — the distribution
    TABLE itself (bucket, IEEE-exact edges, count); bins-sized shuffle
    regardless of data size."""
    from ..stages.aggregates import value_histogram

    ev = read_table(sf_dir, "events", columns=["value"])
    out = value_histogram(ev, "value", bins=VALUE_HIST_BINS)

    fix = shape(pa.schema({"bucket": pa.int64(), "lo": pa.float64(), "hi": pa.float64(),
                           "cnt": pa.int64()}), r4=["lo", "hi"])
    return out.map_batches(fix, batch_format="pyarrow")


QUERIES["weekly_cohorts"] = q_weekly_cohorts
QUERIES["value_histogram"] = q_value_histogram

ORACLE_SQL["weekly_cohorts"] = f"""
WITH wk AS (SELECT user_id, epoch_us(ts) // {WEEK_US} AS week FROM events),
c AS (SELECT user_id, min(week) AS cohort FROM wk GROUP BY user_id),
p AS (SELECT DISTINCT user_id, week FROM wk)
SELECT c.cohort, p.week, count(*)::BIGINT AS n_users
FROM p JOIN c USING (user_id) GROUP BY 1, 2
"""

ORACLE_SQL["value_histogram"] = f"""
WITH b AS (SELECT min(value)::DOUBLE AS mn, max(value)::DOUBLE AS mx
           FROM events),
w AS (SELECT mn, CASE WHEN mx = mn THEN 1.0
                      ELSE (mx - mn) / {VALUE_HIST_BINS} END AS w FROM b),
bk AS (SELECT least(floor((value - w.mn) / w.w),
                    {VALUE_HIST_BINS - 1})::BIGINT AS bucket,
              count(*)::BIGINT AS cnt
       FROM events, w WHERE value IS NOT NULL GROUP BY 1)
SELECT bucket,
       {_R4.format(expr="(w.mn + bucket * w.w)")} AS lo,
       {_R4.format(expr="(w.mn + (bucket + 1) * w.w)")} AS hi,
       cnt
FROM bk, w
"""


def q_window_value_p95(sf_dir: str):
    """Windowed exact quantiles by composition — the per-hour latency
    p50/p95 report: assign each event its tumbling bucket with one
    vectorized map, then the exact per-group quantile sweep keyed on
    the bucket (group-key-only sort + per-block rank pick)."""
    from ..stages.aggregates import quantile_per_group
    from ..stages.windows import _ts_us

    w = WINDOW_WIDTH_S * 1_000_000

    def bucket(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        us = _ts_us(t, "ts")
        return pa.table({
            "window_start_us": pa.array((us // w) * w),
            "value": pc.cast(t["value"], pa.float64()),
        })

    ds = read_table(sf_dir, "events").map_batches(bucket, batch_format="pyarrow")
    out = quantile_per_group(ds, ["window_start_us"], "value",
                             [0.5, 0.95])

    fix = shape(pa.schema({"window_start_us": pa.int64(), "q5": pa.float64(),
                           "q95": pa.float64()}), r4=["q5", "q95"])
    return out.map_batches(fix, batch_format="pyarrow")


MIX_BUCKETS = 10_000


def q_source_temperature_mix(sf_dir: str):
    """Temperature-based group rebalancing — the LLM data-mixture
    move (downweight over-represented languages by inverse sqrt):
    keep_rate(g) = sqrt(min_count / count_g), so the SMALLEST group
    keeps everything and a 100× larger group keeps 10%.  Keyed on
    `lang`, which IS skewed in this corpus (en ≈ 3× fr), so the query
    demonstrates real downweighting.  One group-bounded grouped count,
    a rates dict built driver-side (sqrt + division — IEEE-exact,
    SQL-replayable), then the content-addressed `sample_fraction`
    map — every keep/drop decision replays in SQL."""
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.sampling import sample_fraction

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    cnt_rows = sorted_groupby_agg(
        docs, ["lang"], [("doc_id", "count", "n")]).take_all()
    counts = {r["lang"]: int(r["n"]) for r in cnt_rows}
    mn = min(counts.values())
    rates = {s: int(np.floor(np.sqrt(np.float64(mn) / np.float64(n))
                             * MIX_BUCKETS))
             for s, n in counts.items()}
    out = sample_fraction(docs, rates, default=0, group_col="lang",
                          buckets=MIX_BUCKETS,
                          out_cols=["doc_id", "lang"])
    return out


def q_group_hash_split(sf_dir: str):
    """Leakage-safe GROUP-level split: the train/valid/test assignment
    hashes the SOURCE, so every doc of a source lands in the same
    split (near-duplicates within a domain can't straddle train/test).
    Same content-addressed machinery as hash_split, keyed on the group
    column."""
    from ..stages.sampling import hash_split

    docs = read_table(sf_dir, "documents", columns=["doc_id", "source"])
    out = hash_split(docs, text_col="source")

    fix = shape(pa.schema({"doc_id": pa.int64(), "bucket": pa.int64(),
                           "split": pa.string()}))
    return out.map_batches(fix, batch_format="pyarrow")


QUERIES["window_value_p95"] = q_window_value_p95
QUERIES["source_temperature_mix"] = q_source_temperature_mix
QUERIES["group_hash_split"] = q_group_hash_split

ORACLE_SQL["window_value_p95"] = f"""
SELECT (epoch_us(ts) // {WINDOW_WIDTH_S * 1_000_000}
        * {WINDOW_WIDTH_S * 1_000_000})::BIGINT AS window_start_us,
       {_R4.format(expr="quantile_disc(value, 0.5)")} AS q5,
       {_R4.format(expr="quantile_disc(value, 0.95)")} AS q95
FROM events GROUP BY 1
"""

ORACLE_SQL["source_temperature_mix"] = f"""
WITH cnt AS (SELECT lang, count(*)::BIGINT AS n
             FROM documents GROUP BY lang),
mnc AS (SELECT min(n)::DOUBLE AS mn FROM cnt),
rate AS (SELECT lang,
                floor(sqrt(mnc.mn / n::DOUBLE) * {MIX_BUCKETS})::BIGINT
                  AS r
         FROM cnt CROSS JOIN mnc)
SELECT d.doc_id, d.lang
FROM documents d JOIN rate USING (lang)
WHERE (md5_number_lower(d.text) % {MIX_BUCKETS}) < rate.r
"""

ORACLE_SQL["group_hash_split"] = """
SELECT doc_id,
  (md5_number_lower(source) % 10000)::BIGINT AS bucket,
  CASE WHEN (md5_number_lower(source) % 10000) < 8000 THEN 'train'
       WHEN (md5_number_lower(source) % 10000) < 9000 THEN 'valid'
       ELSE 'test' END AS split
FROM documents
"""


SPLIT_LEAK_N = 3


def q_split_leakage(sf_dir: str):
    """Train/test LEAKAGE measurement — the check behind "dedup the
    test set against train": per TEST document (leakage-safe
    source-hash split), the count and fraction of its trigram
    occurrences whose gram also appears in ≥1 TRAIN document.  Same
    hash-sort plan as the dup-passage family with a probe/reference
    asymmetry; the only data-sized exchange is the uint64 gram-hash
    sort."""
    from ..functions.hashing import md5_low64_batch
    from ..stages.dedup import cross_split_gram_stats

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "source"])

    def assign(t: pa.Table) -> pa.Table:
        src = t["source"]
        src = src.combine_chunks() if isinstance(src, pa.ChunkedArray) \
            else src
        b = (md5_low64_batch(src.to_pylist())
             % np.uint64(10_000)).astype(np.int64)
        names = np.asarray(["train", "valid", "test"], dtype=object)
        idx = np.searchsorted(np.array([8000, 9000]), b, side="right")
        return pa.table({
            "doc_id": t["doc_id"],
            "text": t["text"],
            "split": pa.array(names[idx].tolist(), pa.string()),
        })

    ds = docs.map_batches(assign, batch_format="pyarrow")
    out = cross_split_gram_stats(ds, n=SPLIT_LEAK_N)

    fix = shape(pa.schema({"doc_id": pa.int64(), "n_grams": pa.int64(),
                           "n_leaked": pa.int64(), "leak_frac": pa.float64()}),
                r4=["leak_frac"])
    return out.map_batches(fix, batch_format="pyarrow")


QUERIES["split_leakage"] = q_split_leakage

ORACLE_SQL["split_leakage"] = f"""
WITH {_TOK_CTE},
sp AS (SELECT doc_id,
              CASE WHEN (md5_number_lower(source) % 10000) < 8000
                     THEN 'train'
                   WHEN (md5_number_lower(source) % 10000) < 9000
                     THEN 'valid'
                   ELSE 'test' END AS split
       FROM documents),
g AS (
  SELECT t.doc_id, sp.split,
         md5_number_lower(t.toks[p] || ' ' || t.toks[p+1] || ' ' ||
                          t.toks[p+2]) AS h
  FROM (SELECT doc_id, toks,
               unnest(generate_series(1, len(toks)-2)) AS p
        FROM tok WHERE len(toks) >= {SPLIT_LEAK_N}) t
  JOIN sp USING (doc_id)
  WHERE sp.split IN ('train', 'test')),
refh AS (SELECT DISTINCT h FROM g WHERE split = 'train'),
te AS (SELECT doc_id, h FROM g WHERE split = 'test'),
lk AS (SELECT doc_id, count(*)::BIGINT AS n_leaked FROM te
       WHERE h IN (SELECT h FROM refh) GROUP BY doc_id),
tot AS (SELECT doc_id, count(*)::BIGINT AS n_grams FROM te
        GROUP BY doc_id)
SELECT d.doc_id,
       coalesce(tot.n_grams, 0)::BIGINT AS n_grams,
       coalesce(lk.n_leaked, 0)::BIGINT AS n_leaked,
       {_R4.format(expr="CASE WHEN coalesce(tot.n_grams, 0) = 0 THEN 0.0 "
                        "ELSE coalesce(lk.n_leaked, 0) / tot.n_grams END")}
         AS leak_frac
FROM (SELECT doc_id FROM sp WHERE split = 'test') d
LEFT JOIN tot USING (doc_id) LEFT JOIN lk USING (doc_id)
"""


DOC_SIM_DF_FRAC = 0.2


def q_doc_sim_pairs(sf_dir: str):
    """Sparse TF-IDF cosine all-pairs similarity (Bayardo et al. 2007)
    restricted to rare terms (df <= 20% of the corpus) — the
    inverted-index-native near-dup detector: candidate pairs come from
    the rare-term posting lists (one int64 term sort, runs bounded by
    the df cap), never an all-pairs scan; per-doc L2 norms run over the
    FULL vocabulary.  Output: every unordered pair sharing >= 1 rare
    term with its partial cosine."""
    from ..stages.sparse_sim import tfidf_doc_pairs

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = tfidf_doc_pairs(docs, df_frac=DOC_SIM_DF_FRAC)

    fix = shape(pa.schema({"a": pa.int64(), "b": pa.int64(), "n_shared": pa.int64(),
                           "sim": pa.float64()}), r4=["sim"])
    return out.map_batches(fix, batch_format="pyarrow")


QUERIES["doc_sim_pairs"] = q_doc_sim_pairs

ORACLE_SQL["doc_sim_pairs"] = f"""
WITH {_TOK_CTE},
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf
       FROM (SELECT doc_id, unnest(toks) AS term FROM tok)
       GROUP BY doc_id, term),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
nn AS (SELECT count(*)::DOUBLE AS n FROM documents),
w AS (SELECT tf.doc_id, tf.term,
             tf.tf * ln((SELECT n FROM nn) / df.df) AS w, df.df AS df
      FROM tf JOIN df USING (term)),
nrm AS (SELECT doc_id, sqrt(sum(w * w)) AS nrm FROM w GROUP BY doc_id),
r AS (SELECT w.doc_id, w.term, w.w / nrm.nrm AS wn
      FROM w JOIN nrm USING (doc_id)
      WHERE w.df <= floor({DOC_SIM_DF_FRAC} * (SELECT n FROM nn))),
p AS (SELECT x.doc_id AS a, y.doc_id AS b,
             count(*)::BIGINT AS n_shared, sum(x.wn * y.wn) AS s
      FROM r x JOIN r y ON x.term = y.term AND x.doc_id < y.doc_id
      GROUP BY x.doc_id, y.doc_id)
SELECT a, b, n_shared, {_R4.format(expr="s")} AS sim FROM p
"""


QUANT_BITS = 8


def q_embedding_quantized(sf_dir: str):
    """SQ8 scalar quantization of the embedding column (the FAISS
    ScalarQuantizer scheme): global per-dimension (min, max) via
    d-sized tree-combined partials, (mn, scale) broadcast once, one
    fused floor/clip map per batch — exploded to (vec_id, dim, q)
    rows whose integer codes the oracle replays exactly (every step
    is order-independent IEEE float64)."""
    from ..stages.quantize import embedding_minmax, quantize_embeddings

    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    mn, mx = embedding_minmax(emb)
    out = quantize_embeddings(emb, mn, mx, bits=QUANT_BITS)

    def explode(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if t.num_rows == 0:
            return pa.schema({"vec_id": pa.int64(),
                              "dim": pa.int64(),
                              "q": pa.int64()}).empty_table()
        col = t["q"].combine_chunks() if isinstance(t["q"], pa.ChunkedArray) \
            else t["q"]
        parents = pc.list_parent_indices(col).to_numpy(zero_copy_only=False)
        offs = col.offsets.to_numpy(zero_copy_only=False)
        dims = np.arange(len(parents), dtype=np.int64) - offs[parents] + 1
        ids = _non_null_numpy(t, "vec_id").astype(np.int64)
        return pa.table({"vec_id": pa.array(ids[parents]),
                         "dim": pa.array(dims),
                         "q": col.values})

    return out.map_batches(explode, batch_format="pyarrow")


def q_ann_quantized_topk(sf_dir: str):
    """Asymmetric quantized ANN: full-precision queries scored against
    the SQ8-dequantized store (mn + q*scale), top-k per query — the
    4x-memory-compression serving path; same broadcast + tree-merge
    shape as the float brute-force baseline."""
    from ..stages.quantize import ann_quantized_topk

    ds, qm = _ann_inputs(sf_dir)
    out = ann_quantized_topk(ds, qm, k=ANN_K, bits=QUANT_BITS)
    return out.drop_columns(["rank"]).map_batches(_ann_fix,
                                                  batch_format="pyarrow")


QUERIES["embedding_quantized"] = q_embedding_quantized
QUERIES["ann_quantized_topk"] = q_ann_quantized_topk

_QUANT_LEVELS = 2 ** QUANT_BITS - 1

_QUANT_CTE = f"""
e AS (SELECT vec_id, embedding::DOUBLE[] AS v FROM embeddings),
x AS (SELECT vec_id, generate_subscripts(v, 1) AS dim, unnest(v) AS val
      FROM e),
mm AS (SELECT dim, min(val) AS mn, max(val) AS mx FROM x GROUP BY dim),
sc AS (SELECT dim, mn, (mx - mn) / {_QUANT_LEVELS}.0 AS scale FROM mm),
qc AS (SELECT x.vec_id, x.dim,
              CASE WHEN sc.scale = 0 THEN 0
                   ELSE least(greatest(floor((x.val - sc.mn) / sc.scale),
                                       0), {_QUANT_LEVELS})
              END AS q,
              sc.mn, sc.scale
       FROM x JOIN sc USING (dim))
"""

ORACLE_SQL["embedding_quantized"] = f"""
WITH {_QUANT_CTE}
SELECT vec_id, dim::BIGINT AS dim, q::BIGINT AS q FROM qc
"""

ORACLE_SQL["ann_quantized_topk"] = f"""
WITH {_QUANT_CTE},
dq AS (SELECT vec_id, dim, mn + q * scale AS dv FROM qc),
nv AS (SELECT vec_id, sqrt(sum(dv * dv)) AS nrm FROM dq GROUP BY vec_id),
qx AS (SELECT vec_id AS query_id, dim, val FROM x
       WHERE vec_id < {ANN_QUERY_IDS}),
nq AS (SELECT query_id, sqrt(sum(val * val)) AS nrm FROM qx
       GROUP BY query_id),
s AS (SELECT qx.query_id, dq.vec_id, sum(qx.val * dq.dv) AS dot
      FROM qx JOIN dq USING (dim) GROUP BY qx.query_id, dq.vec_id),
sim AS (SELECT s.query_id, s.vec_id,
               CASE WHEN nv.nrm = 0 OR nq.nrm = 0 THEN 0
                    ELSE s.dot / (nv.nrm * nq.nrm) END AS sim
        FROM s JOIN nv ON nv.vec_id = s.vec_id
               JOIN nq ON nq.query_id = s.query_id),
r AS (SELECT query_id, vec_id, sim,
             row_number() OVER (PARTITION BY query_id
                                ORDER BY sim DESC, vec_id) AS rn
      FROM sim)
SELECT query_id, vec_id, {_R4.format(expr="sim")} AS score
FROM r WHERE rn <= {ANN_K}
"""


def q_events_props_k(sf_dir: str):
    """Typed JSON field extraction from the semi-structured ``props``
    column (flat machine-written objects -> RE2 field-anchored
    extract, a pure vectorized map), then a grouped reduction over the
    extracted value — the standard first step of event-log ETL.
    Output: per event_type (n, sum_k, avg_k) plus the per-row k spot
    check via min/max."""
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.semistructured import json_int_field

    ev = read_table(sf_dir, "events", columns=["event_id", "event_type", "props"])
    ext = json_int_field(ev, field="k").select_columns(
        ["event_type", "k"])
    agg = sorted_groupby_agg(
        ext.map_batches(
            lambda t: t.append_column(
                "one", pa.array(np.ones(t.num_rows, np.int64))),
            batch_format="pyarrow"),
        ["event_type"],
        [("one", "sum", "n"), ("k", "sum", "sum_k"),
         ("k", "min", "min_k"), ("k", "max", "max_k")])

    def fin(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if t.num_rows == 0:
            return pa.schema({"event_type": pa.string(),
                              "n": pa.int64(),
                              "sum_k": pa.int64(),
                              "min_k": pa.int64(),
                              "max_k": pa.int64(),
                              "avg_k": pa.float64()}).empty_table()
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        s = t["sum_k"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "event_type": t["event_type"],
            "n": pc.cast(t["n"], pa.int64()),
            "sum_k": pc.cast(t["sum_k"], pa.int64()),
            "min_k": pc.cast(t["min_k"], pa.int64()),
            "max_k": pc.cast(t["max_k"], pa.int64()),
            "avg_k": pa.array(_r4(s / n)),
        })

    return agg.map_batches(fin, batch_format="pyarrow")


QUERIES["events_props_k"] = q_events_props_k

ORACLE_SQL["events_props_k"] = f"""
WITH x AS (SELECT event_type,
                  json_extract(props, '$.k')::BIGINT AS k
           FROM events)
SELECT event_type, count(*)::BIGINT AS n, sum(k)::BIGINT AS sum_k,
       min(k)::BIGINT AS min_k, max(k)::BIGINT AS max_k,
       {_R4.format(expr="sum(k)::DOUBLE / count(*)")} AS avg_k
FROM x GROUP BY event_type
"""


TREND_TOPK = 3


def q_window_top_props(sf_dir: str):
    """Trending values per time window, by pure composition: JSON
    field extraction (pure map) -> tumbling-bucket assignment (pure
    map) -> grouped count (batch-combined partials) -> topk_per_group
    (local top-k prefilter, output-shaped shuffle).  The per-window
    'what is hot right now' report every event pipeline runs."""
    from ..stages.aggregates import sorted_groupby_agg, topk_per_group
    from ..stages.semistructured import json_int_field
    from ..stages.windows import _ts_us

    w = WINDOW_WIDTH_S * 1_000_000
    ev = read_table(sf_dir, "events", columns=["ts", "props"])

    def bucket(t: pa.Table) -> pa.Table:
        us = _ts_us(t, "ts")
        k = t["k"]
        return pa.table({
            "window_start_us": pa.array((us // w) * w),
            "k": k,
            "one": pa.array(np.ones(t.num_rows, np.int64)),
        })

    ds = json_int_field(ev, field="k").map_batches(
        bucket, batch_format="pyarrow")
    counts = sorted_groupby_agg(
        ds, ["window_start_us", "k"], [("one", "sum", "n")],
        in_schema=pa.schema([("window_start_us", pa.int64()),
                             ("k", pa.int64()), ("one", pa.int64())]))
    top = topk_per_group(
        counts, ["window_start_us"], "n", TREND_TOPK, descending=True,
        tiebreak="k",
        in_schema=pa.schema([("window_start_us", pa.int64()),
                             ("k", pa.int64()), ("n", pa.int64())]))

    fix = shape(pa.schema({"window_start_us": pa.int64(), "k": pa.int64(),
                           "n": pa.int64()}))
    return top.map_batches(fix, batch_format="pyarrow")


QUERIES["window_top_props"] = q_window_top_props

ORACLE_SQL["window_top_props"] = f"""
WITH x AS (SELECT (epoch_us(ts) // {WINDOW_WIDTH_S * 1_000_000}
                   * {WINDOW_WIDTH_S * 1_000_000})::BIGINT
             AS window_start_us,
                  json_extract(props, '$.k')::BIGINT AS k
           FROM events),
c AS (SELECT window_start_us, k, count(*)::BIGINT AS n FROM x
      GROUP BY window_start_us, k),
r AS (SELECT window_start_us, k, n,
             row_number() OVER (PARTITION BY window_start_us
                                ORDER BY n DESC, k) AS rn
      FROM c)
SELECT window_start_us, k, n FROM r WHERE rn <= {TREND_TOPK}
"""


def q_quality_gate(sf_dir: str):
    """Composite Gopher/C4-style quality gate: five integer-arithmetic
    rules (token range, stopword floor, mean-token-length band,
    distinct-term ratio, duplicate-bigram fraction) in ONE tokenize
    pass per batch, reported as a reasons bitmask + keep flag — the
    filter battery refined-web curation actually runs, with no float
    threshold boundary anywhere."""
    from ..stages.textstats import quality_gate_batch

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def fix(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        out = quality_gate_batch(t)
        return pa.table({
            "doc_id": pc.cast(out["doc_id"], pa.int64()),
            "reasons": pc.cast(out["reasons"], pa.int64()),
            "keep": out["keep"],
        })

    return docs.map_batches(fix, batch_format="pyarrow")


QUERIES["quality_gate"] = q_quality_gate

ORACLE_SQL["quality_gate"] = f"""
WITH {_BASE_CTE},
sig AS (
  SELECT doc_id,
         len(toks)::BIGINT AS n_tokens,
         (len(toks) - len(terms))::BIGINT AS n_stop,
         len(terms)::BIGINT AS n_terms,
         coalesce(list_sum(list_transform(toks, x -> length(x))), 0)::BIGINT
           AS len_sum,
         len(list_distinct(terms))::BIGINT AS n_uniq
  FROM base),
g AS (
  SELECT doc_id, toks[p] || ' ' || toks[p+1] AS gram
  FROM (SELECT doc_id, toks,
               unnest(generate_series(1, len(toks)-1)) AS p
        FROM tok WHERE len(toks) >= 2)),
cnt AS (SELECT doc_id, gram, count(*) AS c FROM g GROUP BY 1, 2),
rep AS (SELECT doc_id,
               sum(CASE WHEN c > 1 THEN c ELSE 0 END)::BIGINT AS dup,
               sum(c)::BIGINT AS tot
        FROM cnt GROUP BY doc_id),
r AS (
  SELECT s.doc_id,
         (CASE WHEN s.n_tokens < 16 OR s.n_tokens > 96
               THEN 1 ELSE 0 END
          + CASE WHEN s.n_stop * 25 < s.n_tokens THEN 2 ELSE 0 END
          + CASE WHEN s.len_sum * 10 < 42 * s.n_tokens
                   OR s.len_sum * 10 > 48 * s.n_tokens
               THEN 4 ELSE 0 END
          + CASE WHEN s.n_uniq * 5 < 2 * greatest(s.n_terms, 1)
               THEN 8 ELSE 0 END
          + CASE WHEN coalesce(rep.dup, 0) * 10 >= coalesce(rep.tot, 0)
                   AND coalesce(rep.tot, 0) > 0
               THEN 16 ELSE 0 END)::BIGINT AS reasons
  FROM sig s LEFT JOIN rep USING (doc_id))
SELECT doc_id, reasons, reasons = 0 AS keep FROM r
"""


INCR_NEW_MOD, INCR_NEW_RES = 5, 4
INCR_THRESHOLD = 0.8


def q_dedup_incremental(sf_dir: str):
    """Incremental near-dedup — 'dedup the new crawl against the
    existing corpus': docs with doc_id % 5 == 4 are the NEW probe
    split; old×old candidate pairs are filtered out BEFORE the
    exact-Jaccard verification join (the bulk of the candidate set at
    steady state), and only new docs can be dropped, under the
    conservative any-match rule (any old partner, or any smaller-id
    new partner).  Output: (doc_id, n_matches) per dropped new doc."""
    from ..stages.dedup import incremental_dedup_drops

    out = incremental_dedup_drops(
        read_table(sf_dir, "documents"),
        new_pred=lambda ids: (ids % INCR_NEW_MOD) == INCR_NEW_RES,
        threshold=INCR_THRESHOLD)

    fix = shape(pa.schema({"doc_id": pa.int64(), "n_matches": pa.int64()}))
    return out.map_batches(fix, batch_format="pyarrow")


QUERIES["dedup_incremental"] = q_dedup_incremental

# Threshold parity note: the engine compares the RAW integer-ratio
# jaccard, the oracle the 4dp-rounded one — equivalent unless a ratio
# lands in [thr - 5e-5, thr), impossible here (docs have <= ~200
# distinct shingles, so adjacent ratios differ by >= ~1/200).
ORACLE_SQL["dedup_incremental"] = f"""
WITH p AS ({_dedup_near_jaccard_sql()}),
q AS (SELECT a, b FROM p
      WHERE jaccard >= {INCR_THRESHOLD}
        AND (a % {INCR_NEW_MOD} = {INCR_NEW_RES}
             OR b % {INCR_NEW_MOD} = {INCR_NEW_RES})),
d AS (SELECT b AS doc_id FROM q WHERE b % {INCR_NEW_MOD} = {INCR_NEW_RES}
      UNION ALL
      SELECT a FROM q WHERE a % {INCR_NEW_MOD} = {INCR_NEW_RES}
        AND b % {INCR_NEW_MOD} <> {INCR_NEW_RES})
SELECT doc_id, count(*)::BIGINT AS n_matches FROM d GROUP BY doc_id
"""


SNIPPET_TERMS = ["spark", "merge"]
SNIPPET_WINDOW = 8


def q_search_snippets(sf_dir: str):
    """Search-result snippet generation: per document containing a
    query term, the 8-token window with the most query-term hits
    (ties: smallest start) plus the hit count — the highlighting step
    of a serving stack, as ONE vectorized pure map (the optimum window
    starts at a hit, so one searchsorted per batch scores every
    candidate)."""
    from ..stages.textstats import best_window_snippets

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = best_window_snippets(docs, SNIPPET_TERMS,
                               window=SNIPPET_WINDOW)

    fix = shape(pa.schema({"doc_id": pa.int64(), "start": pa.int64(),
                           "n_hits": pa.int64(), "snippet": pa.string()}))
    return out.map_batches(fix, batch_format="pyarrow")


QUERIES["search_snippets"] = q_search_snippets

_SNIP_IN = "(" + ", ".join(f"'{w}'" for w in sorted(set(SNIPPET_TERMS))) + ")"

ORACLE_SQL["search_snippets"] = f"""
WITH {_TOK_CTE},
pos AS (SELECT doc_id, toks,
               unnest(generate_series(1, len(toks))) AS p
        FROM tok),
hits AS (SELECT doc_id, p FROM pos WHERE toks[p] IN {_SNIP_IN}),
wc AS (SELECT doc_id, p,
              count(*) OVER (PARTITION BY doc_id ORDER BY p
                             RANGE BETWEEN CURRENT ROW
                             AND {SNIPPET_WINDOW - 1} FOLLOWING) AS c
       FROM hits),
best AS (SELECT doc_id, p, c,
                row_number() OVER (PARTITION BY doc_id
                                   ORDER BY c DESC, p) AS rn
         FROM wc)
SELECT b.doc_id, (b.p - 1)::BIGINT AS start, b.c::BIGINT AS n_hits,
       array_to_string(list_slice(t.toks, b.p,
                                  least(b.p + {SNIPPET_WINDOW} - 1,
                                        len(t.toks))), ' ') AS snippet
FROM best b JOIN tok t USING (doc_id) WHERE b.rn = 1
"""


def q_bm25_topk_snippets(sf_dir: str):
    """The full serving composition: distributed BM25 top-k with
    scatter-side hydration, then best-window snippet highlighting of
    the winners (token-level match on the raw punctuation-tokenized
    stream).  Winner set is k-sized by contract, so the snippet pass
    and the score merge are output-shaped."""
    import ray.data as rd

    from ..stages.textstats import best_window_snippets

    winners = q_bm25_topk_hydrated(sf_dir)      # (doc_id, score, text)
    snip = best_window_snippets(
        rd.from_arrow(winners), BM25_TERMS,
        window=SNIPPET_WINDOW).take_all()       # k-sized
    by_id = {r["doc_id"]: r for r in snip}
    ids = winners["doc_id"].to_pylist()
    keep = [i for i in ids if i in by_id]
    return pa.table({
        "doc_id": pa.array(keep, pa.int64()),
        "score": pa.array(
            [winners["score"][ids.index(i)].as_py() for i in keep]),
        "start": pa.array([by_id[i]["start"] for i in keep], pa.int64()),
        "n_hits": pa.array([by_id[i]["n_hits"] for i in keep],
                           pa.int64()),
        "snippet": pa.array([by_id[i]["snippet"] for i in keep],
                            pa.string()),
    })


QUERIES["bm25_topk_snippets"] = q_bm25_topk_snippets

_BM25_SNIP_IN = "(" + ", ".join(f"'{w}'" for w in sorted(set(BM25_TERMS))) + ")"

ORACLE_SQL["bm25_topk_snippets"] = f"""
WITH {_TOK_CTE.replace("tok AS", "stok AS", 1)},
w AS ({_bm25_sql(BM25_TERMS, TOPK)}),
swin AS (SELECT t.doc_id, t.toks
         FROM stok t JOIN w ON w.doc_id = t.doc_id),
spos AS (SELECT doc_id, toks,
                unnest(generate_series(1, len(toks))) AS p
         FROM swin),
shits AS (SELECT doc_id, p FROM spos WHERE toks[p] IN {_BM25_SNIP_IN}),
swc AS (SELECT doc_id, p,
               count(*) OVER (PARTITION BY doc_id ORDER BY p
                              RANGE BETWEEN CURRENT ROW
                              AND {SNIPPET_WINDOW - 1} FOLLOWING) AS c
        FROM shits),
sbest AS (SELECT doc_id, p, c,
                 row_number() OVER (PARTITION BY doc_id
                                    ORDER BY c DESC, p) AS rn
          FROM swc)
SELECT b.doc_id, w.score, (b.p - 1)::BIGINT AS start,
       b.c::BIGINT AS n_hits,
       array_to_string(list_slice(t.toks, b.p,
                                  least(b.p + {SNIPPET_WINDOW} - 1,
                                        len(t.toks))), ' ') AS snippet
FROM sbest b JOIN stok t USING (doc_id) JOIN w USING (doc_id)
WHERE b.rn = 1
"""


def q_event_transitions(sf_dir: str):
    """Markov transition-count matrix over per-user event sequences:
    LAG(event_type) within user by (ts, event_id) — the type-generic
    Arrow-take shift — then one grouped count over (prev, next).  The
    empirical transition model every sessionized-behavior analysis
    starts from."""
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.scan import lag_column

    ev = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"])
    lagged = lag_column(ev, value_col="event_type",
                        order_by=["ts", "event_id"], key_col="user_id",
                        out_col="prev_type")

    def pairs(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        empty = pa.schema({"prev_type": pa.string(),
                           "event_type": pa.string(),
                           "one": pa.int64()}).empty_table()
        if t.num_rows == 0 or "prev_type" not in t.column_names:
            return empty
        keep = pc.is_valid(t["prev_type"])
        f = t.filter(keep)
        return pa.table({
            "prev_type": pc.cast(f["prev_type"], pa.string()),
            "event_type": pc.cast(f["event_type"], pa.string()),
            "one": pa.array(np.ones(f.num_rows, np.int64)),
        })

    agg = sorted_groupby_agg(
        lagged.map_batches(pairs, batch_size=None,
                           batch_format="pyarrow"),
        ["prev_type", "event_type"], [("one", "sum", "n")],
        in_schema=pa.schema([("prev_type", pa.string()),
                             ("event_type", pa.string()),
                             ("one", pa.int64())]))

    fix = shape(pa.schema({"prev_type": pa.string(), "event_type": pa.string(),
                           "n": pa.int64()}))
    return agg.map_batches(fix, batch_format="pyarrow")


QUERIES["event_transitions"] = q_event_transitions

ORACLE_SQL["event_transitions"] = """
WITH x AS (SELECT event_type,
                  lag(event_type) OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id) AS prev_type
           FROM events)
SELECT prev_type, event_type, count(*)::BIGINT AS n
FROM x WHERE prev_type IS NOT NULL GROUP BY prev_type, event_type
"""


FUNNEL_STEPS = ["view", "click", "purchase"]


def q_funnel_vcp(sf_dir: str):
    """Ordered funnel (view -> click -> purchase): per user the
    greedy-earliest completion depth and the completing step's
    timestamp — k chained type-filtered grouped MINs joined user-sized
    (never event-sized), assembled by one encoded grouped max."""
    from ..stages.windows import funnel_depths

    ev = read_table(sf_dir, "events", columns=["ts", "user_id", "event_type"])
    out = funnel_depths(ev, FUNNEL_STEPS)

    fix = shape(pa.schema({"user_id": pa.int64(), "depth": pa.int64(),
                           "last_ts_us": pa.int64()}))
    return out.map_batches(fix, batch_format="pyarrow")


QUERIES["funnel_vcp"] = q_funnel_vcp

ORACLE_SQL["funnel_vcp"] = f"""
WITH f1 AS (SELECT user_id, min(epoch_us(ts)) AS t FROM events
            WHERE event_type = '{FUNNEL_STEPS[0]}' GROUP BY user_id),
f2 AS (SELECT e.user_id, min(epoch_us(e.ts)) AS t FROM events e
       JOIN f1 ON f1.user_id = e.user_id
       WHERE e.event_type = '{FUNNEL_STEPS[1]}'
         AND epoch_us(e.ts) > f1.t
       GROUP BY e.user_id),
f3 AS (SELECT e.user_id, min(epoch_us(e.ts)) AS t FROM events e
       JOIN f2 ON f2.user_id = e.user_id
       WHERE e.event_type = '{FUNNEL_STEPS[2]}'
         AND epoch_us(e.ts) > f2.t
       GROUP BY e.user_id),
u AS (SELECT user_id, 1 AS d, t FROM f1
      UNION ALL SELECT user_id, 2, t FROM f2
      UNION ALL SELECT user_id, 3, t FROM f3),
m AS (SELECT user_id, max(d * (1::BIGINT << 52) + t) AS v FROM u
      GROUP BY user_id)
SELECT user_id, (v >> 52)::BIGINT AS depth,
       (v & ((1::BIGINT << 52) - 1))::BIGINT AS last_ts_us
FROM m
"""


def q_fuzzy_name_pairs(sf_dir: str):
    """Fuzzy string similarity join (edit distance <= 1) over customer
    names via SymSpell deletion neighborhoods: the join key set of a
    name is itself plus its single-deletion strings (max_len + 1
    vectorized Arrow passes — never an all-pairs scan), one variant
    sort groups candidates, a pair-sort dedupe, then the exact
    edit-distance check on the output-shaped candidate set only."""
    from ..stages.fuzzy import fuzzy_pairs_edit1

    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_name"])
    out = fuzzy_pairs_edit1(cust, name_col="c_name", id_col="c_custkey")

    fix = shape(pa.schema({"a": pa.int64(), "b": pa.int64(), "name_a": pa.string(),
                           "name_b": pa.string(), "dist": pa.int64()}))
    return out.map_batches(fix, batch_format="pyarrow")


QUERIES["fuzzy_name_pairs"] = q_fuzzy_name_pairs

ORACLE_SQL["fuzzy_name_pairs"] = """
WITH v AS (
  SELECT c_custkey AS id, c_name AS nm, c_name AS vv FROM customer
  UNION ALL
  SELECT c_custkey, c_name,
         substr(c_name, 1, i - 1) || substr(c_name, i + 1)
  FROM customer,
       LATERAL (SELECT unnest(generate_series(1, length(c_name))) AS i)
),
dv AS (SELECT DISTINCT id, nm, vv FROM v),
m AS (SELECT id, nm, vv,
             row_number() OVER (PARTITION BY vv ORDER BY id) AS rn
      FROM dv),
cand AS (SELECT DISTINCT x.id AS a, y.id AS b,
                x.nm AS name_a, y.nm AS name_b
         FROM m x JOIN m y ON x.vv = y.vv AND x.id < y.id
         WHERE x.rn <= 200 AND y.rn <= 200)
SELECT a, b, name_a, name_b,
       levenshtein(name_a, name_b)::BIGINT AS dist
FROM cand WHERE levenshtein(name_a, name_b) <= 1
"""


PPR_SEED_MOD = 10


def _ppr_sql(iterations: int = 100, damping: float = 0.85,
             seed_mod: int = PPR_SEED_MOD) -> str:
    """Fully-unrolled personalized PageRank over the same synthetic
    doc-id link graph as q_pagerank: teleport mass lands only on the
    seed set (node % seed_mod == 0), iteration
    (1-d)*p_i + d*sum starting from p."""
    base = 1.0 - damping
    its = []
    prev = "s0"
    for i in range(1, iterations + 1):
        cur = f"s{i}"
        its.append(
            f"""{cur} AS MATERIALIZED (
  SELECT n.node, {base} * n.p + {damping} * coalesce(c.s, 0) AS score
  FROM pnodes n LEFT JOIN (
    SELECT e.dst AS node, sum({prev}.score / deg.outdeg) AS s
    FROM edges e JOIN {prev} ON {prev}.node = e.src
                 JOIN deg ON deg.node = e.src
    GROUP BY e.dst
  ) c ON c.node = n.node
)"""
        )
        prev = cur
    return f"""
WITH m AS (SELECT count(*)::BIGINT AS n FROM documents),
nodes AS MATERIALIZED (SELECT unnest(range((SELECT n FROM m)))::BIGINT AS node),
pnodes AS MATERIALIZED (
  SELECT node, CASE WHEN node % {seed_mod} = 0 THEN 1.0::DOUBLE
               ELSE 0.0::DOUBLE END AS p
  FROM nodes),
e0 AS (
  SELECT node AS src, (7 * node + 3) % (SELECT n FROM m) AS dst FROM nodes
  UNION ALL
  SELECT node, (13 * node + 5) % (SELECT n FROM m) FROM nodes
),
edges AS MATERIALIZED (SELECT src, dst FROM e0 WHERE src <> dst),
deg AS MATERIALIZED (SELECT src AS node, count(*)::DOUBLE AS outdeg FROM edges GROUP BY src),
s0 AS (SELECT node, p AS score FROM pnodes),
{",".join(its)}
SELECT node, {_R4.format(expr="score")} AS score FROM {prev} ORDER BY node
"""


def q_pagerank_personalized(sf_dir: str):
    """Personalized PageRank (teleport to a seed set — the
    query-biased / trust-seeded ranking variant): same synthetic
    doc-id link graph as q_pagerank, teleport weights 1.0 on
    node % 10 == 0 and 0 elsewhere, reference-exact arithmetic
    (1-d)*p + d*sum starting from p."""
    import pyarrow.parquet as pq

    from .pagerank import pagerank_numpy

    n = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    i = np.arange(n, dtype=np.int64)
    src = np.r_[i, i]
    dst = np.r_[(7 * i + 3) % n, (13 * i + 5) % n]
    keep = src != dst
    personal = (i % PPR_SEED_MOD == 0).astype(np.float64)
    scores = pagerank_numpy(src[keep], dst[keep], n,
                            personalization=personal)
    return pa.table({"node": pa.array(i), "score": pa.array(_r4(scores))})


QUERIES["pagerank_personalized"] = q_pagerank_personalized
ORACLE_SQL["pagerank_personalized"] = _ppr_sql()


def _dedup_containment_sql(rows: int = 4, max_bucket: int = 200) -> str:
    """Same candidate CTEs as dedup_near_jaccard, reporting per-side
    distinct-shingle sizes, the intersection, Jaccard AND containment
    = i / min(|A|, |B|) (empty-min convention: 1.0 — the empty set is
    a subset of everything, matching the engine's contract)."""
    poly = _poly_list([f"sigs[{r + 1}]" for r in range(rows)])
    jac = ("CASE WHEN coalesce(za.n, 0) + coalesce(zb.n, 0) "
           "- coalesce(i.i, 0) = 0 THEN 1.0 "
           "ELSE coalesce(i.i, 0)::DOUBLE / "
           "(coalesce(za.n, 0) + coalesce(zb.n, 0) - coalesce(i.i, 0)) "
           "END")
    cont = ("CASE WHEN least(coalesce(za.n, 0), coalesce(zb.n, 0)) = 0 "
            "THEN 1.0 ELSE coalesce(i.i, 0)::DOUBLE / "
            "least(coalesce(za.n, 0), coalesce(zb.n, 0)) END")
    return f"""
WITH {_minhash_sig_ctes()},
bs AS (
  SELECT doc_id, p // {rows} AS band, list(sig_u ORDER BY p) AS sigs
  FROM sig GROUP BY doc_id, p // {rows}
),
bh AS (SELECT doc_id, band, {poly} AS bhash FROM bs),
mem AS (
  SELECT band, bhash, doc_id,
         row_number() OVER (PARTITION BY band, bhash ORDER BY doc_id) AS rn
  FROM (SELECT DISTINCT band, bhash, doc_id FROM bh)
),
cand AS (
  SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
  FROM mem x JOIN mem y
    ON x.band = y.band AND x.bhash = y.bhash AND x.doc_id < y.doc_id
  WHERE x.rn <= {max_bucket} AND y.rn <= {max_bucket}
),
dsh AS (SELECT DISTINCT doc_id, s FROM shingles),
sz AS (SELECT doc_id, count(*)::BIGINT AS n FROM dsh GROUP BY doc_id),
inter AS (
  SELECT c.a, c.b, count(*)::BIGINT AS i
  FROM cand c
  JOIN dsh x ON x.doc_id = c.a
  JOIN dsh y ON y.doc_id = c.b AND y.s = x.s
  GROUP BY c.a, c.b
)
SELECT c.a, c.b,
       coalesce(za.n, 0)::BIGINT AS size_a,
       coalesce(zb.n, 0)::BIGINT AS size_b,
       coalesce(i.i, 0)::BIGINT AS inter_n,
       {_R4.format(expr=jac)} AS jaccard,
       {_R4.format(expr=cont)} AS containment
FROM cand c
LEFT JOIN sz za ON za.doc_id = c.a
LEFT JOIN sz zb ON zb.doc_id = c.b
LEFT JOIN inter i ON i.a = c.a AND i.b = c.b
"""


def q_dedup_containment(sf_dir: str):
    """Asymmetric near-dup verification: exact k-shingle CONTAINMENT
    (i / min set size — quotes and subset documents score ~1 where
    Jaccard stays low) for the LSH candidate pairs, via the same
    distributed shingle-equality join as the Jaccard verify with one
    side-tag bit so per-side sizes fall out of the same sweep."""
    from ..stages.dedup import (
        minhash_candidate_pairs,
        verify_pairs_containment,
    )

    docs = read_table(sf_dir, "documents")
    pairs, _ = minhash_candidate_pairs(
        docs.select_columns(["doc_id", "text"]))
    out = verify_pairs_containment(docs, pairs)

    fix = shape(pa.schema({"a": pa.int64(), "b": pa.int64(), "size_a": pa.int64(),
                           "size_b": pa.int64(), "inter_n": pa.int64(),
                           "jaccard": pa.float64(), "containment": pa.float64()}),
                r4=["jaccard", "containment"])
    return out.map_batches(fix, batch_format="pyarrow")


QUERIES["dedup_containment"] = q_dedup_containment
ORACLE_SQL["dedup_containment"] = _dedup_containment_sql()


WSAMPLE_N = 100


def q_weighted_sample_n(sf_dir: str):
    """Exact-size weighted sampling WITHOUT replacement (Efraimidis &
    Spirakis A-ES): the 100 docs with the largest content-addressed
    ln(u)/n_chars keys — longer docs proportionally likelier, row
    count exact, re-shard stable; local top-n prefilter bounds the
    exchange at n per batch."""
    from ..stages.sampling import weighted_sample_exact_n

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "n_chars"])
    out = weighted_sample_exact_n(docs, WSAMPLE_N, "n_chars")

    fix = shape(pa.schema({"doc_id": pa.int64(), "n_chars": pa.int64()}))
    return out.map_batches(fix, batch_format="pyarrow")


QUERIES["weighted_sample_n"] = q_weighted_sample_n

ORACLE_SQL["weighted_sample_n"] = f"""
WITH k AS (SELECT doc_id, n_chars,
                  ln((md5_number_lower(text)::DOUBLE + 1)
                     / 18446744073709551616.0)
                  / n_chars::DOUBLE AS key
           FROM documents)
SELECT doc_id, n_chars FROM k ORDER BY key DESC, doc_id
LIMIT {WSAMPLE_N}
"""


RANGE_WIN_S = 7 * 86400          # 7-day trailing frame


def q_rolling_range_user_value(sf_dir: str):
    """Time-based rolling frame (SQL RANGE BETWEEN <interval> PRECEDING
    AND CURRENT ROW) — per user, the trailing-7-day sum and count of
    `value` at every distinct event timestamp, exact at any frame
    population (rows-carry windows can't bound a time frame; this
    resolves the frame start via an as-of lookup against running
    prefix sums — 2 sorts, O(num_blocks) driver scalars)."""
    from ..stages.scan import range_rolling_agg

    ev = read_table(sf_dir, "events", columns=["user_id", "ts", "value"])
    out = range_rolling_agg(ev, key_col="user_id", ts_col="ts",
                            value_col="value", window_s=RANGE_WIN_S)

    fix = shape(pa.schema({"user_id": pa.int64(), "ts_us": pa.int64(),
                           "win_sum": pa.float64(), "win_cnt": pa.int64()}))
    return out.map_batches(fix, batch_format="pyarrow")


QUERIES["rolling_range_user_value"] = q_rolling_range_user_value

ORACLE_SQL["rolling_range_user_value"] = f"""
WITH g AS (SELECT user_id, epoch_us(ts) AS ts_us,
                  sum(value) AS s, count(*)::BIGINT AS c
           FROM events GROUP BY 1, 2)
SELECT user_id, ts_us,
       sum(s) OVER w AS win_sum,
       sum(c) OVER w AS win_cnt
FROM g
WINDOW w AS (PARTITION BY user_id ORDER BY ts_us
             RANGE BETWEEN {RANGE_WIN_S * 1_000_000} PRECEDING
                   AND CURRENT ROW)
"""


EWMA_ALPHA = 0.25                # 1-alpha = 0.75: both exact binary


def q_ewma_user_value(sf_dir: str):
    """Per-user exponential moving average of `value` in (ts,
    event_id) order — the streaming adjust=False recurrence
    y_i = alpha*v_i + (1-alpha)*y_{i-1}, y_1 = v_1.  The engine's
    one-sort affine-carry scan (`ewma_column`) is bit-identical to
    the sequential recurrence within a block and given the carry
    (seeded re-run); the carry STATE is exact-up-to-eps (affine block
    chain), so both sides round 4dp with a 1e-7 boundary shift.  Oracle: a recursive CTE stepping the identical
    three IEEE ops (0.75*acc + 0.25*v) per row; alpha=0.25 so
    alpha + (1-alpha) == 1.0 exactly (pandas' normalizing divide is
    a no-op)."""
    from ..stages.scan import ewma_column

    ev = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"])
    out = ewma_column(ev, value_col="value", order_by=["ts", "event_id"],
                      key_col="user_id", alpha=EWMA_ALPHA, out_col="ewma")

    def fix(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "event_id": pc.cast(t["event_id"], pa.int64()),
            "user_id": pc.cast(t["user_id"], pa.int64()),
            # the 1e-7 shift moves the half-up boundary off the
            # structural value cluster: alpha = 1/4 over cent values
            # makes ewma an exact decimal whose 5th digit is often 5,
            # i.e. EXACTLY on the 4dp boundary, where the engine's
            # eps-level block-edge carry vs the oracle's sequential
            # recurrence flip the rounding nondeterministically (the
            # oracle applies the identical shift)
            "ewma4": pa.array(_r4(t["ewma"].to_numpy(
                zero_copy_only=False) + 1e-7)),
        })

    return out.map_batches(fix, batch_format="pyarrow")


QUERIES["ewma_user_value"] = q_ewma_user_value

ORACLE_SQL["ewma_user_value"] = f"""
WITH RECURSIVE e AS (
  SELECT event_id, user_id, value,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn
  FROM events),
r AS (
  SELECT event_id, user_id, rn, value AS y FROM e WHERE rn = 1
  UNION ALL
  SELECT e.event_id, e.user_id, e.rn,
         {1.0 - EWMA_ALPHA} * r.y + {EWMA_ALPHA} * e.value
  FROM r JOIN e ON e.user_id = r.user_id AND e.rn = r.rn + 1)
SELECT event_id, user_id,
       {_R4.format(expr='(y + 0.0000001)')} AS ewma4
FROM r
"""


def q_triangle_counts(sf_dir: str):
    """Per-node exact triangle counts (degree-oriented wedge join —
    Suri & Vassilvitskii 2011) over a deterministic synthetic graph on
    the doc ids: edges i—(i+1)%N, i—(i+2)%N (every consecutive trio
    closes a triangle) plus the irregular i—(7i+3)%N chord layer.
    Every exchange is a narrow int64 sort bounded by the edge or
    orientation-bounded wedge list; the oracle replays the same graph
    with a three-way DISTINCT-edge self-join."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from ..stages.graph import triangle_counts

    n = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    i = np.arange(n, dtype=np.int64)
    src = np.r_[i, i, i]
    dst = np.r_[(i + 1) % n, (i + 2) % n, (7 * i + 3) % n]
    edges = rd.from_arrow(pa.table({"src": pa.array(src),
                                    "dst": pa.array(dst)}))
    return triangle_counts(edges, partitions=4)


QUERIES["triangle_counts"] = q_triangle_counts

ORACLE_SQL["triangle_counts"] = """
WITH nn AS (SELECT count(*)::BIGINT AS n FROM documents),
r AS (SELECT unnest(range((SELECT n FROM nn)))::BIGINT AS i),
raw AS (
  SELECT i AS s, (i + 1) % (SELECT n FROM nn) AS d FROM r
  UNION ALL SELECT i, (i + 2) % (SELECT n FROM nn) FROM r
  UNION ALL SELECT i, (7 * i + 3) % (SELECT n FROM nn) FROM r),
und AS (SELECT DISTINCT least(s, d) AS u, greatest(s, d) AS v
        FROM raw WHERE s <> d),
tri AS (SELECT e1.u AS x, e1.v AS y, e2.v AS z
        FROM und e1
        JOIN und e2 ON e2.u = e1.v
        JOIN und e3 ON e3.u = e1.u AND e3.v = e2.v),
corners AS (SELECT x AS node FROM tri
            UNION ALL SELECT y FROM tri
            UNION ALL SELECT z FROM tri)
SELECT node, count(*)::BIGINT AS triangles FROM corners GROUP BY node
"""


def q_clustering_coeff(sf_dir: str):
    """Local clustering coefficient per node (deg >= 2) over the same
    deterministic synthetic chord graph as q_triangle_counts — one
    node-keyed LEFT sort-merge join added on top of the triangle plan;
    lcc = 2·tri / (deg·(deg−1)) is two IEEE float64 ops replayed
    verbatim by the oracle, rounded half-up to 4 decimals on BOTH
    sides per the repo convention."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from ..stages.graph import local_clustering

    n = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    i = np.arange(n, dtype=np.int64)
    src = np.r_[i, i, i]
    dst = np.r_[(i + 1) % n, (i + 2) % n, (7 * i + 3) % n]
    edges = rd.from_arrow(pa.table({"src": pa.array(src),
                                    "dst": pa.array(dst)}))

    rnd = shape(pa.schema({"node": pa.int64(), "deg": pa.int64(),
                           "triangles": pa.int64(), "lcc": pa.float64()}), r4=["lcc"])

    return local_clustering(edges, partitions=4).map_batches(
        rnd, batch_format="pyarrow")


QUERIES["clustering_coeff"] = q_clustering_coeff

ORACLE_SQL["clustering_coeff"] = f"""
WITH nn AS (SELECT count(*)::BIGINT AS n FROM documents),
r AS (SELECT unnest(range((SELECT n FROM nn)))::BIGINT AS i),
raw AS (
  SELECT i AS s, (i + 1) % (SELECT n FROM nn) AS d FROM r
  UNION ALL SELECT i, (i + 2) % (SELECT n FROM nn) FROM r
  UNION ALL SELECT i, (7 * i + 3) % (SELECT n FROM nn) FROM r),
und AS (SELECT DISTINCT least(s, d) AS u, greatest(s, d) AS v
        FROM raw WHERE s <> d),
deg AS (SELECT node, count(*)::BIGINT AS deg
        FROM (SELECT u AS node FROM und UNION ALL SELECT v FROM und)
        GROUP BY node),
tri AS (SELECT e1.u AS x, e1.v AS y, e2.v AS z
        FROM und e1
        JOIN und e2 ON e2.u = e1.v
        JOIN und e3 ON e3.u = e1.u AND e3.v = e2.v),
corners AS (SELECT x AS node FROM tri
            UNION ALL SELECT y FROM tri
            UNION ALL SELECT z FROM tri),
tcnt AS (SELECT node, count(*)::BIGINT AS triangles FROM corners
         GROUP BY node)
SELECT d.node, d.deg,
       coalesce(t.triangles, 0)::BIGINT AS triangles,
       {_R4.format(expr='(2.0 * coalesce(t.triangles, 0)) '
                        '/ (d.deg * (d.deg - 1))')} AS lcc
FROM deg d LEFT JOIN tcnt t USING (node)
WHERE d.deg >= 2
"""


COOC_MIN_COUNT = 2
COOC_MAX_USER_ITEMS = 50


def q_item_cooccurrence(sf_dir: str):
    """Item-item co-occurrence (binary-incidence CF, Linden et al.
    2003): items are the props.k JSON field, interactions the events
    rows; power users above COOC_MAX_USER_ITEMS distinct items are
    pruned BEFORE the pair explosion and the marginals count surviving
    users only, so cosine/jaccard stay <= 1.  Both scores are two IEEE
    float64 ops the oracle replays verbatim, rounded half-up to 4
    decimals on BOTH sides."""
    from ..stages.cooccur import cooccurrence_pairs
    from ..stages.semistructured import json_int_field

    ev = read_table(sf_dir, "events", columns=["user_id", "props"])
    ev = json_int_field(ev, field="k", out_col="item")
    pairs = cooccurrence_pairs(ev, min_count=COOC_MIN_COUNT,
                               max_user_items=COOC_MAX_USER_ITEMS,
                               partitions=4)

    rnd = shape(pa.schema({"item_a": pa.int64(), "item_b": pa.int64(),
                           "n_pair": pa.int64(), "n_a": pa.int64(), "n_b": pa.int64(),
                           "cosine": pa.float64(), "jaccard": pa.float64()}),
                r4=["cosine", "jaccard"])
    return pairs.map_batches(rnd, batch_format="pyarrow")


QUERIES["item_cooccurrence"] = q_item_cooccurrence

ORACLE_SQL["item_cooccurrence"] = f"""
WITH ui0 AS (SELECT DISTINCT user_id,
                    json_extract(props, '$.k')::BIGINT AS item
             FROM events
             WHERE user_id IS NOT NULL
               AND json_extract(props, '$.k') IS NOT NULL),
ok_users AS (SELECT user_id FROM ui0 GROUP BY user_id
             HAVING count(*) <= {COOC_MAX_USER_ITEMS}),
ui AS (SELECT * FROM ui0 WHERE user_id IN (SELECT user_id FROM ok_users)),
marg AS (SELECT item, count(*)::BIGINT AS n FROM ui GROUP BY item),
sup AS (SELECT a.item AS item_a, b.item AS item_b,
               count(*)::BIGINT AS n_pair
        FROM ui a JOIN ui b
          ON a.user_id = b.user_id AND a.item < b.item
        GROUP BY 1, 2
        HAVING count(*) >= {COOC_MIN_COUNT})
SELECT s.item_a, s.item_b, s.n_pair,
       ma.n AS n_a, mb.n AS n_b,
       {_R4.format(expr='s.n_pair / sqrt((ma.n * mb.n)::DOUBLE)')} AS cosine,
       {_R4.format(expr='s.n_pair / (ma.n + mb.n - s.n_pair)::DOUBLE')} AS jaccard
FROM sup s
JOIN marg ma ON ma.item = s.item_a
JOIN marg mb ON mb.item = s.item_b
"""


BFS_MAX_HOPS = 3
BFS_SEED_STRIDE = 97


def q_bfs_hops(sf_dir: str):
    """Multi-source BFS levels (crawl depth / degrees-of-separation)
    over the synthetic chord graph: seeds every BFS_SEED_STRIDE-th
    node, hop = min edge count from any seed capped at BFS_MAX_HOPS.
    Level-synchronous frontier expansion — per round one
    frontier⨝adjacency semi join + grouped-min dedup + anti join
    against the settled set; the oracle replays it with a recursive
    walk enumeration and min(hop)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from ..stages.graph import bfs_hops

    n = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    i = np.arange(n, dtype=np.int64)
    src = np.r_[i, i, i]
    dst = np.r_[(i + 1) % n, (i + 2) % n, (7 * i + 3) % n]
    edges = rd.from_arrow(pa.table({"src": pa.array(src),
                                    "dst": pa.array(dst)}))
    seeds = list(range(0, n, BFS_SEED_STRIDE))
    return bfs_hops(edges, seeds, max_hops=BFS_MAX_HOPS, partitions=4)


QUERIES["bfs_hops"] = q_bfs_hops

ORACLE_SQL["bfs_hops"] = f"""
WITH RECURSIVE nn AS (SELECT count(*)::BIGINT AS n FROM documents),
r AS (SELECT unnest(range((SELECT n FROM nn)))::BIGINT AS i),
raw AS (
  SELECT i AS s, (i + 1) % (SELECT n FROM nn) AS d FROM r
  UNION ALL SELECT i, (i + 2) % (SELECT n FROM nn) FROM r
  UNION ALL SELECT i, (7 * i + 3) % (SELECT n FROM nn) FROM r),
und AS (SELECT DISTINCT least(s, d) AS u, greatest(s, d) AS v
        FROM raw WHERE s <> d),
adj AS (SELECT u AS a, v AS b FROM und
        UNION ALL SELECT v, u FROM und),
walk AS (
  SELECT i AS node, 0::BIGINT AS hop FROM r
  WHERE i % {BFS_SEED_STRIDE} = 0
  UNION ALL
  SELECT adj.b, walk.hop + 1 FROM walk JOIN adj ON adj.a = walk.node
  WHERE walk.hop < {BFS_MAX_HOPS}
)
SELECT node, min(hop)::BIGINT AS hop FROM walk GROUP BY node
"""


def q_link_prediction(sf_dir: str):
    """Common-neighbor link prediction (Liben-Nowell & Kleinberg 2003)
    over the synthetic chord graph: non-adjacent pairs sharing >= 2
    neighbors, with neighborhood-overlap jaccard = common /
    (deg_x + deg_y − common) — integer arithmetic plus ONE IEEE
    division, rounded half-up to 4 decimals on BOTH sides.  No degree
    cap: this graph is degree-bounded (<= 6) by construction; the
    max_degree hub prune is exercised by the unit suite."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from ..stages.graph import common_neighbor_pairs

    n = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    i = np.arange(n, dtype=np.int64)
    src = np.r_[i, i, i]
    dst = np.r_[(i + 1) % n, (i + 2) % n, (7 * i + 3) % n]
    edges = rd.from_arrow(pa.table({"src": pa.array(src),
                                    "dst": pa.array(dst)}))
    pairs = common_neighbor_pairs(edges, min_common=2, partitions=4)

    rnd = shape(pa.schema({"x": pa.int64(), "y": pa.int64(), "common": pa.int64(),
                           "deg_x": pa.int64(), "deg_y": pa.int64(),
                           "jaccard": pa.float64()}), r4=["jaccard"])
    return pairs.map_batches(rnd, batch_format="pyarrow")


QUERIES["link_prediction"] = q_link_prediction

ORACLE_SQL["link_prediction"] = f"""
WITH nn AS (SELECT count(*)::BIGINT AS n FROM documents),
r AS (SELECT unnest(range((SELECT n FROM nn)))::BIGINT AS i),
raw AS (
  SELECT i AS s, (i + 1) % (SELECT n FROM nn) AS d FROM r
  UNION ALL SELECT i, (i + 2) % (SELECT n FROM nn) FROM r
  UNION ALL SELECT i, (7 * i + 3) % (SELECT n FROM nn) FROM r),
und AS (SELECT DISTINCT least(s, d) AS u, greatest(s, d) AS v
        FROM raw WHERE s <> d),
adj AS (SELECT u AS a, v AS b FROM und
        UNION ALL SELECT v, u FROM und),
deg AS (SELECT a AS node, count(*)::BIGINT AS deg FROM adj GROUP BY a),
com AS (SELECT a1.b AS x, a2.b AS y, count(*)::BIGINT AS common
        FROM adj a1 JOIN adj a2 ON a1.a = a2.a AND a1.b < a2.b
        GROUP BY 1, 2
        HAVING count(*) >= 2),
cand AS (SELECT * FROM com c
         WHERE NOT EXISTS (SELECT 1 FROM und e
                           WHERE e.u = c.x AND e.v = c.y))
SELECT c.x, c.y, c.common, dx.deg AS deg_x, dy.deg AS deg_y,
       {_R4.format(expr='c.common / (dx.deg + dy.deg - c.common)::DOUBLE')} AS jaccard
FROM cand c
JOIN deg dx ON dx.node = c.x
JOIN deg dy ON dy.node = c.y
"""


def q_degree_assortativity(sf_dir: str):
    """Degree assortativity (Newman 2002) of the synthetic chord
    graph: Pearson correlation of edge-endpoint degrees, symmetrized
    (each edge contributes both orientations).  Exact int64 moment
    sums -> the identical closing IEEE expression on both sides (the
    corr_qty_price contract), rounded half-up to 4 decimals."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from ..stages.graph import degree_assortativity

    n = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    i = np.arange(n, dtype=np.int64)
    src = np.r_[i, i, i]
    dst = np.r_[(i + 1) % n, (i + 2) % n, (7 * i + 3) % n]
    edges = rd.from_arrow(pa.table({"src": pa.array(src),
                                    "dst": pa.array(dst)}))
    t = degree_assortativity(edges, partitions=4)
    return t.set_column(t.schema.get_field_index("assortativity"),
                        "assortativity",
                        pa.array(_r4(t["assortativity"].to_numpy(
                            zero_copy_only=False))))


QUERIES["degree_assortativity"] = q_degree_assortativity

ORACLE_SQL["degree_assortativity"] = f"""
WITH nn AS (SELECT count(*)::BIGINT AS n FROM documents),
r AS (SELECT unnest(range((SELECT n FROM nn)))::BIGINT AS i),
raw AS (
  SELECT i AS s, (i + 1) % (SELECT n FROM nn) AS d FROM r
  UNION ALL SELECT i, (i + 2) % (SELECT n FROM nn) FROM r
  UNION ALL SELECT i, (7 * i + 3) % (SELECT n FROM nn) FROM r),
und AS (SELECT DISTINCT least(s, d) AS u, greatest(s, d) AS v
        FROM raw WHERE s <> d),
deg AS (SELECT node, count(*)::BIGINT AS deg
        FROM (SELECT u AS node FROM und UNION ALL SELECT v FROM und)
        GROUP BY node),
ed AS (SELECT du.deg AS x, dv.deg AS y
       FROM und JOIN deg du ON du.node = und.u
                JOIN deg dv ON dv.node = und.v),
sym AS (SELECT x, y FROM ed UNION ALL SELECT y, x FROM ed),
m AS (SELECT count(*)::DOUBLE AS n, sum(x)::DOUBLE AS sx,
             sum(y)::DOUBLE AS sy, sum(x * x)::DOUBLE AS sxx,
             sum(y * y)::DOUBLE AS syy, sum(x * y)::DOUBLE AS sxy
      FROM sym)
SELECT (n / 2)::BIGINT AS n_edges,
       {_R4.format(expr="((n * sxy - sx * sy) / (sqrt(n * sxx - sx * sx)"
                        " * sqrt(n * syy - sy * sy)))")} AS assortativity
FROM m
"""


SIMILAR_ITEMS_K = 3


def q_item_similar_topk(sf_dir: str):
    """Per-item top-k most-similar partners — the item-to-item CF
    serving table (composition: cooccurrence pairs -> symmetrize ->
    `topk_per_group` per item).  Ranks over the ROUNDED cosine (the
    same 4-decimal value both engines print) with ascending partner id
    as the tiebreak, so the kept set is deterministic across
    engines."""
    from ..stages.aggregates import topk_per_group
    from ..stages.cooccur import cooccurrence_pairs
    from ..stages.semistructured import json_int_field

    ev = read_table(sf_dir, "events", columns=["user_id", "props"])
    ev = json_int_field(ev, field="k", out_col="item")
    pairs = cooccurrence_pairs(ev, min_count=COOC_MIN_COUNT,
                               max_user_items=COOC_MAX_USER_ITEMS,
                               partitions=4)

    def symmetrize(t: pa.Table) -> pa.Table:
        a = t["item_a"].to_numpy(zero_copy_only=False)
        b = t["item_b"].to_numpy(zero_copy_only=False)
        c = _r4(t["cosine"].to_numpy(zero_copy_only=False))
        np_ = t["n_pair"].to_numpy(zero_copy_only=False)
        return pa.table({
            "item": pa.array(np.r_[a, b]),
            "partner": pa.array(np.r_[b, a]),
            "n_pair": pa.array(np.r_[np_, np_]),
            "cosine": pa.array(np.r_[c, c]),
        })

    sym_schema = pa.schema([("item", pa.int64()), ("partner", pa.int64()),
                            ("n_pair", pa.int64()),
                            ("cosine", pa.float64())])
    sym = pairs.map_batches(symmetrize, batch_format="pyarrow")
    return topk_per_group(sym, ["item"], "cosine", SIMILAR_ITEMS_K,
                          descending=True, tiebreak="partner",
                          in_schema=sym_schema)


QUERIES["item_similar_topk"] = q_item_similar_topk

ORACLE_SQL["item_similar_topk"] = f"""
WITH ui0 AS (SELECT DISTINCT user_id,
                    json_extract(props, '$.k')::BIGINT AS item
             FROM events
             WHERE user_id IS NOT NULL
               AND json_extract(props, '$.k') IS NOT NULL),
ok_users AS (SELECT user_id FROM ui0 GROUP BY user_id
             HAVING count(*) <= {COOC_MAX_USER_ITEMS}),
ui AS (SELECT * FROM ui0 WHERE user_id IN (SELECT user_id FROM ok_users)),
marg AS (SELECT item, count(*)::BIGINT AS n FROM ui GROUP BY item),
sup AS (SELECT a.item AS item_a, b.item AS item_b,
               count(*)::BIGINT AS n_pair
        FROM ui a JOIN ui b
          ON a.user_id = b.user_id AND a.item < b.item
        GROUP BY 1, 2
        HAVING count(*) >= {COOC_MIN_COUNT}),
pr AS (SELECT s.item_a, s.item_b, s.n_pair,
              {_R4.format(expr='s.n_pair / sqrt((ma.n * mb.n)::DOUBLE)')}
                AS cosine
       FROM sup s
       JOIN marg ma ON ma.item = s.item_a
       JOIN marg mb ON mb.item = s.item_b),
sym AS (SELECT item_a AS item, item_b AS partner, n_pair, cosine FROM pr
        UNION ALL
        SELECT item_b, item_a, n_pair, cosine FROM pr),
rk AS (SELECT *, row_number() OVER (PARTITION BY item
                                    ORDER BY cosine DESC, partner ASC)
                   AS _r
       FROM sym)
SELECT item, partner, n_pair, cosine FROM rk WHERE _r <= {SIMILAR_ITEMS_K}
"""


def q_adamic_adar(sf_dir: str):
    """Adamic-Adar link prediction (Adamic & Adar 2003) over the
    synthetic chord graph in the DETERMINISTIC fixed-point form: each
    shared neighbor z contributes the int64 term
    floor(1e8/ln(deg z) + 0.5) (the center's degree is its run length;
    ln parity between numpy and DuckDB is the same contract
    weighted_sample_n pinned), the per-pair sum is an exact integer
    reduction, and aa = aa_fx/1e8 is one replayable IEEE division
    rounded half-up to 4 decimals on both sides."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from ..stages.graph import common_neighbor_pairs

    n = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    i = np.arange(n, dtype=np.int64)
    src = np.r_[i, i, i]
    dst = np.r_[(i + 1) % n, (i + 2) % n, (7 * i + 3) % n]
    edges = rd.from_arrow(pa.table({"src": pa.array(src),
                                    "dst": pa.array(dst)}))
    pairs = common_neighbor_pairs(edges, min_common=2, adamic_adar=True,
                                  partitions=4)

    rnd = shape(pa.schema({"x": pa.int64(), "y": pa.int64(), "common": pa.int64(),
                           "deg_x": pa.int64(), "deg_y": pa.int64(),
                           "jaccard": pa.float64(), "aa_fx": pa.int64(),
                           "aa": pa.float64()}), r4=["jaccard", "aa"])
    return pairs.map_batches(rnd, batch_format="pyarrow")


QUERIES["adamic_adar"] = q_adamic_adar

ORACLE_SQL["adamic_adar"] = f"""
WITH nn AS (SELECT count(*)::BIGINT AS n FROM documents),
r AS (SELECT unnest(range((SELECT n FROM nn)))::BIGINT AS i),
raw AS (
  SELECT i AS s, (i + 1) % (SELECT n FROM nn) AS d FROM r
  UNION ALL SELECT i, (i + 2) % (SELECT n FROM nn) FROM r
  UNION ALL SELECT i, (7 * i + 3) % (SELECT n FROM nn) FROM r),
und AS (SELECT DISTINCT least(s, d) AS u, greatest(s, d) AS v
        FROM raw WHERE s <> d),
adj AS (SELECT u AS a, v AS b FROM und
        UNION ALL SELECT v, u FROM und),
deg AS (SELECT a AS node, count(*)::BIGINT AS deg FROM adj GROUP BY a),
com AS (SELECT a1.b AS x, a2.b AS y, count(*)::BIGINT AS common,
               sum(floor(100000000.0 / ln(dz.deg) + 0.5)::BIGINT)::BIGINT
                 AS aa_fx
        FROM adj a1
        JOIN adj a2 ON a1.a = a2.a AND a1.b < a2.b
        JOIN deg dz ON dz.node = a1.a
        GROUP BY 1, 2
        HAVING count(*) >= 2),
cand AS (SELECT * FROM com c
         WHERE NOT EXISTS (SELECT 1 FROM und e
                           WHERE e.u = c.x AND e.v = c.y))
SELECT c.x, c.y, c.common, dx.deg AS deg_x, dy.deg AS deg_y,
       {_R4.format(expr='c.common / (dx.deg + dy.deg - c.common)::DOUBLE')} AS jaccard,
       c.aa_fx,
       {_R4.format(expr='c.aa_fx / 100000000.0')} AS aa
FROM cand c
JOIN deg dx ON dx.node = c.x
JOIN deg dy ON dy.node = c.y
"""


def q_k_core(sf_dir: str):
    """k-core peeling (Seidman 1983) over the synthetic chord graph in
    the BOUNDED-ROUND form (k=6, rounds=2): round 0 keeps nodes of
    original degree >= 6, each later round recomputes degrees on the
    edges whose BOTH endpoints survived and re-filters — exactly the
    unrolled CTE chain the oracle replays.  The chord graph is
    near-6-regular, so k=6 peeling cascades in waves from the handful
    of chord-collision nodes: a non-trivial surviving set at every sf
    (8 of 50 / 336 of 500 / 4748 of 5000 docs)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from ..stages.graph import k_core

    n = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    i = np.arange(n, dtype=np.int64)
    src = np.r_[i, i, i]
    dst = np.r_[(i + 1) % n, (i + 2) % n, (7 * i + 3) % n]
    edges = rd.from_arrow(pa.table({"src": pa.array(src),
                                    "dst": pa.array(dst)}))
    return k_core(edges, 6, rounds=2, partitions=4)


QUERIES["k_core"] = q_k_core

ORACLE_SQL["k_core"] = """
WITH nn AS (SELECT count(*)::BIGINT AS n FROM documents),
r AS (SELECT unnest(range((SELECT n FROM nn)))::BIGINT AS i),
raw AS (
  SELECT i AS s, (i + 1) % (SELECT n FROM nn) AS d FROM r
  UNION ALL SELECT i, (i + 2) % (SELECT n FROM nn) FROM r
  UNION ALL SELECT i, (7 * i + 3) % (SELECT n FROM nn) FROM r),
und AS (SELECT DISTINCT least(s, d) AS u, greatest(s, d) AS v
        FROM raw WHERE s <> d),
d0 AS (SELECT node, count(*)::BIGINT AS deg FROM
         (SELECT u AS node FROM und UNION ALL SELECT v FROM und)
       GROUP BY node),
a0 AS (SELECT node FROM d0 WHERE deg >= 6),
e1 AS (SELECT u, v FROM und
       WHERE u IN (SELECT node FROM a0) AND v IN (SELECT node FROM a0)),
d1 AS (SELECT node, count(*)::BIGINT AS deg FROM
         (SELECT u AS node FROM e1 UNION ALL SELECT v FROM e1)
       GROUP BY node),
a1 AS (SELECT node FROM d1 WHERE deg >= 6),
e2 AS (SELECT u, v FROM e1
       WHERE u IN (SELECT node FROM a1) AND v IN (SELECT node FROM a1)),
d2 AS (SELECT node, count(*)::BIGINT AS deg FROM
         (SELECT u AS node FROM e2 UNION ALL SELECT v FROM e2)
       GROUP BY node)
SELECT node, deg FROM d2 WHERE deg >= 6
"""


HITS_ITERS = 4


def q_hits_scores(sf_dir: str):
    """HITS hubs & authorities (Kleinberg 1999) over the DIRECTED
    distinct chord graph in the deterministic fixed-point form
    (pipelines/pagerank.py: hits_numpy docstring): every
    half-iteration is an exact int64 edge sum + ONE integer floor
    division by the max, so the unrolled SQL oracle replays auth_fx /
    hub_fx bit for bit; auth/hub are each one replayable IEEE
    division rounded half-up to 4 decimals on both sides."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from ..pipelines.pagerank import HITS_SCALE, hits_dataset

    n = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    i = np.arange(n, dtype=np.int64)
    src = np.r_[i, i, i]
    dst = np.r_[(i + 1) % n, (i + 2) % n, (7 * i + 3) % n]
    keep = src != dst
    key = np.unique(src[keep] * n + dst[keep])
    edges = rd.from_arrow(pa.table({"src": pa.array(key // n),
                                    "dst": pa.array(key % n)}))
    t = hits_dataset(edges, n, iterations=HITS_ITERS)

    return t.append_column(
        "auth", pa.array(_r4(t["auth_fx"].to_numpy() / HITS_SCALE))
    ).append_column(
        "hub", pa.array(_r4(t["hub_fx"].to_numpy() / HITS_SCALE)))


QUERIES["hits_scores"] = q_hits_scores


def _hits_sql(iters: int, scale: int) -> str:
    parts = [f"""
WITH nn AS (SELECT count(*)::BIGINT AS n FROM documents),
r AS (SELECT unnest(range((SELECT n FROM nn)))::BIGINT AS i),
raw AS (
  SELECT i AS s, (i + 1) % (SELECT n FROM nn) AS d FROM r
  UNION ALL SELECT i, (i + 2) % (SELECT n FROM nn) FROM r
  UNION ALL SELECT i, (7 * i + 3) % (SELECT n FROM nn) FROM r),
de AS MATERIALIZED (SELECT DISTINCT s, d FROM raw WHERE s <> d),
h0 AS MATERIALIZED (SELECT i AS node, {scale}::BIGINT AS sc FROM r)"""]
    prev_h = "h0"
    for it in range(1, iters + 1):
        parts.append(f""",
a{it}r AS MATERIALIZED (SELECT de.d AS node, sum(h.sc)::BIGINT AS rw
           FROM de JOIN {prev_h} h ON h.node = de.s GROUP BY de.d),
a{it} AS MATERIALIZED (SELECT i AS node,
                 (coalesce(rw, 0) * {scale})
                   // (SELECT max(rw) FROM a{it}r) AS sc
          FROM r LEFT JOIN a{it}r ON a{it}r.node = i),
h{it}r AS MATERIALIZED (SELECT de.s AS node, sum(a.sc)::BIGINT AS rw
           FROM de JOIN a{it} a ON a.node = de.d GROUP BY de.s),
h{it} AS MATERIALIZED (SELECT i AS node,
                 (coalesce(rw, 0) * {scale})
                   // (SELECT max(rw) FROM h{it}r) AS sc
          FROM r LEFT JOIN h{it}r ON h{it}r.node = i)""")
        prev_h = f"h{it}"
    parts.append(f"""
SELECT a.node, a.sc AS auth_fx, h.sc AS hub_fx,
       {_R4.format(expr=f'a.sc / {scale}.0')} AS auth,
       {_R4.format(expr=f'h.sc / {scale}.0')} AS hub
FROM a{iters} a JOIN h{iters} h ON h.node = a.node""")
    return "".join(parts)


ORACLE_SQL["hits_scores"] = _hits_sql(HITS_ITERS, 100_000)


def q_feature_prop(sf_dir: str):
    """Two rounds of GNN-style mean neighborhood feature propagation
    (stages/graph.py: feature_propagation) of the embedding vectors
    along the directed distinct chord graph, exploded to (node, dim,
    val) for value comparison — val accumulates in float64 (float32
    inputs exact) and is rounded half-up to 4dp on both sides; the
    oracle replays each round as avg(val::DOUBLE) over an edge join."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from ..stages.graph import feature_propagation
    from ..stages.similarity import _emb_matrix

    path = os.path.join(sf_dir, "embeddings.parquet")
    n = pq.read_metadata(path).num_rows
    i = np.arange(n, dtype=np.int64)
    src = np.r_[i, i, i]
    dst = np.r_[(i + 1) % n, (i + 2) % n, (7 * i + 3) % n]
    keep = src != dst
    key = np.unique(src[keep] * n + dst[keep])
    edges = rd.from_arrow(pa.table({"src": pa.array(key // n),
                                    "dst": pa.array(key % n)}))
    feats = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = feature_propagation(feats, edges, rounds=2)

    def explode(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.schema({"node": pa.int64(),
                              "dim": pa.int64(),
                              "val": pa.float64()}).empty_table()
        m = _emb_matrix(t, "embedding")
        node = t["node"].to_numpy(zero_copy_only=False)
        d = m.shape[1]
        return pa.table({
            "node": pa.array(np.repeat(node, d)),
            "dim": pa.array(np.tile(np.arange(1, d + 1, dtype=np.int64),
                                    len(node))),
            "val": pa.array(_r4(m.ravel())),
        })

    return out.map_batches(explode, batch_format="pyarrow")


QUERIES["feature_prop"] = q_feature_prop

ORACLE_SQL["feature_prop"] = f"""
WITH nn AS (SELECT count(*)::BIGINT AS n FROM embeddings),
r AS (SELECT unnest(range((SELECT n FROM nn)))::BIGINT AS i),
raw AS (
  SELECT i AS s, (i + 1) % (SELECT n FROM nn) AS d FROM r
  UNION ALL SELECT i, (i + 2) % (SELECT n FROM nn) FROM r
  UNION ALL SELECT i, (7 * i + 3) % (SELECT n FROM nn) FROM r),
de AS MATERIALIZED (SELECT DISTINCT s, d FROM raw WHERE s <> d),
x0 AS MATERIALIZED (
  SELECT vec_id AS node, generate_subscripts(embedding, 1)::BIGINT AS dim,
         unnest(embedding)::DOUBLE AS val
  FROM embeddings),
x1 AS MATERIALIZED (
  SELECT de.d AS node, x.dim, avg(x.val) AS val
  FROM de JOIN x0 x ON x.node = de.s GROUP BY 1, 2),
x2 AS MATERIALIZED (
  SELECT de.d AS node, x.dim, avg(x.val) AS val
  FROM de JOIN x1 x ON x.node = de.s GROUP BY 1, 2)
SELECT node, dim, {_R4.format(expr='val')} AS val FROM x2
"""


def q_embedding_projected(sf_dir: str):
    """Random sign-projection dimensionality reduction (Achlioptas
    2003) of the embedding column to 8 dims — the content-addressed
    ±1 matrix (sign = parity of md5-low-64(f"{i},{j},0"), replayed by
    md5_number_lower in SQL), y = x @ R / sqrt(8) — exploded to
    (node, odim, val) with the 4dp half-up gate (the matmul sum order
    is IEEE-arbitrary on both sides, the embedding_cov contract)."""
    from ..stages.similarity import _emb_matrix, random_sign_projection

    feats = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = random_sign_projection(feats, 8)

    def explode(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.schema({"node": pa.int64(),
                              "odim": pa.int64(),
                              "val": pa.float64()}).empty_table()
        m = _emb_matrix(t, "proj")
        node = t["vec_id"].to_numpy(zero_copy_only=False)
        k = m.shape[1]
        return pa.table({
            "node": pa.array(np.repeat(node, k)),
            "odim": pa.array(np.tile(np.arange(k, dtype=np.int64),
                                     len(node))),
            "val": pa.array(_r4(m.ravel())),
        })

    return out.map_batches(explode, batch_format="pyarrow")


QUERIES["embedding_projected"] = q_embedding_projected

ORACLE_SQL["embedding_projected"] = f"""
WITH dd AS (SELECT len(embedding)::BIGINT AS d FROM embeddings LIMIT 1),
proj AS MATERIALIZED (
  SELECT i.i AS dim, j.j AS odim,
         CASE WHEN md5_number_lower(i.i::VARCHAR || ',' || j.j::VARCHAR
                                    || ',0') % 2 = 1
              THEN 1.0 ELSE -1.0 END AS r
  FROM (SELECT unnest(range((SELECT d FROM dd)))::BIGINT AS i) i,
       (SELECT unnest(range(8))::BIGINT AS j) j),
x AS MATERIALIZED (
  SELECT vec_id AS node,
         generate_subscripts(embedding, 1)::BIGINT - 1 AS dim,
         unnest(embedding)::DOUBLE AS val
  FROM embeddings)
SELECT x.node, p.odim,
       {_R4.format(expr='sum(x.val * p.r) / sqrt(8.0)')} AS val
FROM x JOIN proj p ON p.dim = x.dim
GROUP BY x.node, p.odim
"""


def q_label_prop(sf_dir: str):
    """Synchronous label-propagation community detection (Raghavan et
    al. 2007) over the undirected chord graph, 3 bounded rounds with
    the deterministic most-frequent-then-smallest-label tie rule —
    all-integer arithmetic, so the unrolled oracle replays every
    round exactly (stages/graph.py: label_propagation)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from ..stages.graph import label_propagation

    n = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    i = np.arange(n, dtype=np.int64)
    src = np.r_[i, i, i]
    dst = np.r_[(i + 1) % n, (i + 2) % n, (7 * i + 3) % n]
    edges = rd.from_arrow(pa.table({"src": pa.array(src),
                                    "dst": pa.array(dst)}))
    return label_propagation(edges, rounds=3, partitions=4)


QUERIES["label_prop"] = q_label_prop

ORACLE_SQL["label_prop"] = """
WITH nn AS (SELECT count(*)::BIGINT AS n FROM documents),
r AS (SELECT unnest(range((SELECT n FROM nn)))::BIGINT AS i),
raw AS (
  SELECT i AS s, (i + 1) % (SELECT n FROM nn) AS d FROM r
  UNION ALL SELECT i, (i + 2) % (SELECT n FROM nn) FROM r
  UNION ALL SELECT i, (7 * i + 3) % (SELECT n FROM nn) FROM r),
und AS (SELECT DISTINCT least(s, d) AS u, greatest(s, d) AS v
        FROM raw WHERE s <> d),
adj AS MATERIALIZED (SELECT u AS a, v AS b FROM und
                     UNION ALL SELECT v, u FROM und),
l0 AS MATERIALIZED (SELECT a AS node, a AS lbl FROM adj GROUP BY a),
c1 AS (SELECT adj.a AS node, l.lbl, count(*)::BIGINT AS c
       FROM adj JOIN l0 l ON l.node = adj.b GROUP BY 1, 2),
l1 AS MATERIALIZED (
  SELECT node, lbl FROM (
    SELECT node, lbl, row_number() OVER (PARTITION BY node
                                         ORDER BY c DESC, lbl ASC) AS rn
    FROM c1) WHERE rn = 1),
c2 AS (SELECT adj.a AS node, l.lbl, count(*)::BIGINT AS c
       FROM adj JOIN l1 l ON l.node = adj.b GROUP BY 1, 2),
l2 AS MATERIALIZED (
  SELECT node, lbl FROM (
    SELECT node, lbl, row_number() OVER (PARTITION BY node
                                         ORDER BY c DESC, lbl ASC) AS rn
    FROM c2) WHERE rn = 1),
c3 AS (SELECT adj.a AS node, l.lbl, count(*)::BIGINT AS c
       FROM adj JOIN l2 l ON l.node = adj.b GROUP BY 1, 2),
l3 AS MATERIALIZED (
  SELECT node, lbl FROM (
    SELECT node, lbl, row_number() OVER (PARTITION BY node
                                         ORDER BY c DESC, lbl ASC) AS rn
    FROM c3) WHERE rn = 1)
SELECT node, lbl AS label FROM l3
"""


def q_dedup_keep_best(sf_dir: str):
    """The keep-BEST-representative dedup action (the policy real
    curation pipelines run instead of keep-min-id): near-dup clusters
    (LSH -> exact-Jaccard verify -> connected components, the
    dedup_clusters plan) joined with each member's n_chars; per
    component the winner is the LONGEST doc, ties to the smallest id
    (topk_per_group k=1 — the one-row-per-(batch,component) local
    prefilter), joined back so every member carries keep = (node ==
    winner). Composition of three ★-tested operators; all-integer
    decision, exactly replayable."""
    import pyarrow.compute as pc

    from ..stages.dedup import near_dup_clusters
    from ..stages.join import sort_merge_join
    from ..stages.aggregates import topk_per_group

    cl_schema = pa.schema([("node", pa.int64()), ("component", pa.int64())])
    clusters = near_dup_clusters(read_table(sf_dir, "documents"),
                                 threshold=DEDUP_CLUSTER_THRESHOLD) \
        .map_batches(shape(cl_schema), batch_format="pyarrow")
    len_schema = pa.schema([("doc_id", pa.int64()), ("n_chars", pa.int64())])
    lens = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"]) \
        .map_batches(shape(len_schema), batch_format="pyarrow")

    m = sort_merge_join(clusters, lens, on="node", right_on="doc_id",
                        how="inner", left_schema=cl_schema,
                        right_schema=len_schema, partitions=4)
    m_schema = pa.schema([("node", pa.int64()), ("component", pa.int64()),
                          ("n_chars", pa.int64())])
    winners = topk_per_group(m, ["component"], "n_chars", 1,
                             descending=True, tiebreak="node",
                             in_schema=m_schema)

    w_schema = pa.schema([("component", pa.int64()), ("winner", pa.int64())])
    w = winners.map_batches(shape(w_schema, rename={"winner": "node"}),
                            batch_format="pyarrow")
    j = sort_merge_join(m, w, on="component", how="inner",
                        left_schema=m_schema, right_schema=w_schema,
                        partitions=4)
    out_schema = pa.schema([("doc_id", pa.int64()), ("component", pa.int64()),
                            ("n_chars", pa.int64()), ("keep", pa.bool_())])

    def out(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "node" not in t.column_names:
            return out_schema.empty_table()
        return pa.table({"doc_id": t["node"], "component": t["component"],
                         "n_chars": t["n_chars"],
                         "keep": pc.equal(t["node"], t["winner"])})

    return j.map_batches(out, batch_format="pyarrow")


QUERIES["dedup_keep_best"] = q_dedup_keep_best

ORACLE_SQL["dedup_keep_best"] = f"""
WITH {_minhash_sig_ctes()},
{_cluster_cte_chain()},
cl AS (SELECT node, comp AS component FROM l8),
mm AS (SELECT cl.node, cl.component, d.n_chars::BIGINT AS n_chars
       FROM cl JOIN documents d ON d.doc_id = cl.node),
wn AS (SELECT component, node AS winner FROM (
         SELECT component, node,
                row_number() OVER (PARTITION BY component
                                   ORDER BY n_chars DESC, node ASC) AS rn
         FROM mm) WHERE rn = 1)
SELECT mm.node AS doc_id, mm.component, mm.n_chars,
       mm.node = wn.winner AS keep
FROM mm JOIN wn ON wn.component = mm.component
"""


def q_pagerank_weighted(sf_dir: str):
    """WEIGHTED PageRank over the q_pagerank doc-id link graph with
    the deterministic edge weight (src + dst) % 5 + 1 (click-count
    flavor): edge (u,v) carries score * (w / out_w[u]) — out-weights
    are sums of small integers, EXACT in float64 on both engines, so
    the only cross-engine drift is the usual per-iteration sum order
    under the 4dp half-up gate (pipelines/pagerank.py:
    pagerank_numpy(weights=...))."""
    import pyarrow.parquet as pq

    from .pagerank import pagerank_numpy

    n = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    i = np.arange(n, dtype=np.int64)
    src = np.r_[i, i]
    dst = np.r_[(7 * i + 3) % n, (13 * i + 5) % n]
    keep = src != dst
    src, dst = src[keep], dst[keep]
    w = ((src + dst) % 5 + 1).astype(np.float64)
    scores = pagerank_numpy(src, dst, n, weights=w)
    return pa.table({"node": pa.array(i), "score": pa.array(_r4(scores))})


QUERIES["pagerank_weighted"] = q_pagerank_weighted


def _pagerank_weighted_sql(iterations: int = 100,
                           damping: float = 0.85) -> str:
    """Unrolled weighted-PageRank replay: same link graph as
    _pagerank_sql, per-edge weight (src+dst)%5+1, contribution
    score * (e.w / ws.w) — the identical two IEEE ops the engine
    computes per edge."""
    base = 1.0 - damping
    its = []
    prev = "s0"
    for i in range(1, iterations + 1):
        cur = f"s{i}"
        its.append(
            f"""{cur} AS MATERIALIZED (
  SELECT n.node, {base} + {damping} * coalesce(c.s, 0) AS score
  FROM nodes n LEFT JOIN (
    SELECT e.dst AS node, sum({prev}.score * (e.w / ws.w)) AS s
    FROM edges e JOIN {prev} ON {prev}.node = e.src
                 JOIN ws ON ws.node = e.src
    GROUP BY e.dst
  ) c ON c.node = n.node
)"""
        )
        prev = cur
    return f"""
WITH m AS (SELECT count(*)::BIGINT AS n FROM documents),
nodes AS MATERIALIZED (SELECT unnest(range((SELECT n FROM m)))::BIGINT AS node),
e0 AS (
  SELECT node AS src, (7 * node + 3) % (SELECT n FROM m) AS dst FROM nodes
  UNION ALL
  SELECT node, (13 * node + 5) % (SELECT n FROM m) FROM nodes
),
edges AS MATERIALIZED (
  SELECT src, dst, ((src + dst) % 5 + 1)::DOUBLE AS w
  FROM e0 WHERE src <> dst),
ws AS MATERIALIZED (SELECT src AS node, sum(w) AS w FROM edges GROUP BY src),
s0 AS (SELECT node, 1.0::DOUBLE AS score FROM nodes),
{",".join(its)}
SELECT node, {_R4.format(expr="score")} AS score FROM {prev} ORDER BY node
"""


ORACLE_SQL["pagerank_weighted"] = _pagerank_weighted_sql()


def q_shortest_paths_w(sf_dir: str):
    """Weighted multi-source shortest paths (3 bounded Bellman-Ford
    relaxations, stages/graph.py: shortest_paths) over the SYMMETRIZED
    chord graph with the deterministic edge weight (s+d)%5+1 —
    all-integer distances, so the unrolled oracle replays every
    relaxation exactly; seeds every 100th node."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from ..stages.graph import shortest_paths

    n = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    i = np.arange(n, dtype=np.int64)
    s1 = np.r_[i, i, i]
    d1 = np.r_[(i + 1) % n, (i + 2) % n, (7 * i + 3) % n]
    src = np.r_[s1, d1]
    dst = np.r_[d1, s1]
    keep = src != dst
    src, dst = src[keep], dst[keep]
    w = (src + dst) % 5 + 1
    edges = rd.from_arrow(pa.table({"src": pa.array(src),
                                    "dst": pa.array(dst),
                                    "w": pa.array(w)}))
    seeds = list(range(0, n, 100))
    return shortest_paths(edges, seeds, rounds=3, weight_col="w",
                          partitions=4)


QUERIES["shortest_paths_w"] = q_shortest_paths_w

ORACLE_SQL["shortest_paths_w"] = """
WITH nn AS (SELECT count(*)::BIGINT AS n FROM documents),
r AS (SELECT unnest(range((SELECT n FROM nn)))::BIGINT AS i),
raw AS (
  SELECT i AS s, (i + 1) % (SELECT n FROM nn) AS d FROM r
  UNION ALL SELECT i, (i + 2) % (SELECT n FROM nn) FROM r
  UNION ALL SELECT i, (7 * i + 3) % (SELECT n FROM nn) FROM r),
e AS MATERIALIZED (
  SELECT s, d, ((s + d) % 5 + 1)::BIGINT AS w FROM raw WHERE s <> d
  UNION ALL
  SELECT d, s, ((s + d) % 5 + 1)::BIGINT FROM raw WHERE s <> d),
d0 AS MATERIALIZED (SELECT i AS node, 0::BIGINT AS d FROM r
                    WHERE i % 100 = 0),
c1 AS (SELECT e.d AS node, min(p.d + e.w)::BIGINT AS d
       FROM e JOIN d0 p ON p.node = e.s GROUP BY e.d),
d1 AS MATERIALIZED (SELECT node, min(d)::BIGINT AS d FROM
  (SELECT * FROM d0 UNION ALL SELECT * FROM c1) GROUP BY node),
c2 AS (SELECT e.d AS node, min(p.d + e.w)::BIGINT AS d
       FROM e JOIN d1 p ON p.node = e.s GROUP BY e.d),
d2 AS MATERIALIZED (SELECT node, min(d)::BIGINT AS d FROM
  (SELECT * FROM d1 UNION ALL SELECT * FROM c2) GROUP BY node),
c3 AS (SELECT e.d AS node, min(p.d + e.w)::BIGINT AS d
       FROM e JOIN d2 p ON p.node = e.s GROUP BY e.d),
d3 AS MATERIALIZED (SELECT node, min(d)::BIGINT AS d FROM
  (SELECT * FROM d2 UNION ALL SELECT * FROM c3) GROUP BY node)
SELECT node, d FROM d3
"""


def q_source_vocab_overlap(sf_dir: str):
    """Pairwise vocabulary Jaccard between sources (corpus
    mixture-analysis; stages/textstats.py: source_vocab_overlap):
    token types hashed md5-low-64 so membership decisions are
    hash-plane and DuckDB-replayable; jaccard is ONE IEEE division
    rounded half-up to 4dp on both sides."""
    from ..stages.textstats import source_vocab_overlap

    out = source_vocab_overlap(read_table(sf_dir, "documents"))

    rnd = shape(pa.schema({"a": pa.string(), "b": pa.string(), "inter": pa.int64(),
                           "n_a": pa.int64(), "n_b": pa.int64(),
                           "jaccard": pa.float64()}), r4=["jaccard"])
    return out.map_batches(rnd, batch_format="pyarrow")


QUERIES["source_vocab_overlap"] = q_source_vocab_overlap

ORACLE_SQL["source_vocab_overlap"] = f"""
WITH tk AS (
  SELECT source,
         list_filter(regexp_split_to_array(lower(trim(text, {_SQL_TRIM})),
                                           '{_SQL_CLASS}'),
                     x -> x <> '') AS toks
  FROM documents),
v AS MATERIALIZED (
  SELECT DISTINCT source, md5_number_lower(t) AS h
  FROM (SELECT source, unnest(toks) AS t FROM tk)),
sz AS MATERIALIZED (SELECT source, count(*)::BIGINT AS n FROM v
                    GROUP BY source),
i AS (SELECT x.source AS a, y.source AS b, count(*)::BIGINT AS inter
      FROM v x JOIN v y ON x.h = y.h AND x.source < y.source
      GROUP BY 1, 2)
SELECT i.a, i.b, i.inter, za.n AS n_a, zb.n AS n_b,
       {_R4.format(expr='i.inter / (za.n + zb.n - i.inter)::DOUBLE')}
         AS jaccard
FROM i JOIN sz za ON za.source = i.a
       JOIN sz zb ON zb.source = i.b
"""


# ---------------------------------------------------------------------------
# Distributed per-group descriptive statistics (stages/stats.py)
# ---------------------------------------------------------------------------

def _linear_stats_query(key_col: str):
    """Per-``key_col`` simple linear regression + Pearson r of event
    value on time-of-day seconds (x = (epoch_us // 1e6) % 86400 —
    int64 exact on BOTH sides so the keep/drop decision n>=2 AND
    n*sxx-sx*sx>0 replays deterministically; the engine and the SQL
    oracle evaluate the same EXPLICIT closed forms over the sums, not
    the engines' numerically-stabilized regr_* builtins).  slope /
    intercept / corr rounded half-up to 4dp on both sides;
    constant-y groups keep corr NULL."""
    def q(sf_dir: str):
        from ..stages.stats import grouped_linear_stats

        ds = read_table(sf_dir, "events", columns=[key_col, "ts", "value"])

        def derive(t: pa.Table) -> pa.Table:
            us = _ts_int64(t, "ts")
            x = (us // 1_000_000) % 86_400
            return pa.table({key_col: t[key_col], "x": pa.array(x),
                             "y": t["value"]})

        out = grouped_linear_stats(
            ds.map_batches(derive, batch_format="pyarrow"),
            key_col=key_col, x_col="x", y_col="y")

        def rnd(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return t
            cols = {key_col: t[key_col], "n": t["n"]}
            for c in ("slope", "intercept", "corr"):
                v = t[c].to_numpy(zero_copy_only=False).astype(np.float64)
                nan = np.isnan(v)
                cols[c] = pa.array(np.where(nan, 0.0, _r4(v)), mask=nan)
            return pa.table(cols)

        return out.map_batches(rnd, batch_format="pyarrow")

    sql = f"""
WITH s AS (
  SELECT {key_col}, count(*)::BIGINT AS n,
         sum(x)::BIGINT AS sx, sum(x * x)::BIGINT AS sxx,
         sum(y) AS sy, sum(x::DOUBLE * y) AS sxy, sum(y * y) AS syy
  FROM (SELECT {key_col}, (epoch_us(ts) // 1000000) % 86400 AS x,
               value AS y FROM events)
  GROUP BY 1),
f AS (
  SELECT {key_col}, n, sx, sy,
         n::DOUBLE * sxx - sx::DOUBLE * sx AS denom,
         n::DOUBLE * sxy - sx::DOUBLE * sy AS num,
         n::DOUBLE * syy - sy * sy AS vary
  FROM s
  WHERE n >= 2 AND n::DOUBLE * sxx - sx::DOUBLE * sx > 0)
SELECT {key_col}, n,
       {_R4.format(expr='num / denom')} AS slope,
       {_R4.format(expr='(sy - (num / denom) * sx) / n')} AS intercept,
       CASE WHEN vary > 0
            THEN {_R4.format(expr='num / sqrt(denom * vary)')}
            ELSE NULL END AS corr
FROM f
"""
    return q, sql


q_user_value_trend, _user_value_trend_sql = _linear_stats_query("user_id")
q_event_type_value_trend, _event_type_value_trend_sql = \
    _linear_stats_query("event_type")

QUERIES["user_value_trend"] = q_user_value_trend
ORACLE_SQL["user_value_trend"] = _user_value_trend_sql
QUERIES["event_type_value_trend"] = q_event_type_value_trend
ORACLE_SQL["event_type_value_trend"] = _event_type_value_trend_sql


def q_source_token_entropy(sf_dir: str):
    """Shannon entropy (nats) of each source's token-type distribution
    (stages/textstats.py: group_token_entropy): types hashed md5-low-64
    so every type-merge decision is DuckDB-replayable; n_tokens/vocab
    are exact int64, entropy = ln(n) - sum(c*ln c)/n gated half-up at
    4dp on both sides."""
    from ..stages.textstats import group_token_entropy

    out = group_token_entropy(read_table(sf_dir, "documents"))

    rnd = shape(pa.schema({"source": pa.string(), "n_tokens": pa.int64(),
                           "vocab": pa.int64(), "entropy": pa.float64()}),
                r4=["entropy"])
    return out.map_batches(rnd, batch_format="pyarrow")


QUERIES["source_token_entropy"] = q_source_token_entropy

ORACLE_SQL["source_token_entropy"] = f"""
WITH tk AS (
  SELECT source,
         list_filter(regexp_split_to_array(lower(trim(text, {_SQL_TRIM})),
                                           '{_SQL_CLASS}'),
                     x -> x <> '') AS toks
  FROM documents),
c AS MATERIALIZED (
  SELECT source, md5_number_lower(t) AS h, count(*)::BIGINT AS c
  FROM (SELECT source, unnest(toks) AS t FROM tk) GROUP BY 1, 2),
g AS (SELECT source, sum(c)::BIGINT AS n_tokens,
             count(*)::BIGINT AS vocab,
             sum(c::DOUBLE * ln(c::DOUBLE)) AS s
      FROM c GROUP BY 1)
SELECT source, n_tokens, vocab,
       {_R4.format(expr='(ln(n_tokens::DOUBLE) - s / n_tokens::DOUBLE)')}
         AS entropy
FROM g
"""


# ---------------------------------------------------------------------------
# Behavioral analytics (stages/behavior.py)
# ---------------------------------------------------------------------------

_FUNNEL_CUTOFF_US = 1_704_153_600_000_000  # 2024-01-02T00:00:00Z


def q_cohort_retention(sf_dir: str):
    """Weekly cohort retention triangle over the event log
    (stages/behavior.py: cohort_retention): buckets are exact int64
    epoch_us // (7d in µs) on both sides, retained/cohort exact
    counts, rate the single 4dp-gated IEEE division."""
    from ..stages.behavior import cohort_retention

    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])
    out = cohort_retention(ds, bucket_s=7 * 86400)

    rnd = shape(pa.schema({"week": pa.int64(), "delta": pa.int64(),
                           "retained": pa.int64(), "cohort": pa.int64(),
                           "rate": pa.float64()}), r4=["rate"])
    return out.map_batches(rnd, batch_format="pyarrow")


QUERIES["cohort_retention"] = q_cohort_retention

ORACLE_SQL["cohort_retention"] = f"""
WITH uw AS MATERIALIZED (
  SELECT DISTINCT user_id AS u,
         epoch_us(ts) // {7 * 86400 * 1_000_000} AS w
  FROM events),
cs AS (SELECT w, count(*)::BIGINT AS cohort FROM uw GROUP BY 1),
p AS (SELECT a.w AS week, b.w - a.w AS delta, count(*)::BIGINT AS retained
      FROM uw a JOIN uw b ON a.u = b.u AND b.w > a.w GROUP BY 1, 2)
SELECT p.week, p.delta, p.retained, cs.cohort,
       {_R4.format(expr='(p.retained::DOUBLE / cs.cohort::DOUBLE)')} AS rate
FROM p JOIN cs ON cs.w = p.week
"""


def q_funnel_strict(sf_dir: str):
    """Strict-order view->click->purchase funnel over the first day of
    the event log (stages/behavior.py: funnel_counts — the chained-min
    formulation; the 1-day cutoff keeps per-user event slices sparse
    enough that the funnel actually discriminates at sf0.01: 56/19/3
    users).  All-integer decisions; the SQL oracle replays the chain
    with two joins."""
    from ..stages.behavior import funnel_counts

    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "event_type"])

    def cut(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ts = t["ts"].combine_chunks() \
            if isinstance(t["ts"], pa.ChunkedArray) else t["ts"]
        us = ts.cast(pa.int64())
        return t.filter(pc.less(us, _FUNNEL_CUTOFF_US))

    return funnel_counts(ds.map_batches(cut, batch_format="pyarrow"),
                         ["view", "click", "purchase"])


QUERIES["funnel_strict"] = q_funnel_strict

ORACLE_SQL["funnel_strict"] = f"""
WITH e AS (SELECT user_id, event_type, epoch_us(ts) AS t FROM events
           WHERE epoch_us(ts) < {_FUNNEL_CUTOFF_US}),
s1 AS (SELECT user_id, min(t) AS t FROM e WHERE event_type = 'view'
       GROUP BY 1),
s2 AS (SELECT e.user_id, min(e.t) AS t FROM e JOIN s1 USING (user_id)
       WHERE e.event_type = 'click' AND e.t > s1.t GROUP BY 1),
s3 AS (SELECT e.user_id, min(e.t) AS t FROM e JOIN s2 USING (user_id)
       WHERE e.event_type = 'purchase' AND e.t > s2.t GROUP BY 1)
SELECT 1::BIGINT AS step, 'view' AS event_type,
       (SELECT count(*) FROM s1)::BIGINT AS users
UNION ALL SELECT 2::BIGINT, 'click',
       (SELECT count(*) FROM s2)::BIGINT
UNION ALL SELECT 3::BIGINT, 'purchase',
       (SELECT count(*) FROM s3)::BIGINT
"""


# ---------------------------------------------------------------------------
# Exact set-similarity join (stages/setsim.py)
# ---------------------------------------------------------------------------

_SETSIM_NUM, _SETSIM_DEN = 2, 5   # Jaccard >= 0.4, integer-exact
_SETSIM_K = 3                     # trigram shingle sets


def q_setsim_join_exact(sf_dir: str):
    """EXACT shingle-set Jaccard >= 2/5 self-join over documents via
    All-Pairs/PPJoin prefix filtering (stages/setsim.py:
    prefix_jaccard_join) — the exact-recall counterpart of the LSH
    candidate path.  Set elements are trigram md5-low-64 hashes (the
    `dup_passages` convention), every pruning and the keep decision
    integer arithmetic, jaccard the single 4dp-gated IEEE division."""
    from ..stages.setsim import prefix_jaccard_join

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = prefix_jaccard_join(docs, threshold=(_SETSIM_NUM, _SETSIM_DEN),
                              shingle_k=_SETSIM_K)

    rnd = shape(pa.schema({"a": pa.int64(), "b": pa.int64(), "inter_n": pa.int64(),
                           "union_n": pa.int64(), "jaccard": pa.float64()}),
                r4=["jaccard"])
    return out.map_batches(rnd, batch_format="pyarrow")


QUERIES["setsim_join_exact"] = q_setsim_join_exact

ORACLE_SQL["setsim_join_exact"] = f"""
WITH {_TOK_CTE},
g AS MATERIALIZED (
  SELECT DISTINCT doc_id AS d,
         md5_number_lower(toks[p] || ' ' || toks[p+1] || ' ' ||
                          toks[p+2]) AS h
  FROM (SELECT doc_id, toks,
               unnest(generate_series(1, len(toks)-2)) AS p
        FROM tok WHERE len(toks) >= {_SETSIM_K})),
sz AS (SELECT d, count(*)::BIGINT AS n FROM g GROUP BY 1),
p AS (SELECT a.d AS a, b.d AS b, count(*)::BIGINT AS inter_n
      FROM g a JOIN g b ON a.h = b.h AND a.d < b.d GROUP BY 1, 2),
j AS (SELECT p.a, p.b, p.inter_n,
             (sa.n + sb.n - p.inter_n)::BIGINT AS union_n
      FROM p JOIN sz sa ON sa.d = p.a JOIN sz sb ON sb.d = p.b)
SELECT a, b, inter_n, union_n,
       {_R4.format(expr='(inter_n::DOUBLE / union_n::DOUBLE)')} AS jaccard
FROM j WHERE inter_n * {_SETSIM_DEN} >= union_n * {_SETSIM_NUM}
"""


def q_event_pair_support(sf_dir: str):
    """Length-2 sequential-pattern support over the event log
    (stages/behavior.py: event_pair_support): distinct users with a
    type_a event STRICTLY before a type_b event, via the all-integer
    min/max formulation — one activity-sized grouped min/max, one
    user range sort with a |types|²-bounded sweep, one pair count."""
    from ..stages.behavior import event_pair_support

    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "event_type"])
    return event_pair_support(ds)


QUERIES["event_pair_support"] = q_event_pair_support

ORACLE_SQL["event_pair_support"] = """
WITH mt AS (
  SELECT user_id AS u, event_type AS ty,
         min(epoch_us(ts)) AS mn, max(epoch_us(ts)) AS mx
  FROM events GROUP BY 1, 2)
SELECT a.ty AS type_a, b.ty AS type_b, count(*)::BIGINT AS users
FROM mt a JOIN mt b ON a.u = b.u AND a.ty <> b.ty AND a.mn < b.mx
GROUP BY 1, 2
"""


def q_profile_events(sf_dir: str):
    """Single-pass table profile of the event log (stages/profile.py:
    profile_table): per column n / nulls / exact distinct (md5-low-64
    plane, SQL-replayable) / numeric-temporal min-max, 4dp-gated."""
    from ..stages.profile import profile_table

    ds = read_table(sf_dir, "events")
    out = profile_table(ds)

    rnd = shape(pa.schema({"column": pa.string(), "n": pa.int64(), "nulls": pa.int64(),
                           "n_distinct": pa.int64(), "min_v": pa.float64(),
                           "max_v": pa.float64()}), r4=["min_v", "max_v"])
    return out.map_batches(rnd, batch_format="pyarrow")


QUERIES["profile_events"] = q_profile_events

_PROFILE_COL = """
SELECT '{c}' AS "column", count(*)::BIGINT AS n,
       (count(*) - count({c}))::BIGINT AS "nulls",
       {nd} AS n_distinct, {mn} AS min_v, {mx} AS max_v FROM events
"""


def _profile_events_sql() -> str:
    def part(c, nd_expr, val_expr):
        nd = (f"count(DISTINCT md5_number_lower({nd_expr}))::BIGINT"
              if nd_expr else "NULL::BIGINT")
        mn = (_R4.format(expr=f"min({val_expr})::DOUBLE")
              if val_expr else "NULL::DOUBLE")
        mx = (_R4.format(expr=f"max({val_expr})::DOUBLE")
              if val_expr else "NULL::DOUBLE")
        return _PROFILE_COL.format(c=c, nd=nd, mn=mn, mx=mx)

    return " UNION ALL ".join([
        part("event_id", "event_id::VARCHAR", "event_id"),
        part("event_type", "event_type", None),
        part("props", "props", None),
        part("ts", "epoch_us(ts)::VARCHAR", "epoch_us(ts)"),
        part("user_id", "user_id::VARCHAR", "user_id"),
        part("value", None, "value"),
    ])


ORACLE_SQL["profile_events"] = _profile_events_sql()


_NEG_PER_NODE, _NEG_SALT = 4, 7


def q_negative_edges(sf_dir: str):
    """Deterministic negative sampling over the directed distinct
    chord graph (stages/graph.py: negative_edges): per source,
    _NEG_PER_NODE content-addressed proposals
    md5_low64(f"{src},{slot},{_NEG_SALT}") % n, minus self-loops and
    real edges via one (src, dst) sort-merge anti join — the
    RNG-state-free link-prediction training split."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from ..stages.graph import negative_edges

    n = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    i = np.arange(n, dtype=np.int64)
    src = np.r_[i, i, i]
    dst = np.r_[(i + 1) % n, (i + 2) % n, (7 * i + 3) % n]
    keep = src != dst
    st = pa.table({"src": pa.array(src[keep]), "dst": pa.array(dst[keep])})
    # directed DISTINCT edge set (chord collisions dedup)
    df = st.to_pandas().drop_duplicates()
    edges = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
    return negative_edges(edges, num_nodes=int(n),
                          per_node=_NEG_PER_NODE, salt=_NEG_SALT,
                          partitions=4)


QUERIES["negative_edges"] = q_negative_edges

ORACLE_SQL["negative_edges"] = f"""
WITH nn AS (SELECT count(*)::BIGINT AS n FROM documents),
r AS (SELECT unnest(range((SELECT n FROM nn)))::BIGINT AS i),
raw AS (
  SELECT i AS s, (i + 1) % (SELECT n FROM nn) AS d FROM r
  UNION ALL SELECT i, (i + 2) % (SELECT n FROM nn) FROM r
  UNION ALL SELECT i, (7 * i + 3) % (SELECT n FROM nn) FROM r),
ed AS MATERIALIZED (SELECT DISTINCT s, d FROM raw WHERE s <> d),
srcs AS (SELECT DISTINCT s FROM ed),
prop AS (
  SELECT s, j::BIGINT AS slot,
         (md5_number_lower(s::VARCHAR || ',' || j::VARCHAR ||
                           ',{_NEG_SALT}')
          % (SELECT n FROM nn))::BIGINT AS dst
  FROM srcs, range({_NEG_PER_NODE}) t(j))
SELECT p.s AS src, p.dst, p.slot
FROM prop p
WHERE p.dst <> p.s
  AND NOT EXISTS (SELECT 1 FROM ed e WHERE e.s = p.s AND e.d = p.dst)
"""


def q_events_pareto(sf_dir: str):
    """2-D skyline over the event log (stages/skyline.py:
    pareto_frontier): events not dominated under (maximize integer
    cents, minimize epoch µs) — the 'highest value, seen earliest'
    frontier; all-integer comparisons, NOT EXISTS oracle."""
    from ..stages.skyline import pareto_frontier

    ds = read_table(sf_dir, "events", columns=["event_id", "ts", "value"])

    def proj(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.schema([("event_id", pa.int64()),
                              ("cents", pa.int64()),
                              ("us", pa.int64())]).empty_table()
        v = _non_null_numpy(t, "value")
        ts = t["ts"].combine_chunks() \
            if isinstance(t["ts"], pa.ChunkedArray) else t["ts"]
        return pa.table({
            "event_id": t["event_id"],
            "cents": pa.array(np.floor(v * 100).astype(np.int64)),
            "us": ts.cast(pa.int64()),
        })

    return pareto_frontier(ds.map_batches(proj, batch_format="pyarrow"),
                           max_col="cents", min_col="us")


QUERIES["events_pareto"] = q_events_pareto

ORACLE_SQL["events_pareto"] = """
WITH e AS MATERIALIZED (
  SELECT event_id, floor(value*100)::BIGINT AS cents,
         epoch_us(ts) AS us
  FROM events)
SELECT event_id, cents, us FROM e a
WHERE NOT EXISTS (
  SELECT 1 FROM e b
  WHERE b.cents >= a.cents AND b.us <= a.us
    AND (b.cents > a.cents OR b.us < a.us))
"""


_GAPFILL_BUCKET_S = 6 * 3600  # 6-hour buckets: real gaps at every sf


def q_user_activity_gapfill(sf_dir: str):
    """Per-user dense activity grid (stages/windows.py:
    gapfill_counts): one row per 6-hour bucket between each user's
    first and last event, zero-filled — the densification pass before
    any rolling/forecast model; all-integer buckets and counts."""
    from ..stages.windows import gapfill_counts

    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])
    return gapfill_counts(ds, bucket_s=_GAPFILL_BUCKET_S)


QUERIES["user_activity_gapfill"] = q_user_activity_gapfill

ORACLE_SQL["user_activity_gapfill"] = f"""
WITH kb AS (
  SELECT user_id, epoch_us(ts) // {_GAPFILL_BUCKET_S * 1_000_000} AS w,
         count(*)::BIGINT AS c
  FROM events GROUP BY 1, 2),
rng AS (SELECT user_id, min(w) AS lo, max(w) AS hi FROM kb GROUP BY 1),
grid AS (SELECT user_id, unnest(generate_series(lo, hi))::BIGINT AS w
         FROM rng)
SELECT g.user_id, g.w AS bucket, coalesce(kb.c, 0)::BIGINT AS cnt
FROM grid g LEFT JOIN kb ON kb.user_id = g.user_id AND kb.w = g.w
"""


def q_event_type_props_assoc(sf_dir: str):
    """Categorical association (chi-square / MI / Cramér's V) between
    event_type and props (stages/stats.py: association_stats): the
    contingency exchange is |types|×|props| cells by contract; the
    closed forms run over exact int64 cells with the zero-cell chi²
    contribution folded in as n − Σe; all three floats 4dp-gated."""
    from ..stages.stats import association_stats

    ds = read_table(sf_dir, "events", columns=["event_type", "props"])
    out = association_stats(ds, a_col="event_type", b_col="props")

    rnd = shape(pa.schema({"n": pa.int64(), "cells": pa.int64(), "dof": pa.int64(),
                           "chi2": pa.float64(), "mi": pa.float64(),
                           "cramers_v": pa.float64()}), r4=["chi2", "mi", "cramers_v"])
    return out.map_batches(rnd, batch_format="pyarrow")


QUERIES["event_type_props_assoc"] = q_event_type_props_assoc

ORACLE_SQL["event_type_props_assoc"] = f"""
WITH c AS MATERIALIZED (
  SELECT event_type AS a, props AS b, count(*)::BIGINT AS o
  FROM events GROUP BY 1, 2),
m AS (SELECT a, sum(o)::BIGINT AS ra FROM c GROUP BY 1),
k AS (SELECT b, sum(o)::BIGINT AS cb FROM c GROUP BY 1),
nn AS (SELECT sum(o)::BIGINT AS n FROM c),
x AS (SELECT c.o, m.ra, k.cb, (SELECT n FROM nn) AS n
      FROM c JOIN m USING (a) JOIN k USING (b)),
s AS (SELECT max(n) AS n, count(*)::BIGINT AS cells,
             sum((o - ra::DOUBLE * cb / n) ^ 2
                 / (ra::DOUBLE * cb / n)) AS chi_obs,
             sum(ra::DOUBLE * cb / n) AS e_sum,
             sum((o::DOUBLE / n)
                 * ln(o::DOUBLE * n / (ra::DOUBLE * cb))) AS mi_raw,
             (SELECT count(*) FROM m)::BIGINT AS ka,
             (SELECT count(*) FROM k)::BIGINT AS kb
      FROM x)
SELECT n, cells, ((ka - 1) * (kb - 1))::BIGINT AS dof,
       {_R4.format(expr='(chi_obs + (n - e_sum))')} AS chi2,
       {_R4.format(expr='mi_raw')} AS mi,
       {_R4.format(expr='sqrt((chi_obs + (n - e_sum)) '
                        '/ (n * (least(ka, kb) - 1)))')} AS cramers_v
FROM s
"""


_Q3_DATE_US = 852_076_800_000_000  # 1997-01-01T00:00:00Z


def q_top_unshipped_orders(sf_dir: str):
    """TPC-H Q3-pattern composition: BUILDING-segment customers ⨝
    pre-cutoff orders ⨝ post-cutoff lineitems → per-order revenue →
    global top 10 — the classic shipping-priority query, composed
    from the existing join/agg/sort operators.  Revenue is EXACT
    int64 cents×percent (floor(price*100+0.5) * (100 −
    floor(disc*100+0.5))), so the top-10 cut and its orderkey
    tiebreak are fully deterministic across engines."""
    import pyarrow.compute as pc

    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.join import sort_merge_join

    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])

    def seg(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["c_mktsegment"], "BUILDING"))
        return t.select(["c_custkey"])

    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey",
                                                   "o_orderdate", "o_orderpriority"])

    def ofilt(t: pa.Table) -> pa.Table:
        od = t["o_orderdate"].combine_chunks() \
            if isinstance(t["o_orderdate"], pa.ChunkedArray) \
            else t["o_orderdate"]
        us = od.cast(pa.int64())
        t = t.set_column(t.schema.get_field_index("o_orderdate"),
                         "o_orderdate", us)
        return t.filter(pc.less(us, _Q3_DATE_US))

    o_f = orders.map_batches(ofilt, batch_format="pyarrow")
    o_b = sort_merge_join(
        o_f, cust.map_batches(seg, batch_format="pyarrow"),
        on="o_custkey", right_on="c_custkey", how="semi",
        left_schema=pa.schema([("o_orderkey", pa.int64()),
                               ("o_custkey", pa.int64()),
                               ("o_orderdate", pa.int64()),
                               ("o_orderpriority", pa.string())]),
        right_schema=pa.schema([("c_custkey", pa.int64())]))

    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice",
                                                 "l_discount", "l_shipdate"])

    def lfilt(t: pa.Table) -> pa.Table:
        us = _ts_int64(t, "l_shipdate")
        keep = us > _Q3_DATE_US
        p = _non_null_numpy(t, "l_extendedprice")[keep]
        d = _non_null_numpy(t, "l_discount")[keep]
        cents = np.floor(p * 100 + 0.5).astype(np.int64) \
            * (100 - np.floor(d * 100 + 0.5).astype(np.int64))
        k = _non_null_numpy(t, "l_orderkey")[keep]
        return pa.table({"l_orderkey": pa.array(k.astype(np.int64)),
                         "rev": pa.array(cents)})

    joined = sort_merge_join(
        li.map_batches(lfilt, batch_format="pyarrow"), o_b,
        on="l_orderkey", right_on="o_orderkey", how="inner",
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("rev", pa.int64())]),
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("o_custkey", pa.int64()),
                                ("o_orderdate", pa.int64()),
                                ("o_orderpriority", pa.string())]))

    agg = sorted_groupby_agg(
        joined.select_columns(["l_orderkey", "o_orderdate",
                               "o_orderpriority", "rev"]),
        ["l_orderkey", "o_orderdate", "o_orderpriority"],
        [("rev", "sum", "revenue")])

    return agg.sort(["revenue", "l_orderkey"],
                    descending=[True, False]).limit(10)


QUERIES["top_unshipped_orders"] = q_top_unshipped_orders

ORACLE_SQL["top_unshipped_orders"] = f"""
SELECT l.l_orderkey, epoch_us(o.o_orderdate)::BIGINT AS o_orderdate,
       o.o_orderpriority,
       sum(floor(l.l_extendedprice * 100 + 0.5)::BIGINT
           * (100 - floor(l.l_discount * 100 + 0.5)::BIGINT))::BIGINT
         AS revenue
FROM customer c JOIN orders o ON o.o_custkey = c.c_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE c.c_mktsegment = 'BUILDING'
  AND epoch_us(o.o_orderdate) < {_Q3_DATE_US}
  AND epoch_us(l.l_shipdate) > {_Q3_DATE_US}
GROUP BY 1, 2, 3
ORDER BY revenue DESC, l.l_orderkey
LIMIT 10
"""


_POP_BUCKET_S = 7 * 86400  # weekly


def q_user_weekly_growth(sf_dir: str):
    """Period-over-period growth series: weekly per-user activity
    counts DENSIFIED by gapfill_counts (so LAG aligns calendar weeks,
    not merely observed weeks), lag_column for the previous week, the
    exact int64 difference, and rate = cnt/prev (NULL on prev = 0)
    4dp-gated — the composition every metrics dashboard runs."""
    from ..stages.scan import lag_column
    from ..stages.windows import gapfill_counts

    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])
    grid = gapfill_counts(ds, bucket_s=_POP_BUCKET_S)
    lagged = lag_column(grid, value_col="cnt", order_by="bucket",
                        key_col="user_id", out_col="prev_cnt")

    out_schema = pa.schema([
        ("user_id", pa.int64()), ("bucket", pa.int64()),
        ("cnt", pa.int64()), ("prev_cnt", pa.int64()),
        ("diff", pa.int64()), ("rate", pa.float64())])

    def fin(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        import pyarrow.compute as pc

        c = _non_null_numpy(t, "cnt").astype(np.int64)
        prev = t["prev_cnt"]
        prev = prev.combine_chunks() \
            if isinstance(prev, pa.ChunkedArray) else prev
        pn = prev.to_numpy(zero_copy_only=False)
        has = ~pc.is_null(prev).to_numpy(zero_copy_only=False)
        pz = np.where(has, pn, 0).astype(np.int64)
        diff = np.where(has, c - pz, 0)
        ok = has & (pz > 0)
        rate = np.where(ok, c / np.maximum(pz, 1), np.nan)
        return pa.table({
            "user_id": t["user_id"], "bucket": t["bucket"],
            "cnt": t["cnt"],
            "prev_cnt": pa.array(pz, mask=~has),
            "diff": pa.array(diff, mask=~has),
            "rate": pa.array(_r4(rate), mask=~ok),
        })

    return lagged.map_batches(fin, batch_format="pyarrow")


QUERIES["user_weekly_growth"] = q_user_weekly_growth

ORACLE_SQL["user_weekly_growth"] = f"""
WITH kb AS (
  SELECT user_id, epoch_us(ts) // {_POP_BUCKET_S * 1_000_000} AS w,
         count(*)::BIGINT AS c
  FROM events GROUP BY 1, 2),
rng AS (SELECT user_id, min(w) AS lo, max(w) AS hi FROM kb GROUP BY 1),
grid AS (SELECT r.user_id, unnest(generate_series(r.lo, r.hi))::BIGINT
           AS w FROM rng r),
g AS (SELECT grid.user_id, grid.w AS bucket,
             coalesce(kb.c, 0)::BIGINT AS cnt
      FROM grid LEFT JOIN kb ON kb.user_id = grid.user_id
                            AND kb.w = grid.w),
lg AS (SELECT user_id, bucket, cnt,
              lag(cnt) OVER (PARTITION BY user_id ORDER BY bucket)
                AS prev_cnt
       FROM g)
SELECT user_id, bucket, cnt, prev_cnt,
       (cnt - prev_cnt)::BIGINT AS diff,
       CASE WHEN prev_cnt > 0 THEN
         {_R4.format(expr='(cnt::DOUBLE / prev_cnt::DOUBLE)')}
       ELSE NULL END AS rate
FROM lg
"""


_CDC_DAY_US = 86_400_000_000


def q_orders_cdc_merge(sf_dir: str):
    """CDC merge (stages/upsert.py: apply_changes): fold a
    deterministic change stream into orders — every 10th orderkey an
    update (+1000 total price, version = orderdate + 1 day), every
    17th a delete (version + 2 days; keys divisible by both get the
    update then the delete, and the delete wins on version) — the
    lakehouse MERGE INTO pattern, winner selection one integer
    (version·2 + priority) grouped max."""
    import pyarrow.compute as pc

    from ..stages.upsert import apply_changes

    cols = ["o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice",
            "o_orderdate", "o_orderpriority"]
    orders = read_table(sf_dir, "orders", columns=cols)

    to_us = shape(pa.schema({"o_orderkey": pa.int64(), "o_custkey": pa.int64(),
                             "o_orderstatus": pa.string(), "o_totalprice": pa.float64(),
                             "o_orderdate": pa.int64(), "o_orderpriority": pa.string()}))
    base = orders.map_batches(to_us, batch_format="pyarrow")

    def mk_changes(t: pa.Table) -> pa.Table:
        empty = pa.schema(
            [(n, t.schema.field(n).type) for n in cols]
            + [("is_del", pa.bool_())]).empty_table()
        if t.num_rows == 0:
            return empty
        k = t["o_orderkey"].to_numpy(zero_copy_only=False)
        upd = t.filter(pa.array(k % 10 == 0))
        dl = t.filter(pa.array(k % 17 == 0))
        parts = []
        if upd.num_rows:
            parts.append(pa.table({
                "o_orderkey": upd["o_orderkey"],
                "o_custkey": upd["o_custkey"],
                "o_orderstatus": upd["o_orderstatus"],
                "o_totalprice": pc.add(upd["o_totalprice"], 1000.0),
                "o_orderdate": pc.add(upd["o_orderdate"], _CDC_DAY_US),
                "o_orderpriority": upd["o_orderpriority"],
                "is_del": pa.array(np.zeros(upd.num_rows, bool)),
            }))
        if dl.num_rows:
            parts.append(pa.table({
                "o_orderkey": dl["o_orderkey"],
                "o_custkey": dl["o_custkey"],
                "o_orderstatus": dl["o_orderstatus"],
                "o_totalprice": dl["o_totalprice"],
                "o_orderdate": pc.add(dl["o_orderdate"],
                                      2 * _CDC_DAY_US),
                "o_orderpriority": dl["o_orderpriority"],
                "is_del": pa.array(np.ones(dl.num_rows, bool)),
            }))
        return pa.concat_tables(parts) if parts else empty

    changes = base.map_batches(mk_changes, batch_format="pyarrow")
    return apply_changes(base, changes, key_cols=["o_orderkey"],
                         version_col="o_orderdate", delete_col="is_del")


QUERIES["orders_cdc_merge"] = q_orders_cdc_merge

ORACLE_SQL["orders_cdc_merge"] = f"""
WITH b AS (
  SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice,
         epoch_us(o_orderdate) AS o_orderdate, o_orderpriority,
         0 AS pri, FALSE AS dl
  FROM orders),
u AS (
  SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice + 1000,
         o_orderdate + {_CDC_DAY_US}, o_orderpriority, 1, FALSE
  FROM b WHERE o_orderkey % 10 = 0),
d AS (
  SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice,
         o_orderdate + {2 * _CDC_DAY_US}, o_orderpriority, 1, TRUE
  FROM b WHERE o_orderkey % 17 = 0),
a AS (SELECT * FROM b UNION ALL SELECT * FROM u
      UNION ALL SELECT * FROM d),
w AS (SELECT *, row_number() OVER (
        PARTITION BY o_orderkey
        ORDER BY o_orderdate DESC, pri DESC) AS rn
      FROM a)
SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice,
       o_orderdate, o_orderpriority
FROM w WHERE rn = 1 AND NOT dl
"""


def q_kmeans_silhouette(sf_dir: str):
    """Per-cluster simplified silhouette of the kmeans_assign seeding
    (stages/similarity.py: cluster_silhouette): a = dist to nearest
    centroid, b = second-nearest, s = (b−a)/max(a,b), distances
    4dp-rounded before the mins (the kmeans_assign tie convention);
    mean_sil = Σs/n gated 4dp."""
    import ray

    from ..stages.similarity import cluster_silhouette

    emb, cents = _kmeans_cent_ref(sf_dir)
    out = cluster_silhouette(emb, ray.put(cents))

    rnd = shape(pa.schema({"cluster": pa.int64(), "n": pa.int64(),
                           "mean_sil": pa.float64()}), r4=["mean_sil"])
    return out.map_batches(rnd, batch_format="pyarrow")


QUERIES["kmeans_silhouette"] = q_kmeans_silhouette

ORACLE_SQL["kmeans_silhouette"] = f"""
WITH c AS (
  SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cid,
         embedding AS cemb
  FROM (SELECT * FROM embeddings ORDER BY vec_id LIMIT {KMEANS_K})),
d AS (
  SELECT e.vec_id, c.cid,
         {_R4.format(expr="list_distance(e.embedding::DOUBLE[], "
                          "c.cemb::DOUBLE[])")} AS dist
  FROM embeddings e CROSS JOIN c),
r AS (
  SELECT vec_id, cid, dist,
         row_number() OVER (PARTITION BY vec_id
                            ORDER BY dist, cid) AS rn
  FROM d),
own AS (SELECT vec_id, cid AS cluster, dist AS da FROM r WHERE rn = 1),
oth AS (SELECT r.vec_id, min(r.dist) AS db
        FROM r JOIN own USING (vec_id)
        WHERE r.cid <> own.cluster GROUP BY 1),
s AS (SELECT own.cluster,
             CASE WHEN greatest(da, db) > 0
                  THEN (db - da) / greatest(da, db)
                  ELSE 0.0 END AS sil
      FROM own JOIN oth USING (vec_id))
SELECT cluster::BIGINT AS cluster, count(*)::BIGINT AS n,
       {_R4.format(expr='(sum(sil) / count(*))')} AS mean_sil
FROM s GROUP BY 1
"""


def q_langid_kappa(sf_dir: str):
    """Cohen's κ between the labeled lang column and the langid
    prediction (stages/stats.py: cohens_kappa) — the scalar
    agreement score on top of the langid_confusion matrix; every sum
    exact int64, po/pe/κ fixed expressions (4dp-gated)."""
    from ..stages.stats import cohens_kappa
    from ..stages.textstats import langid_batch

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def pred(t: pa.Table) -> pa.Table:
        out = langid_batch(t)
        return out.append_column("lang", t["lang"])

    ds = docs.map_batches(pred, batch_format="pyarrow")
    out = cohens_kappa(ds, a_col="lang", b_col="pred_lang")

    rnd = shape(pa.schema({"n": pa.int64(), "agree": pa.int64(), "po": pa.float64(),
                           "pe": pa.float64(), "kappa": pa.float64()}),
                r4=["po", "pe", "kappa"])
    return out.map_batches(rnd, batch_format="pyarrow")


QUERIES["langid_kappa"] = q_langid_kappa

ORACLE_SQL["langid_kappa"] = f"""
WITH p AS (SELECT d.lang, q.pred_lang
           FROM ({_langid_sql()}) q
           JOIN documents d USING (doc_id)),
c AS (SELECT p.lang AS a, p.pred_lang AS b, count(*)::BIGINT AS o
      FROM p GROUP BY 1, 2),
m AS (SELECT a, sum(o)::BIGINT AS r FROM c GROUP BY 1),
k AS (SELECT b, sum(o)::BIGINT AS cc FROM c GROUP BY 1),
nn AS (SELECT sum(o)::BIGINT AS n,
              sum(CASE WHEN a = b THEN o ELSE 0 END)::BIGINT AS agree
       FROM c),
ch AS (SELECT sum(m.r * k.cc)::BIGINT AS chance
       FROM m JOIN k ON k.b = m.a)
SELECT nn.n, nn.agree,
       {_R4.format(expr='(nn.agree::DOUBLE / nn.n)')} AS po,
       {_R4.format(expr='(ch.chance::DOUBLE / (nn.n * nn.n))')} AS pe,
       CASE WHEN ch.chance = nn.n * nn.n THEN NULL ELSE
         {_R4.format(
             expr='((nn.agree::DOUBLE / nn.n '
                  '- ch.chance::DOUBLE / (nn.n * nn.n)) '
                  '/ (1.0 - ch.chance::DOUBLE / (nn.n * nn.n)))')}
       END AS kappa
FROM nn, ch
"""


def q_order_custkey_skew(sf_dir: str):
    """Key-skew report over orders per customer (stages/stats.py:
    key_skew_stats): n_keys / n_rows / max_cnt exact int64, max_share
    and the rank-form gini fixed expressions over exact integers
    (4dp-gated) — the diagnostic that dispatches the salted join."""
    from ..stages.stats import key_skew_stats

    ds = read_table(sf_dir, "orders", columns=["o_custkey"])
    out = key_skew_stats(ds, key_col="o_custkey")

    rnd = shape(pa.schema({"n_keys": pa.int64(), "n_rows": pa.int64(),
                           "max_cnt": pa.int64(), "max_share": pa.float64(),
                           "gini": pa.float64()}), r4=["max_share", "gini"])
    return out.map_batches(rnd, batch_format="pyarrow")


QUERIES["order_custkey_skew"] = q_order_custkey_skew

ORACLE_SQL["order_custkey_skew"] = f"""
WITH c AS (SELECT o_custkey AS k, count(*)::BIGINT AS cnt
           FROM orders GROUP BY 1),
r AS (SELECT cnt, row_number() OVER (ORDER BY cnt, k)::BIGINT AS i
      FROM c),
s AS (SELECT count(*)::BIGINT AS nk, sum(cnt)::BIGINT AS s0,
             sum(i * cnt)::BIGINT AS s1, max(cnt)::BIGINT AS mx
      FROM r)
SELECT nk AS n_keys, s0 AS n_rows, mx AS max_cnt,
       {_R4.format(expr='(mx::DOUBLE / s0)')} AS max_share,
       {_R4.format(expr='((2 * s1 - (nk + 1) * s0)::DOUBLE '
                        '/ (nk * s0))')} AS gini
FROM s
"""


def q_lsh_recall(sf_dir: str):
    """LSH candidate-generation RECALL against exact ground truth —
    the evaluation every approximate-dedup deployment owes its users:
    ground truth = prefix_jaccard_join (exact trigram-set Jaccard >=
    2/5, no false negatives), candidates = minhash_candidate_pairs
    (the production LSH path), recall = |cand ∩ exact| / |exact| via
    one (a, b) semi join.  One row (n_exact, n_candidates, n_hit,
    recall 4dp-gated)."""
    import ray.data as rd

    from ..stages.dedup import minhash_candidate_pairs
    from ..stages.join import sort_merge_join
    from ..stages.setsim import prefix_jaccard_join

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    exact = prefix_jaccard_join(
        docs, threshold=(_SETSIM_NUM, _SETSIM_DEN),
        shingle_k=_SETSIM_K).select_columns(["a", "b"]).materialize()
    cand, _ = minhash_candidate_pairs(docs)
    cand = cand.materialize()
    pair_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])
    hit = sort_merge_join(exact, cand, on=["a", "b"], how="semi",
                          left_schema=pair_schema,
                          right_schema=pair_schema)
    n_exact, n_cand, n_hit = exact.count(), cand.count(), hit.count()
    recall = _r4(np.array([n_hit / n_exact]))[0] if n_exact else None
    return rd.from_arrow(pa.table({
        "n_exact": pa.array([n_exact], pa.int64()),
        "n_candidates": pa.array([n_cand], pa.int64()),
        "n_hit": pa.array([n_hit], pa.int64()),
        "recall": pa.array([recall], pa.float64()),
    }))


QUERIES["lsh_recall"] = q_lsh_recall

ORACLE_SQL["lsh_recall"] = f"""
WITH ex AS MATERIALIZED (
  SELECT a, b FROM ({ORACLE_SQL["setsim_join_exact"]}) x),
cd AS MATERIALIZED (
  SELECT a, b FROM ({ORACLE_SQL["minhash_near_pairs"]}) y),
h AS (SELECT count(*)::BIGINT AS n_hit
      FROM ex JOIN cd USING (a, b))
SELECT (SELECT count(*) FROM ex)::BIGINT AS n_exact,
       (SELECT count(*) FROM cd)::BIGINT AS n_candidates,
       h.n_hit,
       {_R4.format(expr='(h.n_hit::DOUBLE '
                        '/ (SELECT count(*) FROM ex))')} AS recall
FROM h
"""


def q_session_stats(sf_dir: str):
    """Per-user session summary on top of `sessionize` (30-minute
    gap): n_sessions, total events, mean events/session and mean
    session duration in seconds — integer sums with two 4dp-gated
    divisions; the composition every engagement dashboard runs."""
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.windows import sessionize

    ev = read_table(sf_dir, "events", columns=["user_id", "ts", "value"])
    sess = sessionize(ev, gap_s=1800.0)

    part_schema = pa.schema([
        ("user_id", pa.int64()), ("n_sessions", pa.int64()),
        ("n_events", pa.int64()), ("dur_us", pa.int64())])

    def proj(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return part_schema.empty_table()
        s = _non_null_numpy(t, "session_start_us")
        e = _non_null_numpy(t, "session_end_us")
        return pa.table({
            "user_id": t["user_id"],
            "n_sessions": pa.array(np.ones(t.num_rows, np.int64)),
            "n_events": t["n_events"],
            "dur_us": pa.array((e - s).astype(np.int64)),
        })

    agg = sorted_groupby_agg(
        sess.map_batches(proj, batch_format="pyarrow"),
        ["user_id"],
        [("n_sessions", "sum", "n_sessions"),
         ("n_events", "sum", "n_events"),
         ("dur_us", "sum", "dur_us")], in_schema=part_schema)

    out_schema = pa.schema([
        ("user_id", pa.int64()), ("n_sessions", pa.int64()),
        ("n_events", pa.int64()), ("mean_events", pa.float64()),
        ("mean_dur_s", pa.float64())])

    def fin(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return out_schema.empty_table()
        ns = t["n_sessions"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        ne = t["n_events"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        du = t["dur_us"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        return pa.table({
            "user_id": t["user_id"], "n_sessions": t["n_sessions"],
            "n_events": t["n_events"],
            "mean_events": pa.array(_r4(ne / ns)),
            "mean_dur_s": pa.array(_r4(du / ns / 1e6)),
        })

    return agg.map_batches(fin, batch_size=None, batch_format="pyarrow")


QUERIES["session_stats"] = q_session_stats

ORACLE_SQL["session_stats"] = """
WITH e AS (
  SELECT user_id, epoch_us(ts) AS t,
         CASE WHEN epoch_us(ts)
              - lag(epoch_us(ts)) OVER (PARTITION BY user_id
                                        ORDER BY epoch_us(ts))
              > 1800000000 THEN 1 ELSE 0 END AS brk
  FROM events),
g AS (SELECT user_id, t,
             sum(brk) OVER (PARTITION BY user_id ORDER BY t
                            ROWS UNBOUNDED PRECEDING) AS sid
      FROM e),
s AS (SELECT user_id, sid, min(t) AS st, max(t) AS en,
             count(*)::BIGINT AS n
      FROM g GROUP BY 1, 2),
u AS (SELECT user_id, count(*)::BIGINT AS n_sessions,
             sum(n)::BIGINT AS n_events,
             sum(en - st)::BIGINT AS dur_us
      FROM s GROUP BY 1)
SELECT user_id, n_sessions, n_events,
       floor(n_events::DOUBLE / n_sessions * 10000 + 0.5) / 10000
         AS mean_events,
       floor(dur_us::DOUBLE / n_sessions / 1000000.0 * 10000 + 0.5)
         / 10000 AS mean_dur_s
FROM u
"""


_RADIUS_R = 0.35


def q_events_radius_join(sf_dir: str):
    """Grid-bucketed spatial radius self-join (stages/spatial.py:
    radius_join) over content-addressed coordinates: each event maps
    to x = (md5(event_id||',x') % 10⁶)/10⁴, y likewise — a uniform
    [0, 100)² cloud both engines derive identically — and all pairs
    within r = 0.35 surface through the fixed-grid plan (one 5×-stamp
    cell sort, never all-pairs).  dist 4dp-gated."""
    from ..functions.hashing import md5_low64_batch
    from ..stages.spatial import radius_join

    ev = read_table(sf_dir, "events", columns=["event_id"])

    def coords(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.schema([("id", pa.int64()), ("x", pa.float64()),
                              ("y", pa.float64())]).empty_table()
        ids = _non_null_numpy(t, "event_id").astype(np.int64)
        hx = md5_low64_batch([f"{i},x" for i in ids])
        hy = md5_low64_batch([f"{i},y" for i in ids])
        x = (hx % np.uint64(1_000_000)).astype(np.float64) / 10000.0
        y = (hy % np.uint64(1_000_000)).astype(np.float64) / 10000.0
        return pa.table({"id": pa.array(ids), "x": pa.array(x),
                         "y": pa.array(y)})

    out = radius_join(ev.map_batches(coords, batch_format="pyarrow"),
                      r=_RADIUS_R)

    rnd = shape(pa.schema({"a": pa.int64(), "b": pa.int64(), "dist": pa.float64()}),
                r4=["dist"])
    return out.map_batches(rnd, batch_format="pyarrow")


QUERIES["events_radius_join"] = q_events_radius_join

ORACLE_SQL["events_radius_join"] = f"""
WITH p AS MATERIALIZED (
  SELECT event_id AS id,
         (md5_number_lower(event_id::VARCHAR || ',x')
          % 1000000)::DOUBLE / 10000.0 AS x,
         (md5_number_lower(event_id::VARCHAR || ',y')
          % 1000000)::DOUBLE / 10000.0 AS y
  FROM events),
c AS MATERIALIZED (
  SELECT *, floor(x / {_RADIUS_R})::BIGINT AS cx,
         floor(y / {_RADIUS_R})::BIGINT AS cy
  FROM p),
n9 AS (SELECT a.id, a.x, a.y, a.cx + dx.o AS cx2, a.cy + dy.o AS cy2
       FROM c a, (VALUES (-1), (0), (1)) dx(o),
                 (VALUES (-1), (0), (1)) dy(o)),
j AS (SELECT n9.id AS ia, b.id AS ib,
             (n9.x - b.x) * (n9.x - b.x)
             + (n9.y - b.y) * (n9.y - b.y) AS d2
      FROM n9 JOIN c b ON b.cx = n9.cx2 AND b.cy = n9.cy2
                      AND n9.id < b.id)
SELECT ia AS a, ib AS b,
       {_R4.format(expr='sqrt(d2)')} AS dist
FROM j WHERE d2 <= {_RADIUS_R} * {_RADIUS_R}
"""


_DBSCAN_R, _DBSCAN_MINPTS, _DBSCAN_CC_ITERS = 0.35, 3, 8


def q_events_dbscan(sf_dir: str):
    """DBSCAN over the content-addressed event point cloud
    (stages/spatial.py: dbscan_labels): ε = 0.35, min_pts = 3 on the
    uniform [0,100)² cloud — sub-critical density, so the output is a
    mix of small percolation clusters, border points and noise (all
    three roles populated at sf0.01); min-reachable-id cluster labels
    and min-label border assignment make every label deterministic."""
    from ..functions.hashing import md5_low64_batch
    from ..stages.spatial import dbscan_labels

    ev = read_table(sf_dir, "events", columns=["event_id"])

    def coords(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.schema([("id", pa.int64()), ("x", pa.float64()),
                              ("y", pa.float64())]).empty_table()
        ids = _non_null_numpy(t, "event_id").astype(np.int64)
        hx = md5_low64_batch([f"{i},x" for i in ids])
        hy = md5_low64_batch([f"{i},y" for i in ids])
        x = (hx % np.uint64(1_000_000)).astype(np.float64) / 10000.0
        y = (hy % np.uint64(1_000_000)).astype(np.float64) / 10000.0
        return pa.table({"id": pa.array(ids), "x": pa.array(x),
                         "y": pa.array(y)})

    return dbscan_labels(ev.map_batches(coords, batch_format="pyarrow"),
                         r=_DBSCAN_R, min_pts=_DBSCAN_MINPTS)


QUERIES["events_dbscan"] = q_events_dbscan


def _dbscan_sql() -> str:
    steps = []
    for k in range(_DBSCAN_CC_ITERS):
        steps.append(f"""
l{k + 1} AS MATERIALIZED (
  SELECT n.node,
         least(n.comp,
               coalesce(min(nb.comp), n.comp),
               coalesce(min(pj.comp), n.comp)) AS comp
  FROM l{k} n
  LEFT JOIN e ON e.src = n.node
  LEFT JOIN l{k} nb ON nb.node = e.dst
  LEFT JOIN l{k} pj ON pj.node = n.comp
  GROUP BY n.node, n.comp
)""")
    last = f"l{_DBSCAN_CC_ITERS}"
    return f"""
WITH p AS MATERIALIZED (
  SELECT event_id AS id,
         (md5_number_lower(event_id::VARCHAR || ',x')
          % 1000000)::DOUBLE / 10000.0 AS x,
         (md5_number_lower(event_id::VARCHAR || ',y')
          % 1000000)::DOUBLE / 10000.0 AS y
  FROM events),
c AS MATERIALIZED (
  SELECT *, floor(x / {_DBSCAN_R})::BIGINT AS cx,
         floor(y / {_DBSCAN_R})::BIGINT AS cy
  FROM p),
n9 AS (SELECT a.id, a.x, a.y, a.cx + dx.o AS cx2, a.cy + dy.o AS cy2
       FROM c a, (VALUES (-1), (0), (1)) dx(o),
                 (VALUES (-1), (0), (1)) dy(o)),
pr AS MATERIALIZED (
  SELECT n9.id AS a, b.id AS b
  FROM n9 JOIN c b ON b.cx = n9.cx2 AND b.cy = n9.cy2
                  AND n9.id < b.id
  WHERE (n9.x - b.x) * (n9.x - b.x)
        + (n9.y - b.y) * (n9.y - b.y)
        <= {_DBSCAN_R} * {_DBSCAN_R}),
dg AS (SELECT n, count(*)::BIGINT AS deg
       FROM (SELECT a AS n FROM pr UNION ALL SELECT b FROM pr)
       GROUP BY 1),
core AS MATERIALIZED (
  SELECT n FROM dg WHERE deg + 1 >= {_DBSCAN_MINPTS}),
e0 AS (SELECT pr.a, pr.b FROM pr
       JOIN core ca ON ca.n = pr.a JOIN core cb ON cb.n = pr.b),
e AS MATERIALIZED (SELECT a AS src, b AS dst FROM e0
                   UNION ALL SELECT b, a FROM e0),
l0 AS MATERIALIZED (
  SELECT co.n AS node,
         least(co.n, coalesce(mn.m, co.n)) AS comp
  FROM core co
  LEFT JOIN (SELECT src, min(dst) AS m FROM e GROUP BY 1) mn
    ON mn.src = co.n),
{','.join(steps)},
bd AS (
  SELECT d.p AS node, min(l.comp) AS comp
  FROM (SELECT a AS p, b AS q FROM pr UNION ALL SELECT b, a FROM pr) d
  JOIN core cq ON cq.n = d.q
  JOIN {last} l ON l.node = d.q
  WHERE d.p NOT IN (SELECT n FROM core)
  GROUP BY 1)
SELECT p.id,
       coalesce(cl.comp, bd.comp, -1)::BIGINT AS label,
       CASE WHEN cl.comp IS NOT NULL THEN 'core'
            WHEN bd.comp IS NOT NULL THEN 'border'
            ELSE 'noise' END AS role
FROM p
LEFT JOIN {last} cl ON cl.node = p.id
LEFT JOIN bd ON bd.node = p.id
"""


ORACLE_SQL["events_dbscan"] = _dbscan_sql()


_DRIFT_SPLIT_US = 1_705_363_200_000_000  # 2024-01-16T00:00:00Z midpoint
_DRIFT_LO, _DRIFT_HI, _DRIFT_BINS = 0, 50_000, 32


def q_value_drift(sf_dir: str):
    """Value-distribution drift between the event log's two halves
    (stages/stats.py: drift_stats): PSI with exact-rational Laplace
    terms + the KS statistic with an integer-exact argmax; psi/ks
    4dp-gated."""
    from ..stages.stats import drift_stats

    ds = read_table(sf_dir, "events", columns=["ts", "value"])
    out = drift_stats(ds, value_col="value", ts_col="ts",
                      split_us=_DRIFT_SPLIT_US, lo_cents=_DRIFT_LO,
                      hi_cents=_DRIFT_HI, bins=_DRIFT_BINS)

    rnd = shape(pa.schema({"n_a": pa.int64(), "n_b": pa.int64(), "psi": pa.float64(),
                           "ks": pa.float64(), "ks_bucket": pa.int64()}),
                r4=["psi", "ks"])
    return out.map_batches(rnd, batch_format="pyarrow")


QUERIES["value_drift"] = q_value_drift

ORACLE_SQL["value_drift"] = f"""
WITH e AS (
  SELECT floor(value * 100)::BIGINT AS cents,
         CASE WHEN epoch_us(ts) >= {_DRIFT_SPLIT_US} THEN 1 ELSE 0 END
           AS per
  FROM events),
b AS (SELECT least(greatest((cents - {_DRIFT_LO}) * {_DRIFT_BINS}
                            // {_DRIFT_HI - _DRIFT_LO}, 0),
                   {_DRIFT_BINS - 1}) AS bucket, per
      FROM e),
c AS (SELECT bucket,
             sum(CASE WHEN per = 0 THEN 1 ELSE 0 END)::BIGINT AS na,
             sum(per)::BIGINT AS nb
      FROM b GROUP BY 1),
g AS (SELECT t.i AS bucket, coalesce(c.na, 0)::BIGINT AS na,
             coalesce(c.nb, 0)::BIGINT AS nb
      FROM range({_DRIFT_BINS}) t(i) LEFT JOIN c ON c.bucket = t.i),
tot AS (SELECT sum(na)::BIGINT AS n_a, sum(nb)::BIGINT AS n_b FROM g),
psi AS (
  SELECT sum(((na + 1)::DOUBLE / (n_a + {_DRIFT_BINS})
              - (nb + 1)::DOUBLE / (n_b + {_DRIFT_BINS}))
             * ln(((na + 1)::DOUBLE / (n_a + {_DRIFT_BINS}))
                  / ((nb + 1)::DOUBLE / (n_b + {_DRIFT_BINS}))))
           AS psi
  FROM g, tot),
cum AS (SELECT bucket,
               sum(na) OVER (ORDER BY bucket
                             ROWS UNBOUNDED PRECEDING) AS ca,
               sum(nb) OVER (ORDER BY bucket
                             ROWS UNBOUNDED PRECEDING) AS cb
        FROM g),
ks AS (SELECT bucket, abs(ca * n_b - cb * n_a)::BIGINT AS gap
       FROM cum, tot ORDER BY gap DESC, bucket LIMIT 1)
SELECT tot.n_a, tot.n_b,
       {_R4.format(expr='psi.psi')} AS psi,
       {_R4.format(expr='(ks.gap::DOUBLE '
                        '/ (tot.n_a::DOUBLE * tot.n_b::DOUBLE))')} AS ks,
       ks.bucket::BIGINT AS ks_bucket
FROM tot, psi, ks
"""


def q_events_auc(sf_dir: str):
    """Tie-aware ROC AUC of the (integer-cents) event value ranking
    the 'purchase' label (stages/stats.py: roc_auc) — the
    Mann-Whitney rank-sum identity with a pure-integer numerator and
    ONE normalizing division; auc 4dp-gated."""
    from ..stages.stats import roc_auc

    ds = read_table(sf_dir, "events", columns=["event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        if t.num_rows == 0:
            return pa.schema([("score", pa.int64()),
                              ("label", pa.int64())]).empty_table()
        v = _non_null_numpy(t, "value")
        cents = np.floor(v * 100).astype(np.int64)
        lab = pc.equal(t["event_type"], "purchase")
        return pa.table({"score": pa.array(cents),
                         "label": lab.cast(pa.int64())})

    out = roc_auc(ds.map_batches(prep, batch_format="pyarrow"),
                  score_col="score", label_col="label")

    rnd = shape(pa.schema({"n_pos": pa.int64(), "n_neg": pa.int64(),
                           "auc": pa.float64()}), r4=["auc"])
    return out.map_batches(rnd, batch_format="pyarrow")


QUERIES["events_auc"] = q_events_auc

ORACLE_SQL["events_auc"] = f"""
WITH e AS (
  SELECT floor(value * 100)::BIGINT AS score,
         CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END AS label
  FROM events),
g AS (SELECT score, sum(label)::BIGINT AS pos,
             (count(*) - sum(label))::BIGINT AS neg
      FROM e GROUP BY 1),
c AS (SELECT score, pos, neg,
             (sum(neg) OVER (ORDER BY score ROWS UNBOUNDED PRECEDING)
              - neg)::BIGINT AS below
      FROM g),
tot AS (SELECT sum(pos)::BIGINT AS n_pos, sum(neg)::BIGINT AS n_neg
        FROM g),
num AS (SELECT sum(pos * (2 * below + neg))::BIGINT AS numer2 FROM c)
SELECT tot.n_pos, tot.n_neg,
       {{r4}} AS auc
FROM tot, num
""".format(r4=_R4.format(
    expr='(num.numer2::DOUBLE / (2.0 * tot.n_pos::DOUBLE '
         '* tot.n_neg::DOUBLE))'))


def q_user_value_autocorr(sf_dir: str):
    """Pooled lag-1 autocorrelation of event value-cents within each
    user's (ts, event_id)-ordered stream — the serial-dependence
    check for behavioral series.  Composition: stages/scan.py
    lag_column (one range sort + O(1)-row carry) -> pairs where the
    lag exists -> EXACT int64 moment sums (n, Σx, Σy, Σx², Σy², Σxy;
    six scalars per batch) -> the explicit closed-form Pearson r both
    engines evaluate identically (the corr_qty_price contract);
    autocorr 4dp-gated."""
    from ..stages.scan import lag_column

    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "event_id", "value"])

    def prep(t: pa.Table) -> pa.Table:
        v = _non_null_numpy(t, "value")
        return pa.table({
            "user_id": t["user_id"], "ts": t["ts"],
            "event_id": t["event_id"],
            "cents": pa.array(np.floor(v * 100).astype(np.int64))})

    lagged = lag_column(ds.map_batches(prep, batch_format="pyarrow"),
                        value_col="cents", order_by=["ts", "event_id"],
                        key_col="user_id")

    def moments(t: pa.Table) -> pa.Table:
        x_arr = t["lag_cents"]
        keep = x_arr.is_valid() if isinstance(x_arr, pa.Array) \
            else pa.chunked_array([c.is_valid()
                                   for c in x_arr.chunks]).combine_chunks()
        t = t.filter(keep)
        x = _non_null_numpy(t, "lag_cents").astype(np.int64)
        y = _non_null_numpy(t, "cents").astype(np.int64)
        return pa.table({
            "n": pa.array([np.int64(len(x))]),
            "sx": pa.array([x.sum()]), "sy": pa.array([y.sum()]),
            "sxx": pa.array([(x * x).sum()]),
            "syy": pa.array([(y * y).sum()]),
            "sxy": pa.array([(x * y).sum()]),
        })

    parts = lagged.map_batches(moments,
                               batch_format="pyarrow").take_all()
    n = float(sum(r["n"] for r in parts))
    sx = float(sum(r["sx"] for r in parts))
    sy = float(sum(r["sy"] for r in parts))
    sxx = float(sum(r["sxx"] for r in parts))
    syy = float(sum(r["syy"] for r in parts))
    sxy = float(sum(r["sxy"] for r in parts))
    r = (n * sxy - sx * sy) / (np.sqrt(n * sxx - sx * sx)
                               * np.sqrt(n * syy - sy * sy))
    return pa.table({"n": pa.array([np.int64(n)]),
                     "autocorr": pa.array(_r4(np.array([r])))})


QUERIES["user_value_autocorr"] = q_user_value_autocorr

ORACLE_SQL["user_value_autocorr"] = f"""
WITH c AS (
  SELECT user_id, ts, event_id,
         floor(value * 100)::BIGINT AS cents
  FROM events),
l AS (
  SELECT cents AS y,
         lag(cents) OVER (PARTITION BY user_id
                          ORDER BY ts, event_id) AS x
  FROM c),
p AS (SELECT x, y FROM l WHERE x IS NOT NULL),
m AS (SELECT count(*)::BIGINT AS n,
             sum(x)::BIGINT AS sx, sum(y)::BIGINT AS sy,
             sum(x * x)::BIGINT AS sxx, sum(y * y)::BIGINT AS syy,
             sum(x * y)::BIGINT AS sxy
      FROM p)
SELECT n,
       {{r4}} AS autocorr
FROM m
""".format(r4=_R4.format(
    expr='((n::DOUBLE * sxy::DOUBLE - sx::DOUBLE * sy::DOUBLE) '
         '/ (sqrt(n::DOUBLE * sxx::DOUBLE - sx::DOUBLE * sx::DOUBLE) '
         '* sqrt(n::DOUBLE * syy::DOUBLE - sy::DOUBLE * sy::DOUBLE)))'))


def q_source_lang_kl(sf_dir: str):
    """Per-source KL divergence of the source's language mix from the
    global mix (stages/stats.py: kl_by_group) — Laplace-smoothed
    exact-rational terms over the |S|x|L|-bounded contingency; kl
    4dp-gated."""
    from ..stages.stats import kl_by_group

    ds = read_table(sf_dir, "documents", columns=["source", "lang"])
    out = kl_by_group(ds, group_col="source", cat_col="lang")

    fix = shape(pa.schema({"source": pa.string(), "n": pa.int64(), "kl": pa.float64()}),
                r4=["kl"], rename={"source": "group"})
    return out.map_batches(fix, batch_format="pyarrow")


QUERIES["source_lang_kl"] = q_source_lang_kl

ORACLE_SQL["source_lang_kl"] = f"""
WITH c AS (
  SELECT source, lang, count(*)::BIGINT AS cnt
  FROM documents GROUP BY 1, 2),
cats AS (SELECT count(DISTINCT lang)::BIGINT AS n_cats FROM documents),
grid AS (
  SELECT s.source, l.lang, coalesce(c.cnt, 0)::BIGINT AS cnt
  FROM (SELECT DISTINCT source FROM documents) s
  CROSS JOIN (SELECT DISTINCT lang FROM documents) l
  LEFT JOIN c ON c.source = s.source AND c.lang = l.lang),
gt AS (SELECT source, sum(cnt)::BIGINT AS n_g FROM grid GROUP BY 1),
ct AS (SELECT lang, sum(cnt)::BIGINT AS n_c FROM grid GROUP BY 1),
tot AS (SELECT sum(cnt)::BIGINT AS n FROM c),
terms AS (
  SELECT grid.source, gt.n_g,
         ((grid.cnt + 1)::DOUBLE / (gt.n_g + cats.n_cats)::DOUBLE)
           * ln(((grid.cnt + 1)::DOUBLE
                 / (gt.n_g + cats.n_cats)::DOUBLE)
                / ((ct.n_c + 1)::DOUBLE
                   / (tot.n + cats.n_cats)::DOUBLE)) AS term
  FROM grid
  JOIN gt ON gt.source = grid.source
  JOIN ct ON ct.lang = grid.lang, tot, cats)
SELECT source, n_g AS n,
       {{r4}} AS kl
FROM terms
GROUP BY source, n_g
ORDER BY source
""".format(r4=_R4.format(expr='sum(term)'))


def q_community_modularity(sf_dir: str):
    """Newman-Girvan modularity of the 3-round label-propagation
    partition over the chord graph (stages/graph.py: modularity
    composed with label_propagation): per-community (label, e_in,
    deg, q_term) with e_in/deg EXACT int64 through two node-keyed
    sort-merge joins + ONE label-bounded grouped sum; q_term
    4dp-gated."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from ..stages.graph import label_propagation, modularity

    n = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    i = np.arange(n, dtype=np.int64)
    src = np.r_[i, i, i]
    dst = np.r_[(i + 1) % n, (i + 2) % n, (7 * i + 3) % n]
    edges = rd.from_arrow(pa.table({"src": pa.array(src),
                                    "dst": pa.array(dst)}))
    labels = label_propagation(edges, rounds=3, partitions=4)
    out = modularity(edges, labels, partitions=4)

    rnd = shape(pa.schema({"label": pa.int64(), "e_in": pa.int64(), "deg": pa.int64(),
                           "q_term": pa.float64()}), r4=["q_term"])
    return out.map_batches(rnd, batch_format="pyarrow")


QUERIES["community_modularity"] = q_community_modularity

ORACLE_SQL["community_modularity"] = f"""
WITH lp AS ({ORACLE_SQL["label_prop"]}),
nn AS (SELECT count(*)::BIGINT AS n FROM documents),
r AS (SELECT unnest(range((SELECT n FROM nn)))::BIGINT AS i),
raw AS (
  SELECT i AS s, (i + 1) % (SELECT n FROM nn) AS d FROM r
  UNION ALL SELECT i, (i + 2) % (SELECT n FROM nn) FROM r
  UNION ALL SELECT i, (7 * i + 3) % (SELECT n FROM nn) FROM r),
und AS (SELECT DISTINCT least(s, d) AS u, greatest(s, d) AS v
        FROM raw WHERE s <> d),
lj AS (SELECT lu.label AS la, lv.label AS lb
       FROM und
       JOIN lp lu ON lu.node = und.u
       JOIN lp lv ON lv.node = und.v),
deg AS (SELECT lbl, count(*)::BIGINT AS deg FROM (
          SELECT la AS lbl FROM lj
          UNION ALL SELECT lb FROM lj) GROUP BY 1),
ein AS (SELECT la AS lbl, count(*)::BIGINT AS e_in
        FROM lj WHERE la = lb GROUP BY 1),
m AS (SELECT (sum(deg) / 2)::BIGINT AS m,
             sum(deg)::BIGINT AS two_m FROM deg)
SELECT deg.lbl AS label,
       coalesce(ein.e_in, 0)::BIGINT AS e_in,
       deg.deg,
       {{r4}} AS q_term
FROM deg LEFT JOIN ein ON ein.lbl = deg.lbl, m
ORDER BY label
""".format(r4=_R4.format(
    expr='(coalesce(ein.e_in, 0)::DOUBLE / m.m::DOUBLE '
         '- (deg.deg::DOUBLE / m.two_m::DOUBLE) '
         '* (deg.deg::DOUBLE / m.two_m::DOUBLE))'))


_KNN_K = 3


def q_events_knn(sf_dir: str):
    """Radius-bounded k-nearest-neighbors (k = 3 within r = 0.35) for
    every event point — the per-point serving form of the spatial
    family: radius_join pairs (one packed-cell range sort, never
    all-pairs) symmetrized to both directions, then topk_per_group
    per center ordered by distance ASC with neighbor-id tiebreak (the
    one-row-per-(batch, center) local prefilter bounds that
    exchange).  Ranking happens on the UNROUNDED shared-IEEE
    distance; dist is 4dp-gated only at output."""
    from ..functions.hashing import md5_low64_batch
    from ..stages.aggregates import topk_per_group
    from ..stages.spatial import radius_join

    ev = read_table(sf_dir, "events", columns=["event_id"])

    def coords(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.schema([("id", pa.int64()), ("x", pa.float64()),
                              ("y", pa.float64())]).empty_table()
        ids = _non_null_numpy(t, "event_id").astype(np.int64)
        hx = md5_low64_batch([f"{i},x" for i in ids])
        hy = md5_low64_batch([f"{i},y" for i in ids])
        x = (hx % np.uint64(1_000_000)).astype(np.float64) / 10000.0
        y = (hy % np.uint64(1_000_000)).astype(np.float64) / 10000.0
        return pa.table({"id": pa.array(ids), "x": pa.array(x),
                         "y": pa.array(y)})

    pairs = radius_join(ev.map_batches(coords, batch_format="pyarrow"),
                        r=_RADIUS_R)
    pair_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                             ("dist", pa.float64())])

    def sym(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pair_schema.empty_table()
        a = t["a"].combine_chunks() \
            if isinstance(t["a"], pa.ChunkedArray) else t["a"]
        b = t["b"].combine_chunks() \
            if isinstance(t["b"], pa.ChunkedArray) else t["b"]
        d = t["dist"].combine_chunks() \
            if isinstance(t["dist"], pa.ChunkedArray) else t["dist"]
        return pa.table({"a": pa.concat_arrays([a, b]),
                         "b": pa.concat_arrays([b, a]),
                         "dist": pa.concat_arrays([d, d])})

    knn = topk_per_group(
        pairs.map_batches(sym, batch_format="pyarrow"),
        ["a"], "dist", _KNN_K, descending=False, tiebreak="b",
        in_schema=pair_schema)

    return knn.map_batches(shape(pair_schema, r4=["dist"]), batch_format="pyarrow")


QUERIES["events_knn"] = q_events_knn

ORACLE_SQL["events_knn"] = f"""
WITH p AS MATERIALIZED (
  SELECT event_id AS id,
         (md5_number_lower(event_id::VARCHAR || ',x')
          % 1000000)::DOUBLE / 10000.0 AS x,
         (md5_number_lower(event_id::VARCHAR || ',y')
          % 1000000)::DOUBLE / 10000.0 AS y
  FROM events),
c AS MATERIALIZED (
  SELECT *, floor(x / {_RADIUS_R})::BIGINT AS cx,
         floor(y / {_RADIUS_R})::BIGINT AS cy
  FROM p),
n9 AS (SELECT a.id, a.x, a.y, a.cx + dx.o AS cx2, a.cy + dy.o AS cy2
       FROM c a, (VALUES (-1), (0), (1)) dx(o),
                 (VALUES (-1), (0), (1)) dy(o)),
j AS (SELECT n9.id AS a, b.id AS b,
             (n9.x - b.x) * (n9.x - b.x)
             + (n9.y - b.y) * (n9.y - b.y) AS d2
      FROM n9 JOIN c b ON b.cx = n9.cx2 AND b.cy = n9.cy2
                      AND n9.id <> b.id
      WHERE (n9.x - b.x) * (n9.x - b.x)
            + (n9.y - b.y) * (n9.y - b.y)
            <= {_RADIUS_R} * {_RADIUS_R}),
r AS (SELECT a, b, d2,
             -- rank on the same IEEE sqrt the engine ranks on
             row_number() OVER (PARTITION BY a
                                ORDER BY sqrt(d2) ASC, b ASC) AS rn
      FROM j)
SELECT a, b,
       {_R4.format(expr='sqrt(d2)')} AS dist
FROM r WHERE rn <= {_KNN_K}
"""


def q_transition_entropy(sf_dir: str):
    """Conditional next-event entropy per current type — the
    predictability profile of the behavioral Markov chain
    (composition over the event_transitions plan): LAG(event_type)
    within user by (ts, event_id), ONE |T|²-bounded grouped count,
    then h_cur = −Σ_next (n_cn/n_c)·ln(n_cn/n_c) over the
    |T|²-bounded cells — every probability an exact int64 rational,
    only the ≤|T|-term sum carries gated order drift.  Returns one
    row per current type (prev_type, n, h); h 4dp-gated."""
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.scan import lag_column

    ev = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"])
    lagged = lag_column(ev, value_col="event_type",
                        order_by=["ts", "event_id"], key_col="user_id",
                        out_col="prev_type")

    def pairs(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        empty = pa.schema({"prev_type": pa.string(),
                           "event_type": pa.string(),
                           "one": pa.int64()}).empty_table()
        if t.num_rows == 0 or "prev_type" not in t.column_names:
            return empty
        f = t.filter(pc.is_valid(t["prev_type"]))
        return pa.table({
            "prev_type": pc.cast(f["prev_type"], pa.string()),
            "event_type": pc.cast(f["event_type"], pa.string()),
            "one": pa.array(np.ones(f.num_rows, np.int64)),
        })

    agg = sorted_groupby_agg(
        lagged.map_batches(pairs, batch_size=None,
                           batch_format="pyarrow"),
        ["prev_type", "event_type"], [("one", "sum", "n")],
        in_schema=pa.schema([("prev_type", pa.string()),
                             ("event_type", pa.string()),
                             ("one", pa.int64())]))

    tabs = [b for b in agg.iter_batches(batch_format="pyarrow")
            if b.num_rows and "prev_type" in b.column_names]
    cells = pa.concat_tables(tabs)                   # |T|²-bounded
    prev = cells["prev_type"].to_numpy(zero_copy_only=False) \
        .astype(object)
    n = _non_null_numpy(cells, "n").astype(np.int64)
    uprev, inv = np.unique(prev, return_inverse=True)
    n_c = np.bincount(inv, weights=n).astype(np.int64)
    p = n / n_c[inv].astype(np.float64)
    h = np.zeros(uprev.size, np.float64)
    np.add.at(h, inv, -p * np.log(p))
    return pa.table({
        "prev_type": pa.array(uprev.astype(str)),
        "n": pa.array(n_c),
        "h": pa.array(_r4(h)),
    })


QUERIES["transition_entropy"] = q_transition_entropy

ORACLE_SQL["transition_entropy"] = f"""
WITH l AS (
  SELECT event_type,
         lag(event_type) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS prev_type
  FROM events),
c AS (SELECT prev_type, event_type, count(*)::BIGINT AS n
      FROM l WHERE prev_type IS NOT NULL GROUP BY 1, 2),
t AS (SELECT prev_type, sum(n)::BIGINT AS n_c FROM c GROUP BY 1),
terms AS (
  SELECT c.prev_type, t.n_c,
         -(c.n::DOUBLE / t.n_c::DOUBLE)
           * ln(c.n::DOUBLE / t.n_c::DOUBLE) AS term
  FROM c JOIN t ON t.prev_type = c.prev_type)
SELECT prev_type, n_c AS n,
       {{r4}} AS h
FROM terms
GROUP BY prev_type, n_c
ORDER BY prev_type
""".format(r4=_R4.format(expr='sum(term)'))


def q_priority_late_orders(sf_dir: str):
    """TPC-H-Q4-shaped priority report: orders placed in 1995H1 that
    had AT LEAST ONE lineitem shipped more than 30 days after the
    order date, counted by o_orderpriority — the EXISTS-with-
    predicate pattern (orderkey sort-merge join + late filter +
    per-order collapse + priority-bounded count; all-integer)."""
    import pyarrow.compute as pc

    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.join import sort_merge_join

    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_shipdate"])
    od = read_table(sf_dir, "orders", columns=["o_orderkey", "o_orderdate",
                                               "o_orderpriority"])

    def win(t: pa.Table) -> pa.Table:
        us = _ts_int64(t, "o_orderdate")
        lo = int(np.datetime64("1995-01-01", "us").astype(np.int64))
        hi = int(np.datetime64("1995-07-01", "us").astype(np.int64))
        return t.filter(pa.array((us >= lo) & (us < hi)))

    j = sort_merge_join(
        li, od.map_batches(win, batch_format="pyarrow"),
        on="l_orderkey", right_on="o_orderkey", partitions=4)

    part_schema = pa.schema([("o_orderkey", pa.int64()),
                             ("o_orderpriority", pa.string()),
                             ("one", pa.int64())])

    def late(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        sd = _ts_int64(t, "l_shipdate")
        oo = _ts_int64(t, "o_orderdate")
        keep = sd > oo + 30 * 86_400_000_000   # strict, exact int µs
        f = t.filter(pa.array(keep))
        return pa.table({
            "o_orderkey": pc.cast(f["l_orderkey"], pa.int64()),
            "o_orderpriority": pc.cast(f["o_orderpriority"],
                                       pa.string()),
            "one": pa.array(np.ones(f.num_rows, np.int64))})

    per_order = sorted_groupby_agg(
        j.map_batches(late, batch_format="pyarrow"),
        ["o_orderkey", "o_orderpriority"], [("one", "min", "one")],
        in_schema=part_schema)

    counts = sorted_groupby_agg(
        per_order, ["o_orderpriority"], [("one", "sum", "n_orders")],
        in_schema=pa.schema([("o_orderkey", pa.int64()),
                             ("o_orderpriority", pa.string()),
                             ("one", pa.int64())]))
    return counts


QUERIES["priority_late_orders"] = q_priority_late_orders

ORACLE_SQL["priority_late_orders"] = """
SELECT o_orderpriority, count(*)::BIGINT AS n_orders
FROM orders
WHERE o_orderdate >= DATE '1995-01-01'
  AND o_orderdate < DATE '1995-07-01'
  AND EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey
                AND l_shipdate > o_orderdate + INTERVAL 30 DAY)
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""


def q_events_constraint_audit(sf_dir: str):
    """Single-pass data-quality constraint audit over the event log —
    the Great-Expectations-style gate every ingestion runs: exact
    primary-key uniqueness (n_rows vs DISTINCT event_id via the
    id-keyed grouped count, the one data-sized exchange the audit
    inherently needs), null-value rows, and value-range violations
    (value < 0 or >= 500), all exact int64 scalars — one row out."""
    from ..stages.aggregates import sorted_groupby_agg

    ds = read_table(sf_dir, "events", columns=["event_id", "value"])

    id_schema = pa.schema([("id", pa.int64()), ("one", pa.int64())])

    def ids(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return id_schema.empty_table()
        i = _non_null_numpy(t, "event_id").astype(np.int64)
        u, c = np.unique(i, return_counts=True)
        return pa.table({"id": pa.array(u),
                         "one": pa.array(c.astype(np.int64))})

    n_distinct = sorted_groupby_agg(
        ds.map_batches(ids, batch_format="pyarrow"),
        ["id"], [("one", "sum", "cnt")], in_schema=id_schema).count()

    scal_schema = pa.schema([("n", pa.int64()), ("n_null", pa.int64()),
                             ("n_range", pa.int64())])

    def scalars(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return scal_schema.empty_table()
        col = t["value"]
        col = col.combine_chunks() \
            if isinstance(col, pa.ChunkedArray) else col
        n_null = col.null_count
        v = col.drop_null().to_numpy(zero_copy_only=False)
        n_range = int(np.sum((v < 0) | (v >= 500)))
        return pa.table({"n": pa.array([np.int64(t.num_rows)]),
                         "n_null": pa.array([np.int64(n_null)]),
                         "n_range": pa.array([np.int64(n_range)])})

    parts = ds.map_batches(scalars, batch_format="pyarrow").take_all()
    n = sum(r["n"] for r in parts)
    return pa.table({
        "n_rows": pa.array([n], pa.int64()),
        "n_distinct_ids": pa.array([n_distinct], pa.int64()),
        "n_dup_rows": pa.array([n - n_distinct], pa.int64()),
        "n_null_value": pa.array([sum(r["n_null"] for r in parts)],
                                 pa.int64()),
        "n_range_violations": pa.array(
            [sum(r["n_range"] for r in parts)], pa.int64()),
    })


QUERIES["events_constraint_audit"] = q_events_constraint_audit

ORACLE_SQL["events_constraint_audit"] = """
SELECT count(*)::BIGINT AS n_rows,
       count(DISTINCT event_id)::BIGINT AS n_distinct_ids,
       (count(*) - count(DISTINCT event_id))::BIGINT AS n_dup_rows,
       sum(CASE WHEN value IS NULL THEN 1 ELSE 0 END)::BIGINT
         AS n_null_value,
       sum(CASE WHEN value < 0 OR value >= 500 THEN 1 ELSE 0 END)
         ::BIGINT AS n_range_violations
FROM events
"""


def q_type_value_drift(sf_dir: str):
    """Per-event-type value-distribution drift between the log's two
    halves (stages/stats.py: drift_stats_by_group) — the per-segment
    PSI/KS monitoring grid, same exact-integer bucket/argmax
    contracts as value_drift; psi/ks 4dp-gated."""
    from ..stages.stats import drift_stats_by_group

    ds = read_table(sf_dir, "events", columns=["event_type", "ts", "value"])
    out = drift_stats_by_group(
        ds, group_col="event_type", value_col="value", ts_col="ts",
        split_us=_DRIFT_SPLIT_US, lo_cents=_DRIFT_LO,
        hi_cents=_DRIFT_HI, bins=_DRIFT_BINS)

    def fix(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        for name in ("psi", "ks"):
            col = t[name]
            col = col.combine_chunks() \
                if isinstance(col, pa.ChunkedArray) else col
            mask = np.asarray(col.is_null())
            v = col.to_numpy(zero_copy_only=False)
            r = _r4(np.where(mask, 0.0, v))
            t = t.set_column(t.schema.get_field_index(name), name,
                             pa.array(r, pa.float64(), mask=mask))
        return t.rename_columns(
            ["event_type", "n_a", "n_b", "psi", "ks", "ks_bucket"])

    return out.map_batches(fix, batch_format="pyarrow")


QUERIES["type_value_drift"] = q_type_value_drift

ORACLE_SQL["type_value_drift"] = f"""
WITH e AS (
  SELECT event_type AS g, floor(value * 100)::BIGINT AS cents,
         CASE WHEN epoch_us(ts) >= {_DRIFT_SPLIT_US} THEN 1 ELSE 0 END
           AS per
  FROM events),
b AS (SELECT g, least(greatest((cents - {_DRIFT_LO}) * {_DRIFT_BINS}
                               // {_DRIFT_HI - _DRIFT_LO}, 0),
                      {_DRIFT_BINS - 1}) AS bucket, per
      FROM e),
c AS (SELECT g, bucket,
             sum(CASE WHEN per = 0 THEN 1 ELSE 0 END)::BIGINT AS na,
             sum(per)::BIGINT AS nb
      FROM b GROUP BY 1, 2),
grid AS (SELECT gs.g, t.i AS bucket, coalesce(c.na, 0)::BIGINT AS na,
                coalesce(c.nb, 0)::BIGINT AS nb
         FROM (SELECT DISTINCT g FROM c) gs
         CROSS JOIN range({_DRIFT_BINS}) t(i)
         LEFT JOIN c ON c.g = gs.g AND c.bucket = t.i),
tot AS (SELECT g, sum(na)::BIGINT AS n_a, sum(nb)::BIGINT AS n_b
        FROM grid GROUP BY 1),
psi AS (
  SELECT grid.g,
         sum(((na + 1)::DOUBLE / (n_a + {_DRIFT_BINS})
              - (nb + 1)::DOUBLE / (n_b + {_DRIFT_BINS}))
             * ln(((na + 1)::DOUBLE / (n_a + {_DRIFT_BINS}))
                  / ((nb + 1)::DOUBLE / (n_b + {_DRIFT_BINS}))))
           AS psi
  FROM grid JOIN tot ON tot.g = grid.g GROUP BY grid.g),
cum AS (SELECT g, bucket,
               sum(na) OVER (PARTITION BY g ORDER BY bucket
                             ROWS UNBOUNDED PRECEDING) AS ca,
               sum(nb) OVER (PARTITION BY g ORDER BY bucket
                             ROWS UNBOUNDED PRECEDING) AS cb
        FROM grid),
ks AS (SELECT g, bucket, gap FROM (
         SELECT cum.g, bucket,
                abs(ca * n_b - cb * n_a)::BIGINT AS gap,
                row_number() OVER (PARTITION BY cum.g
                                   ORDER BY abs(ca * n_b - cb * n_a)
                                     DESC, bucket ASC) AS rn
         FROM cum JOIN tot ON tot.g = cum.g)
       WHERE rn = 1)
SELECT tot.g AS event_type, tot.n_a, tot.n_b,
       CASE WHEN tot.n_a = 0 OR tot.n_b = 0 THEN NULL
            ELSE {_R4.format(expr='psi.psi')} END AS psi,
       CASE WHEN tot.n_a = 0 OR tot.n_b = 0 THEN NULL
            ELSE {_R4.format(expr='(ks.gap::DOUBLE '
                             '/ (tot.n_a::DOUBLE * tot.n_b::DOUBLE))')}
            END AS ks,
       CASE WHEN tot.n_a = 0 OR tot.n_b = 0 THEN NULL
            ELSE ks.bucket::BIGINT END AS ks_bucket
FROM tot
JOIN psi ON psi.g = tot.g
JOIN ks ON ks.g = tot.g
ORDER BY event_type
"""


_RFM_K = 4


def q_user_rfm(sf_dir: str):
    """RFM segmentation — the classic behavioral-marketing scoring:
    per user recency (last-event µs), frequency (event count) and
    monetary (Σ cents; all exact int64 via ONE user-keyed grouped
    sum), then three global NTILE(4) passes over the user-sized table
    — recency DESC (most recent = tile 1), frequency DESC, monetary
    DESC, each with the user_id ASC tiebreak the unique-sort-tuple
    contract requires — composed into segment = r·100 + f·10 + m.
    All-integer end to end."""
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.scan import ntile

    ev = read_table(sf_dir, "events", columns=["user_id", "ts", "value"])

    prep_schema = pa.schema([("user_id", pa.int64()),
                             ("last_us", pa.int64()),
                             ("one", pa.int64()),
                             ("cents", pa.int64())])

    def prep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return prep_schema.empty_table()
        us = _ts_int64(t, "ts")
        v = _non_null_numpy(t, "value")
        return pa.table({
            "user_id": t["user_id"], "last_us": pa.array(us),
            "one": pa.array(np.ones(t.num_rows, np.int64)),
            "cents": pa.array(np.floor(v * 100).astype(np.int64))})

    per_user = sorted_groupby_agg(
        ev.map_batches(prep, batch_format="pyarrow"),
        ["user_id"],
        [("last_us", "max", "last_us"), ("one", "sum", "freq"),
         ("cents", "sum", "monetary")],
        in_schema=prep_schema)

    # descending recency: most recent first → flip by ordering DESC.
    # ntile() has no descending flag; order on the NEGATED key instead
    # (exact for int64 µs), keeping user_id ASC as tiebreak.

    def neg(t: pa.Table, col: str, out: str) -> pa.Table:
        v = _non_null_numpy(t, col).astype(np.int64)
        return t.append_column(out, pa.array(-v))

    step = per_user.map_batches(
        lambda t: neg(neg(neg(t, "last_us", "neg_r"), "freq", "neg_f"),
                      "monetary", "neg_m"),
        batch_format="pyarrow")
    step = ntile(step, k=_RFM_K, order_by=["neg_r", "user_id"],
                 out_col="r_tile")
    step = ntile(step, k=_RFM_K, order_by=["neg_f", "user_id"],
                 out_col="f_tile")
    step = ntile(step, k=_RFM_K, order_by=["neg_m", "user_id"],
                 out_col="m_tile")

    def fin(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        r = _non_null_numpy(t, "r_tile").astype(np.int64)
        f = _non_null_numpy(t, "f_tile").astype(np.int64)
        m = _non_null_numpy(t, "m_tile").astype(np.int64)
        return pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "freq": pc.cast(t["freq"], pa.int64()),
            "monetary": pc.cast(t["monetary"], pa.int64()),
            "segment": pa.array(r * 100 + f * 10 + m)})

    return step.map_batches(fin, batch_format="pyarrow")


QUERIES["user_rfm"] = q_user_rfm

ORACLE_SQL["user_rfm"] = f"""
WITH u AS (
  SELECT user_id, max(epoch_us(ts))::BIGINT AS last_us,
         count(*)::BIGINT AS freq,
         sum(floor(value * 100)::BIGINT)::BIGINT AS monetary
  FROM events GROUP BY 1),
t AS (
  SELECT user_id, freq, monetary,
         ntile({_RFM_K}) OVER (ORDER BY last_us DESC, user_id)
           AS r_tile,
         ntile({_RFM_K}) OVER (ORDER BY freq DESC, user_id) AS f_tile,
         ntile({_RFM_K}) OVER (ORDER BY monetary DESC, user_id)
           AS m_tile
  FROM u)
SELECT user_id, freq, monetary,
       (r_tile * 100 + f_tile * 10 + m_tile)::BIGINT AS segment
FROM t
"""


_CAL_BINS = 10
_CAL_LO, _CAL_HI = 0, 50_000   # cents domain, matches drift constants


def q_value_calibration(sf_dir: str):
    """Reliability / calibration table for the value-cents score
    against the purchase label (the diagram every deployed classifier
    is monitored with): scores bucket into 10 fixed integer bins
    (exact int64 floor-division with clipping — the drift_stats
    bucket contract), and per bin the report carries n, n_pos, the
    mean score and the positive rate.  ONE bins-bounded grouped sum
    over per-batch bincount partials; sums exact int64, the two
    divisions 4dp-gated."""
    from ..stages.aggregates import sorted_groupby_agg

    ds = read_table(sf_dir, "events", columns=["event_type", "value"])
    span = _CAL_HI - _CAL_LO
    part_schema = pa.schema([("bucket", pa.int64()), ("n", pa.int64()),
                             ("n_pos", pa.int64()),
                             ("sum_cents", pa.int64())])

    def partials(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        if t.num_rows == 0:
            return part_schema.empty_table()
        v = _non_null_numpy(t, "value")
        cents = np.floor(v * 100).astype(np.int64)
        b = np.clip((cents - _CAL_LO) * _CAL_BINS // span, 0,
                    _CAL_BINS - 1)
        y = pc.equal(t["event_type"], "purchase").to_numpy(
            zero_copy_only=False).astype(np.int64)
        n = np.bincount(b, minlength=_CAL_BINS)
        npos = np.bincount(b, weights=y, minlength=_CAL_BINS)
        s = np.bincount(b, weights=cents, minlength=_CAL_BINS)
        nz = np.flatnonzero(n)
        return pa.table({
            "bucket": pa.array(nz),
            "n": pa.array(n[nz].astype(np.int64)),
            "n_pos": pa.array(npos[nz].astype(np.int64)),
            "sum_cents": pa.array(s[nz].astype(np.int64))})

    agg = sorted_groupby_agg(
        ds.map_batches(partials, batch_format="pyarrow"),
        ["bucket"],
        [("n", "sum", "n"), ("n_pos", "sum", "n_pos"),
         ("sum_cents", "sum", "sum_cents")],
        in_schema=part_schema)

    def fin(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "bucket" not in t.column_names:
            return pa.schema([
                ("bucket", pa.int64()), ("n", pa.int64()),
                ("n_pos", pa.int64()), ("mean_cents", pa.float64()),
                ("pos_rate", pa.float64())]).empty_table()
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        npos = t["n_pos"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        s = t["sum_cents"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        return pa.table({
            "bucket": t["bucket"], "n": t["n"], "n_pos": t["n_pos"],
            "mean_cents": pa.array(_r4(s / n)),
            "pos_rate": pa.array(_r4(npos / n))})

    return agg.map_batches(fin, batch_format="pyarrow")


QUERIES["value_calibration"] = q_value_calibration

ORACLE_SQL["value_calibration"] = f"""
WITH e AS (
  SELECT floor(value * 100)::BIGINT AS cents,
         CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END AS y
  FROM events),
b AS (SELECT least(greatest((cents - {_CAL_LO}) * {_CAL_BINS}
                            // {_CAL_HI - _CAL_LO}, 0),
                   {_CAL_BINS - 1}) AS bucket, cents, y
      FROM e),
g AS (SELECT bucket, count(*)::BIGINT AS n, sum(y)::BIGINT AS n_pos,
             sum(cents)::BIGINT AS sum_cents
      FROM b GROUP BY 1)
SELECT bucket, n, n_pos,
       {_R4.format(expr='(sum_cents::DOUBLE / n::DOUBLE)')}
         AS mean_cents,
       {_R4.format(expr='(n_pos::DOUBLE / n::DOUBLE)')} AS pos_rate
FROM g ORDER BY bucket
"""


def q_time_to_convert(sf_dir: str):
    """Time-to-first-purchase funnel timing: per user, the gap in
    seconds between their FIRST event and their FIRST purchase (users
    who never purchase are excluded), summarized as n_converted,
    mean_s and max_s — the activation-latency report product
    analytics runs.  ONE user-keyed grouped min pass carrying two
    exact int64 µs minima per user (first event, first purchase),
    then a scalar-partial reduce; mean 4dp-gated."""
    from ..stages.aggregates import sorted_groupby_agg

    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "event_type"])

    part_schema = pa.schema([("user_id", pa.int64()),
                             ("first_us", pa.int64()),
                             ("first_buy_us", pa.int64())])
    _SENTINEL = np.iinfo(np.int64).max

    def prep(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        if t.num_rows == 0:
            return part_schema.empty_table()
        us = _ts_int64(t, "ts")
        buy = pc.equal(t["event_type"], "purchase").to_numpy(
            zero_copy_only=False)
        return pa.table({
            "user_id": t["user_id"], "first_us": pa.array(us),
            "first_buy_us": pa.array(
                np.where(buy, us, _SENTINEL))})

    per_user = sorted_groupby_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["user_id"],
        [("first_us", "min", "first_us"),
         ("first_buy_us", "min", "first_buy_us")],
        in_schema=part_schema)

    scal_schema = pa.schema([("n", pa.int64()), ("sum_s", pa.int64()),
                             ("max_s", pa.int64())])

    def partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "first_us" not in t.column_names:
            return scal_schema.empty_table()
        f = t["first_us"].to_numpy(zero_copy_only=False)
        b = t["first_buy_us"].to_numpy(zero_copy_only=False)
        conv = b != _SENTINEL
        gap_s = (b[conv] - f[conv]) // 1_000_000   # floor seconds
        if gap_s.size == 0:
            return scal_schema.empty_table()
        return pa.table({
            "n": pa.array([np.int64(gap_s.size)]),
            "sum_s": pa.array([gap_s.sum()]),
            "max_s": pa.array([gap_s.max()])})

    parts = per_user.map_batches(partials,
                                 batch_format="pyarrow").take_all()
    n = int(sum(r["n"] for r in parts))
    if n == 0:
        raise ValueError("time_to_convert: no converted users")
    sum_s = int(sum(r["sum_s"] for r in parts))
    max_s = max(int(r["max_s"]) for r in parts)
    return pa.table({
        "n_converted": pa.array([n], pa.int64()),
        "mean_s": pa.array(_r4(np.array([sum_s / n]))),
        "max_s": pa.array([max_s], pa.int64()),
    })


QUERIES["time_to_convert"] = q_time_to_convert

ORACLE_SQL["time_to_convert"] = f"""
WITH u AS (
  SELECT user_id,
         min(epoch_us(ts))::BIGINT AS first_us,
         min(CASE WHEN event_type = 'purchase'
                  THEN epoch_us(ts) END)::BIGINT AS first_buy_us
  FROM events GROUP BY 1),
c AS (SELECT ((first_buy_us - first_us) // 1000000)::BIGINT AS gap_s
      FROM u WHERE first_buy_us IS NOT NULL)
SELECT count(*)::BIGINT AS n_converted,
       {_R4.format(expr='(sum(gap_s)::DOUBLE / count(*)::DOUBLE)')}
         AS mean_s,
       max(gap_s)::BIGINT AS max_s
FROM c
"""


_DYM_Q, _DYM_K = "sow", 3


def q_did_you_mean(sf_dir: str):
    """Did-you-mean spell suggestion from the SERVING vocabulary: the
    (term, df) dictionary read back from the built index shards (the
    term_stats surface), filtered to terms within edit distance ≤ 1
    of the query ('sow' → {slow, row}), ranked df DESC with term ASC
    tiebreak, top-3.  Per-batch length-prefilter + the fuzzy family's
    capped edit-1 check; the collect is candidate-sized."""
    import ray.data as rd

    from ..functions.fuzzy_edit import edit1_distance
    from ..stages.shards import list_shards, open_shard

    index_dir = get_index(sf_dir)
    sids = list_shards(index_dir)

    cand_schema = pa.schema([("term", pa.string()), ("df", pa.int64()),
                             ("dist", pa.int64())])

    def read(batch: pa.Table) -> pa.Table:
        parts = []
        for sid in batch["sid"].to_pylist():
            t = open_shard(index_dir, sid)
            if t is None:
                continue
            terms = t["term"].to_numpy(zero_copy_only=False) \
                .astype(object)
            lens = np.char.str_len(terms.astype(str))
            near = np.abs(lens - len(_DYM_Q)) <= 1   # length prefilter
            idx = np.flatnonzero(near)
            keep, dist = [], []
            for i in idx:
                d = edit1_distance(_DYM_Q, terms[i])
                if d <= 1:
                    keep.append(i)
                    dist.append(d)
            if keep:
                sel = t.take(pa.array(np.asarray(keep, np.int64)))
                parts.append(pa.table({
                    "term": sel["term"],
                    "df": sel["df"],
                    "dist": pa.array(np.asarray(dist, np.int64))}))
        return pa.concat_tables(parts) if parts \
            else cand_schema.empty_table()

    cands = rd.from_arrow(pa.table(
        {"sid": pa.array(sids)})).map_batches(
        read, batch_format="pyarrow").take_all()   # candidate-sized
    rows = sorted(cands, key=lambda r: (-r["df"], r["term"]))[:_DYM_K]
    return pa.table({
        "term": pa.array([r["term"] for r in rows], pa.string()),
        "df": pa.array([r["df"] for r in rows], pa.int64()),
        "dist": pa.array([r["dist"] for r in rows], pa.int64()),
    })


QUERIES["did_you_mean"] = q_did_you_mean

ORACLE_SQL["did_you_mean"] = f"""
WITH ts AS ({ORACLE_SQL["term_stats"]})
SELECT term, df, levenshtein(term, '{_DYM_Q}')::BIGINT AS dist
FROM ts
WHERE levenshtein(term, '{_DYM_Q}') <= 1
ORDER BY df DESC, term ASC
LIMIT {_DYM_K}
"""


_PATHS_K = 5


def q_top_event_paths(sf_dir: str):
    """Top-5 most common 3-step behavioral paths (the path-mining
    report product analytics runs): two LAG(event_type) passes within
    user by (ts, event_id) — each ONE range sort + O(offset)-row
    carry — then a |T|³-bounded grouped count and a global top-5
    ranked n DESC with lexicographic path tiebreak.  All-integer."""
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.scan import lag_column

    ev = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"])
    l1 = lag_column(ev, value_col="event_type",
                    order_by=["ts", "event_id"], key_col="user_id",
                    out_col="t2")
    l2 = lag_column(l1, value_col="t2",
                    order_by=["ts", "event_id"], key_col="user_id",
                    out_col="t1")

    trip_schema = pa.schema([("t1", pa.string()), ("t2", pa.string()),
                             ("t3", pa.string()), ("one", pa.int64())])

    def trips(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        if t.num_rows == 0 or "t1" not in t.column_names:
            return trip_schema.empty_table()
        keep = pc.and_(pc.is_valid(t["t1"]), pc.is_valid(t["t2"]))
        f = t.filter(keep)
        return pa.table({
            "t1": pc.cast(f["t1"], pa.string()),
            "t2": pc.cast(f["t2"], pa.string()),
            "t3": pc.cast(f["event_type"], pa.string()),
            "one": pa.array(np.ones(f.num_rows, np.int64))})

    agg = sorted_groupby_agg(
        l2.map_batches(trips, batch_format="pyarrow"),
        ["t1", "t2", "t3"], [("one", "sum", "n")],
        in_schema=trip_schema)

    rows = [r for b in agg.iter_batches(batch_format="pyarrow")
            if b.num_rows and "t1" in b.column_names
            for r in b.to_pylist()]              # |T|³-bounded
    rows.sort(key=lambda r: (-r["n"], r["t1"], r["t2"], r["t3"]))
    rows = rows[:_PATHS_K]
    return pa.table({
        "t1": pa.array([r["t1"] for r in rows], pa.string()),
        "t2": pa.array([r["t2"] for r in rows], pa.string()),
        "t3": pa.array([r["t3"] for r in rows], pa.string()),
        "n": pa.array([r["n"] for r in rows], pa.int64()),
    })


QUERIES["top_event_paths"] = q_top_event_paths

ORACLE_SQL["top_event_paths"] = f"""
WITH l AS (
  SELECT event_type AS t3,
         lag(event_type) OVER w AS t2,
         lag(event_type, 2) OVER w AS t1
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
c AS (SELECT t1, t2, t3, count(*)::BIGINT AS n
      FROM l WHERE t1 IS NOT NULL AND t2 IS NOT NULL
      GROUP BY 1, 2, 3)
SELECT t1, t2, t3, n
FROM c ORDER BY n DESC, t1, t2, t3
LIMIT {_PATHS_K}
"""


def q_zipf_slope(sf_dir: str):
    """Zipf's-law fit of the corpus term-frequency distribution — the
    corpus-health diagnostic (natural text slopes ≈ −1): least-squares
    regression of ln(total_tf) on ln(rank) over the serving
    vocabulary ranked total_tf DESC with term ASC tiebreak.  The
    (term, total_tf) table is vocabulary-bounded (the index
    dictionary); ranks and the six moment sums are computed on that
    bounded set with the EXPLICIT closed form both engines share;
    slope/intercept 4dp-gated."""
    import ray.data as rd

    from ..stages.shards import list_shards, open_shard

    index_dir = get_index(sf_dir)
    sids = list_shards(index_dir)

    def read(batch: pa.Table) -> pa.Table:
        parts = []
        for sid in batch["sid"].to_pylist():
            t = open_shard(index_dir, sid)
            if t is not None:
                parts.append(t.select(["term", "total_tf"]))
        return pa.concat_tables(parts) if parts else pa.schema(
             {"term": pa.string(),
              "total_tf": pa.int64()}).empty_table()

    rows = rd.from_arrow(pa.table(
        {"sid": pa.array(sids)})).map_batches(
        read, batch_format="pyarrow").take_all()   # vocabulary-bounded
    rows.sort(key=lambda r: (-r["total_tf"], r["term"]))
    tf = np.array([r["total_tf"] for r in rows], np.float64)
    n = tf.size
    x = np.log(np.arange(1, n + 1, dtype=np.float64))
    y = np.log(tf)
    sx, sy = x.sum(), y.sum()
    sxx, sxy = (x * x).sum(), (x * y).sum()
    denom = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / n
    return pa.table({
        "n_terms": pa.array([np.int64(n)]),
        "slope": pa.array(_r4(np.array([slope]))),
        "intercept": pa.array(_r4(np.array([intercept]))),
    })


QUERIES["zipf_slope"] = q_zipf_slope

_ZIPF_R4S = _R4.format(
    expr='((n::DOUBLE * sxy - sx * sy) / (n::DOUBLE * sxx - sx * sx))')
_ZIPF_R4I = _R4.format(
    expr='((sy - ((n::DOUBLE * sxy - sx * sy) '
         '/ (n::DOUBLE * sxx - sx * sx)) * sx) / n::DOUBLE)')

ORACLE_SQL["zipf_slope"] = f"""
WITH ts AS ({ORACLE_SQL["term_stats"]}),
r AS (SELECT ln(row_number() OVER (ORDER BY total_tf DESC, term ASC)
              ::DOUBLE) AS x,
             ln(total_tf::DOUBLE) AS y
      FROM ts),
m AS (SELECT count(*)::BIGINT AS n, sum(x) AS sx, sum(y) AS sy,
             sum(x * x) AS sxx, sum(x * y) AS sxy
      FROM r)
SELECT n AS n_terms,
       {_ZIPF_R4S} AS slope,
       {_ZIPF_R4I} AS intercept
FROM m
"""


_CHURN_FRAC_NUM, _CHURN_FRAC_DEN = 3, 4   # cutoff at 3/4 of the span


def q_user_churn_labels(sf_dir: str):
    """Churn label generation — the supervised-learning label every
    retention model trains on: a user is churned when they have NO
    event after the cutoff at 3/4 of the log's time span.  The span
    comes from exact int64 µs min/max scalar partials (one cheap
    pre-pass), the cutoff is integer arithmetic (min + span·3//4, so
    the boundary decision replays exactly), and labels come from ONE
    user-keyed grouped max.  Returns (user_id, last_us, churned)."""
    from ..stages.aggregates import sorted_groupby_agg

    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])

    prep_schema = pa.schema([("user_id", pa.int64()),
                             ("us", pa.int64())])

    prep = shape(prep_schema, rename={"us": "ts"})
    base = ds.map_batches(prep, batch_format="pyarrow")

    span_schema = pa.schema([("lo", pa.int64()), ("hi", pa.int64())])

    def span(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return span_schema.empty_table()
        us = t["us"].to_numpy(zero_copy_only=False)
        return pa.table({"lo": pa.array([us.min()]),
                         "hi": pa.array([us.max()])})

    parts = base.map_batches(span, batch_format="pyarrow").take_all()
    if not parts:
        raise ValueError("user_churn_labels: empty input")
    lo = min(r["lo"] for r in parts)
    hi = max(r["hi"] for r in parts)
    cutoff = lo + (hi - lo) * _CHURN_FRAC_NUM // _CHURN_FRAC_DEN

    per_user = sorted_groupby_agg(
        base, ["user_id"], [("us", "max", "last_us")],
        in_schema=prep_schema)

    def label(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        if t.num_rows == 0 or "last_us" not in t.column_names:
            return pa.schema([("user_id", pa.int64()),
                              ("last_us", pa.int64()),
                              ("churned", pa.int64())]).empty_table()
        last = _non_null_numpy(t, "last_us")
        return pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "last_us": pc.cast(t["last_us"], pa.int64()),
            "churned": pa.array((last <= cutoff).astype(np.int64))})

    return per_user.map_batches(label, batch_format="pyarrow")


QUERIES["user_churn_labels"] = q_user_churn_labels

ORACLE_SQL["user_churn_labels"] = f"""
WITH b AS (SELECT user_id, epoch_us(ts)::BIGINT AS us FROM events),
s AS (SELECT min(us)::BIGINT AS lo, max(us)::BIGINT AS hi FROM b),
u AS (SELECT user_id, max(us)::BIGINT AS last_us FROM b GROUP BY 1)
SELECT u.user_id, u.last_us,
       CASE WHEN u.last_us <= s.lo + (s.hi - s.lo)
                 * {_CHURN_FRAC_NUM} // {_CHURN_FRAC_DEN}
            THEN 1 ELSE 0 END::BIGINT AS churned
FROM u, s
"""


def q_peak_hour_by_type(sf_dir: str):
    """Peak activity hour per event type — the seasonality profile:
    UTC hour-of-day from exact integer µs arithmetic ((us // 3_600e6)
    % 24, identical on both engines), ONE |T|·24-bounded grouped
    count, argmax per type with smallest-hour tiebreak."""
    from ..stages.aggregates import sorted_groupby_agg

    ds = read_table(sf_dir, "events", columns=["event_type", "ts"])

    part_schema = pa.schema([("event_type", pa.string()),
                             ("hour", pa.int64()), ("one", pa.int64())])

    def prep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        us = _ts_int64(t, "ts")
        hour = (us // 3_600_000_000) % 24
        return pa.table({"event_type": t["event_type"],
                         "hour": pa.array(hour),
                         "one": pa.array(np.ones(t.num_rows, np.int64))})

    agg = sorted_groupby_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["event_type", "hour"], [("one", "sum", "n")],
        in_schema=part_schema)

    rows = [r for b in agg.iter_batches(batch_format="pyarrow")
            if b.num_rows and "event_type" in b.column_names
            for r in b.to_pylist()]              # |T|·24-bounded
    best = {}
    for r in sorted(rows, key=lambda r: (r["event_type"],
                                         -r["n"], r["hour"])):
        best.setdefault(r["event_type"], r)
    out = sorted(best.values(), key=lambda r: r["event_type"])
    return pa.table({
        "event_type": pa.array([r["event_type"] for r in out],
                               pa.string()),
        "peak_hour": pa.array([r["hour"] for r in out], pa.int64()),
        "n": pa.array([r["n"] for r in out], pa.int64()),
    })


QUERIES["peak_hour_by_type"] = q_peak_hour_by_type

ORACLE_SQL["peak_hour_by_type"] = """
WITH h AS (
  SELECT event_type,
         ((epoch_us(ts)::BIGINT // 3600000000) % 24)::BIGINT AS hour
  FROM events),
c AS (SELECT event_type, hour, count(*)::BIGINT AS n
      FROM h GROUP BY 1, 2),
r AS (SELECT event_type, hour, n,
             row_number() OVER (PARTITION BY event_type
                                ORDER BY n DESC, hour ASC) AS rn
      FROM c)
SELECT event_type, hour AS peak_hour, n
FROM r WHERE rn = 1 ORDER BY event_type
"""


def q_user_burstiness(sf_dir: str):
    """Inter-event burstiness per user (Goh & Barabási 2008):
    B = (σ − μ)/(σ + μ) over the user's inter-event gaps in seconds —
    −1 = perfectly regular, 0 = Poisson, →1 = bursty.  Composition:
    LAG(ts) within user by (ts, event_id) → integer floor-second gaps
    → ONE user-keyed grouped sum of EXACT int64 moments (n, Σg, Σg²)
    → the explicit population-σ closed form both engines share.
    Users with <2 gaps get NULL B (σ and μ of one gap are degenerate
    only when σ+μ=0; the n≥2 floor matches the metric's definition);
    mean_gap_s/burstiness 4dp-gated."""
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.scan import lag_column

    ev = read_table(sf_dir, "events", columns=["user_id", "ts", "event_id"])

    us_col = shape(pa.schema({"user_id": pa.int64(), "event_id": pa.int64(),
                              "us": pa.int64()}), rename={"us": "ts"})
    lagged = lag_column(ev.map_batches(us_col, batch_format="pyarrow"),
                        value_col="us", order_by=["us", "event_id"],
                        key_col="user_id", out_col="prev_us")

    mom_schema = pa.schema([("user_id", pa.int64()), ("n", pa.int64()),
                            ("sg", pa.int64()), ("sgg", pa.int64())])

    def moments(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        if t.num_rows == 0 or "prev_us" not in t.column_names:
            return mom_schema.empty_table()
        f = t.filter(pc.is_valid(t["prev_us"]))
        if f.num_rows == 0:
            return mom_schema.empty_table()
        cur = f["us"].to_numpy(zero_copy_only=False)
        prev = f["prev_us"].to_numpy(zero_copy_only=False)
        g = (cur - prev) // 1_000_000            # floor seconds
        return pa.table({
            "user_id": f["user_id"],
            "n": pa.array(np.ones(f.num_rows, np.int64)),
            "sg": pa.array(g), "sgg": pa.array(g * g)})

    agg = sorted_groupby_agg(
        lagged.map_batches(moments, batch_format="pyarrow"),
        ["user_id"],
        [("n", "sum", "n"), ("sg", "sum", "sg"), ("sgg", "sum", "sgg")],
        in_schema=mom_schema)

    def fin(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        out_schema = pa.schema([
            ("user_id", pa.int64()), ("n_gaps", pa.int64()),
            ("mean_gap_s", pa.float64()), ("burstiness", pa.float64())])
        if t.num_rows == 0 or "n" not in t.column_names:
            return out_schema.empty_table()
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        sg = t["sg"].to_numpy(zero_copy_only=False).astype(np.float64)
        sgg = t["sgg"].to_numpy(zero_copy_only=False).astype(np.float64)
        mu = sg / n
        var = sgg / n - mu * mu
        sd = np.sqrt(np.maximum(var, 0.0))
        ok = (n >= 2) & (sd + mu > 0)   # σ+μ=0 (all-zero gaps) → NULL
        with np.errstate(invalid="ignore", divide="ignore"):
            b = (sd - mu) / (sd + mu)
        return pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "n_gaps": pc.cast(t["n"], pa.int64()),
            "mean_gap_s": pa.array(_r4(mu)),
            "burstiness": pa.array(_r4(np.where(ok, b, 0.0)),
                                   pa.float64(), mask=~ok)})

    return agg.map_batches(fin, batch_format="pyarrow")


QUERIES["user_burstiness"] = q_user_burstiness

_BURST_B = ('((sqrt(greatest(sgg::DOUBLE / n::DOUBLE '
            '- (sg::DOUBLE / n::DOUBLE) * (sg::DOUBLE / n::DOUBLE), '
            '0.0)) - sg::DOUBLE / n::DOUBLE) '
            '/ (sqrt(greatest(sgg::DOUBLE / n::DOUBLE '
            '- (sg::DOUBLE / n::DOUBLE) * (sg::DOUBLE / n::DOUBLE), '
            '0.0)) + sg::DOUBLE / n::DOUBLE))')

ORACLE_SQL["user_burstiness"] = f"""
WITH l AS (
  SELECT user_id, epoch_us(ts)::BIGINT AS us,
         lag(epoch_us(ts)::BIGINT)
           OVER (PARTITION BY user_id
                 ORDER BY epoch_us(ts), event_id) AS prev_us
  FROM events),
g AS (SELECT user_id, ((us - prev_us) // 1000000)::BIGINT AS gap
      FROM l WHERE prev_us IS NOT NULL),
m AS (SELECT user_id, count(*)::BIGINT AS n, sum(gap)::BIGINT AS sg,
             sum(gap * gap)::BIGINT AS sgg
      FROM g GROUP BY 1)
SELECT user_id, n AS n_gaps,
       {_R4.format(expr='(sg::DOUBLE / n::DOUBLE)')} AS mean_gap_s,
       CASE WHEN n >= 2 AND sg > 0 THEN {_R4.format(expr=_BURST_B)}
            ELSE NULL END AS burstiness
FROM m
"""


_KANON_K, _LDIV_BUCKET = 5, 100


def q_k_anonymity_audit(sf_dir: str):
    """Privacy-governance audit over the document corpus: treating
    (lang, source) as the quasi-identifier and the n_chars
    length-bucket (floor-division by 100) as the sensitive attribute,
    report k-anonymity and l-diversity in one pass — n_groups, rows
    in QI groups smaller than k = 5 (the re-identification risk
    surface), the minimum group size, and the minimum per-group count
    of DISTINCT sensitive buckets.  ONE (lang, source,
    bucket)-bounded grouped count carries everything; distinct-count
    and minima fold over the bounded cells.  All-integer."""
    from ..stages.aggregates import sorted_groupby_agg

    ds = read_table(sf_dir, "documents", columns=["lang", "source", "n_chars"])

    part_schema = pa.schema([("lang", pa.string()),
                             ("source", pa.string()),
                             ("bucket", pa.int64()),
                             ("one", pa.int64())])

    def prep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        nc = _non_null_numpy(t, "n_chars").astype(np.int64)
        return pa.table({
            "lang": t["lang"], "source": t["source"],
            "bucket": pa.array(nc // _LDIV_BUCKET),
            "one": pa.array(np.ones(t.num_rows, np.int64))})

    cells = sorted_groupby_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["lang", "source", "bucket"], [("one", "sum", "n")],
        in_schema=part_schema)

    rows = [r for b in cells.iter_batches(batch_format="pyarrow")
            if b.num_rows and "lang" in b.column_names
            for r in b.to_pylist()]           # |L|·|S|·buckets-bounded
    if not rows:
        raise ValueError("k_anonymity_audit: empty input")
    groups: dict[tuple, list] = {}
    for r in rows:
        g = groups.setdefault((r["lang"], r["source"]), [0, 0])
        g[0] += r["n"]          # group size
        g[1] += 1               # distinct sensitive buckets
    sizes = np.array([v[0] for v in groups.values()], np.int64)
    ldivs = np.array([v[1] for v in groups.values()], np.int64)
    return pa.table({
        "n_groups": pa.array([len(groups)], pa.int64()),
        "n_at_risk_rows": pa.array(
            [int(sizes[sizes < _KANON_K].sum())], pa.int64()),
        "min_group_size": pa.array([int(sizes.min())], pa.int64()),
        "min_l_diversity": pa.array([int(ldivs.min())], pa.int64()),
    })


QUERIES["k_anonymity_audit"] = q_k_anonymity_audit

ORACLE_SQL["k_anonymity_audit"] = f"""
WITH c AS (
  SELECT lang, source, (n_chars // {_LDIV_BUCKET})::BIGINT AS bucket,
         count(*)::BIGINT AS n
  FROM documents GROUP BY 1, 2, 3),
g AS (SELECT lang, source, sum(n)::BIGINT AS sz,
             count(*)::BIGINT AS l_div
      FROM c GROUP BY 1, 2)
SELECT count(*)::BIGINT AS n_groups,
       coalesce(sum(CASE WHEN sz < {_KANON_K} THEN sz END), 0)::BIGINT
         AS n_at_risk_rows,
       min(sz)::BIGINT AS min_group_size,
       min(l_div)::BIGINT AS min_l_diversity
FROM g
"""


def q_user_twap(sf_dir: str):
    """Per-user time-weighted average value (left-Riemann TWAP, the
    financial/metering aggregate): Σ cents_prev·gap_s / Σ gap_s over
    the user's (ts, event_id)-ordered stream — the value holds until
    the next observation.  LAG carries the previous (cents, µs) pair;
    numerator and denominator stay EXACT int64 through ONE user-keyed
    grouped sum; single-event users and zero-span users get NULL (no
    elapsed time to weight); twap 4dp-gated."""
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.scan import lag_column

    ev = read_table(sf_dir, "events", columns=["user_id", "ts", "event_id", "value"])

    def prep(t: pa.Table) -> pa.Table:
        ts = t["ts"]
        ts = ts.combine_chunks() if isinstance(ts, pa.ChunkedArray) \
            else ts
        v = _non_null_numpy(t, "value")
        return pa.table({
            "user_id": t["user_id"], "event_id": t["event_id"],
            "us": ts.cast(pa.int64()),
            "cents": pa.array(np.floor(v * 100).astype(np.int64))})

    base = ev.map_batches(prep, batch_format="pyarrow")
    l1 = lag_column(base, value_col="us",
                    order_by=["us", "event_id"], key_col="user_id",
                    out_col="prev_us")
    l2 = lag_column(l1, value_col="cents",
                    order_by=["us", "event_id"], key_col="user_id",
                    out_col="prev_cents")

    mom_schema = pa.schema([("user_id", pa.int64()),
                            ("num", pa.int64()), ("den", pa.int64())])

    def moments(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        if t.num_rows == 0 or "prev_us" not in t.column_names:
            return mom_schema.empty_table()
        f = t.filter(pc.is_valid(t["prev_us"]))
        if f.num_rows == 0:
            return mom_schema.empty_table()
        cur = f["us"].to_numpy(zero_copy_only=False)
        prev = f["prev_us"].to_numpy(zero_copy_only=False)
        pc_ = f["prev_cents"].to_numpy(zero_copy_only=False)
        gap = (cur - prev) // 1_000_000
        return pa.table({
            "user_id": f["user_id"],
            "num": pa.array(pc_ * gap), "den": pa.array(gap)})

    agg = sorted_groupby_agg(
        l2.map_batches(moments, batch_format="pyarrow"),
        ["user_id"], [("num", "sum", "num"), ("den", "sum", "den")],
        in_schema=mom_schema)

    def fin(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        out_schema = pa.schema([("user_id", pa.int64()),
                                ("span_s", pa.int64()),
                                ("twap", pa.float64())])
        if t.num_rows == 0 or "num" not in t.column_names:
            return out_schema.empty_table()
        num = t["num"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        den = t["den"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        ok = den > 0
        with np.errstate(invalid="ignore", divide="ignore"):
            tw = num / den / 100.0              # back to dollars
        return pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "span_s": pc.cast(t["den"], pa.int64()),
            "twap": pa.array(_r4(np.where(ok, tw, 0.0)),
                             pa.float64(), mask=~ok)})

    return agg.map_batches(fin, batch_format="pyarrow")


QUERIES["user_twap"] = q_user_twap

ORACLE_SQL["user_twap"] = f"""
WITH l AS (
  SELECT user_id,
         epoch_us(ts)::BIGINT AS us,
         lag(epoch_us(ts)::BIGINT)
           OVER w AS prev_us,
         lag(floor(value * 100)::BIGINT) OVER w AS prev_cents
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY epoch_us(ts), event_id)),
g AS (SELECT user_id,
             prev_cents * ((us - prev_us) // 1000000) AS num,
             ((us - prev_us) // 1000000)::BIGINT AS den
      FROM l WHERE prev_us IS NOT NULL),
m AS (SELECT user_id, sum(num)::BIGINT AS num, sum(den)::BIGINT AS den
      FROM g GROUP BY 1)
SELECT user_id, den AS span_s,
       CASE WHEN den > 0
            THEN {_R4.format(expr='(num::DOUBLE / den::DOUBLE / 100.0)')}
            ELSE NULL END AS twap
FROM m
"""


_MKT_REGION = "ASIA"


def q_market_share_by_year(sf_dir: str):
    """TPC-H-Q8-shaped market share: per order YEAR, the revenue
    share attributable to customers of one region ('ASIA').  Revenue
    is kept EXACT int64 — rev_milli = floor(price·100) ·
    (100 − floor(discount·100)) — so numerator and denominator replay
    bit-for-bit and only the final share division is 4dp-gated.
    Plan: lineitem ⨝ orders ⨝ customer via two sort-merge joins (the
    data-sized sides), nation⨝region folded driver-side into a
    25-row nationkey→region map broadcast into the last hash join,
    year from exact integer µs arithmetic, ONE year-bounded grouped
    sum."""
    import pyarrow.parquet as pq

    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.join import broadcast_join, sort_merge_join

    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice",
                                                 "l_discount"])
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey",
                                                   "o_orderdate"])
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    j1 = sort_merge_join(li, orders, "l_orderkey", "o_orderkey",
                         partitions=8)
    j1_schema = pa.schema([("l_orderkey", pa.int64()),
                           ("l_extendedprice", pa.float64()),
                           ("l_discount", pa.float64()),
                           ("o_custkey", pa.int64()),
                           ("o_orderdate", pa.timestamp("us"))])
    j2 = sort_merge_join(j1, cust, "o_custkey", "c_custkey",
                         left_schema=j1_schema, partitions=8)
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                           columns=["n_nationkey", "n_name",
                                    "n_regionkey"])
    region = pq.read_table(os.path.join(sf_dir, "region.parquet"),
                           columns=["r_regionkey", "r_name"])
    rmap = {r["r_regionkey"]: r["r_name"]
            for r in region.to_pylist()}
    nr = pa.table({
        "n_nationkey": nation["n_nationkey"],
        "r_name": pa.array([rmap[k]
                            for k in nation["n_regionkey"].to_pylist()],
                           pa.string())})
    j3 = broadcast_join(j2, nr, "c_nationkey", right_on="n_nationkey")

    part_schema = pa.schema([("year", pa.int64()),
                             ("region_rev", pa.int64()),
                             ("total_rev", pa.int64())])

    def prep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        us = _ts_int64(t, "o_orderdate")
        year = (us.astype("datetime64[us]")
                .astype("datetime64[Y]").astype(np.int64) + 1970)
        price = _non_null_numpy(t, "l_extendedprice")
        disc = _non_null_numpy(t, "l_discount")
        rev = (np.floor(price * 100).astype(np.int64)
               * (100 - np.floor(disc * 100).astype(np.int64)))
        rn = t["r_name"]
        rn = rn.combine_chunks() if isinstance(rn, pa.ChunkedArray) \
            else rn
        in_region = (rn.to_numpy(zero_copy_only=False)
                     .astype(object) == _MKT_REGION)
        return pa.table({
            "year": pa.array(year),
            "region_rev": pa.array(np.where(in_region, rev, 0)),
            "total_rev": pa.array(rev)})

    agg = sorted_groupby_agg(
        j3.map_batches(prep, batch_format="pyarrow"),
        ["year"],
        [("region_rev", "sum", "region_rev"),
         ("total_rev", "sum", "total_rev")],
        in_schema=part_schema)

    def fin(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        out_schema = pa.schema([
            ("year", pa.int64()), ("region_rev", pa.int64()),
            ("total_rev", pa.int64()), ("share", pa.float64())])
        if t.num_rows == 0 or "year" not in t.column_names:
            return out_schema.empty_table()
        rr = t["region_rev"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        tr = t["total_rev"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        return pa.table({
            "year": pc.cast(t["year"], pa.int64()),
            "region_rev": pc.cast(t["region_rev"], pa.int64()),
            "total_rev": pc.cast(t["total_rev"], pa.int64()),
            "share": pa.array(_r4(rr / tr))})

    return agg.map_batches(fin, batch_format="pyarrow")


QUERIES["market_share_by_year"] = q_market_share_by_year

ORACLE_SQL["market_share_by_year"] = f"""
WITH j AS (
  SELECT year(o_orderdate)::BIGINT AS year,
         floor(l_extendedprice * 100)::BIGINT
           * (100 - floor(l_discount * 100)::BIGINT) AS rev,
         r_name
  FROM lineitem
  JOIN orders ON o_orderkey = l_orderkey
  JOIN customer ON c_custkey = o_custkey
  JOIN nation ON n_nationkey = c_nationkey
  JOIN region ON r_regionkey = n_regionkey),
g AS (SELECT year,
             sum(CASE WHEN r_name = '{_MKT_REGION}' THEN rev
                      ELSE 0 END)::BIGINT AS region_rev,
             sum(rev)::BIGINT AS total_rev
      FROM j GROUP BY 1)
SELECT year, region_rev, total_rev,
       {_R4.format(expr='(region_rev::DOUBLE / total_rev::DOUBLE)')}
         AS share
FROM g ORDER BY year
"""


def q_cf_hit_rate(sf_dir: str):
    """Offline hit-rate@3 evaluation of the item-CF serving table —
    the recommender sanity eval: per eligible user (2–50 distinct
    items, the CF cap), hold out the item of their HIGHEST-event_id
    interaction, recommend the union of top-3 similar partners of
    their remaining items (the item_similar_topk table, trained on
    the full log — the standard cheap leak-tolerant sanity eval,
    documented as such), and count users whose holdout appears.
    All set logic integer/join-exact; hit_rate 4dp-gated."""
    import pyarrow.compute as pc

    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.join import sort_merge_join
    from ..stages.semistructured import json_int_field

    ev = read_table(sf_dir, "events", columns=["user_id", "event_id", "props"])
    ui0 = json_int_field(ev, field="k", out_col="item")

    base_schema = pa.schema([("user_id", pa.int64()),
                             ("event_id", pa.int64()),
                             ("item", pa.int64())])

    def clean(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return base_schema.empty_table()
        keep = pc.and_(pc.is_valid(t["item"]),
                       pc.is_valid(t["user_id"]))
        f = t.filter(keep)
        return pa.table({
            "user_id": pc.cast(f["user_id"], pa.int64()),
            "event_id": pc.cast(f["event_id"], pa.int64()),
            "item": pc.cast(f["item"], pa.int64())})

    base = ui0.map_batches(clean, batch_format="pyarrow").materialize()

    # holdout: item of each user's max event_id
    ho = sorted_groupby_agg(base, ["user_id"],
                            [("event_id", "max", "max_eid")],
                            in_schema=base_schema)
    ho_schema = pa.schema([("user_id", pa.int64()),
                           ("max_eid", pa.int64())])
    hoj = sort_merge_join(
        ho,
        base.map_batches(
            lambda t: pa.table({"eid2": t["event_id"],
                                "h_item": t["item"]}),
            batch_format="pyarrow"),
        on="max_eid", right_on="eid2",
        left_schema=ho_schema,
        right_schema=pa.schema([("eid2", pa.int64()),
                                ("h_item", pa.int64())]),
        partitions=4)

    # distinct (user, item) + per-user distinct-item counts
    d = sorted_groupby_agg(base, ["user_id", "item"],
                           [("event_id", "count", "n_ev")],
                           in_schema=base_schema)
    d_schema = pa.schema([("user_id", pa.int64()),
                          ("item", pa.int64()), ("n_ev", pa.int64())])
    cnt = sorted_groupby_agg(d, ["user_id"],
                             [("item", "count", "n_items")],
                             in_schema=d_schema)
    elig = cnt.filter(
        lambda r: 2 <= r["n_items"] <= COOC_MAX_USER_ITEMS)

    # history = eligible users' items joined with their holdout,
    # excluding the holdout item itself
    hj = sort_merge_join(
        d, hoj, on="user_id", right_on="user_id", suffix="_h",
        left_schema=d_schema,
        right_schema=pa.schema([("user_id", pa.int64()),
                                ("max_eid", pa.int64()),
                                ("h_item", pa.int64())]),
        partitions=4)
    ej = sort_merge_join(
        hj, elig.map_batches(
            lambda t: pa.table({"u2": t["user_id"]})
            if t.num_rows else pa.schema({"u2": pa.int64()}).empty_table(),
            batch_format="pyarrow"),
        on="user_id", right_on="u2", how="semi",
        partitions=4)

    hist_schema = pa.schema([("user_id", pa.int64()),
                             ("item", pa.int64()),
                             ("h_item", pa.int64())])

    def drop_holdout(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "item" not in t.column_names:
            return hist_schema.empty_table()
        keep = pc.not_equal(t["item"], t["h_item"])
        f = t.filter(keep)
        return pa.table({"user_id": pc.cast(f["user_id"], pa.int64()),
                         "item": pc.cast(f["item"], pa.int64()),
                         "h_item": pc.cast(f["h_item"], pa.int64())})

    hist = ej.map_batches(drop_holdout, batch_format="pyarrow")

    serving = q_item_similar_topk(sf_dir)   # (item, partner, ...)
    recs = sort_merge_join(
        hist, serving.map_batches(
            lambda t: pa.table({"s_item": t["item"],
                                "partner": t["partner"]})
            if t.num_rows else
            pa.schema({"s_item": pa.int64(),
                       "partner": pa.int64()}).empty_table(),
            batch_format="pyarrow"),
        on="item", right_on="s_item",
        left_schema=hist_schema,
        right_schema=pa.schema([("s_item", pa.int64()),
                                ("partner", pa.int64())]),
        partitions=4)

    hit_schema = pa.schema([("user_id", pa.int64()),
                            ("one", pa.int64())])

    def hits_only(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "partner" not in t.column_names:
            return hit_schema.empty_table()
        f = t.filter(pc.equal(t["partner"], t["h_item"]))
        return pa.table({"user_id": pc.cast(f["user_id"], pa.int64()),
                         "one": pa.array(np.ones(f.num_rows,
                                                 np.int64))})

    hit_users = sorted_groupby_agg(
        recs.map_batches(hits_only, batch_format="pyarrow"),
        ["user_id"], [("one", "min", "one")], in_schema=hit_schema)
    n_hits = hit_users.count()
    n_eval = elig.count()
    if n_eval == 0:
        raise ValueError("cf_hit_rate: no eligible users")
    return pa.table({
        "n_eval_users": pa.array([n_eval], pa.int64()),
        "n_hits": pa.array([n_hits], pa.int64()),
        "hit_rate": pa.array(_r4(np.array([n_hits / n_eval]))),
    })


QUERIES["cf_hit_rate"] = q_cf_hit_rate

ORACLE_SQL["cf_hit_rate"] = f"""
WITH serving AS ({ORACLE_SQL["item_similar_topk"]}),
ui0 AS (SELECT user_id, event_id,
               json_extract(props, '$.k')::BIGINT AS item
        FROM events
        WHERE user_id IS NOT NULL
          AND json_extract(props, '$.k') IS NOT NULL),
d AS (SELECT DISTINCT user_id, item FROM ui0),
cnt AS (SELECT user_id, count(*)::BIGINT AS n_items
        FROM d GROUP BY 1),
elig AS (SELECT user_id FROM cnt
         WHERE n_items BETWEEN 2 AND {COOC_MAX_USER_ITEMS}),
ho AS (SELECT u.user_id, u.item AS h_item
       FROM ui0 u
       JOIN (SELECT user_id, max(event_id) AS max_eid
             FROM ui0 GROUP BY 1) m
         ON m.user_id = u.user_id AND m.max_eid = u.event_id),
hist AS (SELECT d.user_id, d.item, ho.h_item
         FROM d
         JOIN ho ON ho.user_id = d.user_id
         WHERE d.item <> ho.h_item
           AND d.user_id IN (SELECT user_id FROM elig)),
hits AS (SELECT DISTINCT hist.user_id
         FROM hist
         JOIN serving s ON s.item = hist.item
         WHERE s.partner = hist.h_item),
m AS (SELECT (SELECT count(*) FROM elig)::BIGINT AS n_eval_users,
             (SELECT count(*) FROM hits)::BIGINT AS n_hits)
SELECT n_eval_users, n_hits,
       {_R4.format(expr='(n_hits::DOUBLE / n_eval_users::DOUBLE)')}
         AS hit_rate
FROM m
"""


def q_weekend_value_ttest(sf_dir: str):
    """Welch's two-sample t statistic for event value, weekend vs
    weekday — the A/B-significance arithmetic every experimentation
    platform runs: group by UTC day-of-week from exact integer µs
    arithmetic (epoch day + 4) % 7 ∈ {5, 6} = weekend (1970-01-01 was
    a Thursday), carry EXACT int64 cents moments (n, Σx, Σx²) per
    group through scalar partials, and evaluate the EXPLICIT Welch
    formula — mean difference over √(s²_a/n_a + s²_b/n_b) with
    SAMPLE variances — identically on both engines; means/t
    4dp-gated.  Raises when either group has < 2 rows (variance
    undefined)."""
    ds = read_table(sf_dir, "events", columns=["ts", "value"])

    part_schema = pa.schema([
        ("g", pa.int64()), ("n", pa.int64()),
        ("sx", pa.int64()), ("sxx", pa.int64())])

    def partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        us = _ts_int64(t, "ts")
        dow = (us // 86_400_000_000 + 4) % 7
        wk = (dow >= 5).astype(np.int64)
        cents = np.floor(_non_null_numpy(t, "value")
                         * 100).astype(np.int64)
        rows = []
        for g in (0, 1):
            m = wk == g
            if m.any():
                x = cents[m]
                rows.append((g, int(m.sum()), int(x.sum()),
                             int((x * x).sum())))
        if not rows:
            return part_schema.empty_table()
        gs, ns, sxs, sxxs = zip(*rows)
        return pa.table({"g": pa.array(gs, pa.int64()),
                         "n": pa.array(ns, pa.int64()),
                         "sx": pa.array(sxs, pa.int64()),
                         "sxx": pa.array(sxxs, pa.int64())})

    parts = ds.map_batches(partials, batch_format="pyarrow").take_all()
    agg = {0: [0, 0, 0], 1: [0, 0, 0]}
    for r in parts:
        a = agg[r["g"]]
        a[0] += r["n"]; a[1] += r["sx"]; a[2] += r["sxx"]
    (n_a, sx_a, sxx_a), (n_b, sx_b, sxx_b) = agg[0], agg[1]
    if n_a < 2 or n_b < 2:
        raise ValueError("weekend_value_ttest: a group has < 2 rows")
    mu_a, mu_b = sx_a / n_a, sx_b / n_b
    var_a = (sxx_a - sx_a * sx_a / n_a) / (n_a - 1)
    var_b = (sxx_b - sx_b * sx_b / n_b) / (n_b - 1)
    t_stat = (mu_b - mu_a) / np.sqrt(var_a / n_a + var_b / n_b)
    return pa.table({
        "n_weekday": pa.array([n_a], pa.int64()),
        "n_weekend": pa.array([n_b], pa.int64()),
        "mean_weekday": pa.array(_r4(np.array([mu_a / 100.0]))),
        "mean_weekend": pa.array(_r4(np.array([mu_b / 100.0]))),
        "t_stat": pa.array(_r4(np.array([t_stat]))),
    })


QUERIES["weekend_value_ttest"] = q_weekend_value_ttest

_TT_VAR_A = ('((sxx_a::DOUBLE - sx_a::DOUBLE * sx_a::DOUBLE '
             '/ n_a::DOUBLE) / (n_a - 1)::DOUBLE)')
_TT_VAR_B = ('((sxx_b::DOUBLE - sx_b::DOUBLE * sx_b::DOUBLE '
             '/ n_b::DOUBLE) / (n_b - 1)::DOUBLE)')

ORACLE_SQL["weekend_value_ttest"] = f"""
WITH e AS (
  SELECT CASE WHEN ((epoch_us(ts)::BIGINT // 86400000000 + 4) % 7)
              >= 5 THEN 1 ELSE 0 END AS g,
         floor(value * 100)::BIGINT AS cents
  FROM events),
m AS (SELECT
        sum(CASE WHEN g = 0 THEN 1 ELSE 0 END)::BIGINT AS n_a,
        sum(CASE WHEN g = 0 THEN cents ELSE 0 END)::BIGINT AS sx_a,
        sum(CASE WHEN g = 0 THEN cents * cents ELSE 0 END)::BIGINT
          AS sxx_a,
        sum(CASE WHEN g = 1 THEN 1 ELSE 0 END)::BIGINT AS n_b,
        sum(CASE WHEN g = 1 THEN cents ELSE 0 END)::BIGINT AS sx_b,
        sum(CASE WHEN g = 1 THEN cents * cents ELSE 0 END)::BIGINT
          AS sxx_b
      FROM e)
SELECT n_a AS n_weekday, n_b AS n_weekend,
       {_R4.format(expr='(sx_a::DOUBLE / n_a::DOUBLE / 100.0)')}
         AS mean_weekday,
       {_R4.format(expr='(sx_b::DOUBLE / n_b::DOUBLE / 100.0)')}
         AS mean_weekend,
       {_R4.format(expr=f'((sx_b::DOUBLE / n_b::DOUBLE '
                         f'- sx_a::DOUBLE / n_a::DOUBLE) '
                         f'/ sqrt({_TT_VAR_A} / n_a::DOUBLE '
                         f'+ {_TT_VAR_B} / n_b::DOUBLE))')} AS t_stat
FROM m
"""


def q_edge_reciprocity(sf_dir: str):
    """Directed-graph reciprocity (the mutual-link fraction social
    networks report): over the DISTINCT directed chord edges plus the
    reversed copies of even-source successor edges (so both
    reciprocal and one-way links exist by construction), count edges
    whose reverse is also present through ONE packed-int64 semi join
    — code = s·2³² + d vs the swapped code — and report
    n_edges, n_reciprocal and their 4dp-gated ratio."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.join import sort_merge_join

    n = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    i = np.arange(n, dtype=np.int64)
    ev = i[i % 2 == 0]
    src = np.r_[i, i, ev + 1]
    dst = np.r_[(i + 1) % n, (7 * i + 3) % n, ev]
    raw = rd.from_arrow(pa.table({"s": pa.array(src % n),
                                  "d": pa.array(dst % n)}))

    e_schema = pa.schema([("s", pa.int64()), ("d", pa.int64()),
                          ("one", pa.int64())])

    def prep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return e_schema.empty_table()
        s = t["s"].to_numpy(zero_copy_only=False)
        d = t["d"].to_numpy(zero_copy_only=False)
        keep = s != d
        return pa.table({"s": pa.array(s[keep]),
                         "d": pa.array(d[keep]),
                         "one": pa.array(np.ones(keep.sum(),
                                                 np.int64))})

    edges = sorted_groupby_agg(
        raw.map_batches(prep, batch_format="pyarrow"),
        ["s", "d"], [("one", "min", "one")], in_schema=e_schema)

    code_schema = pa.schema([("code", pa.int64())])

    def codes(swap: bool):
        def fn(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or "s" not in t.column_names:
                return code_schema.empty_table()
            s = t["s"].to_numpy(zero_copy_only=False)
            d = t["d"].to_numpy(zero_copy_only=False)
            c = (d * (1 << 32) + s) if swap else (s * (1 << 32) + d)
            return pa.table({"code": pa.array(c)})
        return fn

    fwd = edges.map_batches(codes(False), batch_format="pyarrow")
    rev = edges.map_batches(codes(True), batch_format="pyarrow")
    recip = sort_merge_join(fwd, rev, on="code", how="semi",
                            left_schema=code_schema,
                            right_schema=code_schema, partitions=4)
    n_edges = edges.count()
    n_recip = recip.count()
    return pa.table({
        "n_edges": pa.array([n_edges], pa.int64()),
        "n_reciprocal": pa.array([n_recip], pa.int64()),
        "reciprocity": pa.array(_r4(np.array([n_recip / n_edges]))),
    })


QUERIES["edge_reciprocity"] = q_edge_reciprocity

ORACLE_SQL["edge_reciprocity"] = f"""
WITH nn AS (SELECT count(*)::BIGINT AS n FROM documents),
r AS (SELECT unnest(range((SELECT n FROM nn)))::BIGINT AS i),
raw AS (
  SELECT i AS s, (i + 1) % (SELECT n FROM nn) AS d FROM r
  UNION ALL SELECT i, (7 * i + 3) % (SELECT n FROM nn) FROM r
  UNION ALL SELECT (i + 1) % (SELECT n FROM nn), i
    FROM r WHERE i % 2 = 0),
e AS (SELECT DISTINCT s, d FROM raw WHERE s <> d),
m AS (SELECT
        (SELECT count(*) FROM e)::BIGINT AS n_edges,
        (SELECT count(*) FROM e a
         WHERE EXISTS (SELECT 1 FROM e b
                       WHERE b.s = a.d AND b.d = a.s))::BIGINT
          AS n_reciprocal)
SELECT n_edges, n_reciprocal,
       {_R4.format(expr='(n_reciprocal::DOUBLE / n_edges::DOUBLE)')}
         AS reciprocity
FROM m
"""


_ANOM_W = 7


def q_daily_value_anomaly(sf_dir: str):
    """Trailing-window anomaly score per day — the metric-monitoring
    alert arithmetic: daily cents totals (exact int64 via ONE
    day-keyed grouped sum), then two distributed rolling sums (w = 7,
    ROWS 6 PRECEDING AND CURRENT ROW) over the day series carrying
    Σx and Σx² as EXACT int64, and the population z-score of each day
    against its own trailing window evaluated with the shared
    explicit closed form; the integer window sums are emitted
    alongside so the float z is pure presentation.  Days whose window
    has zero variance get NULL z on both engines; z 4dp-gated."""
    import pyarrow.compute as pc

    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.scan import rolling_agg

    ds = read_table(sf_dir, "events", columns=["ts", "value"])

    part_schema = pa.schema([("day", pa.int64()),
                             ("cents", pa.int64())])

    def prep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        us = _ts_int64(t, "ts")
        return pa.table({
            "day": pa.array(us // 86_400_000_000),
            "cents": pa.array(np.floor(
                _non_null_numpy(t, "value") * 100)
                .astype(np.int64))})

    daily = sorted_groupby_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["day"], [("cents", "sum", "total")],
        in_schema=part_schema)

    def sq(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "day" not in t.column_names:
            return pa.schema([("day", pa.int64()),
                              ("total", pa.int64()),
                              ("total_sq", pa.int64())]).empty_table()
        v = t["total"].to_numpy(zero_copy_only=False)
        return t.append_column("total_sq", pa.array(v * v))

    daily = daily.map_batches(sq, batch_format="pyarrow")
    r1 = rolling_agg(daily, order_by="day", window=_ANOM_W, op="sum",
                     value_col="total", out_col="w_sum")
    r2 = rolling_agg(r1, order_by="day", window=_ANOM_W, op="sum",
                     value_col="total_sq", out_col="w_sumsq")
    r3 = rolling_agg(r2, order_by="day", window=_ANOM_W, op="count",
                     out_col="w_n")

    def fin(t: pa.Table) -> pa.Table:
        out_schema = pa.schema([
            ("day", pa.int64()), ("total", pa.int64()),
            ("w_n", pa.int64()), ("w_sum", pa.int64()),
            ("z", pa.float64())])
        if t.num_rows == 0 or "w_sum" not in t.column_names:
            return out_schema.empty_table()
        x = t["total"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        n = t["w_n"].to_numpy(zero_copy_only=False).astype(np.float64)
        s = t["w_sum"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        ss = t["w_sumsq"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        mu = s / n
        var = ss / n - mu * mu
        sd = np.sqrt(np.maximum(var, 0.0))
        ok = sd > 0
        with np.errstate(invalid="ignore", divide="ignore"):
            z = (x - mu) / sd
        return pa.table({
            "day": pc.cast(t["day"], pa.int64()),
            "total": pc.cast(t["total"], pa.int64()),
            "w_n": pc.cast(t["w_n"], pa.int64()),
            "w_sum": pc.cast(t["w_sum"], pa.int64()),
            "z": pa.array(_r4(np.where(ok, z, 0.0)), pa.float64(),
                          mask=~ok)})

    return r3.map_batches(fin, batch_format="pyarrow")


QUERIES["daily_value_anomaly"] = q_daily_value_anomaly

_ANOM_MU = '(w_sum::DOUBLE / w_n::DOUBLE)'
_ANOM_SD = (f'sqrt(greatest(w_sumsq::DOUBLE / w_n::DOUBLE '
            f'- {_ANOM_MU} * {_ANOM_MU}, 0.0))')

ORACLE_SQL["daily_value_anomaly"] = f"""
WITH d AS (
  SELECT (epoch_us(ts)::BIGINT // 86400000000)::BIGINT AS day,
         sum(floor(value * 100)::BIGINT)::BIGINT AS total
  FROM events GROUP BY 1),
w AS (SELECT day, total,
             count(*) OVER win::BIGINT AS w_n,
             sum(total) OVER win::BIGINT AS w_sum,
             sum(total * total) OVER win::BIGINT AS w_sumsq
      FROM d
      WINDOW win AS (ORDER BY day
                     ROWS BETWEEN {_ANOM_W - 1} PRECEDING
                     AND CURRENT ROW))
SELECT day, total, w_n, w_sum,
       CASE WHEN {_ANOM_SD} > 0
            THEN {_R4.format(expr=f'((total::DOUBLE - {_ANOM_MU}) / {_ANOM_SD})')}
            ELSE NULL END AS z
FROM w
"""


def q_heaps_fit(sf_dir: str):
    """Heaps'-law fit of vocabulary growth — corpus law #2 next to
    zipf_slope (natural text: V ≈ K·N^β, β ≈ 0.4–0.6): per doc (in
    doc_id order) the cumulative analyzed-token count N and the
    cumulative distinct-term count V (a term is NEW in the doc that
    is its MINIMUM doc_id — one term-keyed grouped min, the plan's
    only data-sized exchange), both cumulative sums running through
    the distributed scan, then least squares of ln V on ln N over the
    per-doc points.  Tokenization = the oracle's base contract
    (Java-trim + punctuation split + lowercase + stopword filter);
    slope(=β)/intercept 4dp-gated."""
    import pyarrow.compute as pc

    from ..functions.tokenizers import JAVA_TRIM_CHARS
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.join import sort_merge_join
    from ..stages.scan import running_agg

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    tok_schema = pa.schema([("doc_id", pa.int64()),
                            ("term", pa.string())])

    def explode(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return tok_schema.empty_table()
        arr = pc.utf8_lower(pc.utf8_trim(
            t["text"].combine_chunks()
            if isinstance(t["text"], pa.ChunkedArray) else t["text"],
            characters=JAVA_TRIM_CHARS))
        toks = pc.split_pattern_regex(arr, pattern=PUNCT_SPLIT_RE2)
        flat = pc.list_flatten(toks)
        par = pc.list_parent_indices(toks)
        ids = _non_null_numpy(t, "doc_id").astype(np.int64)
        keep = pc.and_(
            pc.not_equal(flat, ""),
            pc.invert(pc.is_in(flat, value_set=pa.array(
                sorted(STOP_WORDS), pa.string()))))
        flat = flat.filter(keep)
        par = par.filter(keep)
        return pa.table({
            "doc_id": pa.array(
                ids[par.to_numpy(zero_copy_only=False)]),
            "term": flat})

    exploded = docs.map_batches(explode,
                                batch_format="pyarrow").materialize()

    # per-doc token counts
    cnt_schema = pa.schema([("doc_id", pa.int64()),
                            ("one", pa.int64())])
    per_doc = sorted_groupby_agg(
        exploded.map_batches(
            lambda t: pa.table({
                "doc_id": t["doc_id"],
                "one": pa.array(np.ones(t.num_rows, np.int64))})
            if t.num_rows else cnt_schema.empty_table(),
            batch_format="pyarrow"),
        ["doc_id"], [("one", "sum", "n_tok")], in_schema=cnt_schema)

    # terms are NEW in their minimum doc_id
    first = sorted_groupby_agg(exploded, ["term"],
                               [("doc_id", "min", "first_doc")],
                               in_schema=tok_schema)
    new_schema = pa.schema([("first_doc", pa.int64()),
                            ("one", pa.int64())])
    new_per_doc = sorted_groupby_agg(
        first.map_batches(
            lambda t: pa.table({
                "first_doc": t["first_doc"],
                "one": pa.array(np.ones(t.num_rows, np.int64))})
            if (t.num_rows and "first_doc" in t.column_names)
            else new_schema.empty_table(),
            batch_format="pyarrow"),
        ["first_doc"], [("one", "sum", "n_new")],
        in_schema=new_schema)

    j = sort_merge_join(
        per_doc, new_per_doc, on="doc_id", right_on="first_doc",
        how="left",
        left_schema=pa.schema([("doc_id", pa.int64()),
                               ("n_tok", pa.int64())]),
        right_schema=pa.schema([("first_doc", pa.int64()),
                                ("n_new", pa.int64())]),
        partitions=4)

    fill_schema = pa.schema([("doc_id", pa.int64()),
                             ("n_tok", pa.int64()),
                             ("n_new", pa.int64())])

    def fill(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return fill_schema.empty_table()
        nn = t["n_new"]
        nn = nn.combine_chunks() if isinstance(nn, pa.ChunkedArray) \
            else nn
        return pa.table({
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "n_tok": pc.cast(t["n_tok"], pa.int64()),
            "n_new": pc.fill_null(nn, 0).cast(pa.int64())})

    filled = j.map_batches(fill, batch_format="pyarrow")
    r1 = running_agg(filled, order_by="doc_id", op="sum",
                     value_col="n_tok", out_col="cum_n")
    r2 = running_agg(r1, order_by="doc_id", op="sum",
                     value_col="n_new", out_col="cum_v")

    mom_schema = pa.schema([("n", pa.int64()), ("sx", pa.float64()),
                            ("sy", pa.float64()), ("sxx", pa.float64()),
                            ("sxy", pa.float64())])

    def moments(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "cum_n" not in t.column_names:
            return mom_schema.empty_table()
        cn = t["cum_n"].to_numpy(zero_copy_only=False)
        cv = t["cum_v"].to_numpy(zero_copy_only=False)
        m = (cn > 0) & (cv > 0)
        x = np.log(cn[m].astype(np.float64))
        y = np.log(cv[m].astype(np.float64))
        return pa.table({
            "n": pa.array([np.int64(x.size)]),
            "sx": pa.array([x.sum()]), "sy": pa.array([y.sum()]),
            "sxx": pa.array([(x * x).sum()]),
            "sxy": pa.array([(x * y).sum()])})

    parts = r2.map_batches(moments, batch_format="pyarrow").take_all()
    n = float(sum(r["n"] for r in parts))
    sx = sum(r["sx"] for r in parts)
    sy = sum(r["sy"] for r in parts)
    sxx = sum(r["sxx"] for r in parts)
    sxy = sum(r["sxy"] for r in parts)
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    return pa.table({
        "n_docs": pa.array([np.int64(n)]),
        "beta": pa.array(_r4(np.array([slope]))),
        "intercept": pa.array(_r4(np.array([intercept]))),
    })


QUERIES["heaps_fit"] = q_heaps_fit

_HEAPS_SLOPE = '((n::DOUBLE * sxy - sx * sy) / (n::DOUBLE * sxx - sx * sx))'

ORACLE_SQL["heaps_fit"] = f"""
WITH {_BASE_CTE},
pd AS (SELECT doc_id, len(terms)::BIGINT AS n_tok FROM base),
ex AS (SELECT doc_id, unnest(terms) AS term FROM base),
fd AS (SELECT term, min(doc_id)::BIGINT AS first_doc
       FROM ex GROUP BY 1),
nw AS (SELECT first_doc, count(*)::BIGINT AS n_new
       FROM fd GROUP BY 1),
cum AS (SELECT pd.doc_id,
               sum(pd.n_tok) OVER (ORDER BY pd.doc_id
                                   ROWS UNBOUNDED PRECEDING)::BIGINT
                 AS cum_n,
               sum(coalesce(nw.n_new, 0))
                 OVER (ORDER BY pd.doc_id
                       ROWS UNBOUNDED PRECEDING)::BIGINT AS cum_v
        FROM pd LEFT JOIN nw ON nw.first_doc = pd.doc_id),
pts AS (SELECT ln(cum_n::DOUBLE) AS x, ln(cum_v::DOUBLE) AS y
        FROM cum WHERE cum_n > 0 AND cum_v > 0),
m AS (SELECT count(*)::BIGINT AS n, sum(x) AS sx, sum(y) AS sy,
             sum(x * x) AS sxx, sum(x * y) AS sxy
      FROM pts)
SELECT n AS n_docs,
       {_R4.format(expr=_HEAPS_SLOPE)} AS beta,
       {_R4.format(expr=f'((sy - {_HEAPS_SLOPE} * sx) / n::DOUBLE)')}
         AS intercept
FROM m
"""


def q_peak_concurrency(sf_dir: str):
    """Peak concurrent sessions — the classic sweep-line
    interval-overlap maximum (capacity-planning's load question):
    sessions from the ★ sessionize plan become (+1 at start, −1 at
    end, inclusive bounds) boundary deltas, aggregated per distinct
    timestamp into (net, n_starts) through ONE ts-keyed grouped sum,
    and the peak is max over timestamps of (running net THROUGH t
    minus net(t) plus n_starts(t)) — i.e. the count after all starts
    and before any end at that instant, which is order-independent
    within the tie group and therefore deterministic on both engines.
    All-integer; running scan + scalar-partial max."""
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.scan import running_agg
    from ..stages.windows import sessionize

    sess = sessionize(read_table(sf_dir, "events"), gap_s=SESSION_GAP_S)

    b_schema = pa.schema([("tu", pa.int64()), ("delta", pa.int64()),
                          ("pos", pa.int64())])

    def bounds(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "session_start_us" not in t.column_names:
            return b_schema.empty_table()
        s = _non_null_numpy(t, "session_start_us").astype(np.int64)
        e = _non_null_numpy(t, "session_end_us").astype(np.int64)
        n = s.size
        return pa.table({
            "tu": pa.array(np.r_[s, e]),
            "delta": pa.array(np.r_[np.ones(n, np.int64),
                                    -np.ones(n, np.int64)]),
            "pos": pa.array(np.r_[np.ones(n, np.int64),
                                  np.zeros(n, np.int64)])})

    per_ts = sorted_groupby_agg(
        sess.map_batches(bounds, batch_format="pyarrow"),
        ["tu"], [("delta", "sum", "net"), ("pos", "sum", "n_starts")],
        in_schema=pa.schema([("tu", pa.int64()), ("delta", pa.int64()),
                             ("pos", pa.int64())]))

    run = running_agg(per_ts, order_by="tu", op="sum",
                      value_col="net", out_col="cum_net")

    peak_schema = pa.schema([("peak", pa.int64()), ("n", pa.int64())])

    def local_peak(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "cum_net" not in t.column_names:
            return peak_schema.empty_table()
        cum = t["cum_net"].to_numpy(zero_copy_only=False)
        net = t["net"].to_numpy(zero_copy_only=False)
        pos = t["n_starts"].to_numpy(zero_copy_only=False)
        cand = cum - net + pos      # after all starts, before any end
        return pa.table({
            "peak": pa.array([cand.max() if cand.size else 0]),
            "n": pa.array([np.int64(0)])})

    parts = run.map_batches(local_peak,
                            batch_format="pyarrow").take_all()
    if not parts:
        raise ValueError("peak_concurrency: no sessions")
    peak = max(int(r["peak"]) for r in parts)
    n_sessions = sess.count()
    return pa.table({
        "n_sessions": pa.array([n_sessions], pa.int64()),
        "peak_concurrent": pa.array([peak], pa.int64()),
    })


QUERIES["peak_concurrency"] = q_peak_concurrency

ORACLE_SQL["peak_concurrency"] = f"""
WITH sess AS ({_sessionize_sql()}),
b AS (
  SELECT session_start_us AS tu, 1 AS delta, 1 AS pos FROM sess
  UNION ALL
  SELECT session_end_us, -1, 0 FROM sess),
g AS (SELECT tu, sum(delta)::BIGINT AS net,
             sum(pos)::BIGINT AS n_starts
      FROM b GROUP BY 1),
c AS (SELECT tu, net, n_starts,
             sum(net) OVER (ORDER BY tu
                            ROWS UNBOUNDED PRECEDING)::BIGINT
               AS cum_net
      FROM g)
SELECT (SELECT count(*) FROM sess)::BIGINT AS n_sessions,
       max(cum_net - net + n_starts)::BIGINT AS peak_concurrent
FROM c
"""


def q_purchase_value_locf(sf_dir: str):
    """Forward-fill gap repair (stages/scan.py: locf_fill): each
    event carries the user's most recent PURCHASE value at or before
    it — value is NULL on non-purchase rows, then LOCF per user in
    (ts, event_id) order through the scan family's one-sort +
    carry-thread plan (type-generic index-take fill).  Rows before a
    user's first purchase stay NULL; filled cents exact int64."""
    import pyarrow.compute as pc

    from ..stages.scan import locf_fill

    ev = read_table(sf_dir, "events", columns=["user_id", "ts", "event_id",
                                               "event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        ts = t["ts"]
        ts = ts.combine_chunks() if isinstance(ts, pa.ChunkedArray) \
            else ts
        v = _non_null_numpy(t, "value")
        cents = np.floor(v * 100).astype(np.int64)
        buy = pc.equal(t["event_type"], "purchase") \
            .to_numpy(zero_copy_only=False)
        return pa.table({
            "user_id": t["user_id"], "event_id": t["event_id"],
            "us": ts.cast(pa.int64()),
            "pv": pa.array(cents, pa.int64(), mask=~buy)})

    out = locf_fill(ev.map_batches(prep, batch_format="pyarrow"),
                    value_col="pv", order_by=["us", "event_id"],
                    key_col="user_id", out_col="last_purchase_cents")

    fin = shape(pa.schema({"event_id": pa.int64(), "last_purchase_cents": pa.int64()}))
    return out.map_batches(fin, batch_format="pyarrow")


QUERIES["purchase_value_locf"] = q_purchase_value_locf

ORACLE_SQL["purchase_value_locf"] = """
SELECT event_id,
       last_value(CASE WHEN event_type = 'purchase'
                       THEN floor(value * 100)::BIGINT END
                  IGNORE NULLS)
         OVER (PARTITION BY user_id
               ORDER BY epoch_us(ts), event_id
               ROWS UNBOUNDED PRECEDING) AS last_purchase_cents
FROM events
"""


def q_user_stickiness(sf_dir: str):
    """DAU/WAU stickiness — the product-engagement ratio: mean daily
    distinct users over mean weekly (7-day tumbling) distinct users.
    Exact plan: distinct (bucket, user) via grouped count (the one
    data-sized exchange, done once per granularity), bucket-bounded
    per-bucket distinct counts, integer sums, three 4dp-gated
    divisions."""
    from ..stages.aggregates import sorted_groupby_agg

    ds = read_table(sf_dir, "events", columns=["ts", "user_id"])

    def counts_per_bucket(div_us: int, tag: str):
        part_schema = pa.schema([("b", pa.int64()),
                                 ("user_id", pa.int64()),
                                 ("one", pa.int64())])

        def prep(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return part_schema.empty_table()
            us = _ts_int64(t, "ts")
            return pa.table({
                "b": pa.array(us // div_us), "user_id": t["user_id"],
                "one": pa.array(np.ones(t.num_rows, np.int64))})

        d = sorted_groupby_agg(
            ds.map_batches(prep, batch_format="pyarrow"),
            ["b", "user_id"], [("one", "min", "one")],
            in_schema=part_schema)
        per_b = sorted_groupby_agg(
            d, ["b"], [("user_id", "count", "n_users")],
            in_schema=pa.schema([("b", pa.int64()),
                                 ("user_id", pa.int64()),
                                 ("one", pa.int64())]))
        rows = [r for t in per_b.iter_batches(batch_format="pyarrow")
                if t.num_rows and "b" in t.column_names
                for r in t.to_pylist()]          # bucket-bounded
        return rows

    day = counts_per_bucket(86_400_000_000, "day")
    week = counts_per_bucket(7 * 86_400_000_000, "week")
    n_days, sum_dau = len(day), sum(r["n_users"] for r in day)
    n_weeks, sum_wau = len(week), sum(r["n_users"] for r in week)
    mean_dau = sum_dau / n_days
    mean_wau = sum_wau / n_weeks
    return pa.table({
        "n_days": pa.array([n_days], pa.int64()),
        "n_weeks": pa.array([n_weeks], pa.int64()),
        "mean_dau": pa.array(_r4(np.array([mean_dau]))),
        "mean_wau": pa.array(_r4(np.array([mean_wau]))),
        "stickiness": pa.array(_r4(np.array([mean_dau / mean_wau]))),
    })


QUERIES["user_stickiness"] = q_user_stickiness

ORACLE_SQL["user_stickiness"] = f"""
WITH d AS (SELECT (epoch_us(ts)::BIGINT // 86400000000)::BIGINT AS b,
                  count(DISTINCT user_id)::BIGINT AS n
           FROM events GROUP BY 1),
w AS (SELECT (epoch_us(ts)::BIGINT // {7 * 86_400_000_000})::BIGINT
         AS b, count(DISTINCT user_id)::BIGINT AS n
      FROM events GROUP BY 1),
m AS (SELECT (SELECT count(*) FROM d)::BIGINT AS n_days,
             (SELECT count(*) FROM w)::BIGINT AS n_weeks,
             (SELECT sum(n) FROM d)::BIGINT AS sum_dau,
             (SELECT sum(n) FROM w)::BIGINT AS sum_wau)
SELECT n_days, n_weeks,
       {_R4.format(expr='(sum_dau::DOUBLE / n_days::DOUBLE)')}
         AS mean_dau,
       {_R4.format(expr='(sum_wau::DOUBLE / n_weeks::DOUBLE)')}
         AS mean_wau,
       {_R4.format(expr='((sum_dau::DOUBLE / n_days::DOUBLE) '
                        '/ (sum_wau::DOUBLE / n_weeks::DOUBLE))')}
         AS stickiness
FROM m
"""


def q_revenue_pareto(sf_dir: str):
    """80/20 revenue concentration — how many top spenders cover 80%
    of total monetary value: per-user exact int64 cents sums (ONE
    user-keyed grouped sum), ranked monetary DESC with user_id ASC
    tiebreak through the distributed running scan, and the cutoff
    decided with PURE INTEGERS (5·cum ≥ 4·total — no float boundary
    anywhere); share 4dp-gated."""
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.scan import running_agg

    ds = read_table(sf_dir, "events", columns=["user_id", "value"])

    part_schema = pa.schema([("user_id", pa.int64()),
                             ("cents", pa.int64())])

    def prep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        return pa.table({
            "user_id": t["user_id"],
            "cents": pa.array(np.floor(
                _non_null_numpy(t, "value") * 100)
                .astype(np.int64))})

    per_user = sorted_groupby_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["user_id"], [("cents", "sum", "monetary")],
        in_schema=part_schema)

    def neg(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "monetary" not in t.column_names:
            return pa.schema([("user_id", pa.int64()),
                              ("monetary", pa.int64()),
                              ("nm", pa.int64())]).empty_table()
        m = t["monetary"].to_numpy(zero_copy_only=False)
        return t.append_column("nm", pa.array(-m))

    run = running_agg(per_user.map_batches(neg, batch_format="pyarrow"),
                      order_by=["nm", "user_id"], op="sum",
                      value_col="monetary", out_col="cum")

    scal_schema = pa.schema([("tot", pa.int64())])

    def partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "monetary" not in t.column_names:
            return scal_schema.empty_table()
        mon = t["monetary"].to_numpy(zero_copy_only=False)
        return pa.table({"tot": pa.array([mon.sum()])})

    # the cutoff needs the GLOBAL total first: one scalar-partial
    # pass for it, then a streaming ordered sweep for the integer
    # boundary (driver holds one batch + two ints)
    tot = int(sum(r["tot"] for r in
                  run.map_batches(partials,
                                  batch_format="pyarrow").take_all()))
    k = 0
    n_users = 0
    done = False
    for t in run.iter_batches(batch_format="pyarrow"):  # ordered scan
        if t.num_rows == 0 or "cum" not in t.column_names:
            continue
        cum = t["cum"].to_numpy(zero_copy_only=False)
        n_users += t.num_rows
        if not done:
            hit = np.flatnonzero(5 * cum >= 4 * tot)
            if hit.size:
                k += int(hit[0]) + 1
                done = True
            else:
                k += t.num_rows
    return pa.table({
        "n_users": pa.array([n_users], pa.int64()),
        "top_users_for_80pct": pa.array([k], pa.int64()),
        "share_of_users": pa.array(_r4(np.array([k / n_users]))),
    })


QUERIES["revenue_pareto"] = q_revenue_pareto

ORACLE_SQL["revenue_pareto"] = f"""
WITH u AS (SELECT user_id,
                  sum(floor(value * 100)::BIGINT)::BIGINT AS monetary
           FROM events GROUP BY 1),
c AS (SELECT user_id, monetary,
             sum(monetary) OVER (ORDER BY monetary DESC, user_id
                                 ROWS UNBOUNDED PRECEDING)::BIGINT
               AS cum
      FROM u),
tot AS (SELECT sum(monetary)::BIGINT AS tot,
               count(*)::BIGINT AS n_users FROM u),
k AS (SELECT count(*)::BIGINT AS before_k
      FROM c, tot WHERE 5 * c.cum < 4 * tot.tot)
SELECT tot.n_users,
       (k.before_k + 1)::BIGINT AS top_users_for_80pct,
       {_R4.format(expr='((k.before_k + 1)::DOUBLE '
                        '/ tot.n_users::DOUBLE)')} AS share_of_users
FROM tot, k
"""


def q_bfs_hop_profile(sf_dir: str):
    """Reachability profile of the multi-source BFS (crawl-depth
    histogram): nodes per hop level from the ★ bfs_hops plan plus
    each level's cumulative share of ALL graph nodes — the
    coverage-per-depth curve crawl planning reads.  Hop-bounded
    grouped count + integer cumulative; share 4dp-gated."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from ..stages.aggregates import sorted_groupby_agg

    hops = q_bfs_hops(sf_dir)
    n = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows

    h_schema = pa.schema([("hop", pa.int64()), ("one", pa.int64())])

    def prep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "hop" not in t.column_names:
            return h_schema.empty_table()
        return pa.table({
            "hop": pc.cast(t["hop"], pa.int64()),
            "one": pa.array(np.ones(t.num_rows, np.int64))})

    agg = sorted_groupby_agg(
        hops.map_batches(prep, batch_format="pyarrow"),
        ["hop"], [("one", "sum", "n_nodes")], in_schema=h_schema)

    rows = [r for t in agg.iter_batches(batch_format="pyarrow")
            if t.num_rows and "hop" in t.column_names
            for r in t.to_pylist()]              # ≤ max_hops+1 rows
    rows.sort(key=lambda r: r["hop"])
    cum = 0
    out = []
    for r in rows:
        cum += r["n_nodes"]
        out.append((r["hop"], r["n_nodes"], cum))
    return pa.table({
        "hop": pa.array([r[0] for r in out], pa.int64()),
        "n_nodes": pa.array([r[1] for r in out], pa.int64()),
        "cum_share": pa.array(_r4(np.array(
            [r[2] / n for r in out], np.float64))),
    })


QUERIES["bfs_hop_profile"] = q_bfs_hop_profile

ORACLE_SQL["bfs_hop_profile"] = f"""
WITH bh AS ({ORACLE_SQL["bfs_hops"]}),
nn AS (SELECT count(*)::BIGINT AS n FROM documents),
g AS (SELECT hop, count(*)::BIGINT AS n_nodes FROM bh GROUP BY 1),
c AS (SELECT hop, n_nodes,
             sum(n_nodes) OVER (ORDER BY hop
                                ROWS UNBOUNDED PRECEDING)::BIGINT
               AS cum
      FROM g)
SELECT hop, n_nodes,
       {_R4.format(expr='(cum::DOUBLE / (SELECT n FROM nn)::DOUBLE)')}
         AS cum_share
FROM c ORDER BY hop
"""


def q_purchase_value_nocb(sf_dir: str):
    """Backward-fill sibling of purchase_value_locf (stages/scan.py:
    locf_fill(direction='backward')): each event carries the user's
    NEXT purchase value at or after it — the identical carry plan
    over the descending sort; rows after a user's last purchase stay
    NULL."""
    import pyarrow.compute as pc

    from ..stages.scan import locf_fill

    ev = read_table(sf_dir, "events", columns=["user_id", "ts", "event_id",
                                               "event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        ts = t["ts"]
        ts = ts.combine_chunks() if isinstance(ts, pa.ChunkedArray) \
            else ts
        v = _non_null_numpy(t, "value")
        cents = np.floor(v * 100).astype(np.int64)
        buy = pc.equal(t["event_type"], "purchase") \
            .to_numpy(zero_copy_only=False)
        return pa.table({
            "user_id": t["user_id"], "event_id": t["event_id"],
            "us": ts.cast(pa.int64()),
            "pv": pa.array(cents, pa.int64(), mask=~buy)})

    out = locf_fill(ev.map_batches(prep, batch_format="pyarrow"),
                    value_col="pv", order_by=["us", "event_id"],
                    key_col="user_id", direction="backward",
                    out_col="next_purchase_cents")

    fin = shape(pa.schema({"event_id": pa.int64(), "next_purchase_cents": pa.int64()}))
    return out.map_batches(fin, batch_format="pyarrow")


QUERIES["purchase_value_nocb"] = q_purchase_value_nocb

ORACLE_SQL["purchase_value_nocb"] = """
SELECT event_id,
       first_value(CASE WHEN event_type = 'purchase'
                        THEN floor(value * 100)::BIGINT END
                   IGNORE NULLS)
         OVER (PARTITION BY user_id
               ORDER BY epoch_us(ts), event_id
               ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING)
         AS next_purchase_cents
FROM events
"""


def q_benford_value_test(sf_dir: str):
    """Benford's-law first-digit audit of the value column (the
    fraud / fabricated-data screen): the leading digit of each
    positive cents amount (taken from the DECIMAL STRING — no
    float log10 boundary anywhere), one 9-bounded grouped count,
    and per digit the observed share next to Benford's expected
    log10(1 + 1/d); shares 4dp-gated, counts exact."""
    from ..stages.aggregates import sorted_groupby_agg

    ds = read_table(sf_dir, "events", columns=["value"])

    part_schema = pa.schema([("digit", pa.int64()),
                             ("cnt", pa.int64())])

    def partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        cents = np.floor(_non_null_numpy(t, "value")
                         * 100).astype(np.int64)
        cents = cents[cents > 0]
        if cents.size == 0:
            return part_schema.empty_table()
        # leading digit via the decimal string: exact on both engines
        first = np.frombuffer(
            np.char.ljust(cents.astype("U20"), 1).astype("U1")
            .tobytes(), dtype="<u4").astype(np.int64) - ord("0")
        cnt = np.bincount(first, minlength=10)
        nz = np.flatnonzero(cnt[1:]) + 1
        return pa.table({"digit": pa.array(nz),
                         "cnt": pa.array(cnt[nz].astype(np.int64))})

    agg = sorted_groupby_agg(
        ds.map_batches(partials, batch_format="pyarrow"),
        ["digit"], [("cnt", "sum", "n")], in_schema=part_schema)

    rows = [r for t in agg.iter_batches(batch_format="pyarrow")
            if t.num_rows and "digit" in t.column_names
            for r in t.to_pylist()]              # 9-bounded
    rows.sort(key=lambda r: r["digit"])
    total = sum(r["n"] for r in rows)
    dig = np.array([r["digit"] for r in rows], np.int64)
    n = np.array([r["n"] for r in rows], np.int64)
    return pa.table({
        "digit": pa.array(dig),
        "n": pa.array(n),
        "obs_p": pa.array(_r4(n / total)),
        "exp_p": pa.array(_r4(np.log10(1.0 + 1.0 / dig))),
    })


QUERIES["benford_value_test"] = q_benford_value_test

ORACLE_SQL["benford_value_test"] = f"""
WITH c AS (SELECT floor(value * 100)::BIGINT AS cents FROM events
           WHERE floor(value * 100) > 0),
d AS (SELECT substr(cents::VARCHAR, 1, 1)::BIGINT AS digit,
             count(*)::BIGINT AS n
      FROM c GROUP BY 1),
tot AS (SELECT sum(n)::BIGINT AS total FROM d)
SELECT digit, n,
       {_R4.format(expr='(n::DOUBLE / tot.total::DOUBLE)')} AS obs_p,
       {_R4.format(expr='log10(1.0 + 1.0 / digit::DOUBLE)')} AS exp_p
FROM d, tot ORDER BY digit
"""


def q_ivm_status_totals(sf_dir: str):
    """Incremental view maintenance (the streaming-warehouse
    invariant): maintain the per-status (n_orders, cents_sum)
    aggregate under the orders_cdc_merge change stream by applying a
    CHANGED-KEYS-ONLY delta to the base aggregate — updates
    contribute cents_new − cents_old (both floors of the same IEEE
    expressions the oracle evaluates), deletes contribute
    (−1, −cents_old) and WIN over same-key updates (the merge's
    version rule) — and assert-by-oracle that the incrementally
    maintained view equals a full recompute over the merged state.
    One batch pass emits base + delta partials; ONE status-bounded
    grouped sum; all-integer."""
    from ..stages.aggregates import sorted_groupby_agg

    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_orderstatus",
                                                   "o_totalprice"])

    part_schema = pa.schema([("o_orderstatus", pa.string()),
                             ("n", pa.int64()), ("cents", pa.int64())])

    def partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        k = t["o_orderkey"].to_numpy(zero_copy_only=False)
        p = _non_null_numpy(t, "o_totalprice")
        st = t["o_orderstatus"]
        st = st.combine_chunks() if isinstance(st, pa.ChunkedArray) \
            else st
        cents_old = np.floor(p * 100).astype(np.int64)
        cents_new = np.floor((p + 1000.0) * 100).astype(np.int64)
        is_del = k % 17 == 0
        is_upd = (k % 10 == 0) & ~is_del
        # base contribution: every row counts once
        n = np.ones(t.num_rows, np.int64)
        cents = cents_old.copy()
        # delta: deletes remove the original row; updates shift price
        n = n - is_del.astype(np.int64)
        cents = cents - np.where(is_del, cents_old, 0) \
            + np.where(is_upd, cents_new - cents_old, 0)
        return pa.table({"o_orderstatus": st,
                         "n": pa.array(n), "cents": pa.array(cents)})

    agg = sorted_groupby_agg(
        orders.map_batches(partials, batch_format="pyarrow"),
        ["o_orderstatus"],
        [("n", "sum", "n_orders"), ("cents", "sum", "cents_sum")],
        in_schema=part_schema)
    return agg


QUERIES["ivm_status_totals"] = q_ivm_status_totals

ORACLE_SQL["ivm_status_totals"] = f"""
WITH merged AS ({ORACLE_SQL["orders_cdc_merge"]})
SELECT o_orderstatus,
       count(*)::BIGINT AS n_orders,
       sum(floor(o_totalprice * 100)::BIGINT)::BIGINT AS cents_sum
FROM merged
GROUP BY o_orderstatus
ORDER BY o_orderstatus
"""


_Q18_MIN_QTY = 180


def q_large_volume_orders(sf_dir: str):
    """TPC-H-Q18-shaped large-volume-customer report: orders whose
    TOTAL lineitem quantity exceeds a threshold, joined back to the
    customer — the HAVING-subquery pattern: ONE orderkey grouped
    int64 quantity sum, integer threshold filter (sum > 180), then
    two key joins (orders, customer) on the tiny surviving side;
    all-integer output ordered by the driver compare."""

    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.join import sort_merge_join

    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])

    part_schema = pa.schema([("l_orderkey", pa.int64()),
                             ("qty", pa.int64())])

    def prep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        q = _non_null_numpy(t, "l_quantity").astype(np.int64)
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "qty": pa.array(q)})

    totals = sorted_groupby_agg(
        li.map_batches(prep, batch_format="pyarrow"),
        ["l_orderkey"], [("qty", "sum", "sum_qty")],
        in_schema=part_schema)
    big = totals.filter(lambda r: r["sum_qty"] > _Q18_MIN_QTY)

    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    j1 = sort_merge_join(
        big, orders, on="l_orderkey", right_on="o_orderkey",
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("sum_qty", pa.int64())]),
        partitions=4)
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_name"])
    j2 = sort_merge_join(
        j1, cust, on="o_custkey", right_on="c_custkey",
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("sum_qty", pa.int64()),
                               ("o_custkey", pa.int64())]),
        partitions=4)

    fin = shape(pa.schema({"c_name": pa.string(), "o_orderkey": pa.int64(),
                           "sum_qty": pa.int64()}), rename={"o_orderkey": "l_orderkey"})
    return j2.map_batches(fin, batch_format="pyarrow")


QUERIES["large_volume_orders"] = q_large_volume_orders

ORACLE_SQL["large_volume_orders"] = f"""
SELECT c_name, o_orderkey, t.sum_qty
FROM (SELECT l_orderkey, sum(l_quantity)::BIGINT AS sum_qty
      FROM lineitem GROUP BY 1
      HAVING sum(l_quantity) > {_Q18_MIN_QTY}) t
JOIN orders ON o_orderkey = t.l_orderkey
JOIN customer ON c_custkey = o_custkey
ORDER BY o_orderkey
"""


def q_orders_above_cust_avg(sf_dir: str):
    """Correlated-scalar-subquery pattern, decided with PURE
    INTEGERS: per customer, how many of their orders exceed THEIR OWN
    average order value — cents·n_c > sum_c (cross-multiplied, no
    float average anywhere).  ONE custkey grouped sum for
    (n, Σcents), one custkey sort-merge join back, per-customer
    integer compare, grouped count; customers with ≥1 such order
    only (inner-join semantics mirror the SQL)."""
    import pyarrow.compute as pc

    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.join import sort_merge_join

    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    part_schema = pa.schema([("o_custkey", pa.int64()),
                             ("cents", pa.int64()),
                             ("one", pa.int64())])

    def prep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        p = _non_null_numpy(t, "o_totalprice")
        return pa.table({
            "o_custkey": t["o_custkey"],
            "cents": pa.array(np.floor(p * 100).astype(np.int64)),
            "one": pa.array(np.ones(t.num_rows, np.int64))})

    base = orders.map_batches(prep,
                              batch_format="pyarrow").materialize()
    per_cust = sorted_groupby_agg(
        base, ["o_custkey"],
        [("cents", "sum", "sum_c"), ("one", "sum", "n_c")],
        in_schema=part_schema)
    j = sort_merge_join(
        base, per_cust, on="o_custkey", right_on="o_custkey",
        suffix="_t",
        left_schema=part_schema,
        right_schema=pa.schema([("o_custkey", pa.int64()),
                                ("sum_c", pa.int64()),
                                ("n_c", pa.int64())]),
        partitions=4)

    above_schema = pa.schema([("o_custkey", pa.int64()),
                              ("one", pa.int64())])

    def above(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "cents" not in t.column_names:
            return above_schema.empty_table()
        c = t["cents"].to_numpy(zero_copy_only=False)
        s = t["sum_c"].to_numpy(zero_copy_only=False)
        n = t["n_c"].to_numpy(zero_copy_only=False)
        keep = c * n > s                     # exact cross-multiply
        f = t.filter(pa.array(keep))
        return pa.table({
            "o_custkey": pc.cast(f["o_custkey"], pa.int64()),
            "one": pa.array(np.ones(f.num_rows, np.int64))})

    agg = sorted_groupby_agg(
        j.map_batches(above, batch_format="pyarrow"),
        ["o_custkey"], [("one", "sum", "n_above")],
        in_schema=above_schema)
    return agg


QUERIES["orders_above_cust_avg"] = q_orders_above_cust_avg

ORACLE_SQL["orders_above_cust_avg"] = """
WITH b AS (SELECT o_custkey,
                  floor(o_totalprice * 100)::BIGINT AS cents
           FROM orders),
t AS (SELECT o_custkey, sum(cents)::BIGINT AS sum_c,
             count(*)::BIGINT AS n_c
      FROM b GROUP BY 1)
SELECT b.o_custkey, count(*)::BIGINT AS n_above
FROM b JOIN t ON t.o_custkey = b.o_custkey
WHERE b.cents * t.n_c > t.sum_c
GROUP BY b.o_custkey
"""


def q_user_day_streaks(sf_dir: str):
    """Gaps-and-islands — the canonical consecutive-streak pattern:
    each user's LONGEST run of consecutive active days.  Classic
    island id = day − row_number() within user by day (consecutive
    days share it); plan = distinct (user, day) via grouped count,
    the distributed row_number scan keyed by user, an island grouped
    count, and a per-user grouped max.  All-integer, every exchange
    keyed and bounded by distinct active days."""
    import pyarrow.compute as pc

    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.scan import running_agg

    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])

    part_schema = pa.schema([("user_id", pa.int64()),
                             ("day", pa.int64()), ("one", pa.int64())])

    def prep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        us = _ts_int64(t, "ts")
        return pa.table({
            "user_id": t["user_id"],
            "day": pa.array(us // 86_400_000_000),
            "one": pa.array(np.ones(t.num_rows, np.int64))})

    days = sorted_groupby_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["user_id", "day"], [("one", "min", "one")],
        in_schema=part_schema)

    rn = running_agg(days, order_by="day", op="count",
                     key_col="user_id", out_col="rn")

    isl_schema = pa.schema([("user_id", pa.int64()),
                            ("island", pa.int64()),
                            ("one", pa.int64())])

    def island(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "rn" not in t.column_names:
            return isl_schema.empty_table()
        d = t["day"].to_numpy(zero_copy_only=False)
        r = t["rn"].to_numpy(zero_copy_only=False)
        return pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "island": pa.array(d - r),
            "one": pa.array(np.ones(t.num_rows, np.int64))})

    runs = sorted_groupby_agg(
        rn.map_batches(island, batch_format="pyarrow"),
        ["user_id", "island"], [("one", "sum", "streak")],
        in_schema=isl_schema)
    best = sorted_groupby_agg(
        runs, ["user_id"], [("streak", "max", "max_streak")],
        in_schema=pa.schema([("user_id", pa.int64()),
                             ("island", pa.int64()),
                             ("streak", pa.int64())]))
    return best


QUERIES["user_day_streaks"] = q_user_day_streaks

ORACLE_SQL["user_day_streaks"] = """
WITH d AS (SELECT DISTINCT user_id,
                  (epoch_us(ts)::BIGINT // 86400000000)::BIGINT AS day
           FROM events),
r AS (SELECT user_id, day,
             row_number() OVER (PARTITION BY user_id
                                ORDER BY day)::BIGINT AS rn
      FROM d),
g AS (SELECT user_id, day - rn AS island, count(*)::BIGINT AS streak
      FROM r GROUP BY 1, 2)
SELECT user_id, max(streak)::BIGINT AS max_streak
FROM g GROUP BY user_id
"""


def q_orders_scd2(sf_dir: str):
    """SCD Type 2 history table from the orders_cdc_merge change
    stream — the slowly-changing-dimension pattern every lakehouse
    materializes: each key's version stream (original row; +1000
    update at date+1d for keys %10; delete tombstone at date+2d for
    keys %17) becomes validity intervals — valid_from = the version's
    timestamp, valid_to = LEAD(version ts) within key (NULL = open),
    tombstones CLOSE the prior interval but emit no row, and
    is_current marks open non-deleted intervals.  One key-ordered
    LEAD scan over the ≤3-rows-per-key stream; all-integer µs
    boundaries."""
    import pyarrow.compute as pc

    from ..stages.scan import lead_column

    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_totalprice",
                                                   "o_orderdate"])

    st_schema = pa.schema([("o_orderkey", pa.int64()),
                           ("cents", pa.int64()), ("ver", pa.int64()),
                           ("is_del", pa.int64())])

    def stream(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return st_schema.empty_table()
        k = t["o_orderkey"].to_numpy(zero_copy_only=False)
        p = _non_null_numpy(t, "o_totalprice")
        ver = _ts_int64(t, "o_orderdate")
        cents = np.floor(p * 100).astype(np.int64)
        cents_new = np.floor((p + 1000.0) * 100).astype(np.int64)
        upd = k % 10 == 0
        dl = k % 17 == 0
        ks = [k]; cs = [cents]; vs = [ver]; ds_ = [np.zeros(k.size,
                                                            np.int64)]
        if upd.any():
            ks.append(k[upd]); cs.append(cents_new[upd])
            vs.append(ver[upd] + _CDC_DAY_US)
            ds_.append(np.zeros(int(upd.sum()), np.int64))
        if dl.any():
            ks.append(k[dl]); cs.append(cents[dl])
            vs.append(ver[dl] + 2 * _CDC_DAY_US)
            ds_.append(np.ones(int(dl.sum()), np.int64))
        return pa.table({
            "o_orderkey": pa.array(np.concatenate(ks)),
            "cents": pa.array(np.concatenate(cs)),
            "ver": pa.array(np.concatenate(vs)),
            "is_del": pa.array(np.concatenate(ds_))})

    led = lead_column(
        orders.map_batches(stream, batch_format="pyarrow"),
        value_col="ver", order_by=["ver"], key_col="o_orderkey",
        out_col="valid_to")

    def fin(t: pa.Table) -> pa.Table:
        out_schema = pa.schema([
            ("o_orderkey", pa.int64()), ("cents", pa.int64()),
            ("valid_from", pa.int64()), ("valid_to", pa.int64()),
            ("is_current", pa.int64())])
        if t.num_rows == 0 or "valid_to" not in t.column_names:
            return out_schema.empty_table()
        f = t.filter(pc.equal(t["is_del"], 0))
        vt = f["valid_to"]
        vt = vt.combine_chunks() if isinstance(vt, pa.ChunkedArray) \
            else vt
        cur = vt.is_null().cast(pa.int64())
        return pa.table({
            "o_orderkey": pc.cast(f["o_orderkey"], pa.int64()),
            "cents": pc.cast(f["cents"], pa.int64()),
            "valid_from": pc.cast(f["ver"], pa.int64()),
            "valid_to": pc.cast(vt, pa.int64()),
            "is_current": cur})

    return led.map_batches(fin, batch_format="pyarrow")


QUERIES["orders_scd2"] = q_orders_scd2

ORACLE_SQL["orders_scd2"] = f"""
WITH b AS (SELECT o_orderkey,
                  floor(o_totalprice * 100)::BIGINT AS cents,
                  floor((o_totalprice + 1000.0) * 100)::BIGINT
                    AS cents_new,
                  epoch_us(o_orderdate)::BIGINT AS ver
           FROM orders),
s AS (
  SELECT o_orderkey, cents, ver, 0 AS is_del FROM b
  UNION ALL
  SELECT o_orderkey, cents_new, ver + {_CDC_DAY_US}, 0
  FROM b WHERE o_orderkey % 10 = 0
  UNION ALL
  SELECT o_orderkey, cents, ver + {2 * _CDC_DAY_US}, 1
  FROM b WHERE o_orderkey % 17 = 0),
l AS (SELECT *, lead(ver) OVER (PARTITION BY o_orderkey
                                ORDER BY ver) AS valid_to
      FROM s)
SELECT o_orderkey, cents, ver AS valid_from,
       valid_to::BIGINT AS valid_to,
       CASE WHEN valid_to IS NULL THEN 1 ELSE 0 END::BIGINT
         AS is_current
FROM l WHERE is_del = 0
"""


# ---------------------------------------------------------------------
# wave 9: interpolated quantiles, PRF query expansion, chi-square
# independence, time-decayed counts
# ---------------------------------------------------------------------

CONT_PCTS = [10, 25, 50, 75, 90, 99]


def q_value_quantiles_cont(sf_dir: str):
    """Exact INTERPOLATED whole-table quantiles of event value (SQL
    ``percentile_cont`` semantics) — the continuous sibling of the
    discrete `value_quantiles_global`: values become exact int64
    cents, the target position h = (n−1)·p/100 and the interpolation
    weight are PURE INTEGERS (lo = ⌊(n−1)p/100⌋, num = (n−1)p mod
    100), and the interpolated value is the exact int64 numerator
    v_lo·(100−num) + v_hi·num divided once by 10000.0 — both engines
    divide the SAME integer by the same scale, so the doubles are
    bit-identical with no rounding gate needed.  ONE range sort;
    ranks located via sorted-block metadata (two block fetches per
    percentile at most)."""
    from ..stages.aggregates import global_quantiles_cont

    def prep(t: pa.Table) -> pa.Table:
        v = t["value"]
        v = v.combine_chunks() if isinstance(v, pa.ChunkedArray) else v
        v = v.drop_null()
        cents = np.floor(v.to_numpy(zero_copy_only=False)
                         * 100).astype(np.int64)
        return pa.table({"cents": pa.array(cents)})

    ds = read_table(sf_dir, "events").map_batches(prep, batch_format="pyarrow")
    out = global_quantiles_cont(ds, "cents", CONT_PCTS)
    val = out["interp_num"].to_numpy(zero_copy_only=False) \
        .astype(np.float64) / 10000.0
    return pa.table({"p": out["p"], "value": pa.array(val)})


QUERIES["value_quantiles_cont"] = q_value_quantiles_cont

ORACLE_SQL["value_quantiles_cont"] = f"""
WITH v AS (SELECT floor(value * 100)::BIGINT AS cents
           FROM events WHERE value IS NOT NULL),
o AS (SELECT cents, row_number() OVER (ORDER BY cents) - 1 AS rk
      FROM v),
n AS (SELECT count(*)::BIGINT AS n FROM v),
ps(p) AS (VALUES {", ".join(f"({p})" for p in CONT_PCTS)}),
sel AS (SELECT p, ((n.n - 1) * p) // 100 AS lo,
               ((n.n - 1) * p) % 100 AS num
        FROM ps, n)
SELECT sel.p::BIGINT AS p,
       (olo.cents * (100 - sel.num) + ohi.cents * sel.num)::DOUBLE
         / 10000.0 AS value
FROM sel
JOIN o olo ON olo.rk = sel.lo
JOIN o ohi ON ohi.rk = CASE WHEN sel.num = 0 THEN sel.lo
                            ELSE sel.lo + 1 END
ORDER BY p
"""


PRF_FB_K = 5    # pseudo-relevant feedback docs (top-F of the base run)
PRF_EXP_K = 3   # expansion terms taken from the feedback docs


def q_search_prf(sf_dir: str):
    """Rocchio-style pseudo-relevance feedback (the classic IR query
    expansion, Rocchio 1971 / standard PRF as in Manning et al. IIR
    §9.1.6): run BM25 for the base query, take the top-5
    docs as pseudo-relevant, extract the 3 most frequent
    non-stopword non-query terms from their text (summed tf DESC,
    term ASC tiebreak), append them to the query, and re-rank with
    BM25.  The feedback selection uses the same rounded-score
    (round4 DESC, doc_id ASC) plateau-safe tiebreak as
    `_rounded_topk`, so the doc set replays exactly in SQL; the
    feedback docs hydrate via a row-group-pruned parquet point
    lookup (k-sized, never a scan)."""
    import pyarrow.dataset as pads

    from collections import Counter

    from ..functions.tokenizers import punctuation_tokenize

    s = _searcher(sf_dir)
    ids, sc = s.search_bm25(BM25_TERMS, None, prune=False)
    fb = _rounded_topk(ids, sc, PRF_FB_K)
    fb_ids = fb["doc_id"].to_pylist()
    dset = pads.dataset(os.path.join(sf_dir, "documents.parquet"),
                        format="parquet")
    docs = dset.to_table(
        columns=["text"],
        filter=pads.field("doc_id").isin(pa.array(fb_ids, pa.int64())))
    orig = set(BM25_TERMS)
    cnt: Counter = Counter()
    for txt in docs["text"].to_pylist():
        for tok in punctuation_tokenize(txt):
            if tok not in STOP_WORDS and tok not in orig:
                cnt[tok] += 1
    exp = [t for t, _ in
           sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:PRF_EXP_K]]
    ids2, sc2 = s.search_bm25(BM25_TERMS + exp, None, prune=False)
    return _rounded_topk(ids2, sc2, TOPK)


def _bm25_prf_sql() -> str:
    qlist = ",".join(f"'{t}'" for t in BM25_TERMS)
    qarr = ",".join(f"'{t}'" for t in BM25_TERMS)
    r4s = _R4.format(expr="score")
    return f"""
WITH {_BASE_CTE},
meta AS (SELECT count(*)::DOUBLE AS n,
                sum(len(terms))::DOUBLE / count(*)::DOUBLE AS avgdl
         FROM base),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf
       FROM (SELECT doc_id, unnest(terms) AS term FROM base)
       GROUP BY doc_id, term),
dl AS (SELECT doc_id, len(terms)::DOUBLE AS dl FROM base),
dfq0 AS (SELECT term, count(*)::DOUBLE AS df FROM tf
         WHERE term IN ({qlist}) GROUP BY term),
s0 AS (
  SELECT tf.doc_id,
         sum( ln(1 + (meta.n - dfq0.df + 0.5) / (dfq0.df + 0.5))
              * tf.tf * (1.2 + 1.0)
              / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / meta.avgdl)) )
           AS score
  FROM tf
  JOIN dfq0 ON dfq0.term = tf.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN meta
  GROUP BY tf.doc_id),
fb AS (SELECT doc_id FROM s0
       ORDER BY {r4s} DESC, doc_id LIMIT {PRF_FB_K}),
ex AS (SELECT term FROM tf JOIN fb USING (doc_id)
       WHERE term NOT IN ({qlist})
       GROUP BY term
       ORDER BY sum(tf)::BIGINT DESC, term LIMIT {PRF_EXP_K}),
qt AS (SELECT unnest([{qarr}]) AS term UNION ALL SELECT term FROM ex),
dfq AS (SELECT term, count(*)::DOUBLE AS df FROM tf
        WHERE term IN (SELECT term FROM qt) GROUP BY term),
scores AS (
  SELECT tf.doc_id,
         sum( ln(1 + (meta.n - dfq.df + 0.5) / (dfq.df + 0.5))
              * tf.tf * (1.2 + 1.0)
              / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / meta.avgdl)) )
           AS score
  FROM tf
  JOIN dfq ON dfq.term = tf.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN meta
  GROUP BY tf.doc_id)
SELECT doc_id, {r4s} AS score
FROM scores ORDER BY {r4s} DESC, doc_id LIMIT {TOPK}
"""


QUERIES["search_prf"] = q_search_prf
ORACLE_SQL["search_prf"] = _bm25_prf_sql()


def q_type_weekend_chisq(sf_dir: str):
    """Chi-square test of independence for the event_type × weekend
    contingency table — the categorical-association sibling of the
    Welch t (`weekend_value_ttest`): weekend from exact integer µs
    day-of-week arithmetic, EXACT int64 cell counts via per-batch
    np.unique partials (bounded: |T|·2 rows per batch), and the
    per-cell expected count r·c/n and contribution (o−e)²/e each a
    SINGLE shared float expression over identical integers, so both
    engines produce identical doubles cell by cell.  The statistic
    is the sum of `contrib`; emitting the per-cell table instead of
    the scalar keeps the comparison free of cross-engine float
    summation order (the same reason `value_calibration` reports per
    bin).  Raises when either day-class column total is 0 (the test
    is undefined)."""
    ds = read_table(sf_dir, "events", columns=["ts", "event_type"])

    part_schema = pa.schema([("event_type", pa.string()),
                             ("g", pa.int64()),
                             ("c", pa.int64())])

    def partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        us = _ts_int64(t, "ts")
        wk = ((us // 86_400_000_000 + 4) % 7 >= 5).astype(np.int64)
        types = np.asarray(t["event_type"].to_pylist(), dtype=object)
        rows_t, rows_g, rows_c = [], [], []
        for g in (0, 1):
            m = wk == g
            if m.any():
                u, c = np.unique(types[m].astype(str),
                                 return_counts=True)
                rows_t.extend(u.tolist())
                rows_g.extend([g] * len(u))
                rows_c.extend(c.astype(np.int64).tolist())
        return pa.table({"event_type": pa.array(rows_t, pa.string()),
                         "g": pa.array(rows_g, pa.int64()),
                         "c": pa.array(rows_c, pa.int64())})

    parts = ds.map_batches(partials, batch_format="pyarrow").take_all()
    cells: dict[tuple[str, int], int] = {}
    for r in parts:
        k = (r["event_type"], r["g"])
        cells[k] = cells.get(k, 0) + r["c"]
    types = sorted({t for t, _ in cells})
    col = {g: sum(c for (_, gg), c in cells.items() if gg == g)
           for g in (0, 1)}
    if col[0] == 0 or col[1] == 0:
        raise ValueError("type_weekend_chisq: a day-class column "
                         "total is 0 — the test is undefined")
    n = col[0] + col[1]
    row = {t: cells.get((t, 0), 0) + cells.get((t, 1), 0)
           for t in types}
    out_t, out_g, out_o, out_e, out_x = [], [], [], [], []
    for t in types:
        for g in (0, 1):
            o = cells.get((t, g), 0)
            e = float(row[t]) * float(col[g]) / float(n)
            d = float(o) - e
            out_t.append(t); out_g.append(g); out_o.append(o)
            out_e.append(e); out_x.append(d * d / e)
    return pa.table({
        "event_type": pa.array(out_t, pa.string()),
        "is_weekend": pa.array(out_g, pa.int64()),
        "observed": pa.array(out_o, pa.int64()),
        "expected": pa.array(_r4(np.array(out_e))),
        "contrib": pa.array(_r4(np.array(out_x))),
    })


QUERIES["type_weekend_chisq"] = q_type_weekend_chisq

_CHI_E = "(rt.r::DOUBLE * ct.c::DOUBLE / n.n::DOUBLE)"

ORACLE_SQL["type_weekend_chisq"] = f"""
WITH e AS (SELECT event_type,
                  CASE WHEN ((epoch_us(ts)::BIGINT // 86400000000 + 4)
                             % 7) >= 5 THEN 1 ELSE 0 END AS g
           FROM events),
cells AS (SELECT event_type, g, count(*)::BIGINT AS o
          FROM e GROUP BY 1, 2),
grid AS (SELECT t.event_type, gg.g
         FROM (SELECT DISTINCT event_type FROM e) t
         CROSS JOIN (SELECT unnest([0, 1]) AS g) gg),
fc AS (SELECT grid.event_type, grid.g,
              coalesce(cells.o, 0)::BIGINT AS o
       FROM grid LEFT JOIN cells USING (event_type, g)),
rt AS (SELECT event_type, sum(o)::BIGINT AS r FROM fc GROUP BY 1),
ct AS (SELECT g, sum(o)::BIGINT AS c FROM fc GROUP BY 1),
n AS (SELECT sum(o)::BIGINT AS n FROM fc)
SELECT fc.event_type, fc.g AS is_weekend, fc.o AS observed,
       {_R4.format(expr=_CHI_E)} AS expected,
       {_R4.format(expr=f"((fc.o::DOUBLE - {_CHI_E}) * "
                        f"(fc.o::DOUBLE - {_CHI_E}) / {_CHI_E})")}
         AS contrib
FROM fc
JOIN rt USING (event_type)
JOIN ct USING (g)
CROSS JOIN n
"""


DECAY_WINDOW_DAYS = 30   # ages 0..29 contribute; older events decay out


def q_decayed_event_counts(sf_dir: str):
    """Exponentially time-decayed event counts per type (half-life =
    1 day, horizon 30 days) — the trending-topics /
    decayed-counter arithmetic streaming dashboards run, made EXACT:
    age_days is integer µs arithmetic against the corpus max
    timestamp, each event's weight 2^−age is carried as the int64
    numerator 2^(29−age) (max Σ ≤ n·2²⁹ ≪ 2⁵³), and the decayed count
    is that exact integer divided once by 2²⁹ — a power-of-two
    division, so the double is EXACT and both engines agree
    bit-for-bit with no rounding gate.  Plan: one scalar max-ts
    partial pass, then per-batch (type, age) bincount partials with a
    bounded (|T| × 30) driver combine — nothing
    data-sized ever leaves the workers."""
    ds = read_table(sf_dir, "events", columns=["ts", "event_type"])

    mx_schema = pa.schema([("mx", pa.int64())])

    def mx_part(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return mx_schema.empty_table()
        us = _ts_int64(t, "ts")
        return pa.table({"mx": pa.array([int(us.max())], pa.int64())})

    parts = ds.map_batches(mx_part, batch_format="pyarrow").take_all()
    if not parts:
        raise ValueError("decayed_event_counts: empty input")
    mx = max(r["mx"] for r in parts)

    part_schema = pa.schema([("event_type", pa.string()),
                             ("age", pa.int64()),
                             ("c", pa.int64())])

    def age_parts(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        us = _ts_int64(t, "ts")
        age = (mx - us) // 86_400_000_000
        keep = age < DECAY_WINDOW_DAYS
        if not keep.any():
            return part_schema.empty_table()
        types = np.asarray(t["event_type"].to_pylist(),
                           dtype=object)[keep].astype(str)
        age = age[keep]
        ut, inv = np.unique(types, return_inverse=True)
        code = inv.astype(np.int64) * DECAY_WINDOW_DAYS + age
        uc, cc = np.unique(code, return_counts=True)
        return pa.table({
            "event_type": pa.array(
                ut[(uc // DECAY_WINDOW_DAYS)].tolist(), pa.string()),
            "age": pa.array(uc % DECAY_WINDOW_DAYS, type=pa.int64()),
            "c": pa.array(cc.astype(np.int64))})

    rows = ds.map_batches(age_parts, batch_format="pyarrow").take_all()
    agg: dict[tuple[str, int], int] = {}
    for r in rows:
        k = (r["event_type"], r["age"])
        agg[k] = agg.get(k, 0) + r["c"]
    types = sorted({t for t, _ in agg})
    out_t, out_n, out_d = [], [], []
    top = DECAY_WINDOW_DAYS - 1
    for t in types:
        n_recent = 0
        num = 0
        for (tt, a), c in agg.items():
            if tt == t:
                n_recent += c
                num += c * (1 << (top - a))
        out_t.append(t)
        out_n.append(n_recent)
        out_d.append(num / float(1 << top))
    return pa.table({"event_type": pa.array(out_t, pa.string()),
                     "n_recent": pa.array(out_n, pa.int64()),
                     "decayed": pa.array(out_d, pa.float64())})


QUERIES["decayed_event_counts"] = q_decayed_event_counts

ORACLE_SQL["decayed_event_counts"] = f"""
WITH m AS (SELECT max(epoch_us(ts))::BIGINT AS mx FROM events),
a AS (SELECT event_type,
             ((m.mx - epoch_us(ts)::BIGINT) // 86400000000)::BIGINT
               AS age
      FROM events, m),
w AS (SELECT event_type, age FROM a
      WHERE age < {DECAY_WINDOW_DAYS}),
c AS (SELECT event_type, age, count(*)::BIGINT AS c
      FROM w GROUP BY 1, 2)
SELECT event_type, sum(c)::BIGINT AS n_recent,
       sum(c * (1::BIGINT << ({DECAY_WINDOW_DAYS - 1} - age)))::BIGINT
         ::DOUBLE / {float(1 << (DECAY_WINDOW_DAYS - 1))} AS decayed
FROM c GROUP BY event_type
"""


UVQC_PCTS = [25, 50, 75, 90]
_UVQC_SHIFT = 32  # code = user_id << 32 | 0-based rank (ranks < 2^32)


def q_user_value_quantiles_cont(sf_dir: str):
    """PER-USER interpolated quantiles (SQL ``percentile_cont`` ...
    ``PARTITION BY user_id``) through the fully distributed
    :func:`stages.aggregates.grouped_quantiles_cont` plan — unlike
    the driver-bounded global operator, nothing here is ever
    user-sized on the driver: keyed distributed row_number ranks with
    the event_id PK tiebreak, per-user counts expanding into ≤ 2
    weighted selector rows per percentile (the EXACT integer
    interpolation split), ONE packed-int64 sort-merge join, ONE
    (user × percentile)-bounded grouped sum.  The final value is the
    shared int64 numerator divided once by 10000.0 — bit-identical on
    both engines."""
    from ..stages.aggregates import grouped_quantiles_cont

    ev = read_table(sf_dir, "events", columns=["user_id", "value", "event_id"])

    prep_schema = pa.schema([("user_id", pa.int64()),
                             ("cents", pa.int64()),
                             ("event_id", pa.int64())])

    def prep(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.and_(pc.is_valid(t["user_id"]),
                       pc.is_valid(t["value"]))
        f = t.filter(keep)
        if f.num_rows == 0:
            return prep_schema.empty_table()
        cents = np.floor(_non_null_numpy(f, "value")
                         * 100).astype(np.int64)
        return pa.table({"user_id": f["user_id"],
                         "cents": pa.array(cents),
                         "event_id": f["event_id"]})

    base = ev.map_batches(prep, batch_format="pyarrow")
    agg = grouped_quantiles_cont(base, "user_id", "cents", "event_id",
                                 UVQC_PCTS)

    fin_schema = pa.schema([("user_id", pa.int64()),
                            ("p", pa.int64()),
                            ("value", pa.float64())])

    def fin(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "interp_num" not in t.column_names:
            return fin_schema.empty_table()
        num = t["interp_num"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        return pa.table({"user_id": t["user_id"], "p": t["p"],
                         "value": pa.array(num / 10000.0)})

    return agg.map_batches(fin, batch_format="pyarrow")


QUERIES["user_value_quantiles_cont"] = q_user_value_quantiles_cont

ORACLE_SQL["user_value_quantiles_cont"] = f"""
WITH v AS (SELECT user_id, event_id,
                  floor(value * 100)::BIGINT AS cents
           FROM events
           WHERE user_id IS NOT NULL AND value IS NOT NULL),
o AS (SELECT user_id, cents,
             row_number() OVER (PARTITION BY user_id
                                ORDER BY cents, event_id) - 1 AS rk
      FROM v),
n AS (SELECT user_id, count(*)::BIGINT AS n FROM v GROUP BY 1),
ps(p) AS (VALUES {", ".join(f"({p})" for p in UVQC_PCTS)}),
sel AS (SELECT user_id, p, ((n - 1) * p) // 100 AS lo,
               ((n - 1) * p) % 100 AS num
        FROM n, ps)
SELECT sel.user_id, sel.p::BIGINT AS p,
       (olo.cents * (100 - sel.num) + ohi.cents * sel.num)::DOUBLE
         / 10000.0 AS value
FROM sel
JOIN o olo ON olo.user_id = sel.user_id AND olo.rk = sel.lo
JOIN o ohi ON ohi.user_id = sel.user_id
          AND ohi.rk = CASE WHEN sel.num = 0 THEN sel.lo
                            ELSE sel.lo + 1 END
"""


MARKOV_ITERS = 50


def q_event_markov_stationary(sf_dir: str):
    """Stationary distribution of the empirical event-type Markov
    chain — the long-run state occupancy behavioral models quote:
    builds on the oracle-tested `event_transitions` counts, restricts
    the chain to states WITH outgoing transitions (dropping
    transitions that leak to states without any, then re-normalizing
    rows over the kept counts so the matrix is exactly row-stochastic
    in both engines), and runs 50 explicit power
    iterations from the uniform start 1/|S|.  The transition matrix
    is bounded (|T|² ≤ 25 here), so the iteration is driver-side
    numpy over exact-integer-derived doubles; the oracle unrolls the
    SAME 50 iterations as chained SQL CTEs (the
    `pagerank` oracle pattern), an independent arithmetic replay.
    States with no incoming transitions report prob 0 on both
    engines.  Raises if a kept state's row sum is 0 (the chain would
    not be stochastic)."""
    rows = q_event_transitions(sf_dir).take_all()
    states = sorted({r["prev_type"] for r in rows})
    sset = set(states)
    k = len(states)
    if k == 0:
        raise ValueError("event_markov_stationary: no transitions")
    idx = {s: i for i, s in enumerate(states)}
    C = np.zeros((k, k), dtype=np.int64)
    for r in rows:
        if r["event_type"] in sset:
            C[idx[r["prev_type"]], idx[r["event_type"]]] += r["n"]
    rsum = C.sum(axis=1)
    if (rsum == 0).any():
        raise ValueError("event_markov_stationary: a kept state has "
                         "no surviving outgoing transitions")
    P = C.astype(np.float64) / rsum.astype(np.float64)[:, None]
    s = np.full(k, 1.0 / k, dtype=np.float64)
    for _ in range(MARKOV_ITERS):
        s = s @ P
    return pa.table({"event_type": pa.array(states, pa.string()),
                     "prob": pa.array(_r4(s))})


def _markov_stationary_sql() -> str:
    its = []
    prev = "s0"
    for i in range(1, MARKOV_ITERS + 1):
        cur = f"s{i}"
        its.append(f"""{cur} AS MATERIALIZED (
  SELECT p.next AS state, sum({prev}.score * p.p) AS score
  FROM p JOIN {prev} ON {prev}.state = p.prev
  GROUP BY p.next)""")
        prev = cur
    return f"""
WITH tc AS ({ORACLE_SQL["event_transitions"]}),
st AS MATERIALIZED (SELECT DISTINCT prev_type AS state FROM tc),
kept AS (SELECT prev_type AS prev, event_type AS next, n FROM tc
         WHERE event_type IN (SELECT state FROM st)),
r AS (SELECT prev, sum(n)::BIGINT AS r FROM kept GROUP BY 1),
p AS MATERIALIZED (SELECT kept.prev, kept.next,
                          kept.n::DOUBLE / r.r::DOUBLE AS p
                   FROM kept JOIN r USING (prev)),
s0 AS (SELECT state,
              1.0::DOUBLE / (SELECT count(*) FROM st)::DOUBLE AS score
       FROM st),
{",".join(its)}
SELECT st.state AS event_type,
       {_R4.format(expr=f"coalesce({prev}.score, 0.0)")} AS prob
FROM st LEFT JOIN {prev} ON {prev}.state = st.state
ORDER BY event_type
"""


QUERIES["event_markov_stationary"] = q_event_markov_stationary
ORACLE_SQL["event_markov_stationary"] = _markov_stationary_sql()


def q_doc_contact_stats(sf_dir: str):
    """Per-document PII/contact-surface extraction counts — the
    per-category breakdown the redaction sweep (`scrub_pii`) and the
    governance audits consume: email, URL and long-digit-run match
    counts per doc using the SAME patterns `stages/scrub.PII_RULES`
    redacts with.  The synthetic corpus carries no contacts, so the
    query PLANTS them deterministically first (the CDC/SCD planted-
    stream pattern): docs with doc_id % 7 = 0 gain an email, % 5 = 0
    a URL, % 3 = 0 a 7+-digit reference number — appended with pure
    integer string concatenation both engines replay exactly — and
    each pattern is then counted INDEPENDENTLY over the planted text
    with Arrow's RE2 `count_substring_regex` (DuckDB
    `regexp_extract_all` is the same RE2 dialect, non-overlapping
    leftmost on both sides; digits inside the planted email/URL stay
    below 7, so categories never cross-fire).  Pure streaming map —
    no shuffle, no state."""
    from ..stages.scrub import PII_RULES

    pats = [p for p, _ in PII_RULES]

    def stats(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        s = t["text"]
        if isinstance(s, pa.ChunkedArray):
            s = s.combine_chunks()
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = s.to_pylist()
        planted = []
        for i, txt in enumerate(texts):
            d = int(did[i])
            out = txt
            if d % 7 == 0:
                out += f" contact: u{d % 1000}@example.com"
            if d % 5 == 0:
                out += f" see https://example.com/d/{d % 1000}"
            if d % 3 == 0:
                out += f" ref {d % 1000 + 9000000}"
            planted.append(out)
        arr = pa.array(planted, pa.string())
        cols = {"doc_id": t["doc_id"]}
        for name, pat in zip(("n_email", "n_url", "n_num"), pats):
            cols[name] = pc.cast(
                pc.count_substring_regex(arr, pattern=pat).fill_null(0),
                pa.int64())
        return pa.table(cols)

    return read_table(sf_dir, "documents").map_batches(stats, batch_format="pyarrow")


QUERIES["doc_contact_stats"] = q_doc_contact_stats


def _doc_contact_sql() -> str:
    from ..stages.scrub import PII_RULES

    pats = [p for p, _ in PII_RULES]
    cols = ", ".join(
        f"len(regexp_extract_all(planted, '{pat}'))::BIGINT AS {name}"
        for name, pat in zip(("n_email", "n_url", "n_num"), pats))
    return f"""
WITH pl AS (
  SELECT doc_id,
         text
         || CASE WHEN doc_id % 7 = 0
                 THEN ' contact: u' || (doc_id % 1000)::VARCHAR
                      || '@example.com' ELSE '' END
         || CASE WHEN doc_id % 5 = 0
                 THEN ' see https://example.com/d/'
                      || (doc_id % 1000)::VARCHAR ELSE '' END
         || CASE WHEN doc_id % 3 = 0
                 THEN ' ref ' || (doc_id % 1000 + 9000000)::VARCHAR
                 ELSE '' END AS planted
  FROM documents)
SELECT doc_id, {cols} FROM pl
"""


ORACLE_SQL["doc_contact_stats"] = _doc_contact_sql()


def q_cust_order_count_dist(sf_dir: str):
    """TPC-H Q13 shape — the customer distribution by order count
    (the canonical aggregate-of-aggregate with a LEFT-join zero
    class): composes the oracle-tested `customer_order_counts`
    (customer LEFT join orders + per-customer sorted reduction,
    zero-order customers included) with ONE bounded grouped count
    over the distinct order-count values.  All-integer; the second
    exchange is bounded by the number of distinct counts."""
    from ..stages.aggregates import sorted_groupby_agg

    per_cust = q_customer_order_counts(sf_dir)

    one_schema = pa.schema([("c_count", pa.int64()),
                            ("one", pa.int64())])

    def one(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if t.num_rows == 0 or "n_orders" not in t.column_names:
            return one_schema.empty_table()
        return pa.table({
            "c_count": pc.cast(t["n_orders"], pa.int64()),
            "one": pa.array(np.ones(t.num_rows, np.int64))})

    agg = sorted_groupby_agg(
        per_cust.map_batches(one, batch_format="pyarrow"),
        ["c_count"], [("one", "sum", "custdist")],
        in_schema=one_schema)

    fin_schema = pa.schema([("c_count", pa.int64()),
                            ("custdist", pa.int64())])

    fin = shape(fin_schema)
    return agg.map_batches(fin, batch_format="pyarrow")


QUERIES["cust_order_count_dist"] = q_cust_order_count_dist

ORACLE_SQL["cust_order_count_dist"] = """
SELECT c_count, count(*)::BIGINT AS custdist
FROM (SELECT c.c_custkey,
             count(o.o_orderkey)::BIGINT AS c_count
      FROM customer c
      LEFT JOIN orders o ON o.o_custkey = c.c_custkey
      GROUP BY 1)
GROUP BY c_count
"""


# lineitem numeric columns and their exact integer encodings (shared
# with the oracle): quantity is integral, price/discount/tax scale by
# 100 with the repo's standard IEEE floor contract
_CORR_COLS = [("l_quantity", "qty", 1),
              ("l_extendedprice", "price", 100),
              ("l_discount", "disc", 100),
              ("l_tax", "tax", 100)]


def q_lineitem_corr_matrix(sf_dir: str):
    """Pairwise Pearson correlation MATRIX over the four lineitem
    numeric columns — the feature-screening pass every modeling
    pipeline runs, generalizing the single-pair `corr_qty_price`: all
    sums (Σx, Σx², Σxy, n over the shared integer encodings) stay
    EXACT — int64 per batch (batch_size capped at 4096 so Σ price² ≤
    4096·10¹⁴ never overflows), arbitrary-precision Python ints in
    the bounded driver fold (15 integers per batch row) — and each
    correlation is the shared closed form (n·Σxy − Σx·Σy) /
    (√(n·Σx²−Σx²)·√(n·Σy²−Σy²)) evaluated over identical integers
    (the oracle's HUGEINT sums are exact the same way), 4dp-gated.
    One streaming pass; nothing data-sized on the driver."""
    cols = [c for c, _, _ in _CORR_COLS]
    ds = read_table(sf_dir, "lineitem", columns=cols)
    k = len(_CORR_COLS)
    pair_idx = [(i, j) for i in range(k) for j in range(i + 1, k)]
    names = (["n"] + [f"s{i}" for i in range(k)]
             + [f"q{i}" for i in range(k)]
             + [f"x{i}_{j}" for i, j in pair_idx])
    part_schema = pa.schema([(nm, pa.int64()) for nm in names])

    def partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        xs = []
        for col, _, scale in _CORR_COLS:
            v = _non_null_numpy(t, col)
            if scale == 1:
                xs.append(np.asarray(v, np.float64).astype(np.int64))
            else:
                xs.append(np.floor(np.asarray(v, np.float64)
                                   * scale).astype(np.int64))
        vals = [t.num_rows]
        vals += [int(x.sum()) for x in xs]
        vals += [int((x * x).sum()) for x in xs]
        vals += [int((xs[i] * xs[j]).sum()) for i, j in pair_idx]
        return pa.table({nm: pa.array([v], pa.int64())
                         for nm, v in zip(names, vals)})

    rows = ds.map_batches(partials, batch_size=4096,
                          batch_format="pyarrow").take_all()
    if not rows:
        raise ValueError("lineitem_corr_matrix: empty input")
    acc = {nm: 0 for nm in names}
    for r in rows:
        for nm in names:
            acc[nm] += r[nm]
    n = acc["n"]
    out_a, out_b, out_c = [], [], []
    for i, j in pair_idx:
        num = n * acc[f"x{i}_{j}"] - acc[f"s{i}"] * acc[f"s{j}"]
        va = n * acc[f"q{i}"] - acc[f"s{i}"] * acc[f"s{i}"]
        vb = n * acc[f"q{j}"] - acc[f"s{j}"] * acc[f"s{j}"]
        if va == 0 or vb == 0:
            raise ValueError("lineitem_corr_matrix: zero variance")
        out_a.append(_CORR_COLS[i][1])
        out_b.append(_CORR_COLS[j][1])
        out_c.append(float(num)
                     / (np.sqrt(float(va)) * np.sqrt(float(vb))))
    return pa.table({"col_a": pa.array(out_a, pa.string()),
                     "col_b": pa.array(out_b, pa.string()),
                     "corr": pa.array(_r4(np.array(out_c)))})


QUERIES["lineitem_corr_matrix"] = q_lineitem_corr_matrix


def _lineitem_corr_sql() -> str:
    enc = {alias: (col if scale == 1
                   else f"floor({col} * {scale})")
           for col, alias, scale in _CORR_COLS}
    sums = ", ".join(
        [f"count(*)::HUGEINT AS n"]
        + [f"sum({e}::BIGINT)::HUGEINT AS s_{a}"
           for a, e in enc.items()]
        + [f"sum({e}::BIGINT * {e}::BIGINT)::HUGEINT AS q_{a}"
           for a, e in enc.items()])
    aliases = [a for _, a, _ in _CORR_COLS]
    xsums = ", ".join(
        f"sum({enc[aliases[i]]}::BIGINT * {enc[aliases[j]]}::BIGINT)"
        f"::HUGEINT AS x_{aliases[i]}_{aliases[j]}"
        for i in range(len(aliases)) for j in range(i + 1, len(aliases)))
    pair_rows = "\nUNION ALL\n".join(
        f"""SELECT '{aliases[i]}' AS col_a, '{aliases[j]}' AS col_b,
       {_R4.format(expr=(
           f"((n * x_{aliases[i]}_{aliases[j]} "
           f"- s_{aliases[i]} * s_{aliases[j]})::DOUBLE "
           f"/ (sqrt((n * q_{aliases[i]} "
           f"- s_{aliases[i]} * s_{aliases[i]})::DOUBLE) "
           f"* sqrt((n * q_{aliases[j]} "
           f"- s_{aliases[j]} * s_{aliases[j]})::DOUBLE)))"))} AS corr
FROM m"""
        for i in range(len(aliases)) for j in range(i + 1, len(aliases)))
    return f"""
WITH m AS (SELECT {sums}, {xsums} FROM lineitem)
{pair_rows}
"""


ORACLE_SQL["lineitem_corr_matrix"] = _lineitem_corr_sql()


# ---------------------------------------------------------------------------
# wave-10: rank/distribution statistics classics
# ---------------------------------------------------------------------------

_WEEKEND_CENTS_SQL_E = """
  SELECT CASE WHEN ((epoch_us(ts)::BIGINT // 86400000000 + 4) % 7)
              >= 5 THEN 1 ELSE 0 END AS g,
         floor(value * 100)::BIGINT AS cents
  FROM events"""


def _weekend_cents_grouped(sf_dir: str):
    """(cents, c, b) — total and weekend-row counts per DISTINCT event
    cents value: per-batch ``np.unique`` partials (so the exchange is
    batches × distinct-cents, bounded by the cents DOMAIN — the value
    range × 100 — not by corpus size), then ONE cents-keyed grouped
    sum.  Weekend = UTC (epoch_day + 4) % 7 ∈ {5, 6}, the exact
    integer µs arithmetic the ★ ``weekend_value_ttest`` operator
    pinned (1970-01-01 was a Thursday).  Shared prologue of the
    rank-statistics queries below."""
    from ..stages.aggregates import sorted_groupby_agg

    ds = read_table(sf_dir, "events", columns=["ts", "value"])
    part_schema = pa.schema([("cents", pa.int64()),
                             ("c", pa.int64()), ("b", pa.int64())])

    def partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        us = _ts_int64(t, "ts")
        wk = ((us // 86_400_000_000 + 4) % 7 >= 5).astype(np.int64)
        cents = np.floor(_non_null_numpy(t, "value")
                         * 100).astype(np.int64)
        u, inv = np.unique(cents, return_inverse=True)
        c = np.bincount(inv).astype(np.int64)
        # float weights are exact for counts < 2^53
        b = np.bincount(inv, weights=wk).astype(np.int64)
        return pa.table({"cents": pa.array(u), "c": pa.array(c),
                         "b": pa.array(b)})

    return sorted_groupby_agg(
        ds.map_batches(partials, batch_format="pyarrow"),
        ["cents"], [("c", "sum", "c"), ("b", "sum", "b")],
        in_schema=part_schema)


def q_weekend_value_mwu(sf_dir: str):
    """Tie-aware Mann-Whitney U (Wilcoxon rank-sum) for event value,
    weekend vs weekday — the nonparametric A/B test run when the
    t-test's normality assumption is off.  Plan: the shared
    domain-bounded (cents, c, b) grouped table, one TINY cents sort,
    then a streaming ordered driver fold with arbitrary-precision
    Python ints (the stream is bounded by the cents DOMAIN, not the
    corpus, so the fold is O(|domain|) regardless of scale): average
    ranks over ties enter as the exact integer double-rank-sum
    R2_b = Σ b·(2F + c + 1) (F = count strictly below the tie
    block), the tie correction as T = Σ (c³ − c) — both exact at ANY
    corpus size.  U, its null mean n_a·n_b/2 and the tie-corrected
    variance n_a·n_b/12·((N+1) − T/(N(N−1))) evaluate as ONE shared
    closed form from identical integers on both engines; u/z
    4dp-gated."""
    g = _weekend_cents_grouped(sf_dir).sort("cents")
    n_b = r2b = tt = cum = 0
    for t in g.iter_batches(batch_format="pyarrow"):
        if t.num_rows == 0 or "c" not in t.column_names:
            continue
        for c, b in zip(t["c"].to_pylist(), t["b"].to_pylist()):
            r2b += b * (2 * cum + c + 1)
            tt += c * c * c - c
            cum += c
            n_b += b
    n = cum
    n_a = n - n_b
    if n_a < 1 or n_b < 1:
        raise ValueError("weekend_value_mwu: a group is empty")
    u = (r2b - n_b * (n_b + 1)) / 2.0
    mean_u = (n_a * n_b) / 2.0
    var_u = ((n_a * n_b) / 12.0
             * ((n + 1) - tt / float(n * (n - 1))))
    z = (u - mean_u) / np.sqrt(var_u)
    return pa.table({
        "n_weekday": pa.array([n_a], pa.int64()),
        "n_weekend": pa.array([n_b], pa.int64()),
        "u_weekend": pa.array(_r4(np.array([u]))),
        "z_stat": pa.array(_r4(np.array([z]))),
    })


QUERIES["weekend_value_mwu"] = q_weekend_value_mwu

_MWU_U = "((r2b - nb * (nb + 1))::DOUBLE / 2)"
_MWU_MEAN = "(((nn - nb) * nb)::DOUBLE / 2)"
_MWU_VAR = ("(((nn - nb) * nb)::DOUBLE / 12 "
            "* ((nn + 1)::DOUBLE "
            "- tt::DOUBLE / (nn * (nn - 1))::DOUBLE))")

ORACLE_SQL["weekend_value_mwu"] = f"""
WITH e AS ({_WEEKEND_CENTS_SQL_E}),
gr AS (SELECT cents, count(*)::HUGEINT AS c, sum(g)::HUGEINT AS b
       FROM e GROUP BY 1),
w AS (SELECT c, b,
             sum(c) OVER (ORDER BY cents
                          ROWS UNBOUNDED PRECEDING) AS cum
      FROM gr),
s AS (SELECT sum(b * (2 * (cum - c) + c + 1))::HUGEINT AS r2b,
             sum(c * c * c - c)::HUGEINT AS tt,
             sum(c)::HUGEINT AS nn,
             sum(b)::HUGEINT AS nb
      FROM w)
SELECT (nn - nb)::BIGINT AS n_weekday, nb::BIGINT AS n_weekend,
       {_R4.format(expr=_MWU_U)} AS u_weekend,
       {_R4.format(expr=f'(({_MWU_U} - {_MWU_MEAN}) '
                        f'/ sqrt({_MWU_VAR}))')} AS z_stat
FROM s
"""


def q_weekend_value_ks(sf_dir: str):
    """Two-sample Kolmogorov-Smirnov statistic for event value,
    weekend vs weekday — the distribution-shift detector (maximum
    ECDF gap).  The boundary never touches a float: D's numerator is
    the PURE INTEGER max over distinct cents of |A·n_b − B·n_a| (A/B
    the groups' cumulative counts), compared and arg-maxed with
    arbitrary-precision Python ints in the same domain-bounded
    ordered fold as the MWU operator; the reported location is the
    SMALLEST cents attaining the max (an integer tiebreak both
    engines replay) and only the final D division is 4dp-gated."""
    gm = _weekend_cents_grouped(sf_dir).sort("cents").materialize()
    n = n_b = 0
    for t in gm.iter_batches(batch_format="pyarrow"):
        if t.num_rows == 0 or "c" not in t.column_names:
            continue
        n += int(t["c"].to_numpy(zero_copy_only=False).sum())
        n_b += int(t["b"].to_numpy(zero_copy_only=False).sum())
    n_a = n - n_b
    if n_a < 1 or n_b < 1:
        raise ValueError("weekend_value_ks: a group is empty")
    acc_a = acc_b = 0
    best_num = -1
    best_cents = None
    for t in gm.iter_batches(batch_format="pyarrow"):
        if t.num_rows == 0 or "c" not in t.column_names:
            continue
        for cents, c, b in zip(t["cents"].to_pylist(),
                               t["c"].to_pylist(),
                               t["b"].to_pylist()):
            acc_a += c - b
            acc_b += b
            d = abs(acc_a * n_b - acc_b * n_a)
            if d > best_num:
                best_num = d
                best_cents = cents
    d_stat = best_num / float(n_a * n_b)
    return pa.table({
        "n_weekday": pa.array([n_a], pa.int64()),
        "n_weekend": pa.array([n_b], pa.int64()),
        "d_stat": pa.array(_r4(np.array([d_stat]))),
        "d_at_cents": pa.array([best_cents], pa.int64()),
    })


QUERIES["weekend_value_ks"] = q_weekend_value_ks

ORACLE_SQL["weekend_value_ks"] = f"""
WITH e AS ({_WEEKEND_CENTS_SQL_E}),
gr AS (SELECT cents, count(*)::HUGEINT AS c, sum(g)::HUGEINT AS b
       FROM e GROUP BY 1),
tot AS (SELECT sum(c)::HUGEINT AS nn, sum(b)::HUGEINT AS nb FROM gr),
w AS (SELECT cents,
             sum(c - b) OVER (ORDER BY cents
                              ROWS UNBOUNDED PRECEDING) AS ca,
             sum(b) OVER (ORDER BY cents
                          ROWS UNBOUNDED PRECEDING) AS cb
      FROM gr),
d AS (SELECT cents,
             abs(ca * (SELECT nb FROM tot)
                 - cb * ((SELECT nn FROM tot)
                         - (SELECT nb FROM tot))) AS dn
      FROM w),
mx AS (SELECT max(dn) AS m FROM d),
pick AS (SELECT min(cents) AS c FROM d, mx WHERE d.dn = mx.m)
SELECT ((SELECT nn FROM tot) - (SELECT nb FROM tot))::BIGINT
         AS n_weekday,
       (SELECT nb FROM tot)::BIGINT AS n_weekend,
       {_R4.format(expr='((SELECT m FROM mx)::DOUBLE '
                        '/ (((SELECT nn FROM tot) '
                        '- (SELECT nb FROM tot)) '
                        '* (SELECT nb FROM tot))::DOUBLE)')}
         AS d_stat,
       (SELECT c FROM pick)::BIGINT AS d_at_cents
"""


def q_user_spend_gini(sf_dir: str):
    """Gini coefficient of per-user total spend — the inequality
    summary (0 = everyone equal, → 1 = one user is all the revenue)
    every marketplace-concentration report leads with.  Exact at ANY
    scale with NO big per-row products: the rank-weighted sum uses
    the identity Σ i·x_(i) = (n+1)·S − Σ C_i over the INCLUSIVE
    running cumsum C from the distributed scan (monetary ASC with the
    user_id tiebreak the unique-sort-tuple contract requires — tie
    order provably cancels, equal x contribute x·Σi either way), so
    the only unbounded integer is Σ C_i, which per batch splits into
    (>> 40, & (2⁴⁰−1)) component sums that each fit int64 (C_i ≤ S
    fits int64 by the same contract every scan cumsum carries) and
    fold to ONE arbitrary-precision Python int on the driver —
    partial rows are batch-count-bounded.  The final
    G = ((n+1)·S − 2·ΣC) / (n·S) is ONE shared closed form over
    identical integers; gini 4dp-gated."""
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.scan import running_agg

    ds = read_table(sf_dir, "events", columns=["user_id", "value"])

    prep_schema = pa.schema([("user_id", pa.int64()),
                             ("cents", pa.int64())])

    def prep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return prep_schema.empty_table()
        return pa.table({
            "user_id": t["user_id"],
            "cents": pa.array(np.floor(
                _non_null_numpy(t, "value") * 100)
                .astype(np.int64))})

    per_user = sorted_groupby_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["user_id"], [("cents", "sum", "monetary")],
        in_schema=prep_schema)

    run = running_agg(per_user, order_by=["monetary", "user_id"],
                      op="sum", value_col="monetary", out_col="cum")

    part_schema = pa.schema([("n", pa.int64()), ("s", pa.int64()),
                             ("c_hi", pa.int64()),
                             ("c_lo", pa.int64())])
    mask = (1 << 40) - 1

    def partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "cum" not in t.column_names:
            return part_schema.empty_table()
        cum = t["cum"].to_numpy(zero_copy_only=False)
        mon = t["monetary"].to_numpy(zero_copy_only=False)
        return pa.table({
            "n": pa.array([t.num_rows], pa.int64()),
            "s": pa.array([int(mon.sum())], pa.int64()),
            "c_hi": pa.array([int((cum >> 40).sum())], pa.int64()),
            "c_lo": pa.array([int((cum & mask).sum())], pa.int64())})

    n = s = sc = 0
    for r in run.map_batches(partials,
                             batch_format="pyarrow").take_all():
        n += r["n"]
        s += r["s"]
        sc += (r["c_hi"] << 40) + r["c_lo"]
    if n < 1 or s < 1:
        raise ValueError("user_spend_gini: empty or zero-spend input")
    gini = ((n + 1) * s - 2 * sc) / float(n * s)
    return pa.table({
        "n_users": pa.array([n], pa.int64()),
        "total_cents": pa.array([s], pa.int64()),
        "gini": pa.array(_r4(np.array([gini]))),
    })


QUERIES["user_spend_gini"] = q_user_spend_gini

ORACLE_SQL["user_spend_gini"] = f"""
WITH u AS (SELECT user_id,
                  sum(floor(value * 100)::BIGINT)::BIGINT AS monetary
           FROM events GROUP BY 1),
c AS (SELECT monetary,
             sum(monetary) OVER (ORDER BY monetary, user_id
                                 ROWS UNBOUNDED PRECEDING)::HUGEINT
               AS cum
      FROM u),
m AS (SELECT count(*)::HUGEINT AS n, sum(monetary)::HUGEINT AS s,
             sum(cum)::HUGEINT AS sc
      FROM c)
SELECT n::BIGINT AS n_users, s::BIGINT AS total_cents,
       {_R4.format(expr='(((n + 1) * s - 2 * sc)::DOUBLE '
                        '/ (n * s)::DOUBLE)')} AS gini
FROM m
"""


def q_session_overlap_pairs(sf_dir: str):
    """Interval-overlap self-join COUNT: how many unordered pairs of
    sessions overlap in time (inclusive bounds, a.start ≤ b.end AND
    b.start ≤ a.end) — the load-correlation question behind
    capacity planning, answered WITHOUT the quadratic join: the
    ★ sessionize intervals become the same per-timestamp
    (net, n_starts) boundary deltas as ★ peak_concurrency, and each
    distinct start instant t contributes
    n_starts(t)·A_before(t) + C(n_starts(t), 2) pairs, where
    A_before(t) = cum_net(t) − net(t) counts intervals started
    strictly before t and (inclusively) not yet ended — an
    order-independent tie rule both engines replay.  Same-user
    sessions never overlap by the gap rule (> timeout), so the total
    equals the cross-user pair count the ORACLE computes with an
    INDEPENDENT direct self-join.  Contract: n_sessions < 2³¹ (so
    per-row products stay < 2⁶², raised loudly); batch sums carry
    the (>> 40, & 2⁴⁰−1) exact split."""
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.scan import running_agg
    from ..stages.windows import sessionize

    sess = sessionize(read_table(sf_dir, "events"), gap_s=SESSION_GAP_S)

    b_schema = pa.schema([("tu", pa.int64()), ("delta", pa.int64()),
                          ("pos", pa.int64())])

    def bounds(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "session_start_us" not in t.column_names:
            return b_schema.empty_table()
        s = _non_null_numpy(t, "session_start_us").astype(np.int64)
        e = _non_null_numpy(t, "session_end_us").astype(np.int64)
        n = s.size
        return pa.table({
            "tu": pa.array(np.r_[s, e]),
            "delta": pa.array(np.r_[np.ones(n, np.int64),
                                    -np.ones(n, np.int64)]),
            "pos": pa.array(np.r_[np.ones(n, np.int64),
                                  np.zeros(n, np.int64)])})

    per_ts = sorted_groupby_agg(
        sess.map_batches(bounds, batch_format="pyarrow"),
        ["tu"], [("delta", "sum", "net"), ("pos", "sum", "n_starts")],
        in_schema=b_schema)

    run = running_agg(per_ts, order_by="tu", op="sum",
                      value_col="net", out_col="cum_net")

    part_schema = pa.schema([("p_hi", pa.int64()),
                             ("p_lo", pa.int64())])
    mask = (1 << 40) - 1

    def pair_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "cum_net" not in t.column_names:
            return part_schema.empty_table()
        cum = t["cum_net"].to_numpy(zero_copy_only=False)
        net = t["net"].to_numpy(zero_copy_only=False)
        pos = t["n_starts"].to_numpy(zero_copy_only=False)
        if cum.max(initial=0) >= (1 << 31) \
                or pos.max(initial=0) >= (1 << 31):
            raise ValueError("session_overlap_pairs: > 2^31 "
                             "concurrent sessions — per-row pair "
                             "products would overflow int64")
        contrib = pos * (cum - net) + pos * (pos - 1) // 2
        return pa.table({
            "p_hi": pa.array([int((contrib >> 40).sum())], pa.int64()),
            "p_lo": pa.array([int((contrib & mask).sum())],
                             pa.int64())})

    pairs = 0
    for r in run.map_batches(pair_partial,
                             batch_format="pyarrow").take_all():
        pairs += (r["p_hi"] << 40) + r["p_lo"]
    n_sessions = sess.count()
    return pa.table({
        "n_sessions": pa.array([n_sessions], pa.int64()),
        "overlapping_pairs": pa.array([pairs], pa.int64()),
    })


QUERIES["session_overlap_pairs"] = q_session_overlap_pairs

ORACLE_SQL["session_overlap_pairs"] = f"""
WITH sess AS ({_sessionize_sql()})
SELECT (SELECT count(*) FROM sess)::BIGINT AS n_sessions,
       (SELECT count(*)
        FROM sess a, sess b
        WHERE (a.user_id, a.session_start_us)
              < (b.user_id, b.session_start_us)
          AND a.session_start_us <= b.session_end_us
          AND b.session_start_us <= a.session_end_us)::BIGINT
         AS overlapping_pairs
"""


def q_daily_value_changepoint(sf_dir: str):
    """CUSUM changepoint detection over the daily revenue series —
    where does the cumulative deviation from the global mean peak?
    The boundary is PURE INTEGERS: with daily cents totals x over n
    days (ordered), inclusive cumsum C_i and grand total S, the
    deviation numerator is n·C_i − i·S (= n·CUSUM_i, all exact), and
    the detected changepoint is the day maximizing |n·C_i − i·S|
    with the SMALLEST-day tiebreak — no float enters the argmax on
    either engine.  Plan: exact int64 daily sums through ONE
    day-keyed grouped sum (days-bounded), one tiny day sort, then an
    ordered arbitrary-precision driver fold over the days-bounded
    stream; only the reported deviation-in-value-units division is
    4dp-gated."""
    from ..stages.aggregates import sorted_groupby_agg

    ds = read_table(sf_dir, "events", columns=["ts", "value"])

    d_schema = pa.schema([("day", pa.int64()), ("cents", pa.int64())])

    def prep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return d_schema.empty_table()
        us = _ts_int64(t, "ts")
        cents = np.floor(_non_null_numpy(t, "value")
                         * 100).astype(np.int64)
        return pa.table({"day": pa.array(us // 86_400_000_000),
                         "cents": pa.array(cents)})

    daily = sorted_groupby_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["day"], [("cents", "sum", "x")],
        in_schema=d_schema).sort("day").materialize()

    n = s = 0
    for t in daily.iter_batches(batch_format="pyarrow"):
        if t.num_rows == 0 or "x" not in t.column_names:
            continue
        n += t.num_rows
        s += int(t["x"].to_numpy(zero_copy_only=False).sum())
    if n < 2:
        raise ValueError("daily_value_changepoint: need >= 2 days")
    cum = i = 0
    best = -1
    best_day = None
    for t in daily.iter_batches(batch_format="pyarrow"):
        if t.num_rows == 0 or "x" not in t.column_names:
            continue
        for day, x in zip(t["day"].to_pylist(), t["x"].to_pylist()):
            cum += x
            i += 1
            dev = abs(n * cum - i * s)
            if dev > best:
                best = dev
                best_day = day
    return pa.table({
        "n_days": pa.array([n], pa.int64()),
        "changepoint_day": pa.array([best_day], pa.int64()),
        "max_dev_value": pa.array(_r4(np.array(
            [best / float(n) / 100.0]))),
    })


QUERIES["daily_value_changepoint"] = q_daily_value_changepoint

ORACLE_SQL["daily_value_changepoint"] = f"""
WITH d AS (SELECT (epoch_us(ts)::BIGINT // 86400000000) AS day,
                  sum(floor(value * 100)::BIGINT)::BIGINT AS x
           FROM events GROUP BY 1),
tot AS (SELECT count(*)::HUGEINT AS n, sum(x)::HUGEINT AS s FROM d),
c AS (SELECT day,
             sum(x) OVER (ORDER BY day
                          ROWS UNBOUNDED PRECEDING)::HUGEINT AS cum,
             row_number() OVER (ORDER BY day)::HUGEINT AS i
      FROM d),
dev AS (SELECT day,
               abs((SELECT n FROM tot) * cum
                   - i * (SELECT s FROM tot)) AS dv
        FROM c),
mx AS (SELECT max(dv) AS m FROM dev),
pick AS (SELECT min(day) AS day FROM dev, mx WHERE dev.dv = mx.m)
SELECT (SELECT n FROM tot)::BIGINT AS n_days,
       (SELECT day FROM pick)::BIGINT AS changepoint_day,
       {_R4.format(expr='((SELECT m FROM mx)::DOUBLE '
                        '/ (SELECT n FROM tot)::DOUBLE / 100.0)')}
         AS max_dev_value
FROM tot
"""


def _qty_disc_cells(sf_dir: str):
    """Bounded contingency table of (l_quantity, discount cents) —
    the 50 × 11 grid both rank-correlation operators below reduce
    to: per-batch ``np.unique`` partials over the packed code
    q·1000 + d (the exchange is batches × cells, bounded by the two
    value DOMAINS, never by corpus size), ONE cell-keyed grouped
    sum, then a cells-bounded ``take_all``.  Returns the sorted list
    of (q, d, m) Python-int triples."""
    from ..stages.aggregates import sorted_groupby_agg

    ds = read_table(sf_dir, "lineitem", columns=["l_quantity", "l_discount"])

    part_schema = pa.schema([("code", pa.int64()), ("m", pa.int64())])

    def partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        q = _non_null_numpy(t, "l_quantity").astype(np.int64)
        d = np.floor(_non_null_numpy(t, "l_discount")
                     * 100).astype(np.int64)
        u, cnt = np.unique(q * 1000 + d, return_counts=True)
        return pa.table({"code": pa.array(u),
                         "m": pa.array(cnt.astype(np.int64))})

    cells = sorted_groupby_agg(
        ds.map_batches(partials, batch_format="pyarrow"),
        ["code"], [("m", "sum", "m")], in_schema=part_schema)
    rows = sorted((int(r["code"]), int(r["m"]))
                  for r in cells.take_all())
    return [(code // 1000, code % 1000, m) for code, m in rows]


def q_qty_discount_kendall(sf_dir: str):
    """Kendall's tau-b between lineitem quantity and discount — the
    tie-robust ordinal-association screen, EXACT because both
    columns live on tiny integer domains (50 quantities × 11
    discount-cents), so concordant/discordant pair counts reduce to
    the bounded contingency table: C = Σ m·(mass strictly greater in
    both dims), D = Σ m·(mass greater in q, smaller in d), tie terms
    from the marginals — every count an arbitrary-precision Python
    int over ≤ 550 cells, with corpus-sized work confined to ONE
    domain-bounded grouped count.  tau_b = (C − D) /
    √((n0−n1)(n0−n2)) is ONE shared closed form; 4dp-gated.  Oracle
    = the INDEPENDENT quadratic cell self-join."""
    cells = _qty_disc_cells(sf_dir)
    n = sum(m for _, _, m in cells)
    qs = sorted({q for q, _, _ in cells})
    dss = sorted({d for _, d, _ in cells})
    qi = {q: i for i, q in enumerate(qs)}
    di = {d: i for i, d in enumerate(dss)}
    grid = [[0] * len(dss) for _ in qs]
    for q, d, m in cells:
        grid[qi[q]][di[d]] = m
    # suffix[i][j] = mass with q-index > i AND d-index > j
    nq, nd = len(qs), len(dss)
    suf = [[0] * (nd + 1) for _ in range(nq + 1)]
    for i in range(nq - 1, -1, -1):
        for j in range(nd - 1, -1, -1):
            suf[i][j] = (grid[i][j] + suf[i + 1][j]
                         + suf[i][j + 1] - suf[i + 1][j + 1])
    # pre[i][j] = mass with q-index > i AND d-index < j
    conc = disc = 0
    for i in range(nq):
        for j in range(nd):
            m = grid[i][j]
            if not m:
                continue
            conc += m * suf[i + 1][j + 1]
            below = sum(grid[k][jj] for k in range(i + 1, nq)
                        for jj in range(j))
            disc += m * below
    tq = [sum(row) for row in grid]
    td = [sum(grid[i][j] for i in range(nq)) for j in range(nd)]
    n0 = n * (n - 1) // 2
    n1 = sum(t * (t - 1) // 2 for t in tq)
    n2 = sum(t * (t - 1) // 2 for t in td)
    tau = (conc - disc) / np.sqrt(float(n0 - n1) * float(n0 - n2))
    return pa.table({
        "n": pa.array([n], pa.int64()),
        "concordant": pa.array([conc], pa.int64()),
        "discordant": pa.array([disc], pa.int64()),
        "tau_b": pa.array(_r4(np.array([tau]))),
    })


QUERIES["qty_discount_kendall"] = q_qty_discount_kendall

_QD_CELLS_SQL = """
l AS (SELECT l_quantity::BIGINT AS q,
             floor(l_discount * 100)::BIGINT AS d
      FROM lineitem),
cells AS (SELECT q, d, count(*)::HUGEINT AS m FROM l GROUP BY 1, 2)"""

ORACLE_SQL["qty_discount_kendall"] = f"""
WITH {_QD_CELLS_SQL},
pairs AS (SELECT
    (SELECT sum(a.m * b.m) FROM cells a, cells b
     WHERE b.q > a.q AND b.d > a.d)::HUGEINT AS conc,
    (SELECT sum(a.m * b.m) FROM cells a, cells b
     WHERE b.q > a.q AND b.d < a.d)::HUGEINT AS disc),
marg AS (SELECT
    (SELECT sum(m) FROM cells)::HUGEINT AS n,
    (SELECT sum(tm * (tm - 1) / 2) FROM
       (SELECT sum(m) AS tm FROM cells GROUP BY q))::HUGEINT AS n1,
    (SELECT sum(tm * (tm - 1) / 2) FROM
       (SELECT sum(m) AS tm FROM cells GROUP BY d))::HUGEINT AS n2)
SELECT n::BIGINT AS n, conc::BIGINT AS concordant,
       disc::BIGINT AS discordant,
       {_R4.format(expr='((conc - disc)::DOUBLE '
                        '/ sqrt((n * (n - 1) / 2 - n1)::DOUBLE '
                        '* (n * (n - 1) / 2 - n2)::DOUBLE))')}
         AS tau_b
FROM pairs, marg
"""


def q_qty_discount_spearman(sf_dir: str):
    """Spearman's rho between lineitem quantity and discount — the
    monotone-association screen, EXACT over ties: average ranks
    enter as the integer double-ranks 2r = 2F + t + 1 from the
    marginal cumulative counts of the same bounded contingency
    table, and rho is the Pearson closed form over the cell-weighted
    double-ranks — n·Σm·x·y, Σm·x, … all arbitrary-precision Python
    ints over ≤ 550 cells (HUGEINT on the oracle side), corpus-sized
    work confined to ONE domain-bounded grouped count; rho
    4dp-gated."""
    cells = _qty_disc_cells(sf_dir)
    n = sum(m for _, _, m in cells)
    tq: dict = {}
    td: dict = {}
    for q, d, m in cells:
        tq[q] = tq.get(q, 0) + m
        td[d] = td.get(d, 0) + m
    x2 = {}
    cum = 0
    for q in sorted(tq):
        x2[q] = 2 * cum + tq[q] + 1
        cum += tq[q]
    y2 = {}
    cum = 0
    for d in sorted(td):
        y2[d] = 2 * cum + td[d] + 1
        cum += td[d]
    sx = sy = sxx = syy = sxy = 0
    for q, d, m in cells:
        x, y = x2[q], y2[d]
        sx += m * x
        sy += m * y
        sxx += m * x * x
        syy += m * y * y
        sxy += m * x * y
    num = n * sxy - sx * sy
    rho = num / (np.sqrt(float(n * sxx - sx * sx))
                 * np.sqrt(float(n * syy - sy * sy)))
    return pa.table({
        "n": pa.array([n], pa.int64()),
        "rho": pa.array(_r4(np.array([rho]))),
    })


QUERIES["qty_discount_spearman"] = q_qty_discount_spearman

ORACLE_SQL["qty_discount_spearman"] = f"""
WITH {_QD_CELLS_SQL},
rq AS (SELECT q,
              2 * (sum(sum(m)) OVER (ORDER BY q
                                     ROWS UNBOUNDED PRECEDING)
                   - sum(m)) + sum(m) + 1 AS x
       FROM cells GROUP BY q),
rd AS (SELECT d,
              2 * (sum(sum(m)) OVER (ORDER BY d
                                     ROWS UNBOUNDED PRECEDING)
                   - sum(m)) + sum(m) + 1 AS y
       FROM cells GROUP BY d),
j AS (SELECT c.m::HUGEINT AS m, rq.x::HUGEINT AS x,
             rd.y::HUGEINT AS y
      FROM cells c JOIN rq USING (q) JOIN rd USING (d)),
s AS (SELECT sum(m)::HUGEINT AS n, sum(m * x)::HUGEINT AS sx,
             sum(m * y)::HUGEINT AS sy,
             sum(m * x * x)::HUGEINT AS sxx,
             sum(m * y * y)::HUGEINT AS syy,
             sum(m * x * y)::HUGEINT AS sxy
      FROM j)
SELECT n::BIGINT AS n,
       {_R4.format(expr='((n * sxy - sx * sy)::DOUBLE '
                        '/ (sqrt((n * sxx - sx * sx)::DOUBLE) '
                        '* sqrt((n * syy - sy * sy)::DOUBLE)))')}
         AS rho
FROM s
"""


# ---------------------------------------------------------------------------
# Product quantization (completing the float -> SQ8 -> PQ serving ladder)
# ---------------------------------------------------------------------------

PQ_SUBSPACES = 8
PQ_CENTROIDS = 16


def _pq_codebook(sf_dir: str):
    """Deterministic (m, k, dsub) PQ codebook from the embeddings of
    the PQ_CENTROIDS smallest vec_ids — the kmeans-seed determinism
    convention, read via a row-group-pruned point read (k-sized)."""
    import pyarrow.parquet as pq

    from ..stages.quantize import pq_codebook_from_seeds

    st = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                       filters=[("vec_id", "<", PQ_CENTROIDS)])
    st = st.sort_by("vec_id")
    seeds = np.stack([np.asarray(v, dtype=np.float64)
                      for v in st["embedding"].to_pylist()])
    return pq_codebook_from_seeds(seeds, n_subspaces=PQ_SUBSPACES)


def q_embedding_pq_codes(sf_dir: str):
    """Product-quantization codes (Jégou et al. 2011): each vector's
    8 sub-vectors assigned to the nearest of 16 deterministic
    per-subspace codebook rows — m·log₂k = 32 BITS per vector vs 4d
    bytes float, the standard billion-scale ANN store.  Distances
    are 4dp-ROUNDED before the argmin (the kmeans ``round_dist``
    contract) so the first-minimum tie rule is ORDER BY dist, cid on
    both engines; output integer (vec_id, subspace, code) rows are
    compared exactly.  Codebook broadcast once; one vectorized
    assign per batch."""
    from ..stages.quantize import pq_encode

    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return pq_encode(emb, _pq_codebook(sf_dir))


def q_ann_pq_topk(sf_dir: str):
    """Asymmetric PQ ANN (ADC): full-precision queries scored by
    cosine against each vector's codebook RECONSTRUCTION — the third
    rung of the quantized-serving ladder (float → SQ8 → PQ), same
    broadcast + tree-merge shape as both baselines; scores
    4dp-gated, ties by vec_id."""
    from ..stages.quantize import ann_pq_topk

    ds, qm = _ann_inputs(sf_dir)
    out = ann_pq_topk(ds, qm, _pq_codebook(sf_dir), k=ANN_K)
    return out.drop_columns(["rank"]).map_batches(
        _ann_fix, batch_format="pyarrow")


QUERIES["embedding_pq_codes"] = q_embedding_pq_codes
QUERIES["ann_pq_topk"] = q_ann_pq_topk

_PQ_DSUB = f"(64 // {PQ_SUBSPACES})"

_PQ_CTE = f"""
cb AS (SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cid,
              embedding AS cemb
       FROM (SELECT * FROM embeddings ORDER BY vec_id
             LIMIT {PQ_CENTROIDS})),
cbx AS (SELECT cid, (dim - 1) // {_PQ_DSUB} AS s,
               (dim - 1) % {_PQ_DSUB} AS sd, cv
        FROM (SELECT cid, generate_subscripts(cemb, 1) AS dim,
                     unnest(cemb)::DOUBLE AS cv
              FROM cb)),
x AS (SELECT vec_id, (dim - 1) // {_PQ_DSUB} AS s,
             (dim - 1) % {_PQ_DSUB} AS sd, v
      FROM (SELECT vec_id, generate_subscripts(embedding, 1) AS dim,
                   unnest(embedding)::DOUBLE AS v
            FROM embeddings)),
pqd AS (SELECT x.vec_id, x.s, cbx.cid,
               {_R4.format(expr='sqrt(sum((x.v - cbx.cv) '
                                '* (x.v - cbx.cv)))')} AS dist
        FROM x JOIN cbx ON x.s = cbx.s AND x.sd = cbx.sd
        GROUP BY 1, 2, 3),
pqr AS (SELECT vec_id, s, cid,
               row_number() OVER (PARTITION BY vec_id, s
                                  ORDER BY dist, cid) AS rn
        FROM pqd),
codes AS (SELECT vec_id, s, cid AS code FROM pqr WHERE rn = 1)
"""

ORACLE_SQL["embedding_pq_codes"] = f"""
WITH {_PQ_CTE}
SELECT vec_id, s::BIGINT AS subspace, code::BIGINT AS code FROM codes
"""

ORACLE_SQL["ann_pq_topk"] = f"""
WITH {_PQ_CTE},
recon AS (SELECT codes.vec_id,
                 cbx.s * {_PQ_DSUB} + cbx.sd AS dim0, cbx.cv AS rv
          FROM codes JOIN cbx ON cbx.cid = codes.code
                             AND cbx.s = codes.s),
nv AS (SELECT vec_id, sqrt(sum(rv * rv)) AS nrm
       FROM recon GROUP BY vec_id),
qx AS (SELECT vec_id AS query_id,
              (s * {_PQ_DSUB} + sd) AS dim0, v AS val
       FROM x WHERE vec_id < {ANN_QUERY_IDS}),
nq AS (SELECT query_id, sqrt(sum(val * val)) AS nrm
       FROM qx GROUP BY query_id),
sc AS (SELECT qx.query_id, recon.vec_id, sum(qx.val * recon.rv) AS dot
       FROM qx JOIN recon USING (dim0)
       GROUP BY qx.query_id, recon.vec_id),
sim AS (SELECT sc.query_id, sc.vec_id,
               CASE WHEN nv.nrm = 0 OR nq.nrm = 0 THEN 0
                    ELSE sc.dot / (nv.nrm * nq.nrm) END AS sim
        FROM sc JOIN nv ON nv.vec_id = sc.vec_id
                JOIN nq ON nq.query_id = sc.query_id),
rr AS (SELECT query_id, vec_id, sim,
              row_number() OVER (PARTITION BY query_id
                                 ORDER BY sim DESC, vec_id) AS rn
       FROM sim)
SELECT query_id, vec_id, {_R4.format(expr="sim")} AS score
FROM rr WHERE rn <= {ANN_K}
"""


def q_daily_seasonal_naive_mae(sf_dir: str):
    """Seasonal-naïve forecasting baseline (the yardstick every
    forecast evaluation reports first): predict each day's revenue by
    the SAME WEEKDAY one week earlier (x̂_t = x_{t−7}, calendar
    join, days with no t−7 observation excluded), and report the
    EXACT int64 total absolute error plus the 4dp-gated MAE — the
    error a real model must beat.  Daily cents totals through ONE
    day-keyed grouped sum (days-bounded); the scoring join runs over
    the days-bounded table on the driver with arbitrary-precision
    ints."""
    from ..stages.aggregates import sorted_groupby_agg

    ds = read_table(sf_dir, "events", columns=["ts", "value"])

    d_schema = pa.schema([("day", pa.int64()), ("cents", pa.int64())])

    def prep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return d_schema.empty_table()
        us = _ts_int64(t, "ts")
        return pa.table({
            "day": pa.array(us // 86_400_000_000),
            "cents": pa.array(np.floor(
                _non_null_numpy(t, "value") * 100)
                .astype(np.int64))})

    daily = sorted_groupby_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["day"], [("cents", "sum", "x")], in_schema=d_schema)

    series = {int(r["day"]): int(r["x"]) for r in daily.take_all()}
    n_scored = tot_err = 0
    for day, x in series.items():
        prev = series.get(day - 7)
        if prev is None:
            continue
        n_scored += 1
        tot_err += abs(x - prev)
    if n_scored < 1:
        raise ValueError("daily_seasonal_naive_mae: no scorable days")
    return pa.table({
        "n_scored_days": pa.array([n_scored], pa.int64()),
        "total_abs_err_cents": pa.array([tot_err], pa.int64()),
        "mae_value": pa.array(_r4(np.array(
            [tot_err / float(n_scored) / 100.0]))),
    })


QUERIES["daily_seasonal_naive_mae"] = q_daily_seasonal_naive_mae

ORACLE_SQL["daily_seasonal_naive_mae"] = f"""
WITH d AS (SELECT (epoch_us(ts)::BIGINT // 86400000000) AS day,
                  sum(floor(value * 100)::BIGINT)::BIGINT AS x
           FROM events GROUP BY 1),
j AS (SELECT a.day, abs(a.x - b.x)::BIGINT AS err
      FROM d a JOIN d b ON b.day = a.day - 7)
SELECT count(*)::BIGINT AS n_scored_days,
       sum(err)::BIGINT AS total_abs_err_cents,
       {_R4.format(expr='(sum(err)::DOUBLE / count(*)::DOUBLE '
                        '/ 100.0)')} AS mae_value
FROM j
"""


# ---------------------------------------------------------------------------
# causal-inference / experimentation tier
# ---------------------------------------------------------------------------

def _events_span_cutoff(base, frac_num: int, frac_den: int) -> int:
    """Integer µs cutoff at frac of the log's span — exact min/max
    scalar partials + pure integer arithmetic, the churn-labels
    boundary contract (every period decision replays bit-for-bit)."""
    span_schema = pa.schema([("lo", pa.int64()), ("hi", pa.int64())])

    def span(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "us" not in t.column_names:
            return span_schema.empty_table()
        us = t["us"].to_numpy(zero_copy_only=False)
        return pa.table({"lo": pa.array([us.min()]),
                         "hi": pa.array([us.max()])})

    parts = base.map_batches(span, batch_format="pyarrow").take_all()
    if not parts:
        raise ValueError("empty event log")
    lo = min(r["lo"] for r in parts)
    hi = max(r["hi"] for r in parts)
    return lo + (hi - lo) * frac_num // frac_den


_DID_PREP_SCHEMA = pa.schema([("user_id", pa.int64()),
                              ("us", pa.int64()),
                              ("cents", pa.int64())])


def _did_prep(t: pa.Table) -> pa.Table:
    if t.num_rows == 0:
        return _DID_PREP_SCHEMA.empty_table()
    ts = t["ts"]
    ts = ts.combine_chunks() if isinstance(ts, pa.ChunkedArray) else ts
    return pa.table({
        "user_id": t["user_id"],
        "us": ts.cast(pa.int64()),
        "cents": pa.array(np.floor(
            _non_null_numpy(t, "value") * 100)
            .astype(np.int64))})


def q_value_diff_in_diff(sf_dir: str):
    """Difference-in-differences — the panel-data causal baseline:
    treatment = the user-parity assignment user_id % 2 (the same
    deterministic split the hash-split curation family pins), period
    = before/after the integer midpoint of the log's span (exact
    min/max µs partials + lo + span·1//2, so the boundary replays
    bit-for-bit), and DiD = (treated post−pre) − (control post−pre)
    over per-cell means from EXACT int64 (n, Σcents) partials — a
    4-cell bounded combine, ONE shared closed form, means/DiD
    4dp-gated.  Raises on an empty cell (DiD undefined)."""
    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "value"])
    base = ds.map_batches(_did_prep, batch_format="pyarrow")
    cutoff = _events_span_cutoff(base, 1, 2)

    cell_schema = pa.schema([("cell", pa.int64()), ("n", pa.int64()),
                             ("s", pa.int64())])

    def partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "cents" not in t.column_names:
            return cell_schema.empty_table()
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        us = t["us"].to_numpy(zero_copy_only=False)
        cents = _non_null_numpy(t, "cents")
        cell = (uid % 2) * 2 + (us > cutoff)
        n = np.bincount(cell, minlength=4).astype(np.int64)
        s = np.bincount(cell, weights=cents, minlength=4) \
            .astype(np.int64)
        return pa.table({"cell": pa.array(np.arange(4, dtype=np.int64)),
                         "n": pa.array(n), "s": pa.array(s)})

    n = [0] * 4
    s = [0] * 4
    for r in base.map_batches(partials,
                              batch_format="pyarrow").take_all():
        n[r["cell"]] += r["n"]
        s[r["cell"]] += r["s"]
    if min(n) < 1:
        raise ValueError("value_diff_in_diff: an (arm, period) cell "
                         "is empty")
    m = [s[i] / n[i] / 100.0 for i in range(4)]
    did = (m[3] - m[2]) - (m[1] - m[0])
    return pa.table({
        "n_ctrl_pre": pa.array([n[0]], pa.int64()),
        "n_ctrl_post": pa.array([n[1]], pa.int64()),
        "n_treat_pre": pa.array([n[2]], pa.int64()),
        "n_treat_post": pa.array([n[3]], pa.int64()),
        "mean_ctrl_pre": pa.array(_r4(np.array([m[0]]))),
        "mean_ctrl_post": pa.array(_r4(np.array([m[1]]))),
        "mean_treat_pre": pa.array(_r4(np.array([m[2]]))),
        "mean_treat_post": pa.array(_r4(np.array([m[3]]))),
        "did": pa.array(_r4(np.array([did]))),
    })


QUERIES["value_diff_in_diff"] = q_value_diff_in_diff

_DID_CELLS_SQL = """
b AS (SELECT user_id, epoch_us(ts)::BIGINT AS us,
             floor(value * 100)::BIGINT AS cents
      FROM events),
sp AS (SELECT min(us)::BIGINT AS lo, max(us)::BIGINT AS hi FROM b),
e AS (SELECT (user_id % 2) AS g,
             CASE WHEN us > (SELECT lo + (hi - lo) * 1 // 2 FROM sp)
                  THEN 1 ELSE 0 END AS p,
             cents
      FROM b)"""

_DID_MEAN = "(s{i}::DOUBLE / n{i}::DOUBLE / 100.0)"

ORACLE_SQL["value_diff_in_diff"] = f"""
WITH {_DID_CELLS_SQL},
m AS (SELECT
  {', '.join(f'''sum(CASE WHEN g * 2 + p = {i} THEN 1 ELSE 0 END)
    ::BIGINT AS n{i},
  sum(CASE WHEN g * 2 + p = {i} THEN cents ELSE 0 END)
    ::BIGINT AS s{i}''' for i in range(4))}
  FROM e)
SELECT n0 AS n_ctrl_pre, n1 AS n_ctrl_post,
       n2 AS n_treat_pre, n3 AS n_treat_post,
       {_R4.format(expr=_DID_MEAN.format(i=0))} AS mean_ctrl_pre,
       {_R4.format(expr=_DID_MEAN.format(i=1))} AS mean_ctrl_post,
       {_R4.format(expr=_DID_MEAN.format(i=2))} AS mean_treat_pre,
       {_R4.format(expr=_DID_MEAN.format(i=3))} AS mean_treat_post,
       {_R4.format(expr=(
           f'(({_DID_MEAN.format(i=3)} - {_DID_MEAN.format(i=2)}) '
           f'- ({_DID_MEAN.format(i=1)} - {_DID_MEAN.format(i=0)}))'))}
         AS did
FROM m
"""


def q_cuped_adjustment(sf_dir: str):
    """CUPED (controlled experiments using pre-experiment data, Deng
    et al. 2013) — the variance-reduction step every modern A/B
    platform applies before the t-test: per user, covariate x =
    pre-period spend and outcome y = post-period spend (midpoint
    split, same exact integer cutoff as DiD; a user missing a period
    contributes 0 there), θ = cov(x,y)/var(x) and the achieved
    variance reduction ρ² from EXACT integer moment sums — per-user
    cents sums < 2³¹ by loud contract so each xy/x²/y² product fits
    int64, batch sums carried as the (>> 40, & 2⁴⁰−1) split and
    folded to Python ints; θ/ρ² are ONE shared closed form over
    identical integers (HUGEINT on the oracle side), 4dp-gated.
    Raises when var(x) or var(y) is zero."""
    from ..stages.aggregates import sorted_groupby_agg

    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "value"])
    base = ds.map_batches(_did_prep, batch_format="pyarrow")
    cutoff = _events_span_cutoff(base, 1, 2)

    xy_schema = pa.schema([("user_id", pa.int64()),
                           ("x", pa.int64()), ("y", pa.int64())])

    def split(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "cents" not in t.column_names:
            return xy_schema.empty_table()
        us = t["us"].to_numpy(zero_copy_only=False)
        cents = t["cents"].to_numpy(zero_copy_only=False)
        post = us > cutoff
        return pa.table({"user_id": t["user_id"],
                         "x": pa.array(np.where(post, 0, cents)),
                         "y": pa.array(np.where(post, cents, 0))})

    per_user = sorted_groupby_agg(
        base.map_batches(split, batch_format="pyarrow"),
        ["user_id"], [("x", "sum", "x"), ("y", "sum", "y")],
        in_schema=xy_schema)

    mask = (1 << 40) - 1
    mom_schema = pa.schema([
        ("n", pa.int64()), ("sx", pa.int64()), ("sy", pa.int64()),
        ("xy_hi", pa.int64()), ("xy_lo", pa.int64()),
        ("xx_hi", pa.int64()), ("xx_lo", pa.int64()),
        ("yy_hi", pa.int64()), ("yy_lo", pa.int64())])

    def moments(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "x" not in t.column_names:
            return mom_schema.empty_table()
        x = t["x"].to_numpy(zero_copy_only=False)
        y = t["y"].to_numpy(zero_copy_only=False)
        if x.max(initial=0) >= (1 << 31) or y.max(initial=0) >= (1 << 31):
            raise ValueError("cuped_adjustment: a per-user period sum "
                             "exceeds 2^31 cents — moment products "
                             "would overflow int64")
        xy, xx, yy = x * y, x * x, y * y
        return pa.table({
            "n": pa.array([t.num_rows], pa.int64()),
            "sx": pa.array([int(x.sum())], pa.int64()),
            "sy": pa.array([int(y.sum())], pa.int64()),
            "xy_hi": pa.array([int((xy >> 40).sum())], pa.int64()),
            "xy_lo": pa.array([int((xy & mask).sum())], pa.int64()),
            "xx_hi": pa.array([int((xx >> 40).sum())], pa.int64()),
            "xx_lo": pa.array([int((xx & mask).sum())], pa.int64()),
            "yy_hi": pa.array([int((yy >> 40).sum())], pa.int64()),
            "yy_lo": pa.array([int((yy & mask).sum())], pa.int64())})

    n = sx = sy = sxy = sxx = syy = 0
    for r in per_user.map_batches(moments,
                                  batch_format="pyarrow").take_all():
        n += r["n"]
        sx += r["sx"]
        sy += r["sy"]
        sxy += (r["xy_hi"] << 40) + r["xy_lo"]
        sxx += (r["xx_hi"] << 40) + r["xx_lo"]
        syy += (r["yy_hi"] << 40) + r["yy_lo"]
    num = n * sxy - sx * sy
    den_x = n * sxx - sx * sx
    den_y = n * syy - sy * sy
    if den_x <= 0 or den_y <= 0:
        raise ValueError("cuped_adjustment: zero pre- or post-period "
                         "variance")
    theta = num / float(den_x)
    var_reduction = float(num) * float(num) \
        / (float(den_x) * float(den_y))
    return pa.table({
        "n_users": pa.array([n], pa.int64()),
        "theta": pa.array(_r4(np.array([theta]))),
        "var_reduction": pa.array(_r4(np.array([var_reduction]))),
    })


QUERIES["cuped_adjustment"] = q_cuped_adjustment

ORACLE_SQL["cuped_adjustment"] = f"""
WITH {_DID_CELLS_SQL},
u AS (SELECT user_id,
             sum(CASE WHEN us <= (SELECT lo + (hi - lo) * 1 // 2
                                  FROM sp)
                      THEN cents ELSE 0 END)::BIGINT AS x,
             sum(CASE WHEN us > (SELECT lo + (hi - lo) * 1 // 2
                                 FROM sp)
                      THEN cents ELSE 0 END)::BIGINT AS y
      FROM b GROUP BY 1),
m AS (SELECT count(*)::HUGEINT AS n,
             sum(x)::HUGEINT AS sx, sum(y)::HUGEINT AS sy,
             sum(x::HUGEINT * y)::HUGEINT AS sxy,
             sum(x::HUGEINT * x)::HUGEINT AS sxx,
             sum(y::HUGEINT * y)::HUGEINT AS syy
      FROM u)
SELECT n::BIGINT AS n_users,
       {_R4.format(expr='((n * sxy - sx * sy)::DOUBLE '
                        '/ (n * sxx - sx * sx)::DOUBLE)')} AS theta,
       {_R4.format(expr='((n * sxy - sx * sy)::DOUBLE '
                        '* (n * sxy - sx * sy)::DOUBLE '
                        '/ ((n * sxx - sx * sx)::DOUBLE '
                        '* (n * syy - sy * sy)::DOUBLE))')}
         AS var_reduction
FROM m
"""


# ---------------------------------------------------------------------------
# robust trend pair over the daily revenue series
# ---------------------------------------------------------------------------

_DAILY_CENTS_SQL = """
d AS (SELECT (epoch_us(ts)::BIGINT // 86400000000) AS day,
             sum(floor(value * 100)::BIGINT)::BIGINT AS x
      FROM events GROUP BY 1)"""


def _daily_cents_rows(sf_dir: str):
    """Ordered (day, cents) pairs of the daily revenue series — ONE
    day-keyed grouped sum is the only corpus-sized work; the result
    is days-bounded and feeds the trend statistics' driver folds."""
    from ..stages.aggregates import sorted_groupby_agg

    ds = read_table(sf_dir, "events", columns=["ts", "value"])

    d_schema = pa.schema([("day", pa.int64()), ("cents", pa.int64())])

    def prep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return d_schema.empty_table()
        us = _ts_int64(t, "ts")
        return pa.table({
            "day": pa.array(us // 86_400_000_000),
            "cents": pa.array(np.floor(
                _non_null_numpy(t, "value") * 100)
                .astype(np.int64))})

    daily = sorted_groupby_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["day"], [("cents", "sum", "x")], in_schema=d_schema)
    return sorted((int(r["day"]), int(r["x"]))
                  for r in daily.take_all())


def q_daily_mann_kendall(sf_dir: str):
    """Mann-Kendall trend test over daily revenue — the standard
    nonparametric is-this-metric-drifting monitor: S = Σ_{i<j}
    sign(x_j − x_i) over the days-bounded series (a Python-int
    pairwise fold over D(D−1)/2 pairs, D bounded by the calendar),
    variance with the tie correction Var = (n(n−1)(2n+5) −
    Σ t(t−1)(2t+5)) / 18, and the continuity-corrected
    z = (S ∓ 1)/√Var — S, the pair counts and the tie term all exact
    integers, z ONE shared closed form 4dp-gated.  The ORACLE is the
    INDEPENDENT quadratic day self-join."""
    rows = _daily_cents_rows(sf_dir)
    n = len(rows)
    if n < 3:
        raise ValueError("daily_mann_kendall: need >= 3 days")
    xs = [x for _, x in rows]
    s = 0
    for i in range(n):
        for j in range(i + 1, n):
            d = xs[j] - xs[i]
            s += (d > 0) - (d < 0)
    ties: dict = {}
    for x in xs:
        ties[x] = ties.get(x, 0) + 1
    tie_term = sum(t * (t - 1) * (2 * t + 5)
                   for t in ties.values() if t > 1)
    var18 = n * (n - 1) * (2 * n + 5) - tie_term
    if var18 <= 0:
        raise ValueError("daily_mann_kendall: zero variance")
    if s > 0:
        z = (s - 1) / np.sqrt(var18 / 18.0)
    elif s < 0:
        z = (s + 1) / np.sqrt(var18 / 18.0)
    else:
        z = 0.0
    return pa.table({
        "n_days": pa.array([n], pa.int64()),
        "s_stat": pa.array([s], pa.int64()),
        "z_stat": pa.array(_r4(np.array([z]))),
    })


QUERIES["daily_mann_kendall"] = q_daily_mann_kendall

ORACLE_SQL["daily_mann_kendall"] = f"""
WITH {_DAILY_CENTS_SQL},
p AS (SELECT sum(CASE WHEN b.x > a.x THEN 1
                      WHEN b.x < a.x THEN -1 ELSE 0 END)::BIGINT AS s
      FROM d a, d b WHERE b.day > a.day),
t AS (SELECT coalesce(sum(c * (c - 1) * (2 * c + 5)), 0)::BIGINT
         AS tie_term
      FROM (SELECT count(*)::BIGINT AS c FROM d GROUP BY x)
      WHERE c > 1),
m AS (SELECT (SELECT count(*) FROM d)::BIGINT AS n,
             (SELECT s FROM p) AS s,
             (SELECT tie_term FROM t) AS tie_term)
SELECT n AS n_days, s AS s_stat,
       {_R4.format(expr='(CASE WHEN s > 0 THEN (s - 1)::DOUBLE '
                        'WHEN s < 0 THEN (s + 1)::DOUBLE '
                        'ELSE 0.0 END '
                        '/ sqrt((n * (n - 1) * (2 * n + 5) '
                        '- tie_term)::DOUBLE / 18.0))')} AS z_stat
FROM m
"""


def q_daily_theil_sen(sf_dir: str):
    """Theil-Sen slope of daily revenue — the robust trend estimator
    (median of all pairwise slopes) monitoring dashboards prefer over
    OLS when single days spike: each slope is ONE division of
    identical exact integers (x_j − x_i cents over j − i days), so
    every candidate is the same IEEE double on both engines and the
    LOWER-median order statistic picks the same element; reported in
    value units per day, 4dp-gated, with the exact pair count."""
    rows = _daily_cents_rows(sf_dir)
    n = len(rows)
    if n < 2:
        raise ValueError("daily_theil_sen: need >= 2 days")
    slopes = []
    for i in range(n):
        di, xi = rows[i]
        for j in range(i + 1, n):
            dj, xj = rows[j]
            slopes.append((xj - xi) / float(dj - di))
    slopes.sort()
    med = slopes[(len(slopes) - 1) // 2]
    return pa.table({
        "n_pairs": pa.array([len(slopes)], pa.int64()),
        "slope_value_per_day": pa.array(_r4(np.array([med / 100.0]))),
    })


QUERIES["daily_theil_sen"] = q_daily_theil_sen

ORACLE_SQL["daily_theil_sen"] = f"""
WITH {_DAILY_CENTS_SQL},
s AS (SELECT (b.x - a.x)::DOUBLE / (b.day - a.day)::DOUBLE AS sl
      FROM d a, d b WHERE b.day > a.day),
r AS (SELECT sl, row_number() OVER (ORDER BY sl) AS rn,
             count(*) OVER () AS np FROM s)
SELECT (SELECT count(*) FROM s)::BIGINT AS n_pairs,
       {_R4.format(expr='(sl / 100.0)')} AS slope_value_per_day
FROM r WHERE rn = (np - 1) // 2 + 1
"""


def q_dow_value_anova(sf_dir: str):
    """One-way ANOVA F statistic of event value across the 7 UTC
    days-of-week — the multi-group generalization of the Welch pair
    test (the seasonality-significance screen): per-group EXACT int64
    moments (n, Σcents, Σcents²) through 7-bounded bincount partials,
    then SSB = Σ s_g²/n_g − S²/N and SSW = Σq − Σ s_g²/n_g with
    F = (SSB/(k−1)) / (SSW/(N−k)) — ONE shared closed form over
    identical integers on both engines, F and the grand mean
    4dp-gated.  Groups with no rows are excluded from k on both
    sides; raises when fewer than 2 groups or SSW is zero."""
    ds = read_table(sf_dir, "events", columns=["ts", "value"])

    part_schema = pa.schema([("g", pa.int64()), ("n", pa.int64()),
                             ("s", pa.int64()), ("q", pa.int64())])

    def partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        us = _ts_int64(t, "ts")
        dow = ((us // 86_400_000_000 + 4) % 7).astype(np.int64)
        cents = np.floor(_non_null_numpy(t, "value")
                         * 100).astype(np.int64)
        n = np.bincount(dow, minlength=7).astype(np.int64)
        s = np.bincount(dow, weights=cents, minlength=7) \
            .astype(np.int64)
        q = np.bincount(dow, weights=(cents * cents).astype(
            np.float64), minlength=7).astype(np.int64)
        return pa.table({"g": pa.array(np.arange(7, dtype=np.int64)),
                         "n": pa.array(n), "s": pa.array(s),
                         "q": pa.array(q)})

    n = [0] * 7
    s = [0] * 7
    qq = [0] * 7
    # cents^2 bincount uses float64 weights: exact only below 2^53,
    # so cap the batch contribution via a loud contract
    for r in ds.map_batches(partials, batch_format="pyarrow",
                            batch_size=4096).take_all():
        n[r["g"]] += r["n"]
        s[r["g"]] += r["s"]
        qq[r["g"]] += r["q"]
    groups = [g for g in range(7) if n[g] > 0]
    k = len(groups)
    if k < 2:
        raise ValueError("dow_value_anova: need >= 2 non-empty groups")
    nn = sum(n)
    ss = sum(s)
    sq = sum(qq)
    # float(s) BEFORE squaring, matching the oracle's s::DOUBLE *
    # s::DOUBLE expression order exactly
    sb = sum(float(s[g]) * float(s[g]) / float(n[g]) for g in groups)
    between = sb - float(ss) * float(ss) / float(nn)
    within = float(sq) - sb
    if within <= 0:
        raise ValueError("dow_value_anova: zero within-group variance")
    f_stat = (between / (k - 1)) / (within / (nn - k))
    return pa.table({
        "n": pa.array([nn], pa.int64()),
        "k_groups": pa.array([k], pa.int64()),
        "grand_mean": pa.array(_r4(np.array([ss / nn / 100.0]))),
        "f_stat": pa.array(_r4(np.array([f_stat]))),
    })


QUERIES["dow_value_anova"] = q_dow_value_anova

ORACLE_SQL["dow_value_anova"] = f"""
WITH e AS (
  SELECT ((epoch_us(ts)::BIGINT // 86400000000 + 4) % 7) AS g,
         floor(value * 100)::BIGINT AS cents
  FROM events),
gr AS (SELECT g, count(*)::HUGEINT AS n, sum(cents)::HUGEINT AS s,
              sum(cents * cents)::HUGEINT AS q
       FROM e GROUP BY 1),
m AS (SELECT count(*)::BIGINT AS k, sum(n)::HUGEINT AS nn,
             sum(s)::HUGEINT AS ss, sum(q)::HUGEINT AS sq,
             sum(s::DOUBLE * s::DOUBLE / n::DOUBLE) AS sb
      FROM gr)
SELECT nn::BIGINT AS n, k AS k_groups,
       {_R4.format(expr='(ss::DOUBLE / nn::DOUBLE / 100.0)')}
         AS grand_mean,
       {_R4.format(expr='(((sb - ss::DOUBLE * ss::DOUBLE '
                        '/ nn::DOUBLE) / (k - 1)::DOUBLE) '
                        '/ ((sq::DOUBLE - sb) '
                        '/ (nn - k)::DOUBLE))')} AS f_stat
FROM m
"""


def q_daily_runs_test(sf_dir: str):
    """Wald-Wolfowitz runs test over the daily revenue series — the
    is-this-sequence-random screen: dichotomize each day against the
    LOWER MEDIAN of the daily totals (an order statistic, itself an
    exact integer both engines select identically; days equal to the
    median are DROPPED per the standard convention), count runs of
    consecutive same-side days, and z-score against the exact null
    moments μ = 2n₁n₂/(n₁+n₂) + 1 and σ² = 2n₁n₂(2n₁n₂−n₁−n₂) /
    ((n₁+n₂)²(n₁+n₂−1)) — runs, n₁, n₂ all exact integers from the
    days-bounded ordered fold, z ONE shared closed form 4dp-gated."""
    rows = _daily_cents_rows(sf_dir)
    xs = [x for _, x in rows]
    med = sorted(xs)[(len(xs) - 1) // 2]
    sides = [1 if x > med else 0 for x in xs if x != med]
    n1 = sum(sides)
    n2 = len(sides) - n1
    if n1 < 1 or n2 < 1:
        raise ValueError("daily_runs_test: a side is empty")
    runs = 1 + sum(1 for a, b in zip(sides, sides[1:]) if a != b)
    nt = n1 + n2
    mu = 2 * n1 * n2 / float(nt) + 1
    var = (2 * n1 * n2 * (2 * n1 * n2 - n1 - n2)
           / (float(nt) * nt * (nt - 1)))
    z = (runs - mu) / np.sqrt(var)
    return pa.table({
        "n_above": pa.array([n1], pa.int64()),
        "n_below": pa.array([n2], pa.int64()),
        "n_runs": pa.array([runs], pa.int64()),
        "z_stat": pa.array(_r4(np.array([z]))),
    })


QUERIES["daily_runs_test"] = q_daily_runs_test

ORACLE_SQL["daily_runs_test"] = f"""
WITH {_DAILY_CENTS_SQL},
med AS (SELECT x AS m FROM
          (SELECT x, row_number() OVER (ORDER BY x) AS rn,
                  count(*) OVER () AS nd FROM d)
        WHERE rn = (nd - 1) // 2 + 1),
sd AS (SELECT day, CASE WHEN x > (SELECT m FROM med) THEN 1 ELSE 0
              END AS side
       FROM d WHERE x <> (SELECT m FROM med)),
lg AS (SELECT side, lag(side) OVER (ORDER BY day) AS pside FROM sd),
c AS (SELECT
        (SELECT sum(side) FROM sd)::BIGINT AS n1,
        (SELECT count(*) - sum(side) FROM sd)::BIGINT AS n2,
        (1 + sum(CASE WHEN pside IS NOT NULL AND side <> pside
                      THEN 1 ELSE 0 END))::BIGINT AS runs
      FROM lg)
SELECT n1 AS n_above, n2 AS n_below, runs AS n_runs,
       {_R4.format(expr='((runs::DOUBLE - (2.0 * n1 * n2 '
                        '/ (n1 + n2)::DOUBLE + 1)) '
                        '/ sqrt(2.0 * n1 * n2 '
                        '* (2.0 * n1 * n2 - n1 - n2) '
                        '/ ((n1 + n2)::DOUBLE * (n1 + n2) '
                        '* (n1 + n2 - 1))))')} AS z_stat
FROM c
"""


def q_source_lang_hhi(sf_dir: str):
    """Herfindahl-Hirschman concentration of languages per source —
    the how-diverse-is-this-domain's-content screen (HHI = Σ share²;
    1/HHI = the effective number of languages): ONE (source ×
    lang)-bounded grouped count, per-source integer numerators
    Σ n_i² and totals, only the two final divisions 4dp-gated."""
    from ..stages.aggregates import sorted_groupby_agg

    ds = read_table(sf_dir, "documents", columns=["source", "lang"])

    part_schema = pa.schema([("source", pa.string()),
                             ("lang", pa.string()),
                             ("one", pa.int64())])

    def prep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        return pa.table({"source": t["source"], "lang": t["lang"],
                         "one": pa.array(np.ones(t.num_rows,
                                                 np.int64))})

    cells = sorted_groupby_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["source", "lang"], [("one", "sum", "n")],
        in_schema=part_schema)

    def sq(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "n" not in t.column_names:
            return pa.schema([("source", pa.string()),
                              ("n", pa.int64()),
                              ("n2", pa.int64())]).empty_table()
        nv = t["n"].to_numpy(zero_copy_only=False)
        return pa.table({"source": t["source"], "n": t["n"],
                         "n2": pa.array(nv * nv)})

    per_src = sorted_groupby_agg(
        cells.map_batches(sq, batch_format="pyarrow"),
        ["source"], [("n", "sum", "tot"), ("n2", "sum", "sq")],
        in_schema=pa.schema([("source", pa.string()),
                             ("n", pa.int64()), ("n2", pa.int64())]))

    out_schema = pa.schema([("source", pa.string()),
                            ("n_docs", pa.int64()),
                            ("hhi", pa.float64()),
                            ("effective_langs", pa.float64())])

    def fin(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "tot" not in t.column_names:
            return out_schema.empty_table()
        tot = t["tot"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        sqv = t["sq"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        hhi = sqv / (tot * tot)
        return pa.table({
            "source": t["source"],
            "n_docs": t["tot"].cast(pa.int64()),
            "hhi": pa.array(_r4(hhi)),
            "effective_langs": pa.array(_r4(tot * tot / sqv))})

    return per_src.map_batches(fin, batch_format="pyarrow")


QUERIES["source_lang_hhi"] = q_source_lang_hhi

ORACLE_SQL["source_lang_hhi"] = f"""
WITH c AS (SELECT source, lang, count(*)::BIGINT AS n
           FROM documents GROUP BY 1, 2),
s AS (SELECT source, sum(n)::BIGINT AS tot,
             sum(n * n)::BIGINT AS sq
      FROM c GROUP BY 1)
SELECT source, tot AS n_docs,
       {_R4.format(expr='(sq::DOUBLE / (tot::DOUBLE * tot::DOUBLE))')}
         AS hhi,
       {_R4.format(expr='(tot::DOUBLE * tot::DOUBLE / sq::DOUBLE)')}
         AS effective_langs
FROM s
"""


# ---------------------------------------------------------------------
# Wave 14 — search-core dictionary-serving closers: autocomplete over
# the built term dictionary, the df (posting-length) histogram, and
# doc-co-occurrence related-terms (query expansion suggestions).
# ---------------------------------------------------------------------

AUTOCOMPLETE_K = 10
AUTOCOMPLETE_PREFIX = "s"  # richest prefix in the synthetic vocabulary
RELATED_K = 10
RELATED_SEED = KW  # "spark" — guaranteed present in the vocabulary


def q_term_autocomplete(sf_dir: str):
    """Query-box autocomplete over the BUILT index's term dictionary:
    the AUTOCOMPLETE_K most-frequent index terms with prefix
    ``AUTOCOMPLETE_PREFIX``, ranked by document frequency desc (ties by ascending
    term) — the same serving-side prefix range scan (two binary
    searches per shard dictionary) ``search_prefix`` uses, surfacing
    (term, df) suggestions instead of the OR'd postings.  Ranking is
    exact-integer; df is the posting-list length, so this doubles as
    a check that dictionary + postings survive the build byte-exactly
    on the prefix slice."""
    s = _searcher(sf_dir)
    terms = s.expand_prefix(AUTOCOMPLETE_PREFIX, max_expansion=1 << 20)
    if not terms:
        return pa.schema({"term": pa.string(),
                          "df": pa.int64()}).empty_table()
    df = np.array([s.df(t) for t in terms], dtype=np.int64)
    # expand_prefix returns terms lexicographically ascending; a STABLE
    # argsort on -df therefore yields (df desc, term asc) exactly.
    order = np.argsort(-df, kind="stable")[:AUTOCOMPLETE_K]
    return pa.table({
        "term": pa.array([terms[i] for i in order], pa.string()),
        "df": pa.array(df[order]),
    })


QUERIES["term_autocomplete"] = q_term_autocomplete

ORACLE_SQL["term_autocomplete"] = f"""
WITH {_BASE_CTE},
d AS (SELECT DISTINCT doc_id, term
      FROM (SELECT doc_id, unnest(terms) AS term FROM base)),
dfs AS (SELECT term, count(*)::BIGINT AS df FROM d
        WHERE starts_with(term, '{AUTOCOMPLETE_PREFIX}') GROUP BY 1)
SELECT term, df FROM dfs ORDER BY df DESC, term LIMIT {AUTOCOMPLETE_K}
"""


def q_term_df_hist(sf_dir: str):
    """Posting-list-length (document-frequency) histogram of the BUILT
    index — the dictionary-statistics screen that sizes skip pointers
    and decides which hot terms need salted sub-shards: (df, number
    of index terms with that df).  Terms are hash-disjoint across
    shards, so per-shard (df, 1) rows are already global partials;
    ONE df-keyed bounded grouped count (distinct df values ≤ corpus
    doc count, in practice a few hundred) finishes it — the term
    strings themselves never leave the shard readers."""
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.fanout import keyed_dataset
    from ..stages.shards import list_shards, open_shard

    index_dir = get_index(sf_dir)
    part_schema = pa.schema([("df", pa.int64()), ("one", pa.int64())])

    def read(sid: int) -> pa.Table:
        t = open_shard(index_dir, sid)
        if t is None:
            return part_schema.empty_table()
        return pa.table({
            "df": t["df"].cast(pa.int64()),
            "one": pa.array(np.ones(t.num_rows, np.int64)),
        })

    return sorted_groupby_agg(
        keyed_dataset(list_shards(index_dir), read),
        ["df"], [("one", "sum", "n_terms")], in_schema=part_schema)


QUERIES["term_df_hist"] = q_term_df_hist

ORACLE_SQL["term_df_hist"] = f"""
WITH {_BASE_CTE},
d AS (SELECT DISTINCT doc_id, term
      FROM (SELECT doc_id, unnest(terms) AS term FROM base)),
dfs AS (SELECT term, count(*)::BIGINT AS df FROM d GROUP BY 1)
SELECT df, count(*)::BIGINT AS n_terms FROM dfs GROUP BY 1 ORDER BY df
"""


def q_related_terms(sf_dir: str):
    """Doc-co-occurrence related terms (query-expansion suggestions)
    for the seed term ``RELATED_SEED``: PMI = ln(cooc·N / (df_seed·df))
    over DISTINCT (doc, term) incidences, top ``RELATED_K`` by
    (4dp-rounded PMI desc, term asc) among co-occurring non-seed
    terms.  ONE term-keyed grouped sum carries BOTH df and cooc (each
    doc's distinct stopword-filtered terms emit (term, 1, seed∈doc)),
    so the vocabulary-sized exchange happens once; the vocab table is
    materialized (vocabulary-sized by construction — term strings ×
    two int64 columns, the same boundedness contract as the unigram-LM
    top-V table), the seed row supplies df_seed, and the cooc>0 slice
    is ranked with a per-block top-k prefilter so only ≤ K·num_blocks
    candidate rows ever reach the driver."""
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.textstats import _split_tokens

    docs = read_table(sf_dir, "documents", columns=["text"])
    n_docs = docs.count()  # parquet metadata, no scan

    part_schema = pa.schema([("term", pa.large_string()),
                             ("df", pa.int64()),
                             ("cooc", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        content = t["text"]
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        parents, values = _split_tokens(content)
        if len(values) == 0:
            return part_schema.empty_table()
        td = values.dictionary_encode()
        codes = _codes(td)
        vocab = td.dictionary
        # stopword mask over the (small) per-batch dictionary, applied
        # to the flat code stream — matches the oracle's `terms` CTE
        stop = np.array([v in STOP_WORDS for v in vocab.to_pylist()])
        keep = ~stop[codes]
        parents_k = parents[keep]
        codes_k = codes[keep]
        if len(codes_k) == 0:
            return part_schema.empty_table()
        # distinct (doc, term) pairs via one composite unique
        card = len(vocab)
        pairs = np.unique(parents_k.astype(np.int64) * card + codes_k)
        pdoc = pairs // card
        pcode = pairs % card
        # docs (of this batch) containing the seed
        seed_idx = None
        for i, v in enumerate(vocab.to_pylist()):
            if v == RELATED_SEED:
                seed_idx = i
                break
        has_seed = np.zeros(t.num_rows, dtype=bool)
        if seed_idx is not None:
            has_seed[np.unique(pdoc[pcode == seed_idx])] = True
        w = has_seed[pdoc].astype(np.int64)
        # per-batch (term, df, cooc) partials: one bincount pair over
        # the pair stream, emitted only for terms that occur
        dfp = np.bincount(pcode, minlength=card)
        coocp = np.bincount(pcode, weights=w, minlength=card) \
            .astype(np.int64)
        nz = np.flatnonzero(dfp)
        return pa.table({
            "term": vocab.take(pa.array(nz)).cast(pa.large_string()),
            "df": pa.array(dfp[nz].astype(np.int64)),
            "cooc": pa.array(coocp[nz]),
        })

    agg = sorted_groupby_agg(
        docs.map_batches(partial, batch_format="pyarrow"),
        ["term"], [("df", "sum", "df"), ("cooc", "sum", "cooc")],
        in_schema=part_schema).materialize()  # vocabulary-sized

    def seed_pick(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if t.num_rows == 0 or "term" not in t.column_names:
            return part_schema.empty_table()
        return t.filter(pc.equal(t["term"], RELATED_SEED))

    seed_rows = agg.map_batches(seed_pick, batch_format="pyarrow").take(1)
    out_schema = pa.schema([("term", pa.string()),
                            ("df", pa.int64()),
                            ("cooc", pa.int64()),
                            ("pmi", pa.float64())])
    if not seed_rows:
        return out_schema.empty_table()
    df_seed = int(seed_rows[0]["df"])
    n_f = float(n_docs)
    dfs_f = float(df_seed)

    def pmi_topk(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "df" not in t.column_names:
            return out_schema.empty_table()
        terms_np = np.asarray(t["term"].to_pylist(), dtype=object)
        dfv = _non_null_numpy(t, "df").astype(np.int64)
        cooc = _non_null_numpy(t, "cooc").astype(np.int64)
        m = (cooc > 0) & (terms_np != RELATED_SEED)
        if not m.any():
            return out_schema.empty_table()
        terms_np, dfv, cooc = terms_np[m], dfv[m], cooc[m]
        # expression order mirrors the oracle exactly:
        # ln((cooc·N) / (df·df_seed)) with float multiplies
        pmi = _r4(np.log((cooc.astype(np.float64) * n_f)
                         / (dfv.astype(np.float64) * dfs_f)))
        # local (pmi desc, term asc) top-k: stable sort by term asc,
        # then stable sort by -pmi
        o1 = np.argsort(terms_np, kind="stable")
        o2 = o1[np.argsort(-pmi[o1], kind="stable")][:RELATED_K]
        return pa.table({
            "term": pa.array(terms_np[o2].tolist(), pa.string()),
            "df": pa.array(dfv[o2]),
            "cooc": pa.array(cooc[o2]),
            "pmi": pa.array(pmi[o2]),
        })

    cand = pa.concat_tables([
        b for b in agg.map_batches(pmi_topk, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
    ] + [out_schema.empty_table()]).combine_chunks()
    # final selection over <= K·num_blocks candidate rows
    terms_np = np.asarray(cand["term"].to_pylist(), dtype=object)
    pmi = cand["pmi"].to_numpy(zero_copy_only=False)
    o1 = np.argsort(terms_np, kind="stable")
    o2 = o1[np.argsort(-pmi[o1], kind="stable")][:RELATED_K]
    return cand.take(pa.array(o2))


QUERIES["related_terms"] = q_related_terms

ORACLE_SQL["related_terms"] = f"""
WITH {_BASE_CTE},
d AS (SELECT DISTINCT doc_id, term
      FROM (SELECT doc_id, unnest(terms) AS term FROM base)),
sd AS (SELECT doc_id FROM d WHERE term = '{RELATED_SEED}'),
n AS (SELECT count(*)::BIGINT AS n FROM documents),
dfs AS (SELECT term, count(*)::BIGINT AS df FROM d GROUP BY 1),
sdf AS (SELECT df AS df_seed FROM dfs WHERE term = '{RELATED_SEED}'),
co AS (SELECT term, count(*)::BIGINT AS cooc
       FROM d JOIN sd USING (doc_id) GROUP BY 1),
p AS (SELECT co.term, dfs.df, co.cooc,
             {_R4.format(expr="ln((co.cooc::DOUBLE * n.n::DOUBLE) / "
                              "(dfs.df::DOUBLE * sdf.df_seed::DOUBLE))")}
               AS pmi
      FROM co JOIN dfs USING (term), n, sdf
      WHERE co.term <> '{RELATED_SEED}')
SELECT term, df, cooc, pmi FROM p
ORDER BY pmi DESC, term LIMIT {RELATED_K}
"""


# ---------------------------------------------------------------------
# Wave 15 — cross-split n-gram novelty (corpus-sized reference side,
# so membership travels through the hash sort, NOT a broadcast),
# Kaplan-Meier survival over user lifetimes, and per-language
# tokenizer fertility.
# ---------------------------------------------------------------------

NOVELTY_N = 3
NOVELTY_SPLIT_MOD = 2
KM_CENSOR_DAYS = 1
_US_PER_DAY = 86_400_000_000


def q_cross_split_novelty(sf_dir: str):
    """Train/holdout n-gram memorization screen: for every HOLDOUT
    document (doc_id % 2 != 0), the fraction of its token trigram
    occurrences whose gram also appears anywhere in the TRAIN split
    (doc_id % 2 == 0).  Unlike the decontamination family (benchmark
    side broadcast by contract), the reference side here is half the
    corpus — membership goes through ONE uint64 gram-hash range sort
    (`stages/dedup.py: cross_split_seen_stats`), the only data-sized
    exchange; DuckDB's md5_number_lower replays the hash (collisions
    included).  Holdout docs with < n tokens emit (0, 0, 0.0)."""
    from ..stages.dedup import cross_split_seen_stats

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = cross_split_seen_stats(docs, n=NOVELTY_N,
                                 split_mod=NOVELTY_SPLIT_MOD)

    fix = shape(pa.schema({"doc_id": pa.int64(), "n_grams": pa.int64(), "n_seen": pa.int64(),
                           "seen_frac": pa.float64()}), r4=["seen_frac"])
    return out.map_batches(fix, batch_format="pyarrow")


QUERIES["cross_split_novelty"] = q_cross_split_novelty

ORACLE_SQL["cross_split_novelty"] = f"""
WITH {_TOK_CTE},
g AS (
  SELECT doc_id,
         md5_number_lower(toks[p] || ' ' || toks[p+1] || ' ' ||
                          toks[p+2]) AS h
  FROM (SELECT doc_id, toks,
               unnest(generate_series(1, len(toks)-2)) AS p
        FROM tok WHERE len(toks) >= {NOVELTY_N})
),
tr AS (SELECT DISTINCT h FROM g
       WHERE doc_id % {NOVELTY_SPLIT_MOD} = 0),
st AS (
  SELECT doc_id, count(*)::BIGINT AS n_grams,
         sum(CASE WHEN h IN (SELECT h FROM tr)
                  THEN 1 ELSE 0 END)::BIGINT AS n_seen
  FROM g WHERE doc_id % {NOVELTY_SPLIT_MOD} <> 0 GROUP BY doc_id)
SELECT d.doc_id,
       coalesce(st.n_grams, 0)::BIGINT AS n_grams,
       coalesce(st.n_seen, 0)::BIGINT AS n_seen,
       {_R4.format(expr="CASE WHEN coalesce(st.n_grams, 0) = 0 THEN 0.0 "
                        "ELSE coalesce(st.n_seen, 0) / st.n_grams END")}
         AS seen_frac
FROM documents d LEFT JOIN st USING (doc_id)
WHERE d.doc_id % {NOVELTY_SPLIT_MOD} <> 0
"""


def q_user_survival_km(sf_dir: str):
    """Kaplan-Meier survival over user lifetimes — the product-limit
    estimator of "how long does a user stay active": lifetime = whole
    days between a user's first and last event (exact integer µs
    floor-division), right-CENSORED when the last event falls within
    the final KM_CENSOR_DAYS days of the log span (the user may still
    be active; the synthetic log is dense — users go at most ~2 days
    quiet — so the window is 1 day to make both outcomes populated).  One user-keyed grouped min/max is the only
    data-sized exchange; the (lifetime-day × death) table is
    days-domain bounded (bincount partials folded on the driver), and
    at each death time t: n_risk = users with lifetime ≥ t, S(t) =
    cumulative product of (1 − d_t/n_risk_t) in ascending-t order —
    the same sequential multiply DuckDB's windowed product() runs, so
    both engines hold identical doubles before the 4dp gate."""
    from ..stages.aggregates import sorted_groupby_agg

    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])

    prep_schema = pa.schema([("user_id", pa.int64()),
                             ("us", pa.int64())])

    prep = shape(prep_schema, rename={"us": "ts"})
    base = ds.map_batches(prep, batch_format="pyarrow")

    # global log end: one scalar max partial per batch -> driver max
    def mx(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "us" not in t.column_names:
            return pa.schema([("m", pa.int64())]).empty_table()
        return pa.table({"m": pa.array(
            [int(t["us"].to_numpy(zero_copy_only=False).max())],
            pa.int64())})

    mrows = base.map_batches(mx, batch_format="pyarrow").take_all()
    if not mrows:
        raise ValueError("user_survival_km: empty event log")
    log_end = max(r["m"] for r in mrows)

    users = sorted_groupby_agg(
        base, ["user_id"],
        [("us", "min", "f"), ("us", "max", "l")],
        in_schema=prep_schema)

    # (lifetime-day, death) bounded bincount partials -> driver fold
    def cells(t: pa.Table) -> pa.Table:
        sch = pa.schema([("t", pa.int64()), ("death", pa.int64()),
                         ("n", pa.int64())])
        if t.num_rows == 0 or "f" not in t.column_names:
            return sch.empty_table()
        f = _non_null_numpy(t, "f").astype(np.int64)
        l = _non_null_numpy(t, "l").astype(np.int64)
        life = (l - f) // _US_PER_DAY
        death = ((log_end - l)
                 >= KM_CENSOR_DAYS * _US_PER_DAY).astype(np.int64)
        comp = life * 2 + death
        cnt = np.bincount(comp)
        nz = np.flatnonzero(cnt)
        return pa.table({"t": pa.array((nz // 2).astype(np.int64)),
                         "death": pa.array((nz % 2).astype(np.int64)),
                         "n": pa.array(cnt[nz].astype(np.int64))})

    acc: dict[tuple[int, int], int] = {}
    for r in users.map_batches(cells, batch_format="pyarrow").take_all():
        k = (r["t"], r["death"])
        acc[k] = acc.get(k, 0) + r["n"]

    ts_sorted = sorted({t for t, _ in acc})
    n_total = sum(acc.values())
    rows = []
    at_risk = n_total
    for t in ts_sorted:
        d = acc.get((t, 1), 0)
        c = acc.get((t, 0), 0)
        if d > 0:
            rows.append((t, at_risk, d, c))
        at_risk -= d + c
    t_arr = np.array([r[0] for r in rows], dtype=np.int64)
    n_risk = np.array([r[1] for r in rows], dtype=np.int64)
    n_event = np.array([r[2] for r in rows], dtype=np.int64)
    n_cens = np.array([r[3] for r in rows], dtype=np.int64)
    surv = np.cumprod(1.0 - (n_event.astype(np.float64)
                             / n_risk.astype(np.float64)))
    return pa.table({
        "t_days": pa.array(t_arr),
        "n_risk": pa.array(n_risk),
        "n_event": pa.array(n_event),
        "n_censored": pa.array(n_cens),
        "survival": pa.array(_r4(surv)),
    })


QUERIES["user_survival_km"] = q_user_survival_km

ORACLE_SQL["user_survival_km"] = f"""
WITH u AS (SELECT user_id, min(epoch_us(ts))::BIGINT AS f,
                  max(epoch_us(ts))::BIGINT AS l
           FROM events GROUP BY 1),
g AS (SELECT max(epoch_us(ts))::BIGINT AS log_end FROM events),
d AS (SELECT (l - f) // {_US_PER_DAY} AS t,
             CASE WHEN ((SELECT log_end FROM g) - l)
                       >= {KM_CENSOR_DAYS} * {_US_PER_DAY}
                  THEN 1 ELSE 0 END AS death
      FROM u),
ev AS (SELECT t, sum(death)::BIGINT AS n_event,
              sum(1 - death)::BIGINT AS n_censored,
              count(*)::BIGINT AS n_at
       FROM d GROUP BY t),
o AS (SELECT t, n_event, n_censored,
             ((SELECT count(*) FROM d)
              - coalesce(sum(n_at) OVER (ORDER BY t
                  ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                  0))::BIGINT AS n_risk
      FROM ev),
k AS (SELECT t, n_risk, n_event, n_censored,
             product(1.0 - n_event::DOUBLE / n_risk::DOUBLE)
               OVER (ORDER BY t) AS survival
      FROM o WHERE n_event > 0)
SELECT t AS t_days, n_risk, n_event, n_censored,
       {_R4.format(expr='survival')} AS survival
FROM k
"""


def q_lang_fertility(sf_dir: str):
    """Per-language tokenizer fertility — the chars-per-token /
    tokens-per-doc profile a BPE-budget planner reads before picking
    vocabulary allocations: ONE lang-keyed bounded grouped sum over
    per-batch (docs, tokens, chars) integer partials (tokens = the
    raw punctuation-split stream, stopwords INCLUDED, mirroring
    `_TOK_CTE`; chars = the exact n_chars column)."""
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.textstats import _split_tokens

    docs = read_table(sf_dir, "documents", columns=["text", "lang", "n_chars"])

    part_schema = pa.schema([("lang", pa.string()),
                             ("docs", pa.int64()),
                             ("toks", pa.int64()),
                             ("chars", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        content = t["text"]
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        parents, _ = _split_tokens(content)
        tokc = np.bincount(parents, minlength=t.num_rows) \
            .astype(np.int64)
        lang = t["lang"]
        lang = lang.combine_chunks() if isinstance(lang, pa.ChunkedArray) \
            else lang
        ld = lang.dictionary_encode()
        codes = _codes(ld)
        card = len(ld.dictionary)
        chars = _non_null_numpy(t, "n_chars").astype(np.int64)
        nd = np.bincount(codes, minlength=card).astype(np.int64)
        nt = np.bincount(codes, weights=tokc, minlength=card) \
            .astype(np.int64)
        nc = np.bincount(codes, weights=chars, minlength=card) \
            .astype(np.int64)
        return pa.table({
            "lang": ld.dictionary.cast(pa.string()),
            "docs": pa.array(nd), "toks": pa.array(nt),
            "chars": pa.array(nc),
        })

    agg = sorted_groupby_agg(
        docs.map_batches(partial, batch_format="pyarrow"),
        ["lang"], [("docs", "sum", "n_docs"), ("toks", "sum", "n_tokens"),
                   ("chars", "sum", "n_chars")],
        in_schema=part_schema)

    out_schema = pa.schema([("lang", pa.string()),
                            ("n_docs", pa.int64()),
                            ("n_tokens", pa.int64()),
                            ("n_chars", pa.int64()),
                            ("chars_per_token", pa.float64()),
                            ("tokens_per_doc", pa.float64())])

    def fin(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "n_docs" not in t.column_names:
            return out_schema.empty_table()
        nd = t["n_docs"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        nt = t["n_tokens"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        nc = t["n_chars"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        return pa.table({
            "lang": t["lang"], "n_docs": t["n_docs"],
            "n_tokens": t["n_tokens"], "n_chars": t["n_chars"],
            "chars_per_token": pa.array(_r4(nc / nt)),
            "tokens_per_doc": pa.array(_r4(nt / nd)),
        })

    return agg.map_batches(fin, batch_format="pyarrow")


QUERIES["lang_fertility"] = q_lang_fertility

ORACLE_SQL["lang_fertility"] = f"""
WITH {_TOK_CTE},
j AS (SELECT d.lang, len(t.toks)::BIGINT AS ntok, d.n_chars
      FROM tok t JOIN documents d USING (doc_id)),
s AS (SELECT lang, count(*)::BIGINT AS n_docs,
             sum(ntok)::BIGINT AS n_tokens,
             sum(n_chars)::BIGINT AS n_chars
      FROM j GROUP BY 1)
SELECT lang, n_docs, n_tokens, n_chars,
       {_R4.format(expr='(n_chars::DOUBLE / n_tokens::DOUBLE)')}
         AS chars_per_token,
       {_R4.format(expr='(n_tokens::DOUBLE / n_docs::DOUBLE)')}
         AS tokens_per_doc
FROM s
"""


# ---------------------------------------------------------------------
# Wave 16 — one-pass deterministic Poisson bootstrap CI (the
# web-scale resampling estimator) and one ALS alternation at k=1
# (the iterative matrix-factorization training step).
# ---------------------------------------------------------------------

BOOT_B = 200
# Poisson(1) inverse-CDF thresholds: T_k = floor(P(X <= k) * 2^64) as
# EXACT integer constants (Decimal-computed once, hard-coded so both
# engines compare the same integers; w = #{k : u >= T_k}, capped at 8)
_POIS1_T = np.array([
    6786177901268885274, 13572355802537770549, 16965444753172213186,
    18096474403383694065, 18379231815936564285, 18435783298447138329,
    18445208545532234003, 18446555009401533385], dtype=np.uint64)
_BOOT_MIX = np.uint64(0x9E3779B97F4A7C15)


def q_value_mean_bootstrap_ci(sf_dir: str):
    """One-pass Poisson bootstrap of the mean event value — the
    web-scale resampling CI (each of B resamples weights every row by
    an independent Poisson(1) count, so no resample ever needs the
    whole dataset co-located): the per-(row, b) weight is DERIVED,
    not sampled — u = ((event_id·B + b + 1)·MIX64) mod 2⁶⁴ compared
    against hard-coded integer Poisson(1) CDF thresholds, so both
    engines hold identical integer weights (contract: event_id·B + b
    + 1 < 2⁶⁴, loud in the synthetic id domain).  Per batch: one
    (rows × B) uint64 mix + searchsorted, exact int64 (n_b, Σw·cents)
    partials, a 201-bounded driver fold; each bootstrap mean is one
    division of identical exact integers, and the 95% CI picks the
    rank-5 / rank-195 order statistics of the B means (LOWER
    convention) — elements both engines select identically.  Mean and
    CI 4dp-gated."""
    ds = read_table(sf_dir, "events", columns=["event_id", "value"])

    part_schema = pa.schema([("b", pa.int64()), ("n", pa.int64()),
                             ("s", pa.int64())])
    barr = np.arange(BOOT_B, dtype=np.uint64)[None, :] + np.uint64(1)

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        ids = t["event_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        cents = np.floor(_non_null_numpy(t, "value")
                         * 100).astype(np.int64)
        u = (ids[:, None] * np.uint64(BOOT_B) + barr) * _BOOT_MIX
        w = np.searchsorted(_POIS1_T, u, side="right").astype(np.int64)
        n_b = w.sum(axis=0)
        s_b = cents @ w
        return pa.table({
            "b": pa.array(np.r_[np.arange(BOOT_B, dtype=np.int64),
                                BOOT_B]),
            "n": pa.array(np.r_[n_b, t.num_rows]),
            "s": pa.array(np.r_[s_b, int(cents.sum())]),
        })

    acc_n = np.zeros(BOOT_B + 1, dtype=np.int64)
    acc_s = np.zeros(BOOT_B + 1, dtype=np.int64)
    for r in ds.map_batches(partial, batch_size=8192,
                            batch_format="pyarrow").take_all():
        acc_n[r["b"]] += r["n"]
        acc_s[r["b"]] += r["s"]
    if acc_n[BOOT_B] == 0 or (acc_n[:BOOT_B] == 0).any():
        raise ValueError("value_mean_bootstrap_ci: empty log or an "
                         "empty bootstrap resample")
    means = acc_s[:BOOT_B].astype(np.float64) \
        / acc_n[:BOOT_B].astype(np.float64) / 100.0
    means.sort()
    mean = float(acc_s[BOOT_B]) / float(acc_n[BOOT_B]) / 100.0
    return pa.table({
        "mean": pa.array(_r4(np.array([mean]))),
        "ci_lo": pa.array(_r4(np.array([means[4]]))),
        "ci_hi": pa.array(_r4(np.array([means[194]]))),
        "n_boot": pa.array([BOOT_B], pa.int64()),
    })


QUERIES["value_mean_bootstrap_ci"] = q_value_mean_bootstrap_ci

_BOOT_W_SQL = " + ".join(
    f"(CASE WHEN h >= {int(t)}::UHUGEINT THEN 1 ELSE 0 END)"
    for t in _POIS1_T)

ORACLE_SQL["value_mean_bootstrap_ci"] = f"""
WITH e AS (SELECT event_id, floor(value * 100)::BIGINT AS cents
           FROM events),
r AS (SELECT e.event_id, e.cents, g.b
      FROM e CROSS JOIN
           (SELECT unnest(generate_series(0, {BOOT_B - 1})) AS b) g),
u AS (SELECT cents, b,
             ((event_id::UHUGEINT * {BOOT_B} + b + 1) * {_MIX64})
               % {_M64} AS h
      FROM r),
w AS (SELECT cents, b, ({_BOOT_W_SQL})::BIGINT AS w FROM u),
agg AS (SELECT b, sum(w)::BIGINT AS n,
               sum(w * cents)::BIGINT AS s
        FROM w GROUP BY b),
m AS (SELECT s::DOUBLE / n::DOUBLE / 100.0 AS m FROM agg),
o AS (SELECT m, row_number() OVER (ORDER BY m) AS rn FROM m),
g2 AS (SELECT sum(cents)::BIGINT AS s, count(*)::BIGINT AS n FROM e)
SELECT {_R4.format(expr='(g2.s::DOUBLE / g2.n::DOUBLE / 100.0)')}
         AS mean,
       {_R4.format(expr='(SELECT m FROM o WHERE rn = 5)')} AS ci_lo,
       {_R4.format(expr='(SELECT m FROM o WHERE rn = 195)')} AS ci_hi,
       {BOOT_B}::BIGINT AS n_boot
FROM g2
"""


def q_als_one_step(sf_dir: str):
    """One ALS alternation at k=1 over the implicit (user ×
    event_type) rating matrix r_ui = Σ value — the
    matrix-factorization TRAINING step (complementing the serving-side
    item-CF family): item factors start at v=1, the closed-form user
    step u_u = (Σ_i r_ui)/(n_u + λ) and item step v_i = Σ_u r_ui·u_u /
    (Σ_u u_u² + λ) with λ=1.  Scale shape: ONE (user, item)-keyed
    grouped sum builds the rating matrix (the only data-sized
    exchange), the user step is a user-keyed grouped sum over it,
    factors flow back through one user-keyed sort-merge join, and the
    item step is an item-domain-bounded grouped sum of per-batch
    float partials.  Every u_u is one division of identical exact
    integers; the item-step float sums are 4dp-gated."""
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.join import sort_merge_join

    ds = read_table(sf_dir, "events", columns=["user_id", "event_type", "value"])

    prep_schema = pa.schema([("user_id", pa.int64()),
                             ("event_type", pa.string()),
                             ("cents", pa.int64())])

    def prep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return prep_schema.empty_table()
        return pa.table({
            "user_id": t["user_id"],
            "event_type": t["event_type"],
            "cents": pa.array(np.floor(
                _non_null_numpy(t, "value") * 100)
                .astype(np.int64))})

    ui = sorted_groupby_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["user_id", "event_type"], [("cents", "sum", "s")],
        in_schema=prep_schema)

    uu = sorted_groupby_agg(
        ui, ["user_id"], [("s", "sum", "su"), ("s", "count", "nu")])

    def ufac(t: pa.Table) -> pa.Table:
        sch = pa.schema([("user_id", pa.int64()), ("u", pa.float64())])
        if t.num_rows == 0 or "su" not in t.column_names:
            return sch.empty_table()
        su = t["su"].to_numpy(zero_copy_only=False).astype(np.float64)
        nu = t["nu"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({"user_id": t["user_id"],
                         "u": pa.array((su / 100.0) / (nu + 1.0))})

    uf = uu.map_batches(ufac, batch_format="pyarrow")
    joined = sort_merge_join(ui, uf, "user_id")

    item_schema = pa.schema([("event_type", pa.string()),
                             ("num", pa.float64()),
                             ("den", pa.float64()),
                             ("n", pa.int64())])

    def item_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "event_type" not in t.column_names:
            return item_schema.empty_table()
        it = t["event_type"]
        it = it.combine_chunks() if isinstance(it, pa.ChunkedArray) \
            else it
        d = it.dictionary_encode()
        codes = _codes(d)
        card = len(d.dictionary)
        s = t["s"].to_numpy(zero_copy_only=False).astype(np.float64)
        u = t["u"].to_numpy(zero_copy_only=False)
        num = np.bincount(codes, weights=(s / 100.0) * u,
                          minlength=card)
        den = np.bincount(codes, weights=u * u, minlength=card)
        n = np.bincount(codes, minlength=card).astype(np.int64)
        return pa.table({"event_type": d.dictionary.cast(pa.string()),
                         "num": pa.array(num), "den": pa.array(den),
                         "n": pa.array(n)})

    items = sorted_groupby_agg(
        joined.map_batches(item_partial, batch_format="pyarrow"),
        ["event_type"],
        [("num", "sum", "num"), ("den", "sum", "den"),
         ("n", "sum", "n_users")],
        in_schema=item_schema)

    def fin(t: pa.Table) -> pa.Table:
        sch = pa.schema([("event_type", pa.string()),
                         ("n_users", pa.int64()),
                         ("v", pa.float64())])
        if t.num_rows == 0 or "num" not in t.column_names:
            return sch.empty_table()
        num = t["num"].to_numpy(zero_copy_only=False)
        den = t["den"].to_numpy(zero_copy_only=False)
        return pa.table({
            "event_type": t["event_type"],
            "n_users": t["n_users"].cast(pa.int64()),
            "v": pa.array(_r4(num / (den + 1.0)))})

    return items.map_batches(fin, batch_format="pyarrow")


QUERIES["als_one_step"] = q_als_one_step

ORACLE_SQL["als_one_step"] = f"""
WITH ui AS (SELECT user_id, event_type,
                   sum(floor(value * 100)::BIGINT)::BIGINT AS s
            FROM events GROUP BY 1, 2),
uu AS (SELECT user_id, sum(s)::BIGINT AS su, count(*)::BIGINT AS nu
       FROM ui GROUP BY 1),
uf AS (SELECT user_id, (su::DOUBLE / 100.0) / (nu + 1)::DOUBLE AS u
       FROM uu),
vi AS (SELECT ui.event_type,
              sum((ui.s::DOUBLE / 100.0) * uf.u) AS num,
              sum(uf.u * uf.u) AS den,
              count(*)::BIGINT AS n_users
       FROM ui JOIN uf USING (user_id) GROUP BY 1)
SELECT event_type, n_users,
       {_R4.format(expr='(num / (den + 1.0))')} AS v
FROM vi
"""


# ---------------------------------------------------------------------
# Wave 17 — IR evaluation tier: MRR + NDCG@10 of the BM25 ranking
# against deterministic relevance (graded = #distinct query terms in
# the doc; binary-relevant = contains ALL query terms).
# ---------------------------------------------------------------------

NDCG_K = 10
# "dup" is the one genuinely rare vocabulary term (~25 docs at every
# sf) — with two common terms it makes the top-10 mix relevance
# grades instead of saturating at rel=3
EVAL_TERMS = ["dup", "spark", "merge"]


def q_bm25_eval(sf_dir: str):
    """Ranking-quality evaluation of the engine's own BM25 ordering —
    the search-tier scorecard: relevance is DETERMINISTIC (graded
    rel_d = number of distinct EVAL_TERMS the doc contains, checked
    against the index postings; binary-relevant = all three), the
    ranking is the full 4dp-rounded BM25 order (score desc, doc_id
    asc — the exact-tie convention every ranked query here pins).
    MRR = 1/rank of the first binary-relevant doc; DCG@10 =
    Σ (2^rel − 1)/log2(rank+1) over the top 10; IDCG@10 = the same
    sum over relevance grades sorted descending (every graded doc is
    in the ranking, since any doc matching ≥1 query term is scored);
    NDCG = DCG/IDCG.  Ranks and grades are exact integers; the ≤10-
    term float sums are 4dp-gated."""
    s = _searcher(sf_dir)
    ids, sc = s.search_bm25(EVAL_TERMS, None, prune=False)
    if len(ids) == 0:
        raise ValueError("bm25_eval: empty ranking")
    r = _r4(sc)
    order = np.lexsort((np.asarray(ids), -r))
    ranked = np.asarray(ids, dtype=np.int64)[order]

    grade = np.zeros(len(ranked), dtype=np.int64)
    for term in EVAL_TERMS:
        p = s.postings(term)
        if p is not None:
            grade += np.isin(ranked, p[0]).astype(np.int64)
    relevant = grade == len(EVAL_TERMS)
    if not relevant.any() or not (grade > 0).any():
        raise ValueError("bm25_eval: no relevant docs")
    best_rank = int(np.flatnonzero(relevant)[0]) + 1
    mrr = 1.0 / best_rank

    k = min(NDCG_K, len(ranked))
    ranks = np.arange(1, k + 1, dtype=np.float64)
    dcg = float(np.sum((np.exp2(grade[:k].astype(np.float64)) - 1.0)
                       / np.log2(ranks + 1.0)))
    ideal = np.sort(grade)[::-1][:k].astype(np.float64)
    idcg = float(np.sum((np.exp2(ideal) - 1.0)
                        / np.log2(ranks[:len(ideal)] + 1.0)))
    return pa.table({
        "n_ranked": pa.array([len(ranked)], pa.int64()),
        "n_relevant": pa.array([int(relevant.sum())], pa.int64()),
        "best_rank": pa.array([best_rank], pa.int64()),
        "mrr": pa.array(_r4(np.array([mrr]))),
        "ndcg10": pa.array(_r4(np.array([dcg / idcg]))),
    })


QUERIES["bm25_eval"] = q_bm25_eval

_BM25_EVAL_REL = " + ".join(
    f"(CASE WHEN list_contains(terms, '{t}') THEN 1 ELSE 0 END)"
    for t in EVAL_TERMS)
_BM25_EVAL_ALLREL = " AND ".join(
    f"list_contains(terms, '{t}')" for t in EVAL_TERMS)

ORACLE_SQL["bm25_eval"] = f"""
WITH {_BASE_CTE},
w AS ({_bm25_sql(EVAL_TERMS, None)}),
r AS (SELECT doc_id,
             row_number() OVER (ORDER BY score DESC, doc_id) AS rnk
      FROM w),
g AS (SELECT doc_id, ({_BM25_EVAL_REL})::BIGINT AS rel FROM base),
rel AS (SELECT doc_id FROM base WHERE {_BM25_EVAL_ALLREL}),
first AS (SELECT min(rnk)::BIGINT AS best_rank
          FROM r JOIN rel USING (doc_id)),
dcg AS (SELECT sum((pow(2.0, g.rel) - 1.0)
                   / log2(r.rnk::DOUBLE + 1.0)) AS v
        FROM r JOIN g USING (doc_id) WHERE r.rnk <= {NDCG_K}),
ideal AS (SELECT rel, row_number() OVER (ORDER BY rel DESC) AS i
          FROM g WHERE rel > 0),
idcg AS (SELECT sum((pow(2.0, rel) - 1.0)
                    / log2(i::DOUBLE + 1.0)) AS v
         FROM ideal WHERE i <= {NDCG_K})
SELECT (SELECT count(*) FROM r)::BIGINT AS n_ranked,
       (SELECT count(*) FROM rel)::BIGINT AS n_relevant,
       first.best_rank,
       {_R4.format(expr='(1.0 / first.best_rank::DOUBLE)')} AS mrr,
       {_R4.format(expr='((SELECT v FROM dcg) / (SELECT v FROM idcg))')}
         AS ndcg10
FROM first
"""


# ---------------------------------------------------------------------
# Wave 18 — randomization inference (deterministic Monte-Carlo
# permutation test) and exact grouped mode with a pinned tiebreak.
# ---------------------------------------------------------------------

PERM_B = 200
_COIN_T = np.uint64(1) << np.uint64(63)  # fair coin: u >= 2^63


def q_weekend_value_perm_test(sf_dir: str):
    """Randomization test of the weekend-vs-weekday value difference —
    the assumption-free companion to `weekend_value_ttest`: the
    observed statistic is |mean_weekend − mean_weekday|, and the null
    distribution is PERM_B Monte-Carlo reassignments where each row
    joins pseudo-group 1 on a fair coin DERIVED from the row id —
    u = ((event_id·B + b + 1)·MIX64) mod 2⁶⁴, group = [u ≥ 2⁶³] —
    so both engines hold identical integer group assignments (same
    derived-randomness contract as `value_mean_bootstrap_ci`).  Per
    batch: one (rows × B) uint64 mix, exact int64 (n₁, Σcoin·cents)
    partials plus the observed weekend/weekday moments, a
    201-bounded driver fold; every permuted mean is one division of
    identical exact integers, and p = (1 + #{b : stat_b ≥ obs}) /
    (B + 1) compares identical doubles.  obs/p 4dp-gated, the
    extreme-count exact."""
    ds = read_table(sf_dir, "events", columns=["event_id", "ts", "value"])

    part_schema = pa.schema([("b", pa.int64()), ("n", pa.int64()),
                             ("s", pa.int64())])
    barr = np.arange(PERM_B, dtype=np.uint64)[None, :] + np.uint64(1)

    # fold lanes: 0..B-1 = coin-group-1 partials; B = batch totals;
    # B+1 = observed weekend partials
    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        ids = t["event_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        us = _ts_int64(t, "ts")
        wk = ((us // 86_400_000_000 + 4) % 7 >= 5)
        cents = np.floor(_non_null_numpy(t, "value")
                         * 100).astype(np.int64)
        u = (ids[:, None] * np.uint64(PERM_B) + barr) * _BOOT_MIX
        coin = (u >= _COIN_T).astype(np.int64)
        return pa.table({
            "b": pa.array(np.r_[np.arange(PERM_B, dtype=np.int64),
                                PERM_B, PERM_B + 1]),
            "n": pa.array(np.r_[coin.sum(axis=0), t.num_rows,
                                int(wk.sum())]),
            "s": pa.array(np.r_[cents @ coin, int(cents.sum()),
                                int(cents[wk].sum())]),
        })

    acc_n = np.zeros(PERM_B + 2, dtype=np.int64)
    acc_s = np.zeros(PERM_B + 2, dtype=np.int64)
    for r in ds.map_batches(partial, batch_size=8192,
                            batch_format="pyarrow").take_all():
        acc_n[r["b"]] += r["n"]
        acc_s[r["b"]] += r["s"]
    n_tot, s_tot = acc_n[PERM_B], acc_s[PERM_B]
    n_wk, s_wk = acc_n[PERM_B + 1], acc_s[PERM_B + 1]
    if n_wk == 0 or n_wk == n_tot:
        raise ValueError("weekend_value_perm_test: a group is empty")
    n1 = acc_n[:PERM_B]
    if ((n1 == 0) | (n1 == n_tot)).any():
        raise ValueError("weekend_value_perm_test: a permuted group "
                         "is empty")
    s1 = acc_s[:PERM_B]

    def stat(sa, na, sb, nb):
        return np.abs(sa.astype(np.float64) / na.astype(np.float64)
                      / 100.0
                      - sb.astype(np.float64) / nb.astype(np.float64)
                      / 100.0)

    obs = float(stat(np.array([s_wk]), np.array([n_wk]),
                     np.array([s_tot - s_wk]),
                     np.array([n_tot - n_wk]))[0])
    stats = stat(s1, n1, s_tot - s1, n_tot - n1)
    n_extreme = int((stats >= obs).sum())
    p = (1.0 + n_extreme) / (PERM_B + 1.0)
    return pa.table({
        "stat_obs": pa.array(_r4(np.array([obs]))),
        "n_extreme": pa.array([n_extreme], pa.int64()),
        "p_value": pa.array(_r4(np.array([p]))),
        "n_perm": pa.array([PERM_B], pa.int64()),
    })


QUERIES["weekend_value_perm_test"] = q_weekend_value_perm_test

ORACLE_SQL["weekend_value_perm_test"] = f"""
WITH e AS (SELECT event_id,
                  ((epoch_us(ts) // 86400000000 + 4) % 7 >= 5) AS wk,
                  floor(value * 100)::BIGINT AS cents
           FROM events),
tot AS (SELECT count(*)::BIGINT AS n, sum(cents)::BIGINT AS s,
               sum(CASE WHEN wk THEN 1 ELSE 0 END)::BIGINT AS n_wk,
               sum(CASE WHEN wk THEN cents ELSE 0 END)::BIGINT AS s_wk
        FROM e),
obs AS (SELECT abs(s_wk::DOUBLE / n_wk::DOUBLE / 100.0
                   - (s - s_wk)::DOUBLE / (n - n_wk)::DOUBLE / 100.0)
               AS v
        FROM tot),
r AS (SELECT e.event_id, e.cents, g.b
      FROM e CROSS JOIN
           (SELECT unnest(generate_series(0, {PERM_B - 1})) AS b) g),
c AS (SELECT cents, b,
             (CASE WHEN ((event_id::UHUGEINT * {PERM_B} + b + 1)
                         * {_MIX64}) % {_M64}
                        >= 9223372036854775808::UHUGEINT
                   THEN 1 ELSE 0 END) AS coin
      FROM r),
agg AS (SELECT b, sum(coin)::BIGINT AS n1,
               sum(coin * cents)::BIGINT AS s1
        FROM c GROUP BY b),
st AS (SELECT abs(a.s1::DOUBLE / a.n1::DOUBLE / 100.0
                  - (t.s - a.s1)::DOUBLE / (t.n - a.n1)::DOUBLE
                    / 100.0) AS v
       FROM agg a CROSS JOIN tot t),
ex AS (SELECT count(*)::BIGINT AS k FROM st
       WHERE v >= (SELECT v FROM obs))
SELECT {_R4.format(expr='(SELECT v FROM obs)')} AS stat_obs,
       ex.k AS n_extreme,
       {_R4.format(expr='((1.0 + ex.k) / (' + str(PERM_B) + ' + 1.0))')}
         AS p_value,
       {PERM_B}::BIGINT AS n_perm
FROM ex
"""


def q_value_mode_per_type(sf_dir: str):
    """Exact grouped MODE with a pinned tiebreak — SQL's mode() leaves
    equal-frequency ties unspecified, so both engines rank (count
    desc, cents asc) explicitly: ONE (event_type × cents)-bounded
    grouped count, then the existing per-group top-1 rank sweep
    (`topk_per_group`, cents as the ascending tiebreak)."""
    from ..stages.aggregates import sorted_groupby_agg, topk_per_group

    ds = read_table(sf_dir, "events", columns=["event_type", "value"])

    part_schema = pa.schema([("event_type", pa.string()),
                             ("cents", pa.int64()),
                             ("one", pa.int64())])

    def prep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        return pa.table({
            "event_type": t["event_type"],
            "cents": pa.array(np.floor(
                _non_null_numpy(t, "value") * 100)
                .astype(np.int64)),
            "one": pa.array(np.ones(t.num_rows, np.int64))})

    counts = sorted_groupby_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["event_type", "cents"], [("one", "sum", "cnt")],
        in_schema=part_schema)

    top = topk_per_group(
        counts, ["event_type"], "cnt", 1, descending=True,
        tiebreak="cents",
        in_schema=pa.schema([("event_type", pa.string()),
                             ("cents", pa.int64()),
                             ("cnt", pa.int64())]))

    def fin(t: pa.Table) -> pa.Table:
        sch = pa.schema([("event_type", pa.string()),
                         ("mode_value", pa.float64()),
                         ("n", pa.int64())])
        if t.num_rows == 0 or "cents" not in t.column_names:
            return sch.empty_table()
        c = t["cents"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        return pa.table({"event_type": t["event_type"],
                         "mode_value": pa.array(_r4(c / 100.0)),
                         "n": t["cnt"].cast(pa.int64())})

    return top.map_batches(fin, batch_format="pyarrow")


QUERIES["value_mode_per_type"] = q_value_mode_per_type

ORACLE_SQL["value_mode_per_type"] = f"""
WITH c AS (SELECT event_type, floor(value * 100)::BIGINT AS cents,
                  count(*)::BIGINT AS cnt
           FROM events GROUP BY 1, 2),
r AS (SELECT event_type, cents, cnt,
             row_number() OVER (PARTITION BY event_type
                                ORDER BY cnt DESC, cents) AS rn
      FROM c)
SELECT event_type,
       {_R4.format(expr='(cents::DOUBLE / 100.0)')} AS mode_value,
       cnt AS n
FROM r WHERE rn = 1
"""


# ---------------------------------------------------------------------
# Wave 19 — TPC-H Q5 proper: the 6-table local-supplier-volume join
# with exact-integer revenue.
# ---------------------------------------------------------------------

Q5_REGION = "ASIA"


def q_local_supplier_volume(sf_dir: str):
    """TPC-H Q5 (local supplier volume), the 6-table join benchmark
    shape: lineitem ⨝ orders ⨝ customer ⨝ supplier with the
    LOCAL-supplier constraint c_nationkey = s_nationkey, restricted
    to {Q5_REGION} via the broadcast nation⨝region lookup (30 rows,
    `ray.put` once), grouped revenue per nation.  Three data-sized
    sort-merge joins are the exchanges; revenue is carried as EXACT
    int64 micros — price-cents × (100 − discount-pct), both
    half-up-rounded integers — so the grouped sum is
    association-free and the single final division is 4dp-gated."""
    import pyarrow.parquet as pq

    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.join import sort_merge_join

    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_suppkey",
                                                 "l_extendedprice", "l_discount"])
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    supp = read_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])

    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
    region = pq.read_table(os.path.join(sf_dir, "region.parquet"))
    rkeys = {r["r_regionkey"] for r in region.to_pylist()
             if r["r_name"] == Q5_REGION}
    nmap = {r["n_nationkey"]: r["n_name"] for r in nation.to_pylist()
            if r["n_regionkey"] in rkeys}

    li_schema = pa.schema([("l_orderkey", pa.int64()),
                           ("l_suppkey", pa.int64()),
                           ("micros", pa.int64())])

    def prep_li(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return li_schema.empty_table()
        pc_ = np.floor(_non_null_numpy(t, "l_extendedprice") * 100 + 0.5).astype(np.int64)
        dp = np.floor(_non_null_numpy(t, "l_discount") * 100 + 0.5).astype(np.int64)
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "l_suppkey": t["l_suppkey"],
                         "micros": pa.array(pc_ * (100 - dp))})

    j1 = sort_merge_join(li.map_batches(prep_li, batch_format="pyarrow"),
                         orders, "l_orderkey", "o_orderkey",
                         left_schema=li_schema, partitions=8)
    j1_schema = pa.schema([("l_orderkey", pa.int64()),
                           ("l_suppkey", pa.int64()),
                           ("micros", pa.int64()),
                           ("o_custkey", pa.int64())])
    j2 = sort_merge_join(j1, cust, "o_custkey", "c_custkey",
                         left_schema=j1_schema, partitions=8)
    j2_schema = pa.schema(list(j1_schema)
                          + [pa.field("c_nationkey", pa.int64())])
    j3 = sort_merge_join(j2, supp, "l_suppkey", "s_suppkey",
                         left_schema=j2_schema, partitions=8)

    part_schema = pa.schema([("n_name", pa.string()),
                             ("micros", pa.int64()),
                             ("one", pa.int64())])

    def local_asia(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "c_nationkey" not in t.column_names:
            return part_schema.empty_table()
        cn = t["c_nationkey"].to_numpy(zero_copy_only=False)
        sn = t["s_nationkey"].to_numpy(zero_copy_only=False)
        keep = (cn == sn) & np.isin(sn, list(nmap))
        if not keep.any():
            return part_schema.empty_table()
        names = [nmap[int(k)] for k in sn[keep]]
        return pa.table({
            "n_name": pa.array(names, pa.string()),
            "micros": pa.array(t["micros"].to_numpy(
                zero_copy_only=False)[keep]),
            "one": pa.array(np.ones(int(keep.sum()), np.int64))})

    agg = sorted_groupby_agg(
        j3.map_batches(local_asia, batch_format="pyarrow"),
        ["n_name"], [("one", "sum", "n_items"),
                     ("micros", "sum", "micros")],
        in_schema=part_schema)

    def fin(t: pa.Table) -> pa.Table:
        sch = pa.schema([("n_name", pa.string()),
                         ("n_items", pa.int64()),
                         ("revenue", pa.float64())])
        if t.num_rows == 0 or "micros" not in t.column_names:
            return sch.empty_table()
        m = t["micros"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        return pa.table({"n_name": t["n_name"],
                         "n_items": t["n_items"].cast(pa.int64()),
                         "revenue": pa.array(_r4(m / 10000.0))})

    return agg.map_batches(fin, batch_format="pyarrow")


QUERIES["local_supplier_volume"] = q_local_supplier_volume

ORACLE_SQL["local_supplier_volume"] = f"""
SELECT n_name, count(*)::BIGINT AS n_items,
       {_R4.format(expr="(sum(floor(l_extendedprice * 100 + 0.5)::BIGINT"
                        " * (100 - floor(l_discount * 100 + 0.5)::BIGINT)"
                        ")::DOUBLE / 10000.0)")} AS revenue
FROM lineitem
JOIN orders   ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation   ON s_nationkey = n_nationkey
JOIN region   ON n_regionkey = r_regionkey
WHERE c_nationkey = s_nationkey AND r_name = '{Q5_REGION}'
GROUP BY n_name
"""


# ---------------------------------------------------------------------
# Wave 20 — lagged cross-correlation between two event types' daily
# revenue series, and two-regressor OLS via exact integer moments.
# ---------------------------------------------------------------------

XCORR_X_TYPE = "click"
XCORR_Y_TYPE = "purchase"
XCORR_MAX_LAG = 3


def q_daily_type_crosscorr(sf_dir: str):
    """Lagged cross-correlation between the daily revenue series of
    two event types — the does-X-lead-Y screen: r(lag) =
    corr(click_t, purchase_{t+lag}) for lag 0..3 over the log's full
    day range (missing days fill 0 — a day with no events of the type
    contributed nothing).  ONE (day × type)-bounded grouped cents sum
    is the only corpus-sized work; every Pearson moment is an exact
    Python int (days-bounded fold), the oracle carries them as
    HUGEINT, and r is the identical num/√(dx·dy) expression on both
    sides, 4dp-gated."""
    ds = read_table(sf_dir, "events", columns=["ts", "event_type", "value"])

    part_schema = pa.schema([("day", pa.int64()), ("g", pa.int64()),
                             ("s", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        us = _ts_int64(t, "ts")
        day = us // 86_400_000_000
        et = t["event_type"].to_numpy(zero_copy_only=False)
        cents = np.floor(_non_null_numpy(t, "value")
                         * 100).astype(np.int64)
        rows = {"day": [], "g": [], "s": []}
        for g, name in ((0, XCORR_X_TYPE), (1, XCORR_Y_TYPE)):
            m = et == name
            if m.any():
                d = day[m]
                lo = int(d.min())
                cnt = np.bincount(d - lo, weights=cents[m]) \
                    .astype(np.int64)
                nz = np.flatnonzero(cnt)
                rows["day"] += (nz + lo).tolist()
                rows["g"] += [g] * len(nz)
                rows["s"] += cnt[nz].tolist()
        # always carry the batch's day range so zero-revenue days at
        # the log edges can't shift the fill-0 day grid
        dlo, dhi = int(day.min()), int(day.max())
        rows["day"] += [dlo, dhi]
        rows["g"] += [2, 2]
        rows["s"] += [0, 0]
        return pa.table({k: pa.array(v, pa.int64())
                         for k, v in rows.items()})

    acc: dict[tuple[int, int], int] = {}
    lo = hi = None
    for r in ds.map_batches(partial,
                            batch_format="pyarrow").take_all():
        d, g, sv = r["day"], r["g"], r["s"]
        lo = d if lo is None else min(lo, d)
        hi = d if hi is None else max(hi, d)
        if g < 2:
            acc[(d, g)] = acc.get((d, g), 0) + sv
    if lo is None:
        raise ValueError("daily_type_crosscorr: empty log")
    days = hi - lo + 1
    x = [0] * days
    y = [0] * days
    for (d, g), sv in acc.items():
        (x if g == 0 else y)[d - lo] += sv
    out_lag, out_n, out_r = [], [], []
    for lag in range(XCORR_MAX_LAG + 1):
        xs = x[:days - lag]
        ys = y[lag:]
        n = len(xs)
        if n < 3:
            raise ValueError("daily_type_crosscorr: too few days")
        sx, sy = sum(xs), sum(ys)
        sxx = sum(v * v for v in xs)
        syy = sum(v * v for v in ys)
        sxy = sum(a * b for a, b in zip(xs, ys))
        num = n * sxy - sx * sy
        dx = n * sxx - sx * sx
        dy = n * syy - sy * sy
        if dx == 0 or dy == 0:
            raise ValueError("daily_type_crosscorr: zero variance")
        out_lag.append(lag)
        out_n.append(n)
        out_r.append(float(num) / np.sqrt(float(dx) * float(dy)))
    return pa.table({
        "lag": pa.array(out_lag, pa.int64()),
        "n_days": pa.array(out_n, pa.int64()),
        "r": pa.array(_r4(np.array(out_r))),
    })


QUERIES["daily_type_crosscorr"] = q_daily_type_crosscorr

ORACLE_SQL["daily_type_crosscorr"] = f"""
WITH e AS (SELECT epoch_us(ts) // 86400000000 AS day, event_type,
                  floor(value * 100)::BIGINT AS cents
           FROM events),
sp AS (SELECT min(day)::BIGINT AS lo, max(day)::BIGINT AS hi FROM e),
grid AS (SELECT unnest(generate_series((SELECT lo FROM sp),
                                       (SELECT hi FROM sp))) AS day),
xs AS (SELECT g.day, coalesce(s.s, 0)::BIGINT AS x
       FROM grid g LEFT JOIN
            (SELECT day, sum(cents)::BIGINT AS s FROM e
             WHERE event_type = '{XCORR_X_TYPE}' GROUP BY 1) s
            USING (day)),
ys AS (SELECT g.day, coalesce(s.s, 0)::BIGINT AS y
       FROM grid g LEFT JOIN
            (SELECT day, sum(cents)::BIGINT AS s FROM e
             WHERE event_type = '{XCORR_Y_TYPE}' GROUP BY 1) s
            USING (day)),
lags AS (SELECT unnest(generate_series(0, {XCORR_MAX_LAG})) AS lag),
p AS (SELECT l.lag, xs.x, ys.y
      FROM lags l
      JOIN xs ON TRUE
      JOIN ys ON ys.day = xs.day + l.lag),
m AS (SELECT lag, count(*)::BIGINT AS n,
             sum(x)::HUGEINT AS sx, sum(y)::HUGEINT AS sy,
             sum(x::HUGEINT * x)::HUGEINT AS sxx,
             sum(y::HUGEINT * y)::HUGEINT AS syy,
             sum(x::HUGEINT * y)::HUGEINT AS sxy
      FROM p GROUP BY lag)
SELECT lag, n AS n_days,
       {_R4.format(expr="((n * sxy - sx * sy)::DOUBLE"
                        " / sqrt((n * sxx - sx * sx)::DOUBLE"
                        " * (n * syy - sy * sy)::DOUBLE))")} AS r
FROM m ORDER BY lag
"""


def q_value_ols_2reg(sf_dir: str):
    """Two-regressor OLS — value ~ hour-of-day + weekend — solved in
    closed form from EXACT integer moments (n, Σx₁, Σx₂, Σy, Σx₁²,
    Σx₂², Σx₁x₂, Σx₁y, Σx₂y; x₁ = UTC hour 0–23, x₂ = weekend 0/1,
    y = cents — nine int64-safe scalar partials, driver-folded into
    Python ints so the normal-equation determinants never overflow;
    the oracle carries them as HUGEINT).  Slopes are single divisions
    of identical exact integers; the intercept mirrors the oracle's
    float expression order term-for-term; all three 4dp-gated."""
    ds = read_table(sf_dir, "events", columns=["ts", "value"])

    names = ["n", "sx1", "sx2", "sy", "sx11", "sx22", "sx12",
             "sx1y", "sx2y"]
    part_schema = pa.schema([("i", pa.int64()), ("v", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        us = _ts_int64(t, "ts")
        x1 = (us // 3_600_000_000) % 24
        x2 = ((us // 86_400_000_000 + 4) % 7 >= 5).astype(np.int64)
        y = np.floor(_non_null_numpy(t, "value")
                     * 100).astype(np.int64)
        vals = [t.num_rows, int(x1.sum()), int(x2.sum()),
                int(y.sum()), int((x1 * x1).sum()), int(x2.sum()),
                int((x1 * x2).sum()), int((x1 * y).sum()),
                int((x2 * y).sum())]
        return pa.table({"i": pa.array(np.arange(9, dtype=np.int64)),
                         "v": pa.array(vals, pa.int64())})

    acc = [0] * 9
    for r in ds.map_batches(partial,
                            batch_format="pyarrow").take_all():
        acc[r["i"]] += r["v"]
    mo = dict(zip(names, acc))
    n = mo["n"]
    if n < 3:
        raise ValueError("value_ols_2reg: too few rows")
    d11 = n * mo["sx11"] - mo["sx1"] * mo["sx1"]
    d22 = n * mo["sx22"] - mo["sx2"] * mo["sx2"]
    d12 = n * mo["sx12"] - mo["sx1"] * mo["sx2"]
    dy1 = n * mo["sx1y"] - mo["sx1"] * mo["sy"]
    dy2 = n * mo["sx2y"] - mo["sx2"] * mo["sy"]
    det = d11 * d22 - d12 * d12
    if det == 0:
        raise ValueError("value_ols_2reg: singular design")
    b1 = float(dy1 * d22 - dy2 * d12) / float(det)
    b2 = float(dy2 * d11 - dy1 * d12) / float(det)
    a = (float(mo["sy"]) - b1 * float(mo["sx1"])
         - b2 * float(mo["sx2"])) / float(n)
    return pa.table({
        "n": pa.array([n], pa.int64()),
        "intercept": pa.array(_r4(np.array([a / 100.0]))),
        "slope_hour": pa.array(_r4(np.array([b1 / 100.0]))),
        "slope_weekend": pa.array(_r4(np.array([b2 / 100.0]))),
    })


QUERIES["value_ols_2reg"] = q_value_ols_2reg

ORACLE_SQL["value_ols_2reg"] = f"""
WITH e AS (SELECT (epoch_us(ts) // 3600000000) % 24 AS x1,
                  CASE WHEN (epoch_us(ts) // 86400000000 + 4) % 7 >= 5
                       THEN 1 ELSE 0 END AS x2,
                  floor(value * 100)::BIGINT AS y
           FROM events),
m AS (SELECT count(*)::HUGEINT AS n,
             sum(x1)::HUGEINT AS sx1, sum(x2)::HUGEINT AS sx2,
             sum(y)::HUGEINT AS sy,
             sum(x1::HUGEINT * x1)::HUGEINT AS sx11,
             sum(x2)::HUGEINT AS sx22,
             sum(x1::HUGEINT * x2)::HUGEINT AS sx12,
             sum(x1::HUGEINT * y)::HUGEINT AS sx1y,
             sum(x2::HUGEINT * y)::HUGEINT AS sx2y
      FROM e),
d AS (SELECT n, sy, sx1, sx2,
             n * sx11 - sx1 * sx1 AS d11,
             n * sx22 - sx2 * sx2 AS d22,
             n * sx12 - sx1 * sx2 AS d12,
             n * sx1y - sx1 * sy AS dy1,
             n * sx2y - sx2 * sy AS dy2
      FROM m),
b AS (SELECT n, sy, sx1, sx2,
             (dy1 * d22 - dy2 * d12)::DOUBLE
               / (d11 * d22 - d12 * d12)::DOUBLE AS b1,
             (dy2 * d11 - dy1 * d12)::DOUBLE
               / (d11 * d22 - d12 * d12)::DOUBLE AS b2
      FROM d)
SELECT n::BIGINT AS n,
       {_R4.format(expr="(((sy::DOUBLE - b1 * sx1::DOUBLE"
                        " - b2 * sx2::DOUBLE) / n::DOUBLE) / 100.0)")}
         AS intercept,
       {_R4.format(expr='(b1 / 100.0)')} AS slope_hour,
       {_R4.format(expr='(b2 / 100.0)')} AS slope_weekend
FROM b
"""


# ---------------------------------------------------------------------------
# Wave 21 — data-quality / dominance / time-series / ML-training closers
# ---------------------------------------------------------------------------


def q_benford_value(sf_dir: str):
    """Benford first-significant-digit screen over positive value
    cents — the classic fraud / synthetic-data detector: observed
    count per leading digit 1–9 vs the Benford expectation
    n·log10(1+1/d), with the per-digit chi-square contribution.
    Digit extraction is EXACT integer repeated-division (the oracle's
    substring-of-decimal-cast selects the same digit); counts are a
    9-bounded bincount fold; expected and contribution are ONE shared
    float expression per cell (no cross-engine float summation
    anywhere), 4dp-gated."""
    import math

    ds = read_table(sf_dir, "events", columns=["value"])

    part_schema = pa.schema([("dig", pa.int64()), ("c", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        cents = np.floor(_non_null_numpy(t, "value")
                         * 100).astype(np.int64)
        d = cents[cents > 0]
        if len(d) == 0:
            return part_schema.empty_table()
        for _ in range(18):
            m = d >= 10
            if not m.any():
                break
            d[m] //= 10
        cnt = np.bincount(d, minlength=10).astype(np.int64)
        return pa.table({"dig": pa.array(np.arange(1, 10)),
                         "c": pa.array(cnt[1:])})

    obs = [0] * 9
    for r in ds.map_batches(partial,
                            batch_format="pyarrow").take_all():
        obs[r["dig"] - 1] += r["c"]
    n = sum(obs)
    if n == 0:
        raise ValueError("benford_value: no positive values")
    digs = list(range(1, 10))
    exp = [float(n) * math.log10(1.0 + 1.0 / d) for d in digs]
    chi = [(float(o) - e) * (float(o) - e) / e
           for o, e in zip(obs, exp)]
    return pa.table({
        "dig": pa.array(digs, pa.int64()),
        "obs": pa.array(obs, pa.int64()),
        "expected": pa.array(_r4(np.array(exp))),
        "chi2_part": pa.array(_r4(np.array(chi))),
    })


QUERIES["benford_value"] = q_benford_value

ORACLE_SQL["benford_value"] = f"""
WITH e AS (SELECT floor(value * 100)::BIGINT AS y FROM events
           WHERE floor(value * 100) >= 1),
d AS (SELECT CAST(substring(CAST(y AS VARCHAR), 1, 1) AS BIGINT)
             AS dig FROM e),
g AS (SELECT unnest(generate_series(1, 9)) AS dig),
c AS (SELECT g.dig, coalesce(o.c, 0)::BIGINT AS obs
      FROM g LEFT JOIN (SELECT dig, count(*)::BIGINT AS c FROM d
                        GROUP BY 1) o USING (dig)),
t AS (SELECT sum(obs)::BIGINT AS n FROM c),
x AS (SELECT dig, obs,
             n::DOUBLE * log10(1.0 + 1.0 / dig) AS exp
      FROM c, t)
SELECT dig, obs,
       {_R4.format(expr="exp")} AS expected,
       {_R4.format(expr="(obs::DOUBLE - exp) * (obs::DOUBLE - exp)"
                        " / exp")} AS chi2_part
FROM x ORDER BY dig
"""


def q_parts_skyline(sf_dir: str):
    """Skyline (Pareto-dominance) query over part — the cheapest-and-
    biggest frontier: a part survives iff no other part is at most as
    expensive AND at least as large with one strict.  Distributed
    plan: ONE price-cents-bounded grouped max of size (the price
    domain is bounded — TPC-H retail prices span ~1.2e5 distinct
    cents regardless of row count), a strict running-max sweep over
    the ordered price domain on the driver, then one broadcast-filter
    corpus pass fetching every part attaining a surviving
    (price, max-size) point — duplicates of a frontier point all
    survive (no strict dominance between identical points).  The
    ORACLE is an INDEPENDENT quadratic NOT EXISTS self-join, so the
    sweep is cross-validated against the naive dominance form.
    Price cents are half-up (floor(p·100 + 0.5)), replayed exactly
    both sides."""
    from ..stages.aggregates import sorted_groupby_agg

    ds = read_table(sf_dir, "part", columns=["p_partkey", "p_size", "p_retailprice"])

    prep_schema = pa.schema([("cents", pa.int64()),
                             ("size", pa.int64())])

    def prep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return prep_schema.empty_table()
        cents = np.floor(_non_null_numpy(t, "p_retailprice")
                         * 100 + 0.5).astype(np.int64)
        size = _non_null_numpy(t, "p_size").astype(np.int64)
        uk, inv = np.unique(cents, return_inverse=True)
        ms = np.zeros(len(uk), dtype=np.int64)
        np.maximum.at(ms, inv, size)
        return pa.table({"cents": pa.array(uk), "size": pa.array(ms)})

    per_price = sorted_groupby_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["cents"], [("size", "max", "size")], in_schema=prep_schema)

    # price-domain-bounded by contract (documented above)
    rows = sorted((r["cents"], r["size"])
                  for r in per_price.take_all())
    if not rows:
        raise ValueError("parts_skyline: empty part table")
    keep_price, keep_size, best = [], [], None
    for cents, ms in rows:
        if best is None or ms > best:
            keep_price.append(cents)
            keep_size.append(ms)
            best = ms
    kp = np.array(keep_price, dtype=np.int64)
    ks = np.array(keep_size, dtype=np.int64)

    out_schema = pa.schema([("p_partkey", pa.int64()),
                            ("cents", pa.int64()),
                            ("size", pa.int64())])

    def pick(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        cents = np.floor(_non_null_numpy(t, "p_retailprice")
                         * 100 + 0.5).astype(np.int64)
        size = _non_null_numpy(t, "p_size").astype(np.int64)
        pos = np.searchsorted(kp, cents)
        pos_c = np.minimum(pos, len(kp) - 1)
        m = (kp[pos_c] == cents) & (ks[pos_c] == size)
        return pa.table({
            "p_partkey": pa.array(
                _non_null_numpy(t, "p_partkey")
                .astype(np.int64)[m]),
            "cents": pa.array(cents[m]),
            "size": pa.array(size[m])})

    # frontier-sized by construction
    sky = sorted(
        (r["p_partkey"], r["cents"], r["size"])
        for r in ds.map_batches(pick,
                                batch_format="pyarrow").take_all())
    return pa.table({
        "p_partkey": pa.array([r[0] for r in sky], pa.int64()),
        "cents": pa.array([r[1] for r in sky], pa.int64()),
        "size": pa.array([r[2] for r in sky], pa.int64()),
    })


QUERIES["parts_skyline"] = q_parts_skyline

ORACLE_SQL["parts_skyline"] = """
WITH p AS (SELECT p_partkey,
                  floor(p_retailprice * 100 + 0.5)::BIGINT AS cents,
                  p_size::BIGINT AS size
           FROM part)
SELECT p_partkey, cents, size FROM p q
WHERE NOT EXISTS (
  SELECT 1 FROM p o
  WHERE o.cents <= q.cents AND o.size >= q.size
    AND (o.cents < q.cents OR o.size > q.size))
ORDER BY p_partkey
"""


ACF_MAX_LAG = 7


def q_daily_acf(sf_dir: str):
    """Autocorrelation function of the daily revenue series at lags
    1..7 — the weekly-seasonality diagnostic: the standard common-mean
    ACF estimator r_k = Σ(x_t−x̄)(x_{t+k}−x̄) / Σ(x_t−x̄)² over the
    log's full day grid (missing days fill 0).  Multiplying through
    by n² makes every term exact: num_k = Σ(n·x_t−S)(n·x_{t+k}−S),
    den = Σ(n·x_t−S)² with S = Σx — Python ints on the engine side,
    HUGEINT on the oracle side, and r_k is ONE division of identical
    exact integers, 4dp-gated.  ONE day-bounded grouped cents sum is
    the only corpus-sized work; every batch carries its day range so
    zero-revenue edge days cannot shift the fill-0 grid (the
    daily_type_crosscorr contract)."""
    ds = read_table(sf_dir, "events", columns=["ts", "value"])

    part_schema = pa.schema([("day", pa.int64()), ("s", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        us = _ts_int64(t, "ts")
        day = us // 86_400_000_000
        cents = np.floor(_non_null_numpy(t, "value")
                         * 100).astype(np.int64)
        lo = int(day.min())
        cnt = np.bincount(day - lo, weights=cents).astype(np.int64)
        nz = np.flatnonzero(cnt)
        days = (nz + lo).tolist()
        sums = cnt[nz].tolist()
        # carry the batch's day range (fill-0 grid edges)
        for edge in (lo, int(day.max())):
            days.append(edge)
            sums.append(0)
        return pa.table({"day": pa.array(days, pa.int64()),
                         "s": pa.array(sums, pa.int64())})

    acc: dict[int, int] = {}
    lo = hi = None
    for r in ds.map_batches(partial,
                            batch_format="pyarrow").take_all():
        d, sv = r["day"], r["s"]
        lo = d if lo is None else min(lo, d)
        hi = d if hi is None else max(hi, d)
        acc[d] = acc.get(d, 0) + sv
    if lo is None:
        raise ValueError("daily_acf: empty log")
    n = hi - lo + 1
    x = [0] * n
    for d, sv in acc.items():
        x[d - lo] += sv
    if n < ACF_MAX_LAG + 3:
        raise ValueError("daily_acf: too few days")
    S = sum(x)
    dev = [n * v - S for v in x]          # n·x_t − S, exact
    den = sum(v * v for v in dev)
    if den == 0:
        raise ValueError("daily_acf: zero variance")
    out_lag, out_r = [], []
    for k in range(1, ACF_MAX_LAG + 1):
        num = sum(a * b for a, b in zip(dev[:n - k], dev[k:]))
        out_lag.append(k)
        out_r.append(float(num) / float(den))
    return pa.table({
        "lag": pa.array(out_lag, pa.int64()),
        "n_days": pa.array([n] * len(out_lag), pa.int64()),
        "r": pa.array(_r4(np.array(out_r))),
    })


QUERIES["daily_acf"] = q_daily_acf

ORACLE_SQL["daily_acf"] = f"""
WITH e AS (SELECT epoch_us(ts) // 86400000000 AS day,
                  floor(value * 100)::BIGINT AS cents
           FROM events),
sp AS (SELECT min(day)::BIGINT AS lo, max(day)::BIGINT AS hi FROM e),
grid AS (SELECT unnest(generate_series((SELECT lo FROM sp),
                                       (SELECT hi FROM sp))) AS day),
xs AS (SELECT g.day, coalesce(s.s, 0)::BIGINT AS x
       FROM grid g LEFT JOIN
            (SELECT day, sum(cents)::BIGINT AS s FROM e
             GROUP BY 1) s USING (day)),
m AS (SELECT count(*)::HUGEINT AS n, sum(x)::HUGEINT AS s FROM xs),
dv AS (SELECT day, (SELECT n FROM m) * x - (SELECT s FROM m) AS d
       FROM xs),
den AS (SELECT sum(d * d)::HUGEINT AS den FROM dv),
lags AS (SELECT unnest(generate_series(1, {ACF_MAX_LAG})) AS lag),
num AS (SELECT l.lag, sum(a.d * b.d)::HUGEINT AS num
        FROM lags l
        JOIN dv a ON TRUE
        JOIN dv b ON b.day = a.day + l.lag
        GROUP BY l.lag)
SELECT lag, (SELECT n FROM m)::BIGINT AS n_days,
       {_R4.format(expr="(num::DOUBLE / (SELECT den FROM den)"
                        "::DOUBLE)")} AS r
FROM num ORDER BY lag
"""


def q_churn_logit_newton(sf_dir: str):
    """One Newton-Raphson step of logistic regression churned ~ 1 +
    n_events from β = 0 — the ML-training step in closed form: at
    β = 0 the gradient is Xᵀ(y − ½) and the Hessian −XᵀX/4, so
    β = 2·(XᵀX)⁻¹·Xᵀv with v = 2y − 1 ∈ {−1, +1}.  The churn label
    reuses the user_churn_labels contract (no event after 3/4 of the
    log span, exact integer cutoff); x = per-user event count from
    ONE user-keyed grouped agg; the five moments (m_users, Σx, Σx²,
    Σv, Σxv) fold to Python ints over users-bounded partials (HUGEINT
    in the oracle); both coefficients are single divisions of
    identical exact integers, 4dp-gated."""
    from ..stages.aggregates import sorted_groupby_agg

    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])

    prep_schema = pa.schema([("user_id", pa.int64()),
                             ("us", pa.int64())])

    prep = shape(prep_schema, rename={"us": "ts"})
    base = ds.map_batches(prep, batch_format="pyarrow")

    span_schema = pa.schema([("lo", pa.int64()), ("hi", pa.int64())])

    def span(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return span_schema.empty_table()
        us = t["us"].to_numpy(zero_copy_only=False)
        return pa.table({"lo": pa.array([us.min()]),
                         "hi": pa.array([us.max()])})

    parts = base.map_batches(span, batch_format="pyarrow").take_all()
    if not parts:
        raise ValueError("churn_logit_newton: empty input")
    lo = min(r["lo"] for r in parts)
    hi = max(r["hi"] for r in parts)
    cutoff = lo + (hi - lo) * _CHURN_FRAC_NUM // _CHURN_FRAC_DEN

    per_user = sorted_groupby_agg(
        base, ["user_id"],
        [("us", "max", "last_us"), ("us", "count", "n_events")],
        in_schema=prep_schema)

    mom_schema = pa.schema([("i", pa.int64()), ("v", pa.int64())])

    def moments(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "last_us" not in t.column_names:
            return mom_schema.empty_table()
        last = _non_null_numpy(t, "last_us")
        x = _non_null_numpy(t, "n_events").astype(np.int64)
        v = np.where(last <= cutoff, 1, -1).astype(np.int64)
        vals = [t.num_rows, int(x.sum()), int((x * x).sum()),
                int(v.sum()), int((x * v).sum())]
        return pa.table({"i": pa.array(np.arange(5, dtype=np.int64)),
                         "v": pa.array(vals, pa.int64())})

    acc = [0] * 5
    for r in per_user.map_batches(
            moments, batch_format="pyarrow").take_all():
        acc[r["i"]] += r["v"]
    m, sx, sxx, sv, sxv = acc
    if m < 3:
        raise ValueError("churn_logit_newton: too few users")
    det = m * sxx - sx * sx
    if det == 0:
        raise ValueError("churn_logit_newton: singular design")
    b0 = 2.0 * float(sxx * sv - sx * sxv) / float(det)
    b1 = 2.0 * float(m * sxv - sx * sv) / float(det)
    return pa.table({
        "n_users": pa.array([m], pa.int64()),
        "n_churned": pa.array([(sv + m) // 2], pa.int64()),
        "beta0": pa.array(_r4(np.array([b0]))),
        "beta1": pa.array(_r4(np.array([b1]))),
    })


QUERIES["churn_logit_newton"] = q_churn_logit_newton

ORACLE_SQL["churn_logit_newton"] = f"""
WITH b AS (SELECT user_id, epoch_us(ts)::BIGINT AS us FROM events),
s AS (SELECT min(us)::BIGINT AS lo, max(us)::BIGINT AS hi FROM b),
u AS (SELECT user_id, max(us)::BIGINT AS last_us,
             count(*)::BIGINT AS x
      FROM b GROUP BY 1),
lab AS (SELECT x, CASE WHEN u.last_us <= s.lo + (s.hi - s.lo)
                            * {_CHURN_FRAC_NUM} // {_CHURN_FRAC_DEN}
                       THEN 1 ELSE -1 END::BIGINT AS v
        FROM u, s),
m AS (SELECT count(*)::HUGEINT AS m, sum(x)::HUGEINT AS sx,
             sum(x::HUGEINT * x)::HUGEINT AS sxx,
             sum(v)::HUGEINT AS sv,
             sum(x::HUGEINT * v)::HUGEINT AS sxv
      FROM lab)
SELECT m::BIGINT AS n_users,
       ((sv + m) // 2)::BIGINT AS n_churned,
       {_R4.format(expr="2.0 * (sxx * sv - sx * sxv)::DOUBLE"
                        " / (m * sxx - sx * sx)::DOUBLE")} AS beta0,
       {_R4.format(expr="2.0 * (m * sxv - sx * sv)::DOUBLE"
                        " / (m * sxx - sx * sx)::DOUBLE")} AS beta1
FROM m
"""


def q_bigram_llr(sf_dir: str):
    """Dunning (1993) log-likelihood-ratio collocations over the
    frequent-bigram candidate set (count * BIGRAM_K > total pairs):
    G² over the 2×2 pair-stream contingency table with EXACT integer
    cells (left/right-position totals recounted in pass 2) and the
    shared 2·(t11+t12+t21+t22) float expression — zero cells
    contribute exactly 0 on both engines — 4dp-gated.  Same
    pigeonhole-bounded two-pass scale shape as bigram_pmi."""
    from ..stages.frequent import bigram_llr

    return bigram_llr(read_table(sf_dir, "documents", columns=["text"]))


QUERIES["bigram_llr"] = q_bigram_llr


def _bigram_llr_sql() -> str:
    from ..stages.frequent import BIGRAM_K

    t = ("CASE WHEN {k} > 0 THEN {k}::DOUBLE * ln({k}::DOUBLE"
         " * n2::DOUBLE / ({r}::DOUBLE * {c}::DOUBLE))"
         " ELSE 0.0 END")
    expr = ("2.0 * (" + t.format(k="k11", r="r1", c="c1") + " + "
            + t.format(k="k12", r="r1", c="c2") + " + "
            + t.format(k="k21", r="r2", c="c1") + " + "
            + t.format(k="k22", r="r2", c="c2") + ")")
    return f"""
WITH {_TOK_CTE},
tokpos AS (SELECT doc_id, unnest(toks) AS tok,
                  generate_subscripts(toks, 1) AS pos FROM tok),
big AS (SELECT w1, w2 FROM (
  SELECT tok AS w1, lead(tok) OVER (PARTITION BY doc_id ORDER BY pos) AS w2
  FROM tokpos) WHERE w2 IS NOT NULL),
n2t AS (SELECT count(*)::BIGINT AS n2 FROM big),
pc AS (SELECT w1, w2, count(*)::BIGINT AS c12 FROM big GROUP BY 1, 2),
lc AS (SELECT w1, count(*)::BIGINT AS r1 FROM big GROUP BY 1),
rc AS (SELECT w2, count(*)::BIGINT AS c1 FROM big GROUP BY 1),
cand AS (SELECT pc.w1, pc.w2, c12, r1, c1, n2t.n2
         FROM pc, n2t
         JOIN lc ON lc.w1 = pc.w1
         JOIN rc ON rc.w2 = pc.w2
         WHERE c12 * {BIGRAM_K} > n2t.n2),
cells AS (SELECT w1, w2, c12, n2,
                 c12 AS k11, r1 - c12 AS k12, c1 - c12 AS k21,
                 n2 - r1 - c1 + c12 AS k22,
                 r1, n2 - r1 AS r2, c1, n2 - c1 AS c2
          FROM cand)
SELECT w1, w2, c12, {_R4.format(expr=expr)} AS llr
FROM cells ORDER BY w1, w2
"""


ORACLE_SQL["bigram_llr"] = _bigram_llr_sql()


BLOOM_FP_BITS = 8192
BLOOM_FP_K = 3
BLOOM_FP_PROBE_OFFSET = 1_000_000_000   # shifts probes out of the key domain


def q_bloom_fp_audit(sf_dir: str):
    """False-positive audit of the Bloom join prefilter
    (stages/join.py bloom_from_keys/bloom_prefilter) — the sizing
    feedback loop for the bits/k parameters: build the bitmap over
    orders.o_custkey (8192 bits, 3 hashes), then (a) probe every
    DISTINCT member back (all must hit — a Bloom filter has no false
    negatives; n_member_hits == n_members is checked by BOTH engines)
    and (b) probe one guaranteed non-member per customer (c_custkey
    shifted by 10⁹, outside the key domain) to measure the exact
    false-positive count and rate.  The ORACLE replays the
    double-hashing scheme bit for bit in SQL (md5-low-64 ==
    md5_number_lower; pos_i = (h&2³²−1 + i·(h≫32|1)) mod bits) with
    membership via a position-set join — an INDEPENDENT check of the
    engine's packed-bitmap test.  Per-block bitmap partials OR-fold
    on the driver (bits/8 bytes each); probes are a pure map with
    scalar partials; fp_rate is ONE division of exact integers,
    4dp-gated."""
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.join import _bloom_positions, bloom_from_keys

    orders = read_table(sf_dir, "orders", columns=["o_custkey"])
    bm = bloom_from_keys(orders, "o_custkey",
                         bits=BLOOM_FP_BITS, k=BLOOM_FP_K)

    def hits_of(keys: np.ndarray) -> int:
        pos = _bloom_positions([str(int(x)) for x in keys],
                               BLOOM_FP_BITS, BLOOM_FP_K)
        word = (pos >> np.uint64(6)).astype(np.int64)
        bit = np.uint64(1) << (pos & np.uint64(63))
        return int(((bm[word] & bit) != 0).all(axis=1).sum())

    mem_schema = pa.schema([("o_custkey", pa.int64()),
                            ("one", pa.int64())])

    def mem_prep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return mem_schema.empty_table()
        uk = np.unique(_non_null_numpy(t, "o_custkey")
                       .astype(np.int64))
        return pa.table({"o_custkey": pa.array(uk),
                         "one": pa.array(np.ones(len(uk), np.int64))})

    members = sorted_groupby_agg(
        orders.map_batches(mem_prep, batch_format="pyarrow"),
        ["o_custkey"], [("one", "max", "one")],
        in_schema=mem_schema)

    pair_schema = pa.schema([("n", pa.int64()), ("h", pa.int64())])

    def mem_probe(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "o_custkey" not in t.column_names:
            return pair_schema.empty_table()
        keys = _non_null_numpy(t, "o_custkey").astype(np.int64)
        return pa.table({"n": pa.array([len(keys)]),
                         "h": pa.array([hits_of(keys)])})

    n_members = n_member_hits = 0
    for r in members.map_batches(mem_probe,
                                 batch_format="pyarrow").take_all():
        n_members += r["n"]
        n_member_hits += r["h"]

    cust = read_table(sf_dir, "customer", columns=["c_custkey"])

    def probe(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pair_schema.empty_table()
        keys = _non_null_numpy(t, "c_custkey").astype(np.int64) + BLOOM_FP_PROBE_OFFSET
        return pa.table({"n": pa.array([len(keys)]),
                         "h": pa.array([hits_of(keys)])})

    n_probes = n_fp = 0
    for r in cust.map_batches(probe,
                              batch_format="pyarrow").take_all():
        n_probes += r["n"]
        n_fp += r["h"]
    if n_probes == 0:
        raise ValueError("bloom_fp_audit: no probes")
    return pa.table({
        "n_members": pa.array([n_members], pa.int64()),
        "n_member_hits": pa.array([n_member_hits], pa.int64()),
        "n_probes": pa.array([n_probes], pa.int64()),
        "n_false_pos": pa.array([n_fp], pa.int64()),
        "fp_rate": pa.array(_r4(np.array([float(n_fp)
                                          / float(n_probes)]))),
    })


QUERIES["bloom_fp_audit"] = q_bloom_fp_audit

ORACLE_SQL["bloom_fp_audit"] = f"""
WITH ii AS (SELECT unnest(generate_series(0, {BLOOM_FP_K - 1}))
                   ::UBIGINT AS i),
mk AS (SELECT DISTINCT o_custkey FROM orders),
mh AS (SELECT o_custkey,
              md5_number_lower(CAST(o_custkey AS VARCHAR)) AS h
       FROM mk),
mpos AS (SELECT DISTINCT
           ((h & 4294967295) + i * ((h >> 32) | 1)) % {BLOOM_FP_BITS}
             AS pos
         FROM mh, ii),
mp AS (SELECT o_custkey,
              ((h & 4294967295) + i * ((h >> 32) | 1))
                % {BLOOM_FP_BITS} AS pos
       FROM mh, ii),
mhits AS (SELECT o_custkey FROM mp
          LEFT JOIN mpos ON mp.pos = mpos.pos
          GROUP BY o_custkey HAVING count(mpos.pos) = count(*)),
ph AS (SELECT c_custkey,
              md5_number_lower(CAST(c_custkey
                + {BLOOM_FP_PROBE_OFFSET} AS VARCHAR)) AS h
       FROM customer),
pp AS (SELECT c_custkey,
              ((h & 4294967295) + i * ((h >> 32) | 1))
                % {BLOOM_FP_BITS} AS pos
       FROM ph, ii),
hits AS (SELECT c_custkey FROM pp
         LEFT JOIN mpos ON pp.pos = mpos.pos
         GROUP BY c_custkey HAVING count(mpos.pos) = count(*)),
mem AS (SELECT count(*)::BIGINT AS n_members FROM mk),
mht AS (SELECT count(*)::BIGINT AS n_member_hits FROM mhits),
pr AS (SELECT count(*)::BIGINT AS n_probes FROM customer),
ht AS (SELECT count(*)::BIGINT AS n_false_pos FROM hits)
SELECT n_members, n_member_hits, n_probes, n_false_pos,
       {_R4.format(expr="n_false_pos::DOUBLE / n_probes::DOUBLE")}
         AS fp_rate
FROM mem, mht, pr, ht
"""


NB_V = 2048      # NB model vocabulary (top-V tokens, ties token-asc)
NB_K = 8         # classify on the doc's first K tokens


def q_nb_lang_classify(sf_dir: str):
    """Supervised Naive-Bayes language classifier — the trained
    counterpart of the heuristic ``langid``: train per-lang unigram
    counts with add-one smoothing over the top-{NB_V} vocabulary
    (ties token-asc, the shared binary order), then classify each doc
    by its FIRST {NB_K} tokens; score_ln = ln(nd_c/nd) +
    Σ ln((cnt+1)/(n_c+V)) where every ln argument is a ratio of
    IDENTICAL exact integers on both engines (so the ln terms are
    bit-identical doubles; only the ≤9-term sum carries the usual
    4dp-gated grouping risk, the bm25_eval convention), and the
    prediction is argmax over floor(score·10⁴+0.5) with lang-asc
    ties — the PQ round-then-argmax contract.  Unseen-in-class and
    out-of-vocabulary tokens both smooth to 1/(n_c+V), identically on
    both sides.  Scale shape: pass 1 = corpus_token_counts
    (vocabulary-sized shuffle) + distributed sort+limit head; pass 2
    = per-(lang, token) counts pre-aggregated per batch and filtered
    to the broadcast vocab ((V×C)-bounded shuffle and driver
    materialization); pass 3 = a pure vectorized classify map with
    the (V×C) ln-factor matrix broadcast once via ray.put."""
    import math

    import ray

    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.textstats import _split_tokens, corpus_token_counts

    ds = read_table(sf_dir, "documents", columns=["doc_id", "lang", "text"])

    # ---- pass 1: global vocab head --------------------------------
    head = corpus_token_counts(ds) \
        .sort(["cnt", "token"], descending=[True, False]) \
        .limit(NB_V).take_all()
    vocab = sorted(str(r["token"]) for r in head)
    vocab_arr = pa.array(vocab, pa.large_string())
    vref = ray.put(vocab_arr)

    # ---- priors: per-lang doc counts (C-bounded) -------------------
    pri_schema = pa.schema([("lang", pa.string()),
                            ("nd", pa.int64())])

    def pri_part(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pri_schema.empty_table()
        lang = t["lang"]
        lang = lang.combine_chunks() if isinstance(lang, pa.ChunkedArray) \
            else lang
        vc = lang.value_counts()
        return pa.table({"lang": vc.field("values").cast(pa.string()),
                         "nd": vc.field("counts").cast(pa.int64())})

    pri_rows = sorted_groupby_agg(
        ds.map_batches(pri_part, batch_format="pyarrow"),
        ["lang"], [("nd", "sum", "nd")],
        in_schema=pri_schema).take_all()
    classes = sorted(str(r["lang"]) for r in pri_rows)
    nd_by = {str(r["lang"]): int(r["nd"]) for r in pri_rows}
    nd_total = sum(nd_by.values())
    if nd_total == 0:
        raise ValueError("nb_lang_classify: empty corpus")

    # ---- pass 2: per-(lang, vocab-token) counts --------------------
    cc_schema = pa.schema([("lang", pa.string()),
                           ("token", pa.large_string()),
                           ("cnt", pa.int64())])

    def cls_part(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        voc = ray.get(vref)
        content = t["text"]
        content = content.combine_chunks() \
            if isinstance(content, pa.ChunkedArray) else content
        parents, values = _split_tokens(content)
        if len(values) == 0:
            return cc_schema.empty_table()
        keep = pc.is_in(values, value_set=voc) \
            .to_numpy(zero_copy_only=False)
        if not keep.any():
            return cc_schema.empty_table()
        values = values.filter(pa.array(keep))
        parents = parents[keep]
        langs = np.asarray(t["lang"].to_pylist(), dtype=object)
        tok_lang = langs[parents]
        lcode, linv = np.unique(tok_lang, return_inverse=True)
        denc = values.dictionary_encode()
        vcodes = _codes(denc)
        vb = len(denc.dictionary)
        key = linv.astype(np.int64) * vb + vcodes
        uk, cnt = np.unique(key, return_counts=True)
        return pa.table({
            "lang": pa.array([str(lcode[i]) for i in uk // vb],
                             pa.string()),
            "token": denc.dictionary.take(pa.array(uk % vb))
            .cast(pa.large_string()),
            "cnt": pa.array(cnt.astype(np.int64))})

    cc_rows = sorted_groupby_agg(
        ds.map_batches(cls_part, batch_format="pyarrow"),
        ["lang", "token"], [("cnt", "sum", "cnt")],
        in_schema=cc_schema).take_all()   # (V × C)-bounded

    C = len(classes)
    cidx = {c: i for i, c in enumerate(classes)}
    tidx = {t: i for i, t in enumerate(vocab)}
    cnt_mat = np.zeros((len(vocab), C), dtype=np.int64)
    for r in cc_rows:
        cnt_mat[tidx[str(r["token"])], cidx[str(r["lang"])]] = r["cnt"]
    n_c = cnt_mat.sum(axis=0)                     # per-class totals
    # ln factors: identical exact-integer ratios on both engines
    lf_mat = np.log((cnt_mat + 1).astype(np.float64)
                    / (n_c + NB_V).astype(np.float64))
    lf_oov = np.log(1.0 / (n_c + NB_V).astype(np.float64))
    ln_pri = np.array([math.log(float(nd_by[c]) / float(nd_total))
                       for c in classes])
    shared = ray.put((vocab_arr, lf_mat, lf_oov, ln_pri))

    # ---- pass 3: classify ------------------------------------------
    out_schema = pa.schema([("doc_id", pa.int64()),
                            ("lang", pa.string()),
                            ("pred_lang", pa.string()),
                            ("is_correct", pa.int64()),
                            ("score", pa.float64())])

    def classify(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        voc, lfm, lfo, lpr = ray.get(shared)
        content = t["text"]
        content = content.combine_chunks() \
            if isinstance(content, pa.ChunkedArray) else content
        parents, values = _split_tokens(content)
        n = t.num_rows
        # per-token position within doc
        if len(values):
            starts = np.r_[0, np.flatnonzero(np.diff(parents)) + 1]
            pos = np.arange(len(parents)) - np.repeat(
                starts, np.diff(np.r_[starts, len(parents)]))
            m = pos < NB_K
            idx = pc.index_in(values, value_set=voc) \
                .to_numpy(zero_copy_only=False)
            oov = np.isnan(idx) if idx.dtype.kind == "f" else (idx < 0)
            idx = np.where(oov, 0, idx).astype(np.int64)
        else:
            m = np.zeros(0, dtype=bool)
            oov = idx = np.zeros(0, dtype=np.int64)
            pos = np.zeros(0, dtype=np.int64)
        best_key = None
        best_c = None
        best_s = None
        for ci in range(lfm.shape[1]):
            lf_tok = np.where(oov, lfo[ci], lfm[idx, ci])
            grid = np.zeros((n, NB_K), dtype=np.float64)
            if m.any():
                grid[parents[m], pos[m]] = lf_tok[m]
            s = np.full(n, lpr[ci])
            for j in range(NB_K):
                s = s + grid[:, j]
            key = np.floor(s * 10000 + 0.5).astype(np.int64)
            if best_key is None:
                best_key, best_c, best_s = key, np.full(n, ci), s
            else:
                win = key > best_key      # strict: earlier class wins ties
                best_key = np.where(win, key, best_key)
                best_c = np.where(win, ci, best_c)
                best_s = np.where(win, s, best_s)
        cls_arr = np.array(classes, dtype=object)
        pred = cls_arr[best_c] if n else np.array([], dtype=object)
        actual = np.asarray(t["lang"].to_pylist(), dtype=object)
        return pa.table({
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "lang": pa.array(actual, pa.string()),
            "pred_lang": pa.array(pred, pa.string()),
            "is_correct": pa.array((pred == actual).astype(np.int64)),
            "score": pa.array(best_key / 10000.0
                              if n else np.zeros(0))})

    return ds.map_batches(classify, batch_format="pyarrow")


QUERIES["nb_lang_classify"] = q_nb_lang_classify

ORACLE_SQL["nb_lang_classify"] = f"""
WITH {_TOK_CTE},
tokpos AS (SELECT doc_id, unnest(toks) AS tok,
                  generate_subscripts(toks, 1) AS pos FROM tok),
gc AS (SELECT tok, count(*)::BIGINT AS c FROM tokpos GROUP BY 1),
vocab AS (SELECT tok FROM gc ORDER BY c DESC, tok ASC LIMIT {NB_V}),
cls AS (SELECT lang, count(*)::BIGINT AS nd FROM documents
        GROUP BY 1),
ndt AS (SELECT count(*)::BIGINT AS nd FROM documents),
sc AS (SELECT d.lang, t.tok, count(*)::BIGINT AS c
       FROM tokpos t
       JOIN documents d USING (doc_id)
       JOIN vocab v ON v.tok = t.tok
       GROUP BY 1, 2),
nc AS (SELECT c2.lang, coalesce(sum(sc.c), 0)::BIGINT AS n
       FROM cls c2 LEFT JOIN sc ON sc.lang = c2.lang GROUP BY 1),
f8 AS (SELECT doc_id, tok FROM tokpos WHERE pos <= {NB_K}),
fac AS (SELECT f.doc_id, c2.lang,
               ln((coalesce(sc.c, 0) + 1)::DOUBLE
                  / (nc.n + {NB_V})::DOUBLE) AS lf
        FROM f8 f
        CROSS JOIN cls c2
        JOIN nc ON nc.lang = c2.lang
        LEFT JOIN sc ON sc.lang = c2.lang AND sc.tok = f.tok),
ssum AS (SELECT doc_id, lang, sum(lf) AS ts FROM fac GROUP BY 1, 2),
scr AS (SELECT d.doc_id, d.lang AS actual, c2.lang AS cand,
               ln(c2.nd::DOUBLE / (SELECT nd FROM ndt)::DOUBLE)
                 + coalesce(s.ts, 0.0) AS s
        FROM documents d
        CROSS JOIN cls c2
        LEFT JOIN ssum s ON s.doc_id = d.doc_id
                        AND s.lang = c2.lang),
rk AS (SELECT doc_id, actual, cand,
              floor(s * 10000 + 0.5) AS k,
              row_number() OVER (PARTITION BY doc_id
                                 ORDER BY floor(s * 10000 + 0.5) DESC,
                                          cand ASC) AS r
       FROM scr)
SELECT doc_id, actual AS lang, cand AS pred_lang,
       CASE WHEN actual = cand THEN 1 ELSE 0 END::BIGINT
         AS is_correct,
       (k / 10000.0) AS score
FROM rk WHERE r = 1 ORDER BY doc_id
"""


def q_doc_readability(sf_dir: str):
    """Flesch reading-ease per document — the classic readability
    screen a curation pipeline thresholds on: words = the shared
    tokenizer's token count, sentences = count of [.!?]+ runs,
    syllables = count of [aeiouy]+ runs in the lowered text (the
    standard cheap proxy) — ALL exact integers from vectorized RE2
    kernels (pc.count_substring_regex == len(regexp_extract_all):
    both engines run RE2), zero-guard via max(·,1) on both sides, and
    flesch = 206.835 − 1.015·(w/s) − 84.6·(y/w) ONE shared float
    expression, 4dp-gated.  Pure per-batch map — no shuffle at
    all."""
    from ..stages.textstats import _split_tokens

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    out_schema = pa.schema([("doc_id", pa.int64()),
                            ("n_words", pa.int64()),
                            ("n_sentences", pa.int64()),
                            ("n_syllables", pa.int64()),
                            ("flesch", pa.float64())])

    def score(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if t.num_rows == 0:
            return out_schema.empty_table()
        content = t["text"]
        content = content.combine_chunks() \
            if isinstance(content, pa.ChunkedArray) else content
        parents, _ = _split_tokens(content)
        n = t.num_rows
        words = np.bincount(parents, minlength=n).astype(np.int64)
        low = pc.utf8_lower(content)
        syll = pc.count_substring_regex(low, "[aeiouy]+") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        sent = pc.count_substring_regex(content, "[.!?]+") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        w = np.maximum(words, 1).astype(np.float64)
        s = np.maximum(sent, 1).astype(np.float64)
        flesch = 206.835 - 1.015 * (w / s) - 84.6 * (syll / w)
        return pa.table({
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "n_words": pa.array(words),
            "n_sentences": pa.array(sent),
            "n_syllables": pa.array(syll),
            "flesch": pa.array(_r4(flesch))})

    return ds.map_batches(score, batch_format="pyarrow")


QUERIES["doc_readability"] = q_doc_readability

ORACLE_SQL["doc_readability"] = f"""
WITH {_TOK_CTE},
c AS (SELECT t.doc_id, len(t.toks)::BIGINT AS n_words,
             len(regexp_extract_all(d.text, '[.!?]+'))::BIGINT
               AS n_sentences,
             len(regexp_extract_all(lower(d.text), '[aeiouy]+'))
               ::BIGINT AS n_syllables
      FROM tok t JOIN documents d USING (doc_id))
SELECT doc_id, n_words, n_sentences, n_syllables,
       {_R4.format(expr="(206.835"
                        " - 1.015 * (greatest(n_words, 1)::DOUBLE"
                        "            / greatest(n_sentences, 1)::DOUBLE)"
                        " - 84.6 * (n_syllables::DOUBLE"
                        "           / greatest(n_words, 1)::DOUBLE))")}
         AS flesch
FROM c ORDER BY doc_id
"""


def q_user_hazard_na(sf_dir: str):
    """Nelson-Aalen cumulative hazard over user lifetimes — the
    nonparametric H(t) companion of user_survival_km (identical
    lifetime/censor contract: whole days first→last event, 1-day
    right-censor at the log end): H(t) = Σ_{{t_i ≤ t}} d_i / n_risk_i
    at death times.  Same scale shape as KM — one user-keyed grouped
    min/max, a days-bounded (t × death) bincount fold — and the
    ascending-t cumulative SUM of identical exact-integer ratios is
    the same sequential fold DuckDB's windowed sum() runs, 4dp-gated
    like the KM product."""
    from ..stages.aggregates import sorted_groupby_agg

    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])

    prep_schema = pa.schema([("user_id", pa.int64()),
                             ("us", pa.int64())])

    prep = shape(prep_schema, rename={"us": "ts"})
    base = ds.map_batches(prep, batch_format="pyarrow")

    def mx(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "us" not in t.column_names:
            return pa.schema([("m", pa.int64())]).empty_table()
        return pa.table({"m": pa.array(
            [int(t["us"].to_numpy(zero_copy_only=False).max())],
            pa.int64())})

    mrows = base.map_batches(mx, batch_format="pyarrow").take_all()
    if not mrows:
        raise ValueError("user_hazard_na: empty event log")
    log_end = max(r["m"] for r in mrows)

    users = sorted_groupby_agg(
        base, ["user_id"],
        [("us", "min", "f"), ("us", "max", "l")],
        in_schema=prep_schema)

    def cells(t: pa.Table) -> pa.Table:
        sch = pa.schema([("t", pa.int64()), ("death", pa.int64()),
                         ("n", pa.int64())])
        if t.num_rows == 0 or "f" not in t.column_names:
            return sch.empty_table()
        f = _non_null_numpy(t, "f").astype(np.int64)
        l = _non_null_numpy(t, "l").astype(np.int64)
        life = (l - f) // _US_PER_DAY
        death = ((log_end - l)
                 >= KM_CENSOR_DAYS * _US_PER_DAY).astype(np.int64)
        comp = life * 2 + death
        cnt = np.bincount(comp)
        nz = np.flatnonzero(cnt)
        return pa.table({"t": pa.array((nz // 2).astype(np.int64)),
                         "death": pa.array((nz % 2).astype(np.int64)),
                         "n": pa.array(cnt[nz].astype(np.int64))})

    acc: dict[tuple[int, int], int] = {}
    for r in users.map_batches(cells,
                               batch_format="pyarrow").take_all():
        k = (r["t"], r["death"])
        acc[k] = acc.get(k, 0) + r["n"]

    ts_sorted = sorted({t for t, _ in acc})
    n_total = sum(acc.values())
    rows = []
    at_risk = n_total
    for t in ts_sorted:
        d = acc.get((t, 1), 0)
        c = acc.get((t, 0), 0)
        if d > 0:
            rows.append((t, at_risk, d))
        at_risk -= d + c
    n_risk = np.array([r[1] for r in rows], dtype=np.int64)
    n_event = np.array([r[2] for r in rows], dtype=np.int64)
    hazard = np.cumsum(n_event.astype(np.float64)
                       / n_risk.astype(np.float64))
    return pa.table({
        "t_days": pa.array(np.array([r[0] for r in rows],
                                    dtype=np.int64)),
        "n_risk": pa.array(n_risk),
        "n_event": pa.array(n_event),
        "hazard": pa.array(_r4(hazard)),
    })


QUERIES["user_hazard_na"] = q_user_hazard_na

ORACLE_SQL["user_hazard_na"] = f"""
WITH u AS (SELECT user_id, min(epoch_us(ts))::BIGINT AS f,
                  max(epoch_us(ts))::BIGINT AS l
           FROM events GROUP BY 1),
g AS (SELECT max(epoch_us(ts))::BIGINT AS log_end FROM events),
d AS (SELECT (l - f) // {_US_PER_DAY} AS t,
             CASE WHEN ((SELECT log_end FROM g) - l)
                       >= {KM_CENSOR_DAYS} * {_US_PER_DAY}
                  THEN 1 ELSE 0 END AS death
      FROM u),
ev AS (SELECT t, sum(death)::BIGINT AS n_event,
              count(*)::BIGINT AS n_at
       FROM d GROUP BY t),
o AS (SELECT t, n_event,
             ((SELECT count(*) FROM d)
              - coalesce(sum(n_at) OVER (ORDER BY t
                  ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                  0))::BIGINT AS n_risk
      FROM ev),
k AS (SELECT t, n_risk, n_event,
             sum(n_event::DOUBLE / n_risk::DOUBLE)
               OVER (ORDER BY t) AS hazard
      FROM o WHERE n_event > 0)
SELECT t AS t_days, n_risk, n_event,
       {_R4.format(expr='hazard')} AS hazard
FROM k
"""


LOG2Q = ((1, 2), (9, 10), (99, 100))     # p50 / p90 / p99 as fractions


def q_value_log2_quantiles(sf_dir: str):
    """Log₂-bucket quantile sketch over positive value cents — the
    DDSketch-family relative-error quantile (Masson et al. 2019) with
    γ pinned to 2 so the bucket index is EXACT integer arithmetic on
    both engines: bucket = floor(log₂ cents) computed by searchsorted
    against the powers-of-two table (engine) == length(bin(y))−1
    (oracle) — no float log anywhere.  64-bounded bincount partials
    fold on the driver; rank = ceil(q·n) as the pure-integer
    (num·n + den − 1) // den; the answer per quantile is the smallest
    bucket whose cumulative count reaches the rank, reported with its
    exact [2^b, 2^(b+1)−1] value bounds.  All-integer output."""
    ds = read_table(sf_dir, "events", columns=["value"])

    pow2 = (np.int64(1) << np.arange(63)).astype(np.int64)
    part_schema = pa.schema([("b", pa.int64()), ("c", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        cents = np.floor(_non_null_numpy(t, "value")
                         * 100).astype(np.int64)
        cents = cents[cents >= 1]
        if len(cents) == 0:
            return part_schema.empty_table()
        b = np.searchsorted(pow2, cents, side="right") - 1
        cnt = np.bincount(b, minlength=63).astype(np.int64)
        nz = np.flatnonzero(cnt)
        return pa.table({"b": pa.array(nz.astype(np.int64)),
                         "c": pa.array(cnt[nz])})

    acc = np.zeros(63, dtype=np.int64)
    for r in ds.map_batches(partial,
                            batch_format="pyarrow").take_all():
        acc[r["b"]] += r["c"]
    n = int(acc.sum())
    if n == 0:
        raise ValueError("value_log2_quantiles: no positive values")
    cum = np.cumsum(acc)
    out_q, out_b, out_lo, out_hi = [], [], [], []
    for num, den in LOG2Q:
        rank = (num * n + den - 1) // den
        b = int(np.searchsorted(cum, rank, side="left"))
        out_q.append(float(num) / float(den))
        out_b.append(b)
        out_lo.append(1 << b)
        out_hi.append((1 << (b + 1)) - 1)
    return pa.table({
        "q": pa.array(out_q, pa.float64()),
        "bucket": pa.array(out_b, pa.int64()),
        "lo_cents": pa.array(out_lo, pa.int64()),
        "hi_cents": pa.array(out_hi, pa.int64()),
        "n": pa.array([n] * len(out_q), pa.int64()),
    })


QUERIES["value_log2_quantiles"] = q_value_log2_quantiles

ORACLE_SQL["value_log2_quantiles"] = f"""
WITH e AS (SELECT floor(value * 100)::BIGINT AS y FROM events
           WHERE floor(value * 100) >= 1),
bk AS (SELECT (length(bin(y)) - 1)::BIGINT AS b,
              count(*)::BIGINT AS c
       FROM e GROUP BY 1),
cu AS (SELECT b, sum(c) OVER (ORDER BY b)::BIGINT AS cum FROM bk),
nt AS (SELECT sum(c)::BIGINT AS n FROM bk),
qs AS (SELECT * FROM (VALUES {', '.join(f'({num}, {den})'
                                        for num, den in LOG2Q)})
       AS t(num, den)),
rk AS (SELECT num, den,
              (num * (SELECT n FROM nt) + den - 1) // den AS rank
       FROM qs),
pick AS (SELECT r.num, r.den, min(cu.b)::BIGINT AS bucket
         FROM rk r JOIN cu ON cu.cum >= r.rank
         GROUP BY 1, 2)
SELECT (num::DOUBLE / den::DOUBLE) AS q, bucket,
       (1::BIGINT << bucket) AS lo_cents,
       ((1::BIGINT << (bucket + 1)) - 1) AS hi_cents,
       (SELECT n FROM nt) AS n
FROM pick ORDER BY q
"""


HOLT_A_NUM, HOLT_A_DEN = 1, 2    # level alpha = 0.5 (exact dyadic)
HOLT_B_NUM, HOLT_B_DEN = 1, 4    # trend beta = 0.25 (exact dyadic)


def q_daily_holt_linear(sf_dir: str):
    """Holt double-exponential smoothing of the daily revenue series
    (level + trend, the forecasting-101 recursion): l_t = α·x_t +
    (1−α)(l_{{t−1}} + b_{{t−1}}), b_t = β(l_t − l_{{t−1}}) +
    (1−β)b_{{t−1}} with α = 0.5, β = 0.25 (exactly-representable
    dyadics), l₁ = x₁, b₁ = 0.  Both engines run the IDENTICAL
    sequential float recursion — the engine a days-bounded Python
    fold, the oracle a WITH RECURSIVE chain (the ewma idiom) whose
    step expressions mirror the engine's term for term — so the
    doubles are bit-identical before the 4dp gate.  ONE day-bounded
    grouped cents sum over the fill-0 day grid is the only
    corpus-sized work."""
    ds = read_table(sf_dir, "events", columns=["ts", "value"])

    part_schema = pa.schema([("day", pa.int64()), ("s", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        us = _ts_int64(t, "ts")
        day = us // 86_400_000_000
        cents = np.floor(_non_null_numpy(t, "value")
                         * 100).astype(np.int64)
        lo = int(day.min())
        cnt = np.bincount(day - lo, weights=cents).astype(np.int64)
        nz = np.flatnonzero(cnt)
        days = (nz + lo).tolist()
        sums = cnt[nz].tolist()
        for edge in (lo, int(day.max())):
            days.append(edge)
            sums.append(0)
        return pa.table({"day": pa.array(days, pa.int64()),
                         "s": pa.array(sums, pa.int64())})

    acc: dict[int, int] = {}
    lo = hi = None
    for r in ds.map_batches(partial,
                            batch_format="pyarrow").take_all():
        d, sv = r["day"], r["s"]
        lo = d if lo is None else min(lo, d)
        hi = d if hi is None else max(hi, d)
        acc[d] = acc.get(d, 0) + sv
    if lo is None:
        raise ValueError("daily_holt_linear: empty log")
    n = hi - lo + 1
    x = [0] * n
    for d, sv in acc.items():
        x[d - lo] += sv
    a = HOLT_A_NUM / HOLT_A_DEN
    bb = HOLT_B_NUM / HOLT_B_DEN
    l = float(x[0])
    b = 0.0
    out_rn, out_x, out_l, out_b = [1], [x[0]], [l], [b]
    for t in range(1, n):
        lp = l
        l = a * float(x[t]) + (1.0 - a) * (lp + b)
        b = bb * (l - lp) + (1.0 - bb) * b
        out_rn.append(t + 1)
        out_x.append(x[t])
        out_l.append(l)
        out_b.append(b)
    return pa.table({
        "rn": pa.array(out_rn, pa.int64()),
        "x_cents": pa.array(out_x, pa.int64()),
        "level": pa.array(_r4(np.array(out_l))),
        "trend": pa.array(_r4(np.array(out_b))),
    })


QUERIES["daily_holt_linear"] = q_daily_holt_linear

ORACLE_SQL["daily_holt_linear"] = f"""
WITH RECURSIVE e AS (SELECT epoch_us(ts) // 86400000000 AS day,
                            floor(value * 100)::BIGINT AS cents
                     FROM events),
sp AS (SELECT min(day)::BIGINT AS lo, max(day)::BIGINT AS hi FROM e),
grid AS (SELECT unnest(generate_series((SELECT lo FROM sp),
                                       (SELECT hi FROM sp))) AS day),
xs AS (SELECT row_number() OVER (ORDER BY g.day) AS rn,
              coalesce(s.s, 0)::BIGINT AS x
       FROM grid g LEFT JOIN
            (SELECT day, sum(cents)::BIGINT AS s FROM e
             GROUP BY 1) s USING (day)),
r AS (
  SELECT rn, x, x::DOUBLE AS l, 0.0::DOUBLE AS b FROM xs WHERE rn = 1
  UNION ALL
  SELECT xs.rn, xs.x,
         0.5 * xs.x::DOUBLE + 0.5 * (r.l + r.b),
         0.25 * ((0.5 * xs.x::DOUBLE + 0.5 * (r.l + r.b)) - r.l)
           + 0.75 * r.b
  FROM r JOIN xs ON xs.rn = r.rn + 1)
SELECT rn, x AS x_cents,
       {_R4.format(expr='l')} AS level,
       {_R4.format(expr='b')} AS trend
FROM r ORDER BY rn
"""


def q_user_ltv_curve(sf_dir: str):
    """Customer lifetime-value curve — cumulative revenue per user by
    account age: age = whole days since the user's FIRST event (exact
    integer µs floor-division), rev(age) = Σ cents at that age,
    ltv(age) = cumulative rev / n_users in value units.  One
    user-keyed grouped min + ONE user-keyed sort-merge join carrying
    first_us back onto the stream are the only data-sized exchanges;
    the (age × rev) table is age-bounded, the cumulative sum is an
    exact INTEGER windowed sum on both engines, and only the final
    per-age division is 4dp-gated."""
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.join import sort_merge_join

    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "value"])

    prep_schema = pa.schema([("user_id", pa.int64()),
                             ("us", pa.int64()),
                             ("cents", pa.int64())])

    def prep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return prep_schema.empty_table()
        ts = t["ts"]
        ts = ts.combine_chunks() if isinstance(ts, pa.ChunkedArray) \
            else ts
        return pa.table({
            "user_id": t["user_id"],
            "us": ts.cast(pa.int64()),
            "cents": pa.array(np.floor(
                _non_null_numpy(t, "value") * 100)
                .astype(np.int64))})

    base = ds.map_batches(prep, batch_format="pyarrow")

    firsts = sorted_groupby_agg(
        base, ["user_id"], [("us", "min", "first_us")],
        in_schema=prep_schema)
    n_users = firsts.count()

    joined = sort_merge_join(
        base, firsts, "user_id",
        left_schema=prep_schema,
        right_schema=pa.schema([("user_id", pa.int64()),
                                ("first_us", pa.int64())]))

    age_schema = pa.schema([("age", pa.int64()), ("rev", pa.int64()),
                            ("ne", pa.int64())])

    def per_age(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "first_us" not in t.column_names:
            return age_schema.empty_table()
        us = _non_null_numpy(t, "us").astype(np.int64)
        f = _non_null_numpy(t, "first_us").astype(np.int64)
        cents = _non_null_numpy(t, "cents").astype(np.int64)
        age = (us - f) // _US_PER_DAY
        lo = int(age.min())
        rev = np.bincount(age - lo, weights=cents).astype(np.int64)
        ne = np.bincount(age - lo).astype(np.int64)
        nz = np.flatnonzero(ne)
        return pa.table({"age": pa.array((nz + lo).astype(np.int64)),
                         "rev": pa.array(rev[nz]),
                         "ne": pa.array(ne[nz])})

    acc: dict[int, list[int]] = {}
    for r in joined.map_batches(per_age,
                                batch_format="pyarrow").take_all():
        g = acc.setdefault(r["age"], [0, 0])
        g[0] += r["rev"]
        g[1] += r["ne"]
    if not acc or n_users == 0:
        raise ValueError("user_ltv_curve: empty input")
    ages = sorted(acc)
    cum = 0
    out_age, out_ne, out_rev, out_cum, out_ltv = [], [], [], [], []
    for a in ages:
        rev, ne = acc[a]
        cum += rev
        out_age.append(a)
        out_ne.append(ne)
        out_rev.append(rev)
        out_cum.append(cum)
        out_ltv.append(float(cum) / (float(n_users) * 100.0))
    return pa.table({
        "age_days": pa.array(out_age, pa.int64()),
        "n_events": pa.array(out_ne, pa.int64()),
        "rev_cents": pa.array(out_rev, pa.int64()),
        "cum_cents": pa.array(out_cum, pa.int64()),
        "ltv": pa.array(_r4(np.array(out_ltv))),
    })


QUERIES["user_ltv_curve"] = q_user_ltv_curve

ORACLE_SQL["user_ltv_curve"] = f"""
WITH b AS (SELECT user_id, epoch_us(ts)::BIGINT AS us,
                  floor(value * 100)::BIGINT AS cents
           FROM events),
u AS (SELECT user_id, min(us)::BIGINT AS first_us FROM b
      GROUP BY 1),
nu AS (SELECT count(*)::BIGINT AS n_users FROM u),
ag AS (SELECT (b.us - u.first_us) // {_US_PER_DAY} AS age_days,
              b.cents
       FROM b JOIN u USING (user_id)),
pa2 AS (SELECT age_days, count(*)::BIGINT AS n_events,
               sum(cents)::BIGINT AS rev_cents
        FROM ag GROUP BY 1),
cu AS (SELECT age_days, n_events, rev_cents,
              sum(rev_cents) OVER (ORDER BY age_days)::BIGINT
                AS cum_cents
       FROM pa2)
SELECT age_days, n_events, rev_cents, cum_cents,
       {_R4.format(expr="cum_cents::DOUBLE"
                        " / ((SELECT n_users FROM nu)::DOUBLE"
                        "    * 100.0)")} AS ltv
FROM cu ORDER BY age_days
"""


def q_cluster_size_dist(sf_dir: str):
    """Near-dup cluster-size histogram — the dedup-impact report every
    curation run reads first (how many pairs/triples/blobs will
    collapse): compose the oracle-tested near_dup_clusters
    (LSH → exact-Jaccard → min-label components) with ONE
    component-keyed grouped count and ONE size-keyed grouped count —
    both bounded (components ≤ docs-in-pairs; distinct sizes ≤ √rows).
    Output (cluster_size, n_clusters, n_docs), all-integer."""
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.dedup import near_dup_clusters

    out = near_dup_clusters(read_table(sf_dir, "documents"),
                            threshold=DEDUP_CLUSTER_THRESHOLD)

    prep_schema = pa.schema([("component", pa.int64()),
                             ("one", pa.int64())])

    def prep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "component" not in t.column_names:
            return prep_schema.empty_table()
        comp = t["component"]
        return pa.table({
            "component": pc.cast(comp, pa.int64())
            if not isinstance(comp, pa.ChunkedArray)
            else comp.combine_chunks().cast(pa.int64()),
            "one": pa.array(np.ones(t.num_rows, np.int64))})

    import pyarrow.compute as pc  # noqa: F811 — worker fns re-import

    sizes = sorted_groupby_agg(
        out.map_batches(prep, batch_format="pyarrow"),
        ["component"], [("one", "sum", "sz")], in_schema=prep_schema)

    hist_schema = pa.schema([("cluster_size", pa.int64()),
                             ("n_clusters", pa.int64())])

    def hist_part(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "sz" not in t.column_names:
            return hist_schema.empty_table()
        sz = _non_null_numpy(t, "sz").astype(np.int64)
        uk, cnt = np.unique(sz, return_counts=True)
        return pa.table({"cluster_size": pa.array(uk),
                         "n_clusters": pa.array(
                             cnt.astype(np.int64))})

    acc: dict[int, int] = {}
    for r in sizes.map_batches(hist_part,
                               batch_format="pyarrow").take_all():
        acc[r["cluster_size"]] = acc.get(r["cluster_size"], 0) \
            + r["n_clusters"]
    ks = sorted(acc)
    return pa.table({
        "cluster_size": pa.array(ks, pa.int64()),
        "n_clusters": pa.array([acc[k] for k in ks], pa.int64()),
        "n_docs": pa.array([k * acc[k] for k in ks], pa.int64()),
    })


QUERIES["cluster_size_dist"] = q_cluster_size_dist

ORACLE_SQL["cluster_size_dist"] = f"""
WITH {_minhash_sig_ctes()},
{_cluster_cte_chain()},
cs AS (SELECT comp, count(*)::BIGINT AS sz FROM l8 GROUP BY 1)
SELECT sz AS cluster_size, count(*)::BIGINT AS n_clusters,
       (sz * count(*))::BIGINT AS n_docs
FROM cs GROUP BY sz ORDER BY sz
"""


def q_selfjoin_size_probe(sf_dir: str):
    """Join-cardinality probe — the optimizer statistic you read
    BEFORE running a key self-join: |events ⨝ events ON user_id| =
    Σ n_u² computed WITHOUT materializing the join, from ONE
    user-bounded grouped count (per-batch bincount partials).  Also
    reports Σ n_u, max n_u and the blowup factor Σn²/Σn (average
    matches per probe row), 4dp-gated single division.  The ORACLE
    runs the ACTUAL quadratic self-join count at test scale — an
    INDEPENDENT cross-validation of the Σn² identity.  All moments
    fold to Python ints (HUGEINT on the oracle side)."""
    from ..stages.aggregates import sorted_groupby_agg

    ds = read_table(sf_dir, "events", columns=["user_id"])

    prep_schema = pa.schema([("user_id", pa.int64()),
                             ("n", pa.int64())])

    def prep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return prep_schema.empty_table()
        u = _non_null_numpy(t, "user_id").astype(np.int64)
        uk, cnt = np.unique(u, return_counts=True)
        return pa.table({"user_id": pa.array(uk),
                         "n": pa.array(cnt.astype(np.int64))})

    per_user = sorted_groupby_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["user_id"], [("n", "sum", "n")], in_schema=prep_schema)

    mom_schema = pa.schema([("i", pa.int64()), ("v", pa.int64())])

    def moments(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "n" not in t.column_names:
            return mom_schema.empty_table()
        n = _non_null_numpy(t, "n").astype(np.int64)
        vals = [len(n), int(n.sum()), int((n * n).sum()),
                int(n.max())]
        return pa.table({"i": pa.array(np.arange(4, dtype=np.int64)),
                         "v": pa.array(vals, pa.int64())})

    n_users = s1 = s2 = 0
    mx = 0
    for r in per_user.map_batches(moments,
                                  batch_format="pyarrow").take_all():
        if r["i"] == 0:
            n_users += r["v"]
        elif r["i"] == 1:
            s1 += r["v"]
        elif r["i"] == 2:
            s2 += r["v"]
        else:
            mx = max(mx, r["v"])
    if s1 == 0:
        raise ValueError("selfjoin_size_probe: empty input")
    return pa.table({
        "n_rows": pa.array([s1], pa.int64()),
        "n_keys": pa.array([n_users], pa.int64()),
        "join_rows": pa.array([s2], pa.int64()),
        "max_key_rows": pa.array([mx], pa.int64()),
        "blowup": pa.array(_r4(np.array([float(s2) / float(s1)]))),
    })


QUERIES["selfjoin_size_probe"] = q_selfjoin_size_probe

ORACLE_SQL["selfjoin_size_probe"] = f"""
WITH j AS (SELECT count(*)::HUGEINT AS join_rows
           FROM events a JOIN events b USING (user_id)),
u AS (SELECT user_id, count(*)::BIGINT AS n FROM events
      GROUP BY 1),
m AS (SELECT count(*)::BIGINT AS n_keys, sum(n)::BIGINT AS n_rows,
             max(n)::BIGINT AS max_key_rows
      FROM u)
SELECT m.n_rows, m.n_keys, j.join_rows::BIGINT AS join_rows,
       m.max_key_rows,
       {_R4.format(expr="j.join_rows::DOUBLE / m.n_rows::DOUBLE")}
         AS blowup
FROM m, j
"""


def q_skipgram_counts(sf_dir: str):
    """Frequent skip-gram co-occurrences (ordered pairs at distance
    1..3 within a doc, count * 600 > pair-stream total) — the
    GloVe/word2vec co-occurrence-matrix preprocessing step, exact via
    the same pigeonhole-bounded two-pass shape as bigram_pmi (the
    w×-bigger pair stream never leaves the batch)."""
    from ..stages.frequent import skipgram_counts

    return skipgram_counts(read_table(sf_dir, "documents", columns=["text"]))


QUERIES["skipgram_counts"] = q_skipgram_counts


def _skipgram_counts_sql() -> str:
    from ..stages.frequent import SKIPGRAM_K, SKIPGRAM_W

    leads = "\n  UNION ALL ".join(
        f"SELECT w1, w2 FROM (SELECT tok AS w1, lead(tok, {d}) OVER "
        "(PARTITION BY doc_id ORDER BY pos) AS w2 FROM tokpos) "
        "WHERE w2 IS NOT NULL"
        for d in range(1, SKIPGRAM_W + 1))
    return f"""
WITH {_TOK_CTE},
tokpos AS (SELECT doc_id, unnest(toks) AS tok,
                  generate_subscripts(toks, 1) AS pos FROM tok),
big AS ({leads}),
n2t AS (SELECT count(*)::BIGINT AS n2 FROM big),
g AS (SELECT w1, w2, count(*)::BIGINT AS cnt FROM big GROUP BY 1, 2)
SELECT w1, w2, cnt FROM g, n2t
WHERE cnt * {SKIPGRAM_K} > n2t.n2
ORDER BY w1, w2
"""


ORACLE_SQL["skipgram_counts"] = _skipgram_counts_sql()


# ---------------------------------------------------------------------
# Wave 27 — TPC-H Q1 (pricing summary report) and Q6 (revenue-change
# band probe): the two canonical single-table lineitem benchmarks the
# registry still lacked.  Both are PURE streaming maps — no shuffle at
# all — whose only driver materialization is a bounded partial fold
# (≤ 6 cells per batch for Q1, one 5-integer row per batch for Q6),
# the same exact-integer discipline as lineitem_corr_matrix: every sum
# is an int64 per batch and an arbitrary-precision Python int across
# batches, the oracle carries HUGEINT, and only the final divisions
# are 4dp-gated.
# ---------------------------------------------------------------------

Q1_CUTOFF_US = 993_945_600_000_000   # 2001-07-01T00:00:00Z
Q6_LO_US = 946_684_800_000_000       # 2000-01-01T00:00:00Z
Q6_HI_US = 978_307_200_000_000       # 2001-01-01T00:00:00Z


def _li_ints(t: pa.Table):
    """Shared exact integer encodings for the lineitem money columns:
    q = floor(quantity + 0.5), pc = price cents, dp = discount pct,
    tp = tax pct — all half-up, replayed verbatim by the oracles."""
    q = np.floor(_non_null_numpy(t, "l_quantity") + 0.5).astype(np.int64)
    pc_ = np.floor(_non_null_numpy(t, "l_extendedprice") * 100 + 0.5).astype(np.int64)
    dp = np.floor(_non_null_numpy(t, "l_discount") * 100 + 0.5).astype(np.int64)
    tp = np.floor(_non_null_numpy(t, "l_tax") * 100 + 0.5).astype(np.int64)
    return q, pc_, dp, tp


def q_pricing_summary(sf_dir: str):
    """TPC-H Q1 proper — the pricing summary report per
    (l_returnflag, l_linestatus) over lineitem shipped on or before
    the cutoff: sum_qty, sum_base_price, sum_disc_price =
    Σ price(1−disc), sum_charge = Σ price(1−disc)(1+tax), the three
    averages, and count_order.  Every sum is EXACT: disc_price is
    carried as pc·(100−dp) (10⁻⁴ dollars) and charge as
    pc·(100−dp)·(100+tp) (10⁻⁶ dollars) — per-row ≤ ~1.2e11 so int64
    per-batch sums are safe at any block size — per-batch partials
    are ≤ 6 rows (the rf×ls domain), folded on the driver in
    arbitrary-precision Python ints, and each reported
    dollar/average value is ONE division of identical exact integers
    on both engines, 4dp-gated.  No shuffle anywhere."""
    part_schema = pa.schema([
        ("rf", pa.string()), ("ls", pa.string()), ("n", pa.int64()),
        ("sq", pa.int64()), ("spc", pa.int64()), ("sdpm", pa.int64()),
        ("schg", pa.int64()), ("sdisc", pa.int64())])

    def partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        keep = _ts_int64(t, "l_shipdate") <= Q1_CUTOFF_US
        if not keep.any():
            return part_schema.empty_table()
        t = t.filter(pa.array(keep))
        q, pc_, dp, tp = _li_ints(t)
        dpm = pc_ * (100 - dp)
        chg = dpm * (100 + tp)
        rf = np.asarray(t["l_returnflag"].to_numpy(zero_copy_only=False),
                        dtype="U8")
        ls = np.asarray(t["l_linestatus"].to_numpy(zero_copy_only=False),
                        dtype="U8")
        comb = np.char.add(np.char.add(rf, "|"), ls)
        cells, inv = np.unique(comb, return_inverse=True)
        rows = {nm: [] for nm in part_schema.names}
        for ci, cell in enumerate(cells):
            m = inv == ci
            a, b = cell.split("|")
            rows["rf"].append(a)
            rows["ls"].append(b)
            rows["n"].append(int(m.sum()))
            rows["sq"].append(int(q[m].sum()))
            rows["spc"].append(int(pc_[m].sum()))
            rows["sdpm"].append(int(dpm[m].sum()))
            rows["schg"].append(int(chg[m].sum()))
            rows["sdisc"].append(int(dp[m].sum()))
        return pa.table({nm: pa.array(rows[nm], part_schema.field(nm).type)
                         for nm in part_schema.names})

    ds = read_table(sf_dir, "lineitem", columns=["l_quantity", "l_extendedprice",
                                                 "l_discount", "l_tax", "l_returnflag",
                                                 "l_linestatus", "l_shipdate"])
    parts = ds.map_batches(partials, batch_format="pyarrow").take_all()
    acc: dict = {}
    for r in parts:
        key = (r["rf"], r["ls"])
        c = acc.setdefault(key, [0, 0, 0, 0, 0, 0])
        c[0] += r["n"]; c[1] += r["sq"]; c[2] += r["spc"]
        c[3] += r["sdpm"]; c[4] += r["schg"]; c[5] += r["sdisc"]
    if not acc:
        raise ValueError("pricing_summary: no rows pass the cutoff")
    out = {nm: [] for nm in
           ["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price",
            "sum_disc_price", "sum_charge", "avg_qty", "avg_price",
            "avg_disc", "count_order"]}
    for (a, b) in sorted(acc):
        n, sq, spc, sdpm, schg, sdisc = acc[(a, b)]
        out["l_returnflag"].append(a)
        out["l_linestatus"].append(b)
        out["sum_qty"].append(sq)
        out["sum_base_price"].append(float(spc) / 100.0)
        out["sum_disc_price"].append(float(sdpm) / 10000.0)
        out["sum_charge"].append(float(schg) / 1000000.0)
        out["avg_qty"].append(float(sq) / float(n))
        out["avg_price"].append(float(spc) / float(100 * n))
        out["avg_disc"].append(float(sdisc) / float(100 * n))
        out["count_order"].append(n)
    f4 = ["sum_base_price", "sum_disc_price", "sum_charge",
          "avg_qty", "avg_price", "avg_disc"]
    return pa.table({
        nm: (pa.array(_r4(np.asarray(v, np.float64)))
             if nm in f4 else
             pa.array(v, pa.string() if nm.startswith("l_")
                      else pa.int64()))
        for nm, v in out.items()})


QUERIES["pricing_summary"] = q_pricing_summary

ORACLE_SQL["pricing_summary"] = f"""
WITH x AS (
  SELECT l_returnflag, l_linestatus,
         floor(l_quantity + 0.5)::BIGINT        AS q,
         floor(l_extendedprice*100 + 0.5)::BIGINT AS pc,
         floor(l_discount*100 + 0.5)::BIGINT    AS dp,
         floor(l_tax*100 + 0.5)::BIGINT         AS tp
  FROM lineitem WHERE epoch_us(l_shipdate) <= {Q1_CUTOFF_US}),
g AS (
  SELECT l_returnflag, l_linestatus, count(*)::BIGINT AS n,
         sum(q)::HUGEINT AS sq, sum(pc)::HUGEINT AS spc,
         sum(pc*(100-dp))::HUGEINT AS sdpm,
         sum(pc*(100-dp)*(100+tp))::HUGEINT AS schg,
         sum(dp)::HUGEINT AS sdisc
  FROM x GROUP BY 1, 2)
SELECT l_returnflag, l_linestatus, sq::BIGINT AS sum_qty,
       {_R4.format(expr="spc::DOUBLE / 100.0")} AS sum_base_price,
       {_R4.format(expr="sdpm::DOUBLE / 10000.0")} AS sum_disc_price,
       {_R4.format(expr="schg::DOUBLE / 1000000.0")} AS sum_charge,
       {_R4.format(expr="sq::DOUBLE / n::DOUBLE")} AS avg_qty,
       {_R4.format(expr="spc::DOUBLE / (100*n)::DOUBLE")} AS avg_price,
       {_R4.format(expr="sdisc::DOUBLE / (100*n)::DOUBLE")} AS avg_disc,
       n AS count_order
FROM g ORDER BY 1, 2
"""


def q_revenue_band_q6(sf_dir: str):
    """TPC-H Q6 — the would-be revenue increase probe: Σ price·disc
    over lineitem shipped inside the probe year with the discount in
    the 5–7 pct band and quantity < 24.  Revenue is carried EXACT as
    pc·dp (10⁻⁴ dollars); each batch reduces to ONE (n, Σ) int64
    partial row, folded on the driver in Python ints; the single
    final division is 4dp-gated.  No shuffle, no join — the shape
    that lets a 100 TB scan answer this with nothing but map tasks
    and a 2-integer combine."""
    part_schema = pa.schema([("n", pa.int64()), ("s", pa.int64())])

    def partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        us = _ts_int64(t, "l_shipdate")
        q, pc_, dp, _tp = _li_ints(t)
        keep = ((us >= Q6_LO_US) & (us < Q6_HI_US)
                & (dp >= 5) & (dp <= 7) & (q < 24))
        if not keep.any():
            return part_schema.empty_table()
        return pa.table({"n": pa.array([int(keep.sum())], pa.int64()),
                         "s": pa.array([int((pc_[keep] * dp[keep]).sum())],
                                       pa.int64())})

    ds = read_table(sf_dir, "lineitem", columns=["l_quantity", "l_extendedprice",
                                                 "l_discount", "l_tax", "l_shipdate"])
    parts = ds.map_batches(partials, batch_format="pyarrow").take_all()
    n = sum(r["n"] for r in parts)
    s = sum(r["s"] for r in parts)
    if n == 0:
        raise ValueError("revenue_band_q6: no rows match the band")
    return pa.table({
        "n_items": pa.array([n], pa.int64()),
        "revenue": pa.array(_r4(np.array([float(s) / 10000.0])))})


QUERIES["revenue_band_q6"] = q_revenue_band_q6

ORACLE_SQL["revenue_band_q6"] = f"""
WITH x AS (
  SELECT floor(l_extendedprice*100 + 0.5)::BIGINT AS pc,
         floor(l_discount*100 + 0.5)::BIGINT      AS dp,
         floor(l_quantity + 0.5)::BIGINT          AS q
  FROM lineitem
  WHERE epoch_us(l_shipdate) >= {Q6_LO_US}
    AND epoch_us(l_shipdate) <  {Q6_HI_US})
SELECT count(*)::BIGINT AS n_items,
       {_R4.format(expr="(sum(pc*dp)::HUGEINT)::DOUBLE / 10000.0")}
         AS revenue
FROM x WHERE dp BETWEEN 5 AND 7 AND q < 24
"""


# ---------------------------------------------------------------------
# Wave 28 — three more TPC-H join benchmarks: Q10 (returned-item
# revenue, top-20 customers), Q15 (top supplier by window revenue via
# the max-over-aggregate shape), and the Q22 global-sales-opportunity
# variant (above-average balance, no recent order).  Same exact-money
# discipline as Q1/Q5/Q6: half-up integer cents/pct encodings, int64
# micros through the joins and grouped sums, HUGEINT on the oracle
# side, final divisions 4dp-gated.
# ---------------------------------------------------------------------

Q10_LO_US = 946_684_800_000_000   # 2000-01-01T00:00:00Z
Q10_HI_US = 962_409_600_000_000   # 2000-07-01T00:00:00Z
Q15_LO_US = 946_684_800_000_000   # 2000-01-01T00:00:00Z
Q15_HI_US = 954_547_200_000_000   # 2000-04-01T00:00:00Z
Q22_RECENT_US = 978_307_200_000_000  # 2001-01-01T00:00:00Z


_REV_MICROS_SQL = ("floor(l_extendedprice*100 + 0.5)::BIGINT"
                   " * (100 - floor(l_discount*100 + 0.5)::BIGINT)")


def q_returned_item_revenue(sf_dir: str):
    """TPC-H Q10 — returned-item reporting: the top 20 customers by
    revenue lost to returns (l_returnflag = 'R') on orders placed in
    the probe half-year.  Plan: lineitem reduces per batch to
    (l_orderkey, int64 micros) with only R rows surviving; orders
    reduces to the in-window (o_orderkey, o_custkey); ONE sort-merge
    join + ONE customer-keyed grouped sum are the data-sized
    exchanges; the top 20 come from a per-block (micros desc,
    custkey asc) prefilter so the driver folds ≤ 20 rows per block —
    the boundary tie is decided by the EXACT integer pair both
    engines order identically — and the winners' names/balances
    hydrate through a 20-key broadcast filter over customer.
    revenue and c_acctbal are single divisions of exact integers,
    4dp-gated."""
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.join import sort_merge_join

    li_schema = pa.schema([("l_orderkey", pa.int64()),
                           ("micros", pa.int64())])

    def prep_li(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return li_schema.empty_table()
        rf = t["l_returnflag"].to_numpy(zero_copy_only=False)
        keep = rf == "R"
        if not keep.any():
            return li_schema.empty_table()
        p = _non_null_numpy(t, "l_extendedprice")[keep]
        d = _non_null_numpy(t, "l_discount")[keep]
        mic = np.floor(p * 100 + 0.5).astype(np.int64) \
            * (100 - np.floor(d * 100 + 0.5).astype(np.int64))
        k = _non_null_numpy(t, "l_orderkey")[keep]
        return pa.table({"l_orderkey": pa.array(k.astype(np.int64)),
                         "micros": pa.array(mic)})

    ord_schema = pa.schema([("o_orderkey", pa.int64()),
                            ("o_custkey", pa.int64())])

    def prep_orders(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return ord_schema.empty_table()
        us = _ts_int64(t, "o_orderdate")
        keep = (us >= Q10_LO_US) & (us < Q10_HI_US)
        if not keep.any():
            return ord_schema.empty_table()
        return pa.table({
            "o_orderkey": t["o_orderkey"].filter(pa.array(keep)),
            "o_custkey": t["o_custkey"].filter(pa.array(keep))})

    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice",
                                                 "l_discount", "l_returnflag"]) \
        .map_batches(prep_li, batch_format="pyarrow")
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey",
                                                   "o_orderdate"]) \
        .map_batches(prep_orders, batch_format="pyarrow")

    j = sort_merge_join(li, orders, "l_orderkey", "o_orderkey",
                        left_schema=li_schema, right_schema=ord_schema,
                        partitions=8)

    proj_schema = pa.schema([("c_custkey", pa.int64()),
                             ("micros", pa.int64())])

    proj = shape(proj_schema, rename={"c_custkey": "o_custkey"})

    agg = sorted_groupby_agg(
        j.map_batches(proj, batch_format="pyarrow"),
        ["c_custkey"], [("micros", "sum", "micros")],
        in_schema=proj_schema)

    def block_top(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "micros" not in t.column_names:
            return proj_schema.empty_table()
        mic = _non_null_numpy(t, "micros").astype(np.int64)
        ck = _non_null_numpy(t, "c_custkey").astype(np.int64)
        order = np.lexsort((ck, -mic))[:20]
        return pa.table({"c_custkey": pa.array(ck[order]),
                         "micros": pa.array(mic[order])})

    cand = agg.map_batches(block_top, batch_format="pyarrow").take_all()
    if not cand:
        raise ValueError("returned_item_revenue: no returned revenue")
    mic = np.array([r["micros"] for r in cand], np.int64)
    ck = np.array([r["c_custkey"] for r in cand], np.int64)
    order = np.lexsort((ck, -mic))[:20]
    win_k, win_m = ck[order], mic[order]
    kset = set(int(x) for x in win_k)

    hyd_schema = pa.schema([("c_custkey", pa.int64()),
                            ("c_name", pa.string()),
                            ("c_acctbal", pa.float64())])

    def hyd(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return hyd_schema.empty_table()
        k = t["c_custkey"].to_numpy(zero_copy_only=False)
        keep = np.isin(k, list(kset))
        if not keep.any():
            return hyd_schema.empty_table()
        return pa.table({
            "c_custkey": t["c_custkey"].filter(pa.array(keep)),
            "c_name": t["c_name"].filter(pa.array(keep)),
            "c_acctbal": t["c_acctbal"].filter(pa.array(keep))})

    rows = read_table(sf_dir, "customer", columns=["c_custkey", "c_name", "c_acctbal"]) \
        .map_batches(hyd, batch_format="pyarrow").take_all()
    name = {r["c_custkey"]: r["c_name"] for r in rows}
    bal = {r["c_custkey"]: r["c_acctbal"] for r in rows}
    bal_c = {k: int(np.floor(v * 100 + 0.5)) for k, v in bal.items()}
    return pa.table({
        "c_custkey": pa.array(win_k),
        "c_name": pa.array([name[int(k)] for k in win_k], pa.string()),
        "c_acctbal": pa.array(_r4(np.array(
            [float(bal_c[int(k)]) / 100.0 for k in win_k]))),
        "revenue": pa.array(_r4(win_m.astype(np.float64) / 10000.0))})


QUERIES["returned_item_revenue"] = q_returned_item_revenue

ORACLE_SQL["returned_item_revenue"] = f"""
WITH l AS (SELECT l_orderkey, {_REV_MICROS_SQL} AS micros
           FROM lineitem WHERE l_returnflag = 'R'),
o AS (SELECT o_orderkey, o_custkey FROM orders
      WHERE epoch_us(o_orderdate) >= {Q10_LO_US}
        AND epoch_us(o_orderdate) <  {Q10_HI_US}),
r AS (SELECT o_custkey, sum(micros)::BIGINT AS mic
      FROM l JOIN o ON l_orderkey = o_orderkey GROUP BY 1),
t AS (SELECT o_custkey, mic FROM r
      ORDER BY mic DESC, o_custkey LIMIT 20)
SELECT c_custkey, c_name,
       {_R4.format(
           expr="floor(c_acctbal*100 + 0.5)::BIGINT::DOUBLE / 100.0")}
         AS c_acctbal,
       {_R4.format(expr="mic::DOUBLE / 10000.0")} AS revenue
FROM t JOIN customer ON o_custkey = c_custkey
"""


def q_top_supplier_revenue(sf_dir: str):
    """TPC-H Q15 — top supplier: the supplier(s) whose in-window
    revenue equals the global maximum (the max-over-aggregate shape
    the reference writes as a view + equality).  ONE supplier-keyed
    grouped sum of int64 micros is the only data-sized exchange; the
    global max folds from per-block single-row partials (exact
    integers, so 'equals the max' is tie-robust where float revenue
    would not be); winners hydrate s_name through a tiny broadcast
    filter.  total_revenue is the single 4dp-gated division."""
    from ..stages.aggregates import sorted_groupby_agg

    li_schema = pa.schema([("s_suppkey", pa.int64()),
                           ("micros", pa.int64())])

    def prep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return li_schema.empty_table()
        us = _ts_int64(t, "l_shipdate")
        keep = (us >= Q15_LO_US) & (us < Q15_HI_US)
        if not keep.any():
            return li_schema.empty_table()
        p = _non_null_numpy(t, "l_extendedprice")[keep]
        d = _non_null_numpy(t, "l_discount")[keep]
        mic = np.floor(p * 100 + 0.5).astype(np.int64) \
            * (100 - np.floor(d * 100 + 0.5).astype(np.int64))
        k = _non_null_numpy(t, "l_suppkey")[keep]
        return pa.table({"s_suppkey": pa.array(k.astype(np.int64)),
                         "micros": pa.array(mic)})

    agg = sorted_groupby_agg(
        read_table(sf_dir, "lineitem", columns=["l_suppkey", "l_extendedprice",
                                                "l_discount", "l_shipdate"]) \
            .map_batches(prep, batch_format="pyarrow"),
        ["s_suppkey"], [("micros", "sum", "micros")],
        in_schema=li_schema).materialize()

    max_schema = pa.schema([("m", pa.int64())])

    def block_max(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "micros" not in t.column_names:
            return max_schema.empty_table()
        return pa.table({"m": pa.array(
            [int(t["micros"].to_numpy(zero_copy_only=False).max())],
            pa.int64())})

    parts = agg.map_batches(block_max, batch_format="pyarrow").take_all()
    if not parts:
        raise ValueError("top_supplier_revenue: no revenue in window")
    m = max(r["m"] for r in parts)

    win_schema = pa.schema([("s_suppkey", pa.int64()),
                            ("micros", pa.int64())])

    def winners(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "micros" not in t.column_names:
            return win_schema.empty_table()
        mic = t["micros"].to_numpy(zero_copy_only=False)
        keep = mic == m
        if not keep.any():
            return win_schema.empty_table()
        return pa.table({
            "s_suppkey": t["s_suppkey"].filter(pa.array(keep))
            .cast(pa.int64()),
            "micros": t["micros"].filter(pa.array(keep))
            .cast(pa.int64())})

    rows = agg.map_batches(winners, batch_format="pyarrow").take_all()
    keys = sorted(r["s_suppkey"] for r in rows)
    kset = set(keys)
    mics = {r["s_suppkey"]: r["micros"] for r in rows}

    def hyd(t: pa.Table) -> pa.Table:
        sch = pa.schema([("s_suppkey", pa.int64()),
                         ("s_name", pa.string())])
        if t.num_rows == 0:
            return sch.empty_table()
        k = t["s_suppkey"].to_numpy(zero_copy_only=False)
        keep = np.isin(k, list(kset))
        if not keep.any():
            return sch.empty_table()
        return pa.table({
            "s_suppkey": t["s_suppkey"].filter(pa.array(keep)),
            "s_name": t["s_name"].filter(pa.array(keep))})

    sup = read_table(sf_dir, "supplier", columns=["s_suppkey", "s_name"])
    nm = {r["s_suppkey"]: r["s_name"]
          for r in sup.map_batches(hyd, batch_format="pyarrow").take_all()}
    return pa.table({
        "s_suppkey": pa.array(keys, pa.int64()),
        "s_name": pa.array([nm[k] for k in keys], pa.string()),
        "total_revenue": pa.array(_r4(np.array(
            [float(mics[k]) / 10000.0 for k in keys])))})


QUERIES["top_supplier_revenue"] = q_top_supplier_revenue

ORACLE_SQL["top_supplier_revenue"] = f"""
WITH r AS (SELECT l_suppkey, sum({_REV_MICROS_SQL})::BIGINT AS mic
           FROM lineitem
           WHERE epoch_us(l_shipdate) >= {Q15_LO_US}
             AND epoch_us(l_shipdate) <  {Q15_HI_US}
           GROUP BY 1)
SELECT s_suppkey, s_name,
       {_R4.format(expr="mic::DOUBLE / 10000.0")} AS total_revenue
FROM r JOIN supplier ON l_suppkey = s_suppkey
WHERE mic = (SELECT max(mic) FROM r)
"""


def q_cust_sales_opportunity(sf_dir: str):
    """TPC-H Q22 (variant) — global sales opportunity: per nation,
    how many customers hold an above-average positive balance yet
    placed NO order since the recency cutoff, and their total
    balance.  The above-average test is EXACT: pass 1 folds (N, Σ)
    over positive balance-cents from per-batch int64 partials, and a
    customer qualifies iff cents·N > Σ — an all-integer comparison
    both engines evaluate identically (loud contract: N·max_cents
    must fit int64; at 10¹² customers switch the filter to object
    dtype).  Recent orders reduce to keys; ONE anti sort-merge join
    (SQL NOT EXISTS) is the data-sized exchange; the nation-keyed
    grouped count/sum is 25-bounded.  totacctbal is the single
    4dp-gated division."""
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.join import sort_merge_join

    cust_cols = read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey",
                                                        "c_acctbal"])

    part_schema = pa.schema([("n", pa.int64()), ("s", pa.int64())])

    def pos_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        cents = np.floor(_non_null_numpy(t, "c_acctbal")
                         * 100 + 0.5).astype(np.int64)
        pos = cents > 0
        return pa.table({"n": pa.array([int(pos.sum())], pa.int64()),
                         "s": pa.array([int(cents[pos].sum())],
                                       pa.int64())})

    parts = cust_cols.map_batches(
        pos_partial, batch_format="pyarrow").take_all()
    n_pos = sum(r["n"] for r in parts)
    s_pos = sum(r["s"] for r in parts)
    if n_pos == 0:
        raise ValueError("cust_sales_opportunity: no positive balances")

    f_schema = pa.schema([("c_custkey", pa.int64()),
                          ("c_nationkey", pa.int64()),
                          ("cents", pa.int64())])

    def above_avg(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return f_schema.empty_table()
        cents = np.floor(_non_null_numpy(t, "c_acctbal")
                         * 100 + 0.5).astype(np.int64)
        keep = cents * n_pos > s_pos
        if not keep.any():
            return f_schema.empty_table()
        return pa.table({
            "c_custkey": t["c_custkey"].filter(pa.array(keep))
            .cast(pa.int64()),
            "c_nationkey": t["c_nationkey"].filter(pa.array(keep))
            .cast(pa.int64()),
            "cents": pa.array(cents[keep])})

    rich = cust_cols.map_batches(above_avg, batch_format="pyarrow")

    ro_schema = pa.schema([("o_custkey", pa.int64())])

    def recent(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return ro_schema.empty_table()
        us = _ts_int64(t, "o_orderdate")
        keep = us >= Q22_RECENT_US
        if not keep.any():
            return ro_schema.empty_table()
        return pa.table({"o_custkey":
                         t["o_custkey"].filter(pa.array(keep))
                         .cast(pa.int64())})

    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_orderdate"]).map_batches(
        recent, batch_format="pyarrow")

    anti = sort_merge_join(rich, orders, "c_custkey", "o_custkey",
                           how="anti", left_schema=f_schema,
                           right_schema=ro_schema, partitions=8)

    g_schema = pa.schema([("c_nationkey", pa.int64()),
                          ("one", pa.int64()), ("cents", pa.int64())])

    def tag(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "cents" not in t.column_names:
            return g_schema.empty_table()
        return pa.table({
            "c_nationkey": t["c_nationkey"].cast(pa.int64()),
            "one": pa.array(np.ones(t.num_rows, np.int64)),
            "cents": t["cents"].cast(pa.int64())})

    agg = sorted_groupby_agg(
        anti.map_batches(tag, batch_format="pyarrow"),
        ["c_nationkey"], [("one", "sum", "numcust"),
                          ("cents", "sum", "cents")],
        in_schema=g_schema)

    def fin(t: pa.Table) -> pa.Table:
        sch = pa.schema([("c_nationkey", pa.int64()),
                         ("numcust", pa.int64()),
                         ("totacctbal", pa.float64())])
        if t.num_rows == 0 or "cents" not in t.column_names:
            return sch.empty_table()
        c = t["cents"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({"c_nationkey": t["c_nationkey"].cast(pa.int64()),
                         "numcust": t["numcust"].cast(pa.int64()),
                         "totacctbal": pa.array(_r4(c / 100.0))})

    return agg.map_batches(fin, batch_format="pyarrow")


QUERIES["cust_sales_opportunity"] = q_cust_sales_opportunity

ORACLE_SQL["cust_sales_opportunity"] = f"""
WITH c AS (SELECT c_custkey, c_nationkey,
                  floor(c_acctbal*100 + 0.5)::BIGINT AS cents
           FROM customer),
pos AS (SELECT count(*)::BIGINT AS n, sum(cents)::BIGINT AS s
        FROM c WHERE cents > 0),
f AS (SELECT c.c_custkey, c.c_nationkey, c.cents FROM c, pos
      WHERE c.cents * pos.n > pos.s
        AND NOT EXISTS (SELECT 1 FROM orders
                        WHERE o_custkey = c.c_custkey
                          AND epoch_us(o_orderdate) >= {Q22_RECENT_US}))
SELECT c_nationkey, count(*)::BIGINT AS numcust,
       {_R4.format(expr="(sum(cents)::BIGINT)::DOUBLE / 100.0")}
         AS totacctbal
FROM f GROUP BY 1
"""


# ---------------------------------------------------------------------
# Wave 29 — TPC-H Q7 (volume shipping between two nations) and Q14
# (promotion revenue share): the bidirectional-pair join benchmark and
# the two-sum ratio probe, completing the TPC-H set expressible over
# these tables (Q2/Q9/Q11/Q16/Q20 need partsupp, Q12 needs
# commit/receipt dates, Q17/Q19 need container/size predicates with
# no analogue here; Q3/Q5/Q8/Q13/Q18 were registered in earlier
# waves).  Same exact-integer money discipline throughout.
# ---------------------------------------------------------------------

Q7_NATION_A = 18  # NATION_18 — pair chosen for bidirectional
Q7_NATION_B = 19  # NATION_19   volume at EVERY sf tier incl. 0.001
Q14_LO_US = 967_766_400_000_000   # 2000-09-01T00:00:00Z
Q14_HI_US = 970_358_400_000_000   # 2000-10-01T00:00:00Z


def q_nation_volume_shipping(sf_dir: str):
    """TPC-H Q7 — volume shipping: revenue flowing between two
    nations in BOTH directions (supplier in one, customer in the
    other), per supp_nation × cust_nation × ship year.  Plan mirrors
    Q5's chain: lineitem reduces per batch to (orderkey, suppkey,
    int64 micros, year-from-exact-integer-µs); three sort-merge
    joins (orders, customer, supplier) are the only data-sized
    exchanges; the direction filter is a pure vectorized predicate
    over the two nationkey columns; the grouped sum is bounded by
    2 × #years cells.  revenue is the single 4dp-gated division."""
    from ..stages.aggregates import sorted_groupby_agg
    from ..stages.join import sort_merge_join

    li_schema = pa.schema([("l_orderkey", pa.int64()),
                           ("l_suppkey", pa.int64()),
                           ("micros", pa.int64()),
                           ("l_year", pa.int64())])

    def prep_li(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return li_schema.empty_table()
        us = _ts_int64(t, "l_shipdate")
        year = (us.astype("datetime64[us]")
                .astype("datetime64[Y]").astype(np.int64) + 1970)
        p = _non_null_numpy(t, "l_extendedprice")
        d = _non_null_numpy(t, "l_discount")
        mic = np.floor(p * 100 + 0.5).astype(np.int64) \
            * (100 - np.floor(d * 100 + 0.5).astype(np.int64))
        return pa.table({
            "l_orderkey": t["l_orderkey"].cast(pa.int64()),
            "l_suppkey": t["l_suppkey"].cast(pa.int64()),
            "micros": pa.array(mic), "l_year": pa.array(year)})

    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_suppkey",
                                                 "l_extendedprice", "l_discount",
                                                 "l_shipdate"]) \
        .map_batches(prep_li, batch_format="pyarrow")
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    supp = read_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])

    j1 = sort_merge_join(li, orders, "l_orderkey", "o_orderkey",
                         left_schema=li_schema, partitions=8)
    j1_schema = pa.schema(list(li_schema)
                          + [pa.field("o_custkey", pa.int64())])
    j2 = sort_merge_join(j1, cust, "o_custkey", "c_custkey",
                         left_schema=j1_schema, partitions=8)
    j2_schema = pa.schema(list(j1_schema)
                          + [pa.field("c_nationkey", pa.int64())])
    j3 = sort_merge_join(j2, supp, "l_suppkey", "s_suppkey",
                         left_schema=j2_schema, partitions=8)

    part_schema = pa.schema([("supp_nation", pa.string()),
                             ("cust_nation", pa.string()),
                             ("l_year", pa.int64()),
                             ("micros", pa.int64()),
                             ("one", pa.int64())])
    a, b = Q7_NATION_A, Q7_NATION_B
    names = {r["n_nationkey"]: r["n_name"] for r in read_table(
        sf_dir, "nation", columns=["n_nationkey", "n_name"]).take_all()
        if r["n_nationkey"] in (a, b)}

    def direction(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "c_nationkey" not in t.column_names:
            return part_schema.empty_table()
        cn = t["c_nationkey"].to_numpy(zero_copy_only=False)
        sn = t["s_nationkey"].to_numpy(zero_copy_only=False)
        keep = ((sn == a) & (cn == b)) | ((sn == b) & (cn == a))
        if not keep.any():
            return part_schema.empty_table()
        sn, cn = sn[keep], cn[keep]
        return pa.table({
            "supp_nation": pa.array([names[int(x)] for x in sn],
                                    pa.string()),
            "cust_nation": pa.array([names[int(x)] for x in cn],
                                    pa.string()),
            "l_year": t["l_year"].filter(pa.array(keep))
            .cast(pa.int64()),
            "micros": t["micros"].filter(pa.array(keep))
            .cast(pa.int64()),
            "one": pa.array(np.ones(int(keep.sum()), np.int64))})

    agg = sorted_groupby_agg(
        j3.map_batches(direction, batch_format="pyarrow"),
        ["supp_nation", "cust_nation", "l_year"],
        [("one", "sum", "n_items"), ("micros", "sum", "micros")],
        in_schema=part_schema)

    def fin(t: pa.Table) -> pa.Table:
        sch = pa.schema([("supp_nation", pa.string()),
                         ("cust_nation", pa.string()),
                         ("l_year", pa.int64()),
                         ("n_items", pa.int64()),
                         ("revenue", pa.float64())])
        if t.num_rows == 0 or "micros" not in t.column_names:
            return sch.empty_table()
        m = t["micros"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        return pa.table({"supp_nation": t["supp_nation"],
                         "cust_nation": t["cust_nation"],
                         "l_year": t["l_year"].cast(pa.int64()),
                         "n_items": t["n_items"].cast(pa.int64()),
                         "revenue": pa.array(_r4(m / 10000.0))})

    return agg.map_batches(fin, batch_format="pyarrow")


QUERIES["nation_volume_shipping"] = q_nation_volume_shipping

ORACLE_SQL["nation_volume_shipping"] = f"""
WITH v AS (
  SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
         year(l_shipdate)::BIGINT AS l_year,
         {_REV_MICROS_SQL} AS micros
  FROM lineitem
  JOIN orders   ON l_orderkey = o_orderkey
  JOIN customer ON o_custkey = c_custkey
  JOIN supplier ON l_suppkey = s_suppkey
  JOIN nation n1 ON s_nationkey = n1.n_nationkey
  JOIN nation n2 ON c_nationkey = n2.n_nationkey
  WHERE (n1.n_nationkey = {Q7_NATION_A}
         AND n2.n_nationkey = {Q7_NATION_B})
     OR (n1.n_nationkey = {Q7_NATION_B}
         AND n2.n_nationkey = {Q7_NATION_A}))
SELECT supp_nation, cust_nation, l_year, count(*)::BIGINT AS n_items,
       {_R4.format(expr="(sum(micros)::BIGINT)::DOUBLE / 10000.0")}
         AS revenue
FROM v GROUP BY 1, 2, 3
"""


def q_promo_revenue_share(sf_dir: str):
    """TPC-H Q14 — promotion effect: the percentage of the probe
    month's revenue from PROMO-type parts.  lineitem reduces per
    batch to the in-window (l_partkey, int64 micros); ONE sort-merge
    join against part's (p_partkey, p_type) is the data-sized
    exchange; each joined batch folds to a (promo, total) int64
    partial pair and the driver holds two Python ints.  The share is
    the oracle's exact expression 100.0 · promo / total evaluated
    over identical exact integers on both engines, 4dp-gated."""
    from ..stages.join import sort_merge_join

    li_schema = pa.schema([("l_partkey", pa.int64()),
                           ("micros", pa.int64())])

    def prep_li(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return li_schema.empty_table()
        us = _ts_int64(t, "l_shipdate")
        keep = (us >= Q14_LO_US) & (us < Q14_HI_US)
        if not keep.any():
            return li_schema.empty_table()
        p = _non_null_numpy(t, "l_extendedprice")[keep]
        d = _non_null_numpy(t, "l_discount")[keep]
        mic = np.floor(p * 100 + 0.5).astype(np.int64) \
            * (100 - np.floor(d * 100 + 0.5).astype(np.int64))
        k = _non_null_numpy(t, "l_partkey")[keep]
        return pa.table({"l_partkey": pa.array(k.astype(np.int64)),
                         "micros": pa.array(mic)})

    li = read_table(sf_dir, "lineitem", columns=["l_partkey", "l_extendedprice",
                                                 "l_discount", "l_shipdate"]) \
        .map_batches(prep_li, batch_format="pyarrow")
    part = read_table(sf_dir, "part", columns=["p_partkey", "p_type"])
    j = sort_merge_join(li, part, "l_partkey", "p_partkey",
                        left_schema=li_schema, partitions=8)

    part_schema = pa.schema([("promo", pa.int64()),
                             ("total", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "p_type" not in t.column_names:
            return part_schema.empty_table()
        mic = t["micros"].to_numpy(zero_copy_only=False)
        ty = t["p_type"].to_numpy(zero_copy_only=False)
        is_promo = ty.astype(object) == "PROMO"
        return pa.table({
            "promo": pa.array([int(mic[is_promo].sum())], pa.int64()),
            "total": pa.array([int(mic.sum())], pa.int64())})

    rows = j.map_batches(partial, batch_format="pyarrow").take_all()
    promo = sum(r["promo"] for r in rows)
    total = sum(r["total"] for r in rows)
    if total == 0:
        raise ValueError("promo_revenue_share: no revenue in window")
    return pa.table({
        "promo_micros": pa.array([promo], pa.int64()),
        "total_micros": pa.array([total], pa.int64()),
        "promo_share": pa.array(_r4(np.array(
            [100.0 * float(promo) / float(total)])))})


QUERIES["promo_revenue_share"] = q_promo_revenue_share

ORACLE_SQL["promo_revenue_share"] = f"""
WITH v AS (
  SELECT {_REV_MICROS_SQL} AS micros, p_type
  FROM lineitem JOIN part ON l_partkey = p_partkey
  WHERE epoch_us(l_shipdate) >= {Q14_LO_US}
    AND epoch_us(l_shipdate) <  {Q14_HI_US})
SELECT sum(CASE WHEN p_type = 'PROMO' THEN micros ELSE 0 END)::BIGINT
         AS promo_micros,
       sum(micros)::BIGINT AS total_micros,
       {_R4.format(
           expr="100.0 * sum(CASE WHEN p_type = 'PROMO' THEN micros "
                "ELSE 0 END)::BIGINT::DOUBLE "
                "/ (sum(micros)::BIGINT)::DOUBLE")} AS promo_share
FROM v
"""
