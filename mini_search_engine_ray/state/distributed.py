"""Multi-part query serving: doc-partitioned scatter-gather.

A single `IndexSearcher` opens the WHOLE index — right up to the point
where the index outgrows one node's page cache / local disk. Here the
corpus is partitioned BY DOC into P independent sub-indexes (each
built by `build_index`), and a query is answered over the parts in the
reference's per-segment two passes (`InvertedIndexManager.java:
1351-1449`), generalized from segments to parts:

  pass 1 (df exchange)  each part reports local df for the query's
                        terms; the ranker sums them into GLOBAL df.
  pass 2 (score+gather) each part scores ITS docs with the global
                        (idf, N, avgdl) and returns its local top-k;
                        the ranker merges them with the single index's
                        `_topk` (score desc, doc_id asc).

The ranking is ONE in-process class, `PartsSearcher`, holding a list of
`PartitionSearcher` parts that it reaches only through
`_each(method, *args)`. `DistributedSearcher` is only a Ray transport
over it: its parts are `ray.remote(PartitionSearcher)` actors, one per
partition, and its `_each` scatters the call and gathers the results.

Exactness: a doc's postings for ALL terms live in its own part, so
per-doc scores are complete locally and — summed in the ranker's term
order — bitwise equal to a single-index search (tested). A doc in the
global top-k is in its part's local top-k, so merging loses nothing; a
negative k (the full order minus its last |k|) is cut once, in the
merge. Per query the actors exchange P small df dicts and P result
sets of at most k rows, independent of posting-list sizes.
`search_bm25_many` pays those two round trips once per BATCH of
queries (one df exchange for the union of uncached terms, one call per
part carrying every query); `search_bm25` is its batch of one.
"""

from __future__ import annotations

import json
import os
import numpy as np

from ..functions.analyzers import is_dictionary_analyzer, make_analyzer
from .searcher import (
    IndexSearcher,
    _topk,
    bm25_query_weights,
    query_tokens,
    tfidf_query_weights,
)

ROOT_META_FILE = "root_meta.json"


def partition_dir(root_dir: str, part: int) -> str:
    return os.path.join(root_dir, f"part-{part:04d}")


def build_partitioned_index(
    corpus_ds,
    root_dir: str,
    *,
    n_partitions: int = 4,
    fingerprint: str = "",
    **build_kwargs,
) -> dict:
    """Partition the corpus by doc_id hash and build one sub-index per
    partition (each a full `build_index` product: term-sharded, salted,
    resumable). Returns the root meta dict.

    Scale shape: ONE corpus scan writes hive-partitioned parquet
    (`part=<p>/`), then each partition build reads only its partition —
    partition builds are independent, individually resumable jobs (a
    failed run re-submits and skips completed partitions via the
    per-shard manifests). Partitioning is `doc_id % P` for balance;
    any doc-disjoint assignment works.
    """
    import pyarrow as pa
    import ray.data as rd

    os.makedirs(root_dir, exist_ok=True)
    P = int(n_partitions)
    part_root = os.path.join(root_dir, "corpus_by_part")

    marker = os.path.join(part_root, "_COMMITTED.json")
    part_fp = f"{fingerprint}:P={P}"
    committed = False
    if os.path.exists(marker):
        try:
            with open(marker) as f:
                committed = json.load(f).get("fingerprint") == part_fp
        except Exception:
            committed = False
    if not committed:
        import shutil

        shutil.rmtree(part_root, ignore_errors=True)

        def add_part(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            return t.append_column("part", pa.array((ids % P).astype(np.int32)))

        corpus_ds.map_batches(add_part, batch_format="pyarrow").write_parquet(
            part_root, partition_cols=["part"]
        )
        os.makedirs(part_root, exist_ok=True)
        with open(marker + ".tmp", "w") as f:
            json.dump({"fingerprint": part_fp}, f)
        os.replace(marker + ".tmp", marker)

    from ..pipelines.build import build_index
    from ..sources.corpus import corpus_num_rows, read_corpus

    # partition-local docstores (one per sub-index) enable hydrated
    # serving — each partition can look up ITS OWN docs' content in the
    # same scatter that scores them; off by default (serving ids+scores
    # needs no content copy)
    write_docstore = bool(build_kwargs.pop("write_docstore", False))
    metas = []
    for p in range(P):
        pdir = os.path.join(part_root, f"part={p}")
        if os.path.isdir(pdir):
            # the row count from the footers: no count() pass
            pds, n_local = read_corpus(pdir), corpus_num_rows(pdir)
        else:  # a partition can be empty under skewed/small corpora
            pds = rd.from_arrow(
                pa.table({"doc_id": pa.array([], pa.int64()),
                          "content": pa.array([], pa.large_string())})
            )
            n_local = 0
        metas.append(
            build_index(
                pds,
                partition_dir(root_dir, p),
                n_docs=n_local,
                # docstore presence is part of the build product: keep
                # it out of the default fingerprint (existing caches
                # stay valid) but distinguish hydratable builds so a
                # cached docstore-less build is never resumed-skipped
                # when hydration was requested
                fingerprint=f"{fingerprint}:part{p}"
                + (":docstore" if write_docstore else ""),
                write_docstore=write_docstore,
                **build_kwargs,
            )
        )

    n_docs = sum(m["n_docs"] for m in metas)
    total_tokens = sum(m["total_tokens"] for m in metas)
    root_meta = {
        "n_partitions": P,
        "n_docs": int(n_docs),
        "total_tokens": int(total_tokens),
        "avgdl": (total_tokens / n_docs) if n_docs else 0.0,
        "analyzer": metas[0]["analyzer"],
        "wordbreak_dict_path": metas[0].get("wordbreak_dict_path"),
        "fingerprint": part_fp,
        "n_postings": sum(m["n_postings"] for m in metas),
    }
    tmp = os.path.join(root_dir, ROOT_META_FILE + ".tmp")
    with open(tmp, "w") as f:
        json.dump(root_meta, f, indent=1)
    os.replace(tmp, os.path.join(root_dir, ROOT_META_FILE))
    return root_meta


def load_root_meta(root_dir: str) -> dict:
    with open(os.path.join(root_dir, ROOT_META_FILE)) as f:
        return json.load(f)


class PartitionSearcher:
    """One part: an `IndexSearcher` over ONE partition with its stats
    overridden to the GLOBAL (N, avgdl) so BM25/tf·idf terms normalize
    identically across parts. `PartsSearcher` holds it in process;
    `DistributedSearcher` runs it as a Ray actor via
    `ray.remote(PartitionSearcher)`."""

    def __init__(self, part_dir: str, global_n_docs: int, global_avgdl: float) -> None:
        self.s = IndexSearcher(part_dir)
        self.s.n_docs = int(global_n_docs)
        self.s.avgdl = float(global_avgdl) or 1.0

    def local_dfs(self, terms: list[str]) -> dict[str, int]:
        return {t: self.s.df(t) for t in terms}

    def search_bm25_weighted_many(self, batch, k, prune: bool, hydrate: bool):
        """Score a whole batch of queries in one call: `batch` is a
        list of term-weight triple lists (one per query). With
        `hydrate` each result also carries the matching documents from
        THIS part's docstore — (doc_ids, scores, contents) aligned by
        position — so hydration needs no second round trip (the J4
        docID->Document lookup of `InvertedIndexManager.java:912-914`,
        done scatter-side)."""
        out = [self.s.search_bm25_weighted(tw, k, prune=prune) for tw in batch]
        return [self._hydrate(*r) for r in out] if hydrate else out

    def _hydrate(self, ids, scores):
        if len(ids) == 0:
            return ids, scores, []
        tbl = self.s.get_documents(ids)
        by_id = dict(zip(tbl["doc_id"].to_pylist(), tbl["content"].to_pylist()))
        return ids, scores, [by_id.get(int(i)) for i in ids]

    def search_tfidf_weighted(self, term_weights, top_k):
        return self.s.search_tfidf_weighted(term_weights, top_k)

    def search_boolean(self, kind: str, arg):
        """Part-local boolean search. Doc-partitioning means a doc's
        postings for EVERY term live here, so keyword/AND/OR/phrase
        need no cross-part exchange at all — the result is exactly this
        part's slice of the global answer."""
        fn = {
            "keyword": self.s.search_keyword,
            "and": self.s.search_and,
            "or": self.s.search_or,
            "phrase": self.s.search_phrase,
            "prefix": self.s.search_prefix,
            "wildcard": self.s.search_wildcard,
            "not": lambda a: self.s.search_not(a[0], a[1]),
            "near": lambda a: self.s.search_near(a[0], slop=a[1]),
            "fuzzy": lambda a: self.s.search_fuzzy(a[0], max_edits=a[1]),
        }[kind]
        return fn(arg)


def _part_k(k: int | None) -> int | None:
    """The k each part ranks by: a negative k cuts the last |k| of the
    MERGED order, so the parts return every match for it."""
    return None if k is not None and k < 0 else k


def _gather_topk(results, k: int | None, hydrate: bool = False):
    """Merge the parts' (doc_ids, scores[, contents]) into the first k
    of (score desc, doc_id asc) — the single index's `_topk` over the
    union, which is exact since the parts are doc-disjoint."""
    docs = np.concatenate([np.asarray(r[0], dtype=np.int64) for r in results])
    scores = np.concatenate([np.asarray(r[1], dtype=np.float64) for r in results])
    ids, top = _topk(docs, scores, k)
    if not hydrate:
        return ids, top
    content = dict(zip(docs.tolist(), (c for r in results for c in r[2])))
    return ids, top, [content[i] for i in ids.tolist()]


class PartsSearcher:
    """The multi-part ranker, in process: global df exchange ->
    part-local scoring with global idf -> top-k merge, over the
    `PartitionSearcher` parts of a `build_partitioned_index` root.

    Results are bitwise-identical to a single-index `IndexSearcher`
    over the unpartitioned corpus (tested, incl. partition-count
    invariance): global stats, ranker-fixed term order, and the shared
    (score desc, doc_id asc) tie rule make every part score its docs
    exactly as the single index would. Every part is reached through
    `_each`, which a transport (`DistributedSearcher`) overrides.
    """

    def __init__(self, root_dir: str) -> None:
        meta = load_root_meta(root_dir)
        self.n_docs = int(meta["n_docs"])
        self.avgdl = float(meta["avgdl"]) or 1.0
        an = meta["analyzer"]
        an_kw = {"dict_path": meta["wordbreak_dict_path"]} if is_dictionary_analyzer(an) else {}
        self.analyzer = make_analyzer(an, **an_kw)
        self.parts = self._open_parts(
            [partition_dir(root_dir, p) for p in range(int(meta["n_partitions"]))])
        # the index is immutable, so a term's GLOBAL df is a constant:
        # cache it and pay the pass-1 exchange once per distinct term
        self._df_cache: dict[str, int] = {}
        self._tokens: dict[str, tuple[str, ...]] = {}  # keyword -> analyzed tokens

    def _open_parts(self, part_dirs: list[str]) -> list:
        return [PartitionSearcher(d, self.n_docs, self.avgdl) for d in part_dirs]

    def _each(self, method: str, *args) -> list:
        """`method(*args)` on every part, results in part order."""
        return [getattr(p, method)(*args) for p in self.parts]

    def shutdown(self) -> None:
        self.parts = []

    def _global_dfs(self, terms: list[str]) -> dict[str, int]:
        dfs = {t: self._df_cache[t] for t in terms if t in self._df_cache}
        missing = [t for t in terms if t not in dfs]
        if missing:
            per_part = self._each("local_dfs", missing)
            for t in missing:
                dfs[t] = sum(d[t] for d in per_part)
                if len(self._df_cache) < 1_000_000:
                    self._df_cache[t] = dfs[t]
        return dfs

    def search_bm25(self, query, k: int | None = 10, *, prune: bool = True,
                    hydrate: bool = False):
        """Multi-part BM25 top-k: df exchange -> part-local scoring
        with global idf -> top-k merge.

        ``hydrate=True`` additionally returns the result documents'
        content as a third element, looked up from each part's LOCAL
        docstore inside the same scoring call (one round trip; requires
        `build_partitioned_index(..., write_docstore=True)`). Each part
        hydrates its local top-k — a superset of its contribution to
        the global top-k — so the merge has every winner's content
        already in hand."""
        return self._bm25_batch([query], k, prune, hydrate)[0]

    def search_bm25_many(self, queries, k: int | None = 10, *, prune: bool = True):
        """Batched multi-part BM25: ONE df exchange for the union of
        all queries' uncached terms + ONE call per part carrying every
        query — 2 round trips total for the whole batch instead of 2
        per query. Returns a list of (doc_ids, scores) in query order,
        each identical to `search_bm25(q, k)` (tested)."""
        return self._bm25_batch(queries, k, prune, False)

    def _bm25_batch(self, queries, k, prune: bool, hydrate: bool):
        toks = [query_tokens(self.analyzer, q, self._tokens) for q in queries]
        gdf = self._global_dfs(sorted({t for ts in toks for t in ts}))
        tws = [bm25_query_weights(ts, gdf, self.n_docs) for ts in toks]
        empty = (np.empty(0, dtype=np.int64), np.empty(0)) + (([],) if hydrate else ())
        out = [empty] * len(queries)
        live = [i for i, tw in enumerate(tws) if tw]
        if live:
            per_part = self._each("search_bm25_weighted_many",
                                  [tws[i] for i in live], _part_k(k), prune, hydrate)
            for j, i in enumerate(live):
                out[i] = _gather_topk([res[j] for res in per_part], k, hydrate)
        return out

    def search_tfidf(self, keywords: list[str], top_k: int | None = 10):
        """Multi-part reference tf·idf (idf = N/df, NO log; the
        per-segment two-pass of IIM:1351-1449 over parts)."""
        toks = query_tokens(self.analyzer, keywords, self._tokens)
        tw = tfidf_query_weights(toks, self._global_dfs(sorted(set(toks))), self.n_docs)
        if not tw:
            return np.empty(0, dtype=np.int64), np.empty(0)
        return _gather_topk(self._each("search_tfidf_weighted", tw, _part_k(top_k)), top_k)

    def _scatter_boolean(self, kind: str, arg) -> np.ndarray:
        """One call per part, no df pass: boolean matching is
        part-local under doc-partitioning. Parts are doc-disjoint, so a
        sorted concat of the per-part results IS the single-index
        answer (postings are doc_id-sorted on both paths; tested)."""
        parts = self._each("search_boolean", kind, arg)
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate([np.asarray(p, dtype=np.int64) for p in parts]))

    def search_keyword(self, keyword: str) -> np.ndarray:
        return self._scatter_boolean("keyword", keyword)

    def search_and(self, keywords: list[str]) -> np.ndarray:
        return self._scatter_boolean("and", keywords)

    def search_or(self, keywords: list[str]) -> np.ndarray:
        return self._scatter_boolean("or", keywords)

    def search_phrase(self, phrase: list[str]) -> np.ndarray:
        """Requires positional parts (as the single index does)."""
        return self._scatter_boolean("phrase", phrase)

    def search_prefix(self, prefix: str) -> np.ndarray:
        """Each part range-scans its own term dictionaries."""
        return self._scatter_boolean("prefix", prefix)

    def search_wildcard(self, pattern: str) -> np.ndarray:
        """Each part expands the pattern against its own dictionaries:
        a doc matches iff one of ITS terms matches."""
        return self._scatter_boolean("wildcard", pattern)

    def search_not(self, include: list[str], exclude: list[str]) -> np.ndarray:
        """AND-NOT; a doc's excluded terms live in its own part."""
        return self._scatter_boolean("not", (include, exclude))

    def search_near(self, phrase: list[str], slop: int = 0) -> np.ndarray:
        """Ordered-proximity search (slop=0 == phrase)."""
        return self._scatter_boolean("near", (phrase, slop))

    def search_fuzzy(self, keyword: str, max_edits: int = 1) -> np.ndarray:
        """Each part scans its OWN length-banded dictionaries, so no
        cross-part term exchange is needed."""
        return self._scatter_boolean("fuzzy", (keyword, max_edits))


class DistributedSearcher(PartsSearcher):
    """`PartsSearcher` over Ray actors: one long-lived
    `ray.remote(PartitionSearcher)` actor per partition, each opening
    only its partition; `_each` scatters a call to every actor and
    gathers the results. All the ranking is the in-process one."""

    def __init__(self, root_dir: str, *, num_cpus_per_actor: float = 1) -> None:
        self._num_cpus_per_actor = num_cpus_per_actor
        super().__init__(root_dir)

    def _open_parts(self, part_dirs: list[str]) -> list:
        import ray

        cls = ray.remote(num_cpus=self._num_cpus_per_actor)(PartitionSearcher)
        return [cls.remote(d, self.n_docs, self.avgdl) for d in part_dirs]

    def _each(self, method: str, *args) -> list:
        import ray

        return ray.get([getattr(a, method).remote(*args) for a in self.parts])

    def shutdown(self) -> None:
        import ray

        for a in self.parts:
            ray.kill(a)
        self.parts = []
