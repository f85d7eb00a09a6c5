"""Distributed query serving: doc-partitioned scatter-gather.

A single `IndexSearcher` opens the WHOLE index — right up to the point
where the index outgrows one node's page cache / local disk. This
module is the 100×-scale shape: the corpus is partitioned BY DOC into P
independent sub-indexes (each term-sharded internally, built by the
same `build_index` pipeline), one long-lived Ray actor per partition
opens only its partition, and every query is answered scatter-gather:

  pass 1 (df exchange)  each partition actor reports local df for the
                        query's analyzed terms; the coordinator sums
                        them into GLOBAL df -> idf. This generalizes
                        the reference's per-segment two-pass ranking
                        (`InvertedIndexManager.java:1351-1449`: pass 1
                        accumulates df over segments, pass 2 scores)
                        from segments of one process to partitions of
                        a cluster.
  pass 2 (score+gather) each actor scores ITS docs with the global
                        (idf, N, avgdl) and returns its local top-k
                        (or all matches); the coordinator merges by
                        (score desc, doc_id asc).

Exactness: a doc's postings for ALL terms live in its own partition
(doc-partitioning, not term-partitioning), so per-doc scores are
complete locally and — with accumulation in the coordinator's term
order — bitwise-identical to a single-index search (tested). A doc in
the global top-k is necessarily in its partition's local top-k under
the same ordering, so merging per-partition top-k loses nothing.

Network cost per query: P small df dicts (pass 1) + P result sets of
at most k rows (pass 2) — independent of posting-list sizes.

For throughput serving, `search_bm25_many` amortizes both round trips
over a whole BATCH of queries: ONE df exchange for the union of
uncached terms, then ONE scatter per actor carrying every query's
term-weight triples (each actor scores all queries over its partition
in a single remote call). Per-query results are identical to the
one-at-a-time path (tested) — batching changes the transport, not the
math. This is how a real serving tier runs: requests queue at the
coordinator and ship to partition replicas in batches, so RTT and
scheduling overhead are paid per batch, not per query.
"""

from __future__ import annotations

import json
import os
from collections import Counter

import numpy as np

from ..functions.analyzers import is_dictionary_analyzer, make_analyzer
from .searcher import IndexSearcher, bm25_idf

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

    # partition-local docstores (one per sub-index) enable hydrated
    # serving — each partition can look up ITS OWN docs' content in the
    # same scatter that scores them; off by default (serving ids+scores
    # needs no content copy)
    write_docstore = bool(build_kwargs.pop("write_docstore", False))
    metas = []
    for p in range(P):
        pdir = os.path.join(part_root, f"part={p}")
        if os.path.isdir(pdir):
            pds = rd.read_parquet(pdir)
            n_local = pds.count()
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
    """Per-partition worker: an `IndexSearcher` over ONE partition with
    its stats overridden to the GLOBAL (N, avgdl) so BM25/tf·idf terms
    normalize identically across partitions. Run as a Ray actor via
    `ray.remote(PartitionSearcher)`; kept importable un-decorated for
    in-process tests."""

    def __init__(self, part_dir: str, global_n_docs: int, global_avgdl: float) -> None:
        self.s = IndexSearcher(part_dir)
        self.s.n_docs = int(global_n_docs)
        self.s.avgdl = float(global_avgdl) or 1.0

    def local_dfs(self, terms: list[str]) -> dict[str, int]:
        return {t: self.s.df(t) for t in terms}

    def search_bm25_weighted(self, term_weights, k, prune: bool):
        return self.s.search_bm25_weighted(term_weights, k, prune=prune)

    def search_bm25_weighted_many(self, batch, k, prune: bool):
        """Score a whole batch of queries in one remote call: `batch`
        is a list of term-weight triple lists (one per query). The
        per-query work is identical to `search_bm25_weighted`; only the
        transport is batched."""
        return [self.s.search_bm25_weighted(tw, k, prune=prune) for tw in batch]

    def search_tfidf_weighted(self, term_weights, top_k):
        return self.s.search_tfidf_weighted(term_weights, top_k)

    def search_bm25_weighted_hydrated(self, term_weights, k, prune: bool):
        """Local top-k PLUS the matching documents from THIS partition's
        docstore, in one remote call (the J4 docID->Document lookup of
        `InvertedIndexManager.java:912-914`, done scatter-side so the
        coordinator never runs a second round trip).  Returns
        (doc_ids, scores, contents) aligned by position."""
        ids, scores = self.s.search_bm25_weighted(term_weights, k, prune=prune)
        if len(ids) == 0:
            return ids, scores, []
        tbl = self.s.get_documents(ids)
        by_id = dict(zip(tbl["doc_id"].to_pylist(), tbl["content"].to_pylist()))
        return ids, scores, [by_id.get(int(i)) for i in ids]

    def search_boolean(self, kind: str, arg):
        """Partition-local boolean search. Doc-partitioning means a
        doc's postings for EVERY term live here, so keyword/AND/OR/
        phrase need no cross-partition exchange at all — the result is
        exactly this partition's slice of the global answer."""
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


class DistributedSearcher:
    """Scatter-gather coordinator over the partition actors.

    Results are bitwise-identical to a single-index `IndexSearcher`
    over the unpartitioned corpus (tested, incl. partition-count
    invariance): global stats, coordinator-fixed term order, and the
    shared (score desc, doc_id asc) tie rule make every partition score
    its docs exactly as the single index would.
    """

    def __init__(self, root_dir: str, *, num_cpus_per_actor: float = 1) -> None:
        import ray

        meta = load_root_meta(root_dir)
        self.n_docs = int(meta["n_docs"])
        self.avgdl = float(meta["avgdl"]) or 1.0
        an = meta["analyzer"]
        an_kw = {"dict_path": meta["wordbreak_dict_path"]} if is_dictionary_analyzer(an) else {}
        self.analyzer = make_analyzer(an, **an_kw)
        cls = ray.remote(num_cpus=num_cpus_per_actor)(PartitionSearcher)
        self.actors = [
            cls.remote(partition_dir(root_dir, p), self.n_docs, self.avgdl)
            for p in range(int(meta["n_partitions"]))
        ]
        # the index is immutable, so a term's GLOBAL df is a constant:
        # cache it and pay the pass-1 round trip once per distinct term
        self._df_cache: dict[str, int] = {}

    def shutdown(self) -> None:
        import ray

        for a in self.actors:
            ray.kill(a)
        self.actors = []

    def _analyze(self, query) -> list[str]:
        keywords = [query] if isinstance(query, str) else query
        return [t for kw in keywords for t in self.analyzer.analyze(kw)]

    def _global_dfs(self, terms: list[str]) -> dict[str, int]:
        import ray

        missing = [t for t in terms if t not in self._df_cache]
        if missing:
            per_part = ray.get([a.local_dfs.remote(missing) for a in self.actors])
            for t in missing:
                if len(self._df_cache) < 1_000_000:
                    self._df_cache[t] = sum(d[t] for d in per_part)
                else:
                    return {
                        **{x: self._df_cache[x] for x in terms if x in self._df_cache},
                        **{x: sum(d[x] for d in per_part) for x in missing},
                    }
        return {t: self._df_cache[t] for t in terms}

    @staticmethod
    def _gather_topk(results, k: int | None):
        docs = np.concatenate([np.asarray(r[0], dtype=np.int64) for r in results])
        scores = np.concatenate([np.asarray(r[1], dtype=np.float64) for r in results])
        order = np.lexsort((docs, -scores))
        if k is not None:
            order = order[:k]
        return docs[order], scores[order]

    def search_bm25(
        self,
        query,
        k: int | None = 10,
        *,
        prune: bool = True,
        hydrate: bool = False,
    ):
        """Distributed BM25 top-k: df exchange -> partition-local
        scoring with global idf -> top-k merge.

        ``hydrate=True`` additionally returns the result documents'
        content as a third element, looked up from each partition's
        LOCAL docstore inside the same scoring scatter (one round trip;
        requires `build_partitioned_index(..., write_docstore=True)`).
        Each partition hydrates its local top-k — a superset of its
        contribution to the global top-k — so the merge step has every
        winner's content already in hand."""
        import ray

        empty = (np.empty(0, dtype=np.int64), np.empty(0))
        toks = self._analyze(query)
        qtf = Counter(toks)
        if not qtf:
            return (*empty, []) if hydrate else empty
        gdf = self._global_dfs(list(qtf))
        tw = [
            (t, qw, bm25_idf(gdf[t], self.n_docs))
            for t, qw in qtf.items()
            if gdf[t] > 0
        ]
        if not tw:
            return (*empty, []) if hydrate else empty
        if hydrate:
            results = ray.get([
                a.search_bm25_weighted_hydrated.remote(tw, k, prune)
                for a in self.actors
            ])
            ids, scores = self._gather_topk(
                [(r[0], r[1]) for r in results], k)
            content = {}
            for r_ids, _, r_docs in results:
                content.update(zip((int(i) for i in r_ids), r_docs))
            return ids, scores, [content[int(i)] for i in ids]
        results = ray.get(
            [a.search_bm25_weighted.remote(tw, k, prune) for a in self.actors]
        )
        return self._gather_topk(results, k)

    def _scatter_boolean(self, kind: str, arg) -> np.ndarray:
        """One scatter, no df pass: boolean matching is partition-local
        under doc-partitioning. Partitions are doc-disjoint, so a
        sorted concat of the per-partition results IS the single-index
        answer (postings are doc_id-sorted on both paths; tested)."""
        import ray

        parts = ray.get([a.search_boolean.remote(kind, arg) for a in self.actors])
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
        """Requires the partitions to be built with positional=True
        (same contract as the single index)."""
        return self._scatter_boolean("phrase", phrase)

    def search_prefix(self, prefix: str) -> np.ndarray:
        """Distributed prefix search: each partition range-scans its
        own term dictionaries (two binary searches per shard) and ORs
        its local postings; doc-disjoint partitions concat exactly."""
        return self._scatter_boolean("prefix", prefix)

    def search_wildcard(self, pattern: str) -> np.ndarray:
        """Distributed glob search: each partition expands the pattern
        against its own dictionaries — a doc matches iff one of ITS
        terms matches, so matching is partition-local."""
        return self._scatter_boolean("wildcard", pattern)

    def search_not(self, include: list[str], exclude: list[str]) -> np.ndarray:
        """Distributed AND-NOT: doc-disjoint partitions make exclusion
        partition-local (a doc's excluded terms live with it)."""
        return self._scatter_boolean("not", (include, exclude))

    def search_near(self, phrase: list[str], slop: int = 0) -> np.ndarray:
        """Distributed ordered-proximity search (slop=0 == phrase)."""
        return self._scatter_boolean("near", (phrase, slop))

    def search_fuzzy(self, keyword: str, max_edits: int = 1) -> np.ndarray:
        """Distributed fuzzy search: each partition scans its OWN
        length-banded dictionaries for terms within `max_edits` — a
        doc matches iff one of its own terms is close enough, so no
        cross-partition term exchange is needed."""
        return self._scatter_boolean("fuzzy", (keyword, max_edits))

    def search_bm25_many(
        self,
        queries,
        k: int | None = 10,
        *,
        prune: bool = True,
    ):
        """Batched distributed BM25: ONE df exchange for the union of
        all queries' uncached terms + ONE scatter per actor carrying
        every query — 2 round trips total for the whole batch instead
        of 2 per query. Returns a list of (doc_ids, scores) in query
        order, each identical to `search_bm25(q, k)` (tested)."""
        import ray

        per_query_tf = [Counter(self._analyze(q)) for q in queries]
        union_terms = sorted({t for qtf in per_query_tf for t in qtf})
        gdf = self._global_dfs(union_terms) if union_terms else {}
        tws = [
            [
                (t, qw, bm25_idf(gdf[t], self.n_docs))
                for t, qw in qtf.items()
                if gdf[t] > 0
            ]
            for qtf in per_query_tf
        ]
        empty = (np.empty(0, dtype=np.int64), np.empty(0))
        live = [i for i, tw in enumerate(tws) if tw]
        out = [empty] * len(queries)
        if not live:
            return out
        batch = [tws[i] for i in live]
        per_actor = ray.get(
            [
                a.search_bm25_weighted_many.remote(batch, k, prune)
                for a in self.actors
            ]
        )
        for j, i in enumerate(live):
            out[i] = self._gather_topk([res[j] for res in per_actor], k)
        return out

    def search_tfidf(self, keywords: list[str], top_k: int | None = 10):
        """Distributed reference tf·idf (idf = N/df, NO log; the
        per-segment two-pass of IIM:1351-1449 over partitions)."""
        import ray

        analyzed = self._analyze(keywords)
        if not analyzed:
            return np.empty(0, dtype=np.int64), np.empty(0)
        gdf = self._global_dfs(sorted(set(analyzed)))
        qvec: dict[str, float] = {}
        for t in analyzed:  # accumulate per duplicate token, global idf
            if gdf.get(t, 0) == 0:
                continue
            qvec[t] = qvec.get(t, 0.0) + self.n_docs / gdf[t]
        if not qvec:
            return np.empty(0, dtype=np.int64), np.empty(0)
        tw = [(t, qw, self.n_docs / gdf[t]) for t, qw in qvec.items()]
        results = ray.get(
            [a.search_tfidf_weighted.remote(tw, top_k) for a in self.actors]
        )
        return self._gather_topk(results, top_k)
