"""Brute-force oracle: re-analyze every document per query.

The reference's own correctness oracle pattern
(`search/FullScanSearcher.java:27-41`): no index, just a full scan with
the same analyzer. Used by tests to assert exact doc sets for boolean
queries and rank-identity (docIDs + scores) for BM25 / tf·idf top-k
(SURVEY.md §5 style 4, §7.0 "Scoring").
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from mini_search_engine_ray.functions.analyzers import Analyzer, make_analyzer

K1 = 1.2
B = 0.75


class BruteForceOracle:
    def __init__(self, docs: dict[int, str], analyzer: str | Analyzer = "composable") -> None:
        self.analyzer = make_analyzer(analyzer) if isinstance(analyzer, str) else analyzer
        self.docs = docs
        self.analyzed = {i: self.analyzer.analyze(t) for i, t in docs.items()}
        self.tf = {i: Counter(toks) for i, toks in self.analyzed.items()}
        self.doc_len = {i: len(toks) for i, toks in self.analyzed.items()}
        self.n_docs = len(docs)
        self.avgdl = (sum(self.doc_len.values()) / self.n_docs) if self.n_docs else 1.0
        self.df: Counter = Counter()
        for toks in self.analyzed.values():
            self.df.update(set(toks))

    # -- boolean --------------------------------------------------------

    def _docs_with(self, term: str) -> list[int]:
        return sorted(i for i, tf in self.tf.items() if term in tf)

    def search_keyword(self, keyword: str) -> list[int]:
        toks = self.analyzer.analyze(keyword)
        return self._docs_with(toks[0]) if toks else []

    def search_and(self, keywords: list[str]) -> list[int]:
        per_kw = [self.analyzer.analyze(k) for k in keywords]
        if any(not t for t in per_kw):
            return []
        terms = {t for ks in per_kw for t in ks}
        return sorted(i for i in self.docs if all(t in self.tf[i] for t in terms))

    def search_or(self, keywords: list[str]) -> list[int]:
        terms = {t for k in keywords for t in self.analyzer.analyze(k)}
        return sorted(i for i in self.docs if any(t in self.tf[i] for t in terms))

    def search_phrase(self, phrase: list[str]) -> list[int]:
        per_kw = [self.analyzer.analyze(k) for k in phrase]
        if any(not t for t in per_kw):
            return []
        seq = [t for ks in per_kw for t in ks]
        out = []
        for i, toks in self.analyzed.items():
            for s in range(len(toks) - len(seq) + 1):
                if toks[s : s + len(seq)] == seq:
                    out.append(i)
                    break
        return sorted(out)

    # -- ranked ---------------------------------------------------------

    def search_bm25(self, query: str | list[str], k: int | None = 10):
        keywords = [query] if isinstance(query, str) else query
        toks = [t for kw in keywords for t in self.analyzer.analyze(kw)]
        qtf = Counter(toks)
        scores: dict[int, float] = {}
        for t, qw in qtf.items():
            dfv = self.df.get(t, 0)
            if dfv == 0:
                continue
            idf = math.log(1.0 + (self.n_docs - dfv + 0.5) / (dfv + 0.5))
            for i, tfc in self.tf.items():
                tf = tfc.get(t, 0)
                if tf:
                    dl = self.doc_len[i]
                    w = qw * idf * (tf * (K1 + 1.0)) / (tf + K1 * (1.0 - B + B * dl / self.avgdl))
                    scores[i] = scores.get(i, 0.0) + w
        return self._topk(scores, k)

    def search_tfidf(self, keywords: list[str], top_k: int | None = 10):
        analyzed = [t for kw in keywords for t in self.analyzer.analyze(kw)]
        qvec: dict[str, float] = {}
        for t in analyzed:
            dfv = self.df.get(t, 0)
            if dfv == 0:
                continue
            qvec[t] = qvec.get(t, 0.0) + self.n_docs / dfv
        dot: dict[int, float] = {}
        ln: dict[int, float] = {}
        for t, qw in qvec.items():
            idf = self.n_docs / self.df[t]
            for i, tfc in self.tf.items():
                tf = tfc.get(t, 0)
                if tf:
                    tfidf = tf * idf
                    dot[i] = dot.get(i, 0.0) + tfidf * qw
                    ln[i] = ln.get(i, 0.0) + tfidf * tfidf
        scores = {i: dot[i] / math.sqrt(ln[i]) for i in dot}
        return self._topk(scores, top_k)

    @staticmethod
    def _topk(scores: dict[int, float], k: int | None):
        items = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        if k is not None:
            items = items[:k]
        return (
            np.asarray([i for i, _ in items], dtype=np.int64),
            np.asarray([s for _, s in items], dtype=np.float64),
        )
