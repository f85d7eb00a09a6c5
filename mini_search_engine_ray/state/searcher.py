"""IndexSearcher: stateful query serving over mmap'd shards.

The Ray-idiomatic replacement for the reference's per-query
re-opening of segment channels (`InvertedIndexManager.java:894-920`,
SURVEY §2 ST3): construct ONCE (per process / per Ray actor), shards
are memory-mapped Arrow IPC tables opened lazily and cached, term
dictionaries are binary-searched numpy arrays. Use directly on a
driver, or as an actor pool via
`queries_ds.map_batches(SearcherBatch, fn_constructor_kwargs=...,
concurrency=N)`.

Query surface (parity with `InvertedIndexManager`):
  search_keyword   first analyzed token's postings   (IIM:879-926)
  search_and       all analyzed tokens ANDed; a keyword that analyzes
                   to nothing empties the result     (IIM:934-1024)
  search_or        union over keywords' tokens       (IIM:1032-1094)
  search_phrase    positional adjacency cascade      (IIM:1106-1276)
  search_tfidf     tf·idf with idf = N/df (NO log), score =
                   dot/sqrt(sum tfidf_doc^2 over query terms)
                   (IIM:1292-1449); ties broken by doc_id
  search_bm25      BM25 (k1=1.2, b=0.75) top-k — the north-rule
                   primary scoring; MaxScore/block-max pruning with an
                   exhaustive fallback (`prune=False`), both
                   rank-identical (tested)
  delete_documents keyword tombstones filtered at query time
                   (IIM:1548-1551, 861-869); dropped at compaction

Per-term state is decoded once per searcher and cached beside the
postings (both caches hold up to POSTINGS_CACHE_MAX entries): the
decoded posting arrays, and for BM25 a `_TermState` with the block-max
metadata as numpy arrays and the BM25 denominators of every posting and
block bound. The denominators depend on avgdl, which distributed
serving overrides after construction, so a state is keyed by the avgdl
it was built with and rebuilt when that differs. A warm BM25 query thus
only computes weights, merges candidates and selects its top-k, and
`_topk` sorts only the docs at or above the kth score.
"""

from __future__ import annotations

import json
import logging
import math
import os
from collections import Counter

import numpy as np
import pyarrow as pa

from ..functions.analyzers import make_analyzer
from ..pipelines.build import load_meta
from ..stages.ingest import term_bucket
from ..stages.shards import BLOCK_SIZE, decode_posting_row, open_shard

_LOG = logging.getLogger(__name__)


def _truncate_expansion(out: list, max_expansion: int, what: str, key) -> list:
    """Shared Lucene-style expansion cap: log and keep the first
    ``max_expansion`` entries of the (already deterministically
    ordered) expansion list — one definition for prefix, wildcard and
    fuzzy so the truncation semantics can't drift apart."""
    if len(out) > max_expansion:
        _LOG.warning("%s %r expanded to %d terms; truncating to %d",
                     what, key, len(out), max_expansion)
        out = out[:max_expansion]
    return out

K1 = 1.2
B = 0.75

TOMBSTONE_FILE = "tombstones.json"


def bm25_idf(df: int, n_docs: int) -> float:
    return math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


def load_tombstones(index_dir: str) -> set[str]:
    p = os.path.join(index_dir, TOMBSTONE_FILE)
    if not os.path.exists(p):
        return set()
    with open(p) as f:
        return set(json.load(f))


def save_tombstones(index_dir: str, terms: set[str]) -> None:
    p = os.path.join(index_dir, TOMBSTONE_FILE)
    tmp = p + ".tmp"
    with open(tmp, "w") as f:
        json.dump(sorted(terms), f)
    os.replace(tmp, p)


# entries a searcher caches, for postings and for BM25 term state alike
POSTINGS_CACHE_MAX = 100_000

COUNTER_KEYS = ("queries", "postings_scored", "blocks_skipped",
                "candidates_admitted", "docs_rescored")


def _bm25_den(tf, dl, avgdl: float):
    return tf + K1 * (1.0 - B + B * dl / avgdl)


def _bm25_weight(tf, den, idf, qw):
    """BM25 term weight over a precomputed `_bm25_den`. The operation
    order is that of the one-expression formula, and int64 tf/dl
    promote to the float64 an explicit cast would give, so weights
    are bitwise the same as computing the formula in full."""
    return qw * idf * (tf * (K1 + 1.0)) / den


def _kth(scores: np.ndarray, k: int):
    """The k-th largest score, 1 <= k <= len(scores)."""
    n = len(scores)
    return np.partition(scores, n - k)[n - k]


def _probe(docs: np.ndarray, cands: np.ndarray):
    """Look sorted candidate ids up in a sorted posting list: (mask
    over cands of those present, their posting indices). One binary
    search per candidate — O(|cands| log df), so a long posting list
    is never scanned."""
    if not len(docs):
        return np.zeros(len(cands), dtype=bool), np.empty(0, dtype=np.int64)
    pos = np.minimum(np.searchsorted(docs, cands), len(docs) - 1)
    hit = docs[pos] == cands
    return hit, pos[hit]


class _TermState:
    """What BM25 needs of one term besides its postings, computed once
    per searcher: the per-posting denominator `_bm25_den`, and the
    block-max metadata (last doc, max tf and the denominator at the
    min doc length of each posting block). The block fields are None
    when the term spans several salted sub-shards, whose merged
    postings do not follow per-sub-shard block boundaries. The
    denominators depend on `avgdl`, kept here so the searcher can
    rebuild the state when its avgdl is overridden."""

    __slots__ = ("avgdl", "den", "blk_last", "blk_max_tf", "blk_den")

    def __init__(self, p, block_meta, avgdl: float) -> None:
        self.avgdl = avgdl
        self.den = _bm25_den(p[1], p[2], avgdl)
        if block_meta is None:
            self.blk_last = self.blk_max_tf = self.blk_den = None
        else:
            self.blk_last, self.blk_max_tf, blk_min_dl = block_meta
            self.blk_den = _bm25_den(self.blk_max_tf, blk_min_dl, avgdl)


class _TermDict:
    """Zero-copy binary-searchable view of a shard's SORTED term
    column: probes compare UTF-8 bytes directly against the mmap'd
    Arrow offsets+data buffers (bytewise order == codepoint order for
    UTF-8, the order the shard writer sorts by), so a searcher actor
    on a 10^8-term shard set materializes no Python string objects —
    each lookup costs O(log n) small byte-slice copies only."""

    __slots__ = ("off", "data", "n")

    def __init__(self, col) -> None:
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        self.n = len(col)
        if self.n == 0:
            self.off = np.zeros(1, dtype=np.int64)
            self.data = np.empty(0, dtype=np.uint8)
            return
        odt = np.int64 if pa.types.is_large_string(col.type) else np.int32
        off = np.frombuffer(col.buffers()[1], dtype=odt)
        self.off = off[col.offset : col.offset + self.n + 1]
        self.data = np.frombuffer(col.buffers()[2], dtype=np.uint8)

    def find(self, term: str) -> int | None:
        """Row index of `term`, or None."""
        key = term.encode()
        off, data = self.off, self.data
        lo, hi = 0, self.n
        while lo < hi:
            mid = (lo + hi) >> 1
            if data[off[mid] : off[mid + 1]].tobytes() < key:
                lo = mid + 1
            else:
                hi = mid
        if lo < self.n and data[off[lo] : off[lo + 1]].tobytes() == key:
            return lo
        return None

    def lower_bound(self, key: bytes) -> int:
        """First row index whose term is >= key (bytewise)."""
        off, data = self.off, self.data
        lo, hi = 0, self.n
        while lo < hi:
            mid = (lo + hi) >> 1
            if data[off[mid] : off[mid + 1]].tobytes() < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def prefix_range(self, prefix: bytes) -> tuple[int, int]:
        """[lo, hi) row range of terms starting with `prefix` — two
        binary searches; hi probes the byte-successor of the prefix
        (trailing 0xFF bytes stripped, last byte incremented)."""
        lo = self.lower_bound(prefix)
        succ = bytearray(prefix)
        while succ and succ[-1] == 0xFF:
            succ.pop()
        if not succ:
            return lo, self.n
        succ[-1] += 1
        return lo, self.lower_bound(bytes(succ))

    def term_at(self, i: int) -> str:
        return self.data[self.off[i] : self.off[i + 1]].tobytes().decode()


class IndexSearcher:
    def __init__(self, index_dir: str) -> None:
        self.index_dir = index_dir
        self.meta = load_meta(index_dir)
        an = self.meta["analyzer"]
        an_kw = (
            {"dict_path": self.meta["wordbreak_dict_path"]}
            if an.startswith("wordbreak") or an == "japanese"
            else {}
        )
        self.analyzer = make_analyzer(an, **an_kw)
        self.num_buckets = int(self.meta["num_buckets"])
        self.salt = int(self.meta.get("salt", 1))
        self.positional = bool(self.meta.get("positional", False))
        self.n_docs = int(self.meta["n_docs"])
        self.avgdl = float(self.meta["avgdl"]) or 1.0
        self.tombstones = load_tombstones(index_dir)
        self._shards: dict[int, pa.Table | None] = {}
        self._terms: dict[int, _TermDict | None] = {}
        self._postings_cache: dict[str, tuple | None] = {}
        self._bm25_states: dict[str, _TermState] = {}
        # MaxScore work tallies, summed over this searcher's queries
        self.counters = Counter(dict.fromkeys(COUNTER_KEYS, 0))

    # -- shard access ---------------------------------------------------

    def _shard(self, shard_id: int) -> pa.Table | None:
        if shard_id not in self._shards:
            self._shards[shard_id] = open_shard(self.index_dir, shard_id)
        return self._shards[shard_id]

    def _term_dict(self, shard_id: int) -> _TermDict | None:
        if shard_id not in self._terms:
            t = self._shard(shard_id)
            self._terms[shard_id] = None if t is None else _TermDict(t["term"])
        return self._terms[shard_id]

    def _term_rows(self, term: str) -> list[tuple[pa.Table, int]]:
        """(shard_table, row) for every salted sub-shard holding term."""
        bucket = term_bucket(term, self.num_buckets)
        out = []
        for s in range(self.salt):
            sid = bucket * self.salt + s
            td = self._term_dict(sid)
            if td is None or td.n == 0:
                continue
            i = td.find(term)
            if i is not None:
                out.append((self._shard(sid), i))
        return out

    def postings(self, term: str, *, positions: bool = False):
        """(doc_ids, tfs, doc_lens[, positions]) merged across salted
        sub-shards, ascending by doc_id; None if absent/tombstoned."""
        if term in self.tombstones:
            return None
        key = term if not positions else term + "\x00pos"
        if key in self._postings_cache:
            return self._postings_cache[key]
        rows = self._term_rows(term)
        if not rows:
            res = None
        else:
            parts = [decode_posting_row(t, r, positional=positions and self.positional) for t, r in rows]
            if len(parts) == 1:
                p = parts[0]
            else:
                docs = np.concatenate([x["doc_ids"] for x in parts])
                order = np.argsort(docs, kind="stable")
                p = {
                    "doc_ids": docs[order],
                    "tfs": np.concatenate([x["tfs"] for x in parts])[order],
                    "doc_lens": np.concatenate([x["doc_lens"] for x in parts])[order],
                }
                if positions and self.positional:
                    allpos = [pl for x in parts for pl in x["positions"]]
                    p["positions"] = [allpos[i] for i in order]
            res = (p["doc_ids"], p["tfs"], p["doc_lens"], p.get("positions"))
        if len(self._postings_cache) < POSTINGS_CACHE_MAX:
            self._postings_cache[key] = res
        return res

    def df(self, term: str) -> int:
        p = self.postings(term)
        return 0 if p is None else len(p[0])

    def _block_meta(self, term: str):
        """Block metadata (last_doc, max_tf, min_dl) for a term, or
        None when the term lives in multiple salted sub-shards (whose
        merged posting order no longer aligns with per-sub-shard block
        boundaries — the caller falls back to exact weights then)."""
        rows = self._term_rows(term)
        if len(rows) != 1:
            return None
        t, r = rows[0]
        return (
            np.asarray(t["blk_last_doc"][r].as_py(), dtype=np.int64),
            np.asarray(t["blk_max_tf"][r].as_py(), dtype=np.int64),
            np.asarray(t["blk_min_dl"][r].as_py(), dtype=np.int64),
        )

    # -- analysis helpers ----------------------------------------------

    def _analyze_keywords(self, keywords: list[str]) -> list[list[str]]:
        return [self.analyzer.analyze(k) for k in keywords]

    # -- boolean search -------------------------------------------------

    def search_keyword(self, keyword: str) -> np.ndarray:
        toks = self.analyzer.analyze(keyword)
        if not toks or toks[0] == "":
            return np.empty(0, dtype=np.int64)
        p = self.postings(toks[0])
        return p[0] if p else np.empty(0, dtype=np.int64)

    def expand_prefix(self, prefix: str, *, max_expansion: int = 1024) -> list[str]:
        """Index terms starting with `prefix`, globally lexicographic,
        truncated deterministically to `max_expansion` (Lucene-style
        maxExpansions guard: a 1-char prefix on a 10^8-term dictionary
        must not expand into millions of posting fetches). Terms are
        hash-bucketed across shards, so the range scan runs per shard —
        each a pair of binary searches on the zero-copy dictionary —
        and only MATCHED terms are materialized as Python strings."""
        prefix = prefix.strip().lower()
        if not prefix:
            return []
        key = prefix.encode()
        matched: set[str] = set()
        for sid in range(self.num_buckets * self.salt):
            td = self._term_dict(sid)
            if td is None or td.n == 0:
                continue
            lo, hi = td.prefix_range(key)
            for i in range(lo, hi):
                matched.add(td.term_at(i))
        return _truncate_expansion(sorted(matched - self.tombstones),
                                   max_expansion, "prefix", prefix)

    def search_prefix(self, prefix: str, *, max_expansion: int = 1024) -> np.ndarray:
        """Docs containing ANY term with the given prefix (OR over the
        expanded terms), ascending doc_id. The prefix is matched against
        the index's stored (analyzed, stopword-stripped) terms."""
        lists = []
        for t in self.expand_prefix(prefix, max_expansion=max_expansion):
            p = self.postings(t)
            if p is not None:
                lists.append(p[0])
        if not lists:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(lists))

    def _or_postings(self, terms: list[str]) -> np.ndarray:
        """Ascending unique doc_ids of docs holding ANY of `terms`."""
        lists = []
        for t in terms:
            p = self.postings(t)
            if p is not None:
                lists.append(p[0])
        if not lists:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(lists))

    def expand_wildcard(self, pattern: str, *, max_expansion: int = 1024) -> list[str]:
        """Index terms matching a glob pattern (`*` any run, `?` one
        char), globally lexicographic, truncated to `max_expansion`.
        The literal head before the first wildcard narrows each shard's
        scan to a binary-searched prefix range (a leading wildcard
        forces a full dictionary scan — guarded by the same expansion
        cap, like Lucene's leading-wildcard warnings)."""
        import fnmatch
        import re

        pattern = pattern.strip().lower()
        if not pattern or set(pattern) <= {"*", "?"}:
            return []
        rx = re.compile(fnmatch.translate(pattern))
        head = re.match(r"^[^*?\[]*", pattern).group(0)
        key = head.encode()
        matched: set[str] = set()
        for sid in range(self.num_buckets * self.salt):
            td = self._term_dict(sid)
            if td is None or td.n == 0:
                continue
            lo, hi = td.prefix_range(key) if head else (0, td.n)
            for i in range(lo, hi):
                t = td.term_at(i)
                if rx.match(t):
                    matched.add(t)
        return _truncate_expansion(sorted(matched - self.tombstones),
                                   max_expansion, "wildcard", pattern)

    def search_wildcard(self, pattern: str, *, max_expansion: int = 1024) -> np.ndarray:
        """Docs containing ANY term matching the glob pattern (OR over
        the expanded terms), ascending doc_id."""
        return self._or_postings(self.expand_wildcard(pattern, max_expansion=max_expansion))

    def expand_fuzzy(
        self, keyword: str, max_edits: int = 1, *, max_expansion: int = 50
    ) -> list[tuple[str, int]]:
        """(term, distance) for index terms within Levenshtein
        `max_edits` of the analyzed keyword, sorted (distance asc,
        term asc) and truncated to `max_expansion` — the Lucene
        FuzzyQuery contract (maxEdits <= 2, best-first expansion).

        Scan strategy: per shard, terms are length-banded on the
        zero-copy offsets (|len - len(q)| <= max_edits survives — a
        vectorized np.diff filter), the survivors' bytes are gathered
        into one (n_cand, max_len) uint8 matrix, and edit distance is
        computed by a fully-vectorized Wagner-Fischer whose insertion
        closure is a prefix-min scan (np.minimum.accumulate) — no
        Python-level inner loop. len(q) passes total, each O(n_cand ×
        max_len) SIMD work. The 10^8-term scale path (Levenshtein
        automaton ∩ term FST) is documented, not needed at this band
        cost: the length band prunes the dictionary ~10× and the DP is
        ~150 MB/s/core of term bytes."""
        if max_edits not in (1, 2):
            raise ValueError("max_edits must be 1 or 2 (Lucene FuzzyQuery contract)")
        toks = self.analyzer.analyze(keyword)
        if not toks or toks[0] == "":
            return []
        q = toks[0].encode()
        qa = np.frombuffer(q, dtype=np.uint8)
        m = len(qa)
        best: dict[str, int] = {}
        for sid in range(self.num_buckets * self.salt):
            td = self._term_dict(sid)
            if td is None or td.n == 0:
                continue
            lens = np.diff(td.off)
            cand = np.flatnonzero(np.abs(lens - m) <= max_edits)
            if len(cand) == 0:
                continue
            widths = lens[cand].astype(np.int64)
            nmax = int(widths.max())
            gather = td.off[cand][:, None] + np.arange(nmax)[None, :]
            np.clip(gather, 0, len(td.data) - 1, out=gather)
            chars = td.data[gather]  # (N, nmax); cols >= width are junk, never read
            n = len(cand)
            steps = np.arange(nmax + 1, dtype=np.int32)
            prev = np.broadcast_to(steps, (n, nmax + 1)).copy()
            for i in range(1, m + 1):
                sub = prev[:, :-1] + (chars != qa[i - 1])
                base = np.minimum(sub, prev[:, 1:] + 1)
                g = np.empty_like(prev)
                g[:, 0] = i
                g[:, 1:] = base
                # insertion closure: cur[j] = min_{k<=j} g[k] + (j-k)
                prev = np.minimum.accumulate(g - steps, axis=1) + steps
            dists = prev[np.arange(n), widths]
            hit = np.flatnonzero(dists <= max_edits)
            for row, d in zip(cand[hit].tolist(), dists[hit].tolist()):
                t = td.term_at(row)
                if t not in best or d < best[t]:
                    best[t] = int(d)
        out = sorted(
            ((t, d) for t, d in best.items() if t not in self.tombstones),
            key=lambda td_: (td_[1], td_[0]),
        )
        return _truncate_expansion(out, max_expansion, "fuzzy", keyword)

    def search_fuzzy(
        self, keyword: str, max_edits: int = 1, *, max_expansion: int = 50
    ) -> np.ndarray:
        """Docs containing ANY term within `max_edits` Levenshtein
        edits of the analyzed keyword, ascending doc_id."""
        terms = [t for t, _ in self.expand_fuzzy(keyword, max_edits, max_expansion=max_expansion)]
        return self._or_postings(terms)

    def search_and(self, keywords: list[str]) -> np.ndarray:
        per_kw = self._analyze_keywords(keywords)
        if not per_kw or any(not toks for toks in per_kw):
            return np.empty(0, dtype=np.int64)
        terms: list[str] = [t for toks in per_kw for t in toks]
        lists = []
        for t in dict.fromkeys(terms):
            p = self.postings(t)
            if p is None:
                return np.empty(0, dtype=np.int64)
            lists.append(p[0])
        lists.sort(key=len)  # shortest-first (reference K2)
        cur = lists[0]
        for nxt in lists[1:]:
            if len(cur) == 0:
                break
            cur = cur[np.isin(cur, nxt, assume_unique=True)]
        return cur

    def search_or(self, keywords: list[str]) -> np.ndarray:
        per_kw = self._analyze_keywords(keywords)
        lists = []
        for toks in per_kw:
            for t in toks:
                p = self.postings(t)
                if p is not None:
                    lists.append(p[0])
        if not lists:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(lists))

    def search_not(self, include: list[str], exclude: list[str]) -> np.ndarray:
        """Boolean difference: docs matching ALL `include` keywords and
        NONE of the `exclude` keywords (AND minus OR), ascending
        doc_id. Only the include side needs postings intersection; the
        exclusion is an anti-join on two sorted id lists — no
        all-docs universe scan (a pure-NOT query is unsupported, as in
        Lucene, where MatchAllDocsQuery must be added explicitly)."""
        inc = self.search_and(include)
        if len(inc) == 0 or not exclude:
            return inc
        exc = self.search_or(exclude)
        if len(exc) == 0:
            return inc
        return np.setdiff1d(inc, exc, assume_unique=True)

    def search_phrase(self, phrase: list[str]) -> np.ndarray:
        if not self.positional:
            raise NotImplementedError("phrase search requires a positional index")
        per_kw = self._analyze_keywords(phrase)
        if not per_kw or any(not toks for toks in per_kw):
            return np.empty(0, dtype=np.int64)
        seq = [t for toks in per_kw for t in toks]
        posts = []
        for t in seq:
            p = self.postings(t, positions=True)
            if p is None:
                return np.empty(0, dtype=np.int64)
            posts.append(p)
        # AND-intersect candidates first
        cand = posts[0][0]
        for p in posts[1:]:
            cand = cand[np.isin(cand, p[0], assume_unique=True)]
            if len(cand) == 0:
                return cand
        # adjacency cascade per candidate doc (reference IIM:1196-1260).
        # Candidate row indices via searchsorted on the (sorted) posting
        # doc arrays — a Python dict over a high-df term's whole list
        # would materialize millions of ints to index a few candidates.
        out = []
        rows = [np.searchsorted(p[0], cand) for p in posts]
        for ci, doc in enumerate(cand.tolist()):
            ok_pos = np.asarray(posts[0][3][rows[0][ci]]) + 1
            for t_i in range(1, len(posts)):
                nxt_pos = np.asarray(posts[t_i][3][rows[t_i][ci]])
                ok_pos = np.intersect1d(ok_pos, nxt_pos, assume_unique=True) + 1
                if len(ok_pos) == 0:
                    break
            else:
                out.append(doc)
        return np.asarray(out, dtype=np.int64)

    def search_near(self, phrase: list[str], slop: int = 0) -> np.ndarray:
        """Ordered proximity search: docs where the analyzed token
        sequence t1..tn occurs at positions p1 < p2 < ... < pn with at
        most `slop` non-matching tokens between each ADJACENT pair
        (p_{i+1} - p_i - 1 <= slop). `slop=0` is exactly
        `search_phrase` (tested). Same AND-candidate prune as phrase;
        the per-doc cascade replaces position intersection with a
        two-searchsorted window test (any previous-term position within
        (p - slop - 1, p))."""
        if slop < 0:
            raise ValueError("slop must be >= 0")
        if not self.positional:
            raise NotImplementedError("proximity search requires a positional index")
        per_kw = self._analyze_keywords(phrase)
        if not per_kw or any(not toks for toks in per_kw):
            return np.empty(0, dtype=np.int64)
        seq = [t for toks in per_kw for t in toks]
        posts = []
        for t in seq:
            p = self.postings(t, positions=True)
            if p is None:
                return np.empty(0, dtype=np.int64)
            posts.append(p)
        cand = posts[0][0]
        for p in posts[1:]:
            cand = cand[np.isin(cand, p[0], assume_unique=True)]
            if len(cand) == 0:
                return cand
        if len(seq) == 1:
            return cand
        out = []
        rows = [np.searchsorted(p[0], cand) for p in posts]
        for ci, doc in enumerate(cand.tolist()):
            prev = np.asarray(posts[0][3][rows[0][ci]])
            for t_i in range(1, len(posts)):
                nxt = np.asarray(posts[t_i][3][rows[t_i][ci]])
                lo = np.searchsorted(prev, nxt - (slop + 1), side="left")
                hi = np.searchsorted(prev, nxt, side="left")
                prev = nxt[hi > lo]
                if len(prev) == 0:
                    break
            else:
                out.append(doc)
        return np.asarray(out, dtype=np.int64)

    # -- ranked search --------------------------------------------------

    def _bm25_state(self, term: str, p) -> _TermState:
        """The term's cached `_TermState`, rebuilt when `self.avgdl`
        differs from the one it was built with (distributed serving
        overrides avgdl after construction)."""
        st = self._bm25_states.get(term)
        if st is None or st.avgdl != self.avgdl:
            st = _TermState(p, self._block_meta(term), self.avgdl)
            if len(self._bm25_states) < POSTINGS_CACHE_MAX:
                self._bm25_states[term] = st
        return st

    def _bm25_idf(self, dfv: int) -> float:
        return bm25_idf(dfv, self.n_docs)

    def search_bm25(
        self,
        query: str | list[str],
        k: int | None = 10,
        *,
        prune: bool = True,
        method: str = "maxscore",
    ):
        """BM25 top-k: returns (doc_ids, scores), score desc, ties by
        doc_id asc. `prune=True` prunes with `method`:
        "maxscore" (term-at-a-time MaxScore + block-max upper bounds) or
        "wand" (document-at-a-time block-max WAND, Ding & Suel 2011) —
        both rank-identical to the exhaustive path (tested).

        A warm query does only query-dependent work: each term's BM25
        denominators and block-max metadata are computed once per
        searcher (`_TermState`, cached beside the postings under the
        same entry cap) and rebuilt only when `self.avgdl` changes."""
        keywords = [query] if isinstance(query, str) else query
        toks = [t for ks in self._analyze_keywords(keywords) for t in ks]
        qtf = Counter(toks)
        tw = []
        for t, qw in qtf.items():
            p = self.postings(t)
            if p is None:
                continue
            tw.append((t, qw, self._bm25_idf(len(p[0]))))
        return self.search_bm25_weighted(tw, k, prune=prune, method=method)

    def search_bm25_weighted(
        self,
        term_weights: list[tuple[str, float, float]],
        k: int | None = 10,
        *,
        prune: bool = True,
        method: str = "maxscore",
    ):
        """BM25 with EXTERNAL (term, query_weight, idf) triples — the
        partition-local scoring pass of distributed scatter-gather
        serving (state/distributed.py), where idf comes from GLOBAL df
        gathered across partitions (pass 1) rather than this index's
        local df; `self.avgdl`/`self.n_docs` are likewise set to the
        global stats by the partition actor. Accumulation order is the
        given term order, so per-doc scores are bitwise-identical to a
        single-index search with the same triples (each doc lives in
        exactly one partition)."""
        terms = []
        for t, qw, idf in term_weights:
            p = self.postings(t)
            if p is None:
                continue
            terms.append((qw, idf, p, self._bm25_state(t, p)))
        if not terms:
            return np.empty(0, dtype=np.int64), np.empty(0)
        if not prune or k is None or k <= 0:
            return self._bm25_exhaustive(terms, k)
        if method == "wand":
            return self._bm25_wand(terms, k)
        return self._bm25_maxscore(terms, k)

    # below this accumulator size a dense per-doc array (bincount, no
    # sort) beats unique-sort merging; larger spans use the sparse path
    DENSE_ACCUM_MAX_DOCS = 10_000_000

    @staticmethod
    def _theta_slack(theta: float) -> float:
        """Pruning threshold with relative slack: float sums are
        order-dependent, so a theta (or an upper bound) computed in a
        different addition order can be a few ulps off the exact-order
        value. Comparing against theta*(1 - 1e-9) makes every skip
        decision strictly conservative — a doc whose exact score ties
        the kth can never be pruned by rounding — at a negligible
        pruning-power cost. Final scores come from exact-order
        summation, so results stay bitwise-identical to exhaustive."""
        return theta - 1e-9 * abs(theta) if np.isfinite(theta) else theta

    def _accumulate(self, docs: np.ndarray, contribs: np.ndarray):
        """Sum contributions per doc -> (unique_docs, scores).

        The dense path allocates max(doc_id)+1 slots, so it is gated on
        the actual id span, not n_docs: merged/incremental indexes only
        guarantee DISJOINT (not contiguous) doc_id spaces, and a small
        index with sparse 10^12-range ids must not trigger a dense
        allocation (codecs are int64-capable by design).
        """
        if docs.size and int(docs.max()) < self.DENSE_ACCUM_MAX_DOCS:
            n = int(docs.max()) + 1
            dense = np.bincount(docs, weights=contribs, minlength=n)
            # candidate set = docs WITH A HIT, not docs with a nonzero
            # sum: a zero-weight term (or cancelling weights) sums to
            # exactly 0.0, and the sparse path below keeps such docs —
            # the two paths must agree regardless of the id span
            uniq = np.flatnonzero(np.bincount(docs, minlength=n))
            return uniq, dense[uniq]
        uniq, inv = np.unique(docs, return_inverse=True)
        return uniq, np.bincount(inv, weights=contribs)

    def _exact_rescore(self, terms, docs_sorted: np.ndarray) -> np.ndarray:
        """EXACT BM25 scores for a sorted candidate doc set, accumulated
        per doc in ORIGINAL term order — bitwise-identical to the
        exhaustive path's bincount accumulation (float addition is not
        associative: summing a doc's contributions in any other order
        can differ by 1 ulp and flip the doc_id tie-break between docs
        whose true scores are exactly equal)."""
        scores = np.zeros(len(docs_sorted))
        for qw, idf, p, st in terms:
            hit, sel = _probe(p[0], docs_sorted)
            scores[hit] += _bm25_weight(p[1][sel], st.den[sel], idf, qw)
        return scores

    def _bm25_exhaustive(self, terms, k):
        docs = np.concatenate([p[0] for _, _, p, _ in terms])
        contribs = np.concatenate(
            [_bm25_weight(p[1], st.den, idf, qw) for qw, idf, p, st in terms]
        )
        uniq, scores = self._accumulate(docs, contribs)
        return self._topk(uniq, scores, k)

    def _bm25_maxscore(self, terms, k: int):
        """Term-at-a-time MaxScore over block-max upper bounds.

        Process terms in descending max-contribution (upper-bound)
        order. While processing term i, a doc NOT yet in the
        accumulator can reach at most rem_ub[i] = sum of upper bounds
        of terms i..end; once the accumulator holds >= k docs and
        rem_ub[i] < theta (current kth partial score, a lower bound of
        the kth final score), new docs are provably out of the top-k
        (strictly — so doc_id tie-breaks are unaffected) and the term
        only updates existing candidates: each candidate is probed into
        the posting list by binary search, so blocks holding no
        candidate are never scored. Every term still updates all
        candidates, so returned scores are exact and rank-identical to
        the exhaustive path (tested). `self.counters` tallies the work.
        """
        cnt = self.counters
        cnt["queries"] += 1
        if len(terms) == 1:
            # exact: the exhaustive bincount sums 0.0 + w, which is w
            # (the + 0.0 maps a -0.0 weight to 0.0 the same way)
            qw, idf, p, st = terms[0]
            w = _bm25_weight(p[1], st.den, idf, qw)
            cnt["postings_scored"] += len(w)
            cnt["candidates_admitted"] += len(w)
            ids, scores = self._topk(p[0], w, k)
            return ids, scores + 0.0
        with_ub = []
        for qw, idf, p, st in terms:
            if st.blk_last is not None:
                ub = float(_bm25_weight(st.blk_max_tf, st.blk_den, idf, qw).max())
                w_full = None
            else:  # salted sub-shards merged: bound from the exact weights
                w_full = _bm25_weight(p[1], st.den, idf, qw)
                ub = float(w_full.max())
            with_ub.append((qw, idf, p, st, w_full, ub))
        with_ub.sort(key=lambda x: -x[5])
        rem_ub = np.r_[[x[5] for x in with_ub], 0.0][::-1].cumsum()[::-1]

        acc_docs = acc_scores = None
        for i, (qw, idf, p, st, w_full, _) in enumerate(with_ub):
            docs = p[0]
            if (acc_docs is not None and len(acc_docs) >= k
                    and rem_ub[i] < self._theta_slack(_kth(acc_scores, k))):
                # no new doc can reach the top-k: update candidates only
                hit, sel = _probe(docs, acc_docs)
                if st.blk_last is not None:
                    touched = len(np.unique(sel // BLOCK_SIZE))
                    cnt["blocks_skipped"] += len(st.blk_last) - touched
                if w_full is not None:
                    acc_scores[hit] += w_full[sel]
                else:
                    acc_scores[hit] += _bm25_weight(p[1][sel], st.den[sel], idf, qw)
                cnt["postings_scored"] += len(sel)
                continue
            w = w_full if w_full is not None else _bm25_weight(p[1], st.den, idf, qw)
            n_before = 0 if acc_docs is None else len(acc_docs)
            if acc_docs is None:  # the first term's postings ARE the accumulator
                acc_docs, acc_scores = docs, w
            else:
                acc_docs, acc_scores = self._accumulate(
                    np.concatenate([acc_docs, docs]), np.concatenate([acc_scores, w])
                )
            cnt["postings_scored"] += len(docs)
            cnt["candidates_admitted"] += len(acc_docs) - n_before
        # The accumulator summed per-doc contributions in UB-sorted term
        # order (can differ from the exhaustive sum by ~ulps). Rescore
        # in original term order — bitwise-identical to exhaustive — but
        # ONLY the top-k plus the relative-slack boundary band: any doc
        # more than the slack below the approximate kth cannot tie the
        # exact kth, so the full-candidate rescore (a second pass over
        # every query-term posting) is unnecessary.
        if len(acc_docs) > k:
            band = acc_docs[acc_scores >= self._theta_slack(_kth(acc_scores, k))]
        else:
            band = acc_docs
        cnt["docs_rescored"] += len(band)
        return self._topk(band, self._exact_rescore(terms, band), k)

    def _bm25_wand(self, terms, k: int):
        """Document-at-a-time block-max WAND (north-star traversal;
        Broder et al. 2003 pivoting + Ding & Suel 2011 block-max
        refinement over the shard block metadata).

        Invariants making it rank-identical to the exhaustive path:
        * pivot selection accumulates ≥ theta (ties still evaluated, so
          doc_id tie-breaks are exact);
        * skipped docs have upper bound strictly below theta, hence
          strictly below the kth score;
        * every evaluated doc gets its EXACT full score.
        """
        import heapq

        state = []
        for ti, (qw, idf, p, st) in enumerate(terms):
            docs, tfs = p[0], p[1]
            if st.blk_last is not None:
                blk_last = st.blk_last
                blk_ub = _bm25_weight(st.blk_max_tf, st.blk_den, idf, qw)
            else:  # salted sub-shards merged: one whole-list block
                blk_last = docs[-1:].copy()
                blk_ub = np.asarray([_bm25_weight(tfs, st.den, idf, qw).max()])
            state.append(
                {
                    "ti": ti,  # original term order (exact-score summation)
                    "docs": docs, "tfs": tfs, "den": st.den, "qw": qw, "idf": idf,
                    "cur": 0, "n": len(docs),
                    "blk_last": blk_last, "blk_ub": blk_ub,
                    "ub": float(blk_ub.max()),
                }
            )

        heap: list[tuple[float, int]] = []  # (score, -doc_id); root = evictee
        theta = -np.inf
        alive = [s for s in state if s["n"] > 0]
        while alive:
            alive.sort(key=lambda s: s["docs"][s["cur"]])
            # pivot: first term index where the ub prefix-sum reaches theta
            acc = 0.0
            pivot_i = -1
            t_eff = self._theta_slack(theta)
            for i, s in enumerate(alive):
                acc += s["ub"]
                if len(heap) < k or acc >= t_eff:
                    pivot_i = i
                    break
            if pivot_i == -1:
                break  # sum of all remaining ubs < theta
            pdoc = int(alive[pivot_i]["docs"][alive[pivot_i]["cur"]])
            # all terms whose current doc <= pdoc (includes == ties past pivot)
            j = pivot_i
            while j + 1 < len(alive) and alive[j + 1]["docs"][alive[j + 1]["cur"]] <= pdoc:
                j += 1
            contrib = alive[: j + 1]
            if int(alive[0]["docs"][alive[0]["cur"]]) == pdoc:
                # block-max refinement: per-term CURRENT block upper bound
                bub = 0.0
                bis = []
                for s in contrib:
                    bi = min(
                        int(np.searchsorted(s["blk_last"], pdoc, side="left")),
                        len(s["blk_last"]) - 1,
                    )
                    bis.append(bi)
                    bub += float(s["blk_ub"][bi])
                if len(heap) >= k and bub < self._theta_slack(theta):
                    # whole block combination can't reach theta: jump past
                    # the nearest block boundary (or the next term's doc)
                    d2 = min(int(s["blk_last"][bi]) for s, bi in zip(contrib, bis)) + 1
                    if j + 1 < len(alive):
                        d2 = min(d2, int(alive[j + 1]["docs"][alive[j + 1]["cur"]]))
                    for s in contrib:
                        s["cur"] += int(
                            np.searchsorted(s["docs"][s["cur"] :], d2, side="left")
                        )
                else:
                    # BLOCK-at-a-time full evaluation (vectorized): score
                    # every doc in [pdoc, W), where W ends at the nearest
                    # contrib-term block boundary and before the next
                    # non-contrib term's cursor (terms beyond the window
                    # hold no postings < W, so scores are complete).
                    # Doc-at-a-time scalar evaluation was ~17x slower
                    # (Python loop per posting); this keeps Python cost
                    # at O(blocks), numpy does the scoring. Contributions
                    # are added in ORIGINAL term order (ti) — the same
                    # per-doc addition order as the exhaustive bincount,
                    # so exact ties order identically (bitwise).
                    W = min(int(s["blk_last"][bi]) for s, bi in zip(contrib, bis)) + 1
                    if j + 1 < len(alive):
                        W = min(W, int(alive[j + 1]["docs"][alive[j + 1]["cur"]]))
                    uppers = []
                    doc_parts = []
                    for s in contrib:
                        upper = s["cur"] + int(
                            np.searchsorted(s["docs"][s["cur"] :], W, side="left")
                        )
                        uppers.append(upper)
                        doc_parts.append(s["docs"][s["cur"] : upper])
                    union = np.unique(np.concatenate(doc_parts))
                    scores_v = np.zeros(len(union))
                    for s, upper in sorted(
                        zip(contrib, uppers), key=lambda x: x[0]["ti"]
                    ):
                        sl = slice(s["cur"], upper)
                        pos = np.searchsorted(union, s["docs"][sl])
                        w = _bm25_weight(s["tfs"][sl], s["den"][sl], s["idf"], s["qw"])
                        np.add.at(scores_v, pos, w)
                        s["cur"] = upper
                    for d, sc in zip(union.tolist(), scores_v.tolist()):
                        item = (sc, -d)
                        if len(heap) < k:
                            heapq.heappush(heap, item)
                        elif item > heap[0]:
                            heapq.heapreplace(heap, item)
                    if len(heap) >= k:
                        theta = heap[0][0]
            else:
                # advance the largest-ub term before the pivot to >= pdoc
                lag = [s for s in contrib if int(s["docs"][s["cur"]]) < pdoc]
                s = max(lag, key=lambda x: x["ub"])
                s["cur"] += int(np.searchsorted(s["docs"][s["cur"] :], pdoc, side="left"))
            alive = [s for s in alive if s["cur"] < s["n"]]

        if not heap:
            return np.empty(0, dtype=np.int64), np.empty(0)
        docs = np.asarray([-d for _, d in heap], dtype=np.int64)
        scores = np.asarray([sc for sc, _ in heap])
        return self._topk(docs, scores, k)

    @staticmethod
    def _topk(doc_ids: np.ndarray, scores: np.ndarray, k: int | None):
        """First k of (score desc, doc_id asc). For 0 < k < n only the
        docs scoring >= the kth score (every boundary tie included) are
        sorted; k None, k <= 0 and k >= n sort everything, as slicing
        the full order does."""
        n = len(scores)
        if k is not None and 0 < k < n:
            # `~(s < kth)` rather than `s >= kth` keeps NaN scores, which
            # the full lexsort would place last
            keep = np.flatnonzero(~(scores < _kth(scores, k)))
            doc_ids, scores = doc_ids[keep], scores[keep]
        order = np.lexsort((doc_ids, -scores))
        if k is not None:
            order = order[:k]
        return doc_ids[order], scores[order]

    def search_tfidf(self, keywords: list[str], top_k: int | None = 10):
        """Reference tf·idf ranking (IIM:1292-1449): idf = N/df with NO
        log; query vector accumulates per duplicate analyzed token;
        score = dot(doc,query) / sqrt(sum over query terms of
        tfidf_doc^2). Returns (doc_ids, scores) desc, ties by doc_id."""
        analyzed = [t for ks in self._analyze_keywords(keywords) for t in ks]
        if not analyzed:
            return np.empty(0, dtype=np.int64), np.empty(0)
        qvec: dict[str, float] = {}
        for t in analyzed:
            dfv = self.df(t)
            if dfv == 0:
                continue  # reference: N/0 -> Inf but never accumulated
            qvec[t] = qvec.get(t, 0.0) + self.n_docs / dfv
        if not qvec:
            return np.empty(0, dtype=np.int64), np.empty(0)
        tw = [(t, qw, self.n_docs / self.df(t)) for t, qw in qvec.items()]
        return self.search_tfidf_weighted(tw, top_k)

    def search_tfidf_weighted(
        self, term_weights: list[tuple[str, float, float]], top_k: int | None = 10
    ):
        """tf·idf with EXTERNAL (term, query_weight, idf) triples — the
        partition-local pass-2 of distributed serving, mirroring the
        reference's per-segment two-pass (`IIM:1351-1449`): pass 1
        gathers global df/N (the coordinator builds qw = Σ N/df per
        duplicate token and idf = N/df), pass 2 scores locally. The
        score normalization sums tfidf_doc² over query terms per DOC,
        so it is complete within the doc's partition."""
        docs_all, dots, lens = [], [], []
        for t, qw, idf in term_weights:
            p = self.postings(t)
            if p is None:
                continue
            tfidf = p[1].astype(np.float64) * idf
            docs_all.append(p[0])
            dots.append(tfidf * qw)
            lens.append(tfidf * tfidf)
        if not docs_all:
            return np.empty(0, dtype=np.int64), np.empty(0)
        docs = np.concatenate(docs_all)
        uniq, dot = self._accumulate(docs, np.concatenate(dots))
        _, ln = self._accumulate(docs, np.concatenate(lens))
        scores = dot / np.sqrt(ln)
        return self._topk(uniq, scores, top_k)

    # -- deletion -------------------------------------------------------

    def delete_documents(self, keyword: str) -> None:
        """Tombstone the analyzed tokens of `keyword` (query-time filter;
        physical drop happens at compaction — stages/merge.py)."""
        for t in self.analyzer.analyze(keyword):
            self.tombstones.add(t)
        save_tombstones(self.index_dir, self.tombstones)

    # -- doc store ------------------------------------------------------

    def get_documents(self, doc_ids) -> pa.Table:
        """Point/range lookups against the docstore Parquet (reference
        MapDB lookups, `storage/MapdbDocStore.java:27-84`)."""
        import pyarrow.dataset as pads

        dset = pads.dataset(os.path.join(self.index_dir, "docstore"), format="parquet")
        ids = pa.array(np.asarray(list(doc_ids), dtype=np.int64))
        return dset.to_table(filter=pads.field("doc_id").isin(ids))


class SearcherBatch:
    """Actor-pool adapter: a batch of query rows -> result rows.

    queries_ds.map_batches(SearcherBatch,
        fn_constructor_kwargs={"index_dir": ...}, concurrency=N,
        batch_format="pyarrow")

    Input columns:  query_id:int64, kind:string (keyword|and|or|phrase|
                    bm25|tfidf), terms:list<string>, top_k:int64(null ok)
    Output columns: query_id:int64, rank:int32, doc_id:int64,
                    score:float64 (0.0 for boolean kinds)
    """

    def __init__(self, index_dir: str) -> None:
        self.searcher = IndexSearcher(index_dir)

    def __call__(self, batch: pa.Table) -> pa.Table:
        s = self.searcher
        qids, ranks, docs, scores = [], [], [], []
        for row in batch.to_pylist():
            kind = row["kind"]
            terms = row["terms"] or []
            k = row.get("top_k")
            if kind == "keyword":
                ids, sc = s.search_keyword(terms[0] if terms else ""), None
            elif kind == "and":
                ids, sc = s.search_and(terms), None
            elif kind == "or":
                ids, sc = s.search_or(terms), None
            elif kind == "phrase":
                ids, sc = s.search_phrase(terms), None
            elif kind == "bm25":
                ids, sc = s.search_bm25(terms, k if k is not None else 10)
            elif kind == "tfidf":
                ids, sc = s.search_tfidf(terms, k)
            else:
                raise ValueError(f"unknown query kind {kind!r}")
            if sc is None:
                sc = np.zeros(len(ids))
            qids.extend([row["query_id"]] * len(ids))
            ranks.extend(range(len(ids)))
            docs.extend(ids.tolist())
            scores.extend(np.asarray(sc, dtype=np.float64).tolist())
        return pa.table(
            {
                "query_id": pa.array(qids, type=pa.int64()),
                "rank": pa.array(ranks, type=pa.int32()),
                "doc_id": pa.array(docs, type=pa.int64()),
                "score": pa.array(scores, type=pa.float64()),
            }
        )
