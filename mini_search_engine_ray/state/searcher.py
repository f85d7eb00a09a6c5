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
                   primary scoring, through one ranked path: an
                   exhaustive term-at-a-time scan, except that a query
                   whose rare term cuts off its dense terms probes them
                   by binary search instead; bitwise equal to the scan
                   (`prune=False`, tested against a bincount)
  delete_documents keyword tombstones filtered at query time
                   (IIM:1548-1551, 861-869); dropped at compaction

Per-term state is decoded once per searcher and cached beside the
postings (both caches hold up to POSTINGS_CACHE_MAX entries): the
decoded posting arrays, and for BM25 a `_TermState` with the term's
weight bound from its block-max metadata and, for each of the last
SCALES_PER_TERM query scales (qw, idf) it served, the BM25 weight of
every posting, its span vector (for a term dense in its doc-id span)
and its ranked order (for a one-term query). All depend on avgdl,
which multi-part serving overrides after construction, so a state is
keyed by the avgdl it was built with and rebuilt when that differs.
Cached arrays are read-only, as every later query shares them. qw is
a token's count in its query, so one stream serves a term at qw 1 and
2; idf is fixed per index or per global df. A warm BM25 query whose
scales were served before thus only decides scan or probe from df and
the bounds, adds or scatters cached weights per doc and selects its
top-k (`_topk` sorts only the docs at or above the kth score; a
one-term query slices its ranked order). Keywords' analyzed tokens
are memoized too.
"""

from __future__ import annotations

import json
import logging
import math
import os
from collections import Counter

import numpy as np
import pyarrow as pa

from ..functions.analyzers import is_dictionary_analyzer, make_analyzer
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


def query_tokens(analyzer, query: str | list[str], memo: dict) -> list[str]:
    """The analyzed tokens of a query string or keyword list, in order.
    Each keyword's tokens are memoized in `memo` as a tuple (up to
    POSTINGS_CACHE_MAX keywords), and a new list is returned, so a
    caller that edits it changes no later query."""
    out: list[str] = []
    for kw in [query] if isinstance(query, str) else query:
        toks = memo.get(kw)
        if toks is None:
            toks = tuple(analyzer.analyze(kw))
            if len(memo) < POSTINGS_CACHE_MAX:
                memo[kw] = toks
        out += toks
    return out


def bm25_query_weights(tokens: list[str], df, n_docs: int) -> list[tuple[str, float, float]]:
    """The (term, query weight, idf) triples `search_bm25_weighted`
    ranks by: one per distinct token in first-occurrence order, its
    query weight the token's count; a term of df 0 is dropped. `df`
    maps every token to its df over `n_docs` docs — one index's, or
    the global df of a multi-part index."""
    return [(t, qw, bm25_idf(df[t], n_docs)) for t, qw in Counter(tokens).items() if df[t] > 0]


def tfidf_query_weights(tokens: list[str], df, n_docs: int) -> list[tuple[str, float, float]]:
    """The reference tf·idf triples for `search_tfidf_weighted`: idf =
    N/df with NO log, and the query weight sums N/df once per duplicate
    token (IIM:1292-1449); a term of df 0 is never accumulated (N/0)."""
    qvec: dict[str, float] = {}
    for t in tokens:
        if df[t] > 0:
            qvec[t] = qvec.get(t, 0.0) + n_docs / df[t]
    return [(t, qw, n_docs / df[t]) for t, qw in qvec.items()]


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

SCALES_PER_TERM = 4  # query scales whose arrays a `_TermState` keeps
COUNTER_KEYS = ("queries", "postings_scored", "blocks_skipped",
                "candidates_admitted", "span_terms", "weights_built")


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


def _topk(doc_ids: np.ndarray, scores: np.ndarray, k: int | None):
    """First k of (score desc, doc_id asc). For 0 < k < n only the
    docs scoring >= the kth score (every boundary tie included) are
    sorted; k None, k <= 0 and k >= n sort everything, as slicing
    the full order does. Scores must not be NaN (`np.partition`
    ranks NaN above every number); no BM25 or tf-idf score is, as
    every denominator and norm is positive."""
    n = len(scores)
    if k is not None and 0 < k < n:
        if n >= 64 * k:
            # k of 4k block maxima are >= their kth largest, so it is
            # <= the kth score: a cut that shrinks the partition
            m = n // (4 * k)
            cut = _kth(scores[: 4 * k * m].reshape(4 * k, m).max(axis=1), k)
            keep = np.flatnonzero(scores >= cut)
            doc_ids, scores = doc_ids[keep], scores[keep]
        keep = np.flatnonzero(scores >= _kth(scores, k))
        doc_ids, scores = doc_ids[keep], scores[keep]
    order = np.lexsort((doc_ids, -scores))
    if k is not None:
        order = order[:k]
    return doc_ids[order], scores[order]


def _frozen(a: np.ndarray) -> np.ndarray:
    """`a`, made read-only: a cached array is shared by every later
    query, so a caller's in-place write must raise, not corrupt them."""
    a.flags.writeable = False
    return a


def _term_weights(term) -> np.ndarray:
    """BM25 weights of every posting of a (qw, idf, postings, state)
    query term."""
    qw, idf, p, st = term
    return st.weights(p, qw, idf)


class _TermState:
    """What BM25 needs of one term besides its postings, computed once
    per searcher: the number of posting blocks (0 when the term spans
    several salted sub-shards, whose merged postings do not follow
    per-sub-shard block boundaries), `ub_unit`, the largest
    `tf*(K1+1)/den` over the block-max metadata (over the postings
    themselves when there is none), so that `qw*idf*ub_unit` bounds
    every weight of the term, the span `mask` of a term the scan adds
    as a `span`, and `scales`: for each query scale `(qw, idf)` served,
    oldest first and at most SCALES_PER_TERM of them, the entry
    [weights, span vector, ranked order], its weights computed on first
    use and the other two when first asked for. All depend on `avgdl`,
    kept here so the searcher can rebuild the state when its avgdl is
    overridden; `counters` is the searcher's, which tallies
    `weights_built`."""

    __slots__ = ("avgdl", "blocks", "ub_unit", "scales", "mask", "counters")

    def __init__(self, p, block_meta, avgdl: float, counters: Counter) -> None:
        self.avgdl, self.counters, self.mask = avgdl, counters, None  # mask: at first span
        self.scales: dict[tuple[float, float], list] = {}
        if block_meta is None:
            self.blocks = 0
            tf, den = p[1], _bm25_den(p[1], p[2], avgdl)
        else:
            blk_last, tf, blk_min_dl = block_meta
            self.blocks = len(blk_last)
            den = _bm25_den(tf, blk_min_dl, avgdl)
        self.ub_unit = float((tf * (K1 + 1.0) / den).max(initial=0.0))

    def _scale(self, p, qw: float, idf: float) -> list:
        """The entry of scale (qw, idf), made with its weights when new;
        a full state drops its oldest scale first."""
        e = self.scales.get((qw, idf))
        if e is None:
            w = _frozen(_bm25_weight(p[1], _bm25_den(p[1], p[2], self.avgdl), idf, qw))
            self.counters["weights_built"] += 1
            if len(self.scales) >= SCALES_PER_TERM:
                self.scales.pop(next(iter(self.scales)), None)
            e = self.scales[qw, idf] = [w, None, None]
        return e

    def weights(self, p, qw: float, idf: float) -> np.ndarray:
        """The (read-only) BM25 weight of every posting of `p` at query
        scale (qw, idf)."""
        return self._scale(p, qw, idf)[0]

    def span(self, p, qw: float, idf: float):
        """Read-only (mask, vector) over the term's doc-id span: True and
        its weight at scale (qw, idf) at its docs, False and 0.0
        elsewhere."""
        e = self._scale(p, qw, idf)
        if e[1] is None:
            i = p[0] - p[0][0]
            vec = np.zeros(int(i[-1]) + 1)
            vec[i] = e[0]
            if self.mask is None:
                self.mask = _frozen(np.bincount(i) > 0)
            e[1] = _frozen(vec)
        return self.mask, e[1]

    def ranked(self, p, qw: float, idf: float):
        """(weights, order) at scale (qw, idf): the read-only order of
        the postings by (weight desc, doc_id asc), `_topk`'s order, as
        int32 below 2^31 postings (half of lexsort's int64)."""
        e = self._scale(p, qw, idf)
        if e[2] is None:
            order = np.lexsort((p[0], -e[0]))
            e[2] = _frozen(order.astype(np.int32) if len(order) < 2**31 else order)
        return e[0], e[2]


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
        an_kw = {"dict_path": self.meta["wordbreak_dict_path"]} if is_dictionary_analyzer(an) else {}
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
        self._tokens: dict[str, tuple[str, ...]] = {}  # keyword -> analyzed tokens
        # ranked-query work tallies (`search_bm25` documents each key)
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
        sub-shards, ascending by doc_id; None if absent/tombstoned. The
        arrays are cached and shared by later queries, so read-only."""
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
            for a in (*res[:3], *(res[3] or ())):
                _frozen(a)
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
        """Docs holding the analyzed token sequence at consecutive
        positions (reference IIM:1196-1260): `search_near` with slop 0."""
        return self.search_near(phrase, 0)

    def search_near(self, phrase: list[str], slop: int = 0) -> np.ndarray:
        """Ordered proximity search: docs where the analyzed token
        sequence t1..tn occurs at positions p1 < p2 < ... < pn with at
        most `slop` non-matching tokens between each ADJACENT pair
        (p_{i+1} - p_i - 1 <= slop); `slop=0` is phrase search. The
        docs holding every term are intersected first; then, per
        candidate doc, a two-searchsorted window test keeps each next
        position that has a previous-term position within
        (p - slop - 1, p)."""
        if slop < 0:
            raise ValueError("slop must be >= 0")
        if not self.positional:
            raise NotImplementedError("phrase and proximity search require a positional index")
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
        differs from the one it was built with (multi-part serving
        overrides avgdl after construction)."""
        st = self._bm25_states.get(term)
        if st is None or st.avgdl != self.avgdl:
            st = _TermState(p, self._block_meta(term), self.avgdl, self.counters)
            if len(self._bm25_states) < POSTINGS_CACHE_MAX:
                self._bm25_states[term] = st
        return st

    def search_bm25(
        self,
        query: str | list[str],
        k: int | None = 10,
        *,
        prune: bool = True,
    ):
        """BM25 top-k: returns (doc_ids, scores), score desc, ties by
        doc_id asc. The analyzed query's `bm25_query_weights` go to
        `search_bm25_weighted`, which ranks them through one path;
        `prune=False` forces its exhaustive scan, the bitwise oracle
        of the default (tested).

        `self.counters` tallies the work of every ranked query, scans
        included (`COUNTER_KEYS`):
          queries              ranked queries answered
          postings_scored      postings whose weight entered a score;
                               a scan scores every posting (sum of df)
          blocks_skipped       posting blocks of probed terms in which
                               no posting was scored
          candidates_admitted  docs whose score was accumulated
          span_terms           terms a scan added as span vectors
          weights_built        (term, query scale) weight arrays
                               computed; 0 on a stream already served
        so `postings_scored / queries` is the serving work per query.

        A warm query does only query-dependent work: each keyword is
        analyzed once per searcher, each term's weight bound is computed
        once and its posting weights, span vector and ranked order once
        per query scale (qw, idf) (`_TermState`, cached beside the
        postings under the same entry cap, keeping its last
        SCALES_PER_TERM scales), and all are rebuilt when `self.avgdl`
        changes."""
        toks = query_tokens(self.analyzer, query, self._tokens)
        tw = bm25_query_weights(toks, {t: self.df(t) for t in set(toks)}, self.n_docs)
        return self.search_bm25_weighted(tw, k, prune=prune)

    def search_bm25_weighted(
        self,
        term_weights: list[tuple[str, float, float]],
        k: int | None = 10,
        *,
        prune: bool = True,
    ):
        """BM25 with EXTERNAL (term, query_weight, idf) triples — the
        part-local scoring pass of multi-part serving
        (state/distributed.py), where idf comes from GLOBAL df gathered
        across parts (pass 1) rather than this index's local df;
        `self.avgdl`/`self.n_docs` are likewise set to the global stats
        by a part (`PartitionSearcher`).

        One ranked path, whose work is picked per query from the cached
        term state, with every result bitwise equal to the scan:
          no term          empty result
          scan             k None or <= 0, or `prune=False`: every
                           posting weighted and summed per doc, term at
                           a time in the given order — per-doc scores
                           are bitwise those of a single-index search
                           with the same triples (each doc lives in
                           exactly one partition)
          one term         the first k of its cached ranked order
                           (`_TermState.ranked`), + 0.0 as the probe's
                           sum from 0.0 gives
          several terms    a probe when one rare term's kth weight cuts
                           off every doc without it and binary search
                           into the other terms costs less than
                           scanning them (`_probe_plan`, `_bm25_probe`);
                           otherwise the scan."""
        terms = []
        for t, qw, idf in term_weights:
            p = self.postings(t)
            if p is None:
                continue
            terms.append((qw, idf, p, self._bm25_state(t, p)))
        self.counters["queries"] += 1
        if not terms:
            return np.empty(0, dtype=np.int64), np.empty(0)
        if prune and k is not None and k > 0:
            if len(terms) == 1:
                qw, idf, p, st = terms[0]
                w, top = st.ranked(p, qw, idf)
                top = top[:k]
                self.counters["postings_scored"] += len(w)
                self.counters["candidates_admitted"] += len(w)
                return p[0][top], w[top] + 0.0
            plan = self._probe_plan(terms, k)
            if plan is not None:
                return self._bm25_probe(terms, k, *plan)
        return self._bm25_scan(terms, k)

    # below this accumulator size a dense per-doc array (bincount, no
    # sort) beats unique-sort merging; larger spans use the sparse path
    DENSE_ACCUM_MAX_DOCS = 10_000_000
    # a scan adds a term holding >= 1/SPAN_FILL of its span's ids whole
    SPAN_FILL = 4

    @staticmethod
    def _theta_slack(theta: float) -> float:
        """Pruning threshold with relative slack: float results are
        order-dependent, so an upper bound (a term's `ub_unit` times its
        query weight, or a sum of bounds) computed in a different
        operation order than the scores can be a few ulps below the
        score it bounds. Comparing against theta*(1 - 1e-9) makes
        every skip decision strictly conservative — a doc whose exact
        score ties the kth can never be pruned by rounding — at a
        negligible pruning-power cost. Final scores come from
        exact-order summation, so results stay bitwise-identical to the
        scan."""
        return theta - 1e-9 * abs(theta) if np.isfinite(theta) else theta

    def _accumulate(self, docs: np.ndarray, contribs: np.ndarray):
        """Sum contributions per doc -> (unique_docs, scores).

        The dense path allocates max(doc_id)+1 slots, so it is gated on
        the actual id span, not n_docs: merged/incremental indexes only
        guarantee DISJOINT (not contiguous) doc_id spaces, and a small
        index with sparse 10^12-range ids must not trigger a dense
        allocation (codecs are int64-capable by design).
        """
        n = int(docs.max()) + 1 if docs.size else 0
        if 0 < n <= self.DENSE_ACCUM_MAX_DOCS:
            dense = np.bincount(docs, weights=contribs, minlength=n)
            # candidate set = docs WITH A HIT, not docs with a nonzero
            # sum: a zero-weight term (or cancelling weights) sums to
            # exactly 0.0, and the sparse path below keeps such docs —
            # the two paths must agree regardless of the id span
            uniq = np.flatnonzero(np.bincount(docs, minlength=n) > 0)
            return uniq, dense[uniq]
        uniq, inv = np.unique(docs, return_inverse=True)
        return uniq, np.bincount(inv, weights=contribs)

    def _bm25_scan(self, terms, k):
        """Sum weights per doc, term at a time, over the query's doc-id
        span: a term dense in its own span adds its `span` as slices,
        any other scatters its weights. Adding 0.0 to a sum begun at
        +0.0 changes nothing, so each score is bitwise `_accumulate`'s
        bincount, which still serves spans above DENSE_ACCUM_MAX_DOCS."""
        docs = [p[0] for _, _, p, _ in terms]
        self.counters["postings_scored"] += sum(map(len, docs))
        lo = min(int(d[0]) for d in docs)
        n = max(int(d[-1]) for d in docs) - lo + 1
        if n > self.DENSE_ACCUM_MAX_DOCS:
            uniq, scores = self._accumulate(
                np.concatenate(docs), np.concatenate([_term_weights(t) for t in terms]))
        else:
            acc, hit = np.zeros(n), np.zeros(n, dtype=bool)
            for (qw, idf, p, st), d in zip(terms, docs):
                if self.SPAN_FILL * len(d) >= d[-1] - d[0] + 1:
                    (m, w), i = st.span(p, qw, idf), slice(int(d[0]) - lo, int(d[-1]) - lo + 1)
                    self.counters["span_terms"] += 1
                else:  # doc ids are unique within a term
                    m, w, i = True, st.weights(p, qw, idf), d - lo
                acc[i] += w
                hit[i] |= m
            idx = np.flatnonzero(hit)
            uniq, scores = idx + lo, acc[idx]
        self.counters["candidates_admitted"] += len(uniq)
        return _topk(uniq, scores, k)

    @staticmethod
    def _df_scans(dfs: list[int], k: int) -> bool:
        """True when df alone shows that `_probe_plan` rejects whichever
        term h has the highest bound: no term holds k docs, or the cost
        rule fails for every h. With lo the smallest df and j =
        floor(log2(lo + 1)), each log2(df + 1) is >= j, so df_h *
        sum_others log2(df+1) >= lo * j * (n - 1), while sum_others df
        <= sum(dfs) - lo. These integers are no larger than the float
        rule's own operands, so it rejects only queries that rule
        rejects."""
        lo = min(dfs)
        return max(dfs) < k or lo * ((lo + 1).bit_length() - 1) * (len(dfs) - 1) >= sum(dfs) - lo

    def _probe_plan(self, terms, k: int):
        """(h, weights of h) when the other terms can be probed with h's
        docs as the only candidates and probing them is cheaper than
        scanning them, else None.

        h is the term with the highest bound and theta its k-th weight:
        weights being non-negative, at least k docs score >= theta (the
        eager cutoff of *External Merge Sort for Top-K Queries*, SIGMOD
        2020). When the other terms' bound sum stays below
        `_theta_slack(theta)`, a doc without h scores below the kth, so
        h's docs are the candidates. Probing costs one binary search per
        candidate per other term; scanning costs their postings:
            df_h * sum_others log2(df+1) < sum_others df.
        The cost rule needs df alone, so it runs first: `_df_scans`
        sends a query that no choice of h could probe to the scan before
        any bound is computed, and the rule for h itself runs before any
        weight or partition is."""
        dfs = [len(p[0]) for _, _, p, _ in terms]
        if self._df_scans(dfs, k):
            return None
        ubs = [qw * idf * st.ub_unit for qw, idf, _, st in terms]
        h = ubs.index(max(ubs))
        others = [i for i in range(len(terms)) if i != h]
        if (dfs[h] < k or min(ubs) < 0.0
                or not dfs[h] * sum(math.log2(dfs[i] + 1) for i in others)
                < sum(dfs[i] for i in others)):
            return None
        w_h = _term_weights(terms[h])
        if not sum(ubs[i] for i in others) < self._theta_slack(_kth(w_h, k)):
            return None
        return h, w_h

    def _bm25_probe(self, terms, k: int, h: int, w_h: np.ndarray):
        """Score h's docs, the only candidates, by probing every other
        term with them by binary search (O(candidates * log df), so a
        block holding no candidate is never scored). Each term's
        weights are added to 0.0 in the given order, so every candidate
        gets the scan's bincount sum bitwise (the + 0.0 maps a -0.0
        weight to 0.0 as the bincount does)."""
        cnt = self.counters
        cands = terms[h][2][0]
        scores = np.zeros(len(cands))
        cnt["postings_scored"] += len(cands)
        cnt["candidates_admitted"] += len(cands)
        for i, term in enumerate(terms):
            if i == h:
                scores += w_h
                continue
            docs, st = term[2][0], term[3]
            if not len(docs):
                continue
            pos = np.minimum(np.searchsorted(docs, cands), len(docs) - 1)
            hit = docs[pos] == cands
            sel = pos[hit]
            scores[hit] += _term_weights(term)[sel]
            cnt["postings_scored"] += len(sel)
            if st.blocks:
                blk = sel // BLOCK_SIZE
                touched = len(blk) - int(np.count_nonzero(blk[1:] == blk[:-1]))
                cnt["blocks_skipped"] += st.blocks - touched
        return _topk(cands, scores, k)

    def search_tfidf(self, keywords: list[str], top_k: int | None = 10):
        """Reference tf·idf ranking (IIM:1292-1449): idf = N/df with NO
        log; query vector accumulates per duplicate analyzed token;
        score = dot(doc,query) / sqrt(sum over query terms of
        tfidf_doc^2). Returns (doc_ids, scores) desc, ties by doc_id."""
        toks = query_tokens(self.analyzer, keywords, self._tokens)
        tw = tfidf_query_weights(toks, {t: self.df(t) for t in set(toks)}, self.n_docs)
        return self.search_tfidf_weighted(tw, top_k)

    def search_tfidf_weighted(
        self, term_weights: list[tuple[str, float, float]], top_k: int | None = 10
    ):
        """tf·idf with EXTERNAL (term, query_weight, idf) triples — the
        pass 2 that a part runs in multi-part serving, mirroring the
        reference's per-segment two-pass (`IIM:1351-1449`): pass 1
        gathers global df/N (`tfidf_query_weights` builds qw = Σ N/df
        per duplicate token and idf = N/df), pass 2 scores locally. The
        score normalization sums tfidf_doc² over query terms per DOC,
        so it is complete within the doc's part."""
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
        return _topk(uniq, scores, top_k)

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
