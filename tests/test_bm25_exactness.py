"""Bitwise identity of the ranked BM25 path with its scan at a scale
where per-doc float-addition order matters.

Regression for a real divergence: summing a doc's term contributions in
any order but the given term order can differ from the scan's bincount
by 1 ulp, flipping the doc_id tie-break between docs whose true scores
are exactly equal (duplicate (tf, dl) profiles — common in real
corpora). The ranked path adds each term's weights in the given term
order whether it scans or probes, so it stays bitwise identical to
`prune=False`. The 200-doc fixtures in test_build_query.py can't catch
this; 3000 docs with a repetitive vocabulary can.

The scan itself is pinned to an independent oracle: each posting's
weight from the formula, summed per doc by one `np.bincount` over the
term-major concatenation, on the plain and salted indexes, a part of a
multi-part index with offset doc ids and an index whose ids spread over
the 10^12 range (the sparse accumulator).

Also pinned here: the choice between scan and probe (a dense query
scans, a rare term lets a common one be probed, a near-tie at the
cutoff stays exact, the df-and-span pre-test changes no choice), k at
every edge, the scan's top-k taken from its accumulator and the
partition-based `_topk` against a full lexsort, the per-term BM25
weight and span-vector cache under a change of query scale and an
avgdl override, read-only cached arrays, and the work counters every
ranked query tallies.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from mini_search_engine_ray.pipelines.build import build_index
from mini_search_engine_ray.sources.corpus import synth_corpus
from mini_search_engine_ray.stages.shards import list_shards, open_shard
from mini_search_engine_ray.state import searcher as searcher_mod
from mini_search_engine_ray.state.distributed import PartsSearcher, build_partitioned_index
from mini_search_engine_ray.state.searcher import (
    COUNTER_KEYS,
    K1,
    SCALES_PER_TERM,
    IndexSearcher,
    _bm25_den,
    _bm25_weight,
    _topk,
    bm25_idf,
    query_tokens,
)

VOCAB = ["search", "shard", "stream", "reader", "writer", "index", "token",
         "merge", "parse", "request", "handler", "batch", "information",
         "retrieval", "kitten", "needle", "the", "cluster", "segment", "cache"]


def _build_3000(tmp_path_factory, name: str, salt: int = 1) -> str:
    import ray.data as rd

    d = str(tmp_path_factory.mktemp(name) / "idx")
    corpus = synth_corpus(3000, seed=5)
    build_index(rd.from_arrow(corpus.select(["doc_id", "content"])), d,
                num_buckets=4, n_docs=3000, write_docstore=False,
                fingerprint=name, salt=salt)
    return d


@pytest.fixture(scope="module")
def big_searcher(ray_session, tmp_path_factory):
    return IndexSearcher(_build_3000(tmp_path_factory, "bm25x"))


@pytest.fixture(scope="module")
def salted_searcher(ray_session, tmp_path_factory):
    """The same corpus with every term's postings split over 3 salted
    sub-shards: merged postings carry no block-max metadata."""
    return IndexSearcher(_build_3000(tmp_path_factory, "bm25x_salted", salt=3))


@pytest.fixture(scope="module")
def offset_part(ray_session, tmp_path_factory):
    """Part 1 of a two-part index over 1,200 docs whose ids start at
    10^12, with the global stats its multi-part searcher gives it: its
    doc ids are odd and far from 0, so a scan spans only its own range."""
    import ray.data as rd

    root = str(tmp_path_factory.mktemp("bm25x_parts") / "idx")
    corpus = synth_corpus(1200, seed=7).select(["doc_id", "content"])
    corpus = corpus.set_column(0, "doc_id", pa.array(np.arange(1200, dtype=np.int64) + 10**12))
    build_partitioned_index(rd.from_arrow(corpus), root, n_partitions=2, num_buckets=2,
                            fingerprint="bm25x_parts")
    return PartsSearcher(root).parts[1].s


@pytest.fixture(scope="module")
def spread_searcher(ray_session, tmp_path_factory):
    """600 docs with ids 0, 1.7e9, 3.4e9, ... up to 10^12: every query
    spans more than DENSE_ACCUM_MAX_DOCS ids, so the scan sums through
    `_accumulate`'s sparse path."""
    import ray.data as rd

    d = str(tmp_path_factory.mktemp("bm25x_spread") / "idx")
    corpus = synth_corpus(600, seed=9).select(["doc_id", "content"])
    corpus = corpus.set_column(0, "doc_id", pa.array(np.arange(600, dtype=np.int64) * 1_700_000_000))
    build_index(rd.from_arrow(corpus), d, num_buckets=2, n_docs=600, write_docstore=False,
                fingerprint="bm25x_spread")
    return IndexSearcher(d)


def _stem(s, word: str) -> str:
    (term,) = s.analyzer.analyze(word)
    return term


def _assert_same(got, want, what):
    assert got[0].tolist() == want[0].tolist(), (what, "ids")
    assert got[1].tolist() == want[1].tolist(), (what, "scores")


def test_pruned_traversals_bitwise_equal_exhaustive(big_searcher):
    s = big_searcher
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(120):
        q = list(rng.choice(VOCAB, size=int(rng.integers(2, 6)), replace=False))
        k = int(rng.integers(1, 25))
        # bitwise score equality — not approx — is the contract
        _assert_same(s.search_bm25(q, k), s.search_bm25(q, k, prune=False), (q, k))
        checked += 1
    assert checked == 120


def test_reviewer_repro_case(big_searcher):
    """The originally-failing query (1-ulp score divergence flipped two
    exactly-tied docs at ranks 3/4)."""
    s = big_searcher
    q = ["search", "shard", "stream", "the", "reader"]
    _assert_same(s.search_bm25(q, 12), s.search_bm25(q, 12, prune=False), q)


def test_single_term_and_edge_k_bitwise_equal_exhaustive(big_searcher):
    """Single-term queries (top-k straight from the weight vector), k
    beyond the candidate count (every candidate kept) and k = 0
    (nothing; the ranked path scans)."""
    s = big_searcher
    rng = np.random.default_rng(29)
    for term in VOCAB:
        for k in (0, 1, 7, 5000):
            want = s.search_bm25([term], k, prune=False)
            _assert_same(s.search_bm25([term], k), want, (term, k))
    for _ in range(20):
        q = list(rng.choice(VOCAB, size=int(rng.integers(2, 5)), replace=False))
        want = s.search_bm25(q, 5000, prune=False)
        assert len(want[0]) < 5000
        _assert_same(s.search_bm25(q, 5000), want, q)


def test_salted_index_pruned_bitwise_equal_exhaustive(salted_searcher):
    """salt=3 merges each term's postings from three sub-shards, so
    `_block_meta` is None and each term's bound comes from its exact
    weights instead of block maxima."""
    s = salted_searcher
    assert s._block_meta("search") is None
    rng = np.random.default_rng(31)
    for _ in range(40):
        q = list(rng.choice(VOCAB, size=int(rng.integers(1, 5)), replace=False))
        k = int(rng.integers(1, 25))
        _assert_same(s.search_bm25(q, k), s.search_bm25(q, k, prune=False), (q, k))


@pytest.mark.parametrize("which", ["big_searcher", "salted_searcher"])
def test_k_fuzz_bitwise_equal_scan(which, request):
    """Every k edge on the ranked path against the scan: 0, 1, 3, 10,
    50, None and more than the candidates, over random queries of one
    to five terms, including the rare terms that make it probe."""
    s = request.getfixturevalue(which)
    rng = np.random.default_rng(41)
    rare = [w for w in VOCAB if any(0 < s.df(t) <= 50 for t in s.analyzer.analyze(w))]
    assert rare
    for i in range(60):
        q = list(rng.choice(VOCAB, size=int(rng.integers(1, 6)), replace=False))
        if i % 3 == 0:
            q = [str(rng.choice(rare))] + q
        for k in (0, 1, 3, 10, 50, None, 5000):
            _assert_same(s.search_bm25(q, k), s.search_bm25(q, k, prune=False), (q, k))


def test_dense_query_scans(big_searcher):
    """Terms of similar df make probing dearer than scanning: the
    ranked path scans, scoring every posting once and rescoring
    nothing."""
    q = ["search", "shard", "stream"]
    _assert_same(big_searcher.search_bm25(q, 10),
                 big_searcher.search_bm25(q, 10, prune=False), q)
    s = IndexSearcher(big_searcher.index_dir)
    s.search_bm25(q, 10)
    dfs = [s.df(_stem(s, w)) for w in q]
    assert min(dfs) * 2 > max(dfs) > 128
    assert s.counters["queries"] == 1
    assert s.counters["postings_scored"] == sum(dfs)
    assert s.counters["blocks_skipped"] == 0


def _bincount_oracle(s, tw):
    """Every doc a (term, qw, idf) triple holds, score desc then doc_id
    asc, with no code of the scan: each posting's weight from the BM25
    formula, summed per doc by one `np.bincount` over the term-major
    concatenation (over `np.unique` codes, so 10^12-range ids allocate
    nothing; per-doc addition order is that of a bincount over ids)."""
    docs, ws = [], []
    for t, qw, idf in tw:
        p = s.postings(t)
        if p is not None:
            docs.append(p[0])
            ws.append(_bm25_weight(p[1], _bm25_den(p[1], p[2], s.avgdl), idf, qw))
    if not docs:
        return np.empty(0, dtype=np.int64), np.empty(0)
    uniq, inv = np.unique(np.concatenate(docs), return_inverse=True)
    return _full_topk(uniq, np.bincount(inv, weights=np.concatenate(ws)), None)


@pytest.mark.parametrize("which", ["big_searcher", "salted_searcher", "offset_part",
                                   "spread_searcher"])
def test_scan_bitwise_equals_bincount_oracle(which, request):
    """`prune=False` runs the scan itself, so it is pinned here to
    `_bincount_oracle`: 150 seeded queries of one to five terms, most
    of them among the 40 commonest (so that docs hold three or more
    query terms and the order of their sums shows), query weights 0,
    1, 2 and 0.37, local idf and an external one, at k None, 1 and 10. The counters tally every posting
    and every doc hit. The plain and salted indexes and the offset part
    add dense terms as span vectors and never call `_accumulate`; on the
    spread index most queries span over 10^7 ids and sum through its
    sparse path."""
    s = request.getfixturevalue(which)
    sparse = []
    s._accumulate = lambda *a: sparse.append(1) or IndexSearcher._accumulate(s, *a)
    by_df = _terms_by_df(s)
    terms = sorted(by_df)
    common = sorted(terms, key=lambda t: (-by_df[t], t))[:40]
    rng = np.random.default_rng(47)
    spans = 0
    for i in range(150):
        n = int(rng.integers(1, 6))
        picked = dict.fromkeys(str(rng.choice(common if rng.random() < 0.7 else terms))
                               for _ in range(n))
        scale = 1.0 if i % 2 else 3.0
        tw = [(t, float(rng.choice([0.0, 1.0, 2.0, 0.37])),
               bm25_idf(int(by_df[t] * scale), int(s.n_docs * scale))) for t in picked]
        want = _bincount_oracle(s, tw)
        before = dict(s.counters)
        _assert_same(s.search_bm25_weighted(tw, None, prune=False), want, tw)
        assert s.counters["postings_scored"] - before["postings_scored"] == sum(
            by_df[t] for t in picked)
        assert s.counters["candidates_admitted"] - before["candidates_admitted"] == len(want[0])
        spans += s.counters["span_terms"] - before["span_terms"]
        for k in (1, 10):
            _assert_same(s.search_bm25_weighted(tw, k, prune=False),
                         (want[0][:k], want[1][:k]), (tw, k))
    del s._accumulate
    if which == "spread_searcher":
        assert len(sparse) > 200
    else:
        assert spans > 50 and not sparse


@pytest.mark.parametrize("which", ["big_searcher", "salted_searcher", "offset_part",
                                   "spread_searcher"])
def test_scan_topk_from_accumulator_equals_oracle(which, request, monkeypatch):
    """A scan cuts its dense accumulator by `_block_cut` and compacts
    only the docs at or above a cut > 0; a cut <= 0 compacts every hit
    doc. At k 1, 10, 50, hits - 1, hits and None, the ranked path and
    `prune=False` both give `_bincount_oracle`'s first k bitwise, and
    the scan tallies every hit doc as admitted. Two queries cut <= 0 on
    purpose: one term at query weight 0 (every sum is 0.0) and two rare
    terms with fewer hit docs than k; the seeded ones cut > 0. The
    offset part's span does not start at doc 0; the spread index sums
    through the sparse path and cuts nothing."""
    s = request.getfixturevalue(which)
    cuts, block_cut = [], searcher_mod._block_cut
    monkeypatch.setattr(searcher_mod, "_block_cut",
                        lambda sc, k: cuts.append((len(sc), block_cut(sc, k))) or cuts[-1][1])
    by_df = _terms_by_df(s)
    ranked = sorted(by_df, key=lambda t: (by_df[t], t))

    def span(terms) -> int:
        docs = [s.postings(t)[0] for t in terms]
        return int(max(d[-1] for d in docs) - min(d[0] for d in docs)) + 1

    def triples(terms, qw):
        return [(t, qw, bm25_idf(by_df[t], s.n_docs)) for t in terms]

    zero = next(t for t in ranked if by_df[t] >= 5 and 64 * by_df[t] <= span([t]))
    rare = [t for t in ranked if 2 <= by_df[t] <= 4]
    few = next([a, b] for a, b in zip(rare, rare[1:])
               if by_df[a] + by_df[b] < 10 and span([a, b]) >= 640)
    edges = [triples([zero], 0.0), triples(few, 1.0)]
    rng = np.random.default_rng(59)
    seeded = [triples(dict.fromkeys(str(rng.choice(ranked[-40:] if rng.random() < 0.7 else ranked))
                                    for _ in range(int(rng.integers(1, 5)))),
                      float(rng.choice([1.0, 2.0, 0.37]))) for _ in range(30)]
    positive = 0
    for i, tw in enumerate(edges + seeded):
        want = _bincount_oracle(s, tw)
        hits = len(want[0])
        del cuts[:]
        for k in dict.fromkeys((1, 10, 50, hits - 1, hits, None)):
            for prune in (True, False):
                before = s.counters["candidates_admitted"]
                got = s.search_bm25_weighted(tw, k, prune=prune)
                _assert_same(got, (want[0][:k], want[1][:k]), (tw, k, prune))
                if not prune:
                    assert s.counters["candidates_admitted"] - before == hits, (tw, k)
        # the scan's cuts: those taken over its whole span
        scan_cuts = [c for n, c in cuts if n == span([t for t, _, _ in tw])]
        if i < len(edges) and which != "spread_searcher":
            assert scan_cuts and min(scan_cuts) <= 0, (tw, scan_cuts)
        positive += any(c > 0 for c in scan_cuts)
    assert positive > 10 or which == "spread_searcher"


def test_zero_weight_term_keeps_its_docs(big_searcher, offset_part, spread_searcher):
    """External triples may carry qw = 0: a doc hit only by that term
    is still a candidate, with score exactly 0.0, on the span path and
    on the sparse path alike."""
    for s in (big_searcher, offset_part, spread_searcher):
        by_df = _terms_by_df(s)
        common = max(by_df, key=lambda t: (by_df[t], t))
        for rare in sorted(by_df, key=lambda t: (by_df[t], t)):
            only = np.setdiff1d(s.postings(rare)[0], s.postings(common)[0])
            if len(only):
                break
        tw = [(common, 1.0, 2.0), (rare, 0.0, 5.0)]
        ids, scores = s.search_bm25_weighted(tw, None, prune=False)
        _assert_same((ids, scores), _bincount_oracle(s, tw), s.index_dir)
        got = dict(zip(ids.tolist(), scores.tolist()))
        assert all(got[d] == 0.0 for d in only.tolist())


def _terms_by_df(s) -> dict[str, int]:
    """Every indexed term of `s` with its df (a salted index splits a
    term's shard rows, so df comes from the merged postings)."""
    terms = {t for sid in list_shards(s.index_dir)
             for t in open_shard(s.index_dir, sid)["term"].to_pylist()}
    return {t: s.df(t) for t in sorted(terms)}


@pytest.mark.parametrize("which", ["big_searcher", "salted_searcher"])
def test_df_rule_keeps_every_scan_or_probe_choice(which, request):
    """`_span_scans` sends a query to the scan from df and the doc-id
    span alone, ahead of the bounds; it may only reject what the cost
    rule for h rejects. Over 2,400 seeded queries mixing rare, middling
    and common terms, a searcher with it tallies the same counters
    after every query, and returns the same results, as one that runs
    the cost rule alone."""
    d = request.getfixturevalue(which).index_dir
    s, ref = IndexSearcher(d), IndexSearcher(d)
    ref._span_scans = lambda dfs, span, k: False
    fired, probed = [], []
    s._span_scans = lambda *a: fired.append(IndexSearcher._span_scans(*a)) or fired[-1]
    s._bm25_probe = lambda *a: probed.append(1) or IndexSearcher._bm25_probe(s, *a)
    by_df = _terms_by_df(s)
    bands = [sorted(t for t, df in by_df.items() if lo <= df < hi)
             for lo, hi in ((1, 10), (10, 60), (60, 600), (600, 10**9))]
    assert all(bands)
    rng = np.random.default_rng(43)
    for i in range(2400):
        n = int(rng.integers(2, 6))
        terms = list(dict.fromkeys(str(rng.choice(bands[int(b)]))
                                   for b in rng.integers(0, 4, size=n)))
        tw = [(t, 1 + int(rng.integers(0, 4) == 0), bm25_idf(by_df[t], s.n_docs)) for t in terms]
        k = int(rng.choice([1, 3, 10, 50]))
        _assert_same(s.search_bm25_weighted(tw, k), ref.search_bm25_weighted(tw, k), (tw, k))
        assert s.counters == ref.counters, (i, tw, k)
    # both outcomes of the pre-test, and probes among what it lets through
    assert sum(fired) > 100 and len(fired) - sum(fired) > 100
    assert len(probed) > 100


def _nearest_qw(tf, den, target: float, qw: float) -> float | None:
    """A query weight within a few ulps of `qw` that makes the weight
    of (tf, den) exactly `target`, or None."""
    for _ in range(8):
        w = _bm25_weight(tf, den, 1.0, qw)
        if w == target:
            return qw
        qw = np.nextafter(qw, np.inf if w < target else -np.inf)
    return None


def test_near_tie_at_the_cutoff_stays_exact(salted_searcher):
    """A doc holding only the probed term ties the cutoff exactly while
    that term's bound rounds one ulp below its weight.

    On the salted index a term's bound is its largest weight, taken in
    a different operation order, so for some query weights it rounds
    below the weight itself. The common term's best doc d gets such a
    weight, and the rare term's query weight is set so that its kth
    weight, the cutoff, equals d's weight exactly. The scan then ranks
    d into the top-k by the doc_id tie-break. The bound test must stay
    conservative by `_theta_slack`, or the common term is probed
    without d among the candidates."""
    s = salted_searcher
    common = "inform"
    p_c = s.postings(common)
    st_c = s._bm25_state(common, p_c)
    den_c = _bm25_den(p_c[1], p_c[2], s.avgdl)
    j = int(np.argmax(_bm25_weight(p_c[1], den_c, 1.0, 1.0)))
    d = int(p_c[0][j])
    qws = [q for q in 1.0 + np.arange(1, 400) / 397.0
           if q * st_c.ub_unit < _bm25_weight(p_c[1][j], den_c[j], 1.0, q)][:2]
    assert qws
    rares = sorted(t for sid in list_shards(s.index_dir)
                   for t, df in zip(*open_shard(s.index_dir, sid).select(["term", "df"])
                                    .to_pydict().values()) if 10 <= df <= 50)
    ties = 0
    for rare in rares:
        p_r = s.postings(rare)
        if ties >= 6 or d in p_r[0]:
            continue
        den_r = _bm25_den(p_r[1], p_r[2], s.avgdl)
        order = np.lexsort((p_r[0], -_bm25_weight(p_r[1], den_r, 1.0, 1.0)))
        for k, kd in enumerate(order.tolist(), start=1):
            if p_r[0][kd] < d or p_r[0][kd] in p_c[0]:
                continue
            for qc in qws:
                w_d = _bm25_weight(p_c[1][j], den_c[j], 1.0, qc)
                qr = _nearest_qw(p_r[1][kd], den_r[kd], w_d,
                                 w_d / _bm25_weight(p_r[1][kd], den_r[kd], 1.0, 1.0))
                if qr is None:
                    continue
                tw = [(rare, qr, 1.0), (common, qc, 1.0)]
                want = s.search_bm25_weighted(tw, k, prune=False)
                _assert_same(s.search_bm25_weighted(tw, k), want, (rare, k, qc))
                ties += d in want[0].tolist()
    assert ties >= 6


def _full_topk(ids, scores, k):
    order = np.lexsort((ids, -scores))[:k]
    return ids[order], scores[order]


@pytest.mark.parametrize("seed", range(6))
def test_topk_matches_full_lexsort(seed):
    """Partition-then-sort top-k equals slicing the full (score desc,
    doc_id asc) order: few distinct scores, so ties straddle every kth
    score, and each score is shared by many distinct doc_ids. The 5000
    scores take the block-maximum cut ahead of the partition for every
    k up to 78."""
    rng = np.random.default_rng(seed)
    for n, n_values in ((300, 7), (5000, 900)):
        ids = rng.permutation(10 * n)[:n].astype(np.int64)
        scores = rng.integers(0, n_values, size=n) / 4.0
        ks = [0, -3, 1, 10, 50, n - 1, n, n + 5, None] + rng.integers(2, n - 1, size=6).tolist()
        for k in ks:
            got = _topk(ids, scores, k)
            want = _full_topk(ids, scores, k)
            assert got[0].tolist() == want[0].tolist(), (n, k)
            assert got[1].tolist() == want[1].tolist(), (n, k)
    empty_ids, empty_scores = np.empty(0, dtype=np.int64), np.empty(0)
    for k in (0, 1, 5, None):
        got_ids, got_scores = _topk(empty_ids, empty_scores, k)
        assert len(got_ids) == len(got_scores) == 0


def _span_vectors(s) -> dict[str, dict]:
    """term -> {scale: bytes of its span vector} over every scale whose
    span vector `s` has built."""
    return {t: {sc: e[1].tobytes() for sc, e in st.scales.items() if e[1] is not None}
            for t, st in s._bm25_states.items() if st.mask is not None}


def test_avgdl_override_rebuilds_term_state(big_searcher):
    """A searcher that served queries before its stats were overridden
    (as `PartitionSearcher.__init__` does) must rebuild the cached BM25
    weights, bounds and span vectors: it answers bitwise as one
    overridden up front, and holds the same span vectors."""
    d = big_searcher.index_dir
    rng = np.random.default_rng(37)
    queries = [list(rng.choice(VOCAB, size=int(rng.integers(1, 5)), replace=False))
               for _ in range(12)] + [["needle", "information"]]
    served = IndexSearcher(d)
    for q in queries:
        served.search_bm25(q, 10)
        served.search_bm25(q, 10, prune=False)
    before = _span_vectors(served)
    assert before
    fresh = IndexSearcher(d)
    for s in (served, fresh):
        s.n_docs = 5 * s.n_docs
        s.avgdl = 1.7 * s.avgdl
    for q in queries:
        for kw in ({}, {"prune": False}):
            _assert_same(served.search_bm25(q, 10, **kw), fresh.search_bm25(q, 10, **kw), (q, kw))
    now = _span_vectors(served)
    assert now == _span_vectors(fresh)
    for t, vecs in before.items():
        assert now[t] and not set(now[t].values()) & set(vecs.values()), t


def _assert_same_as_fresh(served, method: str, q):
    """`served.<method>(q)` answers bitwise as a new searcher's, pruned
    and not."""
    for kw in ({}, {"prune": False}):
        fresh = IndexSearcher(served.index_dir)
        _assert_same(getattr(served, method)(q, 10, **kw),
                     getattr(fresh, method)(q, 10, **kw), (method, q, kw))


def test_weight_cache_follows_query_weight(big_searcher):
    """A term keeps its weights and span vector per (qw, idf) served: a
    repeated token (qw 2) computes a second entry and a later qw 1
    query is served from the first entry's arrays (the same objects),
    each answer bitwise a fresh one's; the span mask does not depend
    on the scale."""
    s = IndexSearcher(big_searcher.index_dir)
    t = _stem(s, "information")
    idf = bm25_idf(s.df(t), s.n_docs)
    masks, first = set(), {}
    for q, qw in ((["information"], 1), (["information", "information", "index"], 2),
                  (["information"], 1), (["information", "index"], 1)):
        _assert_same_as_fresh(s, "search_bm25", q)
        st = s._bm25_states[t]
        w, vec, _ = st.scales[qw, idf]
        assert all(a is b for a, b in zip(first.setdefault(qw, (w, vec)), (w, vec)))
        assert vec[s.postings(t)[0]].tobytes() == w.tobytes()
        masks.add(id(st.mask))
    assert len(masks) == 1
    assert list(s._bm25_states[t].scales) == [(1, idf), (2, idf)]
    for qw in range(3, 7):  # a full state drops its oldest scale first
        _assert_same_as_fresh(s, "search_bm25", ["information"] * qw)
    assert list(s._bm25_states[t].scales) == [(qw, idf) for qw in range(7 - SCALES_PER_TERM, 7)]


def test_weight_cache_follows_external_idf(big_searcher):
    """A part scores with idf from global df (`search_bm25_weighted`,
    as `PartitionSearcher` passes it): after local-idf queries on the
    same terms, it and the local queries after it answer bitwise as a
    fresh searcher."""
    s = IndexSearcher(big_searcher.index_dir)
    q = ["needle", "information", "search"]
    terms = [_stem(s, w) for w in q]
    local = [(t, 1, bm25_idf(s.df(t), s.n_docs)) for t in terms]
    part = [(t, 1, bm25_idf(3 * s.df(t) + 1, 3 * s.n_docs)) for t in terms]
    for method, step in (("search_bm25", q), ("search_bm25_weighted", local),
                         ("search_bm25_weighted", part), ("search_bm25_weighted", part[1:]),
                         ("search_bm25", q), ("search_bm25_weighted", part)):
        _assert_same_as_fresh(s, method, step)
    assert [list(s._bm25_states[t].scales) for t in terms] == [
        [(1, li), (1, pi)] for (_, _, li), (_, _, pi) in zip(local, part)]


def test_cached_arrays_are_read_only(big_searcher):
    """Cached postings, weights, span vectors, ranked orders and span
    masks are shared by every later query: an in-place write raises,
    and the next query still answers as a fresh searcher's."""
    s = IndexSearcher(big_searcher.index_dir)
    q = ["needle", "information"]
    s.search_bm25(q, 10)
    s.search_bm25(q, 10, prune=False)
    s.search_bm25(q[1:], 10)  # one term: builds its ranked order
    t = _stem(s, "information")
    p = s.postings(t)
    st = s._bm25_states[t]
    (entry,) = st.scales.values()
    arrays = [*p[:3], *entry, st.mask]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 7
        with pytest.raises(ValueError, match="read-only"):
            a += 1
    for kw in ({}, {"prune": False}):
        _assert_same(s.search_bm25(q, 10, **kw),
                     IndexSearcher(s.index_dir).search_bm25(q, 10, **kw), kw)


@pytest.mark.parametrize("which", ["big_searcher", "salted_searcher"])
def test_ranked_order_is_read_only_int32(which, request):
    """A term's cached ranked order is int32 (its df is far below
    2^31), read-only, and holds lexsort's int64 order value for value;
    the one-term top-k it gives equals the one taken with the int64
    order, bitwise, at every k."""
    s = IndexSearcher(request.getfixturevalue(which).index_dir)
    by_df = _terms_by_df(s)
    for t in (max(by_df, key=by_df.get), min(by_df, key=by_df.get)):
        p, idf = s.postings(t), bm25_idf(by_df[t], s.n_docs)
        w, order = s._bm25_state(t, p).ranked(p, 2, idf)
        assert order.dtype == np.int32 and not order.flags.writeable
        want = np.lexsort((p[0], -w))
        assert order.tolist() == want.tolist()
        for k in (1, 10, by_df[t]):
            _assert_same(s.search_bm25_weighted([(t, 2, idf)], k),
                         (p[0][want[:k]], w[want[:k]] + 0.0), (t, k))


def test_counters_keys(big_searcher):
    """Every ranked query is tallied under the same keys, scans,
    one-term queries and queries with no known term included; a term's
    weights are built once per query scale."""
    s = IndexSearcher(big_searcher.index_dir)
    keys = {"queries", "postings_scored", "blocks_skipped",
            "candidates_admitted", "span_terms", "weights_built"}
    assert set(COUNTER_KEYS) == keys
    assert set(s.counters) == keys
    s.search_bm25(["search", "shard"], 10)
    assert set(s.counters) == keys
    assert s.counters["queries"] == 1
    assert s.counters["postings_scored"] > 0
    assert s.counters["span_terms"] == 2  # two dense terms: it scans
    assert s.counters["weights_built"] == 2
    s.search_bm25(["search", "shard"], 10, prune=False)
    s.search_bm25(["search"], None)
    s.search_bm25(["qwertyuiop"], 10)
    assert set(s.counters) == keys
    assert s.counters["queries"] == 4
    assert s.counters["span_terms"] == 5
    # the same two scales, and one for "qwertyuiop" (in one doc)
    assert s.counters["weights_built"] == 3


@pytest.mark.parametrize("which", ["big_searcher", "salted_searcher", "offset_part",
                                   "spread_searcher"])
def test_one_term_topk_is_ranked_order_prefix(which, request):
    """A one-term top-k is the prefix of the term's cached ranked order:
    bitwise `_topk` over 0.0 + its weights from the formula, for k at
    1, 10, df - 1, df and df + 3, at two query weights, with ties at
    the kth score among the cases (and the rare `needle` where it is
    indexed). Each query still tallies df scored and admitted."""
    base = request.getfixturevalue(which)
    s = IndexSearcher(base.index_dir)
    s.n_docs, s.avgdl = base.n_docs, base.avgdl
    by_df = _terms_by_df(s)
    ranked = sorted(by_df, key=lambda t: (by_df[t], t))
    terms = [ranked[0], ranked[len(ranked) // 2], ranked[-len(ranked) // 10], ranked[-1]]
    terms += [t for t in s.analyzer.analyze("needle") if t in by_df]
    terms += [next(t for t in ranked if _kth_tie(s, t))]
    kth_ties = 0
    for t in dict.fromkeys(terms):
        p, df = s.postings(t), by_df[t]
        idf = bm25_idf(df, s.n_docs)
        for qw in (1, 2):
            w = _bm25_weight(p[1], _bm25_den(p[1], p[2], s.avgdl), idf, qw)
            for k in dict.fromkeys((1, 10, df - 1, df, df + 3)):
                before = dict(s.counters)
                got = s.search_bm25_weighted([(t, qw, idf)], k)
                _assert_same(got, _topk(p[0], 0.0 + w, k), (t, qw, k))
                if k > 0:
                    assert s.counters["postings_scored"] - before["postings_scored"] == df
                    assert s.counters["candidates_admitted"] - before["candidates_admitted"] == df
                top = np.sort(w)[::-1]
                kth_ties += 0 < k < df and top[k - 1] == top[k]
    assert kth_ties


def _kth_tie(s, t) -> bool:
    """Whether term t's 1st or 10th largest weight ties the next one."""
    p = s.postings(t)
    top = np.sort(p[1] * (K1 + 1.0) / _bm25_den(p[1], p[2], s.avgdl))[::-1]
    return any(k < len(top) and top[k - 1] == top[k] for k in (1, 10))


def test_second_pass_builds_no_weights(big_searcher):
    """Once a stream of queries mixing query weights 1 and 2 has been
    served, serving it again builds no weight array: every (term,
    scale) it needs is still cached."""
    s = IndexSearcher(big_searcher.index_dir)
    rng = np.random.default_rng(53)
    queries = [list(rng.choice(VOCAB, size=int(rng.integers(1, 5)))) for _ in range(300)]
    first = [s.search_bm25(q, 10) for q in queries]
    built = s.counters["weights_built"]
    assert built > 0
    for q, want in zip(queries, first):
        _assert_same(s.search_bm25(q, 10), want, q)
    assert s.counters["weights_built"] == built


def test_query_analysis_memo(big_searcher):
    """Memoized analysis gives a fresh analysis's tokens, for a string
    and for a keyword list, cold and warm; a caller that edits the
    returned list changes no later query."""
    s = IndexSearcher(big_searcher.index_dir)
    memo: dict = {}
    for q in ("Information retrieval of the NEEDLES", ["search", "Shard's", "the"],
              ["information", "information", "kitten"], [], "", "the"):
        want = [t for kw in ([q] if isinstance(q, str) else q) for t in s.analyzer.analyze(kw)]
        for _ in range(2):
            assert query_tokens(s.analyzer, q, memo) == want, q
    q = ["needle", "information"]
    want = s.search_bm25(q, 10)
    toks = query_tokens(s.analyzer, q, s._tokens)
    toks[0] = "search"
    toks.append("shard")
    _assert_same(s.search_bm25(q, 10), want, q)
    _assert_same(s.search_bm25(q, 10), IndexSearcher(s.index_dir).search_bm25(q, 10), q)


def test_rare_term_lets_common_term_skip_blocks(big_searcher):
    """"needle" is in one doc; its weight is the top-1 cutoff, which
    "information" (thousands of postings, many blocks) cannot reach
    alone, so that term is probed with the one candidate and only the
    block holding it is scored. With "needle" the only essential term,
    the candidate is scored exactly in one pass: nothing is rescored."""
    q = ["needle", "information"]
    _assert_same(big_searcher.search_bm25(q, 1),
                 big_searcher.search_bm25(q, 1, prune=False), q)
    s = IndexSearcher(big_searcher.index_dir)
    s.search_bm25(q, 1)
    assert s.df("needl") == 1 and s.df("inform") > 2 * 128
    assert s.counters["blocks_skipped"] >= 1
    assert s.counters["candidates_admitted"] == 1
    assert s.counters["postings_scored"] < s.df("inform")
