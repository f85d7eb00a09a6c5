"""Exact-tie ordering of the pruned BM25 traversals at a scale where
per-doc float-addition order matters.

Regression for a real divergence: summing a doc's term contributions in
UB-sorted (MaxScore) or pivot-sorted (WAND) order can differ from the
exhaustive bincount by 1 ulp, flipping the doc_id tie-break between
docs whose true scores are exactly equal (duplicate (tf, dl) profiles —
common in real corpora). Both traversals now produce scores summed in
ORIGINAL term order (WAND: ti-sorted full evaluation; MaxScore: final
`_exact_rescore` pass), making them bitwise identical to exhaustive.
The 200-doc fixtures in test_build_query.py can't catch this; 3000
docs with a repetitive vocabulary can.

Also pinned here: the partition-based `_topk` against a full lexsort,
the per-term BM25 state cache under an avgdl override, and the
MaxScore work counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from mini_search_engine_ray.pipelines.build import build_index
from mini_search_engine_ray.sources.corpus import synth_corpus
from mini_search_engine_ray.state.searcher import IndexSearcher

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
        ids_e, sc_e = s.search_bm25(q, k, prune=False)
        ids_m, sc_m = s.search_bm25(q, k, prune=True)
        ids_w, sc_w = s.search_bm25(q, k, prune=True, method="wand")
        assert ids_m.tolist() == ids_e.tolist(), (q, k, "maxscore ids")
        assert ids_w.tolist() == ids_e.tolist(), (q, k, "wand ids")
        # bitwise score equality — not approx — is the contract
        assert sc_m.tolist() == sc_e.tolist(), (q, k, "maxscore scores")
        assert sc_w.tolist() == sc_e.tolist(), (q, k, "wand scores")
        checked += 1
    assert checked == 120


def test_reviewer_repro_case(big_searcher):
    """The originally-failing query (1-ulp score divergence flipped two
    exactly-tied docs at ranks 3/4)."""
    s = big_searcher
    q = ["search", "shard", "stream", "the", "reader"]
    ids_e, sc_e = s.search_bm25(q, 12, prune=False)
    ids_w, sc_w = s.search_bm25(q, 12, prune=True, method="wand")
    ids_m, sc_m = s.search_bm25(q, 12, prune=True)
    assert ids_w.tolist() == ids_e.tolist()
    assert ids_m.tolist() == ids_e.tolist()
    assert sc_w.tolist() == sc_e.tolist()
    assert sc_m.tolist() == sc_e.tolist()


def test_single_term_and_edge_k_bitwise_equal_exhaustive(big_searcher):
    """Single-term queries (MaxScore's direct top-k from the weight
    vector), k beyond the candidate count (every candidate kept) and
    k = 0 (nothing; the pruned paths take the exhaustive one)."""
    s = big_searcher
    rng = np.random.default_rng(29)
    for term in VOCAB:
        for k in (0, 1, 7, 5000):
            want = s.search_bm25([term], k, prune=False)
            _assert_same(s.search_bm25([term], k), want, (term, k, "maxscore"))
            _assert_same(s.search_bm25([term], k, method="wand"), want, (term, k, "wand"))
    for _ in range(20):
        q = list(rng.choice(VOCAB, size=int(rng.integers(2, 5)), replace=False))
        want = s.search_bm25(q, 5000, prune=False)
        assert len(want[0]) < 5000
        _assert_same(s.search_bm25(q, 5000), want, (q, "maxscore"))


def test_salted_index_pruned_bitwise_equal_exhaustive(salted_searcher):
    """salt=3 merges each term's postings from three sub-shards, so
    `_block_meta` is None and the pruned paths bound each term by its
    exact weights instead of block maxima."""
    s = salted_searcher
    assert s._block_meta("search") is None
    rng = np.random.default_rng(31)
    for i in range(40):
        q = list(rng.choice(VOCAB, size=int(rng.integers(1, 5)), replace=False))
        k = int(rng.integers(1, 25))
        want = s.search_bm25(q, k, prune=False)
        _assert_same(s.search_bm25(q, k), want, (q, k, "maxscore"))
        if i % 4 == 0:
            _assert_same(s.search_bm25(q, k, method="wand"), want, (q, k, "wand"))


def _full_topk(ids, scores, k):
    order = np.lexsort((ids, -scores))[:k]
    return ids[order], scores[order]


@pytest.mark.parametrize("seed", range(6))
def test_topk_matches_full_lexsort(seed):
    """Partition-then-sort top-k equals slicing the full (score desc,
    doc_id asc) order: few distinct scores, so ties straddle every kth
    score, and each score is shared by many distinct doc_ids."""
    rng = np.random.default_rng(seed)
    n = 300
    ids = rng.permutation(10 * n)[:n].astype(np.int64)
    scores = rng.integers(0, 7, size=n) / 4.0
    ks = [0, -3, 1, n - 1, n, n + 5, None] + rng.integers(2, n - 1, size=6).tolist()
    for k in ks:
        got = IndexSearcher._topk(ids, scores, k)
        want = _full_topk(ids, scores, k)
        assert got[0].tolist() == want[0].tolist(), k
        assert got[1].tolist() == want[1].tolist(), k
    empty_ids, empty_scores = np.empty(0, dtype=np.int64), np.empty(0)
    for k in (0, 1, 5, None):
        got_ids, got_scores = IndexSearcher._topk(empty_ids, empty_scores, k)
        assert len(got_ids) == len(got_scores) == 0


def test_avgdl_override_rebuilds_term_state(big_searcher):
    """A searcher that served queries before its stats were overridden
    (as `PartitionSearcher.__init__` does) must rebuild the cached BM25
    denominators: it answers bitwise as one overridden up front."""
    d = big_searcher.index_dir
    rng = np.random.default_rng(37)
    queries = [list(rng.choice(VOCAB, size=int(rng.integers(1, 5)), replace=False))
               for _ in range(12)]
    served = IndexSearcher(d)
    for q in queries:
        served.search_bm25(q, 10)
        served.search_bm25(q, 10, method="wand")
    fresh = IndexSearcher(d)
    for s in (served, fresh):
        s.n_docs = 5 * s.n_docs
        s.avgdl = 1.7 * s.avgdl
    for q in queries:
        for kw in ({}, {"prune": False}, {"method": "wand"}):
            _assert_same(served.search_bm25(q, 10, **kw), fresh.search_bm25(q, 10, **kw), (q, kw))


def test_counters_keys(big_searcher):
    s = IndexSearcher(big_searcher.index_dir)
    keys = {"queries", "postings_scored", "blocks_skipped",
            "candidates_admitted", "docs_rescored"}
    assert set(s.counters) == keys
    s.search_bm25(["search", "shard"], 10)
    assert set(s.counters) == keys
    assert s.counters["queries"] == 1
    assert s.counters["postings_scored"] > 0


def test_rare_term_lets_common_term_skip_blocks(big_searcher):
    """"needle" is in one doc; once it fills the top-1, "information"
    (thousands of postings, many blocks) can no longer admit new docs
    and scores only the blocks holding that candidate."""
    s = IndexSearcher(big_searcher.index_dir)
    q = ["needle", "information"]
    assert s.df("needl") == 1 and s.df("inform") > 2 * 128
    got = s.search_bm25(q, 1)
    _assert_same(got, s.search_bm25(q, 1, prune=False), q)
    assert s.counters["blocks_skipped"] >= 1
    assert s.counters["candidates_admitted"] == 1
    assert s.counters["postings_scored"] < s.df("inform")
