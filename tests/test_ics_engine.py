"""IcsSearchEngine-equivalent surface: tsv readers, fused search,
wordbreak analyzer end-to-end, doc iterator (SURVEY §3.3, §5 style 7)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from mini_search_engine_ray.pipelines.ics_engine import (
    IcsSearchEngine,
    read_id_graph_tsv,
    read_url_tsv,
)
from brute_force_oracle import BruteForceOracle
from mini_search_engine_ray.sources.corpus import synth_corpus


@pytest.fixture(scope="module")
def engine(ray_session, tmp_path_factory):
    import ray.data as rd

    d = tmp_path_factory.mktemp("ics")
    corpus = synth_corpus(80, seed=21)
    # url.tsv + id-graph.tsv in the reference's format
    with open(d / "url.tsv", "w") as f:
        for i in range(80):
            f.write(f"{i}\thttps://example.org/page{i}\n")
    rng = np.random.default_rng(4)
    with open(d / "id-graph.tsv", "w") as f:
        for u in range(80):
            for v in rng.choice(80, size=3, replace=False):
                if u != int(v):
                    f.write(f"{u}\t{int(v)}\n")

    urls = read_url_tsv(str(d / "url.tsv"))
    edges = read_id_graph_tsv(str(d / "id-graph.tsv"))
    eng = IcsSearchEngine.build(
        rd.from_arrow(corpus),
        str(d / "index"),
        urls_ds=urls,
        n_docs=80,
        num_buckets=4,
        fingerprint="ics",
    )
    eng.compute_page_rank(edges, 80, iterations=20)
    docs = {i: corpus["content"][i].as_py() for i in range(80)}
    return eng, docs


def test_url_tsv_reader(engine):
    eng, _ = engine
    assert len(eng.urls) == 80
    assert eng.urls[3] == "https://example.org/page3"


def test_weight_zero_equals_tfidf(engine):
    eng, docs = engine
    o = BruteForceOracle(docs, "composable")
    ids_f, sc_f = eng.search_query(["information", "retrieval"], 10, 0.0)
    ids_o, sc_o = o.search_tfidf(["information", "retrieval"], 10)
    assert ids_f.tolist() == ids_o.tolist()
    np.testing.assert_allclose(sc_f, sc_o, rtol=1e-9)


def test_fused_reranks_with_weight(engine):
    eng, _ = engine
    ids0, _ = eng.search_query(["index"], 1000, 0.0)
    ids_big, sc_big = eng.search_query(["index"], 1000, 1000.0)
    # same doc set over ALL matches; order follows pagerank at huge weight
    assert set(ids0.tolist()) == set(ids_big.tolist())
    pr = eng.pagerank_scores
    got_order = [pr[i] for i in ids_big]
    assert all(got_order[i] >= got_order[i + 1] - 1e-9 for i in range(len(got_order) - 1))


def test_pagerank_scores_sorted(engine):
    eng, _ = engine
    scored = eng.get_page_rank_scores()
    vals = [s for _, s in scored]
    assert vals == sorted(vals, reverse=True)
    assert len(scored) == 80


def test_document_iterator(engine):
    eng, _ = engine
    rows = list(eng.document_iterator())
    assert len(rows) == 80
    assert {"doc_id", "content", "sha256"} <= set(rows[0].keys())


def test_wordbreak_index_end_to_end(ray_session, tmp_path):
    """ST1: the word-break analyzer (dictionary loaded once per actor)
    through the full build + query path."""
    import ray.data as rd

    from mini_search_engine_ray.pipelines.build import build_index
    from mini_search_engine_ray.state.searcher import IndexSearcher

    dict_path = tmp_path / "dict.txt"
    dict_path.write_text(
        "the 23135851162\ncat 900000\nand 10000000\ndog 800000\n"
        "a 8000000\nbird 500000\nsat 400000\nmat 300000\non 200000\n"
    )
    docs = ["catanddog", "thecatsatonthemat", "birdandcat", "dogdogdog"]
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(4, dtype=np.int64)),
            "content": pa.array(docs, type=pa.large_string()),
        }
    )
    idx = str(tmp_path / "wb_idx")
    build_index(
        rd.from_arrow(t), idx, analyzer="wordbreak", num_buckets=2, n_docs=4,
        write_docstore=False, wordbreak_dict_path=str(dict_path),
    )
    s = IndexSearcher(idx)
    assert s.search_keyword("cat").tolist() == [0, 1, 2]
    assert s.search_and(["cat", "dog"]).tolist() == [0]
    # "and"/"the"/"on"/"a" are stopwords -> filtered after the DP break
    assert s.search_keyword("the").tolist() == []
    ids, _ = s.search_bm25("dog", 10)
    assert ids[0] == 3  # tf=3 wins


def test_pagerank_size_dispatch_no_driver_collect(engine, monkeypatch, tmp_path):
    """Above the edge threshold compute_page_rank must run the
    distributed pagerank_dataset path: the driver never materializes
    the edge list, and the scores match the numpy loop to float
    reduction-order noise."""
    import ray.data as rd

    from mini_search_engine_ray.pipelines import ics_engine as mod
    from mini_search_engine_ray.pipelines.pagerank import pagerank_numpy

    eng, _ = engine
    rng = np.random.default_rng(11)
    src = rng.integers(0, 60, size=400).astype(np.int64)
    dst = rng.integers(0, 60, size=400).astype(np.int64)
    expected = pagerank_numpy(src, dst, 60, iterations=15)
    edges = rd.from_arrow(pa.table({"src": pa.array(src), "dst": pa.array(dst)}))

    def boom(_edges):
        raise AssertionError("driver collected the edge list above threshold")

    monkeypatch.setattr(mod.IcsSearchEngine, "_collect_edges",
                        staticmethod(boom))
    got = eng.compute_page_rank(edges, 60, iterations=15, collect_threshold=100)
    # distributed sums reduce in a different order -> 1-ulp-class noise
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    # a caller-supplied num_edges picks the distributed path WITHOUT
    # counting (still no driver collect — boom stays patched)
    got_hint = eng.compute_page_rank(edges, 60, iterations=15,
                                     collect_threshold=100, num_edges=400)
    np.testing.assert_allclose(got_hint, expected, rtol=1e-12, atol=1e-12)

    # below the threshold the collect path runs (restore it first)
    monkeypatch.undo()
    got_small = eng.compute_page_rank(edges, 60, iterations=15,
                                      collect_threshold=10**6)
    np.testing.assert_array_equal(got_small, expected)
    # ...and a num_edges hint below threshold also collects
    got_small2 = eng.compute_page_rank(edges, 60, iterations=15,
                                       collect_threshold=10**6,
                                       num_edges=400)
    np.testing.assert_array_equal(got_small2, expected)
    # leave the fixture's own pagerank state in place for other tests
    eng.compute_page_rank(
        rd.from_arrow(pa.table({"src": pa.array([], pa.int64()),
                                "dst": pa.array([], pa.int64())})), 80,
        iterations=1)
