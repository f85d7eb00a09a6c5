"""Multi-part query serving: bitwise parity with the single-index
searcher, partition-count invariance, global-stats correctness
(state/distributed.py). Every parity test runs the in-process ranker
(`PartsSearcher`) and its Ray transport (`DistributedSearcher`)."""

from __future__ import annotations

import contextlib
import itertools

import numpy as np
import pyarrow as pa
import pytest

from mini_search_engine_ray.pipelines.build import build_index
from mini_search_engine_ray.state.distributed import (
    DistributedSearcher,
    PartsSearcher,
    build_partitioned_index,
    load_root_meta,
)
from mini_search_engine_ray.state.searcher import IndexSearcher

N_DOCS = 400

# every multi-part searcher; fractional actor CPUs: P actors must
# co-schedule inside the 4-CPU test session without starving Ray Data
# tasks
SEARCHERS = {
    "parts": PartsSearcher,
    "actors": lambda root: DistributedSearcher(root, num_cpus_per_actor=0.25),
}


@contextlib.contextmanager
def _opened(kind: str, root):
    s = SEARCHERS[kind](str(root))
    try:
        yield s
    finally:
        s.shutdown()


def _corpus_table(n=N_DOCS, seed=21) -> pa.Table:
    rng = np.random.default_rng(seed)
    vocab = np.asarray(
        "spark window merge table row scan hash join filter vector index "
        "agg key part sort read write block shard term doc query score".split()
    )
    texts = [" ".join(rng.choice(vocab, size=int(rng.integers(5, 40)))) for _ in range(n)]
    texts[7] = texts[11] = "spark window merge " * 3  # exact score ties
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "content": pa.array(texts, type=pa.large_string()),
        }
    )


@pytest.fixture(scope="module")
def indexes(ray_session, tmp_path_factory):
    import ray.data as rd

    root = tmp_path_factory.mktemp("dist")
    t = _corpus_table()
    build_index(
        rd.from_arrow(t), str(root / "single"), analyzer="punctuation",
        num_buckets=4, n_docs=t.num_rows, write_docstore=False,
    )
    for P in (1, 4):
        build_partitioned_index(
            rd.from_arrow(t), str(root / f"dist{P}"), n_partitions=P,
            analyzer="punctuation", num_buckets=4, fingerprint=f"t{P}",
        )
    # positional pair for distributed phrase search
    build_index(
        rd.from_arrow(t), str(root / "single_pos"), analyzer="punctuation",
        num_buckets=4, n_docs=t.num_rows, write_docstore=False, positional=True,
    )
    build_partitioned_index(
        rd.from_arrow(t), str(root / "dist_pos"), n_partitions=3,
        analyzer="punctuation", num_buckets=4, fingerprint="tp",
        positional=True,
    )
    return root


QUERIES = [
    ["spark", "window", "merge"],
    ["table"],
    ["vector", "index", "doc", "score"],
    ["spark", "spark", "window"],  # duplicate keyword -> qw accumulation
    ["nosuchterm"],
    ["nosuchterm", "table"],
]


def test_root_meta_global_stats(indexes):
    single = IndexSearcher(str(indexes / "single"))
    meta = load_root_meta(str(indexes / "dist4"))
    assert meta["n_docs"] == N_DOCS
    assert meta["avgdl"] == pytest.approx(single.avgdl)
    assert meta["n_partitions"] == 4


@pytest.mark.parametrize("P", [1, 4])
def test_bm25_bitwise_parity(indexes, P):
    single = IndexSearcher(str(indexes / "single"))
    for kind in SEARCHERS:
        with _opened(kind, indexes / f"dist{P}") as dist:
            for q in QUERIES:
                for k, prune in [(10, True), (10, False), (None, False), (3, True),
                                 (1, True), (0, True), (None, True), (-3, True),
                                 (-3, False)]:
                    ids_s, sc_s = single.search_bm25(q, k, prune=prune)
                    ids_d, sc_d = dist.search_bm25(q, k, prune=prune)
                    assert ids_d.tolist() == ids_s.tolist(), (kind, q, k, prune)
                    assert sc_d.tolist() == sc_s.tolist(), (kind, q, k, prune)  # bitwise


def test_tfidf_bitwise_parity(indexes):
    single = IndexSearcher(str(indexes / "single"))
    for kind in SEARCHERS:
        with _opened(kind, indexes / "dist4") as dist:
            for q in QUERIES:
                for k in (10, None, -3):
                    ids_s, sc_s = single.search_tfidf(q, k)
                    ids_d, sc_d = dist.search_tfidf(q, k)
                    assert ids_d.tolist() == ids_s.tolist(), (kind, q, k)
                    assert sc_d.tolist() == sc_s.tolist(), (kind, q, k)


def test_bm25_batched_parity(indexes):
    """search_bm25_many (one df exchange + one scatter for the whole
    batch) returns, per query, exactly what the one-at-a-time
    scatter-gather and the single index return — batching changes the
    transport, not the math. Includes empty/unknown-term queries, which
    must come back as empty results at the right batch positions."""
    single = IndexSearcher(str(indexes / "single"))
    batch = QUERIES + [[], ["nosuchterm"]]
    for kind in SEARCHERS:
        with _opened(kind, indexes / "dist4") as dist:
            for k in (10, -3):
                many = dist.search_bm25_many(batch, k)
                assert len(many) == len(batch)
                for q, (ids_m, sc_m) in zip(batch, many):
                    ids_s, sc_s = single.search_bm25(q, k)
                    assert ids_m.tolist() == ids_s.tolist(), (kind, q, k)
                    assert sc_m.tolist() == sc_s.tolist(), (kind, q, k)  # bitwise


def test_partition_count_invariance(indexes):
    # sequential create/use/shutdown: concurrent 1-CPU actor fleets can
    # exceed the 4-CPU test session and deadlock actor scheduling
    res = {}
    for kind in SEARCHERS:
        for P in (1, 4):
            with _opened(kind, indexes / f"dist{P}") as d:
                res[kind, P] = [d.search_bm25(q, 10) for q in QUERIES]
    for key in res:
        for a, b in zip(res["actors", 1], res[key]):
            assert a[0].tolist() == b[0].tolist(), key
            assert a[1].tolist() == b[1].tolist(), key


def test_boolean_scatter_parity(indexes):
    """keyword/AND/OR/phrase over the doc-partitioned index: one
    scatter, no df exchange — sorted concat of the doc-disjoint
    partition answers equals the single positional index exactly."""
    single = IndexSearcher(str(indexes / "single_pos"))
    for kind in SEARCHERS:
        with _opened(kind, indexes / "dist_pos") as dist:
            for kw in ["spark", "table", "nosuchterm"]:
                assert dist.search_keyword(kw).tolist() == single.search_keyword(kw).tolist()
            for q in QUERIES:
                assert dist.search_and(q).tolist() == single.search_and(q).tolist(), q
                assert dist.search_or(q).tolist() == single.search_or(q).tolist(), q
            for ph in [["spark", "window"], ["spark", "window", "merge"],
                       ["window", "spark"], ["nosuchterm", "spark"]]:
                assert dist.search_phrase(ph).tolist() == single.search_phrase(ph).tolist(), ph
            for pref in ["s", "sc", "nosuch", "table"]:
                assert dist.search_prefix(pref).tolist() == single.search_prefix(pref).tolist(), pref
            for inc, exc in [(["spark"], ["window"]), (["spark", "table"], ["merge", "row"]),
                             (["spark"], []), (["nosuchterm"], ["spark"])]:
                assert dist.search_not(inc, exc).tolist() == single.search_not(inc, exc).tolist(), (inc, exc)
            for ph, slop in [(["spark", "window"], 0), (["spark", "window"], 2),
                             (["spark", "merge"], 3)]:
                assert dist.search_near(ph, slop).tolist() == single.search_near(ph, slop).tolist(), (ph, slop)
            for kw, e in [("spork", 1), ("tible", 2), ("nosuchterm", 1)]:
                assert dist.search_fuzzy(kw, e).tolist() == single.search_fuzzy(kw, e).tolist(), (kw, e)
            for pat in ["s*k", "t?ble", "*dow", "nosuch*"]:
                assert dist.search_wildcard(pat).tolist() == single.search_wildcard(pat).tolist(), pat


def test_local_df_differs_but_global_scores_match(indexes):
    """The point of pass 1: per-partition df is NOT the global df, yet
    scores still match — i.e. the exchange is actually load-bearing."""
    from mini_search_engine_ray.state.distributed import PartitionSearcher, partition_dir

    meta = load_root_meta(str(indexes / "dist4"))
    locals_ = [
        PartitionSearcher(partition_dir(str(indexes / "dist4"), p),
                          meta["n_docs"], meta["avgdl"]).local_dfs(["table"])["table"]
        for p in range(4)
    ]
    single = IndexSearcher(str(indexes / "single"))
    assert sum(locals_) == single.df("table")
    assert any(x != single.df("table") for x in locals_)


def test_hydrated_results_parity(ray_session, tmp_path):
    """hydrate=True returns the winners' CONTENT from the partition-
    local docstores, identical to single-index J4 hydration — and the
    (ids, scores) prefix stays bitwise-equal to the un-hydrated path."""
    import ray.data as rd

    t = _corpus_table(120, seed=5)
    build_index(
        rd.from_arrow(t), str(tmp_path / "single"), analyzer="punctuation",
        num_buckets=4, n_docs=t.num_rows, write_docstore=True,
    )
    build_partitioned_index(
        rd.from_arrow(t), str(tmp_path / "dist"), n_partitions=3,
        analyzer="punctuation", num_buckets=4, fingerprint="hyd",
        write_docstore=True,
    )
    single = IndexSearcher(str(tmp_path / "single"))
    for kind in SEARCHERS:
        with _opened(kind, tmp_path / "dist") as dist:
            for q, k in itertools.product(
                    (["spark", "window"], ["table", "scan"], ["nosuchterm"]), (7, None, -3)):
                ids_s, sc_s = single.search_bm25(q, k)
                ids_d, sc_d, docs_d = dist.search_bm25(q, k, hydrate=True)
                assert ids_d.tolist() == ids_s.tolist(), (kind, q, k)
                assert sc_d.tolist() == sc_s.tolist(), (kind, q, k)
                # single-index J4 lookup as the hydration oracle
                tbl = single.get_documents(ids_s) if len(ids_s) else None
                expected = (
                    {} if tbl is None
                    else dict(zip(tbl["doc_id"].to_pylist(),
                                  tbl["content"].to_pylist()))
                )
                assert docs_d == [expected[int(i)] for i in ids_d]
                # the content matches the source corpus verbatim
                for i, c in zip(ids_d, docs_d):
                    assert c == t["content"][int(i)].as_py()
