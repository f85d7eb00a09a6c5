"""Hardening: multi-file corpora end-to-end, empty corpus, degenerate
inputs, meta round-trips."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from mini_search_engine_ray.pipelines.build import build_index, load_meta
from brute_force_oracle import BruteForceOracle
from mini_search_engine_ray.sources.corpus import (
    read_corpus_with_doc_ids,
    synth_corpus,
    write_corpus_parquet,
)
from mini_search_engine_ray.state.searcher import IndexSearcher


def test_multifile_corpus_end_to_end(ray_session, tmp_path):
    """Several parquet files -> offset doc ids -> build -> queries match
    the brute-force oracle (the 10^12-file layout in miniature)."""
    full = synth_corpus(150, seed=31).drop_columns(["doc_id"])
    paths = []
    for i in range(3):
        p = str(tmp_path / f"part-{i}.parquet")
        write_corpus_parquet(full.slice(i * 50, 50), p, rows_per_group=16)
        paths.append(p)
    ds = read_corpus_with_doc_ids(paths)
    idx = str(tmp_path / "idx")
    build_index(ds, idx, num_buckets=4, n_docs=150, write_docstore=False,
                fingerprint="mf", positional=True)
    docs = {i: full["content"][i].as_py() for i in range(150)}
    s = IndexSearcher(idx)
    o = BruteForceOracle(docs, "composable")
    for q in (["index"], ["information", "retrieval"], ["needle"]):
        assert s.search_and(q).tolist() == o.search_and(q), q
        ids_e, sc_e = s.search_bm25(q, 10)
        ids_o, sc_o = o.search_bm25(q, 10)
        assert ids_e.tolist() == ids_o.tolist(), q
        np.testing.assert_allclose(sc_e, sc_o, rtol=1e-9)
    assert s.search_phrase(["information", "retrieval"]).tolist() == o.search_phrase(
        ["information", "retrieval"]
    )


def test_empty_corpus_build(ray_session, tmp_path):
    import ray.data as rd

    t = pa.table(
        {
            "doc_id": pa.array([], type=pa.int64()),
            "content": pa.array([], type=pa.large_string()),
        }
    )
    idx = str(tmp_path / "empty")
    meta = build_index(rd.from_arrow(t), idx, num_buckets=4, n_docs=0,
                       write_docstore=False, fingerprint="e")
    assert meta["n_docs"] == 0 and meta["n_postings"] == 0
    s = IndexSearcher(idx)
    assert s.search_keyword("anything").tolist() == []
    ids, sc = s.search_bm25(["anything"], 10)
    assert len(ids) == 0


def test_all_stopword_corpus(ray_session, tmp_path):
    import ray.data as rd

    t = pa.table(
        {
            "doc_id": pa.array([0, 1], type=pa.int64()),
            "content": pa.array(["the and of", "is are was"], type=pa.large_string()),
        }
    )
    idx = str(tmp_path / "stop")
    meta = build_index(rd.from_arrow(t), idx, num_buckets=2, n_docs=2,
                       write_docstore=False, fingerprint="s")
    assert meta["n_postings"] == 0
    assert IndexSearcher(idx).search_or(["the", "was"]).tolist() == []


def test_meta_roundtrip_and_missing_index(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_meta(str(tmp_path / "nope"))
    with pytest.raises(FileNotFoundError):
        IndexSearcher(str(tmp_path / "nope2"))


def test_huge_tf_and_long_doc(ray_session, tmp_path):
    import ray.data as rd

    text = ("needle " * 5000) + ("haystack " * 3)
    t = pa.table(
        {
            "doc_id": pa.array([0, 1], type=pa.int64()),
            "content": pa.array([text, "needle alone"], type=pa.large_string()),
        }
    )
    idx = str(tmp_path / "tf")
    build_index(rd.from_arrow(t), idx, num_buckets=2, n_docs=2,
                write_docstore=False, fingerprint="t", positional=True)
    s = IndexSearcher(idx)
    p = s.postings("needl", positions=True)
    assert p[0].tolist() == [0, 1]
    assert p[1][0] == 5000  # tf survives varint round-trip
    assert len(p[3][0]) == 5000
    assert s.search_phrase(["needle", "haystack"]).tolist() == [0]


def test_docstore_point_lookup(ray_session, tmp_path):
    """J4: doc_id -> Document materialization via range-pruned docstore
    reads (reference MapDB point lookups)."""
    import ray.data as rd

    corpus = synth_corpus(40, seed=9)
    idx = str(tmp_path / "ds_idx")
    build_index(rd.from_arrow(corpus), idx, num_buckets=2, n_docs=40,
                fingerprint="ds", write_docstore=True)
    s = IndexSearcher(idx)
    hits = s.search_keyword("index")
    docs = s.get_documents(hits[:5])
    assert docs.num_rows == min(5, len(hits))
    got = dict(zip(docs["doc_id"].to_pylist(), docs["content"].to_pylist()))
    for i in hits[:5].tolist():
        assert got[i] == corpus["content"][i].as_py()
    # sha256 invariance (north-rule D4) holds in the docstore
    import hashlib
    for i, c in got.items():
        row = docs.filter(__import__("pyarrow").compute.equal(docs["doc_id"], i))
        assert row["sha256"][0].as_py() == hashlib.sha256(c.encode()).hexdigest()


def test_docstore_rows_equal_corpus(ray_session, tmp_path):
    """The docstore the tokenize tasks side-output (the corpus is read
    once) holds exactly the corpus rows with the sha256 of each content,
    and a resumed build reuses it."""
    import hashlib

    import pyarrow.dataset as pads
    import ray.data as rd

    corpus = synth_corpus(60, seed=13)
    d1 = str(tmp_path / "sp")
    build_index(rd.from_arrow(corpus), d1, num_buckets=2, n_docs=60,
                fingerprint="x", write_docstore=True)

    got = pads.dataset(f"{d1}/docstore", format="parquet").to_table().sort_by("doc_id")
    want = corpus.sort_by("doc_id")
    assert got.num_rows == 60
    for col in ("doc_id", "content"):
        assert got[col].to_pylist() == want[col].to_pylist(), col
    assert got["sha256"].to_pylist() == [
        hashlib.sha256(c.encode()).hexdigest() for c in want["content"].to_pylist()
    ]
    # resume: committed exchange marker -> docstore partitions survive
    import os
    before = sorted(os.listdir(f"{d1}/docstore"))
    mtimes = {f: os.path.getmtime(f"{d1}/docstore/{f}") for f in before}
    meta = build_index(rd.from_arrow(corpus), d1, num_buckets=2, n_docs=60,
                       fingerprint="x", write_docstore=True)
    assert meta["shards_skipped"] == meta["n_shards"]
    assert sorted(os.listdir(f"{d1}/docstore")) == before
    assert all(os.path.getmtime(f"{d1}/docstore/{f}") == mtimes[f] for f in before)


def test_lineitem_money_encoding_rejects_nulls():
    """A null money column fails loudly instead of becoming NaN and then
    an undefined int64 in the exact-integer encodings."""
    from mini_search_engine_ray.pipelines.driver_queries import _li_ints

    t = pa.table({
        "l_quantity": pa.array([3.0, 5.0]),
        "l_extendedprice": pa.array([12.5, None], pa.float64()),
        "l_discount": pa.array([0.05, 0.1]),
        "l_tax": pa.array([0.02, 0.0]),
    })
    with pytest.raises(ValueError, match="l_extendedprice"):
        _li_ints(t)
    q, pc_, dp, tp = _li_ints(t.set_column(
        1, "l_extendedprice", pa.array([12.5, 7.25])))
    assert q.tolist() == [3, 5] and pc_.tolist() == [1250, 725]
    assert dp.tolist() == [5, 10] and tp.tolist() == [2, 0]
