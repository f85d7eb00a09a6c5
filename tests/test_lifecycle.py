"""Full index lifecycle (L1-L4 story): incremental builds -> merge ->
tombstone delete -> compaction, checked against the brute-force oracle
at every step."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from mini_search_engine_ray.pipelines.build import build_index
from mini_search_engine_ray.pipelines.oracle import BruteForceOracle
from mini_search_engine_ray.sources.corpus import synth_corpus
from mini_search_engine_ray.stages.merge import compact_index, merge_indexes
from mini_search_engine_ray.state.searcher import IndexSearcher


def test_incremental_lifecycle(ray_session, tmp_path):
    import ray.data as rd

    corpus = synth_corpus(90, seed=55)
    docs = {i: corpus["content"][i].as_py() for i in range(90)}
    sl = lambda lo, hi: rd.from_arrow(corpus.select(["doc_id", "content"]).slice(lo, hi - lo))

    # two incremental builds (reference: addDocument batches + flush)
    a, b = str(tmp_path / "inc_a"), str(tmp_path / "inc_b")
    build_index(sl(0, 45), a, num_buckets=4, positional=True, n_docs=45,
                write_docstore=False, fingerprint="a")
    build_index(sl(45, 90), b, num_buckets=4, positional=True, n_docs=45,
                write_docstore=False, fingerprint="b")

    # merge (reference: mergeAllSegments)
    m = str(tmp_path / "merged")
    merge_indexes([a, b], m, merge_docstore=False)
    s = IndexSearcher(m)
    o = BruteForceOracle(docs, "composable")
    ids_e, sc_e = s.search_bm25(["index", "merge"], 10)
    ids_o, sc_o = o.search_bm25(["index", "merge"], 10)
    assert ids_e.tolist() == ids_o.tolist()
    np.testing.assert_allclose(sc_e, sc_o, rtol=1e-9)

    # delete a keyword (reference: deleteDocuments tombstone)
    assert len(s.search_keyword("index")) > 0
    s.delete_documents("index")
    assert len(s.search_keyword("index")) == 0
    # other queries unaffected
    assert s.search_keyword("needle").tolist() == o.search_keyword("needle")

    # compaction drops the term physically and clears tombstones
    c = str(tmp_path / "compacted")
    compact_index(m, c, merge_docstore=False)
    s2 = IndexSearcher(c)
    assert len(s2.tombstones) == 0
    assert len(s2.search_keyword("index")) == 0
    # everything else still oracle-exact after two merges
    for q in (["information", "retrieval"], ["needle"], ["kitten"]):
        ids_e, sc_e = s2.search_bm25(q, 10)
        # oracle over docs minus none (deletion only hides the term, not docs)
        ids_o, sc_o = o.search_bm25(q, 10)
        assert ids_e.tolist() == ids_o.tolist(), q
    # positional queries survive the double merge
    assert s2.search_phrase(["information", "retrieval"]).tolist() == o.search_phrase(
        ["information", "retrieval"]
    )


def test_add_documents_wrapper(ray_session, tmp_path):
    """`add_documents` — THE live-index update path (delta phase A +
    merge from exchange + docstore link): in-place swap equals one build over the union,
    docstore follows, scratch dirs are cleaned, dest= leaves the live
    index untouched, and live tombstones stay dead through the add."""
    import os

    import ray.data as rd

    from mini_search_engine_ray.pipelines.build import add_documents, load_meta

    corpus = synth_corpus(120, seed=77)
    docs = {i: corpus["content"][i].as_py() for i in range(120)}
    sl = lambda lo, hi: rd.from_arrow(
        corpus.select(["doc_id", "content"]).slice(lo, hi - lo))

    live = str(tmp_path / "live")
    build_index(sl(0, 60), live, num_buckets=4, positional=True, n_docs=60,
                write_docstore=True, fingerprint="live")
    meta = add_documents(live, sl(60, 90), n_new_docs=30)
    assert meta["n_docs"] == 90

    s = IndexSearcher(live)
    o = BruteForceOracle({i: docs[i] for i in range(90)}, "composable")
    for q in (["index", "merge"], ["needle"], ["information", "retrieval"]):
        ids_e, sc_e = s.search_bm25(q, 10)
        ids_o, sc_o = o.search_bm25(q, 10)
        assert ids_e.tolist() == ids_o.tolist(), q
        np.testing.assert_allclose(sc_e, sc_o, rtol=1e-9)
    assert s.search_phrase(["information", "retrieval"]).tolist() == \
        o.search_phrase(["information", "retrieval"])
    # the docstore followed the merge (added doc hydrates)
    got = s.get_documents([75])
    assert got.num_rows == 1 and got["content"][0].as_py() == docs[75]
    # scratch dirs cleaned
    for suffix in (".delta", ".merged", ".old"):
        assert not os.path.exists(live + suffix)

    # delete a term on the live index, then add with dest=: the term
    # stays dead (merge drops the union of tombstones physically) and
    # the live index is untouched
    s.delete_documents("index")
    updated = str(tmp_path / "updated")
    meta2 = add_documents(live, sl(90, 120), n_new_docs=30, dest=updated)
    assert meta2["n_docs"] == 120
    assert load_meta(live)["n_docs"] == 90  # live untouched by dest=
    s2 = IndexSearcher(updated)
    assert s2.search_keyword("index").tolist() == []
    assert len(s2.tombstones) == 0  # dropped physically, not hidden
    o2 = BruteForceOracle(docs, "composable")
    ids_e, _ = s2.search_bm25(["needle"], 10)
    ids_o, _ = o2.search_bm25(["needle"], 10)
    assert ids_e.tolist() == ids_o.tolist()


def _docstore_rows(index_dir: str) -> pa.Table:
    import os

    import pyarrow.dataset as pads

    return pads.dataset(os.path.join(index_dir, "docstore"), format="parquet") \
        .to_table().sort_by("doc_id")


def _shard_bytes(index_dir: str) -> dict[int, bytes]:
    from mini_search_engine_ray.stages.shards import list_shards, shard_paths

    out = {}
    for sid in list_shards(index_dir):
        with open(shard_paths(index_dir, sid)[0], "rb") as f:
            out[sid] = f.read()
    return out


def test_add_documents_byte_identical_to_single_build(ray_session, tmp_path):
    """Merging the delta straight from its exchange writes the same
    shard bytes, docstore rows and corpus statistics as one build over
    base + delta."""
    import ray.data as rd

    from mini_search_engine_ray.pipelines.build import add_documents

    corpus = synth_corpus(100, seed=31)
    sl = lambda lo, hi: rd.from_arrow(
        corpus.select(["doc_id", "content"]).slice(lo, hi - lo))
    kw = dict(num_buckets=4, positional=True, write_docstore=True)
    live, single = str(tmp_path / "live"), str(tmp_path / "single")
    build_index(sl(0, 70), live, n_docs=70, fingerprint="live", **kw)
    build_index(sl(0, 100), single, n_docs=100, fingerprint="single", **kw)
    meta = add_documents(live, sl(70, 100), n_new_docs=30)

    got, want = _shard_bytes(live), _shard_bytes(single)
    assert sorted(got) == sorted(want)
    for sid in want:
        assert got[sid] == want[sid], f"shard {sid} differs"
    assert _docstore_rows(live).equals(_docstore_rows(single))
    from mini_search_engine_ray.pipelines.build import load_meta

    ref = load_meta(single)
    for key in ("n_docs", "total_tokens", "avgdl"):
        assert meta[key] == ref[key], key
        assert load_meta(live)[key] == ref[key], key
    # the update reports its stages
    for key in ("phase_a_tokenize_exchange_sec", "merge_sec", "docstore_sec"):
        assert meta[key] >= 0.0 and load_meta(live)[key] == meta[key], key


def test_docstore_link_copy_fallback_and_collision(ray_session, tmp_path, monkeypatch):
    """The merged docstore links source parts; where linking fails
    (EXDEV across filesystems) it copies them, and a part name shared
    by two sources (shared doc_ids) raises instead of overwriting."""
    import errno
    import os

    import pytest
    import ray.data as rd

    corpus = synth_corpus(40, seed=13)
    sl = lambda lo, hi: rd.from_arrow(
        corpus.select(["doc_id", "content"]).slice(lo, hi - lo))
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    build_index(sl(0, 20), a, num_buckets=2, n_docs=20, fingerprint="a")
    build_index(sl(20, 40), b, num_buckets=2, n_docs=20, fingerprint="b")

    linked = str(tmp_path / "linked")
    merge_indexes([a, b], linked)
    parts = os.listdir(os.path.join(linked, "docstore"))
    assert parts and all(
        os.stat(os.path.join(linked, "docstore", p)).st_nlink == 2 for p in parts)

    def no_link(src, dst):
        raise OSError(errno.EXDEV, "cross-device link")

    monkeypatch.setattr(os, "link", no_link)
    copied = str(tmp_path / "copied")
    merge_indexes([a, b], copied)
    monkeypatch.undo()
    assert sorted(os.listdir(os.path.join(copied, "docstore"))) == sorted(parts)
    assert all(os.stat(os.path.join(copied, "docstore", p)).st_nlink == 1 for p in parts)
    rows = _docstore_rows(copied)
    assert rows.equals(_docstore_rows(linked))
    assert rows["doc_id"].to_pylist() == list(range(40))

    # same doc_ids in both sources -> same part names -> refuse
    a2 = str(tmp_path / "a2")
    build_index(sl(0, 20), a2, num_buckets=2, n_docs=20, fingerprint="a2")
    with pytest.raises(ValueError, match="disjoint doc_ids"):
        merge_indexes([a, a2], str(tmp_path / "clash"))


def test_add_documents_resumes_from_committed_exchange(ray_session, tmp_path, monkeypatch):
    """A crash after the delta's phase A committed: the re-run skips
    tokenization (it never reads the new documents again) and gives the
    same index as an uninterrupted update."""
    import os
    import shutil

    import pytest
    import ray.data as rd

    from mini_search_engine_ray.pipelines.build import add_documents, load_meta
    from mini_search_engine_ray.stages import merge as merge_mod

    corpus = synth_corpus(80, seed=91)
    sl = lambda lo, hi: rd.from_arrow(
        corpus.select(["doc_id", "content"]).slice(lo, hi - lo))
    base = str(tmp_path / "base")
    build_index(sl(0, 60), base, num_buckets=4, positional=True, n_docs=60,
                fingerprint="base")
    ref, live = str(tmp_path / "ref"), str(tmp_path / "live")
    shutil.copytree(base, ref)
    shutil.copytree(base, live)
    add_documents(ref, sl(60, 80), n_new_docs=20, fingerprint="d")

    real_merge = merge_mod.merge_indexes

    def killed(sources, dest, **kw):
        real_merge(sources, dest, **kw)
        raise RuntimeError("killed before the swap")

    work = str(tmp_path / "work")
    monkeypatch.setattr(merge_mod, "merge_indexes", killed)
    with pytest.raises(RuntimeError, match="killed"):
        add_documents(live, sl(60, 80), n_new_docs=20, fingerprint="d", work_dir=work)
    monkeypatch.undo()
    assert os.path.exists(os.path.join(work, "exchange", "_COMMITTED.json"))
    shutil.rmtree(live + ".merged")  # the merge output is lost too

    def poisoned(batch):
        raise AssertionError("the committed delta was tokenized again")

    again = rd.from_arrow(corpus.select(["doc_id", "content"]).slice(60, 20)) \
        .map_batches(poisoned, batch_format="pyarrow")
    meta = add_documents(live, again, n_new_docs=20, fingerprint="d", work_dir=work)
    assert not os.path.exists(work)
    assert _shard_bytes(live) == _shard_bytes(ref)
    assert _docstore_rows(live).equals(_docstore_rows(ref))
    ref_meta = load_meta(ref)
    for key in ("n_docs", "total_tokens", "avgdl", "n_postings", "fingerprint"):
        assert meta[key] == ref_meta[key], key
