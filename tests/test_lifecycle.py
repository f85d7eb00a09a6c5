"""Full index lifecycle (L1-L4 story): incremental builds -> merge ->
tombstone delete -> compaction, checked against the brute-force oracle
at every step."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from mini_search_engine_ray.pipelines.build import build_index
from brute_force_oracle import BruteForceOracle
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
    # ... and its merge work: the new doc_ids follow the live ones, so
    # no live posting is decoded (terms the delta touches are appended)
    counts = {k: meta[k] for k in ("merge_terms_copied", "merge_terms_appended",
                                   "merge_terms_rebuilt", "merge_postings_decoded")}
    assert counts["merge_postings_decoded"] == 0, counts
    assert counts["merge_terms_copied"] > 0 and counts["merge_terms_appended"] > 0, counts
    from mini_search_engine_ray.stages.shards import list_shards, open_shard

    n_terms = sum(open_shard(live, sid).num_rows for sid in list_shards(live))
    assert (counts["merge_terms_copied"] + counts["merge_terms_appended"]
            + counts["merge_terms_rebuilt"]) == n_terms, counts



def test_wordbreak_docstore_build_and_update(ray_session, tmp_path):
    """A dictionary-analyzer build writes its docstore in the tokenize
    pass like any other, and `add_documents` onto it merges the docstore
    to base + delta and the postings to match a search over both."""
    import hashlib

    import ray.data as rd

    from mini_search_engine_ray.pipelines.build import add_documents

    dict_path = tmp_path / "dict.txt"
    dict_path.write_text("cat 900000\ndog 800000\nbird 500000\nfish 400000\n")
    texts = ["catdog", "birdcat", "dogdogdog", "fishbird", "catcat", "dogfish",
             "birdbird", "fishcat", "dogbird", "catfish"]
    corpus = pa.table({"doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
                       "content": pa.array(texts)})
    live = str(tmp_path / "wb")
    build_index(rd.from_arrow(corpus.slice(0, 6)), live, analyzer="wordbreak",
                num_buckets=2, n_docs=6, fingerprint="wb", write_docstore=True,
                wordbreak_dict_path=str(dict_path))
    base = _docstore_rows(live)
    assert base["doc_id"].to_pylist() == list(range(6))
    add_documents(live, rd.from_arrow(corpus.slice(6)), n_new_docs=4)

    rows = _docstore_rows(live)
    assert rows["doc_id"].to_pylist() == list(range(len(texts)))
    assert rows["content"].to_pylist() == texts
    assert rows["sha256"].to_pylist() == [hashlib.sha256(t.encode()).hexdigest() for t in texts]
    assert rows.slice(0, 6).equals(base)
    s = IndexSearcher(live)
    assert s.search_keyword("fish").tolist() == [3, 5, 7, 9]
    assert s.search_and(["bird", "dog"]).tolist() == [8]


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


def test_add_documents_finishes_an_interrupted_swap(ray_session, tmp_path, monkeypatch):
    """A crash between the swap's two renames (live already moved to
    `.old`, `.merged` not yet moved in): a re-run of another update
    raises and touches nothing, and a re-run of the same call finishes
    the swap without tokenizing again, giving the same index as an
    uninterrupted update."""
    import os
    import shutil

    import pytest
    import ray.data as rd

    from mini_search_engine_ray.pipelines.build import add_documents, load_meta

    corpus = synth_corpus(80, seed=93)
    sl = lambda lo, hi: rd.from_arrow(
        corpus.select(["doc_id", "content"]).slice(lo, hi - lo))
    base = str(tmp_path / "base")
    build_index(sl(0, 60), base, num_buckets=4, positional=True, n_docs=60,
                fingerprint="base")
    ref, live = str(tmp_path / "ref"), str(tmp_path / "live")
    shutil.copytree(base, ref)
    shutil.copytree(base, live)
    ref_meta = add_documents(ref, sl(60, 80), n_new_docs=20, fingerprint="d")

    real_rename = os.rename

    def killed(src, dst):
        if src == live + ".merged":
            raise RuntimeError("killed inside the swap")
        real_rename(src, dst)

    work = str(tmp_path / "work")
    monkeypatch.setattr(os, "rename", killed)
    with pytest.raises(RuntimeError, match="killed"):
        add_documents(live, sl(60, 80), n_new_docs=20, fingerprint="d", work_dir=work)
    monkeypatch.undo()
    assert not os.path.exists(live)
    left = sorted(os.listdir(tmp_path))

    def poisoned(batch):
        raise AssertionError("the committed delta was tokenized again")

    again = rd.from_arrow(corpus.select(["doc_id", "content"]).slice(60, 20)) \
        .map_batches(poisoned, batch_format="pyarrow")
    for other in ({"fingerprint": "e", "work_dir": work},
                  {"fingerprint": "d", "work_dir": str(tmp_path / "elsewhere")}):
        with pytest.raises(ValueError, match="live.old"):
            add_documents(live, again, n_new_docs=20, **other)
        assert sorted(os.listdir(tmp_path)) == left
    meta = add_documents(live, again, n_new_docs=20, fingerprint="d", work_dir=work)
    for gone in (work, live + ".old", live + ".merged"):
        assert not os.path.exists(gone), gone
    assert _shard_bytes(live) == _shard_bytes(ref)
    assert _docstore_rows(live).equals(_docstore_rows(ref))
    assert meta == load_meta(live)
    assert set(meta) == set(ref_meta)
    for key in ("n_docs", "total_tokens", "avgdl", "n_postings", "n_shards", "fingerprint"):
        assert meta[key] == ref_meta[key], key


def test_fanout_task_counts_and_global_context(ray_session, tmp_path):
    """Phase B and the merge run their shards as at most one task per
    `task_num_cpus` CPUs (recorded in the meta), and the 1 MiB output
    hint stays on each dataset's own context: the process-wide
    DataContext keeps its default block size."""
    import ray
    import ray.data as rd
    from ray.data.context import DEFAULT_TARGET_MAX_BLOCK_SIZE, DataContext

    from mini_search_engine_ray.pipelines.build import add_documents
    from mini_search_engine_ray.stages.shards import list_shards

    cpus = int(ray.cluster_resources()["CPU"])
    corpus = synth_corpus(60, seed=17)
    sl = lambda lo, hi: rd.from_arrow(
        corpus.select(["doc_id", "content"]).slice(lo, hi - lo))
    for task_num_cpus in (1, 2):
        d = str(tmp_path / f"cpus{task_num_cpus}")
        meta = build_index(sl(0, 40), d, num_buckets=6, n_docs=40, write_docstore=False,
                           fingerprint="f", task_num_cpus=task_num_cpus)
        n_keys = len(list_shards(d))
        assert n_keys == meta["n_shards"] > cpus // task_num_cpus
        assert meta["phase_b_tasks"] == min(n_keys, cpus // task_num_cpus)
        assert DataContext.get_current().target_max_block_size == DEFAULT_TARGET_MAX_BLOCK_SIZE

    merged = add_documents(d, sl(40, 60), n_new_docs=20, fingerprint="d")
    assert merged["merge_tasks"] == min(len(list_shards(d)), cpus)
    assert merged["shards_written"] == merged["n_shards"] and merged["shards_skipped"] == 0
    assert DataContext.get_current().target_max_block_size == DEFAULT_TARGET_MAX_BLOCK_SIZE
