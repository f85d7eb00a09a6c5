"""Merge/compaction equality, tombstone physical drop, and
checkpoint-resume byte-identity (FIXTURES.md F6/F7)."""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pytest

from mini_search_engine_ray.pipelines.build import build_index
from brute_force_oracle import BruteForceOracle
from mini_search_engine_ray.sources.corpus import synth_corpus
from mini_search_engine_ray.stages.merge import compact_index, merge_indexes
from mini_search_engine_ray.stages.shards import list_shards, read_shard_as_dicts, shard_paths
from mini_search_engine_ray.state.searcher import IndexSearcher


def _ds_slice(corpus: pa.Table, lo: int, hi: int):
    import ray.data as rd

    return rd.from_arrow(corpus.select(["doc_id", "content"]).slice(lo, hi - lo))


@pytest.fixture(scope="module")
def corpus():
    return synth_corpus(120, seed=5)


class TestMerge:
    def test_merge_two_equals_single_build(self, ray_session, tmp_path, corpus):
        a, b, m, full = (str(tmp_path / x) for x in ("a", "b", "m", "full"))
        build_index(_ds_slice(corpus, 0, 60), a, num_buckets=4, positional=True,
                    n_docs=60, write_docstore=False, fingerprint="a")
        build_index(_ds_slice(corpus, 60, 120), b, num_buckets=4, positional=True,
                    n_docs=60, write_docstore=False, fingerprint="b")
        build_index(_ds_slice(corpus, 0, 120), full, num_buckets=4, positional=True,
                    n_docs=120, write_docstore=False, fingerprint="full")
        merge_indexes([a, b], m, merge_docstore=False)
        pm, tm, posm = read_shard_as_dicts(m, positional=True)
        pf, tf_, posf = read_shard_as_dicts(full, positional=True)
        assert pm == pf and tm == tf_ and posm == posf

    def test_merged_queries_match_oracle(self, ray_session, tmp_path, corpus):
        a, b, m = (str(tmp_path / x) for x in ("qa", "qb", "qm"))
        build_index(_ds_slice(corpus, 0, 60), a, num_buckets=4, n_docs=60,
                    write_docstore=False, fingerprint="a")
        build_index(_ds_slice(corpus, 60, 120), b, num_buckets=4, n_docs=60,
                    write_docstore=False, fingerprint="b")
        merge_indexes([a, b], m, merge_docstore=False)
        s = IndexSearcher(m)
        docs = {i: corpus["content"][i].as_py() for i in range(120)}
        o = BruteForceOracle(docs, "composable")
        for q in (["index", "merge"], ["information", "retrieval"], ["needle"]):
            ids_e, sc_e = s.search_bm25(q, 10)
            ids_o, sc_o = o.search_bm25(q, 10)
            assert ids_e.tolist() == ids_o.tolist(), q
            np.testing.assert_allclose(sc_e, sc_o, rtol=1e-9)

    def test_compaction_folds_salt_and_drops_tombstones(self, ray_session, tmp_path, corpus):
        src, dst = str(tmp_path / "c_src"), str(tmp_path / "c_dst")
        build_index(_ds_slice(corpus, 0, 80), src, num_buckets=4, salt=3,
                    n_docs=80, write_docstore=False, fingerprint="c")
        s = IndexSearcher(src)
        assert len(s.search_keyword("index")) > 0
        s.delete_documents("index")
        compact_index(src, dst, merge_docstore=False)
        s2 = IndexSearcher(dst)
        assert s2.meta["salt"] == 1
        assert len(s2.tombstones) == 0          # cleared after merge
        assert len(s2.search_keyword("index")) == 0   # physically dropped
        postings, _, _ = read_shard_as_dicts(dst)
        assert "index" not in postings
        # everything else identical to the uncompacted index
        p_src, _, _ = read_shard_as_dicts(src)
        p_src.pop("index", None)
        assert postings == p_src


class TestResume:
    def test_rerun_skips_committed_and_is_byte_identical(self, ray_session, tmp_path, corpus):
        d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        kw = dict(num_buckets=6, positional=True, n_docs=120,
                  write_docstore=False, fingerprint="resume")
        m1 = build_index(_ds_slice(corpus, 0, 120), d1, **kw)
        assert m1["shards_skipped"] == 0
        # simulate a crash that lost two shards (partial build)
        lost = list_shards(d1)[:2]
        for sid in lost:
            fpath, mpath = shard_paths(d1, sid)
            os.remove(fpath)
            os.remove(mpath)
        m1b = build_index(_ds_slice(corpus, 0, 120), d1, **kw)
        assert m1b["shards_skipped"] == m1["n_shards"] - len(lost)
        assert m1b["shards_written"] == len(lost)
        # uninterrupted reference run -> byte-identical shards
        build_index(_ds_slice(corpus, 0, 120), d2, **kw)
        for sid in list_shards(d2):
            f1, _ = shard_paths(d1, sid)
            f2, _ = shard_paths(d2, sid)
            with open(f1, "rb") as a, open(f2, "rb") as b:
                assert a.read() == b.read(), f"shard {sid} differs"

    def test_fingerprint_change_forces_rebuild(self, ray_session, tmp_path, corpus):
        d = str(tmp_path / "fp")
        kw = dict(num_buckets=4, n_docs=60, write_docstore=False)
        m1 = build_index(_ds_slice(corpus, 0, 60), d, fingerprint="v1", **kw)
        m2 = build_index(_ds_slice(corpus, 0, 60), d, fingerprint="v2", **kw)
        assert m2["shards_skipped"] == 0 and m2["shards_written"] == m1["n_shards"]

    def test_grouped_merge_task_failure_resumes_byte_identical(self, ray_session, tmp_path,
                                                               corpus, monkeypatch):
        """A merge task holds several buckets. One that dies after committing
        its first bucket loses the rest of its group; the re-run re-runs
        every group, reports the committed bucket `skipped` without
        rewriting it, and ends byte-identical to an uninterrupted merge."""
        from mini_search_engine_ray.stages import fanout
        from mini_search_engine_ray.stages import merge as merge_mod

        a, b = str(tmp_path / "ga"), str(tmp_path / "gb")
        kw = dict(num_buckets=8, positional=True, n_docs=60, write_docstore=False)
        build_index(_ds_slice(corpus, 0, 60), a, fingerprint="ga", **kw)
        build_index(_ds_slice(corpus, 60, 120), b, fingerprint="gb", **kw)
        ref, m = str(tmp_path / "gref"), str(tmp_path / "gm")
        ref_meta = merge_indexes([a, b], ref, merge_docstore=False)
        assert ref_meta["merge_tasks"] < ref_meta["n_shards"]  # buckets share tasks

        real = merge_mod.merge_bucket

        def dies_after_first_bucket(bucket, *args, **kw):
            real(bucket, *args, **kw)
            raise RuntimeError(f"merge task died after bucket {bucket}")

        # all buckets in one task, so no other task outlives the failure
        monkeypatch.setattr(fanout, "keyed_task_count", lambda n_keys, num_cpus=1: 1)
        monkeypatch.setattr(merge_mod, "merge_bucket", dies_after_first_bucket)
        first = list_shards(ref)[0]
        with pytest.raises(Exception, match=f"died after bucket {first}"):
            merge_indexes([a, b], m, merge_docstore=False)
        monkeypatch.undo()
        assert list_shards(m) == [first]
        fpath, _ = shard_paths(m, first)
        before = os.stat(fpath).st_mtime_ns

        meta = merge_indexes([a, b], m, merge_docstore=False)
        assert meta["shards_skipped"] == 1
        assert meta["shards_written"] == ref_meta["n_shards"] - 1
        assert os.stat(fpath).st_mtime_ns == before  # not rewritten
        assert list_shards(m) == list_shards(ref)
        for sid in list_shards(ref):
            with open(shard_paths(m, sid)[0], "rb") as x, open(shard_paths(ref, sid)[0], "rb") as y:
                assert x.read() == y.read(), f"shard {sid} differs"
        for key in ("n_docs", "total_tokens", "n_postings", "fingerprint"):
            assert meta[key] == ref_meta[key], key

    def test_failed_merge_stops_running_groups_before_raising(self, ray_session, tmp_path,
                                                              corpus, monkeypatch):
        """One merge task fails while another is still writing its bucket:
        the merge raises only once that task has been cancelled and has
        ended, so an immediate re-run races no orphaned writer on the same
        shards and ends byte-identical to an uninterrupted merge."""
        import time

        from mini_search_engine_ray.stages import fanout
        from mini_search_engine_ray.stages import merge as merge_mod

        a, b = str(tmp_path / "sa"), str(tmp_path / "sb")
        kw = dict(num_buckets=8, positional=True, n_docs=60, write_docstore=False)
        build_index(_ds_slice(corpus, 0, 60), a, fingerprint="sa", **kw)
        build_index(_ds_slice(corpus, 60, 120), b, fingerprint="sb", **kw)
        ref, m = str(tmp_path / "sref"), str(tmp_path / "sm")
        merge_indexes([a, b], ref, merge_docstore=False)
        bad, slow = list_shards(ref)[:2]  # the first buckets of groups 0 and 1
        started, ended = str(tmp_path / "slow.started"), str(tmp_path / "slow.ended")
        real = merge_mod.merge_bucket

        def fails_while_other_writes(bucket, *args, **kw):
            if bucket == slow:
                open(started, "w").close()
                try:
                    t0 = time.time()
                    while time.time() - t0 < 60:  # still at work when `bad` fails
                        time.sleep(0.02)
                    return real(bucket, *args, **kw)
                finally:
                    open(ended, "w").close()
            if bucket == bad:
                t0 = time.time()
                while not os.path.exists(started) and time.time() - t0 < 30:
                    time.sleep(0.01)
                raise RuntimeError(f"merge task died at bucket {bucket}")
            return real(bucket, *args, **kw)

        monkeypatch.setattr(fanout, "keyed_task_count", lambda n_keys, num_cpus=1: min(2, n_keys))
        monkeypatch.setattr(merge_mod, "merge_bucket", fails_while_other_writes)
        with pytest.raises(Exception, match=f"died at bucket {bad}"):
            merge_indexes([a, b], m, merge_docstore=False)
        monkeypatch.undo()
        assert os.path.exists(started), "the two groups did not run side by side"
        assert os.path.exists(ended), "the slow group was still running after the raise"

        meta = merge_indexes([a, b], m, merge_docstore=False)
        assert meta["shards_skipped"] == 0
        assert list_shards(m) == list_shards(ref)
        for sid in list_shards(ref):
            with open(shard_paths(m, sid)[0], "rb") as x, open(shard_paths(ref, sid)[0], "rb") as y:
                assert x.read() == y.read(), f"shard {sid} differs"
