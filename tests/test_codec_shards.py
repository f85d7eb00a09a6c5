"""Pluggable posting codec in the shard layer: an index built with
codec="pfordelta" is query-identical to the varint default (the codec
travels in each shard's Arrow schema metadata, so readers and merges
dispatch per table with no out-of-band config)."""

from __future__ import annotations

import numpy as np
import pytest

from mini_search_engine_ray.pipelines.build import build_index, load_meta
from mini_search_engine_ray.sources.corpus import synth_corpus
from mini_search_engine_ray.stages.merge import merge_indexes
from mini_search_engine_ray.stages.shards import list_shards, open_shard, read_shard_as_dicts, shard_codec
from mini_search_engine_ray.state.searcher import IndexSearcher


@pytest.fixture(scope="module")
def both(ray_session, tmp_path_factory):
    import ray.data as rd

    root = tmp_path_factory.mktemp("codec")
    corpus = synth_corpus(120, seed=31)
    t = corpus.select(["doc_id", "content"])
    dirs = {}
    for codec in ("varint", "pfordelta"):
        d = str(root / codec)
        build_index(rd.from_arrow(t), d, num_buckets=4, positional=True,
                    n_docs=120, write_docstore=False, fingerprint="c",
                    codec=codec)
        dirs[codec] = d
    return dirs


def test_metadata_records_codec(both):
    for codec, d in both.items():
        assert load_meta(d)["codec"] == codec
        for sid in list_shards(d):
            assert shard_codec(open_shard(d, sid)) == codec


def test_identical_postings_and_positions(both):
    pv, tv, posv = read_shard_as_dicts(both["varint"], positional=True)
    pp, tp, posp = read_shard_as_dicts(both["pfordelta"], positional=True)
    assert pv == pp and tv == tp and posv == posp


def test_identical_queries(both):
    sv = IndexSearcher(both["varint"])
    sp = IndexSearcher(both["pfordelta"])
    for q in (["index", "merge"], ["information", "retrieval"], ["needle"]):
        iv, cv = sv.search_bm25(q, 10)
        ip, cp = sp.search_bm25(q, 10)
        assert iv.tolist() == ip.tolist()
        assert cv.tolist() == cp.tolist()
        iv, cv = sv.search_bm25(q, 10, prune=False)
        ip2, cp2 = sp.search_bm25(q, 10, prune=False)
        assert ip2.tolist() == iv.tolist() and cp2.tolist() == cv.tolist()
    assert sv.search_phrase(["information", "retrieval"]).tolist() == \
        sp.search_phrase(["information", "retrieval"]).tolist()


def test_merge_preserves_and_converts_codec(both, tmp_path):
    # merge of a pfordelta index keeps its codec by default...
    dest1 = str(tmp_path / "m1")
    meta1 = merge_indexes([both["pfordelta"]], dest1)
    assert meta1["codec"] == "pfordelta"
    # ...and can transcode (mixed-source reads dispatch per shard)
    dest2 = str(tmp_path / "m2")
    meta2 = merge_indexes([both["pfordelta"]], dest2, codec="varint")
    assert meta2["codec"] == "varint"
    base = read_shard_as_dicts(both["varint"], positional=True)
    assert read_shard_as_dicts(dest1, positional=True) == base
    assert read_shard_as_dicts(dest2, positional=True) == base
