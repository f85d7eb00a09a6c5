"""Term-level merge: copy / append / rebuild write the same shard bytes
as one build over the union, at block edges (127/128/129/256 held
postings), for positional and plain indexes, pfordelta, salted sources,
tombstones and delta doc_ids below or among the live ones.

The shards are built in-process (`TokenizeExplode` + `write_shard`) and
the delta is written as a phase-A exchange partition by hand, so
`merge_bucket` runs here without a Ray session. The `merge_indexes`
cases at the end use one."""

from __future__ import annotations

import itertools
import os
import random

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from mini_search_engine_ray.pipelines.build import EXCHANGE_DIR, read_exchange_partition
from mini_search_engine_ray.stages import ingest
from mini_search_engine_ray.stages.merge import MERGE_COUNTERS, merge_bucket
from mini_search_engine_ray.stages.shards import list_shards, shard_paths, write_shard

FILLER = ["zeta", "omega", "kappa", "sigma", "delta", "gamma", "lambda", "theta",
          "orbit", "comet", "nebula", "quasar", "pulsar", "photon", "proton", "quark"]


def _docs(ids, rng: random.Random, alpha: set[int], extra: str = "") -> pa.Table:
    """Docs of filler words (random lengths); those in `alpha` hold the
    term "alpha" 1-6 times; `extra` words appear only in these docs."""
    contents = []
    for i in ids:
        words = [rng.choice(FILLER) for _ in range(rng.randint(2, 30))]
        if i in alpha:
            for _ in range(rng.randint(1, 6)):
                words.insert(rng.randint(0, len(words)), "alpha")
        if extra:
            words.append(f"{extra}{rng.randint(0, 4)}")
        contents.append(" ".join(words))
    return pa.table({"doc_id": pa.array(list(ids), type=pa.int64()), "content": contents})


def _write_index(d: str, docs: pa.Table, *, positional: bool, codec: str = "varint",
                 salt: int = 1) -> None:
    rows = ingest.TokenizeExplode(num_buckets=1, salt=salt, positional=positional, pack=False)(docs)
    for s in range(salt):
        group = rows.filter(pc.equal(rows["shard"], s))
        if group.num_rows:
            write_shard(group, index_dir=d, positional=positional, fingerprint="t", codec=codec)


def _write_delta(d: str, docs: pa.Table, *, positional: bool, parts: int = 1) -> None:
    """The delta's phase-A exchange partition for bucket 0, one part
    file per tokenize batch."""
    part = os.path.join(d, EXCHANGE_DIR, "shard=0")
    os.makedirs(part)
    step = -(-docs.num_rows // parts)
    for i in range(parts):
        packed = ingest.TokenizeExplode(num_buckets=1, positional=positional, pack=True)(
            docs.slice(i * step, step))
        pq.write_table(packed.drop_columns(["shard"]), os.path.join(part, f"part-{i}.parquet"))


def _bytes(d: str) -> dict[int, bytes]:
    out = {}
    for sid in list_shards(d):
        with open(shard_paths(d, sid)[0], "rb") as f:
            out[sid] = f.read()
    return out


def _merge_case(tmp_path, live: pa.Table, delta: pa.Table, *, positional: bool,
                codec: str = "varint", salt: int = 1, drop: frozenset[str] = frozenset(),
                parts: int = 1) -> dict:
    """Merge `delta` (an exchange) into `live` (built with `codec`,
    `salt`), assert the bytes equal a build over the union, and return
    the merge's counters."""
    src, dlt, out, ref = (str(tmp_path / x) for x in ("live", "delta", "out", "ref"))
    _write_index(src, live, positional=positional, codec=codec, salt=salt)
    _write_delta(dlt, delta, positional=positional, parts=parts)
    row = merge_bucket(0, [src], out, salts=[salt], positional=positional, fingerprint="m",
                       drop_terms=drop, codec=codec, deltas=[dlt], delta_salts=[1])
    union = pa.concat_tables([live, delta])
    rows = ingest.TokenizeExplode(num_buckets=1, positional=positional, pack=False)(union)
    if drop:
        rows = rows.filter(pc.invert(pc.is_in(rows["term"].cast(pa.string()),
                                              value_set=pa.array(sorted(drop)))))
    write_shard(rows, index_dir=ref, positional=positional, fingerprint="r", codec=codec)
    assert _bytes(out) == _bytes(ref)
    return {k: row[k][0].as_py() for k in MERGE_COUNTERS}


@pytest.mark.parametrize("positional", [False, True])
@pytest.mark.parametrize("held,added", list(itertools.product([127, 128, 129, 256], [1, 127, 128, 200])))
def test_append_at_block_edges(tmp_path, held, added, positional):
    """"alpha" is held by `held` live docs and gains `added` later ones:
    the held partial last block (held % 128 postings) is continued."""
    rng = random.Random(held * 1000 + added)
    live = _docs(range(held + 5), rng, alpha=set(range(held)))
    delta = _docs(range(held + 5, held + 5 + added + 3), rng,
                  alpha=set(range(held + 5, held + 5 + added)), extra="fresh")
    c = _merge_case(tmp_path, live, delta, positional=positional)
    assert c["live_postings_decoded"] == 0
    assert c["terms_appended"] >= 1 and c["terms_rebuilt"] >= 1  # the fresh* terms


@pytest.mark.parametrize("positional", [False, True])
def test_pfordelta_live_index_rebuilds(tmp_path, positional):
    rng = random.Random(7)
    live = _docs(range(300), rng, alpha=set(range(0, 300, 2)))
    delta = _docs(range(300, 450), rng, alpha=set(range(300, 450, 3)))
    c = _merge_case(tmp_path, live, delta, positional=positional, codec="pfordelta")
    assert c["terms_appended"] == 0 and c["live_postings_decoded"] > 0


@pytest.mark.parametrize("positional", [False, True])
@pytest.mark.parametrize("layout", ["below", "interleaved"])
def test_delta_ids_below_or_among_live(tmp_path, layout, positional):
    rng = random.Random(11)
    if layout == "below":
        live_ids, delta_ids = range(200, 400), range(0, 200)
    else:
        live_ids, delta_ids = range(0, 400, 2), range(1, 400, 2)
    live = _docs(live_ids, rng, alpha=set(live_ids))
    delta = _docs(delta_ids, rng, alpha=set(delta_ids))
    c = _merge_case(tmp_path, live, delta, positional=positional)
    assert c["terms_appended"] == 0 and c["live_postings_decoded"] > 0


@pytest.mark.parametrize("positional", [False, True])
def test_tombstoned_term_the_delta_touches(tmp_path, positional):
    rng = random.Random(13)
    live = _docs(range(200), rng, alpha=set(range(150)))
    delta = _docs(range(200, 300), rng, alpha=set(range(200, 260)))
    _merge_case(tmp_path, live, delta, positional=positional, drop=frozenset({"alpha", "zeta"}))


@pytest.mark.parametrize("positional", [False, True])
def test_salted_live_index_rebuilds(tmp_path, positional):
    rng = random.Random(17)
    live = _docs(range(300), rng, alpha=set(range(290)))
    delta = _docs(range(300, 400), rng, alpha=set(range(300, 400)))
    c = _merge_case(tmp_path, live, delta, positional=positional, salt=3)
    assert c["terms_copied"] == 0 and c["terms_appended"] == 0


def test_exchange_partition_read_as_discovery(tmp_path):
    """A delta written as three part files, beside temp files that
    Arrow's dataset discovery skips, reads as discovery reads it and
    merges to the bytes of one build over the union."""
    rng = random.Random(17)
    live, delta = _docs(range(300), rng, set(range(0, 300, 3))), _docs(range(300, 420), rng, {301})
    dlt = str(tmp_path / "delta")
    _write_delta(dlt, delta, positional=False, parts=3)
    part = os.path.join(dlt, EXCHANGE_DIR, "shard=0")
    for junk in ("_tmp-part-3.parquet", ".part-0.parquet.crc"):
        with open(os.path.join(part, junk), "wb") as f:
            f.write(b"not parquet")
    got = read_exchange_partition(dlt, 0)
    want = pq.read_table(part)
    assert got.equals(want) and got.schema.equals(want.schema, check_metadata=True)
    assert read_exchange_partition(dlt, 1) is None
    _merge_case(tmp_path / "m", live, delta, positional=False, parts=3)


def test_doc_term_order_matches_lexsort():
    """The tokenize kernel's single stable sort orders (doc, position)-
    ordered tokens exactly as a lexsort on (doc, term, position)."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 3000))
        n_terms = int(rng.integers(1, 200))
        parents = np.sort(rng.integers(0, 50, n))
        codes = rng.integers(0, n_terms, n)
        starts = np.flatnonzero(np.r_[True, parents[1:] != parents[:-1]])
        positions = np.arange(n) - np.repeat(starts, np.diff(np.r_[starts, n]))
        np.testing.assert_array_equal(
            ingest.doc_term_order(parents, codes, n_terms), np.lexsort((positions, codes, parents)))


@pytest.mark.parametrize("positional", [False, True])
def test_tokenize_kernel_matches_lexsort_kernel(monkeypatch, positional):
    rng = random.Random(5)
    batches = [_docs(range(k, k + n), rng, alpha=set(range(k, k + n, 3)), extra="x")
               for k, n in ((0, 40), (100, 300), (1000, 7))]

    def lexsort_order(parents, term_codes, n_terms):
        starts = np.flatnonzero(np.r_[True, parents[1:] != parents[:-1]])
        positions = np.arange(len(parents)) - np.repeat(starts, np.diff(np.r_[starts, len(parents)]))
        return np.lexsort((positions, term_codes, parents))

    for pack in (False, True):
        te = ingest.TokenizeExplode(num_buckets=4, positional=positional, pack=pack)
        got = [te(b) for b in batches]
        monkeypatch.setattr(ingest, "doc_term_order", lexsort_order)
        want = [te(b) for b in batches]
        monkeypatch.undo()
        for g, w in zip(got, want):
            assert g.equals(w)


@pytest.mark.parametrize("layout", ["ordered", "interleaved"])
def test_merge_indexes_two_sources_byte_identical(ray_session, tmp_path, layout):
    """merge_indexes([a, b]) equals one build over both, whether b's
    doc_ids follow a's (b's postings are appended) or interleave."""
    import ray.data as rd

    from mini_search_engine_ray.pipelines.build import build_index
    from mini_search_engine_ray.sources.corpus import synth_corpus
    from mini_search_engine_ray.stages.merge import merge_indexes

    corpus = synth_corpus(160, seed=23).select(["doc_id", "content"])
    if layout == "ordered":
        a_rows, b_rows = corpus.slice(0, 80), corpus.slice(80, 80)
    else:
        even = pc.equal(pc.bit_wise_and(corpus["doc_id"], 1), 0)
        a_rows, b_rows = corpus.filter(even), corpus.filter(pc.invert(even))
    kw = dict(num_buckets=4, positional=True, write_docstore=False)
    a, b, m, full = (str(tmp_path / x) for x in ("a", "b", "m", "full"))
    build_index(rd.from_arrow(a_rows), a, n_docs=a_rows.num_rows, fingerprint="a", **kw)
    build_index(rd.from_arrow(b_rows), b, n_docs=b_rows.num_rows, fingerprint="b", **kw)
    build_index(rd.from_arrow(corpus), full, n_docs=corpus.num_rows, fingerprint="f", **kw)
    meta = merge_indexes([a, b], m, merge_docstore=False)
    assert _bytes(m) == _bytes(full)
    if layout == "ordered":
        assert meta["merge_terms_appended"] > 0
