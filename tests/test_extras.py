"""Tests for the training-data-pipeline extras: dedup family, ANN
similarity, text stats / langid / fingerprints."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from mini_search_engine_ray.stages.dedup import (
    dedup_exact,
    exact_jaccard_tokens,
    minhash_batch,
    minhash_candidate_pairs,
    simhash_batch,
)
from mini_search_engine_ray.stages.similarity import (
    ann_cosine_topk,
    embedding_dup_pairs,
)
from mini_search_engine_ray.stages.textstats import (
    fingerprint_batch,
    langid_batch,
    token_stats_batch,
)

BASE = "the quick brown fox jumps over the lazy dog while the cat watches from a tall tree nearby"
NEAR = BASE.replace("lazy", "sleepy")  # one token changed -> high jaccard
FAR = "completely different content about ray data pipelines and arrow record batches"


def estimate_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    """MinHash Jaccard estimate: the share of equal signature slots."""
    return float((sig_a == sig_b).mean())


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row Hamming distance of two int64 SimHash fingerprint arrays."""
    x = a.astype(np.uint64) ^ b.astype(np.uint64)
    return np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1).sum(axis=1)


def _doc_table(texts):
    return pa.table(
        {
            "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
            "text": pa.array(texts, type=pa.large_string()),
        }
    )


class TestMinHash:
    def test_signature_estimates_jaccard(self):
        t = _doc_table([BASE, NEAR, FAR])
        sig = minhash_batch(t, num_perm=128)
        s = sig["sig"].combine_chunks().values.to_numpy(zero_copy_only=False).reshape(3, 128).astype(np.uint64)
        exact_near = exact_jaccard_tokens(BASE, NEAR)
        est_near = estimate_jaccard(s[0], s[1])
        assert abs(est_near - exact_near) < 0.15
        assert estimate_jaccard(s[0], s[2]) < 0.2
        # identical docs -> identical signatures
        t2 = _doc_table([BASE, BASE])
        sig2 = minhash_batch(t2, num_perm=128)
        s2 = sig2["sig"].combine_chunks().values.to_numpy(zero_copy_only=False).reshape(2, 128)
        assert np.array_equal(s2[0], s2[1])

    def test_deterministic_across_calls(self):
        t = _doc_table([BASE, FAR])
        a = minhash_batch(t)["sig"].to_pylist()
        b = minhash_batch(t)["sig"].to_pylist()
        assert a == b

    def test_lsh_finds_planted_near_dups(self, ray_session):
        import ray.data as rd

        texts = [FAR + f" filler{i} " + " ".join(f"tok{i}_{j}" for j in range(20)) for i in range(30)]
        texts += [BASE, NEAR]  # planted near-dup pair = ids (30, 31)
        pairs_ds, _ = minhash_candidate_pairs(
            rd.from_arrow(_doc_table(texts)), num_perm=64, bands=16, rows=4
        )
        pairs = {(r["a"], r["b"]) for r in pairs_ds.take_all()}
        assert (30, 31) in pairs
        # verification kernel agrees
        assert exact_jaccard_tokens(texts[30], texts[31]) > 0.6


class TestSimHash:
    def test_near_dup_small_hamming(self):
        t = _doc_table([BASE, NEAR, FAR])
        fp = simhash_batch(t)["simhash"].to_numpy()
        d_near = hamming64(fp[:1], fp[1:2])[0]
        d_far = hamming64(fp[:1], fp[2:3])[0]
        assert d_near < d_far
        assert d_near <= 16
        assert hamming64(fp[:1], fp[:1])[0] == 0


class TestExactDedup:
    def test_keeps_min_id(self, ray_session):
        import ray.data as rd

        t = _doc_table([BASE, FAR, BASE, NEAR, BASE])
        out = dedup_exact(rd.from_arrow(t)).take_all()
        by_hash = {r["content_hash"]: r for r in out}
        assert len(by_hash) == 3
        trip = [r for r in out if r["n_dups"] == 3]
        assert len(trip) == 1 and trip[0]["keep_id"] == 0


class TestANN:
    def test_topk_matches_numpy(self, ray_session):
        import ray.data as rd

        rng = np.random.default_rng(0)
        emb = rng.standard_normal((200, 16)).astype(np.float32)
        t = pa.table(
            {
                "vec_id": pa.array(np.arange(200, dtype=np.int64)),
                "embedding": pa.array([list(map(float, r)) for r in emb],
                                      type=pa.list_(pa.float32())),
            }
        )
        queries = emb[:3].astype(np.float64)
        out = ann_cosine_topk(rd.from_arrow(t), queries, k=5).take_all()
        mn = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
        sims = mn @ qn.T
        for qi in range(3):
            exp = np.lexsort((np.arange(200), -sims[:, qi]))[:5]
            got = sorted((r for r in out if r["query_id"] == qi), key=lambda r: r["rank"])
            assert [r["vec_id"] for r in got] == exp.tolist()
            # self should be rank 0 with score ~1
            assert got[0]["vec_id"] == qi and got[0]["score"] == pytest.approx(1.0)

    def test_embedding_dup_pairs(self, ray_session):
        import ray.data as rd

        rng = np.random.default_rng(1)
        emb = rng.standard_normal((50, 8))
        emb[41] = emb[40] + rng.standard_normal(8) * 0.01  # planted near-dup
        t = pa.table(
            {
                "vec_id": pa.array(np.arange(50, dtype=np.int64)),
                "embedding": pa.array([list(map(float, r)) for r in emb],
                                      type=pa.list_(pa.float32())),
            }
        )
        pairs = embedding_dup_pairs(rd.from_arrow(t), threshold=0.99).take_all()
        assert any(r["a"] == 40 and r["b"] == 41 for r in pairs)


class TestTextStats:
    def test_token_stats(self):
        t = _doc_table(["The cat, and the dog!", "", "cat dog bird cat"])
        out = token_stats_batch(t).to_pylist()
        r0 = out[0]
        # tokens: the cat and the dog -> 5; stopwords: the and the -> 3
        assert r0["n_tokens"] == 5 and r0["n_terms"] == 2
        assert r0["stop_ratio"] == pytest.approx(0.6)
        assert out[1]["n_tokens"] == 0 and out[1]["stop_ratio"] == 0.0
        r2 = out[2]
        assert r2["n_terms"] == 4 and r2["uniq_ratio"] == pytest.approx(0.75)

    def test_langid(self):
        t = _doc_table(
            ["the cat is on the mat", "der hund und die katze ist", "xyz abc", ""]
        )
        out = langid_batch(t).to_pylist()
        assert out[0]["pred_lang"] == "en"
        assert out[1]["pred_lang"] == "de"
        assert out[2]["pred_lang"] == "unknown"
        assert out[3]["pred_lang"] == "unknown"

    def test_fingerprints_detect_overlap(self):
        t = _doc_table([BASE, NEAR, FAR])
        out = fingerprint_batch(t).to_pylist()
        f0, f1, f2 = (set(r["fingerprints"]) for r in out)
        assert len(f0 & f1) > 0
        assert not (f0 & f2)
        # deterministic
        out2 = fingerprint_batch(t).to_pylist()
        assert out == out2


class TestIVF:
    def test_ivf_recall_vs_brute_force(self, ray_session):
        import ray.data as rd

        from mini_search_engine_ray.stages.similarity import ivf_cosine_topk

        rng = np.random.default_rng(2)
        # clustered data so IVF buckets are meaningful
        centers = rng.standard_normal((8, 16)) * 4
        emb = np.concatenate([c + rng.standard_normal((60, 16)) for c in centers])
        ids = np.arange(len(emb), dtype=np.int64)
        t = pa.table(
            {
                "vec_id": pa.array(ids),
                "embedding": pa.array([list(map(float, r)) for r in emb],
                                      type=pa.list_(pa.float32())),
            }
        )
        queries = emb[::97][:5]
        out = ivf_cosine_topk(rd.from_arrow(t), queries, k=10,
                              n_centroids=8, nprobe=3).take_all()
        # brute-force ground truth
        mn = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
        sims = mn.astype(np.float64) @ qn.astype(np.float64).T
        recalls = []
        for qi in range(len(queries)):
            exact = set(np.lexsort((ids, -sims[:, qi]))[:10].tolist())
            got = {r["vec_id"] for r in out if r["query_id"] == qi}
            recalls.append(len(exact & got) / 10)
        assert sum(recalls) / len(recalls) >= 0.8, recalls
        # deterministic across runs
        out2 = ivf_cosine_topk(rd.from_arrow(t), queries, k=10,
                               n_centroids=8, nprobe=3).take_all()
        key = lambda rows: sorted((r["query_id"], r["rank"], r["vec_id"]) for r in rows)
        assert key(out) == key(out2)

    def test_full_probe_equals_exact(self, ray_session):
        import ray.data as rd

        from mini_search_engine_ray.stages.similarity import ann_cosine_topk, ivf_cosine_topk

        rng = np.random.default_rng(3)
        emb = rng.standard_normal((150, 8))
        t = pa.table(
            {
                "vec_id": pa.array(np.arange(150, dtype=np.int64)),
                "embedding": pa.array([list(map(float, r)) for r in emb],
                                      type=pa.list_(pa.float32())),
            }
        )
        q = emb[:3]
        ivf = ivf_cosine_topk(rd.from_arrow(t), q, k=5, n_centroids=4, nprobe=4).take_all()
        bf = ann_cosine_topk(rd.from_arrow(t), q, k=5).take_all()
        key = lambda rows: sorted((r["query_id"], r["rank"], r["vec_id"]) for r in rows)
        assert key(ivf) == key(bf)  # probing every bucket == exact

    def test_distributed_trainer_full_probe_equals_exact(self, ray_session):
        import ray.data as rd

        from mini_search_engine_ray.stages.similarity import (
            ann_cosine_topk, ivf_cosine_topk)

        rng = np.random.default_rng(7)
        emb = rng.standard_normal((200, 8))
        t = pa.table({
            "vec_id": pa.array(np.arange(200, dtype=np.int64)),
            "embedding": pa.array([list(map(float, r)) for r in emb],
                                  type=pa.list_(pa.float32())),
        })
        q = emb[:3]
        ds = rd.from_arrow([t.slice(i, 50) for i in range(0, 200, 50)])
        ivf = ivf_cosine_topk(ds, q, k=5, n_centroids=4, nprobe=4,
                              train="distributed").take_all()
        bf = ann_cosine_topk(rd.from_arrow(t), q, k=5).take_all()
        key = lambda rows: sorted((r["query_id"], r["rank"], r["vec_id"])
                                  for r in rows)
        assert key(ivf) == key(bf)
        with pytest.raises(ValueError):
            ivf_cosine_topk(ds, q, k=5, train="bogus").take_all()

    def test_distributed_trainer_recall(self, ray_session):
        import ray.data as rd

        from mini_search_engine_ray.stages.similarity import ivf_cosine_topk

        rng = np.random.default_rng(2)
        centers = rng.standard_normal((8, 16)) * 4
        emb = np.concatenate([c + rng.standard_normal((60, 16))
                              for c in centers])
        ids = np.arange(len(emb), dtype=np.int64)
        t = pa.table({
            "vec_id": pa.array(ids),
            "embedding": pa.array([list(map(float, r)) for r in emb],
                                  type=pa.list_(pa.float32())),
        })
        queries = emb[::97][:5]
        out = ivf_cosine_topk(rd.from_arrow(t), queries, k=10,
                              n_centroids=8, nprobe=3,
                              train="distributed").take_all()
        mn = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
        sims = mn.astype(np.float64) @ qn.astype(np.float64).T
        recalls = []
        for qi in range(len(queries)):
            exact = set(np.lexsort((ids, -sims[:, qi]))[:10].tolist())
            got = {r["vec_id"] for r in out if r["query_id"] == qi}
            recalls.append(len(exact & got) / 10)
        assert sum(recalls) / len(recalls) >= 0.8, recalls


class TestLSHANN:
    def _table(self, emb):
        return pa.table(
            {
                "vec_id": pa.array(np.arange(len(emb), dtype=np.int64)),
                "embedding": pa.array([list(map(float, r)) for r in emb],
                                      type=pa.list_(pa.float32())),
            }
        )

    def test_lsh_recall_vs_brute_force(self, ray_session):
        import ray.data as rd

        from mini_search_engine_ray.stages.similarity import lsh_cosine_topk

        rng = np.random.default_rng(4)
        centers = rng.standard_normal((8, 16)) * 4
        emb = np.concatenate([c + rng.standard_normal((60, 16)) for c in centers])
        ids = np.arange(len(emb), dtype=np.int64)
        queries = emb[::97][:5]
        out = lsh_cosine_topk(rd.from_arrow(self._table(emb)), queries, k=10,
                              num_hyperplanes=8, probe_radius=2).take_all()
        mn = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
        sims = mn.astype(np.float64) @ qn.astype(np.float64).T
        recalls = []
        for qi in range(len(queries)):
            exact = set(np.lexsort((ids, -sims[:, qi]))[:10].tolist())
            got = {r["vec_id"] for r in out if r["query_id"] == qi}
            recalls.append(len(exact & got) / 10)
        assert sum(recalls) / len(recalls) >= 0.6, recalls
        # deterministic across runs (fixed projection seed)
        out2 = lsh_cosine_topk(rd.from_arrow(self._table(emb)), queries, k=10,
                               num_hyperplanes=8, probe_radius=2).take_all()
        key = lambda rows: sorted((r["query_id"], r["rank"], r["vec_id"]) for r in rows)
        assert key(out) == key(out2)

    def test_full_probe_equals_exact(self, ray_session):
        import ray.data as rd

        from mini_search_engine_ray.stages.similarity import ann_cosine_topk, lsh_cosine_topk

        rng = np.random.default_rng(5)
        emb = rng.standard_normal((150, 8))
        q = emb[:3]
        t = self._table(emb)
        lsh = lsh_cosine_topk(rd.from_arrow(t), q, k=5,
                              num_hyperplanes=6, probe_radius=6).take_all()
        bf = ann_cosine_topk(rd.from_arrow(t), q, k=5).take_all()
        key = lambda rows: sorted((r["query_id"], r["rank"], r["vec_id"]) for r in rows)
        assert key(lsh) == key(bf)  # probing every bucket == exact

    def test_hyperplane_cap(self, ray_session):
        import ray.data as rd

        from mini_search_engine_ray.stages.similarity import lsh_cosine_topk

        with pytest.raises(ValueError):
            lsh_cosine_topk(rd.from_items([{"vec_id": 0, "embedding": [1.0]}]),
                            np.ones((1, 1)), num_hyperplanes=17)


class TestConnectedComponents:
    def _cc(self, a, b, **kw):
        import ray.data as rd

        from mini_search_engine_ray.stages.dedup import connected_components

        t = pa.table({"a": pa.array(np.asarray(a, dtype=np.int64)),
                      "b": pa.array(np.asarray(b, dtype=np.int64))})
        out = connected_components(rd.from_arrow(t), **kw).to_pandas()
        return dict(zip(out.node, out.component))

    def test_chain_collapses_to_min(self, ray_session):
        # 0-1-2-...-49: worst-case diameter; pointer jumping must close
        # it in O(log n) rounds, and every node labels to 0
        n = 50
        lab = self._cc(np.arange(n - 1), np.arange(1, n))
        assert len(lab) == n
        assert set(lab.values()) == {0}

    def test_disjoint_cliques_and_bridge(self, ray_session):
        # clique {10,11,12} + clique {20,21,22} + bridge 12-20 merges
        # them; isolated pair {30,31} stays its own component
        a = [10, 10, 11, 20, 20, 21, 12, 30]
        b = [11, 12, 12, 21, 22, 22, 20, 31]
        lab = self._cc(a, b)
        assert {lab[x] for x in (10, 11, 12, 20, 21, 22)} == {10}
        assert lab[30] == 30 and lab[31] == 30

    def test_empty_pairs(self, ray_session):
        import ray.data as rd

        from mini_search_engine_ray.stages.dedup import connected_components

        t = pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
        out = connected_components(rd.from_arrow(t))
        # schema-stable empty (ray to_pandas drops columns on 0 rows,
        # so assert at the Arrow level)
        assert out.count() == 0
        assert [f.name for f in out.schema().base_schema] == ["node", "component"]

    def test_transitive_not_pairwise(self, ray_session):
        # A~B, B~C but never (A,C): one component, min label wins
        lab = self._cc([5, 7], [7, 9])
        assert lab == {5: 5, 7: 5, 9: 5}


class TestNearDupClusters:
    def test_end_to_end_chain(self, ray_session):
        import ray.data as rd

        from mini_search_engine_ray.stages.dedup import near_dup_clusters

        # doc0 ~ doc1 ~ doc2 are successive one-token edits (each
        # adjacent pair is near; 0 vs 2 may or may not be a candidate)
        # and doc3 is unrelated
        v1 = BASE
        v2 = BASE.replace("lazy", "sleepy")
        v3 = v2.replace("quick", "rapid")
        ds = rd.from_arrow(_doc_table([v1, v2, v3, FAR]))
        out = near_dup_clusters(ds, threshold=0.5).to_pandas()
        lab = dict(zip(out.node, out.component))
        assert {lab[x] for x in (0, 1, 2)} == {0}
        assert 3 not in lab  # FAR doc is in no surviving pair


class TestVerifyPairsJaccard:
    """The r4 fully-distributed verify join: exact values, member
    replication across pairs, shingle-less edge semantics, empty
    input — all on the streaming Dataset-in/Dataset-out path."""

    def test_exact_values_replication_and_edges(self, ray_session):
        import ray.data as rd

        from mini_search_engine_ray.stages.dedup import (
            exact_jaccard_tokens,
            verify_pairs_jaccard,
        )

        # doc0 sits in THREE pairs (shingles replicated per pair);
        # docs 3/4 tokenize to NOTHING -> zero shingles (note: docs
        # with 0 < tokens < k keep raw-token shingles by design,
        # parity with exact_jaccard_tokens)
        texts = [BASE, NEAR, FAR, "", "   "]
        ds = rd.from_arrow(_doc_table(texts))
        pairs = rd.from_arrow(pa.table({
            "a": pa.array([0, 0, 3, 0], pa.int64()),
            "b": pa.array([1, 2, 4, 3], pa.int64()),
        }))
        out = verify_pairs_jaccard(ds, pairs).to_pandas()
        got = {(int(r.a), int(r.b)): float(r.jaccard) for r in out.itertuples()}
        assert set(got) == {(0, 1), (0, 2), (3, 4), (0, 3)}
        assert got[(0, 1)] == pytest.approx(exact_jaccard_tokens(BASE, NEAR))
        assert got[(0, 2)] == pytest.approx(exact_jaccard_tokens(BASE, FAR))
        assert got[(3, 4)] == 1.0  # empty vs empty
        assert got[(0, 3)] == 0.0  # empty vs non-empty

    def test_empty_pairs(self, ray_session):
        import ray.data as rd

        from mini_search_engine_ray.stages.dedup import verify_pairs_jaccard

        ds = rd.from_arrow(_doc_table([BASE, FAR]))
        pairs = rd.from_arrow(pa.table({"a": pa.array([], pa.int64()),
                                        "b": pa.array([], pa.int64())}))
        out = verify_pairs_jaccard(ds, pairs).to_pandas()
        assert len(out) == 0


class TestPCA:
    def _data(self, n=2000, d=8, seed=7):
        rng = np.random.default_rng(seed)
        # anisotropic cloud so components are well separated
        scales = np.linspace(5, 0.5, d)
        x = rng.standard_normal((n, d)) * scales + rng.uniform(-2, 2, d)
        return x.astype(np.float32)

    def _ds(self, x, parts=7):
        import ray.data as rd

        t = pa.table({"vec_id": np.arange(len(x), dtype=np.int64),
                      "embedding": pa.array([r.tolist() for r in x],
                                            pa.list_(pa.float32()))})
        return rd.from_arrow(t).repartition(parts)

    def test_covariance_vs_numpy(self, ray_session):
        from mini_search_engine_ray.stages.similarity import (
            embedding_covariance,
        )

        x = self._data()
        got = embedding_covariance(self._ds(x))
        exp = np.cov(x.astype(np.float64).T, bias=True)
        np.testing.assert_allclose(got, exp, rtol=1e-9, atol=1e-12)

    def test_fit_transform_vs_numpy_eigh(self, ray_session):
        from mini_search_engine_ray.stages.similarity import pca_fit

        x = self._data(seed=11)
        mean, comps, ev = pca_fit(self._ds(x), k=3)
        xf = x.astype(np.float64)
        cov = np.cov(xf.T, bias=True)
        w, v = np.linalg.eigh(cov)
        order = np.argsort(w)[::-1][:3]
        expc = v[:, order].T
        flip = expc[np.arange(3), np.abs(expc).argmax(axis=1)] < 0
        expc[flip] *= -1
        np.testing.assert_allclose(comps, expc, rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(ev, w[order], rtol=1e-9)
        np.testing.assert_allclose(mean, xf.mean(axis=0), rtol=1e-9, atol=1e-12)
        # explained variance ordering and dominance
        assert ev[0] > ev[1] > ev[2] > 0

    def test_block_invariance_and_validation(self, ray_session):
        from mini_search_engine_ray.stages.similarity import pca_fit

        x = self._data(n=500, seed=13)
        m1, c1, e1 = pca_fit(self._ds(x, parts=1), k=2)
        m2, c2, e2 = pca_fit(self._ds(x, parts=11), k=2)
        np.testing.assert_allclose(c1, c2, rtol=1e-9)
        np.testing.assert_allclose(e1, e2, rtol=1e-9)
        with pytest.raises(ValueError, match="k must"):
            pca_fit(self._ds(x), k=0)

    def test_moments_wide_many_blocks_streaming_combine(self, ray_session):
        """Round-4 verdict fix gate: at d=256 with >=200 blocks the
        moments must tree-combine distributed-side and fold on the
        driver incrementally (no take_all of per-batch (d,d) partials)
        while staying numerically identical to the single-block run."""
        from mini_search_engine_ray.stages.similarity import (
            embedding_moments,
        )

        rng = np.random.default_rng(23)
        d, n = 256, 1000
        x = rng.standard_normal((n, d)).astype(np.float32)
        n1, s1, x1 = embedding_moments(self._ds(x, parts=1))
        n2, s2, x2 = embedding_moments(self._ds(x, parts=200))
        assert n1 == n2 == n
        np.testing.assert_allclose(s1, s2, rtol=1e-9)
        np.testing.assert_allclose(x1, x2, rtol=1e-9)
        xf = x.astype(np.float64)
        np.testing.assert_allclose(s1, xf.sum(axis=0), rtol=1e-9)
        np.testing.assert_allclose(x1, xf.T @ xf, rtol=1e-9)

    def test_moments_empty_dataset(self, ray_session):
        from mini_search_engine_ray.stages.similarity import (
            embedding_moments,
        )

        n, s, xtx = embedding_moments(self._ds(np.zeros((0, 4),
                                                        np.float32),
                                               parts=3))
        assert (n, s, xtx) == (0, None, None)


class TestIncrementalDedup:
    """incremental_dedup_drops: new-vs-reference near-dedup."""

    @staticmethod
    def _run(texts, new_pred):
        import ray.data as rd

        from mini_search_engine_ray.stages.dedup import (
            incremental_dedup_drops,
        )

        t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts, pa.string())})
        rows = incremental_dedup_drops(
            rd.from_arrow(t).repartition(3), new_pred=new_pred,
            threshold=0.8).take_all()
        return {r["doc_id"]: r["n_matches"] for r in rows}

    def test_drop_semantics(self, ray_session):
        base = "alpha beta gamma delta epsilon zeta eta theta " \
               "iota kappa lambda mu"
        other = "one two three four five six seven eight nine ten " \
                "eleven twelve"
        texts = [
            base,            # 0 old
            other,           # 1 old
            base,            # 2 new: dup of old 0 -> dropped
            "completely different unique words here nothing shared "
            "at all everywhere",                       # 3 new: kept
            base,            # 4 new: dup of old 0 AND new 2 -> dropped
        ]
        got = self._run(texts, lambda ids: ids >= 2)
        # old docs never dropped; unique new doc kept
        assert 0 not in got and 1 not in got and 3 not in got
        assert 2 in got and 4 in got
        # 4 matches old 0 and new 2 (conservative rule counts both)
        assert got[4] == 2 and got[2] == 1

    def test_old_old_pairs_never_verified(self, ray_session):
        # two identical OLD docs produce no drops at all
        dup = "sigma tau upsilon phi chi psi omega extra words here"
        got = self._run([dup, dup, "unrelated fresh content tokens "
                         "entirely distinct vocabulary"],
                        lambda ids: ids == 2)
        assert got == {}


class TestContainmentVerify:
    """verify_pairs_containment: asymmetric subset/quote detection."""

    def test_quote_scores_containment_one(self, ray_session):
        import ray.data as rd

        from mini_search_engine_ray.stages.dedup import (
            verify_pairs_containment,
            verify_pairs_jaccard,
        )

        quote = "alpha beta gamma delta epsilon"
        long_doc = ("zero one two three four five six seven eight "
                    + quote + " nine ten eleven twelve thirteen")
        other = "completely different words everywhere nothing shared"
        t = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                      "text": pa.array([quote, long_doc, other])})
        docs = rd.from_arrow(t).repartition(2)
        pairs = pa.table({"a": pa.array([1, 1], pa.int64()),
                          "b": pa.array([2, 3], pa.int64())})
        rows = {(r["a"], r["b"]): r for r in
                verify_pairs_containment(docs, pairs).take_all()}
        r12 = rows[(1, 2)]
        # every trigram of the quote appears in the long doc
        assert r12["containment"] == 1.0
        assert r12["size_a"] == 3 and r12["inter_n"] == 3
        assert r12["jaccard"] < 0.2
        assert rows[(1, 3)]["containment"] == 0.0
        # jaccard agrees with the symmetric verifier
        jac = {(r["a"], r["b"]): r["jaccard"] for r in
               verify_pairs_jaccard(docs, pairs).take_all()}
        for k in rows:
            assert abs(rows[k]["jaccard"] - jac[k]) < 1e-12

    def test_empty_member_convention(self, ray_session):
        import ray.data as rd

        from mini_search_engine_ray.stages.dedup import (
            verify_pairs_containment,
        )

        # doc 2 is genuinely token-less (docs SHORTER than k keep raw
        # -token shingles by contract, so only '' has zero shingles)
        t = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                      "text": pa.array(["a b c d", "", "x"])})
        pairs = pa.table({"a": pa.array([1, 1], pa.int64()),
                          "b": pa.array([2, 3], pa.int64())})
        rows = {(r["a"], r["b"]): r for r in verify_pairs_containment(
            rd.from_arrow(t), pairs).take_all()}
        r12 = rows[(1, 2)]
        assert r12["size_b"] == 0 and r12["containment"] == 1.0
        assert r12["jaccard"] == 0.0
        r13 = rows[(1, 3)]          # short doc: one raw-token shingle
        assert r13["size_b"] == 1 and r13["containment"] == 0.0
