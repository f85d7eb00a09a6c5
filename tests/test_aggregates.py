"""sorted_groupby_agg: vectorized sorted reduction vs pandas oracle,
across key types, multi-key, many blocks, and empties."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from mini_search_engine_ray.stages.aggregates import sorted_groupby_agg


def _ds(t, parts=6):
    import ray.data as rd

    step = max(1, t.num_rows // parts)
    return rd.from_arrow([t.slice(i, step) for i in range(0, t.num_rows, step)])


class TestSortedGroupbyAgg:
    def test_all_ops_vs_pandas(self, ray_session):
        rng = np.random.default_rng(0)
        n = 5000
        t = pa.table({
            "k": pa.array(rng.integers(0, 700, n)),
            "v": pa.array(rng.uniform(-10, 10, n)),
        })
        out = sorted_groupby_agg(_ds(t), ["k"], [
            ("v", "min", "vmin"), ("v", "max", "vmax"),
            ("v", "sum", "vsum"), ("v", "count", "n"),
        ]).to_pandas().sort_values("k").reset_index(drop=True)
        exp = (t.to_pandas().groupby("k")["v"]
               .agg(vmin="min", vmax="max", vsum="sum", n="count")
               .reset_index())
        assert len(out) == len(exp)
        assert (out.k.values == exp.k.values).all()
        assert np.allclose(out.vmin, exp.vmin) and np.allclose(out.vmax, exp.vmax)
        assert np.allclose(out.vsum, exp.vsum) and (out.n.values == exp.n.values).all()

    def test_string_keys(self, ray_session):
        rng = np.random.default_rng(1)
        words = np.array(["alpha", "beta", "gamma", "delta", "epsilon"])
        n = 2000
        t = pa.table({
            "w": pa.array(words[rng.integers(0, 5, n)].tolist(), pa.large_string()),
            "x": pa.array(rng.integers(0, 1000, n)),
        })
        out = sorted_groupby_agg(_ds(t), ["w"], [("x", "min", "xmin"),
                                                 ("x", "count", "n")]).to_pandas()
        exp = t.to_pandas().groupby("w")["x"].agg(xmin="min", n="count").reset_index()
        out = out.sort_values("w").reset_index(drop=True)
        assert (out.w.values == exp.w.values).all()
        assert (out.xmin.values == exp.xmin.values).all()
        assert (out.n.values == exp.n.values).all()

    def test_multi_key(self, ray_session):
        rng = np.random.default_rng(2)
        n = 3000
        t = pa.table({
            "a": pa.array(rng.integers(0, 20, n)),
            "b": pa.array(rng.integers(0, 20, n)),
            "v": pa.array(rng.uniform(0, 1, n)),
        })
        out = sorted_groupby_agg(_ds(t), ["a", "b"], [("v", "sum", "s")]).to_pandas()
        exp = t.to_pandas().groupby(["a", "b"])["v"].sum().reset_index(name="s")
        got = {(r.a, r.b): r.s for r in out.itertuples()}
        assert len(got) == len(exp)
        for r in exp.itertuples():
            assert abs(got[(r.a, r.b)] - r.s) < 1e-9

    def test_empty_input_schema_stable(self, ray_session):
        import ray.data as rd

        t = pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.float64())})
        out = sorted_groupby_agg(rd.from_arrow(t), ["k"], [("v", "sum", "s")])
        assert out.count() == 0

    def test_bad_op_raises(self, ray_session):
        import ray.data as rd

        t = pa.table({"k": pa.array([1]), "v": pa.array([1.0])})
        with pytest.raises(ValueError):
            sorted_groupby_agg(rd.from_arrow(t), ["k"], [("v", "median", "m")])


class TestTopkPerGroup:
    def test_vs_pandas_multiblock(self, ray_session):
        from mini_search_engine_ray.stages.aggregates import topk_per_group

        rng = np.random.default_rng(0)
        n = 8000
        t = pa.table({
            "g": pa.array(rng.integers(0, 40, n)),
            "v": pa.array(rng.uniform(0, 1, n)),
            "id": pa.array(np.arange(n, dtype=np.int64)),
        })
        out = topk_per_group(_ds(t, parts=8), ["g"], "v", 3,
                             tiebreak="id").to_pandas()
        exp = (t.to_pandas().sort_values(["g", "v", "id"],
                                         ascending=[True, False, True])
               .groupby("g").head(3))
        got = out.sort_values(["g", "v", "id"],
                              ascending=[True, False, True]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp.reset_index(drop=True))

    def test_ascending_bottom_k(self, ray_session):
        from mini_search_engine_ray.stages.aggregates import topk_per_group

        rng = np.random.default_rng(1)
        n = 2000
        t = pa.table({"g": pa.array(rng.integers(0, 10, n)),
                      "v": pa.array(rng.uniform(0, 1, n)),
                      "id": pa.array(np.arange(n, dtype=np.int64))})
        out = topk_per_group(_ds(t), ["g"], "v", 2, descending=False,
                             tiebreak="id").to_pandas()
        exp = (t.to_pandas().sort_values(["g", "v", "id"])
               .groupby("g").head(2))
        pd.testing.assert_frame_equal(
            out.sort_values(["g", "v", "id"]).reset_index(drop=True),
            exp.reset_index(drop=True))

    def test_small_groups_keep_all(self, ray_session):
        import ray.data as rd

        from mini_search_engine_ray.stages.aggregates import topk_per_group

        t = pa.table({"g": pa.array([1, 1, 2]), "v": pa.array([0.5, 0.7, 0.1]),
                      "id": pa.array([0, 1, 2])})
        out = topk_per_group(rd.from_arrow(t), ["g"], "v", 5,
                             tiebreak="id").to_pandas()
        assert len(out) == 3  # k larger than any group keeps everything


class TestHLL:
    def test_registers_deterministic_and_estimate_close(self, ray_session):
        import ray.data as rd

        from mini_search_engine_ray.stages.textstats import (
            _split_tokens,
            distinct_count_hll,
            hll_estimate,
        )

        rng = np.random.default_rng(7)
        # corpus with a KNOWN distinct-token count
        vocab = [f"tok{i:05d}" for i in range(20000)]
        docs = [" ".join(rng.choice(vocab, size=60)) for _ in range(2000)]
        t = pa.table({"doc_id": pa.array(np.arange(2000, dtype=np.int64)),
                      "text": pa.array(docs, pa.large_string())})
        regs = distinct_count_hll(_ds(t, parts=8), precision_bits=10)
        regs_pd = regs.to_pandas()
        assert regs_pd.bucket.is_unique and (regs_pd.rho >= 1).all()
        est = hll_estimate(regs_pd, precision_bits=10)
        _, values = _split_tokens(t["text"].combine_chunks())
        true = len(set(values.to_pylist()))
        assert abs(est - true) / true < 0.1  # ~3.3% expected at p=10

    def test_bit_length_u64_exact(self, ray_session):
        from mini_search_engine_ray.stages.textstats import _bit_length_u64

        xs = np.array([0, 1, 2, 3, 2**53 - 1, 2**53, 2**53 + 1, 2**63,
                       2**64 - 1], dtype=np.uint64)
        got = _bit_length_u64(xs)
        exp = np.array([int(x).bit_length() for x in xs.tolist()])
        assert (got == exp).all()


class TestCMS:
    """Count-Min Sketch: deterministic register parity vs a single-
    machine brute-force replay, the classic overestimate guarantee,
    and block-count invariance (partials combine by sum)."""

    def _brute_registers(self, texts, depth, width_bits, seed):
        from mini_search_engine_ray.stages.dedup import _perm_params
        from mini_search_engine_ray.stages.textstats import (
            _cms_buckets,
            _split_tokens,
        )

        _, values = _split_tokens(pa.array(texts, pa.large_string()))
        reg = np.zeros((depth, 1 << width_bits), dtype=np.int64)
        if len(values):
            a, b = _perm_params(depth, seed)
            from mini_search_engine_ray.stages.dedup import _token_hashes
            buckets = _cms_buckets(_token_hashes(values), a, b, width_bits)
            for r in range(depth):
                np.add.at(reg[r], buckets[r], 1)
        return reg

    def test_registers_match_brute_force(self, ray_session):
        from mini_search_engine_ray.stages.textstats import count_min_sketch

        rng = np.random.default_rng(11)
        vocab = [f"w{i:04d}" for i in range(300)]
        docs = [" ".join(rng.choice(vocab, size=40)) for _ in range(500)]
        t = pa.table({"text": pa.array(docs, pa.large_string())})
        got = count_min_sketch(_ds(t, parts=7), depth=4, width_bits=8,
                               seed=99).to_pandas()
        exp = self._brute_registers(docs, 4, 8, 99)
        reg = np.zeros_like(exp)
        reg[got["row"].to_numpy(), got["bucket"].to_numpy()] = \
            got["cnt"].to_numpy()
        assert (reg == exp).all()

    def test_overestimate_and_exact_when_wide(self, ray_session):
        from mini_search_engine_ray.stages.textstats import (
            cms_estimate,
            count_min_sketch,
        )

        rng = np.random.default_rng(5)
        vocab = [f"tok{i:03d}" for i in range(50)]
        docs = [" ".join(rng.choice(vocab, size=30)) for _ in range(400)]
        t = pa.table({"text": pa.array(docs, pa.large_string())})
        reg = count_min_sketch(_ds(t, parts=5), depth=4, width_bits=12,
                               seed=7)
        est = cms_estimate(reg, vocab + ["absent_tok"], depth=4,
                           width_bits=12, seed=7)
        true = {}
        for d in docs:
            for w in d.split():
                true[w] = true.get(w, 0) + 1
        truth = np.array([true.get(v, 0) for v in vocab] + [0])
        assert (est >= truth).all()          # CMS never underestimates
        # 50 tokens into 4x4096 buckets: collisions vanish -> exact
        assert (est == truth).all()

    def test_block_count_invariance_and_empty(self, ray_session):
        import ray.data as rd

        from mini_search_engine_ray.stages.textstats import (
            cms_estimate,
            count_min_sketch,
        )

        docs = ["alpha beta beta", "gamma alpha", "", "beta"]
        t = pa.table({"text": pa.array(docs, pa.large_string())})
        e1 = cms_estimate(count_min_sketch(_ds(t, parts=1)),
                          ["alpha", "beta", "gamma"])
        e4 = cms_estimate(count_min_sketch(_ds(t, parts=4)),
                          ["alpha", "beta", "gamma"])
        assert (e1 == e4).all() and (e1 >= np.array([2, 3, 1])).all()
        empty = pa.table({"text": pa.array([], pa.large_string())})
        est = cms_estimate(count_min_sketch(rd.from_arrow(empty)), ["x"])
        assert (est == 0).all()


class TestQuantilePerGroup:
    def test_vs_duckdb_semantics(self, ray_session):
        import duckdb

        from mini_search_engine_ray.stages.aggregates import quantile_per_group

        rng = np.random.default_rng(3)
        n = 20000
        t = pa.table({"g": pa.array(rng.integers(0, 100, n)),
                      "v": pa.array(rng.uniform(0, 1, n))})
        out = (quantile_per_group(_ds(t, parts=8), ["g"], "v", [0.5, 0.95])
               .to_pandas().sort_values("g").reset_index(drop=True))
        con = duckdb.connect()
        con.register("t", t.to_pandas())
        exp = con.sql("SELECT g, quantile_disc(v, 0.5) AS q5, "
                      "quantile_disc(v, 0.95) AS q95 FROM t GROUP BY g "
                      "ORDER BY g").df()
        assert np.allclose(out.q5, exp.q5) and np.allclose(out.q95, exp.q95)

    def test_single_row_groups(self, ray_session):
        import ray.data as rd

        from mini_search_engine_ray.stages.aggregates import quantile_per_group

        t = pa.table({"g": pa.array([1, 2, 3]), "v": pa.array([0.3, 0.9, 0.1])})
        out = quantile_per_group(rd.from_arrow(t), ["g"], "v", [0.5]).to_pandas()
        assert dict(zip(out.g, out.q5)) == {1: 0.3, 2: 0.9, 3: 0.1}

    def test_bad_q_raises(self, ray_session):
        import ray.data as rd

        from mini_search_engine_ray.stages.aggregates import quantile_per_group

        t = pa.table({"g": pa.array([1]), "v": pa.array([1.0])})
        with pytest.raises(ValueError):
            quantile_per_group(rd.from_arrow(t), ["g"], "v", [1.5])


class TestNullKeys:
    """Null-aware key runs (SQL GROUP BY semantics): a null key is its
    own group, never merged into the adjacent value's run."""

    def test_null_string_key_runs_detected_in_sweep(self, ray_session):
        # Ray's sort itself rejects null string keys (None < str), so
        # the sweep helper is exercised directly on a pre-sorted block
        from mini_search_engine_ray.stages.aggregates import key_run_breaks

        t = pa.table({"k": pa.array(["x", "x", None, None, "y"])})
        brk = key_run_breaks(t, ["k"])
        # x|x != None, None == None, None != y
        assert brk.tolist() == [False, True, False, True]

    def test_null_int_key_is_own_group(self, ray_session):
        t = pa.table({"k": pa.array([1, 1, None, 2], type=pa.int64()),
                      "v": pa.array([1, 2, 4, 8])})
        out = sorted_groupby_agg(_ds(t, parts=1), ["k"],
                                 [("v", "sum", "s")]).to_pandas()
        by_null = out[out.k.isna()]
        assert len(by_null) == 1 and by_null.s.iloc[0] == 4
        assert dict(zip(out.k.dropna().astype(int),
                        out[out.k.notna()].s)) == {1: 3, 2: 8}

    def test_null_agg_source_raises(self, ray_session):
        t = pa.table({"k": pa.array([1, 1]), "v": pa.array([1, None])})
        with pytest.raises(Exception, match="null values in aggregate"):
            sorted_groupby_agg(_ds(t, parts=1), ["k"],
                               [("v", "sum", "s")]).to_pandas()


class TestCountDistinctPerGroup:
    def test_vs_pandas(self, ray_session):
        from mini_search_engine_ray.stages.aggregates import count_distinct_per_group

        rng = np.random.default_rng(13)
        n = 8000
        t = pa.table({"g": pa.array(rng.integers(0, 150, n)),
                      "v": pa.array([f"t{int(x)}" for x in rng.integers(0, 12, n)])})
        out = (count_distinct_per_group(_ds(t, parts=7), ["g"], "v")
               .to_pandas().sort_values("g").reset_index(drop=True))
        exp = (t.to_pandas().groupby("g")["v"].nunique()
               .reset_index(name="n_distinct"))
        assert (out.g.values == exp.g.values).all()
        assert (out.n_distinct.values == exp.n_distinct.values).all()

    def test_duplicates_within_and_across_blocks(self, ray_session):
        from mini_search_engine_ray.stages.aggregates import count_distinct_per_group

        # same (g, v) pair repeated in every block: must count once
        t = pa.table({"g": pa.array([1] * 40 + [2] * 40),
                      "v": pa.array((["a", "b"] * 20) + (["c"] * 40))})
        out = count_distinct_per_group(_ds(t, parts=8), ["g"], "v").to_pandas()
        assert dict(zip(out.g, out.n_distinct)) == {1: 2, 2: 1}


class TestGlobalQuantiles:
    def test_vs_duckdb(self, ray_session):
        import duckdb

        from mini_search_engine_ray.stages.aggregates import global_quantiles

        rng = np.random.default_rng(21)
        t = pa.table({"v": pa.array(rng.uniform(-5, 5, 30000))})
        out = global_quantiles(_ds(t, parts=9), "v", [0.25, 0.5, 0.99])
        con = duckdb.connect()
        con.register("t", t.to_pandas())
        exp = con.sql("SELECT quantile_disc(v, 0.25), quantile_disc(v, 0.5), "
                      "quantile_disc(v, 0.99) FROM t").fetchone()
        assert out["value"].to_pylist() == list(exp)

    def test_empty_and_validation(self, ray_session):
        import ray.data as rd

        from mini_search_engine_ray.stages.aggregates import global_quantiles

        t = pa.table({"v": pa.array([], pa.float64())})
        out = global_quantiles(rd.from_arrow(t), "v", [0.5])
        assert out.num_rows == 0
        with pytest.raises(ValueError):
            global_quantiles(rd.from_arrow(t), "v", [0.0])


class TestHistogramQuantiles:
    def _hq(self, ray_session, vals, qs, bins, parts=7):
        import ray.data as rd

        from mini_search_engine_ray.stages.aggregates import (
            histogram_quantiles,
        )

        t = pa.table({"v": np.asarray(vals, dtype=np.float64)})
        return histogram_quantiles(rd.from_arrow(t).repartition(parts),
                                   "v", qs, bins=bins).to_pandas()

    def test_error_bounded_by_width(self, ray_session):
        rng = np.random.default_rng(17)
        vals = rng.uniform(-3.0, 11.0, 20_000)
        qs = [0.1, 0.5, 0.9, 0.99]
        got = self._hq(ray_session, vals, qs, bins=256)
        width = (vals.max() - vals.min()) / 256
        exact = np.quantile(vals, qs)
        assert np.all(np.abs(got["value"].to_numpy() - exact) <= 2 * width)

    def test_block_count_invariance(self, ray_session):
        rng = np.random.default_rng(19)
        vals = rng.standard_normal(5000)
        a = self._hq(ray_session, vals, [0.5, 0.9], 128, parts=1)
        b = self._hq(ray_session, vals, [0.5, 0.9], 128, parts=13)
        np.testing.assert_array_equal(a["value"].to_numpy(),
                                      b["value"].to_numpy())

    def test_all_equal_and_empty(self, ray_session):
        got = self._hq(ray_session, np.full(100, 4.25), [0.5, 0.99], 64)
        np.testing.assert_array_equal(got["value"].to_numpy(),
                                      [4.25, 4.25])
        got2 = self._hq(ray_session, [], [0.5], 64, parts=1)
        assert len(got2) == 0

    def test_wide_histogram_is_near_exact_on_ints(self, ray_session):
        # integer values 0..99, bins so wide each int has its own bucket:
        # the q-th estimate is the exact value's bucket upper edge
        vals = np.repeat(np.arange(100), 10).astype(np.float64)
        got = self._hq(ray_session, vals, [0.5], bins=10_000)
        exact = np.quantile(vals, 0.5)
        width = 99.0 / 10_000
        assert abs(got["value"][0] - exact) <= 1.0 + width

    def test_validation(self, ray_session):
        import ray.data as rd

        from mini_search_engine_ray.stages.aggregates import (
            histogram_quantiles,
        )

        ds = rd.from_arrow(pa.table({"v": [1.0]}))
        with pytest.raises(ValueError, match="quantile"):
            histogram_quantiles(ds, "v", [1.5])
        with pytest.raises(ValueError, match="bins"):
            histogram_quantiles(ds, "v", [0.5], bins=0)


class TestSetOp:
    def _mk(self, ray_session, seed, nulls=True, y_hi=4):
        import ray.data as rd

        rng = np.random.default_rng(seed)
        n = 800
        a = rng.integers(0, 12, n).astype(float)
        if nulls:
            a[rng.random(n) < 0.1] = np.nan
        t = pa.table({"x": pa.array([None if np.isnan(v) else int(v)
                                     for v in a], pa.int64()),
                      "y": rng.integers(0, y_hi, n)})
        return t, rd.from_arrow(t).repartition(5)

    def _brute(self, tl, tr, how):
        import duckdb

        kw = {"intersect": "INTERSECT", "except": "EXCEPT",
              "union": "UNION"}[how]
        con = duckdb.connect()
        con.register("l", tl.to_pandas())
        con.register("r", tr.to_pandas())
        return con.sql(f"SELECT * FROM l {kw} SELECT * FROM r").df()

    @pytest.mark.parametrize("how", ["intersect", "except", "union"])
    def test_vs_duckdb_with_null_rows(self, ray_session, how):
        from mini_search_engine_ray.stages.aggregates import set_op

        # left has y values the right never produces, so EXCEPT is
        # non-empty (and null-x rows appear on both sides)
        tl, dl = self._mk(ray_session, 31, y_hi=6)
        tr, dr = self._mk(ray_session, 32, y_hi=4)
        got = set_op(dl, dr, how).to_pandas()
        exp = self._brute(tl, tr, how)
        canon = lambda df: df.sort_values(["x", "y"]) \
            .reset_index(drop=True).astype("float64")
        pd.testing.assert_frame_equal(canon(got), canon(exp))

    def test_distinct_output_and_validation(self, ray_session):
        import ray.data as rd

        from mini_search_engine_ray.stages.aggregates import set_op

        l = rd.from_arrow(pa.table({"x": [1, 1, 2, 2, 3]}))
        r = rd.from_arrow(pa.table({"x": [2, 2, 9]}))
        assert sorted(set_op(l, r, "intersect").to_pandas()["x"]) == [2]
        assert sorted(set_op(l, r, "except").to_pandas()["x"]) == [1, 3]
        assert sorted(set_op(l, r, "union").to_pandas()["x"]) == [1, 2, 3, 9]
        with pytest.raises(ValueError, match="how"):
            set_op(l, r, "minus")


class TestGroupedHLL:
    def _corpus(self, n_docs=1200, n_keys=4, seed=9):
        rng = np.random.default_rng(seed)
        # per-key vocab sizes differ so the estimates must too
        vocabs = [[f"k{k}tok{i:05d}" for i in range(1000 * (k + 1))]
                  for k in range(n_keys)]
        keys = rng.integers(0, n_keys, n_docs)
        docs = [" ".join(rng.choice(vocabs[k], size=50)) for k in keys]
        return pa.table({
            "source": pa.array([f"s{k}" for k in keys]),
            "text": pa.array(docs, pa.large_string())})

    def test_registers_match_global_per_key(self, ray_session):
        from mini_search_engine_ray.stages.textstats import (
            distinct_count_hll,
            hll_registers_per_group,
        )

        t = self._corpus()
        regs = hll_registers_per_group(_ds(t, parts=7), "source",
                                       precision_bits=10)
        regs_pd = regs.to_pandas()
        # grouped registers == the global sketch run on each key alone
        for k in sorted(set(regs_pd["source"])):
            sub = t.filter(pa.compute.equal(t["source"], k))
            solo = distinct_count_hll(_ds(sub, parts=3),
                                      precision_bits=10).to_pandas()
            mine = regs_pd[regs_pd["source"] == k]
            assert dict(zip(mine["bucket"], mine["rho"])) == \
                dict(zip(solo["bucket"], solo["rho"]))

    def test_empty_and_single_key(self, ray_session):
        import ray.data as rd

        from mini_search_engine_ray.stages.textstats import (
            hll_registers_per_group,
        )

        t = pa.table({"source": pa.array([], pa.string()),
                      "text": pa.array([], pa.string())})
        assert hll_registers_per_group(_ds(t, parts=1),
                                       "source").count() == 0


class TestHistogramQuantilesPerGroup:
    def _brute(self, keys, vals, qs, bins):
        mn, mx = vals.min(), vals.max()
        w = 1.0 if mx == mn else (mx - mn) / bins
        out = {}
        for k in np.unique(keys):
            v = vals[keys == k]
            b = np.minimum(np.floor((v - mn) / w), bins - 1).astype(int)
            cnt = np.bincount(b, minlength=bins)
            cum = np.cumsum(cnt)
            for q in qs:
                rank = max(int(np.ceil(q * len(v))), 1)
                bb = int(np.searchsorted(cum, rank, side="left"))
                out[(k, q)] = mn if mx == mn else mn + (bb + 1) * w
        return out

    def test_vs_brute_force_multiblock(self, ray_session):
        import ray.data as rd

        from mini_search_engine_ray.stages.aggregates import (
            histogram_quantiles_per_group,
        )

        rng = np.random.default_rng(97)
        n = 8000
        keys = rng.integers(0, 9, n)
        vals = rng.standard_normal(n) * (keys + 1)  # per-key spreads
        t = pa.table({"k": keys, "v": vals})
        qs = [0.5, 0.9]
        got = histogram_quantiles_per_group(
            rd.from_arrow(t).repartition(7), "k", "v", qs, bins=64) \
            .to_pandas()
        exp = self._brute(keys, vals, qs, 64)
        assert len(got) == len(exp)
        for r in got.itertuples():
            np.testing.assert_allclose(r.value, exp[(r.k, r.q)],
                                       rtol=1e-12)

    def test_error_bound_and_giant_group(self, ray_session):
        import ray.data as rd

        from mini_search_engine_ray.stages.aggregates import (
            histogram_quantiles_per_group,
        )

        rng = np.random.default_rng(101)
        # one giant group far larger than any single block
        vals = rng.uniform(0, 100, 50_000)
        t = pa.table({"k": np.zeros(50_000, np.int64), "v": vals})
        got = histogram_quantiles_per_group(
            rd.from_arrow(t).repartition(17), "k", "v", [0.5, 0.99],
            bins=256).to_pandas()
        width = (vals.max() - vals.min()) / 256
        for r in got.itertuples():
            assert abs(r.value - np.quantile(vals, r.q)) <= 2 * width

    def test_empty_and_validation(self, ray_session):
        import ray.data as rd

        from mini_search_engine_ray.stages.aggregates import (
            histogram_quantiles_per_group,
        )

        t = pa.table({"k": pa.array([], pa.int64()),
                      "v": pa.array([], pa.float64())})
        assert histogram_quantiles_per_group(
            rd.from_arrow(t), "k", "v", [0.5]).count() == 0
        t2 = pa.table({"k": [1], "v": [1.0]})
        with pytest.raises(ValueError, match="quantile"):
            histogram_quantiles_per_group(rd.from_arrow(t2), "k", "v",
                                          [2.0])
        with pytest.raises(ValueError, match="bins"):
            histogram_quantiles_per_group(rd.from_arrow(t2), "k", "v",
                                          [0.5], bins=0)


class TestHistogramQuantilesPerGroupNullKeys:
    def test_null_key_is_own_group(self, ray_session):
        import ray.data as rd

        from mini_search_engine_ray.stages.aggregates import (
            histogram_quantiles_per_group,
        )

        # power-of-two bins: the regression where a null key's NaN
        # index wrapped into key 0's histogram
        t = pa.table({"k": pa.array([1, None, 2, None, 1], pa.int64()),
                      "v": pa.array([1.0, 100.0, 2.0, 100.0, 3.0])})
        got = histogram_quantiles_per_group(
            rd.from_arrow(t).repartition(2), "k", "v", [0.5],
            bins=64).to_pandas()
        by_k = {(None if pd.isna(r.k) else int(r.k)): r.value
                for r in got.itertuples()}
        assert set(by_k) == {1, 2, None}
        width = 99.0 / 64
        # key 1's median estimate must be near 2, NOT dragged to 100
        assert abs(by_k[1] - 2.0) <= 2 * width
        assert abs(by_k[None] - 100.0) <= 2 * width


class TestGlobalQuantilesCont:
    def test_vs_duckdb_percentile_cont(self, ray_session):
        import duckdb

        from mini_search_engine_ray.stages.aggregates import (
            global_quantiles_cont,
        )

        rng = np.random.default_rng(33)
        vals = rng.integers(-10_000, 10_000, 30_001).astype(np.int64)
        t = pa.table({"v": pa.array(vals)})
        pcts = [0, 10, 25, 50, 75, 90, 99, 100]
        out = global_quantiles_cont(_ds(t, parts=9), "v", pcts)
        got = out["interp_num"].to_numpy() / 100.0
        con = duckdb.connect()
        con.register("t", t.to_pandas())
        exprs = ", ".join(
            f"percentile_cont({p / 100.0}) WITHIN GROUP (ORDER BY v)"
            for p in pcts)
        exp = np.array(con.sql(f"SELECT {exprs} FROM t").fetchone(),
                       dtype=np.float64)
        np.testing.assert_allclose(got, exp, rtol=0, atol=1e-9)

    def test_block_count_invariance_and_exact_ranks(self, ray_session):
        from mini_search_engine_ray.stages.aggregates import (
            global_quantiles_cont,
        )

        # n = 5: p=25 -> h = 1.0 exactly (no interpolation), p=30 ->
        # h = 1.2 -> v[1]*80 + v[2]*20
        t = pa.table({"v": pa.array([10, 20, 40, 80, 160],
                                    pa.int64())})
        for parts in (1, 2, 5):
            out = global_quantiles_cont(_ds(t, parts=parts), "v",
                                        [25, 30, 100])
            assert out["interp_num"].to_pylist() == [
                20 * 100, 20 * 80 + 40 * 20, 160 * 100]

    def test_empty_and_validation(self, ray_session):
        import ray.data as rd

        from mini_search_engine_ray.stages.aggregates import (
            global_quantiles_cont,
        )

        t = pa.table({"v": pa.array([], pa.int64())})
        out = global_quantiles_cont(rd.from_arrow(t), "v", [50])
        assert out.num_rows == 0
        with pytest.raises(ValueError):
            global_quantiles_cont(rd.from_arrow(t), "v", [101])
        with pytest.raises(ValueError):
            global_quantiles_cont(rd.from_arrow(t), "v", [-1])
