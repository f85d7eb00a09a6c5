"""End-to-end index build + query tests: whole-index golden
materialization (SURVEY §5 style 2), brute-force-oracle parity (style
4), rank-identity for BM25/tf-idf, salted sub-shards, tombstones."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from mini_search_engine_ray.functions.analyzers import ComposableAnalyzer
from mini_search_engine_ray.pipelines.build import build_index, load_meta
from brute_force_oracle import BruteForceOracle
from mini_search_engine_ray.sources.corpus import synth_corpus, write_corpus_parquet
from mini_search_engine_ray.stages.shards import read_shard_as_dicts
from mini_search_engine_ray.state.searcher import IndexSearcher

TINY_DOCS = [
    "import edu.uci.ics.cs221.analysis.Analyzer;",
    "import edu.uci.ics.cs221.analysis.ComposableAnalyzer;",
    "import edu.uci.ics.cs221.analysis.PorterStemmer;",
    "import edu.uci.ics.cs221.index.inverted.InvertedIndexManager;",
    "import edu.uci.ics.cs221.storage.Document;",
    "a kitten and a bunny played with information retrieval systems",
]


def _tiny_ds():
    import ray.data as rd

    t = pa.table(
        {
            "doc_id": pa.array(np.arange(len(TINY_DOCS), dtype=np.int64)),
            "content": pa.array(TINY_DOCS, type=pa.large_string()),
        }
    )
    return rd.from_arrow(t)


@pytest.fixture(scope="module")
def tiny_index(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("tiny_idx"))
    ds = _tiny_ds()
    meta = build_index(
        ds, d, analyzer="composable", num_buckets=4, positional=True,
        n_docs=len(TINY_DOCS), fingerprint="tiny", write_docstore=False,
    )
    return d, meta


@pytest.fixture(scope="module")
def small_index(ray_session, tmp_path_factory):
    """200-doc synthetic corpus, built through the full pipeline."""
    d = str(tmp_path_factory.mktemp("small"))
    corpus = synth_corpus(200, seed=42)
    pq_path = f"{d}/corpus.parquet"
    write_corpus_parquet(corpus, pq_path, rows_per_group=64)
    import ray.data as rd

    idx = f"{d}/index"
    build_index(
        rd.read_parquet(pq_path), idx, analyzer="composable", num_buckets=8,
        positional=True, n_docs=200, fingerprint="small",
    )
    docs = {i: corpus["content"][i].as_py() for i in range(200)}
    return idx, docs


class TestGoldenMaterialization:
    def test_postings_match_analyzer(self, tiny_index):
        d, meta = tiny_index
        postings, tfs, positions = read_shard_as_dicts(d, positional=True)
        an = ComposableAnalyzer()
        exp_postings: dict[str, list[int]] = {}
        for i, text in enumerate(TINY_DOCS):
            toks = an.analyze(text)
            for p, t in enumerate(toks):
                exp_postings.setdefault(t, [])
                if i not in exp_postings[t]:
                    exp_postings[t].append(i)
                assert positions[(t, i)].count(p) == 1 or p in positions[(t, i)]
        assert postings == exp_postings
        # tf golden checks
        assert tfs[("import", 0)] == 1
        assert tfs[("cs221", 0)] == 1
        # positions are over the analyzed (stopword-stripped, stemmed) stream
        toks5 = an.analyze(TINY_DOCS[5])
        assert positions[("kitten", 5)] == [toks5.index("kitten")]

    def test_meta(self, tiny_index):
        d, meta = tiny_index
        assert meta["n_docs"] == 6
        assert meta["total_tokens"] == sum(
            len(ComposableAnalyzer().analyze(t)) for t in TINY_DOCS
        )
        assert load_meta(d)["avgdl"] == pytest.approx(meta["total_tokens"] / 6)


class TestQueriesVsOracle:
    KEYWORDS = ["index", "information", "kitten", "import", "nonexistentzzz", "the"]
    AND_QUERIES = [["import", "analysis"], ["kitten", "bunny"], ["import", "kitten"],
                   ["information", "retrieval"], ["the", "import"]]
    OR_QUERIES = [["kitten", "storage"], ["analyzer", "document"], ["zzz", "qqq"]]
    PHRASES = [["information", "retrieval"], ["kitten", "bunny"],
               ["a", "kitten"], ["retrieval", "information"]]

    @pytest.fixture(scope="class")
    def pair(self, tiny_index):
        d, _ = tiny_index
        s = IndexSearcher(d)
        o = BruteForceOracle(dict(enumerate(TINY_DOCS)), "composable")
        return s, o

    def test_keyword(self, pair):
        s, o = pair
        for kw in self.KEYWORDS:
            assert s.search_keyword(kw).tolist() == o.search_keyword(kw), kw

    def test_and(self, pair):
        s, o = pair
        for q in self.AND_QUERIES:
            assert s.search_and(q).tolist() == o.search_and(q), q

    def test_or(self, pair):
        s, o = pair
        for q in self.OR_QUERIES:
            assert s.search_or(q).tolist() == o.search_or(q), q

    def test_phrase(self, pair):
        s, o = pair
        for q in self.PHRASES:
            assert s.search_phrase(q).tolist() == o.search_phrase(q), q

    def test_phrase_needs_positional_index(self, ray_session, tmp_path):
        d = str(tmp_path / "idx")
        build_index(
            _tiny_ds(), d, analyzer="composable", num_buckets=4, positional=False,
            n_docs=len(TINY_DOCS), fingerprint="tiny-nopos", write_docstore=False,
        )
        s = IndexSearcher(d)
        with pytest.raises(NotImplementedError):
            s.search_phrase(self.PHRASES[0])
        with pytest.raises(NotImplementedError):
            s.search_near(self.PHRASES[0], 1)


class TestRankedSmall:
    QUERIES = [
        ["information", "retrieval"],
        ["parse", "request", "handler"],
        ["index", "token", "merge"],
        ["needle"],
        ["kitten", "garden"],
        ["university", "california", "irvine"],
        ["the"],  # stopword-only -> empty
    ]

    @pytest.fixture(scope="class")
    def pair(self, small_index):
        idx, docs = small_index
        return IndexSearcher(idx), BruteForceOracle(docs, "composable")

    @pytest.mark.parametrize("k", [5, 10, 50])
    def test_bm25_rank_identity(self, pair, k):
        s, o = pair
        for q in self.QUERIES:
            ids_e, sc_e = s.search_bm25(q, k, prune=False)
            ids_o, sc_o = o.search_bm25(q, k)
            assert ids_e.tolist() == ids_o.tolist(), q
            np.testing.assert_allclose(sc_e, sc_o, rtol=1e-9)

    @pytest.mark.parametrize("k", [1, 3, 10, 40])
    def test_bm25_maxscore_equals_exhaustive(self, pair, k):
        """The ranked path (a MaxScore-style split: terms whose bound
        sum stays below a rare term's kth weight are probed, not
        scanned) is rank- AND score-identical to the scan."""
        s, _ = pair
        for q in self.QUERIES:
            ids_p, sc_p = s.search_bm25(q, k, prune=True)
            ids_e, sc_e = s.search_bm25(q, k, prune=False)
            assert ids_p.tolist() == ids_e.tolist(), q
            assert sc_p.tolist() == sc_e.tolist(), q

    def test_bm25_random_queries(self, pair):
        """Fuzz: random multi-term queries, ranked path == scan."""
        s, _ = pair
        rng = np.random.default_rng(11)
        vocab = ["index", "token", "merge", "parse", "request", "handler",
                 "stream", "batch", "information", "retrieval", "kitten",
                 "needle", "garden", "university", "writer", "reader"]
        for _ in range(40):
            q = list(rng.choice(vocab, size=int(rng.integers(1, 5)), replace=False))
            k = int(rng.integers(1, 30))
            ids_p, sc_p = s.search_bm25(q, k, prune=True)
            ids_e, sc_e = s.search_bm25(q, k, prune=False)
            assert ids_p.tolist() == ids_e.tolist(), (q, k)
            assert sc_p.tolist() == sc_e.tolist(), (q, k)

    def test_tfidf_rank_identity(self, pair):
        s, o = pair
        for q in self.QUERIES:
            ids_e, sc_e = s.search_tfidf(q, 10)
            ids_o, sc_o = o.search_tfidf(q, 10)
            assert ids_e.tolist() == ids_o.tolist(), q
            np.testing.assert_allclose(sc_e, sc_o, rtol=1e-9)

    def test_tfidf_topk_none_returns_all(self, pair):
        s, o = pair
        ids_e, _ = s.search_tfidf(["information"], None)
        ids_o, _ = o.search_tfidf(["information"], None)
        assert ids_e.tolist() == ids_o.tolist()

    def test_boolean_on_small(self, pair):
        s, o = pair
        for q in (["needle"], ["elizabeth"], ["qwertyuiop"]):
            assert s.search_keyword(q[0]).tolist() == o.search_keyword(q[0])
        assert s.search_and(["qwertyuiop", "elizabeth"]).tolist() == o.search_and(
            ["qwertyuiop", "elizabeth"]
        )


class TestSalted:
    def test_salted_build_same_postings(self, ray_session, tmp_path):
        import ray.data as rd

        corpus = synth_corpus(60, seed=7)
        t = corpus.select(["doc_id", "content"])
        d1, d2 = str(tmp_path / "s1"), str(tmp_path / "s3")
        build_index(rd.from_arrow(t), d1, num_buckets=4, salt=1, n_docs=60,
                    write_docstore=False, fingerprint="a")
        build_index(rd.from_arrow(t), d2, num_buckets=4, salt=3, n_docs=60,
                    write_docstore=False, fingerprint="b")
        p1, tf1, _ = read_shard_as_dicts(d1)
        p2, tf2, _ = read_shard_as_dicts(d2)
        assert p1 == p2 and tf1 == tf2

    def test_salted_queries(self, ray_session, tmp_path):
        import ray.data as rd

        corpus = synth_corpus(60, seed=7)
        docs = {i: corpus["content"][i].as_py() for i in range(60)}
        d = str(tmp_path / "salted")
        build_index(rd.from_arrow(corpus.select(["doc_id", "content"])), d,
                    num_buckets=4, salt=3, n_docs=60, write_docstore=False)
        s = IndexSearcher(d)
        o = BruteForceOracle(docs, "composable")
        ids_e, sc_e = s.search_bm25(["index", "merge"], 10)
        ids_o, sc_o = o.search_bm25(["index", "merge"], 10)
        assert ids_e.tolist() == ids_o.tolist()
        np.testing.assert_allclose(sc_e, sc_o, rtol=1e-9)
        # the scan over the same salted sub-shards, bitwise
        ids_x, sc_x = s.search_bm25(["index", "merge"], 10, prune=False)
        assert ids_x.tolist() == ids_e.tolist() and sc_x.tolist() == sc_e.tolist()


class TestTombstones:
    def test_delete_filters_queries(self, ray_session, tmp_path):
        import ray.data as rd

        d = str(tmp_path / "del")
        ds = _tiny_ds()
        build_index(ds, d, num_buckets=4, positional=True, n_docs=6,
                    write_docstore=False)
        s = IndexSearcher(d)
        assert len(s.search_keyword("import")) == 5
        s.delete_documents("import")
        assert len(s.search_keyword("import")) == 0
        assert s.search_and(["import", "analysis"]).tolist() == []
        # fresh searcher sees persisted tombstones
        s2 = IndexSearcher(d)
        assert len(s2.search_keyword("import")) == 0
        # other terms unaffected
        assert len(s2.search_keyword("kitten")) == 1


class TestPrefixSearch:
    def test_term_dict_prefix_range(self):
        from mini_search_engine_ray.state.searcher import _TermDict

        terms = ["ant", "apple", "apply", "b", "b\xff", "b\xffx", "ba", "zz"]
        td = _TermDict(pa.array(sorted(terms)))
        n = td.n

        def rng(p):
            lo, hi = td.prefix_range(p.encode())
            return [td.term_at(i) for i in range(lo, hi)]

        assert rng("app") == ["apple", "apply"]
        assert rng("apple") == ["apple"]
        assert rng("a") == ["ant", "apple", "apply"]
        assert rng("c") == []
        assert rng("zz") == ["zz"]
        # successor of a prefix ending in 0xff must strip + carry
        assert rng("b\xff") == sorted(["b\xff", "b\xffx"])
        assert td.prefix_range(b"\xff") == (n, n)
        # empty-ish: lower_bound of b"" is 0
        assert td.lower_bound(b"") == 0

    def test_prefix_vs_bruteforce(self, small_index):
        idx, docs = small_index
        s = IndexSearcher(idx)
        an = s.analyzer
        for prefix in ["par", "s", "re", "zqx"]:
            expect = sorted(
                d for d, text in docs.items()
                if any(t.startswith(prefix) for t in an.analyze(text))
            )
            got = s.search_prefix(prefix)
            assert got.tolist() == expect, prefix
        assert s.search_prefix("").tolist() == []
        assert s.search_prefix("   ").tolist() == []

    def test_prefix_max_expansion_truncates(self, small_index):
        idx, docs = small_index
        s = IndexSearcher(idx)
        all_terms = s.expand_prefix("s")
        if len(all_terms) < 3:
            pytest.skip("corpus too small for truncation check")
        capped = s.expand_prefix("s", max_expansion=2)
        assert capped == sorted(all_terms)[:2]  # deterministic lexicographic cut
        got = s.search_prefix("s", max_expansion=2)
        expect = np.unique(np.concatenate([s.postings(t)[0] for t in capped]))
        assert got.tolist() == expect.tolist()

    def test_prefix_respects_tombstones(self, ray_session, tmp_path):
        import ray.data as rd

        d = str(tmp_path / "pref_del")
        build_index(_tiny_ds(), d, num_buckets=4, n_docs=6, write_docstore=False)
        s = IndexSearcher(d)
        before = s.search_prefix("import")
        assert len(before) == 5
        s.delete_documents("import")
        assert s.search_prefix("import").tolist() == []


def _pylev(a: str, b: str) -> int:
    m, n = len(a), len(b)
    D = list(range(n + 1))
    for i in range(1, m + 1):
        prev, D[0] = D[0], i
        for j in range(1, n + 1):
            cur = min(D[j] + 1, D[j - 1] + 1, prev + (a[i - 1] != b[j - 1]))
            prev, D[j] = D[j], cur
    return D[n]


class TestNotNearFuzzyWildcard:
    def test_not_vs_bruteforce(self, small_index):
        idx, docs = small_index
        s = IndexSearcher(idx)
        an = s.analyzer
        # derive probe terms from the corpus so include-hits and
        # exclude-hits are both non-trivial
        toks0 = [t for t in an.analyze(docs[0]) if t]
        t1, t2 = toks0[0], toks0[1]
        t3 = [t for t in an.analyze(docs[1]) if t][0]
        cases = [([t1], [t3]), ([t1, t2], [t3]), ([t1], []),
                 ([t1], ["nosuch"]), (["nosuch"], [t1])]
        nontrivial = 0
        for inc, exc in cases:
            expect = []
            for d, text in docs.items():
                toks = set(an.analyze(text))
                inc_t = [an.analyze(k) for k in inc]
                exc_t = [t for k in exc for t in an.analyze(k)]
                if all(tt and all(x in toks for x in tt) for tt in inc_t) and \
                        not any(x in toks for x in exc_t):
                    expect.append(d)
            nontrivial += bool(expect)
            assert s.search_not(inc, exc).tolist() == expect, (inc, exc)
        assert nontrivial  # at least one case returns docs

    def test_near_vs_bruteforce(self, small_index):
        idx, docs = small_index
        s = IndexSearcher(idx)
        an = s.analyzer

        def brute(ph, slop):
            seq = [t for k in ph for t in an.analyze(k)]
            out = []
            for d, text in docs.items():
                toks = an.analyze(text)
                pos = [[j for j, t in enumerate(toks) if t == q] for q in seq]
                if any(not p for p in pos):
                    continue
                prev = pos[0]
                for nx in pos[1:]:
                    prev = [x for x in nx if any(q < x <= q + slop + 1 for q in prev)]
                if prev:
                    out.append(d)
            return out

        # derive probes from the corpus so the non-empty path is
        # guaranteed: adjacent pair (slop 0), one-gap pair (needs
        # slop>=1), and a reversed pair (likely empty)
        toks0 = [t for t in an.analyze(docs[0]) if t]
        probes = [
            ([toks0[0], toks0[1]], 0),
            ([toks0[0], toks0[1]], 2),
            ([toks0[0], toks0[2]], 0),
            ([toks0[0], toks0[2]], 1),
            ([toks0[2], toks0[0]], 1),
            ([toks0[4]], 0),
        ]
        hit_some = False
        for ph, slop in probes:
            exp = brute(ph, slop)
            hit_some = hit_some or bool(exp)
            assert s.search_near(ph, slop).tolist() == exp, (ph, slop)
            # slop=0 is exactly phrase search
            assert s.search_near(ph, 0).tolist() == s.search_phrase(ph).tolist(), ph
        assert hit_some  # corpus must exercise the non-empty path
        # one-gap pair: slop 1 must add doc 0 over slop 0 unless the
        # adjacent form also occurs elsewhere
        assert 0 in s.search_near([toks0[0], toks0[2]], 1).tolist()
        with pytest.raises(ValueError):
            s.search_near(["key", "agg"], -1)

    def test_fuzzy_vs_bruteforce(self, small_index):
        idx, docs = small_index
        s = IndexSearcher(idx)
        an = s.analyzer
        vocab = set()
        for text in docs.values():
            vocab.update(an.analyze(text))
        # derive probes from the vocab so the non-empty path is
        # guaranteed: an exact term, a 1-edit mutation of it, and a
        # nonsense word (empty)
        base = sorted(t for t in vocab if t.isalpha() and len(t) >= 5)[0]
        mut = base[:-1] + ("x" if base[-1] != "x" else "y")
        hit_some = False
        for kw, e in [(base, 1), (mut, 1), (mut, 2), ("zzzzqq", 2)]:
            qt = an.analyze(kw)[0]
            exp_terms = sorted(
                ((_pylev(qt, t), t) for t in vocab if _pylev(qt, t) <= e)
            )
            got = s.expand_fuzzy(kw, e, max_expansion=10**6)
            assert got == [(t, d) for d, t in exp_terms], (kw, e)
            hit_some = hit_some or len(got) > 0
            exp_docs = sorted(
                d for d, text in docs.items()
                if any(_pylev(qt, t) <= e for t in set(an.analyze(text)))
            )
            assert s.search_fuzzy(kw, e, max_expansion=10**6).tolist() == exp_docs
        assert hit_some
        with pytest.raises(ValueError):
            s.search_fuzzy("window", 3)
        with pytest.raises(ValueError):
            s.search_fuzzy("window", 0)

    def test_fuzzy_expansion_cap_is_best_first(self, small_index):
        idx, docs = small_index
        s = IndexSearcher(idx)
        an = s.analyzer
        vocab = set()
        for text in docs.values():
            vocab.update(an.analyze(text))
        probe = None
        for t in sorted(vocab):
            if len(s.expand_fuzzy(t, 2, max_expansion=10**6)) >= 3:
                probe = t
                break
        if probe is None:
            pytest.skip("corpus too small for truncation check")
        full = s.expand_fuzzy(probe, 2, max_expansion=10**6)
        capped = s.expand_fuzzy(probe, 2, max_expansion=2)
        assert capped == full[:2]  # (distance asc, term asc) prefix

    def test_wildcard_vs_bruteforce(self, small_index):
        import fnmatch

        idx, docs = small_index
        s = IndexSearcher(idx)
        an = s.analyzer
        vocab = set()
        for text in docs.values():
            vocab.update(an.analyze(text))
        base = sorted(t for t in vocab if t.isalpha() and len(t) >= 5)[0]
        derived = [base[:3] + "*", "*" + base[-2:], base[0] + "?" + base[2:], base]
        hit_some = False
        for pat in derived + ["*ar*", "a*c", "nosuch*"]:
            exp = sorted(
                d for d, text in docs.items()
                if any(fnmatch.fnmatchcase(t, pat) for t in set(an.analyze(text)))
            )
            hit_some = hit_some or bool(exp)
            assert s.search_wildcard(pat).tolist() == exp, pat
        assert hit_some
        # degenerate patterns match nothing rather than everything
        assert s.search_wildcard("*").tolist() == []
        assert s.search_wildcard("").tolist() == []
        assert s.search_wildcard("?*").tolist() == []
