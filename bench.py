#!/usr/bin/env python
"""Benchmark driver: headline pipelines over $GRAFT_SF_DIR.

Prints ONE JSON line:
  {"metric": "...", "value": <total sec>, "unit": "sec",
   "queries": {name: sec, ...}, "sf": ..., "num_cpus": N, ...}

Workloads:
  synth_index_build  flagship: build the full inverted index (docstore +
                     tokenize actor pool + salted term-bucket shuffle +
                     shard write) over a deterministic synthetic
                     source-code corpus (~SYNTH_DOCS docs)
  docs_index_build   same pipeline over the driver documents table
  query_p95          BM25 top-10 on the synth index: p50/p95 single-query
                     latency of the ranked path and of its scan
                     (`prune=False`) on the 200 `_make_queries` and on a
                     200-query rare+common mix, plus the work counters
  query_distributed  the same 200 BM25 queries through the
                     doc-partitioned scatter-gather path (4 partition
                     actors, global-df two-pass) + rank-parity check
  dedup_minhash      MinHash+LSH candidate pairs over documents
  ann_cosine         cosine top-k over embeddings
  pagerank           100-iteration PageRank over a synthetic graph

--scaling: runs `bench.py --only synth_index_build` in fresh
subprocesses at THREE parallelism levels (RAY_GRAFT_CPUS=2/8/32,
interleaved round-robin, min per level) on the same input and reports
docs/s per level plus efficiency for both pairs — the headline
`value` is the sub-knee 2→8 pair, with 8→32 and the host's own
sha256-subprocess calibration reported alongside (the BASELINE.md
criterion — no real multi-node cluster exists in this sandbox).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

# the 200-query workload shared VERBATIM by query_p95 and the
# distributed twin (the comparison only means something if both run
# the identical batch)
_QUERY_VOCAB = ["index", "token", "merge", "parse", "request", "handler",
                "stream", "batch", "cluster", "segment", "information",
                "retrieval", "kitten", "needle", "response", "buffer"]


def _make_queries(n: int = 200) -> list[list[str]]:
    import numpy as np

    rng = np.random.default_rng(7)
    return [list(rng.choice(_QUERY_VOCAB, size=rng.integers(1, 4),
                            replace=False)) for _ in range(n)]

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", os.cpu_count() or 1))
SYNTH_DOCS = int(os.environ.get("BENCH_SYNTH_DOCS", "60000"))
SYNTH_SEED = 42
DOC_SCALE = int(os.environ.get("BENCH_DOC_SCALE", "1"))
CACHE = os.environ.get("MSR_BENCH_CACHE", "/tmp/msr_bench_cache")


def _synth_corpus_path() -> str:
    """Generate (once) the deterministic synthetic source-code corpus."""
    os.makedirs(CACHE, exist_ok=True)
    suffix = f"-x{DOC_SCALE}" if DOC_SCALE != 1 else ""
    path = os.path.join(CACHE, f"corpus-{SYNTH_DOCS}-{SYNTH_SEED}{suffix}.parquet")
    if not os.path.exists(path):
        from mini_search_engine_ray.sources.corpus import synth_corpus, write_corpus_parquet

        t = synth_corpus(SYNTH_DOCS, seed=SYNTH_SEED, doc_scale=DOC_SCALE)
        write_corpus_parquet(t, path + ".tmp", rows_per_group=2048)
        os.replace(path + ".tmp", path)
    return path


def _build(corpus_path: str, index_dir: str, *, n_docs: int, salt: int) -> dict:
    import ray.data as rd

    from mini_search_engine_ray.pipelines.build import build_index
    from mini_search_engine_ray.sources.corpus import corpus_fingerprint

    return build_index(
        # prune at the read: the index pipeline only needs (doc_id,
        # content); the docstore built from this run keeps those + sha256
        rd.read_parquet(corpus_path, columns=["doc_id", "content"]),
        index_dir,
        analyzer="composable",
        num_buckets=16,
        salt=salt,
        positional=False,
        n_docs=n_docs,
        fingerprint=corpus_fingerprint([corpus_path]),
        tokenize_batch_size=4096,
        write_docstore=True,
        # cap concurrent heavy tasks at wide cpu counts: this host's
        # memory bandwidth saturates well below 32 concurrent
        # sort/encode tasks (see BASELINE.md calibration)
        task_num_cpus=2 if NUM_CPUS >= 16 else 1,
    )


def _warmup() -> None:
    """Untimed warmup: a tiny end-to-end build that forces Ray worker
    processes to spawn and import the package, so the timed runs
    measure steady-state pipeline throughput, not process startup
    (fresh `ray.init` per bench invocation would otherwise charge
    ~10-15 s of worker spawn to the first workload)."""
    import shutil

    from mini_search_engine_ray.sources.corpus import synth_corpus, write_corpus_parquet

    os.makedirs(CACHE, exist_ok=True)
    wpath = os.path.join(CACHE, "warmup-2000.parquet")
    if not os.path.exists(wpath):
        write_corpus_parquet(synth_corpus(2000, seed=1), wpath + ".tmp", rows_per_group=512)
        os.replace(wpath + ".tmp", wpath)
    wdir = os.path.join(CACHE, f"idx-warmup-{NUM_CPUS}")
    shutil.rmtree(wdir, ignore_errors=True)
    _build(wpath, wdir, n_docs=2000, salt=2)
    shutil.rmtree(wdir, ignore_errors=True)


def bench_synth_index_build(out: dict) -> str:
    import shutil

    path = _synth_corpus_path()
    _warmup()
    index_dir = os.path.join(CACHE, f"idx-synth-{SYNTH_DOCS}-{NUM_CPUS}")
    best = None
    reps = int(os.environ.get("BENCH_BUILD_REPS", "2"))  # best-of-N
    for _ in range(reps):
        shutil.rmtree(index_dir, ignore_errors=True)
        t0 = time.time()
        meta = _build(path, index_dir, n_docs=SYNTH_DOCS, salt=2)
        dt = time.time() - t0
        best = dt if best is None else min(best, dt)
    out["queries"]["synth_index_build"] = round(best, 3)
    out["synth_docs_per_s"] = round(SYNTH_DOCS / best, 1)
    out["synth_postings"] = meta["n_postings"]
    return index_dir


def bench_docs_index_build(out: dict) -> None:
    import shutil

    import pyarrow.parquet as pq

    src = os.path.join(SF_DIR, "documents.parquet")
    n = pq.read_metadata(src).num_rows
    index_dir = os.path.join(CACHE, f"idx-docs-{NUM_CPUS}")
    shutil.rmtree(index_dir, ignore_errors=True)

    import ray.data as rd

    from mini_search_engine_ray.pipelines.build import build_index
    from mini_search_engine_ray.sources.corpus import adapt_documents_table, corpus_fingerprint

    t0 = time.time()
    build_index(
        adapt_documents_table(SF_DIR),
        index_dir,
        analyzer="punctuation",
        num_buckets=16,
        positional=True,
        n_docs=n,
        fingerprint=corpus_fingerprint([src]),
        write_docstore=False,
    )
    out["queries"]["docs_index_build"] = round(time.time() - t0, 3)


def _rare_common_queries(index_dir: str, n_docs: int, n: int = 200) -> list[list[str]]:
    """n queries of one rare term plus 1-3 common terms (df >= n_docs/5),
    drawn from the shards' df column summed over salted sub-shards: the
    mix where a rare term's top-10 cutoff can let the ranked path probe
    the common terms. A rare term is in 10 to max(50, n_docs/100) docs:
    one in fewer than 10 docs sets no top-10 cutoff, and the synthetic
    corpus has no term between 10 and 50 docs at 60k."""
    import numpy as np

    from mini_search_engine_ray.stages.shards import list_shards, open_shard

    df: dict[str, int] = {}
    for sid in list_shards(index_dir):
        t = open_shard(index_dir, sid)
        for term, d in zip(t["term"].to_pylist(), t["df"].to_pylist()):
            df[term] = df.get(term, 0) + d
    rare = sorted(t for t, d in df.items() if 10 <= d <= max(50, n_docs // 100))
    common = sorted(t for t, d in df.items() if d >= n_docs / 5)
    if not rare or not common:
        return []
    rng = np.random.default_rng(7)
    return [[str(rng.choice(rare))]
            + list(rng.choice(common, size=min(len(common), int(rng.integers(1, 4))),
                              replace=False))
            for _ in range(n)]


def bench_query_p95(out: dict, index_dir: str) -> None:
    """p50/p95 single-query latency of the ranked BM25 path and of its
    scan (`prune=False`) on two mixes: the `_make_queries` batch and a
    rare+common mix from the shards' df."""
    import numpy as np

    from mini_search_engine_ray.state.searcher import IndexSearcher

    s = IndexSearcher(index_dir)
    mixes = {"": _make_queries(), "_rare_common": _rare_common_queries(index_dir, s.n_docs)}
    for qs in mixes.values():
        for q in qs:  # warm mmaps and the per-term caches
            s.search_bm25(q, 10)

    for mix, queries in mixes.items():
        if not queries:
            continue
        # the two paths alternate query by query, so a slow phase of the
        # host lands on both
        lat: dict[str, list[float]] = {"": [], "_scan": []}
        for i, q in enumerate(queries):
            for path in ("", "_scan")[:: 1 if i % 2 else -1]:
                t0 = time.perf_counter()
                s.search_bm25(q, 10, prune=not path)
                lat[path].append(time.perf_counter() - t0)
        for path, v in lat.items():
            p50, p95 = np.percentile(v, [50, 95]) * 1000
            out[f"query{mix}{path}_p50_ms"] = round(float(p50), 3)
            out[f"query{mix}{path}_p95_ms"] = round(float(p95), 3)
        out["queries"][f"query_200x{mix}"] = round(sum(lat[""]), 3)
        out[f"query{mix}_qps"] = round(len(queries) / sum(lat[""]), 1)
    out["query_counters"] = dict(s.counters)


def bench_query_distributed(out: dict) -> None:
    """Scatter-gather BM25 over the doc-partitioned index (4 partition
    actors): per-query p95 / QPS through the full two-pass path (df
    exchange + partition-local ranked scoring + gather), plus a rank-parity
    spot check against the single-index searcher."""
    import numpy as np
    import ray.data as rd

    from mini_search_engine_ray.sources.corpus import corpus_fingerprint
    from mini_search_engine_ray.state.distributed import (
        DistributedSearcher,
        build_partitioned_index,
    )
    from mini_search_engine_ray.state.searcher import IndexSearcher

    path = _synth_corpus_path()
    root = os.path.join(CACHE, f"didx-synth-{SYNTH_DOCS}-{NUM_CPUS}")
    # wipe before timing: the build is resumable, so a cached root from
    # a previous bench run would measure the resume-skip no-op instead
    # of a build (synth/docs index benches do the same rmtree)
    shutil.rmtree(root, ignore_errors=True)
    t0 = time.time()
    build_partitioned_index(
        rd.read_parquet(path, columns=["doc_id", "content"]),
        root,
        n_partitions=4,
        fingerprint=corpus_fingerprint([path]),
        analyzer="composable",
        num_buckets=8,
        tokenize_batch_size=4096,
    )
    out["queries"]["dist_index_build_p4"] = round(time.time() - t0, 3)

    vocab = _QUERY_VOCAB
    queries = _make_queries()
    s = DistributedSearcher(root)
    try:
        s.search_bm25(vocab[:2], 10)  # warm actors + mmaps
        lat = []
        t0 = time.time()
        for q in queries:
            tq = time.time()
            s.search_bm25(q, 10)
            lat.append(time.time() - tq)
        total = time.time() - t0
        out["queries"]["query_200x_distributed"] = round(total, 3)
        out["query_dist_p95_ms"] = round(float(np.percentile(lat, 95)) * 1000, 2)
        out["query_dist_qps"] = round(len(queries) / total, 1)
        out["query_dist_partitions"] = 4
        # batched serving: ONE df exchange + ONE scatter per actor for
        # the whole 200-query batch (2 RTTs total, not 2 per query) —
        # the request-queue shape a real serving tier runs at
        t0 = time.time()
        batched = s.search_bm25_many(queries, 10)
        tb = time.time() - t0
        out["queries"]["query_200x_dist_batched"] = round(tb, 3)
        out["query_dist_batch_qps"] = round(len(queries) / tb, 1)
        # parity spot check vs the single-node index built by
        # bench_synth_index_build (same corpus, same analyzer)
        single_dir = os.path.join(CACHE, f"idx-synth-{SYNTH_DOCS}-{NUM_CPUS}")
        if os.path.exists(os.path.join(single_dir, "meta.json")):
            single = IndexSearcher(single_dir)
            ok = all(
                s.search_bm25(q, 10)[0].tolist() == single.search_bm25(q, 10)[0].tolist()
                for q in queries[:20]
            )
            out["query_dist_parity_ok"] = bool(ok)
            out["query_dist_batch_parity_ok"] = bool(
                all(
                    batched[i][0].tolist() == single.search_bm25(q, 10)[0].tolist()
                    for i, q in enumerate(queries)
                )
            )
    finally:
        s.shutdown()


def bench_dedup_minhash(out: dict) -> None:
    import ray.data as rd

    from mini_search_engine_ray.stages.dedup import minhash_candidate_pairs

    ds = rd.read_parquet(os.path.join(SF_DIR, "documents.parquet"),
                         columns=["doc_id", "text"])
    t0 = time.time()
    pairs, _ = minhash_candidate_pairs(ds)
    n = pairs.count() if hasattr(pairs, "count") else len(pairs)
    out["queries"]["dedup_minhash"] = round(time.time() - t0, 3)
    out["dedup_candidate_pairs"] = int(n)


def _dedup_corpus_path(n_docs: int) -> str:
    """Synthetic dedup corpus with planted duplicate clusters (every
    50th doc heads a cluster; the next doc is its near-dup)."""
    import numpy as np
    import pyarrow as pa

    path = os.path.join(CACHE, f"dedup-corpus-{n_docs}.parquet")
    if not os.path.exists(path):
        import pyarrow.parquet as pq

        rng = np.random.default_rng(17)
        vocab = np.array([f"w{i:04d}" for i in range(4000)])
        texts = []
        base_cluster = None
        for i in range(n_docs):
            if i % 50 == 0:  # every 50th doc starts a duplicate cluster
                base_cluster = " ".join(rng.choice(vocab, size=60))
                texts.append(base_cluster)
            elif i % 50 == 1:  # near-dup of the cluster head
                texts.append(base_cluster + " extraword")
            else:
                texts.append(" ".join(rng.choice(vocab, size=60)))
        t = pa.table({"doc_id": pa.array(np.arange(n_docs, dtype=np.int64)),
                      "text": pa.array(texts, type=pa.large_string())})
        pq.write_table(t, path + ".tmp", row_group_size=4096)
        os.replace(path + ".tmp", path)
    return path


def bench_dedup_minhash_100k(out: dict) -> None:
    """MinHash+LSH candidate pairs at 100k docs — evidence that the
    (band, band_hash mod P) re-keyed pair stage runs with parallelism
    well beyond the former 16-band ceiling and bounded per-task groups.
    The corpus embeds duplicate clusters so the pair stage has real
    work."""
    import ray.data as rd

    from mini_search_engine_ray.stages.dedup import minhash_candidate_pairs

    n_docs = int(os.environ.get("BENCH_DEDUP_DOCS", "100000"))
    ds = rd.read_parquet(_dedup_corpus_path(n_docs))
    t0 = time.time()
    pairs, _ = minhash_candidate_pairs(ds)
    n = pairs.count()
    out["queries"]["dedup_minhash_100k"] = round(time.time() - t0, 3)
    out["dedup_100k_pairs"] = int(n)
    # parallelism evidence: task count of the pair-generation stage
    # (the FIRST MapBatches operator after the FIRST Sort in the
    # lineage = sort(band, band_hash) -> _pairs_in_band_block)
    try:
        import re

        stats = pairs.stats()
        seen_sort = False
        for line in stats.splitlines():
            if re.match(r"Operator \d+ Sort", line):
                seen_sort = True
                continue
            if seen_sort:
                m = re.match(r"Operator \d+ MapBatches.*?: (\d+) tasks executed", line)
                if m:
                    out["dedup_100k_pair_stage_tasks"] = int(m.group(1))
                    break
    except Exception:
        pass


def bench_dedup_verify_100k(out: dict) -> None:
    """Exact k-shingle Jaccard verification of 100k candidate pairs
    over the 100k-doc dedup corpus — the fully distributed verify path
    (pairs stay a Dataset end to end: explode -> shingle ->
    sort-merge join -> keyed reductions -> left join back; no
    driver-side pair list or doc->pairs dict anywhere)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from mini_search_engine_ray.stages.dedup import verify_pairs_jaccard

    n_docs = int(os.environ.get("BENCH_DEDUP_DOCS", "100000"))
    ds = rd.read_parquet(_dedup_corpus_path(n_docs))
    # 100k candidate pairs: the ~2k planted near-dup pairs + random
    # pairs (realistic LSH output shape: few true positives, many
    # collisions to refute)
    n_pairs = int(os.environ.get("BENCH_VERIFY_PAIRS", "100000"))
    rng = np.random.default_rng(23)
    heads = np.arange(0, n_docs - 1, 50, dtype=np.int64)
    a_rand = rng.integers(0, n_docs - 1, size=n_pairs - len(heads)).astype(np.int64)
    b_rand = a_rand + 1 + rng.integers(
        0, np.maximum(n_docs - 1 - a_rand, 1)).astype(np.int64)
    b_rand = np.minimum(b_rand, n_docs - 1)
    a_all = np.r_[heads, a_rand]
    b_all = np.r_[heads + 1, np.maximum(b_rand, a_rand + 1)]
    # verify_pairs_jaccard requires DISTINCT pairs (the LSH stage's
    # contract): dedupe the synthetic ones
    uniq = np.unique(a_all * np.int64(n_docs) + b_all)
    pairs = rd.from_arrow(pa.table({
        "a": pa.array(uniq // n_docs),
        "b": pa.array(uniq % n_docs),
    }))
    n_pairs = len(uniq)
    t0 = time.time()
    verified = verify_pairs_jaccard(ds, pairs)
    import pyarrow.compute as pc

    n_dups = 0  # streamed consumption; only per-batch counts held
    for bt in verified.iter_batches(batch_format="pyarrow"):
        if bt.num_rows and "jaccard" in bt.column_names:
            n_dups += int(pc.sum(pc.cast(
                pc.greater_equal(bt["jaccard"], 0.8), pa.int64())).as_py() or 0)
    out["queries"]["dedup_verify_100k"] = round(time.time() - t0, 3)
    out["dedup_verify_pairs"] = int(n_pairs)
    out["dedup_verify_dups"] = int(n_dups)


def bench_ann(out: dict) -> None:
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data as rd

    from mini_search_engine_ray.stages.similarity import ann_cosine_topk

    emb_path = os.path.join(SF_DIR, "embeddings.parquet")
    qt = pq.read_table(emb_path).sort_by("vec_id").slice(0, 16)
    qm = np.stack([np.asarray(v, dtype=np.float64) for v in qt["embedding"].to_pylist()])
    t0 = time.time()
    n = ann_cosine_topk(rd.read_parquet(emb_path), qm, k=10).count()
    out["queries"]["ann_cosine"] = round(time.time() - t0, 3)


def bench_ann_quantized(out: dict) -> None:
    """Float brute-force vs SQ8 asymmetric quantized cosine top-k over
    1M x 32d synthetic vectors (16 queries): the quantized row includes
    its per-dimension min/max pass — the full 4x-compression serving
    path, same tree merge as the float baseline."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from mini_search_engine_ray.stages.quantize import ann_quantized_topk
    from mini_search_engine_ray.stages.similarity import ann_cosine_topk

    n, d = 1_000_000, 32

    def gen(b: pa.Table) -> pa.Table:
        ids = b["id"].to_numpy(zero_copy_only=False)
        rng = np.random.default_rng(int(ids[0]) + 3)
        x = rng.normal(size=(len(ids), d))
        offs = np.arange(len(ids) + 1, dtype=np.int32) * d
        return pa.table({
            "vec_id": pa.array(ids.astype(np.int64)),
            "embedding": pa.ListArray.from_arrays(
                pa.array(offs, pa.int32()), pa.array(x.ravel())),
        })

    ds = rd.range(n).map_batches(gen, batch_format="pyarrow").materialize()
    rng = np.random.default_rng(9)
    qm = rng.normal(size=(16, d))
    t0 = time.time()
    ann_cosine_topk(ds, qm, k=10).count()
    out["queries"]["ann_float_1m"] = round(time.time() - t0, 3)
    t0 = time.time()
    ann_quantized_topk(ds, qm, k=10, bits=8).count()
    out["queries"]["ann_quantized_1m"] = round(time.time() - t0, 3)

    # PQ (8 subspaces x 16 centroids, deterministic seed codebook):
    # the 32-bit-per-vector rung of the same ladder — assign + ADC
    # gather + matmul per batch, same tree merge
    from mini_search_engine_ray.stages.quantize import (
        ann_pq_topk, pq_codebook_from_seeds)

    seeds_rng = np.random.default_rng(3)
    cb = pq_codebook_from_seeds(seeds_rng.normal(size=(16, d)),
                                n_subspaces=8)
    t0 = time.time()
    ann_pq_topk(ds, qm, cb, k=10).count()
    out["queries"]["ann_pq_1m"] = round(time.time() - t0, 3)


def bench_pagerank(out: dict) -> None:
    import numpy as np

    from mini_search_engine_ray.pipelines.pagerank import pagerank_numpy

    n = 200_000
    rng = np.random.default_rng(3)
    m = 2_000_000
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    t0 = time.time()
    pagerank_numpy(src, dst, n, iterations=100)
    out["queries"]["pagerank_100it"] = round(time.time() - t0, 3)


def bench_temporal(out: dict) -> None:
    """5M-event synthetic log (50k users, ~14.5-day span at 250 ms
    mean spacing): tumbling window aggregate, gap sessionization and
    as-of attribution join at a scale where per-block sweeps and the
    O(num_blocks) edge stitch dominate fixed overheads."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from mini_search_engine_ray.stages.windows import (
        asof_join_latest,
        sessionize,
        tumbling_window_agg,
    )

    n, users = 5_000_000, 50_000

    def gen(b: pa.Table) -> pa.Table:
        i = b["id"].to_numpy(zero_copy_only=False)
        rng = np.random.default_rng(int(i[0]))
        ts = (i * 250_000 + rng.integers(0, 200_000, len(i))).astype(np.int64)
        return pa.table({
            "event_id": pa.array(i),
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": pa.array(rng.integers(0, users, len(i))),
            "event_type": pa.array(rng.choice(["view", "click", "error"],
                                              size=len(i), p=[0.5, 0.3, 0.2])),
            "value": pa.array(rng.uniform(0, 100, len(i))),
        })

    ev = rd.range(n).map_batches(gen, batch_format="pyarrow").materialize()
    t0 = time.time()
    tumbling_window_agg(ev, width_s=60).materialize()
    out["queries"]["window_tumbling_5m"] = round(time.time() - t0, 3)
    t0 = time.time()
    sessionize(ev, gap_s=30).materialize()
    out["queries"]["sessionize_5m"] = round(time.time() - t0, 3)
    t0 = time.time()
    asof_join_latest(ev).materialize()
    out["queries"]["asof_join_5m"] = round(time.time() - t0, 3)


def bench_join(out: dict) -> None:
    """General equi-join machinery at scale: 5M-row fact side joined to
    a 1M-row dimension side with the sort-merge shuffle join (~1.25
    avg matches per key -> ~6.2M output rows) followed by the sorted
    grouped reduction, and the same fact side against a 10k-row
    broadcast hash join (no shuffle)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from mini_search_engine_ray.stages.aggregates import sorted_groupby_agg
    from mini_search_engine_ray.stages.join import (broadcast_join,
                                                    sort_merge_join)

    n_left, n_right, keys = 5_000_000, 1_000_000, 800_000

    def gen_left(b: pa.Table) -> pa.Table:
        i = b["id"].to_numpy(zero_copy_only=False)
        rng = np.random.default_rng(int(i[0]) + 1)
        return pa.table({"k": pa.array(rng.integers(0, keys, len(i))),
                         "v": pa.array(rng.uniform(0, 10, len(i)))})

    def gen_right(b: pa.Table) -> pa.Table:
        i = b["id"].to_numpy(zero_copy_only=False)
        rng = np.random.default_rng(int(i[0]) + 2)
        return pa.table({"k": pa.array(rng.integers(0, keys, len(i))),
                         "w": pa.array(rng.uniform(0, 1, len(i)))})

    left = rd.range(n_left).map_batches(gen_left, batch_format="pyarrow").materialize()
    right = rd.range(n_right).map_batches(gen_right, batch_format="pyarrow").materialize()
    t0 = time.time()
    j = sort_merge_join(left, right, "k", partitions=64)
    agg = sorted_groupby_agg(j, ["k"], [("v", "sum", "sv"), ("w", "count", "n")])
    n_groups = agg.count()
    out["queries"]["join_smj_5m_x_1m"] = round(time.time() - t0, 3)
    assert n_groups > 0
    small = pa.table({"k": pa.array(np.arange(10_000, dtype=np.int64)),
                      "name": pa.array([f"n{i}" for i in range(10_000)])})
    t0 = time.time()
    bj = broadcast_join(left, small, "k")
    n_rows = bj.count()
    out["queries"]["join_broadcast_5m"] = round(time.time() - t0, 3)
    assert n_rows > 0


def bench_curation(out: dict) -> None:
    """Corpus-curation operators over the synthetic 60k-doc corpus:
    two-pass exact heavy hitters (candidates + restricted recount),
    content-addressed hash split (pure map), and per-source frequency
    capping (key-only sort + rank sweep)."""
    import pyarrow as pa
    import ray.data as rd

    from mini_search_engine_ray.stages.frequent import heavy_hitters
    from mini_search_engine_ray.stages.sampling import cap_per_group, hash_split

    corpus = _synth_corpus_path()

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"], "text": t["content"],
                         "repo": t["repo"]})

    docs = rd.read_parquet(
        corpus, columns=["doc_id", "content", "repo"]
    ).map_batches(prep, batch_format="pyarrow").materialize()
    n = docs.count()
    t0 = time.time()
    hh = heavy_hitters(docs, k=100)
    n_hh = hh.count() if hasattr(hh, "count") else hh.num_rows
    out["queries"]["heavy_hitters_60k"] = round(time.time() - t0, 3)
    t0 = time.time()
    hash_split(docs).count()
    out["queries"]["hash_split_60k"] = round(time.time() - t0, 3)
    t0 = time.time()
    # 91 distinct repos x cap 300 (~660 docs/repo uncapped)
    capped = cap_per_group(docs, ["repo"], 300).count()
    out["queries"]["cap_per_repo_60k"] = round(time.time() - t0, 3)
    assert 0 < capped <= 91 * 300 and n_hh < 100 and n > 0


def bench_connected_components(out: dict) -> None:
    """Transitive dedup clustering machinery on a ~525k-edge graph of
    50k 5-cliques (250k nodes) bridged pairwise: exercises the
    per-iteration sort+groupby rounds + pointer jumping."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from mini_search_engine_ray.stages.dedup import connected_components

    cliques = 50_000
    base = np.arange(cliques, dtype=np.int64) * 5
    # 5-clique edges (10 per clique) + bridges merging cliques PAIRWISE
    # (LSH near-dup components are small quasi-cliques, not long chains)
    from itertools import combinations

    offs = np.array(list(combinations(range(5), 2)), dtype=np.int64)
    a = (base[:, None] + offs[None, :, 0]).ravel()
    b = (base[:, None] + offs[None, :, 1]).ravel()
    bridge_a = base[0::2] + 4
    bridge_b = base[1::2]
    t = pa.table({"a": pa.array(np.r_[a, bridge_a]), "b": pa.array(np.r_[b, bridge_b])})
    t0 = time.time()
    res = connected_components(rd.from_arrow(t))
    n_nodes = res.count()
    out["queries"]["connected_components_500k"] = round(time.time() - t0, 3)
    assert n_nodes == cliques * 5


def bench_join_skew(out: dict) -> None:
    """Hot-key join, plain vs salted: left 4M rows with 25% on ONE key,
    right 200k rows with 24 on that key — the plain sort-merge join
    materializes the hot key's 1M x 24 = 24M-row cross product inside
    ONE sorted block (single straggler task); skew_join spreads it over
    16 salt buckets.  Both joins must emit the same row count.
    Inputs generated in parallel and MATERIALIZED before timing."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from mini_search_engine_ray.stages.join import skew_join, sort_merge_join

    scale = int(os.environ.get("BENCH_JOIN_SKEW_SCALE", "1"))
    salt = int(os.environ.get("BENCH_JOIN_SKEW_SALT", "16"))
    nl, nr, hot = 4_000_000 * scale, 200_000 * scale, 0

    def gen_left(b: pa.Table) -> pa.Table:
        ids = b["id"].to_numpy(zero_copy_only=False)
        rng = np.random.default_rng(int(ids[0]) + 11)
        k = rng.integers(1, 1_000_000, len(ids))
        k[rng.random(len(ids)) < 0.25] = hot
        return pa.table({"k": pa.array(k.astype(np.int64)),
                         "lv": pa.array(ids.astype(np.int64))})

    def gen_right(b: pa.Table) -> pa.Table:
        ids = b["id"].to_numpy(zero_copy_only=False)
        rng = np.random.default_rng(int(ids[0]) + 13)
        k = rng.integers(1, 1_000_000, len(ids))
        k[ids % (nr // 24) == 0] = hot
        return pa.table({"k": pa.array(k.astype(np.int64)),
                         "rv": pa.array(ids.astype(np.int64))})

    left = rd.range(nl).map_batches(gen_left, batch_format="pyarrow").materialize()
    right = rd.range(nr).map_batches(gen_right, batch_format="pyarrow").materialize()
    if scale == 1:
        # the single-straggler anti-pattern demonstration (and the row
        # identity check against the salted plan) only runs at 1x: at
        # 10x the hot key's cross product inside ONE sorted block is
        # the very failure mode skew_join exists to avoid
        t0 = time.time()
        n_plain = sort_merge_join(left, right, "k", partitions=32).count()
        out["queries"]["join_skew_plain_4m"] = round(time.time() - t0, 3)
    t0 = time.time()
    n_salted = skew_join(left, right, "k", hot_keys=[hot], salt=salt,
                         partitions=32).count()
    t_salted = time.time() - t0
    if scale == 1:
        assert n_plain == n_salted, (n_plain, n_salted)
        out["queries"]["join_skew_salted_4m"] = round(t_salted, 3)
    else:
        out["queries"][f"join_skew_salted_{4 * scale}m"] = round(t_salted, 3)
    out["join_skew_rows"] = int(n_salted)


def bench_kmeans(out: dict) -> None:
    """Distributed Lloyd's k-means: 1M x 32 float32 synthetic vectors
    (generated in parallel, MATERIALIZED before the clock starts so
    only assign-matmul + centroid-partial + small-sort work is timed),
    k=16, 3 iterations + the final assignment pass."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from mini_search_engine_ray.stages.similarity import kmeans

    n, d = 1_000_000, 32

    def gen(b: pa.Table) -> pa.Table:
        ids = b["id"].to_numpy(zero_copy_only=False)
        rng = np.random.default_rng(int(ids[0]) + 7)
        m = rng.normal(size=(len(ids), d)).astype(np.float32)
        return pa.table({
            "vec_id": pa.array(ids.astype(np.int64)),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(m.ravel()), d),
        })

    ds = rd.range(n).map_batches(gen, batch_format="pyarrow").materialize()
    t0 = time.time()
    _, assign = kmeans(ds, 16, iters=3)
    n_assigned = assign.count()
    dt = time.time() - t0
    assert n_assigned == n
    out["queries"]["kmeans_1m32d_3it"] = round(dt, 3)


def bench_scrub(out: dict) -> None:
    """Regex redaction throughput: the 3-rule PII sweep + hit count
    over 1M synthetic ~70-char strings (generation untimed)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from mini_search_engine_ray.stages.scrub import scrub_text

    n = 1_000_000

    def gen(b: pa.Table) -> pa.Table:
        ids = b["id"].to_numpy(zero_copy_only=False)
        txt = [f"user{i} mail u{i}@ex-corp.io visit https://x.io/p/{i} "
               f"acct {i * 7919 + 10_000_000}" for i in ids]
        return pa.table({"doc_id": pa.array(ids.astype(np.int64)),
                         "text": pa.array(txt)})

    ds = rd.range(n).map_batches(gen, batch_format="pyarrow").materialize()
    t0 = time.time()
    hits = scrub_text(ds, count_col="n_hits").sum("n_hits")
    dt = time.time() - t0
    assert hits == 3 * n  # one email, one url, one long digit run each
    out["queries"]["scrub_pii_1m"] = round(dt, 3)


def _wordy_corpus(n_docs: int, tokens_per_doc: int = 30,
                  vocab: int = 500, letters: bool = False):
    """n_docs synthetic docs of `tokens_per_doc` words from a small
    vocab (dense n-gram collisions), built vectorized per batch.
    ``letters=True`` spells each word with a-z only (base-26 digits)
    for workloads that split on letter runs (BPE training) — the
    default "wNNN" words are single-letter runs there."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    if letters:
        def spell(i: int) -> str:
            a, b, c = i // 676, (i // 26) % 26, i % 26
            return "".join(chr(ord("a") + d) for d in (a, b, c))

        words = pa.array([spell(i) for i in range(vocab)])
    else:
        words = pa.array([f"w{i:03d}" for i in range(vocab)])

    def gen(b: pa.Table) -> pa.Table:
        ids = b["id"].to_numpy(zero_copy_only=False)
        rng = np.random.default_rng(int(ids[0]) + 1)
        flat = rng.integers(0, vocab, len(ids) * tokens_per_doc)
        toks = words.take(pa.array(flat))
        offs = np.arange(len(ids) + 1, dtype=np.int64) * tokens_per_doc
        lists = pa.LargeListArray.from_arrays(offs, toks)
        return pa.table({"doc_id": pa.array(ids.astype(np.int64)),
                         "text": pc.binary_join(lists, " ")})

    return rd.range(n_docs).map_batches(gen, batch_format="pyarrow") \
        .materialize()


def bench_chunk_decontam(out: dict) -> None:
    """Text-expansion + decontamination throughput over 1M 30-token
    docs (30M tokens; generation untimed): (a) token-window chunking
    window=32 stride=24, (b) trigram decontamination against a
    2k-doc benchmark set (distinct-trigram collect + broadcast is in
    the timed window — it is part of the operator)."""
    import ray.data as rd

    from mini_search_engine_ray.stages.chunking import chunk_documents
    from mini_search_engine_ray.stages.decontam import decontaminate, ngram_set

    n = 1_000_000
    ds = _wordy_corpus(n)

    t0 = time.time()
    n_chunks = chunk_documents(ds, window=32, stride=24).count()
    out["queries"]["chunk_1m_30tok"] = round(time.time() - t0, 3)
    assert n_chunks == 2 * n  # ceil(30/24) = 2 chunks per doc

    def pick_bench(t):
        import pyarrow as pa

        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % 500 == 0))

    t0 = time.time()
    bench = ds.map_batches(pick_bench, batch_format="pyarrow")
    grams = ngram_set(bench, n=3)
    survivors = decontaminate(ds, grams, n=3).count()
    out["queries"]["decontam_1m_trigram"] = round(time.time() - t0, 3)
    # dense vocab -> essentially everything collides; just sanity it ran
    assert 0 <= survivors <= n


def bench_dup_passages(out: dict) -> None:
    """Cross-doc duplicate-passage stats over 200k 30-token docs
    (5.6M trigram occurrences, each md5-hashed; one uint64 hash sort
    + one doc-keyed grouped sum; generation untimed).  With a 500-word
    vocab ~4%% of trigrams collide across docs, so some but not all
    occurrences are duplicated — both bounds asserted."""
    from mini_search_engine_ray.stages.dedup import dup_passage_stats

    n = 200_000
    ds = _wordy_corpus(n)
    t0 = time.time()
    stats = dup_passage_stats(ds, n=3).materialize()
    total_dup = stats.sum("n_dup")
    total = stats.sum("n_grams")
    out["queries"]["dup_passages_200k"] = round(time.time() - t0, 3)
    assert total == n * 28 and 0 < total_dup < total


def bench_setsim(out: dict) -> None:
    """Exact prefix-filtered set-similarity self-join at 50k docs
    (the All-Pairs/PPJoin plan): trigram-set Jaccard >= 1/2 over the
    planted-cluster dedup corpus — the 1,000 planted near-dup pairs
    (head + head+" extraword", J ~ 0.95) must ALL surface and nothing
    else (4000-word vocab keeps random trigram collisions out of the
    candidate set).  Exchange inventory under test: vocabulary-sized
    df count, data-sized df join + doc sort, prefix-sized candidate
    sort, pair verify join."""
    import ray.data as rd

    from mini_search_engine_ray.stages.setsim import prefix_jaccard_join

    n_docs = int(os.environ.get("BENCH_SETSIM_DOCS", "50000"))
    ds = rd.read_parquet(_dedup_corpus_path(n_docs))
    t0 = time.time()
    pairs = prefix_jaccard_join(ds, threshold=(1, 2), shingle_k=3,
                                join_partitions=32).materialize()
    n = pairs.count()
    out["queries"]["setsim_join_50k"] = round(time.time() - t0, 3)
    assert n == n_docs // 50, n
    jmin = min(r["jaccard"] for r in pairs.take_all())
    assert jmin > 0.9, jmin


def bench_dedup_rewrite(out: dict) -> None:
    """Duplicate-passage REMOVAL over the same 200k 30-token corpus as
    dup_passages_200k: hash sort -> removal starts -> pack -> one
    doc-keyed sort-merge join -> vectorized rewrite.  keep_first
    policy; asserts every doc returns, token totals reconcile, and
    some-but-not-all tokens were removed."""
    from mini_search_engine_ray.stages.dedup import remove_dup_passages

    n = 200_000
    ds = _wordy_corpus(n)
    t0 = time.time()
    clean = remove_dup_passages(ds, n=3, policy="keep_first").materialize()
    rows = clean.count()
    removed = clean.sum("n_removed")
    total = clean.sum("n_tokens")
    out["queries"]["dedup_rewrite_200k"] = round(time.time() - t0, 3)
    assert rows == n and total == n * 30 and 0 < removed < total


def bench_bpe_train(out: dict) -> None:
    """BPE-merge training over 200k 30-token docs (6M word
    occurrences, "wNNN" vocab of 500): one corpus-sized word-count
    shuffle, then 8 vocabulary-sized rounds of pair-count -> top-1 ->
    greedy merge.  Sanity: the dense vocab guarantees 8 merges exist
    and every count is positive and non-increasing is NOT required
    (BPE counts can rise after a merge), so assert monotone steps and
    positive counts only."""
    from mini_search_engine_ray.stages.bpe import bpe_train

    n = 200_000
    ds = _wordy_corpus(n, letters=True)
    t0 = time.time()
    merges = bpe_train(ds, num_merges=8)
    out["queries"]["bpe_train_8_200k"] = round(time.time() - t0, 3)
    assert merges["step"].to_pylist() == list(range(1, 9))
    assert all(c > 0 for c in merges["cnt"].to_pylist())


def bench_fuzzy_names(out: dict) -> None:
    """SymSpell edit-distance-1 similarity join over 1M 9-char codes
    (~10M exploded variant rows through one range sort): planted
    near-miss pairs; the variant explode is max_len+1 vectorized
    passes, candidates output-shaped."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from mini_search_engine_ray.stages.fuzzy import fuzzy_pairs_edit1

    n = 1_000_000

    def gen(b: pa.Table) -> pa.Table:
        ids = b["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # hash-spread base-26 letter codes (dense digit codes would
        # make every id ~54 genuine neighbors — a degenerate corpus);
        # every 1000th id twins its predecessor with the last letter
        # bumped -> ~1000 planted distance-1 pairs per million
        twin = ids % 1000 == 1
        src = np.where(twin, ids - 1, ids)
        v = (src * np.int64(2654435761)) % np.int64(26) ** 9
        mat = np.empty((len(ids), 9), dtype=np.uint8)
        for d in range(9):
            mat[:, 8 - d] = (v % 26).astype(np.uint8) + 97
            v //= 26
        mat[twin, 8] = ((mat[twin, 8] - 97 + 1) % 26) + 97
        nm = np.frombuffer(mat.tobytes(), dtype="S9").astype("U9")
        return pa.table({"nid": pa.array(ids),
                         "name": pa.array(nm.tolist(), pa.string())})

    ds = rd.range(n).map_batches(gen, batch_format="pyarrow").materialize()
    t0 = time.time()
    pairs = fuzzy_pairs_edit1(ds, name_col="name", id_col="nid").count()
    out["queries"]["fuzzy_names_1m"] = round(time.time() - t0, 3)
    out["fuzzy_pairs_found"] = int(pairs)
    assert pairs > 0


def bench_novelty(out: dict) -> None:
    """Cross-split n-gram novelty over the same 200k 30-token corpus
    as dup_passages_200k: membership of holdout trigrams against the
    TRAIN HALF of the corpus — the reference side is corpus-sized, so
    the check rides ONE uint64 hash sort (no broadcast).  Asserts the
    holdout row count and that the dense vocab makes most (but not
    necessarily all) holdout grams "seen"."""
    from mini_search_engine_ray.stages.dedup import cross_split_seen_stats

    n = 200_000
    ds = _wordy_corpus(n)
    t0 = time.time()
    stats = cross_split_seen_stats(ds, n=3).materialize()
    rows = stats.count()
    seen = stats.sum("n_seen")
    total = stats.sum("n_grams")
    out["queries"]["novelty_200k"] = round(time.time() - t0, 3)
    assert rows == n // 2 and total == rows * 28 and 0 < seen <= total


def bench_bootstrap(out: dict) -> None:
    """One-pass Poisson bootstrap (B=200) of a mean over 10M rows —
    2×10⁹ derived (row, b) weights, all integer mix + searchsorted,
    201-bounded partials.  Asserts the CI brackets the exact mean and
    is tight (n=10M ⇒ half-width ≪ 1%% of the mean)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from mini_search_engine_ray.pipelines.driver_queries import (
        _POIS1_T, _BOOT_MIX, BOOT_B)

    n = 10_000_000

    def gen(b: pa.Table) -> pa.Table:
        ids = b["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        rng = np.random.default_rng(int(ids[0]) + 1)
        return pa.table({"event_id": pa.array(ids),
                         "cents": pa.array(rng.integers(
                             0, 10_000, len(ids)).astype(np.int64))})

    ds = rd.range(n).map_batches(gen, batch_format="pyarrow")         .materialize()
    barr = np.arange(BOOT_B, dtype=np.uint64)[None, :] + np.uint64(1)

    def partial(t: pa.Table) -> pa.Table:
        ids = t["event_id"].to_numpy(zero_copy_only=False)             .astype(np.uint64)
        cents = t["cents"].to_numpy(zero_copy_only=False)
        u = (ids[:, None] * np.uint64(BOOT_B) + barr) * _BOOT_MIX
        w = np.searchsorted(_POIS1_T, u, side="right").astype(np.int64)
        return pa.table({
            "b": pa.array(np.r_[np.arange(BOOT_B, dtype=np.int64),
                                BOOT_B]),
            "n": pa.array(np.r_[w.sum(axis=0), t.num_rows]),
            "s": pa.array(np.r_[cents @ w, int(cents.sum())]),
        })

    t0 = time.time()
    acc_n = np.zeros(BOOT_B + 1, dtype=np.int64)
    acc_s = np.zeros(BOOT_B + 1, dtype=np.int64)
    for r in ds.map_batches(partial, batch_size=8192,
                            batch_format="pyarrow").take_all():
        acc_n[r["b"]] += r["n"]
        acc_s[r["b"]] += r["s"]
    means = np.sort(acc_s[:BOOT_B] / acc_n[:BOOT_B])
    mean = acc_s[BOOT_B] / acc_n[BOOT_B]
    out["queries"]["bootstrap_10m_b200"] = round(time.time() - t0, 3)
    assert means[4] < mean < means[195 - 1]
    assert (means[194] - means[4]) < 0.01 * mean


def bench_doc_sim(out: dict) -> None:
    """Sparse TF-IDF cosine all-pairs similarity over 200k 30-token
    docs (6M tokens, two tokenize passes + a vocabulary-sized df
    shuffle): ~200 planted rare terms (df ~ 10) generate the candidate
    pairs; the 500-word common vocab is excluded by the df cap, so the
    pair stage is candidate-sized, not quadratic."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from mini_search_engine_ray.stages.sparse_sim import tfidf_doc_pairs

    n, vocab, tpd = 200_000, 500, 30
    words = pa.array([f"w{i:03d}" for i in range(vocab)])
    rare = pa.array([f"rare{i:03d}" for i in range(200)])

    def gen(b: pa.Table) -> pa.Table:
        ids = b["id"].to_numpy(zero_copy_only=False)
        rng = np.random.default_rng(int(ids[0]) + 11)
        flat = rng.integers(0, vocab, len(ids) * tpd)
        toks = words.take(pa.array(flat))
        offs = np.arange(len(ids) + 1, dtype=np.int64) * tpd
        base = pc.binary_join(
            pa.LargeListArray.from_arrays(offs, toks), " ")
        # ~1% of docs get one rare term appended (df ~ 10 per term)
        hit = rng.random(len(ids)) < 0.01
        ridx = rng.integers(0, len(rare), len(ids))
        suffix = pc.if_else(
            pa.array(hit),
            pc.binary_join_element_wise(
                pa.array([" "] * len(ids)), rare.take(pa.array(ridx)), ""),
            pa.array([""] * len(ids)))
        return pa.table({
            "doc_id": pa.array(ids.astype(np.int64)),
            "text": pc.binary_join_element_wise(base, suffix, ""),
        })

    ds = rd.range(n).map_batches(gen, batch_format="pyarrow").materialize()
    t0 = time.time()
    pairs = tfidf_doc_pairs(ds, df_frac=0.01, n_docs=n)
    n_pairs = pairs.count()
    out["queries"]["doc_sim_200k"] = round(time.time() - t0, 3)
    out["doc_sim_pairs_found"] = int(n_pairs)
    assert n_pairs > 0


def bench_analytics(out: dict) -> None:
    """Round-5 wave-2 analytics operators at bench scale.

    bigram_lm_200k: conditional bigram-LM scoring over the 200k
    30-token corpus (5.8M bigram occurrences; two vocabulary-sized
    count shuffles + one vectorized scoring map).
    rollup_5m: GROUP BY ROLLUP over 5M rows x (100 x 10) keys —
    one data-sized exchange, coarser levels re-aggregate bounded
    output; grand total checked against the closed form.
    pivot_5m: crosstab of 5M rows into 10k keys x 5 value columns —
    per-batch bincount plane, key-partial shuffle; total count
    reconciles to n."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from mini_search_engine_ray.stages.aggregates import (pivot_counts,
                                                          rollup_agg)
    from mini_search_engine_ray.stages.textstats import bigram_logprob

    n_docs = 200_000
    docs = _wordy_corpus(n_docs)
    t0 = time.time()
    scored = bigram_logprob(docs, top_v=2_000).materialize()
    rows = scored.count()
    total_bigrams = scored.sum("n_bigrams")
    out["queries"]["bigram_lm_200k"] = round(time.time() - t0, 3)
    assert rows == n_docs and total_bigrams == n_docs * 29

    n = 5_000_000

    def gen(b: pa.Table) -> pa.Table:
        ids = b["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"a": pa.array(ids % 100),
                         "b": pa.array((ids // 100) % 10),
                         "v": pa.array(ids % 97)})

    ds = rd.range(n).map_batches(gen, batch_format="pyarrow").materialize()
    t0 = time.time()
    cube = rollup_agg(ds, ["a", "b"], [("v", "count", "cnt"),
                                       ("v", "sum", "s")]).materialize()
    rows = cube.count()
    out["queries"]["rollup_5m"] = round(time.time() - t0, 3)
    grand = [r for r in cube.take_all() if r["lvl"] == 3]
    assert rows == 100 * 10 + 100 + 1 and len(grand) == 1
    assert grand[0]["cnt"] == n and grand[0]["s"] == sum(
        i % 97 for i in range(97)) * (n // 97) + sum(
        i % 97 for i in range(n - n // 97 * 97))

    def gen2(b: pa.Table) -> pa.Table:
        ids = b["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        vals = np.asarray(["a", "b", "c", "d", "e"], dtype=object)
        return pa.table({"k": pa.array(ids % 10_000),
                         "v": pa.array(vals[ids % 5].tolist(),
                                       pa.string())})

    ds2 = rd.range(n).map_batches(gen2, batch_format="pyarrow").materialize()
    t0 = time.time()
    piv = pivot_counts(ds2, "k", "v", ["a", "b", "c", "d", "e"]) \
        .materialize()
    rows = piv.count()
    total = sum(piv.sum(f"n_{v}") for v in "abcde")
    out["queries"]["pivot_5m"] = round(time.time() - t0, 3)
    assert rows == 10_000 and total == n


def bench_prefix_scan(out: dict) -> None:
    """Distributed prefix scan: per-key running sum over 5M rows /
    10k keys (one range sort + O(num_blocks) carry + per-block
    cumsum), checked against the closed-form total."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from mini_search_engine_ray.stages.scan import running_sum

    n = 5_000_000

    def gen(b: pa.Table) -> pa.Table:
        ids = b["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"user": pa.array(ids % 10_000),
                         "seq": pa.array(ids),
                         "v": pa.array(ids % 97)})

    ds = rd.range(n).map_batches(gen, batch_format="pyarrow").materialize()
    t0 = time.time()
    scanned = running_sum(ds, value_col="v", order_by="seq",
                          key_col="user")
    total = scanned.sum("running_sum")
    out["queries"]["prefix_scan_5m"] = round(time.time() - t0, 3)
    # the max running_sum per user equals the user's total; the global
    # sum of running sums is fixed by the data -- spot-check magnitude
    assert total > 0


def bench_bounded_window(out: dict) -> None:
    """Bounded-frame windows over the prefix-scan table shape: per-key
    16-row rolling MAX (segmented cummax + chunked two-array trick)
    and LAG(1) (Arrow take with null indices) over 5M rows / 10k keys
    — one range sort + O(blocks*window) row carries each."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from mini_search_engine_ray.stages.scan import lag_column, rolling_agg

    n = 5_000_000

    def gen(b: pa.Table) -> pa.Table:
        ids = b["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"user": pa.array(ids % 10_000),
                         "seq": pa.array(ids),
                         "v": pa.array(ids % 97)})

    ds = rd.range(n).map_batches(gen, batch_format="pyarrow").materialize()
    t0 = time.time()
    rolled = rolling_agg(ds, order_by="seq", window=16, op="max",
                         value_col="v", key_col="user")
    mx = rolled.max("rolling_max")
    out["queries"]["rolling_max_5m_w16"] = round(time.time() - t0, 3)
    assert mx == 96
    t0 = time.time()
    lagged = lag_column(ds, value_col="v", order_by="seq", key_col="user")
    n_null = lagged.count() - lagged.map_batches(
        lambda t: pa.table({"n": [len(t["lag_v"].drop_null())]}),
        batch_format="pyarrow").sum("n")
    out["queries"]["lag_5m"] = round(time.time() - t0, 3)
    assert n_null == 10_000  # exactly one frameless first row per key


def bench_cooccur(out: dict) -> None:
    """Item-item co-occurrence over 2M interactions (100k users x 2k
    items, multiplicative-hash spread, ~20 distinct items/user ->
    ~19M exploded pair rows through one user-keyed self-join before
    the grouped support count)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from mini_search_engine_ray.stages.cooccur import cooccurrence_pairs

    m = 2_000_000

    def gen(b: pa.Table) -> pa.Table:
        i = b["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        user = (i * np.int64(2654435761)) % np.int64(100_000)
        # skewed item popularity: square the hash fraction so low item
        # ids are hot (a few blockbuster items, a long tail)
        h = ((i.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
             % np.uint64(1 << 30)).astype(np.float64) / float(1 << 30)
        item = np.minimum((h * h * 2000).astype(np.int64), 1999)
        return pa.table({"user_id": pa.array(user),
                         "item": pa.array(item)})

    ds = rd.range(m).map_batches(gen, batch_format="pyarrow") \
        .repartition(32).materialize()
    t0 = time.time()
    pairs = cooccurrence_pairs(ds, min_count=5, max_user_items=40,
                               partitions=32)
    n_pairs = pairs.count()
    out["queries"]["cooccur_2m"] = round(time.time() - t0, 3)
    assert n_pairs > 10_000


def bench_graph_triangles(out: dict) -> None:
    """Exact triangle counting, 3M edges / 1M nodes: ring i—i+1,
    skip i—i+2 (every consecutive trio closes — exactly n known
    triangles from this layer) + the irregular 7i+3 chord layer.
    Degree orientation bounds the wedge self-join; every exchange is
    a narrow int64 sort."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from mini_search_engine_ray.stages.graph import triangle_counts

    n = 1_000_000
    i = np.arange(n, dtype=np.int64)
    src = np.r_[i, i, i]
    dst = np.r_[(i + 1) % n, (i + 2) % n, (7 * i + 3) % n]
    edges = rd.from_arrow(pa.table({"src": pa.array(src),
                                    "dst": pa.array(dst)})) \
        .repartition(32).materialize()
    t0 = time.time()
    per_node = triangle_counts(edges, partitions=16)
    total3 = per_node.sum("triangles")
    out["queries"]["triangles_3m_edges"] = round(time.time() - t0, 3)
    assert total3 % 3 == 0 and total3 // 3 >= n  # ring layer alone = n

    from mini_search_engine_ray.stages.graph import bfs_hops

    t0 = time.time()
    hops = bfs_hops(edges, list(range(0, n, 100_000)), max_hops=3,
                    partitions=16)
    n_reached = hops.count()
    out["queries"]["bfs_3hops_3m_edges"] = round(time.time() - t0, 3)
    # 10 seeds, degree ~6: strictly more nodes than seeds, bounded
    # by sum of 3-hop balls
    assert 10 < n_reached <= 10 * (1 + 6 + 36 + 216)

    from mini_search_engine_ray.stages.graph import common_neighbor_pairs

    t0 = time.time()
    lp = common_neighbor_pairs(edges, min_common=3, partitions=16)
    n_cand = lp.count()
    out["queries"]["link_pred_3m_edges"] = round(time.time() - t0, 3)
    assert n_cand > 0


def bench_graph_iterative(out: dict) -> None:
    """The round-5 iterative graph family on the same 3M-edge / 1M-node
    chord graph as graph_triangles: k-core peeling (3 bounded rounds),
    fixed-point HITS (2 iterations = 4 grouped edge sums), and
    label-propagation communities (2 rounds).  Each round/iteration is
    edge-sized narrow-int64 exchanges only."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from mini_search_engine_ray.pipelines.pagerank import hits_dataset
    from mini_search_engine_ray.stages.graph import k_core, label_propagation

    n = 1_000_000
    i = np.arange(n, dtype=np.int64)
    src = np.r_[i, i, i]
    dst = np.r_[(i + 1) % n, (i + 2) % n, (7 * i + 3) % n]
    edges = rd.from_arrow(pa.table({"src": pa.array(src),
                                    "dst": pa.array(dst)})) \
        .repartition(32).materialize()

    t0 = time.time()
    core = k_core(edges, 6, rounds=3, partitions=16)
    n_alive = core.count()
    out["queries"]["kcore_3m_edges"] = round(time.time() - t0, 3)
    # near-6-regular: the 3-round peel removes a cascade layer but
    # keeps the bulk
    assert 0 < n_alive < n

    t0 = time.time()
    h = hits_dataset(edges, n, iterations=2)
    out["queries"]["hits_3m_edges"] = round(time.time() - t0, 3)
    assert h.num_rows == n and h["hub_fx"].to_numpy().max() > 0

    t0 = time.time()
    lp = label_propagation(edges, rounds=2, partitions=16)
    n_lbl = lp.count()
    out["queries"]["label_prop_3m_edges"] = round(time.time() - t0, 3)
    assert n_lbl == n



def bench_spatial(out: dict) -> None:
    """Spatial family at 1M points: fixed-grid radius self-join over a
    deterministic splitmix-hashed uniform [0, 1000)^2 cloud at
    r = 0.35 (expected ~190k pairs — the sub-critical density regime),
    then the kNN serving form (symmetrize + topk_per_group k=3).  The
    only data-sized exchange in each is ONE packed-cell int64 range
    sort."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from mini_search_engine_ray.stages.aggregates import topk_per_group
    from mini_search_engine_ray.stages.spatial import radius_join

    n = 1_000_000

    def gen(b: pa.Table) -> pa.Table:
        i = b["id"].to_numpy(zero_copy_only=False).astype(np.uint64)

        def mix(z):
            z = (z + np.uint64(0x9E3779B97F4A7C15)) \
                * np.uint64(0xBF58476D1CE4E5B9)
            z ^= z >> np.uint64(27)
            z *= np.uint64(0x94D049BB133111EB)
            return z ^ (z >> np.uint64(31))

        hx = mix(i * np.uint64(2)) >> np.uint64(11)
        hy = mix(i * np.uint64(2) + np.uint64(1)) >> np.uint64(11)
        sc = 1000.0 / float(1 << 53)
        return pa.table({
            "id": pa.array(i.astype(np.int64)),
            "x": pa.array(hx.astype(np.float64) * sc),
            "y": pa.array(hy.astype(np.float64) * sc)})

    pts = rd.range(n).repartition(32) \
        .map_batches(gen, batch_format="pyarrow").materialize()

    t0 = time.time()
    pairs = radius_join(pts, r=0.35).materialize()
    n_pairs = pairs.count()
    out["queries"]["radius_join_1m"] = round(time.time() - t0, 3)
    # density check: ~C(n,2) * pi r^2 / 1e6 ~ 192k, wide tolerance
    assert 100_000 < n_pairs < 400_000, n_pairs

    pair_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                             ("dist", pa.float64())])

    def sym(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pair_schema.empty_table()
        a = t["a"].combine_chunks() \
            if isinstance(t["a"], pa.ChunkedArray) else t["a"]
        b = t["b"].combine_chunks() \
            if isinstance(t["b"], pa.ChunkedArray) else t["b"]
        d = t["dist"].combine_chunks() \
            if isinstance(t["dist"], pa.ChunkedArray) else t["dist"]
        return pa.table({"a": pa.concat_arrays([a, b]),
                         "b": pa.concat_arrays([b, a]),
                         "dist": pa.concat_arrays([d, d])})

    t0 = time.time()
    knn = topk_per_group(
        pairs.map_batches(sym, batch_format="pyarrow"),
        ["a"], "dist", 3, descending=False, tiebreak="b",
        in_schema=pair_schema)
    n_knn = knn.count()
    out["queries"]["knn_1m"] = round(time.time() - t0, 3)
    assert 0 < n_knn <= 2 * n_pairs and n_knn >= n_pairs  # k>=1 each side



def bench_eval_metrics(out: dict) -> None:
    """Evaluation-metric family at 10M rows: exact tie-aware ROC AUC
    over a deterministic splitmix-scored binary stream with 100k
    distinct integer score levels — per-batch (score -> pos, neg)
    partials, ONE distinct-score-bounded grouped sum, streaming
    ordered driver sweep.  The planted signal (positives drawn from a
    shifted score range) pins the expected AUC band."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from mini_search_engine_ray.stages.stats import roc_auc

    n = 10_000_000

    def gen(b: pa.Table) -> pa.Table:
        i = b["id"].to_numpy(zero_copy_only=False).astype(np.uint64)

        def mix(z):
            z = (z + np.uint64(0x9E3779B97F4A7C15)) \
                * np.uint64(0xBF58476D1CE4E5B9)
            z ^= z >> np.uint64(27)
            z *= np.uint64(0x94D049BB133111EB)
            return z ^ (z >> np.uint64(31))

        h1 = mix(i * np.uint64(2))
        h2 = mix(i * np.uint64(2) + np.uint64(1))
        y = (h1 % np.uint64(5) == 0).astype(np.int64)   # 20% positive
        base = (h2 % np.uint64(100_000)).astype(np.int64)
        score = base + y * 25_000                       # planted lift
        return pa.table({"s": pa.array(score), "y": pa.array(y)})

    ds = rd.range(n).repartition(32) \
        .map_batches(gen, batch_format="pyarrow").materialize()
    t0 = time.time()
    row = roc_auc(ds, score_col="s", label_col="y").take_all()[0]
    out["queries"]["roc_auc_10m"] = round(time.time() - t0, 3)
    assert row["n_pos"] + row["n_neg"] == n
    # closed form for U+0.25 lift: P(X+.25>Y) = 0.71875
    assert 0.70 < row["auc"] < 0.74, row["auc"]


def bench_quantiles_cont(out: dict) -> None:
    """Grouped interpolated quantiles at 10M rows x 1000 groups: the
    fully distributed percentile_cont plan (keyed row_number ranks,
    exact-integer selector expansion, ONE packed-int64 sort-merge
    join, ONE bounded grouped sum).  Values are splitmix-uniform over
    [0, 100000), so each group's percentile p has the closed form
    ~ p/100 * 99999 — asserted within the 10k-samples-per-group
    sampling band as an independent large-scale correctness pin."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from mini_search_engine_ray.stages.aggregates import (
        grouped_quantiles_cont,
    )

    n = 10_000_000
    groups = 1000
    pcts = [25, 50, 75, 90]

    def gen(b: pa.Table) -> pa.Table:
        i = b["id"].to_numpy(zero_copy_only=False).astype(np.uint64)

        def mix(z):
            z = (z + np.uint64(0x9E3779B97F4A7C15)) \
                * np.uint64(0xBF58476D1CE4E5B9)
            z ^= z >> np.uint64(27)
            z *= np.uint64(0x94D049BB133111EB)
            return z ^ (z >> np.uint64(31))

        v = (mix(i) % np.uint64(100_000)).astype(np.int64)
        return pa.table({
            "k": pa.array((i % np.uint64(groups)).astype(np.int64)),
            "v": pa.array(v),
            "id": pa.array(i.astype(np.int64))})

    ds = rd.range(n).repartition(32) \
        .map_batches(gen, batch_format="pyarrow").materialize()
    t0 = time.time()
    rows = grouped_quantiles_cont(ds, "k", "v", "id", pcts).take_all()
    out["queries"]["quantiles_cont_10m"] = round(time.time() - t0, 3)
    assert len(rows) == groups * len(pcts), len(rows)
    # uniform closed form per group; 10k samples -> generous band
    for r in rows[:: max(1, len(rows) // 40)]:
        expect = r["p"] / 100.0 * 99_999
        got = r["interp_num"] / 100.0
        assert abs(got - expect) < 3_000, (r["k"], r["p"], got)


_WORKLOADS = ("synth_index_build", "docs_index_build", "query_p95",
              "query_distributed", "dedup_minhash", "dedup_minhash_100k",
              "dedup_verify_100k", "ann_cosine", "ann_quantized", "pagerank",
              "temporal", "connected_components", "join", "join_skew",
              "curation", "kmeans", "scrub", "chunk_decontam", "prefix_scan",
              "bounded_window", "dup_passages", "dedup_rewrite", "setsim", "bpe_train",
              "doc_sim", "fuzzy_names", "graph_triangles", "graph_iterative",
              "cooccur", "analytics", "spatial", "eval_metrics",
              "quantiles_cont", "novelty", "bootstrap", "tpch")


def run_all(only: str | None = None) -> dict:
    import ray

    if only is not None and only not in _WORKLOADS:
        # a typo'd --only would otherwise print a rc-0 "benchmark"
        # with zero workloads and value 0
        raise SystemExit(
            f"unknown --only workload: {only!r} (valid: {', '.join(_WORKLOADS)})")

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import logging

    class _DropEmptyBlockSchemaWarning(logging.Filter):
        """Ray's map operators FORWARD empty input blocks without
        calling the UDF (ray/data/_internal/planner/plan_udf_map_op.py:
        "TODO(hchen): ... some all-to-all operators output empty blocks
        with no schema"), so a range sort with empty boundary
        partitions always trips streaming_executor_state's mixed-schema
        warning no matter how schema-stable the UDFs are.  Cosmetic by
        Ray's own admission — drop exactly that record."""

        def filter(self, record: logging.LogRecord) -> bool:
            return "RefBundle with a different schema" not in record.getMessage()

    # logging filters do not propagate to child loggers: attach to the
    # module logger that emits the record
    logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    ).addFilter(_DropEmptyBlockSchemaWarning())
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    out: dict = {
        "metric": "msr_bench_total",
        "unit": "sec",
        "queries": {},
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "synth_docs": SYNTH_DOCS,
    }
    index_dir = None
    if only in (None, "synth_index_build", "query_p95"):
        index_dir = bench_synth_index_build(out)
    if only in (None, "docs_index_build"):
        bench_docs_index_build(out)
    if only in (None, "query_p95") and index_dir:
        bench_query_p95(out, index_dir)
    if only in (None, "query_distributed"):
        bench_query_distributed(out)
    if only in (None, "dedup_minhash"):
        bench_dedup_minhash(out)
    if only in (None, "dedup_minhash_100k"):
        bench_dedup_minhash_100k(out)
    if only in (None, "dedup_verify_100k"):
        bench_dedup_verify_100k(out)
    if only in (None, "ann_cosine"):
        bench_ann(out)
    if only in (None, "ann_quantized"):
        bench_ann_quantized(out)
    if only in (None, "pagerank"):
        bench_pagerank(out)
    if only in (None, "temporal"):
        bench_temporal(out)
    if only in (None, "connected_components"):
        bench_connected_components(out)
    if only in (None, "join"):
        bench_join(out)
    if only in (None, "join_skew"):
        bench_join_skew(out)
    if only in (None, "curation"):
        bench_curation(out)
    if only in (None, "kmeans"):
        bench_kmeans(out)
    if only in (None, "scrub"):
        bench_scrub(out)
    if only in (None, "chunk_decontam"):
        bench_chunk_decontam(out)
    if only in (None, "prefix_scan"):
        bench_prefix_scan(out)
    if only in (None, "bounded_window"):
        bench_bounded_window(out)
    if only in (None, "dup_passages"):
        bench_dup_passages(out)
    if only in (None, "dedup_rewrite"):
        bench_dedup_rewrite(out)
    if only in (None, "setsim"):
        bench_setsim(out)
    if only in (None, "bpe_train"):
        bench_bpe_train(out)
    if only in (None, "doc_sim"):
        bench_doc_sim(out)
    if only in (None, "fuzzy_names"):
        bench_fuzzy_names(out)
    if only in (None, "graph_triangles"):
        bench_graph_triangles(out)
    if only in (None, "graph_iterative"):
        bench_graph_iterative(out)
    if only in (None, "cooccur"):
        bench_cooccur(out)
    if only in (None, "spatial"):
        bench_spatial(out)
    if only in (None, "eval_metrics"):
        bench_eval_metrics(out)
    if only in (None, "quantiles_cont"):
        bench_quantiles_cont(out)
    if only in (None, "analytics"):
        bench_analytics(out)
    if only in (None, "novelty"):
        bench_novelty(out)
    if only in (None, "bootstrap"):
        bench_bootstrap(out)
    if only in (None, "tpch"):
        bench_tpch(out)
    out["value"] = round(sum(out["queries"].values()), 3)
    ray.shutdown()
    return out


def bench_tpch(out: dict) -> None:
    """The five registered TPC-H benchmarks over the sf tier's real
    tables — Q1 (pricing summary, pure scan), Q6 (band probe, pure
    scan), Q10 (returned-item top-20, join + grouped sum + top-k),
    Q15 (top supplier, max-over-aggregate), Q22 (sales opportunity,
    two-pass + anti join).  Exercises the exact-integer money path,
    the sort-merge join family, and the bounded driver folds in one
    row per query."""
    from mini_search_engine_ray.pipelines.driver_queries import QUERIES

    # the exact row counts are those of the default sf0.1 tier; a
    # smaller GRAFT_SF_DIR tier may hold fewer groups, so there every
    # query only has to return rows
    exact = os.path.basename(os.path.normpath(SF_DIR)) == "sf0.1"
    for name, nrows in (("pricing_summary", 6), ("revenue_band_q6", 1),
                        ("returned_item_revenue", 20),
                        ("top_supplier_revenue", None),
                        ("cust_sales_opportunity", None)):
        t0 = time.time()
        res = QUERIES[name](SF_DIR)
        import pyarrow as pa
        if not isinstance(res, pa.Table):
            res = res.materialize()
            got = res.count()
        else:
            got = res.num_rows
        out["queries"][f"tpch_{name}"] = round(time.time() - t0, 3)
        assert got >= 1 and (nrows is None or not exact or got == nrows), \
            (name, got, nrows)


def _host_throughput(n: int, trials: int = 3) -> float:
    """Aggregate throughput of n concurrent cache-resident sha256
    subprocesses (best of `trials`) — the upper bound any engine can
    reach on this sandbox's virtualized CPUs."""
    work = (
        "import hashlib,time;t0=time.time();b=b'x'*1048576;h=hashlib.sha256()\n"
        "for _ in range(1200): h.update(b)\n"
        "print(time.time()-t0)"
    )
    best = 0.0
    for _ in range(trials):
        ps = [
            subprocess.Popen([sys.executable, "-c", work], stdout=subprocess.PIPE)
            for _ in range(n)
        ]
        avg = sum(float(p.communicate()[0]) for p in ps) / n
        best = max(best, n / avg)
    return best


def _host_cpu_calibration(lo: int, hi: int, trials: int = 3) -> dict:
    """Host-deliverable speedup from lo to hi concurrent processes;
    reporting it alongside the engine's scaling makes the efficiency
    number interpretable (the sandbox throttles sustained load)."""
    thr_lo, thr_hi = _host_throughput(lo, trials), _host_throughput(hi, trials)
    return {
        "host_thr_lo": round(thr_lo, 2),
        "host_thr_hi": round(thr_hi, 2),
        "host_max_speedup": round(thr_hi / thr_lo, 3),
    }


def run_scaling() -> dict:
    """Two-pair scaling protocol.

    Pair A (2 vs 8 cpus) sits BELOW this sandbox's hypervisor throttle
    knee (host calibration shows near-linear delivery up to ~8
    sustained processes), so it isolates ENGINE scaling from host
    throttling — this is the headline `value`. Pair B (8 vs 32) is the
    original N-vs-4N protocol, reported alongside host calibration
    because above ~8-12 sustained cores the host itself stops scaling
    (see BASELINE.md). Interleaved best-of-2 per level, page cache
    pre-warmed, untimed per-process warmup build.
    """
    # enough work to amortize the fixed pipeline latency (~2 s
    # barrier/startup even warm), realistic ~1.5 KB source files
    # (doc_scale=8): tokenization-dominated like a real code corpus
    scaling_docs = os.environ.get("BENCH_SCALING_DOCS", "300000")
    os.environ.setdefault("BENCH_DOC_SCALE", "8")

    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), BENCH_SYNTH_DOCS=scaling_docs,
                   BENCH_DOC_SCALE=os.environ["BENCH_DOC_SCALE"])
        p = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--only", "synth_index_build"],
            env=env, capture_output=True, text=True,
        )
        if p.returncode != 0:
            sys.stderr.write(p.stderr[-4000:])
            raise RuntimeError(f"scaling subprocess (cpus={ncpu}) failed")
        return json.loads(p.stdout.strip().splitlines()[-1])

    global SYNTH_DOCS, DOC_SCALE
    old, olds = SYNTH_DOCS, DOC_SCALE
    SYNTH_DOCS, DOC_SCALE = int(scaling_docs), int(os.environ["BENCH_DOC_SCALE"])
    p = _synth_corpus_path()  # generate once, untimed
    SYNTH_DOCS, DOC_SCALE = old, olds
    with open(p, "rb") as f:  # warm the OS page cache so all runs see it
        while f.read(1 << 24):
            pass

    # ALL levels interleaved round-robin, min per level over the whole
    # campaign: this sandbox's virtualized CPUs show 30-50% run-to-run
    # variance under sustained load (BASELINE.md calibration), and a
    # throttled window hitting one level of one pair would otherwise
    # masquerade as an engine-scaling deficit. The same-level runs are
    # identical jobs, so min-of-all is the fairest comparable number.
    # The 8-cpu level is both the cheapest and (observed) the most
    # throttle-volatile — it anchors BOTH pairs — so each cycle runs it
    # twice.
    reps = int(os.environ.get("BENCH_SCALING_REPS", "3"))
    os.environ["BENCH_BUILD_REPS"] = "1"  # outer loop supplies the reps
    levels = [2, 8, 32]
    times: dict[int, list[float]] = {n: [] for n in levels}
    for _ in range(reps):
        for n in (8, 2, 8, 32):
            times[n].append(run(n)["queries"]["synth_index_build"])
    best = {n: min(v) for n, v in times.items()}

    # calibrate each level ONCE (pairs share the 8-cpu level; the old
    # per-pair calibration ran the 8-process sha256 load twice, adding
    # redundant thermal pressure right before the wide measurement)
    thr = {n: _host_throughput(n) for n in levels}

    def pair(lo: int, hi: int) -> dict:
        speedup = best[lo] / best[hi]
        cal = {
            "host_thr_lo": round(thr[lo], 2),
            "host_thr_hi": round(thr[hi], 2),
            "host_max_speedup": round(thr[hi] / thr[lo], 3),
        }
        return {
            "cpus_lo": lo, "cpus_hi": hi, "sec_lo": best[lo], "sec_hi": best[hi],
            "docs_per_s_lo": round(int(scaling_docs) / best[lo], 1),
            "docs_per_s_hi": round(int(scaling_docs) / best[hi], 1),
            "engine_speedup": round(speedup, 3),
            "efficiency": round(speedup / (hi / lo), 3),
            "efficiency_vs_host_ceiling": round(speedup / cal["host_max_speedup"], 3),
            **cal,
        }

    sub_knee = pair(2, 8)
    wide = pair(8, 32)
    return {
        "metric": "scaling_efficiency",
        # headline = the sub-knee pair, where host calibration shows the
        # hardware actually delivers ~4x and engine scaling is separable
        # from hypervisor throttling
        "value": sub_knee["efficiency"],
        "unit": "ratio",
        "sub_knee_2v8": sub_knee,
        "wide_8v32": wide,
        "all_times_sec": {str(n): [round(t, 3) for t in v] for n, v in times.items()},
        "synth_docs": int(scaling_docs),
        "queries": {
            "synth_index_build_2cpu": best[2],
            "synth_index_build_8cpu": best[8],
            "synth_index_build_32cpu": best[32],
        },
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        only = None
        if "--only" in sys.argv:
            only = sys.argv[sys.argv.index("--only") + 1]
        print(json.dumps(run_all(only)))
