#!/usr/bin/env python3
"""Layered benchmark of the search engine on a Ray cluster pinned to 2 CPUs.

    python3 perfbench/run.py --workload serve_bm25 --seed 1 --seconds 25 --trace 0

Workloads (closed loop, one caller; every input comes from --seed):

  serve_bm25    read-only BM25 top-10 serving over an index built in
                set-up: an in-process `IndexSearcher` stream (phase 1),
                then one Ray Data batch through the `SearcherBatch`
                actor pool with concurrency 2 (phase 2).
  update_mixed  `add_documents` of a fresh delta onto a copy of a base
                index, each followed by a new searcher answering a
                fixed query slice with a cold postings cache.
  build_code    cold `build_index` runs over a synthetic source-code
                corpus, composable analyzer, docstore on (as job.py).
                Not listed in BENCHMARK.json: see perfbench/README.md.

With --trace 0 the last stdout line carries the end-to-end metrics;
with --trace 1 the measured time is split into an untraced and a
traced half, and the last line carries the per-layer metrics computed
from the traced half (see perfbench/README.md for which end-to-end
metric each layer metric should move). The line before the last one
records the host, the settings, the input sizes and the sample count
of every timing.

Every run works in a fresh temp root under `.perfbench_tmp/` of the
repository (corpus, indexes, exchange directories, MSR_CACHE_DIR) and
removes it, and Ray's session directory, on exit. Answer checks run
outside the timed phase; each mismatch or exception counts in `failed`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
NUM_CPUS = 2
WORKLOADS = ("serve_bm25", "update_mixed", "build_code")
TOP_K = 10

SIZES = {
    "doc_scale": 8,             # ~4.5 KB of content per document
    "warmup_docs": 300,         # untimed warm-up build, same analyzer
    "build_docs": 3000,
    "serve_docs": 6000,
    "serve_warm_queries": 1000,  # fill the postings cache in set-up
    "serve_queries": 40000,     # timed stream; phase 1 stops at the deadline
    "batch_queries": 1000,      # phase 2: one batch through the actor pool
    "update_base_docs": 3000,
    "update_delta_docs": 300,
    "update_deltas": 8,         # distinct deltas, reused round-robin
    "fresh_queries": 20,        # answered by a new searcher after each update
    "check_queries": 60,        # pruned vs exhaustive sample
    "min_ops": 3,               # the timed loop runs at least this many ops
}


class Tally:
    """Attempted and failed operations; a failed answer check counts
    as a failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {what}", file=sys.stderr)

    def error(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"OPERATION FAILED: {what}\n{traceback.format_exc()}", file=sys.stderr)


# ---------------------------------------------------------------------
# inputs (generated before set-up timing starts)
# ---------------------------------------------------------------------


def corpus(n_docs: int, seed: int, first_id: int = 0):
    import numpy as np
    import pyarrow as pa

    from mini_search_engine_ray.sources.corpus import synth_corpus

    t = synth_corpus(n_docs, seed, doc_scale=SIZES["doc_scale"])
    if first_id:
        ids = pa.array(np.arange(first_id, first_id + n_docs, dtype=np.int64))
        t = t.set_column(0, "doc_id", ids)
    return t


def write_parquet(table, path: str) -> str:
    from mini_search_engine_ray.sources.corpus import write_corpus_parquet

    return write_corpus_parquet(table, path)


def make_queries(table, n: int, seed: int) -> list[list[str]]:
    """n queries of 1-4 keywords, each keyword drawn from the text of a
    random corpus document: head prose words and tail identifiers."""
    rng = random.Random(seed)
    texts = table["content"].to_pylist()
    word = re.compile(r"\b[A-Za-z][A-Za-z0-9_]*")
    out: list[list[str]] = []
    while len(out) < n:
        text = texts[rng.randrange(len(texts))]
        if not word.search(text):
            continue
        q = []
        for _ in range(rng.randint(1, 4)):
            # the word at or after a random offset, wrapping to the start
            m = word.search(text, rng.randrange(len(text))) or word.search(text)
            q.append(m.group())
        out.append(q)
    return out


def content_bytes(table) -> int:
    return sum(len(s.encode()) for s in table["content"].to_pylist())


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------
# answer checks (outside timing)
# ---------------------------------------------------------------------


def check_docstore(tally: Tally, index_dir: str, tables) -> None:
    """Every input row is in the docstore, with the sha256 of its content."""
    import pyarrow.dataset as pads

    got = pads.dataset(os.path.join(index_dir, "docstore"), format="parquet").to_table(
        columns=["doc_id", "sha256"]
    )
    have = dict(zip(got["doc_id"].to_pylist(), got["sha256"].to_pylist()))
    want = {
        d: sha256_hex(c)
        for t in tables
        for d, c in zip(t["doc_id"].to_pylist(), t["content"].to_pylist())
    }
    bad = sum(1 for d, h in want.items() if have.get(d) != h)
    tally.check(bad == 0 and len(have) == len(want),
                f"docstore of {index_dir}: {bad} of {len(want)} rows differ, {len(have)} stored")


def same_hits(a, b) -> bool:
    import numpy as np

    return np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def check_pruning(tally: Tally, searcher, queries) -> float:
    """Pruned top-k equals the exhaustive top-k on every sampled query;
    returns exhaustive time / pruned time over the sample (cache warm
    for both)."""
    t_pruned = t_full = 0.0
    for q in queries:
        searcher.search_bm25(q, TOP_K)
        t0 = time.perf_counter()
        pruned = searcher.search_bm25(q, TOP_K)
        t1 = time.perf_counter()
        full = searcher.search_bm25(q, TOP_K, prune=False)
        t2 = time.perf_counter()
        t_pruned += t1 - t0
        t_full += t2 - t1
        tally.check(same_hits(pruned, full), f"pruned != exhaustive top-{TOP_K} for {q}")
    return t_full / t_pruned if t_pruned else 0.0


# ---------------------------------------------------------------------
# Ray and the timed loop
# ---------------------------------------------------------------------


def start_ray(trace_dir: str | None) -> None:
    import logging

    import ray

    from perfbench.tracing import runtime_env

    env = runtime_env(REPO, trace_dir)
    env["env_vars"]["MSR_CACHE_DIR"] = os.environ["MSR_CACHE_DIR"]
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 * 1024 * 1024,
        runtime_env=env,
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def stop_ray() -> None:
    """Shut Ray down, wait until every process it started has ended and
    remove the session directory Ray wrote under its own temp dir."""
    import psutil
    import ray

    session_dir = ray._private.worker.global_worker.node.get_session_dir_path()
    children = psutil.Process().children(recursive=True)
    ray.shutdown()
    _, alive = psutil.wait_procs(children, timeout=30)
    for p in alive:
        p.kill()
    psutil.wait_procs(alive, timeout=10)
    shutil.rmtree(session_dir, ignore_errors=True)


def exec_floor_s() -> float:
    """Median time of a warm, near-empty Ray Data execution."""
    import ray.data as rd

    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        rd.range(1).take_all()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed_loop(op, seconds: float, min_ops: int, tally: Tally) -> list[tuple[float, int]]:
    """Run op(i) -> items until `seconds` have passed and at least
    `min_ops` ran; returns (latency_s, items) per successful op."""
    out = []
    t_end = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < t_end:
        try:
            out.append(op(i))
            tally.attempted += 1
        except Exception:
            tally.error(f"op {i}")
        i += 1
    return out


# ---------------------------------------------------------------------
# workloads: inputs() runs before set-up timing, then setup(), the timed
# op(i) -> (latency_s, items), and checks(); index_dir and tables name
# the index the end-to-end size metric reads and the input it holds
# ---------------------------------------------------------------------


class Workload:
    def __init__(self, root: str, seed: int, tally: Tally) -> None:
        self.root = root
        self.seed = seed
        self.tally = tally
        self.extra: dict = {}

    def path(self, *parts: str) -> str:
        return os.path.join(self.root, *parts)


class BuildCode(Workload):
    def inputs(self) -> None:
        n = SIZES["build_docs"]
        self.table = corpus(n, self.seed)
        self.src = write_parquet(self.table, self.path("corpus.parquet"))
        self.queries = make_queries(self.table, SIZES["check_queries"], self.seed + 1)
        self.sizes = {"docs": n, "content_bytes": content_bytes(self.table)}
        self.metas: list[dict] = []
        self.tables = [self.table]
        self.index_dir: str | None = None

    def setup(self) -> None:
        # one untimed full-size build: the first builds of a fresh
        # cluster run slower while worker processes import and fill
        # their tokenizer caches
        self.op(-1)

    def op(self, i: int):
        from mini_search_engine_ray.pipelines.build import build_index
        from mini_search_engine_ray.sources.corpus import (
            corpus_fingerprint,
            corpus_num_rows,
            read_corpus_with_doc_ids,
        )

        index_dir = self.path(f"index-{len(self.metas)}")
        t0 = time.perf_counter()
        meta = build_index(
            read_corpus_with_doc_ids([self.src]),
            index_dir,
            fingerprint=corpus_fingerprint([self.src]),
            n_docs=corpus_num_rows([self.src]),
        )
        lat = time.perf_counter() - t0
        self.metas.append(meta)
        if self.index_dir:
            shutil.rmtree(self.index_dir)
        self.index_dir = index_dir
        return lat, meta["n_docs"]

    def checks(self) -> None:
        from mini_search_engine_ray.state.searcher import IndexSearcher

        n = SIZES["build_docs"]
        postings = {m["n_postings"] for m in self.metas}
        self.tally.check(all(m["n_docs"] == n and m["shards_written"] == m["n_shards"]
                             for m in self.metas) and len(postings) == 1,
                         f"build metas disagree: {postings}")
        check_docstore(self.tally, self.index_dir, self.tables)
        self.extra["prune_speedup"] = check_pruning(
            self.tally, IndexSearcher(self.index_dir), self.queries)


class ServeBM25(Workload):
    def inputs(self) -> None:
        n = SIZES["serve_docs"]
        self.table = corpus(n, self.seed)
        self.src = write_parquet(self.table, self.path("corpus.parquet"))
        nq, nw = SIZES["serve_queries"], SIZES["serve_warm_queries"]
        qs = make_queries(self.table, nq + nw, self.seed + 1)
        self.warm, self.queries = qs[:nw], qs[nw:]
        self.sizes = {"docs": n, "content_bytes": content_bytes(self.table),
                      "queries": nq, "warm_queries": nw, "batch_queries": SIZES["batch_queries"]}
        self.tables = [self.table]
        self.next_q = 0
        self.answers: dict[int, tuple] = {}

    def setup(self) -> None:
        from mini_search_engine_ray.pipelines.build import build_index
        from mini_search_engine_ray.sources.corpus import (
            corpus_fingerprint,
            corpus_num_rows,
            read_corpus_with_doc_ids,
        )
        from mini_search_engine_ray.state.searcher import IndexSearcher

        self.index_dir = self.path("index")
        build_index(read_corpus_with_doc_ids([self.src]), self.index_dir,
                    fingerprint=corpus_fingerprint([self.src]),
                    n_docs=corpus_num_rows([self.src]))
        self.searcher = IndexSearcher(self.index_dir)
        for q in self.warm:
            self.searcher.search_bm25(q, TOP_K)

    def op(self, i: int):
        j = self.next_q % len(self.queries)
        self.next_q += 1
        t0 = time.perf_counter()
        hits = self.searcher.search_bm25(self.queries[j], TOP_K)
        lat = time.perf_counter() - t0
        if j < SIZES["batch_queries"]:
            self.answers[j] = hits
        return lat, 1

    def batch(self) -> None:
        """Phase 2: the first batch_queries queries as one Ray Data
        batch through the SearcherBatch actor pool."""
        import pyarrow as pa
        import ray.data as rd

        from mini_search_engine_ray.state.searcher import SearcherBatch

        nb = SIZES["batch_queries"]
        rows = pa.Table.from_pylist(
            [{"query_id": j, "kind": "bm25", "terms": self.queries[j], "top_k": TOP_K}
             for j in range(nb)])
        # several blocks, so that both actors of the pool get work
        step = -(-nb // 8)
        blocks = [rows.slice(i, step) for i in range(0, nb, step)]
        t0 = time.perf_counter()
        try:
            out = (
                rd.from_arrow(blocks)
                .map_batches(SearcherBatch, fn_constructor_kwargs={"index_dir": self.index_dir},
                             batch_format="pyarrow", concurrency=2)
                .take_all()
            )
        except Exception:
            self.tally.error("searcher pool batch")
            return
        wall = time.perf_counter() - t0
        self.tally.attempted += 1
        self.extra["batch_wall_s"] = wall
        self.extra["batch_start"] = t0
        self.extra["batch_qps"] = nb / wall
        self.pool_rows = out

    def checks(self) -> None:
        import numpy as np

        check_docstore(self.tally, self.index_dir, [self.table])
        self.extra["prune_speedup"] = check_pruning(
            self.tally, self.searcher, self.queries[: SIZES["check_queries"]])
        rows = getattr(self, "pool_rows", None)
        if rows is not None:
            by_q: dict[int, list] = {}
            for r in rows:
                by_q.setdefault(int(r["query_id"]), []).append(r)
            for j in range(SIZES["batch_queries"]):
                want = self.answers.get(j) or self.searcher.search_bm25(self.queries[j], TOP_K)
                got = sorted(by_q.get(j, []), key=lambda r: r["rank"])
                ok = (np.array_equal([r["doc_id"] for r in got], want[0])
                      and np.array_equal([r["score"] for r in got], want[1]))
                self.tally.check(ok, f"SearcherBatch rows differ from in-process for query {j}")


class UpdateMixed(Workload):
    def inputs(self) -> None:
        nb, nd = SIZES["update_base_docs"], SIZES["update_delta_docs"]
        self.base = corpus(nb, self.seed)
        self.base_src = write_parquet(self.base, self.path("base.parquet"))
        self.deltas, self.delta_srcs = [], []
        for j in range(SIZES["update_deltas"]):
            d = corpus(nd, self.seed * 1000 + j + 1, first_id=nb)
            self.deltas.append(d)
            self.delta_srcs.append(write_parquet(d, self.path(f"delta-{j}.parquet")))
        self.queries = make_queries(self.base, SIZES["fresh_queries"], self.seed + 1)
        self.check_queries = make_queries(self.base, SIZES["check_queries"], self.seed + 2)
        self.sizes = {"base_docs": nb, "delta_docs": nd, "deltas": len(self.deltas),
                      "content_bytes": content_bytes(self.base),
                      "fresh_queries": len(self.queries)}
        self.index_dir: str | None = None

    def setup(self) -> None:
        from mini_search_engine_ray.pipelines.build import build_index
        from mini_search_engine_ray.sources.corpus import (
            corpus_fingerprint,
            corpus_num_rows,
            read_corpus_with_doc_ids,
        )

        self.base_dir = self.path("base")
        build_index(read_corpus_with_doc_ids([self.base_src]), self.base_dir,
                    fingerprint=corpus_fingerprint([self.base_src]),
                    n_docs=corpus_num_rows([self.base_src]))
        # one untimed update: the first merge and docstore union of a
        # process run slower than later ones
        self.op(-1)

    def op(self, i: int):
        from mini_search_engine_ray.pipelines.build import add_documents
        from mini_search_engine_ray.sources.corpus import read_corpus
        from mini_search_engine_ray.state.searcher import IndexSearcher

        j = max(i, 0) % len(self.deltas)
        if self.index_dir:
            shutil.rmtree(self.index_dir)
        self.index_dir = self.path(f"live-{i}")
        self.tables = [self.base, self.deltas[j]]
        shutil.copytree(self.base_dir, self.index_dir)
        nd = SIZES["update_delta_docs"]
        t0 = time.perf_counter()
        add_documents(self.index_dir, read_corpus(self.delta_srcs[j]), n_new_docs=nd,
                      fingerprint=f"delta-{j}", work_dir=self.path(f"work-{i}"))
        lat = time.perf_counter() - t0
        searcher = IndexSearcher(self.index_dir)
        for q in self.queries:
            searcher.search_bm25(q, TOP_K)
        return lat, nd

    def checks(self) -> None:
        import pyarrow as pa

        from mini_search_engine_ray.pipelines.build import build_index
        from mini_search_engine_ray.sources.corpus import read_corpus
        from mini_search_engine_ray.state.searcher import IndexSearcher

        delta = self.tables[1]
        check_docstore(self.tally, self.index_dir, self.tables)
        # the merged index answers as a single build over base + delta
        union = write_parquet(pa.concat_tables(self.tables), self.path("union.parquet"))
        single = self.path("single")
        build_index(read_corpus(union), single, fingerprint="union",
                    n_docs=self.base.num_rows + delta.num_rows)
        merged_s, single_s = IndexSearcher(self.index_dir), IndexSearcher(single)
        for q in self.queries + self.check_queries:
            self.tally.check(same_hits(merged_s.search_bm25(q, TOP_K), single_s.search_bm25(q, TOP_K)),
                             f"merged index differs from a single build for {q}")
        self.extra["prune_speedup"] = check_pruning(self.tally, merged_s, self.check_queries)
        self.extra["rewrite_bytes_per_delta_byte"] = dir_bytes(self.index_dir) / content_bytes(delta)


WORKLOAD_CLASSES = {"build_code": BuildCode, "serve_bm25": ServeBM25, "update_mixed": UpdateMixed}


def run_phase(w: Workload, seconds: float, tally: Tally) -> dict:
    """The timed phase: returns per-op latencies, items and the window."""
    t0 = time.perf_counter()
    if isinstance(w, ServeBM25):
        ops = timed_loop(w.op, 0.7 * seconds, SIZES["min_ops"], tally)
        w.batch()
    else:
        ops = timed_loop(w.op, seconds, SIZES["min_ops"], tally)
    return {"ops": ops, "window": (t0, time.perf_counter())}


def end_to_end(phase: dict, setup_s: float, w: Workload) -> dict:
    lat = [x[0] for x in phase["ops"]]
    items = sum(x[1] for x in phase["ops"])
    in_bytes = sum(content_bytes(t) for t in w.tables)
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "items_per_s": (items / sum(lat), "1/s"),
        "index_bytes_per_input_byte": (dir_bytes(w.index_dir) / in_bytes, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def host_record(args, w: Workload) -> dict:
    import numpy
    import pyarrow
    import ray

    return {
        "num_cpus_pinned": NUM_CPUS,
        "nproc_all": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "mem_total_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": w.sizes,
    }


def run(args, root: str) -> tuple[dict, dict, Tally]:
    from perfbench import tracing

    tally = Tally()
    w = WORKLOAD_CLASSES[args.workload](root, args.seed, tally)
    w.inputs()
    warm = corpus(SIZES["warmup_docs"], args.seed + 7)
    warm_src = write_parquet(warm, os.path.join(root, "warmup.parquet"))

    trace_dir = os.path.join(root, "trace") if args.trace else None
    if trace_dir:
        os.makedirs(trace_dir)
    t_setup = time.perf_counter()
    start_ray(trace_dir)
    try:
        from mini_search_engine_ray.pipelines.build import build_index
        from mini_search_engine_ray.sources.corpus import read_corpus_with_doc_ids

        # warm-up: Ray workers, and the per-worker tokenizer/stemmer
        # cache of the analyzer every workload uses
        t_init = time.perf_counter()
        floor_s = exec_floor_s()
        build_index(read_corpus_with_doc_ids([warm_src]), os.path.join(root, "warmup-index"),
                    n_docs=warm.num_rows, fingerprint="warmup")
        t_warm = time.perf_counter()
        w.setup()
        t_end = time.perf_counter()
        setup_s = t_end - t_setup
        setup_parts = {"ray_init_s": t_init - t_setup, "warmup_s": t_warm - t_init,
                       "workload_setup_s": t_end - t_warm}

        rec = None
        if trace_dir:
            # the measured time is split: first half untraced, second traced
            rec, uninstall = tracing.install_driver(trace_dir)
            try:
                untraced = run_phase(w, args.seconds / 2, tally)
                tracing.set_enabled(rec, True)
                phase = run_phase(w, args.seconds / 2, tally)
            finally:
                tracing.set_enabled(rec, False)
                uninstall()
        else:
            phase = run_phase(w, args.seconds, tally)
        if not phase["ops"]:
            raise RuntimeError("no timed operation succeeded")
        try:
            w.checks()
        except Exception:
            tally.error("answer checks")
        record = host_record(args, w)
        record["setup"] = setup_parts
        if rec is None:
            metrics = end_to_end(phase, setup_s, w)
            n = len(phase["ops"])
            record["samples"] = {"op_p50_ms": n, "items_per_s": n, "setup_s": 1}
        else:
            from perfbench.layers import layer_metrics

            spans = tracing.collect(rec)
            metrics = layer_metrics(spans, phase, untraced, w.extra, floor_s, rec.pid, NUM_CPUS)
            record["spans"] = trace_summary(spans, phase["window"], rec.pid)
            record["samples"] = {"traced_ops": len(phase["ops"]), "untraced_ops": len(untraced["ops"])}
    finally:
        stop_ray()
    return metrics, record, tally


def trace_summary(spans, window, driver_pid: int) -> dict:
    lo, hi = window
    out: dict = {}
    for s in spans:
        if lo <= s[1] and s[2] <= hi:
            d = out.setdefault(s[0], {"spans": 0, "pids": set()})
            d["spans"] += 1
            d["pids"].add(s[6])
    return {"driver_pid": driver_pid,
            "layers": {k: {"spans": v["spans"], "pids": sorted(v["pids"])} for k, v in out.items()}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if (os.cpu_count() or 1) < NUM_CPUS:
        print(f"refusing to run: {os.cpu_count()} cores < {NUM_CPUS} pinned", file=sys.stderr)
        return 2
    sys.path.insert(0, REPO)
    try:
        import mini_search_engine_ray  # noqa: F401
        import ray  # noqa: F401
    except ImportError as e:
        print(f"cannot import the engine from {REPO}: {e}", file=sys.stderr)
        return 2

    tmp_parent = os.path.join(REPO, ".perfbench_tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    root = tempfile.mkdtemp(prefix="run-", dir=tmp_parent)
    os.environ["MSR_CACHE_DIR"] = os.path.join(root, "cache")
    try:
        metrics, record, tally = run(args, root)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print(json.dumps(record))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
