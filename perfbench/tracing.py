"""Span recorder for the benchmark's traced run.

Spans are recorded from outside the library: `install_driver()` and
`install_worker()` replace the public entry points of each layer with
a wrapper that times the call.
The driver process installs the driver-side set; every Ray worker and
actor process installs the worker-side set through the
`worker_process_setup_hook` of the job's runtime_env (see
`runtime_env()`), so tokenize tasks, shard writes, merge tasks and the
searcher actor pool record spans in their own processes.

A span is the tuple (name, start, end, span_id, parent_id, trace_id,
pid, attrs). Times come from `time.perf_counter()`, which on Linux is
CLOCK_MONOTONIC and therefore comparable between processes on one
host. Span ids are unique within a process; the trace id of a span is
the id of the root span of its call stack, so every span of one query
or one task shares it.

Spans are kept in memory. The driver analyses its own list at the end
of the run; a worker appends its buffered spans to
`<trace_dir>/spans-<pid>.jsonl` each time a root span closes, because a
pool worker has no end of run it could observe. Workers record only
while `<trace_dir>/ENABLED` exists, so the same processes can run an
untraced pass first and the overhead can be measured in one run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections.abc import Callable

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
_FLAG = "ENABLED"

# (module, attribute path, span name, result-attrs function name or None)
# Worker side: the functions Ray tasks and actors run. Names imported
# by value into a second module are patched there too, because the
# library calls them through that module's globals.
WORKER_POINTS = [
    ("mini_search_engine_ray.stages.ingest", "tokenize_explode_task", "ingest.tokenize", None),
    ("mini_search_engine_ray.stages.shards", "write_shard", "shards.write", "shard_attrs"),
    ("mini_search_engine_ray.stages.merge", "merge_bucket", "merge.bucket", None),
    ("mini_search_engine_ray.state.searcher", "SearcherBatch.__call__", "pool.call", None),
]
# Both sides: the in-process searcher in the driver, and the same
# searcher inside each SearcherBatch actor.
SEARCHER_POINTS = [
    ("mini_search_engine_ray.state.searcher", "IndexSearcher.__init__", "searcher.open", None),
    ("mini_search_engine_ray.state.searcher", "IndexSearcher.search_bm25", "searcher.query", None),
    ("mini_search_engine_ray.state.searcher", "IndexSearcher.search_bm25_weighted", "searcher.score", None),
    ("mini_search_engine_ray.state.searcher", "IndexSearcher.postings", "searcher.postings", None),
    ("mini_search_engine_ray.state.searcher", "decode_posting_row", "shards.decode", None),
    ("mini_search_engine_ray.functions.analyzers", "ComposableAnalyzer.analyze", "analyze", None),
]
DRIVER_POINTS = SEARCHER_POINTS + [
    ("mini_search_engine_ray.pipelines.build", "build_index", "build.build_index", "build_attrs"),
    ("mini_search_engine_ray.pipelines.build", "add_documents", "build.add_documents", None),
    ("mini_search_engine_ray.stages.merge", "merge_indexes", "merge.merge_indexes", None),
    ("ray.data._internal.execution.streaming_executor", "StreamingExecutor.execute", "exec.execute", None),
]


def build_attrs(meta: dict) -> dict:
    return {k: meta[k] for k in ("phase_a_tokenize_exchange_sec", "phase_b_shard_build_sec") if k in meta}


def shard_attrs(manifest) -> dict:
    row = manifest.to_pylist()[0]
    return {"bytes": int(row["bytes"]), "status": row["status"]}


class Recorder:
    """Per-process span buffer with a per-thread call stack."""

    def __init__(self, trace_dir: str, *, driver: bool) -> None:
        self.trace_dir = trace_dir
        self.driver = driver
        self.enabled = False  # read by the driver only; workers read the flag file
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.flag_path = os.path.join(trace_dir, _FLAG)

    def active(self) -> bool:
        if self.driver:
            return self.enabled
        return os.path.exists(self.flag_path)

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, name: str, fn, attrs_fn=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active():
                return fn(*args, **kwargs)
            stack = rec._stack()
            sid = next(rec._ids)
            parent, trace = (stack[-1][0], stack[-1][1]) if stack else (0, sid)
            stack.append((sid, trace))
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            attrs = attrs_fn(result) if attrs_fn is not None else None
            with rec._lock:
                rec.spans.append((name, t0, t1, sid, parent, trace, rec.pid, attrs))
            if not stack and not rec.driver:
                rec.flush()
            return result

        return traced

    def flush(self) -> None:
        with self._lock:
            spans, self.spans = self.spans, []
        if spans:
            path = os.path.join(self.trace_dir, f"spans-{self.pid}.jsonl")
            with open(path, "a") as f:
                f.write("".join(json.dumps(s) + "\n" for s in spans))


def _patch(rec: Recorder, points) -> list:
    """Replace each entry point with a traced wrapper; returns undo
    records. A plain function is also replaced in every loaded module of
    the library that imported it by name."""
    undo = []
    for mod_name, path, span_name, attrs_name in points:
        mod = importlib.import_module(mod_name)
        owner_path, _, attr = path.rpartition(".")
        owner = functools.reduce(getattr, owner_path.split("."), mod) if owner_path else mod
        orig = getattr(owner, attr)
        attrs_fn = globals()[attrs_name] if attrs_name else None
        wrapped = rec.wrap(span_name, orig, attrs_fn)
        targets = [owner]
        if not owner_path:
            targets += [
                m for n, m in list(sys.modules.items())
                if n.startswith("mini_search_engine_ray") and m is not mod
                and getattr(m, attr, None) is orig
            ]
        for t in targets:
            setattr(t, attr, wrapped)
            undo.append((t, attr, orig))
    return undo


def install_driver(trace_dir: str) -> tuple[Recorder, Callable[[], None]]:
    """Wrap the driver-side entry points; returns the recorder and an
    undo function that restores the originals."""
    import mini_search_engine_ray.stages.merge  # noqa: F401  (load every importer first)
    import mini_search_engine_ray.state.searcher  # noqa: F401

    rec = Recorder(trace_dir, driver=True)
    undo = _patch(rec, DRIVER_POINTS)

    def uninstall() -> None:
        for t, attr, orig in reversed(undo):
            setattr(t, attr, orig)

    return rec, uninstall


def install_worker() -> None:
    """worker_process_setup_hook: wrap the worker-side entry points."""
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if not trace_dir:
        return
    import mini_search_engine_ray.pipelines.build  # noqa: F401
    import mini_search_engine_ray.stages.merge  # noqa: F401
    import mini_search_engine_ray.state.searcher  # noqa: F401

    rec = Recorder(trace_dir, driver=False)
    _patch(rec, WORKER_POINTS + SEARCHER_POINTS)


def set_enabled(rec: Recorder, on: bool) -> None:
    """Switch recording on or off in the driver and in every worker."""
    rec.enabled = on
    if on:
        open(rec.flag_path, "w").close()
    elif os.path.exists(rec.flag_path):
        os.remove(rec.flag_path)


def runtime_env(repo_root: str, trace_dir: str | None) -> dict:
    """Ray runtime_env: workers import the library from `repo_root`
    whatever their working directory; with a trace dir, every worker
    process installs the worker-side wrappers at start-up."""
    env = {"env_vars": {"PYTHONPATH": repo_root}}
    if trace_dir:
        env["env_vars"][TRACE_DIR_ENV] = trace_dir
        env["worker_process_setup_hook"] = "perfbench.tracing.install_worker"
    return env


def collect(rec: Recorder) -> list[tuple]:
    """Driver spans plus every worker's flushed spans."""
    spans = list(rec.spans)
    for f in sorted(os.listdir(rec.trace_dir)):
        if f.startswith("spans-") and f.endswith(".jsonl"):
            with open(os.path.join(rec.trace_dir, f)) as fh:
                spans.extend(tuple(json.loads(line)) for line in fh if line.strip())
    return spans


def self_times(spans: list[tuple]) -> dict[tuple, float]:
    """(pid, span_id) -> duration minus the time its child spans cover.
    Children of one span run on the parent's thread, one after another,
    so their durations do not overlap and can be summed."""
    child = {}
    for s in spans:
        if s[4]:
            key = (s[6], s[4])
            child[key] = child.get(key, 0.0) + (s[2] - s[1])
    return {(s[6], s[3]): (s[2] - s[1]) - child.get((s[6], s[3]), 0.0) for s in spans}
