"""Per-layer metrics from the spans of the traced timed phase.

Every metric is computed over the spans that start and end inside the
traced pass's window. "Per op" divides by the number of timed
operations of the workload (a build, a query, an update); "per query"
divides by the in-process searcher queries of the driver. A layer the
workload does not run in its timed phase reads 0.
"""

from __future__ import annotations

import statistics

from perfbench.tracing import self_times


def _pct(values: list[float], p: float) -> float:
    if not values:
        return 0.0
    v = sorted(values)
    return v[min(len(v) - 1, int(p * len(v)))]


def layer_metrics(spans, phase: dict, untraced: dict, extra: dict, floor_s: float,
                  driver_pid: int, num_cpus: int) -> dict:
    lo, hi = phase["window"]
    win = [s for s in spans if lo <= s[1] and s[2] <= hi]
    selft = self_times(win)

    def named(name, *, in_driver=None):
        return [s for s in win if s[0] == name
                and (in_driver is None or (s[6] == driver_pid) == in_driver)]

    def dur(ss):
        return sum(s[2] - s[1] for s in ss)

    def self_sum(ss):
        return sum(selft[(s[6], s[3])] for s in ss)

    n_ops = max(1, len(phase["ops"]))
    builds = [s[7] or {} for s in named("build.build_index")]
    phase_a = [b["phase_a_tokenize_exchange_sec"] for b in builds if "phase_a_tokenize_exchange_sec" in b]
    phase_b = [b["phase_b_shard_build_sec"] for b in builds if "phase_b_shard_build_sec" in b]
    tok = named("ingest.tokenize")
    writes = named("shards.write")
    written = [s for s in writes if (s[7] or {}).get("status") == "written"]
    queries = named("searcher.query", in_driver=True)
    n_q = max(1, len(queries))
    q_ms = [1e3 * (s[2] - s[1]) for s in queries]
    decodes = named("shards.decode", in_driver=True)
    postings = named("searcher.postings", in_driver=True)
    pool = named("pool.call", in_driver=False)
    batch_wall = extra.get("batch_wall_s", 0.0)
    lat_t = [x[0] for x in phase["ops"]]
    lat_u = [x[0] for x in untraced["ops"]]

    return {
        "build.phase_a_s": (statistics.median(phase_a) if phase_a else 0.0, "s"),
        "build.phase_b_s": (statistics.median(phase_b) if phase_b else 0.0, "s"),
        "ingest.busy_s": (dur(tok) / n_ops, "s"),
        "ingest.batches": (len(tok) / n_ops, "count"),
        "ingest.cpu_share": (dur(tok) / (num_cpus * sum(phase_a)) if phase_a else 0.0, "ratio"),
        "shards.write_busy_s": (dur(writes) / n_ops, "s"),
        "shards.written": (len(written) / n_ops, "count"),
        "shards.bytes": (sum(s[7]["bytes"] for s in written) / n_ops, "bytes"),
        "shards.decode_calls": (len(decodes) / n_q, "count"),
        "shards.decode_ms": (1e3 * dur(decodes) / n_q, "ms"),
        "analyze.query_ms": (1e3 * self_sum(named("analyze", in_driver=True)) / n_q, "ms"),
        "searcher.open_ms": (1e3 * statistics.median([s[2] - s[1] for s in named("searcher.open", in_driver=True)] or [0.0]), "ms"),
        "searcher.cache_hit_ratio": (1.0 - len(decodes) / len(postings) if postings else 0.0, "ratio"),
        "searcher.score_ms": (1e3 * self_sum(named("searcher.score", in_driver=True)) / n_q, "ms"),
        "searcher.query_p50_ms": (_pct(q_ms, 0.5), "ms"),
        "searcher.query_p99_ms": (_pct(q_ms, 0.99), "ms"),
        "searcher.prune_speedup": (extra.get("prune_speedup", 0.0), "ratio"),
        "pool.busy_ratio": (dur(pool) / (num_cpus * batch_wall) if batch_wall else 0.0, "ratio"),
        "pool.first_batch_s": (min(s[2] for s in pool) - extra["batch_start"] if pool else 0.0, "s"),
        "pool.batch_qps": (extra.get("batch_qps", 0.0), "1/s"),
        "merge.busy_s": (dur(named("merge.bucket")) / n_ops, "s"),
        "merge.rewrite_bytes_per_delta_byte": (extra.get("rewrite_bytes_per_delta_byte", 0.0), "ratio"),
        "exec.floor_s": (floor_s, "s"),
        "exec.count": (len(named("exec.execute")) / n_ops, "count"),
        "trace.overhead": (statistics.median(lat_t) / statistics.median(lat_u) - 1.0 if lat_u else 0.0, "ratio"),
        "trace.worker_spans": (sum(1 for s in win if s[6] != driver_pid), "count"),
    }
