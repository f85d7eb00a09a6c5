"""In-process A/B of two checkouts' `IndexSearcher` on the perfbench serve corpus.

    python scripts/serve_ab.py BASE CHANGED [--rounds 10] [--seed 21] [--queries 20000]
                               [--docs 6000] [--rare-common]

Builds the `serve_bm25` index over `--docs` perfbench docs with BASE's code. The
queries are the perfbench doc-drawn stream, or with `--rare-common` term triples
drawn from the index's df: one term in 10 to 200 docs plus 1-3 terms in more than
a quarter of the docs, the mix where a rare term's top-10 cutoff lets the ranked
path probe the common terms. Both searchers must give bitwise equal top-10s on
every query; then timed rounds alternate which side goes first. Prints median q/s
and p50/p95 query latency (µs) per side, the paired median ratio (CHANGED / BASE),
CHANGED's wins, each side's counters over the checked and the timed queries, and
cached term-state bytes. The counters are reported, not compared: a query that one
side scans and the other probes does different work.
"""
import argparse
import importlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np
import ray.data

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench.run import SIZES, TOP_K, corpus, make_queries  # noqa: E402


def load(checkout: str, *names: str) -> list:
    """`checkout`'s named modules, imported afresh with it first on sys.path."""
    for m in [m for m in sys.modules if m.split(".")[0] == "mini_search_engine_ray"]:
        del sys.modules[m]
    sys.path.insert(0, os.path.abspath(checkout))
    return [importlib.import_module(f"mini_search_engine_ray.{n}") for n in names]


def nbytes(x) -> int:
    """Bytes of the numpy arrays reachable from x through slots and containers."""
    if isinstance(x, (dict, list, tuple)):
        return sum(map(nbytes, x.values() if isinstance(x, dict) else x))
    if isinstance(x, np.ndarray):
        return x.nbytes
    return sum(nbytes(getattr(x, s, None)) for s in getattr(x, "__slots__", ()))


def rare_common(searcher, shards, bm25_idf, n: int, seed: int) -> list[list[tuple]]:
    """n (term, qw, idf) query lists: one term of df 10-200, then 1-3
    distinct terms of df > n_docs/4, df summed over salted sub-shards."""
    df: dict[str, int] = {}
    for sid in shards.list_shards(searcher.index_dir):
        t = shards.open_shard(searcher.index_dir, sid)
        for term, d in zip(t["term"].to_pylist(), t["df"].to_pylist()):
            df[term] = df.get(term, 0) + d
    rare = sorted(t for t, d in df.items() if 10 <= d <= 200)
    common = sorted(t for t, d in df.items() if d > searcher.n_docs / 4)
    rng = np.random.default_rng(seed)
    qs = [[str(rng.choice(rare)), *rng.choice(common, size=int(rng.integers(1, 4)), replace=False)]
          for _ in range(n)]
    return [[(t, 1, bm25_idf(df[t], searcher.n_docs)) for t in q] for q in qs]


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("checkouts", nargs=2, metavar="CHECKOUT")
    for flag, default in (("--rounds", 10), ("--seed", 21), ("--queries", 20_000),
                          ("--docs", SIZES["serve_docs"])):
        ap.add_argument(flag, type=int, default=default)
    ap.add_argument("--rare-common", action="store_true")
    a = ap.parse_args()
    os.environ["PYTHONPATH"] = os.path.abspath(a.checkouts[0])  # for the build's Ray workers
    ray.init(num_cpus=2, include_dashboard=False, logging_level="ERROR")
    table, nw = corpus(a.docs, a.seed), SIZES["serve_warm_queries"]
    index = os.path.join(tmp := tempfile.mkdtemp(prefix="serve_ab_"), "index")
    build, searcher_mod, shards = load(a.checkouts[0], "pipelines.build", "state.searcher",
                                       "stages.shards")
    build.build_index(ray.data.from_arrow(table.select(["doc_id", "content"])), index,
                      n_docs=table.num_rows, write_docstore=False, fingerprint="serve_ab")
    ray.shutdown()
    base = searcher_mod.IndexSearcher(index)
    if a.rare_common:
        qs = rare_common(base, shards, searcher_mod.bm25_idf, nw + a.queries, a.seed + 1)
    else:
        qs = make_queries(table, nw + a.queries, a.seed + 1)
    method = "search_bm25_weighted" if a.rare_common else "search_bm25"
    (changed,) = load(a.checkouts[1], "state.searcher")
    sides = [base, changed.IndexSearcher(index)]
    for i, q in enumerate(qs):  # the first nw queries warm both sides
        (ia, sa), (ib, sb) = (getattr(s, method)(q, TOP_K) for s in sides)
        assert ia.tolist() == ib.tolist() and sa.tolist() == sb.tolist(), (i, q)
    before, qps, lat, stream = [dict(s.counters) for s in sides], [[], []], [[], []], qs[nw:]
    for r in range(a.rounds):
        for j in (r % 2, 1 - r % 2):
            t0 = time.perf_counter()
            search = getattr(sides[j], method)
            for q in stream:
                t = time.perf_counter()
                search(q, TOP_K)
                lat[j].append(time.perf_counter() - t)
            qps[j].append(len(stream) / (time.perf_counter() - t0))
    ratios = [b / a_ for a_, b in zip(*qps)]
    print(json.dumps({"qps": [statistics.median(x) for x in qps],
                      "p50_p95_us": [(np.percentile(x, [50, 95]) * 1e6).round(1).tolist()
                                     for x in lat],
                      "paired_median_ratio": statistics.median(ratios),
                      "changed_wins": f"{sum(x > 1 for x in ratios)}/{a.rounds}",
                      "checked_counters": before,
                      "timed_counters": [{k: s.counters[k] - b.get(k, 0) for k in s.counters}
                                         for s, b in zip(sides, before)],
                      "term_state_bytes": [nbytes(list(s._bm25_states.values())) for s in sides]}))
    shutil.rmtree(tmp)
