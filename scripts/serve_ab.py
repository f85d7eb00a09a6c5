"""In-process A/B of two checkouts' `IndexSearcher` on the perfbench serve corpus.

    python scripts/serve_ab.py BASE CHANGED [--rounds 10] [--seed 21] [--queries 20000]

Builds the `serve_bm25` index with BASE's code. Both searchers must give bitwise
equal top-10s and equal shared counters on every query; then timed rounds alternate
which side goes first. Prints median q/s per side, the paired median ratio
(CHANGED / BASE), CHANGED's wins, the rounds' counters and cached term-state bytes.
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


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("checkouts", nargs=2, metavar="CHECKOUT")
    for flag, default in (("--rounds", 10), ("--seed", 21), ("--queries", 20_000)):
        ap.add_argument(flag, type=int, default=default)
    a = ap.parse_args()
    os.environ["PYTHONPATH"] = os.path.abspath(a.checkouts[0])  # for the build's Ray workers
    ray.init(num_cpus=2, include_dashboard=False, logging_level="ERROR")
    table, nw = corpus(SIZES["serve_docs"], a.seed), SIZES["serve_warm_queries"]
    qs = make_queries(table, nw + a.queries, a.seed + 1)
    index = os.path.join(tmp := tempfile.mkdtemp(prefix="serve_ab_"), "index")
    build, base = load(a.checkouts[0], "pipelines.build", "state.searcher")
    build.build_index(ray.data.from_arrow(table.select(["doc_id", "content"])), index,
                      n_docs=table.num_rows, write_docstore=False, fingerprint="serve_ab")
    ray.shutdown()
    (changed,) = load(a.checkouts[1], "state.searcher")
    sides = [base.IndexSearcher(index), changed.IndexSearcher(index)]
    keys = set(sides[0].counters) & set(sides[1].counters)
    for i, q in enumerate(qs):  # the first nw queries warm both sides
        (ia, sa), (ib, sb) = (s.search_bm25(q, TOP_K) for s in sides)
        assert ia.tolist() == ib.tolist() and sa.tolist() == sb.tolist() and all(
            sides[0].counters[k] == sides[1].counters[k] for k in keys), (i, q)
    before, qps, stream = [dict(s.counters) for s in sides], [[], []], qs[nw:]
    for r in range(a.rounds):
        for j in (r % 2, 1 - r % 2):
            t0 = time.perf_counter()
            for q in stream:
                sides[j].search_bm25(q, TOP_K)
            qps[j].append(len(stream) / (time.perf_counter() - t0))
    ratios = [b / a_ for a_, b in zip(*qps)]
    print(json.dumps({"qps": [statistics.median(x) for x in qps],
                      "paired_median_ratio": statistics.median(ratios),
                      "changed_wins": f"{sum(x > 1 for x in ratios)}/{a.rounds}",
                      "timed_counters": [{k: s.counters[k] - b.get(k, 0) for k in s.counters}
                                         for s, b in zip(sides, before)],
                      "term_state_bytes": [nbytes(list(s._bm25_states.values())) for s in sides]}))
    shutil.rmtree(tmp)
