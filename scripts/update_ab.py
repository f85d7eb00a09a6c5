"""A/B of two checkouts on the perfbench `update_mixed` op (`add_documents` of a 300-doc
delta onto a copy of the 3k-doc base, then 20 cold queries).

    python scripts/update_ab.py BASE CHANGED [--pairs 5] [--ops 16] [--seed 31]

Each side runs in a fresh process with that checkout's library and perfbench on 2 Ray
CPUs; the sides alternate which goes first, and must write the same shard bytes on every
op. Prints, per side, the median over runs of each run's median `add_documents` seconds,
`phase_a_tokenize_exchange_sec` and `merge_sec`, with the paired median ratio of each.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile

KEYS = ("add_documents_s", "phase_a_tokenize_exchange_sec", "merge_sec")


def child(checkout: str, seed: int, ops: int) -> None:
    """One side: set up `update_mixed`, run `ops` timed ops, print one JSON line."""
    sys.path.insert(0, os.path.abspath(checkout))
    from perfbench import run as pb

    with tempfile.TemporaryDirectory(prefix="update_ab_") as root:
        os.environ["MSR_CACHE_DIR"] = os.path.join(root, "cache")
        w = pb.UpdateMixed(root, seed, pb.Tally())
        w.inputs()
        pb.start_ray(None)
        try:
            from mini_search_engine_ray.pipelines import build
            from mini_search_engine_ray.stages.shards import list_shards, shard_paths

            real, metas = build.add_documents, []
            build.add_documents = lambda *a, **kw: metas.append(real(*a, **kw)) or metas[-1]
            w.setup()
            metas.clear()  # the set-up's untimed update
            lats, shards = [], []
            for i in range(ops):
                lats.append(w.op(i)[0])
                h = hashlib.sha256()
                for sid in list_shards(w.index_dir):
                    with open(shard_paths(w.index_dir, sid)[0], "rb") as f:
                        h.update(f.read())
                shards.append(h.hexdigest())
        finally:
            pb.stop_ray()
    print(json.dumps({"add_documents_s": lats, "shards": shards,
                      **{k: [m[k] for m in metas] for k in KEYS[1:]}}))


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("checkouts", nargs="+", metavar="CHECKOUT")
    for flag, default in (("--pairs", 5), ("--ops", 16), ("--seed", 31)):
        ap.add_argument(flag, type=int, default=default)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    a = ap.parse_args()
    if a.child:
        sys.exit(child(a.checkouts[0], a.seed, a.ops))
    runs = [[], []]
    for p in range(a.pairs):
        for j in (p % 2, 1 - p % 2):
            cmd = [sys.executable, os.path.abspath(__file__), a.checkouts[j], "--child",
                   "--seed", str(a.seed), "--ops", str(a.ops)]
            res = subprocess.run(cmd, check=True, capture_output=True, text=True)
            runs[j].append(json.loads(res.stdout.strip().splitlines()[-1]))
        if runs[0][-1]["shards"] != runs[1][-1]["shards"]:
            sys.exit(f"the two checkouts wrote different shard bytes in pair {p}")
    for k in KEYS:
        med = [[statistics.median(r[k]) for r in side] for side in runs]
        ratios = [b / x for x, b in zip(*med)]
        print(k, json.dumps({"base": statistics.median(med[0]),
                             "changed": statistics.median(med[1]),
                             "paired_median_ratio": statistics.median(ratios),
                             "changed_lower": f"{sum(r < 1 for r in ratios)}/{a.pairs}"}))
