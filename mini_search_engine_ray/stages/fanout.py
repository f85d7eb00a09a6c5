"""Keyed fan-out: run a per-key function over a list of keys (shard or
bucket ids) as at most one Ray task per CPU slot of the cluster.

Phase B of `build_index` and the per-bucket merge both write one shard
per key and return its one-row manifest. One task per key costs a task
launch per shard, so the keys are packed round-robin into
``min(n_keys, CPU // num_cpus)`` tasks. These are plain Ray tasks, not
a Ray Data execution, whose fixed cost would exceed a small merge's
work. `keyed_dataset` hands the same tasks' tables to Ray Data.

A key group is one task: a retried task re-runs its whole group, so the
per-key function must be idempotent (shard writes skip a committed
manifest and report ``skipped``).
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence

import pyarrow as pa


def keyed_task_count(n_keys: int, num_cpus: float = 1) -> int:
    """Tasks for `n_keys` keys: one per `num_cpus` CPUs of the running
    cluster, never more than the keys; one per key when Ray is not
    initialized (the library never starts Ray itself)."""
    import ray

    if n_keys == 0 or not ray.is_initialized():
        return n_keys
    slots = int(ray.cluster_resources().get("CPU", 0) // num_cpus)
    return max(1, min(n_keys, slots))


@functools.cache
def _group_task():
    """The remote ``fn(key)`` over one key group, concatenated; exported
    to the cluster once per process rather than once per fan-out."""
    import ray

    @ray.remote
    def run_group(fn: Callable[[int], pa.Table], keys: list[int]) -> pa.Table:
        return pa.concat_tables([fn(k) for k in keys])

    return run_group


def _start_groups(keys: Sequence[int], fn: Callable[[int], pa.Table], num_cpus: float) -> list:
    """Start one task of `num_cpus` CPUs per key group (keys dealt
    round-robin); returns the refs of their tables."""
    import ray

    n = keyed_task_count(len(keys), num_cpus)
    if n == 0:
        return []
    fn_ref = ray.put(fn)  # one copy in the object store for all groups
    task = _group_task().options(num_cpus=num_cpus)
    return [task.remote(fn_ref, keys[i::n]) for i in range(n)]


def keyed_dataset(keys: Sequence[int], fn: Callable[[int], pa.Table]):
    """Dataset of ``fn(key)`` for every key, one block per key group of
    one-CPU tasks (started now)."""
    import ray.data as rd

    return rd.from_arrow_refs(_start_groups(list(keys), fn, 1))


def run_keyed(
    keys: Sequence[int], fn: Callable[[int], pa.Table], *, num_cpus: float = 1
) -> tuple[list[dict], int]:
    """Run ``fn(key)`` (a one-row manifest table) for every key in key
    groups of `num_cpus` CPUs each; returns (manifest rows, number of
    tasks). An exception raised by `fn` is raised here, wrapped by Ray
    with its message, once every other group has stopped: the running
    ones are cancelled, so a re-run never races a writer of this one."""
    import ray

    refs = _start_groups(keys, fn, num_cpus)
    if not refs:
        return [], 0
    try:
        tables = ray.get(refs)
    except Exception:
        for ref in refs:
            ray.cancel(ref)
        ray.wait(refs, num_returns=len(refs))  # returns once each has ended
        raise
    return pa.concat_tables(tables).to_pylist(), len(refs)
