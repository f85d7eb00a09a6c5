"""Keyed fan-out: run a per-key function over a list of keys (shard or
bucket ids) as at most one Ray task per CPU slot of the cluster.

Phase B of `build_index` and the per-bucket merge both write one shard
per key and return its one-row manifest. One task per key costs a task
launch per shard, and Ray Data 2.49 runs such tasks one at a time until
it has sampled an output: it budgets each pending task at
`target_max_block_size` (128 MiB) times the streaming-generator buffer
and charges that against the operator's object-store share, so a small
store fits one task. Here the keys are packed round-robin into
``min(n_keys, CPU // num_cpus)`` tasks, and the dataset's OWN context
(never the global `DataContext`) states the true output size, so the
tasks run side by side.

A key group is one task: a retried task re-runs its whole group, so the
per-key function must be idempotent (shard writes skip a committed
manifest and report ``skipped``).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import pyarrow as pa

# block-size hint for tasks that return only manifest rows
MANIFEST_BLOCK_BYTES = 1 << 20


def keyed_task_count(n_keys: int, num_cpus: float = 1) -> int:
    """Tasks for `n_keys` keys: one per `num_cpus` CPUs of the running
    cluster, never more than the keys; one per key when Ray is not
    initialized (the library never starts Ray itself)."""
    import ray

    if n_keys == 0 or not ray.is_initialized():
        return n_keys
    slots = int(ray.cluster_resources().get("CPU", 0) // num_cpus)
    return max(1, min(n_keys, slots))


def keyed_dataset(
    keys: Sequence[int],
    fn: Callable[[int], pa.Table],
    *,
    num_cpus: float = 1,
    num_tasks: int | None = None,
    block_bytes: int | None = None,
):
    """Lazy Dataset of ``fn(key)`` for every key, concatenated per task.
    Keys are dealt round-robin to `num_tasks` tasks (default
    `keyed_task_count`). `block_bytes`, when given, is set as this
    dataset's own `target_max_block_size`: the size of what the tasks
    return, so Ray Data does not budget them at the 128 MiB default."""
    import ray.data as rd

    keys = list(keys)
    n = keyed_task_count(len(keys), num_cpus) if num_tasks is None else num_tasks
    ds = rd.from_items(
        [{"keys": keys[i::n]} for i in range(n)], override_num_blocks=max(1, n)
    )
    if block_bytes is not None:
        ds.context.target_max_block_size = block_bytes

    def run_group(batch: pa.Table) -> pa.Table:
        return pa.concat_tables([fn(k) for ks in batch["keys"].to_pylist() for k in ks])

    return ds.map_batches(run_group, batch_size=1, batch_format="pyarrow", num_cpus=num_cpus)


def run_keyed(
    keys: Sequence[int], fn: Callable[[int], pa.Table], *, num_cpus: float = 1
) -> tuple[list[dict], int]:
    """Run ``fn(key)`` (a one-row manifest table) for every key; returns
    (manifest rows, number of tasks)."""
    n = keyed_task_count(len(keys), num_cpus)
    if n == 0:
        return [], 0
    ds = keyed_dataset(keys, fn, num_cpus=num_cpus, num_tasks=n,
                       block_bytes=MANIFEST_BLOCK_BYTES)
    return ds.take_all(), n
