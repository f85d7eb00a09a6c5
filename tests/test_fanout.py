"""Keyed fan-out (`stages/fanout.run_keyed`): plain Ray tasks, at most
one per CPU slot, with the same manifests as a plain loop."""

from __future__ import annotations

import pyarrow as pa
import pytest

from mini_search_engine_ray.stages.fanout import keyed_dataset, keyed_task_count, run_keyed


def _key_fn():
    """A key function returning a one-row manifest of its key that names
    the task that made it (nested, so Ray pickles it by value)."""
    import ray

    def manifest(key: int) -> pa.Table:
        return pa.table({"shard": pa.array([key], pa.int32()), "bytes": [key * key],
                         "task": [ray.get_runtime_context().get_task_id()]})

    return manifest


@pytest.mark.parametrize("n_keys,num_cpus", [(1, 1), (3, 1), (16, 1), (16, 2)])
def test_run_keyed_tasks_and_rows(ray_session, n_keys, num_cpus):
    """At most `keyed_task_count` tasks run, and their rows, less the
    task id, are those of calling the key function in a loop."""
    keys, fn = [5 * k + 1 for k in range(n_keys)], _key_fn()
    rows, n = run_keyed(keys, fn, num_cpus=num_cpus)
    assert n == keyed_task_count(n_keys, num_cpus) <= n_keys
    assert len({r.pop("task") for r in rows}) == n
    loop = pa.concat_tables([fn(k) for k in keys]).drop_columns(["task"]).to_pylist()
    assert sorted(rows, key=lambda r: r["shard"]) == loop


def test_keyed_dataset_rows(ray_session):
    """`keyed_dataset` runs the same key groups and hands their rows to
    Ray Data: one block per task."""
    keys, fn = list(range(9)), _key_fn()
    ds = keyed_dataset(keys, fn)
    assert ds.num_blocks() == keyed_task_count(len(keys))
    rows = ds.take_all()
    assert len({r.pop("task") for r in rows}) == keyed_task_count(len(keys))
    loop = pa.concat_tables([fn(k) for k in keys]).drop_columns(["task"]).to_pylist()
    assert sorted(rows, key=lambda r: r["shard"]) == loop


def test_no_keys(ray_session):
    assert run_keyed([], _key_fn()) == ([], 0)
    assert keyed_dataset([], _key_fn()).count() == 0


def test_run_keyed_surfaces_key_function_error(ray_session):
    fn = _key_fn()

    def fails_on_seven(key: int) -> pa.Table:
        if key == 7:
            raise RuntimeError(f"bucket {key} is broken")
        return fn(key)

    with pytest.raises(Exception, match="bucket 7 is broken"):
        run_keyed(range(10), fails_on_seven)


def test_run_keyed_leaves_global_data_context(ray_session):
    from ray.data.context import DataContext

    ctx = DataContext.get_current()
    before = (ctx.target_max_block_size, ctx.execution_options.preserve_order)
    run_keyed(range(8), _key_fn())
    assert DataContext.get_current() is ctx
    assert (ctx.target_max_block_size, ctx.execution_options.preserve_order) == before
