"""Plan steps shared by every query of the driver registry
(`driver_queries.py`): the one table read and the one result-shaping map.

- `read_table(sf_dir, name, columns)` is the registry's only
  `ray.data.read_parquet` of an `sf_dir` table, so every source
  enters the plan at one point.
- `shape(schema, r4=..., rename=...)` is the batch function that gives
  an output block its declared Arrow schema: a typed empty for a
  zero-row block or one that lacks a source column, else each field
  taken by name, rounded half-up to 4 decimals if named in `r4`, and
  cast to its declared type.
- `_r4` is the common rounding formula; `_non_null_numpy` (a column),
  `_ts_int64` (a timestamp column) and `_codes` (a dictionary-encoded
  column) are the null check in front of every column -> exact int64
  conversion.
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pyarrow as pa


def read_table(sf_dir: str, name: str, columns: list[str] | None = None):
    """Ray Dataset of `<sf_dir>/<name>.parquet`, projected to `columns`."""
    import ray.data as rd

    return rd.read_parquet(os.path.join(sf_dir, f"{name}.parquet"), columns=columns)


def _r4(x: np.ndarray) -> np.ndarray:
    """Round half-up to 4 decimals: floor(x*1e4 + 0.5)/1e4, the formula
    the oracle SQL replays (numpy rounds half-even, DuckDB half-away)."""
    return np.floor(np.asarray(x, dtype=np.float64) * 1e4 + 0.5) / 1e4


def _non_null(t: pa.Table, name: str):
    if t[name].null_count:
        raise ValueError(f"column {name!r} has {t[name].null_count} null(s); "
                         "exact-integer encodings need non-null values")
    return t[name]


def _non_null_numpy(t: pa.Table, name: str) -> np.ndarray:
    """Column `name` as numpy; raises on nulls, which would become NaN
    and then an undefined int64 in the exact-integer encodings."""
    return _non_null(t, name).to_numpy(zero_copy_only=False)


def _ts_int64(t: pa.Table, name: str) -> np.ndarray:
    """Timestamp column `name` as int64 numpy in its own unit (µs for
    `timestamp[us]`); raises on nulls like `_non_null_numpy`."""
    return _non_null(t, name).cast(pa.int64()).to_numpy(zero_copy_only=False)


def _codes(d: pa.DictionaryArray) -> np.ndarray:
    """int64 codes of a dictionary-encoded column; like `_non_null_numpy`
    it raises on nulls (a null value gets a null code)."""
    if d.null_count:
        raise ValueError(f"dictionary-encoded column has {d.null_count} null(s); "
                         "its int64 codes need non-null values")
    return d.indices.to_numpy(zero_copy_only=False).astype(np.int64)


def shape(schema: pa.Schema, r4=(), rename: dict[str, str] | None = None):
    """Batch function (`map_batches(..., batch_format="pyarrow")`) that
    shapes a block to `schema`. Output field `f` is read from source
    column `rename.get(f, f)`; fields named in `r4` are rounded with
    `_r4` before the cast."""
    return functools.partial(_shape_batch, schema, frozenset(r4), dict(rename or {}))


def _shape_batch(schema: pa.Schema, r4: frozenset, rename: dict, t: pa.Table) -> pa.Table:
    src = [rename.get(f.name, f.name) for f in schema]
    if t.num_rows == 0 or not set(src) <= set(t.column_names):
        return schema.empty_table()
    cols = []
    for f, c in zip(schema, src):
        col = t[c]
        if f.name in r4:
            col = pa.array(_r4(col.to_numpy(zero_copy_only=False)))
        cols.append(col.cast(f.type))
    return pa.Table.from_arrays(cols, schema=schema)
