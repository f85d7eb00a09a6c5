"""Self-check of the driver contract: run every queries() entry at
sf0.001 and compare against its oracle_sql() via DuckDB the same way
the driver does (row count + sorted-column value comparison). Also
smoke entry()."""

from __future__ import annotations

import json
import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF = "/root/testdata/sf0.001"
TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def _run(res):
    """(pandas frame, [[field, arrow type], ...]) of one query result,
    both taken from ONE execution (a Dataset is materialized first)."""
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        res = res.materialize()
        s = res.schema()
        schema = None if s is None else s.base_schema
        df = res.to_pandas()
    elif isinstance(res, pa.Table):
        schema, df = res.schema, res.to_pandas()
    else:
        schema, df = pa.Schema.from_pandas(res, preserve_index=False), res
    fields = None if schema is None else [[f.name, str(f.type)] for f in schema]
    return df, fields


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = np.round(df[c].astype(np.float64), 6)
        elif np.issubdtype(df[c].dtype, np.integer):
            df[c] = df[c].astype(np.int64)
        elif df[c].dtype == bool:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        p = f"{SF}/{t}.parquet"
        if os.path.exists(p):
            c.sql(f"CREATE VIEW {t} AS SELECT * FROM '{p}'")
    return c


@pytest.fixture(scope="module")
def registry(ray_session):
    import ray

    import __ray_entry__ as e
    from mini_search_engine_ray.pipelines import driver_queries

    yield e.queries(), e.oracle_sql()
    # the registry keeps one DistributedSearcher actor fleet per index for
    # the rest of a driver's session; in the shared test session they
    # would hold CPUs that later modules' tasks wait for
    for s in driver_queries._DIST_SEARCHERS.values():
        s.shutdown()
    driver_queries._DIST_SEARCHERS.clear()
    total, deadline = ray.cluster_resources()["CPU"], time.monotonic() + 30
    while ray.available_resources().get("CPU", 0.0) < total and time.monotonic() < deadline:
        time.sleep(0.2)
    held = total - ray.available_resources().get("CPU", 0.0)
    assert held == 0, f"{held} of {total} CPUs still held after the registry's queries"


def test_entry_smoke(ray_session):
    import __ray_entry__ as e

    df = e.entry()
    assert len(df) > 0
    assert set(df.columns) == {"query_id", "rank", "doc_id", "score"}
    assert df[df.kind == "x"].empty if "kind" in df.columns else True


def test_every_oracle_query_has_impl(registry):
    q, o = registry
    assert set(o) <= set(q)


# Dynamic: every ORACLE_SQL entry is parity-tested at sf0.001, so a new
# driver query can never ship without in-repo oracle coverage. (The
# registry import is collection-time safe — driver_queries never inits
# Ray at module scope.)
from mini_search_engine_ray.pipelines.driver_queries import ORACLE_SQL as _OSQL

ORACLE_KEYS = sorted(_OSQL)

# Output Arrow schema of every query, pinned: the value comparison
# casts ints to int64 and rounds floats, so it cannot see an int32 vs
# int64 or string vs large_string drift on its own.
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "driver_schemas.json")) as _f:
    SCHEMAS = json.load(_f)


@pytest.mark.parametrize("name", ORACLE_KEYS)
def test_query_matches_oracle(registry, con, name):
    q, o = registry
    assert name in q and name in o
    df, fields = _run(q[name](SF))
    assert fields == SCHEMAS[name], (name, fields, SCHEMAS[name])
    got = _normalize(df)
    exp = _normalize(con.sql(o[name]).df())
    assert list(got.columns) == list(exp.columns), (got.columns, exp.columns)
    assert len(got) == len(exp), f"{name}: {len(got)} vs {len(exp)} rows"
    pd.testing.assert_frame_equal(got, exp, check_dtype=False, check_exact=False, rtol=1e-6, atol=1e-6)


def test_no_rows_only_queries_left(registry):
    """Every queries() entry carries an oracle_sql() entry — the driver
    records zero `no_oracle` rows."""
    q, o = registry
    assert set(q) == set(o)


def test_row_counts_per_doc(registry):
    q, _ = registry
    assert len(_run(q["simhash"](SF))[0]) == 500
    assert len(_run(q["minhash_signatures"](SF))[0]) == 500 * 64
