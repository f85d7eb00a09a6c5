"""The registry's shared plan steps (pipelines/plan.py): the one table
read, the result-shaping map and the null check in front of every
exact-integer conversion, timestamps included."""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from mini_search_engine_ray.pipelines import driver_queries as dq
from mini_search_engine_ray.pipelines.plan import _codes, _non_null_numpy, _r4, _ts_int64, shape

SF = "/root/testdata/sf0.001"
OUT = pa.schema({"doc_id": pa.int64(), "rnk": pa.int64(), "score": pa.float64(),
                 "term": pa.large_string()})


def _batch(n=3):
    return pa.table({"doc_id": pa.array(range(n), pa.int32()),
                     "rank": pa.array(range(10, 10 + n), pa.int64()),
                     "score": pa.array([0.12345, 0.00005, 2.5][:n]),
                     "term": pa.array(["a", "b", "c"][:n], pa.string()),
                     "extra": pa.array([1.0, 2.0, 3.0][:n])})


def test_shape_takes_casts_rounds_and_renames():
    out = shape(OUT, r4=["score"], rename={"rnk": "rank"})(_batch())
    assert out.schema == OUT
    assert out["doc_id"].to_pylist() == [0, 1, 2]
    assert out["rnk"].to_pylist() == [10, 11, 12]
    # half-up at 4 decimals, the oracle's formula (numpy would give 0.0)
    assert out["score"].to_pylist() == [0.1235, 0.0001, 2.5]
    assert out["term"].to_pylist() == ["a", "b", "c"]


@pytest.mark.parametrize("t", [_batch().slice(0, 0),
                               _batch().drop_columns(["rank"]),
                               pa.table({})])
def test_shape_typed_empty_on_empty_or_partial_block(t):
    out = shape(OUT, r4=["score"], rename={"rnk": "rank"})(t)
    assert out.num_rows == 0 and out.schema == OUT


def test_r4_rounds_half_up():
    assert _r4([0.00005, -0.00005, 1.23455]).tolist() == [0.0001, 0.0, 1.2346]


def _lineitem_with_null_price():
    t = pq.read_table(os.path.join(SF, "lineitem.parquet"))
    price = t["l_extendedprice"].to_pylist()
    price[len(price) // 2] = None
    return t.set_column(t.schema.get_field_index("l_extendedprice"),
                        "l_extendedprice", pa.array(price, pa.float64()))


def test_non_null_numpy_raises_on_null():
    t = _lineitem_with_null_price()
    with pytest.raises(ValueError, match="l_extendedprice"):
        _non_null_numpy(t, "l_extendedprice")
    assert np.array_equal(_non_null_numpy(t, "l_quantity"),
                          t["l_quantity"].to_numpy())


def _lineitem_with_null_shipdate():
    t = pq.read_table(os.path.join(SF, "lineitem.parquet"))
    ship = t["l_shipdate"].to_pylist()
    ship[1] = None
    return t.set_column(t.schema.get_field_index("l_shipdate"),
                        "l_shipdate", pa.array(ship, t.schema.field("l_shipdate").type))


def test_ts_int64_raises_on_null_timestamp():
    """A null timestamp raises instead of becoming NaN and then
    -2**63 in the day arithmetic; a non-null one is its epoch count."""
    t = _lineitem_with_null_shipdate()
    with pytest.raises(ValueError, match="column 'l_shipdate' has 1 null"):
        _ts_int64(t, "l_shipdate")
    ok = pq.read_table(os.path.join(SF, "lineitem.parquet"))
    assert ok["l_shipdate"].type == pa.timestamp("us")
    us = _ts_int64(ok, "l_shipdate")
    assert us.dtype == np.int64
    assert us.tolist() == ok["l_shipdate"].to_numpy().astype("datetime64[us]").astype(np.int64).tolist()


def test_query_prep_rejects_null_shipdate(ray_session, tmp_path):
    """`pricing_summary` (TPC-H Q1) fails on a null `l_shipdate` in its
    own per-batch filter instead of comparing an undefined int64 with
    its cutoff."""
    pq.write_table(_lineitem_with_null_shipdate(), tmp_path / "lineitem.parquet")
    with pytest.raises(Exception, match="ValueError: column 'l_shipdate' has 1 null"):
        dq.q_pricing_summary(str(tmp_path))


def test_codes_raises_on_null_key():
    d = pa.array(["a", "b", "a"]).dictionary_encode()
    assert _codes(d).tolist() == [0, 1, 0]
    with pytest.raises(ValueError, match="1 null"):
        _codes(pa.array(["a", None, "b"]).dictionary_encode())


def test_li_ints_rejects_null_price():
    with pytest.raises(ValueError, match="l_extendedprice"):
        dq._li_ints(_lineitem_with_null_price())


def test_query_prep_rejects_null_price(ray_session, tmp_path):
    """A null price fails the query's own per-batch prep (the moment
    partials of `corr_qty_price`) instead of becoming an undefined
    int64 cent value."""
    pq.write_table(_lineitem_with_null_price(), tmp_path / "lineitem.parquet")
    # Ray Data re-raises the task's ValueError wrapped, with its message
    with pytest.raises(Exception, match="ValueError: column 'l_extendedprice' has 1 null"):
        dq.q_corr_qty_price(str(tmp_path))
    shutil.copy(os.path.join(SF, "lineitem.parquet"), tmp_path / "lineitem.parquet")
    assert dq.q_corr_qty_price(str(tmp_path)).num_rows == 1


def test_one_read_point():
    """Every registry table enters the plan through `read_table`."""
    here = os.path.dirname(dq.__file__)
    n = sum(open(os.path.join(here, f)).read().count("read_parquet(")
            for f in ("driver_queries.py", "plan.py"))
    assert n == 1
