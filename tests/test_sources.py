"""Corpus sources: deterministic doc-id assignment, synth corpus,
fingerprints, documents-table adapter."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from mini_search_engine_ray.sources.corpus import (
    adapt_documents_table,
    corpus_fingerprint,
    read_corpus_with_doc_ids,
    synth_corpus,
    write_corpus_parquet,
)


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("src")
    t = synth_corpus(300, seed=13).drop_columns(["doc_id"])
    p = str(d / "c.parquet")
    write_corpus_parquet(t, p, rows_per_group=64)  # several row groups
    return p, t


def test_doc_ids_deterministic_any_parallelism(ray_session, corpus_file):
    p, t = corpus_file
    rows1 = read_corpus_with_doc_ids(p).take_all()
    rows2 = read_corpus_with_doc_ids(p, columns=["path"]).take_all()
    by_id1 = {r["doc_id"]: r["path"] for r in rows1}
    by_id2 = {r["doc_id"]: r["path"] for r in rows2}
    assert by_id1 == by_id2
    assert sorted(by_id1) == list(range(300))
    # doc_id i must be row i of the file (row-group offset scheme)
    paths = t["path"].to_pylist()
    assert all(by_id1[i] == paths[i] for i in range(300))


def test_row_groups_read_in_separate_tasks(ray_session, tmp_path):
    """The build tokenizes the reader's output in `map_batches(
    batch_size=1024)`. Four row groups of 600 rows then make at least
    two such tasks; were the read fused into that map, it would bundle
    1,024 row-group descriptors, so all four into one task."""
    import ray

    def _task_ids(t):
        return pa.table({"task": [ray.get_runtime_context().get_task_id()] * t.num_rows})

    p = str(tmp_path / "c.parquet")
    write_corpus_parquet(synth_corpus(2400, seed=3).select(["content"]), p, rows_per_group=600)
    rows = read_corpus_with_doc_ids(p).map_batches(
        _task_ids, batch_format="pyarrow", batch_size=1024).take_all()
    assert len(rows) == 2400
    assert len({r["task"] for r in rows}) >= 2


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """Three corpus files of several row groups each (doc_id included),
    written out of name order, plus a temp and a hidden file that a
    directory read skips, as Arrow's dataset discovery does."""
    d = tmp_path_factory.mktemp("corpus_dir")
    t = synth_corpus(250, seed=21)
    for name, lo, hi in (("b.parquet", 100, 250), ("a.parquet", 0, 60), ("ab.parquet", 60, 100)):
        write_corpus_parquet(t.slice(lo, hi - lo), str(d / name), rows_per_group=32)
    for junk in ("_tmp.a.parquet", ".hidden.parquet"):
        write_corpus_parquet(t.slice(0, 5), str(d / junk))
    return str(d)


def _ordered(ds):
    """The rows of `ds` as one table, in the order its blocks were
    planned (`preserve_order` on the dataset's own context)."""
    import ray

    ds.context.execution_options.preserve_order = True
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


@pytest.mark.parametrize("columns", [None, ["content", "doc_id"]])
@pytest.mark.parametrize("form", ["file", "list", "dir"])
def test_read_corpus_matches_read_table(ray_session, corpus_dir, form, columns):
    """`read_corpus` returns what `pyarrow.parquet.read_table` returns for
    one multi-row-group file, a list of files and a directory: the same
    rows, order and schema, with and without `columns`; and
    `corpus_num_rows` counts those rows from the footers."""
    import os

    import pyarrow.parquet as pq

    from mini_search_engine_ray.sources.corpus import corpus_num_rows, read_corpus

    files = [os.path.join(corpus_dir, f) for f in ("a.parquet", "ab.parquet", "b.parquet")]
    paths = {"file": files[2], "list": files, "dir": corpus_dir}[form]
    want = pq.read_table(paths, columns=columns)
    got = _ordered(read_corpus(paths, columns=columns))
    assert got.schema.equals(want.schema)
    assert got.equals(want)
    assert corpus_num_rows(paths) == want.num_rows


@pytest.mark.parametrize("layout", ["empty", "only_junk", "hive"])
def test_directory_read_refuses_what_it_cannot_read_whole(tmp_path, layout):
    """A directory with no readable `.parquet` file, or with a
    subdirectory such as a hive partition, raises ValueError naming the
    path instead of reading fewer rows (or none) silently."""
    from mini_search_engine_ray.sources.corpus import corpus_num_rows, read_corpus

    t = synth_corpus(20, seed=3)
    if layout == "only_junk":
        write_corpus_parquet(t, str(tmp_path / "_tmp.parquet"))
    if layout == "hive":
        write_corpus_parquet(t, str(tmp_path / "top.parquet"))
        (tmp_path / "lang=py").mkdir()
        write_corpus_parquet(t, str(tmp_path / "lang=py" / "part.parquet"))
    for read in (read_corpus, read_corpus_with_doc_ids, corpus_num_rows):
        with pytest.raises(ValueError, match=str(tmp_path)):
            read(str(tmp_path))


def test_doc_ids_from_directory(ray_session, corpus_dir):
    """A directory read assigns doc_id i to row i of its sorted files,
    replacing the files' own doc_id column."""
    import pyarrow.parquet as pq

    got = _ordered(read_corpus_with_doc_ids(corpus_dir, columns=["path"]))
    assert got["doc_id"].to_pylist() == list(range(250))
    assert got["path"].equals(pq.read_table(corpus_dir, columns=["path"])["path"])


def test_synth_corpus_deterministic_and_edge_cases(ray_session):
    a = synth_corpus(50, seed=42)
    b = synth_corpus(50, seed=42)
    assert a.equals(b)
    contents = a["content"].to_pylist()
    assert contents[3] == ""                 # empty doc
    assert contents[7] == " "                # whitespace-only
    assert contents[11].strip(",.;?!") == ""  # punctuation-only
    assert "needle" in contents[19]


def test_corpus_fingerprint_changes_with_data(tmp_path):
    t1 = synth_corpus(40, seed=1)
    t2 = synth_corpus(41, seed=1)
    p1, p2 = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    write_corpus_parquet(t1, p1)
    write_corpus_parquet(t2, p2)
    assert corpus_fingerprint([p1]) != corpus_fingerprint([p2])
    assert corpus_fingerprint([p1]) == corpus_fingerprint([p1])


def test_documents_adapter_schema(ray_session):
    ds = adapt_documents_table("/root/testdata/sf0.001")
    rows = ds.take(3)
    assert set(rows[0]) == {"doc_id", "repo", "path", "commit", "lang", "content"}
    assert rows[0]["path"].startswith("doc/")


class TestLineSources:
    def test_read_file_as_string_parity(self, tmp_path):
        """FileUtils.readFileAsString parity: joined content without
        trailing newline; callback per line in order."""
        from mini_search_engine_ray.sources.lines import read_file_as_string

        p = tmp_path / "f.txt"
        p.write_text("alpha\nbeta\r\ngamma\n")
        seen = []
        content = read_file_as_string(str(p), seen.append)
        assert content == "alpha\nbeta\ngamma"
        assert seen == ["alpha", "beta", "gamma"]
        # no callback
        assert read_file_as_string(str(p)) == "alpha\nbeta\ngamma"

    def test_read_lines_dataset(self, ray_session, tmp_path):
        from mini_search_engine_ray.sources.lines import read_lines

        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        a.write_text("1\tx\n2\ty\n")
        b.write_text("3\tz\n")
        rows = sorted(
            read_lines([str(a), str(b)]).take_all(),
            key=lambda r: (r["file"], r["line_no"]),
        )
        assert [r["line"] for r in rows] == ["1\tx", "2\ty", "3\tz"]
        assert [r["line_no"] for r in rows] == [0, 1, 0]
