"""Corpus sources: synthetic source-code corpus, deterministic doc-id
reader, and the driver-testdata `documents` adapter.

The flagship input is a Parquet table of source-code repositories
`(repo, path, commit, lang, content)` (BASELINE.json `input_hint`); the
reference's corpus was a directory of text files fed one at a time
(`search/IcsSearchEngine.java:96-110`).

Doc-id policy (SURVEY.md §4 "Ordering"): doc ids must be deterministic
and independent of execution parallelism. We derive them from the
*storage layout*: sorted file list -> per-row-group global row offsets
taken from Parquet metadata (a metadata-only pass), so doc_id =
row_group_start + row_within_group. No shuffle, no content movement,
reproducible at any concurrency — this replaces the reference's
insertion-order docIDs (`index/inverted/InvertedIndexManager.java:164`).
"""

from __future__ import annotations

import hashlib
import random
import string

import numpy as np
import pyarrow as pa

CORPUS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("lang", pa.string()),
        ("content", pa.large_string()),
    ]
)

_LANG_BY_EXT = {"py": "python", "java": "java", "ts": "typescript", "go": "go", "md": "markdown"}

_KEYWORDS = {
    "python": ["def", "class", "import", "return", "yield", "lambda", "async", "await"],
    "java": ["public", "static", "void", "class", "extends", "implements", "return", "final"],
    "typescript": ["const", "let", "function", "interface", "export", "return", "async"],
    "go": ["func", "type", "struct", "return", "defer", "package", "interface"],
    "markdown": [],
}

_PROSE = [
    "Information retrieval is the activity of obtaining information system resources",
    "relevant to an information need from a collection of those resources.",
    "UCI CS221 Information Retrieval covers search engine architecture and evaluation.",
    "The University of California, Irvine maintains a large collection of webpages.",
    "It is a truth universally acknowledged, that a single man in possession",
    "of a good fortune, must be in want of a wife.",
    "a kitten and a bunny were playing in the garden near the old library",
]

_IDENT_STEMS = [
    "parse", "build", "fetch", "merge", "index", "token", "query", "score",
    "shard", "batch", "stream", "cache", "config", "handler", "request",
    "response", "buffer", "writer", "reader", "worker", "cluster", "segment",
]
_IDENT_SUFFIX = ["Manager", "Factory", "Builder", "Context", "Helper", "Service", "Impl", "Util"]


def _make_content(rng: random.Random, lang: str, i: int, doc_scale: int = 1) -> str:
    """Deterministic code-like + prose content for doc i. `doc_scale`
    multiplies the line count (1 -> ~180 B micro-docs for fast tests;
    8 -> ~1.5 KB, the realistic source-file size used by the scaling
    bench)."""
    # fixed edge cases at small indices (FIXTURES.md F1)
    if i == 3:
        return ""                              # empty doc
    if i == 7:
        return " "                             # whitespace-only
    if i == 11:
        return ",.;?!,.;?!"                    # punctuation-only
    if i == 13:
        return "the and of is are to in"       # stopwords-only
    if i == 17:
        return "QWERTYUIOP Elizabeth INDEX Token"  # upper-case duplicates
    if i == 19:
        return "needle " * 50                  # tf stress (repeated token)
    lines = []
    n_lines = rng.randint(3 * doc_scale, 14 * doc_scale)
    kws = _KEYWORDS.get(lang, [])
    for _ in range(n_lines):
        kind = rng.random()
        if kind < 0.45 and kws:
            ident = rng.choice(_IDENT_STEMS) + rng.choice(_IDENT_SUFFIX)
            snake = rng.choice(_IDENT_STEMS) + "_" + rng.choice(_IDENT_STEMS)
            lines.append(
                f"{rng.choice(kws)} {ident}({snake}) {{ return {snake}.{rng.choice(_IDENT_STEMS)}; }}"
            )
        elif kind < 0.8:
            lines.append(rng.choice(_PROSE))
        else:
            words = " ".join(rng.choice(_IDENT_STEMS) for _ in range(rng.randint(4, 12)))
            lines.append(f"# {words}")
    return "\n".join(lines)


def synth_corpus(n_docs: int, seed: int = 42, *, doc_scale: int = 1) -> pa.Table:
    """Deterministic synthetic source-code corpus with doc_id column."""
    rng = random.Random(seed)
    repos, paths, commits, langs, contents = [], [], [], [], []
    exts = list(_LANG_BY_EXT)
    for i in range(n_docs):
        ext = exts[i % len(exts)]
        lang = _LANG_BY_EXT[ext]
        repos.append(f"org{i % 7}/repo{i % 13}")
        paths.append(f"src/{rng.choice(_IDENT_STEMS)}/{rng.choice(_IDENT_STEMS)}{i}.{ext}")
        commits.append("".join(rng.choice(string.hexdigits.lower()) for _ in range(40)))
        langs.append(lang)
        contents.append(_make_content(rng, lang, i, doc_scale))
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n_docs, dtype=np.int64)),
            "repo": pa.array(repos),
            "path": pa.array(paths),
            "commit": pa.array(commits),
            "lang": pa.array(langs),
            "content": pa.array(contents, type=pa.large_string()),
        }
    )


def write_corpus_parquet(table: pa.Table, path: str, *, rows_per_group: int = 512) -> str:
    import pyarrow.parquet as pq

    pq.write_table(table, path, row_group_size=rows_per_group)
    return path


def corpus_fingerprint(paths: list[str]) -> str:
    """Cheap deterministic fingerprint of a corpus (no data read): file
    name + byte size + mtime + row count + per-column chunk statistics
    from the Parquet footer. Used for checkpoint lineage and index-cache
    keys (SURVEY.md §4 'Checkpoint / resume') — a regenerated file with
    the same row count must not silently reuse a stale cached index, so
    the footer's data-page offsets/statistics (which depend on actual
    contents) are folded in alongside size + mtime."""
    import os

    import pyarrow.parquet as pq

    h = hashlib.sha256()
    for p in sorted(paths):
        st = os.stat(p)
        md = pq.read_metadata(p)
        h.update(os.path.basename(p).encode())
        h.update(str(st.st_size).encode())
        h.update(str(st.st_mtime_ns).encode())
        h.update(str(md.num_rows).encode())
        h.update(str(md.serialized_size).encode())
        for rg in range(md.num_row_groups):
            g = md.row_group(rg)
            for ci in range(g.num_columns):
                c = g.column(ci)
                h.update(str(c.data_page_offset).encode())
                h.update(str(c.total_compressed_size).encode())
                stats = c.statistics
                if stats is not None and stats.has_min_max:
                    h.update(repr(stats.min)[:64].encode())
                    h.update(repr(stats.max)[:64].encode())
    return h.hexdigest()[:16]


def _parquet_files(paths: str | list[str]) -> list[str]:
    """The sorted files of `paths`: a file, a list of files, or a flat
    directory, which means its `.parquet` files but the `_`- and
    `.`-prefixed ones (temp files; Arrow dataset discovery skips them).
    A directory with a subdirectory (say, hive partitions) or with no
    such file raises ValueError rather than read fewer rows."""
    import os

    if isinstance(paths, str) and os.path.isdir(paths):
        names = [f for f in os.listdir(paths) if not f.startswith(("_", "."))]
        files = [os.path.join(paths, f) for f in names if f.endswith(".parquet")]
        if not files or any(os.path.isdir(os.path.join(paths, f)) for f in names):
            raise ValueError(f"{paths}: want a directory of .parquet files, no subdirectories")
        paths = files
    return sorted([paths] if isinstance(paths, str) else paths)


def _rowgroup_tasks(paths: str | list[str]) -> list[dict]:
    import pyarrow.parquet as pq

    tasks, offset = [], 0
    for p in _parquet_files(paths):
        md = pq.read_metadata(p)
        for rg in range(md.num_row_groups):
            tasks.append({"file": p, "row_group": rg, "offset": offset})
            offset += md.row_group(rg).num_rows
    return tasks


def corpus_num_rows(paths: str | list[str]) -> int:
    """Total row count from the parquet FOOTERS only — callers pass
    this as build_index(n_docs=...) / add_documents(n_new_docs=...) so
    the build never runs a data-reading count() pass over the corpus."""
    import pyarrow.parquet as pq

    return sum(pq.read_metadata(p).num_rows for p in _parquet_files(paths))


def _read_row_groups(paths: str | list[str], columns: list[str] | None, *, assign_ids: bool):
    """The rows of `paths` (see `_parquet_files`) in file and row order,
    one Ray task per row group (planned from the footers on the
    driver); with `assign_ids`, doc_id = row-group offset + local index.
    `ds.count()` runs the read: pass `corpus_num_rows(paths)` instead.
    The read never fuses with the caller's next map: fused, a
    `map_batches(batch_size=B)` would bundle B row-group descriptors
    into one task and read them all there, one after another."""
    import ray.data as rd

    tasks = _rowgroup_tasks(paths)

    def read_one(batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        out = []
        for row in batch.to_pylist():
            t = pq.ParquetFile(row["file"]).read_row_group(row["row_group"], columns=columns)
            if assign_ids:
                # this reader ASSIGNS identity; a pre-existing doc_id
                # column would otherwise duplicate the field name and
                # crash every downstream select
                if "doc_id" in t.column_names:
                    t = t.drop_columns(["doc_id"])
                ids = np.arange(row["offset"], row["offset"] + t.num_rows, dtype=np.int64)
                t = t.add_column(0, "doc_id", pa.array(ids))
            out.append(t)
        return pa.concat_tables(out)

    # Ray Data fuses no operator that has a `ray_remote_args_fn`; this
    # one adds no remote argument
    return rd.from_items(tasks, override_num_blocks=max(1, len(tasks))).map_batches(
        read_one, batch_size=1, batch_format="pyarrow", ray_remote_args_fn=dict
    )


def read_corpus(paths: str | list[str], *, columns: list[str] | None = None):
    """Read a corpus Parquet table that already carries doc_id: the rows
    `pyarrow.parquet.read_table(paths)` gives (`_read_row_groups`)."""
    return _read_row_groups(paths, columns, assign_ids=False)


def read_corpus_with_doc_ids(paths: str | list[str], *, columns: list[str] | None = None):
    """Read (repo, path, commit, lang, content) Parquet and attach a
    deterministic global doc_id from row-group offsets (row i of the
    sorted files gets doc_id i, at any parallelism; `_read_row_groups`)."""
    return _read_row_groups(paths, columns, assign_ids=True)


def adapt_documents_table(sf_dir: str):
    """Driver-testdata adapter (FIXTURES.md F8): map
    `documents(doc_id, text, lang, source, n_chars)` onto the corpus
    schema — text -> content, source -> repo, synthesized path/commit."""
    import pyarrow.compute as pc
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang", "source"])

    def adapt(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "repo": t["source"],
                "path": pc.binary_join_element_wise(
                    pa.array(["doc"] * n), pc.cast(t["doc_id"], pa.string()), "/"
                ),
                "commit": pa.array([""] * n),
                "lang": t["lang"],
                "content": pc.cast(t["text"], pa.large_string()),
            }
        )

    return ds.map_batches(adapt, batch_format="pyarrow")


def sha256_column(t: pa.Table, col: str = "content") -> pa.Array:
    """Per-row sha256 hex of a string column (north-rule invariant D4)."""
    return pa.array([hashlib.sha256(v.encode()).hexdigest() if v is not None else None
                     for v in t[col].to_pylist()])
