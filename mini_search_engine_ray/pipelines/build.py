"""Index build: the flagship pipeline.

    read corpus (Parquet, pruned columns)
      -> map_batches(tokenize + explode)              zero-copy Arrow
      -> write_parquet(partition_cols=["shard"])      phase A: THE
         (term-bucketed, salted packed fragments)     exchange
      -> plain Ray tasks, one per CPU slot, shards    phase B
         dealt round-robin: read partition, write_shard
      -> manifests (tiny) -> meta.json
    [+ docstore side-output by the tokenize tasks: doc_id, repo, path,
       lang, sha256, content]

Mirrors the reference lifecycle `addDocument* -> flush ->
mergeAllSegments` (`InvertedIndexManager.java:162-298,327-440`) but the
LSM buffer/flush machinery is replaced by the Ray Data exchange
(SURVEY.md §3.1); merge/compaction of incremental builds lives in
stages/merge.py, and `add_documents` merges a delta straight from its
phase-A exchange.

Scale notes (100 TB design point):
  * exactly ONE all-to-all exchange (the term-bucket partitioned
    write); content is dropped before it — the exchange carries only
    packed posting fragments (term, shard, doc_id, tf, doc_len
    [, positions]).
  * hot-term skew: `salt > 1` spreads a term over salt sub-shards
    (doc_id mod salt); compaction merges them.
  * resume: shard writes are idempotent, keyed by a build fingerprint;
    re-running skips committed shards (and a re-run after partial
    failure produces byte-identical output — tested).
  * num_buckets sizes shards: target ~ total_postings/num_buckets
    rows per shard; raise it with corpus size. The number of phase-B
    tasks comes from the cluster instead (`stages/fanout.py`).
  * phase A is the one Ray Data execution of a build or update; phase
    B and the merge only hand out keys, so they run as plain Ray tasks.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import time

import pyarrow as pa

from ..functions.analyzers import is_dictionary_analyzer
from ..sources.corpus import sha256_column
from ..stages.fanout import run_keyed
from ..stages.ingest import tokenize_explode_task
from ..stages.shards import write_shard

META_FILE = "meta.json"
EXCHANGE_DIR = "exchange"
EXCHANGE_MARKER = "_COMMITTED.json"


def _docstore_batch(t: pa.Table) -> pa.Table:
    keep = [c for c in ("doc_id", "repo", "path", "commit", "lang", "content") if c in t.column_names]
    out = t.select(keep)
    return out.append_column("sha256", sha256_column(t, "content"))


def _write_docstore_part(t: pa.Table, docstore_dir: str) -> None:
    """Side-output one docstore partition from a tokenize batch.
    Batches partition the corpus into disjoint doc_id ranges, so the
    range-named file is unique per batch and a retried task rewrites it
    idempotently (tmp + atomic rename)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    if t.num_rows == 0:
        return
    out = _docstore_batch(t)
    lo = int(pc.min(t["doc_id"]).as_py())
    hi = int(pc.max(t["doc_id"]).as_py())
    os.makedirs(docstore_dir, exist_ok=True)
    path = os.path.join(docstore_dir, f"part-{lo:012d}-{hi:012d}.parquet")
    # "_"-prefixed temp name: Arrow dataset discovery ignores it, so a
    # temp file leaked by a killed task is never read as data by
    # docstore consumers (the retried task writes its own temp)
    tmp = os.path.join(docstore_dir,
                       f"_tmp.{os.getpid()}.part-{lo:012d}-{hi:012d}.parquet")
    pq.write_table(out, tmp)
    os.replace(tmp, path)


def _tokenize_batch(batch: pa.Table, *, docstore_dir: str | None, **kw) -> pa.Table:
    """One phase-A task: write the batch's docstore partition when
    `docstore_dir` is set, then tokenize + explode its (doc_id, content)
    through the worker's cached kernel."""
    if docstore_dir is not None:
        _write_docstore_part(batch, docstore_dir)
    return tokenize_explode_task(batch.select(["doc_id", "content"]), **kw)


def build_index(
    corpus_ds,
    index_dir: str,
    *,
    analyzer: str = "composable",
    num_buckets: int = 16,
    salt: int = 1,
    positional: bool = False,
    n_docs: int | None = None,
    fingerprint: str = "",
    tokenize_batch_size: int = 1024,
    write_docstore: bool = True,
    codec: str = "varint",
    wordbreak_dict_path: str | None = None,
    task_num_cpus: int = 1,
) -> dict:
    """Build an inverted index under `index_dir`; returns the meta dict.

    A two-phase hash exchange: in phase A (`write_exchange`) tokenize
    tasks write packed fragments hive-partitioned by shard
    (`write_parquet(partition_cols=["shard"])`); in phase B plain Ray
    tasks, at most one per `task_num_cpus` CPUs of the cluster, each
    read only their shards' partitions and build those segments. This
    is a map-side-partition / reduce-side-read shuffle: no global sort,
    and the partitioned fragment directory doubles as a
    durable checkpoint (phase A is skipped on resume when its commit
    marker matches the build fingerprint).

    With `write_docstore` the tokenize tasks side-output their batch's
    docstore partition before exploding, so the corpus is read ONCE (at
    100 TB a second scan doubles ingest bytes). Partition files are
    doc_id-range-named, idempotent under task retry, and wiped with the
    exchange dir on a non-resumed run (batch boundaries may differ
    between runs).
    """
    os.makedirs(index_dir, exist_ok=True)
    if n_docs is None:
        n_docs = corpus_ds.count()
    fingerprint = fingerprint or "nofp"
    full_fp = f"{fingerprint}:{analyzer}:{num_buckets}:{salt}:{int(positional)}:{n_docs}"
    if codec != "varint":  # keep round-1 fingerprints valid for the default
        full_fp += f":codec={codec}"
    if is_dictionary_analyzer(analyzer):  # another dictionary, other terms
        full_fp += f":dict={wordbreak_dict_path}"

    # fast resume: a COMPLETED build with the same fingerprint is a
    # no-op (meta + every shard manifest match, shard files present) —
    # re-submitting a finished job must not re-read the corpus
    done = _completed_build_meta(index_dir, full_fp, need_docstore=write_docstore)
    if done is not None:
        return done

    timings: dict[str, float] = {}
    write_exchange(
        corpus_ds, index_dir, fingerprint=full_fp, n_docs=n_docs,
        analyzer=analyzer, num_buckets=num_buckets, salt=salt,
        positional=positional, tokenize_batch_size=tokenize_batch_size,
        write_docstore=write_docstore, wordbreak_dict_path=wordbreak_dict_path,
        task_num_cpus=task_num_cpus, timings=timings,
    )
    manifests, phase_b_tasks = _build_shards(
        index_dir, positional=positional, fingerprint=full_fp, codec=codec,
        task_num_cpus=task_num_cpus, timings=timings,
    )
    shutil.rmtree(os.path.join(index_dir, EXCHANGE_DIR), ignore_errors=True)

    total_tf = sum(m["total_tf"] for m in manifests)
    n_postings = sum(m["n_postings"] for m in manifests)
    meta = {
        "n_docs": int(n_docs),
        "total_tokens": int(total_tf),
        "avgdl": (total_tf / n_docs) if n_docs else 0.0,
        "n_postings": int(n_postings),
        "n_shards": len(manifests),
        "analyzer": analyzer,
        "num_buckets": num_buckets,
        "salt": salt,
        "positional": positional,
        "codec": codec,
        "wordbreak_dict_path": wordbreak_dict_path,
        "fingerprint": full_fp,
        "shards_written": sum(1 for m in manifests if m["status"] == "written"),
        "shards_skipped": sum(1 for m in manifests if m["status"] == "skipped"),
        "phase_b_tasks": phase_b_tasks,
        **{f"{k}_sec": round(v, 3) for k, v in timings.items()},
    }
    write_meta(index_dir, meta)
    return meta


def _completed_build_meta(index_dir: str, full_fp: str, *, need_docstore: bool) -> dict | None:
    """Meta of an already-completed identical build, else None. Checks
    meta.json fingerprint plus every shard's manifest fingerprint and
    file presence (cheap: JSON reads, no data)."""
    from ..stages import shards as shards_mod

    try:
        meta = load_meta(index_dir)
    except (FileNotFoundError, json.JSONDecodeError):
        return None
    if meta.get("fingerprint") != full_fp:
        return None
    if need_docstore and not os.path.isdir(os.path.join(index_dir, "docstore")):
        return None
    sids = shards_mod.list_shards(index_dir)
    if len(sids) != meta.get("n_shards"):
        return None
    for sid in sids:
        fpath, mpath = shards_mod.shard_paths(index_dir, sid)
        try:
            with open(mpath) as f:
                if json.load(f).get("fingerprint") != full_fp:
                    return None
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        if not os.path.exists(fpath):
            return None
    return {**meta, "shards_written": 0, "shards_skipped": meta["n_shards"]}


def write_exchange(
    corpus_ds,
    index_dir: str,
    *,
    fingerprint: str,
    n_docs: int,
    analyzer: str = "composable",
    num_buckets: int = 16,
    salt: int = 1,
    positional: bool = False,
    tokenize_batch_size: int = 1024,
    write_docstore: bool = True,
    wordbreak_dict_path: str | None = None,
    task_num_cpus: int = 1,
    timings: dict | None = None,
) -> None:
    """Phase A of a build: tokenize `corpus_ds` and write its packed
    posting fragments to ``index_dir/exchange``, hive-partitioned by
    shard, then commit the exchange with a marker (`load_exchange_meta`
    reads it back). Skipped when the marker already holds the same
    fingerprint.

    Every analyzer runs as stateless tasks with a per-worker cached
    kernel (`stages/ingest.tokenize_explode_task`; a word-break
    dictionary is loaded once per worker process). With
    `write_docstore` the same tasks side-output the docstore to
    ``index_dir/docstore``, which is wiped and committed together with
    the exchange."""
    docstore_dir = os.path.join(index_dir, "docstore")
    # the phase-A commit marker also encodes whether phase A wrote the
    # docstore: a committed exchange without it can't serve a run that
    # needs one and vice versa (shard manifests keep the build
    # fingerprint — shard bytes never depend on docstore settings)
    marker_fp = _exchange_fp(fingerprint, write_docstore)
    # the docstore needs the full row; the tokenizer only (doc_id, content)
    projected = corpus_ds if write_docstore else corpus_ds.select_columns(["doc_id", "content"])
    exploded = projected.map_batches(
        functools.partial(
            _tokenize_batch,
            docstore_dir=docstore_dir if write_docstore else None,
            analyzer=analyzer,
            num_buckets=num_buckets,
            salt=salt,
            positional=positional,
            wordbreak_dict_path=wordbreak_dict_path,
        ),
        batch_format="pyarrow",
        batch_size=tokenize_batch_size,
        num_cpus=task_num_cpus,
    )

    ex_dir = os.path.join(index_dir, EXCHANGE_DIR)
    t0 = time.time()
    try:
        committed = load_exchange_meta(index_dir).get("fingerprint") == marker_fp
    except (OSError, ValueError):
        committed = False
    if not committed:
        shutil.rmtree(ex_dir, ignore_errors=True)
        if write_docstore:
            # batch boundaries may differ run to run: clear stale parts
            shutil.rmtree(docstore_dir, ignore_errors=True)
        exploded.write_parquet(ex_dir, partition_cols=["shard"])
        os.makedirs(ex_dir, exist_ok=True)
        marker = os.path.join(ex_dir, EXCHANGE_MARKER)
        with open(marker + ".tmp", "w") as f:
            json.dump({
                "fingerprint": marker_fp, "n_docs": int(n_docs),
                "analyzer": analyzer, "num_buckets": num_buckets, "salt": salt,
                "positional": positional, "wordbreak_dict_path": wordbreak_dict_path,
            }, f)
        os.replace(marker + ".tmp", marker)
    if timings is not None:
        timings["phase_a_tokenize_exchange"] = time.time() - t0


def _exchange_fp(fingerprint: str, write_docstore: bool) -> str:
    """The fingerprint `write_exchange` commits its exchange under."""
    return f"{fingerprint}:docstore={'single_pass' if write_docstore else 'none'}"


def _build_shards(
    index_dir: str, *, positional: bool, fingerprint: str, codec: str = "varint",
    task_num_cpus: int = 1, timings: dict,
) -> tuple[list[dict], int]:
    """Phase B: stateless tasks, at most one per `task_num_cpus` CPUs of
    the cluster (`stages/fanout.run_keyed`), each reading its shards'
    partitions of the committed exchange and writing their segments
    (idempotent via the shard manifests). Returns (manifests, tasks)."""
    t1 = time.time()

    def build_one(sid: int) -> pa.Table:
        t = read_exchange_partition(index_dir, sid)
        t = t.append_column("shard", pa.array([sid] * t.num_rows, type=pa.int32()))
        return write_shard(t, index_dir=index_dir, positional=positional,
                           fingerprint=fingerprint, codec=codec)

    out = run_keyed(exchange_shards(index_dir), build_one, num_cpus=task_num_cpus)
    timings["phase_b_shard_build"] = time.time() - t1
    return out


def exchange_shards(index_dir: str) -> list[int]:
    """Shard ids that have a partition in the exchange of `index_dir`."""
    ex_dir = os.path.join(index_dir, EXCHANGE_DIR)
    if not os.path.isdir(ex_dir):
        return []
    return sorted(
        int(d.split("=", 1)[1])
        for d in os.listdir(ex_dir)
        if d.startswith("shard=") and os.path.isdir(os.path.join(ex_dir, d))
    )


def read_exchange_partition(index_dir: str, shard_id: int) -> pa.Table | None:
    """The packed fragments of one shard in the exchange of `index_dir`
    (None when the shard got no postings). Its part files are read one
    by one in sorted name order, skipping `_`- and `.`-prefixed temp
    files: the table Arrow's dataset discovery of the directory gives,
    without the discovery's cost on every bucket."""
    import pyarrow.parquet as pq

    path = os.path.join(index_dir, EXCHANGE_DIR, f"shard={shard_id}")
    if not os.path.isdir(path):
        return None
    names = sorted(f for f in os.listdir(path) if not f.startswith(("_", ".")))
    if not names:
        return None
    return pa.concat_tables([pq.ParquetFile(os.path.join(path, f)).read() for f in names])


def load_exchange_meta(index_dir: str) -> dict:
    """The commit marker of the exchange of `index_dir`: its fingerprint
    plus the settings a merge needs (n_docs, analyzer, num_buckets, salt,
    positional, wordbreak_dict_path). Raises if phase A never committed."""
    with open(os.path.join(index_dir, EXCHANGE_DIR, EXCHANGE_MARKER)) as f:
        return json.load(f)


def write_meta(index_dir: str, meta: dict) -> None:
    tmp = os.path.join(index_dir, META_FILE + ".tmp")
    with open(tmp, "w") as f:
        json.dump(meta, f, indent=1)
    os.replace(tmp, os.path.join(index_dir, META_FILE))


def load_meta(index_dir: str) -> dict:
    with open(os.path.join(index_dir, META_FILE)) as f:
        return json.load(f)


def add_documents(
    index_dir: str,
    new_docs_ds,
    *,
    dest: str | None = None,
    work_dir: str | None = None,
    n_new_docs: int | None = None,
    fingerprint: str = "",
) -> dict:
    """THE live-index update path — delta phase A + merge from exchange
    + docstore link, in one call.

    The reference updates an index by buffering `addDocument` calls
    into an in-memory segment, flushing it, and compacting with
    `mergeAllSegments` (`InvertedIndexManager.java:162-440`); the Ray
    analogue, packaged here, runs one dataset execution (phase A) and
    one round of plain Ray tasks (the merge):

      1. phase A only (`write_exchange`) over ``new_docs_ds`` into
         ``work_dir`` (default ``index_dir + ".delta"``): tokenize and
         write the delta's packed posting fragments, partitioned by
         shard, with the live index's own analyzer / num_buckets /
         positional / dictionary settings — merge requires them
         equal. No delta shards are built;
      2. ``merge_indexes([live], deltas=[work_dir])`` — stateless
         tasks, one per CPU, that fold each live shard and the delta's
         exchange partition term by term, byte-identical to having
         built once over the union: a term the delta does not touch is
         copied verbatim, and when the new doc_ids follow the live ones
         (the usual update) the delta's postings of a term it does
         touch are encoded and appended to the live bytes, so no live
         posting is decoded. Other terms are rebuilt from their
         decoded rows. Docstore part files are immutable, so the
         merged docstore hard-links the live and delta parts instead of
         rewriting them;
      3. swap the merged result into place (``dest=None``) or leave
         it at ``dest``.

    ``new_docs_ds`` rows follow the build corpus schema and MUST carry
    doc_ids disjoint from the live index's (caller-assigned identity,
    the same contract as `build_index`; an overlapping id would
    double-count its postings, exactly like calling the reference's
    addDocument twice with the same document). Pass ``n_new_docs``,
    e.g. `corpus_num_rows(paths)` for a `read_corpus(paths)` dataset:
    without it ``new_docs_ds.count()`` runs, which reads the new
    documents a second time.

    Tombstone semantics follow `merge_indexes`: terms tombstoned on
    the live index are PHYSICALLY dropped from the merged result —
    including their occurrences in the new documents (the merge folds
    the union of source tombstones).  To make a previously deleted
    term searchable in new documents, `compact_index` the live index
    first, then add.

    Resumable: the delta's exchange and every merge bucket checkpoint
    by fingerprint, so re-running the same call after a crash completes
    the same update without redoing finished work.  The in-place swap
    is two directory renames at the very end (live -> ``.old``,
    merged -> live); a re-run that finds live missing, ``.old``
    present and ``.merged`` committed by this same update (its
    ``merged_from`` names this index and work dir, and the delta's
    exchange holds this call's fingerprint) finishes the swap without
    reading the new documents; any other state of that window raises
    ValueError.  Returns the merged meta dict, whose
    ``phase_a_tokenize_exchange_sec`` / ``merge_sec`` / ``docstore_sec``
    time the three stages and whose ``merge_terms_copied`` /
    ``merge_terms_appended`` / ``merge_terms_rebuilt`` /
    ``merge_postings_decoded`` count the merge's work.
    """
    from ..stages.merge import merge_indexes

    delta_dir = work_dir or index_dir + ".delta"
    merged_dir = dest or index_dir + ".merged"
    old = index_dir + ".old"
    # live is missing only between the swap's two renames
    swapping = dest is None and not os.path.exists(index_dir) and os.path.isdir(old)
    live = old if swapping else index_dir
    meta = load_meta(live)
    has_docstore = os.path.isdir(os.path.join(live, "docstore"))
    n_docs = new_docs_ds.count() if n_new_docs is None else n_new_docs
    delta_fp = f"delta:{fingerprint}:{meta['fingerprint']}:{n_docs}"
    if swapping:
        return _finish_swap(index_dir, merged_dir, delta_dir,
                            _exchange_fp(delta_fp, has_docstore))
    timings: dict[str, float] = {}
    write_exchange(
        new_docs_ds,
        delta_dir,
        fingerprint=delta_fp,
        n_docs=n_docs,
        analyzer=meta["analyzer"],
        num_buckets=meta["num_buckets"],
        positional=bool(meta.get("positional")),
        write_docstore=has_docstore,
        wordbreak_dict_path=meta.get("wordbreak_dict_path"),
        timings=timings,
    )
    merged = merge_indexes(
        [index_dir], merged_dir, deltas=[delta_dir], merge_docstore=has_docstore,
        timings=timings,
    )
    if dest is None:
        shutil.rmtree(old, ignore_errors=True)
        os.rename(index_dir, old)
        os.rename(merged_dir, index_dir)
        shutil.rmtree(old, ignore_errors=True)
    shutil.rmtree(delta_dir, ignore_errors=True)
    return merged


def _finish_swap(index_dir: str, merged_dir: str, delta_dir: str, delta_fp: str) -> dict:
    """The end of an `add_documents` swap that stopped after moving the
    live index to ``.old``: when ``merged_dir`` holds the committed
    merge of `index_dir` with the delta at `delta_dir`, whose exchange
    carries `delta_fp`, move it into place, clean up and return its
    meta; otherwise raise ValueError."""
    old = index_dir + ".old"
    try:
        merged = load_meta(merged_dir)
        ours = (merged.get("merged_from") == [index_dir, delta_dir]
                and load_exchange_meta(delta_dir).get("fingerprint") == delta_fp)
    except (OSError, ValueError):
        ours = False
    if not ours:
        raise ValueError(
            f"{index_dir} is missing and {old} holds the index before an update, but "
            f"{merged_dir} and {delta_dir} hold no committed merge of this update")
    os.rename(merged_dir, index_dir)
    shutil.rmtree(old, ignore_errors=True)
    shutil.rmtree(delta_dir, ignore_errors=True)
    return merged
