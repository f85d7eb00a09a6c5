"""mini_search_engine_ray — a Ray-Data-native full-text index + query engine.

A from-scratch rebuild (NOT a port) of the capabilities of the reference
`Haixiang6123/mini-search-engine` (see SURVEY.md): text analysis
(punctuation / word-break tokenizers, Porter stemming, stopword
filtering), an inverted index with delta+varint-compressed posting
lists, positional postings, sorted segment merge, keyword/AND/OR/phrase
search, TF-IDF and BM25 top-k ranking, PageRank and score fusion —
re-expressed as `ray.data.Dataset` pipelines: `map_batches` over
zero-copy Arrow batches, a salted shard-partitioned exchange for posting-list
construction, immutable Parquet index shards with per-block max-score
metadata and resumable per-partition checkpoints, and stateful actor
pools for query serving.

Layout:
  functions/  pure, Ray-free kernels (tokenizers, stemmer, codecs,
              scoring, sketches) — unit-testable in isolation
  sources/    corpus readers / synthesizers / adapters
  stages/     Dataset -> Dataset transforms (ingest, postings, shards,
              merge, dedup, similarity, stats, ...)
  state/      stateful serving components (index searcher actors,
              doc store, tombstones)
  pipelines/  end-to-end compositions (index build, query surface,
              pagerank) + the driver-facing query registry
"""

__version__ = "0.1.0"


def _pin_fsspec_http() -> None:
    """Neutralize a concurrent-import race in this container.

    Ray Data's path resolver calls `from fsspec.implementations.http
    import HTTPFileSystem` on every write/read path resolution, catching
    ModuleNotFoundError (aiohttp is absent here, so the import always
    fails). A FAILED import is never cached, so two threads resolving
    paths at once (e.g. a concurrent docstore write + exchange write,
    or pytest collection alongside a running build) can hit CPython's
    failed-import race and surface a spurious
    `ImportError: cannot import name 'HTTPFileSystem'` that the caller
    does NOT catch — observed as rare one-in-N test-run failures.

    Pinning a sentinel module once, single-threaded, makes every later
    import succeed deterministically; the sentinel class has no
    instances, so Ray's `isinstance(fs, HTTPFileSystem)` checks stay
    correctly False. No-op when aiohttp is installed.
    """
    try:
        import fsspec.implementations.http  # noqa: F401
    except ModuleNotFoundError:
        import sys
        import types

        mod = types.ModuleType("fsspec.implementations.http")

        class HTTPFileSystem:  # sentinel — nothing is ever an instance
            pass

        mod.HTTPFileSystem = HTTPFileSystem
        sys.modules["fsspec.implementations.http"] = mod
        try:
            import fsspec.implementations as _fi

            _fi.http = mod
        except Exception:
            pass
    except Exception:
        pass


_pin_fsspec_http()
