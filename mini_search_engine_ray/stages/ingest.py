"""Tokenize + explode: the ingestion `map_batches` stage.

Stateful actor-pool stage (`map_batches(TokenizeExplode, concurrency=N,
batch_format="pyarrow")`): the analyzer (stemmer memo-cache, compiled
regexes, word-break dictionary) is built ONCE per actor in `__init__`;
each `__call__` turns an Arrow batch of documents into exploded posting
rows `(term, shard, doc_id, tf, doc_len[, positions])` — one row per
distinct (term, doc) pair, replacing the reference's per-document
`addDocument` + `countTokens` loop
(`index/inverted/InvertedIndexManager.java:162-209`) and its positional
re-analysis (`utils/Utils.java:186-201` — here positions come from the
same single pass).

Vectorization: tokenizing is pyarrow.compute (utf8_lower +
split_pattern_regex over the whole batch, zero-copy from the object
store); stemming touches only the batch's *unique* tokens via
dictionary encoding (memoized across batches per actor); tf / positions
/ doc_len come from one numpy lexsort-and-runs pass. No per-row Python
in the punctuation/code paths.

Skew (north rule): the shard key is `hash(term) % num_buckets` salted
by `doc_id % salt` -> `shard = bucket * salt + (doc_id % salt)`, so a
hot term's postings spread over `salt` sub-shards that the compaction
stage (stages/merge.py) or the searcher merges back in doc_id order.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.analyzers import make_analyzer
from ..functions.porter import PorterStemmer
from ..functions.stopwords import STOP_WORDS
from ..functions.tokenizers import (
    CAMEL_1_RE2,
    CAMEL_2_RE2,
    JAVA_TRIM_CHARS,
    NON_IDENT_RE2,
    PUNCT_SPLIT_RE2,
)

_STOPWORDS_PA = pa.array(sorted(STOP_WORDS))


def term_bucket(term: str, num_buckets: int) -> int:
    """Deterministic term -> bucket hash (stable across processes)."""
    return int.from_bytes(hashlib.blake2b(term.encode(), digest_size=8).digest(), "big") % num_buckets


_TE_CACHE: dict[tuple, "TokenizeExplode"] = {}


def tokenize_explode_task(batch: pa.Table, **kw) -> pa.Table:
    """Stateless-task variant of TokenizeExplode for light-state
    analyzers: the kernel instance (stemmer memo cache, compiled
    regexes) is cached in a module global, so Ray's REUSED worker
    processes keep it warm across tasks and across builds — actor-pool
    amortization without actor-spawn churn, and task counts scale
    elastically with available CPUs. Heavy-state analyzers (word-break
    dictionaries) should keep the actor-pool path."""
    key = tuple(sorted(kw.items()))
    te = _TE_CACHE.get(key)
    if te is None:
        te = TokenizeExplode(**kw)
        if len(_TE_CACHE) < 32:
            _TE_CACHE[key] = te
    return te(batch)


class TokenizeExplode:
    """Callable-class stage for `map_batches` actor pools."""

    def __init__(
        self,
        analyzer: str = "composable",
        *,
        num_buckets: int = 16,
        salt: int = 1,
        positional: bool = False,
        pack: bool = True,
        wordbreak_dict_path: str | None = None,
    ) -> None:
        self.analyzer_name = analyzer
        self.num_buckets = num_buckets
        self.salt = max(1, salt)
        self.positional = positional
        self.pack = pack
        self._stemmer = PorterStemmer()
        self._bucket_cache: dict[str, int] = {}
        self._vector_path = analyzer in ("composable", "punctuation", "code", "code_nostem", "naive")
        if not self._vector_path:
            kw = (
                {"dict_path": wordbreak_dict_path}
                if analyzer.startswith("wordbreak") or analyzer == "japanese"
                else {}
            )
            self._analyzer = make_analyzer(analyzer, **kw)
        self._stem_tokens = analyzer in ("composable", "code")

    # -- tokenization (vectorized) -------------------------------------

    def _tokens_vector(self, content: pa.Array) -> tuple[np.ndarray, pa.Array]:
        """content -> (parent_doc_index per token, token values)."""
        name = self.analyzer_name
        lower_after = False
        if name in ("composable", "punctuation"):
            # Java-trim parity (see tokenizers.JAVA_TRIM_CHARS): strips
            # end-of-doc control chars the split class doesn't cover
            arr = pc.utf8_lower(pc.utf8_trim(content, characters=JAVA_TRIM_CHARS))
            toks = pc.split_pattern_regex(arr, pattern=PUNCT_SPLIT_RE2)
            drop_stop, min_len = True, 1
        elif name in ("code", "code_nostem"):
            arr = pc.replace_substring_regex(content, pattern=CAMEL_1_RE2, replacement=r"\1 \2")
            arr = pc.replace_substring_regex(arr, pattern=CAMEL_2_RE2, replacement=r"\1 \2")
            arr = pc.utf8_lower(arr)
            toks = pc.split_pattern_regex(arr, pattern=NON_IDENT_RE2)
            drop_stop, min_len = True, 2
        else:  # naive
            arr = pc.utf8_lower(content)
            toks = pc.split_pattern_regex(arr, pattern="[ \\t\\n\\x0B\\f\\r]+")
            drop_stop, min_len = False, 1
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        values = toks.flatten()
        mask = pc.greater_equal(pc.utf8_length(values), min_len) if min_len > 1 else pc.not_equal(values, "")
        if min_len > 1:
            mask = pc.and_(mask, pc.not_equal(values, ""))
        if drop_stop:
            mask = pc.and_(mask, pc.invert(pc.is_in(values, value_set=_STOPWORDS_PA)))
        keep = mask.to_numpy(zero_copy_only=False)
        return parents[keep], values.filter(mask)

    def _tokens_python(self, content: pa.Array) -> tuple[np.ndarray, pa.Array]:
        parents, values = [], []
        for i, text in enumerate(content.to_pylist()):
            for t in self._analyzer.analyze(text):
                parents.append(i)
                values.append(t)
        return np.asarray(parents, dtype=np.int64), pa.array(values, type=pa.string())

    # -- the batch kernel ----------------------------------------------

    def __call__(self, batch: pa.Table) -> pa.Table:
        content = batch["content"]
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)

        if self._vector_path:
            parents, values = self._tokens_vector(content)
        else:
            parents, values = self._tokens_python(content)

        if len(parents) == 0:
            if self.pack:
                cols = {
                    "shard": pa.array([], type=pa.int32()),
                    "vocab": pa.array([], type=pa.list_(pa.string())),
                    "codes": pa.array([], type=pa.list_(pa.int32())),
                    "doc_ids": pa.array([], type=pa.list_(pa.int64())),
                    "tfs": pa.array([], type=pa.list_(pa.int32())),
                    "dls": pa.array([], type=pa.list_(pa.int32())),
                }
                if self.positional:
                    cols["pos"] = pa.array([], type=pa.list_(pa.int32()))
                return pa.table(cols)
            cols = {
                "term": pa.DictionaryArray.from_arrays(
                    pa.array([], type=pa.int32()), pa.array([], type=pa.string())
                ),
                "shard": pa.array([], type=pa.int32()),
                "doc_id": pa.array([], type=pa.int64()),
                "tf": pa.array([], type=pa.int32()),
                "doc_len": pa.array([], type=pa.int32()),
            }
            if self.positional:
                cols["positions"] = pa.array([], type=pa.list_(pa.int32()))
            return pa.table(cols)

        # unique-token stemming via dictionary encoding
        dict_arr = values.dictionary_encode()
        codes = dict_arr.indices.to_numpy(zero_copy_only=False)
        vocab = dict_arr.dictionary.to_pylist()
        if self._stem_tokens and not self._vector_path_already_stemmed():
            stem = self._stemmer.stem
            vocab = [stem(v) for v in vocab]
        # merge tokens that stem to the same term
        uniq_terms, remap = np.unique(np.asarray(vocab, dtype=object), return_inverse=True)
        term_codes = remap[codes]

        # positions in the analyzed stream + doc lengths (one numpy pass)
        n_tok = len(parents)
        doc_start = np.flatnonzero(np.r_[True, parents[1:] != parents[:-1]])
        run_len = np.diff(np.r_[doc_start, n_tok])
        positions = (np.arange(n_tok) - np.repeat(doc_start, run_len)).astype(np.int32)
        doc_len_by_row = np.bincount(parents, minlength=batch.num_rows).astype(np.int32)

        # group by (doc, term): runs after lexsort
        order = np.lexsort((positions, term_codes, parents))
        g_par = parents[order]
        g_term = term_codes[order]
        g_pos = positions[order]
        boundary = np.r_[True, (g_par[1:] != g_par[:-1]) | (g_term[1:] != g_term[:-1])]
        starts = np.flatnonzero(boundary)
        tf = np.diff(np.r_[starts, n_tok]).astype(np.int32)
        r_par = g_par[starts]
        r_term = g_term[starts]

        # shard = bucket(term) * salt + doc_id % salt
        buckets = np.fromiter(
            (self._bucket(t) for t in uniq_terms), count=len(uniq_terms), dtype=np.int64
        )
        r_doc = doc_ids[r_par]
        shard = (buckets[r_term] * self.salt + (r_doc % self.salt)).astype(np.int32)

        r_dl = doc_len_by_row[r_par]

        if self.pack:
            return self._packed_table(
                shard, r_term, r_doc, tf, r_dl, uniq_terms, g_pos, starts, n_tok
            )

        # exploded format: one row per (term, doc) posting; term column
        # dictionary-encoded so the shuffle ships each unique term once
        # per block instead of one string per posting row
        term_col = pa.DictionaryArray.from_arrays(
            pa.array(r_term, type=pa.int32()), pa.array(uniq_terms.tolist(), type=pa.string())
        )
        cols = {
            "term": term_col,
            "shard": pa.array(shard),
            "doc_id": pa.array(r_doc),
            "tf": pa.array(tf),
            "doc_len": pa.array(r_dl),
        }
        if self.positional:
            offsets = np.r_[starts, n_tok].astype(np.int32)
            cols["positions"] = pa.ListArray.from_arrays(
                pa.array(offsets, type=pa.int32()), pa.array(g_pos, type=pa.int32())
            )
        return pa.table(cols)

    def _packed_table(self, shard, r_term, r_doc, tf, r_dl, uniq_terms, g_pos, starts, n_tok) -> pa.Table:
        """Pack posting rows into ONE row per (batch, shard) with list
        columns — the pre-aggregated exchange format. The exchange
        then moves thousands of chunky fragment rows instead of tens of
        millions of posting rows (see stages/shards._unpack_packed for
        the inverse)."""
        order2 = np.argsort(shard, kind="stable")
        s_shard = shard[order2]
        n_post = len(s_shard)
        frag_starts = np.flatnonzero(np.r_[True, s_shard[1:] != s_shard[:-1]])
        frag_off = np.r_[frag_starts, n_post].astype(np.int32)
        p_term = r_term[order2]
        p_doc = r_doc[order2]
        p_tf = tf[order2]
        p_dl = r_dl[order2]

        vocab_chunks, code_chunks, vocab_lens = [], [], []
        for f in range(len(frag_starts)):
            sl = slice(frag_off[f], frag_off[f + 1])
            vc, local = np.unique(p_term[sl], return_inverse=True)
            vocab_chunks.append(uniq_terms[vc])
            code_chunks.append(local.astype(np.int32))
            vocab_lens.append(len(vc))
        vocab_vals = np.concatenate(vocab_chunks) if vocab_chunks else np.empty(0, dtype=object)
        vocab_off = np.r_[0, np.cumsum(vocab_lens)].astype(np.int32)
        code_vals = np.concatenate(code_chunks) if code_chunks else np.empty(0, np.int32)

        def lst(vals: pa.Array, off: np.ndarray) -> pa.ListArray:
            return pa.ListArray.from_arrays(pa.array(off, type=pa.int32()), vals)

        cols = {
            "shard": pa.array(s_shard[frag_starts], type=pa.int32()),
            "vocab": lst(pa.array(vocab_vals.tolist(), type=pa.string()), vocab_off),
            "codes": lst(pa.array(code_vals, type=pa.int32()), frag_off),
            "doc_ids": lst(pa.array(p_doc, type=pa.int64()), frag_off),
            "tfs": lst(pa.array(p_tf, type=pa.int32()), frag_off),
            "dls": lst(pa.array(p_dl, type=pa.int32()), frag_off),
        }
        if self.positional:
            # gather each posting's positions (tf of them) in order2 order
            pos_off = np.r_[starts, n_tok].astype(np.int64)
            g_lens = tf[order2].astype(np.int64)
            new_off = np.r_[0, np.cumsum(g_lens)]
            idx = np.repeat(pos_off[:-1][order2], g_lens) + (
                np.arange(new_off[-1]) - np.repeat(new_off[:-1], g_lens)
            )
            p_posflat = g_pos[idx]
            pos_frag_off = new_off[frag_off].astype(np.int32)
            cols["pos"] = lst(pa.array(p_posflat, type=pa.int32()), pos_frag_off)
        return pa.table(cols)

    def _vector_path_already_stemmed(self) -> bool:
        return False  # vector tokenizers never stem; stemming is the dictionary pass

    def _bucket(self, term: str) -> int:
        b = self._bucket_cache.get(term)
        if b is None:
            b = term_bucket(term, self.num_buckets)
            if len(self._bucket_cache) < 1_000_000:
                self._bucket_cache[term] = b
        return b
