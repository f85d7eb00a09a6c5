"""PForDelta codec: golden bytes (hand-derived), round-trips, density
vs varint. North-star names "varint/PForDelta" — varint is the
byte-identical reference codec (C1/C2); PForDelta is the opt-in shard
block codec (`pfor_encode_many` / `pfor_decode_many`)."""

from __future__ import annotations

import numpy as np
import pytest

from mini_search_engine_ray.functions.codecs import (
    PFOR_BLOCK,
    pfordelta_decode,
    pfordelta_encode,
    varint_encode,
)


class TestGolden:
    def test_six_ones_hand_derived(self):
        """[1..6] delta -> deltas all 1: header (n=6, b=1, exc=0) then
        six 1-bits packed little-endian = 0x3f."""
        assert pfordelta_encode([1, 2, 3, 4, 5, 6]).hex() == "0601003f"

    def test_zero(self):
        assert pfordelta_encode([0]).hex() == "01010000"

    def test_empty(self):
        assert pfordelta_encode([]) == b""
        assert pfordelta_decode(b"").tolist() == []

    def test_outlier_patched_as_exception(self):
        """[1,1,1,1000000] (no delta): b=1 frame, low bits 0b0111=0x07,
        one exception at position 3 with high part 500000 varint
        9e c2 20 — hand-derived byte for byte."""
        assert pfordelta_encode([1, 1, 1, 1000000], delta=False).hex() == \
            "04010107039ec220"

    def test_powers(self):
        assert pfordelta_encode([128, 384, 896, 1920, 3968]).hex() == \
            "050c008000100002400008"


class TestRoundTrip:
    @pytest.mark.parametrize("n", [0, 1, 2, PFOR_BLOCK - 1, PFOR_BLOCK,
                                   PFOR_BLOCK + 1, 2 * PFOR_BLOCK + 5, 1000])
    def test_block_boundaries(self, n):
        rng = np.random.default_rng(n)
        v = np.cumsum(rng.integers(1, 1000, n)) if n else np.empty(0, np.int64)
        assert pfordelta_decode(pfordelta_encode(v)).tolist() == v.tolist()

    def test_int64_range(self):
        v = [0, 2**31 - 1, 2**40, 2**40 + 7, 2**62]
        assert pfordelta_decode(pfordelta_encode(v)).tolist() == v

    def test_fuzz_mixed_distributions(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(0, 500))
            hi = int(rng.choice([2, 16, 2**10, 2**30]))
            v = np.cumsum(rng.integers(1, hi, n)) if n else np.empty(0, np.int64)
            assert pfordelta_decode(pfordelta_encode(v)).tolist() == v.tolist()

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            pfordelta_encode([5, 3])  # descending -> negative delta


class TestPlugin:
    def test_denser_than_varint_on_uniform_gaps(self):
        """Posting-list-gap-like data: fixed-b frames beat >=1 byte per
        value (the reason the codec exists)."""
        rng = np.random.default_rng(4)
        docs = np.cumsum(rng.integers(1, 64, 50_000))
        assert len(pfordelta_encode(docs)) < len(varint_encode(docs))
