"""Posting-list codecs: delta + big-endian base-128 varint, and naive
4-byte big-endian ints.

Byte-format parity with the reference
(`index/positional/DeltaVarLenCompressor.java:14-92`,
`index/positional/NaiveCompressor.java:14-28`; golden byte vectors in
`test/.../Team3CompressorTest.java:22-56`):

  * delta-encode (first value absolute, ascending input assumed for the
    delta variant), then each value as big-endian base-128 varint:
    7-bit groups most-significant first, continuation bit 0x80 set on
    every byte except the last; value 0 -> single 0x00.
  * naive: 4-byte big-endian two's-complement ints.

Everything here is vectorized numpy over whole arrays — `encode_many` /
`decode_many` batch-encode ragged lists via offsets so a shard's entire
postings column is one numpy pass, not a per-term Python loop.
Doc ids are int64-capable (the 10^12-file design point) — varints may
be up to 10 bytes.
"""

from __future__ import annotations

import numpy as np

_THRESHOLDS = [np.uint64(1) << np.uint64(7 * k) for k in range(1, 10)]


def _varint_nbytes(v: np.ndarray) -> np.ndarray:
    """Bytes needed per value (>=1)."""
    v = v.astype(np.uint64, copy=False)
    nb = np.ones(len(v), dtype=np.int64)
    for t in _THRESHOLDS:
        nb += (v >= t).astype(np.int64)
    return nb


def varint_encode(values: np.ndarray | list[int], *, delta: bool = True) -> bytes:
    """Encode ints to delta(optional)+varint bytes. Empty -> b''."""
    v = np.asarray(values, dtype=np.int64)
    if v.size == 0:
        return b""
    if delta:
        d = np.empty_like(v)
        d[0] = v[0]
        np.subtract(v[1:], v[:-1], out=d[1:])
        v = d
    if v.min() < 0:
        raise ValueError("varint requires non-negative (ascending input for delta mode)")
    u = v.astype(np.uint64)
    nb = _varint_nbytes(u)
    total = int(nb.sum())
    starts = np.concatenate(([0], np.cumsum(nb)[:-1]))
    vidx = np.repeat(np.arange(len(u)), nb)
    within = np.arange(total) - np.repeat(starts, nb)
    shifts = ((nb[vidx] - 1 - within) * 7).astype(np.uint64)
    out = ((u[vidx] >> shifts) & np.uint64(0x7F)).astype(np.uint8)
    out[within < nb[vidx] - 1] |= 0x80
    return out.tobytes()


def varint_decode(buf: bytes | memoryview | np.ndarray, *, delta: bool = True) -> np.ndarray:
    """Decode varint bytes back to int64 values."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size == 0:
        return np.empty(0, dtype=np.int64)
    is_last = (b & 0x80) == 0
    ends = np.flatnonzero(is_last)
    starts = np.concatenate(([0], ends[:-1] + 1))
    # shift of each byte = 7 * (end_of_its_group - index)
    group_of = np.cumsum(np.concatenate(([0], is_last[:-1].astype(np.int64))))
    shifts = (7 * (ends[group_of] - np.arange(b.size))).astype(np.uint64)
    contrib = (b & np.uint8(0x7F)).astype(np.uint64) << shifts
    vals = np.add.reduceat(contrib, starts).astype(np.int64)
    if delta:
        vals = np.cumsum(vals)
    return vals


def varint_decode_slice(buf, start: int, length: int, *, delta: bool = True) -> np.ndarray:
    """Decode a (start, length) byte slice holding whole varint values —
    the reference's partial-decode API (`DeltaVarLenCompressor.java:61-92`)."""
    return varint_decode(memoryview(buf)[start : start + length], delta=delta)


def naive_encode(values: np.ndarray | list[int]) -> bytes:
    """4-byte big-endian ints (reference NaiveCompressor).  The 4-byte
    format is inherently int32; values outside that range raise rather
    than silently wrapping (the varint/PForDelta codecs are the
    int64-capable paths)."""
    v = np.asarray(values, dtype=np.int64)
    if len(v) and (int(v.max(initial=0)) > 2**31 - 1 or int(v.min(initial=0)) < -(2**31)):
        raise ValueError("naive codec is 4-byte int32; value out of range")
    return v.astype(np.int32).astype(">i4").tobytes()


def naive_decode(buf) -> np.ndarray:
    return np.frombuffer(buf, dtype=">i4").astype(np.int64)


class Compressor:
    """Plugin surface mirroring the reference's `Compressor` interface
    (`index/positional/Compressor.java:5-28`): encode(list[int]) ->
    bytes, decode(bytes[, start, length]) -> list[int]."""

    def __init__(self, *, delta: bool = True) -> None:
        self.delta = delta

    def encode(self, integers) -> bytes:
        return varint_encode(integers, delta=self.delta)

    def decode(self, buf, start: int = 0, length: int | None = None):
        if length is None:
            length = len(buf) - start
        return varint_decode_slice(buf, start, length, delta=self.delta).tolist()


class DeltaVarLenCompressor(Compressor):
    """Delta + big-endian base-128 varint (byte-identical to the
    reference's `DeltaVarLenCompressor`)."""


class NaiveCompressor(Compressor):
    """4-byte big-endian ints, no compression."""

    def encode(self, integers) -> bytes:
        return naive_encode(integers)

    def decode(self, buf, start: int = 0, length: int | None = None):
        if length is None:
            length = len(buf) - start
        return naive_decode(memoryview(buf)[start : start + length]).tolist()


# -- PForDelta (patched frame-of-reference, north-star named codec) ----
#
# Block format (little-endian bit packing, blocks of up to 128 values):
#   [n_vals:1B][b:1B][n_exc:1B]
#   [bit-packed n_vals x b-bit low parts : ceil(n_vals*b/8) bytes]
#   [exception positions: n_exc x 1B]
#   [exception high parts (value >> b), varint (no delta)]
# b is chosen per block to minimize encoded size (cost-scan over all
# candidate widths); values whose width exceeds b become exceptions
# patched from their stored high parts. Delta handling mirrors
# varint_encode(delta=True): first value absolute, ascending input.

PFOR_BLOCK = 128


def _pfor_encode_block(v: np.ndarray) -> bytes:
    n = len(v)
    u = v.astype(np.uint64)
    # bit width per value (vectorized binary clz)
    width = np.zeros(n, dtype=np.int64)
    tmp = u.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        big = tmp >= (np.uint64(1) << np.uint64(shift))
        width[big] += shift
        tmp[big] >>= np.uint64(shift)
    width += 1  # value 0 -> width 1 slot is fine (b >= 1 when n > 0)
    best_b, best_cost = 64, None
    for b in range(1, 65):
        exc = width > b
        n_exc = int(exc.sum())
        if n_exc > 255:
            continue
        high = u[exc] >> np.uint64(b)
        exc_bytes = n_exc + int(_varint_nbytes(high).sum()) if n_exc else 0
        cost = 3 + (n * b + 7) // 8 + exc_bytes
        if best_cost is None or cost < best_cost:
            best_b, best_cost = b, cost
    b = best_b
    exc = width > b
    positions = np.flatnonzero(exc)
    mask = (np.uint64(1) << np.uint64(b)) - np.uint64(1) if b < 64 else np.uint64(0xFFFFFFFFFFFFFFFF)
    low = u & mask
    # little-endian bitpack: (n, b) bit matrix -> packbits
    bits = ((low[:, None] >> np.arange(b, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(np.uint8)
    packed = np.packbits(bits.reshape(-1), bitorder="little").tobytes()
    out = bytes([n, b, len(positions)]) + packed + bytes(positions.astype(np.uint8).tolist())
    if len(positions):
        out += varint_encode((u[positions] >> np.uint64(b)).astype(np.int64), delta=False)
    return out


def _pfor_decode_block(buf: memoryview, off: int) -> tuple[np.ndarray, int]:
    n, b, n_exc = buf[off], buf[off + 1], buf[off + 2]
    off += 3
    nbytes = (n * b + 7) // 8
    bits = np.unpackbits(np.frombuffer(buf[off : off + nbytes], dtype=np.uint8), bitorder="little")
    off += nbytes
    vals = (bits[: n * b].reshape(n, b).astype(np.uint64)
            << np.arange(b, dtype=np.uint64)[None, :]).sum(axis=1, dtype=np.uint64)
    if n_exc:
        pos = np.frombuffer(buf[off : off + n_exc], dtype=np.uint8).astype(np.int64)
        off += n_exc
        # high parts: n_exc varints. Bound the terminator scan to the
        # maximum possible span (10 bytes per varint) — scanning the
        # whole remaining buffer per block would make multi-block
        # decode O(n^2).
        window = min(len(buf) - off, 10 * int(n_exc))
        raw = np.frombuffer(buf[off : off + window], dtype=np.uint8)
        ends = np.flatnonzero((raw & 0x80) == 0)[:n_exc]
        if len(ends) < n_exc:
            raise ValueError("truncated PForDelta block: missing exception varints")
        span = int(ends[-1]) + 1
        high = varint_decode(buf[off : off + span], delta=False).astype(np.uint64)
        off += span
        vals[pos] |= high << np.uint64(b)
    return vals.view(np.int64), off


def pfordelta_encode(values, *, delta: bool = True) -> bytes:
    """Encode ints as patched frame-of-reference blocks (PForDelta)."""
    v = np.asarray(values, dtype=np.int64)
    if v.size == 0:
        return b""
    if delta:
        d = np.empty_like(v)
        d[0] = v[0]
        np.subtract(v[1:], v[:-1], out=d[1:])
        v = d
    if v.min() < 0:
        raise ValueError("PForDelta requires non-negative (ascending input for delta mode)")
    out = []
    for s in range(0, len(v), PFOR_BLOCK):
        out.append(_pfor_encode_block(v[s : s + PFOR_BLOCK]))
    return b"".join(out)


def pfordelta_decode(buf, *, delta: bool = True) -> np.ndarray:
    # unsigned view: a memoryview of a pyarrow Buffer is signed ('b'),
    # which would read header bytes >= 128 (a full block's count) as < 0
    b = memoryview(buf).cast("B")
    if len(b) == 0:
        return np.empty(0, dtype=np.int64)
    parts = []
    off = 0
    while off < len(b):
        vals, off = _pfor_decode_block(b, off)
        parts.append(vals)
    v = np.concatenate(parts)
    return np.cumsum(v) if delta else v


def pfor_encode_many(flat: np.ndarray, offsets: np.ndarray, *, delta: bool = True) -> tuple[bytes, np.ndarray]:
    """Ragged-batch PForDelta: encode each list independently (per-list
    delta, first value absolute). Returns (bytes, byte_offsets[n+1]) —
    same contract as `encode_many`. Per-list Python loop (the default
    varint path stays the one-pass vectorized encoder; this codec is an
    opt-in density trade)."""
    flat = np.asarray(flat, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    n = len(offsets) - 1
    chunks: list[bytes] = []
    byte_off = np.zeros(n + 1, dtype=np.int64)
    for i in range(n):
        enc = pfordelta_encode(flat[offsets[i] : offsets[i + 1]], delta=delta)
        chunks.append(enc)
        byte_off[i + 1] = byte_off[i] + len(enc)
    return b"".join(chunks), byte_off


def pfor_decode_many(buf, byte_offsets: np.ndarray, *, delta: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of pfor_encode_many: (flat values, value offsets)."""
    mv = memoryview(buf)
    byte_offsets = np.asarray(byte_offsets, dtype=np.int64)
    n = len(byte_offsets) - 1
    parts = []
    val_off = np.zeros(n + 1, dtype=np.int64)
    for i in range(n):
        v = pfordelta_decode(mv[byte_offsets[i] : byte_offsets[i + 1]], delta=delta)
        parts.append(v)
        val_off[i + 1] = val_off[i] + len(v)
    flat = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    return flat, val_off


# -- ragged batch encode/decode (whole shard column in one pass) -------


def encode_many(flat: np.ndarray, offsets: np.ndarray, *, delta: bool = True) -> tuple[bytes, np.ndarray]:
    """Encode many lists given as (flat values, offsets[n+1]).

    With delta=True each list is delta-encoded independently (its first
    value stays absolute). Returns (concatenated bytes, byte_offsets[n+1])
    so list i's encoding is bytes[byte_offsets[i]:byte_offsets[i+1]].
    One vectorized pass over the entire flat array.
    """
    flat = np.asarray(flat, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    n = len(offsets) - 1
    if flat.size == 0:
        return b"", np.zeros(n + 1, dtype=np.int64)
    v = flat
    if delta:
        d = np.empty_like(v)
        d[0] = v[0]
        np.subtract(v[1:], v[:-1], out=d[1:])
        starts = offsets[:-1]
        nonempty = starts[starts < offsets[1:]]
        d[nonempty] = v[nonempty]  # list heads stay absolute
        v = d
    if v.min() < 0:
        raise ValueError("varint requires non-negative values per list")
    u = v.astype(np.uint64)
    nb = _varint_nbytes(u)
    cum_nb = np.concatenate(([0], np.cumsum(nb)))
    byte_off = cum_nb[offsets]
    total = int(nb.sum())
    vstarts = np.concatenate(([0], np.cumsum(nb)[:-1]))
    vidx = np.repeat(np.arange(len(u)), nb)
    within = np.arange(total) - np.repeat(vstarts, nb)
    shifts = ((nb[vidx] - 1 - within) * 7).astype(np.uint64)
    out = ((u[vidx] >> shifts) & np.uint64(0x7F)).astype(np.uint8)
    out[within < nb[vidx] - 1] |= 0x80
    return out.tobytes(), byte_off


def decode_many(buf, byte_offsets: np.ndarray, *, delta: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of encode_many: returns (flat values, value offsets)."""
    b = np.frombuffer(buf, dtype=np.uint8)
    byte_offsets = np.asarray(byte_offsets, dtype=np.int64)
    if b.size == 0:
        return np.empty(0, dtype=np.int64), np.zeros(len(byte_offsets), dtype=np.int64)
    is_last = (b & 0x80) == 0
    ends = np.flatnonzero(is_last)
    starts = np.concatenate(([0], ends[:-1] + 1))
    group_of = np.cumsum(np.concatenate(([0], is_last[:-1].astype(np.int64))))
    shifts = (7 * (ends[group_of] - np.arange(b.size))).astype(np.uint64)
    contrib = (b & np.uint8(0x7F)).astype(np.uint64) << shifts
    deltas = np.add.reduceat(contrib, starts).astype(np.int64)
    # values-per-list from byte offsets: count terminators in each span
    last_cum = np.concatenate(([0], np.cumsum(is_last)))
    val_off = last_cum[byte_offsets]
    if not delta:
        return deltas, val_off
    # cumsum globally, then re-absolutize each list by subtracting the
    # running total just before its head (heads were stored absolute).
    cum = np.cumsum(deltas)
    heads = val_off[:-1]
    lengths = np.diff(val_off)
    corr_per_list = np.where(heads > 0, cum[np.maximum(heads - 1, 0)], 0)
    vals = cum - np.repeat(corr_per_list, lengths)
    return vals, val_off


# codec registry for the shard layer (shards record their codec in the
# Arrow schema metadata; readers dispatch through this table) —
# ONE place to register a codec: (encode_many, decode_many, decode_one)
CODECS = {
    "varint": (encode_many, decode_many, varint_decode),
    "pfordelta": (pfor_encode_many, pfor_decode_many, pfordelta_decode),
}
MANY_CODECS = {k: (e, d) for k, (e, d, _) in CODECS.items()}


def single_decoder(codec: str):
    """Single-buffer decoder for a registered codec name."""
    try:
        return CODECS[codec][2]
    except KeyError:
        raise ValueError(f"unknown posting codec {codec!r}") from None
