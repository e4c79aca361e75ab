"""Optimised pure-Python crypto kernels (the ``fast`` engine's core).

These implement the exact same primitives as :mod:`repro.crypto.salsa20`,
:mod:`repro.crypto.aes`, :mod:`repro.crypto.gcm` and
:mod:`repro.crypto.cmac` -- byte-identical outputs, same error types --
but optimised for CPython instead of mirroring the specifications:

- **Salsa20**: multi-block messages run the 20-round core *once* for all
  blocks simultaneously, packing one 32-bit state word per block into
  64-bit lanes of a single wide Python integer (a poor man's SIMD: one
  ``+``/``^``/rotate on the wide integer advances every block at once;
  the 64-bit lane leaves headroom so per-lane 32-bit adds never carry
  across lanes).  A single block uses the diagonal layout instead
  (:func:`_salsa_diagonal`): the four independent quarter-rounds of each
  half-round ride the four 64-bit lanes of one 256-bit integer per
  register, with lane rotations between the column and row rounds.
  The plaintext/keystream XOR is one wide-integer operation.
- **AES-128, one block**: each round is sixteen lookups in 256-entry
  byte-position tables, XORed on a 128-bit integer state.  The tables
  fuse SubBytes + ShiftRows + MixColumns per state-byte position
  (derived from the classic four 256-entry T-tables, pre-rotated to
  their output column), so a whole round is
  ``M0[b0]^M1[b1]^...^M15[b15]^rk``.  At about 0.4 MB total they stay
  cache-resident under a real request mix, which beats wider two-byte
  "pair" tables (~50 MB) that thrash the cache on varied inputs.  They
  are key-independent, built lazily once per process, and shared by
  every key.  This loop runs the serial CMAC chain and batches of one
  or two blocks.
- **AES-128, many blocks** (:func:`_aes_lanes`): N independent blocks
  are packed into one big integer, 128 bits per lane, and advance
  together.  SubBytes is one ``bytes.translate`` over every lane;
  ShiftRows and MixColumns (byte rotations and xtime) are shifts and
  ANDs with lane masks replicated to the pass width and cached per
  width (bounded).  Round keys are one schedule broadcast to every lane
  or a different key per lane, expanded together by
  :func:`_lane_key_schedule`.  A round costs about the same at 16 lanes
  as at 4, so the per-block cost falls with width: about 0.55x the
  table loop at one lane, 1.3x at three, 1.5x at four, 3.1-3.5x at
  sixteen and 4.8-5.5x at 128 (``benchmarks/bench_wallclock_crypto.py``).
  :func:`_ecb_many` picks the lane kernel from :data:`_LANE_CROSSOVER`
  blocks up and the table loop below it.
- **GCM**: GHASH uses sixteen per-key, per-byte-position tables built
  from Shoup's 256-entry table, so a block is sixteen lookups XORed
  together with no reduction step, instead of the spec's 128-iteration
  bit loop.  ``seal``/``open`` are the one-item case of
  ``seal_many``/``open_many``: a message set's CTR blocks and J0 tag
  masks share one :func:`_ecb_many` pass (the lane kernel from three
  blocks, which one message of 17 bytes or more already needs), then a
  grouped GHASH pass.
- **CMAC**: every CMAC key is a one-time key, so nothing is cached.  For
  one message, :class:`FastCmac` expands the key with
  :func:`_lane_key_schedule` at one lane, derives the RFC 4493 subkeys,
  and runs the serial CBC chain as one loop over the byte tables with
  the whole message pre-split into 128-bit words.  For a window of
  messages, :func:`aes_cmac_lanes` runs one chain per lane in lockstep:
  each CBC step is one lane pass, every lane under its own key.
- **Window Salsa20**: :func:`salsa20_encrypt_many` packs every block of
  every message of a window into one lane pass of the Salsa20 core,
  each lane's state words taken from its own message's key.

Everything stays within the Python standard library; the cross-engine
parity checks in :mod:`repro.crypto.engine` guarantee these kernels can
never silently diverge from the spec-mirroring reference code.
"""

from __future__ import annotations

import operator
import struct
from array import array
from typing import Dict, List, Tuple

from repro.crypto.aes import SBOX
from repro.crypto.gcm import GcmFailure
from repro.errors import ConfigurationError

__all__ = [
    "FastSalsa20",
    "FastAES128",
    "FastAesGcm",
    "FastCmac",
    "aes_cmac_lanes",
    "salsa20_encrypt_many",
]

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1

# ---------------------------------------------------------------------------
# AES-128 with byte-position round tables on a 128-bit integer state
# ---------------------------------------------------------------------------


def _build_t_tables() -> Tuple[tuple, tuple, tuple, tuple]:
    """Fuse SubBytes + ShiftRows + MixColumns into four lookup tables."""
    t0, t1, t2, t3 = [0] * 256, [0] * 256, [0] * 256, [0] * 256
    for x in range(256):
        e = SBOX[x]
        e2 = ((e << 1) ^ 0x11B if e & 0x80 else e << 1) & 0xFF
        e3 = e2 ^ e
        t0[x] = (e2 << 24) | (e << 16) | (e << 8) | e3
        t1[x] = (e3 << 24) | (e2 << 16) | (e << 8) | e
        t2[x] = (e << 24) | (e3 << 16) | (e2 << 8) | e
        t3[x] = (e << 24) | (e << 16) | (e3 << 8) | e2
    return tuple(t0), tuple(t1), tuple(t2), tuple(t3)


_T0, _T1, _T2, _T3 = _build_t_tables()

# Byte-position round tables: with the state as one 128-bit integer
# (columns s0..s3 most significant first), byte position p (0 = most
# significant) contributes ``M[p][byte]`` to the next state, where
# ``M[p]`` folds SubBytes + ShiftRows + MixColumns for that position
# (derived from the classic T-tables, pre-rotated to its column's
# 32-bit slot), so one middle round is ``M0[b0]^M1[b1]^...^M15[b15]^rk``.
# The N tables do the same for the final round (SubBytes + ShiftRows
# only).  Thirty-two 256-entry tables of 128-bit integers come to a few
# hundred KB -- small enough to stay cache-resident under a real request
# mix, which on varied inputs beats wider tables that fuse two bytes
# per lookup but thrash the cache (measured ~2x per block).
_M0 = _M1 = _M2 = _M3 = _M4 = _M5 = _M6 = _M7 = None
_M8 = _M9 = _M10 = _M11 = _M12 = _M13 = _M14 = _M15 = None
_N0 = _N1 = _N2 = _N3 = _N4 = _N5 = _N6 = _N7 = None
_N8 = _N9 = _N10 = _N11 = _N12 = _N13 = _N14 = _N15 = None


def _ensure_round_tables() -> None:
    """Build the thirty-two 256-entry round tables once per process."""
    global _M0, _M1, _M2, _M3, _M4, _M5, _M6, _M7
    global _M8, _M9, _M10, _M11, _M12, _M13, _M14, _M15
    global _N0, _N1, _N2, _N3, _N4, _N5, _N6, _N7
    global _N8, _N9, _N10, _N11, _N12, _N13, _N14, _N15
    if _M0 is not None:
        return
    t_tables = (_T0, _T1, _T2, _T3)
    s = SBOX
    # Scatter of T0..T3 (and the final round's SBOX byte) for column 0;
    # columns 1..3 are the same tables rotated right by 32 bits each.
    mid_shifts = (96, 0, 32, 64)
    fin_shifts = (120, 16, 40, 64)
    mid = []
    fin = []
    for pos in range(16):
        col, within = divmod(pos, 4)
        rot = 32 * col
        inv = 128 - rot
        t = t_tables[within]
        mshift = mid_shifts[within]
        fshift = fin_shifts[within]
        mtab = [0] * 256
        ftab = [0] * 256
        for x in range(256):
            v = t[x] << mshift
            mtab[x] = ((v >> rot) | (v << inv)) & _MASK128
            fv = s[x] << fshift
            ftab[x] = ((fv >> rot) | (fv << inv)) & _MASK128
        mid.append(tuple(mtab))
        fin.append(tuple(ftab))
    (
        _M0, _M1, _M2, _M3, _M4, _M5, _M6, _M7,
        _M8, _M9, _M10, _M11, _M12, _M13, _M14, _M15,
    ) = mid
    (
        _N0, _N1, _N2, _N3, _N4, _N5, _N6, _N7,
        _N8, _N9, _N10, _N11, _N12, _N13, _N14, _N15,
    ) = fin


# Prebound callable for the hot block loops: skips the bound-method
# creation on every round.
_TOB = int.to_bytes

_RCON_WORDS = (
    0x01000000, 0x02000000, 0x04000000, 0x08000000, 0x10000000,
    0x20000000, 0x40000000, 0x80000000, 0x1B000000, 0x36000000,
)

# Key schedules are tiny (44 ints); cache them so re-keying a session
# cipher never re-expands.  One-time CMAC keys take _lane_key_schedule
# instead and never enter these caches.
_SCHEDULE_CACHE: dict = {}
_SCHEDULE_CACHE_MAX = 1024
_SCHEDULE128_CACHE: Dict[bytes, tuple] = {}


def _expand_key_words(key: bytes) -> List[int]:
    """FIPS-197 key expansion to 44 big-endian 32-bit words."""
    cached = _SCHEDULE_CACHE.get(key)
    if cached is not None:
        return cached
    s = SBOX
    w = list(struct.unpack(">4I", key))
    for i in range(4, 44):
        t = w[i - 1]
        if i % 4 == 0:
            # RotWord + SubWord + Rcon, on a 32-bit word.
            t = (
                (s[(t >> 16) & 0xFF] << 24)
                | (s[(t >> 8) & 0xFF] << 16)
                | (s[t & 0xFF] << 8)
                | s[(t >> 24) & 0xFF]
            ) ^ _RCON_WORDS[i // 4 - 1]
        w.append(w[i - 4] ^ t)
    if len(_SCHEDULE_CACHE) >= _SCHEDULE_CACHE_MAX:
        _SCHEDULE_CACHE.clear()
    _SCHEDULE_CACHE[key] = w
    return w


def _expand_key_128(key: bytes) -> tuple:
    """The key schedule as eleven 128-bit round-key integers."""
    cached = _SCHEDULE128_CACHE.get(key)
    if cached is not None:
        return cached
    w = _expand_key_words(key)
    rk = tuple(
        (w[4 * r] << 96) | (w[4 * r + 1] << 64) | (w[4 * r + 2] << 32) | w[4 * r + 3]
        for r in range(11)
    )
    if len(_SCHEDULE128_CACHE) >= _SCHEDULE_CACHE_MAX:
        _SCHEDULE128_CACHE.clear()
    _SCHEDULE128_CACHE[key] = rk
    return rk


def _encrypt_int(rk: tuple, st: int) -> int:
    """One AES-128 block on a 128-bit integer state (``st`` is the raw
    plaintext block; this applies the ``rk[0]`` whitening itself)."""
    tb = _TOB
    st ^= rk[0]
    for r in rk[1:10]:
        w = tb(st, 16, "big")
        st = (
            _M0[w[0]] ^ _M1[w[1]] ^ _M2[w[2]] ^ _M3[w[3]]
            ^ _M4[w[4]] ^ _M5[w[5]] ^ _M6[w[6]] ^ _M7[w[7]]
            ^ _M8[w[8]] ^ _M9[w[9]] ^ _M10[w[10]] ^ _M11[w[11]]
            ^ _M12[w[12]] ^ _M13[w[13]] ^ _M14[w[14]] ^ _M15[w[15]]
            ^ r
        )
    w = tb(st, 16, "big")
    return (
        _N0[w[0]] ^ _N1[w[1]] ^ _N2[w[2]] ^ _N3[w[3]]
        ^ _N4[w[4]] ^ _N5[w[5]] ^ _N6[w[6]] ^ _N7[w[7]]
        ^ _N8[w[8]] ^ _N9[w[9]] ^ _N10[w[10]] ^ _N11[w[11]]
        ^ _N12[w[12]] ^ _N13[w[13]] ^ _N14[w[14]] ^ _N15[w[15]]
        ^ rk[10]
    )


# ---------------------------------------------------------------------------
# Multi-lane AES-128: N independent blocks advance together in one big int
# ---------------------------------------------------------------------------

# Lane layout: block ``i`` of an N-lane pass occupies bytes
# ``16*i .. 16*i+15`` of the state's big-endian byte string, so lane 0
# is the most significant 128 bits and each lane keeps the 128-bit
# integer convention of :func:`_encrypt_int`.  SubBytes is one
# ``bytes.translate`` over all lanes; ShiftRows and MixColumns are a
# few shift-and-mask operations whose per-lane masks are replicated to
# the pass width and cached by width.
_SBOX_BYTES = bytes(SBOX)

#: Most lanes in one kernel pass; wider inputs run in several passes.
#: Bounds both the big integers (2 KB) and every cached mask set.
_AES_LANE_BATCH = 128
#: Below this many blocks :func:`_ecb_many` keeps the table loop.
#: Measured by :func:`repro.bench.cryptobench.lane_speedups` (one
#: broadcast key; four runs, Python 3.11, shared x86 host): the lane
#: kernel ran at 0.55-0.57x the table loop at one block, 0.92-1.00x at
#: two, 1.27-1.35x at three, 1.5-1.6x at four and 3.1-3.5x at sixteen.
_LANE_CROSSOVER = 3

_LANE_MASKS: Dict[int, tuple] = {}
_LANE_MASKS_MAX = 64


def _replicate(pattern: int, lanes: int) -> int:
    """A 128-bit ``pattern`` copied into every one of ``lanes`` lanes."""
    return int.from_bytes(pattern.to_bytes(16, "big") * lanes, "big")


def _byte_mask(positions) -> int:
    """128-bit mask selecting the given state byte positions (0 = MSB)."""
    mask = 0
    for p in positions:
        mask |= 0xFF << (8 * (15 - p))
    return mask


def _lane_masks(lanes: int) -> tuple:
    """ShiftRows / MixColumns / key-schedule masks at one pass width.

    Returns ``(keep, l32, r32, l64, r64, l96, r96, hi24, lo8, hi16,
    lo16, low7, bit0, ones, low96, low64, low32)``, each replicated to
    ``lanes`` lanes.  The cache is bounded: widths never exceed
    :data:`_AES_LANE_BATCH`, and it is cleared once it holds
    :data:`_LANE_MASKS_MAX` widths.
    """
    masks = _LANE_MASKS.get(lanes)
    if masks is not None:
        return masks
    # ShiftRows moves state byte r + 4*((c + r) % 4) to r + 4*c; group
    # the sixteen moves by distance so each group is one shift and mask.
    moves: Dict[int, list] = {}
    for row in range(4):
        for col in range(4):
            dst = row + 4 * col
            src = row + 4 * ((col + row) % 4)
            moves.setdefault(src - dst, []).append(dst)
    patterns = (
        _byte_mask(moves[0]),
        _byte_mask(moves[4]), _byte_mask(moves[-4]),
        _byte_mask(moves[8]), _byte_mask(moves[-8]),
        _byte_mask(moves[12]), _byte_mask(moves[-12]),
        # Byte rotations within each 32-bit column.
        _byte_mask(p for p in range(16) if p % 4 != 3),
        _byte_mask(range(3, 16, 4)),
        _byte_mask(p for p in range(16) if p % 4 < 2),
        _byte_mask(p for p in range(16) if p % 4 >= 2),
        # xtime: each byte's low seven bits, and its top bit moved to bit 0.
        int.from_bytes(b"\x7f" * 16, "big"), int.from_bytes(b"\x01" * 16, "big"),
        1, _MASK128 >> 32, _MASK128 >> 64, _MASK128 >> 96,
    )
    masks = tuple(_replicate(p, lanes) for p in patterns)
    if len(_LANE_MASKS) >= _LANE_MASKS_MAX:
        _LANE_MASKS.clear()
    _LANE_MASKS[lanes] = masks
    return masks


def _aes_lanes(rks, s: int, lanes: int) -> int:
    """AES-128 on ``lanes`` independent blocks packed in one big int.

    ``rks`` holds eleven lane-wide round keys: one key broadcast to every
    lane (:func:`_broadcast_round_keys`) or a different key per lane
    (:func:`_lane_key_schedule`).  A round is a fixed count of big-int
    operations whatever the lane count, so the per-block cost falls as
    lanes are added.
    """
    (keep, l32, r32, l64, r64, l96, r96,
     hi24, lo8, hi16, lo16, low7, bit0) = _lane_masks(lanes)[:13]
    nbytes = 16 * lanes
    frombytes = int.from_bytes
    sbox = _SBOX_BYTES
    s ^= rks[0]
    for rk in rks[1:10]:
        # SubBytes, then ShiftRows as seven shift-and-mask moves.
        s = frombytes(s.to_bytes(nbytes, "big").translate(sbox), "big")
        s = (
            (s & keep) | ((s << 32) & l32) | ((s >> 32) & r32)
            | ((s << 64) & l64) | ((s >> 64) & r64)
            | ((s << 96) & l96) | ((s >> 96) & r96)
        )
        # MixColumns: b_j = 2(a_j ^ a_j+1) ^ a_j+1 ^ a_j+2 ^ a_j+3 within
        # each column, with byte rotations as masked shifts and xtime as
        # a masked shift plus a conditional 0x1B per byte.
        r1 = ((s << 8) & hi24) | ((s >> 24) & lo8)
        u = s ^ r1
        s = (
            ((u & low7) << 1) ^ (((u >> 7) & bit0) * 0x1B)
            ^ r1 ^ ((u << 16) & hi16) ^ ((u >> 16) & lo16) ^ rk
        )
    s = frombytes(s.to_bytes(nbytes, "big").translate(sbox), "big")
    return (
        (s & keep) | ((s << 32) & l32) | ((s >> 32) & r32)
        | ((s << 64) & l64) | ((s >> 64) & r64)
        | ((s << 96) & l96) | ((s >> 96) & r96)
    ) ^ rks[10]


def _broadcast_round_keys(rk: tuple, lanes: int) -> tuple:
    """One key schedule copied into every lane."""
    ones = _lane_masks(lanes)[13]
    return tuple(r * ones for r in rk)


def _lane_key_schedule(keys: int, lanes: int) -> tuple:
    """FIPS-197 expansion of ``lanes`` different keys at once.

    ``keys`` packs one 16-byte key per lane; the result is the eleven
    lane-wide round keys, lane ``i`` carrying key ``i``'s schedule.
    Nothing is cached: one-time keys never repeat, so a process-wide
    cache would only evict the session keys that do.
    """
    ones, low96, low64, low32 = _lane_masks(lanes)[13:]
    nbytes = 16 * lanes
    sbox = _SBOX_BYTES
    k = keys
    out = [k]
    for rcon in _RCON_WORDS:
        subbed = int.from_bytes(k.to_bytes(nbytes, "big").translate(sbox), "big")
        last = subbed & low32
        # RotWord + SubWord + Rcon on each lane's last word, moved to
        # the lane's first word.
        t = ((((last << 8) | (last >> 24)) & low32) ^ (rcon * ones)) << 96
        # Each word absorbs every word before it in its lane.
        x = k ^ t
        k = x ^ ((x >> 32) & low96) ^ ((x >> 64) & low64) ^ ((x >> 96) & low32)
        out.append(k)
    return tuple(out)


def _pack_lanes(states) -> int:
    """Pack 128-bit integers into lanes, first state most significant."""
    return int.from_bytes(b"".join([s.to_bytes(16, "big") for s in states]), "big")


def _unpack_lanes(s: int, lanes: int) -> list:
    """The 128-bit lane values of ``s``, lane 0 first."""
    raw = s.to_bytes(16 * lanes, "big")
    frombytes = int.from_bytes
    return [frombytes(raw[i : i + 16], "big") for i in range(0, 16 * lanes, 16)]


def _ecb_many(rk: tuple, states) -> list:
    """AES-128 over a list of *independent* 128-bit integer states.

    The batch twin of :func:`_encrypt_int`.  From :data:`_LANE_CROSSOVER`
    blocks up, the blocks run through the multi-lane kernel
    (:func:`_ecb_lanes`); below it, through the byte-table loop
    (:func:`_ecb_table`).  A drained frame set's CTR counter blocks and
    tag masks all flow through one call, which is where the batched
    seal/open kernels earn their keep.
    """
    if len(states) >= _LANE_CROSSOVER:
        return _ecb_lanes(rk, states)
    return _ecb_table(rk, states)


def _ecb_lanes(rk: tuple, states) -> list:
    """``states`` through :func:`_aes_lanes` with ``rk`` in every lane,
    in passes of at most :data:`_AES_LANE_BATCH` lanes."""
    out = []
    for start in range(0, len(states), _AES_LANE_BATCH):
        chunk = states[start : start + _AES_LANE_BATCH]
        lanes = len(chunk)
        rks = _broadcast_round_keys(rk, lanes)
        out.extend(_unpack_lanes(_aes_lanes(rks, _pack_lanes(chunk), lanes), lanes))
    return out


def _ecb_table(rk: tuple, states) -> list:
    """``states`` through the byte tables, one block after another, with
    the thirty-two table locals and eleven round keys bound once."""
    tb = _TOB
    m0, m1, m2, m3 = _M0, _M1, _M2, _M3
    m4, m5, m6, m7 = _M4, _M5, _M6, _M7
    m8, m9, m10, m11 = _M8, _M9, _M10, _M11
    m12, m13, m14, m15 = _M12, _M13, _M14, _M15
    n0, n1, n2, n3 = _N0, _N1, _N2, _N3
    n4, n5, n6, n7 = _N4, _N5, _N6, _N7
    n8, n9, n10, n11 = _N8, _N9, _N10, _N11
    n12, n13, n14, n15 = _N12, _N13, _N14, _N15
    rk0 = rk[0]
    rounds = rk[1:10]
    rk10 = rk[10]
    out = []
    append = out.append
    for st in states:
        st ^= rk0
        for r in rounds:
            w = tb(st, 16, "big")
            st = (
                m0[w[0]] ^ m1[w[1]] ^ m2[w[2]] ^ m3[w[3]]
                ^ m4[w[4]] ^ m5[w[5]] ^ m6[w[6]] ^ m7[w[7]]
                ^ m8[w[8]] ^ m9[w[9]] ^ m10[w[10]] ^ m11[w[11]]
                ^ m12[w[12]] ^ m13[w[13]] ^ m14[w[14]] ^ m15[w[15]]
                ^ r
            )
        w = tb(st, 16, "big")
        append(
            n0[w[0]] ^ n1[w[1]] ^ n2[w[2]] ^ n3[w[3]]
            ^ n4[w[4]] ^ n5[w[5]] ^ n6[w[6]] ^ n7[w[7]]
            ^ n8[w[8]] ^ n9[w[9]] ^ n10[w[10]] ^ n11[w[11]]
            ^ n12[w[12]] ^ n13[w[13]] ^ n14[w[14]] ^ n15[w[15]]
            ^ rk10
        )
    return out


def _cbc_chain(rk: tuple, message: bytes, x: int = 0) -> int:
    """CBC-MAC chain over a block-aligned ``message``, fully unrolled.

    Returns the running 128-bit CBC state after absorbing every 16-byte
    block of ``message`` (which must be a multiple of 16 bytes long).
    This is the serial hot loop of CMAC: everything -- round keys, the
    thirty-two byte tables, the message as pre-combined 128-bit words --
    is a local.
    """
    tb = _TOB
    m0, m1, m2, m3 = _M0, _M1, _M2, _M3
    m4, m5, m6, m7 = _M4, _M5, _M6, _M7
    m8, m9, m10, m11 = _M8, _M9, _M10, _M11
    m12, m13, m14, m15 = _M12, _M13, _M14, _M15
    n0, n1, n2, n3 = _N0, _N1, _N2, _N3
    n4, n5, n6, n7 = _N4, _N5, _N6, _N7
    n8, n9, n10, n11 = _N8, _N9, _N10, _N11
    n12, n13, n14, n15 = _N12, _N13, _N14, _N15
    rk0 = rk[0]
    rounds = rk[1:10]
    # Folding rk0 into the final-round key keeps the chain whitened for
    # the next block without a separate XOR per block.
    r10_0 = rk[10] ^ rk0
    nb = len(message) // 16
    it = iter(struct.unpack(">%dQ" % (2 * nb), message))
    mwords = [(a << 64) | b for a, b in zip(it, it)]
    x ^= rk0
    for m in mwords:
        st = x ^ m
        for r in rounds:
            w = tb(st, 16, "big")
            st = (
                m0[w[0]] ^ m1[w[1]] ^ m2[w[2]] ^ m3[w[3]]
                ^ m4[w[4]] ^ m5[w[5]] ^ m6[w[6]] ^ m7[w[7]]
                ^ m8[w[8]] ^ m9[w[9]] ^ m10[w[10]] ^ m11[w[11]]
                ^ m12[w[12]] ^ m13[w[13]] ^ m14[w[14]] ^ m15[w[15]]
                ^ r
            )
        w = tb(st, 16, "big")
        x = (
            n0[w[0]] ^ n1[w[1]] ^ n2[w[2]] ^ n3[w[3]]
            ^ n4[w[4]] ^ n5[w[5]] ^ n6[w[6]] ^ n7[w[7]]
            ^ n8[w[8]] ^ n9[w[9]] ^ n10[w[10]] ^ n11[w[11]]
            ^ n12[w[12]] ^ n13[w[13]] ^ n14[w[14]] ^ n15[w[15]]
            ^ r10_0
        )
    return x ^ rk0


class FastAES128:
    """Byte-table AES-128 forward cipher; drop-in for :class:`AES128`."""

    BLOCK_SIZE = 16
    KEY_SIZE = 16
    ROUNDS = 10

    def __init__(self, key: bytes):
        if len(key) != self.KEY_SIZE:
            raise ConfigurationError(
                f"AES-128 key must be 16 bytes, got {len(key)}"
            )
        _ensure_round_tables()
        self._rk = _expand_key_128(bytes(key))

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(block) != self.BLOCK_SIZE:
            raise ConfigurationError(
                f"block must be 16 bytes, got {len(block)}"
            )
        return _encrypt_int(self._rk, int.from_bytes(block, "big")).to_bytes(
            16, "big"
        )


# ---------------------------------------------------------------------------
# GCM with per-position GHASH tables
# ---------------------------------------------------------------------------

_R_POLY = 0xE1000000000000000000000000000000


def _mulx(v: int) -> int:
    """Multiply by the formal variable in GCM's bit-reflected basis."""
    return (v >> 1) ^ _R_POLY if v & 1 else v >> 1


def _build_reduction_table() -> tuple:
    """Key-independent table: ``R[b]`` = ``b`` shifted out by 8 bits,
    folded back through the GHASH reduction polynomial."""
    table = [0] * 256
    for b in range(256):
        v = b
        for _ in range(8):
            v = (v >> 1) ^ _R_POLY if v & 1 else v >> 1
        table[b] = v
    return tuple(table)


_RED8 = _build_reduction_table()


def _build_ghash_tables(h: int) -> tuple:
    """Per-key GHASH tables: ``T[p][b]`` = byte ``b`` at block position ``p``, times H.

    ``T[0]`` is Shoup's 256-entry table (byte ``b`` as an 8-term
    polynomial, times H).  Moving a byte one position down the block
    multiplies it by x^8, so each further table follows from the one
    before by linearity: ``T[p+1][b] = (T[p][b] >> 8) ^ R[T[p][b] & 255]``.
    A block times H is then ``T0[w0] ^ T1[w1] ^ ... ^ T15[w15]``, with
    no reduction step left in the loop.  Building the sixteen tables
    takes about 0.5 ms and about 0.2 MB per key.
    """
    table = [0] * 256
    v = h
    table[0x80] = v
    for bit in (0x40, 0x20, 0x10, 0x08, 0x04, 0x02, 0x01):
        v = (v >> 1) ^ _R_POLY if v & 1 else v >> 1
        table[bit] = v
    for i in range(2, 256):
        if i & (i - 1):  # not a single bit: combine linearly
            lsb = i & -i
            table[i] = table[lsb] ^ table[i ^ lsb]
    red = _RED8
    tables = [tuple(table)]
    for _ in range(15):
        tables.append(tuple([(t >> 8) ^ red[t & 255] for t in tables[-1]]))
    return tuple(tables)


def _gcm_hash_input(aad: bytes, ciphertext: bytes) -> bytes:
    """GHASH input: both strings zero-padded to blocks, then their bit lengths."""
    return (
        aad
        + b"\x00" * ((-len(aad)) % 16)
        + ciphertext
        + b"\x00" * ((-len(ciphertext)) % 16)
        + struct.pack(">QQ", len(aad) * 8, len(ciphertext) * 8)
    )


class FastAesGcm:
    """AES-128-GCM, byte-compatible with :class:`repro.crypto.gcm.AesGcm`.

    The AES key schedule, the hash subkey H and the sixteen GHASH
    position tables are all derived once at construction time, so a
    cached instance amortises every per-message key-setup cost the
    reference implementation pays on each seal/open.  :meth:`seal` and
    :meth:`open` are the one-item case of :meth:`seal_many` and
    :meth:`open_many`.
    """

    IV_SIZE = 12
    TAG_SIZE = 16

    def __init__(self, key: bytes):
        self._aes = FastAES128(key)
        self._tables = _build_ghash_tables(_encrypt_int(self._aes._rk, 0))

    def _ghash(self, data: bytes) -> int:
        """GHASH of ``data`` (a short last block is zero-padded), one
        sixteen-lookup sum per block."""
        (t0, t1, t2, t3, t4, t5, t6, t7,
         t8, t9, t10, t11, t12, t13, t14, t15) = self._tables
        if len(data) % 16:
            data += b"\x00" * (-len(data) % 16)
        frombytes = int.from_bytes
        y = 0
        for i in range(0, len(data), 16):
            w = (y ^ frombytes(data[i : i + 16], "big")).to_bytes(16, "big")
            y = (
                t0[w[0]] ^ t1[w[1]] ^ t2[w[2]] ^ t3[w[3]]
                ^ t4[w[4]] ^ t5[w[5]] ^ t6[w[6]] ^ t7[w[7]]
                ^ t8[w[8]] ^ t9[w[9]] ^ t10[w[10]] ^ t11[w[11]]
                ^ t12[w[12]] ^ t13[w[13]] ^ t14[w[14]] ^ t15[w[15]]
            )
        return y

    def seal(self, iv: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ``ciphertext || tag``."""
        return self.seal_many(((iv, plaintext, aad),))[0]

    def open(self, iv: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        """Verify and decrypt ``ciphertext || tag``; raises on tampering."""
        (plaintext,) = self.open_many(((iv, sealed, aad),))
        if plaintext is None:
            if len(sealed) < self.TAG_SIZE:
                raise GcmFailure("message shorter than the authentication tag")
            raise GcmFailure("authentication tag mismatch")
        return plaintext

    def seal_many(self, items) -> list:
        """Seal a batch of ``(iv, plaintext, aad)`` triples, in order.

        Fused, phase-grouped kernel: every message's CTR blocks and J0
        tag mask share one :func:`_ecb_many` pass (the lane kernel from
        :data:`_LANE_CROSSOVER` blocks up, so even one 51-byte message
        takes it), then the tag pass runs while the GHASH tables are
        hot.  :meth:`seal` is the one-item case.
        """
        iv_size = self.IV_SIZE
        # Gather every AES block the whole batch needs -- each message's
        # CTR counter blocks plus its J0 tag mask -- and run them through
        # one _ecb_many sweep (locals and round keys bound once).
        states: list = []
        metas = []
        for iv, plaintext, aad in items:
            if len(iv) != iv_size:
                raise ConfigurationError(
                    f"IV must be {iv_size} bytes, got {len(iv)}"
                )
            n = len(plaintext)
            nblocks = (n + 15) // 16
            base = int.from_bytes(iv, "big") << 32
            states.extend(base + 2 + i for i in range(nblocks))
            states.append(base | 1)  # E_K(J0): the tag mask
            metas.append((aad, plaintext, n, nblocks))
        blocks = _ecb_many(self._aes._rk, states)
        # Phase 1: CTR encrypt every message back to back.  The keystream
        # is assembled as one wide integer (blocks shifted into place)
        # and truncated by a right shift -- no per-block to_bytes/join.
        staged = []
        pos = 0
        for aad, plaintext, n, nblocks in metas:
            if n:
                ks = 0
                for b in blocks[pos : pos + nblocks]:
                    ks = (ks << 128) | b
                ks >>= 8 * (16 * nblocks - n)
                ciphertext = (
                    int.from_bytes(plaintext, "big") ^ ks
                ).to_bytes(n, "big")
            else:
                ciphertext = b""
            staged.append((aad, ciphertext, blocks[pos + nblocks]))
            pos += nblocks + 1
        # Phase 2: all tags while the GHASH tables are hot.
        ghash = self._ghash
        return [
            ciphertext
            + (ghash(_gcm_hash_input(aad, ciphertext)) ^ ek_j0).to_bytes(16, "big")
            for aad, ciphertext, ek_j0 in staged
        ]

    def open_many(self, items) -> list:
        """Open a batch of ``(iv, sealed, aad)`` triples, in order.

        Phase-grouped like :meth:`seal_many`: one AES pass, then every
        tag is verified and the surviving messages decrypt.  Returns the
        plaintext per entry, or ``None`` where authentication failed (or
        the input is shorter than a tag) -- a tampered message never
        poisons its batch-mates.  :meth:`open` is the one-item case.
        """
        iv_size = self.IV_SIZE
        tag_size = self.TAG_SIZE
        # One AES sweep for the whole batch: each message's J0 tag mask
        # followed by its CTR counter blocks.  Keystream computed for a
        # message that then fails authentication is simply discarded --
        # unauthenticated plaintext is never materialised, and on the
        # fault-free fast path every block is needed anyway.
        entries = []
        states: list = []
        for iv, sealed, aad in items:
            if len(iv) != iv_size:
                raise ConfigurationError(
                    f"IV must be {iv_size} bytes, got {len(iv)}"
                )
            if len(sealed) < tag_size:
                entries.append(None)
                continue
            ciphertext = sealed[:-tag_size]
            n = len(ciphertext)
            nblocks = (n + 15) // 16
            base = int.from_bytes(iv, "big") << 32
            states.append(base | 1)  # E_K(J0): the tag mask
            states.extend(base + 2 + i for i in range(nblocks))
            entries.append((ciphertext, sealed[-tag_size:], aad, n, nblocks))
        blocks = _ecb_many(self._aes._rk, states)
        # Verify every tag while the GHASH table is hot; decrypt the
        # survivors from the already-computed keystream.
        ghash = self._ghash
        out = []
        pos = 0
        for entry in entries:
            if entry is None:
                out.append(None)
                continue
            ciphertext, tag, aad, n, nblocks = entry
            expected = (
                ghash(_gcm_hash_input(aad, ciphertext)) ^ blocks[pos]
            ).to_bytes(16, "big")
            # Constant-time comparison: accumulate differences, then decide.
            diff = 0
            for a, b in zip(expected, tag):
                diff |= a ^ b
            if diff != 0:
                out.append(None)
            elif n:
                ks = 0
                for b in blocks[pos + 1 : pos + 1 + nblocks]:
                    ks = (ks << 128) | b
                ks >>= 8 * (16 * nblocks - n)
                out.append(
                    (int.from_bytes(ciphertext, "big") ^ ks).to_bytes(n, "big")
                )
            else:
                out.append(b"")
            pos += nblocks + 1
        return out


# ---------------------------------------------------------------------------
# Salsa20 with 64-bit lanes: one wide integer advances every block at once
# ---------------------------------------------------------------------------

_SIGMA = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)
_TAU = (0x61707865, 0x3120646E, 0x79622D36, 0x6B206574)

# Per-lane-count constants for the wide-integer core: _ONES broadcasts a
# scalar to every 64-bit lane by multiplication; _RAMP is 0,1,2,... in
# successive lanes (sequential block counters).  Keyed by lane count.
_ONES: Dict[int, int] = {}
_RAMPS: Dict[int, int] = {}

# Upper bound on blocks processed per wide-integer pass; bounds the big
# integers to ~4 KB each while keeping per-pass fixed costs amortised.
_LANE_BATCH = 512


def _lane_ones(lanes: int) -> int:
    """``1`` in each 64-bit lane (broadcast multiplier)."""
    v = _ONES.get(lanes)
    if v is None:
        v = _ONES[lanes] = int.from_bytes(
            b"\x01\x00\x00\x00\x00\x00\x00\x00" * lanes, "little"
        )
    return v


def _lane_ramp(lanes: int) -> int:
    """``0, 1, 2, ...`` in successive 64-bit lanes."""
    v = _RAMPS.get(lanes)
    if v is None:
        acc = 0
        for b in range(lanes):
            acc |= b << (64 * b)
        v = _RAMPS[lanes] = acc
    return v


def _salsa_lanes(words, lanes: int) -> bytes:
    """Run the Salsa20 core on ``lanes`` blocks at once; keystream bytes.

    ``words`` are the sixteen state words, each a wide integer holding
    one block's 32-bit word in each 64-bit lane (lane ``b`` at bits
    ``64*b``).  32-bit adds cannot carry past bit 33, so lanes never
    interfere; one add/xor/rotate on the wide integer is one SIMD
    instruction across every block.  Returns the blocks' 64-byte
    keystreams in lane order.
    """
    M = _MASK32 * _lane_ones(lanes)
    (s0, s1, s2, s3, s4, s5, s6, s7,
     s8, s9, s10, s11, s12, s13, s14, s15) = words
    x0, x1, x2, x3 = s0, s1, s2, s3
    x4, x5, x6, x7 = s4, s5, s6, s7
    x8, x9, x10, x11 = s8, s9, s10, s11
    x12, x13, x14, x15 = s12, s13, s14, s15
    for _ in range(10):
        # columnround
        t = (x0 + x12) & M; x4 ^= ((t << 7) | (t >> 25)) & M
        t = (x4 + x0) & M; x8 ^= ((t << 9) | (t >> 23)) & M
        t = (x8 + x4) & M; x12 ^= ((t << 13) | (t >> 19)) & M
        t = (x12 + x8) & M; x0 ^= ((t << 18) | (t >> 14)) & M
        t = (x5 + x1) & M; x9 ^= ((t << 7) | (t >> 25)) & M
        t = (x9 + x5) & M; x13 ^= ((t << 9) | (t >> 23)) & M
        t = (x13 + x9) & M; x1 ^= ((t << 13) | (t >> 19)) & M
        t = (x1 + x13) & M; x5 ^= ((t << 18) | (t >> 14)) & M
        t = (x10 + x6) & M; x14 ^= ((t << 7) | (t >> 25)) & M
        t = (x14 + x10) & M; x2 ^= ((t << 9) | (t >> 23)) & M
        t = (x2 + x14) & M; x6 ^= ((t << 13) | (t >> 19)) & M
        t = (x6 + x2) & M; x10 ^= ((t << 18) | (t >> 14)) & M
        t = (x15 + x11) & M; x3 ^= ((t << 7) | (t >> 25)) & M
        t = (x3 + x15) & M; x7 ^= ((t << 9) | (t >> 23)) & M
        t = (x7 + x3) & M; x11 ^= ((t << 13) | (t >> 19)) & M
        t = (x11 + x7) & M; x15 ^= ((t << 18) | (t >> 14)) & M
        # rowround
        t = (x0 + x3) & M; x1 ^= ((t << 7) | (t >> 25)) & M
        t = (x1 + x0) & M; x2 ^= ((t << 9) | (t >> 23)) & M
        t = (x2 + x1) & M; x3 ^= ((t << 13) | (t >> 19)) & M
        t = (x3 + x2) & M; x0 ^= ((t << 18) | (t >> 14)) & M
        t = (x5 + x4) & M; x6 ^= ((t << 7) | (t >> 25)) & M
        t = (x6 + x5) & M; x7 ^= ((t << 9) | (t >> 23)) & M
        t = (x7 + x6) & M; x4 ^= ((t << 13) | (t >> 19)) & M
        t = (x4 + x7) & M; x5 ^= ((t << 18) | (t >> 14)) & M
        t = (x10 + x9) & M; x11 ^= ((t << 7) | (t >> 25)) & M
        t = (x11 + x10) & M; x8 ^= ((t << 9) | (t >> 23)) & M
        t = (x8 + x11) & M; x9 ^= ((t << 13) | (t >> 19)) & M
        t = (x9 + x8) & M; x10 ^= ((t << 18) | (t >> 14)) & M
        t = (x15 + x14) & M; x12 ^= ((t << 7) | (t >> 25)) & M
        t = (x12 + x15) & M; x13 ^= ((t << 9) | (t >> 23)) & M
        t = (x13 + x12) & M; x14 ^= ((t << 13) | (t >> 19)) & M
        t = (x14 + x13) & M; x15 ^= ((t << 18) | (t >> 14)) & M
    # Feedforward, then pack adjacent word pairs so every 64-bit lane
    # holds 8 consecutive output bytes of its block.
    p0 = ((x0 + s0) & M) | (((x1 + s1) & M) << 32)
    p1 = ((x2 + s2) & M) | (((x3 + s3) & M) << 32)
    p2 = ((x4 + s4) & M) | (((x5 + s5) & M) << 32)
    p3 = ((x6 + s6) & M) | (((x7 + s7) & M) << 32)
    p4 = ((x8 + s8) & M) | (((x9 + s9) & M) << 32)
    p5 = ((x10 + s10) & M) | (((x11 + s11) & M) << 32)
    p6 = ((x12 + s12) & M) | (((x13 + s13) & M) << 32)
    p7 = ((x14 + s14) & M) | (((x15 + s15) & M) << 32)
    # Transpose the 8 x lanes matrix of 8-byte cells into per-block
    # order: unpack each register into per-lane 64-bit words, then
    # re-pack interleaved (struct does the byte shuffling in C).
    fmt = "<%dQ" % lanes
    unpack = struct.unpack
    flat = [
        v
        for tup in zip(
            unpack(fmt, p0.to_bytes(8 * lanes, "little")),
            unpack(fmt, p1.to_bytes(8 * lanes, "little")),
            unpack(fmt, p2.to_bytes(8 * lanes, "little")),
            unpack(fmt, p3.to_bytes(8 * lanes, "little")),
            unpack(fmt, p4.to_bytes(8 * lanes, "little")),
            unpack(fmt, p5.to_bytes(8 * lanes, "little")),
            unpack(fmt, p6.to_bytes(8 * lanes, "little")),
            unpack(fmt, p7.to_bytes(8 * lanes, "little")),
        )
        for v in tup
    ]
    return struct.pack("<%dQ" % (8 * lanes), *flat)


# The diagonal layout of one Salsa20 block: each 256-bit register holds
# four state words in 64-bit lanes (lane 0 least significant), chosen so
# that a column round's four quarter-rounds run lane-parallel as
# ``b ^= rotl(a + d, 7); c ^= rotl(b + a, 9); d ^= rotl(c + b, 13);
# a ^= rotl(d + c, 18)``:
#   A = [x0, x5, x10, x15]   B = [x4, x9, x14, x3]
#   C = [x8, x13, x2, x7]    D = [x12, x1, x6, x11]
# The row round is the same quarter-round on A and the registers
# rotated by one lane (D), two (C) and three (B).
_DIAG_IN = struct.Struct("<" + "I4x" * 16)
_DIAG_ORDER = (0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11)
_DIAG_OUT = operator.itemgetter(0, 26, 20, 14, 8, 2, 28, 22, 16, 10, 4, 30, 24, 18, 12, 6)
_DIAG_UNPACK = struct.Struct("<32I").unpack
_DIAG_PACK = struct.Struct("<16I").pack
_DIAG_M = _MASK32 * _lane_ones(4)


def _salsa_diagonal(state) -> bytes:
    """The 64-byte Salsa20 block of the sixteen words in ``state``.

    Runs the four quarter-rounds of each half-round in the 64-bit lanes
    of one 256-bit integer per register (see the layout above), so a
    double round is eight lane-parallel quarter-round steps plus six
    lane rotations instead of thirty-two scalar steps.  Lanes never
    interfere: 32-bit adds carry at most into bit 32 of their own lane,
    and every result is masked back to 32 bits per lane.
    """
    M = _DIAG_M
    raw = _DIAG_IN.pack(*[state[i] for i in _DIAG_ORDER])
    frombytes = int.from_bytes
    a0 = a = frombytes(raw[:32], "little")
    b0 = b = frombytes(raw[32:64], "little")
    c0 = c = frombytes(raw[64:96], "little")
    d0 = d = frombytes(raw[96:], "little")
    for _ in range(10):
        # Column round.
        t = (a + d) & M; b ^= ((t << 7) | (t >> 25)) & M
        t = (b + a) & M; c ^= ((t << 9) | (t >> 23)) & M
        t = (c + b) & M; d ^= ((t << 13) | (t >> 19)) & M
        t = (d + c) & M; a ^= ((t << 18) | (t >> 14)) & M
        # Into row layout: lane i takes lane i+1 of d, i+2 of c, i+3 of b.
        b, c, d = (
            ((d >> 64) | (d << 192)) & M,
            ((c >> 128) | (c << 128)) & M,
            ((b >> 192) | (b << 64)) & M,
        )
        # Row round.
        t = (a + d) & M; b ^= ((t << 7) | (t >> 25)) & M
        t = (b + a) & M; c ^= ((t << 9) | (t >> 23)) & M
        t = (c + b) & M; d ^= ((t << 13) | (t >> 19)) & M
        t = (d + c) & M; a ^= ((t << 18) | (t >> 14)) & M
        # Back to column layout.
        b, c, d = (
            ((d >> 64) | (d << 192)) & M,
            ((c >> 128) | (c << 128)) & M,
            ((b >> 192) | (b << 64)) & M,
        )
    words = _DIAG_UNPACK(
        ((a + a0) & M).to_bytes(32, "little")
        + ((b + b0) & M).to_bytes(32, "little")
        + ((c + c0) & M).to_bytes(32, "little")
        + ((d + d0) & M).to_bytes(32, "little")
    )
    return _DIAG_PACK(*_DIAG_OUT(words))


class FastSalsa20:
    """Salsa20 stream cipher, drop-in for :class:`repro.crypto.salsa20.Salsa20`.

    Multi-block keystream requests pack one 32-bit state word per block
    into the 64-bit lanes of a single wide integer and run the 20-round
    core once for every block simultaneously; a single block runs the
    diagonal core of :func:`_salsa_diagonal`.  ``encrypt`` XORs
    plaintext and keystream as two big integers.
    """

    NONCE_SIZE = 8
    KEY_SIZES = (16, 32)

    def __init__(self, key: bytes, nonce: bytes):
        if len(key) not in self.KEY_SIZES:
            raise ConfigurationError(
                f"key must be 16 or 32 bytes, got {len(key)}"
            )
        if len(nonce) != self.NONCE_SIZE:
            raise ConfigurationError(
                f"nonce must be {self.NONCE_SIZE} bytes, got {len(nonce)}"
            )
        if len(key) == 32:
            k0 = struct.unpack("<4I", key[:16])
            k1 = struct.unpack("<4I", key[16:])
            const = _SIGMA
        else:
            k0 = struct.unpack("<4I", key)
            k1 = k0
            const = _TAU
        n0, n1 = struct.unpack("<2I", nonce)
        # Initial state, spec layout; positions 8/9 take the block counter.
        self._state = (
            const[0], k0[0], k0[1], k0[2],
            k0[3], const[1], n0, n1,
            0, 0, const[2], k1[0],
            k1[1], k1[2], k1[3], const[3],
        )

    def _block(self, counter: int) -> bytes:
        """One 64-byte keystream block via the diagonal core."""
        s = self._state
        return _salsa_diagonal(
            s[:8] + (counter & _MASK32, (counter >> 32) & _MASK32) + s[10:]
        )

    def _lane_blocks(self, counter: int, lanes: int) -> bytes:
        """``lanes`` consecutive 64-byte blocks via the wide-integer core.

        Each of the sixteen Salsa20 state words becomes a wide integer
        with that word's value for block ``counter + b`` in 64-bit lane
        ``b`` (see :func:`_salsa_lanes`).
        """
        M32 = _MASK32
        B = _lane_ones(lanes)
        words = [w * B for w in self._state]
        if counter + lanes <= (1 << 32):
            # Sequential counters all share a zero high word.
            words[8] = counter * B + _lane_ramp(lanes)
        else:
            s8 = 0
            s9 = 0
            for b in range(lanes):
                c = counter + b
                s8 |= (c & M32) << (64 * b)
                s9 |= ((c >> 32) & M32) << (64 * b)
            words[8] = s8
            words[9] = s9
        return _salsa_lanes(words, lanes)

    def keystream(self, length: int, counter: int = 0) -> bytes:
        """Generate ``length`` keystream bytes starting at block ``counter``."""
        if length < 0:
            raise ConfigurationError(f"negative length: {length}")
        if length == 0:
            return b""
        total = (length + 63) // 64
        if total == 1:
            return self._block(counter)[:length]
        pieces = []
        done = 0
        while done < total:
            lanes = min(total - done, _LANE_BATCH)
            pieces.append(self._lane_blocks(counter + done, lanes))
            done += lanes
        return b"".join(pieces)[:length]

    def encrypt(self, plaintext: bytes, counter: int = 0) -> bytes:
        """XOR ``plaintext`` with the keystream; decryption is identical."""
        n = len(plaintext)
        if n == 0:
            return b""
        stream = self.keystream(n, counter)
        return (
            int.from_bytes(plaintext, "little") ^ int.from_bytes(stream, "little")
        ).to_bytes(n, "little")

    # Stream ciphers are symmetric: decrypt is the same operation.
    decrypt = encrypt


def salsa20_encrypt_many(keys, nonce: bytes, datas) -> list:
    """Salsa20-encrypt each ``datas[i]`` under ``keys[i]`` (counter 0).

    Every message's blocks share one lane pass (up to
    :data:`_LANE_BATCH` blocks per pass): lane ``b`` of a message
    carries that message's key and nonce words with block counter ``b``.
    Byte-identical to one :class:`FastSalsa20` per message.
    """
    M32 = _MASK32
    lane_states: list = []
    counters: list = []
    sizes = []
    for key, data in zip(keys, datas):
        state = FastSalsa20(key, nonce)._state
        blocks = (len(data) + 63) // 64
        lane_states.extend([state] * blocks)
        counters.extend(range(blocks))
        sizes.append(len(data))
    pieces = []
    frombytes = int.from_bytes
    pack = struct.pack
    for start in range(0, len(lane_states), _LANE_BATCH):
        chunk = lane_states[start : start + _LANE_BATCH]
        lanes = len(chunk)
        fmt = "<%dQ" % lanes
        columns = list(zip(*chunk))
        ctr = counters[start : start + _LANE_BATCH]
        columns[8] = [c & M32 for c in ctr]
        columns[9] = [c >> 32 for c in ctr]
        words = [frombytes(pack(fmt, *col), "little") for col in columns]
        pieces.append(_salsa_lanes(words, lanes))
    stream = b"".join(pieces)
    out = []
    offset = 0
    for data, n in zip(datas, sizes):
        if n:
            ks = stream[offset : offset + n]
            out.append(
                (frombytes(data, "little") ^ frombytes(ks, "little")).to_bytes(
                    n, "little"
                )
            )
        else:
            out.append(b"")
        offset += 64 * ((n + 63) // 64)
    return out


# ---------------------------------------------------------------------------
# CMAC: one-time keys on the table chain, lockstep lanes for windows
# ---------------------------------------------------------------------------


def _cmac_key(key: bytes) -> bytes:
    """The 16-byte AES key behind a CMAC key (32-byte keys XOR-folded)."""
    if len(key) == 32:
        return (
            int.from_bytes(key[:16], "big") ^ int.from_bytes(key[16:], "big")
        ).to_bytes(16, "big")
    if len(key) != 16:
        raise ConfigurationError(
            f"CMAC key must be 16 or 32 bytes, got {len(key)}"
        )
    return bytes(key)


class FastCmac:
    """AES-128-CMAC for one key, with nothing cached beyond the instance.

    Every CMAC key in the store is a one-time ``K_operation``, so the key
    is expanded by :func:`_lane_key_schedule` at one lane (the same
    expansion :func:`aes_cmac_lanes` runs for a window) and never enters
    a process-wide cache.  The instance holds the schedule and the
    RFC 4493 subkeys; :meth:`mac` runs the serial CBC chain of
    :func:`_cbc_chain` -- one unrolled byte-table AES block per 16
    message bytes and nothing else.
    """

    BLOCK = 16

    def __init__(self, key: bytes):
        _ensure_round_tables()
        self._rk = rk = _lane_key_schedule(int.from_bytes(_cmac_key(key), "big"), 1)
        l = _encrypt_int(rk, 0)
        k1 = ((l << 1) & _MASK128) ^ (0x87 if l >> 127 else 0)
        k2 = ((k1 << 1) & _MASK128) ^ (0x87 if k1 >> 127 else 0)
        self._k1 = k1
        self._k2 = k2

    def mac(self, message: bytes) -> bytes:
        """Compute the 16-byte AES-CMAC of ``message``."""
        n = len(message)
        n_blocks = max(1, (n + 15) // 16)
        last = message[(n_blocks - 1) * 16 :]
        if n > 0 and n % 16 == 0:
            last_int = int.from_bytes(last, "big") ^ self._k1
        else:
            padded = last + b"\x80" + b"\x00" * (15 - len(last))
            last_int = int.from_bytes(padded, "big") ^ self._k2
        rk = self._rk
        x = _cbc_chain(rk, message[: (n_blocks - 1) * 16])
        return _encrypt_int(rk, x ^ last_int).to_bytes(16, "big")


def aes_cmac_lanes(keys, messages) -> list:
    """AES-CMAC of ``messages[i]`` under ``keys[i]``, all chains in lockstep.

    Every message must span the same number of CMAC blocks
    (``max(1, ceil(len / 16))``).  Lane ``i`` carries message ``i``'s
    CBC chain under its own key: the keys are expanded together by
    :func:`_lane_key_schedule` (and never cached), the RFC 4493 subkeys
    come from one lane pass over zero blocks, and then each step of
    :func:`_aes_lanes` advances every chain by one block.  Byte-identical
    to :meth:`FastCmac.mac` per message.
    """
    out: list = []
    for start in range(0, len(keys), _AES_LANE_BATCH):
        chunk_keys = keys[start : start + _AES_LANE_BATCH]
        chunk = messages[start : start + _AES_LANE_BATCH]
        lanes = len(chunk)
        ones = _lane_masks(lanes)[13]
        rks = _lane_key_schedule(
            int.from_bytes(b"".join([_cmac_key(k) for k in chunk_keys]), "big"),
            lanes,
        )
        # Subkeys per lane: K1 = dbl(E_K(0)), K2 = dbl(K1); a lane's top
        # bit must not spill into its neighbour's bottom bit.
        clear = ((1 << (128 * lanes)) - 1) ^ ones
        zero = _aes_lanes(rks, 0, lanes)
        k1 = ((zero << 1) & clear) ^ (((zero >> 127) & ones) * 0x87)
        k2 = ((k1 << 1) & clear) ^ (((k1 >> 127) & ones) * 0x87)
        n_blocks = max(1, (len(chunk[0]) + 15) // 16)
        padded = []
        complete = []
        for message in chunk:
            n = len(message)
            if n > 0 and n % 16 == 0:
                padded.append(message)
                complete.append(b"\xff" * 16)
            else:
                padded.append(
                    message + b"\x80" + b"\x00" * (16 * n_blocks - n - 1)
                )
                complete.append(b"\x00" * 16)
        # Each lane's last block takes K1 when complete, K2 when padded.
        select = int.from_bytes(b"".join(complete), "big")
        subkeys = k2 ^ ((k1 ^ k2) & select)
        steps = _transpose_blocks(b"".join(padded), lanes, n_blocks)
        x = 0
        for step in steps[:-1]:
            x = _aes_lanes(rks, x ^ step, lanes)
        x = _aes_lanes(rks, x ^ steps[-1] ^ subkeys, lanes)
        raw = x.to_bytes(16 * lanes, "big")
        out.extend(raw[i : i + 16] for i in range(0, 16 * lanes, 16))
    return out


def _transpose_blocks(cells: bytes, lanes: int, n_blocks: int) -> list:
    """Regroup ``lanes`` messages of ``n_blocks`` blocks each by block.

    ``cells`` is the messages back to back; entry ``j`` of the result
    packs block ``j`` of every message into one lane-wide integer.  The
    16-byte blocks move as pairs of 8-byte array items, so the shuffle
    is two strided slice copies per message.
    """
    row = 16 * lanes
    if n_blocks > 1:
        src = array("Q", cells)
        dst = array("Q", bytes(len(cells)))
        width = 2 * lanes
        per_message = 2 * n_blocks
        for i in range(lanes):
            base = i * per_message
            dst[2 * i :: width] = src[base : base + per_message : 2]
            dst[2 * i + 1 :: width] = src[base + 1 : base + per_message : 2]
        cells = dst.tobytes()
    frombytes = int.from_bytes
    return [
        frombytes(cells[j * row : (j + 1) * row], "big") for j in range(n_blocks)
    ]
