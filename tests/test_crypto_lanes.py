"""Multi-lane AES kernel and the window crypto APIs built on it.

The lane kernel (:func:`repro.crypto.fastcrypto._aes_lanes`) advances
many independent AES-128 blocks packed in one big integer; the fast
engine's ``aes_cmac_many``/``salsa20_encrypt_many`` run whole windows of
payload crypto through it.  Every output here is pinned against the
scalar block function or the reference engine's per-call results.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import fastcrypto as fc
from repro.crypto.engine import get_engine
from repro.crypto.provider import CryptoProvider, EncryptedPayload
from repro.errors import ConfigurationError, IntegrityError

PAYLOAD_LENGTHS = (0, 1, 15, 16, 17, 64, 1024)

fc._ensure_round_tables()


def _scalar(rk, states):
    return [fc._encrypt_int(rk, s) for s in states]


def _lanes_per_key(keys, states):
    lanes = len(keys)
    rks = fc._lane_key_schedule(int.from_bytes(b"".join(keys), "big"), lanes)
    return fc._unpack_lanes(
        fc._aes_lanes(rks, fc._pack_lanes(states), lanes), lanes
    )


class TestLaneKernel:
    @pytest.mark.parametrize("lanes", range(1, 71))
    def test_every_width_matches_scalar_blocks(self, lanes):
        rng = random.Random(lanes)
        key = rng.randbytes(16)
        rk = fc._expand_key_128(key)
        states = [rng.getrandbits(128) for _ in range(lanes)]
        broadcast = fc._broadcast_round_keys(rk, lanes)
        got = fc._unpack_lanes(
            fc._aes_lanes(broadcast, fc._pack_lanes(states), lanes), lanes
        )
        assert got == _scalar(rk, states)
        keys = [rng.randbytes(16) for _ in range(lanes)]
        assert _lanes_per_key(keys, states) == [
            fc._encrypt_int(fc._expand_key_128(k), s)
            for k, s in zip(keys, states)
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        lanes=st.integers(min_value=1, max_value=70),
        seed=st.integers(min_value=0, max_value=2**32),
        per_lane=st.booleans(),
    )
    def test_random_keys_and_blocks(self, lanes, seed, per_lane):
        rng = random.Random(seed)
        states = [rng.getrandbits(128) for _ in range(lanes)]
        if per_lane:
            keys = [rng.randbytes(16) for _ in range(lanes)]
            expected = [
                fc._encrypt_int(fc._expand_key_128(k), s)
                for k, s in zip(keys, states)
            ]
            assert _lanes_per_key(keys, states) == expected
        else:
            rk = fc._expand_key_128(rng.randbytes(16))
            rks = fc._broadcast_round_keys(rk, lanes)
            got = fc._unpack_lanes(
                fc._aes_lanes(rks, fc._pack_lanes(states), lanes), lanes
            )
            assert got == _scalar(rk, states)

    def test_lane_key_schedule_matches_fips197_expansion(self):
        rng = random.Random(7)
        keys = [rng.randbytes(16) for _ in range(9)]
        rks = fc._lane_key_schedule(int.from_bytes(b"".join(keys), "big"), 9)
        for r in range(11):
            assert fc._unpack_lanes(rks[r], 9) == [
                fc._expand_key_128(k)[r] for k in keys
            ]

    def test_fips197_appendix_c1_vector(self):
        key = bytes(range(16))
        plain = int.from_bytes(bytes.fromhex("00112233445566778899aabbccddeeff"), "big")
        got = _lanes_per_key([key] * 3, [plain] * 3)
        assert got == [
            int.from_bytes(
                bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a"), "big"
            )
        ] * 3

    @pytest.mark.parametrize(
        "count",
        [0, 1, fc._LANE_CROSSOVER - 1, fc._LANE_CROSSOVER, 17,
         fc._AES_LANE_BATCH, fc._AES_LANE_BATCH + 1, 2 * fc._AES_LANE_BATCH + 5],
    )
    def test_ecb_many_on_both_sides_of_the_crossover(self, count):
        rng = random.Random(count)
        rk = fc._expand_key_128(rng.randbytes(16))
        states = [rng.getrandbits(128) for _ in range(count)]
        assert fc._ecb_many(rk, states) == _scalar(rk, states)

    def test_mask_cache_is_bounded(self):
        fc._LANE_MASKS.clear()
        rk = fc._expand_key_128(b"k" * 16)
        for lanes in range(1, fc._AES_LANE_BATCH + 1):
            fc._aes_lanes(fc._broadcast_round_keys(rk, lanes), 0, lanes)
            assert len(fc._LANE_MASKS) <= fc._LANE_MASKS_MAX
        # Wider inputs run in passes, so no width beyond the batch is cached.
        fc._ecb_many(rk, list(range(3 * fc._AES_LANE_BATCH)))
        assert max(fc._LANE_MASKS) <= fc._AES_LANE_BATCH


def _window(draw_seed, count):
    """Mixed 16/32-byte keys (some repeated) and payload-sized messages."""
    rng = random.Random(draw_seed)
    pool = [rng.randbytes(rng.choice((16, 32))) for _ in range(max(1, count // 2))]
    keys = [rng.choice(pool) for _ in range(count)]
    messages = [
        rng.randbytes(rng.choice(PAYLOAD_LENGTHS)) for _ in range(count)
    ]
    return keys, messages


class TestWindowApis:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        count=st.integers(min_value=0, max_value=24),
    )
    def test_cmac_many_matches_reference_per_call(self, seed, count):
        keys, messages = _window(seed, count)
        ref = get_engine("reference")
        expected = [ref.aes_cmac(k, m) for k, m in zip(keys, messages)]
        assert get_engine("fast").aes_cmac_many(keys, messages) == expected
        assert ref.aes_cmac_many(keys, messages) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        count=st.integers(min_value=0, max_value=24),
    )
    def test_salsa20_many_matches_reference_per_call(self, seed, count):
        keys, datas = _window(seed, count)
        nonce = random.Random(seed).randbytes(8)
        ref = get_engine("reference")
        expected = [ref.salsa20_encrypt(k, nonce, d) for k, d in zip(keys, datas)]
        assert get_engine("fast").salsa20_encrypt_many(keys, nonce, datas) == expected
        assert ref.salsa20_encrypt_many(keys, nonce, datas) == expected

    def test_every_group_size_including_singletons(self):
        # 17 B is alone at two blocks (the cached table chain); 0-16 B
        # share the one-block group, 64 B and 1 KiB form multi-lane groups.
        rng = random.Random(3)
        lengths = list(PAYLOAD_LENGTHS) + [64, 64, 1024, 1024, 1024]
        keys = [rng.randbytes(32 if i % 2 else 16) for i in range(len(lengths))]
        messages = [rng.randbytes(n) for n in lengths]
        ref = get_engine("reference")
        assert get_engine("fast").aes_cmac_many(keys, messages) == [
            ref.aes_cmac(k, m) for k, m in zip(keys, messages)
        ]

    def test_lane_path_leaves_the_key_caches_alone(self):
        # Window and single-message payload crypto alike: no one-time key
        # reaches a schedule cache or the GCM session cache, and the
        # engine holds no per-key CMAC state at all.
        fast = get_engine("fast")
        provider = CryptoProvider(engine=fast)
        rng = random.Random(5)
        keys = [rng.randbytes(32) for _ in range(6)]
        caches = (fc._SCHEDULE_CACHE, fc._SCHEDULE128_CACHE, fast._gcm_cache._entries)
        before = [set(cache) for cache in caches]
        fast.aes_cmac_many(keys, [b"m" * 64] * 6)
        fast.salsa20_encrypt_many(keys, b"\x00" * 8, [b"m" * 64] * 6)
        for key in keys:
            for size in (0, 17, 64, 256):
                value = rng.randbytes(size)
                payload = provider.payload_encrypt(key, value)
                assert provider.payload_decrypt(key, payload) == value
            fast.aes_cmac(key, b"m" * 33)
            fast.cmac_verify(key, b"m", b"\x00" * 16)
        assert [set(cache) for cache in caches] == before
        assert list(vars(fast)) == ["_gcm_cache"]

    @pytest.mark.parametrize("name", ["reference", "fast"])
    def test_mismatched_lengths_and_bad_keys_raise(self, name):
        engine = get_engine(name)
        with pytest.raises(ConfigurationError):
            engine.aes_cmac_many([b"k" * 16], [b"a", b"b"])
        with pytest.raises(ConfigurationError):
            engine.salsa20_encrypt_many([b"k" * 16] * 2, b"\x00" * 8, [b"a"])
        with pytest.raises(ConfigurationError):
            engine.aes_cmac_many([b"k" * 16, b"short"], [b"a", b"b"])
        with pytest.raises(ConfigurationError):
            engine.salsa20_encrypt_many(
                [b"k" * 16, b"short"], b"\x00" * 8, [b"a", b"b"]
            )


class TestPayloadWindows:
    @pytest.mark.parametrize("name", ["reference", "fast"])
    def test_many_equals_per_call_and_round_trips(self, name):
        provider = CryptoProvider(engine=name)
        rng = random.Random(11)
        items = [(rng.randbytes(32), rng.randbytes(n)) for n in PAYLOAD_LENGTHS * 2]
        many = provider.payload_encrypt_many(items)
        assert many == [provider.payload_encrypt(k, v) for k, v in items]
        plains = provider.payload_decrypt_many(
            [(k, p) for (k, _v), p in zip(items, many)]
        )
        assert plains == [v for _k, v in items]

    @pytest.mark.parametrize("name", ["reference", "fast"])
    def test_tampered_entry_fails_alone(self, name):
        provider = CryptoProvider(engine=name)
        rng = random.Random(12)
        items = [(rng.randbytes(32), rng.randbytes(1024)) for _ in range(5)]
        payloads = provider.payload_encrypt_many(items)
        bad = bytearray(payloads[2].ciphertext)
        bad[0] ^= 1
        payloads[2] = EncryptedPayload(bytes(bad), payloads[2].mac)
        plains = provider.payload_decrypt_many(
            [(k, p) for (k, _v), p in zip(items, payloads)]
        )
        assert plains == [items[0][1], items[1][1], None, items[3][1], items[4][1]]
        with pytest.raises(IntegrityError):
            provider.payload_decrypt(items[2][0], payloads[2])
