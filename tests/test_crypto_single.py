"""Single-message fast crypto against the reference engine.

``FastAesGcm.seal``/``open`` are the one-item case of the batched GCM
kernels, a single Salsa20 block runs the diagonal core and GHASH runs
on sixteen per-position tables; each is pinned here to the spec code,
including the error paths.  The engine's bounded GCM cache evicts its
oldest entry, one at a time.
"""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import fastcrypto as fc
from repro.crypto.engine import _KeyedCache
from repro.crypto.gcm import AesGcm, GcmFailure, ghash
from repro.crypto.salsa20 import Salsa20
from repro.errors import ConfigurationError

KEY16 = st.binary(min_size=16, max_size=16)
IV = st.binary(min_size=12, max_size=12)


class TestSingleGcm:
    @settings(max_examples=60, deadline=None)
    @given(key=KEY16, iv=IV, plaintext=st.binary(max_size=200), aad=st.binary(max_size=48))
    def test_seal_and_open_match_reference(self, key, iv, plaintext, aad):
        fast, ref = fc.FastAesGcm(key), AesGcm(key)
        sealed = fast.seal(iv, plaintext, aad)
        assert sealed == ref.seal(iv, plaintext, aad)
        assert fast.open(iv, sealed, aad) == plaintext
        assert ref.open(iv, sealed, aad) == plaintext

    @settings(max_examples=30, deadline=None)
    @given(
        key=KEY16, iv=IV, plaintext=st.binary(max_size=200),
        aad=st.binary(max_size=48), flip=st.integers(min_value=0),
    )
    def test_tamper_raises_the_reference_failure(self, key, iv, plaintext, aad, flip):
        sealed = bytearray(AesGcm(key).seal(iv, plaintext, aad))
        sealed[flip % len(sealed)] ^= 1 << (flip % 8)
        for cipher in (fc.FastAesGcm(key), AesGcm(key)):
            with pytest.raises(GcmFailure, match="^authentication tag mismatch$"):
                cipher.open(iv, bytes(sealed), aad)

    @pytest.mark.parametrize("size", [0, 1, 15])
    def test_short_input_raises_the_reference_failure(self, size):
        for cipher in (fc.FastAesGcm(b"k" * 16), AesGcm(b"k" * 16)):
            with pytest.raises(
                GcmFailure, match="^message shorter than the authentication tag$"
            ):
                cipher.open(b"i" * 12, b"s" * size)

    @pytest.mark.parametrize("iv_size", [0, 11, 13, 16])
    def test_bad_iv_raises_configuration_error(self, iv_size):
        cipher = fc.FastAesGcm(b"k" * 16)
        sealed = cipher.seal(b"i" * 12, b"data")
        with pytest.raises(ConfigurationError):
            cipher.seal(b"i" * iv_size, b"data")
        with pytest.raises(ConfigurationError):
            cipher.open(b"i" * iv_size, sealed)
        with pytest.raises(ConfigurationError):
            cipher.open(b"i" * iv_size, b"short")


class TestGhashTables:
    @settings(max_examples=60, deadline=None)
    @given(key=KEY16, data=st.binary(max_size=300))
    def test_sixteen_tables_match_the_bit_loop(self, key, data):
        cipher = fc.FastAesGcm(key)
        h = fc._encrypt_int(cipher._aes._rk, 0)
        assert cipher._ghash(data) == ghash(h, data)

    def test_each_table_is_the_previous_times_x8(self):
        tables = fc._build_ghash_tables(random.Random(3).getrandbits(128))
        assert len(tables) == 16
        for p in range(15):
            for b in (0, 1, 0x80, 0xFF):
                t = tables[p][b]
                assert tables[p + 1][b] == (t >> 8) ^ fc._RED8[t & 255]


COUNTERS = [0, 2**32 - 1, 2**32, 2**64 - 1]


class TestDiagonalSalsa20:
    @pytest.mark.parametrize("counter", COUNTERS)
    @pytest.mark.parametrize("key_size", [16, 32])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32))
    def test_block_matches_reference(self, counter, key_size, seed):
        rng = random.Random(seed)
        key, nonce = rng.randbytes(key_size), rng.randbytes(8)
        expected = Salsa20(key, nonce).keystream(64, counter)
        assert fc.FastSalsa20(key, nonce)._block(counter) == expected
        data = rng.randbytes(rng.randint(1, 64))
        assert fc.FastSalsa20(key, nonce).encrypt(data, counter) == Salsa20(
            key, nonce
        ).encrypt(data, counter)

    @settings(max_examples=40, deadline=None)
    @given(
        key=st.one_of(KEY16, st.binary(min_size=32, max_size=32)),
        nonce=st.binary(min_size=8, max_size=8),
        counter=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_random_keys_and_counters(self, key, nonce, counter):
        assert fc.FastSalsa20(key, nonce).keystream(64, counter) == Salsa20(
            key, nonce
        ).keystream(64, counter)


class TestKeyedCache:
    def test_full_cache_evicts_only_the_oldest_entry(self):
        built = []
        cache = _KeyedCache(lambda key: built.append(key) or key.upper(), maxsize=3)
        for key in (b"a", b"b", b"c"):
            cache.get(key)
        assert cache.get(b"a") == b"A" and built == [b"a", b"b", b"c"]
        cache.get(b"d")
        assert list(cache._entries) == [b"b", b"c", b"d"]
        cache.get(b"c")  # a hit builds nothing and evicts nothing
        assert built == [b"a", b"b", b"c", b"d"]
        cache.get(b"a")
        assert list(cache._entries) == [b"c", b"d", b"a"]
        assert built == [b"a", b"b", b"c", b"d", b"a"]

    def test_never_exceeds_maxsize(self):
        cache = _KeyedCache(bytes, maxsize=4)
        for i in range(50):
            cache.get(bytes([i]))
            assert len(cache._entries) <= 4
        assert list(cache._entries) == [bytes([i]) for i in range(46, 50)]

    def test_threads_never_overfill_or_lose_the_newest_entry(self):
        cache = _KeyedCache(lambda key: key, maxsize=8)
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(2000):
                    key = bytes([rng.randrange(32)])
                    assert cache.get(key) == key
                    assert len(cache._entries) <= 8
            except Exception as exc:  # asserted empty in the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(cache._entries) <= 8
