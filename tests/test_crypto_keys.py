"""Tests for deterministic key generation and the key store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import KeyError_, KeyStore, KeyStoreLocked, random_key


class TestRandomKey:
    def test_random_key_is_deterministic(self):
        assert random_key(42) == random_key(42)
        assert random_key(42) != random_key(43)

    def test_random_key_length(self):
        assert len(random_key(1, 16)) == 16
        assert len(random_key(1, 33)) == 33
        with pytest.raises(ValueError):
            random_key(1, 0)

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=30, deadline=None)
    def test_distinct_seeds_give_distinct_keys(self, seed_a, seed_b):
        if seed_a != seed_b:
            assert random_key(seed_a) != random_key(seed_b)


class TestKeyStore:
    def test_install_and_get(self):
        store = KeyStore()
        store.install(1, random_key(1))
        assert store.get(1) == random_key(1)
        assert store.has(1)
        assert 1 in store
        assert len(store) == 1

    def test_get_missing_raises(self):
        with pytest.raises(KeyError_):
            KeyStore().get(9)

    def test_install_validates_key_length(self):
        store = KeyStore(key_length=16)
        with pytest.raises(ValueError):
            store.install(1, b"short")
        with pytest.raises(ValueError):
            store.install(-1, bytes(16))

    def test_lock_blocks_modification(self):
        store = KeyStore()
        store.install(1, bytes(16))
        store.lock()
        assert store.locked
        with pytest.raises(KeyStoreLocked):
            store.install(2, bytes(16))
        with pytest.raises(KeyStoreLocked):
            store.zeroise(1)
        # Reads still work while locked.
        assert store.get(1) == bytes(16)
        store.unlock()
        store.install(2, bytes(16))

    def test_zeroise(self):
        store = KeyStore()
        store.install(1, bytes(16))
        store.install(2, bytes(16))
        store.zeroise(1)
        assert not store.has(1)
        store.zeroise_all()
        assert len(store) == 0

    def test_iteration_is_sorted(self):
        store = KeyStore()
        for spi in (5, 1, 3):
            store.install(spi, bytes(16))
        assert list(store) == [1, 3, 5]
