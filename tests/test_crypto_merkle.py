"""Tests for the Merkle hash tree (the Integrity Core's data structure)."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.merkle import MerkleTree


BLOCK = 16


def make_tree(n_blocks=8, block_size=BLOCK):
    return MerkleTree(n_blocks, block_size=block_size)


class TestConstruction:
    def test_rejects_invalid_sizes(self):
        with pytest.raises(ValueError):
            MerkleTree(0)
        with pytest.raises(ValueError):
            MerkleTree(4, block_size=0)

    def test_leaf_count_rounded_to_power_of_two(self):
        tree = MerkleTree(5, block_size=BLOCK)
        assert tree.n_leaves == 8
        assert tree.depth == 3

    def test_single_block_tree(self):
        tree = MerkleTree(1, block_size=BLOCK)
        assert tree.n_leaves == 1
        assert tree.depth == 0
        tree.update(0, b"A" * BLOCK)
        assert tree.verify(0, b"A" * BLOCK)

    def test_initial_state_verifies_zero_blocks(self):
        tree = make_tree()
        for index in range(tree.n_blocks):
            assert tree.verify(index, bytes(BLOCK))


def folded_zero_root(n_leaves, block_size):
    """The root of an all-zero image, folded from the leaf and node hash
    definitions (version 0 everywhere)."""
    level = [
        hashlib.sha256(b"leaf" + i.to_bytes(8, "big") + bytes(8) + bytes(block_size)).digest()
        for i in range(n_leaves)
    ]
    while len(level) > 1:
        level = [
            hashlib.sha256(b"node" + level[i] + level[i + 1]).digest()
            for i in range(0, len(level), 2)
        ]
    return level[0]


class TestZeroImage:
    @pytest.mark.parametrize("n_blocks, block_size", [(1, 16), (5, 16), (64, 24), (256, 32)])
    def test_root_matches_the_hash_definitions(self, n_blocks, block_size):
        tree = MerkleTree(n_blocks, block_size=block_size)
        assert tree.root == folded_zero_root(tree.n_leaves, block_size)

    def test_second_tree_of_a_size_makes_no_hash_call(self, monkeypatch):
        import repro.crypto.merkle as merkle

        calls = []
        sha256 = merkle.sha256
        monkeypatch.setattr(merkle, "sha256", lambda data: calls.append(1) or sha256(data))
        first = MerkleTree(48, block_size=24)
        first.update(3, b"W" * 24)
        calls.clear()
        second = MerkleTree(48, block_size=24)
        assert calls == []
        # The first tree's write stays in the first tree.
        assert second.root == folded_zero_root(64, 24) != first.root
        assert all(second.verify(index, bytes(24)) for index in range(48))
        assert first.verify(3, b"W" * 24)


class TestUpdateAndVerify:
    def test_update_changes_root(self):
        tree = make_tree()
        original_root = tree.root
        tree.update(3, b"B" * BLOCK)
        assert tree.root != original_root

    def test_verify_accepts_current_content(self):
        tree = make_tree()
        tree.update(2, b"C" * BLOCK)
        assert tree.verify(2, b"C" * BLOCK)

    def test_verify_rejects_tampered_content(self):
        tree = make_tree()
        tree.update(2, b"C" * BLOCK)
        assert not tree.verify(2, b"X" * BLOCK)

    def test_verify_rejects_stale_version_replay(self):
        tree = make_tree()
        tree.update(1, b"OLD" + bytes(BLOCK - 3))
        old_version = tree.version(1)
        tree.update(1, b"NEW" + bytes(BLOCK - 3))
        # Replaying the old content with its old version must fail: the tree
        # now binds version 2 into the leaf.
        assert not tree.verify(1, b"OLD" + bytes(BLOCK - 3), version=old_version)

    def test_verify_rejects_relocated_content(self):
        tree = make_tree()
        payload = b"MOVE" + bytes(BLOCK - 4)
        tree.update(0, payload)
        tree.update(4, b"stay" + bytes(BLOCK - 4))
        # The content of block 0 presented as block 4 must not verify.
        assert not tree.verify(4, payload)

    def test_versions_increment_per_block(self):
        tree = make_tree()
        assert tree.version(5) == 0
        tree.update(5, bytes(BLOCK))
        tree.update(5, bytes(BLOCK))
        assert tree.version(5) == 2
        assert tree.version(4) == 0

    def test_update_validates_inputs(self):
        tree = make_tree()
        with pytest.raises(IndexError):
            tree.update(100, bytes(BLOCK))
        with pytest.raises(ValueError):
            tree.update(0, b"short")

    def test_counters(self):
        tree = make_tree()
        tree.update(0, bytes(BLOCK))
        tree.verify(0, bytes(BLOCK))
        tree.verify(1, bytes(BLOCK))
        assert tree.update_count == 1
        assert tree.verify_count == 2


class TestAuthPath:
    def test_path_length_equals_depth(self):
        tree = make_tree(8)
        assert len(tree.auth_path(0)) == tree.depth

    def test_path_recomputes_root(self):
        tree = make_tree(8)
        data = b"P" * BLOCK
        tree.update(6, data)
        path = tree.auth_path(6)
        recomputed = tree.compute_root_from_path(6, data, tree.version(6), path)
        assert recomputed == tree.root

    def test_path_with_wrong_data_does_not_recompute_root(self):
        tree = make_tree(8)
        tree.update(6, b"P" * BLOCK)
        path = tree.auth_path(6)
        recomputed = tree.compute_root_from_path(6, b"Q" * BLOCK, tree.version(6), path)
        assert recomputed != tree.root


class TestProperties:
    @given(
        st.integers(min_value=2, max_value=16),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=15), st.binary(min_size=BLOCK, max_size=BLOCK)),
            min_size=1,
            max_size=20,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_last_write_always_verifies(self, n_blocks, writes):
        tree = MerkleTree(n_blocks, block_size=BLOCK)
        latest = {}
        for index, data in writes:
            index %= n_blocks
            tree.update(index, data)
            latest[index] = data
        for index, data in latest.items():
            assert tree.verify(index, data)

    @given(
        st.lists(st.binary(min_size=BLOCK, max_size=BLOCK), min_size=2, max_size=8, unique=True),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_other_block_content_fails_verification(self, contents):
        tree = MerkleTree(len(contents), block_size=BLOCK)
        for index, data in enumerate(contents):
            tree.update(index, data)
        # Presenting block j's content as block i (i != j) must fail.
        for i in range(len(contents)):
            for j in range(len(contents)):
                if i != j:
                    assert not tree.verify(i, contents[j])

    @given(
        st.integers(min_value=1, max_value=16),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=15), st.binary(min_size=BLOCK, max_size=BLOCK)),
            min_size=1,
            max_size=12,
        ),
        st.integers(min_value=0, max_value=15),
    )
    @settings(max_examples=40, deadline=None)
    def test_verify_matches_the_auth_path_walker(self, n_blocks, writes, pick):
        # verify() walks the sibling digests itself; it must agree with the
        # hardware walker model, auth_path() then compute_root_from_path().
        tree = MerkleTree(n_blocks, block_size=BLOCK)
        latest = {}
        for index, data in writes:
            index %= n_blocks
            tree.update(index, data)
            latest[index] = data
        index = sorted(latest)[pick % len(latest)]
        current = latest[index]
        version = tree.version(index)
        tampered = bytes([current[0] ^ 1]) + current[1:]
        path = tree.auth_path(index)
        for data, at_version, expected in (
            (current, version, True),
            (tampered, version, False),
            (current, version - 1, False),  # a stale version: replay
        ):
            walked = tree.compute_root_from_path(index, data, at_version, path) == tree.root
            assert tree.verify(index, data, at_version) == walked == expected
        assert tree.verify(index, current)

    @given(st.binary(min_size=BLOCK, max_size=BLOCK), st.integers(min_value=0, max_value=BLOCK * 8 - 1))
    @settings(max_examples=40, deadline=None)
    def test_single_bit_flip_always_detected(self, data, bit):
        tree = MerkleTree(4, block_size=BLOCK)
        tree.update(1, data)
        tampered = bytearray(data)
        tampered[bit // 8] ^= 1 << (bit % 8)
        assert not tree.verify(1, bytes(tampered))
