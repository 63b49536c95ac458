"""Merkle hash tree protecting a block-addressed memory region.

This is the data structure behind the paper's Integrity Core ("this module is
based on hash-trees", section IV-B2).  The tree covers a fixed number of
equally-sized memory blocks; leaf ``i`` is the hash of block ``i`` bound to
the block address and a timestamp (which is what defeats spoofing,
relocation and replay), interior nodes hash the concatenation of their
children, and the root is kept in trusted on-chip storage.

The implementation supports:

* starting from an all-zero memory image, whose levels are hashed once per
  tree size and copied into each new tree,
* verifying a block read against the trusted root (returning the authentication
  path that a hardware walker would fetch),
* updating a block on writes, recomputing the path up to the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from repro.crypto.sha256 import sha256

__all__ = ["MerkleTree", "AuthPathEntry"]


@dataclass(frozen=True)
class AuthPathEntry:
    """One step of a Merkle authentication path.

    Attributes
    ----------
    level:
        Tree level of the sibling node (0 = leaves).
    index:
        Index of the sibling node within its level.
    digest:
        The sibling node's digest.
    is_left_sibling:
        True if the sibling sits to the left of the path node.
    """

    level: int
    index: int
    digest: bytes
    is_left_sibling: bool


def _leaf_hash(index: int, data: bytes, version: int) -> bytes:
    """Hash a leaf, binding block contents to its index and version.

    Binding the index defeats relocation (moving a valid ciphertext to a
    different address) and binding the version/timestamp defeats replay
    (restoring a stale but once-valid value) — exactly the two attacks the
    paper's LCF claims to cover with address control and time-stamp tags.
    """
    header = index.to_bytes(8, "big") + version.to_bytes(8, "big")
    return sha256(b"leaf" + header + data)


def _node_hash(left: bytes, right: bytes) -> bytes:
    return sha256(b"node" + left + right)


@lru_cache(maxsize=32)
def _zero_levels(n_leaves: int, block_size: int) -> Tuple[Tuple[bytes, ...], ...]:
    """Every level of a tree over ``n_leaves`` all-zero blocks at version 0,
    leaves first and the root last."""
    zero_block = bytes(block_size)
    level = tuple(_leaf_hash(i, zero_block, 0) for i in range(n_leaves))
    levels = [level]
    while len(level) > 1:
        level = tuple(_node_hash(level[i], level[i + 1]) for i in range(0, len(level), 2))
        levels.append(level)
    return tuple(levels)


class MerkleTree:
    """Binary Merkle tree over ``n_blocks`` blocks of ``block_size`` bytes.

    Parameters
    ----------
    n_blocks:
        Number of protected memory blocks.  Rounded up internally to the next
        power of two; phantom blocks hash an all-zero block.
    block_size:
        Size in bytes of each protected block.
    """

    def __init__(self, n_blocks: int, block_size: int = 32) -> None:
        if n_blocks <= 0:
            raise ValueError("n_blocks must be positive")
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.n_blocks = n_blocks
        self.block_size = block_size

        self._n_leaves = 1
        while self._n_leaves < n_blocks:
            self._n_leaves *= 2
        self.depth = self._n_leaves.bit_length() - 1

        self._versions: List[int] = [0] * self._n_leaves
        # levels[0] = leaves, levels[-1] = [root]
        self._levels: List[List[bytes]] = [
            list(level) for level in _zero_levels(self._n_leaves, block_size)
        ]
        self.update_count = 0
        self.verify_count = 0

    # -- properties -----------------------------------------------------------

    @property
    def root(self) -> bytes:
        """The trusted root digest (stored on-chip in the real system)."""
        return self._levels[-1][0]

    @property
    def n_leaves(self) -> int:
        """Number of leaf slots (power of two >= ``n_blocks``)."""
        return self._n_leaves

    def version(self, block_index: int) -> int:
        """Current write-version (timestamp tag) of a block."""
        self._check_index(block_index)
        return self._versions[block_index]

    # -- updates --------------------------------------------------------------

    def update(self, block_index: int, data: bytes) -> bytes:
        """Record a write to ``block_index`` and return the new root.

        The block's version counter is incremented, which models the LCF's
        time-stamp tag: a later replay of the old ciphertext will hash with the
        wrong version and fail verification.
        """
        self._check_index(block_index)
        self._check_data(data)
        self._versions[block_index] += 1
        levels = self._levels
        levels[0][block_index] = _leaf_hash(block_index, data, self._versions[block_index])
        # Rehash the path up to the root (_node_hash, inline).
        node = block_index
        for level in range(1, len(levels)):
            below = levels[level - 1]
            node >>= 1
            levels[level][node] = sha256(b"node" + below[2 * node] + below[2 * node + 1])
        self.update_count += 1
        return levels[-1][0]

    # -- verification ---------------------------------------------------------

    def auth_path(self, block_index: int) -> List[AuthPathEntry]:
        """Return the authentication path for a block (siblings up to the root)."""
        self._check_index(block_index)
        path: List[AuthPathEntry] = []
        node = block_index
        for level in range(len(self._levels) - 1):
            sibling = node ^ 1
            path.append(
                AuthPathEntry(
                    level=level,
                    index=sibling,
                    digest=self._levels[level][sibling],
                    is_left_sibling=(sibling < node),
                )
            )
            node //= 2
        return path

    def compute_root_from_path(
        self,
        block_index: int,
        data: bytes,
        version: int,
        path: Sequence[AuthPathEntry],
    ) -> bytes:
        """Recompute the root from a block value and an authentication path."""
        digest = _leaf_hash(block_index, data, version)
        for entry in path:
            if entry.is_left_sibling:
                digest = _node_hash(entry.digest, digest)
            else:
                digest = _node_hash(digest, entry.digest)
        return digest

    def verify(self, block_index: int, data: bytes, version: Optional[int] = None) -> bool:
        """Check that ``data`` is the authentic current content of a block.

        Returns True when the recomputed root matches the trusted root.  Does
        not raise; the firewall decides how to react to a mismatch.
        """
        self._check_index(block_index)
        self._check_data(data)
        self.verify_count += 1
        if version is None:
            version = self._versions[block_index]
        # compute_root_from_path over auth_path, without the path objects.
        digest = _leaf_hash(block_index, data, version)
        node = block_index
        for level in self._levels[:-1]:
            sibling = level[node ^ 1]
            digest = sha256(b"node" + sibling + digest if node & 1 else b"node" + digest + sibling)
            node >>= 1
        return digest == self._levels[-1][0]

    # -- invariants / helpers -------------------------------------------------

    def _check_index(self, block_index: int) -> None:
        if not 0 <= block_index < self.n_blocks:
            raise IndexError(
                f"block index {block_index} out of range [0, {self.n_blocks})"
            )

    def _check_data(self, data: bytes) -> None:
        if len(data) != self.block_size:
            raise ValueError(
                f"block data must be {self.block_size} bytes, got {len(data)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"MerkleTree(n_blocks={self.n_blocks}, block_size={self.block_size}, "
            f"depth={self.depth}, root={self.root.hex()[:16]}...)"
        )
