"""Binary Merkle tree root over ordered 32-byte leaves.

Conventions: the empty list hashes to SHA3-256 of the empty string, a layer
with an odd node count duplicates its last node, and a single leaf is hashed
with itself (so every root is the output of at least one combine step).
"""

from __future__ import annotations

from operator import add

from .crypto import sha3

EMPTY_ROOT = sha3(b"")


def merkle_root(leaves: list[bytes]) -> bytes:
    if not leaves:
        return EMPTY_ROOT
    return merkle_levels(leaves)[-1][0]


def merkle_levels(leaves: list[bytes]) -> list[list[bytes]]:
    """Every layer of the tree over ``leaves``, from the leaves (``leaves``
    itself, not copied) to the one-node root layer; ``[[]]`` when empty.

    A layer's last node pairs with itself when the layer is odd, so a single
    leaf still gets a root layer above it.
    """
    levels = [leaves]
    if not leaves:
        return levels
    while True:
        level = levels[-1]
        # map stops at the shorter list, so an odd layer's last node is left over
        nxt = list(map(sha3, map(add, level[0::2], level[1::2])))
        if len(level) % 2:
            nxt.append(sha3(level[-1] + level[-1]))
        levels.append(nxt)
        if len(nxt) == 1:
            return levels


def merkle_update(levels: list[list[bytes]], changes: dict[int, bytes]) -> list[list[bytes]]:
    """The layers of ``levels`` with leaf ``i`` replaced by ``changes[i]``.

    Hashes only the nodes above the changed leaves, into new lists, so
    ``levels`` stays valid. Every position must be an existing leaf.
    """
    level = list(levels[0])
    for i, leaf in changes.items():
        level[i] = leaf
    out = [level]
    moved = set(changes)
    for above in levels[1:]:
        nxt = list(above)
        last = len(level) - 1
        moved = {i >> 1 for i in moved}
        for q in moved:
            left = level[2 * q]
            nxt[q] = sha3(left + (level[2 * q + 1] if 2 * q < last else left))
        out.append(nxt)
        level = nxt
    return out
