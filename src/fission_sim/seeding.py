"""Hierarchical RNG stream derivation.

One master seed fans out into independent, label-addressed streams so that a
change in how one module consumes randomness cannot perturb any other
module's draws (stable golden outputs per (config, seed)).
"""

from __future__ import annotations

import random

from .crypto import sha3


def child_bytes(master_seed: int, *labels: object) -> bytes:
    material = str(int(master_seed)).encode()
    for label in labels:
        material += b"/" + str(label).encode()
    return sha3(material)


def child_seed(master_seed: int, *labels: object) -> int:
    return int.from_bytes(child_bytes(master_seed, *labels), "big")


def split(master_seed: int, *labels: object) -> random.Random:
    return random.Random(child_seed(master_seed, *labels))
