import random

from hypothesis import given, settings
from hypothesis import strategies as st

from fission_sim.crypto import sha3
from fission_sim.merkle import EMPTY_ROOT, merkle_levels, merkle_root, merkle_update


def leaf(i: int) -> bytes:
    return sha3(b"leaf%d" % i)


def test_empty_root_is_hash_of_empty_string():
    assert merkle_root([]) == EMPTY_ROOT == sha3(b"")


def test_single_leaf_duplicates():
    h1 = leaf(1)
    assert merkle_root([h1]) == sha3(h1 + h1)


def test_two_leaves():
    h1, h2 = leaf(1), leaf(2)
    assert merkle_root([h1, h2]) == sha3(h1 + h2)


def test_odd_layer_duplicates_last():
    h1, h2, h3 = leaf(1), leaf(2), leaf(3)
    expected = sha3(sha3(h1 + h2) + sha3(h3 + h3))
    assert merkle_root([h1, h2, h3]) == expected


def test_any_leaf_tamper_changes_root():
    leaves = [leaf(i) for i in range(16)]
    root = merkle_root(leaves)
    for i in range(16):
        mutated = list(leaves)
        mutated[i] = sha3(b"tampered%d" % i)
        assert merkle_root(mutated) != root, f"leaf {i} flip went undetected"


def test_order_matters():
    leaves = [leaf(i) for i in range(8)]
    swapped = list(leaves)
    swapped[2], swapped[5] = swapped[5], swapped[2]
    assert merkle_root(swapped) != merkle_root(leaves)


def test_root_deterministic_on_random_sets():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 33)
        leaves = [sha3(rng.randbytes(8)) for _ in range(n)]
        assert merkle_root(leaves) == merkle_root(list(leaves))


def plain_root(leaves: list[bytes]) -> bytes:
    """The conventions of the module docstring, written out as one loop."""
    if not leaves:
        return EMPTY_ROOT
    level = list(leaves)
    if len(level) == 1:
        return sha3(level[0] + level[0])
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        level = [sha3(level[i] + level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]


SIZES = st.sampled_from([0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65]) | st.integers(0, 70)


@settings(max_examples=80, deadline=None)
@given(n=SIZES, data=st.data())
def test_levels_and_path_updates_match_a_plain_root(n, data):
    leaves = [leaf(i) for i in range(n)]
    levels = merkle_levels(leaves)
    assert merkle_root(leaves) == plain_root(leaves)
    assert levels[0] == leaves and (n == 0 or levels[-1] == [plain_root(leaves)])
    if n == 0:
        return
    positions = data.draw(st.sets(st.integers(0, n - 1)) | st.just(set(range(n))))
    changes = {i: sha3(b"new%d" % i) for i in positions}
    changed = [changes.get(i, lf) for i, lf in enumerate(leaves)]
    updated = merkle_update(levels, changes)
    assert updated == merkle_levels(changed)
    assert updated[-1] == [plain_root(changed)]
    # the base layers are left as they were
    assert levels == merkle_levels(leaves)
