"""Golden chain digests: output bytes pinned across implementation changes.

Each case runs a ``ChainSimulation`` and compares the SHA3-256 of
``Chain.export_jsonl()`` with a digest recorded before the ledger, chain and
sortition internals were optimised. A mismatch means the output bytes moved,
which must only ever happen as a deliberate, documented format change.
"""

import pytest

from fission_sim.consensus import ChainSimulation
from fission_sim.crypto import sha3
from fission_sim.partitioning import PartitionConfig

SMALL = dict(h=1.0, alpha=1.0, tau=50.0, theta=0.3, stake_dist="fixed:100")

CASES = {
    "traffic": (
        dict(n_nodes=400, tx_per_epoch=1000, invalid_fraction=0.05, seed=11),
        8,
        "3de59caa66ebd1c3f374fc357d01a4a4d64bb0a4761049efe426e17728c49412",
    ),
    "offline": (
        dict(n_nodes=60, tx_per_epoch=40, offline_rate=0.1, seed=12),
        10,
        "9e7279ad5c4c718ed60d97047c1c7cec3902e0b9c73bda370be966825bbf39f7",
    ),
    "reshard": (
        dict(
            SMALL, n_nodes=12, tx_per_epoch=40, invalid_fraction=0.05, seed=3,
            partition_cfg=PartitionConfig(n_partition=1, n_shard=2, n_e_max=4, delta=0.8, n_rs=2),
        ),
        16,
        "db9924c1d11ec0df1fd422a463a6deb76ec88323c3dc5cb6f4194efa216bcf60",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_chain_digest(case):
    params, epochs, expected = CASES[case]
    sim = ChainSimulation(**params)
    sim.run(epochs)
    if case == "reshard":
        assert sim.chain.state.n_shard >= 4
    assert sha3(sim.chain.export_jsonl().encode()).hex() == expected
