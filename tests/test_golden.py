"""Golden digests: output bytes pinned across implementation changes.

Each chain case runs a ``ChainSimulation`` and compares the SHA3-256 of
``Chain.export_jsonl()`` with a digest recorded before the ledger, chain and
sortition internals were optimised. The relay cases do the same for the
``simulate_prs`` trace rows and the lemma-validator means, recorded before the
relay round was inlined, and the retrieval cases for the ``simulate_drs`` trace
rows, recorded before the retrieval round was rewritten as one scan. The
epoch-metadata cases pin what the chain export leaves out (proposer, committee
and adversary weight, micro timeouts, invalid transactions, emptiness), recorded
before the committee draws, leader pick and vote signing were optimised; the
library elects no proposer, so these cases elect it through the per-node
reference from each epoch's offline keys. A mismatch means the output bytes
moved, which must only ever happen as a deliberate, documented format change.
"""

import copy
import random

import pytest

from fission_sim.chain import INTERIM
from fission_sim.cli import main
from fission_sim.config import CHAIN_KEYWORDS, load_config
from fission_sim import consensus
from fission_sim.consensus import STRATEGIES, ChainSimulation
from fission_sim.crypto import sha3
from fission_sim.dists import sample_dist
from fission_sim.drs import simulate_drs
from fission_sim.relay import RelaySystemState, simulate_prs, validate_lemma_expectation
from fission_sim.sortition import BLOCK_INTERIM, BLOCK_MAIN, select_committee
from reference import attach, elect_proposer

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
            n_partition=1, n_shard=2, n_e_max=4, delta=0.8, n_rs=2,
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


def test_partition_config_is_read_never_written():
    # one config object drives two runs: both give the golden chain, re-shards
    # included, and neither the config nor the partition settings that the
    # run's chain reads are written
    params, epochs, expected = CASES["reshard"]
    cfg = load_config(None, {CHAIN_KEYWORDS[key]: value for key, value in params.items()})
    before = copy.deepcopy(cfg)
    for _ in range(2):
        sim = ChainSimulation(cfg)
        sim.run(epochs)
        assert sha3(sim.chain.export_jsonl().encode()).hex() == expected
        assert sim.chain.state.n_shard > sim.chain.partition.n_shard
        assert sim.chain.partition == before.partition
    assert cfg == before


def _reprs_digest(values) -> str:
    return sha3("\n".join(repr(v) for v in values).encode()).hex()


# params, epochs, digest of every EpochResult's metadata
EPOCH_META_CASES = {
    # 30% of online nodes drop out each epoch, so the leader falls back and
    # quorums fail; theta 0.4 makes some fail outright
    "offline": (
        dict(n_nodes=60, tx_per_epoch=40, offline_rate=0.3, invalid_fraction=0.1, theta=0.4, seed=21),
        12,
        "248a92bb706e14a14e5d27b06a327a08bf8e71423eba3a94adbe9c58eedb758a",
    ),
    "byzantine": (
        dict(n_nodes=100, stake_dist="fixed:2500", tx_per_epoch=30, seed=13),
        10,
        "938373323c5a80331a3c59e8c381e92fe3aa0596f874ab8be9e78ec156ba064c",
    ),
}


def _proposers(sim, results, offline_sets) -> list[bytes | None]:
    """Each epoch's proposer, elected through the reference: its block
    committee, re-drawn from the block's seed, less its offline keys."""
    registry = sim.population.registry
    proposers = []
    for r, offline in zip(results, offline_sets):
        seed = sim.chain.blocks[r.epoch].header.seed
        ctype = BLOCK_INTERIM if r.kind == INTERIM else BLOCK_MAIN
        committee = select_committee(sim.population.electorate, seed, ctype, sim.p)
        proposers.append(elect_proposer(registry, committee.pks, seed, offline))
    return proposers


def _leader_fallbacks(sim, results, proposers) -> int:
    """Epochs whose proposer is not the head of the full leader order."""
    heads = _proposers(sim, results, [set()] * len(results))
    return sum(proposer != head for proposer, head in zip(proposers, heads))


@pytest.mark.parametrize("case", sorted(EPOCH_META_CASES))
def test_golden_epoch_metadata_digest(case):
    params, epochs, expected = EPOCH_META_CASES[case]
    sim = ChainSimulation(**params)
    drawn = []
    draw_offline = sim._draw_offline
    sim._draw_offline = lambda: drawn.append(draw_offline()) or drawn[-1]
    results = sim.run(epochs)
    proposers = _proposers(sim, results, drawn)
    if case == "offline":
        assert _leader_fallbacks(sim, results, proposers) > 0
        assert any(r.micro_timeouts for r in results) and any(r.empty for r in results)
    else:
        assert set(sim.population.strategies.values()) == set(STRATEGIES)
    rows = [
        (proposer, r.committee_weight, r.adversary_weight, r.micro_timeouts, r.invalid_txs, r.empty)
        for r, proposer in zip(results, proposers)
    ]
    assert _reprs_digest(rows) == expected


def test_each_epoch_signs_only_the_votes_its_block_carries(monkeypatch):
    # the offline case has micro timeouts and timeout blocks; neither a micro
    # round nor a conflicting vote signs anything, so every key signed in an
    # epoch is one of its block's votes, and a timeout block has none
    params, epochs, _ = EPOCH_META_CASES["offline"]
    signed = []
    sign_each = consensus.sign_each

    def counting(framed_sks, message):
        signed.append(len(framed_sks))
        return sign_each(framed_sks, message)

    monkeypatch.setattr(consensus, "sign_each", counting)
    sim = ChainSimulation(**params)
    timeouts = timeout_blocks = 0
    for _ in range(epochs):
        signed.clear()
        result = sim.step()
        block = sim.chain.tip
        assert sum(signed) == len(block.header.votes)
        if block.is_timeout_block:
            assert signed == []
        timeouts += result.micro_timeouts
        timeout_blocks += block.is_timeout_block
    assert timeouts
    assert timeout_blocks


def test_golden_relay_trace_digest():
    cap_rng = random.Random(17)
    caps = [sample_dist("uniform:2:64", cap_rng, integer=True, minimum=2) for _ in range(64)]
    run = simulate_prs(
        4096, caps, rounds=24, seed=19, start="worst",
        join_rate=40.0, leave_rate=0.01, stop_at_steady=False,
    )
    assert len(run.rows) == 25
    rows = [(r.round, r.phi, r.expected_delay, r.max_ratio, r.switches) for r in run.rows]
    assert _reprs_digest(rows) == (
        "456b1593f1e9c4f6431a33b1cf0ee266f970adadb9a08b7cd2ba28a807e2666f"
    )


def test_golden_relay_lemma_expectation_digest():
    state = RelaySystemState([2.0, 3.0, 5.0, 8.0, 13.0])
    for relayer, load in enumerate([30, 0, 12, 0, 9]):
        for _ in range(load):
            attach(state, relayer)
    report = validate_lemma_expectation(state, trials=300, seed=29)
    assert _reprs_digest(report.means) == (
        "7cf9764feaa09cfd4c89476c28839b75fdbc347d9a1a371358c78c0bbb2cb614"
    )


# (n_nodes, n_keys, size_dist, cap_dist, replication, deadline), options, digest
# over seeds 1-3; the non-integer deadline makes the float sums order-sensitive
DRS_CASES = {
    "concentrated": (
        (1024, 32, "uniform:16:96", "uniform:2:32", 6, 7.3),
        dict(start="concentrated"),
        "b15354b1154de84edc298f78d7f21b446977c3bd1c7219519749e3f3df7bcda9",
    ),
    "uniform-pareto": (
        (2048, 64, "pareto:1.3", "uniform:2:32", 3, 7.3),
        dict(start="uniform"),
        "1ba51b7394da0f8a6efee147cb70694dbbcccc3cb4860638a72881e8d50fea5c",
    ),
}


@pytest.mark.parametrize("case", sorted(DRS_CASES))
def test_golden_drs_trace_digest(case):
    args, options, expected = DRS_CASES[case]
    rows = []
    for seed in (1, 2, 3):
        run = simulate_drs(*args, seed, **options)
        rows += [
            (r.round, r.phi, r.omega, r.underloaded_m, r.migrations, r.relayer_kb) for r in run.rows
        ]
    assert _reprs_digest(rows) == expected


SMALL_CHAIN_CFG = (
    "population.nodes = 24\npopulation.stake_dist = fixed:100\n"
    "security.h = 1.0\nsecurity.alpha = 1.0\nsecurity.tau = 50\n"
    "chain.tx_per_epoch = 15\nchain.invalid_fraction = 0.1\nchain.offline_rate = 0.1\n"
)
# the golden "reshard" chain case as a config file: the shards double twice in
# 16 epochs, so the CSV pins the shard count each re-shard epoch reports
RESHARD_CHAIN_CFG = (
    "population.nodes = 12\npopulation.stake_dist = fixed:100\n"
    "security.h = 1.0\nsecurity.alpha = 1.0\nsecurity.tau = 50\n"
    "chain.tx_per_epoch = 40\nchain.invalid_fraction = 0.05\n"
    "partition.n_shard = 2\npartition.n_partition = 1\npartition.n_e_max = 4\npartition.n_rs = 2\n"
)

DRS_CONCENTRATED_DIGEST = "5aed9ef2e12efb2b30efd85a3f2b54ae3289db61358b75110512bf61a260a1ef"

# argv, digest of the CSV, JSONL and stdout bytes; recorded before relay, drs
# and chain were moved onto one config path, and chain-reshard before the
# partition scaler and re-sharding moved into Chain
CLI_CASES = {
    "relay-defaults": (
        ("relay", "--trials", "3", "--seed", "9"),
        "a7a09d097a35044349dfc86012074679d17a190d4d2762d2d61ddcebba07b08d",
    ),
    "relay-random": (
        ("relay", "--nodes", "256", "--relayers", "16", "--rounds", "30", "--trials", "2",
         "--start", "random", "--seed", "5"),
        "9ef6d200bea34c5775b4bdd59fd6cfd3e1a4d945d958ee179c590fb55bf5c845",
    ),
    "drs-uniform": (
        ("drs", "--start", "uniform", "--seed", "3"),
        "cdb90dbef634707e00061ceeec3d31f1017ceaa0fdb57236c07b9c44a178e77b",
    ),
    "drs-concentrated": (
        ("drs", "--start", "concentrated", "--seed", "3"),
        DRS_CONCENTRATED_DIGEST,
    ),
    # the concentrated start is the default, so a bare run gives its bytes
    "drs-default": (("drs", "--seed", "3"), DRS_CONCENTRATED_DIGEST),
    "chain-small": (
        ("chain", "--epochs", "6", "--seed", "5", "--config", "small.cfg"),
        "7856f7a4747da39f9a6c71a159c90a5e2645ccb51b163112891309ddefd05706",
    ),
    "chain-reshard": (
        ("chain", "--epochs", "16", "--seed", "3", "--config", "reshard.cfg"),
        "b9e1cedfba34ace7d79e589e4fdae197c94dad524065c072599d2bb8a89c69ab",
    ),
}


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_golden_cli_output_digest(case, tmp_path, monkeypatch, capsys):
    argv, expected = CLI_CASES[case]
    monkeypatch.chdir(tmp_path)  # default output names, so stdout names no tmp path
    (tmp_path / "small.cfg").write_text(SMALL_CHAIN_CFG)
    (tmp_path / "reshard.cfg").write_text(RESHARD_CHAIN_CFG)
    assert main(list(argv)) == 0
    outputs = [path.read_bytes() for path in sorted([*tmp_path.glob("*.csv"), *tmp_path.glob("*.jsonl")])]
    outputs.append(capsys.readouterr().out.encode())
    assert _reprs_digest(outputs) == expected


def test_config_file_and_keyword_keys_give_one_chain(tmp_path):
    # the golden "reshard" case three ways: its config file, its keyword keys,
    # and a keyword key set over a config
    params, epochs, expected = CASES["reshard"]
    path = tmp_path / "reshard.cfg"
    path.write_text(RESHARD_CHAIN_CFG + "seed = 3\n")
    runs = [
        ChainSimulation(load_config(path)),
        ChainSimulation(**params),
        ChainSimulation(load_config(path, {"seed": 0}), seed=3),
    ]
    exports = []
    for sim in runs:
        sim.run(epochs)
        exports.append(sim.chain.export_jsonl())
    assert exports[0] == exports[1] == exports[2]
    assert sha3(exports[0].encode()).hex() == expected
