import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fission_sim.chain import Chain
from fission_sim.cli import CHAIN_COLUMNS, main
from fission_sim.config import MAX_JOIN_RATE, MAX_NODES, MAX_SHARDS, SimConfig, load_config
from fission_sim.consensus import ChainSimulation
from fission_sim.crypto import KeyRegistry, sha3
from fission_sim.dists import sample_dist
from fission_sim.drs import simulate_drs
from fission_sim.errors import ValidationError
from fission_sim.relay import simulate_prs
from fission_sim.seeding import child_seed, split
from fission_sim.sortition import BLOCK_INTERIM
from reference import draw_outcome


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_security_reports_design_values(capsys):
    code, out, _ = run_cli(capsys, "security", "-h", "0.75", "-a", "1.0")
    assert code == 0
    data = json.loads(out)
    assert data["tau_min"] == pytest.approx(1134.0, rel=1e-9)
    assert data["quorum"] == 1500
    assert data["theta_lo"] == pytest.approx(0.2949719912834644, rel=1e-9)
    assert all(v < 1e-10 for v in data["failure_probabilities"].values())


def test_security_exact_constant_flag(capsys):
    _, out, _ = run_cli(capsys, "security", "-h", "0.75", "-a", "1.0", "--exact-constant")
    assert json.loads(out)["tau_min"] == pytest.approx(6.36**2 * 1.75 / 0.0625, rel=1e-12)


def test_security_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "security", "-h", "0.5")
    assert code == 2
    assert "honesty" in err or "2/3" in err


def test_security_nonpositive_k_total_exits_2(capsys):
    # p = tau / K is computed only after K is checked
    code, out, err = run_cli(capsys, "security", "-h", "0.8", "-K", "0")
    assert code == 2 and out == ""
    assert err == "error: K must be positive, got 0\n"


def test_security_k_total_past_the_float_range_exits_2(capsys):
    # p = tau / K would raise OverflowError converting K to a float
    code, out, err = run_cli(capsys, "security", "-h", "0.75", "-K", "1" + "0" * 400)
    assert code == 2 and out == ""
    assert err == "error: K must be at most 1.79769e+308, the float range, got a 401-digit integer\n"
    # the largest K below the float range still computes p
    code, out, _ = run_cli(capsys, "security", "-h", "0.75", "-K", str(int(sys.float_info.max)))
    assert code == 0 and json.loads(out)["p"] > 0.0


def test_sortition_output_shape(capsys):
    code, out, _ = run_cli(
        capsys, "sortition", "--nodes", "20", "--stake-dist", "fixed:1000",
        "--tau", "2000", "--seed", "3",
    )
    assert code == 0
    data = json.loads(out)
    assert data["k_total"] == 20_000
    assert data["expected_total_weight"] == pytest.approx(2000.0)
    assert all(m["weight"] > 0 for m in data["members"])
    total = sum(m["weight"] for m in data["members"])
    assert data["total_weight"] == total
    # members are the nodes whose scalar draw has positive weight, in pk order
    registry, expected = KeyRegistry(), []
    seed = child_seed(3, "sortition-seed").to_bytes(32, "big")
    for i in range(20):
        sk, pk = registry.generate(f"3/sortition/{i}".encode())
        expected.append(draw_outcome(sk, pk, seed, BLOCK_INTERIM, 1000, data["p"]))
    expected = sorted((o for o in expected if o.weight > 0), key=lambda o: o.pk)
    assert data["members"] == [{"pk": o.pk.hex()[:16], "weight": o.weight} for o in expected]
    # the bytes printed before committees became columns
    assert sha3(out.encode()).hex() == "df708075e6838eb3319846e4e999ce84150cd4a2c9e74f1eb002511938975ee2"


@pytest.mark.parametrize("nodes", ["-3", "0", str(MAX_NODES + 1)])
def test_sortition_bad_node_count_exits_2(capsys, monkeypatch, nodes):
    # 200,000,000 nodes died of MemoryError in the stake draw; the cap is
    # checked before anything is drawn
    monkeypatch.setattr("fission_sim.cli.dist_sampler", None)  # calling it would raise
    code, out, err = run_cli(capsys, "sortition", "--nodes", nodes)
    assert code == 2 and out == ""
    assert err == f"error: nodes (--nodes): must be in [1, 16777216], got {nodes}\n"


def test_chain_outputs_deterministic(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "population.nodes = 24\npopulation.stake_dist = fixed:100\n"
        "security.h = 1.0\nsecurity.alpha = 1.0\nsecurity.tau = 50\n"
        "chain.tx_per_epoch = 15\nchain.invalid_fraction = 0.1\n"
    )
    outs = []
    for run in ("x", "y"):
        out = tmp_path / f"chain-{run}.jsonl"
        metrics = tmp_path / f"metrics-{run}.csv"
        code, _, _ = run_cli(
            capsys, "chain", "--epochs", "8", "--config", str(cfg), "--seed", "7",
            "--out", str(out), "--metrics", str(metrics),
        )
        assert code == 0
        outs.append((out.read_bytes(), metrics.read_bytes()))
    assert outs[0] == outs[1]
    header = outs[0][1].decode().splitlines()[0]
    assert header == "epoch,kind,confirmed_subtx,committee_weight,adversary_weight,empty_flag,n_partition,n_shard"
    first_line = json.loads(outs[0][0].decode().splitlines()[0])
    assert first_line["epoch"] == 0 and first_line["kind"] == "main"


def test_chain_rejects_invalid_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("security.theta = 0.2\n")
    code, _, err = run_cli(capsys, "chain", "--config", str(cfg), "--epochs", "2")
    assert code == 2
    assert "security.theta" in err


@pytest.mark.parametrize("key, value, rule", [
    ("h", "0.6", "honesty threshold must be in (2/3, 1], got 0.6"),
    ("alpha", "0", "activity must be in (0, 1], got 0.0"),
    ("theta", "1.5", "theta must be in (0, 1), got 1.5"),
])
def test_chain_security_domain_error_names_the_dotted_key(tmp_path, capsys, monkeypatch, key, value, rule):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(f"security.{key} = {value}\n")
    code, _, err = run_cli(capsys, "chain", "--config", "run.cfg", "--epochs", "2")
    assert (code, err) == (2, f"error: security.{key}: {rule}\n")


@pytest.mark.parametrize("tau", ["1e307", "1.7e308"])
def test_chain_huge_tau_exits_2_naming_the_key(tmp_path, capsys, monkeypatch, tau):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(f"security.tau = {tau}\n")
    code, _, err = run_cli(capsys, "chain", "--config", "run.cfg", "--epochs", "2")
    assert code == 2
    assert err.startswith("error: security.tau: ") and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


# theta * tau = 3e-11: the quorum ceil(theta * tau) would be 0 and the first
# committee's adversary weight of 0 would reach it
ZERO_QUORUM_CFG = (
    "security.h = 1.0\nsecurity.alpha = 1.0\nsecurity.tau = 1e-10\npopulation.nodes = 20\n"
)


def test_chain_zero_quorum_exits_2_naming_tau(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(ZERO_QUORUM_CFG)
    code, out, err = run_cli(capsys, "chain", "--config", "run.cfg", "--epochs", "4")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: security.tau: ")
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_chain_simulation_rejects_a_zero_quorum():
    with pytest.raises(ValidationError) as err:
        ChainSimulation(h=1.0, alpha=1.0, tau=1e-10)
    assert err.value.field == "security.tau"


def test_chain_stake_past_eight_bytes_exits_2_naming_the_key(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(
        "population.nodes = 40\npopulation.stake_dist = fixed:100000000000000000000\n"
    )
    code, _, err = run_cli(capsys, "chain", "--config", "run.cfg", "--epochs", "2")
    assert code == 2
    assert err.startswith("error: population.stake_dist: ") and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


# two stakes of 2^64 - 2048, the largest below 2^64: at seed 1 the credit
# block of epoch 154 would lift a balance past the 8 bytes it is encoded in
OVERFLOW_CFG = "population.nodes = 2\npopulation.stake_dist = fixed:18446744073709549568\n"


def test_chain_invariant_violation_exits_3_keeping_the_completed_epochs(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(OVERFLOW_CFG)
    code, out, err = run_cli(capsys, "chain", "--config", "run.cfg", "--seed", "1", "--epochs", "200")
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("invariant violation: ")
    assert "'balance-width'" in err and "Traceback" not in err
    # genesis and epochs 1..153 in order, each the library's own line, and
    # one CSV row per completed epoch; a run that stops writes no summary
    text = (tmp_path / "chain.jsonl").read_text()
    assert [json.loads(line)["epoch"] for line in text.splitlines()] == list(range(154))
    sim = ChainSimulation(load_config("run.cfg", {"seed": 1}))
    sim.run(153)
    assert text == sim.chain.export_jsonl()
    rows = list(csv.reader((tmp_path / "metrics.csv").read_text().splitlines()))
    assert rows[0] == CHAIN_COLUMNS
    assert [int(row[0]) for row in rows[1:]] == list(range(1, 154))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.jsonl", "metrics.csv", "run.cfg"]


def test_chain_writes_each_block_as_its_epoch_ends(tmp_path, capsys, monkeypatch):
    # the CLI never builds the whole chain's export; its lines are the same bytes
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("population.nodes = 24\nchain.tx_per_epoch = 10\n")

    def no_export(self):
        raise AssertionError("the CLI exported the whole chain")

    monkeypatch.setattr(Chain, "export_jsonl", no_export)
    code, _, _ = run_cli(capsys, "chain", "--config", "run.cfg", "--seed", "2", "--epochs", "6")
    assert code == 0
    monkeypatch.undo()  # the chdir too
    sim = ChainSimulation(load_config(tmp_path / "run.cfg", {"seed": 2}))
    sim.run(6)
    assert (tmp_path / "chain.jsonl").read_text() == sim.chain.export_jsonl()


BIG_STAKES = "population.nodes = 40\npopulation.stake_dist = fixed:6000000000000000000\n"


def test_chain_total_stake_past_eight_bytes_runs(tmp_path, capsys, monkeypatch):
    # 40 stakes of 6e18 each fit 8 bytes; only their total K does not
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(BIG_STAKES + "security.tau = 100000\n")
    code, _, _ = run_cli(capsys, "chain", "--config", "run.cfg", "--epochs", "4")
    assert code == 0
    blocks = [json.loads(line) for line in (tmp_path / "chain.jsonl").read_text().splitlines()]
    assert len(blocks) == 5  # genesis + 4 epochs
    assert all(block["body"] for block in blocks[1:])


def test_chain_p_with_one_minus_p_at_one_draws_committees(tmp_path, capsys, monkeypatch):
    # at the default tau, p = 5000 / 2.4e20 leaves 1 - p == 1.0; the small-p
    # CDF reads p itself, so committees still weigh about tau * alpha
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(BIG_STAKES)
    code, _, _ = run_cli(capsys, "chain", "--config", "run.cfg", "--epochs", "6", "--seed", "4")
    assert code == 0
    blocks = [json.loads(line) for line in (tmp_path / "chain.jsonl").read_text().splitlines()]
    assert len(blocks) == 7  # genesis + 6 epochs
    assert all(block["body"] for block in blocks[1:])
    with open(tmp_path / "metrics.csv", newline="") as f:
        weights = [int(row["committee_weight"]) for row in csv.DictReader(f)]
    assert len(weights) == 6
    assert all(abs(w - 5000 * 0.7) < 6 * (5000 * 0.7) ** 0.5 for w in weights)


NON_FINITE_SPECS = [
    "fixed:inf", "fixed:-inf", "fixed:nan", "uniform:2:inf", "uniform:-inf:2", "uniform:nan:2",
    "pareto:inf", "pareto:nan",
]


@pytest.mark.parametrize("spec", NON_FINITE_SPECS)
def test_chain_non_finite_stake_dist_exits_2_naming_the_key(tmp_path, capsys, monkeypatch, spec):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(f"population.nodes = 20\npopulation.stake_dist = {spec}\n")
    code, _, err = run_cli(capsys, "chain", "--config", "run.cfg", "--epochs", "2")
    assert code == 2
    assert err.startswith("error: population.stake_dist: non-finite parameter")
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize("spec", NON_FINITE_SPECS)
def test_relay_non_finite_cap_dist_exits_2_naming_the_key(tmp_path, capsys, monkeypatch, spec):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "relay", "--nodes", "50", "--relayers", "4", "--cap-dist", spec)
    assert code == 2
    assert err.startswith("error: relay.cap_dist (--cap-dist): non-finite parameter")
    assert "Traceback" not in err and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "mu, message",
    [
        ("100", "capacity 22 below one identifier unit mu=100.0"),
        ("1e-300", "mu=1e-300 gives 2.08e+303 identifiers, above 16777216"),
    ],
    ids=["above-a-capacity", "tiny"],
)
def test_relay_unusable_mu_exits_2_naming_the_key(tmp_path, capsys, monkeypatch, mu, message):
    # the default cap_dist uniform:2:64 draws a capacity of 22 at seed 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(f"relay.mu = {mu}\n")
    code, _, err = run_cli(capsys, "relay", "--config", "run.cfg")
    assert code == 2
    assert err == f"error: relay.mu: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize(
    "rate", [1e12, math.nextafter(MAX_JOIN_RATE, math.inf)], ids=["1e12", "past-the-cap"]
)
def test_relay_join_rate_above_the_cap_exits_2_naming_the_key(tmp_path, capsys, monkeypatch, rate):
    # a rate of 1e12 drew about 1.4e9 Poisson parts per round and never returned
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps(
        {"relay.join_rate": rate, "relay.nodes": 64, "relay.relayers": 4, "relay.rounds": 3}
    ))
    code, _, err = run_cli(capsys, "relay", "--config", "run.json")
    assert code == 2
    assert err == f"error: relay.join_rate: must be in [0, 16777216], got {rate!r}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


def test_chain_missing_config_file(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "chain", "--config", str(tmp_path / "nope.cfg"))
    assert code == 2


def test_relay_trace_schema_and_convergence(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code, stdout, _ = run_cli(
        capsys, "relay", "--nodes", "256", "--relayers", "16", "--rounds", "30",
        "--trials", "2", "--seed", "5", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "trial,round,phi,expected_delay,max_ratio,switches"
    assert "2/2 trials" in stdout
    summary = json.loads((tmp_path / "trace.summary.json").read_text())
    assert summary["converged_trials"] == 2


def test_relay_determinism(tmp_path, capsys):
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        run_cli(
            capsys, "relay", "--nodes", "128", "--relayers", "8", "--rounds", "20",
            "--trials", "3", "--seed", "9", "--out", str(out),
        )
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_drs_trace_schema(tmp_path, capsys):
    out = tmp_path / "drs.csv"
    code, _, _ = run_cli(
        capsys, "drs", "--nodes", "128", "--keys", "16", "--size-dist", "fixed:32",
        "--seed", "4", "--start", "concentrated", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "round,phi_kb,omega,underloaded_m,migrations,relayer_kb"
    assert len(lines) >= 2
    summary = json.loads((tmp_path / "drs.summary.json").read_text())
    assert summary["converged_round"] is not None


@pytest.mark.parametrize(
    "argv, message",
    [
        (("relay", "--relayers", "0"), "relay.relayers (--relayers): must be in [1, 16777216], got 0"),
        (("relay", "--nodes", "0"), "relay.nodes (--nodes): must be in [1, 16777216], got 0"),
        (("relay", "--nodes", "-5"), "relay.nodes (--nodes): must be in [1, 16777216], got -5"),
        (("drs", "--keys", "0"), "drs.keys (--keys): must be in [1, 16777216], got 0"),
        (("drs", "--nodes", "0"), "drs.nodes (--nodes): must be in [1, 16777216], got 0"),
        (("drs", "--replication", "0"), "drs.replication (--replication): must be >= 1, got 0"),
    ],
    ids=[
        "relay-relayers-0", "relay-nodes-0", "relay-nodes-negative", "drs-keys-0",
        "drs-nodes-0", "drs-replication-0",
    ],
)
def test_bad_relay_drs_input_exits_2(tmp_path, capsys, argv, message):
    out = tmp_path / "trace.csv"
    code, _, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["relay", "drs"])
def test_node_count_above_the_cap_exits_2_naming_the_key(tmp_path, capsys, monkeypatch, command):
    # 200,000,000 nodes died of MemoryError in the first per-node column;
    # the cap is checked before any column is allocated
    monkeypatch.chdir(tmp_path)
    for simulate in ("simulate_prs", "simulate_drs"):
        monkeypatch.setattr(f"fission_sim.cli.{simulate}", None)  # calling it would raise
    code, _, err = run_cli(capsys, command, "--nodes", str(MAX_NODES + 1))
    assert code == 2
    assert err == f"error: {command}.nodes (--nodes): must be in [1, 16777216], got 16777217\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (("relay", "--relayers", str(MAX_NODES + 1)), None,
         "relay.relayers (--relayers): must be in [1, 16777216], got 16777217"),
        (("drs", "--keys", str(MAX_NODES + 1)), None, "drs.keys (--keys): must be in [1, 16777216], got 16777217"),
        (("chain", "--epochs", "1"), f"partition.n_shard = {MAX_SHARDS + 1}\n",
         "partition.n_shard: must be in [1, 65536], got 65537"),
        (("chain", "--epochs", "1"), f"chain.tx_per_epoch = {MAX_NODES + 1}\n",
         "chain.tx_per_epoch: must be in [0, 16777216], got 16777217"),
    ],
    ids=["relay-relayers", "drs-keys", "partition-n-shard", "chain-tx-per-epoch"],
)
def test_size_key_above_its_cap_exits_2_naming_the_key(tmp_path, capsys, monkeypatch, argv, config, message):
    # far past these caps a run died of MemoryError in its first column (the
    # relayers' capacities, the shard slots) or drew keys or transfers until
    # memory ran out; each cap is checked before anything is drawn
    monkeypatch.chdir(tmp_path)
    for run in ("ChainSimulation", "simulate_prs", "simulate_drs"):
        monkeypatch.setattr(f"fission_sim.cli.{run}", None)  # calling it would raise
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv += ("--config", "run.cfg")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == (["run.cfg"] if config else [])


def test_population_above_the_node_cap_exits_2_naming_the_key(tmp_path, capsys, monkeypatch):
    # a chain run draws a stake and a key per node before its first epoch
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("fission_sim.cli.ChainSimulation", None)  # calling it would raise
    (tmp_path / "run.cfg").write_text(f"population.nodes = {MAX_NODES + 1}\n")
    code, out, err = run_cli(capsys, "chain", "--config", "run.cfg")
    assert code == 2 and out == ""
    assert err == "error: population.nodes: must be in [1, 16777216], got 16777217\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize("deadline", ["0", "-2.5", "nan"])
def test_bad_drs_deadline_exits_2(tmp_path, capsys, deadline):
    out = tmp_path / "trace.csv"
    code, _, err = run_cli(capsys, "drs", "--deadline", deadline, "--out", str(out))
    assert code == 2
    assert err.startswith("error: ") and "--deadline" in err and "must be > 0" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("relay", "--trials", "0"), "relay.trials (--trials): must be >= 1, got 0"),
        (("relay", "--trials", "-2"), "relay.trials (--trials): must be >= 1, got -2"),
        (("relay", "--rounds", "-1"), "relay.rounds (--rounds): must be >= 0, got -1"),
        (("chain", "--epochs", "-3"), "(--epochs): must be >= 0, got -3"),
    ],
    ids=["relay-trials-0", "relay-trials-negative", "relay-rounds-negative", "chain-epochs-negative"],
)
def test_bad_count_exits_2(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["chain", "relay", "drs"])
@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_config_exits_2(tmp_path, capsys, monkeypatch, command, kind):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "run.cfg"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"seed = 1 \xff\xfe\n")
    code, _, err = run_cli(capsys, command, "--config", str(path))
    assert code == 2
    assert err.startswith("error: cannot read config ") and str(path) in err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize(
    "argv",
    [
        ["chain", "--epochs", "2", "--out"],
        ["chain", "--epochs", "2", "--metrics"],
        ["relay", "--nodes", "10", "--relayers", "2", "--rounds", "2", "--out"],
        ["drs", "--nodes", "8", "--keys", "2", "--out"],
    ],
    ids=["chain-out", "chain-metrics", "relay-out", "drs-out"],
)
def test_unwritable_output_path_exits_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "taken"
    target.mkdir()

    def no_step(self):
        raise AssertionError("an epoch ran before both outputs opened")

    # chain opens both outputs before epoch 1
    monkeypatch.setattr(ChainSimulation, "step", no_step)
    code, _, err = run_cli(capsys, *argv, str(target))
    assert code == 2
    assert err.startswith("error: ") and str(target) in err
    assert err.count("\n") == 1 and "Traceback" not in err


def _csv_lines(rows) -> list[str]:
    """Trace rows as the metrics sink writes them: floats by repr."""
    return [",".join(repr(v) if isinstance(v, float) else str(v) for v in row) for row in rows]


def test_relay_config_churn_reaches_simulate_prs(tmp_path, capsys):
    cfg = tmp_path / "churn.cfg"
    cfg.write_text(
        "seed = 4\nrelay.nodes = 300\nrelay.relayers = 12\nrelay.rounds = 6\n"
        "relay.join_rate = 3.5\nrelay.leave_rate = 0.02\n"
    )
    out = tmp_path / "trace.csv"
    code, _, _ = run_cli(capsys, "relay", "--config", str(cfg), "--out", str(out))
    assert code == 0
    cap_rng = split(4, "relay-caps")
    caps = [sample_dist("uniform:2:64", cap_rng, integer=True, minimum=2) for _ in range(12)]
    trial_seed = child_seed(4, "relay-trial", 0)
    run = simulate_prs(300, caps, 6, trial_seed, join_rate=3.5, leave_rate=0.02)
    calm = simulate_prs(300, caps, 6, trial_seed)
    rows = [(0, r.round, r.phi, r.expected_delay, r.max_ratio, r.switches) for r in run.rows]
    assert len(rows) > 1 and out.read_text().splitlines()[1:] == _csv_lines(rows)
    assert [r.phi for r in run.rows] != [r.phi for r in calm.rows]
    assert run.state.n_nodes != 300  # nodes joined or left


@pytest.mark.parametrize("churn", [True, False], ids=["churn", "calm"])
def test_relay_churn_runs_every_round(tmp_path, capsys, churn):
    # a trial with churn runs all relay.rounds rounds; one without stops at
    # steady state, which from the worst start comes after round 1
    cfg = tmp_path / "run.cfg"
    rates = "relay.join_rate = 3.5\nrelay.leave_rate = 0.02\n" if churn else ""
    cfg.write_text(
        "seed = 4\nrelay.nodes = 300\nrelay.relayers = 12\nrelay.rounds = 6\n"
        "relay.trials = 2\n" + rates
    )
    out = tmp_path / "trace.csv"
    code, _, _ = run_cli(capsys, "relay", "--config", str(cfg), "--out", str(out))
    assert code == 0
    trials = [line.split(",", 1)[0] for line in out.read_text().splitlines()[1:]]
    assert trials.count("0") == trials.count("1") == (6 + 1 if churn else 2)


def test_drs_config_cap_dist_changes_trace(tmp_path, capsys):
    traces = {}
    for cap_dist in ("uniform:2:64", "uniform:1:4"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"drs.nodes = 128\ndrs.keys = 16\ndrs.start = concentrated\ndrs.cap_dist = {cap_dist}\n"
        )
        out = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "drs", "--config", str(cfg), "--seed", "2", "--out", str(out))
        assert code == 0
        traces[cap_dist] = out.read_text().splitlines()[1:]
        summary = json.loads((tmp_path / "trace.summary.json").read_text())
        assert summary["config"]["drs.cap_dist"] == cap_dist
    assert traces["uniform:2:64"] != traces["uniform:1:4"]
    run = simulate_drs(128, 16, "fixed:64", "uniform:1:4", 3, 8.0, 2, start="concentrated")
    rows = [(r.round, r.phi, r.omega, r.underloaded_m, r.migrations, r.relayer_kb) for r in run.rows]
    assert traces["uniform:1:4"] == _csv_lines(rows)


def test_flag_beats_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("relay.nodes = 0\nrelay.relayers = 8\nrelay.rounds = 10\nrelay.trials = 5\n")
    out = tmp_path / "trace.csv"
    code, stdout, _ = run_cli(
        capsys, "relay", "--config", str(cfg), "--nodes", "64", "--trials", "2", "--out", str(out)
    )
    assert code == 0 and "/2 trials" in stdout
    summary = json.loads((tmp_path / "trace.summary.json").read_text())
    assert summary["config"]["relay.nodes"] == 64 and summary["config"]["relay.relayers"] == 8
    assert summary["config"]["relay.trials"] == 2


def test_unknown_relay_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("relay.node = 64\n")
    out = tmp_path / "trace.csv"
    code, _, err = run_cli(capsys, "relay", "--config", str(cfg), "--out", str(out))
    assert code == 2 and "relay.node" in err
    assert not out.exists()


SPAN = "uniform span past the float range in 'uniform:-1e308:1e308'"


def past_float_range(spec):
    return f"distribution spec {spec!r} draws a value past the float range"


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (("drs", "--nodes", "4", "--keys", "2", "--size-dist", "uniform:-1e308:1e308"), None,
         f"drs.size_dist (--size-dist): {SPAN}"),
        (("drs", "--nodes", "4", "--keys", "2", "--size-dist", "pareto:0.001"), None,
         f"drs.size_dist (--size-dist): {past_float_range('pareto:0.001')}"),
        # each pareto:0.001 draw overflows with probability about 1/2
        (("drs", "--config", "run.cfg", "--nodes", "64", "--keys", "2"), "drs.cap_dist = pareto:0.001",
         f"drs.cap_dist: {past_float_range('pareto:0.001')}"),
        (("relay", "--relayers", "2", "--nodes", "4", "--cap-dist", "pareto:1e-310"), None,
         f"relay.cap_dist (--cap-dist): {past_float_range('pareto:1e-310')}"),
        (("sortition", "--nodes", "3", "--stake-dist", "pareto:1e-310"), None,
         f"stake_dist (--stake-dist): {past_float_range('pareto:1e-310')}"),
        (("chain", "--config", "run.cfg"), "population.stake_dist = uniform:-1e308:1e308",
         f"population.stake_dist: {SPAN}"),
        (("chain", "--config", "run.cfg"), "population.stake_dist = pareto:1e-310",
         f"population.stake_dist: {past_float_range('pareto:1e-310')}"),
    ],
    ids=["drs-uniform-span", "drs-pareto-power", "drs-cap-pareto-power", "relay-pareto-infinite",
         "sortition-pareto-infinite", "chain-uniform-span", "chain-pareto-infinite"],
)
def test_draw_past_the_float_range_exits_2(tmp_path, capsys, monkeypatch, argv, config, message):
    monkeypatch.chdir(tmp_path)
    if config:
        (tmp_path / "run.cfg").write_text(f"{config}\n")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == (["run.cfg"] if config else [])


@pytest.mark.parametrize(
    "argv, config, message",
    [
        # used to exit 1 with an OverflowError from the byte-conservation check
        (("--size-dist", "fixed:1e308"), None,
         "drs.size_dist (--size-dist): every draw must be below 2^53, drew 1e+308"),
        # used to exit 3 with a false load-sum violation
        (("--size-dist", "pareto:0.01"), None,
         "drs.size_dist (--size-dist): every draw must be below 2^53, drew 2.45e+42"),
        (("--config", "run.cfg"), "drs.cap_dist = fixed:9007199254740992",
         "drs.cap_dist: every draw must be below 2^53, drew 9.01e+15"),
        (("--nodes", "4096", "--size-dist", "fixed:4e15"), None,
         "drs.size_dist (--size-dist): the requested sizes must sum below 2^53, got 1.64e+19"),
    ],
    ids=["size-1e308", "size-pareto-0.01", "cap-2^53", "total-past-2^53"],
)
def test_drs_byte_counts_past_float_precision_exit_2(tmp_path, capsys, monkeypatch, argv, config, message):
    monkeypatch.chdir(tmp_path)
    if config:
        (tmp_path / "run.cfg").write_text(f"{config}\n")
    code, out, err = run_cli(capsys, "drs", "--nodes", "4", "--keys", "2", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == (["run.cfg"] if config else [])


# inputs that ChainSimulation used to run (to empty blocks, a NaN clock or a
# mid-run failure) or reject under another name: (config key, keyword, value)
LIBRARY_REJECTS = [
    ("chain.offline_rate", "offline_rate", 1.0),
    ("chain.invalid_fraction", "invalid_fraction", 2.0),
    ("chain.tx_per_epoch", "tx_per_epoch", -5),
    ("epochs.micro_throughput", "micro_throughput", -1),
    ("epochs.delta_main", "delta_main", float("nan")),
    ("epochs.delta_micro", "delta_micro", 0),
    ("security.theta", "theta", 0.01),
    ("population.stake_dist", "stake_dist", "bad"),
    ("population.nodes", "n_nodes", 0),
]


@pytest.mark.parametrize("key, keyword, value", LIBRARY_REJECTS, ids=[k for k, _, _ in LIBRARY_REJECTS])
def test_chain_simulation_rejects_what_the_cli_rejects(tmp_path, capsys, monkeypatch, key, keyword, value):
    base = dict(seed=1, n_nodes=20)
    ChainSimulation(**base)  # the base is valid, so each failure is the key's
    with pytest.raises(ValidationError) as err:
        ChainSimulation(**base | {keyword: value})
    assert err.value.field == key
    cfg = SimConfig()  # a config set by hand is checked as well
    section, _, name = key.partition(".")
    setattr(getattr(cfg, section), name, value)
    with pytest.raises(ValidationError) as err:
        ChainSimulation(cfg)
    assert err.value.field == key
    monkeypatch.chdir(tmp_path)
    written = value if isinstance(value, str) else json.dumps(value)
    (tmp_path / "run.cfg").write_text(f"seed = 1\npopulation.nodes = 20\n{key} = {written}\n")
    code, out, cli_err = run_cli(capsys, "chain", "--config", "run.cfg", "--epochs", "2")
    assert code == 2 and out == ""
    assert cli_err.startswith(f"error: {key}: ")
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


# a chain that re-shards 2 -> 4 at epoch 7, so fresh trees are rooted mid-run
HASH_SEED_CHAIN_CFG = (
    "seed = 4\npopulation.nodes = 60\npopulation.stake_dist = uniform:1:5000\n"
    "partition.n_shard = 2\npartition.n_partition = 1\npartition.n_e_max = 4\npartition.n_rs = 2\n"
    "chain.tx_per_epoch = 20\nchain.offline_rate = 0.2\nchain.invalid_fraction = 0.1\n"
)
HASH_SEED_RUNS = [
    ("chain", "--config", "run.cfg", "--epochs", "14"),
    ("relay", "--seed", "2", "--nodes", "512", "--out", "relay.csv"),
    ("drs", "--seed", "3", "--nodes", "256", "--out", "drs.csv"),
]


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # str and bytes hashes, and so set order, change with PYTHONHASHSEED; no
    # output byte may follow them
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = {}
    for hash_seed in ("0", "12345"):
        run_dir = tmp_path / hash_seed
        run_dir.mkdir()
        (run_dir / "run.cfg").write_text(HASH_SEED_CHAIN_CFG)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = os.environ | {"PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
        for argv in HASH_SEED_RUNS:
            subprocess.run(
                [sys.executable, "-m", "fission_sim.cli", *argv],
                cwd=run_dir, env=env, check=True, capture_output=True,
            )
        outputs[hash_seed] = {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}
    assert len(outputs["0"]) == 8  # run.cfg and seven outputs
    assert outputs["0"] == outputs["12345"]
