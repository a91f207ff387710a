import json

import pytest

from fission_sim.cli import main
from fission_sim.crypto import KeyRegistry, sha3
from fission_sim.dists import sample_dist
from fission_sim.drs import simulate_drs
from fission_sim.relay import simulate_prs
from fission_sim.seeding import child_seed, split
from fission_sim.sortition import BLOCK_INTERIM, draw_outcome


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


@pytest.mark.parametrize("tau", ["1e307", "1.7e308"])
def test_chain_huge_tau_exits_2_naming_the_key(tmp_path, capsys, monkeypatch, tau):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(f"security.tau = {tau}\n")
    code, _, err = run_cli(capsys, "chain", "--config", "run.cfg", "--epochs", "2")
    assert code == 2
    assert err.startswith("error: security.tau: ") and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


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
        (("relay", "--relayers", "0"), "--relayers"),
        (("relay", "--nodes", "0"), "--nodes"),
        (("relay", "--nodes", "-5"), "--nodes"),
        (("drs", "--keys", "0"), "--keys"),
        (("drs", "--nodes", "0"), "--nodes"),
        (("drs", "--replication", "0"), "--replication"),
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
    assert err.startswith("error: ") and message in err and "must be >= 1" in err
    assert not out.exists()


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
