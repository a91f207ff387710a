import json

import pytest

from fission_sim.cli import main


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
