import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from fission_sim.config import CHAIN_KEYWORDS, MAX_JOIN_RATE, SimConfig, load_config, validate_config
from fission_sim.errors import ParseError, ValidationError
from fission_sim.metrics import MetricsSink, run_fingerprint
from fission_sim.seeding import child_seed, split


def test_defaults_match_design_point(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("# all defaults\n")
    cfg = load_config(path)
    assert cfg.security.tau == 5000.0
    assert cfg.security.theta == 0.3
    assert cfg.security.h == 0.75
    assert cfg.partition.n_e_max == 1000
    assert cfg.partition.delta == 0.8
    assert cfg.partition.n_rs == 3
    assert cfg.warnings == []


def test_none_path_gives_defaults():
    cfg = load_config(None)
    assert cfg.security.tau == 5000.0 and cfg.seed == 0


def test_key_value_format(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        """
        # experiment
        seed = 42
        security.alpha = 0.9
        population.nodes = 64
        relay.cap_dist = uniform:2:32
        """
    )
    cfg = load_config(path)
    assert cfg.seed == 42
    assert cfg.security.alpha == 0.9
    assert cfg.population.nodes == 64
    assert cfg.relay.cap_dist == "uniform:2:32"


def test_json_format(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 7, "security.theta": 0.31, "drs.keys": 16}))
    cfg = load_config(path)
    assert cfg.seed == 7 and cfg.security.theta == 0.31 and cfg.drs.keys == 16


def test_unknown_field_named_in_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("security.thteta = 0.3\n")
    with pytest.raises(ParseError, match="security.thteta"):
        load_config(path)


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("security.theta 0.3\n")
    with pytest.raises(ParseError, match="line 1"):
        load_config(path)


def test_wrong_type_is_validation_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("population.nodes = lots\n")
    with pytest.raises(ValidationError, match="population.nodes"):
        load_config(path)


@pytest.mark.parametrize(
    "key, name, text",
    [
        ("population.nodes", "bad.json", '{"population.nodes": true}'),
        ("security.tau", "bad.json", '{"security.tau": false}'),
        ("chain.tx_per_epoch", "bad.cfg", "chain.tx_per_epoch = false\n"),
        ("seed", "bad.cfg", "seed = true\n"),
        ("population.nodes", "bad.json", '{"population.nodes": 1e999}'),
    ],
    ids=["json-int", "json-float", "text-int", "text-seed", "json-infinite-int"],
)
def test_bool_or_infinity_for_a_number_is_validation_error(tmp_path, key, name, text):
    # Python counts True as 1, and int(inf) overflows
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ValidationError, match=f"^{key}: cannot read (True|False|inf) as "):
        load_config(path)


def test_theta_below_universal_bound_rejected(tmp_path):
    # at tau=5000 the bound is 0.25 + 3.18/sqrt(5000) ~ 0.29497
    path = tmp_path / "bad.cfg"
    path.write_text("security.theta = 0.2\n")
    with pytest.raises(ValidationError, match="security.theta"):
        load_config(path)


def test_jointly_infeasible_theta_warns(tmp_path):
    # theta above the universal bound but outside the window at low activity
    path = tmp_path / "warn.cfg"
    path.write_text("security.alpha = 0.45\nsecurity.theta = 0.33\n")
    cfg = load_config(path)
    assert any("feasible window" in w for w in cfg.warnings)


def test_bad_distribution_spec_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("drs.size_dist = gaussian:3\n")
    with pytest.raises(ValidationError, match="drs.size_dist"):
        load_config(path)


def test_partition_bounds_checked():
    cfg = SimConfig()
    cfg.partition.n_partition = 20
    cfg.partition.n_shard = 8
    with pytest.raises(ValidationError, match="n_partition"):
        validate_config(cfg)


def test_to_dict_round_trips_keys(tmp_path):
    cfg = SimConfig()
    flat = cfg.to_dict()
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(flat))
    again = load_config(path)
    assert again.to_dict() == flat


def test_readme_config_block_is_the_defaults(tmp_path):
    # the fenced block under README's "Config format" heading lists every key
    # with its default value
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Config format", 1)[1]
    block = section.split("```\n", 2)[1]
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    defaults = SimConfig().to_dict()
    assert load_config(path).to_dict() == defaults
    listed = re.findall(r"^([\w.]+) =", block, flags=re.MULTILINE)
    assert sorted(listed) == sorted(defaults)


def test_chain_keywords_name_every_chain_key_once():
    sections = ("population", "security", "epochs", "chain", "partition")
    keys = ["seed"] + [f"{name}.{f.name}" for name in sections for f in fields(getattr(SimConfig(), name))]
    assert sorted(CHAIN_KEYWORDS.values()) == sorted(keys)
    assert CHAIN_KEYWORDS["n_nodes"] == "population.nodes" and "nodes" not in CHAIN_KEYWORDS
    assert all(key.rpartition(".")[2] == word for word, key in CHAIN_KEYWORDS.items() if word != "n_nodes")


# --- metrics sink ---


def test_metrics_sink_schema_and_summary(tmp_path):
    csv_path = tmp_path / "m.csv"
    sink = MetricsSink(csv_path, ["a", "b"])
    sink.write_row(a=1, b=2.5)
    sink.write_row(b=3.5, a=2)
    summary = sink.close({"seed": 1}, {"note": "x"})
    lines = csv_path.read_text().splitlines()
    assert lines == ["a,b", "1,2.5", "2,3.5"]
    assert summary["rows"] == 2
    assert summary["fingerprint"] == run_fingerprint({"seed": 1})
    stored = json.loads((tmp_path / "m.summary.json").read_text())
    assert stored["note"] == "x"


def test_metrics_sink_rejects_schema_drift(tmp_path):
    sink = MetricsSink(tmp_path / "m.csv", ["a"])
    with pytest.raises(ValueError):
        sink.write_row(a=1, z=2)
    with pytest.raises(ValueError):
        sink.write_row()
    sink.close({})


def test_fingerprint_sensitive_to_config():
    assert run_fingerprint({"seed": 1}) != run_fingerprint({"seed": 2})


def test_child_seed_streams_independent():
    assert child_seed(1, "a") != child_seed(1, "b")
    assert child_seed(1, "a") != child_seed(2, "a")
    assert split(1, "a").random() == split(1, "a").random()


FLOAT_KEYS = [key for key, value in SimConfig().to_dict().items() if isinstance(value, float)]


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_rejected_by_name(tmp_path, key):
    for text in ("NaN", "Infinity", "-Infinity"):
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = {text}\n")
        with pytest.raises(ValidationError, match=f"^{key}: must be "):
            load_config(path)
    with pytest.raises(ValidationError, match=f"^{key}: must be "):
        load_config(None, {key: "nan"})


@pytest.mark.parametrize("rate", [0.0, 40.0, 655.0, MAX_JOIN_RATE])
def test_join_rate_cap_admits_the_rates_in_use(rate):
    # 40 is the churned golden trace's rate and 655 the relay benchmark's
    assert load_config(None, {"relay.join_rate": rate}).relay.join_rate == rate
