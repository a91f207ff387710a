"""Tests of the benchmark's own code: percentile rule, span arithmetic,
wrapper restoration, and the output checks. Run with
``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import gc
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from report import EXACT_COUNTS, PER_LAYER, percentile_with_tail  # noqa: E402
from tracing import Tracer  # noqa: E402

SMALL_CHAIN = {"n_nodes": 60, "stake_dist": "fixed:2500", "tx_per_epoch": 20, "offline_rate": 0.1}
SMALL_DRS = dict(workloads.Drs.params, n_nodes=128, n_keys=8)


@pytest.fixture
def small(monkeypatch):
    """Shrink chain-committee and drs so a run takes well under a second."""
    monkeypatch.setattr(workloads.ChainCommittee, "params", SMALL_CHAIN)
    monkeypatch.setattr(workloads.Drs, "params", SMALL_DRS)


def golden_for(name: str) -> dict:
    workload, _ = run.set_up(name, workloads.DEFAULT_SEED)
    for _ in range(workloads.CHECK_STEPS):
        workload.step()
    workload.finish()
    return {name: workloads.digest(workload.prefix_bytes(workloads.CHECK_STEPS))}


def test_p90_needs_ten_samples_beyond():
    assert percentile_with_tail([float(i) for i in range(99)], 0.9) is None
    samples = [float(i) for i in range(100, 0, -1)]
    assert percentile_with_tail(samples, 0.9) == 90.0
    assert percentile_with_tail([float(i) for i in range(200)], 0.9) == 179.0


def test_self_time_of_nested_spans():
    tracer = Tracer(targets=())
    root = tracer.open("step")
    a = tracer.open("a")
    b = tracer.open("b")
    tracer.close(b)
    c = tracer.open("c")
    tracer.close(c)
    tracer.close(a)
    d = tracer.open("a")
    tracer.close(d)
    tracer.close(root)
    # step [0, 10]; a [1, 6] holds b [2, 3] and c [4, 5.5]; a again [7, 9]
    for span, (start, end) in {root: (0, 10), a: (1, 6), b: (2, 3), c: (4, 5.5), d: (7, 9)}.items():
        tracer.starts[span], tracer.ends[span] = float(start), float(end)
    assert tracer.parents == [-1, root, a, a, root]
    assert tracer.self_times() == [3.0, 2.5, 1.0, 1.5, 2.0]
    inclusive, own = tracer.totals({-1: 1.0})
    assert inclusive["a"] == 7.0 and own["a"] == 4.5
    assert own["step"] + sum(v for k, v in inclusive.items() if k == "a") == 10.0


def test_wrappers_cover_every_namespace_and_are_restored(small):
    import fission_sim.chain
    import fission_sim.consensus
    import fission_sim.crypto
    import fission_sim.ledger

    sha3 = fission_sim.crypto.sha3
    apply_eager = fission_sim.ledger.apply_eager
    result, tracer = run.measure("chain-committee", 5, 0.0, True, {}, min_steps=6)
    places = tracer.patched_places()
    owners = {owner.__name__ for owner, attr, _ in places if attr == "sha3"}
    assert owners == {f"fission_sim.{m}" for m in
                      ("crypto", "merkle", "ledger", "chain", "consensus", "seeding")}
    assert {owner.__name__ for owner, attr, _ in places if attr == "apply_eager"} == {
        "fission_sim.ledger", "fission_sim.chain", "fission_sim.consensus"}
    for owner, attr, original in places:
        assert (owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)) is original
    assert fission_sim.consensus.sha3 is sha3 and fission_sim.chain.apply_eager is apply_eager
    assert not [cb for cb in gc.callbacks if isinstance(cb, calibrate.GcClock)]
    assert not tracer.installed
    assert result["metrics"]["ledger.apply_eager.per_confirmed_debit"]["value"] == 3.0
    assert result["metrics"]["chain.compute_root_arrays.per_block"]["value"] == 2.0


def test_tampered_digest_counts_as_failure(small):
    golden = golden_for("drs")
    good, _ = run.measure("drs", workloads.DEFAULT_SEED, 0.0, True, golden, min_steps=4)
    assert good["correct"] and good["failed"] == 0
    tampered = {"drs": "0" * 64}
    bad, _ = run.measure("drs", workloads.DEFAULT_SEED, 0.0, True, tampered, min_steps=4)
    assert not bad["correct"]
    assert bad["failed"] == bad["attempted"] and bad["failed_frac"] == 1.0


def test_traced_and_untraced_runs_give_identical_digests(small):
    golden = golden_for("chain-committee")
    plain, _ = run.measure("chain-committee", 9, 0.0, False, golden, setup_probes=0)
    traced, _ = run.measure("chain-committee", 9, 0.0, True, golden)
    assert plain["correct"] and traced["correct"]
    assert plain["digests"] == traced["digests"]


def test_exact_counts_repeat_for_a_seed(small):
    first, _ = run.measure("chain-committee", 4, 0.0, True, {}, min_steps=8)
    second, _ = run.measure("chain-committee", 4, 0.3, True, {}, min_steps=8)
    assert second["attempted"] > first["attempted"]
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_relay_rounds_match_simulate_prs(monkeypatch):
    monkeypatch.setattr(workloads.Relay, "params", dict(workloads.Relay.params, n_nodes=2048, join_rate=20.0))
    workload, _ = run.set_up("relay", 3)
    for _ in range(workloads.CHECK_STEPS + 2):
        workload.step()
    assert workload.problems() == []
    workload.rows[2] = (2, 0.0, 0.0, 0.0, 0)
    assert workload.problems()


def test_metric_tables_match_benchmark_json():
    import json

    from report import END_TO_END

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (u, _) in PER_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
