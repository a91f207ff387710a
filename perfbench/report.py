"""Metric definitions and the arithmetic that turns samples and spans into them.

END_TO_END and PER_LAYER must list the same names, units and order as
BENCHMARK.json. Each per-layer entry also says which end-to-end metric it
should move, and on which workload.
"""

from __future__ import annotations

import importlib.metadata
import math
import os
import platform
import statistics
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

END_TO_END = {
    "setup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

CC, CT, BOTH = "chain-committee", "chain-traffic", "chain-committee, chain-traffic"
P50 = "step_ms_p50"

# name -> (unit, which end-to-end metric it should move, on which workload)
PER_LAYER = {
    "sortition.select_committee.ms": ("ms/step", f"{P50} on {CC}; ~no change on {CT}"),
    "sortition.select_committee.calls": ("count/step", f"{P50} on {CC}"),
    "sortition.members_per_committee": ("count", f"{P50} on {CC}"),
    "sortition.voting_power.calls": ("count/step", f"{P50} on {CC}"),
    "sortition.leader_ticket.ms": ("ms/step", f"{P50} on {CC}"),
    "consensus.collect_votes.ms": ("ms/step", f"{P50} on {CC}"),
    "consensus.votes_per_block": ("count", f"{P50} on {CC}"),
    "consensus.run_epoch.self_ms": ("ms/step", f"{P50} on {BOTH}"),
    "consensus.micro_round.ms": ("ms/step", f"{P50} on {BOTH}"),
    "consensus.assemble.ms": ("ms/step", f"{P50} on {BOTH}"),
    "consensus.generate_transactions.ms": ("ms/step", f"{P50} on {BOTH}"),
    "consensus.micro_timeouts": ("count/step", f"explains items_per_s on {BOTH}"),
    "consensus.empty_blocks": ("count/step", f"explains items_per_s on {BOTH}"),
    "consensus.invalid_txs": ("count/step", f"explains items_per_s on {BOTH}"),
    "consensus.deferred_txs": ("count/step", f"explains items_per_s on {BOTH}"),
    "consensus.pending_credits": ("count/step", f"explains items_per_s on {BOTH}"),
    "ledger.clone.ms": ("ms/step", f"{P50}, items_per_s on {CT}; small on {CC}"),
    "ledger.clone.per_epoch": ("ratio", f"{P50}, items_per_s on {CT}; small on {CC}"),
    "ledger.apply_eager.per_confirmed_debit": ("ratio", f"{P50}, items_per_s on {CT}; small on {CC}"),
    "ledger.apply_lazy.per_confirmed_credit": ("ratio", f"{P50}, items_per_s on {CT}; small on {CC}"),
    "ledger.split_transaction.ms": ("ms/step", f"{P50}, items_per_s on {CT}; small on {CC}"),
    "ledger.make_transfer.ms": ("ms/step", f"{P50}, items_per_s on {CT}; small on {CC}"),
    "chain.append_block.self_ms": ("ms/step", f"{P50} on {BOTH}"),
    "chain.compute_root_arrays.ms": ("ms/step", f"{P50} on {BOTH}"),
    "chain.compute_root_arrays.per_block": ("ratio", f"{P50} on {BOTH}"),
    "chain.export_jsonl.ms": ("ms/run", f"once per run on {BOTH}"),
    "merkle.merkle_root.ms": ("ms/step", f"{P50} on {BOTH}; a leaf cache also moves peak_rss_mb"),
    "merkle.leaves_per_block": ("count", f"{P50} on {BOTH}; a leaf cache also moves peak_rss_mb"),
    "crypto.sha3.per_step": ("count/step", f"exact count behind every timing on {BOTH}"),
    "crypto.sign.per_step": ("count/step", f"exact count behind every timing on {BOTH}"),
    "crypto.vrf_eval.per_step": ("count/step", f"exact count behind every timing on {BOTH}"),
    "partitioning.n_partition": ("count", f"explains committees per step on {BOTH}"),
    "partitioning.n_shard": ("count", f"explains committees per step on {BOTH}"),
    "partitioning.split_shards.calls": ("count/step", f"explains committees per step on {BOTH}"),
    "relay.synchronous_round.ms": ("ms/step", f"{P50} on relay only"),
    "relay.apply_churn.ms": ("ms/step", f"{P50} on relay only"),
    "relay.trace_row.ms": ("ms/step", f"{P50} on relay only"),
    "relay.switches_per_round": ("count", f"{P50} on relay only"),
    "drs.build_instance.ms": ("ms/step", f"{P50} on drs only"),
    "drs.drs_round.ms": ("ms/step", f"{P50} on drs only"),
    "drs.heights.calls_per_round": ("ratio", f"{P50} on drs only"),
    "drs.trace_row.ms": ("ms/step", f"{P50} on drs only"),
    "drs.migrations_per_probe": ("ratio", f"{P50} on drs only"),
    "drs.rounds_per_trial": ("count", f"{P50} on drs only"),
    "layer.consensus.self_ms": ("ms/step", f"{P50} on {BOTH}"),
    "layer.sortition.self_ms": ("ms/step", f"{P50} on {BOTH}"),
    "layer.ledger.self_ms": ("ms/step", f"{P50} on {BOTH}"),
    "layer.chain.self_ms": ("ms/step", f"{P50} on {BOTH}"),
    "layer.merkle.self_ms": ("ms/step", f"{P50} on {BOTH}"),
    "layer.relay.self_ms": ("ms/step", f"{P50} on relay"),
    "layer.drs.self_ms": ("ms/step", f"{P50} on drs"),
    "unattributed.ms": ("ms/step", "step time no wrapped call covers, on every workload"),
    "python.gc.ms": ("ms/step", f"separates collector time from per-epoch work on {CT}"),
    "python.gc.gen2_collections": ("count", f"separates collector time from per-epoch work on {CT}"),
    "history.late_over_early": ("ratio", f"growth of {P50} with chain length on {CT}; not gated"),
    "trace.overhead": ("ratio", "traced over untraced step_ms_p50, every workload"),
}

# Counts that two traced runs of one seed must report identically.
EXACT_COUNTS = (
    "crypto.sha3.per_step", "crypto.sign.per_step", "crypto.vrf_eval.per_step",
    "ledger.apply_eager.per_confirmed_debit", "ledger.clone.per_epoch",
    "chain.compute_root_arrays.per_block", "drs.heights.calls_per_round",
)

LAYERS = ("consensus", "sortition", "ledger", "chain", "merkle", "relay", "drs")


@dataclass(frozen=True)
class Step:
    """One timed step: wall and collector seconds, the CPU scale from
    calibrate, full collections during it, and whether it was traced."""

    index: int
    wall: float
    gc: float
    scale: float
    gen2: int
    traced: bool

    @property
    def reference(self) -> float:
        """Seconds at the reference CPU speed; collector time is not scaled."""
        return (self.wall - self.gc) * self.scale + self.gc


def percentile_with_tail(samples: list[float], q: float, min_tail: int = 10) -> float | None:
    """Nearest-rank q-quantile, or None unless at least ``min_tail`` samples
    lie beyond it."""
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    if n - rank < min_tail:
        return None
    return sorted(samples)[rank - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(setup_samples: list[float], step_seconds: list[float], items: int,
               peak_rss_kb: int) -> dict[str, float]:
    """Set-up and step times are in reference seconds (see calibrate)."""
    ms = [s * 1000.0 for s in step_seconds]
    p90 = percentile_with_tail(ms, 0.9)
    if p90 is None:
        raise ValueError(f"{len(ms)} steps are too few for a p90 with ten samples beyond it")
    return {
        "setup_s": statistics.median(setup_samples),
        "step_ms_p50": statistics.median(ms),
        "step_ms_p90": p90,
        "items_per_s": items / sum(step_seconds),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def per_layer(tracer, steps: list[Step], observations: dict[int, dict], window: int,
              extra_scales: dict[int, float]) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    ``steps`` holds every completed step; ``extra_scales`` gives the scale of
    traced work outside the steps (the export). Span times are scaled like
    their step and averaged over all traced steps, in reference ms. Counts
    and ratios are taken over the traced steps with index below ``window``,
    which every run reaches, so they repeat exactly for a seed.
    """
    traced = [s for s in steps if s.traced]
    scales = {s.index: s.reference / s.wall for s in traced}
    n_t = len(traced)
    in_window = [s.index for s in traced if s.index < window]
    n_w = len(in_window)
    inclusive, own = tracer.totals(scales)
    export_inclusive, _ = tracer.totals(extra_scales)
    counts, obs = Counter(), Counter()
    for i in in_window:
        counts.update(tracer.counts[i])
        obs.update(observations[i])

    def ms(seconds: float) -> float:
        return 1000.0 * seconds / n_t

    blocks = counts["chain.append_block"]
    rounds = counts["drs.drs_round"]
    traced_ms = [s.reference for s in traced]
    plain = [s.reference for s in steps if not s.traced]
    fifth = max(1, len(plain) // 5)
    m = {
        "sortition.select_committee.ms": ms(inclusive["sortition.select_committee"]),
        "sortition.select_committee.calls": counts["sortition.select_committee"] / n_w,
        "sortition.members_per_committee": ratio(counts["sortition.members"],
                                                 counts["sortition.select_committee"]),
        "sortition.voting_power.calls": counts["sortition.voting_power"] / n_w,
        "sortition.leader_ticket.ms": ms(inclusive["sortition.leader_ticket"]),
        "consensus.collect_votes.ms": ms(inclusive["consensus.collect_votes"]),
        "consensus.votes_per_block": ratio(counts["consensus.votes"], blocks),
        "consensus.run_epoch.self_ms": ms(own["consensus.run_epoch"]),
        "consensus.micro_round.ms": ms(inclusive["consensus.micro_round"]),
        "consensus.assemble.ms": ms(inclusive["consensus.assemble"]),
        "consensus.generate_transactions.ms": ms(inclusive["consensus.generate_transactions"]),
        "consensus.micro_timeouts": obs["consensus.micro_timeouts"] / n_w,
        "consensus.empty_blocks": obs["consensus.empty_blocks"] / n_w,
        "consensus.invalid_txs": obs["consensus.invalid_txs"] / n_w,
        "consensus.deferred_txs": obs["consensus.deferred_txs"] / n_w,
        "consensus.pending_credits": obs["consensus.pending_credits"] / n_w,
        "ledger.clone.ms": ms(inclusive["ledger.clone"]),
        "ledger.clone.per_epoch": ratio(counts["ledger.clone"], blocks),
        "ledger.apply_eager.per_confirmed_debit": ratio(counts["ledger.apply_eager"],
                                                        obs["consensus.debits"]),
        "ledger.apply_lazy.per_confirmed_credit": ratio(counts["ledger.apply_lazy"],
                                                        obs["consensus.credits"]),
        "ledger.split_transaction.ms": ms(inclusive["ledger.split_transaction"]),
        "ledger.make_transfer.ms": ms(inclusive["ledger.make_transfer"]),
        "chain.append_block.self_ms": ms(own["chain.append_block"]),
        "chain.compute_root_arrays.ms": ms(inclusive["chain.compute_root_arrays"]),
        "chain.compute_root_arrays.per_block": ratio(counts["chain.compute_root_arrays"], blocks),
        "chain.export_jsonl.ms": 1000.0 * export_inclusive["chain.export_jsonl"],
        "merkle.merkle_root.ms": ms(inclusive["merkle.merkle_root"]),
        "merkle.leaves_per_block": ratio(counts["merkle.leaves"], blocks),
        "crypto.sha3.per_step": counts["crypto.sha3"] / n_w,
        "crypto.sign.per_step": counts["crypto.sign"] / n_w,
        "crypto.vrf_eval.per_step": counts["crypto.vrf_eval"] / n_w,
        "partitioning.n_partition": obs["partitioning.n_partition"] / n_w,
        "partitioning.n_shard": obs["partitioning.n_shard"] / n_w,
        "partitioning.split_shards.calls": counts["partitioning.split_shards"] / n_w,
        "relay.synchronous_round.ms": ms(inclusive["relay.synchronous_round"]),
        "relay.apply_churn.ms": ms(inclusive["relay.apply_churn"]),
        "relay.trace_row.ms": ms(inclusive["relay.potential"] + inclusive["relay.expected_delay"]),
        "relay.switches_per_round": ratio(counts["relay.switches"], counts["relay.synchronous_round"]),
        "drs.build_instance.ms": ms(inclusive["drs.build_instance"]),
        "drs.drs_round.ms": ms(inclusive["drs.drs_round"]),
        "drs.heights.calls_per_round": ratio(counts["drs.heights"], rounds),
        # every drs_potential call counts, including the one inside accounting
        "drs.trace_row.ms": ms(inclusive["drs.underloaded_count"] + inclusive["drs.drs_potential"]),
        "drs.migrations_per_probe": ratio(counts["drs.migrations"], counts["drs.probes"]),
        "drs.rounds_per_trial": ratio(rounds, counts["drs.simulate_drs"]),
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_ms"] = ms(sum(v for k, v in own.items() if k.startswith(layer + ".")))
    m["unattributed.ms"] = ms(own["step"])
    m["python.gc.ms"] = ms(sum(s.gc for s in traced))
    m["python.gc.gen2_collections"] = float(sum(s.gen2 for s in traced))
    m["history.late_over_early"] = statistics.median(plain[-fifth:]) / statistics.median(plain[:fifth])
    m["trace.overhead"] = statistics.median(traced_ms) / statistics.median(plain)
    return {name: m[name] for name in PER_LAYER}


def provenance(root: Path) -> dict:
    """Versions, CPU and commit of the code being measured."""
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None where the
    checkout is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None
