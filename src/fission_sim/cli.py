"""Command-line surface: security calculator, sortition draws, chain runs,
and the two congestion-game experiments.

Every subcommand is deterministic per (config, seed). Exit codes: 0 success,
2 configuration/validation problem, 3 invariant violation detected mid-run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import SimConfig, load_config
from .consensus import ChainSimulation
from .drs import simulate_drs
from .errors import DomainError, FissionError, InvariantViolation, ParseError, ValidationError
from .metrics import MetricsSink
from .relay import simulate_prs
from .seeding import child_seed, split
from .sortition import (
    SecurityParams,
    failure_probabilities,
    quorum,
    select_committee,
    tau_lower_bound,
    theta_bounds,
)
from .crypto import KeyRegistry
from .dists import sample_dist

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INVARIANT = 3

CHAIN_COLUMNS = [
    "epoch", "kind", "confirmed_subtx", "committee_weight",
    "adversary_weight", "empty_flag", "n_partition", "n_shard",
]
RELAY_COLUMNS = ["trial", "round", "phi", "expected_delay", "max_ratio", "switches"]
DRS_COLUMNS = ["round", "phi_kb", "omega", "underloaded_m", "migrations", "relayer_kb"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fission-sim")
    sub = parser.add_subparsers(dest="command", required=True)

    sec = sub.add_parser("security", add_help=False,
                         help="print security parameter bounds as JSON")
    sec.add_argument("--help", action="help")
    sec.add_argument("-h", "--honesty", type=float, required=True, dest="h")
    sec.add_argument("-a", "--activity", type=float, default=1.0, dest="alpha")
    sec.add_argument("--tau", type=float, default=5000.0)
    sec.add_argument("--theta", type=float, default=0.3)
    sec.add_argument("-K", "--k-total", type=int, default=1_000_000)
    sec.add_argument("--exact-constant", action="store_true")

    sort = sub.add_parser("sortition", help="draw one committee and print it as JSON")
    sort.add_argument("--nodes", type=int, default=50)
    sort.add_argument("--stake-dist", default="fixed:1000")
    sort.add_argument("--tau", type=float, default=5000.0)
    sort.add_argument("--type", default="block_interim", dest="ctype")
    sort.add_argument("--seed", type=int, default=0)

    chain = sub.add_parser("chain", help="run the epoch pipeline")
    chain.add_argument("--epochs", type=int, default=20)
    chain.add_argument("--config", default=None)
    chain.add_argument("--seed", type=int, default=None)
    chain.add_argument("--out", default="chain.jsonl")
    chain.add_argument("--metrics", default="metrics.csv")

    relay = sub.add_parser("relay", help="run relay-selection convergence trials")
    relay.add_argument("--nodes", type=int, default=4096)
    relay.add_argument("--relayers", type=int, default=64)
    relay.add_argument("--cap-dist", default="uniform:2:64")
    relay.add_argument("--rounds", type=int, default=64)
    relay.add_argument("--trials", type=int, default=1)
    relay.add_argument("--seed", type=int, default=0)
    relay.add_argument("--start", choices=("worst", "random"), default="worst")
    relay.add_argument("--out", default="trace.csv")

    drs = sub.add_parser("drs", help="run the data-retrieval game")
    drs.add_argument("--nodes", type=int, default=1024)
    drs.add_argument("--keys", type=int, default=64)
    drs.add_argument("--size-dist", default="fixed:64")
    drs.add_argument("--replication", type=int, default=3)
    drs.add_argument("--deadline", type=float, default=8.0)
    drs.add_argument("--seed", type=int, default=0)
    drs.add_argument("--start", choices=("uniform", "concentrated"), default="uniform")
    drs.add_argument("--out", default="trace.csv")
    return parser


def cmd_security(args) -> int:
    params = SecurityParams(args.h, args.alpha, args.tau, args.theta, args.k_total)
    params.check_domain()
    lo, hi = theta_bounds(args.h, args.alpha, args.tau)
    out = {
        "h": args.h,
        "alpha": args.alpha,
        "tau": args.tau,
        "theta": args.theta,
        "k_total": args.k_total,
        "p": params.p,
        "tau_min": tau_lower_bound(args.h, args.alpha, exact_constant=args.exact_constant),
        "theta_lo": lo,
        "theta_hi": hi,
        "theta_feasible": lo < args.theta < hi,
        "quorum": quorum(args.theta, args.tau),
    }
    try:
        byz, adv, honest = failure_probabilities(args.h, args.alpha, args.tau, args.theta)
        out["failure_probabilities"] = {
            "byzantine_third": byz,
            "adversary_quorum": adv,
            "honest_miss": honest,
        }
    except FissionError as e:
        out["failure_probabilities"] = {"error": str(e)}
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def cmd_sortition(args) -> int:
    rng = split(args.seed, "sortition-cli")
    registry = KeyRegistry()
    stakes = {}
    for i in range(args.nodes):
        _, pk = registry.generate(f"{args.seed}/sortition/{i}".encode())
        stakes[pk] = sample_dist(args.stake_dist, rng, integer=True, minimum=1)
    k_total = sum(stakes.values())
    if args.tau >= k_total:
        raise ValidationError("tau", f"tau {args.tau} must be below total stake {k_total}")
    p = args.tau / k_total
    seed_bytes = child_seed(args.seed, "sortition-seed").to_bytes(32, "big")
    members = select_committee(stakes, seed_bytes, args.ctype, p, registry)
    out = {
        "type": args.ctype,
        "nodes": args.nodes,
        "k_total": k_total,
        "p": p,
        "members": [{"pk": m.pk.hex()[:16], "weight": m.weight} for m in members],
        "total_weight": sum(m.weight for m in members),
        "expected_total_weight": p * k_total,
    }
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def cmd_chain(args) -> int:
    cfg = load_config(args.config)
    for warning in cfg.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.seed is not None:
        cfg.seed = args.seed
    sim = _chain_sim_from_config(cfg)
    sink = MetricsSink(args.metrics, CHAIN_COLUMNS)
    results = sim.run(args.epochs)
    for r in results:
        sink.write_row(
            epoch=r.epoch,
            kind=r.kind,
            confirmed_subtx=r.confirmed_subtx,
            committee_weight=r.committee_weight,
            adversary_weight=r.adversary_weight,
            empty_flag=r.empty,
            n_partition=r.n_partition,
            n_shard=r.n_shard,
        )
    Path(args.out).write_text(sim.chain.export_jsonl())
    sink.close(cfg.to_dict(), {"epochs": args.epochs, "final_clock": sim.clock})
    print(f"wrote {args.out} and {args.metrics} ({len(results)} epochs)")
    return EXIT_OK


def _chain_sim_from_config(cfg: SimConfig) -> ChainSimulation:
    from .partitioning import PartitionConfig

    return ChainSimulation(
        h=cfg.security.h,
        alpha=cfg.security.alpha,
        tau=cfg.security.tau,
        theta=cfg.security.theta,
        n_nodes=cfg.population.nodes,
        stake_dist=cfg.population.stake_dist,
        delta_micro=cfg.epochs.delta_micro,
        delta_interim=cfg.epochs.delta_interim,
        delta_main=cfg.epochs.delta_main,
        delta_leader=cfg.epochs.delta_leader,
        micro_throughput=cfg.epochs.micro_throughput,
        partition_cfg=PartitionConfig(
            n_partition=cfg.partition.n_partition,
            n_shard=cfg.partition.n_shard,
            n_e_max=cfg.partition.n_e_max,
            delta=cfg.partition.delta,
            n_rs=cfg.partition.n_rs,
        ),
        tx_per_epoch=cfg.chain.tx_per_epoch,
        invalid_fraction=cfg.chain.invalid_fraction,
        offline_rate=cfg.chain.offline_rate,
        seed=cfg.seed,
    )


def _require_positive(args, *names: str) -> None:
    for name in names:
        if getattr(args, name) < 1:
            raise ValidationError(f"--{name}", f"must be >= 1, got {getattr(args, name)}")


def cmd_relay(args) -> int:
    _require_positive(args, "nodes", "relayers")
    cfg = SimConfig()
    cap_rng = split(args.seed, "relay-caps")
    capacities = [
        sample_dist(args.cap_dist, cap_rng, integer=True, minimum=2)
        for _ in range(args.relayers)
    ]
    runs = [
        simulate_prs(
            args.nodes,
            capacities,
            args.rounds,
            child_seed(args.seed, "relay-trial", trial),
            start=args.start,
            mu=cfg.relay.mu,
            mean_msg_size=cfg.relay.mean_msg_size,
        )
        for trial in range(args.trials)
    ]

    sink = MetricsSink(args.out, RELAY_COLUMNS)
    converged = 0
    for trial, run in enumerate(runs):
        for row in run.rows:
            sink.write_row(
                trial=trial,
                round=row.round,
                phi=row.phi,
                expected_delay=row.expected_delay,
                max_ratio=row.max_ratio,
                switches=row.switches,
            )
        if run.converged_round is not None:
            converged += 1
    sink.close(
        {
            "nodes": args.nodes,
            "relayers": args.relayers,
            "cap_dist": args.cap_dist,
            "rounds": args.rounds,
            "trials": args.trials,
            "seed": args.seed,
            "start": args.start,
        },
        {"converged_trials": converged},
    )
    print(f"wrote {args.out}: {converged}/{args.trials} trials reached phi <= 4m")
    return EXIT_OK


def cmd_drs(args) -> int:
    _require_positive(args, "nodes", "keys", "replication")
    if not args.deadline > 0:
        raise ValidationError("--deadline", f"must be > 0, got {args.deadline}")
    cfg = SimConfig()
    run = simulate_drs(
        args.nodes,
        args.keys,
        args.size_dist,
        cfg.drs.cap_dist,
        args.replication,
        args.deadline,
        args.seed,
        start=args.start,
    )
    sink = MetricsSink(args.out, DRS_COLUMNS)
    for row in run.rows:
        sink.write_row(
            round=row.round,
            phi_kb=row.phi,
            omega=row.omega,
            underloaded_m=row.underloaded_m,
            migrations=row.migrations,
            relayer_kb=row.relayer_kb,
        )
    sink.close(
        {
            "nodes": args.nodes,
            "keys": args.keys,
            "size_dist": args.size_dist,
            "replication": args.replication,
            "deadline": args.deadline,
            "seed": args.seed,
            "start": args.start,
        },
        {
            "converged_round": run.converged_round,
            "relayer_bytes": run.relayer_bytes,
            "rounds_budget": run.rounds_budget,
        },
    )
    print(
        f"wrote {args.out}: converged at round {run.converged_round}, "
        f"relayer_kb={run.relayer_bytes}"
    )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "security": cmd_security,
        "sortition": cmd_sortition,
        "chain": cmd_chain,
        "relay": cmd_relay,
        "drs": cmd_drs,
    }
    try:
        return handlers[args.command](args)
    except InvariantViolation as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ParseError, ValidationError, DomainError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
