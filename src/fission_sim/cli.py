"""Command-line surface: security calculator, sortition draws, chain runs,
and the two congestion-game experiments.

Every subcommand is deterministic per (config, seed). ``chain``, ``relay`` and
``drs`` read one ``SimConfig``: the ``--config`` file, then each key flag given
set over it, validated once. Exit codes: 0 success, 2 configuration/validation
problem or a file that cannot be read or written, 3 invariant violation
detected mid-run.
"""

from __future__ import annotations

import argparse
import json
import sys

from .chain import block_line
from .config import MAX_NODES, SimConfig, load_config
from .consensus import ChainSimulation, check_epochs
from .drs import simulate_drs
from .errors import ApproximationUnsound, DomainError, InvariantViolation, ParseError, ValidationError
from .metrics import MetricsSink
from .relay import identifier_counts, simulate_prs
from .seeding import child_seed, split
from .sortition import (
    Electorate,
    check_h_alpha,
    check_theta_tau,
    failure_probabilities,
    quorum,
    select_committee,
    tau_lower_bound,
    theta_bounds,
)
from .crypto import KeyRegistry
from .dists import dist_sampler

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
    _add_key_options(chain)
    chain.add_argument("--out", default="chain.jsonl")
    chain.add_argument("--metrics", default="metrics.csv")

    relay = sub.add_parser("relay", help="run relay-selection convergence trials")
    _add_key_options(relay, "relay", "nodes", "relayers", "cap_dist", "rounds", "trials", "start")
    relay.add_argument("--out", default="trace.csv")

    drs = sub.add_parser("drs", help="run the data-retrieval game")
    _add_key_options(drs, "drs", "nodes", "keys", "size_dist", "replication", "deadline", "start")
    drs.add_argument("--out", default="trace.csv")
    return parser


def _add_key_options(parser: argparse.ArgumentParser, section: str = "", *names: str) -> None:
    """``--config`` plus one flag per config key: ``--seed`` for ``seed`` and
    ``--cap-dist`` for ``<section>.cap_dist``. A flag left out stays off the
    namespace, so the file or the ``SimConfig`` default holds."""
    parser.add_argument("--config", default=None)
    parser.add_argument("--seed", default=argparse.SUPPRESS)
    for name in names:
        parser.add_argument(_flag(name), dest=f"{section}.{name}", default=argparse.SUPPRESS)


def _flag(key: str) -> str:
    return "--" + key.rpartition(".")[2].replace("_", "-")


def _load_config(args) -> SimConfig:
    """The --config file with every key flag given set over it, validated once."""
    keys = {k: v for k, v in vars(args).items() if k == "seed" or "." in k}
    cfg = load_config(args.config, keys)
    for warning in cfg.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return cfg


def cmd_security(args) -> int:
    check_h_alpha(args.h, args.alpha)
    if not args.k_total > 0:
        raise DomainError(f"K must be positive, got {args.k_total}")
    if args.k_total > sys.float_info.max:  # an int compares with a float exactly
        raise DomainError(
            f"K must be at most {sys.float_info.max:g}, the float range, "
            f"got a {len(str(args.k_total))}-digit integer"
        )
    p = args.tau / args.k_total
    if not 0.0 < p < 1.0:
        raise DomainError(f"p = tau/K must be in (0, 1), got {p}")
    check_theta_tau(args.theta, args.tau)
    lo, hi = theta_bounds(args.h, args.alpha, args.tau)
    out = {
        "h": args.h,
        "alpha": args.alpha,
        "tau": args.tau,
        "theta": args.theta,
        "k_total": args.k_total,
        "p": p,
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
    except ApproximationUnsound as e:
        out["failure_probabilities"] = {"error": str(e)}
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def cmd_sortition(args) -> int:
    if not 1 <= args.nodes <= MAX_NODES:
        raise ValidationError("nodes", f"must be in [1, {MAX_NODES}], got {args.nodes}")
    rng = split(args.seed, "sortition-cli")
    registry = KeyRegistry()
    stakes = {}
    try:
        drawn = dist_sampler(args.stake_dist, integer=True, minimum=1)(rng, args.nodes)
    except ParseError as e:
        raise ValidationError("stake_dist", str(e)) from None
    for i, stake in enumerate(drawn):
        _, pk = registry.generate(f"{args.seed}/sortition/{i}".encode())
        stakes[pk] = stake
    k_total = sum(stakes.values())
    if args.tau >= k_total:
        raise ValidationError("tau", f"tau {args.tau} must be below total stake {k_total}")
    p = args.tau / k_total
    seed_bytes = child_seed(args.seed, "sortition-seed").to_bytes(32, "big")
    members = select_committee(Electorate(stakes, registry), seed_bytes, args.ctype, p)
    out = {
        "type": args.ctype,
        "nodes": args.nodes,
        "k_total": k_total,
        "p": p,
        "members": [{"pk": pk.hex()[:16], "weight": w} for pk, w in zip(members.pks, members.weights)],
        "total_weight": sum(members.weights),
        "expected_total_weight": p * k_total,
    }
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def cmd_chain(args) -> int:
    """Validate everything, then open both outputs and write each epoch's
    line and row as it ends. An invariant violation leaves both files
    closed, holding every completed epoch, and writes no summary."""
    cfg = _load_config(args)
    sim = ChainSimulation(cfg)
    check_epochs(args.epochs)
    with open(args.out, "w") as out, MetricsSink(args.metrics, CHAIN_COLUMNS) as sink:
        out.write(block_line(sim.chain.tip))  # genesis
        for _ in range(args.epochs):
            r = sim.step()
            out.write(block_line(sim.chain.tip))
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
    sink.close(cfg.to_dict(), {"epochs": args.epochs, "final_clock": sim.clock})
    print(f"wrote {args.out} and {args.metrics} ({args.epochs} epochs)")
    return EXIT_OK


def cmd_relay(args) -> int:
    cfg = _load_config(args)
    relay = cfg.relay
    cap_rng = split(cfg.seed, "relay-caps")
    try:
        capacities = dist_sampler(relay.cap_dist, integer=True, minimum=2)(cap_rng, relay.relayers)
    except ParseError as e:  # a draw past the float range
        raise ValidationError("relay.cap_dist", str(e)) from None
    try:
        identifier_counts(capacities, relay.mu)
    except ValueError as e:  # mu above a drawn capacity, or far below all of them
        raise ValidationError("relay.mu", str(e)) from None
    converged = 0
    # each trial's rows are written when it ends, so one run is held at a time
    with MetricsSink(args.out, RELAY_COLUMNS) as sink:
        for trial in range(relay.trials):
            run = simulate_prs(
                relay.nodes,
                capacities,
                relay.rounds,
                child_seed(cfg.seed, "relay-trial", trial),
                start=relay.start,
                mu=relay.mu,
                mean_msg_size=relay.mean_msg_size,
                join_rate=relay.join_rate,
                leave_rate=relay.leave_rate,
            )
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
    sink.close(cfg.to_dict(), {"converged_trials": converged})
    print(f"wrote {args.out}: {converged}/{relay.trials} trials reached phi <= 4m")
    return EXIT_OK


def cmd_drs(args) -> int:
    cfg = _load_config(args)
    drs = cfg.drs
    run = simulate_drs(
        drs.nodes,
        drs.keys,
        drs.size_dist,
        drs.cap_dist,
        drs.replication,
        drs.deadline,
        cfg.seed,
        start=drs.start,
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
        cfg.to_dict(),
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
    except ValidationError as e:
        # name the flag too when the bad value came from one
        flag = f" ({_flag(e.field)})" if e.field in vars(args) else ""
        print(f"error: {e.field}{flag}: {e.message}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ParseError, DomainError, OSError) as e:  # OSError: an output path that cannot be written
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
