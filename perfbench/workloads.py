"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed, then runs one step at
a time through fission_sim's public functions. Imports of fission_sim happen
inside ``setup`` so that set-up time includes them.

Output checks: a workload can render the outputs of its first ``CHECK_STEPS``
steps as bytes (``prefix_bytes``); their SHA3 digest for ``DEFAULT_SEED`` is
recorded in golden.json. ``problems`` lists whatever a run's own outputs
violate (supply conservation, agreement with ``simulate_prs``).
"""

from __future__ import annotations

import hashlib
import random

DEFAULT_SEED = 1
CHECK_STEPS = 4


def derived_seed(seed: int, label: str) -> int:
    """An input seed for the library, independent of how the library splits
    its own streams."""
    return int.from_bytes(hashlib.sha3_256(f"perfbench/{label}/{seed}".encode()).digest()[:8], "big")


def digest(data: bytes) -> str:
    return hashlib.sha3_256(data).hexdigest()


class Workload:
    name = ""
    why = ""
    item = ""  # what items_per_s counts
    params: dict = {}

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def step(self) -> dict:
        """Run one step; returns ``items`` plus any per-step observations."""
        raise NotImplementedError

    def prefix_bytes(self, steps: int) -> bytes:
        raise NotImplementedError

    def problems(self) -> list[str]:
        return []

    def finish(self) -> None:
        """Work done once after the timed steps (none by default)."""


class ChainWorkload(Workload):
    """A step is one interim+main epoch pair: one debit and its credit."""

    item = "confirmed sub-transactions (debits plus credits)"

    def setup(self, seed: int) -> None:
        from fission_sim.consensus import ChainSimulation

        self.sim = ChainSimulation(seed=derived_seed(seed, self.name), **self.params)
        self.export = ""

    def step(self) -> dict:
        interim = self.sim.step()
        deferred = len(self.sim.mempool)
        pending = len(self.sim.chain.state.pending)
        main = self.sim.step()
        return {
            "items": interim.confirmed_subtx + main.confirmed_subtx,
            "consensus.micro_timeouts": interim.micro_timeouts + main.micro_timeouts,
            "consensus.empty_blocks": int(interim.empty) + int(main.empty),
            "consensus.invalid_txs": interim.invalid_txs + main.invalid_txs,
            "consensus.deferred_txs": deferred,
            "consensus.pending_credits": pending,
            "consensus.debits": interim.confirmed_subtx,
            "consensus.credits": main.confirmed_subtx,
            "partitioning.n_partition": main.n_partition,
            "partitioning.n_shard": main.n_shard,
        }

    def finish(self) -> None:
        self.export = self.sim.chain.export_jsonl()

    def prefix_bytes(self, steps: int) -> bytes:
        lines = self.export.split("\n")
        return ("\n".join(lines[: 1 + 2 * steps]) + "\n").encode()

    def problems(self) -> list[str]:
        state = self.sim.chain.state
        found = []
        supply = state.total_balance() + state.pending_value()
        if supply != self.sim.k_total:
            found.append(f"supply {supply} != K {self.sim.k_total}")
        blocks = self.export.count("\n")
        if blocks != len(self.sim.chain.blocks):
            found.append(f"export has {blocks} lines for {len(self.sim.chain.blocks)} blocks")
        return found


class ChainCommittee(ChainWorkload):
    name = "chain-committee"
    why = ("2000 nodes, 100 tx/epoch, 10% offline: committee draws, votes and account-root "
           "rehashing dominate while the ledger does little")
    params = {"n_nodes": 2000, "stake_dist": "fixed:2500", "tx_per_epoch": 100, "offline_rate": 0.1}


class ChainTraffic(ChainWorkload):
    name = "chain-traffic"
    why = ("400 nodes, 1000 tx/epoch, 5% invalid: transaction encoding, splitting, eager "
           "application and state clones dominate, and cost grows with chain history")
    params = {"n_nodes": 400, "tx_per_epoch": 1000, "invalid_fraction": 0.05}


class Relay(Workload):
    """One relay-selection trial; a step is one round: churn, a synchronous
    round, and its trace row, in the order ``simulate_prs`` runs them."""

    name = "relay"
    why = ("65,536 nodes on 256 relayers from the worst start with churn: one mass "
           "convergence round, then churn maintenance, all in the relay layer")
    item = "node selection steps (nodes x rounds)"
    params = {"n_nodes": 65536, "relayers": 256, "cap_dist": "uniform:2:64", "start": "worst",
              "leave_rate": 0.01, "join_rate": 655.0}

    def setup(self, seed: int) -> None:
        from fission_sim import relay
        from fission_sim.dists import sample_dist
        from fission_sim.seeding import split

        p = self.params
        cap_rng = random.Random(derived_seed(seed, "relay-caps"))
        self.capacities = [sample_dist(p["cap_dist"], cap_rng, integer=True, minimum=2)
                           for _ in range(p["relayers"])]
        self.trial_seed = derived_seed(seed, "relay-trial")
        self.relay = relay
        self.rng = split(self.trial_seed, "prs")
        self.state = relay.RelaySystemState(self.capacities)
        self.state.populate(p["n_nodes"], self.rng, start=p["start"])
        self.rows = [self._row(0, 0)]

    def _row(self, rnd: int, switches: int) -> tuple:
        relay, state = self.relay, self.state
        return (rnd, relay.potential(state), relay.expected_delay(state), max(state.ratios()), switches)

    def step(self) -> dict:
        p, relay, state = self.params, self.relay, self.state
        relay.apply_churn(state, self.rng, p["join_rate"], p["leave_rate"])
        switches = relay.synchronous_round(state, self.rng)
        if sum(state.loads) != state.n_nodes:
            raise AssertionError(f"load sum {sum(state.loads)} != {state.n_nodes} nodes")
        self.rows.append(self._row(len(self.rows), switches))
        return {"items": state.n_nodes}

    def prefix_bytes(self, steps: int) -> bytes:
        return _rows_bytes(self.rows[: steps + 1])

    def problems(self) -> list[str]:
        """The timed rounds must reproduce ``simulate_prs`` for this seed."""
        p = self.params
        k = min(CHECK_STEPS, len(self.rows) - 1)
        reference = self.relay.simulate_prs(
            p["n_nodes"], self.capacities, k, self.trial_seed, start=p["start"],
            join_rate=p["join_rate"], leave_rate=p["leave_rate"], stop_at_steady=False,
        )
        expected = [(r.round, r.phi, r.expected_delay, r.max_ratio, r.switches) for r in reference.rows]
        if _rows_bytes(expected) != self.prefix_bytes(k):
            return [f"first {k} rounds differ from simulate_prs"]
        return []


class Drs(Workload):
    """Repeated retrieval-game trials; a step is one whole ``simulate_drs``."""

    name = "drs"
    why = ("4096 nodes, 128 keys, concentrated start: instance build plus a few probing "
           "rounds of the retrieval game, which shares no code with the others")
    item = "retrieval requests settled"
    params = {"n_nodes": 4096, "n_keys": 128, "size_dist": "fixed:64", "cap_dist": "uniform:2:64",
              "replication": 3, "deadline": 8.0, "start": "concentrated"}

    def setup(self, seed: int) -> None:
        from fission_sim import drs, seeding

        # module attributes are looked up per call, so a traced run sees its wrappers
        self.drs, self.seeding = drs, seeding
        self.seed = seed
        self.trials: list[list[tuple]] = []

    def step(self) -> dict:
        p = self.params
        trial_seed = self.seeding.child_seed(self.seed, "drs-trial", len(self.trials))
        run = self.drs.simulate_drs(
            p["n_nodes"], p["n_keys"], p["size_dist"], p["cap_dist"], p["replication"],
            p["deadline"], trial_seed, start=p["start"],
        )
        self.trials.append([(r.round, r.phi, r.omega, r.underloaded_m, r.migrations, r.relayer_kb)
                            for r in run.rows])
        return {"items": len(run.state.requests)}

    def prefix_bytes(self, steps: int) -> bytes:
        return b"".join(_rows_bytes(rows) + b"\n" for rows in self.trials[:steps])


def _rows_bytes(rows) -> bytes:
    return "\n".join(",".join(repr(v) for v in row) for row in rows).encode()


WORKLOADS = {w.name: w for w in (ChainCommittee, ChainTraffic, Relay, Drs)}
