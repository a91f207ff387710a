"""Epoch pipeline: partition micro rounds, block assembly, weighted voting.

One epoch appends exactly one block. Odd epochs run partition committees over
the mempool's debit halves, merge the surviving micro blocks into a debit
(interim) block, and put it to a committee vote. Even epochs credit every
outstanding debit log in a credit (main) block. Any failed quorum degrades to
the designated empty block instead of stalling, and unconfirmed transactions
stay in the mempool for the next round.

A quorum is decided from vote weights alone (``vote_weights``). Only a block
that reaches it gets signed votes, its certificate (``collect_votes``); micro
rounds and conflicting Byzantine votes sign nothing, since no reader checks
those signatures.

All committee draws are verifiable-random and non-interactive, so a whole run
is a pure function of (config, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .chain import INTERIM, Block, Chain, MicroBlock, Votes
from .crypto import KeyRegistry, sha3, sign_each
from .dists import dist_sampler
from .errors import FissionError, InvariantViolation, ValidationError
from .ledger import (
    LedgerState,
    SubTransaction,
    Transaction,
    apply_eager,
    credit_of,
    make_transfer,
    shard_of,
    split_transaction,
)
from .partitioning import PartitionConfig, partition_of
from .seeding import child_bytes, split
from .sortition import (
    BLOCK_INTERIM,
    BLOCK_MAIN,
    Committee,
    Electorate,
    SecurityParams,
    leader_tickets,
    partition_committee,
    select_committee,
)

WITHHOLD = "withhold"
VOTE_CONFLICTING = "vote-conflicting"
EQUIVOCATE = "equivocate"
STRATEGIES = (WITHHOLD, VOTE_CONFLICTING, EQUIVOCATE)


@dataclass
class EpochConfig:
    security: SecurityParams
    delta_micro: float = 2.0
    delta_interim: float = 5.0
    delta_main: float = 3.0
    delta_leader: float = 1.0
    micro_throughput: float = 500.0  # sub-transactions per second per online member

    def __post_init__(self):
        for name in ("delta_micro", "delta_interim", "delta_main", "delta_leader"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def interim_budget(self) -> float:
        return self.delta_leader + self.delta_micro + self.delta_interim

    @property
    def main_budget(self) -> float:
        return self.delta_leader + self.delta_main


@dataclass
class Timeout:
    reason: str


# ---------------------------------------------------------------------------
# simulated population


@dataclass
class SimNode:
    """One simulated node. ``Population`` reads ``online``, ``byzantine`` and
    ``strategy`` when it is built; editing them afterwards changes nothing
    until a new ``Population(nodes, registry)`` is built."""

    sk: bytes
    pk: bytes
    stake: int
    online: bool = True
    byzantine: bool = False
    strategy: str = WITHHOLD


class Population:
    """Nodes with stakes, an online subset, and an adversarial slice of it.

    Online stake approximates alpha * K and adversarial stake approximates
    (1 - h) of the online stake, both as closely as the stake granularity
    allows.

    Roles and the online set are read once, here: ``strategies`` (each
    Byzantine key's strategy) and the online ``electorate`` are the only
    sources the voting and drawing code reads, not the nodes' fields.
    """

    def __init__(self, nodes: list[SimNode], registry: KeyRegistry):
        self.nodes = nodes
        self.registry = registry
        self.strategies = {n.pk: n.strategy for n in nodes if n.byzantine}
        self._online_stakes = {n.pk: n.stake for n in nodes if n.online}
        self.electorate = Electorate(self._online_stakes)

    @classmethod
    def build(
        cls,
        n_nodes: int,
        stake_dist: str,
        alpha: float,
        h: float,
        master_seed: int,
    ) -> "Population":
        rng = split(master_seed, "population")
        registry = KeyRegistry()
        stakes = dist_sampler(stake_dist, integer=True, minimum=1)(rng, n_nodes)
        nodes = []
        for i, stake in enumerate(stakes):
            sk, pk = registry.generate(child_bytes(master_seed, "node", i))
            nodes.append(SimNode(sk=sk, pk=pk, stake=stake))

        total = sum(n.stake for n in nodes)
        order = list(range(n_nodes))
        rng.shuffle(order)
        online_target = alpha * total
        online_stake = 0
        for idx in order:
            if online_stake >= online_target:
                nodes[idx].online = False
            else:
                online_stake += nodes[idx].stake
        online_nodes = [n for n in nodes if n.online]
        rng.shuffle(online_nodes)
        byz_target = (1.0 - h) * online_stake
        byz_stake = 0
        for node in online_nodes:
            if byz_stake + node.stake <= byz_target:
                node.byzantine = True
                node.strategy = rng.choice(STRATEGIES)
                byz_stake += node.stake
        return cls(nodes, registry)

    @property
    def total_stake(self) -> int:
        return sum(n.stake for n in self.nodes)

    def online_stakes(self) -> dict[bytes, int]:
        """Stake per online pk; one shared dict, so callers must not mutate it."""
        return self._online_stakes


# ---------------------------------------------------------------------------
# voting helpers


def vote_weights(committee: Committee, population: Population, offline: set[bytes]) -> tuple[int, int]:
    """(yes, conflicting): the weight of the online members that vote for a
    proposal (honest and equivocating ones) and of those that vote for a
    conflicting block (vote-conflicting and equivocating ones). A quorum
    decision reads only these; ``collect_votes`` signs the votes a block
    carries."""
    strategies = population.strategies
    yes = conflicting = 0
    for pk, weight in zip(committee.pks, committee.weights):
        if pk in offline:
            continue
        role = strategies.get(pk)  # None for an honest member
        if role is None or role == EQUIVOCATE:
            yes += weight
        if role == VOTE_CONFLICTING or role == EQUIVOCATE:
            conflicting += weight
    return yes, conflicting


def collect_votes(
    committee: Committee,
    population: Population,
    proposal: bytes,
    offline: set[bytes],
) -> Votes:
    """The signed votes on a proposal hash, the certificate a confirmed block
    carries: one per online honest or equivocating member, in member order,
    signed in one batch."""
    pks, weights = committee.pks, committee.weights
    if offline and not offline.isdisjoint(pks):
        online = [pk not in offline for pk in pks]
        pks, weights = list(compress(pks, online)), list(compress(weights, online))
    yes = [role is None or role == EQUIVOCATE for role in map(population.strategies.get, pks)]
    voters = list(compress(pks, yes))
    signatures = sign_each(population.registry.framed_secrets(voters), proposal)
    return Votes(proposal, voters, list(compress(weights, yes)), signatures)


def adversary_weight(committee: Committee, population: Population) -> int:
    byzantine = map(population.strategies.__contains__, committee.pks)
    return sum(compress(committee.weights, byzantine))


# ---------------------------------------------------------------------------
# epoch stages


def micro_round(
    partition_index: int,
    sub_txs: list[SubTransaction],
    committee: Committee,
    cfg: EpochConfig,
    base_state: LedgerState,
    population: Population,
    offline: set[bytes] | None = None,
) -> tuple[MicroBlock | Timeout, list[SubTransaction], list[SubTransaction]]:
    """One partition's consensus round over its debit sub-transactions.

    Returns (micro block or timeout, deferred sub-txs, invalid sub-txs). The
    processing budget is delta_micro * throughput * online member count;
    overflow is deferred to the next round. Whether the quorum forms depends
    only on the members' weights, so a round that misses it defers
    everything without executing any of it.
    """
    offline = offline or set()
    n_online = len(committee) - len(offline.intersection(committee.pks))
    if not n_online:
        return Timeout("no online committee weight"), list(sub_txs), []
    weight, _ = vote_weights(committee, population, offline)
    if weight < cfg.security.quorum:
        return Timeout(f"partition {partition_index} vote weight {weight}"), list(sub_txs), []

    capacity = int(cfg.delta_micro * cfg.micro_throughput * n_online)
    scratch = base_state.clone()
    included: list[SubTransaction] = []
    deferred: list[SubTransaction] = []
    invalid: list[SubTransaction] = []
    for sub in sub_txs:
        if len(included) >= capacity:
            deferred.append(sub)
            continue
        try:
            apply_eager(scratch, sub)
        except FissionError:
            invalid.append(sub)
            continue
        included.append(sub)
    return MicroBlock(partition_index, included), deferred, invalid


def _put_to_vote(
    chain: Chain,
    body: list[SubTransaction],
    committee: Committee,
    cfg: EpochConfig,
    population: Population,
    offline: set[bytes] | None,
) -> Block:
    """The block of ``body`` with its committee votes, or the designated empty
    block if they miss the quorum. No conflicting block may reach it."""
    offline = offline or set()
    yes, conflicting = vote_weights(committee, population, offline)
    quorum = cfg.security.quorum
    if conflicting >= quorum:
        raise InvariantViolation(
            "consensus-engine", "conflicting-block", f"conflicting vote weight {conflicting}"
        )
    if yes < quorum:
        return chain.propose([])
    candidate = chain.propose(body)
    candidate.header.votes = collect_votes(committee, population, candidate.hash, offline)
    return candidate


def assemble_interim(
    chain: Chain,
    micros: list[MicroBlock],
    committee: Committee,
    cfg: EpochConfig,
    population: Population,
    offline: set[bytes] | None = None,
) -> Block:
    """Merge micro blocks into a debit block and put it to the committee vote.

    A failed quorum yields the designated empty block; the caller re-queues
    the micro bodies.
    """
    for micro in micros:
        for sub in micro.sub_txs:
            home = partition_of(shard_of(sub.sender, chain.state.n_shard), chain.n_partition)
            if home != micro.partition_index:
                raise InvariantViolation(
                    "consensus-engine",
                    "micro-partition",
                    f"sub-transaction of partition {home} inside micro block {micro.partition_index}",
                )
    body = [sub for micro in sorted(micros, key=lambda m: m.partition_index) for sub in micro.sub_txs]
    return _put_to_vote(chain, body, committee, cfg, population, offline)


def assemble_main(
    chain: Chain,
    committee: Committee,
    cfg: EpochConfig,
    population: Population,
    offline: set[bytes] | None = None,
) -> Block:
    """Credit every pending debit (including rolled-forward ones) in a
    credit block, or fall back to the designated empty block."""
    pending = chain.state.pending
    body = [credit_of(pending[pid]) for pid in sorted(pending)]
    return _put_to_vote(chain, body, committee, cfg, population, offline)


@dataclass
class EpochResult:
    epoch: int
    kind: str
    block: Block
    confirmed_subtx: int
    committee_weight: int
    adversary_weight: int
    empty: bool
    n_partition: int
    n_shard: int
    proposer: bytes | None
    micro_timeouts: int = 0
    invalid_txs: int = 0


def run_epoch(
    chain: Chain,
    mempool: list[Transaction],
    cfg: EpochConfig,
    population: Population,
    offline: set[bytes] | None = None,
) -> EpochResult:
    """Drive one full epoch: committee draws, micro rounds or credit assembly,
    block vote, and append. Exactly one block lands (possibly empty); the
    mempool is mutated to the still-pending transaction set."""
    offline = offline or set()
    upcoming = chain.next_header()
    epoch, kind, seed = upcoming.epoch, upcoming.kind, upcoming.seed
    electorate = population.electorate
    p = cfg.security.p
    n_partition = chain.n_partition

    block_type = BLOCK_INTERIM if kind == INTERIM else BLOCK_MAIN
    committee = select_committee(electorate, seed, block_type, p, population.registry)
    adversary = _assert_adversary_below_quorum(committee, population, cfg, f"{block_type} committee")

    proposer = _elect_proposer(committee, population, seed, offline)

    invalid_count = 0
    micro_timeouts = 0
    if kind == INTERIM:
        routed: dict[int, list[SubTransaction]] = {k: [] for k in range(n_partition)}
        for tx in mempool:
            try:
                debit = split_transaction(tx, population.registry)
            except FissionError:
                invalid_count += 1
                continue
            k = partition_of(shard_of(tx.sender, chain.state.n_shard), n_partition)
            routed[k].append(debit)

        micros: list[MicroBlock] = []
        kept_parents: set[bytes] = set()
        for k in range(n_partition):
            pc = select_committee(electorate, seed, partition_committee(k), p, population.registry)
            _assert_adversary_below_quorum(pc, population, cfg, f"partition {k} committee")
            outcome, deferred, invalid = micro_round(
                k, routed[k], pc, cfg, chain.state, population, offline
            )
            invalid_count += len(invalid)
            for sub in deferred:
                kept_parents.add(sub.parent_id)
            if isinstance(outcome, Timeout):
                micro_timeouts += 1
            else:
                micros.append(outcome)

        block = assemble_interim(chain, micros, committee, cfg, population, offline)
        if block.is_timeout_block:
            for micro in micros:
                for sub in micro.sub_txs:
                    kept_parents.add(sub.parent_id)
        # deferred transactions keep their arrival order for the next round
        mempool[:] = [tx for tx in list(mempool) if tx.id in kept_parents]
    else:
        block = assemble_main(chain, committee, cfg, population, offline)

    chain.append_block(block)
    # the header's counts: appending a main block may re-shard chain.state
    return EpochResult(
        epoch=epoch,
        kind=kind,
        block=block,
        confirmed_subtx=len(block.body),
        committee_weight=sum(committee.weights),
        adversary_weight=adversary,
        empty=not block.body,
        n_partition=block.header.n_partition,
        n_shard=block.header.n_shard,
        proposer=proposer,
        micro_timeouts=micro_timeouts,
        invalid_txs=invalid_count,
    )


def _elect_proposer(
    committee: Committee,
    population: Population,
    seed: bytes,
    offline: set[bytes],
) -> bytes | None:
    """The first online entry of ``leader_order`` over the members' tickets:
    the smallest (ticket, pk) among online members, or None if all are dark.

    An offline member cannot win, so it draws no ticket. Tickets are 32-byte
    big-endian hashes, so comparing the bytes orders them as ``leader_order``
    does.
    """
    online = [pk for pk in committee.pks if pk not in offline]
    if not online:
        return None
    tickets = leader_tickets(population.registry.framed_secrets(online), seed)
    return min(zip(tickets, online))[1]


def _assert_adversary_below_quorum(
    committee: Committee, population: Population, cfg: EpochConfig, label: str
) -> int:
    """The committee's adversary weight, checked to stay below the quorum."""
    weight = adversary_weight(committee, population)
    if weight >= cfg.security.quorum:
        raise InvariantViolation(
            "consensus-engine", "adversary-quorum", f"{label} adversary weight {weight}"
        )
    return weight


# ---------------------------------------------------------------------------
# full chain simulation


class ChainSimulation:
    """Deterministic multi-epoch run with generated traffic and invariants.

    Node stakes double as account balances, so the token supply K is the total
    stake drawn at build time and conservation is checkable against it every
    epoch.
    """

    def __init__(
        self,
        *,
        h: float = 0.75,
        alpha: float = 0.7,
        tau: float = 5000.0,
        theta: float = 0.3,
        n_nodes: int = 400,
        stake_dist: str = "fixed:2500",
        delta_micro: float = 2.0,
        delta_interim: float = 5.0,
        delta_main: float = 3.0,
        delta_leader: float = 1.0,
        micro_throughput: float = 500.0,
        partition_cfg: PartitionConfig | None = None,
        tx_per_epoch: int = 100,
        invalid_fraction: float = 0.0,
        offline_rate: float = 0.0,
        seed: int = 0,
    ):
        self.population = Population.build(n_nodes, stake_dist, alpha, h, seed)
        k_total = self.population.total_stake
        top = max((node.stake for node in self.population.nodes), default=0)
        if top >= 1 << 64:
            # a stake is an account balance, which blocks encode in 8 bytes
            raise ValidationError(
                "population.stake_dist", f"every stake must be below 2^64, drew {top}"
            )
        if not tau < k_total:
            raise ValidationError(
                "security.tau", f"must be below the total stake K = {k_total} (p = tau/K < 1), got {tau!r}"
            )
        security = SecurityParams(h, alpha, tau, theta, k_total)
        security.check_domain()
        self.security = security
        self.epoch_cfg = EpochConfig(
            security=security,
            delta_micro=delta_micro,
            delta_interim=delta_interim,
            delta_main=delta_main,
            delta_leader=delta_leader,
            micro_throughput=micro_throughput,
        )
        partition_cfg = partition_cfg or PartitionConfig(n_partition=2, n_shard=8)
        self.tx_per_epoch = tx_per_epoch
        self.invalid_fraction = invalid_fraction
        self.offline_rate = offline_rate
        self.txgen_rng = split(seed, "txgen")
        self.offline_rng = split(seed, "offline")

        state = LedgerState(partition_cfg.n_shard)
        for node in self.population.nodes:
            state.create_account(node.pk, node.stake)
        self.k_total = security.k_total
        self.chain = Chain(state, security.quorum, partition_cfg)
        self.mempool: list[Transaction] = []
        self.clock = 0.0  # simulated seconds: the sum of the epoch budgets so far
        self.results: list[EpochResult] = []

    # -- traffic generation --

    def _spendable_view(self) -> dict[bytes, tuple[int, int]]:
        """Balance and next nonce per account after netting out mempool debits."""
        state = self.chain.state
        # the two columns share one insertion order
        view = dict(zip(state.balances, zip(state.balances.values(), state.nonces.values())))
        for tx in self.mempool:
            bal, nonce = view[tx.sender]
            view[tx.sender] = (bal - tx.value, nonce + 1)
        return view

    def generate_transactions(self) -> None:
        rng = self.txgen_rng
        view = self._spendable_view()
        pks = sorted(view)
        for _ in range(self.tx_per_epoch):
            sender_pk = pks[rng.randrange(len(pks))]
            receiver_pk = pks[rng.randrange(len(pks))]
            balance, nonce = view[sender_pk]
            sk = self.population.registry.secret_for(sender_pk)
            bad_roll = rng.random()
            if bad_roll < self.invalid_fraction:
                flavor = rng.choice(("overdraw", "nonce", "signature"))
                if flavor == "overdraw":
                    tx = make_transfer(self.population.registry, sk, receiver_pk, balance + 10, nonce + 1)
                elif flavor == "nonce":
                    tx = make_transfer(self.population.registry, sk, receiver_pk, 1, nonce + 7)
                else:
                    good = make_transfer(self.population.registry, sk, receiver_pk, 1, nonce + 1)
                    tx = Transaction(
                        good.tx_type, good.sender, good.receiver, good.value,
                        good.nonce, good.data_hash, sha3(b"forged" + good.signature),
                    )
                self.mempool.append(tx)
                continue
            if balance <= 0:
                continue
            value = rng.randint(1, max(1, min(balance, 50)))
            tx = make_transfer(self.population.registry, sk, receiver_pk, value, nonce + 1)
            view[sender_pk] = (balance - value, nonce + 1)
            self.mempool.append(tx)

    def _draw_offline(self) -> set[bytes]:
        if self.offline_rate <= 0:
            return set()
        return {
            n.pk
            for n in self.population.nodes
            if n.online and self.offline_rng.random() < self.offline_rate
        }

    # -- epoch loop --

    def step(self) -> EpochResult:
        if self.chain.next_header().kind == INTERIM:
            self.generate_transactions()
        result = run_epoch(
            self.chain,
            self.mempool,
            self.epoch_cfg,
            self.population,
            self._draw_offline(),
        )
        cfg = self.epoch_cfg
        self.clock += cfg.interim_budget if result.kind == INTERIM else cfg.main_budget
        self._check_conservation()
        self.results.append(result)
        return result

    def run(self, epochs: int) -> list[EpochResult]:
        if epochs < 0:
            raise ValidationError("epochs", f"must be >= 0, got {epochs}")
        for _ in range(epochs):
            self.step()
        return self.results

    def _check_conservation(self) -> None:
        state = self.chain.state
        supply = state.total_balance() + state.pending_value()
        if supply != self.k_total:
            raise InvariantViolation(
                "core-ledger", "conservation", f"supply {supply} != K {self.k_total}"
            )
