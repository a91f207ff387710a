"""Epoch pipeline: partition micro rounds, block assembly, weighted voting.

One epoch appends exactly one block. Odd epochs run partition committees over
the mempool's debit halves, merge the surviving micro blocks into a debit
(interim) block, and put it to a committee vote. Even epochs credit every
outstanding debit log in a credit (main) block. Any failed quorum degrades to
the designated empty block instead of stalling, and unconfirmed transactions
stay in the mempool for the next round.

Each committee is read once, into a ``Ballot``: its voters, their vote
weights and its adversary weight. A quorum is decided from the ballot's sums
alone. Only a block that reaches it gets signed votes, its certificate
(``collect_votes``); micro rounds and conflicting Byzantine votes sign
nothing, since no reader checks those signatures. No output of an epoch
depends on its proposer, so the step elects none.

All committee draws are verifiable-random and non-interactive, so a whole run
is a pure function of (config, seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .chain import INTERIM, Block, Chain, Votes, kind_for_epoch
from .config import CHAIN_KEYWORDS, EpochSettings, SimConfig, load_config
from .crypto import KeyRegistry, sha3, sign_each
from .dists import dist_sampler
from .errors import InvariantViolation, ParseError, TransactionRejected, ValidationError
from .ledger import (
    BALANCE_LIMIT,
    LedgerState,
    SubTransaction,
    Transaction,
    apply_eager,
    home_partitions,
    make_transfer,
    split_transaction,
)
from .seeding import child_bytes, split
from .sortition import (
    BLOCK_INTERIM,
    BLOCK_MAIN,
    Committee,
    Electorate,
    partition_committee,
    quorum,
    select_committee,
)

WITHHOLD = "withhold"
VOTE_CONFLICTING = "vote-conflicting"
EQUIVOCATE = "equivocate"
STRATEGIES = (WITHHOLD, VOTE_CONFLICTING, EQUIVOCATE)


# ---------------------------------------------------------------------------
# simulated population


class Population:
    """The nodes as columns: ``pks`` and ``stakes`` in node order, the
    ``online`` keys in node order, each Byzantine key's strategy
    (``strategies``), the key ``registry``, and the online ``electorate``
    that every committee is drawn from. The electorate frames its keys from
    the registry once, here, so no draw reads the registry.

    Online stake approximates alpha * K and adversarial stake approximates
    (1 - h) of the online stake, both as closely as the stake granularity
    allows.
    """

    def __init__(
        self,
        pks: list[bytes],
        stakes: list[int],
        online: list[bytes],
        strategies: dict[bytes, str],
        registry: KeyRegistry,
    ):
        self.pks = pks
        self.stakes = stakes
        self.online = online
        self.strategies = strategies
        self.registry = registry
        stake_of = dict(zip(pks, stakes))
        self.electorate = Electorate({pk: stake_of[pk] for pk in online}, registry)

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
        try:
            stakes = dist_sampler(stake_dist, integer=True, minimum=1)(rng, n_nodes)
        except ParseError as e:  # a draw past the float range
            raise ValidationError("population.stake_dist", str(e)) from None
        pks = [registry.generate(child_bytes(master_seed, "node", i))[1] for i in range(n_nodes)]

        order = list(range(n_nodes))
        rng.shuffle(order)
        online_target = alpha * sum(stakes)
        online_stake = 0
        is_online = [False] * n_nodes
        for i in order:
            if online_stake >= online_target:
                break
            is_online[i] = True
            online_stake += stakes[i]
        candidates = [i for i, up in enumerate(is_online) if up]
        rng.shuffle(candidates)
        byz_target = (1.0 - h) * online_stake
        byz_stake = 0
        strategies = {}
        for i in candidates:
            if byz_stake + stakes[i] <= byz_target:
                strategies[pks[i]] = rng.choice(STRATEGIES)
                byz_stake += stakes[i]
        return cls(pks, stakes, [pk for pk, up in zip(pks, is_online) if up], strategies, registry)

    @property
    def total_stake(self) -> int:
        return sum(self.stakes)


# ---------------------------------------------------------------------------
# voting helpers


@dataclass(slots=True)
class Ballot:
    """One committee's vote, read in one pass over its members: the online
    members that vote for a proposal (honest and equivocating ones, in member
    order) with their weights and its sum ``yes``; the weight ``conflicting``
    of the online members that vote for a conflicting block (vote-conflicting
    and equivocating ones); the adversary weight of the whole committee,
    offline members included; and the online member count. A quorum decision
    reads only the sums; ``collect_votes`` signs the voters of the block that
    reaches it."""

    voters: list[bytes]
    weights: list[int]
    yes: int
    conflicting: int
    adversary: int
    n_online: int


def cast_ballot(committee: Committee, population: Population, offline: set[bytes]) -> Ballot:
    get = population.strategies.get
    voters: list[bytes] = []
    weights: list[int] = []
    vote, weigh = voters.append, weights.append
    conflicting = adversary = n_offline = 0
    for pk, weight in zip(committee.pks, committee.weights):
        role = get(pk)  # None for an honest member
        if pk in offline:
            n_offline += 1
            if role is not None:
                adversary += weight
        elif role is None:
            vote(pk)
            weigh(weight)
        else:
            adversary += weight
            if role != WITHHOLD:  # vote-conflicting or equivocating
                conflicting += weight
                if role == EQUIVOCATE:
                    vote(pk)
                    weigh(weight)
    return Ballot(voters, weights, sum(weights), conflicting, adversary, len(committee) - n_offline)


def collect_votes(ballot: Ballot, population: Population, proposal: bytes) -> Votes:
    """The signed votes on a proposal hash, the certificate a confirmed block
    carries: one per voter of the ballot, in member order, signed in one
    batch into one signature column."""
    signatures = sign_each(population.registry.framed_secrets(ballot.voters), proposal)
    return Votes(proposal, ballot.voters, ballot.weights, signatures)


# ---------------------------------------------------------------------------
# epoch stages


def micro_round(
    sub_txs: list[SubTransaction],
    ballot: Ballot,
    scratch: LedgerState,
    quorum: int,
    epochs: EpochSettings,
) -> tuple[list[SubTransaction] | None, list[SubTransaction], list[SubTransaction]]:
    """One partition's consensus round over its debit sub-transactions,
    executed on ``scratch``, a copy of the chain state.

    Returns (included sub-txs, or None on a timeout, deferred sub-txs,
    invalid sub-txs). The processing budget is delta_micro * throughput *
    online member count; overflow is deferred to the next round. Whether the
    quorum forms depends only on the committee's ballot, so a round that
    misses it defers everything without executing any of it.

    The partitions of an epoch share one scratch. Their senders are disjoint,
    and a debit's parent id hashes a transaction that holds its sender, so no
    round's balance, nonce or duplicate check reads what another wrote.
    """
    n_online = ballot.n_online
    if not n_online or ballot.yes < quorum:
        return None, list(sub_txs), []

    capacity = int(epochs.delta_micro * epochs.micro_throughput * n_online)
    included: list[SubTransaction] = []
    deferred: list[SubTransaction] = []
    invalid: list[SubTransaction] = []
    for sub in sub_txs:
        if len(included) >= capacity:
            deferred.append(sub)
            continue
        try:
            apply_eager(scratch, sub)
        except TransactionRejected:
            invalid.append(sub)
            continue
        included.append(sub)
    return included, deferred, invalid


def _put_to_vote(
    chain: Chain,
    body: list[SubTransaction],
    ballot: Ballot,
    population: Population,
) -> Block:
    """The block of ``body`` with its committee votes, or the designated empty
    block if they miss the quorum. No conflicting block may reach it."""
    quorum = chain.quorum
    if ballot.conflicting >= quorum:
        raise InvariantViolation(
            "consensus-engine", "conflicting-block", f"conflicting vote weight {ballot.conflicting}"
        )
    if ballot.yes < quorum:
        return chain.propose([])
    candidate = chain.propose(body)
    candidate.header.votes = collect_votes(ballot, population, candidate.hash)
    return candidate


def assemble_interim(
    chain: Chain,
    micros: list[list[SubTransaction]],
    ballot: Ballot,
    population: Population,
) -> Block:
    """Merge the micro rounds' included debits, partition k's at
    ``micros[k]``, into a debit block and put it to the committee vote.

    A failed quorum yields the designated empty block; the caller re-queues
    the micro bodies.
    """
    n_shard, n_partition = chain.state.n_shard, chain.n_partition
    for k, subs in enumerate(micros):
        for home in home_partitions([sender for _, sender, _, _, _ in subs], n_shard, n_partition):
            if home != k:
                raise InvariantViolation(
                    "consensus-engine",
                    "micro-partition",
                    f"sub-transaction of partition {home} inside micro block {k}",
                )
    body = [sub for subs in micros for sub in subs]
    return _put_to_vote(chain, body, ballot, population)


def assemble_main(chain: Chain, ballot: Ballot, population: Population) -> Block:
    """Credit every pending debit, rolled-forward ones included, in a credit
    block of the debit records themselves, or the designated empty block."""
    pending = chain.state.pending
    body = [pending[pid] for pid in sorted(pending)]
    return _put_to_vote(chain, body, ballot, population)


@dataclass
class EpochResult:
    """What one epoch did, in numbers; its block is ``chain.blocks[epoch]``."""

    epoch: int
    kind: str
    confirmed_subtx: int
    committee_weight: int
    adversary_weight: int
    empty: bool
    n_partition: int
    n_shard: int
    micro_timeouts: int = 0
    invalid_txs: int = 0


def run_epoch(
    chain: Chain,
    mempool: list[Transaction],
    p: float,
    epochs: EpochSettings,
    population: Population,
    offline: set[bytes],
) -> EpochResult:
    """Drive one full epoch: committee draws at selection probability ``p``,
    micro rounds or credit assembly, block vote, and append. Exactly one block lands (possibly empty); the
    mempool is mutated to the still-pending transaction set."""
    upcoming = chain.next_header()
    epoch, kind, seed = upcoming.epoch, upcoming.kind, upcoming.seed
    electorate = population.electorate
    quorum = chain.quorum
    n_partition = chain.n_partition

    block_type = BLOCK_INTERIM if kind == INTERIM else BLOCK_MAIN
    committee = select_committee(electorate, seed, block_type, p)
    ballot = cast_ballot(committee, population, offline)
    _assert_adversary_below_quorum(ballot, quorum, f"{block_type} committee")

    invalid_count = 0
    micro_timeouts = 0
    if kind == INTERIM:
        # one admission pass splits each transaction; each debit goes to the
        # partition of its sender's shard
        registry = population.registry
        debits: list[SubTransaction] = []
        for tx in mempool:
            try:
                debits.append(split_transaction(tx, registry))
            except TransactionRejected:
                invalid_count += 1
        routed: list[list[SubTransaction]] = [[] for _ in range(n_partition)]
        homes = home_partitions([sender for _, sender, _, _, _ in debits], chain.state.n_shard, n_partition)
        for debit, home in zip(debits, homes):
            routed[home].append(debit)

        scratch = chain.state.clone()  # every partition's round executes on it
        micros: list[list[SubTransaction]] = []  # partition k's included debits at k
        kept_parents: set[bytes] = set()
        for k in range(n_partition):
            pc = select_committee(electorate, seed, partition_committee(k), p)
            pc_ballot = cast_ballot(pc, population, offline)
            _assert_adversary_below_quorum(pc_ballot, quorum, f"partition {k} committee")
            included, deferred, invalid = micro_round(routed[k], pc_ballot, scratch, quorum, epochs)
            invalid_count += len(invalid)
            kept_parents.update([parent_id for parent_id, _, _, _, _ in deferred])
            if included is None:
                micro_timeouts += 1
                included = []
            micros.append(included)

        block = assemble_interim(chain, micros, ballot, population)
        if block.is_timeout_block:
            for subs in micros:
                kept_parents.update([parent_id for parent_id, _, _, _, _ in subs])
        # deferred transactions keep their arrival order for the next round
        mempool[:] = [tx for tx in mempool if tx.id in kept_parents]
    else:
        block = assemble_main(chain, ballot, population)

    chain.append_block(block)
    # the header's counts: appending a main block may re-shard chain.state
    return EpochResult(
        epoch=epoch,
        kind=kind,
        confirmed_subtx=len(block.body),
        committee_weight=sum(committee.weights),
        adversary_weight=ballot.adversary,
        empty=not block.body,
        n_partition=block.header.n_partition,
        n_shard=block.header.n_shard,
        micro_timeouts=micro_timeouts,
        invalid_txs=invalid_count,
    )


def _assert_adversary_below_quorum(ballot: Ballot, quorum: int, label: str) -> None:
    """Check that a committee's adversary weight stays below the quorum."""
    if ballot.adversary >= quorum:
        raise InvariantViolation(
            "consensus-engine", "adversary-quorum", f"{label} adversary weight {ballot.adversary}"
        )


# ---------------------------------------------------------------------------
# traffic generation


class SpendableView(dict):
    """Each account's spendable balance and last nonce, keyed by public key:
    the entries put in, and any other account of ``state`` read from it on
    first use."""

    __slots__ = ("state",)

    def __init__(self, state: LedgerState):
        super().__init__()
        self.state = state

    def __missing__(self, pk: bytes) -> tuple[int, int]:
        entry = self[pk] = (self.state.balances[pk], self.state.nonces[pk])
        return entry


def draw_traffic(
    rng: random.Random,
    registry: KeyRegistry,
    view: dict[bytes, tuple[int, int]],
    pks: list[bytes],
    tx_per_epoch: int,
    invalid_fraction: float,
) -> list[Transaction]:
    """One epoch's transactions, drawn on ``view``, each account's spendable
    balance and last nonce, which each valid transfer updates. ``pks`` is
    every account ``view`` holds or reads on first use (a ``SpendableView``),
    in sorted order, which the caller keeps between epochs.

    Each of the ``tx_per_epoch`` draws picks a sender and a receiver, each
    ``pks[rng.randrange(len(pks))]`` over the view's keys in sorted order,
    then rolls ``rng.random()``. A roll below ``invalid_fraction`` gives an
    invalid transaction of the flavour ``rng.choice(("overdraw", "nonce",
    "signature"))``, where an overdraw whose value would not fit the 8 bytes
    of a balance takes the nonce-gap form; otherwise a sender with a positive balance sends
    ``rng.randint(1, min(balance, 50))``. Each ``randrange``, ``choice`` and
    ``randint`` is inlined as ``random.Random._randbelow_with_getrandbits``
    runs it, rejections included, so the random stream is that of those
    calls.
    """
    n = len(pks)
    if tx_per_epoch > 0 and not n:
        raise ValueError("no account to draw traffic on")
    bits = n.bit_length()
    getrandbits, roll = rng.getrandbits, rng.random
    txs: list[Transaction] = []
    append = txs.append
    for _ in range(tx_per_epoch):
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        sender = pks[r]
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        receiver = pks[r]
        balance, nonce = view[sender]
        if roll() < invalid_fraction:
            flavour = getrandbits(2)  # the index into the three flavours
            while flavour == 3:
                flavour = getrandbits(2)
            # the view nets out deferred overdraws too, so it can be below zero
            over = (balance if balance > 0 else 0) + 10
            if flavour == 0 and over < BALANCE_LIMIT:  # overdraw
                append(make_transfer(registry, sender, receiver, over, nonce + 1))
            elif flavour < 2:  # nonce gap, or an overdraw past 8 bytes
                append(make_transfer(registry, sender, receiver, 1, nonce + 7))
            else:  # forged signature
                good = make_transfer(registry, sender, receiver, 1, nonce + 1)
                append(Transaction(
                    good.tx_type, good.sender, good.receiver, good.value,
                    good.nonce, good.data_hash, sha3(b"forged" + good.signature),
                ))
            continue
        if balance <= 0:
            continue
        cap = balance if balance < 50 else 50
        bits_cap = cap.bit_length()
        value = getrandbits(bits_cap)
        while value >= cap:
            value = getrandbits(bits_cap)
        value += 1
        append(make_transfer(registry, sender, receiver, value, nonce + 1))
        view[sender] = (balance - value, nonce + 1)
    return txs


# ---------------------------------------------------------------------------
# full chain simulation


def check_epochs(epochs: int) -> None:
    """Reject a negative number of epochs to run."""
    if epochs < 0:
        raise ValidationError("epochs", f"must be >= 0, got {epochs}")


class ChainSimulation:
    """Deterministic multi-epoch run with generated traffic and invariants.

    Built from a ``SimConfig``, from keyword keys (a leaf name of the
    population, security, epochs, chain or partition section, ``n_nodes`` for
    ``population.nodes``, or ``seed``), or from keys set over a config. Either
    way the run reads a validated copy, ``config``, that ``load_config`` makes,
    so its defaults and checks are those of a config file.

    Node stakes double as account balances, so the token supply K is the total
    stake drawn at build time and conservation is checkable against it every
    epoch.
    """

    def __init__(self, config: SimConfig | None = None, /, **keys):
        dotted = {}
        for name, value in keys.items():
            if name not in CHAIN_KEYWORDS:
                raise TypeError(f"ChainSimulation() got an unexpected keyword argument {name!r}")
            dotted[CHAIN_KEYWORDS[name]] = value
        cfg = self.config = load_config(None, (config.to_dict() if config else {}) | dotted)
        sec = cfg.security
        self.population = Population.build(
            cfg.population.nodes, cfg.population.stake_dist, sec.alpha, sec.h, cfg.seed
        )
        k_total = self.population.total_stake
        top = max(self.population.stakes)
        if top >= BALANCE_LIMIT:
            # a stake is an account balance, which blocks encode in 8 bytes
            raise ValidationError(
                "population.stake_dist", f"every stake must be below 2^64, drew {top}"
            )
        if not sec.tau < k_total:
            raise ValidationError(
                "security.tau", f"must be below the total stake K = {k_total} (p = tau/K < 1), got {sec.tau!r}"
            )
        self.p = sec.tau / k_total  # each token's chance of selection
        self.txgen_rng = split(cfg.seed, "txgen")
        self.offline_rng = split(cfg.seed, "offline")

        state = LedgerState(cfg.partition.n_shard)
        for pk, stake in zip(self.population.pks, self.population.stakes):
            state.create_account(pk, stake)
        self.k_total = k_total
        self.chain = Chain(state, quorum(sec.theta, sec.tau), cfg.partition)
        self.mempool: list[Transaction] = []
        self.clock = 0.0  # simulated seconds: the sum of the epoch budgets so far
        # sorted(chain.state.balances), sorted again only when the account
        # count moves: create_account is the only way a key enters, and no
        # key ever leaves
        self._accounts: list[bytes] = []

    # -- traffic generation --

    def _spendable_view(self) -> SpendableView:
        """Balance and last nonce per account after netting out mempool
        debits: an entry per mempool sender, the other accounts read from the
        state when the traffic draw first reaches them."""
        view = SpendableView(self.chain.state)
        for tx in self.mempool:
            bal, nonce = view[tx.sender]
            view[tx.sender] = (bal - tx.value, nonce + 1)
        return view

    def generate_transactions(self) -> None:
        traffic = self.config.chain
        balances = self.chain.state.balances
        if len(self._accounts) != len(balances):
            self._accounts = sorted(balances)
        self.mempool += draw_traffic(
            self.txgen_rng,
            self.population.registry,
            self._spendable_view(),
            self._accounts,
            traffic.tx_per_epoch,
            traffic.invalid_fraction,
        )

    def _draw_offline(self) -> set[bytes]:
        rate = self.config.chain.offline_rate
        if rate <= 0:
            return set()
        draw = self.offline_rng.random
        return {pk for pk in self.population.online if draw() < rate}

    # -- epoch loop --

    def step(self) -> EpochResult:
        if kind_for_epoch(self.chain.tip.epoch + 1) == INTERIM:
            self.generate_transactions()
        epochs = self.config.epochs
        result = run_epoch(
            self.chain,
            self.mempool,
            self.p,
            epochs,
            self.population,
            self._draw_offline(),
        )
        self.clock += epochs.interim_budget if result.kind == INTERIM else epochs.main_budget
        self._check_conservation()
        return result

    def run(self, epochs: int) -> list[EpochResult]:
        """Step ``epochs`` more epochs; the results of this call."""
        check_epochs(epochs)
        return [self.step() for _ in range(epochs)]

    def _check_conservation(self) -> None:
        state = self.chain.state
        supply = state.total_balance() + state.pending_value()
        if supply != self.k_total:
            raise InvariantViolation(
                "core-ledger", "conservation", f"supply {supply} != K {self.k_total}"
            )
