"""Per-node references of the batched passes in ``fission_sim``.

In the protocol each node draws its own sortition weight, each relay client
makes its own switch decision, and each retrieval request pays its own
overflow cost. The simulator computes these for many nodes at once
(``select_committee``, ``synchronous_round``, ``scan_round``); the tests
compare those passes with the one-node forms kept here, and with
``accounting``, the retrieval game's byte split summed on its own.

Relay clients join and leave one at a time here too: ``attach`` places one
node, ``initial_relayer`` is one node's ``randrange`` draw of a relayer, and
``populate_random`` and ``apply_churn`` are the per-node loops that
``RelaySystemState.populate`` and ``relay.apply_churn`` inline and must
repeat, random stream included.

A state's credited ids are kept here as one Python set that every copy
copies whole (``EagerCreditedIds``), beside the library's commit log that
copies share (``ledger.CreditedIds``).

A key's shard is kept here one key at a time (``shard_of``), beside the
library's batch ``ledger.home_partitions``, so that reference roots group
accounts without the code they check. So is a traffic generator that draws
with ``randrange``, ``choice`` and ``randint`` calls
(``generate_transactions``): ``consensus.draw_traffic`` inlines those draws
and must repeat its random stream and transactions.

The retrieval game has no clock, in the library or here: as in the
synchronous analysis, every round is played against the full deadline, so a
request never expires and the relayer-bound bytes are exactly the overflow.
``omega`` is the contraction quantity of one scan.

Outside ``fission_sim.crypto`` a node is named by its public key alone;
``secret_key`` recovers the raw key that the one-key references
(``vrf_eval``, ``leader_ticket``, ``crypto.sign``) take.

The leader election lives only here. The proposer is the first online entry
of an ordered list of leader tickets (``elect_proposer``). No output of the
simulator depends on it, so the library elects nobody; the tests elect
through this reference until a block header carries the proposer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fission_sim.crypto import KeyRegistry, VrfOutput, sha3, vrf_eval
from fission_sim.drs import DrsState, drs_potential, scan_round, underloaded_count
from fission_sim.errors import EmptySpace, VerificationFailure
from fission_sim.ledger import CreditedIds, Transaction, make_transfer
from fission_sim.relay import _poisson
from fission_sim.seeding import child_seed
from fission_sim.sortition import _weights, leader_ticket, voting_power


def shard_of(pk: bytes, n_shard: int) -> int:
    """Home shard of a public key: big-endian integer value mod shard count."""
    if n_shard < 1:
        raise ValueError("n_shard must be >= 1")
    return int.from_bytes(pk, "big") % n_shard


class EagerCreditedIds(CreditedIds):
    """Credited ids that never commit: every id stays in the private set
    under an empty log, and ``copy`` copies that set whole. Membership,
    iteration and ``apply_eager``'s written-out check read it as they read a
    ``CreditedIds``."""

    __slots__ = ()

    def copy(self) -> "EagerCreditedIds":
        other = EagerCreditedIds()
        other.new = set(self.new)
        return other


def secret_key(registry: KeyRegistry, pk: bytes) -> bytes:
    """The raw secret key of ``pk``, which the one-key references (``vrf_eval``,
    ``leader_ticket``, ``crypto.sign``) take: the registry's framed secret
    without its 4-byte length prefix."""
    framed = registry.framed_secret(pk)
    if framed is None:
        raise VerificationFailure(f"unknown public key {pk.hex()[:16]}")
    return framed[4:]


def generate_transactions(rng, registry, view, tx_per_epoch, invalid_fraction) -> list[Transaction]:
    """``consensus.draw_traffic`` with its draws as ``randrange``, ``choice``
    and ``randint`` calls."""
    pks = sorted(view)
    txs = []
    for _ in range(tx_per_epoch):
        sender_pk = pks[rng.randrange(len(pks))]
        receiver_pk = pks[rng.randrange(len(pks))]
        balance, nonce = view[sender_pk]
        bad_roll = rng.random()
        if bad_roll < invalid_fraction:
            flavor = rng.choice(("overdraw", "nonce", "signature"))
            over = max(balance, 0) + 10
            if flavor == "overdraw" and over < 2**64:  # a transfer's value fits 8 bytes
                tx = make_transfer(registry, sender_pk, receiver_pk, over, nonce + 1)
            elif flavor in ("overdraw", "nonce"):
                tx = make_transfer(registry, sender_pk, receiver_pk, 1, nonce + 7)
            else:
                good = make_transfer(registry, sender_pk, receiver_pk, 1, nonce + 1)
                tx = Transaction(
                    good.tx_type, good.sender, good.receiver, good.value,
                    good.nonce, good.data_hash, sha3(b"forged" + good.signature),
                )
            txs.append(tx)
            continue
        if balance <= 0:
            continue
        value = rng.randint(1, max(1, min(balance, 50)))
        tx = make_transfer(registry, sender_pk, receiver_pk, value, nonce + 1)
        view[sender_pk] = (balance - value, nonce + 1)
        txs.append(tx)
    return txs


def split_numpy(master_seed: int, *labels: object) -> np.random.Generator:
    """A NumPy generator on the ``seeding`` stream of ``labels``."""
    return np.random.default_rng(child_seed(master_seed, *labels) % (1 << 63))


def vrf_verify(registry: KeyRegistry, pk: bytes, seed: bytes, ctype: str, output: VrfOutput) -> bool:
    """Check that (hash, proof) was honestly produced for pk's secret key."""
    if pk not in registry:
        return False
    expected = vrf_eval(secret_key(registry, pk), seed, ctype)
    return expected.hash == output.hash and expected.proof == output.proof


@dataclass(frozen=True, slots=True)
class SortitionOutcome:
    pk: bytes
    committee_type: str
    weight: int
    vrf: VrfOutput


def draw_outcome(sk: bytes, pk: bytes, seed: bytes, ctype: str, stake: int, p: float) -> SortitionOutcome:
    """One node's sortition draw: its VRF output and the weight it maps to."""
    out = vrf_eval(sk, seed, ctype)
    return SortitionOutcome(pk, ctype, voting_power(out.uniform, stake, p), out)


def verify_outcome(
    registry: KeyRegistry, outcome: SortitionOutcome, seed: bytes, stake: int, p: float
) -> bool:
    """Re-derive a claimed weight from the proof; anyone can run this."""
    if not vrf_verify(registry, outcome.pk, seed, outcome.committee_type, outcome.vrf):
        return False
    return voting_power(outcome.vrf.uniform, stake, p) == outcome.weight


def voting_power_batch(xs: np.ndarray, s: int, p: float) -> np.ndarray:
    """``voting_power`` of many uniform draws for one (s, p), through the
    evaluator ``select_committee`` uses."""
    return _weights([s], [np.asarray(xs, dtype=np.float64)], p)[0]


def leader_order(tickets) -> list[bytes]:
    """Proposer order of (pk, ticket) pairs: ascending ticket value, ties
    broken by ascending pk. The head proposes; later entries are fallbacks if
    earlier ones go dark."""
    entries = [(t if isinstance(t, int) else int.from_bytes(t, "big"), pk) for pk, t in tickets]
    if not entries:
        raise ValueError("no leader tickets to order")
    entries.sort()
    return [pk for _, pk in entries]


def elect_proposer(registry: KeyRegistry, pks: list[bytes], seed: bytes, offline) -> bytes | None:
    """The proposer of the committee with keys ``pks`` at ``seed``: the first
    entry of the ``leader_order`` of its members' ``leader_ticket`` hashes
    that is not ``offline``, or None if every member is offline."""
    if not pks:
        return None
    order = leader_order([(pk, leader_ticket(secret_key(registry, pk), seed).hash) for pk in pks])
    return next((pk for pk in order if pk not in offline), None)


def prs_step(current_ratio: float, candidate_ratio: float, rng) -> bool:
    """One node's switch decision: True (switch) with probability
    1 - r_k / r_j when the candidate is strictly less loaded."""
    if current_ratio <= candidate_ratio:
        return False
    return rng.random() < 1.0 - candidate_ratio / current_ratio


def attach(state, relayer: int) -> None:
    """Attach one node to ``relayer``."""
    state.assignment.append(relayer)
    state.loads[relayer] += 1


def initial_relayer(rng, identifier_space: list[int]) -> int:
    """One node's uniform draw over the identifier space: Pr(k) = u_k / |U|
    up to the mu quantization."""
    if not identifier_space:
        raise EmptySpace("identifier space is empty")
    return identifier_space[rng.randrange(len(identifier_space))]


def populate_random(state, n_nodes: int, rng) -> None:
    """``RelaySystemState.populate(start="random")`` one node at a time."""
    for _ in range(n_nodes):
        attach(state, initial_relayer(rng, state.identifier_space))


def apply_churn(state, rng, join_rate: float, leave_rate: float) -> tuple[int, int]:
    """``relay.apply_churn`` one node at a time: one ``rng.random()`` per node
    decides whether it leaves, then ``_poisson`` joiners each attach through
    ``initial_relayer``. Returns (joiners, leavers)."""
    leavers = 0
    if leave_rate > 0:
        kept = []
        for relayer in state.assignment:
            if rng.random() < leave_rate:
                state.loads[relayer] -= 1
                leavers += 1
            else:
                kept.append(relayer)
        state.assignment = kept
    joiners = 0
    if join_rate > 0:
        joiners = _poisson(rng, join_rate)
        for _ in range(joiners):
            attach(state, initial_relayer(rng, state.identifier_space))
    return joiners, leavers


def request_cost(height: float, deadline: float, capacity: float, weight: float) -> float:
    """Overflow cost of one queued request: the part of its bytes that cannot
    ship by the deadline, clamped to the request size."""
    return min(max(height - deadline * capacity, 0.0), weight)


def accounting(state: DrsState) -> tuple[float, float, int]:
    """(bytes nodes can serve, relayer-bound bytes, total requested), each
    summed on its own from the queues and the request columns. The first two
    always sum to the third."""
    weight, deadline = state.requests.weight, state.deadline
    loads = [sum([weight[rid] for rid in queue]) for queue in state.queue]
    served = sum([min(load, deadline * c) for c, load in zip(state.capacity, loads)])
    return served, drs_potential(state), sum(weight)


def omega(state: DrsState) -> float:
    """Contraction quantity: underloaded provider count times the potential;
    zero exactly at (approximate) equilibrium. A trace row's ``omega`` is this
    quantity of the post-round scan."""
    scan = scan_round(state)
    return underloaded_count(scan) * scan.phi
