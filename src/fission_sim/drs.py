"""Distributed data retrieval as a singleton congestion game.

Each request queues FIFO at one provider of its key. A provider serves
deadline * capacity bytes in time; whatever overflows ships through the relay
network instead. A requester may hunt for a new provider only while its
request is completely unservable (cost equals its full weight, the bounded
jump rule), probing one underloaded provider per round, all against the
round-start snapshot. That rule makes the total overflow non-increasing and
drives the game to an approximate equilibrium in a logarithmic number of
rounds.

Each round's state is read in one scan (``scan_round``): a single walk of every
provider queue finds the hunting requests, and each distinct (key, remaining
time) pair gets its probe set once; the round and the trace row that follows
it share that scan.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .dists import dist_sampler
from .errors import InvariantViolation
from .seeding import split


@dataclass
class DataItem:
    key: int
    size: float  # KB
    providers: list[int]


@dataclass(slots=True)
class RetrievalRequest:
    rid: int
    requester: int
    key: int
    weight: float
    born: float
    provider: int | None = None  # None while unplaced
    at_relayer: bool = False


@dataclass(slots=True)
class ProviderNode:
    id: int
    capacity: float  # KB/s upload
    queue: list[int] = field(default_factory=list)  # request ids, FIFO
    load: float = 0.0  # total queued KB


class DrsState:
    """Providers, data items, the request pool, and the shared deadline."""

    def __init__(self, providers: list[ProviderNode], items: list[DataItem], deadline: float):
        self.providers = providers
        self.items = items
        self.deadline = deadline
        self.requests: list[RetrievalRequest] = []
        self.relayer_direct: float = 0.0  # KB of requests handed fully to the relay network

    def dequeue(self, req: RetrievalRequest) -> None:
        node = self.providers[req.provider]
        node.queue.remove(req.rid)
        node.load -= req.weight
        req.provider = None

    def heights(self) -> dict[int, float]:
        """FIFO height of every queued request: prefix sum of queue weights up
        to and including it."""
        hs: dict[int, float] = {}
        for node in self.providers:
            acc = 0.0
            for rid in node.queue:
                acc += self.requests[rid].weight
                hs[rid] = acc
        return hs

    def underloaded_providers(self, key: int, d_remaining: float) -> list[int]:
        return [
            i
            for i in self.items[key].providers
            if self.providers[i].load < d_remaining * self.providers[i].capacity
        ]

    def total_weight(self) -> float:
        return sum([r.weight for r in self.requests])

    def unplaced(self) -> list[RetrievalRequest]:
        """Requests with no provider that have not gone to the relay network."""
        return [r for r in self.requests if r.provider is None and not r.at_relayer]


def drs_potential(providers: list[ProviderNode], deadline: float) -> float:
    """Total relayer-bound overflow: sum over providers of
    max(load - deadline * capacity, 0)."""
    # zero terms add nothing to a float sum, so only the overflowing ones are summed
    return sum([x for p in providers if (x := p.load - deadline * p.capacity) > 0.0], 0.0)


@dataclass
class DrsRoundReport:
    migrations: int = 0
    to_relayer: int = 0
    probes: int = 0


@dataclass
class RoundScan:
    """One read of the state at time t. ``probe_sets`` maps each (key,
    remaining time) of a hunting request (one the bounded jump rule lets
    probe) to the underloaded providers of that key; ``acting`` holds the
    ids, in request order, of the hunting requests that probe or expire at t
    (the others have nothing to probe); ``unplaced`` lists the requests with
    no provider."""

    t: float
    probe_sets: dict[tuple[int, float], list[int]]
    acting: list[int]
    unplaced: list[RetrievalRequest]


def scan_round(state: DrsState, t: float) -> RoundScan:
    """Walk every provider queue once, keeping the requests not at the relay
    network whose overflow cost equals their weight (FIFO height minus
    remaining time times capacity at least the weight, or a weight of zero),
    add the unplaced ones, and build one probe set per distinct (key,
    remaining time)."""
    requests = state.requests
    deadline = state.deadline
    rem = deadline - t
    hunting: list[int] = []
    append = hunting.append
    queued = 0
    for node in state.providers:
        queue = node.queue
        if not queue:
            continue
        queued += len(queue)
        capacity = node.capacity
        height = 0.0
        for rid in queue:
            req = requests[rid]
            weight = req.weight
            height += weight
            unservable = height - (rem + req.born) * capacity >= weight or weight <= 0.0
            if unservable and not req.at_relayer:
                append(rid)
    # when every request sits in a queue none is unplaced or at the relayer
    unplaced = state.unplaced() if queued < len(requests) else []
    hunting += [r.rid for r in unplaced]
    probe_sets: dict[tuple[int, float], list[int]] = {}
    acting = []
    for rid in hunting:
        req = requests[rid]
        pair = (req.key, rem + req.born)
        probes = probe_sets.get(pair)
        if probes is None:
            probes = probe_sets[pair] = state.underloaded_providers(*pair)
        if probes or t > req.born + deadline:
            acting.append(rid)
    acting.sort()
    return RoundScan(t, probe_sets, acting, unplaced)


def drs_round(
    state: DrsState,
    rng: random.Random,
    t: float,
    timeout_prob: float = 0.0,
    scan: RoundScan | None = None,
) -> DrsRoundReport:
    """One synchronous probing round against the round-start snapshot.

    Every eligible request contacts one uniformly random underloaded provider
    of its key (if any) and migrates unless the probe times out: a probe set
    holds only providers whose snapshot load is under the remaining time
    budget, so the contacted one always fits. Requests past their deadline
    that are still unservable go to the relay network in full. ``scan`` must
    be ``scan_round(state, t)`` of the current state; it is computed when absent.

    The candidate draw repeats ``random.Random._randbelow_with_getrandbits``
    (what ``randrange`` runs), rejections included, so the random stream is
    that of ``candidates[rng.randrange(len(candidates))]``.
    """
    if scan is None:
        scan = scan_round(state, t)
    requests = state.requests
    providers = state.providers
    deadline = state.deadline
    rem = deadline - t
    probe_sets = scan.probe_sets
    getrandbits = rng.getrandbits
    migrations = to_relayer = probes = 0
    for rid in scan.acting:
        req = requests[rid]
        if t > req.born + deadline:
            if req.provider is not None:
                state.dequeue(req)
            req.at_relayer = True
            state.relayer_direct += req.weight
            to_relayer += 1
            continue
        candidates = probe_sets[(req.key, rem + req.born)]
        n = len(candidates)
        bits = n.bit_length()
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        probes += 1
        if timeout_prob > 0 and rng.random() < timeout_prob:
            continue  # probe timed out, retry next round
        weight = req.weight
        if req.provider is not None:
            old = providers[req.provider]
            old.queue.remove(rid)
            old.load -= weight
        target = candidates[r]
        new = providers[target]
        new.queue.append(rid)
        new.load += weight
        req.provider = target
        migrations += 1
    return DrsRoundReport(migrations=migrations, to_relayer=to_relayer, probes=probes)


def underloaded_count(state: DrsState, t: float, scan: RoundScan | None = None) -> int:
    """Number of distinct underloaded providers across the keys of requests
    still hunting (the m_t in the contraction argument). ``scan`` must be
    ``scan_round(state, t)`` of the current state; it is computed when absent."""
    if scan is None:
        scan = scan_round(state, t)
    return len(set().union(*scan.probe_sets.values()))


def omega(state: DrsState, t: float) -> float:
    """Contraction quantity: underloaded provider count times the potential;
    zero exactly at (approximate) equilibrium."""
    return underloaded_count(state, t) * drs_potential(state.providers, state.deadline)


def accounting(state: DrsState) -> tuple[float, float, float]:
    """(bytes nodes can serve, relayer-bound bytes, total requested). The first
    two always sum to the third."""
    deadline = state.deadline
    # min(load, budget) per provider, spelled out to save a call each
    served = sum(
        [b if (b := deadline * p.capacity) < (load := p.load) else load for p in state.providers]
    )
    unplaced = sum([r.weight for r in state.unplaced()])
    relayer = drs_potential(state.providers, deadline) + state.relayer_direct + unplaced
    return served, relayer, state.total_weight()


@dataclass
class DrsTraceRow:
    round: int
    phi: float
    omega: float
    underloaded_m: int
    migrations: int
    relayer_kb: float


@dataclass
class DrsRun:
    rows: list[DrsTraceRow]
    state: DrsState
    rounds_budget: int

    @property
    def converged_round(self) -> int | None:
        threshold = equilibrium_threshold(self.state)
        for row in self.rows:
            if row.omega <= threshold:
                return row.round
        return None

    @property
    def relayer_bytes(self) -> float:
        return self.rows[-1].relayer_kb


def equilibrium_threshold(state: DrsState) -> float:
    """Omega = O(1) detection at desk scale: max(1, mean request weight)."""
    if not state.requests:
        return 1.0
    return max(1.0, state.total_weight() / len(state.requests))


def build_instance(
    n_nodes: int,
    n_keys: int,
    size_dist: str,
    cap_dist: str,
    replication: int,
    deadline: float,
    seed: int,
    *,
    requests_per_node: int = 1,
    start: str = "uniform",
) -> DrsState:
    """Random instance: capacities and sizes from dist specs, each key
    replicated onto `replication` distinct nodes, one request per node for a
    uniform key. start='concentrated' stacks every request on its key's first
    provider (the adversarial worst case)."""
    rng = split(seed, "drs-setup")
    capacities = dist_sampler(cap_dist, integer=True, minimum=1)(rng, n_nodes)
    providers = [ProviderNode(i, capacity) for i, capacity in enumerate(capacities)]
    draw_sizes = dist_sampler(size_dist, integer=True, minimum=1)
    items = []
    for k in range(n_keys):
        holders = rng.sample(range(n_nodes), min(replication, n_nodes))
        items.append(DataItem(key=k, size=draw_sizes(rng, 1)[0], providers=holders))
    state = DrsState(providers, items, deadline)
    if n_nodes > 0 and requests_per_node > 0 and n_keys < 1:
        # randrange(n_keys) raised here; the inlined draw below would never end
        raise ValueError(f"no key to request: n_keys={n_keys}")
    # keys come from rng.randrange(n_keys) inlined (see drs_round); placement
    # draws come from their own stream, so each request is placed as it is made
    place_rng = split(seed, "drs-place")
    getrandbits = rng.getrandbits
    bits = n_keys.bit_length()
    concentrated = start == "concentrated"
    requests = state.requests
    for node in range(n_nodes):
        for _ in range(requests_per_node):
            key = getrandbits(bits)
            while key >= n_keys:
                key = getrandbits(bits)
            item = items[key]
            rid, weight, holders = len(requests), item.size, item.providers
            if not holders:
                requests.append(RetrievalRequest(rid, node, key, weight, 0.0, None, True))
                state.relayer_direct += weight
                continue
            if concentrated:
                target = holders[0]
            else:
                # contact an underloaded provider when one exists, else queue
                # anywhere and let the bounded jump rule hunt from round 1 on
                pool = state.underloaded_providers(key, deadline) or holders
                target = pool[place_rng.randrange(len(pool))]
            requests.append(RetrievalRequest(rid, node, key, weight, 0.0, target))
            provider = providers[target]
            provider.queue.append(rid)
            provider.load += weight
    return state


def simulate_drs(
    n_nodes: int,
    n_keys: int,
    size_dist: str,
    cap_dist: str,
    replication: int,
    deadline: float,
    seed: int,
    *,
    rounds: int | None = None,
    round_duration: float = 0.0,
    start: str = "uniform",
    timeout_prob: float = 0.0,
) -> DrsRun:
    """Run probing rounds to (approximate) equilibrium or budget exhaustion.

    With the default zero round duration the remaining time budget stays at
    the full deadline, matching the synchronous convergence analysis; the
    overflow potential is then asserted non-increasing every round. The trace
    starts at round 0 (initial placement) and relayer_kb counts overflow plus
    requests handed to the relay network outright.
    """
    state = build_instance(
        n_nodes, n_keys, size_dist, cap_dist, replication, deadline, seed, start=start
    )
    if rounds is None:
        rounds = max(8, math.ceil(40.0 * math.log(max(2, n_keys * max(1, n_nodes)))))
    rng = split(seed, "drs-rounds")
    threshold = equilibrium_threshold(state)
    total = state.total_weight()
    scan = scan_round(state, 0.0)
    rows = [_trace_row(state, 0, scan)]
    _check_identity(state, total)
    t = 0.0
    for rnd in range(1, rounds + 1):
        if rows[-1].omega <= threshold:
            break
        if scan.t != t:
            scan = scan_round(state, t)
        report = drs_round(state, rng, t, timeout_prob=timeout_prob, scan=scan)
        # the post-round scan serves this row and, at an unchanged t, the next round
        scan = scan_round(state, t)
        row = _trace_row(state, rnd, scan, report.migrations)
        if round_duration == 0.0 and row.phi > rows[-1].phi + 1e-9:
            raise InvariantViolation(
                "p2p-drs", "monotone-potential", f"{rows[-1].phi} -> {row.phi} at round {rnd}"
            )
        _check_identity(state, total)
        _check_loads(state)
        rows.append(row)
        t += round_duration
    return DrsRun(rows=rows, state=state, rounds_budget=rounds)


def _trace_row(state: DrsState, rnd: int, scan: RoundScan, migrations: int = 0) -> DrsTraceRow:
    phi = drs_potential(state.providers, state.deadline)
    m_t = underloaded_count(state, scan.t, scan)
    return DrsTraceRow(
        round=rnd,
        phi=phi,
        omega=m_t * phi,
        underloaded_m=m_t,
        migrations=migrations,
        relayer_kb=phi + state.relayer_direct + sum([r.weight for r in scan.unplaced]),
    )


def _check_identity(state: DrsState, total: float) -> None:
    served, relayer, _ = accounting(state)
    if abs(served + relayer - total) > 1e-6:
        raise InvariantViolation(
            "p2p-drs", "primal-dual-identity", f"{served} + {relayer} != {total}"
        )


def _check_loads(state: DrsState) -> None:
    requests = state.requests
    for p in state.providers:
        acc = 0.0
        for rid in p.queue:
            acc += requests[rid].weight
        if abs(acc - p.load) > 1e-6:
            raise InvariantViolation("p2p-drs", "load-sum", f"provider {p.id}")
