"""Distributed data retrieval as a singleton congestion game.

Each request queues FIFO at one provider of its key. A provider serves
deadline * capacity bytes in time; whatever overflows ships through the relay
network instead. A requester may hunt for a new provider only while its
request is completely unservable (cost equals its full weight, the bounded
jump rule), probing one underloaded provider per round, all against the
round-start snapshot. That rule makes the total overflow non-increasing and
drives the game to an approximate equilibrium in a logarithmic number of
rounds.

Providers, data items and requests are held as columns, and the provider
queues and request columns are the game's only state: a provider's load is
the sum of its queue's weights. Each round's state is read in one scan
(``scan_round``): a single walk of every provider queue finds the hunting
requests and sums the loads, the overflow and the queued bytes, and each
hunting key gets its probe set once; the round and the trace row that follows
it share that scan. The game has no clock: as in the synchronous analysis,
every round is played against the full deadline.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .dists import dist_sampler
from .errors import InvariantViolation, ParseError, ValidationError
from .seeding import split

# sizes, capacities and byte totals stay below 2^53, so every load converts
# exactly to the float its budget is subtracted from
EXACT_BYTES = 1 << 53


@dataclass(slots=True)
class Requests:
    """The request pool as parallel columns indexed by request id: the key
    asked for, its weight (KB) and the provider whose queue holds it."""

    key: list[int] = field(default_factory=list)
    weight: list[int] = field(default_factory=list)
    provider: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.key)


class DrsState:
    """Providers and data items as columns, the request pool, and the shared
    deadline. Provider i uploads ``capacity[i]`` KB/s and queues the request
    ids ``queue[i]`` FIFO; its load is their weight in all. Key k is
    ``size[k]`` KB and held by the providers ``holders[k]``."""

    def __init__(
        self, capacity: list[float], size: list[int], holders: list[list[int]], deadline: float
    ):
        self.capacity = capacity
        self.queue: list[list[int]] = [[] for _ in capacity]
        self.size = size
        self.holders = holders
        self.deadline = deadline
        self.requests = Requests()

    def heights(self) -> dict[int, int]:
        """FIFO height of every queued request: prefix sum of queue weights up
        to and including it."""
        weight = self.requests.weight
        hs: dict[int, int] = {}
        for queue in self.queue:
            acc = 0
            for rid in queue:
                acc += weight[rid]
                hs[rid] = acc
        return hs


def drs_potential(state: DrsState) -> float:
    """Total relayer-bound overflow: sum over providers of
    max(load - deadline * capacity, 0), each load summed from its queue."""
    weight, deadline = state.requests.weight, state.deadline
    loads = [sum([weight[rid] for rid in queue]) for queue in state.queue]
    # zero terms add nothing to a float sum, so only the overflowing ones are summed
    return sum(
        [x for load, c in zip(loads, state.capacity) if (x := load - deadline * c) > 0.0], 0.0
    )


@dataclass
class DrsRoundReport:
    migrations: int = 0
    probes: int = 0


@dataclass(slots=True)
class RoundScan:
    """One read of the state. ``probe_sets`` maps the key of each hunting
    request (one the bounded jump rule lets probe) to the underloaded
    providers of that key; ``acting`` holds the ids, in request order, of the
    hunting requests with a provider to probe. ``phi`` is the overflow
    potential and ``queued_kb`` the bytes in provider queues."""

    probe_sets: dict[int, list[int]]
    acting: list[int]
    phi: float
    queued_kb: int


def scan_round(state: DrsState) -> RoundScan:
    """Walk every provider queue once: keep the requests whose overflow cost
    equals their weight (FIFO height minus the budget deadline * capacity at
    least the weight, or a weight of zero), and take each provider's load
    from its queue's height. Then build one probe set per hunting key.

    An empty queue adds nothing to any sum (capacities and the deadline are
    not negative), so the walk skips it."""
    weights = state.requests.weight
    capacities = state.capacity
    deadline = state.deadline
    loads = [0] * len(capacities)
    hunting: list[int] = []
    append = hunting.append
    overflow: list[float] = []
    queued_kb = 0
    for i, queue in enumerate(state.queue):
        if not queue:
            continue
        budget = deadline * capacities[i]
        height = 0
        for rid in queue:
            weight = weights[rid]
            height += weight
            if height - budget >= weight or weight <= 0:
                append(rid)
        loads[i] = height
        queued_kb += height
        if (x := height - budget) > 0.0:
            overflow.append(x)
    keys, holders = state.requests.key, state.holders
    probe_sets: dict[int, list[int]] = {}
    acting = []
    for rid in hunting:
        key = keys[rid]
        probes = probe_sets.get(key)
        if probes is None:
            probes = probe_sets[key] = [
                i for i in holders[key] if loads[i] < deadline * capacities[i]
            ]
        if probes:
            acting.append(rid)
    # the round draws in request-id order, which fixes its random stream
    acting.sort()
    return RoundScan(probe_sets, acting, sum(overflow, 0.0), queued_kb)


def drs_round(state: DrsState, rng: random.Random, scan: RoundScan) -> DrsRoundReport:
    """One synchronous probing round against the round-start snapshot
    ``scan``, which must be ``scan_round`` of the current state.

    Every acting request contacts one uniformly random underloaded provider
    of its key and migrates: a probe set holds only providers whose snapshot
    load is under the budget, so the contacted one always fits.

    The candidate draw repeats ``random.Random._randbelow_with_getrandbits``
    (what ``randrange`` runs), rejections included, so the random stream is
    that of ``candidates[rng.randrange(len(candidates))]``.
    """
    keys, provider = state.requests.key, state.requests.provider
    queues = state.queue
    probe_sets = scan.probe_sets
    getrandbits = rng.getrandbits
    for rid in scan.acting:
        candidates = probe_sets[keys[rid]]
        n = len(candidates)
        bits = n.bit_length()
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        queues[provider[rid]].remove(rid)
        target = candidates[r]
        queues[target].append(rid)
        provider[rid] = target
    moved = len(scan.acting)
    return DrsRoundReport(migrations=moved, probes=moved)


def underloaded_count(scan: RoundScan) -> int:
    """Number of distinct underloaded providers across the keys of requests
    still hunting (the m_t in the contraction argument)."""
    return len(set().union(*scan.probe_sets.values()))


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
    threshold: float  # omega at or below it counts as converged

    @property
    def converged_round(self) -> int | None:
        for row in self.rows:
            if row.omega <= self.threshold:
                return row.round
        return None

    @property
    def relayer_bytes(self) -> float:
        return self.rows[-1].relayer_kb


def equilibrium_threshold(total: float, n_requests: int) -> float:
    """Omega = O(1) detection at desk scale: max(1, mean request weight)."""
    if not n_requests:
        return 1.0
    return max(1.0, total / n_requests)


def build_instance(
    n_nodes: int,
    n_keys: int,
    size_dist: str,
    cap_dist: str,
    replication: int,
    deadline: float,
    seed: int,
    *,
    start: str,
) -> DrsState:
    """Random instance: capacities and sizes from dist specs, each key
    replicated onto `replication` distinct nodes, one request per node for a
    uniform key. start='uniform' places each request on a random underloaded
    holder of its key when one exists; start='concentrated' stacks every
    request on its key's first holder (the adversarial worst case)."""
    # every request then has a holder to queue at and a positive budget there
    if n_keys < 1 or replication < 1 or not deadline > 0:
        raise ValueError(
            f"need n_keys >= 1, replication >= 1 and deadline > 0, "
            f"got {n_keys}, {replication}, {deadline}"
        )
    rng = split(seed, "drs-setup")
    try:
        capacity = dist_sampler(cap_dist, integer=True, minimum=1)(rng, n_nodes)
    except ParseError as e:  # a draw past the float range
        raise ValidationError("drs.cap_dist", str(e)) from None
    size, holders = [], []
    try:
        draw_sizes = dist_sampler(size_dist, integer=True, minimum=1)
        for _ in range(n_keys):
            holders.append(rng.sample(range(n_nodes), min(replication, n_nodes)))
            size.append(draw_sizes(rng, 1)[0])
    except ParseError as e:
        raise ValidationError("drs.size_dist", str(e)) from None
    for key, draws in (("drs.cap_dist", capacity), ("drs.size_dist", size)):
        if draws and max(draws) >= EXACT_BYTES:
            raise ValidationError(key, f"every draw must be below 2^53, drew {max(draws):.3g}")
    state = DrsState(capacity, size, holders, deadline)
    # keys come from rng.randrange(n_keys) inlined (see drs_round), all drawn
    # first: placement draws come from their own stream
    getrandbits = rng.getrandbits
    bits = n_keys.bit_length()
    requests = state.requests
    keys = requests.key
    for _ in range(n_nodes):
        key = getrandbits(bits)
        while key >= n_keys:
            key = getrandbits(bits)
        keys.append(key)
    requests.weight += [size[key] for key in keys]
    total = sum(requests.weight)
    if total >= EXACT_BYTES:
        raise ValidationError(
            "drs.size_dist", f"the requested sizes must sum below 2^53, got {total:.3g}"
        )
    place_rng = split(seed, "drs-place")
    concentrated = start == "concentrated"
    provider = requests.provider
    queues = state.queue
    loads = [0] * n_nodes  # the queue heights so far, which the uniform start reads
    for rid, key in enumerate(keys):
        pool = holders[key]
        if concentrated:
            target = pool[0]
        else:
            # contact an underloaded provider when one exists, else queue
            # anywhere and let the bounded jump rule hunt from round 1 on
            pool = [i for i in pool if loads[i] < deadline * capacity[i]] or pool
            target = pool[place_rng.randrange(len(pool))]
        provider.append(target)
        queues[target].append(rid)
        loads[target] += size[key]
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
    start: str,
    rounds: int | None = None,
) -> DrsRun:
    """Run probing rounds to (approximate) equilibrium or budget exhaustion.

    Every round probes against the full deadline, matching the synchronous
    convergence analysis; the overflow potential is asserted non-increasing
    every round. The trace starts at round 0 (initial placement), and a row's
    relayer_kb is the overflow that ships through the relay network. Every
    scan is checked to conserve the requested bytes exactly: the queued bytes
    equal the instance's total (``primal-dual-identity``).
    """
    state = build_instance(
        n_nodes, n_keys, size_dist, cap_dist, replication, deadline, seed, start=start
    )
    if rounds is None:
        rounds = max(8, math.ceil(40.0 * math.log(max(2, n_keys * max(1, n_nodes)))))
    rng = split(seed, "drs-rounds")
    total = sum(state.requests.weight)
    threshold = equilibrium_threshold(total, len(state.requests))
    scan = scan_round(state)
    _check_identity(scan, total)
    rows = [_trace_row(0, scan)]
    for rnd in range(1, rounds + 1):
        if rows[-1].omega <= threshold:
            break
        report = drs_round(state, rng, scan)
        # the post-round scan serves this row and the next round
        scan = scan_round(state)
        _check_identity(scan, total)
        row = _trace_row(rnd, scan, report.migrations)
        if row.phi > rows[-1].phi + 1e-9:
            raise InvariantViolation(
                "p2p-drs", "monotone-potential", f"{rows[-1].phi} -> {row.phi} at round {rnd}"
            )
        rows.append(row)
    return DrsRun(rows=rows, state=state, rounds_budget=rounds, threshold=threshold)


def _trace_row(rnd: int, scan: RoundScan, migrations: int = 0) -> DrsTraceRow:
    phi = scan.phi
    m_t = underloaded_count(scan)
    return DrsTraceRow(
        round=rnd, phi=phi, omega=m_t * phi, underloaded_m=m_t, migrations=migrations, relayer_kb=phi
    )


def _check_identity(scan: RoundScan, total: int) -> None:
    if scan.queued_kb != total:
        raise InvariantViolation(
            "p2p-drs", "primal-dual-identity", f"{scan.queued_kb} queued != {total} requested"
        )
