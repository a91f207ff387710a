"""Relay selection as a load-balancing congestion game.

Nodes attach to relayers and greedily re-select them: draw a candidate with
probability proportional to advertised capacity (via the identifier space),
then switch away from a busier relayer with probability 1 - r_k / r_j. All
nodes move simultaneously against the round-start snapshot. The potential
sum((r_i - r_mean)^2) contracts roughly to sqrt(m * potential) per round,
which is what the Monte Carlo validators check.
"""

from __future__ import annotations

import copy
import math
import random
from dataclasses import dataclass

from .errors import EmptySpace, InvariantViolation
from .seeding import split

DEFAULT_MU = 1.0
PHI_STEADY_FACTOR = 4  # steady state detection: phi <= 4 * m
MAX_IDENTIFIERS = 1 << 24  # identifier-space entries: 128 MiB of list slots


def identifier_counts(capacities: list[float], mu: float) -> list[int]:
    """How often each relayer appears in the identifier space: floor(u_k / mu).

    Raises ValueError when a relayer would not appear at all, or when the
    space would hold more than ``MAX_IDENTIFIERS`` entries (a tiny mu).
    """
    counts = [u // mu for u in capacities]
    for u, count in zip(capacities, counts):
        if count < 1:
            raise ValueError(f"capacity {u} below one identifier unit mu={mu}")
    total = sum(counts)
    if not total <= MAX_IDENTIFIERS:
        raise ValueError(f"mu={mu} gives {total:.3g} identifiers, above {MAX_IDENTIFIERS}")
    return [int(count) for count in counts]


class RelaySystemState:
    """Relayer capacities, node assignments, and the capacity-proportional
    identifier space (relayer k appears floor(u_k / mu) times)."""

    def __init__(
        self,
        capacities: list[float],
        mu: float = DEFAULT_MU,
        mean_msg_size: float = 1.0,
    ):
        if not capacities:
            raise ValueError("need at least one relayer")
        if any(u < 2 for u in capacities):
            raise ValueError("relayer capacities must be >= 2")
        self.capacities = list(capacities)
        self.mean_msg_size = mean_msg_size
        self.identifier_space: list[int] = []
        for k, count in enumerate(identifier_counts(self.capacities, mu)):
            self.identifier_space.extend([k] * count)
        self.assignment: list[int] = []
        self.loads = [0] * len(capacities)

    @property
    def m(self) -> int:
        return len(self.capacities)

    @property
    def n_nodes(self) -> int:
        return len(self.assignment)

    @property
    def total_capacity(self) -> float:
        return sum(self.capacities)

    @property
    def optimal_ratio(self) -> float:
        return self.n_nodes / self.total_capacity

    def ratios(self) -> list[float]:
        return [l / u for l, u in zip(self.loads, self.capacities)]

    def populate(self, n_nodes: int, rng: random.Random, start: str = "random") -> None:
        """Attach n nodes: 'random' uses the capacity-proportional draw,
        'worst' stacks everyone on relayer 0."""
        if start == "worst":
            # grown by append, as join grows it: building the list in one
            # block left a 65,536-node run's peak RSS about 0.4 MB higher
            if n_nodes > 0:
                append = self.assignment.append
                for _ in range(n_nodes):
                    append(0)
                self.loads[0] += n_nodes
            return
        self.join(n_nodes, rng)

    def join(self, n_nodes: int, rng: random.Random) -> None:
        """Attach n nodes, each to a relayer drawn uniformly from the identifier
        space: Pr(k) = u_k / |U| up to the mu quantization.

        Each draw is ``space[rng.randrange(len(space))]`` inlined, as
        ``synchronous_round`` draws its candidates, so the random stream is
        that of one ``randrange`` per node.
        """
        space = self.identifier_space
        size = len(space)
        if not size:
            raise EmptySpace("identifier space is empty")
        bits = size.bit_length()
        getrandbits = rng.getrandbits
        append = self.assignment.append
        loads = self.loads
        for _ in range(n_nodes):
            r = getrandbits(bits)
            while r >= size:
                r = getrandbits(bits)
            k = space[r]
            append(k)
            loads[k] += 1


def potential(state: RelaySystemState) -> float:
    r_bar = state.optimal_ratio
    return sum((r - r_bar) ** 2 for r in state.ratios())


def expected_delay(state: RelaySystemState) -> float:
    """Mean propagation delay (w_mean / |V|) * sum(l_i^2 / u_i); minimized
    exactly when loads are proportional to capacities."""
    n = state.n_nodes
    if n <= 0:
        raise ValueError("no nodes attached")
    return state.mean_msg_size / n * sum(
        l * l / u for l, u in zip(state.loads, state.capacities)
    )


def synchronous_round(state: RelaySystemState, rng: random.Random) -> int:
    """Every node performs one selection step against the round-start
    snapshot; returns the number of switches applied.

    Per node this is a candidate ``space[rng.randrange(len(space))]`` and,
    when the candidate's ratio r_k is strictly below the current r_j, a
    switch with probability 1 - r_k / r_j, all inlined so that a round makes
    no Python call per node. The candidate draw repeats
    ``random.Random._randbelow_with_getrandbits`` (what ``randrange`` runs),
    rejections included, and ``rng.random()`` is drawn only for a strictly
    better candidate, so the random stream and every result are those of
    one ``randrange`` and one switch decision per node.

    A candidate's ratio is read from a per-identifier copy of the round-start
    ratios, and a candidate equal to the current relayer fails ``r_j > r_k``.
    A mover's index is read from the assignment iterator's remaining length,
    so the loop keeps no per-node count.
    """
    space = state.identifier_space
    size = len(space)
    if not size:
        raise EmptySpace("identifier space is empty")
    ratios = state.ratios()
    candidate_ratio = list(map(ratios.__getitem__, space))
    bits = size.bit_length()
    getrandbits = rng.getrandbits
    draw = rng.random
    assignment = state.assignment
    last = len(assignment) - 1
    nodes = iter(assignment)
    remaining = nodes.__length_hint__
    movers: list[int] = []
    targets: list[int] = []
    add_mover = movers.append
    add_target = targets.append
    for j in nodes:
        r = getrandbits(bits)
        while r >= size:
            r = getrandbits(bits)
        rk = candidate_ratio[r]
        rj = ratios[j]
        if rj > rk and draw() < 1.0 - rk / rj:
            add_mover(last - remaining())
            add_target(space[r])
    loads = state.loads
    for node, k in zip(movers, targets):
        j = assignment[node]
        if ratios[k] >= ratios[j]:
            raise InvariantViolation(
                "relay-net", "switch-guard", f"switch to ratio {ratios[k]} from {ratios[j]}"
            )
        assignment[node] = k
        loads[j] -= 1
        loads[k] += 1
    return len(movers)


def apply_churn(
    state: RelaySystemState, rng: random.Random, join_rate: float, leave_rate: float
) -> tuple[int, int]:
    """Remove each node with probability leave_rate, then add joiners drawn
    Poisson(join_rate); joiners attach via the capacity-proportional draw."""
    leavers = 0
    if leave_rate > 0:
        draw = rng.random
        loads = state.loads

        def leave(relayer: int) -> bool:
            loads[relayer] -= 1
            return False

        # a draw below leave_rate drops the node and frees its slot
        kept = [r for r in state.assignment if draw() >= leave_rate or leave(r)]
        leavers = len(state.assignment) - len(kept)
        state.assignment = kept
    joiners = 0
    if join_rate > 0:
        joiners = _poisson(rng, join_rate)
        state.join(joiners, rng)
    return joiners, leavers


# the largest Poisson rate drawn in one part; math.exp(-lam) underflows to 0
# past about 745, where Knuth's method would stop counting
POISSON_PART = 700.0


def _poisson(rng: random.Random, lam: float) -> int:
    """A Poisson(lam) draw by Knuth's method. A rate above ``POISSON_PART`` is
    drawn as a sum of equal parts of at most ``POISSON_PART`` each, which is
    exact in distribution: a sum of independent Poisson draws is Poisson of
    the summed rates. A rate up to ``POISSON_PART`` is one part."""
    parts = max(1, math.ceil(lam / POISSON_PART))  # raises on an infinite or NaN rate
    threshold = math.exp(-lam / parts)
    count = 0
    for _ in range(parts):
        prod = rng.random()
        while prod > threshold:
            count += 1
            prod *= rng.random()
    return count


@dataclass
class PrsTraceRow:
    round: int
    phi: float
    expected_delay: float
    max_ratio: float
    switches: int


@dataclass
class PrsRun:
    rows: list[PrsTraceRow]
    state: RelaySystemState

    @property
    def converged_round(self) -> int | None:
        threshold = PHI_STEADY_FACTOR * self.state.m
        for row in self.rows:
            if row.phi <= threshold:
                return row.round
        return None


def simulate_prs(
    n_nodes: int,
    capacities: list[float],
    rounds: int,
    seed: int,
    *,
    start: str = "worst",
    mu: float = DEFAULT_MU,
    mean_msg_size: float = 1.0,
    join_rate: float = 0.0,
    leave_rate: float = 0.0,
    stop_at_steady: bool = True,
) -> PrsRun:
    """Run synchronous selection rounds from a seeded start; the trace records
    (round, phi, expected delay, max ratio, switches) with round 0 being the
    initial state. Without churn it stops early once phi <= 4m unless told
    otherwise; with churn it runs every round, since churn keeps moving the
    system after it first reaches steady state."""
    churn = bool(join_rate or leave_rate)
    stop_at_steady = stop_at_steady and not churn
    rng = split(seed, "prs")
    state = RelaySystemState(capacities, mu=mu, mean_msg_size=mean_msg_size)
    state.populate(n_nodes, rng, start=start)
    rows = [PrsTraceRow(0, potential(state), expected_delay(state), max(state.ratios()), 0)]
    threshold = PHI_STEADY_FACTOR * state.m
    for rnd in range(1, rounds + 1):
        if stop_at_steady and rows[-1].phi <= threshold:
            break
        if churn:
            apply_churn(state, rng, join_rate, leave_rate)
        switches = synchronous_round(state, rng)
        _assert_load_conservation(state)
        rows.append(
            PrsTraceRow(rnd, potential(state), expected_delay(state), max(state.ratios()), switches)
        )
    return PrsRun(rows=rows, state=state)


def _assert_load_conservation(state: RelaySystemState) -> None:
    if sum(state.loads) != state.n_nodes:
        raise InvariantViolation(
            "relay-net", "load-conservation", f"{sum(state.loads)} != {state.n_nodes}"
        )


# ---------------------------------------------------------------------------
# Monte Carlo validators for the one-round transition moments


@dataclass
class ExpectationReport:
    r_bar: float
    means: list[float]
    std_errors: list[float]

    @property
    def max_abs_z(self) -> float:
        return max(
            abs(m - self.r_bar) / se if se > 0 else (0.0 if m == self.r_bar else math.inf)
            for m, se in zip(self.means, self.std_errors)
        )


def validate_lemma_expectation(state: RelaySystemState, trials: int, seed: int = 0) -> ExpectationReport:
    """Estimate E[r_i(t+1)] per relayer from one-round transitions out of the
    fixed current state; the limit claim is that every mean equals the
    proportional ratio |V| / |U|."""
    sums = [0.0] * state.m
    sq_sums = [0.0] * state.m
    for trial in range(trials):
        rng = split(seed, "lemma-exp", trial)
        work = _clone(state)
        synchronous_round(work, rng)
        for i, r in enumerate(work.ratios()):
            sums[i] += r
            sq_sums[i] += r * r
    means = [s / trials for s in sums]
    ses = []
    for i in range(state.m):
        var = max(0.0, sq_sums[i] / trials - means[i] ** 2)
        ses.append(math.sqrt(var / trials))
    return ExpectationReport(r_bar=state.optimal_ratio, means=means, std_errors=ses)


@dataclass
class VarianceReport:
    variance_sum: float
    bound: float
    std_error: float

    @property
    def within_margin(self) -> bool:
        return self.variance_sum <= self.bound + 3.0 * self.std_error


def validate_lemma_variance(state: RelaySystemState, trials: int, seed: int = 0) -> VarianceReport:
    """Estimate sum_i Var[r_i(t+1)] out of the fixed current state and compare
    against the sqrt(m * phi(t)) bound used by the convergence argument."""
    samples = [[0.0] * trials for _ in range(state.m)]
    for trial in range(trials):
        rng = split(seed, "lemma-var", trial)
        work = _clone(state)
        synchronous_round(work, rng)
        for i, r in enumerate(work.ratios()):
            samples[i][trial] = r
    total_var = 0.0
    se_sq = 0.0
    for i in range(state.m):
        xs = samples[i]
        mean = sum(xs) / trials
        devs = [(x - mean) ** 2 for x in xs]
        var = sum(devs) / (trials - 1)
        total_var += var
        mu4 = sum(d * d for d in devs) / trials
        se_sq += max(0.0, mu4 - var * var * (trials - 3) / (trials - 1)) / trials
    bound = math.sqrt(state.m * potential(state))
    return VarianceReport(variance_sum=total_var, bound=bound, std_error=math.sqrt(se_sq))


def _clone(state: RelaySystemState) -> RelaySystemState:
    """A copy whose assignment and loads can move independently; capacities
    and the identifier space, which a round never changes, are shared."""
    clone = copy.copy(state)
    clone.assignment = list(state.assignment)
    clone.loads = list(state.loads)
    return clone


# ---------------------------------------------------------------------------
# structural properties


def broadcast_hops(state: RelaySystemState, origin: int) -> list[int]:
    """Hop count for delivering one message from origin to every node: one hop
    to the origin's relayer, relayer-to-relayer fan-out, then final delivery.
    Never exceeds three hops."""
    origin_relayer = state.assignment[origin]
    hops = []
    for node, relayer in enumerate(state.assignment):
        if node == origin:
            hops.append(0)
        elif relayer == origin_relayer:
            hops.append(2)
        else:
            hops.append(3)
    return hops


def is_eps_nash(state: RelaySystemState, eps: float) -> bool:
    """Exhaustive single-deviation scan: False when any attached node could cut
    its relayer's load ratio by a factor greater than 1 - eps by moving."""
    ratios = state.ratios()
    for j in range(state.m):
        if state.loads[j] == 0:
            continue
        for k in range(state.m):
            if k == j:
                continue
            moved_ratio = (state.loads[k] + 1) / state.capacities[k]
            if moved_ratio < (1.0 - eps) * ratios[j]:
                return False
    return True
