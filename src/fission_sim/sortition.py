"""Stake-weighted committee sortition and the consensus security calculator.

Each node turns its verifiable random draw into a voting weight by inverse
transform sampling against the Binomial(stake, p) CDF, where p = tau / K
spreads an expected tau selected tokens across the total supply K. The
calculator half derives the feasible (tau, theta) region and the normal-tail
failure probabilities that justify the quorum.

The binomial CDF goes through the regularized incomplete beta function, so it
stays exact-enough and overflow-free for stakes up to millions of tokens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Iterable, Mapping

import numpy as np
from scipy.special import betainc

from .crypto import KeyRegistry, VrfOutput, vrf_eval, vrf_hashes, vrf_verify
from .errors import ApproximationUnsound, DomainError, EmptyCommittee

# committee type labels fed into the VRF
def partition_committee(k: int) -> str:
    return f"partition:{k}"


BLOCK_INTERIM = "block_interim"
BLOCK_MAIN = "block_main"
LEADER = "leader"

# largest stake for which the full CDF table is cached; bigger stakes use
# bisection on the CDF directly (tables only pay off for repeated draws)
_TABLE_MAX = 10_000


# below this p the CDF is read from p itself: ``1.0 - p`` rounds p by up to
# 2^-54, which is a bias of tens of percent at p of a few 1e-16. Every golden
# config and benchmark workload has p far above it, so their draws keep the
# 1 - p form.
_SMALL_P = 1e-6


def binomial_cdf(k: int, s: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(s, p)."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must be in [0, 1], got {p}")
    if s < 0:
        raise DomainError(f"s must be >= 0, got {s}")
    if k < 0:
        return 0.0
    if k >= s:
        return 1.0
    # P(X <= k) = I_{1-p}(s - k, k + 1) = 1 - I_p(k + 1, s - k)
    if p < _SMALL_P:
        return 1.0 - float(betainc(k + 1, s - k, p))
    return float(betainc(s - k, k + 1, 1.0 - p))


@lru_cache(maxsize=256)
def _cdf_table(s: int, p: float) -> np.ndarray:
    ks = np.arange(s, dtype=np.float64)
    if p < _SMALL_P:
        table = 1.0 - betainc(ks + 1.0, s - ks, p)
    else:
        table = betainc(s - ks, ks + 1.0, 1.0 - p)
    return np.append(table, 1.0)


def voting_power(x: float, s: int, p: float) -> int:
    """Voting weight for a uniform draw x: the smallest k with F(k) >= x.

    Distributed as Binomial(s, p) when x is uniform on [0, 1); always in
    [0, s] and non-decreasing in x.
    """
    if not 0.0 <= x < 1.0:
        raise DomainError(f"uniform draw must be in [0, 1), got {x}")
    if x <= binomial_cdf(0, s, p):
        return 0
    if s <= _TABLE_MAX:
        return int(np.searchsorted(_cdf_table(s, float(p)), x, side="left"))
    lo, hi = 1, s
    while lo < hi:
        mid = (lo + hi) // 2
        if binomial_cdf(mid, s, p) >= x:
            hi = mid
        else:
            lo = mid + 1
    return lo


def voting_power_batch(xs: np.ndarray, s: int, p: float) -> np.ndarray:
    """Vectorized voting_power over many uniform draws for one (s, p)."""
    if s > _TABLE_MAX:
        return np.array([voting_power(float(x), s, p) for x in xs])
    return np.searchsorted(_cdf_table(s, float(p)), xs, side="left")


@dataclass(frozen=True, slots=True)
class SortitionOutcome:
    pk: bytes
    committee_type: str
    weight: int
    vrf: VrfOutput


_TWO_NEG_256 = 2.0**-256


def uniforms(hashes: list[bytes]) -> np.ndarray:
    """``VrfOutput.uniform`` of many hashes in one conversion.

    NumPy rounds each 256-bit integer to the nearest float, as int / 2**256
    does, and scaling by a power of two is exact, so the floats are the same.
    """
    from_bytes = int.from_bytes
    return np.array([from_bytes(h, "big") for h in hashes], dtype=np.float64) * _TWO_NEG_256


def draw_outcome(sk: bytes, pk: bytes, seed: bytes, ctype: str, stake: int, p: float) -> SortitionOutcome:
    out = vrf_eval(sk, seed, ctype)
    return SortitionOutcome(pk, ctype, voting_power(out.uniform, stake, p), out)


def verify_outcome(
    registry: KeyRegistry, outcome: SortitionOutcome, seed: bytes, stake: int, p: float
) -> bool:
    """Re-derive a claimed weight from the proof; anyone can run this."""
    if not vrf_verify(registry, outcome.pk, seed, outcome.committee_type, outcome.vrf):
        return False
    return voting_power(outcome.vrf.uniform, stake, p) == outcome.weight


class Committee:
    """One committee as parallel columns over its members only (positive
    weight), in pk order: public key, voting weight and VRF hash."""

    __slots__ = ("pks", "weights", "hashes")

    def __init__(self, pks: list[bytes], weights: list[int], hashes: list[bytes]):
        self.pks = pks
        self.weights = weights
        self.hashes = hashes

    def __len__(self) -> int:
        return len(self.pks)


class Electorate:
    """The keys that draw in ``select_committee``, built once per stake
    mapping: the keys of positive stake in key order, and each stake with
    the indices of its keys (one entry per distinct stake)."""

    __slots__ = ("pks", "groups")

    def __init__(self, stakes: Mapping[bytes, int]):
        self.pks = sorted(pk for pk, stake in stakes.items() if stake > 0)
        groups: dict[int, list[int]] = {}
        for i, pk in enumerate(self.pks):
            groups.setdefault(stakes[pk], []).append(i)
        self.groups = list(groups.items())


def select_committee(
    stakes: Mapping[bytes, int] | Electorate,
    seed: bytes,
    ctype: str,
    p: float,
    registry: KeyRegistry,
) -> Committee:
    """Every node draws independently; members are those with positive weight.

    The registry stands in for each node evaluating its own secret key. The
    expected total weight over online stake S is p * S. Each member's hash
    and weight equal its ``draw_outcome``. A plain stake mapping is turned
    into an ``Electorate`` first; a caller that draws often keeps one.
    """
    if not 0.0 < 1.0 - p < 1.0:
        # p below about 1.1e-16, where 1 - p == 1, is outside the supported domain
        raise DomainError(f"selection probability must be in (0, 1) with 1 - p below 1, got {p}")
    electorate = stakes if isinstance(stakes, Electorate) else Electorate(stakes)
    pks = electorate.pks
    hashes = vrf_hashes(registry.framed_secrets(pks), seed, ctype)
    xs = uniforms(hashes)
    # one table lookup per stake group; the weights equal voting_power's
    weights = [0] * len(pks)
    for stake, idx in electorate.groups:
        for i, w in zip(idx, voting_power_batch(xs[idx], stake, p).tolist()):
            weights[i] = w
    member = list(map(bool, weights))  # weights are never negative
    return Committee(
        list(compress(pks, member)), list(compress(weights, member)), list(compress(hashes, member))
    )


def leader_order(tickets: Iterable[tuple[bytes, bytes | int]]) -> list[bytes]:
    """Proposer order: ascending ticket value, ties broken by ascending pk.

    The head proposes; later entries are fallbacks if earlier ones go dark.
    """
    entries = [
        (t if isinstance(t, int) else int.from_bytes(t, "big"), pk) for pk, t in tickets
    ]
    if not entries:
        raise EmptyCommittee("no leader tickets to order")
    entries.sort()
    return [pk for _, pk in entries]


def leader_ticket(sk: bytes, seed: bytes) -> VrfOutput:
    return vrf_eval(sk, seed, LEADER)


def leader_tickets(framed_sks: list[bytes], seed: bytes) -> list[bytes]:
    """``leader_ticket(sk, seed).hash`` for many keys framed as
    ``encode_field(sk)``."""
    return vrf_hashes(framed_sks, seed, LEADER)


# ---------------------------------------------------------------------------
# security parameter calculator

ROUNDED_TAU_CONSTANT = 40.5  # 6.36^2 rounded up
_Z_TAIL = 6.36  # standard-normal quantile with tail mass <= 1e-10


def normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def tau_lower_bound(h: float, alpha: float, exact_constant: bool = False) -> float:
    """Minimum expected selected tokens for a negligible adversary-third event.

    The default constant rounds 6.36^2 up to 40.5; pass exact_constant=True
    for the unrounded variant.
    """
    if not (2.0 / 3.0 < h <= 1.0):
        raise DomainError(f"honesty threshold must be in (2/3, 1], got {h}")
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"activity must be in (0, 1], got {alpha}")
    c = _Z_TAIL**2 if exact_constant else ROUNDED_TAU_CONSTANT
    return c * (4.0 - 3.0 * h) / ((3.0 * h - 2.0) ** 2 * alpha)


def theta_bounds(h: float, alpha: float, tau: float) -> tuple[float, float]:
    """Feasible vote-fraction window (lo, hi); infeasible inputs simply return
    lo >= hi for the caller to detect."""
    if tau <= 0:
        raise DomainError(f"tau must be positive, got {tau}")
    lo = (1.0 - h) * alpha + _Z_TAIL * math.sqrt((1.0 - h) * alpha / tau)
    hi = h * alpha - _Z_TAIL * math.sqrt(h * alpha / tau)
    return lo, hi


def quorum(theta: float, tau: float) -> int:
    """Vote weight required to confirm a block: ceil(theta * tau).

    A tiny epsilon keeps mathematically integral products (like 0.3 * 5000)
    from rounding up an extra vote through float error.
    """
    if not (0.0 < theta < 1.0):
        raise DomainError(f"theta must be in (0, 1), got {theta}")
    if tau <= 0:
        raise DomainError(f"tau must be positive, got {tau}")
    return math.ceil(theta * tau - 1e-9)


def failure_probabilities(
    h: float, alpha: float, tau: float, theta: float
) -> tuple[float, float, float]:
    """Normal-tail probabilities of the three consensus failure events.

    Returns (adversaries own a third of selected tokens, adversaries alone
    reach the quorum, honest nodes miss the quorum). Means and variances
    follow the selected-token counts: honest ~ h*alpha*tau, adversary ~
    (1-h)*alpha*tau, and the margin Y = X_h - 2*X_a.
    """
    if not (2.0 / 3.0 < h <= 1.0):
        raise DomainError(f"honesty threshold must be in (2/3, 1], got {h}")
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"activity must be in (0, 1], got {alpha}")
    if tau <= 0 or not (0.0 < theta < 1.0):
        raise DomainError("tau must be positive and theta in (0, 1)")
    mu_h = h * alpha * tau
    mu_a = (1.0 - h) * alpha * tau
    if mu_h <= 5.0:
        raise ApproximationUnsound(f"honest selected mean {mu_h:.2f} <= 5")
    if h < 1.0 and mu_a <= 5.0:
        raise ApproximationUnsound(f"adversary selected mean {mu_a:.2f} <= 5")

    mu_y = (3.0 * h - 2.0) * alpha * tau
    sigma_y = math.sqrt((4.0 - 3.0 * h) * alpha * tau)
    p_byzantine_third = normal_cdf(-mu_y / sigma_y)

    if h == 1.0:
        p_adv_quorum = 0.0  # no adversary stake: sigma collapses to 0
    else:
        p_adv_quorum = normal_cdf((mu_a - theta * tau) / math.sqrt(mu_a))
    p_honest_miss = normal_cdf((theta * tau - mu_h) / math.sqrt(mu_h))
    return p_byzantine_third, p_adv_quorum, p_honest_miss


@dataclass
class SecurityParams:
    """Consensus sizing: honesty h, activity alpha, committee size tau, vote
    fraction theta, and the token supply K that fixes p = tau / K."""

    h: float
    alpha: float
    tau: float
    theta: float
    k_total: int

    @property
    def p(self) -> float:
        return self.tau / self.k_total

    @property
    def quorum(self) -> int:
        return quorum(self.theta, self.tau)

    def check_domain(self) -> None:
        if not (2.0 / 3.0 < self.h <= 1.0):
            raise DomainError(f"h must be in (2/3, 1], got {self.h}")
        if not (0.0 < self.alpha <= 1.0):
            raise DomainError(f"alpha must be in (0, 1], got {self.alpha}")
        if not (0.0 < 1.0 - self.p < 1.0):
            raise DomainError(f"p = tau/K must be in (0, 1) with 1 - p below 1, got {self.p}")
        if not (0.0 < self.theta < 1.0):
            raise DomainError(f"theta must be in (0, 1), got {self.theta}")
