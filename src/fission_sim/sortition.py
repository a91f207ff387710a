"""Stake-weighted committee sortition and the consensus security calculator.

Each node turns its verifiable random draw into a voting weight by inverse
transform sampling against the Binomial(stake, p) CDF, where p = tau / K
spreads an expected tau selected tokens across the total supply K. The
calculator half derives the feasible (tau, theta) region and the normal-tail
failure probabilities that justify the quorum.

The binomial CDF goes through the regularized incomplete beta function, so it
stays exact-enough and overflow-free for any stake; ``voting_power`` bisects
it. A committee draw reads most stake groups' weights off a float CDF row
instead: a pmf recurrence, summed only as far as the group's largest draw,
whose band of relative half-width ``_BAND`` holds the incomplete beta row.
Where every draw keeps its position across the band, the weights are
bisection's. The other groups, outside the row's domain or with a draw
inside the band (a chance of 2e-9 per row entry), go to the incomplete
beta, whose scipy import comes on first use. Nothing is kept between draws.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .crypto import KeyRegistry, VrfOutput, vrf_eval, vrf_hashes
from .errors import ApproximationUnsound, DomainError

# committee type labels fed into the VRF
def partition_committee(k: int) -> str:
    return f"partition:{k}"


BLOCK_INTERIM = "block_interim"
BLOCK_MAIN = "block_main"
LEADER = "leader"

# below this p the CDF is read from p itself: ``1.0 - p`` rounds p by up to
# 2^-54, which is a bias of tens of percent at p of a few 1e-16. Every golden
# config and benchmark workload has p far above it, so their draws keep the
# 1 - p form.
_SMALL_P = 1e-6


def _cdf(a, b, p: float):
    """P(X <= k) for X ~ Binomial(s, p), 0 <= k < s, given a = k + 1 and
    b = s - k; on scalars or arrays."""
    # imported on first use, so a run whose draws all stay on float rows loads no scipy
    from scipy.special import betainc

    # P(X <= k) = I_{1-p}(s - k, k + 1) = 1 - I_p(k + 1, s - k)
    if p < _SMALL_P:
        return 1.0 - betainc(a, b, p)
    return betainc(b, a, 1.0 - p)


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
    return float(_cdf(k + 1, s - k, p))


def voting_power(x: float, s: int, p: float) -> int:
    """Voting weight for a uniform draw x: the smallest k with F(k) >= x.

    Distributed as Binomial(s, p) when x is uniform on [0, 1); always in
    [0, s] and non-decreasing in x. This is the per-node reference that
    ``_weights`` computes for many draws at once.
    """
    if not 0.0 <= x < 1.0:
        raise DomainError(f"uniform draw must be in [0, 1), got {x}")
    if x <= binomial_cdf(0, s, p):
        return 0
    lo, hi = 1, s
    while lo < hi:
        mid = (lo + hi) // 2
        if binomial_cdf(mid, s, p) >= x:
            hi = mid
        else:
            lo = mid + 1
    return lo


# the float CDF row's domain: stake, mean s * p and entries; past them, or
# where pmf(0) is near the subnormal range, a group takes the betainc route
_ROW_MAX_STAKE = 1 << 20
_ROW_MAX_MEAN = 512.0
_ROW_MAX_LEN = 1024
_ROW_MIN_PMF0 = 1e-290
# relative half-width of the band around a float row. betainc and the row
# agree to 3e-13 relative over the row's domain (the tests pin a twentieth
# of the band), so a draw outside the band lies on the same side of both.
_BAND = 1e-9
_BAND_LOW = 1.0 - _BAND
_BAND_HIGH = 1.0 + _BAND


def _weights(stakes: list[int], draws: list[np.ndarray], p: float) -> list[np.ndarray]:
    """``voting_power`` of the draws ``draws[g]`` of each stake ``stakes[g]``.

    A group's weights are the ``searchsorted`` positions of its draws in its
    float row (``_float_row``) scaled down and up by ``_BAND``. Where the
    two agree for every draw, each draw lies above the band of every entry
    before its position and at or below the band of every entry from it on
    (and past the row, where F only grows), so betainc's row, inside the
    band, splits the draws the same way and bisection ends where
    ``searchsorted`` does. A group with no row, or with a draw inside a
    band, goes whole to ``_betainc_weights``.
    """
    weights = [_row_weights(s, d, p) for s, d in zip(stakes, draws)]
    rest = [g for g, w in enumerate(weights) if w is None]
    if rest:
        exact = _betainc_weights([stakes[g] for g in rest], [draws[g] for g in rest], p)
        for g, w in zip(rest, exact):
            weights[g] = w
    return weights


def _row_weights(s: int, d: np.ndarray, p: float) -> np.ndarray | None:
    """The weights of the draws ``d`` of stake s off its float row, or None
    when it has no row or a draw lies inside a band."""
    row = _float_row(s, p, d.max(initial=0.0))
    if row is None:
        return None
    f = np.array(row)
    w = np.searchsorted(f * _BAND_LOW, d, side="left")
    return w if np.array_equal(w, np.searchsorted(f * _BAND_HIGH, d, side="left")) else None


def _float_row(s: int, p: float, top: float) -> list[float] | None:
    """The prefix of ``_float_cdf(s, p)`` up to the first F~(E) whose lower
    band ``F~(E) * _BAND_LOW`` reaches ``top``, or all of it when it ends at
    E = s - 1, past which F(s) is exactly 1 and every draw weighs at most s.
    None when the row is cut short: outside its domain or at
    ``_ROW_MAX_LEN`` entries."""
    row = []
    for f in _float_cdf(s, p):
        row.append(f)
        if f * _BAND_LOW >= top:
            return row
    return row if len(row) == s else None


def _float_cdf(s: int, p: float):
    """F~(0), F~(1), ... of Binomial(s, p) up to k = min(s, _ROW_MAX_LEN) - 1:
    the pmf from exp(s * log1p(-p)) by pmf(k + 1) = pmf(k) * (s - k) / (k + 1)
    * p / (1 - p), summed. Nothing outside the row's domain.

    The row reads p as betainc does: ``1.0 - p`` rounds p by up to
    2^-54, which moves F(0) = (1 - p)^s by up to s * 2^-54 relative (5.8e-11
    at s = 2^20), so the row takes p as 1 - (1.0 - p), exact by Sterbenz.
    Below ``_SMALL_P``, betainc reads p itself.
    """
    if s > _ROW_MAX_STAKE or s * p > _ROW_MAX_MEAN:
        return
    if p >= _SMALL_P:
        p = 1.0 - (1.0 - p)
    pmf = math.exp(s * math.log1p(-p))
    if pmf < _ROW_MIN_PMF0:
        return
    ratio = p / (1.0 - p)
    f = pmf
    for k in range(min(s, _ROW_MAX_LEN)):
        yield f
        pmf *= (s - k) / (k + 1) * ratio
        f += pmf


def _betainc_weights(stakes: list[int], draws: list[np.ndarray], p: float) -> list[np.ndarray]:
    """``voting_power`` of the draws ``draws[g]`` of each stake ``stakes[g]``,
    from betainc's own rows.

    After F(0), bisection of [1, s] probes the spine 1 + ((s - 1) >> t),
    t = 1, 2, ..., for as long as F there reaches the draw. So one
    ``betainc`` call evaluates the spines of all stakes, and one more each
    stake's row F(0), ..., F(e), where e is the deepest spine node that all
    its draws reach: about twice its largest weight. Where a row does not
    decrease, bisection ends where ``searchsorted`` does, so the row gives
    every weight. A row wider than bisecting each of its draws, or one that
    decreases (betainc turns NaN at extreme arguments), leaves its draws to
    ``voting_power``.
    """
    spines = [[1 + ((s - 1) >> t) for t in range(1, max(s - 1, 0).bit_length() + 1)] for s in stakes]
    f = _cdf_at(stakes, spines, p).tolist()
    ends, at = [], 0
    for spine, s, d in zip(spines, stakes, draws):
        top, e = d.max(initial=0.0), s
        for m, fm in zip(spine, f[at:at + len(spine)]):
            if not fm >= top:  # a NaN is reached by no draw
                break
            e = m
        at += len(spine)
        ends.append(e if e < len(d) * (len(spine) + 1) else -1)  # -1: no row
    rows = _cdf_at(stakes, [range(e + 1) for e in ends], p)
    weights, at = [], 0
    for e, s, d in zip(ends, stakes, draws):
        row = rows[at:at + e + 1]
        at += e + 1
        if e >= 0 and (row[1:] >= row[:-1]).all():
            weights.append(np.searchsorted(row, d, side="left"))
        else:
            exact = np.int64 if s < 1 << 63 else object  # a weight never exceeds its stake
            weights.append(np.array([voting_power(float(x), s, p) for x in d], dtype=exact))
    return weights


def _cdf_at(stakes: list[int], ks: list, p: float) -> np.ndarray:
    """F(k) of stake ``stakes[g]`` at every k <= s of ``ks[g]``, concatenated.

    k + 1 and s - k are exact ints until ``float`` rounds them, as NumPy
    rounds the ints ``binomial_cdf`` passes; at k = s the formula gives 1.
    """
    a = [float(k + 1) for row in ks for k in row]
    b = [float(s - k) for s, row in zip(stakes, ks) for k in row]
    return _cdf(np.array(a), np.array(b), p)


_TWO_NEG_256 = 2.0**-256
_TWO_NEG_64 = 2.0**-64


def uniforms(hashes: list[bytes]) -> np.ndarray:
    """Each 32-byte hash mapped into [0, 1) as the correctly rounded
    ``int / 2**256``, for many hashes in one conversion.

    A float keeps 53 bits, so a hash whose top 64-bit word is at least 2^54
    rounds as that word does with a sticky bit set for any nonzero bit below
    it: ``float(top | sticky)`` rounds to nearest even as int / 2**256 does,
    and scaling by a power of two is exact. The rare rows with a smaller top
    word (about one in 1,024) convert their whole integer instead.
    """
    words = np.frombuffer(b"".join(hashes), dtype=">u8").reshape(-1, 4).astype(np.uint64)
    top = words[:, 0]
    sticky = words[:, 1:].any(axis=1)
    xs = (top | sticky).astype(np.float64) * _TWO_NEG_64
    for i in np.flatnonzero(top < 1 << 54).tolist():
        xs[i] = int.from_bytes(hashes[i], "big") * _TWO_NEG_256
    return xs


class Committee:
    """One committee as parallel columns over its members only (positive
    weight), in pk order: public key and voting weight."""

    __slots__ = ("pks", "weights")

    def __init__(self, pks: list[bytes], weights: list[int]):
        self.pks = pks
        self.weights = weights

    def __len__(self) -> int:
        return len(self.pks)


class Electorate:
    """The keys that draw in ``select_committee``, built once per run from a
    stake mapping and the registry that holds its keys: the keys of positive
    stake in key order, their framed secrets (``framed``, the VRF input of
    every draw, framed here once), each stake with the indices of its keys
    (one entry per distinct stake), and the dtype that holds every weight
    exactly.
    """

    __slots__ = ("pks", "framed", "groups", "weight_dtype")

    def __init__(self, stakes: Mapping[bytes, int], registry: KeyRegistry):
        self.pks = sorted(pk for pk, stake in stakes.items() if stake > 0)
        self.framed = registry.framed_secrets(self.pks)
        groups: dict[int, list[int]] = {}
        for i, pk in enumerate(self.pks):
            groups.setdefault(stakes[pk], []).append(i)
        self.groups = [(s, np.array(idx, dtype=np.intp)) for s, idx in groups.items()]
        # a weight never exceeds its stake
        self.weight_dtype = np.int64 if all(s < 1 << 63 for s in groups) else object


def select_committee(electorate: Electorate, seed: bytes, ctype: str, p: float) -> Committee:
    """Every node draws independently; members are those with positive weight.

    The electorate's framed keys stand in for each node evaluating its own
    secret key. The expected total weight over online stake S is p * S. Each
    node's weight is ``voting_power`` of its ``vrf_eval(sk, seed,
    ctype).hash`` mapped into [0, 1) (``uniforms``), hashed from
    ``electorate.framed``.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"selection probability must be in (0, 1), got {p}")
    pks = electorate.pks
    xs = uniforms(vrf_hashes(electorate.framed, seed, ctype))
    # one CDF row per stake group; the weights equal voting_power's
    groups = electorate.groups
    weights = np.zeros(len(pks), dtype=electorate.weight_dtype)
    for (_, idx), ws in zip(groups, _weights([s for s, _ in groups], [xs[idx] for _, idx in groups], p)):
        weights[idx] = ws
    members = np.flatnonzero(weights)  # weights are never negative
    return Committee([pks[i] for i in members.tolist()], weights[members].tolist())


def leader_ticket(sk: bytes, seed: bytes) -> VrfOutput:
    return vrf_eval(sk, seed, LEADER)


# ---------------------------------------------------------------------------
# security parameter calculator

ROUNDED_TAU_CONSTANT = 40.5  # 6.36^2 rounded up
_Z_TAIL = 6.36  # standard-normal quantile with tail mass <= 1e-10


def check_h_alpha(h: float, alpha: float) -> None:
    """The domain of the honest stake fraction h and the online fraction alpha."""
    if not (2.0 / 3.0 < h <= 1.0):
        raise DomainError(f"honesty threshold must be in (2/3, 1], got {h}", "h")
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"activity must be in (0, 1], got {alpha}", "alpha")


def check_theta_tau(theta: float, tau: float) -> None:
    """The domain of the vote fraction theta and the expected committee
    weight tau."""
    if not (0.0 < theta < 1.0):
        raise DomainError(f"theta must be in (0, 1), got {theta}", "theta")
    if not tau > 0:
        raise DomainError(f"tau must be positive, got {tau}", "tau")


def normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def tau_lower_bound(h: float, alpha: float, exact_constant: bool = False) -> float:
    """Minimum expected selected tokens for a negligible adversary-third event.

    The default constant rounds 6.36^2 up to 40.5; pass exact_constant=True
    for the unrounded variant.
    """
    check_h_alpha(h, alpha)
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
    check_theta_tau(theta, tau)
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
    check_h_alpha(h, alpha)
    check_theta_tau(theta, tau)
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
