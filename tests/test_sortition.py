import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from fission_sim import sortition
from fission_sim.cli import main
from fission_sim.config import load_config
from fission_sim.consensus import ChainSimulation, Population
from fission_sim.crypto import KeyRegistry, vrf_hashes
from fission_sim.dists import dist_sampler
from fission_sim.errors import ApproximationUnsound, DomainError, ValidationError
from fission_sim.seeding import child_bytes, split
from fission_sim.sortition import (
    BLOCK_INTERIM,
    Electorate,
    binomial_cdf,
    failure_probabilities,
    normal_cdf,
    quorum,
    select_committee,
    tau_lower_bound,
    theta_bounds,
    voting_power,
)
from reference import (
    draw_outcome,
    leader_order,
    secret_key,
    split_numpy,
    uniform,
    verify_outcome,
    voting_power_batch,
)


def cdf_oracle(k, s, p):
    # independent route: direct summation of the probability mass
    return sum(math.comb(s, j) * p**j * (1 - p) ** (s - j) for j in range(0, k + 1))


def test_cdf_at_zero_is_miss_probability():
    for s, p in [(1, 0.3), (5, 0.1), (50, 0.02)]:
        assert binomial_cdf(0, s, p) == pytest.approx((1 - p) ** s, abs=1e-14)


def test_cdf_examples():
    assert binomial_cdf(3, 3, 0.5) == 1.0
    assert binomial_cdf(1, 3, 0.5) == pytest.approx(0.5, abs=1e-14)  # 0.125 + 0.375


def test_cdf_matches_direct_summation():
    rng = random.Random(1)
    for _ in range(200):
        s = rng.randint(0, 20)
        p = rng.random()
        k = rng.randint(-1, s + 1)
        assert binomial_cdf(k, s, p) == pytest.approx(
            min(1.0, cdf_oracle(min(k, s), s, p)) if k >= 0 else 0.0, abs=1e-12
        )


def test_cdf_monotone_and_complete():
    s, p = 12, 0.37
    values = [binomial_cdf(k, s, p) for k in range(s + 1)]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
    assert values[-1] == 1.0


def test_cdf_domain_error():
    with pytest.raises(DomainError):
        binomial_cdf(1, 3, 1.5)
    with pytest.raises(DomainError):
        binomial_cdf(1, -1, 0.5)


def test_voting_power_table_examples():
    # CDF table for s=3, p=0.5 is 0.125 / 0.5 / 0.875 / 1
    assert voting_power(0.10, 3, 0.5) == 0
    assert voting_power(0.60, 3, 0.5) == 2
    assert voting_power(0.95, 3, 0.5) == 3


def test_voting_power_non_decreasing_and_bounded():
    rng = random.Random(2)
    for _ in range(50):
        s = rng.randint(1, 30)
        p = rng.uniform(0.01, 0.99)
        xs = sorted(rng.random() for _ in range(100))
        ws = [voting_power(x, s, p) for x in xs]
        assert all(a <= b for a, b in zip(ws, ws[1:]))
        assert all(0 <= w <= s for w in ws)


def test_voting_power_batch_agrees_with_scalar():
    gen = split_numpy(7, "vp-batch")
    for s, p in [(5, 0.2), (20, 0.5), (100, 0.01)]:
        xs = gen.random(2000)
        batch = voting_power_batch(xs, s, p)
        for x, w in zip(xs[:300], batch[:300]):
            assert voting_power(float(x), s, p) == w


def test_voting_power_batch_matches_scalar_at_zero_weight_boundary():
    # both paths probe F(0) first: a draw at F(0) weighs 0, one just above 1
    for s, p in [(1, 0.3), (7, 0.02), (100, 0.001), (2500, 5000 / 1_000_000), (9999, 1e-4)]:
        f0 = binomial_cdf(0, s, p)
        xs = np.array([np.nextafter(f0, 0.0), f0, np.nextafter(f0, 1.0)])
        assert voting_power_batch(xs, s, p) == [voting_power(float(x), s, p) for x in xs]
        assert voting_power(f0, s, p) == 0 and voting_power(float(xs[2]), s, p) == 1


def test_voting_power_distribution_chi_square_smoke():
    # the full grid runs in the acceptance suite; spot-check three cells here
    gen = split_numpy(13, "vp-chi")
    for s, p in [(3, 0.5), (10, 0.1), (20, 0.01)]:
        draws = voting_power_batch(gen.random(100_000), s, p)
        observed = np.bincount(draws, minlength=s + 1)
        expected = np.array([math.comb(s, k) * p**k * (1 - p) ** (s - k) for k in range(s + 1)])
        expected *= len(draws)
        mask = expected >= 5
        obs = np.append(observed[mask], observed[~mask].sum())
        exp = np.append(expected[mask], expected[~mask].sum())
        if exp[-1] == 0:
            obs, exp = obs[:-1], exp[:-1]
        result = stats.chisquare(obs, exp)
        assert result.pvalue > 0.01, (s, p, result.pvalue)


def test_voting_power_large_stake_weighs_the_same_on_every_path():
    # median of Binomial(10^6, 0.005) is its mean
    assert voting_power(0.5, 1_000_000, 0.005) == 5000
    # one draw bisects: a row out past 5,000 would be wider than that; 2,001
    # draws share one row F(0), ..., F(7813)
    assert voting_power_batch([0.5], 1_000_000, 0.005) == [5000]
    xs = np.append(split_numpy(4, "big-row").random(2000), 0.5)
    batch = voting_power_batch(xs, 1_000_000, 0.005)
    assert batch[-1] == 5000
    assert batch[:40] == [voting_power(float(x), 1_000_000, 0.005) for x in xs[:40]]
    reg, pks = build_registry(6, seed=4)
    stakes = {pk: 1_000_000 for pk in pks}
    members = select_committee(Electorate(stakes, reg), b"big", BLOCK_INTERIM, 0.005)
    outcomes = [
        draw_outcome(secret_key(reg, pk), pk, b"big", BLOCK_INTERIM, 1_000_000, 0.005) for pk in sorted(pks)
    ]
    assert members.weights == [o.weight for o in outcomes]
    assert all(4500 < w < 5500 for w in members.weights)


# --- committee selection ---


def build_registry(n, seed=0):
    reg = KeyRegistry()
    pks = [reg.generate(f"{seed}:{i}".encode())[1] for i in range(n)]
    return reg, pks


def test_zero_stake_never_selected():
    reg, pks = build_registry(10)
    stakes = {pk: 0 for pk in pks}
    committee = select_committee(Electorate(stakes, reg), b"seed", BLOCK_INTERIM, 0.5)
    assert len(committee) == 0
    assert committee.pks == committee.weights == []


def test_expected_weight_proportional_to_stake():
    # E[o_i] = p * s_i, checked for one node over many seeds
    reg, pks = build_registry(1)
    stake, p = 200, 0.1
    draws = 4000
    sk = secret_key(reg, pks[0])
    total = sum(
        draw_outcome(sk, pks[0], b"seed%d" % i, BLOCK_INTERIM, stake, p).weight
        for i in range(draws)
    )
    mean = total / draws
    sigma = math.sqrt(stake * p * (1 - p) / draws)
    assert abs(mean - p * stake) <= 3 * sigma


def test_committee_total_weight_moments():
    # empirical mean of total weight within 3 sigma of p * S over 200 draws
    reg, pks = build_registry(40, seed=1)
    stakes = {pk: 50 + 10 * (i % 5) for i, pk in enumerate(pks)}
    s_total = sum(stakes.values())
    p = 0.05
    electorate = Electorate(stakes, reg)
    totals = []
    for i in range(200):
        members = select_committee(electorate, b"epoch%d" % i, BLOCK_INTERIM, p)
        totals.append(sum(members.weights))
    mean = sum(totals) / len(totals)
    sigma = math.sqrt(s_total * p * (1 - p) / len(totals))
    assert abs(mean - p * s_total) <= 3 * sigma


def test_outcome_verification_rejects_weight_inflation():
    reg, pks = build_registry(1, seed=2)
    sk = secret_key(reg, pks[0])
    outcome = draw_outcome(sk, pks[0], b"seed", BLOCK_INTERIM, 100, 0.2)
    assert verify_outcome(reg, outcome, b"seed", 100, 0.2)
    inflated = type(outcome)(outcome.pk, outcome.committee_type, outcome.weight + 1, outcome.vrf)
    assert not verify_outcome(reg, inflated, b"seed", 100, 0.2)
    assert not verify_outcome(reg, outcome, b"other-seed", 100, 0.2)


def test_committee_members_all_positive_weight():
    reg, pks = build_registry(30, seed=3)
    stakes = {pk: 100 for pk in pks}
    members = select_committee(Electorate(stakes, reg), b"s", BLOCK_INTERIM, 0.05)
    assert len(members) > 0
    assert all(w > 0 for w in members.weights)


def test_committee_weights_match_per_node_draws():
    # batched selection gives every node exactly its scalar draw_outcome weight,
    # across several stake groups
    reg, pks = build_registry(120, seed=5)
    rng = random.Random(5)
    stakes = {pk: rng.choice([0, 1, 40, 2500, 2500, 12_000]) for pk in pks}
    for ctype, p in [(BLOCK_INTERIM, 0.004), ("partition:1", 0.02)]:
        expected = [
            draw_outcome(secret_key(reg, pk), pk, b"seed-x", ctype, stakes[pk], p)
            for pk in sorted(pks)
            if stakes[pk] > 0
        ]
        members = select_committee(Electorate(stakes, reg), b"seed-x", ctype, p)
        expected = [o for o in expected if o.weight > 0]
        assert len(members) == len(expected)
        assert members.pks == [o.pk for o in expected]
        assert members.weights == [o.weight for o in expected]
        assert vrf_hashes(reg.framed_secrets(members.pks), b"seed-x", ctype) == [o.vrf.hash for o in expected]
        assert all(type(w) is int for w in members.weights)


@lru_cache(maxsize=1)
def electorate_registry():
    return build_registry(24, seed=9)


@lru_cache(maxsize=1)
def crafted_registry():
    # two groups of every bucket edge, both ends and four hashes per entry of
    # a row of at most 600 entries
    return build_registry(6000, seed=10)


# every bucket edge: the least hash of each first byte b, whose uniform is
# b / 256, and the hash below it, which rounds up to b / 256 from byte b - 1
BUCKET_EDGES = [edge for b in range(1, 256) for edge in ((b << 248) - 1, b << 248)]
ENDS = [0, (1 << 256) - 1]  # the all-ones hash rounds up to 1.0


def least_hash_above(e):
    """The least 256-bit hash whose uniform exceeds the float e."""
    h = math.ceil((Fraction(e) + Fraction(math.nextafter(e, 2.0))) * 2**255)  # the midpoint above e
    return h if uniform(h.to_bytes(32, "big")) > e else h + 1


def row_edge_hashes(s, p):
    """For each lower and upper band edge of stake s's float row up to 255/256
    (the reach of a table with every byte), the least hash whose uniform
    exceeds it and the hash below that."""
    row = sortition._float_row(s, p, 255 / 256)
    edges = [e for band in sortition._bands(row) for e in band if e < 1.0] if row else []
    return [h for e in edges for above in [least_hash_above(e)] for h in (above - 1, above)]


def reference_weight(x, s, p):
    """``voting_power`` of x; at the 1.0 that the all-ones hash rounds to, past
    its domain, the smallest k with F(k) >= 1.0 that its bisection finds."""
    if x < 1.0:
        return voting_power(x, s, p)
    lo, hi = 0, s
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if binomial_cdf(mid, s, p) >= x else (mid + 1, hi)
    return lo


def reaches_betainc(s, p, xs):
    """Whether a stake group's draws reach betainc: its float row to its
    largest draw is cut short, or a draw lies inside a band of it."""
    row = sortition._float_row(s, p, max(xs))
    return row is None or in_band(row, np.array(xs))


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    p=st.sampled_from([0.004, 0.05, 0.3, sortition._SMALL_P / 10]),
    seed=st.binary(max_size=16),
)
def test_electorate_draw_equals_per_node_draws(data, p, seed):
    # up to 6 stake groups, zero stakes, stakes up to 2^64 - 1 (where s - k
    # no longer fits a float exactly) and a p read by the small-p CDF
    reg, pks = electorate_registry()
    stake = st.one_of(st.sampled_from([1, 40, 2500, 12_000]), st.integers(1, 2**64 - 1))
    levels = data.draw(st.lists(stake, min_size=1, max_size=6, unique=True))
    column = data.draw(st.lists(st.sampled_from([0] + levels), min_size=len(pks), max_size=len(pks)))
    stakes = dict(zip(pks, column))
    drawn = select_committee(Electorate(stakes, reg), seed, BLOCK_INTERIM, p)
    outcomes = [
        draw_outcome(secret_key(reg, pk), pk, seed, BLOCK_INTERIM, stakes[pk], p)
        for pk in sorted(pks)
        if stakes[pk] > 0
    ]
    expected = [o for o in outcomes if o.weight > 0]
    columns = (drawn.pks, drawn.weights, vrf_hashes(reg.framed_secrets(drawn.pks), seed, BLOCK_INTERIM))
    assert columns == ([o.pk for o in expected], [o.weight for o in expected], [o.vrf.hash for o in expected])
    assert all(type(w) is int for w in drawn.weights)

    # crafted hashes read through the byte tables, in one or two stake groups
    # that have a float row (stake 1000 at p = 0.3 reaches weights of 255 and
    # up): every bucket edge, maybe both ends, and maybe the hashes on either
    # side of each band edge of the group's row, where a draw lies inside a
    # band and sends the group to betainc. At p near 1/2, F(0) of stakes 1
    # and 2 lies on a bucket edge or within a band of it, so a band spans
    # two buckets
    p = data.draw(st.sampled_from([p, 0.5, 0.5 - 1e-10, 0.5 + 1e-10]))
    stake = st.one_of(st.sampled_from([1000, 2500, 40, 1, 2]), st.integers(1, 2**20))
    tabled = [s for s in data.draw(st.lists(stake, min_size=1, max_size=2, unique=True))
              if sortition._float_row(s, p, 255 / 256)]
    if not tabled:
        return
    ends, near_edges = data.draw(st.booleans()), data.draw(st.booleans())
    crafted = [(h, s) for s in tabled for h in BUCKET_EDGES + ENDS * ends + row_edge_hashes(s, p) * near_edges]
    random.Random(len(crafted)).shuffle(crafted)  # the groups' keys interleave in key order
    reg, pks = crafted_registry()
    pks = sorted(pks[: len(crafted)])
    assert len(pks) == len(crafted)
    hashes = [h.to_bytes(32, "big") for h, _ in crafted]
    column = [s for _, s in crafted]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sortition, "vrf_hashes", lambda framed, seed, ctype: hashes)
        calls = []
        cdf = sortition._cdf
        patch.setattr(sortition, "_cdf", lambda *args: calls.append(1) or cdf(*args))
        drawn = select_committee(Electorate(dict(zip(pks, column)), reg), seed, BLOCK_INTERIM, p)
    xs = [uniform(h) for h in hashes]
    with pytest.MonkeyPatch.context() as patch:
        # the reference bisects each draw alone; its CDF values are shared
        patch.setattr(sortition, "binomial_cdf", lru_cache(maxsize=None)(binomial_cdf))
        weights = [reference_weight(x, s, p) for x, s in zip(xs, column)]
    assert (drawn.pks, drawn.weights) == (
        [pk for pk, w in zip(pks, weights) if w], [w for w in weights if w]
    )
    assert bool(calls) == any(
        reaches_betainc(s, p, [x for x, t in zip(xs, column) if t == s]) for s in tabled
    )
    assert 1000 not in tabled or p != 0.3 or max(drawn.weights) >= 255


def test_committee_draw_evaluates_few_cdf_entries_per_stake_group(monkeypatch):
    # 1,400 uniform:1:5000 stakes hold over a thousand distinct stakes; a
    # full CDF per stake would be millions of entries. Both evaluators count:
    # each float row entry summed (rows cut at the cap included) and each
    # betainc call's size
    reg, pks = build_registry(1400, seed=11)
    stakes = dict(zip(pks, dist_sampler("uniform:1:5000", integer=True, minimum=1)(split(11, "work"), 1400)))
    electorate = Electorate(stakes, reg)
    entries = []
    float_cdf, betainc = sortition._float_cdf, special.betainc

    def counted_row(*args):
        for f in float_cdf(*args):
            entries.append(1)
            yield f

    def counted_betainc(*args):
        out = betainc(*args)
        entries.append(np.size(out))
        return out

    monkeypatch.setattr(sortition, "_float_cdf", counted_row)
    monkeypatch.setattr(special, "betainc", counted_betainc)
    committee = select_committee(electorate, b"work", BLOCK_INTERIM, 5000 / sum(stakes.values()))
    assert len(committee) > 0
    assert sum(entries) <= 64 * len(set(stakes.values()))


def in_band(row, xs):
    """Whether a draw lies in the band (F~ * (1 - tau), F~ * (1 + tau)] of an
    entry of a float row, where the two ``bisect_left`` positions part."""
    f = np.array(row)
    return bool(((f[:, None] * sortition._BAND_LOW < xs) & (xs <= f[:, None] * sortition._BAND_HIGH)).any())


@settings(max_examples=80, deadline=None)
@given(
    s=st.one_of(st.integers(1, 64), st.integers(1, 2**20)),
    mean=st.one_of(st.floats(1e-4, 520.0), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_float_rows_weigh_as_betainc_bisection(s, mean, seed, data):
    # p from the mean s * p (so the float row's domain and its 512 edge are
    # reached) or as a fraction, from below _SMALL_P up to 0.999; draws are
    # uniforms plus betainc's own F(k) and their neighbours
    p = min(0.999, max(sortition._SMALL_P / 10, mean / s if data.draw(st.booleans()) else mean))
    uniform = np.random.default_rng(seed).random(8)
    ks = data.draw(st.lists(st.integers(0, min(s - 1, int(2 * s * p) + 8)), max_size=3))
    on_f = [x for k in ks for f in [binomial_cdf(k, s, p)] for x in (np.nextafter(f, 0.0), f, np.nextafter(f, 1.0))]
    xs = np.append(uniform, [x for x in on_f if x < 1.0])
    assert voting_power_batch(xs, s, p) == [voting_power(float(x), s, p) for x in xs]
    # a group whose float row settles every draw reads no betainc; a draw on
    # a band (a float row entry F~(k) itself) sends the whole group to betainc
    full = list(sortition._float_cdf(s, p))
    on_band = [np.array([full[k]]) for k in ks if k < len(full) and full[k] < 1.0]
    for draws in [uniform, *on_band]:
        row = sortition._float_row(s, p, float(draws.max()))
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            cdf = sortition._cdf
            patch.setattr(sortition, "_cdf", lambda *args: calls.append(1) or cdf(*args))
            weights = voting_power_batch(draws, s, p)
        assert bool(calls) == (row is None or in_band(row, draws)), (s, p, draws)
        assert weights == [voting_power(float(x), s, p) for x in draws]


# float-row domain points: every stake scale up to 2^20 at means up to the
# 512 edge, the p of the perfbench chain workloads, p on both sides of
# _SMALL_P, and large p where s is small enough that pmf(0) stays normal
MARGIN_GRID = sorted(
    {(s, m / s) for s in (1, 2, 3, 7, 40, 1000, 2500, 12_000, 65_536, 2**20 - 3, 2**20)
     for m in (1e-4, 0.3, 2.5, 12.5, 64.0, 300.0, 512.0) if m / s < 1}
    | {(2500, 0.001), (2500, 0.005), (12_000, sortition._SMALL_P), (12_000, sortition._SMALL_P * 0.999)}
    | {(s, p) for s in (1, 5, 60, 400, 1024) for p in (0.3, 0.5, 0.9, 0.999) if s * p <= 512}
)


def test_float_rows_stay_twenty_times_inside_the_band():
    # betainc's row against the full float row (to the row cap) at every k:
    # if a scipy release loses accuracy, this fails before a weight can move
    tau = sortition._BAND
    checked = 0
    for s, p in MARGIN_GRID:
        row = np.array(list(sortition._float_cdf(s, p)))
        if not len(row):
            continue  # pmf(0) below the row's floor
        exact = sortition._cdf_at([s], [range(len(row))], p)
        gap = np.abs(exact - row) / row
        worst = int(np.argmax(gap))
        assert gap[worst] <= tau / 20, (s, p, worst, float(gap[worst]))
        checked += len(row)
    assert checked > 10_000


NUMERIC_PACKAGES = """sorted(name for name in sys.modules if name.split(".")[0] in ("numpy", "scipy"))"""

NO_NUMPY_RUNS = f"""
import sys
from fission_sim.cli import main

codes = [
    main(["chain", "--epochs", "6", "--seed", "1", "--config", "committee.cfg", "--out", "c.jsonl", "--metrics", "c.csv"]),
    main(["chain", "--epochs", "6", "--seed", "1", "--config", "traffic.cfg", "--out", "t.jsonl", "--metrics", "t.csv"]),
    main(["security", "-h", "0.75", "-a", "0.7"]),
    main(["sortition", "--nodes", "1400", "--stake-dist", "uniform:1:5000", "--seed", "11"]),
    main(["relay", "--nodes", "256", "--relayers", "8", "--rounds", "4", "--trials", "2", "--seed", "1", "--out", "r.csv"]),
    main(["drs", "--nodes", "64", "--keys", "8", "--seed", "1", "--out", "d.csv"]),
]
print(codes, {NUMERIC_PACKAGES}, file=sys.stderr)
"""

WORKLOAD_STEPS = f"""
import sys
from workloads import WORKLOADS

for name in ("chain-committee", "chain-traffic"):
    workload = WORKLOADS[name]()
    workload.setup(1)
    for _ in range(120):
        workload.step()
    print(name, {NUMERIC_PACKAGES}, file=sys.stderr)
"""

ROOT = Path(__file__).resolve().parents[1]


def run_fresh(script, cwd, *paths):
    """The stderr of ``script`` run in a fresh interpreter with the package and
    ``paths`` importable."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), *map(str, paths), os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env=os.environ | {"PYTHONPATH": path},
        check=True, capture_output=True, text=True,
    )
    return done.stderr.strip()


def test_runs_on_float_rows_load_no_numpy_or_scipy(tmp_path):
    # both perfbench chain shapes, the calculators, a many-group committee
    # draw and the relay and retrieval games, in one fresh interpreter
    (tmp_path / "committee.cfg").write_text(
        "population.nodes = 2000\npopulation.stake_dist = fixed:2500\n"
        "chain.tx_per_epoch = 100\nchain.offline_rate = 0.1\n"
    )
    (tmp_path / "traffic.cfg").write_text(
        "population.nodes = 400\nchain.tx_per_epoch = 1000\nchain.invalid_fraction = 0.05\n"
    )
    assert run_fresh(NO_NUMPY_RUNS, tmp_path) == "[0, 0, 0, 0, 0, 0] []"


def test_chain_workloads_load_no_numpy_or_scipy(tmp_path):
    # 120 steps of each perfbench chain workload at its default seed
    assert run_fresh(WORKLOAD_STEPS, tmp_path, ROOT / "perfbench").splitlines() == [
        "chain-committee []", "chain-traffic []"
    ]


# --- leader ordering ---


def test_leader_order_sorts_by_ticket():
    a, b, c = b"\x0a" * 32, b"\x0b" * 32, b"\x0c" * 32
    assert leader_order([(a, 5), (b, 3), (c, 9)]) == [b, a, c]


def test_leader_order_breaks_ties_by_pk():
    a, b = b"\x01" * 32, b"\x02" * 32
    assert leader_order([(b, 5), (a, 5)]) == [a, b]


def test_leader_order_head_matches_bruteforce_min():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 12)
        entries = [(rng.randbytes(32), rng.randint(0, 50)) for _ in range(n)]
        head = leader_order(entries)[0]
        best = min(entries, key=lambda e: (e[1], e[0]))[0]
        assert head == best


def test_leader_order_is_permutation_and_input_order_invariant():
    rng = random.Random(6)
    entries = [(rng.randbytes(32), rng.randint(0, 9)) for _ in range(10)]
    ordered = leader_order(entries)
    assert sorted(ordered) == sorted(pk for pk, _ in entries)
    shuffled = list(entries)
    rng.shuffle(shuffled)
    assert leader_order(shuffled) == ordered


def test_leader_order_empty_committee():
    with pytest.raises(ValueError):
        leader_order([])


# --- security calculator ---


def test_tau_lower_bound_examples():
    assert tau_lower_bound(0.75, 1.0) == pytest.approx(1134.0, rel=1e-12)
    assert tau_lower_bound(0.75, 0.5) == pytest.approx(2268.0, rel=1e-12)
    assert tau_lower_bound(1.0, 1.0) == pytest.approx(40.5, rel=1e-12)


def test_tau_lower_bound_exact_constant_variant():
    exact = tau_lower_bound(0.75, 1.0, exact_constant=True)
    assert exact == pytest.approx(6.36**2 * 1.75 / 0.0625, rel=1e-12)
    assert exact < tau_lower_bound(0.75, 1.0)


def test_tau_lower_bound_monotone_in_h_and_scales_with_alpha():
    hs = [0.70, 0.75, 0.8, 0.9, 1.0]
    vals = [tau_lower_bound(h, 1.0) for h in hs]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    for h in hs:
        assert tau_lower_bound(h, 0.25) == pytest.approx(4 * tau_lower_bound(h, 1.0), rel=1e-12)


def test_tau_lower_bound_domain():
    with pytest.raises(DomainError):
        tau_lower_bound(0.5, 1.0)
    with pytest.raises(DomainError):
        tau_lower_bound(0.75, 0.0)


def test_theta_bounds_values():
    lo, _ = theta_bounds(0.75, 1.0, 5000)
    assert lo == pytest.approx(0.25 + 3.18 / math.sqrt(5000), rel=1e-12)
    assert lo == pytest.approx(0.29497, abs=5e-6)
    _, hi = theta_bounds(0.75, 0.53, 5000)
    assert hi == pytest.approx(0.3975 - 6.36 * math.sqrt(0.3975 / 5000), rel=1e-12)
    assert hi > 0.3


def test_theta_bounds_lower_increases_with_activity():
    taus = 5000
    los = [theta_bounds(0.75, a, taus)[0] for a in (0.2, 0.4, 0.6, 0.8, 1.0)]
    assert all(a < b for a, b in zip(los, los[1:]))


def test_theta_bounds_returns_infeasible_asis():
    lo, hi = theta_bounds(0.75, 1.0, 10)  # tiny tau: window collapses
    assert lo >= hi


def test_quorum_values():
    assert quorum(0.3, 5000) == 1500
    assert quorum(0.5, 10) == 5
    assert quorum(0.3, 5001) == 1501
    assert quorum(0.29, 5000) == 1450
    with pytest.raises(DomainError):
        quorum(0.0, 100)


def test_normal_cdf_tail_accuracy():
    # the design point: the 6.36 tail is at the 1e-10 level
    assert normal_cdf(-6.36) == pytest.approx(1.0087e-10, rel=1e-3)
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert normal_cdf(6.36) == pytest.approx(1.0, abs=1e-9)


def test_failure_probabilities_at_exact_tau_bound():
    for h, alpha in [(0.75, 1.0), (0.8, 0.9), (0.9, 0.5)]:
        tau = tau_lower_bound(h, alpha)
        p_byz, _, _ = failure_probabilities(h, alpha, tau, 0.5)
        assert p_byz <= 1e-10


def test_failure_probabilities_no_adversary_stake():
    _, p_adv, _ = failure_probabilities(1.0, 1.0, 5000, 0.3)
    assert p_adv == 0.0


def test_failure_probabilities_design_point():
    p_byz, p_adv, p_miss = failure_probabilities(0.75, 0.7, 5000, 0.3)
    assert p_byz < 1e-10 and p_adv < 1e-10 and p_miss < 1e-10


def test_failure_probabilities_monte_carlo_consistency():
    # 1e7 binomial committee draws never trip any failure event
    h, alpha, tau, theta = 0.75, 0.7, 5000.0, 0.3
    k_total = 10_000_000
    p = tau / k_total
    s_h = int(h * alpha * k_total)
    s_a = int((1 - h) * alpha * k_total)
    gen = split_numpy(99, "fp-mc")
    draws = 10_000_000
    x_h = gen.binomial(s_h, p, size=draws)
    x_a = gen.binomial(s_a, p, size=draws)
    q = theta * tau
    assert int(np.count_nonzero(x_h - 2 * x_a <= 0)) == 0
    assert int(np.count_nonzero(x_a >= q)) == 0
    assert int(np.count_nonzero(x_h < q)) == 0


def test_failure_probabilities_approximation_guard():
    with pytest.raises(ApproximationUnsound):
        failure_probabilities(0.999, 1.0, 1000, 0.3)  # adversary mean 1 <= 5


# 40 stakes of 6e18 with tau 1e5: p = 4.17e-16, which ``1.0 - p`` rounds by
# about 7%
HUGE_STAKE, HUGE_TAU = 6 * 10**18, 1e5


def test_small_p_cdf_matches_poisson():
    p = HUGE_TAU / (40 * HUGE_STAKE)
    for k in (2400, 2500, 2600):
        assert binomial_cdf(k, HUGE_STAKE, p) == pytest.approx(
            stats.poisson.cdf(k, HUGE_STAKE * p), abs=1e-12
        )


def test_small_p_committee_weight_mean_is_p_times_online_stake():
    population = Population.build(40, f"fixed:{HUGE_STAKE}", alpha=0.7, h=0.75, master_seed=1)
    p = HUGE_TAU / population.total_stake
    online_keys = set(population.online)
    online = sum(stake for pk, stake in zip(population.pks, population.stakes) if pk in online_keys)
    draws = 30
    weights = [
        sum(select_committee(population.electorate, child_bytes(1, "small-p", i), BLOCK_INTERIM, p).weights)
        for i in range(draws)
    ]
    sigma = math.sqrt(online * p * (1 - p) / draws)
    assert abs(sum(weights) / draws - p * online) <= 3 * sigma


def security_cli(capsys, tau, k_total):
    """Exit code, stdout and stderr of the ``security`` calculator at p = tau / K."""
    code = main(["security", "-h", "0.75", "-a", "0.7", "--tau", repr(tau), "-K", str(k_total)])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sizing_is_checked_on_each_path_that_reads_it(capsys):
    # the calculator and a chain run each derive p = tau / K and the quorum
    code, out, _ = security_cli(capsys, 5000.0, 1_000_000)
    data = json.loads(out)
    assert code == 0 and data["p"] == pytest.approx(0.005) and data["quorum"] == 1500
    sim = ChainSimulation(h=0.75, alpha=0.7, tau=5000.0, theta=0.3, n_nodes=400, stake_dist="fixed:2500")
    assert sim.p == pytest.approx(0.005) and sim.chain.quorum == 1500
    # a config checks h, alpha and theta before any stake is drawn
    with pytest.raises(ValidationError, match=r"^security\.h: honesty threshold must be in"):
        load_config(None, {"security.h": 0.6})
    # p > 1: the calculator and a run each refuse tau above K
    assert security_cli(capsys, 5000.0, 4000) == (2, "", "error: p = tau/K must be in (0, 1), got 1.25\n")
    with pytest.raises(ValidationError, match="^security.tau: must be below the total stake K = 4000"):
        ChainSimulation(tau=5000.0, n_nodes=4, stake_dist="fixed:1000", theta=0.3)


@pytest.mark.parametrize("p", [0.0, 1.0, float("nan")])
def test_p_that_leaves_one_minus_p_at_one_or_zero_is_rejected(p, capsys):
    # p = 0 selects no one and p = 1 every token; NaN is no probability
    reg = KeyRegistry()
    stakes = {reg.generate(b"n%d" % i)[1]: 100 for i in range(4)}
    with pytest.raises(DomainError):
        select_committee(Electorate(stakes, reg), b"seed", BLOCK_INTERIM, p)
    k_total = 10**20
    code, out, err = security_cli(capsys, p * k_total, k_total)
    assert code == 2 and out == "" and err.startswith("error: p = tau/K must be in (0, 1), got ")


@pytest.mark.parametrize("p", [1e-17, 2.0**-54])
def test_p_with_one_minus_p_at_one_draws(p, capsys):
    # 1 - p rounds to 1.0 here; the small-p CDF reads p itself
    assert 1.0 - p == 1.0
    k_total = 10**20
    assert security_cli(capsys, p * k_total, k_total)[0] == 0
    reg = KeyRegistry()
    stakes = {reg.generate(b"n%d" % i)[1]: 10**19 for i in range(4)}
    members = select_committee(Electorate(stakes, reg), b"seed", BLOCK_INTERIM, p)
    assert len(members) > 0
    outcomes = [
        draw_outcome(secret_key(reg, pk), pk, b"seed", BLOCK_INTERIM, 10**19, p) for pk in sorted(stakes)
    ]
    assert members.weights == [o.weight for o in outcomes if o.weight > 0]


def test_smallest_p_with_one_minus_p_below_one_draws(capsys):
    p = 2.0**-53  # 1 - p is the float just below 1
    assert 1.0 - p < 1.0
    assert security_cli(capsys, p * 2.0**60, 2**60)[0] == 0
    reg = KeyRegistry()
    stakes = {reg.generate(b"n%d" % i)[1]: 2**60 for i in range(4)}
    assert len(select_committee(Electorate(stakes, reg), b"seed", BLOCK_INTERIM, p)) > 0
