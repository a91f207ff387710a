import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fission_sim.dists import dist_sampler, parse_dist, sample_dist

FINITE = st.floats(-1e6, 1e6, allow_nan=False)
SPECS = st.one_of(
    FINITE.map(lambda v: f"fixed:{v!r}"),
    st.tuples(FINITE, st.floats(0, 1e6)).map(lambda t: f"uniform:{t[0]!r}:{t[0] + t[1]!r}"),
    st.floats(0.1, 10).map(lambda shape: f"pareto:{shape!r}"),
)


def spelled_out(spec, rng, integer, minimum):
    """One draw through ``random.Random``'s own distribution methods."""
    name, *params = spec.split(":")
    params = [float(x) for x in params]
    if name == "fixed":
        value = params[0]
    elif name == "uniform":
        value = rng.uniform(*params)
    else:
        value = (minimum if minimum is not None else 1.0) * rng.paretovariate(params[0])
    if minimum is not None:
        value = max(minimum, value)
    return int(round(value)) if integer else value


@settings(max_examples=300, deadline=None)
@given(
    spec=SPECS,
    integer=st.booleans(),
    minimum=st.one_of(st.none(), st.floats(-100, 100)),
    seed=st.integers(0, 2**32),
    n=st.integers(0, 12),
)
def test_n_single_draws_equal_one_draw_of_n(spec, integer, minimum, seed, n):
    singles_rng, batch_rng, reference_rng = (random.Random(seed) for _ in range(3))
    singles = [sample_dist(spec, singles_rng, integer, minimum) for _ in range(n)]
    batch = dist_sampler(spec, integer, minimum)(batch_rng, n)
    assert singles == batch
    assert batch == [spelled_out(spec, reference_rng, integer, minimum) for _ in range(n)]
    # every draw took the same random numbers
    assert singles_rng.getstate() == batch_rng.getstate() == reference_rng.getstate()


def three_pass(spec, integer, minimum):
    """The sampler as it was before drawing in one pass: the raw values, then
    the clamp to the minimum, then the rounding, each a list of its own."""
    name, params = parse_dist(spec)
    if name == "fixed":
        value = params[0] if minimum is None else max(minimum, params[0])
        value = int(round(value)) if integer else value
        return lambda rng, n: [value] * n
    if name == "uniform":
        lo, hi = params

        def raw(rng, n):
            return [lo + (hi - lo) * rng.random() for _ in range(n)]
    else:
        base = minimum if minimum is not None else 1.0

        def raw(rng, n):
            return [base * rng.paretovariate(params[0]) for _ in range(n)]

    def draw(rng, n):
        values = raw(rng, n)
        if minimum is not None:
            values = [max(minimum, v) for v in values]
        return [int(round(v)) for v in values] if integer else values

    return draw


KINDS = {
    "fixed": FINITE.map(lambda v: f"fixed:{v!r}"),
    "uniform": st.tuples(FINITE, st.floats(0, 1e6)).map(
        lambda t: f"uniform:{t[0]!r}:{t[0] + t[1]!r}"
    ),
    "pareto": st.floats(0.1, 10).map(lambda shape: f"pareto:{shape!r}"),
}


@pytest.mark.parametrize("with_minimum", [True, False])
@pytest.mark.parametrize("integer", [True, False])
@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32), n=st.integers(0, 12))
def test_one_pass_sampler_equals_three_passes(kind, integer, with_minimum, data, seed, n):
    spec = data.draw(KINDS[kind])
    # an int minimum that wins the clamp is returned as an int
    minimum = data.draw(st.integers(-100, 100) | st.floats(-100, 100)) if with_minimum else None
    rng, old_rng = random.Random(seed), random.Random(seed)
    values = dist_sampler(spec, integer, minimum)(rng, n)
    old = three_pass(spec, integer, minimum)(old_rng, n)
    assert [(type(v), repr(v)) for v in values] == [(type(v), repr(v)) for v in old]
    assert rng.getstate() == old_rng.getstate()


@pytest.mark.parametrize("spec", ["fixed:5", "uniform:5:5"])
def test_a_draw_that_ties_the_minimum_gives_the_minimum(spec):
    # max(minimum, v) keeps the minimum on a tie, so an int minimum stays an int
    values = dist_sampler(spec, integer=False, minimum=5)(random.Random(1), 3)
    assert [(type(v), v) for v in values] == [(int, 5)] * 3
