import random

from hypothesis import given, settings
from hypothesis import strategies as st

from fission_sim.dists import dist_sampler, sample_dist

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
