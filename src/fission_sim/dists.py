"""Tiny distribution-spec parser for CLI/config knobs.

Specs look like ``fixed:32``, ``uniform:2:64``, or ``pareto:1.5``; sampling is
driven by a caller-owned random.Random so every draw is reproducible.
"""

from __future__ import annotations

import math
import random
from typing import Callable

from .errors import ParseError


# parameter count of each distribution
_ARITY = {"fixed": 1, "uniform": 2, "pareto": 1}


def parse_dist(spec: str):
    """Return (name, params) after validating the spec string; every
    parameter must be a finite number."""
    parts = spec.split(":")
    name = parts[0]
    if _ARITY.get(name) != len(parts) - 1:
        raise ParseError(f"unknown distribution spec {spec!r}")
    try:
        params = tuple(float(part) for part in parts[1:])
    except ValueError:
        raise ParseError(f"non-numeric parameter in distribution spec {spec!r}") from None
    if not all(math.isfinite(x) for x in params):
        raise ParseError(f"non-finite parameter in distribution spec {spec!r}")
    if name == "uniform" and params[0] > params[1]:
        raise ParseError(f"uniform bounds out of order in {spec!r}")
    if name == "uniform" and not math.isfinite(params[1] - params[0]):
        raise ParseError(f"uniform span past the float range in {spec!r}")
    if name == "pareto" and params[0] <= 0:
        raise ParseError(f"pareto shape must be positive in {spec!r}")
    return name, params


def sample_dist(spec: str, rng: random.Random, integer: bool = True, minimum: float | None = None):
    """Draw one value from a spec string; pareto draws are scaled by the minimum."""
    return dist_sampler(spec, integer, minimum)(rng, 1)[0]


def dist_sampler(
    spec: str, integer: bool = True, minimum: float | None = None
) -> Callable[[random.Random, int], list]:
    """Parse a spec once; the returned ``draw(rng, n)`` gives n draws, each at
    least ``minimum`` when one is given; pareto draws are scaled by it. An
    integer draw past the float range raises ``ParseError``."""
    name, params = parse_dist(spec)
    if name == "fixed":
        value = params[0] if minimum is None else max(minimum, params[0])
        value = int(round(value)) if integer else value
        return lambda rng, n: [value] * n
    # one comprehension draws each value and clamps it to the minimum;
    # v if v > minimum else minimum is what max(minimum, v) returns
    if name == "uniform":
        lo, hi = params
        span = hi - lo  # rng.uniform(lo, hi) is lo + (hi - lo) * rng.random()

        def raw(rng: random.Random, n: int) -> list:
            unit = rng.random
            if minimum is None:
                return [lo + span * unit() for _ in range(n)]
            return [v if (v := lo + span * unit()) > minimum else minimum for _ in range(n)]
    else:  # pareto
        base = minimum if minimum is not None else 1.0
        shape = params[0]

        def raw(rng: random.Random, n: int) -> list:
            pareto = rng.paretovariate
            if minimum is None:
                return [base * pareto(shape) for _ in range(n)]
            return [v if (v := base * pareto(shape)) > minimum else minimum for _ in range(n)]

    if not integer:
        return raw

    def draw(rng: random.Random, n: int) -> list:
        try:
            # round(v) of a float or an int is already an int
            return list(map(round, raw(rng, n)))
        except OverflowError:  # an infinite draw, or a pareto power past the float range
            raise ParseError(f"distribution spec {spec!r} draws a value past the float range") from None

    return draw
