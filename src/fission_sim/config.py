"""Experiment configuration: defaults, file loading, and feasibility checks.

Two formats are accepted: JSON objects with the same dotted keys, or a plain
key-value text format (one ``section.key = value`` per line, ``#`` comments).
Every key has a default, so an empty file is a valid config; unknown keys are
rejected by name so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path

from .dists import parse_dist
from .errors import DomainError, ParseError, ValidationError
from .sortition import check_h_alpha, check_theta_tau, quorum, theta_bounds


@dataclass
class PopulationSettings:
    nodes: int = 400
    stake_dist: str = "fixed:2500"


@dataclass
class SecuritySettings:
    h: float = 0.75
    alpha: float = 0.7
    tau: float = 5000.0
    theta: float = 0.3


@dataclass
class EpochSettings:
    delta_micro: float = 2.0
    delta_interim: float = 5.0
    delta_main: float = 3.0
    delta_leader: float = 1.0
    micro_throughput: float = 500.0  # sub-transactions per second per online member

    @property
    def interim_budget(self) -> float:
        return self.delta_leader + self.delta_micro + self.delta_interim

    @property
    def main_budget(self) -> float:
        return self.delta_leader + self.delta_main


@dataclass
class ChainSettings:
    tx_per_epoch: int = 100
    invalid_fraction: float = 0.0
    offline_rate: float = 0.0


@dataclass
class PartitionSettings:
    n_shard: int = 8
    n_partition: int = 2
    n_e_max: int = 1000
    delta: float = 0.8
    n_rs: int = 3


@dataclass
class RelaySettings:
    relayers: int = 64
    nodes: int = 4096
    cap_dist: str = "uniform:2:64"
    mu: float = 1.0
    mean_msg_size: float = 1.0
    rounds: int = 64
    trials: int = 1
    join_rate: float = 0.0
    leave_rate: float = 0.0
    start: str = "worst"


@dataclass
class DrsSettings:
    nodes: int = 1024
    keys: int = 64
    size_dist: str = "fixed:64"
    cap_dist: str = "uniform:2:64"
    replication: int = 3
    deadline: float = 8.0
    start: str = "concentrated"


_SECTIONS = {
    "population": PopulationSettings,
    "security": SecuritySettings,
    "epochs": EpochSettings,
    "chain": ChainSettings,
    "partition": PartitionSettings,
    "relay": RelaySettings,
    "drs": DrsSettings,
}

# ChainSimulation's keyword keys: each leaf name of the sections that feed the
# chain is unique, so it names its dotted key; population.nodes goes by n_nodes
CHAIN_KEYWORDS = {"seed": "seed"} | {
    "n_nodes" if f.name == "nodes" else f.name: f"{name}.{f.name}"
    for name in ("population", "security", "epochs", "chain", "partition")
    for f in dc_fields(_SECTIONS[name])
}


@dataclass
class SimConfig:
    population: PopulationSettings = field(default_factory=PopulationSettings)
    security: SecuritySettings = field(default_factory=SecuritySettings)
    epochs: EpochSettings = field(default_factory=EpochSettings)
    chain: ChainSettings = field(default_factory=ChainSettings)
    partition: PartitionSettings = field(default_factory=PartitionSettings)
    relay: RelaySettings = field(default_factory=RelaySettings)
    drs: DrsSettings = field(default_factory=DrsSettings)
    seed: int = 0
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        out: dict[str, object] = {"seed": self.seed}
        for name, cls in _SECTIONS.items():
            section = getattr(self, name)
            for f in dc_fields(cls):
                out[f"{name}.{f.name}"] = getattr(section, f.name)
        return out


def _set_key(cfg: SimConfig, key: str, raw: object) -> None:
    if key == "seed":
        cfg.seed = _coerce("seed", raw, "int")
        return
    if "." not in key:
        raise ParseError(f"unknown field {key!r}")
    section_name, _, field_name = key.partition(".")
    cls = _SECTIONS.get(section_name)
    if cls is None:
        raise ParseError(f"unknown field {key!r}")
    section = getattr(cfg, section_name)
    matching = [f for f in dc_fields(cls) if f.name == field_name]
    if not matching:
        raise ParseError(f"unknown field {key!r}")
    setattr(section, field_name, _coerce(key, raw, matching[0].type))


def _coerce(key: str, raw: object, target: str):
    """``raw`` as the field type ``target``, named as a string under
    ``from __future__ import annotations``. A bool is no number, though
    Python counts it as one."""
    try:
        if target == "int" and not isinstance(raw, bool):
            if isinstance(raw, float) and raw != int(raw):
                raise ValueError
            return int(raw)
        if target == "float" and not isinstance(raw, bool):
            return float(raw)
        if target == "str":
            return str(raw)
    except (TypeError, ValueError, OverflowError):  # int(inf) overflows
        pass
    raise ValidationError(key, f"cannot read {raw!r} as {target}")


def _parse_scalar(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text  # bare strings like uniform:2:64


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> SimConfig:
    """Load a config, set each ``key: value`` of ``overrides`` over it, and
    validate the result; with neither, the defaults."""
    cfg = SimConfig()
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as e:
            raise ParseError(f"cannot read config {path}: {e.strerror}") from None
        except UnicodeDecodeError as e:
            raise ParseError(f"cannot read config {path}: {e}") from None
        stripped = text.lstrip()
        if stripped.startswith("{"):
            try:
                data = json.loads(text)
            except json.JSONDecodeError as e:
                raise ParseError(f"bad JSON config: {e}") from None
            if not isinstance(data, dict):
                raise ParseError("JSON config must be an object")
            for key, value in data.items():
                _set_key(cfg, key, value)
        else:
            for lineno, line in enumerate(text.splitlines(), start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ParseError(f"line {lineno}: expected 'key = value', got {line!r}")
                key, _, value = line.partition("=")
                _set_key(cfg, key.strip(), _parse_scalar(value.strip()))
    for key, value in (overrides or {}).items():
        _set_key(cfg, key, value)
    validate_config(cfg)
    return cfg


# the most nodes a chain, sortition, relay or retrieval run holds: each node
# is a slot in every per-node column (a stake draw, a key, a relay slot),
# which is allocated before the first epoch or round; 2^24 is also the
# identifier space's cap, relay.MAX_IDENTIFIERS. It caps the relayers too,
# since each takes one identifier, and the retrieval keys, each of which
# gets a size and its holders drawn when the instance is built
MAX_NODES = 1 << 24
# the most shards a chain's state holds at its start: each shard is a tree
# slot, three per-block lists and three header roots, allocated when the
# chain is built, so build time and memory grow linearly in the count, and a
# count far past the cap runs out of memory before the first epoch
MAX_SHARDS = 1 << 16
# the highest relay.join_rate (a Poisson mean of joiners per round): each
# joiner is one more assignment slot and one more draw in every later round
MAX_JOIN_RATE = float(MAX_NODES)

_FINITE = ("finite", lambda v: True)
_POSITIVE = ("> 0", lambda v: v > 0)
_AT_LEAST_0 = (">= 0", lambda v: v >= 0)
_AT_LEAST_1 = (">= 1", lambda v: v >= 1)
_UNIT = ("in [0, 1]", lambda v: 0 <= v <= 1)
_NODE_COUNT = (f"in [1, {MAX_NODES}]", lambda v: 1 <= v <= MAX_NODES)
_SHARD_COUNT = (f"in [1, {MAX_SHARDS}]", lambda v: 1 <= v <= MAX_SHARDS)

# key -> (rule, test); a float key must also be finite, so NaN and +-inf fail
# every rule. sortition's domain rules hold the other security ranges.
_RULES = {
    "population.nodes": _NODE_COUNT,
    "security.h": _FINITE,
    "security.alpha": _FINITE,
    "security.tau": _POSITIVE,
    "security.theta": _FINITE,
    "epochs.delta_micro": _POSITIVE,
    "epochs.delta_interim": _POSITIVE,
    "epochs.delta_main": _POSITIVE,
    "epochs.delta_leader": _POSITIVE,
    "epochs.micro_throughput": _POSITIVE,
    "chain.tx_per_epoch": _AT_LEAST_0,
    "chain.invalid_fraction": _UNIT,
    "chain.offline_rate": ("in [0, 1)", lambda v: 0 <= v < 1),
    "partition.n_shard": _SHARD_COUNT,
    "partition.n_e_max": _AT_LEAST_1,
    "partition.delta": ("in (0, 1)", lambda v: 0 < v < 1),
    "partition.n_rs": _AT_LEAST_1,
    "relay.relayers": _NODE_COUNT,
    "relay.nodes": _NODE_COUNT,
    "relay.mu": _POSITIVE,
    "relay.mean_msg_size": _POSITIVE,
    "relay.rounds": _AT_LEAST_0,
    "relay.trials": _AT_LEAST_1,
    "relay.join_rate": (f"in [0, {MAX_JOIN_RATE:.0f}]", lambda v: 0 <= v <= MAX_JOIN_RATE),
    "relay.leave_rate": _UNIT,
    "relay.start": ("one of 'worst', 'random'", lambda v: v in ("worst", "random")),
    "drs.nodes": _NODE_COUNT,
    "drs.keys": _NODE_COUNT,
    "drs.replication": _AT_LEAST_1,
    "drs.deadline": _POSITIVE,
    "drs.start": ("one of 'uniform', 'concentrated'", lambda v: v in ("uniform", "concentrated")),
}


def validate_config(cfg: SimConfig) -> None:
    """Hard errors for unusable values, warnings for jointly infeasible ones."""
    for key, (rule, test) in _RULES.items():
        section, _, name = key.partition(".")
        value = getattr(getattr(cfg, section), name)
        if (isinstance(value, float) and not math.isfinite(value)) or not test(value):
            raise ValidationError(key, f"must be {rule}, got {value!r}")

    sec = cfg.security
    try:
        # p = tau / K waits for the population's stake draw
        check_h_alpha(sec.h, sec.alpha)
        check_theta_tau(sec.theta, sec.tau)
    except DomainError as e:
        raise ValidationError(f"security.{e.parameter}", str(e)) from None
    # a quorum of 0 confirms any block, even one no honest member voted for
    if quorum(sec.theta, sec.tau) < 1:
        raise ValidationError(
            "security.tau",
            f"must give a quorum ceil(theta * tau) of at least 1, "
            f"got theta * tau = {sec.theta * sec.tau:.3g}",
        )

    # theta below the activity-independent lower bound can never be safe
    universal_lo = theta_bounds(sec.h, 1.0, sec.tau)[0]
    if sec.theta <= universal_lo:
        raise ValidationError(
            "security.theta",
            f"{sec.theta} is at or below the universal lower bound {universal_lo:.5f} "
            f"for h={sec.h}, tau={sec.tau}",
        )
    lo, hi = theta_bounds(sec.h, sec.alpha, sec.tau)
    if not lo < sec.theta < hi:
        cfg.warnings.append(
            f"security: theta={sec.theta} outside feasible window ({lo:.5f}, {hi:.5f}) "
            f"at h={sec.h}, alpha={sec.alpha}, tau={sec.tau}"
        )

    part = cfg.partition
    if not 1 <= part.n_partition <= part.n_shard:
        raise ValidationError(
            "partition.n_partition",
            f"must be in [1, partition.n_shard = {part.n_shard}], got {part.n_partition!r}",
        )

    for key, spec in (
        ("population.stake_dist", cfg.population.stake_dist),
        ("relay.cap_dist", cfg.relay.cap_dist),
        ("drs.size_dist", cfg.drs.size_dist),
        ("drs.cap_dist", cfg.drs.cap_dist),
    ):
        try:
            parse_dist(spec)
        except ParseError as e:
            raise ValidationError(key, str(e)) from None
