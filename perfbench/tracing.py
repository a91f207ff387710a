"""Span tracing of fission_sim from outside the package.

The tracer replaces selected public functions and methods of fission_sim with
wrappers while a traced step runs, and puts the originals back after it. A
function imported by name into several modules (``sha3`` lives in crypto,
ledger, chain, merkle, consensus and seeding) is replaced in every loaded
module namespace that holds it, so no call path escapes.

Two kinds of wrapper exist. A *span* wrapper records (name, start, end,
parent, step) for each call and counts it; a *count* wrapper only counts,
because functions called tens of thousands of times per step (``sha3``,
``voting_power``, ``apply_eager``) would otherwise cost more to trace than
to run. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

PACKAGE = "fission_sim"
# Modules whose namespaces are searched for imported copies of a target.
PACKAGE_MODULES = (
    "crypto", "merkle", "ledger", "chain", "partitioning", "sortition",
    "consensus", "relay", "drs", "seeding",
)

# A hook sees the step's counter, the call's positional arguments and its
# result, and adds counts the call reveals (leaves hashed, switches made).
Hook = Callable[[Counter, tuple, object], None]


@dataclass(frozen=True)
class Target:
    """One function or method to wrap: ``where`` is "module:attr" or
    "module:Class.method"; ``name`` is the metric prefix; ``span`` selects a
    span wrapper over a count wrapper."""

    where: str
    name: str
    span: bool = True
    hook: Hook | None = None


def _members(counts: Counter, args: tuple, result) -> None:
    counts["sortition.members"] += len(result)


def _leaves(counts: Counter, args: tuple, result) -> None:
    counts["merkle.leaves"] += len(args[0])


def _votes(counts: Counter, args: tuple, result) -> None:
    counts["consensus.votes"] += len(args[1].header.votes)


def _switches(counts: Counter, args: tuple, result) -> None:
    counts["relay.switches"] += result


def _drs_report(counts: Counter, args: tuple, result) -> None:
    counts["drs.migrations"] += result.migrations
    counts["drs.probes"] += result.probes


TARGETS = (
    Target("sortition:select_committee", "sortition.select_committee", hook=_members),
    Target("sortition:voting_power", "sortition.voting_power", span=False),
    Target("sortition:leader_ticket", "sortition.leader_ticket"),
    Target("consensus:run_epoch", "consensus.run_epoch"),
    Target("consensus:micro_round", "consensus.micro_round"),
    Target("consensus:assemble_interim", "consensus.assemble"),
    Target("consensus:assemble_main", "consensus.assemble"),
    Target("consensus:collect_votes", "consensus.collect_votes"),
    Target("consensus:ChainSimulation.generate_transactions", "consensus.generate_transactions"),
    Target("ledger:LedgerState.clone", "ledger.clone"),
    Target("ledger:split_transaction", "ledger.split_transaction"),
    Target("ledger:make_transfer", "ledger.make_transfer"),
    Target("ledger:apply_eager", "ledger.apply_eager", span=False),
    Target("ledger:apply_lazy", "ledger.apply_lazy", span=False),
    Target("chain:Chain.append_block", "chain.append_block", hook=_votes),
    Target("chain:compute_root_arrays", "chain.compute_root_arrays"),
    Target("chain:Chain.export_jsonl", "chain.export_jsonl"),
    Target("merkle:merkle_root", "merkle.merkle_root", hook=_leaves),
    Target("crypto:sha3", "crypto.sha3", span=False),
    Target("crypto:sign", "crypto.sign", span=False),
    Target("crypto:vrf_eval", "crypto.vrf_eval", span=False),
    Target("partitioning:split_shards", "partitioning.split_shards"),
    Target("relay:synchronous_round", "relay.synchronous_round", hook=_switches),
    Target("relay:apply_churn", "relay.apply_churn"),
    Target("relay:potential", "relay.potential"),
    Target("relay:expected_delay", "relay.expected_delay"),
    Target("drs:simulate_drs", "drs.simulate_drs"),
    Target("drs:build_instance", "drs.build_instance"),
    Target("drs:drs_round", "drs.drs_round", hook=_drs_report),
    Target("drs:underloaded_count", "drs.underloaded_count"),
    Target("drs:drs_potential", "drs.drs_potential"),
    Target("drs:DrsState.heights", "drs.heights", span=False),
)

STEP = "step"


class Tracer:
    """Span and count recorder plus the patch set that feeds it.

    Spans are held in parallel lists (index = span id). ``counts[step]`` holds
    the calls and hook counts of one traced step.
    """

    def __init__(self, targets=TARGETS):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.steps: list[int] = []
        self.counts: dict[int, Counter] = {}
        self._stack: list[int] = []
        self._step = -1
        self._counter: Counter = Counter()
        self._root = -1
        self._patches = self._plan(targets)
        self.installed = False

    # -- patching --

    def _plan(self, targets) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every place a target lives."""
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in PACKAGE_MODULES]
        patches = []
        for target in targets:
            mod_name, attr = target.where.split(":")
            owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                patches.append((owner, attr, original, self._wrap(original, target)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, target)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    patches.append((module, attr, original, wrapper))
        return patches

    def _wrap(self, fn, target: Target):
        name, hook = target.name, target.hook
        if not target.span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self._counter[name] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            self._counter[name] += 1
            if hook is not None:
                hook(self._counter, args, result)
            return result
        return spanned

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self.installed = False

    def patched_places(self) -> list[tuple[object, str, object]]:
        return [(owner, attr, original) for owner, attr, original, _ in self._patches]

    # -- recording --

    def open(self, name: str) -> int:
        span = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.steps.append(self._step)
        self.ends.append(0.0)
        self._stack.append(span)
        self.starts.append(time.perf_counter())
        return span

    def close(self, span: int) -> None:
        self.ends[span] = time.perf_counter()
        self._stack.pop()

    def begin_step(self, step: int) -> None:
        """Install the wrappers and open the step's root span."""
        self._step = step
        self._counter = self.counts.setdefault(step, Counter())
        self.install()
        self._root = self.open(STEP)

    def end_step(self) -> float:
        """Close the root span, restore the originals; returns step seconds."""
        self.close(self._root)
        self.uninstall()
        return self.ends[self._root] - self.starts[self._root]

    # -- analysis --

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children.

        Spans of one thread nest properly, so children cover disjoint parts of
        their parent and their durations can simply be summed."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i] for i in range(len(self.names))]

    def totals(self, weights: dict[int, float]) -> tuple[Counter, Counter]:
        """(inclusive, self) seconds per span name over the steps in
        ``weights``, each span scaled by its step's weight."""
        inclusive, own = Counter(), Counter()
        for i, s in enumerate(self.self_times()):
            weight = weights.get(self.steps[i])
            if weight is None:
                continue
            name = self.names[i]
            inclusive[name] += weight * (self.ends[i] - self.starts[i])
            own[name] += weight * s
        return inclusive, own

    def write(self, path) -> None:
        """All spans as gzipped CSV: id, name, start, end, parent, step."""
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start", "end", "parent", "step"])
            for i, name in enumerate(self.names):
                out.writerow([i, name, repr(self.starts[i]), repr(self.ends[i]),
                              self.parents[i], self.steps[i]])
