"""fission-sim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the workload's inputs from the
seed, runs steps one after another in this single process (a closed loop, no
threads) for S seconds and at least MIN_STEPS steps, checks the outputs, and
prints every metric by name with its unit. The last line of standard output
is one JSON object: correct, attempted, failed and metrics (the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1). A result file
with provenance, samples and digests goes to perfbench/out/.

With --trace 1, every other step runs with the tracer's wrappers installed;
the steps in between are untraced, so the run reports its own overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
from report import END_TO_END, PER_LAYER, Step, end_to_end, per_layer, provenance
from tracing import Tracer
from workloads import CHECK_STEPS, DEFAULT_SEED, WORKLOADS, digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"

# At least 100 samples leave ten beyond the p90. 120 puts the p90 rank inside
# chain-committee's run of full-collection steps (about one step in four
# after step 50) instead of on its edge, where it jumped between runs. The
# first MIN_STEPS steps are also the window exact counts are taken over.
MIN_STEPS = 120
HARD_CAP_S = 150.0
SETUP_PROBES = 4
EXPORT_STEP = -1


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time one set-up and print the seconds")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def set_up(name: str, seed: int):
    """Build a workload; returns it and the set-up time in reference seconds,
    clocked from before fission_sim is imported."""
    before = calibrate.unit()
    start = time.perf_counter()
    workload = WORKLOADS[name]()
    workload.setup(seed)
    took = time.perf_counter() - start
    return workload, took * calibrate.scale((before + calibrate.unit()) / 2)


def probe_setup(name: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter, so imports count."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_steps(workload, seconds: float, min_steps: int, tracer=None):
    """Closed loop until the steps took ``seconds`` reference seconds and
    ``min_steps`` steps ran (or HARD_CAP_S of wall time passed).

    A calibration unit runs before each step and after the last; a step's
    scale comes from the median of the unit before the previous step, the
    unit before this step and the unit after it, so one unit that the
    machine happened to stall in does not skew a step. Returns (steps,
    observations, peak RSS in KB after ``min_steps`` steps, failure). A step
    that raises ends the run: the state it leaves behind is not trustworthy.
    """
    steps, observations, failure = [], {}, None
    peak_rss_kb = None
    reference = 0.0
    start = time.perf_counter()
    cal = [calibrate.unit(), calibrate.unit()]
    with calibrate.GcClock() as collector:
        while True:
            i = len(steps)
            if time.perf_counter() - start >= HARD_CAP_S or (reference >= seconds and i >= min_steps):
                break
            traced = tracer is not None and i % 2 == 0
            gc_before, gen2_before = collector.seconds, collector.gen2
            try:
                if traced:
                    tracer.begin_step(i)
                    try:
                        observations[i] = workload.step()
                    finally:
                        took = tracer.end_step()
                else:
                    t0 = time.perf_counter()
                    observations[i] = workload.step()
                    took = time.perf_counter() - t0
            except Exception:  # a failed step is counted and reported, not fatal
                failure = f"step {i}: {traceback.format_exc()}"
                steps.append(Step(i, 0.0, 0.0, 1.0, 0, traced))
                break
            cal.append(calibrate.unit())
            step = Step(i, took, collector.seconds - gc_before, calibrate.scale(statistics.median(cal[-3:])),
                        collector.gen2 - gen2_before, traced)
            steps.append(step)
            reference += step.reference
            if len(steps) == min_steps:
                peak_rss_kb = max_rss_kb()
    return steps, observations, peak_rss_kb or max_rss_kb(), failure


def max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def golden_digest(name: str, seed: int, workload, traced: bool) -> str:
    """Digest of the first CHECK_STEPS steps for DEFAULT_SEED: taken from this
    run when it used that seed, else from a separate short run."""
    if seed != DEFAULT_SEED:
        workload, _ = set_up(name, DEFAULT_SEED)
        tracer = Tracer() if traced else None
        for i in range(CHECK_STEPS):
            if tracer:
                tracer.begin_step(i)
            try:
                workload.step()
            finally:
                if tracer:
                    tracer.end_step()
        workload.finish()
    return digest(workload.prefix_bytes(CHECK_STEPS))


def check_outputs(name: str, seed: int, workload, traced: bool, golden: dict) -> tuple[list[str], dict]:
    problems = list(workload.problems())
    digests = {"prefix": digest(workload.prefix_bytes(CHECK_STEPS))}
    digests["golden"] = golden_digest(name, seed, workload, traced)
    if digests["golden"] != golden.get(name):
        problems.append(f"golden digest {digests['golden']} != recorded {golden.get(name)}")
    return problems, digests


def measure(name: str, seed: int, seconds: float, trace: bool, golden: dict,
            min_steps: int = MIN_STEPS, setup_probes: int = SETUP_PROBES) -> tuple[dict, object]:
    """One benchmark run; returns (result, tracer or None)."""
    setup_samples = [] if trace else [probe_setup(name, seed) for _ in range(setup_probes)]
    workload, took = set_up(name, seed)
    setup_samples.append(took)

    tracer = Tracer() if trace else None
    steps, observations, peak_rss_kb, failure = run_steps(workload, seconds, min_steps, tracer)

    if tracer:  # the export, traced as a step of its own
        before = calibrate.unit()
        tracer.begin_step(EXPORT_STEP)
        try:
            workload.finish()
        finally:
            tracer.end_step()
        export_scale = calibrate.scale((before + calibrate.unit()) / 2)
    else:
        workload.finish()
    problems, digests = check_outputs(name, seed, workload, trace, golden)
    if failure:
        problems.insert(0, failure)

    attempted = len(steps)
    failed = attempted if problems else 0
    completed = steps[: attempted - (1 if failure else 0)]
    if trace:
        values = per_layer(tracer, completed, observations, min_steps, {EXPORT_STEP: export_scale})
        units = {k: unit for k, (unit, _) in PER_LAYER.items()}
    else:
        items = sum(o["items"] for o in observations.values())
        values = end_to_end(setup_samples, [s.reference for s in completed], items, peak_rss_kb)
        units = END_TO_END

    cls = WORKLOADS[name]
    result = {
        "workload": name,
        "why": cls.why,
        "params": cls.params,
        "item": cls.item,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": provenance(ROOT),
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": problems,
        "digests": digests,
        "reference_ms_per_unit": calibrate.REFERENCE_MS,
        "setup_samples_s": setup_samples,
        "step_wall_ms": [1000.0 * s.wall for s in steps],
        "step_gc_ms": [1000.0 * s.gc for s in steps],
        "step_scale": [s.scale for s in steps],
        "traced_steps": [s.index for s in steps if s.traced],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    if trace:
        result["layer_map"] = {k: moves for k, (_, moves) in PER_LAYER.items()}
    return result, tracer


def main(argv=None) -> int:
    if not (SRC / "fission_sim" / "__init__.py").is_file():
        print(f"error: no fission_sim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    if args.setup_probe:
        print(repr(set_up(args.workload, args.seed)[1]))
        return 0

    golden = json.loads(GOLDEN.read_text())
    result, tracer = measure(args.workload, args.seed, args.seconds, bool(args.trace), golden)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer:
        tracer.write(OUT / f"{stem}.spans.csv.gz")

    for problem in result["problems"]:
        print(f"check failed: {problem}")
    print(f"workload = {args.workload}  seed = {args.seed}  steps = {result['attempted']}")
    for k, m in result["metrics"].items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {result['failed_frac']:.6g} ({result['failed']}/{result['attempted']})")
    print(f"digest.prefix = {result['digests']['prefix']}")
    print(f"digest.golden = {result['digests']['golden']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
