#!/usr/bin/env python3
"""floratile benchmark: timed `python -m floratile run` children on seeded bundles.

    python3 perfbench/run.py --workload tiles-geo --seed 1 --seconds 16 --trace 0

With ``--trace 0`` every timed run is a fresh, untraced CLI child process,
started one at a time with ``--threads 1``, on a synthetic bundle that this
script generates from ``--seed`` with ``floratile.synth``. It prints the
end-to-end metrics. With ``--trace 1`` it replays the pipeline stage by
stage in this process (see ``trace_run.py``) and prints the per-layer
metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the raw samples. ``--smoke`` shrinks every workload to a few dozen
images for the benchmark's own tests. The script exits with code 2, and
prints no result, when the checkout has no ``src/floratile`` to measure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

from bench import (
    MIN_SAMPLES,
    RUN_CAL_EXPONENT,
    SMOKE_IMAGES,
    SRC,
    WORK,
    WORKLOADS,
    Fixture,
    Workload,
    calibrated,
    calibration_s,
    check_outputs,
    child_env,
    cli_argv,
    file_hashes,
    make_bundle,
    spawn,
)


def measure_end_to_end(wl: Workload, fixture: Fixture, work: Path, seconds: float):
    """One untimed warm-up, then timed children until ``seconds`` pass.

    Every child writes to a fresh ``--out``; its outputs must pass the
    output check and match the warm-up's bytes, or the run counts as failed.
    A calibration runs before the first child and after every child.
    """
    env = child_env()

    def child(name: str):
        out = work / f"out-{name}"
        run = spawn(["-m", "floratile", *cli_argv(wl, fixture.dir, out)], env, work / name)
        problems, score = check_outputs(run, out, wl, fixture)
        hashes = file_hashes(out)
        shutil.rmtree(out, ignore_errors=True)
        return run, problems, score, hashes

    _, warm_problems, score, reference = child("warmup")

    samples, failures, cals = [], [], [calibration_s()]
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_SAMPLES or time.perf_counter() < deadline:
        run, problems, _, hashes = child(f"run-{len(samples)}")
        cals.append(calibration_s())
        if not problems and hashes != reference:
            problems.append("outputs differ from the warm-up run's bytes")
        if problems:
            failures.append({"run": len(samples), "problems": problems})
        samples.append(run)
    return samples, cals, failures, score, warm_problems


def end_to_end_metrics(wl: Workload, run_s: list, samples, failed: int, setup_s: list, score) -> dict:
    run_s = statistics.median(run_s)
    return {
        "run_s": (run_s, "s"),
        "images_per_s": (wl.n_images / run_s, "1/s"),
        "peak_rss_mb": (statistics.median([c.maxrss_kb / 1024.0 for c in samples]), "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
        "macro_f1": (score if score is not None else 0.0, "ratio"),
        "success_ratio": ((len(samples) - failed) / len(samples), "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = parser.parse_args(argv)

    if not (SRC / "floratile" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no floratile sources under {SRC}; nothing to measure\n")
        return 2
    # One BLAS thread in this process and its children: the load is one
    # single-threaded process, and the projection's bytes then never depend
    # on how many cores the machine has.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload]
    if args.smoke:
        wl = dataclasses.replace(wl, n_images=SMOKE_IMAGES)
    label = f"{args.workload}-seed{args.seed}"
    work = WORK / f"{label}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        fixture = make_bundle(wl, args.seed, work)
        problems = fixture.problems
        listing = file_hashes(fixture.dir)
        if args.trace:
            from trace_run import measure_layers

            attempted, failures, metrics, detail = measure_layers(wl, label, fixture, work, args.seconds)
        else:
            samples, run_cals, failures, score, warm_problems = measure_end_to_end(
                wl, fixture, work, args.seconds
            )
            wall_s = [c.wall_s for c in samples]
            run_s, setup_s = calibrated(wall_s, run_cals, RUN_CAL_EXPONENT), fixture.setup_s()
            attempted = len(samples)
            detail = {
                "run_s": run_s, "wall_s": wall_s, "run_calibration_s": run_cals,
                "setup_s": setup_s, "setup_generate_s": fixture.generate_s,
                "setup_write_s": fixture.write_s, "setup_calibration_s": fixture.calibration_s,
                "bundle_generate_write_s": fixture.bundle_s,
                "peak_rss_mb": [c.maxrss_kb / 1024.0 for c in samples],
            }
            problems += [f"warm-up: {p}" for p in warm_problems]
        if file_hashes(fixture.dir) != listing:
            problems.append("the input bundle changed during the runs")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems + [p for f in failures for p in f["problems"][:1]]:
        sys.stderr.write(f"perfbench[{label}]: {problem}\n")
    # A broken input guard or set-up invalidates every run of this invocation.
    failed = attempted if problems else len(failures)
    if not args.trace:
        metrics = end_to_end_metrics(wl, run_s, samples, failed, setup_s, score)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "n_images": wl.n_images,
        "trace": args.trace, "samples": attempted, "failures": failures,
        "problems": problems, **detail,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
