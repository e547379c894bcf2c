#!/usr/bin/env python3
"""Steadiness self-check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py --seeds 10 --out perfbench/steadiness.json

Runs ``run.py --trace 0`` once per seed and workload of ``BENCHMARK.json``,
in two sets with different seeds (set A uses seeds 1..N, set B N+1..2N),
one process at a time. For each end-to-end metric it reports, per workload:

* the quartile spread of each set, (Q3 - Q1) / median, with the quartiles
  of ``statistics.quantiles(values, n=4)``; a spread wider than the
  metric's bound means a later change on that metric is unresolved rather
  than unchanged;
* whether set B's median is no worse than set A's by more than the bound.

It then runs ``run.py --trace 1`` once per workload (seed 1) and records
the per-layer metrics, each layer's self time as a share of the traced
total, and ``cli.import_s`` as a share of the traced run's reference CLI
child, so the workloads' reasons rest on measurements.

Bounds and metric directions come from ``BENCHMARK.json``. The exit code is
1 when any metric disagrees or spreads past its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETS = 2


def one_run(workload: str, seed: int, seconds: int, trace: int = 0):
    """(result line, detail line) of one ``run.py`` invocation."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    detail, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    result["invocation_s"] = time.perf_counter() - t0
    return result, detail


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(a: float, b: float, better: str) -> float:
    """Share of ``a`` by which ``b`` is worse (negative when better)."""
    return (a - b) / a if better == "higher" else (b - a) / a


# Per-layer times that are not self times of the traced run.
NOT_SELF_TIMES = {"projection.fit_s", "cli.import_s", "synth.generate_s", "synth.write_s",
                  "trace.total_s", "trace.overhead_s"}


def shares(values: dict, cli_wall_s: float) -> dict:
    """Each self time over ``trace.total_s`` (they sum to 1), and
    ``cli.import_s`` over the wall time of the reference CLI child."""
    out = {name: v / values["trace.total_s"] for name, v in values.items()
           if name.endswith("_s") and name not in NOT_SELF_TIMES}
    out["cli.import_s"] = values["cli.import_s"] / cli_wall_s
    return out


def breakdown(workload: str, seconds: int) -> dict:
    """Per-layer metrics of one traced invocation and the shares above."""
    result, detail = one_run(workload, 1, seconds, trace=1)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return {"correct": result["correct"], "cli_wall_s": detail["cli_wall_s"],
            "shares": shares(values, detail["cli_wall_s"]), "metrics": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--out", help="write the record as JSON here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    runs = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for i in range(args.seeds):
            seed = s * args.seeds + i + 1
            for w in workloads:
                result, _ = one_run(w, seed, spec["run_seconds"])
                runs[w][s].append(result)
                sys.stderr.write(
                    f"set {s} seed {seed} {w}: correct={result['correct']} "
                    f"{result['invocation_s']:.1f}s invocation\n"
                )

    ok = True
    report = {"seeds_per_set": args.seeds, "sets": SETS, "workloads": {}}
    for w in workloads:
        rows = {}
        for name, m in metrics.items():
            sets = [[r["metrics"][name]["value"] for r in runs[w][s]] for s in range(SETS)]
            row = {
                "bound": m["bound"],
                "values": sets,
                "median": [statistics.median(v) for v in sets],
                "spread": [spread(v) for v in sets],
            }
            row["steady"] = max(row["spread"]) <= m["bound"]
            row["worse_by"] = worse_by(row["median"][0], row["median"][1], m["better"])
            row["agree"] = row["worse_by"] <= m["bound"]
            ok = ok and row["steady"] and row["agree"]
            rows[name] = row
            print(f"{w:16s} {name:14s} median {row['median']} spread "
                  f"{[round(x, 4) for x in row['spread']]} bound {m['bound']} "
                  f"worse_by {row['worse_by']:+.4f} agree={row['agree']}")
        correct = all(r["correct"] for s in runs[w] for r in s)
        traced = breakdown(w, spec["run_seconds"])
        ok = ok and correct and traced["correct"]
        report["workloads"][w] = {
            "metrics": rows,
            "all_correct": correct,
            "invocation_s": [round(r["invocation_s"], 2) for s in runs[w] for r in s],
            "traced": traced,
        }
    report["ok"] = ok
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
