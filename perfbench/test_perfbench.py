"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from steady import NOT_SELF_TIMES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smoke(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    """One ``--smoke`` invocation of the benchmark from ``cwd``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stderr
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_smoke(workload):
    metrics = result_of(smoke(workload, 0))["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_accounts_for_its_total(workload):
    metrics = result_of(smoke(workload, 1))["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    value = lambda name: metrics[name]["value"]
    self_times = [v["value"] for k, v in metrics.items() if k.endswith("_s") and k not in NOT_SELF_TIMES]
    assert sum(self_times) == pytest.approx(value("trace.total_s"), rel=1e-9)
    assert value("io.records_read") > 0 and value("io.bytes_written") > 0
    if workload == "priors":
        fit_parts = sum(value(f"projection.{part}_s") for part in ("preprocess", "build_pairs", "optimize"))
        assert value("projection.fit_s") == pytest.approx(fit_parts, rel=1e-9)
        assert value("projection.pairs") > 0 and value("clustering.kmeans_iters") > 0
    else:
        assert value("projection.pairs") == 0 and value("geo.species_masked") > 0


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
    done = smoke(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_a_cache_written_beside_the_inputs_fails_every_run(tmp_path):
    """A `run` that writes into its bundle trips the input guard."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    main = tmp_path / "src" / "floratile" / "__main__.py"
    main.write_text(main.read_text(encoding="utf-8").replace(
        "    sys.exit(main())",
        "    from pathlib import Path\n"
        "    predictions = Path(sys.argv[sys.argv.index('--predictions') + 1])\n"
        "    predictions.with_name('run-cache.bin').write_bytes(b'cached')\n"
        "    sys.exit(main())",
    ), encoding="utf-8")
    done = smoke(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["success_ratio"]["value"] == 0
    assert "the input bundle changed during the runs" in done.stderr
