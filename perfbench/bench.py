"""Shared pieces of the floratile benchmark: workloads, set-up, children, checks.

Nothing here imports floratile at module level: ``run.py`` first checks
that the checkout has sources to measure and puts them on ``sys.path``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
RESULTS = BENCH_DIR / "_results"

N_SPECIES = 200
NOISE = 0.5
SETUP_REPS = 3
# Images in each timed set-up copy. Set-up costs 3-9 times as much per image
# as a run, so full-size copies would take the time the runs need.
SETUP_IMAGES = 1000
MIN_SAMPLES = 3
# Above the projector's n_neighbors (10), so --priors runs at smoke size too.
SMOKE_IMAGES = 36


@dataclass(frozen=True)
class Workload:
    n_images: int
    predictions: str
    mode: str
    max_labels: int
    geo: bool = False
    priors: bool = False
    keep_intermediates: bool = False


# Sizes make the measured layers several times `import floratile.cli` and
# keep one invocation near 30 s on a 2-core machine, so 70 of them fit in
# under an hour; README.md gives the reason for each workload.
WORKLOADS = {
    "tiles-geo": Workload(6000, "tile_predictions.ndjson", "tiling", 10, geo=True),
    "priors": Workload(600, "tile_predictions.ndjson", "tiling", 10, priors=True),
    "image-geo-write": Workload(
        10000, "image_predictions.ndjson", "no-tiling", 20, geo=True, keep_intermediates=True
    ),
}
PRIORS_K = 3


def cli_argv(wl: Workload, bundle: Path, out: Path) -> list:
    """The `floratile run` arguments of one timed child."""
    argv = [
        "run", "--mode", wl.mode, "--threads", "1",
        "--catalog", str(bundle / "catalog.csv"),
        "--predictions", str(bundle / wl.predictions),
        "--truth", str(bundle / "truth.csv"),
        "--out", str(out),
    ]
    if wl.geo:
        argv += ["--geo", "--observations", str(bundle / "observations.csv"),
                 "--geo-regions", str(bundle / "geo_regions.json")]
    if wl.priors:
        argv += ["--priors", "--priors-k", str(PRIORS_K),
                 "--embeddings", str(bundle / "embeddings.ndjson"),
                 "--registry", str(bundle / "regions.txt")]
    if wl.keep_intermediates:
        argv.append("--keep-intermediates")
    return argv


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def file_hashes(directory: Path) -> dict:
    """{relative path: sha256} of every file under ``directory``."""
    out = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(directory))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


# --- calibrated time -------------------------------------------------------

# The host's other tenants make this VM's CPU up to 1.7x faster or slower for
# seconds to minutes at a time. A fixed, stdlib-only loop run right before and
# after each timed interval tracks that speed, so intervals are reported in
# seconds of a machine on which the loop takes CAL_REF_S, about its median on
# a 2-vCPU Intel Xeon VM. The loop slows more than the work it calibrates:
# fitted on log-log, a child's wall time moves with the loop's time to the
# power 0.4-0.7 and a set-up copy's to the power 0.7-0.9, so each kind of
# interval is scaled by (CAL_REF_S / loop time) to its own exponent.
# README.md gives the measurements behind the exponents.
CAL_REF_S = 0.125
RUN_CAL_EXPONENT = 0.6
SETUP_CAL_EXPONENT = 1.0


def calibration_s() -> float:
    """Wall time of a fixed loop of json, dict and sort work, like the pipeline's.

    The cyclic garbage collector is off during the loop, so its time does not
    depend on how many objects this process holds.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        lines = [
            json.dumps({"image_id": f"Q{i:05d}", "probs": [[(i * 7 + j) % 200, 1.0 / (j + 2)] for j in range(3)]})
            for i in range(12000)
        ]
        mass: dict = {}
        for line in lines:
            for idx, prob in json.loads(line)["probs"]:
                mass[idx] = mass.get(idx, 0.0) + prob
        sorted(lines, key=lambda text: text[::-1])
        return time.perf_counter() - t0
    finally:
        gc.enable()


def calibrated(walls: list, cals: list, exponent: float) -> list:
    """Scale interval i by (CAL_REF_S / mean of calibrations i and i + 1) ** exponent."""
    return [w * (CAL_REF_S * 2 / (cals[i] + cals[i + 1])) ** exponent for i, w in enumerate(walls)]


# --- set-up -----------------------------------------------------------------

@dataclass
class Fixture:
    """A workload's bundle on disk, what the checks need from it, its set-up times."""

    dir: Path
    truth: object  # floratile.metrics.GroundTruth
    catalog_ids: set
    generate_s: list  # of the timed copies
    write_s: list
    calibration_s: list  # before the first timed copy and after every one
    problems: list
    bundle_s: tuple = ()  # (generate, write) of the full-size bundle, in no metric

    def setup_s(self) -> list:
        walls = [g + w for g, w in zip(self.generate_s, self.write_s)]
        return calibrated(walls, self.calibration_s, SETUP_CAL_EXPONENT)


def _generate_and_write(n_images: int, seed: int, target: Path):
    """(bundle, generate seconds, write seconds) of one synth bundle."""
    from floratile.synth import SynthSpec, generate, write_bundle

    gc.collect()
    t0 = time.perf_counter()
    bundle = generate(SynthSpec(n_images=n_images, n_species=N_SPECIES, noise=NOISE), seed)
    t1 = time.perf_counter()
    write_bundle(bundle, target)
    return bundle, t1 - t0, time.perf_counter() - t1


def make_bundle(wl: Workload, seed: int, work: Path) -> Fixture:
    """Write the workload's bundle, then time SETUP_REPS set-up copies.

    The runs read the full-size bundle. ``setup_s`` times copies with
    SETUP_IMAGES images (fewer at smoke size), generated and written from
    the same seed and spec; every copy must hash the same as the first one.
    Each copy starts from a collected heap that holds no earlier copy, so
    the copies time alike.
    """
    bundle, gen_s, write_s = _generate_and_write(wl.n_images, seed, work / "bundle")
    fixture = Fixture(work / "bundle", bundle.truth, set(bundle.catalog.species_ids),
                      [], [], [], [], (gen_s, write_s))
    del bundle
    fixture.calibration_s.append(calibration_s())
    n_copy = min(wl.n_images, SETUP_IMAGES)
    for rep in range(SETUP_REPS):
        target = work / f"setup-{rep}"
        copy, gen_s, write_s = _generate_and_write(n_copy, seed, target)
        del copy
        fixture.generate_s.append(gen_s)
        fixture.write_s.append(write_s)
        fixture.calibration_s.append(calibration_s())
        if rep == 0:
            reference = file_hashes(target)
        elif file_hashes(target) != reference:
            fixture.problems.append(f"set-up copy {rep} differs from copy 0")
        shutil.rmtree(target)
    return fixture


# --- one child and its output check -----------------------------------------

@dataclass
class ChildRun:
    wall_s: float
    maxrss_kb: int
    exit_code: int
    stdout: str
    stderr: str


# Linux carries a process's pre-exec high-water RSS into its ru_maxrss, so a
# child spawned from this process (large after set-up) would report this
# process's peak. Each child is therefore started and reaped by a bare
# interpreter of a few MB, which reports the child's wall time and rusage.
LAUNCHER = """\
import os, sys, time
t0 = time.perf_counter()
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
with open(sys.argv[1], "w") as fh:
    fh.write(f"{wall!r} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}")
"""


def spawn(argv: list, env: dict, log_stem: Path) -> ChildRun:
    """Run one child to completion; wall time is spawn to reaped exit."""
    out_path, err_path = log_stem.with_suffix(".stdout"), log_stem.with_suffix(".stderr")
    timing_path = log_stem.with_suffix(".timing")
    launcher = [sys.executable, "-S", "-c", LAUNCHER, str(timing_path), sys.executable, *argv]
    with open(out_path, "wb") as out_fh, open(err_path, "wb") as err_fh:
        proc = subprocess.Popen(launcher, env=env, stdout=out_fh, stderr=err_fh, start_new_session=True)
        try:
            proc.wait()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    wall, maxrss_kb, exit_code = timing_path.read_text(encoding="utf-8").split()
    return ChildRun(
        wall_s=float(wall),
        maxrss_kb=int(maxrss_kb),
        exit_code=int(exit_code),
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def parse_submission(path: Path):
    """[(quadrat id, [species ids])] in file order, or raise ValueError."""
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[0] != "quadrat_id;species_ids" or lines[-1] != "":
        raise ValueError("bad header or missing final newline")
    rows = []
    for line in lines[1:-1]:
        quadrat, sep, rest = line.partition(";")
        if not sep or not rest.startswith("[") or not rest.endswith("]"):
            raise ValueError(f"malformed row {line!r}")
        body = rest[1:-1]
        rows.append((quadrat, [int(tok) for tok in body.split(", ")] if body else []))
    return rows


def printed_f1(stdout: str):
    for line in stdout.splitlines():
        if line.startswith("final macro-F1: "):
            return float(line.split(": ", 1)[1])
    return None


def check_outputs(child: ChildRun, out: Path, wl: Workload, fixture: Fixture):
    """Problems with one run's outputs (empty when correct) and its score."""
    from floratile.metrics import final_score

    if child.exit_code != 0:
        return [f"exit code {child.exit_code}: {child.stderr.strip()[-300:]}"], None
    try:
        rows = parse_submission(out / "submission.csv")
    except (OSError, ValueError) as exc:
        return [f"submission unreadable: {exc}"], None
    problems = []
    ids = [q for q, _ in rows]
    if ids != sorted(set(ids)):
        problems.append("submission rows are not sorted by unique quadrat id")
    if set(ids) != set(fixture.truth.truth):
        problems.append("submission quadrats differ from the truth quadrats")
    for quadrat, species in rows:
        if not species or len(set(species)) != len(species):
            problems.append(f"{quadrat}: empty or repeated species")
        if len(species) > wl.max_labels:
            problems.append(f"{quadrat}: {len(species)} species > max_labels {wl.max_labels}")
        if not set(species) <= fixture.catalog_ids:
            problems.append(f"{quadrat}: species outside the catalog")
        if len(problems) > 5:
            break
    score = final_score({q: set(s) for q, s in rows}, fixture.truth).final
    shown = printed_f1(child.stdout)
    if shown != score:
        problems.append(f"printed macro-F1 {shown!r} != recomputed {score!r}")
    return problems, score
