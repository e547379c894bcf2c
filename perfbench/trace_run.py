"""Traced, in-process replay of ``pipeline.run`` for the per-layer metrics.

``traced_run`` calls the public stage functions in the order ``pipeline.run``
does, with ``compute_priors_artifacts`` taken apart into ``fit``, ``kmeans``,
``dominant_cluster``, ``image_probability_vectors`` and ``estimate_priors``
so that projection and clustering are timed apart. Each call sits in a span
(name, start, end, parent, run id) kept in memory; the spans are written to
``perfbench/_results/`` when the invocation ends. A stage the workload
bypasses is recorded as an empty span, so its time is the cost of one span
(well under a microsecond) and its counts are zero.

A layer's self time is its spans' durations minus the parts covered by
child spans. ``trace.unattributed_s`` is the self time of the root span
(config, catalog and registry loading, glue between stages), so the
reported self times plus it add up to ``trace.total_s`` exactly.
``projection.fit_s`` is the one inclusive time: preprocess + build_pairs +
optimize, where ``optimize_s`` is fit's own self time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from floratile import io as fio
from floratile import pipeline, projection
from floratile.catalog import load_catalog, parse_region
from floratile.clustering import dominant_cluster, estimate_priors, kmeans
from floratile.errors import InputError
from floratile.pipeline import GeoOptions, PriorsOptions, RunConfig
from floratile.projection import ProjectorConfig
from floratile.voting import tally_votes

from bench import PRIORS_K, RESULTS, check_outputs, child_env, cli_argv, file_hashes, spawn

IMPORT_REPS = 3

# Span name -> per-layer metric reporting its self time.
SELF_TIME_METRICS = {
    "io.read_predictions": "io.read_predictions_s",
    "pipeline.group_validate": "pipeline.group_validate_s",
    "geo.build_mask": "geo.build_mask_s",
    "geo.apply_mask": "geo.apply_mask_s",
    "io.read_embeddings": "io.read_embeddings_s",
    "projection.preprocess": "projection.preprocess_s",
    "projection.build_pairs": "projection.build_pairs_s",
    "projection.fit": "projection.optimize_s",
    "clustering.kmeans": "clustering.kmeans_s",
    "clustering.dominant_cluster": "clustering.dominant_cluster_s",
    "pipeline.image_vectors": "pipeline.image_vectors_s",
    "clustering.estimate_priors": "clustering.estimate_priors_s",
    "clustering.apply_priors": "clustering.apply_priors_s",
    "voting.aggregate": "voting.aggregate_s",
    "metrics.score": "metrics.score_s",
    "io.write": "io.write_s",
    "run": "trace.unattributed_s",
}


class Trace:
    """Spans of one traced run, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._open: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run_id": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def skip(self, *names: str):
        """Record stages this run bypasses as empty spans."""
        for name in names:
            with self.span(name):
                pass

    def duration(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_times(self) -> dict:
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        totals: dict = {}
        for s in self.spans:
            totals[s["name"]] = totals.get(s["name"], 0.0) + own[s["id"]]
        return totals


@contextlib.contextmanager
def spans_inside_fit(trace: Trace, seen: dict):
    """Wrap the two helpers ``projection.fit`` looks up at call time."""
    preprocess, build_pairs = projection.preprocess, projection.build_pairs

    def traced_preprocess(X):
        with trace.span("projection.preprocess"):
            return preprocess(X)

    def traced_build_pairs(data, cfg, rng):
        with trace.span("projection.build_pairs"):
            seen["pairs"] = build_pairs(data, cfg, rng)
        return seen["pairs"]

    projection.preprocess, projection.build_pairs = traced_preprocess, traced_build_pairs
    try:
        yield
    finally:
        projection.preprocess, projection.build_pairs = preprocess, build_pairs


def _flatten(grouped):
    return [t for tiles in grouped.values() for t in tiles]


def traced_run(config: RunConfig, trace: Trace) -> dict:
    """``pipeline.run`` for the tiling and no-tiling modes, one span per stage.

    Returns the intermediate objects the counters are computed from, after
    the root span has closed.
    """
    seen: dict = {}
    with trace.span("run"):
        config = config.resolved()
        if config.mode == "baseline":
            raise InputError("the traced replay covers the tiling and no-tiling modes")
        out_dir = Path(config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        catalog = load_catalog(config.catalog_path)
        keep = config.keep_intermediates

        with trace.span("io.read_predictions"):
            seen["preds"] = preds = fio.read_tile_predictions(config.predictions_path)
        with trace.span("pipeline.group_validate"):
            grouped = fio.group_by_image(preds)
            pipeline.validate_grid(grouped, config.grid)
        seen["read"] = grouped

        if config.geo.enabled:
            with trace.span("geo.build_mask"):
                seen["mask"] = mask = pipeline.compute_geo_mask(config.geo, catalog)
            if keep:
                with trace.span("io.write"):
                    fio.write_species_mask(out_dir / "mask.csv", mask, catalog)
            with trace.span("geo.apply_mask"):
                grouped = pipeline.apply_geo_mask(grouped, mask)
            if keep:
                with trace.span("io.write"):
                    fio.write_tile_predictions(out_dir / "masked_predictions.ndjson", _flatten(grouped))
        else:
            trace.skip("geo.build_mask", "geo.apply_mask")
        seen["masked"] = grouped

        if config.priors.enabled:
            opts = config.priors
            registry = fio.read_region_registry(config.registry_path)
            with trace.span("io.read_embeddings"):
                embeddings = fio.read_embeddings(opts.embeddings_path)
            seen["n_embeddings"] = len(embeddings.image_ids)
            seen["projector"] = cfg = ProjectorConfig(seed=config.seed)
            with trace.span("projection.fit"), spans_inside_fit(trace, seen):
                proj = projection.fit(embeddings, cfg)
            with trace.span("clustering.kmeans"):
                seen["model"] = model = kmeans(proj.points, opts.k, seed=config.seed)
            with trace.span("clustering.dominant_cluster"):
                regions = [parse_region(image_id, registry) for image_id in embeddings.image_ids]
                region_map = dominant_cluster(model.assignments, regions)
            cluster_of_image = {
                image_id: int(model.assignments[i]) for i, image_id in enumerate(embeddings.image_ids)
            }
            with trace.span("pipeline.image_vectors"):
                ids, vectors = pipeline.image_probability_vectors(grouped, len(catalog))
            missing = [i for i in ids if i not in cluster_of_image]
            if missing:
                raise InputError(f"no embedding for predicted image(s): {missing[:5]}")
            assignments = [cluster_of_image[i] for i in ids]
            with trace.span("clustering.estimate_priors"):
                priors = estimate_priors(
                    vectors, assignments, opts.k, epsilon=opts.epsilon, n_species=len(catalog)
                )
            if keep:
                with trace.span("io.write"):
                    fio.write_projection(out_dir / "projection.csv", proj)
                    fio.write_assignments(out_dir / "assignments.csv", embeddings.image_ids, model.assignments)
                    fio.write_region_cluster_map(out_dir / "region_clusters.csv", region_map)
                    fio.write_priors(out_dir / "priors.ndjson", priors)
            with trace.span("clustering.apply_priors"):
                grouped = pipeline.apply_priors(grouped, priors, region_map, registry)
            if keep:
                with trace.span("io.write"):
                    fio.write_tile_predictions(out_dir / "reweighted_predictions.ndjson", _flatten(grouped))
        else:
            trace.skip(
                "io.read_embeddings", "projection.fit", "projection.preprocess",
                "projection.build_pairs", "clustering.kmeans", "clustering.dominant_cluster",
                "pipeline.image_vectors", "clustering.estimate_priors", "clustering.apply_priors",
            )
        seen["final"] = grouped

        with trace.span("voting.aggregate"):
            seen["rows"] = rows = pipeline.aggregate_predictions(
                grouped, catalog, config.k_per_tile, config.min_votes, config.max_labels,
                threads=config.threads,
            )
        with trace.span("io.write"):
            fio.write_submission(out_dir / "submission.csv", rows)
        if config.truth_path:
            with trace.span("metrics.score"):
                report = pipeline.score_submission(rows, config.truth_path)
            with trace.span("io.write"):
                fio.write_score_report(out_dir / "score_report.json", report)
        else:
            trace.skip("metrics.score")
    seen["config"] = config
    return seen


def counters(seen: dict, catalog) -> dict:
    """Work counts and decision counters of one traced run."""
    config = seen["config"]
    entries = lambda grouped: sum(len(t.probs) for tiles in grouped.values() for t in tiles)
    tiles = lambda grouped: sum(len(v) for v in grouped.values())
    n_images = len(seen["rows"])
    out_dir = Path(config.out_dir)

    mask = seen.get("mask")
    pairs = seen.get("pairs")
    model = seen.get("model")
    n_points = seen.get("n_embeddings", 0)

    changed = 0
    if config.priors.enabled:
        unweighted = pipeline.aggregate_predictions(
            seen["masked"], catalog, config.k_per_tile, config.min_votes, config.max_labels
        )
        changed = sum(
            set(a.species_ids) != set(b.species_ids) for a, b in zip(unweighted, seen["rows"])
        )
    fallback = sum(
        max(tally_votes(t, config.k_per_tile).votes.values()) < config.min_votes
        for t in seen["final"].values()
    )
    return {
        "io.records_read": (len(seen["preds"]), "count"),
        "io.entries_read": (entries(seen["read"]), "count"),
        "io.bytes_written": (sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()), "bytes"),
        "geo.species_masked": (int(np.count_nonzero(~mask.allowed)) if mask else 0, "count"),
        "geo.entries_kept_ratio": (entries(seen["masked"]) / entries(seen["read"]), "ratio"),
        "geo.tiles_dropped": (tiles(seen["read"]) - tiles(seen["masked"]), "count"),
        "projection.pairs": (
            sum(len(p) for p in (pairs.near, pairs.mid_near, pairs.further)) if pairs else 0, "count"
        ),
        "projection.steps": (sum(seen["projector"].phase_iters) if pairs else 0, "count"),
        "projection.dense_bytes": (n_points * n_points * 8, "bytes"),
        "clustering.kmeans_iters": (len(model.inertia_history) - 1 if model else 0, "count"),
        "clustering.images_changed": (changed, "count"),
        "clustering.images_changed_ratio": (changed / n_images, "ratio"),
        "voting.fallback_images": (fallback, "count"),
        "voting.fallback_ratio": (fallback / n_images, "ratio"),
    }


def run_config(wl, bundle: Path, out: Path) -> RunConfig:
    """The RunConfig the CLI builds from ``cli_argv``; the byte check pins the match."""
    return RunConfig(
        catalog_path=str(bundle / "catalog.csv"),
        predictions_path=str(bundle / wl.predictions),
        out_dir=str(out),
        mode=wl.mode,
        registry_path=str(bundle / "regions.txt") if wl.priors else None,
        truth_path=str(bundle / "truth.csv"),
        geo=GeoOptions(
            enabled=wl.geo,
            observations_path=str(bundle / "observations.csv") if wl.geo else None,
            regions_path=str(bundle / "geo_regions.json") if wl.geo else None,
        ),
        priors=PriorsOptions(
            enabled=wl.priors,
            k=PRIORS_K,
            embeddings_path=str(bundle / "embeddings.ndjson") if wl.priors else None,
        ),
        threads=1,
        keep_intermediates=wl.keep_intermediates,
    )


def fresh_import_s(env: dict) -> float:
    """Seconds a new interpreter takes to ``import floratile.cli``."""
    code = "import time; t = time.perf_counter(); import floratile.cli; print(time.perf_counter() - t)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return float(done.stdout)


def measure_layers(wl, label, fixture, work, seconds):
    """Traced replays until ``seconds`` pass, each paired with an untraced
    in-process ``pipeline.run``; returns (attempted, failures, metrics, detail).

    Per-layer times come from the replay whose traced total is the median,
    so they add up exactly; ``trace.overhead_s`` is the median of traced
    minus untraced totals over the pairs.
    """
    env = child_env()
    ref_out = work / "out-cli"
    cli = spawn(["-m", "floratile", *cli_argv(wl, fixture.dir, ref_out)], env, work / "cli")
    ref_problems, _ = check_outputs(cli, ref_out, wl, fixture)
    reference = file_hashes(ref_out)
    import_s = [fresh_import_s(env) for _ in range(IMPORT_REPS)]

    config = run_config(wl, fixture.dir, work / "out-warm")
    pipeline.run(config)
    catalog = load_catalog(config.catalog_path)

    reps, failures, spans = [], [], []
    deadline = time.perf_counter() + seconds
    while not reps or time.perf_counter() < deadline:
        i = len(reps)
        trace = Trace(f"{label}-rep{i}")
        traced_out, plain_out = work / f"out-traced-{i}", work / f"out-plain-{i}"

        def untraced() -> float:
            t0 = time.perf_counter()
            pipeline.run(dataclasses.replace(config, out_dir=str(plain_out)))
            return time.perf_counter() - t0

        plain_s = untraced() if i % 2 else None
        seen = traced_run(dataclasses.replace(config, out_dir=str(traced_out)), trace)
        if plain_s is None:
            plain_s = untraced()
        total = trace.duration("run")
        reps.append({"total": total, "overhead": total - plain_s, "trace": trace,
                     "counters": counters(seen, catalog)})
        spans += trace.spans
        problems = list(ref_problems)
        if file_hashes(traced_out) != reference:
            problems.append("traced outputs differ from the untraced CLI run's bytes")
        if problems:
            failures.append({"run": i, "problems": problems})
        shutil.rmtree(traced_out, ignore_errors=True)
        shutil.rmtree(plain_out, ignore_errors=True)

    RESULTS.mkdir(parents=True, exist_ok=True)
    spans_path = RESULTS / f"spans-{label}.json"
    spans_path.write_text(json.dumps(spans, indent=1) + "\n", encoding="utf-8")

    chosen = sorted(reps, key=lambda r: r["total"])[(len(reps) - 1) // 2]
    own = chosen["trace"].self_times()
    metrics = {metric: (own[name], "s") for name, metric in SELF_TIME_METRICS.items()}
    metrics["projection.fit_s"] = (chosen["trace"].duration("projection.fit"), "s")
    metrics.update(chosen["counters"])
    metrics.update({
        "cli.import_s": (statistics.median(import_s), "s"),
        "synth.generate_s": (statistics.median(fixture.generate_s), "s"),
        "synth.write_s": (statistics.median(fixture.write_s), "s"),
        "trace.total_s": (chosen["total"], "s"),
        "trace.overhead_s": (statistics.median([r["overhead"] for r in reps]), "s"),
    })
    detail = {
        "spans_file": str(spans_path.relative_to(spans_path.parents[2])),
        "traced_total_s": [r["total"] for r in reps],
        "overhead_s": [r["overhead"] for r in reps],
        "cli_import_s": import_s,
        "cli_wall_s": cli.wall_s,
        "self_times_sum_s": sum(own.values()),
    }
    return len(reps), failures, metrics, detail
