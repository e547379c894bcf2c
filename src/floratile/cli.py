"""Command-line interface.

Subcommands mirror the pipeline stages (tile-plan, geofilter, project,
cluster, priors, reweight, aggregate, evaluate, plot), plus `synth` for
fixture generation and `run` for the end-to-end pipeline. Running the
stages one at a time through their file formats produces byte-identical
submissions to a single `run` with the same seed.

Exit codes: 0 on success, 1 on input errors (bad files, bad flags),
2 on internal invariant violations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from . import io as fio
from .catalog import load_catalog, parse_region
from .clustering import dominant_cluster, kmeans
from .errors import FloratileError, InputError, InvariantViolation
from .geo import DEFAULT_REFERENCE_POINT
from .pipeline import (
    GeoOptions,
    PriorsOptions,
    RunConfig,
    aggregate_predictions,
    apply_geo_mask,
    apply_priors,
    compute_geo_mask,
    estimate_cluster_priors,
    run,
    score_submission,
    validate_grid,
)
from .projection import ProjectorConfig, fit
from .svgplot import save_projection_plot
from .synth import SynthSpec, generate, write_bundle
from .tiling import make_grid, parse_grid_spec

CONFIG_ENV_VAR = "FLORATILE_CONFIG"
THREADS_HELP = "accepted for compatibility; has no effect (must be >= 1 in run)"


class _Parser(argparse.ArgumentParser):
    """argparse flag errors are input errors (exit 1), not usage crashes."""

    def error(self, message):
        raise InputError(message)


def _parse_reference(text: str):
    try:
        lat_s, lon_s = text.split(",")
        return (float(lat_s), float(lon_s))
    except ValueError:
        raise InputError(f"reference must be 'lat,lon', got {text!r}") from None


def _read_grouped(path):
    return fio.group_by_image(fio.read_tile_predictions(path))


# --- subcommand implementations ------------------------------------------

def _cmd_tile_plan(args) -> int:
    spec = parse_grid_spec(args.grid)
    tiles = make_grid(args.width, args.height, spec)
    lines = [
        json.dumps({"row": t.row, "col": t.col, "x0": t.x0, "y0": t.y0, "x1": t.x1, "y1": t.y1})
        for t in tiles
    ]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_aggregate(args) -> int:
    catalog = load_catalog(args.catalog)
    grouped = _read_grouped(args.predictions)
    if args.grid:
        validate_grid(grouped, parse_grid_spec(args.grid))
    rows = aggregate_predictions(
        grouped, catalog, args.k, args.min_votes, args.max_labels, threads=args.threads
    )
    fio.write_submission(args.out, rows)
    return 0


def _cmd_geofilter(args) -> int:
    catalog = load_catalog(args.catalog)
    options = GeoOptions(
        enabled=True,
        reference=(args.ref_lat, args.ref_lon),
        observations_path=args.observations,
        regions_path=args.regions,
    )
    mask = compute_geo_mask(options, catalog)
    if args.out:
        fio.write_species_mask(args.out, mask, catalog)
    else:
        sys.stdout.write(fio.format_species_mask(mask, catalog))
    if args.predictions:
        if not args.out_predictions:
            raise InputError("--predictions needs --out-predictions")
        filtered = apply_geo_mask(_read_grouped(args.predictions), mask)
        fio.write_tile_predictions(args.out_predictions, filtered.batch)
    return 0


def _cmd_project(args) -> int:
    emb = fio.read_embeddings(args.embeddings)
    iters = tuple(int(x) for x in args.iters.split(","))
    if len(iters) != 3:
        raise InputError("--iters must be three comma-separated integers")
    config = ProjectorConfig(
        n_neighbors=args.neighbors,
        mn_ratio=args.mn_ratio,
        fp_ratio=args.fp_ratio,
        phase_iters=iters,
        learning_rate=args.learning_rate,
        seed=args.seed,
    )
    projection = fit(emb, config)
    fio.write_projection(args.out, projection)
    return 0


def _cmd_cluster(args) -> int:
    projection = fio.read_projection(args.projection)
    model = kmeans(projection.points, args.k, seed=args.seed)
    fio.write_assignments(args.out, projection.image_ids, model.assignments)
    if args.region_map_out:
        if not args.registry:
            raise InputError("--region-map-out needs --registry")
        registry = fio.read_region_registry(args.registry)
        regions = [parse_region(i, registry) for i in projection.image_ids]
        fio.write_region_cluster_map(args.region_map_out, dominant_cluster(model.assignments, regions))
    return 0


def _cmd_priors(args) -> int:
    catalog = load_catalog(args.catalog)
    grouped = _read_grouped(args.predictions)
    assign_map = fio.read_assignments(args.assignments)
    priors = estimate_cluster_priors(grouped, assign_map, len(catalog), args.k, args.epsilon)
    fio.write_priors(args.out, priors)
    return 0


def _cmd_reweight(args) -> int:
    grouped = _read_grouped(args.predictions)
    priors = fio.read_priors(args.priors)
    region_map = fio.read_region_cluster_map(args.region_clusters)
    registry = fio.read_region_registry(args.registry)
    reweighted = apply_priors(grouped, priors, region_map, registry)
    fio.write_tile_predictions(args.out, reweighted.batch)
    return 0


def _cmd_evaluate(args) -> int:
    rows = fio.read_submission(args.submission)
    transect_map = fio.read_transect_map(args.transect_map) if args.transect_map else None
    report = score_submission(rows, args.truth, transect_map)
    if args.out:
        fio.write_score_report(args.out, report)
    sys.stdout.write(f"final macro-F1: {report.final!r}\n")
    sys.stdout.write(f"transects: {report.n_transects}, images: {len(report.per_image)}\n")
    return 0


def _cmd_plot(args) -> int:
    projection = fio.read_projection(args.projection)
    labels = None
    label_names = None
    if args.assignments and args.registry:
        raise InputError("--assignments and --registry are mutually exclusive")
    if args.assignments:
        assign_map = fio.read_assignments(args.assignments)
        missing = [i for i in projection.image_ids if i not in assign_map]
        if missing:
            raise InputError(f"no cluster assignment for image(s): {missing[:5]}")
        labels = [assign_map[i] for i in projection.image_ids]
    elif args.registry:
        registry = fio.read_region_registry(args.registry)
        names = sorted(registry.regions)
        index = {name: i for i, name in enumerate(names)}
        labels = [index[parse_region(i, registry)] for i in projection.image_ids]
        label_names = {i: name for name, i in index.items()}
    save_projection_plot(
        args.out,
        projection.points,
        labels=labels,
        label_names=label_names,
        width=args.width,
        height=args.height,
        title=args.title,
    )
    return 0


def _cmd_synth(args) -> int:
    grid = parse_grid_spec(args.grid)
    spec = SynthSpec(
        n_images=args.n_images,
        grid_rows=grid.rows,
        grid_cols=grid.cols,
        n_species=args.n_species,
        n_clusters=args.n_clusters,
        noise=args.noise,
        separation=args.separation,
        embed_dim=args.embed_dim,
        transect_size=args.transect_size,
    )
    bundle = generate(spec, args.seed)
    write_bundle(bundle, args.out)
    return 0


_JSON_KINDS = {
    bool: "true or false", int: "an integer", float: "a number", str: "a string", dict: "an object"
}


def _typed(path, key: str, value, kind):
    """``value`` of config ``key`` if it has the JSON type ``kind``; null stands for unset."""
    if value is None:
        return None
    if not isinstance(value, (int, float) if kind is float else kind) or (
        isinstance(value, bool) and kind is not bool
    ):
        raise InputError(f"{path}: {key} must be {_JSON_KINDS[kind]}, got {value!r}")
    if kind is not float:
        return value
    try:
        return float(value)
    except OverflowError:
        raise InputError(f"{path}: {key} must be a number, got an integer too large for a float") from None


def _load_run_config(args) -> RunConfig:
    config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
    path = Path(config_path) if config_path else None
    data = {}
    if path is not None:
        if not path.exists():
            raise InputError(f"{path}: config file not found")
        data = fio.read_json(path)
        if not isinstance(data, dict):
            raise InputError(f"{path}: config must be a JSON object")

    sections = {
        name: _typed(path, name, data.get(name), dict) or {} for name in ("geo", "priors")
    }

    def pick(flag_value, kind, *keys, default=None):
        """The flag, else the first config key set, else ``default``; a key
        is ``name`` or ``section.name``."""
        if flag_value is not None:
            return flag_value
        for key in keys:
            section, _, name = key.rpartition(".")
            got = _typed(path, key, (sections[section] if section else data).get(name), kind)
            if got is not None:
                return got
        return default

    geo_enabled = args.geo or pick(None, bool, "geo.enabled", default=False)
    priors_enabled = args.priors or pick(None, bool, "priors.enabled", default=False)

    reference = DEFAULT_REFERENCE_POINT
    if args.reference is not None:
        reference = _parse_reference(args.reference)
    elif sections["geo"].get("reference") is not None:
        ref = sections["geo"]["reference"]
        if not isinstance(ref, list) or len(ref) != 2 or None in ref:
            raise InputError(f"{path}: geo.reference must be [lat, lon], got {ref!r}")
        reference = tuple(_typed(path, "geo.reference", v, float) for v in ref)

    mode = pick(args.mode, str, "mode", default="tiling")
    catalog = pick(args.catalog, str, "catalog")
    predictions = pick(args.predictions, str, "predictions")
    out_dir = pick(args.out, str, "out")
    if not catalog or not predictions or not out_dir:
        raise InputError("run needs --catalog, --predictions, and --out (flags or config file)")

    grid = pick(args.grid, str, "grid")
    keep = args.keep_intermediates or pick(None, bool, "keep_intermediates", default=False)

    return RunConfig(
        catalog_path=catalog,
        predictions_path=predictions,
        out_dir=out_dir,
        mode=mode,
        grid=parse_grid_spec(grid) if grid else None,
        k_per_tile=pick(args.k_per_tile, int, "k_per_tile"),
        min_votes=pick(args.min_votes, int, "min_votes"),
        max_labels=pick(args.max_labels, int, "max_labels"),
        baseline_k=pick(args.baseline_k, int, "baseline_k", default=10),
        registry_path=pick(args.registry, str, "registry"),
        training_counts_path=pick(args.training_counts, str, "training_counts"),
        truth_path=pick(args.truth, str, "truth"),
        geo=GeoOptions(
            enabled=geo_enabled,
            reference=reference,
            observations_path=pick(args.observations, str, "observations", "geo.observations"),
            regions_path=pick(args.geo_regions, str, "geo_regions", "geo.regions"),
        ),
        priors=PriorsOptions(
            enabled=priors_enabled,
            k=pick(args.priors_k, int, "priors_k", "priors.k", default=3),
            epsilon=pick(args.priors_epsilon, float, "priors_epsilon", "priors.epsilon", default=1e-6),
            embeddings_path=pick(args.embeddings, str, "embeddings", "priors.embeddings"),
        ),
        seed=pick(args.seed, int, "seed", default=42),
        threads=pick(args.threads, int, "threads", default=1),
        keep_intermediates=keep,
    )


def _cmd_run(args) -> int:
    config = _load_run_config(args)
    result = run(config)
    sys.stdout.write(f"submission: {result.submission_path}\n")
    if result.report is not None:
        sys.stdout.write(f"final macro-F1: {result.report.final!r}\n")
        sys.stdout.write(f"report: {result.report_path}\n")
    return 0


# --- parser wiring --------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="floratile", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tile-plan", help="print the tile rectangles of an N x M grid")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--grid", default="4x4")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_tile_plan)

    p = sub.add_parser("aggregate", help="vote tile predictions into a submission")
    p.add_argument("--predictions", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=9)
    p.add_argument("--min-votes", type=int, default=2)
    p.add_argument("--max-labels", type=int, default=10)
    p.add_argument("--grid")
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("geofilter", help="build a species mask from observations")
    p.add_argument("--observations", required=True)
    p.add_argument("--regions", required=True, help="polygon JSON file")
    p.add_argument("--catalog", required=True)
    p.add_argument("--out", help="mask CSV path (default: stdout)")
    p.add_argument("--ref-lat", type=float, default=DEFAULT_REFERENCE_POINT[0])
    p.add_argument("--ref-lon", type=float, default=DEFAULT_REFERENCE_POINT[1])
    p.add_argument("--predictions")
    p.add_argument("--out-predictions")
    p.set_defaults(func=_cmd_geofilter)

    p = sub.add_parser("project", help="project embeddings to 2-D")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--neighbors", type=int, default=10)
    p.add_argument("--mn-ratio", type=float, default=0.5)
    p.add_argument("--fp-ratio", type=float, default=2.0)
    p.add_argument("--iters", default="100,100,250")
    p.add_argument("--learning-rate", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("cluster", help="k-means over a 2-D projection")
    p.add_argument("--projection", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--registry")
    p.add_argument("--region-map-out")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("priors", help="estimate per-cluster species priors")
    p.add_argument("--predictions", required=True)
    p.add_argument("--assignments", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.set_defaults(func=_cmd_priors)

    p = sub.add_parser("reweight", help="reweight predictions by cluster priors")
    p.add_argument("--predictions", required=True)
    p.add_argument("--priors", required=True)
    p.add_argument("--region-clusters", required=True)
    p.add_argument("--registry", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reweight)

    p = sub.add_parser("evaluate", help="score a submission against ground truth")
    p.add_argument("--submission", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--transect-map")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("plot", help="render a projection as an SVG scatter plot")
    p.add_argument("--projection", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--assignments")
    p.add_argument("--registry")
    p.add_argument("--width", type=int, default=800)
    p.add_argument("--height", type=int, default=600)
    p.add_argument("--title", default="")
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("synth", help="generate a synthetic dataset bundle")
    p.add_argument("--out", required=True)
    p.add_argument("--n-images", type=int, default=100)
    p.add_argument("--grid", default="4x4")
    p.add_argument("--n-species", type=int, default=50)
    p.add_argument("--n-clusters", type=int, default=3)
    p.add_argument("--noise", type=float, default=0.5)
    p.add_argument("--separation", type=float, default=8.0)
    p.add_argument("--embed-dim", type=int, default=64)
    p.add_argument("--transect-size", type=int, default=8)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("run", help="run the pipeline end to end")
    p.add_argument("--config", help=f"JSON config path (default from ${CONFIG_ENV_VAR})")
    p.add_argument("--mode", choices=["baseline", "no-tiling", "tiling"])
    p.add_argument("--catalog")
    p.add_argument("--predictions")
    p.add_argument("--out")
    p.add_argument("--registry")
    p.add_argument("--training-counts")
    p.add_argument("--truth")
    p.add_argument("--grid")
    p.add_argument("--k-per-tile", type=int)
    p.add_argument("--min-votes", type=int)
    p.add_argument("--max-labels", type=int)
    p.add_argument("--baseline-k", type=int)
    p.add_argument("--geo", action="store_true", default=None)
    p.add_argument("--observations")
    p.add_argument("--geo-regions")
    p.add_argument("--reference")
    p.add_argument("--priors", action="store_true", default=None)
    p.add_argument("--embeddings")
    p.add_argument("--priors-k", type=int)
    p.add_argument("--priors-epsilon", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int, help=THREADS_HELP)
    p.add_argument("--keep-intermediates", action="store_true", default=None)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InvariantViolation as exc:
        sys.stderr.write(f"floratile: invariant violation: {exc}\n")
        return 2
    except InputError as exc:
        sys.stderr.write(f"floratile: error: {exc}\n")
        return 1
    except FloratileError as exc:
        sys.stderr.write(f"floratile: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
