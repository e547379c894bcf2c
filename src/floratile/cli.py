"""Command-line interface.

Subcommands mirror the pipeline stages (tile-plan, geofilter, project,
cluster, priors, reweight, aggregate, evaluate, plot), plus `synth` for
fixture generation and `run` for the end-to-end pipeline. Running the
stages one at a time through their file formats produces byte-identical
submissions to a single `run` with the same seed. Every command checks its
flags, then reads and checks every input but the tile file, then takes the
tile file through ``pipeline.stream`` slice by slice (`aggregate`,
`geofilter`, `priors` and `reweight`, as `run` does), raising the first
failure it meets, and writes its outputs last.

Exit codes: 0 on success, 1 on input errors (bad files, bad flags),
2 on internal invariant violations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from pathlib import Path
from typing import List, Mapping, NamedTuple, Optional

from . import io as fio
from .batch import encodable
from .catalog import load_catalog, parse_region
from .clustering import check_kmeans_settings, check_region_map, dominant_cluster, kmeans
from .errors import FloratileError, InputError, InvariantViolation
from .geo import DEFAULT_REFERENCE_POINT
from .pipeline import (
    MODE_PRESETS,
    MODES,
    GeoOptions,
    PriorSums,
    PriorsOptions,
    RunConfig,
    Vote,
    apply_geo_mask,
    apply_priors,
    compute_geo_mask,
    run,
    score_submission,
    stream,
    validate_grid,
)
from .projection import ProjectorConfig, fit
from .svgplot import check_canvas, save_projection_plot
from .synth import SynthSpec, generate, write_bundle
from .tiling import make_grid, parse_grid_spec
from .voting import check_vote_settings

CONFIG_ENV_VAR = "FLORATILE_CONFIG"
# grid, k per tile, min votes and max labels of the default mode
_GRID, _K_PER_TILE, _MIN_VOTES, _MAX_LABELS = MODE_PRESETS[RunConfig.mode]


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


def _given(args, *names) -> dict:
    """The flags among ``names`` that were given; the others keep the library's defaults."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


# --- subcommand implementations ------------------------------------------

def _cmd_tile_plan(args) -> int:
    tiles = make_grid(args.width, args.height, args.grid)
    lines = [
        json.dumps({"row": t.row, "col": t.col, "x0": t.x0, "y0": t.y0, "x1": t.x1, "y1": t.y1})
        for t in tiles
    ]
    text = "\n".join(lines) + "\n"
    if args.out:
        with fio._open_write(args.out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_aggregate(args) -> int:
    check_vote_settings(args.k, args.min_votes, args.max_labels)
    catalog = load_catalog(args.catalog)
    vote = Vote(catalog, args.k, args.min_votes, args.max_labels)
    stream(fio.tile_slices(args.predictions), [
        args.grid is not None and (lambda view: validate_grid(view, args.grid)),
        vote.add,
    ])
    fio.write_submission(args.out, vote.rows())
    return 0


def _cmd_geofilter(args) -> int:
    if args.predictions and not args.out_predictions:
        raise InputError("--predictions needs --out-predictions")
    if args.out_predictions and not args.predictions:
        raise InputError("--out-predictions needs --predictions")
    options = GeoOptions(enabled=True, reference=(args.ref_lat, args.ref_lon),
                         observations_path=args.observations, regions_path=args.regions)
    catalog = load_catalog(args.catalog)
    mask = compute_geo_mask(options, catalog)
    if args.predictions:
        with fio.StagedTileFile(args.out_predictions) as out:
            stream(fio.tile_slices(args.predictions), [lambda view: apply_geo_mask(view, mask).batch, out.write])
            out.commit()
    if args.out:
        fio.write_species_mask(args.out, mask, catalog)
    else:
        sys.stdout.write(fio.format_species_mask(mask, catalog))
    return 0


def _cmd_project(args) -> int:
    config = ProjectorConfig(**_given(args, "seed"))
    emb = fio.read_embeddings(args.embeddings)
    projection = fit(emb, config)
    fio.write_projection(args.out, projection)
    return 0


def _cmd_cluster(args) -> int:
    if args.region_map_out and not args.registry:
        raise InputError("--region-map-out needs --registry")
    if args.registry and not args.region_map_out:
        raise InputError("--registry needs --region-map-out")
    check_kmeans_settings(args.k, args.seed)
    projection = fio.read_projection(args.projection)
    registry = args.registry and fio.read_region_registry(args.registry)
    model = kmeans(projection.points, args.k, seed=args.seed)
    region_map = registry and dominant_cluster(model.assignments,
                                               [parse_region(i, registry) for i in projection.image_ids])
    fio.write_assignments(args.out, projection.image_ids, model.assignments)
    if registry:
        fio.write_region_cluster_map(args.region_map_out, region_map)
    return 0


def _cmd_priors(args) -> int:
    options = PriorsOptions(k=args.k, epsilon=args.epsilon)
    catalog = load_catalog(args.catalog)
    sums = PriorSums(fio.read_assignments(args.assignments), len(catalog), options.k, options.epsilon)
    stream(fio.tile_slices(args.predictions), [sums.add])
    fio.write_priors(args.out, sums.priors())
    return 0


def _cmd_reweight(args) -> int:
    priors, region_map = fio.read_priors(args.priors), fio.read_region_cluster_map(args.region_clusters)
    registry = fio.read_region_registry(args.registry)
    check_region_map(region_map, priors.k)
    with fio.StagedTileFile(args.out) as out:
        stream(fio.tile_slices(args.predictions), [
            lambda view: apply_priors(view, priors, region_map, registry).batch,
            out.write,
        ])
        out.commit()
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
    if args.assignments and args.registry:
        raise InputError("--assignments and --registry are mutually exclusive")
    check_canvas(**_given(args, "width", "height"))
    projection = fio.read_projection(args.projection)
    labels = label_names = None
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
        **_given(args, "width", "height", "title"),
    )
    return 0


def _cmd_synth(args) -> int:
    grid = {} if args.grid is None else {"grid_rows": args.grid.rows, "grid_cols": args.grid.cols}
    spec = SynthSpec(
        **_given(args, "n_images", "n_species", "n_clusters", "noise", "separation", "embed_dim", "transect_size"),
        **grid,
    )
    bundle = generate(spec, args.seed)
    write_bundle(bundle, args.out)
    return 0


class _Option(NamedTuple):
    """One `run` option: the flag's dest (the flag is ``--dest`` with ``-``
    for ``_``), the JSON type of its config value, its config key (``geo.x``
    and ``priors.x`` sit in that object) and the field it sets: a RunConfig
    field, or a GeoOptions/PriorsOptions field for a section key."""

    dest: str
    kind: type
    key: str
    field: str
    flag: Mapping = {}  # more add_argument keywords


_RUN_OPTIONS = (
    _Option("mode", str, "mode", "mode", {"choices": MODES}),
    _Option("catalog", str, "catalog", "catalog_path"),
    _Option("predictions", str, "predictions", "predictions_path"),
    _Option("out", str, "out", "out_dir"),
    _Option("registry", str, "registry", "registry_path"),
    _Option("training_counts", str, "training_counts", "training_counts_path"),
    _Option("truth", str, "truth", "truth_path"),
    _Option("grid", str, "grid", "grid"),
    _Option("k_per_tile", int, "k_per_tile", "k_per_tile"),
    _Option("min_votes", int, "min_votes", "min_votes"),
    _Option("max_labels", int, "max_labels", "max_labels"),
    _Option("baseline_k", int, "baseline_k", "baseline_k"),
    _Option("geo", bool, "geo.enabled", "enabled"),
    _Option("observations", str, "geo.observations", "observations_path"),
    _Option("geo_regions", str, "geo.regions", "regions_path"),
    _Option("reference", list, "geo.reference", "reference", {"type": _parse_reference}),
    _Option("priors", bool, "priors.enabled", "enabled"),
    _Option("embeddings", str, "priors.embeddings", "embeddings_path"),
    _Option("priors_k", int, "priors.k", "k"),
    _Option("priors_epsilon", float, "priors.epsilon", "epsilon"),
    _Option("seed", int, "seed", "seed"),
    _Option("threads", int, "threads", "threads",
            {"help": "accepted for compatibility; has no effect (must be >= 1)"}),
    _Option("keep_intermediates", bool, "keep_intermediates", "keep_intermediates"),
)
_SECTIONS = {"geo": GeoOptions, "priors": PriorsOptions}
_FLAG_KEYWORDS = {bool: {"action": "store_true", "default": None}, int: {"type": int}, float: {"type": float}}
_JSON_KINDS = {
    bool: "true or false", int: "an integer", float: "a number", str: "a string", dict: "an object"
}


def _typed(path, key: str, value, kind):
    """``value`` of config ``key`` if it has the JSON type ``kind``; null stands for unset."""
    if value is None:
        return None
    if kind is list:  # geo.reference, the one list option
        if not isinstance(value, list) or len(value) != 2 or None in value:
            raise InputError(f"{path}: {key} must be [lat, lon], got {value!r}")
        return tuple(_typed(path, key, v, float) for v in value)
    if not isinstance(value, (int, float) if kind is float else kind) or (
        isinstance(value, bool) and kind is not bool
    ):
        raise InputError(f"{path}: {key} must be {_JSON_KINDS[kind]}, got {value!r}")
    if kind is str and not encodable(value):  # JSON can hold a lone surrogate; no path or name can
        raise InputError(f"{path}: {key} must be text that UTF-8 can encode, got {value!r}")
    if kind is not float:
        return value
    try:
        return float(value)
    except OverflowError:
        raise InputError(f"{path}: {key} must be a number, got an integer too large for a float") from None


def _load_run_config(args) -> RunConfig:
    """Each `run` option from its flag, else its config key, else the
    library's default; a config key outside the table is an input error."""
    config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
    path = Path(config_path) if config_path else None
    data = {}
    if path is not None:
        if not path.exists():
            raise InputError(f"{path}: config file not found")
        data = fio.read_json(path)
        if not isinstance(data, dict):
            raise InputError(f"{path}: config must be a JSON object")

    config = {"": data}
    config.update((section, _typed(path, section, data.get(section), dict) or {}) for section in _SECTIONS)
    known = {option.key.rpartition(".")[::2] for option in _RUN_OPTIONS} | {("", s) for s in _SECTIONS}
    for section, entries in config.items():
        for name in entries:
            if (section, name) not in known:
                key = f"{section}.{name}" if section else name
                raise InputError(f"{path}: unknown config key {key!r}")

    fields = {section: {} for section in config}
    for option in _RUN_OPTIONS:
        section, _, name = option.key.rpartition(".")
        value = getattr(args, option.dest)
        if value is None:
            value = _typed(path, option.key, config[section].get(name), option.kind)
        if value is not None:
            fields[section][option.field] = value
    run_fields = fields.pop("")
    if not all(run_fields.get(name) for name in ("catalog_path", "predictions_path", "out_dir")):
        raise InputError("run needs --catalog, --predictions, and --out (flags or config file)")
    grid = run_fields.pop("grid", None)
    if grid is not None:
        run_fields["grid"] = parse_grid_spec(grid)
    return RunConfig(**run_fields, **{s: cls(**fields[s]) for s, cls in _SECTIONS.items()})


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
    p.add_argument("--grid", type=parse_grid_spec, default=_GRID)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_tile_plan)

    p = sub.add_parser("aggregate", help="vote tile predictions into a submission")
    p.add_argument("--predictions", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=_K_PER_TILE)
    p.add_argument("--min-votes", type=int, default=_MIN_VOTES)
    p.add_argument("--max-labels", type=int, default=_MAX_LABELS)
    p.add_argument("--grid", type=parse_grid_spec)
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
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("cluster", help="k-means over a 2-D projection")
    p.add_argument("--projection", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=PriorsOptions.k)
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.add_argument("--registry")
    p.add_argument("--region-map-out")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("priors", help="estimate per-cluster species priors")
    p.add_argument("--predictions", required=True)
    p.add_argument("--assignments", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=PriorsOptions.k)
    p.add_argument("--epsilon", type=float, default=PriorsOptions.epsilon)
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
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--title")
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("synth", help="generate a synthetic dataset bundle")
    p.add_argument("--out", required=True)
    p.add_argument("--n-images", type=int)
    p.add_argument("--grid", type=parse_grid_spec)
    p.add_argument("--n-species", type=int)
    p.add_argument("--n-clusters", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--separation", type=float)
    p.add_argument("--embed-dim", type=int)
    p.add_argument("--transect-size", type=int)
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("run", help="run the pipeline end to end")
    p.add_argument("--config", help=f"JSON config path (default from ${CONFIG_ENV_VAR})")
    for option in _RUN_OPTIONS:
        flag = "--" + option.dest.replace("_", "-")
        p.add_argument(flag, **_FLAG_KEYWORDS.get(option.kind, {}), **option.flag)
    p.set_defaults(func=_cmd_run)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """Print a library warning as one line, as errors are printed."""
    sys.stderr.write(f"floratile: warning: {message}\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            args = parser.parse_args(argv)
            return args.func(args)
        except InvariantViolation as exc:
            sys.stderr.write(f"floratile: invariant violation: {exc}\n")
            return 2
        except FloratileError as exc:
            sys.stderr.write(f"floratile: error: {exc}\n")
            return 1


if __name__ == "__main__":
    sys.exit(main())
