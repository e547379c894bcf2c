"""`run` streams the tile file in image slices; it must behave as the
whole-batch chain of the public stage functions did.

``_whole_batch_run`` is that chain, as ``pipeline.run`` stood before it
streamed: it reads the tile file into one batch and calls each stage on the
whole of it. The streamed run must match it exactly on every input: the
exception type and text, or the rows, and the bytes and the file set of
``--out``, on good files and on files with faults at random places.
"""

import hashlib
import json
import shutil
import sys
import tempfile
import tracemalloc
from contextlib import closing, redirect_stderr, redirect_stdout
from dataclasses import replace
from io import StringIO
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from floratile import batch as fbatch
from floratile import io as fio
from floratile import pipeline
from floratile.catalog import load_catalog, parse_region
from floratile.clustering import ClusterPriors, dominant_cluster, estimate_priors, kmeans
from floratile.cli import build_parser, main
from floratile.errors import FloratileError, InputError, InvariantViolation
from floratile.io import (
    StagedTileFile,
    SubmissionRow,
    _make_dir,
    read_embeddings,
    read_region_registry,
    read_tile_predictions,
    read_training_counts,
    tile_slices,
    write_assignments,
    write_priors,
    write_projection,
    write_region_cluster_map,
    write_score_report,
    write_species_mask,
    write_submission,
    write_tile_predictions,
)
from floratile.pipeline import (
    GeoOptions,
    PriorsOptions,
    RunConfig,
    aggregate_predictions,
    apply_geo_mask,
    apply_priors,
    check_species_indices,
    compute_geo_mask,
    image_probability_vectors,
    run,
    score_submission,
    validate_grid,
)
from floratile.projection import ProjectorConfig, fit
from floratile.synth import SynthSpec, generate, write_bundle
from floratile.tiling import GridSpec
from floratile.voting import check_vote_settings, naive_baseline


def _dense_priors(tiles, cluster_of_image, n_species, k, epsilon):
    """The cluster priors from the images x species matrix of every image."""
    ids, vectors = image_probability_vectors(tiles, n_species)
    missing = [i for i in ids if i not in cluster_of_image]
    if missing:
        raise InputError(f"no cluster assignment for predicted image(s): {missing[:5]}")
    return estimate_priors(vectors, [cluster_of_image[i] for i in ids], k, epsilon=epsilon, n_species=n_species)


def _whole_batch_run(config: RunConfig):
    """``run`` as the whole-batch chain of the public stage functions."""
    config = config.resolved()
    out_dir = _make_dir(config.out_dir)
    catalog = load_catalog(config.catalog_path)
    if config.mode == "baseline":
        labels = naive_baseline(read_training_counts(config.training_counts_path), config.baseline_k)
        quadrats = sorted(read_tile_predictions(config.predictions_path).image_ids)
        rows = [SubmissionRow(quadrat_id=q, species_ids=tuple(labels)) for q in quadrats]
    else:
        tiles = read_tile_predictions(config.predictions_path)
        validate_grid(tiles, config.grid)
        check_species_indices(tiles, len(catalog))
        if config.geo.enabled:
            mask = compute_geo_mask(config.geo, catalog)
            if config.keep_intermediates:
                write_species_mask(out_dir / "mask.csv", mask, catalog)
            tiles = apply_geo_mask(tiles, mask).batch
            if config.keep_intermediates:
                write_tile_predictions(out_dir / "masked_predictions.ndjson", tiles)
        if config.priors.enabled:
            registry = read_region_registry(config.registry_path)
            embeddings = read_embeddings(config.priors.embeddings_path)
            projection = fit(embeddings, ProjectorConfig(seed=config.seed))
            model = kmeans(projection.points, config.priors.k, seed=config.seed)
            region_map = dominant_cluster(model.assignments, [parse_region(i, registry) for i in embeddings.image_ids])
            priors = _dense_priors(tiles, dict(zip(embeddings.image_ids, model.assignments.tolist())), len(catalog),
                                   config.priors.k, config.priors.epsilon)
            if config.keep_intermediates:
                write_projection(out_dir / "projection.csv", projection)
                write_assignments(out_dir / "assignments.csv", embeddings.image_ids, model.assignments)
                write_region_cluster_map(out_dir / "region_clusters.csv", region_map)
                write_priors(out_dir / "priors.ndjson", priors)
            tiles = apply_priors(tiles, priors, region_map, registry).batch
            if config.keep_intermediates:
                write_tile_predictions(out_dir / "reweighted_predictions.ndjson", tiles)
        rows = aggregate_predictions(tiles, catalog, config.k_per_tile, config.min_votes, config.max_labels)
    write_submission(out_dir / "submission.csv", rows)
    if config.truth_path:
        write_score_report(out_dir / "score_report.json", score_submission(rows, config.truth_path))
    return rows


def _outcome(fn, config):
    """``(result, {file: sha256})``: the rows or the error, and what ``--out`` holds."""
    try:
        result = ("ok", [(r.quadrat_id, r.species_ids) for r in fn(config)])
    except (InputError, InvariantViolation) as exc:
        result = ("error", type(exc).__name__, str(exc))
    out = Path(config.out_dir)
    files = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.rglob("*")) if p.is_file()}
    shutil.rmtree(out)
    return result, files


SPEC = SynthSpec(n_images=14, grid_rows=2, grid_cols=3, n_species=16, n_clusters=2, noise=0.5)


@pytest.fixture(scope="module")
def small_bundle(tmp_path_factory):
    """A 14-image bundle, and a species index its geo mask drops, if any."""
    directory = write_bundle(generate(SPEC, seed=3), tmp_path_factory.mktemp("small"))
    mask = compute_geo_mask(GeoOptions(True, observations_path=str(directory / "observations.csv"),
                                       regions_path=str(directory / "geo_regions.json")),
                            load_catalog(directory / "catalog.csv"))
    dropped = np.flatnonzero(~mask.allowed)
    return directory, (int(dropped[0]) if dropped.size else None)


# the unreadable line goes in last, so every other fault finds records to change
FAULTS = ("rejected record", "off-grid tile", "repeated tile", "index past catalog", "masked-out image",
          "bad observations", "region without cluster", "missing embedding", "underflowing tile",
          "split image", "unreadable line")


@st.composite
def run_inputs(draw, bundle_dir: Path, dropped):
    """``(config settings, tile lines, observation text, embedding lines, chunk)``."""
    mode = draw(st.sampled_from(["tiling", "no-tiling", "baseline"]))
    source = "image_predictions.ndjson" if mode == "no-tiling" else "tile_predictions.ndjson"
    lines = (bundle_dir / source).read_text().splitlines()
    records = [json.loads(line) for line in lines]
    shape = draw(st.sampled_from(["contiguous", "reordered", "one image"]))
    if shape == "one image":
        lines = [line for line, rec in zip(lines, records) if rec["image_id"] == records[0]["image_id"]]
    elif shape == "reordered":  # whole images in a drawn order
        images = [list(group) for _, group in groupby(lines, key=lambda line: json.loads(line)["image_id"])]
        lines = [line for image in draw(st.permutations(images)) for line in image]
    observations = (bundle_dir / "observations.csv").read_text()
    embeddings = (bundle_dir / "embeddings.ndjson").read_text().splitlines()
    for fault in sorted(draw(st.lists(st.sampled_from(FAULTS), max_size=2)), key=FAULTS.index):
        at = draw(st.integers(0, len(lines) - 1))
        if fault == "unreadable line":
            lines.insert(at, '{"image_id": "SYN-AA-T00-Q0000", "row"')
            continue
        rec = json.loads(lines[at])
        if fault == "rejected record":
            lines[at] = json.dumps(dict(rec, probs=[[1, 1.5]]))
        elif fault == "off-grid tile":
            lines[at] = json.dumps(dict(rec, row=7))
        elif fault == "repeated tile":  # among its own image's records, so the grid check sees it
            end = at
            while end < len(lines) and json.loads(lines[end])["image_id"] == rec["image_id"]:
                end += 1
            lines.insert(draw(st.integers(at, end)), lines[at])
        elif fault == "index past catalog":
            lines[at] = json.dumps(dict(rec, probs=[[SPEC.n_species + 3, 0.5]], complete=False))
        elif fault == "masked-out image" and dropped is not None:
            lines = [json.dumps(dict(json.loads(line), probs=[[dropped, 0.5]], complete=False))
                     if json.loads(line)["image_id"] == rec["image_id"] else line for line in lines]
        elif fault == "bad observations":
            observations = "species_id,lat,lon\n" + "3,91.5,2.0\n"
        elif fault == "region without cluster":
            embeddings = [line for line in embeddings if not json.loads(line)["image_id"].startswith("SYN-BB")]
        elif fault == "missing embedding":
            del embeddings[draw(st.integers(0, len(embeddings) - 1))]
        elif fault == "underflowing tile":  # valid, but its one entry times any prior is 0
            lines[at] = json.dumps(dict(rec, probs=[[rec["probs"][0][0], 5e-324]], complete=False))
        elif fault == "split image":  # a record moved past another image's, when its image has others
            moved = lines.pop(at)
            own = [n for n, line in enumerate(lines) if json.loads(line)["image_id"] == rec["image_id"]]
            spots = [n for n in range(len(lines) + 1) if own and not own[0] <= n <= own[-1] + 1]
            lines.insert(draw(st.sampled_from(spots)) if spots else at, moved)
    settings = dict(mode=mode, keep_intermediates=draw(st.booleans()))
    if mode != "baseline":
        settings.update(geo=draw(st.booleans()), priors=draw(st.booleans()))
    chunk = draw(st.sampled_from([1, 2, 5, 16, 4096]))  # 1 and 2 make every image wider than a slice
    return settings, lines, observations, embeddings, chunk


def _config(bundle_dir: Path, work: Path, settings: dict) -> RunConfig:
    geo, priors = settings.get("geo", False), settings.get("priors", False)
    return RunConfig(
        catalog_path=str(bundle_dir / "catalog.csv"),
        predictions_path=str(work / "predictions.ndjson"),
        out_dir=str(work / "out"),
        mode=settings["mode"],
        grid=GridSpec(SPEC.grid_rows, SPEC.grid_cols) if settings["mode"] == "tiling" else None,
        registry_path=str(bundle_dir / "regions.txt"),
        training_counts_path=str(bundle_dir / "training_counts.csv"),
        truth_path=str(bundle_dir / "truth.csv"),
        geo=GeoOptions(geo, observations_path=str(work / "observations.csv"),
                       regions_path=str(bundle_dir / "geo_regions.json")),
        priors=PriorsOptions(priors, k=2, embeddings_path=str(work / "embeddings.ndjson")),
        keep_intermediates=settings["keep_intermediates"],
    )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_streamed_run_matches_the_whole_batch_chain_property(small_bundle, monkeypatch, data):
    bundle_dir, dropped = small_bundle
    settings, lines, observations, embeddings, chunk = data.draw(run_inputs(bundle_dir, dropped))
    monkeypatch.setattr(fbatch, "CHUNK_ENTRIES", chunk)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "predictions.ndjson").write_text("".join(line + "\n" for line in lines))
        (work / "observations.csv").write_text(observations)
        (work / "embeddings.ndjson").write_text("".join(line + "\n" for line in embeddings))
        config = _config(bundle_dir, work, settings)
        expected = _outcome(_whole_batch_run, config)
        assert _outcome(lambda c: run(c).submission, config) == expected


def test_run_raises_the_first_failure_of_the_earliest_stage_kind(small_bundle, tmp_path, monkeypatch):
    bundle_dir, _ = small_bundle
    lines = (bundle_dir / "tile_predictions.ndjson").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    for at, fault in ((0, dict(probs=[[SPEC.n_species + 3, 0.5]], complete=False)),  # species, first image
                      (20, dict(row=7)), (50, dict(row=8))):  # grid, in two later images
        lines[at] = json.dumps(dict(records[at], **fault))
    (tmp_path / "predictions.ndjson").write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(fbatch, "CHUNK_ENTRIES", 1)  # every image a slice of its own
    config = _config(bundle_dir, tmp_path, dict(mode="tiling", geo=False, priors=False, keep_intermediates=False))
    expected = _outcome(_whole_batch_run, config)
    assert expected[0] == ("error", "InputError", f"tile (7,{records[20]['col']}) of {records[20]['image_id']!r} outside 2x3 grid")
    assert _outcome(lambda c: run(c).submission, config) == expected


@pytest.mark.parametrize("off_grid_line,builds", [(None, 1), (0, 0), (-1, 1)],
                         ids=["good", "first-slice-off-grid", "last-slice-off-grid"])
def test_run_builds_the_geo_mask_once_for_the_first_slice_that_passes_the_checks(
        small_bundle, tmp_path, monkeypatch, off_grid_line, builds):
    bundle_dir, _ = small_bundle
    lines = (bundle_dir / "tile_predictions.ndjson").read_text().splitlines()
    if off_grid_line is not None:  # a tile of the first or the last image
        lines[off_grid_line] = json.dumps(dict(json.loads(lines[off_grid_line]), row=7))
    (tmp_path / "predictions.ndjson").write_text("\n".join(lines) + "\n")
    shutil.copy(bundle_dir / "observations.csv", tmp_path)
    calls = []
    monkeypatch.setattr(pipeline, "compute_geo_mask", lambda *args: calls.append(args) or compute_geo_mask(*args))
    monkeypatch.setattr(fbatch, "CHUNK_ENTRIES", 1)  # every image a slice of its own
    config = _config(bundle_dir, tmp_path, dict(mode="tiling", geo=True, priors=False, keep_intermediates=False))
    if off_grid_line is None:
        assert len(run(config).submission) == SPEC.n_images
    else:
        with pytest.raises(InputError, match=r"^tile \(7,\d\) of .* outside 2x3 grid$"):
            run(config)
    assert len(calls) == builds


@pytest.mark.parametrize("keep", [False, True])
def test_run_keeps_no_reweighted_file_when_a_later_slice_fails_to_reweight(small_bundle, tmp_path, monkeypatch,
                                                                           keep):
    bundle_dir, _ = small_bundle
    lines = (bundle_dir / "tile_predictions.ndjson").read_text().splitlines()
    rec = json.loads(lines[-1])  # a tile of the last image, so of the last slice
    lines[-1] = json.dumps(dict(rec, probs=[[rec["probs"][0][0], 5e-324]], complete=False))
    (tmp_path / "predictions.ndjson").write_text("\n".join(lines) + "\n")
    shutil.copy(bundle_dir / "embeddings.ndjson", tmp_path)
    monkeypatch.setattr(fbatch, "CHUNK_ENTRIES", 1)  # every image a slice of its own
    config = _config(bundle_dir, tmp_path, dict(mode="tiling", geo=False, priors=True, keep_intermediates=keep))
    expected = _outcome(_whole_batch_run, config)
    assert expected[0][:2] == ("error", "InputError")
    assert expected[0][2].startswith(f"tile ({rec['row']},{rec['col']}) of {rec['image_id']!r}: probability 5e-324")
    assert "reweighted_predictions.ndjson" not in expected[1]
    assert _outcome(lambda c: run(c).submission, config) == expected


def test_run_reports_a_later_reweight_failure_ahead_of_an_unopenable_reweighted_file(small_bundle, tmp_path,
                                                                                        monkeypatch):
    bundle_dir, _ = small_bundle
    lines = (bundle_dir / "tile_predictions.ndjson").read_text().splitlines()
    rec = json.loads(lines[-1])  # a tile of the last image, so of the last slice
    lines[-1] = json.dumps(dict(rec, probs=[[rec["probs"][0][0], 5e-324]], complete=False))
    (tmp_path / "predictions.ndjson").write_text("\n".join(lines) + "\n")
    shutil.copy(bundle_dir / "embeddings.ndjson", tmp_path)
    (tmp_path / "out" / ".reweighted_predictions.ndjson.partial").mkdir(parents=True)  # the staged file cannot open
    monkeypatch.setattr(fbatch, "CHUNK_ENTRIES", 1)  # every image a slice of its own
    config = _config(bundle_dir, tmp_path, dict(mode="tiling", geo=False, priors=True, keep_intermediates=True))
    # the whole-batch chain reweights every tile before it writes the file
    with pytest.raises(InputError, match=rf"^tile \({rec['row']},{rec['col']}\) of {rec['image_id']!r}: probability"):
        run(config)


@pytest.mark.parametrize("chunk", [1, 4096])  # every image a slice of its own, or one slice
@pytest.mark.parametrize("priors", [False, True])
def test_run_rejects_a_file_whose_image_reappears(small_bundle, tmp_path, monkeypatch, priors, chunk):
    bundle_dir, _ = small_bundle
    lines = (bundle_dir / "tile_predictions.ndjson").read_text().splitlines()
    lines.append(lines.pop(0))  # the first image's first tile comes last
    path = tmp_path / "predictions.ndjson"
    path.write_text("\n".join(lines) + "\n")
    shutil.copy(bundle_dir / "observations.csv", tmp_path)
    shutil.copy(bundle_dir / "embeddings.ndjson", tmp_path)
    monkeypatch.setattr(fbatch, "CHUNK_ENTRIES", chunk)
    config = _config(bundle_dir, tmp_path, dict(mode="tiling", geo=True, priors=priors, keep_intermediates=True))
    image_id = json.loads(lines[-1])["image_id"]
    message = f"{path}:{len(lines)}: image {image_id!r} reappears after other images' records"
    expected = ("error", "InputError", message), {}  # no submission, intermediate or partial file
    assert _outcome(_whole_batch_run, config) == expected
    assert _outcome(lambda c: run(c).submission, config) == expected


def test_staged_tile_file_moves_into_place_only_on_commit(tmp_path):
    batch = read_tile_predictions(_lines_file(tmp_path, [_record("a", 0), _record("b", 0)]))
    (tmp_path / "kept.ndjson").write_text("earlier run\n")
    with StagedTileFile(tmp_path / "kept.ndjson") as staged:
        staged.write(batch)
    assert (tmp_path / "kept.ndjson").read_text() == "earlier run\n"  # discarded: untouched
    with StagedTileFile(tmp_path / "kept.ndjson") as staged:
        staged.write(batch.images(0, 1))
        staged.write(batch.images(1, 2))
        staged.commit()
    write_tile_predictions(tmp_path / "whole.ndjson", batch)
    assert (tmp_path / "kept.ndjson").read_bytes() == (tmp_path / "whole.ndjson").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.ndjson", "preds.ndjson", "whole.ndjson"]
    (tmp_path / "dir.ndjson").mkdir()
    with StagedTileFile(tmp_path / "dir.ndjson") as staged:
        staged.write(batch)
        with pytest.raises(InputError, match=r"dir\.ndjson: Is a directory$"):
            staged.commit()
    assert not list(tmp_path.glob(".*"))


def test_no_command_reads_the_tile_file_whole(small_bundle, tmp_path, monkeypatch):
    bundle_dir, _ = small_bundle
    b = lambda name: str(bundle_dir / name)
    monkeypatch.setattr(fbatch, "CHUNK_ENTRIES", 1)  # every image a slice of its own
    runs = [dict(mode=mode, geo=geo, priors=priors, keep_intermediates=True)
            for mode in ("tiling", "no-tiling") for geo in (False, True) for priors in (False, True)]
    runs.append(dict(mode="baseline", keep_intermediates=True))
    configs = []
    for n, settings in enumerate(runs):
        work = tmp_path / f"run{n}"
        work.mkdir()
        source = "image_predictions.ndjson" if settings["mode"] == "no-tiling" else "tile_predictions.ndjson"
        shutil.copy(bundle_dir / source, work / "predictions.ndjson")
        shutil.copy(bundle_dir / "observations.csv", work)
        shutil.copy(bundle_dir / "embeddings.ndjson", work)
        config = _config(bundle_dir, work, settings)
        configs.append((config, _outcome(_whole_batch_run, config)))
    ref = tmp_path / "ref"  # tiling with geo and priors: every intermediate a stage command writes
    _whole_batch_run(replace(configs[3][0], out_dir=str(ref)))

    def barred(path):
        raise AssertionError(f"{path} read as one batch")

    monkeypatch.setattr(fio, "read_tile_predictions", barred)
    for config, expected in configs:
        assert _outcome(lambda c: run(c).submission, config) == expected
    out = tmp_path / "commands"
    out.mkdir()
    assert main(["geofilter", "--observations", b("observations.csv"), "--regions", b("geo_regions.json"),
                 "--catalog", b("catalog.csv"), "--out", str(out / "mask.csv"),
                 "--predictions", b("tile_predictions.ndjson"), "--out-predictions", str(out / "masked.ndjson")]) == 0
    assert main(["priors", "--predictions", str(ref / "masked_predictions.ndjson"), "--k", "2",
                 "--assignments", str(ref / "assignments.csv"), "--catalog", b("catalog.csv"),
                 "--out", str(out / "priors.ndjson")]) == 0
    assert main(["reweight", "--predictions", str(ref / "masked_predictions.ndjson"), "--priors",
                 str(ref / "priors.ndjson"), "--region-clusters", str(ref / "region_clusters.csv"),
                 "--registry", b("regions.txt"), "--out", str(out / "reweighted.ndjson")]) == 0
    assert main(["aggregate", "--predictions", str(ref / "reweighted_predictions.ndjson"), "--grid", "2x3",
                 "--catalog", b("catalog.csv"), "--out", str(out / "submission.csv")]) == 0
    for name, expected in [("mask.csv", "mask.csv"), ("masked.ndjson", "masked_predictions.ndjson"),
                           ("priors.ndjson", "priors.ndjson"), ("reweighted.ndjson", "reweighted_predictions.ndjson"),
                           ("submission.csv", "submission.csv")]:
        assert (out / name).read_bytes() == (ref / expected).read_bytes(), name


# --- the stage commands --------------------------------------------------------

def _ref_aggregate(args):
    """`aggregate` as it stood when it read the tile file whole."""
    check_vote_settings(args.k, args.min_votes, args.max_labels)
    catalog = load_catalog(args.catalog)
    tiles = read_tile_predictions(args.predictions)
    if args.grid is not None:
        validate_grid(tiles, args.grid)
    check_species_indices(tiles, len(catalog))
    write_submission(args.out, aggregate_predictions(tiles, catalog, args.k, args.min_votes, args.max_labels))


def _ref_geofilter(args):
    """`geofilter --predictions` as it stood when it read the tile file whole."""
    catalog = load_catalog(args.catalog)
    options = GeoOptions(True, (args.ref_lat, args.ref_lon), args.observations, args.regions)
    mask = compute_geo_mask(options, catalog)
    tiles = apply_geo_mask(read_tile_predictions(args.predictions), mask).batch
    if args.out:
        write_species_mask(args.out, mask, catalog)
    else:
        sys.stdout.write(fio.format_species_mask(mask, catalog))
    write_tile_predictions(args.out_predictions, tiles)


def _ref_reweight(args):
    """`reweight` as it stood when it read the tile file whole."""
    tiles = read_tile_predictions(args.predictions)
    priors, region_map = fio.read_priors(args.priors), fio.read_region_cluster_map(args.region_clusters)
    registry = read_region_registry(args.registry)
    write_tile_predictions(args.out, apply_priors(tiles, priors, region_map, registry).batch)


def _ref_priors(args):
    """`priors` as it stood when it held the tile file and built the images x species matrix."""
    options = PriorsOptions(k=args.k, epsilon=args.epsilon)
    catalog = load_catalog(args.catalog)
    tiles = read_tile_predictions(args.predictions)
    write_priors(args.out, _dense_priors(tiles, fio.read_assignments(args.assignments), len(catalog), options.k,
                                         options.epsilon))


def _command_outcome(fn, argv, out: Path):
    """``(exit code, stdout, stderr, {file: bytes})`` of ``fn(argv)``, which
    prints as ``main`` does; ``out`` is emptied for the next run."""
    stdout, stderr = StringIO(), StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = fn(argv)
    files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    shutil.rmtree(out)
    out.mkdir()
    return code, stdout.getvalue(), stderr.getvalue(), files


def _ref_main(argv):
    """``main`` with each stage command's whole-file body."""
    args = build_parser().parse_args(argv)
    try:
        {"aggregate": _ref_aggregate, "geofilter": _ref_geofilter, "priors": _ref_priors,
         "reweight": _ref_reweight}[argv[0]](args)
        return 0
    except InvariantViolation as exc:
        sys.stderr.write(f"floratile: invariant violation: {exc}\n")
        return 2
    except FloratileError as exc:
        sys.stderr.write(f"floratile: error: {exc}\n")
        return 1


# faults in the side inputs of `reweight`, and a bad record on the tile file's last line
SIDE_FAULTS = ("bad priors", "unreadable region map", "region past the priors", "late bad record")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_streamed_commands_match_their_whole_file_bodies_property(small_bundle, monkeypatch, data):
    bundle_dir, dropped = small_bundle
    settings, lines, observations, _, _ = data.draw(run_inputs(bundle_dir, dropped))
    command = data.draw(st.sampled_from(["reweight", "geofilter", "aggregate --grid", "aggregate"]))
    side_faults = data.draw(st.lists(st.sampled_from(SIDE_FAULTS), max_size=2))
    monkeypatch.setattr(fbatch, "CHUNK_ENTRIES", data.draw(st.sampled_from([1, 2, 16, 4096])))
    regions = read_region_registry(bundle_dir / "regions.txt").regions
    region_map = {region: n % 2 for n, region in enumerate(regions)}
    if "region past the priors" in side_faults:
        region_map[regions[-1]] = 2
    if "late bad record" in side_faults:
        lines.append(json.dumps(dict(_record("SYN-AA-T99-Q9999", 0), probs=[[1, 1.5]])))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        out = work / "out"
        out.mkdir()
        w = lambda name: str(work / name)
        b = lambda name: str(bundle_dir / name)
        (work / "predictions.ndjson").write_text("".join(line + "\n" for line in lines))
        (work / "observations.csv").write_text(observations)
        priors = np.random.default_rng(len(lines)).dirichlet(np.ones(SPEC.n_species), size=2)
        write_priors(w("priors.ndjson"), ClusterPriors(priors))
        if "bad priors" in side_faults:
            (work / "priors.ndjson").write_text('{"cluster": 0, "prior": [0.0, 1.0]}\n')
        write_region_cluster_map(w("region_clusters.csv"), region_map)
        if "unreadable region map" in side_faults:
            (work / "region_clusters.csv").write_text("region,cluster\nSYN-AA,x\n")
        grid = f"{SPEC.grid_rows}x{SPEC.grid_cols}" if settings["mode"] != "no-tiling" else "1x1"
        argv = {
            "aggregate": ["aggregate", "--catalog", b("catalog.csv"), "--out", str(out / "submission.csv")],
            "aggregate --grid": ["aggregate", "--catalog", b("catalog.csv"), "--out", str(out / "submission.csv"),
                                 "--grid", grid],
            "geofilter": ["geofilter", "--observations", w("observations.csv"), "--regions", b("geo_regions.json"),
                          "--catalog", b("catalog.csv"), "--out-predictions", str(out / "masked.ndjson"),
                          *(["--out", str(out / "mask.csv")] if settings["keep_intermediates"] else [])],
            "reweight": ["reweight", "--priors", w("priors.ndjson"), "--region-clusters", w("region_clusters.csv"),
                         "--registry", b("regions.txt"), "--out", str(out / "reweighted.ndjson")],
        }[command] + ["--predictions", w("predictions.ndjson")]
        expected = _command_outcome(_ref_main, argv, out)
        assert _command_outcome(main, argv, out) == expected


# faults in the inputs of `priors`, in the tile file or the assignments file
PRIORS_FAULTS = ("late bad record", "index past catalog", "first cluster past k", "last image unassigned",
                 "six images unassigned", "unreadable assignments")


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(faults=st.lists(st.sampled_from(PRIORS_FAULTS), max_size=3), chunk=st.sampled_from([1, 2, 16, 4096]))
def test_streamed_priors_matches_its_whole_file_body_property(small_bundle, monkeypatch, faults, chunk):
    bundle_dir, _ = small_bundle
    monkeypatch.setattr(fbatch, "CHUNK_ENTRIES", chunk)
    lines = (bundle_dir / "tile_predictions.ndjson").read_text().splitlines()
    labels = fio.read_assignments(bundle_dir / "labels.csv")
    ids = list(labels)
    if "late bad record" in faults:
        lines.append(json.dumps(dict(_record("SYN-AA-T99-Q9999", 0), probs=[[1, 1.5]])))
    if "index past catalog" in faults:  # a tile of a middle image
        lines[len(lines) // 2] = json.dumps(dict(json.loads(lines[len(lines) // 2]), probs=[[SPEC.n_species, 0.5]]))
    if "first cluster past k" in faults:
        labels[ids[0]] = 7
    for fault, gone in (("last image unassigned", ids[-1:]), ("six images unassigned", ids[2:8])):
        if fault in faults:
            for image_id in gone:
                labels.pop(image_id, None)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        out = work / "out"
        out.mkdir()
        (work / "predictions.ndjson").write_text("".join(line + "\n" for line in lines))
        write_assignments(work / "assignments.csv", list(labels), list(labels.values()))
        if "unreadable assignments" in faults:
            (work / "assignments.csv").write_text("image_id,cluster\nSYN-AA,x\n")
        argv = ["priors", "--predictions", str(work / "predictions.ndjson"), "--assignments",
                str(work / "assignments.csv"), "--catalog", str(bundle_dir / "catalog.csv"), "--k", "2",
                "--out", str(out / "priors.ndjson")]
        expected = _command_outcome(_ref_main, argv, out)
        assert _command_outcome(main, argv, out) == expected


def test_priors_reports_an_image_without_a_cluster_ahead_of_an_earlier_cluster_past_k(small_bundle, tmp_path,
                                                                                       monkeypatch):
    bundle_dir, _ = small_bundle
    labels = fio.read_assignments(bundle_dir / "labels.csv")
    ids = list(labels)
    labels[ids[0]] = 7
    del labels[ids[-2]]
    write_assignments(tmp_path / "assignments.csv", list(labels), list(labels.values()))
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.setattr(fbatch, "CHUNK_ENTRIES", 1)  # every image a slice of its own
    argv = ["priors", "--predictions", str(bundle_dir / "tile_predictions.ndjson"), "--k", "3",
            "--assignments", str(tmp_path / "assignments.csv"), "--catalog", str(bundle_dir / "catalog.csv"),
            "--out", str(out / "priors.ndjson")]
    message = f"floratile: error: no cluster assignment for predicted image(s): {[ids[-2]]!r}\n"
    assert _command_outcome(main, argv, out) == (1, "", message, {})


def _priors_outcome(bundle_dir, tmp_path, labels, k, lines=None):
    """``_command_outcome`` of ``priors --k k`` with ``labels`` as the
    assignments file and ``lines``, if given, as the tile file."""
    predictions = bundle_dir / "tile_predictions.ndjson"
    if lines is not None:
        predictions = tmp_path / "predictions.ndjson"
        predictions.write_text("".join(line + "\n" for line in lines))
    write_assignments(tmp_path / "assignments.csv", list(labels), list(labels.values()))
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    argv = ["priors", "--predictions", str(predictions), "--k", str(k),
            "--assignments", str(tmp_path / "assignments.csv"), "--catalog", str(bundle_dir / "catalog.csv"),
            "--out", str(out / "priors.ndjson")]
    return _command_outcome(main, argv, out)


@pytest.mark.parametrize("chunk", [1, 4096])
@pytest.mark.parametrize("cluster", [10**20 - 1, -10**20])
def test_priors_reports_a_cluster_past_int64_as_outside_the_clusters(small_bundle, tmp_path, monkeypatch,
                                                                     chunk, cluster):
    bundle_dir, _ = small_bundle
    labels = fio.read_assignments(bundle_dir / "labels.csv")
    ids = list(labels)
    labels[ids[3]], labels[ids[5]] = cluster, 7  # the first in file order is reported
    monkeypatch.setattr(fbatch, "CHUNK_ENTRIES", chunk)
    message = f"floratile: error: assignment {cluster} outside clusters 0..2\n"
    assert _priors_outcome(bundle_dir, tmp_path, labels, 3) == (1, "", message, {})


def test_priors_reports_an_image_without_a_cluster_ahead_of_an_earlier_cluster_past_int64(small_bundle, tmp_path,
                                                                                           monkeypatch):
    bundle_dir, _ = small_bundle
    labels = fio.read_assignments(bundle_dir / "labels.csv")
    ids = list(labels)
    labels[ids[0]] = 10**20
    del labels[ids[-2]]
    monkeypatch.setattr(fbatch, "CHUNK_ENTRIES", 1)  # every image a slice of its own
    message = f"floratile: error: no cluster assignment for predicted image(s): {[ids[-2]]!r}\n"
    assert _priors_outcome(bundle_dir, tmp_path, labels, 3) == (1, "", message, {})


@pytest.mark.parametrize("extra", [1, 10**20])
def test_priors_rejects_more_clusters_than_assigned_images(small_bundle, tmp_path, extra):
    bundle_dir, _ = small_bundle
    labels = fio.read_assignments(bundle_dir / "labels.csv")
    k = len(labels) + extra
    message = f"floratile: error: cannot form {k} clusters from {len(labels)} assigned images\n"
    assert _priors_outcome(bundle_dir, tmp_path, labels, k) == (1, "", message, {})
    assert _priors_outcome(bundle_dir, tmp_path, labels, len(labels))[0] == 0


def test_priors_reports_a_bad_tile_record_ahead_of_more_clusters_than_assigned_images(small_bundle, tmp_path):
    bundle_dir, _ = small_bundle
    labels = fio.read_assignments(bundle_dir / "labels.csv")
    lines = (bundle_dir / "tile_predictions.ndjson").read_text().splitlines() + ["{broken"]
    expected = _priors_outcome(bundle_dir, tmp_path, labels, 3, lines)
    assert expected[0] == 1 and expected[3] == {} and "cannot form" not in expected[2]
    assert _priors_outcome(bundle_dir, tmp_path, labels, len(labels) + 1, lines) == expected


def test_aggregate_raises_the_first_failure_of_the_earliest_stage_kind(small_bundle, tmp_path, monkeypatch):
    bundle_dir, _ = small_bundle
    lines = (bundle_dir / "tile_predictions.ndjson").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    for at, fault in ((0, dict(probs=[[SPEC.n_species + 3, 0.5]], complete=False)),  # species, first image
                      (20, dict(row=7)), (50, dict(row=8))):  # grid, in two later images
        lines[at] = json.dumps(dict(records[at], **fault))
    (tmp_path / "predictions.ndjson").write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.setattr(fbatch, "CHUNK_ENTRIES", 1)  # every image a slice of its own
    argv = ["aggregate", "--predictions", str(tmp_path / "predictions.ndjson"), "--grid", "2x3",
            "--catalog", str(bundle_dir / "catalog.csv"), "--out", str(out / "submission.csv")]
    expected = _command_outcome(_ref_main, argv, out)
    grid_error = f"tile (7,{records[20]['col']}) of {records[20]['image_id']!r} outside 2x3 grid"
    assert expected == (1, "", f"floratile: error: {grid_error}\n", {})
    assert _command_outcome(main, argv, out) == expected


@pytest.mark.parametrize("command", ["geofilter", "reweight"])
def test_stage_commands_write_their_tile_file_in_place(small_bundle, tmp_path, monkeypatch, command):
    bundle_dir, _ = small_bundle
    b = lambda name: str(bundle_dir / name)
    monkeypatch.setattr(fbatch, "CHUNK_ENTRIES", 1)  # every image a slice of its own
    write_priors(tmp_path / "priors.ndjson", ClusterPriors(np.full((2, SPEC.n_species), 1 / SPEC.n_species)))
    regions = read_region_registry(b("regions.txt")).regions
    write_region_cluster_map(tmp_path / "region_clusters.csv", {region: n % 2 for n, region in enumerate(regions)})

    def argv(source, target):
        if command == "geofilter":
            return ["geofilter", "--observations", b("observations.csv"), "--regions", b("geo_regions.json"),
                    "--catalog", b("catalog.csv"), "--out", str(tmp_path / "mask.csv"),
                    "--predictions", str(source), "--out-predictions", str(target)]
        return ["reweight", "--priors", str(tmp_path / "priors.ndjson"), "--registry", b("regions.txt"),
                "--region-clusters", str(tmp_path / "region_clusters.csv"), "--predictions", str(source),
                "--out", str(target)]

    in_place = tmp_path / "predictions.ndjson"
    shutil.copy(bundle_dir / "tile_predictions.ndjson", in_place)
    assert main(argv(bundle_dir / "tile_predictions.ndjson", tmp_path / "fresh.ndjson")) == 0
    assert main(argv(in_place, in_place)) == 0
    assert in_place.read_bytes() == (tmp_path / "fresh.ndjson").read_bytes()
    assert in_place.read_bytes() != (bundle_dir / "tile_predictions.ndjson").read_bytes()
    assert not list(tmp_path.glob(".*"))  # no partial file left


# --- the streamed reader ------------------------------------------------------

def _record(image_id, col, width=1):
    return {"image_id": image_id, "row": 0, "col": col, "probs": [[i, 0.1] for i in range(width)]}


def _lines_file(tmp_path, records):
    path = tmp_path / "preds.ndjson"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def _slices(path):
    with closing(tile_slices(path)) as slices:
        return list(slices)


def test_tile_slices_cut_at_the_first_new_image_past_the_limit(tmp_path, monkeypatch):
    monkeypatch.setattr(fbatch, "CHUNK_ENTRIES", 2)  # cut once 8 entries are read
    widths = {"a": [3, 3], "b": [1], "c": [5, 5], "d": [1], "e": [2]}
    path = _lines_file(tmp_path, [_record(i, c, w) for i, ws in widths.items() for c, w in enumerate(ws)])
    slices = _slices(path)
    assert [view.image_ids for view in slices] == [["a", "b", "c"], ["d", "e"]]
    whole = read_tile_predictions(path)
    for name in ("row", "col", "complete", "idx", "prob"):
        assert np.array_equal(np.concatenate([getattr(v, name) for v in slices]), getattr(whole, name))


def test_tile_slices_raise_a_bad_record_after_the_slices_before_it(tmp_path, monkeypatch):
    monkeypatch.setattr(fbatch, "CHUNK_ENTRIES", 1)
    records = [_record("a", 0, 4), _record("b", 0, 4), dict(_record("c", 0), probs=[[1, 1.5]]), _record("d", 0, 4)]
    path = _lines_file(tmp_path, records)
    slices = tile_slices(path)
    assert [next(slices).image_ids for _ in range(2)] == [["a"], ["b"]]
    with pytest.raises(InputError, match=r"preds\.ndjson:3: tile of 'c': probability 1\.5 outside"):
        next(slices)
    with pytest.raises(InputError, match=r"preds\.ndjson:3: tile of 'c'"):
        read_tile_predictions(path)
    path.write_text(path.read_text().replace('"probs": [[1, 1.5]]', '"probs": [[1, 0.5]'))
    with pytest.raises(InputError, match=r"preds\.ndjson:3: invalid JSON"):
        _slices(path)


def test_tile_slices_reject_an_image_that_reappears(tmp_path, monkeypatch):
    monkeypatch.setattr(fbatch, "CHUNK_ENTRIES", 1)
    path = _lines_file(tmp_path, [_record("a", 0, 4), _record("b", 0, 4), _record("a", 1, 4)])
    slices = tile_slices(path)
    assert [next(slices).image_ids for _ in range(2)] == [["a"], ["b"]]
    with pytest.raises(InputError, match=r"preds\.ndjson:3: image 'a' reappears after other images' records$"):
        next(slices)
    monkeypatch.setattr(fbatch, "CHUNK_ENTRIES", 4096)  # one slice: the image is split within it
    with pytest.raises(InputError, match=r"preds\.ndjson:3: image 'a' reappears after other images' records$"):
        _slices(path)


# --- memory ---------------------------------------------------------------------

def _geo_run_peak(tmp_path, n_images):
    directory = write_bundle(generate(SynthSpec(n_images=n_images, n_species=200, noise=0.5), seed=5),
                             tmp_path / f"bundle{n_images}")
    config = RunConfig(
        catalog_path=str(directory / "catalog.csv"),
        predictions_path=str(directory / "tile_predictions.ndjson"),
        out_dir=str(tmp_path / f"out{n_images}"),
        geo=GeoOptions(True, observations_path=str(directory / "observations.csv"),
                       regions_path=str(directory / "geo_regions.json")),
    )
    tracemalloc.start()
    try:
        rows = run(config).submission
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == n_images
    return peak


def test_geo_run_memory_is_set_by_a_slice_not_by_the_input(tmp_path):
    small, large = _geo_run_peak(tmp_path, 500), _geo_run_peak(tmp_path, 2000)
    added_entries = (2000 - 500) * 16 * 3  # 4x4 tiles of 3 entries each
    # a run holding the input's idx and prob columns grows by 16 B per entry
    # for each copy; the rows and ids of the added images alone stay below it
    assert large - small < 16 * added_entries


@pytest.fixture(scope="module")
def grown_bundles(tmp_path_factory):
    """Bench bundles of 500 and 2000 images, of 4x4 tiles with 3 entries each."""
    root = tmp_path_factory.mktemp("grown")
    spec = lambda n: SynthSpec(n_images=n, n_species=200, noise=0.5)
    return {n: write_bundle(generate(spec(n), seed=5), root / f"bundle{n}") for n in (500, 2000)}


def _command_peak(argv):
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("command", ["aggregate", "geofilter", "priors", "reweight"])
def test_stage_command_memory_is_set_by_a_slice(grown_bundles, tmp_path, command):
    def argv(n):
        directory, out = grown_bundles[n], tmp_path / f"out{n}"
        b = lambda name: str(directory / name)
        if command == "aggregate":
            return ["aggregate", "--predictions", b("tile_predictions.ndjson"), "--catalog", b("catalog.csv"),
                    "--out", str(out), "--grid", "4x4"]
        if command == "reweight":  # uniform priors: every tile keeps its ranking
            write_priors(f"{out}.priors", ClusterPriors(np.full((1, 200), 1 / 200)))
            write_region_cluster_map(f"{out}.map", dict.fromkeys(read_region_registry(b("regions.txt")).regions, 0))
            return ["reweight", "--predictions", b("tile_predictions.ndjson"), "--priors", f"{out}.priors",
                    "--region-clusters", f"{out}.map", "--registry", b("regions.txt"), "--out", str(out)]
        if command == "priors":
            return ["priors", "--predictions", b("tile_predictions.ndjson"), "--assignments", b("labels.csv"),
                    "--catalog", b("catalog.csv"), "--out", str(out), "--k", "3"]
        return ["geofilter", "--observations", b("observations.csv"), "--regions", b("geo_regions.json"),
                "--catalog", b("catalog.csv"), "--out", str(out), "--predictions", b("tile_predictions.ndjson"),
                "--out-predictions", f"{out}.ndjson"]

    small, large = _command_peak(argv(500)), _command_peak(argv(2000))
    added_entries = (2000 - 500) * 16 * 3
    # one int64 column of the input takes 8 B per entry; a command that held
    # the input, or a stage's whole-file temporaries, would pass it
    assert large - small < 8 * added_entries, (large - small) / added_entries
