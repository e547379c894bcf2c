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
import tempfile
import tracemalloc
from contextlib import closing
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from floratile import batch as fbatch
from floratile import pipeline
from floratile.catalog import load_catalog
from floratile.errors import InputError, InvariantViolation
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
    compute_priors_artifacts,
    run,
    score_submission,
    validate_grid,
)
from floratile.synth import SynthSpec, generate, write_bundle
from floratile.tiling import GridSpec
from floratile.voting import naive_baseline


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
            artifacts = compute_priors_artifacts(embeddings, tiles, registry, catalog, config.priors, config.seed)
            if config.keep_intermediates:
                write_projection(out_dir / "projection.csv", artifacts.projection)
                write_assignments(out_dir / "assignments.csv", embeddings.image_ids, artifacts.model.assignments)
                write_region_cluster_map(out_dir / "region_clusters.csv", artifacts.region_map)
                write_priors(out_dir / "priors.ndjson", artifacts.priors)
            tiles = apply_priors(tiles, artifacts.priors, artifacts.region_map, registry).batch
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
