"""Command-line interface: exit codes, formats, stage composability."""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from floratile import batch as fbatch
from floratile import cli
from floratile.catalog import load_catalog
from floratile.cli import main
from floratile.clustering import ClusterPriors
from floratile.errors import InvariantViolation
from floratile.io import (read_region_cluster_map, read_submission, read_tile_predictions, write_priors,
                          write_region_cluster_map)
from floratile.pipeline import GeoOptions, compute_geo_mask
from floratile.synth import SynthSpec, generate, write_bundle

# a child interpreter imports floratile from this checkout, installed or not
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])))


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    spec = SynthSpec(n_images=16, grid_rows=3, grid_cols=3, n_species=40, n_clusters=2, noise=0.5)
    return write_bundle(generate(spec, seed=21), tmp_path_factory.mktemp("clifix"))


def test_tile_plan_stdout_ndjson(capsys):
    assert main(["tile-plan", "--width", "2000", "--height", "2000", "--grid", "4x4"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 16
    first = json.loads(lines[0])
    assert first == {"row": 0, "col": 0, "x0": 0, "y0": 0, "x1": 500, "y1": 500}
    last = json.loads(lines[-1])
    assert (last["row"], last["col"], last["x1"], last["y1"]) == (3, 3, 2000, 2000)


def test_tile_plan_to_file(tmp_path):
    out = tmp_path / "plan.ndjson"
    assert main(["tile-plan", "--width", "10", "--height", "7", "--grid", "3x3", "--out", str(out)]) == 0
    recs = [json.loads(line) for line in out.read_text().strip().split("\n")]
    assert len(recs) == 9
    assert {r["x1"] - r["x0"] for r in recs} <= {3, 4}


def test_unknown_flag_exits_1(capsys):
    assert main(["tile-plan", "--width", "10", "--height", "10", "--bogus"]) == 1
    assert "error" in capsys.readouterr().err


def test_too_small_image_exits_1(capsys):
    assert main(["tile-plan", "--width", "2", "--height", "10", "--grid", "4x4"]) == 1
    assert "error" in capsys.readouterr().err


def test_invariant_violation_exits_2_with_one_line(monkeypatch, capsys):
    def broken(*args):
        raise InvariantViolation("x")

    monkeypatch.setattr(cli, "make_grid", broken)
    assert main(["tile-plan", "--width", "10", "--height", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "floratile: invariant violation: x\n"


def test_aggregate_writes_submission(fixture_dir, tmp_path, capsys):
    out = tmp_path / "sub.csv"
    rc = main([
        "aggregate",
        "--predictions", str(fixture_dir / "tile_predictions.ndjson"),
        "--catalog", str(fixture_dir / "catalog.csv"),
        "--out", str(out),
        "--k", "9", "--min-votes", "2", "--max-labels", "10",
        "--grid", "3x3",
    ])
    assert rc == 0
    rows = read_submission(out)
    assert len(rows) == 16
    assert [r.quadrat_id for r in rows] == sorted(r.quadrat_id for r in rows)


def test_geofilter_stdout_and_filtering(fixture_dir, tmp_path, capsys):
    rc = main([
        "geofilter",
        "--observations", str(fixture_dir / "observations.csv"),
        "--regions", str(fixture_dir / "geo_regions.json"),
        "--catalog", str(fixture_dir / "catalog.csv"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "species_id,allowed"
    flags = {int(line.split(",")[1]) for line in lines[1:]}
    assert flags == {0, 1}  # fixture has both allowed and masked species

    masked = tmp_path / "masked.ndjson"
    rc = main([
        "geofilter",
        "--observations", str(fixture_dir / "observations.csv"),
        "--regions", str(fixture_dir / "geo_regions.json"),
        "--catalog", str(fixture_dir / "catalog.csv"),
        "--out", str(tmp_path / "mask.csv"),
        "--predictions", str(fixture_dir / "tile_predictions.ndjson"),
        "--out-predictions", str(masked),
    ])
    assert rc == 0
    assert (tmp_path / "mask.csv").exists()
    filtered = read_tile_predictions(masked)
    original = read_tile_predictions(fixture_dir / "tile_predictions.ndjson")
    assert len(filtered) <= len(original)


_NO_SPECIES_ALLOWED = "floratile: error: geolocation mask would disallow every species; check regions file\n"


def test_geofilter_all_offshore_exits_1(fixture_dir, tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    obs.write_text("species_id,lat,lon\n101,55.0,25.0\n")  # far outside every region
    rc = main([
        "geofilter",
        "--observations", str(obs),
        "--regions", str(fixture_dir / "geo_regions.json"),
        "--catalog", str(fixture_dir / "catalog.csv"),
    ])
    assert rc == 1
    assert capsys.readouterr().err == _NO_SPECIES_ALLOWED


def test_geofilter_rejects_a_bool_vertex(fixture_dir, tmp_path, capsys):
    regions = json.loads((fixture_dir / "geo_regions.json").read_text())
    regions[0]["polygon"][0] = [42.0, False]
    geo = tmp_path / "geo_bool.json"
    geo.write_text(json.dumps(regions))
    rc = main([
        "geofilter",
        "--observations", str(fixture_dir / "observations.csv"),
        "--regions", str(geo),
        "--catalog", str(fixture_dir / "catalog.csv"),
        "--out", str(tmp_path / "mask.csv"),
    ])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"floratile: error: {geo}: region #0: region 'SYN-LAND': "
        "vertices must be (lat, lon) number pairs (False is not a number)\n"
    )
    assert not (tmp_path / "mask.csv").exists()


def test_run_geo_all_offshore_exits_1(fixture_dir, tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    obs.write_text("species_id,lat,lon\n101,55.0,25.0\n")
    out = tmp_path / "out"
    rc = main(["run",
               "--catalog", str(fixture_dir / "catalog.csv"),
               "--predictions", str(fixture_dir / "tile_predictions.ndjson"),
               "--out", str(out), "--grid", "3x3",
               "--geo", "--observations", str(obs),
               "--geo-regions", str(fixture_dir / "geo_regions.json")])
    assert rc == 1
    assert capsys.readouterr().err == _NO_SPECIES_ALLOWED
    assert not (out / "submission.csv").exists()


def test_run_geo_all_masked_image_exits_1(fixture_dir, tmp_path, capsys):
    catalog = load_catalog(fixture_dir / "catalog.csv")
    geo = GeoOptions(
        enabled=True,
        observations_path=str(fixture_dir / "observations.csv"),
        regions_path=str(fixture_dir / "geo_regions.json"),
    )
    disallowed = np.flatnonzero(~compute_geo_mask(geo, catalog).allowed)
    assert disallowed.size
    lines = (fixture_dir / "tile_predictions.ndjson").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    victim = records[0]["image_id"]
    for rec in records:
        if rec["image_id"] == victim:
            rec["probs"] = [[int(disallowed[0]), 1.0]]
    preds = tmp_path / "preds.ndjson"
    preds.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    out = tmp_path / "out"
    rc = main([
        "run", "--mode", "tiling", "--grid", "3x3", "--geo",
        "--catalog", str(fixture_dir / "catalog.csv"),
        "--predictions", str(preds),
        "--observations", geo.observations_path,
        "--geo-regions", geo.regions_path,
        "--out", str(out),
    ])
    assert rc == 1
    assert f"removed every species of every tile of {victim!r}" in capsys.readouterr().err
    assert not (out / "submission.csv").exists()


def test_synth_then_run_then_evaluate(tmp_path, capsys):
    fixture = tmp_path / "bundle"
    rc = main([
        "synth", "--out", str(fixture),
        "--n-images", "12", "--grid", "3x3", "--n-species", "40",
        "--n-clusters", "2", "--seed", "4",
    ])
    assert rc == 0

    out = tmp_path / "out"
    rc = main([
        "run",
        "--catalog", str(fixture / "catalog.csv"),
        "--predictions", str(fixture / "tile_predictions.ndjson"),
        "--out", str(out),
        "--mode", "tiling", "--grid", "3x3",
        "--truth", str(fixture / "truth.csv"),
    ])
    assert rc == 0
    run_out = capsys.readouterr().out
    assert "final macro-F1:" in run_out

    rc = main([
        "evaluate",
        "--submission", str(out / "submission.csv"),
        "--truth", str(fixture / "truth.csv"),
    ])
    assert rc == 0
    eval_out = capsys.readouterr().out
    assert eval_out.splitlines()[0] == [l for l in run_out.splitlines() if "macro-F1" in l][0]


# The flags each command of the stage chain gets on top of its required ones:
# all of them set, or none, so the CLI defaults must match the library's.
_CHAIN_FLAGS = {
    "explicit": {
        "project": ["--seed", "42"],
        "cluster": ["--k", "2", "--seed", "42"],
        "priors": ["--k", "2"],
        "aggregate": ["--k", "9", "--min-votes", "2", "--max-labels", "10"],
        "run": ["--mode", "tiling", "--priors-k", "2", "--seed", "42"],
    },
    "defaults": {},
}


@pytest.mark.parametrize("flags", _CHAIN_FLAGS.values(), ids=_CHAIN_FLAGS.keys())
def test_stage_chain_matches_single_run(fixture_dir, tmp_path, capsys, flags):
    """project | cluster | priors | reweight | aggregate == run --priors."""
    out = tmp_path
    proj = out / "projection.csv"
    assign = out / "assignments.csv"
    region_map = out / "region_clusters.csv"
    priors = out / "priors.ndjson"
    reweighted = out / "reweighted.ndjson"
    staged_sub = out / "staged.csv"

    assert main(["project",
                 "--embeddings", str(fixture_dir / "embeddings.ndjson"),
                 "--out", str(proj), *flags.get("project", [])]) == 0
    assert main(["cluster", "--projection", str(proj), *flags.get("cluster", []),
                 "--out", str(assign),
                 "--registry", str(fixture_dir / "regions.txt"),
                 "--region-map-out", str(region_map)]) == 0
    assert main(["priors",
                 "--predictions", str(fixture_dir / "tile_predictions.ndjson"),
                 "--assignments", str(assign),
                 "--catalog", str(fixture_dir / "catalog.csv"),
                 *flags.get("priors", []), "--out", str(priors)]) == 0
    assert main(["reweight",
                 "--predictions", str(fixture_dir / "tile_predictions.ndjson"),
                 "--priors", str(priors),
                 "--region-clusters", str(region_map),
                 "--registry", str(fixture_dir / "regions.txt"),
                 "--out", str(reweighted)]) == 0
    assert main(["aggregate",
                 "--predictions", str(reweighted),
                 "--catalog", str(fixture_dir / "catalog.csv"),
                 "--out", str(staged_sub),
                 *flags.get("aggregate", [])]) == 0

    run_dir = out / "single"
    assert main(["run",
                 "--catalog", str(fixture_dir / "catalog.csv"),
                 "--predictions", str(fixture_dir / "tile_predictions.ndjson"),
                 "--out", str(run_dir),
                 "--grid", "3x3",
                 "--registry", str(fixture_dir / "regions.txt"),
                 "--priors",
                 "--embeddings", str(fixture_dir / "embeddings.ndjson"),
                 *flags.get("run", []),
                 "--keep-intermediates"]) == 0
    capsys.readouterr()

    assert staged_sub.read_bytes() == (run_dir / "submission.csv").read_bytes()
    # the staged intermediates match the runner's byte for byte
    assert proj.read_bytes() == (run_dir / "projection.csv").read_bytes()
    assert assign.read_bytes() == (run_dir / "assignments.csv").read_bytes()
    assert region_map.read_bytes() == (run_dir / "region_clusters.csv").read_bytes()
    assert priors.read_bytes() == (run_dir / "priors.ndjson").read_bytes()
    assert reweighted.read_bytes() == (run_dir / "reweighted_predictions.ndjson").read_bytes()


def test_evaluate_prints_a_library_warning_as_one_line(fixture_dir, tmp_path, capsys):
    submission = tmp_path / "sub.csv"
    submission.write_text("quadrat_id;species_ids\nGHOST;[1]\n")
    assert main(["evaluate", "--submission", str(submission), "--truth", str(fixture_dir / "truth.csv")]) == 0
    assert capsys.readouterr().err == "floratile: warning: ignoring predictions for 1 unknown quadrat(s)\n"


def test_geofilter_and_evaluate_match_run(fixture_dir, tmp_path, capsys):
    """geofilter and evaluate write the same bytes as run --geo --keep-intermediates."""
    run_dir = tmp_path / "single"
    assert main(["run",
                 "--catalog", str(fixture_dir / "catalog.csv"),
                 "--predictions", str(fixture_dir / "tile_predictions.ndjson"),
                 "--out", str(run_dir),
                 "--mode", "tiling", "--grid", "3x3",
                 "--geo",
                 "--observations", str(fixture_dir / "observations.csv"),
                 "--geo-regions", str(fixture_dir / "geo_regions.json"),
                 "--truth", str(fixture_dir / "truth.csv"),
                 "--keep-intermediates"]) == 0
    geofilter = ["geofilter",
                 "--observations", str(fixture_dir / "observations.csv"),
                 "--regions", str(fixture_dir / "geo_regions.json"),
                 "--catalog", str(fixture_dir / "catalog.csv")]
    capsys.readouterr()
    assert main(geofilter) == 0
    mask_stdout = capsys.readouterr().out
    assert main(geofilter + [
        "--out", str(tmp_path / "mask.csv"),
        "--predictions", str(fixture_dir / "tile_predictions.ndjson"),
        "--out-predictions", str(tmp_path / "masked.ndjson"),
    ]) == 0
    assert main(["evaluate",
                 "--submission", str(run_dir / "submission.csv"),
                 "--truth", str(fixture_dir / "truth.csv"),
                 "--out", str(tmp_path / "report.json")]) == 0
    capsys.readouterr()

    assert (tmp_path / "mask.csv").read_bytes() == (run_dir / "mask.csv").read_bytes()
    assert mask_stdout.encode("utf-8") == (tmp_path / "mask.csv").read_bytes()
    assert (tmp_path / "masked.ndjson").read_bytes() == (
        run_dir / "masked_predictions.ndjson"
    ).read_bytes()
    assert (tmp_path / "report.json").read_bytes() == (run_dir / "score_report.json").read_bytes()


def test_run_config_file_and_env_and_flag_precedence(fixture_dir, tmp_path, capsys, monkeypatch):
    config = {
        "catalog": str(fixture_dir / "catalog.csv"),
        "predictions": str(fixture_dir / "tile_predictions.ndjson"),
        "out": str(tmp_path / "from_config"),
        "mode": "tiling",
        "grid": "3x3",
        "truth": str(fixture_dir / "truth.csv"),
        "seed": 42,
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config))

    assert main(["run", "--config", str(config_path)]) == 0
    assert (tmp_path / "from_config" / "submission.csv").exists()

    # the environment variable stands in for --config
    monkeypatch.setenv("FLORATILE_CONFIG", str(config_path))
    assert main(["run", "--out", str(tmp_path / "from_env")]) == 0
    assert (tmp_path / "from_env" / "submission.csv").exists()
    assert (tmp_path / "from_env" / "submission.csv").read_bytes() == (
        tmp_path / "from_config" / "submission.csv"
    ).read_bytes()

    # flags override config values: switch to baseline mode
    assert main([
        "run", "--config", str(config_path),
        "--mode", "baseline", "--baseline-k", "5",
        "--training-counts", str(fixture_dir / "training_counts.csv"),
        "--out", str(tmp_path / "flag_wins"),
    ]) == 0
    rows = read_submission(tmp_path / "flag_wins" / "submission.csv")
    assert all(len(r.species_ids) == 5 for r in rows)
    capsys.readouterr()


def test_run_missing_required_paths_exits_1(capsys):
    assert main(["run", "--mode", "tiling"]) == 1
    assert "needs --catalog" in capsys.readouterr().err


def test_run_priors_on_too_few_images_exits_1(tmp_path, capsys):
    spec = SynthSpec(n_images=8, grid_rows=3, grid_cols=3, n_species=40, n_clusters=2, noise=0.5)
    bundle = write_bundle(generate(spec, seed=21), tmp_path / "tiny")
    out = tmp_path / "out"
    rc = main(["run",
               "--catalog", str(bundle / "catalog.csv"),
               "--predictions", str(bundle / "tile_predictions.ndjson"),
               "--out", str(out),
               "--mode", "tiling", "--grid", "3x3",
               "--registry", str(bundle / "regions.txt"),
               "--priors", "--embeddings", str(bundle / "embeddings.ndjson")])
    assert rc == 1
    assert "need more than n_neighbors=10 points, got 8" in capsys.readouterr().err
    assert not (out / "submission.csv").exists()


def test_empty_embedding_vectors_exit_1_naming_the_file(fixture_dir, tmp_path, capsys):
    emb = tmp_path / "emb.ndjson"
    emb.write_text("".join(json.dumps({"image_id": f"img{k}", "vector": []}) + "\n" for k in range(16)))
    shown = f"floratile: error: {emb}: embedding vectors must not be empty\n"
    assert main(["project", "--embeddings", str(emb), "--out", str(tmp_path / "proj.csv")]) == 1
    assert capsys.readouterr().err == shown
    out = tmp_path / "out"
    assert main(["run", "--mode", "tiling", "--grid", "3x3",
                 "--catalog", str(fixture_dir / "catalog.csv"),
                 "--predictions", str(fixture_dir / "tile_predictions.ndjson"),
                 "--registry", str(fixture_dir / "regions.txt"),
                 "--out", str(out), "--priors", "--embeddings", str(emb)]) == 1
    assert capsys.readouterr().err == shown
    assert not (out / "submission.csv").exists()


def test_run_bad_config_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["run", "--config", str(bad)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_run_config_integer_past_digit_limit_exits_1(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text('{"seed": %s}' % ("9" * 5000))
    assert main(["run", "--config", str(config)]) == 1
    assert capsys.readouterr().err.startswith(f"floratile: error: {config}: invalid JSON (Exceeds the limit")


@pytest.mark.parametrize("config,message", [
    ({"baseline_k": "x"}, "baseline_k must be an integer, got 'x'"),
    ({"k_per_tile": "9"}, "k_per_tile must be an integer, got '9'"),
    ({"priors": True}, "priors must be an object, got True"),
    ({"geo": {"reference": 5}}, "geo.reference must be [lat, lon], got 5"),
    ({"geo": {"reference": [1.0, "2"]}}, "geo.reference must be a number, got '2'"),
    ({"geo": {"reference": [None, 4.0]}}, "geo.reference must be [lat, lon], got [None, 4.0]"),
    ({"priors": {"k": 2.5}}, "priors.k must be an integer, got 2.5"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"keep_intermediates": "yes"}, "keep_intermediates must be true or false, got 'yes'"),
    ({"priors": {"epsilon": 10**400}}, "priors.epsilon must be a number, got an integer too large for a float"),
    ({"geo": {"reference": [10**400, 4.0]}},
     "geo.reference must be a number, got an integer too large for a float"),
    ({"k_per_tiles": 1}, "unknown config key 'k_per_tiles'"),
    ({"geo": {"enable": True}}, "unknown config key 'geo.enable'"),
    ({"observations": "observations.csv"}, "unknown config key 'observations'"),  # only geo.observations
    ({"out": "\ud800x"}, "out must be text that UTF-8 can encode, got '\\ud800x'"),
    ({"geo": {"observations": "obs\udfff.csv"}},
     "geo.observations must be text that UTF-8 can encode, got 'obs\\udfff.csv'"),
    ({"mode": "\ud800"}, "mode must be text that UTF-8 can encode, got '\\ud800'"),
])
def test_run_mistyped_config_value_exits_1(fixture_dir, tmp_path, capsys, config, message):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({
        "catalog": str(fixture_dir / "catalog.csv"),
        "predictions": str(fixture_dir / "tile_predictions.ndjson"),
        "out": str(tmp_path / "out"),
        "grid": "3x3",
        **config,
    }))
    assert main(["run", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == f"floratile: error: {config_path}: {message}\n"
    assert not (tmp_path / "out" / "submission.csv").exists()


@pytest.mark.parametrize("flags,geo,shown", [
    (["--reference", "nan,4"], {}, "(nan, 4.0)"),
    (["--reference", "500,4"], {}, "(500.0, 4.0)"),
    ([], {"reference": [44.0, 200.0]}, "(44.0, 200.0)"),
], ids=["flag_nan", "flag_lat_500", "config_lon_200"])
def test_run_reference_outside_bounds_exits_1(fixture_dir, tmp_path, capsys, flags, geo, shown):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"geo": geo}))
    out = tmp_path / "out"
    rc = main([
        "run", "--config", str(config_path), "--grid", "3x3", "--geo",
        "--catalog", str(fixture_dir / "catalog.csv"),
        "--predictions", str(fixture_dir / "tile_predictions.ndjson"),
        "--observations", str(fixture_dir / "observations.csv"),
        "--geo-regions", str(fixture_dir / "geo_regions.json"),
        "--out", str(out), "--keep-intermediates", *flags,
    ])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"floratile: error: reference {shown} outside lat [-90, 90], lon [-180, 180]\n"
    )
    assert not (out / "mask.csv").exists()


@pytest.mark.parametrize("flags,shown", [
    (["--ref-lat", "nan"], "(nan, 4.0)"),
    (["--ref-lon", "-180.5"], "(44.0, -180.5)"),
], ids=["lat_nan", "lon_past_180"])
def test_geofilter_reference_outside_bounds_exits_1(fixture_dir, capsys, flags, shown):
    rc = main([
        "geofilter",
        "--observations", str(fixture_dir / "observations.csv"),
        "--regions", str(fixture_dir / "geo_regions.json"),
        "--catalog", str(fixture_dir / "catalog.csv"),
        *flags,
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"floratile: error: reference {shown} outside lat [-90, 90], lon [-180, 180]\n"


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_run_non_finite_priors_epsilon_exits_1(fixture_dir, tmp_path, capsys, epsilon):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["run",
                   "--catalog", str(fixture_dir / "catalog.csv"),
                   "--predictions", str(fixture_dir / "tile_predictions.ndjson"),
                   "--out", str(out), "--grid", "3x3",
                   "--registry", str(fixture_dir / "regions.txt"),
                   "--priors", "--embeddings", str(fixture_dir / "embeddings.ndjson"),
                   "--priors-epsilon", epsilon])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"floratile: error: priors epsilon must be positive and finite, got {float(epsilon)}\n"
    )
    assert not out.exists()


def test_priors_epsilon_zero_exits_1_as_in_run(fixture_dir, tmp_path, capsys):
    out = tmp_path / "priors.ndjson"
    predictions = str(fixture_dir / "tile_predictions.ndjson")
    assert main(["priors", "--predictions", predictions,
                 "--assignments", str(fixture_dir / "labels.csv"),
                 "--catalog", str(fixture_dir / "catalog.csv"),
                 "--out", str(out), "--epsilon", "0"]) == 1
    message = "floratile: error: priors epsilon must be positive and finite, got 0.0\n"
    assert capsys.readouterr().err == message
    assert not out.exists()
    assert main(["run", "--catalog", str(fixture_dir / "catalog.csv"), "--predictions", predictions,
                 "--out", str(tmp_path / "run"), "--registry", str(fixture_dir / "regions.txt"),
                 "--priors", "--embeddings", str(fixture_dir / "embeddings.ndjson"),
                 "--priors-epsilon", "0"]) == 1
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("k,first_cluster,shown", [(1, None, 1), (2, -4, -4)])
def test_priors_assignment_outside_k_clusters_exits_1(fixture_dir, tmp_path, capsys, k, first_cluster, shown):
    assignments = fixture_dir / "labels.csv"  # clusters 0 and 1
    if first_cluster is not None:
        header, first, *rest = assignments.read_text().splitlines()
        assignments = tmp_path / "assignments.csv"
        first = f"{first.partition(',')[0]},{first_cluster}"
        assignments.write_text("".join(line + "\n" for line in (header, first, *rest)))
    out = tmp_path / "priors.ndjson"
    assert main(["priors", "--predictions", str(fixture_dir / "tile_predictions.ndjson"),
                 "--assignments", str(assignments), "--catalog", str(fixture_dir / "catalog.csv"),
                 "--out", str(out), "--k", str(k)]) == 1
    assert capsys.readouterr().err == f"floratile: error: assignment {shown} outside clusters 0..{k - 1}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    (["--k-per-tile", "0"], "k must be >= 1, got 0"),
    (["--min-votes", "0"], "min_votes and max_labels must be >= 1"),
    (["--max-labels", "0", "--priors", "--embeddings", "{dir}/embeddings.ndjson",
      "--registry", "{dir}/regions.txt"], "min_votes and max_labels must be >= 1"),
], ids=["k_per_tile", "min_votes", "max_labels_with_priors"])
def test_run_vote_setting_below_1_exits_1_before_any_output(fixture_dir, tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    rc = main([
        "run", "--grid", "3x3", "--geo", "--keep-intermediates",
        "--catalog", str(fixture_dir / "catalog.csv"),
        "--predictions", str(fixture_dir / "tile_predictions.ndjson"),
        "--observations", str(fixture_dir / "observations.csv"),
        "--geo-regions", str(fixture_dir / "geo_regions.json"),
        "--out", str(out), *(flag.format(dir=fixture_dir) for flag in flags),
    ])
    assert rc == 1
    assert capsys.readouterr().err == f"floratile: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("cluster", [-1, 2])
def test_reweight_cluster_outside_priors_exits_1(fixture_dir, tmp_path, capsys, cluster):
    priors = tmp_path / "priors.ndjson"
    priors.write_text("".join(json.dumps({"cluster": c, "prior": [0.025] * 40}) + "\n" for c in range(2)))
    region_map = tmp_path / "region_clusters.csv"
    region_map.write_text(f"region,cluster\nSYN-AA,0\nSYN-BB,{cluster}\n")
    out = tmp_path / "reweighted.ndjson"
    rc = main(["reweight",
               "--predictions", str(fixture_dir / "tile_predictions.ndjson"),
               "--priors", str(priors),
               "--region-clusters", str(region_map),
               "--registry", str(fixture_dir / "regions.txt"),
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"floratile: error: region 'SYN-BB' maps to cluster {cluster}; priors have rows 0..1\n"
    )
    assert not out.exists()


def test_run_mistyped_config_value_names_the_file_as_read(fixture_dir, tmp_path, monkeypatch, capsys):
    (tmp_path / "run.json").write_text(json.dumps({
        "catalog": str(fixture_dir / "catalog.csv"),
        "predictions": str(fixture_dir / "tile_predictions.ndjson"),
        "out": str(tmp_path / "out"),
        "seed": "42",
    }))
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", "./run.json"]) == 1
    assert capsys.readouterr().err == "floratile: error: run.json: seed must be an integer, got '42'\n"


def test_run_config_null_means_unset(fixture_dir, tmp_path, capsys):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({
        "catalog": str(fixture_dir / "catalog.csv"),
        "predictions": str(fixture_dir / "tile_predictions.ndjson"),
        "out": str(tmp_path / "out"),
        "grid": "3x3",
        "seed": None,
        "k_per_tile": None,
        "priors": None,
        "geo": {"reference": None, "enabled": False},
    }))
    assert main(["run", "--config", str(config_path)]) == 0
    capsys.readouterr()


def test_import_leaves_network_modules_unloaded():
    code = ("import sys, floratile.cli; "
            "print(sorted({'ssl', 'urllib.request', 'http.client'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=CHILD_ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("iters", ["a,b,c", "1,2"])
def test_project_bad_iters_exits_1(fixture_dir, tmp_path, capsys, iters):
    """The schedule is the library's: `project` has no --iters."""
    out = tmp_path / "proj.csv"
    assert main(["project", "--embeddings", str(fixture_dir / "embeddings.ndjson"),
                 "--out", str(out), "--iters", iters]) == 1
    assert capsys.readouterr().err == f"floratile: error: unrecognized arguments: --iters {iters}\n"
    assert not out.exists()


def test_plot_svg_circle_count(fixture_dir, tmp_path, capsys):
    proj = tmp_path / "proj.csv"
    assign = tmp_path / "assign.csv"
    assert main(["project", "--embeddings", str(fixture_dir / "embeddings.ndjson"),
                 "--out", str(proj)]) == 0
    assert main(["cluster", "--projection", str(proj), "--k", "2", "--out", str(assign)]) == 0
    svg_path = tmp_path / "plot.svg"
    assert main(["plot", "--projection", str(proj), "--assignments", str(assign),
                 "--out", str(svg_path), "--title", "clusters"]) == 0
    svg = svg_path.read_text()
    assert svg.count("<circle") == 16
    assert ">clusters</text>" in svg

    # coloring by assignments and by registry at once is contradictory
    assert main(["plot", "--projection", str(proj), "--assignments", str(assign),
                 "--registry", str(fixture_dir / "regions.txt"),
                 "--out", str(svg_path)]) == 1
    capsys.readouterr()


def test_cluster_reads_its_registry_before_kmeans(tmp_path, monkeypatch, capsys):
    proj, registry, assign = tmp_path / "proj.csv", tmp_path / "regions.txt", tmp_path / "assign.csv"
    proj.write_text("image_id,x,y\nA-1,0.0,0.0\nA-2,1.0,0.0\nA-3,0.0,1.0\n")
    registry.write_text("\n")
    monkeypatch.setattr(cli, "kmeans", lambda *args, **kwargs: pytest.fail("k-means ran before the registry was read"))
    assert main(["cluster", "--projection", str(proj), "--k", "2", "--out", str(assign),
                 "--registry", str(registry), "--region-map-out", str(tmp_path / "rc.csv")]) == 1
    assert capsys.readouterr().err == f"floratile: error: {registry}: region registry is empty\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["proj.csv", "regions.txt"]


def test_ids_holding_commas_pass_through_the_cluster_stage_files(tmp_path, capsys):
    """Image ids and region names holding `,` and `"` survive every CSV the
    stages hand each other."""
    regions = ["a,b", 'c,"d"']
    ids = [f"{regions[i % 2]}-{i}" for i in range(12)]
    ids[0] = "a,b"
    rng = np.random.default_rng(0)
    emb, registry = tmp_path / "emb.ndjson", tmp_path / "regions.txt"
    emb.write_text("".join(json.dumps({"image_id": i, "vector": rng.normal(size=4).tolist()}) + "\n" for i in ids))
    registry.write_text("".join(name + "\n" for name in regions))
    proj, assign, rc = tmp_path / "proj.csv", tmp_path / "assign.csv", tmp_path / "rc.csv"
    assert main(["project", "--embeddings", str(emb), "--out", str(proj)]) == 0
    assert main(["cluster", "--projection", str(proj), "--k", "2", "--out", str(assign),
                 "--registry", str(registry), "--region-map-out", str(rc)]) == 0
    assert main(["plot", "--projection", str(proj), "--assignments", str(assign),
                 "--out", str(tmp_path / "plot.svg")]) == 0
    assert sorted(read_region_cluster_map(rc)) == sorted(regions)

    preds, priors = tmp_path / "preds.ndjson", tmp_path / "priors.ndjson"
    preds.write_text("".join(
        json.dumps({"image_id": i, "row": 0, "col": 0, "probs": [[0, 0.5], [1, 0.5]], "complete": True}) + "\n"
        for i in ids[:2]
    ))
    priors.write_text("".join(json.dumps({"cluster": c, "prior": [0.25, 0.75]}) + "\n" for c in range(2)))
    assert main(["reweight", "--predictions", str(preds), "--priors", str(priors),
                 "--region-clusters", str(rc), "--registry", str(registry),
                 "--out", str(tmp_path / "reweighted.ndjson")]) == 0
    assert capsys.readouterr().err == ""
    reweighted = read_tile_predictions(tmp_path / "reweighted.ndjson")
    assert [t.image_id for t in reweighted.tiles(0, len(reweighted))] == ids[:2]


def test_module_entry_point_no_subcommand():
    proc = subprocess.run(
        [sys.executable, "-m", "floratile"],
        env=CHILD_ENV,
        capture_output=True,
        text=True,
    )
    # no subcommand is an input error, reported without a traceback
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr


def test_module_invocation_tile_plan():
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys; from floratile.cli import main; sys.exit(main(sys.argv[1:]))",
            "tile-plan", "--width", "100", "--height", "100", "--grid", "2x2",
        ],
        env=CHILD_ENV,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.strip().split("\n")) == 4


def _unwritable_cases(fixture_dir, tmp_path):
    """(argv, the path the error names) per subcommand whose output cannot be written."""
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    missing = tmp_path / "nodir" / "out"
    proj = tmp_path / "proj.csv"
    proj.write_text("image_id,x,y\na,0.0,0.0\nb,1.0,1.0\n")
    return {
        "aggregate": (["aggregate", "--predictions", str(fixture_dir / "tile_predictions.ndjson"),
                       "--catalog", str(fixture_dir / "catalog.csv"), "--out", str(missing)], missing),
        "run": (["run", "--catalog", str(fixture_dir / "catalog.csv"),
                 "--predictions", str(fixture_dir / "tile_predictions.ndjson"),
                 "--grid", "3x3", "--out", str(blocker)], blocker),
        "synth": (["synth", "--out", str(blocker / "x"), "--n-images", "4"], blocker / "x"),
        "tile-plan": (["tile-plan", "--width", "8", "--height", "8", "--out", str(missing)], missing),
        "plot": (["plot", "--projection", str(proj), "--out", str(missing)], missing),
        "geofilter": (["geofilter", "--observations", str(fixture_dir / "observations.csv"),
                       "--regions", str(fixture_dir / "geo_regions.json"),
                       "--catalog", str(fixture_dir / "catalog.csv"), "--out", str(tmp_path)], tmp_path),
    }


@pytest.mark.parametrize("command", ["aggregate", "run", "synth", "tile-plan", "plot", "geofilter"])
def test_unwritable_output_path_exits_1_naming_it(fixture_dir, tmp_path, capsys, command):
    argv, path = _unwritable_cases(fixture_dir, tmp_path)[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"floratile: error: {path}: ") and err.count("\n") == 1, err


def _with_record(fixture_dir, tmp_path, edit):
    """The fixture's tile predictions with ``edit`` applied to the first record."""
    records = [json.loads(line) for line in (fixture_dir / "tile_predictions.ndjson").read_text().splitlines()]
    edit(records[0])
    path = tmp_path / "preds.ndjson"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    return path, records[0]


@pytest.mark.parametrize("command", ["run", "aggregate"])
def test_numeric_image_id_exits_1_at_its_line(fixture_dir, tmp_path, capsys, command):
    preds, _ = _with_record(fixture_dir, tmp_path, lambda rec: rec.update(image_id=7))
    argv = [command, "--catalog", str(fixture_dir / "catalog.csv"), "--predictions", str(preds),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"floratile: error: {preds}:1: tile prediction must carry a non-empty string image_id\n"
    )


@pytest.mark.parametrize("command", ["run", "aggregate", "project"])
def test_unencodable_image_id_exits_1_naming_the_file(fixture_dir, tmp_path, capsys, command):
    # JSON decodes "\\ud800" to a lone surrogate, which no CSV or submission can hold
    if command == "project":
        lines = (fixture_dir / "embeddings.ndjson").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        records[1]["image_id"] = "\ud800"
        path = tmp_path / "emb.ndjson"
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        argv = ["project", "--embeddings", str(path), "--out", str(tmp_path / "proj.csv")]
        message = f"{path}: image id '\\ud800' is not encodable as UTF-8"
    else:
        path, _ = _with_record(fixture_dir, tmp_path, lambda rec: rec.update(image_id="\ud800"))
        argv = [command, "--catalog", str(fixture_dir / "catalog.csv"), "--predictions", str(path),
                "--out", str(tmp_path / "out")]
        message = f"{path}:1: tile prediction image_id '\\ud800' is not encodable as UTF-8"
    assert main(argv) == 1
    assert capsys.readouterr().err == f"floratile: error: {message}\n"


@pytest.mark.parametrize("flags", [[], ["--geo"], ["--priors"], "aggregate"],
                         ids=["plain", "geo", "priors", "aggregate"])
def test_species_index_outside_catalog_exits_1_in_every_mode(fixture_dir, tmp_path, capsys, flags):
    def outside(rec):
        rec["probs"][-1][0] = 9999

    preds, victim = _with_record(fixture_dir, tmp_path, outside)
    inputs = ["--catalog", str(fixture_dir / "catalog.csv"), "--predictions", str(preds)]
    if flags == "aggregate":
        argv = ["aggregate", *inputs, "--out", str(tmp_path / "sub.csv")]
    else:
        argv = ["run", *inputs, "--grid", "3x3", "--out", str(tmp_path / "out"), *flags,
                "--observations", str(fixture_dir / "observations.csv"),
                "--geo-regions", str(fixture_dir / "geo_regions.json"),
                "--embeddings", str(fixture_dir / "embeddings.ndjson"),
                "--registry", str(fixture_dir / "regions.txt")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"floratile: error: species index 9999 in {victim['image_id']!r} exceeds catalog size 40\n"
    )


@pytest.mark.parametrize("extra", [
    ["--seed", "-1"],
    ["--seed", "-1", "--priors", "--registry", "{dir}/regions.txt", "--embeddings", "{dir}/embeddings.ndjson"],
    ["--config", "{dir}/run.json"],
], ids=["run", "run-priors", "run-config"])
def test_run_negative_seed_exits_1_before_reading_input(tmp_path, capsys, extra):
    # none of the input files exist, so a read before the check would name one
    missing = tmp_path / "missing"
    (tmp_path / "run.json").write_text(json.dumps({"seed": -1}))
    out = tmp_path / "out"
    assert main(["run", "--grid", "3x3",
                 "--catalog", str(missing / "catalog.csv"),
                 "--predictions", str(missing / "tile_predictions.ndjson"),
                 "--out", str(out), *(flag.format(dir=tmp_path) for flag in extra)]) == 1
    assert capsys.readouterr().err == "floratile: error: seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["project", "cluster", "synth"])
def test_stage_command_negative_seed_exits_1(fixture_dir, tmp_path, capsys, command):
    projection = tmp_path / "projection.csv"
    projection.write_text("image_id,x,y\n" + "".join(f"img{i},{i}.0,{i % 3}.0\n" for i in range(6)))
    flags = {
        "project": ["--embeddings", str(fixture_dir / "embeddings.ndjson")],
        "cluster": ["--projection", str(projection), "--k", "2"],
        "synth": ["--n-images", "8"],
    }[command]
    out = tmp_path / "out"
    assert main([command, *flags, "--out", str(out), "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "floratile: error: seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--mn-ratio", "nan"], ["--fp-ratio", "inf"], ["--mn-ratio", "1e300"], ["--neighbors", "2", "--fp-ratio", "5e18"],
    ["--mn-ratio", "1e17"], ["--mn-ratio", "8e15"], ["--learning-rate", "-1"], ["--learning-rate", "0"],
    ["--learning-rate", "nan"], ["--learning-rate", "inf"], ["--neighbors", "0"], ["--mn-ratio", "-0.5"],
], ids=["mn-nan", "fp-inf", "mn-huge", "fp-huge", "mn-pairs-overflow", "mn-draw-bytes", "lr-negative", "lr-zero", "lr-nan",
        "lr-inf", "neighbors-zero", "mn-negative"])
def test_project_rejects_unusable_settings(fixture_dir, tmp_path, capsys, flags):
    """`project` runs the projector at its defaults; it takes only --seed of
    the projector's settings, as `run` does."""
    out = tmp_path / "proj.csv"
    assert main(["project", "--embeddings", str(fixture_dir / "embeddings.ndjson"),
                 "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err == f"floratile: error: unrecognized arguments: {' '.join(flags)}\n"
    assert not out.exists()


@pytest.mark.parametrize("quadrat_id", ["Q;1", "Q\n1", "Q\r1"], ids=["semicolon", "lf", "cr"])
@pytest.mark.parametrize("mode, geo", [("tiling", False), ("baseline", False), ("tiling", True)],
                         ids=["tiling", "baseline", "tiling-geo-keep"])
def test_run_rejects_an_image_id_a_submission_cannot_hold(fixture_dir, tmp_path, capsys, mode, geo, quadrat_id):
    flags, probs = [], [[1, 0.6], [2, 0.4]]
    if geo:  # the intermediates a kept geo run would write come before the submission
        options = GeoOptions(enabled=True, observations_path=str(fixture_dir / "observations.csv"),
                             regions_path=str(fixture_dir / "geo_regions.json"))
        allowed = np.flatnonzero(compute_geo_mask(options, load_catalog(fixture_dir / "catalog.csv")).allowed)
        assert allowed.size >= 2
        probs = [[int(allowed[0]), 0.6], [int(allowed[1]), 0.4]]
        flags = ["--geo", "--keep-intermediates", "--observations", options.observations_path,
                 "--geo-regions", options.regions_path]
    preds = tmp_path / "preds.ndjson"
    preds.write_text(json.dumps({"image_id": quadrat_id, "row": 0, "col": 0, "probs": probs}) + "\n")
    out = tmp_path / "out"
    assert main(["run", "--mode", mode, "--grid", "1x1", "--catalog", str(fixture_dir / "catalog.csv"),
                 "--predictions", str(preds), "--training-counts", str(fixture_dir / "training_counts.csv"),
                 "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err == (
        f"floratile: error: quadrat_id {quadrat_id!r} holds ';' or a line break, which a submission cannot hold\n"
    )
    assert not out.exists() or not any(out.iterdir())


# --- priors runs that fail in the reweight ------------------------------------

def _priors_run(fixture_dir, out, predictions=None, embeddings=None):
    return main(["run", "--mode", "tiling", "--grid", "3x3",
                 "--catalog", str(fixture_dir / "catalog.csv"),
                 "--predictions", str(predictions or fixture_dir / "tile_predictions.ndjson"),
                 "--registry", str(fixture_dir / "regions.txt"), "--out", str(out),
                 "--priors", "--priors-k", "2", "--embeddings", str(embeddings or fixture_dir / "embeddings.ndjson")])


def test_run_priors_with_an_embedding_missing_exits_1(fixture_dir, tmp_path, capsys):
    lines = (fixture_dir / "embeddings.ndjson").read_text().splitlines(keepends=True)
    emb = tmp_path / "emb.ndjson"
    emb.write_text("".join(lines[:3] + lines[4:]))
    out = tmp_path / "out"
    assert _priors_run(fixture_dir, out, embeddings=emb) == 1
    missing = json.loads(lines[3])["image_id"]
    assert capsys.readouterr().err == f"floratile: error: no cluster assignment for predicted image(s): {[missing]}\n"
    assert not (out / "submission.csv").exists()


def _underflowing(fixture_dir, tmp_path, at, probs):
    """The fixture's tile file with record ``at`` holding ``probs``, and that record."""
    lines = (fixture_dir / "tile_predictions.ndjson").read_text().splitlines()
    rec = dict(json.loads(lines[at]), probs=probs, complete=False)
    lines[at] = json.dumps(rec)
    path = tmp_path / "preds.ndjson"
    path.write_text("\n".join(lines) + "\n")
    return path, rec


@pytest.mark.parametrize("probs", [[[5, 5e-324]], [[5, 0.5], [7, 5e-324]]], ids=["one-entry", "one-of-two"])
def test_an_underflowing_reweight_is_an_input_error_at_its_tile(fixture_dir, tmp_path, capsys, probs):
    preds, rec = _underflowing(fixture_dir, tmp_path, 30, probs)
    tile = f"tile ({rec['row']},{rec['col']}) of {rec['image_id']!r}"
    index = probs[-1][0]
    out = tmp_path / "out"
    assert _priors_run(fixture_dir, out, predictions=preds) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"floratile: error: {re.escape(tile)}: probability 5e-324 of dense index {index} "
                        r"times its prior \S+ underflows to 0\n", err), err
    assert not (out / "submission.csv").exists()

    priors = tmp_path / "priors.ndjson"
    priors.write_text("".join(json.dumps({"cluster": c, "prior": [0.025] * 40}) + "\n" for c in range(2)))
    region_map = tmp_path / "region_clusters.csv"
    region_map.write_text("region,cluster\nSYN-AA,0\nSYN-BB,1\n")
    reweighted = tmp_path / "reweighted.ndjson"
    assert main(["reweight", "--predictions", str(preds), "--priors", str(priors),
                 "--region-clusters", str(region_map), "--registry", str(fixture_dir / "regions.txt"),
                 "--out", str(reweighted)]) == 1
    assert capsys.readouterr().err == (
        f"floratile: error: {tile}: probability 5e-324 of dense index {index} times its prior 0.025 underflows to 0\n"
    )
    assert not reweighted.exists()


@pytest.mark.parametrize("split,message", [
    (False, "no registered region is a prefix of quadrat id 'X-2'"),
    (True, "tile (0,0) of 'R-1': probability 1e-30 of dense index 0 times its prior 1e-300 underflows to 0"),
], ids=["one-slice", "underflow-in-an-earlier-slice"])
def test_reweight_raises_the_first_check_that_fails_in_the_first_slice_that_fails(
        tmp_path, monkeypatch, capsys, split, message):
    # R-1 underflows and X-2 has no region: within a slice the region check runs first
    preds, priors, region_map, registry = (tmp_path / name for name in
                                           ("preds.ndjson", "priors.ndjson", "region_clusters.csv", "regions.txt"))
    preds.write_text(
        json.dumps({"image_id": "R-1", "row": 0, "col": 0, "probs": [[0, 1e-30], [1, 0.2], [2, 0.2], [3, 0.2]]})
        + "\n" + json.dumps({"image_id": "X-2", "row": 0, "col": 0, "probs": [[1, 0.5]]}) + "\n")
    priors.write_text(json.dumps({"cluster": 0, "prior": [1e-300, 0.25, 0.25, 0.5]}) + "\n")
    region_map.write_text("region,cluster\nR,0\n")
    registry.write_text("R\n")
    if split:  # R-1's four entries fill the first slice
        monkeypatch.setattr(fbatch, "CHUNK_ENTRIES", 1)
    out = tmp_path / "reweighted.ndjson"
    assert main(["reweight", "--predictions", str(preds), "--priors", str(priors), "--region-clusters",
                 str(region_map), "--registry", str(registry), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"floratile: error: {message}\n"
    assert not out.exists()


# --- flag and file errors of the stage commands --------------------------------

@pytest.fixture(scope="module")
def projection_file(fixture_dir, tmp_path_factory):
    proj = tmp_path_factory.mktemp("proj") / "proj.csv"
    assert main(["project", "--embeddings", str(fixture_dir / "embeddings.ndjson"),
                 "--out", str(proj)]) == 0
    return proj


def test_plot_by_registry_colors_each_point_by_its_region(fixture_dir, projection_file, tmp_path):
    svg_path = tmp_path / "plot.svg"
    assert main(["plot", "--projection", str(projection_file), "--registry", str(fixture_dir / "regions.txt"),
                 "--out", str(svg_path)]) == 0
    svg = svg_path.read_text()
    assert svg.count("<circle") == 16
    assert svg.count("<rect") == 3  # the background and one legend swatch per region
    assert ">SYN-AA</text>" in svg and ">SYN-BB</text>" in svg


def _flag_error_cases(fixture_dir, projection, tmp_path):
    """(argv, message, outputs that must not appear) per stage-command flag or file error."""
    out = tmp_path / "out"
    *ids, missing_image = [line.split(",")[0] for line in projection.read_text().splitlines()[1:]]
    assign = tmp_path / "assign.csv"
    assign.write_text("image_id,cluster\n" + "".join(f"{i},0\n" for i in ids))
    array_config = tmp_path / "array.json"
    array_config.write_text("[1, 2]")
    missing_config = tmp_path / "missing.json"
    repeated_registry = tmp_path / "repeated.txt"
    repeated_registry.write_text("A\nB\nA\n")
    broken_predictions = tmp_path / "broken.ndjson"
    broken_predictions.write_text("{broken\n")
    fractional_index = tmp_path / "fractional.ndjson"
    fractional_index.write_text('{"image_id": "a", "row": 0, "col": 0, "probs": [[48.5, 0.5]]}\n')
    unknown_species = tmp_path / "tc.csv"
    header, *counts = (fixture_dir / "training_counts.csv").read_text().splitlines()
    unknown_species.write_text("\n".join([header, "999999,5000", *counts]) + "\n")  # a species past the catalog on top
    empty_grid_config = tmp_path / "empty_grid.json"
    empty_grid_config.write_text('{"grid": ""}')
    split = {}  # per prediction file, a copy whose first image reappears on its last line, and its error
    for name, moved in [("tile_predictions.ndjson", list.pop), ("image_predictions.ndjson", list.__getitem__)]:
        lines = (fixture_dir / name).read_text().splitlines()
        lines.append(moved(lines, 0))
        path = tmp_path / f"split_{name}"
        path.write_text("".join(line + "\n" for line in lines))
        image = json.loads(lines[-1])["image_id"]
        split[name] = path, f"{path}:{len(lines)}: image {image!r} reappears after other images' records"
    split_path, split_error = split["tile_predictions.ndjson"]
    split_images, split_images_error = split["image_predictions.ndjson"]
    priors, region_clusters = tmp_path / "priors.ndjson", tmp_path / "region_clusters.csv"
    write_priors(priors, ClusterPriors(np.full((2, 40), 1 / 40)))
    write_region_cluster_map(region_clusters, {"SYN-AA": 0, "SYN-BB": 1})
    submissions = {}
    for name, text in [("non-integer-id", "Q1;[1, x]\n"), ("empty-after-blank", "\nQ1;[]\n"), ("header-only", "")]:
        submissions[name] = tmp_path / f"{name}.csv"
        submissions[name].write_text("quadrat_id;species_ids\n" + text)
    evaluate = ["evaluate", "--truth", str(fixture_dir / "truth.csv"), "--out", str(out), "--submission"]
    run = ["run", "--catalog", str(fixture_dir / "catalog.csv"), "--out", str(out),
           "--predictions", str(fixture_dir / "tile_predictions.ndjson")]
    with_priors = ["--priors", "--registry", str(fixture_dir / "regions.txt"),
                   "--embeddings", str(fixture_dir / "embeddings.ndjson")]
    aggregate = ["aggregate", "--catalog", str(fixture_dir / "catalog.csv"), "--out", str(out), "--predictions"]
    split_run = [*run, "--keep-intermediates", "--predictions"]
    huge_epsilon = "priors epsilon 1e+307 is too large for 40 species: epsilon x 40 must stay below 8.988e+307"
    return {
        "plot-missing-assignment": (
            ["plot", "--projection", str(projection), "--assignments", str(assign), "--out", str(out)],
            f"no cluster assignment for image(s): {[missing_image]}", [out]),
        "plot-zero-width": (
            ["plot", "--projection", str(projection), "--width", "0", "--out", str(out)],
            "plot canvas must be at least 1x1 pixel, got 0x600", [out]),
        "plot-negative-height": (
            ["plot", "--projection", str(projection), "--height", "-5", "--out", str(out)],
            "plot canvas must be at least 1x1 pixel, got 800x-5", [out]),
        "geofilter-predictions-alone": (
            ["geofilter", "--observations", str(fixture_dir / "observations.csv"),
             "--regions", str(fixture_dir / "geo_regions.json"), "--catalog", str(fixture_dir / "catalog.csv"),
             "--out", str(out), "--predictions", str(fixture_dir / "tile_predictions.ndjson")],
            "--predictions needs --out-predictions", [out]),
        "geofilter-out-predictions-alone": (
            ["geofilter", "--observations", str(fixture_dir / "observations.csv"),
             "--regions", str(fixture_dir / "geo_regions.json"), "--catalog", str(fixture_dir / "catalog.csv"),
             "--out", str(out), "--out-predictions", str(out) + "2"],
            "--out-predictions needs --predictions", [out, Path(str(out) + "2")]),
        "cluster-registry-alone": (
            ["cluster", "--projection", str(projection), "--out", str(out),
             "--registry", str(fixture_dir / "regions.txt")],
            "--registry needs --region-map-out", [out]),
        "cluster-region-map-alone": (
            ["cluster", "--projection", str(projection), "--out", str(out), "--region-map-out", str(assign) + "2"],
            "--region-map-out needs --registry", [out, Path(str(assign) + "2")]),
        "geofilter-unreadable-predictions": (
            ["geofilter", "--observations", str(fixture_dir / "observations.csv"),
             "--regions", str(fixture_dir / "geo_regions.json"), "--catalog", str(fixture_dir / "catalog.csv"),
             "--out", str(out), "--predictions", str(broken_predictions), "--out-predictions", str(out) + "2"],
            f"{broken_predictions}:1: invalid JSON (Expecting property name enclosed in double quotes)",
            [out, Path(str(out) + "2")]),
        "cluster-repeated-registry-name": (
            ["cluster", "--projection", str(projection), "--out", str(out), "--registry", str(repeated_registry),
             "--region-map-out", str(out) + "2"],
            f"{repeated_registry}: duplicate region name 'A'", [out, Path(str(out) + "2")]),
        "aggregate-fractional-index": (
            ["aggregate", "--predictions", str(fractional_index), "--catalog", str(fixture_dir / "catalog.csv"),
             "--out", str(out), "--grid", "4x4"],
            f"{fractional_index}:1: bad tile prediction record "
            "(entry [48.5, 0.5] must hold an integer index and a number)",
            [out]),
        "evaluate-non-integer-id": (
            [*evaluate, str(submissions["non-integer-id"])],
            f"{submissions['non-integer-id']}:2: species ids must be integers", [out]),
        "evaluate-empty-after-blank": (
            [*evaluate, str(submissions["empty-after-blank"])],
            f"{submissions['empty-after-blank']}:3: submission for 'Q1' has no species", [out]),
        "evaluate-header-only": (
            [*evaluate, str(submissions["header-only"])], f"{submissions['header-only']}: no submission rows", [out]),
        "run-reference-triple": ([*run, "--reference", "1,2,3"], "reference must be 'lat,lon', got '1,2,3'", [out]),
        "run-missing-config": (
            [*run, "--config", str(missing_config)], f"{missing_config}: config file not found", [out]),
        "run-array-config": (
            [*run, "--config", str(array_config)], f"{array_config}: config must be a JSON object", [out]),
        "run-empty-grid": ([*run, "--grid", ""], "grid spec must look like 'RxC', got ''", [out]),
        "run-config-empty-grid": (
            [*run, "--config", str(empty_grid_config)], "grid spec must look like 'RxC', got ''", [out]),
        "aggregate-empty-grid": (
            [*aggregate, str(fixture_dir / "tile_predictions.ndjson"), "--grid", ""],
            "grid spec must look like 'RxC', got ''", [out]),
        "run-priors-k-past-images": (
            [*run, "--grid", "3x3", "--keep-intermediates", *with_priors, "--priors-k", "17"],
            "cannot form 17 clusters from 16 points", [out / "submission.csv"]),
        "cluster-k-past-points": (
            ["cluster", "--projection", str(projection), "--out", str(out), "--k", "17"],
            "cannot form 17 clusters from 16 points", [out]),
        "run-split-image": ([*split_run, str(split_path), "--geo",
                             "--observations", str(fixture_dir / "observations.csv"),
                             "--geo-regions", str(fixture_dir / "geo_regions.json")],
                            split_error, [out / "submission.csv"]),
        "run-split-image-priors": ([*split_run, str(split_path), *with_priors], split_error,
                                   [out / "submission.csv"]),
        "run-no-tiling-split-image": (
            [*split_run, str(split_images), "--mode", "no-tiling"], split_images_error, [out / "submission.csv"]),
        "run-no-tiling-split-image-priors": (
            [*split_run, str(split_images), "--mode", "no-tiling", *with_priors], split_images_error,
            [out / "submission.csv"]),
        "run-baseline-split-image": (
            [*split_run, str(split_path), "--mode", "baseline",
             "--training-counts", str(fixture_dir / "training_counts.csv")], split_error, [out / "submission.csv"]),
        # the training counts are checked against the catalog before --out is made and the tile file read
        "run-baseline-species-past-catalog": (
            ["run", "--catalog", str(fixture_dir / "catalog.csv"), "--out", str(out), "--predictions",
             str(broken_predictions), "--mode", "baseline", "--training-counts", str(unknown_species)],
            f"{unknown_species}: species_id 999999 not in catalog {fixture_dir / 'catalog.csv'}", [out]),
        "aggregate-split-image": ([*aggregate, str(split_path), "--grid", "3x3"], split_error, [out]),
        "geofilter-split-image": (
            ["geofilter", "--observations", str(fixture_dir / "observations.csv"),
             "--regions", str(fixture_dir / "geo_regions.json"), "--catalog", str(fixture_dir / "catalog.csv"),
             "--out", str(out), "--predictions", str(split_path), "--out-predictions", str(out) + "2"],
            split_error, [out, Path(str(out) + "2")]),
        "priors-split-image": (
            ["priors", "--predictions", str(split_path), "--assignments", str(fixture_dir / "labels.csv"),
             "--catalog", str(fixture_dir / "catalog.csv"), "--out", str(out)], split_error, [out]),
        "reweight-split-image": (
            ["reweight", "--predictions", str(split_path), "--priors", str(priors),
             "--region-clusters", str(region_clusters), "--registry", str(fixture_dir / "regions.txt"),
             "--out", str(out)], split_error, [out]),
        # a stage command checks its flags before it reads a file, as `run` does
        "aggregate-bad-grid-before-read": (
            [*aggregate, str(broken_predictions), "--grid", "3x"], "grid spec must use integers, got '3x'", [out]),
        "aggregate-zero-k-before-read": (
            [*aggregate, str(broken_predictions), "--k", "0"], "k must be >= 1, got 0", [out]),
        "priors-zero-k-before-read": (
            ["priors", "--predictions", str(broken_predictions), "--assignments", str(fixture_dir / "labels.csv"),
             "--catalog", str(fixture_dir / "catalog.csv"), "--out", str(out), "--k", "0"],
            "priors k must be >= 1", [out]),
        "priors-zero-epsilon-before-read": (  # a registry as assignments: a file with a bad header
            ["priors", "--predictions", str(fixture_dir / "tile_predictions.ndjson"), "--assignments",
             str(repeated_registry), "--catalog", str(fixture_dir / "catalog.csv"), "--out", str(out),
             "--epsilon", "0"],
            "priors epsilon must be positive and finite, got 0.0", [out]),
        # 40 species times 1e307 overflows the smoothed prior's row sum: caught before the tile file is read
        "run-priors-huge-epsilon-before-read": (
            ["run", "--catalog", str(fixture_dir / "catalog.csv"), "--out", str(out), "--predictions",
             str(broken_predictions), *with_priors, "--priors-epsilon", "1e307"], huge_epsilon, [out]),
        "priors-huge-epsilon-before-read": (
            ["priors", "--predictions", str(broken_predictions), "--assignments", str(fixture_dir / "labels.csv"),
             "--catalog", str(fixture_dir / "catalog.csv"), "--out", str(out), "--epsilon", "1e307"],
            huge_epsilon, [out]),
        "cluster-zero-k-before-read": (
            ["cluster", "--projection", str(broken_predictions), "--out", str(out), "--k", "0"], "k must be >= 1", [out]),
        "cluster-negative-seed-before-read": (
            ["cluster", "--projection", str(broken_predictions), "--out", str(out), "--seed", "-1"],
            "seed must be >= 0, got -1", [out]),
        "plot-zero-width-before-read": (
            ["plot", "--projection", str(broken_predictions), "--width", "0", "--out", str(out)],
            "plot canvas must be at least 1x1 pixel, got 0x600", [out]),
        "plot-zero-height-before-read": (
            ["plot", "--projection", str(broken_predictions), "--height", "0", "--out", str(out)],
            "plot canvas must be at least 1x1 pixel, got 800x0", [out]),
        "plot-assignments-and-registry-before-read": (
            ["plot", "--projection", str(broken_predictions), "--assignments", str(assign),
             "--registry", str(fixture_dir / "regions.txt"), "--out", str(out)],
            "--assignments and --registry are mutually exclusive", [out]),
        "geofilter-bad-reference-before-read": (  # the broken file as the catalog, the observations and the regions
            ["geofilter", "--observations", str(broken_predictions), "--regions", str(broken_predictions),
             "--catalog", str(broken_predictions), "--out", str(out), "--ref-lat", "91"],
            "reference (91.0, 4.0) outside lat [-90, 90], lon [-180, 180]", [out]),
    }


@pytest.mark.parametrize("case", ["plot-missing-assignment", "plot-zero-width", "plot-negative-height",
                                  "geofilter-predictions-alone", "geofilter-out-predictions-alone",
                                  "geofilter-unreadable-predictions", "cluster-region-map-alone",
                                  "cluster-registry-alone", "cluster-repeated-registry-name",
                                  "aggregate-fractional-index", "evaluate-non-integer-id",
                                  "evaluate-empty-after-blank", "evaluate-header-only", "run-reference-triple",
                                  "run-missing-config", "run-array-config", "run-empty-grid",
                                  "run-config-empty-grid", "aggregate-empty-grid", "run-priors-k-past-images",
                                  "cluster-k-past-points", "run-split-image", "run-split-image-priors",
                                  "run-no-tiling-split-image", "run-no-tiling-split-image-priors",
                                  "run-baseline-split-image", "run-baseline-species-past-catalog",
                                  "aggregate-split-image", "geofilter-split-image",
                                  "priors-split-image", "reweight-split-image", "aggregate-bad-grid-before-read",
                                  "aggregate-zero-k-before-read", "priors-zero-k-before-read",
                                  "priors-zero-epsilon-before-read", "run-priors-huge-epsilon-before-read",
                                  "priors-huge-epsilon-before-read", "cluster-zero-k-before-read",
                                  "cluster-negative-seed-before-read", "plot-zero-width-before-read",
                                  "plot-zero-height-before-read", "plot-assignments-and-registry-before-read",
                                  "geofilter-bad-reference-before-read"])
def test_flag_and_file_errors_exit_1_before_any_output(fixture_dir, projection_file, tmp_path, capsys, case):
    argv, message, outputs = _flag_error_cases(fixture_dir, projection_file, tmp_path)[case]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"floratile: error: {message}\n"
    assert captured.out == ""
    assert not any(path.exists() for path in outputs)
    out = tmp_path / "out"  # a run that made its --out directory left it empty: no partial file either
    assert not (out.is_dir() and any(out.iterdir()))


def test_project_lays_out_identical_embeddings_from_a_gaussian_start(tmp_path, capsys):
    embeddings, out = tmp_path / "same.ndjson", tmp_path / "projection.csv"
    embeddings.write_text("".join(json.dumps({"image_id": f"im{i}", "vector": [0.5, -1.0, 2.0]}) + "\n"
                                  for i in range(15)))
    assert main(["project", "--embeddings", str(embeddings), "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == [f"im{i}" for i in range(15)]
    assert np.all(np.isfinite(np.array([row[1:] for row in rows], dtype=float)))


# --- integer flags past 64 bits -------------------------------------------------

def test_aggregate_k_past_64_bits_votes_every_entry(fixture_dir, tmp_path, capsys):
    preds = tmp_path / "three.ndjson"  # three entries per tile
    preds.write_text("".join(
        json.dumps({"image_id": f"img{i}", "row": 0, "col": c, "probs": [[5 + c, 0.5], [7, 0.3], [9 + i, 0.2]]}) + "\n"
        for i in range(2) for c in range(2)
    ))
    written = []
    for k in [9, 2**63, 2**70]:
        out = tmp_path / f"sub_{k}.csv"
        assert main(["aggregate", "--predictions", str(preds), "--catalog", str(fixture_dir / "catalog.csv"),
                     "--out", str(out), "--k", str(k)]) == 0
        written.append(out.read_bytes())
    assert capsys.readouterr().err == ""
    assert written[1] == written[0] and written[2] == written[0]


def test_run_k_per_tile_past_64_bits_exits_0_as_flag_and_config_key(fixture_dir, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k_per_tile": 2**70}))
    run = ["run", "--grid", "3x3", "--catalog", str(fixture_dir / "catalog.csv"),
           "--predictions", str(fixture_dir / "tile_predictions.ndjson")]
    assert main([*run, "--out", str(tmp_path / "flag"), "--k-per-tile", str(2**70)]) == 0
    assert main([*run, "--out", str(tmp_path / "config"), "--config", str(config)]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "flag" / "submission.csv").read_bytes() == (tmp_path / "config" / "submission.csv").read_bytes()


_WIDE_INT_FLAGS = [
    ("run", "--k-per-tile"), ("run", "--min-votes"), ("run", "--max-labels"), ("run-baseline", "--baseline-k"),
    ("run-priors", "--seed"), ("run-priors", "--priors-k"), ("aggregate", "--k"), ("aggregate", "--min-votes"),
    ("aggregate", "--max-labels"), ("cluster", "--k"), ("cluster", "--seed"), ("priors", "--k"),
    ("project", "--seed"), ("tile-plan", "--width"), ("tile-plan", "--height"), ("plot", "--width"),
    ("plot", "--height"),
]


@pytest.mark.parametrize("value", [2**63, 2**70], ids=["2**63", "2**70"])
@pytest.mark.parametrize("command,flag", _WIDE_INT_FLAGS, ids=[" ".join(case) for case in _WIDE_INT_FLAGS])
def test_an_integer_flag_past_64_bits_is_a_setting_or_one_error_line(fixture_dir, projection_file, tmp_path,
                                                                     capsys, command, flag, value):
    catalog, preds = str(fixture_dir / "catalog.csv"), str(fixture_dir / "tile_predictions.ndjson")
    out, assign = str(tmp_path / "out"), tmp_path / "assign.csv"
    assign.write_text("image_id,cluster\n" + "".join(
        f"{line.split(',')[0]},0\n" for line in projection_file.read_text().splitlines()[1:]))
    run = ["run", "--grid", "3x3", "--catalog", catalog, "--predictions", preds, "--out", out]
    argv = {
        "run": run,
        "run-baseline": [*run, "--mode", "baseline", "--training-counts", str(fixture_dir / "training_counts.csv")],
        "run-priors": [*run, "--priors", "--registry", str(fixture_dir / "regions.txt"),
                       "--embeddings", str(fixture_dir / "embeddings.ndjson")],
        "aggregate": ["aggregate", "--catalog", catalog, "--predictions", preds, "--out", out],
        "cluster": ["cluster", "--projection", str(projection_file), "--out", out],
        "priors": ["priors", "--predictions", preds, "--assignments", str(assign), "--catalog", catalog, "--out", out],
        "project": ["project", "--embeddings", str(fixture_dir / "embeddings.ndjson"), "--out", out],
        "tile-plan": ["tile-plan", "--width", "100", "--height", "100", "--out", out],
        "plot": ["plot", "--projection", str(projection_file), "--out", out],
    }[command]
    rc = main([*argv, flag, str(value)])
    err = capsys.readouterr().err
    assert (rc, err) == (0, "") or (rc == 1 and re.fullmatch(r"floratile: error: [^\n]*\n", err)), (rc, err)


@pytest.mark.parametrize("mode,predictions", [("tiling", "tile_predictions.ndjson"),
                                              ("no-tiling", "image_predictions.ndjson")], ids=["tiling", "no-tiling"])
def test_a_geo_run_without_priors_leaves_numpy_random_unloaded(fixture_dir, tmp_path, mode, predictions):
    """numpy loads ``numpy.random`` lazily, at the first generator: several MB
    of peak memory that only the projector and k-means need."""
    code = (
        "import sys, numpy\n"
        "before = {m for m in sys.modules if m.startswith('numpy.random')}\n"
        "from floratile.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(sorted({m for m in sys.modules if m.startswith('numpy.random')} - before))\n"
    )
    argv = ["run", "--mode", mode, "--geo", "--keep-intermediates", "--catalog", str(fixture_dir / "catalog.csv"),
            "--predictions", str(fixture_dir / predictions), "--observations", str(fixture_dir / "observations.csv"),
            "--geo-regions", str(fixture_dir / "geo_regions.json"), "--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=CHILD_ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
