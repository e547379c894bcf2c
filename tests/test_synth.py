"""Synthetic fixture generator."""

import hashlib
import json

import numpy as np
import pytest

from floratile import synth
from floratile.batch import TilePrediction
from floratile.errors import InputError, InvariantViolation
from floratile.io import (
    ground_truth_rows,
    read_embeddings,
    read_observations,
    read_tile_predictions,
)
from floratile.synth import SynthSpec, generate, write_bundle


SMALL = SynthSpec(n_images=12, grid_rows=3, grid_cols=3, n_species=40, n_clusters=2, noise=0.5)


def _all_tiles(batch):
    """Every tile of ``batch``, in batch order."""
    return batch.tiles(0, len(batch))


def test_generate_is_deterministic():
    a = generate(SMALL, seed=7)
    b = generate(SMALL, seed=7)
    assert a.quadrat_ids == b.quadrat_ids
    assert a.cluster_labels == b.cluster_labels
    assert np.array_equal(a.embeddings.data, b.embeddings.data)
    assert len(a.tile_predictions) == len(b.tile_predictions)
    for x, y in zip(_all_tiles(a.tile_predictions), _all_tiles(b.tile_predictions)):
        assert (x.image_id, x.row, x.col, x.probs) == (y.image_id, y.row, y.col, y.probs)
    assert a.truth.truth == b.truth.truth


def test_generate_seed_changes_output():
    a = generate(SMALL, seed=7)
    b = generate(SMALL, seed=8)
    assert a.truth.truth != b.truth.truth or not np.array_equal(
        a.embeddings.data, b.embeddings.data
    )


def test_generate_structure_invariants():
    spec = SynthSpec(n_images=20, grid_rows=4, grid_cols=4, n_species=50, n_clusters=3, noise=0.7)
    bundle = generate(spec, seed=42)

    assert len(bundle.catalog) == spec.n_species
    assert len(bundle.quadrat_ids) == spec.n_images
    assert len(set(bundle.quadrat_ids)) == spec.n_images
    assert len(bundle.cluster_labels) == spec.n_images
    assert set(bundle.cluster_labels) <= set(range(spec.n_clusters))
    assert bundle.embeddings.data.shape == (spec.n_images, spec.embed_dim)

    per_image = {}
    for t in _all_tiles(bundle.tile_predictions):
        per_image.setdefault(t.image_id, []).append(t)
    assert set(per_image) == set(bundle.quadrat_ids)
    for qid, tiles in per_image.items():
        assert len(tiles) == spec.n_tiles
        cells = {(t.row, t.col) for t in tiles}
        assert len(cells) == spec.n_tiles
        for t in tiles:
            assert t.complete
            assert abs(sum(p for _, p in t.probs) - 1.0) <= 1e-9

    for qid, species in bundle.truth.truth.items():
        assert spec.min_truth_species <= len(species) <= spec.max_truth_species
        assert all(s in bundle.catalog for s in species)

    # one-tile image records exist for every image and are incomplete top-20
    img_ids = {t.image_id for t in _all_tiles(bundle.image_predictions)}
    assert img_ids == set(bundle.quadrat_ids)
    for t in _all_tiles(bundle.image_predictions):
        assert (t.row, t.col) == (0, 0)
        assert not t.complete
        assert len(t.probs) <= 20


def test_generate_zero_noise_is_pure():
    spec = SynthSpec(n_images=8, grid_rows=3, grid_cols=3, n_species=40, n_clusters=2, noise=0.0)
    bundle = generate(spec, seed=5)
    for t in _all_tiles(bundle.tile_predictions):
        assert len(t.probs) == 1
        assert t.probs[0][1] == 1.0
        # the only entry is always a truth species of its image
        assert bundle.catalog.species_ids[t.probs[0][0]] in bundle.truth.truth[t.image_id]


def test_generate_transect_grouping():
    spec = SynthSpec(n_images=20, grid_rows=3, grid_cols=3, n_species=40, n_clusters=2, transect_size=4)
    bundle = generate(spec, seed=3)
    sizes = {}
    for qid in bundle.quadrat_ids:
        sizes[bundle.truth.transects[qid]] = sizes.get(bundle.truth.transects[qid], 0) + 1
    assert all(1 <= s <= 4 for s in sizes.values())
    # ids embed their transect: dropping the trailing token recovers it
    for qid in bundle.quadrat_ids:
        assert qid.rsplit("-", 1)[0] == bundle.truth.transects[qid]


def test_generate_embeddings_cluster_blobs():
    spec = SynthSpec(n_images=30, grid_rows=3, grid_cols=3, n_species=40, n_clusters=3, separation=12.0)
    bundle = generate(spec, seed=11)
    data = bundle.embeddings.data
    labels = np.asarray(bundle.cluster_labels)
    centers = np.stack([data[labels == c].mean(axis=0) for c in range(3)])
    for i in range(30):
        d = ((centers - data[i]) ** 2).sum(axis=1)
        assert int(d.argmin()) == labels[i]


def test_spec_validation():
    with pytest.raises(InputError):
        SynthSpec(n_images=0)
    with pytest.raises(InputError, match="n_images"):
        SynthSpec(n_images=1)  # the projection needs two embeddings
    with pytest.raises(InputError):
        SynthSpec(noise=1.5)
    with pytest.raises(InputError):
        SynthSpec(grid_rows=1, grid_cols=2)  # fewer than 6 tiles
    with pytest.raises(InputError):
        SynthSpec(n_species=10)  # too few for unique junk species
    with pytest.raises(InputError):
        SynthSpec(n_clusters=0)
    with pytest.raises(InputError):
        SynthSpec(transect_size=0)
    with pytest.raises(InputError, match=r"^grid must be at least 1x1$"):
        SynthSpec(grid_rows=0)
    with pytest.raises(InputError, match=r"^need embed_dim >= n_clusters for blob placement$"):
        SynthSpec(embed_dim=2)
    with pytest.raises(InputError, match=r"^species pools too small for the truth-set size range$"):
        SynthSpec(n_species=40, n_clusters=26)  # enough junk species, but pools of one


def test_write_bundle_round_trips_through_readers(tmp_path):
    bundle = generate(SMALL, seed=9)
    out = write_bundle(bundle, tmp_path / "fixture")

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 9
    assert manifest["parameters"]["n_images"] == SMALL.n_images

    tiles = read_tile_predictions(out / "tile_predictions.ndjson")
    assert len(tiles) == len(bundle.tile_predictions)
    for a, b in zip(_all_tiles(tiles), _all_tiles(bundle.tile_predictions)):
        assert a.probs == b.probs

    emb = read_embeddings(out / "embeddings.ndjson")
    assert np.array_equal(emb.data, bundle.embeddings.data)

    assert {q: species for q, _, species in ground_truth_rows(out / "truth.csv")} == bundle.truth.truth

    obs = read_observations(out / "observations.csv")
    assert obs == bundle.observations


# sha256 over (file name, bytes) of every file ``write_bundle`` writes, in name order.
GOLDEN_BUNDLES = [
    (SynthSpec(n_images=30, noise=0.0), "c7cd622708902f2e894742670c440a06d5ba8fe01e50d3411bee6ae00ac5d3e7"),
    (SynthSpec(n_images=30, noise=0.5), "fbdeb4d9f5ff3dd9d2e5239924d783aa302620f35ad78a198471fae8472ff7ca"),
    (SynthSpec(n_images=30, noise=1.0), "bd192fe5b36b1a1841c63c69042380f8916ac73d6a4ca606c043f06c8aa84dd7"),
    (SynthSpec(n_images=30, grid_rows=2, grid_cols=3, noise=0.5),
     "edd8f7a942f2109ca1d1dec003fdc13485c3a3db30b99837877eb166a3860a43"),
    # 15 transects of two images each, so transect ids and cluster labels differ from the 3-cluster specs
    (SynthSpec(n_images=30, n_clusters=5, transect_size=2, embed_dim=8),
     "e6c6da1cc6a3c8fc4f1be0c6a01c388d490f10c672d9395d8486ce1ea3a1ffd1"),
]


@pytest.mark.parametrize("spec,digest", GOLDEN_BUNDLES, ids=["noise0", "noise0.5", "noise1", "grid2x3", "five_clusters"])
def test_write_bundle_bytes_are_pinned(tmp_path, spec, digest):
    out = write_bundle(generate(spec, seed=3), tmp_path / "bundle")
    h = hashlib.sha256()
    for f in sorted(out.iterdir()):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    assert h.hexdigest() == digest


def test_generate_builds_no_checked_tile(monkeypatch):
    calls = []
    check = TilePrediction.__post_init__
    monkeypatch.setattr(TilePrediction, "__post_init__", lambda self: calls.append(1) or check(self))
    bundle = generate(SMALL, seed=7)
    assert len(bundle.tile_predictions) == SMALL.n_images * SMALL.n_tiles
    assert calls == []


def test_generate_rejects_an_invalid_tile(monkeypatch):
    monkeypatch.setattr(synth, "SMEAR_SCALE", -0.5)  # pushes the dominant mass past 1
    with pytest.raises(InvariantViolation, match=r"synth built an invalid tile: .*outside \(0, 1\]"):
        generate(SMALL, seed=7)


def test_bench_synth_generate(benchmark):
    spec = SynthSpec(n_images=200, n_species=200, noise=0.5)
    bundle = benchmark.pedantic(generate, args=(spec, 5), rounds=5)
    assert len(bundle.tile_predictions) == 200 * 16
