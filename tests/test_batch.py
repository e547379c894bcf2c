"""TileBatch against the per-tile list code it replaced.

The ``_ref_*`` functions are the list-based reader, geolocation mask, prior
reweighting, image vectors and vote aggregation as they stood before the
batch, and the ``json.dumps`` tile writer and three-set image F1 as they
stood before the column writer, kept verbatim except where a comment says
otherwise. The batch stages must match them exactly: float ``==``, row
``==``, written bytes ``==``, and on bad input the same exception type and
message.
"""

import dataclasses
import json
import tempfile
import tracemalloc
from pathlib import Path
from typing import Dict, List, Mapping, Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from floratile import batch as fbatch
from floratile import io as fio
from floratile import pipeline as fpipeline
from floratile.batch import TileBatch, TilePrediction
from floratile.catalog import RegionRegistry, SpeciesCatalog, parse_region
from floratile.clustering import ClusterPriors, reweight
from floratile.errors import InputError, InvariantViolation
from floratile.geo import DEFAULT_REFERENCE_POINT, SpeciesMask, build_mask, nearest_per_species
from floratile.io import SubmissionRow, group_by_image, read_tile_predictions, tile_slices, write_tile_predictions
from floratile.metrics import image_f1
from floratile.pipeline import (
    Vote,
    aggregate_predictions,
    apply_geo_mask,
    apply_priors,
    image_probability_vectors,
    validate_grid,
)
from floratile.synth import SynthSpec, generate, write_bundle
from floratile.tiling import GridSpec
from floratile.voting import VoteTally, check_vote_settings, rank_labels, select_labels, tally_batch, tally_votes


# --- reference implementations (list-based) -------------------------------

def _ref_ndjson_records(path):
    with fio._open_read(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
            yield lineno, record


def _ref_read_tile_predictions(path) -> List[TilePrediction]:
    preds: List[TilePrediction] = []
    for lineno, rec in _ref_ndjson_records(path):
        try:
            preds.append(
                TilePrediction(
                    image_id=rec["image_id"],
                    row=int(rec["row"]),
                    col=int(rec["col"]),
                    probs=[(int(i), float(p)) for i, p in rec["probs"]],
                    complete=bool(rec.get("complete", False)),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{path}:{lineno}: bad tile prediction record ({exc})") from None
        except InputError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
    if not preds:
        raise InputError(f"{path}: no tile prediction records")
    return preds


def _ref_group_by_image(preds: Sequence[TilePrediction]) -> Dict[str, List[TilePrediction]]:
    grouped: Dict[str, List[TilePrediction]] = {}
    for p in preds:
        grouped.setdefault(p.image_id, []).append(p)
    return grouped


def _ref_flatten(grouped):
    return [t for tiles in grouped.values() for t in tiles]


def _ref_validate_grid(grouped: Mapping[str, Sequence[TilePrediction]], grid: GridSpec):
    for image_id, tiles in grouped.items():
        seen = set()
        for t in tiles:
            if t.row >= grid.rows or t.col >= grid.cols:
                raise InputError(
                    f"tile ({t.row},{t.col}) of {image_id!r} outside {grid.rows}x{grid.cols} grid"
                )
            if (t.row, t.col) in seen:
                raise InputError(f"duplicate tile ({t.row},{t.col}) for {image_id!r}")
            seen.add((t.row, t.col))


def _ref_check_species_indices(grouped, n_species):
    # added: the species-index stage, which every stage that looks an index
    # up now runs over its whole input first, in place of its own range check
    for image_id, tiles in grouped.items():
        for t in tiles:
            for idx, _ in t.probs:
                if not 0 <= idx < n_species:
                    raise InputError(f"species index {idx} in {image_id!r} exceeds catalog size {n_species}")


def _ref_apply_mask(probs, mask: SpeciesMask):
    # one tile's kept entries, renormalized; its indices passed the species-index check
    kept = [(int(idx), float(prob)) for idx, prob in probs if mask.allowed[idx]]
    total = sum(p for _, p in kept)
    if total > 0.0:
        kept = [(idx, p / total) for idx, p in kept]
    return kept


def _ref_apply_geo_mask(grouped, mask):
    _ref_check_species_indices(grouped, mask.allowed.shape[0])  # added: the index check runs first
    out: Dict[str, List[TilePrediction]] = {}
    for image_id, tiles in grouped.items():
        kept: List[TilePrediction] = []
        for t in tiles:
            filtered = _ref_apply_mask(t.probs, mask)
            if filtered:
                kept.append(TilePrediction(t.image_id, t.row, t.col, filtered, complete=False))
        if not kept:
            # InvariantViolation before an all-masked image became an input error
            raise InputError(
                f"geolocation mask removed every species of every tile of {image_id!r}"
            )
        out[image_id] = kept
    return out


def _ref_reweight(tile_probs, prior: np.ndarray):
    prior = np.asarray(prior, dtype=np.float64)
    if abs(float(prior.sum()) - 1.0) > 1e-9:
        raise InvariantViolation(f"prior sums to {float(prior.sum())!r}; expected 1 +/- {1e-9}")
    if not tile_probs:
        return []
    weighted = []
    for idx, prob in tile_probs:
        if not 0 <= idx < prior.shape[0]:
            raise InputError(f"dense index {idx} outside prior of size {prior.shape[0]}")
        weighted.append((int(idx), float(prob) * float(prior[idx])))
    total = sum(wp for _, wp in weighted)
    if total <= 0.0:
        raise InvariantViolation("reweighted mass is zero; prior must be epsilon-smoothed")
    return [(idx, wp / total) for idx, wp in weighted]


def _ref_apply_priors(grouped, priors, region_map, registry):
    _ref_check_species_indices(grouped, priors.n_species)  # added: the index check runs first
    # added: the checks run in turn: every image's region, then every tile's
    # reweight, then every reweighted tile
    clusters: Dict[str, int] = {}
    for image_id in grouped:
        region = parse_region(image_id, registry)
        if region not in region_map:
            raise InputError(f"region {region!r} has no dominant cluster in the map")
        clusters[image_id] = region_map[region]
    weighted = {image_id: [_ref_reweight(t.probs, priors.priors[clusters[image_id]]) for t in tiles]
                for image_id, tiles in grouped.items()}
    out: Dict[str, List[TilePrediction]] = {}
    for image_id, tiles in grouped.items():
        out[image_id] = [
            TilePrediction(t.image_id, t.row, t.col, probs, complete=False)
            for t, probs in zip(tiles, weighted[image_id])
        ]
    return out


def _ref_image_probability_vectors(grouped, n_species):
    ids = list(grouped)
    vectors = np.zeros((len(ids), n_species))
    for r, image_id in enumerate(ids):
        tiles = grouped[image_id]
        for t in tiles:
            total = sum(p for _, p in t.probs)
            for idx, p in t.probs:
                if idx >= n_species:
                    raise InputError(
                        f"species index {idx} in {image_id!r} exceeds catalog size {n_species}"
                    )
                vectors[r, idx] += p / total
        vectors[r] /= len(tiles)
    return ids, vectors


def _ref_top_k_of_tile(pred, k):
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    ordered = sorted(pred.probs, key=lambda e: (-e[1], e[0]))
    return ordered[:k]


def _ref_tally_votes(preds, k):
    if not preds:
        raise InvariantViolation("tally_votes needs at least one tile")
    image_ids = {p.image_id for p in preds}
    if len(image_ids) != 1:
        raise InvariantViolation(f"tally_votes got tiles from multiple images: {sorted(image_ids)}")
    tally = VoteTally()
    for pred in preds:
        for idx, prob in _ref_top_k_of_tile(pred, k):
            tally.votes[idx] = tally.votes.get(idx, 0) + 1
            tally.mass[idx] = tally.mass.get(idx, 0.0) + prob
    return tally


def _ref_select_labels(tally, min_votes=2, max_labels=10):
    if min_votes < 1 or max_labels < 1:
        raise InputError("min_votes and max_labels must be >= 1")
    if not tally.votes:
        raise InvariantViolation("select_labels needs a non-empty tally")
    ranked = sorted(tally.votes, key=lambda idx: (-tally.votes[idx], -tally.mass[idx], idx))
    kept = [idx for idx in ranked if tally.votes[idx] >= min_votes]
    if not kept:
        return [ranked[0]]
    return kept[:max_labels]


def _ref_aggregate_predictions(grouped, catalog, k, min_votes, max_labels):
    # the thread-pool branch is left out: results never depended on it; the
    # vote settings, then every index, tallied or not, are checked first, and
    # labels are looked up in ``species_ids`` (added)
    check_vote_settings(k, min_votes, max_labels)
    _ref_check_species_indices(grouped, len(catalog))
    species_ids = catalog.species_ids
    rows = []
    for image_id in sorted(grouped):
        tally = _ref_tally_votes(grouped[image_id], k)
        labels = _ref_select_labels(tally, min_votes=min_votes, max_labels=max_labels)
        rows.append(
            SubmissionRow(quadrat_id=image_id, species_ids=tuple(species_ids[i] for i in labels))
        )
    return rows


def _ref_write_tile_predictions(path, preds):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for p in preds:
            rec = {
                "image_id": p.image_id,
                "row": p.row,
                "col": p.col,
                "probs": [[idx, prob] for idx, prob in p.probs],
            }
            if p.complete:
                rec["complete"] = True
            fh.write(json.dumps(rec) + "\n")


def _ref_image_f1(pred, truth, both_empty_value=1.0):
    pred = set(pred)
    truth = set(truth)
    if not pred and not truth:
        return both_empty_value
    tp = len(pred & truth)
    fp = len(pred - truth)
    fn = len(truth - pred)
    denom = 2 * tp + fp + fn
    return 2.0 * tp / denom if denom else 0.0


# --- comparison helpers ------------------------------------------------------

def _outcome(fn, *args, **kwargs):
    """``("ok", value)`` or ``("error", type name, message)``."""
    try:
        return ("ok", fn(*args, **kwargs))
    except (InputError, InvariantViolation) as exc:
        return ("error", type(exc).__name__, str(exc))


def _tiles(grouped):
    return [(key, t.image_id, t.row, t.col, t.probs, t.complete)
            for key, tiles in grouped.items() for t in tiles]


def _assert_same_tiles(new, ref):
    assert new[0] == ref[0], (new, ref)
    if new[0] == "ok":
        assert list(new[1]) == list(ref[1])
        assert _tiles(new[1]) == _tiles(ref[1])
    else:
        assert new == ref


def _all_tiles(batch) -> List[TilePrediction]:
    """Every tile of ``batch``, in batch order."""
    return list(batch.tiles(0, len(batch)))


def _bytes(tmp_path, name, tiles):
    path = tmp_path / name
    write_tile_predictions(path, tiles)
    return path.read_bytes()


def _catalog(n):
    return SpeciesCatalog([100 + 3 * i for i in range(n)])


# --- differential tests on synthetic bundles ----------------------------------

SPECS = {noise: SynthSpec(n_images=30, grid_rows=3, grid_cols=3, n_species=40, n_clusters=2, noise=noise)
         for noise in (0.0, 0.5, 1.0)}


@pytest.fixture(scope="module", params=sorted(SPECS), ids=lambda noise: f"noise{noise}")
def synth_bundle(request, tmp_path_factory):
    bundle = generate(SPECS[request.param], seed=int(request.param * 10) + 3)
    return bundle, write_bundle(bundle, tmp_path_factory.mktemp("batch"))


def _priors_for(bundle, seed):
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.full(len(bundle.catalog), 0.3), size=2) + 1e-6
    priors = ClusterPriors(rows / rows.sum(axis=1, keepdims=True))
    return priors, {region: i % 2 for i, region in enumerate(bundle.registry)}


@pytest.mark.parametrize("predictions,grid,k,min_votes,max_labels", [
    ("tile_predictions.ndjson", GridSpec(3, 3), 9, 2, 10),
    ("image_predictions.ndjson", GridSpec(1, 1), 20, 1, 20),
])
def test_stage_chain_matches_list_reference(
    synth_bundle, tmp_path, predictions, grid, k, min_votes, max_labels
):
    bundle, directory = synth_bundle
    path = directory / predictions
    batch = read_tile_predictions(path)
    ref_preds = _ref_read_tile_predictions(path)
    assert len(batch) == len(ref_preds)
    ref = _ref_group_by_image(ref_preds)
    grouped = group_by_image(batch)
    assert _tiles(grouped) == _tiles(ref)
    validate_grid(grouped, grid)
    _ref_validate_grid(ref, grid)

    geo_mask = build_mask(
        nearest_per_species(bundle.observations, DEFAULT_REFERENCE_POINT), bundle.geo_regions, bundle.catalog
    )
    masked, ref_masked = apply_geo_mask(grouped, geo_mask), _ref_apply_geo_mask(ref, geo_mask)
    assert _tiles(masked) == _tiles(ref_masked)
    assert _bytes(tmp_path, "a", masked.batch) == _bytes(tmp_path, "b", _ref_flatten(ref_masked))

    priors, region_map = _priors_for(bundle, seed=len(batch))
    weighted = apply_priors(masked, priors, region_map, bundle.registry)
    ref_weighted = _ref_apply_priors(ref_masked, priors, region_map, bundle.registry)
    assert _tiles(weighted) == _tiles(ref_weighted)
    assert _bytes(tmp_path, "c", weighted.batch) == _bytes(tmp_path, "d", _ref_flatten(ref_weighted))

    for stage, ref_stage in ((grouped, ref), (masked, ref_masked), (weighted, ref_weighted)):
        ids, vectors = image_probability_vectors(stage, len(bundle.catalog))
        ref_ids, ref_vectors = _ref_image_probability_vectors(ref_stage, len(bundle.catalog))
        assert ids == ref_ids
        assert np.array_equal(vectors, ref_vectors)
        rows = aggregate_predictions(stage, bundle.catalog, k, min_votes, max_labels)
        assert rows == _ref_aggregate_predictions(ref_stage, bundle.catalog, k, min_votes, max_labels)
        for image_id in list(ref_stage)[:5]:
            tally, ref_tally = tally_votes(stage[image_id], k), _ref_tally_votes(ref_stage[image_id], k)
            assert list(tally.votes.items()) == list(ref_tally.votes.items())
            assert list(tally.mass.items()) == list(ref_tally.mass.items())


def _tp(image_id, col, probs, row=0):
    return TilePrediction(image_id=image_id, row=row, col=col, probs=probs)


def test_equal_probabilities_within_a_tile():
    grouped = group_by_image([_tp("a", 0, [(4, 0.25), (1, 0.25), (7, 0.25), (2, 0.25)]),
                              _tp("a", 1, [(7, 0.25), (4, 0.25), (2, 0.25), (1, 0.25)])])
    catalog = _catalog(8)
    for k in (1, 2, 3):
        got = aggregate_predictions(grouped, catalog, k, 1, 3)
        assert got == _ref_aggregate_predictions(grouped, catalog, k, 1, 3)
    assert aggregate_predictions(grouped, catalog, 1, 1, 3)[0].species_ids == (103,)


def test_equal_votes_and_mass_across_species():
    grouped = group_by_image([_tp("b", c, [(6, 0.4), (3, 0.4), (5, 0.2)]) for c in range(3)])
    catalog = _catalog(8)
    for min_votes, max_labels in ((1, 1), (1, 3), (4, 2)):
        got = aggregate_predictions(grouped, catalog, 2, min_votes, max_labels)
        assert got == _ref_aggregate_predictions(grouped, catalog, 2, min_votes, max_labels)
    assert aggregate_predictions(grouped, catalog, 2, 1, 3)[0].species_ids == (109, 118)


def test_probabilities_that_tie_only_after_renormalisation(tmp_path):
    p1, p2, q = 0.2381040339713582, 0.23810403397135818, 0.040832664363250094
    total = p1 + p2 + q
    assert p1 > p2 and p1 / total == p2 / total  # distinct before, equal after dividing
    grouped = group_by_image([_tp("c", 0, [(5, p1), (2, p2), (8, q), (9, 0.1)]),
                              _tp("c", 1, [(5, 0.6), (2, 0.3)])])
    mask = SpeciesMask(allowed=np.arange(10) != 9)
    masked, ref_masked = apply_geo_mask(grouped, mask), _ref_apply_geo_mask(grouped, mask)
    assert [i for i, _ in masked["c"][0].probs] == [2, 5, 8]  # the tie re-sorts by index
    assert _tiles(masked) == _tiles(ref_masked)
    assert _bytes(tmp_path, "a", masked.batch) == _bytes(tmp_path, "b", _ref_flatten(ref_masked))
    catalog = _catalog(10)
    got = aggregate_predictions(masked, catalog, 1, 1, 3)
    assert got == _ref_aggregate_predictions(ref_masked, catalog, 1, 1, 3)

    # reweighting can tie entries too: 0.5 * 0.25 == 0.25 * 0.5
    prior = np.full(10, 0.25 / 8)
    prior[[3, 4]] = 0.25, 0.5
    priors = ClusterPriors(prior[None, :] / prior.sum())
    registry = RegionRegistry(regions=("c",))
    tied = group_by_image([_tp("c", 0, [(3, 0.5), (4, 0.25), (1, 0.25)])])
    weighted = apply_priors(tied, priors, {"c": 0}, registry)
    assert _tiles(weighted) == _tiles(_ref_apply_priors(tied, priors, {"c": 0}, registry))
    assert [i for i, _ in weighted["c"][0].probs] == [3, 4, 1]


def test_wrappers_match_reference_on_one_tile():
    probs = [(3, 0.5), (1, 0.3), (2, 0.2)]
    prior = np.array([0.1, 0.2, 0.3, 0.4])
    assert reweight(probs, prior) == _ref_reweight(probs, prior)
    tiles = [_tp("d", c, probs) for c in range(3)]
    tally = tally_votes(tiles, 2)
    ref_tally = _ref_tally_votes(tiles, 2)
    assert (tally.votes, tally.mass) == (ref_tally.votes, ref_tally.mass)
    assert select_labels(tally, 2, 1) == _ref_select_labels(ref_tally, 2, 1)


def test_stage_errors_follow_the_check_order():
    priors = ClusterPriors(np.array([[0.0, 0.5, 0.5]]))
    registry = RegionRegistry(regions=("img",))
    cases = [
        # an index outside the prior and a zero mass in one tile: the index check runs first
        group_by_image([_tp("img0", 0, [(0, 0.5), (5, 0.5)])]),
        # a zero-mass tile ahead of an image with no region: the region check runs first
        group_by_image([_tp("img0", 0, [(0, 0.5)]), _tp("zz1", 0, [(1, 0.5)])]),
        # an image with no region ahead of a zero-mass tile
        group_by_image([_tp("zz1", 0, [(1, 0.5)]), _tp("img0", 0, [(0, 0.5)])]),
    ]
    messages = ["species index 5 in 'img0' exceeds catalog size 3",
                "no registered region is a prefix of quadrat id 'zz1'",
                "no registered region is a prefix of quadrat id 'zz1'"]
    for grouped, message in zip(cases, messages):
        got = _outcome(apply_priors, grouped, priors, {"img": 0}, registry)
        assert got[0] == "error" and message in got[2]
        assert got == _outcome(_ref_apply_priors, grouped, priors, {"img": 0}, registry)
    mask = SpeciesMask(allowed=np.array([True, False]))
    # image a is emptied ahead of the index outside the mask, but the index check runs first
    for grouped, image_id in ((group_by_image([_tp("a", 0, [(1, 0.5)]), _tp("b", 0, [(4, 0.5)])]), "b"),
                              (group_by_image([_tp("a", 0, [(1, 0.5)]), _tp("a", 1, [(4, 0.5)])]), "a")):
        got = _outcome(apply_geo_mask, grouped, mask)
        assert got == ("error", "InputError", f"species index 4 in {image_id!r} exceeds catalog size 2")
        assert got == _outcome(_ref_apply_geo_mask, grouped, mask)


def _four(image_id, probs):
    """Four tiles of ``image_id`` holding ``probs``: at least four entries, so
    with ``CHUNK_ENTRIES`` at 1 the reader cuts a slice ahead of the next image."""
    return [_tp(image_id, col, probs) for col in range(4)]


@pytest.mark.parametrize("stage,first_images,message,checked", [
    ("geo", _four("img0", [(1, 0.5), (7, 0.25)]), "species index 7 in 'img0' exceeds catalog size 2", []),
    ("geo", _four("img0", [(0, 0.5)]), "removed every species of every tile of 'img0'", []),
    ("priors", _four("img0", [(0, 0.5)]), "reweighted mass is zero", ["reweight_entries"]),
    # the region check runs ahead of the reweight, so a later image with no region wins over the zero mass;
    # img0 holds one entry, so zz1 joins its slice
    ("priors", [_tp("img0", 0, [(0, 0.5)]), *_four("zz1", [(1, 0.5)])],
     "no registered region is a prefix of quadrat id 'zz1'", []),
], ids=["outside-mask", "emptied", "zero-mass", "zero-mass-then-region"])
def test_stages_stop_at_the_first_slice_that_fails(tmp_path, monkeypatch, stage, first_images, message, checked):
    path = tmp_path / "tiles.ndjson"
    write_tile_predictions(path, [*first_images, *(t for i in range(2, 7) for t in _four(f"img{i}", [(1, 0.5)]))])
    monkeypatch.setattr(fbatch, "CHUNK_ENTRIES", 1)
    first_ids = list(dict.fromkeys(t.image_id for t in first_images))
    # the first images, then one image per slice
    assert [view.image_ids for view in tile_slices(path)] == [first_ids] + [[f"img{i}"] for i in range(2, 7)]
    with path.open("a") as fh:  # a line the reader would reach only past every slice
        fh.write("{unreadable\n")
    calls = []

    def counted(fn):
        def call(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return call

    for fn in (fpipeline.check_species_indices, fpipeline.reweight_entries):
        monkeypatch.setattr(fpipeline, fn.__name__, counted(fn))
    if stage == "geo":
        mask = SpeciesMask(allowed=np.array([False, True]))
        run_stage = lambda view: apply_geo_mask(view, mask)
    else:
        priors, registry = ClusterPriors(np.array([[0.0, 0.5, 0.5]])), RegionRegistry(regions=("img",))
        run_stage = lambda view: apply_priors(view, priors, {"img": 0}, registry)
    with pytest.raises((InputError, InvariantViolation), match=message):
        fpipeline.stream(tile_slices(path), [run_stage])
    # the first slice's checks, no later slice's
    assert calls == ["check_species_indices"] + checked


def _voted(slices, catalog, k, min_votes, max_labels):
    """The rows of one ``Vote`` fed ``slices`` in turn, as ``aggregate`` votes a tile file."""
    vote = Vote(catalog, k, min_votes, max_labels)
    for view in slices:
        vote.add(view)
    return vote.rows()


def _image_slices(batch):
    """``batch`` cut into one slice per image, each rebuilt from its tiles: a
    cut the reader makes only for images of at least ``4 * CHUNK_ENTRIES`` entries."""
    bounds = batch.image_offsets.tolist()
    return [TileBatch.from_tiles(batch.tiles(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]


def test_vote_names_the_first_index_past_the_catalog_in_file_order():
    tiles = [_tp("b", 0, [(9, 0.5)]), _tp("c", 0, [(1, 0.5)]), _tp("a", 0, [(2, 0.5), (8, 0.25)])]
    batch = TileBatch.from_tiles(tiles)
    slices = _image_slices(batch)  # "b", "c", then "a"
    assert [view.image_ids for view in slices] == [["b"], ["c"], ["a"]]
    for views in (slices, [batch]):  # "b", first in the file, whether or not it is a slice of its own
        with pytest.raises(InputError, match=r"^species index 9 in 'b' exceeds catalog size 3$"):
            _voted(views, SpeciesCatalog([10, 11, 12]), 9, 1, 10)


def test_vote_rejects_an_index_past_the_catalog_that_it_does_not_choose():
    grouped = group_by_image([_tp("a", 0, [(0, 0.5), (5, 0.25)]), _tp("a", 1, [(0, 0.5)])])
    catalog = _catalog(3)
    expected = ("error", "InputError", "species index 5 in 'a' exceeds catalog size 3")
    assert _outcome(aggregate_predictions, grouped, catalog, 1, 1, 10) == expected  # k = 1: index 5 gets no vote
    assert _outcome(_ref_aggregate_predictions, grouped, catalog, 1, 1, 10) == expected


def test_every_stage_rejects_a_negative_index_of_a_hand_built_batch():
    batch = TileBatch.from_columns(["a"], [0], [0], [0], [False], [2], [-1, 1], [0.5, 0.25])  # the reader rejects -1
    message = r"^species index -1 in 'a' exceeds catalog size 3$"
    for stage in (lambda: apply_geo_mask(batch, SpeciesMask(allowed=np.ones(3, dtype=bool))),
                  lambda: apply_priors(batch, ClusterPriors(np.full((1, 3), 1 / 3)), {"a": 0}, RegionRegistry(("a",))),
                  lambda: aggregate_predictions(batch, _catalog(3), 9, 1, 10),
                  lambda: image_probability_vectors(batch, 3)):
        with pytest.raises(InputError, match=message):
            stage()


def test_group_by_image_keeps_tiles_of_interleaved_images_in_order():
    tiles = [_tp("b", 0, [(1, 0.5)]), _tp("a", 0, [(2, 0.5)]),
             _tp("b", 1, [(3, 0.5)]), _tp("a", 1, [(1, 0.5)])]
    batch = TileBatch.from_tiles(tiles)
    assert batch.image_ids == ["b", "a"]
    assert [(t.image_id, t.col) for t in _all_tiles(batch)] == [("b", 0), ("b", 1), ("a", 0), ("a", 1)]
    assert _tiles(group_by_image(tiles)) == _tiles(_ref_group_by_image(tiles))
    # columns are never regrouped: an image code that decreases is a bug in the caller
    with pytest.raises(InvariantViolation, match=r"keep each image's tiles together"):
        TileBatch.from_columns(["b", "a"], [0, 1, 0], [0, 0, 1], [0, 0, 0], [False] * 3, [1] * 3,
                               [1, 2, 3], [0.5] * 3)


# --- hypothesis properties -------------------------------------------------------

N_SPECIES = 8

# as CHUNK_ENTRIES, the reader cuts a slice at the first new image past 4 to 28
# entries, so most images are then a slice of their own; 4 * 4096 holds them all
SLICE_BOUNDS = (1, 2, 3, 7, 4096)


def _read_slices(path, bound):
    """The slices ``io.tile_slices`` reads from ``path`` with ``bound`` as ``CHUNK_ENTRIES``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fbatch, "CHUNK_ENTRIES", bound)
        return list(tile_slices(path))


def _sliced_reads(path):
    """``_outcome`` of reading ``path`` whole, then of reading its slices at
    each of ``SLICE_BOUNDS``, their tiles joined."""
    joined = lambda bound: [t for view in _read_slices(path, bound) for t in _all_tiles(view)]
    return [_outcome(lambda: _all_tiles(read_tile_predictions(path)))] + [
        _outcome(joined, bound) for bound in SLICE_BOUNDS]


def _ref_grouped(tiles):
    """The list-based grouping of ``tiles``, a list of tiles or a batch."""
    return _ref_group_by_image(_all_tiles(tiles) if isinstance(tiles, TileBatch) else list(tiles))


def _sliced(fn, tiles, *args, group=group_by_image):
    """``_outcome`` of ``fn`` on ``group(tiles)``, then, at each of
    ``SLICE_BOUNDS``, of ``fn`` on ``group`` of each slice of a tile file of
    them in turn, as a command that walks the reader's slices calls it: the
    first slice's failure, or the slices' image -> tiles outputs joined (None
    for a check). ``group=_ref_grouped`` runs a list-based reference on the
    same slices."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tiles.ndjson"
        write_tile_predictions(path, group_by_image(tiles).batch)

        def joined(bound):
            outputs = [fn(group(view), *args) for view in _read_slices(path, bound)]
            return None if outputs[0] is None else {i: t for out in outputs for i, t in out.items()}

        return [_outcome(fn, group(tiles), *args)] + [_outcome(joined, bound) for bound in SLICE_BOUNDS]


def _assert_sliced_like_reference(fn, ref_fn, tiles, *args):
    """``fn`` and the list-based ``ref_fn`` give the same outcome on the
    whole input and on each slicing of it; an index fault can win or lose by
    slicing, as the first slice that fails is the one reported."""
    for new, ref in zip(_sliced(fn, tiles, *args), _sliced(ref_fn, tiles, *args, group=_ref_grouped), strict=True):
        _assert_same_tiles(new, ref)


@st.composite
def tile_lists(draw, prefixes=("img",), max_images=4):
    """Tiles of a few images, interleaved, with coarse (tie-prone) or fine probabilities."""
    tiles = []
    for i in range(draw(st.integers(1, max_images))):
        image_id = f"{draw(st.sampled_from(prefixes))}{i}"
        for t in range(draw(st.integers(1, 4))):
            support = draw(st.integers(1, N_SPECIES))
            idxs = draw(st.permutations(range(N_SPECIES)))[:support]
            if draw(st.booleans()):
                quarters = draw(st.lists(st.integers(1, 4), min_size=support, max_size=support))
                probs = [q / (4.0 * support) for q in quarters]
            else:
                raw = draw(st.lists(st.floats(1e-3, 1.0), min_size=support, max_size=support))
                scale = draw(st.floats(0.05, 1.0)) / sum(raw)
                probs = [min(r * scale, 1.0) for r in raw]
            tiles.append(TilePrediction(image_id, t // 2, t % 2, list(zip(idxs, probs))))
    return draw(st.permutations(tiles))


@settings(max_examples=150, deadline=None)
@given(tiles=tile_lists(), data=st.data())
def test_geo_mask_matches_reference_property(tiles, data):
    size = data.draw(st.integers(1, N_SPECIES), label="mask size")
    allowed = np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size), label="allowed"))
    allowed[data.draw(st.integers(0, size - 1), label="one allowed")] = True
    mask = SpeciesMask(allowed=allowed)
    _assert_sliced_like_reference(apply_geo_mask, _ref_apply_geo_mask, tiles, mask)


@settings(max_examples=150, deadline=None)
@given(tiles=tile_lists(prefixes=("img", "imgx", "zz")), data=st.data())
def test_reweight_matches_reference_property(tiles, data):
    k = data.draw(st.integers(1, 3), label="k")
    size = data.draw(st.integers(N_SPECIES - 1, N_SPECIES), label="prior size")
    rows = np.array(data.draw(st.lists(st.lists(st.sampled_from([0.0, 1e-6, 0.1, 0.5, 1.0, 3.0]),
                                                  min_size=size, max_size=size), min_size=k, max_size=k)))
    rows[:, 0] += 1e-3  # keep every row's mass positive
    priors = ClusterPriors(rows / rows.sum(axis=1, keepdims=True))
    registry = RegionRegistry(regions=("img", "imgx"))
    regions = data.draw(st.lists(st.sampled_from(["img", "imgx"]), unique=True), label="mapped")
    region_map = {r: data.draw(st.integers(0, k - 1)) for r in regions}
    _assert_sliced_like_reference(apply_priors, _ref_apply_priors, tiles, priors, region_map, registry)
    for t in tiles[:3]:
        prior = priors.priors[0]
        assert _outcome(reweight, t.probs, prior) == _outcome(_ref_reweight, t.probs, prior)


@settings(max_examples=150, deadline=None)
@given(tiles=tile_lists(), data=st.data())
def test_vote_matches_reference_property(tiles, data):
    k = data.draw(st.integers(0, 5), label="k")
    min_votes = data.draw(st.integers(0, 3), label="min_votes")
    max_labels = data.draw(st.integers(1, 5), label="max_labels")
    catalog = _catalog(data.draw(st.integers(N_SPECIES - 2, N_SPECIES), label="catalog size"))
    grouped, ref = group_by_image(tiles), _ref_group_by_image(tiles)
    assert _outcome(aggregate_predictions, grouped, catalog, k, min_votes, max_labels) == \
        _outcome(_ref_aggregate_predictions, ref, catalog, k, min_votes, max_labels)
    assert _outcome(image_probability_vectors, grouped, N_SPECIES)[0] == "ok"
    ids, vectors = image_probability_vectors(grouped, N_SPECIES)
    ref_ids, ref_vectors = _ref_image_probability_vectors(ref, N_SPECIES)
    assert ids == ref_ids and np.array_equal(vectors, ref_vectors)
    if k >= 1:
        for image_id in ref:
            tally, ref_tally = tally_votes(grouped[image_id], k), _ref_tally_votes(ref[image_id], k)
            assert list(tally.votes.items()) == list(ref_tally.votes.items())
            assert list(tally.mass.items()) == list(ref_tally.mass.items())


def _whole_batch_rows(batch, catalog, k, min_votes, max_labels):
    """The vote as one ``tally_batch`` and ``rank_labels`` call over the whole
    batch, as ``aggregate_predictions`` made it before it voted in slices."""
    image, idx, votes, mass = tally_batch(batch, k)[:4]
    chosen = rank_labels(image, idx, votes, mass, min_votes, max_labels)
    image, idx = image[chosen], idx[chosen]
    species_ids = catalog.species_ids
    rows = [(image_id, tuple(species_ids[j] for j in idx[image == i].tolist()))
            for i, image_id in enumerate(batch.image_ids)]
    return sorted(rows)


@settings(max_examples=150, deadline=None)
@given(tiles=tile_lists(max_images=9), data=st.data())
def test_sliced_vote_matches_whole_batch_vote_property(tiles, data):
    k = data.draw(st.integers(1, 5), label="k")
    min_votes = data.draw(st.integers(1, 4), label="min_votes")  # 4 exceeds some images' tiles: fallback
    max_labels = data.draw(st.integers(1, 5), label="max_labels")
    batch, catalog = TileBatch.from_tiles(tiles), _catalog(N_SPECIES)
    expected = _whole_batch_rows(batch, catalog, k, min_votes, max_labels)
    rows = aggregate_predictions(batch, catalog, k, min_votes, max_labels)
    assert [(r.quadrat_id, r.species_ids) for r in rows] == expected
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tiles.ndjson"
        write_tile_predictions(path, batch)
        for bound in SLICE_BOUNDS:  # the vote of a tile file's slices, as a command makes it
            rows = _voted(_read_slices(path, bound), catalog, k, min_votes, max_labels)
            assert [(r.quadrat_id, r.species_ids) for r in rows] == expected, bound


_WRITE_IDS = st.sampled_from(["a", "b", "é", 'q"t', "back\\slash", "\u2603\U0001f33f", "tab\tx", "\x01"])
_WRITE_PROBS = st.sampled_from([5e-324, 1e-05, 0.1, 0.25]) | st.floats(5e-324, 0.25)
_COMPLETE_PROBS = st.sampled_from([[1.0], [0.5, 0.5], [0.25] * 4, [0.1] * 10, [1e-05, 0.99999]])


@st.composite
def written_tiles(draw):
    """Tiles whose images interleave, with escaped ids, extreme floats and 64-bit indices."""
    tiles = []
    for _ in range(draw(st.integers(0, 12))):
        complete = draw(st.booleans())
        probs = draw(_COMPLETE_PROBS if complete else st.lists(_WRITE_PROBS, min_size=1, max_size=4))
        idxs = draw(st.lists(st.integers(0, 2**63 - 1) | st.sampled_from([0, 1, 2**63 - 1]),
                             min_size=len(probs), max_size=len(probs), unique=True))
        row, col = draw(st.integers(0, 2**63 - 1)), draw(st.integers(0, 3))
        tiles.append(TilePrediction(draw(_WRITE_IDS), row, col, list(zip(idxs, probs)), complete))
    return tiles


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tiles=written_tiles(), chunk=st.integers(1, 5))
def test_tile_writer_matches_json_dumps_property(tmp_path, monkeypatch, tiles, chunk):
    monkeypatch.setattr(fbatch, "CHUNK_ENTRIES", chunk)
    ref = tmp_path / "ref.ndjson"
    _ref_write_tile_predictions(ref, tiles)
    assert _bytes(tmp_path, "list", tiles) == ref.read_bytes()
    assert _bytes(tmp_path, "iter", iter(tiles)) == ref.read_bytes()
    if tiles:
        batch = TileBatch.from_tiles(tiles)
        _ref_write_tile_predictions(ref, _all_tiles(batch))
        assert _bytes(tmp_path, "batch", batch) == ref.read_bytes()


@settings(max_examples=300, deadline=None)
@given(pred=st.lists(st.integers(0, 6)), truth=st.frozensets(st.integers(0, 6)))
def test_image_f1_matches_three_set_reference_property(pred, truth):
    for p in (pred, set(pred), frozenset(pred)):
        assert image_f1(p, truth) == _ref_image_f1(p, truth)
        assert image_f1(p, list(truth)) == _ref_image_f1(p, list(truth))


def _often(good, bad):
    """Mostly ``good``, sometimes one of the ``bad`` values (an inner value, as
    hypothesis favours the ends of a range)."""
    return st.integers(0, 15).flatmap(lambda r: st.sampled_from(bad) if r == 7 else good)


_INDEX = _often(st.integers(0, 5), [-1, 1.5, "3", "x", None, True, [1], float("inf"), 2])
_PROB = _often(st.sampled_from([0.125, 0.25, 0.5, 1.0, 0.1]),
               [0.0, 1.5, -0.25, "0.5", "p", None, float("nan"), 1])
_ENTRY = _often(st.tuples(_INDEX, _PROB).map(list), [[1], [1, 0.5, 2], 7, "ab", {"1": 0.5}])
_RECORD = st.fixed_dictionaries(
    {
        "image_id": _often(st.sampled_from(["a", "b", "c"]),
                           ["", 0, 5, ["a"], {"a": 1}, "\ud800", "b\udfff"]),
        "row": _often(st.integers(0, 2), [-1, "1", 1.7, None, "r"]),
        "col": _often(st.integers(0, 2), [-1, 2.0, "c"]),
        "probs": st.lists(_ENTRY, max_size=4),
    },
    optional={"complete": st.sampled_from([True, False, "yes", 0])},
)
_LINE = _often(
    st.tuples(_RECORD, _often(st.just(()), [("image_id",), ("row",), ("col",), ("probs",)])).map(
        lambda rd: json.dumps({key: v for key, v in rd[0].items() if key not in rd[1]})
    ),
    ["{broken", "", "   ", "[1, 2]", "7", '"text"', "{} {}", "\ufeff{}", "null"],
)


def _wrongly_typed(line: str) -> bool:
    """Whether the record on ``line`` holds a value of the wrong JSON type,
    which the reference reader coerces and the batch reader rejects: a row,
    col or dense index that is not an integer, a probability that is not a
    number (a bool is neither), or a ``complete`` that is not a bool."""
    try:
        rec = json.loads(line.strip())
    except ValueError:
        return False
    if not isinstance(rec, dict):
        return False
    entries = rec["probs"] if isinstance(rec.get("probs"), list) else []
    pairs = [list(e) for e in entries if isinstance(e, (list, str, dict)) and len(e) == 2]  # those that unpack
    return (
        any(key in rec and type(rec[key]) is not int for key in ("row", "col"))
        or any(type(i) is not int or type(p) not in (int, float) for i, p in pairs)
        or ("complete" in rec and type(rec["complete"]) is not bool)
    )


def _first_unreadable(path, lines):
    """``(line, expected, exact)`` for the first line the reference reader
    would read but the batch reader rejects, or ``(None, None, None)``: a
    record whose image id reappears after other images' records, whatever
    else the record holds, or a record holding a wrongly typed value, given
    by its message's prefix (``exact`` False)."""
    seen, current = set(), None
    for n, line in enumerate(lines, start=1):
        try:
            rec = json.loads(line.strip())
        except ValueError:
            continue
        key = rec.get("image_id") if isinstance(rec, dict) else None
        if isinstance(key, str) and key != current and key in seen:
            message = f"{path}:{n}: image {key!r} reappears after other images' records"
            return n, ("error", "InputError", message), True
        if _wrongly_typed(line):
            return n, ("error", "InputError", f"{path}:{n}: bad tile prediction record ("), False
        if isinstance(key, str):
            seen.add(key)
            current = key
    return None, None, None


def _reference_read(path, lines):
    """Write ``lines`` to ``path`` and return ``(expected, exact)``: what the
    batch reader must give for the file.

    The file is cut at ``_first_unreadable``'s line. When the reference
    reader fails on the lines before it, or there is no such line, its
    outcome is expected exactly (``exact`` True). Otherwise the expected
    error is ``_first_unreadable``'s, at that line: the reference never words it.
    """
    cut, rejected, exact = _first_unreadable(path, lines)
    path.write_text("".join(line + "\n" for line in lines[:cut - 1 if cut else None]), encoding="utf-8")
    ref = _outcome(_ref_read_tile_predictions, path)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    if cut is None or (ref[0] == "error" and ref[2] != f"{path}: no tile prediction records"):
        return ref, True
    return rejected, exact


def _read_as_expected(new, expected, exact) -> bool:
    if not exact:
        return new[:2] == expected[:2] and new[2].startswith(expected[2])
    if expected[0] == "ok":
        return new[0] == "ok" and [(t.image_id, t.row, t.col, t.probs, t.complete) for t in new[1]] == \
            [(t.image_id, t.row, t.col, t.probs, t.complete) for t in _ref_flatten(_ref_group_by_image(expected[1]))]
    return new == expected


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_LINE, min_size=0, max_size=6))
# line 3's image reappears, and its entry [1] does not unpack, or its row is not an integer: the image wins
@example(lines=['{"image_id": "b", "row": 0, "col": 0, "probs": [[0, 0.125], [1, 0.125]]}',
                '{"image_id": "a", "row": 0, "col": 0, "probs": [[0, 0.125]]}',
                '{"image_id": "b", "row": 0, "col": 0, "probs": [[0, 0.125], [0, 0.125], [1]]}'])
@example(lines=['{"image_id": "b", "row": 0, "col": 0, "probs": [[0, 0.125]]}',
                '{"image_id": "a", "row": 0, "col": 0, "probs": [[0, 0.125]]}',
                '{"image_id": "b", "row": "1", "col": 0, "probs": [[0, 0.125]]}'])
def test_batch_reader_rejects_exactly_what_tile_prediction_rejects(tmp_path, lines):
    path = tmp_path / "preds.ndjson"
    expected, exact = _reference_read(path, lines)
    for new in _sliced_reads(path):
        assert _read_as_expected(new, expected, exact), (new, expected)


def test_reader_reports_first_bad_record_before_later_invalid_json(tmp_path):
    good = {"image_id": "a", "row": 0, "col": 0, "probs": [[1, 0.5]]}
    lines = [
        json.dumps(good),
        json.dumps(dict(good, col=1, probs=[[2, 0.7], [3, 0.7]])),  # mass 1.4
        json.dumps(dict(good, col=2, probs=[[4, 1.5]])),
        "{broken",
    ]
    path = tmp_path / "preds.ndjson"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match=r":2: tile of 'a': probability mass 1\.4 exceeds 1"):
        read_tile_predictions(path)
    path.write_text("\n".join([lines[0], lines[3], lines[1]]) + "\n")
    with pytest.raises(InputError, match=r":2: invalid JSON"):
        read_tile_predictions(path)
    # a's reappearance on line 3 is a bad record too; the first in the file wins
    later_image = json.dumps(dict(good, image_id="b", probs=[[5, 0.0]]))
    path.write_text("\n".join([lines[0], later_image, lines[2]]) + "\n")
    with pytest.raises(InputError, match=r":2: tile of 'b': probability 0.0 outside"):
        read_tile_predictions(path)


@pytest.mark.parametrize("record", [{"image_id": ["a"]}, {"image_id": {"a": 1}}, {"image_id": 7},
                                    {"image_id": ["a"], "row": "r"}, {"image_id": ["a"], "probs": [[1, 1.5]]}])
def test_reader_words_a_non_string_image_id_as_tile_prediction_does(tmp_path, record):
    good = {"image_id": "a", "row": 0, "col": 0, "probs": [[1, 0.5]]}
    path = tmp_path / "preds.ndjson"
    expected, exact = _reference_read(path, [json.dumps(good), json.dumps(dict(good, **record))])
    assert expected[0] == "error" and expected[2].startswith(f"{path}:2: ")
    new = _outcome(read_tile_predictions, path)
    assert _read_as_expected(new, expected, exact), new


@pytest.mark.parametrize("ids,fault,message", [
    ("aba", None, ":3: image 'a' reappears after other images' records"),
    ("abba", None, ":4: image 'a' reappears after other images' records"),
    ("abcb", None, ":4: image 'b' reappears after other images' records"),
    ("aba", (1, {"probs": [[1, 1.5]]}), ":2: tile of 'b': probability 1.5 outside (0, 1]"),
    ("aba", (2, {"probs": [[1, 1.5]]}), ":3: image 'a' reappears after other images' records"),
    ("aba", (2, {"row": "1"}), ":3: image 'a' reappears after other images' records"),
], ids=["aba", "abba", "abcb", "bad-record-first", "bad-and-reappearing", "typed-and-reappearing"])
def test_reader_rejects_an_image_that_reappears_after_other_images(tmp_path, ids, fault, message):
    records = [{"image_id": i, "row": 0, "col": c, "probs": [[1, 0.5]]} for c, i in enumerate(ids)]
    if fault is not None:
        records[fault[0]].update(fault[1])
    path = tmp_path / "preds.ndjson"
    expected, exact = _reference_read(path, [json.dumps(r) for r in records])
    for new in _sliced_reads(path):
        assert new == ("error", "InputError", f"{path}{message}")
        assert _read_as_expected(new, expected, exact)


@pytest.mark.parametrize("field", ["row", "col", "index"])
def test_reader_reports_a_64_bit_overflow_at_its_line(tmp_path, field):
    good = {"image_id": "a", "row": 0, "col": 0, "probs": [[1, 0.5]]}
    huge = dict(good, probs=[[2**63, 0.5]]) if field == "index" else dict(good, **{field: 2**63})
    path = tmp_path / "preds.ndjson"
    path.write_text(json.dumps(good) + "\n" + json.dumps(huge) + "\n")
    with pytest.raises(InputError) as info:
        read_tile_predictions(path)
    assert str(info.value) == f"{path}:2: bad tile prediction record (int too big to convert)"
    # an earlier bad record is still the one reported
    path.write_text(json.dumps(dict(good, probs=[[1, 1.5]])) + "\n" + json.dumps(huge) + "\n")
    with pytest.raises(InputError, match=r":1: tile of 'a': probability 1\.5 outside"):
        read_tile_predictions(path)


@pytest.mark.parametrize("chunk", [1, 2, 4, 7, 100])
def test_tile_writer_chunks_hold_at_most_write_chunk_entries(tmp_path, monkeypatch, chunk):
    widths = [1, 2, 5, 1, 1, 3, 9, 2, 2, 1]
    batch = TileBatch.from_tiles(_tp(f"i{t % 3}", t, [(i, 0.05) for i in range(w)]) for t, w in enumerate(widths))
    calls, columns = [], TileBatch.columns

    def recorded(self, lo, hi):
        calls.append((lo, hi))
        return columns(self, lo, hi)

    monkeypatch.setattr(TileBatch, "columns", recorded)
    monkeypatch.setattr(fbatch, "CHUNK_ENTRIES", chunk)
    write_tile_predictions(tmp_path / "out.ndjson", batch)
    assert [lo for lo, _ in calls] == [0] + [hi for _, hi in calls[:-1]]
    assert calls[-1][1] == len(batch) and all(lo < hi for lo, hi in calls)
    for lo, hi in calls:
        assert batch.offsets[hi] - batch.offsets[lo] <= max(chunk, max(widths))


def test_validate_grid_matches_reference():
    cases = [
        [_tp("a", 0, [(1, 0.5)]), _tp("b", 0, [(1, 0.5)]), _tp("a", 0, [(2, 0.5)]), _tp("b", 5, [(1, 0.5)])],
        # the first bad tile sits in a later image, after a slice cut, with a worse one further on
        [_tp("a", 0, [(1, 0.5), (2, 0.25)]), _tp("a", 1, [(1, 0.5)]), _tp("b", 1, [(1, 0.5)]),
         _tp("b", 1, [(3, 0.5)], row=1), _tp("b", 1, [(3, 0.5)], row=1), _tp("c", 9, [(1, 0.5)])],
    ]
    for tiles in cases:
        for grid in (GridSpec(2, 2), GridSpec(2, 6), GridSpec(2, 10)):
            ref = _outcome(_ref_validate_grid, _ref_group_by_image(tiles), grid)
            assert _sliced(validate_grid, tiles, grid) == [ref] * (len(SLICE_BOUNDS) + 1)


@pytest.mark.parametrize("tiles", [
    # image b is emptied by the mask; at small bounds it is a slice of its own
    [_tp("a", 0, [(1, 0.5), (2, 0.25)]), _tp("b", 0, [(0, 0.5), (3, 0.25)]), _tp("b", 1, [(3, 0.5)]),
     _tp("c", 0, [(2, 0.5)])],
    # an index outside the mask in image c, past a slice cut; image d, emptied too, comes later
    [_tp("a", 0, [(1, 0.5), (2, 0.25)]), _tp("a", 1, [(2, 0.5)]), _tp("c", 0, [(2, 0.5), (9, 0.25)]),
     _tp("d", 0, [(0, 0.5)])],
    # the emptied image b comes first and the outside index follows: the index wins in
    # one slice, and b wins where the slices cut between them
    [_tp("a", 0, [(1, 0.5)]), _tp("a", 1, [(2, 0.5)]), _tp("b", 0, [(3, 0.5)]), _tp("b", 1, [(0, 0.5)]),
     _tp("c", 0, [(1, 0.5)]), _tp("c", 1, [(9, 0.5), (1, 0.25)])],
    # image b loses one tile of two, and every image keeps a tile
    [_tp("a", 0, [(1, 0.5), (2, 0.25)]), _tp("b", 0, [(3, 0.5)]), _tp("b", 1, [(2, 0.3), (1, 0.2), (0, 0.1)])],
], ids=["emptied-own-slice", "outside-after-cut", "emptied-then-outside", "tile-dropped"])
def test_geo_mask_at_slice_cuts_matches_reference(tiles):
    mask = SpeciesMask(allowed=np.array([False, True, True, False]))
    _assert_sliced_like_reference(apply_geo_mask, _ref_apply_geo_mask, tiles, mask)



def test_a_stage_that_drops_no_tile_shares_the_tile_columns():
    grouped = group_by_image([_tp("img0", 0, [(1, 0.5), (0, 0.25)]), _tp("img0", 1, [(2, 0.5)]),
                              _tp("img1", 0, [(1, 0.5), (3, 0.25)])])
    batch = grouped.batch
    masked = apply_geo_mask(grouped, SpeciesMask(allowed=np.array([False, True, True, False]))).batch
    assert (len(masked), masked.idx.shape[0]) == (3, 3)  # two entries dropped, no tile
    weighted = apply_priors(grouped, ClusterPriors(np.full((1, 4), 0.25)), {"img": 0},
                            RegionRegistry(regions=("img",))).batch
    for derived in (masked, weighted):
        assert derived.image is batch.image and derived.row is batch.row and derived.col is batch.col
    dropped = apply_geo_mask(grouped, SpeciesMask(allowed=np.array([False, True, False, False]))).batch
    assert len(dropped) == 2  # img0's second tile keeps nothing
    assert dropped.image is not batch.image and dropped.row is not batch.row and dropped.col is not batch.col

# --- microbenchmarks at ~500 images ------------------------------------------------

@pytest.fixture(scope="module")
def bench_bundle(tmp_path_factory):
    spec = SynthSpec(n_images=500, n_species=200, noise=0.5)
    bundle = generate(spec, seed=5)
    directory = write_bundle(bundle, tmp_path_factory.mktemp("bench"))
    mask = build_mask(
        nearest_per_species(bundle.observations, DEFAULT_REFERENCE_POINT), bundle.geo_regions, bundle.catalog
    )
    return directory / "tile_predictions.ndjson", bundle.catalog, mask, bundle


def _traced(fn, *args):
    """``(result, held, peak)``: what ``fn`` allocated and still holds, and its peak."""
    tracemalloc.start()
    try:
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def test_tile_reader_memory_stays_below_100_bytes_per_entry(bench_bundle):
    path = bench_bundle[0]
    tracemalloc.start()
    try:
        batch = read_tile_predictions(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * batch.idx.shape[0]  # a boxed float in a list alone takes 32 B


@pytest.fixture(scope="module")
def wide_slices(tmp_path_factory):
    """The reader slices of a 2000-image bench bundle, its catalog and its geo mask."""
    bundle = generate(SynthSpec(n_images=2000, n_species=200, noise=0.5), seed=5)
    directory = write_bundle(bundle, tmp_path_factory.mktemp("wide"))
    mask = build_mask(
        nearest_per_species(bundle.observations, DEFAULT_REFERENCE_POINT), bundle.geo_regions, bundle.catalog
    )
    slices = list(tile_slices(directory / "tile_predictions.ndjson"))
    assert len(slices) >= 4
    return slices, bundle.catalog, mask


def _slice_memory(slices, call):
    """Per slice, what ``call(slice)`` held at its peak beyond what it returned,
    over the slice's entries."""
    per_entry = []
    for view in slices:
        _, held, peak = _traced(call, view)
        per_entry.append((peak - held) / view.idx.shape[0])
    return per_entry


def test_vote_memory_is_set_by_a_slice_not_by_the_batch(wide_slices):
    slices, catalog, _ = wide_slices
    per_entry = _slice_memory(slices, lambda view: aggregate_predictions(view, catalog, 9, 2, 10))
    assert max(per_entry) < 6 * 8  # the tally and ranking hold about six int64 columns of the slice's entries


@pytest.mark.parametrize("stage", ["invalid_tiles", "validate_grid", "apply_geo_mask"])
def test_per_entry_pass_memory_is_set_by_a_slice_not_by_the_batch(wide_slices, stage):
    slices, _, mask = wide_slices
    call = {
        "invalid_tiles": lambda view: view.invalid_tiles(),
        "validate_grid": lambda view: validate_grid(view, GridSpec(4, 4)),
        "apply_geo_mask": lambda view: apply_geo_mask(view, mask),
    }[stage]
    assert max(_slice_memory(slices, call)) < 6 * 8  # below the vote's six int64 columns of the slice's entries


def test_batches_cache_nothing_per_entry(bench_bundle):
    path, catalog, mask, bundle = bench_bundle
    batch = read_tile_predictions(path)
    validate_grid(batch, GridSpec(4, 4))
    masked = apply_geo_mask(batch, mask).batch
    priors, region_map = _priors_for(bundle, seed=5)
    weighted = apply_priors(masked, priors, region_map, bundle.registry).batch
    assert len(aggregate_predictions(weighted, catalog, 9, 2, 10)) == 500
    columns = {f.name for f in dataclasses.fields(TileBatch)}
    for stage in (batch, masked, weighted):
        assert set(stage.__dict__) - columns <= {"image_offsets"}


def test_geo_mask_output_holds_only_its_own_columns(bench_bundle):
    path, _, mask, _ = bench_bundle
    batch = read_tile_predictions(path)
    masked, held, _ = _traced(lambda: apply_geo_mask(batch, mask).batch)
    assert len(masked) == len(batch)  # no tile drops, so the tile columns are shared
    # an int64 index and a float64 probability per kept entry, an int64 offset per tile
    # and one more, a bool flag per tile; nothing held for a dropped entry
    assert held < 16 * masked.idx.shape[0] + 8 * masked.offsets.shape[0] + len(masked) + 8 * 1024


def test_bench_read_tile_predictions(benchmark, bench_bundle):
    path = bench_bundle[0]
    batch = benchmark.pedantic(read_tile_predictions, args=(path,), rounds=4)
    assert len(batch) == 8000


def test_bench_apply_geo_mask(benchmark, bench_bundle):
    path, _, mask, _ = bench_bundle
    slices = list(tile_slices(path))  # as `geofilter` and `run` mask them
    masked = benchmark.pedantic(lambda: [apply_geo_mask(view, mask) for view in slices], rounds=20, iterations=10)
    assert sum(len(part) for part in masked) == 500


def test_bench_aggregate(benchmark, bench_bundle):
    path, catalog, _, _ = bench_bundle
    slices = list(tile_slices(path))  # as `aggregate` votes them
    rows = benchmark.pedantic(lambda: _voted(slices, catalog, 9, 2, 10), rounds=20)
    assert len(rows) == 500


def test_bench_write_tile_predictions(benchmark, bench_bundle, tmp_path):
    path = bench_bundle[0]
    batch = read_tile_predictions(path)
    out = tmp_path / "written.ndjson"
    benchmark.pedantic(write_tile_predictions, args=(out, batch), rounds=4)
    assert out.read_bytes() == path.read_bytes()
