"""Pipeline configuration, stage functions, and the one-shot runner."""

import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from floratile import batch as fbatch
from floratile import pipeline
from floratile.catalog import RegionRegistry, SpeciesCatalog
from floratile.clustering import ClusterPriors, estimate_priors
from floratile.errors import InputError, InvariantViolation
from floratile.geo import SpeciesMask
from floratile.io import (
    SubmissionRow,
    ground_truth_rows,
    group_by_image,
    read_submission,
    tile_slices,
    write_ground_truth,
    write_tile_predictions,
)
from floratile.metrics import GroundTruth, final_score, image_f1
from floratile.pipeline import (
    DEFAULT_BASELINE_K,
    MODE_PRESETS,
    GeoOptions,
    PriorsOptions,
    RunConfig,
    aggregate_predictions,
    apply_geo_mask,
    apply_priors,
    PriorSums,
    compute_geo_mask,
    image_probability_vectors,
    run,
    score_submission,
    stream,
    validate_grid,
)
from floratile.synth import SynthSpec, generate, write_bundle
from floratile.tiling import GridSpec
from floratile.voting import TilePrediction


SPEC = SynthSpec(n_images=20, grid_rows=3, grid_cols=3, n_species=40, n_clusters=2, noise=0.5)


@pytest.fixture(scope="module")
def bundle():
    return generate(SPEC, seed=11)


@pytest.fixture(scope="module")
def fixture_dir(bundle, tmp_path_factory):
    return write_bundle(bundle, tmp_path_factory.mktemp("fixture"))


def _tiling_config(fixture_dir, out_dir, **kwargs):
    defaults = dict(
        catalog_path=str(fixture_dir / "catalog.csv"),
        predictions_path=str(fixture_dir / "tile_predictions.ndjson"),
        out_dir=str(out_dir),
        mode="tiling",
        grid=GridSpec(3, 3),
        truth_path=str(fixture_dir / "truth.csv"),
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


def test_mode_presets_resolution():
    cfg = RunConfig(catalog_path="c", predictions_path="p", out_dir="o", mode="tiling").resolved()
    assert cfg.grid == GridSpec(4, 4)
    assert (cfg.k_per_tile, cfg.min_votes, cfg.max_labels) == (9, 2, 10)

    cfg = RunConfig(catalog_path="c", predictions_path="p", out_dir="o", mode="no-tiling").resolved()
    assert cfg.grid == GridSpec(1, 1)
    assert (cfg.k_per_tile, cfg.min_votes, cfg.max_labels) == (20, 1, 20)

    # explicit knobs survive resolution
    cfg = RunConfig(
        catalog_path="c", predictions_path="p", out_dir="o", mode="tiling",
        grid=GridSpec(2, 2), k_per_tile=3, min_votes=1, max_labels=5,
    ).resolved()
    assert cfg.grid == GridSpec(2, 2)
    assert (cfg.k_per_tile, cfg.min_votes, cfg.max_labels) == (3, 1, 5)

    assert set(MODE_PRESETS) == {"tiling", "no-tiling"}
    assert DEFAULT_BASELINE_K == 10


def test_run_config_validation():
    with pytest.raises(InputError):
        RunConfig(catalog_path="c", predictions_path="p", out_dir="o", mode="party")
    with pytest.raises(InputError):
        RunConfig(catalog_path="c", predictions_path="p", out_dir="o", mode="baseline")
    with pytest.raises(InputError):
        RunConfig(
            catalog_path="c", predictions_path="p", out_dir="o", mode="baseline",
            training_counts_path="t", priors=PriorsOptions(enabled=True, embeddings_path="e"),
        )
    with pytest.raises(InputError):
        # priors without a registry
        RunConfig(
            catalog_path="c", predictions_path="p", out_dir="o",
            priors=PriorsOptions(enabled=True, embeddings_path="e"),
        )
    with pytest.raises(InputError):
        GeoOptions(enabled=True)  # missing paths
    with pytest.raises(InputError):
        PriorsOptions(enabled=True)  # missing embeddings
    with pytest.raises(InputError):
        PriorsOptions(epsilon=0.0)
    with pytest.raises(InputError):
        RunConfig(catalog_path="c", predictions_path="p", out_dir="o", threads=0)
    with pytest.raises(InputError, match=r"^baseline k must be >= 1$"):
        RunConfig(catalog_path="c", predictions_path="p", out_dir="o", mode="baseline", training_counts_path="t",
                  baseline_k=0)


@pytest.mark.parametrize("settings,message", [
    ({"k_per_tile": 0}, "k must be >= 1, got 0"),
    ({"min_votes": 0}, "min_votes and max_labels must be >= 1"),
    ({"max_labels": -2}, "min_votes and max_labels must be >= 1"),
])
def test_run_config_rejects_vote_settings_below_1_as_the_vote_does(settings, message):
    with pytest.raises(InputError, match=rf"^{message}$"):
        RunConfig(catalog_path="c", predictions_path="p", out_dir="o", **settings)
    votes = dict(k=9, min_votes=2, max_labels=10)
    votes.update((key.replace("k_per_tile", "k"), value) for key, value in settings.items())
    for tiles in (group_by_image([_tp("a", 0, 0, [(1, 0.5)])]), []):  # an empty batch is checked too
        with pytest.raises(InputError, match=rf"^{message}$"):
            aggregate_predictions(tiles, SpeciesCatalog([7, 8]), **votes)


@pytest.mark.parametrize("options", [
    lambda: PriorsOptions(epsilon=float("nan")),
    lambda: PriorsOptions(epsilon=float("inf")),
    lambda: GeoOptions(reference=(float("nan"), 4.0)),
    lambda: GeoOptions(reference=(44.0, float("-inf"))),
    lambda: GeoOptions(reference=(90.5, 4.0)),
    lambda: GeoOptions(reference=(44.0, 180.5)),
], ids=["epsilon_nan", "epsilon_inf", "lat_nan", "lon_inf", "lat_past_90", "lon_past_180"])
def test_options_reject_non_finite_or_out_of_range_values(options):
    with pytest.raises(InputError):
        options()
    GeoOptions(reference=(-90.0, 180.0))  # the bounds themselves are valid


def _tp(img, row, col, probs):
    return TilePrediction(image_id=img, row=row, col=col, probs=probs, complete=False)


def test_validate_grid_errors():
    ok = group_by_image([_tp("a", 0, 0, [(1, 0.5)]), _tp("a", 1, 1, [(2, 0.5)])])
    validate_grid(ok, GridSpec(2, 2))
    with pytest.raises(InputError, match="outside"):
        validate_grid(group_by_image([_tp("a", 2, 0, [(1, 0.5)])]), GridSpec(2, 2))
    with pytest.raises(InputError, match="duplicate tile"):
        validate_grid(
            group_by_image([_tp("a", 0, 0, [(1, 0.5)]), _tp("a", 0, 0, [(2, 0.5)])]), GridSpec(2, 2)
        )


def test_image_probability_vectors_hand_example():
    grouped = group_by_image([
        _tp("img", 0, 0, [(0, 0.2), (1, 0.2)]),   # renormalizes to (0.5, 0.5)
        _tp("img", 0, 1, [(0, 1.0)]),
    ])
    ids, vectors = image_probability_vectors(grouped, 3)
    assert ids == ["img"]
    assert np.allclose(vectors[0], [0.75, 0.25, 0.0], atol=1e-15)


def test_image_probability_vectors_rows_sum_to_one(bundle):
    grouped = group_by_image(bundle.tile_predictions)
    ids, vectors = image_probability_vectors(grouped, len(bundle.catalog))
    assert len(ids) == SPEC.n_images
    assert np.allclose(vectors.sum(axis=1), 1.0, atol=1e-9)


def test_priors_stages_take_tiles_in_every_form_a_stage_takes(bundle):
    batch, n_species = bundle.tile_predictions, len(bundle.catalog)
    tiles = list(batch.tiles(0, len(batch)))
    cluster_of_image = dict(zip(bundle.quadrat_ids, bundle.cluster_labels))
    expected_ids, expected_vectors = image_probability_vectors(batch, n_species)
    expected = estimate_priors(expected_vectors, [cluster_of_image[i] for i in expected_ids], 2)
    for form in (tiles, tuple(tiles), group_by_image(tiles)):
        ids, vectors = image_probability_vectors(form, n_species)
        assert ids == expected_ids and np.array_equal(vectors, expected_vectors)
        sums = PriorSums(cluster_of_image, n_species, 2, 1e-6)
        sums.add(form)
        assert np.array_equal(sums.priors().priors, expected.priors)


def test_a_stage_given_a_list_of_batches_names_what_it_got(bundle, tmp_path):
    batch = bundle.tile_predictions
    slices = _file_slices(tmp_path / "tiles.ndjson", batch, 64)
    with pytest.raises(InvariantViolation, match=r"^stage input holds a TileBatch, not a TilePrediction$"):
        validate_grid([batch], GridSpec(3, 3))
    with pytest.raises(InvariantViolation, match=r"^stage input holds a TileBatch, not a TilePrediction$"):
        image_probability_vectors(slices, len(bundle.catalog))
    with pytest.raises(InvariantViolation, match=r"^stage input holds a str, not a TilePrediction$"):
        image_probability_vectors(list(batch.tiles(0, 2)) + ["tile"], len(bundle.catalog))


def _file_slices(path, batch, chunk):
    """``batch`` written to the tile file ``path`` and read back in the slices
    ``io.tile_slices`` cuts with ``chunk`` as ``CHUNK_ENTRIES``. Each image of
    ``bundle`` holds 27 entries: at 1 a slice holds one image, at 45 seven, at 64 ten."""
    write_tile_predictions(path, batch)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fbatch, "CHUNK_ENTRIES", chunk)
        return list(tile_slices(path))


@pytest.mark.parametrize("k", [1, 3, 5])  # k=5: clusters with no image keep the uniform row
def test_prior_sums_equal_the_dense_estimate_exactly(bundle, tmp_path, k):
    batch, n_species = bundle.tile_predictions, len(bundle.catalog)
    n = len(batch.image_ids)
    cluster_of_image = {image_id: (c * 7 + n) % min(k, 3) for n, (image_id, c) in
                        enumerate(zip(bundle.quadrat_ids, bundle.cluster_labels))}
    ids, vectors = image_probability_vectors(batch, n_species)
    expected = estimate_priors(vectors, [cluster_of_image[i] for i in ids], k, epsilon=1e-6, n_species=n_species)
    sevens, singles = (_file_slices(tmp_path / "tiles.ndjson", batch, chunk) for chunk in (45, 1))
    assert [len(view.image_ids) for view in sevens] == [7, 7, n - 14] and len(singles) == n
    for slices in ([batch], sevens, singles):
        sums = PriorSums(cluster_of_image, n_species, k, 1e-6)
        for view in slices:
            sums.add(view)
        assert np.array_equal(sums.priors().priors, expected.priors)


def test_prior_sums_raise_the_first_failure_of_the_first_failing_slice(bundle, tmp_path, monkeypatch):
    batch, n_species = bundle.tile_predictions, len(bundle.catalog)
    ids = batch.image_ids
    singles, tens = (_file_slices(tmp_path / "tiles.ndjson", batch, chunk) for chunk in (1, 64))
    assert len(singles) == len(ids) and [view.image_ids for view in tens] == [ids[:10], ids[10:]]

    def failures(cluster_of_image):
        """The errors of the sums built from ``cluster_of_image``, then fed the
        whole batch, and of the same fed one-image slices."""
        seen = []
        for slices in ([batch], singles):
            with pytest.raises((InputError, InvariantViolation)) as exc:
                sums = PriorSums(cluster_of_image, n_species, 2, 1e-6)
                for view in slices:
                    sums.add(view)
            seen.append((exc.type.__name__, str(exc.value)))
        return seen

    assigned = dict.fromkeys(ids, 0)
    outside = dict(assigned, **{ids[0]: 7})
    assert failures(outside) == [("InputError", "assignment 7 outside clusters 0..1")] * 2
    # every assignment is checked as the sums are built, ahead of the images without a cluster
    unassigned = {i: c for i, c in outside.items() if i not in ids[8:]}
    assert failures(unassigned) == [("InputError", "assignment 7 outside clusters 0..1")] * 2
    unassigned = {i: c for i, c in assigned.items() if i not in ids[8:]}
    assert failures(unassigned) == [("InputError", f"no cluster assignment for predicted image(s): {ids[8:13]!r}"),
                                    ("InputError", f"no cluster assignment for predicted image(s): {ids[8:9]!r}")]
    sums = PriorSums(dict.fromkeys(ids[:8], 0), n_species, 2, 1e-6)
    with pytest.raises(InputError, match=r"^no cluster assignment for predicted image\(s\): ") as exc:
        for view in tens:
            sums.add(view)
    assert str(exc.value).endswith(f": {ids[8:10]!r}")  # the failing slice's images only

    def skewed(tiles, n):  # the vector of image 9 sums to 2
        image_ids, vectors = image_probability_vectors(tiles, n)
        vectors[[image_id == ids[9] for image_id in image_ids]] *= 2
        return image_ids, vectors

    monkeypatch.setattr(pipeline, "image_probability_vectors", skewed)
    for kind, message in failures(assigned):
        assert kind == "InvariantViolation" and message.startswith("image vector 9 sums to ")
    # the last image's cluster is checked before any slice is added
    assert failures(dict(assigned, **{ids[-1]: -1})) == [("InputError", "assignment -1 outside clusters 0..1")] * 2


def test_prior_sums_memory_is_set_by_k_species_and_a_slice(tmp_path):
    batch = generate(SynthSpec(n_images=120, n_species=4000), seed=5).tile_predictions
    k, n_species = 3, 4000
    cluster_of_image = {image_id: n % k for n, image_id in enumerate(batch.image_ids)}
    slices = _file_slices(tmp_path / "tiles.ndjson", batch, 1)  # one image per slice: each holds >= 48 entries
    assert len(slices) == len(batch.image_ids)
    tracemalloc.start()
    try:
        sums = PriorSums(cluster_of_image, n_species, k, 1e-6)
        for view in slices:
            sums.add(view)
        sums.priors()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the dense images x species matrix alone takes 120 * 4000 * 8 B
    assert peak < 4 * k * n_species * 8, peak


def test_image_probability_vectors_index_bound():
    grouped = group_by_image([_tp("img", 0, 0, [(7, 1.0)])])
    with pytest.raises(InputError, match="exceeds catalog size"):
        image_probability_vectors(grouped, 3)


def _mask_of(size, allowed_idx):
    bits = np.zeros(size, dtype=bool)
    bits[list(allowed_idx)] = True
    return SpeciesMask(allowed=bits)


def test_apply_geo_mask_drops_emptied_tiles():
    grouped = group_by_image([
        _tp("a", 0, 0, [(0, 0.6), (1, 0.4)]),
        _tp("a", 0, 1, [(1, 1.0)]),  # fully masked away
    ])
    out = apply_geo_mask(grouped, _mask_of(2, [0]))
    assert [t.col for t in out["a"]] == [0]
    assert out["a"][0].probs == [(0, 1.0)]


def test_apply_geo_mask_all_tiles_empty_is_fatal():
    grouped = group_by_image([_tp("a", 0, 0, [(1, 1.0)])])
    with pytest.raises(InputError, match="every tile of 'a'"):
        apply_geo_mask(grouped, _mask_of(2, [0]))


def test_apply_priors_checks_the_region_map_before_any_tile():
    priors = ClusterPriors(np.array([[0.0, 0.5, 0.5]]))
    registry = RegionRegistry(regions=("a", "b"))
    tiles = [_tp("a0", 0, 0, [(0, 0.5)]), _tp("b1", 0, 0, [(1, 0.5)])]
    # a zero-mass tile of image a0, before or after image b1, whose region names cluster 3
    for ordered in (tiles, tiles[::-1]):
        with pytest.raises(InputError, match=r"^region 'b' maps to cluster 3; priors have rows 0\.\.0$"):
            apply_priors(group_by_image(ordered), priors, {"a": 0, "b": 3}, registry)
    with pytest.raises(InputError, match=r"^region 'b' maps to cluster -1; priors have rows 0\.\.0$"):
        apply_priors(group_by_image(tiles[1:]), priors, {"b": -1}, registry)
    # and a region of the map that no image of the batch is in
    with pytest.raises(InputError, match=r"^region 'b' maps to cluster 3; priors have rows 0\.\.0$"):
        apply_priors(group_by_image([_tp("a0", 0, 0, [(1, 0.5)])]), priors, {"a": 0, "b": 3}, registry)
    with pytest.raises(InvariantViolation, match="reweighted mass is zero"):
        apply_priors(group_by_image(tiles[:1]), priors, {"a": 0, "b": 0}, registry)


def test_aggregate_thread_count_invariance(bundle):
    grouped = group_by_image(bundle.tile_predictions)
    one = aggregate_predictions(grouped, bundle.catalog, 5, 2, 10, threads=1)
    four = aggregate_predictions(grouped, bundle.catalog, 5, 2, 10, threads=4)
    assert one == four
    assert [r.quadrat_id for r in one] == sorted(grouped)


def test_uniform_priors_leave_submission_unchanged(bundle):
    grouped = group_by_image(bundle.tile_predictions)
    uniform = ClusterPriors(np.full((1, len(bundle.catalog)), 1.0 / len(bundle.catalog)))
    region_map = {region: 0 for region in bundle.registry}
    reweighted = apply_priors(grouped, uniform, region_map, bundle.registry)
    before = aggregate_predictions(grouped, bundle.catalog, 9, 2, 10)
    after = aggregate_predictions(reweighted, bundle.catalog, 9, 2, 10)
    assert before == after


def test_run_baseline_constant_rows(fixture_dir, tmp_path):
    cfg = RunConfig(
        catalog_path=str(fixture_dir / "catalog.csv"),
        predictions_path=str(fixture_dir / "tile_predictions.ndjson"),
        out_dir=str(tmp_path / "out"),
        mode="baseline",
        baseline_k=5,
        training_counts_path=str(fixture_dir / "training_counts.csv"),
        truth_path=str(fixture_dir / "truth.csv"),
    )
    result = run(cfg)
    assert len(result.submission) == SPEC.n_images
    first = result.submission[0].species_ids
    assert len(first) == 5
    assert all(row.species_ids == first for row in result.submission)
    assert result.report is not None


def test_run_twice_byte_identical(fixture_dir, tmp_path):
    paths = []
    for name in ("one", "two"):
        cfg = _tiling_config(fixture_dir, tmp_path / name, seed=42)
        paths.append(run(cfg).submission_path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_run_tiling_writes_outputs(fixture_dir, tmp_path):
    out = tmp_path / "out"
    result = run(_tiling_config(fixture_dir, out))
    assert (out / "submission.csv").exists()
    assert (out / "score_report.json").exists()
    rows = read_submission(out / "submission.csv")
    assert rows == result.submission
    assert result.report.final > 0.5  # tiling mode should do well on the fixture


def test_run_geo_excludes_masked_species(fixture_dir, bundle, tmp_path):
    geo = GeoOptions(
        enabled=True,
        observations_path=str(fixture_dir / "observations.csv"),
        regions_path=str(fixture_dir / "geo_regions.json"),
    )
    mask = compute_geo_mask(geo, bundle.catalog)
    disallowed = {sid for sid, allowed in zip(bundle.catalog.species_ids, mask.allowed) if not allowed}
    assert disallowed, "fixture should mask out the offshore species"

    result = run(_tiling_config(fixture_dir, tmp_path / "geo", geo=geo))
    predicted = {s for row in result.submission for s in row.species_ids}
    assert predicted.isdisjoint(disallowed)


def test_run_priors_with_intermediates(fixture_dir, tmp_path):
    out = tmp_path / "pri"
    cfg = _tiling_config(
        fixture_dir,
        out,
        registry_path=str(fixture_dir / "regions.txt"),
        priors=PriorsOptions(
            enabled=True, k=2, embeddings_path=str(fixture_dir / "embeddings.ndjson")
        ),
        keep_intermediates=True,
    )
    result = run(cfg)
    for name in ("projection.csv", "assignments.csv", "region_clusters.csv", "priors.ndjson",
                 "reweighted_predictions.ndjson", "submission.csv", "score_report.json"):
        assert (out / name).exists(), name
    assert result.report.final > 0.5


def test_run_priors_checks_epsilon_before_any_side_input(fixture_dir, tmp_path, monkeypatch):
    def never(*args):
        raise AssertionError("read or projected before the epsilon check")

    for name in ("read_region_registry", "read_embeddings", "fit", "compute_geo_mask"):
        monkeypatch.setattr(pipeline, name, never)
    geo = GeoOptions(enabled=True, observations_path=str(fixture_dir / "observations.csv"),
                     regions_path=str(fixture_dir / "geo_regions.json"))
    cfg = _tiling_config(
        fixture_dir, tmp_path / "eps", geo=geo, registry_path=str(fixture_dir / "regions.txt"),
        priors=PriorsOptions(enabled=True, k=2, embeddings_path=str(fixture_dir / "embeddings.ndjson"),
                             epsilon=1e307),
    )
    with pytest.raises(InputError, match=r"^priors epsilon 1e\+307 is too large for 40 species"):
        run(cfg)
    assert not (tmp_path / "eps").exists()


def test_score_submission_matches_direct_call(fixture_dir, tmp_path):
    result = run(_tiling_config(fixture_dir, tmp_path / "s"))
    report = score_submission(result.submission, str(fixture_dir / "truth.csv"))
    assert report.final == result.report.final


def _warned(fn, *args):
    """``(result, [(category, text)])`` of ``fn(*args)``, every warning recorded."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [(w.category, str(w.message)) for w in caught]


def _whole_set_score(predictions, truth):
    """Per-image, per-transect and final scores as the scorer gave them when
    it held every truth set: image F1 in quadrat-id order, each transect
    summed in that order."""
    per_image = {q: image_f1(predictions.get(q, ()), truth.truth[q]) for q in sorted(truth.truth)}
    grouped = {}
    for q, f1 in per_image.items():
        grouped.setdefault(truth.transects[q], []).append(f1)
    per_transect = {t: sum(scores) / len(scores) for t, scores in sorted(grouped.items())}
    return list(per_image.items()), list(per_transect.items()), sum(per_transect.values()) / len(per_transect)


_QUADRATS = st.text(alphabet="ab-1", min_size=1, max_size=4)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    truth=st.dictionaries(
        _QUADRATS,
        st.tuples(st.sampled_from(["", "T1", "T2"]), st.frozensets(st.integers(0, 5), max_size=3)),
        min_size=1,
        max_size=12,
    ),
    predicted=st.dictionaries(_QUADRATS, st.frozensets(st.integers(0, 5), min_size=1, max_size=3), max_size=12),
    overrides=st.none() | st.dictionaries(_QUADRATS, st.sampled_from(["T2", "T3"]), max_size=4),
)
# F1s 1/6, 2/9, 1/6 in file order: summed in file order rather than quadrat-id
# order, the transect mean differs in its last bit
@example(
    truth={q: ("T1", frozenset(range(6))) for q in "acb"},
    predicted={"a": frozenset({0, 6, 7, 8, 9, 10}), "b": frozenset({0, 6, 7, 8, 9, 10}), "c": frozenset({0, 6, 7})},
    overrides=None,
)
def test_streamed_score_equals_final_score_of_the_read_truth(tmp_path, truth, predicted, overrides):
    """Empty transect fields, overrides, missing and unknown quadrats score
    the same streamed from the file as scored whole, as a ``GroundTruth``
    of the file's rows."""
    path = tmp_path / "truth.csv"
    write_ground_truth(path, GroundTruth(
        truth={q: species for q, (_, species) in truth.items()},
        transects={q: transect for q, (transect, _) in truth.items()},
    ))
    rows = [SubmissionRow(q, tuple(sorted(species))) for q, species in predicted.items()]
    predictions, truth_rows = {r.quadrat_id: r.species_ids for r in rows}, list(ground_truth_rows(path, overrides))
    read_truth = GroundTruth(truth={q: species for q, _, species in truth_rows},
                             transects={q: t for q, t, _ in truth_rows})
    streamed, streamed_warnings = _warned(score_submission, rows, str(path), overrides)
    expected, expected_warnings = _warned(final_score, predictions, read_truth)
    assert (list(streamed.per_image.items()), list(streamed.per_transect.items()), streamed.final) == (
        _whole_set_score(predictions, read_truth)
    )
    assert streamed.final == expected.final
    assert list(streamed.per_image.items()) == list(expected.per_image.items())
    assert list(streamed.per_transect.items()) == list(expected.per_transect.items())
    assert list(streamed.transect_sizes.items()) == list(expected.transect_sizes.items())
    assert streamed.n_transects == expected.n_transects
    assert streamed.missing_predictions == expected.missing_predictions
    assert streamed.unknown_predictions == expected.unknown_predictions
    assert streamed_warnings == expected_warnings


def test_score_submission_holds_no_truth_set_per_quadrat(tmp_path):
    n = 5000
    path = tmp_path / "truth.csv"
    path.write_text("quadrat_id,transect_id,species_ids\n" + "".join(
        f"Q{i:05d},{'' if i % 2 else f'T{i // 25}'},{' '.join(str(1300000 + (i * 7 + j) % 2000) for j in range(1 + i % 8))}\n"
        for i in range(n)
    ))
    rows = [SubmissionRow(f"Q{i:05d}", (1300000 + i % 2000, 1400000)) for i in range(n)]
    tracemalloc.start()
    try:
        report = score_submission(rows, str(path))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.per_image) == n
    assert peak - held < sys.getsizeof(frozenset()) * n  # below one empty set per quadrat


def test_stream_raises_the_first_failure_and_reads_no_further():
    calls, closed = [], []

    def stage(name, fails_at):
        def fn(view):
            calls.append((name, view))
            if view == fails_at:
                raise InputError(f"{name} at slice {view}")
        return fn

    def slices(n, unreadable_at=None):
        try:
            for view in range(1, n + 1):
                if view == unreadable_at:
                    raise InputError("unreadable line")
                calls.append(("read", view))
                yield view
        finally:
            closed.append(n)

    stages = [stage("a", fails_at=3), stage("b", fails_at=2), False, stage("c", fails_at=None)]
    with pytest.raises(InputError, match="^b at slice 2$"):  # an earlier slice beats an earlier stage
        stream(slices(4), stages)
    assert calls == [("read", 1), ("a", 1), ("b", 1), ("c", 1), ("read", 2), ("a", 2), ("b", 2)]
    assert closed == [4]
    calls.clear()
    with pytest.raises(InputError, match="^unreadable line$"):  # a failing read raises at once
        stream(slices(4, unreadable_at=2), [stage("a", fails_at=3)])
    assert calls == [("read", 1), ("a", 1)]
    calls.clear()
    stream(slices(2), [stage("a", fails_at=None), stage("b", fails_at=None)])  # None passes the slice on
    assert calls == [("read", 1), ("a", 1), ("b", 1), ("read", 2), ("a", 2), ("b", 2)] and closed == [4, 4, 2]
