"""End-to-end pipeline: predictions in, ranked label sets and scores out.

Three mutually exclusive modes; ``no-tiling`` and ``tiling`` share the vote:

* ``baseline``   predicts the k globally most frequent training species
  for every quadrat (a constant predictor);
* ``no-tiling``  consumes a single full-image prediction per quadrat
  (a 1x1 grid) and keeps its top 20 species;
* ``tiling``     consumes one prediction per grid cell and aggregates
  them by majority vote.

Geolocation masking and cluster-prior reweighting are independent,
composable transforms applied to the prediction stream before voting,
in that order. Every stage is a pure function of its inputs plus the
run seed, so a single-threaded run is bitwise reproducible.

``run`` and the stage commands stream the tile file. ``io.tile_slices``
reads it in slices of whole images, and ``stream`` takes each slice
through a list of stages while the next is still unread, so a command
holds a slice of the input, not all of it. Each stage function works on
the batch it is given in one pass, and every quantity it computes belongs
to one image, so the rows and written bytes are the whole-batch ones. The
slices rely on the tile file's rule that each image's records are
together; the reader rejects a file that breaks it. What a ``--geo`` run
and each stage command hold is set by a slice: ``tests/test_streamed_run.py``
pins it (``test_geo_run_memory_is_set_by_a_slice_not_by_the_input``,
``test_stage_command_memory_is_set_by_a_slice``).

Every run and stage command keeps one order. It reads and checks every
input but the tile file: the catalog, the truth file's header and first
row, the training counts (every species of which must be in the catalog),
the priors' smoothing epsilon against the catalog's size, the geo mask's
observations and regions, and the priors' registry and embeddings, which
it projects and clusters. It then makes ``run``'s ``--out``, streams the
tile file, and writes its outputs last. In the
stream it raises the first failure it meets and reads no further: slice by
slice, stage by stage within a slice (grid, species index, mask apply,
masked file, prior sums, vote), check by check within a stage, and the
first tile within a check. The species index is not a stage of the list:
each stage that looks an index up calls ``check_species_indices`` first.
The vote runs two checks in turn: ``check_species_indices`` against the
catalog, then ``io.check_quadrat_id`` on each image id in file order, so an
id no submission row can hold fails in the stream, not at the write. A
priors run adds each checked and masked slice to the per-cluster sums of
``PriorSums`` and holds it in a list; after the last slice it streams
the list through the reweight and the vote, so the list holds every slice
until the last vote. The rows are then scored, the truth file read one
row at a time, and only then are the intermediates, the submission and
the score report written. A tile file is written slice by slice under a
hidden name and moved into place with the other outputs, so a failed run
leaves no partial file. A run that fails on an input writes nothing; only
a failed write leaves the files written before it.
"""

from __future__ import annotations

from contextlib import ExitStack, closing, contextmanager
from dataclasses import dataclass, field, replace
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .batch import ImageTiles, TileBatch, as_batch, first
from .catalog import RegionRegistry, SpeciesCatalog, load_catalog, parse_region
from .clustering import (
    ClusterPriors,
    check_assignments,
    check_image_vectors,
    check_region_map,
    check_smoothing,
    dominant_cluster,
    kmeans,
    reweight_entries,
    smoothed_priors,
)
from .errors import InputError
from .geo import (
    DEFAULT_REFERENCE_POINT,
    SpeciesMask,
    build_mask,
    nearest_per_species,
    renormalise,
)
from .io import (
    StagedTileFile,
    SubmissionRow,
    _make_dir,
    check_quadrat_id,
    ground_truth_rows,
    read_embeddings,
    read_geo_regions,
    read_observations,
    read_region_registry,
    read_training_counts,
    tile_slices,
    write_assignments,
    write_priors,
    write_projection,
    write_region_cluster_map,
    write_score_report,
    write_species_mask,
    write_submission,
)
from .metrics import ScoreReport, score_rows
from .projection import ProjectorConfig, fit
from .tiling import GridSpec
from .voting import check_vote_settings, naive_baseline, rank_labels, tally_batch

MODES = ("baseline", "no-tiling", "tiling")

# Aggregation presets per mode: (grid, k per tile, min votes, max labels).
# tiling follows the best ablation row (top-9 votes over a 4x4 grid);
# no-tiling keeps the top 20 species of the single full-image vector.
MODE_PRESETS: Dict[str, Tuple[GridSpec, int, int, int]] = {
    "tiling": (GridSpec(4, 4), 9, 2, 10),
    "no-tiling": (GridSpec(1, 1), 20, 1, 20),
}
DEFAULT_BASELINE_K = 10


@dataclass(frozen=True)
class GeoOptions:
    enabled: bool = False
    reference: Tuple[float, float] = DEFAULT_REFERENCE_POINT
    observations_path: Optional[str] = None
    regions_path: Optional[str] = None

    def __post_init__(self):
        lat, lon = self.reference
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):  # also false for NaN
            raise InputError(f"reference ({lat}, {lon}) outside lat [-90, 90], lon [-180, 180]")
        if self.enabled and (self.observations_path is None or self.regions_path is None):
            raise InputError("geo filtering needs --observations and --geo-regions")


@dataclass(frozen=True)
class PriorsOptions:
    enabled: bool = False
    k: int = 3
    epsilon: float = 1e-6
    embeddings_path: Optional[str] = None

    def __post_init__(self):
        if self.k < 1:
            raise InputError("priors k must be >= 1")
        if not 0 < self.epsilon < np.inf:
            raise InputError(f"priors epsilon must be positive and finite, got {self.epsilon}")
        if self.enabled and self.embeddings_path is None:
            raise InputError("prior reweighting needs --embeddings")


@dataclass(frozen=True)
class RunConfig:
    catalog_path: str
    predictions_path: str
    out_dir: str
    mode: str = "tiling"
    grid: Optional[GridSpec] = None
    k_per_tile: Optional[int] = None
    min_votes: Optional[int] = None
    max_labels: Optional[int] = None
    baseline_k: int = DEFAULT_BASELINE_K
    registry_path: Optional[str] = None
    training_counts_path: Optional[str] = None
    truth_path: Optional[str] = None
    geo: GeoOptions = field(default_factory=GeoOptions)
    priors: PriorsOptions = field(default_factory=PriorsOptions)
    seed: int = 42
    threads: int = 1
    keep_intermediates: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise InputError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "baseline":
            if self.baseline_k < 1:
                raise InputError("baseline k must be >= 1")
            if self.geo.enabled or self.priors.enabled:
                raise InputError("geo and priors do not apply to the baseline mode")
            if self.training_counts_path is None:
                raise InputError("baseline mode needs --training-counts")
        if self.priors.enabled and self.registry_path is None:
            raise InputError("prior reweighting needs a region registry")
        if self.threads < 1:
            raise InputError("threads must be >= 1")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        check_vote_settings(self.k_per_tile, self.min_votes, self.max_labels)  # None: the mode preset

    def resolved(self) -> "RunConfig":
        """Fill unset aggregation knobs from the mode preset."""
        if self.mode == "baseline":
            return self
        grid, k, mv, ml = MODE_PRESETS[self.mode]
        return replace(
            self,
            grid=self.grid or grid,
            k_per_tile=self.k_per_tile if self.k_per_tile is not None else k,
            min_votes=self.min_votes if self.min_votes is not None else mv,
            max_labels=self.max_labels if self.max_labels is not None else ml,
        )


@dataclass
class RunResult:
    submission: List[SubmissionRow]
    report: Optional[ScoreReport]
    submission_path: Path
    report_path: Optional[Path]


# --- stage functions (shared by `run` and the per-stage CLI commands) ----

def validate_grid(tiles: TileBatch, grid: GridSpec):
    """Every tile must sit inside the grid; no duplicate cells per image.
    The first bad tile raises; a tile both outside and repeated reports the grid."""
    batch = as_batch(tiles)
    outside = (batch.row >= grid.rows) | (batch.col >= grid.cols)
    cells = np.lexsort((batch.col, batch.row, batch.image))  # stable: a repeat sorts after its first
    keys = np.stack([batch.image, batch.row, batch.col])[:, cells]
    repeated = np.zeros(len(batch), dtype=bool)
    repeated[cells[1:]] = (keys[:, 1:] == keys[:, :-1]).all(axis=0)
    t = first(outside | repeated)
    if t is None:
        return
    row, col, image_id = int(batch.row[t]), int(batch.col[t]), batch.image_ids[batch.image[t]]
    if outside[t]:
        raise InputError(f"tile ({row},{col}) of {image_id!r} outside {grid.rows}x{grid.cols} grid")
    raise InputError(f"duplicate tile ({row},{col}) for {image_id!r}")


def check_species_indices(tiles: TileBatch, n_species: int):
    """The species-index stage: every dense index must lie in ``0..n_species - 1``,
    the width of the table the caller looks it up in (the mask, a prior row or
    the catalog, each one entry per catalog species). The first one outside
    raises; a good batch passes on its ``min()`` and ``max()`` without allocating."""
    batch = as_batch(tiles)
    idx = batch.idx
    if not idx.size or (idx.min() >= 0 and idx.max() < n_species):
        return
    j = first((idx < 0) | (idx >= n_species))
    image_id = batch.image_ids[batch.image[batch.tile_of(j)]]
    raise InputError(f"species index {int(idx[j])} in {image_id!r} exceeds catalog size {n_species}")


def image_probability_vectors(tiles, n_species: int) -> Tuple[List[str], np.ndarray]:
    """Dense per-image distributions: renormalize each tile, then average.

    Tile records are sparse and need not sum to one (a top-k slice does
    not), so each tile is renormalized before entering the mean; the
    resulting rows sum to one exactly as the prior estimator requires.
    """
    batch = as_batch(tiles)
    check_species_indices(batch, n_species)
    n_images, tile = len(batch.image_ids), batch.tile_keys()
    total = np.bincount(tile, weights=batch.prob, minlength=len(batch))
    cells = batch.image[tile] * n_species + batch.idx
    vectors = np.bincount(cells, weights=batch.prob / total[tile], minlength=n_images * n_species)
    vectors = vectors.reshape(n_images, n_species)
    vectors /= np.diff(batch.image_offsets)[:, None]
    return list(batch.image_ids), vectors


class PriorSums:
    """Per-cluster sums of image probability vectors, added slice by slice.

    Each image's vector is added to its cluster's row of a k x S sum in file
    order (``np.add.at``; a bincount over (cluster, species) keys would
    reorder the additions), as ``estimate_priors`` adds the dense rows, so
    ``priors`` gives its bytes while only a slice's vectors are held. It is
    built from the assignments and the smoothing ``epsilon`` before the tile
    file is read, so an ``epsilon`` too large for ``n_species``, then a ``k``
    above the assignments' number, then any cluster outside ``0..k-1``,
    raises first. ``add``,
    a stream stage, raises the first failure of its slice: a species index
    past the catalog, then the first five of its images without a cluster,
    then ``check_image_vectors``'.
    """

    def __init__(self, cluster_of_image: Mapping[str, int], n_species: int, k: int, epsilon: float):
        check_smoothing(epsilon, n_species)
        if k > len(cluster_of_image):
            raise InputError(f"cannot form {k} clusters from {len(cluster_of_image)} assigned images")
        check_assignments(cluster_of_image.values(), k)
        self.cluster_of_image, self.k, self.epsilon, self.n_images = cluster_of_image, k, epsilon, 0
        self.sums, self.counts = np.zeros((k, n_species)), np.zeros(k, dtype=np.int64)

    def add(self, tiles):
        """Add the images of ``tiles``, any stage input, such as a tile file's slice."""
        ids, vectors = image_probability_vectors(tiles, self.sums.shape[1])
        missing = [i for i in ids if i not in self.cluster_of_image]
        if missing:
            raise InputError(f"no cluster assignment for predicted image(s): {missing[:5]}")
        check_image_vectors(vectors, self.n_images)
        self.n_images += len(ids)
        clusters = np.array([self.cluster_of_image[i] for i in ids], dtype=np.int64)
        np.add.at(self.sums, clusters, vectors)
        self.counts += np.bincount(clusters, minlength=self.k)

    def priors(self) -> ClusterPriors:
        return smoothed_priors(self.sums, self.counts, self.epsilon)


def compute_geo_mask(options: GeoOptions, catalog: SpeciesCatalog) -> SpeciesMask:
    observations = read_observations(options.observations_path)
    regions = read_geo_regions(options.regions_path)
    nearest = nearest_per_species(observations, options.reference)
    return build_mask(nearest, regions, catalog)


def apply_geo_mask(tiles: TileBatch, mask: SpeciesMask) -> ImageTiles:
    """Filter every tile through the mask and renormalize; tiles losing all
    species drop out, and an image losing every tile is an input error.

    The batch runs ``check_species_indices`` against the mask first, then
    counts what its tiles keep and raises for the first image the mask
    empties, before it hands ``TileBatch.derive`` the kept entries."""
    batch = as_batch(tiles)
    check_species_indices(batch, mask.allowed.shape[0])
    tile = batch.tile_keys()
    kept = mask.allowed[batch.idx]
    counts = np.bincount(tile, weights=kept, minlength=len(batch))  # exact counts
    emptied = first(np.bincount(batch.image, weights=counts, minlength=len(batch.image_ids)) == 0)
    if emptied is not None:
        raise InputError(f"geolocation mask removed every species of every tile of {batch.image_ids[emptied]!r}")
    prob = renormalise(batch.prob[kept], tile[kept], len(batch))
    return ImageTiles(batch.derive(counts, batch.idx[kept], prob))


def apply_priors(
    tiles: TileBatch,
    priors: ClusterPriors,
    region_map: Mapping[str, int],
    registry: RegionRegistry,
) -> ImageTiles:
    """Reweight every tile by the prior of its region's dominant cluster.

    The checks run in turn, each raising its first failure:
    ``check_region_map``, ``check_species_indices``, the first image whose
    region has no cluster in the map, then ``reweight_entries``' underflow and
    zero mass, and last ``TileBatch.check_prob`` on the new probabilities,
    before ``TileBatch.derive`` takes them."""
    batch = as_batch(tiles)
    check_region_map(region_map, priors.k)
    check_species_indices(batch, priors.n_species)
    clusters = []
    for image_id in batch.image_ids:
        region = parse_region(image_id, registry)
        if region not in region_map:
            raise InputError(f"region {region!r} has no dominant cluster in the map")
        clusters.append(region_map[region])
    weighted = reweight_entries(
        batch.idx, batch.prob, batch.tile_keys(), len(batch), priors.priors,
        np.asarray(clusters, dtype=np.int64)[batch.image],
        lambda t: f"tile ({int(batch.row[t])},{int(batch.col[t])}) of {batch.image_ids[batch.image[t]]!r}",
    )
    batch.check_prob(weighted)
    return ImageTiles(batch.derive(np.diff(batch.offsets), batch.idx, weighted))


def aggregate_predictions(
    tiles: TileBatch,
    catalog: SpeciesCatalog,
    k: int,
    min_votes: int,
    max_labels: int,
    threads: int = 1,
) -> List[SubmissionRow]:
    """One submission row per image, sorted by quadrat id.

    ``tiles`` is one stage input; to vote a tile file's slices in turn, add
    each to one ``Vote``. ``threads`` is accepted for compatibility and has
    no effect.
    """
    check_vote_settings(k, min_votes, max_labels)
    vote = Vote(catalog, k, min_votes, max_labels)
    vote.add(as_batch(tiles))
    return vote.rows()


class Vote:
    """Submission rows voted batch by batch, then sorted at once."""

    def __init__(self, catalog: SpeciesCatalog, k: int, min_votes: int, max_labels: int):
        self.catalog, self.k, self.min_votes, self.max_labels = catalog, k, min_votes, max_labels
        self._rows: List[SubmissionRow] = []

    def add(self, batch: TileBatch):
        """Vote ``batch``, a row per image, once ``check_species_indices``
        passes it against the catalog and ``check_quadrat_id`` each image id.
        The tally and ranking hold about six int64 columns of the batch's
        entries, the most of any pass
        (``test_vote_memory_is_set_by_a_slice_not_by_the_batch``)."""
        check_species_indices(batch, len(self.catalog))
        for q in batch.image_ids:
            check_quadrat_id(q)
        if not batch.image_ids:
            return
        image, idx, votes, mass = tally_batch(batch, self.k)
        chosen = rank_labels(image, idx, votes, mass, self.min_votes, self.max_labels)
        image, idx = image[chosen], idx[chosen]
        species_ids = self.catalog.species_ids
        labels = [species_ids[i] for i in idx.tolist()]
        bounds = np.searchsorted(image, np.arange(len(batch.image_ids) + 1)).tolist()
        # the vote gives every image at least one key, each species once
        self._rows += [SubmissionRow._trusted(q, tuple(labels[bounds[i]:bounds[i + 1]]))
                       for i, q in enumerate(batch.image_ids)]

    def rows(self) -> List[SubmissionRow]:
        """The rows of every batch added, sorted by quadrat id."""
        self._rows.sort(key=attrgetter("quadrat_id"))
        return self._rows


def score_submission(
    rows: Sequence[SubmissionRow], truth_path: str, transect_map: Optional[Mapping[str, str]] = None
) -> ScoreReport:
    """Score ``rows`` against the truth file, read one row at a time, so no
    truth set outlives its row."""
    predictions = {row.quadrat_id: row.species_ids for row in rows}
    return score_rows(predictions, ground_truth_rows(truth_path, transect_map))


# --- the one-shot runner -------------------------------------------------

def stream(slices, stages):
    """Take each of ``slices`` through ``stages`` in turn, then close ``slices``.

    ``fn(slice)`` of each stage returns the batch the next stage takes; a
    return that is not a ``TileBatch`` passes its slice on, and a false entry
    is a stage left out. The first failure, of a read or of a stage, is
    raised at once, so no later slice is read.
    """
    with closing(slices):
        for view in slices:
            for fn in filter(None, stages):
                out = fn(view)
                view = out if isinstance(out, TileBatch) else view


@contextmanager
def _tiled_rows(config: RunConfig, catalog: SpeciesCatalog):
    """The submission rows of a tiling or no-tiling run, in the module
    docstring's order: the geo mask and the priors' clusters, then ``--out``
    made and the tile file streamed, then the held slices' reweight. The
    intermediates are written, and the staged tile files committed, as the
    ``with`` block ends without error."""
    keep, geo, with_priors = config.keep_intermediates, config.geo.enabled, config.priors.enabled
    vote = Vote(catalog, config.k_per_tile, config.min_votes, config.max_labels)
    if with_priors:  # a flag checked against the catalog, before any side input is read
        check_smoothing(config.priors.epsilon, len(catalog))
    mask = compute_geo_mask(config.geo, catalog) if geo else None
    if with_priors:
        registry = read_region_registry(config.registry_path)
        embeddings = read_embeddings(config.priors.embeddings_path)
        projection = fit(embeddings, ProjectorConfig(seed=config.seed))
        model = kmeans(projection.points, config.priors.k, seed=config.seed)
        region_map = dominant_cluster(model.assignments, [parse_region(i, registry) for i in embeddings.image_ids])
        sums = PriorSums(dict(zip(embeddings.image_ids, model.assignments.tolist())), len(catalog),
                         config.priors.k, config.priors.epsilon)
    out_dir, held = _make_dir(config.out_dir), []  # --out, once every side input has passed
    with StagedTileFile(out_dir / "masked_predictions.ndjson") as masked, \
            StagedTileFile(out_dir / "reweighted_predictions.ndjson") as reweighted:
        stream(tile_slices(config.predictions_path), [
            lambda view: validate_grid(view, config.grid),
            geo and (lambda view: apply_geo_mask(view, mask).batch),
            geo and keep and masked.write,
            with_priors and sums.add,
            held.append if with_priors else vote.add,
        ])
        if with_priors:
            priors = sums.priors()
            for view in held:
                view = apply_priors(view, priors, region_map, registry).batch
                if keep:
                    reweighted.write(view)
                vote.add(view)
        yield vote.rows()
        if geo and keep:
            write_species_mask(out_dir / "mask.csv", mask, catalog)
            masked.commit()
        if with_priors and keep:
            write_projection(out_dir / "projection.csv", projection)
            write_assignments(out_dir / "assignments.csv", embeddings.image_ids, model.assignments)
            write_region_cluster_map(out_dir / "region_clusters.csv", region_map)
            write_priors(out_dir / "priors.ndjson", priors)
            reweighted.commit()


def run(config: RunConfig) -> RunResult:
    config = config.resolved()
    catalog = load_catalog(config.catalog_path)
    report = report_path = None
    with ExitStack() as inputs:
        if config.truth_path:  # the file opens, and its header and first row pass, before the tile file is read
            truth = inputs.enter_context(closing(ground_truth_rows(config.truth_path)))
            truth = chain([next(truth)], truth)
        if config.mode == "baseline":
            counts = read_training_counts(config.training_counts_path)
            unknown = next((sid for sid in counts if sid not in catalog), None)
            if unknown is not None:
                raise InputError(
                    f"{config.training_counts_path}: species_id {unknown} not in catalog {config.catalog_path}")
            labels = tuple(naive_baseline(counts, config.baseline_k))
            _make_dir(config.out_dir)
            with closing(tile_slices(config.predictions_path)) as slices:
                quadrats = sorted(image_id for view in slices for image_id in view.image_ids)
            rows = [SubmissionRow(quadrat_id=q, species_ids=labels) for q in quadrats]
        else:
            rows = inputs.enter_context(_tiled_rows(config, catalog))
        if config.truth_path:
            report = score_rows({row.quadrat_id: row.species_ids for row in rows}, truth)

    submission_path = Path(config.out_dir) / "submission.csv"
    write_submission(submission_path, rows)
    if report is not None:
        report_path = Path(config.out_dir) / "score_report.json"
        write_score_report(report_path, report)

    return RunResult(
        submission=rows, report=report, submission_path=submission_path, report_path=report_path
    )
