"""Deterministic synthetic dataset generator for end-to-end pipeline tests.

The generated world mirrors the deployment domain shift the pipeline is
built for: every tile of a quadrat image is dominated by a single species,
while the quadrat as a whole carries a multi-species label set. Species are
organised into per-region pools, region identity is recoverable from the
embedding geometry (one Gaussian blob per region), and a tunable noise knob
injects three calibrated error mechanisms:

* smear: probability mass leaks from each tile's dominant species into
  junk species that never repeat within an image, so they stay below the
  vote threshold;
* confusers: per-image vagrant species planted in enough tiles to pass the
  vote threshold, producing controlled false positives;
* misses: a truth species is occasionally starved down to a single tile,
  producing controlled false negatives.

At noise 0 every mechanism is off and a tiling-mode run recovers the exact
ground truth. The full-image (1x1 grid) prediction is generated with a
weaker truth-to-junk mass ratio, so aggregating tiles beats the single
full-image vector, which in turn beats the frequency baseline.
"""

from __future__ import annotations

import json
import string
from dataclasses import asdict, dataclass, field
from itertools import filterfalse
from pathlib import Path
from typing import Dict, List

import numpy as np

from .batch import TileBatch, first
from .catalog import RegionRegistry, SpeciesCatalog
from .errors import InputError, InvariantViolation
from .geo import DEFAULT_REFERENCE_POINT, GeoRegion, Observation
from .metrics import GroundTruth
from .projection import MAX_SQ_NORM, EmbeddingMatrix
from . import io as fio

# Mass kept by a tile's dominant species is 1 - SMEAR_SCALE * noise.
SMEAR_SCALE = 0.3
# Confusers per image at noise 1; SynthSpec.n_confusers scales it by noise and rounds.
CONFUSER_SCALE = 2.0
# Tiles planted per confuser; two are enough to pass the default vote gate.
CONFUSER_TILES = 2
# Probability that one truth species is starved to a single tile.
MISS_SCALE = 0.6
# Truth mass share of the full-image vector is IMG_TRUTH_BASE - IMG_TRUTH_DROP * noise.
IMG_TRUTH_BASE = 0.55
IMG_TRUTH_DROP = 0.25
# Sparse support of the full-image record.
IMG_SUPPORT = 20
# Half the largest row norm EmbeddingMatrix takes; a row's unit-variance noise needs far less than the other half.
_MAX_SEPARATION = MAX_SQ_NORM ** 0.5 / 2

_LAND_POLYGON = ((42.0, 0.0), (47.0, 0.0), (47.0, 8.0), (42.0, 8.0))

# Each bundle file and its writer, in the manifest's order; ``write_bundle`` writes them all.
BUNDLE_FILES = {
    "catalog.csv": lambda path, b: fio.write_catalog(path, b.catalog),
    "regions.txt": lambda path, b: fio.write_region_registry(path, b.registry),
    "geo_regions.json": lambda path, b: fio.write_geo_regions(path, b.geo_regions),
    "observations.csv": lambda path, b: fio.write_observations(path, b.observations),
    "training_counts.csv": lambda path, b: fio.write_training_counts(path, b.training_counts),
    "embeddings.ndjson": lambda path, b: fio.write_embeddings(path, b.embeddings),
    "tile_predictions.ndjson": lambda path, b: fio.write_tile_predictions(path, b.tile_predictions),
    "image_predictions.ndjson": lambda path, b: fio.write_tile_predictions(path, b.image_predictions),
    "truth.csv": lambda path, b: fio.write_ground_truth(path, b.truth),
    "labels.csv": lambda path, b: fio.write_assignments(path, b.quadrat_ids, b.cluster_labels),
}


@dataclass(frozen=True)
class SynthSpec:
    """Generator parameters; see the acceptance fixture for the defaults."""

    n_images: int = 100
    grid_rows: int = 4
    grid_cols: int = 4
    n_species: int = 50
    n_clusters: int = 3
    noise: float = 0.5
    separation: float = 8.0
    embed_dim: int = 64
    transect_size: int = 8

    def __post_init__(self):
        if self.n_images < 2:  # the projection needs two embeddings
            raise InputError("n_images must be >= 2")
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise InputError("grid must be at least 1x1")
        if not (0.0 <= self.noise <= 1.0):
            raise InputError(f"noise must lie in [0, 1], got {self.noise}")
        if not np.isfinite(self.separation):
            raise InputError(f"separation must be finite, got {self.separation}")
        if abs(self.separation) > _MAX_SEPARATION:
            raise InputError(f"separation must lie within +/-{_MAX_SEPARATION:.4g}, got {self.separation}")
        if self.n_clusters < 1 or self.n_clusters > 26:
            raise InputError("n_clusters must lie in 1..26")
        if self.n_clusters > self.embed_dim:
            raise InputError("need embed_dim >= n_clusters for blob placement")
        if self.transect_size < 1:
            raise InputError("transect_size must be >= 1")
        if self.n_tiles < 6:
            raise InputError("need at least 6 tiles so every truth species gets two")
        worst_truth = self.max_truth_species
        need = worst_truth + self.n_confusers + 2 * self.n_tiles  # two junk species per tile at worst
        if self.n_species < need:
            raise InputError(f"n_species={self.n_species} too small: need >= {need} for unique junk species")
        pool_size = (self.n_species - self.n_vagrant) // self.n_clusters
        if pool_size < worst_truth:
            raise InputError("species pools too small for the truth-set size range")

    @property
    def n_tiles(self) -> int:
        return self.grid_rows * self.grid_cols

    @property
    def max_truth_species(self) -> int:
        return min(6, self.n_tiles // 2)

    @property
    def min_truth_species(self) -> int:
        return min(3, self.max_truth_species)

    @property
    def n_confusers(self) -> int:
        return int(round(CONFUSER_SCALE * self.noise))

    @property
    def n_vagrant(self) -> int:
        return max(self.n_confusers + 1, self.n_species // 4)


@dataclass
class SynthBundle:
    """In-memory synthetic dataset; ``write_bundle`` serializes it."""

    catalog: SpeciesCatalog
    registry: RegionRegistry
    training_counts: Dict[int, int]
    quadrat_ids: List[str]
    cluster_labels: List[int]
    truth: GroundTruth
    embeddings: EmbeddingMatrix
    tile_predictions: TileBatch
    image_predictions: TileBatch
    observations: List[Observation]
    geo_regions: List[GeoRegion]
    manifest: dict = field(default_factory=dict)


def _region_names(n: int) -> List[str]:
    return [f"SYN-{letter}{letter}" for letter in string.ascii_uppercase[:n]]


def _allocate_tiles(rng, n_tiles: int, truth: List[int], missed: int | None) -> List[int]:
    """One dominant species per tile; every non-missed species gets >= 2 tiles."""
    counts = {s: 1 for s in truth}
    active = [s for s in truth if s != missed]
    base, extra = divmod(n_tiles - len(truth), len(active))
    order = rng.permutation(len(active))
    for pos, idx in enumerate(order.tolist()):
        counts[active[idx]] += base + (1 if pos < extra else 0)
    assignment = [s for s, c in counts.items() for _ in range(c)]
    rng.shuffle(assignment)
    return assignment


def _checked(batch: TileBatch) -> TileBatch:
    """``batch``, after proving that no tile check hits a tile of it."""
    t = first(batch.invalid_tiles())
    if t is not None:
        raise InvariantViolation(f"synth built an invalid tile: {batch.fault(t)}")
    return batch


def generate(spec: SynthSpec, seed: int) -> SynthBundle:
    """Build the full bundle from one seeded RNG; same seed, same bundle."""
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    smear = SMEAR_SCALE * spec.noise
    n_confusers = spec.n_confusers
    miss_rate = MISS_SCALE * spec.noise
    n_tiles = spec.n_tiles

    species_ids = [101 + 7 * i for i in range(spec.n_species)]
    catalog = SpeciesCatalog(species_ids)

    shuffled = rng.permutation(spec.n_species)
    vagrants = np.sort(shuffled[: spec.n_vagrant])
    pooled = shuffled[spec.n_vagrant :]
    pools = [np.sort(pooled[c :: spec.n_clusters]) for c in range(spec.n_clusters)]

    freq_rank = np.argsort(rng.permutation(spec.n_species)).tolist()
    training_counts = {sid: max(1, 2000 // (rank + 1)) for sid, rank in zip(species_ids, freq_rank)}

    region_names = _region_names(spec.n_clusters)
    registry = RegionRegistry(regions=tuple(region_names))

    quadrat_ids: List[str] = []
    truth_sets: Dict[str, frozenset] = {}
    transects: Dict[str, str] = {}
    embeddings = np.empty((spec.n_images, spec.embed_dim))
    # Tile entry columns; every tile carries the same probabilities, in rank order.
    tile_idx: List[int] = []
    tile_prob = [1.0] if smear == 0.0 else [1.0 - smear, 0.6 * smear, 0.4 * smear]
    # Full-image entry columns, one image per element.
    img_idx: List[np.ndarray] = []
    img_prob: List[np.ndarray] = []

    lo = spec.min_truth_species
    hi = spec.max_truth_species
    # the truth and junk Dirichlet concentrations of the full-image vector, by truth-set size
    alphas = {n: (np.full(n, 8.0), np.full(min(25, spec.n_species - n), 1.5)) for n in range(lo, hi + 1)}
    for i in range(spec.n_images):
        c = i % spec.n_clusters
        transect = f"{region_names[c]}-T{i // spec.n_clusters // spec.transect_size:02d}"
        quadrat_id = f"{transect}-Q{i:04d}"
        quadrat_ids.append(quadrat_id)
        transects[quadrat_id] = transect

        embeddings[i] = rng.normal(0.0, 1.0, spec.embed_dim)
        embeddings[i, c] += spec.separation

        n_truth = int(rng.integers(lo, hi + 1))
        truth_dense = rng.choice(pools[c], size=n_truth, replace=False)
        truth = truth_dense.tolist()
        truth_sets[quadrat_id] = frozenset(species_ids[s] for s in truth)
        free = np.ones(spec.n_species, dtype=bool)
        free[truth_dense] = False

        missed = None
        if n_truth > lo and rng.random() < miss_rate:
            missed = truth[rng.integers(n_truth)]

        dominants = _allocate_tiles(rng, n_tiles, truth, missed)

        confusers: List[int] = []
        flip_tiles: Dict[int, int] = {}
        if n_confusers:
            confusers = rng.choice(vagrants[free[vagrants]], size=n_confusers, replace=False).tolist()
            chosen = rng.choice(n_tiles, size=min(n_tiles, CONFUSER_TILES * n_confusers), replace=False)
            for pos, tile in enumerate(chosen.tolist()):
                flip_tiles[tile] = confusers[pos % n_confusers]

        blocked = set(truth).union(confusers)
        junk = filterfalse(blocked.__contains__, rng.permutation(spec.n_species).tolist()).__next__

        for tile, dom in enumerate(dominants):
            if smear == 0.0:
                tile_idx.append(dom)
            elif tile in flip_tiles:
                tile_idx += (flip_tiles[tile], dom, junk())
            else:
                tile_idx += (dom, junk(), junk())

        truth_share = IMG_TRUTH_BASE - IMG_TRUTH_DROP * spec.noise
        truth_alpha, junk_alpha = alphas[n_truth]
        truth_w = truth_share * rng.dirichlet(truth_alpha)
        junk_species = rng.choice(np.flatnonzero(free), size=junk_alpha.shape[0], replace=False)
        junk_w = (1.0 - truth_share) * rng.dirichlet(junk_alpha)
        idx = np.concatenate((truth_dense, junk_species))
        prob = np.concatenate((truth_w, junk_w))
        top = np.lexsort((idx, -prob))[:IMG_SUPPORT]
        img_idx.append(idx[top])
        img_prob.append(prob[top])

    n_all = spec.n_images * n_tiles
    rows, cols = np.divmod(np.arange(n_tiles), spec.grid_cols)
    tile_preds = _checked(TileBatch.from_columns(
        quadrat_ids,
        np.repeat(np.arange(spec.n_images), n_tiles),
        np.tile(rows, spec.n_images),
        np.tile(cols, spec.n_images),
        np.ones(n_all, dtype=bool),
        np.full(n_all, len(tile_prob)),
        tile_idx,
        np.tile(tile_prob, n_all),
    ))
    image_preds = _checked(TileBatch.from_columns(
        quadrat_ids,
        np.arange(spec.n_images),
        np.zeros(spec.n_images),
        np.zeros(spec.n_images),
        np.zeros(spec.n_images, dtype=bool),
        [a.shape[0] for a in img_idx],
        np.concatenate(img_idx),
        np.concatenate(img_prob),
    ))

    observations: List[Observation] = []
    offshore_set = set(vagrants[1::2].tolist())
    for dense, sid in enumerate(species_ids):
        lats, lons = ((50.0, 60.0), (20.0, 30.0)) if dense in offshore_set else ((42.5, 46.5), (0.5, 7.5))
        for _ in range(1 + int(rng.integers(0, 3))):
            observations.append(Observation(species_id=sid, lat=float(rng.uniform(*lats)), lon=float(rng.uniform(*lons))))

    geo_regions = [GeoRegion(name="SYN-LAND", polygon=_LAND_POLYGON)]
    truth = GroundTruth(truth=truth_sets, transects=transects)
    emb = EmbeddingMatrix(image_ids=list(quadrat_ids), data=embeddings)

    parameters = asdict(spec)
    parameters["grid"] = f"{parameters.pop('grid_rows')}x{parameters.pop('grid_cols')}"
    manifest = {
        "seed": seed,
        "parameters": parameters,
        "regions": region_names,
        "reference_point": list(DEFAULT_REFERENCE_POINT),
        "files": list(BUNDLE_FILES),
    }

    return SynthBundle(
        catalog=catalog,
        registry=registry,
        training_counts=training_counts,
        quadrat_ids=quadrat_ids,
        cluster_labels=[i % spec.n_clusters for i in range(spec.n_images)],
        truth=truth,
        embeddings=emb,
        tile_predictions=tile_preds,
        image_predictions=image_preds,
        observations=observations,
        geo_regions=geo_regions,
        manifest=manifest,
    )


def write_bundle(bundle: SynthBundle, out_dir) -> Path:
    out = fio._make_dir(out_dir)
    with fio._open_write(out / "manifest.json") as fh:
        json.dump(bundle.manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, write in BUNDLE_FILES.items():
        write(out / name, bundle)
    return out
