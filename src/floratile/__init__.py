"""Training-free multi-label plant identification toolkit.

The library turns per-tile classifier outputs into quadrat-level species
lists: balanced image tiling, top-k majority voting, geolocation species
masks, 2-D embedding projection with k-means cluster priors, Bayesian
reweighting, and two-level macro-F1 evaluation.
"""

from .batch import TileBatch
from .catalog import (
    RegionRegistry,
    SpeciesCatalog,
    load_catalog,
    parse_region,
    transect_of,
)
from .clustering import (
    ClusterModel,
    ClusterPriors,
    dominant_cluster,
    estimate_priors,
    kmeans,
    reweight,
)
from .errors import (
    FloratileError,
    ImageTooSmallError,
    InputError,
    InvariantViolation,
    UnknownRegionError,
)
from .geo import (
    DEFAULT_REFERENCE_POINT,
    GeoRegion,
    Observation,
    SpeciesMask,
    build_mask,
    contains,
    nearest_per_species,
    sq_dist,
)
from .io import SubmissionRow, read_submission, write_submission
from .metrics import GroundTruth, ScoreReport, final_score, image_f1
from .pipeline import GeoOptions, PriorsOptions, RunConfig, RunResult, run
from .projection import EmbeddingMatrix, Projection, ProjectorConfig, fit
from .svgplot import plot_projection, save_projection_plot
from .synth import SynthBundle, SynthSpec, generate, write_bundle
from .tiling import GridSpec, TileRect, make_grid, parse_grid_spec
from .voting import (
    TilePrediction,
    VoteTally,
    naive_baseline,
    select_labels,
    tally_votes,
)

__version__ = "0.1.0"

__all__ = [
    "ClusterModel",
    "ClusterPriors",
    "DEFAULT_REFERENCE_POINT",
    "EmbeddingMatrix",
    "FloratileError",
    "GeoOptions",
    "GeoRegion",
    "GridSpec",
    "GroundTruth",
    "ImageTooSmallError",
    "InputError",
    "InvariantViolation",
    "Observation",
    "PriorsOptions",
    "Projection",
    "ProjectorConfig",
    "RegionRegistry",
    "RunConfig",
    "RunResult",
    "ScoreReport",
    "SpeciesCatalog",
    "SpeciesMask",
    "SubmissionRow",
    "SynthBundle",
    "SynthSpec",
    "TileBatch",
    "TilePrediction",
    "TileRect",
    "UnknownRegionError",
    "VoteTally",
    "build_mask",
    "contains",
    "dominant_cluster",
    "estimate_priors",
    "final_score",
    "fit",
    "generate",
    "image_f1",
    "kmeans",
    "load_catalog",
    "make_grid",
    "naive_baseline",
    "nearest_per_species",
    "parse_grid_spec",
    "parse_region",
    "plot_projection",
    "read_submission",
    "reweight",
    "run",
    "save_projection_plot",
    "select_labels",
    "sq_dist",
    "tally_votes",
    "transect_of",
    "write_bundle",
    "write_submission",
]
