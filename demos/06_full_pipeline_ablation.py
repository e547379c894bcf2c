"""
Full pipeline ablation on a synthetic fixture
=============================================

Generates the standard synthetic bundle (100 images, 4x4 tiles, 50
species, 3 visual clusters, noise 0.5) and scores four strategies
against its ground truth:

  1. frequency baseline: predict the k most common training species
  2. whole-image top-20 (no tiles)
  3. tiled top-9 voting over the 4x4 grid
  4. tiled voting with cluster-prior reweighting

The fixture is built so the ordering matches what tiling is for:
one-off junk never collects two votes, so voting filters it out, while
a fixed-size whole-image prediction has to carry the junk along.
"""

import atexit
import shutil
import tempfile
from pathlib import Path

from floratile import PriorsOptions, RunConfig, SynthSpec, generate, run, write_bundle

work = Path(tempfile.mkdtemp(prefix="floratile_demo_"))
atexit.register(shutil.rmtree, work, ignore_errors=True)  # fixture and run outputs
fixture = write_bundle(generate(SynthSpec(), seed=42), work / "fixture")
print("fixture written to", fixture)


def score(name, **overrides):
    config = dict(
        catalog_path=str(fixture / "catalog.csv"),
        predictions_path=str(fixture / "tile_predictions.ndjson"),
        out_dir=str(work / name),
        truth_path=str(fixture / "truth.csv"),
        seed=42,
    )
    config.update(overrides)
    return run(RunConfig(**config)).report.final


results = {
    "baseline (top-10 frequent)": score(
        "baseline",
        mode="baseline",
        training_counts_path=str(fixture / "training_counts.csv"),
    ),
    "no tiling (image top-20)": score(
        "no_tiling",
        mode="no-tiling",
        predictions_path=str(fixture / "image_predictions.ndjson"),
    ),
    "tiling (4x4, top-9 votes)": score("tiling", mode="tiling"),
    "tiling + cluster priors": score(
        "priors",
        mode="tiling",
        registry_path=str(fixture / "regions.txt"),
        priors=PriorsOptions(
            enabled=True, k=3, embeddings_path=str(fixture / "embeddings.ndjson")
        ),
    ),
}

print("\nfinal macro-F1 per strategy:")
for name, value in results.items():
    print(f"  {name:28s} {value:.4f}")
