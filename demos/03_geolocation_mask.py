"""
Geolocation species masks
=========================

A species is admissible when its geotagged observation nearest to the
survey reference point falls inside one of the survey polygons. Distance
is squared-degree Euclidean; containment is ray casting with boundary
points counting as inside. Masked tiles drop the excluded species and
renormalize; the tile here goes through the same stage, over the same
columnar batch, as every slice of a ``run --geo`` tile file.
"""

from floratile import (
    GeoRegion,
    Observation,
    SpeciesCatalog,
    TileBatch,
    TilePrediction,
    build_mask,
    nearest_per_species,
)
from floratile.pipeline import apply_geo_mask

catalog = SpeciesCatalog([101, 102, 103, 104])

# one rectangular survey area spanning lat 42..47, lon 0..8
survey = GeoRegion("survey", ((42.0, 0.0), (47.0, 0.0), (47.0, 8.0), (42.0, 8.0)))
reference = (44.0, 4.0)

observations = [
    Observation(101, 44.5, 4.2),    # close and inside
    Observation(101, 55.0, 25.0),   # a far-away duplicate that loses
    Observation(102, 43.0, 7.9),    # inside, near the eastern edge
    Observation(103, 52.0, 13.0),   # only ever seen far outside
    # species 104 has no observation at all
]

nearest = nearest_per_species(observations, reference)
for sid, obs in sorted(nearest.items()):
    print(f"species {sid}: nearest observation at ({obs.lat}, {obs.lon})")

mask = build_mask(nearest, [survey], catalog)
print("\nadmissible:", [
    sid for i, sid in enumerate(catalog.species_ids) if mask.allowed[i]
])
print("masked out:", [
    sid for i, sid in enumerate(catalog.species_ids) if not mask.allowed[i]
])

# a tile that mixes admissible and masked species: the masked entry
# vanishes and the rest renormalize to unit mass
tile = [(0, 0.5), (2, 0.3), (1, 0.2)]  # dense indices of 101, 103, 102
batch = TileBatch.from_tiles([TilePrediction("Q1", 0, 0, tile)])
filtered = apply_geo_mask(batch, mask).batch
print("\ntile before:", tile)
print("tile after: ", [(i, round(p, 4)) for i, p in zip(filtered.idx.tolist(), filtered.prob.tolist())])
