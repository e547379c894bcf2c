"""Species admissibility masks from geotagged observations.

For each species the observation closest to a reference point (by squared
Euclidean distance in raw degree space, not great-circle) is tested for
containment in any target region polygon. Species whose nearest observation
falls outside every region, or that have no geotagged observation at all,
are masked out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

from .catalog import SpeciesCatalog
from .errors import InputError, InvariantViolation

Point = Tuple[float, float]  # (lat, lon)

DEFAULT_REFERENCE_POINT: Point = (44.0, 4.0)


@dataclass(frozen=True)
class Observation:
    species_id: int
    lat: float
    lon: float

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise InputError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise InputError(f"longitude {self.lon} outside [-180, 180]")


def _cross(ox, oy, ax, ay, bx, by) -> float:
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def _on_segment(px, py, ax, ay, bx, by) -> bool:
    if _cross(ax, ay, bx, by, px, py) != 0.0:
        return False
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def _segments_meet(a1, a2, b1, b2) -> bool:
    """Whether the closed segments ``a1``-``a2`` and ``b1``-``b2`` share a point."""
    d1, d2 = _cross(*b1, *b2, *a1), _cross(*b1, *b2, *a2)
    d3, d4 = _cross(*a1, *a2, *b1), _cross(*a1, *a2, *b2)
    if (d1 > 0 > d2 or d1 < 0 < d2) and (d3 > 0 > d4 or d3 < 0 < d4):
        return True
    return (_on_segment(*a1, *b1, *b2) or _on_segment(*a2, *b1, *b2)
            or _on_segment(*b1, *a1, *a2) or _on_segment(*b2, *a1, *a2))


def _coordinate(x) -> float:
    """``x`` as a float; text and bools are not numbers, even text that would parse as one."""
    if isinstance(x, (str, bool)):
        raise TypeError(f"{x!r} is not a number")
    return float(x)


@dataclass(frozen=True)
class GeoRegion:
    """Simple polygon over (lat, lon) vertices; the last edge closes implicitly.

    Simple: no two edges share a point, but for the vertex two adjacent edges meet at."""

    name: str
    polygon: tuple

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise InputError("region name must be a non-empty string")
        try:
            verts = tuple((_coordinate(a), _coordinate(b)) for a, b in self.polygon)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"region {self.name!r}: vertices must be (lat, lon) number pairs ({exc})") from None
        if not all(math.isfinite(x) for vert in verts for x in vert):
            raise InputError(f"region {self.name!r}: vertices must be finite")
        object.__setattr__(self, "polygon", verts)
        if len(verts) < 3:
            raise InputError(f"region {self.name!r}: polygon needs at least 3 vertices")
        m = len(verts)
        for i in range(m):
            if verts[i] == verts[(i + 1) % m]:
                raise InputError(f"region {self.name!r}: zero-length edge at vertex {i}")
        for i in range(m):
            a1, a2 = verts[i], verts[(i + 1) % m]
            for j in range(i + 1, m):
                b1, b2 = verts[j], verts[(j + 1) % m]
                # adjacent edges share one vertex; they meet elsewhere when either far end lies on the other
                if j == i + 1:
                    meet = _on_segment(*b2, *a1, *a2) or _on_segment(*a1, *b1, *b2)
                elif (j + 1) % m == i:
                    meet = _on_segment(*b1, *a1, *a2) or _on_segment(*a2, *b1, *b2)
                else:
                    meet = _segments_meet(a1, a2, b1, b2)
                if meet:
                    raise InputError(f"region {self.name!r}: edges {i} and {j} intersect")


@dataclass
class SpeciesMask:
    """Boolean admissibility per dense index."""

    allowed: np.ndarray

    def __post_init__(self):
        self.allowed = np.asarray(self.allowed, dtype=bool)
        if not self.allowed.any():
            raise InvariantViolation("species mask must allow at least one species")


def sq_dist(a: Point, b: Point) -> float:
    """Squared Euclidean distance in raw degree space."""
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def nearest_per_species(observations: Iterable[Observation], ref: Point) -> Dict[int, Observation]:
    """Group observations by species and keep each species' nearest to ref."""
    best: Dict[int, Observation] = {}
    for o in observations:
        cur = best.get(o.species_id)
        if cur is None or sq_dist((o.lat, o.lon), ref) < sq_dist((cur.lat, cur.lon), ref):
            best[o.species_id] = o
    return best


def contains(region: GeoRegion, p: Point) -> bool:
    """Ray-casting point-in-polygon; boundary points count as inside."""
    lat, lon = float(p[0]), float(p[1])
    verts = region.polygon
    m = len(verts)
    inside = False
    for i in range(m):
        a_lat, a_lon = verts[i]
        b_lat, b_lon = verts[(i + 1) % m]
        if _on_segment(lon, lat, a_lon, a_lat, b_lon, b_lat):
            return True
        # horizontal ray towards +lon; half-open rule avoids double-counted vertices
        if (a_lat > lat) != (b_lat > lat):
            t = (lat - a_lat) / (b_lat - a_lat)
            lon_cross = a_lon + t * (b_lon - a_lon)
            if lon < lon_cross:
                inside = not inside
    return inside


def build_mask(
    nearest: Mapping[int, Observation],
    regions: Sequence[GeoRegion],
    catalog: SpeciesCatalog,
) -> SpeciesMask:
    """Allow species whose nearest observation lies in any region.

    Species absent from ``nearest`` (no geodata) are disallowed.
    """
    if not regions:
        raise InputError("build_mask needs at least one region")
    allowed = np.zeros(len(catalog), dtype=bool)
    for i, species_id in enumerate(catalog.species_ids):
        obs = nearest.get(species_id)
        if obs is None:
            continue
        point = (obs.lat, obs.lon)
        allowed[i] = any(contains(region, point) for region in regions)
    if not allowed.any():
        raise InputError("geolocation mask would disallow every species; check regions file")
    return SpeciesMask(allowed=allowed)


def renormalise(prob, tile, n_tiles: int):
    """``prob``, grouped by ``tile``, divided in place by each tile's total
    and returned; a tile whose total is zero keeps its values."""
    total = np.bincount(tile, weights=prob, minlength=n_tiles)[tile]
    np.divide(prob, total, out=prob, where=total > 0.0)
    return prob

