"""Geolocation filtering: distances, point-in-polygon, masks."""

import math
import re

import numpy as np
import pytest

from floratile.catalog import SpeciesCatalog
from floratile.errors import InputError, InvariantViolation
from floratile.geo import (
    GeoRegion,
    Observation,
    SpeciesMask,
    build_mask,
    contains,
    nearest_per_species,
    sq_dist,
)


def test_sq_dist_examples():
    assert sq_dist((0.0, 0.0), (3.0, 4.0)) == 25.0
    assert sq_dist((44.0, 4.0), (44.0, 4.0)) == 0.0
    assert sq_dist((1.0, 2.0), (4.0, 6.0)) == 25.0


def test_sq_dist_symmetry_property():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = tuple(rng.uniform(-90, 90, 2))
        b = tuple(rng.uniform(-90, 90, 2))
        assert sq_dist(a, b) == sq_dist(b, a)
        assert sq_dist(a, b) >= 0.0
        assert sq_dist(a, a) == 0.0


def nearest_observation(obs, ref):
    """The observation minimizing sq_dist to ref, ties to the first; the oracle
    for ``nearest_per_species``."""
    if not obs:
        raise InputError("species has no geotagged observations")
    return min(obs, key=lambda o: sq_dist((o.lat, o.lon), ref))


def test_nearest_observation_picks_minimum():
    obs = [
        Observation(7, 50.0, 10.0),
        Observation(7, 44.5, 4.5),
        Observation(7, 0.0, 0.0),
    ]
    assert nearest_observation(obs, (44.0, 4.0)) is obs[1]


def test_nearest_observation_tie_keeps_first():
    obs = [Observation(7, 44.0, 5.0), Observation(7, 44.0, 3.0)]
    # both are exactly 1 degree away; first in input order wins
    assert nearest_observation(obs, (44.0, 4.0)) is obs[0]


def test_nearest_observation_empty_rejected():
    with pytest.raises(InputError):
        nearest_observation([], (44.0, 4.0))


def test_nearest_per_species_groups_and_minimizes():
    obs = [
        Observation(1, 50.0, 10.0),
        Observation(2, 44.1, 4.1),
        Observation(1, 44.2, 4.2),
        Observation(1, 60.0, 20.0),
    ]
    best = nearest_per_species(obs, (44.0, 4.0))
    assert set(best) == {1, 2}
    assert best[1] is obs[2]
    assert best[2] is obs[1]


def test_nearest_per_species_matches_per_group_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        obs = [
            Observation(int(rng.integers(1, 6)), float(rng.uniform(-80, 80)), float(rng.uniform(-170, 170)))
            for _ in range(n)
        ]
        ref = (float(rng.uniform(-80, 80)), float(rng.uniform(-170, 170)))
        best = nearest_per_species(obs, ref)
        for sid in {o.species_id for o in obs}:
            group = [o for o in obs if o.species_id == sid]
            assert best[sid] is nearest_observation(group, ref)


def test_observation_range_validation():
    with pytest.raises(InputError):
        Observation(1, 91.0, 0.0)
    with pytest.raises(InputError):
        Observation(1, 0.0, -181.0)
    Observation(1, 90.0, 180.0)  # inclusive bounds are fine


UNIT_SQUARE = GeoRegion("sq", ((0.0, 0.0), (0.0, 4.0), (4.0, 4.0), (4.0, 0.0)))


def test_contains_square_interior_exterior():
    assert contains(UNIT_SQUARE, (2.0, 2.0))
    assert not contains(UNIT_SQUARE, (5.0, 2.0))
    assert not contains(UNIT_SQUARE, (-0.1, 2.0))
    assert not contains(UNIT_SQUARE, (2.0, 4.1))


def test_contains_boundary_is_inside():
    assert contains(UNIT_SQUARE, (0.0, 2.0))  # edge midpoint
    assert contains(UNIT_SQUARE, (4.0, 4.0))  # vertex
    assert contains(UNIT_SQUARE, (2.0, 0.0))  # vertical edge in lon terms
    assert contains(UNIT_SQUARE, (0.0, 0.0))


def test_contains_concave_polygon():
    # L-shape: big square minus its upper-right quadrant
    ell = GeoRegion(
        "L",
        ((0.0, 0.0), (0.0, 4.0), (2.0, 4.0), (2.0, 2.0), (4.0, 2.0), (4.0, 0.0)),
    )
    assert contains(ell, (1.0, 3.0))
    assert contains(ell, (3.0, 1.0))
    assert not contains(ell, (3.0, 3.0))  # inside the notch
    assert contains(ell, (2.0, 3.0))  # on the notch boundary


def test_contains_vertex_on_ray_path():
    tri = GeoRegion("tri", ((0.0, 0.0), (2.0, 4.0), (4.0, 0.0)))
    assert contains(tri, (2.0, 1.0))
    assert not contains(tri, (2.0, 4.5))


def _winding_inside(polygon, p):
    """Signed-angle winding number oracle; unreliable only near the boundary."""
    total = 0.0
    m = len(polygon)
    for i in range(m):
        ay, ax = polygon[i][0] - p[0], polygon[i][1] - p[1]
        by, bx = polygon[(i + 1) % m][0] - p[0], polygon[(i + 1) % m][1] - p[1]
        total += math.atan2(ax * by - ay * bx, ax * bx + ay * by)
    return abs(total) > math.pi


def _dist_to_boundary(polygon, p):
    best = math.inf
    m = len(polygon)
    py, px = p
    for i in range(m):
        ay, ax = polygon[i]
        by, bx = polygon[(i + 1) % m]
        vx, vy = bx - ax, by - ay
        t = ((px - ax) * vx + (py - ay) * vy) / (vx * vx + vy * vy)
        t = min(1.0, max(0.0, t))
        best = min(best, math.hypot(px - (ax + t * vx), py - (ay + t * vy)))
    return best


def test_contains_matches_winding_oracle_on_star_polygons():
    rng = np.random.default_rng(4177)
    checked = 0
    for _ in range(60):
        k = int(rng.integers(5, 12))
        # normalized gaps in [0.5, 1.5] keep every angular step below pi,
        # so sorting by angle around the centre yields a simple polygon
        gaps = rng.uniform(0.5, 1.5, k)
        angles = np.cumsum(gaps) / gaps.sum() * 2.0 * math.pi
        radii = rng.uniform(0.5, 2.0, k)
        cy, cx = rng.uniform(-5, 5, 2)
        poly = tuple(
            (cy + r * math.sin(a), cx + r * math.cos(a)) for a, r in zip(angles, radii)
        )
        region = GeoRegion("star", poly)
        for _ in range(40):
            p = (float(cy + rng.uniform(-2.5, 2.5)), float(cx + rng.uniform(-2.5, 2.5)))
            if _dist_to_boundary(poly, p) < 1e-6:
                continue
            assert contains(region, p) == _winding_inside(poly, p)
            checked += 1
    assert checked > 1500


def test_geo_region_validation():
    with pytest.raises(InputError):
        GeoRegion("", ((0, 0), (0, 1), (1, 0)))
    with pytest.raises(InputError):
        GeoRegion("two", ((0, 0), (1, 1)))
    with pytest.raises(InputError):
        GeoRegion("dup-edge", ((0, 0), (0, 0), (1, 1), (1, 0)))
    # bowtie crosses itself
    with pytest.raises(InputError):
        GeoRegion("bowtie", ((0, 0), (2, 2), (2, 0), (0, 2)))
    # edges that only touch, or overlap along a line, are not simple either
    with pytest.raises(InputError, match=r"^region 'fold': edges 0 and 1 intersect$"):
        GeoRegion("fold", ((0, 0), (2, 0), (1, 0), (1, 1)))  # edge 1 folds back over edge 0
    with pytest.raises(InputError, match=r"^region 'pinch': edges 0 and 2 intersect$"):
        GeoRegion("pinch", ((0, 0), (4, 0), (4, 4), (2, 0), (0, 4)))  # vertex 3 lies on edge 0
    with pytest.raises(InputError, match=r"^region 'hook': edges 0 and 3 intersect$"):
        GeoRegion("hook", ((0, 0), (0, 2), (1, 2), (1, 1), (0, 1)))  # vertex 4 lies on edge 0
    GeoRegion("tri", ((0, 0), (0, 1), (1, 0)))
    GeoRegion("L", ((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)))
    GeoRegion("straight-vertex", ((0, 0), (1, 0), (2, 0), (2, 2), (0, 2)))  # a redundant vertex on a straight edge


@pytest.mark.parametrize("name,polygon,message", [
    ("tri", ((0, 0), (0, math.inf), (1, 0)), "region 'tri': vertices must be finite"),
    ("tri", ((0, 0), (0, math.nan), (1, 0)), "region 'tri': vertices must be finite"),
    ("tri", ((0, 0), (0, "x"), (1, 0)), "region 'tri': vertices must be (lat, lon) number pairs"),
    ("tri", ((0, 0), (0, 10**400), (1, 0)), "region 'tri': vertices must be (lat, lon) number pairs"),
    (7, ((0, 0), (0, 1), (1, 0)), "region name must be a non-empty string"),
], ids=["inf", "nan", "text", "huge_int", "numeric_name"])
def test_geo_region_rejects_values_the_mask_cannot_use(name, polygon, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}"):
        GeoRegion(name, polygon)


def _catalog(ids):
    return SpeciesCatalog(list(ids))


def test_build_mask_examples():
    catalog = _catalog([10, 20, 30, 40])
    nearest = {
        10: Observation(10, 2.0, 2.0),   # inside
        20: Observation(20, 9.0, 9.0),   # outside
        30: Observation(30, 0.0, 2.0),   # boundary counts as inside
        # species 40 has no geodata at all
    }
    mask = build_mask(nearest, [UNIT_SQUARE], catalog)
    assert mask.allowed.tolist() == [True, False, True, False]


def test_build_mask_union_of_regions():
    catalog = _catalog([1, 2])
    far = GeoRegion("far", ((10.0, 10.0), (10.0, 12.0), (12.0, 12.0), (12.0, 10.0)))
    nearest = {1: Observation(1, 11.0, 11.0), 2: Observation(2, 2.0, 2.0)}
    mask = build_mask(nearest, [UNIT_SQUARE, far], catalog)
    assert mask.allowed.tolist() == [True, True]


def test_build_mask_requires_regions():
    with pytest.raises(InputError):
        build_mask({}, [], _catalog([1]))


def test_build_mask_all_disallowed_is_input_error():
    catalog = _catalog([1, 2])
    nearest = {1: Observation(1, 50.0, 50.0)}
    with pytest.raises(InputError, match="would disallow every species"):
        build_mask(nearest, [UNIT_SQUARE], catalog)


def test_adding_region_never_shrinks_mask():
    rng = np.random.default_rng(91)
    catalog = _catalog(list(range(1, 21)))
    for _ in range(30):
        nearest = {
            sid: Observation(sid, float(rng.uniform(-3, 7)), float(rng.uniform(-3, 7)))
            for sid in catalog.species_ids
            if rng.random() < 0.9
        }
        lat0, lon0 = rng.uniform(-3, 5, 2)
        extra = GeoRegion(
            "extra",
            (
                (float(lat0), float(lon0)),
                (float(lat0), float(lon0 + 2.0)),
                (float(lat0 + 2.0), float(lon0 + 2.0)),
                (float(lat0 + 2.0), float(lon0)),
            ),
        )
        try:
            base = build_mask(nearest, [UNIT_SQUARE], catalog)
        except InputError:
            continue
        wider = build_mask(nearest, [UNIT_SQUARE, extra], catalog)
        assert np.all(wider.allowed >= base.allowed)


def test_species_mask_count_checked():
    with pytest.raises(InvariantViolation):
        SpeciesMask(allowed=np.array([False, False]))
