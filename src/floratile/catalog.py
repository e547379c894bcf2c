"""Species label space, region registry, and transect grouping.

The catalog maps opaque external species identifiers to dense 0-based
indices (file order, so indices stay stable regardless of id magnitude).
Regions are matched against quadrat ids by longest prefix; transects are
derived from quadrat ids by dropping the trailing token unless an explicit
mapping overrides the rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from .errors import InputError, UnknownRegionError


class SpeciesCatalog:
    """Bijection between external species ids and dense indices 0..S-1."""

    def __init__(self, species_ids: Sequence[int]):
        if len(species_ids) == 0:
            raise InputError("species catalog must contain at least one species")
        self._ids: List[int] = [int(s) for s in species_ids]
        self._known = set()
        for sid in self._ids:
            if sid in self._known:
                raise InputError(f"duplicate species_id {sid} in catalog")
            self._known.add(sid)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, species_id: int) -> bool:
        return species_id in self._known

    @property
    def species_ids(self) -> List[int]:
        return list(self._ids)


def load_catalog(path) -> SpeciesCatalog:
    """Load a species catalog from a CSV with header ``species_id``."""
    from .io import read_csv

    return SpeciesCatalog([species_id for species_id, in read_csv(path, "catalog")])


@dataclass(frozen=True)
class RegionRegistry:
    """Ordered list of region name prefixes; overlaps resolved by longest match."""

    regions: tuple

    def __post_init__(self):
        names = list(self.regions)
        object.__setattr__(self, "regions", tuple(names))
        if not names:
            raise InputError("region registry must contain at least one region")
        seen = set()
        for name in names:
            if not name:
                raise InputError("region names must be non-empty")
            if name in seen:
                raise InputError(f"duplicate region name {name!r}")
            seen.add(name)

    def __iter__(self):
        return iter(self.regions)

    def __len__(self) -> int:
        return len(self.regions)


def parse_region(quadrat_id: str, registry: RegionRegistry) -> str:
    """Return the registry entry that is the longest prefix of ``quadrat_id``."""
    best = None
    for name in registry:
        if quadrat_id.startswith(name) and (best is None or len(name) > len(best)):
            best = name
    if best is None:
        raise UnknownRegionError(quadrat_id)
    return best


def transect_of(quadrat_id: str) -> str:
    """Derive a transect key by dropping the final ``-``-separated token.

    A quadrat id without a ``-`` is its own transect.
    """
    if not quadrat_id:
        raise InputError("quadrat_id must be non-empty")
    head, sep, _ = quadrat_id.rpartition("-")
    return head if sep else quadrat_id
