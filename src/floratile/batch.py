"""Tile predictions: one record per tile, and the columnar batch every stage runs on.

``TilePrediction`` is one tile's sparse class-probability vector, a typed
record that the tests and library callers write by hand. ``TileBatch``
holds many tiles in flat arrays, and its ``_checks`` are the one check and
wording of a tile's values. Per tile: the image code (an index into
``image_ids``), grid row and col, and the ``complete`` flag. Tile ``t``
owns the entries ``offsets[t]:offsets[t + 1]`` of ``idx`` (dense species
index) and ``prob``. Two invariants hold:

* each image's tiles are contiguous, images in first-appearance order and
  tiles in input order within an image;
* within a tile, entries are sorted by (-prob, idx), NaN last: the stored
  order, whatever order the tile's entries were given in.

A batch is its columns and the per-image ``image_offsets``; it caches no
per-entry array. Each per-entry pass works on the batch it is given in one
go and builds its tile keys for it, so what a pass holds beyond its input
and output is set by that batch, below six int64 columns of its entries
(``test_per_entry_pass_memory_is_set_by_a_slice_not_by_the_batch``).

A command never builds the batch of a whole tile file: ``io.tile_slices``
reads the file as batches of whole images, cut at the first new image past
``4 * CHUNK_ENTRIES`` entries, and ``pipeline.stream`` takes each slice
through every stage before the next is read, so a pass holds a slice's
working memory, not the file's. Every stage quantity belongs to one image,
so a run of whole images gives the whole-batch result. The first invariant
is a rule of the tile file: the readers reject a record whose image
reappears after other images' records; ``from_tiles`` groups tiles by image.

Every float sum that reaches an output is taken with
``np.bincount(keys, weights=...)`` over entries in batch order. bincount
adds in array order, as the per-tile Python loops did, so sums are
bit-identical to theirs; ``np.add.reduceat`` and ``.sum()`` add pairwise
and can flip a last bit, and with it a tie.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .errors import InputError, InvariantViolation

SparseVector = List[Tuple[int, float]]

_MASS_TOL = 1e-6

# entries of a batch that the writer formats at a time; the tile reader cuts
# its slices at four times as many
CHUNK_ENTRIES = 4096


def encodable(text: str) -> bool:
    """Whether UTF-8 can encode ``text``; a lone surrogate cannot, so no CSV or submission could hold it."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _int64(value) -> bool:
    """Whether an int64 column keeps ``value``: a Python or numpy integer of 64 bits, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and -2**63 <= value < 2**63


# for an empty image id in a batch, and a non-string in TilePrediction and the reader
NO_IMAGE_ID = "tile prediction must carry a non-empty string image_id"


@dataclass
class TilePrediction:
    """Sparse class-probability vector for one tile of one image, a typed record:
    a string image id, 64-bit integer row, col and dense indices, float or
    64-bit integer probabilities and a bool ``complete``, Python or numpy, or
    an InputError. Numpy numbers are stored as Python ones, and ``probs`` in
    the order given. ``TileBatch.from_tiles``, which every stage input goes
    through, checks the values, and a ``complete`` tile's must sum to one.
    """

    image_id: str
    row: int
    col: int
    probs: SparseVector
    complete: bool = False

    def __post_init__(self):
        if not isinstance(self.image_id, str):
            raise InputError(NO_IMAGE_ID)
        if not (_int64(self.row) and _int64(self.col)):
            raise InputError(f"tile ({self.row!r}, {self.col!r}) of {self.image_id!r}: row and col must be int64")
        self.row, self.col = int(self.row), int(self.col)
        entries = []
        for idx, prob in self.probs:
            if not (_int64(idx) and (isinstance(prob, (float, np.floating)) or _int64(prob))):
                raise InputError(
                    f"tile of {self.image_id!r}: entry ({idx!r}, {prob!r}) needs an int64 index and a real probability")
            entries.append((int(idx), float(prob)))
        if not isinstance(self.complete, (bool, np.bool_)):
            raise InputError(f"tile of {self.image_id!r}: complete must be a bool, not {self.complete!r}")
        self.probs, self.complete = entries, bool(self.complete)

    @classmethod
    def _trusted(cls, image_id, row, col, probs, complete):
        """A tile built from batch columns, which hold only what the class keeps."""
        tile = object.__new__(cls)
        tile.__dict__.update(image_id=image_id, row=row, col=col, probs=probs, complete=complete)
        return tile


def first(flags: np.ndarray) -> Optional[int]:
    """Position of the first true flag, or None."""
    hits = np.flatnonzero(flags)
    return int(hits[0]) if hits.size else None


def _entry_order(tile: np.ndarray, idx: np.ndarray, prob: np.ndarray) -> Optional[np.ndarray]:
    """The permutation sorting entries by (tile, -prob, idx), NaN last as
    ``np.lexsort`` puts it; None when they already are. A NaN is in order
    beside no entry, so a tile holding one is always sorted."""
    same = tile[1:] == tile[:-1]
    in_order = (prob[:-1] > prob[1:]) | ((prob[:-1] == prob[1:]) & (idx[:-1] <= idx[1:]))
    if not np.any(same > in_order):
        return None
    return np.lexsort((idx, -prob, tile))


def _offsets(counts: np.ndarray) -> np.ndarray:
    offsets = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def chunk_bounds(offsets: np.ndarray) -> Iterator[Tuple[int, int]]:
    """Consecutive ``(lo, hi)`` ranges of the groups that ``offsets`` delimits
    (group ``g`` owns entries ``offsets[g]:offsets[g + 1]``), covering every
    group, each holding at most ``CHUNK_ENTRIES`` entries, or else one group.
    The tile writer passes tile offsets, for tile-aligned chunks.
    """
    lo, n = 0, offsets.shape[0] - 1
    while lo < n:
        hi = max(int(np.searchsorted(offsets, offsets[lo] + CHUNK_ENTRIES, side="right")) - 1, lo + 1)
        yield lo, hi
        lo = hi


@dataclass(frozen=True, eq=False)
class TileBatch:
    """Tiles of many images in flat columns; see the module docstring."""

    image_ids: list
    image: np.ndarray
    row: np.ndarray
    col: np.ndarray
    complete: np.ndarray
    offsets: np.ndarray
    idx: np.ndarray
    prob: np.ndarray

    @classmethod
    def from_columns(cls, image_ids, image, row, col, complete, counts, idx, prob) -> "TileBatch":
        """The batch of per-tile columns, each tile's entries sorted: the one
        place a batch is sorted and its image codes checked.

        ``image`` holds codes into ``image_ids``, which never decrease: each
        image's tiles are already together, images in code order.
        """
        image = np.asarray(image, dtype=np.int64)
        if np.any(image[1:] < image[:-1]):
            raise InvariantViolation("tile columns must keep each image's tiles together, in code order")
        row, col = np.asarray(row, dtype=np.int64), np.asarray(col, dtype=np.int64)
        complete, offsets = np.asarray(complete, dtype=bool), _offsets(np.asarray(counts, dtype=np.int64))
        idx, prob = np.asarray(idx, dtype=np.int64), np.asarray(prob, dtype=np.float64)
        return cls(list(image_ids), image, row, col, complete, offsets, idx, prob)._entries_sorted()

    @classmethod
    def from_tiles(cls, tiles: Iterable[TilePrediction]) -> "TileBatch":
        """Batch tiles, grouped by image id, and check their values: the first
        tile, in the order given, that a check hits raises its ``fault``."""
        tiles = list(tiles)
        codes = {image_id: c for c, image_id in enumerate(dict.fromkeys(t.image_id for t in tiles))}
        order = sorted(range(len(tiles)), key=lambda t: codes[tiles[t].image_id])  # stable: tiles keep their order
        tiles = [tiles[t] for t in order]
        batch = cls.from_columns(
            list(codes),
            [codes[t.image_id] for t in tiles],
            [t.row for t in tiles],
            [t.col for t in tiles],
            [t.complete for t in tiles],
            [len(t.probs) for t in tiles],
            [i for t in tiles for i, _ in t.probs],
            [p for t in tiles for _, p in t.probs],
        )
        bad = np.flatnonzero(batch.invalid_tiles()).tolist()
        if bad:
            raise InputError(batch.fault(min(bad, key=order.__getitem__)))
        return batch

    def __len__(self) -> int:
        return self.row.shape[0]

    def tiles(self, lo: int, hi: int):
        """Tiles ``lo`` to ``hi`` as ``TilePrediction`` objects, in batch order."""
        start, stop = self.offsets[lo], self.offsets[hi]
        pairs = list(zip(self.idx[start:stop].tolist(), self.prob[start:stop].tolist()))
        bounds = (self.offsets[lo:hi + 1] - start).tolist()
        for fields in zip(
            [self.image_ids[i] for i in self.image[lo:hi].tolist()],
            self.row[lo:hi].tolist(),
            self.col[lo:hi].tolist(),
            (pairs[a:b] for a, b in zip(bounds, bounds[1:])),
            self.complete[lo:hi].tolist(),
        ):
            yield TilePrediction._trusted(*fields)

    @cached_property
    def image_offsets(self) -> np.ndarray:
        """Image ``i`` owns the tiles ``image_offsets[i]:image_offsets[i + 1]``."""
        return np.searchsorted(self.image, np.arange(len(self.image_ids) + 1))

    def tile_keys(self) -> np.ndarray:
        """The tile of each entry; a per-entry array, built per call and never cached."""
        return np.repeat(np.arange(len(self)), np.diff(self.offsets))

    def tile_of(self, j):
        """The tile that owns entry ``j``, or each entry of an array ``j``."""
        return np.searchsorted(self.offsets, j, side="right") - 1

    def _entries_sorted(self) -> "TileBatch":
        """This batch with each tile's entries sorted by (-prob, idx); ``idx``
        and ``prob`` are copied, never sorted in place, and only when a tile is unsorted."""
        order = _entry_order(self.tile_keys(), self.idx, self.prob)
        return self if order is None else replace(self, idx=self.idx[order], prob=self.prob[order])

    def _checks(self) -> Tuple[np.ndarray, list]:
        """Each tile's mass, summed in stored order, and the value checks in the
        order that words a tile's fault, each ``(on_entries, hits, template)``:
        hits per entry, or else per tile, and a message that ``str.format``
        fills with the tile's ``id``, ``row``, ``col`` and ``mass`` and the
        ``idx`` and ``prob`` of the first entry hit in stored order. So a tile
        with several faults is worded by its first check, then its first entry:
        entries ``(1, 2.0), (-1, 0.5)`` read "negative dense index -1"."""
        tile, idx, prob = self.tile_keys(), self.idx, self.prob
        mass = np.bincount(tile, weights=prob, minlength=len(self))
        same_tile = tile[1:] == tile[:-1]
        by_index = np.lexsort((idx, tile))  # stable, and tile keys ascend, so they stay as they are
        del tile  # at most two int64 arrays of the entries are held at once
        sorted_idx = idx[by_index]
        repeats = np.zeros(idx.shape[0], dtype=bool)  # an index met before in its tile's stored order
        repeats[by_index[1:][same_tile & (sorted_idx[1:] == sorted_idx[:-1])]] = True
        del by_index, sorted_idx
        ids = self.image_ids  # strings: the reader and TilePrediction take no other id
        return mass, [
            (False, np.array([not i for i in ids], dtype=bool)[self.image], NO_IMAGE_ID),
            (False, np.array([not encodable(i) for i in ids], dtype=bool)[self.image],
             "tile prediction image_id {id!r} is not encodable as UTF-8"),
            (False, (self.row < 0) | (self.col < 0), "tile ({row}, {col}) of {id!r}: negative grid coordinates"),
            (False, self.offsets[1:] == self.offsets[:-1], "tile of {id!r} carries no probability entries"),
            (True, idx < 0, "tile of {id!r}: negative dense index {idx}"),
            (True, repeats, "tile of {id!r}: duplicate dense index {idx}"),
            (True, ~((prob > 0.0) & (prob <= 1.0)), "tile of {id!r}: probability {prob} outside (0, 1]"),
            (False, self.complete & (np.abs(mass - 1.0) > _MASS_TOL),
             "tile of {id!r} declared complete but probabilities sum to {mass!r}"),
            (False, mass > 1.0 + _MASS_TOL, "tile of {id!r}: probability mass {mass!r} exceeds 1"),
        ]

    def invalid_tiles(self) -> np.ndarray:
        """Per tile, whether any of ``_checks`` hits it."""
        checks = self._checks()[1]
        bad = np.logical_or.reduce([hits for on_entries, hits, _ in checks if not on_entries])
        entries = np.logical_or.reduce([hits for on_entries, hits, _ in checks if on_entries])
        bad[self.tile_of(np.flatnonzero(entries))] = True
        return bad

    def fault(self, t: int) -> Optional[str]:
        """The message of the first of ``_checks`` that hits tile ``t``; None when none does."""
        mass, checks = self._checks()
        lo, hi = self.offsets[t], self.offsets[t + 1]
        fields = dict(id=self.image_ids[self.image[t]], row=self.row[t], col=self.col[t], mass=float(mass[t]))
        for on_entries, hits, template in checks:
            j = first(hits[lo:hi] if on_entries else hits[t:t + 1])
            if j is not None:
                entry = dict(idx=int(self.idx[lo + j]), prob=float(self.prob[lo + j])) if on_entries else {}
                return template.format(**fields, **entry)
        return None

    def check_prob(self, prob: np.ndarray):
        """Raise the ``fault`` of the first tile whose new ``prob`` leaves (0, 1]."""
        j = first(~((prob > 0.0) & (prob <= 1.0)))
        if j is not None:
            raise InputError(replace(self, prob=prob).fault(self.tile_of(j)))

    def derive(self, counts, idx, prob) -> "TileBatch":
        """This batch's tiles over new entries: tile ``t`` owns the next
        ``counts[t]`` of ``idx`` and ``prob``, given in batch order.

        Tiles left without entries drop out, no tile is complete any more and
        ``from_columns`` re-sorts each tile's entries, since renormalising can
        create new ties. Every image must keep a tile; when every tile does,
        the tile columns are shared, not copied.
        ``idx`` and ``prob`` become the entry columns when no tile needs sorting.
        """
        counts = np.asarray(counts, dtype=np.int64)
        image, row, col = self.image, self.row, self.col
        live = counts > 0
        if not live.all():
            image, row, col, counts = image[live], row[live], col[live], counts[live]
        return TileBatch.from_columns(self.image_ids, image, row, col, np.zeros(len(image), dtype=bool), counts, idx, prob)


class ImageTiles(Mapping):
    """Image id -> list of tiles, read-only, over a batch; what ``group_by_image`` returns."""

    def __init__(self, batch: TileBatch):
        self.batch = batch

    @cached_property
    def _position(self) -> dict:
        return {image_id: i for i, image_id in enumerate(self.batch.image_ids)}

    def __getitem__(self, image_id) -> List[TilePrediction]:
        i = self._position[image_id]
        return list(self.batch.tiles(int(self.batch.image_offsets[i]), int(self.batch.image_offsets[i + 1])))

    def __iter__(self):
        return iter(self.batch.image_ids)

    def __len__(self) -> int:
        return len(self.batch.image_ids)


def as_batch(tiles) -> TileBatch:
    """The batch behind a stage input: a batch, an ``ImageTiles`` or an iterable of tiles;
    an iterable holding anything else is an InvariantViolation naming its type."""
    if isinstance(tiles, TileBatch):
        return tiles
    if isinstance(tiles, ImageTiles):
        return tiles.batch
    tiles = list(tiles)
    for tile in tiles:
        if not isinstance(tile, TilePrediction):
            raise InvariantViolation(f"stage input holds a {type(tile).__name__}, not a TilePrediction")
    return TileBatch.from_tiles(tiles)


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
