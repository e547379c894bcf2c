"""Tile predictions: one record per tile, and the columnar batch every stage runs on.

``TilePrediction`` is one tile's sparse class-probability vector, the
record the tests write by hand and the one wording of record errors.
``TileBatch`` holds many tiles in flat arrays. Per tile: the image code (an
index into ``image_ids``), grid row and col, and the ``complete`` flag.
Tile ``t`` owns the entries ``offsets[t]:offsets[t + 1]`` of ``idx`` (dense
species index) and ``prob``. Two invariants hold:

* each image's tiles are contiguous, images in first-appearance order and
  tiles in input order within an image;
* within a tile, entries are sorted by (-prob, idx), as in
  ``TilePrediction.probs``.

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


@dataclass
class TilePrediction:
    """Sparse class-probability vector for one tile of one image.

    ``probs`` is kept sorted by descending probability (ties by lower dense
    index). A record flagged ``complete`` carries a full distribution and
    must sum to one.
    """

    image_id: str
    row: int
    col: int
    probs: SparseVector
    complete: bool = False

    def __post_init__(self):
        if not isinstance(self.image_id, str) or not self.image_id:
            raise InputError("tile prediction must carry a non-empty string image_id")
        if not encodable(self.image_id):
            raise InputError(f"tile prediction image_id {self.image_id!r} is not encodable as UTF-8")
        if self.row < 0 or self.col < 0:
            raise InputError(f"tile ({self.row}, {self.col}) of {self.image_id!r}: negative grid coordinates")
        entries = [(int(idx), float(prob)) for idx, prob in self.probs]
        if not entries:
            raise InputError(f"tile of {self.image_id!r} carries no probability entries")
        seen = set()
        for idx, prob in entries:
            if idx < 0:
                raise InputError(f"tile of {self.image_id!r}: negative dense index {idx}")
            if idx in seen:
                raise InputError(f"tile of {self.image_id!r}: duplicate dense index {idx}")
            seen.add(idx)
            if not 0.0 < prob <= 1.0:
                raise InputError(f"tile of {self.image_id!r}: probability {prob} outside (0, 1]")
        entries.sort(key=lambda e: (-e[1], e[0]))
        mass = sum(p for _, p in entries)
        if self.complete and abs(mass - 1.0) > _MASS_TOL:
            raise InputError(
                f"tile of {self.image_id!r} declared complete but probabilities sum to {mass!r}"
            )
        if mass > 1.0 + _MASS_TOL:
            raise InputError(f"tile of {self.image_id!r}: probability mass {mass!r} exceeds 1")
        self.probs = entries

    @classmethod
    def _trusted(cls, image_id, row, col, probs, complete):
        """A tile built from batch columns that already passed the checks."""
        tile = object.__new__(cls)
        tile.__dict__.update(image_id=image_id, row=row, col=col, probs=probs, complete=complete)
        return tile


def rejection(image_id, row, col, entries, complete=False) -> InputError:
    """The error ``TilePrediction`` raises for these fields.

    The vectorised checks only find the failing tile; its message comes from
    here, so there is one wording. A tile the vectorised checks flag but
    ``TilePrediction`` accepts is a bug in the checks.
    """
    try:
        TilePrediction(image_id, row, col, entries, complete)
    except InputError as exc:
        return exc
    raise InvariantViolation(
        f"tile ({row}, {col}) of {image_id!r} passes TilePrediction but not the batch checks"
    )


def first(flags: np.ndarray) -> Optional[int]:
    """Position of the first true flag, or None."""
    hits = np.flatnonzero(flags)
    return int(hits[0]) if hits.size else None


def _entry_order(tile: np.ndarray, idx: np.ndarray, prob: np.ndarray) -> Optional[np.ndarray]:
    """The permutation sorting entries by (tile, -prob, idx); None when they already are."""
    same = tile[1:] == tile[:-1]
    swapped = (prob[1:] > prob[:-1]) | ((prob[1:] == prob[:-1]) & (idx[1:] < idx[:-1]))
    if not np.any(same & swapped):
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
        """Batch already-checked tiles, grouped by image id."""
        tiles = list(tiles)
        codes = {image_id: c for c, image_id in enumerate(dict.fromkeys(t.image_id for t in tiles))}
        tiles.sort(key=lambda t: codes[t.image_id])  # stable: an image's tiles keep their order
        return cls.from_columns(
            list(codes),
            [codes[t.image_id] for t in tiles],
            [t.row for t in tiles],
            [t.col for t in tiles],
            [t.complete for t in tiles],
            [len(t.probs) for t in tiles],
            [i for t in tiles for i, _ in t.probs],
            [p for t in tiles for _, p in t.probs],
        )

    def __len__(self) -> int:
        return self.row.shape[0]

    def columns(self, lo: int, hi: int):
        """Tiles ``lo`` to ``hi`` as Python columns, in batch order: image ids,
        rows, cols, a generator of each tile's ``(idx, prob)`` list
        and the ``complete`` flags."""
        start, stop = self.offsets[lo], self.offsets[hi]
        pairs = list(zip(self.idx[start:stop].tolist(), self.prob[start:stop].tolist()))
        bounds = (self.offsets[lo:hi + 1] - start).tolist()
        return (
            [self.image_ids[i] for i in self.image[lo:hi].tolist()],
            self.row[lo:hi].tolist(),
            self.col[lo:hi].tolist(),
            (pairs[a:b] for a, b in zip(bounds, bounds[1:])),
            self.complete[lo:hi].tolist(),
        )

    def tiles(self, lo: int, hi: int):
        """Tiles ``lo`` to ``hi`` as ``TilePrediction`` objects, in batch order."""
        for fields in zip(*self.columns(lo, hi)):
            yield TilePrediction._trusted(*fields)

    @cached_property
    def image_offsets(self) -> np.ndarray:
        """Image ``i`` owns the tiles ``image_offsets[i]:image_offsets[i + 1]``."""
        return np.searchsorted(self.image, np.arange(len(self.image_ids) + 1))

    def tile_keys(self) -> np.ndarray:
        """The tile of each entry; a per-entry array, built per call and never cached."""
        return np.repeat(np.arange(len(self)), np.diff(self.offsets))

    def tile_of(self, j: int) -> int:
        """The tile that owns entry ``j``."""
        return int(np.searchsorted(self.offsets, j, side="right")) - 1

    def _entries_sorted(self) -> "TileBatch":
        """This batch with each tile's entries sorted by (-prob, idx); ``idx``
        and ``prob`` are copied, never sorted in place, and only when a tile is unsorted."""
        order = _entry_order(self.tile_keys(), self.idx, self.prob)
        return self if order is None else replace(self, idx=self.idx[order], prob=self.prob[order])

    def invalid_tiles(self) -> np.ndarray:
        """Per tile, whether ``TilePrediction`` would reject it: a bad image id
        or cell, no entries, an index or probability it rejects, a repeated
        index, or a bad mass."""
        bad = np.array([not (isinstance(i, str) and i and encodable(i)) for i in self.image_ids], dtype=bool)
        bad = bad[self.image]
        bad |= (self.row < 0) | (self.col < 0) | (self.offsets[1:] == self.offsets[:-1])
        tile, idx, prob = self.tile_keys(), self.idx, self.prob
        bad[tile[(idx < 0) | ~((prob > 0.0) & (prob <= 1.0))]] = True
        idx = idx[np.lexsort((idx, tile))]  # tile keys ascend, so the sort leaves them as they are
        bad[tile[1:][(tile[1:] == tile[:-1]) & (idx[1:] == idx[:-1])]] = True
        mass = np.bincount(tile, weights=prob, minlength=len(self))
        return bad | (self.complete & (np.abs(mass - 1.0) > _MASS_TOL)) | (mass > 1.0 + _MASS_TOL)

    def check_prob(self, prob: np.ndarray):
        """Raise ``rejection`` of the first tile whose new ``prob`` leaves (0, 1]."""
        j = first(~((prob > 0.0) & (prob <= 1.0)))
        if j is not None:
            t = self.tile_of(j)
            lo, hi = self.offsets[t], self.offsets[t + 1]
            entries = list(zip(self.idx[lo:hi].tolist(), prob[lo:hi].tolist()))
            raise rejection(self.image_ids[self.image[t]], int(self.row[t]), int(self.col[t]), entries)

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

