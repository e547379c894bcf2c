"""Readers and writers for every file format the pipeline speaks.

All floats are serialized with ``repr``, as json does, which round-trips
float64 exactly; all text is UTF-8 with LF line endings. Schema violations
raise InputError with file and line diagnostics.
"""

from __future__ import annotations

import csv
import json
import math
import os
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import batch as _batch
from .batch import ImageTiles, TileBatch, as_batch, chunk_bounds, first, rejection
from .catalog import RegionRegistry, SpeciesCatalog, transect_of
from .errors import InputError, InvariantViolation
from .geo import GeoRegion, Observation, SpeciesMask
from .metrics import GroundTruth, ScoreReport
from .projection import EmbeddingMatrix, Projection
from .clustering import ClusterPriors


@contextmanager
def _open_read(path):
    """The text file at ``path``; bytes that are not UTF-8 are an InputError naming it."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"{path}: file not found")
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    with fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise InputError(f"{path}: not valid UTF-8 text") from None


def _open_write(path, name=None):
    """The text file at ``path``, opened for writing UTF-8 with LF line ends;
    a path that cannot be written is an InputError naming it (or ``name``)."""
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise InputError(f"{name or path}: {exc.strerror or exc}") from None


def _make_dir(path) -> Path:
    """Directory ``path``, created with its parents if missing; one that
    cannot be made is an InputError naming it."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    return path


def csv_rows(path, header: Sequence[str]) -> Iterator[Tuple[int, List[str]]]:
    """Check a CSV file's header and yield its non-blank ``(lineno, row)`` pairs.

    Every row must have one field per header column. ``lineno`` is the line
    the row ends on, so a quoted field spanning lines shifts no later row.
    """
    columns = ",".join(header)
    with _open_read(path) as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader, None)
            if got is None or [h.strip() for h in got] != list(header):
                raise InputError(f"{path}:1: expected header '{columns}', got {got!r}")
            for row in reader:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != len(header):
                    raise InputError(f"{path}:{reader.line_num}: expected '{columns}'")
                yield reader.line_num, row
        except csv.Error as exc:
            raise InputError(f"{path}:{reader.line_num}: {exc}") from None


# --- CSV formats -------------------------------------------------------

class CsvColumn(NamedTuple):
    """One CSV column: its header name, the parse of its text (a ValueError
    makes the row malformed) and the text written for a value."""

    name: str
    parse: Callable[[str], object] = str
    format: Callable[[object], str] = str


class CsvFormat(NamedTuple):
    """One CSV format: its columns, the column whose values must be non-empty
    and unique, and what a row's parsed values are made into (else a tuple)."""

    columns: Tuple[CsvColumn, ...]
    key: Optional[str] = None
    make: Optional[Callable] = None


def _checked(parse, ok):
    """``parse``, where a value that ``ok`` rejects is a ValueError too."""
    def checked(text: str):
        value = parse(text)
        if not ok(value):
            raise ValueError(text)
        return value
    return checked


def _species_set(text: str) -> frozenset:
    try:
        return frozenset(map(int, text.split()))
    except ValueError:
        raise InputError("species_ids must be space-separated integers") from None


_INT = (int, lambda v: str(int(v)))  # numpy integers and bools write as Python ints
_FLOAT = (float, lambda x: repr(float(x)))
_FINITE = (_checked(float, math.isfinite), _FLOAT[1])
_SPECIES = (_species_set, lambda ids: " ".join(map(str, sorted(ids))))
_BIT = (_checked(int, (0, 1).__contains__), _INT[1])  # 1 allowed, 0 masked

CSV_FORMATS: Dict[str, CsvFormat] = {
    "catalog": CsvFormat((CsvColumn("species_id", *_INT),), key="species_id"),
    "transect map": CsvFormat((CsvColumn("quadrat_id"), CsvColumn("transect_id", _checked(str, bool))), key="quadrat_id"),
    "observation": CsvFormat(
        (CsvColumn("species_id", *_INT), CsvColumn("lat", *_FLOAT), CsvColumn("lon", *_FLOAT)), make=Observation
    ),
    "species mask": CsvFormat((CsvColumn("species_id", *_INT), CsvColumn("allowed", *_BIT)), key="species_id"),
    "projection": CsvFormat((CsvColumn("image_id"), CsvColumn("x", *_FINITE), CsvColumn("y", *_FINITE)), key="image_id"),
    "assignment": CsvFormat((CsvColumn("image_id"), CsvColumn("cluster", *_INT)), key="image_id"),
    "region cluster": CsvFormat((CsvColumn("region"), CsvColumn("cluster", *_INT)), key="region"),
    "ground truth": CsvFormat(
        (CsvColumn("quadrat_id"), CsvColumn("transect_id"), CsvColumn("species_ids", *_SPECIES)), key="quadrat_id"
    ),
    "training count": CsvFormat((CsvColumn("species_id", *_INT), CsvColumn("count", *_INT)), key="species_id"),
}


def iter_csv(path, name: str) -> Iterator:
    """Yield the rows of the ``CSV_FORMATS[name]`` file at ``path``, parsed
    and made, one at a time.

    A row that does not parse, an empty or repeated key, and a file with no
    rows are each an InputError at ``path:line`` (at ``path`` for no rows),
    raised when the reader reaches it.
    """
    fmt = CSV_FORMATS[name]
    header = [c.name for c in fmt.columns]
    parsers = [c.parse for c in fmt.columns]
    key = None if fmt.key is None else header.index(fmt.key)
    seen, empty = set(), True
    for lineno, row in csv_rows(path, header):
        if key is not None and not row[key]:
            raise InputError(f"{path}:{lineno}: empty {fmt.key}")
        try:
            values = tuple([parse(text) for parse, text in zip(parsers, row)])
            made = values if fmt.make is None else fmt.make(*values)
        except ValueError:
            raise InputError(f"{path}:{lineno}: malformed {name} row {row!r}") from None
        except InputError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
        if key is not None:
            if values[key] in seen:
                raise InputError(f"{path}:{lineno}: duplicate {fmt.key} {values[key]!r}")
            seen.add(values[key])
        empty = False
        yield made
    if empty:
        raise InputError(f"{path}: no {name} rows")


def read_csv(path, name: str) -> list:
    """The rows of the ``CSV_FORMATS[name]`` file at ``path``, as ``iter_csv`` reads them."""
    return list(iter_csv(path, name))


def write_csv(fh, name: str, rows: Iterable[Sequence]):
    """Write the ``CSV_FORMATS[name]`` header, then ``rows`` as their columns
    format them, quoting a field only where RFC 4180 needs it; a file holding a
    bare ``\\r``, which the minimal writer leaves unquoted, is quoted in full."""
    columns = CSV_FORMATS[name].columns
    text = [list(map(c.format, values)) for c, values in zip(columns, zip(*rows))]
    full = any("\r" in "".join(column) for column in text)
    writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL if full else csv.QUOTE_MINIMAL)
    writer.writerow([c.name for c in columns])
    writer.writerows(zip(*text))


def write_catalog(path, catalog: SpeciesCatalog):
    with _open_write(path) as fh:
        write_csv(fh, "catalog", ((sid,) for sid in catalog.species_ids))


def read_transect_map(path) -> Dict[str, str]:
    return dict(read_csv(path, "transect map"))


def read_observations(path) -> List[Observation]:
    return read_csv(path, "observation")


def write_observations(path, observations: Iterable[Observation]):
    with _open_write(path) as fh:
        write_csv(fh, "observation", ((o.species_id, o.lat, o.lon) for o in observations))


def format_species_mask(mask: SpeciesMask, catalog: SpeciesCatalog) -> str:
    text = StringIO()
    write_csv(text, "species mask", zip(catalog.species_ids, mask.allowed))
    return text.getvalue()


def write_species_mask(path, mask: SpeciesMask, catalog: SpeciesCatalog):
    with _open_write(path) as fh:
        fh.write(format_species_mask(mask, catalog))


def write_projection(path, projection: Projection):
    with _open_write(path) as fh:
        write_csv(fh, "projection", zip(projection.image_ids, *projection.points.T))


def read_projection(path) -> Projection:
    rows = read_csv(path, "projection")
    return Projection(image_ids=[r[0] for r in rows], points=np.array([r[1:] for r in rows]))


def write_assignments(path, image_ids: Sequence[str], assignments: Sequence[int]):
    if len(image_ids) != len(assignments):
        raise InputError("image ids and assignments must align")
    with _open_write(path) as fh:
        write_csv(fh, "assignment", zip(image_ids, assignments))


def read_assignments(path) -> Dict[str, int]:
    return dict(read_csv(path, "assignment"))


def write_region_cluster_map(path, mapping: Mapping[str, int]):
    with _open_write(path) as fh:
        write_csv(fh, "region cluster", mapping.items())


def read_region_cluster_map(path) -> Dict[str, int]:
    return dict(read_csv(path, "region cluster"))


def ground_truth_rows(path, transect_map: Mapping[str, str] | None = None) -> Iterator[Tuple[str, str, frozenset]]:
    """Yield the ``(quadrat, transect, truth set)`` rows of a truth file one
    at a time (species ids, not dense indices).

    An empty transect field falls back to the quadrat-id heuristic; an
    explicit transect map overrides both.
    """
    overrides = transect_map or {}
    for q, t, species in iter_csv(path, "ground truth"):
        yield q, overrides[q] if q in overrides else (t or transect_of(q)), species


def write_ground_truth(path, truth: GroundTruth):
    with _open_write(path) as fh:
        write_csv(fh, "ground truth", ((q, truth.transects[q], s) for q, s in truth.truth.items()))


def read_training_counts(path) -> Dict[int, int]:
    return dict(read_csv(path, "training count"))


def write_training_counts(path, counts: Mapping[int, int]):
    with _open_write(path) as fh:
        write_csv(fh, "training count", counts.items())


def _loads(text: str, path, lineno=None):
    """``json.loads(text)``, failing with an InputError at ``path:line``.

    The line is ``lineno`` (an NDJSON line) or else the decoder's. An integer
    past the int-string conversion limit, or nesting past the recursion limit,
    fails without a decoder line and is reported at ``path`` when no
    ``lineno`` is given.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{lineno or exc.lineno}: invalid JSON ({exc.msg})") from None
    except (ValueError, RecursionError) as exc:
        where = path if lineno is None else f"{path}:{lineno}"
        raise InputError(f"{where}: invalid JSON ({exc})") from None


def read_json(path):
    """The one JSON document in the file at ``path``."""
    with _open_read(path) as fh:
        text = fh.read()
    return _loads(text, path)


_raw_decode = json.JSONDecoder().raw_decode


def ndjson_records(path) -> Iterator[Tuple[int, object]]:
    """Yield the ``(lineno, record)`` pairs of the non-blank lines of an NDJSON file."""
    with _open_read(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record, end = _raw_decode(line)
            except (ValueError, RecursionError):
                end = None
            if end != len(line):  # json.loads words the error as it always has
                record = _loads(line, path, lineno)
            yield lineno, record


# --- region registry ---------------------------------------------------

def read_region_registry(path) -> RegionRegistry:
    with _open_read(path) as fh:
        names = [line.strip() for line in fh if line.strip()]
    if not names:
        raise InputError(f"{path}: region registry is empty")
    try:
        return RegionRegistry(regions=tuple(names))
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def write_region_registry(path, registry: RegionRegistry):
    with _open_write(path) as fh:
        for name in registry:
            fh.write(name + "\n")


# --- tile predictions (NDJSON) -----------------------------------------

def tile_slices(path) -> Iterator[TileBatch]:
    """The tile file at ``path`` as image-aligned batches, read one at a time.

    A slice is cut at the first new image once it holds at least
    ``4 * CHUNK_ENTRIES`` entries, so no batch of the whole file is built;
    the slices, in order, hold the batch ``read_tile_predictions`` returns.
    Each slice is checked as that reader checks the file, and its first bad
    record is raised as the reader reaches the cut; an unreadable line is
    raised after the records before it. The file must keep each image's
    records together: an image id met again after another image's records,
    in this slice or an earlier one, is a bad record at its line.
    """
    return _tile_batches(path, 4 * _batch.CHUNK_ENTRIES)


def read_tile_predictions(path) -> TileBatch:
    """Read tile prediction records into one batch.

    Every record is checked as ``TilePrediction`` checks it, by vectorised
    tests over the whole file; the first bad record in file order is
    reported with ``path:line``, ahead of any later unreadable line.
    Columns are typed arrays from the start, so no entry is held as a
    Python object. Values are not converted: a row, col or index that is not
    a JSON integer, a probability that is not a number, a ``complete`` that
    is not a bool and an integer past 64 bits are bad records, as is a
    record whose image id reappears after other images' records, whatever
    else it holds.
    """
    return next(_tile_batches(path, math.inf))


def _tile_batches(path, limit) -> Iterator[TileBatch]:
    """The record loop of both tile readers: batches of whole images, cut at
    the first new image once ``limit`` entries are read (never at ``math.inf``).
    A batch views the arrays it was read into, which then cannot grow, so a
    cut hands them over and starts new ones."""
    seen: set = set()  # image ids read so far, in any batch
    ids: list = []  # this batch's image ids; an image's code is its position
    current = None  # the previous record's image id
    # per record its image code, row, col, complete flag, entry count and line; per entry its index and probability
    columns = image, rows, cols, completes, counts, lines, idxs, probs = tuple(map(array, "qqqbqqqd"))
    add_idx, add_prob = idxs.append, probs.append
    failure = None
    records = ndjson_records(path)
    try:
        while True:
            try:
                lineno, rec = next(records)
            except StopIteration:
                break
            except InputError as exc:  # an unreadable line ends the records
                failure = exc
                break
            key = rec.get("image_id") if isinstance(rec, dict) else None
            if key != current:
                if len(idxs) >= limit:  # cut ahead of a new image
                    yield _checked_batch(path, ids, *columns)
                    ids = []
                    columns = image, rows, cols, completes, counts, lines, idxs, probs = tuple(map(array, "qqqbqqqd"))
                    add_idx, add_prob = idxs.append, probs.append
                if key.__class__ is str and key in seen:  # checked before the record is parsed
                    failure = InputError(f"{path}:{lineno}: image {key!r} reappears after other images' records")
                    break
            start = len(idxs)
            try:  # JSON types are checked before appending; an array still rejects an integer past 64 bits
                key, row, col = rec["image_id"], rec["row"], rec["col"]
                if row.__class__ is not int or col.__class__ is not int:
                    raise TypeError(f"row and col must be integers, not {json.dumps(row)} and {json.dumps(col)}")
                rows.append(row)
                cols.append(col)
                for i, p in rec["probs"]:
                    if i.__class__ is not int or (p.__class__ is not float and p.__class__ is not int):
                        raise TypeError(f"entry {json.dumps([i, p])} must hold an integer index and a number")
                    add_idx(i)
                    add_prob(p)
                complete = rec.get("complete", False)
                if complete.__class__ is not bool:
                    raise TypeError(f"complete must be true or false, not {json.dumps(complete)}")
                if not isinstance(key, str):
                    failure = InputError(f"{path}:{lineno}: {rejection(key, row, col, (), complete)}")
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                failure = InputError(f"{path}:{lineno}: bad tile prediction record ({exc})")
            if failure is not None:  # drop what this record appended
                del idxs[start:], probs[start:], rows[len(lines):], cols[len(lines):]
                break
            if key != current:
                seen.add(key)
                ids.append(key)
                current = key
            image.append(len(ids) - 1)
            completes.append(complete)
            lines.append(lineno)
            counts.append(len(idxs) - start)
    finally:
        records.close()
    batch = _checked_batch(path, ids, *columns)
    if failure is not None:
        raise failure
    if not len(batch):
        raise InputError(f"{path}: no tile prediction records")
    yield batch


def _checked_batch(path, ids, image, rows, cols, completes, counts, lines, idxs, probs) -> TileBatch:
    """The batch of these record columns; the first record ``TilePrediction``
    rejects, in file order, is an InputError at its ``path:line``."""
    batch = TileBatch.from_columns(ids, image, rows, cols, completes, counts, idxs, probs)
    bad = np.flatnonzero(batch.invalid_tiles())
    if bad.size:
        r = int(bad[0])  # tiles are in record order
        start = sum(counts[:r])
        entries = list(zip(idxs[start:start + counts[r]], probs[start:start + counts[r]]))
        exc = rejection(ids[image[r]], rows[r], cols[r], entries, completes[r])
        raise InputError(f"{path}:{lines[r]}: {exc}")
    return batch


_COMPLETE = ', "complete": true'


def _texts(values: np.ndarray, text) -> List[str]:
    """``text`` of each value, computed once per distinct value; values that
    compare equal must share a text, as no -0.0 sits beside a 0.0 here."""
    distinct, code = np.unique(values, return_inverse=True)
    return np.array(list(map(text, distinct.tolist())), dtype=object)[code].tolist()


def _tile_lines(batch: TileBatch, lo: int, hi: int) -> str:
    """NDJSON lines of tiles ``lo`` to ``hi``, each byte for byte ``json.dumps``
    of the record ``write_tile_predictions`` documents: each image id is
    encoded once, and the entries' text comes from one pass over the flat
    columns, sliced per tile."""
    start, stop = batch.offsets[lo], batch.offsets[hi]
    codes = batch.image[lo:hi].tolist()
    base = codes[0]
    images = [json.dumps(image_id) for image_id in batch.image_ids[base:codes[-1] + 1]]
    entries = list(map(", ".join, zip(_texts(batch.idx[start:stop], str), _texts(batch.prob[start:stop], repr))))
    bounds = (batch.offsets[lo:hi + 1] - start).tolist()
    return "".join(
        f'{{"image_id": {images[code - base]}, "row": {row}, "col": {col}, "probs": [[{"], [".join(entries[a:b])}]]'
        f'{_COMPLETE if complete else ""}}}\n'
        for code, row, col, a, b, complete in zip(
            codes, batch.row[lo:hi].tolist(), batch.col[lo:hi].tolist(), bounds, bounds[1:],
            batch.complete[lo:hi].tolist(),
        )
    )


def write_tile_predictions(path, preds):
    """Write one record per tile of ``preds``, a stage input (see ``as_batch``), in batch order,
    so a list whose images interleave is written grouped and reads back.

    Each line is ``json.dumps`` of ``{"image_id", "row", "col", "probs"}``
    plus ``"complete": true`` on a complete tile, formatted from the batch's
    columns in tile-aligned ``chunk_bounds``.
    """
    batch = as_batch(preds)
    with _open_write(path) as fh:
        _write_tiles(fh, batch)


def _write_tiles(fh, batch: TileBatch):
    for lo, hi in chunk_bounds(batch.offsets):
        fh.write(_tile_lines(batch, lo, hi))


class StagedTileFile:
    """A tile file written batch by batch under a hidden name beside ``path``
    and moved to ``path`` by ``commit``; leaving the ``with`` block removes
    what was not committed. A run that fails before the file is whole so
    leaves neither a partial file nor a touched ``path``. Errors name
    ``path``, as ``write_tile_predictions`` would."""

    def __init__(self, path):
        self.path = Path(path)
        self._partial = self.path.with_name(f".{self.path.name}.partial")
        self._fh = None

    def write(self, batch: TileBatch):
        if self._fh is None:
            self._fh = _open_write(self._partial, self.path)
        _write_tiles(self._fh, batch)

    def commit(self):
        if self._fh is None:
            self._fh = _open_write(self._partial, self.path)
        self._fh.close()
        try:
            os.replace(self._partial, self.path)
        except OSError as exc:
            raise InputError(f"{self.path}: {exc.strerror or exc}") from None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._fh is not None:
            self._fh.close()
            self._partial.unlink(missing_ok=True)


def group_by_image(preds) -> ImageTiles:
    """Tiles by image id, images in first-appearance order; ``preds`` is a
    ``TileBatch`` or a sequence of tiles."""
    return ImageTiles(as_batch(preds))


# --- geographic regions (polygons) -------------------------------------

def read_geo_regions(path) -> List[GeoRegion]:
    data = read_json(path)
    if not isinstance(data, list) or not data:
        raise InputError(f"{path}: expected a non-empty JSON list of regions")
    regions = []
    for i, rec in enumerate(data):
        try:
            regions.append(GeoRegion(name=rec["name"], polygon=rec["polygon"]))
        except (KeyError, TypeError) as exc:
            raise InputError(f"{path}: region #{i}: bad record ({exc})") from None
        except InputError as exc:
            raise InputError(f"{path}: region #{i}: {exc}") from None
    return regions


def write_geo_regions(path, regions: Iterable[GeoRegion]):
    payload = [{"name": r.name, "polygon": [[lat, lon] for lat, lon in r.polygon]} for r in regions]
    with _open_write(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _numbers(values, name) -> Iterator[float]:
    """``values`` as floats; a value that is not a JSON number (a bool is not) is a TypeError naming it."""
    for x in values:
        if x.__class__ is not float and x.__class__ is not int:
            raise TypeError(f"{name} values must be numbers, not {json.dumps(x)}")
        yield float(x)


# --- embeddings --------------------------------------------------------

def read_embeddings(path) -> EmbeddingMatrix:
    ids: List[str] = []
    values = array("d")
    width = None
    for lineno, rec in ndjson_records(path):
        start = len(values)
        try:
            ids.append(rec["image_id"])
            values.extend(_numbers(rec["vector"], "vector"))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"{path}:{lineno}: bad embedding record ({exc})") from None
        if width is None:
            width = len(values)
        elif len(values) - start != width:
            raise InputError(f"{path}:{lineno}: vector length {len(values) - start} != {width}")
    if not ids:
        raise InputError(f"{path}: no embedding records")
    try:
        return EmbeddingMatrix(image_ids=ids, data=np.frombuffer(values).reshape(len(ids), width))
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def write_embeddings(path, emb: EmbeddingMatrix):
    with _open_write(path) as fh:
        for image_id, row in zip(emb.image_ids, emb.data.tolist()):
            fh.write(json.dumps({"image_id": image_id, "vector": row}) + "\n")


# --- cluster priors ----------------------------------------------------

def write_priors(path, priors: ClusterPriors):
    """One record per cluster; a row that ``read_priors`` would reject (an
    entry that is not > 0) is an InputError naming it, before any write."""
    c = first(~np.all(priors.priors > 0.0, axis=1))
    if c is not None:
        raise InputError(f"{path}: cluster {c}: prior entries must be finite and > 0")
    with _open_write(path) as fh:
        for c, row in enumerate(priors.priors.tolist()):
            fh.write(json.dumps({"cluster": c, "prior": row}) + "\n")


def read_priors(path) -> ClusterPriors:
    """Prior rows by cluster id 0..k-1: one width, entries finite and > 0, each row summing to 1."""
    rows: Dict[int, np.ndarray] = {}
    for lineno, rec in ndjson_records(path):
        try:
            cluster = rec["cluster"]
            if cluster.__class__ is not int:
                raise TypeError(f"cluster must be an integer, not {json.dumps(cluster)}")
            prior = np.array(list(_numbers(rec["prior"], "prior")))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"{path}:{lineno}: bad prior record ({exc})") from None
        if cluster in rows:
            raise InputError(f"{path}:{lineno}: duplicate cluster {cluster}")
        if not np.all(np.isfinite(prior) & (prior > 0.0)):
            raise InputError(f"{path}:{lineno}: prior entries must be finite and > 0")
        try:
            ClusterPriors([prior])
        except InvariantViolation as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
        rows[cluster] = prior
    if not rows:
        raise InputError(f"{path}: no prior records")
    if sorted(rows) != list(range(len(rows))):
        raise InputError(f"{path}: cluster ids must be contiguous 0..k-1, got {sorted(rows)}")
    widths = sorted({row.shape[0] for row in rows.values()})
    if len(widths) > 1:
        raise InputError(f"{path}: prior rows must have one width, got {widths}")
    return ClusterPriors(priors=np.stack([rows[c] for c in range(len(rows))]))


# --- submissions --------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SubmissionRow:
    quadrat_id: str
    species_ids: tuple

    def __post_init__(self):
        ids = tuple(int(s) for s in self.species_ids)
        object.__setattr__(self, "species_ids", ids)
        if not self.quadrat_id:
            raise InputError("submission rows need a quadrat_id")
        if not ids:
            raise InputError(f"submission for {self.quadrat_id!r} has no species")
        if len(set(ids)) != len(ids):
            raise InputError(f"submission for {self.quadrat_id!r} repeats a species")

    @classmethod
    def _trusted(cls, quadrat_id, species_ids: tuple) -> "SubmissionRow":
        """A row the vote built: a non-empty tuple of distinct catalog ids."""
        row = object.__new__(cls)
        object.__setattr__(row, "quadrat_id", quadrat_id)
        object.__setattr__(row, "species_ids", species_ids)
        return row


def check_quadrat_id(q: str):
    """Reject an id that an unquoted submission row would not read back."""
    if ";" in q or "\n" in q or "\r" in q:
        raise InputError(f"quadrat_id {q!r} holds ';' or a line break, which a submission cannot hold")


def write_submission(path, rows: Sequence[SubmissionRow]):
    if not rows:
        raise InputError("submission must contain at least one row")
    seen = set()
    for row in rows:
        q = row.quadrat_id
        if q in seen:
            raise InputError(f"duplicate quadrat_id {q!r} in submission")
        check_quadrat_id(q)
        seen.add(q)
    with _open_write(path) as fh:
        fh.write("quadrat_id;species_ids\n")
        for row in rows:
            ids = ", ".join(str(s) for s in row.species_ids)
            fh.write(f"{row.quadrat_id};[{ids}]\n")


def read_submission(path) -> List[SubmissionRow]:
    rows: List[SubmissionRow] = []
    seen = set()
    with _open_read(path) as fh:
        header = fh.readline().removesuffix("\n").removesuffix("\r")  # an LF, CRLF or CR line end
        if header != "quadrat_id;species_ids":
            raise InputError(f"{path}:1: expected header 'quadrat_id;species_ids'")
        for lineno, line in enumerate(fh, start=2):
            line = line.removesuffix("\n").removesuffix("\r")
            if not line:
                continue
            quadrat_id, sep, rest = line.partition(";")
            if not sep or not rest.startswith("[") or not rest.endswith("]"):
                raise InputError(f"{path}:{lineno}: expected 'quadrat_id;[id1, id2, ...]'")
            if quadrat_id in seen:
                raise InputError(f"{path}:{lineno}: duplicate quadrat_id {quadrat_id!r}")
            seen.add(quadrat_id)
            body = rest[1:-1].strip()
            try:
                ids = tuple(int(tok.strip()) for tok in body.split(",")) if body else ()
            except ValueError:
                raise InputError(f"{path}:{lineno}: species ids must be integers") from None
            try:
                rows.append(SubmissionRow(quadrat_id=quadrat_id, species_ids=ids))
            except InputError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise InputError(f"{path}: no submission rows")
    return rows


# --- score report -------------------------------------------------------

def write_score_report(path, report: ScoreReport):
    payload = {
        "final": report.final,
        "n_transects": report.n_transects,
        "per_transect": {
            tid: {"mean_f1": report.per_transect[tid], "n_quadrats": report.transect_sizes[tid]}
            for tid in report.per_transect
        },
        "per_image": report.per_image,
        "missing_predictions": report.missing_predictions,
        "unknown_predictions": report.unknown_predictions,
    }
    with _open_write(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
