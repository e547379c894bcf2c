"""Readers and writers for every file format the pipeline speaks.

All floats are serialized with ``repr``, as json does, which round-trips
float64 exactly; all text is UTF-8 with LF line endings. Schema violations
raise InputError with file and line diagnostics.
"""

from __future__ import annotations

import csv
import json
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from .batch import ImageTiles, TileBatch, TilePrediction, as_batch, rejection
from .catalog import RegionRegistry, SpeciesCatalog
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


def _open_write(path):
    """The text file at ``path``, opened for writing UTF-8 with LF line ends;
    a path that cannot be written is an InputError naming it."""
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None


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

    Every row must have one field per header column.
    """
    columns = ",".join(header)
    with _open_read(path) as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got is None or [h.strip() for h in got] != list(header):
            raise InputError(f"{path}:1: expected header '{columns}', got {got!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise InputError(f"{path}:{lineno}: expected '{columns}'")
            yield lineno, row


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


def _fmt_float(x: float) -> str:
    return repr(float(x))


# --- species catalog ----------------------------------------------------

def write_catalog(path, catalog: SpeciesCatalog):
    with _open_write(path) as fh:
        fh.write("species_id\n")
        for sid in catalog.species_ids:
            fh.write(f"{sid}\n")


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


# --- transect map ------------------------------------------------------

def read_transect_map(path) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for lineno, (quadrat_id, transect_id) in csv_rows(path, ("quadrat_id", "transect_id")):
        if not quadrat_id or not transect_id:
            raise InputError(f"{path}:{lineno}: expected 'quadrat_id,transect_id'")
        if quadrat_id in out:
            raise InputError(f"{path}:{lineno}: duplicate quadrat_id {quadrat_id!r}")
        out[quadrat_id] = transect_id
    return out


# --- tile predictions (NDJSON) -----------------------------------------

def read_tile_predictions(path) -> TileBatch:
    """Read tile prediction records into one batch.

    Every record is checked as ``TilePrediction`` checks it, by vectorised
    tests over the whole file; the first bad record in file order is
    reported with ``path:line``, ahead of any later unreadable line.
    Columns are typed arrays from the start, so no entry is held as a
    Python object, and an integer past 64 bits is a bad record.
    """
    codes: dict = {}
    image, rows, cols, lines, counts, idxs = (array("q") for _ in range(6))
    completes, probs = array("b"), array("d")
    add_idx, add_prob = idxs.append, probs.append
    failure = None
    try:
        for lineno, rec in ndjson_records(path):
            start = len(idxs)
            try:
                key, row, col = rec["image_id"], int(rec["row"]), int(rec["col"])
                for i, p in rec["probs"]:
                    add_idx(int(i))
                    add_prob(float(p))
                complete = bool(rec.get("complete", False))
                if not isinstance(key, str):
                    failure = InputError(f"{path}:{lineno}: {rejection(key, row, col, (), complete)}")
                else:
                    rows.append(row)
                    cols.append(col)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                failure = InputError(f"{path}:{lineno}: bad tile prediction record ({exc})")
            if failure is not None:  # drop what this record appended (a row whose col overflowed too)
                del idxs[start:], probs[start:], rows[len(lines):]
                break
            image.append(codes.setdefault(key, len(codes)))
            completes.append(complete)
            lines.append(lineno)
            counts.append(len(idxs) - start)
    except InputError as exc:
        failure = exc
    batch = TileBatch.from_columns(list(codes), image, rows, cols, completes, counts, idxs, probs)
    bad = np.flatnonzero(batch.invalid_tiles())
    if bad.size:
        # from_columns groups records by a stable sort on image code; map batch tiles back to records
        r = int(np.argsort(image, kind="stable")[bad].min())
        start = sum(counts[:r])
        entries = list(zip(idxs[start:start + counts[r]], probs[start:start + counts[r]]))
        exc = rejection(list(codes)[image[r]], rows[r], cols[r], entries, completes[r])
        raise InputError(f"{path}:{lines[r]}: {exc}")
    if failure is not None:
        raise failure
    if not len(batch):
        raise InputError(f"{path}: no tile prediction records")
    return batch


_WRITE_CHUNK = 4096  # entries of a batch formatted per write, so the text held at once stays bounded
_COMPLETE = ', "complete": true'


def _tile_lines(tiles) -> str:
    """NDJSON lines of ``(image_id, row, col, probs, complete)`` tuples, each
    byte for byte ``json.dumps`` of the record ``write_tile_predictions`` documents."""
    return "".join(
        f'{{"image_id": {json.dumps(image)}, "row": {row}, "col": {col}, '
        f'"probs": [[{"], [".join([f"{i}, {p!r}" for i, p in pairs])}]]'
        f'{_COMPLETE if complete else ""}}}\n'
        for image, row, col, pairs, complete in tiles
    )


def _chunk_bounds(offsets: np.ndarray) -> Iterator[Tuple[int, int]]:
    """Consecutive ``(lo, hi)`` tile ranges covering every tile, each cut at
    a tile boundary and holding at most ``_WRITE_CHUNK`` entries, or else one tile."""
    lo, n = 0, offsets.shape[0] - 1
    while lo < n:
        hi = max(int(np.searchsorted(offsets, offsets[lo] + _WRITE_CHUNK, side="right")) - 1, lo + 1)
        yield lo, hi
        lo = hi


def write_tile_predictions(path, preds: Iterable[TilePrediction]):
    """Write one record per tile, in iteration order; ``preds`` may be a ``TileBatch``.

    Each line is ``json.dumps`` of ``{"image_id", "row", "col", "probs"}``
    plus ``"complete": true`` on a complete tile. A batch is read by columns,
    never as ``TilePrediction``s, ``_WRITE_CHUNK`` entries at a time; other
    tiles are formatted ``_WRITE_CHUNK`` tiles at a time.
    """
    if isinstance(preds, TileBatch):
        chunks = (zip(*preds.columns(lo, hi)) for lo, hi in _chunk_bounds(preds.offsets))
    else:
        tiles = ((t.image_id, t.row, t.col, t.probs, t.complete) for t in preds)
        chunks = iter(lambda: list(islice(tiles, _WRITE_CHUNK)), [])
    with _open_write(path) as fh:
        for chunk in chunks:
            fh.write(_tile_lines(chunk))


def group_by_image(preds) -> ImageTiles:
    """Tiles by image id, images in first-appearance order; ``preds`` is a
    ``TileBatch`` or a sequence of tiles."""
    return ImageTiles(as_batch(preds))


# --- observations ------------------------------------------------------

def read_observations(path) -> List[Observation]:
    out: List[Observation] = []
    for lineno, row in csv_rows(path, ("species_id", "lat", "lon")):
        try:
            out.append(Observation(species_id=int(row[0]), lat=float(row[1]), lon=float(row[2])))
        except ValueError:
            raise InputError(f"{path}:{lineno}: malformed observation {row!r}") from None
        except InputError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
    return out


def write_observations(path, observations: Iterable[Observation]):
    with _open_write(path) as fh:
        fh.write("species_id,lat,lon\n")
        for o in observations:
            fh.write(f"{o.species_id},{_fmt_float(o.lat)},{_fmt_float(o.lon)}\n")


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


# --- species mask ------------------------------------------------------

def format_species_mask(mask: SpeciesMask, catalog: SpeciesCatalog) -> str:
    rows = (f"{sid},{1 if mask.allowed[i] else 0}\n" for i, sid in enumerate(catalog.species_ids))
    return "species_id,allowed\n" + "".join(rows)


def write_species_mask(path, mask: SpeciesMask, catalog: SpeciesCatalog):
    with _open_write(path) as fh:
        fh.write(format_species_mask(mask, catalog))


# --- embeddings --------------------------------------------------------

def read_embeddings(path) -> EmbeddingMatrix:
    ids: List[str] = []
    values = array("d")
    width = None
    for lineno, rec in ndjson_records(path):
        start = len(values)
        try:
            ids.append(rec["image_id"])
            values.extend(float(x) for x in rec["vector"])
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
        for image_id, row in zip(emb.image_ids, emb.data):
            fh.write(json.dumps({"image_id": image_id, "vector": [float(x) for x in row]}) + "\n")


# --- projection --------------------------------------------------------

def write_projection(path, projection: Projection):
    with _open_write(path) as fh:
        fh.write("image_id,x,y\n")
        for image_id, (x, y) in zip(projection.image_ids, projection.points):
            fh.write(f"{image_id},{_fmt_float(x)},{_fmt_float(y)}\n")


def read_projection(path) -> Projection:
    ids: List[str] = []
    pts: List[Tuple[float, float]] = []
    for lineno, row in csv_rows(path, ("image_id", "x", "y")):
        try:
            pts.append((float(row[1]), float(row[2])))
        except ValueError:
            raise InputError(f"{path}:{lineno}: malformed projection row {row!r}") from None
        ids.append(row[0])
    if not ids:
        raise InputError(f"{path}: no projection rows")
    return Projection(image_ids=ids, points=np.asarray(pts))


# --- cluster assignments and priors ------------------------------------

def write_assignments(path, image_ids: Sequence[str], assignments: Sequence[int]):
    if len(image_ids) != len(assignments):
        raise InputError("image ids and assignments must align")
    with _open_write(path) as fh:
        fh.write("image_id,cluster\n")
        for image_id, cluster in zip(image_ids, assignments):
            fh.write(f"{image_id},{int(cluster)}\n")


def read_assignments(path) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for lineno, row in csv_rows(path, ("image_id", "cluster")):
        if row[0] in out:
            raise InputError(f"{path}:{lineno}: duplicate image_id {row[0]!r}")
        try:
            out[row[0]] = int(row[1])
        except ValueError:
            raise InputError(f"{path}:{lineno}: malformed assignment row {row!r}") from None
    if not out:
        raise InputError(f"{path}: no assignment rows")
    return out


def write_region_cluster_map(path, mapping: Mapping[str, int]):
    with _open_write(path) as fh:
        fh.write("region,cluster\n")
        for region in mapping:
            fh.write(f"{region},{int(mapping[region])}\n")


def read_region_cluster_map(path) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for lineno, (region, cluster) in csv_rows(path, ("region", "cluster")):
        if not region:
            raise InputError(f"{path}:{lineno}: expected 'region,cluster'")
        if region in out:
            raise InputError(f"{path}:{lineno}: duplicate region {region!r}")
        try:
            out[region] = int(cluster)
        except ValueError:
            raise InputError(f"{path}:{lineno}: cluster {cluster!r} is not an integer") from None
    if not out:
        raise InputError(f"{path}: no region rows")
    return out


def write_priors(path, priors: ClusterPriors):
    with _open_write(path) as fh:
        for c in range(priors.k):
            fh.write(json.dumps({"cluster": c, "prior": [float(x) for x in priors.priors[c]]}) + "\n")


def read_priors(path) -> ClusterPriors:
    """Prior rows by cluster id 0..k-1: one width, entries finite and > 0, each row summing to 1."""
    rows: Dict[int, np.ndarray] = {}
    for lineno, rec in ndjson_records(path):
        try:
            cluster = int(rec["cluster"])
            prior = np.array([float(x) for x in rec["prior"]])
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


# --- ground truth ------------------------------------------------------

def read_ground_truth(path, transect_map: Mapping[str, str] | None = None) -> GroundTruth:
    """Load truth sets keyed by quadrat id (species ids, not dense indices).

    An empty transect field falls back to the quadrat-id heuristic; an
    explicit transect map overrides both.
    """
    from .catalog import transect_of

    truth: Dict[str, frozenset] = {}
    transects: Dict[str, str] = {}
    for lineno, (quadrat_id, transect_id, species_ids) in csv_rows(
        path, ("quadrat_id", "transect_id", "species_ids")
    ):
        if not quadrat_id:
            raise InputError(f"{path}:{lineno}: expected 'quadrat_id,transect_id,species_ids'")
        if quadrat_id in truth:
            raise InputError(f"{path}:{lineno}: duplicate quadrat_id {quadrat_id!r}")
        try:
            truth[quadrat_id] = frozenset(map(int, species_ids.split()))
        except ValueError:
            raise InputError(f"{path}:{lineno}: species_ids must be space-separated integers") from None
        if transect_map is not None and quadrat_id in transect_map:
            transects[quadrat_id] = transect_map[quadrat_id]
        elif transect_id:
            transects[quadrat_id] = transect_id
        else:
            transects[quadrat_id] = transect_of(quadrat_id)
    if not truth:
        raise InputError(f"{path}: no ground truth rows")
    return GroundTruth(truth=truth, transects=transects)


def write_ground_truth(path, truth: GroundTruth):
    with _open_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
        writer.writerow(["quadrat_id", "transect_id", "species_ids"])
        for quadrat_id in truth.truth:
            species = " ".join(str(s) for s in sorted(truth.truth[quadrat_id]))
            writer.writerow([quadrat_id, truth.transects[quadrat_id], species])


# --- training frequency counts ------------------------------------------

def read_training_counts(path) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for lineno, row in csv_rows(path, ("species_id", "count")):
        try:
            species_id, count = int(row[0]), int(row[1])
        except ValueError:
            raise InputError(f"{path}:{lineno}: malformed count row {row!r}") from None
        if species_id in out:
            raise InputError(f"{path}:{lineno}: duplicate species_id {species_id}")
        out[species_id] = count
    if not out:
        raise InputError(f"{path}: no count rows")
    return out


def write_training_counts(path, counts: Mapping[int, int]):
    with _open_write(path) as fh:
        fh.write("species_id,count\n")
        for sid in counts:
            fh.write(f"{sid},{int(counts[sid])}\n")


# --- submissions --------------------------------------------------------

@dataclass(frozen=True)
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
        row.__dict__.update(quadrat_id=quadrat_id, species_ids=species_ids)
        return row


def write_submission(path, rows: Sequence[SubmissionRow]):
    if not rows:
        raise InputError("submission must contain at least one row")
    seen = set()
    for row in rows:
        if row.quadrat_id in seen:
            raise InputError(f"duplicate quadrat_id {row.quadrat_id!r} in submission")
        seen.add(row.quadrat_id)
    with _open_write(path) as fh:
        fh.write("quadrat_id;species_ids\n")
        for row in rows:
            ids = ", ".join(str(s) for s in row.species_ids)
            fh.write(f"{row.quadrat_id};[{ids}]\n")


def read_submission(path) -> List[SubmissionRow]:
    rows: List[SubmissionRow] = []
    seen = set()
    with _open_read(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != "quadrat_id;species_ids":
            raise InputError(f"{path}:1: expected header 'quadrat_id;species_ids'")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
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
