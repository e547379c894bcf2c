"""File format round-trips and diagnostics."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from floratile.catalog import RegionRegistry, SpeciesCatalog, load_catalog
from floratile.clustering import ClusterPriors, estimate_priors
from floratile.errors import InputError
from floratile.geo import GeoRegion, Observation, SpeciesMask
from floratile.pipeline import RunConfig
from floratile.cli import _RUN_OPTIONS, _load_run_config, build_parser
from floratile.io import (
    CSV_FORMATS,
    SubmissionRow,
    csv_rows,
    ground_truth_rows,
    group_by_image,
    ndjson_records,
    read_assignments,
    read_csv,
    read_embeddings,
    read_geo_regions,
    read_observations,
    read_priors,
    read_projection,
    read_region_cluster_map,
    read_region_registry,
    read_submission,
    read_tile_predictions,
    read_training_counts,
    read_transect_map,
    write_assignments,
    write_catalog,
    write_csv,
    write_embeddings,
    write_geo_regions,
    write_ground_truth,
    write_observations,
    write_priors,
    write_projection,
    write_region_cluster_map,
    write_region_registry,
    write_score_report,
    write_species_mask,
    write_submission,
    write_tile_predictions,
    write_training_counts,
)
from floratile.metrics import GroundTruth, final_score
from floratile.projection import EmbeddingMatrix, Projection
from floratile.voting import TilePrediction


def _read_truth(path, transect_map=None) -> GroundTruth:
    """The ``GroundTruth`` of a truth file's rows, as ``ground_truth_rows`` reads them."""
    rows = list(ground_truth_rows(path, transect_map))
    return GroundTruth(truth={q: species for q, _, species in rows}, transects={q: t for q, t, _ in rows})


def test_catalog_round_trip(tmp_path):
    path = tmp_path / "catalog.csv"
    catalog = SpeciesCatalog([1400101, 42, 7])
    write_catalog(path, catalog)
    again = load_catalog(path)
    assert again.species_ids == [1400101, 42, 7]


def test_region_registry_round_trip(tmp_path):
    path = tmp_path / "regions.txt"
    registry = RegionRegistry(regions=("CBN-Pla", "CBN-PdlC", "RNNB"))
    write_region_registry(path, registry)
    again = read_region_registry(path)
    assert list(again) == ["CBN-Pla", "CBN-PdlC", "RNNB"]


def test_region_registry_empty_rejected(tmp_path):
    path = tmp_path / "regions.txt"
    path.write_text("\n\n")
    with pytest.raises(InputError):
        read_region_registry(path)


def test_transect_map_read_and_duplicate(tmp_path):
    path = tmp_path / "map.csv"
    path.write_text("quadrat_id,transect_id\nQ1,T1\nQ2,T1\n")
    assert read_transect_map(path) == {"Q1": "T1", "Q2": "T1"}
    path.write_text("quadrat_id,transect_id\nQ1,T1\nQ1,T2\n")
    with pytest.raises(InputError, match=r":3: duplicate"):
        read_transect_map(path)


def test_tile_predictions_round_trip_exact(tmp_path):
    path = tmp_path / "preds.ndjson"
    rng = np.random.default_rng(3)
    preds = []
    for i in range(20):
        raw = rng.random(3) + 1e-6
        raw = raw / raw.sum()
        probs = [(int(j), float(p)) for j, p in enumerate(raw)]
        preds.append(
            TilePrediction(image_id=f"img{i}", row=i % 4, col=i % 3, probs=probs, complete=True)
        )
    write_tile_predictions(path, preds)
    again = read_tile_predictions(path)
    assert len(again) == len(preds)
    for a, b in zip(preds, again.tiles(0, len(again))):
        assert a.image_id == b.image_id
        assert (a.row, a.col) == (b.row, b.col)
        assert b.probs == sorted(a.probs, key=lambda e: (-e[1], e[0]))  # stored order; repr keeps floats bit-exact
        assert a.complete == b.complete


def test_tile_predictions_bad_json_line_number(tmp_path):
    path = tmp_path / "preds.ndjson"
    good = json.dumps(
        {"image_id": "a", "row": 0, "col": 0, "probs": [[1, 0.5]], "complete": False}
    )
    path.write_text(good + "\n{broken\n")
    with pytest.raises(InputError, match=r":2: invalid JSON"):
        read_tile_predictions(path)


BIG_INT = "9" * 5000  # past the int-string conversion limit of 4300 digits


def test_ndjson_integer_past_digit_limit_is_input_error(tmp_path):
    path = tmp_path / "preds.ndjson"
    path.write_text('{"row": 0}\n{"row": %s}\n' % BIG_INT)
    with pytest.raises(InputError, match=r"preds\.ndjson:2: invalid JSON \(Exceeds the limit"):
        list(ndjson_records(path))


@pytest.mark.parametrize("text,reason", [
    ('[{"name": "x", "polygon": [[%s, 1]]}]' % BIG_INT, "Exceeds the limit"),
    ("[" * 100000 + "]" * 100000, "maximum recursion depth exceeded"),
], ids=["integer_past_digit_limit", "nesting_past_recursion_limit"])
def test_geo_regions_undecodable_json_is_input_error(tmp_path, text, reason):
    path = tmp_path / "regions.json"
    path.write_text(text)
    with pytest.raises(InputError, match=rf"regions\.json: invalid JSON \({reason}"):
        read_geo_regions(path)


def _read_config(path):
    return _load_run_config(build_parser().parse_args(["run", "--config", str(path)]))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
# values of each option's own JSON type, so the checks behind the type check run too
_TYPED_VALUES = {
    bool: st.booleans(),
    int: st.integers(),
    float: st.floats() | st.integers(),
    str: st.sampled_from(["tiling", "no-tiling", "baseline", "3x3", "0x2", "x", ""]) | st.text(max_size=6),
    list: st.lists(st.floats() | st.integers(), min_size=2, max_size=2),
}


def _option_values(section):
    """Config objects holding any subset of the options of ``section`` ("" for top level)."""
    options = [o for o in _RUN_OPTIONS if o.key.rpartition(".")[0] == section]
    values = {o.key.rpartition(".")[2]: _TYPED_VALUES[o.kind] | _JSON_VALUES for o in options}
    return st.fixed_dictionaries({}, optional=values)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    top=_option_values(""),
    geo=_option_values("geo") | _JSON_VALUES,
    priors=_option_values("priors") | _JSON_VALUES,
)
def test_config_loader_returns_config_or_input_error_property(tmp_path, top, geo, priors):
    """Any JSON value under any config key loads or is an InputError, never another exception."""
    path = tmp_path / "run.json"
    paths = {"catalog": "c", "predictions": "p", "out": "o"}
    path.write_text(json.dumps({**paths, **top, "geo": geo, "priors": priors}))
    try:
        config = _read_config(path)
    except InputError:
        return
    assert isinstance(config, RunConfig)


@pytest.mark.parametrize("name,data,reader", [
    ("catalog.csv", b"species_id\n1\n2\xff\n", lambda p: list(csv_rows(p, ("species_id",)))),
    ("preds.ndjson", b'{"image_id": "a\xff", "row": 0, "col": 0, "probs": [[1, 1.0]]}\n',
     lambda p: list(ndjson_records(p))),
    ("regions.txt", b"SYN-AA\n\xffB\n", read_region_registry),
    ("geo.json", b'[{"name": "\xff", "polygon": []}]', read_geo_regions),
    ("submission.csv", b"quadrat_id;species_ids\nQ\xff;[1]\n", read_submission),
    ("run.json", b'{"seed": 1, "out": "\xff"}', _read_config),
], ids=["csv_rows", "ndjson_records", "read_region_registry", "read_geo_regions", "read_submission", "config"])
def test_readers_reject_invalid_utf8_naming_the_file(tmp_path, name, data, reader):
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(InputError, match=rf"^{re.escape(str(path))}: not valid UTF-8 text$"):
        reader(path)


def test_tile_predictions_empty_probs_rejected(tmp_path):
    path = tmp_path / "preds.ndjson"
    path.write_text(json.dumps({"image_id": "a", "row": 0, "col": 0, "probs": []}) + "\n")
    with pytest.raises(InputError, match=r":1:"):
        read_tile_predictions(path)


def test_tile_predictions_missing_key(tmp_path):
    path = tmp_path / "preds.ndjson"
    path.write_text(json.dumps({"image_id": "a", "row": 0, "probs": [[1, 0.5]]}) + "\n")
    with pytest.raises(InputError, match=r":1: bad tile prediction"):
        read_tile_predictions(path)


_GOOD_TILE = {"image_id": "a", "row": 0, "col": 0, "probs": [[1, 0.5]]}


@pytest.mark.parametrize("fields,message", [
    ({"probs": [[48.5, 0.5]]}, "entry [48.5, 0.5] must hold an integer index and a number"),
    ({"row": 0.9}, "row and col must be integers, not 0.9 and 1"),
    ({"row": "0"}, 'row and col must be integers, not "0" and 1'),
    ({"row": False}, "row and col must be integers, not false and 1"),
    ({"col": True}, "row and col must be integers, not 0 and true"),
    ({"probs": [[1, "0.5"]]}, 'entry [1, "0.5"] must hold an integer index and a number'),
    ({"probs": [[True, 0.5]]}, "entry [true, 0.5] must hold an integer index and a number"),
    ({"probs": [[1, False]]}, "entry [1, false] must hold an integer index and a number"),
    ({"complete": "no"}, 'complete must be true or false, not "no"'),
    ({"complete": 1}, "complete must be true or false, not 1"),
    # a value error comes ahead of the image-id wording
    ({"image_id": 7, "col": 1.0}, "row and col must be integers, not 0 and 1.0"),
], ids=["float-index", "float-row", "text-row", "bool-row", "bool-col", "text-probability", "bool-index",
        "bool-probability", "text-complete", "number-complete", "float-col-of-numeric-id"])
def test_tile_reader_rejects_a_value_of_the_wrong_json_type(tmp_path, fields, message):
    """The value is taken as the record holds it: 48.5 is not the index 48, nor "no" a true ``complete``."""
    path = tmp_path / "preds.ndjson"
    path.write_text(json.dumps(_GOOD_TILE) + "\n" + json.dumps({**_GOOD_TILE, "col": 1, **fields}) + "\n")
    with pytest.raises(InputError) as info:
        read_tile_predictions(path)
    assert str(info.value) == f"{path}:2: bad tile prediction record ({message})"
    # an earlier bad record is still the one reported
    bad_probability = {**_GOOD_TILE, "probs": [[1, 1.5]]}
    path.write_text(json.dumps(bad_probability) + "\n" + json.dumps({**_GOOD_TILE, **fields}) + "\n")
    with pytest.raises(InputError, match=r":1: tile of 'a': probability 1\.5 outside"):
        read_tile_predictions(path)


def test_tile_reader_takes_an_integer_probability_as_a_number(tmp_path):
    path = tmp_path / "preds.ndjson"
    path.write_text(json.dumps({**_GOOD_TILE, "probs": [[1, 1]]}) + "\n")
    assert read_tile_predictions(path).prob.tolist() == [1.0]

def test_tile_predictions_empty_file(tmp_path):
    path = tmp_path / "preds.ndjson"
    path.write_text("")
    with pytest.raises(InputError, match="no tile prediction records"):
        read_tile_predictions(path)


def test_missing_file_diagnostic(tmp_path):
    with pytest.raises(InputError, match="file not found"):
        read_tile_predictions(tmp_path / "nope.ndjson")


def test_directory_instead_of_file_diagnostic(tmp_path):
    with pytest.raises(InputError, match="directory"):
        read_tile_predictions(tmp_path)


def test_group_by_image_keeps_first_seen_order():
    def tp(img, col):
        return TilePrediction(image_id=img, row=0, col=col, probs=[(1, 0.5)], complete=False)

    preds = [tp("b", 0), tp("a", 0), tp("b", 1), tp("a", 1)]
    grouped = group_by_image(preds)
    assert list(grouped) == ["b", "a"]
    assert [t.col for t in grouped["b"]] == [0, 1]


def test_observations_round_trip(tmp_path):
    path = tmp_path / "obs.csv"
    obs = [Observation(7, 44.123456789, 4.0), Observation(9, -3.5, 170.25)]
    write_observations(path, obs)
    again = read_observations(path)
    assert again == obs


def test_observations_bad_row(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("species_id,lat,lon\n7,44.0,4.0\n9,ninety,4.0\n")
    with pytest.raises(InputError, match=r":3: malformed"):
        read_observations(path)
    path.write_text("species_id,lat,lon\n7,95.0,4.0\n")
    with pytest.raises(InputError, match=r":2:.*latitude"):
        read_observations(path)


def test_geo_regions_round_trip(tmp_path):
    path = tmp_path / "regions.json"
    regions = [
        GeoRegion("box", ((0.0, 0.0), (0.0, 2.0), (2.0, 2.0), (2.0, 0.0))),
        GeoRegion("tri", ((5.0, 5.0), (5.0, 7.0), (7.0, 6.0))),
    ]
    write_geo_regions(path, regions)
    again = read_geo_regions(path)
    assert [r.name for r in again] == ["box", "tri"]
    assert again[0].polygon == regions[0].polygon


def test_geo_regions_bad_payloads(tmp_path):
    path = tmp_path / "regions.json"
    path.write_text("{not json")
    with pytest.raises(InputError, match="invalid JSON"):
        read_geo_regions(path)
    path.write_text("[]")
    with pytest.raises(InputError, match="non-empty"):
        read_geo_regions(path)
    path.write_text(json.dumps([{"name": "x"}]))
    with pytest.raises(InputError, match="region #0"):
        read_geo_regions(path)


@pytest.mark.parametrize("vertex", [[0, 4, 9], [0], "04", [4, False]], ids=["three_numbers", "one_number", "text", "bool"])
def test_geo_region_vertex_must_be_one_lat_lon_pair(tmp_path, vertex):
    path = tmp_path / "regions.json"
    path.write_text(json.dumps([{"name": "a", "polygon": [[0, 0], vertex, [4, 4]]}]))
    shown = f"{path}: region #0: region 'a': vertices must be (lat, lon) number pairs"
    with pytest.raises(InputError, match=re.escape(shown)):
        read_geo_regions(path)


def _underscored(name):
    return name.replace(" ", "_")


_CATALOG = SpeciesCatalog([10, 20, 30])
# each CSV writer on plain ids and repr floats, and the exact bytes it writes
_WRITER_BYTES = {
    "catalog": (lambda p: write_catalog(p, _CATALOG), b"species_id\n10\n20\n30\n"),
    "observation": (
        lambda p: write_observations(p, [Observation(7, 44.123456789, 4.0), Observation(9, -3.5, 170.25)]),
        b"species_id,lat,lon\n7,44.123456789,4.0\n9,-3.5,170.25\n",
    ),
    "species mask": (
        lambda p: write_species_mask(p, SpeciesMask(np.array([True, False, True])), _CATALOG),
        b"species_id,allowed\n10,1\n20,0\n30,1\n",
    ),
    "projection": (
        lambda p: write_projection(p, Projection(["img0", "img1"], np.array([[0.1, -2.5], [1e-05, 3.0]]))),
        b"image_id,x,y\nimg0,0.1,-2.5\nimg1,1e-05,3.0\n",
    ),
    "assignment": (
        lambda p: write_assignments(p, ["img0", "img1"], np.array([2, 0])),
        b"image_id,cluster\nimg0,2\nimg1,0\n",
    ),
    "region cluster": (
        lambda p: write_region_cluster_map(p, {"CBN-Pla": np.int64(3), "RNNB": 1}),
        b"region,cluster\nCBN-Pla,3\nRNNB,1\n",
    ),
    "ground truth": (
        lambda p: write_ground_truth(p, GroundTruth({"Q1": frozenset({9, 3}), "Q2": frozenset({7})},
                                                    {"Q1": "T1", "Q2": "T2"})),
        b"quadrat_id,transect_id,species_ids\nQ1,T1,3 9\nQ2,T2,7\n",
    ),
    "training count": (
        lambda p: write_training_counts(p, {1400101: 2000, 42: 3}),
        b"species_id,count\n1400101,2000\n42,3\n",
    ),
}


@pytest.mark.parametrize("name", sorted(_WRITER_BYTES), ids=_underscored)
def test_csv_writer_exact_bytes(tmp_path, name):
    path = tmp_path / "out.csv"
    write, expected = _WRITER_BYTES[name]
    write(path)
    assert path.read_bytes() == expected


_TEXTS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6) | st.sampled_from(
    ["a,b", 'say "hi"', "two\nlines", "cr\rlf\r\n", '"', ",", "Ærø", "植物", " padded "]
)
_IDS = _TEXTS.filter(bool)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
# values for each column of each CSV format, in header order
_CSV_VALUES = {
    "catalog": (st.integers(),),
    "transect map": (_IDS, _IDS),
    "observation": (st.integers(), st.floats(-90.0, 90.0), st.floats(-180.0, 180.0)),
    "species mask": (st.integers(), st.booleans()),
    "projection": (_IDS, _FLOATS, _FLOATS),
    "assignment": (_IDS, st.integers()),
    "region cluster": (_IDS, st.integers()),
    "ground truth": (_IDS, _TEXTS, st.frozensets(st.integers(), max_size=4)),
    "training count": (st.integers(), st.integers()),
}
_PUBLIC_READERS = {
    "catalog": load_catalog,
    "transect map": read_transect_map,
    "observation": read_observations,
    "projection": read_projection,
    "assignment": read_assignments,
    "region cluster": read_region_cluster_map,
    "ground truth": _read_truth,
    "training count": read_training_counts,
}
_MUTATIONS = [b",", b'"', b"\n", b"\r", b"\x00", b"\xff", b"\xc3", b" ", b"-", b"nan", b"x", b"9" * 5000]


@pytest.mark.parametrize("name", sorted(CSV_FORMATS), ids=_underscored)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_csv_format_round_trips_and_reads_mutations_or_names_the_file_property(tmp_path, name, data):
    """Written rows read back as written; the same file with a few bytes
    inserted, deleted or replaced loads or is an InputError naming the file."""
    fmt = CSV_FORMATS[name]
    key = [c.name for c in fmt.columns].index(fmt.key) if fmt.key else None
    rows = data.draw(st.lists(st.tuples(*_CSV_VALUES[name]), min_size=1, max_size=5,
                              unique_by=None if key is None else (lambda row: row[key])))
    path = tmp_path / "file.csv"
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        write_csv(fh, name, rows)
    assert read_csv(path, name) == (rows if fmt.make is None else [fmt.make(*row) for row in rows])

    raw = bytearray(path.read_bytes())
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(raw) - 1))
        kind = data.draw(st.sampled_from(["insert", "delete", "replace"]))
        piece = b"" if kind == "delete" else data.draw(st.sampled_from(_MUTATIONS))
        raw[at:at + (kind != "insert")] = piece
    path.write_bytes(bytes(raw))
    try:
        _PUBLIC_READERS.get(name, lambda p: read_csv(p, name))(path)
    except InputError as exc:
        assert str(exc).startswith(f"{path}:"), str(exc)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_projection_non_finite_coordinate_is_input_error_at_its_line(tmp_path, value):
    path = tmp_path / "proj.csv"
    path.write_text(f"image_id,x,y\na,0.5,1.5\nb,1.0,{value}\n")
    shown = f"{path}:3: malformed projection row ['b', '1.0', '{value}']"
    with pytest.raises(InputError, match=f"^{re.escape(shown)}$"):
        read_projection(path)


@pytest.mark.parametrize("reader,text,where", [
    (read_projection, "image_id,x,y\na,0.0,0.0\na,1.0,1.0\n", ":3: duplicate image_id 'a'"),
    (read_projection, "image_id,x,y\na,0.0,0.0\n,1.0,1.0\n", ":3: empty image_id"),
    (read_assignments, "image_id,cluster\n,0\n", ":2: empty image_id"),
], ids=["projection_repeated", "projection_empty", "assignments_empty"])
def test_image_ids_must_be_non_empty_and_unique(tmp_path, reader, text, where):
    path = tmp_path / "ids.csv"
    path.write_text(text)
    with pytest.raises(InputError, match=f"^{re.escape(f'{path}{where}')}$"):
        reader(path)


def test_csv_line_numbers_count_the_lines_of_quoted_fields(tmp_path):
    path = tmp_path / "assign.csv"
    path.write_text('image_id,cluster\n"two\nlines",1\nb,x\n')
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}:4: malformed assignment row"):
        read_assignments(path)
    path.write_text('image_id,cluster\n"two\nlines",1\n"a,b",0\n')
    assert read_assignments(path) == {"two\nlines": 1, "a,b": 0}


def test_csv_field_past_the_csv_module_limit_is_input_error(tmp_path):
    path = tmp_path / "assign.csv"
    path.write_text("image_id,cluster\na,1\n" + "b" * 200_000 + ",2\n")
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}:3: field larger than field limit"):
        read_assignments(path)


def test_embeddings_round_trip(tmp_path):
    path = tmp_path / "emb.ndjson"
    rng = np.random.default_rng(1)
    emb = EmbeddingMatrix([f"i{k}" for k in range(5)], rng.normal(size=(5, 7)))
    write_embeddings(path, emb)
    again = read_embeddings(path)
    assert again.image_ids == emb.image_ids
    assert np.array_equal(again.data, emb.data)


# up to 1e150 in size, so four components stay below the squared norm EmbeddingMatrix takes
_AWKWARD_FLOATS = st.sampled_from([5e-324, 1e-05, 1e150, -0.0, 2.0])
_ESCAPED_IDS = st.sampled_from(["a", "é", 'q"t', "back\\slash", "\u2603\U0001f33f", "tab\tx", "\x01", "two\nlines"])


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_embedding_writer_matches_json_dumps_property(tmp_path, data):
    ids = data.draw(st.lists(_ESCAPED_IDS, min_size=2, max_size=5, unique=True), label="ids")
    width = data.draw(st.integers(1, 4), label="width")
    values = _AWKWARD_FLOATS | st.floats(-1e150, 1e150)
    rows = data.draw(st.lists(st.lists(values, min_size=width, max_size=width), min_size=len(ids), max_size=len(ids)))
    emb = EmbeddingMatrix(ids, np.array(rows))
    path = tmp_path / "emb.ndjson"
    write_embeddings(path, emb)
    expected = "".join(json.dumps({"image_id": i, "vector": [float(x) for x in row]}) + "\n"
                       for i, row in zip(ids, emb.data))
    assert path.read_bytes() == expected.encode("utf-8")


def test_embeddings_width_mismatch(tmp_path):
    path = tmp_path / "emb.ndjson"
    path.write_text(
        json.dumps({"image_id": "a", "vector": [1.0, 2.0]})
        + "\n"
        + json.dumps({"image_id": "b", "vector": [1.0]})
        + "\n"
    )
    with pytest.raises(InputError, match=r":2: vector length"):
        read_embeddings(path)


def test_embeddings_empty_file(tmp_path):
    path = tmp_path / "emb.ndjson"
    path.write_text("")
    with pytest.raises(InputError, match=f"^{re.escape(f'{path}: no embedding records')}$"):
        read_embeddings(path)


def test_embeddings_of_empty_vectors_rejected(tmp_path):
    path = tmp_path / "emb.ndjson"
    path.write_text("".join(json.dumps({"image_id": f"i{k}", "vector": []}) + "\n" for k in range(20)))
    with pytest.raises(InputError, match=f"^{re.escape(f'{path}: embedding vectors must not be empty')}$"):
        read_embeddings(path)


@pytest.mark.parametrize("record,where,message", [
    ({"image_id": 7, "vector": [1.0]}, "", "image ids must be non-empty strings"),
    ({"image_id": "b", "vector": [10**400]}, ":2", "bad embedding record (int too large to convert to float)"),
    ({"image_id": "b", "vector": ["1.5"]}, ":2", 'bad embedding record (vector values must be numbers, not "1.5")'),
    ({"image_id": "b", "vector": [True]}, ":2", "bad embedding record (vector values must be numbers, not true)"),
], ids=["numeric_id", "huge_int", "string_value", "bool_value"])
def test_read_embeddings_rejects_values_projection_cannot_use(tmp_path, record, where, message):
    path = tmp_path / "emb.ndjson"
    path.write_text(json.dumps({"image_id": "a", "vector": [0.0]}) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(InputError, match=f"^{re.escape(f'{path}{where}: {message}')}$"):
        read_embeddings(path)


_ODD_VALUES = [0, True, None, "x", "1.5", 10**400, float("nan"), float("inf"), [1.0], {}]
_ODD_RECORDS = [None, 7, "text", [1, 2], {}, {"image_id": "z"}, {"vector": [1.0]}]


@st.composite
def _mutated_embedding_records(draw):
    """Valid embedding records with up to three mutations of an id, a width, a value or a whole record."""
    n, width = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    vectors = st.lists(st.floats(-9.0, 9.0), min_size=width, max_size=width)
    records = [{"image_id": f"img{i}", "vector": draw(vectors)} for i in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["id", "width", "value", "record"]))
        if kind == "record":
            records[i] = draw(st.sampled_from(_ODD_RECORDS))
        elif not isinstance(records[i], dict) or "vector" not in records[i]:
            continue
        elif kind == "id":
            records[i]["image_id"] = draw(st.sampled_from(["", 7, 1.5, None, ["a"], "img0"]))
        elif kind == "width":
            vector = records[i]["vector"]
            records[i]["vector"] = vector + [0.5] if draw(st.booleans()) else vector[:-1]
        elif records[i]["vector"]:
            vector = list(records[i]["vector"])
            vector[draw(st.integers(0, len(vector) - 1))] = draw(st.sampled_from(_ODD_VALUES) | st.floats())
            records[i]["vector"] = vector
    return records


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=_mutated_embedding_records())
def test_embeddings_reader_loads_usable_rows_or_names_the_file_property(tmp_path, records):
    path = tmp_path / "emb.ndjson"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    try:
        emb = read_embeddings(path)
    except InputError as exc:
        assert str(exc).startswith(f"{path}:"), str(exc)
        return
    assert len(emb.image_ids) == len(records) == len(set(emb.image_ids))
    assert all(isinstance(i, str) and i for i in emb.image_ids)
    assert emb.data.shape[0] == len(records) and np.all(np.isfinite(emb.data))


@st.composite
def _mutated_geo_regions(draw):
    """Valid squares with up to three mutations of a name, a vertex value, a vertex or a whole record."""
    regions = [
        {"name": f"r{i}", "polygon": [[10.0 * i + a, b] for a, b in ((0, 0), (0, 4), (4, 4), (4, 0))]}
        for i in range(draw(st.integers(1, 3)))
    ]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(regions) - 1))
        kind = draw(st.sampled_from(["name", "value", "vertex", "record"]))
        if kind == "record":
            regions[i] = draw(st.sampled_from(_ODD_RECORDS + [{"name": "q"}, {"polygon": []}]))
        elif not isinstance(regions[i], dict) or "polygon" not in regions[i] or not regions[i]["polygon"]:
            continue
        elif kind == "name":
            regions[i]["name"] = draw(st.sampled_from(["", 7, None, ["a"], "r0"]))
        elif kind == "value":
            vertex = list(regions[i]["polygon"][0])
            vertex[draw(st.integers(0, 1))] = draw(st.sampled_from(_ODD_VALUES) | st.floats())
            regions[i]["polygon"] = [vertex] + regions[i]["polygon"][1:]
        else:
            odd = draw(st.sampled_from([[1.0], [1.0, 2.0, 3.0], 5, "ab", None, {}, "drop"]))
            regions[i]["polygon"] = regions[i]["polygon"][1:] + ([] if odd == "drop" else [odd])
    return regions


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(regions=_mutated_geo_regions())
def test_geo_regions_reader_loads_usable_polygons_or_names_the_file_property(tmp_path, regions):
    path = tmp_path / "regions.json"
    path.write_text(json.dumps(regions))
    try:
        loaded = read_geo_regions(path)
    except InputError as exc:
        assert str(exc).startswith(f"{path}:"), str(exc)
        return
    assert len(loaded) == len(regions)
    for region in loaded:
        assert isinstance(region.name, str) and region.name and len(region.polygon) >= 3
        assert all(isinstance(x, float) and np.isfinite(x) for vertex in region.polygon for x in vertex)


def test_projection_round_trip_exact(tmp_path):
    path = tmp_path / "proj.csv"
    rng = np.random.default_rng(2)
    proj = Projection([f"i{k}" for k in range(9)], rng.normal(size=(9, 2)) * 13.7)
    write_projection(path, proj)
    again = read_projection(path)
    assert again.image_ids == proj.image_ids
    assert np.array_equal(again.points, proj.points)


def test_projection_header_check(tmp_path):
    path = tmp_path / "proj.csv"
    path.write_text("id,x,y\nq,0.0,0.0\n")
    with pytest.raises(InputError, match=r":1: expected header"):
        read_projection(path)


def test_assignments_round_trip(tmp_path):
    path = tmp_path / "assign.csv"
    write_assignments(path, ["a", "b", "c"], [2, 0, 1])
    assert read_assignments(path) == {"a": 2, "b": 0, "c": 1}
    with pytest.raises(InputError):
        write_assignments(path, ["a"], [1, 2])
    path.write_text("image_id,cluster\na,2\na,0\n")
    with pytest.raises(InputError, match=r":3: duplicate image_id 'a'"):
        read_assignments(path)
    path.write_text("image_id,cluster\na,2,7\n")
    with pytest.raises(InputError, match=r":2: expected 'image_id,cluster'"):
        read_assignments(path)


def test_region_cluster_map_round_trip(tmp_path):
    path = tmp_path / "rc.csv"
    write_region_cluster_map(path, {"CBN-Pla": 3, "RNNB": 1})
    assert read_region_cluster_map(path) == {"CBN-Pla": 3, "RNNB": 1}
    path.write_text("region,cluster\nRNNB,1\nCBN-Pla,3\nRNNB,0\n")
    with pytest.raises(InputError, match=r":4: duplicate region 'RNNB'"):
        read_region_cluster_map(path)


def test_priors_round_trip_and_contiguity(tmp_path):
    path = tmp_path / "priors.ndjson"
    priors = ClusterPriors(np.array([[0.25, 0.75], [0.5, 0.5]]))
    write_priors(path, priors)
    again = read_priors(path)
    assert np.array_equal(again.priors, priors.priors)

    path.write_text(
        json.dumps({"cluster": 0, "prior": [1.0]})
        + "\n"
        + json.dumps({"cluster": 2, "prior": [1.0]})
        + "\n"
    )
    with pytest.raises(InputError, match="contiguous"):
        read_priors(path)

    # clusters 0,1,1 must not load as k=2
    path.write_text(
        "".join(json.dumps({"cluster": c, "prior": [1.0]}) + "\n" for c in (0, 1, 1))
    )
    with pytest.raises(InputError, match=r":3: duplicate cluster 1"):
        read_priors(path)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_prior_writer_matches_json_dumps_property(tmp_path, data):
    """Rows of tiny awkward entries and a head that brings the sum to one."""
    small = st.sampled_from([5e-324, 1e-05, 1e-300, 2.5e-10]) | st.floats(5e-324, 1e-3)
    k = data.draw(st.integers(1, 3), label="k")
    width = data.draw(st.integers(1, 5), label="width")
    rows = []
    for _ in range(k):
        tail = data.draw(st.lists(small, min_size=width - 1, max_size=width - 1))
        rows.append([1.0 - math.fsum(tail), *tail])
    priors = ClusterPriors(np.array(rows))
    path = tmp_path / "priors.ndjson"
    write_priors(path, priors)
    expected = "".join(json.dumps({"cluster": c, "prior": [float(x) for x in priors.priors[c]]}) + "\n"
                       for c in range(priors.k))
    assert path.read_bytes() == expected.encode("utf-8")


def test_write_priors_rejects_a_row_read_priors_would_reject(tmp_path):
    path = tmp_path / "priors.ndjson"
    zero = estimate_priors(np.array([[1.0, 0.0]]), [0], k=1, epsilon=0.0)
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}: cluster 0: prior entries must be finite and > 0$"):
        write_priors(path, zero)
    assert not path.exists()
    with pytest.raises(InputError, match=r": cluster 1: prior entries must be finite and > 0$"):
        write_priors(path, ClusterPriors(np.array([[0.5, 0.5], [1.0, 0.0]])))
    assert not path.exists()
    smoothed = estimate_priors(np.array([[1.0, 0.0]]), [0], k=1, epsilon=1e-6)
    write_priors(path, smoothed)
    assert np.array_equal(read_priors(path).priors, smoothed.priors)


@pytest.mark.parametrize("rows,where,message", [
    ([[0.5, 0.5], [1.0]], "", "prior rows must have one width, got [1, 2]"),
    ([[0.5, 0.6]], ":1", "prior sums to 1.1; expected 1 +/- 1e-09"),
    ([[0.5, 0.5], [float("nan"), 1.0]], ":2", "prior entries must be finite and > 0"),
    ([[0.0, 1.0]], ":1", "prior entries must be finite and > 0"),
    ([[-0.5, 1.5]], ":1", "prior entries must be finite and > 0"),
    ([[float("inf"), 1.0]], ":1", "prior entries must be finite and > 0"),
    ([[10**400, 1.0]], ":1", "bad prior record (int too large to convert to float)"),
    ([["0.5", 0.5]], ":1", 'bad prior record (prior values must be numbers, not "0.5")'),
    ([[True]], ":1", "bad prior record (prior values must be numbers, not true)"),
    ([{"cluster": 0.9, "prior": [1.0]}], ":1", "bad prior record (cluster must be an integer, not 0.9)"),
    ([{"cluster": True, "prior": [1.0]}], ":1", "bad prior record (cluster must be an integer, not true)"),
    ([], "", "no prior records"),
], ids=["ragged", "sum", "nan", "zero", "negative", "inf", "huge_int", "string_value", "bool_value",
        "fractional_cluster", "bool_cluster", "empty_file"])
def test_read_priors_rejects_rows_reweighting_cannot_use(tmp_path, rows, where, message):
    """Each of ``rows`` is a prior row of cluster 0, 1, ... or a whole record."""
    path = tmp_path / "priors.ndjson"
    records = [row if isinstance(row, dict) else {"cluster": c, "prior": row} for c, row in enumerate(rows)]
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    with pytest.raises(InputError, match=f"^{re.escape(f'{path}{where}: {message}')}$"):
        read_priors(path)


_PRIOR_VALUES = st.sampled_from(
    [0.0, -0.25, 0.5, 1.0, 1.5, float("nan"), float("inf"), 10**400, "0.5", "x", None, [0.5], True]
) | st.floats()
_CLUSTER_IDS = st.sampled_from([-1, 0, 1, 3, 2.5, "1", "x", None, 10**30, float("inf"), float("nan"), [0]])


@st.composite
def _mutated_prior_records(draw):
    """Valid smoothed prior rows with up to three mutations of a width, a value or a cluster id."""
    k, width = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    records = []
    for c in range(k):
        weights = np.array(draw(st.lists(st.floats(0.01, 10.0), min_size=width, max_size=width)))
        records.append({"cluster": c, "prior": (weights / weights.sum()).tolist()})
    for _ in range(draw(st.integers(0, 3))):
        rec = records[draw(st.integers(0, k - 1))]
        kind = draw(st.sampled_from(["width", "value", "cluster"]))
        if kind == "width":
            grow = draw(st.booleans())
            rec["prior"] = rec["prior"] + [draw(_PRIOR_VALUES)] if grow else rec["prior"][:-1]
        elif kind == "value" and rec["prior"]:
            prior = list(rec["prior"])
            prior[draw(st.integers(0, len(prior) - 1))] = draw(_PRIOR_VALUES)
            rec["prior"] = prior
        elif kind == "cluster":
            rec["cluster"] = draw(_CLUSTER_IDS | st.integers())
    return draw(st.permutations(records))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=_mutated_prior_records())
def test_priors_reader_loads_usable_rows_or_names_the_file_property(tmp_path, records):
    path = tmp_path / "priors.ndjson"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    try:
        priors = read_priors(path)
    except InputError as exc:
        assert str(exc).startswith(f"{path}:"), str(exc)
        return
    assert priors.k == len(records)
    assert np.all(np.isfinite(priors.priors) & (priors.priors > 0.0))
    assert np.all(np.abs(priors.priors.sum(axis=1) - 1.0) <= 1e-9)


def test_ground_truth_explicit_and_heuristic_transects(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text(
        "quadrat_id,transect_id,species_ids\n"
        "CBN-Pla-A1-20130807,,1363227 1392475\n"
        "Q2,TX,7\n"
    )
    truth = _read_truth(path)
    assert truth.truth["CBN-Pla-A1-20130807"] == frozenset({1363227, 1392475})
    # blank transect falls back to dropping the trailing token
    assert truth.transects["CBN-Pla-A1-20130807"] == "CBN-Pla-A1"
    assert truth.transects["Q2"] == "TX"


def test_ground_truth_explicit_map_overrides(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("quadrat_id,transect_id,species_ids\nQ1,TA,5\n")
    truth = _read_truth(path, transect_map={"Q1": "TB"})
    assert truth.transects["Q1"] == "TB"


def test_ground_truth_rejections(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("quadrat_id,transect_id,species_ids\nQ1,T,5\nQ1,T,6\n")
    with pytest.raises(InputError, match=r":3: duplicate"):
        _read_truth(path)
    path.write_text("quadrat_id,transect_id,species_ids\nQ1,T,five\n")
    with pytest.raises(InputError, match="space-separated integers"):
        _read_truth(path)
    path.write_text("bad,header,row\n")
    with pytest.raises(InputError, match=r":1: expected header"):
        _read_truth(path)


def test_ground_truth_round_trip(tmp_path):
    path = tmp_path / "truth.csv"
    truth = GroundTruth(
        truth={"Q1": frozenset({3, 1}), "Q2": frozenset({9})},
        transects={"Q1": "T1", "Q2": "T2"},
    )
    write_ground_truth(path, truth)
    again = _read_truth(path)
    assert again.truth == truth.truth
    assert again.transects == truth.transects


def test_training_counts_round_trip(tmp_path):
    path = tmp_path / "counts.csv"
    write_training_counts(path, {1400101: 2000, 42: 3})
    assert read_training_counts(path) == {1400101: 2000, 42: 3}
    path.write_text("species_id,count\n42,many\n")
    with pytest.raises(InputError, match=r":2: malformed"):
        read_training_counts(path)
    path.write_text("species_id,count\n42,3\n7,1\n42,5\n")
    with pytest.raises(InputError, match=r":4: duplicate species_id 42"):
        read_training_counts(path)
    path.write_text("species_id,count\n42,3,extra\n")
    with pytest.raises(InputError, match=r":2: expected 'species_id,count'"):
        read_training_counts(path)


def test_submission_exact_format(tmp_path):
    path = tmp_path / "sub.csv"
    rows = [
        SubmissionRow("Q1", (3, 5)),
        SubmissionRow("Q2", (7,)),
    ]
    write_submission(path, rows)
    text = path.read_text()
    assert text == "quadrat_id;species_ids\nQ1;[3, 5]\nQ2;[7]\n"
    again = read_submission(path)
    assert again == rows


@pytest.mark.parametrize("end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_submission_with_crlf_or_cr_line_ends_reads_as_with_lf(tmp_path, end):
    path = tmp_path / "sub.csv"
    path.write_bytes(end.join([b"quadrat_id;species_ids", b"Q1;[3, 5]", b"Q2;[7]", b""]))
    assert read_submission(path) == [SubmissionRow("Q1", (3, 5)), SubmissionRow("Q2", (7,))]


@pytest.mark.parametrize("quadrat_id", ["Q;1", "Q\n1", "Q\r1"], ids=["semicolon", "lf", "cr"])
def test_write_submission_rejects_an_id_the_format_cannot_hold(tmp_path, quadrat_id):
    path = tmp_path / "sub.csv"
    with pytest.raises(InputError, match=re.escape(f"quadrat_id {quadrat_id!r} holds ';' or a line break")):
        write_submission(path, [SubmissionRow("Q0", (1,)), SubmissionRow(quadrat_id, (2,))])
    assert not path.exists()


def test_submission_id_holding_a_quote_keeps_its_bytes(tmp_path):
    path = tmp_path / "sub.csv"
    write_submission(path, [SubmissionRow('Q"1', (2,))])
    assert path.read_bytes() == b'quadrat_id;species_ids\nQ"1;[2]\n'
    assert read_submission(path) == [SubmissionRow('Q"1', (2,))]


def test_submission_rejections(tmp_path):
    path = tmp_path / "sub.csv"
    with pytest.raises(InputError):
        write_submission(path, [])
    with pytest.raises(InputError, match="duplicate"):
        write_submission(path, [SubmissionRow("Q1", (1,)), SubmissionRow("Q1", (2,))])
    with pytest.raises(InputError):
        SubmissionRow("Q1", ())
    with pytest.raises(InputError):
        SubmissionRow("Q1", (3, 3))
    with pytest.raises(InputError):
        SubmissionRow("", (3,))

    path.write_text("quadrat_id;species_ids\nQ1;3, 5\n")
    with pytest.raises(InputError, match=r":2:"):
        read_submission(path)
    path.write_text("wrong header\n")
    with pytest.raises(InputError, match=r":1:"):
        read_submission(path)
    path.write_text("quadrat_id;species_ids\nQ1;[3]\nQ1;[4]\n")
    with pytest.raises(InputError, match=r":3: duplicate"):
        read_submission(path)


def test_score_report_json(tmp_path):
    path = tmp_path / "report.json"
    truth = GroundTruth(
        truth={"Q1": frozenset({1}), "Q2": frozenset({2})},
        transects={"Q1": "T1", "Q2": "T2"},
    )
    report = final_score({"Q1": {1}, "Q2": {5}}, truth)
    write_score_report(path, report)
    payload = json.loads(path.read_text())
    assert payload["final"] == 0.5
    assert payload["n_transects"] == 2
    assert payload["per_transect"]["T1"] == {"mean_f1": 1.0, "n_quadrats": 1}
    assert payload["missing_predictions"] == []
