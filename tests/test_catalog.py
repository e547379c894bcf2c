import numpy as np
import pytest

from floratile.catalog import (
    RegionRegistry,
    SpeciesCatalog,
    load_catalog,
    parse_region,
    transect_of,
)
from floratile.errors import InputError, UnknownRegionError


def write_catalog_file(tmp_path, ids, header="species_id"):
    path = tmp_path / "catalog.csv"
    path.write_text(header + "\n" + "".join(f"{i}\n" for i in ids), encoding="utf-8")
    return path


def test_load_assigns_dense_indices_in_file_order(tmp_path):
    cat = load_catalog(write_catalog_file(tmp_path, [101, 205, 333]))
    assert len(cat) == 3
    assert list(cat.species_ids) == [101, 205, 333]


def test_load_rejects_duplicates(tmp_path):
    with pytest.raises(InputError, match="101"):
        load_catalog(write_catalog_file(tmp_path, [101, 101]))


def test_load_rejects_empty_file(tmp_path):
    with pytest.raises(InputError):
        load_catalog(write_catalog_file(tmp_path, []))


def test_load_rejects_wrong_header(tmp_path):
    with pytest.raises(InputError):
        load_catalog(write_catalog_file(tmp_path, [1], header="id"))


def test_load_reports_line_number_of_bad_row(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text("species_id\n7\nfoo\n", encoding="utf-8")
    with pytest.raises(InputError, match=r":3:"):
        load_catalog(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(InputError, match="file not found"):
        load_catalog(tmp_path / "nope.csv")


def test_load_directory_path(tmp_path):
    with pytest.raises(InputError, match="directory"):
        load_catalog(tmp_path)


def test_catalog_round_trip_property():
    rng = np.random.default_rng(11)
    for _ in range(50):
        size = int(rng.integers(1, 60))
        ids = list(rng.choice(100000, size=size, replace=False))
        cat = SpeciesCatalog([int(i) for i in ids])
        assert cat.species_ids == [int(i) for i in ids]
        assert all(int(i) in cat for i in ids)


TABLE2_REGIONS = (
    "CBN-PdlC", "CBN-Pla", "GUARDEN-CBNMed", "RNNB", "LISAH-BOU", "OPTMix",
    "LISAH-BVD", "GUARDEN-AMB", "LISAH-PEC", "CBN-can", "LISAH-JAS",
    "CBN-Pyr", "2024-CEV3",
)


def test_parse_region_table2_ids():
    registry = RegionRegistry(regions=TABLE2_REGIONS)
    assert parse_region("CBN-PdlC-A1-20230705", registry) == "CBN-PdlC"
    assert parse_region("CBN-Pla-B2-x", registry) == "CBN-Pla"
    assert parse_region("2024-CEV3-0007", registry) == "2024-CEV3"


def test_parse_region_unknown_id_raises():
    registry = RegionRegistry(regions=TABLE2_REGIONS)
    with pytest.raises(UnknownRegionError, match="ZZZ-001"):
        parse_region("ZZZ-001", registry)


def test_parse_region_prefers_longest_prefix():
    registry = RegionRegistry(regions=("AB", "ABC", "A"))
    assert parse_region("ABCD-1", registry) == "ABC"
    assert parse_region("ABX", registry) == "AB"
    assert parse_region("AZ", registry) == "A"


def test_parse_region_longest_match_property():
    # The result must be a prefix of the id and no longer registry prefix
    # may exist; check against a brute-force scan.
    rng = np.random.default_rng(5)
    alphabet = "ABC"
    for _ in range(200):
        names = set()
        while len(names) < 5:
            size = int(rng.integers(1, 5))
            names.add("".join(rng.choice(list(alphabet), size=size)))
        registry = RegionRegistry(regions=tuple(sorted(names)))
        quadrat = "".join(rng.choice(list(alphabet), size=int(rng.integers(1, 8))))
        matches = [n for n in names if quadrat.startswith(n)]
        if not matches:
            with pytest.raises(UnknownRegionError):
                parse_region(quadrat, registry)
        else:
            got = parse_region(quadrat, registry)
            assert quadrat.startswith(got)
            assert len(got) == max(len(m) for m in matches)


def test_registry_rejects_duplicates_and_empty_names():
    with pytest.raises(InputError):
        RegionRegistry(regions=("A", "A"))
    with pytest.raises(InputError):
        RegionRegistry(regions=("A", ""))
    with pytest.raises(InputError):
        RegionRegistry(regions=())


@pytest.mark.parametrize("call,message", [
    (lambda: SpeciesCatalog([]), "species catalog must contain at least one species"),
    (lambda: SpeciesCatalog([1, 1]), "duplicate species_id 1 in catalog"),
    (lambda: transect_of(""), "quadrat_id must be non-empty"),
], ids=["empty_catalog", "duplicate_id", "empty_quadrat_id"])
def test_catalog_input_checks(call, message):
    with pytest.raises(InputError, match=rf"^{message}$"):
        call()


def test_transect_of_drops_last_token():
    assert transect_of("CBN-PdlC-A1-20230705") == "CBN-PdlC-A1"
    assert transect_of("A-B") == "A"


def test_transect_of_single_token_is_itself():
    assert transect_of("X") == "X"
    assert transect_of("a_b_c") == "a_b_c"  # only "-" separates tokens


def test_transect_of_deterministic():
    ids = ["CBN-PdlC-A1-2023", "X", "A-B-C"]
    first = [transect_of(q) for q in ids]
    second = [transect_of(q) for q in ids]
    assert first == second
