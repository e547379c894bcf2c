"""Acceptance gate: numbered end-to-end criteria with runtime budgets.

Each test carries an ``acceptance`` marker; the terminal summary prints one
pass/fail line per criterion. Oracle implementations here are deliberately
independent of the library code they check.
"""

import importlib.resources
import math
import time

import numpy as np
import pytest
from pathlib import Path

from floratile.catalog import RegionRegistry, parse_region
from floratile.cli import main
from floratile.clustering import kmeans, reweight
from floratile.geo import GeoRegion, Observation, build_mask, contains
from floratile.io import read_region_cluster_map, read_region_registry
from floratile.metrics import GroundTruth, final_score, image_f1
from floratile.pipeline import GeoOptions, PriorsOptions, RunConfig, run
from floratile.projection import PairSets, ProjectorConfig, _objective, build_pairs, fit
from floratile.synth import SynthSpec, generate, write_bundle
from floratile.tiling import GridSpec, make_grid
from floratile.voting import TilePrediction, select_labels, tally_votes
from test_projection import _reference_loss_and_grad  # the loss oracle; the projector computes no loss

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def default_fixture(tmp_path_factory):
    bundle = generate(SynthSpec(), seed=42)
    return write_bundle(bundle, tmp_path_factory.mktemp("accept"))


@pytest.mark.acceptance(1, "README states leaderboard scores are out of scope")
def test_readme_scope_statement():
    text = " ".join(README.read_text(encoding="utf-8").lower().split())
    assert "not reproducible" in text


@pytest.mark.acceptance(2, "two-level macro F1 matches a brute-force oracle to 1e-12")
def test_metric_against_oracle():
    start = time.perf_counter()

    # hand-verified values first
    assert image_f1({1, 2}, {1}) == pytest.approx(2.0 / 3.0, abs=1e-15)
    truth = GroundTruth(
        truth={"a1": frozenset({1}), "a2": frozenset({1}), "b1": frozenset({9})},
        transects={"a1": "A", "a2": "A", "b1": "B"},
    )
    assert final_score({"a1": {1}, "a2": {1}, "b1": {5}}, truth).final == 0.5

    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        truth_map, transects, preds = {}, {}, {}
        for i in range(n):
            q = f"q{i}"
            truth_map[q] = frozenset(
                int(s) for s in rng.choice(15, size=rng.integers(1, 5), replace=False)
            )
            transects[q] = f"T{int(rng.integers(0, 5))}"
            if rng.random() < 0.85:
                preds[q] = {
                    int(s) for s in rng.choice(15, size=rng.integers(1, 5), replace=False)
                }
        got = final_score(preds, GroundTruth(truth=dict(truth_map), transects=transects)).final

        # oracle: precision/recall from first principles, grouped averaging
        groups = {}
        for q, t in truth_map.items():
            p = preds.get(q, set())
            tp = len(p & t)
            prec = tp / len(p) if p else 0.0
            rec = tp / len(t) if t else 0.0
            f1 = 2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
            groups.setdefault(transects[q], []).append(f1)
        expected = sum(sum(v) / len(v) for v in groups.values()) / len(groups)
        assert abs(got - expected) <= 1e-12

    assert time.perf_counter() - start < 5.0


@pytest.mark.acceptance(3, "vote aggregation matches a brute-force oracle exactly")
def test_aggregation_against_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    for _ in range(200):
        n_tiles = int(rng.integers(1, 10))
        preds = []
        for t in range(n_tiles):
            support = int(rng.integers(1, 8))
            idxs = rng.choice(12, size=support, replace=False)
            ps = rng.integers(1, 5, size=support) / 40.0  # coarse: ties happen often
            preds.append(
                TilePrediction(
                    image_id="img",
                    row=0,
                    col=t,
                    probs=[(int(i), float(p)) for i, p in zip(idxs, ps)],
                    complete=False,
                )
            )
        k = int(rng.integers(1, 6))
        min_votes = int(rng.integers(1, 4))
        max_labels = int(rng.integers(1, 6))

        tally = tally_votes(preds, k)
        got = select_labels(tally, min_votes=min_votes, max_labels=max_labels)

        votes, mass = {}, {}
        for p in preds:
            ranked = sorted(p.probs, key=lambda e: (-e[1], e[0]))[:k]
            for idx, prob in ranked:
                votes[idx] = votes.get(idx, 0) + 1
                mass[idx] = mass.get(idx, 0.0) + prob
        keep = [i for i in votes if votes[i] >= min_votes]
        if not keep:
            keep = [min(votes, key=lambda i: (-votes[i], -mass[i], i))]
        keep.sort(key=lambda i: (-votes[i], -mass[i], i))
        assert got == keep[:max_labels]

    assert time.perf_counter() - start < 5.0


@pytest.mark.acceptance(4, "tile grids partition every image exactly")
def test_tiler_partitions_exactly():
    start = time.perf_counter()

    tiles = make_grid(2000, 2000, GridSpec(4, 4))
    assert len(tiles) == 16
    assert all((t.x1 - t.x0, t.y1 - t.y0) == (500, 500) for t in tiles)

    rng = np.random.default_rng(42)
    for _ in range(500):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        width = int(rng.integers(cols, 60))
        height = int(rng.integers(rows, 60))
        tiles = make_grid(width, height, GridSpec(rows, cols))
        paint = np.zeros((height, width), dtype=np.int32)
        for t in tiles:
            paint[t.y0 : t.y1, t.x0 : t.x1] += 1
        assert np.all(paint == 1), (width, height, rows, cols)
        widths = {t.x1 - t.x0 for t in tiles}
        heights = {t.y1 - t.y0 for t in tiles}
        assert max(widths) - min(widths) <= 1
        assert max(heights) - min(heights) <= 1

    assert time.perf_counter() - start < 2.0


@pytest.mark.acceptance(5, "projection gradient matches finite differences")
def test_projection_gradient_against_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    h = 1e-6
    for _ in range(50):
        n = int(rng.integers(8, 16))
        data = rng.normal(size=(n, 4))
        cfg = ProjectorConfig(n_neighbors=int(rng.integers(3, 6)))
        pairs = build_pairs(data, cfg, np.random.default_rng(int(rng.integers(1000))))
        Y = rng.normal(size=(n, 2))
        w = (2.0, float(rng.uniform(3.0, 1000.0)), 1.0)
        grad = _objective(Y, pairs, w)
        for i in range(n):
            for c in range(2):
                Yp, Ym = Y.copy(), Y.copy()
                Yp[i, c] += h
                Ym[i, c] -= h
                lp, _ = _reference_loss_and_grad(Yp, pairs, w)
                lm, _ = _reference_loss_and_grad(Ym, pairs, w)
                fd = (lp - lm) / (2 * h)
                assert abs(grad[i, c] - fd) <= 1e-4 * max(1.0, abs(fd))
    assert time.perf_counter() - start < 30.0


def _adjusted_rand_index(labels_a, labels_b):
    """Hubert-Arabie adjusted Rand index from the contingency table."""
    _, a = np.unique(labels_a, return_inverse=True)
    _, b = np.unique(labels_b, return_inverse=True)
    table = np.zeros((a.max() + 1, b.max() + 1))
    np.add.at(table, (a, b), 1)

    def pairs(counts):
        return float((counts * (counts - 1) / 2).sum())

    index = pairs(table)
    rows, cols = pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = rows * cols / (len(a) * (len(a) - 1) / 2)
    maximum = (rows + cols) / 2
    if maximum == expected:  # both labelings trivial: identical partitions
        return 1.0
    return (index - expected) / (maximum - expected)


@pytest.mark.acceptance(6, "projection + k-means recovers Gaussian blobs (ARI >= 0.9)")
def test_blob_recovery_ari():
    # the oracle reproduces sklearn's documented adjusted_rand_score example
    assert _adjusted_rand_index([0, 0, 1, 1], [0, 0, 1, 2]) == pytest.approx(4 / 7, abs=1e-12)
    start = time.perf_counter()

    rng = np.random.default_rng(42)
    points, labels = [], []
    for c in range(3):
        center = np.zeros(64)
        center[c] = 12.0
        points.append(center + rng.normal(size=(30, 64)))
        labels += [c] * 30
    data = np.vstack(points)

    from floratile.projection import EmbeddingMatrix

    proj = fit(
        EmbeddingMatrix([f"i{k}" for k in range(90)], data),
        ProjectorConfig(seed=42),
    )
    model = kmeans(proj.points, 3, seed=42)
    ari = _adjusted_rand_index(labels, model.assignments)
    assert ari >= 0.9
    assert time.perf_counter() - start < 60.0


@pytest.mark.acceptance(7, "k-means inertia is monotone and k=1 recovers the mean")
def test_kmeans_monotonicity_and_k1():
    start = time.perf_counter()
    rng = np.random.default_rng(42)

    pts = rng.normal(size=(60, 2)) * 3.0 + 5.0
    model = kmeans(pts, 1, seed=0)
    assert np.allclose(model.centroids[0], pts.mean(axis=0), atol=1e-12)

    for trial in range(100):
        n = int(rng.integers(4, 50))
        k = int(rng.integers(1, min(n, 5) + 1))
        pts = rng.normal(size=(n, 2)) * float(rng.uniform(0.1, 10.0))
        history = kmeans(pts, k, seed=trial).inertia_history
        for prev, cur in zip(history, history[1:]):
            assert cur <= prev * (1 + 1e-12) + 1e-12

    assert time.perf_counter() - start < 5.0


@pytest.mark.acceptance(8, "uniform priors never change the ranking")
def test_uniform_prior_is_order_neutral():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    for _ in range(1000):
        s = int(rng.integers(2, 30))
        support = int(rng.integers(1, s + 1))
        idxs = rng.choice(s, size=support, replace=False)
        raw = rng.random(support) + 1e-9
        raw = raw / raw.sum()
        probs = [(int(i), float(p)) for i, p in zip(idxs, raw)]
        out = reweight(probs, np.full(s, 1.0 / s))
        assert [i for i, _ in out] == [i for i, _ in probs]
        assert sum(p for _, p in out) == pytest.approx(1.0, abs=1e-9)
        before = sorted(range(support), key=lambda j: -probs[j][1])
        after = sorted(range(support), key=lambda j: -out[j][1])
        assert before == after
        for (_, b), (_, a) in zip(probs, out):
            assert a == pytest.approx(b, rel=1e-12)
    assert time.perf_counter() - start < 2.0


def _oracle_inside(polygon, p):
    """Winding-number containment with an explicit boundary test."""
    m = len(polygon)
    py, px = p
    for i in range(m):
        ay, ax = polygon[i]
        by, bx = polygon[(i + 1) % m]
        cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        if cross == 0 and min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by):
            return True
    total = 0.0
    for i in range(m):
        ay, ax = polygon[i][0] - py, polygon[i][1] - px
        by, bx = polygon[(i + 1) % m][0] - py, polygon[(i + 1) % m][1] - px
        total += math.atan2(ax * by - ay * bx, ax * bx + ay * by)
    return abs(total) > math.pi


@pytest.mark.acceptance(9, "geolocation masks match an independent containment oracle")
def test_geofilter_against_oracle():
    from floratile.catalog import SpeciesCatalog

    start = time.perf_counter()

    # deterministic boundary case: nearest observation on an edge counts
    square = GeoRegion("sq", ((0.0, 0.0), (0.0, 4.0), (4.0, 4.0), (4.0, 0.0)))
    assert contains(square, (0.0, 2.0))
    assert contains(square, (4.0, 4.0))

    rng = np.random.default_rng(42)
    for _ in range(100):
        n_species = int(rng.integers(2, 15))
        catalog = SpeciesCatalog([100 + 3 * i for i in range(n_species)])
        regions = []
        for r in range(int(rng.integers(1, 4))):
            k = int(rng.integers(5, 10))
            gaps = rng.uniform(0.5, 1.5, k)
            angles = np.cumsum(gaps) / gaps.sum() * 2.0 * math.pi
            radii = rng.uniform(0.5, 2.0, k)
            cy, cx = rng.uniform(-4, 4, 2)
            regions.append(
                GeoRegion(
                    f"r{r}",
                    tuple(
                        (cy + rad * math.sin(a), cx + rad * math.cos(a))
                        for a, rad in zip(angles, radii)
                    ),
                )
            )
        observations = []
        for sid in catalog.species_ids:
            for _ in range(int(rng.integers(0, 4))):
                observations.append(
                    Observation(sid, float(rng.uniform(-6, 6)), float(rng.uniform(-6, 6)))
                )
        ref = (float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4)))

        # oracle mask from first principles
        expected = []
        for sid in catalog.species_ids:
            mine = [o for o in observations if o.species_id == sid]
            if not mine:
                expected.append(False)
                continue
            best = min(mine, key=lambda o: (o.lat - ref[0]) ** 2 + (o.lon - ref[1]) ** 2)
            expected.append(
                any(_oracle_inside(r.polygon, (best.lat, best.lon)) for r in regions)
            )
        if not any(expected):
            continue

        from floratile.geo import nearest_per_species

        mask = build_mask(nearest_per_species(observations, ref), regions, catalog)
        assert mask.allowed.tolist() == expected

    assert time.perf_counter() - start < 5.0


@pytest.mark.acceptance(10, "ablation ordering: baseline < no-tiling < tiling <= +priors")
def test_end_to_end_ablation(default_fixture, tmp_path):
    start = time.perf_counter()
    fx = default_fixture

    def cfg(**kwargs):
        base = dict(
            catalog_path=str(fx / "catalog.csv"),
            predictions_path=str(fx / "tile_predictions.ndjson"),
            out_dir=str(tmp_path / kwargs.pop("name")),
            truth_path=str(fx / "truth.csv"),
            seed=42,
        )
        base.update(kwargs)
        return RunConfig(**base)

    baseline = run(
        cfg(
            name="baseline",
            mode="baseline",
            training_counts_path=str(fx / "training_counts.csv"),
        )
    ).report.final
    no_tiling = run(
        cfg(
            name="no_tiling",
            mode="no-tiling",
            predictions_path=str(fx / "image_predictions.ndjson"),
        )
    ).report.final
    tiling = run(cfg(name="tiling", mode="tiling")).report.final
    with_priors = run(
        cfg(
            name="priors",
            mode="tiling",
            registry_path=str(fx / "regions.txt"),
            priors=PriorsOptions(
                enabled=True, k=3, embeddings_path=str(fx / "embeddings.ndjson")
            ),
        )
    ).report.final

    assert baseline < no_tiling, (baseline, no_tiling)
    assert no_tiling < tiling, (no_tiling, tiling)
    assert with_priors >= tiling, (with_priors, tiling)
    assert time.perf_counter() - start < 120.0


@pytest.mark.acceptance(11, "shipped region registry and cluster map are consistent")
def test_region_registry_and_cluster_map():
    data = importlib.resources.files("floratile") / "data"
    registry = read_region_registry(str(data / "regions_default.txt"))
    assert len(registry) == 13

    # every registry region resolves from a realistic quadrat id
    for region in registry:
        assert parse_region(f"{region}-A1-20240612", registry) == region

    cluster_map = read_region_cluster_map(str(data / "region_clusters_default.csv"))
    expected = {
        "CBN-PdlC": 2,
        "CBN-Pla": 3,
        "GUARDEN-CBNMed": 1,
        "RNNB": 1,
        "LISAH-BOU": 1,
        "OPTMix": 1,
        "LISAH-BVD": 1,
        "GUARDEN-AMB": 1,
        "LISAH-PEC": 1,
        "CBN-can": 2,
        "LISAH-JAS": 1,
        "CBN-Pyr": 1,
        "2024-CEV3": 1,
    }
    assert cluster_map == expected
    assert set(cluster_map) == set(registry.regions)


@pytest.mark.acceptance(12, "repeat runs with one seed are byte-identical")
def test_repeat_runs_byte_identical(default_fixture, tmp_path):
    fx = default_fixture
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        rc = main([
            "run",
            "--catalog", str(fx / "catalog.csv"),
            "--predictions", str(fx / "tile_predictions.ndjson"),
            "--out", str(out),
            "--mode", "tiling",
            "--registry", str(fx / "regions.txt"),
            "--priors", "--priors-k", "3",
            "--embeddings", str(fx / "embeddings.ndjson"),
            "--threads", "1",
            "--seed", "42",
            "--keep-intermediates",
        ])
        assert rc == 0
        outs.append(out)

    for name in ("submission.csv", "projection.csv", "assignments.csv",
                 "region_clusters.csv", "priors.ndjson"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
