"""SVG scatter rendering."""

import re

import numpy as np
import pytest

from floratile.errors import InputError
from floratile.svgplot import PALETTE, plot_projection, save_projection_plot


def _circles(svg):
    return re.findall(r"<circle [^>]*/>", svg)


def _legend_rects(svg):
    # the background rect has no x attribute; legend swatches do
    return [r for r in re.findall(r"<rect [^>]*/>", svg) if 'x="' in r]


def test_plot_one_circle_per_point():
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]])
    svg = plot_projection(pts, labels=[0, 1, 1])
    assert len(_circles(svg)) == 3
    assert len(_legend_rects(svg)) == 2  # one swatch per distinct label
    assert svg.startswith('<?xml version="1.0"')
    assert svg.rstrip().endswith("</svg>")


def test_plot_distinct_colors_for_13_clusters():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(13, 2))
    svg = plot_projection(pts, labels=list(range(13)))
    fills = re.findall(r'<circle[^>]*fill="(#[0-9a-f]{6})"', svg)
    assert len(set(fills)) == 13
    assert set(fills) <= set(PALETTE)


def test_plot_unlabeled_has_no_legend():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    svg = plot_projection(pts)
    assert len(_circles(svg)) == 2
    assert _legend_rects(svg) == []


def test_plot_identical_points_degenerate_axes():
    pts = np.zeros((4, 2))
    svg = plot_projection(pts, labels=[0, 0, 1, 1])
    assert len(_circles(svg)) == 4
    # all circles land at the same finite pixel
    coords = set(re.findall(r'cx="([^"]+)" cy="([^"]+)"', svg))
    assert len(coords) == 1


def test_plot_rejects_zero_points():
    with pytest.raises(InputError):
        plot_projection(np.zeros((0, 2)))


def test_plot_rejects_bad_shapes_and_values():
    with pytest.raises(InputError):
        plot_projection(np.zeros((3, 3)))
    with pytest.raises(InputError):
        plot_projection(np.array([[np.nan, 0.0]]))
    with pytest.raises(InputError):
        plot_projection(np.zeros((2, 2)), labels=[0])


def test_plot_escapes_xml_in_title_and_labels():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    svg = plot_projection(
        pts,
        labels=[0, 1],
        label_names={0: "a <b> & c", 1: "plain"},
        title='x < y & "z"',
    )
    assert "a &lt;b&gt; &amp; c" in svg
    assert "x &lt; y &amp;" in svg
    assert "<b>" not in svg


def test_plot_label_names_fall_back_to_cluster_number():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    svg = plot_projection(pts, labels=[0, 5], label_names={0: "alpha"})
    assert ">alpha</text>" in svg
    assert ">cluster 5</text>" in svg


def test_save_projection_plot(tmp_path):
    path = tmp_path / "plot.svg"
    save_projection_plot(path, np.array([[0.0, 0.0], [2.0, 2.0]]), labels=[0, 1])
    text = path.read_text()
    assert len(_circles(text)) == 2


def test_escape_matches_saxutils():
    from xml.sax.saxutils import escape as sax_escape

    from floratile.svgplot import escape

    for text in ("", "plain", "&<>\"'", "a&amp;b", "<<&>>", "'q' & \"d\" < > &lt;", "é & ☃"):
        assert escape(text) == sax_escape(text)
