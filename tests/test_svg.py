import hashlib

import numpy as np
import pytest

from brt import svg


def test_line_chart_bytes_deterministic(tmp_path):
    x = np.arange(10.0)
    ys = [("a", np.sin(x)), ("b", np.cos(x))]
    svg.line_chart(tmp_path / "one.svg", "demo", x, ys, "x", "y")
    svg.line_chart(tmp_path / "two.svg", "demo", x, ys, "x", "y")
    a = (tmp_path / "one.svg").read_bytes()
    assert a == (tmp_path / "two.svg").read_bytes()
    text = a.decode()
    assert text.count("<polyline") == 2
    assert "font-family=\"sans-serif\"" in text
    assert "http://www.w3.org/2000/svg" in text


def test_bar_chart_one_bar_per_label(tmp_path):
    svg.bar_chart(tmp_path / "bars.svg", "bars", ["u", "v", "w"], [3.0, 2.0, 1.0], "score")
    text = (tmp_path / "bars.svg").read_text()
    assert text.count('<rect x="72"') == 3
    assert ">u<" in text and ">w<" in text


def test_heatmap_cell_count_and_escaping(tmp_path):
    vals = np.arange(12.0).reshape(3, 4) - 5.0
    svg.heatmap(tmp_path / "h.svg", "a <b> & c", np.arange(3.0), np.arange(4.0), vals, "x", "y")
    text = (tmp_path / "h.svg").read_text()
    assert text.count("<rect ") == 12 + 1  # cells + background
    assert "a &lt;b&gt; &amp; c" in text


def test_nan_points_are_skipped(tmp_path):
    x = np.arange(5.0)
    y = np.array([1.0, np.nan, 3.0, np.nan, 5.0])
    svg.line_chart(tmp_path / "gap.svg", "gaps", x, [("s", y)], "x", "y")
    text = (tmp_path / "gap.svg").read_text()
    poly = [ln for ln in text.splitlines() if "polyline" in ln][0]
    assert poly.count(",") == 3  # three finite points survive


X = np.arange(6.0)
# sha256 of one chart of each kind: the axes, ticks and labels the charts share
# must keep their bytes and their place in the element order.
GOLDEN_CHARTS = {
    "line": (
        lambda p: svg.line_chart(p, "fit", X, [("actual", X**2), ("predicted", np.where(X == 2, np.nan, X**2 + 0.5))], "year", "y"),
        "a2c088c45240d20d685d8ba9f0e5f247e558e9495c57dd19061e8f28ea6ff9dd",
    ),
    "bar": (
        lambda p: svg.bar_chart(p, "influence", ["MSP", "FWI", "FAO"], [55.25, 30.5, 14.25], "relative influence (%)"),
        "aa47413a34a349a1350f36a41d20f836b48e951f9ee629f808f5fe9bdf73c264",
    ),
    "bar-zero": (
        lambda p: svg.bar_chart(p, "none", ["a", "b"], [0.0, 0.0], "x"),
        "aa96d45b3559acbf56ea87a17cd8dc3315329479a9210308d734319108ef920f",
    ),
    "heatmap": (
        lambda p: svg.heatmap(
            p, "surface", np.linspace(0, 1, 12), np.linspace(-2, 2, 10),
            np.outer(np.linspace(-1, 1, 12), np.linspace(0, 3, 10)), "MSP", "FWI",
        ),
        "7dd785176311623288349c8a79791c1ca3819033976675c21ff1359d09555e5e",
    ),
}


@pytest.mark.parametrize("name", GOLDEN_CHARTS)
def test_chart_bytes_match_golden_digest(tmp_path, name):
    draw, digest = GOLDEN_CHARTS[name]
    draw(tmp_path / "chart.svg")
    assert hashlib.sha256((tmp_path / "chart.svg").read_bytes()).hexdigest() == digest
