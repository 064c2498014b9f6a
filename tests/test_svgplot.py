import math
import re

import numpy as np
import pytest

from calckit import signals, svgplot


def loop_points(t, y, ymin, ymax):
    """Reference: the per-point formatter that line_chart replaced."""
    x0, x1 = float(t[0]), float(t[-1])
    plot_w = svgplot.WIDTH - svgplot.MARGIN_L - svgplot.MARGIN_R
    plot_h = svgplot.HEIGHT - svgplot.MARGIN_T - svgplot.MARGIN_B

    def px(x):
        return svgplot.MARGIN_L + (x - x0) / (x1 - x0) * plot_w

    def py(v):
        return svgplot.MARGIN_T + (ymax - v) / (ymax - ymin) * plot_h

    return " ".join(f"{svgplot._fmt(px(float(xv)))},{svgplot._fmt(py(float(yv)))}"
                    for xv, yv in zip(t, y))


def loop_m4(t, y, ymin, ymax):
    """Reference: M4's selection, one pixel column at a time. A column of
    at most 4 samples keeps them all; a larger one keeps, in time order,
    its first and last samples and the first least and greatest py."""
    x0, x1 = float(t[0]), float(t[-1])
    plot_w = svgplot.WIDTH - svgplot.MARGIN_L - svgplot.MARGIN_R
    plot_h = svgplot.HEIGHT - svgplot.MARGIN_T - svgplot.MARGIN_B
    columns = {}
    for k, xv in enumerate(t):
        px = svgplot.MARGIN_L + (float(xv) - x0) / (x1 - x0) * plot_w
        columns.setdefault(math.floor(px), []).append(k)
    keep = []
    for ks in columns.values():
        if len(ks) > 4:
            py = [svgplot.MARGIN_T + (ymax - float(y[k])) / (ymax - ymin) * plot_h for k in ks]
            ks = sorted({ks[0], ks[-1], ks[py.index(min(py))], ks[py.index(max(py))]})
        keep += ks
    return keep


def polylines(path):
    return re.findall(r'<polyline points="([^"]*)"', path.read_text(encoding="utf-8"))


def y_range(series):
    ymin = min(float(y.min()) for _, y in series)
    ymax = max(float(y.max()) for _, y in series)
    return (ymin - 1.0, ymax + 1.0) if ymax == ymin else (ymin, ymax)


@pytest.mark.parametrize("seed, n, flat, block", [
    (0, 2, False, 4096), (1, 1000, False, 7), (2, 50, True, 4096), (3, 4097, False, 4096),
    (4, 50, False, 1), (5, 50, False, 49), (6, 50, False, 50), (7, 50, False, 51),
])
def test_line_chart_points_equal_per_point_formatter(tmp_path, monkeypatch, seed, n, flat,
                                                     block):
    # polylines go through the CSV writer's blocked formatter and its block size
    monkeypatch.setattr(signals, "WRITE_BLOCK_ROWS", block)
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.uniform(1e-3, 2.0, n)) - 5.0
    series = [("a", rng.standard_normal(n) * 1e3), ("b", rng.standard_normal(n) * 1e-6),
              ("c", np.full(n, -0.0))]
    if flat:
        series = [("c", np.full(n, 7.25))]
    path = tmp_path / "chart.svg"
    svgplot.line_chart(path, "title", t, series)
    ymin, ymax = y_range(series)
    expected = []
    for _, y in series:
        keep = loop_m4(t, y, ymin, ymax)
        expected.append(loop_points(t[keep], y[keep], ymin, ymax))
    assert polylines(path) == expected


def test_line_chart_with_at_most_4_samples_per_column_keeps_every_point(tmp_path):
    rng = np.random.default_rng(11)
    n = 4 * (svgplot.WIDTH - svgplot.MARGIN_L - svgplot.MARGIN_R)   # spacing > 1/4 px
    t = np.linspace(-3.0, 7.0, n)
    series = [("a", rng.standard_normal(n)), ("b", np.cumsum(rng.standard_normal(n)))]
    px = svgplot.MARGIN_L + (t - t[0]) / (t[-1] - t[0]) * (
        svgplot.WIDTH - svgplot.MARGIN_L - svgplot.MARGIN_R)
    sizes = np.unique(np.floor(px), return_counts=True)[1]
    assert sizes.max() == 4
    path = tmp_path / "chart.svg"
    svgplot.line_chart(path, "title", t, series)
    ymin, ymax = y_range(series)
    assert polylines(path) == [loop_points(t, y, ymin, ymax) for _, y in series]


def test_m4_polyline_keeps_each_columns_first_last_min_and_max(tmp_path):
    # the same first, last, least and greatest point in every pixel column
    # draw the same raster (Jugel et al., PVLDB 7(10), 2014, section 4)
    rng = np.random.default_rng(25)
    n = 100_000
    t = 0.01 * np.arange(n)
    series = [(f"s{i}", np.cumsum(rng.standard_normal(n)) * 10.0 ** (i - 3))
              for i in range(5)]
    series.append(("steps", np.repeat(rng.standard_normal(n // 500), 500)))
    path = tmp_path / "chart.svg"
    svgplot.line_chart(path, "title", t, series)
    ymin, ymax = y_range(series)
    plot_w = svgplot.WIDTH - svgplot.MARGIN_L - svgplot.MARGIN_R
    plot_h = svgplot.HEIGHT - svgplot.MARGIN_T - svgplot.MARGIN_B
    px = svgplot.MARGIN_L + (t - t[0]) / (t[-1] - t[0]) * plot_w
    column = np.floor(px).astype(int)
    where = {svgplot._fmt(x): k for k, x in enumerate(px)}
    assert len(where) == n                       # every sample has its own x text
    for (_, y), points in zip(series, polylines(path)):
        py = svgplot.MARGIN_T + (ymax - y) / (ymax - ymin) * plot_h
        pairs = [p.split(",") for p in points.split(" ")]
        kept = np.array([where[x] for x, _ in pairs])
        assert [v for _, v in pairs] == [svgplot._fmt(py[k]) for k in kept]
        assert np.all(np.diff(kept) > 0)
        assert len(kept) <= 4 * (plot_w + 1)
        for c in np.unique(column):
            full = np.flatnonzero(column == c)
            mine = kept[column[kept] == c]
            assert len(mine) <= 4
            assert (mine[0], mine[-1]) == (full[0], full[-1])
            assert py[mine].min() == py[full].min() and py[mine].max() == py[full].max()
