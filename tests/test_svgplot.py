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
    ymin = min(float(y.min()) for _, y in series)
    ymax = max(float(y.max()) for _, y in series)
    if ymax == ymin:
        ymax, ymin = ymax + 1.0, ymin - 1.0
    got = re.findall(r'<polyline points="([^"]*)"', path.read_text(encoding="utf-8"))
    assert got == [loop_points(t, y, ymin, ymax) for _, y in series]
