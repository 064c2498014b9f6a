"""Minimal hand-emitted SVG line charts.

No plotting dependency: a fixed-size polyline chart with axes, tick labels,
and a legend, with all coordinates formatted through %.6g so output bytes
are stable for golden-file comparisons. Point coordinates are computed on
whole arrays. Each polyline keeps at most 4 points per pixel column (M4,
see ``_m4``), however long the record, and they go through the CSV
writer's blocked formatter, ``signals._write_rows``.
"""

from __future__ import annotations

import numpy as np

from .signals import _write_rows

WIDTH, HEIGHT = 640, 400
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 60, 20, 40, 45
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _fmt(x: float) -> str:
    return f"{float(x):.6g}"


def _m4(px):
    """The M4 mask of one chart, as a function of a series' py. Pixel
    column floor(px) is one run of samples, as px increases. A column of at
    most 4 keeps them all, a larger one its first and last and the first of
    its least and greatest py: the polyline through them draws the same
    pixels as the full one (Jugel et al., "M4: A Visualization-Oriented
    Time Series Data Aggregation", PVLDB 7(10), 2014). The columns depend
    on px alone and are found once; each series adds its extremes."""
    n = len(px)
    starts = np.flatnonzero(np.r_[True, np.diff(np.floor(px)) != 0])
    sizes = np.diff(np.r_[starts, n])
    ends = starts + sizes
    fixed = np.r_[np.repeat(sizes <= 4, sizes), False]   # slot n: a NaN column's extremes
    fixed[starts] = fixed[ends - 1] = True

    def mask(py) -> np.ndarray:
        keep = fixed.copy()
        for extreme in (np.minimum, np.maximum):
            hits = np.r_[np.flatnonzero(py == np.repeat(extreme.reduceat(py, starts), sizes)), n]
            first = hits[np.searchsorted(hits, starts)]     # first hit at or after each start
            keep[np.where(first < ends, first, n)] = True
        return keep[:n]
    return mask


def line_chart(path, title: str, t, series) -> None:
    """Write a chart of (label, values) pairs over the abscissa t."""
    t = np.asarray(t, dtype=float)
    series = [(label, np.asarray(y, dtype=float)) for label, y in series]
    ymin = min(float(y.min()) for _, y in series)
    ymax = max(float(y.max()) for _, y in series)
    if ymax == ymin:
        ymax, ymin = ymax + 1.0, ymin - 1.0
    x0, x1 = float(t[0]), float(t[-1])
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    # the same IEEE operations, in the same order, as a per-point float loop
    px = MARGIN_L + (t - x0) / (x1 - x0) * plot_w
    m4 = _m4(px)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="24" font-family="sans-serif" font-size="16" '
        f'text-anchor="middle">{title}</text>',
        # axes
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
        f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" x2="{WIDTH - MARGIN_R}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
        # tick labels at the data extremes
        f'<text x="{MARGIN_L}" y="{HEIGHT - MARGIN_B + 18}" font-family="sans-serif" '
        f'font-size="11" text-anchor="middle">{_fmt(x0)}</text>',
        f'<text x="{WIDTH - MARGIN_R}" y="{HEIGHT - MARGIN_B + 18}" '
        f'font-family="sans-serif" font-size="11" text-anchor="middle">{_fmt(x1)}</text>',
        f'<text x="{MARGIN_L - 6}" y="{HEIGHT - MARGIN_B + 4}" font-family="sans-serif" '
        f'font-size="11" text-anchor="end">{_fmt(ymin)}</text>',
        f'<text x="{MARGIN_L - 6}" y="{MARGIN_T + 4}" font-family="sans-serif" '
        f'font-size="11" text-anchor="end">{_fmt(ymax)}</text>',
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 8}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle">t</text>',
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
        for idx, (label, y) in enumerate(series):
            color = PALETTE[idx % len(PALETTE)]
            py = MARGIN_T + (ymax - y) / (ymax - ymin) * plot_h
            keep = m4(py)
            fh.write('<polyline points="')
            _write_rows(fh, [px[keep], py[keep]], "%.6g", " ")
            fh.write(f'" fill="none" stroke="{color}" stroke-width="1.5"/>\n')
            ly = MARGIN_T + 16 * idx + 12
            lx = WIDTH - MARGIN_R - 110
            fh.write(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.5"/>\n')
            fh.write(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                     f'font-size="12">{label}</text>\n')
        fh.write("</svg>\n")
