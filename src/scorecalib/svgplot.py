"""Deterministic SVG rendering of threshold curves and their gap band.

Hand-written SVG keeps output byte-stable across runs: no timestamps,
no generated ids.  The shaded band between the two group curves has
area equal to the integrated bias, and that exact area is recorded in
the SVG ``<title>`` element.

Each staircase is reduced to its pixel columns before any coordinate is
formatted (M4 aggregation: Jugel et al. 2014, *VLDB*), so the SVG stays
about 100 KB however many breakpoints the curves have.
"""

from __future__ import annotations

import re

import numpy as np

from .empirical import StepCurve, curve_batches, integrate_abs_difference, merged_grid_batches
from .errors import InvalidParameterError

WIDTH, HEIGHT = 720, 480
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 64, 20, 44, 52

COLOR_A = "#1f77b4"
COLOR_B = "#d62728"
COLOR_BAND = "#888888"


def _x(theta: float) -> float:
    return MARGIN_LEFT + theta * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)

def _y(value: float) -> float:
    return HEIGHT - MARGIN_BOTTOM - value * (HEIGHT - MARGIN_TOP - MARGIN_BOTTOM)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


# characters XML 1.0 forbids: C0 controls other than tab, LF and CR,
# surrogates, U+FFFE and U+FFFF
_XML_FORBIDDEN = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _escape(text: str) -> str:
    """``text`` as XML character data.  Written out rather than imported:
    importing ``html`` or ``xml.sax.saxutils`` adds 0.7 or 7 MB to the
    peak memory of every CLI command.  A character that XML 1.0 forbids
    raises :class:`InvalidParameterError`."""
    bad = _XML_FORBIDDEN.search(text)
    if bad:
        raise InvalidParameterError(
            f"SVG text {text!r} holds {bad.group()!r}, which XML 1.0 forbids"
        )
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _M4:
    """The drawn corner points of one staircase, fed in pieces.

    Over grid points g_0 < ... < g_m = 1, with value u_j on the interval
    that ends at g_j, the staircase has the corners (g_(j-1), u_j) and
    (g_j, u_j) for each j, where g_(-1) = 0.  In each pixel column,
    floor(_x(theta)), the first and the last corner are kept, and the
    earliest at the column's minimum and at its maximum value (M4), in
    their original order.  A column of at most 4 corners keeps them all,
    so a sparse staircase is drawn exactly.  Between pieces only the open
    column is carried: its corner count and the corners it keeps so far.
    """

    def __init__(self):
        self.prev = 0.0  # the last grid point fed
        self.kept: list[tuple[float, float]] = []  # corners of closed columns
        self.open_t = self.open_v = np.empty(0)
        self.open_n = 0

    def feed(self, grid: np.ndarray, values: np.ndarray) -> None:
        t = np.empty(2 * grid.size)
        t[0], t[1::2], t[2::2] = self.prev, grid, grid[:-1]
        self.prev = grid[-1]
        t = np.concatenate((self.open_t, t))
        v = np.concatenate((self.open_v, np.repeat(values, 2)))
        col = np.floor(_x(t)).astype(np.int16)  # fewer than WIDTH columns
        new_col = np.concatenate(([True], col[1:] != col[:-1]))
        starts = np.flatnonzero(new_col)
        sizes = np.diff(starts, append=t.size)
        counts = sizes.copy()
        counts[0] += self.open_n - self.open_t.size  # the open column's dropped corners
        seg = np.cumsum(new_col) - 1  # column number of each corner
        keep = new_col | np.repeat(counts <= 4, sizes)
        keep[starts + sizes - 1] = True
        for reduce in (np.minimum, np.maximum):
            hits = np.flatnonzero(v == reduce.reduceat(v, starts)[seg])
            keep[hits[np.unique(seg[hits], return_index=True)[1]]] = True
        last = starts[-1]
        self.kept += zip(t[:last][keep[:last]].tolist(), v[:last][keep[:last]].tolist())
        self.open_t, self.open_v, self.open_n = t[last:][keep[last:]], v[last:][keep[last:]], counts[-1]

    def points(self) -> list[tuple[float, float]]:
        return self.kept + list(zip(self.open_t.tolist(), self.open_v.tolist()))


def _curve_points(curve: StepCurve) -> list[tuple[float, float]]:
    """``curve``'s drawn corners, fed one :func:`~scorecalib.empirical.curve_batches`
    batch at a time; the last value holds up to theta=1."""
    m4 = _M4()
    for [(head, values)] in curve_batches([curve]):
        m4.feed(head, values[:-1])
    m4.feed(np.array([1.0]), curve.values[-1:])
    return m4.points()


def _polyline(points: list[tuple[float, float]]) -> str:
    return " ".join(f"{_fmt(_x(t))},{_fmt(_y(v))}" for t, v in points)


def render_gap_svg(
    curve_a: StepCurve,
    curve_b: StepCurve,
    label_a: str = "minority",
    label_b: str = "majority",
    title: str = "threshold curves",
) -> str:
    """SVG document overlaying two step curves with the |gap| shaded.

    The band's edges are reduced over one :func:`merged_grid_batches` walk.
    Memory: one float per merged grid point for the area, plus
    O(``BATCH_ROWS`` + pixel columns).
    """
    area = integrate_abs_difference(curve_a, curve_b)
    upper, lower = _M4(), _M4()
    for grid, va, vb in merged_grid_batches(curve_a, curve_b):
        upper.feed(grid, np.maximum(va, vb))
        lower.feed(grid, np.minimum(va, vb))
    band = _polyline(upper.points()) + " " + _polyline(lower.points()[::-1])
    title, label_a, label_b = _escape(title), _escape(label_a), _escape(label_b)

    ticks = []
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        ticks.append(
            f'<line x1="{_fmt(_x(frac))}" y1="{_fmt(_y(0))}" x2="{_fmt(_x(frac))}" '
            f'y2="{_fmt(_y(0) + 5)}" stroke="#333" stroke-width="1"/>'
            f'<text x="{_fmt(_x(frac))}" y="{_fmt(_y(0) + 20)}" font-size="12" '
            f'text-anchor="middle" fill="#333">{frac:g}</text>'
            f'<line x1="{_fmt(_x(0))}" y1="{_fmt(_y(frac))}" x2="{_fmt(_x(0) - 5)}" '
            f'y2="{_fmt(_y(frac))}" stroke="#333" stroke-width="1"/>'
            f'<text x="{_fmt(_x(0) - 9)}" y="{_fmt(_y(frac) + 4)}" font-size="12" '
            f'text-anchor="end" fill="#333">{frac:g}</text>'
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f"<title>{title} | gap band area = {area:.9f}</title>",
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<polygon points="{band}" fill="{COLOR_BAND}" fill-opacity="0.35" stroke="none"/>',
        f'<polyline points="{_polyline(_curve_points(curve_a))}" '
        f'fill="none" stroke="{COLOR_A}" stroke-width="2"/>',
        f'<polyline points="{_polyline(_curve_points(curve_b))}" '
        f'fill="none" stroke="{COLOR_B}" stroke-width="2"/>',
        f'<line x1="{_fmt(_x(0))}" y1="{_fmt(_y(0))}" x2="{_fmt(_x(1))}" y2="{_fmt(_y(0))}" '
        f'stroke="#333" stroke-width="1"/>',
        f'<line x1="{_fmt(_x(0))}" y1="{_fmt(_y(0))}" x2="{_fmt(_x(0))}" y2="{_fmt(_y(1))}" '
        f'stroke="#333" stroke-width="1"/>',
        "".join(ticks),
        f'<text x="{_fmt(_x(0.5))}" y="24" font-size="15" text-anchor="middle" '
        f'fill="#111">{title} (band area {area:.4f})</text>',
        f'<rect x="{_fmt(_x(0.72))}" y="{_fmt(MARGIN_TOP + 6)}" width="12" height="3" '
        f'fill="{COLOR_A}"/>',
        f'<text x="{_fmt(_x(0.72) + 18)}" y="{_fmt(MARGIN_TOP + 12)}" font-size="12" '
        f'fill="#333">{label_a}</text>',
        f'<rect x="{_fmt(_x(0.72))}" y="{_fmt(MARGIN_TOP + 24)}" width="12" height="3" '
        f'fill="{COLOR_B}"/>',
        f'<text x="{_fmt(_x(0.72) + 18)}" y="{_fmt(MARGIN_TOP + 30)}" font-size="12" '
        f'fill="#333">{label_b}</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"
