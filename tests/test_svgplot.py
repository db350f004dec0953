"""The SVG renderer against copies of the renderers it replaced.

``oracle_render_gap_svg`` is the renderer as it was before staircases
were reduced to pixel columns (commit 73eea0c): it formats every corner
of every staircase.  The reduced SVG must draw a subsequence of the
oracle's points that keeps each pixel column's first, last, minimum and
maximum corner, must equal the oracle byte for byte when no column holds
more than 4 corners, and must keep the oracle's exact ``<title>``.

``parent_step_points``, ``oracle_merged_grid`` and ``oracle_grid_area``
are the whole-length M4 reduction and integral as they were before the
merged grid was walked in batches (commit cf0d60d).  The batched
renderer and integral must equal them byte for byte and bit for bit,
however the batches cut the pixel columns.
"""

import json
import re
import tracemalloc
import xml.etree.ElementTree as ET
from functools import partial
from itertools import groupby
from math import floor
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from scorecalib import dataset, svgplot
from scorecalib.cli import main
from scorecalib.empirical import StepCurve, integrate_abs_difference
from scorecalib.errors import InvalidParameterError
from scorecalib.svgplot import (
    COLOR_A,
    COLOR_B,
    COLOR_BAND,
    HEIGHT,
    MARGIN_TOP,
    WIDTH,
    _fmt,
    _x,
    _y,
    render_gap_svg,
)

SVG_NS = "{http://www.w3.org/2000/svg}"
PIXEL_COLUMNS = 637  # floor(_x(theta)) for theta in [0, 1] is 64..700


# --- the renderer before M4 reduction, kept as an oracle -------------------

def oracle_step_points(breakpoints: np.ndarray, values: np.ndarray) -> list[tuple[float, float]]:
    """Corner points of the staircase from theta=0 to theta=1."""
    pts = [(0.0, float(values[0]))]
    for bp, nxt in zip(breakpoints, values[1:]):
        pts.append((float(bp), pts[-1][1]))
        pts.append((float(bp), float(nxt)))
    pts.append((1.0, pts[-1][1]))
    return pts


def oracle_polyline(points: list[tuple[float, float]]) -> str:
    return " ".join(f"{_fmt(_x(t))},{_fmt(_y(v))}" for t, v in points)


def oracle_merged_grid(c1: StepCurve, c2: StepCurve) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The merged breakpoints followed by 1.0, and each curve's value on
    the interval that ends at each of those points."""
    grid = np.concatenate((np.union1d(c1.breakpoints, c2.breakpoints), [1.0]))
    return grid, c1(grid), c2(grid)


def oracle_grid_area(grid: np.ndarray, v1: np.ndarray, v2: np.ndarray) -> float:
    """Exact integral of |v1 - v2| over [0, 1] for an ``oracle_merged_grid``."""
    if grid.size > 1 and grid[-2] == 1.0:  # a breakpoint at 1 ends the last interval
        grid, v1, v2 = grid[:-1], v1[:-1], v2[:-1]
    return float(np.sum(np.abs(v1 - v2) * np.diff(grid, prepend=0.0)))


def parent_step_points(breakpoints: np.ndarray, values: np.ndarray) -> list[tuple[float, float]]:
    """M4 over the staircase's corners, all of them built at once."""
    thetas = np.concatenate(([0.0], np.repeat(breakpoints, 2), [1.0]))
    values = np.repeat(values, 2)
    col = np.floor(_x(thetas)).astype(np.int16)
    new_col = np.concatenate(([True], col[1:] != col[:-1]))
    del col
    starts = np.flatnonzero(new_col)
    sizes = np.diff(np.append(starts, new_col.size))
    seg = np.cumsum(new_col, dtype=np.int32) - 1
    keep = new_col | np.repeat(sizes <= 4, sizes)
    keep[starts + sizes - 1] = True
    for reduce in (np.minimum, np.maximum):
        hits = np.flatnonzero(values == reduce.reduceat(values, starts)[seg])
        keep[hits[np.unique(seg[hits], return_index=True)[1]]] = True
    return list(zip(thetas[keep].tolist(), values[keep].tolist()))


def oracle_render_gap_svg(
    curve_a: StepCurve,
    curve_b: StepCurve,
    label_a: str = "minority",
    label_b: str = "majority",
    title: str = "threshold curves",
    step_points=oracle_step_points,
) -> str:
    """SVG document overlaying two step curves with the |gap| shaded, each
    staircase drawn at the corners ``step_points`` picks."""
    grid, va, vb = oracle_merged_grid(curve_a, curve_b)
    area = oracle_grid_area(grid, va, vb)
    upper = step_points(grid[:-1], np.maximum(va, vb))
    lower = step_points(grid[:-1], np.minimum(va, vb))
    band = oracle_polyline(upper) + " " + oracle_polyline(lower[::-1])

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
        f'<polyline points="{oracle_polyline(step_points(curve_a.breakpoints, curve_a.values))}" '
        f'fill="none" stroke="{COLOR_A}" stroke-width="2"/>',
        f'<polyline points="{oracle_polyline(step_points(curve_b.breakpoints, curve_b.values))}" '
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


parent_render_gap_svg = partial(oracle_render_gap_svg, step_points=parent_step_points)


# --- helpers ---------------------------------------------------------------

def point_lists(svg: str) -> list[list[str]]:
    """The band polygon's and the two curve polylines' "x,y" tokens."""
    return [m.split(" ") for m in re.findall(r'points="([^"]*)"', svg)]


def title_line(svg: str) -> str:
    return next(line for line in svg.splitlines() if line.startswith("<title>"))


def is_subsequence(sub, seq) -> bool:
    it = iter(seq)
    return all(item in it for item in sub)


def m4_corners(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Each pixel column's first, last, and earliest minimum and maximum
    corner, in their original order, picked one corner at a time."""
    kept = set()
    indexed = list(enumerate(points))
    for _, column in groupby(indexed, key=lambda ip: floor(_x(ip[1][0]))):
        column = list(column)
        kept.add(column[0][0])
        kept.add(column[-1][0])
        kept.add(min(column, key=lambda ip: (ip[1][1], ip[0]))[0])
        kept.add(min(column, key=lambda ip: (-ip[1][1], ip[0]))[0])
    return [points[i] for i in sorted(kept)]


def staircases(curve_a: StepCurve, curve_b: StepCurve) -> list[tuple[np.ndarray, np.ndarray]]:
    """(breakpoints, values) of both curves and both band boundaries."""
    grid, va, vb = oracle_merged_grid(curve_a, curve_b)
    return [
        (curve_a.breakpoints, curve_a.values),
        (curve_b.breakpoints, curve_b.values),
        (grid[:-1], np.maximum(va, vb)),
        (grid[:-1], np.minimum(va, vb)),
    ]


def m4_points(breakpoints: np.ndarray, values: np.ndarray, batch: int) -> list[tuple[float, float]]:
    """The corners ``svgplot._M4`` keeps of a staircase fed ``batch`` grid
    points at a time; the grid is the breakpoints followed by 1.0."""
    m4, grid = svgplot._M4(), np.append(breakpoints, 1.0)
    for start in range(0, grid.size, batch):
        m4.feed(grid[start:start + batch], values[start:start + batch])
    return m4.points()


def max_corners_per_column(curve_a: StepCurve, curve_b: StepCurve) -> int:
    return max(
        len(list(column))
        for bp, values in staircases(curve_a, curve_b)
        for _, column in groupby(oracle_step_points(bp, values), key=lambda p: floor(_x(p[0])))
    )


@st.composite
def step_curves(draw, ticks=2000, spans=(1.0, 0.05, 0.004)):
    """A step curve whose breakpoints sit on a grid of ``ticks`` steps over
    an interval of width ``span``, so narrow spans pack many corners into
    one pixel column; values come from a small set, so ties are common."""
    span = draw(st.sampled_from(spans))
    low = draw(st.integers(0, 100)) / 100 * (1.0 - span)
    steps = draw(st.lists(st.integers(0, ticks), unique=True, max_size=80))
    bp = low + np.sort(np.array(steps, dtype=float)) / ticks * span
    n_values = len(steps) + 1
    values = draw(st.lists(st.integers(0, 8), min_size=n_values, max_size=n_values))
    return StepCurve(bp, np.array(values, dtype=float) / 8)


# --- tests -----------------------------------------------------------------

@given(step_curves(), step_curves())
def test_reduced_polylines_are_subsequences_of_the_oracle(curve_a, curve_b):
    # every drawn point is one the oracle drew, in the same
    # order, and the title holds the same exact area
    svg = render_gap_svg(curve_a, curve_b)
    ET.fromstring(svg)
    oracle = oracle_render_gap_svg(curve_a, curve_b)
    for reduced, full in zip(point_lists(svg), point_lists(oracle), strict=True):
        assert len(reduced) <= len(full)
        assert is_subsequence(reduced, full)
    assert title_line(svg) == title_line(oracle)


@given(step_curves(), step_curves(), st.sampled_from([1, 2, 3, 8192]))
def test_every_column_keeps_first_last_min_and_max(curve_a, curve_b, batch):
    # on the corner points of both curves and both band boundaries
    for bp, values in staircases(curve_a, curve_b):
        full = oracle_step_points(bp, values)
        kept = m4_points(bp, values, batch)
        assert is_subsequence(kept, full)
        assert is_subsequence(m4_corners(full), kept)
        for _, column in groupby(kept, key=lambda p: floor(_x(p[0]))):
            assert len(list(column)) <= 4


# breakpoints about one pixel apart: few columns hold more than 4 corners
@given(step_curves(ticks=636, spans=(1.0,)), step_curves(ticks=636, spans=(1.0,)))
# a falling staircase with two steps in one pixel column: 4 corners, of
# which M4's four picks name only the outer two
@example(
    StepCurve(np.array([0.5, 0.5005]), np.array([1.0, 0.6, 0.2])),
    StepCurve(np.array([0.25]), np.array([0.9, 0.1])),
)
def test_at_most_four_corners_per_column_is_byte_identical(curve_a, curve_b):
    assume(max_corners_per_column(curve_a, curve_b) <= 4)
    assert render_gap_svg(curve_a, curve_b) == oracle_render_gap_svg(curve_a, curve_b)


def in_one_column(n: int) -> StepCurve:
    """n breakpoints inside the pixel column of 0.5, values zigzagging."""
    return StepCurve(0.5 + np.arange(n) * 1e-6, np.arange(n + 1) % 3 / 2)


@given(step_curves(), step_curves(), st.sampled_from([1, 2, 3, 8192]))
# a breakpoint at 1.0 in one curve, and in both: the walk's last piece,
# theta=1, takes the value on the interval that ends at that breakpoint
@example(StepCurve(np.array([0.3, 1.0]), np.array([1.0, 0.5, 0.25])),
         StepCurve(np.array([0.6]), np.array([1.0, 0.0])), 1)
@example(StepCurve(np.array([0.3, 1.0]), np.array([1.0, 0.5, 0.25])),
         StepCurve(np.array([0.999, 1.0]), np.array([0.75, 0.5, 0.0])), 2)
# every breakpoint in one pixel column, which each batch size cuts
@example(in_one_column(40), in_one_column(25), 1)
@example(in_one_column(40), in_one_column(25), 3)
@example(in_one_column(9), StepCurve(np.array([0.5000005]), np.array([0.0, 1.0])), 2)
# empty breakpoint lists
@example(StepCurve(np.array([]), np.array([0.5])), StepCurve(np.array([]), np.array([0.25])), 1)
@example(StepCurve(np.array([]), np.array([0.5])), in_one_column(7), 3)
# -0.0 against 0.0 breakpoints
@example(StepCurve(np.array([-0.0, 0.5]), np.array([1.0, 0.5, 0.0])),
         StepCurve(np.array([0.0, 0.25]), np.array([0.75, 0.5, 0.25])), 1)
@example(StepCurve(np.array([-0.0]), np.array([1.0, 0.0])),
         StepCurve(np.array([0.0]), np.array([1.0, 0.0])), 8192)
def test_batched_walk_equals_the_whole_length_renderer(curve_a, curve_b, batch_rows):
    # pixel columns straddle batches; the SVG and the area do not change
    with mock.patch.object(dataset, "BATCH_ROWS", batch_rows):
        svg = render_gap_svg(curve_a, curve_b)
        area = integrate_abs_difference(curve_a, curve_b)
    assert svg == parent_render_gap_svg(curve_a, curve_b)
    assert area.hex() == oracle_grid_area(*oracle_merged_grid(curve_a, curve_b)).hex()


def test_dense_curves_stay_small():
    # two curves of 1e5 breakpoints each
    rng = np.random.default_rng(17)
    curves = []
    for _ in range(2):
        bp = np.unique(rng.random(100_000))
        values = np.concatenate(([1.0], rng.random(bp.size)))
        curves.append(StepCurve(bp, values))
    assert all(c.breakpoints.size > 99_000 for c in curves)
    svg = render_gap_svg(*curves)
    ET.fromstring(svg)
    band, line_a, line_b = point_lists(svg)
    assert len(line_a) <= 4 * PIXEL_COLUMNS and len(line_b) <= 4 * PIXEL_COLUMNS
    assert len(band) <= 2 * 4 * PIXEL_COLUMNS
    assert len(svg.encode("utf-8")) < 200_000
    area = integrate_abs_difference(*curves)
    assert title_line(svg) == f"<title>threshold curves | gap band area = {area:.9f}</title>"


def test_title_and_labels_are_xml_escaped(tmp_path):
    # a title and a file name with XML metacharacters must give a
    # well-formed SVG that reads back the original text
    title = 'x<y & "z"'
    curve_a, curve_b = tmp_path / "a&b.csv", tmp_path / "c<d>.csv"
    StepCurve(np.array([0.4]), np.array([1.0, 0.0])).to_csv(curve_a)
    StepCurve(np.array([0.6]), np.array([1.0, 0.0])).to_csv(curve_b)
    out = tmp_path / "out"
    assert main(["plot", "--input", str(curve_a), str(curve_b), "--title", title,
                 "--out-dir", str(out)]) == 0
    root = ET.parse(out / "curves.svg").getroot()
    assert root.find(f"{SVG_NS}title").text == f"{title} | gap band area = 0.200000000"
    texts = [t.text for t in root.iter(f"{SVG_NS}text")]
    assert f"{title} (band area 0.2000)" in texts
    assert "a&b" in texts and "c<d>" in texts


# every character XML 1.0 forbids, by kind: C0 controls other than tab,
# LF and CR, the two non-characters U+FFFE and U+FFFF, and surrogates
FORBIDDEN = [
    "\x00", "\x01", "\x08", "\x0b", "\x0c", "\x0e", "\x1f",
    "\ufffe", "\uffff",
    "\ud800", "\udc80", "\udfff",
]


@pytest.mark.parametrize("char", FORBIDDEN, ids=lambda c: f"U+{ord(c):04X}")
def test_xml_forbidden_characters_are_rejected(char):
    curve = StepCurve(np.array([0.5]), np.array([1.0, 0.0]))
    with pytest.raises(InvalidParameterError, match="XML 1.0 forbids"):
        render_gap_svg(curve, curve, title=f"x{char}y")
    with pytest.raises(InvalidParameterError):
        render_gap_svg(curve, curve, label_a=f"a{char}")


def test_xml_allowed_whitespace_and_text_parse():
    # tab, LF, CR, DEL and characters outside the BMP are allowed
    curve = StepCurve(np.array([0.5]), np.array([1.0, 0.0]))
    title = "a\tb\nc\rd\x7fe \u00e9 \U0001f600 \ufffd"
    ET.fromstring(render_gap_svg(curve, curve, title=title))


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("char", ["\x01", "\ud800"], ids=["U+0001", "U+D800"])
def test_cli_forbidden_title_character_exits_2(tmp_path, capsys, via, char):
    curve_a, curve_b = tmp_path / "a.csv", tmp_path / "b.csv"
    StepCurve(np.array([0.4]), np.array([1.0, 0.0])).to_csv(curve_a)
    StepCurve(np.array([0.6]), np.array([1.0, 0.0])).to_csv(curve_b)
    out = tmp_path / "out"
    argv = ["plot", "--input", str(curve_a), str(curve_b), "--out-dir", str(out)]
    if via == "flag":
        argv += ["--title", f"x{char}y"]
    else:
        config = tmp_path / "plot.json"
        # json.dumps writes the character as a \uXXXX escape
        config.write_text(json.dumps({"title": f"x{char}y"}), encoding="utf-8")
        argv += ["--config", str(config)]
    assert main(argv) == 2
    assert "XML 1.0 forbids" in capsys.readouterr().err
    assert not (out / "curves.svg").exists()


@pytest.mark.parametrize("title", [3, 0.5, True, ["x"], {"text": "x"}])
def test_cli_config_title_must_be_a_string(tmp_path, capsys, title):
    curve_a, curve_b = tmp_path / "a.csv", tmp_path / "b.csv"
    StepCurve(np.array([0.4]), np.array([1.0, 0.0])).to_csv(curve_a)
    StepCurve(np.array([0.6]), np.array([1.0, 0.0])).to_csv(curve_b)
    config = tmp_path / "plot.json"
    config.write_text(json.dumps({"title": title}), encoding="utf-8")
    out = tmp_path / "out"
    argv = ["plot", "--input", str(curve_a), str(curve_b), "--config", str(config),
            "--out-dir", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: invalid title {title!r}\n"
    assert not (out / "curves.svg").exists()


# ---------------------------------------------------------------- memory

def traced_peak(fn, *args) -> int:
    """Peak bytes traced while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dense_pair(n: int) -> tuple[StepCurve, StepCurve]:
    """Two curves of n distinct breakpoints each, no breakpoint shared."""
    rng = np.random.default_rng(n)
    bp = np.unique(rng.random(2 * n + 64))[: 2 * n]
    assert bp.size == 2 * n
    return tuple(StepCurve(bp[i::2], np.concatenate(([1.0], rng.random(n)))) for i in (0, 1))


def test_walk_memory_is_one_float_per_grid_point():
    # the area holds one float per grid point and the walk one batch; the
    # whole-length grid held about eight arrays of grid length (16.9 MB
    # traced for the SVG of two curves of 8e4 and 1.2e5 breakpoints)
    small, large = dense_pair(20_000), dense_pair(200_000)
    assert traced_peak(render_gap_svg, *large) < 4_000_000
    grown = traced_peak(integrate_abs_difference, *large) - traced_peak(
        integrate_abs_difference, *small)
    assert grown <= 9 * (2 * 200_000 - 2 * 20_000)
