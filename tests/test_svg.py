"""The bulk heatmap against the per-cell colour map and cell loop it replaced."""

import numpy as np
import pytest

from pstsim import svg

# the colour stops, scalar colour map and per-cell heatmap loop as they were
# before the heatmap coloured its cells in one array pass; references only
_STOPS = (
    (0.267, 0.005, 0.329), (0.283, 0.141, 0.458), (0.254, 0.265, 0.530),
    (0.207, 0.372, 0.553), (0.164, 0.471, 0.558), (0.128, 0.567, 0.551),
    (0.135, 0.659, 0.518), (0.267, 0.749, 0.441), (0.478, 0.821, 0.318),
    (0.741, 0.873, 0.150), (0.993, 0.906, 0.144),
)


def _color(x: float) -> str:
    x = min(max(float(x), 0.0), 1.0)
    pos = x * (len(_STOPS) - 1)
    i = min(int(pos), len(_STOPS) - 2)
    f = pos - i
    rgb = tuple((1 - f) * a + f * b for a, b in zip(_STOPS[i], _STOPS[i + 1]))
    return "#%02x%02x%02x" % tuple(int(round(255 * c)) for c in rgb)


def _reference_heatmap(values, path=None, *, title="", x_label="", y_label="",
                       x_ticks=None, y_ticks=None, vmin=None, vmax=None) -> str:
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 2:
        raise ValueError("heatmap needs a 2d array")
    rows, cols = grid.shape
    lo = float(grid.min() if vmin is None else vmin)
    hi = float(grid.max() if vmax is None else vmax)
    span = hi - lo if hi > lo else 1.0
    cw, ch = svg._PLOT_W / cols, svg._PLOT_H / rows
    parts = svg._title(title)
    for i in range(rows):
        for j in range(cols):
            parts.append(
                f'<rect x="{svg._num(svg._LEFT + j * cw)}" y="{svg._num(svg._TOP + i * ch)}" '
                f'width="{svg._num(cw + 0.5)}" height="{svg._num(ch + 0.5)}" '
                f'fill="{_color((grid[i, j] - lo) / span)}"/>')
    parts += svg._axes([(svg._LEFT + frac * svg._PLOT_W, text) for frac, text in x_ticks or ()],
                       [(svg._TOP + frac * svg._PLOT_H, text) for frac, text in y_ticks or ()],
                       x_label, y_label)
    bar_x = svg._LEFT + svg._PLOT_W + 24
    steps = 32
    for k in range(steps):
        frac = 1.0 - (k + 1) / steps
        parts.append(
            f'<rect x="{bar_x}" y="{svg._num(svg._TOP + k * svg._PLOT_H / steps)}" width="16" '
            f'height="{svg._num(svg._PLOT_H / steps + 0.5)}" fill="{_color(frac + 1.0 / steps)}"/>')
    parts.append(f'<rect x="{bar_x}" y="{svg._TOP}" width="16" height="{svg._PLOT_H}" '
                 f'fill="none" stroke="black"/>')
    parts.append(svg._text(bar_x + 20, svg._TOP + 10, svg._label(hi), anchor="start", size=10))
    parts.append(svg._text(bar_x + 20, svg._TOP + svg._PLOT_H, svg._label(lo), anchor="start",
                           size=10))
    return svg._write(path, svg._document(760, parts))


def _edge_values():
    stops = [k / 10 for k in range(11)]
    near = [np.nextafter(s, d) for s in stops for d in (-np.inf, np.inf)]
    outside = [-np.inf, -1e300, -1.0, -0.5, -1e-300, -0.0, 1.0 + 1e-15, 1.5, 7.0, 1e300,
               np.inf]
    # channels a float32 pass rounds to another 8-bit value
    float32_traps = [0.9319716908218715, 0.3461081339097215, 0.6804367486730079]
    return np.array([0.0, 1.0, *stops, *near, *outside, *float32_traps])


@pytest.mark.parametrize("seed", range(5))
def test_colors_equal_the_scalar_map_on_random_grids(seed):
    rng = np.random.default_rng(seed)
    grid = rng.uniform(-0.2, 1.2, size=(37, 29))
    at_stop = rng.random(grid.shape) < 0.2
    grid[at_stop] = rng.integers(0, 11, size=at_stop.sum()) / 10
    assert svg._colors(grid) == [_color(v) for v in grid.ravel()]


def test_colors_equal_the_scalar_map_at_stops_and_outside_the_range():
    values = _edge_values()
    assert svg._colors(values) == [_color(v) for v in values]
    # every colour is a '#rrggbb' string
    assert all(len(c) == 7 and c[0] == "#" for c in svg._colors(values))


def test_colors_of_a_nan_raise_like_the_scalar_map():
    with pytest.raises(ValueError):
        _color(np.nan)
    with pytest.raises(ValueError):
        svg._colors([0.5, np.nan])


def _case(rows, cols, seed):
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=(rows, cols))


@pytest.mark.parametrize("grid, kwargs", [
    (_case(241, 6, 1), {}),
    (_case(6, 241, 2), dict(vmin=0.0, vmax=1.0, title="pst n=6", x_label="t / tau",
                            y_label="site", x_ticks=[(0.0, "0"), (0.5, "1"), (1.0, "2")],
                            y_ticks=[((i + 0.5) / 6, str(i + 1)) for i in range(6)])),
    (_case(7, 9, 3), dict(vmin=0.0, vmax=1.0, title="t = 0.5 tau", x_label="x",
                          y_label="y")),
    (_case(7, 9, 4) * 3.0 - 1.0, dict(vmin=-0.25, vmax=0.75)),
    (_case(1, 1, 5), {}),
    (np.full((4, 5), 0.3), {}),                                  # flat: vmin == vmax
    (np.full((3, 3), 2.0), dict(vmin=1.0, vmax=1.0)),
    (np.array([[np.inf, 0.5], [-np.inf, 0.2]]), dict(vmin=0.0, vmax=1.0)),
])
def test_heatmap_markup_equals_the_per_cell_reference(grid, kwargs, tmp_path):
    want = _reference_heatmap(grid, **kwargs)
    assert svg.heatmap(grid, **kwargs) == want
    svg.heatmap(grid, tmp_path / "h.svg", **kwargs)
    assert (tmp_path / "h.svg").read_text(encoding="ascii") == want


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_heatmap_with_a_non_finite_cell_raises_like_the_reference(bad):
    grid = _case(4, 4, 6)
    grid[1, 2] = bad
    with pytest.raises(ValueError):
        _reference_heatmap(grid)
    with pytest.raises(ValueError):
        svg.heatmap(grid)
    if np.isnan(bad):                 # a NaN cell fails under a fixed range too
        with pytest.raises(ValueError):
            svg.heatmap(grid, vmin=0.0, vmax=1.0)
