"""Static SVG plots: heatmaps, line charts, bars.

Pure string emission with fixed number formatting, so identical data
produces byte-identical files.  These are reproduction aids for the
figure scripts, not a plotting library.
"""

from __future__ import annotations

import math

import numpy as np

_STOPS = (
    (0.267, 0.005, 0.329), (0.283, 0.141, 0.458), (0.254, 0.265, 0.530),
    (0.207, 0.372, 0.553), (0.164, 0.471, 0.558), (0.128, 0.567, 0.551),
    (0.135, 0.659, 0.518), (0.267, 0.749, 0.441), (0.478, 0.821, 0.318),
    (0.741, 0.873, 0.150), (0.993, 0.906, 0.144),
)
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f")
# every chart draws its plot area at the same place and size
_LEFT, _TOP = 70, 36
_PLOT_W, _PLOT_H = 560, 360
_HEIGHT = _TOP + _PLOT_H + 50


def _color(x: float) -> str:
    x = min(max(float(x), 0.0), 1.0)
    pos = x * (len(_STOPS) - 1)
    i = min(int(pos), len(_STOPS) - 2)
    f = pos - i
    rgb = tuple((1 - f) * a + f * b for a, b in zip(_STOPS[i], _STOPS[i + 1]))
    return "#%02x%02x%02x" % tuple(int(round(255 * c)) for c in rgb)


def _num(v: float) -> str:
    return f"{float(v):.2f}"


def _label(v: float) -> str:
    return f"{float(v):.6g}"


def _text(x, y, s, size=11, anchor="middle", rotate=None) -> str:
    extra = f' transform="rotate(-90 {_num(x)} {_num(y)})"' if rotate else ""
    return (f'<text x="{_num(x)}" y="{_num(y)}" font-family="monospace" '
            f'font-size="{size}" text-anchor="{anchor}"{extra}>{s}</text>')


def _document(width: int, parts) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{_HEIGHT}" viewBox="0 0 {width} {_HEIGHT}">')
    return "\n".join([head, f'<rect width="{width}" height="{_HEIGHT}" fill="white"/>',
                      *parts, "</svg>"]) + "\n"


def _write(path, markup: str) -> str:
    if path is not None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(markup)
    return markup


def _title(title: str) -> list:
    return [_text(_LEFT + _PLOT_W / 2, 20, title, size=13)] if title else []


def _axes(x_ticks, y_ticks, x_label="", y_label="") -> list:
    """Plot frame, tick marks and axis labels; ticks are (pixel, text) pairs."""
    bottom = _TOP + _PLOT_H
    parts = [f'<rect x="{_LEFT}" y="{_TOP}" width="{_PLOT_W}" height="{_PLOT_H}" '
             f'fill="none" stroke="black"/>']
    for x, text in x_ticks:
        parts.append(f'<line x1="{_num(x)}" y1="{bottom}" x2="{_num(x)}" '
                     f'y2="{bottom + 5}" stroke="black"/>')
        parts.append(_text(x, bottom + 18, text))
    for y, text in y_ticks:
        parts.append(f'<line x1="{_LEFT - 5}" y1="{_num(y)}" x2="{_LEFT}" '
                     f'y2="{_num(y)}" stroke="black"/>')
        parts.append(_text(_LEFT - 10, y + 4, text, anchor="end"))
    if x_label:
        parts.append(_text(_LEFT + _PLOT_W / 2, bottom + 36, x_label))
    if y_label:
        parts.append(_text(22, _TOP + _PLOT_H / 2, y_label, rotate=True))
    return parts


def heatmap(values, path=None, *, title="", x_label="", y_label="",
            x_ticks=None, y_ticks=None, vmin=None, vmax=None) -> str:
    """Colour-mapped matrix; row 0 is drawn at the top.

    ``x_ticks`` and ``y_ticks`` are (fraction of the axis, text) pairs.
    """
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 2:
        raise ValueError("heatmap needs a 2d array")
    rows, cols = grid.shape
    lo = float(grid.min() if vmin is None else vmin)
    hi = float(grid.max() if vmax is None else vmax)
    span = hi - lo if hi > lo else 1.0
    cw, ch = _PLOT_W / cols, _PLOT_H / rows
    parts = _title(title)
    for i in range(rows):
        for j in range(cols):
            parts.append(
                f'<rect x="{_num(_LEFT + j * cw)}" y="{_num(_TOP + i * ch)}" '
                f'width="{_num(cw + 0.5)}" height="{_num(ch + 0.5)}" '
                f'fill="{_color((grid[i, j] - lo) / span)}"/>')
    parts += _axes([(_LEFT + frac * _PLOT_W, text) for frac, text in x_ticks or ()],
                   [(_TOP + frac * _PLOT_H, text) for frac, text in y_ticks or ()],
                   x_label, y_label)
    bar_x = _LEFT + _PLOT_W + 24
    steps = 32
    for k in range(steps):
        frac = 1.0 - (k + 1) / steps
        parts.append(
            f'<rect x="{bar_x}" y="{_num(_TOP + k * _PLOT_H / steps)}" width="16" '
            f'height="{_num(_PLOT_H / steps + 0.5)}" fill="{_color(frac + 1.0 / steps)}"/>')
    parts.append(f'<rect x="{bar_x}" y="{_TOP}" width="16" height="{_PLOT_H}" '
                 f'fill="none" stroke="black"/>')
    parts.append(_text(bar_x + 20, _TOP + 10, _label(hi), anchor="start", size=10))
    parts.append(_text(bar_x + 20, _TOP + _PLOT_H, _label(lo), anchor="start", size=10))
    return _write(path, _document(760, parts))


def _axis_ticks(lo: float, hi: float, count: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * k / (count - 1) for k in range(count)]


def line_chart(xs, series: dict, path=None, *, title="", x_label="", y_label="",
               log_y: bool = False) -> str:
    """Polyline chart; ``series`` maps legend names to y arrays."""
    xs = np.asarray(xs, dtype=float)
    if not len(series):
        raise ValueError("no series to plot")
    all_y = np.concatenate([np.asarray(v, dtype=float) for v in series.values()])
    if log_y:
        all_y = all_y[all_y > 0]
        if all_y.size == 0:
            raise ValueError("log scale needs positive values")
        ylo, yhi = math.log10(all_y.min()), math.log10(all_y.max())
    else:
        ylo, yhi = float(all_y.min()), float(all_y.max())
    if yhi <= ylo:
        yhi = ylo + 1.0
    xlo, xhi = float(xs.min()), float(xs.max())
    if xhi <= xlo:
        xhi = xlo + 1.0

    def sx(x):
        return _LEFT + (x - xlo) / (xhi - xlo) * _PLOT_W

    def sy(y):
        v = math.log10(y) if log_y else y
        return _TOP + _PLOT_H - (v - ylo) / (yhi - ylo) * _PLOT_H

    parts = _title(title)
    for k, (name, ys) in enumerate(series.items()):
        ys = np.asarray(ys, dtype=float)
        pts = []
        for x, y in zip(xs, ys):
            if log_y and y <= 0:
                continue
            pts.append(f"{_num(sx(x))},{_num(sy(y))}")
        color = _PALETTE[k % len(_PALETTE)]
        parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<line x1="{_LEFT + _PLOT_W + 8}" y1="{_TOP + 10 + 16 * k}" '
                     f'x2="{_LEFT + _PLOT_W + 26}" y2="{_TOP + 10 + 16 * k}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(_text(_LEFT + _PLOT_W + 32, _TOP + 14 + 16 * k, name,
                           anchor="start", size=10))
    y_values = [10.0 ** t if log_y else t for t in _axis_ticks(ylo, yhi)]
    parts += _axes([(sx(t), _label(t)) for t in _axis_ticks(xlo, xhi)],
                   [(sy(v), _label(v)) for v in y_values], x_label, y_label)
    return _write(path, _document(780, parts))


def bar_chart(labels, values, path=None, *, title="", y_label="",
              vmin=None, vmax=None) -> str:
    """Vertical bars with value-axis ticks; labels drawn under each bar."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size != len(labels):
        raise ValueError("labels and values must match")
    lo = float(min(values.min(), 0.0) if vmin is None else vmin)
    hi = float(values.max() if vmax is None else vmax)
    if hi <= lo:
        hi = lo + 1.0
    bw = _PLOT_W / values.size

    def sy(y):
        return _TOP + _PLOT_H - (y - lo) / (hi - lo) * _PLOT_H

    parts = _title(title)
    for k, v in enumerate(values):
        y0, y1 = sorted((sy(v), sy(0.0) if lo <= 0.0 <= hi else sy(lo)))
        parts.append(f'<rect x="{_num(_LEFT + k * bw + 0.15 * bw)}" y="{_num(y0)}" '
                     f'width="{_num(0.7 * bw)}" height="{_num(max(y1 - y0, 0.5))}" '
                     f'fill="#1f77b4"/>')
        parts.append(_text(_LEFT + (k + 0.5) * bw, _TOP + _PLOT_H + 14,
                           str(labels[k]), size=9))
    if lo <= 0.0 <= hi:
        parts.append(f'<line x1="{_LEFT}" y1="{_num(sy(0.0))}" '
                     f'x2="{_LEFT + _PLOT_W}" y2="{_num(sy(0.0))}" stroke="black"/>')
    parts += _axes((), [(sy(t), _label(t)) for t in _axis_ticks(lo, hi)], y_label=y_label)
    return _write(path, _document(700, parts))
