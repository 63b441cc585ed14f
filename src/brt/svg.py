"""Minimal deterministic SVG charts: line, bar, heatmap.

Output is a fixed-canvas, self-contained document (generic font family,
no external resources, no timestamps), so two runs over the same numbers
produce byte-identical files and goldens can be diffed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 24, 40, 56
PLOT_W = WIDTH - MARGIN_L - MARGIN_R
PLOT_H = HEIGHT - MARGIN_T - MARGIN_B

PALETTE = ("#1f6fb4", "#d1495b", "#3a9e5f", "#8872b2", "#c98a1b", "#4f4f4f")


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.6g}"


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if not math.isfinite(lo) or not math.isfinite(hi):
        return [0.0]
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + step * 1e-9:
        out.append(round(t, 12))
        t += step
    return out or [lo]


class _Doc:
    def __init__(self, title: str):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
            f'<text x="{WIDTH / 2:.6g}" y="24" font-size="15" text-anchor="middle">{_esc(title)}</text>',
        ]

    def add(self, s: str) -> None:
        self.parts.append(s)

    def text(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"

    def write(self, path) -> None:
        Path(path).write_text(self.text(), encoding="utf-8", newline="")


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Scale:
    def __init__(self, lo: float, hi: float, out_lo: float, out_hi: float):
        if hi <= lo:
            pad = 1.0 if lo == 0 else abs(lo) * 0.1
            lo, hi = lo - pad, hi + pad
        self.lo, self.hi, self.out_lo, self.out_hi = lo, hi, out_lo, out_hi

    def __call__(self, v: float) -> float:
        frac = (v - self.lo) / (self.hi - self.lo)
        return self.out_lo + frac * (self.out_hi - self.out_lo)


def _axes(doc: _Doc, xs: _Scale, x_ticks, x_label: str, ys: _Scale | None = None, y_label: str | None = None) -> None:
    """The x axis with ticks at x_ticks, the y axis and its ticks when ys is given, then the labels."""
    x0, x1 = MARGIN_L, MARGIN_L + PLOT_W
    y0, y1 = MARGIN_T + PLOT_H, MARGIN_T
    doc.add(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="#333333"/>')
    if ys is not None:
        doc.add(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="#333333"/>')
    for t in x_ticks:
        px = xs(t)
        doc.add(f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 4}" stroke="#333333"/>')
        doc.add(f'<text x="{px:.2f}" y="{y0 + 18}" font-size="11" text-anchor="middle">{_fmt(t)}</text>')
    for t in _ticks(ys.lo, ys.hi) if ys is not None else ():
        py = ys(t)
        doc.add(f'<line x1="{x0 - 4}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" stroke="#333333"/>')
        doc.add(f'<text x="{x0 - 7}" y="{py + 4:.2f}" font-size="11" text-anchor="end">{_fmt(t)}</text>')
    _labels(doc, x_label, y_label)


def _labels(doc: _Doc, x_label: str, y_label: str | None) -> None:
    """The x label below the plot and, when given, the y label rotated along its left side."""
    doc.add(f'<text x="{MARGIN_L + PLOT_W / 2:.6g}" y="{HEIGHT - 14}" font-size="12" text-anchor="middle">{_esc(x_label)}</text>')
    if y_label is not None:
        doc.add(
            f'<text x="16" y="{MARGIN_T + PLOT_H / 2:.6g}" font-size="12" text-anchor="middle" '
            f'transform="rotate(-90 16 {MARGIN_T + PLOT_H / 2:.6g})">{_esc(y_label)}</text>'
        )


def line_chart(path, title: str, x, series: list[tuple[str, np.ndarray]], x_label: str, y_label: str) -> None:
    """One or more polylines over a shared x vector."""
    x = np.asarray(x, dtype=np.float64)
    doc = _Doc(title)
    all_y = np.concatenate([np.asarray(v, dtype=np.float64) for _, v in series])
    finite = all_y[np.isfinite(all_y)]
    ylo, yhi = (float(finite.min()), float(finite.max())) if finite.size else (0.0, 1.0)
    xs = _Scale(float(x.min()), float(x.max()), MARGIN_L, MARGIN_L + PLOT_W)
    ys = _Scale(ylo, yhi, MARGIN_T + PLOT_H, MARGIN_T)
    _axes(doc, xs, _ticks(xs.lo, xs.hi), x_label, ys, y_label)
    for i, (name, vals) in enumerate(series):
        vals = np.asarray(vals, dtype=np.float64)
        pts = " ".join(f"{xs(a):.2f},{ys(b):.2f}" for a, b in zip(x, vals) if math.isfinite(b))
        color = PALETTE[i % len(PALETTE)]
        doc.add(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        doc.add(
            f'<text x="{MARGIN_L + PLOT_W - 6}" y="{MARGIN_T + 16 + 16 * i}" font-size="12" '
            f'text-anchor="end" fill="{color}">{_esc(name)}</text>'
        )
    doc.write(path)


def bar_chart(path, title: str, labels: list[str], values, x_label: str) -> None:
    """Horizontal bars, one per label, in the given order."""
    values = np.asarray(values, dtype=np.float64)
    doc = _Doc(title)
    vmax = float(values.max()) if values.size else 1.0
    xs = _Scale(0.0, vmax, MARGIN_L, MARGIN_L + PLOT_W)
    slot = PLOT_H / max(len(labels), 1)
    bar_h = slot * 0.62
    for i, (label, v) in enumerate(zip(labels, values)):
        top = MARGIN_T + i * slot + (slot - bar_h) / 2
        doc.add(
            f'<rect x="{MARGIN_L}" y="{top:.2f}" width="{max(xs(v) - MARGIN_L, 0):.2f}" '
            f'height="{bar_h:.2f}" fill="{PALETTE[0]}"/>'
        )
        doc.add(f'<text x="{MARGIN_L - 7}" y="{top + bar_h / 2 + 4:.2f}" font-size="12" text-anchor="end">{_esc(label)}</text>')
        doc.add(f'<text x="{xs(v) + 5:.2f}" y="{top + bar_h / 2 + 4:.2f}" font-size="11">{v:.2f}</text>')
    _axes(doc, xs, _ticks(0.0, vmax), x_label)
    doc.write(path)


def _ramp(frac: float) -> str:
    """Blue -> white -> red, frac in [0, 1]."""
    frac = min(max(frac, 0.0), 1.0)
    if frac < 0.5:
        t = frac / 0.5
        r, g, b = int(49 + t * (255 - 49)), int(110 + t * (255 - 110)), int(180 + t * (255 - 180))
    else:
        t = (frac - 0.5) / 0.5
        r, g, b = 255 - int(t * (255 - 200)), int(255 - t * (255 - 60)), int(255 - t * (255 - 70))
    return f"#{r:02x}{g:02x}{b:02x}"


def heatmap(path, title: str, grid_x, grid_y, values: np.ndarray, x_label: str, y_label: str) -> None:
    """Cell grid for values[i, j] at (grid_x[i], grid_y[j]); symmetric color
    scale about zero (centered surfaces read naturally)."""
    gx = np.asarray(grid_x, dtype=np.float64)
    gy = np.asarray(grid_y, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    doc = _Doc(title)
    span = float(np.max(np.abs(values))) or 1.0
    cell_w = PLOT_W / len(gx)
    cell_h = PLOT_H / len(gy)
    for i in range(len(gx)):
        for j in range(len(gy)):
            frac = 0.5 + values[i, j] / (2 * span)
            px = MARGIN_L + i * cell_w
            py = MARGIN_T + PLOT_H - (j + 1) * cell_h
            doc.add(f'<rect x="{px:.2f}" y="{py:.2f}" width="{cell_w:.2f}" height="{cell_h:.2f}" fill="{_ramp(frac)}"/>')
    y0 = MARGIN_T + PLOT_H
    step_x = max(1, len(gx) // 8)
    for i in range(0, len(gx), step_x):
        px = MARGIN_L + (i + 0.5) * cell_w
        doc.add(f'<text x="{px:.2f}" y="{y0 + 18}" font-size="10" text-anchor="middle">{_fmt(float(gx[i]))}</text>')
    step_y = max(1, len(gy) // 8)
    for j in range(0, len(gy), step_y):
        py = MARGIN_T + PLOT_H - (j + 0.5) * cell_h
        doc.add(f'<text x="{MARGIN_L - 7}" y="{py + 4:.2f}" font-size="10" text-anchor="end">{_fmt(float(gy[j]))}</text>')
    _labels(doc, x_label, y_label)
    doc.add(f'<text x="{MARGIN_L + PLOT_W - 6}" y="{MARGIN_T + 16}" font-size="11" text-anchor="end">range ±{span:.4g}</text>')
    doc.write(path)
