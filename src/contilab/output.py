"""Deterministic experiment outputs: results.csv with header comments,
flat key=value config dumps, and a dependency-free SVG line plotter.

All floats are emitted with 12 significant digits so reruns with the same
seed are byte-identical.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

from . import __version__
from .sweep import SweepRow


def fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.12g}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(fmt_value(v) for v in value) + "]"
    return str(value)


def write_results_csv(path: Path, experiment: str, seed, rows: list[SweepRow]) -> Path:
    """Write ``rows`` under the header comments, one line at a time."""
    coord_keys: list[str] = []
    for row in rows:
        for key in row.coords:
            if key not in coord_keys:
                coord_keys.append(key)
    header = [
        f"# experiment: {experiment}",
        f"# seed: {seed}",
        f"# contilab-version: {__version__}",
        ",".join(coord_keys + ["metric", "mean", "std", "ci95", "trials", "error"]),
    ]
    with open(path, "w", encoding="utf-8") as f:
        for line in header:
            f.write(line + "\n")
        for row in rows:
            cells = [fmt_value(row.coords[k]) if k in row.coords else "" for k in coord_keys]
            cells += [
                row.metric,
                fmt_value(row.mean),
                fmt_value(row.std),
                fmt_value(row.ci95),
                str(row.trials),
                row.error or "",
            ]
            f.write(",".join(cells) + "\n")
    return path


def write_config_resolved(path: Path, params: dict) -> Path:
    lines = [f"{key}={fmt_value(params[key])}" for key in sorted(params)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


_COLORS = ["#1f6fb2", "#d1495b", "#3a7d44", "#8d5a97", "#c97b2d", "#4f6d7a", "#997b1d"]


def _widen(lo: float, hi: float) -> tuple[float, float]:
    """``(lo, hi)``; a range whose quarter width is not a normal float (an
    empty one included) becomes (lo, lo + 1), or (lo, lo / 2) sorted where 1
    is below lo's resolution: a width whose tick step is a positive float."""
    if not (hi / 2 - lo / 2) / 2 >= sys.float_info.min:
        lo, hi = (lo, lo + 1.0) if lo + 1.0 > lo else sorted((lo, 0.5 * lo))
    return lo, hi


def _ticks(lo: float, hi: float) -> list[float]:
    """About five round ticks on [lo, hi]. Widths, here and in the pixel maps,
    use halved ends: finite for finite ends, exact above the smallest normal."""
    lo, hi = _widen(lo, hi)
    raw = (hi / 2 - lo / 2) / 2  # (hi - lo) / 4
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (mag, 2 * mag, 2.5 * mag, 5 * mag, 10 * mag) if s >= raw)
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * step and t < math.inf:  # hi + ... is inf near the top
        out.append(0.0 if abs(t) < 1e-15 * step else t)
        if t + step == t:  # step is below t's resolution
            break
        t += step
    return out or [lo, hi]


def write_line_plot(path: Path, title: str, xlabel: str, ylabel: str, series) -> Path:
    """Minimal multi-series line plot; ``series`` is [(label, xs, ys), ...]."""
    width, height = 760, 480
    ml, mr, mt, mb = 70, 160, 44, 56
    pw, ph = width - ml - mr, height - mt - mb

    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if math.isfinite(y)]
    if not xs_all or not ys_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = _widen(min(xs_all), max(xs_all))
    y_lo, y_hi = _widen(min(ys_all), max(ys_all))
    pad = 0.1 * (y_hi / 2 - y_lo / 2)
    top = sys.float_info.max  # the pad must not carry an end past it
    y_lo, y_hi = max(y_lo - pad, -top), min(y_hi + pad, top)
    x_half, y_half = x_hi / 2 - x_lo / 2, y_hi / 2 - y_lo / 2

    def px(x):
        return ml + (x / 2 - x_lo / 2) / x_half * pw

    def py(y):
        return mt + ph - (y / 2 - y_lo / 2) / y_half * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{ml + pw / 2:.1f}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#444"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        parts.append(f'<line x1="{x:.1f}" y1="{mt + ph}" x2="{x:.1f}" y2="{mt + ph + 5}" stroke="#444"/>')
        parts.append(f'<text x="{x:.1f}" y="{mt + ph + 18}" text-anchor="middle">{t:.6g}</text>')
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(f'<line x1="{ml - 5}" y1="{y:.1f}" x2="{ml}" y2="{y:.1f}" stroke="#444"/>')
        parts.append(f'<text x="{ml - 8}" y="{y + 4:.1f}" text-anchor="end">{t:.6g}</text>')
    parts.append(
        f'<text x="{ml + pw / 2:.1f}" y="{height - 14}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {mt + ph / 2:.1f})">{ylabel}</text>'
    )
    for i, (label, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(
            f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys) if math.isfinite(y)
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        ly = mt + 16 + 18 * i
        parts.append(f'<line x1="{ml + pw + 12}" y1="{ly - 4}" x2="{ml + pw + 34}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{ml + pw + 40}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return path
