"""Minimal self-contained SVG line plots (no external tooling)."""

from __future__ import annotations

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:  # one value: a unit span, or |lo| where a unit is below lo's float step
        hi = lo + 1.0 if lo + 1.0 > lo else lo + abs(lo)
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)], lo, hi


def render_svg(series, xlabel: str, ylabel: str, title: str = "",
               width: int = 640, height: int = 480) -> str:
    """Render polyline series to an SVG string.

    series: list of (name, points) with points as (x, y) pairs.
    """
    ml, mr, mt, mb = 64, 16, 28, 44
    pw, ph = width - ml - mr, height - mt - mb
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    xticks, x0, x1 = _ticks(min(xs), max(xs))
    yticks, y0, y1 = _ticks(min(ys), max(ys))

    def px(x):
        return ml + (x - x0) / (x1 - x0) * pw

    def py(y):
        return mt + ph - (y - y0) / (y1 - y0) * ph

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
           f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
           f'<rect width="{width}" height="{height}" fill="white"/>']
    if title:
        out.append(f'<text x="{width / 2}" y="16" text-anchor="middle" '
                   f'font-size="13">{title}</text>')
    out.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
               'fill="none" stroke="#333"/>')
    for t in xticks:
        x = px(t)
        out.append(f'<line x1="{x:.1f}" y1="{mt + ph}" x2="{x:.1f}" y2="{mt + ph + 4}" stroke="#333"/>')
        out.append(f'<text x="{x:.1f}" y="{mt + ph + 16}" text-anchor="middle">{t:g}</text>')
    for t in yticks:
        y = py(t)
        out.append(f'<line x1="{ml - 4}" y1="{y:.1f}" x2="{ml}" y2="{y:.1f}" stroke="#333"/>')
        out.append(f'<text x="{ml - 6}" y="{y + 3:.1f}" text-anchor="end">{t:g}</text>')
    out.append(f'<text x="{ml + pw / 2}" y="{height - 8}" text-anchor="middle">{xlabel}</text>')
    out.append(f'<text x="14" y="{mt + ph / 2}" text-anchor="middle" '
               f'transform="rotate(-90 14 {mt + ph / 2})">{ylabel}</text>')
    for k, (name, pts) in enumerate(series):
        color = _COLORS[k % len(_COLORS)]
        coords = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in pts)
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = mt + 14 + 14 * k
        out.append(f'<line x1="{ml + pw - 100}" y1="{ly - 4}" x2="{ml + pw - 80}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{ml + pw - 76}" y="{ly}">{name}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
