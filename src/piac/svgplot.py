"""Minimal dependency-free SVG line charts of squared H2 norms over a gain
grid, for quick inspection. Data export stays CSV; this is a convenience, not a
plotting library. A chart is returned as text, for the caller to write."""

import math

__all__ = ["svg_line_chart"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
# the number of parts an axis's ticks aim to split it into
_TICKS = 5


def _ticks(lo: float, hi: float):
    """Ticks over [lo, hi], ``lo < hi``, at multiples of 1, 2 or 5 times a
    power of ten; computed by index, so a step too small to move ``lo``
    still gives at most ``_TICKS + 1``."""
    raw = (hi - lo) / _TICKS
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    return [v for v in (first + k * step for k in range(_TICKS + 1)) if v <= hi + 1e-12 * step]


def svg_line_chart(x, series: dict, title: str, xlabel: str, logx: bool) -> str:
    """One SVG, as text, with a polyline per entry of ``series`` (label -> ys)."""
    xs = [math.log10(v) for v in x] if logx else list(map(float, x))
    all_y = [float(v) for ys in series.values() for v in ys]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(all_y), max(all_y)
    # an empty range is widened by 1, or by 2^-20 of its value where that is
    # more: from |v| = 2^53 on, adding 1 leaves v as it is
    if x_hi == x_lo:
        x_hi = x_lo + max(1.0, abs(x_lo) * 2.0 ** -20)
    if y_hi == y_lo:
        y_hi = y_lo + max(1.0, abs(y_lo) * 2.0 ** -20)
    pad_y = 0.05 * (y_hi - y_lo)
    y_lo -= pad_y
    y_hi += pad_y
    width, height = 640, 400       # px
    ml, mr, mt, mb = 70, 20, 40, 50  # margins: left, right, top, bottom

    def px(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def py(v):
        return height - mb - (v - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" font-family="sans-serif" font-size="12">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width / 2}" y="20" text-anchor="middle" '
             f'font-size="14">{title}</text>']
    for tv in _ticks(x_lo, x_hi):
        label = f"{10 ** tv:.4g}" if logx else f"{tv:.4g}"
        parts.append(f'<line x1="{px(tv):.1f}" y1="{mt}" x2="{px(tv):.1f}" '
                     f'y2="{height - mb}" stroke="#ddd"/>')
        parts.append(f'<text x="{px(tv):.1f}" y="{height - mb + 16}" '
                     f'text-anchor="middle">{label}</text>')
    for tv in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{ml}" y1="{py(tv):.1f}" x2="{width - mr}" '
                     f'y2="{py(tv):.1f}" stroke="#ddd"/>')
        parts.append(f'<text x="{ml - 6}" y="{py(tv):.1f}" text-anchor="end" '
                     f'dominant-baseline="middle">{tv:.4g}</text>')
    parts.append(f'<rect x="{ml}" y="{mt}" width="{width - ml - mr}" '
                 f'height="{height - mt - mb}" fill="none" stroke="#555"/>')
    for k, (label, ys) in enumerate(series.items()):
        color = _COLORS[k % len(_COLORS)]
        pts = " ".join(f"{px(a):.2f},{py(float(b)):.2f}" for a, b in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{width - mr - 6}" y="{mt + 16 + 16 * k}" '
                     f'text-anchor="end" fill="{color}">{label}</text>')
    parts.append(f'<text x="{width / 2}" y="{height - 12}" '
                 f'text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="16" y="{height / 2}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {height / 2})">squared H2 norm</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
