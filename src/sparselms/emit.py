"""Writers for MSD curves: a bit-exact CSV and a self-contained SVG plot."""

from pathlib import Path

import numpy as np

from .errors import ParameterError, as_tuple, check_instance, quietly
from .experiment import MsdCurve
from .filter_core import Variant

__all__ = ["emit_csv", "emit_plot"]

_VARIANT_ORDER = {v: i for i, v in enumerate(Variant)}

_COLORS = {
    "lms": "#1f77b4",
    "llms": "#ff7f0e",
    "lp_like_lms": "#2ca02c",
    "lp_like_llms": "#d62728",
}

_DB_FLOOR = 1e-300


def _sorted(curves):
    """``curves`` in (algorithm, sparsity) order; a ParameterError names an item
    that is not an MsdCurve."""
    curves = as_tuple("curves", curves)
    for i, curve in enumerate(curves):
        check_instance(f"curves[{i}]", curve, MsdCurve)
    return sorted(curves, key=lambda c: (_VARIANT_ORDER[c.variant], c.sparsity_level))


def emit_csv(curves, out):
    """Write curves as CSV rows ``algorithm,sr_numerator,sr_denominator,iteration,msd``.

    Values carry 17 significant digits, so parsing them back recovers the
    doubles bit-exactly.  Rows are ordered by (algorithm, sparsity,
    iteration); the newline is always ``\\n``.  Each curve is written in one
    pass: its rows form one ``%``-template, filled from ``values.tolist()``.
    """
    rows = _sorted(curves)
    with open(out, "w", newline="") as fh:
        fh.write("algorithm,sr_numerator,sr_denominator,iteration,msd\n")
        for c in rows:
            prefix = f"{c.variant.value},{c.sparsity_level},{c.n_taps}"
            template = "".join([f"{prefix},{k},%.17g\n" for k in range(len(c.values))])
            fh.write(template % tuple(c.values.tolist()))
    return out


@quietly
def emit_plot(curves, out, db_scale=False):
    """Write a self-contained SVG: one subplot per sparsity level.

    Each subplot carries one polyline per algorithm (one vertex per
    iteration) plus ``data-ymin``/``data-ymax`` attributes recording the
    plotted data range; a shared legend sits on top.  A polyline's points
    are one ``%``-template filled from ``.tolist()``.
    """
    curves = _sorted(curves)
    if not curves:
        raise ParameterError("emit_plot needs at least one curve")
    levels = sorted({(c.sparsity_level, c.n_taps) for c in curves})
    ncols = min(2, len(levels))
    nrows = -(-len(levels) // ncols)
    sub_w, sub_h = 440, 300
    legend_h = 34
    width = ncols * sub_w + 20
    height = nrows * sub_h + legend_h + 16
    ylab = "MSD (dB)" if db_scale else "MSD"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        '<g class="legend">',
    ]
    lx = 20
    ly = legend_h // 2
    for v in dict.fromkeys(c.variant for c in curves):
        color = _COLORS[v.value]
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 26}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 32}" y="{ly + 4}">{v.value}</text>')
        lx += 32 + 8 * len(v.value) + 24
    parts.append("</g>")

    for idx, (level, den) in enumerate(levels):
        row, col = divmod(idx, ncols)
        ox = 10 + col * sub_w
        oy = legend_h + row * sub_h
        x0, x1 = ox + 64, ox + sub_w - 16
        y0, y1 = oy + 30, oy + sub_h - 40
        group = [c for c in curves if (c.sparsity_level, c.n_taps) == (level, den)]
        ys = [10.0 * np.log10(np.maximum(c.values, _DB_FLOOR)) if db_scale else c.values
              for c in group]
        ymin = min(float(a.min()) for a in ys)
        ymax = max(float(a.max()) for a in ys)
        yspan = ymax - ymin
        nmax = max(a.shape[0] for a in ys)
        xspan = max(nmax - 1, 1)
        # vertex coordinates in the per-vertex formula's operation order
        sx = x0 + (x1 - x0) * (np.arange(nmax) / xspan)

        parts.append(
            f'<g class="subplot" data-sr="{level}/{den}" '
            f'data-ymin="{ymin:.17g}" data-ymax="{ymax:.17g}">'
        )
        parts.append(
            f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" '
            f'fill="none" stroke="#888"/>'
        )
        parts.append(
            f'<text x="{(x0 + x1) // 2}" y="{y0 - 8}" text-anchor="middle" '
            f'font-weight="bold">SR = {level}/{den}</text>'
        )
        parts.append(f'<text x="{x0 - 6}" y="{y1 + 4}" text-anchor="end">{ymin:.4g}</text>')
        parts.append(f'<text x="{x0 - 6}" y="{y0 + 4}" text-anchor="end">{ymax:.4g}</text>')
        parts.append(f'<text x="{x0}" y="{y1 + 16}" text-anchor="middle">0</text>')
        parts.append(f'<text x="{x1}" y="{y1 + 16}" text-anchor="middle">{nmax - 1}</text>')
        parts.append(
            f'<text x="{(x0 + x1) // 2}" y="{y1 + 32}" text-anchor="middle">iteration</text>'
        )
        ry = (y0 + y1) // 2
        parts.append(
            f'<text x="{ox + 14}" y="{ry}" text-anchor="middle" '
            f'transform="rotate(-90 {ox + 14} {ry})">{ylab}</text>'
        )
        for c, arr in zip(group, ys):
            xy = np.empty((arr.shape[0], 2))
            xy[:, 0] = sx[: arr.shape[0]]
            xy[:, 1] = (y0 + y1) / 2.0 if yspan == 0.0 else y1 - (y1 - y0) * ((arr - ymin) / yspan)
            pts = " ".join(["%.2f,%.2f"] * arr.shape[0]) % tuple(xy.ravel().tolist())
            parts.append(
                f'<polyline class="curve" data-algorithm="{c.variant.value}" fill="none" '
                f'stroke="{_COLORS[c.variant.value]}" stroke-width="1" points="{pts}"/>'
            )
        parts.append("</g>")
    parts.append("</svg>")
    Path(out).write_text("\n".join(parts) + "\n")
    return out
