"""Report emission: report.json + CSV residual sidecars + SVG plots.

Everything is dependency-free and deterministic: repeated runs with the
same seed produce byte-identical report.json except for the single
``timestamp`` field (wall times never enter the JSON payload; they go
only to the timing sidecar).
"""
from __future__ import annotations

import csv
import json
import time
from pathlib import Path

import numpy as np

from .certificates import _jsonify


def write_report(out_dir, payload: dict, certificates=(), arrays=None,
                 plots=None, timing=None):
    """Write report.json plus CSV/SVG sidecars into ``out_dir``.

    arrays: {name: 1-column dict or {col: vector}} -> name.csv
    plots:  list of line-plot specs {name, series, title, xlabel, ylabel}.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = _jsonify(dict(payload))
    report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    report["certificates"] = [c.to_json_dict() for c in certificates]
    sidecars = []
    arrays = dict(arrays or {})
    for cert in certificates:
        for label, arr in cert.residuals.items():
            arrays.setdefault(f"{cert.name}.{label}", {label: np.asarray(arr)})
    for name, cols in arrays.items():
        fn = _safe(name) + ".csv"
        write_csv(out / fn, cols)
        sidecars.append(fn)
    report["sidecars"] = sorted(sidecars)
    for spec in plots or []:
        fn = _safe(spec["name"]) + ".svg"
        svg = svg_lines(spec["series"], spec.get("title", spec["name"]),
                        spec.get("xlabel", "x"), spec.get("ylabel", "y"))
        (out / fn).write_text(svg)
        report.setdefault("plots", []).append(fn)
    if timing:
        (out / "timing.txt").write_text(
            "".join(f"{k}: {v:.6f} s\n" for k, v in timing.items()))
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return out / "report.json"


def _safe(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in name)


def write_csv(path, cols: dict):
    cols = {k: np.atleast_1d(np.asarray(v)) for k, v in cols.items()}
    n = max(v.shape[0] for v in cols.values())
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(list(cols.keys()))
        for i in range(n):
            w.writerow([_fmt(v[i]) if i < v.shape[0] else "" for v in cols.values()])


def _fmt(x):
    if isinstance(x, (np.floating, float)):
        return f"{float(x):.17g}"
    return x


# ---------------------------------------------------------------------------
# hand-rolled SVG plotting
# ---------------------------------------------------------------------------

_W, _H, _PAD = 720, 440, 56
_COLORS = ["#1f6feb", "#d73a49", "#2da44e", "#a371f7", "#e36209", "#6e7781"]


def _scale(vals, lo, hi, a, b):
    span = hi - lo if hi > lo else 1.0
    return a + (np.asarray(vals) - lo) * (b - a) / span


def svg_lines(series, title="", xlabel="x", ylabel="y"):
    """series: list of (label, x, y) triples."""
    xs = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    ok = np.isfinite(xs) & np.isfinite(ys)
    if not ok.any():
        xs, ys = np.array([0.0, 1.0]), np.array([0.0, 1.0])
    xlo, xhi = float(xs[ok].min()), float(xs[ok].max())
    ylo, yhi = float(ys[ok].min()), float(ys[ok].max())
    if yhi - ylo < 1e-300:
        ylo, yhi = ylo - 1.0, yhi + 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W/2}" y="20" text-anchor="middle" font-size="14">{_esc(title)}</text>',
        f'<rect x="{_PAD}" y="{_PAD/2}" width="{_W-2*_PAD}" height="{_H-2*_PAD}" '
        'fill="none" stroke="#999"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = xlo + frac * (xhi - xlo)
        yv = ylo + frac * (yhi - ylo)
        px = _PAD + frac * (_W - 2 * _PAD)
        py = _H - 1.5 * _PAD - frac * (_H - 2 * _PAD)
        parts.append(f'<text x="{px:.1f}" y="{_H - _PAD/1.4:.1f}" text-anchor="middle">'
                     f'{xv:.3g}</text>')
        parts.append(f'<text x="{_PAD-6:.1f}" y="{py:.1f}" text-anchor="end">{yv:.3g}</text>')
    parts.append(f'<text x="{_W/2}" y="{_H-8}" text-anchor="middle">{_esc(xlabel)}</text>')
    parts.append(f'<text x="14" y="{_H/2}" transform="rotate(-90 14 {_H/2})" '
                 f'text-anchor="middle">{_esc(ylabel)}</text>')
    for i, (label, x, y) in enumerate(series):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)
        px = _scale(x[keep], xlo, xhi, _PAD, _W - _PAD)
        py = _scale(y[keep], ylo, yhi, _H - 1.5 * _PAD, _PAD / 2)
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        color = _COLORS[i % len(_COLORS)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{pts}"/>')
        parts.append(f'<text x="{_W - _PAD + 4}" y="{_PAD/2 + 16*i + 10}" fill="{color}">'
                     f'{_esc(str(label))}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
