"""Transfer metrics over the accuracy matrix, plus report emission.

The accuracy matrix A[j][k] holds the test accuracy of task k after training
task j (lower triangular, tasks 1-indexed in the formulas). Reports are a
summary CSV, per-run matrix JSON files, and dependency-free SVG line charts.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import MetricUnavailableError, ShapeError
from .nn import _is_finite_number


@dataclass
class AccMatrix:
    """Lower-triangular accuracy matrix plus the random-init baseline.

    `pre_train[i]` (0-based task index, i >= 1) is the accuracy of task i+1
    measured just before training it, i.e. A_{i,i+1} in 1-indexed terms; it
    feeds forward transfer.
    """

    a: list[list[float]]
    abar: np.ndarray
    pre_train: np.ndarray | None = None

    def __post_init__(self):
        if not (isinstance(self.a, list) and self.a):
            raise ShapeError("an accuracy matrix needs at least one task, "
                             "as a list of rows")
        for j, row in enumerate(self.a):
            if not (isinstance(row, list) and len(row) == j + 1):
                raise ShapeError(f"row {j} must have {j + 1} entries")
            if not all(map(_is_accuracy, row)):
                raise ShapeError("accuracies must lie in [0, 1]")
        self.abar = _accuracies(self.abar, self.T, "abar")
        if self.pre_train is not None:
            self.pre_train = _accuracies(self.pre_train, self.T, "pre_train", True)

    @property
    def T(self) -> int:
        return len(self.a)


def _is_accuracy(v, nan=False) -> bool:  # booleans are not numbers
    return (_is_finite_number(v) and 0.0 <= v <= 1.0
            or nan and isinstance(v, float) and v != v)  # v is NaN


def _accuracies(values, T: int, name: str, nan=False) -> np.ndarray:
    """Checks each entry as given: np.asarray would read a boolean as 1."""
    values = values.tolist() if isinstance(values, np.ndarray) else values
    if not (isinstance(values, list) and len(values) == T
            and all(_is_accuracy(v, nan) for v in values)):
        raise ShapeError(f"{name} must hold {T} accuracies, each "
                         f"{'NaN or ' * nan}in [0, 1]")
    return np.array(values, dtype=np.float64)


def acc(m: AccMatrix) -> float:
    """Mean accuracy over all tasks after the final one is learned."""
    return float(np.mean(m.a[-1]))


def bwt(m: AccMatrix) -> float:
    """Mean final-minus-just-learned accuracy over old tasks; negative
    values mean forgetting."""
    if m.T < 2:
        raise MetricUnavailableError("BWT needs at least 2 tasks")
    final = np.asarray(m.a[-1][:-1])
    diag = np.asarray([m.a[i][i] for i in range(m.T - 1)])
    return float(np.mean(final - diag))


def fwt(m: AccMatrix) -> float:
    """Mean pre-training accuracy of each future task minus its random-init
    baseline."""
    if m.T < 2:
        raise MetricUnavailableError("FWT needs at least 2 tasks")
    if m.pre_train is None or np.any(~np.isfinite(m.pre_train[1:])):
        raise MetricUnavailableError("pre-training evaluations are missing")
    return float(np.mean(m.pre_train[1:] - m.abar[1:]))


# -- report emission ----------------------------------------------------------

def write_atomic(path, text: str) -> None:
    """Write `text` to `path` through a temporary file in the same
    directory, so `path` holds either its old content or all of the new.
    The pid keeps live writers apart; a dead writer's leftover is replaced."""
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "w")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#17becf", "#7f7f7f", "#bcbd22")


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _svg_chart(series: dict[str, tuple[np.ndarray, np.ndarray]],
               title: str, width: int = 640, height: int = 400) -> str:
    """Line chart: one polyline per (mean, std) series, translucent
    mean+-std band."""
    pad = 50
    t_max = max(len(mean) for mean, _ in series.values())
    xs = lambda i: pad + (width - 2 * pad) * (i / max(1, t_max - 1))
    ys = lambda v: height - pad - (height - 2 * pad) * v
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<text x="{width // 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        f'stroke="black"/>',
    ]
    for tick in range(t_max):
        parts.append(f'<text x="{_fmt(xs(tick))}" y="{height - pad + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="10">{tick + 1}</text>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(f'<text x="{pad - 8}" y="{_fmt(ys(frac) + 3)}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="10">{frac:.2f}</text>')
    for idx, name in enumerate(sorted(series)):
        mean, std = series[name]
        points = range(len(mean))
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        upper = [(xs(i), ys(min(1.0, mean[i] + std[i]))) for i in points]
        lower = [(xs(i), ys(max(0.0, mean[i] - std[i]))) for i in points]
        band = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in upper + lower[::-1])
        parts.append(f'<polygon points="{band}" fill="{color}" opacity="0.15"/>')
        line = " ".join(f"{_fmt(xs(i))},{_fmt(ys(mean[i]))}" for i in points)
        parts.append(f'<polyline points="{line}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{width - pad + 4}" y="{_fmt(ys(mean[-1]))}" '
                     f'font-family="sans-serif" font-size="11" '
                     f'fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def _running_mean_accuracy(m: AccMatrix) -> np.ndarray:
    return np.array([float(np.mean(m.a[t])) for t in range(m.T)])


def _metric_or_blank(fn, m: AccMatrix) -> str:
    try:
        return _fmt(fn(m))
    except MetricUnavailableError:
        return ""


def cell_name(config: dict) -> str:
    """The method, lam, lam_e and seed of a run's config, as its file names
    spell them."""
    return "{method}_lam{lam:g}_lame{lam_e:g}_seed{seed}".format_map(config)


def _setting(r) -> tuple:
    return r.config["method"], r.config["lam"], r.config["lam_e"]


def emit_report(results, out_dir) -> list[str]:
    """Write summary.csv, one matrix JSON per run, and SVG charts.

    Runs are told apart by (method, lambda, lambda_e, seed); each chart
    series is one (method, lambda, lambda_e) setting over its seeds.
    Returns the list of files written (relative to out_dir). Deterministic:
    re-emitting the same results reproduces identical bytes.
    """
    os.makedirs(out_dir, exist_ok=True)
    if not results:
        raise ShapeError("emit_report needs at least one result")
    results = sorted(results, key=lambda r: (*_setting(r), r.config["seed"]))
    rows = []
    t_max = max(r.acc_matrix.T for r in results)
    header = ["method", "seed", "lambda", "lambda_e", "T", "ACC", "BWT",
              "FWT"] + [f"A_diag_{i + 1}" for i in range(t_max)]
    for r in results:
        m, (method, lam, lam_e) = r.acc_matrix, _setting(r)
        rows.append([method, str(r.config["seed"]), f"{lam:g}", f"{lam_e:g}",
                     str(m.T), _fmt(acc(m)), _metric_or_blank(bwt, m),
                     _metric_or_blank(fwt, m),
                     *map(_fmt, r.per_task_new_accuracy)]
                    + [""] * (t_max - m.T))
    files = {"summary.csv": "\n".join(map(",".join, [header] + rows)) + "\n"}
    for r in results:
        doc = {"A": r.acc_matrix.a, "Abar": r.acc_matrix.abar.tolist()}
        files[f"matrix_{cell_name(r.config)}.json"] = json.dumps(
            doc, sort_keys=True) + "\n"

    by_setting: dict[str, list] = {}
    for r in results:
        method, lam, lam_e = _setting(r)
        by_setting.setdefault(f"{method} lam{lam:g} lame{lam_e:g}",
                              []).append(r)
    avg_series, new_series = {}, {}
    for label, runs in by_setting.items():
        t_run = max(r.acc_matrix.T for r in runs)
        mats = [r.acc_matrix for r in runs if r.acc_matrix.T == t_run]
        curves = np.stack([_running_mean_accuracy(m) for m in mats])
        avg_series[label] = (curves.mean(axis=0), curves.std(axis=0))
        diags = np.stack([[m.a[i][i] for i in range(t_run)] for m in mats])
        new_series[label] = (diags.mean(axis=0), diags.std(axis=0))
    for fname, series, title in (
            ("avg_accuracy.svg", avg_series, "Averaged accuracy vs tasks learned"),
            ("new_task_accuracy.svg", new_series, "New-task accuracy per task")):
        files[fname] = _svg_chart(series, title) + "\n"
    for name, text in files.items():
        write_atomic(os.path.join(out_dir, name), text)
    return [*files]
