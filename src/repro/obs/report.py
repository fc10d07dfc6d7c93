"""Perf-trajectory report and regression gate over ``BENCH_wallclock.json``.

Two consumers of the same history:

* :func:`render_report` / :func:`write_report` — a figure registry (one
  builder per named figure, ``python -m repro report`` renders all)
  producing a single self-contained HTML page: per-backend ops/sec
  trajectory, thread-scaling curves, serving latency percentiles by
  priority, and the fusion launch breakdown.  No external assets; the
  charts are inline SVG styled by CSS custom properties with a dark
  mode keyed off ``prefers-color-scheme``/``data-theme``.
* :func:`check_regressions` — the CI gate (``report --check``).  History
  entries are grouped per (section, op, backend-leg, shape, host
  signature); the latest point is compared against the median of the
  prior window and the gate fails when ops/sec dropped by more than the
  threshold.  Entries whose host signature (cpu count, native threads)
  differs never compare against each other, so a 2-core CI run cannot
  trip on 1-core dev history.  Keys with no baseline are reported as
  skipped — loudly, never silently dropped.
"""

from __future__ import annotations

import html as _html
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Figure",
    "FIGURE_BUILDERS",
    "figure",
    "build_figures",
    "load_results",
    "render_report",
    "write_report",
    "CheckResult",
    "GateReport",
    "check_regressions",
    "render_check",
]

DEFAULT_RESULTS = Path(__file__).resolve().parents[3] / "benchmarks" / "results" / "BENCH_wallclock.json"

# Validated categorical palette (dataviz reference instance): slots are
# assigned to series in this fixed order, never cycled or generated.
_SERIES_LIGHT = ("#2a78d6", "#eb6834", "#1baf7a", "#eda100", "#e87ba4")
_SERIES_DARK = ("#3987e5", "#d95926", "#199e70", "#c98500", "#d55181")
_MAX_SERIES = len(_SERIES_LIGHT)


@dataclass
class Figure:
    """One rendered figure: inline SVG chart(s) plus its data table."""

    name: str
    title: str
    caption: str
    svgs: List[str] = field(default_factory=list)
    legend: List[str] = field(default_factory=list)  # series labels, slot order
    table_headers: List[str] = field(default_factory=list)
    table_rows: List[List[str]] = field(default_factory=list)


FIGURE_BUILDERS: Dict[str, Tuple[str, Callable[[Dict[str, Any]], Optional[Figure]]]] = {}


def figure(name: str, title: str):
    """Register a figure builder; builders take the results dict, return a Figure."""

    def deco(fn):
        FIGURE_BUILDERS[name] = (title, fn)
        return fn

    return deco


def load_results(path: Optional[Path] = None) -> Dict[str, Any]:
    p = Path(path) if path is not None else DEFAULT_RESULTS
    return json.loads(p.read_text())


# ----------------------------------------------------------------------
# SVG helpers
# ----------------------------------------------------------------------

def _esc(s: Any) -> str:
    return _html.escape(str(s), quote=True)


def _fmt_val(v: float) -> str:
    if v >= 1000:
        return f"{v:,.0f}"
    if v >= 10:
        return f"{v:.1f}"
    return f"{v:.2f}"


def _nice_ceiling(v: float) -> float:
    """Round ``v`` up to a 1/2/2.5/5 x 10^k gridline-friendly ceiling."""
    if v <= 0:
        return 1.0
    import math

    mag = 10 ** math.floor(math.log10(v))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if v <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _line_chart(series: List[Tuple[str, List[Tuple[float, float]]]],
                *, title: str, y_label: str = "ops/sec",
                x_tick_labels: Optional[List[str]] = None,
                width: int = 480, height: int = 210) -> str:
    """Multi-series line chart; series get palette slots in order."""
    ml, mr, mt, mb = 62, 16, 20, 30
    pw, ph = width - ml - mr, height - mt - mb
    xs = sorted({x for _, pts in series for x, _ in pts})
    if not xs:
        return ""
    y_max = _nice_ceiling(max((y for _, pts in series for _, y in pts), default=1.0) * 1.05)
    x_min, x_max = min(xs), max(xs)
    x_span = (x_max - x_min) or 1.0

    def X(x: float) -> float:
        return ml + (x - x_min) / x_span * pw

    def Y(y: float) -> float:
        return mt + ph - (y / y_max) * ph

    out = [
        f'<svg viewBox="0 0 {width} {height}" role="img" aria-label="{_esc(title)}" '
        f'preserveAspectRatio="xMidYMid meet">',
        f'<text class="chart-title" x="{ml}" y="13">{_esc(title)}</text>',
    ]
    for i in range(5):  # horizontal gridlines + y tick labels
        gy = mt + ph - i / 4 * ph
        val = y_max * i / 4
        cls = "axisline" if i == 0 else "gridline"
        out.append(f'<line class="{cls}" x1="{ml}" y1="{gy:.1f}" x2="{width - mr}" y2="{gy:.1f}"/>')
        out.append(f'<text class="tick" x="{ml - 6}" y="{gy + 3.5:.1f}" text-anchor="end">{_fmt_val(val)}</text>')
    out.append(
        f'<text class="tick" transform="rotate(-90 11 {mt + ph / 2:.0f})" x="11" '
        f'y="{mt + ph / 2:.0f}" text-anchor="middle">{_esc(y_label)}</text>'
    )
    if x_tick_labels:
        step = max(1, len(xs) // 6)
        for idx, x in enumerate(xs):
            if idx % step and idx != len(xs) - 1:
                continue
            label = x_tick_labels[idx] if idx < len(x_tick_labels) else str(x)
            out.append(
                f'<text class="tick" x="{X(x):.1f}" y="{height - 8}" text-anchor="middle">{_esc(label)}</text>'
            )
    for si, (label, pts) in enumerate(series[:_MAX_SERIES]):
        pts = sorted(pts)
        if not pts:
            continue
        path = " ".join(f"{X(x):.1f},{Y(y):.1f}" for x, y in pts)
        out.append(f'<polyline class="s{si + 1}-stroke" fill="none" stroke-width="2" points="{path}"/>')
        for x, y in pts:
            out.append(
                f'<circle class="s{si + 1}-fill hoverpt" cx="{X(x):.1f}" cy="{Y(y):.1f}" r="3">'
                f"<title>{_esc(label)}: {_fmt_val(y)} {_esc(y_label)}</title></circle>"
            )
        lx, ly = pts[-1]
        out.append(
            f'<text class="dlabel" x="{min(X(lx) + 6, width - 2):.1f}" y="{Y(ly) + 3.5:.1f}">{_esc(label)}</text>'
        )
    out.append("</svg>")
    return "".join(out)


def _bar_chart(groups: List[Tuple[str, List[Optional[float]]]], series_labels: List[str],
               *, title: str, y_label: str = "", width: int = 480, height: int = 210,
               log_hint: bool = False) -> str:
    """Grouped bar chart; one palette slot per series, 2px gaps, rounded tops."""
    ml, mr, mt, mb = 62, 12, 20, 30
    pw, ph = width - ml - mr, height - mt - mb
    vals = [v for _, vs in groups for v in vs if v is not None]
    if not vals:
        return ""
    y_max = _nice_ceiling(max(vals) * 1.08)

    def Y(y: float) -> float:
        return mt + ph - (y / y_max) * ph

    n_groups = len(groups)
    n_series = max(1, len(series_labels))
    group_w = pw / n_groups
    bar_w = max(4.0, min(26.0, (group_w * 0.72 - 2 * (n_series - 1)) / n_series))
    out = [
        f'<svg viewBox="0 0 {width} {height}" role="img" aria-label="{_esc(title)}" '
        f'preserveAspectRatio="xMidYMid meet">',
        f'<text class="chart-title" x="{ml}" y="13">{_esc(title)}</text>',
    ]
    for i in range(5):
        gy = mt + ph - i / 4 * ph
        val = y_max * i / 4
        cls = "axisline" if i == 0 else "gridline"
        out.append(f'<line class="{cls}" x1="{ml}" y1="{gy:.1f}" x2="{width - mr}" y2="{gy:.1f}"/>')
        out.append(f'<text class="tick" x="{ml - 6}" y="{gy + 3.5:.1f}" text-anchor="end">{_fmt_val(val)}</text>')
    if y_label:
        out.append(
            f'<text class="tick" transform="rotate(-90 11 {mt + ph / 2:.0f})" x="11" '
            f'y="{mt + ph / 2:.0f}" text-anchor="middle">{_esc(y_label)}</text>'
        )
    for gi, (glabel, gvals) in enumerate(groups):
        cx = ml + (gi + 0.5) * group_w
        total_w = n_series * bar_w + 2 * (n_series - 1)
        x0 = cx - total_w / 2
        for si, v in enumerate(gvals[:_MAX_SERIES]):
            if v is None:
                continue
            bx = x0 + si * (bar_w + 2)
            by = Y(v)
            bh = max(0.0, mt + ph - by)
            sl = series_labels[si] if si < len(series_labels) else f"s{si + 1}"
            out.append(
                f'<rect class="s{si + 1}-fill hoverpt" x="{bx:.1f}" y="{by:.1f}" width="{bar_w:.1f}" '
                f'height="{bh:.1f}" rx="2"><title>{_esc(glabel)} · {_esc(sl)}: {_fmt_val(v)} '
                f"{_esc(y_label)}</title></rect>"
            )
        out.append(f'<text class="tick" x="{cx:.1f}" y="{height - 8}" text-anchor="middle">{_esc(glabel)}</text>')
    out.append("</svg>")
    return "".join(out)


def _legend_html(labels: Sequence[str]) -> str:
    if len(labels) < 2:
        return ""
    spans = "".join(
        f'<span class="legend-item"><span class="swatch s{i + 1}-bg"></span>{_esc(l)}</span>'
        for i, l in enumerate(labels[:_MAX_SERIES])
    )
    return f'<div class="legend">{spans}</div>'


# ----------------------------------------------------------------------
# History access
# ----------------------------------------------------------------------

def _history_points(data: Dict[str, Any]):
    """Yield (entry_index, ts, section, op, leg, ops_per_s, shape, host_sig)."""
    for idx, entry in enumerate(data.get("history", []) or []):
        meta = entry.get("meta", {}) or {}
        shape = (meta.get("degree"), meta.get("level"))
        sig = (meta.get("cpu_count"), meta.get("native_threads"))
        section = entry.get("section", "?")
        ts = entry.get("ts", "")
        for op, row in (entry.get("ops_per_s", {}) or {}).items():
            for key, val in row.items():
                if key.endswith("_ops_per_s"):
                    yield idx, ts, section, op, key[: -len("_ops_per_s")], float(val), shape, sig


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------

@figure("backend_trajectory", "Per-backend ops/sec trajectory")
def _fig_backend_trajectory(data: Dict[str, Any]) -> Optional[Figure]:
    """One small-multiple per op: ops/sec across recorded runs, per backend."""
    # "serial" is the bench leg timing the per-limb oracle
    # (repro.core.reference); the name keeps its history continuous.
    backends = ("native", "packed", "serial")
    per_op: Dict[Tuple[str, str], Dict[str, List[Tuple[float, float]]]] = {}
    ticks: Dict[Tuple[str, str], List[str]] = {}
    run_index: Dict[Tuple[str, str, int], int] = {}
    for idx, ts, section, op, leg, val, _shape, _sig in _history_points(data):
        if section not in ("he_ops", "ntt") or leg not in backends:
            continue
        k = (section, op)
        ri = run_index.setdefault((section, op, idx), len(ticks.setdefault(k, [])))
        if ri == len(ticks[k]):
            ticks[k].append(ts[5:10] if len(ts) >= 10 else str(ri))
        per_op.setdefault(k, {}).setdefault(leg, []).append((float(ri), val))
    if not per_op:
        return None
    svgs, rows = [], []
    for (section, op) in sorted(per_op):
        series = [(b, per_op[(section, op)][b]) for b in backends if b in per_op[(section, op)]]
        svgs.append(
            _line_chart(series, title=f"{op} ({section})", x_tick_labels=ticks[(section, op)],
                        width=400, height=190)
        )
        for b, pts in series:
            rows.append([op, b, str(len(pts)), _fmt_val(pts[0][1]), _fmt_val(pts[-1][1])])
    return Figure(
        name="backend_trajectory",
        title="Per-backend ops/sec trajectory",
        caption=(
            "Throughput of each HE op across recorded bench runs (history entries, "
            "oldest to newest), one line per backend. Flat or rising lines mean the "
            "native/packed speedups are holding across PRs."
        ),
        svgs=svgs,
        legend=list(backends),
        table_headers=["op", "backend", "runs", "first ops/s", "latest ops/s"],
        table_rows=rows,
    )


@figure("thread_scaling", "Thread-scaling curves")
def _fig_thread_scaling(data: Dict[str, Any]) -> Optional[Figure]:
    """ops/sec vs native kernel thread count, per op (latest scaling sections)."""
    series: List[Tuple[str, List[Tuple[float, float]]]] = []
    rows: List[List[str]] = []
    for section in ("he_ops_scaling", "ntt_scaling"):
        payload = data.get(section) or {}
        for op, row in sorted(payload.items()):
            if not isinstance(row, dict):
                continue
            pts = []
            for key, val in sorted(row.items()):
                if key.startswith("t") and key.endswith("_ops_per_s"):
                    try:
                        threads = int(key[1: -len("_ops_per_s")])
                    except ValueError:
                        continue
                    pts.append((float(threads), float(val)))
            if pts:
                series.append((op, pts))
                speedup = row.get("speedup_2t")
                rows.append([op, " / ".join(_fmt_val(v) for _, v in sorted(pts)),
                             f"{speedup:.3f}x" if speedup is not None else "-"])
    if not series:
        return None
    svg = _line_chart(
        series[:_MAX_SERIES], title="ops/sec vs native kernel threads",
        x_tick_labels=[f"{int(t)}t" for t in sorted({t for _, pts in series for t, _ in pts})],
        width=460, height=220,
    )
    return Figure(
        name="thread_scaling",
        title="Thread-scaling curves",
        caption=(
            "Latest thread-scaling measurement: throughput of the heaviest ops as the "
            "native kernel worker count grows. On a single-vCPU host the curve is flat "
            "by construction; multi-core CI legs should slope upward."
        ),
        svgs=[svg],
        legend=[label for label, _ in series[:_MAX_SERIES]],
        table_headers=["op", "ops/s per thread count", "2-thread speedup"],
        table_rows=rows,
    )


@figure("serving_percentiles", "Serving latency percentiles")
def _fig_serving_percentiles(data: Dict[str, Any]) -> Optional[Figure]:
    """p50/p95/p99 per overload-bench leg, plus per-priority percentiles."""
    so = data.get("serving_overload") or {}
    legs = [(k, so[k]) for k in ("no_admission", "admission", "workers2", "priorities")
            if isinstance(so.get(k), dict) and "p50_us" in so[k]]
    if not legs:
        return None
    pct = ("p50_us", "p95_us", "p99_us")
    groups = [(p[:-3], [float(row[p]) / 1000.0 for _, row in legs]) for p in pct]
    svgs = [_bar_chart(groups, [name for name, _ in legs],
                       title="latency by percentile (2x-capacity overload)",
                       y_label="latency ms", width=460, height=220)]
    rows = [[name, _fmt_val(row["p50_us"] / 1000.0), _fmt_val(row["p95_us"] / 1000.0),
             _fmt_val(row["p99_us"] / 1000.0), str(row.get("served", "-")), str(row.get("shed", "-"))]
            for name, row in legs]
    by_prio = (so.get("priorities") or {}).get("by_priority") or {}
    if by_prio:
        pg = [(p[:-3], [float(by_prio[prio][p]) / 1000.0 for prio in sorted(by_prio)]) for p in pct]
        svgs.append(_bar_chart(pg, [f"priority {prio}" for prio in sorted(by_prio)],
                               title="latency by request priority (admission on)",
                               y_label="latency ms", width=460, height=220))
        for prio in sorted(by_prio):
            row = by_prio[prio]
            rows.append([f"priority {prio}", _fmt_val(row["p50_us"] / 1000.0),
                         _fmt_val(row["p95_us"] / 1000.0), _fmt_val(row["p99_us"] / 1000.0),
                         str(row.get("served", "-")), str(row.get("shed", "-"))])
    return Figure(
        name="serving_percentiles",
        title="Serving latency percentiles",
        caption=(
            "End-to-end simulated latency under 2x-capacity overload, per serving "
            "configuration and (second chart) per request priority with admission "
            "control on: high-priority requests hold their percentiles while "
            "low-priority traffic absorbs the shedding."
        ),
        svgs=svgs,
        legend=[name for name, _ in legs],
        table_headers=["leg", "p50 ms", "p95 ms", "p99 ms", "served", "shed"],
        table_rows=rows,
    )


@figure("fusion_breakdown", "Kernel-fusion launch breakdown")
def _fig_fusion_breakdown(data: Dict[str, Any]) -> Optional[Figure]:
    """Raw vs fused kernel launches (and device time) for the same traffic."""
    fu = (data.get("serving_overload") or {}).get("fusion") or {}
    if not fu:
        return None
    groups = [
        ("launches", [float(fu.get("raw_launches", 0)), float(fu.get("fused_launches", 0))]),
    ]
    if "baseline_time_ms" in fu and "fused_time_ms" in fu:
        groups.append(("device ms", [float(fu["baseline_time_ms"]), float(fu["fused_time_ms"])]))
    svg = _bar_chart(groups, ["fusion off", "fusion on"],
                     title="same traffic, fusion off vs on", width=460, height=220)
    rows = [["raw launches", str(fu.get("raw_launches", "-"))],
            ["fused launches", str(fu.get("fused_launches", "-"))],
            ["launch reduction", f"{fu.get('launch_reduction', 0):.2f}x"]]
    if "baseline_time_ms" in fu:
        rows.append(["device time off/on (ms)",
                     f"{fu['baseline_time_ms']:.2f} / {fu['fused_time_ms']:.2f}"])
    return Figure(
        name="fusion_breakdown",
        title="Kernel-fusion launch breakdown",
        caption=(
            "Kernel launches issued for identical traffic with the fusion compiler off "
            "vs on. Fusion collapses elementwise chains and batches same-shape launches "
            "across requests, which is the paper's launch-overhead lever."
        ),
        svgs=[svg],
        legend=["fusion off", "fusion on"],
        table_headers=["metric", "value"],
        table_rows=rows,
    )


def build_figures(data: Dict[str, Any]) -> List[Figure]:
    figs = []
    for name, (_title, builder) in FIGURE_BUILDERS.items():
        fig = builder(data)
        if fig is not None:
            figs.append(fig)
    return figs


# ----------------------------------------------------------------------
# HTML assembly
# ----------------------------------------------------------------------

_CSS = """
:root { color-scheme: light dark; }
body {
  margin: 0; padding: 24px;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--text-primary);
}
.viz-root {
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --border: rgba(11,11,11,0.10);
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a; --s4: #eda100; --s5: #e87ba4;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    --page: #0d0d0d; --surface-1: #1a1a19;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835; --border: rgba(255,255,255,0.10);
    --s1: #3987e5; --s2: #d95926; --s3: #199e70; --s4: #c98500; --s5: #d55181;
  }
}
:root[data-theme="dark"] .viz-root {
  --page: #0d0d0d; --surface-1: #1a1a19;
  --text-primary: #ffffff; --text-secondary: #c3c2b7; --muted: #898781;
  --grid: #2c2c2a; --axis: #383835; --border: rgba(255,255,255,0.10);
  --s1: #3987e5; --s2: #d95926; --s3: #199e70; --s4: #c98500; --s5: #d55181;
}
body { background: var(--page); }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 0 0 2px; }
.subtitle { color: var(--text-secondary); font-size: 13px; margin-bottom: 20px; }
.figure {
  background: var(--surface-1); border: 1px solid var(--border); border-radius: 8px;
  padding: 16px 18px; margin-bottom: 20px; max-width: 980px;
}
.caption { color: var(--text-secondary); font-size: 13px; margin: 2px 0 10px; }
.charts { display: flex; flex-wrap: wrap; gap: 12px; }
.charts svg { max-width: 100%; height: auto; background: var(--surface-1); }
.chart-title { fill: var(--text-secondary); font-size: 11px; }
.tick, .dlabel { fill: var(--muted); font-size: 10px; }
.dlabel { fill: var(--text-secondary); }
.gridline { stroke: var(--grid); stroke-width: 1; }
.axisline { stroke: var(--axis); stroke-width: 1; }
.s1-stroke { stroke: var(--s1); } .s1-fill { fill: var(--s1); } .s1-bg { background: var(--s1); }
.s2-stroke { stroke: var(--s2); } .s2-fill { fill: var(--s2); } .s2-bg { background: var(--s2); }
.s3-stroke { stroke: var(--s3); } .s3-fill { fill: var(--s3); } .s3-bg { background: var(--s3); }
.s4-stroke { stroke: var(--s4); } .s4-fill { fill: var(--s4); } .s4-bg { background: var(--s4); }
.s5-stroke { stroke: var(--s5); } .s5-fill { fill: var(--s5); } .s5-bg { background: var(--s5); }
.hoverpt:hover { opacity: 0.75; }
.legend { display: flex; flex-wrap: wrap; gap: 14px; margin: 4px 0 8px; font-size: 12px;
          color: var(--text-secondary); }
.legend-item { display: inline-flex; align-items: center; gap: 6px; }
.swatch { width: 10px; height: 10px; border-radius: 2px; display: inline-block; }
details { margin-top: 8px; font-size: 12px; }
summary { cursor: pointer; color: var(--text-secondary); }
table { border-collapse: collapse; margin-top: 6px; }
th, td { border: 1px solid var(--grid); padding: 3px 8px; text-align: right;
         font-variant-numeric: tabular-nums; }
th { color: var(--text-secondary); font-weight: 600; }
td:first-child, th:first-child { text-align: left; }
.meta { color: var(--muted); font-size: 12px; margin-top: 10px; }
"""


def render_report(data: Dict[str, Any], *, check: Optional["GateReport"] = None) -> str:
    """Render the full report as one self-contained HTML string."""
    figs = build_figures(data)
    meta = data.get("meta", {}) or {}
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        '<meta name="viewport" content="width=device-width, initial-scale=1">',
        "<title>repro perf report</title>",
        f"<style>{_CSS}</style></head>",
        '<body class="viz-root"><h1>repro perf report</h1>',
        '<div class="subtitle">Per-backend trajectory, thread scaling, serving '
        "percentiles and fusion breakdown from <code>benchmarks/results/"
        "BENCH_wallclock.json</code>.</div>",
    ]
    for fig in figs:
        parts.append('<section class="figure">')
        parts.append(f"<h2>{_esc(fig.title)}</h2>")
        parts.append(f'<div class="caption">{_esc(fig.caption)}</div>')
        parts.append(_legend_html(fig.legend))
        parts.append('<div class="charts">' + "".join(fig.svgs) + "</div>")
        if fig.table_rows:
            head = "".join(f"<th>{_esc(h)}</th>" for h in fig.table_headers)
            body = "".join(
                "<tr>" + "".join(f"<td>{_esc(c)}</td>" for c in row) + "</tr>"
                for row in fig.table_rows
            )
            parts.append(
                "<details><summary>data table</summary>"
                f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table></details>"
            )
        parts.append("</section>")
    if check is not None:
        parts.append('<section class="figure"><h2>Regression gate</h2>')
        parts.append(f"<pre>{_esc(render_check(check))}</pre></section>")
    host = ", ".join(
        f"{k}={meta[k]}" for k in ("cpu_count", "native_threads", "degree", "level") if k in meta
    )
    parts.append(f'<div class="meta">{len(figs)} figures · host: {_esc(host or "unknown")} · '
                 f'history entries: {len(data.get("history", []) or [])}</div>')
    parts.append("</body></html>")
    return "\n".join(parts)


def write_report(path: Path, data: Dict[str, Any], *, check: Optional["GateReport"] = None) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_report(data, check=check))
    return path


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------

@dataclass
class CheckResult:
    section: str
    op: str
    leg: str
    shape: Tuple[Any, Any]
    host_sig: Tuple[Any, Any]
    latest: float
    baseline: float
    drop: float  # fraction: 0.25 = 25% slower than baseline
    status: str  # "ok" | "fail"

    @property
    def key(self) -> str:
        shape = f"N={self.shape[0]}/L{self.shape[1]}" if self.shape[0] else "?"
        return f"{self.section}:{self.op}:{self.leg} [{shape}]"


@dataclass
class GateReport:
    threshold: float
    window: int
    checked: List[CheckResult] = field(default_factory=list)
    failures: List[CheckResult] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def check_regressions(data: Dict[str, Any], *, threshold: float = 0.2,
                      window: int = 20) -> GateReport:
    """Gate the latest history point of every series against its rolling baseline.

    Series are keyed by (section, op, leg, shape, host signature); the
    baseline is the median of up to ``window`` prior points with the
    *same* key.  A series whose latest ops/sec is more than ``threshold``
    below baseline is a failure.  Series with no comparable prior point,
    and stale series superseded by a newer run of the same op under a
    different host signature (e.g. dev-box history on a CI runner), are
    listed in ``skipped`` so coverage gaps are visible.
    """
    groups: Dict[Tuple, List[Tuple[int, float]]] = {}
    newest: Dict[Tuple, int] = {}
    for idx, _ts, section, op, leg, val, shape, sig in _history_points(data):
        groups.setdefault((section, op, leg, shape, sig), []).append((idx, val))
        series = (section, op, leg, shape)
        newest[series] = max(newest.get(series, -1), idx)
    report = GateReport(threshold=threshold, window=window)
    for (section, op, leg, shape, sig), pts in sorted(groups.items(), key=lambda kv: str(kv[0])):
        pts.sort()
        vals = [v for _, v in pts]
        res = CheckResult(section, op, leg, shape, sig, latest=vals[-1],
                          baseline=0.0, drop=0.0, status="ok")
        if pts[-1][0] < newest[(section, op, leg, shape)]:
            report.skipped.append(f"{res.key} (stale: superseded by newer host signature)")
            continue
        if len(vals) < 2:
            report.skipped.append(f"{res.key} (single run, no baseline)")
            continue
        prior = vals[max(0, len(vals) - 1 - window):-1]
        res.baseline = statistics.median(prior)
        if res.baseline > 0:
            res.drop = 1.0 - res.latest / res.baseline
        if res.drop > threshold:
            res.status = "fail"
            report.failures.append(res)
        else:
            report.checked.append(res)
    return report


def render_check(report: GateReport) -> str:
    """Human-readable gate summary (also embedded into the HTML report)."""
    lines = [
        f"perf gate: threshold {report.threshold:.0%} drop vs median of last "
        f"{report.window} comparable runs",
        f"  checked: {len(report.checked)}  failed: {len(report.failures)}  "
        f"skipped (no baseline): {len(report.skipped)}",
    ]
    for res in report.failures:
        lines.append(
            f"  FAIL {res.key}: {res.latest:.1f} ops/s vs baseline "
            f"{res.baseline:.1f} ({res.drop:+.1%} drop)"
        )
    for res in sorted(report.checked, key=lambda r: -r.drop)[:8]:
        lines.append(
            f"  ok   {res.key}: {res.latest:.1f} ops/s vs baseline "
            f"{res.baseline:.1f} ({-res.drop:+.1%})"
        )
    for key in report.skipped:
        lines.append(f"  skip {key}")
    return "\n".join(lines) + "\n"
