#!/usr/bin/env python3
"""Plot nexus timeline JSON as an SVG chart file.

Stdlib-only. Input is either a BENCH_*.json trajectory file (an array of
records whose optional "timeline" object holds the sampled series — see
docs/METRICS.md) or a bare timeline JSON object. Output is a self-contained
SVG with one panel per unit class (queue-depth means, link/NoC utilization,
event rates, raw gauges), so no panel ever mixes two y-scales.

Examples:
  scripts/plot_timeline.py BENCH_topology.json --list
  scripts/plot_timeline.py BENCH_topology.json --record 5 -o topo.svg
  scripts/plot_timeline.py BENCH_fig9.json --workload gaussian-250 \
      --series 'runtime/ready_q_depth*,**/noc/*' -o fig9.svg
"""

import argparse
import fnmatch
import json
import math
import sys

# Categorical palette (fixed assignment order, never cycled) and neutral
# inks, from the repo's chart conventions; swap here to re-brand.
PALETTE = ["#2a78d6", "#eb6834", "#1baf7a", "#eda100",
           "#e87ba4", "#008300", "#4a3aa7", "#e34948"]
SURFACE = "#fcfcfb"
INK = "#0b0b0b"
INK_2 = "#52514e"
GRID = "#e4e3df"
MAX_SERIES_PER_PANEL = 8


def fail(msg):
    print("plot_timeline: " + msg, file=sys.stderr)
    raise SystemExit(2)


def delta_decode(values):
    out, acc = [], 0
    for i, v in enumerate(values):
        acc = v if i == 0 else acc + v
        out.append(acc)
    return out


def timeline_from_json(obj):
    """Decode a timeline JSON object into (t, [(path, kind, values)])."""
    delta = obj.get("encoding", "raw") == "delta"
    t = obj["t"]
    if delta:
        t = delta_decode(t)
    series = []
    for path, s in obj.get("series", {}).items():
        v = s["v"]
        if delta and s.get("kind") == "counter":
            v = delta_decode(v)
        series.append((path, s.get("kind", "counter"), v))
    return t, series


def load_records(path):
    """Yield (label, timeline-object) pairs from a BENCH/timeline JSON file."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if isinstance(doc, dict) and "series" in doc and "t" in doc:
        return [("timeline", doc)]
    records = doc if isinstance(doc, list) else [doc]
    out = []
    for rec in records:
        if not isinstance(rec, dict) or "timeline" not in rec:
            continue
        label = "{} {} {} {}c".format(
            rec.get("workload", "?"), rec.get("manager", "?"),
            rec.get("topology", "ideal"), rec.get("cores", "?"))
        out.append((label, rec["timeline"], rec))
    return out


def windowed(values):
    return [b - a for a, b in zip(values, values[1:])]


def derive_panels(t, series, globs):
    """Group decoded series into unit-class panels of plottable lines."""
    selected = [s for s in series
                if not globs or any(fnmatch.fnmatch(s[0], g) for g in globs)]
    by_path = {p: (k, v) for p, k, v in selected}
    dt = windowed(t)
    mid_t = t[1:]
    panels = {"mean depth": [], "utilization": [], "rate /ms": [], "gauge": []}
    done = set()
    for path, kind, v in selected:
        if path in done:
            continue
        if path.endswith(":sum") and path[:-4] + ":count" in by_path:
            base = path[:-4]
            dc = windowed(by_path[base + ":count"][1])
            ds = windowed(v)
            mean = [s / c if c else 0.0 for s, c in zip(ds, dc)]
            panels["mean depth"].append((base, mid_t, mean))
            done.update((path, base + ":count"))
        elif path.endswith(":count") and path[:-6] + ":sum" in by_path:
            continue  # handled with its :sum twin
        elif kind == "counter" and path.endswith("_ps"):
            util = [min(1.0, d / w) if w else 0.0
                    for d, w in zip(windowed(v), dt)]
            panels["utilization"].append((path, mid_t, util))
            done.add(path)
        elif kind == "counter":
            rate = [d / (w * 1e-9) if w else 0.0
                    for d, w in zip(windowed(v), dt)]
            panels["rate /ms"].append((path, mid_t, rate))
            done.add(path)
        else:
            panels["gauge"].append((path, t, [float(x) for x in v]))
            done.add(path)
    out = []
    for name, lines in panels.items():
        if not lines:
            continue
        if len(lines) > MAX_SERIES_PER_PANEL:
            print("plot_timeline: panel '{}' capped at {} of {} series"
                  .format(name, MAX_SERIES_PER_PANEL, len(lines)),
                  file=sys.stderr)
            lines = lines[:MAX_SERIES_PER_PANEL]
        out.append((name, lines))
    return out


def nice_ticks(lo, hi, n=4):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / n))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= n:
            step *= mult
            break
    first = step * math.ceil(lo / step)
    ticks, v = [], first
    while v <= hi + 1e-9 * span:
        ticks.append(v)
        v += step
    return ticks


def fmt(v):
    if v == 0:
        return "0"
    if abs(v) >= 1e6:
        return "{:.3g}M".format(v / 1e6)
    if abs(v) >= 1e3:
        return "{:.3g}k".format(v / 1e3)
    if abs(v) < 0.01:
        return "{:.1e}".format(v)
    return "{:.3g}".format(v)


def esc(s):
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(title, panels, width):
    pad_l, pad_r, pad_top, panel_h, legend_row = 64, 16, 34, 150, 16
    parts = []
    y_off = pad_top
    body = []
    for name, lines in panels:
        t_max = max(max(tt) for _, tt, _ in lines) or 1
        v_max = max((max(vv) if vv else 0.0) for _, _, vv in lines) or 1.0
        plot_w = width - pad_l - pad_r
        plot_h = panel_h - 28
        x0, y0 = pad_l, y_off + 16
        body.append('<text x="{}" y="{}" fill="{}" font-size="11" '
                    'font-weight="600">{}</text>'
                    .format(pad_l, y_off + 8, INK, esc(name)))
        # Recessive grid + y tick labels.
        for tick in nice_ticks(0.0, v_max):
            y = y0 + plot_h - tick / v_max * plot_h
            body.append('<line x1="{}" y1="{:.1f}" x2="{}" y2="{:.1f}" '
                        'stroke="{}" stroke-width="1"/>'
                        .format(x0, y, x0 + plot_w, y, GRID))
            body.append('<text x="{}" y="{:.1f}" fill="{}" font-size="9" '
                        'text-anchor="end">{}</text>'
                        .format(x0 - 4, y + 3, INK_2, fmt(tick)))
        for i, (path, tt, vv) in enumerate(lines):
            pts = " ".join("{:.1f},{:.1f}".format(
                x0 + t / t_max * plot_w,
                y0 + plot_h - (v / v_max) * plot_h)
                for t, v in zip(tt, vv))
            body.append('<polyline points="{}" fill="none" stroke="{}" '
                        'stroke-width="2" stroke-linejoin="round"/>'
                        .format(pts, PALETTE[i]))
        # x axis (time in ms) under the panel.
        body.append('<line x1="{}" y1="{}" x2="{}" y2="{}" stroke="{}" '
                    'stroke-width="1"/>'.format(x0, y0 + plot_h, x0 + plot_w,
                                                y0 + plot_h, INK_2))
        for tick in nice_ticks(0.0, t_max * 1e-9):
            x = x0 + (tick / (t_max * 1e-9)) * plot_w
            body.append('<text x="{:.1f}" y="{}" fill="{}" font-size="9" '
                        'text-anchor="middle">{}ms</text>'
                        .format(x, y0 + plot_h + 11, INK_2, fmt(tick)))
        # Legend: one marker + label per series, text in neutral ink.
        ly = y0 + plot_h + 24
        lx = x0
        for i, (path, _, _) in enumerate(lines):
            body.append('<rect x="{}" y="{}" width="8" height="8" rx="2" '
                        'fill="{}"/>'.format(lx, ly - 7, PALETTE[i]))
            label = esc(path)
            body.append('<text x="{}" y="{}" fill="{}" font-size="9">{}'
                        '</text>'.format(lx + 11, ly, INK_2, label))
            lx += 14 + 6 * len(path)
            if lx > width - 140 and i + 1 < len(lines):
                lx, ly = x0, ly + legend_row
        y_off = ly + 22
    height = y_off + 6
    parts.append('<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
                 'height="{h}" viewBox="0 0 {w} {h}" font-family="system-ui, '
                 'sans-serif">'.format(w=width, h=height))
    parts.append('<rect width="{}" height="{}" fill="{}"/>'
                 .format(width, height, SURFACE))
    parts.append('<text x="{}" y="16" fill="{}" font-size="12" '
                 'font-weight="600">{}</text>'.format(pad_l, INK, esc(title)))
    parts.extend(body)
    parts.append("</svg>")
    return "\n".join(parts)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("input", help="BENCH_*.json or timeline JSON")
    ap.add_argument("-o", "--out", default="timeline.svg")
    ap.add_argument("--list", action="store_true",
                    help="list records with timelines and exit")
    ap.add_argument("--record", type=int, default=None,
                    help="record index within a BENCH_*.json array")
    ap.add_argument("--workload")
    ap.add_argument("--manager")
    ap.add_argument("--topology")
    ap.add_argument("--cores", type=int)
    ap.add_argument("--series", default="",
                    help="comma-separated fnmatch globs over series paths")
    ap.add_argument("--width", type=int, default=760)
    args = ap.parse_args()

    records = load_records(args.input)
    if not records:
        fail("no timeline found in " + args.input +
             " (run the bench with --timeline)")
    if args.list:
        for i, rec in enumerate(records):
            print("{:3d}  {}".format(i, rec[0]))
        return
    chosen = None
    if args.record is not None:
        if not 0 <= args.record < len(records):
            fail("--record out of range (0..{})".format(len(records) - 1))
        chosen = records[args.record]
    else:
        for rec in records:
            meta = rec[2] if len(rec) > 2 else {}
            if args.workload and meta.get("workload") != args.workload:
                continue
            if args.manager and meta.get("manager") != args.manager:
                continue
            if args.topology and \
                    meta.get("topology", "ideal") != args.topology:
                continue
            if args.cores is not None and meta.get("cores") != args.cores:
                continue
            chosen = rec
            break
        if chosen is None:
            fail("no record matches the given filters (try --list)")
    title = chosen[0]
    t, series = timeline_from_json(chosen[1])

    if len(t) < 2:
        fail("timeline has fewer than two samples")
    globs = [g for g in args.series.split(",") if g]
    panels = derive_panels(t, series, globs)
    if not panels:
        fail("no series selected (check --series globs)")
    svg = render_svg(title, panels, args.width)
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(svg)
    n = sum(len(lines) for _, lines in panels)
    print("wrote {} ({} panel(s), {} series)".format(args.out, len(panels), n))


if __name__ == "__main__":
    main()
