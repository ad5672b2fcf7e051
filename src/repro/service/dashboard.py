"""The ``/status`` dashboard renderer for the ``gpssn serve`` daemon.

Renders the plain-data dict of
:meth:`~repro.service.server.GPSSNService.status_view` in two shapes:

* :func:`render_status_html` — a single self-contained HTML page (no
  external assets; a daemon must stay useful from an air-gapped
  terminal's browser);
* :func:`render_status_text` — the same content as plain text for
  ``curl .../status?format=text``.

The pruning funnel section is the daemon-side view of the paper's
Fig. 7 pruning-power experiment: the cumulative ``pruning.*`` counters
absorbed from every answered query, arranged as the candidate funnel
(population → index level → object level → pair refinement) per side,
with the per-rule pruning powers computed the way Section 6.2 reports
them. The mapping from these counters to the figure's bars is
documented in ``docs/paper_mapping.md``.
"""

from __future__ import annotations

import html
import time
from typing import Dict, List, Sequence, Tuple

from ..obs.delta import split_worker_metric

__all__ = [
    "funnel_rows",
    "render_status_html",
    "render_status_text",
    "worker_rows",
]


def _fmt_sec(seconds: float) -> str:
    seconds = int(seconds)
    hours, rem = divmod(seconds, 3600)
    minutes, secs = divmod(rem, 60)
    if hours:
        return f"{hours}h {minutes:02d}m {secs:02d}s"
    if minutes:
        return f"{minutes}m {secs:02d}s"
    return f"{secs}s"


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1000:.1f} ms"


def _rate(part: float, whole: float) -> str:
    return f"{part / whole:.1%}" if whole else "-"


def funnel_rows(counters: Dict[str, float]) -> List[Tuple[str, int, str]]:
    """The pruning funnel as ``(stage, pruned, power)`` rows.

    Stage order and the normalization denominators follow Fig. 7(a-d):
    index-level power is pruned/population, object-level power is
    pruned/(index survivors), pair-level is examined/possible.
    """
    c = {name[len("pruning."):]: value
         for name, value in counters.items() if name.startswith("pruning.")}
    if not c:
        return []
    users = c.get("total_users", 0.0)
    pois = c.get("total_pois", 0.0)
    s_idx = c.get("social_index_pruned", 0.0)
    s_obj = c.get("social_object_pruned", 0.0)
    r_idx = c.get("road_index_pruned", 0.0)
    r_obj = c.get("road_object_pruned", 0.0)
    rows: List[Tuple[str, int, str]] = [
        ("users visited", int(users), "-"),
        ("social index level", int(s_idx), _rate(s_idx, users)),
        ("social object level", int(s_obj), _rate(s_obj, users - s_idx)),
        ("· by distance", int(c.get("social_pruned_by_distance", 0.0)), ""),
        ("· by interest", int(c.get("social_pruned_by_interest", 0.0)), ""),
        ("POIs visited", int(pois), "-"),
        ("road index level", int(r_idx), _rate(r_idx, pois)),
        ("road object level", int(r_obj), _rate(r_obj, pois - r_idx)),
        ("· by distance", int(c.get("road_pruned_by_distance", 0.0)), ""),
        ("· by matching", int(c.get("road_pruned_by_matching", 0.0)), ""),
        (
            "candidate pairs examined",
            int(c.get("candidate_pairs_examined", 0.0)),
            _rate(
                c.get("candidate_pairs_examined", 0.0),
                c.get("total_possible_pairs", 0.0),
            ),
        ),
    ]
    return rows


def _phase_rows(histograms: Dict[str, object]) -> List[List[str]]:
    """Per-phase latency rows from the ``phase.*`` histograms."""
    rows: List[List[str]] = []
    for name in sorted(histograms):
        if not name.startswith("phase."):
            continue
        h = histograms[name]
        rows.append([
            name[len("phase."):], str(h.count), _fmt_ms(h.mean),
            _fmt_ms(h.p50), _fmt_ms(h.p95), _fmt_ms(h.max),
        ])
    rows.sort(key=lambda row: row[0])
    return rows


def _window_rows(view: Dict[str, object]) -> List[List[str]]:
    windows: Dict[str, object] = view["windows"]  # type: ignore
    totals: Dict[str, object] = view["window_totals"]  # type: ignore
    rows: List[List[str]] = []
    for name in sorted(windows):
        w = windows[name]
        rows.append([
            name, f"{int(view['window_sec'])}s", str(w.count),
            _fmt_ms(w.p50), _fmt_ms(w.p95), _fmt_ms(w.p99), _fmt_ms(w.max),
            str(totals[name].count),
        ])
    return rows


def worker_rows(view: Dict[str, object]) -> List[List[str]]:
    """The per-worker panel: one row per ``worker.<label>.*`` series.

    Everything here arrives on shard metric deltas, so the panel is
    populated identically whether the worker is the serial state
    (label ``0``) or pool processes (``pid<n>``) — the cross-process
    telemetry plane's visible payoff.
    """
    counters: Dict[str, float] = view.get("counters", {})  # type: ignore
    gauges: Dict[str, float] = view.get("gauges", {})  # type: ignore
    histograms: Dict[str, object] = view.get("histograms", {})  # type: ignore
    labels = sorted({
        parts[1]
        for source in (counters, gauges, histograms)
        for name in source
        for parts in (split_worker_metric(name),)
        if parts is not None
    })
    rows: List[List[str]] = []
    for label in labels:
        prefix = f"worker.{label}."
        queries = counters.get(f"{prefix}query.count", 0.0)
        cpu = histograms.get(f"{prefix}query.cpu_time_sec")
        hits = counters.get(f"{prefix}dijkstra.cache_hits", 0.0)
        searches = counters.get(f"{prefix}dijkstra.searches", 0.0)
        attach = gauges.get(f"{prefix}snapshot.attach_seconds")
        dropped = counters.get(f"{prefix}obs.worker_spans_dropped", 0.0)
        rows.append([
            label,
            str(int(queries)),
            _fmt_ms(cpu.p95) if cpu is not None else "-",
            _rate(hits, hits + searches),
            _fmt_ms(attach) if attach is not None else "-",
            str(int(dropped)),
        ])
    return rows


def _admission_rows(view: Dict[str, object]) -> List[Tuple[str, str]]:
    counters = view["counters"]
    return [
        ("backend", f"{view['backend']} × {view['workers']} workers"),
        ("in flight / capacity",
         f"{view['queue_depth']} / {view['capacity']}"),
        ("requests", f"{int(counters.get('service.requests', 0))}"),
        ("queries answered", f"{int(counters.get('service.queries', 0))}"),
        ("dedupe savings", f"{int(counters.get('service.dedup_saved', 0))}"),
        ("rejected (429)", f"{int(counters.get('service.rejected', 0))}"),
        ("timeouts", f"{int(counters.get('service.timeouts', 0))}"),
        ("errors", f"{int(counters.get('service.errors', 0))}"),
    ]


def _slow_rows(slow: Sequence[dict]) -> List[List[str]]:
    rows: List[List[str]] = []
    for entry in reversed(list(slow)):
        rows.append([
            time.strftime("%H:%M:%S", time.localtime(entry["ts"])),
            str(entry["request_id"]),
            str(entry["query_id"]),
            str(entry["user"]),
            str(entry["status"]),
            _fmt_ms(entry["duration_sec"]),
        ])
    return rows


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------


def _text_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]]
) -> List[str]:
    if not rows:
        return ["  (no data yet)"]
    cells = [list(map(str, headers))] + [list(map(str, r)) for r in rows]
    widths = [
        max(len(row[col]) for row in cells)
        for col in range(len(headers))
    ]
    lines = []
    for idx, row in enumerate(cells):
        lines.append("  " + "  ".join(
            value.ljust(width) for value, width in zip(row, widths)
        ).rstrip())
        if idx == 0:
            lines.append("  " + "  ".join("-" * w for w in widths))
    return lines


def render_status_text(view: Dict[str, object]) -> str:
    """The ``/status?format=text`` page."""
    lines: List[str] = [
        "gpssn serve status",
        "==================",
        f"ready: {'yes' if view['ready'] else 'warming'}"
        f"   uptime: {_fmt_sec(view['uptime_sec'])}",
        "",
        "Admission",
        "---------",
    ]
    for label, value in _admission_rows(view):
        lines.append(f"  {label}: {value}")

    lines += ["", "Request latency (rolling windows)", "-" * 33]
    lines += _text_table(
        ["window", "width", "n", "p50", "p95", "p99", "max", "lifetime n"],
        _window_rows(view),
    )

    lines += ["", "Per-phase latency (lifetime)", "-" * 28]
    lines += _text_table(
        ["phase", "n", "mean", "p50", "p95", "max"],
        _phase_rows(view["histograms"]),
    )

    lines += ["", "Workers (from shipped metric deltas)", "-" * 36]
    lines += _text_table(
        ["worker", "queries", "cpu p95", "cache hits", "attach",
         "spans dropped"],
        worker_rows(view),
    )

    lines += ["", "Pruning funnel (cumulative, Fig. 7 view)", "-" * 40]
    funnel = funnel_rows(view["counters"])
    lines += _text_table(
        ["stage", "pruned/seen", "power"],
        [[stage, str(count), power] for stage, count, power in funnel],
    )

    lines += ["", "Recent slow queries", "-" * 19]
    lines += _text_table(
        ["time", "request", "query", "user", "status", "duration"],
        _slow_rows(view["slow_queries"]),
    )

    traces = view.get("traces") or []
    if traces:
        lines += ["", "Captured traces", "-" * 15]
        for t in traces:
            lines.append(
                f"  /trace/{t['request_id']}  "
                f"({t['num_queries']} queries, "
                f"{_fmt_ms(t['duration_sec'])})"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# HTML rendering
# ---------------------------------------------------------------------------

_STYLE = """
body { font-family: ui-monospace, SFMono-Regular, Menlo, monospace;
       margin: 2rem; background: #fafafa; color: #1a1a1a; }
h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 1.6rem; }
table { border-collapse: collapse; margin-top: .4rem; }
th, td { border: 1px solid #ccc; padding: .25rem .6rem;
         font-size: .85rem; text-align: left; }
th { background: #eee; }
.badge { display: inline-block; padding: .1rem .5rem; border-radius: .6rem;
         font-size: .8rem; color: #fff; }
.ok { background: #2e7d32; } .warn { background: #c62828; }
.muted { color: #777; font-size: .8rem; }
"""


def _html_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]]
) -> str:
    if not rows:
        return '<p class="muted">no data yet</p>'
    head = "".join(f"<th>{html.escape(str(h))}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(
            f"<td>{html.escape(str(cell))}</td>" for cell in row
        ) + "</tr>"
        for row in rows
    )
    return f"<table><tr>{head}</tr>{body}</table>"


def render_status_html(view: Dict[str, object]) -> str:
    """The ``/status`` page (self-contained, no external assets)."""
    ready = bool(view["ready"])
    badge = (
        '<span class="badge ok">ready</span>' if ready
        else '<span class="badge warn">warming</span>'
    )
    parts: List[str] = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        "<title>gpssn serve status</title>",
        f"<style>{_STYLE}</style></head><body>",
        f"<h1>gpssn serve {badge}</h1>",
        f"<p class='muted'>uptime {_fmt_sec(view['uptime_sec'])}"
        f" · started {time.strftime('%Y-%m-%d %H:%M:%S', time.localtime(view['started_wall']))}"
        "</p>",
        "<h2>Admission</h2>",
        _html_table(
            ["", "value"],
            [[label, value] for label, value in _admission_rows(view)],
        ),
        "<h2>Request latency (rolling windows)</h2>",
        _html_table(
            ["window", "width", "n", "p50", "p95", "p99", "max",
             "lifetime n"],
            _window_rows(view),
        ),
        "<h2>Per-phase latency (lifetime)</h2>",
        _html_table(
            ["phase", "n", "mean", "p50", "p95", "max"],
            _phase_rows(view["histograms"]),
        ),
        "<h2>Workers <span class='muted'>(from shipped metric deltas; "
        "identical plane on serial and process backends)</span></h2>",
        _html_table(
            ["worker", "queries", "cpu p95", "cache hits", "attach",
             "spans dropped"],
            worker_rows(view),
        ),
        "<h2>Pruning funnel <span class='muted'>(cumulative; the live "
        "Fig.&nbsp;7 view — see docs/paper_mapping.md)</span></h2>",
        _html_table(
            ["stage", "pruned/seen", "power"],
            [[s, str(c), p] for s, c, p in funnel_rows(view["counters"])],
        ),
        "<h2>Recent slow queries</h2>",
        _html_table(
            ["time", "request", "query", "user", "status", "duration"],
            _slow_rows(view["slow_queries"]),
        ),
    ]
    traces = view.get("traces") or []
    if traces:
        parts.append("<h2>Captured traces</h2><ul>")
        for t in traces:
            rid = html.escape(str(t["request_id"]))
            parts.append(
                f"<li><a href='/trace/{rid}'>{rid}</a>"
                f" — {t['num_queries']} queries, "
                f"{_fmt_ms(t['duration_sec'])}</li>"
            )
        parts.append("</ul>")
    parts.append(
        "<p class='muted'>endpoints: POST /query · GET /metrics · "
        "/healthz · /readyz · /status?format=text</p></body></html>"
    )
    return "".join(parts)
