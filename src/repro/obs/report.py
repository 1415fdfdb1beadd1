"""Trace summarization: ``python -m repro report <trace>``.

Loads a trace produced by ``trade --trace`` (either exporter format —
flat JSONL or Chrome ``trace_event`` JSON is auto-detected) and prints
the quantities a profiling pass actually wants:

* per-phase aggregates and the top-k slowest individual spans
  (simulated time; wall time shown when the trace carries it),
* the message breakdown by type (count + bytes + faults),
* the causal critical path of the negotiation (per-phase latency
  decomposition and each round's bottleneck; see
  :mod:`repro.obs.critpath`),
* per-site cache hit ratios,
* the simulator queue gauge.
"""

from __future__ import annotations

import gzip
import json
import os
from typing import Any, Iterable, Sequence

__all__ = [
    "load_trace",
    "load_trace_dir",
    "summarize",
    "render_report",
    "render_multi_report",
]

#: File suffixes the directory loader treats as traces.
TRACE_SUFFIXES = (".json", ".jsonl", ".json.gz", ".jsonl.gz", ".trace")


def _normalize(row: dict) -> dict:
    """A trace row with every field the summary reads, defaulted."""
    return {
        "kind": row.get("kind", "event"),
        "name": row.get("name", ""),
        "cat": row.get("cat", ""),
        "site": row.get("site", ""),
        "sim_start": float(row.get("sim_start", 0.0)),
        "sim_end": float(row.get("sim_end", row.get("sim_start", 0.0))),
        "args": row.get("args") or {},
        "wall_ms": row.get("wall_ms"),
    }


def load_trace(path: str) -> list[dict]:
    """Trace rows from *path*; JSONL and Chrome JSON are auto-detected,
    gzip-compressed traces (``.jsonl.gz`` etc.) read transparently (by
    magic bytes, so any filename works)."""
    with open(path, "rb") as fh:
        magic = fh.read(2)
    if magic == b"\x1f\x8b":
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            text = fh.read()
    else:
        with open(path) as fh:
            text = fh.read()
    stripped = text.lstrip()
    data = None
    if stripped.startswith("{") or stripped.startswith("["):
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            data = None  # one object per line: flat JSONL
    if isinstance(data, dict) and "traceEvents" not in data:
        data = [data]  # a single-row JSONL file parses as one dict
    if data is not None:
        events = data.get("traceEvents", []) if isinstance(data, dict) else data
        rows = []
        for event in events:
            phase = event.get("ph")
            kind = {"X": "span", "i": "event", "C": "gauge"}.get(phase)
            if kind is None:  # metadata and unknown phases
                continue
            args = dict(event.get("args") or {})
            start = event.get("ts", 0.0) / 1e6
            duration = event.get("dur", 0.0) / 1e6
            rows.append(
                _normalize(
                    {
                        "kind": kind,
                        "name": event.get("name", ""),
                        "cat": event.get("cat", ""),
                        "site": args.pop("site", ""),
                        "sim_start": start,
                        "sim_end": start + duration,
                        "wall_ms": args.pop("wall_ms", None),
                        "args": args,
                    }
                )
            )
        return rows
    return [
        _normalize(json.loads(line))
        for line in text.splitlines()
        if line.strip()
    ]


# ----------------------------------------------------------------------
def summarize(rows: Sequence[dict], top: int = 8) -> dict[str, Any]:
    """Aggregate *rows* into the report's sections (plain data)."""
    phases: dict[str, dict[str, float]] = {}
    slowest: list[dict] = []
    messages: dict[str, dict[str, int]] = {}
    faults: dict[str, int] = {}
    cache: dict[str, dict[str, int]] = {}
    pending_max = None
    sim_span = 0.0

    for row in rows:
        sim_span = max(sim_span, row["sim_end"])
        if row["kind"] == "span":
            duration = row["sim_end"] - row["sim_start"]
            agg = phases.setdefault(
                row["name"], {"count": 0, "total": 0.0, "max": 0.0, "wall_ms": 0.0}
            )
            agg["count"] += 1
            agg["total"] += duration
            agg["max"] = max(agg["max"], duration)
            if row["wall_ms"] is not None:
                agg["wall_ms"] += float(row["wall_ms"])
            slowest.append(row)
        elif row["kind"] == "gauge":
            if row["name"] == "sim.pending_events":
                value = float(row["args"].get("value", 0))
                pending_max = value if pending_max is None else max(pending_max, value)
        elif row["name"] == "msg.send":
            kind = str(row["args"].get("kind", "?"))
            agg = messages.setdefault(kind, {"count": 0, "bytes": 0})
            agg["count"] += 1
            agg["bytes"] += int(row["args"].get("bytes", 0))
        elif row["name"].startswith("fault."):
            key = row["name"].split(".", 1)[1]
            reason = row["args"].get("reason")
            if reason:
                key = f"{key}({reason})"
            faults[key] = faults.get(key, 0) + 1
        elif row["name"].startswith("cache."):
            outcome = row["name"].split(".", 1)[1]
            per_site = cache.setdefault(row["site"], {})
            per_site[outcome] = per_site.get(outcome, 0) + 1
            if outcome == "hit" and row["args"].get("interned"):
                # Hits on MQO-interned (epoch-priced) commodities.
                per_site["interned"] = per_site.get("interned", 0) + 1

    slowest.sort(key=lambda r: r["sim_end"] - r["sim_start"], reverse=True)
    return {
        "sim_span": sim_span,
        "phases": phases,
        "slowest": slowest[:top],
        "messages": messages,
        "faults": faults,
        "cache": cache,
        "pending_max": pending_max,
    }


# ----------------------------------------------------------------------
def _critical_path(rows: Sequence[dict]):
    """The trace's critical path, or ``None`` for non-trading traces.

    Reports must render whatever trace they are handed, so a walk
    that cannot make sense of the rows (truncated trace, foreign
    schema) degrades to "no critical-path section" rather than failing
    the whole report.
    """
    from repro.obs.critpath import CriticalPath

    try:
        return CriticalPath.from_rows(rows)
    except Exception:
        return None


# ----------------------------------------------------------------------
def _table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    rendered = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  " + " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  " + "-+-".join("-" * w for w in widths),
    ]
    for row in rendered:
        lines.append(
            "  " + " | ".join(cell.ljust(w) for cell, w in zip(row, widths))
        )
    return "\n".join(lines)


def render_report(rows: Sequence[dict], top: int = 8) -> str:
    """The printable summary of one trace."""
    summary = summarize(rows, top=top)
    out: list[str] = [
        f"trace: {len(rows)} records, "
        f"{summary['sim_span']:.6f}s simulated span"
    ]

    phases = summary["phases"]
    if phases:
        out.append("")
        out.append("phases (by total simulated time):")
        ordered = sorted(
            phases.items(), key=lambda kv: kv[1]["total"], reverse=True
        )
        out.append(
            _table(
                ["phase", "count", "sim total", "sim max", "wall ms"],
                [
                    [
                        name,
                        int(agg["count"]),
                        f"{agg['total']:.6f}",
                        f"{agg['max']:.6f}",
                        f"{agg['wall_ms']:.3f}" if agg["wall_ms"] else "-",
                    ]
                    for name, agg in ordered
                ],
            )
        )
        out.append("")
        out.append(f"top {len(summary['slowest'])} slowest spans (simulated):")
        out.append(
            _table(
                ["phase", "site", "sim seconds", "at"],
                [
                    [
                        row["name"],
                        row["site"] or "-",
                        f"{row['sim_end'] - row['sim_start']:.6f}",
                        f"{row['sim_start']:.6f}",
                    ]
                    for row in summary["slowest"]
                ],
            )
        )

    critical = _critical_path(rows)
    if critical is not None:
        decomposition = critical.to_dict()
        total = decomposition["total"] or 1.0
        out.append("")
        out.append(
            f"critical path: {decomposition['total']:.6f}s across "
            f"{len(decomposition['trades'])} trade(s)"
        )
        out.append(
            _table(
                ["phase", "seconds", "share"],
                [
                    [phase, f"{seconds:.6f}", f"{seconds / total:.1%}"]
                    for phase, seconds in decomposition["phases"].items()
                    if seconds > 0.0
                ],
            )
        )
        bottlenecks = [
            (trade["trade"], rnd["round"], rnd["bottleneck"])
            for trade in decomposition["trades"]
            for rnd in trade["rounds"]
            if rnd.get("bottleneck")
        ]
        if bottlenecks:
            out.append("  round bottlenecks:")
            for trade_no, round_no, b in bottlenecks:
                where = b.get("seller") or b.get("kind", "?")
                out.append(
                    f"    trade {trade_no} round {round_no}: "
                    f"{b.get('kind', '?')} via {where}"
                )
        out.append(
            "  (full decomposition: repro critical-path <trace>)"
        )

    messages = summary["messages"]
    if messages:
        out.append("")
        out.append("messages by type:")
        rows_ = [
            [kind, agg["count"], agg["bytes"]]
            for kind, agg in sorted(messages.items())
        ]
        rows_.append(
            [
                "total",
                sum(a["count"] for a in messages.values()),
                sum(a["bytes"] for a in messages.values()),
            ]
        )
        out.append(_table(["kind", "count", "bytes"], rows_))

    if summary["faults"]:
        out.append("")
        out.append("fault injections:")
        out.append(
            _table(
                ["fault", "count"],
                sorted(summary["faults"].items()),
            )
        )

    cache = summary["cache"]
    if cache:
        out.append("")
        out.append("offer cache by site:")
        rows_ = []
        for site, outcomes in sorted(cache.items()):
            hits = outcomes.get("hit", 0)
            misses = outcomes.get("miss", 0)
            lookups = hits + misses
            rows_.append(
                [
                    site or "-",
                    hits,
                    misses,
                    outcomes.get("interned", 0),
                    outcomes.get("evict", 0),
                    f"{hits / lookups:.1%}" if lookups else "-",
                ]
            )
        out.append(_table(
            ["site", "hits", "misses", "interned", "evicts", "hit rate"],
            rows_,
        ))

    if summary["pending_max"] is not None:
        out.append("")
        out.append(
            f"simulator queue: max {summary['pending_max']:.0f} pending "
            "events (cancelled timers excluded)"
        )
    return "\n".join(out)


# ----------------------------------------------------------------------
def load_trace_dir(path: str) -> list[tuple[str, list[dict]]]:
    """Every trace in directory *path*, as ``(filename, rows)`` pairs.

    Files are matched by :data:`TRACE_SUFFIXES` and loaded in name
    order; unreadable files are skipped (a directory of traces often
    holds a partial write from an interrupted run).
    """
    runs: list[tuple[str, list[dict]]] = []
    for name in sorted(os.listdir(path)):
        if not name.endswith(TRACE_SUFFIXES):
            continue
        full = os.path.join(path, name)
        if not os.path.isfile(full):
            continue
        try:
            rows = load_trace(full)
        except (OSError, ValueError, json.JSONDecodeError):
            continue
        if rows:
            runs.append((name, rows))
    return runs


def render_multi_report(
    runs: Sequence[tuple[str, list[dict]]], top: int = 8
) -> str:
    """A cross-run aggregate over several traces of the same workload.

    One row per run (records, simulated span, messages, faults), then
    per-phase statistics across runs: in how many runs the phase
    appears, and the mean/max of each run's total simulated time in it.
    """
    if not runs:
        return "(no traces loaded)"
    summaries = [(name, summarize(rows, top=top)) for name, rows in runs]

    out = [f"cross-run report: {len(runs)} trace(s)"]
    out.append("")
    out.append("runs:")
    out.append(
        _table(
            ["trace", "records", "sim span", "messages", "faults"],
            [
                [
                    name,
                    len(rows),
                    f"{summary['sim_span']:.6f}",
                    sum(a["count"] for a in summary["messages"].values()),
                    sum(summary["faults"].values()),
                ]
                for (name, rows), (_n, summary) in zip(runs, summaries)
            ],
        )
    )

    # Per-phase totals across runs: mean and max of each run's total.
    per_phase: dict[str, list[dict]] = {}
    for _name, summary in summaries:
        for phase, agg in summary["phases"].items():
            per_phase.setdefault(phase, []).append(agg)
    if per_phase:
        out.append("")
        out.append("phases across runs (per-run simulated totals):")
        ordered = sorted(
            per_phase.items(),
            key=lambda kv: sum(a["total"] for a in kv[1]),
            reverse=True,
        )
        out.append(
            _table(
                ["phase", "runs", "count", "mean total", "max total",
                 "max span"],
                [
                    [
                        phase,
                        len(aggs),
                        sum(int(a["count"]) for a in aggs),
                        f"{sum(a['total'] for a in aggs) / len(aggs):.6f}",
                        f"{max(a['total'] for a in aggs):.6f}",
                        f"{max(a['max'] for a in aggs):.6f}",
                    ]
                    for phase, aggs in ordered
                ],
            )
        )
    return "\n".join(out)
