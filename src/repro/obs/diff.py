"""Structural trace diffing: pinpoint *where* two runs diverge.

The byte-equivalence suites (run vs run, plain vs null-fault) compare
whole outputs; when they fail, the interesting question is the
*first* record where the deterministic streams part ways — everything
after it is usually an avalanche.  :func:`diff_rows` canonicalizes each
trace row to its deterministic fields, walks the two streams in
lock-step, and reports the first divergent index with surrounding
context and a per-field delta; :func:`diff_json` does the same for
nested structures (ledgers, reports).

Used by ``repro diff-trace A B`` (exit 0 when identical, 1 when
divergent) and wired into ``benchmarks/test_ef_equivalence.py`` so a
failing equivalence assert names the divergence site instead of dumping
two blobs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.obs.export import jsonl_lines
from repro.obs.tracer import TraceRecord

__all__ = ["TraceDiff", "diff_rows", "diff_records", "diff_json"]

#: Row fields that must match between deterministic runs (wall-clock
#: fields and exporter-assigned ids are excluded on purpose).
DETERMINISTIC_FIELDS = (
    "kind", "name", "cat", "site", "sim_start", "sim_end", "args",
)


def _canonical(row: dict) -> str:
    return json.dumps(
        {f: row.get(f) for f in DETERMINISTIC_FIELDS}, sort_keys=True
    )


@dataclass
class TraceDiff:
    """The outcome of one lock-step trace comparison."""

    identical: bool
    len_a: int
    len_b: int
    index: int | None = None          # first divergent record
    a: str | None = None              # canonical a[index] (None = ended)
    b: str | None = None
    fields: list[dict] = field(default_factory=list)
    context: list[tuple[int, str]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "identical": self.identical,
            "len_a": self.len_a,
            "len_b": self.len_b,
            "index": self.index,
            "a": self.a,
            "b": self.b,
            "fields": self.fields,
            "context": [list(pair) for pair in self.context],
        }

    def render(self) -> str:
        if self.identical:
            return f"traces identical ({self.len_a} deterministic records)"
        out = [
            f"traces diverge at record {self.index} "
            f"(a: {self.len_a} records, b: {self.len_b} records)"
        ]
        if self.context:
            out.append("  shared prefix ends with:")
            for i, line in self.context:
                out.append(f"    [{i}] {line}")
        out.append(f"  a[{self.index}]: {self.a or '(end of trace)'}")
        out.append(f"  b[{self.index}]: {self.b or '(end of trace)'}")
        for delta in self.fields:
            out.append(
                f"  field {delta['path']}: {delta['a']!r} != {delta['b']!r}"
            )
        return "\n".join(out)


# ----------------------------------------------------------------------
def diff_rows(
    rows_a: Sequence[dict], rows_b: Sequence[dict], context: int = 3
) -> TraceDiff:
    """First divergence between two loaded traces (see ``load_trace``)."""
    canon_a = [_canonical(row) for row in rows_a]
    canon_b = [_canonical(row) for row in rows_b]
    limit = min(len(canon_a), len(canon_b))
    index = next(
        (i for i in range(limit) if canon_a[i] != canon_b[i]), None
    )
    if index is None:
        if len(canon_a) == len(canon_b):
            return TraceDiff(True, len(canon_a), len(canon_b))
        index = limit  # one trace is a strict prefix of the other
    diff = TraceDiff(
        identical=False,
        len_a=len(canon_a),
        len_b=len(canon_b),
        index=index,
        a=canon_a[index] if index < len(canon_a) else None,
        b=canon_b[index] if index < len(canon_b) else None,
        context=[
            (i, canon_a[i]) for i in range(max(0, index - context), index)
        ],
    )
    if index < limit:
        path = diff_json(
            json.loads(canon_a[index]), json.loads(canon_b[index])
        )
        if path is not None:
            diff.fields.append(
                {"path": path[0], "a": path[1], "b": path[2]}
            )
    return diff


def diff_records(
    records_a: Sequence[TraceRecord],
    records_b: Sequence[TraceRecord],
    context: int = 3,
) -> TraceDiff:
    """Diff two live record lists through the deterministic exporter."""
    rows_a = [json.loads(line) for line in jsonl_lines(records_a)]
    rows_b = [json.loads(line) for line in jsonl_lines(records_b)]
    return diff_rows(rows_a, rows_b, context=context)


# ----------------------------------------------------------------------
def diff_json(
    a: Any, b: Any, path: str = "$"
) -> tuple[str, Any, Any] | None:
    """First divergent path between two nested JSON-ish values.

    Returns ``(path, a_value, b_value)`` or ``None`` when equal.  Dicts
    are compared by sorted key, lists positionally — mirroring the
    deterministic serialization order.
    """
    if type(a) is not type(b) and not (
        isinstance(a, (int, float)) and isinstance(b, (int, float))
    ):
        return path, a, b
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a:
                return f"{path}.{key}", None, b[key]
            if key not in b:
                return f"{path}.{key}", a[key], None
            found = diff_json(a[key], b[key], f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(a, (list, tuple)):
        for i in range(min(len(a), len(b))):
            found = diff_json(a[i], b[i], f"{path}[{i}]")
            if found is not None:
                return found
        if len(a) != len(b):
            i = min(len(a), len(b))
            return (
                f"{path}[{i}]",
                a[i] if i < len(a) else None,
                b[i] if i < len(b) else None,
            )
        return None
    if a != b:
        return path, a, b
    return None
