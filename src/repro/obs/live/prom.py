"""Prometheus text-format exposition and a strict parser for it.

:func:`render_prometheus` turns a :class:`~repro.obs.metrics.
MetricsRegistry` plus ad-hoc metric families into the Prometheus
text exposition format (version 0.0.4): ``# HELP`` / ``# TYPE`` comment
lines, samples with *sorted* label sets, counters suffixed ``_total``,
and histograms expanded to cumulative ``_bucket{le=...}`` series plus
``_sum``/``_count``.  Output is fully deterministic — families and label
rows render in sorted order.

:func:`parse_prometheus_text` is the matching strict parser the tests
and CI use to validate the broker's ``GET /metrics/prom``: it rejects
malformed lines, samples with no TYPE, duplicate series, and histograms
whose buckets are not cumulative or disagree with ``_count``.  Round-
tripping ``render → parse`` recovers every sample value.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Mapping, Sequence

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "PromParseError",
    "PromSnapshot",
    "parse_prometheus_text",
    "render_prometheus",
]

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_OK = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

_TYPES = frozenset({"counter", "gauge", "histogram", "summary", "untyped"})


class PromParseError(ValueError):
    """Raised when text does not conform to the exposition format."""


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _sanitize(name: str) -> str:
    name = _INVALID_CHARS.sub("_", name)
    if not name or not _NAME_OK.match(name):
        name = "_" + name
    return name


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    if float(value) == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: Mapping[str, object]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{k}="{_escape_label(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


class _Family:
    """One metric family accumulating sample lines before rendering."""

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        self.name = _sanitize(name)
        self.kind = kind
        self.help = help_text
        self.lines: list[str] = []

    def sample(
        self, suffix: str, labels: Mapping[str, object], value: float
    ) -> None:
        self.lines.append(
            f"{self.name}{suffix}{_format_labels(labels)} {_format_value(value)}"
        )

    def render(self) -> str:
        head = [
            f"# HELP {self.name} {_escape_help(self.help)}",
            f"# TYPE {self.name} {self.kind}",
        ]
        return "\n".join(head + self.lines)


class PromBuilder:
    """Accumulates metric families; ``render()`` emits sorted text."""

    def __init__(self, prefix: str = "repro") -> None:
        self.prefix = prefix
        self._families: dict[str, _Family] = {}

    def _family(self, name: str, kind: str, help_text: str) -> _Family:
        full = _sanitize(f"{self.prefix}_{name}" if self.prefix else name)
        family = self._families.get(full)
        if family is None:
            family = self._families[full] = _Family(full, kind, help_text)
        return family

    def counter(
        self, name: str, help_text: str, value: float, **labels
    ) -> None:
        if not name.endswith("_total"):
            name += "_total"
        self._family(name, "counter", help_text).sample("", labels, value)

    def gauge(self, name: str, help_text: str, value: float, **labels) -> None:
        self._family(name, "gauge", help_text).sample("", labels, value)

    def histogram(
        self,
        name: str,
        help_text: str,
        boundaries: Sequence[float],
        counts: Sequence[int],
        total_sum: float,
        **labels,
    ) -> None:
        """*counts* are per-bucket (len(boundaries) + 1, last = +inf)."""
        family = self._family(name, "histogram", help_text)
        cumulative = 0
        for boundary, count in zip(boundaries, counts):
            cumulative += count
            family.sample(
                "_bucket", {**labels, "le": _format_value(boundary)}, cumulative
            )
        cumulative += counts[len(boundaries)] if len(counts) > len(boundaries) else 0
        family.sample("_bucket", {**labels, "le": "+Inf"}, cumulative)
        family.sample("_sum", labels, total_sum)
        family.sample("_count", labels, cumulative)

    def render(self) -> str:
        chunks = [
            self._families[name].render() for name in sorted(self._families)
        ]
        return "\n".join(chunks) + "\n" if chunks else ""


def render_prometheus(
    registry: MetricsRegistry | None = None,
    *,
    prefix: str = "repro",
    build: "Iterable[callable] | None" = None,
) -> str:
    """Render *registry* (and extra ``build`` callbacks) to text format.

    Each callback in *build* receives the :class:`PromBuilder` and adds
    its own families — how the broker contributes rollup, SLO, site, and
    q-error series without this module knowing about them.
    """
    builder = PromBuilder(prefix=prefix)
    if registry is not None:
        _registry_families(builder, registry)
    for contribute in build or ():
        contribute(builder)
    return builder.render()


def _registry_families(builder: PromBuilder, registry: MetricsRegistry) -> None:
    for name in sorted(registry._counters):
        for labels, value in sorted(registry._counters[name].items()):
            builder.counter(
                name, f"registry counter {name}", value, **dict(labels)
            )
    for name in sorted(registry._histograms):
        for labels, histogram in sorted(registry._histograms[name].items()):
            builder.histogram(
                name,
                f"registry histogram {name}",
                histogram.boundaries,
                histogram.counts,
                histogram.sum,
                **dict(labels),
            )


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
class PromSnapshot:
    """Parsed exposition: families plus a flat sample map."""

    def __init__(self) -> None:
        #: family name -> {"type": str, "help": str}
        self.families: dict[str, dict] = {}
        #: (sample name, sorted label tuple) -> float
        self.samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}

    def value(self, name: str, **labels) -> float | None:
        return self.samples.get(
            (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        )

    def series(self, name: str) -> dict[tuple[tuple[str, str], ...], float]:
        return {
            labels: value
            for (sample, labels), value in self.samples.items()
            if sample == name
        }


def _parse_value(raw: str, line_no: int) -> float:
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    if raw == "NaN":
        return math.nan
    try:
        return float(raw)
    except ValueError:
        raise PromParseError(f"line {line_no}: bad sample value {raw!r}")


def _unescape_label(value: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, "\\" + nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _parse_labels(raw: str | None, line_no: int) -> tuple[tuple[str, str], ...]:
    if not raw:
        return ()
    consumed = 0
    pairs: list[tuple[str, str]] = []
    for match in _LABEL_PAIR.finditer(raw):
        gap = raw[consumed : match.start()].strip().strip(",").strip()
        if gap:
            raise PromParseError(f"line {line_no}: malformed labels {raw!r}")
        pairs.append((match.group(1), _unescape_label(match.group(2))))
        consumed = match.end()
    tail = raw[consumed:].strip().strip(",").strip()
    if tail:
        raise PromParseError(f"line {line_no}: malformed labels {raw!r}")
    if not pairs:
        raise PromParseError(f"line {line_no}: empty label braces")
    return tuple(sorted(pairs))


def _base_family(name: str, families: Mapping[str, dict]) -> str | None:
    """The family a sample belongs to, honouring histogram suffixes."""
    if name in families:
        return name
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            base = name[: -len(suffix)]
            if base in families and families[base]["type"] in (
                "histogram",
                "summary",
            ):
                return base
    return None


def parse_prometheus_text(text: str) -> PromSnapshot:
    """Parse exposition text strictly; raises :class:`PromParseError`."""
    snapshot = PromSnapshot()
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.rstrip()
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] in ("HELP", "TYPE"):
                if len(parts) < 3:
                    raise PromParseError(
                        f"line {line_no}: {parts[1]} without a metric name"
                    )
                name = parts[2]
                if not _NAME_OK.match(name):
                    raise PromParseError(
                        f"line {line_no}: invalid metric name {name!r}"
                    )
                family = snapshot.families.setdefault(
                    name, {"type": "untyped", "help": ""}
                )
                if parts[1] == "HELP":
                    family["help"] = parts[3] if len(parts) > 3 else ""
                else:
                    kind = parts[3].strip() if len(parts) > 3 else ""
                    if kind not in _TYPES:
                        raise PromParseError(
                            f"line {line_no}: unknown TYPE {kind!r}"
                        )
                    family["type"] = kind
            continue  # other comments are ignored
        match = _SAMPLE_LINE.match(line)
        if not match:
            raise PromParseError(f"line {line_no}: unparseable line {line!r}")
        name = match.group("name")
        labels = _parse_labels(match.group("labels"), line_no)
        value = _parse_value(match.group("value"), line_no)
        if _base_family(name, snapshot.families) is None:
            raise PromParseError(
                f"line {line_no}: sample {name!r} has no TYPE/HELP family"
            )
        key = (name, labels)
        if key in snapshot.samples:
            raise PromParseError(
                f"line {line_no}: duplicate series {name}{dict(labels)!r}"
            )
        snapshot.samples[key] = value
    _check_histograms(snapshot)
    return snapshot


def _check_histograms(snapshot: PromSnapshot) -> None:
    for family, meta in snapshot.families.items():
        if meta["type"] != "histogram":
            continue
        buckets: dict[tuple[tuple[str, str], ...], list[tuple[float, float]]]
        buckets = {}
        for (name, labels), value in snapshot.samples.items():
            if name != f"{family}_bucket":
                continue
            le = dict(labels).get("le")
            if le is None:
                raise PromParseError(
                    f"{family}_bucket sample missing the le label"
                )
            rest = tuple(kv for kv in labels if kv[0] != "le")
            buckets.setdefault(rest, []).append((_parse_value(le, 0), value))
        for rest, series in buckets.items():
            series.sort(key=lambda item: item[0])
            counts = [count for _, count in series]
            if counts != sorted(counts):
                raise PromParseError(
                    f"{family} buckets not cumulative for labels {dict(rest)!r}"
                )
            if series[-1][0] != math.inf:
                raise PromParseError(f"{family} is missing its +Inf bucket")
            total = snapshot.samples.get((f"{family}_count", rest))
            if total is not None and total != series[-1][1]:
                raise PromParseError(
                    f"{family}: +Inf bucket ({series[-1][1]}) != _count ({total})"
                )
