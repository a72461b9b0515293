"""Exporters: Prometheus text exposition, JSON snapshots, trace waterfalls.

Three consumers, three formats:

* :func:`to_prometheus` -- the text exposition format a Prometheus scrape
  expects.  Counters and gauges export their value per label set;
  histograms export as Prometheus *summaries* (the
  :data:`SUMMARY_QUANTILES` plus ``_sum``/``_count``): a ring + log-bucket
  store's bucket set grows with the data, so it has no fixed bucket list
  to declare.
* :func:`to_json` / :func:`registry_to_dict` -- a structured snapshot for
  dashboards and the perf-trajectory recorder.
* :func:`render_waterfall` / :func:`critical_path` -- per-trace reports:
  where did *this* request's simulated time go, and which chain of spans
  bounded its latency (``repro-serve --dump-trace``).
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Tuple

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import Span

__all__ = [
    "SUMMARY_QUANTILES",
    "to_prometheus",
    "to_json",
    "registry_to_dict",
    "render_waterfall",
    "critical_path",
    "render_critical_path",
]


#: Percentile ranks (0-100) every histogram exports as summary quantiles.
SUMMARY_QUANTILES = (50.0, 95.0, 99.0)


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _labels_text(labels: Dict[str, str], extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    items = [(k, str(v)) for k, v in sorted(labels.items())] + list(extra)
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in items)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def to_prometheus(registry: MetricsRegistry, prefix: str = "repro_") -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: List[str] = []
    for name, kind, metrics in registry.families():
        full = prefix + name
        if kind == "counter":
            lines.append(f"# TYPE {full} counter")
            for m in metrics:
                lines.append(f"{full}{_labels_text(m.labels)} {_format_value(m.value)}")
        elif kind == "gauge":
            lines.append(f"# TYPE {full} gauge")
            for m in metrics:
                lines.append(f"{full}{_labels_text(m.labels)} {_format_value(m.value)}")
        else:  # histogram -> summary exposition
            lines.append(f"# TYPE {full} summary")
            for m in metrics:
                for q in SUMMARY_QUANTILES:
                    value = m.percentile(q)
                    if value is None:
                        continue
                    quantile = (("quantile", repr(q / 100.0)),)
                    lines.append(f"{full}{_labels_text(m.labels, quantile)} {_format_value(value)}")
                lines.append(f"{full}_sum{_labels_text(m.labels)} {_format_value(m.sum)}")
                lines.append(f"{full}_count{_labels_text(m.labels)} {_format_value(m.count)}")
    return "\n".join(lines) + "\n"


def registry_to_dict(registry: MetricsRegistry) -> Dict[str, object]:
    """Structured snapshot: one entry per family, one row per label set."""
    out: Dict[str, object] = {}
    for name, kind, metrics in registry.families():
        rows = []
        for m in metrics:
            row: Dict[str, object] = {"labels": dict(m.labels)}
            if kind == "histogram":
                row.update(
                    count=m.count,
                    sum=m.sum,
                    mean=m.mean,
                    min=m.min,
                    max=m.max,
                    quantiles={repr(q / 100.0): m.percentile(q) for q in SUMMARY_QUANTILES},
                )
            else:
                row["value"] = m.value
            rows.append(row)
        out[name] = {"type": kind, "series": rows}
    return out


def to_json(registry: MetricsRegistry, indent: int = 2) -> str:
    """JSON form of :func:`registry_to_dict`."""
    return json.dumps(registry_to_dict(registry), indent=indent, sort_keys=True)


# ----------------------------------------------------------------------
# trace reports
# ----------------------------------------------------------------------
def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}us"


def _attr_text(span: Span, keys: Tuple[str, ...] = ("solver", "shard", "lane", "cache_hit", "reason")) -> str:
    picked = [f"{k}={span.attributes[k]}" for k in keys if k in span.attributes]
    return (" " + " ".join(picked)) if picked else ""


def render_waterfall(root: Span, width: int = 48) -> str:
    """ASCII waterfall of one trace: bars on the simulated-clock timeline."""
    t0 = root.start
    t1 = root.end if root.end is not None else max(
        (s.end for s in root.walk() if s.end is not None), default=t0
    )
    total = max(t1 - t0, 0.0)
    lines = [
        f"trace {root.trace_id} {root.name} status={root.status} "
        f"total={_fmt_seconds(total)}{_attr_text(root)}"
    ]

    def emit(span: Span, depth: int) -> None:
        end = span.end if span.end is not None else t1
        if total > 0.0:
            lo = int(round((span.start - t0) / total * width))
            hi = int(round((end - t0) / total * width))
        else:
            lo, hi = 0, width
        lo = min(max(lo, 0), width)
        hi = min(max(hi, lo), width)
        bar = "." * lo + ("#" * max(hi - lo, 1))[: width - lo]
        bar = bar + "." * (width - len(bar))
        status = "" if span.status == "ok" else f" !{span.status}"
        lines.append(
            f"  {'  ' * depth}{span.name:<24.24} |{bar}| "
            f"{_fmt_seconds(end - span.start)}{status}{_attr_text(span)}"
        )
        for child in span.children:
            emit(child, depth + 1)

    for child in root.children:
        emit(child, 0)
    return "\n".join(lines)


def critical_path(root: Span) -> List[Span]:
    """The chain of spans bounding this trace's latency.

    Walk from the root, at each level descending into the child whose end
    is latest (ties: the longer one) -- the span that kept the request
    alive.  Returns the chain root-first.
    """
    path = [root]
    node = root
    while node.children:
        node = max(
            node.children,
            key=lambda s: ((s.end if s.end is not None else s.start), s.duration),
        )
        path.append(node)
    return path


def render_critical_path(root: Span) -> str:
    """One line per critical-path span with its share of the trace."""
    total = root.duration
    lines = [f"critical path ({_fmt_seconds(total)} total):"]
    for span in critical_path(root):
        share = (span.duration / total * 100.0) if total > 0 else 0.0
        lines.append(
            f"  {span.name:<24.24} {_fmt_seconds(span.duration):>10} "
            f"{share:5.1f}%{_attr_text(span)}"
        )
    return "\n".join(lines)
