"""The metrics registry: labeled counters, gauges and histograms.

The one metrics system: engine and CLI counters meet in the process-wide
``REGISTRY``; each service daemon owns an instance.  Hot paths never touch
it -- they keep plain integer attributes (``Cache.mru_hits``, the
compile-cache module counters) and a :class:`repro.telemetry.collect.RunCollector` folds the
before/after deltas into labeled series at run boundaries.

Design constraints, in order:

* stdlib only, no daemon thread, no locks on the increment path
  (family creation is locked; series updates are plain dict writes,
  which is safe under every consumer here -- the asyncio daemon is
  single-threaded and pool workers each own their process registry);
* deterministic exports -- :meth:`MetricsRegistry.to_dict` and
  :meth:`MetricsRegistry.prometheus` sort families and series, so two
  processes that performed the same work render identical text;
* JSON-safe snapshots -- :meth:`MetricsRegistry.snapshot` /
  :meth:`MetricsRegistry.merge` let ``run_many`` workers and pool
  processes ship their deltas back to the parent over pickle/JSON.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Sequence, Tuple

#: A series key: label items sorted by label name.
LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds (seconds).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return (value.replace("\\", "\\\\")
                 .replace('"', '\\"')
                 .replace("\n", "\\n"))


def format_metric_value(value: float) -> str:
    """Render a sample value the way Prometheus text format expects."""
    return f"{value:g}"


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def render_labels(key: LabelKey) -> str:
    """``{a="x",b="y"}`` (escaped), or ``""`` for the unlabeled series."""
    if not key:
        return ""
    inner = ",".join(f'{name}="{escape_label_value(value)}"'
                     for name, value in key)
    return "{" + inner + "}"


class _Family:
    """One named metric family holding labeled series."""

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._series: Dict[LabelKey, object] = {}

    def series(self) -> Iterator[Tuple[LabelKey, object]]:
        for key in sorted(self._series):
            yield key, self._series[key]

    def clear(self) -> None:
        self._series.clear()


class Counter(_Family):
    """Monotonically increasing count, optionally labeled."""

    kind = "counter"

    def inc(self, amount: int = 1, **labels: object) -> None:
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels: object) -> int:
        return int(self._series.get(_label_key(labels), 0))


class Gauge(_Family):
    """A value that can go up and down (queue depths, pool sizes)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        self._series[_label_key(labels)] = value

    def add(self, amount: float, **labels: object) -> None:
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels: object) -> float:
        return self._series.get(_label_key(labels), 0)


class _HistogramSeries:
    __slots__ = ("bucket_counts", "count", "sum")

    def __init__(self, n_bounds: int):
        self.bucket_counts = [0] * n_bounds
        self.count = 0
        self.sum = 0.0


class Histogram(_Family):
    """Cumulative-bucket histogram over fixed upper bounds."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 bounds: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help)
        self.bounds: Tuple[float, ...] = tuple(bounds)

    def observe(self, value: float, **labels: object) -> None:
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.bounds))
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                series.bucket_counts[i] += 1
                break
        series.count += 1
        series.sum += value

    def cumulative_buckets(self, series: _HistogramSeries) -> List[int]:
        out, running = [], 0
        for count in series.bucket_counts:
            running += count
            out.append(running)
        return out


class MetricsRegistry:
    """A collection of metric families with deterministic exports."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    # -- family accessors (get-or-create) -----------------------------------------------

    def _family(self, cls, name: str, help: str, **kwargs) -> _Family:
        family = self._families.get(name)
        if family is not None:
            if not isinstance(family, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}")
            return family
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = cls(name, help, **kwargs)
            return family

    def counter(self, name: str, help: str = "") -> Counter:
        return self._family(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._family(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  bounds: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._family(Histogram, name, help, bounds=bounds)

    def families(self) -> Iterator[_Family]:
        for name in sorted(self._families):
            yield self._families[name]

    def reset(self) -> None:
        """Drop every series (families stay registered).  Test aid."""
        for family in self._families.values():
            family.clear()

    # -- deterministic exports ----------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-friendly dump, sorted by family then series labels."""
        out: Dict[str, dict] = {}
        for family in self.families():
            series: Dict[str, object] = {}
            if isinstance(family, Histogram):
                for key, data in family.series():
                    buckets = {
                        format_metric_value(bound): cum
                        for bound, cum in zip(
                            family.bounds,
                            family.cumulative_buckets(data))
                    }
                    buckets["+Inf"] = data.count
                    series[render_labels(key)] = {
                        "count": data.count,
                        "sum": round(data.sum, 6),
                        "buckets": buckets,
                    }
            else:
                for key, value in family.series():
                    series[render_labels(key)] = value
            out[family.name] = {"kind": family.kind, "series": series}
            if family.help:
                out[family.name]["help"] = family.help
        return out

    def prometheus(self) -> str:
        """Prometheus text exposition: per-family HELP/TYPE, escaped labels."""
        lines: List[str] = []
        for family in self.families():
            lines.extend(prometheus_family_header(family.name, family.kind,
                                                  family.help))
            if isinstance(family, Histogram):
                for key, data in family.series():
                    for bound, cum in zip(family.bounds,
                                          family.cumulative_buckets(data)):
                        bucket_key = key + (("le", format_metric_value(bound)),)
                        lines.append(
                            f"{family.name}_bucket"
                            f"{render_labels(bucket_key)} {cum}")
                    inf_key = key + (("le", "+Inf"),)
                    lines.append(f"{family.name}_bucket"
                                 f"{render_labels(inf_key)} {data.count}")
                    lines.append(f"{family.name}_sum{render_labels(key)} "
                                 f"{format_metric_value(data.sum)}")
                    lines.append(f"{family.name}_count{render_labels(key)} "
                                 f"{data.count}")
            else:
                for key, value in family.series():
                    lines.append(f"{family.name}{render_labels(key)} "
                                 f"{format_metric_value(value)}")
        return "\n".join(lines) + "\n" if lines else ""

    # -- cross-process shipping ---------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe copy of every series (for deltas and merging)."""
        snap: Dict[str, dict] = {}
        for family in self.families():
            entry: Dict[str, object] = {"kind": family.kind,
                                        "help": family.help}
            if isinstance(family, Histogram):
                entry["bounds"] = list(family.bounds)
                entry["series"] = [
                    [list(map(list, key)),
                     {"bucket_counts": list(data.bucket_counts),
                      "count": data.count, "sum": data.sum}]
                    for key, data in family.series()]
            else:
                entry["series"] = [[list(map(list, key)), value]
                                   for key, value in family.series()]
            snap[family.name] = entry
        return snap

    def snapshot_delta(self, before: dict) -> dict:
        """Snapshot of what changed since *before* (counter/histogram diffs;
        gauges ship their current value)."""
        current = self.snapshot()
        delta: Dict[str, dict] = {}
        for name, entry in current.items():
            base = before.get(name)
            base_series = {tuple(map(tuple, key)): value
                           for key, value in base["series"]} if base else {}
            out_series = []
            for key_list, value in entry["series"]:
                key = tuple(map(tuple, key_list))
                prior = base_series.get(key)
                if entry["kind"] == "histogram":
                    if prior is None:
                        prior = {"bucket_counts": [0] * len(value["bucket_counts"]),
                                 "count": 0, "sum": 0.0}
                    diff = {
                        "bucket_counts": [a - b for a, b in
                                          zip(value["bucket_counts"],
                                              prior["bucket_counts"])],
                        "count": value["count"] - prior["count"],
                        "sum": value["sum"] - prior["sum"],
                    }
                    if diff["count"]:
                        out_series.append([key_list, diff])
                elif entry["kind"] == "counter":
                    diff_value = value - (prior or 0)
                    if diff_value:
                        out_series.append([key_list, diff_value])
                else:   # gauges are point-in-time: ship the current value
                    out_series.append([key_list, value])
            if out_series:
                delta[name] = dict(entry, series=out_series)
        return delta

    def merge(self, snapshot: dict) -> None:
        """Fold a (delta) snapshot from another process into this registry.

        Counters and histogram series add; gauges take the shipped value.
        Only call across a process boundary -- merging a snapshot taken
        from *this* registry double-counts.
        """
        for name, entry in snapshot.items():
            kind = entry["kind"]
            if kind == "counter":
                family = self.counter(name, entry.get("help", ""))
                for key_list, value in entry["series"]:
                    family.inc(value, **dict(tuple(pair)
                                             for pair in key_list))
            elif kind == "gauge":
                family = self.gauge(name, entry.get("help", ""))
                for key_list, value in entry["series"]:
                    family.set(value, **dict(tuple(pair)
                                             for pair in key_list))
            elif kind == "histogram":
                family = self.histogram(name, entry.get("help", ""),
                                        bounds=entry.get("bounds",
                                                         DEFAULT_BUCKETS))
                for key_list, data in entry["series"]:
                    key = _label_key(dict(tuple(pair) for pair in key_list))
                    series = family._series.get(key)
                    if series is None:
                        series = family._series[key] = _HistogramSeries(
                            len(family.bounds))
                    for i, count in enumerate(data["bucket_counts"]):
                        series.bucket_counts[i] += count
                    series.count += data["count"]
                    series.sum += data["sum"]
            else:
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")


def prometheus_family_header(name: str, kind: str, help: str) -> List[str]:
    """``# HELP`` / ``# TYPE`` lines for one metric family."""
    lines = []
    if help:
        lines.append(f"# HELP {name} {help}")
    lines.append(f"# TYPE {name} {kind}")
    return lines
