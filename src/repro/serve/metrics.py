"""Dependency-free metrics registry for the assignment daemon.

Counters and latency histograms, rendered in the Prometheus text exposition
format at ``GET /metrics``.  Histograms keep both the cumulative-bucket view
Prometheus scrapers expect and a bounded reservoir of raw observations from
which the daemon reports p50/p95/p99 directly (handy for the load generator
and the throughput benchmark, which read quantiles without a scraper).

Everything here is synchronous and allocation-light: metric updates sit on
the per-request hot path of the daemon.
"""

from __future__ import annotations

import bisect
import math
import threading
from collections import deque
from collections.abc import Iterable, Sequence

#: Default latency buckets in seconds (5 ms .. 10 s, roughly log-spaced).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Solver phase buckets in seconds: a sub-millisecond greedy LSAP up to a
#: seconds-long Hungarian.
PHASE_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

#: Raw observations retained per histogram for quantile estimation.
_RESERVOIR_SIZE = 8192

_QUANTILES: tuple[tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p95", 0.95),
    ("p99", 0.99),
)


def _validate_name(name: str) -> str:
    if not name or not all(c.isalnum() or c == "_" for c in name):
        raise ValueError(f"metric names must be [a-zA-Z0-9_]+, got {name!r}")
    return name


class Counter:
    """A monotonically increasing counter."""

    def __init__(self, name: str, help_text: str = ""):
        self.name = _validate_name(name)
        self.help_text = help_text
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got increment {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def render(self) -> str:
        lines = []
        if self.help_text:
            lines.append(f"# HELP {self.name} {self.help_text}")
        lines.append(f"# TYPE {self.name} counter")
        lines.append(f"{self.name} {_format_value(self._value)}")
        return "\n".join(lines)


class Gauge:
    """A value that can go up and down (e.g. the active degradation tier)."""

    def __init__(self, name: str, help_text: str = ""):
        self.name = _validate_name(name)
        self.help_text = help_text
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def render(self) -> str:
        lines = []
        if self.help_text:
            lines.append(f"# HELP {self.name} {self.help_text}")
        lines.append(f"# TYPE {self.name} gauge")
        lines.append(f"{self.name} {_format_value(self._value)}")
        return "\n".join(lines)


class Histogram:
    """A cumulative-bucket histogram with a quantile reservoir.

    Observations are in seconds for latency metrics, but the class is
    unit-agnostic (solve batch sizes use it too, with integer buckets).
    """

    def __init__(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        self.name = _validate_name(name)
        self.help_text = help_text
        edges = tuple(sorted(float(b) for b in buckets))
        if not edges:
            raise ValueError("a histogram needs at least one bucket")
        if any(not math.isfinite(b) for b in edges):
            raise ValueError("bucket edges must be finite (+Inf is implicit)")
        self.buckets = edges
        self._bucket_counts = [0] * len(edges)
        self._count = 0
        self._sum = 0.0
        self._reservoir: deque[float] = deque(maxlen=_RESERVOIR_SIZE)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            self._reservoir.append(value)
            # First bucket whose edge >= value, i.e. Prometheus `le`
            # semantics; values beyond the last edge land only in +Inf.
            index = bisect.bisect_left(self.buckets, value)
            if index < len(self.buckets):
                self._bucket_counts[index] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Reservoir quantile (0 when nothing has been observed)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            data = sorted(self._reservoir)
        if not data:
            return 0.0
        index = min(len(data) - 1, max(0, math.ceil(q * len(data)) - 1))
        return data[index]

    def summary(self) -> dict[str, float]:
        """count / sum / mean plus the standard latency quantiles."""
        out = {
            "count": float(self._count),
            "sum": self._sum,
            "mean": self._sum / self._count if self._count else 0.0,
        }
        for label, q in _QUANTILES:
            out[label] = self.quantile(q)
        return out

    def render(self) -> str:
        lines = []
        if self.help_text:
            lines.append(f"# HELP {self.name} {self.help_text}")
        lines.append(f"# TYPE {self.name} histogram")
        lines.extend(self.sample_lines())
        return "\n".join(lines)

    def sample_lines(self, labels: str = "") -> list[str]:
        """The bucket/sum/count series, each carrying ``labels`` (already
        rendered, e.g. ``tier="hta-gre"``) ahead of ``le``."""
        bucket_prefix = f"{labels}," if labels else ""
        suffix = f"{{{labels}}}" if labels else ""
        lines = []
        cumulative = 0
        for edge, count in zip(self.buckets, self._bucket_counts):
            cumulative += count
            lines.append(
                f'{self.name}_bucket{{{bucket_prefix}le="{_format_value(edge)}"}}'
                f" {cumulative}"
            )
        lines.append(f'{self.name}_bucket{{{bucket_prefix}le="+Inf"}} {self._count}')
        lines.append(f"{self.name}_sum{suffix} {_format_value(self._sum)}")
        lines.append(f"{self.name}_count{suffix} {self._count}")
        return lines


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash, double-quote and newline are the three characters the format
    reserves inside a quoted label value.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


class _LabeledFamily:
    """One time series per distinct label-value tuple, all rendered under a
    single ``# TYPE`` header.  Children are created lazily on first
    :meth:`labels` call."""

    kind = ""

    def __init__(
        self, name: str, help_text: str, label_names: Sequence[str]
    ):
        self.name = _validate_name(name)
        self.help_text = help_text
        if not label_names:
            raise ValueError(f"a labeled {self.kind} needs at least one label")
        self.label_names = tuple(_validate_name(n) for n in label_names)
        self._children: dict[tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def _new_child(self):
        raise NotImplementedError

    def _child_lines(self, labels: str, child) -> list[str]:
        raise NotImplementedError

    def labels(self, **label_values: str):
        """The child metric for this label-value combination."""
        if set(label_values) != set(self.label_names):
            raise ValueError(
                f"{self.name} takes labels {self.label_names}, "
                f"got {tuple(sorted(label_values))}"
            )
        key = tuple(str(label_values[n]) for n in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._new_child()
                self._children[key] = child
            return child

    def render(self) -> str:
        lines = []
        if self.help_text:
            lines.append(f"# HELP {self.name} {self.help_text}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        for key in sorted(self._children):
            labels = ",".join(
                f'{name}="{_escape_label_value(value)}"'
                for name, value in zip(self.label_names, key)
            )
            lines.extend(self._child_lines(labels, self._children[key]))
        return "\n".join(lines)


class LabeledCounter(_LabeledFamily):
    """A counter family, e.g.::

        quality_adjudications_total{outcome="resolved"} 12
        quality_adjudications_total{outcome="tie"} 1
    """

    kind = "counter"

    def _new_child(self) -> Counter:
        return Counter(self.name)

    def _child_lines(self, labels: str, child: Counter) -> list[str]:
        return [f"{self.name}{{{labels}}} {_format_value(child.value)}"]

    def value(self, **label_values: str) -> float:
        """Current value of one child (0 if never incremented)."""
        key = tuple(str(label_values[n]) for n in self.label_names)
        child = self._children.get(key)
        return 0.0 if child is None else child.value

    def values(self) -> dict[tuple[str, ...], float]:
        """All children's values keyed by their label-value tuples."""
        return {key: c.value for key, c in self._children.items()}


class LabeledHistogram(_LabeledFamily):
    """A histogram family sharing one bucket layout, e.g. solver phase
    seconds by tier and phase."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help_text, label_names)
        self.buckets = tuple(buckets)

    def _new_child(self) -> Histogram:
        return Histogram(self.name, buckets=self.buckets)

    def _child_lines(self, labels: str, child: Histogram) -> list[str]:
        return child.sample_lines(labels)

    def summaries(self) -> dict[tuple[str, ...], dict[str, float]]:
        """Every child's :meth:`Histogram.summary` keyed by label values."""
        return {key: c.summary() for key, c in self._children.items()}


class SolverPhaseMetrics:
    """``serve_solver_phase_seconds{tier,phase}``: every timing a solver
    reports in :attr:`~repro.core.solvers.base.SolveResult.timings`
    (encode / matching / profits / lsap / decode for HTA-APP and HTA-GRE,
    plus ``total``), per degradation tier."""

    def __init__(self, registry: "MetricsRegistry"):
        self._family = registry.labeled_histogram(
            "serve_solver_phase_seconds",
            "Wall seconds per solver phase, by tier",
            label_names=("tier", "phase"),
            buckets=PHASE_BUCKETS,
        )

    def observe(self, tier: str, timings: dict[str, float]) -> None:
        for phase, seconds in timings.items():
            self._family.labels(tier=tier, phase=phase).observe(seconds)


def _format_value(value: float) -> str:
    if not math.isfinite(value):
        # Prometheus exposition spelling for non-finite samples (an observed
        # +inf makes a histogram's _sum legitimately infinite).
        if math.isnan(value):
            return "NaN"
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class MetricsRegistry:
    """Named counters and histograms with one-call Prometheus rendering."""

    def __init__(self):
        self._metrics: dict[
            str, Counter | Gauge | Histogram | _LabeledFamily
        ] = {}
        self._lock = threading.Lock()

    def counter(self, name: str, help_text: str = "") -> Counter:
        """Get or create the counter ``name``."""
        return self._get_or_create(Counter, name, help_text)

    def labeled_counter(
        self, name: str, help_text: str = "", label_names: Sequence[str] = ()
    ) -> LabeledCounter:
        """Get or create the counter family ``name`` over ``label_names``."""
        return self._get_or_create_family(
            LabeledCounter, name, help_text, label_names
        )

    def labeled_histogram(
        self,
        name: str,
        help_text: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> LabeledHistogram:
        """Get or create the histogram family ``name`` over ``label_names``."""
        return self._get_or_create_family(
            LabeledHistogram, name, help_text, label_names, buckets=buckets
        )

    def _get_or_create_family(
        self, cls, name: str, help_text: str, label_names: Sequence[str], **kwargs
    ):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(f"metric {name!r} is not a {cls.__name__}")
                if label_names and tuple(label_names) != existing.label_names:
                    raise ValueError(
                        f"metric {name!r} is labeled by {existing.label_names}, "
                        f"not {tuple(label_names)}"
                    )
                return existing
            metric = cls(name, help_text, label_names, **kwargs)
            self._metrics[name] = metric
            return metric

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get_or_create(Gauge, name, help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create the histogram ``name``."""
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, Histogram):
                    raise ValueError(f"metric {name!r} is not a histogram")
                return existing
            metric = Histogram(name, help_text, buckets)
            self._metrics[name] = metric
            return metric

    def _get_or_create(self, cls, name: str, help_text: str):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(f"metric {name!r} is not a {cls.__name__}")
                return existing
            metric = cls(name, help_text)
            self._metrics[name] = metric
            return metric

    def get(self, name: str) -> "Counter | Gauge | Histogram | _LabeledFamily":
        return self._metrics[name]

    def names(self) -> Iterable[str]:
        return sorted(self._metrics)

    def render(self) -> str:
        """The full Prometheus text exposition (trailing newline included)."""
        blocks = [self._metrics[name].render() for name in self.names()]
        return "\n".join(blocks) + ("\n" if blocks else "")

    def snapshot(self) -> dict[str, object]:
        """A JSON-friendly dump: counter values and histogram summaries."""
        out: dict[str, object] = {}
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, (Counter, Gauge)):
                out[name] = metric.value
            elif isinstance(metric, LabeledCounter):
                out[name] = {
                    ",".join(key): value
                    for key, value in metric.values().items()
                }
            elif isinstance(metric, LabeledHistogram):
                out[name] = {
                    ",".join(key): summary
                    for key, summary in metric.summaries().items()
                }
            else:
                out[name] = metric.summary()
        return out
