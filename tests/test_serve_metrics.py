"""Metrics registry: counters, histograms, Prometheus rendering."""

import pytest

from repro.serve.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    SolverPhaseMetrics,
)


class TestCounter:
    def test_increments(self):
        c = Counter("requests_total")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter("x").inc(-1)

    def test_rejects_bad_names(self):
        with pytest.raises(ValueError, match="metric names"):
            Counter("bad name!")

    def test_render(self):
        c = Counter("hits_total", "Hits served")
        c.inc(3)
        text = c.render()
        assert "# HELP hits_total Hits served" in text
        assert "# TYPE hits_total counter" in text
        assert text.endswith("hits_total 3")


class TestHistogram:
    def test_quantiles_on_known_data(self):
        h = Histogram("lat_seconds")
        for value in range(1, 101):  # 0.01 .. 1.00
            h.observe(value / 100)
        assert h.quantile(0.50) == pytest.approx(0.50)
        assert h.quantile(0.95) == pytest.approx(0.95)
        assert h.quantile(0.99) == pytest.approx(0.99)
        assert h.count == 100
        assert h.sum == pytest.approx(sum(range(1, 101)) / 100)

    def test_empty_quantile_is_zero(self):
        assert Histogram("empty").quantile(0.95) == 0.0

    def test_summary_keys(self):
        h = Histogram("s")
        h.observe(0.02)
        summary = h.summary()
        assert set(summary) == {"count", "sum", "mean", "p50", "p95", "p99"}
        assert summary["count"] == 1.0

    def test_render_cumulative_buckets(self):
        h = Histogram("d", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            h.observe(value)
        text = h.render()
        assert 'd_bucket{le="0.1"} 1' in text
        assert 'd_bucket{le="1"} 2' in text
        assert 'd_bucket{le="+Inf"} 3' in text
        assert "d_count 3" in text

    def test_rejects_empty_buckets(self):
        with pytest.raises(ValueError, match="at least one bucket"):
            Histogram("h", buckets=())


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("a_total") is registry.counter("a_total")
        assert registry.histogram("b_seconds") is registry.histogram("b_seconds")

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="not a"):
            registry.histogram("x")

    def test_render_all(self):
        registry = MetricsRegistry()
        registry.counter("ops_total").inc()
        registry.histogram("lat_seconds").observe(0.2)
        text = registry.render()
        assert "ops_total 1" in text
        assert "lat_seconds_count 1" in text
        assert text.endswith("\n")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("ops_total").inc(2)
        registry.histogram("lat_seconds").observe(0.1)
        snap = registry.snapshot()
        assert snap["ops_total"] == 2.0
        assert snap["lat_seconds"]["count"] == 1.0


class TestHistogramProperties:
    """Property-based checks on the bucket math (hypothesis)."""

    hypothesis = pytest.importorskip("hypothesis")
    given = hypothesis.given
    settings = hypothesis.settings
    st = hypothesis.strategies

    #: Finite, strictly sorted bucket-edge lists.
    edges = st.lists(
        st.floats(
            min_value=-1e6, max_value=1e6,
            allow_nan=False, allow_infinity=False,
        ),
        min_size=1, max_size=8, unique=True,
    ).map(sorted)
    #: Observation values; +inf is legal (it lands only in the implicit
    #: +Inf bucket), NaN is not meaningful for a latency histogram.
    values = st.lists(
        st.floats(
            min_value=-1e9, max_value=1e9,
            allow_nan=False, allow_infinity=False,
        )
        | st.just(float("inf")),
        min_size=0, max_size=60,
    )

    @staticmethod
    def parse_buckets(h: Histogram) -> list[tuple[str, int]]:
        """(le, cumulative_count) pairs in render order, +Inf last."""
        out = []
        for line in h.render().splitlines():
            if "_bucket{" in line:
                le = line.split('le="')[1].split('"')[0]
                out.append((le, int(line.rsplit(" ", 1)[1])))
        return out

    @given(edges=edges, values=values)
    @settings(max_examples=60, deadline=None)
    def test_cumulative_counts_are_monotone_and_end_at_count(
        self, edges, values
    ):
        h = Histogram("p_seconds", buckets=edges)
        for value in values:
            h.observe(value)
        rendered = self.parse_buckets(h)
        counts = [count for _, count in rendered]
        assert counts == sorted(counts)  # cumulative ⇒ monotone
        assert rendered[-1][0] == "+Inf"
        assert rendered[-1][1] == h.count == len(values)

    @given(edges=edges, values=values)
    @settings(max_examples=60, deadline=None)
    def test_each_bucket_counts_exactly_le_values(self, edges, values):
        h = Histogram("p_seconds", buckets=edges)
        for value in values:
            h.observe(value)
        for edge, cumulative in zip(h.buckets, self.parse_buckets(h)):
            assert cumulative[1] == sum(1 for v in values if v <= edge)

    @given(edges=edges, values=values)
    @settings(max_examples=60, deadline=None)
    def test_sum_and_count_are_consistent(self, edges, values):
        h = Histogram("p_seconds", buckets=edges)
        for value in values:
            h.observe(value)
        assert h.count == len(values)
        assert h.sum == sum(values)  # same accumulation order ⇒ exact
        assert f"p_seconds_count {len(values)}" in h.render()

    def test_exact_boundaries_at_edge_values(self):
        h = Histogram("edge_seconds", buckets=(0.0, 0.5, 1.0))
        h.observe(0.0)   # le="0" is inclusive
        h.observe(0.5)   # sits IN the 0.5 bucket, not above it
        h.observe(0.5000001)
        h.observe(float("inf"))  # only the implicit +Inf bucket
        rendered = dict(self.parse_buckets(h))
        assert rendered["0"] == 1
        assert rendered["0.5"] == 2
        assert rendered["1"] == 3
        assert rendered["+Inf"] == 4

    def test_infinite_finite_edges_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Histogram("bad_seconds", buckets=(0.1, float("inf")))


class TestLabeledCounter:
    def test_one_series_per_label_tuple(self):
        registry = MetricsRegistry()
        family = registry.labeled_counter(
            "adjudications_total", "Ballots closed", label_names=["outcome"]
        )
        family.labels(outcome="resolved").inc(3)
        family.labels(outcome="tie").inc()
        family.labels(outcome="resolved").inc()
        assert family.value(outcome="resolved") == 4
        text = registry.render()
        assert 'adjudications_total{outcome="resolved"} 4' in text
        assert 'adjudications_total{outcome="tie"} 1' in text
        assert text.count("# TYPE adjudications_total counter") == 1

    def test_label_values_escaped_in_exposition(self):
        """Backslash, quote and newline are the three characters the
        Prometheus text format reserves inside quoted label values."""
        registry = MetricsRegistry()
        family = registry.labeled_counter(
            "events_total", label_names=["reason"]
        )
        family.labels(reason='back\\slash "quote"\nnewline').inc()
        text = registry.render()
        series = [
            line for line in text.splitlines()
            if line.startswith("events_total{")
        ]
        # The raw newline must not split the series across physical lines,
        # and each reserved character must appear backslash-escaped.
        assert len(series) == 1
        assert '\\n' in series[0] and "\n" not in series[0].replace("\\n", "")
        assert '\\"' in series[0]
        assert "\\\\" in series[0]

    def test_wrong_label_names_rejected(self):
        registry = MetricsRegistry()
        family = registry.labeled_counter("x_total", label_names=["a"])
        with pytest.raises(ValueError, match="takes labels"):
            family.labels(b="1")

    def test_same_name_different_labels_rejected(self):
        registry = MetricsRegistry()
        registry.labeled_counter("x_total", label_names=["a"])
        with pytest.raises(ValueError):
            registry.labeled_counter("x_total", label_names=["b"])


class TestLabeledHistogram:
    def test_one_histogram_per_label_tuple(self):
        registry = MetricsRegistry()
        family = registry.labeled_histogram(
            "phase_seconds", "Phase time", label_names=["tier", "phase"],
            buckets=(0.01, 0.1),
        )
        family.labels(tier="a", phase="lsap").observe(0.005)
        family.labels(tier="a", phase="lsap").observe(0.05)
        family.labels(tier="b", phase="total").observe(1.0)
        text = registry.render()
        assert text.count("# TYPE phase_seconds histogram") == 1
        assert 'phase_seconds_bucket{tier="a",phase="lsap",le="0.01"} 1' in text
        assert 'phase_seconds_bucket{tier="a",phase="lsap",le="+Inf"} 2' in text
        assert 'phase_seconds_count{tier="b",phase="total"} 1' in text
        assert registry.snapshot()["phase_seconds"]["a,lsap"]["count"] == 2

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.labeled_counter("x_total", label_names=["a"])
        with pytest.raises(ValueError, match="not a LabeledHistogram"):
            registry.labeled_histogram("x_total", label_names=["a"])

    def test_solver_phase_metrics(self):
        registry = MetricsRegistry()
        phases = SolverPhaseMetrics(registry)
        phases.observe("hta-gre", {"matching": 0.01, "lsap": 0.001, "total": 0.012})
        summaries = registry.get("serve_solver_phase_seconds").summaries()
        assert set(summaries) == {
            ("hta-gre", "matching"), ("hta-gre", "lsap"), ("hta-gre", "total")
        }
        assert summaries[("hta-gre", "lsap")]["sum"] == 0.001
