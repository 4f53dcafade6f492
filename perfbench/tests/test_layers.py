"""Blocking-path accounting of the traced run."""

import pytest

from layers import _covered, path_accounting


def _span(id, name, start, end, parent=None, **attrs):
    return {"id": id, "name": name, "start": start, "end": end, "parent": parent, **attrs}


def _assign_request(batch_workers=("w1",)):
    """An assign request whose layer spans cover it exactly."""
    return [
        _span(0, "app.request", 0.000, 0.140, path="/complete", assign=True),
        _span(1, "protocol.decode", 0.000, 0.002, parent=0),
        _span(2, "service.observe", 0.002, 0.004, parent=0),
        _span(3, "scheduler.wait", 0.004, 0.010, parent=0, worker="w1"),
        _span(4, "batch", 0.010, 0.130, workers=list(batch_workers)),
        _span(5, "service.prepare", 0.010, 0.015, parent=4),
        _span(6, "protocol.encode", 0.130, 0.140, parent=0),
    ]


def test_covered_merges_overlaps():
    assert _covered([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert _covered([]) == 0.0


def test_consistent_path_accounts_for_the_request():
    residuals, unmatched = path_accounting(_assign_request())
    assert residuals == [pytest.approx(0.0, abs=1e-12)]
    assert unmatched == 0


def test_time_no_layer_covers_is_a_residual():
    spans = _assign_request()
    spans[6]["start"] = 0.135  # 5 ms of the request in no layer span
    (residual,), _ = path_accounting(spans)
    assert residual == pytest.approx(0.005 / 0.140)


def test_overlapping_path_spans_leave_a_residual():
    spans = _assign_request()
    spans[6]["start"] = 0.120  # encode overlapping the batch
    (residual,), _ = path_accounting(spans)
    assert residual == pytest.approx(0.010 / 0.140)  # the overlap, counted twice


def test_a_batch_that_served_someone_else_fails_the_match():
    residuals, unmatched = path_accounting(_assign_request(batch_workers=("w2",)))
    assert residuals == [] and unmatched == 1


def test_a_missing_batch_fails_the_match():
    spans = [s for s in _assign_request() if s["name"] != "batch"]
    residuals, unmatched = path_accounting(spans)
    assert residuals == [] and unmatched == 1


def test_plain_requests_are_not_on_an_assign_path():
    spans = _assign_request()
    spans[0]["assign"] = False
    assert path_accounting(spans) == ([], 0)
