import pytest

from tracing import Span, Tracer, self_times


def _span(name, start, end, parent=None):
    return Span(name, start, end, parent, "r")


def test_self_time_subtracts_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 5.0, 6.0, parent=0),
        _span("a", 7.0, 9.0, parent=0),
    ]
    times = self_times(spans)
    assert times == pytest.approx({"root": 4.0, "a": 5.0, "b": 1.0})


def test_grandchildren_only_reduce_their_own_parent():
    spans = [
        _span("root", 0.0, 10.0),
        _span("mid", 0.0, 6.0, parent=0),
        _span("leaf", 1.0, 3.0, parent=1),
    ]
    times = self_times(spans)
    assert times == pytest.approx({"root": 4.0, "mid": 4.0, "leaf": 2.0})


def test_self_times_of_a_tracer_add_up_to_its_outermost_span():
    tracer = Tracer("r")
    with tracer.span("outer"):
        for _ in range(3):
            with tracer.span("mid"):
                with tracer.span("leaf"):
                    sum(range(1000))
    outer = tracer.spans[0]
    assert sum(self_times(tracer.spans).values()) == pytest.approx(outer.end - outer.start)


def test_tracer_records_parents_and_run_id(tmp_path):
    tracer = Tracer("run-7")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    tracer.count("things", 3)
    outer, inner = tracer.spans
    assert outer.parent is None and inner.parent == 0
    assert {s.run_id for s in tracer.spans} == {"run-7"}
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert tracer.counts["things"] == 3
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    assert len(path.read_text().splitlines()) == 2
