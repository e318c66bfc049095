"""Stream timeline calculus invariants."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.stream import Segment, Stream, Timeline, WorkItem
from repro.sim.trace import render_gantt


def test_stream_serializes_work():
    s = Stream("gpu")
    a = s.enqueue(2.0)
    b = s.enqueue(3.0)
    assert a.start == 0.0 and a.end == 2.0
    assert b.start == 2.0 and b.end == 5.0


def test_not_before_delays_start():
    s = Stream("gpu")
    seg = s.enqueue(1.0, not_before=10.0)
    assert seg.start == 10.0 and seg.end == 11.0


def test_negative_duration_rejected():
    s = Stream("gpu")
    with pytest.raises(ValueError):
        s.enqueue(-1.0)


def test_utilization():
    s = Stream("gpu")
    s.enqueue(2.0)
    s.enqueue(2.0, not_before=6.0)
    assert s.utilization() == pytest.approx(0.5)  # 4 busy over [0, 8]


def test_cross_stream_dependency():
    t = Timeline(["pcie", "gpu"])
    transfer = t.enqueue("pcie", 5.0, label="p")
    compute = t.enqueue("gpu", 2.0, label="e", after=[transfer])
    assert compute.start == 5.0
    assert t.makespan() == 7.0


def test_independent_streams_overlap():
    t = Timeline(["a", "b"])
    sa = t.enqueue("a", 4.0)
    sb = t.enqueue("b", 4.0)
    assert sa.overlaps(sb)
    assert t.makespan() == 4.0


def test_lazy_stream_creation():
    t = Timeline()
    t.enqueue("new", 1.0)
    assert "new" in t


def test_duplicate_stream_rejected():
    t = Timeline(["x"])
    with pytest.raises(ValueError):
        t.add_stream("x")


def test_all_segments_sorted():
    t = Timeline(["a", "b"])
    t.enqueue("b", 1.0, not_before=5.0)
    t.enqueue("a", 1.0)
    segs = t.all_segments()
    starts = [s.start for s in segs]
    assert starts == sorted(starts)


def test_work_item_dag_placement():
    t = Timeline()
    load = WorkItem(stream="pcie", duration=3.0, label="load")
    compute = WorkItem(stream="gpu", duration=2.0, label="run", deps=[load])
    store = WorkItem(stream="pcie", duration=1.0, label="store", deps=[compute])
    seg = store.place(t)
    assert seg.start == 5.0 and seg.end == 6.0
    # Re-placing returns the same segment (no duplication).
    assert store.place(t) is seg


def test_zero_duration_segment():
    s = Stream("x")
    seg = s.enqueue(0.0)
    assert seg.duration == 0.0
    assert not seg.overlaps(seg)  # open interval


@given(
    durations=st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=20)
)
def test_stream_makespan_is_sum_of_durations(durations):
    """With no gates, a stream's completion equals total work."""
    s = Stream("s")
    for d in durations:
        s.enqueue(d)
    assert s.available_at == pytest.approx(sum(durations))


@given(
    durations=st.lists(
        st.tuples(st.floats(0, 50), st.floats(0, 50)), min_size=1, max_size=20
    )
)
def test_segments_on_one_stream_never_overlap(durations):
    s = Stream("s")
    for d, gate in durations:
        s.enqueue(d, not_before=gate)
    segs = s.segments
    for a, b in zip(segs, segs[1:]):
        assert a.end <= b.start


def test_segment_record():
    seg = Segment("gpu", "e", 1.0, 3.5)
    assert (seg.stream, seg.label, seg.start, seg.end) == ("gpu", "e", 1.0, 3.5)
    assert seg.duration == 2.5
    assert seg == Segment(stream="gpu", label="e", start=1.0, end=3.5)
    assert seg != Segment("gpu", "e", 1.0, 3.0)
    assert hash(seg) == hash(Segment("gpu", "e", 1.0, 3.5))
    assert seg.overlaps(Segment("h2d", "p", 3.0, 4.0))
    assert not seg.overlaps(Segment("h2d", "p", 3.5, 4.0))  # open intervals
    with pytest.raises(AttributeError):
        seg.end = 9.0


def test_enqueue_places_segments_and_gantt_is_unchanged():
    t = Timeline(["gpu", "h2d", "monde"])
    g = t.enqueue("gpu", 2.0, label="g")
    p = t.enqueue("h2d", 3.0, label="p", not_before=g.end)
    e = t.enqueue("gpu", 1.0, label="e", after=[p])
    t.enqueue("monde", 4.0, label="e", not_before=g.end)
    assert e == Segment("gpu", "e", 5.0, 6.0)
    assert t.stream("gpu").segments == [Segment("gpu", "g", 0.0, 2.0), e]
    assert render_gantt(t, width=24) == (
        "gpu   |ggggggggg          eeeee|\n"
        "h2d   |        pppppppppppp    |\n"
        "monde |        eeeeeeeeeeeeeeee|\n"
        "       0              6.000e+00s"
    )
