"""``RECORD_ORDER`` sorts trace records exactly as their dataclass order."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.record import RECORD_ORDER, TraceRecord
from repro.types import OpKind

records = st.lists(
    st.builds(
        TraceRecord,
        time=st.sampled_from([0.0, 0.5, 1.0, 2.5]),
        data_key=st.tuples(st.integers(0, 3), st.integers(0, 3)),
        op=st.sampled_from(list(OpKind)),
        size_bytes=st.sampled_from([512, 4096]),
    ),
    max_size=40,
)


def sort_ids(sort):
    """Object ids in sorted order, or the error type the sort raised."""
    try:
        return [id(record) for record in sort()]
    except TypeError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(records)
def test_key_order_matches_dataclass_order(trace):
    by_dataclass = sort_ids(lambda: sorted(trace))
    by_key = sort_ids(lambda: sorted(trace, key=RECORD_ORDER))
    assert by_key == by_dataclass


@settings(max_examples=300, deadline=None)
@given(records)
def test_key_order_matches_on_read_only_traces(trace):
    # Without op ties every pair is comparable, so both sorts succeed.
    reads = [
        TraceRecord(r.time, r.data_key, OpKind.READ, r.size_bytes) for r in trace
    ]
    assert [id(r) for r in sorted(reads, key=RECORD_ORDER)] == [
        id(r) for r in sorted(reads)
    ]
